//! Circuit construction with topological invariants, zero/one pruning and
//! hash-consing.

use crate::{ChildRange, Circuit, ConstRef, GateDef, GateId};
use agq_semiring::fx::FxHashMap;

/// Builds a [`Circuit`] gate by gate. Children must already exist, so ids
/// are topological by construction. Trivial algebra is folded eagerly:
/// multiplying by a known `0`/`1` constant, adding `0`s, and permanents
/// with a structurally-zero column for some row short-circuit, which is
/// what keeps compiled circuits linear-size under support pruning.
///
/// Requests are **hash-consed**: asking for a gate the builder already
/// holds returns the existing id instead of emitting a copy. `Input(slot)`
/// and `Lit(index)` are interned per slot / index, and `Mul` per
/// *ordered* child pair, consulted after the 0/1 folding — `mul(a, b)`
/// twice is one gate, `mul(b, a)` is another, so no product's child
/// order (and no enumeration order) changes. `Add` and `Perm` are not
/// interned: the compiler almost never repeats them. Because a request's
/// answer depends only on the requests before it, replaying one
/// builder's gate stream through another builder's API (the parallel
/// compiler's merge) deduplicates across streams.
///
/// Child lists are appended to one shared arena (see the crate docs on
/// the flat IR); a finished circuit owns exactly two gate buffers no
/// matter how many gates it has.
#[derive(Default)]
pub struct CircuitBuilder {
    gates: Vec<GateDef>,
    children: Vec<GateId>,
    num_slots: u32,
    num_lits: u32,
    zero: Option<GateId>,
    one: Option<GateId>,
    /// The `Input` gate of each slot requested so far.
    inputs: Vec<Option<GateId>>,
    /// The `Lit` gate of each literal index requested so far.
    lits: Vec<Option<GateId>>,
    /// `Mul` gates by ordered `(left, right)` child pair.
    muls: FxHashMap<(GateId, GateId), GateId>,
}

impl CircuitBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, def: GateDef) -> GateId {
        let id = GateId(self.gates.len() as u32);
        self.gates.push(def);
        id
    }

    /// Append `kids` to the arena, returning their range.
    fn intern_children(&mut self, kids: &[GateId]) -> ChildRange {
        let start = self.children.len() as u32;
        self.children.extend_from_slice(kids);
        ChildRange {
            start,
            len: kids.len() as u32,
        }
    }

    /// An input gate reading `slot`.
    pub fn input(&mut self, slot: u32) -> GateId {
        self.num_slots = self.num_slots.max(slot + 1);
        if let Some(g) = *grow_to(&mut self.inputs, slot) {
            return g;
        }
        let g = self.push(GateDef::Input(slot));
        self.inputs[slot as usize] = Some(g);
        g
    }

    /// The shared `0` constant gate.
    pub fn zero(&mut self) -> GateId {
        if let Some(z) = self.zero {
            return z;
        }
        let z = self.push(GateDef::Const(ConstRef::Zero));
        self.zero = Some(z);
        z
    }

    /// The shared `1` constant gate.
    pub fn one(&mut self) -> GateId {
        if let Some(o) = self.one {
            return o;
        }
        let o = self.push(GateDef::Const(ConstRef::One));
        self.one = Some(o);
        o
    }

    /// A literal-table constant gate.
    pub fn lit(&mut self, index: u32) -> GateId {
        self.num_lits = self.num_lits.max(index + 1);
        if let Some(g) = *grow_to(&mut self.lits, index) {
            return g;
        }
        let g = self.push(GateDef::Const(ConstRef::Lit(index)));
        self.lits[index as usize] = Some(g);
        g
    }

    /// Is this gate the structural zero constant?
    pub fn is_zero(&self, g: GateId) -> bool {
        matches!(self.gates[g.0 as usize], GateDef::Const(ConstRef::Zero))
    }

    /// Is this gate the structural one constant?
    pub fn is_one(&self, g: GateId) -> bool {
        matches!(self.gates[g.0 as usize], GateDef::Const(ConstRef::One))
    }

    /// Sum of `children`, folding structural zeros.
    pub fn add(&mut self, children: &[GateId]) -> GateId {
        let nonzero = children.iter().filter(|&&g| !self.is_zero(g)).count();
        match nonzero {
            0 => self.zero(),
            1 => *children
                .iter()
                .find(|&&g| !self.is_zero(g))
                .expect("one nonzero child"),
            _ => {
                let start = self.children.len() as u32;
                for &g in children {
                    if !self.is_zero(g) {
                        self.children.push(g);
                    }
                }
                self.push(GateDef::Add(ChildRange {
                    start,
                    len: nonzero as u32,
                }))
            }
        }
    }

    /// Product of two gates, folding structural zeros and ones.
    pub fn mul(&mut self, a: GateId, b: GateId) -> GateId {
        if self.is_zero(a) || self.is_zero(b) {
            return self.zero();
        }
        if self.is_one(a) {
            return b;
        }
        if self.is_one(b) {
            return a;
        }
        if let Some(&m) = self.muls.get(&(a, b)) {
            return m;
        }
        let m = self.push(GateDef::Mul(a, b));
        self.muls.insert((a, b), m);
        m
    }

    /// Product of a list of gates.
    pub fn mul_all(&mut self, gs: &[GateId]) -> GateId {
        let mut acc = self.one();
        for &g in gs {
            acc = self.mul(acc, g);
        }
        acc
    }

    /// Permanent gate over columns of height `rows`.
    ///
    /// Structural pruning: columns that are all-zero are dropped (they can
    /// never be selected); if fewer columns than rows remain, the permanent
    /// is structurally zero. A 1-row permanent over a single column is that
    /// column's entry; a 0-row permanent is `1`.
    pub fn perm(&mut self, rows: usize, cols: &[[GateId; 2]]) -> GateId
    where
        [GateId; 2]: Sized,
    {
        // convenience wrapper for the common 2-row case
        let flat: Vec<GateId> = cols.iter().flat_map(|c| c.iter().copied()).collect();
        self.perm_flat(rows, flat)
    }

    /// Permanent gate from column-major flattened children
    /// (`flat.len() = rows · n`).
    pub fn perm_flat(&mut self, rows: usize, mut flat: Vec<GateId>) -> GateId {
        assert!(rows <= agq_perm::MAX_ROWS, "too many permanent rows");
        if rows == 0 {
            return self.one();
        }
        assert_eq!(flat.len() % rows, 0, "ragged permanent matrix");
        // Drop all-zero columns, compacting in place.
        let mut write = 0;
        for ci in 0..flat.len() / rows {
            let col = &flat[ci * rows..(ci + 1) * rows];
            if col.iter().any(|&g| !self.is_zero(g)) {
                flat.copy_within(ci * rows..(ci + 1) * rows, write);
                write += rows;
            }
        }
        flat.truncate(write);
        let n = flat.len() / rows;
        if n < rows {
            return self.zero();
        }
        if rows == 1 && n == 1 {
            return flat[0];
        }
        let cols = self.intern_children(&flat);
        self.push(GateDef::Perm {
            rows: rows as u8,
            cols,
        })
    }

    /// The gate stream and child arena built so far, without the intern
    /// tables: what a unit compiled in a local builder keeps until it is
    /// replayed into another builder (agq-core's parallel compiler), so a
    /// queued unit does not hold its tables. Child ranges resolve against
    /// the returned arena.
    pub fn into_raw_parts(self) -> (Vec<GateDef>, Vec<GateId>) {
        (self.gates, self.children)
    }

    /// Finish with the given output gate.
    pub fn finish(self, output: GateId) -> Circuit {
        assert!(
            (output.0 as usize) < self.gates.len(),
            "output gate out of range"
        );
        Circuit {
            gates: self.gates,
            children: self.children,
            num_slots: self.num_slots,
            num_lits: self.num_lits,
            output,
        }
    }
}

/// `table[index]`, growing the table with `None`s to cover it.
fn grow_to(table: &mut Vec<Option<GateId>>, index: u32) -> &mut Option<GateId> {
    let i = index as usize;
    if table.len() <= i {
        table.resize(i + 1, None);
    }
    &mut table[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use agq_semiring::Nat;

    #[test]
    fn zero_one_folding() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let z = b.zero();
        let o = b.one();
        assert_eq!(b.mul(x, o), x);
        assert_eq!(b.mul(x, z), z);
        assert_eq!(b.add(&[x, z]), x);
        assert_eq!(b.add(&[z, z]), z);
        let c = b.finish(x);
        assert_eq!(c.eval(&[Nat(7)], &[]), Nat(7));
    }

    #[test]
    fn perm_drops_zero_columns() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let z = b.zero();
        // 1-row permanent = sum; zero column dropped, singleton collapses
        let p = b.perm_flat(1, vec![x, z, y]);
        let c = b.finish(p);
        assert_eq!(c.eval(&[Nat(3), Nat(4)], &[]), Nat(7));
    }

    #[test]
    fn underfull_perm_is_zero() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let z = b.zero();
        // 2 rows but only one nonzero column
        let p = b.perm_flat(2, vec![x, x, z, z]);
        assert!(b.is_zero(p));
    }

    #[test]
    fn zero_row_perm_is_one() {
        let mut b = CircuitBuilder::new();
        let p = b.perm_flat(0, vec![]);
        assert!(b.is_one(p));
    }

    #[test]
    fn add_folds_interior_zeros() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let z = b.zero();
        let s = b.add(&[x, z, y, z]);
        let c = b.finish(s);
        match c.gates()[s.0 as usize] {
            GateDef::Add(r) => assert_eq!(c.children(r), &[x, y]),
            ref g => panic!("expected add, got {g:?}"),
        }
        assert_eq!(c.eval(&[Nat(3), Nat(4)], &[]), Nat(7));
    }

    #[test]
    fn mul_is_interned_on_the_ordered_pair() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let m = b.mul(x, y);
        assert_eq!(b.mul(x, y), m, "a repeated product is one gate");
        let swapped = b.mul(y, x);
        assert_ne!(swapped, m, "child order is part of the key");
        assert_eq!(b.mul(y, x), swapped);
        assert_eq!(b.input(1), y, "inputs are interned per slot");
        let l = b.lit(2);
        assert_eq!(b.lit(2), l, "literals are interned per index");
        let (gates, _) = b.into_raw_parts();
        assert_eq!(gates.len(), 5, "x, y, x·y, y·x, lit");
    }

    #[test]
    fn ids_are_topological() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let m = b.mul(x, y);
        let s = b.add(&[m, x]);
        let c = b.finish(s);
        for (i, g) in c.gates().iter().enumerate() {
            let ok = match g {
                GateDef::Input(_) | GateDef::Const(_) => true,
                GateDef::Add(r) => c.children(*r).iter().all(|k| (k.0 as usize) < i),
                GateDef::Mul(a, b2) => (a.0 as usize) < i && (b2.0 as usize) < i,
                GateDef::Perm { cols, .. } => c.children(*cols).iter().all(|k| (k.0 as usize) < i),
            };
            assert!(ok, "gate {i} references later gate");
        }
    }
}
