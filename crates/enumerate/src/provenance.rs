//! Result (C): provenance evaluation in the free semiring with
//! constant-access enumerators (Theorem 22).
//!
//! Weights take values in the free semiring `F_A` (supplied as summand
//! lists — the paper's bi-directional input iterators realized over
//! in-memory lists). The compiled circuit is *not* evaluated eagerly:
//! querying a tuple returns a constant-delay bidirectional enumerator
//! for the formal sum `f_A(w)(ā)`, built from the machinery of
//! [`crate::machine`] and [`crate::cursor`]. Free variables use the same
//! `v_i`-indicator trick as Theorem 8, with indicators valued `1` (the
//! empty monomial).

use crate::cursor::{Cursor, SummandIter};
use crate::machine::{EnumMachine, InputVal};
use agq_core::{compile, eliminate_quantifiers, CompileError, CompileOptions, SlotKey};
use agq_logic::{normalize, Expr};
use agq_semiring::{Gen, Nat};
use agq_structure::{Elem, Structure, WeightId};

/// A compiled weighted expression whose weights live in the free
/// semiring, ready to hand out provenance enumerators.
pub struct ProvenanceIndex {
    machine: EnumMachine,
    slots: std::sync::Arc<agq_core::SlotRegistry>,
    free_len: usize,
}

impl ProvenanceIndex {
    /// Compile `expr` over `a` and bind free-semiring weight values via
    /// `assign(weight, tuple)`. The expression's semiring parameter only
    /// carries coefficients and must use coefficient 1 (ℕ-coefficients
    /// other than one have no canonical free-semiring image here).
    pub fn build(
        a: &Structure,
        expr: &Expr<Nat>,
        opts: &CompileOptions,
        mut assign: impl FnMut(WeightId, &[Elem]) -> InputVal,
    ) -> Result<Self, CompileError> {
        let (expr, a2) = eliminate_quantifiers(expr, a, opts)?;
        let nf = normalize(&expr)?;
        let compiled = compile(&a2, &nf, opts)?;
        let values: Vec<InputVal> = compiled
            .slots
            .iter()
            .map(|(_, key)| match key {
                SlotKey::Weight(w, t) => assign(w, t.as_slice()),
                SlotKey::FreeVar(..) => Vec::new(), // off until queried
                SlotKey::AtomPos(r, t) => {
                    if a2.holds(r, t.as_slice()) {
                        vec![vec![]]
                    } else {
                        vec![]
                    }
                }
                SlotKey::AtomNeg(r, t) => {
                    if a2.holds(r, t.as_slice()) {
                        vec![]
                    } else {
                        vec![vec![]]
                    }
                }
            })
            .collect();
        let free_len = compiled.free_vars.len();
        let machine = EnumMachine::new(compiled.circuit.clone(), values);
        Ok(ProvenanceIndex {
            machine,
            slots: compiled.slots,
            free_len,
        })
    }

    /// The machine (instrumentation).
    pub fn machine(&self) -> &EnumMachine {
        &self.machine
    }

    /// Update one weight's free-semiring value in place (the dynamic part
    /// of Theorem 22); constant support-maintenance time.
    pub fn set_weight(&mut self, w: WeightId, t: &[Elem], value: InputVal) -> bool {
        match self
            .slots
            .lookup(&SlotKey::Weight(w, agq_structure::Tuple::new(t)))
        {
            Some(slot) => {
                self.machine.set_input(slot, value);
                true
            }
            None => false,
        }
    }

    /// Enumerator for the value at a free-variable tuple. The indicator
    /// slots stay set while the guard lives and are cleared on drop.
    pub fn enumerate_at(&mut self, tuple: &[Elem]) -> ProvIter<'_> {
        assert_eq!(tuple.len(), self.free_len, "tuple arity mismatch");
        let mut patched = Vec::with_capacity(tuple.len());
        let mut dead = false;
        for (i, &a) in tuple.iter().enumerate() {
            match self.slots.lookup(&SlotKey::FreeVar(i as u8, a)) {
                Some(slot) => patched.push(slot),
                None => {
                    dead = true; // structurally zero value
                    break;
                }
            }
        }
        if !dead {
            for &slot in &patched {
                self.machine.set_input_bool(slot, true);
            }
        }
        ProvIter {
            state: if dead {
                ProvState::Dead
            } else {
                ProvState::Before
            },
            index: self,
            patched,
        }
    }

    /// Enumerator for a closed expression's value.
    pub fn enumerate(&self) -> SummandIter<'_> {
        assert_eq!(self.free_len, 0, "expression has free variables");
        self.machine.summands()
    }
}

enum ProvState {
    Dead,
    Before,
    At(Cursor),
    After,
}

/// Guarded bidirectional enumerator for one queried tuple: holds the
/// indicator patches alive and clears them when dropped.
pub struct ProvIter<'a> {
    index: &'a mut ProvenanceIndex,
    patched: Vec<u32>,
    state: ProvState,
}

impl ProvIter<'_> {
    /// Advance; `None` past the end.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Vec<Gen>> {
        let out = self.index.machine.circuit().output();
        let state = std::mem::replace(&mut self.state, ProvState::After);
        self.state = match state {
            ProvState::Dead => ProvState::Dead,
            ProvState::Before => match self.index.machine.first(out) {
                Some(c) => ProvState::At(c),
                None => ProvState::After,
            },
            ProvState::At(mut c) => {
                if self.index.machine.advance(&mut c) {
                    ProvState::At(c)
                } else {
                    ProvState::After
                }
            }
            ProvState::After => ProvState::After,
        };
        self.current()
    }

    /// Step back; `None` before the beginning.
    pub fn prev(&mut self) -> Option<Vec<Gen>> {
        let out = self.index.machine.circuit().output();
        let state = std::mem::replace(&mut self.state, ProvState::Before);
        self.state = match state {
            ProvState::Dead => ProvState::Dead,
            ProvState::After => match self.index.machine.last(out) {
                Some(c) => ProvState::At(c),
                None => ProvState::Before,
            },
            ProvState::At(mut c) => {
                if self.index.machine.retreat(&mut c) {
                    ProvState::At(c)
                } else {
                    ProvState::Before
                }
            }
            ProvState::Before => ProvState::Before,
        };
        self.current()
    }

    /// The current summand's generators (unsorted monomial).
    pub fn current(&self) -> Option<Vec<Gen>> {
        match &self.state {
            ProvState::At(c) => {
                let mut out = Vec::new();
                self.index.machine.collect(c, &mut out);
                Some(out)
            }
            _ => None,
        }
    }
}

impl Drop for ProvIter<'_> {
    fn drop(&mut self) {
        self.state = ProvState::Dead;
        for &slot in &self.patched {
            // in-place toggle: querying allocates nothing per tuple
            self.index.machine.set_input_bool(slot, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agq_logic::{Formula, Var};
    use agq_semiring::{Monomial, Poly};
    use agq_structure::Signature;
    use std::sync::Arc;

    /// The paper's Example 21: the graph a,b,c,d with edges ab, bc, ca,
    /// bd, da; f(x) = Σ_{y,z} w(x,y)·w(y,z)·w(z,x) evaluated at a yields
    /// e_ab·e_bc·e_ca + e_ab·e_bd·e_da.
    #[test]
    fn example_21_triangle_provenance() {
        let (a_id, b_id, c_id, d_id) = (0u32, 1u32, 2u32, 3u32);
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        let w = sig.add_weight("w", 2);
        let mut a = Structure::new(Arc::new(sig), 4);
        let edges = [
            (a_id, b_id),
            (b_id, c_id),
            (c_id, a_id),
            (b_id, d_id),
            (d_id, a_id),
        ];
        for (u, v) in edges {
            a.insert(e, &[u, v]);
        }
        // f(x) = Σ_{y,z} w(x,y)·w(y,z)·w(z,x)
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let expr: Expr<Nat> = Expr::Mul(vec![
            Expr::Weight(w, vec![x, y]),
            Expr::Weight(w, vec![y, z]),
            Expr::Weight(w, vec![z, x]),
        ])
        .sum_over([y, z]);
        // identifier per edge: Gen(u*10+v)
        let mut ix = ProvenanceIndex::build(&a, &expr, &CompileOptions::default(), |_, t| {
            vec![vec![Gen((t[0] * 10 + t[1]) as u64)]]
        })
        .unwrap();
        let mut it = ix.enumerate_at(&[a_id]);
        let mut got = Vec::new();
        while let Some(m) = it.next() {
            got.push(Monomial::from_gens(m));
        }
        drop(it);
        let mono = |ids: [u64; 3]| Monomial::from_gens(ids.into_iter().map(Gen).collect());
        let mut expect = vec![
            mono([1, 12, 20]), // e_ab e_bc e_ca
            mono([1, 13, 30]), // e_ab e_bd e_da
        ];
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
        // querying a node with no triangle yields nothing
        let mut it = ix.enumerate_at(&[c_id]);
        // c has edges c→a only; triangle c,a,b? needs w(c,y)w(y,z)w(z,c):
        // c→a→b but b→c missing… b→c exists! c→a,a→b,b→c: yes, one triangle.
        let mut cnt = 0;
        while it.next().is_some() {
            cnt += 1;
        }
        drop(it);
        assert_eq!(cnt, 1);
    }

    /// Differential: enumerator output equals the eager free-semiring
    /// evaluation done by the baseline + Poly arithmetic.
    #[test]
    fn matches_eager_poly_evaluation() {
        use agq_structure::WeightedStructure;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..3u64 {
            let mut sig = Signature::new();
            let e = sig.add_relation("E", 2);
            let w = sig.add_weight("w", 2);
            let mut a = Structure::new(Arc::new(sig), 10);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..18 {
                let x = rng.gen_range(0..10u32);
                let y = rng.gen_range(0..10u32);
                if x != y {
                    a.insert(e, &[x, y]);
                }
            }
            // f = Σ_{x,y} [E(x,y)] w(x,y): provenance of the edge set
            let expr: Expr<Nat> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
                .times(Expr::Weight(w, vec![Var(0), Var(1)]))
                .sum_over([Var(0), Var(1)]);
            let ix = ProvenanceIndex::build(&a, &expr, &CompileOptions::default(), |_, t| {
                vec![vec![Gen((t[0] * 100 + t[1]) as u64)]]
            })
            .unwrap();
            let mut got: Vec<Monomial> = Vec::new();
            let mut it = ix.enumerate();
            while let Some(m) = it.next() {
                got.push(Monomial::from_gens(m));
            }
            got.sort();
            // eager oracle via Poly-weighted baseline evaluation
            let arc = Arc::new(a);
            let mut pw: WeightedStructure<Poly> = WeightedStructure::new(arc.clone());
            let tuples: Vec<_> = arc.relation(e).iter().cloned().collect();
            for t in &tuples {
                let s = t.as_slice();
                pw.set(w, s, Poly::var(Gen((s[0] * 100 + s[1]) as u64)));
            }
            let poly_expr: Expr<Poly> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
                .times(Expr::Weight(w, vec![Var(0), Var(1)]))
                .sum_over([Var(0), Var(1)]);
            let eager = agq_baseline::eval_closed(&poly_expr, &pw);
            let mut expect: Vec<Monomial> = Vec::new();
            for (m, c) in eager.terms() {
                for _ in 0..c {
                    expect.push(m.clone());
                }
            }
            expect.sort();
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    /// Multi-summand weights: the enumerator interleaves products.
    #[test]
    fn multi_summand_weights() {
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        let w = sig.add_weight("w", 2);
        let mut a = Structure::new(Arc::new(sig), 4);
        a.insert(e, &[0, 1]);
        a.insert(e, &[1, 2]);
        let expr: Expr<Nat> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
            .times(Expr::Weight(w, vec![Var(0), Var(1)]))
            .sum_over([Var(0), Var(1)]);
        let mut ix = ProvenanceIndex::build(&a, &expr, &CompileOptions::default(), |_, t| {
            // two summands per edge weight
            vec![
                vec![Gen((t[0] * 10 + t[1]) as u64)],
                vec![Gen(900 + (t[0] * 10 + t[1]) as u64)],
            ]
        })
        .unwrap();
        let mut count = 0;
        let mut it = ix.enumerate();
        while it.next().is_some() {
            count += 1;
        }
        drop(it);
        assert_eq!(count, 4, "2 edges × 2 summands");
        // dynamic weight update: drop one edge's weight to zero
        assert!(ix.set_weight(w, &[0, 1], vec![]));
        let mut it = ix.enumerate();
        let mut count = 0;
        while it.next().is_some() {
            count += 1;
        }
        assert_eq!(count, 2);
    }
}
