//! Bidirectional constant-delay cursors over gate values in the free
//! semiring (Lemma 23 for permanent gates).

use crate::machine::{next_set, prev_set, CountState, EnumMachine, PermSupport};
use agq_circuit::{ConstRef, GateDef, GateId};
use agq_perm::support::sdr_exists_rows;
use agq_semiring::{Gen, Nat};

/// Add gates at or above this fan-in get a cached prefix-sum table for
/// rank descent (below it a linear scan is cheaper than the cache).
const ADD_PREFIX_MIN: usize = 16;

/// A position within the formal sum computed by a gate. The cursor tree
/// mirrors the circuit unfolding: its size is bounded by the circuit
/// depth and the permanent row counts — query constants — so every
/// advance/retreat costs `O_f(1)`.
#[derive(Clone, Debug)]
pub enum Cursor {
    /// A summand of an input gate's value.
    Leaf {
        /// The input slot.
        slot: u32,
        /// Index into the slot's summand list.
        idx: usize,
    },
    /// The single summand `1` of a `Const(One)` gate.
    One,
    /// A summand of an addition gate: inside the supported child at
    /// position `pos`. Live children are walked in ascending position.
    Add {
        /// The gate.
        gate: u32,
        /// Position of the current child in the gate's child list.
        pos: u32,
        /// Cursor within that child.
        inner: Box<Cursor>,
    },
    /// A summand of a product: a pair of summands.
    Mul {
        /// Left child cursor.
        left: Box<Cursor>,
        /// Right child cursor.
        right: Box<Cursor>,
    },
    /// A summand of a permanent: an injective column choice per row plus
    /// a summand of each chosen entry (the Lemma 23 recursion).
    Perm {
        /// The gate.
        gate: u32,
        /// One choice per row, in row order.
        rows: Vec<PermRow>,
    },
}

/// One row's state inside a permanent cursor.
#[derive(Clone, Debug)]
pub struct PermRow {
    /// Support mask of the chosen column (its bucket in the pooled
    /// Lemma 39 structure).
    pub mask: u32,
    /// The chosen column index.
    pub col: u32,
    /// Cursor within the entry `M[row, col]`.
    pub entry: Cursor,
}

/// Bucket-count scratch for the Hall-condition viability checks: stack
/// storage for the common case (`2^k ≤ 64`), heap fallback above. Keeps
/// the per-candidate check allocation-free — the counts clone here was
/// the one allocation on the steady-state enumeration path.
struct CountScratch {
    stack: [i64; 64],
    heap: Vec<i64>,
}

impl CountScratch {
    fn new() -> Self {
        CountScratch {
            stack: [0; 64],
            heap: Vec::new(),
        }
    }

    /// A mutable copy of `counts`, reusing owned storage.
    fn load(&mut self, counts: &[i64]) -> &mut [i64] {
        if counts.len() <= 64 {
            let s = &mut self.stack[..counts.len()];
            s.copy_from_slice(counts);
            s
        } else {
            self.heap.clear();
            self.heap.extend_from_slice(counts);
            &mut self.heap
        }
    }
}

/// Direction of cursor construction.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    Fwd,
    Bwd,
}

impl EnumMachine {
    /// Cursor at the first summand of `gate`'s value, or `None` if zero.
    pub fn first(&self, gate: GateId) -> Option<Cursor> {
        self.boundary(gate, Dir::Fwd)
    }

    /// Cursor at the last summand of `gate`'s value, or `None` if zero.
    pub fn last(&self, gate: GateId) -> Option<Cursor> {
        self.boundary(gate, Dir::Bwd)
    }

    fn boundary(&self, gate: GateId, dir: Dir) -> Option<Cursor> {
        let gi = gate.0 as usize;
        if !self.support[gi] {
            return None;
        }
        Some(match &self.circuit().gates()[gi] {
            GateDef::Input(slot) => {
                let n = self.input(*slot).len();
                Cursor::Leaf {
                    slot: *slot,
                    idx: if dir == Dir::Fwd { 0 } else { n - 1 },
                }
            }
            GateDef::Const(ConstRef::One) => Cursor::One,
            GateDef::Const(_) => unreachable!("unsupported const"),
            GateDef::Add(_) => {
                let (pos, child) = self
                    .live_child(gate.0, None, dir)
                    .expect("supported add gate");
                Cursor::Add {
                    gate: gate.0,
                    pos,
                    inner: Box::new(self.boundary(child, dir).expect("supported child")),
                }
            }
            GateDef::Mul(a, b) => Cursor::Mul {
                left: Box::new(self.boundary(*a, dir).expect("supported")),
                right: Box::new(self.boundary(*b, dir).expect("supported")),
            },
            GateDef::Perm { rows, .. } => {
                let k = *rows as usize;
                let mut excluded = Vec::with_capacity(k);
                let rows = self
                    .perm_build(gate.0, 0, &mut excluded, dir)
                    .expect("supported permanent");
                Cursor::Perm { gate: gate.0, rows }
            }
        })
    }

    /// Build rows `r..k` of a permanent cursor at the boundary in `dir`,
    /// given the exclusions of rows `< r`. Succeeds whenever Hall's
    /// condition holds for the remaining rows (the construction
    /// invariant).
    fn perm_build(
        &self,
        gate: u32,
        r: usize,
        excluded: &mut Vec<u32>,
        dir: Dir,
    ) -> Option<Vec<PermRow>> {
        let ps = self.perm_support(gate);
        let k = ps.k();
        if r == k {
            return Some(Vec::new());
        }
        let (mask, col) = self.candidate(&ps, r, excluded, None, dir)?;
        let entry = self.entry_gate(gate, r, col);
        let entry_cur = self.boundary(entry, dir).expect("entry supported");
        excluded.push(col);
        let rest = self.perm_build(gate, r + 1, excluded, dir);
        excluded.pop();
        let mut rows = vec![PermRow {
            mask,
            col,
            entry: entry_cur,
        }];
        rows.extend(rest?);
        Some(rows)
    }

    /// The live child of add gate `gate` nearest in `dir` strictly past
    /// position `after`, or at the boundary when `after` is `None`: one
    /// word scan of the gate's live bits.
    fn live_child(&self, gate: u32, after: Option<u32>, dir: Dir) -> Option<(u32, GateId)> {
        let GateDef::Add(children) = &self.circuit().gates()[gate as usize] else {
            unreachable!("add gate")
        };
        let kids = self.circuit().children(*children);
        let live = self.add_live(gate);
        let pos = match (dir, after) {
            (Dir::Fwd, None) => next_set(live, 0),
            (Dir::Fwd, Some(p)) => next_set(live, p as usize + 1),
            (Dir::Bwd, None) => prev_set(live, kids.len()),
            (Dir::Bwd, Some(p)) => prev_set(live, p as usize),
        }?;
        Some((pos as u32, kids[pos]))
    }

    fn entry_gate(&self, gate: u32, row: usize, col: u32) -> GateId {
        match &self.circuit().gates()[gate as usize] {
            GateDef::Perm { rows, cols } => {
                self.circuit().children(*cols)[col as usize * (*rows as usize) + row]
            }
            _ => unreachable!("perm gate"),
        }
    }

    /// The first (or last) viable column for `row` given exclusions,
    /// strictly after (before) `after = (mask, col)` in bucket order
    /// (masks ascending, then bucket-list order).
    ///
    /// Viability (Lemma 39): the column's support mask contains `row`,
    /// and Hall's condition still holds for the later rows once this
    /// column and the exclusions are removed. Viability depends only on
    /// the mask, so whole mask buckets are accepted or skipped at once —
    /// `O_k(1)` total. Bucket membership is walked through the pooled
    /// linked lists; the count scratch is stack-allocated.
    fn candidate(
        &self,
        ps: &PermSupport<'_>,
        row: usize,
        excluded: &[u32],
        after: Option<(u32, u32)>,
        dir: Dir,
    ) -> Option<(u32, u32)> {
        let k = ps.k();
        let full = (1u32 << k) - 1;
        // remaining rows strictly after `row`
        let remaining = full & !((1u32 << (row + 1)) - 1);
        let counts = ps.counts();
        let mut scratch = CountScratch::new();
        let mut m = if dir == Dir::Fwd { 0u32 } else { full };
        loop {
            let skip = m & (1 << row) == 0
                || match after {
                    Some((am, _)) => (dir == Dir::Fwd && m < am) || (dir == Dir::Bwd && m > am),
                    None => false,
                };
            if !skip {
                // Starting column of this bucket's scan: after `after`
                // when resuming inside its bucket, else the boundary.
                let start = match (after, dir) {
                    (Some((am, ac)), Dir::Fwd) if am == m => ps.next(ac),
                    (Some((am, ac)), Dir::Bwd) if am == m => ps.prev(ac),
                    (_, Dir::Fwd) => ps.head(m),
                    (_, Dir::Bwd) => ps.tail(m),
                };
                if start.is_some() {
                    // Check viability of this mask once (counts minus
                    // exclusions minus one column of this mask).
                    let counts_mut = scratch.load(counts);
                    for &x in excluded {
                        counts_mut[ps.mask_of(x) as usize] -= 1;
                    }
                    counts_mut[m as usize] -= 1;
                    if sdr_exists_rows(k, counts_mut, remaining) {
                        let mut cur = start;
                        while let Some(col) = cur {
                            if !excluded.contains(&col) {
                                return Some((m, col));
                            }
                            cur = match dir {
                                Dir::Fwd => ps.next(col),
                                Dir::Bwd => ps.prev(col),
                            };
                        }
                    }
                }
            }
            match dir {
                Dir::Fwd => {
                    if m == full {
                        break;
                    }
                    m += 1;
                }
                Dir::Bwd => {
                    if m == 0 {
                        break;
                    }
                    m -= 1;
                }
            }
        }
        None
    }

    /// Step the cursor to the next summand; false when exhausted.
    pub fn advance(&self, cur: &mut Cursor) -> bool {
        self.step(cur, Dir::Fwd)
    }

    /// Step the cursor to the previous summand; false at the beginning.
    pub fn retreat(&self, cur: &mut Cursor) -> bool {
        self.step(cur, Dir::Bwd)
    }

    fn step(&self, cur: &mut Cursor, dir: Dir) -> bool {
        match cur {
            Cursor::Leaf { slot, idx } => {
                let n = self.input(*slot).len();
                match dir {
                    Dir::Fwd if *idx + 1 < n => {
                        *idx += 1;
                        true
                    }
                    Dir::Bwd if *idx > 0 => {
                        *idx -= 1;
                        true
                    }
                    _ => false,
                }
            }
            Cursor::One => false,
            Cursor::Add { gate, pos, inner } => {
                if self.step(inner, dir) {
                    return true;
                }
                let Some((next, child)) = self.live_child(*gate, Some(*pos), dir) else {
                    return false;
                };
                *pos = next;
                **inner = self.boundary(child, dir).expect("supported child");
                true
            }
            Cursor::Mul { left, right } => {
                if self.step(right, dir) {
                    return true;
                }
                if self.step(left, dir) {
                    // reset the right component to its boundary; its gate
                    // is recoverable from the cursor by rebuilding from
                    // the left sibling's gate — instead we re-derive from
                    // the existing cursor (reset in place).
                    self.reset(right, dir);
                    return true;
                }
                false
            }
            Cursor::Perm { gate, rows } => {
                let mut excluded = Vec::with_capacity(rows.len());
                self.perm_step(*gate, rows, 0, &mut excluded, dir)
            }
        }
    }

    fn perm_step(
        &self,
        gate: u32,
        rows: &mut Vec<PermRow>,
        r: usize,
        excluded: &mut Vec<u32>,
        dir: Dir,
    ) -> bool {
        if r == rows.len() {
            return false;
        }
        // least significant first: deeper rows
        excluded.push(rows[r].col);
        if self.perm_step(gate, rows, r + 1, excluded, dir) {
            excluded.pop();
            return true;
        }
        excluded.pop();
        // then this row's entry summand
        if self.step(&mut rows[r].entry, dir) {
            excluded.push(rows[r].col);
            self.perm_reset_suffix(gate, rows, r + 1, excluded, dir);
            excluded.pop();
            return true;
        }
        // then this row's column choice
        let ps = self.perm_support(gate);
        if let Some((m, col)) =
            self.candidate(&ps, r, excluded, Some((rows[r].mask, rows[r].col)), dir)
        {
            let entry = self.entry_gate(gate, r, col);
            rows[r] = PermRow {
                mask: m,
                col,
                entry: self.boundary(entry, dir).expect("entry supported"),
            };
            excluded.push(col);
            self.perm_reset_suffix(gate, rows, r + 1, excluded, dir);
            excluded.pop();
            return true;
        }
        false
    }

    /// Reset rows `r1..` of a live permanent cursor to their boundary in
    /// `dir`, **in place** — the incremental form of
    /// [`Self::perm_build`]'s suffix rebuild. Column choices are
    /// re-derived (deeper rows may sit mid-enumeration on non-boundary
    /// columns), but rows whose boundary column matches their current one
    /// keep their `PermRow` and reset the entry cursor in place, so the
    /// common suffix-rebuild of a step allocates nothing. Succeeds by the
    /// construction invariant (Hall's condition holds for the remaining
    /// rows under the prefix exclusions).
    fn perm_reset_suffix(
        &self,
        gate: u32,
        rows: &mut [PermRow],
        r1: usize,
        excluded: &mut Vec<u32>,
        dir: Dir,
    ) {
        let k = rows.len();
        let ps = self.perm_support(gate);
        for (i, row) in rows.iter_mut().enumerate().skip(r1) {
            let (mask, col) = self
                .candidate(&ps, i, excluded, None, dir)
                .expect("invariant: suffix stays viable");
            if row.col == col {
                row.mask = mask;
                self.reset(&mut row.entry, dir);
            } else {
                let entry = self.entry_gate(gate, i, col);
                *row = PermRow {
                    mask,
                    col,
                    entry: self.boundary(entry, dir).expect("entry supported"),
                };
            }
            excluded.push(col);
        }
        excluded.truncate(excluded.len() - (k - r1));
    }

    /// Reset a cursor (of known shape) to its boundary in `dir`, reusing
    /// the gate information stored in the cursor itself.
    fn reset(&self, cur: &mut Cursor, dir: Dir) {
        match cur {
            Cursor::Leaf { slot, idx } => {
                *idx = if dir == Dir::Fwd {
                    0
                } else {
                    self.input(*slot).len() - 1
                };
            }
            Cursor::One => {}
            Cursor::Add { gate, pos, inner } => {
                let (first, child) = self
                    .live_child(*gate, None, dir)
                    .expect("supported add gate");
                *pos = first;
                **inner = self.boundary(child, dir).expect("supported");
            }
            Cursor::Mul { left, right } => {
                self.reset(left, dir);
                self.reset(right, dir);
            }
            Cursor::Perm { gate, rows } => {
                let mut excluded = Vec::new();
                *rows = self
                    .perm_build(*gate, 0, &mut excluded, dir)
                    .expect("supported perm");
            }
        }
    }

    /// Append the generators of the cursor's current summand to `out`.
    pub fn collect(&self, cur: &Cursor, out: &mut Vec<Gen>) {
        match cur {
            Cursor::Leaf { slot, idx } => {
                out.extend_from_slice(&self.input(*slot)[*idx]);
            }
            Cursor::One => {}
            Cursor::Add { inner, .. } => self.collect(inner, out),
            Cursor::Mul { left, right } => {
                self.collect(left, out);
                self.collect(right, out);
            }
            Cursor::Perm { rows, .. } => {
                for row in rows {
                    self.collect(&row.entry, out);
                }
            }
        }
    }

    /// Cursor at the `k`-th summand (0-based, cursor order) of `gate`'s
    /// value, found by **rank descent** over the maintained subtree
    /// counts — no enumeration over preceding summands. `None` when
    /// `k ≥ count(gate)`.
    ///
    /// The descent mirrors the cursor's step order exactly, most
    /// significant first:
    ///
    /// * **Add** — children concatenate in ascending position, an
    ///   unsupported child contributing its count 0; narrow gates walk
    ///   the child counts, wide gates binary-search the cached
    ///   prefix-sum table ([`CountState::add_prefix_for`]) so the
    ///   descent never scans a data-sized fan-in.
    /// * **Mul** — the right factor is least significant (`step` advances
    ///   it first), so `k = l·|right| + r` splits by div/mod.
    /// * **Perm** — per row, column blocks follow the bucket order of
    ///   [`EnumMachine::candidate`] (masks ascending, list order within a
    ///   bucket); a `(row, col)` block holds
    ///   `count(entry) · rest(row+1, excluded ∪ {col})` summands with the
    ///   entry index more significant than the deeper rows (Lemma 23's
    ///   recursion, counted). The rest counts are row-subset permanents
    ///   with the chosen columns zeroed, answered by the count
    ///   evaluator's [`agq_perm::SegTreePerm::peek_rows`].
    ///
    /// `visits` counts recursive gate descents — bounded by the circuit
    /// depth times the permanent row counts, independent of `k`.
    pub(crate) fn seek_gate(
        &self,
        st: &mut CountState,
        gate: GateId,
        k: u64,
        visits: &mut u64,
    ) -> Option<Cursor> {
        *visits += 1;
        let gi = gate.0 as usize;
        if !self.support[gi] {
            return None;
        }
        match &self.circuit().gates()[gi] {
            GateDef::Input(slot) => {
                let n = self.input(*slot).len() as u64;
                (k < n).then_some(Cursor::Leaf {
                    slot: *slot,
                    idx: k as usize,
                })
            }
            GateDef::Const(ConstRef::One) => (k == 0).then_some(Cursor::One),
            GateDef::Const(_) => unreachable!("unsupported const"),
            GateDef::Add(children) => {
                let kids = self.circuit().children(*children);
                let (pos, rem) = if kids.len() >= ADD_PREFIX_MIN {
                    // data-sized fan-in: binary search the cached
                    // prefix-sum table instead of scanning
                    let prefix = st.add_prefix_for(gate.0);
                    let i = prefix.partition_point(|&c| c <= k);
                    if i == prefix.len() {
                        return None;
                    }
                    let before = if i == 0 { 0 } else { prefix[i - 1] };
                    (i, k - before)
                } else {
                    let mut k = k;
                    let mut found = None;
                    for (p, &child) in kids.iter().enumerate() {
                        let c = st.eval().value(child).0;
                        if k < c {
                            found = Some((p, k));
                            break;
                        }
                        k -= c;
                    }
                    found?
                };
                Some(Cursor::Add {
                    gate: gate.0,
                    pos: pos as u32,
                    inner: Box::new(self.seek_gate(st, kids[pos], rem, visits)?),
                })
            }
            GateDef::Mul(a, b) => {
                let rc = st.eval().value(*b).0;
                if rc == 0 {
                    return None;
                }
                Some(Cursor::Mul {
                    left: Box::new(self.seek_gate(st, *a, k / rc, visits)?),
                    right: Box::new(self.seek_gate(st, *b, k % rc, visits)?),
                })
            }
            GateDef::Perm { .. } => {
                let mut excluded = Vec::new();
                let rows = self.perm_seek(st, gate.0, 0, &mut excluded, k, visits)?;
                Some(Cursor::Perm { gate: gate.0, rows })
            }
        }
    }

    /// Build rows `r..k` of a permanent cursor positioned at local rank
    /// `k` among the completions of the deeper rows, given the exclusions
    /// of rows `< r`. `None` when `k` exceeds the number of completions.
    fn perm_seek(
        &self,
        st: &mut CountState,
        gate: u32,
        r: usize,
        excluded: &mut Vec<u32>,
        k: u64,
        visits: &mut u64,
    ) -> Option<Vec<PermRow>> {
        let ps = self.perm_support(gate);
        let kk = ps.k();
        if r == kk {
            return (k == 0).then(Vec::new);
        }
        // Rows strictly after `r` (less significant); their completion
        // count under a fixed column prefix is the row-subset permanent
        // with the prefix columns zeroed.
        let deeper = ((1usize << kk) - 1) & !((1usize << (r + 1)) - 1);
        let full = (1u32 << kk) - 1;
        let mut k = k;
        // Rest counts by inclusion–exclusion instead of one segment-tree
        // query per candidate column: one `peek_table` walk yields
        // `Q[R] = perm_R(cols ∖ excluded)` for every deeper-row subset
        // `R`, and forcing the deeper rows to also avoid a candidate
        // column `c` is then O(2^d) ring arithmetic per column —
        //
        //   rest(c) = Σ_{S ⊆ D} (−1)^{|S|} · |S|! · Π_{ρ∈S} M[ρ,c] · Q[D∖S]
        //
        // (unrolling "at most one deeper row uses c": each ordered
        // sequence of distinct rows forced onto `c` is subtracted and
        // added back alternately, and a subset S arises from |S|!
        // orderings). All products wrap mod 2^64 with the count
        // semantics (crate docs): exact whenever the true total fits.
        let d_rows: Vec<usize> = ((r + 1)..kk).collect();
        let d = d_rows.len();
        let qtab: Vec<u64> = if deeper == 0 || d > 4 {
            Vec::new()
        } else {
            let patches: Vec<(usize, usize, Nat)> = excluded
                .iter()
                .flat_map(|&x| ((r + 1)..kk).map(move |row| (row, x as usize, Nat(0))))
                .collect();
            st.eval()
                .perm_maint(GateId(gate))
                .expect("count evaluator shares the circuit")
                .peek_table(&patches)
                .iter()
                .map(|v| v.0)
                .collect()
        };
        // Per-subset coefficient factorials for |S| ≤ 4 (kk ≤ 5).
        const FACT: [u64; 5] = [1, 1, 2, 6, 24];
        let mut patches: Vec<(usize, usize, Nat)> = Vec::new();
        let mut m = 0u32;
        loop {
            // Bucket order of `candidate`: masks ascending, list order
            // within a bucket. Non-viable blocks contribute 0 and fall
            // through arithmetically — no Hall check needed.
            if m & (1 << r) != 0 {
                let mut cur = ps.head(m);
                while let Some(col) = cur {
                    if !excluded.contains(&col) {
                        let entry = self.entry_gate(gate, r, col);
                        let cnt = st.eval().value(entry).0;
                        let rest = if deeper == 0 {
                            u64::from(cnt > 0)
                        } else if cnt == 0 {
                            0
                        } else if d <= 4 {
                            let mut mv = [0u64; 4];
                            for (i, &row) in d_rows.iter().enumerate() {
                                mv[i] = st.eval().value(self.entry_gate(gate, row, col)).0;
                            }
                            // prod[s] = Π_{i∈s} mv[i], rowmask[s] = the
                            // actual row mask of subset s, by lowest bit
                            let mut prod = [0u64; 16];
                            let mut rowmask = [0usize; 16];
                            prod[0] = 1;
                            let mut rest = 0u64;
                            for s in 0..1usize << d {
                                if s > 0 {
                                    let i = s.trailing_zeros() as usize;
                                    prod[s] = prod[s & (s - 1)].wrapping_mul(mv[i]);
                                    rowmask[s] = rowmask[s & (s - 1)] | (1 << d_rows[i]);
                                }
                                let bits = s.count_ones() as usize;
                                let term = prod[s]
                                    .wrapping_mul(FACT[bits])
                                    .wrapping_mul(qtab[deeper & !rowmask[s]]);
                                rest = if bits.is_multiple_of(2) {
                                    rest.wrapping_add(term)
                                } else {
                                    rest.wrapping_sub(term)
                                };
                            }
                            rest
                        } else {
                            // Fallback for perm gates wider than the
                            // subset tables (kk > 5 — not produced by
                            // the current compiler): one query-by-peek
                            // per column.
                            patches.clear();
                            for &x in excluded.iter().chain(std::iter::once(&col)) {
                                for row in (r + 1)..kk {
                                    patches.push((row, x as usize, Nat(0)));
                                }
                            }
                            st.eval()
                                .perm_maint(GateId(gate))
                                .expect("count evaluator shares the circuit")
                                .peek_rows(&patches, deeper)
                                .0
                        };
                        // Overflow wraps with the count semantics (crate
                        // docs); exact whenever the total fits in u64.
                        let block = cnt.wrapping_mul(rest);
                        if k < block {
                            let entry_cur = self.seek_gate(st, entry, k / rest, visits)?;
                            excluded.push(col);
                            let tail = self.perm_seek(st, gate, r + 1, excluded, k % rest, visits);
                            excluded.pop();
                            let mut rows = vec![PermRow {
                                mask: m,
                                col,
                                entry: entry_cur,
                            }];
                            rows.extend(tail?);
                            return Some(rows);
                        }
                        k -= block;
                    }
                    cur = ps.next(col);
                }
            }
            if m == full {
                break;
            }
            m += 1;
        }
        None
    }

    /// A bidirectional iterator over the output gate's summands.
    pub fn summands(&self) -> SummandIter<'_> {
        SummandIter {
            machine: self,
            version: self.version,
            state: IterState::Before,
        }
    }
}

enum IterState {
    Before,
    At(Cursor),
    After,
}

/// Bidirectional iterator over the summands of the output gate — the
/// paper's constant-access-time iterator (`next`, `previous`, `current`).
///
/// Outstanding iterators are invalidated by updates; using one afterwards
/// panics (checked against the machine's version counter).
pub struct SummandIter<'m> {
    machine: &'m EnumMachine,
    version: u64,
    state: IterState,
}

impl SummandIter<'_> {
    fn check(&self) {
        assert_eq!(
            self.version, self.machine.version,
            "iterator invalidated by an update"
        );
    }

    /// Advance and return the new current summand (None past the end).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Vec<Gen>> {
        self.check();
        let out = self.machine.circuit().output();
        let state = std::mem::replace(&mut self.state, IterState::After);
        self.state = match state {
            IterState::Before => match self.machine.first(out) {
                Some(c) => IterState::At(c),
                None => IterState::After,
            },
            IterState::At(mut c) => {
                if self.machine.advance(&mut c) {
                    IterState::At(c)
                } else {
                    IterState::After
                }
            }
            IterState::After => IterState::After,
        };
        self.current()
    }

    /// Step back and return the new current summand (None before the
    /// start).
    pub fn prev(&mut self) -> Option<Vec<Gen>> {
        self.check();
        let out = self.machine.circuit().output();
        let state = std::mem::replace(&mut self.state, IterState::Before);
        self.state = match state {
            IterState::After => match self.machine.last(out) {
                Some(c) => IterState::At(c),
                None => IterState::Before,
            },
            IterState::At(mut c) => {
                if self.machine.retreat(&mut c) {
                    IterState::At(c)
                } else {
                    IterState::Before
                }
            }
            IterState::Before => IterState::Before,
        };
        self.current()
    }

    /// Position the iterator directly on the `k`-th summand (0-based,
    /// cursor order) by rank descent — `O(depth × perm rows)` gate
    /// visits, no enumeration — and return it. Out-of-range `k` returns
    /// `None` with the iterator positioned past the end. The iterator
    /// remains bidirectional from the sought position.
    pub fn seek(&mut self, k: u64) -> Option<Vec<Gen>> {
        self.seek_counting(k).0
    }

    /// [`SummandIter::seek`] returning the number of recursive gate
    /// descents performed (instrumentation for the rank-access bound).
    pub fn seek_counting(&mut self, k: u64) -> (Option<Vec<Gen>>, u64) {
        self.check();
        let out = self.machine.circuit().output();
        let mut visits = 0u64;
        let cursor = {
            let mut guard = self.machine.counts();
            self.machine.seek_gate(&mut guard, out, k, &mut visits)
        };
        self.state = match cursor {
            Some(c) => IterState::At(c),
            None => IterState::After,
        };
        (self.current(), visits)
    }

    /// The current summand, if positioned on one.
    pub fn current(&self) -> Option<Vec<Gen>> {
        self.check();
        match &self.state {
            IterState::At(c) => {
                let mut out = Vec::new();
                self.machine.collect(c, &mut out);
                Some(out)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::InputVal;
    use agq_circuit::CircuitBuilder;
    use agq_semiring::{Monomial, Poly, Semiring};
    use std::sync::Arc;

    /// Oracle: evaluate the circuit in the free semiring eagerly and
    /// compare the multiset of monomials with what the cursor emits.
    fn assert_enumerates_exactly(machine: &EnumMachine) {
        let polys: Vec<Poly> = (0..machine.circuit().num_slots())
            .map(|s| {
                let mut p = Poly::zero();
                for mono in machine.input(s as u32) {
                    p = p.add(&Poly::monomial(Monomial::from_gens(mono.clone()), 1));
                }
                p
            })
            .collect();
        let expect = machine.circuit().eval(&polys, &[]);
        // collect from the iterator
        let mut got: Vec<Monomial> = Vec::new();
        let mut it = machine.summands();
        while let Some(m) = it.next() {
            got.push(Monomial::from_gens(m));
        }
        // multiset compare
        let mut expect_list: Vec<Monomial> = Vec::new();
        for (m, c) in expect.terms() {
            for _ in 0..c {
                expect_list.push(m.clone());
            }
        }
        got.sort();
        expect_list.sort();
        assert_eq!(got, expect_list, "cursor must enumerate the exact sum");
        // bidirectionality: walking backward yields the reverse
        let mut back: Vec<Monomial> = Vec::new();
        let mut it = machine.summands();
        while it.next().is_some() {}
        while let Some(m) = it.prev() {
            back.push(Monomial::from_gens(m));
        }
        back.reverse();
        let mut fwd: Vec<Monomial> = Vec::new();
        let mut it = machine.summands();
        while let Some(m) = it.next() {
            fwd.push(Monomial::from_gens(m));
        }
        assert_eq!(fwd, back, "backward walk must mirror forward walk");
        assert_seek_matches_walk(machine);
    }

    /// Oracle for rank access: `seek(k)` must land exactly where `k`
    /// forward steps land, stay bidirectional from there, and the
    /// maintained count must match the eager one.
    fn assert_seek_matches_walk(machine: &EnumMachine) {
        let mut fwd: Vec<Vec<Gen>> = Vec::new();
        let mut it = machine.summands();
        while let Some(m) = it.next() {
            fwd.push(m);
        }
        assert_eq!(machine.summand_count(), fwd.len() as u64);
        assert_eq!(machine.count_summands(), fwd.len() as u64);
        for k in 0..fwd.len() {
            let mut it = machine.summands();
            let (got, _visits) = it.seek_counting(k as u64);
            assert_eq!(got.as_ref(), Some(&fwd[k]), "seek({k})");
            match fwd.get(k + 1) {
                Some(next) => assert_eq!(it.next().as_ref(), Some(next), "next after seek({k})"),
                None => assert_eq!(it.next(), None, "exhausted after seek({k})"),
            }
            if k > 0 {
                let mut it = machine.summands();
                it.seek(k as u64);
                assert_eq!(
                    it.prev().as_ref(),
                    Some(&fwd[k - 1]),
                    "prev after seek({k})"
                );
            }
        }
        let mut it = machine.summands();
        assert_eq!(it.seek(fwd.len() as u64), None, "out-of-range seek");
        assert_eq!(it.next(), None, "positioned past the end");
    }

    fn gens(ids: &[u64]) -> InputVal {
        ids.iter().map(|&i| vec![Gen(i)]).collect()
    }

    #[test]
    fn add_and_mul_enumeration() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let z = b.input(2);
        let s = b.add(&[x, y]);
        let m = b.mul(s, z);
        let c = Arc::new(b.finish(m));
        let machine = EnumMachine::new(c, vec![gens(&[1, 2]), gens(&[3]), gens(&[10, 20])]);
        assert_enumerates_exactly(&machine);
    }

    #[test]
    fn two_row_permanent_enumeration() {
        let mut b = CircuitBuilder::new();
        let inputs: Vec<_> = (0..6).map(|i| b.input(i)).collect();
        let p = b.perm_flat(2, inputs.clone());
        let c = Arc::new(b.finish(p));
        let machine = EnumMachine::new(c, (0..6).map(|i| gens(&[i as u64 + 1])).collect());
        assert_enumerates_exactly(&machine);
    }

    #[test]
    fn permanent_with_zero_entries() {
        let mut b = CircuitBuilder::new();
        let inputs: Vec<_> = (0..6).map(|i| b.input(i)).collect();
        let p = b.perm_flat(2, inputs.clone());
        let c = Arc::new(b.finish(p));
        // column 1 fully zero; column 0 row 1 zero
        let vals = vec![gens(&[1]), vec![], vec![], vec![], gens(&[5]), gens(&[6])];
        let machine = EnumMachine::new(c, vals);
        assert_enumerates_exactly(&machine);
    }

    #[test]
    fn three_row_permanent_with_multi_summand_entries() {
        let mut b = CircuitBuilder::new();
        let inputs: Vec<_> = (0..12).map(|i| b.input(i)).collect();
        let p = b.perm_flat(3, inputs.clone());
        let c = Arc::new(b.finish(p));
        let mut vals: Vec<InputVal> = Vec::new();
        for i in 0..12u64 {
            if i % 5 == 0 {
                vals.push(vec![]);
            } else if i % 3 == 0 {
                vals.push(gens(&[i, 100 + i]));
            } else {
                vals.push(gens(&[i]));
            }
        }
        let machine = EnumMachine::new(c, vals);
        assert_enumerates_exactly(&machine);
    }

    /// 4- and 5-row permanents drive the deepest inclusion–exclusion
    /// rest counts of rank descent (subset coefficients 3! and 4!),
    /// which smaller matrices never reach. Entry counts mix 0, 1, and
    /// many so the subset terms carry genuinely different weights.
    #[test]
    fn wide_permanent_rank_descent() {
        for rows in [4usize, 5] {
            let cols = rows + 1;
            let mut b = CircuitBuilder::new();
            let inputs: Vec<_> = (0..rows * cols).map(|i| b.input(i as u32)).collect();
            let p = b.perm_flat(rows, inputs.clone());
            let c = Arc::new(b.finish(p));
            let mut vals: Vec<InputVal> = Vec::new();
            for i in 0..(rows * cols) as u64 {
                if i % 7 == 0 {
                    vals.push(vec![]);
                } else if i % 3 == 0 {
                    vals.push(gens(&[i, 100 + i, 200 + i]));
                } else if i % 3 == 1 {
                    vals.push(gens(&[i, 100 + i]));
                } else {
                    vals.push(gens(&[i]));
                }
            }
            let machine = EnumMachine::new(c, vals);
            assert_enumerates_exactly(&machine);
        }
    }

    #[test]
    fn nested_perm_inside_perm_via_mul() {
        // perm2 of columns whose entries are products and sums
        let mut b = CircuitBuilder::new();
        let x: Vec<_> = (0..4).map(|i| b.input(i)).collect();
        let s = b.add(&[x[0], x[1]]);
        let m = b.mul(x[2], x[3]);
        let inner = b.perm_flat(1, vec![s, m]); // 1-row perm = sum
        let p = b.perm_flat(2, vec![x[0], inner, x[3], s]);
        let c = Arc::new(b.finish(p));
        let machine = EnumMachine::new(
            c,
            vec![gens(&[1, 2]), gens(&[3]), gens(&[4]), gens(&[5, 6])],
        );
        assert_enumerates_exactly(&machine);
    }

    #[test]
    fn enumeration_after_updates() {
        let mut b = CircuitBuilder::new();
        let inputs: Vec<_> = (0..6).map(|i| b.input(i)).collect();
        let p = b.perm_flat(2, inputs.clone());
        let c = Arc::new(b.finish(p));
        let mut machine = EnumMachine::new(c, (0..6).map(|i| gens(&[i as u64 + 1])).collect());
        assert_enumerates_exactly(&machine);
        machine.set_input(2, vec![]);
        machine.set_input(5, vec![]);
        assert_enumerates_exactly(&machine);
        machine.set_input(2, gens(&[42, 43]));
        assert_enumerates_exactly(&machine);
    }

    /// Answer order at an add gate is a function of the state: two
    /// machines driven to the same inputs through different removals and
    /// re-additions of children 0, 63, 64, 127 and 129 of a fan-in-130
    /// sum (three live-set words) enumerate, walk back and seek alike.
    #[test]
    fn add_order_is_a_function_of_the_state() {
        let mut b = CircuitBuilder::new();
        let xs: Vec<_> = (0..130).map(|i| b.input(i)).collect();
        let s = b.add(&xs);
        let y = b.input(130);
        let out = b.mul(s, y);
        let c = Arc::new(b.finish(out));
        let val = |slot: u32| match slot {
            130 => gens(&[500, 501]),
            i if i % 3 == 0 => gens(&[i as u64, 1000 + i as u64]),
            i => gens(&[i as u64]),
        };
        let init: Vec<InputVal> = (0..131).map(val).collect();
        let mut a = EnumMachine::new(c.clone(), init.clone());
        let mut bm = EnumMachine::new(c, init);
        for slot in [0, 63, 64, 127, 129] {
            a.set_input(slot, vec![]);
        }
        for slot in [129, 0, 64, 63, 127] {
            a.set_input(slot, val(slot));
        }
        for (slot, on) in [
            (127, false),
            (127, true),
            (64, false),
            (0, false),
            (0, true),
            (129, false),
            (63, false),
            (64, true),
            (63, true),
            (129, true),
        ] {
            bm.set_input(slot, if on { val(slot) } else { vec![] });
        }
        let walk = |m: &EnumMachine| {
            let mut it = m.summands();
            let fwd: Vec<_> = std::iter::from_fn(|| it.next()).collect();
            let mut bwd: Vec<_> = std::iter::from_fn(|| it.prev()).collect();
            bwd.reverse();
            (fwd, bwd)
        };
        let (fwd, bwd) = walk(&a);
        assert_eq!(fwd.len(), (130 + 44) * 2);
        assert_eq!(fwd, bwd);
        assert_eq!(walk(&bm), (fwd.clone(), bwd));
        for k in 0..=fwd.len() as u64 {
            assert_eq!(a.summands().seek(k), bm.summands().seek(k), "seek({k})");
            assert_eq!(a.summands().seek(k).as_ref(), fwd.get(k as usize));
        }
        assert_eq!(a.self_check(), Ok(()));
        assert_eq!(bm.self_check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalidated")]
    fn stale_iterator_panics() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let c = Arc::new(b.finish(x));
        let mut machine = EnumMachine::new(c, vec![gens(&[1])]);
        let mut it = machine.summands();
        let _ = it.next();
        // simulate: version bump via update requires &mut — force a
        // second machine reference through unsafe-free means: drop the
        // iterator's borrow by transmuting lifetimes is impossible, so
        // test the version check directly.
        let it_version_probe = {
            let v = machine.version;
            drop(it);
            machine.set_input(0, vec![]);
            v
        };
        let it2 = SummandIter {
            machine: &machine,
            version: it_version_probe,
            state: IterState::Before,
        };
        let _ = it2.current();
    }
}
