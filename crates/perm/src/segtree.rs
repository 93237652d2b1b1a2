//! Logarithmic-update permanent maintenance for arbitrary semirings
//! (Lemma 10 / Lemma 11 / Corollary 13).

use crate::ColMatrix;
use agq_semiring::Semiring;

/// Dynamic permanent of a `k × n` matrix over an arbitrary commutative
/// semiring: `O(n · 3^k)` build, `O(3^k · log n)` per single-entry update.
///
/// This realizes the divide-and-conquer of Lemma 10 as a balanced segment
/// tree over the columns. Each node stores, for every row subset `R'`, the
/// permanent of `R'` × (the node's column range); merging two children is
/// the subset convolution `P[R'] = Σ_{R'' ⊆ R'} L[R''] · R[R' \ R'']`,
/// which specializes to the paper's `perm′` recursion once row orders are
/// fixed (see [`crate::perm_prime`] for the literal Lemma 10 identity).
/// The logarithmic update bound is optimal for general semirings by
/// Proposition 14 (sorting lower bound via `(ℕ ∪ {∞}, min, +)`).
///
/// All node tables live in **one contiguous buffer** (`2 · size · 2^k`
/// entries, heap order): updates repair the root path in place with no
/// allocation, and the read-only [`SegTreePerm::peek`] walks it with two
/// small ping-pong buffers.
pub struct SegTreePerm<S> {
    k: usize,
    n: usize,
    /// Number of leaves, `n` rounded up to a power of two (min 1).
    size: usize,
    /// Node tables, `2^k` entries each, nodes in heap order (root at 1):
    /// table of `node` is `tables[node << k .. (node + 1) << k]`.
    tables: Vec<S>,
    cols: ColMatrix<S>,
}

impl<S: Semiring> SegTreePerm<S> {
    /// Build the tree over the columns of `cols`.
    pub fn build(cols: ColMatrix<S>) -> Self {
        let k = cols.rows();
        let n = cols.cols();
        let size = n.next_power_of_two().max(1);
        // empty-range tables everywhere: perm(∅ rows) = 1, else 0
        let mut tables = Vec::with_capacity((2 * size) << k);
        for _ in 0..2 * size {
            for mask in 0..1usize << k {
                tables.push(if mask == 0 { S::one() } else { S::zero() });
            }
        }
        let mut tree = SegTreePerm {
            k,
            n,
            size,
            tables,
            cols,
        };
        for c in 0..n {
            tree.write_leaf(c);
        }
        for node in (1..tree.size).rev() {
            tree.merge_into_node(node);
        }
        tree
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The current entry at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> &S {
        self.cols.get(row, col)
    }

    /// The table of `node` as a slice of `2^k` entries.
    fn table(&self, node: usize) -> &[S] {
        &self.tables[node << self.k..(node + 1) << self.k]
    }

    /// The permanent of the full matrix.
    pub fn total(&self) -> &S {
        &self.tables[(1 << self.k) + ((1 << self.k) - 1)]
    }

    /// Overwrite entry `(row, col)` and repair the root path:
    /// `O(3^k log n)` semiring operations, no allocation.
    pub fn update(&mut self, row: usize, col: usize, value: S) {
        assert!(col < self.n, "column {col} out of range");
        self.cols.set(row, col, value);
        self.refresh_col(col);
    }

    /// Overwrite a whole column and repair the root path.
    pub fn update_col(&mut self, col: usize, values: &[S]) {
        assert!(col < self.n, "column {col} out of range");
        for (r, v) in values.iter().enumerate() {
            self.cols.set(r, col, v.clone());
        }
        self.refresh_col(col);
    }

    /// Overwrite several entries and repair the **union** of their root
    /// paths once: all touched leaves are rewritten first, then ancestors
    /// are merged level by level with shared ancestors recomputed a
    /// single time. `p` patches touching `c` distinct columns cost
    /// `O(3^k · min(c · log n, n))` instead of the
    /// `O(3^k · p · log n)` of one [`SegTreePerm::update`] per patch —
    /// the batched-ingestion path of the dynamic evaluator. Later patches
    /// to the same entry win.
    pub fn update_batch(&mut self, patches: &[(usize, usize, S)]) {
        for (row, col, v) in patches {
            assert!(*col < self.n, "column {col} out of range");
            self.cols.set(*row, *col, v.clone());
        }
        let mut frontier: Vec<usize> = patches.iter().map(|(_, c, _)| self.size + c).collect();
        frontier.sort_unstable();
        frontier.dedup();
        if let [leaf] = frontier[..] {
            self.refresh_col(leaf - self.size);
            return;
        }
        for &leaf in &frontier {
            self.write_leaf(leaf - self.size);
        }
        // All leaves sit on one level (the tree is perfect), so mapping
        // the sorted frontier to parents keeps it sorted — deduping
        // adjacent ids merges the paths as they join.
        while frontier.first().is_some_and(|&node| node > 1) {
            let mut w = 0;
            for i in 0..frontier.len() {
                let parent = frontier[i] / 2;
                if w == 0 || frontier[w - 1] != parent {
                    frontier[w] = parent;
                    w += 1;
                }
            }
            frontier.truncate(w);
            for &node in &frontier {
                self.merge_into_node(node);
            }
        }
    }

    /// Evaluate the permanent with some entries replaced, **without
    /// mutating** the structure: only the root paths of the patched
    /// columns are recomputed, into a transient overlay
    /// (`O(3^k · p · log n)` for `p` patched columns). Later patches to
    /// the same entry win.
    pub fn peek(&self, patches: &[(usize, usize, S)]) -> S {
        self.peek_rows(patches, (1 << self.k) - 1)
    }

    /// [`SegTreePerm::peek`] restricted to a **row subset**: the permanent
    /// of the rows in `row_mask` over all columns, with some entries
    /// replaced. The node tables already hold every row-subset permanent,
    /// so this is the same overlay walk reading a different root entry —
    /// the rest-count query of rank descent (count the completions of
    /// rows `r+1..k` once the columns chosen by rows `≤ r` are zeroed).
    /// `row_mask = 0` returns `one` (the empty permanent).
    pub fn peek_rows(&self, patches: &[(usize, usize, S)], row_mask: usize) -> S {
        debug_assert!(row_mask < 1 << self.k, "row mask out of range");
        match self.peek_walk(patches) {
            Some(root) => root[row_mask].clone(),
            None => self.table(1)[row_mask].clone(),
        }
    }

    /// The **whole patched root table** — every row-subset permanent of
    /// the matrix with `patches` applied, in one overlay walk. Rank
    /// descent reads many row subsets against one excluded-column
    /// prefix (the inclusion–exclusion rest counts of Lemma 23), so one
    /// table query replaces a [`SegTreePerm::peek_rows`] call per
    /// subset.
    pub fn peek_table(&self, patches: &[(usize, usize, S)]) -> Vec<S> {
        match self.peek_walk(patches) {
            Some(root) => root,
            None => self.table(1).to_vec(),
        }
    }

    /// The shared overlay walk of [`SegTreePerm::peek_rows`] /
    /// [`SegTreePerm::peek_table`]: the root table with `patches`
    /// applied, or `None` when the overlay provably equals the stored
    /// root table.
    fn peek_walk(&self, patches: &[(usize, usize, S)]) -> Option<Vec<S>> {
        if patches.is_empty() {
            return None;
        }
        // Fast path — all patches hit one column (the common case for
        // point queries): walk the single root path with two ping-pong
        // buffers instead of a per-level frontier.
        let col0 = patches[0].1;
        if patches.iter().all(|(_, c, _)| *c == col0) {
            assert!(col0 < self.n, "column {col0} out of range");
            let mut cur = self.patched_leaf(col0, patches);
            let mut buf: Vec<S> = Vec::with_capacity(1 << self.k);
            let mut node = self.size + col0;
            // Early exit: once the overlay table equals the stored table
            // at some node, every ancestor is unchanged too (frequent in
            // idempotent semirings like (min, +)).
            while node > 1 {
                if cur == self.table(node) {
                    return None;
                }
                let sibling = self.table(node ^ 1);
                if node.is_multiple_of(2) {
                    merge_tables_into(self.k, &cur, sibling, &mut buf);
                } else {
                    merge_tables_into(self.k, sibling, &cur, &mut buf);
                }
                std::mem::swap(&mut cur, &mut buf);
                node /= 2;
            }
            return Some(cur);
        }
        // General path: patched leaf tables, one per affected column
        // (patch order is preserved within a column, so the last write to
        // an entry wins).
        let mut frontier: Vec<(usize, Vec<S>)> = Vec::with_capacity(patches.len());
        for (row, col, v) in patches {
            assert!(*col < self.n, "column {col} out of range");
            let node = self.size + *col;
            let idx = match frontier.iter().position(|(nd, _)| *nd == node) {
                Some(i) => i,
                None => {
                    frontier.push((node, self.table(node).to_vec()));
                    frontier.len() - 1
                }
            };
            frontier[idx].1[1 << *row] = v.clone();
        }
        frontier.sort_by_key(|(node, _)| *node);
        // Walk the affected paths up level by level, merging against the
        // stored sibling tables (or a sibling overlay, when both children
        // of a node are patched). Overlay tables that match the stored
        // table are dropped — their ancestors cannot change.
        while !frontier.is_empty() && (frontier.len() > 1 || frontier[0].0 > 1) {
            let mut next: Vec<(usize, Vec<S>)> = Vec::with_capacity(frontier.len());
            let mut i = 0;
            while i < frontier.len() {
                let node = frontier[i].0;
                if frontier[i].1 == self.table(node) {
                    i += 1;
                    continue;
                }
                if node.is_multiple_of(2)
                    && i + 1 < frontier.len()
                    && frontier[i + 1].0 == node + 1
                    && frontier[i + 1].1 != self.table(node + 1)
                {
                    let merged = merge_tables(self.k, &frontier[i].1, &frontier[i + 1].1);
                    next.push((node / 2, merged));
                    i += 2;
                } else {
                    let sibling = self.table(node ^ 1);
                    let merged = if node.is_multiple_of(2) {
                        merge_tables(self.k, &frontier[i].1, sibling)
                    } else {
                        merge_tables(self.k, sibling, &frontier[i].1)
                    };
                    next.push((node / 2, merged));
                    i += 1;
                }
            }
            frontier = next;
        }
        frontier.pop().map(|(_, root)| root)
    }

    /// The leaf table of `col` with same-column patches applied.
    fn patched_leaf(&self, col: usize, patches: &[(usize, usize, S)]) -> Vec<S> {
        let mut t = self.table(self.size + col).to_vec();
        for (row, _, v) in patches {
            t[1 << *row] = v.clone();
        }
        t
    }

    fn refresh_col(&mut self, col: usize) {
        self.write_leaf(col);
        let mut node = (self.size + col) / 2;
        while node >= 1 {
            self.merge_into_node(node);
            node /= 2;
        }
    }

    /// (Re)write the leaf table of column `c` from the matrix: only ∅ and
    /// singleton row sets have nonzero permanents.
    fn write_leaf(&mut self, c: usize) {
        let base = (self.size + c) << self.k;
        self.tables[base] = S::one();
        for mask in 1..1usize << self.k {
            self.tables[base + mask] = if mask.is_power_of_two() {
                self.cols.get(mask.trailing_zeros() as usize, c).clone()
            } else {
                S::zero()
            };
        }
    }

    /// Subset-convolve the two children of `node` into `node`, in place.
    fn merge_into_node(&mut self, node: usize) {
        let k = self.k;
        for mask in 0..1u32 << k {
            let mut acc = S::zero();
            let mut sub = mask;
            loop {
                let l = &self.tables[((2 * node) << k) + sub as usize];
                let r = &self.tables[((2 * node + 1) << k) + (mask & !sub) as usize];
                acc.add_assign(&l.mul(r));
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & mask;
            }
            self.tables[(node << k) + mask as usize] = acc;
        }
    }
}

/// Subset-convolve two per-row-subset permanent tables:
/// `out[R'] = Σ_{R'' ⊆ R'} left[R''] · right[R' \ R'']`.
fn merge_tables<S: Semiring>(k: usize, left: &[S], right: &[S]) -> Vec<S> {
    let mut out = Vec::with_capacity(1 << k);
    merge_tables_into(k, left, right, &mut out);
    out
}

/// [`merge_tables`] into a reusable buffer (cleared first).
fn merge_tables_into<S: Semiring>(k: usize, left: &[S], right: &[S], out: &mut Vec<S>) {
    out.clear();
    for mask in 0..(1u32 << k) {
        let mut acc = S::zero();
        let mut sub = mask;
        loop {
            acc.add_assign(&left[sub as usize].mul(&right[(mask & !sub) as usize]));
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & mask;
        }
        out.push(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{perm_naive, perm_streaming};
    use agq_semiring::{MinPlus, Nat};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(k: usize, n: usize, seed: u64) -> ColMatrix<Nat> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = ColMatrix::new(k);
        for _ in 0..n {
            let col: Vec<Nat> = (0..k).map(|_| Nat(rng.gen_range(0..4))).collect();
            m.push_col(&col);
        }
        m
    }

    #[test]
    fn build_matches_streaming_various_sizes() {
        for k in 1..=4 {
            for n in [1usize, 2, 3, 5, 8, 13] {
                let m = random_matrix(k, n, (k * 1000 + n) as u64);
                let tree = SegTreePerm::build(m.clone());
                assert_eq!(tree.total(), &perm_streaming(&m), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn batch_updates_match_sequential() {
        let mut rng = SmallRng::seed_from_u64(17);
        for n in [1usize, 2, 5, 9, 16] {
            let m = random_matrix(3, n, n as u64);
            let mut batched = SegTreePerm::build(m.clone());
            let mut sequential = SegTreePerm::build(m);
            for _ in 0..20 {
                let patches: Vec<(usize, usize, Nat)> = (0..rng.gen_range(0..8))
                    .map(|_| {
                        (
                            rng.gen_range(0..3),
                            rng.gen_range(0..n),
                            Nat(rng.gen_range(0..4)),
                        )
                    })
                    .collect();
                batched.update_batch(&patches);
                for (r, c, v) in &patches {
                    sequential.update(*r, *c, *v);
                }
                assert_eq!(batched.total(), sequential.total(), "n={n}");
            }
        }
    }

    #[test]
    fn updates_track_naive() {
        let mut rng = SmallRng::seed_from_u64(11);
        let m = random_matrix(3, 10, 2);
        let mut tree = SegTreePerm::build(m.clone());
        let mut shadow = m;
        for _ in 0..60 {
            let r = rng.gen_range(0..3);
            let c = rng.gen_range(0..10);
            let v = Nat(rng.gen_range(0..4));
            tree.update(r, c, v);
            shadow.set(r, c, v);
            assert_eq!(tree.total(), &perm_naive(&shadow));
        }
    }

    #[test]
    fn minplus_updates() {
        let mut m = ColMatrix::new(2);
        for w in [3u64, 1, 4, 1, 5] {
            m.push_col(&[MinPlus(w), MinPlus(w + 1)]);
        }
        let mut tree = SegTreePerm::build(m.clone());
        assert_eq!(tree.total(), &perm_naive(&m));
        tree.update(0, 2, MinPlus::INF);
        m.set(0, 2, MinPlus::INF);
        assert_eq!(tree.total(), &perm_naive(&m));
    }

    #[test]
    fn peek_matches_naive_and_leaves_state() {
        let mut rng = SmallRng::seed_from_u64(13);
        let m = random_matrix(3, 9, 4);
        let tree = SegTreePerm::build(m.clone());
        let before = *tree.total();
        for _ in 0..40 {
            let patches: Vec<(usize, usize, Nat)> = (0..rng.gen_range(1..5))
                .map(|_| {
                    (
                        rng.gen_range(0..3),
                        rng.gen_range(0..9),
                        Nat(rng.gen_range(0..4)),
                    )
                })
                .collect();
            let mut shadow = m.clone();
            for (r, c, v) in &patches {
                shadow.set(*r, *c, *v);
            }
            assert_eq!(tree.peek(&patches), perm_naive(&shadow));
            assert_eq!(*tree.total(), before, "peek must not mutate");
        }
    }

    #[test]
    fn peek_minplus_single_and_multi_column() {
        let mut rng = SmallRng::seed_from_u64(29);
        let mut m = ColMatrix::new(2);
        for _ in 0..11 {
            m.push_col(&[MinPlus(rng.gen_range(1..30)), MinPlus(rng.gen_range(1..30))]);
        }
        let tree = SegTreePerm::build(m.clone());
        for _ in 0..40 {
            let patches: Vec<(usize, usize, MinPlus)> = (0..rng.gen_range(1..4))
                .map(|_| {
                    (
                        rng.gen_range(0..2),
                        rng.gen_range(0..11),
                        if rng.gen_bool(0.3) {
                            MinPlus::INF
                        } else {
                            MinPlus(rng.gen_range(1..30))
                        },
                    )
                })
                .collect();
            let mut shadow = m.clone();
            for (r, c, v) in &patches {
                shadow.set(*r, *c, *v);
            }
            assert_eq!(tree.peek(&patches), perm_naive(&shadow));
        }
    }

    #[test]
    fn peek_rows_matches_naive_submatrix() {
        let mut rng = SmallRng::seed_from_u64(37);
        for n in [1usize, 4, 9] {
            let m = random_matrix(3, n, 6 + n as u64);
            let tree = SegTreePerm::build(m.clone());
            for _ in 0..20 {
                let patches: Vec<(usize, usize, Nat)> = (0..rng.gen_range(0..4))
                    .map(|_| {
                        (
                            rng.gen_range(0..3),
                            rng.gen_range(0..n),
                            Nat(rng.gen_range(0..4)),
                        )
                    })
                    .collect();
                let mut shadow = m.clone();
                for (r, c, v) in &patches {
                    shadow.set(*r, *c, *v);
                }
                let table = tree.peek_table(&patches);
                for (row_mask, expect) in table.iter().enumerate() {
                    let got = tree.peek_rows(&patches, row_mask);
                    assert_eq!(*expect, got, "peek_table ≡ peek_rows per mask");
                    if row_mask == 0 {
                        assert_eq!(got, Nat(1), "empty row set");
                        continue;
                    }
                    let rows: Vec<usize> = (0..3).filter(|r| row_mask >> r & 1 == 1).collect();
                    let mut sub = ColMatrix::new(rows.len());
                    for c in 0..n {
                        let col: Vec<Nat> = rows.iter().map(|&r| *shadow.get(r, c)).collect();
                        sub.push_col(&col);
                    }
                    assert_eq!(got, perm_naive(&sub), "n={n} mask={row_mask}");
                }
            }
        }
    }

    #[test]
    fn peek_last_patch_wins_per_entry() {
        let m = random_matrix(2, 4, 8);
        let tree = SegTreePerm::build(m.clone());
        let peeked = tree.peek(&[(0, 1, Nat(5)), (0, 1, Nat(2))]);
        let mut shadow = m;
        shadow.set(0, 1, Nat(2));
        assert_eq!(peeked, perm_naive(&shadow));
    }

    #[test]
    fn single_column_tree() {
        let m = random_matrix(1, 1, 5);
        let tree = SegTreePerm::build(m.clone());
        assert_eq!(tree.total(), &perm_naive(&m));
    }
}
