//! Compressed-sparse-row (CSR) buffers: the storage of every table an
//! [`crate::EvalPlan`] derives from the circuit topology — parent
//! references per gate, input gates per slot, memoized cones per slot,
//! dense runs per add gate.
//!
//! `Vec<Vec<_>>` would cost one allocation per gate and a pointer chase
//! per traversal; a CSR layout is two flat buffers (an offset table and a
//! payload), built in two counting passes, mirroring how the circuit
//! itself stores child lists in one shared arena. The types are private
//! to this crate: `EvalPlan` is the only builder of circuit adjacency,
//! and every other consumer (the free-semiring machine of
//! `agq-enumerate` included) reads rows through its accessors.
//!
//! [`CsrBuilder`] packages the two-pass construction: call
//! [`CsrBuilder::count`] once per item, [`CsrBuilder::finish_counts`] to
//! turn counts into offsets, [`CsrCursor::place`] once per item (any
//! order), and [`CsrCursor::finish`] for the immutable [`Csr`].

/// An immutable CSR adjacency: the items of key `k` are
/// `items[offsets[k] .. offsets[k+1]]`.
#[derive(Clone, Debug)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// The items filed under `key`.
    pub fn row(&self, key: usize) -> &[T] {
        &self.items[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

/// Counting pass of the two-pass CSR construction.
pub struct CsrBuilder {
    offsets: Vec<u32>,
}

impl CsrBuilder {
    /// Start counting for `num_keys` keys.
    pub fn new(num_keys: usize) -> Self {
        CsrBuilder {
            offsets: vec![0; num_keys + 1],
        }
    }

    /// Announce one item filed under `key`.
    pub fn count(&mut self, key: usize) {
        self.offsets[key + 1] += 1;
    }

    /// Prefix-sum the counts and move to the placement pass. `fill` is
    /// the placeholder payload (overwritten by [`CsrCursor::place`]).
    pub fn finish_counts<T: Clone>(mut self, fill: T) -> CsrCursor<T> {
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        let total = *self.offsets.last().expect("offsets nonempty") as usize;
        let cursor = self.offsets[..self.offsets.len() - 1].to_vec();
        CsrCursor {
            items: vec![fill; total],
            offsets: self.offsets,
            cursor,
        }
    }
}

/// Placement pass of the two-pass CSR construction.
pub struct CsrCursor<T> {
    offsets: Vec<u32>,
    cursor: Vec<u32>,
    items: Vec<T>,
}

impl<T> CsrCursor<T> {
    /// File `item` under `key`. Each key must receive exactly as many
    /// items as were counted for it.
    pub fn place(&mut self, key: usize, item: T) {
        let at = self.cursor[key];
        debug_assert!(at < self.offsets[key + 1], "overfilled CSR row {key}");
        self.items[at as usize] = item;
        self.cursor[key] = at + 1;
    }

    /// Finish the immutable CSR.
    pub fn finish(self) -> Csr<T> {
        debug_assert!(
            self.cursor
                .iter()
                .zip(self.offsets.iter().skip(1))
                .all(|(c, o)| c == o),
            "underfilled CSR row"
        );
        Csr {
            offsets: self.offsets,
            items: self.items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> Csr<T> {
        fn num_keys(&self) -> usize {
            self.offsets.len() - 1
        }

        fn num_items(&self) -> usize {
            self.items.len()
        }
    }

    #[test]
    fn two_pass_roundtrip() {
        let pairs = [(0usize, 'a'), (2, 'b'), (0, 'c'), (3, 'd'), (2, 'e')];
        let mut b = CsrBuilder::new(4);
        for (k, _) in pairs {
            b.count(k);
        }
        let mut c = b.finish_counts('?');
        for (k, v) in pairs {
            c.place(k, v);
        }
        let csr = c.finish();
        assert_eq!(csr.num_keys(), 4);
        assert_eq!(csr.num_items(), 5);
        assert_eq!(csr.row(0), &['a', 'c']);
        assert_eq!(csr.row(1), &[] as &[char]);
        assert_eq!(csr.row(2), &['b', 'e']);
        assert_eq!(csr.row(3), &['d']);
    }

    #[test]
    fn empty_keys() {
        let csr = CsrBuilder::new(3).finish_counts(0u32).finish();
        assert_eq!(csr.num_items(), 0);
        for k in 0..3 {
            assert!(csr.row(k).is_empty());
        }
    }
}
