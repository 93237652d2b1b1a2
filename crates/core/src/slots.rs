//! Input-slot bookkeeping: which external value feeds which circuit input.

use agq_structure::fx::FxHashMap;
use agq_structure::{Elem, RelId, Tuple, WeightId};

/// Identity of one circuit input slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SlotKey {
    /// The weight `w(t̄)` of a declared weight symbol.
    Weight(WeightId, Tuple),
    /// The indicator weight `v_i(a)` of the `i`-th free variable
    /// (the querying trick in the proof of Theorem 8).
    FreeVar(u8, Elem),
    /// The indicator `[R(t̄)]` of a relation atom (dynamic-atom mode,
    /// Lemma 40's `v⁺_R`).
    AtomPos(RelId, Tuple),
    /// The indicator `[¬R(t̄)]` (Lemma 40's `v⁻_R`; general semirings
    /// have no subtraction, so the negation needs its own input).
    AtomNeg(RelId, Tuple),
}

/// The positive / negative indicator slots compiled for one relational
/// tuple (either may be absent): what an update to that tuple writes.
pub type AtomSlots = (Option<u32>, Option<u32>);

/// Dense slot numbering with key ↔ index maps.
#[derive(Default, Debug, Clone)]
pub struct SlotRegistry {
    map: FxHashMap<SlotKey, u32>,
    keys: Vec<SlotKey>,
}

impl SlotRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot for `key`, allocating one if new.
    pub fn intern(&mut self, key: SlotKey) -> u32 {
        if let Some(&s) = self.map.get(&key) {
            return s;
        }
        let s = self.keys.len() as u32;
        self.map.insert(key, s);
        self.keys.push(key);
        s
    }

    /// The slot for `key`, if any gate reads it.
    pub fn lookup(&self, key: &SlotKey) -> Option<u32> {
        self.map.get(key).copied()
    }

    /// The indicator slots of `(r, t)` in dynamic-atom mode — both
    /// lookups an update needs, resolved once for every valuation of the
    /// circuit. `None` when the compiler materialized neither (the tuple
    /// is not a Gaifman clique, or cannot influence the query).
    pub fn atom_slots(&self, r: RelId, t: &[Elem]) -> Option<AtomSlots> {
        let t = Tuple::new(t);
        let pos = self.lookup(&SlotKey::AtomPos(r, t));
        let neg = self.lookup(&SlotKey::AtomNeg(r, t));
        (pos.is_some() || neg.is_some()).then_some((pos, neg))
    }

    /// Whether `other` numbers the same keys the same way, so a slot id
    /// resolved in one registry is valid in the other.
    pub fn same_numbering(&self, other: &SlotRegistry) -> bool {
        self.keys == other.keys
    }

    /// The key of a slot.
    pub fn key(&self, slot: u32) -> SlotKey {
        self.keys[slot as usize]
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no slots were allocated.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate over `(slot, key)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, SlotKey)> + '_ {
        self.keys.iter().enumerate().map(|(i, k)| (i as u32, *k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut r = SlotRegistry::new();
        let k1 = SlotKey::Weight(WeightId(0), Tuple::unary(3));
        let k2 = SlotKey::FreeVar(1, 3);
        let s1 = r.intern(k1);
        let s2 = r.intern(k2);
        assert_ne!(s1, s2);
        assert_eq!(r.intern(k1), s1);
        assert_eq!(r.lookup(&k1), Some(s1));
        assert_eq!(r.key(s2), k2);
        assert_eq!(r.len(), 2);
    }
}
