//! The dirty-gate queue every topological sweep drains.
//!
//! Gate ids are topological (children precede parents in the arena), so
//! a sweep that settles dirty gates in **ascending id order, each at most
//! once**, sees every child final before its parent — no matter how many
//! cones seeded the queue. [`DirtyQueue`] is that schedule and nothing
//! else: the update sweeps of [`crate::DynEvaluator`] (plain and delta),
//! the cone walk behind its point queries and [`crate::EvalPlan`]'s cone
//! memo, and the support sweep of `agq-enumerate`'s machine all push
//! parents into one and pop until it is empty.
//!
//! The representation is a min-heap that admits duplicates and drops them
//! when they surface. It is private to this type on purpose: a
//! duplicate-free representation (one bit per gate, word-scan pop — see
//! ROADMAP item 4) is a change to this file alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A set of gate ids popped in ascending order, each at most once per
/// drain. Reusable: a drained or [cleared](DirtyQueue::clear) queue keeps
/// its capacity.
#[derive(Debug, Default)]
pub struct DirtyQueue {
    heap: BinaryHeap<Reverse<u32>>,
}

impl DirtyQueue {
    /// An empty queue; storage is sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `gate`. Queuing a gate that is already waiting is free of
    /// effect: it still pops once.
    #[inline]
    pub fn push(&mut self, gate: u32) {
        self.heap.push(Reverse(gate));
    }

    /// The smallest waiting gate id, removed together with its
    /// duplicates; `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<u32> {
        let Reverse(gate) = self.heap.pop()?;
        while self.heap.peek() == Some(&Reverse(gate)) {
            self.heap.pop();
        }
        Some(gate)
    }

    /// Forget every waiting gate.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut DirtyQueue) -> Vec<u32> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn duplicates_collapse_and_pops_ascend() {
        let mut q = DirtyQueue::new();
        for g in [7, 3, 9, 3, 7, 7, 0, 9] {
            q.push(g);
        }
        assert_eq!(drain(&mut q), [0, 3, 7, 9]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pushes_during_a_drain_keep_the_order() {
        // the sweep pattern: settling a gate queues larger ids
        let mut q = DirtyQueue::new();
        q.push(1);
        q.push(4);
        let mut seen = Vec::new();
        while let Some(g) = q.pop() {
            seen.push(g);
            if g < 8 {
                q.push(g * 2);
                q.push(8);
            }
        }
        assert_eq!(seen, [1, 2, 4, 8]);
    }

    #[test]
    fn reusable_after_drain_and_after_clear() {
        let mut q = DirtyQueue::new();
        q.push(5);
        q.push(5);
        assert_eq!(drain(&mut q), [5]);
        q.push(2);
        q.push(6);
        assert_eq!(drain(&mut q), [2, 6], "after a drain");
        q.push(4);
        q.push(1);
        q.clear();
        assert_eq!(q.pop(), None, "clear forgets waiting gates");
        q.push(4);
        q.push(3);
        q.push(4);
        assert_eq!(drain(&mut q), [3, 4], "after clear");
    }
}
