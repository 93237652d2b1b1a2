//! Gate relabeling for dense-run coverage, with dead-gate elimination:
//! [`Circuit::cluster_adds`].
//!
//! The vectorized evaluation tier (see `eval.rs`) turns an add gate's
//! child gather into a `&values[lo..hi]` slice sum whenever the children
//! occupy a contiguous ascending id range. Builder-assigned ids are
//! creation order, which interleaves the children of different gates —
//! after the compiler's parallel merge, an add gate's summands are
//! typically scattered across the id space and nothing is a run.
//!
//! `cluster_adds` keeps exactly the gates the output reads and renames
//! them (child-list orders, slot/literal numbering, and evaluation
//! results are all preserved) so that exclusive children of a gate
//! become consecutive ids in child-list order. Gates the output does not
//! reach — products the compiler emitted for a leaf no shape consumed,
//! orphans of the builder's zero/one folding — are dropped: left in, they
//! would sit in the parent rows of live gates and be recomputed by every
//! sweep. The traversal is a grouped reverse-Kahn sweep from the output:
//! walk the DAG parents-first, and whenever a gate releases its last
//! reference to a group of children, emit that group consecutively;
//! reversing the emission order then yields a children-first numbering in
//! which those groups are ascending contiguous runs. Shared (fan-out > 1)
//! children are emitted with their *last* releasing parent and split runs
//! locally — exactly the gates the dense tier's run analysis reports as
//! residual gather mass.
//!
//! The pass is deterministic (a pure function of the IR), so it preserves
//! the compiler's sequential ≡ parallel byte-identity guarantee, and it
//! maintains the topological invariant: a child's last parent is emitted
//! before it, hence the child's new id is smaller after reversal.

use crate::{ChildRange, Circuit, GateDef, GateId};

impl Circuit {
    /// Drop the gates the output does not reach and relabel the rest to
    /// maximize contiguous child runs under add (and perm) gates,
    /// preserving semantics: same live gates, same child-list orders,
    /// same slot and literal counts, same evaluation results. The output
    /// gets the largest id.
    ///
    /// Intended to run once at the end of compilation. Callers holding
    /// `GateId`s into the *old* numbering must not mix them with the
    /// returned circuit.
    pub fn cluster_adds(&self) -> Circuit {
        let n = self.gates.len();
        if n == 0 {
            return self.clone();
        }

        // Liveness and reference counts in one descending pass: ids are
        // topological, so every parent of `g` is decided before `g` is.
        // Only live parents count, so dead gates never hold a child back.
        let out = self.output.0 as usize;
        let mut live = vec![false; n];
        let mut refs = vec![0u32; n];
        let mut arena = 0;
        live[out] = true;
        for g in (0..=out).rev() {
            if !live[g] {
                continue;
            }
            let mut reference = |c: &GateId| {
                live[c.0 as usize] = true;
                refs[c.0 as usize] += 1;
            };
            match &self.gates[g] {
                GateDef::Add(r) | GateDef::Perm { cols: r, .. } => {
                    arena += r.len();
                    self.children(*r).iter().for_each(&mut reference)
                }
                GateDef::Mul(a, b) => {
                    reference(a);
                    reference(b);
                }
                GateDef::Input(_) | GateDef::Const(_) => {}
            }
        }

        // Grouped reverse-Kahn emission, parents first, from the output
        // alone. Each stack entry is a group of gates that became ready
        // together; a group's members are emitted consecutively and
        // therefore end up as one contiguous ascending run after the
        // final reversal.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut stack: Vec<Vec<u32>> = vec![vec![out as u32]];

        let mut ready: Vec<u32> = Vec::new();
        while let Some(group) = stack.pop() {
            order.extend_from_slice(&group);
            for &g in &group {
                ready.clear();
                // Children visited in REVERSE child-list order: the
                // ready group is emitted in that order, so after the
                // final reversal the run reads in child-list order.
                let mut release = |c: GateId| {
                    let r = &mut refs[c.0 as usize];
                    *r -= 1;
                    if *r == 0 {
                        ready.push(c.0);
                    }
                };
                match &self.gates[g as usize] {
                    GateDef::Add(r) | GateDef::Perm { cols: r, .. } => {
                        for c in self.children(*r).iter().rev() {
                            release(*c);
                        }
                    }
                    GateDef::Mul(a, b) => {
                        release(*b);
                        release(*a);
                    }
                    GateDef::Input(_) | GateDef::Const(_) => {}
                }
                if !ready.is_empty() {
                    stack.push(std::mem::take(&mut ready));
                }
            }
        }
        let m = order.len();
        debug_assert_eq!(
            m,
            live.iter().filter(|&&l| l).count(),
            "grouped Kahn sweep must emit every live gate"
        );

        // order[i] gets new id m-1-i (children-first after reversal);
        // dead gates keep no id.
        let mut new_id = vec![0u32; n];
        for (i, &g) in order.iter().enumerate() {
            new_id[g as usize] = (m - 1 - i) as u32;
        }

        let mut gates: Vec<GateDef> = Vec::with_capacity(m);
        let mut children: Vec<GateId> = Vec::with_capacity(arena);
        let remap = |r: &ChildRange, children: &mut Vec<GateId>| {
            let start = children.len() as u32;
            children.extend(
                self.children(*r)
                    .iter()
                    .map(|c| GateId(new_id[c.0 as usize])),
            );
            ChildRange { start, len: r.len }
        };
        for &g in order.iter().rev() {
            let def = match &self.gates[g as usize] {
                GateDef::Input(s) => GateDef::Input(*s),
                GateDef::Const(c) => GateDef::Const(*c),
                GateDef::Add(r) => GateDef::Add(remap(r, &mut children)),
                GateDef::Mul(a, b) => {
                    GateDef::Mul(GateId(new_id[a.0 as usize]), GateId(new_id[b.0 as usize]))
                }
                GateDef::Perm { rows, cols } => GateDef::Perm {
                    rows: *rows,
                    cols: remap(cols, &mut children),
                },
            };
            gates.push(def);
        }

        Circuit {
            gates,
            children,
            num_slots: self.num_slots,
            num_lits: self.num_lits,
            output: GateId((m - 1) as u32),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::is_full_run;
    use crate::{Circuit, CircuitBuilder, GateDef};
    use agq_semiring::{Nat, F64};

    /// Two wide adds sharing nothing, combined at the output — builder ids
    /// interleave their children; the pass must make both full runs.
    fn interleaved_adds() -> Circuit {
        let mut b = CircuitBuilder::new();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..6 {
            xs.push(b.input(i));
            ys.push(b.input(6 + i));
        }
        let a1 = b.add(&xs);
        let a2 = b.add(&ys);
        let m = b.mul(a1, a2);
        b.finish(m)
    }

    fn add_run_fraction(c: &Circuit) -> (usize, usize) {
        let mut full = 0;
        let mut total = 0;
        for g in c.gates() {
            if let GateDef::Add(r) = g {
                total += 1;
                if is_full_run(c.children(*r)) {
                    full += 1;
                }
            }
        }
        (full, total)
    }

    #[test]
    fn clustering_preserves_semantics_and_creates_runs() {
        let c = interleaved_adds();
        let r = c.cluster_adds();
        assert_eq!(r.len(), c.len());
        assert_eq!(r.num_slots(), c.num_slots());
        let slots: Vec<Nat> = (1..=12).map(Nat).collect();
        assert_eq!(c.eval(&slots, &[]), r.eval(&slots, &[]));
        let (full, total) = add_run_fraction(&r);
        assert_eq!((full, total), (2, 2), "both adds should become full runs");
    }

    #[test]
    fn clustering_keeps_topological_invariant() {
        let r = interleaved_adds().cluster_adds();
        for (i, g) in r.gates().iter().enumerate() {
            let check = |c: crate::GateId| {
                assert!((c.0 as usize) < i, "child {c:?} not below gate {i}");
            };
            match g {
                GateDef::Add(cr) | GateDef::Perm { cols: cr, .. } => {
                    r.children(*cr).iter().copied().for_each(check)
                }
                GateDef::Mul(a, b) => {
                    check(*a);
                    check(*b);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn clustering_is_deterministic_and_stable() {
        let a = interleaved_adds().cluster_adds();
        let b = interleaved_adds().cluster_adds();
        assert_eq!(a, b, "pure function of the IR");
        // A second application may renumber again but must stay semantically
        // identical and keep the runs it created.
        let c = a.cluster_adds();
        let slots: Vec<Nat> = (1..=12).map(Nat).collect();
        assert_eq!(a.eval(&slots, &[]), c.eval(&slots, &[]));
        assert_eq!(add_run_fraction(&a), add_run_fraction(&c));
    }

    #[test]
    fn shared_children_and_perms_survive() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let s = b.add(&[x, y]);
        let p = b.perm_flat(2, vec![x, y, s, x]);
        let out = b.add(&[s, p]);
        let c = b.finish(out);
        let r = c.cluster_adds();
        let slots = [Nat(3), Nat(5)];
        assert_eq!(c.eval(&slots, &[]), r.eval(&slots, &[]));
        // Perm column order must be preserved exactly (column-major layout).
        let perm_cols: Vec<usize> = r
            .gates()
            .iter()
            .filter_map(|g| match g {
                GateDef::Perm { cols, .. } => Some(r.children(*cols).len()),
                _ => None,
            })
            .collect();
        assert_eq!(perm_cols, vec![4]);
    }

    #[test]
    fn dead_gates_are_dropped() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        // An orphan chain over a slot and a literal nothing live reads.
        let z = b.input(2);
        let l = b.lit(0);
        let d1 = b.mul(z, l);
        let d2 = b.add(&[d1, x]);
        b.mul(d2, y);
        let s = b.add(&[x, y]);
        let out = b.mul(s, x);
        // A gate built after the output is dead too.
        b.mul(out, y);
        let c = b.finish(out);
        let r = c.cluster_adds();
        assert_eq!(r.len(), 4, "x, y, x+y, (x+y)·x");
        assert_eq!(r.num_slots(), 3, "slot numbering is kept");
        assert_eq!(r.num_lits(), 1, "literal numbering is kept");
        assert_eq!(
            r.output().0 as usize,
            r.len() - 1,
            "output has the largest id"
        );
        assert!(r.gates().iter().all(|g| !matches!(g, GateDef::Const(_))));
        let slots: Vec<F64> = [0.1, 0.7, 0.3].map(F64).to_vec();
        let lits = [F64(1.9)];
        assert_eq!(
            c.eval(&slots, &lits).0.to_bits(),
            r.eval(&slots, &lits).0.to_bits()
        );
        assert_eq!(r.cluster_adds().len(), r.len(), "nothing left to drop");
    }

    #[test]
    fn float_values_bit_identical_after_relabel() {
        let c = interleaved_adds();
        let r = c.cluster_adds();
        let slots: Vec<F64> = (1..=12).map(|i| F64(0.1 * i as f64)).collect();
        let a = c.eval(&slots, &[]);
        let b = r.eval(&slots, &[]);
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "fold order must not drift");
    }
}
