//! Distinctness expansion: from [`SumTerm`]s to terms whose variables
//! denote pairwise *distinct* elements.
//!
//! Lemma 32 multiplies each term by the partitions of unity
//! `[x = y] + [x ≠ y]` and expands; equivalently, a term is split over all
//! set partitions of its variables, merging each block into one variable.
//! After this step shapes can place every variable at its own node.

use agq_logic::{Lit, SumTerm, Var};
use agq_perm::partitions::set_partitions;
use agq_semiring::Semiring;
use agq_structure::{RelId, WeightId};

/// A sum term whose variables (numbered `0..k`) denote pairwise distinct
/// elements. Produced by `expand_distinct`.
#[derive(Clone, Debug)]
pub struct DistinctTerm<S> {
    /// Constant multiplier.
    pub coeff: S,
    /// Number of variables.
    pub k: usize,
    /// Relational literals; `args` index variables and may repeat after
    /// merging.
    pub rel_lits: Vec<RelLit>,
    /// Declared weight factors.
    pub weights: Vec<(WeightId, Vec<u8>)>,
    /// Free-variable indicator factors: `(query position, variable)` —
    /// the `v_i` weights of Theorem 8's querying trick. Several positions
    /// may share one variable (merged free variables).
    pub free_reads: Vec<(u8, u8)>,
    /// Variable pairs that must be ancestor-comparable in any shape
    /// (linked by a positive atom or a weight factor).
    pub comparability: Vec<(u8, u8)>,
}

/// A relational literal over distinct-term variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelLit {
    /// Relation symbol.
    pub rel: RelId,
    /// Argument variables (indices into `0..k`).
    pub args: Vec<u8>,
    /// Polarity.
    pub positive: bool,
}

/// Expand one normalized sum term over all variable partitions consistent
/// with its (in)equality literals. `free_order` fixes the query-tuple
/// positions of the free variables; a query variable the term does not
/// mention joins it as an unconstrained variable, so every expanded term
/// reads every `v_i` (the closed form `Σ_x̄ f · Π_i v_i(x_i)` of Theorem
/// 8 — under point-query indicators the extra `Σ_x v_i(x)` is `1`).
pub fn expand_distinct<S: Semiring>(term: &SumTerm<S>, free_order: &[Var]) -> Vec<DistinctTerm<S>> {
    // All variables of the term: summed ∪ free ∪ query, in a fixed order.
    let mut vars: Vec<Var> = term.sum_vars.clone();
    for v in term
        .free_vars()
        .into_iter()
        .chain(free_order.iter().copied())
    {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.sort_unstable();
    let m = vars.len();
    assert!(m <= 8, "more than 8 variables in one term");
    let index_of = |v: Var| vars.iter().position(|&w| w == v).unwrap() as u8;

    let mut out = Vec::new();
    'partition: for p in set_partitions(m) {
        // block id per variable
        let mut block_of = vec![0u8; m];
        for (bi, &mask) in p.blocks.iter().enumerate() {
            for (v, b) in block_of.iter_mut().enumerate() {
                if mask >> v & 1 == 1 {
                    *b = bi as u8;
                }
            }
        }
        // consistency with the term's equality literals
        for l in &term.lits {
            if let Lit::Eq { a, b, positive } = l {
                let same = block_of[index_of(*a) as usize] == block_of[index_of(*b) as usize];
                if same != *positive {
                    continue 'partition;
                }
            }
        }
        let mut dt = DistinctTerm {
            coeff: term.coeff.clone(),
            k: p.blocks.len(),
            rel_lits: Vec::new(),
            weights: Vec::new(),
            free_reads: Vec::new(),
            comparability: Vec::new(),
        };
        for l in &term.lits {
            if let Lit::Rel {
                rel,
                args,
                positive,
            } = l
            {
                let args: Vec<u8> = args
                    .iter()
                    .map(|v| block_of[index_of(*v) as usize])
                    .collect();
                if *positive {
                    link_all(&mut dt.comparability, &args);
                }
                dt.rel_lits.push(RelLit {
                    rel: *rel,
                    args,
                    positive: *positive,
                });
            }
        }
        for (w, args) in &term.weights {
            let args: Vec<u8> = args
                .iter()
                .map(|v| block_of[index_of(*v) as usize])
                .collect();
            link_all(&mut dt.comparability, &args);
            dt.weights.push((*w, args));
        }
        for (pos, fv) in free_order.iter().enumerate() {
            dt.free_reads
                .push((pos as u8, block_of[index_of(*fv) as usize]));
        }
        // Deduplicate comparability pairs.
        dt.comparability.sort_unstable();
        dt.comparability.dedup();
        out.push(dt);
    }
    out
}

fn link_all(pairs: &mut Vec<(u8, u8)>, args: &[u8]) {
    for i in 0..args.len() {
        for j in i + 1..args.len() {
            let (a, b) = (args[i].min(args[j]), args[i].max(args[j]));
            if a != b {
                pairs.push((a, b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agq_semiring::Nat;

    fn term_two_vars() -> SumTerm<Nat> {
        SumTerm {
            coeff: Nat(1),
            sum_vars: vec![Var(0), Var(1)],
            lits: vec![Lit::Rel {
                rel: RelId(0),
                args: vec![Var(0), Var(1)],
                positive: true,
            }],
            weights: vec![(WeightId(0), vec![Var(0)])],
        }
    }

    #[test]
    fn two_vars_give_two_partitions() {
        let dts = expand_distinct(&term_two_vars(), &[]);
        assert_eq!(dts.len(), 2);
        let merged = dts.iter().find(|d| d.k == 1).unwrap();
        assert_eq!(merged.rel_lits[0].args, vec![0, 0]);
        let split = dts.iter().find(|d| d.k == 2).unwrap();
        assert_eq!(split.comparability, vec![(0, 1)]);
    }

    #[test]
    fn neq_literal_blocks_merge() {
        let mut t = term_two_vars();
        t.lits.push(Lit::Eq {
            a: Var(0),
            b: Var(1),
            positive: false,
        });
        let dts = expand_distinct(&t, &[]);
        assert_eq!(dts.len(), 1);
        assert_eq!(dts[0].k, 2);
        // the ≠ literal itself is consumed by the expansion
        assert_eq!(dts[0].rel_lits.len(), 1);
    }

    #[test]
    fn free_vars_get_indicator_reads() {
        // Σ_x [E(x,z)] with z free
        let t = SumTerm::<Nat> {
            coeff: Nat(1),
            sum_vars: vec![Var(0)],
            lits: vec![Lit::Rel {
                rel: RelId(0),
                args: vec![Var(0), Var(2)],
                positive: true,
            }],
            weights: vec![],
        };
        let dts = expand_distinct(&t, &[Var(2)]);
        assert_eq!(dts.len(), 2);
        for dt in &dts {
            assert_eq!(dt.free_reads.len(), 1);
            assert_eq!(dt.free_reads[0].0, 0, "query position 0");
        }
    }
}
