//! Guarded quantifier elimination — the documented substitute for the
//! paper's imported Theorem 3 (Dvořák–Král–Thomas).
//!
//! Quantified subformulas with **at most one free variable** are
//! materialized as fresh unary predicates: the Boolean-semiring query
//! `P(x) ≡ Σ_y [ψ(x, y)]` is compiled with Theorem 6 and evaluated at
//! every element with the constant-time finite-semiring engine — `O(|A|)`
//! total. Unary predicates never change the Gaifman graph, so the
//! extended structure stays in the same sparsity class. Subformulas with
//! two or more free variables are rejected (`UnsupportedQuantifier`);
//! that fragment needs the full DKT machinery, which the paper cites
//! rather than proves.

use crate::compile::{compile, CompileOptions};
use crate::engine::FiniteEngine;
use crate::CompileError;
use agq_logic::{normalize, Expr, Formula};
use agq_semiring::{Bool, Semiring};
use agq_structure::{Structure, WeightedStructure};
use std::sync::Arc;

/// Rewrite every quantified bracket of `expr` into quantifier-free form,
/// materializing helper predicates on an extended copy of `a`.
///
/// Returns the rewritten expression and the (possibly extended)
/// structure; weight symbols keep their ids, so existing
/// [`WeightedStructure`]s remain valid for the original symbols.
pub fn eliminate_quantifiers<S: Semiring>(
    expr: &Expr<S>,
    a: &Structure,
    opts: &CompileOptions,
) -> Result<(Expr<S>, Arc<Structure>), CompileError> {
    let mut work = Working {
        a: a.clone(),
        extended: false,
        opts,
        fresh: 0,
    };
    let expr = rewrite_expr(expr, &mut work)?;
    Ok((expr, Arc::new(work.a)))
}

struct Working<'o> {
    a: Structure,
    extended: bool,
    opts: &'o CompileOptions,
    fresh: u32,
}

impl Working<'_> {
    /// Add a fresh unary relation and fill it with `members`.
    fn materialize(&mut self, members: &[u32]) -> agq_structure::RelId {
        // Extend the signature (clone-on-write: signatures are shared).
        let mut sig = (**self.a.signature()).clone();
        let name = format!("__qe{}", self.fresh);
        self.fresh += 1;
        let rel = sig.add_relation(&name, 1);
        let mut b = Structure::new(Arc::new(sig), self.a.domain_size());
        // copy existing relations
        for r in self.a.signature().relation_ids() {
            for t in self.a.relation(r).iter() {
                b.insert(r, t.as_slice());
            }
        }
        for &m in members {
            b.insert(rel, &[m]);
        }
        self.a = b;
        self.extended = true;
        rel
    }
}

fn rewrite_expr<S: Semiring>(e: &Expr<S>, w: &mut Working<'_>) -> Result<Expr<S>, CompileError> {
    Ok(match e {
        Expr::Const(_) | Expr::Weight(..) => e.clone(),
        Expr::Bracket(f) => Expr::Bracket(rewrite_formula(f, w)?),
        Expr::Add(es) => Expr::Add(
            es.iter()
                .map(|x| rewrite_expr(x, w))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Mul(es) => Expr::Mul(
            es.iter()
                .map(|x| rewrite_expr(x, w))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Sum(vs, inner) => Expr::Sum(vs.clone(), Box::new(rewrite_expr(inner, w)?)),
    })
}

fn rewrite_formula(f: &Formula, w: &mut Working<'_>) -> Result<Formula, CompileError> {
    if f.is_quantifier_free() {
        return Ok(f.clone());
    }
    Ok(match f {
        Formula::True | Formula::False | Formula::Rel(..) | Formula::Eq(..) => f.clone(),
        Formula::Not(g) => Formula::Not(Box::new(rewrite_formula(g, w)?)),
        Formula::And(fs) => Formula::And(
            fs.iter()
                .map(|g| rewrite_formula(g, w))
                .collect::<Result<_, _>>()?,
        ),
        Formula::Or(fs) => Formula::Or(
            fs.iter()
                .map(|g| rewrite_formula(g, w))
                .collect::<Result<_, _>>()?,
        ),
        Formula::Forall(v, g) => {
            // ∀y ψ ≡ ¬∃y ¬ψ
            let inner = Formula::Exists(*v, Box::new(g.clone().not()));
            rewrite_formula(&Formula::Not(Box::new(inner)), w)?
        }
        Formula::Exists(v, g) => {
            // innermost first
            let g = rewrite_formula(g, w)?;
            let mut free = g.free_vars();
            free.retain(|x| x != v);
            match free.len() {
                0 => {
                    // a sentence: evaluate Σ_v [g] in B
                    let q: Expr<Bool> = Expr::Bracket(g.clone()).sum_over([*v]);
                    let truth = eval_bool_closed(&q, w)?;
                    if truth {
                        Formula::True
                    } else {
                        Formula::False
                    }
                }
                1 => {
                    let x = free[0];
                    // P := { a : ∃v g(a, v) }
                    let q: Expr<Bool> = Expr::Bracket(g.clone()).sum_over([*v]);
                    let members = eval_bool_unary(&q, x, w)?;
                    let rel = w.materialize(&members);
                    Formula::Rel(rel, vec![x])
                }
                _ => {
                    return Err(CompileError::UnsupportedQuantifier {
                        formula: format!("{f:?}"),
                    })
                }
            }
        }
    })
}

fn eval_bool_closed<'o>(q: &Expr<Bool>, w: &mut Working<'o>) -> Result<bool, CompileError> {
    let nf = normalize(q)?;
    let compiled = compile(&w.a, &nf, w.opts)?;
    let weights: WeightedStructure<Bool> = WeightedStructure::new(Arc::new(w.a.clone()));
    let engine: FiniteEngine<Bool> = FiniteEngine::new(compiled, &weights);
    Ok(engine.value().0)
}

fn eval_bool_unary<'o>(
    q: &Expr<Bool>,
    x: agq_logic::Var,
    w: &mut Working<'o>,
) -> Result<Vec<u32>, CompileError> {
    let nf = normalize(q)?;
    debug_assert_eq!(nf.free_vars(), vec![x]);
    let compiled = compile(&w.a, &nf, w.opts)?;
    let weights: WeightedStructure<Bool> = WeightedStructure::new(Arc::new(w.a.clone()));
    let mut engine: FiniteEngine<Bool> = FiniteEngine::new(compiled, &weights);
    let mut members = Vec::new();
    for a in 0..w.a.domain_size() as u32 {
        if engine.query(&[a]).0 {
            members.push(a);
        }
    }
    Ok(members)
}
