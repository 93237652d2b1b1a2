//! Differential tests: the full compile → circuit → dynamic-evaluate
//! pipeline (Theorems 6 + 8) against brute-force semantics, across
//! semirings, structures, and update sequences.

use agq_core::{compile, CompileOptions, FiniteEngine, GeneralEngine, RingEngine};
use agq_logic::{normalize, Expr, Formula, Var};
use agq_semiring::{Bool, Int, MinPlus, Nat};
use agq_structure::{Signature, Structure, WeightedStructure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random sparse directed graph structure with unary weight `w` and
/// binary weight `c` (cost on edges).
fn random_graph(n: usize, m: usize, seed: u64) -> Arc<Structure> {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    sig.add_weight("w", 1);
    sig.add_weight("u", 1);
    sig.add_weight("c", 2);
    let mut a = Structure::new(Arc::new(sig), n);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..m {
        let x = rng.gen_range(0..n as u32);
        let y = rng.gen_range(0..n as u32);
        if x != y {
            a.insert(e, &[x, y]);
        }
    }
    Arc::new(a)
}

fn nat_weights(a: &Arc<Structure>, seed: u64) -> WeightedStructure<Nat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sig = a.signature().clone();
    let mut w = WeightedStructure::new(a.clone());
    let wu = sig.weight("w").unwrap();
    let uu = sig.weight("u").unwrap();
    let c = sig.weight("c").unwrap();
    for i in 0..a.domain_size() as u32 {
        w.set(wu, &[i], Nat(rng.gen_range(0..4)));
        w.set(uu, &[i], Nat(rng.gen_range(0..4)));
    }
    let e = sig.relation("E").unwrap();
    let tuples: Vec<_> = a.relation(e).iter().cloned().collect();
    for t in tuples {
        w.set(c, t.as_slice(), Nat(rng.gen_range(0..4)));
    }
    w
}

fn check_closed_nat(expr: &Expr<Nat>, a: &Arc<Structure>, seed: u64) {
    let w = nat_weights(a, seed);
    let nf = normalize(expr).unwrap();
    let compiled = compile(a, &nf, &CompileOptions::default()).unwrap();
    let engine: GeneralEngine<Nat> = GeneralEngine::new(compiled, &w);
    let expect = agq_baseline::eval_closed(expr, &w);
    assert_eq!(*engine.value(), expect);
}

#[test]
fn edge_count() {
    let e_expr = |a: &Arc<Structure>| -> Expr<Nat> {
        let e = a.signature().relation("E").unwrap();
        Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)])).sum_over([Var(0), Var(1)])
    };
    for seed in 0..5 {
        let a = random_graph(20, 30, seed);
        check_closed_nat(&e_expr(&a), &a, seed + 100);
    }
}

#[test]
fn self_loops_count() {
    // Σ_x [E(x,x)] — exercises merged variables / diagonal tuples.
    let a = {
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        sig.add_weight("w", 1);
        sig.add_weight("u", 1);
        sig.add_weight("c", 2);
        let mut s = Structure::new(Arc::new(sig), 6);
        s.insert(e, &[0, 0]);
        s.insert(e, &[2, 2]);
        s.insert(e, &[1, 2]);
        Arc::new(s)
    };
    let e = a.signature().relation("E").unwrap();
    let expr: Expr<Nat> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(0)])).sum_over([Var(0)]);
    check_closed_nat(&expr, &a, 1);
}

#[test]
fn diagonal_via_equality() {
    // Σ_{x,y} [E(x,y) ∧ x=y] must equal the self-loop count.
    let a = random_graph(15, 40, 3);
    let e = a.signature().relation("E").unwrap();
    let f = Formula::Rel(e, vec![Var(0), Var(1)]).and(Formula::Eq(Var(0), Var(1)));
    let expr: Expr<Nat> = Expr::Bracket(f).sum_over([Var(0), Var(1)]);
    check_closed_nat(&expr, &a, 4);
}

#[test]
fn triangle_count() {
    for seed in 0..4 {
        let a = random_graph(14, 40, seed);
        let e = a.signature().relation("E").unwrap();
        let f = Formula::Rel(e, vec![Var(0), Var(1)])
            .and(Formula::Rel(e, vec![Var(1), Var(2)]))
            .and(Formula::Rel(e, vec![Var(2), Var(0)]));
        let expr: Expr<Nat> = Expr::Bracket(f).sum_over([Var(0), Var(1), Var(2)]);
        check_closed_nat(&expr, &a, seed + 7);
    }
}

#[test]
fn weighted_triangles_bag_semantics() {
    // The introduction's query: Σ [E∧E∧E] · c(x,y)·c(y,z)·c(z,x).
    for seed in 0..3 {
        let a = random_graph(12, 36, seed + 20);
        let sig = a.signature().clone();
        let e = sig.relation("E").unwrap();
        let c = sig.weight("c").unwrap();
        let f = Formula::Rel(e, vec![Var(0), Var(1)])
            .and(Formula::Rel(e, vec![Var(1), Var(2)]))
            .and(Formula::Rel(e, vec![Var(2), Var(0)]));
        let expr: Expr<Nat> = Expr::Mul(vec![
            Expr::Bracket(f),
            Expr::Weight(c, vec![Var(0), Var(1)]),
            Expr::Weight(c, vec![Var(1), Var(2)]),
            Expr::Weight(c, vec![Var(2), Var(0)]),
        ])
        .sum_over([Var(0), Var(1), Var(2)]);
        check_closed_nat(&expr, &a, seed + 60);
    }
}

#[test]
fn non_adjacent_pairs_negative_atoms() {
    // Σ_{x,y} [¬E(x,y) ∧ x≠y] · w(x)·u(y): exercises incomparable shapes
    // and vacuous negative atoms.
    for seed in 0..3 {
        let a = random_graph(12, 20, seed + 40);
        let sig = a.signature().clone();
        let e = sig.relation("E").unwrap();
        let w = sig.weight("w").unwrap();
        let u = sig.weight("u").unwrap();
        let f = Formula::Rel(e, vec![Var(0), Var(1)])
            .not()
            .and(Formula::neq(Var(0), Var(1)));
        let expr: Expr<Nat> = Expr::Mul(vec![
            Expr::Bracket(f),
            Expr::Weight(w, vec![Var(0)]),
            Expr::Weight(u, vec![Var(1)]),
        ])
        .sum_over([Var(0), Var(1)]);
        check_closed_nat(&expr, &a, seed + 80);
    }
}

#[test]
fn disjunction_and_coefficients() {
    // 3·Σ[E(x,y) ∨ E(y,x)] + 5
    let a = random_graph(13, 26, 9);
    let e = a.signature().relation("E").unwrap();
    let f = Formula::Rel(e, vec![Var(0), Var(1)]).or(Formula::Rel(e, vec![Var(1), Var(0)]));
    let expr: Expr<Nat> = Expr::Const(Nat(3))
        .times(Expr::Bracket(f).sum_over([Var(0), Var(1)]))
        .plus(Expr::Const(Nat(5)));
    check_closed_nat(&expr, &a, 10);
}

#[test]
fn product_of_aggregates() {
    // (Σ_x w(x)) · (Σ_y [E(y,y)]) — top-level multiplication of sums.
    let a = random_graph(10, 25, 31);
    let sig = a.signature().clone();
    let e = sig.relation("E").unwrap();
    let w = sig.weight("w").unwrap();
    let expr: Expr<Nat> = Expr::Weight(w, vec![Var(0)])
        .sum_over([Var(0)])
        .times(Expr::Bracket(Formula::Rel(e, vec![Var(1), Var(1)])).sum_over([Var(1)]));
    check_closed_nat(&expr, &a, 32);
}

#[test]
fn min_cost_triangle_tropical() {
    for seed in 0..3 {
        let a = random_graph(12, 40, seed + 55);
        let sig = a.signature().clone();
        let e = sig.relation("E").unwrap();
        let c = sig.weight("c").unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut w: WeightedStructure<MinPlus> = WeightedStructure::new(a.clone());
        let tuples: Vec<_> = a.relation(e).iter().cloned().collect();
        for t in &tuples {
            w.set(c, t.as_slice(), MinPlus(rng.gen_range(1..30)));
        }
        let f = Formula::Rel(e, vec![Var(0), Var(1)])
            .and(Formula::Rel(e, vec![Var(1), Var(2)]))
            .and(Formula::Rel(e, vec![Var(2), Var(0)]));
        let expr: Expr<MinPlus> = Expr::Mul(vec![
            Expr::Bracket(f),
            Expr::Weight(c, vec![Var(0), Var(1)]),
            Expr::Weight(c, vec![Var(1), Var(2)]),
            Expr::Weight(c, vec![Var(2), Var(0)]),
        ])
        .sum_over([Var(0), Var(1), Var(2)]);
        let nf = normalize(&expr).unwrap();
        let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
        let engine: GeneralEngine<MinPlus> = GeneralEngine::new(compiled, &w);
        assert_eq!(*engine.value(), agq_baseline::eval_closed(&expr, &w));
    }
}

#[test]
fn free_variable_queries() {
    // f(z) = Σ_x [E(x,z)] · w(x): query every element.
    for seed in 0..3 {
        let a = random_graph(16, 30, seed + 70);
        let sig = a.signature().clone();
        let e = sig.relation("E").unwrap();
        let wsym = sig.weight("w").unwrap();
        let expr: Expr<Nat> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
            .times(Expr::Weight(wsym, vec![Var(0)]))
            .sum_over([Var(0)]);
        let w = nat_weights(&a, seed + 71);
        let nf = normalize(&expr).unwrap();
        let free = nf.free_vars();
        assert_eq!(free, vec![Var(1)]);
        let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
        let mut engine: GeneralEngine<Nat> = GeneralEngine::new(compiled, &w);
        for z in 0..a.domain_size() as u32 {
            let got = engine.query(&[z]);
            let expect = agq_baseline::eval_at(&expr, &w, &free, &[z]);
            assert_eq!(got, expect, "z={z} seed={seed}");
        }
    }
}

#[test]
fn two_free_variables() {
    // f(x,y) = [E(x,y)]·w(x) + [E(y,x)]·u(y)
    let a = random_graph(12, 28, 91);
    let sig = a.signature().clone();
    let e = sig.relation("E").unwrap();
    let wsym = sig.weight("w").unwrap();
    let usym = sig.weight("u").unwrap();
    let expr: Expr<Nat> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
        .times(Expr::Weight(wsym, vec![Var(0)]))
        .plus(
            Expr::Bracket(Formula::Rel(e, vec![Var(1), Var(0)]))
                .times(Expr::Weight(usym, vec![Var(1)])),
        );
    let w = nat_weights(&a, 92);
    let nf = normalize(&expr).unwrap();
    let free = nf.free_vars();
    assert_eq!(free.len(), 2);
    let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
    let mut engine: GeneralEngine<Nat> = GeneralEngine::new(compiled, &w);
    for x in 0..12u32 {
        for y in 0..12u32 {
            let got = engine.query(&[x, y]);
            let expect = agq_baseline::eval_at(&expr, &w, &free, &[x, y]);
            assert_eq!(got, expect, "({x},{y})");
        }
    }
}

#[test]
fn dynamic_weight_updates_ring() {
    // Int semiring, constant-time engine; random update sequence.
    let a = random_graph(14, 30, 5);
    let sig = a.signature().clone();
    let e = sig.relation("E").unwrap();
    let wsym = sig.weight("w").unwrap();
    let expr: Expr<Int> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
        .times(Expr::Weight(wsym, vec![Var(0)]))
        .times(Expr::Weight(wsym, vec![Var(1)]))
        .sum_over([Var(0), Var(1)]);
    let mut rng = SmallRng::seed_from_u64(17);
    let mut w: WeightedStructure<Int> = WeightedStructure::new(a.clone());
    for i in 0..14u32 {
        w.set(wsym, &[i], Int(rng.gen_range(-3..4)));
    }
    let nf = normalize(&expr).unwrap();
    let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
    let mut engine: RingEngine<Int> = RingEngine::new(compiled, &w);
    for _ in 0..25 {
        let i = rng.gen_range(0..14u32);
        let v = Int(rng.gen_range(-3..4));
        w.set(wsym, &[i], v);
        engine.set_weight(wsym, &[i], v);
        assert_eq!(*engine.value(), agq_baseline::eval_closed(&expr, &w));
    }
}

#[test]
fn boolean_finite_engine_and_updates() {
    // ∃-free Boolean query via finite-semiring engine: Σ[E(x,y)]·w(x)
    // where w is a 0/1 unary weight — dynamic membership toggles.
    let a = random_graph(14, 30, 6);
    let sig = a.signature().clone();
    let e = sig.relation("E").unwrap();
    let wsym = sig.weight("w").unwrap();
    let expr: Expr<Bool> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
        .times(Expr::Weight(wsym, vec![Var(0)]))
        .sum_over([Var(0), Var(1)]);
    let mut rng = SmallRng::seed_from_u64(18);
    let mut w: WeightedStructure<Bool> = WeightedStructure::new(a.clone());
    let nf = normalize(&expr).unwrap();
    let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
    let mut engine: FiniteEngine<Bool> = FiniteEngine::new(compiled, &w);
    for _ in 0..30 {
        let i = rng.gen_range(0..14u32);
        let v = Bool(rng.gen_bool(0.5));
        w.set(wsym, &[i], v);
        engine.set_weight(wsym, &[i], v);
        assert_eq!(*engine.value(), agq_baseline::eval_closed(&expr, &w));
    }
}

#[test]
fn randomized_small_expressions() {
    // Catch-all: random two-variable expressions on random graphs.
    for seed in 0..10u64 {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let a = random_graph(10, 22, 2000 + seed);
        let sig = a.signature().clone();
        let e = sig.relation("E").unwrap();
        let wsym = sig.weight("w").unwrap();
        let usym = sig.weight("u").unwrap();
        let x = Var(0);
        let y = Var(1);
        // random quantifier-free formula over E, =, with 2 vars
        let atoms: Vec<Formula> = vec![
            Formula::Rel(e, vec![x, y]),
            Formula::Rel(e, vec![y, x]),
            Formula::Rel(e, vec![x, x]),
            Formula::Eq(x, y),
        ];
        let mut f = atoms[rng.gen_range(0..atoms.len())].clone();
        for _ in 0..rng.gen_range(0..3) {
            let g = atoms[rng.gen_range(0..atoms.len())].clone();
            f = match rng.gen_range(0..3) {
                0 => f.and(g),
                1 => f.or(g),
                _ => f.and(g.not()),
            };
        }
        let expr: Expr<Nat> = Expr::Mul(vec![
            Expr::Bracket(f),
            Expr::Weight(wsym, vec![x]),
            Expr::Weight(usym, vec![y]),
        ])
        .sum_over([x, y]);
        check_closed_nat(&expr, &a, 3000 + seed);
    }
}

#[test]
fn unconstrained_variable_counts_domain() {
    // Σ_{x,y} w(x): y unconstrained contributes a factor |A|.
    let a = random_graph(9, 15, 77);
    let wsym = a.signature().weight("w").unwrap();
    let expr: Expr<Nat> = Expr::Weight(wsym, vec![Var(0)]).sum_over([Var(0), Var(1)]);
    check_closed_nat(&expr, &a, 78);
}

#[test]
fn quantifier_elimination_pipeline() {
    use agq_core::eliminate_quantifiers;
    // f = Σ_x [∃y E(x,y)] · w(x)
    for seed in 0..3 {
        let a = random_graph(13, 20, 300 + seed);
        let sig = a.signature().clone();
        let e = sig.relation("E").unwrap();
        let wsym = sig.weight("w").unwrap();
        let inner = Formula::Exists(Var(1), Box::new(Formula::Rel(e, vec![Var(0), Var(1)])));
        let expr: Expr<Nat> = Expr::Bracket(inner)
            .times(Expr::Weight(wsym, vec![Var(0)]))
            .sum_over([Var(0)]);
        let opts = CompileOptions::default();
        let (rewritten, a2) = eliminate_quantifiers(&expr, &a, &opts).unwrap();
        let nf = normalize(&rewritten).unwrap();
        let compiled = compile(&a2, &nf, &opts).unwrap();
        // engine weights live on the *extended* structure (same domain,
        // same weight ids)
        let mut w2: WeightedStructure<Nat> = WeightedStructure::new(a2.clone());
        let w_orig = nat_weights(&a, seed + 400);
        for i in 0..a.domain_size() as u32 {
            w2.set(wsym, &[i], w_orig.get(wsym, &[i]));
        }
        let engine: GeneralEngine<Nat> = GeneralEngine::new(compiled, &w2);
        let expect = agq_baseline::eval_closed(&expr, &w_orig);
        assert_eq!(*engine.value(), expect, "seed {seed}");
    }
}

#[test]
fn forall_and_sentences() {
    use agq_core::eliminate_quantifiers;
    // f = Σ_x [∀y (E(x,y) → E(y,x))] in a mixed graph
    let a = random_graph(10, 18, 500);
    let e = a.signature().relation("E").unwrap();
    let body = Formula::Rel(e, vec![Var(0), Var(1)])
        .not()
        .or(Formula::Rel(e, vec![Var(1), Var(0)]));
    let inner = Formula::Forall(Var(1), Box::new(body));
    let expr: Expr<Nat> = Expr::Bracket(inner).sum_over([Var(0)]);
    let opts = CompileOptions::default();
    let (rewritten, a2) = eliminate_quantifiers(&expr, &a, &opts).unwrap();
    let nf = normalize(&rewritten).unwrap();
    let compiled = compile(&a2, &nf, &opts).unwrap();
    let w2: WeightedStructure<Nat> = WeightedStructure::new(a2.clone());
    let engine: GeneralEngine<Nat> = GeneralEngine::new(compiled, &w2);
    let w_orig: WeightedStructure<Nat> = WeightedStructure::new(a.clone());
    assert_eq!(*engine.value(), agq_baseline::eval_closed(&expr, &w_orig));
}

#[test]
fn circuit_stats_are_bounded() {
    // Theorem 6's structural promises on a concrete query.
    let a = random_graph(60, 100, 600);
    let e = a.signature().relation("E").unwrap();
    let f = Formula::Rel(e, vec![Var(0), Var(1)]).and(Formula::Rel(e, vec![Var(1), Var(2)]));
    let expr: Expr<Nat> = Expr::Bracket(f).sum_over([Var(0), Var(1), Var(2)]);
    let nf = normalize(&expr).unwrap();
    let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
    let st = compiled.report.stats;
    assert!(st.max_perm_rows <= 3, "perm rows {}", st.max_perm_rows);
    assert!(st.depth <= 64, "depth {}", st.depth);
    check_closed_nat(&expr, &a, 601);
}

#[test]
fn parallel_compile_is_byte_identical_to_sequential() {
    // The deterministic merge must reproduce the sequential gate stream,
    // child arena, slot order, and literal table exactly, across query
    // shapes (closed, free-variable, weighted, dynamic-atom).
    let seq_opts = CompileOptions {
        threads: 1,
        ..Default::default()
    };
    let par_opts = CompileOptions {
        threads: 8,
        ..Default::default()
    };

    let cases: Vec<(Arc<Structure>, Expr<Nat>)> = {
        let mut cases = Vec::new();
        for seed in 0..4 {
            let a = random_graph(24, 60, 700 + seed);
            let sig = a.signature().clone();
            let e = sig.relation("E").unwrap();
            let c = sig.weight("c").unwrap();
            let wsym = sig.weight("w").unwrap();
            let f = Formula::Rel(e, vec![Var(0), Var(1)])
                .and(Formula::Rel(e, vec![Var(1), Var(2)]))
                .and(Formula::Rel(e, vec![Var(2), Var(0)]));
            let triangle: Expr<Nat> = Expr::Mul(vec![
                Expr::Bracket(f),
                Expr::Weight(c, vec![Var(0), Var(1)]),
                Expr::Weight(c, vec![Var(1), Var(2)]),
                Expr::Weight(c, vec![Var(2), Var(0)]),
            ])
            .sum_over([Var(0), Var(1), Var(2)]);
            cases.push((a.clone(), triangle));
            // free variable + coefficient + constant term
            let free: Expr<Nat> = Expr::Const(Nat(3))
                .times(
                    Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
                        .times(Expr::Weight(wsym, vec![Var(0)]))
                        .sum_over([Var(0)]),
                )
                .plus(Expr::Const(Nat(5)));
            cases.push((a, free));
        }
        cases
    };

    for (i, (a, expr)) in cases.iter().enumerate() {
        let nf = normalize(expr).unwrap();
        for dynamic_atoms in [false, true] {
            let mut s = seq_opts.clone();
            s.dynamic_atoms = dynamic_atoms;
            let mut p = par_opts.clone();
            p.dynamic_atoms = dynamic_atoms;
            let seq = compile(a, &nf, &s).unwrap();
            let par = compile(a, &nf, &p).unwrap();
            assert_eq!(
                *seq.circuit, *par.circuit,
                "case {i} (dynamic_atoms={dynamic_atoms}): circuit IR differs"
            );
            let seq_slots: Vec<_> = seq.slots.iter().collect();
            let par_slots: Vec<_> = par.slots.iter().collect();
            assert_eq!(seq_slots, par_slots, "case {i}: slot registries differ");
            assert_eq!(seq.lits, par.lits, "case {i}: literal tables differ");
            assert_eq!(seq.free_vars, par.free_vars);
            assert_eq!(seq.report.num_subsets, par.report.num_subsets);
            assert_eq!(
                seq.report.shapes_instantiated,
                par.report.shapes_instantiated
            );
            assert_eq!(seq.report.max_forest_depth, par.report.max_forest_depth);
        }
    }
}

#[test]
fn query_batch_matches_sequential_queries() {
    // query_batch ≡ query ≡ an engine over a plan without memoized cones
    // (every cone walked on demand) ≡ brute force.
    for seed in 0..3 {
        let a = random_graph(16, 30, 800 + seed);
        let sig = a.signature().clone();
        let e = sig.relation("E").unwrap();
        let wsym = sig.weight("w").unwrap();
        let expr: Expr<Nat> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
            .times(Expr::Weight(wsym, vec![Var(0)]))
            .sum_over([Var(0)]);
        let w = nat_weights(&a, 801 + seed);
        let nf = normalize(&expr).unwrap();
        let compiled = Arc::new(compile(&a, &nf, &CompileOptions::default()).unwrap());
        let coneless = Arc::new(agq_circuit::EvalPlan::new(compiled.circuit.clone()));
        let mut discovery: GeneralEngine<Nat> =
            GeneralEngine::from_parts(compiled.clone(), coneless, &w);
        let memoized = Arc::new(compiled.eval_plan());
        let mut engine: GeneralEngine<Nat> = GeneralEngine::from_parts(compiled, memoized, &w);
        let points: Vec<[u32; 1]> = (0..a.domain_size() as u32).map(|z| [z]).collect();
        let tuples: Vec<&[u32]> = points.iter().map(|p| p.as_slice()).collect();
        let batch = engine.query_batch(&tuples);
        for (z, got) in batch.iter().enumerate() {
            let single = engine.query(&[z as u32]);
            assert_eq!(*got, discovery.query(&[z as u32]), "z={z}: vs discovery");
            let expect = agq_baseline::eval_at(&expr, &w, &[Var(1)], &[z as u32]);
            assert_eq!(*got, single, "z={z}: batch vs query");
            assert_eq!(*got, expect, "z={z}: vs brute force");
        }
    }
}

#[test]
fn query_batch_ring_engine_with_interleaved_updates() {
    let a = random_graph(14, 28, 900);
    let sig = a.signature().clone();
    let e = sig.relation("E").unwrap();
    let wsym = sig.weight("w").unwrap();
    let expr: Expr<Int> = Expr::Bracket(Formula::Rel(e, vec![Var(0), Var(1)]))
        .times(Expr::Weight(wsym, vec![Var(0)]))
        .sum_over([Var(0)]);
    let mut rng = SmallRng::seed_from_u64(901);
    let mut w: WeightedStructure<Int> = WeightedStructure::new(a.clone());
    for i in 0..14u32 {
        w.set(wsym, &[i], Int(rng.gen_range(-3..4)));
    }
    let nf = normalize(&expr).unwrap();
    let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
    let mut engine: RingEngine<Int> = RingEngine::new(compiled, &w);
    for _ in 0..15 {
        let i = rng.gen_range(0..14u32);
        let v = Int(rng.gen_range(-3..4));
        w.set(wsym, &[i], v);
        engine.set_weight(wsym, &[i], v);
        let points: Vec<[u32; 1]> = (0..14u32).map(|z| [z]).collect();
        let tuples: Vec<&[u32]> = points.iter().map(|p| p.as_slice()).collect();
        let batch = engine.query_batch(&tuples);
        for (z, got) in batch.iter().enumerate() {
            let expect = agq_baseline::eval_at(&expr, &w, &[Var(1)], &[z as u32]);
            assert_eq!(*got, expect, "z={z}");
        }
    }
}

/// The suite's formulas over one structure: closed counts and weighted
/// sums (conjunctions, negations, disjunction with coefficients, products
/// of aggregates, an unconstrained variable) and free-variable queries.
fn suite_formulas(a: &Arc<Structure>) -> Vec<Expr<Nat>> {
    let sig = a.signature().clone();
    let e = sig.relation("E").unwrap();
    let (wsym, usym, c) = (
        sig.weight("w").unwrap(),
        sig.weight("u").unwrap(),
        sig.weight("c").unwrap(),
    );
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let edge = |p, q| Formula::Rel(e, vec![p, q]);
    let triangle = edge(x, y).and(edge(y, z)).and(edge(z, x));
    vec![
        Expr::Bracket(edge(x, y)).sum_over([x, y]),
        Expr::Bracket(triangle.clone()).sum_over([x, y, z]),
        Expr::Mul(vec![
            Expr::Bracket(triangle),
            Expr::Weight(c, vec![x, y]),
            Expr::Weight(c, vec![y, z]),
            Expr::Weight(c, vec![z, x]),
        ])
        .sum_over([x, y, z]),
        Expr::Mul(vec![
            Expr::Bracket(edge(x, y).not().and(Formula::neq(x, y))),
            Expr::Weight(wsym, vec![x]),
            Expr::Weight(usym, vec![y]),
        ])
        .sum_over([x, y]),
        Expr::Const(Nat(3))
            .times(Expr::Bracket(edge(x, y).or(edge(y, x))).sum_over([x, y]))
            .plus(Expr::Const(Nat(5))),
        Expr::Weight(wsym, vec![x])
            .sum_over([x])
            .times(Expr::Bracket(edge(y, y)).sum_over([y])),
        Expr::Weight(wsym, vec![x]).sum_over([x, y]),
        Expr::Bracket(edge(x, y))
            .times(Expr::Weight(wsym, vec![x]))
            .sum_over([x]),
        Expr::Bracket(edge(x, y))
            .times(Expr::Weight(wsym, vec![x]))
            .plus(Expr::Bracket(edge(y, x)).times(Expr::Weight(usym, vec![y]))),
    ]
}

/// Every gate of `c` is read by the output, and none is a copy of
/// another: no two `Mul` gates share an ordered child pair, no two
/// `Input` gates a slot.
fn assert_emitted_once(c: &agq_circuit::Circuit, what: &str) {
    use agq_circuit::GateDef;
    use std::collections::HashSet;
    let mut live = vec![false; c.len()];
    live[c.output().0 as usize] = true;
    let mut muls = HashSet::new();
    let mut slots = HashSet::new();
    for (g, def) in c.gates().iter().enumerate().rev() {
        assert!(live[g], "{what}: gate {g} ({def:?}) is unreachable");
        match *def {
            GateDef::Add(r) | GateDef::Perm { cols: r, .. } => {
                c.children(r).iter().for_each(|k| live[k.0 as usize] = true)
            }
            GateDef::Mul(a, b) => {
                live[a.0 as usize] = true;
                live[b.0 as usize] = true;
                assert!(muls.insert((a, b)), "{what}: duplicate product {a:?}·{b:?}");
            }
            GateDef::Input(s) => assert!(slots.insert(s), "{what}: two inputs read slot {s}"),
            GateDef::Const(_) => {}
        }
    }
}

#[test]
fn compiled_circuits_emit_every_gate_once() {
    for seed in 0..2 {
        let a = random_graph(20, 45, 950 + seed);
        for (i, expr) in suite_formulas(&a).iter().enumerate() {
            let nf = normalize(expr).unwrap();
            for dynamic_atoms in [false, true] {
                for threads in [1, 8] {
                    let opts = CompileOptions {
                        dynamic_atoms,
                        threads,
                        ..Default::default()
                    };
                    let compiled = compile(&a, &nf, &opts).unwrap();
                    let what = format!(
                        "seed {seed} formula {i} dynamic={dynamic_atoms} threads={threads}"
                    );
                    assert_emitted_once(&compiled.circuit, &what);
                }
            }
        }
    }
}
