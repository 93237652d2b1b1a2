//! The text surface syntax: write queries as strings, run them in any
//! semiring. Every printed value is checked against a direct computation
//! over the edge list; a mismatch panics (non-zero exit).
//!
//! Run with `cargo run --release --example parser_demo`.

use sparse_agg::graph::generators;
use sparse_agg::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

fn main() {
    let n = 1_500;
    let g = generators::planar_like(50, 30, 8);

    let mut sig = Signature::new();
    sig.add_relation("E", 2);
    sig.add_weight("w", 1);
    sig.add_weight("c", 2);
    let e = sig.relation("E").unwrap();
    let w = sig.weight("w").unwrap();
    let c = sig.weight("c").unwrap();

    let mut a = Structure::new(Arc::new(sig), n);
    for (u, v) in g.edges() {
        a.insert(e, &[u, v]);
        a.insert(e, &[v, u]);
    }
    let a = Arc::new(a);
    let edges: HashSet<(u32, u32)> = a
        .relation(e)
        .iter()
        .map(|t| (t.as_slice()[0], t.as_slice()[1]))
        .collect();
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(u, v) in &edges {
        out[u as usize].push(v);
    }
    // Directed 2-paths x→y→z with x ≠ z, split by whether z→x closes them.
    let (mut paths, mut open) = (0u64, 0u64);
    for &(x, y) in &edges {
        for &z in out[y as usize].iter().filter(|&&z| z != x) {
            paths += 1;
            open += u64::from(!edges.contains(&(z, x)));
        }
    }

    // ---- counting in ℕ ------------------------------------------------
    let (expr, _) = parse_expr::<Nat>(
        "sum x,y,z. [E(x,y) & E(y,z) & !E(z,x) & !(z = x)]",
        a.signature(),
        |s| s.parse().ok().map(Nat),
    )
    .unwrap();
    let nf = normalize(&expr).unwrap();
    let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
    let weights: WeightedStructure<Nat> = WeightedStructure::new(a.clone());
    let engine = GeneralEngine::new(compiled, &weights);
    println!("open 2-paths (wedges that don't close): {}", engine.value());
    assert_eq!(*engine.value(), Nat(open), "open wedges vs brute force");

    // ---- the same text, optimized in (min,+) --------------------------
    let (expr, vars) =
        parse_expr::<MinPlus>("sum y. [E(x,y)] * c(x,y) * w(y)", a.signature(), |s| {
            s.parse().ok().map(MinPlus)
        })
        .unwrap();
    println!(
        "parsed f({}) with free variable(s) {:?}",
        vars.names().join(","),
        normalize(&expr).unwrap().free_vars()
    );
    let nf = normalize(&expr).unwrap();
    let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
    let w_of = |y: u32| u64::from(y % 17) + 1;
    let c_of = |x: u32, y: u32| u64::from((x ^ y) % 23) + 1;
    let mut weights: WeightedStructure<MinPlus> = WeightedStructure::new(a.clone());
    for v in 0..n as u32 {
        weights.set(w, &[v], MinPlus(w_of(v)));
    }
    for &(x, y) in &edges {
        weights.set(c, &[x, y], MinPlus(c_of(x, y)));
    }
    let mut engine = GeneralEngine::new(compiled, &weights);
    for v in 0..n as u32 {
        let got = engine.query(&[v]);
        let direct = out[v as usize]
            .iter()
            .map(|&y| MinPlus(c_of(v, y) + w_of(y)))
            .min_by_key(|m| m.0)
            .unwrap_or(MinPlus::INF);
        assert_eq!(got, direct, "cheapest outgoing step from {v}");
        if [0, 7, 100].contains(&v) {
            println!("  cheapest outgoing step from {v}: {got}");
        }
    }

    // ---- formulas for enumeration -------------------------------------
    let (phi, _) = parse_formula("E(x,y) & E(y,z) & x != z", a.signature()).unwrap();
    let ix =
        sparse_agg::enumerate::AnswerIndex::build(&a, &phi, &CompileOptions::default()).unwrap();
    println!(
        "2-paths in the graph: {} (constant-delay enumerable)",
        ix.count()
    );
    assert_eq!(ix.count(), paths, "2-paths vs brute force");
    println!("every value above matches a direct computation over the edge list ✓");
}
