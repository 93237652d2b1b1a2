//! Example 21 / result (C): why does this query answer hold?
//!
//! Assigns each edge a unique provenance identifier and evaluates the
//! triangle expression `f(x) = Σ_{y,z} w(x,y)·w(y,z)·w(z,x)` in the free
//! semiring. The answer at a node is a formal sum with one monomial per
//! triangle through it — enumerated lazily with constant delay, never
//! materialized (Theorem 22).
//!
//! Run with `cargo run --release --example provenance`.

use sparse_agg::enumerate::ProvenanceIndex;
use sparse_agg::graph::generators;
use sparse_agg::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // The paper's Example 21 graph first: a,b,c,d with edges ab bc ca bd da.
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let w = sig.add_weight("w", 2);
    let mut small = Structure::new(Arc::new(sig), 4);
    let names = ["a", "b", "c", "d"];
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 0), (1, 3), (3, 0)] {
        small.insert(e, &[u, v]);
    }
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let f: Expr<Nat> = Expr::Mul(vec![
        Expr::Weight(w, vec![x, y]),
        Expr::Weight(w, vec![y, z]),
        Expr::Weight(w, vec![z, x]),
    ])
    .sum_over([y, z]);

    let mut ix = ProvenanceIndex::build(&small, &f, &CompileOptions::default(), |_, t| {
        vec![vec![Gen((t[0] * 10 + t[1]) as u64)]]
    })
    .unwrap();
    println!("Example 21 — provenance of the triangle query at node a:");
    let mut it = ix.enumerate_at(&[0]);
    let mut monomials: Vec<Vec<u64>> = Vec::new();
    while let Some(m) = it.next() {
        let mut ids: Vec<u64> = m.iter().map(|g| g.0).collect();
        ids.sort_unstable();
        monomials.push(ids);
        let pretty: Vec<String> = m
            .iter()
            .map(|g| {
                let id = g.0;
                format!(
                    "e_{}{}",
                    names[(id / 10) as usize],
                    names[(id % 10) as usize]
                )
            })
            .collect();
        println!("  {}", pretty.join("·"));
    }
    drop(it);
    // Free-semiring exactness: each triangle through a once — a wrongly
    // shared product would drop or repeat a monomial.
    monomials.sort();
    assert_eq!(
        monomials,
        [[1, 12, 20], [1, 13, 30]],
        "Example 21 at a is e_ab·e_bc·e_ca + e_ab·e_bd·e_da"
    );

    // Scale: a larger sparse graph. The full provenance polynomial would
    // have one term per triangle; we only pay for the terms we look at.
    let n = 3_000usize;
    let g = generators::gnm(n, 3 * n, 5);
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let w = sig.add_weight("w", 2);
    let mut big = Structure::new(Arc::new(sig), n);
    for (u, v) in g.edges() {
        big.insert(e, &[u, v]);
        big.insert(e, &[v, u]);
    }
    let t0 = Instant::now();
    // closed variant: provenance of *all* directed triangles
    let f_all: Expr<Nat> = Expr::Mul(vec![
        Expr::Bracket(Formula::Rel(e, vec![x, y])),
        Expr::Weight(w, vec![x, y]),
        Expr::Weight(w, vec![y, z]),
        Expr::Weight(w, vec![z, x]),
    ])
    .sum_over([x, y, z]);
    let ix = ProvenanceIndex::build(&big, &f_all, &CompileOptions::default(), |_, t| {
        vec![vec![Gen(((t[0] as u64) << 32) | t[1] as u64)]]
    })
    .unwrap();
    println!(
        "\nbuilt provenance index for n={n} in {:?} (never materializes the polynomial)",
        t0.elapsed()
    );
    let t0 = Instant::now();
    let mut it = ix.enumerate();
    let mut first_ten = 0;
    let mut max_delay = std::time::Duration::ZERO;
    let mut last = Instant::now();
    let mut total = 0u64;
    while let Some(_m) = it.next() {
        let now = Instant::now();
        max_delay = max_delay.max(now - last);
        last = now;
        total += 1;
        if first_ten < 3 {
            first_ten += 1;
        }
        if total >= 10_000 {
            break; // demonstrate laziness: stop early at no cost
        }
    }
    // One monomial per directed triangle: brute force over the graph.
    let triangles: u64 = (0..n as u32)
        .flat_map(|x| g.neighbors(x).iter().map(move |&y| (x, y)))
        .map(|(x, y)| g.neighbors(y).iter().filter(|&&z| g.has_edge(z, x)).count() as u64)
        .sum();
    assert_eq!(
        total, triangles,
        "one provenance monomial per directed triangle"
    );
    println!(
        "walked {total} provenance monomials in {:?} (max single delay {:?})",
        t0.elapsed(),
        max_delay
    );
}
