//! Input generators and the shadow model the oracles read.
//!
//! Two graph families, two queries (see README.md for why these):
//!
//! * `reg4(n)` — random 4-regular graph (2n edges), symmetrised `E`: one
//!   Gaifman component, overlapping update cones, and no hubs, so the
//!   circuit barely changes size from seed to seed. Query `twopath`.
//! * `forest64(n)` — 64 disjoint random recursive trees, unary `S` on
//!   even vertices: 64 components, disjoint cones. Query `marked_edge`.

use crate::rng::SplitMix64;
use agq_core::TupleUpdate;
use agq_logic::{parse_formula, Formula, Var};
use agq_structure::fx::FxHashMap;
use agq_structure::{Elem, RelId, Signature, Structure};
use std::collections::HashSet;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// `E(x,y) ∧ E(y,z) ∧ x≠z`, arity 3.
    TwoPath,
    /// `E(x,y) ∧ S(x)`, arity 2.
    MarkedEdge,
}

impl Query {
    pub fn source(self) -> &'static str {
        match self {
            Query::TwoPath => "E(x,y) & E(y,z) & x != z",
            Query::MarkedEdge => "E(x,y) & S(x)",
        }
    }

    pub fn arity(self) -> usize {
        match self {
            Query::TwoPath => 3,
            Query::MarkedEdge => 2,
        }
    }
}

/// Generated inputs: the structure the engines receive plus the directed
/// `E` tuples the update scripts flip.
pub struct World {
    pub query: Query,
    pub n: usize,
    pub a: Arc<Structure>,
    pub e: RelId,
    /// Directed `E` tuples in generation order; `tuples[i ^ 1]` is the
    /// reverse of `tuples[i]`.
    pub tuples: Vec<[Elem; 2]>,
    /// Tuple ids by source vertex.
    pub out_index: Vec<Vec<u32>>,
    /// Tuple id of a directed pair.
    pub tuple_id: FxHashMap<(Elem, Elem), u32>,
}

fn structure_from(n: usize, tuples: &[[Elem; 2]], marked: bool) -> (Structure, RelId) {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let s = marked.then(|| sig.add_relation("S", 1));
    let mut a = Structure::new(Arc::new(sig), n);
    for t in tuples {
        a.insert(e, t);
    }
    if let Some(s) = s {
        for v in (0..n as Elem).step_by(2) {
            a.insert(s, &[v]);
        }
    }
    (a, e)
}

/// Random 4-regular graph: the union of two random Hamiltonian cycles
/// sharing no edge, both directions of every edge.
pub fn reg4(n: usize, seed: u64) -> World {
    assert!(n >= 8, "reg4 needs room for two edge-disjoint cycles");
    let mut rng = SplitMix64::stream(seed ^ (n as u64).rotate_left(32), "reg4");
    let cycle = |rng: &mut SplitMix64| -> Vec<(Elem, Elem)> {
        let mut p: Vec<Elem> = (0..n as Elem).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.below(i + 1));
        }
        (0..n).map(|i| (p[i], p[(i + 1) % n])).collect()
    };
    let first = cycle(&mut rng);
    let seen: HashSet<(Elem, Elem)> = first.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    let second = loop {
        let c = cycle(&mut rng);
        if c.iter()
            .all(|&(u, v)| !seen.contains(&(u.min(v), u.max(v))))
        {
            break c;
        }
    };
    let mut tuples = Vec::with_capacity(4 * n);
    for (u, v) in first.into_iter().chain(second) {
        tuples.push([u, v]);
        tuples.push([v, u]);
    }
    World::new(Query::TwoPath, n, tuples)
}

pub const FOREST_COMPONENTS: usize = 64;

/// 64 disjoint random recursive trees of `n / 64` vertices each.
pub fn forest64(n: usize, seed: u64) -> World {
    let m = n / FOREST_COMPONENTS;
    assert!(m >= 2, "forest64 needs at least 128 vertices");
    let n = m * FOREST_COMPONENTS;
    let mut rng = SplitMix64::stream(seed ^ (n as u64).rotate_left(32), "forest64");
    let mut tuples = Vec::with_capacity(2 * n);
    for c in 0..FOREST_COMPONENTS {
        let base = (c * m) as Elem;
        for i in 1..m {
            let (u, v) = (base + i as Elem, base + rng.below(i) as Elem);
            tuples.push([u, v]);
            tuples.push([v, u]);
        }
    }
    World::new(Query::MarkedEdge, n, tuples)
}

impl World {
    fn new(query: Query, n: usize, tuples: Vec<[Elem; 2]>) -> World {
        let (a, e) = structure_from(n, &tuples, query == Query::MarkedEdge);
        let mut out_index = vec![Vec::new(); n];
        let mut tuple_id = FxHashMap::default();
        for (i, t) in tuples.iter().enumerate() {
            out_index[t[0] as usize].push(i as u32);
            tuple_id.insert((t[0], t[1]), i as u32);
        }
        World {
            query,
            n,
            a: Arc::new(a),
            e,
            tuples,
            out_index,
            tuple_id,
        }
    }

    pub fn formula(&self) -> Formula {
        parse_formula(self.query.source(), self.a.signature())
            .expect("built-in query parses")
            .0
    }
}

/// The harness's own model of the database under flips: a mutable copy
/// of the structure (read by direct formula evaluation), tuple presence,
/// and the closed-form answer count kept in step with every flip.
#[derive(Clone)]
pub struct Shadow {
    query: Query,
    phi: Formula,
    e: RelId,
    pub a: Structure,
    tuples: Vec<[Elem; 2]>,
    present: Vec<bool>,
    out_deg: Vec<u64>,
    in_deg: Vec<u64>,
    count: u64,
}

impl Shadow {
    pub fn new(w: &World) -> Self {
        let mut s = Shadow {
            query: w.query,
            phi: w.formula(),
            e: w.e,
            a: (*w.a).clone(),
            tuples: w.tuples.clone(),
            present: vec![true; w.tuples.len()],
            out_deg: vec![0; w.n],
            in_deg: vec![0; w.n],
            count: 0,
        };
        for t in &w.tuples {
            s.out_deg[t[0] as usize] += 1;
            s.in_deg[t[1] as usize] += 1;
        }
        s.count = match w.query {
            // Σ_y in(y)·out(y) − #{(x,y) : E(x,y) ∧ E(y,x)}; on a symmetric
            // E this is Σ_y d(y)(d(y)−1).
            Query::TwoPath => {
                (0..w.n).map(|y| s.in_deg[y] * s.out_deg[y]).sum::<u64>() - w.tuples.len() as u64
            }
            // Σ_{x∈S} out(x)
            Query::MarkedEdge => w.tuples.iter().filter(|t| t[0] % 2 == 0).count() as u64,
        };
        s
    }

    /// Closed-form `|φ(A)|` of the current state.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flip tuple `i` and return the update that does so.
    pub fn flip(&mut self, i: usize) -> TupleUpdate {
        let [u, v] = self.tuples[i];
        let now = !self.present[i];
        self.present[i] = now;
        let (ui, vi) = (u as usize, v as usize);
        match self.query {
            Query::TwoPath => {
                // terms y=u (out changes) and y=v (in changes), plus the
                // x≠z correction when the reverse tuple is present
                let mutual = if self.present[i ^ 1] { 2 } else { 0 };
                let delta = self.in_deg[ui] + self.out_deg[vi];
                if now {
                    self.count = self.count + delta - mutual;
                } else {
                    self.count = self.count + mutual - delta;
                }
            }
            Query::MarkedEdge => {
                if u % 2 == 0 {
                    self.count = if now { self.count + 1 } else { self.count - 1 };
                }
            }
        }
        if now {
            self.out_deg[ui] += 1;
            self.in_deg[vi] += 1;
            self.a.insert(self.e, &[u, v]);
        } else {
            self.out_deg[ui] -= 1;
            self.in_deg[vi] -= 1;
            self.a.remove(self.e, &[u, v]);
        }
        TupleUpdate {
            rel: self.e,
            tuple: vec![u, v],
            present: now,
        }
    }

    /// `A ⊨ φ(tuple)` by direct evaluation on the shadow structure.
    pub fn holds(&self, tuple: &[Elem]) -> bool {
        let mut env: FxHashMap<Var, Elem> = FxHashMap::default();
        for (i, &x) in tuple.iter().enumerate() {
            env.insert(Var(i as u32), x);
        }
        agq_baseline::eval_formula(&self.phi, &self.a, &mut env)
    }
}
