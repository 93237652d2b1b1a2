//! The Theorem 6 compiler: weighted expression × structure → circuit.
//!
//! Compilation decomposes over color sets `D` (identity (12)–(13) of the
//! paper): each `D` contributes an independent family of gates, built
//! against the DFS forest of `G[D]`. That independence is exploited twice:
//!
//! * **sequentially**, each `(D, term)` unit is instantiated straight into
//!   the main builder;
//! * **in parallel** ([`CompileOptions::threads`]), workers instantiate
//!   units into *local* builders with local slot registries, and a
//!   deterministic merge replays the unit gate streams into the main
//!   builder in color-set order, re-interning slots.
//!
//! The builder hash-conses inputs, literals and products (see
//! [`CircuitBuilder`]), so a gate requested twice — within a unit, or by
//! two units — is emitted once. A unit's stream holds exactly the gates
//! its local builder emitted, in request order; a request the local table
//! answered was answered by the main table too when the sequential path
//! made it, since the gate it found was replayed earlier. Replaying the
//! stream through the main builder's API therefore makes the same
//! interning and peephole decisions, in the same order, as the sequential
//! path, and the parallel compiler's output circuit is **byte-identical**
//! to the sequential one (checked by the differential test suite). The
//! final [`Circuit::cluster_adds`] drops whatever the output does not
//! reach — mostly products built for a leaf no shape consumed.

use crate::shape::{enumerate_shapes, Shape};
use crate::slots::{SlotKey, SlotRegistry};
use crate::term::{expand_distinct, DistinctTerm};
use crate::CompileError;
use agq_circuit::{
    ChildRange, Circuit, CircuitBuilder, CircuitStats, ConstRef, EvalPlan, GateDef, GateId,
};
use agq_graph::Graph;
use agq_logic::{NormalForm, Var};
use agq_semiring::Semiring;
use agq_structure::fx::FxHashMap;
use agq_structure::gaifman::gaifman_graph;
use agq_structure::{Elem, RelId, Structure, Tuple, WeightId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Compilation knobs.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Reject color sets whose DFS forest is deeper than this (the
    /// observable bounded-expansion precondition).
    pub depth_cap: u32,
    /// Reject terms that need more than this many shapes.
    pub max_shapes: usize,
    /// Compile relational atoms as 0/1 *inputs* instead of static checks,
    /// enabling Gaifman-preserving updates (Theorem 24 / Lemma 40).
    pub dynamic_atoms: bool,
    /// Worker threads for compilation: `0` = one per available core,
    /// `1` = sequential. The parallel compiler's output is byte-identical
    /// to the sequential one.
    pub threads: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            depth_cap: 24,
            max_shapes: 200_000,
            dynamic_atoms: false,
            threads: 0,
        }
    }
}

/// What the compiler produced, plus measurements for the experiments.
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// Colors used by the low-treedepth coloring.
    pub num_colors: u32,
    /// Color sets visited.
    pub num_subsets: usize,
    /// Shapes instantiated (over all terms, sets, surjections).
    pub shapes_instantiated: usize,
    /// Deepest DFS forest over the visited color sets.
    pub max_forest_depth: u32,
    /// Structural circuit statistics.
    pub stats: CircuitStats,
}

/// A compiled weighted query: the circuit, its input-slot registry, the
/// literal (coefficient) table, and the free-variable order.
#[derive(Clone, Debug)]
pub struct CompiledQuery<S> {
    /// The circuit (Theorem 6 output).
    pub circuit: Arc<Circuit>,
    /// Input slot identities, shareable with every index that valuates
    /// the same circuit.
    pub slots: Arc<SlotRegistry>,
    /// Coefficient table for [`agq_circuit::ConstRef::Lit`] gates.
    pub lits: Vec<S>,
    /// Free variables in query-tuple order.
    pub free_vars: Vec<Var>,
    /// Compilation measurements.
    pub report: CompileReport,
}

impl<S> CompiledQuery<S> {
    /// Derive the evaluation plan every state over this query shares:
    /// adjacency CSR plus memoized peek cones for the `FreeVar` indicator
    /// slots (their cone topology is static and query-bounded, so point
    /// queries become one precomputed-cone sweep).
    pub fn eval_plan(&self) -> EvalPlan {
        let cone_slots: Vec<u32> = self
            .slots
            .iter()
            .filter(|(_, key)| matches!(key, SlotKey::FreeVar(..)))
            .map(|(slot, _)| slot)
            .collect();
        EvalPlan::with_cones(self.circuit.clone(), &cone_slots)
    }
}

/// Compile a normalized weighted expression against a structure, with
/// the free variables the normal form mentions as the query tuple
/// ([`compile_query`] at `nf.free_vars()`).
///
/// The circuit depends on the structure and (in static-atom mode) its
/// relations, but **not** on any weight values — weights are circuit
/// inputs, exactly as in the paper's `Σ(w)`-circuit definition.
pub fn compile<S: Semiring>(
    a: &Structure,
    nf: &NormalForm<S>,
    opts: &CompileOptions,
) -> Result<CompiledQuery<S>, CompileError> {
    compile_query(a, nf, nf.free_vars(), opts)
}

/// [`compile`] with the query tuple stated by the caller: `free_vars`
/// (ascending, a superset of `nf.free_vars()`) fixes the positions of the
/// `v_i` indicator inputs. This is Theorem 8's closed form
/// `Σ_x̄ f · Π_i v_i(x_i)`: **every** term reads every `v_i`, also one
/// that does not constrain `x_i` (a disjunct of `φ`, or a variable the
/// normal form simplified away), so the circuit valuates to `f(ā)` under
/// the point-query indicators *and* to one full monomial
/// `e¹_{a₁}⋯e^k_{a_k}` per answer under Section 6's generators.
pub fn compile_query<S: Semiring>(
    a: &Structure,
    nf: &NormalForm<S>,
    free_vars: Vec<Var>,
    opts: &CompileOptions,
) -> Result<CompiledQuery<S>, CompileError> {
    debug_assert!(free_vars.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(nf.free_vars().iter().all(|v| free_vars.contains(v)));
    assert!(
        free_vars.len() <= u8::MAX as usize,
        "too many free variables"
    );

    // Distinctness expansion of every term.
    let mut dterms: Vec<DistinctTerm<S>> = Vec::new();
    for t in &nf.terms {
        dterms.extend(expand_distinct(t, &free_vars));
    }
    let p = dterms.iter().map(|d| d.k).max().unwrap_or(0);

    let gaifman = gaifman_graph(a);
    let coloring = agq_graph::low_treedepth_coloring(&gaifman, p.max(1));
    let classes = coloring.classes();

    let mut emit = Emit::new();
    let mut lits: Vec<S> = Vec::new();

    // Literal table: intern per-term coefficients.
    let coeff_gate: Vec<GateId> = dterms
        .iter()
        .map(|d| {
            if d.coeff.is_one() {
                emit.builder.one()
            } else {
                let idx = match lits.iter().position(|l: &S| *l == d.coeff) {
                    Some(i) => i as u32,
                    None => {
                        lits.push(d.coeff.clone());
                        (lits.len() - 1) as u32
                    }
                };
                emit.builder.lit(idx)
            }
        })
        .collect();

    let mut top_gates: Vec<GateId> = Vec::new();
    let mut report = CompileReport {
        num_colors: coloring.num_colors,
        num_subsets: 0,
        shapes_instantiated: 0,
        max_forest_depth: 0,
        stats: CircuitStats {
            num_gates: 0,
            num_edges: 0,
            depth: 0,
            max_fanout: 0,
            max_add_fanin: 0,
            max_perm_rows: 0,
            max_perm_cols: 0,
        },
    };

    // Constant terms (k = 0) contribute their coefficient directly.
    for (ti, d) in dterms.iter().enumerate() {
        if d.k == 0 {
            top_gates.push(coeff_gate[ti]);
        }
    }

    // Enumerate color sets D of size 1..=p; for each, build the DFS forest
    // of G[D] once and instantiate every compatible (term, surjection,
    // shape) triple — identity (12)–(13) of the paper.
    let num_colors = coloring.num_colors as usize;
    let mut subset: Vec<u32> = Vec::new();
    let mut subsets: Vec<Vec<u32>> = Vec::new();
    enumerate_subsets(num_colors, p, &mut subset, 0, &mut subsets);

    let shared = Shared {
        a,
        gaifman: &gaifman,
        colors: &coloring.colors,
        opts,
        dterms: &dterms,
        plan_cache: Mutex::new(FxHashMap::default()),
        leaf_interner: Mutex::new(LeafInterner::default()),
    };

    let threads = match opts.threads {
        0 => crate::available_cores(),
        t => t,
    }
    .min(subsets.len())
    .max(1);

    if threads <= 1 {
        // Sequential: units go straight into the main builder.
        let mut forest = SubForest::new(a.domain_size());
        let mut ctx = InstCtx::new();
        for d_set in &subsets {
            forest.build(
                &gaifman,
                d_set.iter().map(|&c| classes[c as usize].as_slice()),
                &coloring.colors,
                d_set,
            );
            if forest.preorder.is_empty() {
                forest.reset();
                continue;
            }
            report.num_subsets += 1;
            let depth = forest.max_depth;
            if depth > opts.depth_cap {
                forest.reset();
                return Err(CompileError::DepthCapExceeded {
                    depth,
                    cap: opts.depth_cap,
                });
            }
            report.max_forest_depth = report.max_forest_depth.max(depth);
            ctx.begin_dset();
            for (ti, dt) in dterms.iter().enumerate() {
                if dt.k < d_set.len() || dt.k == 0 {
                    continue;
                }
                let tops = match instantiate_term(
                    &shared,
                    &forest,
                    depth as u8,
                    d_set,
                    ti,
                    dt,
                    &mut emit,
                    &mut ctx,
                    &mut report.shapes_instantiated,
                ) {
                    Ok(t) => t,
                    Err(e) => {
                        forest.reset();
                        return Err(e);
                    }
                };
                push_term_sum(&mut emit.builder, coeff_gate[ti], &tops, &mut top_gates);
            }
            forest.reset();
        }
    } else {
        // Parallel: workers instantiate (color set × term) units into
        // local builders; the merge below replays them in order.
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<DsetOut, CompileError>>>> =
            (0..subsets.len()).map(|_| Mutex::new(None)).collect();
        let colors = &coloring.colors;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut forest = SubForest::new(a.domain_size());
                    let mut ctx = InstCtx::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= subsets.len() {
                            break;
                        }
                        let out = process_dset_unit(
                            &shared,
                            &mut forest,
                            &mut ctx,
                            &subsets[idx],
                            &classes,
                            colors,
                        );
                        *results[idx].lock().expect("result lock") = Some(out);
                    }
                });
            }
        });
        // Deterministic merge, in color-set order. The first failing
        // color set (in order) reports its error, as sequentially.
        for cell in results {
            let out = cell
                .into_inner()
                .expect("result lock")
                .expect("worker completed")?;
            report.num_subsets += out.num_subsets;
            report.shapes_instantiated += out.shapes_instantiated;
            report.max_forest_depth = report.max_forest_depth.max(out.forest_depth);
            for tu in &out.term_units {
                let tops = merge_term_unit(&mut emit, tu);
                push_term_sum(&mut emit.builder, coeff_gate[tu.ti], &tops, &mut top_gates);
            }
        }
    }

    let output = add_balanced(&mut emit.builder, &top_gates);
    // Relabel once so exclusive add-gate children become contiguous id
    // runs — the dense-run tier of the evaluators sweeps those as value
    // slices — dropping every gate the output does not reach.
    // Deterministic and semantics-preserving.
    let circuit = emit.builder.finish(output).cluster_adds();
    report.stats = circuit.stats();
    Ok(CompiledQuery {
        circuit: Arc::new(circuit),
        slots: Arc::new(emit.slots),
        lits,
        free_vars,
        report,
    })
}

/// Sum a term's instantiation gates, apply its coefficient, and collect
/// the result (no-op when the term contributed nothing).
fn push_term_sum(
    builder: &mut CircuitBuilder,
    coeff: GateId,
    tops: &[GateId],
    top_gates: &mut Vec<GateId>,
) {
    if !tops.is_empty() {
        let sum = add_balanced(builder, tops);
        let gated = builder.mul(coeff, sum);
        top_gates.push(gated);
    }
}

fn enumerate_subsets(
    num_colors: usize,
    p: usize,
    cur: &mut Vec<u32>,
    from: usize,
    out: &mut Vec<Vec<u32>>,
) {
    if !cur.is_empty() {
        out.push(cur.clone());
    }
    if cur.len() == p {
        return;
    }
    for c in from..num_colors {
        cur.push(c as u32);
        enumerate_subsets(num_colors, p, cur, c + 1, out);
        cur.pop();
    }
}

/// Enumerate surjections `vars → d_set` (as color-per-var assignments).
fn surjections(k: usize, d_set: &[u32], assign: &mut [u32], i: usize, f: &mut impl FnMut(&[u32])) {
    if i == k {
        // surjectivity check
        if d_set.iter().all(|c| assign.iter().any(|a| a == c)) {
            f(assign);
        }
        return;
    }
    // prune: remaining slots must cover missing colors
    let missing = d_set.iter().filter(|c| !assign[..i].contains(c)).count();
    if missing > k - i {
        return;
    }
    for &c in d_set {
        assign[i] = c;
        surjections(k, d_set, assign, i + 1, f);
    }
}

/// Fan-in of the add gates emitted for term and top-level sums. Wide
/// gates keep the data-sized aggregates as few flat child segments the
/// dense-run sweep of `agq_circuit` can evaluate as value slices (after
/// `Circuit::cluster_adds` makes the children contiguous); the chunked
/// recursion keeps depth logarithmic for sums wider than one gate.
const ADD_FANIN: usize = 64;

fn add_balanced(b: &mut CircuitBuilder, gates: &[GateId]) -> GateId {
    match gates.len() {
        0 => b.zero(),
        1 => gates[0],
        n if n <= ADD_FANIN => b.add(gates),
        _ => {
            // Left-to-right chunks preserve the summand (enumeration)
            // order; each chunk becomes one wide gate.
            let chunks: Vec<GateId> = gates.chunks(ADD_FANIN).map(|c| b.add(c)).collect();
            add_balanced(b, &chunks)
        }
    }
}

// ---------------------------------------------------------------------
// Shape plans: a term's atoms and weights decided against a shape.
// ---------------------------------------------------------------------

/// Sentinel for "structurally zero / absent" in the dense scratch table.
const NO_GATE: u32 = u32::MAX;

/// An atom decided against the shape: evaluated at a forest node `u`
/// (where the deepest argument lands) against the ancestors of `u` at the
/// recorded absolute depths.
#[derive(Clone, Debug)]
struct AtomCheck {
    rel: RelId,
    arg_depths: Vec<u8>,
    positive: bool,
}

#[derive(Clone, Debug)]
enum WeightRead {
    /// A declared weight `w(ancestors at depths …)`.
    Decl(WeightId, Vec<u8>),
    /// A free-variable indicator `v_pos(u)`.
    Free(u8),
}

/// Per-shape compilation plan for one term.
/// Shapes of one term with their plans, shared across color sets.
type PlanSet = Arc<Vec<(Shape, ShapePlan)>>;

/// Sentinel for "not a leaf" in [`ShapePlan::leaf_prog`]/`leaf_guard`.
const NO_PROG: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct ShapePlan {
    /// Checks per shape node.
    checks: Vec<Vec<AtomCheck>>,
    /// Weight reads per shape node.
    reads: Vec<Vec<WeightRead>>,
    /// Shape children lists.
    children: Vec<Vec<u32>>,
    /// Shape roots.
    roots: Vec<u32>,
    /// Shape nodes grouped by depth (instantiation visits only matches).
    nodes_by_depth: Vec<Vec<u32>>,
    /// Interned *guard* id per leaf node (`NO_PROG` for internal nodes):
    /// the node's depth, atom checks, and killing weight reads. Two leaf
    /// nodes with one guard accept exactly the same forest nodes, so
    /// survivor lists are cached per (guard, color) across a color set.
    leaf_guard: Vec<u32>,
    /// Interned *program* id per leaf node (`NO_PROG` for internal
    /// nodes): the guard plus every factor-producing read. Two leaf nodes
    /// with one program produce identical cell gates, so gate lists are
    /// cached per (program, color) within a compilation unit.
    leaf_prog: Vec<u32>,
}

/// Interner for leaf guards and programs (scoped to one `compile` call,
/// shared by all workers). Ids are only used as cache keys — the actual
/// checks/reads are re-read from the shape node that carries them.
#[derive(Default)]
struct LeafInterner {
    guards: FxHashMap<Vec<u32>, u32>,
    progs: FxHashMap<Vec<u32>, u32>,
}

impl LeafInterner {
    fn intern(map: &mut FxHashMap<Vec<u32>, u32>, key: Vec<u32>) -> u32 {
        let next = map.len() as u32;
        *map.entry(key).or_insert(next)
    }
}

/// Canonical encodings of a leaf's kill conditions and factor reads.
fn leaf_keys(depth: u8, checks: &[AtomCheck], reads: &[WeightRead]) -> (Vec<u32>, Vec<u32>) {
    let mut guard: Vec<u32> = vec![depth as u32];
    for c in checks {
        guard.push(c.rel.0);
        guard.push(c.positive as u32);
        guard.push(c.arg_depths.len() as u32);
        guard.extend(c.arg_depths.iter().map(|&d| d as u32));
    }
    // Weight reads of arity ≥ 2 carry a support/clique condition that can
    // kill the node, so they belong to the guard as well as the program.
    let mut prog = guard.clone();
    for r in reads {
        match r {
            WeightRead::Decl(w, depths) => {
                if depths.len() >= 2 {
                    guard.push(u32::MAX - 1);
                    guard.push(w.0);
                    guard.extend(depths.iter().map(|&d| d as u32));
                }
                prog.push(u32::MAX - 1);
                prog.push(w.0);
                prog.push(depths.len() as u32);
                prog.extend(depths.iter().map(|&d| d as u32));
            }
            WeightRead::Free(pos) => {
                prog.push(u32::MAX - 2);
                prog.push(*pos as u32);
            }
        }
    }
    (guard, prog)
}

fn analyze<S: Semiring>(
    dt: &DistinctTerm<S>,
    shape: &Shape,
    interner: &Mutex<LeafInterner>,
) -> Option<ShapePlan> {
    let n = shape.len();
    let mut nodes_by_depth: Vec<Vec<u32>> = vec![Vec::new(); shape.max_depth() as usize + 1];
    for t in 0..n as u32 {
        nodes_by_depth[shape.depth[t as usize] as usize].push(t);
    }
    let mut plan = ShapePlan {
        checks: vec![Vec::new(); n],
        reads: vec![Vec::new(); n],
        children: shape.children(),
        roots: shape.roots(),
        nodes_by_depth,
        leaf_guard: vec![NO_PROG; n],
        leaf_prog: vec![NO_PROG; n],
    };
    for lit in &dt.rel_lits {
        let nodes: Vec<u32> = lit
            .args
            .iter()
            .map(|&v| shape.var_node[v as usize])
            .collect();
        let comparable = pairwise_comparable(shape, &nodes);
        if !comparable {
            if lit.positive {
                return None; // a clique atom cannot hold off a root path
            }
            continue; // ¬R holds vacuously for this shape
        }
        let deepest = *nodes
            .iter()
            .max_by_key(|&&n| shape.depth[n as usize])
            .expect("atom has arguments");
        plan.checks[deepest as usize].push(AtomCheck {
            rel: lit.rel,
            arg_depths: nodes.iter().map(|&n| shape.depth[n as usize]).collect(),
            positive: lit.positive,
        });
    }
    for (w, args) in &dt.weights {
        let nodes: Vec<u32> = args.iter().map(|&v| shape.var_node[v as usize]).collect();
        if !pairwise_comparable(shape, &nodes) {
            return None; // weights are supported on tuples, i.e. cliques
        }
        let deepest = *nodes
            .iter()
            .max_by_key(|&&n| shape.depth[n as usize])
            .expect("weight has arguments");
        plan.reads[deepest as usize].push(WeightRead::Decl(
            *w,
            nodes.iter().map(|&n| shape.depth[n as usize]).collect(),
        ));
    }
    for &(pos, var) in &dt.free_reads {
        let node = shape.var_node[var as usize];
        plan.reads[node as usize].push(WeightRead::Free(pos));
    }
    // Intern leaf guards/programs. Every leaf is a variable node (every
    // node has a variable among its descendants), which is what lets the
    // instantiation drive leaves from (depth, color) buckets.
    for t in 0..n {
        if plan.children[t].is_empty() {
            debug_assert!(shape.var_at[t].is_some(), "leaf without a variable");
            let (gkey, pkey) = leaf_keys(shape.depth[t], &plan.checks[t], &plan.reads[t]);
            let mut int = interner.lock().expect("leaf interner");
            plan.leaf_guard[t] = LeafInterner::intern(&mut int.guards, gkey);
            plan.leaf_prog[t] = LeafInterner::intern(&mut int.progs, pkey);
        }
    }
    Some(plan)
}

fn pairwise_comparable(shape: &Shape, nodes: &[u32]) -> bool {
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            if !shape.comparable(nodes[i], nodes[j]) {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------
// Compilation context and the Lemma 29 instantiation.
// ---------------------------------------------------------------------

/// Read-only state shared by every compilation unit (and every worker
/// thread in parallel mode).
struct Shared<'a, S> {
    a: &'a Structure,
    gaifman: &'a Graph,
    colors: &'a [u32],
    opts: &'a CompileOptions,
    dterms: &'a [DistinctTerm<S>],
    /// `(term index, forest depth)` → analyzed shapes.
    plan_cache: Mutex<FxHashMap<(usize, u8), PlanSet>>,
    /// Leaf guard/program interner backing the instantiation caches.
    leaf_interner: Mutex<LeafInterner>,
}

impl<S: Semiring> Shared<'_, S> {
    fn plans_for(
        &self,
        ti: usize,
        dt: &DistinctTerm<S>,
        depth: u8,
    ) -> Result<PlanSet, CompileError> {
        if let Some(p) = self
            .plan_cache
            .lock()
            .expect("plan cache")
            .get(&(ti, depth))
        {
            return Ok(p.clone());
        }
        // Computed outside the lock: a racing worker may duplicate the
        // work, but the value is deterministic, so either insert wins.
        let shapes = enumerate_shapes(dt.k, depth, &dt.comparability, self.opts.max_shapes).ok_or(
            CompileError::TooManyShapes {
                cap: self.opts.max_shapes,
            },
        )?;
        let plans: Vec<(Shape, ShapePlan)> = shapes
            .into_iter()
            .filter_map(|s| analyze(dt, &s, &self.leaf_interner).map(|p| (s, p)))
            .collect();
        let plans = Arc::new(plans);
        self.plan_cache
            .lock()
            .expect("plan cache")
            .insert((ti, depth), plans.clone());
        Ok(plans)
    }

    /// Whether a tuple's distinct elements are pairwise adjacent in the
    /// Gaifman graph (the invariant Gaifman-preserving updates maintain).
    fn is_clique(&self, tuple: &[Elem]) -> bool {
        for i in 0..tuple.len() {
            for j in i + 1..tuple.len() {
                if tuple[i] != tuple[j] && !self.gaifman.has_edge(tuple[i], tuple[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether some relation of matching arity contains the tuple — the
    /// weight-support condition of Section 3.
    fn on_support(&self, tuple: &[Elem]) -> bool {
        let sig = self.a.signature();
        sig.relation_ids()
            .any(|r| sig.relation_arity(r) == tuple.len() && self.a.holds(r, tuple))
    }
}

/// Mutable gate-emission state: a builder and its slot registry. The
/// sequential path uses one; each parallel unit uses its own, merged
/// later.
struct Emit {
    builder: CircuitBuilder,
    slots: SlotRegistry,
}

impl Emit {
    fn new() -> Self {
        Emit {
            builder: CircuitBuilder::new(),
            slots: SlotRegistry::new(),
        }
    }

    /// The input gate of `key`'s slot (one per slot: the builder interns).
    fn input(&mut self, key: SlotKey) -> GateId {
        self.builder.input(self.slots.intern(key))
    }
}

/// A leaf's cached cell list: (preorder position, gate id) pairs.
type LeafCells = Arc<Vec<(u32, u32)>>;

/// Per-worker instantiation scratch. Replaces the old dense
/// (shape node × preorder position) table that was `memset` for every
/// (surjection, shape) pair — the profiled super-linear re-scan of
/// `AnswerIndex::build` (1.3G cells cleared and 320M nodes scanned at
/// n = 4000 for ~260k final gates).
///
/// * `table`/`table_stamp` — the same dense cell table, but
///   generation-stamped: "clearing" is one counter bump.
/// * `filled` — positions filled per shape node, so internal shape nodes
///   visit only the parents of filled child cells instead of every
///   forest node.
/// * `survivors` — per color set: forest positions passing a leaf's
///   checks, cached per (guard, color) and shared across every
///   surjection, shape, and term of the color set.
/// * `leaf_gates` — per compilation unit: a leaf's (position, cell gate)
///   list per (program, color). Gate ids are builder-local and the
///   parallel compiler gives every (color set, term) unit its own
///   builder, so the cache cannot outlive a unit; it saves rebuilding a
///   list, not gates — the builder's intern tables catch repeated
///   products within and across units either way, so the scope is only a
///   choice of cache size.
struct InstCtx {
    table: Vec<u32>,
    table_stamp: Vec<u32>,
    stamp: u32,
    filled: Vec<Vec<u32>>,
    cand: Vec<u32>,
    cand_stamp: Vec<u32>,
    cstamp: u32,
    survivors: FxHashMap<(u32, u32), Arc<Vec<u32>>>,
    leaf_gates: FxHashMap<(u32, u32), LeafCells>,
    tuple_buf: Vec<Elem>,
}

impl InstCtx {
    fn new() -> Self {
        InstCtx {
            table: Vec::new(),
            table_stamp: Vec::new(),
            stamp: 0,
            filled: Vec::new(),
            cand: Vec::new(),
            cand_stamp: Vec::new(),
            cstamp: 0,
            survivors: FxHashMap::default(),
            leaf_gates: FxHashMap::default(),
            tuple_buf: Vec::new(),
        }
    }

    /// Enter a new color set: survivor and gate caches are stale.
    fn begin_dset(&mut self) {
        self.survivors.clear();
        self.leaf_gates.clear();
    }

    /// Enter a new (color set, term) unit: gate ids are builder-local.
    fn begin_unit(&mut self) {
        self.leaf_gates.clear();
    }

    /// Start one (surjection, shape) instantiation over `m` positions.
    fn begin_inst(&mut self, shape_len: usize, m: usize) {
        let cells = shape_len * m;
        if self.table.len() < cells {
            self.table.resize(cells, NO_GATE);
            self.table_stamp.resize(cells, 0);
        }
        if self.cand_stamp.len() < m {
            self.cand_stamp.resize(m, 0);
        }
        if self.stamp == u32::MAX {
            self.table_stamp.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        if self.filled.len() < shape_len {
            self.filled.resize(shape_len, Vec::new());
        }
        for f in &mut self.filled[..shape_len] {
            f.clear();
        }
    }

    fn cell(&self, t: usize, m: usize, pos: usize) -> u32 {
        let i = t * m + pos;
        if self.table_stamp[i] == self.stamp {
            self.table[i]
        } else {
            NO_GATE
        }
    }

    fn set_cell(&mut self, t: usize, m: usize, pos: usize, gate: u32) {
        let i = t * m + pos;
        self.table[i] = gate;
        self.table_stamp[i] = self.stamp;
        self.filled[t].push(pos as u32);
    }
}

/// One term's contribution to one color set, built in a unit-local
/// builder: its gate stream and child arena (the builder's intern tables
/// are dropped before the unit is queued), local slot registry, and the
/// (local ids of) its per-(surjection, shape) top gates.
struct TermUnit {
    ti: usize,
    gates: Vec<GateDef>,
    children: Vec<GateId>,
    slots: SlotRegistry,
    tops: Vec<GateId>,
}

impl TermUnit {
    fn children(&self, r: ChildRange) -> &[GateId] {
        &self.children[r.start() as usize..][..r.len()]
    }
}

/// A worker's output for one color set.
struct DsetOut {
    num_subsets: usize,
    shapes_instantiated: usize,
    forest_depth: u32,
    term_units: Vec<TermUnit>,
}

/// Parallel worker body: build the forest of one color set and
/// instantiate every eligible term into its own local builder.
fn process_dset_unit<S: Semiring>(
    shared: &Shared<'_, S>,
    forest: &mut SubForest,
    ctx: &mut InstCtx,
    d_set: &[u32],
    classes: &[Vec<u32>],
    colors: &[u32],
) -> Result<DsetOut, CompileError> {
    forest.build(
        shared.gaifman,
        d_set.iter().map(|&c| classes[c as usize].as_slice()),
        colors,
        d_set,
    );
    if forest.preorder.is_empty() {
        forest.reset();
        return Ok(DsetOut {
            num_subsets: 0,
            shapes_instantiated: 0,
            forest_depth: 0,
            term_units: Vec::new(),
        });
    }
    let depth = forest.max_depth;
    if depth > shared.opts.depth_cap {
        forest.reset();
        return Err(CompileError::DepthCapExceeded {
            depth,
            cap: shared.opts.depth_cap,
        });
    }
    let mut out = DsetOut {
        num_subsets: 1,
        shapes_instantiated: 0,
        forest_depth: depth,
        term_units: Vec::new(),
    };
    ctx.begin_dset();
    for (ti, dt) in shared.dterms.iter().enumerate() {
        if dt.k < d_set.len() || dt.k == 0 {
            continue;
        }
        let mut emit = Emit::new();
        let tops = match instantiate_term(
            shared,
            forest,
            depth as u8,
            d_set,
            ti,
            dt,
            &mut emit,
            ctx,
            &mut out.shapes_instantiated,
        ) {
            Ok(t) => t,
            Err(e) => {
                forest.reset();
                return Err(e);
            }
        };
        let (gates, children) = emit.builder.into_raw_parts();
        out.term_units.push(TermUnit {
            ti,
            gates,
            children,
            slots: emit.slots,
            tops,
        });
    }
    forest.reset();
    Ok(out)
}

/// Instantiate one (color set, term) unit into `emit`: every surjective
/// coloring × compatible shape. Returns the non-zero top gates.
#[allow(clippy::too_many_arguments)]
fn instantiate_term<S: Semiring>(
    shared: &Shared<'_, S>,
    forest: &SubForest,
    depth: u8,
    d_set: &[u32],
    ti: usize,
    dt: &DistinctTerm<S>,
    emit: &mut Emit,
    ctx: &mut InstCtx,
    shapes_instantiated: &mut usize,
) -> Result<Vec<GateId>, CompileError> {
    let plans = shared.plans_for(ti, dt, depth)?;
    if plans.is_empty() {
        return Ok(Vec::new());
    }
    ctx.begin_unit();
    let mut c_assign = vec![0u32; dt.k];
    let mut tops: Vec<GateId> = Vec::new();
    surjections(dt.k, d_set, &mut c_assign, 0, &mut |c_assign| {
        for (shape, plan) in plans.iter() {
            if shape.max_depth() as u32 > depth as u32 {
                continue;
            }
            *shapes_instantiated += 1;
            let g = instantiate(shared, emit, ctx, forest, shape, plan, c_assign, d_set);
            if !emit.builder.is_zero(g) {
                tops.push(g);
            }
        }
    });
    Ok(tops)
}

/// Replay one unit's gate stream into the main emitter, re-interning
/// slots. Returns the remapped top gates.
///
/// Because a unit-local builder made exactly the peephole decisions the
/// main builder would (structural zero/one status is preserved by the
/// remap), and the main builder's intern tables answer every request the
/// local tables answered, replaying through the ordinary builder API
/// appends exactly the gates the sequential compiler would have appended
/// — this is what makes the parallel output byte-identical.
fn merge_term_unit(emit: &mut Emit, unit: &TermUnit) -> Vec<GateId> {
    let mut map: Vec<GateId> = Vec::with_capacity(unit.gates.len());
    let mut kid_buf: Vec<GateId> = Vec::new();
    for g in &unit.gates {
        let gid = match g {
            GateDef::Input(local_slot) => emit.input(unit.slots.key(*local_slot)),
            GateDef::Const(ConstRef::Zero) => emit.builder.zero(),
            GateDef::Const(ConstRef::One) => emit.builder.one(),
            GateDef::Const(ConstRef::Lit(_)) => {
                unreachable!("literal gates only exist in the main builder")
            }
            GateDef::Add(r) => {
                kid_buf.clear();
                kid_buf.extend(unit.children(*r).iter().map(|c| map[c.0 as usize]));
                emit.builder.add(&kid_buf)
            }
            GateDef::Mul(x, y) => {
                let (x, y) = (map[x.0 as usize], map[y.0 as usize]);
                emit.builder.mul(x, y)
            }
            GateDef::Perm { rows, cols } => {
                let flat: Vec<GateId> = unit
                    .children(*cols)
                    .iter()
                    .map(|c| map[c.0 as usize])
                    .collect();
                emit.builder.perm_flat(*rows as usize, flat)
            }
        };
        map.push(gid);
    }
    unit.tops.iter().map(|g| map[g.0 as usize]).collect()
}

/// The surviving forest positions of a leaf guard under one color: the
/// (depth, color) bucket filtered by the leaf's atom checks and weight
/// support conditions. Computed once per (guard, color) per color set and
/// shared across every surjection, shape, and term — the fix for the
/// super-linear re-scan where every instantiation re-checked every node.
#[allow(clippy::too_many_arguments)]
fn leaf_survivors<S: Semiring>(
    shared: &Shared<'_, S>,
    ctx: &mut InstCtx,
    forest: &SubForest,
    plan: &ShapePlan,
    t: usize,
    depth: usize,
    color: u32,
    d_set: &[u32],
) -> Arc<Vec<u32>> {
    let guard = plan.leaf_guard[t];
    if let Some(s) = ctx.survivors.get(&(guard, color)) {
        return s.clone();
    }
    let local = d_set
        .iter()
        .position(|&c| c == color)
        .expect("surjection colors come from the color set");
    let bucket = forest.bucket(depth, local, d_set.len());
    let mut out: Vec<u32> = Vec::new();
    let mut tuple_buf = std::mem::take(&mut ctx.tuple_buf);
    'nodes: for &pos in bucket {
        let u = forest.preorder[pos as usize];
        for check in &plan.checks[t] {
            resolve_tuple(forest, u, &check.arg_depths, &mut tuple_buf);
            if shared.opts.dynamic_atoms {
                // positive atoms over non-cliques can never hold; negative
                // ones hold vacuously (no input gate will be read)
                if check.positive && !shared.is_clique(&tuple_buf) {
                    continue 'nodes;
                }
            } else if shared.a.holds(check.rel, &tuple_buf) != check.positive {
                continue 'nodes;
            }
        }
        for read in &plan.reads[t] {
            if let WeightRead::Decl(_, depths) = read {
                if depths.len() >= 2 {
                    resolve_tuple(forest, u, depths, &mut tuple_buf);
                    let ok = if shared.opts.dynamic_atoms {
                        shared.is_clique(&tuple_buf)
                    } else {
                        shared.on_support(&tuple_buf)
                    };
                    if !ok {
                        continue 'nodes; // weight structurally zero
                    }
                }
            }
        }
        out.push(pos);
    }
    ctx.tuple_buf = tuple_buf;
    let out = Arc::new(out);
    ctx.survivors.insert((guard, color), out.clone());
    out
}

/// The (position, cell gate) list of a leaf program under one color,
/// cached per compilation unit: survivors never change within a color
/// set, and the factor gates a survivor produces are determined by
/// (program, node) alone — surjections only move which *bucket* a leaf
/// reads, so one list serves every (surjection, shape) pair of the unit.
#[allow(clippy::too_many_arguments)]
fn leaf_cells<S: Semiring>(
    shared: &Shared<'_, S>,
    emit: &mut Emit,
    ctx: &mut InstCtx,
    forest: &SubForest,
    plan: &ShapePlan,
    t: usize,
    depth: usize,
    color: u32,
    d_set: &[u32],
) -> LeafCells {
    let prog = plan.leaf_prog[t];
    if let Some(g) = ctx.leaf_gates.get(&(prog, color)) {
        return g.clone();
    }
    let survivors = leaf_survivors(shared, ctx, forest, plan, t, depth, color, d_set);
    let mut tuple_buf = std::mem::take(&mut ctx.tuple_buf);
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(survivors.len());
    for &pos in survivors.iter() {
        let u = forest.preorder[pos as usize];
        // Leaf cell = product of the node's factors (no child permanent).
        // Factor order matches the general instantiation path: checks
        // (dynamic mode only), then reads.
        let mut gate = emit.builder.one();
        if shared.opts.dynamic_atoms {
            for check in &plan.checks[t] {
                resolve_tuple(forest, u, &check.arg_depths, &mut tuple_buf);
                if !shared.is_clique(&tuple_buf) {
                    continue; // negative atom, vacuously true (see survivors)
                }
                let key = if check.positive {
                    SlotKey::AtomPos(check.rel, Tuple::new(&tuple_buf))
                } else {
                    SlotKey::AtomNeg(check.rel, Tuple::new(&tuple_buf))
                };
                let f = emit.input(key);
                gate = emit.builder.mul(gate, f);
            }
        }
        for read in &plan.reads[t] {
            let f = match read {
                WeightRead::Decl(w, depths) => {
                    resolve_tuple(forest, u, depths, &mut tuple_buf);
                    emit.input(SlotKey::Weight(*w, Tuple::new(&tuple_buf)))
                }
                WeightRead::Free(qpos) => emit.input(SlotKey::FreeVar(*qpos, u)),
            };
            gate = emit.builder.mul(gate, f);
        }
        out.push((pos, gate.0));
    }
    ctx.tuple_buf = tuple_buf;
    let out = Arc::new(out);
    ctx.leaf_gates.insert((prog, color), out.clone());
    out
}

/// The Lemma 29 recursion, bottom-up over the forest: a gate for every
/// (shape subtree, matching-depth forest node), permanent gates over the
/// forest children, and a top permanent over (shape roots × forest roots).
///
/// Leaf shape nodes are driven by the forest's (depth, color) buckets
/// through the [`InstCtx`] survivor/gate caches; internal shape nodes
/// visit only the parents of filled child cells. Per instantiation the
/// work is proportional to the cells that exist, not to the forest.
#[allow(clippy::too_many_arguments)]
fn instantiate<S: Semiring>(
    shared: &Shared<'_, S>,
    emit: &mut Emit,
    ctx: &mut InstCtx,
    forest: &SubForest,
    shape: &Shape,
    plan: &ShapePlan,
    c_assign: &[u32],
    d_set: &[u32],
) -> GateId {
    let m = forest.preorder.len();
    ctx.begin_inst(shape.len(), m);

    for d in (0..plan.nodes_by_depth.len()).rev() {
        for ni in 0..plan.nodes_by_depth[d].len() {
            let t = plan.nodes_by_depth[d][ni] as usize;
            let kids = &plan.children[t];
            if kids.is_empty() {
                // Leaf: pull the cached (position, gate) list.
                let var = shape.var_at[t].expect("leaves carry a variable");
                let color = c_assign[var as usize];
                let cells = leaf_cells(shared, emit, ctx, forest, plan, t, d, color, d_set);
                for &(pos, gate) in cells.iter() {
                    ctx.set_cell(t, m, pos as usize, gate);
                }
                continue;
            }

            // Internal node: candidate forest nodes are the parents of
            // positions filled for some child (dedup via stamps). The
            // candidate order is deterministic — child lists and their
            // fill order are.
            if ctx.cstamp == u32::MAX {
                ctx.cand_stamp.fill(0);
                ctx.cstamp = 0;
            }
            ctx.cstamp += 1;
            ctx.cand.clear();
            for &ct in kids {
                for fi in 0..ctx.filled[ct as usize].len() {
                    let cpos = ctx.filled[ct as usize][fi];
                    let cnode = forest.preorder[cpos as usize];
                    let parent = forest.parent[cnode as usize];
                    if parent == cnode {
                        continue; // forest root: no parent cell
                    }
                    let ppos = forest.pos[parent as usize];
                    if ctx.cand_stamp[ppos as usize] != ctx.cstamp {
                        ctx.cand_stamp[ppos as usize] = ctx.cstamp;
                        ctx.cand.push(ppos);
                    }
                }
            }

            let mut cand = std::mem::take(&mut ctx.cand);
            let mut tuple_buf = std::mem::take(&mut ctx.tuple_buf);
            'nodes: for &upos in &cand {
                let u = forest.preorder[upos as usize];
                debug_assert_eq!(forest.depth[u as usize] as usize, d);
                // color requirement at variable nodes
                if let Some(var) = shape.var_at[t] {
                    if shared.colors[u as usize] != c_assign[var as usize] {
                        continue 'nodes;
                    }
                }
                let mut factors: Vec<GateId> = Vec::new();
                // atoms decided at this node
                for check in &plan.checks[t] {
                    resolve_tuple(forest, u, &check.arg_depths, &mut tuple_buf);
                    if shared.opts.dynamic_atoms {
                        if !shared.is_clique(&tuple_buf) {
                            if check.positive {
                                continue 'nodes; // can never hold
                            }
                            continue; // ¬R always true here
                        }
                        let key = if check.positive {
                            SlotKey::AtomPos(check.rel, Tuple::new(&tuple_buf))
                        } else {
                            SlotKey::AtomNeg(check.rel, Tuple::new(&tuple_buf))
                        };
                        factors.push(emit.input(key));
                    } else if shared.a.holds(check.rel, &tuple_buf) != check.positive {
                        continue 'nodes;
                    }
                }
                // weight and indicator reads
                for read in &plan.reads[t] {
                    match read {
                        WeightRead::Decl(w, depths) => {
                            resolve_tuple(forest, u, depths, &mut tuple_buf);
                            if tuple_buf.len() >= 2 {
                                let ok = if shared.opts.dynamic_atoms {
                                    shared.is_clique(&tuple_buf)
                                } else {
                                    shared.on_support(&tuple_buf)
                                };
                                if !ok {
                                    continue 'nodes; // weight structurally zero
                                }
                            }
                            factors.push(emit.input(SlotKey::Weight(*w, Tuple::new(&tuple_buf))));
                        }
                        WeightRead::Free(qpos) => {
                            factors.push(emit.input(SlotKey::FreeVar(*qpos, u)));
                        }
                    }
                }
                // permanent over (child subtrees × forest children)
                let rows = kids.len();
                let mut flat: Vec<GateId> = Vec::new();
                for &child in forest.children[u as usize].iter() {
                    let cpos = forest.pos[child as usize] as usize;
                    // prune all-zero columns before touching the builder
                    if kids
                        .iter()
                        .all(|&ct| ctx.cell(ct as usize, m, cpos) == NO_GATE)
                    {
                        continue;
                    }
                    for &ct in kids {
                        let cell = ctx.cell(ct as usize, m, cpos);
                        flat.push(if cell == NO_GATE {
                            emit.builder.zero()
                        } else {
                            GateId(cell)
                        });
                    }
                }
                let mut gate = emit.builder.perm_flat(rows, flat);
                if emit.builder.is_zero(gate) {
                    continue 'nodes;
                }
                for f in factors {
                    gate = emit.builder.mul(gate, f);
                }
                if !emit.builder.is_zero(gate) {
                    ctx.set_cell(t, m, upos as usize, gate.0);
                }
            }
            ctx.tuple_buf = tuple_buf;
            cand.clear();
            ctx.cand = cand;
        }
    }

    // top level: shape roots over forest roots
    let rows = plan.roots.len();
    let mut flat: Vec<GateId> = Vec::new();
    for &root in &forest.roots {
        let rpos = forest.pos[root as usize] as usize;
        if plan
            .roots
            .iter()
            .all(|&rt| ctx.cell(rt as usize, m, rpos) == NO_GATE)
        {
            continue;
        }
        for &rt in &plan.roots {
            let cell = ctx.cell(rt as usize, m, rpos);
            flat.push(if cell == NO_GATE {
                emit.builder.zero()
            } else {
                GateId(cell)
            });
        }
    }
    emit.builder.perm_flat(rows, flat)
}

fn resolve_tuple(forest: &SubForest, u: u32, depths: &[u8], out: &mut Vec<Elem>) {
    out.clear();
    for &d in depths {
        out.push(forest.ancestor_at(u, d as u32));
    }
}

// ---------------------------------------------------------------------
// Reusable per-color-set DFS forest.
// ---------------------------------------------------------------------

/// DFS spanning forest of the subgraph induced by a set of color classes,
/// with buffers reused across color sets (resetting only touched nodes,
/// so one pass over a color set costs `O(|A_D| + edges(A_D))`, not `O(n)`).
struct SubForest {
    parent: Vec<u32>,
    depth: Vec<u32>,
    active: Vec<bool>,
    visited: Vec<bool>,
    children: Vec<Vec<u32>>,
    preorder: Vec<u32>,
    /// Position of each node in `preorder` (dense-table index).
    pos: Vec<u32>,
    roots: Vec<u32>,
    max_depth: u32,
    /// Preorder positions bucketed by `depth * |D| + local color index`
    /// (pooled `Vec`s, cleared on reset). Leaf shape nodes draw their
    /// candidates from here instead of scanning the preorder.
    buckets: Vec<Vec<u32>>,
    buckets_used: usize,
}

impl SubForest {
    fn new(n: usize) -> Self {
        SubForest {
            parent: (0..n as u32).collect(),
            depth: vec![0; n],
            active: vec![false; n],
            visited: vec![false; n],
            children: vec![Vec::new(); n],
            preorder: Vec::new(),
            pos: vec![0; n],
            roots: Vec::new(),
            max_depth: 0,
            buckets: Vec::new(),
            buckets_used: 0,
        }
    }

    /// Candidate positions for a leaf at `depth` colored with the
    /// `local`-th color of the color set.
    fn bucket(&self, depth: usize, local: usize, dlen: usize) -> &[u32] {
        let idx = depth * dlen + local;
        if idx < self.buckets_used {
            &self.buckets[idx]
        } else {
            &[]
        }
    }

    fn build<'b>(
        &mut self,
        g: &Graph,
        classes: impl Iterator<Item = &'b [u32]>,
        colors: &[u32],
        d_set: &[u32],
    ) {
        debug_assert!(self.preorder.is_empty(), "reset before rebuild");
        let mut members: Vec<u32> = Vec::new();
        for class in classes {
            for &v in class {
                self.active[v as usize] = true;
            }
            members.extend_from_slice(class);
        }
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for &start in &members {
            if self.visited[start as usize] {
                continue;
            }
            self.visited[start as usize] = true;
            self.parent[start as usize] = start;
            self.depth[start as usize] = 0;
            self.roots.push(start);
            self.pos[start as usize] = self.preorder.len() as u32;
            self.preorder.push(start);
            stack.push((start, 0));
            while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
                let nbrs = g.neighbors(v);
                let mut advanced = false;
                while *idx < nbrs.len() {
                    let w = nbrs[*idx];
                    *idx += 1;
                    if self.active[w as usize] && !self.visited[w as usize] {
                        self.visited[w as usize] = true;
                        self.parent[w as usize] = v;
                        self.depth[w as usize] = self.depth[v as usize] + 1;
                        self.max_depth = self.max_depth.max(self.depth[w as usize]);
                        self.children[v as usize].push(w);
                        self.pos[w as usize] = self.preorder.len() as u32;
                        self.preorder.push(w);
                        stack.push((w, 0));
                        advanced = true;
                        break;
                    }
                }
                if !advanced {
                    stack.pop();
                }
            }
        }
        // (depth, color) buckets over the finished preorder
        let dlen = d_set.len();
        let need = (self.max_depth as usize + 1) * dlen;
        if self.buckets.len() < need {
            self.buckets.resize_with(need, Vec::new);
        }
        self.buckets_used = need;
        for (pos, &v) in self.preorder.iter().enumerate() {
            let local = d_set
                .iter()
                .position(|&c| c == colors[v as usize])
                .expect("forest node colored outside its color set");
            self.buckets[self.depth[v as usize] as usize * dlen + local].push(pos as u32);
        }
    }

    fn reset(&mut self) {
        for &v in &self.preorder {
            self.parent[v as usize] = v;
            self.depth[v as usize] = 0;
            self.active[v as usize] = false;
            self.visited[v as usize] = false;
            self.children[v as usize].clear();
        }
        self.preorder.clear();
        self.roots.clear();
        self.max_depth = 0;
        for b in &mut self.buckets[..self.buckets_used] {
            b.clear();
        }
        self.buckets_used = 0;
    }

    /// Ancestor of `u` at absolute depth `d ≤ depth(u)`.
    fn ancestor_at(&self, u: u32, d: u32) -> u32 {
        let mut cur = u;
        let mut cd = self.depth[u as usize];
        debug_assert!(d <= cd);
        while cd > d {
            cur = self.parent[cur as usize];
            cd -= 1;
        }
        cur
    }
}
