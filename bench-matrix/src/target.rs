//! The engines under test behind one trait, so every phase and oracle is
//! written once: the flat `EnumQueryEngine` (single owner, `&mut`) and
//! the `ShardedEngine` (shared, `&self`, the only one two clients can
//! drive at once).
//!
//! `build` is the one-call constructor a user calls. `build_traced`
//! reaches the same engine by calling the public pieces in the same
//! order with a span around each, which is how the traced run attributes
//! set-up time to layers without touching the crates.

use crate::trace::Recorder;
use agq_core::{
    compile, eliminate_quantifiers, CompileOptions, CompileReport, QueryEngine, TupleUpdate,
};
use agq_enumerate::{AnswerIndex, EnumQueryEngine, ShardedEngine};
use agq_logic::{normalize, Expr, Formula};
use agq_perm::SegTreePerm;
use agq_persist::{PersistValue, SaveStats};
use agq_semiring::{Nat, Semiring};
use agq_structure::gaifman::{gaifman_graph, GaifmanComponents};
use agq_structure::{Elem, Structure, WeightedStructure};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where one engine's artefacts live on disk.
pub struct Files {
    pub plan: PathBuf,
    pub snap: PathBuf,
    pub wal: PathBuf,
}

impl Files {
    pub fn in_dir(dir: &Path, tag: &str) -> Files {
        Files {
            plan: dir.join(format!("{tag}.agqplan")),
            snap: dir.join(format!("{tag}.agqsnap")),
            wal: dir.join(format!("{tag}.agqlog")),
        }
    }

    pub fn wal_bytes(&self) -> u64 {
        std::fs::metadata(&self.wal).map_or(0, |m| m.len())
    }
}

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

pub type FlatEngine<S> = EnumQueryEngine<S, SegTreePerm<S>>;

pub trait Target: Sized + Send {
    type Carrier: Semiring + PersistValue;
    const KIND: &'static str;
    /// Tuples per point-query call: the flat engine answers one tuple per
    /// `query`, the sharded engine a `query_batch` of 256.
    const QUERY_GROUP: usize;
    const SHARDS: usize;

    fn build(a: &Arc<Structure>, phi: &Formula, dynamic: bool) -> Res<Self>;
    fn build_traced(
        a: &Arc<Structure>,
        phi: &Formula,
        dynamic: bool,
        rec: &mut Recorder,
    ) -> Res<(Self, CompileReport)>;

    /// A second handle on the same engine for a second client thread
    /// (`None`: the engine is single-owner).
    fn fork(&self) -> Option<Self>;
    /// The flat engine inside, if this is one (the layer probes read its
    /// halves through `query_engine()` / `answer_index()`).
    fn flat_engine(&self) -> Option<&FlatEngine<Self::Carrier>>;

    /// `out[i] = tuples[i] is an answer`, by one call per `QUERY_GROUP`.
    fn query_group(&mut self, tuples: &[&[Elem]], out: &mut Vec<bool>);
    fn count(&self) -> u64;
    fn answer(&self, k: u64) -> Option<Vec<Elem>>;
    fn for_each_answer(&self, f: &mut dyn FnMut(&[Elem]));
    /// The first answer of a fresh enumeration.
    fn first_answer(&self) -> Option<Vec<Elem>>;
    fn apply_update(&mut self, u: &TupleUpdate) -> Res<()>;
    fn apply_batch(&mut self, us: &[TupleUpdate]) -> Res<()>;

    fn save_plan(&self, files: &Files) -> Res<u64>;
    fn save_snapshot(&self, files: &Files) -> Res<u64>;
    fn save(&self, files: &Files) -> Res<SaveStats> {
        Ok(SaveStats {
            plan_bytes: self.save_plan(files)?,
            snapshot_bytes: self.save_snapshot(files)?,
        })
    }
    fn attach_wal(&mut self, files: &Files) -> Res<()>;
    fn detach_wal(&mut self);
    /// Plan + snapshot only.
    fn load(files: &Files) -> Res<Self>;
    /// Plan + snapshot + WAL tail.
    fn recover(files: &Files) -> Res<Self>;
}

pub fn default_opts() -> CompileOptions {
    CompileOptions::default()
}

/// The point-query half of a build, piece by piece (`build_inner`'s
/// order): quantifier elimination, normal form, compile, plan. Gaifman
/// graph and colouring are computed inside `compile`; they are timed
/// separately on the same input so `compile`'s self time can be stated.
type PointSide<S> = (
    Arc<agq_core::CompiledQuery<S>>,
    Arc<agq_circuit::EvalPlan>,
    WeightedStructure<S>,
);

fn point_side_traced<S: Semiring>(
    a: &Arc<Structure>,
    phi: &Formula,
    dynamic: bool,
    rec: &mut Recorder,
) -> Res<PointSide<S>> {
    let mut copts = default_opts();
    copts.dynamic_atoms = dynamic;
    let expr: Expr<S> = Expr::Bracket(phi.clone());
    let (expr, a2) = rec
        .time("core.qe", 1, || eliminate_quantifiers(&expr, a, &copts))
        .map_err(err)?;
    let nf = rec
        .time("logic.normalize", 1, || normalize(&expr))
        .map_err(err)?;
    let g = rec.time("structure.gaifman_graph", 1, || gaifman_graph(&a2));
    // compile colours for the widest term's variable count
    let p = nf
        .terms
        .iter()
        .map(|t| t.mentioned_vars().len())
        .max()
        .unwrap_or(0)
        .max(1);
    let colors = rec.time("graph.ltd_coloring", 1, || {
        agq_graph::low_treedepth_coloring(&g, p).num_colors
    });
    let compiled = rec
        .time("core.compile", 1, || compile(&a2, &nf, &copts))
        .map_err(err)?;
    if compiled.report.num_colors != colors {
        return Err(format!(
            "colouring timed outside compile used {colors} colours, compile used {}",
            compiled.report.num_colors
        ));
    }
    let compiled = Arc::new(compiled);
    let plan = Arc::new(rec.time("circuit.plan_build", 1, || {
        QueryEngine::<S, SegTreePerm<S>>::build_plan(&compiled)
    }));
    Ok((compiled, plan, WeightedStructure::new(a2)))
}

fn index_traced(
    a: &Structure,
    phi: &Formula,
    dynamic: bool,
    rec: &mut Recorder,
) -> Res<AnswerIndex> {
    let opts = default_opts();
    rec.time("enumerate.index_build", 1, || {
        if dynamic {
            AnswerIndex::build_dynamic(a, phi, &opts)
        } else {
            AnswerIndex::build(a, phi, &opts)
        }
    })
    .map_err(err)
}

// ---------------------------------------------------------------------
// flat
// ---------------------------------------------------------------------

pub struct Flat<S: Semiring> {
    pub eng: FlatEngine<S>,
}

impl<S: Semiring + PersistValue> Target for Flat<S> {
    type Carrier = S;
    const KIND: &'static str = "flat";
    const QUERY_GROUP: usize = 1;
    const SHARDS: usize = 1;

    fn build(a: &Arc<Structure>, phi: &Formula, dynamic: bool) -> Res<Self> {
        let opts = default_opts();
        let eng = if dynamic {
            EnumQueryEngine::build_dynamic(a, phi, &opts)
        } else {
            EnumQueryEngine::build(a, phi, &opts)
        };
        Ok(Flat {
            eng: eng.map_err(err)?,
        })
    }

    fn build_traced(
        a: &Arc<Structure>,
        phi: &Formula,
        dynamic: bool,
        rec: &mut Recorder,
    ) -> Res<(Self, CompileReport)> {
        rec.scope("build", |rec| {
            let (compiled, plan, weights) = point_side_traced::<S>(a, phi, dynamic, rec)?;
            let report = compiled.report.clone();
            let qe = rec.time("core.state_init", 1, || {
                QueryEngine::from_parts(compiled, plan, &weights)
            });
            let index = index_traced(a, phi, dynamic, rec)?;
            let eng = EnumQueryEngine::from_parts(qe, index, 0);
            Ok((Flat { eng }, report))
        })
    }

    fn fork(&self) -> Option<Self> {
        None
    }

    fn flat_engine(&self) -> Option<&FlatEngine<S>> {
        Some(&self.eng)
    }

    fn query_group(&mut self, tuples: &[&[Elem]], out: &mut Vec<bool>) {
        for t in tuples {
            out.push(self.eng.query(t).is_one());
        }
    }

    fn count(&self) -> u64 {
        self.eng.count()
    }

    fn answer(&self, k: u64) -> Option<Vec<Elem>> {
        self.eng.answer(k)
    }

    fn for_each_answer(&self, f: &mut dyn FnMut(&[Elem])) {
        let mut it = self.eng.enumerate();
        while let Some(t) = it.next() {
            f(&t);
        }
    }

    fn first_answer(&self) -> Option<Vec<Elem>> {
        self.eng.enumerate().next()
    }

    fn apply_update(&mut self, u: &TupleUpdate) -> Res<()> {
        self.eng.apply_update(u).map_err(err)
    }

    fn apply_batch(&mut self, us: &[TupleUpdate]) -> Res<()> {
        self.eng.apply_batch(us).map(drop).map_err(err)
    }

    fn save_plan(&self, f: &Files) -> Res<u64> {
        agq_persist::save_plan(&self.eng, &f.plan).map_err(err)
    }

    fn save_snapshot(&self, f: &Files) -> Res<u64> {
        agq_persist::save_snapshot(&self.eng, &f.snap).map_err(err)
    }

    fn attach_wal(&mut self, f: &Files) -> Res<()> {
        agq_persist::attach_file_wal(&mut self.eng, &f.wal)
            .map(drop)
            .map_err(err)
    }

    fn detach_wal(&mut self) {
        self.eng.detach_wal();
    }

    fn load(f: &Files) -> Res<Self> {
        let eng = agq_persist::load_engine(&f.plan, &f.snap).map_err(err)?;
        Ok(Flat { eng })
    }

    fn recover(f: &Files) -> Res<Self> {
        let (eng, _) = agq_persist::recover_engine(&f.plan, &f.snap, &f.wal).map_err(err)?;
        Ok(Flat { eng })
    }
}

// ---------------------------------------------------------------------
// sharded
// ---------------------------------------------------------------------

pub const SHARDS: usize = 2;

#[derive(Clone)]
pub struct Sharded {
    pub eng: Arc<ShardedEngine<Nat, SegTreePerm<Nat>>>,
}

impl Target for Sharded {
    type Carrier = Nat;
    const KIND: &'static str = "sharded";
    const QUERY_GROUP: usize = 256;
    const SHARDS: usize = SHARDS;

    fn build(a: &Arc<Structure>, phi: &Formula, _dynamic: bool) -> Res<Self> {
        let eng = ShardedEngine::build(a, phi, &default_opts(), SHARDS).map_err(err)?;
        Ok(Sharded { eng: Arc::new(eng) })
    }

    fn build_traced(
        a: &Arc<Structure>,
        phi: &Formula,
        _dynamic: bool,
        rec: &mut Recorder,
    ) -> Res<(Self, CompileReport)> {
        rec.scope("build", |rec| {
            let local = phi.answers_component_local();
            let components = rec.time("structure.components", 1, || {
                GaifmanComponents::new(a, if local { SHARDS } else { 1 })
            });
            let (compiled, plan, weights) = point_side_traced::<Nat>(a, phi, true, rec)?;
            let report = compiled.report.clone();
            let base = index_traced(a, phi, true, rec)?;
            let n = components.num_shards();
            let states: Vec<_> = (0..n as u32)
                .map(|s| {
                    let qe = rec.time("core.state_init", 1, || {
                        QueryEngine::from_parts(compiled.clone(), plan.clone(), &weights)
                    });
                    let index = rec.time("enumerate.shard_filtered", 1, || {
                        base.shard_filtered(|e| components.shard_of(e) == s)
                    });
                    (qe, index)
                })
                .collect();
            let eng = ShardedEngine::from_saved_parts(components, local, base.arity(), states, 0)?;
            Ok((Sharded { eng: Arc::new(eng) }, report))
        })
    }

    fn fork(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn flat_engine(&self) -> Option<&FlatEngine<Nat>> {
        None
    }

    fn query_group(&mut self, tuples: &[&[Elem]], out: &mut Vec<bool>) {
        out.extend(self.eng.query_batch(tuples).iter().map(Semiring::is_one));
    }

    fn count(&self) -> u64 {
        self.eng.count()
    }

    fn answer(&self, k: u64) -> Option<Vec<Elem>> {
        self.eng.answer(k)
    }

    fn for_each_answer(&self, f: &mut dyn FnMut(&[Elem])) {
        self.eng.for_each_answer(f);
    }

    fn first_answer(&self) -> Option<Vec<Elem>> {
        // straight off the shards' cursors: a rank lookup would build the
        // count side as a side effect
        (0..self.eng.num_shards()).find_map(|s| self.eng.with_shard(s, |_, ix| ix.iter().next()))
    }

    fn apply_update(&mut self, u: &TupleUpdate) -> Res<()> {
        self.eng.apply_update(u).map_err(err)
    }

    fn apply_batch(&mut self, us: &[TupleUpdate]) -> Res<()> {
        self.eng.apply_batch(us).map(drop).map_err(err)
    }

    fn save_plan(&self, f: &Files) -> Res<u64> {
        agq_persist::save_sharded_plan(&self.eng, &f.plan).map_err(err)
    }

    fn save_snapshot(&self, f: &Files) -> Res<u64> {
        agq_persist::save_sharded_snapshot(&self.eng, &f.snap).map_err(err)
    }

    fn attach_wal(&mut self, f: &Files) -> Res<()> {
        agq_persist::attach_sharded_file_wal(&self.eng, &f.wal)
            .map(drop)
            .map_err(err)
    }

    fn detach_wal(&mut self) {
        self.eng.detach_wal();
    }

    fn load(f: &Files) -> Res<Self> {
        let eng = agq_persist::load_sharded(&f.plan, &f.snap).map_err(err)?;
        Ok(Sharded { eng: Arc::new(eng) })
    }

    fn recover(f: &Files) -> Res<Self> {
        let (eng, _) = agq_persist::recover_sharded(&f.plan, &f.snap, &f.wal).map_err(err)?;
        Ok(Sharded { eng: Arc::new(eng) })
    }
}
