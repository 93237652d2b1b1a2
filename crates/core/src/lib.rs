//! The Theorem 6 compiler and Theorem 8 evaluator: system **S7**, the
//! paper's primary contribution.
//!
//! Given a weighted `Σ(w)`-expression `f` and a structure `A` whose
//! Gaifman graph comes from a class of bounded expansion, [`compile`]
//! produces a circuit with permanent gates that evaluates `f_A(w)` for
//! *any* weight assignment, in any semiring — Theorem 6. The circuit has
//! size `O_{f,C}(|A|)`, bounded depth, bounded fan-out, and a bounded
//! number of permanent rows; all of these are measured by
//! [`agq_circuit::CircuitStats`] and checked in the experiment suite.
//!
//! The pipeline (Section A of the paper's appendix; where the
//! engineering departs from it, the step says so):
//!
//! 1. **Normalization** (Lemma 28, in `agq-logic`): the expression becomes
//!    a combination of sum terms `c · Σ_x̄ Π[lit] · Πw(x̄)`.
//! 2. **Guarded quantifier elimination** ([`eliminate_quantifiers`]):
//!    quantified subformulas with ≤ 1 free variable are materialized as
//!    fresh unary predicates using the Boolean-semiring evaluator — our
//!    documented substitute for the imported Theorem 3.
//! 3. **Distinctness expansion**: each term is split over partitions of
//!    its variables (the `[x=y] + [x≠y]` partition of unity of Lemma 32),
//!    leaving terms whose variables denote pairwise distinct elements.
//! 4. **Low-treedepth coloring** (Proposition 1, in `agq-graph`) and the
//!    color-set decomposition `f = Σ_{D, c surjective} f_{D,c}`
//!    (identity (12)–(13)).
//! 5. **Shapes** (Lemma 32): ancestor-merge patterns of the variables in
//!    a DFS forest of `G[D]`. Every atom of a term is *decided against the
//!    shape*: a DFS forest makes all Gaifman-adjacent pairs
//!    ancestor-comparable, so an atom either contradicts the shape
//!    (incomparable positive atom ⇒ prune), holds vacuously
//!    (incomparable negative atom), or becomes a lookup at one forest
//!    node and its ancestors. This replaces the paper's Lemma 37
//!    rewriting without changing the computed function.
//! 6. **Circuit instantiation** (Lemma 29 / Claim 1): one permanent gate
//!    per (shape subtree, forest node), columns indexed by forest
//!    children, recursively — the inductive `f = Σ_β Π_r λ_r(β(r)) ·
//!    f^r_{A_{β(r)}}` of the paper.
//!
//! [`QueryEngine`] wraps the compiled circuit with the dynamic evaluator
//! of Theorem 8: free-variable queries by the `v_i`-weight trick,
//! `O(log |A|)` updates for general semirings, `O(1)` for rings and
//! finite semirings.

mod batch;
mod compile;
mod engine;
pub mod fault;
mod journal;
mod qe;
mod shape;
mod slots;
mod term;

pub use batch::{coalesce_updates, FxBuildHasher, FxHashSet, FxHasher};
pub use compile::{compile, compile_query, CompileOptions, CompileReport, CompiledQuery};
pub use engine::{FiniteEngine, GeneralEngine, PartsError, QueryEngine, RingEngine, TupleUpdate};
pub use journal::{DurabilityPolicy, Journal, WalFailure, WalSink};
pub use qe::eliminate_quantifiers;
pub use shape::{enumerate_shapes, Shape};
pub use slots::{AtomSlots, SlotKey, SlotRegistry};
pub use term::DistinctTerm;

use std::fmt;

/// Worker threads worth spawning. `std::thread::available_parallelism()`
/// re-reads cgroup limits from the filesystem on every call (~10µs on
/// Linux) — far too slow for per-batch dispatch decisions — so it is
/// resolved once per process.
pub fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Errors surfaced by compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The DFS forest of some color set is deeper than
    /// [`CompileOptions::depth_cap`]: the input is outside the sparsity
    /// regime the theory promises (or the coloring was unlucky).
    DepthCapExceeded {
        /// The offending depth.
        depth: u32,
        /// The configured cap.
        cap: u32,
    },
    /// Shape enumeration exceeded [`CompileOptions::max_shapes`].
    TooManyShapes {
        /// The configured cap.
        cap: usize,
    },
    /// The coloring leaves more color sets of at most `p` colors (`p` the
    /// most variables of a term) than the compiler enumerates; refused
    /// before any set is allocated.
    TooManyColorSets {
        /// `Σ_{1 ≤ i ≤ p} C(colors, i)`, saturating.
        sets: usize,
        /// The fixed cap on color sets.
        cap: usize,
    },
    /// A quantified subformula could not be eliminated: it has more than
    /// one free variable (outside the guarded fragment we support in
    /// place of the imported Theorem 3).
    UnsupportedQuantifier {
        /// Rendering of the offending subformula.
        formula: String,
    },
    /// Expression normalization failed.
    Normalize(agq_logic::NormalizeError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::DepthCapExceeded { depth, cap } => write!(
                f,
                "DFS forest depth {depth} exceeds the cap {cap}: input is \
                 not sparse enough for the configured class parameters"
            ),
            CompileError::TooManyShapes { cap } => {
                write!(f, "shape enumeration exceeded the cap of {cap} shapes")
            }
            CompileError::TooManyColorSets { sets, cap } => write!(
                f,
                "{sets} color sets exceed the cap of {cap}: the coloring has \
                 too many colors for the query's variable count"
            ),
            CompileError::UnsupportedQuantifier { formula } => write!(
                f,
                "cannot eliminate quantifier with ≥2 free variables: {formula}"
            ),
            CompileError::Normalize(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<agq_logic::NormalizeError> for CompileError {
    fn from(e: agq_logic::NormalizeError) -> Self {
        CompileError::Normalize(e)
    }
}
