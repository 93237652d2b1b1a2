//! # sparse-agg
//!
//! A complete Rust implementation of *Aggregate Queries on Sparse
//! Databases* (Szymon Toruńczyk, PODS 2020): semiring-weighted queries
//! compiled into circuits with permanent gates over bounded-expansion
//! databases, with
//!
//! * linear-time circuit compilation (Theorem 6),
//! * dynamic evaluation with `O(log n)` / `O(1)` updates (Theorem 8),
//! * provenance enumerators over the free semiring (Theorem 22),
//! * constant-delay, dynamic first-order answer enumeration (Theorem 24),
//! * nested multi-semiring queries `FOG[C]` (Theorem 26).
//!
//! This crate is a facade re-exporting the workspace members; see
//! `README.md` for a tour. The architecture is documented where it
//! lives — each member's module docs — and the durability and
//! fault-model invariants in `ROADMAP.md`.
//!
//! ## Quickstart
//!
//! ```
//! use sparse_agg::prelude::*;
//! use std::sync::Arc;
//!
//! // A directed graph with an edge cost, as a relational structure.
//! let mut sig = Signature::new();
//! let e = sig.add_relation("E", 2);
//! let cost = sig.add_weight("cost", 2);
//! let mut a = Structure::new(Arc::new(sig), 4);
//! for (u, v) in [(0, 1), (1, 2), (2, 0), (0, 3)] {
//!     a.insert(e, &[u, v]);
//! }
//!
//! // f = Σ_{x,y,z} [E(x,y) ∧ E(y,z) ∧ E(z,x)] — triangle count.
//! let (x, y, z) = (Var(0), Var(1), Var(2));
//! let f = Formula::Rel(e, vec![x, y])
//!     .and(Formula::Rel(e, vec![y, z]))
//!     .and(Formula::Rel(e, vec![z, x]));
//! let expr: Expr<Nat> = Expr::Bracket(f).sum_over([x, y, z]);
//!
//! let nf = normalize(&expr).unwrap();
//! let compiled = compile(&a, &nf, &CompileOptions::default()).unwrap();
//! let weights = WeightedStructure::<Nat>::new(Arc::new(a));
//! let engine = GeneralEngine::new(compiled, &weights);
//! // the directed 3-cycle is counted once per cyclic rotation of (x,y,z)
//! assert_eq!(*engine.value(), Nat(3));
//! # let _ = cost;
//! ```

pub use agq_baseline as baseline;
pub use agq_circuit as circuit;
pub use agq_core as core_engine;
pub use agq_enumerate as enumerate;
pub use agq_graph as graph;
pub use agq_logic as logic;
pub use agq_nested as nested;
pub use agq_perm as perm;
pub use agq_persist as persist;
pub use agq_semiring as semiring;
pub use agq_structure as structure;

/// One-stop imports for applications.
pub mod prelude {
    pub use agq_core::{
        compile, eliminate_quantifiers, CompileError, CompileOptions, FiniteEngine, GeneralEngine,
        QueryEngine, RingEngine,
    };
    pub use agq_enumerate::{AnswerIndex, ProvenanceIndex};
    pub use agq_logic::{normalize, parse_expr, parse_formula, Expr, Formula, Var};
    pub use agq_nested::{
        Connective, MultiWeights, NestedEvaluator, NestedFormula, SemiringTag, Value,
    };
    pub use agq_semiring::{
        Bool, Gen, Int, MaxF, MaxPlus, MinMax, MinPlus, Monomial, Nat, Poly, Rat, Ring, Semiring,
    };
    pub use agq_structure::{Signature, Structure, WeightedStructure};
}
