//! Sparse-graph toolbox: system **S3** of the reproduction.
//!
//! The paper's algorithms never see the input database directly; they see
//! its *Gaifman graph* and exploit three structural tools available on
//! classes of bounded expansion:
//!
//! * **degeneracy orientations** (Lemma 37): every graph from a bounded
//!   expansion class is `d`-degenerate, and a greedy linear-time algorithm
//!   produces an acyclic orientation with out-degree ≤ `d`
//!   ([`degeneracy::degeneracy_orientation`]);
//! * **low-treedepth colorings** (Proposition 1, \[16\]): a vertex coloring
//!   such that any `p` color classes induce a subgraph of bounded
//!   treedepth ([`ltd::low_treedepth_coloring`], via transitive–fraternal
//!   augmentation);
//! * **DFS spanning forests** (Example 2): on a graph of treedepth `t`, a
//!   DFS forest has depth < 2^t and every edge connects an
//!   ancestor–descendant pair ([`dfs::dfs_forest`]) — the property that
//!   lets every binary atom be decided by a shape plus a unary label.
//!
//! [`generators`] provides the workload graphs for the experiment suite
//! (random sparse, bounded-degree, grids/planar-like, random forests).

pub mod degeneracy;
pub mod dfs;
pub mod generators;
#[allow(clippy::module_inception)]
pub mod graph;
pub mod ltd;
pub mod treedepth;

pub use degeneracy::{degeneracy_orientation, Orientation};
pub use dfs::{dfs_forest, Forest};
pub use graph::Graph;
pub use ltd::{low_treedepth_coloring, LtdColoring};
pub use treedepth::{certify_elimination_forest, treedepth_exact};
