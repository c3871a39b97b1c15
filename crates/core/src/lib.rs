//! # slade-core — Smart Large-scAle task DEcomposer
//!
//! A from-scratch implementation of the SLADE crowdsourcing task-decomposition
//! system (Tong, Chen, Zhou, Jagadish, Shou, Lv — IEEE TKDE 30(8), 2018).
//!
//! ## Problem
//!
//! A large-scale crowdsourcing task is a set of `n` *atomic tasks* (binary
//! questions). Atomic tasks are packed into *task bins*: an `l`-cardinality
//! bin holds up to `l` distinct atomic tasks, gives each a per-task confidence
//! `r_l`, and costs `c_l` to post. A task assigned to several bins succeeds if
//! *any* of them answers it correctly, so its *reliability* is
//! `1 - Π (1 - r)`. SLADE finds a multiset of bins plus a task→bin assignment
//! of minimum total cost such that every atomic task `a_i` reaches its
//! reliability threshold `t_i`. The problem is NP-hard (reduction from
//! Unbounded Knapsack; see [`hardness`]).
//!
//! ## Solvers
//!
//! | Solver | Paper | Scope | Guarantee |
//! |--------|-------|-------|-----------|
//! | [`greedy::Greedy`] | Algorithm 1 | homo + hetero | none (heuristic) |
//! | [`opq_based::OpqBased`] | Algorithms 2–3 | homogeneous | `log n`-approx |
//! | [`hetero::OpqExtended`] | Algorithms 4–5 | homo + hetero | `2⌈log(θmax/θmin)⌉ log n`-approx |
//! | [`baseline::Baseline`] | §4.3 (CIP + LP rounding) | homo + hetero | `O(log n)` w.h.p. |
//! | [`relaxed::solve_relaxed`] | §4.2 rod-cutting DP | all `r_l ≥ t_max` | exact, `O(nm)` |
//! | [`exact::ExactSolver`] | — (validation) | tiny instances | exact |
//!
//! ## Quickstart
//!
//! ```
//! use slade_core::prelude::*;
//!
//! // Table 1 of the paper: bins of cardinality 1..=3.
//! let bins = BinSet::paper_example();
//! // Four atomic tasks, every one requiring reliability >= 0.95.
//! let workload = Workload::homogeneous(4, 0.95).unwrap();
//!
//! let plan = OpqBased::default().solve(&workload, &bins).unwrap();
//! let audit = plan.validate(&workload, &bins).unwrap();
//! assert!(audit.feasible);
//! assert!((plan.total_cost() - 0.68).abs() < 1e-9); // Example 9 of the paper
//! ```

pub mod baseline;
pub mod bin_set;
pub mod error;
pub mod exact;
pub mod fingerprint;
pub mod greedy;
pub mod hardness;
pub mod hetero;
pub mod opq;
pub mod opq_based;
pub mod plan;
pub mod relaxed;
pub mod reliability;
pub mod solver;
pub mod task;

/// Convenience re-exports of the most commonly used items. Every solver
/// implements the one [`PreparedSolver`] trait, so importing the prelude
/// brings both the one-shot `solve` and the two-phase
/// `prepare`/`solve_with` pipeline into scope.
pub mod prelude {
    pub use crate::baseline::{Baseline, BaselineConfig};
    pub use crate::bin_set::{BinSet, TaskBin};
    pub use crate::error::SladeError;
    pub use crate::exact::ExactSolver;
    pub use crate::fingerprint::{Fingerprint, KnobSink};
    pub use crate::greedy::Greedy;
    pub use crate::hetero::OpqExtended;
    pub use crate::opq::OptimalPriorityQueue;
    pub use crate::opq_based::OpqBased;
    pub use crate::plan::{DecompositionPlan, PlanAudit};
    pub use crate::solver::{Algorithm, PreparedSolver, SolveArtifacts};
    pub use crate::task::{TaskId, Workload};
}

pub use prelude::*;
