//! The common solver interface and the algorithm registry.
//!
//! Every decomposition algorithm in this crate implements the one
//! [`PreparedSolver`] trait; [`Algorithm`] is the closed enumeration used to
//! select one by name (CLI flags, benchmark sweeps, config files).
//!
//! ## The two-phase pipeline
//!
//! Most of a solver's work is a function of `(BinSet, θ)` alone, not of the
//! workload size `n`: OPQ enumeration, the group DP, the greedy's
//! cost-effectiveness ladder. Besides the one-shot
//! [`solve`](PreparedSolver::solve), the trait splits every solver
//! accordingly:
//!
//! * [`prepare`](PreparedSolver::prepare) runs the instance-independent part
//!   once and returns shareable [`SolveArtifacts`] behind an `Arc`;
//! * [`solve_with`](PreparedSolver::solve_with) plans one workload from
//!   those artifacts, **byte-identically** to what the one-shot
//!   [`solve`](PreparedSolver::solve) would produce — the invariant
//!   every implementation pins in tests;
//! * [`fingerprint_knobs`](PreparedSolver::fingerprint_knobs) reports the
//!   configuration values that shape the artifacts, so cache keys
//!   ([`Fingerprint`](crate::fingerprint::Fingerprint)) are derived from the
//!   same impl that builds the artifacts and can never drift from it.
//!
//! Solvers whose work has no reusable prefix ([`ExactSolver`], [`Relaxed`],
//! [`Baseline`]) fall back to the trait's trivial pass-through defaults, and
//! so does [`OpqExtended`]: its reusable work is per threshold bucket, and
//! `slade-engine` reaches it by splitting a request into per-bucket
//! [`OpqBased`] shards, which prepare and cache on their own. The
//! [`Baseline`]'s covering program is shaped by the workload, so nothing of
//! it can be prepared ahead (DESIGN.md keeps dual-priced column generation,
//! which could, as an open seam).

use crate::baseline::Baseline;
use crate::bin_set::BinSet;
use crate::error::SladeError;
use crate::exact::ExactSolver;
use crate::fingerprint::KnobSink;
use crate::greedy::Greedy;
use crate::hetero::OpqExtended;
use crate::opq_based::OpqBased;
use crate::plan::DecompositionPlan;
use crate::relaxed::Relaxed;
use crate::task::Workload;
use std::any::Any;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Workload-independent state computed by [`PreparedSolver::prepare`] for
/// one `(BinSet, θ)` pair, shared across solves behind an `Arc`.
///
/// Implementations are plain owned data (`Send + Sync`) so caches can hand
/// them to worker threads; `as_any` lets each solver's `solve_with` downcast
/// back to its own concrete artifact type.
pub trait SolveArtifacts: Any + Send + Sync + fmt::Debug {
    /// The transformed threshold the artifacts were prepared for.
    fn theta(&self) -> f64;

    /// The artifacts as [`Any`], for solver-side downcasting.
    fn as_any(&self) -> &dyn Any;

    /// Whether caching these artifacts buys anything. Pass-through solvers
    /// return `false` so caches need not spend entries on empty state.
    fn cacheable(&self) -> bool {
        true
    }
}

/// The artifacts of a solver with no reusable prepare step: just the θ the
/// prepare was asked for. Returned by [`PreparedSolver::prepare`]'s default
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassThroughArtifacts {
    theta: f64,
}

impl PassThroughArtifacts {
    /// Pass-through artifacts for transformed threshold `theta`.
    pub fn new(theta: f64) -> Self {
        PassThroughArtifacts { theta }
    }
}

impl SolveArtifacts for PassThroughArtifacts {
    fn theta(&self) -> f64 {
        self.theta
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn cacheable(&self) -> bool {
        false
    }
}

/// Downcasts `artifacts` to the concrete type `solver` expects, or reports
/// an [`SladeError::ArtifactMismatch`] naming both sides.
pub fn expect_artifacts<'a, T: SolveArtifacts>(
    solver: &'static str,
    artifacts: &'a dyn SolveArtifacts,
) -> Result<&'a T, SladeError> {
    artifacts
        .as_any()
        .downcast_ref::<T>()
        .ok_or_else(|| SladeError::ArtifactMismatch {
            solver,
            // Deliberately NOT `{artifacts:?}`: an OPQ artifact set debugs
            // to its full pool and DP tables — far too much for an error.
            detail: format!(
                "expected {}, got foreign artifacts prepared for θ = {}",
                std::any::type_name::<T>(),
                artifacts.theta()
            ),
        })
}

/// A task-decomposition algorithm: turns an instance into a
/// [`DecompositionPlan`], in one shot or through the two-phase pipeline (an
/// instance-independent `prepare` step producing shareable
/// [`SolveArtifacts`], plus a per-workload `solve_with` step). See the
/// module docs for the contract; the defaults implement the trivial
/// pass-through used by solvers without a reusable prefix.
///
/// Implementations must be deterministic for a fixed configuration (the
/// randomized [`Baseline`] carries its seed in its config) and must return
/// plans that pass [`DecompositionPlan::validate`] structurally; feasibility
/// of the result is part of each solver's contract and is asserted by the
/// crate's tests.
pub trait PreparedSolver {
    /// Stable, human-readable solver name (also stamped on produced plans).
    fn name(&self) -> &'static str;

    /// Whether per-task thresholds are supported; solvers returning `false`
    /// answer heterogeneous workloads with
    /// [`SladeError::HeterogeneousUnsupported`].
    fn supports_heterogeneous(&self) -> bool {
        true
    }

    /// Decomposes `workload` over the bin menu `bins`.
    fn solve(&self, workload: &Workload, bins: &BinSet) -> Result<DecompositionPlan, SladeError>;

    /// Computes the workload-independent artifacts for `bins` at transformed
    /// threshold `theta` — the expensive part of
    /// [`solve`](PreparedSolver::solve) that repeated `(BinSet, θ)`
    /// pairs should pay only once.
    fn prepare(&self, bins: &BinSet, theta: f64) -> Result<Arc<dyn SolveArtifacts>, SladeError> {
        let _ = bins;
        Ok(Arc::new(PassThroughArtifacts::new(theta)))
    }

    /// Plans `workload` from artifacts this solver's
    /// [`prepare`](PreparedSolver::prepare) produced (on the same
    /// configuration, bin set, and a compatible θ — the caller's contract,
    /// policed by downcast/θ checks where it matters).
    ///
    /// **Identity invariant:** the plan is byte-identical to what
    /// [`solve`](PreparedSolver::solve) returns for the same inputs.
    fn solve_with(
        &self,
        artifacts: &dyn SolveArtifacts,
        workload: &Workload,
        bins: &BinSet,
    ) -> Result<DecompositionPlan, SladeError> {
        expect_artifacts::<PassThroughArtifacts>(self.name(), artifacts)?;
        self.solve(workload, bins)
    }

    /// Writes every configuration knob that shapes this solver's artifacts
    /// into `sink` (and nothing that only shapes the per-workload solve
    /// step, e.g. rounding seeds). Cache keys hash these words, so the key
    /// material is defined by the same impl that builds the artifacts.
    fn fingerprint_knobs(&self, sink: &mut KnobSink) {
        let _ = sink;
    }
}

/// The closed set of algorithms shipped by this crate, with their
/// default configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 1 — cost-effectiveness greedy heuristic.
    Greedy,
    /// Algorithms 2–3 — OPQ-Based solver (homogeneous only).
    OpqBased,
    /// Algorithms 4–5 — OPQ-Extended solver (threshold bucketing).
    OpqExtended,
    /// §4.3 — covering-integer-program baseline (LP + randomized rounding).
    Baseline,
    /// §4.2 — rod-cutting dynamic program for relaxed instances.
    Relaxed,
    /// Brute-force branch-and-bound for tiny validation instances.
    Exact,
}

impl Algorithm {
    /// All algorithms, in documentation order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Greedy,
        Algorithm::OpqBased,
        Algorithm::OpqExtended,
        Algorithm::Baseline,
        Algorithm::Relaxed,
        Algorithm::Exact,
    ];

    /// The canonical (kebab-case) name, accepted back by [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Greedy => "greedy",
            Algorithm::OpqBased => "opq-based",
            Algorithm::OpqExtended => "opq-extended",
            Algorithm::Baseline => "baseline",
            Algorithm::Relaxed => "relaxed",
            Algorithm::Exact => "exact",
        }
    }

    /// Instantiates the algorithm with its default configuration.
    ///
    /// The box is `Send + Sync`: every solver is plain configuration data,
    /// so instances can be shared with or moved across worker threads (the
    /// `slade-engine` service relies on this). A [`PreparedSolver`] offers
    /// both the one-shot `solve` and the two-phase `prepare`/`solve_with`
    /// pipeline.
    pub fn solver(self) -> Box<dyn PreparedSolver + Send + Sync> {
        match self {
            Algorithm::Greedy => Box::new(Greedy),
            Algorithm::OpqBased => Box::new(OpqBased::default()),
            Algorithm::OpqExtended => Box::new(OpqExtended::default()),
            Algorithm::Baseline => Box::new(Baseline::default()),
            Algorithm::Relaxed => Box::new(Relaxed),
            Algorithm::Exact => Box::new(ExactSolver::default()),
        }
    }

    /// Convenience: solve with the default configuration.
    pub fn solve(
        self,
        workload: &Workload,
        bins: &BinSet,
    ) -> Result<DecompositionPlan, SladeError> {
        self.solver().solve(workload, bins)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown algorithm name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithm(pub String);

impl fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The valid names are derived from Algorithm::ALL so this message
        // can never drift from the registry (names are case-insensitive and
        // `_` is accepted for `-`).
        write!(f, "unknown algorithm `{}`; expected one of: ", self.0)?;
        for (i, a) in Algorithm::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(a.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownAlgorithm {}

impl FromStr for Algorithm {
    type Err = UnknownAlgorithm;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.trim().to_ascii_lowercase().replace('_', "-");
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == normalized)
            .ok_or_else(|| UnknownAlgorithm(s.to_string()))
    }
}

// Thread-safety audit: the engine shards solves across worker threads, so
// every type that crosses a thread boundary — solver configurations, the
// data model, plans, and the cacheable artifacts — must be `Send + Sync`.
// These are compile-time assertions; they cost nothing at runtime and break
// the build if a future field (an `Rc`, a raw pointer, a `RefCell`) ever
// removes the auto impls.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Greedy>();
    assert_send_sync::<OpqBased>();
    assert_send_sync::<OpqExtended>();
    assert_send_sync::<Baseline>();
    assert_send_sync::<Relaxed>();
    assert_send_sync::<ExactSolver>();
    assert_send_sync::<Algorithm>();
    assert_send_sync::<BinSet>();
    assert_send_sync::<Workload>();
    assert_send_sync::<DecompositionPlan>();
    assert_send_sync::<SladeError>();
    assert_send_sync::<crate::opq::Combination>();
    assert_send_sync::<crate::opq_based::OpqArtifacts>();
    assert_send_sync::<crate::hetero::ThresholdBucket>();
    assert_send_sync::<PassThroughArtifacts>();
    assert_send_sync::<Box<dyn PreparedSolver + Send + Sync>>();
    assert_send_sync::<Arc<dyn SolveArtifacts>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_fromstr() {
        for a in Algorithm::ALL {
            assert_eq!(a.name().parse::<Algorithm>().unwrap(), a);
            assert_eq!(a.to_string(), a.name());
        }
        assert_eq!(
            "OPQ_Based".parse::<Algorithm>().unwrap(),
            Algorithm::OpqBased
        );
        assert!("simplex".parse::<Algorithm>().is_err());
    }

    #[test]
    fn parsing_is_case_insensitive() {
        for (raw, expect) in [
            ("GREEDY", Algorithm::Greedy),
            ("Opq-Based", Algorithm::OpqBased),
            ("OPQ_EXTENDED", Algorithm::OpqExtended),
            ("  baseline ", Algorithm::Baseline),
        ] {
            assert_eq!(raw.parse::<Algorithm>().unwrap(), expect, "{raw}");
        }
    }

    #[test]
    fn unknown_algorithm_error_lists_every_valid_name() {
        let err = "simplex".parse::<Algorithm>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`simplex`"), "{msg}");
        for a in Algorithm::ALL {
            assert!(msg.contains(a.name()), "missing {a} in: {msg}");
        }
    }

    #[test]
    fn solver_names_match_enum_spirit() {
        for a in Algorithm::ALL {
            let s = a.solver();
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn every_algorithm_solves_a_small_homogeneous_instance() {
        let bins = BinSet::paper_example();
        let w = Workload::homogeneous(3, 0.8).unwrap();
        for a in Algorithm::ALL {
            let plan = a.solve(&w, &bins).unwrap_or_else(|e| panic!("{a}: {e}"));
            let audit = plan.validate(&w, &bins).unwrap();
            assert!(audit.feasible, "{a} produced an infeasible plan");
        }
    }

    #[test]
    fn every_algorithm_round_trips_through_prepare_and_solve_with() {
        // t = 0.8 keeps the instance relaxed (every paper-menu confidence is
        // >= 0.8), so even the Relaxed solver participates.
        let bins = BinSet::paper_example();
        let theta = crate::reliability::theta(0.8);
        let w = Workload::homogeneous(5, 0.8).unwrap();
        for a in Algorithm::ALL {
            let s = a.solver();
            let artifacts = s
                .prepare(&bins, theta)
                .unwrap_or_else(|e| panic!("{a}: {e}"));
            assert_eq!(artifacts.theta().to_bits(), theta.to_bits(), "{a}");
            let two_phase = s.solve_with(artifacts.as_ref(), &w, &bins).unwrap();
            let one_shot = s.solve(&w, &bins).unwrap();
            assert_eq!(two_phase, one_shot, "{a} two-phase plan diverged");
        }
    }

    #[test]
    fn artifacts_of_one_solver_are_rejected_by_another() {
        let bins = BinSet::paper_example();
        let theta = crate::reliability::theta(0.9);
        let w = Workload::homogeneous(3, 0.9).unwrap();
        let pass_through = Arc::new(PassThroughArtifacts::new(theta));
        let opq = Algorithm::OpqBased.solver();
        assert!(matches!(
            opq.solve_with(pass_through.as_ref(), &w, &bins),
            Err(SladeError::ArtifactMismatch {
                solver: "OpqBased",
                ..
            })
        ));
        // And the reverse: real OPQ artifacts handed to a pass-through
        // solver are equally mismatched.
        let opq_artifacts = opq.prepare(&bins, theta).unwrap();
        let exact = Algorithm::Exact.solver();
        assert!(matches!(
            exact.solve_with(opq_artifacts.as_ref(), &w, &bins),
            Err(SladeError::ArtifactMismatch {
                solver: "Exact",
                ..
            })
        ));
    }

    #[test]
    fn artifacts_prepared_for_another_bin_menu_are_rejected() {
        // Artifacts carry bin indices (OPQ pool, greedy ladder), so serving
        // a different menu must fail with ArtifactMismatch, not misapply
        // indices or silently change the plan.
        let bins_a = BinSet::paper_example();
        let bins_b = BinSet::new([(1, 0.9, 0.1), (4, 0.7, 0.3)]).unwrap();
        let theta = crate::reliability::theta(0.9);
        let w = Workload::homogeneous(5, 0.9).unwrap();
        for a in [Algorithm::Greedy, Algorithm::OpqBased] {
            let s = a.solver();
            let artifacts = s.prepare(&bins_a, theta).unwrap();
            assert!(
                matches!(
                    s.solve_with(artifacts.as_ref(), &w, &bins_b),
                    Err(SladeError::ArtifactMismatch { .. })
                ),
                "{a} accepted foreign-menu artifacts"
            );
        }
        // Pass-through artifacts carry no menu state, so they serve any
        // menu: the plan is the one-shot plan for the menu given.
        for a in [Algorithm::OpqExtended, Algorithm::Baseline] {
            let s = a.solver();
            let artifacts = s.prepare(&bins_a, theta).unwrap();
            let two_phase = s.solve_with(artifacts.as_ref(), &w, &bins_b).unwrap();
            assert_eq!(two_phase, s.solve(&w, &bins_b).unwrap(), "{a}");
        }
    }

    #[test]
    fn pass_through_artifacts_are_not_cacheable() {
        let bins = BinSet::paper_example();
        let theta = crate::reliability::theta(0.9);
        for a in [
            Algorithm::OpqExtended,
            Algorithm::Baseline,
            Algorithm::Relaxed,
            Algorithm::Exact,
        ] {
            let artifacts = a.solver().prepare(&bins, theta).unwrap();
            assert!(!artifacts.cacheable(), "{a}");
        }
        for a in [Algorithm::Greedy, Algorithm::OpqBased] {
            let artifacts = a.solver().prepare(&bins, theta).unwrap();
            assert!(artifacts.cacheable(), "{a}");
        }
    }

    #[test]
    fn heterogeneous_support_is_reported_accurately() {
        let bins = BinSet::paper_example();
        // t_max = 0.75 keeps the instance relaxed (every bin confidence in
        // the paper menu is >= 0.8), so even the Relaxed solver accepts it.
        let w = Workload::heterogeneous(vec![0.5, 0.75]).unwrap();
        for a in Algorithm::ALL {
            let s = a.solver();
            let result = s.solve(&w, &bins);
            if s.supports_heterogeneous() {
                let plan = result.unwrap_or_else(|e| panic!("{a}: {e}"));
                let audit = plan.validate(&w, &bins).unwrap();
                assert!(audit.feasible, "{a} infeasible");
            } else {
                assert!(matches!(
                    result,
                    Err(SladeError::HeterogeneousUnsupported { .. })
                ));
            }
        }
    }
}
