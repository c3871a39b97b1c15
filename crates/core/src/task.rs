//! Workloads: large-scale crowdsourcing tasks and their reliability
//! thresholds.
//!
//! The paper's `T = {a_1..a_n}` with thresholds `{t_1..t_n}` is represented
//! by [`Workload`]. Atomic tasks are identified by dense indices
//! ([`TaskId`] = `u32`); the payload of a task (an image to screen, a pair to
//! compare, ...) lives outside the optimizer — SLADE only needs `n` and the
//! thresholds. The homogeneous case (`t_i` all equal) is stored compactly and
//! detected by solvers that exploit it.

use crate::error::SladeError;
use crate::fingerprint::Fnv1a;
use crate::reliability;

/// Identifier of an atomic task: a dense index in `0..n`.
pub type TaskId = u32;

/// A large-scale crowdsourcing task: `n` atomic tasks plus per-task
/// reliability thresholds in `(0, 1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    spec: Spec,
}

#[derive(Debug, Clone, PartialEq)]
enum Spec {
    /// All tasks share one threshold (the homogeneous SLADE problem, §5).
    Homogeneous { n: u32, t: f64 },
    /// Per-task thresholds (the heterogeneous SLADE problem, §6).
    Heterogeneous { thresholds: Vec<f64> },
}

impl Workload {
    /// A homogeneous workload: `n` atomic tasks, all with threshold `t`.
    pub fn homogeneous(n: u32, t: f64) -> Result<Self, SladeError> {
        if n == 0 {
            return Err(SladeError::InvalidWorkload(
                "workload must contain at least one atomic task".into(),
            ));
        }
        validate_threshold(t, 0)?;
        Ok(Workload {
            spec: Spec::Homogeneous { n, t },
        })
    }

    /// A heterogeneous workload from per-task thresholds.
    ///
    /// If all thresholds happen to be equal the workload still reports
    /// [`Workload::is_homogeneous`] as `true`, so solvers can specialize.
    pub fn heterogeneous(thresholds: Vec<f64>) -> Result<Self, SladeError> {
        if thresholds.is_empty() {
            return Err(SladeError::InvalidWorkload(
                "workload must contain at least one atomic task".into(),
            ));
        }
        if thresholds.len() > u32::MAX as usize {
            return Err(SladeError::InvalidWorkload(format!(
                "workload of {} tasks exceeds the u32 task-id space",
                thresholds.len()
            )));
        }
        for (i, &t) in thresholds.iter().enumerate() {
            validate_threshold(t, i)?;
        }
        let first = thresholds[0];
        if thresholds.iter().all(|&t| t == first) {
            return Ok(Workload {
                spec: Spec::Homogeneous {
                    n: thresholds.len() as u32,
                    t: first,
                },
            });
        }
        Ok(Workload {
            spec: Spec::Heterogeneous { thresholds },
        })
    }

    /// Number of atomic tasks `n`.
    pub fn len(&self) -> u32 {
        match &self.spec {
            Spec::Homogeneous { n, .. } => *n,
            Spec::Heterogeneous { thresholds } => thresholds.len() as u32,
        }
    }

    /// Whether the workload is empty (never true for validated workloads).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every task shares the same threshold.
    pub fn is_homogeneous(&self) -> bool {
        matches!(self.spec, Spec::Homogeneous { .. })
    }

    /// Reliability threshold `t_i` of task `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn threshold(&self, i: TaskId) -> f64 {
        assert!(i < self.len(), "task id {i} out of range");
        match &self.spec {
            Spec::Homogeneous { t, .. } => *t,
            Spec::Heterogeneous { thresholds } => thresholds[i as usize],
        }
    }

    /// Transformed threshold `θ_i = -ln(1 - t_i)` of task `i`.
    pub fn theta(&self, i: TaskId) -> f64 {
        reliability::theta(self.threshold(i))
    }

    /// Iterator over all transformed thresholds, in task order. A
    /// homogeneous workload computes its one `θ` once and repeats it; each
    /// item equals [`Workload::theta`] of its task bit for bit.
    pub fn thetas(&self) -> impl Iterator<Item = f64> + '_ {
        // One iterator type for both storages: the repeated shared θ of a
        // homogeneous workload chained with the per-task θs of a
        // heterogeneous one; the other half is always empty.
        let (shared, repeats, per_task): (f64, usize, &[f64]) = match &self.spec {
            Spec::Homogeneous { n, t } => (reliability::theta(*t), *n as usize, &[]),
            Spec::Heterogeneous { thresholds } => (0.0, 0, thresholds),
        };
        std::iter::repeat(shared)
            .take(repeats)
            .chain(per_task.iter().map(|&t| reliability::theta(t)))
    }

    /// A stable content signature of the workload: FNV-1a over `n` followed
    /// by every threshold in task order, floats by bit pattern. A
    /// heterogeneous workload whose thresholds all coincide signs identically
    /// to the equivalent [`Workload::homogeneous`] (the constructor already
    /// collapses the representation, and the signature hashes observable
    /// thresholds, not storage).
    ///
    /// Scope note: `slade-engine`'s *artifact* cache deliberately does NOT
    /// key on this — OPQ pools and DP tables depend only on `(BinSet, θ)`,
    /// which is exactly what lets one artifact set serve workloads of every
    /// size. This signature identifies the full instance; pair it with
    /// [`BinSet::signature`](crate::bin_set::BinSet::signature) when
    /// memoizing anything *plan-shaped* (whole-request result caching, the
    /// streaming-delta seam in DESIGN.md).
    pub fn signature(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(u64::from(self.len()));
        for i in 0..self.len() {
            h.write_f64(self.threshold(i));
        }
        h.finish()
    }

    /// Largest threshold `t_max`.
    pub fn max_threshold(&self) -> f64 {
        match &self.spec {
            Spec::Homogeneous { t, .. } => *t,
            Spec::Heterogeneous { thresholds } => {
                thresholds.iter().copied().fold(f64::MIN, f64::max)
            }
        }
    }

    /// Smallest threshold `t_min`.
    pub fn min_threshold(&self) -> f64 {
        match &self.spec {
            Spec::Homogeneous { t, .. } => *t,
            Spec::Heterogeneous { thresholds } => {
                thresholds.iter().copied().fold(f64::MAX, f64::min)
            }
        }
    }
}

fn validate_threshold(t: f64, index: usize) -> Result<(), SladeError> {
    if !(t > 0.0 && t < 1.0) {
        return Err(SladeError::InvalidWorkload(format!(
            "threshold of task {index} must lie in the open interval (0,1), got {t}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_basics() {
        let w = Workload::homogeneous(4, 0.95).unwrap();
        assert_eq!(w.len(), 4);
        assert!(w.is_homogeneous());
        assert_eq!(w.threshold(3), 0.95);
        assert!((w.theta(0) - 2.995732).abs() < 1e-5);
        assert_eq!(w.max_threshold(), 0.95);
        assert_eq!(w.min_threshold(), 0.95);
    }

    #[test]
    fn heterogeneous_basics() {
        let w = Workload::heterogeneous(vec![0.5, 0.6, 0.7, 0.86]).unwrap();
        assert_eq!(w.len(), 4);
        assert!(!w.is_homogeneous());
        assert_eq!(w.threshold(2), 0.7);
        assert_eq!(w.max_threshold(), 0.86);
        assert_eq!(w.min_threshold(), 0.5);
        let thetas: Vec<f64> = w.thetas().collect();
        assert_eq!(thetas.len(), 4);
        assert!(thetas[3] > thetas[0]);
    }

    #[test]
    fn thetas_match_per_task_theta_bit_for_bit() {
        for w in [
            Workload::homogeneous(5, 0.95).unwrap(),
            Workload::heterogeneous(vec![0.5, 0.6, 0.7, 0.86, 0.3]).unwrap(),
        ] {
            let thetas: Vec<u64> = w.thetas().map(f64::to_bits).collect();
            let per_task: Vec<u64> = (0..w.len()).map(|i| w.theta(i).to_bits()).collect();
            assert_eq!(thetas, per_task);
        }
    }

    #[test]
    fn equal_heterogeneous_collapses_to_homogeneous() {
        let w = Workload::heterogeneous(vec![0.9, 0.9, 0.9]).unwrap();
        assert!(w.is_homogeneous());
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn signature_tracks_observable_thresholds() {
        let homo = Workload::homogeneous(3, 0.9).unwrap();
        let collapsed = Workload::heterogeneous(vec![0.9, 0.9, 0.9]).unwrap();
        assert_eq!(homo.signature(), collapsed.signature());
        let other_n = Workload::homogeneous(4, 0.9).unwrap();
        assert_ne!(homo.signature(), other_n.signature());
        let a = Workload::heterogeneous(vec![0.5, 0.9]).unwrap();
        let b = Workload::heterogeneous(vec![0.9, 0.5]).unwrap();
        // Task ids are positional, so order is part of the identity.
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        assert!(Workload::homogeneous(0, 0.9).is_err());
        assert!(Workload::heterogeneous(vec![]).is_err());
        assert!(Workload::homogeneous(1, 0.0).is_err());
        assert!(Workload::homogeneous(1, 1.0).is_err());
        assert!(Workload::homogeneous(1, -0.5).is_err());
        assert!(Workload::homogeneous(1, f64::NAN).is_err());
        assert!(Workload::heterogeneous(vec![0.9, 1.5]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn threshold_out_of_range_panics() {
        let w = Workload::homogeneous(2, 0.9).unwrap();
        let _ = w.threshold(2);
    }
}
