//! # slade-bench — benchmark harness and instance generators
//!
//! The workspace builds offline, so criterion is unavailable; [`harness`] is
//! a small self-contained replacement (calibrated warm-up, batched timing,
//! median-of-batches reporting) that the `benches/` targets and the
//! `figures` binary share. [`instances`] generates the workloads and bin
//! menus used by the paper's figure sweeps.
//!
//! Bench targets run *miniature* sweeps by default so that `cargo test` and
//! `cargo bench` stay fast; set `SLADE_BENCH_FULL=1` for paper-scale runs.

pub mod harness {
    //! Minimal wall-clock benchmarking: warm up, time fixed-size batches,
    //! report the median batch.

    pub use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Result of one benchmark case.
    #[derive(Debug, Clone)]
    pub struct BenchResult {
        /// Case label.
        pub name: String,
        /// Iterations per timed batch.
        pub batch_iters: u32,
        /// Median per-iteration time across batches, in nanoseconds.
        pub median_ns: f64,
        /// Fastest per-iteration time across batches, in nanoseconds.
        pub min_ns: f64,
    }

    impl BenchResult {
        /// Formats like `name  median 12.3µs  min 11.9µs`.
        pub fn display_line(&self) -> String {
            format!(
                "{:<40} median {:>10}  min {:>10}",
                self.name,
                fmt_ns(self.median_ns),
                fmt_ns(self.min_ns)
            )
        }
    }

    fn fmt_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.2}s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.2}ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.2}µs", ns / 1e3)
        } else {
            format!("{ns:.0}ns")
        }
    }

    /// A benchmark runner with a per-case time budget.
    #[derive(Debug, Clone)]
    pub struct Harness {
        /// Rough wall-clock budget per case (split across batches).
        pub target: Duration,
        /// Number of timed batches per case.
        pub batches: u32,
    }

    impl Default for Harness {
        fn default() -> Self {
            Harness {
                target: Duration::from_millis(200),
                batches: 5,
            }
        }
    }

    impl Harness {
        /// A harness sized for quick smoke runs (CI, `cargo test`).
        pub fn quick() -> Self {
            Harness {
                target: Duration::from_millis(50),
                batches: 3,
            }
        }

        /// Times `f`, printing and returning the result.
        pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) -> BenchResult {
            // Calibration: find an iteration count filling one batch budget.
            let budget = self.target / self.batches.max(1);
            let start = Instant::now();
            f();
            let once = start.elapsed().max(Duration::from_nanos(50));
            let batch_iters = (budget.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u32;

            let mut per_iter: Vec<f64> = Vec::with_capacity(self.batches as usize);
            for _ in 0..self.batches.max(1) {
                let start = Instant::now();
                for _ in 0..batch_iters {
                    f();
                }
                let elapsed = start.elapsed().as_nanos() as f64;
                per_iter.push(elapsed / f64::from(batch_iters));
            }
            per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let result = BenchResult {
                name: name.to_string(),
                batch_iters,
                median_ns: per_iter[per_iter.len() / 2],
                min_ns: per_iter[0],
            };
            println!("{}", result.display_line());
            result
        }
    }

    /// Whether the paper-scale sweeps were requested via `SLADE_BENCH_FULL`.
    pub fn full_sweep() -> bool {
        std::env::var_os("SLADE_BENCH_FULL").is_some_and(|v| v != "0")
    }
}

pub mod report {
    //! Machine-readable benchmark trajectories.
    //!
    //! The bench targets print human-oriented lines; CI additionally wants a
    //! stable format it can upload per PR so the repo's performance
    //! trajectory is comparable across commits. [`BenchRecord`] is that
    //! format — `(name, n, median ns, throughput)` plus an optional measured
    //! speedup — and [`write_json`] lands it in `BENCH_engine.json` /
    //! `BENCH_core.json` at the workspace root (hand-rolled JSON: the
    //! offline workspace has no serde).
    //!
    //! The format is also the repo's **perf-regression gate**:
    //! [`bench_check`] (driven by the `bench-check` binary in CI) re-parses
    //! a freshly produced trajectory file, compares it against the
    //! committed baseline, and fails gated scenarios that regressed beyond
    //! a tolerance — preferring `speedup` ratios, which survive the
    //! baseline and the CI runner being different machines.

    use std::io::{self, Write};

    /// One benchmark measurement in the cross-PR trajectory.
    ///
    /// `median_ns` is the median wall-clock of **one unit of the case** —
    /// what a unit is depends on the target and is part of the case's
    /// stable name: one solve for `core/*-solve`, one request for
    /// `engine/*`, one full inner loop for aggregate cases like
    /// `core/reliability-weight-x1000`. `n` records the case's problem
    /// scale (tasks, requests, or items per unit) so consumers can
    /// normalize; only same-named cases are comparable across PRs.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchRecord {
        /// Stable case label, e.g. `engine/greedy/warm`.
        pub name: String,
        /// Problem scale of the case (tasks, requests, or items per unit).
        pub n: u64,
        /// Median wall-clock per unit of the case, in nanoseconds.
        pub median_ns: f64,
        /// Units per second (`1e9 / median_ns` unless measured directly).
        pub throughput: f64,
        /// A measured ratio against a paired baseline (e.g. warm-vs-cold);
        /// serialized only when present.
        pub speedup: Option<f64>,
    }

    impl BenchRecord {
        /// A record with the throughput derived from its median.
        pub fn per_item(name: impl Into<String>, n: u64, median_ns: f64) -> Self {
            BenchRecord {
                name: name.into(),
                n,
                median_ns,
                throughput: if median_ns > 0.0 {
                    1e9 / median_ns
                } else {
                    0.0
                },
                speedup: None,
            }
        }

        /// Attaches a measured speedup ratio.
        #[must_use]
        pub fn with_speedup(mut self, speedup: f64) -> Self {
            self.speedup = Some(speedup);
            self
        }
    }

    /// Renders records as a JSON array (stable key order, one object per
    /// line — diff-friendly for trajectory comparison).
    pub fn to_json(records: &[BenchRecord]) -> String {
        let mut out = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            let name: String = r
                .name
                .chars()
                .flat_map(|c| match c {
                    '"' | '\\' => vec!['\\', c],
                    c if (c as u32) < 0x20 => "?".chars().collect(),
                    c => vec![c],
                })
                .collect();
            out.push_str(&format!(
                "  {{\"name\": \"{name}\", \"n\": {}, \"median_ns\": {:.1}, \
                 \"throughput\": {:.3}",
                r.n, r.median_ns, r.throughput
            ));
            if let Some(speedup) = r.speedup {
                out.push_str(&format!(", \"speedup\": {speedup:.3}"));
            }
            out.push('}');
            if i + 1 < records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out.push('\n');
        out
    }

    /// Resolves a trajectory-file path the way [`write_json`] does:
    /// absolute paths stand, relative ones anchor at the workspace root.
    pub fn resolve_path(path: &str) -> std::path::PathBuf {
        if std::path::Path::new(path).is_absolute() {
            std::path::PathBuf::from(path)
        } else {
            // crates/bench/../.. == the workspace root of this checkout.
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(path)
        }
    }

    /// Writes records to `path` and notes the location on stdout. Relative
    /// paths are resolved against the *workspace* root (cargo runs bench
    /// binaries with the package directory as CWD, but CI collects the
    /// trajectory files from the checkout root).
    pub fn write_json(path: &str, records: &[BenchRecord]) -> io::Result<()> {
        let resolved = resolve_path(path);
        let mut file = std::fs::File::create(&resolved)?;
        file.write_all(to_json(records).as_bytes())?;
        println!("wrote {} records to {}", records.len(), resolved.display());
        Ok(())
    }

    /// Parses a `BENCH_*.json` trajectory file back into records — the
    /// inverse of [`to_json`], via the workspace's own JSON dialect.
    pub fn parse_records(text: &str) -> Result<Vec<BenchRecord>, String> {
        use slade_json::Json;
        let json = slade_json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        let array = json.as_array().ok_or("trajectory file is not an array")?;
        array
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let field = |key: &str| {
                    entry
                        .get(key)
                        .and_then(Json::as_f64)
                        .ok_or(format!("record {i}: missing numeric `{key}`"))
                };
                Ok(BenchRecord {
                    name: entry
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or(format!("record {i}: missing `name`"))?
                        .to_string(),
                    n: field("n")? as u64,
                    median_ns: field("median_ns")?,
                    throughput: field("throughput")?,
                    speedup: entry.get("speedup").and_then(Json::as_f64),
                })
            })
            .collect()
    }

    /// One gated scenario that fell below the allowed envelope.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Regression {
        /// The record's stable case label.
        pub name: String,
        /// Which metric was compared: `"speedup"` or `"throughput"`.
        pub metric: &'static str,
        /// The committed baseline value of that metric.
        pub baseline: f64,
        /// The freshly measured value.
        pub fresh: f64,
        /// Relative change in percent (negative = slower).
        pub change_pct: f64,
    }

    /// The outcome of one [`bench_check`] comparison.
    #[derive(Debug, Clone, Default)]
    pub struct CheckReport {
        /// Human-oriented comparison lines, one per gated scenario.
        pub lines: Vec<String>,
        /// Gated scenarios that regressed beyond the tolerance.
        pub regressions: Vec<Regression>,
        /// Gated names present in only one of the two files (a renamed or
        /// newly added scenario is not a regression, but it is reported so
        /// a silently dropped gate cannot pass unnoticed).
        pub unmatched: Vec<String>,
    }

    /// The trajectory gate: compares fresh records against the committed
    /// baseline and reports every **gated** scenario that regressed by more
    /// than `max_regression_pct` percent.
    ///
    /// A scenario is gated when its name starts with any of the `gates`
    /// prefixes (every record is gated when `gates` is empty). Records
    /// carrying a `speedup` in *both* files are compared on that ratio —
    /// ratios of two medians from the same run survive a hardware change
    /// between the baseline machine and the CI runner, absolute throughput
    /// does not — and fall back to `throughput` otherwise. Names that are
    /// duplicated within a file are skipped as unmatched (the comparison
    /// would be ambiguous).
    pub fn bench_check(
        baseline: &[BenchRecord],
        fresh: &[BenchRecord],
        max_regression_pct: f64,
        gates: &[String],
    ) -> CheckReport {
        let gated = |name: &str| {
            gates.is_empty() || gates.iter().any(|prefix| name.starts_with(prefix.as_str()))
        };
        fn unique_index(records: &[BenchRecord]) -> std::collections::BTreeMap<&str, Vec<usize>> {
            let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
            for (i, r) in records.iter().enumerate() {
                by_name.entry(r.name.as_str()).or_default().push(i);
            }
            by_name
        }
        let base_names = unique_index(baseline);
        let fresh_names = unique_index(fresh);

        let mut report = CheckReport::default();
        for (name, fresh_indices) in &fresh_names {
            if !gated(name) {
                continue;
            }
            let (one_fresh, one_base) = match (
                fresh_indices.as_slice(),
                base_names.get(name).map(Vec::as_slice),
            ) {
                ([f], Some([b])) => (&fresh[*f], &baseline[*b]),
                _ => {
                    report.unmatched.push((*name).to_string());
                    continue;
                }
            };
            let (metric, base_value, fresh_value) = match (one_base.speedup, one_fresh.speedup) {
                (Some(b), Some(f)) => ("speedup", b, f),
                _ => ("throughput", one_base.throughput, one_fresh.throughput),
            };
            if base_value <= 0.0 {
                report.unmatched.push((*name).to_string());
                continue;
            }
            let change_pct = (fresh_value / base_value - 1.0) * 100.0;
            let verdict = if change_pct < -max_regression_pct {
                report.regressions.push(Regression {
                    name: (*name).to_string(),
                    metric,
                    baseline: base_value,
                    fresh: fresh_value,
                    change_pct,
                });
                "REGRESSED"
            } else {
                "ok"
            };
            report.lines.push(format!(
                "{name:<44} {metric:<10} {base_value:>10.3} -> {fresh_value:>10.3}  \
                 {change_pct:>+7.1}%  {verdict}"
            ));
        }
        for name in base_names.keys() {
            if gated(name) && !fresh_names.contains_key(name) {
                report.unmatched.push((*name).to_string());
            }
        }
        report
    }
}

pub mod sweeps {
    //! Shared sweep grids, so the `fig*` bench targets and the `figures`
    //! binary print the same experiment points and cannot drift apart.

    /// Task-count grid for the homogeneous scale sweeps (Fig. 6a/6b).
    pub fn scale_grid(full: bool) -> &'static [u32] {
        if full {
            &[1_000, 10_000, 100_000, 1_000_000]
        } else {
            &[100, 400, 1_600]
        }
    }

    /// Task-count grid for the heterogeneous scale sweeps (Fig. 8).
    pub fn hetero_scale_grid(full: bool) -> &'static [u32] {
        if full {
            &[1_000, 10_000, 100_000]
        } else {
            &[100, 400]
        }
    }

    /// Reliability-threshold grid (Fig. 6c/6d).
    pub const THRESHOLDS: [f64; 4] = [0.85, 0.90, 0.95, 0.99];

    /// Menu-width grid (Fig. 6e–6h).
    pub fn cardinality_grid(full: bool) -> &'static [u32] {
        if full {
            &[2, 4, 8, 16, 32]
        } else {
            &[2, 4, 8]
        }
    }

    /// Heterogeneous threshold ranges (Fig. 7).
    pub const HETERO_RANGES: [(f64, f64); 3] = [(0.5, 0.9), (0.1, 0.99), (0.8, 0.99)];

    /// Largest `n` the greedy is swept at. Historically 10 000: the original
    /// implementation re-sorted the whole open list every round
    /// (`O(n² log n)`, ~2 s per solve at that cap). The lazy max-heap rework
    /// (DESIGN.md scaling seam #1, landed) brought a full solve to
    /// `O((n + assignments) log n)`, so the greedy now joins every
    /// paper-scale grid; `micro_core`'s `greedy::solve` case pins the
    /// improvement.
    pub const QUADRATIC_SOLVER_MAX_N: u32 = 1_000_000;

    /// Largest `n` the column-heavy CIP baseline is swept at: its column
    /// generation materializes `O(n·m)` sparse columns per solve, which is
    /// still minutes beyond this size (DESIGN.md scaling seam #6).
    pub const BASELINE_SOLVER_MAX_N: u32 = 10_000;
}

pub mod instances {
    //! Workloads and bin menus for the paper's experimental sweeps (§7).

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use slade_core::bin_set::BinSet;
    use slade_core::task::Workload;

    /// The paper's Table-1 menu: `<1, 0.90, 0.10>, <2, 0.85, 0.18>,
    /// <3, 0.80, 0.24>`.
    pub fn paper_bins() -> BinSet {
        BinSet::paper_example()
    }

    /// A wider synthetic menu of `m` cardinalities `1..=m` with confidences
    /// decaying and per-task prices improving as bins widen — the shape of
    /// the paper's `|B|` sweeps (Fig. 6e–6h).
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn synthetic_bins(m: u32) -> BinSet {
        assert!(m >= 1, "need at least one bin type");
        BinSet::new((1..=m).map(|l| {
            let lf = f64::from(l);
            let confidence = 0.92 - 0.04 * (lf - 1.0) / (1.0 + 0.2 * (lf - 1.0));
            let cost = 0.10 * lf * (1.0 - 0.05 * (lf - 1.0).min(8.0) / 8.0);
            (l, confidence, cost)
        }))
        .expect("synthetic menu is statically valid")
    }

    /// A homogeneous workload of `n` tasks at threshold `t`.
    ///
    /// # Panics
    /// Panics if the parameters are invalid (`n == 0` or `t ∉ (0,1)`).
    pub fn homogeneous(n: u32, t: f64) -> Workload {
        Workload::homogeneous(n, t).expect("benchmark workload parameters are valid")
    }

    /// A heterogeneous workload of `n` tasks with thresholds drawn uniformly
    /// from `lo..hi`, deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if the parameters are invalid (`n == 0` or bounds outside
    /// `(0,1)`).
    pub fn heterogeneous(n: u32, lo: f64, hi: f64, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let thresholds = (0..n).map(|_| rng.random_range(lo..hi)).collect();
        Workload::heterogeneous(thresholds).expect("benchmark workload parameters are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::harness::Harness;
    use super::instances;
    use slade_core::prelude::*;

    #[test]
    fn harness_times_a_trivial_closure() {
        let h = Harness::quick();
        let mut acc = 0u64;
        let r = h.bench("noop-add", || {
            acc = acc.wrapping_add(super::harness::black_box(1));
        });
        assert!(r.median_ns >= 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.batch_iters >= 1);
    }

    #[test]
    fn synthetic_bins_are_valid_and_sized() {
        for m in [1u32, 3, 8, 16] {
            let bins = instances::synthetic_bins(m);
            assert_eq!(bins.len(), m as usize);
            assert_eq!(bins.max_cardinality(), m);
        }
    }

    #[test]
    fn generated_instances_solve() {
        let bins = instances::synthetic_bins(5);
        let w = instances::homogeneous(50, 0.95);
        let plan = OpqBased::default().solve(&w, &bins).unwrap();
        assert!(plan.validate(&w, &bins).unwrap().feasible);
        let hw = instances::heterogeneous(50, 0.3, 0.99, 11);
        let plan = OpqExtended::default().solve(&hw, &bins).unwrap();
        assert!(plan.validate(&hw, &bins).unwrap().feasible);
    }

    #[test]
    fn heterogeneous_generator_is_deterministic() {
        let a = instances::heterogeneous(20, 0.2, 0.9, 5);
        let b = instances::heterogeneous(20, 0.2, 0.9, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn bench_records_serialize_to_stable_json() {
        use super::report::{to_json, BenchRecord};
        let records = vec![
            BenchRecord::per_item("engine/opq-based/cold", 48, 2_000.0),
            BenchRecord::per_item("engine/\"odd\"/warm", 48, 250.0).with_speedup(8.0),
        ];
        let json = to_json(&records);
        assert!(
            json.contains("\"name\": \"engine/opq-based/cold\""),
            "{json}"
        );
        assert!(json.contains("\"median_ns\": 2000.0"), "{json}");
        assert!(json.contains("\"throughput\": 500000.000"), "{json}");
        assert!(json.contains("\"speedup\": 8.000"), "{json}");
        assert!(json.contains("\\\"odd\\\""), "quotes escaped: {json}");
        // Exactly one speedup key: the first record omits it.
        assert_eq!(json.matches("speedup").count(), 1);
        // Well-formed enough for the repo's own JSON parser shape: starts
        // and ends as a bracketed array.
        assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn bench_records_round_trip_through_parse() {
        use super::report::{parse_records, to_json, BenchRecord};
        let records = vec![
            BenchRecord::per_item("server/solve/pipelined", 4, 2_000.0).with_speedup(1.25),
            BenchRecord::per_item("server/solve/cold", 12, 950_000.0),
        ];
        let parsed = parse_records(&to_json(&records)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "server/solve/pipelined");
        assert_eq!(parsed[0].speedup, Some(1.25));
        assert_eq!(parsed[1].speedup, None);
        assert!((parsed[1].median_ns - 950_000.0).abs() < 0.5);
        assert!(parse_records("{\"not\": \"an array\"}").is_err());
        assert!(parse_records("[{\"name\": \"x\"}]").is_err(), "missing n");
    }

    #[test]
    fn bench_check_gates_on_ratio_and_reports_unmatched() {
        use super::report::{bench_check, BenchRecord};
        let baseline = vec![
            BenchRecord::per_item("server/solve/pipelined", 4, 100.0).with_speedup(2.0),
            // Throughput-only record: compared on throughput when gated.
            BenchRecord::per_item("server/solve/cold", 12, 100.0),
            BenchRecord::per_item("server/gone", 1, 100.0),
        ];
        let mut fresh = baseline.clone();
        fresh.retain(|r| r.name != "server/gone");
        // 40% speedup drop, but throughput unchanged: only the ratio gate
        // trips, and a hardware-speed doubling (halved medians) would not.
        fresh[0].speedup = Some(1.2);

        let gates = vec!["server/".to_string()];
        let report = bench_check(&baseline, &fresh, 10.0, &gates);
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        assert_eq!(report.regressions[0].name, "server/solve/pipelined");
        assert_eq!(report.regressions[0].metric, "speedup");
        assert!(report.regressions[0].change_pct < -39.0);
        assert_eq!(report.unmatched, vec!["server/gone".to_string()]);
        assert_eq!(report.lines.len(), 2, "{report:?}");

        // Ungated prefix: nothing compared.
        let none = bench_check(&baseline, &fresh, 10.0, &["engine/".to_string()]);
        assert!(none.lines.is_empty() && none.regressions.is_empty());

        // Within tolerance passes.
        fresh[0].speedup = Some(1.9);
        let ok = bench_check(&baseline, &fresh, 10.0, &gates);
        assert!(ok.regressions.is_empty(), "{ok:?}");
    }
}
