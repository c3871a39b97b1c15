//! `bench-check` — the CI perf-regression gate over `BENCH_*.json`
//! trajectory files.
//!
//! ```text
//! bench_check --baseline FILE --fresh FILE [--max-regression PCT]
//!             [--gate PREFIX]...
//! ```
//!
//! Compares the freshly benched `--fresh` records against the committed
//! `--baseline` ones and exits nonzero when any gated scenario (name
//! starting with a `--gate` prefix; all scenarios when no gate is given)
//! regressed by more than `--max-regression` percent (default 10). Records
//! carrying a `speedup` in both files are compared on that ratio — the
//! committed baseline and the CI runner are different machines, and a
//! within-run ratio is the only number that survives the swap. Relative
//! paths resolve against the workspace root, like the bench writers.

use slade_bench::report;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("bench-check: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut baseline_path = None;
    let mut fresh_path = None;
    let mut max_regression_pct = 10.0;
    let mut gates = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--baseline" => baseline_path = Some(value("--baseline")?),
            "--fresh" => fresh_path = Some(value("--fresh")?),
            "--max-regression" => {
                max_regression_pct = value("--max-regression")?
                    .parse()
                    .map_err(|e| format!("--max-regression: {e}"))?;
            }
            "--gate" => gates.push(value("--gate")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let baseline_path = baseline_path.ok_or("--baseline is required")?;
    let fresh_path = fresh_path.ok_or("--fresh is required")?;

    let read = |path: &str| {
        let resolved = report::resolve_path(path);
        let text = std::fs::read_to_string(&resolved)
            .map_err(|e| format!("{}: {e}", resolved.display()))?;
        report::parse_records(&text).map_err(|e| format!("{}: {e}", resolved.display()))
    };
    let baseline = read(&baseline_path)?;
    let fresh = read(&fresh_path)?;

    let report = report::bench_check(&baseline, &fresh, max_regression_pct, &gates);
    for line in &report.lines {
        println!("{line}");
    }
    for name in &report.unmatched {
        println!("{name:<44} (unmatched — present or unique in only one file)");
    }
    if report.lines.is_empty() && report.unmatched.is_empty() {
        return Err(format!(
            "no gated scenarios matched {gates:?} — a misspelled gate would \
             otherwise pass vacuously"
        ));
    }
    if report.regressions.is_empty() {
        Ok(format!(
            "bench-check ok: {} gated scenario(s) within {max_regression_pct}% of baseline",
            report.lines.len()
        ))
    } else {
        Err(format!(
            "{} gated scenario(s) regressed more than {max_regression_pct}%: {}",
            report.regressions.len(),
            report
                .regressions
                .iter()
                .map(|r| {
                    format!(
                        "{} ({} {:.3} -> {:.3}, {:+.1}%)",
                        r.name, r.metric, r.baseline, r.fresh, r.change_pct
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::run;

    fn write_temp(name: &str, text: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    const BASE: &str = r#"[
  {"name": "server/solve/pipelined", "n": 4, "median_ns": 100.0, "throughput": 1000.0, "speedup": 2.0},
  {"name": "server/solve/warm", "n": 12, "median_ns": 100.0, "throughput": 1000.0, "speedup": 7.0}
]"#;

    #[test]
    fn within_tolerance_passes_and_regression_fails() {
        let base = write_temp("bench_check_base.json", BASE);
        let ok_fresh = write_temp(
            "bench_check_ok.json",
            &BASE.replace("2.0", "1.9").replace("7.0", "7.4"),
        );
        let argv = |fresh: &str| {
            vec![
                "--baseline".to_string(),
                base.clone(),
                "--fresh".to_string(),
                fresh.to_string(),
                "--gate".to_string(),
                "server/".to_string(),
            ]
        };
        let summary = run(&argv(&ok_fresh)).expect("5% dip is within the 10% default");
        assert!(summary.contains("2 gated scenario(s)"), "{summary}");

        let bad_fresh = write_temp("bench_check_bad.json", &BASE.replace("2.0", "1.5"));
        let err = run(&argv(&bad_fresh)).expect_err("25% speedup drop must fail");
        assert!(err.contains("server/solve/pipelined"), "{err}");
        assert!(!err.contains("server/solve/warm"), "{err}");
    }

    #[test]
    fn a_gate_matching_nothing_is_an_error_not_a_pass() {
        let base = write_temp("bench_check_vacuous.json", BASE);
        let err = run(&[
            "--baseline".to_string(),
            base.clone(),
            "--fresh".to_string(),
            base,
            "--gate".to_string(),
            "server/contortion/".to_string(),
        ])
        .expect_err("vacuous gate");
        assert!(err.contains("no gated scenarios"), "{err}");
    }

    #[test]
    fn missing_flags_and_files_error_cleanly() {
        assert!(run(&[]).is_err());
        assert!(run(&["--baseline".to_string()]).is_err());
        let base = write_temp("bench_check_lonely.json", BASE);
        let err = run(&[
            "--baseline".to_string(),
            base,
            "--fresh".to_string(),
            "/nonexistent/definitely.json".to_string(),
        ])
        .expect_err("missing fresh file");
        assert!(err.contains("definitely.json"), "{err}");
    }
}
