//! Prometheus text-format (exposition format version 0.0.4) rendering of
//! a [`RegistrySnapshot`] — std-only and hand-rolled, like the rest of the
//! stack's wire surfaces.
//!
//! Mapping rules:
//!
//! * Metric names are prefixed with `slade_` and sanitized: every
//!   character outside `[a-zA-Z0-9_:]` (the dots in `ops.solve`) becomes
//!   an underscore, so `latency.solve` renders as `slade_latency_solve`.
//! * Counters render as `# TYPE … counter` with a `_total` suffix, per
//!   Prometheus naming convention.
//! * Gauges render as `# TYPE … gauge` under their sanitized name.
//! * Histograms render as `# TYPE … histogram` with the full cumulative
//!   `_bucket{le="…"}` series — one bucket per log₂ edge (the inclusive
//!   upper edge of bucket *i*, i.e. `2^(i+1)−1`), closed by the mandatory
//!   `le="+Inf"` bucket — then `_sum` and `_count`.
//! * Windowed views ([`RegistrySnapshot::rates`] and
//!   [`RegistrySnapshot::windows`]) render as derived gauges:
//!   `…_window` / `…_window_per_sec` for counters, and
//!   `…_window_p50_ns` / `…_window_p90_ns` / `…_window_p99_ns` /
//!   `…_window_count` / `…_window_per_sec` for histograms. The `_ns` unit
//!   is dropped for a histogram whose name already ends in its unit
//!   (`journal.compact_us` renders `…_compact_us_window_p50`). Scrapes
//!   are the reader that keeps the window rings rotating.

use crate::metrics::{bucket_upper, RegistrySnapshot, BUCKETS};
use std::fmt::Write;

/// The `Content-Type` a `/metrics` responder should declare for the text
/// produced by [`render_prometheus`].
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Renders `snapshot` in the Prometheus text format. When `build_version`
/// is given, a conventional `slade_build_info{version="…"} 1` gauge is
/// emitted so every scrape identifies the binary.
pub fn render_prometheus(snapshot: &RegistrySnapshot, build_version: Option<&str>) -> String {
    let mut out = String::new();
    if let Some(version) = build_version {
        push_type(&mut out, "slade_build_info", "gauge");
        let _ = writeln!(
            out,
            "slade_build_info{{version=\"{}\"}} 1",
            escape_label(version)
        );
    }
    for (name, value) in &snapshot.counters {
        let name = format!("{}_total", sanitize(name));
        push_type(&mut out, &name, "counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize(name);
        push_type(&mut out, &name, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let name = sanitize(name);
        push_type(&mut out, &name, "histogram");
        let mut cumulative = 0u64;
        for (i, count) in hist.counts.iter().enumerate() {
            cumulative += count;
            // The overflow bucket's upper edge is u64::MAX; Prometheus
            // spells the catch-all bucket "+Inf" instead.
            if i < BUCKETS - 1 {
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(i)
                );
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
    for (name, rate) in &snapshot.rates {
        let base = sanitize(name);
        let count_name = format!("{base}_window");
        push_type(&mut out, &count_name, "gauge");
        let _ = writeln!(out, "{count_name} {}", rate.count);
        let rate_name = format!("{base}_window_per_sec");
        push_type(&mut out, &rate_name, "gauge");
        let _ = writeln!(out, "{rate_name} {}", format_f64(rate.per_sec()));
    }
    for (name, view) in &snapshot.windows {
        let base = sanitize(name);
        let unit = if name.ends_with("_us") { "" } else { "_ns" };
        for (suffix, value) in [
            (format!("window_p50{unit}"), view.snapshot.quantile(0.50)),
            (format!("window_p90{unit}"), view.snapshot.quantile(0.90)),
            (format!("window_p99{unit}"), view.snapshot.quantile(0.99)),
            ("window_count".to_string(), view.snapshot.count()),
        ] {
            let gauge = format!("{base}_{suffix}");
            push_type(&mut out, &gauge, "gauge");
            let _ = writeln!(out, "{gauge} {value}");
        }
        let rate_name = format!("{base}_window_per_sec");
        push_type(&mut out, &rate_name, "gauge");
        let _ = writeln!(out, "{rate_name} {}", format_f64(view.per_sec()));
    }
    out
}

fn push_type(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// `slade_` prefix plus character sanitization into the Prometheus metric
/// name alphabet `[a-zA-Z0-9_:]`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("slade_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Label values escape backslash, double quote, and newline per the
/// exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Plain decimal rendering — Prometheus accepts standard float syntax;
/// keep it short and locale-independent.
fn format_f64(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use std::time::Duration;

    fn sample_snapshot() -> RegistrySnapshot {
        let registry = Registry::new();
        registry.counter("ops.solve").add(3);
        registry.gauge("queue.depth").set(5);
        let h = registry.windowed_histogram("latency.solve", Duration::from_secs(60));
        h.record(100);
        h.record(100_000);
        registry
            .windowed_counter("ops.batch", Duration::from_secs(60))
            .add(2);
        registry
            .windowed_histogram("latency.batch", Duration::from_secs(60))
            .record(500);
        registry
            .windowed_histogram("journal.compact_us", Duration::from_secs(60))
            .record(900);
        registry.snapshot()
    }

    #[test]
    fn renders_type_lines_and_conventional_names() {
        let text = render_prometheus(&sample_snapshot(), Some("1.2.3"));
        for expected in [
            "# TYPE slade_build_info gauge",
            "slade_build_info{version=\"1.2.3\"} 1",
            "# TYPE slade_ops_solve_total counter",
            "slade_ops_solve_total 3",
            "# TYPE slade_queue_depth gauge",
            "slade_queue_depth 5",
            "# TYPE slade_latency_solve histogram",
            "slade_latency_solve_count 2",
            "# TYPE slade_ops_batch_total counter",
            "slade_ops_batch_window 2",
            "slade_latency_batch_window_count 1",
            "# TYPE slade_latency_batch_window_p99_ns gauge",
            // A histogram named with its unit keeps that unit.
            "slade_journal_compact_us_count 1",
            "slade_journal_compact_us_window_p50 1023",
            "slade_journal_compact_us_window_count 1",
        ] {
            assert!(text.contains(expected), "missing `{expected}` in:\n{text}");
        }
        assert!(!text.contains("slade_journal_compact_us_window_p50_ns"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_with_inf() {
        let text = render_prometheus(&sample_snapshot(), None);
        // 100 lands in [64,128) (le="127"), 100_000 in [65536,131072)
        // (le="131071"); the series is cumulative and +Inf equals _count.
        assert!(text.contains("slade_latency_solve_bucket{le=\"127\"} 1"));
        assert!(text.contains("slade_latency_solve_bucket{le=\"131071\"} 2"));
        assert!(text.contains("slade_latency_solve_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("slade_latency_solve_sum 100100"));

        let mut last = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("slade_latency_solve_bucket{le=\"") {
                let count: u64 = rest
                    .split("} ")
                    .nth(1)
                    .expect("bucket line has a value")
                    .parse()
                    .expect("bucket count parses");
                assert!(count >= last, "bucket series must be cumulative: {line}");
                last = count;
                buckets += 1;
            }
        }
        assert_eq!(buckets, BUCKETS, "one line per edge plus +Inf");
    }

    #[test]
    fn every_line_is_a_comment_or_a_name_value_sample() {
        let text = render_prometheus(&sample_snapshot(), Some("0.1.0"));
        assert!(!text.is_empty());
        for line in text.lines() {
            if line.starts_with('#') {
                let mut parts = line.split_whitespace();
                assert_eq!(parts.next(), Some("#"));
                assert_eq!(parts.next(), Some("TYPE"));
                assert!(parts.next().is_some(), "TYPE line names a metric: {line}");
                assert!(
                    matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                    "known kind: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line: `name value`");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "sanitized name: {line}"
            );
            assert!(value.parse::<f64>().is_ok(), "numeric sample value: {line}");
        }
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
