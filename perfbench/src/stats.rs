//! Order statistics and the open-loop clock.

use std::time::{Duration, Instant};

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); infinite values
/// (failed requests) sort last. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The lower quartile over consecutive whole windows of `per_window`
/// samples of each window's `q` quantile. On a shared host whose speed
/// drifts for seconds at a time, this reads the server in the host's
/// quieter windows, while anything the server itself does — a periodic
/// stall, a slower path — shows in every window. Falls back to the whole
/// slice when it holds under three windows.
pub fn windowed_quantile(values: &[f64], per_window: usize, q: f64) -> f64 {
    let windows: Vec<f64> = values
        .chunks_exact(per_window.max(1))
        .map(|window| quantile(window, q))
        .collect();
    if windows.len() < 3 {
        quantile(values, q)
    } else {
        quantile(&windows, 0.25)
    }
}

/// The highest of the percentiles 90, 99, 99.9, … that still has at least
/// ten of `samples` beyond it, or `None` when even p90 has fewer.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    let mut best = None;
    let mut tail = 0.1;
    while samples as f64 * tail >= 10.0 - 1e-9 {
        best = Some(100.0 * (1.0 - tail));
        tail /= 10.0;
    }
    best
}

/// The open loop's schedule: request `i` is due at `start + i * interval`,
/// and its latency runs from that due time — so a stall is charged to every
/// request queued behind it, not only to the one that hit it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, index: u64) -> Instant {
        self.start + self.interval.mul_f64(index as f64)
    }

    /// Milliseconds from request `index`'s due time to `done`.
    pub fn latency_ms(&self, index: u64, done: Instant) -> f64 {
        done.saturating_duration_since(self.due(index))
            .as_secs_f64()
            * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        let p = highest_supported_percentile(10_000).unwrap();
        assert!((p - 99.9).abs() < 1e-9, "{p}");
        let p = highest_supported_percentile(250_000).unwrap();
        assert!((p - 99.99).abs() < 1e-9, "{p}");
    }

    #[test]
    fn quantiles_are_nearest_rank_and_failures_sort_last() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        let mut with_failure = values.clone();
        with_failure.push(f64::INFINITY);
        assert_eq!(quantile(&with_failure, 1.0), f64::INFINITY);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn windowed_quantiles_take_the_lower_quartile_window() {
        // Five windows of 100; two hold a burst of slow requests.
        let mut values: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        for i in (200..220).chain(400..420) {
            values[i] = 1e3;
        }
        assert_eq!(windowed_quantile(&values, 100, 0.99), 98.0);
        // A slowdown in every window moves the result.
        let slower: Vec<f64> = values.iter().map(|v| v * 2.0).collect();
        assert_eq!(windowed_quantile(&slower, 100, 0.99), 196.0);
        assert_eq!(quantile(&values, 0.99), 1e3);
        assert_eq!(windowed_quantile(&values[..250], 100, 0.99), 1e3);
    }

    #[test]
    fn open_loop_latency_runs_from_due_time_through_a_stall() {
        // One request per millisecond; the server stalls for 50 ms at
        // request 10, so requests 10..60 all complete at t = 60 ms.
        let start = Instant::now();
        let schedule = Schedule {
            start,
            interval: Duration::from_millis(1),
        };
        let done_at = |i: u64| {
            let ms = if (10..60).contains(&i) { 60 } else { i + 1 };
            start + Duration::from_millis(ms)
        };
        let latencies: Vec<f64> = (0..200)
            .map(|i| schedule.latency_ms(i, done_at(i)))
            .collect();
        // The stalled request waited 50 ms; the requests queued behind it
        // are charged their wait too, down to 1 ms for the last one.
        assert!((latencies[10] - 50.0).abs() < 1e-6);
        assert!((latencies[30] - 30.0).abs() < 1e-6);
        assert!((latencies[59] - 1.0).abs() < 1e-6);
        assert!((latencies[100] - 1.0).abs() < 1e-6);
        // So the stall owns the tail: 26 requests waited 25 ms or more.
        assert!(quantile(&latencies, 0.99) >= 45.0);
        assert_eq!(latencies.iter().filter(|&&l| l >= 25.0).count(), 26);
    }
}
