//! The three traffic mixes, as deterministic streams of request chains.
//!
//! Every workload is a stream of *chains*: chain `j` is a pure function of
//! `(seed, workload, j)`. A chain is one or more request lines that must be
//! answered in order — a single solve for `steady-mix` and `cold-menus`, a
//! solve followed by 4–8 resubmits of one plan id for `resubmit-journal`.
//! The load generator never has two steps of one chain in flight, and it
//! starts chain `j` only after chain `j - ID_POOL` (the previous user of the
//! same plan id) has finished.

use crate::rng::Rng;
use slade_bench::{instances, sweeps};
use slade_core::bin_set::BinSet;
use slade_core::hetero;
use slade_core::reliability;
use slade_core::solver::Algorithm;
use slade_core::task::Workload;
use slade_engine::{EngineRequest, WorkloadDelta};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// Artifact-cache capacity the server runs with (`serve --cache`).
pub const CACHE_CAPACITY: usize = 64;

/// Distinct plan ids `resubmit-journal` cycles through: the store (and so
/// the journal after compaction) holds at most this many live plans.
pub const ID_POOL: u64 = 64;

/// In the closed loop, every `HANDOFF_EVERY`-th chain moves to the other
/// connection after its first step, via `release` then `claim`.
pub const HANDOFF_EVERY: u64 = 8;

/// The named traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Shared platform menus and the fig6 threshold grid: after warm-up
    /// nearly every request hits the artifact cache, so the per-request
    /// path (wire, hand-offs, JSON, validate, `solve_with`) dominates.
    Steady,
    /// A fresh seeded menu and threshold per request: every request misses
    /// the cache, so `prepare` and shard scheduling dominate.
    Cold,
    /// Solve → resubmit chains on a journaled server: the store and
    /// journal write path, compaction, and restart recovery.
    Journaled,
}

impl Mix {
    pub const ALL: [Mix; 3] = [Mix::Steady, Mix::Cold, Mix::Journaled];

    pub fn name(self) -> &'static str {
        match self {
            Mix::Steady => "steady-mix",
            Mix::Cold => "cold-menus",
            Mix::Journaled => "resubmit-journal",
        }
    }

    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|mix| mix.name() == name)
    }

    /// The fixed open-loop offered rate (requests per second), set when the
    /// benchmark was defined on a 2-core host whose CPU speed drifts by
    /// ±25% within seconds: about a sixth of the closed-loop throughput for
    /// `steady-mix` and `resubmit-journal` (~3 500 and ~750 per second) and
    /// under a third for `cold-menus` (~260). Nearer saturation (the
    /// closed loop's "about half" is more than the open loop's single
    /// connection sustains), queueing amplified that drift into run-to-run
    /// latency swings wider than any useful bound.
    pub fn offered_rps(self) -> f64 {
        match self {
            Mix::Steady => 600.0,
            Mix::Cold => 80.0,
            Mix::Journaled => 120.0,
        }
    }

    /// Whether the server runs with `--journal`.
    pub fn journaled(self) -> bool {
        self == Mix::Journaled
    }

    /// Length of the fixed seeded chain list every run starts with: the
    /// warm-up pass, the `cost_per_task` basis, and part of the checked
    /// sample. Timed phases continue the stream after it.
    pub fn fixed_chains(self) -> u64 {
        match self {
            Mix::Steady => 1000,
            Mix::Cold => 1000,
            Mix::Journaled => 200,
        }
    }

    /// Chain `index` of this mix's stream under `seed`.
    pub fn chain(self, seed: u64, index: u64) -> Chain {
        let mut rng = Rng::for_item(seed, self as u64 + 1, index);
        match self {
            Mix::Steady => Chain::single(index, steady_request(&mut rng)),
            Mix::Cold => Chain::single(index, cold_request(&mut rng)),
            Mix::Journaled => resubmit_chain(&mut rng, index),
        }
    }
}

/// One chain of request lines (JSON objects without `seq`).
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    pub index: u64,
    /// The plan id every step names (`resubmit-journal` only).
    pub id: Option<String>,
    pub steps: Vec<String>,
    /// Whether the closed loop hands this chain to the other connection
    /// after its first step.
    pub handoff: bool,
}

impl Chain {
    fn single(index: u64, line: String) -> Chain {
        Chain {
            index,
            id: None,
            steps: vec![line],
            handoff: false,
        }
    }

    /// The id slot this chain occupies (chains sharing a slot share an id).
    pub fn slot(&self) -> Option<usize> {
        self.id.as_ref().map(|_| (self.index % ID_POOL) as usize)
    }
}

/// The three platform menus `steady-mix` and `resubmit-journal` share:
/// the paper's Table 1 menu (the server default, so sent without `bins`)
/// and the synthetic fig6 menus of widths 4 and 6.
fn shared_menus() -> &'static [Option<String>; 3] {
    static MENUS: OnceLock<[Option<String>; 3]> = OnceLock::new();
    MENUS.get_or_init(|| {
        [
            None,
            Some(bins_json(&instances::synthetic_bins(4))),
            Some(bins_json(&instances::synthetic_bins(6))),
        ]
    })
}

fn bins_json(bins: &BinSet) -> String {
    let rows: Vec<String> = bins
        .bins()
        .iter()
        .map(|b| format!("[{},{},{}]", b.cardinality(), b.confidence(), b.cost()))
        .collect();
    format!("[{}]", rows.join(","))
}

fn push_bins(line: &mut String, bins: &Option<String>) {
    if let Some(bins) = bins {
        let _ = write!(line, ",\"bins\":{bins}");
    }
}

fn push_f64_array(line: &mut String, values: impl IntoIterator<Item = f64>) {
    line.push('[');
    for (i, value) in values.into_iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{value}");
    }
    line.push(']');
}

/// 80% homogeneous opq-based, 15% opq-extended with an inline thresholds
/// array from the fig6 grid, 5% greedy; n log-uniform in 100..=5000.
fn steady_request(rng: &mut Rng) -> String {
    let bins = rng.pick(shared_menus()).clone();
    let n = rng.log_uniform(100, 5000);
    let u = rng.unit();
    let mut line = String::new();
    if !(0.80..0.95).contains(&u) {
        let algorithm = if u < 0.80 { "opq-based" } else { "greedy" };
        let t = *rng.pick(&sweeps::THRESHOLDS);
        let _ = write!(
            line,
            "{{\"algorithm\":\"{algorithm}\",\"tasks\":{n},\"threshold\":{t}"
        );
    } else {
        line.push_str("{\"algorithm\":\"opq-extended\",\"thresholds\":");
        push_f64_array(&mut line, (0..n).map(|_| *rng.pick(&sweeps::THRESHOLDS)));
    }
    push_bins(&mut line, &bins);
    line.push('}');
    line
}

/// A seeded menu of width 3–6: confidences decay and per-task prices
/// improve as bins widen, with every value drawn at full precision so no
/// two requests share a menu.
fn cold_menu(rng: &mut Rng) -> String {
    let width = rng.range_u32(3, 6);
    let mut confidence = rng.range_f64(0.85, 0.95);
    let unit_cost = rng.range_f64(0.05, 0.15);
    let rows: Vec<String> = (1..=width)
        .map(|l| {
            if l > 1 {
                confidence -= rng.range_f64(0.01, 0.05);
            }
            let cost = unit_cost * f64::from(l) * rng.range_f64(0.75, 1.0);
            format!("[{l},{confidence},{cost}]")
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// 70% homogeneous opq-based at θ ∈ [0.85, 0.99), 20% opq-extended over a
/// wide threshold range (several bucket shards), 5% greedy, and 5% baseline
/// at n ≤ 200 (so the LP runs); every request brings its own menu.
fn cold_request(rng: &mut Rng) -> String {
    let bins = Some(cold_menu(rng));
    let u = rng.unit();
    let mut line = String::new();
    if u < 0.70 || (0.90..0.95).contains(&u) {
        let algorithm = if u < 0.70 { "opq-based" } else { "greedy" };
        let n = rng.log_uniform(100, 5000);
        let t = rng.range_f64(0.85, 0.99);
        let _ = write!(
            line,
            "{{\"algorithm\":\"{algorithm}\",\"tasks\":{n},\"threshold\":{t}"
        );
    } else if u < 0.90 {
        let n = rng.log_uniform(100, 2000);
        line.push_str("{\"algorithm\":\"opq-extended\",\"thresholds\":");
        push_f64_array(&mut line, (0..n).map(|_| rng.range_f64(0.3, 0.99)));
    } else {
        let n = rng.range_u32(20, 200);
        let t = rng.range_f64(0.85, 0.99);
        let seed = rng.next_u64() >> 12;
        let _ = write!(
            line,
            "{{\"algorithm\":\"baseline\",\"tasks\":{n},\"threshold\":{t},\"seed\":{seed}"
        );
    }
    push_bins(&mut line, &bins);
    line.push('}');
    line
}

/// A solve under plan id `p<index % ID_POOL>` followed by 4–8 resubmit
/// deltas (resize growth while homogeneous, append, set_thresholds), all
/// thresholds from the fig6 grid.
fn resubmit_chain(rng: &mut Rng, index: u64) -> Chain {
    let id = format!("p{}", index % ID_POOL);
    let bins = rng.pick(shared_menus()).clone();
    let algorithm = if rng.unit() < 0.85 {
        "opq-extended"
    } else {
        "greedy"
    };
    let n = rng.log_uniform(100, 2000);
    let t = *rng.pick(&sweeps::THRESHOLDS);
    let mut first = format!(
        "{{\"op\":\"solve\",\"id\":\"{id}\",\"algorithm\":\"{algorithm}\",\"tasks\":{n},\"threshold\":{t}"
    );
    push_bins(&mut first, &bins);
    first.push('}');
    let mut steps = vec![first];

    let mut workload = Workload::homogeneous(n, t).expect("generated workloads are valid");
    let resubmits = rng.range_u32(4, 8);
    for _ in 0..resubmits {
        let u = rng.unit();
        let delta = if workload.is_homogeneous() && u < 0.4 {
            let grown = (f64::from(workload.len()) * rng.range_f64(1.05, 1.5)).ceil() as u32;
            WorkloadDelta::Resize(grown)
        } else if u < 0.7 {
            let k = rng.range_u32(1, 20);
            WorkloadDelta::Append((0..k).map(|_| *rng.pick(&sweeps::THRESHOLDS)).collect())
        } else {
            let k = rng.range_u32(1, 20);
            let len = workload.len();
            WorkloadDelta::SetThresholds(
                (0..k)
                    .map(|_| (rng.range_u32(0, len - 1), *rng.pick(&sweeps::THRESHOLDS)))
                    .collect(),
            )
        };
        workload = delta.apply(&workload).expect("generated deltas are valid");
        let mut line = format!("{{\"op\":\"resubmit\",\"id\":\"{id}\",\"delta\":");
        push_delta(&mut line, &delta);
        line.push('}');
        steps.push(line);
    }
    Chain {
        index,
        id: Some(id),
        steps,
        handoff: index % HANDOFF_EVERY == HANDOFF_EVERY - 1,
    }
}

fn push_delta(line: &mut String, delta: &WorkloadDelta) {
    match delta {
        WorkloadDelta::Resize(n) => {
            let _ = write!(line, "{{\"resize\":{n}}}");
        }
        WorkloadDelta::Append(thresholds) => {
            line.push_str("{\"append\":");
            push_f64_array(line, thresholds.iter().copied());
            line.push('}');
        }
        WorkloadDelta::SetThresholds(pairs) => {
            line.push_str("{\"set_thresholds\":[");
            for (i, (task, t)) in pairs.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "[{task},{t}]");
            }
            line.push_str("]}");
        }
    }
}

/// One artifact-cache key, modelled on the engine's sharding: (bin-menu
/// signature, solver that prepares it, transformed threshold bits).
pub type CacheKeyModel = (u64, Algorithm, u64);

/// One shard of a request as the engine runs it (with `homogeneous_shard`
/// off, the `serve` default): its cache key, the threshold it prepares at,
/// and the workload its `solve_with` call sees.
pub struct ShardModel {
    pub key: CacheKeyModel,
    pub threshold: f64,
    pub workload: Workload,
}

/// The engine's shard plan for `request`: one OPQ shard per homogeneous
/// request or threshold bucket for the OPQ algorithms, one whole-workload
/// shard for the others.
pub fn shard_plan(request: &EngineRequest) -> Vec<ShardModel> {
    let signature = request.bins.signature();
    let opq = |n: u32, threshold: f64| ShardModel {
        key: (
            signature,
            Algorithm::OpqBased,
            reliability::theta(threshold).to_bits(),
        ),
        threshold,
        workload: Workload::homogeneous(n, threshold).expect("shard workloads are valid"),
    };
    let workload = &request.workload;
    match request.algorithm {
        Algorithm::OpqBased | Algorithm::OpqExtended if workload.is_homogeneous() => {
            vec![opq(workload.len(), workload.threshold(0))]
        }
        Algorithm::OpqExtended => hetero::partition(workload)
            .iter()
            .map(|bucket| opq(bucket.members.len() as u32, bucket.confidence))
            .collect(),
        algorithm => vec![ShardModel {
            key: (
                signature,
                algorithm,
                reliability::theta(workload.max_threshold()).to_bits(),
            ),
            threshold: workload.max_threshold(),
            workload: workload.clone(),
        }],
    }
}

/// The server's default menu (requests without `bins`).
pub fn default_bins() -> Arc<BinSet> {
    Arc::new(BinSet::paper_example())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_server::protocol::{self, Request};
    use std::collections::HashSet;

    fn cache_keys(request: &EngineRequest) -> Vec<CacheKeyModel> {
        shard_plan(request)
            .into_iter()
            .map(|shard| shard.key)
            .collect()
    }

    fn engine_request(line: &str) -> Option<EngineRequest> {
        match protocol::parse_request(line, &default_bins()).expect("generated lines parse") {
            Request::Solve { request, .. } => Some(request),
            _ => None,
        }
    }

    #[test]
    fn same_seed_gives_the_same_request_bytes() {
        for mix in Mix::ALL {
            for index in [0, 1, 17, 4096] {
                assert_eq!(mix.chain(7, index), mix.chain(7, index), "{}", mix.name());
            }
            let a: Vec<_> = (0..50).map(|j| mix.chain(7, j).steps).collect();
            let b: Vec<_> = (0..50).map(|j| mix.chain(8, j).steps).collect();
            assert_ne!(a, b, "{}: seeds must change the stream", mix.name());
        }
    }

    #[test]
    fn every_generated_line_parses() {
        for mix in Mix::ALL {
            for j in 0..200 {
                for step in mix.chain(3, j).steps {
                    protocol::parse_request(&step, &default_bins())
                        .unwrap_or_else(|e| panic!("{}: {e}: {step}", mix.name()));
                }
            }
        }
    }

    #[test]
    fn steady_mix_fits_in_the_cache() {
        let mut keys = HashSet::new();
        for j in 0..5000 {
            let chain = Mix::Steady.chain(11, j);
            keys.extend(cache_keys(&engine_request(&chain.steps[0]).unwrap()));
        }
        assert!(
            keys.len() <= CACHE_CAPACITY,
            "{} distinct keys for a {CACHE_CAPACITY}-entry cache",
            keys.len()
        );
    }

    #[test]
    fn cold_menus_never_repeat_a_key() {
        let mut seen = HashSet::new();
        for j in 0..3000 {
            let chain = Mix::Cold.chain(11, j);
            for key in cache_keys(&engine_request(&chain.steps[0]).unwrap()) {
                assert!(seen.insert(key), "chain {j} repeats a cache key");
            }
        }
    }

    #[test]
    fn resubmit_chains_are_well_formed() {
        for j in 0..300 {
            let chain = Mix::Journaled.chain(5, j);
            let id = chain.id.clone().expect("resubmit chains carry an id");
            assert!((5..=9).contains(&chain.steps.len()));
            assert!(chain.steps[0].starts_with("{\"op\":\"solve\""));
            for step in &chain.steps[1..] {
                assert!(step.starts_with("{\"op\":\"resubmit\""), "{step}");
            }
            assert!(chain
                .steps
                .iter()
                .all(|s| s.contains(&format!("\"id\":\"{id}\""))));
            assert_eq!(chain.handoff, j % HANDOFF_EVERY == HANDOFF_EVERY - 1);
        }
    }
}
