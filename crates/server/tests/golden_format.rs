//! Format pins for the two durable plan renderings: the journal's
//! `codec::encode` record and the wire's `protocol::plan_to_json`.
//!
//! The fixtures under `tests/golden/` were rendered by an earlier build
//! and are never regenerated by the tests. Round-trip tests elsewhere run
//! the same code on both sides, so they cannot see a format drift; these
//! compare today's output against yesterday's bytes, which is what a
//! journal written by an older server needs in order to replay.

use slade_core::bin_set::BinSet;
use slade_core::solver::Algorithm;
use slade_core::task::Workload;
use slade_engine::codec;
use slade_engine::{Engine, EngineConfig, EngineRequest};
use slade_server::protocol::plan_to_json;
use std::sync::Arc;

/// One pinned plan: the request that produces it and its two renderings.
struct Golden {
    name: &'static str,
    request: fn() -> EngineRequest,
    record: &'static str,
    plan: &'static str,
}

fn paper_bins() -> Arc<BinSet> {
    Arc::new(BinSet::paper_example())
}

/// A single unwrapped `opq-based` shard: several DP groups, each placed
/// round-robin over more than one bin per type.
fn opq_based() -> EngineRequest {
    EngineRequest::new(
        Algorithm::OpqBased,
        Workload::homogeneous(40, 0.95).unwrap(),
        paper_bins(),
    )
}

/// Four threshold buckets, so the record carries remapped sub-plans and a
/// merged plan distinct from `subs[0]`.
fn opq_extended() -> EngineRequest {
    EngineRequest::new(
        Algorithm::OpqExtended,
        Workload::heterogeneous(vec![
            0.95,
            0.8,
            0.95,
            0.1 + 0.2,
            0.8,
            0.99,
            0.5,
            0.9,
            0.72,
            0.11,
            0.99,
            0.6,
        ])
        .unwrap(),
        paper_bins(),
    )
}

/// The 6-type synthetic menu of the `|B|` sweeps (`slade-bench`'s
/// `instances::synthetic_bins(6)`).
fn synthetic_bins6() -> Arc<BinSet> {
    Arc::new(
        BinSet::new((1..=6).map(|l: u32| {
            let lf = f64::from(l);
            let confidence = 0.92 - 0.04 * (lf - 1.0) / (1.0 + 0.2 * (lf - 1.0));
            let cost = 0.10 * lf * (1.0 - 0.05 * (lf - 1.0).min(8.0) / 8.0);
            (l, confidence, cost)
        }))
        .unwrap(),
    )
}

/// An `opq-based` shard above the default `dp_cap` (256): one bulk group
/// plus a DP tail, the path a plain DP-sized fixture never reaches.
fn opq_based_bulk() -> EngineRequest {
    EngineRequest::new(
        Algorithm::OpqBased,
        Workload::homogeneous(600, 0.99).unwrap(),
        synthetic_bins6(),
    )
}

/// Three threshold buckets, the 0.99 one holding 300 tasks, so that
/// bucket's sub-plan takes the bulk path.
fn opq_extended_bulk() -> EngineRequest {
    let thresholds = (0..400)
        .map(|i| match i % 8 {
            3 => 0.7,
            6 => 0.5,
            _ => 0.99,
        })
        .collect();
    EngineRequest::new(
        Algorithm::OpqExtended,
        Workload::heterogeneous(thresholds).unwrap(),
        paper_bins(),
    )
}

/// A prepared pass-through shard from the greedy.
fn greedy() -> EngineRequest {
    EngineRequest::new(
        Algorithm::Greedy,
        Workload::heterogeneous(vec![0.9, 0.5, 0.95, 0.7, 0.9, 0.85, 0.6, 0.99, 0.8]).unwrap(),
        paper_bins(),
    )
}

const GOLDENS: [Golden; 5] = [
    Golden {
        name: "opq_based",
        request: opq_based,
        record: include_str!("golden/opq_based.record.json"),
        plan: include_str!("golden/opq_based.plan.json"),
    },
    Golden {
        name: "opq_extended",
        request: opq_extended,
        record: include_str!("golden/opq_extended.record.json"),
        plan: include_str!("golden/opq_extended.plan.json"),
    },
    Golden {
        name: "opq_based_bulk",
        request: opq_based_bulk,
        record: include_str!("golden/opq_based_bulk.record.json"),
        plan: include_str!("golden/opq_based_bulk.plan.json"),
    },
    Golden {
        name: "opq_extended_bulk",
        request: opq_extended_bulk,
        record: include_str!("golden/opq_extended_bulk.record.json"),
        plan: include_str!("golden/opq_extended_bulk.plan.json"),
    },
    Golden {
        name: "greedy",
        request: greedy,
        record: include_str!("golden/greedy.record.json"),
        plan: include_str!("golden/greedy.plan.json"),
    },
];

fn engine() -> Engine {
    Engine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    })
}

#[test]
fn fresh_plans_render_byte_identically_to_the_pinned_fixtures() {
    let engine = engine();
    for golden in &GOLDENS {
        let resolved = engine.solve_resolved((golden.request)()).unwrap();
        assert_eq!(
            codec::encode(&resolved).to_string(),
            golden.record.trim_end(),
            "{}: journal record drifted",
            golden.name
        );
        assert_eq!(
            plan_to_json(resolved.plan()).to_string(),
            golden.plan.trim_end(),
            "{}: wire plan drifted",
            golden.name
        );
    }
    engine.shutdown();
}

#[test]
fn pinned_records_decode_and_re_encode_to_the_same_bytes() {
    for golden in &GOLDENS {
        let record = golden.record.trim_end();
        let decoded = codec::decode(&slade_json::parse(record).unwrap())
            .unwrap_or_else(|e| panic!("{}: pinned record no longer decodes: {e}", golden.name));
        assert_eq!(
            codec::encode(&decoded).to_string(),
            record,
            "{}: decode/encode is not the identity on a pinned record",
            golden.name
        );
        assert_eq!(
            plan_to_json(decoded.plan()).to_string(),
            golden.plan.trim_end(),
            "{}: a replayed plan renders differently on the wire",
            golden.name
        );
    }
}
