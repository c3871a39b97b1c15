//! A versioned, bit-exact JSON codec for [`ResolvedPlan`] — the
//! serialization half of plan durability.
//!
//! A [`ResolvedPlan`] is more than its merged plan: resubmission needs the
//! original request (algorithm, workload, bin menu, seed), the per-shard
//! work descriptors, the raw pre-remap shard outputs, and the producing
//! engine's solver knob words. [`encode_into`] captures all of it in one
//! JSON object; [`decode`] reassembles a plan that **resubmits
//! byte-identically to the original** — the property the server's
//! journal-replay recovery rests on, pinned by this module's tests and the
//! kill-and-restart e2e.
//!
//! [`encode_into`] is the one v1 writer. It streams the record straight
//! from the plan through [`slade_json`]'s number and string printers, with
//! no intermediate [`Json`] tree, because a record grows with the task
//! count (every posted bin's task list is in it) and the journal renders
//! one per landed plan. [`encode`] is that writer's output parsed back, for
//! callers that want a value. The v1 bytes are pinned by the golden
//! fixtures in the server's test suite and, against a test-only
//! tree-building reference encoder, by this module's tests.
//!
//! Encoding rules, chosen so round trips are exact:
//!
//! * finite `f64`s (thresholds, costs, confidences) travel as JSON
//!   numbers — the shared [`slade_json`] serializer prints shortest
//!   round-trip form, so the parse of the print is the same bit pattern;
//! * full-width `u64`s (the seed, signatures, knob words) travel as
//!   `"0x…"` hex strings — an `f64` JSON number is only exact to 2⁵³;
//! * the workload and bin menu are stored structurally (task counts,
//!   thresholds, `(l, r, c)` triples) and rebuilt through their normal
//!   validating constructors, with FNV signatures stored alongside as an
//!   integrity check against silent corruption;
//! * sub-plans keep their raw shard-local task ids; the merged plan is
//!   stored only when it does not alias `subs[0]` (the unwrapped
//!   single-shard case stores `null` and re-aliases on decode), so the
//!   decoded plan has the same sharing structure as the original.
//!
//! The object carries a version member (`"v"`); [`decode`] rejects
//! versions it does not understand rather than guessing. Decoding is
//! total: malformed or corrupted input — including a journal tail hit by
//! a crash mid-append — returns `Err`, never panics. Before a record is
//! accepted, its merged plan is audited against its own workload and bin
//! menu, and every sub-plan against its own shard's instance; a plan that
//! is structurally unsound or leaves a task short of its threshold is
//! rejected. So no decoded record can make a later resubmission panic, and
//! replay never serves an infeasible plan.

use crate::service::{EngineRequest, ResolvedPlan, ShardWork};
use slade_core::bin_set::BinSet;
use slade_core::fingerprint::KnobSink;
use slade_core::plan::DecompositionPlan;
use slade_core::solver::Algorithm;
use slade_core::task::{TaskId, Workload};
use slade_json::{write_number, write_string, write_uint, Json};
use std::str::FromStr;
use std::sync::Arc;

/// The codec's current (and only) format version.
pub const CODEC_VERSION: u32 = 1;

/// Appends a resolved plan to `out` as one self-contained JSON object —
/// the codec's only writer.
///
/// The output is deterministic (member order is fixed, floats print in
/// shortest-round-trip form), so `decode` followed by `encode_into`
/// reproduces the bytes exactly — the journal's replay-idempotence tests
/// compare exactly that. Members, in order: `v`, `algorithm`, `seed`,
/// `workload`, `workload_sig`, `bins`, `bins_sig`, `knobs`, `works`,
/// `subs`, `merged` (`null` when it aliases `subs[0]`) and
/// `reused_shards`.
pub fn encode_into(resolved: &ResolvedPlan, out: &mut String) {
    let workload = resolved.workload();
    let bins = resolved.bins();
    out.push_str("{\"v\":");
    write_uint(u64::from(CODEC_VERSION), out);
    out.push_str(",\"algorithm\":");
    write_string(resolved.algorithm().name(), out);
    out.push_str(",\"seed\":");
    hex_into(resolved.seed(), out);
    out.push_str(",\"workload\":");
    if workload.is_homogeneous() {
        out.push_str("{\"tasks\":");
        write_uint(u64::from(workload.len()), out);
        out.push_str(",\"threshold\":");
        write_number(workload.threshold(0), out);
    } else {
        out.push_str("{\"thresholds\":");
        // Thresholds repeat (a resize replicates one, deltas draw from a
        // few), so a run of equal ones reuses the first one's digits
        // instead of formatting the float again.
        let (mut seen, mut text) = (None, String::new());
        list_into(0..workload.len(), out, |i, out| {
            let threshold = workload.threshold(i);
            if seen != Some(threshold.to_bits()) {
                seen = Some(threshold.to_bits());
                text.clear();
                write_number(threshold, &mut text);
            }
            out.push_str(&text);
        });
    }
    out.push_str("},\"workload_sig\":");
    hex_into(workload.signature(), out);
    out.push_str(",\"bins\":");
    list_into(bins.bins(), out, |bin, out| {
        out.push('[');
        write_uint(u64::from(bin.cardinality()), out);
        out.push(',');
        write_number(bin.confidence(), out);
        out.push(',');
        write_number(bin.cost(), out);
        out.push(']');
    });
    out.push_str(",\"bins_sig\":");
    hex_into(bins.signature(), out);
    out.push_str(",\"knobs\":");
    list_into(resolved.knob_words(), out, |&word, out| hex_into(word, out));
    out.push_str(",\"works\":");
    list_into(resolved.works(), out, |work, out| match work {
        ShardWork::Opq { n, threshold } => {
            out.push_str("{\"n\":");
            write_uint(u64::from(*n), out);
            out.push_str(",\"threshold\":");
            write_number(*threshold, out);
            out.push('}');
        }
        ShardWork::Prepared => write_string("prepared", out),
    });
    out.push_str(",\"subs\":");
    list_into(resolved.subs(), out, |sub, out| plan_into(sub, out));
    out.push_str(",\"merged\":");
    if !resolved.subs().is_empty() && Arc::ptr_eq(resolved.merged(), &resolved.subs()[0]) {
        // Unwrapped single shard: the merged plan aliases `subs[0]`; store
        // the aliasing, not a second copy.
        out.push_str("null");
    } else {
        plan_into(resolved.merged(), out);
    }
    out.push_str(",\"reused_shards\":");
    write_uint(resolved.reused_shards() as u64, out);
    out.push('}');
}

/// [`encode_into`]'s output as a [`Json`] value.
pub fn encode(resolved: &ResolvedPlan) -> Json {
    let mut out = String::new();
    encode_into(resolved, &mut out);
    slade_json::parse(&out).expect("the codec writer prints valid JSON")
}

/// Reassembles a resolved plan from [`encode_into`]'s output, parsed.
///
/// Total over arbitrary input: structural problems, version mismatches,
/// signature mismatches, and plans that fail their own audit all come back
/// as `Err(description)` — a corrupted journal record can never panic the
/// replayer or smuggle in an inconsistent plan. A plan fails its audit when
/// it is structurally unsound or leaves any task short of its threshold.
/// The audits cover the merged plan (against the record's workload) and
/// every sub-plan: an `Opq { n, threshold }` sub-plan against `n` tasks at
/// `threshold`, a `prepared` one against the record's workload. A sub-plan
/// that passes references only task ids its shard owns, which is what lets
/// resubmission splice it in.
pub fn decode(json: &Json) -> Result<ResolvedPlan, String> {
    let version = u32_of(req(json, "v")?, "`v`")?;
    if version != CODEC_VERSION {
        return Err(format!(
            "unsupported plan codec version {version} (this build reads {CODEC_VERSION})"
        ));
    }

    let algorithm_name = str_of(req(json, "algorithm")?, "`algorithm`")?;
    let algorithm = Algorithm::from_str(algorithm_name)
        .map_err(|_| format!("unknown algorithm `{algorithm_name}`"))?;
    let seed = hex_of(req(json, "seed")?, "`seed`")?;

    let workload = decode_workload(req(json, "workload")?)?;
    let workload_sig = hex_of(req(json, "workload_sig")?, "`workload_sig`")?;
    if workload.signature() != workload_sig {
        return Err("workload signature mismatch (corrupted record?)".into());
    }

    let mut triples: Vec<(u32, f64, f64)> = Vec::new();
    for bin in array_of(req(json, "bins")?, "`bins`")? {
        let parts = array_of(bin, "bin triple")?;
        if parts.len() != 3 {
            return Err("bin triple must be [cardinality, confidence, cost]".into());
        }
        triples.push((
            u32_of(&parts[0], "bin cardinality")?,
            f64_of(&parts[1], "bin confidence")?,
            f64_of(&parts[2], "bin cost")?,
        ));
    }
    let bins = Arc::new(BinSet::new(triples).map_err(|e| format!("invalid bin set: {e}"))?);
    let bins_sig = hex_of(req(json, "bins_sig")?, "`bins_sig`")?;
    if bins.signature() != bins_sig {
        return Err("bin set signature mismatch (corrupted record?)".into());
    }

    let mut knobs = KnobSink::new();
    for word in array_of(req(json, "knobs")?, "`knobs`")? {
        // `write_u64` records the word verbatim, so this loop reconstructs
        // the producing engine's sink exactly.
        knobs.write_u64(hex_of(word, "knob word")?);
    }

    let works = array_of(req(json, "works")?, "`works`")?
        .iter()
        .map(decode_work)
        .collect::<Result<Vec<ShardWork>, String>>()?;
    let subs = array_of(req(json, "subs")?, "`subs`")?
        .iter()
        .map(|sub| decode_plan(sub).map(Arc::new))
        .collect::<Result<Vec<Arc<DecompositionPlan>>, String>>()?;
    if works.len() != subs.len() || works.is_empty() {
        return Err(format!(
            "shard tables disagree: {} work descriptor(s) vs {} sub-plan(s)",
            works.len(),
            subs.len()
        ));
    }

    let merged = req(json, "merged")?;
    let plan = if matches!(merged, Json::Null) {
        Arc::clone(&subs[0])
    } else {
        Arc::new(decode_plan(merged)?)
    };
    // The merged plan carries global task ids and is audited against the
    // decoded instance; sub-plans keep shard-local ids and are audited
    // against their own shard's instance.
    audit(&plan, &workload, &bins).map_err(|e| format!("decoded plan {e}"))?;
    for (i, (work, sub)) in works.iter().zip(&subs).enumerate() {
        let shard = match work {
            ShardWork::Opq { n, threshold } => Some(
                Workload::homogeneous(*n, *threshold)
                    .map_err(|e| format!("invalid shard {i}: {e}"))?,
            ),
            ShardWork::Prepared => None,
        };
        let instance = shard.as_ref().unwrap_or(&workload);
        // A sub-plan the merged plan aliases was just audited, and needs no
        // second audit against the same instance.
        if Arc::ptr_eq(sub, &plan) && *instance == workload {
            continue;
        }
        audit(sub, instance, &bins).map_err(|e| format!("decoded sub-plan {i} {e}"))?;
    }

    let reused_shards = u32_of(req(json, "reused_shards")?, "`reused_shards`")? as usize;

    let request = EngineRequest::new(algorithm, workload, bins).with_seed(seed);
    Ok(ResolvedPlan::from_codec_parts(
        request,
        works,
        knobs,
        subs,
        plan,
        reused_shards,
    ))
}

/// Audits a decoded plan against `workload`: a structural error and a plan
/// that leaves a task short of its threshold are both rejected, so replay
/// never serves a plan no solver could have produced.
fn audit(plan: &DecompositionPlan, workload: &Workload, bins: &BinSet) -> Result<(), String> {
    match plan.validate(workload, bins) {
        Err(e) => Err(format!("failed its audit: {e}")),
        Ok(audit) if !audit.feasible => Err(format!(
            "leaves {} task(s) short of their threshold",
            audit.unsatisfied.len()
        )),
        Ok(_) => Ok(()),
    }
}

fn decode_workload(json: &Json) -> Result<Workload, String> {
    if let Some(tasks) = json.get("tasks") {
        let n = u32_of(tasks, "workload `tasks`")?;
        let t = f64_of(req(json, "threshold")?, "workload `threshold`")?;
        Workload::homogeneous(n, t).map_err(|e| format!("invalid workload: {e}"))
    } else {
        let thresholds = array_of(req(json, "thresholds")?, "workload `thresholds`")?
            .iter()
            .map(|t| f64_of(t, "workload threshold"))
            .collect::<Result<Vec<f64>, String>>()?;
        // `heterogeneous` collapses an all-equal vector to the homogeneous
        // representation exactly like the original construction did, so the
        // decoded workload is structurally identical, not just equal.
        Workload::heterogeneous(thresholds).map_err(|e| format!("invalid workload: {e}"))
    }
}

fn decode_work(json: &Json) -> Result<ShardWork, String> {
    match json {
        Json::String(s) if s == "prepared" => Ok(ShardWork::Prepared),
        Json::Object(_) => Ok(ShardWork::Opq {
            n: u32_of(req(json, "n")?, "shard `n`")?,
            threshold: f64_of(req(json, "threshold")?, "shard `threshold`")?,
        }),
        other => Err(format!(
            "shard work must be an object or \"prepared\", got {}",
            other.type_name()
        )),
    }
}

/// Appends one plan: its label, its cost and every posted bin as
/// `[cardinality, [task ids…]]`.
fn plan_into(plan: &DecompositionPlan, out: &mut String) {
    out.push_str("{\"algorithm\":");
    write_string(plan.algorithm(), out);
    out.push_str(",\"cost\":");
    write_number(plan.total_cost(), out);
    out.push_str(",\"bins\":");
    list_into(plan.bins(), out, |bin, out| {
        out.push('[');
        write_uint(u64::from(bin.cardinality()), out);
        out.push(',');
        list_into(bin.tasks(), out, |&task, out| {
            write_uint(u64::from(task), out)
        });
        out.push(']');
    });
    out.push('}');
}

/// Appends `items` as a JSON array, each rendered by `item`.
fn list_into<T>(
    items: impl IntoIterator<Item = T>,
    out: &mut String,
    mut item: impl FnMut(T, &mut String),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(x, out);
    }
    out.push(']');
}

/// Appends a full-width word as a `"0x…"` string (hex never needs
/// escaping, so the quotes go on directly).
fn hex_into(value: u64, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "\"{value:#x}\"");
}

fn decode_plan(json: &Json) -> Result<DecompositionPlan, String> {
    let label = plan_label(str_of(req(json, "algorithm")?, "plan `algorithm`")?)?;
    let cost = f64_of(req(json, "cost")?, "plan `cost`")?;
    let mut plan = DecompositionPlan::restored(label, cost);
    for posted in array_of(req(json, "bins")?, "plan `bins`")? {
        let pair = array_of(posted, "posted bin")?;
        if pair.len() != 2 {
            return Err("posted bin must be [cardinality, [tasks…]]".into());
        }
        let cardinality = u32_of(&pair[0], "posted-bin cardinality")?;
        // Task ids go straight into the plan; the first bad one stops the
        // bin short and fails the whole decode.
        let mut bad = None;
        let tasks = array_of(&pair[1], "posted-bin tasks")?
            .iter()
            .map_while(|t| match u32_of(t, "task id") {
                Ok(id) => Some(id as TaskId),
                Err(e) => {
                    bad = Some(e);
                    None
                }
            });
        plan.push_restored(cardinality, tasks);
        if let Some(e) = bad {
            return Err(e);
        }
    }
    Ok(plan)
}

/// Maps a stored plan label back to the `&'static str` the solver registry
/// stamps on plans. Every engine-produced plan is labeled by some
/// registered solver, so an unknown label means corruption.
fn plan_label(name: &str) -> Result<&'static str, String> {
    Algorithm::ALL
        .iter()
        .map(|a| a.solver().name())
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown plan label `{name}`"))
}

fn req<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing member `{key}`"))
}

fn str_of<'a>(json: &'a Json, what: &str) -> Result<&'a str, String> {
    json.as_str()
        .ok_or_else(|| format!("{what} must be a string, got {}", json.type_name()))
}

fn array_of<'a>(json: &'a Json, what: &str) -> Result<&'a [Json], String> {
    json.as_array()
        .ok_or_else(|| format!("{what} must be an array, got {}", json.type_name()))
}

fn f64_of(json: &Json, what: &str) -> Result<f64, String> {
    json.as_f64()
        .ok_or_else(|| format!("{what} must be a number, got {}", json.type_name()))
}

fn u32_of(json: &Json, what: &str) -> Result<u32, String> {
    let x = f64_of(json, what)?;
    if x.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&x) {
        return Err(format!("{what} must be an integer in u32 range, got {x}"));
    }
    Ok(x as u32)
}

fn hex_of(json: &Json, what: &str) -> Result<u64, String> {
    let s = str_of(json, what)?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("{what} must be a 0x-prefixed hex string, got `{s}`"))?;
    u64::from_str_radix(digits, 16).map_err(|_| format!("{what} is not valid hex: `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Engine, EngineConfig, WorkloadDelta};
    use slade_json::member;

    /// The tree-building v1 encoder that [`encode_into`] replaced, kept as
    /// the differential reference for the streaming writer's bytes.
    fn reference_encode(resolved: &ResolvedPlan) -> Json {
        fn hex(value: u64) -> Json {
            Json::string(format!("{value:#x}"))
        }
        fn workload_json(workload: &Workload) -> Json {
            if workload.is_homogeneous() {
                Json::Object(vec![
                    member("tasks", Json::number(f64::from(workload.len()))),
                    member("threshold", Json::number(workload.threshold(0))),
                ])
            } else {
                Json::Object(vec![member(
                    "thresholds",
                    Json::Array(
                        (0..workload.len())
                            .map(|i| Json::number(workload.threshold(i)))
                            .collect(),
                    ),
                )])
            }
        }
        fn work_json(work: &ShardWork) -> Json {
            match work {
                ShardWork::Opq { n, threshold } => Json::Object(vec![
                    member("n", Json::number(f64::from(*n))),
                    member("threshold", Json::number(*threshold)),
                ]),
                ShardWork::Prepared => Json::string("prepared"),
            }
        }
        fn plan_json(plan: &DecompositionPlan) -> Json {
            Json::Object(vec![
                member("algorithm", Json::string(plan.algorithm())),
                member("cost", Json::number(plan.total_cost())),
                member(
                    "bins",
                    Json::Array(
                        plan.bins()
                            .map(|bin| {
                                Json::Array(vec![
                                    Json::number(f64::from(bin.cardinality())),
                                    Json::Array(
                                        bin.tasks()
                                            .iter()
                                            .map(|&t| Json::number(f64::from(t)))
                                            .collect(),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }

        let workload = resolved.workload();
        let bins = resolved.bins();
        let merged =
            if !resolved.subs().is_empty() && Arc::ptr_eq(resolved.merged(), &resolved.subs()[0]) {
                Json::Null
            } else {
                plan_json(resolved.merged())
            };
        Json::Object(vec![
            member("v", Json::number(f64::from(CODEC_VERSION))),
            member("algorithm", Json::string(resolved.algorithm().name())),
            member("seed", hex(resolved.seed())),
            member("workload", workload_json(workload)),
            member("workload_sig", hex(workload.signature())),
            member(
                "bins",
                Json::Array(
                    bins.bins()
                        .iter()
                        .map(|b| {
                            Json::Array(vec![
                                Json::number(f64::from(b.cardinality())),
                                Json::number(b.confidence()),
                                Json::number(b.cost()),
                            ])
                        })
                        .collect(),
                ),
            ),
            member("bins_sig", hex(bins.signature())),
            member(
                "knobs",
                Json::Array(resolved.knob_words().iter().map(|&w| hex(w)).collect()),
            ),
            member(
                "works",
                Json::Array(resolved.works().iter().map(work_json).collect()),
            ),
            member(
                "subs",
                Json::Array(resolved.subs().iter().map(|s| plan_json(s)).collect()),
            ),
            member("merged", merged),
            member(
                "reused_shards",
                Json::number(resolved.reused_shards() as f64),
            ),
        ])
    }

    /// [`encode_into`]'s bytes for `resolved`.
    fn written(resolved: &ResolvedPlan) -> String {
        let mut out = String::new();
        encode_into(resolved, &mut out);
        out
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        })
    }

    fn paper_bins() -> Arc<BinSet> {
        Arc::new(BinSet::paper_example())
    }

    fn requests() -> Vec<EngineRequest> {
        let mut out = vec![
            // Example 9: homogeneous OPQ, single unwrapped shard.
            EngineRequest::new(
                Algorithm::OpqBased,
                Workload::homogeneous(4, 0.95).unwrap(),
                paper_bins(),
            ),
            // Heterogeneous buckets: multi-shard with remaps and a merged
            // plan distinct from subs[0]. Awkward decimals on purpose.
            EngineRequest::new(
                Algorithm::OpqExtended,
                Workload::heterogeneous(vec![0.95, 0.8, 0.95, 0.1 + 0.2, 0.8, 0.99]).unwrap(),
                paper_bins(),
            ),
            // Prepared pass-through shard.
            EngineRequest::new(
                Algorithm::Greedy,
                Workload::homogeneous(7, 0.9).unwrap(),
                paper_bins(),
            ),
            // Randomized solver: the seed must survive the round trip.
            EngineRequest::new(
                Algorithm::Baseline,
                Workload::homogeneous(5, 0.9).unwrap(),
                paper_bins(),
            )
            .with_seed(0xdead_beef_cafe_f00d),
        ];
        out.push(out[0].clone().with_seed(u64::MAX));
        out
    }

    /// A seeded solve → resubmit chain shaped like the journaled benchmark
    /// traffic: a homogeneous solve of `n` tasks, then resizes (while
    /// homogeneous), appends and threshold changes drawn from a grid.
    fn chain(engine: &Engine, algorithm: Algorithm, bins: &Arc<BinSet>, n: u32, seed: u64) {
        const GRID: [f64; 5] = [0.8, 0.85, 0.9, 0.95, 0.99];
        let mut state = seed | 1;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let t = GRID[next(5) as usize];
        let request = EngineRequest::new(
            algorithm,
            Workload::homogeneous(n, t).unwrap(),
            Arc::clone(bins),
        );
        let mut resolved = engine.solve_resolved(request).unwrap();
        assert_eq!(written(&resolved), reference_encode(&resolved).to_string());
        for _ in 0..5 {
            let workload = resolved.workload();
            let delta = match next(3) {
                0 if workload.is_homogeneous() => WorkloadDelta::Resize(
                    workload.len() + 1 + next(u64::from(workload.len()) / 2) as u32,
                ),
                0 | 1 => WorkloadDelta::Append(
                    (0..1 + next(19)).map(|_| GRID[next(5) as usize]).collect(),
                ),
                _ => WorkloadDelta::SetThresholds(
                    (0..1 + next(19))
                        .map(|_| {
                            (
                                next(u64::from(workload.len())) as TaskId,
                                GRID[next(5) as usize],
                            )
                        })
                        .collect(),
                ),
            };
            resolved = engine.resubmit(&resolved, &delta).unwrap();
            assert_eq!(
                written(&resolved),
                reference_encode(&resolved).to_string(),
                "{algorithm:?} n={n} seed={seed} after {delta:?}"
            );
        }
    }

    #[test]
    fn encode_into_matches_the_reference_encoder() {
        let engine = engine();
        let mut resolved: Vec<ResolvedPlan> = requests()
            .into_iter()
            .map(|request| engine.solve_resolved(request).unwrap())
            .collect();
        // Every algorithm, on instances each one accepts (relaxed needs
        // every bin at or above the threshold, exact a tiny n).
        for algorithm in Algorithm::ALL {
            let t = if algorithm == Algorithm::Relaxed {
                0.3
            } else {
                0.9
            };
            let n = if algorithm == Algorithm::Exact { 4 } else { 11 };
            let request = EngineRequest::new(
                algorithm,
                Workload::homogeneous(n, t).unwrap(),
                paper_bins(),
            );
            resolved.push(engine.solve_resolved(request).unwrap());
        }
        // Resubmits that reuse shards, an awkward-decimal append, and a
        // large five-bucket plan with its shrink.
        let hetero = engine
            .solve_resolved(EngineRequest::new(
                Algorithm::OpqExtended,
                Workload::heterogeneous(vec![0.95, 0.8, 0.95, 0.8, 0.99, 0.1 + 0.2]).unwrap(),
                paper_bins(),
            ))
            .unwrap();
        let grown = engine
            .resubmit(&hetero, &WorkloadDelta::Append(vec![0.99, 0.1 + 0.2]))
            .unwrap();
        const LEVELS: [f64; 5] = [0.999, 0.95, 0.8, 0.5, 0.3];
        let wide = engine
            .solve_resolved(EngineRequest::new(
                Algorithm::OpqExtended,
                Workload::heterogeneous((0..2_000).map(|i| LEVELS[i % 5]).collect()).unwrap(),
                paper_bins(),
            ))
            .unwrap();
        assert_eq!(wide.shards(), 5);
        let resized = engine
            .resubmit(&wide, &WorkloadDelta::Resize(1_990))
            .unwrap();
        resolved.extend([hetero, grown, wide, resized]);

        let aliased = |r: &ResolvedPlan| Arc::ptr_eq(r.merged(), &r.subs()[0]);
        assert!(resolved.iter().any(aliased), "no single-shard plan");
        assert!(resolved.iter().any(|r| !aliased(r)), "no multi-shard plan");
        assert!(
            resolved.iter().any(|r| r.reused_shards() > 0),
            "no reused shard"
        );
        for r in &resolved {
            let bytes = written(r);
            assert_eq!(bytes, reference_encode(r).to_string());
            assert_eq!(encode(r), reference_encode(r));
        }
        // `encode_into` appends: what is already in the buffer stays.
        let mut out = String::from("prefix:");
        encode_into(&resolved[0], &mut out);
        assert_eq!(out, format!("prefix:{}", written(&resolved[0])));

        let synthetic = Arc::new(
            BinSet::new([
                (1, 0.92, 0.1),
                (2, 0.88, 0.19),
                (3, 0.85, 0.28),
                (4, 0.83, 0.36),
            ])
            .unwrap(),
        );
        for (i, &n) in [100, 450, 1_200, 3_000].iter().enumerate() {
            for algorithm in [Algorithm::OpqExtended, Algorithm::Greedy] {
                let bins = if i % 2 == 0 {
                    paper_bins()
                } else {
                    Arc::clone(&synthetic)
                };
                chain(&engine, algorithm, &bins, n, 0x5eed + i as u64);
            }
        }
        engine.shutdown();
    }

    #[test]
    fn encode_decode_is_the_identity_on_the_encoding() {
        let engine = engine();
        for request in requests() {
            let resolved = engine.solve_resolved(request).unwrap();
            let encoded = encode(&resolved).to_string();
            let decoded = decode(&slade_json::parse(&encoded).unwrap()).unwrap();
            // Bit-exact: re-encoding the decoded plan reproduces the bytes.
            assert_eq!(encode(&decoded).to_string(), encoded);
            assert_eq!(decoded.plan(), resolved.plan());
            assert_eq!(decoded.workload(), resolved.workload());
            assert_eq!(decoded.seed(), resolved.seed());
            assert_eq!(decoded.shards(), resolved.shards());
        }
        engine.shutdown();
    }

    #[test]
    fn decoded_plans_resubmit_byte_identically() {
        let engine = engine();
        for request in requests() {
            let deltas = if request.workload.is_homogeneous() {
                vec![WorkloadDelta::Resize(9), WorkloadDelta::Resize(40)]
            } else {
                // Heterogeneous workloads can only shrink or append (growing
                // needs thresholds), and only the bucketing solver runs them.
                vec![
                    WorkloadDelta::Resize(3),
                    WorkloadDelta::Append(vec![0.5, 0.9]),
                ]
            };
            let original = engine.solve_resolved(request).unwrap();
            let decoded = decode(&encode(&original)).unwrap();
            for delta in &deltas {
                let from_original = engine.resubmit(&original, delta).unwrap();
                let from_decoded = engine.resubmit(&decoded, delta).unwrap();
                assert_eq!(from_decoded.plan(), from_original.plan());
                // Shard reuse works identically across the decode boundary,
                // so recovery loses none of the incremental speedup.
                assert_eq!(from_decoded.reused_shards(), from_original.reused_shards());
                assert_eq!(
                    encode(&from_decoded).to_string(),
                    encode(&from_original).to_string()
                );
            }
        }
        engine.shutdown();
    }

    #[test]
    fn resubmitted_plans_round_trip_with_reused_shards() {
        let engine = engine();
        let request = EngineRequest::new(
            Algorithm::OpqExtended,
            Workload::heterogeneous(vec![0.95, 0.8, 0.95, 0.8, 0.99, 0.99]).unwrap(),
            paper_bins(),
        );
        let resolved = engine.solve_resolved(request).unwrap();
        // Appending one more 0.99-task leaves the other buckets untouched.
        let grown = engine
            .resubmit(&resolved, &WorkloadDelta::Append(vec![0.99]))
            .unwrap();
        assert!(grown.reused_shards() > 0, "delta should reuse shards");
        let encoded = encode(&grown).to_string();
        let decoded = decode(&slade_json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.reused_shards(), grown.reused_shards());
        assert_eq!(encode(&decoded).to_string(), encoded);
        engine.shutdown();
    }

    /// A 10-task `opq-extended` record in 5 buckets, the first holding
    /// tasks 0–2, with task 0 of that bucket's sub-plan renamed 900. The
    /// merged plan still passes its audit; a resubmission that reuses the
    /// shard would map the foreign id through the bucket's 3 members.
    fn sub_plan_naming_a_foreign_task() -> String {
        let engine = engine();
        let thresholds = vec![0.999, 0.999, 0.999, 0.95, 0.95, 0.8, 0.8, 0.5, 0.3, 0.3];
        let resolved = engine
            .solve_resolved(EngineRequest::new(
                Algorithm::OpqExtended,
                Workload::heterogeneous(thresholds).unwrap(),
                paper_bins(),
            ))
            .unwrap();
        engine.shutdown();
        assert_eq!(resolved.shards(), 5);
        assert_eq!(resolved.subs()[0].bins().next().unwrap().tasks()[0], 0);
        let good = written(&resolved);
        // The first task id of the first posted bin of `subs[0]`.
        let subs = good.find("\"subs\":[").unwrap();
        let at = subs + good[subs..].find("\"bins\":[[").unwrap();
        let at = at + good[at..].find(",[").unwrap() + 2;
        assert_eq!(&good[at..=at], "0");
        format!("{}900{}", &good[..at], &good[at + 1..])
    }

    /// A 6-task greedy record whose one sub-plan (which the merged plan
    /// aliases) has task 0 renamed 5 in its first bin: structurally sound,
    /// but task 0 falls short of its threshold.
    fn plan_leaving_a_task_short() -> String {
        let engine = engine();
        let resolved = engine
            .solve_resolved(EngineRequest::new(
                Algorithm::Greedy,
                Workload::homogeneous(6, 0.95).unwrap(),
                paper_bins(),
            ))
            .unwrap();
        engine.shutdown();
        let good = written(&resolved);
        let first = "\"bins\":[[1,[0]],[1,[1]],";
        assert_eq!(good.matches(first).count(), 1, "{good}");
        good.replace(first, "\"bins\":[[1,[5]],[1,[1]],")
    }

    #[test]
    fn decode_rejects_corruption_without_panicking() {
        let engine = engine();
        let resolved = engine
            .solve_resolved(EngineRequest::new(
                Algorithm::OpqBased,
                Workload::homogeneous(4, 0.95).unwrap(),
                paper_bins(),
            ))
            .unwrap();
        engine.shutdown();
        let good = encode(&resolved).to_string();

        // Wrong version, missing members, bad types, tampered payloads.
        for bad in [
            r#"{"v":2}"#.to_string(),
            r#"{"v":1}"#.to_string(),
            "[]".to_string(),
            "null".to_string(),
            good.replace("opq-based", "no-such-algorithm"),
            good.replace("\"workload_sig\":\"0x", "\"workload_sig\":\"0xf"),
            good.replace("\"bins_sig\":\"0x", "\"bins_sig\":\"0xf"),
            good.replace("\"seed\":\"0x0\"", "\"seed\":7"),
            good.replace("\"tasks\":4", "\"tasks\":0"),
            good.replace("\"works\":[", "\"works\":[\"prepared\","),
            sub_plan_naming_a_foreign_task(),
            plan_leaving_a_task_short(),
        ] {
            if let Ok(json) = slade_json::parse(&bad) {
                assert!(decode(&json).is_err(), "accepted corrupted record: {bad}");
            }
        }

        // Every single-byte truncation either fails to parse or to decode —
        // nothing in this pipeline panics on a torn record.
        for cut in 1..good.len() {
            if let Ok(json) = slade_json::parse(&good[..cut]) {
                assert!(decode(&json).is_err(), "accepted truncation at {cut}");
            }
        }
    }
}
