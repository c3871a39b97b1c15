//! The line-delimited JSON protocol: request parsing and response shapes.
//!
//! Every request is one JSON object per line. The `op` member selects the
//! verb (defaulting to `"solve"`, so the plain JSONL request lines that
//! feed `slade-cli batch` work over the wire unchanged):
//!
//! | verb | request members | response |
//! |------|-----------------|----------|
//! | `solve` | the engine fields (`algorithm`, `tasks`, `threshold`, `thresholds`, `bins`, `seed`), optional `id` (retain the resolved plan in the session), optional `plan` (include the full plan), optional `seq` (pipeline the request) | summary + shard/reuse counters |
//! | `batch` | `requests`: array of engine-field objects, optional `seq` | per-request summaries, in order |
//! | `resubmit` | `id`, `delta` (one of `resize` / `set_thresholds` / `append`), optional `plan`, optional `seq` | summary + reuse counters for the re-solve |
//! | `claim` | `id` (`seq` is rejected: leases move in line, at their position in the request stream) | ack; this session now holds the plan id's lease |
//! | `release` | `id` (`seq` is rejected, as for `claim`) | ack; the plan id is unleased and claimable by any session |
//! | `stats` | — (`seq` is rejected: stats answer in line, at their position in the request stream) | cache, per-op and per-algorithm counters: a reshaped subset of `metrics` |
//! | `metrics` | — (`seq` is rejected, as for `stats`) | full observability snapshot: op counters, cache rates, engine/scheduler gauges, store contention, per-verb latency histogram quantiles, per-algorithm counts |
//! | `trace` | optional `limit` (`seq` is rejected, as for `stats`) | the newest completed request spans, oldest first |
//! | `health` | — (`seq` is rejected, as for `stats`) | readiness from live signals: `ok`/`degraded`/`unhealthy` with per-signal detail and reasons |
//! | `profile` | optional `limit` (`seq` is rejected, as for `stats`) | per-phase wall-time breakdown aggregated from the newest completed spans |
//! | `shutdown` | — (`seq` is rejected: shutdown first drains every tagged in-flight request, then acks) | ack; the server then drains and exits |
//!
//! ## Tracing (`trace: true`)
//!
//! A `solve`/`batch`/`resubmit` request may carry `"trace": true` to opt
//! into end-to-end tracing: the server mints a trace id, records stage
//! timestamps (queued, admitted, dispatched, per-shard start/finish with
//! worker and steal provenance, merged, written) as the request moves
//! through the stack, echoes the id back as a `trace` member on the
//! response, and retains the completed span in a bounded ring readable via
//! the `trace` verb. Tracing changes nothing about the plan bytes.
//!
//! ## Plan ids, leases, and `code`
//!
//! Plan ids name entries in the **server-wide** plan store: a plan
//! retained by one connection can be resubmitted from another once it
//! holds the id's lease. Producing under an id (a `solve` with `id`, or a
//! `resubmit`) leases it to the producing session implicitly; `claim` and
//! `release` move the lease explicitly; a session's leases are released
//! when it disconnects (the plans stay). Conflicts come back as error
//! responses carrying a machine-readable `code` member alongside the
//! human-readable `error`:
//!
//! | `code` | meaning |
//! |--------|---------|
//! | `unknown_plan` | the id names no stored plan |
//! | `lease_conflict` | another session holds the id's lease |
//! | `pending_producer` | a solve/resubmit producing the id is still in flight |
//!
//! ## Pipelining (`seq`)
//!
//! A `solve`/`batch`/`resubmit` request may carry a client-chosen `seq`
//! tag (a string or a non-negative integer). Tagged requests are
//! dispatched to the engine **without blocking the session's read loop**
//! and answered *as they complete* — possibly out of request order — with
//! the response echoing the tag verbatim as its own `seq` member. Untagged
//! requests keep the strict request/response semantics: the session
//! executes them in line, so a client that never sends `seq` observes
//! exactly the pre-pipelining protocol. Response *bytes* are unaffected by
//! tagging: a tagged response equals its untagged counterpart plus the
//! echoed `seq` member.
//!
//! Responses always carry `"ok": true` or `"ok": false` with an `"error"`
//! string; a failed request never costs the connection. The full-plan
//! payload ([`plan_to_json`]) serializes through the shared shortest-
//! round-trip [`json`] serializer, which is what makes the
//! server's "resubmit ≡ cold solve, byte-identical" contract testable over
//! the wire.

use slade_core::bin_set::BinSet;
use slade_core::plan::{DecompositionPlan, PlanAudit};
use slade_core::solver::Algorithm;
use slade_core::task::Workload;
use slade_engine::{EngineError, EngineRequest, ResolvedPlan, WorkloadDelta};
use slade_json::{self as json, member, Json};
use std::sync::Arc;

/// The protocol verbs: the unknown-op error lists them, and the server
/// derives its per-verb counters, latency histograms and `stats` members
/// from this one table.
pub const VERBS: [&str; 11] = [
    "solve", "batch", "resubmit", "claim", "release", "stats", "metrics", "trace", "health",
    "profile", "shutdown",
];

/// One parsed protocol request.
#[derive(Debug)]
pub enum Request {
    /// Solve one instance; optionally retain the resolved plan under `id`.
    Solve {
        /// The engine request to run.
        request: EngineRequest,
        /// Session-scoped plan id to retain the result under, for
        /// follow-up `resubmit`s.
        id: Option<String>,
        /// Whether the response should embed the full plan.
        want_plan: bool,
        /// Pipelining tag; `Some` makes this request non-blocking (see the
        /// module docs).
        seq: Option<Json>,
        /// Whether the client opted into end-to-end tracing.
        trace: bool,
    },
    /// Solve several instances concurrently, summaries in request order.
    Batch {
        /// The engine requests, in order.
        requests: Vec<EngineRequest>,
        /// Pipelining tag; `Some` makes this request non-blocking.
        seq: Option<Json>,
        /// Whether the client opted into end-to-end tracing.
        trace: bool,
    },
    /// Re-solve a retained plan under a workload delta.
    Resubmit {
        /// The plan id chosen at `solve` time.
        id: String,
        /// The workload change to apply.
        delta: WorkloadDelta,
        /// Whether the response should embed the full plan.
        want_plan: bool,
        /// Pipelining tag; `Some` makes this request non-blocking.
        seq: Option<Json>,
        /// Whether the client opted into end-to-end tracing.
        trace: bool,
    },
    /// Take the lease on a stored plan id for this session.
    Claim {
        /// The plan id to lease.
        id: String,
    },
    /// Give up this session's lease on a stored plan id.
    Release {
        /// The plan id to unlease.
        id: String,
    },
    /// Report server counters.
    Stats,
    /// Report the full observability snapshot (counters, gauges, latency
    /// histogram quantiles).
    Metrics,
    /// Report the newest completed request spans, oldest first.
    Trace {
        /// Cap on the number of spans returned (the newest ones win).
        limit: Option<usize>,
    },
    /// Report readiness computed from live signals (queue saturation,
    /// windowed timeout/error rate, cache-eviction pressure, sessions).
    Health,
    /// Report the per-phase wall-time breakdown aggregated from the newest
    /// completed request spans.
    Profile {
        /// Cap on the number of spans aggregated (the newest ones win).
        limit: Option<usize>,
    },
    /// Drain and stop the server.
    Shutdown,
}

impl Request {
    /// The request's verb, spelled as in [`VERBS`].
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Solve { .. } => "solve",
            Request::Batch { .. } => "batch",
            Request::Resubmit { .. } => "resubmit",
            Request::Claim { .. } => "claim",
            Request::Release { .. } => "release",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Trace { .. } => "trace",
            Request::Health => "health",
            Request::Profile { .. } => "profile",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Parses one request line. Errors are plain strings; the caller decides
/// how to frame them (the server as an error response, the CLI with a line
/// number prefix).
pub fn parse_request(line: &str, default_bins: &Arc<BinSet>) -> Result<Request, String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let Some(members) = value.members() else {
        return Err(format!("expected a JSON object, got {}", value.type_name()));
    };
    let op = match value.get("op") {
        None => "solve",
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("`op` must be a string, got {}", v.type_name()))?,
    };
    match op {
        "solve" => {
            let request =
                parse_engine_request(&value, default_bins, &["op", "id", "plan", "seq", "trace"])?;
            Ok(Request::Solve {
                request,
                id: optional_string(&value, "id")?,
                want_plan: optional_bool(&value, "plan")?,
                seq: optional_seq(&value)?,
                trace: optional_bool(&value, "trace")?,
            })
        }
        "batch" => {
            for (key, _) in members {
                if !matches!(key.as_str(), "op" | "requests" | "seq" | "trace") {
                    return Err(format!(
                        "unknown field `{key}` for `batch` (expected op, requests, seq, trace)"
                    ));
                }
            }
            let items = value
                .get("requests")
                .and_then(Json::as_array)
                .ok_or("`batch` needs a `requests` array")?;
            let requests = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    parse_engine_request(item, default_bins, &[])
                        .map_err(|e| format!("request {i}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Batch {
                requests,
                seq: optional_seq(&value)?,
                trace: optional_bool(&value, "trace")?,
            })
        }
        "resubmit" => {
            for (key, _) in members {
                if !matches!(
                    key.as_str(),
                    "op" | "id" | "delta" | "plan" | "seq" | "trace"
                ) {
                    return Err(format!(
                        "unknown field `{key}` for `resubmit` \
                         (expected op, id, delta, plan, seq, trace)"
                    ));
                }
            }
            let id = optional_string(&value, "id")?
                .ok_or("`resubmit` needs the `id` of a retained plan")?;
            let delta = value.get("delta").ok_or("`resubmit` needs a `delta`")?;
            Ok(Request::Resubmit {
                id,
                delta: parse_delta(delta)?,
                want_plan: optional_bool(&value, "plan")?,
                seq: optional_seq(&value)?,
                trace: optional_bool(&value, "trace")?,
            })
        }
        "claim" | "release" => {
            // Like stats/shutdown, lease moves are deliberately
            // un-pipelinable: a lease answers at its position in the
            // request stream, so `seq` is an unknown field here.
            for (key, _) in members {
                if !matches!(key.as_str(), "op" | "id") {
                    return Err(format!(
                        "unknown field `{key}` for `{op}` (expected op, id)"
                    ));
                }
            }
            let id = optional_string(&value, "id")?.ok_or(format!("`{op}` needs a plan `id`"))?;
            Ok(if op == "claim" {
                Request::Claim { id }
            } else {
                Request::Release { id }
            })
        }
        "stats" | "metrics" | "health" | "shutdown" => {
            for (key, _) in members {
                if key != "op" {
                    return Err(format!("unknown field `{key}` for `{op}`"));
                }
            }
            Ok(match op {
                "stats" => Request::Stats,
                "metrics" => Request::Metrics,
                "health" => Request::Health,
                _ => Request::Shutdown,
            })
        }
        "trace" | "profile" => {
            // Like stats, trace/profile reads answer in line, at their
            // position in the request stream — `seq` is an unknown field
            // here.
            for (key, _) in members {
                if !matches!(key.as_str(), "op" | "limit") {
                    return Err(format!(
                        "unknown field `{key}` for `{op}` (expected op, limit)"
                    ));
                }
            }
            let limit = match value.get("limit") {
                None => None,
                Some(v) => Some(json_u32(v, "`limit`")? as usize),
            };
            Ok(if op == "trace" {
                Request::Trace { limit }
            } else {
                Request::Profile { limit }
            })
        }
        other => Err(format!(
            "unknown op `{other}`; expected one of: {}",
            VERBS.join(", ")
        )),
    }
}

/// Parses a [`WorkloadDelta`] object: exactly one of `{"resize": n}`,
/// `{"set_thresholds": [[task, t], ...]}`, `{"append": [t, ...]}`.
fn parse_delta(value: &Json) -> Result<WorkloadDelta, String> {
    let expected = "`delta` must be an object with exactly one of: \
                    resize, set_thresholds, append";
    let members = value.members().ok_or(expected)?;
    let [(verb, payload)] = members else {
        return Err(expected.to_string());
    };
    match verb.as_str() {
        "resize" => Ok(WorkloadDelta::Resize(json_u32(payload, "`resize`")?)),
        "set_thresholds" => {
            let pairs = payload
                .as_array()
                .ok_or("`set_thresholds` must be an array of [task, threshold] pairs")?;
            let changes = pairs
                .iter()
                .map(|pair| {
                    let [task, threshold] = pair.as_array().unwrap_or(&[]) else {
                        return Err(
                            "each `set_thresholds` entry must be a [task, threshold] pair"
                                .to_string(),
                        );
                    };
                    Ok((
                        json_u32(task, "`set_thresholds` task id")?,
                        json_f64(threshold, "`set_thresholds` threshold")?,
                    ))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(WorkloadDelta::SetThresholds(changes))
        }
        "append" => {
            let items = payload
                .as_array()
                .ok_or("`append` must be an array of thresholds")?;
            let thresholds = items
                .iter()
                .map(|t| json_f64(t, "`append` threshold"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(WorkloadDelta::Append(thresholds))
        }
        other => Err(format!(
            "unknown delta verb `{other}`; expected one of: resize, set_thresholds, append"
        )),
    }
}

/// Parses the engine fields of a request object into an [`EngineRequest`].
///
/// `extra_allowed` names protocol-level members (e.g. `op`, `id`) that may
/// accompany the engine fields; anything else unknown is rejected, the same
/// strictness `slade-cli batch` has always had. All fields are optional;
/// the defaults are the paper's Example 9 instance.
pub fn parse_engine_request(
    value: &Json,
    default_bins: &Arc<BinSet>,
    extra_allowed: &[&str],
) -> Result<EngineRequest, String> {
    const ENGINE_FIELDS: [&str; 6] = [
        "algorithm",
        "tasks",
        "threshold",
        "thresholds",
        "bins",
        "seed",
    ];
    let Some(members) = value.members() else {
        return Err(format!("expected a JSON object, got {}", value.type_name()));
    };
    for (key, _) in members {
        if !ENGINE_FIELDS.contains(&key.as_str()) && !extra_allowed.contains(&key.as_str()) {
            let mut expected: Vec<&str> = ENGINE_FIELDS.to_vec();
            expected.extend(extra_allowed);
            return Err(format!(
                "unknown field `{key}` (expected {})",
                expected.join(", ")
            ));
        }
    }

    let algorithm = match value.get("algorithm") {
        None => Algorithm::OpqBased,
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("`algorithm` must be a string, got {}", v.type_name()))?
            .parse()
            .map_err(|e| format!("{e}"))?,
    };

    let bins = match value.get("bins") {
        None => Arc::clone(default_bins),
        Some(v) => {
            let rows = v
                .as_array()
                .ok_or("`bins` must be an array of [l, r, c] triples")?;
            let mut triples = Vec::with_capacity(rows.len());
            for row in rows {
                let fields = row.as_array().unwrap_or(&[]);
                let [l, r, c] = fields else {
                    return Err("each bin must be an [l, r, c] triple".to_string());
                };
                triples.push((
                    json_u32(l, "bin cardinality")?,
                    json_f64(r, "bin confidence")?,
                    json_f64(c, "bin cost")?,
                ));
            }
            Arc::new(BinSet::new(triples).map_err(|e| e.to_string())?)
        }
    };

    let workload = match value.get("thresholds") {
        Some(v) => {
            // A request mixing both workload forms is rejected: silently
            // dropping a field would contradict the parser's strictness
            // everywhere else.
            for conflicting in ["tasks", "threshold"] {
                if value.get(conflicting).is_some() {
                    return Err(format!(
                        "`thresholds` conflicts with `{conflicting}`; give one or the other"
                    ));
                }
            }
            let items = v
                .as_array()
                .ok_or("`thresholds` must be an array of numbers")?;
            let thresholds = items
                .iter()
                .map(|t| json_f64(t, "threshold"))
                .collect::<Result<Vec<f64>, _>>()?;
            Workload::heterogeneous(thresholds)
        }
        None => {
            let tasks = match value.get("tasks") {
                None => 4,
                Some(v) => json_u32(v, "tasks")?,
            };
            let threshold = match value.get("threshold") {
                None => 0.95,
                Some(v) => json_f64(v, "threshold")?,
            };
            Workload::homogeneous(tasks, threshold)
        }
    }
    .map_err(|e| e.to_string())?;

    let seed = match value.get("seed") {
        None => 0xC0FFEE,
        Some(v) => {
            let x = json_f64(v, "seed")?;
            if x < 0.0 || x.fract() != 0.0 || x > 9.007_199_254_740_992e15 {
                return Err(format!("`seed` must be a non-negative integer, got {x}"));
            }
            x as u64
        }
    };

    Ok(EngineRequest::new(algorithm, workload, bins).with_seed(seed))
}

fn json_f64(value: &Json, what: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("{what} must be a number, got {}", value.type_name()))
}

fn json_u32(value: &Json, what: &str) -> Result<u32, String> {
    let x = json_f64(value, what)?;
    if x < 0.0 || x.fract() != 0.0 || x > f64::from(u32::MAX) {
        return Err(format!("{what} must be a non-negative integer, got {x}"));
    }
    Ok(x as u32)
}

fn optional_string(value: &Json, key: &str) -> Result<Option<String>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("`{key}` must be a string, got {}", v.type_name())),
    }
}

fn optional_bool(value: &Json, key: &str) -> Result<bool, String> {
    match value.get(key) {
        None => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(v) => Err(format!("`{key}` must be a boolean, got {}", v.type_name())),
    }
}

/// Parses the optional pipelining tag: a string, or a non-negative integer
/// strictly below 2⁵³ — the range in which every integer has a unique
/// `f64` representation, so the echoed tag is always byte-identical to
/// what the client sent and distinct tags can never collide. (At 2⁵³
/// itself, 2⁵³ and 2⁵³+1 already parse to the same double.)
fn optional_seq(value: &Json) -> Result<Option<Json>, String> {
    match value.get("seq") {
        None => Ok(None),
        Some(v @ Json::String(_)) => Ok(Some(v.clone())),
        Some(v @ Json::Number(x)) => {
            if *x < 0.0 || x.fract() != 0.0 || *x >= 9.007_199_254_740_992e15 {
                return Err(format!(
                    "`seq` must be a string or a non-negative integer below 2^53, got {x}"
                ));
            }
            Ok(Some(v.clone()))
        }
        Some(v) => Err(format!(
            "`seq` must be a string or a non-negative integer, got {}",
            v.type_name()
        )),
    }
}

/// Best-effort recovery of a valid `seq` tag from a request line that
/// failed parsing, so even the error response can echo the tag and a
/// pipelining client can correlate it. `None` when the line has no
/// recoverable tag (unparseable JSON, missing or invalid `seq`).
pub fn recover_seq(line: &str) -> Option<Json> {
    let value = json::parse(line).ok()?;
    optional_seq(&value).ok().flatten()
}

/// The canonical JSON form of a [`DecompositionPlan`]: algorithm label,
/// accumulated cost, and every posted bin with its task assignment. Costs
/// and thresholds serialize in shortest-round-trip form, so two plans are
/// byte-identical here exactly when they are byte-identical in memory.
pub fn plan_to_json(plan: &DecompositionPlan) -> Json {
    Json::Object(vec![
        member("algorithm", Json::string(plan.algorithm())),
        member("total_cost", Json::number(plan.total_cost())),
        member(
            "bins",
            Json::Array(
                plan.bins()
                    .map(|bin| {
                        Json::Object(vec![
                            member("cardinality", Json::number(f64::from(bin.cardinality()))),
                            member(
                                "tasks",
                                Json::Array(
                                    bin.tasks()
                                        .iter()
                                        .map(|&t| Json::number(f64::from(t)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The summary members shared by every solve-shaped response — the CLI's
/// `batch` result lines and the server's `solve`/`batch`/`resubmit`
/// responses are all assembled from this one function, so their field
/// names and value formatting cannot drift apart.
pub fn plan_summary_members(
    algorithm: Algorithm,
    workload: &Workload,
    audit: &PlanAudit,
) -> Vec<(String, Json)> {
    vec![
        member("algorithm", Json::string(algorithm.name())),
        member("tasks", Json::number(f64::from(workload.len()))),
        member("bins_posted", Json::number(audit.bins_posted as f64)),
        member("cost", Json::number(audit.total_cost)),
        member("feasible", Json::Bool(audit.feasible)),
    ]
}

/// One request's entry in a batch answer: `{"request": index, …summary}`
/// for a resolved plan, `{"request": index, "error": …}` for a failure.
/// The CLI's `batch` result lines and the server's `batch` response both
/// come from here, so the two cannot drift apart.
pub fn batch_entry(index: usize, result: &Result<ResolvedPlan, EngineError>) -> Json {
    let mut members = vec![member("request", Json::number(index as f64))];
    match result {
        Ok(resolved) => {
            let audit = resolved
                .plan()
                .validate(resolved.workload(), resolved.bins())
                .expect("engine plans are structurally valid");
            members.extend(plan_summary_members(
                resolved.algorithm(),
                resolved.workload(),
                &audit,
            ));
        }
        Err(e) => members.push(member("error", Json::string(e.to_string()))),
    }
    Json::Object(members)
}

/// A structured error response; `op` is included when the failing verb is
/// known (parse failures happen before the verb is), `seq` when the failing
/// request was tagged (so pipelining clients can correlate the error).
pub fn error_response(op: Option<&str>, seq: Option<&Json>, message: &str) -> Json {
    coded_error_response(op, seq, None, message)
}

/// [`error_response`] with an optional machine-readable `code` member (see
/// the module docs' code table) placed between `seq` and `error`, so
/// clients can branch on conflicts without parsing the message text.
pub fn coded_error_response(
    op: Option<&str>,
    seq: Option<&Json>,
    code: Option<&str>,
    message: &str,
) -> Json {
    let mut members = vec![member("ok", Json::Bool(false))];
    if let Some(op) = op {
        members.push(member("op", Json::string(op)));
    }
    if let Some(seq) = seq {
        members.push(member("seq", seq.clone()));
    }
    if let Some(code) = code {
        members.push(member("code", Json::string(code)));
    }
    members.push(member("error", Json::string(message)));
    Json::Object(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bins() -> Arc<BinSet> {
        Arc::new(BinSet::paper_example())
    }

    #[test]
    fn bare_object_defaults_to_example9_solve() {
        let Request::Solve {
            request,
            id,
            want_plan,
            seq,
            trace,
        } = parse_request("{}", &bins()).unwrap()
        else {
            panic!("expected a solve");
        };
        assert_eq!(request.algorithm, Algorithm::OpqBased);
        assert_eq!(request.workload.len(), 4);
        assert!(id.is_none() && !want_plan && seq.is_none() && !trace);
    }

    #[test]
    fn solve_accepts_protocol_members_alongside_engine_fields() {
        let line = r#"{"op":"solve","id":"w","plan":true,"algorithm":"greedy","tasks":7}"#;
        let Request::Solve {
            request,
            id,
            want_plan,
            seq,
            ..
        } = parse_request(line, &bins()).unwrap()
        else {
            panic!("expected a solve");
        };
        assert_eq!(request.algorithm, Algorithm::Greedy);
        assert_eq!(request.workload.len(), 7);
        assert_eq!(id.as_deref(), Some("w"));
        assert!(want_plan && seq.is_none());
    }

    #[test]
    fn seq_tags_parse_on_every_pipelinable_verb() {
        let Request::Solve { seq, .. } = parse_request(r#"{"tasks":4,"seq":7}"#, &bins()).unwrap()
        else {
            panic!("expected a solve");
        };
        assert_eq!(seq, Some(Json::Number(7.0)));

        let Request::Solve { seq, .. } =
            parse_request(r#"{"op":"solve","seq":"alpha-1"}"#, &bins()).unwrap()
        else {
            panic!("expected a solve");
        };
        assert_eq!(seq, Some(Json::string("alpha-1")));

        let Request::Batch { seq, requests, .. } =
            parse_request(r#"{"op":"batch","requests":[{}],"seq":0}"#, &bins()).unwrap()
        else {
            panic!("expected a batch");
        };
        assert_eq!(seq, Some(Json::Number(0.0)));
        assert_eq!(requests.len(), 1);

        let line = r#"{"op":"resubmit","id":"w","delta":{"resize":9},"seq":"r"}"#;
        let Request::Resubmit { seq, .. } = parse_request(line, &bins()).unwrap() else {
            panic!("expected a resubmit");
        };
        assert_eq!(seq, Some(Json::string("r")));
    }

    #[test]
    fn invalid_seq_tags_are_rejected_with_reasons() {
        for (line, needle) in [
            (r#"{"tasks":4,"seq":true}"#, "`seq` must be a string"),
            (r#"{"tasks":4,"seq":-1}"#, "`seq` must be a string"),
            (r#"{"tasks":4,"seq":1.5}"#, "`seq` must be a string"),
            (r#"{"tasks":4,"seq":null}"#, "`seq` must be a string"),
            // 2^53: the first integer whose f64 neighbors collide — distinct
            // client tags must never alias, so the boundary is excluded.
            (
                r#"{"tasks":4,"seq":9007199254740992}"#,
                "`seq` must be a string",
            ),
            // stats and shutdown are deliberately un-pipelinable: their
            // semantics are tied to their position in the request stream.
            (r#"{"op":"stats","seq":1}"#, "unknown field `seq`"),
            (r#"{"op":"shutdown","seq":1}"#, "unknown field `seq`"),
        ] {
            let err = parse_request(line, &bins()).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // The largest uniquely-representable integer is still accepted.
        let Request::Solve { seq, .. } =
            parse_request(r#"{"tasks":4,"seq":9007199254740991}"#, &bins()).unwrap()
        else {
            panic!("expected a solve");
        };
        assert_eq!(seq, Some(Json::Number(9_007_199_254_740_991.0)));
    }

    #[test]
    fn claim_and_release_parse_strictly() {
        let Request::Claim { id } = parse_request(r#"{"op":"claim","id":"w"}"#, &bins()).unwrap()
        else {
            panic!("expected a claim");
        };
        assert_eq!(id, "w");
        let Request::Release { id } =
            parse_request(r#"{"op":"release","id":"w2"}"#, &bins()).unwrap()
        else {
            panic!("expected a release");
        };
        assert_eq!(id, "w2");

        // Lease moves are un-pipelinable (their effect is tied to stream
        // position, like stats) and take nothing but an id.
        for (line, needle) in [
            (r#"{"op":"claim"}"#, "`claim` needs a plan `id`"),
            (r#"{"op":"release"}"#, "`release` needs a plan `id`"),
            (r#"{"op":"claim","id":"w","seq":1}"#, "unknown field `seq`"),
            (
                r#"{"op":"release","id":"w","seq":"a"}"#,
                "unknown field `seq`",
            ),
            (r#"{"op":"claim","id":"w","plan":true}"#, "unknown field"),
            (r#"{"op":"claim","id":7}"#, "`id` must be a string"),
        ] {
            let err = parse_request(line, &bins()).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn coded_errors_place_code_between_seq_and_error() {
        let coded = coded_error_response(
            Some("resubmit"),
            Some(&Json::Number(3.0)),
            Some("lease_conflict"),
            "plan id `w` is leased by session 2",
        );
        assert_eq!(
            coded.to_string(),
            concat!(
                r#"{"ok":false,"op":"resubmit","seq":3,"code":"lease_conflict","#,
                r#""error":"plan id `w` is leased by session 2"}"#
            )
        );
        // No code → byte-identical to the plain error shape.
        assert_eq!(
            coded_error_response(Some("solve"), None, None, "boom"),
            error_response(Some("solve"), None, "boom")
        );
    }

    #[test]
    fn recover_seq_salvages_valid_tags_from_rejected_lines() {
        // A tagged line that fails engine-field parsing still yields its
        // tag, so the server's error response can echo it.
        assert_eq!(
            recover_seq(r#"{"algorithm":"bogus","seq":7}"#),
            Some(Json::Number(7.0))
        );
        assert_eq!(
            recover_seq(r#"{"frob":1,"seq":"a"}"#),
            Some(Json::string("a"))
        );
        // Nothing recoverable: unparseable JSON, missing tag, invalid tag.
        assert_eq!(recover_seq("{oops}"), None);
        assert_eq!(recover_seq(r#"{"tasks":4}"#), None);
        assert_eq!(recover_seq(r#"{"tasks":4,"seq":true}"#), None);
    }

    #[test]
    fn resubmit_parses_every_delta_verb() {
        let cases = [
            (
                r#"{"op":"resubmit","id":"w","delta":{"resize":100}}"#,
                WorkloadDelta::Resize(100),
            ),
            (
                r#"{"op":"resubmit","id":"w","delta":{"set_thresholds":[[0,0.9],[2,0.7]]}}"#,
                WorkloadDelta::SetThresholds(vec![(0, 0.9), (2, 0.7)]),
            ),
            (
                r#"{"op":"resubmit","id":"w","delta":{"append":[0.5,0.6]}}"#,
                WorkloadDelta::Append(vec![0.5, 0.6]),
            ),
        ];
        for (line, expected) in cases {
            let Request::Resubmit { id, delta, .. } = parse_request(line, &bins()).unwrap() else {
                panic!("expected a resubmit: {line}");
            };
            assert_eq!(id, "w");
            assert_eq!(delta, expected);
        }
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        let cases = [
            ("{oops}", "invalid JSON"),
            ("[1,2]", "expected a JSON object"),
            (r#"{"op":"frobnicate"}"#, "unknown op `frobnicate`"),
            (r#"{"op":"solve","frob":1}"#, "unknown field `frob`"),
            (r#"{"op":"stats","x":1}"#, "unknown field `x`"),
            (
                r#"{"op":"resubmit","delta":{"resize":5}}"#,
                "needs the `id`",
            ),
            (r#"{"op":"resubmit","id":"w"}"#, "needs a `delta`"),
            (
                r#"{"op":"resubmit","id":"w","delta":{"resize":5,"append":[0.5]}}"#,
                "exactly one",
            ),
            (
                r#"{"op":"resubmit","id":"w","delta":{"grow":5}}"#,
                "unknown delta verb `grow`",
            ),
            (r#"{"op":"batch"}"#, "needs a `requests` array"),
            (
                r#"{"op":"batch","requests":[{},{"task":1}]}"#,
                "request 1: unknown field `task`",
            ),
            (r#"{"thresholds":[0.5],"tasks":2}"#, "conflicts"),
            (r#"{"op":"solve","plan":"yes"}"#, "`plan` must be a boolean"),
        ];
        for (line, needle) in cases {
            let err = parse_request(line, &bins()).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // The unknown-op message lists every verb.
        let err = parse_request(r#"{"op":"nope"}"#, &bins()).unwrap_err();
        for verb in VERBS {
            assert!(err.contains(verb), "missing {verb} in: {err}");
        }
    }

    #[test]
    fn every_verb_parses_into_a_request_of_that_verb() {
        // The smallest valid line for each verb; the verbs with required
        // members get them.
        let minimal = |verb: &str| match verb {
            "batch" => r#"{"op":"batch","requests":[]}"#.to_string(),
            "resubmit" => r#"{"op":"resubmit","id":"w","delta":{"resize":2}}"#.to_string(),
            "claim" | "release" => format!(r#"{{"op":"{verb}","id":"w"}}"#),
            _ => format!(r#"{{"op":"{verb}"}}"#),
        };
        for verb in VERBS {
            let request = parse_request(&minimal(verb), &bins())
                .unwrap_or_else(|e| panic!("`{verb}` does not parse: {e}"));
            assert_eq!(request.verb(), verb);
        }
        let distinct: std::collections::HashSet<&str> = VERBS.into_iter().collect();
        assert_eq!(distinct.len(), VERBS.len(), "VERBS has a duplicate");
    }

    #[test]
    fn metrics_and_trace_verbs_parse_strictly() {
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#, &bins()).unwrap(),
            Request::Metrics
        ));
        let Request::Trace { limit } = parse_request(r#"{"op":"trace"}"#, &bins()).unwrap() else {
            panic!("expected a trace");
        };
        assert_eq!(limit, None);
        let Request::Trace { limit } =
            parse_request(r#"{"op":"trace","limit":5}"#, &bins()).unwrap()
        else {
            panic!("expected a trace");
        };
        assert_eq!(limit, Some(5));

        // Both answer in line, at their stream position: un-pipelinable.
        for (line, needle) in [
            (r#"{"op":"metrics","seq":1}"#, "unknown field `seq`"),
            (r#"{"op":"trace","seq":1}"#, "unknown field `seq`"),
            (r#"{"op":"metrics","x":1}"#, "unknown field `x`"),
            (r#"{"op":"trace","limit":-1}"#, "non-negative integer"),
            (r#"{"op":"trace","limit":1.5}"#, "non-negative integer"),
        ] {
            let err = parse_request(line, &bins()).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn health_and_profile_verbs_parse_strictly() {
        assert!(matches!(
            parse_request(r#"{"op":"health"}"#, &bins()).unwrap(),
            Request::Health
        ));
        let Request::Profile { limit } = parse_request(r#"{"op":"profile"}"#, &bins()).unwrap()
        else {
            panic!("expected a profile");
        };
        assert_eq!(limit, None);
        let Request::Profile { limit } =
            parse_request(r#"{"op":"profile","limit":3}"#, &bins()).unwrap()
        else {
            panic!("expected a profile");
        };
        assert_eq!(limit, Some(3));

        // Both answer in line, at their stream position: un-pipelinable.
        for (line, needle) in [
            (r#"{"op":"health","seq":1}"#, "unknown field `seq`"),
            (r#"{"op":"profile","seq":1}"#, "unknown field `seq`"),
            (r#"{"op":"health","limit":2}"#, "unknown field `limit`"),
            (r#"{"op":"profile","x":1}"#, "unknown field `x`"),
            (r#"{"op":"profile","limit":-1}"#, "non-negative integer"),
        ] {
            let err = parse_request(line, &bins()).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn trace_opt_in_parses_on_every_traceable_verb() {
        let Request::Solve { trace, .. } =
            parse_request(r#"{"tasks":4,"trace":true}"#, &bins()).unwrap()
        else {
            panic!("expected a solve");
        };
        assert!(trace);
        let Request::Batch { trace, .. } =
            parse_request(r#"{"op":"batch","requests":[{}],"trace":true}"#, &bins()).unwrap()
        else {
            panic!("expected a batch");
        };
        assert!(trace);
        let line = r#"{"op":"resubmit","id":"w","delta":{"resize":9},"trace":false}"#;
        let Request::Resubmit { trace, .. } = parse_request(line, &bins()).unwrap() else {
            panic!("expected a resubmit");
        };
        assert!(!trace);
        let err = parse_request(r#"{"tasks":4,"trace":1}"#, &bins()).unwrap_err();
        assert!(err.contains("`trace` must be a boolean"), "{err}");
        // Lease moves and stats stay untraceable — stream-position verbs
        // have no engine lifecycle to trace.
        let err = parse_request(r#"{"op":"claim","id":"w","trace":true}"#, &bins()).unwrap_err();
        assert!(err.contains("unknown field `trace`"), "{err}");
    }

    #[test]
    fn plan_json_is_byte_stable_across_identical_solves() {
        use slade_core::solver::PreparedSolver;
        let bins = bins();
        let workload = Workload::homogeneous(4, 0.95).unwrap();
        let a = slade_core::opq_based::OpqBased::default()
            .solve(&workload, &bins)
            .unwrap();
        let b = slade_core::opq_based::OpqBased::default()
            .solve(&workload, &bins)
            .unwrap();
        let (ja, jb) = (plan_to_json(&a), plan_to_json(&b));
        assert_eq!(ja, jb);
        assert_eq!(ja.to_string(), jb.to_string());
        // And the serialized form parses back to the same value.
        assert_eq!(json::parse(&ja.to_string()).unwrap(), ja);
        assert!(ja.to_string().contains("\"algorithm\":\"OpqBased\""));
    }
}
