//! The verbs that run on the engine — `solve`, `batch` and `resubmit` —
//! and their response builders. Each has a start function, which the
//! reader runs, and one shared completion, which the writer runs.

use crate::protocol;
use crate::server::Shared;
use crate::session::{record_stage, PendingWork, Session};
use slade_engine::{
    EngineError, EngineRequest, RequestTrace, ResolvedPlan, ShardNotify, Submit, WorkloadDelta,
};
use slade_json::{member, Json};
use std::sync::Arc;

/// What [`Session::dispatch`] hands a verb's start function: the request's
/// tag (both `None` when untagged), its span, and the completion callback
/// that pings the session's writer.
pub(crate) struct Start<'a> {
    pub(crate) seq: Option<&'a Json>,
    pub(crate) seq_key: Option<&'a str>,
    pub(crate) span: &'a Option<RequestTrace>,
    pub(crate) notify: ShardNotify,
}

impl Start<'_> {
    /// The submit options of a fresh (non-resubmit) request.
    fn submit(&self) -> Submit<'static> {
        Submit {
            prior: None,
            notify: Some(Arc::clone(&self.notify)),
        }
    }
}

/// Attaches `span` (when the client opted in) to an engine request.
fn traced(request: EngineRequest, span: &Option<RequestTrace>) -> EngineRequest {
    match span {
        Some(span) => request.with_trace(Arc::clone(span)),
        None => request,
    }
}

impl Session<'_> {
    /// Starts a `solve`: marks a retained id pending, then submits the
    /// request through the middleware. `Err` is the (counted) error
    /// response.
    pub(crate) fn start_solve(
        &self,
        at: Start<'_>,
        request: EngineRequest,
        id: Option<String>,
        want_plan: bool,
    ) -> Result<PendingWork, Json> {
        if let Some(id) = &id {
            // An untagged producer marks the id pending too: its session
            // is blocked until the response, but *other* sessions race
            // freely and must see the same structured error.
            if let Err(e) = self.shared.store.begin_produce(self.sid, id, at.seq_key) {
                return Err(self.store_error("solve", at.seq, &e));
            }
        }
        let request = traced(self.shared.apply_middleware(request), at.span);
        record_stage(at.span, "dispatched");
        let handle = self.shared.engine.submit(request, at.submit());
        Ok(PendingWork::new("solve", id, want_plan, vec![handle]))
    }

    /// Starts a `resubmit`: becomes the id's producer, then submits the
    /// prior plan's request with `delta` applied, reusing its unchanged
    /// shards. `Err` is the (counted) error response.
    pub(crate) fn start_resubmit(
        &self,
        at: Start<'_>,
        id: String,
        delta: &WorkloadDelta,
        want_plan: bool,
    ) -> Result<PendingWork, Json> {
        // This request becomes the id's producer: concurrent resubmits of
        // one id — from this session or any other — would race each
        // other's retained state, so they queue behind the response.
        let prior = match self.shared.store.begin_resubmit(self.sid, &id, at.seq_key) {
            Ok(prior) => prior,
            Err(e) => return Err(self.store_error("resubmit", at.seq, &e)),
        };
        self.shared.counters.count_algorithm(prior.algorithm());
        record_stage(at.span, "dispatched");
        let request = match prior.resubmission(delta) {
            Ok(request) => traced(request, at.span),
            Err(e) => {
                let _ = self.shared.finish_store(self.sid, &id, None);
                self.shared.counters.count_error();
                let message = e.to_string();
                return Err(protocol::error_response(Some("resubmit"), at.seq, &message));
            }
        };
        let options = Submit {
            prior: Some(&prior),
            ..at.submit()
        };
        let handle = self.shared.engine.submit(request, options);
        Ok(PendingWork::new(
            "resubmit",
            Some(id),
            want_plan,
            vec![handle],
        ))
    }

    /// Starts a `batch`: submits every sub-request through the middleware
    /// up front, so their shards interleave freely in the pool.
    pub(crate) fn start_batch(&self, at: Start<'_>, requests: Vec<EngineRequest>) -> PendingWork {
        record_stage(at.span, "dispatched");
        let handles = requests
            .into_iter()
            .map(|request| {
                // Sub-requests share the batch's span: their shard stages
                // interleave on one timeline.
                let request = traced(self.shared.apply_middleware(request), at.span);
                self.shared.engine.submit(request, at.submit())
            })
            .collect();
        PendingWork::new("batch", None, false, handles)
    }

    /// Answers one started request from whatever its handles delivered —
    /// the one completion path of tagged and untagged `solve`, `resubmit`,
    /// and `batch` alike. A handle that has not delivered by now ran past
    /// the request deadline: its result is a timeout, counted in
    /// `ops.timeouts` and `timeouts.<verb>`.
    pub(crate) fn complete(
        &self,
        work: PendingWork,
        seq: Option<&Json>,
        span: &Option<RequestTrace>,
    ) -> Json {
        let shared = self.shared;
        let PendingWork {
            op,
            id,
            want_plan,
            results,
            ..
        } = work;
        if results.iter().any(Option::is_none) {
            shared.counters.count_timeout(op);
            record_stage(span, "expired");
        } else {
            record_stage(span, "merged");
        }
        let timeout = EngineError::Timeout {
            after: shared.request_timeout,
        };
        let mut results = results
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| Err(timeout.clone())));
        if op == "batch" {
            return batch_response(shared, results, seq);
        }
        match results.next().expect("solve and resubmit hold one handle") {
            Ok(resolved) => match id {
                None => resolved_response(op, None, seq, &resolved, want_plan),
                Some(id) => {
                    // Chained resubmits build on the latest state of the
                    // id — and the store's verdict shapes the response, so
                    // a producer that lost the id mid-solve never reports a
                    // false success.
                    let resolved = Arc::new(resolved);
                    let outcome = shared.finish_store(self.sid, &id, Some(Arc::clone(&resolved)));
                    self.outcome_response(op, &id, seq, outcome, &resolved, want_plan)
                }
            },
            Err(e) => {
                if let Some(id) = &id {
                    // A failed producer releases the id; the previously
                    // retained plan (if any) stays the id's current state.
                    let _ = shared.finish_store(self.sid, id, None);
                }
                shared.counters.count_error();
                protocol::error_response(Some(op), seq, &e.to_string())
            }
        }
    }
}

/// Assembles a solve/resubmit success response from a resolved plan; the
/// one builder for tagged and untagged requests alike, so their responses
/// cannot drift (a tagged response is the untagged bytes plus the echoed
/// `seq`).
pub(crate) fn resolved_response(
    op: &str,
    id: Option<&str>,
    seq: Option<&Json>,
    resolved: &ResolvedPlan,
    want_plan: bool,
) -> Json {
    let audit = resolved
        .plan()
        .validate(resolved.workload(), resolved.bins())
        .expect("engine plans are structurally valid");
    let mut members = vec![
        member("ok", Json::Bool(true)),
        member("op", Json::string(op)),
    ];
    if let Some(seq) = seq {
        members.push(member("seq", seq.clone()));
    }
    if let Some(id) = id {
        members.push(member("id", Json::string(id)));
    }
    members.extend(protocol::plan_summary_members(
        resolved.algorithm(),
        resolved.workload(),
        &audit,
    ));
    members.push(member("shards", Json::number(resolved.shards() as f64)));
    members.push(member(
        "reused_shards",
        Json::number(resolved.reused_shards() as f64),
    ));
    if want_plan {
        members.push(member("plan", protocol::plan_to_json(resolved.plan())));
    }
    Json::Object(members)
}

/// Assembles a batch response from per-request results (counting failures).
fn batch_response(
    shared: &Shared,
    results: impl Iterator<Item = Result<ResolvedPlan, EngineError>>,
    seq: Option<&Json>,
) -> Json {
    let mut entries = Vec::with_capacity(results.size_hint().0);
    for (i, result) in results.enumerate() {
        if result.is_err() {
            shared.counters.count_error();
        }
        entries.push(protocol::batch_entry(i, &result));
    }
    let mut members = vec![
        member("ok", Json::Bool(true)),
        member("op", Json::string("batch")),
    ];
    if let Some(seq) = seq {
        members.push(member("seq", seq.clone()));
    }
    members.push(member("results", Json::Array(entries)));
    Json::Object(members)
}
