//! The lease verbs — `claim` and `release` — and the mapping of plan-store
//! verdicts onto responses, which the engine verbs share.

use crate::protocol;
use crate::session::Session;
use slade_engine::{FinishOutcome, ResolvedPlan, StoreError};
use slade_json::{member, Json};

use super::engine::resolved_response;

impl Session<'_> {
    /// Runs a `claim` or `release` verb against the shared store.
    pub(crate) fn run_lease_move(&self, op: &'static str, id: &str) -> Json {
        let moved = match op {
            "claim" => self.shared.store.claim(self.sid, id),
            _ => self.shared.store.release(self.sid, id),
        };
        match moved {
            Err(e) => self.store_error(op, None, &e),
            Ok(()) => Json::Object(vec![
                member("ok", Json::Bool(true)),
                member("op", Json::string(op)),
                member("id", Json::string(id)),
                member("session", Json::number(self.sid as f64)),
            ]),
        }
    }

    /// Maps a [`StoreError`] onto a coded error response. Same-session
    /// pending conflicts name the producing request's `seq` tag (the
    /// pipelining client should wait for that response); cross-session
    /// conflicts name the producing session instead.
    pub(crate) fn store_error(&self, op: &str, seq: Option<&Json>, error: &StoreError) -> Json {
        self.shared.counters.count_error();
        let (code, message) = match error {
            StoreError::Pending {
                id,
                producer,
                seq: producer_seq,
            } => {
                let message = match producer_seq {
                    Some(tag) if *producer == self.sid => {
                        format!("plan id `{id}` is still being produced by in-flight seq {tag}")
                    }
                    _ => format!("plan id `{id}` is still being produced by session {producer}"),
                };
                ("pending_producer", message)
            }
            StoreError::LeaseHeld { .. } => ("lease_conflict", error.to_string()),
            StoreError::UnknownPlan { .. } => ("unknown_plan", error.to_string()),
        };
        protocol::coded_error_response(Some(op), seq, Some(code), &message)
    }

    /// Shapes a producer's response from the store's verdict on the plan it
    /// just landed. A normally applied plan answers as before; a plan that
    /// landed *unleased* (the producer lost the id to its own session drop
    /// mid-solve) still answers success but carries `"unleased":true` so
    /// the client knows its lease is gone; a discarded plan (the id was
    /// reassigned to another producer in the meantime) is a coded
    /// `plan_not_stored` error — reporting success would be a lie.
    pub(crate) fn outcome_response(
        &self,
        op: &'static str,
        id: &str,
        seq: Option<&Json>,
        outcome: FinishOutcome,
        resolved: &ResolvedPlan,
        want_plan: bool,
    ) -> Json {
        match outcome {
            FinishOutcome::Discarded => {
                self.shared.counters.count_error();
                protocol::coded_error_response(
                    Some(op),
                    seq,
                    Some("plan_not_stored"),
                    &format!(
                        "plan id `{id}` was reassigned while this request was solving; \
                         the result was not stored"
                    ),
                )
            }
            outcome => {
                let mut response = resolved_response(op, Some(id), seq, resolved, want_plan);
                if outcome == FinishOutcome::LandedUnleased {
                    if let Json::Object(members) = &mut response {
                        members.push(member("unleased", Json::Bool(true)));
                    }
                }
                response
            }
        }
    }
}
