//! The correctness gate: kept responses must equal, byte for byte, what an
//! untimed in-process engine answers for the same chain, and every chain's
//! final plan must equal a cold solve of its final workload.

use crate::workload::{default_bins, Chain, Mix};
use slade_engine::{Engine, EngineConfig, EngineRequest, ResolvedPlan, WorkloadDelta};
use slade_json::{member, Json};
use slade_server::protocol::{self, Request};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Kept chains the gate replays per run, at most (lowest indices first, so
/// the fixed list's sampled chains are always among them).
const MAX_CHECKED_CHAINS: usize = 400;

/// The response the server builds for a plan-producing answer: the shape
/// of the server's own response builder (`ok`, `op`, `id`, the shared
/// summary members, shard counters, and the optional plan).
pub fn response_json(op: &str, id: Option<&str>, resolved: &ResolvedPlan, want_plan: bool) -> Json {
    let audit = resolved
        .plan()
        .validate(resolved.workload(), resolved.bins())
        .expect("engine plans are structurally valid");
    let mut members = vec![
        member("ok", Json::Bool(true)),
        member("op", Json::string(op)),
    ];
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

/// An engine configured like the server's (`serve` defaults and the
/// benchmark's cache size).
pub fn engine(threads: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_capacity: crate::workload::CACHE_CAPACITY,
        ..EngineConfig::default()
    })
}

/// One chain step parsed into what the engine runs.
pub enum Step {
    Solve {
        request: EngineRequest,
        id: Option<String>,
        want_plan: bool,
    },
    Resubmit {
        id: String,
        delta: WorkloadDelta,
        want_plan: bool,
    },
}

pub fn parse_step(line: &str) -> Result<Step, String> {
    step_of(protocol::parse_request(line, &default_bins())?)
}

pub fn step_of(request: Request) -> Result<Step, String> {
    match request {
        Request::Solve {
            request,
            id,
            want_plan,
            ..
        } => Ok(Step::Solve {
            request,
            id,
            want_plan,
        }),
        Request::Resubmit {
            id,
            delta,
            want_plan,
            ..
        } => Ok(Step::Resubmit {
            id,
            delta,
            want_plan,
        }),
        other => Err(format!("not a chain step: {other:?}")),
    }
}

/// Runs one parsed step on `engine` after `prior` (the chain's previous
/// state); returns the new state and the expected response.
pub fn run_step(
    engine: &Engine,
    step: &Step,
    prior: Option<&ResolvedPlan>,
) -> Result<(ResolvedPlan, Json), String> {
    match step {
        Step::Solve {
            request,
            id,
            want_plan,
        } => {
            let resolved = engine
                .solve_resolved(request.clone())
                .map_err(|e| e.to_string())?;
            let response = response_json("solve", id.as_deref(), &resolved, *want_plan);
            Ok((resolved, response))
        }
        Step::Resubmit {
            id,
            delta,
            want_plan,
        } => {
            let prior = prior.ok_or("a resubmit needs a prior plan")?;
            let resolved = engine.resubmit(prior, delta).map_err(|e| e.to_string())?;
            let response = response_json("resubmit", Some(id), &resolved, *want_plan);
            Ok((resolved, response))
        }
    }
}

/// Replays steps `0..steps` of `chain`; returns each step's expected
/// response and the final state.
pub fn replay(
    engine: &Engine,
    chain: &Chain,
    steps: usize,
) -> Result<(Vec<String>, ResolvedPlan), String> {
    let mut expected = Vec::with_capacity(steps);
    let mut state: Option<ResolvedPlan> = None;
    for line in &chain.steps[..steps] {
        let (resolved, response) = run_step(engine, &parse_step(line)?, state.as_ref())?;
        expected.push(response.to_string());
        state = Some(resolved);
    }
    Ok((expected, state.ok_or("an empty replay")?))
}

/// Checks that `resolved` (a chain's final state) has the plan a cold
/// solve of its final workload gives.
fn check_against_cold_solve(
    engine: &Engine,
    first: &Step,
    resolved: &ResolvedPlan,
) -> Result<(), String> {
    let Step::Solve { request, .. } = first else {
        return Err("a chain starts with a solve".into());
    };
    let cold = engine
        .solve_resolved(
            EngineRequest::new(
                request.algorithm,
                resolved.workload().clone(),
                Arc::clone(resolved.bins()),
            )
            .with_seed(request.seed),
        )
        .map_err(|e| e.to_string())?;
    let plan = |r: &ResolvedPlan| protocol::plan_to_json(r.plan()).to_string();
    if plan(&cold) != plan(resolved) {
        return Err("a resubmit chain's final plan differs from a cold solve".into());
    }
    Ok(())
}

/// Replays every kept chain (up to [`MAX_CHECKED_CHAINS`]) and compares each
/// kept response with the in-process answer. Returns the number of
/// responses compared.
pub fn check_recorded(
    engine: &Engine,
    mix: Mix,
    seed: u64,
    recorded: &BTreeMap<(u64, usize), String>,
) -> Result<usize, String> {
    let mut by_chain: BTreeMap<u64, Vec<(usize, &String)>> = BTreeMap::new();
    for ((chain, step), response) in recorded {
        by_chain.entry(*chain).or_default().push((*step, response));
    }
    let mut compared = 0;
    for (index, responses) in by_chain.into_iter().take(MAX_CHECKED_CHAINS) {
        let chain = mix.chain(seed, index);
        let steps = responses
            .iter()
            .map(|(step, _)| step + 1)
            .max()
            .unwrap_or(0);
        let (expected, last) = replay(engine, &chain, steps)?;
        for (step, response) in responses {
            if **response != expected[step] {
                return Err(format!(
                    "chain {index} step {step}: the server answered\n  {response}\n\
                     but an in-process cold engine answers\n  {}",
                    expected[step]
                ));
            }
            compared += 1;
        }
        if steps > 1 {
            check_against_cold_solve(engine, &parse_step(&chain.steps[0])?, &last)?;
        }
    }
    Ok(compared)
}

/// The request that proves a server is up: Example 9, trivially cheap.
pub const UP_PROBE: &str = "{\"tasks\":4}";

/// Seed of the requests that time a stateless server's recovery: fixed, so
/// every run recovers through the same work whatever its own seed.
const RECOVERY_SEED: u64 = 0;

/// Requests that time a stateless server's recovery.
const RECOVERY_REQUESTS: u64 = 16;

/// A request a restarted server must answer, with the bytes it must
/// answer, plus the same request asking for the full plan.
pub struct Probe {
    pub line: String,
    pub expected: String,
    pub plan_line: String,
    pub plan_expected: String,
}

fn probe(line: &str, plan_line: String, engine: &Engine) -> Result<Probe, String> {
    let answer = |line: &str| -> Result<String, String> {
        let step = parse_step(line)?;
        Ok(run_step(engine, &step, None)?.1.to_string())
    };
    Ok(Probe {
        line: line.to_string(),
        expected: answer(line)?,
        plan_expected: answer(&plan_line)?,
        plan_line,
    })
}

/// What a restarted server must answer. Journaled: a no-op resubmit
/// (resize to the current size) of each plan id, which must reuse every
/// shard of the journaled plan; recovery is timed to the first answer.
/// Stateless: the first [`RECOVERY_REQUESTS`] requests of the mix under
/// [`RECOVERY_SEED`] (the cache was lost, so they pay its re-warming);
/// recovery is timed to the last answer.
pub fn recovery_probes(
    engine: &Engine,
    mix: Mix,
    slot_last: &BTreeMap<usize, (u64, usize)>,
    seed: u64,
) -> Result<Vec<Probe>, String> {
    if !mix.journaled() {
        return (0..RECOVERY_REQUESTS)
            .map(|index| {
                let line = mix.chain(RECOVERY_SEED, index).steps.remove(0);
                let plan_line = format!("{},\"plan\":true}}", &line[..line.len() - 1]);
                probe(&line, plan_line, engine)
            })
            .collect();
    }
    let mut probes = Vec::with_capacity(slot_last.len());
    for &(index, steps) in slot_last.values() {
        let chain = mix.chain(seed, index);
        let id = chain.id.clone().expect("journaled chains carry an id");
        let (_, last) = replay(engine, &chain, steps)?;
        let len = last.workload().len();
        let resolved = engine
            .resubmit(&last, &WorkloadDelta::Resize(len))
            .map_err(|e| e.to_string())?;
        if resolved.reused_shards() != resolved.shards() {
            return Err(format!("a no-op resubmit of {id} recomputed shards"));
        }
        let line =
            format!("{{\"op\":\"resubmit\",\"id\":\"{id}\",\"delta\":{{\"resize\":{len}}}}}");
        probes.push(Probe {
            plan_line: format!("{},\"plan\":true}}", &line[..line.len() - 1]),
            plan_expected: response_json("resubmit", Some(&id), &resolved, true).to_string(),
            expected: response_json("resubmit", Some(&id), &resolved, false).to_string(),
            line,
        });
    }
    Ok(probes)
}
