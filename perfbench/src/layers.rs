//! The traced run's in-process side: times each layer by calling its public
//! functions on the same requests the server answers — `slade_json`,
//! `slade_server::protocol`, `PreparedSolver::{prepare, solve_with}`,
//! `DecompositionPlan::validate`, `Engine`, and `slade_engine::codec`.
//! These are spans recorded from outside the program, around the calls into
//! each layer; the server itself runs untraced.

use crate::check::{self, Step};
use crate::workload::{default_bins, shard_plan, CacheKeyModel, Chain};
use slade_core::baseline::{Baseline, BaselineConfig};
use slade_core::reliability;
use slade_core::solver::{Algorithm, PreparedSolver, SolveArtifacts};
use slade_engine::{codec, Engine, EngineConfig, ResolvedPlan, WorkloadDelta};
use slade_json::{member, Json};
use slade_server::protocol;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Bound on the artifacts the model cache keeps (cold traffic never
/// reuses one).
const MAX_MODEL_ARTIFACTS: usize = 1024;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// One step's in-process self times along the server's blocking path (µs).
#[derive(Debug, Clone, Default)]
pub struct StepTimes {
    pub json_parse: f64,
    /// `protocol::parse_request`, which includes `json_parse`.
    pub parse_request: f64,
    /// `Engine::solve_resolved` or `Engine::resubmit` wall time.
    pub engine: f64,
    /// Core work inside `engine` for solves: `prepare` of keys the cache
    /// misses plus every shard's `solve_with`.
    pub core: Option<f64>,
    pub prepare: f64,
    pub validate: f64,
    pub render: f64,
    /// `codec::encode` plus rendering the journal record, for steps that
    /// land a plan under an id on a journaled server.
    pub journal: f64,
}

impl StepTimes {
    /// Everything the server does for this step outside the wire.
    pub fn budget(&self) -> f64 {
        self.parse_request + self.engine + self.validate + self.render + self.journal
    }
}

/// In-process layer timings accumulated over a run's traced sample.
pub struct Layers {
    engine: Engine,
    journaled: bool,
    artifacts: HashMap<CacheKeyModel, Arc<dyn SolveArtifacts>>,
    /// Per solver: `prepare` µs per distinct key, `solve_with` µs per shard.
    pub prepare: BTreeMap<&'static str, Vec<f64>>,
    pub solve_with: BTreeMap<&'static str, Vec<f64>>,
    pub encode: Vec<f64>,
    pub decode: Vec<f64>,
    pub record_bytes: Vec<f64>,
    pub resubmit: Vec<f64>,
    pub reused_shards: u64,
    pub resubmit_shards: u64,
    pub steps: Vec<StepTimes>,
}

fn solver_for(algorithm: Algorithm, seed: u64) -> Box<dyn PreparedSolver + Send + Sync> {
    match algorithm {
        Algorithm::OpqBased => Box::new(EngineConfig::default().solver),
        Algorithm::Baseline => Box::new(Baseline {
            config: BaselineConfig {
                seed,
                ..BaselineConfig::default()
            },
        }),
        other => other.solver(),
    }
}

impl Layers {
    pub fn new(threads: usize, journaled: bool) -> Layers {
        Layers {
            engine: check::engine(threads),
            journaled,
            artifacts: HashMap::new(),
            prepare: BTreeMap::new(),
            solve_with: BTreeMap::new(),
            encode: Vec::new(),
            decode: Vec::new(),
            record_bytes: Vec::new(),
            resubmit: Vec::new(),
            reused_shards: 0,
            resubmit_shards: 0,
            steps: Vec::new(),
        }
    }

    /// Runs `chain` through every layer, appending one [`StepTimes`] per
    /// step to `self.steps` (when `keep`) and returning them.
    pub fn measure_chain(&mut self, chain: &Chain, keep: bool) -> Result<Vec<StepTimes>, String> {
        let bins = default_bins();
        let mut state: Option<ResolvedPlan> = None;
        let mut times = Vec::with_capacity(chain.steps.len());
        for line in &chain.steps {
            let mut t = StepTimes::default();
            let started = Instant::now();
            black_box(slade_json::parse(line).map_err(|e| e.to_string())?);
            t.json_parse = micros(started);
            let started = Instant::now();
            let request = black_box(protocol::parse_request(line, &bins)?);
            t.parse_request = micros(started);
            let step = check::step_of(request)?;

            let (resolved, response) = match &step {
                Step::Solve {
                    request,
                    id,
                    want_plan,
                } => {
                    let mut core = 0.0;
                    for shard in shard_plan(request) {
                        let solver = solver_for(shard.key.1, request.seed);
                        let name = shard.key.1.name();
                        let artifacts = match self.artifacts.get(&shard.key) {
                            Some(artifacts) => Arc::clone(artifacts),
                            None => {
                                let started = Instant::now();
                                let artifacts = solver
                                    .prepare(&request.bins, reliability::theta(shard.threshold))
                                    .map_err(|e| e.to_string())?;
                                let us = micros(started);
                                t.prepare += us;
                                self.prepare.entry(name).or_default().push(us);
                                if self.artifacts.len() >= MAX_MODEL_ARTIFACTS {
                                    self.artifacts.clear();
                                }
                                self.artifacts.insert(shard.key, Arc::clone(&artifacts));
                                artifacts
                            }
                        };
                        let started = Instant::now();
                        black_box(
                            solver
                                .solve_with(artifacts.as_ref(), &shard.workload, &request.bins)
                                .map_err(|e| e.to_string())?,
                        );
                        let us = micros(started);
                        core += us;
                        self.solve_with.entry(name).or_default().push(us);
                    }
                    t.core = Some(core + t.prepare);
                    let started = Instant::now();
                    let resolved = self
                        .engine
                        .solve_resolved(request.clone())
                        .map_err(|e| e.to_string())?;
                    t.engine = micros(started);
                    let response =
                        check::response_json("solve", id.as_deref(), &resolved, *want_plan);
                    (resolved, response)
                }
                Step::Resubmit {
                    id,
                    delta,
                    want_plan,
                } => {
                    let prior = state.as_ref().ok_or("a resubmit needs a prior plan")?;
                    let resolved = self.timed_resubmit(prior, delta)?;
                    t.engine = *self.resubmit.last().expect("just pushed");
                    let response =
                        check::response_json("resubmit", Some(id), &resolved, *want_plan);
                    (resolved, response)
                }
            };

            let started = Instant::now();
            black_box(
                resolved
                    .plan()
                    .validate(resolved.workload(), resolved.bins())
                    .map_err(|e| e.to_string())?,
            );
            t.validate = micros(started);
            let started = Instant::now();
            black_box(response.to_string());
            t.render = micros(started);

            let journal = self.time_codec(chain.id.as_deref(), &resolved)?;
            if self.journaled && chain.id.is_some() {
                t.journal = journal;
            }
            if chain.id.is_none() {
                // Plans without an id are never resubmitted by the traffic;
                // time what a resubmit of one would cost (one more task at
                // the first task's threshold).
                let threshold = resolved.workload().threshold(0);
                self.timed_resubmit(&resolved, &WorkloadDelta::Append(vec![threshold]))?;
            }
            state = Some(resolved);
            times.push(t);
        }
        if keep {
            self.steps.extend(times.iter().cloned());
        }
        Ok(times)
    }

    fn timed_resubmit(
        &mut self,
        prior: &ResolvedPlan,
        delta: &WorkloadDelta,
    ) -> Result<ResolvedPlan, String> {
        let started = Instant::now();
        let resolved = self
            .engine
            .resubmit(prior, delta)
            .map_err(|e| e.to_string())?;
        self.resubmit.push(micros(started));
        self.reused_shards += resolved.reused_shards() as u64;
        self.resubmit_shards += resolved.shards() as u64;
        Ok(resolved)
    }

    /// Times the journal's work for one landed plan: `codec::encode`, the
    /// record rendering, and (off the request path) `codec::decode`.
    /// Returns the on-path part in µs.
    fn time_codec(&mut self, id: Option<&str>, resolved: &ResolvedPlan) -> Result<f64, String> {
        let started = Instant::now();
        let encoded = codec::encode(resolved);
        let encode = micros(started);
        let record = Json::Object(vec![
            member("record", Json::string("land")),
            member("id", Json::string(id.unwrap_or("p0"))),
            member("plan", encoded),
        ]);
        let started = Instant::now();
        let line = format!("{record}\n");
        let render = micros(started);
        self.encode.push(encode);
        self.record_bytes.push(line.len() as f64);
        let Some(Json::Object(members)) = slade_json::parse(&line).ok() else {
            return Err("a journal record does not parse back".into());
        };
        let plan = &members
            .iter()
            .find(|(key, _)| key == "plan")
            .ok_or("a journal record lost its plan")?
            .1;
        let started = Instant::now();
        black_box(codec::decode(plan)?);
        self.decode.push(micros(started));
        Ok(encode + render)
    }
}
