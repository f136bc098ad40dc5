//! The three workloads, their set-up, and one timed pass over each.
//!
//! Every workload runs a fixed set of [`CAMPAIGNS`] 24-virtual-hour
//! campaigns on consecutive seeds derived from the benchmark seed, so
//! the deterministic metrics (edges, crashes) are a function of the
//! seed alone; a run repeats *passes* over that set until its time is
//! up. Each campaign is a closed loop: it waits for every prediction it
//! asks for.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snowplow_bench::day_config;
use snowplow_core::fleet::{
    fair_share_spread, CampaignSnapshot, FleetScheduler, InferenceClient, InferenceService,
};
use snowplow_core::fuzzing::{
    Campaign, CampaignReport, CampaignState, CorpusStore, FuzzerKind, RunningCampaign,
};
use snowplow_core::learning::{InferenceStats, QueryGraph};
use snowplow_core::prelude::{ServeError, Telemetry};
use snowplow_core::{train_pmm, ArgLoc, Kernel, KernelVersion, Pmm, Scale};

/// Campaigns per pass (days for the solo workloads, fleet members for
/// `fleet-4`).
pub const CAMPAIGNS: usize = 4;

/// Virtual time each fleet campaign gets per scheduling round.
const QUANTUM: Duration = Duration::from_secs(15 * 60);

/// Virtual hour at which `fleet-4` kills, serializes and resumes every
/// campaign.
const KILL_AT: Duration = Duration::from_secs(12 * 3600);

const ROUNDS_PER_STATE: u64 = STATE_EVERY.as_secs() / QUANTUM.as_secs();

/// Virtual interval between the campaign states a traced pass keeps
/// for the layer replay: eight per day, evenly spaced like the loop's
/// executions, so the replay sees the corpus at every stage of growth.
const STATE_EVERY: Duration = Duration::from_secs(3 * 3600);

/// Every `SAMPLE_EVERY`-th real query graph is kept for the isolated
/// re-prediction that answers whether in-loop predict time comes from
/// graph size or from interleaving with the rest of the loop.
const SAMPLE_EVERY: u64 = 4;
const MAX_SAMPLED_GRAPHS: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stock Syzkaller days on 6.8: the inference bypass.
    SyzDay,
    /// Snowplow days on 6.8 with an owned model: inference in the loop.
    SnowplowDay,
    /// Four shared-service campaigns on 6.10 with a kill/resume at
    /// hour 12: serving tier, shared store and snapshot codec.
    Fleet4,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SyzDay, Workload::SnowplowDay, Workload::Fleet4];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyzDay => "syz-day",
            Workload::SnowplowDay => "snowplow-day",
            Workload::Fleet4 => "fleet-4",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn uses_model(self) -> bool {
        self != Workload::SyzDay
    }

    /// Set-ups per untraced run; `setup_s` is their median. The cheap
    /// model-free set-up repeats more to steady its millisecond median.
    pub fn setup_repeats(self) -> usize {
        if self.uses_model() {
            3
        } else {
            9
        }
    }

    fn kernel_version(self) -> KernelVersion {
        match self {
            Workload::Fleet4 => KernelVersion::V6_10,
            _ => KernelVersion::V6_8,
        }
    }
}

/// Campaign seeds of one benchmark seed: `4n … 4n+3`.
pub fn campaign_seeds(seed: u64) -> [u64; CAMPAIGNS] {
    std::array::from_fn(|i| seed.wrapping_mul(CAMPAIGNS as u64).wrapping_add(i as u64))
}

/// FNV-1a 64 of a report fingerprint: a compact, process-independent
/// pin of everything a report contains.
pub fn fingerprint_hash(report: &CampaignReport) -> u64 {
    report
        .fingerprint()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The one place the benchmark builds a [`FuzzerKind`]: a learned
/// campaign reaches its model through an [`InferenceClient`].
fn fuzzer_kind(client: Option<ModelClient>) -> FuzzerKind {
    match client {
        None => FuzzerKind::Syzkaller,
        Some(client) => FuzzerKind::SnowplowShared {
            client: Box::new(client),
        },
    }
}

/// Prediction accounting shared between a [`ModelClient`] and the
/// benchmark.
#[derive(Default)]
pub struct PredictLog {
    calls: AtomicU64,
    errors: AtomicU64,
    /// Present only in traced passes.
    timed: Option<Mutex<PredictSamples>>,
}

#[derive(Default)]
pub struct PredictSamples {
    pub us: Vec<f64>,
    pub nodes: Vec<f64>,
    pub busy: Duration,
    pub graphs: Vec<QueryGraph>,
}

impl PredictLog {
    fn new(timed: bool) -> Arc<PredictLog> {
        Arc::new(PredictLog {
            timed: timed.then(Mutex::default),
            ..PredictLog::default()
        })
    }
}

/// An [`InferenceClient`] over an owned [`Pmm`] that counts calls and,
/// in traced passes, times each one and records the real query graphs.
struct ModelClient {
    model: Pmm,
    log: Arc<PredictLog>,
}

impl InferenceClient for ModelClient {
    fn predict(&mut self, graph: &QueryGraph) -> Result<Vec<(ArgLoc, f32)>, ServeError> {
        let call = self.log.calls.fetch_add(1, Ordering::Relaxed);
        let Some(samples) = &self.log.timed else {
            let out = InferenceClient::predict(&mut self.model, graph);
            if out.is_err() {
                self.log.errors.fetch_add(1, Ordering::Relaxed);
            }
            return out;
        };
        let start = Instant::now();
        let out = InferenceClient::predict(&mut self.model, graph);
        let elapsed = start.elapsed();
        if out.is_err() {
            self.log.errors.fetch_add(1, Ordering::Relaxed);
        }
        let mut s = samples.lock().expect("prediction log lock poisoned");
        s.us.push(elapsed.as_secs_f64() * 1e6);
        s.nodes.push(graph.node_count() as f64);
        s.busy += elapsed;
        if call.is_multiple_of(SAMPLE_EVERY) && s.graphs.len() < MAX_SAMPLED_GRAPHS {
            s.graphs.push(graph.clone());
        }
        out
    }
}

/// What one workload needs before its loop can run.
pub struct Env {
    pub workload: Workload,
    pub kernel: Kernel,
    pub model: Option<Pmm>,
    pub seeds: [u64; CAMPAIGNS],
}

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub kernel_build_s: f64,
    pub train_s: f64,
    pub ingest_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.kernel_build_s + self.train_s + self.ingest_s
    }
}

/// Builds the kernel(s), trains the model where the workload uses one
/// (always on 6.8, the paper's cross-version setting for `fleet-4`),
/// and ingests every campaign's seed corpus once (timed, then dropped:
/// each pass starts its campaigns afresh).
pub fn setup(workload: Workload, seed: u64) -> (Env, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let kernel = Kernel::build(workload.kernel_version());
    let train_kernel = (workload.uses_model() && workload.kernel_version() != KernelVersion::V6_8)
        .then(|| Kernel::build(KernelVersion::V6_8));
    times.kernel_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let model = workload
        .uses_model()
        .then(|| train_pmm(train_kernel.as_ref().unwrap_or(&kernel), Scale::quick()).0);
    if model.is_some() {
        times.train_s = t.elapsed().as_secs_f64();
    }
    drop(train_kernel);

    let env = Env {
        workload,
        kernel,
        model,
        seeds: campaign_seeds(seed),
    };
    let t = Instant::now();
    if workload == Workload::Fleet4 {
        let (_fleet, _ids, _service) = start_fleet(&env);
    } else {
        for &s in &env.seeds {
            let log = PredictLog::new(false);
            drop(start_solo(&env, s, &log, Telemetry::disabled()));
        }
    }
    times.ingest_s = t.elapsed().as_secs_f64();
    (env, times)
}

fn start_solo<'k>(
    env: &'k Env,
    seed: u64,
    log: &Arc<PredictLog>,
    telemetry: Telemetry,
) -> RunningCampaign<'k> {
    let client = env.model.as_ref().map(|m| ModelClient {
        model: m.clone(),
        log: Arc::clone(log),
    });
    let mut config = day_config(seed);
    config.exec.telemetry = telemetry;
    Campaign::new(&env.kernel, fuzzer_kind(client), config).into_running()
}

/// A fresh 1-replica service, a shared corpus store and four shared
/// campaigns, spawned (seed corpora ingested) in seed order.
fn start_fleet(env: &Env) -> (FleetScheduler<'_>, Vec<u32>, Arc<InferenceService>) {
    let model = env.model.as_ref().expect("fleet-4 trains a model");
    let service = Arc::new(InferenceService::start(model, 1));
    let mut fleet = FleetScheduler::new(&env.kernel, Arc::clone(&service));
    fleet.set_shared_corpus(CorpusStore::new());
    let ids = env
        .seeds
        .iter()
        .map(|&s| fleet.spawn_shared(day_config(s)))
        .collect();
    (fleet, ids, service)
}

/// The summary of one finished campaign.
#[derive(Debug)]
pub struct Outcome {
    pub seed: u64,
    pub hash: u64,
    pub execs: u64,
    pub final_edges: usize,
    pub unique_crashes: usize,
    pub inferences: u64,
    pub corpus_len: usize,
    /// The structural invariants hold: a full day of executions and
    /// some coverage.
    pub sane: bool,
}

impl Outcome {
    fn of(seed: u64, report: &CampaignReport) -> Outcome {
        let cfg = day_config(seed);
        let day_execs = cfg.duration.as_nanos() / cfg.exec_cost.as_nanos();
        Outcome {
            seed,
            hash: fingerprint_hash(report),
            execs: report.execs,
            final_edges: report.final_edges,
            unique_crashes: report.crashes.unique(),
            inferences: report.inferences,
            corpus_len: report.corpus_len,
            sane: u128::from(report.execs) == day_execs
                && report.final_edges > 0
                && !report.timeline.is_empty(),
        }
    }
}

/// One pass over the workload's campaign set.
pub struct Pass {
    /// Wall time of the loop: campaign start (seed ingest), every step,
    /// and for `fleet-4` the kill/serialize/resume cycle. Excludes the
    /// trace bookkeeping done between campaigns or rounds.
    pub wall_s: f64,
    /// Seed-ingest wall time per campaign (per fleet for `fleet-4`).
    pub ingest_s: Vec<f64>,
    pub outcomes: Vec<Outcome>,
    /// Prediction calls that reached the model or service.
    pub predict_calls: u64,
    /// Prediction calls that returned a [`ServeError`].
    pub serve_errors: u64,
    pub trace: Option<PassTrace>,
}

impl Pass {
    pub fn execs(&self) -> u64 {
        self.outcomes.iter().map(|o| o.execs).sum()
    }
}

/// Serving-tier statistics of one `fleet-4` pass.
pub struct ServeTrace {
    pub stats: InferenceStats,
    pub latency_p50_us: f64,
    pub latency_tail_q: f64,
    pub latency_tail_us: f64,
    pub fair_share_spread: f64,
}

/// What a traced pass records beyond an untraced one.
#[derive(Default)]
pub struct PassTrace {
    /// Wall time of each `RunningCampaign::step` (solo workloads) or
    /// each round's mean step (`fleet-4`, whose steps run inside
    /// `FleetScheduler::run_round`).
    pub step_us: Vec<f64>,
    /// Loop iterations (steps that executed a program).
    pub steps: u64,
    /// Wall time of each `FleetScheduler::run_round`.
    pub round_ms: Vec<f64>,
    /// Campaign telemetry counters, summed over campaigns.
    pub counters: BTreeMap<String, u64>,
    /// Every campaign's state at each [`STATE_EVERY`] mark, for the
    /// layer replay.
    pub states: Vec<CampaignState>,
    /// Corpus-store totals (the shared store on `fleet-4`, the sum of
    /// the private stores otherwise).
    pub store_entries: u64,
    pub store_dedup_hits: u64,
    pub store_index_bytes: u64,
    /// In-loop predictions through the traced client (solo workloads).
    pub predict: PredictSamples,
    pub serve: Option<ServeTrace>,
    pub checkpoint_ms: f64,
    pub resume_ms: f64,
    pub snapshot_bytes: u64,
}

fn add_counters(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (name, v) in from {
        *into.entry(name.clone()).or_insert(0) += v;
    }
}

/// Runs one pass; `traced` adds the step spans, in-memory campaign
/// telemetry and the timed prediction client.
pub fn run_pass(env: &Env, traced: bool) -> Pass {
    match env.workload {
        Workload::Fleet4 => fleet_pass(env, traced),
        _ => solo_pass(env, traced),
    }
}

fn solo_pass(env: &Env, traced: bool) -> Pass {
    let log = PredictLog::new(traced);
    let mut wall = Duration::ZERO;
    let mut ingest_s = Vec::new();
    let mut outcomes = Vec::new();
    let mut trace = traced.then(PassTrace::default);
    for &seed in &env.seeds {
        let telemetry = if traced {
            Telemetry::in_memory().0
        } else {
            Telemetry::disabled()
        };
        let start = Instant::now();
        let mut rc = start_solo(env, seed, &log, telemetry.clone());
        let ingest = start.elapsed();
        ingest_s.push(ingest.as_secs_f64());
        let report = match &mut trace {
            None => {
                let report = rc.run_to_end();
                wall += start.elapsed();
                report
            }
            Some(tr) => {
                let mut loop_time = ingest;
                let mut next_state = Duration::ZERO;
                loop {
                    if rc.now() >= next_state {
                        tr.states.push(rc.checkpoint());
                        next_state += STATE_EVERY;
                    }
                    let t = Instant::now();
                    let more = rc.step();
                    let el = t.elapsed();
                    loop_time += el;
                    if !more {
                        break;
                    }
                    tr.step_us.push(el.as_secs_f64() * 1e6);
                    tr.steps += 1;
                }
                let store = rc.state().corpus.store().stats();
                tr.store_entries += store.entries as u64;
                tr.store_dedup_hits += store.dedup_hits;
                tr.store_index_bytes += store.index_bytes as u64;
                let t = Instant::now();
                let report = rc.finish();
                wall += loop_time + t.elapsed();
                add_counters(&mut tr.counters, &telemetry.snapshot().counters);
                report
            }
        };
        outcomes.push(Outcome::of(seed, &report));
    }
    if let (Some(tr), Some(samples)) = (&mut trace, &log.timed) {
        tr.predict = std::mem::take(&mut *samples.lock().expect("prediction log lock poisoned"));
    }
    Pass {
        wall_s: wall.as_secs_f64(),
        ingest_s,
        outcomes,
        predict_calls: log.calls.load(Ordering::Relaxed),
        serve_errors: log.errors.load(Ordering::Relaxed),
        trace,
    }
}

/// One scheduling round; traced rounds also record the round span and
/// checkpoint every still-running campaign (outside the span) to count
/// the steps the round ran, keeping the states at [`STATE_EVERY`]
/// marks.
fn fleet_round(
    fleet: &mut FleetScheduler<'_>,
    ids: &[u32],
    trace: Option<&mut (PassTrace, BTreeMap<u32, u64>)>,
    wall: &mut Duration,
) -> usize {
    let t = Instant::now();
    let active = fleet.run_round(QUANTUM);
    let el = t.elapsed();
    *wall += el;
    if let Some((tr, execs_seen)) = trace {
        tr.round_ms.push(el.as_secs_f64() * 1e3);
        let keep = (tr.round_ms.len() as u64).is_multiple_of(ROUNDS_PER_STATE);
        let mut stepped = 0;
        for &id in ids {
            let execs = match fleet.checkpoint(id) {
                Some(snap) => {
                    let execs = snap.state.execs;
                    if keep {
                        tr.states.push(snap.state);
                    }
                    execs
                }
                None => fleet.report(id).map_or(0, |r| r.execs),
            };
            let seen = execs_seen.entry(id).or_insert(execs);
            stepped += execs - *seen;
            *seen = execs;
        }
        if stepped > 0 {
            tr.step_us.push(el.as_secs_f64() * 1e6 / stepped as f64);
            tr.steps += stepped;
        }
    }
    active
}

fn fleet_pass(env: &Env, traced: bool) -> Pass {
    let mut wall = Duration::ZERO;
    let start = Instant::now();
    let (mut fleet, ids, service) = start_fleet(env);
    let ingest = start.elapsed();
    wall += ingest;
    let mut trace = traced.then(|| (PassTrace::default(), BTreeMap::new()));
    if let Some((tr, seen)) = &mut trace {
        // Campaigns enter the loop with their seed-corpus executions
        // already counted; their hour-0 states are the first replayed.
        for &id in &ids {
            let snap = fleet.checkpoint(id).expect("a spawned campaign is running");
            seen.insert(id, snap.state.execs);
            tr.states.push(snap.state);
        }
    }

    let half_rounds = KILL_AT.as_secs() / QUANTUM.as_secs();
    for _ in 0..half_rounds {
        fleet_round(&mut fleet, &ids, trace.as_mut(), &mut wall);
    }

    let t = Instant::now();
    let snapshots: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| {
            fleet
                .kill(id)
                .expect("a day-long campaign is still running at hour 12")
                .to_bytes()
        })
        .collect();
    let checkpoint = t.elapsed();
    let t = Instant::now();
    let resumed: Vec<u32> = snapshots
        .iter()
        .map(|bytes| {
            let snap = CampaignSnapshot::from_bytes(bytes).expect("a fresh snapshot decodes");
            fleet.resume_shared(snap)
        })
        .collect();
    let resume = t.elapsed();
    wall += checkpoint + resume;
    if let Some((tr, seen)) = &mut trace {
        tr.checkpoint_ms = checkpoint.as_secs_f64() * 1e3;
        tr.resume_ms = resume.as_secs_f64() * 1e3;
        tr.snapshot_bytes = snapshots.iter().map(|b| b.len() as u64).sum();
        for (old, new) in ids.iter().zip(&resumed) {
            let execs = seen.remove(old).unwrap_or(0);
            seen.insert(*new, execs);
        }
    }

    while fleet_round(&mut fleet, &resumed, trace.as_mut(), &mut wall) > 0 {}

    let outcomes: Vec<Outcome> = resumed
        .iter()
        .zip(&env.seeds)
        .map(|(&id, &seed)| {
            Outcome::of(
                seed,
                fleet.report(id).expect("every campaign finished its day"),
            )
        })
        .collect();
    let agg = fleet.aggregate();
    // Per-campaign counters arrive as `fleet.c<id>.<name>`.
    let mut counters = BTreeMap::new();
    for (name, v) in &agg.counters {
        if let Some(rest) = name.splitn(3, '.').nth(2) {
            *counters.entry(rest.to_owned()).or_insert(0) += v;
        }
    }
    // Only the service can fail a prediction this way; the campaign's
    // own declinations (queue bound, no targets) are not serve errors.
    let serve_errors = counters
        .get("serve.degraded.overloaded")
        .copied()
        .unwrap_or(0)
        + counters
            .get("serve.degraded.shutdown")
            .copied()
            .unwrap_or(0);
    let stats = service.stats();
    let trace = trace.map(|(mut tr, _)| {
        tr.counters = counters;
        let store = fleet
            .shared_corpus()
            .expect("fleet-4 installs a shared store")
            .stats();
        tr.store_entries = store.entries as u64;
        tr.store_dedup_hits = store.dedup_hits;
        tr.store_index_bytes = store.index_bytes as u64;
        // The service retains at most 65 536 latency samples.
        let retained = stats.served.min(1 << 16) as usize;
        let tail_q = crate::stats::tail_percentile(retained).unwrap_or(100.0);
        tr.serve = Some(ServeTrace {
            stats,
            latency_p50_us: service.latency_percentile(50.0).as_secs_f64() * 1e6,
            latency_tail_q: tail_q,
            latency_tail_us: service.latency_percentile(tail_q).as_secs_f64() * 1e6,
            fair_share_spread: fair_share_spread(&service.served_by_tag()).unwrap_or(0.0),
        });
        tr
    });
    Pass {
        wall_s: wall.as_secs_f64(),
        ingest_s: vec![ingest.as_secs_f64()],
        outcomes,
        predict_calls: stats.served,
        serve_errors,
        trace,
    }
}
