//! The fuzzing campaign: the paper's Figure-1 loop under a virtual clock.
//!
//! A campaign runs either as the **Syzkaller baseline** (stock weighted
//! selector, random argument localizer) or as **Snowplow** (the same
//! engine, but when a base test is chosen for mutation, an argument
//! mutation query is submitted to PMM; while the inference is pending —
//! virtual latency, §5.5 — the fuzzer keeps performing its other mutation
//! types, and once the localization arrives it catches up with argument
//! mutations on the predicted locations, scaling the number of mutations
//! with the number of predicted arguments, §3.4). A small probability of
//! random argument localization is kept as the paper's fallback.
//!
//! The asynchrony is real in wall time too: a query to a shared
//! inference service returns a waiting [`Ticket`] (a [`Prediction`]
//! slot), and the loop resolves it only when it first reads the
//! locations — at the first guided use of the base, before its next
//! submission (one ticket in flight at most), or when a checkpoint or
//! the final report settles it. Waiting changes only when the loop
//! runs, never what it computes, so reports, telemetry and checkpoints
//! equal those of an owned, inline model.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;

use rand::prelude::*;
use snowplow_analysis::PrunedCfg;
use snowplow_corpus::{scheduler_for, CorpusConfig, CorpusHandle, ScheduleContext, SchedulePolicy};
use snowplow_kernel::{BlockId, Coverage, EdgeSet, ExecResult, Kernel, Snapshot, Vm};
use snowplow_pmm::graph::QueryGraph;
use snowplow_pmm::server::{InferenceClient, ServeError, Ticket};
use snowplow_pool::ExecConfig;
use snowplow_prog::gen::Generator;
use snowplow_prog::{ArgLoc, Mutator, Prog};
use snowplow_telemetry::{Phase, Telemetry};

use crate::clock::VirtualClock;
use crate::crash::CrashLog;

/// Which fuzzer runs the campaign.
pub enum FuzzerKind {
    /// Stock Syzkaller-style fuzzing.
    Syzkaller,
    /// PMM-guided argument localization through any
    /// [`InferenceClient`]: an owned [`Pmm`](snowplow_pmm::model::Pmm)
    /// that scores at submission, or a tagged handle to a shared
    /// inference service (the fleet deployment of §3.4/§4). Inference
    /// latency is accounted in virtual time, and batched serving is
    /// bit-identical to direct prediction, so every client with the
    /// same weights yields the same report.
    SnowplowShared {
        /// Where the campaign's queries go.
        client: Box<dyn InferenceClient>,
    },
}

impl std::fmt::Debug for FuzzerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FuzzerKind::Syzkaller => "Syzkaller",
            FuzzerKind::SnowplowShared { .. } => "SnowplowShared",
        })
    }
}

/// Campaign tuning.
///
/// `#[non_exhaustive]`: construct via [`CampaignConfig::builder`] (or
/// start from `Default` and set fields), so adding a field never breaks
/// call sites.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CampaignConfig {
    /// Virtual duration of the campaign.
    pub duration: Duration,
    /// Virtual cost of one test execution (see `clock`).
    pub exec_cost: Duration,
    /// Virtual latency of one PMM inference (0.69 s in §5.5).
    pub inference_latency: Duration,
    /// Relative machine speed (the §5.3.1 same-test-time-cost analysis
    /// gives the baseline extra fuzzing machines: `speed_factor` 1.25–2
    /// divides the per-execution cost).
    pub speed_factor: f64,
    /// Seed corpus size generated before fuzzing starts.
    pub seed_corpus: usize,
    /// Probability of a *random* argument localization in Snowplow mode
    /// (the §3.4 fallback).
    pub fallback_prob: f64,
    /// How many frontier blocks a mutation query marks as targets.
    pub targets_per_query: usize,
    /// PMM decision threshold.
    pub threshold: f32,
    /// Minimum number of ranked locations used per query.
    pub top_k: usize,
    /// Timeline sampling interval.
    pub sample_every: Duration,
    /// Campaign seed.
    pub seed: u64,
    /// Execution context: worker threads sharding the embarrassingly-
    /// parallel phases (seed-corpus generation; see also
    /// [`CorpusHandle::minimize`] — every seed program draws from its
    /// own RNG stream and results merge in program order, so the report
    /// is identical for any worker count) and the telemetry destination.
    /// Metric snapshots are likewise identical for any worker count:
    /// every event is recorded from the sequential portions of the loop
    /// in virtual time.
    pub exec: ExecConfig,
    /// Maximum PMM queries in flight at once (Snowplow mode): while the
    /// queue is full no new query is submitted and the stock random
    /// localizer carries the loop, mirroring the paper's bounded
    /// inference concurrency.
    pub max_pending_predictions: usize,
    /// §3.4's dynamic budget multiplier: a cached prediction with `n`
    /// locations is used for `n * guided_use_multiplier` (at least
    /// `guided_use_multiplier`) argument mutations before expiring.
    pub guided_use_multiplier: usize,
    /// Corpus behavior: seed-selection policy and (optionally) a shared
    /// [`CorpusStore`](snowplow_corpus::CorpusStore) to ingest into.
    /// The default (`Contribution` policy, private store) is
    /// bit-identical to the historical per-campaign corpus.
    /// `SchedulePolicy::Distance` weights up entries whose coverage sits
    /// close (over the interval-pruned CFG, see
    /// [`snowplow_analysis::PrunedCfg`]) to an uncovered frontier block.
    pub corpus: CorpusConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            duration: Duration::from_secs(24 * 3600),
            exec_cost: Duration::from_secs(1),
            inference_latency: Duration::from_millis(690),
            speed_factor: 1.0,
            seed_corpus: 50,
            fallback_prob: 0.25,
            targets_per_query: 6,
            threshold: 0.5,
            top_k: 6,
            sample_every: Duration::from_secs(30 * 60),
            seed: 0,
            exec: ExecConfig::default(),
            max_pending_predictions: 8,
            guided_use_multiplier: 4,
            corpus: CorpusConfig::default(),
        }
    }
}

impl CampaignConfig {
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder {
            cfg: CampaignConfig::default(),
        }
    }

    /// §3.4's dynamic budget: the guided argument mutations a prediction
    /// with `locations` ranked locations is used for before it expires.
    pub fn guided_uses(&self, locations: usize) -> usize {
        (locations * self.guided_use_multiplier)
            .max(self.guided_use_multiplier)
            .max(1)
    }
}

/// Fluent constructor for [`CampaignConfig`].
#[derive(Debug, Clone, Default)]
pub struct CampaignConfigBuilder {
    cfg: CampaignConfig,
}

impl CampaignConfigBuilder {
    pub fn duration(mut self, d: Duration) -> Self {
        self.cfg.duration = d;
        self
    }

    pub fn exec_cost(mut self, d: Duration) -> Self {
        self.cfg.exec_cost = d;
        self
    }

    pub fn inference_latency(mut self, d: Duration) -> Self {
        self.cfg.inference_latency = d;
        self
    }

    pub fn speed_factor(mut self, f: f64) -> Self {
        self.cfg.speed_factor = f;
        self
    }

    pub fn seed_corpus(mut self, n: usize) -> Self {
        self.cfg.seed_corpus = n;
        self
    }

    pub fn fallback_prob(mut self, p: f64) -> Self {
        self.cfg.fallback_prob = p;
        self
    }

    pub fn targets_per_query(mut self, n: usize) -> Self {
        self.cfg.targets_per_query = n;
        self
    }

    pub fn threshold(mut self, t: f32) -> Self {
        self.cfg.threshold = t;
        self
    }

    pub fn top_k(mut self, k: usize) -> Self {
        self.cfg.top_k = k;
        self
    }

    pub fn sample_every(mut self, d: Duration) -> Self {
        self.cfg.sample_every = d;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.cfg.exec = exec;
        self
    }

    /// Shorthand for setting `exec.workers`.
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.exec.workers = n;
        self
    }

    /// Shorthand for setting `exec.telemetry`.
    pub fn telemetry(mut self, t: Telemetry) -> Self {
        self.cfg.exec.telemetry = t;
        self
    }

    pub fn max_pending_predictions(mut self, n: usize) -> Self {
        self.cfg.max_pending_predictions = n;
        self
    }

    pub fn guided_use_multiplier(mut self, n: usize) -> Self {
        self.cfg.guided_use_multiplier = n;
        self
    }

    /// Corpus behavior (seed-selection policy, shared store).
    pub fn corpus(mut self, corpus: CorpusConfig) -> Self {
        self.cfg.corpus = corpus;
        self
    }

    pub fn build(self) -> CampaignConfig {
        self.cfg
    }
}

/// One point of the coverage timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Virtual time of the sample.
    pub at: Duration,
    /// Unique edges covered so far.
    pub edges: usize,
    /// Unique blocks covered so far.
    pub blocks: usize,
    /// Unique (non-filtered) crash signatures so far.
    pub crashes: usize,
    /// Executions so far.
    pub execs: u64,
}

/// Where newly discovered edges came from (diagnostics and ablations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeAttribution {
    /// Seed-corpus generation and fresh programs.
    pub generation: usize,
    /// Call insertion/removal (and baseline full mutations).
    pub structural: usize,
    /// Random argument localization.
    pub random_args: usize,
    /// PMM-guided argument localization.
    pub guided_args: usize,
}

/// Campaign output.
#[derive(Debug)]
pub struct CampaignReport {
    /// Coverage/crash timeline, sampled on the configured grid.
    pub timeline: Vec<TimelinePoint>,
    /// Final edge count.
    pub final_edges: usize,
    /// Final block count.
    pub final_blocks: usize,
    /// Crash accounting.
    pub crashes: CrashLog,
    /// Total executions.
    pub execs: u64,
    /// PMM queries answered (0 for the baseline).
    pub inferences: u64,
    /// Final corpus size.
    pub corpus_len: usize,
    /// Edge attribution by discovery mechanism.
    pub attribution: EdgeAttribution,
}

/// One PMM localization query, resolved at most once.
///
/// A query submitted to a shared service comes back as a waiting
/// [`Ticket`]: the campaign keeps fuzzing while the forward pass runs
/// and resolves the ticket — ranking its scores into locations — when
/// it first reads them. The pending entry, the ready entry and the
/// prediction memo share one slot (cloning shares it), so each forward
/// pass is waited for and ranked once. Resolution only ever waits: it
/// never changes what the campaign computes, only when the wall clock
/// lets it.
#[derive(Clone)]
pub struct Prediction(Arc<PredictionSlot>);

struct PredictionSlot {
    /// The ranked locations once resolved; `None` inside when the
    /// ticket was lost (its sender dropped before answering).
    locs: OnceLock<Option<Vec<ArgLoc>>>,
    /// The ticket and its ranking (threshold, top-k) until resolution
    /// takes them.
    waiting: Mutex<Option<(Ticket, f32, usize)>>,
}

/// What one [`Prediction::resolve`] call did.
enum Resolution {
    /// The ticket has not been answered yet (non-blocking calls only).
    Waiting,
    /// An earlier call resolved the prediction.
    Settled,
    /// This call ranked the scores into this many locations.
    Ranked(usize),
    /// This call found the ticket lost.
    Lost,
}

impl Prediction {
    /// A prediction whose locations are already known (e.g. decoded
    /// from a snapshot).
    pub fn resolved(locs: Vec<ArgLoc>) -> Prediction {
        Prediction(Arc::new(PredictionSlot {
            locs: OnceLock::from(Some(locs)),
            waiting: Mutex::new(None),
        }))
    }

    fn submitted(ticket: Ticket, threshold: f32, top_k: usize) -> Prediction {
        Prediction(Arc::new(PredictionSlot {
            locs: OnceLock::new(),
            waiting: Mutex::new(Some((ticket, threshold, top_k))),
        }))
    }

    /// The ranked locations, or `None` while the ticket is unanswered.
    /// A lost ticket reads as no locations.
    fn locations(&self) -> Option<&[ArgLoc]> {
        self.0.locs.get().map(|l| l.as_deref().unwrap_or_default())
    }

    /// The ranked locations, blocking on the ticket if need be.
    pub fn wait(&self) -> &[ArgLoc] {
        self.resolve(true);
        self.locations().unwrap_or_default()
    }

    /// Resolved to no locations (a lost ticket included).
    fn is_empty(&self) -> bool {
        self.locations().is_some_and(<[ArgLoc]>::is_empty)
    }

    fn is_lost(&self) -> bool {
        matches!(self.0.locs.get(), Some(None))
    }

    fn resolve(&self, block: bool) -> Resolution {
        if self.0.locs.get().is_some() {
            return Resolution::Settled;
        }
        let mut waiting = self.0.waiting.lock();
        // Resolution sets `locs` before it releases the lock, so an
        // empty `waiting` means a racing call resolved the slot.
        let Some((ticket, threshold, top_k)) = waiting.take() else {
            return Resolution::Settled;
        };
        let scores = if block {
            ticket.wait()
        } else {
            match ticket.try_wait() {
                Ok(scores) => scores,
                Err(ticket) => {
                    *waiting = Some((ticket, threshold, top_k));
                    return Resolution::Waiting;
                }
            }
        };
        let (locs, outcome) = match scores {
            Ok(scores) => {
                let locs = rank(&scores, threshold, top_k);
                let n = locs.len();
                (Some(locs), Resolution::Ranked(n))
            }
            Err(_) => (None, Resolution::Lost),
        };
        let _ = self.0.locs.set(locs);
        outcome
    }
}

impl std::fmt::Debug for Prediction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.locs.get() {
            Some(Some(locs)) => f.debug_tuple("Prediction").field(locs).finish(),
            Some(None) => f.write_str("Prediction(lost)"),
            None => f.write_str("Prediction(waiting)"),
        }
    }
}

/// A PMM localization in flight: submitted at some virtual instant,
/// applicable once the virtual inference latency has elapsed. Part of
/// [`CampaignState`] so a checkpoint taken mid-inference resumes with
/// the query still pending.
#[derive(Debug, Clone)]
pub struct PendingPrediction {
    /// Corpus index of the base test the query was built from.
    pub base: usize,
    /// Virtual instant the localization becomes applicable.
    pub ready_at: Duration,
    /// The predicted locations (resolved by every checkpoint).
    pub prediction: Prediction,
}

/// Cached frontier state of one corpus entry (Snowplow hot loop).
///
/// `eligible` is the entry's one-hop frontier intersected with the
/// statically-eligible predicate (not dead, argument-gated) — fixed for
/// the entry's lifetime because admitted entries are immutable.
/// `wanted` additionally filters out globally-covered blocks and is
/// valid while the campaign's coverage epoch equals `epoch`.
struct EntryFrontier {
    eligible: Vec<BlockId>,
    epoch: u64,
    wanted: Vec<BlockId>,
}

/// Bound on memoized (base, target-set) predictions; the memo clears
/// and refills when full (deterministically — the cap only trades reuse
/// for memory).
const PRED_MEMO_CAP: usize = 1 << 14;

/// A runnable fuzzing campaign.
pub struct Campaign<'k> {
    kernel: &'k Kernel,
    config: CampaignConfig,
    kind: FuzzerKind,
}

impl<'k> Campaign<'k> {
    /// Creates a campaign.
    pub fn new(kernel: &'k Kernel, kind: FuzzerKind, config: CampaignConfig) -> Self {
        // Debug builds lint every mutator output from here on: a bad
        // mutation panics at its source instead of poisoning the corpus.
        snowplow_analysis::install_debug_validator();
        Campaign {
            kernel,
            config,
            kind,
        }
    }

    /// Runs the campaign to its virtual deadline.
    pub fn run(self) -> CampaignReport {
        self.into_running().run_to_end()
    }

    /// Prepares the campaign for stepped execution: builds the VM and
    /// analysis inputs, generates and ingests the seed corpus, and
    /// returns the loop in its ready-to-iterate state. `run()` is
    /// exactly `into_running().run_to_end()`; the split exists so a
    /// fleet scheduler can interleave, checkpoint, and resume campaigns
    /// one iteration at a time.
    pub fn into_running(self) -> RunningCampaign<'k> {
        let mut running = RunningCampaign::build(self.kernel, self.kind, self.config, None);
        running.ingest_seed_corpus();
        running
    }
}

/// The complete deterministic state of a campaign between iterations.
///
/// Everything the loop's future behavior depends on lives here: the RNG
/// position, virtual clock, corpus (with scheduling weights), coverage
/// bitsets, crash log, timeline, in-flight and cached predictions, and
/// the bookkeeping counters. The hot-loop caches (frontier lists,
/// prediction memo, coverage epoch) are deliberately *not* state: they
/// are pure functions of this state (DESIGN.md §8), rebuilt cold on
/// restore with no observable effect — the fleet resume goldens prove
/// it.
#[derive(Debug, Clone)]
pub struct CampaignState {
    /// The campaign RNG, at its current stream position.
    pub rng: StdRng,
    /// Virtual clock.
    pub clock: VirtualClock,
    /// Corpus, including any distance-scheduling weights.
    pub corpus: CorpusHandle,
    /// Global edge coverage.
    pub edges: EdgeSet,
    /// Global block coverage.
    pub blocks: Coverage,
    /// Crash accounting.
    pub crashes: CrashLog,
    /// Timeline samples taken so far.
    pub timeline: Vec<TimelinePoint>,
    /// PMM queries in flight (ordered by submission).
    pub pending: VecDeque<PendingPrediction>,
    /// Arrived localizations: base index → (prediction, uses left).
    /// The uses are `None` until the base first draws on the
    /// prediction; then they start at
    /// [`CampaignConfig::guided_uses`] of its location count.
    pub ready: BTreeMap<usize, (Prediction, Option<usize>)>,
    /// Executions so far.
    pub execs: u64,
    /// PMM queries answered so far.
    pub inferences: u64,
    /// Edge attribution by discovery mechanism.
    pub attribution: EdgeAttribution,
    /// Next timeline sample is due at this virtual instant.
    pub next_sample: Duration,
    /// Corpus length at the last schedule recompute (`usize::MAX`
    /// before the first).
    pub sched_len: usize,
    /// Block count at the last schedule recompute (`usize::MAX` before
    /// the first).
    pub sched_blocks_at: usize,
}

/// A campaign mid-flight, stepped one Figure-1 iteration at a time.
///
/// Constructed by [`Campaign::into_running`] (fresh: seed corpus
/// generated and ingested) or [`RunningCampaign::restore`] (from a
/// [`checkpoint`](RunningCampaign::checkpoint)). The struct splits into
/// [`CampaignState`] — the deterministic state a checkpoint carries —
/// and transients (VM, scratch buffers, hot-loop caches) that are pure
/// functions of the state and rebuild cold on restore.
pub struct RunningCampaign<'k> {
    kernel: &'k Kernel,
    config: CampaignConfig,
    kind: FuzzerKind,
    telemetry: Telemetry,
    exec_cost: Duration,
    st: CampaignState,
    // ---- Transients: caches and scratch, rebuilt on restore. ----
    generator: Generator<'k>,
    mutator: Mutator<'k>,
    vm: Vm<'k>,
    snapshot: Snapshot,
    exec_buf: ExecResult,
    dead_blocks: Arc<HashSet<BlockId>>,
    sched_inputs: Option<(Arc<HashSet<BlockId>>, Arc<PrunedCfg>)>,
    sched_frontier: Vec<BlockId>,
    sched_dist: Vec<Option<u32>>,
    frontier_cache: HashMap<usize, EntryFrontier>,
    pred_memo: HashMap<(usize, Vec<BlockId>), Prediction>,
    /// The one submitted query whose ticket is not resolved yet.
    in_flight: Option<Prediction>,
    epoch: u64,
    blocks_at_epoch: usize,
    wanted_buf: Vec<BlockId>,
}

/// Top-K localization: everything above the threshold, padded to at
/// least `top_k` by rank (the paper's PMM outputs a set whose size
/// scales the mutation budget).
///
/// The kept locations are copies: a served score list is allocated on a
/// replica thread, and moving a few of its locations into a long-lived
/// prediction would pin the list's scattered pages (measured: ~2.5 MiB
/// more peak RSS on `fleet-4`), while copies free it whole.
fn rank(scored: &[(ArgLoc, f32)], threshold: f32, top_k: usize) -> Vec<ArgLoc> {
    let above = scored.iter().filter(|(_, p)| *p >= threshold).count();
    let keep = above.max(top_k).min(scored.len());
    scored[..keep].iter().map(|(l, _)| l.clone()).collect()
}

impl<'k> RunningCampaign<'k> {
    fn build(
        kernel: &'k Kernel,
        kind: FuzzerKind,
        config: CampaignConfig,
        state: Option<CampaignState>,
    ) -> RunningCampaign<'k> {
        // `Campaign::new` installs the validator on the fresh path; the
        // restore path enters here directly and needs it too.
        snowplow_analysis::install_debug_validator();
        // All campaign metrics are recorded from the sequential parts of
        // the loop with virtual-clock timestamps, so the snapshot is a
        // pure function of (kernel, config, seed): identical at any
        // worker count and across a checkpoint/resume boundary.
        let telemetry = config.exec.telemetry.clone();
        let exec_cost =
            Duration::from_secs_f64(config.exec_cost.as_secs_f64() / config.speed_factor);
        let generator = Generator::new(kernel.registry());
        let mutator = Mutator::new(kernel.registry());
        let vm = Vm::new(kernel);
        let snapshot = vm.snapshot();

        // Blocks no mutation can ever reach (statically-unsatisfiable
        // gates, orphan error stubs): served from the shared analysis
        // cache (same set as `statically_dead_blocks`, computed once per
        // kernel build process-wide), excluded from every PMM frontier
        // query so no inference budget is spent on them.
        let analysis_cache = snowplow_analysis::AnalysisCache::shared();
        let dead_blocks = analysis_cache.dead_blocks(kernel);

        // Static distance scheduling (policy-gated): the interval-pruned
        // CFG and the interval-infeasible block set (a superset of
        // `dead_blocks`) drive distance-to-frontier corpus weights. The
        // fresh path records the fetch as an Analyze span (the clock is
        // at zero, so the span is zero-width); a restore must *not*
        // re-record it — the span was already recorded before the
        // checkpoint was taken.
        let restoring = state.is_some();
        let sched_inputs = matches!(config.corpus.policy, SchedulePolicy::Distance).then(|| {
            if restoring {
                (
                    analysis_cache.infeasible_blocks(kernel),
                    analysis_cache.pruned_cfg(kernel),
                )
            } else {
                let span = telemetry.span_at(Phase::Analyze, Duration::ZERO);
                let infeasible = analysis_cache.infeasible_blocks(kernel);
                let pruned = analysis_cache.pruned_cfg(kernel);
                span.finish(&telemetry, Duration::ZERO);
                (infeasible, pruned)
            }
        });

        let mut st = state.unwrap_or_else(|| CampaignState {
            rng: StdRng::seed_from_u64(config.seed),
            clock: VirtualClock::new(),
            corpus: match &config.corpus.shared {
                Some(store) => CorpusHandle::attached(store.clone()),
                None => CorpusHandle::new(),
            },
            edges: EdgeSet::new(),
            blocks: Coverage::new(),
            crashes: CrashLog::new(kernel.bugs().known_signatures()),
            timeline: Vec::new(),
            pending: VecDeque::new(),
            ready: BTreeMap::new(),
            execs: 0,
            inferences: 0,
            attribution: EdgeAttribution::default(),
            next_sample: Duration::ZERO,
            sched_len: usize::MAX,
            sched_blocks_at: usize::MAX,
        });
        // A checkpointed view restores over a private store; a fleet
        // resuming a shared-corpus campaign re-attaches it here, which
        // re-populates the shared store's indexes (absorbing entries
        // other resumed campaigns already re-ingested) without touching
        // the view or any hit counter.
        if restoring {
            if let Some(store) = &config.corpus.shared {
                st.corpus.reattach(store);
            }
        }
        let blocks_at_epoch = st.blocks.len();

        RunningCampaign {
            kernel,
            config,
            kind,
            telemetry,
            exec_cost,
            st,
            generator,
            mutator,
            vm,
            snapshot,
            exec_buf: ExecResult::default(),
            dead_blocks,
            sched_inputs,
            sched_frontier: Vec::new(),
            sched_dist: Vec::new(),
            frontier_cache: HashMap::new(),
            pred_memo: HashMap::new(),
            in_flight: None,
            epoch: 0,
            blocks_at_epoch,
            wanted_buf: Vec::new(),
        }
    }

    /// Rebuilds a running campaign at a checkpointed state.
    ///
    /// `kind` and `config` must match the checkpointed campaign's — the
    /// state intentionally carries neither the model nor the config (a
    /// fleet restores many campaigns against one shared service). The
    /// hot-loop caches rebuild cold, which is unobservable (they are
    /// pure functions of the state), and no seed corpus is generated —
    /// the state already contains its effects.
    pub fn restore(
        kernel: &'k Kernel,
        kind: FuzzerKind,
        config: CampaignConfig,
        state: CampaignState,
    ) -> RunningCampaign<'k> {
        RunningCampaign::build(kernel, kind, config, Some(state))
    }

    /// A deep copy of the campaign's deterministic state, suitable for
    /// serializing and resuming later with [`RunningCampaign::restore`].
    /// Settles the query in flight first, so every prediction in the
    /// copy is resolved and the telemetry already records it.
    pub fn checkpoint(&self) -> CampaignState {
        self.settle_in_flight();
        self.st.clone()
    }

    /// The campaign's deterministic state (what a checkpoint copies).
    pub fn state(&self) -> &CampaignState {
        &self.st
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The telemetry handle the campaign records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.st.clock.now()
    }

    /// Whether the virtual deadline has been reached.
    pub fn is_done(&self) -> bool {
        self.st.clock.now() >= self.config.duration
    }

    /// Runs the remaining iterations and produces the report.
    pub fn run_to_end(mut self) -> CampaignReport {
        while self.step() {}
        self.finish()
    }

    /// Final timeline sample, summary gauges, and the report.
    pub fn finish(mut self) -> CampaignReport {
        self.settle_in_flight();
        self.st.timeline.push(TimelinePoint {
            at: self.st.clock.now(),
            edges: self.st.edges.len(),
            blocks: self.st.blocks.len(),
            crashes: self.st.crashes.unique(),
            execs: self.st.execs,
        });

        if self.telemetry.is_enabled() {
            self.telemetry
                .gauge("campaign.final_edges", self.st.edges.len() as f64);
            self.telemetry
                .gauge("campaign.final_blocks", self.st.blocks.len() as f64);
            self.telemetry
                .gauge("campaign.corpus", self.st.corpus.len() as f64);
            self.telemetry
                .gauge("corpus.entries", self.st.corpus.len() as f64);
            // Handle-level dedup hits are deterministic campaign state
            // (serialized in checkpoints); emitted only when nonzero so
            // private-store campaigns keep their telemetry fingerprint.
            if self.st.corpus.dedup_hits() > 0 {
                self.telemetry
                    .gauge("corpus.dedup_hits", self.st.corpus.dedup_hits() as f64);
            }
            self.telemetry.counter(
                "attribution.generation",
                self.st.attribution.generation as u64,
            );
            self.telemetry.counter(
                "attribution.guided_args",
                self.st.attribution.guided_args as u64,
            );
            self.telemetry.counter(
                "attribution.random_args",
                self.st.attribution.random_args as u64,
            );
            self.telemetry.counter(
                "attribution.structural",
                self.st.attribution.structural as u64,
            );
            self.telemetry.flush();
        }

        CampaignReport {
            timeline: self.st.timeline,
            final_edges: self.st.edges.len(),
            final_blocks: self.st.blocks.len(),
            crashes: self.st.crashes,
            execs: self.st.execs,
            inferences: self.st.inferences,
            corpus_len: self.st.corpus.len(),
            attribution: self.st.attribution,
        }
    }

    // ---- Seed corpus. --------------------------------------------------
    // Generation and execution shard across workers: every seed program
    // is generated from its own RNG stream and executed from a pristine
    // snapshot, so the results carry no cross-item state. The merge
    // below replays the exact sequential bookkeeping (clock, coverage,
    // crashes, corpus admission) in program order — the report is
    // bit-identical for any worker count.
    fn ingest_seed_corpus(&mut self) {
        const SALT_SEED_CORPUS: u64 = 0x5eed;
        let kernel = self.kernel;
        let master = self.config.seed;
        let generator = &self.generator;
        let seed_span = self.telemetry.span_at(Phase::SeedGen, self.st.clock.now());
        let seed_runs = self.config.exec.map(
            "campaign.seed_corpus",
            (0..self.config.seed_corpus).collect(),
            || {
                let vm = Vm::new(kernel);
                let snap = vm.snapshot();
                (vm, snap)
            },
            |(vm, snap), _, i| {
                let mut srng = StdRng::seed_from_u64(snowplow_pool::stream_seed(
                    master,
                    SALT_SEED_CORPUS,
                    i as u64,
                ));
                let p = generator.generate(&mut srng, 6);
                vm.restore(snap);
                let result = vm.execute(&p);
                // Cap hits travel with the item (not a worker-local sum)
                // so the sequential merge below is worker-count
                // independent.
                (p, result, vm.take_cfg_cap_hits())
            },
        );
        for (p, result, cap_hits) in seed_runs {
            if cap_hits > 0 {
                self.telemetry.counter("exec.cfg_cap_hit", cap_hits);
            }
            self.st.execs += 1;
            let span = self.telemetry.span_at(Phase::Execute, self.st.clock.now());
            self.st.clock.advance(self.exec_cost);
            span.finish(&self.telemetry, self.st.clock.now());
            self.telemetry.counter("execs", 1);
            let new_edges = result.merge_edges_into(&mut self.st.edges);
            result.merge_coverage_into(&mut self.st.blocks);
            self.telemetry
                .observe("execute.new_edges", new_edges as u64);
            if let Some(crash) = &result.crash {
                let new_sig = self.st.crashes.record(crash, &p, self.st.clock.now());
                self.telemetry.phase(Phase::Triage, 0);
                self.telemetry.counter("triage.crashes", 1);
                if new_sig {
                    self.telemetry.counter("triage.new_signatures", 1);
                }
            }
            if new_edges > 0 {
                let admitted = self.st.corpus.add_checked_weighted(
                    self.kernel.registry(),
                    p,
                    &result,
                    new_edges,
                    self.exec_cost.as_nanos() as u64,
                );
                // A crash witness is pinned at admission so offline
                // minimization can never trade it for a cheaper coverer.
                if admitted && result.crash.is_some() {
                    self.st.corpus.pin_last();
                }
            }
            self.st.attribution.generation += new_edges;
        }
        seed_span.finish(&self.telemetry, self.st.clock.now());
        self.blocks_at_epoch = self.st.blocks.len();
    }

    /// One Figure-1 iteration: timeline sampling, prediction promotion,
    /// schedule recompute, base selection, mutate + execute. Returns
    /// `false` (doing nothing) once the virtual deadline is reached.
    /// Every `true` step executes exactly one program, so virtual time
    /// advances strictly and the loop always terminates.
    pub fn step(&mut self) -> bool {
        if self.st.clock.now() >= self.config.duration {
            return false;
        }

        if self.st.clock.now() >= self.st.next_sample {
            self.st.timeline.push(TimelinePoint {
                at: self.st.clock.now(),
                edges: self.st.edges.len(),
                blocks: self.st.blocks.len(),
                crashes: self.st.crashes.unique(),
                execs: self.st.execs,
            });
            self.st.next_sample += self.config.sample_every;
        }

        // Rank an answered ticket now, freeing its scores; an unanswered
        // one keeps the loop going.
        if self
            .in_flight
            .as_ref()
            .is_some_and(|p| self.settle(p, false))
        {
            self.in_flight = None;
        }

        // Promote ready PMM localizations into the per-base cache. The
        // prediction may still be on its way; the base first waits for
        // it when it draws a guided location.
        while self
            .st
            .pending
            .front()
            .is_some_and(|p| p.ready_at <= self.st.clock.now())
        {
            // Invariant: the loop condition saw a front element.
            let p = self.st.pending.pop_front().expect("checked front");
            if !p.prediction.is_empty() {
                self.st.ready.insert(p.base, (p.prediction, None));
            }
        }

        self.maybe_recompute_schedule();

        // Choose a base test.
        let Some(base_idx) = self.st.corpus.choose(&mut self.st.rng) else {
            let p = self.generator.generate(&mut self.st.rng, 6);
            let gained = self.execute_prog(&p);
            self.st.attribution.generation += gained;
            return true;
        };

        // The kind is parked for the duration of the iteration so the
        // model/client can be borrowed mutably alongside `self` (the
        // placeholder is never observed: no path below touches
        // `self.kind`).
        let mut kind = std::mem::replace(&mut self.kind, FuzzerKind::Syzkaller);
        match &mut kind {
            FuzzerKind::Syzkaller => self.baseline_iteration(base_idx),
            FuzzerKind::SnowplowShared { client } => {
                self.snowplow_iteration(&mut **client, base_idx)
            }
        }
        self.kind = kind;
        true
    }

    // Zero-alloc execute path: the trace buffers in `exec_buf` and the
    // VM's internal scratch are reused across iterations, and edge/block
    // coverage merges straight from the trace without materializing
    // per-execution temporary sets.
    fn execute_prog(&mut self, prog: &Prog) -> usize {
        self.vm.restore(&self.snapshot);
        self.vm.execute_into(prog, &mut self.exec_buf);
        // A handler CFG that exhausted `MAX_BLOCKS_PER_CALL` silently
        // truncated its trace — surface it instead of swallowing it.
        // Emitted only when nonzero so the healthy-run telemetry
        // fingerprint is unchanged.
        let cap_hits = self.vm.take_cfg_cap_hits();
        if cap_hits > 0 {
            self.telemetry.counter("exec.cfg_cap_hit", cap_hits);
        }
        self.st.execs += 1;
        let span = self.telemetry.span_at(Phase::Execute, self.st.clock.now());
        self.st.clock.advance(self.exec_cost);
        span.finish(&self.telemetry, self.st.clock.now());
        self.telemetry.counter("execs", 1);
        let new_edges = self.exec_buf.merge_edges_into(&mut self.st.edges);
        self.exec_buf.merge_coverage_into(&mut self.st.blocks);
        self.telemetry
            .observe("execute.new_edges", new_edges as u64);
        if let Some(crash) = &self.exec_buf.crash {
            let new_sig = self.st.crashes.record(crash, prog, self.st.clock.now());
            self.telemetry.phase(Phase::Triage, 0);
            self.telemetry.counter("triage.crashes", 1);
            if new_sig {
                self.telemetry.counter("triage.new_signatures", 1);
            }
        }
        if new_edges > 0 {
            let admitted = self.st.corpus.add_checked_weighted(
                self.kernel.registry(),
                prog.clone(),
                &self.exec_buf,
                new_edges,
                self.exec_cost.as_nanos() as u64,
            );
            // Pin crash witnesses against minimization (see
            // `ingest_seed_corpus`).
            if admitted && self.exec_buf.crash.is_some() {
                self.st.corpus.pin_last();
            }
        }
        new_edges
    }

    // Seed scheduling, dispatched on the corpus policy. Whenever the
    // corpus or global block coverage changed, the policy's
    // [`SeedScheduler`](snowplow_corpus::SeedScheduler) recomputes
    // per-entry override weights (or `None` for plain contribution
    // weighting). The Distance arm is kept telemetry- and
    // weight-identical to the pre-redesign code: static distance over
    // the interval-pruned CFG from each entry's coverage to the nearest
    // uncovered, feasible frontier block, contribution weight as the
    // tiebreak.
    fn maybe_recompute_schedule(&mut self) {
        match self.config.corpus.policy {
            SchedulePolicy::Distance => self.recompute_distance_schedule(),
            SchedulePolicy::Uniform => {
                if self.st.sched_len == self.st.corpus.len() {
                    return;
                }
                let weights = {
                    let ctx = ScheduleContext {
                        entries: self.st.corpus.entries(),
                        block_distance: None,
                        rarity: None,
                    };
                    scheduler_for(SchedulePolicy::Uniform).weights(&ctx)
                };
                self.st.corpus.install_schedule(weights);
                self.telemetry.counter("analysis.sched.recompute", 1);
                self.st.sched_len = self.st.corpus.len();
                self.st.sched_blocks_at = self.st.blocks.len();
            }
            SchedulePolicy::CostNormalizedRareEdge => {
                if self.st.sched_len == self.st.corpus.len()
                    && self.st.sched_blocks_at == self.st.blocks.len()
                {
                    return;
                }
                let weights = {
                    let rarity = self.st.corpus.rarity();
                    let ctx = ScheduleContext {
                        entries: self.st.corpus.entries(),
                        block_distance: None,
                        rarity: Some(&rarity),
                    };
                    scheduler_for(SchedulePolicy::CostNormalizedRareEdge).weights(&ctx)
                };
                self.st.corpus.install_schedule(weights);
                self.telemetry.counter("analysis.sched.recompute", 1);
                self.st.sched_len = self.st.corpus.len();
                self.st.sched_blocks_at = self.st.blocks.len();
            }
            // Contribution (and any future policy defaulting here):
            // never install overrides — the handle's baseline weighting
            // is the policy.
            _ => {}
        }
    }

    fn recompute_distance_schedule(&mut self) {
        let Some((infeasible, pruned)) = &self.sched_inputs else {
            return;
        };
        if self.st.sched_len == self.st.corpus.len()
            && self.st.sched_blocks_at == self.st.blocks.len()
        {
            return;
        }
        let span = self.telemetry.span_at(Phase::Analyze, self.st.clock.now());
        self.sched_frontier.clear();
        self.sched_frontier.extend(
            self.kernel
                .cfg()
                .alternative_entries(&self.st.blocks)
                .into_iter()
                .filter(|b| !infeasible.contains(b)),
        );
        if self.sched_frontier.is_empty() {
            // Nothing feasible left to chase: fall back to plain
            // contribution weighting.
            self.st.corpus.install_schedule(None);
        } else {
            pruned.distance_to_sources(&self.sched_frontier, &mut self.sched_dist);
            let weights = {
                let ctx = ScheduleContext {
                    entries: self.st.corpus.entries(),
                    block_distance: Some(&self.sched_dist),
                    rarity: None,
                };
                scheduler_for(SchedulePolicy::Distance).weights(&ctx)
            };
            self.st.corpus.install_schedule(weights);
        }
        self.telemetry.counter("analysis.sched.recompute", 1);
        self.telemetry
            .observe("analysis.sched.frontier", self.sched_frontier.len() as u64);
        span.finish(&self.telemetry, self.st.clock.now());
        self.st.sched_len = self.st.corpus.len();
        self.st.sched_blocks_at = self.st.blocks.len();
    }

    fn baseline_iteration(&mut self, base_idx: usize) {
        let (mutant, outcome) = self
            .mutator
            .mutate(&mut self.st.rng, &self.st.corpus.entry(base_idx).prog);
        self.telemetry.phase(Phase::Mutate, 0);
        self.telemetry
            .observe("mutate.prog_calls", mutant.calls.len() as u64);
        let gained = self.execute_prog(&mutant);
        if outcome.ty == snowplow_prog::MutationType::ArgumentMutation {
            self.st.attribution.random_args += gained;
        } else {
            self.st.attribution.structural += gained;
        }
    }

    // Submit a mutation query for this base unless a prediction is
    // cached or already in flight (async: the result arrives after the
    // inference latency; meanwhile mutation continues below). Submission
    // can be *declined* with a [`ServeError`] — `max_pending_predictions`
    // reached, nothing to target, no mutable sites — the same error
    // type the inference service returns; every declination degrades to
    // the stock random localizer. The model is any [`InferenceClient`]: the
    // owned in-process PMM or a tagged handle to a shared service.
    fn try_submit_query(
        &mut self,
        model: &mut dyn InferenceClient,
        base_idx: usize,
    ) -> Result<(), ServeError> {
        // Cheap short-circuit first: the check must stay ahead of the
        // frontier work to keep the saturated hot loop cheap.
        if self.st.pending.len() >= self.config.max_pending_predictions {
            return Err(ServeError::QueueFull {
                depth: self.st.pending.len(),
                cap: self.config.max_pending_predictions,
            });
        }
        // Desired targets: frontier blocks of the base that the campaign
        // has not covered at all yet. The eligible frontier (not dead,
        // arg-gated) is fixed per entry; the global-coverage filter is
        // re-applied only when coverage grew since the cached epoch.
        if self.st.blocks.len() != self.blocks_at_epoch {
            self.epoch += 1;
            self.blocks_at_epoch = self.st.blocks.len();
        }
        let ent = self.frontier_cache.entry(base_idx).or_insert_with(|| {
            let entry = self.st.corpus.entry(base_idx);
            let eligible: Vec<BlockId> = self
                .kernel
                .cfg()
                .alternative_entries(&entry.coverage)
                .into_iter()
                .filter(|b| {
                    !self.dead_blocks.contains(b)
                        && self.kernel.cfg().arg_gated(self.kernel.blocks(), *b)
                })
                .collect();
            EntryFrontier {
                eligible,
                epoch: u64::MAX,
                wanted: Vec::new(),
            }
        });
        if ent.epoch != self.epoch {
            ent.wanted.clear();
            ent.wanted.extend(
                ent.eligible
                    .iter()
                    .copied()
                    .filter(|b| !self.st.blocks.contains(*b)),
            );
            ent.epoch = self.epoch;
        }
        self.wanted_buf.clear();
        self.wanted_buf.extend_from_slice(&ent.wanted);
        self.telemetry.phase(Phase::FrontierQuery, 0);
        self.telemetry
            .observe("frontier.wanted_blocks", self.wanted_buf.len() as u64);
        if self.wanted_buf.is_empty() {
            return Err(ServeError::MalformedBatch {
                reason: "no uncovered frontier targets".to_owned(),
            });
        }
        self.wanted_buf.shuffle(&mut self.st.rng);
        self.wanted_buf.truncate(self.config.targets_per_query);
        // The graph (and therefore the ranked prediction) depends only
        // on the entry and the target *set* — `QueryGraph::build` reads
        // targets through a set — so a sorted key memoizes exactly.
        let mut key = self.wanted_buf.clone();
        key.sort_unstable();
        if self.pred_memo.len() >= PRED_MEMO_CAP {
            self.pred_memo.clear();
        }
        let key = (base_idx, key);
        // A hit is resolved: only the query in flight can be waiting,
        // and its base holds a pending or ready entry, so it is never
        // queried again while the ticket waits.
        let hit = self.pred_memo.get(&key).filter(|p| !p.is_lost()).cloned();
        let prediction = match hit {
            Some(prediction) => prediction,
            None => {
                let entry = self.st.corpus.entry(base_idx);
                let graph =
                    QueryGraph::build(self.kernel, &entry.prog, &entry.exec, &self.wanted_buf);
                // A campaign keeps at most one ticket in flight: the
                // previous forward pass overlapped everything up to this
                // graph build, and is waited for before the next submit.
                if let Some(prev) = self.in_flight.take() {
                    self.settle(&prev, true);
                }
                // With `top_k >= 1`, `rank` keeps at least one location
                // whenever the graph has candidates, so emptiness is
                // known now; only otherwise must the scores be waited
                // for to tell.
                let must_wait = self.config.top_k == 0 || graph.candidate_count() == 0;
                let prediction = Prediction::submitted(
                    model.submit(graph)?,
                    self.config.threshold,
                    self.config.top_k,
                );
                prediction.resolve(must_wait);
                if prediction.is_lost() {
                    return Err(ServeError::ShuttingDown);
                }
                self.pred_memo.insert(key, prediction.clone());
                prediction
            }
        };
        // An empty set means the base has no mutable argument sites: the
        // same condition the live service rejects as a malformed batch.
        if prediction.is_empty() {
            return Err(ServeError::MalformedBatch {
                reason: "query graph has no candidate mutation sites".to_owned(),
            });
        }
        self.st.inferences += 1;
        self.telemetry.counter("inferences", 1);
        self.telemetry.phase(
            Phase::Predict,
            self.config.inference_latency.as_micros() as u64,
        );
        match prediction.locations() {
            Some(locs) => self
                .telemetry
                .observe("predict.locations", locs.len() as u64),
            None => self.in_flight = Some(prediction.clone()),
        }
        self.st.pending.push_back(PendingPrediction {
            base: base_idx,
            ready_at: self.st.clock.now() + self.config.inference_latency,
            prediction,
        });
        Ok(())
    }

    /// Resolves `prediction`, blocking or not, and records a fresh
    /// resolution: its location count (`predict.locations`, observed
    /// once per submission), or a lost ticket
    /// (`serve.degraded.shutdown`; the base falls back to the random
    /// localizer). Returns whether the prediction is resolved.
    fn settle(&self, prediction: &Prediction, block: bool) -> bool {
        match prediction.resolve(block) {
            Resolution::Waiting => false,
            Resolution::Settled => true,
            Resolution::Ranked(n) => {
                self.telemetry.observe("predict.locations", n as u64);
                true
            }
            Resolution::Lost => {
                self.telemetry.counter("serve.degraded.shutdown", 1);
                true
            }
        }
    }

    /// Waits for the query in flight, if any: checkpoints and the final
    /// report see every prediction resolved and recorded.
    fn settle_in_flight(&self) {
        if let Some(prediction) = &self.in_flight {
            self.settle(prediction, true);
        }
    }

    /// A guided location for `base_idx` from its cached prediction,
    /// drawing one use of the prediction's budget; `None` when the base
    /// has no prediction (or its ticket was lost).
    fn guided_location(&mut self, base_idx: usize) -> Option<ArgLoc> {
        let prediction = self.st.ready.get(&base_idx)?.0.clone();
        self.settle(&prediction, true);
        let locs = prediction.locations().unwrap_or_default();
        if locs.is_empty() {
            self.st.ready.remove(&base_idx);
            return None;
        }
        let loc = locs[self.st.rng.random_range(0..locs.len())].clone();
        let budget = self.config.guided_uses(locs.len());
        if let Some((_, uses)) = self.st.ready.get_mut(&base_idx) {
            let left = uses.get_or_insert(budget);
            *left = left.saturating_sub(1);
            if *left == 0 {
                self.st.ready.remove(&base_idx);
            }
        }
        Some(loc)
    }

    fn snowplow_iteration(&mut self, model: &mut dyn InferenceClient, base_idx: usize) {
        let in_flight = self.st.pending.iter().any(|p| p.base == base_idx);
        if !self.st.ready.contains_key(&base_idx) && !in_flight {
            // Degraded mode: a declined submission leaves this iteration
            // to the random localizer.
            match self.try_submit_query(model, base_idx) {
                Ok(()) => {}
                Err(ServeError::QueueFull { .. }) => {
                    self.telemetry.counter("serve.degraded.queue_full", 1);
                }
                Err(ServeError::MalformedBatch { .. }) => {
                    self.telemetry.counter("serve.degraded.malformed", 1);
                }
                Err(ServeError::ShuttingDown) => {
                    self.telemetry.counter("serve.degraded.shutdown", 1);
                }
            }
        }
        // Same mutation-type mix as the baseline; only the argument
        // *localizer* changes (the paper's exact intervention). A cached
        // prediction guides the localization; otherwise — e.g. while
        // inference is pending — the stock random localizer is the
        // fallback (§3.4).
        let m_type = {
            let mut selector = snowplow_prog::WeightedSelector::default();
            use snowplow_prog::Selector as _;
            selector.select(&mut self.st.rng, &self.st.corpus.entry(base_idx).prog)
        };
        match m_type {
            snowplow_prog::MutationType::ArgumentMutation => {
                let guided = self.guided_location(base_idx);
                let (mutant, applied) = {
                    let base = &self.st.corpus.entry(base_idx).prog;
                    match &guided {
                        Some(loc) => self.mutator.mutate_arguments(
                            &mut self.st.rng,
                            base,
                            Some(std::slice::from_ref(loc)),
                        ),
                        None => self.mutator.mutate_arguments(&mut self.st.rng, base, None),
                    }
                };
                let _ = applied;
                self.telemetry.phase(Phase::Mutate, 0);
                self.telemetry
                    .observe("mutate.prog_calls", mutant.calls.len() as u64);
                if guided.is_some() {
                    self.telemetry.counter("mutate.guided", 1);
                } else {
                    self.telemetry.counter("mutate.random", 1);
                }
                let gained = self.execute_prog(&mutant);
                if guided.is_some() {
                    self.st.attribution.guided_args += gained;
                    if gained > 0 {
                        // Coverage moved: the cached frontier is stale,
                        // requery next time.
                        self.st.ready.remove(&base_idx);
                    }
                } else {
                    self.st.attribution.random_args += gained;
                }
            }
            snowplow_prog::MutationType::CallInsertion => {
                let mutant = self
                    .mutator
                    .insert_call(&mut self.st.rng, &self.st.corpus.entry(base_idx).prog);
                self.telemetry.phase(Phase::Mutate, 0);
                self.telemetry
                    .observe("mutate.prog_calls", mutant.calls.len() as u64);
                self.st.attribution.structural += self.execute_prog(&mutant);
            }
            snowplow_prog::MutationType::CallRemoval => {
                let mutant = self
                    .mutator
                    .remove_call(&mut self.st.rng, &self.st.corpus.entry(base_idx).prog);
                self.telemetry.phase(Phase::Mutate, 0);
                self.telemetry
                    .observe("mutate.prog_calls", mutant.calls.len() as u64);
                self.st.attribution.structural += self.execute_prog(&mutant);
            }
        }
    }
}

impl CampaignReport {
    /// Byte-exact serialization of everything a report contains
    /// (timeline, summary counters, attribution, crash log including
    /// witnesses), so golden tests — hot-cache equivalence here, the
    /// fleet checkpoint/resume goldens — compare reports
    /// *byte-identically* with one string equality.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for p in &self.timeline {
            let _ = writeln!(
                s,
                "{:?} {} {} {} {}",
                p.at, p.edges, p.blocks, p.crashes, p.execs
            );
        }
        let _ = writeln!(
            s,
            "{} {} {} {} {} {:?}",
            self.final_edges,
            self.final_blocks,
            self.execs,
            self.inferences,
            self.corpus_len,
            self.attribution
        );
        for c in self.crashes.records() {
            let _ = writeln!(
                s,
                "{} {:?} {} {:?} {} {:?}",
                c.description, c.category, c.known, c.first_found, c.count, c.witness
            );
        }
        let _ = writeln!(s, "filtered {}", self.crashes.filtered);
        s
    }

    /// Virtual time at which the campaign first reached `edges` unique
    /// edges (linear interpolation on the sampled timeline).
    pub fn time_to_edges(&self, edges: usize) -> Option<Duration> {
        for w in self.timeline.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b.edges >= edges {
                if a.edges >= edges {
                    return Some(a.at);
                }
                let span = (b.edges - a.edges) as f64;
                let frac = if span == 0.0 {
                    0.0
                } else {
                    (edges - a.edges) as f64 / span
                };
                return Some(a.at + Duration::from_secs_f64((b.at - a.at).as_secs_f64() * frac));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use snowplow_kernel::KernelVersion;
    use snowplow_pmm::model::Pmm;

    use super::*;

    fn short_config(seed: u64) -> CampaignConfig {
        CampaignConfig {
            duration: Duration::from_secs(1200),
            seed_corpus: 20,
            sample_every: Duration::from_secs(120),
            seed,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn baseline_campaign_makes_progress() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let report = Campaign::new(&kernel, FuzzerKind::Syzkaller, short_config(1)).run();
        assert!(report.execs > 1000);
        assert!(report.final_edges > 500, "edges {}", report.final_edges);
        assert!(report.corpus_len > 10);
        assert!(!report.timeline.is_empty());
        // Timeline is monotone.
        for w in report.timeline.windows(2) {
            assert!(w[1].edges >= w[0].edges);
            assert!(w[1].at >= w[0].at);
        }
    }

    #[test]
    fn campaigns_are_reproducible_per_seed() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let a = Campaign::new(&kernel, FuzzerKind::Syzkaller, short_config(7)).run();
        let b = Campaign::new(&kernel, FuzzerKind::Syzkaller, short_config(7)).run();
        assert_eq!(a.final_edges, b.final_edges);
        assert_eq!(a.execs, b.execs);
        assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn campaigns_are_independent_of_worker_count() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let run = |workers: usize| {
            let mut cfg = CampaignConfig {
                duration: Duration::from_secs(600),
                sample_every: Duration::from_secs(60),
                ..short_config(11)
            };
            cfg.exec.workers = workers;
            Campaign::new(&kernel, FuzzerKind::Syzkaller, cfg).run()
        };
        let one = run(1);
        for workers in [2, 8] {
            let multi = run(workers);
            assert_eq!(one.timeline, multi.timeline, "workers={workers}");
            assert_eq!(one.final_edges, multi.final_edges, "workers={workers}");
            assert_eq!(one.final_blocks, multi.final_blocks, "workers={workers}");
            assert_eq!(one.execs, multi.execs, "workers={workers}");
            assert_eq!(one.corpus_len, multi.corpus_len, "workers={workers}");
            assert_eq!(one.attribution, multi.attribution, "workers={workers}");
        }
    }

    #[test]
    fn snowplow_mode_runs_and_queries_the_model() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            snowplow_pmm::model::PmmConfig {
                dim: 16,
                rounds: 1,
                ..Default::default()
            },
            kernel.registry().syscall_count(),
        );
        let report = Campaign::new(
            &kernel,
            FuzzerKind::SnowplowShared {
                client: Box::new(model),
            },
            short_config(3),
        )
        .run();
        assert!(report.inferences > 10, "inferences {}", report.inferences);
        assert!(report.final_edges > 500);
    }

    /// A client whose tickets a helper thread answers — or, with
    /// `answer` off, drops unanswered — about a millisecond after
    /// submission, so the campaign meets them still waiting.
    struct DelayedClient {
        jobs: std::sync::mpsc::Sender<Job>,
    }

    type Job = (QueryGraph, crossbeam::channel::Sender<Vec<(ArgLoc, f32)>>);

    impl DelayedClient {
        fn spawn(mut model: Pmm, answer: bool) -> DelayedClient {
            let (jobs, queue) = std::sync::mpsc::channel::<Job>();
            std::thread::spawn(move || {
                for (graph, respond) in queue {
                    std::thread::sleep(Duration::from_millis(1));
                    if answer {
                        let _ = respond.send(model.predict(&graph));
                    }
                }
            });
            DelayedClient { jobs }
        }
    }

    impl InferenceClient for DelayedClient {
        fn predict(&mut self, graph: &QueryGraph) -> Result<Vec<(ArgLoc, f32)>, ServeError> {
            self.submit(graph.clone())?.wait()
        }

        fn submit(&mut self, graph: QueryGraph) -> Result<Ticket, ServeError> {
            let (respond, ticket) = crossbeam::channel::bounded(1);
            self.jobs
                .send((graph, respond))
                .map_err(|_| ServeError::ShuttingDown)?;
            Ok(Ticket::Waiting(ticket))
        }
    }

    fn small_model(kernel: &Kernel) -> Pmm {
        Pmm::new(
            snowplow_pmm::model::PmmConfig {
                dim: 16,
                rounds: 1,
                ..Default::default()
            },
            kernel.registry().syscall_count(),
        )
    }

    /// Runs a `short_config(seed)` campaign and returns its report
    /// fingerprint and rendered telemetry.
    fn fingerprinted(kernel: &Kernel, kind: FuzzerKind, seed: u64) -> (String, String) {
        let (telemetry, _sink) = Telemetry::in_memory();
        let mut cfg = short_config(seed);
        cfg.exec.telemetry = telemetry.clone();
        let report = Campaign::new(kernel, kind, cfg).run();
        (report.fingerprint(), telemetry.snapshot().render())
    }

    #[test]
    fn late_tickets_change_nothing_but_wall_time() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        for seed in [3u64, 4] {
            let owned = fingerprinted(
                &kernel,
                FuzzerKind::SnowplowShared {
                    client: Box::new(small_model(&kernel)),
                },
                seed,
            );
            let late = fingerprinted(
                &kernel,
                FuzzerKind::SnowplowShared {
                    client: Box::new(DelayedClient::spawn(small_model(&kernel), true)),
                },
                seed,
            );
            assert!(
                owned.1.contains("predict.locations"),
                "the model was queried"
            );
            assert_eq!(
                owned.0, late.0,
                "report drifted with late tickets (seed {seed})"
            );
            assert_eq!(
                owned.1, late.1,
                "telemetry drifted with late tickets (seed {seed})"
            );
        }
    }

    #[test]
    fn dropped_tickets_degrade_to_random_localization() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let (telemetry, _sink) = Telemetry::in_memory();
        let mut cfg = short_config(3);
        cfg.exec.telemetry = telemetry.clone();
        let duration = cfg.duration;
        let report = Campaign::new(
            &kernel,
            FuzzerKind::SnowplowShared {
                client: Box::new(DelayedClient::spawn(small_model(&kernel), false)),
            },
            cfg,
        )
        .run();
        let snap = telemetry.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert!(report.timeline.last().is_some_and(|p| p.at >= duration));
        assert!(report.inferences > 0, "queries were submitted");
        assert!(
            counter("serve.degraded.shutdown") > 0,
            "lost tickets are counted"
        );
        assert_eq!(
            counter("mutate.guided"),
            0,
            "no lost ticket guides a mutation"
        );
        assert!(counter("mutate.random") > 0);
    }

    #[test]
    fn distance_policy_makes_progress_on_the_same_exec_budget() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mk_model = || {
            Pmm::new(
                snowplow_pmm::model::PmmConfig {
                    dim: 16,
                    rounds: 1,
                    ..Default::default()
                },
                kernel.registry().syscall_count(),
            )
        };
        for seed in [5u64, 9] {
            for snowplow in [false, true] {
                let run = |policy: SchedulePolicy| {
                    let cfg = CampaignConfig {
                        duration: Duration::from_secs(600),
                        sample_every: Duration::from_secs(60),
                        corpus: CorpusConfig::builder().policy(policy).build(),
                        ..short_config(seed)
                    };
                    let kind = if snowplow {
                        FuzzerKind::SnowplowShared {
                            client: Box::new(mk_model()),
                        }
                    } else {
                        FuzzerKind::Syzkaller
                    };
                    Campaign::new(&kernel, kind, cfg).run()
                };
                // The Distance policy still runs to the deadline and keeps
                // finding coverage — the scheduler reweights, it never
                // starves the loop.
                let baseline = run(SchedulePolicy::Contribution);
                let distance = run(SchedulePolicy::Distance);
                assert!(
                    distance.final_edges > 300,
                    "seed={seed} snowplow={snowplow}: edges {}",
                    distance.final_edges
                );
                assert_eq!(distance.execs, baseline.execs, "same virtual budget spent");
            }
        }
    }

    #[test]
    fn time_to_edges_interpolates() {
        let report = CampaignReport {
            timeline: vec![
                TimelinePoint {
                    at: Duration::from_secs(0),
                    edges: 0,
                    blocks: 0,
                    crashes: 0,
                    execs: 0,
                },
                TimelinePoint {
                    at: Duration::from_secs(100),
                    edges: 100,
                    blocks: 0,
                    crashes: 0,
                    execs: 0,
                },
            ],
            final_edges: 100,
            final_blocks: 0,
            crashes: CrashLog::new(Vec::new()),
            execs: 0,
            inferences: 0,
            corpus_len: 0,
            attribution: EdgeAttribution::default(),
        };
        let t = report.time_to_edges(50).unwrap();
        assert_eq!(t, Duration::from_secs(50));
        assert!(report.time_to_edges(1000).is_none());
    }
}
