//! Asynchronous inference service (§3.4, §4, §5.5).
//!
//! Snowplow serves PMM behind torchserve with a goroutine worker pool on
//! the fuzzer side; this module reproduces that integration shape with a
//! thread pool. Clients submit a [`QueryGraph`] and immediately get a
//! receiver back — the fuzzer keeps mutating by other means while the
//! localization is pending, exactly as §3.4 prescribes. The service
//! tracks latency and throughput for the §5.5 measurements.
//!
//! Workers coalesce queued requests into one packed forward pass
//! ([`Pmm::predict_batch`]) by *continuous batching*: a worker blocks
//! for its first request, takes whatever else is already queued (up to
//! [`BatchPolicy::max_batch`]) and runs at once. It never waits for
//! stragglers — a closed-loop client cannot send its next query before
//! this one is answered — yet under load the requests that queue during
//! one forward pass form the next batch. Batching changes throughput
//! and latency only — scores are bit-identical to serving each query
//! alone.
//!
//! The service runs as **independent replicas** (the paper deploys PMM
//! replicas across 8 GPUs): each worker thread owns its own model copy
//! *and its own request queue*, and submissions are spread across
//! replicas round-robin. Replicas form batches independently — there is
//! no shared queue lock for every worker to convoy on, so adding
//! replicas scales admission instead of serializing it.
//!
//! When several campaigns share one service (the fleet deployment),
//! every request carries a client **tag** and each replica's queue
//! keeps one lane per tag, drained in weighted round-robin rotation: a
//! lane gets [`InferenceService::set_tag_weight`] consecutive turns
//! (default 1) before the rotation moves on, so a hot campaign
//! flooding the queue cannot starve the others, while a deliberately
//! prioritized campaign can be granted a larger share. Untagged
//! submissions all ride lane 0 and behave exactly like the pre-tagging
//! FIFO.
//!
//! Two load-management knobs compose: [`BatchPolicy::queue_cap`]
//! bounds each replica's queue with *backpressure* (blocking submits
//! wait for room), while [`BatchPolicy::admit_depth`] bounds the total
//! in-flight depth with *load shedding* — past it every submit fails
//! fast with [`ServeError::Overloaded`] so callers degrade locally
//! instead of queueing into multi-hundred-millisecond latencies.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use snowplow_prog::ArgLoc;
use snowplow_telemetry::Telemetry;

use crate::graph::QueryGraph;
use crate::model::Pmm;

/// A pending localization result.
pub type Pending = Receiver<Vec<(ArgLoc, f32)>>;

/// Why the service declined a request.
///
/// These were panicking or silently-blocking paths before: queue-cap
/// overflow parked the submitter forever if workers died, and a
/// malformed query hit asserts deep in the forward pass. Callers now
/// get a value they can route around — the campaign loop treats every
/// variant as "degrade to the random localizer for this mutation".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is at capacity ([`BatchPolicy::queue_cap`]).
    QueueFull { depth: usize, cap: usize },
    /// Total in-flight depth crossed [`BatchPolicy::admit_depth`]: the
    /// service is shedding load so admitted requests keep bounded
    /// latency. Unlike [`ServeError::QueueFull`] this also fails
    /// blocking submits — admission control is a shed, not backpressure.
    Overloaded { depth: usize, limit: usize },
    /// The query cannot be packed into a forward pass (e.g. no
    /// candidate mutation sites — the model would have nothing to
    /// score).
    MalformedBatch { reason: String },
    /// The service has stopped accepting work.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { depth, cap } => {
                write!(f, "inference queue full ({depth}/{cap})")
            }
            ServeError::Overloaded { depth, limit } => {
                write!(
                    f,
                    "inference service overloaded ({depth} in flight, limit {limit})"
                )
            }
            ServeError::MalformedBatch { reason } => write!(f, "malformed batch: {reason}"),
            ServeError::ShuttingDown => write!(f, "inference service shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Lock a possibly-poisoned std mutex, keeping the data. A worker that
/// panicked mid-update can at worst leave a stale queue-depth count;
/// that must degrade service quality, never take the fuzzer down with a
/// second panic.
fn lock_ignore_poison<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Request {
    graph: QueryGraph,
    respond: Sender<Vec<(ArgLoc, f32)>>,
    enqueued: Instant,
    /// Which client lane the request rides (0 for untagged callers).
    tag: u32,
}

/// The tagged request queue: one FIFO lane per client tag, drained in
/// *weighted* round-robin rotation. `rr` holds exactly the tags whose
/// lanes are non-empty, each once, in service order; the lane at the
/// front gets up to its weight's worth of consecutive pops (`budget`)
/// before the rotation moves on. Every weight defaulting to 1 recovers
/// plain round-robin exactly.
#[derive(Default)]
struct FairQueue {
    lanes: BTreeMap<u32, VecDeque<Request>>,
    rr: VecDeque<u32>,
    /// Per-tag service weight; absent tags weigh 1.
    weights: BTreeMap<u32, u32>,
    /// Pops the lane at the front of `rr` may still take this turn
    /// (0 = the next pop starts a fresh turn).
    budget: u32,
    depth: usize,
    closed: bool,
}

impl FairQueue {
    fn push(&mut self, req: Request) {
        let lane = self.lanes.entry(req.tag).or_default();
        if lane.is_empty() {
            self.rr.push_back(req.tag);
        }
        lane.push_back(req);
        self.depth += 1;
    }

    fn weight(&self, tag: u32) -> u32 {
        self.weights.get(&tag).copied().unwrap_or(1).max(1)
    }

    /// Pops the front request of the lane currently holding the turn,
    /// rotating the lane to the back once its weighted budget is spent
    /// (or it runs dry).
    fn pop_rr(&mut self) -> Option<Request> {
        let tag = *self.rr.front()?;
        if self.budget == 0 {
            self.budget = self.weight(tag);
        }
        let lane = self.lanes.get_mut(&tag).expect("rr tags have lanes");
        let req = lane.pop_front().expect("queued lanes are non-empty");
        self.budget -= 1;
        self.depth -= 1;
        if lane.is_empty() {
            self.rr.pop_front();
            self.budget = 0;
        } else if self.budget == 0 {
            self.rr.rotate_left(1);
        }
        Some(req)
    }
}

/// The queue plus its wakeup signals. `work` wakes workers when a
/// request arrives; `room` wakes blocked submitters when a worker
/// drains a slot of a bounded queue.
#[derive(Default)]
struct SharedQueue {
    q: std::sync::Mutex<FairQueue>,
    work: std::sync::Condvar,
    room: std::sync::Condvar,
}

/// How workers coalesce queued requests into batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch a worker packs into one forward pass. A worker
    /// never waits to fill it: it serves whatever is queued when it
    /// picks up its first request.
    pub max_batch: usize,
    /// Optional bound on the number of queued (not yet drained)
    /// requests. `None` reproduces torchserve's unbounded queue: under
    /// saturation, queue wait dominates client-observed latency (the
    /// §5.5 run measured 424 ms mean / 683 ms p95 from exactly this).
    /// `Some(cap)` makes [`InferenceService::submit`] block until the
    /// queue has room, trading submission throughput for bounded
    /// latency. Scores are identical either way. With multiple
    /// replicas the cap bounds *each replica's* queue.
    pub queue_cap: Option<usize>,
    /// Admission-control limit on the total number of in-flight
    /// requests (submitted but not yet drained, summed over replicas).
    /// Past it every submit — blocking or not — fails fast with
    /// [`ServeError::Overloaded`], shedding load so the requests the
    /// service does accept keep bounded queue wait. `None` admits
    /// everything.
    pub admit_depth: Option<usize>,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            queue_cap: None,
            admit_depth: None,
        }
    }
}

/// Cap on retained latency samples (enough for stable percentiles
/// without unbounded growth on long campaigns).
const MAX_LATENCY_SAMPLES: usize = 65_536;

/// Aggregate serving statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferenceStats {
    /// Queries served.
    pub served: u64,
    /// Forward passes run (each serving one batch of queries).
    pub batches: u64,
    /// Total wall-clock time spent in model forward passes.
    pub busy: Duration,
    /// Total queue + service latency observed by clients, summed over
    /// queries (stamped at enqueue, recorded when the result is ready).
    pub latency: Duration,
    /// Deepest the request queue ever got (requests submitted but not
    /// yet drained by a worker). With [`BatchPolicy::queue_cap`] set
    /// this never exceeds the cap.
    pub max_queue_depth: u64,
}

impl InferenceStats {
    /// Mean per-query latency.
    pub fn mean_latency(&self) -> Duration {
        if self.served == 0 {
            Duration::ZERO
        } else {
            self.latency.div_f64(self.served as f64)
        }
    }

    /// Mean queries per forward pass.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }
}

#[derive(Debug, Default)]
struct ServiceState {
    stats: InferenceStats,
    latency_samples: Vec<Duration>,
    /// Queries served per client tag — the fleet's fair-share evidence.
    served_by_tag: BTreeMap<u32, u64>,
    /// Queries served per replica — evidence that round-robin routing
    /// actually spreads load instead of convoying on one worker.
    served_by_replica: Vec<u64>,
}

/// A pool of independent inference replicas, each owning a copy of the
/// trained model *and its own request queue* (the paper deploys PMM
/// replicas across 8 GPUs). Submissions are spread across replicas
/// round-robin; batches form per replica with no shared queue lock.
pub struct InferenceService {
    replicas: Vec<Arc<SharedQueue>>,
    workers: Vec<JoinHandle<()>>,
    state: Arc<Mutex<ServiceState>>,
    queue_cap: Option<usize>,
    admit_depth: Option<usize>,
    /// Total submitted-but-not-drained requests across all replicas.
    inflight: Arc<std::sync::atomic::AtomicUsize>,
    /// Round-robin replica routing cursor.
    next_replica: std::sync::atomic::AtomicUsize,
    telemetry: Telemetry,
}

impl std::fmt::Debug for InferenceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceService")
            .field("replicas", &self.workers.len())
            .field("queue_cap", &self.queue_cap)
            .field("admit_depth", &self.admit_depth)
            .finish_non_exhaustive()
    }
}

impl InferenceService {
    /// Spawns `replicas` independent serving replicas with the default
    /// [`BatchPolicy`].
    pub fn start(model: &Pmm, replicas: usize) -> InferenceService {
        InferenceService::start_with_policy(model, replicas, BatchPolicy::default())
    }

    /// Spawns `replicas` serving replicas, each with its own copy of
    /// `model` and its own request queue, coalescing requests according
    /// to `policy`.
    pub fn start_with_policy(
        model: &Pmm,
        replicas: usize,
        policy: BatchPolicy,
    ) -> InferenceService {
        InferenceService::start_instrumented(model, replicas, policy, Telemetry::disabled())
    }

    /// [`InferenceService::start_with_policy`] recording serving
    /// counters (`serve.queries`, `serve.batches`, `serve.batch_size`,
    /// `serve.rejected.*`) into `telemetry`.
    pub fn start_instrumented(
        model: &Pmm,
        replicas: usize,
        policy: BatchPolicy,
        telemetry: Telemetry,
    ) -> InferenceService {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let replicas = replicas.max(1);
        let max_batch = policy.max_batch.max(1);
        let queues: Vec<Arc<SharedQueue>> = (0..replicas)
            .map(|_| Arc::new(SharedQueue::default()))
            .collect();
        let state = Arc::new(Mutex::new(ServiceState {
            served_by_replica: vec![0; replicas],
            ..ServiceState::default()
        }));
        let inflight = Arc::new(AtomicUsize::new(0));
        let handles = queues
            .iter()
            .enumerate()
            .map(|(replica_idx, queue)| {
                let queue = Arc::clone(queue);
                let mut replica = model.clone();
                let state = Arc::clone(&state);
                let inflight = Arc::clone(&inflight);
                let telemetry = telemetry.clone();
                std::thread::spawn(move || loop {
                    // Continuous batching: block for the first request,
                    // then take whatever else is already queued (up to
                    // `max_batch`, weighted round-robin across tags)
                    // under the same lock and run at once. Exit only
                    // once the queue is both closed and fully drained,
                    // so every accepted request gets an answer.
                    let requests = {
                        let mut q = lock_ignore_poison(&queue.q);
                        let first = loop {
                            if let Some(r) = q.pop_rr() {
                                break r;
                            }
                            if q.closed {
                                return;
                            }
                            q = queue.work.wait(q).unwrap_or_else(|e| e.into_inner());
                        };
                        let mut requests = Vec::with_capacity(max_batch);
                        requests.push(first);
                        requests.extend(std::iter::from_fn(|| q.pop_rr()).take(max_batch - 1));
                        requests
                    };
                    // The drained slots free up before the (slow)
                    // forward pass, so blocked submitters make progress
                    // meanwhile.
                    inflight.fetch_sub(requests.len(), Ordering::Relaxed);
                    queue.room.notify_all();

                    let mut graphs = Vec::with_capacity(requests.len());
                    let mut replies = Vec::with_capacity(requests.len());
                    for r in requests {
                        graphs.push(r.graph);
                        replies.push((r.respond, r.enqueued, r.tag));
                    }
                    let start = Instant::now();
                    let results = replica.predict_batch(&graphs);
                    let done = Instant::now();
                    telemetry.counter("serve.queries", graphs.len() as u64);
                    telemetry.counter("serve.batches", 1);
                    telemetry.observe("serve.batch_size", graphs.len() as u64);
                    {
                        let mut st = state.lock();
                        st.stats.served += graphs.len() as u64;
                        st.stats.batches += 1;
                        st.stats.busy += done - start;
                        st.served_by_replica[replica_idx] += graphs.len() as u64;
                        for (_, enqueued, tag) in &replies {
                            let lat = done.duration_since(*enqueued);
                            st.stats.latency += lat;
                            if st.latency_samples.len() < MAX_LATENCY_SAMPLES {
                                st.latency_samples.push(lat);
                            }
                            *st.served_by_tag.entry(*tag).or_insert(0) += 1;
                        }
                    }
                    for ((respond, _, _), result) in replies.into_iter().zip(results) {
                        // The client may have given up; that's fine.
                        let _ = respond.send(result);
                    }
                })
            })
            .collect();
        InferenceService {
            replicas: queues,
            workers: handles,
            state,
            queue_cap: policy.queue_cap,
            admit_depth: policy.admit_depth,
            inflight,
            next_replica: AtomicUsize::new(0),
            telemetry,
        }
    }

    /// Reject queries the forward pass cannot score.
    fn validate(graph: &QueryGraph) -> Result<(), ServeError> {
        if graph.candidate_count() == 0 {
            return Err(ServeError::MalformedBatch {
                reason: "query graph has no candidate mutation sites".to_owned(),
            });
        }
        if graph.target_count() == 0 {
            return Err(ServeError::MalformedBatch {
                reason: "query graph has no target blocks to localize toward".to_owned(),
            });
        }
        Ok(())
    }

    /// Submits a query asynchronously. The caller polls or blocks on the
    /// returned receiver whenever it is ready to apply the localization.
    /// Latency accounting starts here, so queue wait is counted.
    ///
    /// Never blocks: with [`BatchPolicy::queue_cap`] set and the queue
    /// at capacity this returns [`ServeError::QueueFull`] so the caller
    /// can degrade (the campaign loop falls back to the random
    /// localizer) instead of stalling the fuzzing loop. Use
    /// [`InferenceService::submit_blocking`] for backpressure instead.
    pub fn submit(&self, graph: QueryGraph) -> Result<Pending, ServeError> {
        self.submit_inner(graph, 0, false)
    }

    /// Like [`InferenceService::submit`], but applies backpressure: with
    /// a full bounded queue this waits until a worker drains room
    /// instead of returning [`ServeError::QueueFull`].
    pub fn submit_blocking(&self, graph: QueryGraph) -> Result<Pending, ServeError> {
        self.submit_inner(graph, 0, true)
    }

    /// [`InferenceService::submit`] under a client tag: the request
    /// rides its tag's lane and round-robin admission arbitrates
    /// between tags, so no campaign can starve another.
    pub fn submit_tagged(&self, graph: QueryGraph, tag: u32) -> Result<Pending, ServeError> {
        self.submit_inner(graph, tag, false)
    }

    /// [`InferenceService::submit_blocking`] under a client tag.
    pub fn submit_blocking_tagged(
        &self,
        graph: QueryGraph,
        tag: u32,
    ) -> Result<Pending, ServeError> {
        self.submit_inner(graph, tag, true)
    }

    fn submit_inner(
        &self,
        graph: QueryGraph,
        tag: u32,
        block: bool,
    ) -> Result<Pending, ServeError> {
        use std::sync::atomic::Ordering;
        Self::validate(&graph).inspect_err(|_| {
            self.telemetry.counter("serve.rejected.malformed", 1);
        })?;
        // Admission control: reserve an in-flight slot before touching
        // any queue lock, atomically, so racing submitters cannot all
        // pass at `limit - 1`. Past the limit the submit is shed;
        // blocking submits are shed too — bounded latency is the
        // contract, not eventual admission.
        let limit = self.admit_depth.map_or(usize::MAX, |l| l.max(1));
        if let Err(depth) = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                (d < limit).then_some(d + 1)
            })
        {
            self.telemetry.counter("serve.rejected.overloaded", 1);
            return Err(ServeError::Overloaded { depth, limit });
        }
        // Spread load round-robin; each replica forms batches from its
        // own queue, so there is no shared lock to convoy on.
        let queue =
            &self.replicas[self.next_replica.fetch_add(1, Ordering::Relaxed) % self.replicas.len()];
        let (respond, rx) = channel::bounded(1);
        {
            let cap = self.queue_cap.map(|c| c.max(1));
            let mut q = lock_ignore_poison(&queue.q);
            while block && cap.is_some_and(|c| q.depth >= c) && !q.closed {
                q = queue.room.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            let refused = if q.closed {
                Some(ServeError::ShuttingDown)
            } else {
                cap.filter(|&c| q.depth >= c).map(|cap| {
                    self.telemetry.counter("serve.rejected.queue_full", 1);
                    ServeError::QueueFull {
                        depth: q.depth,
                        cap,
                    }
                })
            };
            if let Some(e) = refused {
                // The request never reached a queue: hand its slot back.
                self.inflight.fetch_sub(1, Ordering::Relaxed);
                return Err(e);
            }
            q.push(Request {
                graph,
                respond,
                enqueued: Instant::now(),
                tag,
            });
            let mut st = self.state.lock();
            st.stats.max_queue_depth = st.stats.max_queue_depth.max(q.depth as u64);
        }
        queue.work.notify_one();
        Ok(rx)
    }

    /// Convenience: submit (with backpressure) and wait.
    pub fn predict_blocking(&self, graph: QueryGraph) -> Result<Vec<(ArgLoc, f32)>, ServeError> {
        self.submit_blocking(graph)?
            .recv()
            .map_err(|_| ServeError::ShuttingDown)
    }

    /// Convenience: submit under a tag (with backpressure) and wait.
    pub fn predict_blocking_tagged(
        &self,
        graph: QueryGraph,
        tag: u32,
    ) -> Result<Vec<(ArgLoc, f32)>, ServeError> {
        self.submit_blocking_tagged(graph, tag)?
            .recv()
            .map_err(|_| ServeError::ShuttingDown)
    }

    /// Snapshot of the serving statistics.
    pub fn stats(&self) -> InferenceStats {
        self.state.lock().stats
    }

    /// Queries served per client tag since startup. Untagged
    /// submissions count under tag 0.
    pub fn served_by_tag(&self) -> BTreeMap<u32, u64> {
        self.state.lock().served_by_tag.clone()
    }

    /// Queries served per replica since startup (indexed by replica).
    pub fn served_by_replica(&self) -> Vec<u64> {
        self.state.lock().served_by_replica.clone()
    }

    /// Grants `tag`'s lane `weight` consecutive turns per round-robin
    /// rotation on every replica (default 1; 0 clamps to 1). A fleet
    /// uses this to deliberately prioritize one campaign without
    /// letting it starve the rest — the others still get their turns.
    pub fn set_tag_weight(&self, tag: u32, weight: u32) {
        for queue in &self.replicas {
            lock_ignore_poison(&queue.q)
                .weights
                .insert(tag, weight.max(1));
        }
    }

    /// The `q`-th latency percentile over retained samples (`q` in
    /// `[0, 100]`), `Duration::ZERO` before any query completes.
    pub fn latency_percentile(&self, q: f64) -> Duration {
        let st = self.state.lock();
        if st.latency_samples.is_empty() {
            return Duration::ZERO;
        }
        let mut samples = st.latency_samples.clone();
        drop(st);
        samples.sort_unstable();
        let rank = ((q / 100.0) * (samples.len() - 1) as f64).round() as usize;
        samples[rank.min(samples.len() - 1)]
    }

    /// Number of worker threads (one per replica).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of serving replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        // Closing the queues stops the workers once they drain.
        for queue in &self.replicas {
            lock_ignore_poison(&queue.q).closed = true;
            queue.work.notify_all();
            queue.room.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A submitted query's answer: already scored, or waiting on a replica.
///
/// [`InferenceClient::submit`] hands one back without blocking, so the
/// caller can keep fuzzing while the forward pass runs and read the
/// scores when it first needs them.
#[derive(Debug)]
pub enum Ticket {
    /// Scored at submission (an in-process model).
    Ready(Vec<(ArgLoc, f32)>),
    /// Queued on a service replica.
    Waiting(Pending),
}

impl Ticket {
    /// Blocks until the scores arrive. A ticket whose sender was
    /// dropped — the replica panicked mid-batch, or the service shut
    /// down without answering — resolves to [`ServeError::ShuttingDown`].
    pub fn wait(self) -> Result<Vec<(ArgLoc, f32)>, ServeError> {
        match self {
            Ticket::Ready(scores) => Ok(scores),
            Ticket::Waiting(rx) => rx.recv().map_err(|_| ServeError::ShuttingDown),
        }
    }

    /// [`Ticket::wait`] without blocking: the ticket comes back as
    /// `Err` while its scores are still on the way.
    pub fn try_wait(self) -> Result<Result<Vec<(ArgLoc, f32)>, ServeError>, Ticket> {
        match self {
            Ticket::Ready(scores) => Ok(Ok(scores)),
            Ticket::Waiting(rx) => match rx.try_recv() {
                Ok(scores) => Ok(Ok(scores)),
                Err(channel::TryRecvError::Disconnected) => Ok(Err(ServeError::ShuttingDown)),
                Err(channel::TryRecvError::Empty) => Err(Ticket::Waiting(rx)),
            },
        }
    }
}

/// A prediction endpoint a campaign can own.
///
/// Two implementations ship: [`Pmm`] itself — the in-process model a
/// standalone Snowplow campaign embeds, which scores at submission and
/// never fails — and [`ServiceClient`] — a tagged handle to a shared
/// [`InferenceService`] whose [`submit`](InferenceClient::submit)
/// returns at once with a waiting [`Ticket`], and whose error surface
/// ([`ServeError`]) the campaign loop degrades around. `Send` is a
/// supertrait so a boxed client can move with its campaign across fleet
/// worker threads.
pub trait InferenceClient: Send {
    /// Scores `graph`, blocking until the answer is in.
    fn predict(&mut self, graph: &QueryGraph) -> Result<Vec<(ArgLoc, f32)>, ServeError>;

    /// Submits `graph` and returns without waiting for its scores where
    /// the client can. The default scores at once through
    /// [`predict`](InferenceClient::predict).
    fn submit(&mut self, graph: QueryGraph) -> Result<Ticket, ServeError> {
        self.predict(&graph).map(Ticket::Ready)
    }
}

impl InferenceClient for Pmm {
    fn predict(&mut self, graph: &QueryGraph) -> Result<Vec<(ArgLoc, f32)>, ServeError> {
        Ok(Pmm::predict(self, graph))
    }
}

/// Per-campaign handle to one shared [`InferenceService`]: every query
/// is submitted (with backpressure) under the campaign's tag, so
/// round-robin admission arbitrates between campaigns.
pub struct ServiceClient {
    service: Arc<InferenceService>,
    tag: u32,
}

impl ServiceClient {
    pub fn new(service: Arc<InferenceService>, tag: u32) -> ServiceClient {
        ServiceClient { service, tag }
    }

    pub fn tag(&self) -> u32 {
        self.tag
    }
}

impl InferenceClient for ServiceClient {
    fn predict(&mut self, graph: &QueryGraph) -> Result<Vec<(ArgLoc, f32)>, ServeError> {
        self.submit(graph.clone())?.wait()
    }

    fn submit(&mut self, graph: QueryGraph) -> Result<Ticket, ServeError> {
        self.service
            .submit_blocking_tagged(graph, self.tag)
            .map(Ticket::Waiting)
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snowplow_kernel::{Kernel, KernelVersion, Vm};
    use snowplow_prog::gen::Generator;

    use crate::model::PmmConfig;

    use super::*;

    fn graph_for(seed: u64, kernel: &Kernel) -> QueryGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = Generator::new(kernel.registry()).generate(&mut rng, 4);
        let mut vm = Vm::new(kernel);
        let exec = vm.execute(&prog);
        let cov = exec.coverage();
        let frontier = kernel.cfg().alternative_entries(&cov);
        QueryGraph::build(kernel, &prog, &exec, &frontier[..frontier.len().min(2)])
    }

    #[test]
    fn async_submission_matches_direct_prediction() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut model = Pmm::new(
            PmmConfig {
                dim: 24,
                rounds: 2,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start(&model, 2);
        let g = graph_for(1, &kernel);
        let direct = model.predict(&g);
        let served = service.predict_blocking(g).expect("well-formed query");
        assert_eq!(direct, served);
        assert_eq!(service.stats().served, 1);
    }

    #[test]
    fn concurrent_queries_all_complete() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start(&model, 4);
        let pendings: Vec<Pending> = (0..20)
            .map(|i| service.submit(graph_for(i, &kernel)).expect("accepted"))
            .collect();
        for p in pendings {
            // Invariant: the service owns live workers for the whole
            // test, so every submitted query gets an answer.
            let r = p.recv().expect("worker answers");
            assert!(!r.is_empty());
        }
        let stats = service.stats();
        assert_eq!(stats.served, 20);
        assert!(stats.mean_latency() > Duration::ZERO);
        assert!(service.latency_percentile(95.0) >= stats.mean_latency() / 2);
    }

    #[test]
    fn batched_serving_matches_direct_prediction() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut model = Pmm::new(
            PmmConfig {
                dim: 24,
                rounds: 2,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start_with_policy(
            &model,
            1,
            BatchPolicy {
                max_batch: 8,
                queue_cap: None,
                admit_depth: None,
            },
        );
        let graphs: Vec<QueryGraph> = (0..12).map(|i| graph_for(i, &kernel)).collect();
        let pendings: Vec<Pending> = graphs
            .iter()
            .map(|g| service.submit(g.clone()).expect("accepted"))
            .collect();
        for (g, p) in graphs.iter().zip(pendings) {
            let served = p.recv().expect("worker answers");
            assert_eq!(model.predict(g), served, "batching must not change scores");
        }
        let stats = service.stats();
        assert_eq!(stats.served, 12);
        assert!(
            stats.batches <= stats.served,
            "batches never exceed queries"
        );
        assert!(stats.batches >= 1);
    }

    #[test]
    fn latency_counts_queue_wait_under_saturation() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 32,
                rounds: 3,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        // One worker, no batching: 8 queued queries serialize, so the
        // later ones wait in queue for the earlier ones' service time.
        // Client-observed latency must therefore exceed pure model time.
        let service = InferenceService::start_with_policy(
            &model,
            1,
            BatchPolicy {
                max_batch: 1,
                queue_cap: None,
                admit_depth: None,
            },
        );
        let pendings: Vec<Pending> = (0..8)
            .map(|i| service.submit(graph_for(i, &kernel)).expect("accepted"))
            .collect();
        for p in pendings {
            p.recv().expect("worker answers");
        }
        let stats = service.stats();
        assert_eq!(stats.served, 8);
        assert!(
            stats.latency > stats.busy,
            "client latency ({:?}) must include queue wait beyond model busy time ({:?})",
            stats.latency,
            stats.busy
        );
    }

    #[test]
    fn bounded_queue_caps_depth_and_preserves_results() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start_with_policy(
            &model,
            1,
            BatchPolicy {
                max_batch: 2,
                queue_cap: Some(3),
                admit_depth: None,
            },
        );
        // Submitting more than the cap forces submit_blocking() to wait
        // for workers to drain, so the observed depth stays bounded
        // while every query still gets the exact same answer.
        let graphs: Vec<QueryGraph> = (0..16).map(|i| graph_for(i, &kernel)).collect();
        let pendings: Vec<Pending> = graphs
            .iter()
            .map(|g| service.submit_blocking(g.clone()).expect("accepted"))
            .collect();
        for (g, p) in graphs.iter().zip(pendings) {
            let served = p.recv().expect("worker answers");
            assert_eq!(
                model.predict(g),
                served,
                "backpressure must not change scores"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.served, 16);
        assert!(
            stats.max_queue_depth <= 3,
            "queue depth {} exceeded cap 3",
            stats.max_queue_depth
        );
        assert!(stats.max_queue_depth >= 1);
    }

    #[test]
    fn unbounded_queue_records_depth_high_water_mark() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start_with_policy(
            &model,
            1,
            BatchPolicy {
                max_batch: 1,
                queue_cap: None,
                admit_depth: None,
            },
        );
        let pendings: Vec<Pending> = (0..8)
            .map(|i| service.submit(graph_for(i, &kernel)).expect("accepted"))
            .collect();
        for p in pendings {
            p.recv().expect("worker answers");
        }
        assert!(service.stats().max_queue_depth >= 1);
    }

    /// A service whose queue never drains: zero workers. Only
    /// constructible here (fields are private), and exactly what the
    /// queue-overflow and admission-shed paths need to be deterministic.
    fn stalled_service(
        queue_cap: Option<usize>,
        admit_depth: Option<usize>,
        telemetry: Telemetry,
    ) -> InferenceService {
        InferenceService {
            replicas: vec![Arc::new(SharedQueue::default())],
            workers: Vec::new(),
            state: Arc::new(Mutex::new(ServiceState {
                served_by_replica: vec![0],
                ..ServiceState::default()
            })),
            queue_cap,
            admit_depth,
            inflight: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            next_replica: std::sync::atomic::AtomicUsize::new(0),
            telemetry,
        }
    }

    #[test]
    fn fair_queue_rotates_across_tags() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut q = FairQueue::default();
        let mk = |tag: u32, seed: u64| {
            // The receiver side is dropped: these requests are only
            // queued and popped, never served.
            let (respond, _rx) = channel::bounded(1);
            Request {
                graph: graph_for(seed, &kernel),
                respond,
                enqueued: Instant::now(),
                tag,
            }
        };
        // A hot tag (1) floods the queue ahead of two quiet tags.
        for (i, tag) in [1u32, 1, 1, 2, 3, 1].into_iter().enumerate() {
            q.push(mk(tag, i as u64));
        }
        assert_eq!(q.depth, 6);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_rr()).map(|r| r.tag).collect();
        // Round-robin: every lane gets a turn per rotation, so the
        // quiet tags are served ahead of the hot tag's backlog.
        assert_eq!(order, vec![1, 2, 3, 1, 1, 1]);
        assert_eq!(q.depth, 0);
        assert!(q.pop_rr().is_none());
    }

    #[test]
    fn weighted_fair_queue_grants_heavy_tags_more_turns() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut q = FairQueue::default();
        q.weights.insert(1, 2);
        let mk = |tag: u32, seed: u64| {
            let (respond, _rx) = channel::bounded(1);
            Request {
                graph: graph_for(seed, &kernel),
                respond,
                enqueued: Instant::now(),
                tag,
            }
        };
        for (i, tag) in [1u32, 1, 1, 2, 3, 1].into_iter().enumerate() {
            q.push(mk(tag, i as u64));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_rr()).map(|r| r.tag).collect();
        // Tag 1 weighs 2: it takes two consecutive turns per rotation,
        // but tags 2 and 3 still get served every rotation.
        assert_eq!(order, vec![1, 1, 2, 3, 1, 1]);
        assert!(q.pop_rr().is_none());
    }

    #[test]
    fn overload_sheds_blocking_and_nonblocking_submits() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let (telemetry, _sink) = Telemetry::in_memory();
        let service = stalled_service(None, Some(2), telemetry.clone());
        let _a = service.submit(graph_for(0, &kernel)).expect("admitted");
        let _b = service
            .submit_blocking(graph_for(1, &kernel))
            .expect("admitted");
        // Past the admission limit both submit flavors shed instead of
        // queueing (or parking) the caller.
        match service.submit(graph_for(2, &kernel)) {
            Err(ServeError::Overloaded { depth, limit }) => {
                assert_eq!((depth, limit), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        match service.submit_blocking(graph_for(3, &kernel)) {
            Err(ServeError::Overloaded { .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(
            telemetry.snapshot().counters["serve.rejected.overloaded"],
            2
        );
    }

    #[test]
    fn admission_reopens_once_workers_drain_the_queue() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start_with_policy(
            &model,
            1,
            BatchPolicy {
                admit_depth: Some(4),
                ..BatchPolicy::default()
            },
        );
        // Saturate-and-drain a few times: whenever a submit is shed the
        // already-admitted work still completes, and admission reopens
        // once workers drain the queue.
        let mut answered = 0u64;
        for round in 0..4 {
            let pendings: Vec<Pending> = (0..8)
                .filter_map(|i| service.submit(graph_for(round * 8 + i, &kernel)).ok())
                .collect();
            assert!(!pendings.is_empty(), "an idle service admits work");
            for p in pendings {
                p.recv().expect("admitted queries are answered");
                answered += 1;
            }
        }
        assert_eq!(service.stats().served, answered);
        // The drained service is accepting again.
        assert!(service.submit(graph_for(99, &kernel)).is_ok());
    }

    /// Eight threads released together race 200 `submit`s each at
    /// `service`, checking every shed against `limit`; returns the
    /// admitted requests.
    fn race_submits(service: &InferenceService, graph: &QueryGraph, limit: usize) -> Vec<Pending> {
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut admitted = Vec::new();
                        for _ in 0..200 {
                            match service.submit(graph.clone()) {
                                Ok(p) => admitted.push(p),
                                Err(ServeError::Overloaded { depth, limit: l }) => {
                                    assert_eq!(l, limit);
                                    assert!(depth >= l, "shed at depth {depth} below limit {l}");
                                }
                                Err(e) => panic!("unexpected serve error: {e}"),
                            }
                        }
                        admitted
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
    }

    #[test]
    fn admission_limit_holds_under_concurrent_submitters() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let g = graph_for(0, &kernel);
        let limit = 2;
        // A check-then-increment admission lets racing submitters all
        // pass at `limit - 1`. With no worker draining, anything past
        // `limit` admitted is that overshoot.
        for _ in 0..20 {
            let stalled = stalled_service(None, Some(limit), Telemetry::disabled());
            assert_eq!(race_submits(&stalled, &g, limit).len(), limit);
        }
        // With a live replica draining, the queue never outgrows it.
        let service = InferenceService::start_with_policy(
            &model,
            1,
            BatchPolicy {
                admit_depth: Some(limit),
                ..BatchPolicy::default()
            },
        );
        let admitted = race_submits(&service, &g, limit);
        for p in &admitted {
            p.recv().expect("admitted queries are answered");
        }
        let stats = service.stats();
        assert_eq!(stats.served, admitted.len() as u64);
        assert!(
            stats.max_queue_depth <= limit as u64,
            "queue depth {} overshot the admission limit {limit}",
            stats.max_queue_depth
        );
    }

    #[test]
    fn continuous_batching_still_batches_under_load() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut model = Pmm::new(
            PmmConfig {
                dim: 24,
                rounds: 2,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let policy = BatchPolicy::default();
        let service = InferenceService::start_with_policy(&model, 1, policy);
        let graphs: Vec<QueryGraph> = (0..64).map(|i| graph_for(i, &kernel)).collect();
        // Front-load every query: the ones that queue while a forward
        // pass runs must form the next batch.
        let pendings: Vec<Pending> = graphs
            .clone()
            .into_iter()
            .map(|g| service.submit(g).expect("accepted"))
            .collect();
        for (g, p) in graphs.iter().zip(pendings) {
            let served = p.recv().expect("worker answers");
            assert_eq!(model.predict(g), served, "batching must not change scores");
        }
        let stats = service.stats();
        assert_eq!(stats.served, 64);
        assert!(
            stats.batches < stats.served,
            "no batch formed under load: {} batches for {} queries",
            stats.batches,
            stats.served
        );
        assert!(stats.mean_batch() <= policy.max_batch as f64);
    }

    #[test]
    fn lone_client_is_not_held_for_stragglers() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        // A small model on one-call programs keeps the forward pass
        // to a few hundred µs, even unoptimized, so holding a lone
        // query for stragglers for as long would trip the assertion.
        let model = Pmm::new(
            PmmConfig {
                dim: 4,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start(&model, 1);
        let graphs: Vec<QueryGraph> = (0..16)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let prog = Generator::new(kernel.registry()).generate(&mut rng, 1);
                let exec = Vm::new(&kernel).execute(&prog);
                let frontier = kernel.cfg().alternative_entries(&exec.coverage());
                QueryGraph::build(&kernel, &prog, &exec, &frontier[..frontier.len().min(1)])
            })
            .filter(|g| InferenceService::validate(g).is_ok())
            .collect();
        assert!(!graphs.is_empty());
        // A closed-loop client, the way `ServiceClient` drives the
        // service: its next query only exists once this one is answered,
        // so any wait for a second request is pure idle time.
        for i in 0..200 {
            service
                .predict_blocking_tagged(graphs[i % graphs.len()].clone(), 1)
                .expect("well-formed query");
        }
        let stats = service.stats();
        assert_eq!(stats.served, 200);
        let forward = stats.busy / 200;
        let queue_wait = stats.latency.saturating_sub(stats.busy) / 200;
        assert!(
            queue_wait < forward,
            "a lone query waited {queue_wait:?} in queue against a {forward:?} forward pass"
        );
    }

    #[test]
    fn replicas_form_batches_independently() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut model = Pmm::new(
            PmmConfig {
                dim: 24,
                rounds: 2,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start_with_policy(
            &model,
            3,
            BatchPolicy {
                max_batch: 4,
                ..BatchPolicy::default()
            },
        );
        assert_eq!(service.replica_count(), 3);
        let graphs: Vec<QueryGraph> = (0..12).map(|i| graph_for(i, &kernel)).collect();
        let pendings: Vec<Pending> = graphs
            .iter()
            .map(|g| service.submit(g.clone()).expect("accepted"))
            .collect();
        for (g, p) in graphs.iter().zip(pendings) {
            let served = p.recv().expect("worker answers");
            assert_eq!(model.predict(g), served, "sharding must not change scores");
        }
        let by_replica = service.served_by_replica();
        assert_eq!(by_replica.len(), 3);
        assert_eq!(by_replica.iter().sum::<u64>(), 12);
        // Round-robin routing spreads 12 submissions evenly: every
        // replica received exactly 4, so none can have served more.
        assert!(
            by_replica.iter().all(|&n| n == 4),
            "routing convoyed: {by_replica:?}"
        );
    }

    #[test]
    fn service_wide_weights_prioritize_a_tag_on_every_replica() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start(&model, 2);
        service.set_tag_weight(7, 3);
        for queue in &service.replicas {
            assert_eq!(lock_ignore_poison(&queue.q).weight(7), 3);
            assert_eq!(lock_ignore_poison(&queue.q).weight(8), 1, "default weight");
        }
        // Weighted lanes still serve correctly end to end.
        for i in 0..4 {
            let _ = service
                .predict_blocking_tagged(graph_for(i, &kernel), 7)
                .unwrap();
        }
        assert_eq!(service.served_by_tag().get(&7), Some(&4));
    }

    #[test]
    fn tagged_serving_attributes_queries_to_lanes() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start(&model, 2);
        for i in 0..4 {
            let _ = service
                .predict_blocking_tagged(graph_for(i, &kernel), 7)
                .unwrap();
        }
        let _ = service.predict_blocking(graph_for(9, &kernel)).unwrap();
        let by_tag = service.served_by_tag();
        assert_eq!(by_tag.get(&7), Some(&4));
        assert_eq!(by_tag.get(&0), Some(&1));
        assert_eq!(service.stats().served, 5);
    }

    #[test]
    fn service_client_matches_direct_prediction() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut model = Pmm::new(
            PmmConfig {
                dim: 24,
                rounds: 2,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = Arc::new(InferenceService::start(&model, 2));
        let mut client = ServiceClient::new(Arc::clone(&service), 3);
        let g = graph_for(2, &kernel);
        let direct = model.predict(&g);
        let served = InferenceClient::predict(&mut client, &g).expect("well-formed");
        assert_eq!(direct, served);
        assert_eq!(client.tag(), 3);
        assert_eq!(service.served_by_tag().get(&3), Some(&1));
        // The Pmm impl of the trait is the identity wrapper.
        let owned = InferenceClient::predict(&mut model, &g).expect("infallible");
        assert_eq!(owned, direct);
    }

    #[test]
    fn service_client_submit_returns_before_the_forward_pass() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let mut model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let g = graph_for(4, &kernel);
        let direct = model.predict(&g);

        // No replica runs: `submit` still returns at once, its ticket
        // waiting. (Submitted from a helper thread, so a `submit` that
        // waited for the forward pass fails the test instead of hanging
        // it.)
        let stalled = Arc::new(stalled_service(None, None, Telemetry::disabled()));
        let (submitted, returned) = std::sync::mpsc::channel();
        let submitter = {
            let stalled = Arc::clone(&stalled);
            let g = g.clone();
            std::thread::spawn(move || {
                let ticket = ServiceClient::new(stalled, 5).submit(g);
                let _ = submitted.send(());
                ticket
            })
        };
        returned
            .recv_timeout(Duration::from_secs(10))
            .expect("submit returned without waiting for a replica");
        let ticket = submitter
            .join()
            .expect("submitter thread")
            .expect("admitted")
            .try_wait()
            .expect_err("no replica has answered");
        // The unanswered request (and its sender) goes down with the
        // service: the ticket resolves to an error instead of hanging.
        drop(stalled);
        assert_eq!(ticket.wait(), Err(ServeError::ShuttingDown));

        // A live replica answers the ticket with the direct scores.
        let service = Arc::new(InferenceService::start(&model, 1));
        let mut client = ServiceClient::new(Arc::clone(&service), 5);
        let served = client.submit(g.clone()).expect("admitted").wait();
        assert_eq!(served, Ok(direct.clone()));
        assert_eq!(service.served_by_tag().get(&5), Some(&1));
        // Malformed queries are refused at submission, as by `predict`.
        let mut empty = g.clone();
        empty.candidates.clear();
        assert!(matches!(
            client.submit(empty),
            Err(ServeError::MalformedBatch { .. })
        ));

        // The owned model scores at submission.
        match InferenceClient::submit(&mut model, g) {
            Ok(Ticket::Ready(scores)) => assert_eq!(scores, direct),
            other => panic!("owned model must score at submission: {other:?}"),
        }
    }

    #[test]
    fn queue_overflow_returns_error_instead_of_blocking() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let (telemetry, _sink) = Telemetry::in_memory();
        let service = stalled_service(Some(2), None, telemetry.clone());
        let _a = service.submit(graph_for(0, &kernel)).expect("room");
        let _b = service.submit(graph_for(1, &kernel)).expect("room");
        match service.submit(graph_for(2, &kernel)) {
            Err(ServeError::QueueFull { depth, cap }) => {
                assert_eq!((depth, cap), (2, 2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(
            telemetry.snapshot().counters["serve.rejected.queue_full"],
            1
        );
    }

    #[test]
    fn refused_requests_hand_their_admission_slot_back() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let service = stalled_service(Some(1), Some(2), Telemetry::disabled());
        let _a = service.submit(graph_for(0, &kernel)).expect("room");
        // Every overflow is a full queue, not an exhausted admission
        // budget: a request that never reached the queue holds no slot.
        for seed in 1..4 {
            assert!(matches!(
                service.submit(graph_for(seed, &kernel)),
                Err(ServeError::QueueFull { depth: 1, cap: 1 })
            ));
        }
    }

    #[test]
    fn malformed_query_is_rejected_not_panicked() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let (telemetry, _sink) = Telemetry::in_memory();
        let service = InferenceService::start_instrumented(
            &model,
            1,
            BatchPolicy::default(),
            telemetry.clone(),
        );
        // A query graph built with an empty frontier has no candidate
        // mutation sites — nothing for the model to score.
        let mut rng = StdRng::seed_from_u64(3);
        let prog = Generator::new(kernel.registry()).generate(&mut rng, 4);
        let mut vm = Vm::new(&kernel);
        let exec = vm.execute(&prog);
        let empty = QueryGraph::build(&kernel, &prog, &exec, &[]);
        match service.submit(empty) {
            Err(ServeError::MalformedBatch { reason }) => {
                assert!(reason.contains("target"), "reason: {reason}");
            }
            other => panic!("expected MalformedBatch, got {other:?}"),
        }
        assert_eq!(telemetry.snapshot().counters["serve.rejected.malformed"], 1);
    }

    #[test]
    fn serve_errors_display_cleanly() {
        assert_eq!(
            ServeError::QueueFull { depth: 4, cap: 4 }.to_string(),
            "inference queue full (4/4)"
        );
        assert!(ServeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        let e: Box<dyn std::error::Error> = Box::new(ServeError::MalformedBatch {
            reason: "empty".into(),
        });
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn instrumented_service_counts_queries_and_batches() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let (telemetry, _sink) = Telemetry::in_memory();
        let service = InferenceService::start_instrumented(
            &model,
            2,
            BatchPolicy::default(),
            telemetry.clone(),
        );
        for i in 0..6 {
            let _ = service.predict_blocking(graph_for(i, &kernel)).unwrap();
        }
        drop(service);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counters["serve.queries"], 6);
        assert!(snap.counters["serve.batches"] >= 1);
        assert_eq!(snap.hist("serve.batch_size").unwrap().sum(), 6);
    }

    #[test]
    fn drop_shuts_workers_down() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start(&model, 2);
        drop(service); // must not hang
    }
}
