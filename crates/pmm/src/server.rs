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
//! [`MAX_BATCH`]) and runs at once. It never waits for stragglers — a
//! closed-loop client cannot send its next query before this one is
//! answered — yet under load the requests that queue during one forward
//! pass form the next batch. Batching changes throughput and latency
//! only — scores are bit-identical to serving each query alone.
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
//! keeps one lane per tag, drained in round-robin rotation, so a hot
//! campaign flooding the queue cannot starve the others.
//!
//! The queues are unbounded. A campaign keeps at most one query in
//! flight, so a replica's queue never holds more requests than there
//! are campaigns submitting to it.

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

/// Largest batch a replica packs into one forward pass. A replica never
/// waits to fill it: it serves whatever is queued when it picks up its
/// first request.
pub const MAX_BATCH: usize = 8;

/// Why a prediction was declined.
///
/// Callers get a value they can route around instead of a panic deep in
/// the forward pass — the campaign loop treats every variant as
/// "degrade to the random localizer for this mutation".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The caller already has `cap` predictions pending. The service
    /// never refuses for depth; a campaign's own pending-prediction
    /// bound does.
    QueueFull { depth: usize, cap: usize },
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
    /// Which client lane the request rides.
    tag: u32,
}

/// The tagged request queue: one FIFO lane per client tag, drained in
/// round-robin rotation. `rr` holds exactly the tags whose lanes are
/// non-empty, each once, in service order.
#[derive(Default)]
struct FairQueue {
    lanes: BTreeMap<u32, VecDeque<Request>>,
    rr: VecDeque<u32>,
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

    /// Pops the front request of the lane holding the turn and moves
    /// that lane to the back of the rotation (or out of it, once dry).
    fn pop_rr(&mut self) -> Option<Request> {
        let tag = self.rr.pop_front()?;
        let lane = self.lanes.get_mut(&tag).expect("rr tags have lanes");
        let req = lane.pop_front().expect("queued lanes are non-empty");
        self.depth -= 1;
        if !lane.is_empty() {
            self.rr.push_back(tag);
        }
        Some(req)
    }
}

/// The queue plus the signal that wakes its worker when a request
/// arrives.
#[derive(Default)]
struct SharedQueue {
    q: std::sync::Mutex<FairQueue>,
    work: std::sync::Condvar,
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
    /// Deepest any replica's request queue ever got (requests submitted
    /// but not yet drained by a worker). Clients that wait for each
    /// answer before their next submission keep it at or below the
    /// number of clients.
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
    /// Round-robin replica routing cursor.
    next_replica: std::sync::atomic::AtomicUsize,
    telemetry: Telemetry,
}

impl std::fmt::Debug for InferenceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceService")
            .field("replicas", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl InferenceService {
    /// Spawns `replicas` serving replicas, each with its own copy of
    /// `model` and its own request queue.
    pub fn start(model: &Pmm, replicas: usize) -> InferenceService {
        InferenceService::start_instrumented(model, replicas, Telemetry::disabled())
    }

    /// [`InferenceService::start`] recording serving counters
    /// (`serve.queries`, `serve.batches`, `serve.batch_size`,
    /// `serve.rejected.malformed`) into `telemetry`.
    pub fn start_instrumented(
        model: &Pmm,
        replicas: usize,
        telemetry: Telemetry,
    ) -> InferenceService {
        use std::sync::atomic::AtomicUsize;
        let replicas = replicas.max(1);
        let queues: Vec<Arc<SharedQueue>> = (0..replicas)
            .map(|_| Arc::new(SharedQueue::default()))
            .collect();
        let state = Arc::new(Mutex::new(ServiceState {
            served_by_replica: vec![0; replicas],
            ..ServiceState::default()
        }));
        let handles = queues
            .iter()
            .enumerate()
            .map(|(replica_idx, queue)| {
                let queue = Arc::clone(queue);
                let mut replica = model.clone();
                let state = Arc::clone(&state);
                let telemetry = telemetry.clone();
                std::thread::spawn(move || loop {
                    // Continuous batching: block for the first request,
                    // then take whatever else is already queued (up to
                    // `MAX_BATCH`, round-robin across tags) under the
                    // same lock and run at once. Exit only once the
                    // queue is both closed and fully drained, so every
                    // accepted request gets an answer.
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
                        let mut requests = Vec::with_capacity(MAX_BATCH);
                        requests.push(first);
                        requests.extend(std::iter::from_fn(|| q.pop_rr()).take(MAX_BATCH - 1));
                        requests
                    };

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

    /// Submits a query under client `tag` and returns without waiting
    /// for the forward pass; the caller blocks on the returned receiver
    /// whenever it is ready to apply the localization. The request rides
    /// its tag's lane, so round-robin rotation arbitrates between
    /// clients. Latency accounting starts here, so queue wait is
    /// counted.
    pub fn submit(&self, graph: QueryGraph, tag: u32) -> Result<Pending, ServeError> {
        use std::sync::atomic::Ordering;
        Self::validate(&graph).inspect_err(|_| {
            self.telemetry.counter("serve.rejected.malformed", 1);
        })?;
        // Spread load round-robin; each replica forms batches from its
        // own queue, so there is no shared lock to convoy on.
        let queue =
            &self.replicas[self.next_replica.fetch_add(1, Ordering::Relaxed) % self.replicas.len()];
        let (respond, rx) = channel::bounded(1);
        {
            let mut q = lock_ignore_poison(&queue.q);
            if q.closed {
                return Err(ServeError::ShuttingDown);
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

    /// Snapshot of the serving statistics.
    pub fn stats(&self) -> InferenceStats {
        self.state.lock().stats
    }

    /// Queries served per client tag since startup.
    pub fn served_by_tag(&self) -> BTreeMap<u32, u64> {
        self.state.lock().served_by_tag.clone()
    }

    /// Queries served per replica since startup (indexed by replica).
    pub fn served_by_replica(&self) -> Vec<u64> {
        self.state.lock().served_by_replica.clone()
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
/// Two implementations ship: [`Pmm`] itself — the in-process model,
/// which scores at submission and never fails — and [`ServiceClient`] — a tagged handle to a shared
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
/// is submitted under the campaign's tag, so round-robin rotation
/// arbitrates between campaigns.
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
        self.service.submit(graph, self.tag).map(Ticket::Waiting)
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

    /// Submits `graph` under `tag` and waits for its scores.
    fn answer(service: &InferenceService, graph: QueryGraph, tag: u32) -> Vec<(ArgLoc, f32)> {
        service
            .submit(graph, tag)
            .expect("well-formed query")
            .recv()
            .expect("worker answers")
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
        let served = answer(&service, g, 0);
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
            .map(|i| service.submit(graph_for(i, &kernel), 0).expect("accepted"))
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
        let service = InferenceService::start(&model, 1);
        let graphs: Vec<QueryGraph> = (0..12).map(|i| graph_for(i, &kernel)).collect();
        let pendings: Vec<Pending> = graphs
            .iter()
            .map(|g| service.submit(g.clone(), 0).expect("accepted"))
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
        // One worker: 8 queued queries either wait in queue for the
        // earlier ones' service time or share a batch whose whole
        // forward pass each of them sits through. Client-observed
        // latency must therefore exceed pure model time.
        let service = InferenceService::start(&model, 1);
        let pendings: Vec<Pending> = (0..8)
            .map(|i| service.submit(graph_for(i, &kernel), 0).expect("accepted"))
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
    fn queue_records_depth_high_water_mark() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let model = Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..PmmConfig::default()
            },
            kernel.registry().syscall_count(),
        );
        let service = InferenceService::start(&model, 1);
        let pendings: Vec<Pending> = (0..8)
            .map(|i| service.submit(graph_for(i, &kernel), 0).expect("accepted"))
            .collect();
        for p in pendings {
            p.recv().expect("worker answers");
        }
        assert!(service.stats().max_queue_depth >= 1);
    }

    /// A service whose queue never drains: zero workers. Only
    /// constructible here (fields are private), and exactly what a test
    /// of a submission that must not wait for a replica needs.
    fn stalled_service() -> InferenceService {
        InferenceService {
            replicas: vec![Arc::new(SharedQueue::default())],
            workers: Vec::new(),
            state: Arc::new(Mutex::new(ServiceState {
                served_by_replica: vec![0],
                ..ServiceState::default()
            })),
            next_replica: std::sync::atomic::AtomicUsize::new(0),
            telemetry: Telemetry::disabled(),
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
        let service = InferenceService::start(&model, 1);
        let graphs: Vec<QueryGraph> = (0..64).map(|i| graph_for(i, &kernel)).collect();
        // Front-load every query: the ones that queue while a forward
        // pass runs must form the next batch.
        let pendings: Vec<Pending> = graphs
            .clone()
            .into_iter()
            .map(|g| service.submit(g, 0).expect("accepted"))
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
        assert!(stats.mean_batch() <= MAX_BATCH as f64);
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
            answer(&service, graphs[i % graphs.len()].clone(), 1);
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
        let service = InferenceService::start(&model, 3);
        assert_eq!(service.replica_count(), 3);
        let graphs: Vec<QueryGraph> = (0..12).map(|i| graph_for(i, &kernel)).collect();
        let pendings: Vec<Pending> = graphs
            .iter()
            .map(|g| service.submit(g.clone(), 0).expect("accepted"))
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
            answer(&service, graph_for(i, &kernel), 7);
        }
        answer(&service, graph_for(9, &kernel), 0);
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
        let stalled = Arc::new(stalled_service());
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
        let service = InferenceService::start_instrumented(&model, 1, telemetry.clone());
        // A query graph built with an empty frontier has no candidate
        // mutation sites — nothing for the model to score.
        let mut rng = StdRng::seed_from_u64(3);
        let prog = Generator::new(kernel.registry()).generate(&mut rng, 4);
        let mut vm = Vm::new(&kernel);
        let exec = vm.execute(&prog);
        let empty = QueryGraph::build(&kernel, &prog, &exec, &[]);
        match service.submit(empty, 0) {
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
        let service = InferenceService::start_instrumented(&model, 2, telemetry.clone());
        for i in 0..6 {
            answer(&service, graph_for(i, &kernel), 0);
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
