//! Versioned campaign snapshots: serialize a mid-run campaign, resume
//! it later (or elsewhere) bit-identically.
//!
//! A [`CampaignSnapshot`] captures the three things a resumed campaign
//! needs to continue exactly where the original would have gone next:
//!
//! 1. the [`CampaignConfig`] (minus the telemetry handle — sinks are a
//!    property of the resuming process, chosen at [`resume`] time);
//! 2. the [`CampaignState`] — RNG position, virtual clock, corpus with
//!    schedule weights, coverage bitsets, crash log, timeline,
//!    in-flight predictions, counters;
//! 3. the telemetry [`MetricsSnapshot`] at checkpoint time, reloaded
//!    into the resuming handle so the final metric snapshot of an
//!    interrupted run equals the uninterrupted one's byte-for-byte.
//!
//! The hot-loop caches are pure functions of the state and are *not*
//! serialized: a resume rebuilds them cold, provably without observable
//! effect (the resume goldens in this crate's tests pin that down).
//!
//! The wire format follows the repo's checkpoint conventions
//! (`SNOWPMM1` in `snowplow-mlcore`): an 8-byte magic, a `u32` version,
//! then little-endian length-prefixed fields via [`codec`](crate::codec)
//! — no serde, every read bounds-checked, floats as raw bits.
//!
//! [`resume`]: CampaignSnapshot::resume

use std::{fmt, io};

use rand::rngs::StdRng;
use snowplow_fuzzer::campaign::{PendingPrediction, Prediction};
use snowplow_fuzzer::{
    CampaignConfig, CampaignState, CorpusEntry, CorpusHandle, CrashLog, CrashRecord, FuzzerKind,
    RunningCampaign, TimelinePoint, VirtualClock,
};
use snowplow_kernel::{
    BlockId, BugId, Coverage, CrashCategory, CrashInfo, EdgeSet, ExecResult, Kernel,
};
use snowplow_prog::{Arg, ArgLoc, Prog, ResSource};
use snowplow_syslang::{ArgPath, PathSegment, SyscallId};
use snowplow_telemetry::{Histogram, MetricsSnapshot, Telemetry, HIST_BUCKETS};

use crate::codec::{Dec, Enc};

/// File magic: "SNOWFLT1" — Snowplow fleet snapshot, format family 1.
const MAGIC: &[u8; 8] = b"SNOWFLT1";
/// Format version; bump on any layout change. v2 added the executor
/// selection flag to the serialized config. v3 added the shared-corpus
/// fields: per-entry `exec_time_ns` and pin flag, the handle's dedup
/// hit count, and the seed-scheduling policy tag in the config. (The
/// shared store itself is never serialized — on resume each campaign
/// re-attaches its view and the store contents are exactly the union of
/// the reattached views.) v4 dropped the three config booleans that
/// selected the hot-loop caches, distance scheduling and the executor;
/// those runtime knobs no longer exist. Older versions are rejected with
/// [`UnsupportedVersion`], never decoded.
const VERSION: u32 = 4;

/// The error carried inside the `io::Error` (kind `InvalidData`) that
/// [`CampaignSnapshot::from_bytes`] returns for a snapshot written in
/// another format version. Recover it with
/// `err.get_ref().and_then(|e| e.downcast_ref::<UnsupportedVersion>())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedVersion {
    /// The version the snapshot header declares.
    pub found: u32,
}

impl fmt::Display for UnsupportedVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unsupported snapshot version {} (supported: {VERSION})",
            self.found
        )
    }
}

impl std::error::Error for UnsupportedVersion {}

/// Everything needed to resume a campaign where it left off.
#[derive(Clone)]
pub struct CampaignSnapshot {
    /// The campaign configuration (the embedded telemetry handle is not
    /// serialized; [`CampaignSnapshot::resume`] installs a fresh one).
    pub config: CampaignConfig,
    /// The deterministic loop state.
    pub state: CampaignState,
    /// Telemetry at checkpoint time.
    pub metrics: MetricsSnapshot,
}

impl CampaignSnapshot {
    /// Checkpoints a running campaign (deep copy; the campaign keeps
    /// running).
    pub fn capture(running: &RunningCampaign<'_>) -> CampaignSnapshot {
        CampaignSnapshot {
            config: running.config().clone(),
            state: running.checkpoint(),
            metrics: running.telemetry().snapshot(),
        }
    }

    /// Rebuilds a running campaign from this snapshot.
    ///
    /// `kind` supplies what the snapshot intentionally does not carry:
    /// the model (or the tagged client into a shared service) — a fleet
    /// restores many snapshots against one service. `telemetry` is the
    /// resuming process's handle; the checkpointed metrics are loaded
    /// into it first, so subsequent recording continues the original
    /// series and the final snapshot matches an uninterrupted run.
    pub fn resume<'k>(
        self,
        kernel: &'k Kernel,
        kind: FuzzerKind,
        telemetry: Telemetry,
    ) -> RunningCampaign<'k> {
        telemetry.load_snapshot(&self.metrics);
        let mut config = self.config;
        config.exec.telemetry = telemetry;
        RunningCampaign::restore(kernel, kind, config, self.state)
    }

    /// [`CampaignSnapshot::resume`] for a campaign that ingested into a
    /// shared [`CorpusStore`](snowplow_fuzzer::CorpusStore).
    ///
    /// The store is deliberately not serialized (it is shared across
    /// snapshots; its contents are exactly the union of the campaign
    /// views): the resuming process supplies it here, and the restored
    /// campaign re-attaches its view — re-populating the store's
    /// indexes, deduplicating against whatever other resumed campaigns
    /// already contributed, without advancing any hit counter.
    pub fn resume_with_store<'k>(
        self,
        kernel: &'k Kernel,
        kind: FuzzerKind,
        telemetry: Telemetry,
        store: snowplow_fuzzer::CorpusStore,
    ) -> RunningCampaign<'k> {
        telemetry.load_snapshot(&self.metrics);
        let mut config = self.config;
        config.exec.telemetry = telemetry;
        config.corpus.shared = Some(store);
        RunningCampaign::restore(kernel, kind, config, self.state)
    }

    /// Serializes the snapshot.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.bytes(MAGIC);
        e.u32(VERSION);
        enc_config(&mut e, &self.config);
        enc_state(&mut e, &self.state, &self.config);
        enc_metrics(&mut e, &self.metrics);
        e.into_bytes()
    }

    /// Deserializes a snapshot produced by [`CampaignSnapshot::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> io::Result<CampaignSnapshot> {
        let mut d = Dec::new(bytes);
        if d.byte_vec()? != MAGIC {
            return Err(Dec::error("not a fleet snapshot (bad magic)"));
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                UnsupportedVersion { found: version },
            ));
        }
        let config = dec_config(&mut d)?;
        let state = dec_state(&mut d)?;
        let metrics = dec_metrics(&mut d)?;
        d.finish()?;
        Ok(CampaignSnapshot {
            config,
            state,
            metrics,
        })
    }
}

// ---- Config. -----------------------------------------------------------

fn enc_config(e: &mut Enc, c: &CampaignConfig) {
    e.duration(c.duration);
    e.duration(c.exec_cost);
    e.duration(c.inference_latency);
    e.f64(c.speed_factor);
    e.usize(c.seed_corpus);
    e.f64(c.fallback_prob);
    e.usize(c.targets_per_query);
    e.f32(c.threshold);
    e.usize(c.top_k);
    e.duration(c.sample_every);
    e.u64(c.seed);
    e.usize(c.exec.workers);
    e.usize(c.max_pending_predictions);
    e.usize(c.guided_use_multiplier);
    e.u8(c.corpus.policy.to_tag());
}

fn dec_config(d: &mut Dec<'_>) -> io::Result<CampaignConfig> {
    // `CampaignConfig` is `#[non_exhaustive]`: start from the default
    // and overwrite every serialized field. A future knob the snapshot
    // predates keeps its default — the version bump discipline covers
    // knobs that change loop behavior.
    let mut c = CampaignConfig::default();
    c.duration = d.duration()?;
    c.exec_cost = d.duration()?;
    c.inference_latency = d.duration()?;
    c.speed_factor = d.f64()?;
    c.seed_corpus = d.usize()?;
    c.fallback_prob = d.f64()?;
    c.targets_per_query = d.usize()?;
    c.threshold = d.f32()?;
    c.top_k = d.usize()?;
    c.sample_every = d.duration()?;
    c.seed = d.u64()?;
    c.exec.workers = d.usize()?;
    c.max_pending_predictions = d.usize()?;
    c.guided_use_multiplier = d.usize()?;
    let tag = d.u8()?;
    let policy = snowplow_fuzzer::SchedulePolicy::from_tag(tag)
        .ok_or_else(|| Dec::error(&format!("invalid SchedulePolicy tag {tag}")))?;
    // The shared store is a property of the resuming process, installed
    // by `FleetCheckpoint::resume` (or the caller) after decode.
    c.corpus = snowplow_fuzzer::CorpusConfig::builder()
        .policy(policy)
        .build();
    Ok(c)
}

// ---- State. ------------------------------------------------------------

/// `config` is the campaign's: a cached prediction the campaign has not
/// drawn on yet encodes its full [`CampaignConfig::guided_uses`] budget.
fn enc_state(e: &mut Enc, s: &CampaignState, config: &CampaignConfig) {
    // RNG stream position (see `snowplow_pool::stream_position`): the
    // four xoshiro256++ state words, restored in O(1) without replaying
    // the stream.
    for w in s.rng.state() {
        e.u64(w);
    }
    e.duration(s.clock.now());

    e.usize(s.corpus.len());
    let pinned = s.corpus.pinned_flags();
    for (i, entry) in s.corpus.iter().enumerate() {
        enc_prog(e, &entry.prog);
        enc_words(e, entry.coverage.words());
        enc_exec(e, &entry.exec);
        e.usize(entry.new_edges);
        e.u64(entry.exec_time_ns);
        e.bool(pinned[i]);
    }
    match s.corpus.schedule_weights() {
        None => e.bool(false),
        Some(w) => {
            e.bool(true);
            enc_words(e, w);
        }
    }
    e.u64(s.corpus.dedup_hits());

    enc_words(e, s.blocks.words());
    e.usize(s.edges.rows().len());
    for row in s.edges.rows() {
        enc_words(e, row);
    }

    e.usize(s.crashes.known_signatures().len());
    for sig in s.crashes.known_signatures() {
        e.str(sig);
    }
    let records = s.crashes.records();
    e.usize(records.len());
    for r in records {
        e.str(&r.description);
        enc_category(e, r.category);
        e.bool(r.known);
        e.duration(r.first_found);
        e.usize(r.count);
        enc_prog(e, &r.witness);
        match &r.reproducer {
            None => e.bool(false),
            Some(p) => {
                e.bool(true);
                enc_prog(e, p);
            }
        }
    }
    e.usize(s.crashes.filtered);

    e.usize(s.timeline.len());
    for p in &s.timeline {
        e.duration(p.at);
        e.usize(p.edges);
        e.usize(p.blocks);
        e.usize(p.crashes);
        e.u64(p.execs);
    }

    // A captured state's predictions are all resolved
    // ([`RunningCampaign::checkpoint`] settles them), so `wait` returns
    // at once.
    e.usize(s.pending.len());
    for p in &s.pending {
        e.usize(p.base);
        e.duration(p.ready_at);
        enc_locs(e, p.prediction.wait());
    }

    e.usize(s.ready.len());
    for (base, (prediction, uses)) in &s.ready {
        let locs = prediction.wait();
        e.usize(*base);
        enc_locs(e, locs);
        e.usize(uses.unwrap_or_else(|| config.guided_uses(locs.len())));
    }

    e.u64(s.execs);
    e.u64(s.inferences);
    e.usize(s.attribution.generation);
    e.usize(s.attribution.structural);
    e.usize(s.attribution.random_args);
    e.usize(s.attribution.guided_args);
    e.duration(s.next_sample);
    e.usize(s.sched_len);
    e.usize(s.sched_blocks_at);
}

fn dec_state(d: &mut Dec<'_>) -> io::Result<CampaignState> {
    let mut rng_state = [0u64; 4];
    for w in &mut rng_state {
        *w = d.u64()?;
    }
    let rng = StdRng::from_state(rng_state);
    let clock = VirtualClock::at(d.duration()?);

    let n_entries = d.len(8)?;
    let mut entries = Vec::with_capacity(n_entries);
    let mut pinned = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let prog = dec_prog(d)?;
        let coverage = Coverage::from_words(dec_words(d)?);
        let exec = dec_exec(d)?;
        let new_edges = d.usize()?;
        let exec_time_ns = d.u64()?;
        pinned.push(d.bool()?);
        entries.push(CorpusEntry {
            prog,
            coverage,
            exec,
            new_edges,
            exec_time_ns,
        });
    }
    let sched = if d.bool()? { Some(dec_words(d)?) } else { None };
    let dedup_hits = d.u64()?;
    // Restored over a private store; a shared-corpus resume re-attaches
    // the view when `RunningCampaign` is rebuilt with the store in its
    // config.
    let corpus = CorpusHandle::restore_parts(entries, sched, pinned, dedup_hits);

    let blocks = Coverage::from_words(dec_words(d)?);
    let n_rows = d.len(8)?;
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        rows.push(dec_words(d)?);
    }
    let edges = EdgeSet::from_rows(rows);

    let n_known = d.len(8)?;
    let mut known = Vec::with_capacity(n_known);
    for _ in 0..n_known {
        known.push(d.string()?);
    }
    let mut crashes = CrashLog::new(known);
    let n_records = d.len(8)?;
    for _ in 0..n_records {
        let description = d.string()?;
        let category = dec_category(d)?;
        let known = d.bool()?;
        let first_found = d.duration()?;
        let count = d.usize()?;
        let witness = dec_prog(d)?;
        let reproducer = if d.bool()? { Some(dec_prog(d)?) } else { None };
        crashes.insert_record(CrashRecord {
            description,
            category,
            known,
            first_found,
            count,
            witness,
            reproducer,
        });
    }
    crashes.filtered = d.usize()?;

    let n_timeline = d.len(8)?;
    let mut timeline = Vec::with_capacity(n_timeline);
    for _ in 0..n_timeline {
        timeline.push(TimelinePoint {
            at: d.duration()?,
            edges: d.usize()?,
            blocks: d.usize()?,
            crashes: d.usize()?,
            execs: d.u64()?,
        });
    }

    let n_pending = d.len(8)?;
    let mut pending = std::collections::VecDeque::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending.push_back(PendingPrediction {
            base: d.usize()?,
            ready_at: d.duration()?,
            prediction: Prediction::resolved(dec_locs(d)?),
        });
    }

    let n_ready = d.len(8)?;
    let mut ready = std::collections::BTreeMap::new();
    for _ in 0..n_ready {
        let base = d.usize()?;
        let locs = dec_locs(d)?;
        let uses = d.usize()?;
        ready.insert(base, (Prediction::resolved(locs), Some(uses)));
    }

    let execs = d.u64()?;
    let inferences = d.u64()?;
    let attribution = snowplow_fuzzer::EdgeAttribution {
        generation: d.usize()?,
        structural: d.usize()?,
        random_args: d.usize()?,
        guided_args: d.usize()?,
    };
    let next_sample = d.duration()?;
    let sched_len = d.usize()?;
    let sched_blocks_at = d.usize()?;

    Ok(CampaignState {
        rng,
        clock,
        corpus,
        edges,
        blocks,
        crashes,
        timeline,
        pending,
        ready,
        execs,
        inferences,
        attribution,
        next_sample,
        sched_len,
        sched_blocks_at,
    })
}

fn enc_words(e: &mut Enc, words: &[u64]) {
    e.usize(words.len());
    for &w in words {
        e.u64(w);
    }
}

fn dec_words(d: &mut Dec<'_>) -> io::Result<Vec<u64>> {
    let n = d.len(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.u64()?);
    }
    Ok(v)
}

// ---- Programs and arguments. -------------------------------------------

fn enc_prog(e: &mut Enc, p: &Prog) {
    e.usize(p.calls.len());
    for call in &p.calls {
        e.u32(call.def.0);
        e.usize(call.args.len());
        for a in &call.args {
            enc_arg(e, a);
        }
    }
}

fn dec_prog(d: &mut Dec<'_>) -> io::Result<Prog> {
    let n_calls = d.len(4)?;
    let mut calls = Vec::with_capacity(n_calls);
    for _ in 0..n_calls {
        let def = SyscallId(d.u32()?);
        let n_args = d.len(1)?;
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            args.push(dec_arg(d)?);
        }
        calls.push(snowplow_prog::Call { def, args });
    }
    Ok(Prog { calls })
}

fn enc_arg(e: &mut Enc, a: &Arg) {
    match a {
        Arg::Int { value } => {
            e.u8(0);
            e.u64(*value);
        }
        Arg::Ptr { addr, inner } => {
            e.u8(1);
            e.u64(*addr);
            match inner {
                None => e.bool(false),
                Some(inner) => {
                    e.bool(true);
                    enc_arg(e, inner);
                }
            }
        }
        Arg::Data { bytes } => {
            e.u8(2);
            e.bytes(bytes);
        }
        Arg::Group { inner } => {
            e.u8(3);
            e.usize(inner.len());
            for a in inner {
                enc_arg(e, a);
            }
        }
        Arg::Union { variant, inner } => {
            e.u8(4);
            e.u16(*variant);
            enc_arg(e, inner);
        }
        Arg::Res { source } => {
            e.u8(5);
            match source {
                ResSource::Ref(i) => {
                    e.u8(0);
                    e.usize(*i);
                }
                ResSource::Special(v) => {
                    e.u8(1);
                    e.u64(*v);
                }
            }
        }
    }
}

fn dec_arg(d: &mut Dec<'_>) -> io::Result<Arg> {
    Ok(match d.u8()? {
        0 => Arg::Int { value: d.u64()? },
        1 => {
            let addr = d.u64()?;
            let inner = if d.bool()? {
                Some(Box::new(dec_arg(d)?))
            } else {
                None
            };
            Arg::Ptr { addr, inner }
        }
        2 => Arg::Data {
            bytes: d.byte_vec()?,
        },
        3 => {
            let n = d.len(1)?;
            let mut inner = Vec::with_capacity(n);
            for _ in 0..n {
                inner.push(dec_arg(d)?);
            }
            Arg::Group { inner }
        }
        4 => {
            let variant = d.u16()?;
            Arg::Union {
                variant,
                inner: Box::new(dec_arg(d)?),
            }
        }
        5 => {
            let source = match d.u8()? {
                0 => ResSource::Ref(d.usize()?),
                1 => ResSource::Special(d.u64()?),
                t => return Err(Dec::error(&format!("invalid ResSource tag {t}"))),
            };
            Arg::Res { source }
        }
        t => return Err(Dec::error(&format!("invalid Arg tag {t}"))),
    })
}

fn enc_locs(e: &mut Enc, locs: &[ArgLoc]) {
    e.usize(locs.len());
    for loc in locs {
        e.usize(loc.call);
        e.usize(loc.path.segments().len());
        for seg in loc.path.segments() {
            match seg {
                PathSegment::Arg(i) => {
                    e.u8(0);
                    e.u16(*i);
                }
                PathSegment::Deref => e.u8(1),
                PathSegment::Field(i) => {
                    e.u8(2);
                    e.u16(*i);
                }
                PathSegment::Elem(i) => {
                    e.u8(3);
                    e.u16(*i);
                }
                PathSegment::Variant(i) => {
                    e.u8(4);
                    e.u16(*i);
                }
            }
        }
    }
}

fn dec_locs(d: &mut Dec<'_>) -> io::Result<Vec<ArgLoc>> {
    let n = d.len(8)?;
    let mut locs = Vec::with_capacity(n);
    for _ in 0..n {
        let call = d.usize()?;
        let n_segs = d.len(1)?;
        let mut segs = Vec::with_capacity(n_segs);
        for _ in 0..n_segs {
            segs.push(match d.u8()? {
                0 => PathSegment::Arg(d.u16()?),
                1 => PathSegment::Deref,
                2 => PathSegment::Field(d.u16()?),
                3 => PathSegment::Elem(d.u16()?),
                4 => PathSegment::Variant(d.u16()?),
                t => return Err(Dec::error(&format!("invalid PathSegment tag {t}"))),
            });
        }
        locs.push(ArgLoc::new(call, segs.into_iter().collect::<ArgPath>()));
    }
    Ok(locs)
}

// ---- Execution results and crashes. ------------------------------------

fn enc_exec(e: &mut Enc, x: &ExecResult) {
    e.usize(x.trace.len());
    for b in &x.trace {
        e.u32(b.0);
    }
    e.usize(x.call_traces.len());
    for t in &x.call_traces {
        e.usize(t.len());
        for b in t {
            e.u32(b.0);
        }
    }
    match &x.crash {
        None => e.bool(false),
        Some(c) => {
            e.bool(true);
            e.u32(c.bug.0);
            e.str(&c.description);
            enc_category(e, c.category);
            e.usize(c.call_index);
            e.u32(c.block.0);
        }
    }
    e.usize(x.completed_calls);
}

fn dec_exec(d: &mut Dec<'_>) -> io::Result<ExecResult> {
    let n_trace = d.len(4)?;
    let mut trace = Vec::with_capacity(n_trace);
    for _ in 0..n_trace {
        trace.push(BlockId(d.u32()?));
    }
    let n_ct = d.len(8)?;
    let mut call_traces = Vec::with_capacity(n_ct);
    for _ in 0..n_ct {
        let n = d.len(4)?;
        let mut t = Vec::with_capacity(n);
        for _ in 0..n {
            t.push(BlockId(d.u32()?));
        }
        call_traces.push(t);
    }
    let crash = if d.bool()? {
        Some(CrashInfo {
            bug: BugId(d.u32()?),
            description: d.string()?.into(),
            category: dec_category(d)?,
            call_index: d.usize()?,
            block: BlockId(d.u32()?),
        })
    } else {
        None
    };
    let completed_calls = d.usize()?;
    Ok(ExecResult {
        trace,
        call_traces,
        crash,
        completed_calls,
    })
}

fn enc_category(e: &mut Enc, c: CrashCategory) {
    e.u8(match c {
        CrashCategory::NullPointerDereference => 0,
        CrashCategory::PagingFault => 1,
        CrashCategory::AssertionViolation => 2,
        CrashCategory::GeneralProtectionFault => 3,
        CrashCategory::OutOfBounds => 4,
        CrashCategory::Warning => 5,
        CrashCategory::Other => 6,
        CrashCategory::InfoHang => 7,
        CrashCategory::SyzFail => 8,
    });
}

fn dec_category(d: &mut Dec<'_>) -> io::Result<CrashCategory> {
    Ok(match d.u8()? {
        0 => CrashCategory::NullPointerDereference,
        1 => CrashCategory::PagingFault,
        2 => CrashCategory::AssertionViolation,
        3 => CrashCategory::GeneralProtectionFault,
        4 => CrashCategory::OutOfBounds,
        5 => CrashCategory::Warning,
        6 => CrashCategory::Other,
        7 => CrashCategory::InfoHang,
        8 => CrashCategory::SyzFail,
        t => return Err(Dec::error(&format!("invalid CrashCategory tag {t}"))),
    })
}

// ---- Metrics. ----------------------------------------------------------

fn enc_metrics(e: &mut Enc, m: &MetricsSnapshot) {
    e.usize(m.counters.len());
    for (name, v) in &m.counters {
        e.str(name);
        e.u64(*v);
    }
    e.usize(m.gauges.len());
    for (name, v) in &m.gauges {
        e.str(name);
        e.f64(*v);
    }
    e.usize(m.hists.len());
    for (name, h) in &m.hists {
        e.str(name);
        // Sparse bucket encoding: campaign histograms concentrate in a
        // handful of the 1920 log-linear buckets, so (index, count)
        // pairs beat a dense table by ~two orders of magnitude.
        let occupied: Vec<(usize, u64)> = h
            .bucket_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        e.usize(occupied.len());
        for (i, c) in occupied {
            e.u32(i as u32);
            e.u64(c);
        }
        let (count, sum, min, max) = h.raw_parts();
        e.u64(count);
        e.u128(sum);
        e.u64(min);
        e.u64(max);
    }
}

fn dec_metrics(d: &mut Dec<'_>) -> io::Result<MetricsSnapshot> {
    let mut m = MetricsSnapshot::default();
    let n_counters = d.len(8)?;
    for _ in 0..n_counters {
        let name = d.string()?;
        m.counters.insert(name, d.u64()?);
    }
    let n_gauges = d.len(8)?;
    for _ in 0..n_gauges {
        let name = d.string()?;
        m.gauges.insert(name, d.f64()?);
    }
    let n_hists = d.len(8)?;
    for _ in 0..n_hists {
        let name = d.string()?;
        let n_occupied = d.len(12)?;
        let mut counts = vec![0u64; HIST_BUCKETS];
        for _ in 0..n_occupied {
            let i = d.u32()? as usize;
            let c = d.u64()?;
            *counts
                .get_mut(i)
                .ok_or_else(|| Dec::error("histogram bucket index out of range"))? = c;
        }
        let count = d.u64()?;
        let sum = d.u128()?;
        let min = d.u64()?;
        let max = d.u64()?;
        let h = Histogram::from_raw_parts(counts, count, sum, min, max)
            .ok_or_else(|| Dec::error("inconsistent histogram state"))?;
        m.hists.insert(name, h);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use snowplow_fuzzer::Campaign;
    use snowplow_kernel::KernelVersion;

    use super::*;

    fn kernel() -> &'static Kernel {
        use std::sync::OnceLock;
        static K: OnceLock<Kernel> = OnceLock::new();
        K.get_or_init(|| Kernel::build(KernelVersion::V6_8))
    }

    fn short_config(seed: u64) -> CampaignConfig {
        let mut c = CampaignConfig::default();
        c.duration = Duration::from_secs(600);
        c.seed_corpus = 10;
        c.sample_every = Duration::from_secs(60);
        c.seed = seed;
        c
    }

    #[test]
    fn snapshot_bytes_round_trip_and_reencode_identically() {
        let k = kernel();
        let (telemetry, _sink) = Telemetry::in_memory();
        let mut cfg = short_config(3);
        cfg.exec.telemetry = telemetry;
        let mut running = Campaign::new(k, FuzzerKind::Syzkaller, cfg).into_running();
        for _ in 0..200 {
            assert!(running.step());
        }
        let snap = CampaignSnapshot::capture(&running);
        let bytes = snap.to_bytes();
        let decoded = CampaignSnapshot::from_bytes(&bytes).expect("round trip");
        // Re-encoding the decoded snapshot must reproduce the original
        // bytes exactly — the codec has one canonical form.
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let k = kernel();
        let mut running = Campaign::new(k, FuzzerKind::Syzkaller, short_config(1)).into_running();
        for _ in 0..20 {
            running.step();
        }
        let bytes = CampaignSnapshot::capture(&running).to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[8] = b'X';
        assert!(CampaignSnapshot::from_bytes(&bad).is_err());
        // Bad version.
        let mut bad = bytes.clone();
        bad[16] = 0xFF;
        assert!(CampaignSnapshot::from_bytes(&bad).is_err());
        // A v3 header (the last format that carried the removed config
        // booleans) is rejected with a typed error naming the version,
        // before any field is decoded.
        let mut v3 = bytes.clone();
        v3[16..20].copy_from_slice(&3u32.to_le_bytes());
        let err = CampaignSnapshot::from_bytes(&v3)
            .err()
            .expect("v3 snapshot rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let typed = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<UnsupportedVersion>());
        assert_eq!(typed, Some(&UnsupportedVersion { found: 3 }));
        assert!(err.to_string().contains("version 3"), "{err}");
        // Truncation at every 97th byte must error, never panic.
        for cut in (0..bytes.len()).step_by(97) {
            assert!(CampaignSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(CampaignSnapshot::from_bytes(&bad).is_err());
    }
}
