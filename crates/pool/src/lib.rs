//! A deterministic scoped worker pool.
//!
//! The paper's system is parallel end-to-end: Syzkaller fans out over
//! many QEMU VMs per kernel and training data is harvested by
//! brute-force mutation at scale (§3.1, §4). This crate provides the
//! one primitive every sharded stage of the reproduction needs —
//! [`scoped_map`] — with two guarantees the paper's infrastructure does
//! *not* give but a reproducible experiment harness must:
//!
//! 1. **Order preservation.** Results come back indexed and are
//!    reassembled in item order, so downstream merging (coverage
//!    unions, popularity caps, corpus admission) sees exactly the
//!    sequential order no matter which worker ran which item.
//! 2. **Worker-count independence.** Work items carry no shared
//!    mutable state and the caller derives per-item RNG streams with
//!    [`stream_seed`], so the *content* of every result is a function
//!    of `(master seed, item index)` alone. `workers = 1` and
//!    `workers = 64` produce bit-identical output; only wall-clock
//!    time changes.
//!
//! Work distribution is dynamic (a shared crossbeam channel feeds
//! contiguous index chunks to whichever worker is free), so
//! heterogeneous item costs balance without violating either guarantee.
//!
//! Because output is worker-count independent, [`scoped_map`] clamps
//! the thread count to the host's available parallelism: running four
//! threads on one core is pure oversubscription (context switching and
//! cache thrash slow CPU-bound work below the single-threaded rate —
//! the regression `perf_sec55` measured as harvest "scaling" < 1.0).
//! The clamp is semantically free and only ever makes things faster.
//! [`scoped_map_exact`] skips the clamp for benchmarks and tests that
//! need the threaded path regardless of the host.

use crossbeam::channel;
use snowplow_telemetry::Telemetry;

/// Execution-context knobs shared by every sharded stage.
///
/// Before this type existed, the `workers` knob was triplicated across
/// `CampaignConfig`, `DatasetConfig`, and `TrainConfig`, and
/// `Scale::with_workers` had to know about each copy. `ExecConfig`
/// bundles the worker count with the [`Telemetry`] handle that stage
/// should record into; config structs embed one `exec` field instead.
///
/// Telemetry recorded through [`ExecConfig::map`] counts *items*, never
/// chunks or threads, so the numbers are identical at any worker count
/// — the same guarantee [`scoped_map`] gives for result content.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Worker threads for sharded stages. Output never depends on this.
    pub workers: usize,
    /// Metrics destination; [`Telemetry::disabled`] (the default) makes
    /// every recording call a no-op branch.
    pub telemetry: Telemetry,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            workers: 1,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl ExecConfig {
    pub fn new(workers: usize) -> ExecConfig {
        ExecConfig {
            workers,
            ..ExecConfig::default()
        }
    }

    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ExecConfig {
        self.telemetry = telemetry;
        self
    }

    /// [`scoped_map`] under this config, recording `pool.<stage>.items`
    /// (one count per input item — worker-count independent) before
    /// dispatch.
    pub fn map<I, R, S>(
        &self,
        stage: &str,
        items: Vec<I>,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, I) -> R + Sync,
    ) -> Vec<R>
    where
        I: Send,
        R: Send,
    {
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter(&format!("pool.{stage}.items"), items.len() as u64);
        }
        scoped_map(self.workers, items, init, f)
    }
}

/// Parallel, order-preserving map with per-worker state.
///
/// Spawns up to `workers` scoped threads (clamped to the host's
/// available parallelism — see the module docs), each initialized once
/// with `init` (e.g. a VM plus its pristine snapshot), and applies
/// `f(&mut state, index, item)` to every item. Results are returned in
/// item order. With an effective worker count of 1 or fewer than two
/// items the map runs inline on the calling thread — the threaded and
/// inline paths are observably identical except for speed.
///
/// `f` must derive any randomness it needs from the item index (see
/// [`stream_seed`]); worker-local state must never leak information
/// between items in a way that depends on scheduling.
pub fn scoped_map<I, R, S>(
    workers: usize,
    items: Vec<I>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, I) -> R + Sync,
) -> Vec<R>
where
    I: Send,
    R: Send,
{
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(usize::MAX);
    scoped_map_exact(workers.min(hw), items, init, f)
}

/// [`scoped_map`] without the available-parallelism clamp: spawns
/// exactly `min(workers, items)` threads even when that oversubscribes
/// the host. Output is identical to [`scoped_map`]'s; use this only to
/// exercise or measure the threaded path deliberately.
pub fn scoped_map_exact<I, R, S>(
    workers: usize,
    items: Vec<I>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, I) -> R + Sync,
) -> Vec<R>
where
    I: Send,
    R: Send,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        let mut state = init();
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }

    // Chunked dispatch: one channel round-trip per chunk instead of per
    // item keeps the queue overhead negligible for cheap items, while
    // several chunks per worker still balance heterogeneous costs.
    let chunk = (n / (workers * 8)).max(1);
    let (job_tx, job_rx) = channel::unbounded::<(usize, Vec<I>)>();
    let mut items = items.into_iter();
    let mut start = 0usize;
    while start < n {
        let batch: Vec<I> = items.by_ref().take(chunk).collect();
        let len = batch.len();
        // Receivers outlive this loop; the send cannot fail.
        let _ = job_tx.send((start, batch));
        start += len;
    }
    drop(job_tx);
    let (res_tx, res_rx) = channel::unbounded::<(usize, Vec<R>)>();

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let mut state = init();
                while let Ok((start, batch)) = job_rx.recv() {
                    let results: Vec<R> = batch
                        .into_iter()
                        .enumerate()
                        .map(|(j, item)| f(&mut state, start + j, item))
                        .collect();
                    if res_tx.send((start, results)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);

        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        while let Ok((start, results)) = res_rx.recv() {
            for (j, r) in results.into_iter().enumerate() {
                out[start + j] = Some(r);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every item produced a result"))
            .collect()
    })
}

/// Parallel map, sequential in-order fold.
///
/// The map half is [`scoped_map`] — per-item work is sharded over
/// `workers` with order-preserving reassembly. The fold half then runs
/// on the calling thread over the results *in item order*, so a fold
/// that carries order-sensitive state (e.g. corpus ingest, where dedup
/// outcomes depend on what was inserted before) stays worker-count
/// independent: only the map half parallelizes.
pub fn scoped_map_fold<I, R, S, A>(
    workers: usize,
    items: Vec<I>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, I) -> R + Sync,
    acc: A,
    fold: impl FnMut(A, R) -> A,
) -> A
where
    I: Send,
    R: Send,
{
    scoped_map(workers, items, init, f)
        .into_iter()
        .fold(acc, fold)
}

/// Derives a decorrelated 64-bit seed for one work item of one sharded
/// stage.
///
/// `master` is the campaign/dataset seed, `salt` names the stage (so
/// e.g. seed-corpus generation and mutation harvesting under the same
/// master seed do not replay each other's streams), and `index` is the
/// item number. Two SplitMix64 finalization rounds give full avalanche
/// over all three inputs.
pub fn stream_seed(master: u64, salt: u64, index: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    mix(master ^ mix(salt ^ mix(index)))
}

/// Builds the generator for one work item of one sharded stage —
/// `StdRng::seed_from_u64(stream_seed(master, salt, index))` as a
/// single step, so callers that checkpoint generators mid-stream
/// construct them the same way the pool stages do.
pub fn stream_rng(master: u64, salt: u64, index: u64) -> rand::StdRng {
    use rand::SeedableRng;
    rand::StdRng::seed_from_u64(stream_seed(master, salt, index))
}

/// Exports the current position of a stream generator as its raw
/// 256-bit state.
///
/// `stream_seed` is a one-way derivation: given only the seed triple
/// there is no way to recover how far a generator has advanced, so a
/// snapshot that stored the triple alone would have to replay every
/// draw from the start of the stream. Storing the position instead
/// makes restore O(1): [`restore_stream_position`] continues the exact
/// output sequence.
pub fn stream_position(rng: &rand::StdRng) -> [u64; 4] {
    rng.state()
}

/// Rebuilds a stream generator at a position captured with
/// [`stream_position`].
pub fn restore_stream_position(state: [u64; 4]) -> rand::StdRng {
    rand::StdRng::from_state(state)
}

#[cfg(test)]
mod tests {
    use rand::prelude::*;

    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = scoped_map(
            4,
            items,
            || (),
            |_, i, item| {
                assert_eq!(i, item);
                item * 2
            },
        );
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_path_preserves_item_order() {
        // scoped_map_exact skips the clamp, so this exercises real
        // threads even on a single-core host.
        let items: Vec<usize> = (0..100).collect();
        let out = scoped_map_exact(
            4,
            items,
            || (),
            |_, i, item| {
                assert_eq!(i, item);
                item * 2
            },
        );
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_independent_of_worker_count() {
        let job = |workers: usize| {
            scoped_map_exact(
                workers,
                (0u64..40).collect(),
                || (),
                |_, i, item| {
                    let mut rng = StdRng::seed_from_u64(stream_seed(7, 1, i as u64));
                    (item, rng.random_range(0..1_000_000u32))
                },
            )
        };
        let one = job(1);
        assert_eq!(one, job(2));
        assert_eq!(one, job(8));
    }

    #[test]
    fn init_runs_per_worker_and_state_is_reused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = scoped_map_exact(
            3,
            vec![(); 30],
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |calls, _, ()| {
                *calls += 1;
                *calls
            },
        );
        assert_eq!(out.len(), 30);
        let spawned = inits.load(Ordering::SeqCst);
        assert!(spawned <= 3, "at most one init per worker, got {spawned}");
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u8> = scoped_map(8, Vec::<u8>::new(), || (), |_, _, x| x);
        assert!(empty.is_empty());
        let one = scoped_map(8, vec![5u8], || (), |_, _, x| x + 1);
        assert_eq!(one, vec![6]);
    }

    #[test]
    fn chunked_dispatch_covers_ragged_tails() {
        // 101 items over 4 workers: chunk size 3, last chunk ragged.
        let items: Vec<usize> = (0..101).collect();
        let out = scoped_map_exact(4, items, || (), |_, i, item| i + item);
        assert_eq!(out, (0..101).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn exec_config_map_counts_items_not_chunks() {
        let (telemetry, _sink) = snowplow_telemetry::Telemetry::in_memory();
        for workers in [1usize, 2, 8] {
            let exec = ExecConfig::new(workers).with_telemetry(telemetry.clone());
            let out = exec.map("stage", (0..50usize).collect(), || (), |_, _, x| x);
            assert_eq!(out.len(), 50);
        }
        // Three runs over 50 items each: 150 items total, regardless of
        // worker count or chunking.
        assert_eq!(telemetry.snapshot().counters["pool.stage.items"], 150);
    }

    #[test]
    fn exec_config_default_is_disabled_single_worker() {
        let exec = ExecConfig::default();
        assert_eq!(exec.workers, 1);
        assert!(!exec.telemetry.is_enabled());
        let out = exec.map("s", vec![1, 2, 3], || (), |_, _, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn map_fold_folds_in_item_order_at_any_worker_count() {
        let job = |workers: usize| {
            scoped_map_fold(
                workers,
                (0u64..40).collect(),
                || (),
                |_, i, item| {
                    let mut rng = StdRng::seed_from_u64(stream_seed(11, 2, i as u64));
                    item * 1000 + rng.random_range(0..1000u64)
                },
                Vec::new(),
                |mut out: Vec<u64>, r| {
                    out.push(r);
                    out
                },
            )
        };
        let one = job(1);
        assert_eq!(one.len(), 40);
        assert!(
            one.windows(2).all(|w| w[0] / 1000 < w[1] / 1000),
            "in order"
        );
        assert_eq!(one, job(4));
    }

    #[test]
    fn stream_positions_resume_without_replay() {
        let mut live = stream_rng(42, 3, 9);
        for _ in 0..57 {
            let _: u64 = live.random();
        }
        let mut resumed = restore_stream_position(stream_position(&live));
        let ahead: Vec<u64> = (0..8).map(|_| live.random()).collect();
        let resumed_ahead: Vec<u64> = (0..8).map(|_| resumed.random()).collect();
        assert_eq!(ahead, resumed_ahead, "restored stream must not replay");
    }

    #[test]
    fn stream_seeds_decorrelate_stages_and_items() {
        let a = stream_seed(1, 0, 0);
        assert_ne!(a, stream_seed(1, 0, 1), "items differ");
        assert_ne!(a, stream_seed(1, 1, 0), "stages differ");
        assert_ne!(a, stream_seed(2, 0, 0), "masters differ");
        assert_eq!(a, stream_seed(1, 0, 0), "pure function");
    }
}
