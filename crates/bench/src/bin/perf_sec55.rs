//! §5.5 performance characteristics: inference service throughput and
//! latency at saturation; fuzzing throughput with and without PMM; plus
//! the reproduction's own hot-path microbenchmarks (matmul kernels,
//! batched inference, sharded dataset harvest).
//!
//! Besides the human-readable report, every measured number is published
//! as a telemetry gauge and flushed through a [`JsonlSink`] to
//! `BENCH_perf.jsonl` (one JSON object per line) for machine
//! consumption — `bench_guard` reads that file.

use std::time::{Duration, Instant};

use rand::prelude::*;
use snowplow_bench::day_config;
use snowplow_core::fuzzing::{Campaign, CorpusConfig, FuzzerKind, SchedulePolicy};
use snowplow_core::learning::{BatchPolicy, InferenceService, Matrix, QueryGraph};
use snowplow_core::prelude::Telemetry;
use snowplow_core::{train_pmm, Dataset, DatasetConfig, Kernel, KernelVersion, Pmm, Scale, Vm};

/// Reference triple-loop matmul (the shape the optimized kernels are
/// measured against).
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.at(i, p) * b.at(p, j);
            }
            *out.at_mut(i, j) = acc;
        }
    }
    out
}

fn time_it(mut f: impl FnMut(), iters: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}

fn build_graphs(kernel: &Kernel, count: usize, seed: u64) -> Vec<QueryGraph> {
    let generator = snowplow_prog::gen::Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vm = Vm::new(kernel);
    (0..count)
        .map(|_| {
            let p = generator.generate(&mut rng, 5);
            let e = vm.execute(&p);
            let f = kernel.cfg().alternative_entries(&e.coverage());
            QueryGraph::build(kernel, &p, &e, &f[..f.len().min(4)])
        })
        .collect()
}

fn main() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    // Every measurement below is a wall-clock gauge: perf numbers are
    // real time by definition, so — unlike campaign metrics — this
    // snapshot is *not* expected to be reproducible bit-for-bit.
    let bench = Telemetry::jsonl("BENCH_perf.jsonl");

    // ---- Matmul kernels. ------------------------------------------------
    // The PMM forward pass is dominated by (nodes × dim) @ (dim × dim)
    // products; 256³ bounds the cache-blocking benefit from above.
    println!("== mlcore matmul kernels ==");
    let mut rng = StdRng::seed_from_u64(1);
    for &(m, k, n) in &[(400usize, 48usize, 48usize), (256, 256, 256)] {
        let a = Matrix::xavier(m, k, &mut rng);
        let b = Matrix::xavier(k, n, &mut rng);
        let flops = 2.0 * (m * n * k) as f64;
        let iters = (2e8 / flops).clamp(3.0, 400.0) as usize;
        // Interleaved fastest-of-rounds, like every other capability
        // gauge here: one sequential window right at process start has
        // measured this kernel at half its real rate while the clock
        // ramped.
        let rounds = 5usize;
        let per_round = iters.div_ceil(rounds);
        let mut t_naive = f64::INFINITY;
        let mut t_fast = f64::INFINITY;
        for _ in 0..rounds {
            t_naive = t_naive.min(
                time_it(
                    || {
                        std::hint::black_box(naive_matmul(&a, &b));
                    },
                    per_round,
                )
                .as_secs_f64(),
            );
            t_fast = t_fast.min(
                time_it(
                    || {
                        std::hint::black_box(a.matmul(&b));
                    },
                    per_round,
                )
                .as_secs_f64(),
            );
        }
        let gflops_naive = flops / t_naive / 1e9;
        let gflops_fast = flops / t_fast / 1e9;
        let speedup = t_naive / t_fast;
        println!(
            "matmul {m}x{k}x{n}: naive {gflops_naive:.2} GFLOP/s | fast {gflops_fast:.2} GFLOP/s | speedup {speedup:.2}x"
        );
        bench.gauge(&format!("matmul_{m}x{k}x{n}.gflops_naive"), gflops_naive);
        bench.gauge(&format!("matmul_{m}x{k}x{n}.gflops_fast"), gflops_fast);
        bench.gauge(&format!("matmul_{m}x{k}x{n}.speedup"), speedup);
    }

    // ---- Model + graphs shared by the inference sections. ----------------
    let (model, _) = train_pmm(&kernel, Scale::quick());
    let graphs = build_graphs(&kernel, 64, 9);

    // ---- Batched vs unbatched inference (direct, no service). -----------
    // One core with a drifting clock: timing mode A to completion and
    // then mode B bakes the frequency ramp into the ratio (~30% swings
    // within a single process run have been measured here). Both modes
    // are therefore warmed first, then timed in alternating order across
    // rounds (ABBA, so neither mode systematically runs on the hotter
    // half of a round). The qps gauges report each mode's fastest round
    // (identical deterministic work per round, so noise only ever slows
    // one, and the minimum estimates what the hardware can do). The
    // speedup gauge instead takes the median of *per-round paired*
    // ratios — the two timings inside one round are ~13 ms apart and
    // share a thermal window, so each pair's ratio cancels drift that
    // per-mode aggregates, which mix windows minutes apart, do not, and
    // the median over many cheap pairs rejects the ones a steal burst
    // or frequency step lands in the middle of.
    println!("\n== batched inference (direct calls) ==");
    let mut m1 = model.clone();
    let mut m8 = model.clone();
    for g in &graphs {
        std::hint::black_box(m1.predict(g));
    }
    for chunk in graphs.chunks(8) {
        std::hint::black_box(m8.predict_batch(chunk));
    }
    let rounds = 61usize;
    let mut t_single = Vec::with_capacity(rounds);
    let mut t_batch = Vec::with_capacity(rounds);
    let mut paired = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let single = |m: &mut Pmm| {
            let t0 = Instant::now();
            for g in &graphs {
                std::hint::black_box(m.predict(g));
            }
            t0.elapsed().as_secs_f64()
        };
        let batch = |m: &mut Pmm| {
            let t0 = Instant::now();
            for chunk in graphs.chunks(8) {
                std::hint::black_box(m.predict_batch(chunk));
            }
            t0.elapsed().as_secs_f64()
        };
        let (ts, tb) = if round % 2 == 0 {
            let ts = single(&mut m1);
            let tb = batch(&mut m8);
            (ts, tb)
        } else {
            let tb = batch(&mut m8);
            let ts = single(&mut m1);
            (ts, tb)
        };
        t_single.push(ts);
        t_batch.push(tb);
        paired.push(ts / tb);
    }
    let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let queries = graphs.len() as f64;
    let qps_single = queries / fastest(&t_single);
    let qps_batch = queries / fastest(&t_batch);
    paired.sort_by(|a, b| a.total_cmp(b));
    let batch_speedup = paired[rounds / 2];
    println!(
        "per-graph predict: {qps_single:.0} queries/s | predict_batch(8): {qps_batch:.0} queries/s | speedup {batch_speedup:.2}x"
    );
    bench.gauge("inference_direct.qps_unbatched", qps_single);
    bench.gauge("inference_direct.qps_batched", qps_batch);
    bench.gauge("inference_direct.batch_speedup", batch_speedup);

    // ---- Quantized inference weights. -----------------------------------
    // Freeze a copy of the model to f16 weights and rerun the batched
    // path: the rounding error bound and the (memory-format) footprint
    // are what the `inference.quantized_*` gauges publish; throughput is
    // informational (the compute stays f32 — see mlcore::quant).
    use snowplow_core::learning::Quantize;
    let mut mq = model.clone();
    mq.config.quantize = Quantize::F16;
    let qstats = mq.quantize_for_inference();
    let reps = 4usize;
    let t_qbatch = time_it(
        || {
            for chunk in graphs.chunks(8) {
                std::hint::black_box(mq.predict_batch(chunk));
            }
        },
        reps,
    );
    let qps_qbatch = graphs.len() as f64 / t_qbatch.as_secs_f64();
    println!(
        "f16-frozen predict_batch(8): {qps_qbatch:.0} queries/s | {} scalars rounded, max |Δ| {:.2e}, {:.0}% of the f32 footprint",
        qstats.scalars,
        qstats.max_abs_delta,
        Quantize::F16.bytes_per_scalar() / Quantize::None.bytes_per_scalar() * 100.0
    );
    bench.gauge("inference.quantized_scalars", qstats.scalars as f64);
    bench.gauge(
        "inference.quantized_max_abs_delta",
        qstats.max_abs_delta as f64,
    );
    bench.gauge(
        "inference.quantized_bytes_per_scalar",
        Quantize::F16.bytes_per_scalar(),
    );
    bench.gauge("inference.quantized_qps_batched", qps_qbatch);
    drop(mq);

    // ---- Inference service at saturation. -----------------------------
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let service = InferenceService::start(&model, workers);
    let n_queries = 600usize;
    let start = Instant::now();
    let pendings: Vec<_> = (0..n_queries)
        .map(|i| {
            service
                .submit(graphs[i % graphs.len()].clone())
                .expect("unbounded service accepts every well-formed query")
        })
        .collect();
    for p in pendings {
        let _ = p.recv();
    }
    let wall = start.elapsed();
    let stats = service.stats();
    let qps_service = n_queries as f64 / wall.as_secs_f64();
    let mean_latency = stats.mean_latency();
    let p95_latency = service.latency_percentile(95.0);
    println!("\n== §5.5 inference service ({workers} workers) ==");
    println!("saturated throughput: {qps_service:.0} queries/s (paper: 57 q/s on 8x L4)");
    println!(
        "client latency: mean {mean_latency:?} | p95 {p95_latency:?} (paper observes 0.69 s end-to-end over the network)"
    );
    println!(
        "mean batch per forward pass: {:.2} ({} batches for {} queries)",
        stats.mean_batch(),
        stats.batches,
        stats.served
    );
    bench.gauge("inference_service.workers", workers as f64);
    bench.gauge("inference_service.replicas", service.replica_count() as f64);
    bench.gauge("inference_service.qps", qps_service);
    bench.gauge(
        "inference_service.mean_latency_us",
        mean_latency.as_secs_f64() * 1e6,
    );
    bench.gauge(
        "inference_service.p95_latency_us",
        p95_latency.as_secs_f64() * 1e6,
    );
    bench.gauge("inference_service.mean_batch", stats.mean_batch());
    drop(service);

    // ---- Same saturation load against a bounded queue. -----------------
    // The unbounded run above front-loads all 600 submissions, so queue
    // wait dominates client latency. Capping the queue applies
    // backpressure at submit time instead (`submit_blocking` waits for a
    // slot rather than erroring like `submit`): latency stays near
    // service time while throughput is unchanged (the model is the
    // bottleneck either way). EXPERIMENTS.md records both configurations.
    let queue_cap = 2 * BatchPolicy::default().max_batch;
    let bounded = InferenceService::start_with_policy(
        &model,
        workers,
        BatchPolicy {
            queue_cap: Some(queue_cap),
            ..BatchPolicy::default()
        },
    );
    let start = Instant::now();
    let mut done = 0usize;
    let mut inflight = std::collections::VecDeque::new();
    for i in 0..n_queries {
        inflight.push_back(
            bounded
                .submit_blocking(graphs[i % graphs.len()].clone())
                .expect("bounded service accepts every well-formed query"),
        );
        // Drain completed results as we go, like the fuzzer's loop does.
        while inflight.len() > 32 {
            let _ = inflight.pop_front().unwrap().recv();
            done += 1;
        }
    }
    for p in inflight {
        let _ = p.recv();
        done += 1;
    }
    let wall = start.elapsed();
    let bstats = bounded.stats();
    let qps_bounded = done as f64 / wall.as_secs_f64();
    let mean_b = bstats.mean_latency();
    let p95_b = bounded.latency_percentile(95.0);
    println!("\n== §5.5 inference service, bounded queue (cap {queue_cap:?}) ==");
    println!("throughput: {qps_bounded:.0} queries/s");
    println!(
        "client latency: mean {mean_b:?} | p95 {p95_b:?} | max queue depth {}",
        bstats.max_queue_depth
    );
    bench.gauge("inference_service_bounded.workers", workers as f64);
    bench.gauge("inference_service_bounded.queue_cap", queue_cap as f64);
    bench.gauge("inference_service_bounded.qps", qps_bounded);
    bench.gauge(
        "inference_service_bounded.mean_latency_us",
        mean_b.as_secs_f64() * 1e6,
    );
    bench.gauge(
        "inference_service_bounded.p95_latency_us",
        p95_b.as_secs_f64() * 1e6,
    );
    bench.gauge("inference_service_bounded.mean_batch", bstats.mean_batch());
    bench.gauge(
        "inference_service_bounded.max_queue_depth",
        bstats.max_queue_depth as f64,
    );
    drop(bounded);

    // ---- Bursty load: the partial-batch drain path. ---------------------
    // The saturation runs above front-load every submission, so every
    // forward pass fills to max_batch exactly — a batch-formation bench
    // that never exercises the linger. Here arrivals come in bursts of
    // varying size with idle gaps in between, the shape a fuzzing loop
    // actually produces: the worker must run partial batches when the
    // linger expires instead of stalling for a full one.
    let bursty = InferenceService::start_with_policy(
        &model,
        workers,
        BatchPolicy {
            linger: Duration::from_micros(200),
            ..BatchPolicy::default()
        },
    );
    let mut burst_rng = StdRng::seed_from_u64(21);
    let mut submitted = 0usize;
    let start = Instant::now();
    for _ in 0..60 {
        let burst = burst_rng.random_range(1..=12usize);
        let pendings: Vec<_> = (0..burst)
            .map(|i| {
                bursty
                    .submit(graphs[(submitted + i) % graphs.len()].clone())
                    .expect("unbounded service accepts every well-formed query")
            })
            .collect();
        submitted += burst;
        // The gap between bursts: long enough for the linger to expire
        // and the queue to drain, so the next burst starts cold.
        for p in pendings {
            let _ = p.recv();
        }
    }
    let wall = start.elapsed();
    let burst_stats = bursty.stats();
    let qps_burst = submitted as f64 / wall.as_secs_f64();
    println!("\n== §5.5 inference service, bursty arrivals ==");
    println!(
        "throughput: {qps_burst:.0} queries/s | mean batch {:.2} ({} batches for {} queries — partial batches drained)",
        burst_stats.mean_batch(),
        burst_stats.batches,
        burst_stats.served
    );
    assert!(
        burst_stats.mean_batch() < BatchPolicy::default().max_batch as f64,
        "bursty arrivals must form partial batches, got a constant {:.2}",
        burst_stats.mean_batch()
    );
    bench.gauge("inference_service_burst.qps", qps_burst);
    bench.gauge(
        "inference_service_burst.mean_batch",
        burst_stats.mean_batch(),
    );
    bench.gauge(
        "inference_service_burst.batches",
        burst_stats.batches as f64,
    );
    drop(bursty);

    // ---- Admission control: shed load, keep latency bounded. ------------
    // The same front-loaded 600-query flood as the unbounded run, but
    // with `admit_depth` set: everything past the in-flight limit is
    // shed with `ServeError::Overloaded` instead of queueing into the
    // hundred-millisecond waits the unbounded gauge records. The mean
    // latency of *admitted* queries is the payoff.
    let admit_depth = 4 * BatchPolicy::default().max_batch;
    let admitting = InferenceService::start_with_policy(
        &model,
        workers,
        BatchPolicy {
            admit_depth: Some(admit_depth),
            ..BatchPolicy::default()
        },
    );
    let start = Instant::now();
    let mut shed = 0usize;
    let mut admitted = Vec::new();
    for i in 0..n_queries {
        match admitting.submit(graphs[i % graphs.len()].clone()) {
            Ok(p) => admitted.push(p),
            Err(snowplow_core::prelude::ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
    for p in &admitted {
        let _ = p.recv();
    }
    let wall = start.elapsed();
    let astats = admitting.stats();
    let qps_admitted = admitted.len() as f64 / wall.as_secs_f64();
    println!("\n== §5.5 inference service, admission control (depth {admit_depth}) ==");
    println!(
        "admitted {} / shed {} of {n_queries} | {qps_admitted:.0} queries/s | mean latency {:?} (unbounded run: {mean_latency:?})",
        admitted.len(),
        shed,
        astats.mean_latency()
    );
    bench.gauge(
        "inference_service_admission.admit_depth",
        admit_depth as f64,
    );
    bench.gauge(
        "inference_service_admission.admitted",
        admitted.len() as f64,
    );
    bench.gauge("inference_service_admission.shed", shed as f64);
    bench.gauge("inference_service_admission.qps", qps_admitted);
    bench.gauge(
        "inference_service_admission.mean_latency_us",
        astats.mean_latency().as_secs_f64() * 1e6,
    );
    drop(admitting);

    // ---- Sharded dataset harvest (execs/sec, workers 1 vs 4). ----------
    println!("\n== dataset harvest throughput ==");
    let harvest_cfg = DatasetConfig::builder()
        .base_tests(60)
        .mutations_per_base(80)
        .max_calls(5)
        .build();
    let mut harvest_rates = Vec::new();
    for w in [1usize, 4] {
        let mut cfg = harvest_cfg.clone();
        cfg.exec.workers = w;
        let t = Instant::now();
        let ds = Dataset::generate(&kernel, cfg);
        let rate = ds.stats.mutations_tried as f64 / t.elapsed().as_secs_f64();
        println!(
            "workers={w}: {rate:.0} mutation execs/s ({} tried)",
            ds.stats.mutations_tried
        );
        harvest_rates.push(rate);
    }
    let harvest_scaling = harvest_rates[1] / harvest_rates[0];
    println!("workers=4 / workers=1 scaling: {harvest_scaling:.2}x (identical dataset either way)");
    bench.gauge("harvest.execs_per_sec_w1", harvest_rates[0]);
    bench.gauge("harvest.execs_per_sec_w4", harvest_rates[1]);
    bench.gauge("harvest.scaling", harvest_scaling);

    // ---- Static analysis throughput. ------------------------------------
    // The abstract-interpretation costs the AnalysisCache amortizes: a
    // full-kernel interval fixpoint pass (handlers/second, uncached) and
    // the distance-scheduling reverse BFS over the pruned CFG
    // (recomputations/second — this one runs inside the campaign loop
    // whenever coverage grows, so it must stay cheap).
    println!("\n== static analysis (interval fixpoints, distance maps) ==");
    use snowplow_core::analysis::{analyze_handler, AnalysisCache};
    let t = Instant::now();
    let mut fix_iters = 0u64;
    for h in kernel.handlers() {
        fix_iters += analyze_handler(kernel.registry(), kernel.blocks(), h).iterations;
    }
    let fixpoint_per_sec = kernel.handlers().len() as f64 / t.elapsed().as_secs_f64();
    println!(
        "interval fixpoint: {fixpoint_per_sec:.0} handlers/s ({} handlers, {fix_iters} iterations)",
        kernel.handlers().len()
    );
    bench.gauge("analysis.fixpoint_per_sec", fixpoint_per_sec);

    let cache = AnalysisCache::shared();
    let pruned = cache.pruned_cfg(&kernel);
    let infeasible = cache.infeasible_blocks(&kernel);
    let frontier: Vec<_> = {
        let generator = snowplow_prog::gen::Generator::new(kernel.registry());
        let mut rng = StdRng::seed_from_u64(12);
        let mut vm = Vm::new(&kernel);
        let mut cov = snowplow_core::Coverage::new();
        for _ in 0..32 {
            let p = generator.generate(&mut rng, 6);
            vm.execute(&p).merge_coverage_into(&mut cov);
        }
        kernel
            .cfg()
            .alternative_entries(&cov)
            .into_iter()
            .filter(|b| !infeasible.contains(b))
            .collect()
    };
    let mut dist = Vec::new();
    let dist_iters = 200usize;
    let t = Instant::now();
    for _ in 0..dist_iters {
        pruned.distance_to_sources(&frontier, &mut dist);
        std::hint::black_box(dist.iter().flatten().count());
    }
    let static_distance_per_sec = dist_iters as f64 / t.elapsed().as_secs_f64();
    println!(
        "static distance map: {static_distance_per_sec:.0} recomputes/s ({} frontier sources)",
        frontier.len()
    );
    bench.gauge("analysis.static_distance_per_sec", static_distance_per_sec);

    // ---- Fuzzing throughput. --------------------------------------------
    // Full 24h virtual day (the campaign config the paper's §5.5 numbers
    // correspond to). Both fuzzers run the same virtual duration — and
    // therefore the same number of virtual executions — so the ratio of
    // real wall-clock rates isolates the overhead the PMM adds to the
    // loop. Shorter virtual runs overweight the one-time costs (memo
    // warm-up, first-touch frontier caches) and understate steady state.
    // Campaign-rate ratios get the same anti-drift treatment as the
    // direct-inference gauge: the two modes run interleaved for several
    // rounds and each side keeps its fastest round (the campaigns do
    // identical deterministic work every round, so the minimum is the
    // least-throttled estimate of the same quantity). Sequential
    // A-then-B timing has produced ±20% swings in these ratios purely
    // from clock drift.
    let cfg = day_config(1);
    let campaign_rounds = 3usize;
    let mut base_secs = Vec::new();
    let mut snow_secs = Vec::new();
    let mut base_opt = None;
    let mut snow_opt = None;
    for _ in 0..campaign_rounds {
        let t = Instant::now();
        let r = Campaign::new(&kernel, FuzzerKind::Syzkaller, cfg.clone()).run();
        base_secs.push(t.elapsed().as_secs_f64());
        base_opt.get_or_insert(r);
        let t = Instant::now();
        let s = Campaign::new(
            &kernel,
            FuzzerKind::Snowplow {
                model: Box::new(model.clone()),
            },
            cfg.clone(),
        )
        .run();
        snow_secs.push(t.elapsed().as_secs_f64());
        snow_opt.get_or_insert(s);
    }
    let base = base_opt.expect("at least one campaign round");
    let snow = snow_opt.expect("at least one campaign round");
    let min_secs = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let base_rate = base.execs as f64 / min_secs(&base_secs);
    let snow_rate = snow.execs as f64 / min_secs(&snow_secs);
    println!("\n== §5.5 fuzzing throughput (real tests/second of this process) ==");
    println!("syzkaller: {base_rate:.0} tests/s | snowplow: {snow_rate:.0} tests/s (paper: 390 vs 383 — PMM must not block the loop)");
    println!(
        "snowplow/syzkaller throughput ratio: {:.2} (paper: 0.98)",
        snow_rate / base_rate
    );
    bench.gauge("fuzzing.syzkaller_execs_per_sec", base_rate);
    bench.gauge("fuzzing.snowplow_execs_per_sec", snow_rate);
    bench.gauge("fuzzing.ratio", snow_rate / base_rate);

    // Mutation engine, isolated: mutants per second over the end-of-day
    // corpus of a stock Syzkaller day, with the loop's own mix of
    // argument mutation, call insertion and call removal. Mutation is the
    // largest layer of the baseline loop, so this is the gauge behind
    // any claim about it. Fastest of five rounds, like the gauges above.
    let mut day = Campaign::new(&kernel, FuzzerKind::Syzkaller, day_config(1)).into_running();
    while day.step() {}
    let corpus = &day.state().corpus;
    let bases: Vec<_> = (0..corpus.len()).map(|i| &corpus.entry(i).prog).collect();
    let mut mutator = snowplow_prog::Mutator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(55);
    let mutants_per_round = 20_000usize;
    let mut mutate_secs = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for i in 0..mutants_per_round {
            let (mutant, _) = mutator.mutate(&mut rng, bases[i % bases.len()]);
            std::hint::black_box(mutant);
        }
        mutate_secs = mutate_secs.min(t.elapsed().as_secs_f64());
    }
    let mutate_rate = mutants_per_round as f64 / mutate_secs;
    println!(
        "mutation: {mutate_rate:.0} mutants/s over a {}-entry end-of-day corpus",
        bases.len()
    );
    bench.gauge("prog.mutate_per_sec", mutate_rate);

    // Compiled executor win, isolated: the two executors head-to-head
    // on one program stream through the campaign's zero-alloc
    // `execute_into` path (the `exec_throughput_*` microbench shape).
    // This is the quantity the threaded-code compiler optimizes, so it
    // is what bench_guard floors at an absolute 1.0 — the compiled path
    // must never be slower than the interpreter it replaced.
    let exec_probe = |vm: &mut snowplow_core::Vm<'_>| -> f64 {
        let generator = snowplow_prog::gen::Generator::new(kernel.registry());
        let mut rng = StdRng::seed_from_u64(12);
        let progs: Vec<_> = (0..64).map(|_| generator.generate(&mut rng, 6)).collect();
        let snap = vm.snapshot();
        let mut buf = snowplow_core::ExecResult::default();
        let reps = 60_000usize;
        // Warm up (page in the translation / block table), then time.
        for (i, _) in (0..reps / 10).enumerate() {
            vm.restore(&snap);
            vm.execute_into(&progs[i % progs.len()], &mut buf);
        }
        let t = Instant::now();
        for i in 0..reps {
            vm.restore(&snap);
            vm.execute_into(&progs[i % progs.len()], &mut buf);
            std::hint::black_box(buf.trace.len());
        }
        reps as f64 / t.elapsed().as_secs_f64()
    };
    let compiled_exec_rate = exec_probe(&mut snowplow_core::Vm::new(&kernel));
    let interp_exec_rate = exec_probe(&mut snowplow_core::Vm::interpreted(&kernel));
    let compiled_ratio = compiled_exec_rate / interp_exec_rate;
    println!(
        "executor throughput: compiled {compiled_exec_rate:.0}/s vs interpreted {interp_exec_rate:.0}/s — ratio {compiled_ratio:.2}"
    );
    bench.gauge("exec.compiled_execs_per_sec", compiled_exec_rate);
    bench.gauge("exec.interpreted_execs_per_sec", interp_exec_rate);
    bench.gauge("fuzzing.compiled_ratio", compiled_ratio);

    // Compile-once bookkeeping: the process-wide translation cache.
    let cstats = snowplow_core::CompileCache::shared().stats();
    println!(
        "compile cache: {} miss(es), {} hit(s), {:.2} ms total compile time",
        cstats.misses,
        cstats.hits,
        cstats.compile_time.as_secs_f64() * 1e3
    );
    bench.gauge(
        "exec.compile_time_ms",
        cstats.compile_time.as_secs_f64() * 1e3,
    );
    bench.gauge("exec.compile_cache_hit_rate", cstats.hit_rate());

    // Distance-weighted seed scheduling (this reproduction's extension):
    // the same virtual day with the static scheduler on. The ratio
    // against the stock Syzkaller loop bounds the overhead of the
    // per-coverage-change weight recomputation — gated like
    // `fuzzing.ratio`, a scheduler that stalls the loop fails CI.
    // The stock loop is re-timed here, interleaved round for round with
    // the scheduled one, instead of reusing `base_rate` from minutes
    // earlier — the ratio must compare two runs under the same clock.
    let mut sched_cfg = day_config(1);
    sched_cfg.corpus = CorpusConfig::builder()
        .policy(SchedulePolicy::Distance)
        .build();
    let mut sched_secs = Vec::new();
    let mut stock_secs = Vec::new();
    let mut sched_opt = None;
    for _ in 0..campaign_rounds {
        let t = Instant::now();
        let s = Campaign::new(&kernel, FuzzerKind::Syzkaller, sched_cfg.clone()).run();
        sched_secs.push(t.elapsed().as_secs_f64());
        sched_opt.get_or_insert(s);
        let t = Instant::now();
        Campaign::new(&kernel, FuzzerKind::Syzkaller, day_config(1)).run();
        stock_secs.push(t.elapsed().as_secs_f64());
    }
    let sched = sched_opt.expect("at least one scheduled round");
    let sched_rate = sched.execs as f64 / min_secs(&sched_secs);
    let stock_rate = base.execs as f64 / min_secs(&stock_secs);
    println!(
        "distance-scheduled syzkaller: {sched_rate:.0} tests/s | ratio vs stock {:.2}",
        sched_rate / stock_rate
    );
    bench.gauge("fuzzing.distance_sched_execs_per_sec", sched_rate);
    bench.gauge("fuzzing.distance_sched_ratio", sched_rate / stock_rate);

    // ---- Fleet orchestration (DESIGN.md §11). ---------------------------
    // Checkpoint/resume must be cheap enough to use aggressively: the
    // overhead gauge compares one uninterrupted campaign against the
    // same campaign snapshotted to bytes, decoded, and resumed halfway
    // (both produce bit-identical reports — the fleet goldens pin that;
    // here we only time it). Gated with a ceiling in bench_guard.
    use snowplow_core::fleet::{CampaignSnapshot, FleetScheduler};
    use snowplow_core::fuzzing::Campaign as FleetCampaign;
    // Both arms are short (~200-300 ms) and the overhead is their
    // ratio, so they run interleaved for several rounds with each arm
    // keeping its fastest round — one throttled arm in a sequential
    // A-then-B pairing has swung this gauge by tens of points.
    let mut fleet_cfg = day_config(2);
    fleet_cfg.duration = Duration::from_secs(6 * 3600);
    let halfway = fleet_cfg.duration / 2;
    let mut full_secs = Vec::new();
    let mut resumed_secs = Vec::new();
    let mut full_opt = None;
    let mut resumed_opt = None;
    let mut snapshot_bytes = 0usize;
    for _ in 0..campaign_rounds {
        let t = Instant::now();
        let full = FleetCampaign::new(&kernel, FuzzerKind::Syzkaller, fleet_cfg.clone())
            .into_running()
            .run_to_end();
        full_secs.push(t.elapsed().as_secs_f64());
        full_opt.get_or_insert(full);
        let t = Instant::now();
        let mut running =
            FleetCampaign::new(&kernel, FuzzerKind::Syzkaller, fleet_cfg.clone()).into_running();
        while running.now() < halfway && running.step() {}
        let bytes = CampaignSnapshot::capture(&running).to_bytes();
        drop(running);
        let resumed = CampaignSnapshot::from_bytes(&bytes)
            .expect("snapshot decodes")
            .resume(&kernel, FuzzerKind::Syzkaller, Telemetry::disabled())
            .run_to_end();
        resumed_secs.push(t.elapsed().as_secs_f64());
        snapshot_bytes = bytes.len();
        resumed_opt.get_or_insert(resumed);
    }
    let full = full_opt.expect("at least one fleet round");
    let resumed = resumed_opt.expect("at least one fleet round");
    assert_eq!(
        full.fingerprint(),
        resumed.fingerprint(),
        "resume changed the campaign outcome"
    );
    let t_full = Duration::from_secs_f64(min_secs(&full_secs));
    let t_resumed = Duration::from_secs_f64(min_secs(&resumed_secs));
    let resume_overhead_pct = (t_resumed.as_secs_f64() / t_full.as_secs_f64() - 1.0) * 100.0;
    println!("\n== fleet checkpoint/resume ==");
    println!(
        "uninterrupted {t_full:?} | checkpoint+resume {t_resumed:?} | overhead {resume_overhead_pct:.1}% | snapshot {} KiB",
        snapshot_bytes / 1024
    );
    bench.gauge("fleet.resume_overhead_pct", resume_overhead_pct);
    bench.gauge("fleet.snapshot_kib", snapshot_bytes as f64 / 1024.0);

    // Four campaigns multiplexing one inference service: the fair-queue
    // admission must keep every campaign near its 25% share. Gated with
    // a floor in bench_guard — a starved campaign fails CI.
    let fleet_model = assert_clone(&model);
    let fleet_service = std::sync::Arc::new(snowplow_core::fleet::InferenceService::start(
        &fleet_model,
        2,
    ));
    let mut fleet = FleetScheduler::new(&kernel, std::sync::Arc::clone(&fleet_service));
    for seed in 1u64..=4 {
        let mut cfg = day_config(seed);
        cfg.duration = Duration::from_secs(4 * 3600);
        fleet.spawn_shared(cfg);
    }
    let t = Instant::now();
    fleet.run_to_completion(Duration::from_secs(900));
    let fleet_wall = t.elapsed();
    let agg = fleet.aggregate();
    let spread = agg
        .gauges
        .get("fleet.fair_share_spread")
        .copied()
        .expect("shared campaigns queried the service");
    println!(
        "4-campaign fleet over one service: {fleet_wall:?} wall | fair-share spread {spread:.3}"
    );
    for (tag, served) in fleet_service.served_by_tag() {
        println!("  campaign tag {tag}: {served} queries served");
    }
    bench.gauge("fleet.fair_share_spread", spread);

    // ---- Corpus store: weighted minimization and dedup ingest. ----------
    // A synthetic 10k-entry corpus (every program admitted, exec cost
    // proportional to program length) puts the two minimizers head to
    // head: the legacy first-fit scan and the weighted greedy cover.
    // Both preserve the union edge set; `corpus.minset_ratio` (weighted
    // kept / first-fit kept) is gated at an absolute ceiling of 1.0 in
    // bench_guard — the weighted minset must never keep more entries
    // than first-fit at equal coverage. This section runs last: the
    // 10k-entry build plus two full minimization replays are the
    // heaviest single block in this binary, and running them earlier
    // measurably depresses the executor-probe gauges that follow.
    use snowplow_core::fuzzing::{CorpusHandle, CorpusStore};
    println!("\n== corpus store (weighted minset, dedup ingest) ==");
    let generator = snowplow_prog::gen::Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(13);
    let mut vm = Vm::new(&kernel);
    let snap = vm.snapshot();
    let corpus_n = 10_000usize;
    let mut corpus = CorpusHandle::new();
    let mut union = snowplow_core::EdgeSet::new();
    let t = Instant::now();
    for _ in 0..corpus_n {
        let p = generator.generate(&mut rng, 5);
        let cost = 250_000 * (1 + p.len() as u64);
        vm.restore(&snap);
        let exec = vm.execute(&p);
        let new = union.merge(&exec.edges());
        corpus.add_weighted(p, &exec, new, cost);
    }
    let build_per_sec = corpus_n as f64 / t.elapsed().as_secs_f64();

    let t = Instant::now();
    let legacy = corpus.minimize(&kernel, workers);
    let legacy_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let weighted = corpus.weighted_minset(&kernel, workers);
    let weighted_secs = t.elapsed().as_secs_f64();
    let minset_ratio = weighted.len() as f64 / legacy.len() as f64;
    let weight_sum = |h: &CorpusHandle| h.iter().map(|e| e.minset_weight() as f64).sum::<f64>();
    let weight_ratio = weight_sum(&weighted) / weight_sum(&legacy);
    println!(
        "minimize {corpus_n} entries ({build_per_sec:.0} built/s): first-fit kept {} in {legacy_secs:.2}s | weighted kept {} in {weighted_secs:.2}s",
        legacy.len(),
        weighted.len(),
    );
    println!(
        "weighted/first-fit: {minset_ratio:.3} of the entries at {:.0}% of the replay cost",
        weight_ratio * 100.0
    );
    bench.gauge("corpus.build_per_sec", build_per_sec);
    bench.gauge("corpus.minset_legacy_kept", legacy.len() as f64);
    bench.gauge("corpus.minset_weighted_kept", weighted.len() as f64);
    bench.gauge("corpus.minset_ratio", minset_ratio);
    bench.gauge("corpus.minset_weight_ratio", weight_ratio);
    bench.gauge(
        "corpus.minset_entries_per_sec",
        corpus_n as f64 / weighted_secs,
    );

    // Dedup ingest throughput: the same entries through one shared
    // store twice — the first pass inserts (and indexes every edge),
    // the second is answered entirely by the fingerprint map.
    let store = CorpusStore::new();
    let mut first = CorpusHandle::attached(store.clone());
    let t = Instant::now();
    for e in corpus.iter() {
        first.add_weighted(e.prog.clone(), &e.exec, e.new_edges, e.exec_time_ns);
    }
    let insert_per_sec = corpus_n as f64 / t.elapsed().as_secs_f64();
    let mut second = CorpusHandle::attached(store.clone());
    let t = Instant::now();
    for e in corpus.iter() {
        second.add_weighted(e.prog.clone(), &e.exec, e.new_edges, e.exec_time_ns);
    }
    let dedup_per_sec = corpus_n as f64 / t.elapsed().as_secs_f64();
    assert_eq!(
        second.dedup_hits(),
        corpus_n as u64,
        "re-ingesting identical entries must dedup every admission"
    );
    let sstats = store.stats();
    println!(
        "shared-store ingest: {insert_per_sec:.0} inserts/s | {dedup_per_sec:.0} dedup hits/s | {} entries indexing {} edges ({} KiB)",
        sstats.entries,
        sstats.indexed_edges,
        sstats.index_bytes / 1024
    );
    bench.gauge("corpus.ingest_per_sec", insert_per_sec);
    bench.gauge("corpus.dedup_ingest_per_sec", dedup_per_sec);
    bench.gauge("corpus.index_bytes", sstats.index_bytes as f64);
    drop(corpus);

    bench.flush();
    println!("\nwrote BENCH_perf.jsonl");
}

/// Keep the unused-model path honest: `Pmm` must stay cloneable for the
/// replica benchmarks above.
#[allow(dead_code)]
fn assert_clone(model: &Pmm) -> Pmm {
    model.clone()
}
