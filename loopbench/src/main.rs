//! End-to-end and per-layer benchmark of the Snowplow fuzzing loop.
//!
//! ```text
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload syz-day|snowplow-day|fleet-4 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer breakdown of a traced run. Human
//! lines come first; the last line of standard output is the JSON
//! result. See README.md for the workloads and every metric.

mod replay;
mod report;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use rand::prelude::*;
use snowplow_bench::day_config;
use snowplow_core::learning::QueryGraph;
use snowplow_core::prog_gen::Generator;
use snowplow_core::{Kernel, Pmm, Vm};

use report::RunResult;
use stats::{median, Summary};
use workload::{Env, Pass, Workload};

/// Report fingerprints pinned per workload and benchmark seed.
const PINNED: &str = include_str!("../fingerprints.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The pinned fingerprint hashes of `workload` at benchmark `seed`, if
/// the table has them.
fn pinned(workload: Workload, seed: u64) -> Option<Vec<u64>> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        if f.next()? != workload.name() || f.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        f.map(|h| u64::from_str_radix(h, 16).ok()).collect()
    })
}

/// Checks every pass's reports against the pinned hashes (when
/// pinned) and against the first pass. Returns the mismatching or
/// malformed report count.
fn check_passes(args: &Args, passes: &[&Pass]) -> u64 {
    let first: Vec<u64> = passes[0].outcomes.iter().map(|o| o.hash).collect();
    let hex: Vec<String> = first.iter().map(|h| format!("{h:016x}")).collect();
    println!(
        "fingerprints {} {} {}",
        args.workload.name(),
        args.seed,
        hex.join(" ")
    );
    let pin = pinned(args.workload, args.seed);
    if pin.is_none() {
        println!(
            "note: seed {} has no pinned fingerprints; checking passes against each other only",
            args.seed
        );
    }
    let reference = pin.as_ref().unwrap_or(&first);
    let mut bad = 0;
    for (p, pass) in passes.iter().enumerate() {
        for (i, o) in pass.outcomes.iter().enumerate() {
            if !o.sane || reference.get(i) != Some(&o.hash) || first[i] != o.hash {
                println!(
                    "MISMATCH pass {p} campaign seed {}: hash {:016x} sane {}",
                    o.seed, o.hash, o.sane
                );
                bad += 1;
            }
        }
    }
    bad
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn print_pass(kind: &str, i: usize, pass: &Pass) {
    println!(
        "pass {i} ({kind}): {:.3} s wall, {} execs, {:.0} execs/s",
        pass.wall_s,
        pass.execs(),
        pass.execs() as f64 / pass.wall_s
    );
}

fn untraced_run(args: &Args) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..args.workload.setup_repeats() {
        // Drop the previous set-up first so peak memory stays that of
        // one set-up.
        drop(env.take());
        let (e, times) = workload::setup(args.workload, args.seed);
        println!(
            "setup: {:.3} s (kernel {:.1} ms, train {:.3} s, ingest {:.1} ms)",
            times.total_s(),
            times.kernel_build_s * 1e3,
            times.train_s,
            times.ingest_s * 1e3
        );
        setups.push(times.total_s());
        env = Some(e);
    }
    let env = env.expect("at least one set-up");

    let passes = timed_passes(&env, args.seconds, 1, |_| false);
    let refs: Vec<&Pass> = passes.iter().collect();
    let mismatches = check_passes(args, &refs);
    // Executions per wall second over the whole timed loop: the host's
    // contention comes and goes for minutes at a time, and a total over
    // every pass averages it where a median of passes jumps between
    // its fast and slow modes.
    let execs: u64 = passes.iter().map(Pass::execs).sum();
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let first = &passes[0];

    let mut r = RunResult::default();
    r.push("execs_per_s", execs as f64 / wall_s, "1/s");
    r.push("setup_s", median(&setups), "s");
    r.push(
        "final_edges",
        first.outcomes.iter().map(|o| o.final_edges).sum::<usize>() as f64,
        "count",
    );
    r.push("peak_rss_mib", peak_rss_mib()?, "MiB");
    finish_counts(&mut r, &passes, mismatches);
    Ok(r)
}

/// Runs at least `min_passes` passes, then stops before one more
/// would overrun `seconds`; `traced(i)` says whether pass `i` is
/// traced.
fn timed_passes(
    env: &Env,
    seconds: f64,
    min_passes: usize,
    traced: impl Fn(usize) -> bool,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let i = passes.len();
        let pass = workload::run_pass(env, traced(i));
        print_pass(if traced(i) { "traced" } else { "untraced" }, i, &pass);
        passes.push(pass);
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= min_passes && elapsed + per_pass > seconds {
            return passes;
        }
    }
}

/// Attempted operations are prediction calls plus campaign reports;
/// failures are serve errors plus mismatching reports.
fn finish_counts(r: &mut RunResult, passes: &[Pass], mismatches: u64) {
    let reports: u64 = passes.iter().map(|p| p.outcomes.len() as u64).sum();
    let calls: u64 = passes.iter().map(|p| p.predict_calls).sum();
    let errors: u64 = passes.iter().map(|p| p.serve_errors).sum();
    r.attempted = reports + calls;
    r.failed = mismatches + errors;
    r.correct = mismatches == 0;
    println!(
        "attempted {} (reports {reports}, predictions {calls}), failed {} (mismatches {mismatches}, serve errors {errors}), failed_share {:.6}",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted as f64
    );
}

/// Graphs shaped like the inference microbench's: generated 5-call
/// programs with at most four frontier targets.
fn microbench_graphs(kernel: &Kernel) -> Vec<QueryGraph> {
    let generator = Generator::new(kernel.registry());
    let mut rng = StdRng::seed_from_u64(9);
    let mut vm = Vm::new(kernel);
    (0..64)
        .map(|_| {
            let p = generator.generate(&mut rng, 5);
            let e = vm.execute(&p);
            let f = kernel.cfg().alternative_entries(&e.coverage());
            QueryGraph::build(kernel, &p, &e, &f[..f.len().min(4)])
        })
        .collect()
}

/// Times `model.predict` on each graph, `reps` times back to back, in
/// microseconds.
fn predict_us(model: &mut Pmm, graphs: &[QueryGraph], reps: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(graphs.len() * reps);
    for _ in 0..reps {
        for g in graphs {
            let t = Instant::now();
            std::hint::black_box(model.predict(std::hint::black_box(g)));
            out.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    out
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn nodes_mean(graphs: &[QueryGraph]) -> f64 {
    stats::mean(
        &graphs
            .iter()
            .map(|g| g.node_count() as f64)
            .collect::<Vec<_>>(),
    )
}

fn counter(counters: &BTreeMap<String, u64>, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0) as f64
}

fn traced_run(args: &Args) -> Result<RunResult, String> {
    let (mut env, setup) = workload::setup(args.workload, args.seed);
    // Untraced and traced passes alternate, so clock drift shows in
    // both medians alike.
    let passes = timed_passes(&env, args.seconds, 2, |i| i % 2 == 1);
    let refs: Vec<&Pass> = passes.iter().collect();
    let mismatches = check_passes(args, &refs);
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) =
        passes.iter().partition(|p| p.trace.is_some());
    let loop_s = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let last = traced.last().expect("a traced pass ran");
    let tr = last.trace.as_ref().expect("traced pass carries a trace");

    let cfg = day_config(env.seeds[0]);
    let exec_cost_ns = cfg.exec_cost.as_nanos() as u64;
    let rp = replay::replay(
        &env.kernel,
        &tr.states,
        cfg.targets_per_query,
        exec_cost_ns,
        args.seed,
    );
    let step = Summary::of(&tr.step_us);
    let mutate = Summary::of(&rp.mutate_ns);
    let execute = Summary::of(&rp.execute_ns);
    let merge = Summary::of(&rp.merge_ns);
    let choose = Summary::of(&rp.choose_ns);
    let admit = Summary::of(&rp.admit_ns);
    let build = Summary::of(&rp.build_us);
    let round = Summary::of(&tr.round_ms);
    for (name, s, unit) in [
        ("fuzzer.step", &step, "us"),
        ("prog.mutate", &mutate, "ns"),
        ("kernel.execute", &execute, "ns"),
        ("kernel.merge", &merge, "ns"),
        ("corpus.choose", &choose, "ns"),
        ("corpus.admit", &admit, "ns"),
        ("pmm.graph.build", &build, "us"),
        ("fleet.round", &round, "ms"),
    ] {
        println!("{}", s.describe(name, unit));
    }

    let outcomes = &last.outcomes;
    let execs: u64 = outcomes.iter().map(|o| o.execs).sum();
    let inferences: u64 = outcomes.iter().map(|o| o.inferences).sum();
    let corpus_len: usize = outcomes.iter().map(|o| o.corpus_len).sum();
    let mutations = counter(&tr.counters, "phase.mutate.calls");

    // Model-side numbers. Solo workloads time the real in-loop calls
    // through the traced client; on fleet-4 the model runs inside the
    // service, so its per-call time comes from predicting the replay's
    // query graphs on a model copy.
    let has_model = env.model.is_some();
    let (predict, predict_busy_s, nodes_mean_real, isolated, micro) = match env.model.as_mut() {
        None => (
            Summary::of(&[]),
            0.0,
            stats::mean(&rp.nodes),
            Summary::of(&[]),
            None,
        ),
        Some(m) => {
            let micro_graphs = microbench_graphs(&env.kernel);
            let micro = (
                nodes_mean(&micro_graphs),
                Summary::of(&predict_us(m, &micro_graphs, 16)),
            );
            match &tr.serve {
                None => (
                    Summary::of(&tr.predict.us),
                    tr.predict.busy.as_secs_f64(),
                    stats::mean(&tr.predict.nodes),
                    Summary::of(&predict_us(m, &tr.predict.graphs, 2)),
                    Some(micro),
                ),
                Some(serve) => {
                    let direct = Summary::of(&predict_us(m, &rp.graphs, 1));
                    (
                        direct,
                        serve.stats.busy.as_secs_f64(),
                        stats::mean(&rp.nodes),
                        direct,
                        Some(micro),
                    )
                }
            }
        }
    };
    if has_model {
        println!("{}", predict.describe("pmm.model.predict", "us"));
        println!("{}", isolated.describe("pmm.model.predict_isolated", "us"));
    }

    // Layer totals: replayed per-call means times the traced pass's
    // call counts, plus the in-loop prediction and fleet times.
    let predict_calls = last.predict_calls as f64;
    let predict_wait_s = match &tr.serve {
        Some(serve) => serve.stats.latency.as_secs_f64(),
        None => predict_busy_s,
    };
    let layers = [
        ("choose", tr.steps as f64 * choose.mean * 1e-9),
        ("mutate", mutations * mutate.mean * 1e-9),
        ("execute", execs as f64 * execute.mean * 1e-9),
        ("merge", execs as f64 * merge.mean * 1e-9),
        ("admit", corpus_len as f64 * admit.mean * 1e-9),
        ("graph_build", predict_calls * build.mean * 1e-6),
        ("predict", predict_wait_s),
        ("fleet_snapshot", (tr.checkpoint_ms + tr.resume_ms) * 1e-3),
    ];
    let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
    for (name, s) in &layers {
        println!(
            "layer {name}: {:.3} s per pass ({:.1}% of the {:.3} s untraced loop)",
            s,
            100.0 * s / loop_s,
            loop_s
        );
    }

    let mut r = RunResult::default();
    r.push("fuzzer.steps", tr.steps as f64, "count");
    r.push("fuzzer.step_us_p50", step.p50, "us");
    r.push("fuzzer.step_us_p99", step.tail, "us");
    let memo_hit_rate = if inferences > 0 {
        1.0 - predict_calls / inferences as f64
    } else {
        0.0
    };
    r.push("fuzzer.memo_hit_rate", memo_hit_rate, "ratio");
    r.push(
        "fuzzer.admit_rate",
        corpus_len as f64 / execs as f64,
        "ratio",
    );
    for kind in ["queue_full", "overloaded", "malformed", "shutdown"] {
        r.push(
            &format!("fuzzer.degraded_{kind}"),
            counter(&tr.counters, &format!("serve.degraded.{kind}")),
            "count",
        );
    }
    r.push(
        "fuzzer.unique_crashes",
        outcomes.iter().map(|o| o.unique_crashes).sum::<usize>() as f64,
        "count",
    );
    r.push(
        "fuzzer.unattributed_pct",
        100.0 * (1.0 - attributed / loop_s),
        "%",
    );

    r.push("prog.mutations", mutations, "count");
    r.push("prog.mutate_ns_p50", mutate.p50, "ns");
    r.push("prog.mutate_ns_p99", mutate.tail, "ns");

    r.push("kernel.execute_ns_p50", execute.p50, "ns");
    r.push("kernel.execute_ns_p99", execute.tail, "ns");
    r.push("kernel.merge_ns", merge.p50, "ns");
    r.push(
        "kernel.trace_blocks_mean",
        stats::mean(&rp.trace_blocks),
        "count",
    );
    r.push(
        "kernel.cfg_cap_hits",
        counter(&tr.counters, "exec.cfg_cap_hit"),
        "count",
    );

    r.push("corpus.choose_ns", choose.p50, "ns");
    r.push("corpus.admit_ns", admit.p50, "ns");
    r.push("corpus.entries", corpus_len as f64, "count");
    r.push("corpus.store_entries", tr.store_entries as f64, "count");
    r.push(
        "corpus.store_dedup_hits",
        tr.store_dedup_hits as f64,
        "count",
    );
    r.push("corpus.index_bytes", tr.store_index_bytes as f64, "B");

    r.push("pmm.graph.build_us_p50", build.p50, "us");
    r.push("pmm.graph.build_us_p99", build.tail, "us");
    r.push("pmm.graph.nodes_mean", nodes_mean_real, "count");
    r.push(
        "pmm.graph.microbench_nodes_mean",
        micro.as_ref().map_or(0.0, |m| m.0),
        "count",
    );
    r.push("pmm.model.predict_calls", predict_calls, "count");
    r.push("pmm.model.predict_us_p50", predict.p50, "us");
    r.push("pmm.model.predict_us_p99", predict.tail, "us");
    r.push("pmm.model.predict_busy_s", predict_busy_s, "s");
    r.push("pmm.model.predict_isolated_us_p50", isolated.p50, "us");
    r.push(
        "pmm.model.microbench_predict_us_p50",
        micro.as_ref().map_or(0.0, |m| m.1.p50),
        "us",
    );

    let serve = tr.serve.as_ref();
    let st = serve.map(|s| s.stats).unwrap_or_default();
    r.push("serve.served", st.served as f64, "count");
    r.push("serve.batches", st.batches as f64, "count");
    r.push("serve.mean_batch", st.mean_batch(), "count");
    r.push("serve.busy_s", st.busy.as_secs_f64(), "s");
    let queue_wait_ms = if st.served > 0 {
        (st.latency.saturating_sub(st.busy)).as_secs_f64() * 1e3 / st.served as f64
    } else {
        0.0
    };
    r.push("serve.queue_wait_ms_mean", queue_wait_ms, "ms");
    r.push(
        "serve.latency_us_p50",
        serve.map_or(0.0, |s| s.latency_p50_us),
        "us",
    );
    r.push(
        "serve.latency_us_p99",
        serve.map_or(0.0, |s| s.latency_tail_us),
        "us",
    );
    if let Some(s) = serve {
        println!(
            "serve.latency: n={} p50={:.1}us p{}={:.1}us",
            st.served, s.latency_p50_us, s.latency_tail_q, s.latency_tail_us
        );
    }
    r.push("serve.max_queue_depth", st.max_queue_depth as f64, "count");
    r.push(
        "serve.fair_share_spread",
        serve.map_or(0.0, |s| s.fair_share_spread),
        "ratio",
    );
    r.push("serve.errors", last.serve_errors as f64, "count");

    r.push("fleet.round_ms_p50", round.p50, "ms");
    r.push(
        "fleet.round_ms_p75",
        stats::percentile_sorted(&sorted(&tr.round_ms), 75.0),
        "ms",
    );
    r.push("fleet.checkpoint_ms", tr.checkpoint_ms, "ms");
    r.push("fleet.resume_ms", tr.resume_ms, "ms");
    r.push("fleet.snapshot_bytes", tr.snapshot_bytes as f64, "B");

    r.push("setup.kernel_build_ms", setup.kernel_build_s * 1e3, "ms");
    r.push("setup.train_s", setup.train_s, "s");
    r.push("setup.seed_ingest_ms", median(&last.ingest_s) * 1e3, "ms");
    r.push("trace_overhead_pct", 100.0 * (traced_s / loop_s - 1.0), "%");
    finish_counts(&mut r, &passes, mismatches);
    Ok(r)
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let started = Instant::now();
    let result = if args.trace {
        traced_run(&args)?
    } else {
        untraced_run(&args)?
    };
    let line = result.render()?;
    println!(
        "{} seed {} trace {}: {:.1} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    println!("{line}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("loopbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "fleet-4",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Fleet4);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "syz-day", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "syz-day",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "syz-day", "--seconds", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(report::valid_name(w.name()));
        }
    }

    #[test]
    fn pinned_table_is_well_formed() {
        for line in PINNED.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 2 + workload::CAMPAIGNS, "{line}");
            let w = Workload::parse(f[0]).unwrap_or_else(|| panic!("{line}"));
            let seed: u64 = f[1].parse().unwrap();
            let hashes = pinned(w, seed).unwrap();
            assert_eq!(hashes.len(), workload::CAMPAIGNS);
        }
    }
}
