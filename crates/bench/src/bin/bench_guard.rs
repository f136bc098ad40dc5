//! Bench regression guard: compares a freshly generated
//! `BENCH_perf.jsonl` against a committed baseline and fails (exit 1)
//! when any guarded metric regresses by more than 20%.
//!
//! Guarded metrics are the ones the perf work optimizes for: matmul
//! GFLOP/s (both measured shapes), the stock Syzkaller loop's rate and
//! the mutation engine's rate under it, the Snowplow/Syzkaller fuzzing
//! throughput ratio, the compiled/interpreted executor ratio (also held
//! above an *absolute* floor of 1.0 — the compiled path must never be
//! slower than the interpreter), the distance-scheduling throughput
//! ratio, the static-analysis throughput (interval fixpoints and
//! distance maps), the dataset-harvest scaling factor, the saturated
//! inference-service throughput, the 4-campaign shared-service fleet's
//! execution rate, and the direct batched-inference
//! speedup (held above an absolute floor of 1.0 — batching that loses
//! to per-query inference defeats its purpose). Everything else in the
//! file is informational — the latency gauges vary too much
//! run-to-run on shared hardware to gate on.
//!
//! Usage: `bench_guard <baseline.jsonl> <candidate.jsonl>` (defaults:
//! `BENCH_perf.jsonl` for both, which trivially passes — `ci.sh bench`
//! copies the committed file aside before regenerating). The input is
//! the telemetry [`JsonlSink`] format `perf_sec55` flushes — one JSON
//! object per line, gauges as
//! `{"type":"gauge","name":"fuzzing.ratio","value":0.98}` — so parsing
//! is a hand-rolled scan and the guard needs no serde dependency.
//!
//! [`JsonlSink`]: snowplow_core::prelude::JsonlSink

use std::process::ExitCode;

/// Gauge names that must not regress (higher is better).
const GUARDED: &[&str] = &[
    "matmul_400x48x48.gflops_fast",
    "matmul_256x256x256.gflops_fast",
    "inference_service.qps",
    "fuzzing.syzkaller_execs_per_sec",
    "prog.mutate_per_sec",
    "fuzzing.ratio",
    "fuzzing.compiled_ratio",
    "fuzzing.distance_sched_ratio",
    "analysis.fixpoint_per_sec",
    "analysis.static_distance_per_sec",
    "harvest.scaling",
    "fleet.fair_share_spread",
    "fleet.shared_execs_per_sec",
];

/// Absolute ceilings (lower is better), independent of the baseline
/// file. Resume overhead is a percentage that honestly measures in the
/// low single digits but wobbles by ±7 points run to run (two ~150 ms
/// arms on a drifting clock) — a relative ceiling anchored to whatever
/// near-zero value the last run happened to land on gates on that
/// noise, so the gate is a fixed budget instead: checkpoint+resume may
/// cost at most 15% over an uninterrupted campaign. The corpus minset
/// ratio (weighted kept / first-fit kept at equal coverage) is a
/// correctness-adjacent invariant like the compiled-executor floor: a
/// weighted minimizer that keeps *more* entries than the scan it
/// replaced has lost its purpose, whatever the baseline file says. The
/// closed-loop queue wait is the same kind of invariant: a lone query
/// is never held for stragglers, so it waits only for its replica to
/// wake (tens of µs) — holding it for a second request that a blocking
/// client cannot send would add a forward pass's worth or more.
const GUARDED_CEILING_ABS: &[(&str, f64)] = &[
    ("fleet.resume_overhead_pct", 15.0),
    ("corpus.minset_ratio", 1.0),
    ("inference_service_closed_loop.queue_wait_us", 100.0),
];

/// Absolute floors, independent of the baseline file. These encode
/// invariants, not trends: the compiled executor must actually beat the
/// interpreter (ratio ≥ 1.0) no matter what the last committed baseline
/// happened to measure — a relative tolerance would let the win decay
/// 20% per commit until it became a loss.
const GUARDED_FLOOR_ABS: &[(&str, f64)] = &[
    ("fuzzing.compiled_ratio", 1.0),
    // Batched inference must actually beat per-query inference — the
    // headline claim of the tiled-GEMM work. 0.84 (a loss) was the
    // measured value before the packed-panel kernels landed.
    ("inference_direct.batch_speedup", 1.0),
];

/// Largest tolerated fractional drop below baseline.
const TOLERANCE: f64 = 0.20;

/// Pulls the `"value"` of the JSONL line naming gauge `name`.
fn extract(jsonl: &str, name: &str) -> Option<f64> {
    let tag = format!("\"name\":\"{name}\"");
    let line = jsonl.lines().find(|l| l.contains(&tag))?;
    let tail = line.split("\"value\":").nth(1)?;
    tail.trim().trim_end_matches('}').trim().parse().ok()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().unwrap_or_else(|| "BENCH_perf.jsonl".into());
    let candidate_path = args.next().unwrap_or_else(|| "BENCH_perf.jsonl".into());
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_guard: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(candidate)) = (read(&baseline_path), read(&candidate_path)) else {
        return ExitCode::FAILURE;
    };

    let mut failed = false;
    println!(
        "bench_guard: {baseline_path} -> {candidate_path} (tolerance -{:.0}%)",
        TOLERANCE * 100.0
    );
    for &name in GUARDED {
        match (extract(&baseline, name), extract(&candidate, name)) {
            (Some(old), Some(new)) => {
                let floor = old * (1.0 - TOLERANCE);
                let verdict = if new < floor { "REGRESSED" } else { "ok" };
                println!("  {name}: {old:.3} -> {new:.3} (floor {floor:.3}) {verdict}");
                failed |= new < floor;
            }
            (None, Some(new)) => {
                // A gauge the baseline predates: nothing to regress
                // against yet — it becomes guarded once this run's file
                // is committed.
                println!("  {name}: (new metric) -> {new:.3} ok");
            }
            (old, None) => {
                eprintln!(
                    "  {name}: missing from candidate (baseline {})",
                    if old.is_some() { "present" } else { "absent" },
                );
                failed = true;
            }
        }
    }
    for &(name, floor) in GUARDED_FLOOR_ABS {
        match extract(&candidate, name) {
            Some(new) => {
                let verdict = if new < floor { "BELOW FLOOR" } else { "ok" };
                println!("  {name}: {new:.3} (absolute floor {floor:.3}) {verdict}");
                failed |= new < floor;
            }
            None => {
                eprintln!("  {name}: missing from candidate (absolute floor {floor:.3})");
                failed = true;
            }
        }
    }
    for &(name, ceiling) in GUARDED_CEILING_ABS {
        match extract(&candidate, name) {
            Some(new) => {
                let verdict = if new > ceiling { "REGRESSED" } else { "ok" };
                println!("  {name}: {new:.3} (absolute ceiling {ceiling:.3}) {verdict}");
                failed |= new > ceiling;
            }
            None => {
                eprintln!("  {name}: missing from candidate (absolute ceiling {ceiling:.3})");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("bench_guard: FAIL");
        ExitCode::FAILURE
    } else {
        println!("bench_guard: PASS");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::extract;

    const SAMPLE: &str = r#"{"type":"gauge","name":"fuzzing.ratio","value":0.242}
{"type":"gauge","name":"matmul_400x48x48.gflops_fast","value":3.642}
{"type":"gauge","name":"matmul_400x48x48.gflops_naive","value":0.412}
{"type":"hist","name":"phase.execute.us","count":3,"sum":9,"min":3,"max":3,"p50":3,"p95":3,"p99":3}
"#;

    #[test]
    fn extracts_gauge_values_by_name() {
        assert_eq!(extract(SAMPLE, "matmul_400x48x48.gflops_fast"), Some(3.642));
        assert_eq!(extract(SAMPLE, "fuzzing.ratio"), Some(0.242));
        assert_eq!(extract(SAMPLE, "fuzzing.absent"), None);
        // A name that is a prefix of another must not match the longer
        // gauge's line.
        assert_eq!(
            extract(SAMPLE, "matmul_400x48x48.gflops_naive"),
            Some(0.412)
        );
    }
}
