#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
# Run from the workspace root. Fails fast on the first violation.
#
#   ./ci.sh            fmt + clippy + tests + benches compile +
#                      lint-corpus + miri (when available)
#   ./ci.sh telemetry  the focused observability gate: pedantic lints on
#                      snowplow-telemetry and the golden determinism
#                      test (the metric snapshot matches its pinned hash
#                      at every worker count).
#   ./ci.sh lint-corpus
#                      the sp-lint gate alone: the checked-in clean
#                      corpus file must lint clean, the generator
#                      self-check must pass, and the interval report
#                      must cover every handler.
#   ./ci.sh miri       runs the unsafe-adjacent crates (snowplow-pool,
#                      mlcore) under Miri; skips with a notice when the
#                      Miri component is not installed.
#   ./ci.sh fleet      the focused orchestration gate: pedantic lints on
#                      snowplow-fleet and snowplow-fuzzer, the resume
#                      goldens (checkpoint at virtual hour 12 + resume
#                      must be bit-identical to the uninterrupted day at
#                      workers 1/2/8, a campaign served by a shared
#                      service must match one whose client is a `Pmm`
#                      in report, telemetry and snapshot bytes at 1/2/8
#                      replicas and across checkpoints taken while a
#                      prediction is in flight, and a 4-campaign fleet
#                      must share inference fairly with at most one
#                      queued request per campaign),
#                      and the campaign's deferred-prediction tests
#                      (late tickets change nothing; dropped tickets
#                      degrade to random localization).
#   ./ci.sh corpus     the focused corpus gate: pedantic lints on
#                      snowplow-corpus, its unit and property tests
#                      (weighted minset preserves the union edge set at
#                      workers 1/2/8 and never keeps more than
#                      first-fit), the pre-refactor campaign hash
#                      goldens, the pinned crash-witness regression, and
#                      the shared-store fleet goldens.
#   ./ci.sh exec       the focused compiled-executor gate: the
#                      compiled-vs-interpreted equivalence golden +
#                      proptest, the pinned campaign report and
#                      telemetry hashes, and a compile check of the
#                      exec_throughput microbenches.
#   ./ci.sh mutate     the focused mutation-engine gate: lints on
#                      snowplow-syslang and snowplow-prog, their unit
#                      tests, the fast-path oracles (registry resource
#                      indexes, path-free random localization and
#                      per-call finalize against their references), the
#                      pinned campaign report and telemetry hashes, and a
#                      compile check of the microbenches.
#   ./ci.sh inference  the focused inference gate: lints on
#                      snowplow-pmm, tiled-GEMM and parallel-matmul
#                      kernel-equality tests (bit identity at workers
#                      1/2/8), the f16 quantization tolerance golden, the
#                      replica-serving tests (continuous batching,
#                      round-robin tag lanes, non-blocking
#                      ServiceClient::submit), the service-backed
#                      fleet goldens (resume and shared-corpus reports
#                      bit-identical through the shared service), and a
#                      compile check of the gemm_tiled / predict_replicas
#                      microbenches.
#   ./ci.sh bench      the full gate, then the bench-regression guard:
#                      regenerates BENCH_perf.jsonl with perf_sec55
#                      (which flushes every measurement through the
#                      telemetry JSONL sink) and fails if any guarded
#                      metric (matmul GFLOP/s, Syzkaller loop and
#                      mutation rates, fuzzing ratio, harvest scaling,
#                      analysis throughput) drops >20% below the
#                      committed baseline.
set -euo pipefail

lint_corpus() {
    cargo build -q -p snowplow-analysis --bin sp-lint
    ./target/debug/sp-lint corpus/seed_clean.prog
    ./target/debug/sp-lint --generate 200
    # Interval diagnostics must produce a report for every handler
    # (the summary line is `N handler(s), ...` with N > 0).
    ./target/debug/sp-lint --intervals | tail -n 1 | grep -qv "^0 handler"
}

run_miri() {
    if ! cargo miri --version >/dev/null 2>&1; then
        echo "miri: component not installed, skipping"
        return 0
    fi
    cargo miri test -p snowplow-pool -q
    cargo miri test -p snowplow-mlcore -q pool
}

if [[ "${1:-}" == "telemetry" ]]; then
    cargo clippy -p snowplow-telemetry --all-targets -- -D warnings
    cargo test -q -p snowplow-telemetry
    cargo test -q -p snowplow-fuzzer --test telemetry_golden
    exit 0
fi

if [[ "${1:-}" == "lint-corpus" ]]; then
    lint_corpus
    exit 0
fi

if [[ "${1:-}" == "miri" ]]; then
    run_miri
    exit 0
fi

if [[ "${1:-}" == "fleet" ]]; then
    cargo clippy -p snowplow-fleet --all-targets -- -D warnings
    cargo clippy -p snowplow-fuzzer --all-targets -- -D warnings
    cargo test -q -p snowplow-fleet
    cargo test -q -p snowplow-fuzzer --lib campaign::
    exit 0
fi

if [[ "${1:-}" == "corpus" ]]; then
    cargo clippy -p snowplow-corpus --all-targets -- -D warnings
    cargo test -q -p snowplow-corpus
    cargo test -q -p snowplow-fuzzer --test corpus_golden --test pinned_minset
    cargo test -q -p snowplow-fleet --test shared_corpus
    exit 0
fi

if [[ "${1:-}" == "exec" ]]; then
    cargo test -q -p snowplow-kernel --test compiled_equiv
    cargo test -q -p snowplow-fuzzer --test corpus_golden --test telemetry_golden
    cargo bench -p snowplow-bench --no-run
    exit 0
fi

if [[ "${1:-}" == "mutate" ]]; then
    cargo clippy -p snowplow-syslang -p snowplow-prog --all-targets -- -D warnings
    cargo test -q -p snowplow-syslang -p snowplow-prog
    cargo test -q -p snowplow-fuzzer --test mutate_oracle --test corpus_golden \
        --test telemetry_golden
    cargo bench -p snowplow-bench --no-run
    exit 0
fi

if [[ "${1:-}" == "inference" ]]; then
    cargo clippy -p snowplow-pmm --all-targets -- -D warnings
    # Kernel equality: the tiled/packed GEMM paths against the naive
    # reference, and row-sharded parallel matmul bit-identical to serial.
    cargo test -q -p snowplow-mlcore --lib -- matrix:: quant::
    # Model layer: parallel predict_batch bit-identity + f16/int8
    # freezing semantics; replica serving (continuous batching,
    # round-robin tag lanes, ServiceClient::submit returning a waiting
    # ticket).
    cargo test -q -p snowplow-pmm --lib -- \
        parallel_predict_batch_is_bit_identical_to_serial \
        quantize_none_is_a_noop_and_f16_stays_close \
        server::
    # Fleets served by one shared service: reports stay bit-identical
    # whatever batches the replicas form and whenever the campaign
    # resolves its tickets.
    cargo test -q -p snowplow-fleet --test resume_golden --test shared_corpus
    # The §5.4 quantization-tolerance golden (trains a quick model).
    cargo test -q -p snowplow-core --lib \
        f16_quantized_eval_matches_f32_within_tolerance
    cargo bench -p snowplow-bench --no-run
    exit 0
fi

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace -q
cargo bench --workspace --no-run
lint_corpus
run_miri

if [[ "${1:-}" == "bench" ]]; then
    baseline="$(mktemp -t bench_baseline.XXXXXX.jsonl)"
    trap 'rm -f "$baseline"' EXIT
    cp BENCH_perf.jsonl "$baseline"
    cargo build --release -q -p snowplow-bench
    mkdir -p results
    ./target/release/perf_sec55 | tee results/perf_sec55.txt
    ./target/release/bench_guard "$baseline" BENCH_perf.jsonl
fi
