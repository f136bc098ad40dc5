//! The layer replay of a traced run.
//!
//! The campaign loop calls its layers from inside the program, where a
//! benchmark cannot put a span. So after the traced pass the benchmark
//! replays each campaign's own corpus, as it stood at several points of
//! its day, through the same public calls the loop makes — choose,
//! mutate, restore + execute, coverage merge, admission, query-graph
//! build with frontier targets — timing every call. Per-call means times
//! the traced run's call counts give each layer's share of the loop.
//!
//! Each layer is timed in a tight loop of its own (admission and graph
//! builds apart from the choose–mutate–execute–merge cycle), so the
//! replay measures a layer's own cost; what the loop loses to layers
//! evicting each other's caches stays in `fuzzer.unattributed_pct`.

use std::time::Instant;

use rand::prelude::*;
use snowplow_core::analysis::AnalysisCache;
use snowplow_core::fuzzing::{CampaignState, CorpusHandle};
use snowplow_core::learning::QueryGraph;
use snowplow_core::{BlockId, ExecResult, Kernel, Vm};
use snowplow_prog::Mutator;

/// Iterations replayed in total, split evenly over the states: enough
/// for every layer to have the thousand samples a p99 needs.
pub const ITERS: usize = 2048;

/// Every second replayed query graph is kept for timed predictions.
const KEEP_GRAPH_EVERY: usize = 2;

/// Per-call wall times of one replay, in nanoseconds unless named
/// otherwise.
#[derive(Default)]
pub struct Replay {
    pub choose_ns: Vec<f64>,
    pub mutate_ns: Vec<f64>,
    pub execute_ns: Vec<f64>,
    pub merge_ns: Vec<f64>,
    pub admit_ns: Vec<f64>,
    pub build_us: Vec<f64>,
    /// Node count of each replayed query graph.
    pub nodes: Vec<f64>,
    /// Trace length (blocks) of each replayed execution.
    pub trace_blocks: Vec<f64>,
    pub graphs: Vec<QueryGraph>,
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// Replays every campaign state (each campaign's corpus at several
/// points of its day); `targets_per_query` and
/// `exec_cost_ns` are the campaign configuration's.
pub fn replay(
    kernel: &Kernel,
    states: &[CampaignState],
    targets_per_query: usize,
    exec_cost_ns: u64,
    seed: u64,
) -> Replay {
    let reg = kernel.registry();
    let cfg = kernel.cfg();
    let dead = AnalysisCache::shared().dead_blocks(kernel);
    let mut vm = Vm::new(kernel);
    let snap = vm.snapshot();
    let mut buf = ExecResult::default();
    let mut mutator = Mutator::new(reg);
    let mut out = Replay::default();
    let per_state = ITERS.div_ceil(states.len().max(1));
    for (i, st) in states.iter().enumerate() {
        let corpus: &CorpusHandle = &st.corpus;
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).rotate_left(32));
        let mut edges = st.edges.clone();
        let mut blocks = st.blocks.clone();

        // The loop's own cycle, nothing else in between: choose, mutate,
        // execute, merge, drop the mutant.
        for _ in 0..per_state {
            let t = Instant::now();
            let Some(idx) = corpus.choose(&mut rng) else {
                break;
            };
            out.choose_ns.push(ns(t));

            let t = Instant::now();
            let (mutant, _) = mutator.mutate(&mut rng, &corpus.entry(idx).prog);
            out.mutate_ns.push(ns(t));

            let t = Instant::now();
            vm.restore(&snap);
            vm.execute_into(&mutant, &mut buf);
            out.execute_ns.push(ns(t));
            out.trace_blocks.push(buf.trace.len() as f64);

            let t = Instant::now();
            buf.merge_edges_into(&mut edges);
            buf.merge_coverage_into(&mut blocks);
            out.merge_ns.push(ns(t));
        }

        // Admission, timed alone. Mutants go to a scratch view that
        // restarts at the campaign's corpus size, so admission works on
        // a store as large as the loop's.
        let mut admitted = CorpusHandle::new();
        for _ in 0..per_state {
            if admitted.len() >= corpus.len() {
                admitted = CorpusHandle::new();
            }
            let Some(idx) = corpus.choose(&mut rng) else {
                break;
            };
            let (mutant, _) = mutator.mutate(&mut rng, &corpus.entry(idx).prog);
            vm.restore(&snap);
            vm.execute_into(&mutant, &mut buf);
            let t = Instant::now();
            admitted.add_checked_weighted(reg, mutant, &buf, 1, exec_cost_ns);
            out.admit_ns.push(ns(t));
        }

        // Query graphs, timed alone, with targets as the campaign picks
        // them: the base's uncovered, live, argument-gated frontier,
        // shuffled and truncated.
        for k in 0..per_state {
            let Some(idx) = corpus.choose(&mut rng) else {
                break;
            };
            let base = corpus.entry(idx);
            let mut targets: Vec<BlockId> = cfg
                .alternative_entries(&base.coverage)
                .into_iter()
                .filter(|b| {
                    !st.blocks.contains(*b)
                        && !dead.contains(b)
                        && cfg.arg_gated(kernel.blocks(), *b)
                })
                .collect();
            if targets.is_empty() {
                continue;
            }
            targets.shuffle(&mut rng);
            targets.truncate(targets_per_query);
            let t = Instant::now();
            let graph = QueryGraph::build(kernel, &base.prog, &base.exec, &targets);
            out.build_us.push(ns(t) / 1e3);
            out.nodes.push(graph.node_count() as f64);
            if k % KEEP_GRAPH_EVERY == 0 {
                out.graphs.push(graph);
            }
        }
    }
    out
}
