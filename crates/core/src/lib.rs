//! Snowplow — kernel fuzzing with a learned white-box test mutator.
//!
//! This is the public facade of the Snowplow reproduction (ASPLOS'25).
//! It wires the substrate crates together and exposes the end-to-end
//! pipeline the paper evaluates:
//!
//! 1. build a simulated kernel ([`Kernel`], three versions);
//! 2. collect a mutation dataset (§3.1) and train **PMM** (§3.2–3.3);
//! 3. run iso-resource fuzzing campaigns — the Syzkaller baseline vs
//!    Snowplow's PMM-guided argument localization (§5.3);
//! 4. run directed campaigns — SyzDirect vs Snowplow-D (§5.4).
//!
//! ```no_run
//! use snowplow_core::{train_pmm, Scale, Kernel, KernelVersion};
//! use snowplow_core::fuzzing::{Campaign, CampaignConfig, FuzzerKind};
//!
//! let kernel = Kernel::build(KernelVersion::V6_8);
//! let (model, report) = train_pmm(&kernel, Scale::quick());
//! println!("PMM eval: {}", report.metrics);
//! let campaign = Campaign::new(
//!     &kernel,
//!     FuzzerKind::SnowplowShared { client: Box::new(model) },
//!     CampaignConfig::default(),
//! );
//! let result = campaign.run();
//! println!("edges after 24 virtual hours: {}", result.final_edges);
//! ```

pub use snowplow_kernel::{
    BlockId, BugId, BugInfo, BugRegistry, CompileCache, CompileStats, CompiledKernel, Coverage,
    CrashCategory, CrashInfo, Edge, EdgeSet, Effect, ExecResult, Kernel, KernelVersion, Terminator,
    Vm,
};
pub use snowplow_mlcore::Quantize;
pub use snowplow_pmm::dataset::{Dataset, DatasetConfig, Split};
pub use snowplow_pmm::model::{Pmm, PmmConfig};
pub use snowplow_pmm::train::{EvalReport, TrainConfig, Trainer};
pub use snowplow_prog::gen as prog_gen;
pub use snowplow_prog::{enumerate_sites, Arg, ArgLoc, Call, Prog, ResSource};
pub use snowplow_syslang::{builtin, Registry, SyscallId};

/// Fuzzing-loop types (campaigns, corpus, crashes, directed mode).
pub mod fuzzing {
    pub use snowplow_fuzzer::{
        attempt_reproducer, Campaign, CampaignConfig, CampaignConfigBuilder, CampaignReport,
        CampaignState, CorpusConfig, CorpusConfigBuilder, CorpusEntry, CorpusHandle, CorpusStore,
        CrashLog, CrashRecord, DirectedCampaign, DirectedConfig, DirectedConfigBuilder,
        DirectedOutcome, FuzzerKind, PendingPrediction, ReproOutcome, RunningCampaign,
        SchedulePolicy, SeedScheduler, StoreStats, TimelinePoint, VirtualClock,
    };
}

/// Fleet orchestration: checkpoint/resume snapshots and multi-campaign
/// scheduling over a shared inference service (DESIGN.md §11).
pub mod fleet {
    pub use snowplow_fleet::{fair_share_spread, CampaignSnapshot, FleetScheduler};
    pub use snowplow_pmm::server::{InferenceClient, InferenceService, ServiceClient, Ticket};
}

/// One-stop imports for configuring the pipeline: every config type with
/// its builder, the shared execution wiring ([`ExecConfig`]), and the
/// telemetry layer (sinks, phases, snapshots).
///
/// ```no_run
/// use snowplow_core::prelude::*;
///
/// let (telemetry, sink) = Telemetry::in_memory();
/// let cfg = CampaignConfig::builder()
///     .workers(4)
///     .telemetry(telemetry)
///     .build();
/// # let _ = (cfg, sink);
/// ```
pub mod prelude {
    pub use crate::Scale;
    pub use snowplow_fuzzer::{
        CampaignConfig, CampaignConfigBuilder, CorpusConfig, CorpusConfigBuilder, CorpusHandle,
        CorpusStore, DirectedConfig, DirectedConfigBuilder, SchedulePolicy,
    };
    pub use snowplow_pmm::dataset::{DatasetConfig, DatasetConfigBuilder};
    pub use snowplow_pmm::server::ServeError;
    pub use snowplow_pmm::train::{TrainConfig, TrainConfigBuilder};
    pub use snowplow_pool::ExecConfig;
    pub use snowplow_telemetry::{
        Histogram, InMemorySink, JsonlSink, MetricsSnapshot, NullSink, Phase, PhaseSpan, Telemetry,
        TelemetrySink,
    };
}

/// Static analyses: the program linter, CFG passes, and the value-range
/// abstract interpreter with its shared cache (DESIGN.md §10).
pub mod analysis {
    pub use snowplow_analysis::{
        analyze_handler, classify, lint, statically_dead_blocks, AnalysisCache, ArgConstraint,
        CacheStats, ConstraintKind, Diagnostic, HandlerAnalysis, InfeasibleEdge, Interval,
        PrunedCfg, UnreachableProof, Verdict,
    };
}

/// Model/query types for advanced integration.
pub mod learning {
    pub use snowplow_mlcore::{
        AdamConfig, BinaryMetrics, Matrix, Params, QuantStats, Quantize, Tape,
    };
    pub use snowplow_pmm::graph::{EdgeType, NodeKind, QueryGraph};
    pub use snowplow_pmm::server::{InferenceService, InferenceStats, MAX_BATCH};
    pub use snowplow_pmm::train::predict_locations;
}

/// End-to-end pipeline scale: dataset size, training budget, model size.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Dataset pipeline configuration.
    pub dataset: DatasetConfig,
    /// Training configuration.
    pub train: TrainConfig,
    /// Model architecture.
    pub model: PmmConfig,
}

impl Scale {
    /// Seconds-scale budgets: enough signal to demonstrate every
    /// behaviour; used by the examples and quick tests.
    pub fn quick() -> Scale {
        Scale {
            dataset: DatasetConfig::builder()
                .base_tests(120)
                .mutations_per_base(100)
                .build(),
            train: TrainConfig::builder().epochs(6).build(),
            model: PmmConfig {
                dim: 48,
                rounds: 3,
                ..PmmConfig::default()
            },
        }
    }

    /// Minutes-scale budgets: the configuration the experiment harnesses
    /// use to regenerate the paper's tables and figures.
    pub fn paper() -> Scale {
        Scale {
            dataset: DatasetConfig::builder()
                .base_tests(500)
                .mutations_per_base(150)
                .build(),
            train: TrainConfig::builder().epochs(12).build(),
            model: PmmConfig {
                dim: 48,
                rounds: 3,
                ..PmmConfig::default()
            },
        }
    }

    /// Shards dataset collection, training-data materialization, and
    /// evaluation over `workers` threads. All outputs stay bit-identical
    /// to `workers = 1`; only wall-clock time changes.
    pub fn with_workers(mut self, workers: usize) -> Scale {
        self.dataset.exec.workers = workers;
        self.train.exec.workers = workers;
        self
    }

    /// Routes pipeline metrics (dataset harvest, training) to
    /// `telemetry`. Disabled telemetry — the default — costs nothing.
    pub fn with_telemetry(mut self, telemetry: snowplow_telemetry::Telemetry) -> Scale {
        self.dataset.exec.telemetry = telemetry.clone();
        self.train.exec.telemetry = telemetry;
        self
    }
}

/// Runs the full §3.1 + §3.3 pipeline: dataset collection, training, and
/// held-out evaluation. Returns the trained model and its Table-1-style
/// evaluation report.
///
/// If the scale's [`PmmConfig`] opts into quantized inference weights
/// ([`Quantize`]), the model is frozen *before* evaluation, so the
/// returned report measures the accuracy of the weights that will
/// actually serve.
pub fn train_pmm(kernel: &Kernel, scale: Scale) -> (Pmm, EvalReport) {
    let dataset = Dataset::generate(kernel, scale.dataset);
    let trainer = Trainer::new(kernel, scale.train);
    let mut model = Pmm::new(scale.model, kernel.registry().syscall_count());
    trainer.train(&mut model, &dataset);
    model.quantize_for_inference();
    let report = trainer.evaluate(&mut model, &dataset, Split::Evaluation);
    (model, report)
}

/// Like [`train_pmm`] but also hands back the dataset (for baselines and
/// statistics harnesses).
pub fn train_pmm_with_dataset(kernel: &Kernel, scale: Scale) -> (Pmm, EvalReport, Dataset) {
    let dataset = Dataset::generate(kernel, scale.dataset);
    let trainer = Trainer::new(kernel, scale.train);
    let mut model = Pmm::new(scale.model, kernel.registry().syscall_count());
    trainer.train(&mut model, &dataset);
    model.quantize_for_inference();
    let report = trainer.evaluate(&mut model, &dataset, Split::Evaluation);
    (model, report, dataset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_produces_a_useful_model() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let (mut model, report) = train_pmm(&kernel, Scale::quick());
        assert!(report.metrics.f1 > 0.15, "F1 {:.3}", report.metrics.f1);
        // The model answers arbitrary fresh queries.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let prog = snowplow_prog::gen::Generator::new(kernel.registry()).generate(&mut rng, 4);
        let mut vm = Vm::new(&kernel);
        let exec = vm.execute(&prog);
        let frontier = kernel.cfg().alternative_entries(&exec.coverage());
        let graph = snowplow_pmm::graph::QueryGraph::build(
            &kernel,
            &prog,
            &exec,
            &frontier[..frontier.len().min(4)],
        );
        assert!(!model.predict(&graph).is_empty());
    }

    /// §5.4 tolerance golden: freezing the trained localizer to f16
    /// weights must not move its held-out accuracy or its top-3 argument
    /// localizations beyond a declared epsilon.
    #[test]
    fn f16_quantized_eval_matches_f32_within_tolerance() {
        let kernel = Kernel::build(KernelVersion::V6_8);
        let (mut model, f32_report, dataset) = train_pmm_with_dataset(&kernel, Scale::quick());

        // Capture f32 top-3 localizations on held-out samples before
        // freezing (quantization rewrites the weights in place).
        let samples = dataset.split_samples(Split::Evaluation);
        let take = samples.len().min(24);
        let graphs: Vec<_> = samples[..take]
            .iter()
            .map(|s| dataset.build_example(&kernel, s).0)
            .collect();
        fn top3(m: &mut Pmm, g: &snowplow_pmm::graph::QueryGraph) -> Vec<ArgLoc> {
            let mut scored = m.predict(g);
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            scored.into_iter().take(3).map(|(loc, _)| loc).collect()
        }
        let f32_top: Vec<_> = graphs.iter().map(|g| top3(&mut model, g)).collect();

        model.config.quantize = Quantize::F16;
        let stats = model.quantize_for_inference();
        assert_eq!(stats.scalars, model.parameter_count());
        assert!(stats.max_abs_delta > 0.0 && stats.max_abs_delta < 1e-2);

        let trainer = Trainer::new(&kernel, Scale::quick().train);
        let f16_report = trainer.evaluate(&mut model, &dataset, Split::Evaluation);
        let eps = 0.02;
        assert!(
            (f16_report.metrics.f1 - f32_report.metrics.f1).abs() <= eps,
            "f16 F1 {:.4} drifted more than {eps} from f32 F1 {:.4}",
            f16_report.metrics.f1,
            f32_report.metrics.f1,
        );

        // f16 rounding perturbs logits by ~2^-11 relative — far below
        // typical score separations, so the ranked localizations should
        // be nearly unchanged.
        let (mut agree, mut total) = (0usize, 0usize);
        for (g, expect) in graphs.iter().zip(&f32_top) {
            let got = top3(&mut model, g);
            total += expect.len();
            agree += expect.iter().filter(|l| got.contains(l)).count();
        }
        assert!(total > 0, "eval split produced no localization queries");
        assert!(
            agree * 10 >= total * 9,
            "top-3 overlap {agree}/{total} fell below 90%"
        );
    }
}
