//! Golden determinism tests for the telemetry layer.
//!
//! The contract: a seeded campaign drained into an [`InMemorySink`]
//! renders the *byte-identical* metric snapshot no matter how many pool
//! workers run it — and enabling telemetry at all must not perturb the
//! campaign report.

use std::time::Duration;

use snowplow_fuzzer::{Campaign, CampaignConfig, CampaignReport, FuzzerKind};
use snowplow_kernel::{Kernel, KernelVersion};
use snowplow_pmm::model::{Pmm, PmmConfig};
use snowplow_telemetry::{MetricsSnapshot, Phase, Telemetry};

/// FNV-1a 64 of the rendered workers=1 snapshot, captured while the
/// uncached frontier/predict path still existed and rendered the same
/// bytes.
const SNAPSHOT_HASH: u64 = 0xb5a3033987eb23d8;

fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn model(kernel: &Kernel) -> Box<Pmm> {
    Box::new(Pmm::new(
        PmmConfig {
            dim: 16,
            rounds: 1,
            ..Default::default()
        },
        kernel.registry().syscall_count(),
    ))
}

fn config(telemetry: Telemetry, workers: usize) -> CampaignConfig {
    CampaignConfig::builder()
        .duration(Duration::from_secs(1200))
        .sample_every(Duration::from_secs(120))
        .seed_corpus(20)
        .seed(5)
        .workers(workers)
        .telemetry(telemetry)
        .build()
}

fn run(kernel: &Kernel, workers: usize) -> (MetricsSnapshot, CampaignReport) {
    let (telemetry, sink) = Telemetry::in_memory();
    let report = Campaign::new(
        kernel,
        FuzzerKind::SnowplowShared {
            client: model(kernel),
        },
        config(telemetry, workers),
    )
    .run();
    let snap = sink.last().expect("campaign flushed a snapshot");
    assert_eq!(sink.export_count(), 1, "exactly one flush per campaign");
    (snap, report)
}

#[test]
fn snapshots_match_the_pinned_hash_at_every_worker_count() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let mut golden_report = None;
    for workers in [1, 2, 8] {
        let (snap, report) = run(&kernel, workers);
        assert_eq!(
            fnv1a64(&snap.render()),
            SNAPSHOT_HASH,
            "snapshot drifted at workers={workers}"
        );
        let fingerprint = report.fingerprint();
        let golden = golden_report.get_or_insert_with(|| fingerprint.clone());
        assert_eq!(*golden, fingerprint, "report drifted at workers={workers}");
        // A healthy run never hits the CFG step cap, so the counter
        // must be absent from the snapshot entirely.
        assert!(
            !snap.counters.contains_key("exec.cfg_cap_hit"),
            "cap-hit counter leaked into a healthy run"
        );
    }
}

#[test]
fn snapshot_carries_the_phase_profile() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let (telemetry, sink) = Telemetry::in_memory();
    let report = Campaign::new(
        &kernel,
        FuzzerKind::SnowplowShared {
            client: model(&kernel),
        },
        config(telemetry, 1),
    )
    .run();
    let snap = sink.last().expect("flushed");

    // Every hot-loop phase is profiled.
    for phase in [
        Phase::SeedGen,
        Phase::Predict,
        Phase::Mutate,
        Phase::Execute,
    ] {
        let h = snap
            .hist(phase.hist_name())
            .unwrap_or_else(|| panic!("missing {}", phase.hist_name()));
        assert!(h.count() > 0, "{} is empty", phase.hist_name());
        assert!(
            h.percentile(50.0) <= h.percentile(95.0) && h.percentile(95.0) <= h.percentile(99.0),
            "{} percentiles not monotone",
            phase.hist_name()
        );
    }

    // Execute phase timing sums to the virtual cost actually paid.
    let exec_hist = snap.hist(Phase::Execute.hist_name()).unwrap();
    assert_eq!(exec_hist.count(), report.execs);
    assert_eq!(snap.counters.get("execs"), Some(&report.execs));
    assert_eq!(snap.counters.get("inferences"), Some(&report.inferences));

    // Data histograms ride along with the phase timers.
    for name in [
        "frontier.wanted_blocks",
        "predict.locations",
        "mutate.prog_calls",
        "execute.new_edges",
    ] {
        assert!(snap.hist(name).is_some(), "missing data hist {name}");
    }
    assert_eq!(
        snap.gauges.get("campaign.final_edges").copied(),
        Some(report.final_edges as f64)
    );
}

#[test]
fn telemetry_is_invisible_to_the_campaign() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let silent = Campaign::new(
        &kernel,
        FuzzerKind::SnowplowShared {
            client: model(&kernel),
        },
        config(Telemetry::disabled(), 1),
    )
    .run();
    let (_, instrumented) = run(&kernel, 1);
    assert_eq!(
        silent.fingerprint(),
        instrumented.fingerprint(),
        "enabling telemetry changed the campaign report"
    );
}
