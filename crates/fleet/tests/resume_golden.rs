//! The fleet goldens.
//!
//! The contract under test: interrupting a campaign — checkpoint to
//! bytes, drop everything, decode, resume in a fresh process state —
//! is *unobservable*. The final report fingerprint and the rendered
//! telemetry snapshot are byte-identical to the uninterrupted run, at
//! any worker count, for both the baseline and the shared-inference
//! fuzzer, and no matter how often the campaign is interrupted.
//!
//! Plus the fleet-level properties: four campaigns multiplexed over one
//! inference service all finish, each shows up in the aggregate
//! `fleet.c<id>.*` metrics, none is starved below 20% of the fair
//! inference share, and no replica's queue ever holds more than one
//! request per campaign.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use snowplow_fleet::{fair_share_spread, CampaignSnapshot, FleetScheduler};
use snowplow_fuzzer::{Campaign, CampaignConfig, FuzzerKind, RunningCampaign};
use snowplow_kernel::{Kernel, KernelVersion};
use snowplow_pmm::model::{Pmm, PmmConfig};
use snowplow_pmm::server::{InferenceService, ServiceClient};
use snowplow_telemetry::Telemetry;

fn kernel() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| Kernel::build(KernelVersion::V6_8))
}

fn model() -> Pmm {
    Pmm::new(
        PmmConfig {
            dim: 16,
            rounds: 1,
            ..Default::default()
        },
        kernel().registry().syscall_count(),
    )
}

/// A "24-hour" campaign at one execution per virtual minute.
fn day_config(seed: u64, workers: usize, telemetry: Telemetry) -> CampaignConfig {
    CampaignConfig::builder()
        .duration(Duration::from_secs(24 * 3600))
        .exec_cost(Duration::from_secs(60))
        .sample_every(Duration::from_secs(2 * 3600))
        .seed_corpus(20)
        .seed(seed)
        .workers(workers)
        .telemetry(telemetry)
        .build()
}

/// Runs `running` to completion and returns (report fingerprint,
/// rendered final metrics).
fn drain(running: RunningCampaign<'_>, telemetry: &Telemetry) -> (String, String) {
    let report = running.run_to_end();
    (report.fingerprint(), telemetry.snapshot().render())
}

/// The uninterrupted reference run.
fn uninterrupted(kind: FuzzerKind, seed: u64, workers: usize) -> (String, String) {
    let (telemetry, _sink) = Telemetry::in_memory();
    let cfg = day_config(seed, workers, telemetry.clone());
    let running = Campaign::new(kernel(), kind, cfg).into_running();
    drain(running, &telemetry)
}

/// The same campaign, but killed at virtual `interrupt_at`, serialized,
/// deserialized, and resumed with a fresh telemetry handle.
fn interrupted(
    kind_a: FuzzerKind,
    kind_b: FuzzerKind,
    seed: u64,
    workers: usize,
    interrupt_at: Duration,
) -> (String, String) {
    let (telemetry, _sink) = Telemetry::in_memory();
    let cfg = day_config(seed, workers, telemetry.clone());
    let mut running = Campaign::new(kernel(), kind_a, cfg).into_running();
    while running.now() < interrupt_at && running.step() {}
    let bytes = CampaignSnapshot::capture(&running).to_bytes();
    drop(running);
    drop(telemetry);

    let snap = CampaignSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    let (telemetry, _sink) = Telemetry::in_memory();
    let resumed = snap.resume(kernel(), kind_b, telemetry.clone());
    drain(resumed, &telemetry)
}

#[test]
fn baseline_resume_is_bit_identical_at_every_worker_count() {
    let half_day = Duration::from_secs(12 * 3600);
    for workers in [1usize, 2, 8] {
        let golden = uninterrupted(FuzzerKind::Syzkaller, 7, workers);
        let resumed = interrupted(
            FuzzerKind::Syzkaller,
            FuzzerKind::Syzkaller,
            7,
            workers,
            half_day,
        );
        assert_eq!(
            golden.0, resumed.0,
            "report drifted after resume at workers={workers}"
        );
        assert_eq!(
            golden.1, resumed.1,
            "telemetry drifted after resume at workers={workers}"
        );
    }
}

#[test]
fn shared_inference_resume_is_bit_identical() {
    let service = Arc::new(InferenceService::start(&model(), 2));
    let shared = |tag: u32| FuzzerKind::SnowplowShared {
        client: Box::new(ServiceClient::new(Arc::clone(&service), tag)),
    };
    let golden = uninterrupted(shared(1), 11, 2);
    // The resumed campaign reconnects under a *different* tag — the tag
    // routes fairness accounting, not results.
    let resumed = interrupted(shared(2), shared(3), 11, 2, Duration::from_secs(12 * 3600));
    assert_eq!(golden.0, resumed.0, "report drifted after shared resume");
    assert_eq!(golden.1, resumed.1, "telemetry drifted after shared resume");
}

fn owned() -> FuzzerKind {
    FuzzerKind::SnowplowShared {
        client: Box::new(model()),
    }
}

#[test]
fn owned_and_shared_inference_agree() {
    // The shared service serves the same deterministic model, so a
    // campaign gets identical predictions through either path — however
    // many replicas answer, and although the shared arm resolves each
    // prediction only when it first reads it.
    let owned = uninterrupted(owned(), 11, 2);
    for replicas in [1usize, 2, 8] {
        let service = Arc::new(InferenceService::start(&model(), replicas));
        let shared = uninterrupted(
            FuzzerKind::SnowplowShared {
                client: Box::new(ServiceClient::new(service, 1)),
            },
            11,
            2,
        );
        assert_eq!(
            owned.0, shared.0,
            "owned vs shared inference reports differ at {replicas} replicas"
        );
        assert_eq!(
            owned.1, shared.1,
            "owned vs shared inference telemetry differs at {replicas} replicas"
        );
    }
}

#[test]
fn owned_and_shared_checkpoints_are_byte_identical() {
    // A checkpoint settles the shared arm's prediction in flight, so at
    // hour 12 both arms serialize the same state and metrics.
    let capture = |kind: FuzzerKind| {
        let (telemetry, _sink) = Telemetry::in_memory();
        let cfg = day_config(11, 2, telemetry);
        let mut running = Campaign::new(kernel(), kind, cfg).into_running();
        while running.now() < Duration::from_secs(12 * 3600) && running.step() {}
        CampaignSnapshot::capture(&running).to_bytes()
    };
    let service = Arc::new(InferenceService::start(&model(), 2));
    let shared = capture(FuzzerKind::SnowplowShared {
        client: Box::new(ServiceClient::new(service, 1)),
    });
    assert!(
        capture(owned()) == shared,
        "owned vs shared checkpoints differ at hour 12"
    );
}

/// Round-trips a campaign through bytes every k steps, for several k,
/// and requires the result to match the never-interrupted run. `kind`
/// makes a fresh fuzzer for every (re)start. Returns the golden
/// (report fingerprint, rendered telemetry).
fn checkpoint_every_interval(kind: impl Fn() -> FuzzerKind) -> (String, String) {
    let short = |telemetry: Telemetry| {
        CampaignConfig::builder()
            .duration(Duration::from_secs(600))
            .seed_corpus(5)
            .sample_every(Duration::from_secs(60))
            .seed(3)
            .telemetry(telemetry)
            .build()
    };
    let (telemetry, _sink) = Telemetry::in_memory();
    let golden = drain(
        Campaign::new(kernel(), kind(), short(telemetry.clone())).into_running(),
        &telemetry,
    );

    for k in [1usize, 7, 25] {
        let (mut telemetry, _sink) = Telemetry::in_memory();
        let mut running = Campaign::new(kernel(), kind(), short(telemetry.clone())).into_running();
        loop {
            let mut stepped = true;
            for _ in 0..k {
                if !running.step() {
                    stepped = false;
                    break;
                }
            }
            let bytes = CampaignSnapshot::capture(&running).to_bytes();
            drop(running);
            let snap = CampaignSnapshot::from_bytes(&bytes).expect("snapshot decodes");
            let (t, _sink2) = Telemetry::in_memory();
            running = snap.resume(kernel(), kind(), t.clone());
            telemetry = t;
            if !stepped {
                break;
            }
        }
        let result = drain(running, &telemetry);
        assert_eq!(
            golden.0, result.0,
            "report drifted at checkpoint interval {k}"
        );
        assert_eq!(
            golden.1, result.1,
            "telemetry drifted at checkpoint interval {k}"
        );
    }
    golden
}

#[test]
fn checkpoint_at_every_interval_is_unobservable() {
    checkpoint_every_interval(|| FuzzerKind::Syzkaller);
}

#[test]
fn shared_checkpoint_at_every_interval_is_unobservable() {
    // At k = 1 a checkpoint follows every submission, often while its
    // ticket still waits on the service.
    let service = Arc::new(InferenceService::start(&model(), 2));
    let golden = checkpoint_every_interval(|| FuzzerKind::SnowplowShared {
        client: Box::new(ServiceClient::new(Arc::clone(&service), 1)),
    });
    assert!(
        golden.1.contains("predict.locations"),
        "the model was queried"
    );
}

#[test]
fn four_campaign_fleet_shares_inference_fairly() {
    for replicas in [1usize, 2] {
        let service = Arc::new(InferenceService::start(&model(), replicas));
        let mut fleet = FleetScheduler::new(kernel(), Arc::clone(&service));
        let mut ids = Vec::new();
        for seed in 1u64..=4 {
            let cfg = CampaignConfig::builder()
                .duration(Duration::from_secs(4 * 3600))
                .exec_cost(Duration::from_secs(60))
                .sample_every(Duration::from_secs(3600))
                .seed_corpus(10)
                .seed(seed)
                .telemetry(Telemetry::disabled()) // replaced by the scheduler
                .build();
            ids.push(fleet.spawn_shared(cfg));
        }
        fleet.run_to_completion(Duration::from_secs(600));

        for id in &ids {
            let report = fleet.report(*id).expect("campaign finished");
            assert!(report.execs > 0);
        }

        let agg = fleet.aggregate();
        assert_eq!(agg.gauges.get("fleet.campaigns"), Some(&4.0));
        for id in &ids {
            let key = format!("fleet.c{id}.execs");
            assert!(
                agg.counters.get(&key).copied().unwrap_or(0) > 0,
                "missing per-campaign counter {key}"
            );
        }

        let served = service.served_by_tag();
        assert_eq!(served.len(), 4, "every campaign reached the service");
        let mean = served.values().sum::<u64>() as f64 / served.len() as f64;
        for (tag, count) in &served {
            assert!(
                *count as f64 >= 0.2 * mean,
                "campaign {tag} starved: served {count} of mean {mean:.1}"
            );
        }
        let spread = fair_share_spread(&served).expect("queries were served");
        assert!(spread >= 0.2, "fair-share spread {spread:.3} below 0.2");
        assert_eq!(agg.gauges.get("fleet.fair_share_spread"), Some(&spread));

        // The service has no queue bound: each campaign waits for its
        // previous ticket before it submits again, so no replica's
        // queue can hold more requests than there are campaigns.
        let depth = service.stats().max_queue_depth;
        assert!(
            (1..=4).contains(&depth),
            "queue depth {depth} at {replicas} replicas; four campaigns keep one query each in flight"
        );
    }
}

#[test]
fn kill_resume_rebalance_mid_run_preserves_results() {
    let service = Arc::new(InferenceService::start(&model(), 2));

    // Solo reference: campaign seed 21 through the shared service,
    // never interrupted.
    let golden = {
        let (telemetry, _sink) = Telemetry::in_memory();
        let cfg = CampaignConfig::builder()
            .duration(Duration::from_secs(4 * 3600))
            .exec_cost(Duration::from_secs(60))
            .sample_every(Duration::from_secs(3600))
            .seed_corpus(10)
            .seed(21)
            .telemetry(telemetry.clone())
            .build();
        let running = Campaign::new(
            kernel(),
            FuzzerKind::SnowplowShared {
                client: Box::new(ServiceClient::new(Arc::clone(&service), 99)),
            },
            cfg,
        )
        .into_running();
        running.run_to_end().fingerprint()
    };

    let mut fleet = FleetScheduler::new(kernel(), Arc::clone(&service));
    let cfg = |seed: u64| {
        CampaignConfig::builder()
            .duration(Duration::from_secs(4 * 3600))
            .exec_cost(Duration::from_secs(60))
            .sample_every(Duration::from_secs(3600))
            .seed_corpus(10)
            .seed(seed)
            .telemetry(Telemetry::disabled())
            .build()
    };
    let victim = fleet.spawn_shared(cfg(21));
    let other = fleet.spawn_shared(cfg(22));

    // Let both run a while, then kill the victim mid-flight.
    fleet.run_round(Duration::from_secs(3600));
    let snap = fleet.kill(victim).expect("victim was running");
    assert!(fleet.checkpoint(victim).is_none(), "victim left the fleet");

    // The survivor keeps running; the victim's snapshot survives a trip
    // through bytes and rejoins later under a new id.
    fleet.run_round(Duration::from_secs(3600));
    let bytes = snap.to_bytes();
    let snap = CampaignSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    let revived = fleet.resume_shared(snap);
    assert_ne!(revived, victim, "resume allocates a fresh campaign id");

    // Rebalance: the revived campaign is furthest behind, so it must be
    // admitted first next round.
    fleet.rebalance();
    assert_eq!(fleet.campaign_ids()[0], revived);

    fleet.run_to_completion(Duration::from_secs(600));
    assert_eq!(
        fleet
            .report(revived)
            .expect("revived finished")
            .fingerprint(),
        golden,
        "kill/resume changed the campaign outcome"
    );
    assert!(fleet.report(other).is_some(), "survivor finished too");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any prefix of any seeded campaign encodes to bytes that decode
    /// back to the same canonical encoding, and the resumed run always
    /// lands on the uninterrupted result.
    #[test]
    fn prop_snapshot_round_trips_and_resumes(seed in 0u64..1000, steps in 0usize..120) {
        let mk = |telemetry: Telemetry| {
            CampaignConfig::builder()
                .duration(Duration::from_secs(300))
                .seed_corpus(5)
                .sample_every(Duration::from_secs(60))
                .seed(seed)
                .telemetry(telemetry)
                .build()
        };
        let (telemetry, _sink) = Telemetry::in_memory();
        let golden = drain(
            Campaign::new(kernel(), FuzzerKind::Syzkaller, mk(telemetry.clone())).into_running(),
            &telemetry,
        );

        let (telemetry, _sink) = Telemetry::in_memory();
        let mut running =
            Campaign::new(kernel(), FuzzerKind::Syzkaller, mk(telemetry.clone())).into_running();
        for _ in 0..steps {
            if !running.step() {
                break;
            }
        }
        let bytes = CampaignSnapshot::capture(&running).to_bytes();
        let decoded = CampaignSnapshot::from_bytes(&bytes).expect("snapshot decodes");
        prop_assert_eq!(decoded.to_bytes(), bytes);

        let (telemetry, _sink) = Telemetry::in_memory();
        let resumed = decoded.resume(kernel(), FuzzerKind::Syzkaller, telemetry.clone());
        let result = drain(resumed, &telemetry);
        prop_assert_eq!(&golden.0, &result.0);
        prop_assert_eq!(&golden.1, &result.1);
    }
}
