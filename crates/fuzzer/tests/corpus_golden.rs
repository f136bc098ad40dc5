//! Pre-refactor campaign goldens for the corpus redesign.
//!
//! These FNV-1a 64 hashes of `CampaignReport::fingerprint()` were
//! captured on the tree immediately before `crates/fuzzer/src/corpus.rs`
//! was replaced by the `snowplow-corpus` store/handle split. A campaign
//! with a private store must reproduce them bit-for-bit: the handle's
//! `choose`, the seed-corpus ingest order, the schedule-weight paths,
//! and the report layout all feed the fingerprint, so any behavioral
//! drift in the redesign shows up here first.

use std::time::Duration;

use snowplow_fuzzer::{Campaign, CampaignConfig, CorpusConfig, FuzzerKind, SchedulePolicy};
use snowplow_kernel::{Kernel, KernelVersion};
use snowplow_pmm::model::{Pmm, PmmConfig};

fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn golden_config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder()
        .duration(Duration::from_secs(600))
        .seed_corpus(20)
        .sample_every(Duration::from_secs(60))
        .seed(seed)
        .build()
}

fn run_hash(kernel: &Kernel, kind: FuzzerKind, config: CampaignConfig) -> u64 {
    fnv1a64(&Campaign::new(kernel, kind, config).run().fingerprint())
}

#[test]
fn private_store_campaigns_match_pre_refactor_hashes() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let mk_model = || {
        Pmm::new(
            PmmConfig {
                dim: 16,
                rounds: 1,
                ..Default::default()
            },
            kernel.registry().syscall_count(),
        )
    };

    for (seed, snowplow, expected) in [
        (5u64, false, 0xe62b6a31903d1cc0u64),
        (5, true, 0x3c2b5954a3fd839b),
        (9, false, 0x0232758a78fce5db),
        (9, true, 0x8dbebb1afe5f19ac),
    ] {
        let kind = if snowplow {
            FuzzerKind::SnowplowShared {
                client: Box::new(mk_model()),
            }
        } else {
            FuzzerKind::Syzkaller
        };
        assert_eq!(
            run_hash(&kernel, kind, golden_config(seed)),
            expected,
            "seed {seed} snowplow={snowplow} diverged from the pre-refactor report"
        );
    }
}

#[test]
fn distance_policy_matches_pre_refactor_hash() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let config = CampaignConfig::builder()
        .duration(Duration::from_secs(600))
        .seed_corpus(20)
        .sample_every(Duration::from_secs(60))
        .corpus(
            CorpusConfig::builder()
                .policy(SchedulePolicy::Distance)
                .build(),
        )
        .seed(5)
        .build();
    assert_eq!(
        run_hash(&kernel, FuzzerKind::Syzkaller, config),
        0xbf18c0516ae60641,
        "distance-scheduling path diverged from the pre-refactor report"
    );
}
