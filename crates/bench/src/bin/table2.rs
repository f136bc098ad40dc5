//! Table 2: crashes found during the 7-day campaign, Snowplow vs
//! Syzkaller, two runs each.

use std::time::Duration;

use snowplow_bench::{hours, trained_model};
use snowplow_core::fuzzing::{Campaign, CampaignConfig, FuzzerKind};
use snowplow_core::{Kernel, KernelVersion};

fn main() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let (model, _) = trained_model(&kernel);
    // 7 virtual days at 14 s per execution = 43 200 executions, the same
    // budget scale as a fig6 day (see DESIGN.md's virtual-clock note).
    let cfg = |seed| {
        CampaignConfig::builder()
            .duration(hours(7 * 24))
            .exec_cost(Duration::from_secs(14))
            .sample_every(hours(12))
            .seed(seed)
            .build()
    };
    println!("== Table 2: 7-day crash campaign ==");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "", "snow run1", "snow run2", "syz run1", "syz run2"
    );
    let mut rows = Vec::new();
    for (kind_name, seeds) in [("snowplow", [11u64, 22]), ("syzkaller", [11, 22])] {
        for seed in seeds {
            let kind = if kind_name == "snowplow" {
                FuzzerKind::SnowplowShared {
                    client: Box::new(model.clone()),
                }
            } else {
                FuzzerKind::Syzkaller
            };
            let report = Campaign::new(&kernel, kind, cfg(seed)).run();
            rows.push((report.crashes.new_count(), report.crashes.known_count()));
        }
    }
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "New Crashes", rows[0].0, rows[1].0, rows[2].0, rows[3].0
    );
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "Known Crashes", rows[0].1, rows[1].1, rows[2].1, rows[3].1
    );
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "Total",
        rows[0].0 + rows[0].1,
        rows[1].0 + rows[1].1,
        rows[2].0 + rows[2].1,
        rows[3].0 + rows[3].1
    );
    println!("(paper: Snowplow 67/46 new + 14/13 known; Syzkaller 0/0 new + 8/11 known)");
}
