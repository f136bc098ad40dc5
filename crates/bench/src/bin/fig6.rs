//! Figure 6: edge coverage over 24 virtual hours, Snowplow vs Syzkaller,
//! on kernels 6.8 (trained-on), 6.9 and 6.10; plus the 6d improvement
//! summary. `--iso-cost` runs the §5.3.1 same-test-time-cost variant
//! (the baseline gets a 1.5x machine-speed bonus standing in for the
//! inference hardware).

use snowplow_bench::{day_config, trained_model};
use snowplow_core::fuzzing::{Campaign, FuzzerKind};
use snowplow_core::{Kernel, KernelVersion};

fn main() {
    let iso_cost = std::env::args().any(|a| a == "--iso-cost");
    let seeds: Vec<u64> = vec![1, 2, 3, 4, 5];
    let k68 = Kernel::build(KernelVersion::V6_8);
    let (model, report) = trained_model(&k68);
    println!("PMM trained on 6.8: {}", report.metrics);

    for version in KernelVersion::ALL {
        let kernel = Kernel::build(version);
        let mut base_finals = Vec::new();
        let mut snow_finals = Vec::new();
        let mut speedups = Vec::new();
        println!(
            "\n== Figure 6 ({version}): edge coverage, mean over {} seeds ==",
            seeds.len()
        );
        let mut base_series: Vec<Vec<usize>> = Vec::new();
        let mut snow_series: Vec<Vec<usize>> = Vec::new();
        for &seed in &seeds {
            let mut cfg = day_config(seed);
            if iso_cost {
                cfg.speed_factor = 1.5; // §5.3.1: extra fuzz machines
            }
            let base = Campaign::new(&kernel, FuzzerKind::Syzkaller, cfg).run();
            let mut snow_cfg = day_config(seed);
            snow_cfg.speed_factor = 1.0;
            let snow = Campaign::new(
                &kernel,
                FuzzerKind::SnowplowShared {
                    client: Box::new(model.clone()),
                },
                snow_cfg,
            )
            .run();
            if let Some(t) = snow.time_to_edges(base.final_edges) {
                speedups.push(24.0 * 3600.0 / t.as_secs_f64());
            }
            base_series.push(base.timeline.iter().map(|p| p.edges).collect());
            snow_series.push(snow.timeline.iter().map(|p| p.edges).collect());
            base_finals.push(base.final_edges);
            snow_finals.push(snow.final_edges);
        }
        // Hour-by-hour mean curve.
        let hours = base_series.iter().map(Vec::len).min().unwrap_or(0);
        println!("{:>4} {:>12} {:>12}", "hour", "syzkaller", "snowplow");
        for h in (0..hours).step_by(4) {
            let b: f64 = base_series.iter().map(|s| s[h] as f64).sum::<f64>() / seeds.len() as f64;
            let s: f64 = snow_series.iter().map(|s| s[h] as f64).sum::<f64>() / seeds.len() as f64;
            println!("{:>4} {:>12.0} {:>12.0}", h, b, s);
        }
        let mb: f64 = base_finals.iter().sum::<usize>() as f64 / seeds.len() as f64;
        let ms: f64 = snow_finals.iter().sum::<usize>() as f64 / seeds.len() as f64;
        let band = |v: &[usize]| {
            (
                v.iter().min().copied().unwrap_or(0),
                v.iter().max().copied().unwrap_or(0),
            )
        };
        println!(
            "final: syzkaller {mb:.0} {:?} | snowplow {ms:.0} {:?}",
            band(&base_finals),
            band(&snow_finals)
        );
        println!(
            "Figure 6d improvement at 24h: {:+.1}%  (paper: +7.0% / +8.6% / +7.7%)",
            100.0 * (ms / mb - 1.0)
        );
        if !speedups.is_empty() {
            println!(
                "mean time-to-baseline-coverage speedup: {:.1}x over {} runs that reached it (paper: 4.8–5.2x)",
                speedups.iter().sum::<f64>() / speedups.len() as f64,
                speedups.len()
            );
        }
    }
}
