//! Oracles for the mutation engine's fast paths, on generated programs
//! and on a real campaign corpus.
//!
//! Each fast path is compared against a reference kept only here:
//!
//! - the registry's `consumers_of` / `producers_of` indexes against a
//!   brute-force scan of every syscall's description paths and return
//!   kind;
//! - `RandomLocalizer`'s path-free site counting against the original
//!   build-every-path localizer, including the RNG position it leaves
//!   behind;
//! - the per-call finalize of `Instantiator::mutate_at` and
//!   `Mutator::insert_call` against a full `Prog::finalize`.
//!
//! The campaign corpus is the end of a 24-virtual-hour stock Syzkaller
//! day: the programs the loop actually mutates.

use std::time::Duration;

use rand::prelude::*;
use snowplow_fuzzer::{Campaign, CampaignConfig, FuzzerKind};
use snowplow_kernel::{Kernel, KernelVersion};
use snowplow_prog::enumerate::mutable_sites;
use snowplow_prog::gen::Generator;
use snowplow_prog::{ArgLoc, ArgLocalizer, ArgSite, Instantiator, Mutator, Prog, RandomLocalizer};
use snowplow_syslang::{Registry, ResourceId, SyscallId, Type};

/// The end-of-day corpus of a full virtual day of stock Syzkaller.
fn day_corpus(kernel: &Kernel) -> Vec<Prog> {
    let config = CampaignConfig::builder()
        .duration(Duration::from_secs(24 * 3600))
        .exec_cost(Duration::from_secs(2))
        .sample_every(Duration::from_secs(3600))
        .seed(4)
        .build();
    let mut running = Campaign::new(kernel, FuzzerKind::Syzkaller, config).into_running();
    while running.step() {}
    let corpus = &running.state().corpus;
    let progs: Vec<Prog> = (0..corpus.len())
        .map(|i| corpus.entry(i).prog.clone())
        .collect();
    assert!(progs.len() > 50, "a day should grow a corpus");
    progs
}

fn generated(reg: &Registry, n: usize) -> Vec<Prog> {
    let generator = Generator::new(reg);
    let mut rng = StdRng::seed_from_u64(0x0ac1e);
    (0..n).map(|_| generator.generate(&mut rng, 8)).collect()
}

/// The localizer as it was before site counting: enumerate every
/// mutable site with its path, weight the first draw by per-call site
/// counts, then draw the rest uniformly without replacement.
fn reference_localize(reg: &Registry, prog: &Prog, count: usize, rng: &mut StdRng) -> Vec<ArgLoc> {
    let mut sites = mutable_sites(reg, prog);
    if sites.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(count);
    if let Some(first) = reference_weighted_first_site(&sites, rng) {
        sites.retain(|s| !(s.call == first.call && s.path == first.path));
        out.push(ArgLoc::new(first.call, first.path));
    }
    while out.len() < count && !sites.is_empty() {
        let i = rng.random_range(0..sites.len());
        let s = sites.swap_remove(i);
        out.push(ArgLoc::new(s.call, s.path));
    }
    out
}

fn reference_weighted_first_site(sites: &[ArgSite], rng: &mut StdRng) -> Option<ArgSite> {
    let max_call = sites.iter().map(|s| s.call).max()?;
    let mut weights = vec![0usize; max_call + 1];
    for s in sites {
        weights[s.call] += 1;
    }
    let total: usize = weights.iter().sum();
    let mut pick = rng.random_range(0..total);
    let call = weights.iter().position(|&w| {
        if pick < w {
            true
        } else {
            pick -= w;
            false
        }
    })?;
    let call_sites: Vec<&ArgSite> = sites.iter().filter(|s| s.call == call).collect();
    call_sites.choose(rng).map(|s| (*s).clone())
}

fn assert_localizer_matches_reference(reg: &Registry, progs: &[Prog], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for (i, prog) in progs.iter().enumerate() {
        for count in [1, 8] {
            let mut fast_rng = StdRng::seed_from_u64(rng.random());
            let mut ref_rng = fast_rng.clone();
            let fast = RandomLocalizer { count }.localize(reg, prog, &mut fast_rng);
            let reference = reference_localize(reg, prog, count, &mut ref_rng);
            assert_eq!(fast, reference, "program {i}, count {count}");
            assert_eq!(
                fast_rng.random::<u64>(),
                ref_rng.random::<u64>(),
                "program {i}, count {count}: RNG streams diverged"
            );
        }
    }
}

fn assert_per_call_finalize_is_complete(reg: &Registry, progs: &[Prog], seed: u64) {
    let inst = Instantiator::new(reg);
    let mutator = Mutator::new(reg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut applied = 0usize;
    for (i, prog) in progs.iter().enumerate() {
        for site in mutable_sites(reg, prog) {
            let mut p = prog.clone();
            if inst.mutate_at(&mut rng, &mut p, &ArgLoc::new(site.call, site.path.clone())) {
                applied += 1;
            }
            let mut full = p.clone();
            full.finalize(reg);
            assert_eq!(p, full, "program {i}, site {}:{}", site.call, site.path);
        }
        let p = mutator.insert_call(&mut rng, prog);
        let mut full = p.clone();
        full.finalize(reg);
        assert_eq!(p, full, "program {i}, insertion");
    }
    assert!(applied > 0, "no mutation applied");
}

#[test]
fn resource_indexes_match_brute_force_scan_on_every_kernel_version() {
    for version in KernelVersion::ALL {
        let kernel = Kernel::build(version);
        let reg = kernel.registry();
        for k in 0..reg.resource_count() as u32 {
            let kind = ResourceId(k);
            let producers: Vec<SyscallId> = reg
                .syscall_ids()
                .filter(|&id| reg.syscall(id).ret == Some(kind))
                .collect();
            let consumers: Vec<SyscallId> = reg
                .syscall_ids()
                .filter(|&id| {
                    reg.enumerate_paths(id).iter().any(|(_, t)| {
                        matches!(
                            reg.ty(*t),
                            Type::Resource { kind: c, dir } if *c == kind && dir.is_in()
                        )
                    })
                })
                .collect();
            assert_eq!(reg.producers_of(kind), producers, "{version:?} kind {k}");
            assert_eq!(reg.consumers_of(kind), consumers, "{version:?} kind {k}");
        }
    }
}

#[test]
fn fast_paths_match_their_references_on_generated_programs() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let reg = kernel.registry();
    let progs = generated(reg, 500);
    assert_localizer_matches_reference(reg, &progs, 1);
    assert_per_call_finalize_is_complete(reg, &progs[..100], 2);
}

#[test]
fn fast_paths_match_their_references_on_a_campaign_corpus() {
    let kernel = Kernel::build(KernelVersion::V6_8);
    let reg = kernel.registry();
    let progs = day_corpus(&kernel);
    assert_localizer_matches_reference(reg, &progs, 3);
    assert_per_call_finalize_is_complete(reg, &progs, 4);
}
