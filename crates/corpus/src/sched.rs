//! Seed scheduling policies.
//!
//! Historically the fuzzer had three weight paths tangled together:
//! the baseline contribution weights baked into `Corpus::choose`, the
//! frontier-distance overrides installed by the campaign, and
//! ad-hoc uniform selection in tooling. [`SeedScheduler`] is the one
//! interface behind all of them: a policy looks at a
//! [`ScheduleContext`] and either returns override weights to install
//! on the handle, or `None` to fall back to per-entry contribution
//! weights.

use std::sync::Arc;

use crate::entry::CorpusEntry;

/// Which seed-selection policy a campaign runs.
///
/// Non-exhaustive: match with a wildcard arm. Downstream code selects a
/// policy through [`CorpusConfig`](crate::CorpusConfig)'s builder.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// The historical default: weight by new-edge contribution
    /// (`1 + new_edges`), no override weights installed.
    #[default]
    Contribution,
    /// Every entry equally likely (outside the recency window).
    Uniform,
    /// Frontier-distance scheduling: entries whose coverage sits close
    /// to uncovered CFG frontier blocks are up-weighted. Needs block
    /// distances from the campaign's static analysis.
    Distance,
    /// Cost-normalized rare-edge scheduling: entries holding rare edges
    /// (short posting lists in the store's inverted index) are
    /// up-weighted, discounted by how much slower than the corpus mean
    /// they execute.
    CostNormalizedRareEdge,
}

impl SchedulePolicy {
    /// Stable one-byte tag for snapshot serialization.
    pub fn to_tag(self) -> u8 {
        match self {
            SchedulePolicy::Contribution => 0,
            SchedulePolicy::Uniform => 1,
            SchedulePolicy::Distance => 2,
            SchedulePolicy::CostNormalizedRareEdge => 3,
        }
    }

    /// Inverse of [`SchedulePolicy::to_tag`].
    pub fn from_tag(tag: u8) -> Option<SchedulePolicy> {
        match tag {
            0 => Some(SchedulePolicy::Contribution),
            1 => Some(SchedulePolicy::Uniform),
            2 => Some(SchedulePolicy::Distance),
            3 => Some(SchedulePolicy::CostNormalizedRareEdge),
            _ => None,
        }
    }
}

/// Everything a scheduler may consult when weighing a corpus view.
/// Inputs a policy does not need stay `None` and cost nothing to
/// assemble.
pub struct ScheduleContext<'a> {
    /// The view's entries, in admission order.
    pub entries: &'a [Arc<CorpusEntry>],
    /// Per-block shortest distance (in CFG edges) to the campaign's
    /// current coverage frontier; `None` for unreachable blocks.
    /// Indexed by block id. Required by [`SchedulePolicy::Distance`].
    pub block_distance: Option<&'a [Option<u32>]>,
    /// Per-entry rarity of the rarest covered edge (shortest posting
    /// list in the store index; see
    /// [`CorpusHandle::rarity`](crate::CorpusHandle::rarity)). Required
    /// by [`SchedulePolicy::CostNormalizedRareEdge`].
    pub rarity: Option<&'a [u32]>,
}

/// A seed-selection policy: maps a corpus view to override weights.
///
/// Returning `None` means "no override" — the handle falls back to
/// per-entry contribution weights, which is also the cheapest path
/// (no weight vector allocated or scanned).
pub trait SeedScheduler: Send + Sync {
    /// Policy name, for telemetry and docs.
    fn name(&self) -> &'static str;

    /// Override weights for the view, parallel to `ctx.entries`, or
    /// `None` to use contribution weights. Every returned weight must
    /// be non-zero.
    fn weights(&self, ctx: &ScheduleContext<'_>) -> Option<Vec<u64>>;
}

/// The static scheduler implementing `policy`.
pub fn scheduler_for(policy: SchedulePolicy) -> &'static dyn SeedScheduler {
    match policy {
        SchedulePolicy::Contribution => &Contribution,
        SchedulePolicy::Uniform => &Uniform,
        SchedulePolicy::Distance => &Distance,
        SchedulePolicy::CostNormalizedRareEdge => &CostNormalizedRareEdge,
    }
}

struct Contribution;

impl SeedScheduler for Contribution {
    fn name(&self) -> &'static str {
        "contribution"
    }

    fn weights(&self, _ctx: &ScheduleContext<'_>) -> Option<Vec<u64>> {
        None
    }
}

struct Uniform;

impl SeedScheduler for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn weights(&self, ctx: &ScheduleContext<'_>) -> Option<Vec<u64>> {
        Some(vec![1; ctx.entries.len()])
    }
}

struct Distance;

impl SeedScheduler for Distance {
    fn name(&self) -> &'static str {
        "distance"
    }

    /// An entry's distance to the frontier is the minimum distance over
    /// its covered blocks; the bonus `256 >> d` halves per CFG step and
    /// vanishes beyond eight steps, so far-from-frontier entries keep
    /// their baseline contribution weight rather than starving.
    fn weights(&self, ctx: &ScheduleContext<'_>) -> Option<Vec<u64>> {
        let dist = ctx.block_distance?;
        Some(
            ctx.entries
                .iter()
                .map(|e| {
                    let d = e
                        .coverage
                        .iter()
                        .filter_map(|b| dist[b.index()])
                        .min()
                        .unwrap_or(u32::MAX);
                    1 + e.new_edges as u64 + (256u64 >> d.min(8))
                })
                .collect(),
        )
    }
}

struct CostNormalizedRareEdge;

impl SeedScheduler for CostNormalizedRareEdge {
    fn name(&self) -> &'static str {
        "cost_normalized_rare_edge"
    }

    /// Bonus `(256 / rarity) * (mean_cost / cost)`: an entry uniquely
    /// covering an edge gets the full 256 at mean cost, scaled down the
    /// more entries share its rarest edge and the slower it runs
    /// relative to the corpus mean. Capped at `1 << 20` so a
    /// zero-measured-cost outlier cannot absorb the whole distribution.
    fn weights(&self, ctx: &ScheduleContext<'_>) -> Option<Vec<u64>> {
        let rarity = ctx.rarity?;
        if ctx.entries.is_empty() {
            return Some(Vec::new());
        }
        let mean: u64 = ctx
            .entries
            .iter()
            .map(|e| e.exec_time_ns.max(1))
            .sum::<u64>()
            / ctx.entries.len() as u64;
        Some(
            ctx.entries
                .iter()
                .zip(rarity)
                .map(|(e, &r)| {
                    let cost = e.exec_time_ns.max(1);
                    let bonus = ((256 / r.max(1) as u64) as u128 * mean.max(1) as u128
                        / cost as u128)
                        .min(1 << 20) as u64;
                    1 + e.new_edges as u64 + bonus
                })
                .collect(),
        )
    }
}
