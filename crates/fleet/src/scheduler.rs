//! Multi-campaign orchestration over a shared inference tier.
//!
//! A [`FleetScheduler`] multiplexes N independent campaigns — each with
//! its own seed, config, telemetry, and virtual clock — over one
//! [`InferenceService`]. Campaigns that use the shared tier submit
//! tagged queries ([`ServiceClient`] with the campaign id as the tag),
//! so the service's [`served_by_tag`](InferenceService::served_by_tag)
//! ledger attributes every prediction and the fair-queue admission in
//! `snowplow-pmm` rotates lanes round-robin: no campaign can starve the
//! others however bursty its query stream.
//!
//! Scheduling is cooperative and deterministic: [`run_round`] grants
//! each active campaign a quantum of *virtual* time, in slot order, and
//! a campaign's result is a pure function of its own (kernel, config,
//! seed) — identical whether it runs alone, in a fleet, or across a
//! [`kill`](FleetScheduler::kill)/[`resume`](FleetScheduler::resume_shared)
//! cycle (the resume goldens pin this).
//!
//! [`run_round`]: FleetScheduler::run_round

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use snowplow_fuzzer::{
    Campaign, CampaignConfig, CampaignReport, CorpusStore, FuzzerKind, RunningCampaign,
};
use snowplow_kernel::Kernel;
use snowplow_pmm::server::{InferenceService, ServiceClient};
use snowplow_telemetry::{MetricsSnapshot, Telemetry};

use crate::snapshot::CampaignSnapshot;

/// One campaign's seat in the fleet.
struct Slot<'k> {
    id: u32,
    /// A clone of the handle installed in the campaign's config; kept
    /// here so metrics remain reachable after the campaign finishes.
    telemetry: Telemetry,
    running: Option<RunningCampaign<'k>>,
    report: Option<CampaignReport>,
}

/// Cooperative round-robin scheduler for a fleet of campaigns sharing
/// one inference service.
pub struct FleetScheduler<'k> {
    kernel: &'k Kernel,
    service: Arc<InferenceService>,
    slots: Vec<Slot<'k>>,
    next_id: u32,
    /// Fleet-wide corpus store, when campaigns pool their corpora.
    /// Installed into every subsequently spawned campaign's config and
    /// into every resume, and reported in [`aggregate`]
    /// (`corpus.store_*` gauges).
    ///
    /// [`aggregate`]: FleetScheduler::aggregate
    shared_corpus: Option<CorpusStore>,
}

impl<'k> FleetScheduler<'k> {
    /// Creates an empty fleet around a shared inference service.
    pub fn new(kernel: &'k Kernel, service: Arc<InferenceService>) -> FleetScheduler<'k> {
        FleetScheduler {
            kernel,
            service,
            slots: Vec::new(),
            next_id: 1,
            shared_corpus: None,
        }
    }

    /// Pools the corpora of every campaign spawned or resumed after
    /// this call into `store` (cross-campaign dedup; see
    /// `snowplow-corpus`). Each campaign still selects only from its
    /// own view, so reports stay a pure function of (kernel, config,
    /// seed).
    pub fn set_shared_corpus(&mut self, store: CorpusStore) {
        self.shared_corpus = Some(store);
    }

    /// The fleet-wide corpus store, if one was installed.
    pub fn shared_corpus(&self) -> Option<&CorpusStore> {
        self.shared_corpus.as_ref()
    }

    /// The shared inference service.
    pub fn service(&self) -> &Arc<InferenceService> {
        &self.service
    }

    fn add_slot(
        &mut self,
        config: CampaignConfig,
        make_kind: impl FnOnce(u32) -> FuzzerKind,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let (telemetry, _sink) = Telemetry::in_memory();
        let mut config = config;
        config.exec.telemetry = telemetry.clone();
        if let Some(store) = &self.shared_corpus {
            config.corpus.shared = Some(store.clone());
        }
        let running = Campaign::new(self.kernel, make_kind(id), config).into_running();
        self.slots.push(Slot {
            id,
            telemetry,
            running: Some(running),
            report: None,
        });
        id
    }

    /// Spawns a Syzkaller-baseline campaign (no inference). Returns its
    /// campaign id.
    pub fn spawn_baseline(&mut self, config: CampaignConfig) -> u32 {
        self.add_slot(config, |_| FuzzerKind::Syzkaller)
    }

    /// Spawns a Snowplow campaign whose inference goes through the
    /// shared service, tagged with the new campaign id.
    pub fn spawn_shared(&mut self, config: CampaignConfig) -> u32 {
        let service = Arc::clone(&self.service);
        self.add_slot(config, move |id| FuzzerKind::SnowplowShared {
            client: Box::new(ServiceClient::new(service, id)),
        })
    }

    fn add_resumed(
        &mut self,
        snap: CampaignSnapshot,
        make_kind: impl FnOnce(u32) -> FuzzerKind,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let (telemetry, _sink) = Telemetry::in_memory();
        let running = match &self.shared_corpus {
            Some(store) => {
                snap.resume_with_store(self.kernel, make_kind(id), telemetry.clone(), store.clone())
            }
            None => snap.resume(self.kernel, make_kind(id), telemetry.clone()),
        };
        self.slots.push(Slot {
            id,
            telemetry,
            running: Some(running),
            report: None,
        });
        id
    }

    /// Resumes a checkpointed baseline campaign in a fresh slot.
    pub fn resume_baseline(&mut self, snap: CampaignSnapshot) -> u32 {
        self.add_resumed(snap, |_| FuzzerKind::Syzkaller)
    }

    /// Resumes a checkpointed campaign against the shared service under
    /// its new slot's tag.
    pub fn resume_shared(&mut self, snap: CampaignSnapshot) -> u32 {
        let service = Arc::clone(&self.service);
        self.add_resumed(snap, move |id| FuzzerKind::SnowplowShared {
            client: Box::new(ServiceClient::new(service, id)),
        })
    }

    fn slot(&self, id: u32) -> Option<&Slot<'k>> {
        self.slots.iter().find(|s| s.id == id)
    }

    fn slot_mut(&mut self, id: u32) -> Option<&mut Slot<'k>> {
        self.slots.iter_mut().find(|s| s.id == id)
    }

    /// Checkpoints a running campaign without stopping it.
    pub fn checkpoint(&self, id: u32) -> Option<CampaignSnapshot> {
        self.slot(id)?
            .running
            .as_ref()
            .map(CampaignSnapshot::capture)
    }

    /// Checkpoints a running campaign and removes it from the fleet.
    /// Resume later with [`resume_shared`](Self::resume_shared) or
    /// [`resume_baseline`](Self::resume_baseline).
    pub fn kill(&mut self, id: u32) -> Option<CampaignSnapshot> {
        let slot = self.slot_mut(id)?;
        let snap = slot.running.as_ref().map(CampaignSnapshot::capture)?;
        let pos = self.slots.iter().position(|s| s.id == id).unwrap();
        self.slots.remove(pos);
        Some(snap)
    }

    /// Reorders admission so the campaign furthest behind in virtual
    /// time steps first next round (stable: ties keep spawn order).
    pub fn rebalance(&mut self) {
        self.slots
            .sort_by_key(|s| (s.running.as_ref().map(|r| r.now()), s.id));
    }

    /// Grants each active campaign one quantum of virtual time, in slot
    /// order. Campaigns that reach their deadline are finished into
    /// their report. Returns the number of campaigns still active.
    pub fn run_round(&mut self, quantum: Duration) -> usize {
        let mut active = 0;
        for slot in &mut self.slots {
            let Some(rc) = slot.running.as_mut() else {
                continue;
            };
            let target = rc.now() + quantum;
            while rc.now() < target && rc.step() {}
            if rc.is_done() {
                let rc = slot.running.take().unwrap();
                slot.report = Some(rc.finish());
            } else {
                active += 1;
            }
        }
        active
    }

    /// Runs rounds until every campaign has finished.
    pub fn run_to_completion(&mut self, quantum: Duration) {
        while self.run_round(quantum) > 0 {}
    }

    /// The finished report for a campaign, if it has completed.
    pub fn report(&self, id: u32) -> Option<&CampaignReport> {
        self.slot(id)?.report.as_ref()
    }

    /// Ids of all campaigns currently in the fleet, in admission order.
    pub fn campaign_ids(&self) -> Vec<u32> {
        self.slots.iter().map(|s| s.id).collect()
    }

    /// Fleet-wide metrics: each campaign's snapshot merged under a
    /// `fleet.c<id>.` prefix, plus:
    ///
    /// * `fleet.campaigns` — campaigns in the fleet;
    /// * `fleet.fair_share_spread` — min/mean of per-tag served query
    ///   counts on the shared service (1.0 = perfectly fair, 0.0 = some
    ///   campaign fully starved; only present once queries were served).
    pub fn aggregate(&self) -> MetricsSnapshot {
        let mut agg = MetricsSnapshot::default();
        for slot in &self.slots {
            let prefix = format!("fleet.c{}.", slot.id);
            agg.merge_prefixed(&prefix, &slot.telemetry.snapshot());
        }
        agg.gauges
            .insert("fleet.campaigns".to_string(), self.slots.len() as f64);
        if let Some(spread) = fair_share_spread(&self.service.served_by_tag()) {
            agg.gauges
                .insert("fleet.fair_share_spread".to_string(), spread);
        }
        // Store-level corpus gauges live here, not in per-campaign
        // telemetry: they depend on fleet interleaving (which campaign
        // ingested a shared discovery first), while campaign snapshots
        // must stay pure functions of (kernel, config, seed).
        if let Some(store) = &self.shared_corpus {
            let s = store.stats();
            agg.gauges
                .insert("corpus.store_entries".to_string(), s.entries as f64);
            agg.gauges
                .insert("corpus.indexed_edges".to_string(), s.indexed_edges as f64);
            agg.gauges
                .insert("corpus.index_bytes".to_string(), s.index_bytes as f64);
            agg.gauges
                .insert("corpus.store_dedup_hits".to_string(), s.dedup_hits as f64);
            agg.gauges
                .insert("corpus.pinned".to_string(), s.pinned as f64);
        }
        agg
    }
}

/// min/mean of the per-tag served counts; `None` when nothing was
/// served yet.
pub fn fair_share_spread(served: &BTreeMap<u32, u64>) -> Option<f64> {
    if served.is_empty() {
        return None;
    }
    let total: u64 = served.values().sum();
    if total == 0 {
        return None;
    }
    let mean = total as f64 / served.len() as f64;
    let min = *served.values().min().unwrap() as f64;
    Some(min / mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_share_spread_math() {
        assert_eq!(fair_share_spread(&BTreeMap::new()), None);
        let even: BTreeMap<u32, u64> = [(1, 10), (2, 10)].into_iter().collect();
        assert_eq!(fair_share_spread(&even), Some(1.0));
        let starved: BTreeMap<u32, u64> = [(1, 0), (2, 20)].into_iter().collect();
        assert_eq!(fair_share_spread(&starved), Some(0.0));
        let skew: BTreeMap<u32, u64> = [(1, 5), (2, 15)].into_iter().collect();
        assert_eq!(fair_share_spread(&skew), Some(0.5));
    }
}
