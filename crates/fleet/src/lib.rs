//! Fleet orchestration: run many campaigns at once, checkpoint and
//! resume them bit-identically, and share one inference service fairly.
//!
//! Real Snowplow deployments fuzz many kernel configurations in
//! parallel against a single GPU serving tier. This crate reproduces
//! that shape on the simulated stack:
//!
//! * [`CampaignSnapshot`] — a versioned, serializable checkpoint of a
//!   mid-run campaign (config + deterministic loop state + telemetry).
//!   `capture → to_bytes → from_bytes → resume` yields a campaign whose
//!   final report and metrics are byte-identical to never having been
//!   interrupted;
//! * [`FleetScheduler`] — cooperative round-robin multiplexing of N
//!   campaigns over one shared [`InferenceService`], with per-campaign
//!   query tagging, kill/resume/rebalance mid-run, and `fleet.*`
//!   aggregate telemetry.
//!
//! [`InferenceService`]: snowplow_pmm::server::InferenceService

pub mod codec;
pub mod scheduler;
pub mod snapshot;

pub use scheduler::{fair_share_spread, FleetScheduler};
pub use snapshot::{CampaignSnapshot, UnsupportedVersion};
