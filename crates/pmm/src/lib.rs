//! PMM — the Program Mutation Model (the paper's core contribution).
//!
//! This crate implements the full learned-localizer pipeline of §3:
//!
//! * [`graph`] — the argument-mutation *query graph* (§3.2): the base
//!   test, its kernel coverage, the one-hop alternative-path frontier, and
//!   the desired targets, joined into a single typed graph with explicit
//!   kernel↔user context-switch edges;
//! * [`dataset`] — the §3.1 data pipeline: brute-force discovery of
//!   successful argument mutations from VM snapshots, merging of argument
//!   sets by identical new coverage, noisy target sampling, and the
//!   per-block popularity cap;
//! * [`model`] — the PMM architecture (§3.3): a token encoder over each
//!   block's synthetic assembly, typed node/edge embeddings, relational
//!   message passing, and a per-argument-node binary head;
//! * [`train`] — BCE training with Adam, held-out evaluation with the
//!   paper's per-example precision/recall/F1/Jaccard (§5.1–5.2), and a
//!   small hyperparameter search;
//! * [`server`] — an asynchronous inference service with a worker pool
//!   (the torchserve + goroutine-pool analogue of §3.4/§4) plus latency
//!   and throughput accounting for §5.5.
//!
//! ```
//! use snowplow_kernel::{Kernel, KernelVersion, Vm};
//! use snowplow_pmm::graph::QueryGraph;
//! use snowplow_prog::gen::Generator;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let kernel = Kernel::build(KernelVersion::V6_8);
//! let mut rng = StdRng::seed_from_u64(5);
//! let prog = Generator::new(kernel.registry()).generate(&mut rng, 4);
//! let mut vm = Vm::new(&kernel);
//! let exec = vm.execute(&prog);
//! let covered = exec.coverage();
//! let frontier = kernel.cfg().alternative_entries(&covered);
//! let graph = QueryGraph::build(&kernel, &prog, &exec, &frontier[..frontier.len().min(4)]);
//! assert!(graph.candidate_count() > 0);
//! ```

pub mod dataset;
pub mod graph;
pub mod model;
pub mod server;
pub mod train;

pub use dataset::{Dataset, DatasetConfig, Sample};
pub use graph::{EdgeType, NodeKind, QueryGraph};
pub use model::{Pmm, PmmConfig};
pub use server::{
    InferenceClient, InferenceService, InferenceStats, ServeError, ServiceClient, Ticket, MAX_BATCH,
};
pub use train::{EvalReport, TrainConfig, Trainer};
