//! # sdc-serve
//!
//! The batched scoring **service layer** of the *Selective Data
//! Contrast* stack — the "millions of users" direction from the
//! roadmap, built on the observation that the `sdc-runtime` worker
//! pool makes scoring batch size nearly free while
//! [`ReplacementPolicy::replace`](sdc_core::ReplacementPolicy::replace)
//! scores one stream segment at a time.
//!
//! Three pieces, each usable on its own:
//!
//! * [`ScoringService`] / [`ScoringClient`] — an async-free,
//!   thread-based request coalescer: many concurrent streams submit
//!   scoring requests over bounded channels; a batcher thread scores
//!   what is pending whenever it is free, in batches of at most
//!   [`ServeConfig::max_batch`] samples, through one shared model via
//!   [`contrast_scores_shared`](sdc_core::contrast_scores_shared), and
//!   routes score slices back to per-request reply channels.
//! * [`ReplicaSet`] — N scoring replicas (independent batcher threads
//!   sharing one published model snapshot) behind the pure
//!   [`replica_for`] shard rule, so scoring throughput scales past one
//!   core's forward pass ([`ServeConfig::replicas`]).
//! * [`ShardedBuffer`] — per-stream replay-buffer + policy shards, so
//!   independent streams never contend on one buffer.
//! * [`MultiStreamTrainer`] — the round driver training one shared
//!   model against many streams: concurrent shard replacement through
//!   the service, serial per-shard updates, then a model snapshot
//!   published back to the service.
//! * [`loadgen`] — the seeded **open-loop load driver**
//!   ([`run_open_loop`]): Poisson, bursty or self-similar arrival
//!   schedules drive droppable requests at any [`ScoreTarget`] (a
//!   service in process, or a remote node), and the target's own
//!   admission control decides every shed.
//!
//! ## Observability & admission control
//!
//! The service is instrumented with `sdc-obs`: every answered request
//! records its enqueue → reply latency into a per-service histogram
//! ([`ServeStats::latency`]), and
//! [`ScoringService::stats_snapshot`] reads it all live without
//! quiescing the batcher. Overload is bounded, never buffered:
//! droppable requests ([`SubmitOpts::droppable`]) are shed with a
//! typed [`ShedCause`] when the request queue is full or the batcher's
//! pending-samples bound ([`ServeConfig::max_pending`]) is reached.
//!
//! ## Determinism contract
//!
//! Batch *results* are bit-identical to direct scoring regardless of
//! coalescing: every eval-mode op is row-independent and chunking is
//! size-derived, so a sample's score does not depend on which batch it
//! rode in or on `SDC_THREADS`. Batch *composition* is not part of the
//! contract: the batcher scores what is pending when it is free, so
//! which requests share a batch follows arrival timing and differs run
//! to run. A single-stream [`MultiStreamTrainer`] reproduces the direct
//! [`StreamTrainer::step`](sdc_core::StreamTrainer::step) path
//! bit-for-bit (`tests/equivalence.rs`).

#![deny(missing_docs)]

mod driver;
pub mod loadgen;
mod replica;
mod service;
mod shard;
mod snapshot;

pub use driver::{MultiStreamTrainer, RoundReport};
pub use loadgen::{run_open_loop, shed_rate_table, LoadConfig, LoadReport, ScoreTarget};
pub use replica::{replica_for, ReplicaSet};
pub use service::{
    ScoreOutcome, ScoreTicket, ScoringClient, ScoringService, ServeConfig, ServeStats, ShedCause,
    StreamLatency, SubmitOpts,
};
pub use shard::{ShardedBuffer, StreamShard};
pub use snapshot::NodeSnapshot;
