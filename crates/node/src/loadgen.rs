//! Open-loop load harness over the TCP front-end.
//!
//! The serve-layer harness ([`sdc_serve::run_open_loop`]) computes its
//! shed decisions *virtually*, up front, so the service only ever sees
//! guaranteed requests. This harness is the complement: it drives
//! **droppable** requests through a [`NodeClient`] so the sheds are
//! made by **service-side admission control** — the bounded request
//! queue and the batcher's pending-samples bound — and come back over
//! the wire as typed [`RemoteOutcome::Shed`] replies.
//!
//! ## Determinism
//!
//! The arrival *schedule* is a pure function of (process, seed). The
//! service-side shed *decisions* also depend on how fast the batcher
//! drains, except where the admission bound decides alone: with
//! `max_pending: 0` every droppable request is shed, and with ample
//! capacity none is (see `tests/remote_shed.rs`). There, same seed ⇒
//! same shed fingerprint, in process or across the wire
//! ([`RemoteLoadReport::shed_fingerprint`]).

use std::time::{Duration, Instant};

use sdc_data::Sample;
use sdc_obs::ArrivalProcess;
use sdc_serve::ShedCause;

use crate::client::{NodeClient, RemoteOutcome, RemoteTicket};
use crate::error::NodeError;

/// Tuning knobs of one remote open-loop run.
#[derive(Debug, Clone)]
pub struct RemoteLoadConfig {
    /// Seed for the arrival schedule.
    pub seed: u64,
    /// Total droppable requests to submit.
    pub requests: usize,
    /// Number of round-robin stream ids issuing them (`0..streams`).
    pub streams: usize,
    /// The inter-arrival process.
    pub process: ArrivalProcess,
}

impl Default for RemoteLoadConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            requests: 32,
            streams: 4,
            process: ArrivalProcess::Poisson { mean_gap_nanos: 100_000 },
        }
    }
}

/// The typed outcome of one scheduled request, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteDecision {
    /// The request rode a batch and came back scored.
    Scored,
    /// The request was shed by service-side admission control.
    Shed(ShedCause),
}

/// Everything one remote open-loop run produced.
#[derive(Debug, Clone)]
pub struct RemoteLoadReport {
    /// Per-request outcome, index-aligned with the submission order.
    pub outcomes: Vec<RemoteDecision>,
}

impl RemoteLoadReport {
    /// Requests that came back scored.
    pub fn scored(&self) -> u64 {
        self.outcomes.iter().filter(|o| matches!(o, RemoteDecision::Scored)).count() as u64
    }

    /// Requests shed with [`ShedCause::Backlog`].
    pub fn shed_backlog(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RemoteDecision::Shed(ShedCause::Backlog)))
            .count() as u64
    }

    /// Requests shed with [`ShedCause::QueueFull`].
    pub fn shed_queue_full(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RemoteDecision::Shed(ShedCause::QueueFull)))
            .count() as u64
    }

    /// An FNV-1a fold of the outcome sequence — the one-integer
    /// reproducibility check (same seed ⇒ same fingerprint), matching
    /// the convention of
    /// [`LoadReport::decision_fingerprint`](sdc_serve::LoadReport::decision_fingerprint).
    pub fn shed_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for outcome in &self.outcomes {
            let byte = match outcome {
                RemoteDecision::Scored => 1u64,
                RemoteDecision::Shed(ShedCause::QueueFull) => 2u64,
                RemoteDecision::Shed(ShedCause::Backlog) => 3u64,
            };
            h ^= byte;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Drives droppable requests through `client` on an open-loop arrival
/// schedule, then awaits every typed reply.
///
/// `make_samples` produces the payload for the `i`-th request.
///
/// # Errors
///
/// Propagates connection failures and typed server-side errors; sheds
/// are **not** errors here, they are the data.
pub fn run_remote_open_loop(
    client: &NodeClient,
    config: &RemoteLoadConfig,
    mut make_samples: impl FnMut(u64) -> Vec<Sample>,
) -> Result<RemoteLoadReport, NodeError> {
    let schedule = config.process.schedule(config.seed, config.requests);
    let streams = config.streams.max(1);
    let start = Instant::now();
    let mut tickets: Vec<RemoteTicket> = Vec::with_capacity(config.requests);
    for (i, &offset_nanos) in schedule.iter().enumerate() {
        let offset = Duration::from_nanos(offset_nanos);
        if let Some(wait) = (start + offset).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        tickets.push(client.try_submit((i % streams) as u64, make_samples(i as u64))?);
    }
    let mut outcomes = Vec::with_capacity(tickets.len());
    for ticket in tickets {
        outcomes.push(match ticket.wait_outcome()? {
            RemoteOutcome::Scored(_) => RemoteDecision::Scored,
            RemoteOutcome::Shed(cause) => RemoteDecision::Shed(cause),
        });
    }
    Ok(RemoteLoadReport { outcomes })
}
