//! The open-loop load driver.
//!
//! A **closed-loop** driver (submit, wait, submit …) self-throttles:
//! when the service slows down, the driver slows down with it, and the
//! measured latency flatters the system (coordinated omission). This
//! driver is **open-loop**: arrival times are drawn up front from a
//! seeded [`ArrivalProcess`] and requests are issued *on schedule*
//! whether or not earlier ones have been answered, so queueing delay
//! under overload shows up in the latencies instead of vanishing into
//! the generator.
//!
//! Every request is **droppable**, so the target's own admission
//! control decides every shed: a full request queue
//! ([`ShedCause::QueueFull`]) or the batcher's pending-samples bound
//! ([`ShedCause::Backlog`]). The same driver runs in process against a
//! [`ScoringService`] and across the wire against a `NodeClient`
//! (sdc-node implements [`ScoreTarget`] for it).
//!
//! ## Determinism
//!
//! The arrival **schedule** is `process.schedule(seed, requests)`, a
//! pure function of the seed. Sheds follow wall-clock queue pressure,
//! except where the admission bound decides alone: with
//! `max_pending: 0` every request is shed, and with ample capacity none
//! is. There the outcome sequence, and so [`LoadReport::fingerprint`],
//! reproduces run to run. Scores are bit-identical to direct scoring
//! however the requests were batched.

use std::time::{Duration, Instant};

use sdc_data::{Sample, StreamId};
use sdc_obs::ArrivalProcess;
use sdc_tensor::{Result, TensorError};

use crate::service::{ScoreOutcome, ScoreTicket, ScoringService, ShedCause, SubmitOpts};

/// Something [`run_open_loop`] can submit droppable scoring requests to.
pub trait ScoreTarget {
    /// An in-flight request.
    type Ticket;
    /// What submitting or awaiting a request can fail with.
    type Error;

    /// Submits `samples` for `stream` as a droppable request without
    /// waiting for the reply.
    ///
    /// # Errors
    ///
    /// Reports the target being unreachable.
    fn submit_droppable(
        &self,
        stream: StreamId,
        samples: Vec<Sample>,
    ) -> std::result::Result<Self::Ticket, Self::Error>;

    /// Blocks until the request is answered: its scores, or the cause
    /// it was shed with.
    ///
    /// # Errors
    ///
    /// Reports scoring failures and the target terminating first.
    fn outcome(ticket: Self::Ticket) -> std::result::Result<ScoreOutcome, Self::Error>;
}

impl ScoreTarget for ScoringService {
    type Ticket = ScoreTicket;
    type Error = TensorError;

    fn submit_droppable(&self, stream: StreamId, samples: Vec<Sample>) -> Result<ScoreTicket> {
        self.client(stream).submit(samples, SubmitOpts { droppable: true, trace: None })
    }

    fn outcome(ticket: ScoreTicket) -> Result<ScoreOutcome> {
        ticket.wait_outcome()
    }
}

/// One open-loop run: how many requests, from how many streams, on
/// which seeded schedule.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Seed of the arrival schedule.
    pub seed: u64,
    /// Requests to submit.
    pub requests: usize,
    /// Request `i` comes from stream `i % streams`.
    pub streams: usize,
    /// The inter-arrival process (Poisson, bursty or self-similar).
    pub process: ArrivalProcess,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            requests: 32,
            streams: 4,
            process: ArrivalProcess::Poisson { mean_gap_nanos: 100_000 },
        }
    }
}

/// Everything one open-loop run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Arrival offsets (nanoseconds from run start), one per request.
    pub schedule: Vec<u64>,
    /// Each request's outcome, index-aligned with `schedule`. Scored
    /// outcomes keep their scores.
    pub outcomes: Vec<ScoreOutcome>,
}

impl LoadReport {
    /// Requests that came back scored.
    pub fn scored(&self) -> u64 {
        self.outcomes.iter().filter(|o| matches!(o, ScoreOutcome::Scored(_))).count() as u64
    }

    /// Requests shed with `cause`.
    pub fn shed(&self, cause: ShedCause) -> u64 {
        self.outcomes.iter().filter(|&o| *o == ScoreOutcome::Shed(cause)).count() as u64
    }

    /// Fraction of requests shed, for either cause (`0.0..=1.0`).
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            (self.outcomes.len() as u64 - self.scored()) as f64 / self.outcomes.len() as f64
        }
    }

    /// The schedule's offered load in requests per second (arrival
    /// count over the scheduled span) — the x-axis of a shed-rate
    /// curve.
    pub fn offered_rps(&self) -> f64 {
        match self.schedule.last() {
            Some(&end) if end > 0 => self.schedule.len() as f64 * 1e9 / end as f64,
            _ => 0.0,
        }
    }

    /// An FNV-1a fold of the outcome kinds (scored, queue-full,
    /// backlog) in request order: two runs compare in one integer.
    pub fn fingerprint(&self) -> u64 {
        self.outcomes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, outcome| {
            let kind = match outcome {
                ScoreOutcome::Scored(_) => 1,
                ScoreOutcome::Shed(ShedCause::QueueFull) => 2,
                ScoreOutcome::Shed(ShedCause::Backlog) => 3,
            };
            (h ^ kind).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// Submits `config.requests` droppable requests to `target` on the
/// seeded schedule, then awaits every reply.
///
/// The driver sleeps to each due time and submits request `i` for
/// stream `i % streams` with payload `make_samples(i)`, whether or not
/// earlier requests have been answered.
///
/// # Errors
///
/// Propagates the target's submit and reply failures; sheds are not
/// errors, they are outcomes.
pub fn run_open_loop<T: ScoreTarget>(
    target: &T,
    config: &LoadConfig,
    mut make_samples: impl FnMut(u64) -> Vec<Sample>,
) -> std::result::Result<LoadReport, T::Error> {
    let schedule = config.process.schedule(config.seed, config.requests);
    let streams = config.streams.max(1) as u64;
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(schedule.len());
    for (i, &offset) in (0u64..).zip(&schedule) {
        let due = start + Duration::from_nanos(offset);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        tickets.push(target.submit_droppable(i % streams, make_samples(i))?);
    }
    let outcomes = tickets.into_iter().map(T::outcome).collect::<std::result::Result<_, _>>()?;
    Ok(LoadReport { schedule, outcomes })
}

/// Formats a shed-rate vs offered-load sweep as a fixed-width table,
/// one row per report in the caller's order.
pub fn shed_rate_table(reports: &[LoadReport]) -> String {
    let mut out =
        String::from("offered_rps    issued    scored  shed_qfull  shed_backlog  shed_rate\n");
    for r in reports {
        out.push_str(&format!(
            "{:>11.0} {:>9} {:>9} {:>11} {:>13} {:>9.3}\n",
            r.offered_rps(),
            r.outcomes.len(),
            r.scored(),
            r.shed(ShedCause::QueueFull),
            r.shed(ShedCause::Backlog),
            r.shed_rate(),
        ));
    }
    out
}
