//! Telling apart the operations a VM's host slowed down.
//!
//! On a virtual machine the host can take a vCPU away ("steal" time). On a
//! 2-vCPU VM it came in bursts of a few seconds that took up to a third of
//! the CPUs and stretched `round4` rounds from ≈ 345 ms to ≈ 560 ms; an
//! operation timed through such a burst measures the host, not the
//! program. A background thread samples `/proc/stat` every 250 ms, and an
//! operation counts as disturbed when any sampled interval it overlaps lost
//! more than [`STEAL_LIMIT`] of the CPUs' time. The end-to-end timings are
//! taken over the undisturbed operations, topped up with the least
//! disturbed ones when too few remain for the percentiles.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdc_perfbench::stats;

use crate::common::cpu_ticks;

/// Share of the CPUs' time the host may take in a sampled interval before
/// the operations overlapping it are set aside.
pub const STEAL_LIMIT: f64 = 0.02;
/// Sampling period of `/proc/stat`.
const PERIOD: Duration = Duration::from_millis(250);

/// One `/proc/stat` reading: when, stolen ticks, all ticks.
type Reading = (Instant, u64, u64);

/// Samples the host's stolen CPU time until dropped.
pub struct StealMonitor {
    log: Arc<Mutex<Vec<Reading>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StealMonitor {
    /// Starts sampling now.
    pub fn start() -> Self {
        let log = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (log, stop) = (Arc::clone(&log), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let (steal, total) = cpu_ticks();
                    log.lock().expect("steal log lock").push((Instant::now(), steal, total));
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Self { log, stop, thread: Some(thread) }
    }

    /// The largest share of the CPUs' time stolen in any finished sampling
    /// interval overlapping `[start, end]` (0 before the first closes).
    fn stolen(log: &[Reading], start: Instant, end: Instant) -> f64 {
        let first = log.partition_point(|r| r.0 <= start).saturating_sub(1);
        log[first..]
            .windows(2)
            .take_while(|w| w[0].0 < end)
            .map(|w| {
                let total = w[1].2.saturating_sub(w[0].2);
                stats::ratio(w[1].1.saturating_sub(w[0].1) as f64, total as f64)
            })
            .fold(0.0, f64::max)
    }

    /// How many of `ops` (start, end) overlap no interval that lost more
    /// than [`STEAL_LIMIT`].
    pub fn undisturbed(&self, ops: &[(Instant, Instant)]) -> usize {
        let log = self.log.lock().expect("steal log lock");
        ops.iter().filter(|&&(s, e)| Self::stolen(&log, s, e) <= STEAL_LIMIT).count()
    }

    /// The durations in milliseconds to take percentiles over: every
    /// undisturbed operation, topped up to `min` with the least disturbed
    /// of the rest. Also returns how many operations were set aside.
    pub fn kept_ms(&self, ops: &[(Instant, Instant)], min: usize) -> (Vec<f64>, usize) {
        // Wait for the interval holding the last operation's end to close.
        let last_end = ops.iter().map(|o| o.1).max();
        while last_end.is_some_and(|end| {
            self.log.lock().expect("steal log lock").last().is_none_or(|r| r.0 < end)
        }) {
            std::thread::sleep(PERIOD / 5);
        }
        let log = self.log.lock().expect("steal log lock");
        let mut ranked: Vec<(f64, f64)> = ops
            .iter()
            .map(|&(s, e)| (Self::stolen(&log, s, e), (e - s).as_secs_f64() * 1e3))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let clean = ranked.iter().filter(|r| r.0 <= STEAL_LIMIT).count();
        let keep = clean.max(min).min(ranked.len());
        (ranked[..keep].iter().map(|r| r.1).collect(), ranked.len() - keep)
    }
}

impl Drop for StealMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
