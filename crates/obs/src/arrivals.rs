//! Deterministic open-loop arrival schedules.
//!
//! An open-loop load test issues requests at *externally scheduled*
//! times regardless of how fast the system answers — the discipline
//! under which tail latency is honest (a closed-loop driver slows down
//! with the system and hides queueing delay). The schedule is a pure
//! function of `(process, seed)`: same seed ⇒ same arrival instants.

/// `splitmix64` — a tiny, high-quality, dependency-free PRNG. Used so
/// `sdc-obs` stays free of the workspace's `rand` shim and schedules
/// are reproducible from a single `u64` seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// An inter-arrival process for the open-loop harness. Gaps are in
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps with the
    /// given mean — the classic open-loop baseline.
    Poisson {
        /// Mean gap between consecutive arrivals.
        mean_gap_nanos: u64,
    },
    /// Markov-modulated arrivals: the process alternates between a
    /// *calm* and a *burst* regime (each with exponential gaps at its
    /// own mean), switching regimes per arrival with the given
    /// probabilities. Models the correlated / regime-switching stream
    /// behaviour that uniform drivers hide (cf. the hidden-Markov
    /// correlation model of Fang & Jeong in `PAPERS.md`).
    Bursty {
        /// Mean gap while calm.
        calm_gap_nanos: u64,
        /// Mean gap while bursting (typically ≪ `calm_gap_nanos`).
        burst_gap_nanos: u64,
        /// Per-arrival probability of switching calm → burst.
        enter_burst: f64,
        /// Per-arrival probability of switching burst → calm.
        exit_burst: f64,
    },
    /// Self-similar / long-range-dependent arrivals: the superposition
    /// of `sources` independent on–off sources whose on- and off-period
    /// lengths are Pareto-distributed with tail index `alpha`. For
    /// `1 < alpha < 2` the period distribution is heavy-tailed
    /// (infinite variance), and the aggregate is the classic
    /// Taqqu/Willinger/Sherman construction of self-similar traffic —
    /// burstiness persists across every timescale instead of smoothing
    /// out the way Poisson aggregates do. While *on*, a source emits
    /// with exponential gaps at `on_gap_nanos`; while *off* it is
    /// silent.
    SelfSimilar {
        /// Number of superposed on–off sources (≥ 1).
        sources: u32,
        /// Pareto tail index for on/off period lengths; `1 < α < 2`
        /// gives long-range dependence (1.5 is the usual choice).
        alpha: f64,
        /// Mean gap between emissions while a source is on.
        on_gap_nanos: u64,
        /// Minimum (scale) length of an on-period.
        min_on_nanos: u64,
        /// Minimum (scale) length of an off-period.
        min_off_nanos: u64,
    },
}

impl ArrivalProcess {
    /// Generates `n` absolute arrival offsets (nanoseconds from the
    /// start of the run), non-decreasing. Pure function of
    /// `(self, seed, n)`.
    pub fn schedule(&self, seed: u64, n: usize) -> Vec<u64> {
        if let ArrivalProcess::SelfSimilar {
            sources,
            alpha,
            on_gap_nanos,
            min_on_nanos,
            min_off_nanos,
        } = *self
        {
            return self_similar_schedule(
                seed,
                n,
                sources.max(1),
                alpha,
                on_gap_nanos,
                min_on_nanos,
                min_off_nanos,
            );
        }
        let mut rng = SplitMix64::new(seed);
        let mut now = 0u64;
        let mut in_burst = false;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let gap = match *self {
                ArrivalProcess::Poisson { mean_gap_nanos } => exp_gap(&mut rng, mean_gap_nanos),
                ArrivalProcess::Bursty {
                    calm_gap_nanos,
                    burst_gap_nanos,
                    enter_burst,
                    exit_burst,
                } => {
                    let flip = rng.next_f64();
                    in_burst = if in_burst { flip >= exit_burst } else { flip < enter_burst };
                    exp_gap(&mut rng, if in_burst { burst_gap_nanos } else { calm_gap_nanos })
                }
                ArrivalProcess::SelfSimilar { .. } => unreachable!("handled above"),
            };
            now = now.saturating_add(gap);
            out.push(now);
        }
        out
    }
}

/// One Pareto on–off source: silent through a heavy-tailed off period,
/// then emits exponential-gap arrivals through a heavy-tailed on
/// period, forever. Each source owns its own [`SplitMix64`], so the
/// aggregate is a pure function of `(seed, source index)`.
struct OnOffSource {
    rng: SplitMix64,
    now: u64,
    on_until: u64,
    alpha: f64,
    on_gap_nanos: u64,
    min_on_nanos: u64,
    min_off_nanos: u64,
}

impl OnOffSource {
    fn next_arrival(&mut self) -> u64 {
        loop {
            if self.now < self.on_until {
                let gap = exp_gap(&mut self.rng, self.on_gap_nanos);
                let t = self.now.saturating_add(gap.max(1));
                if t <= self.on_until {
                    self.now = t;
                    return t;
                }
                // The gap carried past the on period: go silent.
                self.now = self.on_until;
            }
            let off = pareto_gap(&mut self.rng, self.alpha, self.min_off_nanos);
            self.now = self.now.saturating_add(off);
            let on = pareto_gap(&mut self.rng, self.alpha, self.min_on_nanos);
            self.on_until = self.now.saturating_add(on);
        }
    }
}

/// The Taqqu/Willinger/Sherman superposition: merge the first `n`
/// arrivals of `sources` independent on–off sources, each seeded from
/// one draw of a seeder PRNG. O(n · sources), deterministic (ties
/// break toward the lower source index).
fn self_similar_schedule(
    seed: u64,
    n: usize,
    sources: u32,
    alpha: f64,
    on_gap_nanos: u64,
    min_on_nanos: u64,
    min_off_nanos: u64,
) -> Vec<u64> {
    let mut seeder = SplitMix64::new(seed);
    let mut heads: Vec<(u64, OnOffSource)> = (0..sources)
        .map(|_| {
            let mut s = OnOffSource {
                rng: SplitMix64::new(seeder.next_u64()),
                now: 0,
                on_until: 0,
                alpha,
                on_gap_nanos: on_gap_nanos.max(1),
                min_on_nanos: min_on_nanos.max(1),
                min_off_nanos: min_off_nanos.max(1),
            };
            let first = s.next_arrival();
            (first, s)
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut idx = 0;
        for j in 1..heads.len() {
            if heads[j].0 < heads[idx].0 {
                idx = j;
            }
        }
        let (t, src) = &mut heads[idx];
        out.push(*t);
        *t = src.next_arrival();
    }
    out
}

/// Pareto-distributed period length via inverse-CDF sampling:
/// `min · (1 − u)^(−1/α)`. Heavy-tailed for small `α` (infinite
/// variance when `α < 2`); saturates on `u64` conversion.
fn pareto_gap(rng: &mut SplitMix64, alpha: f64, min_nanos: u64) -> u64 {
    let u = rng.next_f64();
    ((min_nanos as f64) * (1.0 - u).powf(-1.0 / alpha.max(0.1))) as u64
}

/// Exponentially distributed gap via inverse-CDF sampling.
fn exp_gap(rng: &mut SplitMix64, mean_nanos: u64) -> u64 {
    let u = rng.next_f64();
    (-(1.0 - u).ln() * mean_nanos as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_reproducible_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let p = ArrivalProcess::Poisson { mean_gap_nanos: 1_000_000 };
        assert_eq!(p.schedule(7, 100), p.schedule(7, 100));
        assert_ne!(p.schedule(7, 100), p.schedule(8, 100));
        let b = ArrivalProcess::Bursty {
            calm_gap_nanos: 1_000_000,
            burst_gap_nanos: 50_000,
            enter_burst: 0.1,
            exit_burst: 0.3,
        };
        assert_eq!(b.schedule(7, 100), b.schedule(7, 100));
    }

    #[test]
    fn schedules_are_nondecreasing() {
        let p = ArrivalProcess::Poisson { mean_gap_nanos: 500 };
        let s = p.schedule(3, 1000);
        assert_eq!(s.len(), 1000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn poisson_mean_gap_is_roughly_right() {
        let mean = 1_000_000u64;
        let s = ArrivalProcess::Poisson { mean_gap_nanos: mean }.schedule(11, 20_000);
        let observed = *s.last().unwrap() as f64 / s.len() as f64;
        let err = (observed - mean as f64).abs() / mean as f64;
        assert!(err < 0.05, "observed mean gap {observed}, want ≈ {mean}");
    }

    fn self_similar() -> ArrivalProcess {
        ArrivalProcess::SelfSimilar {
            sources: 8,
            alpha: 1.5,
            on_gap_nanos: 50_000,
            min_on_nanos: 500_000,
            min_off_nanos: 2_000_000,
        }
    }

    #[test]
    fn self_similar_schedule_is_reproducible() {
        let p = self_similar();
        assert_eq!(p.schedule(7, 2000), p.schedule(7, 2000));
        assert_ne!(p.schedule(7, 2000), p.schedule(8, 2000));
        // A prefix of a longer run is the same schedule (pure function
        // of (self, seed), not of n).
        assert_eq!(p.schedule(7, 500), p.schedule(7, 2000)[..500].to_vec());
    }

    #[test]
    fn self_similar_schedule_is_nondecreasing() {
        let s = self_similar().schedule(3, 5000);
        assert_eq!(s.len(), 5000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn self_similar_gaps_are_heavy_tailed() {
        // The defining signature: a handful of enormous silent gaps
        // (every source off at once, Pareto-long) amid dense bursts.
        // Compare the max gap to the median — Poisson's ratio is small
        // and concentrated; the on-off superposition's is huge.
        let s = self_similar().schedule(5, 20_000);
        let mut gaps: Vec<u64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2].max(1);
        let max = *gaps.last().unwrap();
        assert!(max / median > 50, "expected heavy-tailed gaps, max {max} median {median}");
        // And the bursts are real: plenty of sub-mean gaps.
        let short = gaps.iter().filter(|&&g| g < 50_000).count();
        assert!(short > gaps.len() / 4, "expected dense bursts, saw {short}");
    }

    #[test]
    fn bursty_schedule_has_both_regimes() {
        let b = ArrivalProcess::Bursty {
            calm_gap_nanos: 1_000_000,
            burst_gap_nanos: 10_000,
            enter_burst: 0.05,
            exit_burst: 0.2,
        };
        let s = b.schedule(5, 5000);
        let gaps: Vec<u64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let short = gaps.iter().filter(|&&g| g < 100_000).count();
        let long = gaps.iter().filter(|&&g| g > 300_000).count();
        assert!(short > 100, "expected burst gaps, saw {short}");
        assert!(long > 100, "expected calm gaps, saw {long}");
    }
}
