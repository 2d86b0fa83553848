//! Fixtures and measurement helpers shared by the workloads.

use std::error::Error;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdc::core::model::ModelConfig;
use sdc::core::score::contrast_scores;
use sdc::core::{
    ContrastScoringPolicy, ContrastiveModel, ReplayBuffer, StreamTrainer, TrainerConfig,
};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{SynthConfig, SynthDataset};
use sdc::data::Sample;
use sdc::nn::models::EncoderConfig;
use sdc::obs::Span;
use sdc_perfbench::stats::{self, fnv1a};

pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Samples per stream segment, and buffer capacity (= mini-batch).
pub const SEGMENT: usize = 16;
/// Strength of temporal correlation of every input stream.
pub const STC: usize = 8;
/// Times each workload builds its system; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Samples per open-loop scoring request.
pub const REQUEST_SAMPLES: usize = 8;
/// The longest any timed window runs, whatever `--seconds` asks, so a
/// run ends well within 180 s.
pub const MAX_WINDOW: Duration = Duration::from_secs(120);

/// The bench model: the small encoder with a 64→32 projection head.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        encoder: EncoderConfig::small(),
        projection_hidden: 64,
        projection_dim: 32,
        seed: 0,
    }
}

/// Trainer over the bench model, buffer [`SEGMENT`], augmentation seeded
/// from the run's seed.
pub fn trainer_config(seed: u64) -> TrainerConfig {
    TrainerConfig { buffer_size: SEGMENT, model: model_config(), seed, ..TrainerConfig::default() }
}

/// A fresh single-stream trainer running contrast scoring.
pub fn new_trainer(seed: u64) -> StreamTrainer {
    StreamTrainer::new(trainer_config(seed), Box::new(ContrastScoringPolicy::new()))
}

/// Input stream `lane` of a run: 3×12×12 images of the default synthetic
/// world, with its own sampling seed derived from the run's seed.
pub fn stream(seed: u64, lane: u64) -> TemporalStream {
    let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03);
    TemporalStream::new(SynthDataset::new(SynthConfig::default()), STC, mixed)
}

/// The next `count` segments of `len` samples from `stream`.
pub fn segments(
    stream: &mut TemporalStream,
    count: usize,
    len: usize,
) -> BenchResult<Vec<Vec<Sample>>> {
    Ok((0..count).map(|_| stream.next_segment(len)).collect::<Result<_, _>>()?)
}

/// Samples that do not depend on the run's seed: the probes' inputs.
pub fn fixed_samples(n: usize) -> BenchResult<Vec<Sample>> {
    Ok(stream(0x5EED_F1ED, 0).next_segment(n)?)
}

/// Builds the system [`SETUP_REPS`] times, tearing the previous instance
/// down first, and returns the last one with the median set-up time in
/// seconds. The first repetition counts from process start, minus
/// `excluded` (input synthesis, which is not part of set-up).
pub fn timed_setup<T>(
    process_start: Instant,
    excluded: Duration,
    mut build: impl FnMut() -> BenchResult<T>,
) -> BenchResult<(T, f64)> {
    let mut built: Option<T> = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(build()?);
        let took = if rep == 0 {
            process_start.elapsed().saturating_sub(excluded)
        } else {
            start.elapsed()
        };
        times.push(took.as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one repetition");
    Ok((built.expect("built above"), median))
}

/// The timed window: `length`, stretched until `min_ops` operations ran
/// (enough for a p90 with ten samples beyond it) and, up to 1.5 ×
/// `length`, until `min_ops` of them count; never past [`MAX_WINDOW`].
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    length: Duration,
    min_ops: usize,
}

impl Window {
    /// Opens a window now.
    pub fn open(length: Duration, min_ops: usize) -> Self {
        Self { start: Instant::now(), length, min_ops }
    }

    /// Whether another operation belongs in the window after `ops` ran,
    /// `counted` of which count.
    pub fn more(&self, ops: usize, counted: usize) -> bool {
        let elapsed = self.start.elapsed();
        elapsed < MAX_WINDOW
            && (elapsed < self.length
                || ops < self.min_ops
                || (counted < self.min_ops && elapsed < self.length.mul_f64(1.5)))
    }

    /// Wall time since the window opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A child span of `parent`, or an inert one while tracing is off.
pub fn child(name: &'static str, parent: &Span) -> Span {
    match parent.context() {
        Some(ctx) => Span::child(name, ctx),
        None => Span::inert(),
    }
}

/// FNV-1a of every parameter's bits.
pub fn weights_fingerprint(model: &ContrastiveModel) -> u64 {
    fnv1a(model.store.params().iter().flat_map(|p| p.value.data().iter().map(|v| v.to_bits())))
}

/// The run's output fingerprint: FNV-1a over the loss bits of the first
/// `ops` operations, folded with the weights after them. Also keeps that
/// model for the kNN probe.
pub struct Fingerprint {
    ops: usize,
    seen: usize,
    losses: Vec<u32>,
    pub value: Option<u64>,
    pub model: Option<ContrastiveModel>,
}

impl Fingerprint {
    /// A fingerprint taken after `ops` operations.
    pub fn new(ops: usize) -> Self {
        Self { ops, seen: 0, losses: Vec::new(), value: None, model: None }
    }

    /// Records one operation's losses and the model after it.
    pub fn record(&mut self, losses: impl IntoIterator<Item = f32>, model: &ContrastiveModel) {
        if self.value.is_some() {
            return;
        }
        self.losses.extend(losses.into_iter().map(f32::to_bits));
        self.seen += 1;
        if self.seen == self.ops {
            let weights = weights_fingerprint(model);
            self.value = Some(fnv1a(self.losses.iter().copied()) ^ weights.rotate_left(1));
            self.model = Some(model.clone());
        }
    }
}

/// Held-out samples per class that vote in the kNN probe.
const KNN_VOTERS: usize = 40;
/// Held-out samples per class the kNN probe classifies.
const KNN_QUERIES: usize = 60;

/// kNN (k = 5) accuracy of `model`'s features on a fixed held-out set of
/// the default synthetic world: 40 labelled samples per class vote, 60
/// per class are classified. Independent of the run's seed.
pub fn knn_acc(model: &ContrastiveModel) -> BenchResult<f64> {
    let ds = SynthDataset::new(SynthConfig::default());
    let train = ds.balanced_set(KNN_VOTERS, &mut StdRng::seed_from_u64(0x6B6E_6E01))?;
    let test = ds.balanced_set(KNN_QUERIES, &mut StdRng::seed_from_u64(0x6B6E_6E02))?;
    Ok(f64::from(sdc::eval::knn_probe(&mut model.clone(), &train, &test, 5, 64)?))
}

/// CPU time the hypervisor stole and all CPU time since boot, in clock
/// ticks summed over every CPU (`/proc/stat`); zeros where unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set (`VmHWM`) in MiB, 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counters and histogram sums read from the process-global registry and
/// the span collector; [`Counters::since`] turns two readings into a delta.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub jobs: u64,
    pub chunks: u64,
    pub gemm_ns: u64,
    pub pack_hit: u64,
    pub pack_miss: u64,
    pub frame_rx: u64,
    pub frame_tx: u64,
    pub frame_rejected: u64,
    pub trace_overwritten: u64,
}

impl Counters {
    /// Reads the current values.
    pub fn read() -> Self {
        let snap = sdc::obs::global().snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        Self {
            jobs: counter("runtime.jobs"),
            chunks: counter("runtime.chunks"),
            gemm_ns: snap.histograms.get("tensor.gemm").map_or(0, |h| h.sum),
            pack_hit: counter("tensor.gemm.pack_cache.hit"),
            pack_miss: counter("tensor.gemm.pack_cache.miss"),
            frame_rx: counter("node.frame.rx"),
            frame_tx: counter("node.frame.tx"),
            frame_rejected: counter("node.frame.rejected"),
            trace_overwritten: sdc::obs::trace_collector().overwritten(),
        }
    }

    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            jobs: self.jobs - earlier.jobs,
            chunks: self.chunks - earlier.chunks,
            gemm_ns: self.gemm_ns - earlier.gemm_ns,
            pack_hit: self.pack_hit - earlier.pack_hit,
            pack_miss: self.pack_miss - earlier.pack_miss,
            frame_rx: self.frame_rx - earlier.frame_rx,
            frame_tx: self.frame_tx - earlier.frame_tx,
            frame_rejected: self.frame_rejected - earlier.frame_rejected,
            trace_overwritten: self.trace_overwritten - earlier.trace_overwritten,
        }
    }
}

/// Wall-clock parts of one training step composed from its public
/// pieces (milliseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepParts {
    pub total: f64,
    pub replace: f64,
    pub score: f64,
    pub update: f64,
    pub forward: f64,
    pub backward: f64,
}

/// `StreamTrainer::step` composed from its public parts:
/// `ContrastScoringPolicy::replace_with` scoring through
/// `contrast_scores`, then `StreamTrainer::update_on_timed` on the
/// refreshed buffer — bit-identical to `step`, with a span around each
/// call.
pub struct ComposedTrainer {
    trainer: StreamTrainer,
    policy: ContrastScoringPolicy,
    buffer: ReplayBuffer,
}

impl ComposedTrainer {
    /// A fresh composed trainer for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            trainer: new_trainer(seed),
            policy: ContrastScoringPolicy::new(),
            buffer: ReplayBuffer::new(SEGMENT),
        }
    }

    /// The model being trained.
    pub fn model(&self) -> &ContrastiveModel {
        self.trainer.model()
    }

    /// One step: replacement, then one update. Returns the loss and the
    /// step's timing parts.
    pub fn step(&mut self, segment: Vec<Sample>) -> BenchResult<(f32, StepParts)> {
        let root = Span::root("bench.step");
        let start = Instant::now();
        let mut score = Duration::ZERO;
        let replace_span = child("bench.step.replace", &root);
        let model = self.trainer.model_mut();
        self.policy.replace_with(&mut self.buffer, segment, |samples| {
            let _span = child("bench.step.score", &replace_span);
            let t = Instant::now();
            let scores = contrast_scores(model, &samples);
            score += t.elapsed();
            scores
        })?;
        drop(replace_span);
        let replace = start.elapsed();
        let update_start = Instant::now();
        let update_span = child("bench.step.update", &root);
        let (loss, timing) = self.trainer.update_on_timed(&self.buffer.samples())?;
        drop(update_span);
        let update = update_start.elapsed();
        let total = start.elapsed();
        let parts = StepParts {
            total: ms(total),
            replace: ms(replace),
            score: ms(score),
            update: ms(update),
            forward: timing.forward_nanos as f64 / 1e6,
            backward: timing.backward_nanos as f64 / 1e6,
        };
        Ok((loss, parts))
    }
}
