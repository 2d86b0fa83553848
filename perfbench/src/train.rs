//! `train_step`: a closed loop of one stream through
//! `StreamTrainer::step` (contrast scoring, buffer 16, 16-sample segments).

use std::time::Instant;

use sdc::data::Sample;
use sdc::obs;
use sdc_perfbench::result::Outcome;
use sdc_perfbench::stats::{self, overhead};

use crate::common::{
    self, ms, BenchResult, ComposedTrainer, Counters, Fingerprint, StepParts, Window, SEGMENT,
};
use crate::layers::Layers;
use crate::probes;
use crate::steal::StealMonitor;
use crate::Args;

/// Untimed steps every set-up ends with.
const WARMUP_STEPS: usize = 2;
/// Distinct input segments generated before the window; a window that
/// needs more cycles through them.
const POOL: usize = 600;
/// The step after which the loss/weight fingerprint and the kNN model
/// are taken. Reached even when the window is shorter.
const QUALITY_STEPS: usize = 60;
/// Steps per recording-on / recording-off block of the overhead A/B.
const OBS_BLOCK: usize = 5;

struct Inputs {
    warmup: Vec<Vec<Sample>>,
    pool: Vec<Vec<Sample>>,
}

impl Inputs {
    fn generate(seed: u64) -> BenchResult<Self> {
        let mut source = common::stream(seed, 0);
        Ok(Self {
            warmup: common::segments(&mut source, WARMUP_STEPS, SEGMENT)?,
            pool: common::segments(&mut source, POOL, SEGMENT)?,
        })
    }

    fn segment(&self, i: usize) -> Vec<Sample> {
        self.pool[i % self.pool.len()].clone()
    }
}

pub fn run(args: &Args, process_start: Instant, out: &mut Outcome) -> BenchResult<()> {
    let synth = Instant::now();
    let inputs = Inputs::generate(args.seed)?;
    let excluded = synth.elapsed();
    let (mut trainer, setup_s) = common::timed_setup(process_start, excluded, || {
        let mut trainer = common::new_trainer(args.seed);
        for segment in &inputs.warmup {
            trainer.step(segment.clone())?;
        }
        Ok(trainer)
    })?;
    if args.trace {
        return traced(args, &inputs, trainer, out);
    }

    let monitor = StealMonitor::start();
    let mut ops = Vec::new();
    let mut fingerprint = Fingerprint::new(QUALITY_STEPS);
    let window = Window::open(args.window(), stats::min_samples(0.9));
    let mut i = 0;
    while window.more(ops.len(), monitor.undisturbed(&ops)) {
        let start = Instant::now();
        let report = trainer.step(inputs.segment(i));
        let end = Instant::now();
        i += 1;
        out.attempted += 1;
        match report {
            Ok(r) if r.loss.is_finite() => {
                ops.push((start, end));
                fingerprint.record([r.loss], trainer.model());
            }
            Ok(r) => out.fail_check(format!("step {i}: non-finite loss {}", r.loss)),
            Err(e) => out.fail_check(format!("step {i}: {e}")),
        }
    }
    let wall = window.elapsed().as_secs_f64();
    // Untimed tail: the quality checkpoint is a fixed step count.
    while fingerprint.value.is_none() && i < 10 * QUALITY_STEPS {
        let r = trainer.step(inputs.segment(i))?;
        i += 1;
        if !r.loss.is_finite() {
            out.fail_check(format!("step {i}: non-finite loss {}", r.loss));
        }
        fingerprint.record([r.loss], trainer.model());
    }
    let knn = common::knn_acc(fingerprint.model.as_ref().ok_or("quality step never reached")?)?;
    let excluded = crate::push_closed_loop(out, setup_s, &monitor, &ops, SEGMENT, knn);
    println!(
        "train_step: {} steps in {wall:.2} s, {excluded} set aside for host steal; step_ms_p50/p90 \
         as op_ms; fingerprint {:#018x}",
        ops.len(),
        fingerprint.value.unwrap_or(0)
    );
    Ok(())
}

/// The traced run: `step` (untraced) and the composed step (traced)
/// alternate on two trainers fed the same segments, then a recording
/// on/off A/B on the plain trainer, then the probes.
fn traced(
    args: &Args,
    inputs: &Inputs,
    mut plain: sdc::core::StreamTrainer,
    out: &mut Outcome,
) -> BenchResult<()> {
    let budget = args.window();
    let mut composed = ComposedTrainer::new(args.seed);
    for segment in &inputs.warmup {
        composed.step(segment.clone())?;
    }
    obs::trace_collector().clear();
    let start_counts = Counters::read();

    // Phase 1: untraced `step` vs traced composition, pairwise.
    let phase = Window::open(budget.mul_f64(0.45), QUALITY_STEPS);
    let (mut plain_ms, mut parts) = (Vec::new(), Vec::<StepParts>::new());
    let (mut plain_fp, mut composed_fp) =
        (Fingerprint::new(QUALITY_STEPS), Fingerprint::new(QUALITY_STEPS));
    let mut i = 0;
    while phase.more(i, i) {
        let t = Instant::now();
        let r = plain.step(inputs.segment(i))?;
        plain_ms.push(ms(t.elapsed()));
        plain_fp.record([r.loss], plain.model());
        let (loss, p) = composed.step(inputs.segment(i))?;
        parts.push(p);
        composed_fp.record([loss], composed.model());
        out.attempted += 2;
        for l in [r.loss, loss] {
            if !l.is_finite() {
                out.fail_check(format!("step {i}: non-finite loss {l}"));
            }
        }
        i += 1;
    }
    let counts = Counters::read().since(&start_counts);
    if plain_fp.value.is_none() || plain_fp.value != composed_fp.value {
        out.fail_check(format!(
            "traced fingerprint {:?} differs from untraced {:?}",
            composed_fp.value, plain_fp.value
        ));
    }

    // Phase 2: recording on vs off, alternating blocks on the plain trainer.
    let phase = Window::open(budget.mul_f64(0.4), 4 * OBS_BLOCK);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut j = 0;
    while phase.more(j, j) {
        let recording = (j / OBS_BLOCK).is_multiple_of(2);
        obs::set_enabled(recording);
        let t = Instant::now();
        let r = plain.step(inputs.segment(i + j));
        let took = ms(t.elapsed());
        obs::set_enabled(true);
        let r = r?;
        out.attempted += 1;
        if !r.loss.is_finite() {
            out.fail_check(format!("obs A/B step {j}: non-finite loss {}", r.loss));
        }
        if recording {
            on.push(took)
        } else {
            off.push(took)
        }
        j += 1;
    }

    let mut layers = Layers::default();
    layers.set_steps(&parts);
    layers.set_counts(&counts, 2 * i);
    layers.obs_overhead_frac = overhead(&on, &off);
    layers.trace_overhead_frac =
        overhead(&parts.iter().map(|p| p.total).collect::<Vec<_>>(), &plain_ms);
    probes::scoring_shape(&mut layers, out)?;
    probes::idle(&mut layers, out, true)?;
    layers.trace_overwritten = Counters::read().since(&start_counts).trace_overwritten as f64;
    layers.push_into(out);
    println!(
        "train_step traced: {i} step pairs, {} + {} obs A/B steps, fingerprint {:#018x}",
        on.len(),
        off.len(),
        plain_fp.value.unwrap_or(0)
    );
    Ok(())
}
