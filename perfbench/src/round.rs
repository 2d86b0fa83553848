//! `round4`: a closed loop of `MultiStreamTrainer::run_round` over four
//! streams (buffer 16, 16-sample segments) on the default serve config.

use std::time::Instant;

use sdc::core::ContrastScoringPolicy;
use sdc::data::{Sample, StreamId};
use sdc::obs::{self, Span};
use sdc::serve::{MultiStreamTrainer, RoundReport, ServeConfig};
use sdc_perfbench::result::Outcome;
use sdc_perfbench::stats::{self, overhead};

use crate::common::{self, child, ms, BenchResult, Counters, Fingerprint, Window, SEGMENT};
use crate::layers::{Layers, ServeWindow};
use crate::probes;
use crate::steal::StealMonitor;
use crate::Args;

/// Streams per round.
const STREAMS: usize = 4;
/// Untimed rounds every set-up ends with.
const WARMUP_ROUNDS: usize = 2;
/// Distinct rounds of input generated before the window.
const POOL: usize = 160;
/// The round after which the fingerprint and the kNN model are taken.
const QUALITY_ROUNDS: usize = 12;
/// Rounds per recording-on / recording-off block of the overhead A/B.
const OBS_BLOCK: usize = 3;

type Round = Vec<(StreamId, Vec<Sample>)>;

fn generate(seed: u64, rounds: usize) -> BenchResult<Vec<Round>> {
    let mut sources: Vec<_> = (0..STREAMS as u64).map(|lane| common::stream(seed, lane)).collect();
    (0..rounds)
        .map(|_| {
            sources
                .iter_mut()
                .enumerate()
                .map(|(id, s)| Ok((id as StreamId, s.next_segment(SEGMENT)?)))
                .collect()
        })
        .collect()
}

fn new_multi_trainer(seed: u64) -> MultiStreamTrainer {
    MultiStreamTrainer::new(
        common::trainer_config(seed),
        ContrastScoringPolicy::new(),
        ServeConfig::default(),
    )
}

fn losses(reports: &[RoundReport]) -> impl Iterator<Item = f32> + '_ {
    reports.iter().map(|r| r.loss)
}

/// Checks one round's reports: one per stream, every loss finite.
fn check(reports: &[RoundReport], round: usize, out: &mut Outcome) {
    if reports.len() != STREAMS {
        out.fail_check(format!("round {round}: {} reports for {STREAMS} streams", reports.len()));
    }
    for r in reports {
        if !r.loss.is_finite() {
            out.fail_check(format!("round {round}, stream {}: non-finite loss", r.stream));
        }
    }
}

pub fn run(args: &Args, process_start: Instant, out: &mut Outcome) -> BenchResult<()> {
    let synth = Instant::now();
    let mut warmup = generate(args.seed, WARMUP_ROUNDS + POOL)?;
    let pool = warmup.split_off(WARMUP_ROUNDS);
    let excluded = synth.elapsed();
    let build = || -> BenchResult<MultiStreamTrainer> {
        let mut multi = new_multi_trainer(args.seed);
        for round in &warmup {
            multi.run_round(round.clone())?;
        }
        Ok(multi)
    };
    let (mut multi, setup_s) = common::timed_setup(process_start, excluded, build)?;
    let round_input = |i: usize| pool[i % pool.len()].clone();
    if args.trace {
        let mut twin = build()?;
        return traced(args, &round_input, multi, &mut twin, out);
    }

    let monitor = StealMonitor::start();
    let mut ops = Vec::new();
    let mut fingerprint = Fingerprint::new(QUALITY_ROUNDS);
    let window = Window::open(args.window(), stats::min_samples(0.9));
    let mut i = 0;
    while window.more(ops.len(), monitor.undisturbed(&ops)) {
        let start = Instant::now();
        let reports = multi.run_round(round_input(i));
        let end = Instant::now();
        i += 1;
        out.attempted += 1;
        match reports {
            Ok(reports) => {
                ops.push((start, end));
                check(&reports, i, out);
                fingerprint.record(losses(&reports), multi.trainer().model());
            }
            Err(e) => out.fail_check(format!("round {i}: {e}")),
        }
    }
    let wall = window.elapsed().as_secs_f64();
    while fingerprint.value.is_none() && i < 10 * QUALITY_ROUNDS {
        let reports = multi.run_round(round_input(i))?;
        i += 1;
        check(&reports, i, out);
        fingerprint.record(losses(&reports), multi.trainer().model());
    }
    let knn = common::knn_acc(fingerprint.model.as_ref().ok_or("quality round never reached")?)?;
    let excluded = crate::push_closed_loop(out, setup_s, &monitor, &ops, STREAMS * SEGMENT, knn);
    println!(
        "round4: {} rounds in {wall:.2} s, {excluded} set aside for host steal; step_ms_p50/p90 \
         as op_ms; fingerprint {:#018x}",
        ops.len(),
        fingerprint.value.unwrap_or(0)
    );
    Ok(())
}

/// The traced run: untraced rounds on `plain` alternate with traced
/// rounds (plus a timed publish) on `twin`, both fed the same segments;
/// then a recording on/off A/B on `plain`; then the probes.
fn traced(
    args: &Args,
    round_input: &dyn Fn(usize) -> Round,
    mut plain: MultiStreamTrainer,
    twin: &mut MultiStreamTrainer,
    out: &mut Outcome,
) -> BenchResult<()> {
    let budget = args.window();
    obs::trace_collector().clear();
    let start_counts = Counters::read();
    let serve_before = ServeWindow::read(plain.service());

    let phase = Window::open(budget.mul_f64(0.45), QUALITY_ROUNDS);
    let (mut plain_ms, mut traced_ms, mut publish_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_fp, mut twin_fp) =
        (Fingerprint::new(QUALITY_ROUNDS), Fingerprint::new(QUALITY_ROUNDS));
    let mut i = 0;
    while phase.more(i, i) {
        let t = Instant::now();
        let reports = plain.run_round(round_input(i))?;
        plain_ms.push(ms(t.elapsed()));
        check(&reports, i, out);
        plain_fp.record(losses(&reports), plain.trainer().model());

        let root = Span::root("bench.round");
        let span = child("bench.round.run", &root);
        let t = Instant::now();
        let reports = twin.run_round(round_input(i))?;
        traced_ms.push(ms(t.elapsed()));
        drop(span);
        let span = child("bench.round.publish", &root);
        let t = Instant::now();
        twin.replica_set().swap_model(twin.trainer().model().clone());
        publish_ms.push(ms(t.elapsed()));
        drop(span);
        drop(root);
        check(&reports, i, out);
        twin_fp.record(losses(&reports), twin.trainer().model());
        out.attempted += 2;
        i += 1;
    }
    let counts = Counters::read().since(&start_counts);
    let serve_after = ServeWindow::read(plain.service());
    if plain_fp.value.is_none() || plain_fp.value != twin_fp.value {
        out.fail_check(format!(
            "traced fingerprint {:?} differs from untraced {:?}",
            twin_fp.value, plain_fp.value
        ));
    }

    let phase = Window::open(budget.mul_f64(0.4), 4 * OBS_BLOCK);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut j = 0;
    while phase.more(j, j) {
        let recording = (j / OBS_BLOCK).is_multiple_of(2);
        obs::set_enabled(recording);
        let t = Instant::now();
        let reports = plain.run_round(round_input(i + j));
        let took = ms(t.elapsed());
        obs::set_enabled(true);
        check(&reports?, i + j, out);
        out.attempted += 1;
        if recording {
            on.push(took)
        } else {
            off.push(took)
        }
        j += 1;
    }

    let mut layers = Layers::default();
    layers.set_steps(&probes::steps(args.seed)?);
    layers.set_counts(&counts, 2 * i);
    layers.set_serve(&serve_before, &serve_after, i);
    layers.publish_ms = stats::median(&publish_ms).unwrap_or(0.0);
    layers.obs_overhead_frac = overhead(&on, &off);
    layers.trace_overhead_frac = overhead(&traced_ms, &plain_ms);
    probes::scoring_shape(&mut layers, out)?;
    probes::idle(&mut layers, out, false)?;
    layers.trace_overwritten = Counters::read().since(&start_counts).trace_overwritten as f64;
    layers.push_into(out);
    println!(
        "round4 traced: {i} round pairs, {} + {} obs A/B rounds, fingerprint {:#018x}",
        on.len(),
        off.len(),
        plain_fp.value.unwrap_or(0)
    );
    Ok(())
}
