//! `perfbench`: the SDC stack's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <train_step|round4|remote_score> --seed <n>
//!           --seconds <n> --trace <0|1> [--rev <revision>] [--out <dir>]
//! ```
//!
//! Prints a human-readable report, writes the stamped result (and, when
//! traced, a Chrome-trace file) under `--out`, and prints the result line
//! last. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. Normally started through `run.py`, which builds it and
//! fixes `SDC_THREADS`.

mod common;
mod layers;
mod probes;
mod remote;
mod round;
mod steal;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sdc_perfbench::result::{Outcome, Stamp};
use sdc_perfbench::stats::{min_samples, percentile, ratio};

use crate::common::{BenchResult, MAX_WINDOW};
use crate::steal::StealMonitor;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
    out_dir: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
            rev: "unknown".into(),
            out_dir: PathBuf::from("perfbench/out"),
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--rev" => args.rev = value,
                "--out" => args.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }

    /// The requested measuring time, capped at [`MAX_WINDOW`].
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds).min(MAX_WINDOW)
    }
}

/// Appends the end-to-end metrics every workload reports (all but
/// `peak_rss_mb`, which is read at exit). `op_ms` is one step, one round,
/// or one request from its due time to its reply.
pub fn push_e2e(out: &mut Outcome, setup_s: f64, op_ms: &[f64], samples_per_s: f64, knn: f64) {
    out.push("setup_s", "s", setup_s);
    for (name, q) in [("op_ms_p50", 0.5), ("op_ms_p90", 0.9)] {
        let value = percentile(op_ms, q).unwrap_or_else(|| {
            out.fail_check(format!("{name}: {} samples leave fewer than 10 beyond", op_ms.len()));
            0.0
        });
        out.push(name, "ms", value);
    }
    out.push("samples_per_s", "samples/s", samples_per_s);
    out.push("knn_acc", "frac", knn);
}

/// [`push_e2e`] for a closed loop: the timings of the operations (start,
/// end) the host did not disturb, and samples per second of their summed
/// time. Returns how many operations were set aside.
pub fn push_closed_loop(
    out: &mut Outcome,
    setup_s: f64,
    monitor: &StealMonitor,
    ops: &[(Instant, Instant)],
    samples_per_op: usize,
    knn: f64,
) -> usize {
    let (kept, excluded) = monitor.kept_ms(ops, min_samples(0.9));
    let seconds = kept.iter().sum::<f64>() / 1e3;
    push_e2e(out, setup_s, &kept, ratio((kept.len() * samples_per_op) as f64, seconds), knn);
    excluded
}

fn run(args: &Args, process_start: Instant) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "train_step" => train::run(args, process_start, &mut out)?,
        "round4" => round::run(args, process_start, &mut out)?,
        "remote_score" => remote::run(args, process_start, &mut out)?,
        other => return Err(format!("unknown workload {other:?}").into()),
    }
    if args.trace {
        for (name, what) in [
            ("obs.trace.overwritten", "the span ring overwrote spans during the traced run"),
            ("node.frame.rejected", "the node rejected frames"),
        ] {
            if out.metrics.iter().any(|m| m.name == name && m.value != 0.0) {
                out.fail_check(what);
            }
        }
    } else {
        out.push("peak_rss_mb", "MB", common::peak_rss_mb());
    }
    Ok(out)
}

fn write_files(args: &Args, stamp: &Stamp, steal_frac: f64, out: &Outcome) -> BenchResult<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let base = format!("{}-seed{}", args.workload, args.seed);
    if args.trace {
        let spans = sdc::obs::trace_collector().snapshot();
        let path = args.out_dir.join(format!("{base}.trace.json"));
        std::fs::write(&path, sdc::obs::chrome_trace_json(&spans))?;
        println!("chrome trace: {} ({} spans)", path.display(), spans.len());
    }
    let path = args.out_dir.join(format!("{base}-trace{}.json", u8::from(args.trace)));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"stamp\": {}, \
         \"steal_frac\": {steal_frac}, \"result\": {}}}\n",
        args.workload,
        args.seed,
        u8::from(args.trace),
        stamp.to_json(),
        out.to_json()
    );
    std::fs::write(&path, body)?;
    println!("result: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let ticks_start = common::cpu_ticks();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args, process_start) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let stamp = Stamp {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        isa: sdc::simd::active_isa().name().to_string(),
        threads: sdc::runtime::current_threads(),
        rev: args.rev.clone(),
    };
    println!("stamp: {}", stamp.to_json());
    // A VM's host can take its CPUs away; such a run's times are not
    // comparable, so the share of CPU time stolen is reported with it.
    let ticks_end = common::cpu_ticks();
    let steal_frac = ratio(
        ticks_end.0.saturating_sub(ticks_start.0) as f64,
        ticks_end.1.saturating_sub(ticks_start.1) as f64,
    );
    println!("host steal: {:.2}% of CPU time during the run", steal_frac * 100.0);
    for m in &out.metrics {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<32} {:>14.4} frac ({} of {} operations)",
        "fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for failure in &out.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    if let Err(e) = write_files(&args, &stamp, steal_frac, &out) {
        eprintln!("perfbench: cannot write results: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
