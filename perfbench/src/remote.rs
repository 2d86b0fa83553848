//! `remote_score`: an open loop of seeded Poisson arrivals (40
//! requests/s) of droppable 8-sample scoring requests, round-robin over
//! four stream ids, on one loopback `NodeClient` connection to a
//! `NodeServer` over the default replica set. One sender thread and one
//! reply waiter; latency runs from each request's due time.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdc::core::score::contrast_scores_shared;
use sdc::core::ContrastiveModel;
use sdc::data::Sample;
use sdc::node::{NodeClient, NodeError, NodeServer, RemoteOutcome, RemoteTicket};
use sdc::obs::{self, ArrivalProcess, Span};
use sdc::serve::{ReplicaSet, ServeConfig};
use sdc_perfbench::result::Outcome;
use sdc_perfbench::stats::{self, overhead};

use crate::common::{self, ms, BenchResult, Counters, REQUEST_SAMPLES};
use crate::layers::{Layers, ServeWindow};
use crate::probes::{self, bits};
use crate::steal::StealMonitor;
use crate::Args;

/// Stream ids the requests cycle through.
const STREAMS: u64 = 4;
/// Mean gap between arrivals: 25 ms, an offered rate of 40 requests/s.
const MEAN_GAP_NANOS: u64 = 25_000_000;
/// Distinct request payloads generated before the window.
const POOL: usize = 512;
/// Every this-many-th reply is kept and checked bitwise after the window.
const CHECK_EVERY: usize = 16;
/// Closed-loop requests every set-up ends with.
const WARMUP_REQUESTS: usize = 8;
/// Length of one block of the traced run's plain / traced / recording-off
/// rotation.
const BLOCK: Duration = Duration::from_secs(1);
/// Longest traced window: about eight spans per request must fit the
/// span ring without wrapping.
const MAX_TRACED: Duration = Duration::from_secs(40);

/// A started node and one connection to it. Fields drop in order: the
/// connection closes before the server stops, and the server before its
/// replicas.
struct Node {
    client: NodeClient,
    _server: NodeServer,
    replicas: Arc<ReplicaSet>,
}

fn start_node(model: &ContrastiveModel, warmup: &[Vec<Sample>]) -> BenchResult<Node> {
    let replicas = Arc::new(ReplicaSet::start(model.clone(), ServeConfig::default()));
    let server = NodeServer::start(Arc::clone(&replicas))?;
    let client = NodeClient::connect(server.addr())?;
    for (i, payload) in warmup.iter().enumerate() {
        client.score(i as u64 % STREAMS, payload.clone())?;
    }
    Ok(Node { client, _server: server, replicas })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No benchmark span, recording on (the deployment default).
    Plain,
    /// A `bench.request` span from submit to reply, recording on.
    Traced,
    /// No benchmark span, `sdc_obs::set_enabled(false)`.
    Off,
}

struct Sent {
    index: usize,
    mode: Mode,
    due: Instant,
    ticket: RemoteTicket,
    span: Option<Span>,
}

struct Record {
    index: usize,
    mode: Mode,
    due: Instant,
    done: Instant,
    reply: Result<RemoteOutcome, NodeError>,
}

struct LoopResult {
    records: Vec<Record>,
    submit_errors: Vec<String>,
    lag_ms_max: f64,
    wall: Duration,
}

/// Due offsets of a run's requests: N = `window / 25 ms` seeded Poisson
/// arrivals (at least enough for a p90 with ten samples beyond it),
/// rescaled so the (N+1)-th would fall at `N × 25 ms` — every seed offers
/// exactly 40 requests/s over the window.
fn arrivals(seed: u64, window: Duration) -> Vec<u64> {
    let n =
        ((window.as_nanos() / u128::from(MEAN_GAP_NANOS)) as usize).max(stats::min_samples(0.9));
    let raw = ArrivalProcess::Poisson { mean_gap_nanos: MEAN_GAP_NANOS }.schedule(seed, n + 1);
    let scale = (n as f64 * MEAN_GAP_NANOS as f64) / raw[n].max(1) as f64;
    raw[..n].iter().map(|&t| (t as f64 * scale) as u64).collect()
}

/// Sends every request at its due time, in the mode `mode_of(due offset)`
/// picks, and collects every reply.
fn open_loop(
    client: &NodeClient,
    schedule: &[u64],
    payloads: &[Vec<Sample>],
    mode_of: impl Fn(Duration) -> Mode,
) -> LoopResult {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut records = Vec::new();
            let mut last = start;
            for sent in rx {
                let reply = sent.ticket.wait_outcome();
                last = Instant::now();
                drop(sent.span);
                records.push(Record {
                    index: sent.index,
                    mode: sent.mode,
                    due: sent.due,
                    done: last,
                    reply,
                });
            }
            (records, last - start)
        });
        let mut submit_errors = Vec::new();
        let mut lag_ms_max: f64 = 0.0;
        for (index, &offset) in schedule.iter().enumerate() {
            let offset = Duration::from_nanos(offset);
            let due = start + offset;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let mode = mode_of(offset);
            obs::set_enabled(mode != Mode::Off);
            let span = (mode == Mode::Traced).then(|| Span::root("bench.request"));
            lag_ms_max = lag_ms_max.max(ms(Instant::now().saturating_duration_since(due)));
            let payload = payloads[index % payloads.len()].clone();
            match client.try_submit(index as u64 % STREAMS, payload) {
                Ok(ticket) => {
                    tx.send(Sent { index, mode, due, ticket, span }).expect("reply waiter alive")
                }
                Err(e) => submit_errors.push(format!("request {index}: {e}")),
            }
        }
        obs::set_enabled(true);
        drop(tx);
        let (records, wall) = waiter.join().expect("reply waiter panicked");
        LoopResult { records, submit_errors, lag_ms_max, wall }
    })
}

/// Counts failures and checks every kept reply against direct scoring.
/// Returns the (due, reply) instants of the scored requests per mode.
fn check(
    result: &LoopResult,
    reference: &ContrastiveModel,
    payloads: &[Vec<Sample>],
    out: &mut Outcome,
) -> BenchResult<[Vec<(Instant, Instant)>; 3]> {
    let mut latencies: [Vec<(Instant, Instant)>; 3] = Default::default();
    out.attempted += (result.records.len() + result.submit_errors.len()) as u64;
    for e in &result.submit_errors {
        out.fail_check(e.clone());
    }
    for r in &result.records {
        match &r.reply {
            Ok(RemoteOutcome::Scored(scores)) => {
                latencies[r.mode as usize].push((r.due, r.done));
                if r.index % CHECK_EVERY == 0 {
                    let payload = &payloads[r.index % payloads.len()];
                    if bits(scores) != bits(&contrast_scores_shared(reference, payload)?) {
                        out.fail_check(format!("request {}: remote scores differ", r.index));
                    }
                }
            }
            Ok(RemoteOutcome::Shed(cause)) => {
                out.fail_check(format!("request {}: shed ({cause:?})", r.index))
            }
            Err(e) => out.fail_check(format!("request {}: {e}", r.index)),
        }
    }
    Ok(latencies)
}

pub fn run(args: &Args, process_start: Instant, out: &mut Outcome) -> BenchResult<()> {
    let synth = Instant::now();
    let payloads = {
        let mut source = common::stream(args.seed, 0);
        common::segments(&mut source, POOL, REQUEST_SAMPLES)?
    };
    let window = if args.trace { args.window().min(MAX_TRACED) } else { args.window() };
    let schedule = arrivals(args.seed, window);
    let excluded = synth.elapsed();

    let model = ContrastiveModel::new(&common::model_config());
    let warmup = &payloads[..WARMUP_REQUESTS];
    let (node, setup_s) =
        common::timed_setup(process_start, excluded, || start_node(&model, warmup))?;

    if !args.trace {
        let monitor = StealMonitor::start();
        let result = open_loop(&node.client, &schedule, &payloads, |_| Mode::Plain);
        let [scored, ..] = check(&result, &model, &payloads, out)?;
        let wall = result.wall.as_secs_f64();
        let knn = common::knn_acc(&model)?;
        let (latencies, excluded) = monitor.kept_ms(&scored, stats::min_samples(0.9));
        let samples_per_s = (scored.len() * REQUEST_SAMPLES) as f64 / wall;
        crate::push_e2e(out, setup_s, &latencies, samples_per_s, knn);
        println!(
            "remote_score: {} requests, {} scored in {wall:.2} s, {excluded} set aside for host \
             steal; latency_ms_p50/p90 as op_ms; goodput_rps {:.3}; generator lag max {:.3} ms",
            result.records.len() + result.submit_errors.len(),
            scored.len(),
            scored.len() as f64 / wall,
            result.lag_ms_max
        );
        return Ok(());
    }

    obs::trace_collector().clear();
    let start_counts = Counters::read();
    let serve_before = ServeWindow::read(node.replicas.replica(0));
    let rotation = [Mode::Plain, Mode::Traced, Mode::Off];
    let result = open_loop(&node.client, &schedule, &payloads, |offset| {
        rotation[(offset.as_nanos() / BLOCK.as_nanos()) as usize % rotation.len()]
    });
    let counts = Counters::read().since(&start_counts);
    let serve_after = ServeWindow::read(node.replicas.replica(0));
    let latencies = check(&result, &model, &payloads, out)?;
    let recorded_ops = result.records.iter().filter(|r| r.mode != Mode::Off).count();

    let mut layers = Layers::default();
    layers.set_steps(&probes::steps(args.seed)?);
    layers.set_counts(&counts, recorded_ops);
    layers.set_serve(&serve_before, &serve_after, result.records.len());
    layers.loadgen_lag_ms_max = result.lag_ms_max;
    let [plain, traced, off] =
        latencies.map(|ops| ops.iter().map(|&(due, done)| ms(done - due)).collect::<Vec<_>>());
    let (plain, traced, off) = (&plain, &traced, &off);
    layers.obs_overhead_frac = overhead(plain, off);
    layers.trace_overhead_frac = overhead(traced, plain);
    probes::scoring_shape(&mut layers, out)?;
    probes::idle(&mut layers, out, true)?;
    layers.trace_overwritten = Counters::read().since(&start_counts).trace_overwritten as f64;
    layers.push_into(out);
    println!(
        "remote_score traced: {} plain, {} traced, {} recording-off requests",
        plain.len(),
        traced.len(),
        off.len()
    );
    Ok(())
}
