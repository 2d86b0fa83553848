//! The open-loop load harness's determinism contract: same seed ⇒
//! same arrival schedule and same shed decisions, run to run — only
//! the measured latencies are wall-clock.

use sdc_core::model::ModelConfig;
use sdc_core::ContrastiveModel;
use sdc_data::Sample;
use sdc_nn::models::EncoderConfig;
use sdc_obs::{AdmissionConfig, ArrivalProcess};
use sdc_serve::{run_open_loop, LoadReport, LoadgenConfig, ScoringService, ServeConfig};
use sdc_tensor::Tensor;

fn tiny_model(seed: u64) -> ContrastiveModel {
    ContrastiveModel::new(&ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 8,
        projection_dim: 4,
        seed,
    })
}

fn sample(i: u64) -> Vec<Sample> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(i);
    vec![Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i)]
}

fn harness_config() -> LoadgenConfig {
    LoadgenConfig {
        seed: 42,
        rounds: 2,
        requests_per_round: 12,
        streams: 3,
        // A mean gap well under the admission cost forces the virtual
        // backlog to grow, so the run exercises both outcomes.
        process: ArrivalProcess::Poisson { mean_gap_nanos: 40_000 },
        admission: AdmissionConfig { cost_nanos: 90_000, max_backlog_nanos: 300_000 },
    }
}

fn one_run() -> LoadReport {
    let service = ScoringService::start(
        tiny_model(7),
        ServeConfig { threads: Some(2), ..ServeConfig::default() },
    );
    run_open_loop(&service, &harness_config(), sample).unwrap()
}

#[test]
fn same_seed_reproduces_schedule_and_shed_decisions() {
    let a = one_run();
    let b = one_run();
    assert_eq!(a.schedule, b.schedule, "arrival schedule must be a pure function of the seed");
    assert_eq!(a.decisions, b.decisions, "shed decisions must be a pure function of the seed");
    assert_eq!(a.decision_fingerprint(), b.decision_fingerprint());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!((ra.issued, ra.admitted, ra.shed), (rb.issued, rb.admitted, rb.shed));
    }
}

#[test]
fn accounting_is_consistent_and_backlog_bites() {
    let report = one_run();
    let config = harness_config();
    let total = (config.rounds * config.requests_per_round) as u64;
    assert_eq!(report.schedule.len() as u64, total);
    assert_eq!(report.total_admitted() + report.total_shed(), total);
    assert!(report.total_admitted() > 0, "some requests must get through: {report:?}");
    assert!(report.total_shed() > 0, "the overloaded schedule must shed: {report:?}");
    // Admitted requests are guaranteed submits: the service answers
    // every one of them and sheds none of its own.
    assert_eq!(report.service.requests, report.total_admitted(), "{:?}", report.service);
    assert_eq!(report.service.shed_backlog, 0);
    assert_eq!(report.service.shed_queue_full, 0);
    if sdc_obs::enabled() {
        let recorded: u64 = report.rounds.iter().map(|r| r.latency.count).sum();
        assert_eq!(recorded, report.total_admitted(), "each round's delta covers its requests");
        for round in &report.rounds {
            if round.latency.count > 0 {
                assert!(round.latency.p50 > 0, "{round:?}");
                assert!(round.latency.p999 >= round.latency.p50, "{round:?}");
            }
        }
    }
}
