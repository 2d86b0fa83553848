//! The open-loop driver against an in-process service: the schedule is
//! a pure function of the seed, the service's own admission decides
//! every shed, and scored requests carry direct-scoring bits.

use sdc_core::model::ModelConfig;
use sdc_core::score::contrast_scores_shared;
use sdc_core::ContrastiveModel;
use sdc_data::Sample;
use sdc_nn::models::EncoderConfig;
use sdc_obs::ArrivalProcess;
use sdc_serve::{
    run_open_loop, LoadConfig, LoadReport, ScoreOutcome, ScoringService, ServeConfig, ShedCause,
};
use sdc_tensor::Tensor;

const REQUESTS: usize = 24;

fn tiny_model() -> ContrastiveModel {
    ContrastiveModel::new(&ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 8,
        projection_dim: 4,
        seed: 7,
    })
}

fn sample(i: u64) -> Vec<Sample> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(i);
    vec![Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i)]
}

fn load_config() -> LoadConfig {
    LoadConfig {
        seed: 42,
        requests: REQUESTS,
        streams: 3,
        process: ArrivalProcess::Poisson { mean_gap_nanos: 40_000 },
    }
}

/// A service admitting at most `max_pending` droppable samples. With
/// the default bound, `REQUESTS` one-sample requests fit both the queue
/// and the bound, so nothing can be shed.
fn service(max_pending: usize) -> ScoringService {
    ScoringService::start(
        tiny_model(),
        ServeConfig { threads: Some(2), max_pending, ..ServeConfig::default() },
    )
}

fn uncontended_run() -> LoadReport {
    run_open_loop(&service(ServeConfig::default().max_pending), &load_config(), sample).unwrap()
}

#[test]
fn max_pending_zero_sheds_every_request_as_backlog() {
    let service = service(0);
    let report = run_open_loop(&service, &load_config(), sample).unwrap();
    assert_eq!(report.outcomes, vec![ScoreOutcome::Shed(ShedCause::Backlog); REQUESTS]);
    let stats = service.stats_snapshot();
    assert_eq!(stats.shed_backlog, REQUESTS as u64, "{stats:?}");
    assert_eq!((stats.requests, stats.batches), (0, 0), "{stats:?}");
}

#[test]
fn same_seed_gives_equal_schedules_and_fingerprints() {
    let a = uncontended_run();
    let b = uncontended_run();
    let config = load_config();
    assert_eq!(a.schedule, config.process.schedule(config.seed, REQUESTS));
    assert_eq!(a.schedule, b.schedule, "the schedule must be a pure function of the seed");
    assert_eq!(a.fingerprint(), b.fingerprint(), "{:?} vs {:?}", a.outcomes, b.outcomes);
}

#[test]
fn uncontended_run_scores_every_request_bitwise() {
    let report = uncontended_run();
    let model = tiny_model();
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(report.scored(), REQUESTS as u64, "{:?}", report.outcomes);
    for (i, outcome) in (0u64..).zip(&report.outcomes) {
        let direct = contrast_scores_shared(&model, &sample(i)).unwrap();
        match outcome {
            ScoreOutcome::Scored(scores) => assert_eq!(bits(scores), bits(&direct), "request {i}"),
            ScoreOutcome::Shed(cause) => panic!("request {i} shed ({cause:?})"),
        }
    }
}
