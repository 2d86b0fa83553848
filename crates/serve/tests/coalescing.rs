//! Coalescing edge cases: more concurrent samples than `max_batch`, a
//! ticket dropped mid-flight, and bit-reproducible scores for a fixed
//! stream set whatever the batch composition.

use sdc_core::model::{ContrastiveModel, ModelConfig};
use sdc_core::score::contrast_scores_shared;
use sdc_data::{Sample, StreamId};
use sdc_nn::models::EncoderConfig;
use sdc_serve::{ScoringService, ServeConfig, SubmitOpts};
use sdc_tensor::Tensor;

fn tiny_model(seed: u64) -> ContrastiveModel {
    ContrastiveModel::new(&ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 8,
        projection_dim: 4,
        seed,
    })
}

fn samples(n: usize, start_id: u64, seed: u64) -> Vec<Sample> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    (0..n)
        .map(|i| Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, start_id + i as u64))
        .collect()
}

#[test]
fn more_streams_than_max_batch_split_flush() {
    let model = tiny_model(3);
    let reference = model.clone();
    // Six single-sample streams against a two-sample batch cap: no
    // batch may exceed the cap, however many requests are pending.
    let service =
        ScoringService::start(model, ServeConfig { max_batch: 2, ..ServeConfig::default() });
    let streams = 6u64;
    let clients: Vec<_> = (0..streams).map(|id| service.client(id as StreamId)).collect();
    let replies = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(id, client)| {
                let id = id as u64;
                scope.spawn(move || {
                    let pool = samples(1, id * 10, 100 + id);
                    (pool.clone(), client.score(pool).unwrap())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect::<Vec<_>>()
    });
    for (pool, scores) in &replies {
        assert_eq!(scores, &contrast_scores_shared(&reference, pool).unwrap());
    }
    let stats = service.stats_snapshot();
    assert_eq!(stats.requests, streams);
    assert_eq!(stats.samples, streams);
    assert!(
        stats.batches >= streams.div_ceil(2),
        "6 one-sample requests under max_batch=2 need ≥3 batches: {stats:?}"
    );
}

#[test]
fn dropped_ticket_mid_flight_does_not_stall_the_round() {
    let model = tiny_model(5);
    let reference = model.clone();
    let service = ScoringService::start(model, ServeConfig::default());
    let dropper = service.client(0);
    let survivor = service.client(1);
    // Stream 0 submits, then abandons its reply: its request is still
    // scored, and the survivor's request is not held up by it.
    let ticket = dropper.submit(samples(2, 0, 6), SubmitOpts::default()).unwrap();
    drop(ticket);
    let pool = samples(3, 50, 7);
    let scores = survivor.score(pool.clone()).unwrap();
    assert_eq!(scores, contrast_scores_shared(&reference, &pool).unwrap());
    // Whether the reply found its ticket gone depends on when the
    // batcher scored it; the service unit tests pin that count.
    let stats = service.stats_snapshot();
    assert_eq!(stats.requests, 2, "the abandoned request was still scored: {stats:?}");
}

#[test]
fn fixed_stream_set_scores_are_bit_reproducible() {
    let run = || {
        let service = ScoringService::start(tiny_model(11), ServeConfig::default());
        let clients: Vec<_> = (0..3).map(|id| service.client(id as StreamId)).collect();
        let all_scores = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(id, client)| {
                    let id = id as u64;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        for round in 0..5u64 {
                            let pool = samples(4, id * 1000 + round * 10, id * 7 + round);
                            mine.extend(client.score(pool).unwrap());
                        }
                        mine
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect::<Vec<f32>>()
        });
        (service.stats_snapshot(), all_scores)
    };
    // Which requests share a batch follows arrival timing; the scores
    // must not.
    let (stats_a, scores_a) = run();
    let (_, scores_b) = run();
    assert_eq!(stats_a.requests, 15);
    assert_eq!(stats_a.samples, 60);
    let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&scores_a), bits(&scores_b), "scores must be bit-reproducible");
}
