//! Linear evaluation protocol (the paper's Stage 2).
//!
//! The encoder is frozen; a linear classifier is trained on its features
//! using a small labeled subset, and test accuracy measures
//! representation quality.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdc_core::model::ContrastiveModel;
use sdc_data::Sample;
use sdc_nn::models::LinearClassifier;
use sdc_nn::optim::Adam;
use sdc_nn::{Bindings, Forward, Module, ParamStore};
use sdc_tensor::{Graph, Result, Tensor, TensorError};
use serde::{Deserialize, Serialize};

use crate::features::extract_features;
use crate::metrics::{accuracy, argmax_rows};

/// Hyper-parameters of the linear probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// Training epochs over the labeled subset (paper: 500; scaled
    /// defaults are smaller since our feature spaces are smaller).
    pub epochs: usize,
    /// Adam learning rate (paper: 3e-4).
    pub learning_rate: f32,
    /// Mini-batch size for classifier training.
    pub batch_size: usize,
    /// Feature-extraction batch size.
    pub feature_batch: usize,
    /// Seed for shuffling and classifier init.
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self { epochs: 60, learning_rate: 1e-2, batch_size: 64, feature_batch: 64, seed: 0 }
    }
}

/// Per-dimension standardization statistics computed on the training
/// features and applied to both splits — keeps the probe's convergence
/// independent of the encoder's feature scale.
fn standardize(train: &mut Tensor, test: &mut Tensor) {
    let (n, d) = train.shape().as_matrix().expect("features are rank-2");
    let mut mean = vec![0.0f32; d];
    let mut var = vec![0.0f32; d];
    for i in 0..n {
        for (j, m) in mean.iter_mut().enumerate() {
            *m += train.data()[i * d + j];
        }
    }
    mean.iter_mut().for_each(|m| *m /= n as f32);
    for i in 0..n {
        for (j, v) in var.iter_mut().enumerate() {
            let x = train.data()[i * d + j] - mean[j];
            *v += x * x;
        }
    }
    let std: Vec<f32> = var.iter().map(|&v| (v / n as f32).sqrt().max(1e-4)).collect();
    for t in [train, test] {
        let (rows, _) = t.shape().as_matrix().expect("features are rank-2");
        let td = t.data_mut();
        for i in 0..rows {
            for j in 0..d {
                td[i * d + j] = (td[i * d + j] - mean[j]) / std[j];
            }
        }
    }
}

/// Result of a probe run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProbeResult {
    /// Test-set top-1 accuracy.
    pub test_accuracy: f32,
    /// Training-set top-1 accuracy (over the labeled subset).
    pub train_accuracy: f32,
    /// Final training loss.
    pub final_loss: f32,
}

/// Trains a linear classifier on frozen features and evaluates it.
///
/// # Errors
///
/// Returns an error if either set is empty or shapes disagree.
pub fn linear_probe(
    model: &mut ContrastiveModel,
    train: &[Sample],
    test: &[Sample],
    num_classes: usize,
    config: &ProbeConfig,
) -> Result<ProbeResult> {
    if num_classes == 0 {
        return Err(TensorError::InvalidArgument {
            op: "linear_probe",
            message: "num_classes must be positive".into(),
        });
    }
    let (mut train_features, train_labels) = extract_features(model, train, config.feature_batch)?;
    let (mut test_features, test_labels) = extract_features(model, test, config.feature_batch)?;
    standardize(&mut train_features, &mut test_features);
    let dim = model.feature_dim();

    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let classifier = LinearClassifier::new(&mut store, dim, num_classes, &mut rng);
    let mut optimizer = Adam::new(config.learning_rate);

    let n = train.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut final_loss = f32::NAN;
    for _epoch in 0..config.epochs {
        // Shuffle.
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(config.batch_size.max(1)) {
            let mut batch = Vec::with_capacity(chunk.len() * dim);
            let mut targets = Vec::with_capacity(chunk.len());
            for &i in chunk {
                batch.extend_from_slice(train_features.row(i));
                targets.push(train_labels[i]);
            }
            let batch = Tensor::from_vec([chunk.len(), dim], batch)?;
            let mut graph = Graph::new();
            let mut bindings = Bindings::new();
            let mut ctx = Forward::new(&mut graph, &mut store, &mut bindings, true);
            let x = ctx.graph.leaf(batch);
            let logits = classifier.forward(&mut ctx, x)?;
            let logp = graph.log_softmax(logits)?;
            let loss = graph.nll_loss(logp, targets)?;
            graph.backward(loss)?;
            store.zero_grads();
            bindings.accumulate_grads(&graph, &mut store);
            optimizer.step(&mut store);
            final_loss = graph.value(loss).item();
        }
    }

    let predict = |features: &Tensor, store: &mut ParamStore| -> Result<Vec<usize>> {
        let mut graph = Graph::new();
        let mut bindings = Bindings::new();
        let mut ctx = Forward::new(&mut graph, store, &mut bindings, false);
        let x = ctx.graph.leaf(features.clone());
        let logits = classifier.forward(&mut ctx, x)?;
        Ok(argmax_rows(graph.value(logits).data(), num_classes))
    };
    let train_pred = predict(&train_features, &mut store)?;
    let test_pred = predict(&test_features, &mut store)?;
    Ok(ProbeResult {
        test_accuracy: accuracy(&test_pred, &test_labels),
        train_accuracy: accuracy(&train_pred, &train_labels),
        final_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_core::model::ModelConfig;
    use sdc_nn::models::EncoderConfig;

    fn model() -> ContrastiveModel {
        ContrastiveModel::new(&ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 8,
            projection_dim: 4,
            seed: 0,
        })
    }

    /// Images whose channel means encode the class — linearly separable
    /// even through a random encoder's global average pooling.
    fn separable_samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let class = i % 2;
                let base = if class == 0 { -2.0 } else { 2.0 };
                let mut img = Tensor::randn([3, 8, 8], 0.3, &mut rng);
                img.data_mut().iter_mut().for_each(|v| *v += base);
                Sample::new(img, class, i as u64)
            })
            .collect()
    }

    #[test]
    fn probe_learns_separable_classes() {
        let mut m = model();
        let train = separable_samples(40, 1);
        let test = separable_samples(20, 2);
        let result = linear_probe(
            &mut m,
            &train,
            &test,
            2,
            &ProbeConfig { epochs: 40, ..ProbeConfig::default() },
        )
        .unwrap();
        assert!(result.test_accuracy > 0.9, "accuracy {}", result.test_accuracy);
        assert!(result.final_loss.is_finite());
    }

    #[test]
    fn probe_is_deterministic() {
        let train = separable_samples(20, 3);
        let test = separable_samples(10, 4);
        let cfg = ProbeConfig { epochs: 5, ..ProbeConfig::default() };
        let a = linear_probe(&mut model(), &train, &test, 2, &cfg).unwrap();
        let b = linear_probe(&mut model(), &train, &test, 2, &cfg).unwrap();
        assert_eq!(a.test_accuracy, b.test_accuracy);
    }

    #[test]
    fn probe_rejects_zero_classes() {
        let train = separable_samples(4, 5);
        assert!(linear_probe(&mut model(), &train, &train, 0, &ProbeConfig::default()).is_err());
    }
}
