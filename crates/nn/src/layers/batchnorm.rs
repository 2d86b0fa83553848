//! Batch normalization layer with running statistics.

use sdc_tensor::{Result, Tensor, VarId};

use crate::module::{Forward, Module};
use crate::param::{BufferId, ParamId, ParamStore};

/// 2-D batch normalization with learned per-channel scale/shift and
/// exponentially averaged running statistics for evaluation mode.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: ParamId,
    beta: ParamId,
    running_mean: BufferId,
    running_var: BufferId,
    eps: f32,
    momentum: f32,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels with
    /// `gamma = 1`, `beta = 0`, running mean 0 and running variance 1.
    pub fn new(store: &mut ParamStore, name: &str, channels: usize) -> Self {
        Self::with_options(store, name, channels, 1e-5, 0.1)
    }

    /// Creates a batch-norm layer with explicit `eps` and running-average
    /// `momentum` (the weight of the *new* batch statistics).
    pub fn with_options(
        store: &mut ParamStore,
        name: &str,
        channels: usize,
        eps: f32,
        momentum: f32,
    ) -> Self {
        let gamma = store.add_param(format!("{name}.gamma"), Tensor::ones([channels]));
        let beta = store.add_param(format!("{name}.beta"), Tensor::zeros([channels]));
        let running_mean =
            store.add_buffer(format!("{name}.running_mean"), Tensor::zeros([channels]));
        let running_var = store.add_buffer(format!("{name}.running_var"), Tensor::ones([channels]));
        Self { gamma, beta, running_mean, running_var, eps, momentum }
    }

    /// Current running mean.
    pub fn running_mean<'s>(&self, store: &'s ParamStore) -> &'s Tensor {
        &store.buffer(self.running_mean).value
    }

    /// Current running variance.
    pub fn running_var<'s>(&self, store: &'s ParamStore) -> &'s Tensor {
        &store.buffer(self.running_var).value
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, ctx: &mut Forward<'_>, x: VarId) -> Result<VarId> {
        let gamma = ctx.bind(self.gamma);
        let beta = ctx.bind(self.beta);
        if ctx.train {
            let (y, stats) = ctx.graph.batch_norm2d(x, gamma, beta, self.eps, None)?;
            let stats = stats.expect("training mode returns batch statistics");
            // Blend batch statistics into the running buffers.
            let m = self.momentum;
            let store = ctx.store_mut();
            let mean_buf = &mut store.buffer_mut(self.running_mean).value;
            for (r, &b) in mean_buf.data_mut().iter_mut().zip(&stats.mean) {
                *r = (1.0 - m) * *r + m * b;
            }
            let var_buf = &mut store.buffer_mut(self.running_var).value;
            for (r, &b) in var_buf.data_mut().iter_mut().zip(&stats.var) {
                *r = (1.0 - m) * *r + m * b;
            }
            Ok(y)
        } else {
            let mean = ctx.store().buffer(self.running_mean).value.data().to_vec();
            let var = ctx.store().buffer(self.running_var).value.data().to_vec();
            let (y, _) = ctx.graph.batch_norm2d(x, gamma, beta, self.eps, Some((&mean, &var)))?;
            Ok(y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Bindings;
    use sdc_tensor::Graph;

    fn forward_once(train: bool, store: &mut ParamStore, bn: &BatchNorm2d, x: Tensor) -> Tensor {
        let mut g = Graph::new();
        let mut bind = Bindings::new();
        let mut ctx = Forward::new(&mut g, store, &mut bind, train);
        let xid = ctx.graph.leaf(x);
        let y = bn.forward(&mut ctx, xid).unwrap();
        g.value(y).clone()
    }

    #[test]
    fn train_mode_updates_running_stats() {
        let mut store = ParamStore::new();
        let bn = BatchNorm2d::new(&mut store, "bn", 1);
        let x = Tensor::from_vec([2, 1, 1, 2], vec![10.0, 10.0, 10.0, 10.0]).unwrap();
        forward_once(true, &mut store, &bn, x);
        // momentum 0.1: running mean moves from 0 toward 10.
        let rm = bn.running_mean(&store).data()[0];
        assert!((rm - 1.0).abs() < 1e-6, "running mean {rm}");
        // Batch variance is 0, so running var shrinks from 1 toward 0.
        let rv = bn.running_var(&store).data()[0];
        assert!((rv - 0.9).abs() < 1e-6, "running var {rv}");
    }

    #[test]
    fn eval_mode_is_deterministic_and_ignores_batch() {
        let mut store = ParamStore::new();
        let bn = BatchNorm2d::new(&mut store, "bn", 1);
        // With running mean 0 / var 1 and identity affine, eval mode is a
        // near-identity map regardless of batch statistics.
        let x = Tensor::from_vec([1, 1, 1, 2], vec![3.0, -1.0]).unwrap();
        let y = forward_once(false, &mut store, &bn, x.clone());
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // Eval mode must not touch the running buffers.
        assert_eq!(bn.running_mean(&store).data(), &[0.0]);
        assert_eq!(bn.running_var(&store).data(), &[1.0]);
    }

    #[test]
    fn train_output_is_normalized() {
        let mut store = ParamStore::new();
        let bn = BatchNorm2d::new(&mut store, "bn", 1);
        let x = Tensor::from_vec([2, 1, 1, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = forward_once(true, &mut store, &bn, x);
        assert!(y.mean().abs() < 1e-5);
    }
}
