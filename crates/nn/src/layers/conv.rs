//! 2-D convolution layer.

use rand::{Rng, RngExt};
use sdc_tensor::{Result, VarId};

use crate::init::{conv_fan_in, he_normal};
use crate::module::{Forward, Module};
use crate::param::{ParamId, ParamStore};

/// A 2-D convolution with square kernels.
///
/// Weight shape is `(c_out, c_in, k, k)`. There is no bias: every
/// convolution in the encoder is followed by batch normalization, whose
/// shift takes its place.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: ParamId,
    stride: usize,
    padding: usize,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + RngExt + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = conv_fan_in(in_channels, kernel);
        let weight = store.add_param(
            format!("{name}.weight"),
            he_normal([out_channels, in_channels, kernel, kernel], fan_in, rng),
        );
        Self { weight, stride, padding }
    }

    /// Handle to the weight parameter.
    pub fn weight(&self) -> ParamId {
        self.weight
    }
}

impl Module for Conv2d {
    fn forward(&self, ctx: &mut Forward<'_>, x: VarId) -> Result<VarId> {
        let w = ctx.bind(self.weight);
        ctx.graph.conv2d(x, w, self.stride, self.padding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Bindings;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdc_tensor::{Graph, Tensor};

    #[test]
    fn output_shape_follows_stride_and_padding() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new(&mut store, "c", 3, 8, 3, 2, 1, &mut rng);
        let mut g = Graph::new();
        let mut bind = Bindings::new();
        let mut ctx = Forward::new(&mut g, &mut store, &mut bind, true);
        let x = ctx.graph.leaf(Tensor::zeros([2, 3, 8, 8]));
        let y = conv.forward(&mut ctx, x).unwrap();
        assert_eq!(g.value(y).shape().dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn gradient_reaches_conv_weight() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let conv = Conv2d::new(&mut store, "c", 1, 2, 3, 1, 1, &mut rng);
        let mut g = Graph::new();
        let mut bind = Bindings::new();
        let mut ctx = Forward::new(&mut g, &mut store, &mut bind, true);
        let x = ctx.graph.leaf(Tensor::ones([1, 1, 4, 4]));
        let y = conv.forward(&mut ctx, x).unwrap();
        let loss = g.mean_all(y);
        g.backward(loss).unwrap();
        bind.accumulate_grads(&g, &mut store);
        assert!(store.param(conv.weight()).grad.norm() > 0.0);
    }
}
