//! Residual convolutional encoder (ResNet family, CIFAR-style stem).
//!
//! The paper trains a ResNet-18 backbone; this module implements the same
//! architecture family — conv-BN-ReLU stem followed by stages of 2-conv
//! basic residual blocks with identity or projected shortcuts and a global
//! average-pool head — with configurable width and depth so that CPU-scale
//! experiments remain fast while the full-size configuration is available.

use rand::{Rng, RngExt};
use sdc_tensor::{Result, VarId};

use crate::layers::{BatchNorm2d, Conv2d, GlobalAvgPool};
use crate::module::{Forward, Module};
use crate::param::ParamStore;

/// Configuration of a [`ResNetEncoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Input image channels (3 for RGB).
    pub in_channels: usize,
    /// Channel width of the stem / first stage.
    pub base_width: usize,
    /// Residual blocks per stage; stage `i` has width `base_width << i`
    /// and stages after the first downsample spatially by 2.
    pub stage_blocks: Vec<usize>,
}

impl EncoderConfig {
    /// Minimal encoder for unit tests: width 8, one stage of one block.
    pub fn tiny() -> Self {
        Self { in_channels: 3, base_width: 8, stage_blocks: vec![1] }
    }

    /// Small encoder used by the default (CPU-scaled) experiments:
    /// width 16, two stages.
    pub fn small() -> Self {
        Self { in_channels: 3, base_width: 16, stage_blocks: vec![1, 1] }
    }

    /// The paper's backbone: ResNet-18 (width 64, stages [2, 2, 2, 2]).
    ///
    /// Works, but is slow on CPU; the scaled experiments default to
    /// [`EncoderConfig::small`].
    pub fn resnet18() -> Self {
        Self { in_channels: 3, base_width: 64, stage_blocks: vec![2, 2, 2, 2] }
    }

    /// Output feature dimension implied by the configuration.
    pub fn feature_dim(&self) -> usize {
        self.base_width << (self.stage_blocks.len().saturating_sub(1))
    }
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// One 2-convolution basic residual block.
#[derive(Debug, Clone)]
struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    /// Projection shortcut when the shape changes; identity otherwise.
    shortcut: Option<(Conv2d, BatchNorm2d)>,
}

impl BasicBlock {
    fn new<R: Rng + RngExt + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        let conv1 = Conv2d::new(store, &format!("{name}.conv1"), in_ch, out_ch, 3, stride, 1, rng);
        let bn1 = BatchNorm2d::new(store, &format!("{name}.bn1"), out_ch);
        let conv2 = Conv2d::new(store, &format!("{name}.conv2"), out_ch, out_ch, 3, 1, 1, rng);
        let bn2 = BatchNorm2d::new(store, &format!("{name}.bn2"), out_ch);
        let shortcut = (stride != 1 || in_ch != out_ch).then(|| {
            let conv = Conv2d::new(
                store,
                &format!("{name}.shortcut.conv"),
                in_ch,
                out_ch,
                1,
                stride,
                0,
                rng,
            );
            let bn = BatchNorm2d::new(store, &format!("{name}.shortcut.bn"), out_ch);
            (conv, bn)
        });
        Self { conv1, bn1, conv2, bn2, shortcut }
    }
}

impl Module for BasicBlock {
    fn forward(&self, ctx: &mut Forward<'_>, x: VarId) -> Result<VarId> {
        let mut h = self.conv1.forward(ctx, x)?;
        h = self.bn1.forward(ctx, h)?;
        h = ctx.graph.relu(h);
        h = self.conv2.forward(ctx, h)?;
        h = self.bn2.forward(ctx, h)?;
        let residual = match &self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(ctx, x)?;
                bn.forward(ctx, s)?
            }
            None => x,
        };
        let sum = ctx.graph.add(h, residual)?;
        Ok(ctx.graph.relu(sum))
    }
}

/// A residual CNN encoder mapping image batches `(n, c, h, w)` to feature
/// vectors `(n, feature_dim)`.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sdc_nn::{models::{EncoderConfig, ResNetEncoder}, Bindings, Forward, Module, ParamStore};
/// use sdc_tensor::{Graph, Tensor};
///
/// let mut store = ParamStore::new();
/// let mut rng = StdRng::seed_from_u64(0);
/// let enc = ResNetEncoder::new(&mut store, EncoderConfig::tiny(), &mut rng);
///
/// let mut g = Graph::new();
/// let mut bind = Bindings::new();
/// let mut ctx = Forward::new(&mut g, &mut store, &mut bind, false);
/// let x = ctx.graph.leaf(Tensor::zeros([2, 3, 8, 8]));
/// let h = enc.forward(&mut ctx, x)?;
/// assert_eq!(ctx.graph.value(h).shape().dims(), &[2, enc.feature_dim()]);
/// # Ok::<(), sdc_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ResNetEncoder {
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    blocks: Vec<BasicBlock>,
    pool: GlobalAvgPool,
    feature_dim: usize,
}

impl ResNetEncoder {
    /// Builds the encoder, registering all parameters in `store`.
    pub fn new<R: Rng + RngExt + ?Sized>(
        store: &mut ParamStore,
        config: EncoderConfig,
        rng: &mut R,
    ) -> Self {
        let stem_conv = Conv2d::new(
            store,
            "encoder.stem.conv",
            config.in_channels,
            config.base_width,
            3,
            1,
            1,
            rng,
        );
        let stem_bn = BatchNorm2d::new(store, "encoder.stem.bn", config.base_width);
        let mut blocks = Vec::new();
        let mut in_ch = config.base_width;
        for (si, &n_blocks) in config.stage_blocks.iter().enumerate() {
            let out_ch = config.base_width << si;
            for bi in 0..n_blocks {
                let stride = if si > 0 && bi == 0 { 2 } else { 1 };
                blocks.push(BasicBlock::new(
                    store,
                    &format!("encoder.stage{si}.block{bi}"),
                    in_ch,
                    out_ch,
                    stride,
                    rng,
                ));
                in_ch = out_ch;
            }
        }
        let feature_dim = config.feature_dim();
        Self { stem_conv, stem_bn, blocks, pool: GlobalAvgPool, feature_dim }
    }

    /// Dimension of the produced feature vectors.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }
}

impl Module for ResNetEncoder {
    fn forward(&self, ctx: &mut Forward<'_>, x: VarId) -> Result<VarId> {
        let mut h = self.stem_conv.forward(ctx, x)?;
        h = self.stem_bn.forward(ctx, h)?;
        h = ctx.graph.relu(h);
        for block in &self.blocks {
            h = block.forward(ctx, h)?;
        }
        self.pool.forward(ctx, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Bindings;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdc_tensor::{Graph, Tensor};

    fn forward(config: EncoderConfig, x: Tensor, train: bool) -> Tensor {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let enc = ResNetEncoder::new(&mut store, config, &mut rng);
        let mut g = Graph::new();
        let mut bind = Bindings::new();
        let mut ctx = Forward::new(&mut g, &mut store, &mut bind, train);
        let xid = ctx.graph.leaf(x);
        let h = enc.forward(&mut ctx, xid).unwrap();
        g.value(h).clone()
    }

    #[test]
    fn tiny_encoder_output_shape() {
        let y = forward(EncoderConfig::tiny(), Tensor::zeros([2, 3, 8, 8]), true);
        assert_eq!(y.shape().dims(), &[2, 8]);
    }

    #[test]
    fn multi_stage_encoder_downsamples_and_widens() {
        let cfg = EncoderConfig::small();
        assert_eq!(cfg.feature_dim(), 32);
        let y = forward(cfg, Tensor::zeros([1, 3, 16, 16]), true);
        assert_eq!(y.shape().dims(), &[1, 32]);
    }

    #[test]
    fn outputs_are_finite_for_random_inputs() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let y = forward(EncoderConfig::small(), x, true);
        assert!(y.all_finite());
    }

    #[test]
    fn backward_reaches_all_parameters() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let enc = ResNetEncoder::new(&mut store, EncoderConfig::small(), &mut rng);
        let mut g = Graph::new();
        let mut bind = Bindings::new();
        let mut ctx = Forward::new(&mut g, &mut store, &mut bind, true);
        let x = ctx.graph.leaf(Tensor::randn([2, 3, 8, 8], 1.0, &mut rng));
        let h = enc.forward(&mut ctx, x).unwrap();
        let loss = g.mean_all(h);
        g.backward(loss).unwrap();
        bind.accumulate_grads(&g, &mut store);
        // Every conv weight and BN gamma should receive some gradient;
        // beta always receives gradient through the additive path.
        let nonzero = store.params().iter().filter(|p| p.grad.norm() > 0.0).count();
        assert!(
            nonzero as f32 >= 0.9 * store.num_params() as f32,
            "{nonzero}/{} params received gradient",
            store.num_params()
        );
    }

    #[test]
    fn resnet18_config_matches_paper_backbone() {
        let cfg = EncoderConfig::resnet18();
        assert_eq!(cfg.feature_dim(), 512);
        assert_eq!(cfg.stage_blocks.iter().sum::<usize>(), 8);
    }
}
