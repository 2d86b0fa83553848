//! Linear classifier head (the paper's Stage-2 model).

use rand::{Rng, RngExt};
use sdc_tensor::{Result, VarId};

use crate::layers::Linear;
use crate::module::{Forward, Module};
use crate::param::ParamStore;

/// A single linear layer producing class logits from frozen encoder
/// features. This is the classifier the paper trains with few labels in
/// Stage 2 (the "linear evaluation protocol").
#[derive(Debug, Clone)]
pub struct LinearClassifier {
    fc: Linear,
}

impl LinearClassifier {
    /// Creates a classifier `feature_dim -> num_classes`.
    pub fn new<R: Rng + RngExt + ?Sized>(
        store: &mut ParamStore,
        feature_dim: usize,
        num_classes: usize,
        rng: &mut R,
    ) -> Self {
        Self { fc: Linear::new(store, "classifier.fc", feature_dim, num_classes, true, rng) }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.fc.out_dim()
    }
}

impl Module for LinearClassifier {
    fn forward(&self, ctx: &mut Forward<'_>, h: VarId) -> Result<VarId> {
        self.fc.forward(ctx, h)
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
    fn produces_logits_per_class() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(21);
        let clf = LinearClassifier::new(&mut store, 8, 5, &mut rng);
        assert_eq!(clf.num_classes(), 5);
        let mut g = Graph::new();
        let mut bind = Bindings::new();
        let mut ctx = Forward::new(&mut g, &mut store, &mut bind, true);
        let h = ctx.graph.leaf(Tensor::randn([3, 8], 1.0, &mut rng));
        let logits = clf.forward(&mut ctx, h).unwrap();
        assert_eq!(g.value(logits).shape().dims(), &[3, 5]);
    }

    #[test]
    fn classifier_trains_on_separable_toy_data() {
        // Two linearly separable clusters should be fit quickly by Adam
        // on the classifier alone — the Stage-2 path of the paper.
        use crate::optim::Adam;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(22);
        let clf = LinearClassifier::new(&mut store, 2, 2, &mut rng);
        let mut opt = Adam::new(0.1);
        let x = Tensor::from_vec([4, 2], vec![2.0, 0.1, 1.5, -0.2, -2.0, 0.3, -1.8, 0.0]).unwrap();
        let targets = vec![0usize, 0, 1, 1];
        let mut last = f32::INFINITY;
        for _ in 0..30 {
            let mut g = Graph::new();
            let mut bind = Bindings::new();
            let mut ctx = Forward::new(&mut g, &mut store, &mut bind, true);
            let xid = ctx.graph.leaf(x.clone());
            let logits = clf.forward(&mut ctx, xid).unwrap();
            let lp = g.log_softmax(logits).unwrap();
            let loss = g.nll_loss(lp, targets.clone()).unwrap();
            g.backward(loss).unwrap();
            store.zero_grads();
            bind.accumulate_grads(&g, &mut store);
            opt.step(&mut store);
            last = g.value(loss).item();
        }
        assert!(last < 0.1, "classifier failed to fit toy data: loss {last}");
    }
}
