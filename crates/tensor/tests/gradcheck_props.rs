//! Property-based finite-difference validation of every differentiable op.
//!
//! Each property draws random (small) tensors and checks the analytic
//! gradient produced by the reverse sweep against central differences.

use proptest::prelude::*;
use sdc_tensor::gradcheck::check_gradients;
use sdc_tensor::{Graph, Tensor};

const TOL: f32 = 2e-2;
const EPS: f32 = 1e-2;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn add_scale_grads(a in small_vec(6), b in small_vec(6)) {
        let ta = Tensor::from_vec([2, 3], a).unwrap();
        let tb = Tensor::from_vec([2, 3], b).unwrap();
        let reports = check_gradients(&[ta, tb], EPS, |g, ids| {
            let s = g.add(ids[0], ids[1])?;
            let d = g.scale(s, -1.5);
            let m = g.add(d, ids[0])?;
            Ok(g.mean_all(m))
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(TOL), "{r:?}");
        }
    }

    #[test]
    fn matmul_nt_grads(a in small_vec(6), b in small_vec(6)) {
        let ta = Tensor::from_vec([3, 2], a).unwrap();
        let tb = Tensor::from_vec([3, 2], b).unwrap();
        let reports = check_gradients(&[ta, tb], EPS, |g, ids| {
            let c = g.matmul_nt(ids[0], ids[1])?;
            Ok(g.mean_all(c))
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(TOL), "{r:?}");
        }
    }

    #[test]
    fn conv2d_grads(x in small_vec(2 * 2 * 4 * 4), w in small_vec(3 * 2 * 3 * 3)) {
        let tx = Tensor::from_vec([2, 2, 4, 4], x).unwrap();
        let tw = Tensor::from_vec([3, 2, 3, 3], w).unwrap();
        let reports = check_gradients(&[tx, tw], EPS, |g, ids| {
            let y = g.conv2d(ids[0], ids[1], 1, 1)?;
            Ok(g.mean_all(y))
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(TOL), "{r:?}");
        }
    }

    #[test]
    fn conv2d_strided_grads(x in small_vec(2 * 5 * 5), w in small_vec(2 * 2 * 3 * 3)) {
        let tx = Tensor::from_vec([1, 2, 5, 5], x).unwrap();
        let tw = Tensor::from_vec([2, 2, 3, 3], w).unwrap();
        let reports = check_gradients(&[tx, tw], EPS, |g, ids| {
            let y = g.conv2d(ids[0], ids[1], 2, 1)?;
            Ok(g.mean_all(y))
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(TOL), "{r:?}");
        }
    }

    #[test]
    fn pool_grads(x in small_vec(2 * 4 * 4)) {
        let tx = Tensor::from_vec([1, 2, 4, 4], x).unwrap();
        let reports = check_gradients(&[tx], EPS, |g, ids| {
            let z = g.global_avg_pool(ids[0])?;
            Ok(g.mean_all(z))
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(TOL), "{r:?}");
        }
    }

    #[test]
    fn batchnorm_train_grads(
        x in small_vec(3 * 2 * 2 * 2),
        gamma in proptest::collection::vec(0.5f32..1.5, 2),
        beta in small_vec(2),
    ) {
        let tx = Tensor::from_vec([3, 2, 2, 2], x).unwrap();
        let tg = Tensor::from_vec([2], gamma).unwrap();
        let tb = Tensor::from_vec([2], beta).unwrap();
        let reports = check_gradients(&[tx, tg, tb], EPS, |g, ids| {
            let (y, _) = g.batch_norm2d(ids[0], ids[1], ids[2], 1e-3, None)?;
            let r = g.relu(y);
            Ok(g.mean_all(r))
        }).unwrap();
        for r in reports {
            // BN divides by batch std; tolerate a slightly looser bound.
            prop_assert!(r.within(5e-2), "{r:?}");
        }
    }

    #[test]
    fn batchnorm_eval_grads(x in small_vec(2 * 2 * 2 * 2), gamma in proptest::collection::vec(0.5f32..1.5, 2)) {
        let tx = Tensor::from_vec([2, 2, 2, 2], x).unwrap();
        let tg = Tensor::from_vec([2], gamma).unwrap();
        let tb = Tensor::zeros([2]);
        let mean = [0.1f32, -0.2];
        let var = [1.0f32, 0.5];
        let reports = check_gradients(&[tx, tg, tb], EPS, |g, ids| {
            let (y, stats) = g.batch_norm2d(ids[0], ids[1], ids[2], 1e-3, Some((&mean, &var)))?;
            assert!(stats.is_none());
            Ok(g.mean_all(y))
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(TOL), "{r:?}");
        }
    }

    #[test]
    fn l2_normalize_grads(x in small_vec(3 * 4)) {
        // Keep rows away from zero where the op is non-differentiable.
        let tx = Tensor::from_vec([3, 4], x.iter().map(|v| v + 3.0).collect()).unwrap();
        let weights = Tensor::from_vec([2, 4], (0..8).map(|i| (i as f32) * 0.1 - 0.5).collect()).unwrap();
        let reports = check_gradients(&[tx], EPS, move |g, ids| {
            let y = g.l2_normalize_rows(ids[0])?;
            let w = g.leaf(weights.clone());
            let m = g.matmul_nt(y, w)?;
            Ok(g.mean_all(m))
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(TOL), "{r:?}");
        }
    }

    #[test]
    fn log_softmax_nll_grads(x in small_vec(3 * 4)) {
        let tx = Tensor::from_vec([3, 4], x).unwrap();
        let reports = check_gradients(&[tx], EPS, |g, ids| {
            let lp = g.log_softmax(ids[0])?;
            g.nll_loss(lp, vec![0, 3, 1])
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(TOL), "{r:?}");
        }
    }

    #[test]
    fn composite_contrastive_path_grads(a in small_vec(2 * 3), b in small_vec(2 * 3)) {
        // The exact op chain NT-Xent uses: concat -> l2norm -> sim matrix
        // -> scale -> mask diag -> log_softmax -> nll.
        let ta = Tensor::from_vec([2, 3], a.iter().map(|v| v + 2.0).collect()).unwrap();
        let tb = Tensor::from_vec([2, 3], b.iter().map(|v| v - 2.0).collect()).unwrap();
        let reports = check_gradients(&[ta, tb], EPS, |g, ids| {
            let cat = g.concat0(ids[0], ids[1])?;
            let z = g.l2_normalize_rows(cat)?;
            let sim = g.matmul_nt(z, z)?;
            let scaled = g.scale(sim, 2.0);
            let n = 4usize;
            let mask: Vec<bool> = (0..n * n).map(|i| i / n == i % n).collect();
            let masked = g.masked_fill(scaled, mask, -1e9)?;
            let lp = g.log_softmax(masked)?;
            g.nll_loss(lp, vec![2, 3, 0, 1])
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(5e-2), "{r:?}");
        }
    }

    #[test]
    fn add_bias_grads(x in small_vec(3 * 4), b in small_vec(4)) {
        // Keep pre-activations away from the ReLU kink where central
        // differences disagree with the (sub)gradient.
        for (i, xv) in x.iter().enumerate() {
            let pre = xv + b[i % 4];
            prop_assume!(pre.abs() > 0.05);
        }
        let tx = Tensor::from_vec([3, 4], x).unwrap();
        let tb = Tensor::from_vec([4], b).unwrap();
        let reports = check_gradients(&[tx, tb], EPS, |g, ids| {
            let y = g.add_bias(ids[0], ids[1])?;
            let r = g.relu(y);
            Ok(g.mean_all(r))
        }).unwrap();
        for r in reports {
            prop_assert!(r.within(TOL), "{r:?}");
        }
    }
}

#[test]
fn values_match_between_graph_and_kernels() {
    // The graph wrappers must produce exactly the kernel outputs.
    let x = Tensor::from_vec([1, 1, 3, 3], (0..9).map(|v| v as f32).collect()).unwrap();
    let w = Tensor::ones([1, 1, 2, 2]);
    let direct = sdc_tensor::ops::conv::conv2d_forward(&x, &w, 1, 0).unwrap();
    let mut g = Graph::new();
    let xi = g.leaf(x);
    let wi = g.leaf(w);
    let y = g.conv2d(xi, wi, 1, 0).unwrap();
    assert_eq!(g.value(y), &direct);
}
