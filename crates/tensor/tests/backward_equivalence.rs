//! Level-scheduled backward equivalence: [`Graph::backward`] must be
//! **bit-identical** to the retained serial sweep
//! ([`Graph::backward_serial`]) on every node's gradient, at thread
//! counts 1/2/7, over tape shapes chosen to stress the scheduler —
//! diamond tapes (shared subexpressions feeding consumers at different
//! wavefront levels), wide fan-out onto one gradient slot, a conv/bn
//! pipeline with a contrastive head that records every op kind, random
//! DAGs over the rank-2 ops, and re-swept tapes (the double-backward stale-gradient regression). Every tape is
//! swept twice, so re-sweeps of the matmul tower pair and of a conv
//! with a deep patch whose output positions end off an `NR` edge ride
//! the same harness. The conv kernels themselves are checked
//! against the column-matrix references: the direct forward against
//! `im2col` → naive GEMM, the input and weight gradients against
//! `col2im(g · W)` and `gᵀ · cols`.
//!
//! CI runs this suite under `SDC_THREADS=7` like the gemm suite; the
//! explicit `Runtime::install` scopes below make the thread counts
//! independent of the environment either way.

use proptest::prelude::*;
use sdc_runtime::Runtime;
use sdc_tensor::ops::conv::{col2im, conv2d_backward, conv2d_forward, conv_out_dim, im2col, MR};
use sdc_tensor::ops::gemm::{self, Trans};
use sdc_tensor::ops::matmul::{matmul, matmul_tn};
use sdc_tensor::{Graph, Tensor, VarId};

/// Thread counts exercised everywhere: serial, even, and an odd
/// non-divisor of typical level widths.
const THREADS: [usize; 3] = [1, 2, 7];

fn rand_t(shape: impl Into<sdc_tensor::Shape>, seed: u64) -> Tensor {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    Tensor::randn(shape, 1.0, &mut rng)
}

/// Asserts `got` is bitwise equal to `want` (shape and every element).
fn assert_bits_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{ctx}: element {i} differs: {x} vs {y}");
    }
}

/// Asserts every tracked node holds bitwise-identical gradients (or
/// identically holds none — unreachable nodes must stay untouched).
fn assert_same_grads(got: &Graph, want: &Graph, ids: &[VarId], ctx: &str) {
    for (k, &id) in ids.iter().enumerate() {
        match (got.grad(id), want.grad(id)) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_bits_eq(a, b, &format!("{ctx}: node {k}")),
            (a, b) => panic!(
                "{ctx}: node {k} gradient presence differs: {} vs {}",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

/// Builds the graph twice, runs the serial reference on one copy and
/// the level scheduler on the other at every thread count, and compares
/// all gradients bitwise — then sweeps the same scheduled tape a second
/// time (cleared slots) and compares again.
fn check_scheduler_vs_serial(build: impl Fn(&mut Graph) -> (VarId, Vec<VarId>), ctx: &str) {
    let mut reference = Graph::new();
    let (loss, ids) = build(&mut reference);
    Runtime::new(1).install(|| reference.backward_serial(loss).unwrap());
    for threads in THREADS {
        let mut g = Graph::new();
        let (loss_again, ids_again) = build(&mut g);
        assert_eq!(loss_again, loss, "{ctx}: builder is not deterministic");
        assert_eq!(ids_again, ids, "{ctx}: builder is not deterministic");
        for sweep in 1..=2 {
            Runtime::new(threads).install(|| g.backward(loss).unwrap());
            let what = format!("{ctx} threads={threads} sweep={sweep}");
            assert_same_grads(&g, &reference, &ids, &what);
        }
    }
}

/// Two encoder-style towers sharing no nodes until the contrastive
/// head — the tape shape the level scheduler exists to overlap. With
/// `n = 64`, `d = 128` the tower levels are wide enough to take the
/// pool fan-out path, and the matmuls split across pool chunks. Weights
/// are stored transposed, `(out, in)` as `sdc-nn`'s `Linear` stores
/// them, so each layer is `x · wᵀ`.
fn tower_pair(g: &mut Graph) -> (VarId, Vec<VarId>) {
    let (n, d) = (64, 128);
    let mut ids = Vec::new();
    let track = |id: VarId, ids: &mut Vec<VarId>| {
        ids.push(id);
        id
    };
    let tower = |g: &mut Graph, ids: &mut Vec<VarId>, seed: u64| {
        let x = track(g.leaf(rand_t([n, d], seed)), ids);
        let w1 = track(g.leaf(rand_t([d, d], seed + 1)), ids);
        let b1 = track(g.leaf(rand_t([d], seed + 2)), ids);
        let w2 = track(g.leaf(rand_t([d, d], seed + 3)), ids);
        let h = track(g.matmul_nt(x, w1).unwrap(), ids);
        let h = track(g.add_bias(h, b1).unwrap(), ids);
        let h = track(g.relu(h), ids);
        let p = track(g.matmul_nt(h, w2).unwrap(), ids);
        track(g.l2_normalize_rows(p).unwrap(), ids)
    };
    let z1 = tower(g, &mut ids, 100);
    let z2 = tower(g, &mut ids, 200);
    let sim = track(g.matmul_nt(z1, z2).unwrap(), &mut ids);
    let lp = track(g.log_softmax(sim).unwrap(), &mut ids);
    let loss = track(g.nll_loss(lp, (0..n).collect()).unwrap(), &mut ids);
    (loss, ids)
}

/// A diamond with reconvergent paths of different lengths: shared
/// subexpressions are consumed at *different* wavefront levels, so
/// their gradient slots receive contributions across several level
/// flushes — the ordering the scheduler must reproduce exactly.
fn diamond(g: &mut Graph) -> (VarId, Vec<VarId>) {
    let x = g.leaf(rand_t([4, 4], 7));
    let y = g.leaf(rand_t([4, 4], 8));
    let z = g.matmul_nt(x, y).unwrap();
    let a = g.add(z, x).unwrap();
    let b = g.matmul_nt(z, y).unwrap();
    let nb = g.scale(b, -0.5);
    let c = g.add(a, nb).unwrap();
    let d = g.relu(c);
    let e = g.matmul_nt(d, a).unwrap(); // `a` re-consumed three levels later
    let f = g.add(e, x).unwrap(); // `x` consumed at three distinct levels
    let loss = g.mean_all(f);
    (loss, vec![x, y, z, a, b, nb, c, d, e, f, loss])
}

/// One leaf fanned out to many consumers — some in the same level,
/// some at different depths — so its gradient slot folds 6+ buffered
/// contributions; floating-point order sensitivity makes any deviation
/// from the serial accumulation order visible bitwise.
fn wide_fanout(g: &mut Graph) -> (VarId, Vec<VarId>) {
    let x = g.leaf(rand_t([8, 8], 21));
    let mut ids = vec![x];
    let mut acc = g.scale(x, 0.5);
    ids.push(acc);
    for k in 0..6 {
        // Chains of varying length keep the consumers of `x` spread
        // across levels; same-level consumers also exist (each `add`).
        let mut t = g.scale(x, 0.1 + k as f32 * 0.3);
        ids.push(t);
        for depth in 0..k % 3 {
            t = if depth == 0 { g.l2_normalize_rows(t).unwrap() } else { g.relu(t) };
            ids.push(t);
        }
        acc = g.add(acc, t).unwrap();
        ids.push(acc);
    }
    let loss = g.mean_all(acc);
    ids.push(loss);
    (loss, ids)
}

/// A conv → strided conv → batch-norm → relu → pool pipeline feeding a
/// contrastive head (bias, ℓ2-normalize, concat, similarity matrix,
/// diagonal mask, log-softmax, NLL) and a linear read-out: one tape
/// recording every op kind `Graph` has.
fn conv_and_misc_ops(g: &mut Graph) -> (VarId, Vec<VarId>) {
    let mut ids = Vec::new();
    let x = g.leaf(rand_t([2, 3, 8, 8], 31));
    let w = g.leaf(rand_t([4, 3, 3, 3], 32));
    let w2 = g.leaf(rand_t([4, 4, 3, 3], 34));
    let gamma = g.leaf(rand_t([4], 35));
    let beta = g.leaf(rand_t([4], 36));
    ids.extend([x, w, w2, gamma, beta]);
    let c = g.conv2d(x, w, 1, 1).unwrap();
    let c2 = g.conv2d(c, w2, 2, 1).unwrap();
    let (bn, _) = g.batch_norm2d(c2, gamma, beta, 1e-5, None).unwrap();
    let r = g.relu(bn);
    let gp = g.global_avg_pool(r).unwrap(); // (2, 4)
    ids.extend([c, c2, bn, r, gp]);

    let hb = g.leaf(rand_t([4], 37));
    let h = g.add_bias(gp, hb).unwrap();
    let z = g.l2_normalize_rows(h).unwrap();
    let cat = g.concat0(z, gp).unwrap(); // (4, 4)
    let sim = g.matmul_nt(cat, cat).unwrap();
    let scaled = g.scale(sim, 2.0);
    let diag: Vec<bool> = (0..16).map(|i| i / 4 == i % 4).collect();
    let masked = g.masked_fill(scaled, diag, -1e9).unwrap();
    let lp = g.log_softmax(masked).unwrap();
    let nll = g.nll_loss(lp, vec![2, 3, 0, 1]).unwrap();
    ids.extend([hb, h, z, cat, sim, scaled, masked, lp, nll]);

    let wl = g.leaf(rand_t([4, 4], 38));
    let read = g.matmul_nt(cat, wl).unwrap();
    let mean = g.mean_all(read);
    let loss = g.add(nll, mean).unwrap();
    ids.extend([wl, read, mean, loss]);
    (loss, ids)
}

#[test]
fn tower_pair_matches_serial_bitwise() {
    check_scheduler_vs_serial(tower_pair, "tower_pair");
}

#[test]
fn diamond_tapes_match_serial_bitwise() {
    check_scheduler_vs_serial(diamond, "diamond");
}

#[test]
fn wide_fanout_matches_serial_bitwise() {
    check_scheduler_vs_serial(wide_fanout, "wide_fanout");
}

#[test]
fn conv_pipeline_and_misc_ops_match_serial_bitwise() {
    check_scheduler_vs_serial(conv_and_misc_ops, "conv_and_misc_ops");
}

/// Regression for the stale-gradient bug: `backward` twice on one tape
/// must equal `backward` once (the old sweep doubled every gradient on
/// the second call by accumulating into the stale slots).
#[test]
fn double_backward_equals_single_backward() {
    for threads in THREADS {
        Runtime::new(threads).install(|| {
            let mut reference = Graph::new();
            let (loss, ids) = diamond(&mut reference);
            reference.backward(loss).unwrap();

            let mut g = Graph::new();
            let (loss_again, _) = diamond(&mut g);
            g.backward(loss_again).unwrap();
            g.backward(loss_again).unwrap();
            assert_same_grads(&g, &reference, &ids, &format!("double backward threads={threads}"));
        });
    }
}

/// Mixing the two entry points across sweeps of one tape is also
/// stable: serial-then-scheduled equals scheduled alone.
#[test]
fn serial_then_scheduled_resweep_matches() {
    let mut reference = Graph::new();
    let (loss, ids) = tower_pair(&mut reference);
    Runtime::new(2).install(|| reference.backward(loss).unwrap());

    let mut g = Graph::new();
    let (loss_again, _) = tower_pair(&mut g);
    Runtime::new(2).install(|| {
        g.backward_serial(loss_again).unwrap();
        g.backward(loss_again).unwrap();
    });
    assert_same_grads(&g, &reference, &ids, "serial-then-scheduled");
}

/// Re-swept tapes: the second and third sweeps start from cleared slots
/// and repack every matmul operand, and must reproduce the serial
/// reference bitwise.
#[test]
fn tower_pair_resweeps_match_serial_bitwise() {
    let mut reference = Graph::new();
    let (loss, ids) = tower_pair(&mut reference);
    Runtime::new(1).install(|| reference.backward_serial(loss).unwrap());
    for threads in THREADS {
        let mut g = Graph::new();
        let (loss_again, _) = tower_pair(&mut g);
        Runtime::new(threads).install(|| {
            for _ in 0..3 {
                g.backward(loss_again).unwrap();
            }
        });
        assert_same_grads(&g, &reference, &ids, &format!("resweep threads={threads}"));
    }
}

/// A conv with a deep patch dimension (29·3·3 = 261) and whose output
/// positions (2·5·5 = 50) are not a multiple of `NR`, with padding —
/// the hardest alignment case for the direct forward's tiles and the
/// weight gradient's tap tiles.
fn conv_panel_straddle(g: &mut Graph) -> (VarId, Vec<VarId>) {
    let x = g.leaf(rand_t([2 * 29 * 5 * 5], 61).reshape([2, 29, 5, 5]).unwrap());
    let w = g.leaf(rand_t([4 * 29 * 3 * 3], 62).reshape([4, 29, 3, 3]).unwrap());
    let c = g.conv2d(x, w, 1, 1).unwrap();
    let r = g.relu(c);
    let loss = g.mean_all(r);
    (loss, vec![x, w, c, r, loss])
}

/// Both sweeps must equal the serial reference bitwise.
#[test]
fn conv_shapes_straddling_panel_boundaries_match_serial_bitwise() {
    check_scheduler_vs_serial(conv_panel_straddle, "conv_panel_straddle");
}

/// Conv inputs for the kernel gates below, with their `c_out`: 1×1
/// images, `oh·ow` off a multiple of `NR` (6×6), a deep patch
/// (`c_in·k² = 261` at `k = 3`), the bench encoder's stage-0 and stage-1
/// widths (`c_out` 16 and 32: one and two 16-channel weight tiles), and
/// `c_out` values that are not multiples of the tile height `MR` (17
/// spans three forward tiles and ends its weight tiles on a single
/// vector; 35 takes two 16-channel weight tiles and then one vector).
/// Tap counts such as `3·3² = 27` are not multiples of `TAP_BLOCK`.
const CONV_CASES: [([usize; 4], usize); 10] = [
    ([1, 1, 1, 1], 2),
    ([3, 2, 1, 1], 3),
    ([2, 3, 5, 5], 4),
    ([1, 4, 6, 6], 5),
    ([2, 29, 5, 5], 3),
    ([2, 16, 12, 12], 16),
    ([2, 32, 6, 6], 32),
    ([3, 5, 7, 4], 6),
    ([2, 3, 9, 7], 2 * MR + 1),
    ([1, 2, 5, 5], 4 * MR + 3),
];

/// Every `k, s ∈ {1, 2, 3}`, `p ∈ {0, 1, 2}` whose kernel fits an
/// `h × w` input padded by `p`.
fn conv_geometries(h: usize, w: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (1..=3)
        .flat_map(|k| (1..=3).flat_map(move |s| (0..=2).map(move |p| (k, s, p))))
        .filter(move |&(k, _, p)| k <= h + 2 * p && k <= w + 2 * p)
}

/// The input batch of conv case `case`, with a `-0.0` at its first
/// element.
fn conv_input(case: usize, shape: [usize; 4]) -> Tensor {
    let mut x = rand_t(shape, 70 + 10 * case as u64);
    x.data_mut()[0] = -0.0;
    x
}

/// The direct conv forward against its column-matrix reference,
/// `im2col` → `gemm::naive` (`cols · Wᵀ`), bit for bit, on 1-, 2- and
/// 7-thread runtimes, over every case and geometry above (strides 2 and
/// 3 split the padded input into phases; `k < s` builds only some of
/// them).
#[test]
fn conv_forward_matches_im2col_reference_bitwise() {
    for (case, &(shape, c_out)) in CONV_CASES.iter().enumerate() {
        let [n, c_in, h, w] = shape;
        let seed = 70 + 10 * case as u64;
        let x = conv_input(case, shape);
        for (k, s, p) in conv_geometries(h, w) {
            let ctx = format!("{shape:?} c_out={c_out} k{k} s{s} p{p}");
            let wt = rand_t([c_out, c_in, k, k], seed + 1);
            let (oh, ow) = (conv_out_dim(h, k, s, p), conv_out_dim(w, k, s, p));
            let want = Runtime::new(1).install(|| {
                let cols = im2col(&x, k, s, p).unwrap();
                let wmat = wt.reshape([c_out, c_in * k * k]).unwrap();
                let prod = gemm::naive(&cols, Trans::N, &wmat, Trans::T).unwrap();
                let mut y = Tensor::zeros([n, c_out, oh, ow]);
                for (i, &v) in prod.data().iter().enumerate() {
                    let (ni, pos, co) = (i / (oh * ow * c_out), i / c_out % (oh * ow), i % c_out);
                    y.data_mut()[(ni * c_out + co) * oh * ow + pos] = v;
                }
                y
            });
            for threads in THREADS {
                Runtime::new(threads).install(|| {
                    let y = conv2d_forward(&x, &wt, s, p).unwrap();
                    assert_bits_eq(&y, &want, &format!("{ctx} threads={threads}"));
                });
            }
        }
    }
}

/// The conv input gradient against its column-matrix reference,
/// `col2im(gmat · W)` built from the same `gy` (`gmat` is `gy` laid out
/// `(n·oh·ow) × c_out`), bit for bit on 1-, 2- and 7-thread runtimes;
/// the weight gradient is checked against `gmatᵀ · cols` on the way,
/// with and without the input gradient. The input gradient's tiles must
/// give every pixel its contributions in col2im's order: visiting a
/// phase's taps in ascending `(ky, kx)` order fails here. Cases and
/// geometries as for the forward, plus a `-0.0` in `gy`.
#[test]
fn conv_input_gradient_matches_col2im_reference_bitwise() {
    for (case, &(shape, c_out)) in CONV_CASES.iter().enumerate() {
        let [n, c_in, h, w] = shape;
        let seed = 70 + 10 * case as u64;
        let x = conv_input(case, shape);
        for (k, s, p) in conv_geometries(h, w) {
            let ctx = format!("{shape:?} c_out={c_out} k{k} s{s} p{p}");
            let wt = rand_t([c_out, c_in, k, k], seed + 1);
            let (oh, ow) = (conv_out_dim(h, k, s, p), conv_out_dim(w, k, s, p));
            let mut gy = rand_t([n, c_out, oh, ow], seed + 2);
            gy.data_mut()[0] = -0.0;
            let (dx_ref, dw_ref) = Runtime::new(1).install(|| {
                let mut gmat = Tensor::zeros([n * oh * ow, c_out]);
                let gm = gmat.data_mut();
                for (i, &v) in gy.data().iter().enumerate() {
                    let (ni, co, pos) =
                        (i / (c_out * oh * ow), i / (oh * ow) % c_out, i % (oh * ow));
                    gm[(ni * oh * ow + pos) * c_out + co] = v;
                }
                let wmat = wt.reshape([c_out, c_in * k * k]).unwrap();
                let dcols = matmul(&gmat, &wmat).unwrap();
                let dx = col2im(&dcols, n, c_in, h, w, k, s, p).unwrap();
                let dw = matmul_tn(&gmat, &im2col(&x, k, s, p).unwrap()).unwrap();
                (dx, dw.reshape(wt.shape().clone()).unwrap())
            });
            for threads in THREADS {
                Runtime::new(threads).install(|| {
                    let (dx, dw) = conv2d_backward(&x, &wt, &gy, s, p, true).unwrap();
                    assert_bits_eq(&dx.unwrap(), &dx_ref, &format!("{ctx} threads={threads}: dx"));
                    assert_bits_eq(&dw, &dw_ref, &format!("{ctx} threads={threads}: dw"));
                    let (dx, dw) = conv2d_backward(&x, &wt, &gy, s, p, false).unwrap();
                    assert!(dx.is_none(), "{ctx} threads={threads}: dx not wanted");
                    assert_bits_eq(&dw, &dw_ref, &format!("{ctx} threads={threads}: dw alone"));
                });
            }
        }
    }
}

/// A tiny deterministic PRNG for the proptest DAG builder (avoids
/// depending on any particular `rand` API surface for integers).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E3779B97F4A7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds a random DAG over every rank-2 op that maps `(6, 6)` to
/// `(6, 6)`, with heavy node reuse — every op picks its inputs
/// uniformly from all earlier `(6, 6)` nodes, so shared subexpressions
/// and multi-level fan-in arise constantly. `add_bias` draws on one
/// shared `(6)` bias leaf, so that leaf's slot folds contributions from
/// across the tape.
fn random_dag(seed: u64, ops: usize) -> impl Fn(&mut Graph) -> (VarId, Vec<VarId>) {
    move |g: &mut Graph| {
        let mut rng = XorShift(seed);
        let bias = g.leaf(rand_t([6], seed + 3));
        let mut nodes = vec![
            g.leaf(rand_t([6, 6], seed)),
            g.leaf(rand_t([6, 6], seed + 1)),
            g.leaf(rand_t([6, 6], seed + 2)),
        ];
        for _ in 0..ops {
            let a = nodes[rng.below(nodes.len())];
            let b = nodes[rng.below(nodes.len())];
            let id = match rng.below(9) {
                0 => g.add(a, b).unwrap(),
                1 => g.scale(a, 0.5),
                2 => g.add_bias(a, bias).unwrap(),
                3 => g.matmul_nt(b, a).unwrap(),
                4 => g.matmul_nt(a, b).unwrap(),
                5 => g.relu(a),
                6 => {
                    let mask = (0..36).map(|_| rng.below(4) == 0).collect();
                    g.masked_fill(a, mask, -1.0).unwrap()
                }
                7 => g.l2_normalize_rows(a).unwrap(),
                _ => g.log_softmax(a).unwrap(),
            };
            nodes.push(id);
        }
        // Fold a few random picks into the loss so late nodes (and, by
        // reuse, much of the tape) are reachable; the rest remain
        // unreachable on purpose — both sweeps must leave them alone.
        let mut acc = *nodes.last().unwrap();
        for _ in 0..3 {
            acc = g.add(acc, nodes[rng.below(nodes.len())]).unwrap();
            nodes.push(acc);
        }
        let loss = g.mean_all(acc);
        let mut ids = nodes;
        ids.extend([bias, loss]);
        (loss, ids)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_dags_match_serial_bitwise(seed in 0u64..10_000, ops in 4usize..40) {
        check_scheduler_vs_serial(random_dag(seed, ops), &format!("dag seed={seed} ops={ops}"));
    }
}
