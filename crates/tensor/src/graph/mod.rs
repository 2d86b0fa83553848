//! Reverse-mode automatic differentiation on a tape of operations.
//!
//! A [`Graph`] is a write-once tape: every operation appends a node whose
//! parents are earlier nodes, so node indices are already a topological
//! order. [`Graph::backward`] runs the reverse sweep **level-scheduled**:
//! a one-pass dependency analysis assigns every reachable node its
//! longest-path distance from the loss, and all nodes sharing a level —
//! which by construction cannot depend on one another — run their
//! gradient computation concurrently on the `sdc-runtime` pool (see
//! [`sched`](self) internals). Results are bit-identical to the retained
//! serial reference ([`Graph::backward_serial`]) at every thread count.
//! Graphs are intended to be built fresh for every training step and
//! dropped afterwards; parameters live outside the graph and are
//! re-inserted as leaves each step.
//!
//! ```
//! use sdc_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?);
//! let y = g.scale(x, 3.0);
//! let loss = g.mean_all(y);
//! g.backward(loss)?;
//! // d(mean(3x))/dx = 3/4 everywhere.
//! assert_eq!(g.grad(x).unwrap().data(), &[0.75; 4]);
//! # Ok::<(), sdc_tensor::TensorError>(())
//! ```

use crate::error::{Result, TensorError};
use crate::ops::conv::{conv2d_backward, conv2d_forward};
use crate::ops::matmul::{matmul, matmul_nt, matmul_tn};
use crate::ops::norm::{
    batch_norm2d_backward, batch_norm2d_forward, l2_normalize_rows_forward, BnBatchStats, BnSaved,
};
use crate::ops::pool::{global_avg_pool_backward, global_avg_pool_forward};
use crate::ops::softmax::{log_softmax_forward, nll_backward, nll_forward};
use crate::simd::{self, RowNorms, UnaryKernel};
use crate::Tensor;

mod sched;

/// Handle to a node in a [`Graph`].
///
/// A `VarId` is only meaningful for the graph that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The node's index on the tape (primarily for debugging).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The tape's op kinds: the ones the models, trainer and probe record,
/// plus `MeanAll`, the scalar loss the gradient-check and equivalence
/// suites reduce their tapes to.
#[derive(Debug)]
enum Op {
    Leaf,
    /// A leaf that takes no gradient: contributions to it are dropped
    /// and ops may skip computing them.
    Constant,
    Add(VarId, VarId),
    Scale(VarId, f32),
    AddBias {
        x: VarId,
        b: VarId,
    },
    MatmulNt(VarId, VarId),
    Relu(VarId),
    Conv2d {
        x: VarId,
        w: VarId,
        stride: usize,
        padding: usize,
    },
    GlobalAvgPool(VarId),
    BatchNorm2d {
        x: VarId,
        gamma: VarId,
        beta: VarId,
        saved: BnSaved,
    },
    Concat0 {
        a: VarId,
        b: VarId,
        split: usize,
    },
    L2NormalizeRows {
        x: VarId,
        norms: RowNorms,
    },
    LogSoftmax(VarId),
    NllLoss {
        logp: VarId,
        targets: Vec<usize>,
    },
    MaskedFill {
        x: VarId,
        mask: Vec<bool>,
    },
    MeanAll(VarId),
}

impl Op {
    /// Invokes `f` with the tape index of every parent this node sends a
    /// gradient contribution to in [`Graph::backward`] (duplicates
    /// included when one input is used twice).
    ///
    /// The level scheduler derives its dependency analysis from this
    /// enumeration, so it must stay in sync with the contribution
    /// targets `backward_node` emits: the exhaustive match makes a new
    /// op variant a compile error here rather than a scheduling bug.
    fn for_each_parent(&self, mut f: impl FnMut(usize)) {
        match self {
            Op::Leaf | Op::Constant => {}
            Op::Add(a, b)
            | Op::MatmulNt(a, b)
            | Op::Concat0 { a, b, .. }
            | Op::AddBias { x: a, b } => {
                f(a.0);
                f(b.0);
            }
            Op::Scale(x, _)
            | Op::Relu(x)
            | Op::GlobalAvgPool(x)
            | Op::LogSoftmax(x)
            | Op::MeanAll(x)
            | Op::L2NormalizeRows { x, .. }
            | Op::MaskedFill { x, .. } => f(x.0),
            Op::NllLoss { logp: x, .. } => f(x.0),
            Op::Conv2d { x, w, .. } => {
                f(x.0);
                f(w.0);
            }
            Op::BatchNorm2d { x, gamma, beta, .. } => {
                f(x.0);
                f(gamma.0);
                f(beta.0);
            }
        }
    }
}

#[derive(Debug)]
struct Node {
    op: Op,
    value: Tensor,
    grad: Option<Tensor>,
}

/// A reverse-mode autodiff tape.
///
/// See the crate-level documentation for an overview and a worked
/// example of the leaf → ops → backward → grad cycle.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts a value as a leaf node and returns its handle.
    ///
    /// Gradients accumulate on every node, so leaves representing model
    /// parameters can be read back with [`Graph::grad`] after
    /// [`Graph::backward`].
    pub fn leaf(&mut self, value: Tensor) -> VarId {
        self.push(Op::Leaf, value)
    }

    /// Inserts a value as a leaf that takes no gradient: [`Graph::grad`]
    /// stays `None` after [`Graph::backward`], and ops skip work that
    /// only its gradient would need (a conv over a constant input
    /// computes no input gradient). For inputs such as image batches.
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.push(Op::Constant, value)
    }

    /// Whether node `id` was inserted by [`Graph::constant`].
    fn is_constant(&self, id: VarId) -> bool {
        matches!(self.nodes[id.0].op, Op::Constant)
    }

    /// The value held by node `id`.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// The gradient accumulated on node `id`, if backward has reached it.
    pub fn grad(&self, id: VarId) -> Option<&Tensor> {
        self.nodes[id.0].grad.as_ref()
    }

    fn push(&mut self, op: Op, value: Tensor) -> VarId {
        self.nodes.push(Node { op, value, grad: None });
        VarId(self.nodes.len() - 1)
    }

    /// Elementwise sum of two same-shaped nodes.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes differ.
    pub fn add(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let va = &self.nodes[a.0].value;
        let vb = &self.nodes[b.0].value;
        if va.shape() != vb.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: va.shape().clone(),
                rhs: vb.shape().clone(),
            });
        }
        let value = va.zip_map(vb, |x, y| x + y)?;
        Ok(self.push(Op::Add(a, b), value))
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, x: VarId, c: f32) -> VarId {
        let value = simd::unary(UnaryKernel::Scale { c }, &self.nodes[x.0].value);
        self.push(Op::Scale(x, c), value)
    }

    /// Adds a `(d)` bias vector to every row of an `(n, d)` node.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` is not rank-2 or the widths disagree.
    pub fn add_bias(&mut self, x: VarId, b: VarId) -> Result<VarId> {
        let vx = &self.nodes[x.0].value;
        let vb = &self.nodes[b.0].value;
        let (n, d) = vx.shape().as_matrix().ok_or_else(|| TensorError::RankMismatch {
            op: "add_bias",
            expected: 2,
            actual: vx.shape().clone(),
        })?;
        if vb.len() != d {
            return Err(TensorError::ShapeMismatch {
                op: "add_bias",
                lhs: vx.shape().clone(),
                rhs: vb.shape().clone(),
            });
        }
        let mut value = vx.clone();
        {
            let vd = value.data_mut();
            let bd = vb.data();
            for i in 0..n {
                for j in 0..d {
                    vd[i * d + j] += bd[j];
                }
            }
        }
        Ok(self.push(Op::AddBias { x, b }, value))
    }

    /// Matrix product `a · bᵀ` — the similarity-matrix building block.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or shared-dimension mismatches.
    pub fn matmul_nt(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = matmul_nt(&self.nodes[a.0].value, &self.nodes[b.0].value)?;
        Ok(self.push(Op::MatmulNt(a, b), value))
    }

    /// Rectified linear unit, `max(x, 0)` elementwise.
    pub fn relu(&mut self, x: VarId) -> VarId {
        let value = simd::unary(UnaryKernel::Relu, &self.nodes[x.0].value);
        self.push(Op::Relu(x), value)
    }

    /// 2-D convolution of `x: (n, c_in, h, w)` with `w: (c_out, c_in, k, k)`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/channel mismatches or zero stride.
    pub fn conv2d(&mut self, x: VarId, w: VarId, stride: usize, padding: usize) -> Result<VarId> {
        let value =
            conv2d_forward(&self.nodes[x.0].value, &self.nodes[w.0].value, stride, padding)?;
        Ok(self.push(Op::Conv2d { x, w, stride, padding }, value))
    }

    /// Global average pooling `(n, c, h, w) -> (n, c)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not rank-4.
    pub fn global_avg_pool(&mut self, x: VarId) -> Result<VarId> {
        let value = global_avg_pool_forward(&self.nodes[x.0].value)?;
        Ok(self.push(Op::GlobalAvgPool(x), value))
    }

    /// Batch normalization of `x: (n, c, h, w)` with per-channel `gamma`
    /// and `beta` parameters.
    ///
    /// Pass `stats: None` for training mode (statistics computed from the
    /// batch and returned) or `Some((mean, var))` for evaluation mode.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/channel mismatches.
    pub fn batch_norm2d(
        &mut self,
        x: VarId,
        gamma: VarId,
        beta: VarId,
        eps: f32,
        stats: Option<(&[f32], &[f32])>,
    ) -> Result<(VarId, Option<BnBatchStats>)> {
        let (value, saved, batch_stats) = batch_norm2d_forward(
            &self.nodes[x.0].value,
            &self.nodes[gamma.0].value,
            &self.nodes[beta.0].value,
            eps,
            stats,
        )?;
        let id = self.push(Op::BatchNorm2d { x, gamma, beta, saved }, value);
        Ok((id, batch_stats))
    }

    /// Concatenates two rank-2 nodes along axis 0.
    ///
    /// # Errors
    ///
    /// Returns an error if either node is not rank-2 or widths differ.
    pub fn concat0(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let va = &self.nodes[a.0].value;
        let vb = &self.nodes[b.0].value;
        let (na, da) = va.shape().as_matrix().ok_or_else(|| TensorError::RankMismatch {
            op: "concat0",
            expected: 2,
            actual: va.shape().clone(),
        })?;
        let (nb, db) = vb.shape().as_matrix().ok_or_else(|| TensorError::RankMismatch {
            op: "concat0",
            expected: 2,
            actual: vb.shape().clone(),
        })?;
        if da != db {
            return Err(TensorError::ShapeMismatch {
                op: "concat0",
                lhs: va.shape().clone(),
                rhs: vb.shape().clone(),
            });
        }
        let mut data = Vec::with_capacity((na + nb) * da);
        data.extend_from_slice(va.data());
        data.extend_from_slice(vb.data());
        let value = Tensor::from_vec([na + nb, da], data)?;
        Ok(self.push(Op::Concat0 { a, b, split: na * da }, value))
    }

    /// ℓ2-normalizes every row of a rank-2 node.
    ///
    /// # Errors
    ///
    /// Returns an error if the node is not rank-2.
    pub fn l2_normalize_rows(&mut self, x: VarId) -> Result<VarId> {
        let (value, norms) = l2_normalize_rows_forward(&self.nodes[x.0].value, 1e-12)?;
        Ok(self.push(Op::L2NormalizeRows { x, norms }, value))
    }

    /// Row-wise log-softmax of a rank-2 node.
    ///
    /// # Errors
    ///
    /// Returns an error if the node is not rank-2.
    pub fn log_softmax(&mut self, x: VarId) -> Result<VarId> {
        let value = log_softmax_forward(&self.nodes[x.0].value)?;
        Ok(self.push(Op::LogSoftmax(x), value))
    }

    /// Mean negative log-likelihood of `logp` rows at `targets`. Returns a
    /// scalar node.
    ///
    /// # Errors
    ///
    /// Returns an error on rank, length, or index violations.
    pub fn nll_loss(&mut self, logp: VarId, targets: Vec<usize>) -> Result<VarId> {
        let loss = nll_forward(&self.nodes[logp.0].value, &targets)?;
        Ok(self.push(Op::NllLoss { logp, targets }, Tensor::scalar(loss)))
    }

    /// Replaces elements where `mask` is `true` with `value`; gradient is
    /// blocked at masked positions.
    ///
    /// # Errors
    ///
    /// Returns an error if the mask length differs from the element count.
    pub fn masked_fill(&mut self, x: VarId, mask: Vec<bool>, value: f32) -> Result<VarId> {
        let vx = &self.nodes[x.0].value;
        if mask.len() != vx.len() {
            return Err(TensorError::InvalidArgument {
                op: "masked_fill",
                message: format!("mask length {} != element count {}", mask.len(), vx.len()),
            });
        }
        let mut out = vx.clone();
        for (v, &m) in out.data_mut().iter_mut().zip(&mask) {
            if m {
                *v = value;
            }
        }
        Ok(self.push(Op::MaskedFill { x, mask }, out))
    }

    /// Mean of all elements. Returns a scalar node.
    pub fn mean_all(&mut self, x: VarId) -> VarId {
        let value = Tensor::scalar(self.nodes[x.0].value.mean());
        self.push(Op::MeanAll(x), value)
    }

    /// Clears every gradient slot on the tape.
    ///
    /// Both backward entry points call this before seeding the loss, so
    /// re-sweeping a tape starts from a clean slate instead of silently
    /// accumulating into the previous sweep's gradients.
    fn clear_grads(&mut self) {
        for node in &mut self.nodes {
            node.grad = None;
        }
    }

    /// Validates the loss node, discards any gradients left by a
    /// previous sweep, and seeds `d loss / d loss = 1`.
    fn seed_loss(&mut self, loss: VarId) -> Result<()> {
        if self.nodes[loss.0].value.len() != 1 {
            return Err(TensorError::InvalidArgument {
                op: "backward",
                message: format!(
                    "loss must be scalar, got shape {}",
                    self.nodes[loss.0].value.shape()
                ),
            });
        }
        self.clear_grads();
        let shape = self.nodes[loss.0].value.shape().clone();
        self.nodes[loss.0].grad = Some(Tensor::full(shape, 1.0));
        Ok(())
    }

    /// The serial reverse sweep from `loss` — the reference
    /// implementation the level-scheduled [`Graph::backward`] is tested
    /// bit-for-bit against (`crates/tensor/tests/backward_equivalence.rs`).
    ///
    /// Semantics are identical to `backward`: stale gradients from a
    /// previous sweep are cleared first, and an error mid-sweep clears
    /// every gradient slot so callers can never observe a half-swept
    /// tape.
    ///
    /// # Errors
    ///
    /// Returns an error if `loss` is not a single-element node, or if a
    /// node's gradient computation fails (the tape then holds no
    /// gradients at all).
    pub fn backward_serial(&mut self, loss: VarId) -> Result<()> {
        self.seed_loss(loss)?;
        for i in (0..=loss.0).rev() {
            let Some(g) = self.nodes[i].grad.take() else { continue };
            let contribs = match self.backward_node(i, &g) {
                Ok(contribs) => contribs,
                Err(e) => {
                    // A half-swept tape holds torn gradients; make the
                    // failure state unambiguous instead.
                    self.clear_grads();
                    return Err(e);
                }
            };
            self.nodes[i].grad = Some(g);
            for (pid, t) in contribs {
                self.accumulate(pid, t);
            }
        }
        Ok(())
    }

    /// Adds `t` into node `id`'s gradient slot (installing it if empty).
    /// A contribution to a constant is dropped.
    fn accumulate(&mut self, id: usize, t: Tensor) {
        if self.is_constant(VarId(id)) {
            return;
        }
        match &mut self.nodes[id].grad {
            Some(g) => g.add_assign_scaled(&t, 1.0),
            slot @ None => *slot = Some(t),
        }
    }

    fn backward_node(&self, i: usize, g: &Tensor) -> Result<Vec<(usize, Tensor)>> {
        let node = &self.nodes[i];
        let out = match &node.op {
            Op::Leaf | Op::Constant => vec![],
            Op::Add(a, b) => vec![(a.0, g.clone()), (b.0, g.clone())],
            Op::Scale(x, c) => vec![(x.0, simd::unary(UnaryKernel::Scale { c: *c }, g))],
            Op::AddBias { x, b } => {
                // The bias gradient is the column sum of the upstream
                // gradient, chunked by columns over the worker pool.
                let gb = simd::sum_cols(g)?;
                vec![(x.0, g.clone()), (b.0, gb)]
            }
            // Gradient products run on the gemm tile; the transposed
            // operand of `matmul_tn` is read through the packer's
            // strided view, so backward allocates no transposed copies
            // of activations or upstream gradients.
            Op::MatmulNt(a, b) => {
                let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                vec![(a.0, matmul(g, vb)?), (b.0, matmul_tn(g, va)?)]
            }
            Op::Relu(x) => {
                // Operand shapes always match on a well-formed tape; on a
                // corrupted one the typed shape-mismatch error aborts the
                // sweep cleanly.
                let x_val = &self.nodes[x.0].value;
                vec![(x.0, simd::relu_backward(g, x_val)?)]
            }
            Op::Conv2d { x, w, stride, padding } => {
                let (dx, dw) = conv2d_backward(
                    &self.nodes[x.0].value,
                    &self.nodes[w.0].value,
                    g,
                    *stride,
                    *padding,
                    !self.is_constant(*x),
                )?;
                let mut v = Vec::with_capacity(2);
                if let Some(dx) = dx {
                    v.push((x.0, dx));
                }
                v.push((w.0, dw));
                v
            }
            Op::GlobalAvgPool(x) => {
                let (n, c, h, w) =
                    self.nodes[x.0].value.shape().as_nchw().expect("validated in forward");
                vec![(x.0, global_avg_pool_backward(g, n, c, h, w))]
            }
            Op::BatchNorm2d { x, gamma, beta, saved, .. } => {
                let (dx, dgamma, dbeta) = batch_norm2d_backward(
                    &self.nodes[x.0].value,
                    &self.nodes[gamma.0].value,
                    saved,
                    g,
                );
                vec![(x.0, dx), (gamma.0, dgamma), (beta.0, dbeta)]
            }
            Op::Concat0 { a, b, split } => {
                let ga = Tensor::from_vec(
                    self.nodes[a.0].value.shape().clone(),
                    g.data()[..*split].to_vec(),
                )?;
                let gb = Tensor::from_vec(
                    self.nodes[b.0].value.shape().clone(),
                    g.data()[*split..].to_vec(),
                )?;
                vec![(a.0, ga), (b.0, gb)]
            }
            Op::L2NormalizeRows { x, norms } => {
                vec![(x.0, simd::l2_normalize_rows_backward(&node.value, norms, g))]
            }
            Op::LogSoftmax(x) => {
                vec![(x.0, simd::log_softmax_backward(&node.value, g))]
            }
            Op::NllLoss { logp, targets } => {
                let (n, d) = self.nodes[logp.0].value.shape().as_matrix().expect("validated");
                vec![(logp.0, nll_backward((n, d), targets, g.item()))]
            }
            Op::MaskedFill { x, mask, .. } => {
                let mut gx = g.clone();
                for (v, &m) in gx.data_mut().iter_mut().zip(mask) {
                    if m {
                        *v = 0.0;
                    }
                }
                vec![(x.0, gx)]
            }
            Op::MeanAll(x) => {
                let parent = &self.nodes[x.0].value;
                let v = g.item() / parent.len() as f32;
                vec![(x.0, Tensor::full(parent.shape().clone(), v))]
            }
        };
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: &[f32]) -> Tensor {
        Tensor::from_vec([2, 2], data.to_vec()).unwrap()
    }

    #[test]
    fn add_backward_distributes_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(t2(&[1.0, 2.0, 3.0, 4.0]));
        let b = g.leaf(t2(&[5.0, 6.0, 7.0, 8.0]));
        let s = g.add(a, b).unwrap();
        let loss = g.mean_all(s);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(a).unwrap().data(), &[0.25; 4]);
        assert_eq!(g.grad(b).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn relu_blocks_negative_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec([4], vec![-1.0, 0.0, 2.0, 3.0]).unwrap());
        let y = g.relu(x);
        let loss = g.mean_all(y);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 0.0, 0.25, 0.25]);
    }

    #[test]
    fn reused_node_accumulates_gradient() {
        // loss = mean(x + x) over two elements should give dx = 1.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones([2]));
        let s = g.add(x, x).unwrap();
        let loss = g.mean_all(s);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(x).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones([2]));
        assert!(g.backward(x).is_err());
    }

    #[test]
    fn concat0_splits_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::ones([1, 2]));
        let b = g.leaf(Tensor::ones([3, 2]));
        let c = g.concat0(a, b).unwrap();
        assert_eq!(g.value(c).shape().dims(), &[4, 2]);
        let scaled = g.scale(c, 3.0);
        let loss = g.mean_all(scaled);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(a).unwrap().data(), &[0.375; 2]);
        assert_eq!(g.grad(b).unwrap().data(), &[0.375; 6]);
    }

    #[test]
    fn masked_fill_blocks_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        let m = g.masked_fill(x, vec![true, false, false, true], -9.0).unwrap();
        assert_eq!(g.value(m).data(), &[-9.0, 2.0, 3.0, -9.0]);
        let loss = g.mean_all(m);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 0.25, 0.25, 0.0]);
    }

    #[test]
    fn nll_of_log_softmax_runs_end_to_end() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec([2, 3], vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]).unwrap());
        let lp = g.log_softmax(x).unwrap();
        let loss = g.nll_loss(lp, vec![0, 2]).unwrap();
        assert!(g.value(loss).item() > 0.0);
        g.backward(loss).unwrap();
        // Gradient rows of fused CE sum to zero.
        let gx = g.grad(x).unwrap();
        for r in 0..2 {
            let s: f32 = gx.row(r).iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    /// Regression: a second `backward` on the same tape used to re-seed
    /// the loss but accumulate fresh contributions into the first
    /// sweep's stale gradients, silently doubling every gradient.
    #[test]
    fn resweeping_a_tape_does_not_accumulate_stale_gradients() {
        for serial in [false, true] {
            let mut g = Graph::new();
            let x = g.leaf(t2(&[1.0, 2.0, 3.0, 4.0]));
            let y = g.scale(x, 3.0);
            let s = g.add(y, y).unwrap();
            let loss = g.mean_all(s);
            g.backward(loss).unwrap();
            let first = g.grad(x).unwrap().clone();
            if serial {
                g.backward_serial(loss).unwrap();
            } else {
                g.backward(loss).unwrap();
            }
            assert_eq!(
                g.grad(x).unwrap().data(),
                first.data(),
                "re-sweep (serial={serial}) changed gradients"
            );
        }
    }

    /// A tape swept three times through every elementwise and row-wise
    /// backward (add, bias, scale, mask, relu, ℓ2-normalize,
    /// log-softmax, mean) ends with a fresh graph's gradient bits.
    #[test]
    fn resweeps_match_a_fresh_graph_bitwise() {
        let build = |g: &mut Graph| {
            let a = g.leaf(t2(&[1.5, -2.0, 3.25, 0.5]));
            let b = g.leaf(t2(&[0.25, 4.0, -1.0, 2.0]));
            let bias = g.leaf(Tensor::from_vec([2], vec![0.75, -0.5]).unwrap());
            let sum = g.add(a, b).unwrap();
            let biased = g.add_bias(sum, bias).unwrap();
            let scaled = g.scale(biased, -1.75);
            let masked = g.masked_fill(scaled, vec![false, true, false, false], 0.0).unwrap();
            let relu = g.relu(masked);
            let prod = g.matmul_nt(relu, a).unwrap();
            let z = g.l2_normalize_rows(prod).unwrap();
            let lp = g.log_softmax(z).unwrap();
            let loss = g.mean_all(lp);
            (a, b, bias, loss)
        };
        let mut fresh = Graph::new();
        let (fa, fb, fbias, floss) = build(&mut fresh);
        fresh.backward(floss).unwrap();

        let mut reswept = Graph::new();
        let (ra, rb, rbias, rloss) = build(&mut reswept);
        for _ in 0..3 {
            reswept.backward(rloss).unwrap();
        }
        for (f, r) in [(fa, ra), (fb, rb), (fbias, rbias)] {
            let want: Vec<u32> =
                fresh.grad(f).unwrap().data().iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> =
                reswept.grad(r).unwrap().data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "re-sweeps changed gradient bits");
        }
    }

    /// A conv over a constant input skips the input gradient only: the
    /// weight gradient keeps its bits, the constant's slot
    /// stays empty, and a constant used by a second op drops that op's
    /// contribution too.
    #[test]
    fn conv_over_a_constant_keeps_weight_gradients_and_takes_none() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let x = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], 0.5, &mut rng);
        let build = |g: &mut Graph, constant: bool| {
            let xv = if constant { g.constant(x.clone()) } else { g.leaf(x.clone()) };
            let wv = g.leaf(w.clone());
            let y = g.conv2d(xv, wv, 2, 1).unwrap();
            let r = g.relu(y);
            let s = g.scale(xv, 0.5);
            let (ly, lx) = (g.mean_all(r), g.mean_all(s));
            let sum = g.add(ly, lx).unwrap();
            (xv, wv, sum)
        };
        for serial in [false, true] {
            let (mut leafy, mut constant) = (Graph::new(), Graph::new());
            let (lx, lw, lloss) = build(&mut leafy, false);
            let (cx, cw, closs) = build(&mut constant, true);
            for (g, loss) in [(&mut leafy, lloss), (&mut constant, closs)] {
                if serial {
                    g.backward_serial(loss).unwrap();
                } else {
                    g.backward(loss).unwrap();
                }
            }
            assert!(leafy.grad(lx).is_some());
            assert!(constant.grad(cx).is_none(), "serial={serial}");
            let bits = |g: &Graph, id| -> Vec<u32> {
                g.grad(id).unwrap().data().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&leafy, lw), bits(&constant, cw), "serial={serial}");
        }
    }

    /// An error mid-sweep must clear every gradient slot — callers can
    /// never observe a half-swept tape with torn gradients.
    #[test]
    fn failed_sweep_leaves_no_torn_gradients() {
        for serial in [false, true] {
            let mut g = Graph::new();
            let a = g.leaf(t2(&[1.0, -2.0, 3.0, -4.0]));
            let r = g.relu(a);
            let q = g.scale(r, 2.0);
            let loss = g.mean_all(q);
            // Corrupt a parent value so Relu's backward fails on a shape
            // mismatch partway through the sweep (after Scale already ran).
            g.nodes[a.0].value = Tensor::ones([3]);
            let result = if serial { g.backward_serial(loss) } else { g.backward(loss) };
            assert!(result.is_err(), "corrupted tape swept cleanly (serial={serial})");
            for i in 0..g.len() {
                assert!(
                    g.grad(VarId(i)).is_none(),
                    "node {i} holds a torn gradient (serial={serial})"
                );
            }
        }
    }
}
