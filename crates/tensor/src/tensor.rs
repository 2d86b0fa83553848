//! Dense row-major `f32` tensors.

use std::fmt;

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use crate::error::{Result, TensorError};
use crate::Shape;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the plain-value workhorse of the stack: model parameters,
/// activations, images, and gradients are all `Tensor`s. Differentiable
/// computation is expressed separately through [`Graph`](crate::Graph).
///
/// ```
/// use sdc_tensor::Tensor;
///
/// let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// # Ok::<(), sdc_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Self { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Self { shape, data: vec![value; n] }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Self { shape: Shape::scalar(), data: vec![value] }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `data.len()` differs
    /// from the number of elements implied by `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.num_elements() != data.len() {
            return Err(TensorError::DataLengthMismatch { shape, len: data.len() });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor with values drawn from a standard normal
    /// distribution scaled by `std`, using the Box–Muller transform so the
    /// result depends only on the supplied RNG.
    pub fn randn<R: Rng + RngExt + ?Sized>(shape: impl Into<Shape>, std: f32, rng: &mut R) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.random::<f32>().max(1e-12);
            let u2: f32 = rng.random();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.rank(), "index rank mismatch");
        let strides = self.shape.strides();
        index
            .iter()
            .zip(strides.iter())
            .zip(self.shape.dims())
            .map(|((&i, &s), &d)| {
                assert!(i < d, "index {i} out of bounds for dim of size {d}");
                i * s
            })
            .sum()
    }

    /// Returns the single value of a scalar or 1-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() requires a 1-element tensor");
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeSizeMismatch`] if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.num_elements() != self.data.len() {
            return Err(TensorError::ReshapeSizeMismatch { from: self.shape.clone(), to: shape });
        }
        Ok(Self { shape, data: self.data.clone() })
    }

    /// Applies `f` to every element, returning a new tensor.
    ///
    /// Large tensors are processed in fixed-size chunks on the
    /// `sdc-runtime` pool; per-element results are position-independent,
    /// so the output is identical at any thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let n = self.data.len();
        if !crate::par::parallelize(n) {
            return Self {
                shape: self.shape.clone(),
                data: self.data.iter().map(|&x| f(x)).collect(),
            };
        }
        let mut data = vec![0.0f32; n];
        let src = &self.data;
        sdc_runtime::par_chunks_mut(&mut data, crate::par::ELEM_CHUNK, |ci, piece| {
            let base = ci * crate::par::ELEM_CHUNK;
            for (j, o) in piece.iter_mut().enumerate() {
                *o = f(src[base + j]);
            }
        });
        Self { shape: self.shape.clone(), data }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// Parallelized like [`Tensor::map`] above the size threshold.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let n = self.data.len();
        if !crate::par::parallelize(n) {
            let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
            return Ok(Self { shape: self.shape.clone(), data });
        }
        let mut data = vec![0.0f32; n];
        let (lhs, rhs) = (&self.data, &other.data);
        sdc_runtime::par_chunks_mut(&mut data, crate::par::ELEM_CHUNK, |ci, piece| {
            let base = ci * crate::par::ELEM_CHUNK;
            for (j, o) in piece.iter_mut().enumerate() {
                *o = f(lhs[base + j], rhs[base + j]);
            }
        });
        Ok(Self { shape: self.shape.clone(), data })
    }

    /// In-place `self += alpha * other` (same shapes required).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "add_assign_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean (ℓ2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Whether all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Extracts row `r` of a rank-2 tensor as a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        let (rows, cols) = self.shape.as_matrix().expect("row() requires a rank-2 tensor");
        assert!(r < rows, "row {r} out of bounds ({rows})");
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Stacks rank-(k) tensors of identical shape into a rank-(k+1) tensor
    /// along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `items` is empty and
    /// [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn stack(items: &[Tensor]) -> Result<Self> {
        let first = items.first().ok_or_else(|| TensorError::InvalidArgument {
            op: "stack",
            message: "cannot stack zero tensors".into(),
        })?;
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.shape.dims());
        let mut data = Vec::with_capacity(first.len() * items.len());
        for item in items {
            if item.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.shape.clone(),
                    rhs: item.shape.clone(),
                });
            }
            data.extend_from_slice(&item.data);
        }
        Ok(Self { shape: Shape::new(dims), data })
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|x| format!("{x:.4}")).collect();
        write!(f, "[{}{}]", preview.join(", "), if self.len() > 8 { ", ..." } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros([2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones([3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full([2], 7.0).data(), &[7.0, 7.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec([2, 2], vec![1.0; 3]),
            Err(TensorError::DataLengthMismatch { .. })
        ));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
        assert_eq!(t.data()[5], 5.0);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let ta = Tensor::randn([16], 1.0, &mut a);
        let tb = Tensor::randn([16], 1.0, &mut b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn randn_has_roughly_unit_std() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn([10_000], 1.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1.0, -2.0, 3.0, 0.0]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert!((t.norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn stack_builds_leading_axis() {
        let a = Tensor::full([2], 1.0);
        let b = Tensor::full([2], 2.0);
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn stack_rejects_mismatched_shapes() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        assert!(Tensor::stack(&[a, b]).is_err());
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn row_slices_matrix() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn add_assign_scaled_accumulates() {
        let mut a = Tensor::ones([3]);
        let b = Tensor::full([3], 2.0);
        a.add_assign_scaled(&b, 0.5);
        assert_eq!(a.data(), &[2.0, 2.0, 2.0]);
    }
}
