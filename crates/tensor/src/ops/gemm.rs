//! The one matrix-product kernel: an 8×8 register tile over packed
//! operands.
//!
//! This module is the engine behind [`matmul`](super::matmul::matmul),
//! [`matmul_nt`](super::matmul::matmul_nt) and
//! [`matmul_tn`](super::matmul::matmul_tn). Every product of every size
//! runs the same path:
//!
//! 1. `B` is packed once into `⌈m/8⌉` column panels of `k × 8` floats,
//!    `p`-major, with the lanes past `m` zero. A transposed `B` is read
//!    through a strided view, so no transpose is materialized.
//! 2. The output is cut into fixed 32-row chunks on the `sdc-runtime`
//!    pool. The chunk size never depends on the thread count.
//! 3. A chunk takes its rows of `A` eight at a time. It packs those rows
//!    as `k × 8` (rows past `n` zero), then runs an 8×8 tile against
//!    each panel: eight 8-lane accumulators, one per row, start at
//!    `+0.0`, and for each `p` in ascending order each adds
//!    `splat(a[r][p]) · b_p` with a separate multiply and add. The tile
//!    stores only the rows and lanes that exist.
//!
//! The tile body is generic over the 8-lane `SimdF32` abstraction and is
//! entered through `simd::dispatch_with`, like the conv tiles, so
//! `SDC_SIMD=scalar` runs the portable instantiation of the same code.
//! Neither instantiation uses FMA, whose fused rounding would change
//! results; the choice affects speed only.
//!
//! ## Why the bits match [`naive`]
//!
//! Every output element is one chain: it starts at `+0.0` and adds
//! `a[i][p] · b[p][j]` for `p = 0, 1, …, k − 1` in that order, with the
//! factors in that order. A lane of the tile is one output column and an
//! accumulator is one output row, so no lane ever holds part of another
//! element's sum, and no sum is split and folded back. That is exactly
//! the chain [`naive`] computes, so the results match bit for bit, at
//! every thread count (each element is written by one chunk) and on
//! every instruction set.
//!
//! Padded rows and lanes are computed and then never stored. A padded
//! lane may form `0 · ∞ = NaN` when an operand holds `±∞`, but that lane
//! is dropped, so a non-finite operand reaches exactly the outputs it
//! reaches in [`naive`]. A product with `k = 0` or no output elements
//! returns [`Tensor::zeros`].

use crate::error::{Result, TensorError};
use crate::par;
use crate::simd::{self, SimdF32, SimdOp, LANES};
use crate::Tensor;

/// Rows of `A` (and of the output) per register tile: one accumulator
/// per row.
const MR: usize = 8;

/// Output columns per register tile: one 8-lane vector, one lane per
/// column.
const NR: usize = LANES;

/// Output rows per pool chunk. Fixed, so chunk boundaries do not depend
/// on the thread count.
const CHUNK_ROWS: usize = 32;

/// Operand orientation: how a logical matrix is laid out in its tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// The tensor stores the logical matrix directly (row-major).
    N,
    /// The tensor stores the transpose of the logical matrix; reads go
    /// through a strided view instead of materializing a transpose.
    T,
}

/// A borrowed logical matrix: `rows × cols` elements reachable as
/// `get(r, c)` regardless of the underlying orientation.
#[derive(Clone, Copy)]
struct MatRef<'a> {
    data: &'a [f32],
    /// Leading dimension of the *storage* (row length of the tensor).
    ld: usize,
    trans: Trans,
}

impl MatRef<'_> {
    #[inline]
    fn get(&self, r: usize, c: usize) -> f32 {
        match self.trans {
            Trans::N => self.data[r * self.ld + c],
            Trans::T => self.data[c * self.ld + r],
        }
    }
}

/// Logical dimensions of `op(t)`: `(rows, cols)` after applying the
/// orientation.
fn logical_dims(op: &'static str, t: &Tensor, trans: Trans) -> Result<(usize, usize)> {
    let (r, c) = t.shape().as_matrix().ok_or_else(|| TensorError::RankMismatch {
        op,
        expected: 2,
        actual: t.shape().clone(),
    })?;
    Ok(match trans {
        Trans::N => (r, c),
        Trans::T => (c, r),
    })
}

fn mat_ref(t: &Tensor, trans: Trans) -> MatRef<'_> {
    let (_, ld) = t.shape().as_matrix().expect("validated rank-2");
    MatRef { data: t.data(), ld, trans }
}

/// Validates both operands and returns the logical problem dimensions
/// `(n, k, m)` — the one shape check shared by every entry point.
fn validate(
    op: &'static str,
    a: &Tensor,
    trans_a: Trans,
    b: &Tensor,
    trans_b: Trans,
) -> Result<(usize, usize, usize)> {
    let (n, k) = logical_dims(op, a, trans_a)?;
    let (kb, m) = logical_dims(op, b, trans_b)?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    Ok((n, k, m))
}

/// `C = op_a(A) · op_b(B)` on the register tile, bit-identical to
/// [`naive`]; see the module docs. Each call records one `tensor.gemm`
/// scope.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the shared
/// dimension disagrees.
pub fn gemm(
    op: &'static str,
    a: &Tensor,
    trans_a: Trans,
    b: &Tensor,
    trans_b: Trans,
) -> Result<Tensor> {
    let (n, k, m) = validate(op, a, trans_a, b, trans_b)?;
    let _gemm_timer = sdc_obs::scope!("tensor.gemm");
    let mut out = Tensor::zeros([n, m]);
    if n * m == 0 || k == 0 {
        return Ok(out);
    }
    let panels = pack_b(mat_ref(b, trans_b), k, m);
    let a = mat_ref(a, trans_a);
    par::dispatch_chunks(out.data_mut(), CHUNK_ROWS * m, n * k * m, |ci, rows| {
        let chunk = TileRows { a, i0: ci * CHUNK_ROWS, k, m, panels: &panels, rows };
        simd::dispatch_with(simd::active_isa(), chunk);
    });
    Ok(out)
}

/// The reference product: for every output element, one scalar chain
/// from `+0.0` over ascending `k`. The equivalence suites compare
/// [`gemm`] against it bit for bit.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the shared
/// dimension disagrees.
pub fn naive(a: &Tensor, trans_a: Trans, b: &Tensor, trans_b: Trans) -> Result<Tensor> {
    let (n, k, m) = validate("gemm_naive", a, trans_a, b, trans_b)?;
    let (a, b) = (mat_ref(a, trans_a), mat_ref(b, trans_b));
    let mut out = Tensor::zeros([n, m]);
    let od = out.data_mut();
    for i in 0..n {
        for j in 0..m {
            // Explicit `+0.0` start, not `.sum()`: the std `f32` sum
            // folds from `-0.0`, which would give a `-0.0` output when
            // `k == 0` or every product is `-0.0`.
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            od[i * m + j] = acc;
        }
    }
    Ok(out)
}

/// Packs the logical `k × m` matrix `B` into `⌈m/NR⌉` panels of
/// `k × NR` floats: `panel[jp][p · NR + jr] = B[p, jp · NR + jr]`, with
/// the lanes past `m` zero. Needs `k > 0`.
fn pack_b(b: MatRef<'_>, k: usize, m: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; m.div_ceil(NR) * k * NR];
    for (j0, panel) in (0..).step_by(NR).zip(packed.chunks_exact_mut(k * NR)) {
        for (p, lanes) in panel.chunks_exact_mut(NR).enumerate() {
            for (jr, slot) in lanes.iter_mut().take(m - j0).enumerate() {
                *slot = b.get(p, j0 + jr);
            }
        }
    }
    packed
}

/// Packs rows `top..top + rows` of the logical `A` into `dst` as
/// `k × MR`: `dst[p · MR + r] = A[top + r, p]`, with rows from `rows`
/// on zero.
fn pack_a_tile(dst: &mut [f32], a: MatRef<'_>, top: usize, rows: usize) {
    for (p, lanes) in dst.chunks_exact_mut(MR).enumerate() {
        for (r, slot) in lanes.iter_mut().enumerate() {
            *slot = if r < rows { a.get(top + r, p) } else { 0.0 };
        }
    }
}

/// One pool chunk of the product: output rows `i0..i0 + rows.len() / m`,
/// every column. Generic over the lane type, so the AVX2 and portable
/// instantiations run the same multiplies and adds.
struct TileRows<'a> {
    a: MatRef<'a>,
    i0: usize,
    k: usize,
    m: usize,
    panels: &'a [f32],
    rows: &'a mut [f32],
}

impl SimdOp for TileRows<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let Self { a, i0, k, m, panels, rows } = self;
        let height = rows.len() / m;
        let mut tile = vec![0.0f32; k * MR];
        for r0 in (0..height).step_by(MR) {
            let tile_rows = MR.min(height - r0);
            pack_a_tile(&mut tile, a, i0 + r0, tile_rows);
            for (j0, panel) in (0..).step_by(NR).zip(panels.chunks_exact(k * NR)) {
                let mut acc = [S::splat(0.0); MR];
                for (av, bv) in tile.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
                    let bv = S::load(bv);
                    for (acc, &ar) in acc.iter_mut().zip(av) {
                        *acc = acc.add(S::splat(ar).mul(bv));
                    }
                }
                let width = NR.min(m - j0);
                for (r, row) in acc.iter().enumerate().take(tile_rows) {
                    let dst = &mut rows[(r0 + r) * m + j0..][..width];
                    if width == NR {
                        row.store(dst);
                    } else {
                        dst.copy_from_slice(&row.to_array()[..width]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_k_matches_zeros_semantics() {
        let a = Tensor::zeros([5, 0]);
        let b = Tensor::zeros([0, 7]);
        let c = gemm("t", &a, Trans::N, &b, Trans::N).unwrap();
        assert_eq!(c.shape().dims(), &[5, 7]);
        assert!(c.data().iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        assert!(gemm("t", &a, Trans::N, &b, Trans::N).is_err());
        assert!(naive(&a, Trans::N, &b, Trans::N).is_err());
        let scalar = Tensor::scalar(1.0);
        assert!(gemm("t", &scalar, Trans::N, &b, Trans::N).is_err());
    }
}
