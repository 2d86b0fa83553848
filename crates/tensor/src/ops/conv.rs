//! 2-D convolution kernels: a forward that unfolds straight into packed
//! GEMM panels, a backward that never forms the column matrix, and the
//! unfused [`im2col`] / [`col2im`] pair they are checked against.
//!
//! ## Fused column packing
//!
//! The hot path no longer materializes the column matrix as a tensor.
//! [`im2col_packed`] writes receptive-field patches **directly** into
//! the blocked GEMM's `pack_b` panel layout (a [`PackedPanels`] value
//! holding the *transposed* column matrix `colsᵀ`, logical shape
//! `patch × rows`), walking one `NR`-wide column panel at a time — no
//! intermediate column tensor, no second copy inside the GEMM. The
//! forward product is then
//! `prodᵀ = W · colsᵀ` via [`gemm_prepacked`](super::gemm::gemm_prepacked)
//! and backward reuses the *same* panels for
//! `dWᵀ = colsᵀ · g` via [`gemm_panels_a`](super::gemm::gemm_panels_a)
//! (the autodiff graph holds the panels on the conv tape node from its
//! forward until its backward).
//!
//! ### Why the fused/transposed formulation cannot change rounding
//!
//! Relative to the unfused reference (`cols · Wᵀ` and `gᵀ · cols`),
//! the transposed products swap the two factors of each scalar
//! multiply while keeping the identical ascending-`k` reduction order
//! with one accumulator per output element. `f32` multiplication is
//! commutative at the bit level for finite values and infinities, so
//! the fused path is bitwise-identical to the reference everywhere a
//! finite (or ±∞) product is formed. The only representable
//! divergence is NaN *payload* propagation when an operand is NaN
//! (the IEEE rule picks a payload from one operand, and which operand
//! is implementation-defined) — the same caveat the
//! [`matmul`](super::matmul) module documents for `0 · ∞`-style
//! non-finite inputs, and equally out of scope for the determinism
//! contract, which covers finite data.
//!
//! ## Backward
//!
//! [`conv2d_backward_packed`] computes both gradient products without a
//! column matrix:
//!
//! - **Weight gradient.** `dWᵀ = colsᵀ · g` takes the retained panels as
//!   the GEMM's `A` operand. The GEMM's `A` packer walks them: logical
//!   row `i` of `colsᵀ` is row `i − kp0` of every column-panel block of
//!   its `k`-panel `kp0`, so each `NR`-run of a row is one contiguous
//!   read and nothing divides per element.
//! - **Input gradient.** Each chunk of a sample-parallel dispatch takes
//!   one sample `ni`. On its own thread it computes
//!   `dcolsᵀ = Wᵀ · gy[ni]` (`patch × oh·ow`: 83 KB for a 16-channel
//!   3×3 conv on 12×12 images, so it stays in L2) and folds it into
//!   `dx[ni]` plane by plane. No whole-batch `dcols` is written and no
//!   nested pool job is dispatched.
//!
//! ### Why the fold reproduces `col2im` bit for bit
//!
//! [`col2im`], the reference adjoint, adds into every pixel in ascending
//! `(oy, ox, ky, kx)` order. Pixel `(iy, ix)` receives tap `(ky, kx)` of
//! output position `(oy, ox)` only when `oy·s + ky = iy + p` and
//! `ox·s + kx = ix + p`. So along one pixel's contributions `oy` rises
//! exactly as `ky` falls, and `ox` exactly as `kx` falls. Folding whole
//! `(ci, ky, kx)` planes in descending `(ky, kx)` order therefore adds
//! the same values to every pixel in the same sequence, starting from the
//! same `+0.0`; one plane touches a pixel at most once. (Ascending order
//! would reverse each pixel's sum.) Each `dcolsᵀ` element is the same
//! ascending-`c_out`, one-accumulator sum as the whole-batch `g · W` it
//! replaces, with the factors swapped as above. At stride 1 a plane row
//! lands on a contiguous image row, so the fold is a slice add.
//!
//! The unfold/fold loops and the layout rearrangements parallelize over
//! disjoint output regions (fixed `ELEM_CHUNK`-float runs of packed
//! rows for [`im2col_packed`], patch rows for [`im2col`], per-sample
//! channel images for [`col2im`], whole samples for the input gradient)
//! on the `sdc-runtime` pool; every element is produced by exactly one
//! chunk with the serial accumulation order, so outputs are
//! bit-identical at any thread count.

use std::ops::Range;

use crate::error::{Result, TensorError};
use crate::ops::gemm::{self, PackedPanels, Trans, KC, NR};
use crate::par;
use crate::Tensor;

/// Output spatial size for a convolution along one axis.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    (input + 2 * padding - kernel) / stride + 1
}

/// Output size `(oh, ow)` of a `kernel`/`stride`/`padding` convolution
/// over an `h × w` input, rejecting geometry [`conv_out_dim`] cannot
/// evaluate: a zero stride or kernel, or a kernel larger than the
/// padded input.
fn out_dims(
    op: &'static str,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<(usize, usize)> {
    if stride == 0 || kernel == 0 || kernel > h + 2 * padding || kernel > w + 2 * padding {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!(
                "kernel {kernel} / stride {stride} / padding {padding} invalid for input {h}x{w}"
            ),
        });
    }
    Ok((conv_out_dim(h, kernel, stride, padding), conv_out_dim(w, kernel, stride, padding)))
}

/// Unfolds `x: (n, c, h, w)` into a matrix of shape
/// `(n * oh * ow, c * kh * kw)` whose rows are receptive-field patches.
///
/// Out-of-bounds (padding) positions contribute zeros.
///
/// # Errors
///
/// Returns an error if `x` is not rank-4 or the geometry is invalid
/// (see [`conv2d_forward`]).
pub fn im2col(x: &Tensor, kernel: usize, stride: usize, padding: usize) -> Result<Tensor> {
    let (n, c, h, w) = x.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "im2col",
        expected: 4,
        actual: x.shape().clone(),
    })?;
    let (oh, ow) = out_dims("im2col", h, w, kernel, stride, padding)?;
    let patch = c * kernel * kernel;
    let rows = n * oh * ow;
    let mut cols = Tensor::zeros([rows, patch]);
    let xd = x.data();
    let fill = |first_row: usize, piece: &mut [f32]| {
        for (r, prow) in piece.chunks_mut(patch).enumerate() {
            let row = first_row + r;
            let ni = row / (oh * ow);
            let rem = row % (oh * ow);
            let (oy, ox) = (rem / ow, rem % ow);
            for ci in 0..c {
                for ky in 0..kernel {
                    let iy = (oy * stride + ky) as isize - padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kernel {
                        let ix = (ox * stride + kx) as isize - padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let src = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                        prow[(ci * kernel + ky) * kernel + kx] = xd[src];
                    }
                }
            }
        }
    };
    par::dispatch_chunks(cols.data_mut(), par::ROW_CHUNK * patch, rows * patch, |ci, piece| {
        fill(ci * par::ROW_CHUNK, piece);
    });
    Ok(cols)
}

/// Unfolds `x: (n, c, h, w)` directly into the blocked GEMM's packed
/// `B` panel layout, fusing [`im2col`] with `pack_b`.
///
/// The result holds the **transposed** column matrix `colsᵀ` of
/// logical shape `(c * kh * kw, n * oh * ow)` — i.e. logical element
/// `(p, j)` is patch element `p` of output position `j` — ready to be
/// the `B` operand of `prodᵀ = W · colsᵀ` (forward) or the `A` operand
/// of `dWᵀ = colsᵀ · g` (backward) without any further packing pass.
///
/// The writer walks panels rather than addressing elements: each
/// `NR`-wide column panel computes its lanes' receptive-field origins
/// once (the input offset and `iy`/`ix` of each window's top-left tap,
/// negative inside the padding), then steps through its `kc` patch
/// elements with `(ci, ky, kx)` advanced incrementally, so it divides
/// only where a panel starts. Addressing each element from its flat
/// index, as a GPU im2col does with one thread per element, costs five
/// to seven integer divisions per float; on a CPU core that made this
/// copy the largest cost of a training step. The writer parallelizes
/// over fixed `ELEM_CHUNK`-float runs of packed rows (512 rows, so pool
/// overhead stays small against the copy); a run may start or end
/// inside a panel. Each row is written by exactly one chunk; panel tail
/// lanes past the last output position and padded input positions keep
/// the buffer's zero initialization, matching `pack_b`'s zero-padding
/// discipline bit for bit.
///
/// # Errors
///
/// Returns an error if `x` is not rank-4 or the geometry is invalid
/// (see [`conv2d_forward`]).
pub fn im2col_packed(
    x: &Tensor,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<PackedPanels> {
    let (n, c, h, w) = x.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "im2col_packed",
        expected: 4,
        actual: x.shape().clone(),
    })?;
    let (oh, ow) = out_dims("im2col_packed", h, w, kernel, stride, padding)?;
    let patch = c * kernel * kernel;
    let rows = n * oh * ow;
    let jpanels = gemm::col_panels(rows);
    let mut buf = vec![0.0f32; patch * jpanels * NR];
    let xd = x.data();
    // Writes packed rows `first_row..` into `piece`, one panel segment
    // (the rows of one column panel inside the piece) at a time.
    let fill = |first_row: usize, piece: &mut [f32]| {
        let mut q = first_row;
        let mut rest = piece;
        while !rest.is_empty() {
            let slab = q / (KC * jpanels);
            let kc = KC.min(patch - slab * KC);
            let within = q - slab * KC * jpanels;
            let (jp, p_in) = (within / kc, within % kc);
            let seg_rows = (kc - p_in).min(rest.len() / NR);
            let (seg, tail) = std::mem::take(&mut rest).split_at_mut(seg_rows * NR);

            // Each lane's receptive-field origin: the input offset of its
            // window's top-left tap and that tap's (iy, ix), negative
            // inside the padding. Tail lanes past the last output
            // position keep an `iy` no tap brings into bounds.
            let mut origin = [0isize; NR];
            let mut iy0 = [isize::MIN / 2; NR];
            let mut ix0 = [0isize; NR];
            let col = jp * NR;
            for lane in 0..NR.min(rows - col) {
                let (ni, pos) = ((col + lane) / (oh * ow), (col + lane) % (oh * ow));
                iy0[lane] = (pos / ow * stride) as isize - padding as isize;
                ix0[lane] = (pos % ow * stride) as isize - padding as isize;
                origin[lane] = (ni * c * h * w) as isize + iy0[lane] * w as isize + ix0[lane];
            }

            let p = slab * KC + p_in;
            let (mut ci, mut ky, mut kx) = (p / (kernel * kernel), p / kernel % kernel, p % kernel);
            for prow in seg.chunks_exact_mut(NR) {
                let tap = ((ci * h + ky) * w + kx) as isize;
                for lane in 0..NR {
                    // Negative coordinates wrap to huge, failing the bound.
                    let iy = (iy0[lane] + ky as isize) as usize;
                    let ix = (ix0[lane] + kx as isize) as usize;
                    if iy < h && ix < w {
                        prow[lane] = xd[(origin[lane] + tap) as usize];
                    }
                }
                kx += 1;
                if kx == kernel {
                    kx = 0;
                    ky += 1;
                    if ky == kernel {
                        ky = 0;
                        ci += 1;
                    }
                }
            }
            q += seg_rows;
            rest = tail;
        }
    };
    par::dispatch_chunks(&mut buf, par::ELEM_CHUNK, rows * patch, |chunk, piece| {
        fill(chunk * (par::ELEM_CHUNK / NR), piece);
    });
    Ok(PackedPanels::from_parts(buf, patch, rows))
}

/// Folds a column matrix produced by [`im2col`] back into an image batch,
/// adding overlapping contributions into each pixel in ascending
/// `(oy, ox, ky, kx)` order.
///
/// This is the adjoint of `im2col` and the reference for the input
/// gradient of [`conv2d_backward_packed`], which reproduces it bit for
/// bit without a column matrix (see the module docs). No production
/// path calls it.
///
/// # Errors
///
/// Returns an error if the geometry is invalid (see [`conv2d_forward`])
/// or `cols` is not `(n·oh·ow) × (c·k²)`.
#[allow(clippy::too_many_arguments)] // full conv geometry is inherent to the adjoint
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let (oh, ow) = out_dims("col2im", h, w, kernel, stride, padding)?;
    let patch = c * kernel * kernel;
    let expected = [n * oh * ow, patch];
    if cols.shape().dims() != expected {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.shape().clone(),
            rhs: expected.into(),
        });
    }
    let mut x = Tensor::zeros([n, c, h, w]);
    let cd = cols.data();
    // Overlapping patches collide on input pixels, so the parallel unit
    // is one (sample, channel) image: all contributions to a pixel come
    // from its own chunk, accumulated in the serial (oy, ox, ky, kx)
    // order.
    let fill = |first_image: usize, piece: &mut [f32]| {
        for (r, img) in piece.chunks_mut(h * w).enumerate() {
            let idx = first_image + r;
            let (ni, ci) = (idx / c, idx % c);
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((ni * oh + oy) * ow + ox) * patch;
                    for ky in 0..kernel {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kernel {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            img[iy as usize * w + ix as usize] +=
                                cd[row + (ci * kernel + ky) * kernel + kx];
                        }
                    }
                }
            }
        }
    };
    par::dispatch_chunks(x.data_mut(), h * w, n * oh * ow * patch, fill);
    Ok(x)
}

/// Forward 2-D convolution.
///
/// * `x`: `(n, c_in, h, w)`
/// * `weight`: `(c_out, c_in, k, k)`
/// * `bias`: optional `(c_out)`
///
/// Returns `(n, c_out, oh, ow)`.
///
/// # Errors
///
/// Returns an error on rank or channel mismatches, a zero stride or
/// kernel, or a kernel larger than the padded input (`k > h + 2p` or
/// `k > w + 2p`).
pub fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    conv2d_forward_packed(x, weight, bias, stride, padding).map(|(y, _)| y)
}

/// Forward 2-D convolution that also returns the fused column panels.
///
/// Identical to [`conv2d_forward`] (same validation, same bits) but
/// additionally hands back the [`PackedPanels`] holding `colsᵀ` so the
/// caller — the autodiff graph — can retain them and pass them to
/// [`conv2d_backward_packed`], skipping the unfold entirely on the
/// backward sweep.
pub fn conv2d_forward_packed(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Result<(Tensor, PackedPanels)> {
    let (n, c_in, h, w) = x.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "conv2d",
        expected: 4,
        actual: x.shape().clone(),
    })?;
    let (c_out, wc_in, k, k2) = weight.shape().as_nchw().ok_or_else(|| {
        TensorError::RankMismatch { op: "conv2d", expected: 4, actual: weight.shape().clone() }
    })?;
    if wc_in != c_in || k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: x.shape().clone(),
            rhs: weight.shape().clone(),
        });
    }
    let (oh, ow) = out_dims("conv2d", h, w, k, stride, padding)?;
    let patch = c_in * k * k;
    let rows = n * oh * ow;

    // prodᵀ: (c_out, patch) x (patch, n*oh*ow) -> (c_out, n*oh*ow),
    // with colsᵀ written directly in packed-panel layout.
    let colst = im2col_packed(x, k, stride, padding)?;
    let wmat = weight.reshape([c_out, patch])?;
    let prodt = gemm::gemm_prepacked("conv2d", &wmat, Trans::N, &colst)?;

    // Rearrange (c_out, n*oh*ow) into (n, c_out, oh, ow), adding bias;
    // the parallel unit is one output channel map, which is contiguous
    // in prodᵀ.
    let mut out = Tensor::zeros([n, c_out, oh, ow]);
    let pd = prodt.data();
    let bd = bias.map(Tensor::data);
    let fill = |first_map: usize, piece: &mut [f32]| {
        for (r, omap) in piece.chunks_mut(oh * ow).enumerate() {
            let idx = first_map + r;
            let (ni, co) = (idx / c_out, idx % c_out);
            let b = bd.map_or(0.0, |b| b[co]);
            let src = co * rows + ni * oh * ow;
            for (o, slot) in omap.iter_mut().enumerate() {
                *slot = pd[src + o] + b;
            }
        }
    };
    par::dispatch_chunks(out.data_mut(), oh * ow, n * c_out * oh * ow, fill);
    Ok((out, colst))
}

/// Backward 2-D convolution. Given the output gradient `gy` of shape
/// `(n, c_out, oh, ow)`, returns `(dx, dw, db)`.
///
/// The column panels are re-unfolded here via [`im2col_packed`] and
/// handed to [`conv2d_backward_packed`], which computes both gradients.
/// The autodiff graph skips the unfold by retaining the forward pass's
/// panels on the tape node and calling [`conv2d_backward_packed`]
/// directly, so each input is unfolded exactly once.
///
/// # Errors
///
/// As [`conv2d_backward_packed`], plus an invalid geometry (see
/// [`conv2d_forward`]).
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    gy: &Tensor,
    stride: usize,
    padding: usize,
    want_bias: bool,
) -> Result<(Tensor, Tensor, Option<Tensor>)> {
    let (_, _, k, _) = weight.shape().as_nchw().expect("conv2d_backward: w validated in forward");
    let colst = im2col_packed(x, k, stride, padding)?;
    conv2d_backward_packed(x, weight, gy, stride, padding, want_bias, &colst)
}

/// Backward 2-D convolution reusing already-packed column panels.
///
/// `colst` must be the panels produced by [`im2col_packed`] (or
/// returned by [`conv2d_forward_packed`]) for this exact `x`/geometry.
/// The weight gradient is `dWᵀ = colsᵀ · g` with the panels as the
/// pre-packed `A` operand. The input gradient is computed per sample as
/// `dcolsᵀ = Wᵀ · gy[ni]` and folded straight into `dx`. The module docs
/// explain why both are bitwise-identical to the `gᵀ · cols` and
/// `col2im(g · W)` references for finite data.
///
/// # Errors
///
/// Returns an error if `gy` is not `(n, c_out, oh, ow)` for this
/// geometry, or if the panels' shape is not this unfold's
/// `(c_in·k²) × (n·oh·ow)`.
pub fn conv2d_backward_packed(
    x: &Tensor,
    weight: &Tensor,
    gy: &Tensor,
    stride: usize,
    padding: usize,
    want_bias: bool,
    colst: &PackedPanels,
) -> Result<(Tensor, Tensor, Option<Tensor>)> {
    let (n, c_in, h, w) = x.shape().as_nchw().expect("conv2d_backward: x validated in forward");
    let (c_out, _, k, _) =
        weight.shape().as_nchw().expect("conv2d_backward: w validated in forward");
    let gdims = gy.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "conv2d_backward",
        expected: 4,
        actual: gy.shape().clone(),
    })?;
    let (oh, ow) = out_dims("conv2d_backward", h, w, k, stride, padding)?;
    if gdims != (n, c_out, oh, ow) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: gy.shape().clone(),
            rhs: [n, c_out, oh, ow].into(),
        });
    }
    let patch = c_in * k * k;
    if colst.k() != patch || colst.m() != n * oh * ow {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: [colst.k(), colst.m()].into(),
            rhs: [patch, n * oh * ow].into(),
        });
    }

    // Rearrange gy (n, c_out, oh, ow) -> (n*oh*ow, c_out); the parallel
    // unit is one sample's contiguous (oh*ow, c_out) block.
    let gd = gy.data();
    let mut gmat = Tensor::zeros([n * oh * ow, c_out]);
    {
        let block = oh * ow * c_out;
        let fill = |first_sample: usize, piece: &mut [f32]| {
            for (r, sample) in piece.chunks_mut(block).enumerate() {
                let ni = first_sample + r;
                for co in 0..c_out {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            sample[(oy * ow + ox) * c_out + co] =
                                gd[((ni * c_out + co) * oh + oy) * ow + ox];
                        }
                    }
                }
            }
        };
        par::dispatch_chunks(gmat.data_mut(), block, n * block, fill);
    }

    // dWᵀ: (patch, c_out) = colsᵀ · gmat, straight off the retained
    // panels; the transpose back to (c_out, patch) is a bit-copy.
    let dwt = gemm::gemm_panels_a("conv2d_backward", colst, &gmat, Trans::N)?;
    let dw = super::matmul::transpose(&dwt)?.reshape([c_out, c_in, k, k])?;

    // dx, one sample per chunk: dcolsᵀ = Wᵀ · gy[ni] (patch × oh·ow) on
    // the chunk's own thread, folded into dx[ni] plane by plane in
    // descending (ky, kx) order — col2im's per-pixel addition sequence
    // (see the module docs).
    let wmat = weight.reshape([c_out, patch])?;
    let mut dx = Tensor::zeros([n, c_in, h, w]);
    let plane = oh * ow;
    let fill = |first_sample: usize, piece: &mut [f32]| {
        for (r, dxn) in piece.chunks_mut(c_in * h * w).enumerate() {
            let gyn = &gd[(first_sample + r) * c_out * plane..][..c_out * plane];
            let dcolst = gemm::gemm_serial(&wmat, Trans::T, gyn, plane);
            for (img, planes) in dxn.chunks_mut(h * w).zip(dcolst.chunks(k * k * plane)) {
                for ky in (0..k).rev() {
                    let oys = taps_inside(h, oh, ky, stride, padding);
                    for kx in (0..k).rev() {
                        let oxs = taps_inside(w, ow, kx, stride, padding);
                        if oxs.is_empty() {
                            continue;
                        }
                        let src = &planes[(ky * k + kx) * plane..];
                        let ix = oxs.start * stride + kx - padding;
                        for oy in oys.clone() {
                            let row = &src[oy * ow + oxs.start..oy * ow + oxs.end];
                            let dst = &mut img[(oy * stride + ky - padding) * w + ix..];
                            if stride == 1 {
                                dst.iter_mut().zip(row).for_each(|(d, &v)| *d += v);
                            } else {
                                dst.iter_mut().step_by(stride).zip(row).for_each(|(d, &v)| *d += v);
                            }
                        }
                    }
                }
            }
        }
    };
    par::dispatch_chunks(dx.data_mut(), c_in * h * w, n * patch * c_out * plane, fill);

    let db = if want_bias {
        let mut db = Tensor::zeros([c_out]);
        let dbd = db.data_mut();
        for ni in 0..n {
            for (co, acc) in dbd.iter_mut().enumerate() {
                let base = ((ni * c_out + co) * oh) * ow;
                *acc += gd[base..base + oh * ow].iter().sum::<f32>();
            }
        }
        Some(db)
    } else {
        None
    };
    Ok((dx, dw, db))
}

/// The output positions `o < out` whose tap `o·stride + t − padding`
/// lands inside `0..len`.
fn taps_inside(len: usize, out: usize, t: usize, stride: usize, padding: usize) -> Range<usize> {
    let lo = padding.saturating_sub(t).div_ceil(stride);
    let hi = (len + padding).saturating_sub(t).div_ceil(stride).min(out);
    lo..hi.max(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(8, 3, 1, 1), 8);
        assert_eq!(conv_out_dim(8, 3, 2, 1), 4);
        assert_eq!(conv_out_dim(5, 3, 1, 0), 3);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 acts as identity.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = Tensor::from_vec([1, 1, 1, 1], vec![1.0]).unwrap();
        let y = conv2d_forward(&x, &w, None, 1, 0).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 kernel over a 3x3 image of ones with padding 1:
        // centre sees 9 ones, edges 6, corners 4.
        let x = Tensor::ones([1, 1, 3, 3]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let y = conv2d_forward(&x, &w, None, 1, 1).unwrap();
        assert_eq!(y.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor::zeros([1, 1, 2, 2]);
        let w = Tensor::zeros([2, 1, 1, 1]);
        let b = Tensor::from_vec([2], vec![0.5, -1.5]).unwrap();
        let y = conv2d_forward(&x, &w, Some(&b), 1, 0).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2]);
        assert_eq!(y.data()[..4], [0.5; 4]);
        assert_eq!(y.data()[4..], [-1.5; 4]);
    }

    #[test]
    fn stride_two_downsamples() {
        let x = Tensor::ones([1, 1, 4, 4]);
        let w = Tensor::ones([1, 1, 1, 1]);
        let y = conv2d_forward(&x, &w, None, 2, 0).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), c> == <x, col2im(c)> for random x, c — the defining
        // property of an adjoint pair, which backward relies on.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn([2, 3, 5, 5], 1.0, &mut rng);
        let cols = im2col(&x, 3, 2, 1).unwrap();
        let c = Tensor::randn(cols.shape().clone(), 1.0, &mut rng);
        let lhs: f32 = cols.data().iter().zip(c.data()).map(|(a, b)| a * b).sum();
        let folded = col2im(&c, 2, 3, 5, 5, 3, 2, 1).unwrap();
        let rhs: f32 = x.data().iter().zip(folded.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_shapes_match_operands() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], 0.1, &mut rng);
        let y = conv2d_forward(&x, &w, None, 2, 1).unwrap();
        let gy = Tensor::ones(y.shape().clone());
        let (dx, dw, db) = conv2d_backward(&x, &w, &gy, 2, 1, true).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dw.shape(), w.shape());
        assert_eq!(db.unwrap().shape().dims(), &[4]);
    }

    #[test]
    fn invalid_geometry_is_rejected_not_panicked_on() {
        let invalid = |r: Result<()>| matches!(r, Err(TensorError::InvalidArgument { .. }));
        // Kernels larger than the padded input (on both axes, on one),
        // zero strides, a zero-height image, a zero kernel.
        for (shape, k, s, p) in [
            ([1, 1, 2, 2], 5, 1, 0),
            ([1, 1, 2, 2], 5, 1, 1),
            ([1, 1, 2, 2], 1, 0, 0),
            ([1, 1, 5, 5], 3, 0, 1),
            ([1, 3, 0, 5], 3, 1, 1),
            ([1, 1, 4, 2], 3, 1, 0),
            ([1, 1, 3, 3], 0, 1, 0),
        ] {
            let x = Tensor::zeros(shape);
            let w = Tensor::zeros([1, shape[1], k, k]);
            assert!(invalid(conv2d_forward(&x, &w, None, s, p).map(drop)), "{shape:?} {k}/{s}/{p}");
            assert!(invalid(im2col(&x, k, s, p).map(drop)), "{shape:?} {k}/{s}/{p}");
            assert!(invalid(im2col_packed(&x, k, s, p).map(drop)), "{shape:?} {k}/{s}/{p}");
            let cols = Tensor::zeros([1, 1]);
            let [n, c, h, wd] = shape;
            assert!(invalid(col2im(&cols, n, c, h, wd, k, s, p).map(drop)));
        }
        // The largest kernel that fits the padded input is valid.
        let x = Tensor::zeros([1, 1, 2, 2]);
        assert_eq!(conv2d_forward(&x, &Tensor::zeros([1, 1, 4, 4]), None, 1, 1).unwrap().len(), 1);
    }

    /// The packed unfold against the reference: [`im2col`] packed by
    /// `pack_b`, compared bit for bit on 1, 2 and 7 threads. The shapes
    /// cover `c·k²` across one and two `KC` boundaries (261, 288, 576 at
    /// `k = 3`), column counts short of and off multiples of `NR`, and
    /// inputs large enough to dispatch several chunks that start and
    /// end inside panels; invalid geometries must error on both sides.
    #[test]
    fn packed_unfold_matches_packed_reference_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sdc_runtime::Runtime;
        let mut rng = StdRng::seed_from_u64(17);
        let inputs: Vec<Tensor> = [
            [1, 1, 1, 1],
            [1, 3, 5, 5],
            [2, 2, 4, 7],
            [3, 1, 7, 4],
            [2, 29, 3, 3],
            [1, 32, 5, 4],
            [1, 64, 3, 3],
            [2, 16, 12, 12],
            [3, 32, 7, 7],
        ]
        .into_iter()
        .map(|shape| {
            let mut x = Tensor::randn(shape, 1.0, &mut rng);
            x.data_mut()[0] = -0.0;
            x
        })
        .collect();
        let geometries: Vec<(usize, usize, usize)> = (1..=3)
            .flat_map(|k| (1..=3).flat_map(move |s| (0..=2).map(move |p| (k, s, p))))
            .collect();
        for threads in [1, 2, 7] {
            Runtime::new(threads).install(|| {
                for x in &inputs {
                    for &(k, s, p) in &geometries {
                        let at = format!("threads {threads}, {:?}, k{k} s{s} p{p}", x.shape());
                        let Ok(cols) = im2col(x, k, s, p) else {
                            assert!(im2col_packed(x, k, s, p).is_err(), "{at}");
                            continue;
                        };
                        let want = PackedPanels::pack("test", &cols, Trans::T).unwrap();
                        let got = im2col_packed(x, k, s, p).unwrap();
                        assert_eq!((got.k(), got.m()), (want.k(), want.m()), "{at}");
                        let (got, want) = (got.as_slice(), want.as_slice());
                        assert_eq!(got.len(), want.len(), "{at}");
                        for (i, (a, b)) in got.iter().zip(want).enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{at}: packed float {i}");
                        }
                    }
                }
            });
        }
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "bit mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn fused_forward_matches_unfused_reference_bitwise() {
        // patch = 29·3·3 = 261 straddles KC = 256; rows = 2·3·3 = 18 is
        // not an NR multiple; padding exercises the zero lanes.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn([2, 29, 3, 3], 1.0, &mut rng);
        let w = Tensor::randn([5, 29, 3, 3], 0.1, &mut rng);
        let b = Tensor::randn([5], 0.1, &mut rng);
        let y = conv2d_forward(&x, &w, Some(&b), 1, 1).unwrap();
        let cols = im2col(&x, 3, 1, 1).unwrap();
        let wmat = w.reshape([5, 261]).unwrap();
        let prod = super::super::matmul::matmul_nt(&cols, &wmat).unwrap();
        let (oh, ow) = (3, 3);
        for ni in 0..2 {
            for co in 0..5 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let got = y.data()[((ni * 5 + co) * oh + oy) * ow + ox];
                        let want = prod.data()[((ni * oh + oy) * ow + ox) * 5 + co] + b.data()[co];
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn packed_dw_matches_unfused_reference_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn([2, 29, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn([4, 29, 3, 3], 0.1, &mut rng);
        let y = conv2d_forward(&x, &w, None, 2, 1).unwrap();
        let gy = Tensor::randn(y.shape().clone(), 1.0, &mut rng);
        let (_, dw, _) = conv2d_backward(&x, &w, &gy, 2, 1, false).unwrap();
        // Reference dW via the unfused gᵀ · cols product.
        let (n, c_out, oh, ow) = (2, 4, 2, 2);
        let mut gmat = Tensor::zeros([n * oh * ow, c_out]);
        {
            let gd = gy.data();
            let gm = gmat.data_mut();
            for ni in 0..n {
                for co in 0..c_out {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            gm[((ni * oh + oy) * ow + ox) * c_out + co] =
                                gd[((ni * c_out + co) * oh + oy) * ow + ox];
                        }
                    }
                }
            }
        }
        let cols = im2col(&x, 3, 2, 1).unwrap();
        let dw_ref = super::super::matmul::matmul_tn(&gmat, &cols).unwrap();
        assert_bits_eq(&dw, &dw_ref.reshape([4, 29, 3, 3]).unwrap());
    }

    #[test]
    fn retained_panels_match_fresh_unfold_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::randn([1, 3, 7, 7], 1.0, &mut rng);
        let w = Tensor::randn([2, 3, 3, 3], 0.1, &mut rng);
        let (y, colst) = conv2d_forward_packed(&x, &w, None, 1, 1).unwrap();
        assert_bits_eq(&y, &conv2d_forward(&x, &w, None, 1, 1).unwrap());
        let gy = Tensor::randn(y.shape().clone(), 1.0, &mut rng);
        let (dx_a, dw_a, db_a) = conv2d_backward(&x, &w, &gy, 1, 1, true).unwrap();
        let (dx_b, dw_b, db_b) = conv2d_backward_packed(&x, &w, &gy, 1, 1, true, &colst).unwrap();
        assert_bits_eq(&dx_a, &dx_b);
        assert_bits_eq(&dw_a, &dw_b);
        assert_bits_eq(&db_a.unwrap(), &db_b.unwrap());
    }

    #[test]
    fn mismatched_panels_are_rejected() {
        let x = Tensor::zeros([1, 1, 4, 4]);
        let w = Tensor::zeros([1, 1, 3, 3]);
        let gy = Tensor::zeros([1, 1, 2, 2]);
        // Panels unfolded with the wrong stride have the wrong column count.
        let wrong = im2col_packed(&x, 3, 1, 0).unwrap();
        assert!(conv2d_backward_packed(&x, &w, &gy, 2, 0, false, &wrong).is_err());
    }
}
