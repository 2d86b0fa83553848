//! 2-D convolution kernels: a direct forward over the zero-padded input,
//! a backward that reads the same padded input, and the unfused
//! [`im2col`] / [`col2im`] pair both are checked against. No production
//! path forms a column matrix.
//!
//! ## Forward: direct convolution
//!
//! [`conv2d_forward`] runs one sample per pool chunk. The chunk copies
//! its sample into **phase planes** of the zero-padded input: for stride
//! `s`, phase `(ry, rx)` of channel `ci` holds padded pixel
//! `(s·a + ry, s·b + rx)` at `(a, b)`. Tap `(ci, ky, kx)` of output
//! `(oy, ox)` then reads phase `(ky mod s, kx mod s)` at
//! `(oy + ky / s, ox + kx / s)`. Each plane is `hq × wq` with
//! `hq = oh + (k − 1)/s` and `wq = ow + (k − 1)/s`, so in the flattened
//! coordinate `q = oy·wq + ox` every tap reads one contiguous run of one
//! plane, shifted by a fixed offset. Only the `min(s, k)²` phases some
//! tap reads are built (a 1×1 stride-2 conv builds one). At stride 1 the
//! one phase is the padded image itself.
//!
//! An [`MR`]×[`NR`] register tile (output channels × consecutive `q`)
//! then starts its accumulators at `+0.0` and, for every tap in
//! ascending `(ci, ky, kx)` order, adds `w · x` with a separate multiply
//! and add (never FMA). That is the chain the blocked GEMM computes for
//! `W · colsᵀ`: one accumulator per output, the patch reduced in
//! ascending order, padding taps multiplying a stored zero. So the
//! output is bit-identical to `im2col` → GEMM → `+ b`. The tile writes
//! NCHW directly, adding the bias; lanes whose `q` falls in the
//! `wq − ow` wrap-around columns or past the last output are discarded,
//! like the GEMM's padded lanes. As in the GEMM micro-kernel, the tile
//! body is one generic function, entered through
//! `#[target_feature(enable = "avx2")]` when
//! [`active_isa`](crate::simd::active_isa) says so (read once per
//! chunk), so `SDC_SIMD=scalar` runs the portable instantiation of the
//! same code.
//!
//! ## Backward
//!
//! [`conv2d_backward`] computes both gradient products without a column
//! matrix:
//!
//! - **Weight gradient.** `dWᵀ = colsᵀ · g`. The GEMM packs its `A`
//!   blocks straight from the phase planes of every sample: element
//!   `(tap, j)` of `colsᵀ` sits at the tap's run offset plus output
//!   position `j`'s offset, for valid positions only, in ascending
//!   `(n, oy, ox)` order. Those are the column matrix's values in its
//!   order, so the chain is unchanged.
//! - **Input gradient.** Each chunk of a sample-parallel dispatch takes
//!   one sample `ni`. On its own thread it computes
//!   `dcolsᵀ = Wᵀ · gy[ni]` (`patch × oh·ow`: 83 KB for a 16-channel
//!   3×3 conv on 12×12 images, so it stays in L2) and folds it into
//!   `dx[ni]` plane by plane. No whole-batch `dcols` is written and no
//!   nested pool job is dispatched. It is skipped when the caller does
//!   not want it (the graph's constant inputs).
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
//! replaces, with the factors swapped. At stride 1 a plane row lands on
//! a contiguous image row, so the fold is a slice add.
//!
//! ### Factor order and non-finite values
//!
//! The products above multiply `w · x` and `x · g` where the column
//! references multiply `x · w` and `g · x`. `f32` multiplication is
//! commutative at the bit level for finite values and infinities, so the
//! results are bitwise-identical wherever a finite (or ±∞) product is
//! formed. The only representable divergence is the NaN *payload* when
//! an operand is NaN, which the determinism contract (finite data) does
//! not cover.
//!
//! Every loop here parallelizes over disjoint output regions (whole
//! samples for the forward, the padding copy and the input gradient,
//! patch rows for [`im2col`], per-sample channel images for
//! [`col2im`]) on the `sdc-runtime` pool; every element is produced by
//! exactly one chunk in the serial order, so outputs are bit-identical
//! at any thread count.

use std::cell::Cell;
use std::ops::Range;

use crate::error::{Result, TensorError};
use crate::ops::gemm::{self, Gather, Trans};
use crate::par;
use crate::simd::{self, SimdF32, SimdOp, LANES};
use crate::Tensor;

/// Output channels per register tile of the direct forward.
pub const MR: usize = 8;

/// Consecutive output positions (flattened `q`) per register tile: one
/// 8-lane vector.
pub const NR: usize = LANES;

/// Marks a tile lane whose `q` is no output position.
const SKIP: usize = usize::MAX;

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

/// A validated convolution geometry.
#[derive(Debug, Clone, Copy)]
struct Geom {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    c_out: usize,
    k: usize,
    s: usize,
    p: usize,
    oh: usize,
    ow: usize,
}

impl Geom {
    /// Checks `x: (n, c, h, w)` against `weight: (c_out, c, k, k)` and the
    /// stride/padding.
    fn new(op: &'static str, x: &Tensor, weight: &Tensor, s: usize, p: usize) -> Result<Self> {
        let (n, c, h, w) = x.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
            op,
            expected: 4,
            actual: x.shape().clone(),
        })?;
        let (c_out, wc, k, k2) = weight.shape().as_nchw().ok_or_else(|| {
            TensorError::RankMismatch { op, expected: 4, actual: weight.shape().clone() }
        })?;
        if wc != c || k != k2 {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: x.shape().clone(),
                rhs: weight.shape().clone(),
            });
        }
        let (oh, ow) = out_dims(op, h, w, k, s, p)?;
        Ok(Self { n, c, h, w, c_out, k, s, p, oh, ow })
    }

    fn patch(&self) -> usize {
        self.c * self.k * self.k
    }
}

/// The phase planes of one sample's zero-padded input (see the module
/// docs): `c` channels of `kp²` planes of `hq × wq` floats each.
#[derive(Debug, Clone, Copy)]
struct Phases {
    /// Phases per axis that some tap reads: `min(s, k)`.
    kp: usize,
    hq: usize,
    wq: usize,
}

impl Phases {
    fn new(g: &Geom) -> Self {
        let reach = (g.k - 1) / g.s;
        Self { kp: g.s.min(g.k), hq: g.oh + reach, wq: g.ow + reach }
    }

    /// Floats in one sample's planes.
    fn sample_len(&self, g: &Geom) -> usize {
        g.c * self.kp * self.kp * self.hq * self.wq
    }

    /// The offset of every tap's run, in ascending `(ci, ky, kx)` order.
    fn taps(&self, g: &Geom) -> Vec<usize> {
        let mut taps = Vec::with_capacity(g.patch());
        for ci in 0..g.c {
            for ky in 0..g.k {
                for kx in 0..g.k {
                    let plane = (ci * self.kp + ky % g.s) * self.kp + kx % g.s;
                    taps.push((plane * self.hq + ky / g.s) * self.wq + kx / g.s);
                }
            }
        }
        taps
    }

    /// Writes one sample `xs` (`c × h × w`) as phase planes into the
    /// first [`sample_len`](Self::sample_len) floats of `dst`, zeros
    /// wherever a plane position falls in the padding. Every float is
    /// written once.
    fn build(&self, g: &Geom, xs: &[f32], dst: &mut [f32]) {
        let plane = self.hq * self.wq;
        let mut planes = dst[..self.sample_len(g)].chunks_exact_mut(plane);
        for ci in 0..g.c {
            let img = &xs[ci * g.h * g.w..][..g.h * g.w];
            for ry in 0..self.kp {
                let rows = taps_inside(g.h, self.hq, ry, g.s, g.p);
                for rx in 0..self.kp {
                    let cols = taps_inside(g.w, self.wq, rx, g.s, g.p);
                    let dst = planes.next().expect("c·kp² planes");
                    for (a, drow) in dst.chunks_exact_mut(self.wq).enumerate() {
                        if !rows.contains(&a) || cols.is_empty() {
                            drow.fill(0.0);
                            continue;
                        }
                        drow[..cols.start].fill(0.0);
                        drow[cols.end..].fill(0.0);
                        let (iy, ix) = (a * g.s + ry - g.p, cols.start * g.s + rx - g.p);
                        let src = &img[iy * g.w + ix..];
                        let out = &mut drow[cols.clone()];
                        if g.s == 1 {
                            out.copy_from_slice(&src[..out.len()]);
                        } else {
                            out.iter_mut().zip(src.iter().step_by(g.s)).for_each(|(d, &v)| *d = v);
                        }
                    }
                }
            }
        }
    }
}

/// Unfolds `x: (n, c, h, w)` into a matrix of shape
/// `(n * oh * ow, c * kh * kw)` whose rows are receptive-field patches.
///
/// Out-of-bounds (padding) positions contribute zeros. This is the
/// reference the convolution kernels are checked against; no production
/// path calls it.
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

/// Folds a column matrix produced by [`im2col`] back into an image batch,
/// adding overlapping contributions into each pixel in ascending
/// `(oy, ox, ky, kx)` order.
///
/// This is the adjoint of `im2col` and the reference for the input
/// gradient of [`conv2d_backward`], which reproduces it bit for bit
/// without a column matrix (see the module docs). No production path
/// calls it.
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

thread_local! {
    /// Reusable per-thread buffer for one sample's phase planes, so the
    /// forward does not allocate once warm. Each sample rewrites every
    /// float a tile reads, so reuse cannot leak state.
    static PLANES: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// What the forward's register tiles read, shared by every sample.
struct DirectArgs<'a> {
    /// Tap run offsets, ascending `(ci, ky, kx)`.
    taps: &'a [usize],
    /// The weights in `MR`-channel tiles, tap-major: tile `t` holds
    /// `w[t·MR + r, tap]` at `(t·patch + tap)·MR + r`, zero past `c_out`.
    wpack: &'a [f32],
    /// Per flattened `q` (rounded up to whole `NR` tiles), the output
    /// position `oy·ow + ox` it computes, or [`SKIP`].
    pos: &'a [usize],
    /// The bias per output channel (zeros without one).
    bias: &'a [f32],
    c_out: usize,
}

/// Forward 2-D convolution, computed directly over the zero-padded
/// input with no column matrix (see the module docs).
///
/// * `x`: `(n, c_in, h, w)`
/// * `weight`: `(c_out, c_in, k, k)`
/// * `bias`: optional `(c_out)`
///
/// Returns `(n, c_out, oh, ow)`, bit-identical to `im2col` → GEMM →
/// `+ b` for finite data. One pool chunk per sample.
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
    let g = Geom::new("conv2d", x, weight, stride, padding)?;
    if let Some(b) = bias {
        if b.len() != g.c_out {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: b.shape().clone(),
                rhs: [g.c_out].into(),
            });
        }
    }
    let _conv_timer = sdc_obs::scope!("tensor.conv");
    let patch = g.patch();
    let ph = Phases::new(&g);
    let taps = ph.taps(&g);

    let mut wpack = vec![0.0f32; g.c_out.div_ceil(MR) * patch * MR];
    for co in 0..g.c_out {
        let tile = &mut wpack[co / MR * patch * MR..][..patch * MR];
        for (lanes, &v) in tile.chunks_exact_mut(MR).zip(&weight.data()[co * patch..]) {
            lanes[co % MR] = v;
        }
    }

    // Flattened positions q = oy·wq + ox, in whole tiles.
    let q_len = (g.oh - 1) * ph.wq + g.ow;
    let pos: Vec<usize> = (0..q_len.div_ceil(NR) * NR)
        .map(|q| {
            let (oy, ox) = (q / ph.wq, q % ph.wq);
            if q < q_len && ox < g.ow {
                oy * g.ow + ox
            } else {
                SKIP
            }
        })
        .collect();
    let bias = bias.map_or_else(|| vec![0.0; g.c_out], |b| b.data().to_vec());
    let args = DirectArgs { taps: &taps, wpack: &wpack, pos: &pos, bias: &bias, c_out: g.c_out };

    // Every tile reads NR floats from its run start, so the last tile of
    // a plane may read up to NR − 1 floats past the plane.
    let scratch = ph.sample_len(&g) + NR;
    let in_len = g.c * g.h * g.w;
    let out_len = g.c_out * g.oh * g.ow;
    let xd = x.data();
    let mut out = Tensor::zeros([g.n, g.c_out, g.oh, g.ow]);
    let fill = |first_sample: usize, piece: &mut [f32]| {
        let isa = simd::active_isa();
        PLANES.with(|cell| {
            let mut planes = cell.take();
            planes.resize(scratch, 0.0);
            for (r, ys) in piece.chunks_mut(out_len).enumerate() {
                ph.build(&g, &xd[(first_sample + r) * in_len..][..in_len], &mut planes);
                simd::dispatch_with(isa, DirectSample { args: &args, planes: &planes, ys });
            }
            cell.set(planes);
        });
    };
    par::dispatch_chunks(out.data_mut(), out_len, g.n * g.c_out * patch * g.oh * g.ow, fill);
    Ok(out)
}

/// One sample's register tiles: for each `MR`-channel tile and each run
/// of `NR` flattened positions, accumulate every tap in ascending order
/// from `+0.0`, then store the lanes that are output positions, adding
/// the bias. Generic over the lane type, so the AVX2 and portable
/// instantiations run the same multiplies and adds.
struct DirectSample<'a> {
    args: &'a DirectArgs<'a>,
    planes: &'a [f32],
    ys: &'a mut [f32],
}

impl SimdOp for DirectSample<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let Self { args, planes, ys } = self;
        let patch = args.taps.len();
        let plane = ys.len() / args.c_out;
        for co0 in (0..args.c_out).step_by(MR) {
            let w = &args.wpack[co0 * patch..][..patch * MR];
            for (q0, dst) in (0..).step_by(NR).zip(args.pos.chunks_exact(NR)) {
                let mut acc = [S::splat(0.0); MR];
                for (&tap, wv) in args.taps.iter().zip(w.chunks_exact(MR)) {
                    let xv = S::load(&planes[tap + q0..tap + q0 + NR]);
                    for (a, &wr) in acc.iter_mut().zip(wv) {
                        *a = a.add(S::splat(wr).mul(xv));
                    }
                }
                // Valid lanes map to consecutive output positions, so the
                // tile is one contiguous run exactly when both ends are
                // valid and `NR − 1` apart.
                let run = dst[0] != SKIP && dst[NR - 1] == dst[0] + NR - 1;
                for (r, row) in acc.iter().enumerate().take(args.c_out - co0) {
                    let b = args.bias[co0 + r];
                    let yrow = &mut ys[(co0 + r) * plane..][..plane];
                    if run {
                        row.add(S::splat(b)).store(&mut yrow[dst[0]..dst[0] + NR]);
                        continue;
                    }
                    for (&d, v) in dst.iter().zip(row.to_array()) {
                        if d != SKIP {
                            yrow[d] = v + b;
                        }
                    }
                }
            }
        }
    }
}

/// Backward 2-D convolution. Given the output gradient `gy` of shape
/// `(n, c_out, oh, ow)`, returns `(dx, dw, db)`: `dx` when `want_dx`,
/// `db` when `want_bias`.
///
/// The weight gradient is `dWᵀ = colsᵀ · g` with the GEMM's `A` blocks
/// packed straight from the padded input; the input gradient is computed
/// per sample as `dcolsᵀ = Wᵀ · gy[ni]` and folded straight into `dx`.
/// The module docs explain why both are bitwise-identical to the
/// `gᵀ · cols` and `col2im(g · W)` references for finite data.
///
/// # Errors
///
/// Returns an error on the operand errors of [`conv2d_forward`], or if
/// `gy` is not `(n, c_out, oh, ow)` for this geometry.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    gy: &Tensor,
    stride: usize,
    padding: usize,
    want_dx: bool,
    want_bias: bool,
) -> Result<(Option<Tensor>, Tensor, Option<Tensor>)> {
    let g = Geom::new("conv2d_backward", x, weight, stride, padding)?;
    let (n, c_out, oh, ow) = (g.n, g.c_out, g.oh, g.ow);
    if gy.shape().as_nchw() != Some((n, c_out, oh, ow)) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: gy.shape().clone(),
            rhs: [n, c_out, oh, ow].into(),
        });
    }
    let (c_in, h, w, k) = (g.c, g.h, g.w, g.k);
    let patch = g.patch();
    let plane = oh * ow;

    // Rearrange gy (n, c_out, oh, ow) -> (n*oh*ow, c_out); the parallel
    // unit is one sample's contiguous (oh*ow, c_out) block.
    let gd = gy.data();
    let mut gmat = Tensor::zeros([n * plane, c_out]);
    {
        let block = plane * c_out;
        let fill = |first_sample: usize, piece: &mut [f32]| {
            for (r, sample) in piece.chunks_mut(block).enumerate() {
                let ni = first_sample + r;
                for co in 0..c_out {
                    for (pos, &v) in gd[(ni * c_out + co) * plane..][..plane].iter().enumerate() {
                        sample[pos * c_out + co] = v;
                    }
                }
            }
        };
        par::dispatch_chunks(gmat.data_mut(), block, n * block, fill);
    }

    // dWᵀ: (patch, c_out) = colsᵀ · gmat with colsᵀ gathered from every
    // sample's phase planes; the transpose back to (c_out, patch) is a
    // bit-copy.
    let dwt = {
        let ph = Phases::new(&g);
        let sample_len = ph.sample_len(&g);
        let in_len = c_in * h * w;
        let mut planes = vec![0.0f32; n * sample_len];
        par::dispatch_chunks(&mut planes, sample_len, n * sample_len, |first_sample, piece| {
            for (r, dst) in piece.chunks_mut(sample_len).enumerate() {
                ph.build(&g, &x.data()[(first_sample + r) * in_len..][..in_len], dst);
            }
        });
        let mut cols = Vec::with_capacity(n * plane);
        for ni in 0..n {
            for oy in 0..oh {
                cols.extend((0..ow).map(|ox| ni * sample_len + oy * ph.wq + ox));
            }
        }
        gemm::gemm_gather_a(Gather { data: &planes, rows: &ph.taps(&g), cols: &cols }, &gmat)
    };
    let dw = super::matmul::transpose(&dwt)?.reshape([c_out, c_in, k, k])?;

    // dx, one sample per chunk: dcolsᵀ = Wᵀ · gy[ni] (patch × oh·ow) on
    // the chunk's own thread, folded into dx[ni] plane by plane in
    // descending (ky, kx) order — col2im's per-pixel addition sequence
    // (see the module docs).
    let dx = want_dx.then(|| {
        let (s, p) = (g.s, g.p);
        let wmat = weight.reshape([c_out, patch]).expect("weight is c_out × patch");
        let mut dx = Tensor::zeros([n, c_in, h, w]);
        let fill = |first_sample: usize, piece: &mut [f32]| {
            for (r, dxn) in piece.chunks_mut(c_in * h * w).enumerate() {
                let gyn = &gd[(first_sample + r) * c_out * plane..][..c_out * plane];
                let dcolst = gemm::gemm_serial(&wmat, Trans::T, gyn, plane);
                for (img, dplanes) in dxn.chunks_mut(h * w).zip(dcolst.chunks(k * k * plane)) {
                    for ky in (0..k).rev() {
                        let oys = taps_inside(h, oh, ky, s, p);
                        for kx in (0..k).rev() {
                            let oxs = taps_inside(w, ow, kx, s, p);
                            if oxs.is_empty() {
                                continue;
                            }
                            let src = &dplanes[(ky * k + kx) * plane..];
                            let ix = oxs.start * s + kx - p;
                            for oy in oys.clone() {
                                let row = &src[oy * ow + oxs.start..oy * ow + oxs.end];
                                let dst = &mut img[(oy * s + ky - p) * w + ix..];
                                if s == 1 {
                                    dst.iter_mut().zip(row).for_each(|(d, &v)| *d += v);
                                } else {
                                    dst.iter_mut().step_by(s).zip(row).for_each(|(d, &v)| *d += v);
                                }
                            }
                        }
                    }
                }
            }
        };
        par::dispatch_chunks(dx.data_mut(), c_in * h * w, n * patch * c_out * plane, fill);
        dx
    });

    let db = want_bias.then(|| {
        let mut db = Tensor::zeros([c_out]);
        let dbd = db.data_mut();
        for ni in 0..n {
            for (co, acc) in dbd.iter_mut().enumerate() {
                let base = (ni * c_out + co) * plane;
                *acc += gd[base..base + plane].iter().sum::<f32>();
            }
        }
        db
    });
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

    /// Every phase plane holds the padded pixel its position names:
    /// tap `(ci, ky, kx)` of output `(oy, ox)` reads, at its run offset
    /// plus `oy·wq + ox`, the input pixel `(oy·s + ky − p, ox·s + kx − p)`
    /// or zero in the padding.
    #[test]
    fn phase_planes_place_every_tap_at_its_padded_pixel() {
        for (k, s, p) in [(3, 1, 1), (3, 2, 1), (1, 2, 0), (2, 3, 2), (3, 3, 0)] {
            let (c, h, w) = (2, 7, 5);
            let xs: Vec<f32> = (0..c * h * w).map(|i| i as f32 + 1.0).collect();
            let x = Tensor::from_vec([1, c, h, w], xs.clone()).unwrap();
            let wt = Tensor::zeros([1, c, k, k]);
            let g = Geom::new("test", &x, &wt, s, p).unwrap();
            let ph = Phases::new(&g);
            let mut planes = vec![f32::NAN; ph.sample_len(&g)];
            ph.build(&g, &xs, &mut planes);
            let taps = ph.taps(&g);
            for (t, &off) in taps.iter().enumerate() {
                let (ci, ky, kx) = (t / (k * k), t / k % k, t % k);
                for oy in 0..g.oh {
                    for ox in 0..g.ow {
                        let (iy, ix) = (oy * s + ky, ox * s + kx);
                        let inside = (p..h + p).contains(&iy) && (p..w + p).contains(&ix);
                        let want = if inside { xs[(ci * h + iy - p) * w + ix - p] } else { 0.0 };
                        let got = planes[off + oy * ph.wq + ox];
                        assert_eq!(got.to_bits(), want.to_bits(), "k{k} s{s} p{p} tap {t}");
                    }
                }
            }
        }
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
        let (dx, dw, db) = conv2d_backward(&x, &w, &gy, 2, 1, true, true).unwrap();
        assert_eq!(dx.unwrap().shape(), x.shape());
        assert_eq!(dw.shape(), w.shape());
        assert_eq!(db.unwrap().shape().dims(), &[4]);
        let (dx, _, db) = conv2d_backward(&x, &w, &gy, 2, 1, false, false).unwrap();
        assert!(dx.is_none() && db.is_none());
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
        let (_, dw, _) = conv2d_backward(&x, &w, &gy, 2, 1, false, false).unwrap();
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
            let gy = Tensor::zeros([1, 1, 1, 1]);
            assert!(invalid(conv2d_backward(&x, &w, &gy, s, p, true, true).map(drop)));
            assert!(invalid(im2col(&x, k, s, p).map(drop)), "{shape:?} {k}/{s}/{p}");
            let cols = Tensor::zeros([1, 1]);
            let [n, c, h, wd] = shape;
            assert!(invalid(col2im(&cols, n, c, h, wd, k, s, p).map(drop)));
        }
        // The largest kernel that fits the padded input is valid.
        let x = Tensor::zeros([1, 1, 2, 2]);
        assert_eq!(conv2d_forward(&x, &Tensor::zeros([1, 1, 4, 4]), None, 1, 1).unwrap().len(), 1);
    }

    #[test]
    fn mismatched_operands_are_rejected() {
        let x = Tensor::zeros([1, 2, 4, 4]);
        let w = Tensor::zeros([3, 2, 3, 3]);
        let shape_err = |r: Result<()>| matches!(r, Err(TensorError::ShapeMismatch { .. }));
        // A bias of the wrong length, a weight with the wrong input width,
        // an output gradient of the wrong geometry.
        let b = Tensor::zeros([2]);
        assert!(shape_err(conv2d_forward(&x, &w, Some(&b), 1, 1).map(drop)));
        let w1 = Tensor::zeros([3, 1, 3, 3]);
        assert!(shape_err(conv2d_forward(&x, &w1, None, 1, 1).map(drop)));
        let gy = Tensor::zeros([1, 3, 2, 2]);
        assert!(shape_err(conv2d_backward(&x, &w, &gy, 1, 1, true, false).map(drop)));
    }
}
