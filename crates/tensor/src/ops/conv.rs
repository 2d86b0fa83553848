//! 2-D convolution kernels: a direct forward over the zero-padded input,
//! a backward whose two gradient products are register tiles over the
//! same padded input and a padded copy of the output gradient, and the
//! unfused [`im2col`] / [`col2im`] pair both are checked against. No
//! production path forms a column matrix or calls the GEMM.
//!
//! ## Phase planes
//!
//! Every kernel reads or writes a sample's zero-padded image through its
//! **phase planes**: for stride `s`, phase `(ry, rx)` of channel `ci`
//! holds padded pixel `(s·a + ry, s·b + rx)` at `(a, b)`. Tap
//! `(ci, ky, kx)` of output `(oy, ox)` then reads phase
//! `(ky mod s, kx mod s)` at `(oy + ky / s, ox + kx / s)`. Each plane is
//! `hq × wq` with `hq = oh + (k − 1)/s` and `wq = ow + (k − 1)/s`, so in
//! the flattened coordinate `q = oy·wq + ox` every tap reads one
//! contiguous run of one plane, shifted by a fixed offset. Only the
//! `min(s, k)²` phases some tap reads are built (a 1×1 stride-2 conv
//! builds one). At stride 1 the one phase is the padded image itself.
//!
//! Which plane rows and columns hold input pixels is worked out once per
//! call, as one range per row phase and per column phase. Building a
//! sample's planes zeroes them once and copies each held input row's
//! run for each column phase; the input gradient's copy-out walks the
//! same runs the other way.
//!
//! ## Forward: direct convolution
//!
//! [`conv2d_forward`] runs one sample per pool chunk. The chunk builds
//! its sample's phase planes, and an [`MR`]×[`NR`] register tile (output
//! channels × consecutive `q`) then starts its accumulators at `+0.0`
//! and, for every tap in ascending `(ci, ky, kx)` order, adds `w · x`
//! with a separate multiply and add (never FMA). That is the chain the
//! GEMM computes for `W · colsᵀ`: one accumulator per output, the patch
//! reduced in ascending order from `+0.0`, padding taps multiplying a
//! stored zero. So the output is bit-identical to `im2col` → GEMM. The tile
//! writes NCHW directly; lanes whose `q` falls in the `wq − ow`
//! wrap-around columns or past the last output are discarded, like the
//! GEMM's padded lanes.
//!
//! Every tile body here is one generic function over the 8-lane
//! `SimdF32` abstraction, entered through
//! `#[target_feature(enable = "avx2")]` when
//! [`active_isa`](crate::simd::active_isa) says so (read once per
//! chunk), so `SDC_SIMD=scalar` runs the portable instantiation of the
//! same code.
//!
//! ## Backward
//!
//! [`conv2d_backward`] makes two dispatches. One chunk per sample lays
//! out that sample's phase planes and its output gradient as
//! `(position, c_out)` rows, and computes the sample's input gradient.
//! Then one chunk per block of [`TAP_BLOCK`] taps computes those taps'
//! weight gradient over every sample's layout.
//!
//! - **Weight gradient.** A tile of 4 taps × 16 output channels (two
//!   vectors; 8 taps × 8 channels for a last single vector), eight
//!   accumulators, starts at `+0.0` and accumulates `x · g` over ascending
//!   `(n, oy, ox)`: each tap's value is broadcast from the phase planes,
//!   each `g` row loaded from the rearrange. Every element is one chain
//!   over the valid output positions in the column matrix's order, the
//!   chain the GEMM forms for `colsᵀ · g`. So `dW` is bit-identical to
//!   `gᵀ · cols`.
//! - **Input gradient: a direct transposed convolution in gather form.**
//!   The sample's chunk lays `gy[ni]` out at the phase-plane row stride
//!   `wq`, with zero wrap-around columns, zero rows from `oh` on and a
//!   zero front margin of `(k − 1)/s · (wq + 1)`, the largest tap run
//!   offset. Then an [`MR`]×[`NR`] tile (input channels × consecutive
//!   `q` of one phase plane of the padded `dx`) starts at `+0.0`. For
//!   each tap of its phase, in descending `(ky, kx)` order, it adds one
//!   chain of `w · g` over ascending `c_out`, which also starts at
//!   `+0.0`; a tap whose run offset is `off` reads `g` at `q − off`.
//!   Only the tiles that cover a pixel the planes hold run, and the chunk
//!   copies those pixels out to `dx[ni]` row by row. It is skipped when
//!   the caller does not want it (the graph's constant inputs).
//!
//! ### Why the input gradient reproduces `col2im` bit for bit
//!
//! [`col2im`], the reference adjoint, starts every pixel at `+0.0` and
//! adds into it in ascending `(oy, ox, ky, kx)` order, where each added
//! value is one `dcols` element: the ascending-`c_out` sum `g · W` from
//! `+0.0`. Pixel `(iy, ix)` receives tap `(ky, kx)` of output position
//! `(oy, ox)` only when `oy·s + ky = iy + p` and `ox·s + kx = ix + p`.
//! So along one pixel's contributions `oy` rises exactly as `ky` falls,
//! and `ox` exactly as `kx` falls; all of them come from taps of the
//! pixel's own phase. The tile's descending `(ky, kx)` order therefore
//! adds the same values in the same sequence, each chain being the
//! `dcols` element it replaces (ascending `c_out` from `+0.0`, the
//! factors swapped; see below).
//!
//! The tile also visits taps that give the pixel nothing: their `q − off`
//! lands in the front margin, in a wrap-around column or in a row at or
//! below `oh`, where `g` is zero. Such a chain is a sum of `±0.0`
//! products from `+0.0`, which is `+0.0`, and adding `+0.0` changes no
//! sum that started at `+0.0`: under round-to-nearest a sum is `−0.0`
//! only when both addends are, so the accumulator is never `−0.0`, and
//! `v + 0.0 = v` for every other `v`. Pixels no plane holds receive no
//! tap and are never written: they keep `+0.0`, as in `col2im`. Plane
//! positions in the padding are never copied out.
//!
//! ### Factor order and non-finite values
//!
//! The products above multiply `w · x`, `x · g` and `w · g` where the
//! column references multiply `x · w`, `g · x` and `g · w`. `f32`
//! multiplication is commutative at the bit level for finite values and
//! infinities, so the results are bitwise-identical wherever a finite
//! (or ±∞) product is formed. The determinism contract (finite data)
//! covers nothing else: a NaN's payload may differ, and a non-finite
//! weight times a zero-margin `g` gives NaN where the reference adds
//! nothing.
//!
//! Every loop here parallelizes over disjoint output regions (whole
//! samples for the forward and for the backward's layout and input
//! gradient, tap blocks for the weight gradient, patch rows for
//! [`im2col`], per-sample channel images for [`col2im`]) on the
//! `sdc-runtime` pool; every element is produced by exactly one chunk in
//! the serial order, so outputs are bit-identical at any thread count.

use std::cell::Cell;
use std::ops::Range;

use crate::error::{Result, TensorError};
use crate::par;
use crate::simd::{self, Isa, SimdF32, SimdOp, LANES};
use crate::Tensor;

/// Channels per register tile: output channels in the forward, input
/// channels in the input gradient.
pub const MR: usize = 8;

/// Consecutive output positions (flattened `q`) per register tile: one
/// 8-lane vector.
pub const NR: usize = LANES;

/// Taps per chunk of the weight gradient's dispatch.
pub const TAP_BLOCK: usize = 8;

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

/// The phase planes of one sample's zero-padded image (see the module
/// docs): `c` channels of `kp²` planes of `hq × wq` floats, each plane
/// rounded up to whole `NR` tiles.
#[derive(Debug)]
struct Phases {
    /// Phases per axis that some tap reads: `min(s, k)`.
    kp: usize,
    /// Plane row length.
    wq: usize,
    /// Floats per plane: `hq·wq`, rounded up to a multiple of `NR`.
    len: usize,
    /// Per row phase `ry`, the plane rows `a` that hold an input row,
    /// `a·s + ry − p`.
    rows: Vec<Range<usize>>,
    /// Per column phase `rx`, the plane columns `b` that hold an input
    /// column, `b·s + rx − p`.
    cols: Vec<Range<usize>>,
}

impl Phases {
    fn new(g: &Geom) -> Self {
        let reach = (g.k - 1) / g.s;
        let (kp, hq, wq) = (g.s.min(g.k), g.oh + reach, g.ow + reach);
        Self {
            kp,
            wq,
            len: (hq * wq).next_multiple_of(NR),
            rows: (0..kp).map(|ry| taps_inside(g.h, hq, ry, g.s, g.p)).collect(),
            cols: (0..kp).map(|rx| taps_inside(g.w, wq, rx, g.s, g.p)).collect(),
        }
    }

    /// Floats in one channel's planes.
    fn channel_len(&self) -> usize {
        self.kp * self.kp * self.len
    }

    /// Floats in one sample's planes.
    fn sample_len(&self, g: &Geom) -> usize {
        g.c * self.channel_len()
    }

    /// The offset of every tap's run, in ascending `(ci, ky, kx)` order.
    fn taps(&self, g: &Geom) -> Vec<usize> {
        let mut taps = Vec::with_capacity(g.patch());
        for ci in 0..g.c {
            for ky in 0..g.k {
                for kx in 0..g.k {
                    let plane = (ci * self.kp + ky % g.s) * self.kp + kx % g.s;
                    taps.push(plane * self.len + ky / g.s * self.wq + kx / g.s);
                }
            }
        }
        taps
    }

    /// Per phase `ry·kp + rx`, the flattened plane positions `a·wq + b`
    /// from the first pixel the phase holds to one past the last (empty
    /// when it holds none): all that [`copy_out`](Self::copy_out) reads.
    fn held(&self) -> Vec<Range<usize>> {
        let mut held = Vec::with_capacity(self.kp * self.kp);
        for a in &self.rows {
            for b in &self.cols {
                held.push(if a.is_empty() || b.is_empty() {
                    0..0
                } else {
                    a.start * self.wq + b.start..(a.end - 1) * self.wq + b.end
                });
            }
        }
        held
    }

    /// Calls `f(input row, plane offset, input column, count)` for every
    /// run of one input row that one plane row holds, the pixels `s`
    /// apart in the input and adjacent in the plane; offsets are within
    /// one channel.
    fn runs(&self, g: &Geom, mut f: impl FnMut(usize, usize, usize, usize)) {
        for (ry, rows) in self.rows.iter().enumerate() {
            for a in rows.clone() {
                for (rx, cols) in self.cols.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
                    let at = (ry * self.kp + rx) * self.len + a * self.wq + cols.start;
                    f(a * g.s + ry - g.p, at, cols.start * g.s + rx - g.p, cols.len());
                }
            }
        }
    }

    /// Writes one sample `xs` (`c × h × w`) as phase planes into the
    /// first [`sample_len`](Self::sample_len) floats of `dst`: zeroes
    /// them, then copies each run of each input row the planes hold once.
    fn build(&self, g: &Geom, xs: &[f32], dst: &mut [f32]) {
        let chan = self.channel_len();
        let dst = &mut dst[..g.c * chan];
        dst.fill(0.0);
        for ci in 0..g.c {
            let img = &xs[ci * g.h * g.w..][..g.h * g.w];
            let planes = &mut dst[ci * chan..][..chan];
            self.runs(g, |iy, at, ix, count| {
                let (src, out) = (&img[iy * g.w + ix..], &mut planes[at..at + count]);
                if g.s == 1 {
                    out.copy_from_slice(&src[..count]);
                } else {
                    out.iter_mut().zip(src.iter().step_by(g.s)).for_each(|(d, &v)| *d = v);
                }
            });
        }
    }

    /// The inverse of [`build`](Self::build): copies every pixel the
    /// planes in `src` hold into `dst` (`c × h × w`). Pixels no plane
    /// holds are left as they are.
    fn copy_out(&self, g: &Geom, src: &[f32], dst: &mut [f32]) {
        let chan = self.channel_len();
        for ci in 0..g.c {
            let img = &mut dst[ci * g.h * g.w..][..g.h * g.w];
            let planes = &src[ci * chan..][..chan];
            self.runs(g, |iy, at, ix, count| {
                let (vals, out) = (&planes[at..at + count], &mut img[iy * g.w + ix..]);
                if g.s == 1 {
                    out[..count].copy_from_slice(vals);
                } else {
                    out.iter_mut().step_by(g.s).zip(vals).for_each(|(d, &v)| *d = v);
                }
            });
        }
    }
}

/// The output positions `o < out` whose tap `o·stride + t − padding`
/// lands inside `0..len`.
fn taps_inside(len: usize, out: usize, t: usize, stride: usize, padding: usize) -> Range<usize> {
    let lo = padding.saturating_sub(t).div_ceil(stride);
    let hi = (len + padding).saturating_sub(t).div_ceil(stride).min(out);
    lo..hi.max(lo)
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
    /// Reusable per-thread scratch for one sample's phase planes (and,
    /// in the input gradient, its padded output gradient), so the
    /// per-sample chunks do not allocate once warm. Each sample rewrites
    /// every float that reaches a result, so reuse cannot leak state.
    static PLANES: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with the first `len` floats of this thread's [`PLANES`]
/// scratch, grown as needed and kept for the next call.
fn with_scratch(len: usize, f: impl FnOnce(&mut [f32])) {
    PLANES.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len]);
        cell.set(buf);
    });
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
    c_out: usize,
}

/// Forward 2-D convolution, computed directly over the zero-padded
/// input with no column matrix (see the module docs).
///
/// * `x`: `(n, c_in, h, w)`
/// * `weight`: `(c_out, c_in, k, k)`
///
/// Returns `(n, c_out, oh, ow)`, bit-identical to `im2col` → GEMM for
/// finite data. One pool chunk per sample.
///
/// # Errors
///
/// Returns an error on rank or channel mismatches, a zero stride or
/// kernel, or a kernel larger than the padded input (`k > h + 2p` or
/// `k > w + 2p`).
pub fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let g = Geom::new("conv2d", x, weight, stride, padding)?;
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
    let args = DirectArgs { taps: &taps, wpack: &wpack, pos: &pos, c_out: g.c_out };

    // Every tile reads NR floats from its run start, so the last tile of
    // the last plane may read up to NR − 1 floats past the planes.
    let scratch = ph.sample_len(&g) + NR;
    let in_len = g.c * g.h * g.w;
    let out_len = g.c_out * g.oh * g.ow;
    let xd = x.data();
    let mut out = Tensor::zeros([g.n, g.c_out, g.oh, g.ow]);
    let fill = |first_sample: usize, piece: &mut [f32]| {
        let isa = simd::active_isa();
        with_scratch(scratch, |planes| {
            for (r, ys) in piece.chunks_mut(out_len).enumerate() {
                ph.build(&g, &xd[(first_sample + r) * in_len..][..in_len], planes);
                simd::dispatch_with(isa, DirectSample { args: &args, planes: &*planes, ys });
            }
        });
    };
    par::dispatch_chunks(out.data_mut(), out_len, g.n * g.c_out * patch * g.oh * g.ow, fill);
    Ok(out)
}

/// One sample's register tiles: for each `MR`-channel tile and each run
/// of `NR` flattened positions, accumulate every tap in ascending order
/// from `+0.0`, then store the lanes that are output positions. Generic
/// over the lane type, so the AVX2 and portable instantiations run the
/// same multiplies and adds.
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
                    let yrow = &mut ys[(co0 + r) * plane..][..plane];
                    if run {
                        row.store(&mut yrow[dst[0]..dst[0] + NR]);
                        continue;
                    }
                    for (&d, v) in dst.iter().zip(row.to_array()) {
                        if d != SKIP {
                            yrow[d] = v;
                        }
                    }
                }
            }
        }
    }
}

/// Backward 2-D convolution. Given the output gradient `gy` of shape
/// `(n, c_out, oh, ow)`, returns `(dx, dw)`, with `dx` only when
/// `want_dx`.
///
/// Both products are register tiles with no GEMM: `dW` accumulates
/// tap × output-channel tiles over the phase planes of every sample,
/// and `dx` is a per-sample transposed convolution that gathers `gy`
/// into the phase planes of the padded input. The module docs explain
/// why both are bitwise-identical to the `gᵀ · cols` and
/// `col2im(g · W)` references for finite data.
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
) -> Result<(Option<Tensor>, Tensor)> {
    let g = Geom::new("conv2d_backward", x, weight, stride, padding)?;
    if gy.shape().as_nchw() != Some((g.n, g.c_out, g.oh, g.ow)) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: gy.shape().clone(),
            rhs: [g.n, g.c_out, g.oh, g.ow].into(),
        });
    }
    let _conv_timer = sdc_obs::scope!("tensor.conv.backward");
    let ph = Phases::new(&g);
    let plane = g.oh * g.ow;
    let lanes = g.c_out.next_multiple_of(LANES);
    let planes = ph.sample_len(&g);
    let per_sample = planes + plane * lanes;
    let in_len = g.c * g.h * g.w;
    let dx_args = want_dx.then(|| DxArgs::new(&g, &ph, weight.data()));
    let mut dx = want_dx.then(|| Tensor::zeros([g.n, g.c, g.h, g.w]));

    // One chunk per sample: lay the sample out for the weight gradient
    // and, when wanted, compute its input gradient.
    let (xd, gd) = (x.data(), gy.data());
    let mut samples = vec![0.0f32; g.n * per_sample];
    let mut dxs = dx.as_mut().map(|t| t.data_mut().chunks_mut(in_len.max(1)));
    let mut parts: Vec<_> = samples
        .chunks_mut(per_sample.max(1))
        .map(|buf| (buf, dxs.as_mut().and_then(Iterator::next).unwrap_or_default()))
        .collect();
    let dx_work = if want_dx { g.patch() * g.c_out * plane } else { 0 };
    par::dispatch_chunks(&mut parts, 1, g.n * (per_sample + dx_work), |first_sample, piece| {
        let isa = simd::active_isa();
        for (r, (buf, dxn)) in piece.iter_mut().enumerate() {
            let ni = first_sample + r;
            let gyn = &gd[ni * g.c_out * plane..][..g.c_out * plane];
            let (dst, rows) = buf.split_at_mut(planes);
            ph.build(&g, &xd[ni * in_len..][..in_len], dst);
            for (co, src) in gyn.chunks_exact(plane).enumerate() {
                for (row, &v) in rows.chunks_exact_mut(lanes).zip(src) {
                    row[co] = v;
                }
            }
            if let Some(args) = &dx_args {
                args.sample(&g, &ph, isa, gyn, dxn);
            }
        }
    });
    drop(parts);

    let args = DwArgs {
        samples: &samples,
        per_sample,
        planes,
        lanes,
        c_out: g.c_out,
        ow: g.ow,
        wq: ph.wq,
    };
    Ok((dx, weight_grad(&g, &ph, &args)))
}

/// What the weight gradient's tiles read: every sample's phase planes
/// followed by its output gradient as `(position, lanes)` rows.
struct DwArgs<'a> {
    samples: &'a [f32],
    /// Floats per sample in `samples`.
    per_sample: usize,
    /// Floats of phase planes at the front of each sample.
    planes: usize,
    /// `c_out` rounded up to whole vectors: the row length of the
    /// rearranged gradient, zero past `c_out`.
    lanes: usize,
    c_out: usize,
    ow: usize,
    wq: usize,
}

/// `dW` (`c_out × c·k²`): one pool chunk per [`TAP_BLOCK`] taps runs
/// [`DwTaps`] into `dWᵀ`, which is then transposed.
fn weight_grad(g: &Geom, ph: &Phases, args: &DwArgs<'_>) -> Tensor {
    let taps = ph.taps(g);
    let patch = taps.len();
    let mut dwt = vec![0.0f32; patch * g.c_out];
    let work = patch * g.c_out * g.n * g.oh * g.ow;
    par::dispatch_chunks(&mut dwt, TAP_BLOCK * g.c_out, work, |first_block, piece| {
        let t0 = first_block * TAP_BLOCK;
        let taps = &taps[t0..t0 + piece.len() / g.c_out];
        simd::dispatch_with(simd::active_isa(), DwTaps { args, taps, out: piece });
    });

    let mut dw = Tensor::zeros([g.c_out, g.c, g.k, g.k]);
    let dwd = dw.data_mut();
    for tap in 0..patch {
        for co in 0..g.c_out {
            dwd[co * patch + tap] = dwt[tap * g.c_out + co];
        }
    }
    dw
}

/// The weight gradient of some taps: `out` holds their `dWᵀ` rows
/// (`taps.len() × c_out`).
struct DwTaps<'a> {
    args: &'a DwArgs<'a>,
    taps: &'a [usize],
    out: &'a mut [f32],
}

impl SimdOp for DwTaps<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let Self { args, taps, out } = self;
        // Two vectors of output channels at a time (one for the last
        // vector of an odd count), with as many taps as make eight
        // accumulators.
        for co0 in (0..args.c_out).step_by(2 * LANES) {
            if args.lanes - co0 == LANES {
                dw_tiles::<S, 8, 1>(args, taps, co0, out);
            } else {
                dw_tiles::<S, 4, 2>(args, taps, co0, out);
            }
        }
    }
}

/// `T` taps × `V` vectors of output channels from `co0`: each element
/// one chain from `+0.0` over ascending `(n, oy, ox)`. A short last tile
/// repeats its first tap in the missing rows and discards them.
#[inline(always)]
fn dw_tiles<S: SimdF32, const T: usize, const V: usize>(
    args: &DwArgs<'_>,
    taps: &[usize],
    co0: usize,
    out: &mut [f32],
) {
    let width = (args.c_out - co0).min(V * LANES);
    for (t0, tile) in (0..).step_by(T).zip(taps.chunks(T)) {
        let off: [usize; T] = std::array::from_fn(|t| tile.get(t).copied().unwrap_or(tile[0]));
        let mut acc = [[S::splat(0.0); V]; T];
        for sample in args.samples.chunks_exact(args.per_sample) {
            let (planes, rows) = sample.split_at(args.planes);
            for (oy, grows) in rows.chunks_exact(args.ow * args.lanes).enumerate() {
                let xs: [&[f32]; T] =
                    std::array::from_fn(|t| &planes[off[t] + oy * args.wq..][..args.ow]);
                for (ox, grow) in grows.chunks_exact(args.lanes).enumerate() {
                    let grow = &grow[co0..co0 + V * LANES];
                    let gv: [S; V] = std::array::from_fn(|v| S::load(&grow[v * LANES..]));
                    for (row, x) in acc.iter_mut().zip(xs) {
                        let xv = S::splat(x[ox]);
                        for (a, &gl) in row.iter_mut().zip(&gv) {
                            *a = a.add(xv.mul(gl));
                        }
                    }
                }
            }
        }
        for (t, row) in acc.iter().enumerate().take(tile.len()) {
            let dst = &mut out[(t0 + t) * args.c_out + co0..][..width];
            for (lanes, v) in dst.chunks_mut(LANES).zip(row) {
                lanes.copy_from_slice(&v.to_array()[..lanes.len()]);
            }
        }
    }
}

/// What the input gradient's tiles read, shared by every sample.
struct DxArgs {
    /// The weights in `MR`-input-channel tiles: tile `t`, tap
    /// `kk = ky·k + kx`, output channel `co` holds `w[co, t·MR + r, kk]`
    /// at `((t·k² + kk)·c_out + co)·MR + r`, zero past `c`.
    wpack: Vec<f32>,
    /// Per phase `ry·kp + rx`, its taps in descending `(ky, kx)` order:
    /// `(kk, run offset within a plane)`.
    phase_taps: Vec<Vec<(usize, usize)>>,
    /// Per phase, the first `q` of every tile that covers a position the
    /// copy-out reads.
    tiles: Vec<Range<usize>>,
    /// Floats per output channel of the padded `gy`.
    glen: usize,
    /// Zeros in front of each output channel of the padded `gy`: the
    /// largest tap run offset.
    margin: usize,
    /// Floats per phase plane.
    len: usize,
    c: usize,
    c_out: usize,
    kk: usize,
}

impl DxArgs {
    fn new(g: &Geom, ph: &Phases, wd: &[f32]) -> Self {
        let kk = g.k * g.k;
        let mut phase_taps = vec![Vec::new(); ph.kp * ph.kp];
        for ky in (0..g.k).rev() {
            for kx in (0..g.k).rev() {
                let phase = ky % g.s * ph.kp + kx % g.s;
                phase_taps[phase].push((ky * g.k + kx, ky / g.s * ph.wq + kx / g.s));
            }
        }
        let mut wpack = vec![0.0f32; g.c.div_ceil(MR) * kk * g.c_out * MR];
        for co in 0..g.c_out {
            for ci in 0..g.c {
                for t in 0..kk {
                    wpack[((ci / MR * kk + t) * g.c_out + co) * MR + ci % MR] =
                        wd[(co * g.c + ci) * kk + t];
                }
            }
        }
        let tiles = ph.held().into_iter().map(|q| q.start / NR * NR..q.end).collect();
        let margin = (g.k - 1) / g.s * (ph.wq + 1);
        Self {
            wpack,
            phase_taps,
            tiles,
            glen: margin + ph.len,
            margin,
            len: ph.len,
            c: g.c,
            c_out: g.c_out,
            kk,
        }
    }

    /// `dx[ni]` into `dxn` (`c × h × w`, all `+0.0`) from `gyn = gy[ni]`:
    /// lays `gyn` out padded, runs [`DxSample`] into the phase planes of
    /// the padded `dx[ni]`, and copies their interior out.
    fn sample(&self, g: &Geom, ph: &Phases, isa: Isa, gyn: &[f32], dxn: &mut [f32]) {
        let gy_len = self.c_out * self.glen;
        with_scratch(gy_len + ph.sample_len(g), |buf| {
            let (gpad, planes) = buf.split_at_mut(gy_len);
            gpad.fill(0.0);
            for (dst, src) in gpad.chunks_exact_mut(self.glen).zip(gyn.chunks_exact(g.oh * g.ow)) {
                for (drow, srow) in dst[self.margin..].chunks_mut(ph.wq).zip(src.chunks_exact(g.ow))
                {
                    drow[..g.ow].copy_from_slice(srow);
                }
            }
            simd::dispatch_with(isa, DxSample { args: self, gpad: &*gpad, planes: &mut *planes });
            ph.copy_out(g, planes, dxn);
        });
    }
}

/// One sample's input-gradient tiles: for each `MR`-input-channel tile,
/// each phase and each run of `NR` plane positions, add one chain of
/// `w · g` over ascending `c_out` per tap of the phase, in descending
/// `(ky, kx)` order, to an accumulator that starts at `+0.0`.
struct DxSample<'a> {
    args: &'a DxArgs,
    /// `gy[ni]` padded: `c_out` rows of [`DxArgs::glen`] floats.
    gpad: &'a [f32],
    /// The phase planes of the padded `dx[ni]`, written at every
    /// position the copy-out reads.
    planes: &'a mut [f32],
}

impl SimdOp for DxSample<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let Self { args, gpad, planes } = self;
        let (len, c_out, glen) = (args.len, args.c_out, args.glen);
        let phases = args.phase_taps.len();
        for (tile, ci0) in (0..args.c).step_by(MR).enumerate() {
            let w = &args.wpack[tile * args.kk * c_out * MR..][..args.kk * c_out * MR];
            for (phase, (taps, tiles)) in args.phase_taps.iter().zip(&args.tiles).enumerate() {
                for q0 in tiles.clone().step_by(NR) {
                    let mut acc = [S::splat(0.0); MR];
                    for &(kk, off) in taps {
                        let wt = &w[kk * c_out * MR..][..c_out * MR];
                        let mut chain = [S::splat(0.0); MR];
                        let gs = gpad[args.margin + q0 - off..].chunks(glen);
                        for (wv, g) in wt.chunks_exact(MR).zip(gs) {
                            let gv = S::load(g);
                            for (c, &wr) in chain.iter_mut().zip(wv) {
                                *c = c.add(S::splat(wr).mul(gv));
                            }
                        }
                        for (a, c) in acc.iter_mut().zip(chain) {
                            *a = a.add(c);
                        }
                    }
                    for (r, v) in acc.iter().enumerate().take(args.c - ci0) {
                        v.store(&mut planes[((ci0 + r) * phases + phase) * len + q0..]);
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
        let y = conv2d_forward(&x, &w, 1, 0).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 kernel over a 3x3 image of ones with padding 1:
        // centre sees 9 ones, edges 6, corners 4.
        let x = Tensor::ones([1, 1, 3, 3]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let y = conv2d_forward(&x, &w, 1, 1).unwrap();
        assert_eq!(y.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn stride_two_downsamples() {
        let x = Tensor::ones([1, 1, 4, 4]);
        let w = Tensor::ones([1, 1, 1, 1]);
        let y = conv2d_forward(&x, &w, 2, 0).unwrap();
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
        let y = conv2d_forward(&x, &w, 2, 1).unwrap();
        let gy = Tensor::ones(y.shape().clone());
        let (dx, dw) = conv2d_backward(&x, &w, &gy, 2, 1, true).unwrap();
        assert_eq!(dx.unwrap().shape(), x.shape());
        assert_eq!(dw.shape(), w.shape());
        let (dx, _) = conv2d_backward(&x, &w, &gy, 2, 1, false).unwrap();
        assert!(dx.is_none());
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "bit mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn fused_forward_matches_unfused_reference_bitwise() {
        // A deep patch (29·3·3 = 261); rows = 2·3·3 = 18 is not an NR
        // multiple; padding exercises the zero lanes.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn([2, 29, 3, 3], 1.0, &mut rng);
        let w = Tensor::randn([5, 29, 3, 3], 0.1, &mut rng);
        let y = conv2d_forward(&x, &w, 1, 1).unwrap();
        let cols = im2col(&x, 3, 1, 1).unwrap();
        let wmat = w.reshape([5, 261]).unwrap();
        let prod = super::super::matmul::matmul_nt(&cols, &wmat).unwrap();
        let (oh, ow) = (3, 3);
        for ni in 0..2 {
            for co in 0..5 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let got = y.data()[((ni * 5 + co) * oh + oy) * ow + ox];
                        let want = prod.data()[((ni * oh + oy) * ow + ox) * 5 + co];
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn direct_dw_matches_unfused_reference_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn([2, 29, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn([4, 29, 3, 3], 0.1, &mut rng);
        let y = conv2d_forward(&x, &w, 2, 1).unwrap();
        let gy = Tensor::randn(y.shape().clone(), 1.0, &mut rng);
        let (_, dw) = conv2d_backward(&x, &w, &gy, 2, 1, false).unwrap();
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
            assert!(invalid(conv2d_forward(&x, &w, s, p).map(drop)), "{shape:?} {k}/{s}/{p}");
            let gy = Tensor::zeros([1, 1, 1, 1]);
            assert!(invalid(conv2d_backward(&x, &w, &gy, s, p, true).map(drop)));
            assert!(invalid(im2col(&x, k, s, p).map(drop)), "{shape:?} {k}/{s}/{p}");
            let cols = Tensor::zeros([1, 1]);
            let [n, c, h, wd] = shape;
            assert!(invalid(col2im(&cols, n, c, h, wd, k, s, p).map(drop)));
        }
        // The largest kernel that fits the padded input is valid.
        let x = Tensor::zeros([1, 1, 2, 2]);
        assert_eq!(conv2d_forward(&x, &Tensor::zeros([1, 1, 4, 4]), 1, 1).unwrap().len(), 1);
    }

    #[test]
    fn mismatched_operands_are_rejected() {
        let x = Tensor::zeros([1, 2, 4, 4]);
        let w = Tensor::zeros([3, 2, 3, 3]);
        let shape_err = |r: Result<()>| matches!(r, Err(TensorError::ShapeMismatch { .. }));
        // A weight with the wrong input width, an output gradient of the
        // wrong geometry.
        let w1 = Tensor::zeros([3, 1, 3, 3]);
        assert!(shape_err(conv2d_forward(&x, &w1, 1, 1).map(drop)));
        let gy = Tensor::zeros([1, 3, 2, 2]);
        assert!(shape_err(conv2d_backward(&x, &w, &gy, 1, 1, true).map(drop)));
    }
}
