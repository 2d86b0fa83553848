//! Generic kernel bodies and the `SimdOp` dispatch seam.
//!
//! A [`SimdOp`] is one chunk's worth of work written generically over
//! the 8-lane [`SimdF32`] abstraction. The dispatcher monomorphises it
//! once per ISA: through [`dispatch_with`] it either runs the scalar
//! instantiation directly or crosses the `#[target_feature(enable =
//! "avx2")]` boundary so the whole body compiles to AVX2.
//!
//! # Canonical lane-accumulation order
//!
//! Every kernel fixes one evaluation order, independent of ISA:
//!
//! * **Maps** (unary, relu backward): elements are processed in 8-lane groups
//!   left to right; the trailing `len % 8` elements are computed as a
//!   zero-padded 8-lane group whose dead lanes are discarded. Each lane
//!   is an independent IEEE computation, so scalar and AVX2 agree
//!   bitwise lane by lane.
//! * **Horizontal reductions**: 8 independent accumulators consume full
//!   groups (`acc[j] ⊕= x[8g + j]`), then the lanes are folded
//!   sequentially (`((a0 ⊕ a1) ⊕ a2) …`), then the tail elements are
//!   folded sequentially in plain scalar code *shared verbatim by both
//!   ISA paths*.
//! * **Column reductions** accumulate each column down ascending rows —
//!   columns are independent lanes, so vectorising 8 columns at a time
//!   preserves the exact scalar order (and the historical `sum_cols`
//!   bits).
//!
//! Chunk boundaries are inherited unchanged from `par` (`ELEM_CHUNK`,
//! `ROW_CHUNK`, `COL_CHUNK` — all multiples of 8), so threading remains
//! bit-identical at any `SDC_THREADS`.

use super::math::{exp_lane, ln_lane, vexp, NAN_CANON};
use super::vec::{max_c_scalar, ScalarVec, SimdF32, LANES};
use super::{Isa, UnaryKernel};

/// One chunk's worth of vectorisable work, generic over the lane type.
///
/// This is the dispatch seam: implementors are the unary-map,
/// relu-backward zip, column-sum, and fused map-reduce chunk forms the
/// public entry points construct.
pub(crate) trait SimdOp {
    /// What the chunk evaluation produces (usually `()`; results are
    /// written through mutable slices).
    type Output;
    /// Run the chunk with lane type `S`.
    fn eval<S: SimdF32>(self) -> Self::Output;
}

/// Run `op` on the instantiation selected by `isa`.
#[inline]
pub(crate) fn dispatch_with<O: SimdOp>(isa: Isa, op: O) -> O::Output {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: `Isa::Avx2` is only ever produced after a successful
        // runtime `is_x86_feature_detected!("avx2")` check (see
        // `active_isa`), or by tests that perform the same check.
        return unsafe { super::avx2::eval_avx2(op) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    op.eval::<ScalarVec>()
}

/// Apply a unary kernel to one 8-lane group.
#[inline(always)]
fn apply_unary<S: SimdF32>(k: UnaryKernel, x: S) -> S {
    match k {
        UnaryKernel::Relu => {
            let zero = S::splat(0.0);
            S::blend(x.cmp_gt(zero), x, zero)
        }
        UnaryKernel::Scale { c } => x.mul(S::splat(c)),
    }
}

/// Relu backward on one 8-lane group pair: `gy` where `x > 0`, else 0.
#[inline(always)]
fn relu_bwd<S: SimdF32>(gy: S, x: S) -> S {
    let zero = S::splat(0.0);
    S::blend(x.cmp_gt(zero), gy, zero)
}

/// A unary map over one contiguous chunk.
pub(crate) struct UnaryChunk<'a> {
    pub k: UnaryKernel,
    pub src: &'a [f32],
    pub dst: &'a mut [f32],
}

impl SimdOp for UnaryChunk<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        debug_assert_eq!(self.src.len(), self.dst.len());
        let n = self.src.len();
        let mut i = 0;
        while i + LANES <= n {
            apply_unary::<S>(self.k, S::load(&self.src[i..])).store(&mut self.dst[i..]);
            i += LANES;
        }
        if i < n {
            let rem = n - i;
            let mut pad = [0.0f32; LANES];
            pad[..rem].copy_from_slice(&self.src[i..]);
            let out = apply_unary::<S>(self.k, S::load(&pad)).to_array();
            self.dst[i..].copy_from_slice(&out[..rem]);
        }
    }
}

/// The relu backward zip over one contiguous chunk pair.
pub(crate) struct ReluBwdChunk<'a> {
    pub gy: &'a [f32],
    pub x: &'a [f32],
    pub dst: &'a mut [f32],
}

impl SimdOp for ReluBwdChunk<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        debug_assert_eq!(self.gy.len(), self.dst.len());
        debug_assert_eq!(self.x.len(), self.dst.len());
        let n = self.dst.len();
        let mut i = 0;
        while i + LANES <= n {
            relu_bwd::<S>(S::load(&self.gy[i..]), S::load(&self.x[i..])).store(&mut self.dst[i..]);
            i += LANES;
        }
        if i < n {
            let rem = n - i;
            let mut pg = [0.0f32; LANES];
            let mut px = [0.0f32; LANES];
            pg[..rem].copy_from_slice(&self.gy[i..]);
            px[..rem].copy_from_slice(&self.x[i..]);
            let out = relu_bwd::<S>(S::load(&pg), S::load(&px)).to_array();
            self.dst[i..].copy_from_slice(&out[..rem]);
        }
    }
}

/// Canonical horizontal sum of a row.
#[inline(always)]
fn row_sum<S: SimdF32>(row: &[f32]) -> f32 {
    let mut acc = S::splat(0.0);
    let mut groups = row.chunks_exact(LANES);
    for g in groups.by_ref() {
        acc = acc.add(S::load(g));
    }
    let mut s = 0.0f32;
    for l in acc.to_array() {
        s += l;
    }
    for &v in groups.remainder() {
        s += v;
    }
    s
}

/// Canonical horizontal max of a row (`NEG_INFINITY` when empty).
#[inline(always)]
fn row_max<S: SimdF32>(row: &[f32]) -> f32 {
    let mut acc = S::splat(f32::NEG_INFINITY);
    let mut groups = row.chunks_exact(LANES);
    for g in groups.by_ref() {
        acc = acc.max_c(S::load(g));
    }
    let mut m = f32::NEG_INFINITY;
    for l in acc.to_array() {
        m = max_c_scalar(m, l);
    }
    for &v in groups.remainder() {
        m = max_c_scalar(m, v);
    }
    m
}

/// Canonical horizontal sum of squares of a row.
#[inline(always)]
fn row_sumsq<S: SimdF32>(row: &[f32]) -> f32 {
    let mut acc = S::splat(0.0);
    let mut groups = row.chunks_exact(LANES);
    for g in groups.by_ref() {
        let v = S::load(g);
        acc = acc.add(v.mul(v));
    }
    let mut s = 0.0f32;
    for l in acc.to_array() {
        s += l;
    }
    for &v in groups.remainder() {
        s += v * v;
    }
    s
}

/// Canonical horizontal dot product of two equal-length rows.
#[inline(always)]
fn row_dot<S: SimdF32>(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = S::splat(0.0);
    let mut ga = a.chunks_exact(LANES);
    let mut gb = b.chunks_exact(LANES);
    for (ca, cb) in ga.by_ref().zip(gb.by_ref()) {
        acc = acc.add(S::load(ca).mul(S::load(cb)));
    }
    let mut s = 0.0f32;
    for l in acc.to_array() {
        s += l;
    }
    for (&x, &y) in ga.remainder().iter().zip(gb.remainder()) {
        s += x * y;
    }
    s
}

/// Canonical horizontal sum of `exp(v - max)` over a row.
#[inline(always)]
fn row_expsum<S: SimdF32>(row: &[f32], max: f32) -> f32 {
    let shift = S::splat(max);
    let mut acc = S::splat(0.0);
    let mut groups = row.chunks_exact(LANES);
    for g in groups.by_ref() {
        acc = acc.add(vexp(S::load(g).sub(shift)));
    }
    let mut s = 0.0f32;
    for l in acc.to_array() {
        s += l;
    }
    for &v in groups.remainder() {
        s += exp_lane(v - max);
    }
    s
}

/// A column-sum over one `COL_CHUNK`-wide band of columns. `dst` is
/// `out[j0 .. j0 + w]`; `src` is the full `(n, d)` matrix. A NaN sum is
/// written as the canonical quiet NaN: which NaN operand an `fadd`
/// propagates is not preserved by the optimizer, so only the canonical
/// pattern is the same on every ISA and build.
pub(crate) struct SumColsChunk<'a> {
    pub src: &'a [f32],
    pub n: usize,
    pub d: usize,
    pub j0: usize,
    pub dst: &'a mut [f32],
}

impl SimdOp for SumColsChunk<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let (n, d, j0) = (self.n, self.d, self.j0);
        let w = self.dst.len();
        let mut j = 0;
        // Groups of 8 adjacent columns: each column is an independent
        // lane accumulating rows in ascending order — the exact scalar
        // order, so these bits match the historical scalar sum_cols.
        let nan = S::splat(f32::from_bits(NAN_CANON));
        while j + LANES <= w {
            let mut acc = S::splat(0.0);
            for i in 0..n {
                acc = acc.add(S::load(&self.src[i * d + j0 + j..]));
            }
            S::blend(acc.is_nan(), nan, acc).store(&mut self.dst[j..]);
            j += LANES;
        }
        // Trailing columns: plain scalar, ascending rows.
        for jj in j..w {
            let mut s = 0.0f32;
            for i in 0..n {
                s += self.src[i * d + j0 + jj];
            }
            self.dst[jj] = if s.is_nan() { f32::from_bits(NAN_CANON) } else { s };
        }
    }
}

/// Fused three-pass log-softmax over a chunk of rows (max / exp-sum /
/// normalize). `src` holds exactly `dst.len() / d` rows.
pub(crate) struct LogSoftmaxChunk<'a> {
    pub src: &'a [f32],
    pub d: usize,
    pub dst: &'a mut [f32],
}

impl SimdOp for LogSoftmaxChunk<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let d = self.d;
        if d == 0 {
            return;
        }
        let rows = self.dst.len() / d;
        for r in 0..rows {
            let row = &self.src[r * d..(r + 1) * d];
            let out = &mut self.dst[r * d..(r + 1) * d];
            let max = row_max::<S>(row);
            let sum = row_expsum::<S>(row, max);
            let logsum = ln_lane(sum) + max;
            let shift = S::splat(logsum);
            let mut i = 0;
            while i + LANES <= d {
                S::load(&row[i..]).sub(shift).store(&mut out[i..]);
                i += LANES;
            }
            if i < d {
                let rem = d - i;
                let mut pad = [0.0f32; LANES];
                pad[..rem].copy_from_slice(&row[i..]);
                let o = S::load(&pad).sub(shift).to_array();
                out[i..].copy_from_slice(&o[..rem]);
            }
        }
    }
}

/// Fused log-softmax backward over a chunk of rows:
/// `dx = gy - exp(y) · rowsum(gy)`.
pub(crate) struct LogSoftmaxBwdChunk<'a> {
    pub y: &'a [f32],
    pub gy: &'a [f32],
    pub d: usize,
    pub dst: &'a mut [f32],
}

impl SimdOp for LogSoftmaxBwdChunk<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let d = self.d;
        if d == 0 {
            return;
        }
        let rows = self.dst.len() / d;
        for r in 0..rows {
            let y = &self.y[r * d..(r + 1) * d];
            let g = &self.gy[r * d..(r + 1) * d];
            let out = &mut self.dst[r * d..(r + 1) * d];
            let rs = S::splat(row_sum::<S>(g));
            let mut i = 0;
            while i + LANES <= d {
                let p = vexp(S::load(&y[i..]));
                S::load(&g[i..]).sub(p.mul(rs)).store(&mut out[i..]);
                i += LANES;
            }
            if i < d {
                let rem = d - i;
                let mut py = [0.0f32; LANES];
                let mut pg = [0.0f32; LANES];
                py[..rem].copy_from_slice(&y[i..]);
                pg[..rem].copy_from_slice(&g[i..]);
                let o = S::load(&pg).sub(vexp(S::load(&py)).mul(rs)).to_array();
                out[i..].copy_from_slice(&o[..rem]);
            }
        }
    }
}

/// Fused per-row ℓ2 norm (sum of squares → sqrt → eps clamp) over a
/// chunk of rows; writes one norm per row into `dst`.
pub(crate) struct RowNormsChunk<'a> {
    pub src: &'a [f32],
    pub d: usize,
    pub eps: f32,
    pub dst: &'a mut [f32],
}

impl SimdOp for RowNormsChunk<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let d = self.d;
        for (r, out) in self.dst.iter_mut().enumerate() {
            let row = &self.src[r * d..(r + 1) * d];
            *out = max_c_scalar(row_sumsq::<S>(row).sqrt(), self.eps);
        }
    }
}

/// Row-wise divide by a per-row scalar over a chunk of rows:
/// `dst[r] = src[r] / norms[r]` (the ℓ2-normalize second pass).
pub(crate) struct RowDivChunk<'a> {
    pub src: &'a [f32],
    pub norms: &'a [f32],
    pub d: usize,
    pub dst: &'a mut [f32],
}

impl SimdOp for RowDivChunk<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let d = self.d;
        if d == 0 {
            return;
        }
        let rows = self.dst.len() / d;
        for r in 0..rows {
            let row = &self.src[r * d..(r + 1) * d];
            let out = &mut self.dst[r * d..(r + 1) * d];
            let nv = S::splat(self.norms[r]);
            let mut i = 0;
            while i + LANES <= d {
                S::load(&row[i..]).div(nv).store(&mut out[i..]);
                i += LANES;
            }
            if i < d {
                let rem = d - i;
                let mut pad = [0.0f32; LANES];
                pad[..rem].copy_from_slice(&row[i..]);
                let o = S::load(&pad).div(nv).to_array();
                out[i..].copy_from_slice(&o[..rem]);
            }
        }
    }
}

/// Fused ℓ2-normalize backward over a chunk of rows:
/// `dx = (gy - y·⟨gy, y⟩) / norm`.
pub(crate) struct L2NormBwdChunk<'a> {
    pub y: &'a [f32],
    pub gy: &'a [f32],
    pub norms: &'a [f32],
    pub d: usize,
    pub dst: &'a mut [f32],
}

impl SimdOp for L2NormBwdChunk<'_> {
    type Output = ();

    #[inline(always)]
    fn eval<S: SimdF32>(self) {
        let d = self.d;
        if d == 0 {
            return;
        }
        let rows = self.dst.len() / d;
        for r in 0..rows {
            let y = &self.y[r * d..(r + 1) * d];
            let g = &self.gy[r * d..(r + 1) * d];
            let out = &mut self.dst[r * d..(r + 1) * d];
            let dot = S::splat(row_dot::<S>(y, g));
            let nv = S::splat(self.norms[r]);
            let mut i = 0;
            while i + LANES <= d {
                let yv = S::load(&y[i..]);
                let gv = S::load(&g[i..]);
                gv.sub(yv.mul(dot)).div(nv).store(&mut out[i..]);
                i += LANES;
            }
            if i < d {
                let rem = d - i;
                let mut py = [0.0f32; LANES];
                let mut pg = [0.0f32; LANES];
                py[..rem].copy_from_slice(&y[i..]);
                pg[..rem].copy_from_slice(&g[i..]);
                let o = S::load(&pg).sub(S::load(&py).mul(dot)).div(nv).to_array();
                out[i..].copy_from_slice(&o[..rem]);
            }
        }
    }
}
