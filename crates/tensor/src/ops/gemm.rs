//! Cache-blocked, register-tiled GEMM with operand packing.
//!
//! This module is the engine behind [`matmul`](super::matmul::matmul),
//! [`matmul_nt`](super::matmul::matmul_nt) and
//! [`matmul_tn`](super::matmul::matmul_tn). It implements the classic
//! three-level blocking scheme: the output is cut into [`MC`]-row chunks
//! (the parallel unit, dispatched on the `sdc-runtime` pool), the shared
//! dimension into [`KC`]-deep panels packed into contiguous buffers, and
//! each panel product is computed by a fixed-width [`MR`]×[`NR`]
//! micro-kernel whose accumulators live in registers.
//!
//! ## Bit-exactness contract
//!
//! The blocked kernel is **bit-identical** to the naive `i-k-j` kernels
//! it replaces (and to itself at every `SDC_THREADS`). Three rules make
//! that true:
//!
//! 1. **One accumulator per output element, ascending `k`.** Lanes of
//!    the micro-kernel are distinct output *columns*, never splits of
//!    one reduction; the `k` loop is strictly ascending within a panel.
//! 2. **Accumulators carry across `k`-panels through `C`.** For panel
//!    `kp > 0` the micro-kernel reloads the partial result written by
//!    panel `kp − 1` and keeps adding; it never forms a per-panel sum
//!    that is folded in afterwards (which would reassociate the
//!    reduction). An `f32` round-trip through memory is exact, so the
//!    addition chain is the same as one uninterrupted accumulator.
//! 3. **Packing copies values verbatim** (transposition is just a
//!    strided read), so every multiply sees the same operand bits as the
//!    naive kernel.
//!
//! Rule 2 is also why the output buffer starts **uninitialized** rather
//! than zero-filled: the first `k`-panel *stores* (rather than
//! accumulates) into every element of its row chunk, so a prior
//! zero-fill would be a second full pass over the output for nothing.
//! The `k == 0` edge, which has no first panel, zero-fills explicitly
//! to preserve `Tensor::zeros` semantics.
//!
//! ## Padding and non-finite values
//!
//! Partial row tiles and column panels are padded with zeros so the
//! micro-kernel never branches on tile shape. Padded lanes are computed
//! and then **discarded on store** — they are never folded into a real
//! output element — so the padding cannot change results even when an
//! operand holds `NaN`/`±∞` (a padded lane may internally compute
//! `0 · ∞ = NaN`, but that lane is dropped).
//!
//! ## Instruction set
//!
//! The micro-kernel is one generic body, entered through
//! `#[target_feature(enable = "avx2")]` when
//! [`active_isa`](crate::simd::active_isa) selects AVX2 and run as
//! portable code otherwise; each chunk reads the choice once, so
//! `SDC_SIMD=scalar` reaches this kernel like every other. Both
//! instantiations perform a separate multiply and add (never FMA), so
//! the choice affects speed only.

use std::mem::MaybeUninit;

use crate::error::{Result, TensorError};
use crate::par;
use crate::simd::{self, Isa};
use crate::Tensor;

/// Rows per micro-tile: each micro-kernel invocation produces an
/// `MR × NR` block of the output from register accumulators.
pub const MR: usize = 4;

/// Columns per micro-tile — the fixed vector width of the unrolled
/// inner loop (`NR` independent `f32` lanes; one lane per output
/// column, so lanes never split a reduction).
pub const NR: usize = 8;

/// Depth of one packed `k`-panel. A panel of `B` (`KC × NR` floats) and
/// a panel of `A` (`MC × KC`) together stay well inside L2 while the
/// micro-kernel streams them.
pub const KC: usize = 256;

/// Rows per parallel chunk — the unit handed to `par::dispatch_chunks`.
/// Fixed (never derived from the thread count) so chunk boundaries,
/// and hence results, are identical at any parallelism.
pub const MC: usize = 32;

/// Minimum `n · k · m` before the packed path pays for itself; smaller
/// products run the naive kernels. Both paths are bit-identical, so
/// this threshold affects speed only, never results.
pub const BLOCK_MIN_WORK: usize = 24 * 1024;

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

/// `C = op_a(A) · op_b(B)`, choosing the packed blocked kernel or the
/// naive reference by problem size. Both paths are bit-identical; see
/// the module docs.
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
    if n * k * m >= BLOCK_MIN_WORK {
        Ok(blocked_unchecked(a, trans_a, b, trans_b, n, k, m))
    } else {
        Ok(naive_unchecked(a, trans_a, b, trans_b, n, k, m))
    }
}

/// The packed blocked kernel, regardless of problem size. Public so the
/// equivalence suites can pin this path below [`BLOCK_MIN_WORK`].
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the shared
/// dimension disagrees.
pub fn blocked(a: &Tensor, trans_a: Trans, b: &Tensor, trans_b: Trans) -> Result<Tensor> {
    let (n, k, m) = validate("gemm_blocked", a, trans_a, b, trans_b)?;
    Ok(blocked_unchecked(a, trans_a, b, trans_b, n, k, m))
}

/// The naive `i-k-j` reference kernels (the pre-blocking
/// implementation), regardless of problem size. Used below
/// [`BLOCK_MIN_WORK`] and as the oracle in the equivalence suites.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the shared
/// dimension disagrees.
pub fn naive(a: &Tensor, trans_a: Trans, b: &Tensor, trans_b: Trans) -> Result<Tensor> {
    let (n, k, m) = validate("gemm_naive", a, trans_a, b, trans_b)?;
    Ok(naive_unchecked(a, trans_a, b, trans_b, n, k, m))
}

// ---------------------------------------------------------------------
// Naive reference kernels (the previous implementation, preserved).
// ---------------------------------------------------------------------

fn naive_unchecked(
    a: &Tensor,
    trans_a: Trans,
    b: &Tensor,
    trans_b: Trans,
    n: usize,
    k: usize,
    m: usize,
) -> Tensor {
    // `Aᵀ` inputs transpose once up front (O(nk)) so the hot loops read
    // contiguously — exactly what the previous `matmul_tn` did; the
    // accumulation order per element is unaffected.
    let at;
    let a = if trans_a == Trans::T {
        at = transpose_rows(a.data(), k, n);
        &at
    } else {
        a
    };
    let mut out = Tensor::zeros([n, m]);
    let ad = a.data();
    let bd = b.data();
    match trans_b {
        Trans::N => {
            par::dispatch_chunks(out.data_mut(), par::ROW_CHUNK * m, n * k * m, |ci, rows| {
                for (r, orow) in rows.chunks_mut(m).enumerate() {
                    let i = ci * par::ROW_CHUNK + r;
                    let arow = &ad[i * k..(i + 1) * k];
                    for (p, &aip) in arow.iter().enumerate() {
                        let brow = &bd[p * m..(p + 1) * m];
                        for (o, &bv) in orow.iter_mut().zip(brow) {
                            *o += aip * bv;
                        }
                    }
                }
            });
        }
        Trans::T => {
            par::dispatch_chunks(out.data_mut(), par::ROW_CHUNK * m, n * k * m, |ci, rows| {
                for (r, orow) in rows.chunks_mut(m).enumerate() {
                    let i = ci * par::ROW_CHUNK + r;
                    let arow = &ad[i * k..(i + 1) * k];
                    for (j, o) in orow.iter_mut().enumerate() {
                        let brow = &bd[j * k..(j + 1) * k];
                        // Explicit +0.0 accumulator, not `.sum()`: the
                        // std f32 sum folds from -0.0, which would give
                        // this kernel a different additive identity
                        // than the others (visible as a -0.0 output
                        // when `k == 0` or the leading product is
                        // -0.0). All kernels share the +0.0 identity.
                        let mut acc = 0.0f32;
                        for (&x, &y) in arow.iter().zip(brow) {
                            acc += x * y;
                        }
                        *o = acc;
                    }
                }
            });
        }
    }
    out
}

/// Row-major transpose of a `rows × cols` slice into a fresh tensor.
fn transpose_rows(src: &[f32], rows: usize, cols: usize) -> Tensor {
    let mut out = Tensor::zeros([cols, rows]);
    let od = out.data_mut();
    for i in 0..rows {
        for j in 0..cols {
            od[j * rows + i] = src[i * cols + j];
        }
    }
    out
}

// ---------------------------------------------------------------------
// Blocked kernel.
// ---------------------------------------------------------------------

fn blocked_unchecked(
    a: &Tensor,
    trans_a: Trans,
    b: &Tensor,
    trans_b: Trans,
    n: usize,
    k: usize,
    m: usize,
) -> Tensor {
    let packed_b = {
        let _t = sdc_obs::scope!("tensor.gemm.pack_b");
        pack_b(mat_ref(b, trans_b), k, m)
    };
    let _gemm_timer = sdc_obs::scope!("tensor.gemm");
    let aref = mat_ref(a, trans_a);
    // SAFETY: the dispatch hands every `MC`-row chunk of the buffer to
    // `fill_chunk`, which writes each element of its rows; with `m == 0`
    // the buffer is empty.
    let data = unsafe {
        uninit_output(n * m, |data| {
            par::dispatch_chunks(data, MC * m, n * k * m, |chunk_index, rows| {
                let _t = sdc_obs::scope!("tensor.gemm.kernel");
                fill_chunk(chunk_index * MC, rows, m, k, aref, &packed_b);
            });
        })
    };
    Tensor::from_vec([n, m], data).expect("gemm output length n*m")
}

/// A `len`-float GEMM output written by `fill`. It starts uninitialized:
/// when `k > 0` the first k-panel stores into every element of its
/// chunk before anything reads it, and when `k == 0` the chunk fill
/// zero-fills (see [`fill_chunk`]), so zero-filling it first would
/// touch the buffer twice.
///
/// # Safety
///
/// `fill` must write every element of the slice it is given.
unsafe fn uninit_output(len: usize, fill: impl FnOnce(&mut [MaybeUninit<f32>])) -> Vec<f32> {
    let mut data: Vec<MaybeUninit<f32>> = Vec::with_capacity(len);
    // SAFETY: `MaybeUninit<f32>` needs no initialization.
    unsafe { data.set_len(len) };
    fill(&mut data);
    // SAFETY: the caller guarantees `fill` wrote every element, and
    // `MaybeUninit<f32>` has the same layout as `f32`.
    unsafe {
        let mut data = std::mem::ManuallyDrop::new(data);
        Vec::from_raw_parts(data.as_mut_ptr().cast::<f32>(), data.len(), data.capacity())
    }
}

/// Number of `NR`-wide column panels covering `m` columns.
#[inline]
fn col_panels(m: usize) -> usize {
    m.div_ceil(NR)
}

/// Packs the full `k × m` logical `B` into panel-major layout: for each
/// `k`-panel `kp` (ascending), for each `NR`-column panel `jp`
/// (ascending), a contiguous `kc × NR` block stored `p`-major
/// (`dst[p * NR + jr] = B[kp·KC + p, jp·NR + jr]`). Columns past `m`
/// pad with zeros (discarded on store; see module docs).
fn pack_b(b: MatRef<'_>, k: usize, m: usize) -> Vec<f32> {
    let jpanels = col_panels(m);
    let mut packed = vec![0.0f32; k * jpanels * NR];
    let mut dst = 0;
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        for jp in 0..jpanels {
            let j0 = jp * NR;
            let width = NR.min(m - j0);
            for p in 0..kc {
                let row = &mut packed[dst + p * NR..dst + p * NR + NR];
                for (jr, slot) in row.iter_mut().take(width).enumerate() {
                    *slot = b.get(p0 + p, j0 + jr);
                }
                // Tail lanes stay at the 0.0 the buffer was created with.
            }
            dst += kc * NR;
        }
        p0 += kc;
    }
    packed
}

/// Byte offset (in `f32`s) of panel `(kp, jp)` inside [`pack_b`]'s
/// buffer, where `kp` starts at logical row `p0` and all earlier
/// `k`-panels are full [`KC`] deep.
#[inline]
fn b_panel_offset(p0: usize, kc: usize, jp: usize, jpanels: usize) -> usize {
    debug_assert!(p0.is_multiple_of(KC));
    (p0 * jpanels + jp * kc) * NR
}

/// Packs an `mc × kc` block of logical `A` (rows `i0..i0+mc`, `k`s
/// `p0..p0+kc`) into `MR`-row panel-major layout:
/// `dst[tile · MR · kc + p · MR + r] = A[i0 + tile·MR + r, p0 + p]`.
/// Rows past `mc` pad with zeros (their lanes are discarded on store).
fn pack_a(dst: &mut Vec<f32>, a: MatRef<'_>, i0: usize, mc: usize, p0: usize, kc: usize) {
    dst.clear();
    dst.resize(mc.div_ceil(MR) * MR * kc, 0.0);
    for (t, tile) in dst.chunks_exact_mut(MR * kc).enumerate() {
        let (top, rows) = (i0 + t * MR, MR.min(mc - t * MR));
        for (p, lanes) in tile.chunks_exact_mut(MR).enumerate() {
            for (r, slot) in lanes.iter_mut().take(rows).enumerate() {
                *slot = a.get(top + r, p0 + p);
            }
        }
    }
}

/// The fixed-width micro-kernel: accumulates one `kc`-deep panel
/// product into `acc` (an `MR × NR` register tile), with the `p` loop
/// strictly ascending and one accumulator per lane, on the instruction
/// set `isa` selects. Every variant executes the *same* IEEE-754
/// multiply/add sequence per output element (separate `mul` then `add`
/// — never FMA, whose fused rounding would change results), so which
/// variant runs affects speed only, never bits.
#[inline]
fn microkernel(isa: Isa, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: `Isa::Avx2` is only produced after a successful
        // runtime `is_x86_feature_detected!("avx2")` check (see
        // `simd::active_isa`).
        unsafe { microkernel_avx2(kc, ap, bp, acc) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    microkernel_body(kc, ap, bp, acc);
}

/// The portable micro-kernel body: `MR`/`NR` are constants and the
/// accumulator tile is a flat local, so the two inner loops fully
/// unroll into fixed-width `f32` lanes the compiler vectorizes at the
/// target's native width.
#[inline(always)]
fn microkernel_body(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    // Reading `acc` into a local and writing it back once keeps the
    // tile in registers across the `p` loop.
    let mut tile = *acc;
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        let av: &[f32; MR] = av.try_into().expect("chunks_exact(MR)");
        let bv: &[f32; NR] = bv.try_into().expect("chunks_exact(NR)");
        for (&ar, arow) in av.iter().zip(tile.iter_mut()) {
            for (o, &bj) in arow.iter_mut().zip(bv) {
                *o += ar * bj;
            }
        }
    }
    *acc = tile;
}

/// The same body compiled for AVX2: each `NR`-lane row becomes one
/// 256-bit `vmulps` + `vaddps`. No `fma` is enabled, so LLVM cannot
/// fuse the pair and rounding stays identical to the generic variant.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    microkernel_body(kc, ap, bp, acc);
}

/// Computes all columns of output rows `i0..i0+rows.len()/m` into
/// `rows` (a chunk of the output buffer), reading the instruction set
/// once. Guarantees every element of `rows` is written: zero-filled
/// when `k == 0`, stored by the first `k`-panel otherwise.
fn fill_chunk(
    i0: usize,
    rows: &mut [MaybeUninit<f32>],
    m: usize,
    k: usize,
    a: MatRef<'_>,
    packed_b: &[f32],
) {
    let mc = rows.len() / m;
    if k == 0 {
        for slot in rows.iter_mut() {
            *slot = MaybeUninit::new(0.0);
        }
        return;
    }
    let jpanels = col_panels(m);
    let isa = simd::active_isa();
    A_SCRATCH.with(|scratch| {
        let mut packed_a = scratch.take();
        let mut p0 = 0;
        while p0 < k {
            let kc = KC.min(k - p0);
            pack_a(&mut packed_a, a, i0, mc, p0, kc);
            let first_panel = p0 == 0;
            for jp in 0..jpanels {
                let bp = &packed_b[b_panel_offset(p0, kc, jp, jpanels)..];
                let j0 = jp * NR;
                let width = NR.min(m - j0);
                for tile in 0..mc.div_ceil(MR) {
                    let ap = &packed_a[tile * MR * kc..];
                    let r0 = tile * MR;
                    let height = MR.min(mc - r0);
                    let mut acc = [[0.0f32; NR]; MR];
                    if !first_panel {
                        // Carry the partial sums written by the
                        // previous k-panel (exact f32 round-trip, so
                        // the addition chain is uninterrupted).
                        for (r, arow) in acc.iter_mut().take(height).enumerate() {
                            let crow = (r0 + r) * m + j0;
                            for (j, slot) in arow.iter_mut().take(width).enumerate() {
                                // SAFETY: written by the first k-panel
                                // of this same chunk.
                                *slot = unsafe { rows[crow + j].assume_init() };
                            }
                        }
                    }
                    microkernel(isa, kc, ap, bp, &mut acc);
                    for (r, arow) in acc.iter().take(height).enumerate() {
                        let crow = (r0 + r) * m + j0;
                        for (j, &v) in arow.iter().take(width).enumerate() {
                            rows[crow + j] = MaybeUninit::new(v);
                        }
                    }
                }
            }
            p0 += kc;
        }
        scratch.set(packed_a);
    });
}

thread_local! {
    /// Reusable per-thread packing buffer for `A` blocks, so the hot
    /// path does not allocate once warm. (Contents are fully rewritten
    /// by each `pack_a` call, so reuse cannot leak state.)
    static A_SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_t(shape: [usize; 2], seed: u64) -> Tensor {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        Tensor::randn(shape, 1.0, &mut rng)
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(x.to_bits() == y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_on_tile_boundaries() {
        // Exercise every partial-tile edge: ±1 around MR, NR, MC and a
        // k-panel boundary.
        for &n in &[1, MR - 1, MR, MR + 1, MC - 1, MC, MC + 1] {
            for &m in &[1, NR - 1, NR, NR + 1, 2 * NR + 3] {
                for &k in &[1, 2, KC - 1, KC, KC + 1] {
                    let a = rand_t([n, k], (n * 31 + k) as u64);
                    let b = rand_t([k, m], (m * 17 + k) as u64);
                    let blk = blocked(&a, Trans::N, &b, Trans::N).unwrap();
                    let nav = naive(&a, Trans::N, &b, Trans::N).unwrap();
                    assert_bits_eq(&blk, &nav);
                }
            }
        }
    }

    #[test]
    fn blocked_matches_naive_for_transposed_operands() {
        let n = MC + 3;
        let k = KC + 5;
        let m = 3 * NR + 1;
        let a = rand_t([n, k], 1);
        let b = rand_t([k, m], 2);
        assert_bits_eq(
            &blocked(&a, Trans::N, &b, Trans::N).unwrap(),
            &naive(&a, Trans::N, &b, Trans::N).unwrap(),
        );
        let bt = rand_t([m, k], 3);
        assert_bits_eq(
            &blocked(&a, Trans::N, &bt, Trans::T).unwrap(),
            &naive(&a, Trans::N, &bt, Trans::T).unwrap(),
        );
        let at = rand_t([k, n], 4);
        assert_bits_eq(
            &blocked(&at, Trans::T, &b, Trans::N).unwrap(),
            &naive(&at, Trans::T, &b, Trans::N).unwrap(),
        );
    }

    #[test]
    fn zero_k_matches_zeros_semantics() {
        let a = Tensor::zeros([5, 0]);
        let b = Tensor::zeros([0, 7]);
        let c = blocked(&a, Trans::N, &b, Trans::N).unwrap();
        assert_eq!(c.shape().dims(), &[5, 7]);
        assert!(c.data().iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    }

    #[test]
    fn zero_width_outputs_are_empty() {
        let a = rand_t([4, 6], 1);
        let b = Tensor::zeros([6, 0]);
        assert_eq!(blocked(&a, Trans::N, &b, Trans::N).unwrap().shape().dims(), &[4, 0]);
        let empty_a = Tensor::zeros([0, 6]);
        let b2 = rand_t([6, 3], 2);
        assert_eq!(blocked(&empty_a, Trans::N, &b2, Trans::N).unwrap().shape().dims(), &[0, 3]);
    }

    #[test]
    fn padding_lanes_do_not_leak_nonfinite_values() {
        // A holds ∞; padded B lanes are zero, so a padded lane computes
        // 0·∞ = NaN — which must be discarded, leaving real outputs
        // exactly as the naive kernel produces them.
        let mut a = rand_t([MR + 1, 3], 9);
        a.data_mut()[0] = f32::INFINITY;
        let b = rand_t([3, NR + 1], 10);
        assert_bits_eq(
            &blocked(&a, Trans::N, &b, Trans::N).unwrap(),
            &naive(&a, Trans::N, &b, Trans::N).unwrap(),
        );
    }

    #[test]
    fn gemm_dispatches_both_sides_of_the_threshold() {
        // Below threshold: tiny product; above: comfortably past
        // BLOCK_MIN_WORK. Both must agree with the naive oracle.
        let small_a = rand_t([3, 4], 5);
        let small_b = rand_t([4, 2], 6);
        assert_bits_eq(
            &gemm("t", &small_a, Trans::N, &small_b, Trans::N).unwrap(),
            &naive(&small_a, Trans::N, &small_b, Trans::N).unwrap(),
        );
        let big_a = rand_t([48, 48], 7);
        let big_b = rand_t([48, 48], 8);
        assert_bits_eq(
            &gemm("t", &big_a, Trans::N, &big_b, Trans::N).unwrap(),
            &naive(&big_a, Trans::N, &big_b, Trans::N).unwrap(),
        );
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        assert!(gemm("t", &a, Trans::N, &b, Trans::N).is_err());
        assert!(blocked(&a, Trans::N, &b, Trans::N).is_err());
        assert!(naive(&a, Trans::N, &b, Trans::N).is_err());
        let scalar = Tensor::scalar(1.0);
        assert!(gemm("t", &scalar, Trans::N, &b, Trans::N).is_err());
    }
}
