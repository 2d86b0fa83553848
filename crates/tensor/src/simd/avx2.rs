//! AVX2 instantiation of the 8-lane vector abstraction.
//!
//! [`AvxVec`] wraps `__m256` and implements every [`SimdF32`] method
//! with the intrinsic that performs the *identical per-lane IEEE
//! operation* the scalar reference performs: `vaddps` for `+`, the
//! `vcmpps`/`vblendvps` pair for the canonical compare/select, integer
//! exponent construction for `pow2i`, and so on. No FMA, no approximate
//! reciprocal/rsqrt instructions — only operations that are bitwise
//! defined by IEEE-754.
//!
//! # Safety
//!
//! Every method body uses AVX/AVX2 intrinsics. Values of this type are
//! only ever constructed inside [`super::kernels`] bodies monomorphised
//! through [`eval_avx2`], which carries `#[target_feature(enable =
//! "avx2")]` and is only reached after a runtime
//! `is_x86_feature_detected!("avx2")` check in the dispatcher. The
//! per-method `unsafe` blocks rely on that invariant.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::kernels::SimdOp;
use super::vec::{SimdF32, LANES};

/// Whether the running CPU supports AVX2.
#[inline]
pub(crate) fn avx2_available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Run `op` monomorphised over [`AvxVec`] inside an AVX2
/// target-feature context, so the whole kernel body compiles to AVX2
/// code.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn eval_avx2<O: SimdOp>(op: O) -> O::Output {
    op.eval::<AvxVec>()
}

/// The AVX2 8-lane vector: one `__m256` register.
#[derive(Clone, Copy)]
pub(crate) struct AvxVec(__m256);

impl SimdF32 for AvxVec {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: AVX2 is available on every construction path (see
        // module docs).
        AvxVec(unsafe { _mm256_set1_ps(v) })
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        debug_assert!(src.len() >= LANES);
        // SAFETY: AVX2 available; the bounds are asserted above and the
        // load is unaligned.
        AvxVec(unsafe { _mm256_loadu_ps(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        debug_assert!(dst.len() >= LANES);
        // SAFETY: AVX2 available; bounds asserted; unaligned store.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn to_array(self) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        self.store(&mut out);
        out
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: AVX2 available (module docs invariant).
        AvxVec(unsafe { _mm256_add_ps(self.0, o.0) })
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: as above.
        AvxVec(unsafe { _mm256_sub_ps(self.0, o.0) })
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: as above.
        AvxVec(unsafe { _mm256_mul_ps(self.0, o.0) })
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: as above.
        AvxVec(unsafe { _mm256_div_ps(self.0, o.0) })
    }

    #[inline(always)]
    fn floor(self) -> Self {
        // SAFETY: as above.
        AvxVec(unsafe { _mm256_floor_ps(self.0) })
    }

    #[inline(always)]
    fn cmp_gt(self, o: Self) -> Self {
        // SAFETY: as above. Ordered, non-signalling greater-than.
        AvxVec(unsafe { _mm256_cmp_ps::<_CMP_GT_OQ>(self.0, o.0) })
    }

    #[inline(always)]
    fn cmp_lt(self, o: Self) -> Self {
        // SAFETY: as above.
        AvxVec(unsafe { _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, o.0) })
    }

    #[inline(always)]
    fn cmp_eq(self, o: Self) -> Self {
        // SAFETY: as above.
        AvxVec(unsafe { _mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, o.0) })
    }

    #[inline(always)]
    fn is_nan(self) -> Self {
        // SAFETY: as above. Unordered-with-self is true exactly on NaN.
        AvxVec(unsafe { _mm256_cmp_ps::<_CMP_UNORD_Q>(self.0, self.0) })
    }

    #[inline(always)]
    fn blend(mask: Self, a: Self, b: Self) -> Self {
        // SAFETY: as above. `vblendvps` selects `a` where the mask
        // lane's sign bit is set — the same rule the scalar reference
        // implements.
        AvxVec(unsafe { _mm256_blendv_ps(b.0, a.0, mask.0) })
    }

    #[inline(always)]
    fn pow2i(self) -> Self {
        // SAFETY: as above. Truncating f32→i32 conversion (lanes are
        // integer-valued in [-126, 128] by the caller's contract), then
        // exponent-field construction — exact bit manipulation.
        AvxVec(unsafe {
            let i = _mm256_cvttps_epi32(self.0);
            let biased = _mm256_add_epi32(i, _mm256_set1_epi32(127));
            _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased))
        })
    }

    #[inline(always)]
    fn frexp_exp(self) -> Self {
        // SAFETY: as above. Lanes are positive normals by the caller's
        // contract, so the sign bit is clear and a logical right shift
        // isolates the biased exponent.
        AvxVec(unsafe {
            let bits = _mm256_castps_si256(self.0);
            let biased = _mm256_srli_epi32::<23>(bits);
            let e = _mm256_sub_epi32(biased, _mm256_set1_epi32(126));
            _mm256_cvtepi32_ps(e)
        })
    }

    #[inline(always)]
    fn frexp_mant(self) -> Self {
        // SAFETY: as above. Exact bit manipulation: keep the mantissa
        // field, force the exponent field to that of 0.5.
        AvxVec(unsafe {
            let bits = _mm256_castps_si256(self.0);
            let mant = _mm256_and_si256(bits, _mm256_set1_epi32(0x007F_FFFF));
            let half = _mm256_or_si256(mant, _mm256_set1_epi32(0x3F00_0000));
            _mm256_castsi256_ps(half)
        })
    }
}
