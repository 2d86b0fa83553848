//! The fixed 8-lane vector abstraction every kernel is generic over.
//!
//! The lane width is **conceptually fixed at 8 for every ISA**, including
//! the portable scalar fallback ([`ScalarVec`] wraps `[f32; 8]`). All
//! generic kernel code therefore performs the same per-lane operations in
//! the same order regardless of the instantiation, which is what makes
//! the scalar and AVX2 paths bitwise-identical *by construction*: each
//! lane is an independent IEEE-754 computation, and both instantiations
//! run the identical sequence of IEEE operations on identical lane
//! groupings.
//!
//! Comparison/selection semantics are canonicalised: `max_c`/`min_c` are
//! defined as an explicit compare + blend (`select(a > b, a, b)`), never
//! the ISA's native min/max instruction, so NaN and signed-zero handling
//! is pinned down identically on every path.
//!
//! No fused multiply-add is ever used — mul and add round separately on
//! every ISA, because a fused rounding step would break scalar/AVX2
//! bit-identity.

/// Canonical lane width shared by every ISA instantiation.
pub(crate) const LANES: usize = 8;

/// An 8-lane `f32` vector: the single abstraction all SIMD kernels are
/// written against.
///
/// Comparison methods return *masks* encoded in the same type: lanes are
/// all-ones (when the predicate holds) or all-zeros. [`SimdF32::blend`]
/// selects by the mask lane's sign bit, matching x86 `blendv` semantics.
pub(crate) trait SimdF32: Copy {
    /// Broadcast `v` into every lane.
    fn splat(v: f32) -> Self;
    /// Load 8 lanes from the front of `src` (`src.len() >= 8`).
    fn load(src: &[f32]) -> Self;
    /// Store 8 lanes to the front of `dst` (`dst.len() >= 8`).
    fn store(self, dst: &mut [f32]);
    /// Copy the lanes out as an array (lane 0 first).
    fn to_array(self) -> [f32; LANES];

    /// Lanewise `self + o`.
    fn add(self, o: Self) -> Self;
    /// Lanewise `self - o`.
    fn sub(self, o: Self) -> Self;
    /// Lanewise `self * o`.
    fn mul(self, o: Self) -> Self;
    /// Lanewise `self / o`.
    fn div(self, o: Self) -> Self;
    /// Lanewise round toward negative infinity.
    fn floor(self) -> Self;

    /// Mask of lanes where `self > o` (ordered; false on NaN).
    fn cmp_gt(self, o: Self) -> Self;
    /// Mask of lanes where `self < o` (ordered; false on NaN).
    fn cmp_lt(self, o: Self) -> Self;
    /// Mask of lanes where `self == o` (ordered; false on NaN).
    fn cmp_eq(self, o: Self) -> Self;
    /// Mask of lanes where `self` is NaN.
    fn is_nan(self) -> Self;
    /// Per lane: if `mask`'s sign bit is set, take `a`, else `b`.
    fn blend(mask: Self, a: Self, b: Self) -> Self;

    /// `2^n` for integer-valued lanes `n` in `[-126, 128]`, computed by
    /// exponent-field construction: `bitcast((i32(n) + 127) << 23)`.
    /// Exact bit manipulation — identical on every ISA.
    fn pow2i(self) -> Self;
    /// `frexp`-convention exponent of a positive normal lane, as a
    /// float: `e` such that `self = m * 2^e` with `m` in `[0.5, 1)`.
    fn frexp_exp(self) -> Self;
    /// `frexp`-convention mantissa of a positive normal lane, remapped
    /// into `[0.5, 1)` by exponent-field replacement.
    fn frexp_mant(self) -> Self;

    /// Canonical maximum: `select(self > o, self, o)`. NaN lanes of
    /// `self` yield `o` (matching `f32::max`'s NaN-ignoring behaviour
    /// when `o` is non-NaN).
    #[inline(always)]
    fn max_c(self, o: Self) -> Self {
        Self::blend(self.cmp_gt(o), self, o)
    }
    /// Canonical minimum: `select(self < o, self, o)`.
    #[inline(always)]
    fn min_c(self, o: Self) -> Self {
        Self::blend(self.cmp_lt(o), self, o)
    }
}

/// Scalar max with the canonical compare+select semantics (`a > b ? a :
/// b`). Used by reduction lane-folds and tails so both ISA paths share
/// the exact same scalar code.
#[inline(always)]
pub(crate) fn max_c_scalar(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// The portable scalar reference instantiation: eight independent `f32`
/// lanes computed with plain scalar IEEE arithmetic. The compiler may
/// auto-vectorise these loops at the baseline target level; that cannot
/// change results because each lane is an independent IEEE operation.
#[derive(Clone, Copy)]
pub(crate) struct ScalarVec(pub(crate) [f32; LANES]);

/// All-ones lane pattern used as the `true` mask value.
const MASK_TRUE: u32 = 0xFFFF_FFFF;

impl ScalarVec {
    #[inline(always)]
    fn lanewise(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        let mut out = [0.0f32; LANES];
        for (dst, (a, b)) in out.iter_mut().zip(self.0.iter().zip(o.0.iter())) {
            *dst = f(*a, *b);
        }
        ScalarVec(out)
    }

    #[inline(always)]
    fn mask_lanewise(self, o: Self, pred: impl Fn(f32, f32) -> bool) -> Self {
        let mut out = [0.0f32; LANES];
        for (dst, (a, b)) in out.iter_mut().zip(self.0.iter().zip(o.0.iter())) {
            *dst = f32::from_bits(if pred(*a, *b) { MASK_TRUE } else { 0 });
        }
        ScalarVec(out)
    }
}

impl SimdF32 for ScalarVec {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        ScalarVec([v; LANES])
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let mut out = [0.0f32; LANES];
        out.copy_from_slice(&src[..LANES]);
        ScalarVec(out)
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn to_array(self) -> [f32; LANES] {
        self.0
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.lanewise(o, |a, b| a + b)
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.lanewise(o, |a, b| a - b)
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.lanewise(o, |a, b| a * b)
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self.lanewise(o, |a, b| a / b)
    }

    #[inline(always)]
    fn floor(self) -> Self {
        self.lanewise(self, |a, _| a.floor())
    }

    #[inline(always)]
    fn cmp_gt(self, o: Self) -> Self {
        self.mask_lanewise(o, |a, b| a > b)
    }

    #[inline(always)]
    fn cmp_lt(self, o: Self) -> Self {
        self.mask_lanewise(o, |a, b| a < b)
    }

    #[inline(always)]
    fn cmp_eq(self, o: Self) -> Self {
        self.mask_lanewise(o, |a, b| a == b)
    }

    #[inline(always)]
    fn is_nan(self) -> Self {
        self.mask_lanewise(self, |a, _| a.is_nan())
    }

    #[inline(always)]
    fn blend(mask: Self, a: Self, b: Self) -> Self {
        let mut out = [0.0f32; LANES];
        for (j, dst) in out.iter_mut().enumerate() {
            *dst = if mask.0[j].to_bits() & 0x8000_0000 != 0 { a.0[j] } else { b.0[j] };
        }
        ScalarVec(out)
    }

    #[inline(always)]
    fn pow2i(self) -> Self {
        self.lanewise(self, |a, _| {
            let i = a as i32;
            f32::from_bits(((i + 127) << 23) as u32)
        })
    }

    #[inline(always)]
    fn frexp_exp(self) -> Self {
        self.lanewise(self, |a, _| (((a.to_bits() >> 23) as i32) - 126) as f32)
    }

    #[inline(always)]
    fn frexp_mant(self) -> Self {
        self.lanewise(self, |a, _| f32::from_bits((a.to_bits() & 0x007F_FFFF) | 0x3F00_0000))
    }
}
