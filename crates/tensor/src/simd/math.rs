//! Generic vectorisable transcendental math.
//!
//! These replace libm's `expf`/`logf` for the converted kernels with
//! Cephes-style polynomial implementations written against the
//! 8-lane [`SimdF32`] abstraction. Because the *same generic code* is
//! the retained scalar reference (instantiated with `ScalarVec`) and
//! the AVX2 fast path (instantiated with `AvxVec`), the two produce
//! identical bits on every lane — there is no separate "approximation"
//! to compare against.
//!
//! Accuracy is ~2 ulp over the full range (the classic Cephes bounds),
//! which differs from libm by a few ulp — the canonical definitions
//! below *are* the kernel semantics from this layer on.
//!
//! All arithmetic is mul + add in a documented order; no FMA.

// The coefficients below are quoted digit-for-digit from the Cephes
// tables; "simplifying" them to shorter literals or library constants
// would silently change which f32 they round to.
#![allow(clippy::excessive_precision, clippy::approx_constant)]

use super::vec::SimdF32;

/// Canonical quiet-NaN bit pattern produced by special-case selects.
pub(crate) const NAN_CANON: u32 = 0x7FC0_0000;

// exp: Cody-Waite range reduction x = n·ln2 + r, degree-5 polynomial
// for e^r, 2^n by exponent-field construction (Cephes expf).
const EXP_HI: f32 = 88.376_26; // ln(2) * 127.5: above this, +inf
const EXP_LO: f32 = -87.336_544; // ln(2) * -126: below this, 0
const LOG2EF: f32 = 1.442_695_04;
const EXP_C1: f32 = 0.693_359_375; // ln(2) high part
const EXP_C2: f32 = -2.121_944_4e-4; // ln(2) low part
const EXP_P0: f32 = 1.987_569_15e-4;
const EXP_P1: f32 = 1.398_199_95e-3;
const EXP_P2: f32 = 8.333_451_9e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_55e-1;
const EXP_P5: f32 = 5.000_000_1e-1;

/// Canonical vectorised `exp(x)`.
///
/// Semantics: `x > EXP_HI` → `+inf`; `x < EXP_LO` → `0.0` (subnormal
/// results flush to zero); NaN → the canonical quiet NaN. Identical on
/// every ISA.
#[inline(always)]
pub(crate) fn vexp<S: SimdF32>(x: S) -> S {
    // Clamp the working value so the core computation stays in range;
    // out-of-range and NaN lanes are overridden by the final selects,
    // which key off the *original* x.
    let xc = x.max_c(S::splat(EXP_LO)).min_c(S::splat(EXP_HI));

    // n = round(x / ln2), as floor(x * log2(e) + 0.5).
    let n = xc.mul(S::splat(LOG2EF)).add(S::splat(0.5)).floor();

    // r = x - n*ln2, two-constant Cody-Waite.
    let r = xc.sub(n.mul(S::splat(EXP_C1))).sub(n.mul(S::splat(EXP_C2)));

    // Horner degree-5: z = ((((P0·r+P1)·r+P2)·r+P3)·r+P4)·r+P5.
    let mut z = S::splat(EXP_P0);
    z = z.mul(r).add(S::splat(EXP_P1));
    z = z.mul(r).add(S::splat(EXP_P2));
    z = z.mul(r).add(S::splat(EXP_P3));
    z = z.mul(r).add(S::splat(EXP_P4));
    z = z.mul(r).add(S::splat(EXP_P5));
    // e^r ≈ z·r² + r + 1 (exact 1.0 at r = 0, so exp(0) == 1 exactly).
    let er = z.mul(r).mul(r).add(r).add(S::splat(1.0));

    let mut y = er.mul(n.pow2i());
    y = S::blend(x.cmp_gt(S::splat(EXP_HI)), S::splat(f32::INFINITY), y);
    y = S::blend(x.cmp_lt(S::splat(EXP_LO)), S::splat(0.0), y);
    S::blend(x.is_nan(), S::splat(f32::from_bits(NAN_CANON)), y)
}

// ln: frexp-style exponent/mantissa split, degree-8 polynomial on the
// reduced mantissa, two-constant ln(2) recombination (Cephes logf).
const SQRTHF: f32 = std::f32::consts::FRAC_1_SQRT_2;
const LN_P0: f32 = 7.037_683_6e-2;
const LN_P1: f32 = -1.151_461e-1;
const LN_P2: f32 = 1.167_699_9e-1;
const LN_P3: f32 = -1.242_014_1e-1;
const LN_P4: f32 = 1.424_932_3e-1;
const LN_P5: f32 = -1.666_805_7e-1;
const LN_P6: f32 = 2.000_071_4e-1;
const LN_P7: f32 = -2.499_999_4e-1;
const LN_P8: f32 = 3.333_333e-1;
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;

/// Canonical vectorised `ln(x)` for **positive normal** `x`.
///
/// Callers must pre-clamp (`x.max_c(eps)` with a positive normal `eps`)
/// so no lane is zero, negative, subnormal, or NaN. `+inf` lanes return
/// `+inf`. Exact `0.0` at `x == 1`.
#[inline(always)]
pub(crate) fn vln<S: SimdF32>(x: S) -> S {
    let e = x.frexp_exp();
    let m = x.frexp_mant();

    // If m < 1/sqrt(2): e -= 1, m = 2m; keeps the reduced argument
    // centred so (m - 1) stays small.
    let low = m.cmp_lt(S::splat(SQRTHF));
    let e = e.sub(S::blend(low, S::splat(1.0), S::splat(0.0)));
    let m = S::blend(low, m.add(m), m).sub(S::splat(1.0));

    let z = m.mul(m);
    let mut p = S::splat(LN_P0);
    p = p.mul(m).add(S::splat(LN_P1));
    p = p.mul(m).add(S::splat(LN_P2));
    p = p.mul(m).add(S::splat(LN_P3));
    p = p.mul(m).add(S::splat(LN_P4));
    p = p.mul(m).add(S::splat(LN_P5));
    p = p.mul(m).add(S::splat(LN_P6));
    p = p.mul(m).add(S::splat(LN_P7));
    p = p.mul(m).add(S::splat(LN_P8));

    let mut y = z.mul(m).mul(p);
    y = y.add(e.mul(S::splat(LN2_LO)));
    y = y.sub(z.mul(S::splat(0.5)));
    let r = m.add(y).add(e.mul(S::splat(LN2_HI)));
    S::blend(x.cmp_eq(S::splat(f32::INFINITY)), S::splat(f32::INFINITY), r)
}

/// Scalar one-lane `exp` with the canonical semantics — used by
/// reduction tails on every ISA path.
#[inline(always)]
pub(crate) fn exp_lane(v: f32) -> f32 {
    use super::vec::{ScalarVec, SimdF32 as _};
    vexp(ScalarVec::splat(v)).to_array()[0]
}

/// Scalar one-lane `ln` with the canonical semantics (positive normal
/// input) — used for per-row log-sum terms on every ISA path.
#[inline(always)]
pub(crate) fn ln_lane(v: f32) -> f32 {
    use super::vec::{ScalarVec, SimdF32 as _};
    vln(ScalarVec::splat(v)).to_array()[0]
}
