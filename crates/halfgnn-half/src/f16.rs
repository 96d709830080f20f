//! Bit-exact IEEE 754 binary16 scalar type.
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
//! Finite range ±65504; values ≥ 65520 round to `INF` under
//! round-to-nearest-even, values in (65504, 65520) round down to 65504.
//! Smallest positive normal is 2⁻¹⁴ ≈ 6.1e-5; subnormals reach 2⁻²⁴.

use std::cmp::Ordering;
use std::fmt;

/// A 16-bit IEEE 754 binary16 floating point number.
///
/// Arithmetic through the `std::ops` traits follows the *implicit float
/// promotion* path (Fig. 3a of the paper): both operands are widened to
/// `f32`, the operation runs in `f32`, and the result is rounded back to
/// binary16 with round-to-nearest-even. Use [`crate::intrinsics`] for the
/// half-intrinsic path and [`crate::Half2`] for the SIMD path.
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct Half(pub(crate) u16);

impl PartialEq for Half {
    /// IEEE numeric equality: −0 == +0, NaN != NaN.
    fn eq(&self, other: &Half) -> bool {
        self.to_f32() == other.to_f32()
    }
}

/// Exponent bias of binary16.
const BIAS: i32 = 15;

impl Half {
    /// Positive zero.
    pub const ZERO: Half = Half(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: Half = Half(0x8000);
    /// One.
    pub const ONE: Half = Half(0x3C00);
    /// Negative one.
    pub const NEG_ONE: Half = Half(0xBC00);
    /// Largest finite value, 65504.
    pub const MAX: Half = Half(0x7BFF);
    /// Most negative finite value, −65504.
    pub const MIN: Half = Half(0xFBFF);
    /// Smallest positive *normal* value, 2⁻¹⁴ ≈ 6.103515625e-5.
    pub const MIN_POSITIVE: Half = Half(0x0400);
    /// Smallest positive subnormal value, 2⁻²⁴ ≈ 5.96e-8.
    pub const MIN_POSITIVE_SUBNORMAL: Half = Half(0x0001);
    /// Machine epsilon (2⁻¹⁰) — the gap between 1.0 and the next value.
    pub const EPSILON: Half = Half(0x1400);
    /// Positive infinity, produced on overflow.
    pub const INFINITY: Half = Half(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Half = Half(0xFC00);
    /// A quiet NaN.
    pub const NAN: Half = Half(0x7E00);

    /// Construct from raw binary16 bits.
    #[inline(always)]
    pub const fn from_bits(bits: u16) -> Half {
        Half(bits)
    }

    /// Raw binary16 bit pattern.
    #[inline(always)]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values whose magnitude rounds to ≥ 65520 become `±INF` (the overflow
    /// the paper's §3.1.3 analyses); tiny values flush through subnormals to
    /// signed zero.
    ///
    /// Every arithmetic path in this crate rounds its result through this
    /// function, so under the `provenance` feature it doubles as the
    /// observation point for [`crate::overflow`] tracking.
    #[inline]
    pub fn from_f32(value: f32) -> Half {
        let h = Half::from_f32_raw(value);
        #[cfg(feature = "provenance")]
        crate::overflow::record(value, h);
        h
    }

    /// The pure, uninstrumented conversion — identical numerics to
    /// [`Half::from_f32`], never observed by overflow tracking.
    #[inline]
    pub fn from_f32_raw(value: f32) -> Half {
        let x = value.to_bits();
        let sign = ((x >> 16) & 0x8000) as u16;
        let abs = x & 0x7FFF_FFFF;

        if abs >= 0x7F80_0000 {
            // Source is Inf or NaN.
            if abs > 0x7F80_0000 {
                // NaN: keep the top payload bits, force quiet bit so the
                // payload can never collapse to the Inf pattern.
                return Half(sign | 0x7E00 | ((abs >> 13) & 0x03FF) as u16);
            }
            return Half(sign | 0x7C00);
        }

        let exp16 = (abs >> 23) as i32 - 112; // rebias 127 -> 15
        if exp16 >= 0x1F {
            // |v| >= 2^16: overflow to infinity regardless of rounding.
            return Half(sign | 0x7C00);
        }
        if exp16 <= 0 {
            // Result is subnormal (or underflows to zero).
            if exp16 < -10 {
                // |v| < 2^-25: rounds to zero (2^-25 itself ties to even 0,
                // handled by the rounding path below at exp16 == -10).
                return Half(sign);
            }
            let man = (abs & 0x007F_FFFF) | 0x0080_0000; // implicit 1
            let shift = (14 - exp16) as u32; // 14..=24
            let a = man >> shift;
            let rem = man & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut r = a as u16;
            if rem > halfway || (rem == halfway && (a & 1) == 1) {
                r += 1; // may carry into the min-normal encoding: correct
            }
            return Half(sign | r);
        }

        // Normal result: shift 23-bit mantissa down to 10 bits with RNE.
        let man = abs & 0x007F_FFFF;
        let a = man >> 13;
        let rem = man & 0x1FFF;
        let mut r = ((exp16 as u16) << 10) | (a as u16);
        if rem > 0x1000 || (rem == 0x1000 && (a & 1) == 1) {
            // Carry may ripple into the exponent and even into the Inf
            // encoding (65520 <= |v| < 65536): exactly IEEE behaviour.
            r += 1;
        }
        Half(sign | r)
    }

    /// Widen to `f32`. Exact: every binary16 value is representable in `f32`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let h = self.0;
        let sign = ((h & 0x8000) as u32) << 16;
        let exp = ((h >> 10) & 0x1F) as u32;
        let man = (h & 0x03FF) as u32;
        let bits = if exp == 0 {
            if man == 0 {
                sign // signed zero
            } else {
                // Subnormal: renormalize. Top set bit of `man` is at
                // position p in 0..=9; value = 2^(p-24) * 1.frac.
                let p = 31 - man.leading_zeros();
                let shift = 10 - p;
                let m = (man << shift) & 0x03FF;
                let e = 103 + p; // (p - 24) + 127
                sign | (e << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            // Inf / NaN
            sign | 0x7F80_0000 | (man << 13)
        } else {
            sign | ((exp + 112) << 23) | (man << 13)
        };
        f32::from_bits(bits)
    }

    /// Convert from `f64` (via `f32`; double rounding is harmless for the
    /// magnitudes GNN feature data takes, and tests pin the behaviour).
    pub fn from_f64(value: f64) -> Half {
        Half::from_f32(value as f32)
    }

    /// Widen to `f64`.
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// True for either infinity.
    #[inline(always)]
    pub const fn is_infinite(self) -> bool {
        self.0 & 0x7FFF == 0x7C00
    }

    /// True for NaN.
    #[inline(always)]
    pub const fn is_nan(self) -> bool {
        self.0 & 0x7FFF > 0x7C00
    }

    /// True for anything that is neither Inf nor NaN.
    #[inline(always)]
    pub const fn is_finite(self) -> bool {
        self.0 & 0x7C00 != 0x7C00
    }

    /// True for subnormals (non-zero values below [`Half::MIN_POSITIVE`]).
    #[inline(always)]
    pub const fn is_subnormal(self) -> bool {
        self.0 & 0x7C00 == 0 && self.0 & 0x03FF != 0
    }

    /// True for positive or negative zero.
    #[inline(always)]
    pub const fn is_zero(self) -> bool {
        self.0 & 0x7FFF == 0
    }

    /// Sign bit set (note: true for −0.0 and negative NaNs).
    #[inline(always)]
    pub const fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// Absolute value (clears the sign bit; exact, no rounding).
    #[inline(always)]
    pub const fn abs(self) -> Half {
        Half(self.0 & 0x7FFF)
    }

    /// Exponent field with bias removed, treating subnormals as `-15`.
    pub const fn exponent(self) -> i32 {
        ((self.0 >> 10) & 0x1F) as i32 - BIAS
    }

    /// Max of two values; propagates NaN like `f32::max` (ignores NaN when
    /// the other operand is a number).
    pub fn max(self, other: Half) -> Half {
        Half::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// Min of two values, NaN-ignoring.
    pub fn min(self, other: Half) -> Half {
        Half::from_f32(self.to_f32().min(other.to_f32()))
    }
}

impl From<f32> for Half {
    fn from(v: f32) -> Half {
        Half::from_f32(v)
    }
}

impl From<Half> for f32 {
    fn from(v: Half) -> f32 {
        v.to_f32()
    }
}

macro_rules! promote_binop {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl std::ops::$trait for Half {
            type Output = Half;
            /// Implicit float promotion (Fig. 3a): compute in `f32`, round
            /// the result back to binary16.
            #[inline]
            fn $fn(self, rhs: Half) -> Half {
                Half::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

promote_binop!(Add, add, +);
promote_binop!(Sub, sub, -);
promote_binop!(Mul, mul, *);
promote_binop!(Div, div, /);

impl std::ops::Neg for Half {
    type Output = Half;
    #[inline(always)]
    fn neg(self) -> Half {
        Half(self.0 ^ 0x8000)
    }
}

impl std::ops::AddAssign for Half {
    #[inline]
    fn add_assign(&mut self, rhs: Half) {
        *self = *self + rhs;
    }
}

impl PartialOrd for Half {
    fn partial_cmp(&self, other: &Half) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}h16", self.to_f32())
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bit_patterns() {
        assert_eq!(Half::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(Half::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(Half::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(Half::from_f32(-1.0).to_bits(), 0xBC00);
        assert_eq!(Half::from_f32(2.0).to_bits(), 0x4000);
        assert_eq!(Half::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(Half::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(Half::from_f32(f32::INFINITY).to_bits(), 0x7C00);
        assert_eq!(Half::from_f32(f32::NEG_INFINITY).to_bits(), 0xFC00);
        // 1/3 rounds to 0x3555 (0.333251953125)
        assert_eq!(Half::from_f32(1.0 / 3.0).to_bits(), 0x3555);
    }

    #[test]
    fn round_trip_all_finite_halves() {
        // Exhaustive: every finite binary16 survives the f32 round trip.
        for bits in 0..=u16::MAX {
            let h = Half::from_bits(bits);
            if h.is_nan() {
                assert!(Half::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(Half::from_f32(h.to_f32()).to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn overflow_boundary_rne() {
        // The largest finite half is 65504; the rounding boundary to Inf is
        // 65520 (midpoint 65504 + 16, ties to even -> Inf since mantissa of
        // MAX is odd... actually 65520 is exactly the midpoint between
        // 65504 and the first non-representable step 65536).
        assert_eq!(Half::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(Half::from_f32(65519.0).to_bits(), 0x7BFF);
        assert!(Half::from_f32(65520.0).is_infinite());
        assert!(Half::from_f32(65536.0).is_infinite());
        assert!(Half::from_f32(1e9).is_infinite());
        assert!(Half::from_f32(-65520.0).is_infinite());
        assert!(Half::from_f32(-65520.0).is_sign_negative());
    }

    #[test]
    fn underflow_boundary_rne() {
        let tiny = 2f32.powi(-24); // smallest subnormal
        assert_eq!(Half::from_f32(tiny).to_bits(), 0x0001);
        // Exactly half the smallest subnormal ties to even zero.
        assert_eq!(Half::from_f32(tiny / 2.0).to_bits(), 0x0000);
        // Slightly more than half rounds up to the smallest subnormal.
        assert_eq!(Half::from_f32(tiny * 0.75).to_bits(), 0x0001);
        assert_eq!(Half::from_f32(tiny / 4.0).to_bits(), 0x0000);
        assert_eq!(Half::from_f32(-tiny).to_bits(), 0x8001);
    }

    #[test]
    fn subnormal_values() {
        assert!(Half::MIN_POSITIVE_SUBNORMAL.is_subnormal());
        assert!(!Half::MIN_POSITIVE.is_subnormal());
        assert_eq!(Half::MIN_POSITIVE.to_f32(), 6.103_515_6e-5);
        assert_eq!(Half::MIN_POSITIVE_SUBNORMAL.to_f32(), 5.960_464_5e-8);
        // A mid-range subnormal round-trips.
        let h = Half::from_bits(0x0201);
        assert_eq!(Half::from_f32(h.to_f32()).to_bits(), 0x0201);
    }

    #[test]
    fn nan_propagation() {
        assert!(Half::NAN.is_nan());
        assert!(Half::from_f32(f32::NAN).is_nan());
        assert!((Half::NAN + Half::ONE).is_nan());
        assert!((Half::INFINITY - Half::INFINITY).is_nan());
        assert!((Half::INFINITY * Half::ZERO).is_nan());
        assert!((Half::ZERO / Half::ZERO).is_nan());
        // NaN != NaN
        assert_ne!(Half::NAN.to_f32(), Half::NAN.to_f32());
    }

    #[test]
    fn inf_arithmetic_matches_ieee() {
        assert_eq!(Half::INFINITY + Half::ONE, Half::INFINITY);
        assert_eq!(Half::MAX + Half::MAX, Half::INFINITY);
        assert_eq!(-Half::INFINITY, Half::NEG_INFINITY);
        assert!((Half::INFINITY + Half::NEG_INFINITY).is_nan());
    }

    #[test]
    fn promotion_arithmetic_rounds_once() {
        // 1 + 2^-11 is not representable: RNE ties to even -> stays 1.0.
        let eps_half = Half::from_f32(2f32.powi(-11));
        assert_eq!(Half::ONE + eps_half, Half::ONE);
        // 1 + 2^-10 is exactly representable.
        assert_eq!((Half::ONE + Half::EPSILON).to_f32(), 1.0 + 2f32.powi(-10));
    }

    #[test]
    fn accumulation_overflow_reproduces_paper() {
        // Summing 1.0 many times in half: representable integers stop at
        // 2048 + steps of 2; the sum saturates and then jumps to Inf only
        // when each *individual* add overflows. Summing large values does
        // overflow: this is the SpMM reduction pathology of §3.1.3.
        let big = Half::from_f32(600.0);
        let mut acc = Half::ZERO;
        for _ in 0..200 {
            acc += big;
        }
        assert!(acc.is_infinite(), "200 * 600 = 120000 > 65504 must overflow");
    }

    #[test]
    fn ordering_and_comparison() {
        assert!(Half::from_f32(1.5) > Half::ONE);
        assert!(Half::NEG_INFINITY < Half::MIN);
        assert!(Half::INFINITY > Half::MAX);
        assert_eq!(Half::ZERO, Half::NEG_ZERO); // IEEE: -0 == +0 numerically
        assert!(Half::NAN.partial_cmp(&Half::ONE).is_none());
    }

    #[test]
    fn min_max_ignore_nan() {
        assert_eq!(Half::NAN.max(Half::ONE), Half::ONE);
        assert_eq!(Half::ONE.min(Half::NAN), Half::ONE);
        assert_eq!(Half::ONE.max(Half::from_f32(2.0)).to_f32(), 2.0);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Half::from_f32(1.5)), "1.5");
        assert_eq!(format!("{:?}", Half::ONE), "1h16");
    }

    #[test]
    fn f64_conversions() {
        assert_eq!(Half::from_f64(0.25).to_f64(), 0.25);
        assert!(Half::from_f64(1e30).is_infinite());
    }

    #[test]
    fn exponent_field() {
        assert_eq!(Half::ONE.exponent(), 0);
        assert_eq!(Half::from_f32(2.0).exponent(), 1);
        assert_eq!(Half::from_f32(0.25).exponent(), -2);
        assert_eq!(Half::MIN_POSITIVE.exponent(), -14);
    }
}
