//! The element-type contract of every op that runs in either precision.
//!
//! The float and half pipelines differ in how an element is stored,
//! rounded, named and charged, not in what an elementwise op computes:
//! every half intrinsic the kernels use ([`hadd`], [`hsub`], [`hmul`],
//! [`hdiv`], [`hexp`], [`hmax`]) is "compute in `f32`, round once through
//! [`Half::from_f32`]", and for `f32` that rounding is the identity. So
//! one body written over [`Scalar`] reproduces both precisions bit for
//! bit: the default methods below are exactly those intrinsics, and on
//! `f32` they reduce to the native operators.
//!
//! [`hadd`]: crate::intrinsics::hadd
//! [`hsub`]: crate::intrinsics::hsub
//! [`hmul`]: crate::intrinsics::hmul
//! [`hdiv`]: crate::intrinsics::hdiv
//! [`hexp`]: crate::intrinsics::hexp
//! [`hmax`]: crate::intrinsics::hmax

use crate::f16::Half;
use crate::slice::{
    add_row, axpby, convert_f32_to_half_into, convert_half_to_f32_into, scale_row, sum_chains,
};
use std::ops::AddAssign;

/// An element type a kernel can run in: `f32` (the float baseline) or
/// [`Half`] (binary16). `AddAssign` is the atomic-add a `WriteList`
/// commit applies: a correctly-rounded half add, or the f32 add.
pub trait Scalar: Copy + Default + AddAssign + Send + Sync + 'static {
    /// Bytes per element in device memory (the charged traffic).
    const BYTES: usize;
    /// True for binary16: ops charge the half instruction class and take
    /// the half kernel name.
    const HALF: bool;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Negative infinity (the max-reduction identity).
    const NEG_INFINITY: Self;

    /// Exact widening to `f32`.
    fn to_f32(self) -> f32;
    /// Round an `f32` into this precision (the identity for `f32`).
    fn from_f32(v: f32) -> Self;
    /// The raw bits, zero-extended: the halo cache's wire bytes are the
    /// low [`Scalar::BYTES`] little-endian bytes.
    fn bits(self) -> u32;

    /// A kernel's name in this precision: `half` for binary16, `float`
    /// for `f32`.
    #[inline]
    fn pick(half: &'static str, float: &'static str) -> &'static str {
        if Self::HALF {
            half
        } else {
            float
        }
    }

    /// `xs` widened into the equal-length `dst`; true when every element
    /// is finite.
    fn widen_into(xs: &[Self], dst: &mut [f32]) -> bool;

    /// `xs` rounded into the equal-length `dst`.
    fn narrow_into(xs: &[f32], dst: &mut [Self]);

    /// `self + rhs`, rounded once (`hadd`).
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() + rhs.to_f32())
    }

    /// `self − rhs`, rounded once (`hsub`).
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() - rhs.to_f32())
    }

    /// `self · rhs`, rounded once (`hmul`).
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() * rhs.to_f32())
    }

    /// `self / rhs`, rounded once (`hdiv`).
    #[inline]
    fn div(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() / rhs.to_f32())
    }

    /// `e^self`, rounded once (`hexp`).
    #[inline]
    fn exp(self) -> Self {
        Self::from_f32(self.to_f32().exp())
    }

    /// NaN-ignoring maximum, like `f32::max` (`hmax`).
    #[inline]
    fn max(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32().max(rhs.to_f32()))
    }

    /// Neither infinite nor NaN.
    #[inline]
    fn is_finite(self) -> bool {
        self.to_f32().is_finite()
    }

    /// `a·x + b·y` elementwise over equal-length `x` and `y`, each product
    /// and the sum rounded once.
    fn scale_add(a: Self, x: &[Self], b: Self, y: &[Self]) -> Vec<Self> {
        x.iter().zip(y).map(|(&xv, &yv)| a.mul(xv).add(b.mul(yv))).collect()
    }

    /// `out[i]` ← the segment `xs[off[i]..off[i + 1]]` summed from zero in
    /// order, each add rounded once: a sequential chain per segment.
    fn sum_chains(xs: &[Self], off: &[usize], out: &mut [Self]) {
        for (o, w) in out.iter_mut().zip(off.windows(2)) {
            *o = xs[w[0]..w[1]].iter().fold(Self::ZERO, |acc, &v| acc.add(v));
        }
    }

    /// `x + bias` with `bias` broadcast over the rows of `x`.
    fn bias_add(x: &[Self], bias: &[Self]) -> Vec<Self> {
        let n = bias.len();
        x.iter().enumerate().map(|(i, &v)| v.add(bias[i % n])).collect()
    }

    /// Row `r` of the `f`-wide `x` times `scale[r]`.
    fn row_scale(x: &[Self], scale: &[Self], f: usize) -> Vec<Self> {
        x.iter().enumerate().map(|(i, &v)| v.mul(scale[i / f])).collect()
    }
}

impl Scalar for f32 {
    const BYTES: usize = 4;
    const HALF: bool = false;
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    const NEG_INFINITY: f32 = f32::NEG_INFINITY;

    #[inline(always)]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline(always)]
    fn from_f32(v: f32) -> f32 {
        v
    }

    #[inline]
    fn bits(self) -> u32 {
        self.to_bits()
    }

    fn widen_into(xs: &[f32], dst: &mut [f32]) -> bool {
        dst.copy_from_slice(xs);
        xs.iter().fold(true, |finite, v| finite & v.is_finite())
    }

    fn narrow_into(xs: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(xs);
    }
}

impl Scalar for Half {
    const BYTES: usize = 2;
    const HALF: bool = true;
    const ZERO: Half = Half::ZERO;
    const ONE: Half = Half::ONE;
    const NEG_INFINITY: Half = Half::NEG_INFINITY;

    #[inline(always)]
    fn to_f32(self) -> f32 {
        Half::to_f32(self)
    }

    #[inline(always)]
    fn from_f32(v: f32) -> Half {
        Half::from_f32(v)
    }

    #[inline]
    fn bits(self) -> u32 {
        self.to_bits() as u32
    }

    /// The bulk conversion, which reports non-finite blocks.
    fn widen_into(xs: &[Half], dst: &mut [f32]) -> bool {
        convert_half_to_f32_into(xs, dst)
    }

    /// The bulk conversion.
    fn narrow_into(xs: &[f32], dst: &mut [Half]) {
        convert_f32_to_half_into(xs, dst);
    }

    /// Eight chains to a vector on F16C hosts.
    fn sum_chains(xs: &[Half], off: &[usize], out: &mut [Half]) {
        sum_chains(xs, off, out);
    }

    /// The exponent-mask test: no widening conversion per element, since
    /// every kernel tile's output is scanned with it.
    #[inline(always)]
    fn is_finite(self) -> bool {
        Half::is_finite(self)
    }

    /// The [`axpby`] row kernel: the default's bits and overflow record.
    fn scale_add(a: Half, x: &[Half], b: Half, y: &[Half]) -> Vec<Half> {
        let mut out = vec![Half::ZERO; x.len()];
        axpby(a, x, b, y, &mut out);
        out
    }

    /// The [`add_row`] row kernel, one row at a time.
    fn bias_add(x: &[Half], bias: &[Half]) -> Vec<Half> {
        let mut out = x.to_vec();
        for row in out.chunks_mut(bias.len().max(1)) {
            add_row(row, &bias[..row.len()]);
        }
        out
    }

    /// The [`scale_row`] row kernel, one row at a time.
    fn row_scale(x: &[Half], scale: &[Half], f: usize) -> Vec<Half> {
        let mut out = x.to_vec();
        for (r, row) in out.chunks_mut(f.max(1)).enumerate() {
            scale_row(row, scale[r]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrinsics::{hadd, hdiv, hexp, hmax, hmul, hsub};

    /// Bitwise equality, except that any NaN matches any NaN.
    fn same_half(got: Half, want: Half) -> bool {
        if want.is_nan() {
            got.is_nan()
        } else {
            got.to_bits() == want.to_bits()
        }
    }

    fn same_f32(got: f32, want: f32) -> bool {
        if want.is_nan() {
            got.is_nan()
        } else {
            got.to_bits() == want.to_bits()
        }
    }

    /// Second operands: signed zeros and ones, the range edges, the
    /// non-finite values and a few ordinary numbers.
    fn operand_table() -> Vec<Half> {
        let mut b = vec![
            Half::ZERO,
            Half::NEG_ZERO,
            Half::ONE,
            Half::NEG_ONE,
            Half::MIN_POSITIVE_SUBNORMAL,
            Half::MIN_POSITIVE,
            Half::MAX,
            Half::INFINITY,
            Half::NEG_INFINITY,
            Half::NAN,
        ];
        b.extend([0.3333f32, -2.5, 7.0, 1000.0, -0.0078125].map(Half::from_f32));
        b
    }

    #[test]
    fn half_methods_are_the_intrinsics_on_every_bit_pattern() {
        let table = operand_table();
        for bits in 0..=u16::MAX {
            let a = Half::from_bits(bits);
            assert_eq!(Scalar::bits(a), bits as u32, "bits of {bits:#06x}");
            assert_eq!(Scalar::is_finite(a), Half::is_finite(a), "is_finite of {bits:#06x}");
            assert!(same_half(Scalar::exp(a), hexp(a)), "exp of {bits:#06x}");
            assert_eq!(Scalar::to_f32(a).to_bits(), Half::to_f32(a).to_bits());
            for &b in &table {
                let pairs = [
                    (Scalar::add(a, b), hadd(a, b), "add"),
                    (Scalar::sub(a, b), hsub(a, b), "sub"),
                    (Scalar::mul(a, b), hmul(a, b), "mul"),
                    (Scalar::div(a, b), hdiv(a, b), "div"),
                    (Scalar::max(a, b), hmax(a, b), "max"),
                ];
                for (got, want, op) in pairs {
                    assert!(same_half(got, want), "{op}({bits:#06x}, {:#06x})", b.to_bits());
                }
            }
        }
    }

    #[test]
    fn f32_methods_are_the_native_operators() {
        let mut vals = vec![
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40,
        ];
        let mut x = 0x1234_5678u32;
        for _ in 0..200 {
            // xorshift32 over the bit patterns: every exponent is sampled.
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            vals.push(f32::from_bits(x));
        }
        for &a in &vals {
            assert_eq!(Scalar::bits(a), a.to_bits());
            assert_eq!(Scalar::is_finite(a), a.is_finite());
            assert!(same_f32(Scalar::exp(a), a.exp()));
            assert!(same_f32(<f32 as Scalar>::from_f32(a), a));
            for &b in &vals {
                assert!(same_f32(Scalar::add(a, b), a + b));
                assert!(same_f32(Scalar::sub(a, b), a - b));
                assert!(same_f32(Scalar::mul(a, b), a * b));
                assert!(same_f32(Scalar::div(a, b), a / b));
                assert!(same_f32(Scalar::max(a, b), a.max(b)));
            }
        }
    }

    #[test]
    fn half_slice_methods_are_the_per_element_bodies() {
        // Rows of every width around the eight-lane blocks, with a
        // non-finite value every few elements.
        let table = operand_table();
        for n in [1usize, 3, 8, 13] {
            let m = 5;
            let x: Vec<Half> = (0..m * n).map(|i| table[(i * 7 + n) % table.len()]).collect();
            let y: Vec<Half> = (0..m * n).map(|i| table[(i * 5 + 3) % table.len()]).collect();
            let (bias, scale) = (&y[..n], &y[..m]);
            let (a, b) = (Half::from_f32(0.75), Half::from_f32(-3.0));
            let want_sa: Vec<Half> =
                x.iter().zip(&y).map(|(&xv, &yv)| a.mul(xv).add(b.mul(yv))).collect();
            let want_ba: Vec<Half> =
                x.iter().enumerate().map(|(i, &v)| v.add(bias[i % n])).collect();
            let want_rs: Vec<Half> =
                x.iter().enumerate().map(|(i, &v)| v.mul(scale[i / n])).collect();
            let pairs = [
                (Half::scale_add(a, &x, b, &y), want_sa, "scale_add"),
                (Half::bias_add(&x, bias), want_ba, "bias_add"),
                (Half::row_scale(&x, scale, n), want_rs, "row_scale"),
            ];
            for (got, want, op) in pairs {
                assert_eq!(got.len(), want.len(), "{op} n={n}");
                for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(same_half(g, w), "{op} n={n} lane {i}: {g:?} vs {w:?}");
                }
            }
        }
    }

    #[test]
    fn names_sizes_and_slices_follow_the_precision() {
        assert_eq!(<Half as Scalar>::pick("relu_f16", "relu_f32"), "relu_f16");
        assert_eq!(<f32 as Scalar>::pick("relu_f16", "relu_f32"), "relu_f32");
        assert_eq!((<Half as Scalar>::BYTES, <f32 as Scalar>::BYTES), (2, 4));
        let xs = [1.5f32, -2.0];
        let mut hs = [Half::ZERO; 2];
        Half::narrow_into(&xs, &mut hs);
        assert_eq!(hs, [Half::from_f32(1.5), Half::from_f32(-2.0)]);
        let mut back = [0f32; 2];
        assert!(Half::widen_into(&hs, &mut back) && back == xs);
        assert!(!f32::widen_into(&[f32::NAN, 1.0], &mut back));
        assert!(!Half::widen_into(&[Half::ONE, Half::INFINITY], &mut back));
    }
}
