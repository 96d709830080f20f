//! Exhaustive binary16 validation: every one of the 2^16 bit patterns
//! round-trips through `f32`, and the round-to-nearest-even boundaries the
//! paper's overflow analysis (§3.1.3) depends on are pinned value by value.
//! The bulk conversions of `halfgnn_half::slice` (eight lanes at a time on
//! hosts with F16C) are held to the scalar conversions bit for bit.

use halfgnn_half::slice::{convert_f32_to_half_into, convert_half_to_f32_into};
use halfgnn_half::Half;

/// `half → f32 → half` must be the identity on every bit pattern: the
/// widening is exact, so the only way to lose information is a rounding
/// bug in `from_f32`. NaNs keep NaN-ness (payloads may be quietized).
#[test]
fn exhaustive_round_trip_all_65536_bit_patterns() {
    for bits in 0..=u16::MAX {
        let h = Half::from_bits(bits);
        let widened = h.to_f32();
        let back = Half::from_f32(widened);
        if h.is_nan() {
            assert!(back.is_nan(), "bits {bits:#06x}: NaN must survive the round trip");
            assert_eq!(
                back.to_bits() & 0x8000,
                bits & 0x8000,
                "bits {bits:#06x}: NaN sign must survive"
            );
        } else {
            assert_eq!(
                back.to_bits(),
                bits,
                "bits {bits:#06x} (value {widened:e}) must round-trip exactly"
            );
        }
    }
}

/// `to_f64` must agree with `to_f32` everywhere (binary16 ⊂ f32 ⊂ f64).
#[test]
fn exhaustive_f64_widening_matches_f32() {
    for bits in 0..=u16::MAX {
        let h = Half::from_bits(bits);
        if h.is_nan() {
            assert!(h.to_f64().is_nan());
        } else {
            assert_eq!(h.to_f64(), h.to_f32() as f64, "bits {bits:#06x}");
        }
    }
}

/// Round-to-nearest-even boundary table. Each row is `(f32 input, expected
/// binary16 bits)`; the cases cover tie-to-even at mantissa granularity,
/// the subnormal/zero underflow boundary, and the 65504/65520 overflow
/// cliff — with both signs.
fn rne_cases() -> Vec<(f32, u16, &'static str)> {
    let ulp = |p: i32| 2.0_f32.powi(p);
    vec![
        // --- ties around 1.0 (half ulp there is 2^-10, half of it 2^-11)
        (1.0, 0x3C00, "exact one"),
        (1.0 + ulp(-11), 0x3C00, "tie below odd: to even mantissa 0"),
        (1.0 + ulp(-11) + ulp(-22), 0x3C01, "just above the tie: rounds up"),
        (1.0 + 3.0 * ulp(-11), 0x3C02, "tie above odd mantissa 1: to even 2"),
        (1.0 + ulp(-10), 0x3C01, "exactly representable next value"),
        // --- subnormal underflow boundary (smallest subnormal is 2^-24)
        (ulp(-24), 0x0001, "smallest subnormal is exact"),
        (ulp(-25), 0x0000, "tie between 0 and 2^-24: to even zero"),
        (ulp(-25) + ulp(-40), 0x0001, "just above the tie: smallest subnormal"),
        (1.5 * ulp(-24), 0x0002, "tie between subnormals 1 and 2: to even 2"),
        (ulp(-26), 0x0000, "below the tie: zero"),
        (ulp(-14), 0x0400, "smallest normal is exact"),
        (ulp(-14) - ulp(-24), 0x03FF, "largest subnormal is exact"),
        // --- overflow cliff (max finite 65504; ≥ 65520 rounds to INF)
        (65504.0, 0x7BFF, "max finite is exact"),
        (65519.0, 0x7BFF, "below the overflow tie: rounds down to max"),
        (65520.0, 0x7C00, "tie between 65504 and 2^16: to even = INF"),
        (65521.0, 0x7C00, "above the tie: INF"),
        (65536.0, 0x7C00, "2^16 overflows regardless of rounding"),
        (f32::MAX, 0x7C00, "f32::MAX overflows"),
        (f32::INFINITY, 0x7C00, "INF propagates"),
        // --- negative mirror of every boundary
        (-1.0 - ulp(-11), 0xBC00, "negative tie to even"),
        (-ulp(-25), 0x8000, "negative underflow keeps the sign: -0"),
        (-65519.0, 0xFBFF, "negative below the cliff"),
        (-65520.0, 0xFC00, "negative tie overflows to -INF"),
        (-f32::INFINITY, 0xFC00, "-INF propagates"),
        // --- signed zero
        (0.0, 0x0000, "+0"),
        (-0.0, 0x8000, "-0"),
    ]
}

#[test]
fn rne_boundary_table() {
    for (input, want, why) in rne_cases() {
        let got = Half::from_f32(input).to_bits();
        assert_eq!(got, want, "{why}: from_f32({input:e}) = {got:#06x}, want {want:#06x}");
    }
    // NaN quietization: any f32 NaN converts to a binary16 NaN.
    assert!(Half::from_f32(f32::NAN).is_nan());
}

/// Bulk-narrow `src` and compare every lane with `Half::from_f32_raw`.
fn assert_bulk_narrowing_is_scalar(src: &[f32]) {
    let mut got = vec![Half::ZERO; src.len()];
    convert_f32_to_half_into(src, &mut got);
    for (&v, h) in src.iter().zip(&got) {
        let want = Half::from_f32_raw(v).to_bits();
        assert_eq!(h.to_bits(), want, "narrow({:#010x}) = {:#06x}", v.to_bits(), h.to_bits());
    }
}

/// The bulk narrowing on the boundary table, once in table order and once
/// with every row in its own eight-lane block next to ordinary values.
#[test]
fn bulk_narrowing_matches_the_rne_boundary_table() {
    let inputs: Vec<f32> = rne_cases().iter().map(|&(v, _, _)| v).collect();
    assert_bulk_narrowing_is_scalar(&inputs);
    let spread: Vec<f32> = inputs.iter().flat_map(|&v| [0.5, v, 1.0, -3.0, 7.0]).collect();
    assert_bulk_narrowing_is_scalar(&spread);
    for (input, want, why) in rne_cases() {
        let mut got = [Half::ZERO; 9];
        convert_f32_to_half_into(&[input; 9], &mut got);
        assert!(got.iter().all(|h| h.to_bits() == want), "{why}: bulk narrowing of {input:e}");
    }
}

/// A strided sweep over the f32 bit patterns: every exponent, both signs,
/// NaN payloads and the rounding ties between them.
#[test]
fn bulk_narrowing_equals_from_f32_raw_on_a_strided_sweep() {
    const STRIDE: u64 = 4099; // prime, so the low mantissa bits vary too
    let src: Vec<f32> =
        (0..(1u64 << 32) / STRIDE).map(|i| f32::from_bits((i * STRIDE) as u32)).collect();
    assert_bulk_narrowing_is_scalar(&src);
}

/// The full sweep: every one of the 2^32 f32 patterns, in 2^16 slices.
/// About 16 s in a release build; CI runs it with `--ignored`.
#[test]
#[ignore = "full 2^32 sweep; run with --release -- --ignored"]
fn bulk_narrowing_equals_from_f32_raw_on_all_2_32_patterns() {
    let mut src = vec![0f32; 1 << 16];
    for hi in 0..=u16::MAX as u32 {
        for (lo, v) in src.iter_mut().enumerate() {
            *v = f32::from_bits(hi << 16 | lo as u32);
        }
        assert_bulk_narrowing_is_scalar(&src);
    }
}

/// The bulk widening equals `to_f32` bit for bit on every pattern, the
/// 1,022 signaling NaNs included (hardware widening would quiet them).
/// The patterns run once in order and once permuted, so non-finite values
/// share eight-lane blocks with finite ones.
#[test]
fn bulk_widening_equals_to_f32_on_all_65536_patterns() {
    let in_order: Vec<Half> = (0..=u16::MAX).map(Half::from_bits).collect();
    // An odd multiplier permutes 0..2^16.
    let permuted: Vec<Half> =
        (0..=u16::MAX).map(|i| Half::from_bits(i.wrapping_mul(40_503))).collect();
    for all in [in_order, permuted] {
        let mut got = vec![0f32; all.len()];
        convert_half_to_f32_into(&all, &mut got);
        let mut signaling = 0;
        for (h, v) in all.iter().zip(&got) {
            let want = h.to_f32().to_bits();
            assert_eq!(v.to_bits(), want, "widen({:#06x}) = {:#010x}", h.to_bits(), v.to_bits());
            signaling += usize::from(h.is_nan() && h.to_bits() & 0x0200 == 0);
        }
        assert_eq!(signaling, 1022);
    }
}

/// The instrumented and raw conversion paths must be numerically identical
/// for every representable half (the provenance hook must never change
/// values, only observe them).
#[test]
fn instrumented_conversion_equals_raw() {
    for bits in 0..=u16::MAX {
        let v = Half::from_bits(bits).to_f32();
        let a = Half::from_f32(v).to_bits();
        let b = Half::from_f32_raw(v).to_bits();
        assert_eq!(a, b, "bits {bits:#06x}");
    }
}
