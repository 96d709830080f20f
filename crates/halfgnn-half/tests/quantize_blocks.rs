//! `quantize_blocks` against its definition: a loop of `quantize_sr`, one
//! call per element at its block's exponent. The codes, the exponents and
//! the saturation record (compared by its `Debug` string) must match with
//! a window open, with none, and inside `isolated`.
//!
//! Inputs cover all 65,536 binary16 payloads as `f32`s in blocks of mixed
//! magnitude, every length from 0 to 200 (partial last blocks included),
//! base indices that cross a block boundary, exponent bias 0 and −4 (the
//! latter saturates, so `first` is checked), and ±Inf and NaN inputs.
//!
//! `quantize_sr` itself floors without libm; it is checked against the
//! rounding written with `f64::floor`, over every payload at exponents
//! that reach the `i64` cast's saturation, ±Inf and NaN scaled values.

use halfgnn_half::quant::{
    self, block_exponent, exponent_bias, isolated, quantize_blocks, quantize_sr, set_exponent_bias,
    QuantizedBlocks, SatSummary, BLOCK,
};
use halfgnn_half::{splitmix64, Half};

const SEED: u64 = 0x00DD_BA11;
const SITE: u64 = 0x517E;

/// The per-element definition `quantize_blocks` must reproduce.
fn reference(vals: &[f32], seed: u64, site: u64, base_index: u64) -> QuantizedBlocks {
    let mut q = Vec::new();
    let mut exps = Vec::new();
    for (bi, block) in vals.chunks(BLOCK).enumerate() {
        let max_abs = block.iter().fold(0f32, |m, v| m.max(v.abs()));
        let e = block_exponent(max_abs) + exponent_bias();
        exps.push(e as i16);
        for (j, &v) in block.iter().enumerate() {
            q.push(quantize_sr(v, e, seed, site, base_index + (bi * BLOCK + j) as u64));
        }
    }
    QuantizedBlocks { q, exps }
}

/// Every binary16 payload widened to `f32`, permuted so that each block
/// mixes magnitudes (an odd multiplier is a bijection mod 2^16).
fn all_payloads() -> Vec<f32> {
    (0..=u16::MAX as u32)
        .map(|i| Half::from_bits((i.wrapping_mul(40_503) & 0xFFFF) as u16).to_f32())
        .collect()
}

/// Keyed values of varied magnitude, with a share of ±Inf and NaN.
fn keyed(n: usize, key: u64, nonfinite: bool) -> Vec<f32> {
    let mut s = key;
    (0..n)
        .map(|_| {
            s = splitmix64(s);
            let u = (s >> 40) as f32 / (1u64 << 24) as f32;
            match s % 23 {
                0 if nonfinite => f32::INFINITY,
                1 if nonfinite => f32::NEG_INFINITY,
                2 if nonfinite => f32::NAN,
                3 => 0.0,
                4 => -0.0,
                k => (u - 0.5) * (2.0f32).powi(k as i32 - 12),
            }
        })
        .collect()
}

/// The record of `run` in a fresh window.
fn windowed<T>(run: impl FnOnce() -> T) -> (T, SatSummary) {
    quant::begin();
    let out = run();
    (out, quant::take())
}

/// One case under all three window states.
fn check(label: &str, vals: &[f32], base: u64) {
    let want = windowed(|| reference(vals, SEED, SITE, base));
    let got = windowed(|| quantize_blocks(vals, SEED, SITE, base));
    assert_eq!(got.0, want.0, "{label}: codes or exponents, window open");
    assert_eq!(format!("{:?}", got.1), format!("{:?}", want.1), "{label}: record");

    assert!(!quant::is_active());
    assert_eq!(quantize_blocks(vals, SEED, SITE, base), want.0, "{label}: no window");

    // Inside `isolated`, with an outer window holding an earlier event.
    quant::begin();
    quantize_sr(1e9, 0, SEED, SITE, 7);
    let (inner, sat) = isolated(|| quantize_blocks(vals, SEED, SITE, base));
    let outer = quant::take();
    assert_eq!(inner, want.0, "{label}: codes, isolated");
    assert_eq!(format!("{sat:?}"), format!("{:?}", want.1), "{label}: isolated record");
    assert_eq!((outer.quantized, outer.saturated), (1, 1), "{label}: outer window disturbed");
    assert_eq!(outer.first.map(|e| e.index), Some(7), "{label}: outer first replaced");
}

/// Both exponent biases: 0, and −4, which clamps most blocks.
fn at_each_bias(f: impl Fn(i32)) {
    for bias in [0, -4] {
        set_exponent_bias(bias);
        f(bias);
    }
    set_exponent_bias(0);
}

#[test]
fn all_65536_payloads_match_the_per_element_loop() {
    let vals = all_payloads();
    at_each_bias(|bias| {
        check(&format!("payloads, bias {bias}"), &vals, 0);
        let (_, sat) = isolated(|| quantize_blocks(&vals, SEED, SITE, 0));
        assert_eq!(sat.quantized, vals.len() as u64);
        // 2 × 1,023 NaN payloads and ±Inf.
        assert_eq!(sat.nonfinite_inputs, 2 * 1023 + 2, "bias {bias}");
        if bias < 0 {
            assert!(sat.saturated > 0, "a −4 bias must clamp");
        }
    });
}

#[test]
fn every_length_to_200_and_partial_last_blocks_match() {
    at_each_bias(|bias| {
        for len in 0..=200 {
            let vals = keyed(len, len as u64 ^ 0xA5, len % 3 == 0);
            check(&format!("len {len}, bias {bias}"), &vals, 0);
        }
    });
}

#[test]
fn base_indices_across_a_block_boundary_match() {
    at_each_bias(|bias| {
        for base in [1u64, 31, 63, 64, 65, 127, 1_000_003, u32::MAX as u64 - 5] {
            for len in [1, 2, 63, 64, 65, 130] {
                let vals = keyed(len, base ^ len as u64, true);
                check(&format!("base {base}, len {len}, bias {bias}"), &vals, base);
            }
        }
    });
}

#[test]
fn a_biased_scale_records_the_first_clamp_in_element_order() {
    // Block 0 is clean at bias −4 only if its values are tiny; block 1
    // clamps from its third element on.
    let mut vals = vec![0.0f32; 2 * BLOCK];
    vals[BLOCK] = 1.0;
    vals[BLOCK + 2] = 100.0;
    vals[BLOCK + 5] = -100.0;
    set_exponent_bias(-4);
    let (codes, sat) = isolated(|| quantize_blocks(&vals, SEED, SITE, 10));
    set_exponent_bias(0);
    let first = sat.first.expect("a clamp is recorded");
    assert_eq!((first.site, first.index, first.input), (SITE, 10 + BLOCK as u64 + 2, 100.0));
    assert!(!first.nonfinite_input);
    assert_eq!(sat.saturated, 2);
    assert_eq!((codes.q[BLOCK + 2], codes.q[BLOCK + 5]), (127, -127));
}

#[test]
fn nonfinite_inputs_pin_and_record_in_element_order() {
    let vals = [1.0f32, f32::NAN, -2.0, f32::INFINITY, f32::NEG_INFINITY, 3.0];
    check("non-finite", &vals, 0);
    let (codes, sat) = isolated(|| quantize_blocks(&vals, SEED, SITE, 40));
    assert_eq!((codes.q[1], codes.q[3], codes.q[4]), (0, 127, -127));
    assert_eq!((sat.nonfinite_inputs, sat.saturated), (3, 0));
    let first = sat.first.expect("recorded");
    assert_eq!(first.index, 41);
    assert!(first.nonfinite_input && first.input.is_nan());
    // An infinite block maximum picks exponent 0.
    assert_eq!(codes.exps, vec![0]);
}

#[test]
fn appending_variant_continues_the_callers_buffers() {
    let vals = keyed(300, 9, true);
    let whole = quantize_blocks(&vals, SEED, SITE, 0);
    let mut parts = QuantizedBlocks { q: vec![5], exps: vec![-3] };
    quant::quantize_blocks_into(&vals[..128], SEED, SITE, 0, &mut parts);
    quant::quantize_blocks_into(&vals[128..], SEED, SITE, 128, &mut parts);
    assert_eq!(&parts.q[1..], &whole.q[..]);
    assert_eq!(&parts.exps[1..], &whole.exps[..]);
    assert_eq!((parts.q[0], parts.exps[0]), (5, -3));
}

#[test]
fn credit_merges_into_an_open_window_only() {
    let vals = keyed(150, 3, true);
    let (_, sat) = isolated(|| quantize_blocks(&vals, SEED, SITE, 0));
    assert!(sat.quantized == 150 && sat.nonfinite_inputs > 0, "{sat:?}");
    // No window: nothing is recorded and none is opened.
    quant::credit(&sat);
    assert!(!quant::is_active());
    // Crediting twice records what quantizing twice records.
    let (_, twice) = windowed(|| {
        quant::credit(&sat);
        quant::credit(&sat);
    });
    let (_, again) = windowed(|| {
        quantize_blocks(&vals, SEED, SITE, 0);
        quantize_blocks(&vals, SEED, SITE, 0);
    });
    assert_eq!(format!("{twice:?}"), format!("{again:?}"));
}

/// `quantize_sr` for a finite `v`, written with `f64::floor` and
/// `sr_uniform`: the code, and whether it clamped.
fn quantize_sr_with_libm_floor(v: f32, e: i32, seed: u64, site: u64, index: u64) -> (i8, bool) {
    let scaled = v as f64 * (2.0f64).powi(-e);
    let floor = scaled.floor();
    let u = quant::sr_uniform(seed, site, index) as f64;
    let q = floor + if u < scaled - floor { 1.0 } else { 0.0 };
    (q.clamp(-127.0, 127.0) as i8, q.abs() > 127.0)
}

#[test]
fn quantize_sr_matches_the_libm_floor_rounding() {
    let payloads: Vec<f32> = (0..=u16::MAX).map(|b| Half::from_bits(b).to_f32()).collect();
    let extremes = [f32::MAX, -f32::MAX, f32::MIN_POSITIVE, -f32::from_bits(1), 1e30, -3e-41];
    let mut clamps = 0;
    for (i, &v) in payloads.iter().chain(&extremes).enumerate() {
        if !v.is_finite() {
            continue; // pinned before any rounding
        }
        let own = block_exponent(v.abs());
        // Own scale, coarser and finer ones, |scaled| past 2^63 (e = −60
        // at 65504), Inf (e = −1100) and 0 · Inf = NaN (e = −1100 at ±0).
        for e in [own, own + 3, own - 1, own - 4, -60, -200, -1100, 1100, 0, 20] {
            let index = ((i as u64) << 8) ^ (e as u64 & 0xFF);
            let (got, sat) = isolated(|| quantize_sr(v, e, SEED, SITE, index));
            let (want, clamped) = quantize_sr_with_libm_floor(v, e, SEED, SITE, index);
            assert_eq!(got, want, "{v:e} (bits {:#010x}) at e={e}", v.to_bits());
            assert_eq!(sat.saturated > 0, clamped, "{v:e} at e={e}: {sat:?}");
            assert_eq!((sat.quantized, sat.nonfinite_inputs), (1, 0), "{v:e} at e={e}");
            clamps += clamped as u32;
        }
    }
    assert!(clamps > 100_000, "the sweep must reach the clamps: {clamps}");
}
