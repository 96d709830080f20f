//! INT8 block quantization with deterministic stochastic rounding — the
//! precision rung below binary16 (ROADMAP item 2, after Tango).
//!
//! Values are quantized in `BLOCK`-sized groups that share one
//! power-of-two scale `2^e`, mirroring the discretized per-bucket
//! exponents of the f16 gradient all-reduce: the exponent is chosen as
//! the smallest `e` with `max|v| ≤ 127·2^e`, so every quantized code
//! fits `[-127, 127]` and dequantization (`q · 2^e`) is exact in f32.
//! The only lossy step is the rounding of `v · 2^-e` to an integer.
//!
//! That rounding is **stochastic**: round up with probability equal to
//! the fractional part. Round-to-nearest at INT8 granularity biases GNN
//! aggregations (many small same-sign terms all truncate the same way);
//! stochastic rounding is unbiased in expectation, which is what lets
//! INT8 gradients train at all. The randomness is **counter-based**,
//! keyed exactly like the neighbor sampler's RNG: the uniform draw for
//! one element is a pure function of `(seed, site, index)` through a
//! splitmix64 chain, never of how many draws happened before it — so
//! quantization is bitwise identical across worker-thread counts,
//! shard counts, and replay.
//!
//! Saturation provenance: a clamp to ±127 (stale/explicit scale) or a
//! non-finite input is the INT8 analogue of an f16 overflow. The
//! [`begin`]/[`take`]/[`isolated`] recorder below mirrors
//! [`crate::overflow`] so the tuner can gate quantized kernel plans on a
//! saturation-clean window the same way it gates f16 plans on an
//! overflow-clean one. Unlike the overflow hook it is always compiled
//! (no feature gate): the inactive cost is one `Cell` read per call,
//! plus one per flagged element. A quantization made once and reused
//! (the INT8 SpMM's operands) is recorded by [`credit`]ing its
//! [`isolated`] summary wherever the quantization is used.

use crate::splitmix64;
use std::cell::{Cell, RefCell};
use std::fmt;

/// Elements sharing one power-of-two scale — matches the f16 all-reduce
/// bucket so wire formats line up block-for-block.
pub const BLOCK: usize = 64;

/// Largest quantized magnitude. The symmetric range `[-127, 127]` keeps
/// negation exact and leaves `-128` unused.
pub const QMAX: i32 = 127;

/// The uniform draw in `[0, 1)` for element `index` of the stream keyed
/// `(seed, site)`. 24 mantissa-exact bits; the leading constant
/// domain-separates quantization from the sampler, which chains the same
/// words through a different prefix.
pub fn sr_uniform(seed: u64, site: u64, index: u64) -> f32 {
    uniform(stream_prefix(seed, site), index)
}

/// The `(seed, site)` links of [`sr_uniform`]'s chain, shared by every
/// index of one stream.
fn stream_prefix(seed: u64, site: u64) -> u64 {
    splitmix64(splitmix64(seed ^ 0x2545_f491_4f6c_dd1d) ^ site)
}

/// [`sr_uniform`] with the stream's prefix already chained.
#[inline(always)]
fn uniform(prefix: u64, index: u64) -> f32 {
    let s = splitmix64(prefix ^ index);
    ((s >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
}

/// Stable site key for a quantization call site (FNV-1a over the label),
/// the `site` word of [`sr_uniform`]'s key.
pub fn site_key(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The block's shared scale exponent: the smallest `e` with
/// `max_abs ≤ 127 · 2^e` (0 for an all-zero or non-finite block). With
/// this choice `|v · 2^-e| ≤ 127` for every in-block value, so clamping
/// can only fire on a stale or explicit scale.
///
/// Read from the bits: for `max_abs = (1 + t) · 2^p` with `t ∈ [0, 1)`,
/// `127 · 2^(p-6) = (2 − 1/64) · 2^p` covers it unless `t > 63/64`, which
/// needs `p − 5`, and `127 · 2^(p-7) < 2^p` never does. Widening to `f64`
/// first normalises `f32` subnormals.
pub fn block_exponent(max_abs: f32) -> i32 {
    if max_abs == 0.0 || !max_abs.is_finite() {
        return 0;
    }
    let bits = (max_abs as f64).to_bits();
    let p = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let t = bits & ((1 << 52) - 1);
    if t > 63 << 46 {
        p - 5
    } else {
        p - 6
    }
}

/// Stochastically round `v · 2^-e` to an INT8 code, drawing the round-up
/// coin from the `(seed, site, index)` stream. Clamps to `±QMAX` and
/// records saturation provenance when the scale cannot represent `v`.
pub fn quantize_sr(v: f32, e: i32, seed: u64, site: u64, index: u64) -> i8 {
    observe(1);
    round(v, (2.0f64).powi(-e), stream_prefix(seed, site), site, index)
}

/// The one stochastic-rounding body behind [`quantize_sr`] and
/// [`quantize_blocks`]: `v · down` (`down = 2^-e`) rounded down, plus one
/// when the coin `uniform(prefix, index)` falls below the fraction, then
/// clamped to `±QMAX`. A non-finite input or a clamp is recorded here, in
/// element order; callers count the quantized elements themselves.
#[inline(always)]
fn round(v: f32, down: f64, prefix: u64, site: u64, index: u64) -> i8 {
    if !v.is_finite() {
        record_event(site, index, v, true);
        return if v.is_nan() {
            0
        } else if v.is_sign_negative() {
            -QMAX as i8
        } else {
            QMAX as i8
        };
    }
    let scaled = v as f64 * down;
    let floor = floor(scaled);
    let u = uniform(prefix, index) as f64;
    let q = floor + if u < scaled - floor { 1.0 } else { 0.0 };
    if q > QMAX as f64 {
        record_event(site, index, v, false);
        QMAX as i8
    } else if q < -(QMAX as f64) {
        record_event(site, index, v, false);
        -QMAX as i8
    } else {
        q as i8
    }
}

/// `f64::floor` as [`round`] needs it, without the libm call that
/// `floor` is on baseline x86-64: truncate through `i64`, then step down
/// from a negative non-integer.
///
/// Below `2^63` in magnitude the truncation is exact (an `f64` that large
/// is already an integer) and so is the result. Beyond, and at ±Inf, the
/// cast saturates to ±2^63, so the result can differ from the true floor,
/// but both are ±2^63 or further out: `round` clamps either one to the
/// same ±127 code and records the same event. A NaN (`0 · Inf` under an
/// extreme exponent) gives 0 here and NaN from `floor`; either way the
/// coin's comparison with the NaN fails and `round` returns code 0 with
/// no event.
#[inline(always)]
fn floor(x: f64) -> f64 {
    let t = x as i64 as f64;
    if t > x {
        t - 1.0
    } else {
        t
    }
}

/// Exact dequantization: `q · 2^e` is a power-of-two scale of an
/// integer, representable exactly in f32 for every exponent the block
/// chooser emits.
pub fn dequantize(q: i8, e: i32) -> f32 {
    (q as f64 * (2.0f64).powi(e)) as f32
}

/// A slice quantized in [`BLOCK`]-element groups: 1-byte codes plus one
/// scale exponent per block. The exponents are scale metadata, exchanged
/// once per block alongside the payload exactly like the f16 all-reduce's
/// discretized bucket exponents — the ledger charges the 1 byte/element
/// payload, the dominant term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantizedBlocks {
    /// INT8 codes, one per input element.
    pub q: Vec<i8>,
    /// Per-block scale exponents (`len = ceil(q.len() / BLOCK)`).
    pub exps: Vec<i16>,
}

impl QuantizedBlocks {
    /// Dequantize every code back to f32.
    pub fn dequantize(&self) -> Vec<f32> {
        self.q
            .iter()
            .enumerate()
            .map(|(i, &q)| dequantize(q, self.exps[i / BLOCK] as i32))
            .collect()
    }
}

/// Quantize `vals` in [`BLOCK`]-element groups with per-block exponents.
/// Element `i` draws its rounding coin at stream index `base_index + i`,
/// so callers quantizing disjoint regions of one logical tensor get the
/// same codes whatever the work division.
pub fn quantize_blocks(vals: &[f32], seed: u64, site: u64, base_index: u64) -> QuantizedBlocks {
    let mut out = QuantizedBlocks {
        q: Vec::with_capacity(vals.len()),
        exps: Vec::with_capacity(vals.len().div_ceil(BLOCK)),
    };
    quantize_blocks_into(vals, seed, site, base_index, &mut out);
    out
}

/// [`quantize_blocks`] appending its codes and exponents to `out`. Each
/// element is [`quantize_sr`] at its block's exponent: the stream prefix
/// and the exponent bias are read once per call, `2^-e` is computed once
/// per block, and the window's count is added once per call.
pub fn quantize_blocks_into(
    vals: &[f32],
    seed: u64,
    site: u64,
    base_index: u64,
    out: &mut QuantizedBlocks,
) {
    let prefix = stream_prefix(seed, site);
    let bias = exponent_bias();
    observe(vals.len() as u64);
    for (bi, block) in vals.chunks(BLOCK).enumerate() {
        let max_abs = block.iter().fold(0f32, |m, v| m.max(v.abs()));
        let e = block_exponent(max_abs) + bias;
        out.exps.push(e as i16);
        let down = (2.0f64).powi(-e);
        let base = base_index + (bi * BLOCK) as u64;
        out.q.extend(
            block.iter().zip(base..).map(|(&v, index)| round(v, down, prefix, site, index)),
        );
    }
}

/// One saturation event: the INT8 analogue of an overflow event.
#[derive(Clone, Debug)]
pub struct SatEvent {
    /// The [`site_key`] of the quantization call site.
    pub site: u64,
    /// The element's stream index within that site.
    pub index: u64,
    /// The input value that could not be represented.
    pub input: f32,
    /// True when the input was already non-finite (propagation), false
    /// for a finite value clamped by a stale/explicit scale.
    pub nonfinite_input: bool,
}

impl fmt::Display for SatEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "INT8 {} at site {:#018x} (element #{}, input {:e})",
            if self.nonfinite_input { "non-finite input" } else { "saturation" },
            self.site,
            self.index,
            self.input
        )
    }
}

/// Counters for one saturation-tracking window ([`begin`] … [`take`]).
#[derive(Clone, Debug, Default)]
pub struct SatSummary {
    /// Total elements quantized in the window.
    pub quantized: u64,
    /// Finite inputs clamped to ±127 by a scale too small for them.
    pub saturated: u64,
    /// Non-finite inputs (INF/NaN) pinned to ±127/0.
    pub nonfinite_inputs: u64,
    /// The first flagged event — the genesis of any downstream damage.
    pub first: Option<SatEvent>,
}

impl SatSummary {
    /// Total flagged events of either kind.
    pub fn flagged(&self) -> u64 {
        self.saturated + self.nonfinite_inputs
    }

    /// True when every quantization in the window was representable.
    pub fn is_clean(&self) -> bool {
        self.first.is_none()
    }

    /// Fold a later window into this one: counts add, and the earlier
    /// window's first event is kept.
    pub fn merge(&mut self, later: SatSummary) {
        self.quantized += later.quantized;
        self.saturated += later.saturated;
        self.nonfinite_inputs += later.nonfinite_inputs;
        self.first = self.first.take().or(later.first);
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static WINDOW: RefCell<SatSummary> = RefCell::new(SatSummary::default());
    static EXP_BIAS: Cell<i32> = const { Cell::new(0) };
}

/// Stress knob: bias every exponent [`quantize_blocks`] chooses by this
/// amount on the current thread. A negative bias forces scales too small
/// for their blocks, making saturation reproducible on otherwise
/// well-conditioned data — the tuner tests use it to manufacture a
/// saturation-dirty candidate plan. Zero (the default) is a no-op.
pub fn set_exponent_bias(bias: i32) {
    EXP_BIAS.with(|b| b.set(bias));
}

/// The current thread's exponent bias (see [`set_exponent_bias`]).
pub fn exponent_bias() -> i32 {
    EXP_BIAS.with(|b| b.get())
}

/// Start a saturation-tracking window on this thread.
pub fn begin() {
    WINDOW.with(|w| *w.borrow_mut() = SatSummary::default());
    ACTIVE.with(|a| a.set(true));
}

/// Stop tracking and return the window's summary.
pub fn take() -> SatSummary {
    ACTIVE.with(|a| a.set(false));
    WINDOW.with(|w| std::mem::take(&mut *w.borrow_mut()))
}

/// True while a tracking window is open on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Run `f` in its own nested window, suspending (and afterwards
/// restoring, untouched) any outer window — the tuner's tool for vetting
/// quantized candidate plans mid-epoch without polluting the epoch's
/// saturation summary.
pub fn isolated<T>(f: impl FnOnce() -> T) -> (T, SatSummary) {
    let outer_active = ACTIVE.with(|a| a.get());
    let outer_window = WINDOW.with(|w| std::mem::take(&mut *w.borrow_mut()));
    begin();
    let out = f();
    let summary = take();
    WINDOW.with(|w| *w.borrow_mut() = outer_window);
    ACTIVE.with(|a| a.set(outer_active));
    (out, summary)
}

/// Merge `summary` into this thread's open window, exactly as if the
/// quantizations it counts ran again here: counts add, and the window's
/// earlier first event is kept. A no-op when no window is open.
pub fn credit(summary: &SatSummary) {
    if is_active() {
        WINDOW.with(|w| w.borrow_mut().merge(summary.clone()));
    }
}

fn observe(quantized: u64) {
    if !ACTIVE.with(|a| a.get()) {
        return;
    }
    WINDOW.with(|w| w.borrow_mut().quantized += quantized);
}

fn record_event(site: u64, index: u64, input: f32, nonfinite: bool) {
    if !ACTIVE.with(|a| a.get()) {
        return;
    }
    WINDOW.with(|w| {
        let mut s = w.borrow_mut();
        if nonfinite {
            s.nonfinite_inputs += 1;
        } else {
            s.saturated += 1;
        }
        if s.first.is_none() {
            s.first = Some(SatEvent { site, index, input, nonfinite_input: nonfinite });
        }
    });
}

/// CLT confidence half-width for the mean error of `n` stochastic
/// roundings at step `2^e = step`: per-element error is `(1-p)·step`
/// with probability `p` and `-p·step` otherwise (mean 0, variance
/// `p(1-p)·step² ≤ step²/4`), so the mean of `n` draws is within
/// `z · step / (2·√n)` of zero at `z` sigmas. The statistical test
/// harness for this and future lossy dtypes asserts against this band.
pub fn sr_mean_error_band(step: f64, n: usize, z: f64) -> f64 {
    z * step * 0.5 / (n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_exponent_is_minimal_and_sufficient() {
        for max in [1e-6f32, 0.5, 1.0, 127.0, 128.0, 65504.0, 1e30] {
            let e = block_exponent(max);
            assert!(QMAX as f64 * (2.0f64).powi(e) >= max as f64, "max={max} e={e}");
            assert!(QMAX as f64 * (2.0f64).powi(e - 1) < max as f64, "max={max} e={e} not minimal");
        }
        assert_eq!(block_exponent(0.0), 0);
        assert_eq!(block_exponent(f32::INFINITY), 0);
        assert_eq!(block_exponent(f32::NAN), 0);
    }

    /// `block_exponent`'s earlier body, kept as its reference: libm
    /// `log2` and `ceil`, then a search enforcing the bound and minimality.
    fn block_exponent_by_search(max_abs: f32) -> i32 {
        if max_abs == 0.0 || !max_abs.is_finite() {
            return 0;
        }
        let m = max_abs as f64;
        let mut e = (m / QMAX as f64).log2().ceil() as i32;
        while (QMAX as f64) * (2.0f64).powi(e) < m {
            e += 1;
        }
        while (QMAX as f64) * (2.0f64).powi(e - 1) >= m {
            e -= 1;
        }
        e
    }

    #[test]
    fn block_exponent_matches_the_search_on_boundaries_subnormals_and_a_sweep() {
        let check = |v: f32| {
            assert_eq!(block_exponent(v), block_exponent_by_search(v), "{v:e} ({:#x})", v.to_bits())
        };
        // Every normal exponent at both ends of its mantissa range and
        // around the 63/64 cut where the answer steps from p − 6 to p − 5.
        let cut = 63 << 17;
        for exp in 1..255u32 {
            for m in [0, 1, cut - 1, cut, cut + 1, (1 << 23) - 1] {
                check(f32::from_bits(exp << 23 | m));
            }
        }
        for m in 1..1u32 << 23 {
            check(f32::from_bits(m));
        }
        for b in (1..f32::INFINITY.to_bits()).step_by(997) {
            check(f32::from_bits(b));
        }
    }

    #[test]
    fn round_trip_error_is_below_one_step() {
        let vals: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.37).collect();
        let out = quantize_blocks(&vals, 7, site_key("test"), 0);
        for (i, (&v, d)) in vals.iter().zip(out.dequantize()).enumerate() {
            let step = (2.0f64).powi(out.exps[i / BLOCK] as i32);
            assert!(
                (d as f64 - v as f64).abs() < step,
                "[{i}] {v} -> {d} off by more than step {step}"
            );
        }
    }

    #[test]
    fn stream_is_a_pure_function_of_its_key() {
        let a = sr_uniform(1, 2, 3);
        let b = sr_uniform(1, 2, 3);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_ne!(sr_uniform(1, 2, 4).to_bits(), a.to_bits());
        assert_ne!(sr_uniform(1, 3, 3).to_bits(), a.to_bits());
        assert_ne!(sr_uniform(2, 2, 3).to_bits(), a.to_bits());
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn in_range_quantization_never_saturates() {
        begin();
        let vals: Vec<f32> = (0..1000).map(|i| ((i * 37) % 199) as f32 - 99.0).collect();
        let _ = quantize_blocks(&vals, 0, 0, 0);
        let s = take();
        assert_eq!(s.quantized, 1000);
        assert!(s.is_clean(), "{:?}", s.first);
    }

    #[test]
    fn stale_scale_saturates_and_is_recorded() {
        begin();
        // Explicit exponent 0: anything beyond ±127 clamps.
        let q = quantize_sr(300.0, 0, 0, 42, 9);
        let s = take();
        assert_eq!(q, QMAX as i8);
        assert_eq!(s.saturated, 1);
        let first = s.first.expect("event recorded");
        assert_eq!(first.site, 42);
        assert_eq!(first.index, 9);
        assert!(!first.nonfinite_input);
        assert!(!first.to_string().is_empty());
    }

    #[test]
    fn nonfinite_inputs_are_pinned_and_flagged() {
        begin();
        assert_eq!(quantize_sr(f32::INFINITY, 0, 0, 0, 0), QMAX as i8);
        assert_eq!(quantize_sr(f32::NEG_INFINITY, 0, 0, 0, 1), -QMAX as i8);
        assert_eq!(quantize_sr(f32::NAN, 0, 0, 0, 2), 0);
        let s = take();
        assert_eq!(s.nonfinite_inputs, 3);
        assert_eq!(s.saturated, 0);
        assert!(s.first.unwrap().nonfinite_input);
    }

    #[test]
    fn isolated_window_shields_the_outer_one() {
        begin();
        let _ = quantize_sr(1.0, 0, 0, 0, 0);
        let (_, inner) = isolated(|| quantize_sr(1e9, 0, 0, 0, 1));
        let _ = quantize_sr(2.0, 0, 0, 0, 2);
        let outer = take();
        assert_eq!(inner.saturated, 1);
        assert_eq!(outer.quantized, 2);
        assert!(outer.is_clean(), "inner saturation leaked out");
        assert!(!is_active());
    }

    #[test]
    fn exponent_bias_forces_saturation_on_clean_data() {
        let vals: Vec<f32> = (0..BLOCK).map(|i| i as f32 / BLOCK as f32).collect();
        let ((), clean) = isolated(|| {
            let out = quantize_blocks(&vals, 0, 0, 0);
            assert_eq!(out.q.len(), vals.len());
        });
        assert!(clean.is_clean());
        set_exponent_bias(-4);
        let ((), dirty) = isolated(|| {
            let _ = quantize_blocks(&vals, 0, 0, 0);
        });
        set_exponent_bias(0);
        assert!(dirty.saturated > 0, "biased scale should clamp");
        assert_eq!(exponent_bias(), 0);
    }

    #[test]
    fn merge_adds_counts_and_keeps_the_earliest_first_event() {
        let event = |site| SatEvent { site, index: 3, input: 1e9, nonfinite_input: false };
        let window = |quantized, saturated, first| SatSummary {
            quantized,
            saturated,
            nonfinite_inputs: 1,
            first,
        };
        let mut acc = SatSummary::default();
        acc.merge(window(64, 0, None));
        acc.merge(window(32, 2, Some(event(7))));
        acc.merge(window(16, 1, Some(event(9))));
        assert_eq!((acc.quantized, acc.saturated, acc.nonfinite_inputs), (112, 3, 3));
        assert_eq!(acc.first.map(|e| e.site), Some(7));
        // One window merged into an empty summary is that window.
        let mut one = SatSummary::default();
        one.merge(window(32, 2, Some(event(7))));
        assert_eq!(format!("{one:?}"), format!("{:?}", window(32, 2, Some(event(7)))));
    }

    #[test]
    fn inactive_thread_records_nothing() {
        let _ = quantize_sr(1e9, 0, 0, 0, 0);
        begin();
        let s = take();
        assert_eq!(s.quantized, 0);
        assert!(s.is_clean());
    }
}
