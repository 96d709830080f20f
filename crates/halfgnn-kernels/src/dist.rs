//! Distributed-training kernels: halo gather and the FP16 gradient
//! all-reduce with per-bucket discretized scaling.
//!
//! These are the two kernels the sharded trainer adds on top of the
//! single-device pipeline:
//!
//! * **Halo gather** — pack the remote feature rows a shard's local SpMM
//!   needs into a contiguous wire buffer. Packing is what makes an FP16
//!   halo exchange move exactly `|halo| · f · 2` bytes — the 2× comms win
//!   over FP32 that the interconnect ledger measures. Writes are
//!   assign-only (each packed slot has exactly one owner), reusing the
//!   §5.2.3 conflict-free write machinery: no atomics, and the
//!   [`halfgnn_sim::launch::find_assign_overlap`] debug validation applies.
//! * **FP16 all-reduce with discretized scaling** — the §5.2.2 idea moved
//!   from the SpMM reduction to the gradient wire format. A plain FP16
//!   all-reduce of `S` shard partials overflows exactly where hub-row
//!   gradients live; scaling each `bucket`-sized chunk by a shared
//!   power-of-two exponent chosen so `Σ_s |v_s| ≤ 1` makes the running
//!   half sum overflow-free *by construction*, and the power-of-two
//!   dequantization is exact.

use crate::common::count_nonfinite;
use crate::common::launch;
use halfgnn_graph::VertexId;
use halfgnn_half::intrinsics::hadd;
use halfgnn_half::{overflow, quant, Half, Scalar};
use halfgnn_sim::launch::{commit_all, LaunchParams, WriteList};
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{DeviceConfig, KernelStats};

/// Rows a halo-gather warp packs per iteration.
const ROWS_PER_WARP: usize = 8;
const WARPS_PER_CTA: usize = 4;
/// Wire elements the INT8 halo gather widens at a time: whole blocks.
const PACK: usize = 64 * quant::BLOCK;

/// Gather the feature rows named by `halo` (global vertex ids) from the
/// global tensor `x` (`num_vertices × f`) into a packed `|halo| × f` wire
/// buffer: `halo_gather_f16` for a half tensor, `halo_gather_f32` — the
/// payload the FP16 exchange halves — for a float one.
pub fn halo_gather<T: Scalar>(
    dev: &DeviceConfig,
    x: &[T],
    f: usize,
    halo: &[VertexId],
) -> (Vec<T>, KernelStats) {
    assert!(x.len().is_multiple_of(f.max(1)), "X shape mismatch");
    let bytes = T::BYTES;
    let n = halo.len();
    let rows_per_cta = ROWS_PER_WARP * WARPS_PER_CTA;
    let num_ctas = n.div_ceil(rows_per_cta).max(1);

    let mut space = AddrSpace::new();
    let idx_base = space.alloc(n, 4);
    let x_base = space.alloc(x.len(), bytes);
    let out_base = space.alloc(n * f, bytes);

    let (cta_outs, stats) = launch(
        dev,
        T::pick("halo_gather_f16", "halo_gather_f32"),
        LaunchParams { num_ctas, warps_per_cta: WARPS_PER_CTA },
        |cta| {
            let mut writes: WriteList<T> = WriteList::new();
            for wi in 0..WARPS_PER_CTA {
                let lo = (cta.id * WARPS_PER_CTA + wi) * ROWS_PER_WARP;
                let hi = (lo + ROWS_PER_WARP).min(n);
                if lo >= hi {
                    continue;
                }
                let mut warp = cta.warp(wi);
                warp.load_contiguous(idx_base + lo as u64 * 4, hi - lo, 4);
                // Scattered source rows, word (half2-cast) loads.
                warp.load_feature_rows(
                    (lo..hi).map(|i| x_base + halo[i] as u64 * (f * bytes) as u64),
                    f * bytes,
                    4,
                );
                // Packed destination: fully coalesced stores.
                let words = (hi - lo) * f * bytes / 4;
                warp.store_contiguous(out_base + (lo * f * bytes) as u64, words, 4);
                for (i, &src_row) in halo.iter().enumerate().take(hi).skip(lo) {
                    let src = src_row as usize * f;
                    let vals = x[src..src + f].to_vec();
                    warp.nonfinite_values(count_nonfinite(&vals));
                    writes.assign(i * f, vals);
                }
            }
            writes
        },
    );

    let mut out = vec![T::ZERO; n * f];
    commit_all(cta_outs, &mut out);
    (out, stats)
}

/// Per-bucket shared exponent: the smallest `e` with
/// `max_s |v_s| · num_shards ≤ 2^e`, so every quantized term is at most
/// `1/num_shards` in magnitude and the running FP16 sum stays ≤ 1.
fn bucket_exponent(max_abs: f32, num_shards: usize) -> i32 {
    if max_abs == 0.0 || !max_abs.is_finite() {
        return 0;
    }
    let bound = max_abs as f64 * num_shards as f64;
    let mut e = bound.log2().ceil() as i32;
    // log2/ceil rounding guard: enforce the bound exactly.
    while bound > (2.0f64).powi(e) {
        e += 1;
    }
    e
}

/// FP16 all-reduce of `S = partials.len()` shard gradient vectors with
/// per-bucket discretized scaling (§5.2.2 applied to the wire format).
///
/// For each `bucket`-sized chunk, all shards agree on the shared exponent
/// of [`bucket_exponent`]; each shard quantizes `v · 2^-e` to half (a
/// power-of-two scale — only the final f16 rounding loses bits), the wire
/// sum accumulates in half in shard order (deterministic, and bounded by 1
/// so it cannot overflow), and the result dequantizes by the exact
/// power-of-two `2^e`. Returns the reduced f32 vector.
pub fn allreduce_f16_discretized(
    dev: &DeviceConfig,
    partials: &[Vec<f32>],
    bucket: usize,
) -> (Vec<f32>, KernelStats) {
    assert!(!partials.is_empty(), "need at least one shard partial");
    assert!(bucket > 0, "bucket size must be positive");
    let n = partials[0].len();
    for p in partials {
        assert_eq!(p.len(), n, "shard partial length mismatch");
    }
    let _site = overflow::site("allreduce_f16");
    let num_shards = partials.len();

    let mut space = AddrSpace::new();
    let in_bases: Vec<u64> = partials.iter().map(|p| space.alloc(p.len(), 4)).collect();
    let wire_base = space.alloc(n, 2);
    let out_base = space.alloc(n, 4);

    let buckets = n.div_ceil(bucket).max(1);
    let num_ctas = buckets.div_ceil(WARPS_PER_CTA).max(1);

    let (cta_outs, stats) = launch(
        dev,
        "allreduce_f16_disc",
        LaunchParams { num_ctas, warps_per_cta: WARPS_PER_CTA },
        |cta| {
            let mut writes: WriteList<f32> = WriteList::new();
            for wi in 0..WARPS_PER_CTA {
                let bi = cta.id * WARPS_PER_CTA + wi;
                if bi >= buckets {
                    break;
                }
                let lo = bi * bucket;
                let hi = (lo + bucket).min(n);
                if lo >= hi {
                    continue;
                }
                let len = hi - lo;
                let chunks = (len as u64).div_ceil(32);
                let mut warp = cta.warp(wi);

                // Exponent scan: every shard's chunk is read once in f32.
                for base in &in_bases {
                    warp.load_contiguous(base + lo as u64 * 4, len, 4);
                }
                warp.float_ops(num_shards as u64 * chunks); // |v| max scan
                let max_abs = partials
                    .iter()
                    .flat_map(|p| p[lo..hi].iter())
                    .fold(0f32, |m, v| m.max(v.abs()));
                let e = bucket_exponent(max_abs, num_shards);
                let down = (2.0f64).powi(-e) as f32;
                let up = (2.0f64).powi(e) as f32;

                // Quantize + accumulate on the f16 wire, shard order.
                warp.convert_ops(num_shards as u64 * chunks); // f32→f16
                warp.half_ops((num_shards as u64 - 1) * chunks); // wire adds
                warp.store_contiguous(wire_base + lo as u64 * 2, len.div_ceil(2), 4);
                let mut acc = vec![Half::ZERO; len];
                for p in partials {
                    for (a, &v) in acc.iter_mut().zip(&p[lo..hi]) {
                        *a = hadd(*a, Half::from_f32(v * down));
                    }
                }
                warp.nonfinite_values(count_nonfinite(&acc));

                // Dequantize: exact power-of-two scale back to f32.
                warp.convert_ops(chunks);
                warp.store_contiguous(out_base + lo as u64 * 4, len, 4);
                writes.assign(lo, acc.iter().map(|h| h.to_f32() * up).collect());
            }
            writes
        },
    );

    let mut out = vec![0f32; n];
    commit_all(cta_outs, &mut out);
    (out, stats)
}

/// Quantization stream site for the INT8 halo wire.
pub const HALO_I8_SITE: &str = "halo_i8";
/// Quantization stream site for the INT8 gradient all-reduce wire.
pub const ALLREDUCE_I8_SITE: &str = "allreduce_i8";

/// [`halo_gather`] with an INT8 wire: the packed rows are quantized
/// host-side into [`quant::BLOCK`]-element scale blocks over the *flat
/// wire buffer* (blocks may straddle rows — this is a wire format, not a
/// tensor layout), stochastically rounded as a pure function of
/// `(seed, site, flat wire index)`. The payload is 1 byte/element —
/// half the f16 wire, a quarter of float. A receiver that reads the codes
/// dequantizes them to f32 ([`quant::QuantizedBlocks::dequantize`], exact
/// power-of-two scales), never back through f16: a code at +127 under a
/// large exponent could overflow binary16 where the source value did not.
pub fn halo_gather_i8<T: Scalar>(
    dev: &DeviceConfig,
    x: &[T],
    f: usize,
    halo: &[VertexId],
    seed: u64,
) -> (quant::QuantizedBlocks, KernelStats) {
    assert!(x.len().is_multiple_of(f.max(1)), "X shape mismatch");
    let n = halo.len();
    let rows_per_cta = ROWS_PER_WARP * WARPS_PER_CTA;
    let num_ctas = n.div_ceil(rows_per_cta).max(1);

    // Host-side pure pre-quantization of the packed wire buffer — on the
    // caller's thread, so the saturation window sees every element. The
    // rows are packed and quantized `PACK` elements at a time; each pack
    // starts on a block boundary of the flat wire, so its blocks are the
    // wire's.
    let site = quant::site_key(HALO_I8_SITE);
    let total = n * f;
    let mut wire = quant::QuantizedBlocks {
        q: Vec::with_capacity(total),
        exps: Vec::with_capacity(total.div_ceil(quant::BLOCK)),
    };
    let mut pack = vec![0f32; PACK.min(total)];
    for start in (0..total).step_by(PACK) {
        let end = (start + PACK).min(total);
        let mut i = start;
        while i < end {
            let (row, col) = (i / f, i % f);
            let len = (f - col).min(end - i);
            let src = halo[row] as usize * f + col;
            T::widen_into(&x[src..src + len], &mut pack[i - start..i - start + len]);
            i += len;
        }
        quant::quantize_blocks_into(&pack[..end - start], seed, site, start as u64, &mut wire);
    }

    let mut space = AddrSpace::new();
    let idx_base = space.alloc(n, 4);
    let x_base = space.alloc(x.len(), T::BYTES);
    let out_base = space.alloc(n * f, 1);

    let (cta_outs, stats) = launch(
        dev,
        "halo_gather_i8",
        LaunchParams { num_ctas, warps_per_cta: WARPS_PER_CTA },
        |cta| {
            let mut writes: WriteList<i8> = WriteList::new();
            for wi in 0..WARPS_PER_CTA {
                let lo = (cta.id * WARPS_PER_CTA + wi) * ROWS_PER_WARP;
                let hi = (lo + ROWS_PER_WARP).min(n);
                if lo >= hi {
                    continue;
                }
                let mut warp = cta.warp(wi);
                warp.load_contiguous(idx_base + lo as u64 * 4, hi - lo, 4);
                // Scattered source rows, word (half2-cast) loads.
                warp.load_feature_rows(
                    (lo..hi).map(|i| x_base + halo[i] as u64 * (f * T::BYTES) as u64),
                    f * T::BYTES,
                    4,
                );
                // Quantize to i8 codes, then fully coalesced 1-byte
                // stores packed four to a word.
                warp.convert_ops((((hi - lo) * f) as u64).div_ceil(32).max(1));
                warp.store_contiguous(out_base + (lo * f) as u64, ((hi - lo) * f).div_ceil(4), 4);
                for i in lo..hi {
                    writes.assign(i * f, wire.q[i * f..(i + 1) * f].to_vec());
                }
            }
            writes
        },
    );

    let mut codes = vec![0i8; n * f];
    commit_all(cta_outs, &mut codes);
    debug_assert_eq!(codes, wire.q);
    (wire, stats)
}

/// INT8 all-reduce of `S = partials.len()` shard gradient vectors with
/// per-bucket shared scales and stochastic rounding — the precision rung
/// below [`allreduce_f16_discretized`], at 1 byte/element on the wire.
///
/// For each `bucket`-sized chunk all shards agree on the exponent of
/// [`quant::block_exponent`] over the *joint* max magnitude, so every
/// quantized code is in `[-127, 127]` and saturation is impossible by
/// construction. Each shard rounds stochastically (coin keyed
/// `(seed, site, s·n + i)` — bitwise-reproducible across thread and
/// shard counts), the wire sum accumulates **exactly** in `i32`
/// (`|Σ| ≤ S·127` — no rounding at all on the wire, unlike the f16
/// version's half adds), and the result dequantizes by the exact
/// power-of-two `2^e`. The absolute error per element is bounded by
/// `S · 2^e` deterministically, and is unbiased in expectation.
///
/// The rounding runs host-side on the caller's thread, in bucket → shard
/// → element order, before the launch: the saturation window sees every
/// code whatever the worker-thread count.
pub fn allreduce_i8_stochastic(
    dev: &DeviceConfig,
    partials: &[Vec<f32>],
    bucket: usize,
    seed: u64,
) -> (Vec<f32>, KernelStats) {
    assert!(!partials.is_empty(), "need at least one shard partial");
    assert!(bucket > 0, "bucket size must be positive");
    let n = partials[0].len();
    for p in partials {
        assert_eq!(p.len(), n, "shard partial length mismatch");
    }
    let num_shards = partials.len();
    let site = quant::site_key(ALLREDUCE_I8_SITE);

    let mut space = AddrSpace::new();
    let in_bases: Vec<u64> = partials.iter().map(|p| space.alloc(p.len(), 4)).collect();
    let wire_base = space.alloc(n, 1);
    let out_base = space.alloc(n, 4);

    let buckets = n.div_ceil(bucket).max(1);
    let num_ctas = buckets.div_ceil(WARPS_PER_CTA).max(1);

    // Per bucket: the joint exponent, then every shard's codes, in the
    // order sequential CTAs would round them.
    let mut exps = Vec::with_capacity(buckets);
    let mut codes = vec![0i8; num_shards * n];
    for lo in (0..n).step_by(bucket) {
        let hi = (lo + bucket).min(n);
        let max_abs =
            partials.iter().flat_map(|p| p[lo..hi].iter()).fold(0f32, |m, v| m.max(v.abs()));
        let e = quant::block_exponent(max_abs);
        exps.push(e);
        for (s, p) in partials.iter().enumerate() {
            for (i, &v) in (lo..hi).zip(&p[lo..hi]) {
                codes[s * n + i] = quant::quantize_sr(v, e, seed, site, (s * n + i) as u64);
            }
        }
    }

    let (cta_outs, stats) = launch(
        dev,
        "allreduce_i8_sr",
        LaunchParams { num_ctas, warps_per_cta: WARPS_PER_CTA },
        |cta| {
            let mut writes: WriteList<f32> = WriteList::new();
            for wi in 0..WARPS_PER_CTA {
                let bi = cta.id * WARPS_PER_CTA + wi;
                if bi >= buckets {
                    break;
                }
                let lo = bi * bucket;
                let hi = (lo + bucket).min(n);
                if lo >= hi {
                    continue;
                }
                let len = hi - lo;
                let chunks = (len as u64).div_ceil(32);
                let mut warp = cta.warp(wi);

                // Exponent scan: every shard's chunk is read once in f32.
                for base in &in_bases {
                    warp.load_contiguous(base + lo as u64 * 4, len, 4);
                }
                warp.float_ops(num_shards as u64 * chunks); // |v| max scan
                let up = (2.0f64).powi(exps[bi]);

                // Stochastic quantize + exact i32 accumulation on the
                // 1-byte wire, shard order.
                warp.convert_ops(num_shards as u64 * chunks); // f32→i8 SR
                warp.float_ops((num_shards as u64 - 1) * chunks); // wire adds
                warp.store_contiguous(wire_base + lo as u64, len.div_ceil(4), 4);
                let mut acc = vec![0i32; len];
                for shard_codes in codes.chunks_exact(n) {
                    for (a, &q) in acc.iter_mut().zip(&shard_codes[lo..hi]) {
                        *a += q as i32;
                    }
                }

                // Dequantize: exact power-of-two scale back to f32.
                warp.convert_ops(chunks);
                warp.store_contiguous(out_base + lo as u64 * 4, len, 4);
                writes.assign(lo, acc.iter().map(|&q| (q as f64 * up) as f32).collect());
            }
            writes
        },
    );

    let mut out = vec![0f32; n];
    commit_all(cta_outs, &mut out);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_half::slice::f32_slice_to_half;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dev() -> DeviceConfig {
        DeviceConfig::a100_like()
    }

    fn random_f32(n: usize, scale: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
    }

    #[test]
    fn halo_gather_packs_the_named_rows() {
        let f = 4;
        let xf = random_f32(20 * f, 1.0, 1);
        let xh = f32_slice_to_half(&xf);
        let halo: Vec<u32> = vec![3, 7, 7, 19, 0];
        let (gh, sh) = halo_gather(&dev(), &xh, f, &halo);
        let (gf, _) = halo_gather(&dev(), &xf, f, &halo);
        for (i, &v) in halo.iter().enumerate() {
            assert_eq!(&gh[i * f..(i + 1) * f], &xh[v as usize * f..(v as usize + 1) * f]);
            assert_eq!(&gf[i * f..(i + 1) * f], &xf[v as usize * f..(v as usize + 1) * f]);
        }
        assert!(sh.cycles > 0.0);
    }

    #[test]
    fn halo_gather_empty_is_fine() {
        let (g, _) = halo_gather(&dev(), &f32_slice_to_half(&random_f32(8, 1.0, 2)), 2, &[]);
        assert!(g.is_empty());
    }

    #[test]
    fn halo_gather_fast_matches_sim_bitwise() {
        let f = 8;
        let x = f32_slice_to_half(&random_f32(100 * f, 1.0, 3));
        let halo: Vec<u32> = (0..100).filter(|v| v % 3 == 0).collect();
        let (sim, _) = halo_gather(&dev(), &x, f, &halo);
        let (fast, fs) = halo_gather(&dev().fast(), &x, f, &halo);
        assert_eq!(
            sim.iter().map(|h| h.to_bits()).collect::<Vec<u16>>(),
            fast.iter().map(|h| h.to_bits()).collect::<Vec<u16>>()
        );
        assert_eq!(fs.cycles, 0.0);
    }

    #[test]
    fn bucket_exponent_bounds_the_scaled_sum() {
        for (max, s) in [(1.0f32, 2usize), (100.0, 4), (65504.0, 8), (1e-6, 2), (0.75, 3)] {
            let e = bucket_exponent(max, s);
            assert!(max as f64 * s as f64 <= (2.0f64).powi(e), "max={max} s={s} e={e}");
        }
        assert_eq!(bucket_exponent(0.0, 4), 0);
    }

    #[test]
    fn allreduce_matches_f64_sum_within_f16_rounding() {
        let n = 500;
        let shards: Vec<Vec<f32>> = (0..4).map(|s| random_f32(n, 2.0, 10 + s)).collect();
        let (got, stats) = allreduce_f16_discretized(&dev(), &shards, 64);
        for i in 0..n {
            let want: f64 = shards.iter().map(|p| p[i] as f64).sum();
            // One shared exponent per 64-bucket: a few half ulps of error
            // at the bucket's max magnitude.
            assert!(
                (got[i] as f64 - want).abs() <= 0.05 + 0.01 * want.abs(),
                "[{i}] got {} want {want}",
                got[i]
            );
        }
        assert!(stats.totals.convert_ops > 0, "quantization must be charged");
    }

    #[test]
    fn allreduce_cannot_overflow_on_hub_gradients() {
        // Each shard contributes near-f16-max values of one sign: a naive
        // f16 wire sum would hit INF at the second shard. The discretized
        // exponent keeps every partial sum ≤ 1 on the wire.
        let n = 128;
        let shards: Vec<Vec<f32>> = (0..8).map(|_| vec![60000.0f32; n]).collect();
        let ((got, _), summary) =
            overflow::isolated(|| allreduce_f16_discretized(&dev(), &shards, 64));
        assert!(summary.is_clean(), "{} overflow events on the wire", summary.nonfinite());
        for &v in &got {
            assert!(v.is_finite());
            assert!((v - 480000.0).abs() / 480000.0 < 1e-2, "got {v}");
        }
    }

    #[test]
    fn allreduce_single_shard_is_pure_quantization() {
        let p = vec![random_f32(100, 4.0, 20)];
        let (got, _) = allreduce_f16_discretized(&dev(), &p, 32);
        for (g, v) in got.iter().zip(&p[0]) {
            assert!((g - v).abs() <= 0.01 * v.abs().max(0.05), "{g} vs {v}");
        }
    }

    #[test]
    fn i8_halo_gather_round_trips_within_one_step() {
        let f = 4;
        let xf = random_f32(20 * f, 1.0, 4);
        let xh = f32_slice_to_half(&xf);
        let halo: Vec<u32> = vec![3, 7, 7, 19, 0];
        let ((wire, _), summary) =
            halfgnn_half::quant::isolated(|| halo_gather_i8(&dev(), &xh, f, &halo, 5));
        assert_eq!(summary.quantized, (halo.len() * f) as u64);
        assert!(summary.is_clean(), "{:?}", summary.first);
        let got = wire.dequantize();
        for (i, &v) in halo.iter().enumerate() {
            for j in 0..f {
                let want = xh[v as usize * f + j].to_f64();
                let step = (2.0f64).powi(wire.exps[(i * f + j) / quant::BLOCK] as i32);
                assert!(
                    (got[i * f + j] as f64 - want).abs() < step,
                    "row {i} col {j}: {} vs {want}",
                    got[i * f + j]
                );
            }
        }
    }

    #[test]
    fn i8_allreduce_error_is_bounded_by_shards_times_step() {
        let n = 500;
        let shards: Vec<Vec<f32>> = (0..4).map(|s| random_f32(n, 2.0, 40 + s)).collect();
        let (got, stats) = allreduce_i8_stochastic(&dev(), &shards, 64, 9);
        for i in 0..n {
            let want: f64 = shards.iter().map(|p| p[i] as f64).sum();
            let bi = i / 64;
            let lo = bi * 64;
            let hi = (lo + 64).min(n);
            let max_abs =
                shards.iter().flat_map(|p| p[lo..hi].iter()).fold(0f32, |m, v| m.max(v.abs()));
            let step = (2.0f64).powi(quant::block_exponent(max_abs));
            assert!(
                (got[i] as f64 - want).abs() <= shards.len() as f64 * step,
                "[{i}] got {} want {want} step {step}",
                got[i]
            );
        }
        assert!(stats.totals.convert_ops > 0, "quantization must be charged");
    }

    #[test]
    fn i8_allreduce_cannot_saturate_by_construction() {
        // The joint-max exponent keeps every scaled magnitude ≤ 127, so
        // even adversarial hub gradients produce zero saturation events.
        let n = 128;
        let shards: Vec<Vec<f32>> = (0..8).map(|_| vec![60000.0f32; n]).collect();
        let ((got, _), summary) =
            halfgnn_half::quant::isolated(|| allreduce_i8_stochastic(&dev(), &shards, 64, 1));
        assert!(summary.is_clean(), "{} saturation events", summary.flagged());
        for &v in &got {
            assert!(v.is_finite());
            assert!((v - 480000.0).abs() / 480000.0 < 7e-2, "got {v}");
        }
    }

    #[test]
    fn i8_allreduce_fast_matches_sim_bitwise() {
        let shards: Vec<Vec<f32>> = (0..4).map(|s| random_f32(300, 2.0, 50 + s)).collect();
        let (sim, _) = allreduce_i8_stochastic(&dev(), &shards, 64, 2);
        let (fast, fs) = allreduce_i8_stochastic(&dev().fast(), &shards, 64, 2);
        assert_eq!(
            sim.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            fast.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );
        assert_eq!(fs.cycles, 0.0);
    }

    #[test]
    fn allreduce_fast_matches_sim_bitwise() {
        let shards: Vec<Vec<f32>> = (0..4).map(|s| random_f32(300, 2.0, 30 + s)).collect();
        let (sim, _) = allreduce_f16_discretized(&dev(), &shards, 64);
        let (fast, fs) = allreduce_f16_discretized(&dev().fast(), &shards, 64);
        assert_eq!(
            sim.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            fast.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );
        assert_eq!(fs.cycles, 0.0);
    }
}
