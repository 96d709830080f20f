//! The INT8 host path against its per-element definitions.
//!
//! * The packers: `quantize_features` and `halo_gather_i8` widen in bulk;
//!   their codes, exponents and saturation record must be those of the
//!   per-element widening (`Half::to_f32` into an `f32` buffer, then
//!   `quantize_blocks`), on every binary16 payload, signaling NaNs
//!   included, with `f32` records compared bit for bit.
//! * One quantization per op: an INT8 SpMM and SpMMve over 1–4 row
//!   windows read one `I8Operands`. Their pasted rows must be the full
//!   run's bits, and their record must be what quantizing the operands
//!   again in every window records, saturation included.

use halfgnn_graph::{gen, Csr, VertexId};
use halfgnn_half::quant::{self, isolated, quantize_blocks, set_exponent_bias, SatSummary};
use halfgnn_half::{splitmix64, Half, Scalar};
use halfgnn_kernels::common::{EdgeWeights, Tiling};
use halfgnn_kernels::dist::{halo_gather_i8, HALO_I8_SITE};
use halfgnn_kernels::quant_spmm::{
    quantize_edge_weights, quantize_features, spmm_i8, spmm_i8_window, I8Operands, SITE_X,
};
use halfgnn_sim::DeviceConfig;

const SEED: u64 = 0x1_2345;

/// Every binary16 payload once, in a keyed order, then `extra` more.
fn payloads(extra: usize) -> Vec<Half> {
    let mut s = 0x5EED;
    (0..=u16::MAX as u32)
        .map(|i| Half::from_bits((i.wrapping_mul(20_011) & 0xFFFF) as u16))
        .chain((0..extra).map(|_| {
            s = splitmix64(s);
            Half::from_bits(s as u16)
        }))
        .collect()
}

/// Finite halves of moderate magnitude.
fn features(len: usize, key: u64) -> Vec<Half> {
    let mut s = key;
    (0..len)
        .map(|_| {
            s = splitmix64(s);
            Half::from_f32(((s >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0)
        })
        .collect()
}

/// A summary as compared here: its `Debug` form plus the first input's
/// bits, which `Debug` prints as `NaN` for every NaN payload.
fn record(s: &SatSummary) -> String {
    format!("{s:?} input bits {:?}", s.first.as_ref().map(|e| e.input.to_bits()))
}

/// The per-element feature packer.
fn features_reference(x: &[Half], f: usize, seed: u64) -> quant::QuantizedBlocks {
    let site = quant::site_key(SITE_X);
    let mut out = quant::QuantizedBlocks { q: Vec::new(), exps: Vec::new() };
    for (r, row) in x.chunks_exact(f).enumerate() {
        let row: Vec<f32> = row.iter().map(|h| h.to_f32()).collect();
        let b = quantize_blocks(&row, seed, site, (r * f) as u64);
        out.q.extend(b.q);
        out.exps.extend(b.exps);
    }
    out
}

/// The per-element halo packer: the flat wire in `f32`, then one call.
fn halo_reference<T: Scalar>(x: &[T], f: usize, halo: &[VertexId]) -> quant::QuantizedBlocks {
    let pack: Vec<f32> = halo
        .iter()
        .flat_map(|&r| x[r as usize * f..(r as usize + 1) * f].iter().map(|v| v.to_f32()))
        .collect();
    quantize_blocks(&pack, SEED, quant::site_key(HALO_I8_SITE), 0)
}

#[test]
fn feature_packing_matches_per_element_widening_on_every_payload() {
    for f in [2usize, 6, 8, 64, 66, 130] {
        let x = payloads((f - 65_536 % f) % f);
        let (want, want_sat) = isolated(|| features_reference(&x, f, SEED));
        let (got, got_sat) = isolated(|| quantize_features(&x, f, SEED));
        assert_eq!(got, want, "f={f}");
        assert_eq!(record(&got_sat), record(&want_sat), "f={f}");
        assert!(want_sat.nonfinite_inputs > 0, "f={f}: payloads include Inf and NaN");
    }
}

#[test]
fn halo_packing_matches_per_element_widening_on_every_payload() {
    let dev = DeviceConfig::tiny();
    for f in [1usize, 6, 64, 100] {
        let x = payloads((f - 65_536 % f) % f);
        let rows = x.len() / f;
        let mut s = f as u64;
        // Repeats, reversals and enough rows to span several packs.
        let halo: Vec<VertexId> = (0..rows + rows / 3)
            .map(|_| {
                s = splitmix64(s);
                (s % rows as u64) as VertexId
            })
            .collect();
        let (want, want_sat) = isolated(|| halo_reference(&x, f, &halo));
        let ((got, _), got_sat) = isolated(|| halo_gather_i8(&dev, &x, f, &halo, SEED));
        assert_eq!(got, want, "f={f}");
        assert_eq!(record(&got_sat), record(&want_sat), "f={f}");

        let xf: Vec<f32> = x.iter().map(|h| h.to_f32()).collect();
        let (want, want_sat) = isolated(|| halo_reference(&xf, f, &halo));
        let ((got, _), got_sat) = isolated(|| halo_gather_i8(&dev, &xf, f, &halo, SEED));
        assert_eq!(got, want, "f32, f={f}");
        assert_eq!(record(&got_sat), record(&want_sat), "f32, f={f}");
    }
    let ((empty, _), sat) = isolated(|| halo_gather_i8(&dev, &features(8, 1), 4, &[], SEED));
    assert!(empty.q.is_empty() && empty.exps.is_empty() && sat.quantized == 0);
}

/// `shards` contiguous row windows covering `n` rows.
fn windows(n: usize, shards: usize) -> Vec<(usize, usize)> {
    (0..shards).map(|s| (s * n / shards, (s + 1) * n / shards)).collect()
}

/// The record of every window of one operand set, whose pasted rows must
/// be the full run's.
fn windowed_run(csr: &Csr, w: EdgeWeights<'_>, x: &[Half], f: usize, shards: usize) -> SatSummary {
    let dev = DeviceConfig::tiny();
    let t = Tiling { edges_per_warp: 4, warps_per_cta: 2 };
    let scale: Vec<Half> =
        (0..csr.num_rows()).map(|r| Half::from_f32(1.0 / (1 + r % 5) as f32)).collect();
    quant::begin();
    let operands = I8Operands::new(csr, w, x, f, SEED);
    let mut y = vec![Half::ZERO; csr.num_rows() * f];
    for (r0, r1) in windows(csr.num_rows(), shards) {
        let (part, _) = spmm_i8_window(&dev, csr, &operands, f, Some(&scale), t, (r0, r1));
        y[r0 * f..r1 * f].copy_from_slice(&part[r0 * f..r1 * f]);
    }
    let sat = quant::take();
    let (full, _) = spmm_i8(&dev, csr, w, x, f, Some(&scale), t, SEED);
    assert_eq!(
        y.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
        full.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
        "{shards} windows"
    );
    sat
}

#[test]
fn one_quantization_per_op_is_credited_to_every_window() {
    let n = 150;
    let csr = Csr::from_edges(n, n, &gen::erdos_renyi(n, 900, 5)).symmetrized_with_self_loops();
    let f = 70;
    let x = features(n * f, 2);
    let weights = features(csr.nnz(), 3);
    for bias in [0, -4] {
        set_exponent_bias(bias);
        // What one quantization of the operands records.
        let (_, once_v) = isolated(|| quantize_features(&x, f, SEED));
        let (_, once_ve) = isolated(|| {
            quantize_features(&x, f, SEED);
            quantize_edge_weights(&EdgeWeights::Values(&weights), csr.nnz(), SEED);
        });
        for shards in 1..=4 {
            for (label, w, once) in [
                ("SpMMv", EdgeWeights::Ones, &once_v),
                ("SpMMve", EdgeWeights::Values(&weights), &once_ve),
            ] {
                let sat = windowed_run(&csr, w, &x, f, shards);
                let per_op = (n * f + if w.is_ones() { 0 } else { csr.nnz() }) as u64;
                assert_eq!(sat.quantized, shards as u64 * per_op, "{label}, {shards} windows");
                let mut want = SatSummary::default();
                for _ in 0..shards {
                    want.merge(once.clone());
                }
                assert_eq!(record(&sat), record(&want), "{label}, {shards} windows, bias {bias}");
                if bias < 0 {
                    let first = sat.first.as_ref().expect("a −4 bias clamps");
                    let once_first = once.first.as_ref().unwrap();
                    assert_eq!((first.site, first.index), (once_first.site, once_first.index));
                }
            }
        }
    }
    set_exponent_bias(0);
}
