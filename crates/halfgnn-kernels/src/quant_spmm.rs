//! **INT8 quantized SpMM** — the precision rung below the half2 kernels
//! (ROADMAP item 2; Tango shows GNN training survives INT8 with
//! stochastic rounding and per-tile scales).
//!
//! Layout is the vertex-parallel neighbor-group design of
//! [`crate::halfgnn_spmm::spmm_vertex_parallel_window`] (per-row groups of
//! ≤ `tiling.edges_per_warp` neighbors, staged merge only for rows wider
//! than one group), with the operands quantized to INT8 **host-side as a
//! pure function of `(seed, site, index)`**:
//!
//! * `X` is quantized per row in [`quant::BLOCK`]-element scale blocks
//!   (stream index = flat element index `r·f + j`).
//! * Edge weights are quantized over the global edge array in
//!   [`quant::BLOCK`]-element blocks (stream index = edge id). `SpMMv`
//!   (all-ones weights) skips weight quantization entirely — the codes
//!   would be exact.
//!
//! Both are quantized once per sparse op into [`I8Operands`], which every
//! window of a sharded launch reads. Each window credits the operands'
//! saturation record to the caller's window, so the record is what
//! quantizing the full operands again in every window would make.
//!
//! Inside a group the kernel models DP4A accumulation: the `i8 × i8`
//! products are exact in `i32`; each product joins an f32 accumulator
//! scaled by its two block exponents (`2^(e_w + e_x)`, a power-of-two —
//! the dequantization is exact, only the f32 additions round). At group
//! end the partial is degree-scaled (discretized placement, §5.2.2) and
//! rounded once into f16 through [`Half::from_f32`], so overflow
//! provenance hooks into the same choke point as every other kernel.
//!
//! The modeled memory win over f16: feature rows and edge weights move
//! 1 byte/element instead of 2, halving the dominant traffic term again.

use crate::common::{count_nonfinite, EdgeWeights, Tiling};
use crate::common::{launch, neighbor_groups, resolve_staged};
use halfgnn_graph::Csr;
use halfgnn_half::slice::convert_half_to_f32_into;
use halfgnn_half::{overflow, quant, Half};
use halfgnn_sim::launch::{LaunchParams, WriteList};
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{DeviceConfig, KernelStats};

/// Quantization stream site for the feature operand.
pub const SITE_X: &str = "spmm_i8.x";
/// Quantization stream site for the edge-weight operand.
pub const SITE_W: &str = "spmm_i8.w";

/// Exponents per feature row of width `f`.
pub fn exps_per_row(f: usize) -> usize {
    f.div_ceil(quant::BLOCK)
}

/// Quantize a half feature matrix row-by-row: blocks never straddle rows,
/// and element `(r, j)` draws its rounding coin at stream index `r·f + j`
/// regardless of how the matrix is windowed.
pub fn quantize_features(x: &[Half], f: usize, seed: u64) -> quant::QuantizedBlocks {
    let site = quant::site_key(SITE_X);
    let rows = x.len() / f;
    let mut out = quant::QuantizedBlocks {
        q: Vec::with_capacity(x.len()),
        exps: Vec::with_capacity(rows * exps_per_row(f)),
    };
    let mut row_f32 = vec![0f32; f];
    for (r, row) in x.chunks_exact(f).enumerate() {
        convert_half_to_f32_into(row, &mut row_f32);
        quant::quantize_blocks_into(&row_f32, seed, site, (r * f) as u64, &mut out);
    }
    out
}

/// Quantize the global edge-weight array (stream index = edge id).
pub fn quantize_edge_weights(w: &EdgeWeights<'_>, nnz: usize, seed: u64) -> quant::QuantizedBlocks {
    let vals: Vec<f32> = (0..nnz).map(|e| w.get(e).to_f32()).collect();
    quant::quantize_blocks(&vals, seed, quant::site_key(SITE_W), 0)
}

/// One sparse op's INT8 operands: the feature codes, the edge-weight
/// codes (SpMMve only), and the saturation record that quantizing them
/// made. Built once per op, on the caller's thread and in an
/// [`quant::isolated`] window; every [`spmm_i8_window`] of the op reads
/// the same codes and credits that record to the caller's window.
pub struct I8Operands {
    x: quant::QuantizedBlocks,
    w: Option<quant::QuantizedBlocks>,
    sat: quant::SatSummary,
}

impl I8Operands {
    /// Quantize `x` (`num_cols × f`) and, unless they are all ones, the
    /// edge weights `w`, keyed by `seed`.
    pub fn new(csr: &Csr, w: EdgeWeights<'_>, x: &[Half], f: usize, seed: u64) -> I8Operands {
        assert_eq!(x.len(), csr.num_cols() * f, "X shape mismatch");
        let ((x, w), sat) = quant::isolated(|| {
            let qx = quantize_features(x, f, seed);
            (qx, (!w.is_ones()).then(|| quantize_edge_weights(&w, csr.nnz(), seed)))
        });
        I8Operands { x, w, sat }
    }
}

/// `Y ← A_w · X` through the INT8 path, full row range.
#[allow(clippy::too_many_arguments)]
pub fn spmm_i8(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    tiling: Tiling,
    seed: u64,
) -> (Vec<Half>, KernelStats) {
    let operands = I8Operands::new(csr, w, x, f, seed);
    spmm_i8_window(dev, csr, &operands, f, row_scale, tiling, (0, csr.num_rows()))
}

/// [`spmm_i8`] over `operands`, restricted to the global row window
/// `[r0, r1)`. Neighbor groups are per-row independent and quantization
/// streams are keyed by global indices, so window rows are bit-identical
/// to the full run.
pub fn spmm_i8_window(
    dev: &DeviceConfig,
    csr: &Csr,
    operands: &I8Operands,
    f: usize,
    row_scale: Option<&[Half]>,
    tiling: Tiling,
    row_window: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    let I8Operands { x: qx, w: qw, sat } = operands;
    assert_eq!(qx.q.len(), csr.num_cols() * f, "X shape mismatch");
    assert!(f.is_multiple_of(2), "feature length must be half2-padded");
    let (r0, r1) = row_window;
    assert!(r0 <= r1 && r1 <= csr.num_rows(), "bad row window {row_window:?}");
    let _site = overflow::site("spmm_i8");
    let group = tiling.edges_per_warp.max(1);
    let warps_per_cta = tiling.warps_per_cta.max(1);
    let n = csr.num_rows();
    let epr = exps_per_row(f);
    quant::credit(sat);

    let groups = neighbor_groups(csr, row_window, group);
    let num_ctas = groups.len().div_ceil(warps_per_cta).max(1);

    let mut space = AddrSpace::new();
    let cols_base = space.alloc(csr.nnz(), 4);
    let w_base = space.alloc(csr.nnz(), 1);
    let x_base = space.alloc(qx.q.len(), 1);
    let y_base = space.alloc(n * f, 2);
    let stage_base = space.alloc(groups.len() * (f + 2), 2);

    let scale_of = |r: u32| -> Half { row_scale.map_or(Half::ONE, |s| s[r as usize]) };
    let exp2 = |e: i32| -> f32 { (2.0f32).powi(e) };

    let (ctas, main_stats) = launch(
        dev,
        if qw.is_none() { "spmm_i8v" } else { "spmm_i8ve" },
        LaunchParams { num_ctas, warps_per_cta },
        |cta| {
            let cta_id = cta.id;
            let mut writes = WriteList::new();
            let mut staged = Vec::new();
            for wi in 0..warps_per_cta {
                let gi = cta_id * warps_per_cta + wi;
                let Some(&(row, off, len)) = groups.get(gi) else { break };
                let mut warp = cta.warp(wi);
                warp.load_contiguous(cols_base + off as u64 * 4, len, 4);
                if qw.is_some() {
                    // 1-byte weight codes fetched as 4-byte words.
                    warp.load_contiguous(w_base + off as u64, len.div_ceil(4), 4);
                }
                let cols = &csr.cols()[off..off + len];
                // 1 byte/element feature rows — half the f16 kernel's
                // dominant traffic term.
                warp.load_feature_rows(cols.iter().map(|&c| x_base + c as u64 * f as u64), f, 4);
                // DP4A proxy: four 8-bit MACs per lane-op.
                warp.half2_ops(((len * f) as u64 / 4).div_ceil(32));

                let mut acc = vec![0f32; f];
                for (k, &c) in cols.iter().enumerate() {
                    let e_idx = off + k;
                    let (qwv, ewv) = match qw {
                        Some(qw) => (qw.q[e_idx] as i32, qw.exps[e_idx / quant::BLOCK] as i32),
                        None => (1, 0),
                    };
                    let xrow = &qx.q[c as usize * f..(c as usize + 1) * f];
                    let xexp = &qx.exps[c as usize * epr..(c as usize + 1) * epr];
                    // The scale is constant over each block: one `exp2`
                    // per (edge, block) leaves a plain multiply-add that
                    // the compiler can vectorise.
                    let blocks = acc.chunks_mut(quant::BLOCK).zip(xrow.chunks(quant::BLOCK));
                    for ((ab, xb), &xe) in blocks.zip(xexp) {
                        let scale = exp2(ewv + xe as i32);
                        for (a, &qxv) in ab.iter_mut().zip(xb) {
                            let prod = qwv * qxv as i32;
                            *a += prod as f32 * scale;
                        }
                    }
                }
                // Discretized scaling + one rounding into f16 per group,
                // through the overflow-instrumented choke point.
                let sc = scale_of(row).to_f32();
                let out: Vec<Half> = acc.iter().map(|&v| Half::from_f32(v * sc)).collect();
                warp.convert_ops(f as u64);
                warp.nonfinite_values(count_nonfinite(&out));
                if csr.degree(row) as usize <= group {
                    warp.store_contiguous(y_base + row as u64 * (f as u64 * 2), f / 2, 4);
                    writes.assign(row as usize * f, out);
                } else {
                    warp.store_contiguous(stage_base + gi as u64 * (f as u64 + 2), f / 2 + 1, 4);
                    staged.push((row, out));
                }
            }
            (writes, staged)
        },
    );

    resolve_staged(dev, "spmm_i8_followup", ctas, (n, f), (stage_base, y_base), main_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn chain_csr(n: usize) -> Csr {
        // r -> r and r -> r+1 edges: every row degree ≤ 2.
        let mut edges = Vec::new();
        for r in 0..n as u32 {
            edges.push((r, r));
            if ((r + 1) as usize) < n {
                edges.push((r, r + 1));
            }
        }
        Csr::from_edges(n, n, &edges)
    }

    fn features(n: usize, f: usize) -> Vec<Half> {
        (0..n * f).map(|i| Half::from_f32(((i * 37) % 19) as f32 * 0.11 - 1.0)).collect()
    }

    #[test]
    fn i8_spmm_tracks_the_f64_reference() {
        let csr = chain_csr(24);
        let f = 8;
        let x = features(24, f);
        let (y, _) = spmm_i8(
            &DeviceConfig::tiny(),
            &csr,
            EdgeWeights::Ones,
            &x,
            f,
            None,
            Tiling::default(),
            7,
        );
        let coo = csr.to_coo();
        let wf: Vec<f64> = vec![1.0; coo.nnz()];
        let want = {
            let xf = reference::half_to_f64(&x);
            let mut y = vec![0f64; 24 * f];
            for (e, &we) in wf.iter().enumerate() {
                let (r, c) = coo.edge(e);
                for j in 0..f {
                    y[r as usize * f + j] += we * xf[c as usize * f + j];
                }
            }
            y
        };
        for (i, (&g, &w)) in y.iter().zip(&want).enumerate() {
            assert!(reference::close(g.to_f64(), w, 5e-2, 5e-2), "[{i}] got {g} want {w}");
        }
    }

    #[test]
    fn windows_are_bitwise_slices_of_the_full_run() {
        let csr = chain_csr(33);
        let f = 6;
        let x = features(33, f);
        let t = Tiling::default();
        let (full, _) = spmm_i8(&DeviceConfig::tiny(), &csr, EdgeWeights::Ones, &x, f, None, t, 3);
        let operands = I8Operands::new(&csr, EdgeWeights::Ones, &x, f, 3);
        let window = |w| spmm_i8_window(&DeviceConfig::tiny(), &csr, &operands, f, None, t, w).0;
        let (lo, hi) = (window((0, 17)), window((17, 33)));
        for r in 0..33 {
            let src = if r < 17 { &lo } else { &hi };
            for j in 0..f {
                assert_eq!(full[r * f + j].to_bits(), src[r * f + j].to_bits(), "row {r} col {j}");
            }
        }
    }

    #[test]
    fn quantization_is_a_pure_function_of_the_seed() {
        let x = features(8, 4);
        let a = quantize_features(&x, 4, 11);
        let b = quantize_features(&x, 4, 11);
        assert_eq!(a, b);
        let c = quantize_features(&x, 4, 12);
        assert_ne!(a, c, "seed must steer the rounding coins");
    }
}
