//! **Fused half-native GAT attention** (§5.3 + §4.3 combined): the whole
//! SDDMM-score → edge-softmax → SpMM chain in one row-parallel pass.
//!
//! The unfused GAT forward runs five edge-level kernels
//! (`src_dst_add_leakyrelu` → `edge_reduce(Max)` → `sub_row_exp` →
//! `edge_reduce(Sum)` → `div_row`) before the `spmmve` aggregation, each
//! round-tripping a full |E|-length half buffer through DRAM. The fused
//! kernel keeps the per-edge score, the shifted exponent and the
//! normalized weight in registers for the row a warp owns, so the only
//! edge-length buffers it touches are the two the layer *state* needs for
//! backward (`e` and `alpha`); the shifted-exp scratch, the row-max `m`
//! and the row-sum `z` are never materialized.
//!
//! Safety relies on the shadow-API contract (§5.3): the exp argument is
//! `e_ij − m_i ≤ 0` by construction, so `exp(·) ∈ (0, 1]` and the pure
//! half `hexp` cannot overflow — no AMP float promotion, no guard. The
//! aggregation is a convex combination (`Σ_j α_ij = 1`, each `α ∈ (0,1]`),
//! so the accumulator is bounded by `max|z|`; the discretized batch
//! structure of §4.3 is kept per ≤`edges_per_warp` neighbor batch inside
//! the fused loop, but no degree scale is needed.
//!
//! **Geometry.** Unlike the edge-parallel unfused kernels, a fused warp
//! must see a whole row to normalize it, so warps own greedy runs of
//! *complete* CSR rows (≥1 row, up to `edges_per_warp` edges). Every
//! output row has exactly one owner: all writes are direct (`assign`),
//! no staging buffer, no follow-up kernel. The price is load imbalance on
//! hub rows — which is exactly why `fused` is a tuner *candidate*, not a
//! replacement (skewed graphs may keep the unfused chain).
//!
//! **Cost accounting.** Fused kernels charge DRAM sectors only for the
//! buffers they actually touch (`cols`, row offsets, gathered scores, the
//! stored `e`/`alpha`, the gathered `z` rows, the stored output). The
//! eliminated intermediates are *not* charged — that is the point of the
//! fusion and the quantity `BENCH_pr4` measures.

use crate::common::launch;
use crate::common::{count_nonfinite, Tiling};
use crate::halfgnn_spmm::row_offsets_of;
use halfgnn_graph::Coo;
use halfgnn_half::overflow;
use halfgnn_half::slice::{
    add_row, div_row, dot_chains, exp_shifted, fma_row, leaky_scores, softmax_grad_row, sum_chains,
};
use halfgnn_half::Half;
use halfgnn_sim::launch::{Cta, LaunchParams};
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{DeviceConfig, KernelStats};

/// Outputs of the fused forward pass: exactly the buffers GAT's backward
/// needs, nothing else.
pub struct FusedAttnForward {
    /// Post-LeakyReLU attention logits `e` (edge-level, layer state).
    pub e: Vec<Half>,
    /// Normalized attention weights `α` (edge-level, layer state).
    pub alpha: Vec<Half>,
    /// Aggregated output `Y = A_α · Z` (row-major, `num_rows × f`).
    pub out: Vec<Half>,
}

/// Greedy assignment of complete CSR rows to warps: each run holds ≥1 row
/// and at most `budget` edges (a single row larger than the budget gets a
/// run of its own — fused softmax cannot split a row).
#[cfg(test)]
fn row_runs(off: &[usize], budget: usize) -> Vec<(usize, usize)> {
    row_runs_in(off, budget, 0, off.len() - 1)
}

/// [`row_runs`] over the row window `[rw0, rw1)` only. Run grouping is a
/// cost-model concern: every functional quantity in the fused kernels is
/// per-row, so windowed runs produce bit-identical per-row outputs even
/// though a shard boundary may cut a run the full launch would have formed.
fn row_runs_in(off: &[usize], budget: usize, rw0: usize, rw1: usize) -> Vec<(usize, usize)> {
    let num_rows = rw1;
    let mut runs = Vec::new();
    let mut r = rw0;
    while r < num_rows {
        let mut r_end = r + 1;
        let mut edges = off[r + 1] - off[r];
        while r_end < num_rows && edges + (off[r_end + 1] - off[r_end]) <= budget {
            edges += off[r_end + 1] - off[r_end];
            r_end += 1;
        }
        runs.push((r, r_end));
        r = r_end;
    }
    runs
}

/// `[row0, row1, edge0, edge1]`: the rows and edges one CTA's warp runs
/// cover (its runs are consecutive, so both ranges are contiguous), or
/// `None` when the CTA owns no run.
fn cta_span(cta: &Cta, runs: &[(usize, usize)], off: &[usize], warps: usize) -> Option<[usize; 4]> {
    let first = runs.get(cta.id * warps)?;
    let last = runs[(cta.id * warps + warps).min(runs.len()) - 1];
    Some([first.0, last.1, off[first.0], off[last.1]])
}

/// One CTA's share of the forward outputs: `e` and `alpha` for its edges
/// from `edge0`, and `out` for its rows from `row0` (rows without edges
/// stay zero).
struct FwdCtaOut {
    edge0: usize,
    e: Vec<Half>,
    alpha: Vec<Half>,
    row0: usize,
    out: Vec<Half>,
}

/// Fused GAT attention forward: per owned row compute
/// `e_ij = LeakyReLU(s_row[i] + s_col[j])`, the running row-max `m_i`,
/// the shadow-exp `exp(e_ij − m_i)`, the row-sum `z_i`, the normalized
/// `α_ij` and the aggregation `Σ_j α_ij · Z[j]` in one pass.
///
/// `s_row` is gathered by destination row, `s_col` by source column —
/// mirroring the argument order GAT's forward passes to
/// [`crate::edge_ops::src_dst_add_leakyrelu`].
pub fn fused_attn_forward(
    dev: &DeviceConfig,
    coo: &Coo,
    s_row: &[Half],
    s_col: &[Half],
    slope: f32,
    z: &[Half],
    f: usize,
) -> (FusedAttnForward, KernelStats) {
    fused_attn_forward_window(dev, coo, s_row, s_col, slope, z, f, (0, coo.num_rows()))
}

/// [`fused_attn_forward`] restricted to the global row window `[r0, r1)` —
/// the per-shard distributed launch. All fused state is per-row, so window
/// rows (and their `e`/`alpha` edge slices) are bit-identical to the full
/// run; rows/edges outside the window are zero.
#[allow(clippy::too_many_arguments)]
pub fn fused_attn_forward_window(
    dev: &DeviceConfig,
    coo: &Coo,
    s_row: &[Half],
    s_col: &[Half],
    slope: f32,
    z: &[Half],
    f: usize,
    row_window: (usize, usize),
) -> (FusedAttnForward, KernelStats) {
    assert_eq!(s_row.len(), coo.num_rows(), "s_row length mismatch");
    assert_eq!(s_col.len(), coo.num_cols(), "s_col length mismatch");
    assert_eq!(z.len(), coo.num_cols() * f, "Z shape mismatch");
    assert!(f.is_multiple_of(2), "feature length must be half2-padded (got {f})");
    let (rw0, rw1) = row_window;
    assert!(rw0 <= rw1 && rw1 <= coo.num_rows(), "bad row window {row_window:?}");
    let _site = overflow::site("fused_attn");

    let nnz = coo.nnz();
    let num_rows = coo.num_rows();
    let cols = coo.cols();
    let off = row_offsets_of(coo);
    let tiling = Tiling::default();
    let runs = row_runs_in(&off, tiling.edges_per_warp, rw0, rw1);
    let num_ctas = runs.len().div_ceil(tiling.warps_per_cta).max(1);
    let slope_h = Half::from_f32(slope);
    let half2_lanes = (f / 2) as u64;

    let mut space = AddrSpace::new();
    let off_base = space.alloc(num_rows + 1, 4);
    let cols_base = space.alloc(nnz, 4);
    let srow_base = space.alloc(num_rows, 2);
    let scol_base = space.alloc(coo.num_cols(), 2);
    let z_base = space.alloc(z.len(), 2);
    let e_base = space.alloc(nnz, 2);
    let alpha_base = space.alloc(nnz, 2);
    let out_base = space.alloc(num_rows * f, 2);

    let (cta_outs, stats) = launch(
        dev,
        "fused_attn_forward",
        LaunchParams { num_ctas, warps_per_cta: tiling.warps_per_cta },
        |cta| {
            let [row0, row1, edge0, edge1] = cta_span(cta, &runs, &off, tiling.warps_per_cta)?;
            let mut out = FwdCtaOut {
                edge0,
                e: vec![Half::ZERO; edge1 - edge0],
                alpha: vec![Half::ZERO; edge1 - edge0],
                row0,
                out: vec![Half::ZERO; (row1 - row0) * f],
            };
            let mut batch_acc = vec![Half::ZERO; f];
            for wi in 0..tiling.warps_per_cta {
                let gi = cta.id * tiling.warps_per_cta + wi;
                let Some(&(r0, r1)) = runs.get(gi) else { break };
                let (s, e_end) = (off[r0], off[r1]);
                if s >= e_end {
                    continue; // run of empty rows: nothing to touch
                }
                let n = e_end - s;
                let echunks = (n as u64).div_ceil(32);
                let mut warp = cta.warp(wi);

                // ---- Loads: row structure + scores (everything the five
                // unfused kernels re-read per launch is read once here).
                warp.load_contiguous(off_base + r0 as u64 * 4, r1 - r0 + 1, 4);
                warp.load_contiguous(cols_base + s as u64 * 4, n, 4);
                warp.load_gather((r0..r1).map(|r| srow_base + r as u64 * 2), 2);
                warp.load_gather((s..e_end).map(|ei| scol_base + cols[ei] as u64 * 2), 2);

                // ---- Scores: add + sign test + slope multiply (same
                // 3-instruction profile as the unfused kernel).
                warp.half_ops(3 * echunks);
                // Running row max: lane-wise max + a segmented warp scan —
                // 5 shuffle rounds resolve every row boundary in a 32-edge
                // chunk at once (rows never span chunks of different warps).
                warp.half_ops(echunks);
                warp.shuffle_rounds(5 * echunks);
                // `e` is layer state — the one edge buffer this phase writes.
                warp.store_contiguous(e_base + s as u64 * 2, n.div_ceil(2), 4);

                // ---- Shadow exp + row sum + normalize, register-resident.
                warp.half_ops(2 * echunks); // hsub + hexp
                warp.half_ops(echunks); // lane-wise sum
                warp.shuffle_rounds(5 * echunks);
                warp.half_ops(echunks); // hdiv broadcast of 1/z
                warp.store_contiguous(alpha_base + s as u64 * 2, n.div_ceil(2), 4);

                // ---- Aggregation: gather Z rows + half2 FMA, per-batch
                // joins keeping the §4.3 discretized structure.
                warp.load_feature_rows(
                    (s..e_end).map(|ei| z_base + cols[ei] as u64 * (f as u64 * 2)),
                    f * 2,
                    4,
                );
                warp.half2_ops((n as u64 * half2_lanes).div_ceil(32));

                // ---- Functional: row by row, each row's conversions in
                // the order of its per-lane loops.
                for r in r0..r1 {
                    let (rs, re) = (off[r], off[r + 1]);
                    if rs == re {
                        continue; // empty row: output stays zero, untouched
                    }
                    let row_e = &mut out.e[rs - edge0..re - edge0];
                    let m = leaky_scores(s_row[r], s_col, &cols[rs..re], slope_h, row_e);
                    // Shadow exp: argument ≤ 0, result in (0, 1] — never
                    // overflows, so `z ∈ [1, deg]` and the divide is safe.
                    let row_alpha = &mut out.alpha[rs - edge0..re - edge0];
                    exp_shifted(row_e, m, row_alpha);
                    let mut z_sum = [Half::ZERO];
                    sum_chains(row_alpha, &[0, re - rs], &mut z_sum);
                    div_row(row_alpha, z_sum[0]);

                    // Aggregation in ≤edges_per_warp neighbor batches.
                    let acc = &mut out.out[(r - row0) * f..(r - row0 + 1) * f];
                    for b0 in (rs..re).step_by(tiling.edges_per_warp) {
                        let batch = b0..(b0 + tiling.edges_per_warp).min(re);
                        let into = if b0 == rs {
                            &mut *acc
                        } else {
                            batch_acc.fill(Half::ZERO);
                            &mut batch_acc[..]
                        };
                        for ei in batch {
                            let c = cols[ei] as usize;
                            fma_row(into, row_alpha[ei - rs], &z[c * f..(c + 1) * f]);
                        }
                        if b0 != rs {
                            add_row(acc, &batch_acc);
                            warp.half2_ops(half2_lanes.div_ceil(32)); // batch join
                        }
                    }
                    warp.nonfinite_values(count_nonfinite(row_alpha));
                    warp.nonfinite_values(count_nonfinite(acc));
                    // Row has exactly one owner: direct non-conflicting write.
                    warp.store_contiguous(out_base + r as u64 * (f as u64 * 2), f / 2, 4);
                }
            }
            Some(out)
        },
    );

    let mut e_out = vec![Half::ZERO; nnz];
    let mut alpha_out = vec![Half::ZERO; nnz];
    let mut y = vec![Half::ZERO; num_rows * f];
    for c in cta_outs.into_iter().flatten() {
        let edges = c.edge0..c.edge0 + c.e.len();
        e_out[edges.clone()].copy_from_slice(&c.e);
        alpha_out[edges].copy_from_slice(&c.alpha);
        y[c.row0 * f..c.row0 * f + c.out.len()].copy_from_slice(&c.out);
    }

    (FusedAttnForward { e: e_out, alpha: alpha_out, out: y }, stats)
}

/// Fused softmax-gradient half of GAT's backward: per owned row compute
/// `t_i = Σ_j α_ij · δα_ij` (register-resident), then
/// `δe_ij = LeakyReLU'(e_ij) · α_ij · (δα_ij − t_i)` in one pass —
/// replacing the unfused `mul` → `edge_reduce(Sum)` → `softmax_grad` →
/// `leakyrelu_grad` chain and its two scratch edge buffers.
pub fn fused_softmax_grad(
    dev: &DeviceConfig,
    coo: &Coo,
    alpha: &[Half],
    dalpha: &[Half],
    e: &[Half],
    slope: f32,
) -> (Vec<Half>, KernelStats) {
    fused_softmax_grad_window(dev, coo, alpha, dalpha, e, slope, (0, coo.num_rows()))
}

/// [`fused_softmax_grad`] restricted to the global row window `[r0, r1)`;
/// see [`fused_attn_forward_window`] for the per-row bit-identity contract.
pub fn fused_softmax_grad_window(
    dev: &DeviceConfig,
    coo: &Coo,
    alpha: &[Half],
    dalpha: &[Half],
    e: &[Half],
    slope: f32,
    row_window: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    assert_eq!(alpha.len(), coo.nnz(), "alpha length mismatch");
    assert_eq!(dalpha.len(), coo.nnz(), "dalpha length mismatch");
    assert_eq!(e.len(), coo.nnz(), "e length mismatch");
    let (rw0, rw1) = row_window;
    assert!(rw0 <= rw1 && rw1 <= coo.num_rows(), "bad row window {row_window:?}");
    let _site = overflow::site("fused_softmax_grad");

    let nnz = coo.nnz();
    let num_rows = coo.num_rows();
    let off = row_offsets_of(coo);
    let tiling = Tiling::default();
    let runs = row_runs_in(&off, tiling.edges_per_warp, rw0, rw1);
    let num_ctas = runs.len().div_ceil(tiling.warps_per_cta).max(1);
    let slope_h = Half::from_f32(slope);

    let mut space = AddrSpace::new();
    let off_base = space.alloc(num_rows + 1, 4);
    let alpha_base = space.alloc(nnz, 2);
    let dalpha_base = space.alloc(nnz, 2);
    let e_base = space.alloc(nnz, 2);
    let de_base = space.alloc(nnz, 2);

    let (cta_outs, stats) = launch(
        dev,
        "fused_softmax_grad",
        LaunchParams { num_ctas, warps_per_cta: tiling.warps_per_cta },
        |cta| {
            let [_, _, edge0, edge1] = cta_span(cta, &runs, &off, tiling.warps_per_cta)?;
            let mut de = vec![Half::ZERO; edge1 - edge0];
            for wi in 0..tiling.warps_per_cta {
                let gi = cta.id * tiling.warps_per_cta + wi;
                let Some(&(r0, r1)) = runs.get(gi) else { break };
                let (s, e_end) = (off[r0], off[r1]);
                if s >= e_end {
                    continue;
                }
                let n = e_end - s;
                let echunks = (n as u64).div_ceil(32);
                let mut warp = cta.warp(wi);

                warp.load_contiguous(off_base + r0 as u64 * 4, r1 - r0 + 1, 4);
                warp.load_contiguous(alpha_base + s as u64 * 2, n.div_ceil(2), 4);
                warp.load_contiguous(dalpha_base + s as u64 * 2, n.div_ceil(2), 4);
                warp.load_contiguous(e_base + s as u64 * 2, n.div_ceil(2), 4);
                // t_i: lane-wise products + a segmented warp scan (t stays
                // in a register — never materialized).
                warp.half_ops(2 * echunks);
                warp.shuffle_rounds(5 * echunks);
                // δe: subtract + multiply, then the LeakyReLU gate.
                warp.half_ops(2 * echunks);
                warp.half_ops(2 * echunks);
                warp.store_contiguous(de_base + s as u64 * 2, n.div_ceil(2), 4);

                for r in r0..r1 {
                    let (rs, re) = (off[r], off[r + 1]);
                    if rs == re {
                        continue;
                    }
                    let (a, da) = (&alpha[rs..re], &dalpha[rs..re]);
                    let mut t = [Half::ZERO];
                    dot_chains(a, da, &[0, re - rs], &mut t);
                    let row_de = &mut de[rs - edge0..re - edge0];
                    softmax_grad_row(a, da, &e[rs..re], t[0], slope_h, row_de);
                }
                warp.nonfinite_values(count_nonfinite(&de[s - edge0..e_end - edge0]));
            }
            Some((edge0, de))
        },
    );

    let mut de = vec![Half::ZERO; nnz];
    for (edge0, vals) in cta_outs.into_iter().flatten() {
        de[edge0..edge0 + vals.len()].copy_from_slice(&vals);
    }
    (de, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{EdgeWeights, Reduce, ScalePlacement};
    use crate::edge_ops;
    use crate::halfgnn_spmm::{self, SpmmConfig};
    use halfgnn_graph::{gen, Csr};
    use halfgnn_half::slice::f32_slice_to_half;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dev() -> DeviceConfig {
        DeviceConfig::a100_like()
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> Coo {
        let edges = gen::erdos_renyi(n, m, seed);
        Csr::from_edges(n, n, &edges).symmetrized_with_self_loops().to_coo()
    }

    fn random_halves(n: usize, scale: f32, seed: u64) -> Vec<Half> {
        let mut rng = StdRng::seed_from_u64(seed);
        f32_slice_to_half(&(0..n).map(|_| rng.gen_range(-scale..scale)).collect::<Vec<_>>())
    }

    /// The unfused five-kernel forward chain the fusion replaces.
    fn unfused_forward(
        d: &DeviceConfig,
        g: &Coo,
        s_row: &[Half],
        s_col: &[Half],
        slope: f32,
        z: &[Half],
        f: usize,
    ) -> (Vec<Half>, Vec<Half>, Vec<Half>, KernelStats) {
        let (e, s1) = edge_ops::src_dst_add_leakyrelu(d, g, s_row, s_col, slope);
        let (m, s2) = halfgnn_spmm::edge_reduce(d, g, &e, Reduce::Max);
        let (num, s3) = edge_ops::sub_row_exp(d, g, &e, &m, true);
        let (zs, s4) = halfgnn_spmm::edge_reduce(d, g, &num, Reduce::Sum);
        let (alpha, s5) = edge_ops::div_row(d, g, &num, &zs);
        let (y, s6) = halfgnn_spmm::spmm(
            d,
            g,
            EdgeWeights::Values(&alpha),
            z,
            f,
            None,
            &SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
        );
        let stats = s1.then(&s2).then(&s3).then(&s4).then(&s5).then(&s6);
        (e, alpha, y, stats)
    }

    #[test]
    fn fused_forward_matches_unfused_chain() {
        let g = random_graph(150, 700, 41);
        let f = 16;
        let s_row = random_halves(g.num_rows(), 2.0, 42);
        let s_col = random_halves(g.num_cols(), 2.0, 43);
        let z = random_halves(g.num_cols() * f, 1.0, 44);
        let (fused, _) = fused_attn_forward(&dev(), &g, &s_row, &s_col, 0.2, &z, f);
        let (e_u, alpha_u, y_u, _) = unfused_forward(&dev(), &g, &s_row, &s_col, 0.2, &z, f);
        // Scores are computed by the identical half instruction sequence.
        assert_eq!(
            fused.e.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
            e_u.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
            "scores must be bit-identical"
        );
        for (i, (a, b)) in fused.alpha.iter().zip(&alpha_u).enumerate() {
            assert!(
                crate::reference::close(a.to_f64(), b.to_f64(), 2e-2, 2e-2),
                "alpha[{i}]: fused {a:?} vs unfused {b:?}"
            );
        }
        for (i, (a, b)) in fused.out.iter().zip(&y_u).enumerate() {
            assert!(
                crate::reference::close(a.to_f64(), b.to_f64(), 3e-2, 3e-2),
                "out[{i}]: fused {a:?} vs unfused {b:?}"
            );
        }
    }

    #[test]
    fn fused_rows_sum_to_one() {
        let g = random_graph(100, 500, 51);
        let f = 8;
        let s_row = random_halves(g.num_rows(), 3.0, 52);
        let s_col = random_halves(g.num_cols(), 3.0, 53);
        let z = random_halves(g.num_cols() * f, 1.0, 54);
        let (fused, _) = fused_attn_forward(&dev(), &g, &s_row, &s_col, 0.2, &z, f);
        let off = row_offsets_of(&g);
        for r in 0..g.num_rows() {
            if off[r] == off[r + 1] {
                continue;
            }
            let sum: f32 = fused.alpha[off[r]..off[r + 1]].iter().map(|h| h.to_f32()).sum();
            assert!((sum - 1.0).abs() < 0.05, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn fused_forward_is_overflow_clean_even_on_extreme_scores() {
        // All-negative and large-magnitude scores: the shadow-exp argument
        // is still ≤ 0, so the fused exp path records zero overflow events.
        let g = random_graph(80, 400, 61);
        let f = 8;
        let s_row = vec![Half::from_f32(-60000.0); g.num_rows()];
        let s_col = random_halves(g.num_cols(), 100.0, 63);
        let z = random_halves(g.num_cols() * f, 1.0, 64);
        let ((fused, _), summary) =
            overflow::isolated(|| fused_attn_forward(&dev(), &g, &s_row, &s_col, 0.2, &z, f));
        assert!(summary.is_clean(), "{} overflow events in fused path", summary.nonfinite());
        assert!(fused.alpha.iter().all(|h| h.is_finite()));
        assert!(fused.out.iter().all(|h| h.is_finite()));
    }

    #[test]
    fn fused_backward_matches_unfused_chain() {
        let g = random_graph(120, 600, 71);
        let f = 8;
        let s_row = random_halves(g.num_rows(), 1.0, 72);
        let s_col = random_halves(g.num_cols(), 1.0, 73);
        let z = random_halves(g.num_cols() * f, 1.0, 74);
        let (fwd, _) = fused_attn_forward(&dev(), &g, &s_row, &s_col, 0.2, &z, f);
        let dalpha = random_halves(g.nnz(), 1.0, 75);

        let (de_f, _) = fused_softmax_grad(&dev(), &g, &fwd.alpha, &dalpha, &fwd.e, 0.2);

        let d = dev();
        let (prod, _) = edge_ops::mul(&d, &g, &fwd.alpha, &dalpha);
        let (t, _) = halfgnn_spmm::edge_reduce(&d, &g, &prod, Reduce::Sum);
        let (de_soft, _) = edge_ops::softmax_grad(&d, &g, &fwd.alpha, &dalpha, &t);
        let (de_u, _) = edge_ops::leakyrelu_grad(&d, &g, &fwd.e, &de_soft, 0.2);

        for (i, (a, b)) in de_f.iter().zip(&de_u).enumerate() {
            assert!(
                crate::reference::close(a.to_f64(), b.to_f64(), 2e-2, 2e-2),
                "de[{i}]: fused {a:?} vs unfused {b:?}"
            );
        }
    }

    #[test]
    fn fast_executor_matches_sim_bitwise() {
        let g = random_graph(90, 450, 81);
        let f = 16;
        let s_row = random_halves(g.num_rows(), 1.0, 82);
        let s_col = random_halves(g.num_cols(), 1.0, 83);
        let z = random_halves(g.num_cols() * f, 1.0, 84);
        let dalpha = random_halves(g.nnz(), 1.0, 85);
        let fast = dev().fast();
        let bits = |v: &[Half]| v.iter().map(|h| h.to_bits()).collect::<Vec<u16>>();

        let (sim, ss) = fused_attn_forward(&dev(), &g, &s_row, &s_col, 0.2, &z, f);
        let (fst, fs) = fused_attn_forward(&fast, &g, &s_row, &s_col, 0.2, &z, f);
        assert_eq!(bits(&sim.e), bits(&fst.e));
        assert_eq!(bits(&sim.alpha), bits(&fst.alpha));
        assert_eq!(bits(&sim.out), bits(&fst.out));
        assert!(ss.cycles > 0.0);
        assert_eq!(fs.cycles, 0.0, "fast stats are wall-clock only");

        let (sim_de, _) = fused_softmax_grad(&dev(), &g, &sim.alpha, &dalpha, &sim.e, 0.2);
        let (fst_de, _) = fused_softmax_grad(&fast, &g, &fst.alpha, &dalpha, &fst.e, 0.2);
        assert_eq!(bits(&sim_de), bits(&fst_de));
    }

    #[test]
    fn empty_rows_and_empty_graphs_are_fine() {
        let g = Coo::from_edges(6, 6, &[(0, 1), (0, 2), (3, 3)]);
        let f = 4;
        let s_row = random_halves(6, 1.0, 91);
        let s_col = random_halves(6, 1.0, 92);
        let z = random_halves(6 * f, 1.0, 93);
        let (fwd, _) = fused_attn_forward(&dev(), &g, &s_row, &s_col, 0.2, &z, f);
        // Rows 1, 2, 4, 5 have no edges: output stays zero.
        for r in [1usize, 2, 4, 5] {
            assert!(fwd.out[r * f..(r + 1) * f].iter().all(|h| h.is_zero()), "row {r}");
        }
        let dalpha = random_halves(g.nnz(), 1.0, 94);
        let (de, _) = fused_softmax_grad(&dev(), &g, &fwd.alpha, &dalpha, &fwd.e, 0.2);
        assert_eq!(de.len(), 3);

        let empty = Coo::from_edges(4, 4, &[]);
        let (fwd0, _) =
            fused_attn_forward(&dev(), &empty, &s_row[..4], &s_col[..4], 0.2, &z[..4 * f], f);
        assert!(fwd0.out.iter().all(|h| h.is_zero()));
        assert!(fwd0.e.is_empty() && fwd0.alpha.is_empty());
    }

    #[test]
    fn fused_beats_unfused_on_cycles_and_dram_bytes() {
        // The headline claim: one pass through DRAM instead of six. Small
        // f is where the edge-buffer traffic dominates (at large f the
        // per-edge Z-row gather swamps both designs equally).
        let edges = gen::erdos_renyi(2_000, 12_000, 7);
        let g = Csr::from_edges(2_000, 2_000, &edges).symmetrized_with_self_loops().to_coo();
        let f = 8;
        let s_row = random_halves(g.num_rows(), 1.0, 101);
        let s_col = random_halves(g.num_cols(), 1.0, 102);
        let z = random_halves(g.num_cols() * f, 1.0, 103);
        let (_, fused_stats) = fused_attn_forward(&dev(), &g, &s_row, &s_col, 0.2, &z, f);
        let (_, _, _, unfused_stats) = unfused_forward(&dev(), &g, &s_row, &s_col, 0.2, &z, f);
        assert!(
            unfused_stats.cycles >= 1.25 * fused_stats.cycles,
            "cycles: unfused {} vs fused {}",
            unfused_stats.cycles,
            fused_stats.cycles
        );
        assert!(
            unfused_stats.dram_bytes() as f64 >= 1.5 * fused_stats.dram_bytes() as f64,
            "dram: unfused {} vs fused {}",
            unfused_stats.dram_bytes(),
            fused_stats.dram_bytes()
        );
    }

    #[test]
    fn row_runs_cover_all_rows_without_splitting() {
        let g = random_graph(200, 1500, 111);
        let off = row_offsets_of(&g);
        let runs = row_runs(&off, 64);
        let mut next = 0;
        for &(r0, r1) in &runs {
            assert_eq!(r0, next, "runs must tile the row range");
            assert!(r1 > r0);
            next = r1;
        }
        assert_eq!(next, g.num_rows());
    }
}
