//! DGL-style SDDMM, float and half.
//!
//! DGL's half SDDMM "replaces float with the half data type without any
//! system design change" (§3.1.1): both variants load features scalar and
//! feature-parallel across all 32 threads, run five shuffle rounds, and the
//! half variant pays Fig. 3a conversions on every multiply. The half
//! variant therefore moves half the bytes but issues the *same* number of
//! instructions and barriers — which is why Fig. 1b shows no speedup.

use crate::common::launch;
use crate::common::Tiling;
use halfgnn_graph::Coo;
use halfgnn_half::Half;
use halfgnn_sim::launch::LaunchParams;
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{DeviceConfig, KernelStats};

/// Shared structure of both DGL SDDMM variants. `edge_window` restricts
/// the launch to a contiguous global edge slice (the distributed per-shard
/// case) while keeping the global tiling, so window edges are bit-identical
/// to the full run.
#[allow(clippy::too_many_arguments)]
fn dgl_sddmm_generic<R: Send + Default + Clone>(
    dev: &DeviceConfig,
    name: &str,
    coo: &Coo,
    f: usize,
    elem_bytes: usize,
    half_path: bool,
    edge_window: (usize, usize),
    compute_edge: impl Fn(usize, u32, u32) -> R + Sync,
) -> (Vec<R>, KernelStats) {
    let nnz = coo.nnz();
    let (e0, e1) = edge_window;
    assert!(e0 <= e1 && e1 <= nnz, "bad edge window {edge_window:?}");
    let tiling = Tiling::default();
    let (cta_lo, cta_hi) = tiling.cta_range(e0, e1);
    let num_ctas = cta_hi - cta_lo;
    let rows = coo.rows();
    let cols = coo.cols();

    let mut space = AddrSpace::new();
    let rows_base = space.alloc(nnz, 4);
    let cols_base = space.alloc(nnz, 4);
    let u_base = space.alloc(coo.num_rows() * f, elem_bytes);
    let v_base = space.alloc(coo.num_cols() * f, elem_bytes);
    let out_base = space.alloc(nnz, elem_bytes);

    // All 32 threads cooperate on one edge (no sub-warps in DGL's design):
    // five shuffle rounds regardless of precision.
    let shuffle_rounds = 5u64;

    let (cta_outs, stats) =
        launch(dev, name, LaunchParams { num_ctas, warps_per_cta: tiling.warps_per_cta }, |cta| {
            let mut out: Vec<(usize, Vec<R>)> = Vec::new();
            for wi in 0..tiling.warps_per_cta {
                let (s, e) = tiling.warp_range_in(cta.id + cta_lo, wi, e0, e1);
                if s >= e {
                    continue;
                }
                let n = e - s;
                let mut warp = cta.warp(wi);
                // Naive feature-parallel: each thread re-reads the NZE pair.
                warp.load_gather((s..e).map(|ei| rows_base + ei as u64 * 4), 4);
                warp.load_gather((s..e).map(|ei| cols_base + ei as u64 * 4), 4);
                // Feature loads: the float template touches f*4 bytes per
                // row; the half instantiation touches the same sector span
                // with 2-byte requests, wasting half of every 32-byte
                // sector it opens ("without any system design change",
                // §3.1.1 — this is what makes Fig. 1b's runtimes and
                // Fig. 11's identical memory utilizations come out equal).
                warp.load_feature_rows(
                    (s..e).flat_map(|ei| {
                        [
                            u_base + rows[ei] as u64 * (f as u64 * 4),
                            v_base + cols[ei] as u64 * (f as u64 * 4),
                        ]
                    }),
                    f * 4,
                    4,
                );
                let mul_instrs = (n as u64 * f as u64).div_ceil(32);
                warp.float_ops(mul_instrs);
                if half_path {
                    // Fig. 3a conversions on every operand + the store.
                    warp.convert_ops(3 * mul_instrs);
                }
                // One reduction per edge, 32 threads each, one at a time.
                warp.shuffle_rounds(n as u64 * shuffle_rounds);
                warp.store_contiguous(out_base + s as u64 * elem_bytes as u64, n, elem_bytes);

                let vals: Vec<R> = (s..e).map(|ei| compute_edge(ei, rows[ei], cols[ei])).collect();
                out.push((s, vals));
            }
            out
        });

    let mut result = vec![R::default(); nnz];
    for cta in cta_outs {
        for (s, vals) in cta {
            result[s..s + vals.len()].clone_from_slice(&vals);
        }
    }
    (result, stats)
}

/// DGL float SDDMM.
pub fn sddmm_float(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[f32],
    v: &[f32],
    f: usize,
) -> (Vec<f32>, KernelStats) {
    sddmm_float_window(dev, coo, u, v, f, (0, coo.nnz()))
}

/// [`sddmm_float`] restricted to the global edge window `[e0, e1)` (the
/// per-shard distributed launch); window edges are bit-identical to the
/// full run, edges outside are zero.
pub fn sddmm_float_window(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[f32],
    v: &[f32],
    f: usize,
    edge_window: (usize, usize),
) -> (Vec<f32>, KernelStats) {
    assert_eq!(u.len(), coo.num_rows() * f, "U shape mismatch");
    assert_eq!(v.len(), coo.num_cols() * f, "V shape mismatch");
    dgl_sddmm_generic::<f32>(dev, "dgl_f32_sddmm", coo, f, 4, false, edge_window, |_, r, c| {
        let ur = &u[r as usize * f..(r as usize + 1) * f];
        let vc = &v[c as usize * f..(c as usize + 1) * f];
        ur.iter().zip(vc).map(|(a, b)| a * b).sum()
    })
}

/// DGL half SDDMM: float structure with half types dropped in. Arithmetic
/// runs through implicit promotion, accumulating in float and rounding the
/// final value (what DGL's templated kernel does).
pub fn sddmm_half(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[Half],
    v: &[Half],
    f: usize,
) -> (Vec<Half>, KernelStats) {
    sddmm_half_window(dev, coo, u, v, f, (0, coo.nnz()))
}

/// [`sddmm_half`] restricted to the global edge window `[e0, e1)`; see
/// [`sddmm_float_window`].
pub fn sddmm_half_window(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[Half],
    v: &[Half],
    f: usize,
    edge_window: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    assert_eq!(u.len(), coo.num_rows() * f, "U shape mismatch");
    assert_eq!(v.len(), coo.num_cols() * f, "V shape mismatch");
    let _site = halfgnn_half::overflow::site("dgl_f16_sddmm");
    dgl_sddmm_generic::<Half>(dev, "dgl_f16_sddmm", coo, f, 2, true, edge_window, |_, r, c| {
        let ur = &u[r as usize * f..(r as usize + 1) * f];
        let vc = &v[c as usize * f..(c as usize + 1) * f];
        let acc: f32 = ur.iter().zip(vc).map(|(a, b)| a.to_f32() * b.to_f32()).sum();
        Half::from_f32(acc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{
        assert_close_f32, assert_close_half, f32_to_f64, half_to_f64, sddmm_f64,
    };
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

    fn random_f32(n: usize, scale: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
    }

    #[test]
    fn fast_executor_matches_sim_bitwise() {
        let g = random_graph(100, 500, 14);
        let f = 32;
        let u = f32_slice_to_half(&random_f32(g.num_rows() * f, 0.5, 15));
        let v = f32_slice_to_half(&random_f32(g.num_cols() * f, 0.5, 16));
        let (sim_y, _) = sddmm_half(&dev(), &g, &u, &v, f);
        let (fast_y, fast_s) = sddmm_half(&dev().fast(), &g, &u, &v, f);
        assert_eq!(
            sim_y.iter().map(|h| h.to_bits()).collect::<Vec<u16>>(),
            fast_y.iter().map(|h| h.to_bits()).collect::<Vec<u16>>()
        );
        assert_eq!(fast_s.cycles, 0.0);
        assert_eq!(fast_s.totals.convert_ops, 0, "fast charging is a no-op");
    }

    #[test]
    fn float_matches_reference() {
        let g = random_graph(100, 500, 1);
        let f = 32;
        let u = random_f32(g.num_rows() * f, 1.0, 2);
        let v = random_f32(g.num_cols() * f, 1.0, 3);
        let (got, _) = sddmm_float(&dev(), &g, &u, &v, f);
        let want = sddmm_f64(&g, &f32_to_f64(&u), &f32_to_f64(&v), f);
        assert_close_f32(&got, &want, 1e-5, 1e-5, "dgl float sddmm");
    }

    #[test]
    fn half_matches_reference() {
        let g = random_graph(100, 500, 4);
        let f = 32;
        let u = f32_slice_to_half(&random_f32(g.num_rows() * f, 0.5, 5));
        let v = f32_slice_to_half(&random_f32(g.num_cols() * f, 0.5, 6));
        let (got, stats) = sddmm_half(&dev(), &g, &u, &v, f);
        let want = sddmm_f64(&g, &half_to_f64(&u), &half_to_f64(&v), f);
        assert_close_half(&got, &want, 0.01, 0.01, "dgl half sddmm");
        assert!(stats.totals.convert_ops > 0);
    }

    #[test]
    fn half_is_no_faster_than_float() {
        // Fig. 1b: DGL's half SDDMM gives no runtime benefit.
        let g = random_graph(2_000, 40_000, 7);
        let f = 64;
        let uf = random_f32(g.num_rows() * f, 0.5, 8);
        let vf = random_f32(g.num_cols() * f, 0.5, 9);
        let (_, sf) = sddmm_float(&dev(), &g, &uf, &vf, f);
        let (_, sh) = sddmm_half(&dev(), &g, &f32_slice_to_half(&uf), &f32_slice_to_half(&vf), f);
        // Same barriers, same instruction counts; conversions make half no
        // better (allow 5% modeling slack).
        assert!(sh.cycles > 0.95 * sf.cycles, "half {} vs float {}", sh.cycles, sf.cycles);
        assert_eq!(sh.totals.shuffles, sf.totals.shuffles);
    }

    #[test]
    fn half_is_much_slower_than_halfgnn_sddmm() {
        // The Fig. 9 kernel-level gap, in miniature.
        let g = random_graph(2_000, 40_000, 10);
        let f = 64;
        let u = f32_slice_to_half(&random_f32(g.num_rows() * f, 0.5, 11));
        let v = f32_slice_to_half(&random_f32(g.num_cols() * f, 0.5, 12));
        let (_, dgl) = sddmm_half(&dev(), &g, &u, &v, f);
        let (_, ours) =
            crate::halfgnn_sddmm::sddmm(&dev(), &g, &u, &v, f, crate::common::VectorWidth::Half8);
        assert!(
            dgl.cycles > 3.0 * ours.cycles,
            "expected large gap: dgl {} vs halfgnn {}",
            dgl.cycles,
            ours.cycles
        );
    }
}
