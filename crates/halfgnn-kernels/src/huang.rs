//! Huang et al. (ref. 20)-style vertex-parallel workload-balanced SpMM, plus
//! the half2 adaptation of §5.4 — the generality demonstration of Fig. 14.
//!
//! The design splits every row into groups of ≤32 neighbors and assigns one
//! group per warp, so no warp sees a row split. The float original resolves
//! multi-group rows with `f32` atomics. The half2 adaptation keeps the
//! 32-neighbor grouping (so edge-feature loads stay at 64 B — the
//! compromise §6.3.3 notes), vectorizes the feature loads with half2,
//! handles the odd-offset alignment problem by starting the edge-feature
//! fetch one position earlier, and replaces atomics with the
//! staging-buffer protocol. Those are exactly the changes HalfGNN's own
//! vertex-parallel SpMM makes, so the adaptation runs its body
//! ([`crate::halfgnn_spmm::spmm_vertex_parallel`]) without scaling, at
//! this module's group size and under this module's kernel names.

use crate::common::{launch, neighbor_groups, EdgeWeights, ScalePlacement};
use crate::halfgnn_spmm::{vertex_parallel, Grouped};
use halfgnn_graph::Csr;
use halfgnn_half::Half;
use halfgnn_sim::launch::{commit_all, LaunchParams, WriteList};
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{AtomicKind, DeviceConfig, KernelStats};

/// Neighbor-group size (the original's choice, kept in §6.3.3).
const GROUP: usize = 32;
const WARPS_PER_CTA: usize = 4;

/// Huang-float SpMM: `f32` loads and arithmetic, atomic combine for
/// multi-group rows.
pub fn spmm_float(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights<f32>,
    x: &[f32],
    f: usize,
) -> (Vec<f32>, KernelStats) {
    assert_eq!(x.len(), csr.num_cols() * f, "X shape mismatch");
    let n = csr.num_rows();
    let groups = neighbor_groups(csr, (0, n), GROUP);
    let num_ctas = groups.len().div_ceil(WARPS_PER_CTA).max(1);

    let mut space = AddrSpace::new();
    let cols_base = space.alloc(csr.nnz(), 4);
    let w_base = space.alloc(csr.nnz(), 4);
    let x_base = space.alloc(x.len(), 4);
    let y_base = space.alloc(n * f, 4);

    let (cta_outs, stats) = launch(
        dev,
        "huang_f32_spmm",
        LaunchParams { num_ctas, warps_per_cta: WARPS_PER_CTA },
        |cta| {
            let mut writes: WriteList<f32> = WriteList::new();
            for wi in 0..WARPS_PER_CTA {
                let gi = cta.id * WARPS_PER_CTA + wi;
                let Some(&(row, off, len)) = groups.get(gi) else { break };
                let mut warp = cta.warp(wi);
                warp.load_contiguous(cols_base + off as u64 * 4, len, 4);
                if !w.is_ones() {
                    warp.load_contiguous(w_base + off as u64 * 4, len, 4);
                }
                let cols = &csr.cols()[off..off + len];
                warp.load_feature_rows(
                    cols.iter().map(|&c| x_base + c as u64 * (f as u64 * 4)),
                    f * 4,
                    4,
                );
                warp.float_ops((len as u64 * f as u64).div_ceil(32));

                let mut acc = vec![0f32; f];
                for (k, &c) in cols.iter().enumerate() {
                    let wv = w.get(off + k);
                    for (a, &xv) in acc.iter_mut().zip(&x[c as usize * f..(c as usize + 1) * f]) {
                        *a += wv * xv;
                    }
                }
                let single_group = csr.degree(row) as usize <= GROUP;
                if single_group {
                    warp.store_contiguous(y_base + row as u64 * (f as u64 * 4), f, 4);
                    writes.assign(row as usize * f, acc);
                } else {
                    let conflict = (csr.degree(row) as f64 / GROUP as f64).max(0.0);
                    warp.atomic_add(AtomicKind::F32, f as u64, conflict);
                    writes.add(row as usize * f, acc);
                }
            }
            writes
        },
    );

    let mut y = vec![0f32; n * f];
    commit_all(cta_outs, &mut y);
    (y, stats)
}

/// Huang-half2 SpMM (§5.4): same grouping, half2 feature loads, mirroring
/// with the odd-offset fix, non-atomic staging-buffer writes.
pub fn spmm_half2(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights,
    x: &[Half],
    f: usize,
) -> (Vec<Half>, KernelStats) {
    let kernel = Grouped { group: GROUP, name: "huang_f16x2_spmm", followup: "huang_followup" };
    vertex_parallel(dev, csr, w, x, f, None, ScalePlacement::None, (0, csr.num_rows()), kernel)
}

/// The §6.3.3 follow-up: Huang-half2 with 64-neighbor groups, so the
/// edge-feature phase issues full 128-byte loads ("this is not a
/// fundamental limitation, as we can change its neighbor group size to 64
/// to overcome the issue"). Only the grouping differs from
/// [`spmm_half2`]; expect a further data-load win on high-degree graphs.
pub fn spmm_half2_g64(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights,
    x: &[Half],
    f: usize,
) -> (Vec<Half>, KernelStats) {
    let kernel =
        Grouped { group: 64, name: "huang_f16x2_g64_spmm", followup: "huang_g64_followup" };
    vertex_parallel(dev, csr, w, x, f, None, ScalePlacement::None, (0, csr.num_rows()), kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Reduce;
    use crate::reference::{
        assert_close_f32, assert_close_half, f32_to_f64, half_to_f64, spmm_f64,
    };
    use halfgnn_graph::gen;
    use halfgnn_half::slice::f32_slice_to_half;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dev() -> DeviceConfig {
        DeviceConfig::a100_like()
    }

    fn skewed_graph(seed: u64) -> Csr {
        let edges = gen::preferential_attachment(1_500, 8, seed);
        Csr::from_edges(1_500, 1_500, &edges).symmetrized_with_self_loops()
    }

    #[test]
    fn fast_executor_matches_sim_bitwise() {
        // Huang's grouped design combines multi-group rows through the
        // commit phase; both backends must land on identical bits.
        let csr = skewed_graph(9);
        let f = 32;
        let mut rng = StdRng::seed_from_u64(10);
        let xf: Vec<f32> = (0..csr.num_cols() * f).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let xh = f32_slice_to_half(&xf);
        let fast = dev().fast();
        let (sim_f, _) = spmm_float(&dev(), &csr, EdgeWeights::Ones, &xf, f);
        let (fast_f, _) = spmm_float(&fast, &csr, EdgeWeights::Ones, &xf, f);
        assert_eq!(
            sim_f.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            fast_f.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );
        let (sim_h, _) = spmm_half2(&dev(), &csr, EdgeWeights::Ones, &xh, f);
        let (fast_h, fast_s) = spmm_half2(&fast, &csr, EdgeWeights::Ones, &xh, f);
        assert_eq!(
            sim_h.iter().map(|h| h.to_bits()).collect::<Vec<u16>>(),
            fast_h.iter().map(|h| h.to_bits()).collect::<Vec<u16>>()
        );
        assert_eq!(fast_s.cycles, 0.0);
    }

    #[test]
    fn float_matches_reference() {
        let csr = skewed_graph(2);
        let f = 16;
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<f32> = (0..csr.num_cols() * f).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (y, stats) = spmm_float(&dev(), &csr, EdgeWeights::Ones, &x, f);
        let want =
            spmm_f64(&csr.to_coo(), EdgeWeights::Ones, &f32_to_f64(&x), f, Reduce::Sum, None);
        assert_close_f32(&y, &want, 1e-4, 1e-4, "huang float");
        assert!(stats.totals.atomics_f32 > 0, "multi-group rows use atomics");
    }

    #[test]
    fn half2_matches_reference() {
        let csr = skewed_graph(4);
        let f = 32;
        let mut rng = StdRng::seed_from_u64(5);
        let xf: Vec<f32> = (0..csr.num_cols() * f).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let x = f32_slice_to_half(&xf);
        let (y, stats) = spmm_half2(&dev(), &csr, EdgeWeights::Ones, &x, f);
        let want =
            spmm_f64(&csr.to_coo(), EdgeWeights::Ones, &half_to_f64(&x), f, Reduce::Sum, None);
        assert_close_half(&y, &want, 0.05, 0.2, "huang half2");
        assert_eq!(stats.totals.atomics_f16, 0, "half2 adaptation is non-atomic");
    }

    #[test]
    fn weighted_half2_matches_reference() {
        let csr = skewed_graph(6);
        let f = 16;
        let mut rng = StdRng::seed_from_u64(7);
        let x = f32_slice_to_half(
            &(0..csr.num_cols() * f).map(|_| rng.gen_range(-0.5..0.5)).collect::<Vec<f32>>(),
        );
        let w = f32_slice_to_half(
            &(0..csr.nnz()).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<f32>>(),
        );
        let (y, _) = spmm_half2(&dev(), &csr, EdgeWeights::Values(&w), &x, f);
        let want = spmm_f64(
            &csr.to_coo(),
            EdgeWeights::Values(&w),
            &half_to_f64(&x),
            f,
            Reduce::Sum,
            None,
        );
        assert_close_half(&y, &want, 0.05, 0.2, "huang half2 weighted");
    }

    #[test]
    fn g64_matches_reference_and_improves_coalescing() {
        // §6.3.3: 64-neighbor groups restore full 128-byte edge-feature
        // loads (the compromise the 32-group adaptation made). The win
        // shows in load-instruction efficiency for SpMMve.
        let csr = skewed_graph(12);
        let f = 64;
        let mut rng = StdRng::seed_from_u64(13);
        let xf: Vec<f32> = (0..csr.num_cols() * f).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let x = f32_slice_to_half(&xf);
        let w = f32_slice_to_half(
            &(0..csr.nnz()).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<f32>>(),
        );
        let (y64, s64) = spmm_half2_g64(&dev(), &csr, EdgeWeights::Values(&w), &x, f);
        let want = spmm_f64(
            &csr.to_coo(),
            EdgeWeights::Values(&w),
            &half_to_f64(&x),
            f,
            Reduce::Sum,
            None,
        );
        assert_close_half(&y64, &want, 0.05, 0.2, "huang g64");
        let (_, s32) = spmm_half2(&dev(), &csr, EdgeWeights::Values(&w), &x, f);
        assert!(
            s64.totals.load_instrs < s32.totals.load_instrs,
            "g64 must issue fewer load instructions ({} vs {})",
            s64.totals.load_instrs,
            s32.totals.load_instrs
        );
        // Wave-granularity effects can go either way on small grids, but
        // g64 must stay in the same ballpark.
        assert!(s64.cycles <= s32.cycles * 1.4, "{} vs {}", s64.cycles, s32.cycles);
    }

    #[test]
    fn half2_is_faster_than_float() {
        // Fig. 14: ~1.79x average speedup from the adaptation.
        let csr = skewed_graph(8);
        let f = 64;
        let mut rng = StdRng::seed_from_u64(9);
        let xf: Vec<f32> = (0..csr.num_cols() * f).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let x = f32_slice_to_half(&xf);
        let (_, sf) = spmm_float(&dev(), &csr, EdgeWeights::Ones, &xf, f);
        let (_, sh) = spmm_half2(&dev(), &csr, EdgeWeights::Ones, &x, f);
        let speedup = sf.cycles / sh.cycles;
        assert!(
            speedup > 1.2,
            "expected a clear half2 win, got {speedup:.2}x ({} vs {})",
            sf.cycles,
            sh.cycles
        );
    }
}
