//! GE-SpMM-style vanilla vertex-parallel SpMM (float).
//!
//! One warp per row; the warp walks its row's neighborhood 32 edges at a
//! time (the implicit grouping §5.2.1 notes). No workload balancing: a hub
//! row keeps one warp busy for `degree/32` iterations while other warps
//! idle — visible as a large max-CTA time on skewed graphs.

use crate::common::launch;
use halfgnn_graph::Csr;
use halfgnn_sim::launch::{commit_all, LaunchParams, WriteList};
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{DeviceConfig, KernelStats};

/// Rows per CTA (4 warps, one row each).
const ROWS_PER_CTA: usize = 4;

/// `Y ← A X` in f32, vertex-parallel, sum reduction.
pub fn spmm_float(dev: &DeviceConfig, csr: &Csr, x: &[f32], f: usize) -> (Vec<f32>, KernelStats) {
    assert_eq!(x.len(), csr.num_cols() * f, "X shape mismatch");
    let n = csr.num_rows();
    let num_ctas = n.div_ceil(ROWS_PER_CTA).max(1);

    let mut space = AddrSpace::new();
    let cols_base = space.alloc(csr.nnz(), 4);
    let x_base = space.alloc(x.len(), 4);
    let y_base = space.alloc(n * f, 4);

    let (cta_outs, stats) =
        launch(dev, "ge_spmm_f32", LaunchParams { num_ctas, warps_per_cta: ROWS_PER_CTA }, |cta| {
            let mut writes: WriteList<f32> = WriteList::new();
            for wi in 0..ROWS_PER_CTA {
                let row = cta.id * ROWS_PER_CTA + wi;
                if row >= n {
                    break;
                }
                let neigh = csr.row(row as u32);
                if neigh.is_empty() {
                    continue;
                }
                let mut warp = cta.warp(wi);
                let off = csr.offsets()[row];
                // Column indices in 32-edge groups.
                warp.load_contiguous(cols_base + off as u64 * 4, neigh.len(), 4);
                // Feature-parallel loads + FMA per neighbor.
                warp.load_feature_rows(
                    neigh.iter().map(|&c| x_base + c as u64 * (f as u64 * 4)),
                    f * 4,
                    4,
                );
                warp.float_ops((neigh.len() as u64 * f as u64).div_ceil(32));
                warp.store_contiguous(y_base + row as u64 * (f as u64 * 4), f, 4);

                let mut acc = vec![0f32; f];
                for &c in neigh {
                    for (a, &xv) in acc.iter_mut().zip(&x[c as usize * f..(c as usize + 1) * f]) {
                        *a += xv;
                    }
                }
                writes.assign(row * f, acc);
            }
            writes
        });

    let mut y = vec![0f32; n * f];
    commit_all(cta_outs, &mut y);
    (y, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{EdgeWeights, Reduce};
    use crate::reference::{assert_close_f32, f32_to_f64, spmm_f64};
    use halfgnn_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dev() -> DeviceConfig {
        DeviceConfig::a100_like()
    }

    #[test]
    fn fast_executor_matches_sim_bitwise() {
        let edges = gen::erdos_renyi(200, 1_000, 9);
        let csr = Csr::from_edges(200, 200, &edges).symmetrized_with_self_loops();
        let f = 16;
        let mut rng = StdRng::seed_from_u64(10);
        let x: Vec<f32> = (0..csr.num_cols() * f).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (sim_y, _) = spmm_float(&dev(), &csr, &x, f);
        let (fast_y, fast_s) = spmm_float(&dev().fast(), &csr, &x, f);
        assert_eq!(
            sim_y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            fast_y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );
        assert_eq!(fast_s.cycles, 0.0);
    }

    #[test]
    fn matches_reference() {
        let edges = gen::erdos_renyi(300, 1_500, 1);
        let csr = Csr::from_edges(300, 300, &edges).symmetrized_with_self_loops();
        let f = 16;
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<f32> = (0..csr.num_cols() * f).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (y, _) = spmm_float(&dev(), &csr, &x, f);
        let want =
            spmm_f64(&csr.to_coo(), EdgeWeights::Ones, &f32_to_f64(&x), f, Reduce::Sum, None);
        assert_close_f32(&y, &want, 1e-4, 1e-4, "ge_spmm");
    }

    #[test]
    fn no_atomics_in_vertex_parallel() {
        let edges = gen::erdos_renyi(100, 400, 3);
        let csr = Csr::from_edges(100, 100, &edges).symmetrized_with_self_loops();
        let x = vec![1.0f32; 100 * 8];
        let (_, stats) = spmm_float(&dev(), &csr, &x, 8);
        assert_eq!(stats.totals.atomics_f32, 0);
        assert_eq!(stats.totals.atomics_f16, 0);
    }

    #[test]
    fn hub_rows_create_workload_imbalance() {
        // A star graph: one warp owns the hub row while the rest idle; the
        // edge-parallel HalfGNN design spreads that hub over many warps.
        let mut edges: Vec<(u32, u32)> = (1..1_000u32).map(|c| (0, c)).collect();
        edges.extend((1..999u32).map(|v| (v, v + 1)));
        let csr = Csr::from_edges(1_000, 1_000, &edges);
        let f = 32;
        let x = vec![0.5f32; 1_000 * f];
        let (_, vanilla) = spmm_float(&dev(), &csr, &x, f);
        let xh: Vec<halfgnn_half::Half> =
            x.iter().map(|&v| halfgnn_half::Half::from_f32(v)).collect();
        let (_, balanced) = crate::halfgnn_spmm::spmm(
            &dev(),
            &csr.to_coo(),
            EdgeWeights::Ones,
            &xh,
            f,
            None,
            &crate::halfgnn_spmm::SpmmConfig {
                scaling: crate::common::ScalePlacement::None,
                ..Default::default()
            },
        );
        assert!(
            vanilla.cycles > balanced.cycles,
            "imbalanced {} should lose to balanced {}",
            vanilla.cycles,
            balanced.cycles
        );
    }
}
