//! Edge-case coverage: degenerate graphs, extreme shapes, and boundary
//! feature lengths that the tiling/padding machinery must survive.

use halfgnn_graph::{Coo, Csr};
use halfgnn_half::slice::f32_slice_to_half;
use halfgnn_half::Half;
use halfgnn_kernels::baseline::cusparse;
use halfgnn_kernels::common::{EdgeWeights, Reduce, ScalePlacement, VectorWidth};
use halfgnn_kernels::{edge_ops, halfgnn_sddmm, halfgnn_spmm, huang};
use halfgnn_sim::DeviceConfig;

fn dev() -> DeviceConfig {
    DeviceConfig::a100_like()
}

fn cfg_none() -> halfgnn_spmm::SpmmConfig {
    halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() }
}

#[test]
fn empty_graph_every_kernel() {
    let coo = Coo::from_edges(6, 6, &[]);
    let x = vec![Half::ONE; 6 * 8];
    let (y, _) = halfgnn_spmm::spmm(&dev(), &coo, EdgeWeights::Ones, &x, 8, None, &cfg_none());
    assert!(y.iter().all(|v| v.is_zero()));
    let (s, _) = halfgnn_sddmm::sddmm(&dev(), &coo, &x, &x, 8, VectorWidth::Half8);
    assert!(s.is_empty());
    let (m, _) = halfgnn_spmm::edge_reduce::<Half>(&dev(), &coo, &[], Reduce::Max);
    assert!(m.iter().all(|v| v.is_zero()));
    let xf = vec![1.0f32; 6 * 8];
    let (yf, _) = cusparse::spmm_float(&dev(), &coo, EdgeWeights::Ones, &xf, 8, None);
    assert!(yf.iter().all(|&v| v == 0.0));
}

#[test]
fn single_edge_graph() {
    let coo = Coo::from_edges(2, 2, &[(0, 1)]);
    let x = f32_slice_to_half(&[1.0, 2.0, 3.0, 4.0]);
    let (y, _) = halfgnn_spmm::spmm(&dev(), &coo, EdgeWeights::Ones, &x, 2, None, &cfg_none());
    assert_eq!(y[0].to_f32(), 3.0);
    assert_eq!(y[1].to_f32(), 4.0);
    assert!(y[2].is_zero() && y[3].is_zero());
}

#[test]
fn self_loop_only_graph() {
    let edges: Vec<(u32, u32)> = (0..5).map(|v| (v, v)).collect();
    let coo = Coo::from_edges(5, 5, &edges);
    let x = f32_slice_to_half(&(0..10).map(|i| i as f32).collect::<Vec<_>>());
    let (y, _) = halfgnn_spmm::spmm(&dev(), &coo, EdgeWeights::Ones, &x, 2, None, &cfg_none());
    for (a, b) in y.iter().zip(&x) {
        assert_eq!(a.to_f32(), b.to_f32(), "identity aggregation");
    }
}

#[test]
fn exactly_one_warp_tile_boundary() {
    // 64 edges = exactly one warp tile; 65 spills into the second warp.
    for nnz in [63usize, 64, 65, 255, 256, 257] {
        let edges: Vec<(u32, u32)> = (0..nnz as u32).map(|e| (e % 7, (e / 7) % 31)).collect();
        let coo = Coo::from_edges(31, 31, &edges);
        let f = 4;
        let x = f32_slice_to_half(&(0..31 * f).map(|i| (i % 5) as f32 * 0.25).collect::<Vec<_>>());
        let (y, _) = halfgnn_spmm::spmm(&dev(), &coo, EdgeWeights::Ones, &x, f, None, &cfg_none());
        let want = halfgnn_kernels::reference::spmm_f64(
            &coo,
            EdgeWeights::Ones,
            &halfgnn_kernels::reference::half_to_f64(&x),
            f,
            Reduce::Sum,
            None,
        );
        halfgnn_kernels::reference::assert_close_half(&y, &want, 0.02, 0.02, &format!("nnz={nnz}"));
    }
}

#[test]
fn feature_length_two_minimum() {
    // F = 2 is the smallest half2-legal width: one half2 lane per row.
    let coo =
        Csr::from_edges(10, 10, &[(0, 1), (1, 2), (5, 9)]).symmetrized_with_self_loops().to_coo();
    let x = f32_slice_to_half(&(0..20).map(|i| i as f32 * 0.1).collect::<Vec<_>>());
    let (y, _) = halfgnn_spmm::spmm(&dev(), &coo, EdgeWeights::Ones, &x, 2, None, &cfg_none());
    assert!(y.iter().all(|v| v.is_finite()));
    let (s, _) = halfgnn_sddmm::sddmm(&dev(), &coo, &x, &x, 2, VectorWidth::Half2);
    assert_eq!(s.len(), coo.nnz());
}

#[test]
fn large_feature_length_256() {
    let coo = Coo::from_edges(4, 4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
    let f = 256;
    let x =
        f32_slice_to_half(&(0..4 * f).map(|i| ((i % 11) as f32 - 5.0) * 0.1).collect::<Vec<_>>());
    let (y, _) = halfgnn_spmm::spmm(&dev(), &coo, EdgeWeights::Ones, &x, f, None, &cfg_none());
    // Row 0 = X1 exactly.
    for j in 0..f {
        assert_eq!(y[j].to_f32(), x[f + j].to_f32());
    }
    let (s, _) = halfgnn_sddmm::sddmm(&dev(), &coo, &x, &x, f, VectorWidth::Half8);
    assert_eq!(s.len(), 4);
    assert!(s.iter().all(|v| v.is_finite()));
}

#[test]
fn rectangular_spmm() {
    // 3 rows x 5 cols: kernels must respect non-square shapes.
    let coo = Coo::from_edges(3, 5, &[(0, 4), (1, 0), (2, 2), (2, 4)]);
    let x = f32_slice_to_half(&(0..5 * 2).map(|i| i as f32).collect::<Vec<_>>());
    let (y, _) = halfgnn_spmm::spmm(&dev(), &coo, EdgeWeights::Ones, &x, 2, None, &cfg_none());
    assert_eq!(y.len(), 3 * 2);
    assert_eq!(y[0].to_f32(), 8.0); // X4[0]
    assert_eq!(y[4].to_f32(), 4.0 + 8.0); // X2[0] + X4[0]
}

#[test]
fn zero_weights_zero_output() {
    let coo = Coo::from_edges(3, 3, &[(0, 1), (1, 2), (2, 0)]);
    let w = vec![Half::ZERO; 3];
    let x = f32_slice_to_half(&[1.0; 6]);
    let (y, _) =
        halfgnn_spmm::spmm(&dev(), &coo, EdgeWeights::Values(&w), &x, 2, None, &cfg_none());
    assert!(y.iter().all(|v| v.is_zero()));
}

#[test]
fn negative_and_subnormal_weights_survive() {
    let coo = Coo::from_edges(1, 2, &[(0, 0), (0, 1)]);
    let w = f32_slice_to_half(&[-1.0, 1e-7]); // second is subnormal in f16
    let x = f32_slice_to_half(&[2.0, 2.0, 4.0, 4.0]);
    let (y, _) =
        halfgnn_spmm::spmm(&dev(), &coo, EdgeWeights::Values(&w), &x, 2, None, &cfg_none());
    assert!((y[0].to_f32() + 2.0).abs() < 1e-2);
}

#[test]
fn edge_ops_on_isolated_vertices() {
    // Rows with no edges must not poison the row-gathered ops.
    let coo = Coo::from_edges(10, 10, &[(3, 4), (7, 2)]);
    let s_src = f32_slice_to_half(&(0..10).map(|i| i as f32 * 0.1).collect::<Vec<_>>());
    let s_dst = s_src.clone();
    let (e, _) = edge_ops::src_dst_add_leakyrelu(&dev(), &coo, &s_src, &s_dst, 0.2);
    assert_eq!(e.len(), 2);
    let (m, _) = halfgnn_spmm::edge_reduce(&dev(), &coo, &e, Reduce::Max);
    assert_eq!(m.len(), 10);
    assert!(m[0].is_zero(), "empty row max defined as 0");
}

#[test]
fn huang_on_degree_one_graph() {
    // Path graph: every group has exactly 1-3 neighbors, no multi-group rows.
    let edges: Vec<(u32, u32)> = (0..49u32).map(|v| (v, v + 1)).collect();
    let csr = Csr::from_edges(50, 50, &edges).symmetrized_with_self_loops();
    let x = f32_slice_to_half(&(0..50 * 4).map(|i| (i % 3) as f32).collect::<Vec<_>>());
    let (y, stats) = huang::spmm_half2(&dev(), &csr, EdgeWeights::Ones, &x, 4);
    assert!(y.iter().all(|v| v.is_finite()));
    assert_eq!(stats.totals.atomics_f16, 0);
    let want = halfgnn_kernels::reference::spmm_f64(
        &csr.to_coo(),
        EdgeWeights::Ones,
        &halfgnn_kernels::reference::half_to_f64(&x),
        4,
        Reduce::Sum,
        None,
    );
    halfgnn_kernels::reference::assert_close_half(&y, &want, 0.02, 0.02, "path graph");
}

#[test]
fn max_reduce_with_all_negative_values() {
    let coo = Coo::from_edges(2, 2, &[(0, 0), (0, 1)]);
    let w = f32_slice_to_half(&[-5.0, -3.0]);
    let (m, _) = halfgnn_spmm::edge_reduce(&dev(), &coo, &w, Reduce::Max);
    assert_eq!(m[0].to_f32(), -3.0, "max of negatives is not clamped to zero");
    assert!(m[1].is_zero(), "empty row is zero by definition");
}
