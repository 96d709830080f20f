//! Property-based validation: every kernel agrees with the f64 reference
//! on arbitrary random graphs and features, and the design invariants
//! (non-atomic staging, discretized overflow safety) hold universally.

use halfgnn_graph::{Coo, Csr, VertexId};
use halfgnn_half::slice::f32_slice_to_half;
use halfgnn_half::{overflow, Half};
use halfgnn_kernels::baseline::cusparse;
use halfgnn_kernels::baseline::dgl_sddmm;
use halfgnn_kernels::common::{EdgeWeights, Reduce, ScalePlacement, VectorWidth};
use halfgnn_kernels::reference;
use halfgnn_kernels::{edge_ops, fused, halfgnn_sddmm, halfgnn_spmm, huang};
use halfgnn_sim::DeviceConfig;
use proptest::prelude::*;

/// Arbitrary graph + padded feature length + half features (|x| ≤ 1).
fn arb_case() -> impl Strategy<Value = (Csr, usize, Vec<Half>, Vec<Half>)> {
    (3usize..40, 1usize..5)
        .prop_flat_map(|(n, fpow)| {
            let f = 8 << (fpow % 3); // 8, 16, 32
            let edge = (0..n as VertexId, 0..n as VertexId);
            (
                Just(n),
                Just(f),
                prop::collection::vec(edge, 0..120),
                prop::collection::vec(-1.0f32..1.0, n * f),
            )
        })
        .prop_map(|(n, f, edges, feats)| {
            let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
            let x = f32_slice_to_half(&feats);
            let w: Vec<Half> =
                (0..csr.nnz()).map(|i| Half::from_f32(((i % 17) as f32 - 8.0) / 8.0)).collect();
            (csr, f, x, w)
        })
}

/// Arbitrary attention case: unsymmetrized graph (so empty rows occur
/// naturally), even feature width, raw attention scores. `all_negative`
/// forces every score below zero — the case where a zero-identity bug in
/// the fused running-max/softmax would surface immediately.
fn arb_attn_case() -> impl Strategy<Value = (Coo, usize, Vec<Half>, Vec<Half>, Vec<Half>)> {
    (3usize..32, 0usize..3)
        .prop_flat_map(|(n, fpow)| {
            let f = 2 << fpow; // 2, 4, 8
            let edge = (0..n as VertexId, 0..n as VertexId);
            (
                Just(n),
                Just(f),
                prop::collection::vec(edge, 0..100),
                prop::collection::vec(-3.0f32..3.0, n),
                prop::collection::vec(-3.0f32..3.0, n),
                prop::collection::vec(-1.0f32..1.0, n * f),
                0usize..2, // vendored proptest has no bool strategy
            )
        })
        .prop_map(|(n, f, edges, sr, sc, z, neg)| {
            let all_negative = neg == 1;
            let coo = Csr::from_edges(n, n, &edges).to_coo();
            let scores = |v: Vec<f32>| -> Vec<Half> {
                let v: Vec<f32> =
                    v.into_iter().map(|s| if all_negative { -s.abs() - 0.5 } else { s }).collect();
                f32_slice_to_half(&v)
            };
            (coo, f, scores(sr), scores(sc), f32_slice_to_half(&z))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_attention_matches_the_unfused_chain(
        (coo, f, s_row, s_col, z) in arb_attn_case()
    ) {
        // The fused SDDMM → edge-softmax → SpMM pass is a pure
        // cost/traffic optimisation: for ANY graph (empty rows included)
        // and ANY scores (all-negative included) it must land inside the
        // `reference::close` band of the five-kernel chain, with zero
        // overflow-provenance events from its internal exp/div path.
        let dev = DeviceConfig::a100_like();
        let slope = 0.2;
        let ((fwd, _), fsum) = overflow::isolated(|| {
            fused::fused_attn_forward(&dev, &coo, &s_row, &s_col, slope, &z, f)
        });
        prop_assert!(fsum.is_clean(), "{} forward overflow events", fsum.nonfinite());

        let (e, _) = edge_ops::src_dst_add_leakyrelu(&dev, &coo, &s_row, &s_col, slope);
        let (m, _) = halfgnn_spmm::edge_reduce(&dev, &coo, &e, Reduce::Max);
        let (num, _) = edge_ops::sub_row_exp(&dev, &coo, &e, &m, true);
        let (zs, _) = halfgnn_spmm::edge_reduce(&dev, &coo, &num, Reduce::Sum);
        let (alpha, _) = edge_ops::div_row(&dev, &coo, &num, &zs);
        let cfg = halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() };
        let (y, _) = halfgnn_spmm::spmm(&dev, &coo, EdgeWeights::Values(&alpha), &z, f, None, &cfg);

        // The raw-score path is arithmetically identical: bit equality.
        for (i, (a, b)) in fwd.e.iter().zip(&e).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "e[{}]", i);
        }
        for (i, (a, b)) in fwd.alpha.iter().zip(&alpha).enumerate() {
            prop_assert!(
                reference::close(a.to_f64(), b.to_f64(), 2e-2, 2e-2),
                "alpha[{}]: fused {} vs unfused {}", i, a, b
            );
        }
        for (i, (a, b)) in fwd.out.iter().zip(&y).enumerate() {
            prop_assert!(
                reference::close(a.to_f64(), b.to_f64(), 3e-2, 3e-2),
                "out[{}]: fused {} vs unfused {}", i, a, b
            );
        }

        // Backward: fused softmax-grad vs the four-kernel chain.
        let dalpha: Vec<Half> =
            (0..coo.nnz()).map(|i| Half::from_f32(((i % 17) as f32 - 8.0) / 8.0)).collect();
        let ((de_f, _), bsum) = overflow::isolated(|| {
            fused::fused_softmax_grad(&dev, &coo, &fwd.alpha, &dalpha, &fwd.e, slope)
        });
        prop_assert!(bsum.is_clean(), "{} backward overflow events", bsum.nonfinite());
        let (prod, _) = edge_ops::mul(&dev, &coo, &alpha, &dalpha);
        let (t, _) = halfgnn_spmm::edge_reduce(&dev, &coo, &prod, Reduce::Sum);
        let (de_soft, _) = edge_ops::softmax_grad(&dev, &coo, &alpha, &dalpha, &t);
        let (de_u, _) = edge_ops::leakyrelu_grad(&dev, &coo, &e, &de_soft, slope);
        for (i, (a, b)) in de_f.iter().zip(&de_u).enumerate() {
            prop_assert!(
                reference::close(a.to_f64(), b.to_f64(), 2e-2, 2e-2),
                "de[{}]: fused {} vs unfused {}", i, a, b
            );
        }
    }

    #[test]
    fn halfgnn_spmm_matches_reference((csr, f, x, w) in arb_case()) {
        let dev = DeviceConfig::a100_like();
        let coo = csr.to_coo();
        let cfg = halfgnn_spmm::SpmmConfig {
            scaling: ScalePlacement::None,
            ..Default::default()
        };
        let (y, stats) = halfgnn_spmm::spmm(&dev, &coo, EdgeWeights::Values(&w), &x, f, None, &cfg);
        let want = reference::spmm_f64(
            &coo, EdgeWeights::Values(&w), &reference::half_to_f64(&x), f, Reduce::Sum, None,
        );
        for (i, (g, want)) in y.iter().zip(&want).enumerate() {
            let err = (g.to_f64() - want).abs();
            prop_assert!(err <= 0.05 + 0.05 * want.abs(), "[{i}] {g} vs {want}");
        }
        prop_assert_eq!(stats.totals.atomics_f16 + stats.totals.atomics_f32, 0);
    }

    #[test]
    fn discretized_never_overflows_with_mean_scaling((csr, f, x, _w) in arb_case()) {
        // Universal invariant: with mean scaling and |x| ≤ 1, discretized
        // SpMM output is a convex combination — finite and bounded by 1.
        let dev = DeviceConfig::a100_like();
        let coo = csr.to_coo();
        let scale = halfgnn_kernels::common::row_scales_mean(&csr.degrees());
        let (y, _) = halfgnn_spmm::spmm(
            &dev, &coo, EdgeWeights::Ones, &x, f, Some(&scale),
            &halfgnn_spmm::SpmmConfig::default(),
        );
        for v in &y {
            prop_assert!(v.is_finite());
            prop_assert!(v.to_f32().abs() <= 1.05, "mean output must stay bounded: {v}");
        }
    }

    #[test]
    fn sddmm_all_widths_match_reference((csr, f, x, _w) in arb_case()) {
        let dev = DeviceConfig::a100_like();
        let coo = csr.to_coo();
        let want = reference::sddmm_f64(
            &coo, &reference::half_to_f64(&x), &reference::half_to_f64(&x), f,
        );
        for width in [VectorWidth::Half2, VectorWidth::Half4, VectorWidth::Half8] {
            let (got, _) = halfgnn_sddmm::sddmm(&dev, &coo, &x, &x, f, width);
            for (i, (g, want)) in got.iter().zip(&want).enumerate() {
                let err = (g.to_f64() - want).abs();
                prop_assert!(err <= 0.05 + 0.05 * want.abs(), "{width:?}[{i}] {g} vs {want}");
            }
        }
    }

    #[test]
    fn cusparse_half_and_float_agree_in_range((csr, f, x, w) in arb_case()) {
        let dev = DeviceConfig::a100_like();
        let coo = csr.to_coo();
        let xf: Vec<f32> = x.iter().map(|h| h.to_f32()).collect();
        let wf: Vec<f32> = w.iter().map(|h| h.to_f32()).collect();
        let (yh, _) = cusparse::spmm_half(&dev, &coo, EdgeWeights::Values(&w), &x, f, None);
        let (yf, _) =
            cusparse::spmm_float(&dev, &coo, EdgeWeights::Values(&wf), &xf, f, None);
        for (a, b) in yh.iter().zip(&yf) {
            prop_assert!((a.to_f32() - b).abs() <= 0.05 + 0.05 * b.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn huang_variants_agree((csr, f, x, _w) in arb_case()) {
        let dev = DeviceConfig::a100_like();
        let xf: Vec<f32> = x.iter().map(|h| h.to_f32()).collect();
        let (yf, sf) = huang::spmm_float(&dev, &csr, EdgeWeights::Ones, &xf, f);
        let (yh, sh) = huang::spmm_half2(&dev, &csr, EdgeWeights::Ones, &x, f);
        for (a, b) in yh.iter().zip(&yf) {
            prop_assert!((a.to_f32() - b).abs() <= 0.08 + 0.05 * b.abs(), "{a} vs {b}");
        }
        // The half2 adaptation never uses atomics; the float original may.
        prop_assert_eq!(sh.totals.atomics_f16, 0);
        prop_assert_eq!(sh.totals.atomics_f32, 0);
        let _ = sf;
    }

    #[test]
    fn dgl_sddmm_agrees_with_halfgnn_sddmm((csr, f, x, _w) in arb_case()) {
        let dev = DeviceConfig::a100_like();
        let coo = csr.to_coo();
        let (a, _) = dgl_sddmm::sddmm_half(&dev, &coo, &x, &x, f);
        let (b, _) = halfgnn_sddmm::sddmm(&dev, &coo, &x, &x, f, VectorWidth::Half8);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!(
                (u.to_f32() - v.to_f32()).abs() <= 0.05 + 0.05 * u.to_f32().abs(),
                "{u} vs {v}"
            );
        }
    }

    #[test]
    fn edge_reduce_sum_equals_degree_on_ones(n in 3usize..60, m in 0usize..150) {
        let dev = DeviceConfig::a100_like();
        let edges = halfgnn_graph::gen::erdos_renyi(n, m.max(1), 7);
        let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
        let coo = csr.to_coo();
        let ones = vec![Half::ONE; coo.nnz()];
        let (sums, _) = halfgnn_spmm::edge_reduce(&dev, &coo, &ones, Reduce::Sum);
        for (v, s) in sums.iter().enumerate() {
            prop_assert_eq!(s.to_f32(), csr.degree(v as u32) as f32, "vertex {}", v);
        }
    }

    #[test]
    fn staging_protocol_correct_under_any_tiling(
        (csr, f, x, w) in arb_case(),
        edges_per_warp in 1usize..96,
        warps_per_cta in 1usize..6,
    ) {
        // The §5.2.3 write protocol must stay correct (and assign-disjoint,
        // checked by a debug_assert inside spmm) for ANY discretization
        // geometry, not just the default 64x4.
        let dev = DeviceConfig::a100_like();
        let coo = csr.to_coo();
        let cfg = halfgnn_spmm::SpmmConfig {
            scaling: ScalePlacement::None,
            tiling: halfgnn_kernels::common::Tiling { edges_per_warp, warps_per_cta },
            ..Default::default()
        };
        let (y, stats) = halfgnn_spmm::spmm(&dev, &coo, EdgeWeights::Values(&w), &x, f, None, &cfg);
        let want = reference::spmm_f64(
            &coo, EdgeWeights::Values(&w), &reference::half_to_f64(&x), f, Reduce::Sum, None,
        );
        for (i, (g, want)) in y.iter().zip(&want).enumerate() {
            let err = (g.to_f64() - want).abs();
            prop_assert!(
                err <= 0.08 + 0.05 * want.abs(),
                "tiling {edges_per_warp}x{warps_per_cta} [{i}]: {g} vs {want}"
            );
        }
        prop_assert_eq!(stats.totals.atomics_f16, 0);
    }

    #[test]
    fn staged_and_atomic_write_strategies_compute_the_same_values(
        (csr, f, x, w) in arb_case(),
        edges_per_warp in 1usize..16,
    ) {
        // §5.2.3: the staging-buffer protocol is a pure performance
        // optimisation over prior-work atomics — for ANY graph, feature
        // width, and warp geometry both strategies must land on the same
        // half-precision values (small tilings force boundary rows, the
        // only place the strategies differ).
        let dev = DeviceConfig::a100_like();
        let coo = csr.to_coo();
        let base = halfgnn_spmm::SpmmConfig {
            scaling: ScalePlacement::None,
            tiling: halfgnn_kernels::common::Tiling {
                edges_per_warp,
                ..Default::default()
            },
            ..Default::default()
        };
        let atomic = halfgnn_spmm::SpmmConfig {
            writes: halfgnn_kernels::common::WriteStrategy::Atomic,
            ..base
        };
        let (ys, ss) =
            halfgnn_spmm::spmm(&dev, &coo, EdgeWeights::Values(&w), &x, f, None, &base);
        let (ya, _) =
            halfgnn_spmm::spmm(&dev, &coo, EdgeWeights::Values(&w), &x, f, None, &atomic);
        prop_assert_eq!(ss.totals.atomics_f16 + ss.totals.atomics_f32, 0);
        for (i, (s, a)) in ys.iter().zip(&ya).enumerate() {
            prop_assert!(
                reference::close(s.to_f64(), a.to_f64(), 0.02, 0.02),
                "tiling {edges_per_warp} [{i}]: staged {s} vs atomic {a}"
            );
        }
    }

    #[test]
    fn edge_reduce_max_handles_all_negative_values_and_empty_rows(
        n in 3usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
    ) {
        // Max-reduce must not lean on a zero identity: with every edge
        // value negative, a `max(0, ·)` bug would surface immediately.
        // The graph is NOT symmetrized, so empty rows (defined as 0,
        // matching the reference) occur naturally.
        let dev = DeviceConfig::a100_like();
        let edges: Vec<(VertexId, VertexId)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as VertexId, v % n as VertexId))
            .collect();
        let coo = Csr::from_edges(n, n, &edges).to_coo();
        let w: Vec<Half> = (0..coo.nnz())
            .map(|i| Half::from_f32(-(((i % 23) + 1) as f32) / 4.0))
            .collect();
        let (got, _) = halfgnn_spmm::edge_reduce(&dev, &coo, &w, Reduce::Max);
        let wf: Vec<f64> = w.iter().map(|h| h.to_f64()).collect();
        let want = reference::edge_reduce_f64(&coo, &wf, Reduce::Max);
        for (r, (g, want)) in got.iter().zip(&want).enumerate() {
            // Max selects an exact input (or the empty-row zero): the
            // kernel must match the f64 reference bit for bit.
            prop_assert_eq!(g.to_f64(), *want, "row {}: {} vs {}", r, g, want);
        }
    }

    #[test]
    fn spmm_is_linear_in_x((csr, f, x, _w) in arb_case()) {
        // spmm(2x) == 2 * spmm(x) exactly in half (multiplying by 2 is
        // exact in binary floating point).
        let dev = DeviceConfig::a100_like();
        let coo = csr.to_coo();
        let cfg = halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() };
        let x2: Vec<Half> = x.iter().map(|h| Half::from_f32(h.to_f32() * 2.0)).collect();
        let (y1, _) = halfgnn_spmm::spmm(&dev, &coo, EdgeWeights::Ones, &x, f, None, &cfg);
        let (y2, _) = halfgnn_spmm::spmm(&dev, &coo, EdgeWeights::Ones, &x2, f, None, &cfg);
        for (a, b) in y1.iter().zip(&y2) {
            if a.is_finite() && b.is_finite() {
                prop_assert!((a.to_f32() * 2.0 - b.to_f32()).abs() <= 1e-2 + 0.01 * b.to_f32().abs());
            }
        }
    }
}
