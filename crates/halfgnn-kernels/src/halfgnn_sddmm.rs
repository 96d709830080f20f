//! **HalfGNN's edge-parallel SDDMM** (§5.1): per-edge dot products with
//! configurable vector width.
//!
//! SDDMM reduces along the feature dimension, so inter-thread shuffle
//! rounds are unavoidable — and every round is an implicit memory barrier
//! that caps how many loads are in flight (§5.1.1). The proposed `half4` /
//! `half8` types attack exactly that: with `half8`, one thread covers 8
//! features, so F=32 needs only 4 threads → 2 shuffle rounds and 4× the
//! bytes in flight per load instruction; the half2-only design needs 16
//! threads → 4 rounds; a scalar-half design needs 32 → 5 rounds.
//!
//! Sub-warps (§4.1) keep idle lanes busy: when one edge needs fewer than 32
//! threads, the warp processes `32 / threads_per_edge` edges concurrently.

use crate::common::launch;
use crate::common::{Tiling, VectorWidth};
use halfgnn_graph::Coo;
use halfgnn_half::slice::dot_half2_trees;
use halfgnn_half::Half;
use halfgnn_sim::launch::LaunchParams;
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{DeviceConfig, KernelStats};

/// Tunable SDDMM knobs: the data-load vector width (Fig. 12) and whether
/// sub-warps pack multiple edges into one warp (§4.1). Both are plan
/// dimensions the autotuner searches; `sub_warps: false` is the prior-work
/// layout (one edge per warp, idle lanes, a full 5-round shuffle tree) and
/// exists so the tuner can *measure* what sub-warping buys. The functional
/// result is identical either way — only the modeled cost differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SddmmConfig {
    /// Data-load vector type.
    pub width: VectorWidth,
    /// Pack `32 / threads_per_edge` edges per warp (the paper's design).
    pub sub_warps: bool,
    /// Edge-tile geometry. Used to be hard-coded to the default, which
    /// collapsed the tuner's SDDMM search to width/packing alone — at
    /// large `f` those tie, so tuning bought nothing (the BENCH_pr3
    /// dead-end). Geometry changes the CTA count and wave occupancy, so
    /// it is cost-distinguishable where widths are not.
    pub tiling: Tiling,
}

impl SddmmConfig {
    /// The paper's default for feature length `f`: the widest vector type
    /// the (padded) feature length supports, with sub-warps on.
    pub fn widest_for(f: usize) -> SddmmConfig {
        let width = if f.is_multiple_of(8) {
            VectorWidth::Half8
        } else if f.is_multiple_of(4) {
            VectorWidth::Half4
        } else {
            VectorWidth::Half2
        };
        SddmmConfig { width, sub_warps: true, tiling: Tiling::default() }
    }
}

/// `out[e] ← dot(U[row(e)], V[col(e)])` in half precision.
///
/// `width` selects the data-load vector type (Fig. 12 compares them);
/// arithmetic is always half2 (wider types have no native arithmetic —
/// §5.1.2), so `width` is half2 or wider. `f` must be a multiple of
/// `width.lanes()` (feature padding).
pub fn sddmm(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[Half],
    v: &[Half],
    f: usize,
    width: VectorWidth,
) -> (Vec<Half>, KernelStats) {
    sddmm_with_config(
        dev,
        coo,
        u,
        v,
        f,
        &SddmmConfig { width, sub_warps: true, tiling: Tiling::default() },
    )
}

/// [`sddmm`] with every plan knob explicit — the entry point the autotuner
/// dispatches through.
pub fn sddmm_with_config(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[Half],
    v: &[Half],
    f: usize,
    cfg: &SddmmConfig,
) -> (Vec<Half>, KernelStats) {
    sddmm_window(dev, coo, u, v, f, cfg, (0, coo.nnz()))
}

/// [`sddmm_with_config`] restricted to the global edge window `[e0, e1)` —
/// the per-shard launch of the distributed path (SDDMM output is per-edge,
/// so shards hand their contiguous global edge slice straight in). The
/// global tiling is clamped to the window, so window edges are
/// bit-identical to the full run; edges outside the window are zero.
#[allow(clippy::too_many_arguments)]
pub fn sddmm_window(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[Half],
    v: &[Half],
    f: usize,
    cfg: &SddmmConfig,
    edge_window: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    let width = cfg.width;
    let _site = halfgnn_half::overflow::site("halfgnn_sddmm");
    assert_eq!(u.len(), coo.num_rows() * f, "U shape mismatch");
    assert_eq!(v.len(), coo.num_cols() * f, "V shape mismatch");
    assert_ne!(
        width,
        VectorWidth::Half1,
        "SDDMM arithmetic is half2: its loads are half2 or wider"
    );
    assert_eq!(
        f % width.lanes(),
        0,
        "feature length {f} needs padding to a multiple of {}",
        width.lanes()
    );
    let (e0, e1) = edge_window;
    assert!(e0 <= e1 && e1 <= coo.nnz(), "bad edge window {edge_window:?}");

    let nnz = coo.nnz();
    let tiling = cfg.tiling;
    let (cta_lo, cta_hi) = tiling.cta_range(e0, e1);
    let num_ctas = cta_hi - cta_lo;
    let rows = coo.rows();
    let cols = coo.cols();

    let mut space = AddrSpace::new();
    let rows_base = space.alloc(nnz, 4);
    let cols_base = space.alloc(nnz, 4);
    let u_base = space.alloc(u.len(), 2);
    let v_base = space.alloc(v.len(), 2);
    let out_base = space.alloc(nnz, 2);

    // Threads cooperating on one edge, and shuffle rounds to combine them.
    // Without sub-warps each edge occupies the whole warp: the reduction
    // tree must synchronize all 32 lanes (5 rounds) and only one edge's
    // group is in flight per warp — the cost the §4.1 design removes.
    let threads_per_edge = (f / width.lanes()).clamp(1, 32);
    let (sub_warps, shuffle_rounds) = if cfg.sub_warps {
        (32 / threads_per_edge.max(1), threads_per_edge.next_power_of_two().trailing_zeros() as u64)
    } else {
        (1, 32u64.trailing_zeros() as u64)
    };

    let (cta_outs, stats) = launch(
        dev,
        "halfgnn_sddmm",
        LaunchParams { num_ctas, warps_per_cta: tiling.warps_per_cta },
        |cta| {
            let mut out: Vec<(usize, Vec<Half>)> = Vec::new();
            for wi in 0..tiling.warps_per_cta {
                let (s, e) = tiling.warp_range_in(cta.id + cta_lo, wi, e0, e1);
                if s >= e {
                    continue;
                }
                let n = e - s;
                let mut warp = cta.warp(wi);

                // Phase 1: edge-parallel load of NZE indices (§4.1.1).
                warp.load_contiguous(rows_base + s as u64 * 4, n, 4);
                warp.load_contiguous(cols_base + s as u64 * 4, n, 4);
                warp.smem_accesses((n as u64 * 2).div_ceil(32) + 2);
                warp.barrier();

                // Phase 2: feature loads of both endpoints at the chosen
                // vector width.
                let row_bytes = f * 2;
                warp.load_feature_rows(
                    (s..e).flat_map(|ei| {
                        [
                            u_base + rows[ei] as u64 * (f as u64 * 2),
                            v_base + cols[ei] as u64 * (f as u64 * 2),
                        ]
                    }),
                    row_bytes,
                    width.bytes(),
                );

                // Dot products: half2 arithmetic regardless of load width.
                let half2_lanes = (f / 2) as u64;
                warp.half2_ops((n as u64 * half2_lanes).div_ceil(32));
                if width.lanes() > 2 {
                    // In-register fold of the wider vector down to half2
                    // before any shuffle (half4: 1 add2; half8: 3 add2s per
                    // 8 lanes — charged at half2 throughput).
                    let folds_per_edge = (f / 2 - f / width.lanes()) as u64;
                    warp.half2_ops((n as u64 * folds_per_edge).div_ceil(32).max(1));
                }

                // Reduction: shuffle rounds per sub-warp group; every round
                // is a barrier for the whole warp.
                let groups = n.div_ceil(sub_warps) as u64;
                warp.shuffle_rounds(groups * shuffle_rounds);

                // Output: one half per edge, contiguous across the tile.
                warp.store_contiguous(out_base + s as u64 * 2, n.div_ceil(2), 4);

                // Functional computation, faithful to the reduction tree:
                // each thread accumulates its feature stripe in a half2
                // register, the stripes tree-combine in half2, and the final
                // half2 folds to one half (`dot_half2_tree`, eight edges at
                // a time on F16C hosts).
                let mut vals = vec![Half::ZERO; n];
                dot_half2_trees(
                    u,
                    &rows[s..e],
                    v,
                    &cols[s..e],
                    f,
                    threads_per_edge,
                    width.lanes(),
                    &mut vals,
                );
                warp.nonfinite_values(crate::common::count_nonfinite(&vals));
                out.push((s, vals));
            }
            out
        },
    );

    let mut result = vec![Half::ZERO; nnz];
    for cta in cta_outs {
        for (s, vals) in cta {
            result[s..s + vals.len()].copy_from_slice(&vals);
        }
    }
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_close_half, half_to_f64, sddmm_f64};
    use halfgnn_graph::gen;
    use halfgnn_graph::Csr;
    use halfgnn_half::slice::{dot_half2_tree, f32_slice_to_half};
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

    #[test]
    fn fast_executor_matches_sim_bitwise() {
        // The shuffle-tree accumulation order is part of the functional
        // result, so it must survive the backend swap at every width.
        let g = random_graph(120, 500, 11);
        let f = 32;
        let u = random_halves(g.num_rows() * f, 0.5, 12);
        let v = random_halves(g.num_cols() * f, 0.5, 13);
        let fast = dev().fast();
        let bits = |e: &[Half]| e.iter().map(|h| h.to_bits()).collect::<Vec<u16>>();
        for width in [VectorWidth::Half2, VectorWidth::Half4, VectorWidth::Half8] {
            let (sim_y, _) = sddmm(&dev(), &g, &u, &v, f, width);
            let (fast_y, fast_s) = sddmm(&fast, &g, &u, &v, f, width);
            assert_eq!(bits(&sim_y), bits(&fast_y), "{width:?}");
            assert_eq!(fast_s.cycles, 0.0);
            assert_eq!(fast_s.totals.shuffles, 0, "fast charging is a no-op");
        }
    }

    #[test]
    fn all_widths_match_reference() {
        let g = random_graph(150, 700, 1);
        for f in [16usize, 32, 64, 128] {
            let u = random_halves(g.num_rows() * f, 0.5, 2);
            let v = random_halves(g.num_cols() * f, 0.5, 3);
            let want = sddmm_f64(&g, &half_to_f64(&u), &half_to_f64(&v), f);
            for width in [VectorWidth::Half2, VectorWidth::Half4, VectorWidth::Half8] {
                let (got, _) = sddmm(&dev(), &g, &u, &v, f, width);
                assert_close_half(&got, &want, 0.03, 0.05, &format!("sddmm f={f} {width:?}"));
            }
        }
    }

    #[test]
    fn widths_agree_within_rounding() {
        // Different widths accumulate in different orders, so results can
        // differ by half-precision rounding — but no more.
        let g = random_graph(60, 250, 5);
        let f = 32;
        let u = random_halves(g.num_rows() * f, 1.0, 6);
        let v = random_halves(g.num_cols() * f, 1.0, 7);
        let (a, _) = sddmm(&dev(), &g, &u, &v, f, VectorWidth::Half2);
        let (b, _) = sddmm(&dev(), &g, &u, &v, f, VectorWidth::Half8);
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.to_f32(), y.to_f32());
            assert!((x - y).abs() <= 0.05 + 0.02 * x.abs().max(y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn half8_is_faster_than_half2() {
        // Fig. 12: fewer shuffle rounds + wider loads → speedup.
        let g = random_graph(2_000, 40_000, 8);
        let f = 64;
        let u = random_halves(g.num_rows() * f, 0.5, 9);
        let v = random_halves(g.num_cols() * f, 0.5, 10);
        let (_, s2) = sddmm(&dev(), &g, &u, &v, f, VectorWidth::Half2);
        let (_, s8) = sddmm(&dev(), &g, &u, &v, f, VectorWidth::Half8);
        assert!(s8.cycles < s2.cycles, "half8 {} should beat half2 {}", s8.cycles, s2.cycles);
        // And it does so via fewer barriers and fewer load instructions.
        assert!(s8.totals.shuffles < s2.totals.shuffles);
        assert!(s8.totals.load_instrs < s2.totals.load_instrs);
        // Same useful bytes either way.
        assert_eq!(s8.totals.useful_bytes_loaded, s2.totals.useful_bytes_loaded);
    }

    #[test]
    fn shuffle_round_counts_match_section_5_1_3() {
        // F = 32: half8 → 4 threads → 2 rounds; half2 → 16 threads → 4
        // rounds (the paper's exact example).
        let g = Coo::from_edges(2, 2, &[(0, 1)]);
        let f = 32;
        let u = random_halves(2 * f, 1.0, 11);
        let v = random_halves(2 * f, 1.0, 12);
        let (_, s8) = sddmm(&dev(), &g, &u, &v, f, VectorWidth::Half8);
        let (_, s2) = sddmm(&dev(), &g, &u, &v, f, VectorWidth::Half2);
        assert_eq!(s8.totals.shuffles, 2);
        assert_eq!(s2.totals.shuffles, 4);
    }

    #[test]
    #[should_panic(expected = "SDDMM arithmetic is half2")]
    fn half1_loads_are_rejected_by_name() {
        let g = random_graph(20, 60, 13);
        let f = 64;
        let u = random_halves(g.num_rows() * f, 1.0, 14);
        let v = random_halves(g.num_cols() * f, 1.0, 15);
        sddmm(&dev(), &g, &u, &v, f, VectorWidth::Half1);
    }

    #[test]
    fn widest_config_matches_the_model_layer_rule() {
        assert_eq!(SddmmConfig::widest_for(64).width, VectorWidth::Half8);
        assert_eq!(SddmmConfig::widest_for(12).width, VectorWidth::Half4);
        assert_eq!(SddmmConfig::widest_for(6).width, VectorWidth::Half2);
        assert!(SddmmConfig::widest_for(64).sub_warps);
    }

    #[test]
    fn disabling_sub_warps_costs_shuffles_but_changes_no_values() {
        // One edge per warp → a full 32-lane shuffle tree per edge and no
        // edge packing: strictly more modeled work, bit-identical output.
        let g = random_graph(100, 400, 30);
        let f = 32;
        let u = random_halves(g.num_rows() * f, 0.5, 31);
        let v = random_halves(g.num_cols() * f, 0.5, 32);
        let (a, sa) = sddmm(&dev(), &g, &u, &v, f, VectorWidth::Half8);
        let (b, sb) = sddmm_with_config(
            &dev(),
            &g,
            &u,
            &v,
            f,
            &SddmmConfig { sub_warps: false, ..SddmmConfig::widest_for(f) },
        );
        let bits = |e: &[Half]| e.iter().map(|h| h.to_bits()).collect::<Vec<u16>>();
        assert_eq!(bits(&a), bits(&b));
        assert!(
            sb.totals.shuffles > sa.totals.shuffles,
            "{} vs {}",
            sb.totals.shuffles,
            sa.totals.shuffles
        );
        assert!(sb.cycles > sa.cycles, "{} vs {}", sb.cycles, sa.cycles);
    }

    #[test]
    fn tiling_geometry_changes_cost_but_not_values() {
        // The knob the tuner gained in PR 4: geometry moves modeled cost
        // (CTA count, wave occupancy) while the output stays bit-identical.
        let g = random_graph(1_500, 20_000, 40);
        let f = 64;
        let u = random_halves(g.num_rows() * f, 0.5, 41);
        let v = random_halves(g.num_cols() * f, 0.5, 42);
        let small_dev = DeviceConfig::tiny();
        let base = SddmmConfig::widest_for(f);
        let wide = SddmmConfig { tiling: Tiling { edges_per_warp: 128, warps_per_cta: 8 }, ..base };
        let (a, sa) = sddmm_with_config(&small_dev, &g, &u, &v, f, &base);
        let (b, sb) = sddmm_with_config(&small_dev, &g, &u, &v, f, &wide);
        let bits = |e: &[Half]| e.iter().map(|h| h.to_bits()).collect::<Vec<u16>>();
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(sa.cycles, sb.cycles, "geometry must move modeled cost");
    }

    #[test]
    fn unpadded_feature_length_rejected() {
        let g = Coo::from_edges(2, 2, &[(0, 1)]);
        let u = random_halves(2 * 12, 1.0, 1);
        let v = random_halves(2 * 12, 1.0, 2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sddmm(&dev(), &g, &u, &v, 12, VectorWidth::Half8)
        }));
        assert!(r.is_err(), "F=12 is not a multiple of 8");
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Coo::from_edges(4, 4, &[]);
        let u = random_halves(4 * 8, 1.0, 1);
        let v = random_halves(4 * 8, 1.0, 2);
        let (out, _) = sddmm(&dev(), &g, &u, &v, 8, VectorWidth::Half2);
        assert!(out.is_empty());
    }

    #[test]
    fn dot_tree_matches_simple_dot_for_small_values() {
        let u = random_halves(64, 0.25, 20);
        let v = random_halves(64, 0.25, 21);
        let exact: f64 = u.iter().zip(&v).map(|(a, b)| a.to_f64() * b.to_f64()).sum();
        for (threads, lanes) in [(32, 2), (16, 2), (8, 4), (4, 8), (8, 8)] {
            let got = dot_half2_tree(&u, &v, threads, lanes).to_f64();
            assert!(
                (got - exact).abs() < 0.05 + 0.03 * exact.abs(),
                "threads={threads} lanes={lanes}: {got} vs {exact}"
            );
        }
    }
}
