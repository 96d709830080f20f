//! Edge-level elementwise kernels — the pieces of edge-softmax (Eq. 1) and
//! its backward pass, each written once over [`Scalar`]: the half
//! instantiation is what HalfGNN and DGL-half execute (half intrinsics,
//! 2-byte elements), the `f32` one what DGL's float GAT executes (float
//! arithmetic, 4-byte elements, `_f32` kernel names).
//!
//! These are where mixed-precision training leaks performance (§3.1.2):
//! PyTorch AMP force-promotes `exp` (and friends) to float, dragging every
//! downstream sparse kernel to float or forcing h2f/f2h round trips. The
//! `shadow` flag on [`sub_row_exp`] switches between that AMP behaviour and
//! the paper's shadow API (§5.3), which stays in half because
//! `exp(e_ij − m_i) ∈ (0, 1]` cannot overflow.

use crate::common::launch;
use crate::common::{count_nonfinite, Tiling};
use halfgnn_graph::Coo;
use halfgnn_half::{overflow, Scalar};
use halfgnn_sim::launch::LaunchParams;
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{DeviceConfig, KernelStats};

/// Charging profile of one edge-map kernel.
#[derive(Clone, Copy)]
struct EdgeMapCost {
    /// Row-vector gathers per edge (tensors indexed by `row(e)`).
    row_gathers: u32,
    /// Column-vector gathers per edge.
    col_gathers: u32,
    /// Edge-tensor operand loads per edge.
    edge_loads: u32,
    /// Half instructions per 32 edges.
    half_instrs: u64,
    /// Float instructions per 32 edges (float kernels, AMP-promoted ops).
    float_instrs: u64,
    /// Conversion instructions per 32 edges (h2f/f2h round trips).
    convert_instrs: u64,
    /// Materialized f32 tensor round trips per edge tensor (AMP promotion
    /// writes a float copy to global memory and reads it back).
    f32_roundtrips: u32,
}

impl EdgeMapCost {
    /// A kernel computing natively in `T`: `instrs` per 32 edges on `T`'s
    /// pipe, no conversions.
    fn native<T: Scalar>(row_gathers: u32, col_gathers: u32, edge_loads: u32, instrs: u64) -> Self {
        let (half_instrs, float_instrs) = if T::HALF { (instrs, 0) } else { (0, instrs) };
        EdgeMapCost {
            row_gathers,
            col_gathers,
            edge_loads,
            half_instrs,
            float_instrs,
            convert_instrs: 0,
            f32_roundtrips: 0,
        }
    }
}

/// Shared edge-parallel skeleton: loads per the cost profile, computes
/// `op(e)` functionally, stores one element per edge.
fn edge_map<T: Scalar>(
    dev: &DeviceConfig,
    name: &'static str,
    coo: &Coo,
    cost: EdgeMapCost,
    op: impl Fn(usize, u32, u32) -> T + Sync,
) -> (Vec<T>, KernelStats) {
    let _site = overflow::site(name);
    let elem_bytes = T::BYTES;
    let nnz = coo.nnz();
    let tiling = Tiling::default();
    let num_ctas = tiling.num_ctas(nnz);
    let rows = coo.rows();
    let cols = coo.cols();

    let mut space = AddrSpace::new();
    let rows_base = space.alloc(nnz, 4);
    let cols_base = space.alloc(nnz, 4);
    let row_vec_base = space.alloc(coo.num_rows(), elem_bytes);
    let col_vec_base = space.alloc(coo.num_cols(), elem_bytes);
    let edge_base = space.alloc(nnz, elem_bytes);
    let out_base = space.alloc(nnz, elem_bytes);

    let (cta_outs, stats) =
        launch(dev, name, LaunchParams { num_ctas, warps_per_cta: tiling.warps_per_cta }, |cta| {
            let mut out: Vec<(usize, Vec<T>)> = Vec::new();
            for wi in 0..tiling.warps_per_cta {
                let (s, e) = tiling.warp_range(cta.id, wi, nnz);
                if s >= e {
                    continue;
                }
                let n = e - s;
                let mut warp = cta.warp(wi);
                if cost.row_gathers > 0 {
                    warp.load_contiguous(rows_base + s as u64 * 4, n, 4);
                    for _ in 0..cost.row_gathers {
                        // Row-sorted edges: gathers of m[row] mostly share
                        // sectors, which load_gather dedups.
                        warp.load_gather(
                            (s..e).map(|ei| row_vec_base + rows[ei] as u64 * elem_bytes as u64),
                            elem_bytes,
                        );
                    }
                }
                if cost.col_gathers > 0 {
                    warp.load_contiguous(cols_base + s as u64 * 4, n, 4);
                    for _ in 0..cost.col_gathers {
                        warp.load_gather(
                            (s..e).map(|ei| col_vec_base + cols[ei] as u64 * elem_bytes as u64),
                            elem_bytes,
                        );
                    }
                }
                for _ in 0..cost.edge_loads {
                    // Half operands load as half2-cast words; floats as f32.
                    if elem_bytes == 2 {
                        warp.load_contiguous(edge_base + s as u64 * 2, n.div_ceil(2), 4);
                    } else {
                        warp.load_contiguous(edge_base + s as u64 * 4, n, 4);
                    }
                }
                let per32 = (n as u64).div_ceil(32);
                warp.half_ops(cost.half_instrs * per32);
                warp.float_ops(cost.float_instrs * per32);
                warp.convert_ops(cost.convert_instrs * per32);
                for _ in 0..cost.f32_roundtrips {
                    // AMP materializes a float tensor in global memory and
                    // the next kernel reads it back (§3.1.2).
                    warp.store_contiguous(edge_base + s as u64 * 4, n, 4);
                    warp.load_contiguous(edge_base + s as u64 * 4, n, 4);
                }
                if elem_bytes == 2 {
                    warp.store_contiguous(out_base + s as u64 * 2, n.div_ceil(2), 4);
                } else {
                    warp.store_contiguous(out_base + s as u64 * 4, n, 4);
                }

                let vals: Vec<T> = (s..e).map(|ei| op(ei, rows[ei], cols[ei])).collect();
                warp.nonfinite_values(count_nonfinite(&vals));
                out.push((s, vals));
            }
            out
        });

    let mut result = vec![T::default(); nnz];
    for cta in cta_outs {
        for (s, vals) in cta {
            result[s..s + vals.len()].copy_from_slice(&vals);
        }
    }
    (result, stats)
}

/// `e_ij ← LeakyReLU(s_src[row] + s_dst[col])` — GAT's raw attention
/// logits from per-vertex projections (an SDDMM variant).
pub fn src_dst_add_leakyrelu<T: Scalar>(
    dev: &DeviceConfig,
    coo: &Coo,
    s_src: &[T],
    s_dst: &[T],
    slope: f32,
) -> (Vec<T>, KernelStats) {
    assert_eq!(s_src.len(), coo.num_rows());
    assert_eq!(s_dst.len(), coo.num_cols());
    let slope = T::from_f32(slope);
    let name = T::pick("edge_add_leakyrelu", "edge_add_leakyrelu_f32");
    edge_map(dev, name, coo, EdgeMapCost::native::<T>(1, 1, 0, 3), |_, r, c| {
        let v = s_src[r as usize].add(s_dst[c as usize]);
        if v.to_f32() >= 0.0 {
            v
        } else {
            v.mul(slope)
        }
    })
}

/// `out ← exp(e − m[row])`, the numerically-stabilized softmax numerator.
///
/// * `shadow == true`: the paper's shadow API (§5.3) — pure half
///   arithmetic; safe because the argument is ≤ 0.
/// * `shadow == false`: PyTorch-AMP behaviour — h2f on the input, float
///   `exp`, f2h on the output; same values, extra conversion traffic.
///
/// An `f32` kernel has nothing to promote: `shadow` changes nothing.
pub fn sub_row_exp<T: Scalar>(
    dev: &DeviceConfig,
    coo: &Coo,
    e: &[T],
    m: &[T],
    shadow: bool,
) -> (Vec<T>, KernelStats) {
    assert_eq!(e.len(), coo.nnz());
    assert_eq!(m.len(), coo.num_rows());
    if T::HALF && !shadow {
        let cost = EdgeMapCost {
            row_gathers: 1,
            col_gathers: 0,
            edge_loads: 1,
            half_instrs: 1,
            float_instrs: 4,
            convert_instrs: 3,
            f32_roundtrips: 2,
        };
        // AMP: promote, compute in f32, round back.
        return edge_map(dev, "edge_sub_exp_amp", coo, cost, |ei, r, _| {
            T::from_f32((e[ei].to_f32() - m[r as usize].to_f32()).exp())
        });
    }
    let name = T::pick("edge_sub_exp_shadow", "edge_sub_exp_f32");
    edge_map(dev, name, coo, EdgeMapCost::native::<T>(1, 0, 1, 4), |ei, r, _| {
        e[ei].sub(m[r as usize]).exp()
    })
}

/// `α ← e / z[row]`, the softmax normalization.
pub fn div_row<T: Scalar>(
    dev: &DeviceConfig,
    coo: &Coo,
    e: &[T],
    z: &[T],
) -> (Vec<T>, KernelStats) {
    assert_eq!(e.len(), coo.nnz());
    assert_eq!(z.len(), coo.num_rows());
    let name = T::pick("edge_div_row", "edge_div_row_f32");
    edge_map(dev, name, coo, EdgeMapCost::native::<T>(1, 0, 1, 2), |ei, r, _| {
        e[ei].div(z[r as usize])
    })
}

/// Elementwise product of two edge tensors (softmax backward).
pub fn mul<T: Scalar>(dev: &DeviceConfig, coo: &Coo, a: &[T], b: &[T]) -> (Vec<T>, KernelStats) {
    assert_eq!(a.len(), coo.nnz());
    assert_eq!(b.len(), coo.nnz());
    let name = T::pick("edge_mul", "edge_mul_f32");
    edge_map(dev, name, coo, EdgeMapCost::native::<T>(0, 0, 2, 1), |ei, _, _| a[ei].mul(b[ei]))
}

/// Edge-softmax backward: `δe ← α ⊙ (δα − t[row])` where
/// `t_i = Σ_j α_ij·δα_ij` (computed by an `edge_reduce` sum).
pub fn softmax_grad<T: Scalar>(
    dev: &DeviceConfig,
    coo: &Coo,
    alpha: &[T],
    dalpha: &[T],
    t: &[T],
) -> (Vec<T>, KernelStats) {
    assert_eq!(alpha.len(), coo.nnz());
    assert_eq!(dalpha.len(), coo.nnz());
    assert_eq!(t.len(), coo.num_rows());
    let name = T::pick("edge_softmax_grad", "edge_softmax_grad_f32");
    edge_map(dev, name, coo, EdgeMapCost::native::<T>(1, 0, 2, 2), |ei, r, _| {
        alpha[ei].mul(dalpha[ei].sub(t[r as usize]))
    })
}

/// LeakyReLU backward on edge logits: `δx ← δy · (x ≥ 0 ? 1 : slope)`.
pub fn leakyrelu_grad<T: Scalar>(
    dev: &DeviceConfig,
    coo: &Coo,
    pre: &[T],
    grad: &[T],
    slope: f32,
) -> (Vec<T>, KernelStats) {
    assert_eq!(pre.len(), coo.nnz());
    assert_eq!(grad.len(), coo.nnz());
    let slope = T::from_f32(slope);
    let name = T::pick("edge_leakyrelu_grad", "edge_leakyrelu_grad_f32");
    edge_map(dev, name, coo, EdgeMapCost::native::<T>(0, 0, 2, 2), |ei, _, _| {
        if pre[ei].to_f32() >= 0.0 {
            grad[ei]
        } else {
            grad[ei].mul(slope)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Reduce;
    use crate::halfgnn_spmm::edge_reduce;
    use halfgnn_graph::{gen, Csr};
    use halfgnn_half::slice::f32_slice_to_half;
    use halfgnn_half::Half;
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
    fn add_leakyrelu_values() {
        let g = Coo::from_edges(2, 2, &[(0, 1), (1, 0)]);
        let s_src = f32_slice_to_half(&[1.0, -3.0]);
        let s_dst = f32_slice_to_half(&[0.5, 1.0]);
        let (e, _) = src_dst_add_leakyrelu(&dev(), &g, &s_src, &s_dst, 0.2);
        assert_eq!(e[0].to_f32(), 2.0); // 1.0 + 1.0
        assert!((e[1].to_f32() - (-0.5)).abs() < 1e-3); // 0.2 * (-3 + 0.5)
    }

    #[test]
    fn fast_executor_matches_sim_bitwise_through_softmax_chain() {
        // Chain four edge kernels (max → sub_exp → sum → div) plus the GAT
        // score map; any backend divergence would compound, so bitwise
        // equality at the end is a strong whole-chain check.
        let g = random_graph(80, 400, 31);
        let e = random_halves(g.nnz(), 4.0, 32);
        let s_src = random_halves(g.num_rows(), 1.0, 33);
        let s_dst = random_halves(g.num_cols(), 1.0, 34);
        let bits = |v: &[Half]| v.iter().map(|h| h.to_bits()).collect::<Vec<u16>>();
        let chain = |d: &DeviceConfig| {
            let (raw, _) = src_dst_add_leakyrelu(d, &g, &s_src, &s_dst, 0.2);
            let (m, _) = edge_reduce(d, &g, &e, Reduce::Max);
            let (num, _) = sub_row_exp(d, &g, &e, &m, true);
            let (z, _) = edge_reduce(d, &g, &num, Reduce::Sum);
            let (alpha, _) = div_row(d, &g, &num, &z);
            (raw, alpha)
        };
        let (sim_raw, sim_alpha) = chain(&dev());
        let (fast_raw, fast_alpha) = chain(&dev().fast());
        assert_eq!(bits(&sim_raw), bits(&fast_raw));
        assert_eq!(bits(&sim_alpha), bits(&fast_alpha));
    }

    #[test]
    fn full_edge_softmax_rows_sum_to_one() {
        // Compose max → sub_exp → sum → div and check the softmax property.
        let g = random_graph(60, 300, 1);
        let e = random_halves(g.nnz(), 4.0, 2);
        let (m, _) = edge_reduce(&dev(), &g, &e, Reduce::Max);
        let (num, _) = sub_row_exp(&dev(), &g, &e, &m, true);
        let (z, _) = edge_reduce(&dev(), &g, &num, Reduce::Sum);
        let (alpha, _) = div_row(&dev(), &g, &num, &z);
        let off = crate::halfgnn_spmm::row_offsets_of(&g);
        for r in 0..g.num_rows() {
            if off[r] == off[r + 1] {
                continue;
            }
            let sum: f32 = alpha[off[r]..off[r + 1]].iter().map(|h| h.to_f32()).sum();
            assert!((sum - 1.0).abs() < 0.05, "row {r} sums to {sum}");
            assert!(alpha[off[r]..off[r + 1]].iter().all(|h| h.is_finite()));
        }
    }

    #[test]
    fn shadow_exp_saves_conversions_and_time() {
        // §5.3: the shadow API avoids the AMP h2f/f2h round trip.
        let g = random_graph(2_000, 30_000, 3);
        let e = random_halves(g.nnz(), 4.0, 4);
        let (m, _) = edge_reduce(&dev(), &g, &e, Reduce::Max);
        let (v_shadow, s_shadow) = sub_row_exp(&dev(), &g, &e, &m, true);
        let (v_amp, s_amp) = sub_row_exp(&dev(), &g, &e, &m, false);
        assert_eq!(s_shadow.totals.convert_ops, 0);
        assert!(s_amp.totals.convert_ops > 0);
        assert!(s_amp.cycles > s_shadow.cycles);
        // Functionally both are the stabilized exponent; values agree to
        // FP16 rounding.
        for (a, b) in v_shadow.iter().zip(&v_amp) {
            assert!((a.to_f32() - b.to_f32()).abs() <= 2e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn shadow_exp_never_overflows_on_stabilized_input() {
        // The §3.1.2 guarantee: e - m ≤ 0 ⇒ exp ∈ (0, 1].
        let g = random_graph(100, 600, 5);
        let e = random_halves(g.nnz(), 100.0, 6); // wild logits
        let (m, _) = edge_reduce(&dev(), &g, &e, Reduce::Max);
        let (v, _) = sub_row_exp(&dev(), &g, &e, &m, true);
        for h in &v {
            assert!(h.is_finite() && h.to_f32() <= 1.0 && h.to_f32() >= 0.0);
        }
    }

    #[test]
    fn softmax_grad_formula() {
        let g = Coo::from_edges(1, 2, &[(0, 0), (0, 1)]);
        let alpha = f32_slice_to_half(&[0.25, 0.75]);
        let dalpha = f32_slice_to_half(&[2.0, -1.0]);
        // t = 0.25*2 + 0.75*(-1) = -0.25
        let (prod, _) = mul(&dev(), &g, &alpha, &dalpha);
        let (t, _) = edge_reduce(&dev(), &g, &prod, Reduce::Sum);
        assert!((t[0].to_f32() + 0.25).abs() < 1e-3);
        let (de, _) = softmax_grad(&dev(), &g, &alpha, &dalpha, &t);
        assert!((de[0].to_f32() - 0.25 * 2.25).abs() < 2e-3);
        assert!((de[1].to_f32() - 0.75 * -0.75).abs() < 2e-3);
    }

    #[test]
    fn leakyrelu_grad_gates_by_sign() {
        let g = Coo::from_edges(1, 2, &[(0, 0), (0, 1)]);
        let pre = f32_slice_to_half(&[3.0, -2.0]);
        let grad = f32_slice_to_half(&[1.0, 1.0]);
        let (dx, _) = leakyrelu_grad(&dev(), &g, &pre, &grad, 0.1);
        assert_eq!(dx[0].to_f32(), 1.0);
        assert!((dx[1].to_f32() - 0.1).abs() < 1e-3);
    }
}
