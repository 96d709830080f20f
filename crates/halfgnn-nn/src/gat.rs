//! GAT (Veličković et al.), single head, two layers.
//!
//! Per layer, with destination vertex `i` = SpMM row and source `j` =
//! column:
//!
//! ```text
//! z      = X · W                      (projection, no bias)
//! s_dst  = z · a_dst ; s_src = z · a_src
//! e_ij   = LeakyReLU(s_dst[i] + s_src[j])          (edge op)
//! m_i    = max_j e_ij                              (SpMM-max)
//! ê_ij   = exp(e_ij − m_i)                         (shadow / AMP exp)
//! α_ij   = ê_ij / Σ_j ê_ij                         (SpMM-sum + edge div)
//! h'_i   = Σ_j α_ij · z_j                          (SpMMve)
//! ```
//!
//! This is Eq. 1 of the paper verbatim, so GAT exercises every kernel
//! class: SpMMve, SDDMM (in backward), edge-level maps, and the
//! promoted-or-shadowed `exp` whose data-conversion cost §3.1.2 analyses.
//! The attention weights are a softmax (≤ 1, rows sum to 1), so the
//! aggregation cannot overflow — which is why Fig. 1c shows GAT-half
//! *not* collapsing while GCN/GIN do.
//!
//! The layer, the single-head step and the multi-head step are each
//! written once, generic over the precision ([`Elem`]).

use crate::gcn::StepOutput;
use crate::graphdata::GraphView;
use crate::models::{spmmve, Dispatch, Elem};
use crate::params::{GatGrads, GatParams};
use halfgnn_half::{overflow, Half};
use halfgnn_kernels::common::Reduce;
use halfgnn_tensor::Ops;

/// LeakyReLU slope for attention logits (the GAT paper's 0.2).
pub const ATTN_SLOPE: f32 = 0.2;

/// Saved forward state of one GAT layer.
struct LayerState<E> {
    z: Vec<E>,
    e: Vec<E>,
    alpha: Vec<E>,
    out: Vec<E>,
}

#[allow(clippy::too_many_arguments)]
fn layer_forward<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    x: &[E],
    w: &[E],
    a_src: &[E],
    a_dst: &[E],
    f_in: usize,
    f_out: usize,
    d: Dispatch<'_>,
) -> LayerState<E> {
    let n = g.n();
    let z = E::gemm(ops, x, w, false, n, f_in, f_out);
    let s_src = E::gemm(ops, &z, a_src, false, n, f_out, 1);
    let s_dst = E::gemm(ops, &z, a_dst, false, n, f_out, 1);
    // Fused: one pass over the edges — scores, running row-max, shadow
    // exp, row-sum, normalize, aggregate. The kernel's own provenance site
    // nests under the ambient layer site ("gat.layerN/fused_attn").
    if let Some([e, alpha, out]) = E::fused_attn_forward(ops, g, &s_dst, &s_src, &z, f_out, d) {
        return LayerState { z, e, alpha, out };
    }
    let e = E::attn_scores(ops, g, &s_dst, &s_src);
    let m = E::edge_reduce(ops, g, &e, Reduce::Max, d);
    let en = E::sub_row_exp(ops, g, &e, &m, d);
    let zs = E::edge_reduce(ops, g, &en, Reduce::Sum, d);
    let alpha = E::div_row(ops, g, &en, &zs);
    let out = spmmve(ops, g, &alpha, &z, f_out, d);
    LayerState { z, e, alpha, out }
}

/// Backward of one GAT layer. Returns `(δx, δw, δa_src, δa_dst)`.
#[allow(clippy::too_many_arguments)]
fn layer_backward<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    state: &LayerState<E>,
    x: &[E],
    w: &[E],
    a_src: &[E],
    a_dst: &[E],
    dh: &[E],
    f_in: usize,
    f_out: usize,
    d: Dispatch<'_>,
) -> (Vec<E>, Vec<E>, Vec<E>, Vec<E>) {
    let n = g.n();
    // Aggregation adjoint: δz += Σ_i α_ij δh_i (SpMMve on Âᵀ with permuted α).
    let alpha_t = g.permute_to_transpose(&state.alpha);
    let dz_agg = spmmve(ops, g, &alpha_t, dh, f_out, d);
    // δα_ij = dot(δh_i, z_j): the SDDMM of §2.1.2.
    let dalpha = E::sddmm(ops, g, dh, &state.z, f_out, d);
    // Edge-softmax backward. Fused, t stays register-resident: one kernel
    // instead of mul → reduce → softmax_grad → leakyrelu_grad.
    let de = match E::fused_softmax_grad(ops, g, &state.alpha, &dalpha, &state.e, f_out, d) {
        Some(de) => de,
        None => {
            let prod = E::edge_mul(ops, g, &state.alpha, &dalpha);
            let t = E::edge_reduce(ops, g, &prod, Reduce::Sum, d);
            let de_soft = E::softmax_grad(ops, g, &state.alpha, &dalpha, &t);
            // LeakyReLU gate: sign(post) == sign(pre) for slope > 0, so
            // the saved post-activation suffices.
            E::leakyrelu_grad(ops, g, &state.e, &de_soft)
        }
    };
    // δs_dst[i] = Σ_j δe_ij ; δs_src[j] = Σ_i δe_ij (reduce on Âᵀ).
    let ds_dst = E::edge_reduce(ops, g, &de, Reduce::Sum, d);
    let de_t = g.permute_to_transpose(&de);
    let ds_src = E::edge_reduce(ops, g, &de_t, Reduce::Sum, d);
    // δz = δz_agg + δs_dst ⊗ a_dst + δs_src ⊗ a_src.
    let outer_dst = E::gemm(ops, &ds_dst, a_dst, true, n, 1, f_out);
    let outer_src = E::gemm(ops, &ds_src, a_src, true, n, 1, f_out);
    let tmp = E::scale_add(ops, E::ONE, &dz_agg, E::ONE, &outer_dst);
    let dz = E::scale_add(ops, E::ONE, &tmp, E::ONE, &outer_src);
    // Parameter and input gradients (vertex contractions → all-reduced
    // when sharded).
    let da_dst = E::grad_gemm(ops, &state.z, &ds_dst, f_out, n, 1, d);
    let da_src = E::grad_gemm(ops, &state.z, &ds_src, f_out, n, 1, d);
    let dw = E::grad_gemm(ops, x, &dz, f_in, n, f_out, d);
    let dx = E::gemm(ops, &dz, w, true, n, f_out, f_in);
    (dx, dw, da_src, da_dst)
}

/// One GAT training step, generic over the precision: state tensors in
/// `E` through the kernels the dispatch's mode selects, f32 master
/// weights and loss.
pub fn step<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &GatParams,
    x: &[E],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
) -> StepOutput<GatGrads> {
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let [w1, a_src1, a_dst1, w2, a_src2, a_dst2] =
        [&p.w1, &p.a_src1, &p.a_dst1, &p.w2, &p.a_src2, &p.a_dst2].map(|w| E::weight(ops, w));

    let layer1 = overflow::site("gat.layer1");
    let l1 = layer_forward(ops, g, x, &w1, &a_src1, &a_dst1, f_in, h, d);
    let h1 = E::relu(ops, &l1.out);
    drop(layer1);
    let layer2 = overflow::site("gat.layer2");
    let mut l2 = layer_forward(ops, g, &h1, &w2, &a_src2, &a_dst2, h, c, d);
    drop(layer2);

    let logits = E::logits(ops, std::mem::take(&mut l2.out));
    let (loss, dlogits, _) = ops.softmax_xent_f32(&logits, labels, mask, c);

    let bwd2 = overflow::site("gat.layer2.backward");
    let dout = E::loss_grad(ops, dlogits);
    let (dh1, dw2, da_src2, da_dst2) =
        layer_backward(ops, g, &l2, &h1, &w2, &a_src2, &a_dst2, &dout, h, c, d);
    drop(bwd2);
    let _bwd1 = overflow::site("gat.layer1.backward");
    let dl1 = E::relu_grad(ops, &l1.out, &dh1);
    let (_, dw1, da_src1, da_dst1) =
        layer_backward(ops, g, &l1, x, &w1, &a_src1, &a_dst1, &dl1, f_in, h, d);

    let mut parts =
        [dw1, da_src1, da_dst1, dw2, da_src2, da_dst2].map(|dw| E::master_grad(ops, dw));
    E::unscale(ops, &mut parts);
    let [w1, a_src1, a_dst1, w2, a_src2, a_dst2] = parts;
    StepOutput { loss, grads: GatGrads { w1, a_src1, a_dst1, w2, a_src2, a_dst2 }, logits }
}

/// [`step`] in half precision.
pub fn step_half(
    ops: &mut Ops,
    g: &GraphView,
    p: &GatParams,
    x: &[Half],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
) -> StepOutput<GatGrads> {
    step(ops, g, p, x, labels, mask, d)
}

// ---------------------------------------------------------------------
// Multi-head GAT: H independent attention heads of width `hidden/H`,
// concatenated after layer 1 (the architecture's defining feature; the
// original paper uses 8 heads). Layer 2 stays single-head over the
// concatenated features, as in the original.
// ---------------------------------------------------------------------

/// Multi-head GAT parameters: `heads` layer-1 heads of width
/// `hidden / heads`, one layer-2 head.
pub struct MultiHeadGatParams {
    /// Per-head layer-1 projections, each `f_in × head_dim`.
    pub w1: Vec<Vec<f32>>,
    /// Per-head source attention vectors, each `head_dim`.
    pub a_src1: Vec<Vec<f32>>,
    /// Per-head destination attention vectors.
    pub a_dst1: Vec<Vec<f32>>,
    /// Layer-2 projection, `hidden × classes`.
    pub w2: Vec<f32>,
    /// Layer-2 source attention vector.
    pub a_src2: Vec<f32>,
    /// Layer-2 destination attention vector.
    pub a_dst2: Vec<f32>,
    /// Input feature length.
    pub f_in: usize,
    /// Total hidden width (`heads × head_dim`).
    pub hidden: usize,
    /// Head count.
    pub heads: usize,
    /// Output width.
    pub classes: usize,
}

impl MultiHeadGatParams {
    /// Glorot-initialized multi-head GAT. `hidden` must divide evenly by
    /// `heads` (and stay half2-padded per head).
    pub fn new(f_in: usize, hidden: usize, heads: usize, classes: usize, seed: u64) -> Self {
        assert!(heads >= 1 && hidden.is_multiple_of(heads), "hidden must split across heads");
        let head_dim = hidden / heads;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(0x6A7));
        use crate::params::glorot;
        use rand::SeedableRng as _;
        MultiHeadGatParams {
            w1: (0..heads).map(|_| glorot(f_in, head_dim, &mut rng)).collect(),
            a_src1: (0..heads).map(|_| glorot(head_dim, 1, &mut rng)).collect(),
            a_dst1: (0..heads).map(|_| glorot(head_dim, 1, &mut rng)).collect(),
            w2: glorot(hidden, classes, &mut rng),
            a_src2: glorot(classes, 1, &mut rng),
            a_dst2: glorot(classes, 1, &mut rng),
            f_in,
            hidden,
            heads,
            classes,
        }
    }

    /// Head width.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

/// Multi-head gradients (same structure).
pub struct MultiHeadGatGrads {
    /// Per-head ∂L/∂W1.
    pub w1: Vec<Vec<f32>>,
    /// Per-head ∂L/∂a_src1.
    pub a_src1: Vec<Vec<f32>>,
    /// Per-head ∂L/∂a_dst1.
    pub a_dst1: Vec<Vec<f32>>,
    /// ∂L/∂W2.
    pub w2: Vec<f32>,
    /// ∂L/∂a_src2.
    pub a_src2: Vec<f32>,
    /// ∂L/∂a_dst2.
    pub a_dst2: Vec<f32>,
}

/// Interleave per-head column blocks into one `n × (heads·d)` matrix.
fn concat_heads<T: Copy>(parts: &[Vec<T>], n: usize, d: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n * parts.len() * d);
    for v in 0..n {
        for p in parts {
            out.extend_from_slice(&p[v * d..(v + 1) * d]);
        }
    }
    out
}

/// Split the gradient of a concatenated matrix back into per-head blocks.
fn split_heads<T: Copy>(full: &[T], n: usize, heads: usize, d: usize) -> Vec<Vec<T>> {
    (0..heads)
        .map(|h| {
            let mut p = Vec::with_capacity(n * d);
            for v in 0..n {
                p.extend_from_slice(&full[v * heads * d + h * d..v * heads * d + (h + 1) * d]);
            }
            p
        })
        .collect()
}

/// One multi-head GAT training step, generic over the precision (state
/// tensors in `E`, f32 master weights and loss). It labels its overflow
/// sites like the single-head [`step`].
pub fn step_multihead<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &MultiHeadGatParams,
    x: &[E],
    labels: &[u32],
    mask: &[bool],
    dsp: Dispatch<'_>,
) -> StepOutput<MultiHeadGatGrads> {
    let n = g.n();
    let (f_in, d, c) = (p.f_in, p.head_dim(), p.classes);
    assert!(d.is_multiple_of(E::LANES), "head width must stay half2-padded");

    // Per-head parameter casts.
    let w1: Vec<_> = p.w1.iter().map(|w| E::weight(ops, w)).collect();
    let a_src1: Vec<_> = p.a_src1.iter().map(|a| E::weight(ops, a)).collect();
    let a_dst1: Vec<_> = p.a_dst1.iter().map(|a| E::weight(ops, a)).collect();
    let [w2, a_src2, a_dst2] = [&p.w2, &p.a_src2, &p.a_dst2].map(|w| E::weight(ops, w));

    // ---- Layer 1: independent heads, then concat + ReLU.
    let layer1 = overflow::site("gat.layer1");
    let mut states: Vec<LayerState<E>> = (0..p.heads)
        .map(|h| layer_forward(ops, g, x, &w1[h], &a_src1[h], &a_dst1[h], f_in, d, dsp))
        .collect();
    let head_outs: Vec<Vec<E>> = states.iter_mut().map(|s| std::mem::take(&mut s.out)).collect();
    let cat = concat_heads(&head_outs, n, d);
    let h1 = E::relu(ops, &cat);
    drop(layer1);

    // ---- Layer 2: single head over the concatenated features.
    let layer2 = overflow::site("gat.layer2");
    let mut l2 = layer_forward(ops, g, &h1, &w2, &a_src2, &a_dst2, p.hidden, c, dsp);
    drop(layer2);
    let logits = E::logits(ops, std::mem::take(&mut l2.out));
    let (loss, dlogits, _) = ops.softmax_xent_f32(&logits, labels, mask, c);

    // ---- Backward.
    let bwd2 = overflow::site("gat.layer2.backward");
    let dout = E::loss_grad(ops, dlogits);
    let (dh1, dw2, da_src2, da_dst2) =
        layer_backward(ops, g, &l2, &h1, &w2, &a_src2, &a_dst2, &dout, p.hidden, c, dsp);
    drop(bwd2);
    let _bwd1 = overflow::site("gat.layer1.backward");
    let dcat = E::relu_grad(ops, &cat, &dh1);
    let mut grads = MultiHeadGatGrads {
        w1: Vec::with_capacity(p.heads),
        a_src1: Vec::with_capacity(p.heads),
        a_dst1: Vec::with_capacity(p.heads),
        w2: E::master_grad(ops, dw2),
        a_src2: E::master_grad(ops, da_src2),
        a_dst2: E::master_grad(ops, da_dst2),
    };
    for (h, dh) in split_heads(&dcat, n, p.heads, d).iter().enumerate() {
        let (_, dw, dasrc, dadst) =
            layer_backward(ops, g, &states[h], x, &w1[h], &a_src1[h], &a_dst1[h], dh, f_in, d, dsp);
        grads.w1.push(E::master_grad(ops, dw));
        grads.a_src1.push(E::master_grad(ops, dasrc));
        grads.a_dst1.push(E::master_grad(ops, dadst));
    }
    let heads = grads.w1.iter_mut().chain(&mut grads.a_src1).chain(&mut grads.a_dst1);
    E::unscale(ops, heads.chain([&mut grads.w2, &mut grads.a_src2, &mut grads.a_dst2]));
    StepOutput { loss, grads, logits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PrecisionMode;
    use halfgnn_graph::gen;
    use halfgnn_graph::Csr;
    use halfgnn_sim::DeviceConfig;

    fn toy() -> (GraphView, Vec<f32>, Vec<u32>, Vec<bool>) {
        let (edges, labels) = gen::sbm(&[15, 15], 0.4, 0.03, 4);
        let csr = Csr::from_edges(30, 30, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x = halfgnn_graph::features::class_features(&labels, 2, 8, 1.0, 0.2, 7);
        (g, x, labels, vec![true; 30])
    }

    #[test]
    fn f32_gradients_match_finite_differences() {
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = GatParams::new(8, 6, 2, 11);
        let mut ops = Ops::new(&dev);
        let out = step(&mut ops, &g, &p, &x, &labels, &mask, fd32);
        let eps = 1e-3;

        // W1 coordinates (checks the full attention backward chain).
        for &idx in &[0usize, 9, 21] {
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = step(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.w1[idx] = orig - eps;
            let lm = step(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.w1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w1[idx]).abs() < 2e-2 + 0.1 * fd.abs(),
                "w1[{idx}]: fd {fd} vs {}",
                out.grads.w1[idx]
            );
        }
        // Attention vector coordinates (the softmax backward path).
        for &idx in &[0usize, 3] {
            let orig = p.a_src1[idx];
            p.a_src1[idx] = orig + eps;
            let lp = step(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.a_src1[idx] = orig - eps;
            let lm = step(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.a_src1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.a_src1[idx]).abs() < 2e-2 + 0.1 * fd.abs(),
                "a_src1[{idx}]: fd {fd} vs {}",
                out.grads.a_src1[idx]
            );
        }
    }

    #[test]
    fn multihead_gradients_match_finite_differences() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = MultiHeadGatParams::new(8, 8, 4, 2, 17); // 4 heads x 2 dims
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let out = step_multihead(&mut ops, &g, &p, &x, &labels, &mask, fd32);
        let eps = 1e-3;
        // Spot-check one coordinate in two different heads + layer 2.
        for head in [0usize, 3] {
            let idx = 5;
            let orig = p.w1[head][idx];
            p.w1[head][idx] = orig + eps;
            let lp = step_multihead(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.w1[head][idx] = orig - eps;
            let lm = step_multihead(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.w1[head][idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w1[head][idx]).abs() < 2e-2 + 0.1 * fd.abs(),
                "head {head} w1[{idx}]: fd {fd} vs {}",
                out.grads.w1[head][idx]
            );
        }
        let orig = p.w2[3];
        p.w2[3] = orig + eps;
        let lp = step_multihead(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
        p.w2[3] = orig - eps;
        let lm = step_multihead(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
        p.w2[3] = orig;
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - out.grads.w2[3]).abs() < 2e-2 + 0.1 * fd.abs());
    }

    #[test]
    fn multihead_with_one_head_matches_single_head() {
        // heads = 1 must be exactly the single-head model (same math),
        // up to the parameter-init difference — so compare with copied
        // parameters.
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let single = GatParams::new(8, 6, 2, 11);
        let mut multi = MultiHeadGatParams::new(8, 6, 1, 2, 0);
        multi.w1[0].copy_from_slice(&single.w1);
        multi.a_src1[0].copy_from_slice(&single.a_src1);
        multi.a_dst1[0].copy_from_slice(&single.a_dst1);
        multi.w2.copy_from_slice(&single.w2);
        multi.a_src2.copy_from_slice(&single.a_src2);
        multi.a_dst2.copy_from_slice(&single.a_dst2);
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let a = step(&mut ops, &g, &single, &x, &labels, &mask, fd32);
        let b = step_multihead(&mut ops, &g, &multi, &x, &labels, &mask, fd32);
        assert!((a.loss - b.loss).abs() < 1e-6, "{} vs {}", a.loss, b.loss);
        for (u, v) in a.grads.w1.iter().zip(&b.grads.w1[0]) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn multihead_half_tracks_f32() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = MultiHeadGatParams::new(8, 8, 2, 2, 19); // 2 heads x 4 dims
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let f = step_multihead(&mut ops, &g, &p, &x, &labels, &mask, fd32);
        let h =
            step_multihead(&mut ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into());
        assert!((f.loss - h.loss).abs() < 0.1, "{} vs {}", f.loss, h.loss);
        assert!(h.loss.is_finite());
        // Gradient direction agreement on head 0's projection.
        let dot: f32 = f.grads.w1[0].iter().zip(&h.grads.w1[0]).map(|(a, b)| a * b).sum();
        let na: f32 = f.grads.w1[0].iter().map(|v| v * v).sum::<f32>().sqrt();
        let nb: f32 = h.grads.w1[0].iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(dot / (na * nb) > 0.95, "cosine {}", dot / (na * nb));
    }

    #[test]
    fn concat_split_round_trip() {
        let n = 3;
        let d = 2;
        let parts: Vec<Vec<f32>> =
            vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]];
        let cat = concat_heads(&parts, n, d);
        assert_eq!(cat, vec![1.0, 2.0, 10.0, 20.0, 3.0, 4.0, 30.0, 40.0, 5.0, 6.0, 50.0, 60.0]);
        assert_eq!(split_heads(&cat, n, 2, d), parts);
    }

    #[test]
    fn half_step_tracks_f32() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = GatParams::new(8, 6, 2, 11);
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let f = step(&mut ops, &g, &p, &x, &labels, &mask, fd32);
        let hh = step_half(&mut ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into());
        assert!((f.loss - hh.loss).abs() < 0.08, "{} vs {}", f.loss, hh.loss);
        assert!(hh.loss.is_finite());
    }

    #[test]
    fn fused_dispatch_tracks_unfused_and_launches_fewer_kernels() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = GatParams::new(8, 6, 2, 11);
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let mut unfused_ops = Ops::new(&dev);
        let a =
            step_half(&mut unfused_ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into());
        let mut fused_ops = Ops::new(&dev);
        let d = Dispatch::untuned(PrecisionMode::HalfGnn).with_fusion(true);
        let b = step_half(&mut fused_ops, &g, &p, &xh, &labels, &mask, d);
        assert!((a.loss - b.loss).abs() < 0.05, "{} vs {}", a.loss, b.loss);
        assert!(b.loss.is_finite());
        assert!(
            fused_ops.kernel_count() < unfused_ops.kernel_count(),
            "fused {} launches must undercut unfused {}",
            fused_ops.kernel_count(),
            unfused_ops.kernel_count()
        );
    }

    #[test]
    fn baseline_mode_never_fuses() {
        let (g, ..) = toy();
        let d = Dispatch::untuned(PrecisionMode::HalfNaive).with_fusion(true);
        assert!(!d.attn_fused(&g, 6), "HalfNaive must stay on the DGL chain");
        let d = Dispatch::untuned(PrecisionMode::HalfGnn);
        assert!(!d.attn_fused(&g, 6), "untuned, unforced dispatch must stay unfused");
        let d = Dispatch::untuned(PrecisionMode::HalfGnn).with_fusion(true);
        assert!(!d.attn_fused(&g, 7), "odd f cannot run the half2-padded fused kernel");
        assert!(d.attn_fused(&g, 6));
    }

    #[test]
    fn shadow_mode_converts_less_than_amp_mode() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = GatParams::new(8, 6, 2, 11);
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let mut shadow_ops = Ops::new(&dev);
        step_half(&mut shadow_ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into());
        let mut amp_ops = Ops::new(&dev);
        step_half(&mut amp_ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfNaive.into());
        assert!(
            amp_ops.converted_elems > shadow_ops.converted_elems,
            "AMP {} should convert more than shadow {}",
            amp_ops.converted_elems,
            shadow_ops.converted_elems
        );
    }
}
