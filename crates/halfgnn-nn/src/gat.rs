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

use crate::gcn::StepOutput;
use crate::graphdata::GraphView;
use crate::models::{
    edge_reduce_f32, edge_reduce_half, fused_attn_forward, fused_softmax_grad, grad_gemm_f32,
    grad_gemm_half, sddmm_f32, sddmm_half, spmmve_f32, spmmve_half, Dispatch, PrecisionMode,
};
use crate::params::{GatGrads, GatParams};
use halfgnn_half::Half;
use halfgnn_kernels::common::Reduce;
use halfgnn_kernels::edge_ops;
use halfgnn_tensor::Ops;

/// LeakyReLU slope for attention logits (the GAT paper's 0.2).
pub const ATTN_SLOPE: f32 = 0.2;

/// Saved forward state of one f32 GAT layer.
struct LayerStateF32 {
    z: Vec<f32>,
    e: Vec<f32>,
    alpha: Vec<f32>,
    out: Vec<f32>,
}

#[allow(clippy::too_many_arguments)]
fn layer_forward_f32(
    ops: &mut Ops,
    g: &GraphView,
    x: &[f32],
    w: &[f32],
    a_src: &[f32],
    a_dst: &[f32],
    f_in: usize,
    f_out: usize,
    d: Dispatch<'_>,
) -> LayerStateF32 {
    let n = g.n();
    let z = ops.gemm_f32(x, false, w, false, n, f_in, f_out);
    let s_src = ops.gemm_f32(&z, false, a_src, false, n, f_out, 1);
    let s_dst = ops.gemm_f32(&z, false, a_dst, false, n, f_out, 1);
    let (e, st) = edge_ops::src_dst_add_leakyrelu_f32(ops.dev, &g.coo, &s_dst, &s_src, ATTN_SLOPE);
    ops.record(st);
    let m = edge_reduce_f32(ops, g, &e, Reduce::Max, d);
    let (en, st) = edge_ops::sub_row_exp_f32(ops.dev, &g.coo, &e, &m);
    ops.record(st);
    let zs = edge_reduce_f32(ops, g, &en, Reduce::Sum, d);
    let (alpha, st) = edge_ops::div_row_f32(ops.dev, &g.coo, &en, &zs);
    ops.record(st);
    let out = spmmve_f32(ops, g, &alpha, &z, f_out, d);
    LayerStateF32 { z, e, alpha, out }
}

/// Backward of one f32 GAT layer. Returns `(δx, δw, δa_src, δa_dst)`.
#[allow(clippy::too_many_arguments)]
fn layer_backward_f32(
    ops: &mut Ops,
    g: &GraphView,
    state: &LayerStateF32,
    x: &[f32],
    w: &[f32],
    a_src: &[f32],
    a_dst: &[f32],
    dh: &[f32],
    f_in: usize,
    f_out: usize,
    d: Dispatch<'_>,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let n = g.n();
    // Aggregation adjoint: δz += Σ_i α_ij δh_i (SpMMve on Âᵀ with permuted α).
    let alpha_t = g.permute_to_transpose(&state.alpha);
    let dz_agg = spmmve_f32(ops, g, &alpha_t, dh, f_out, d);
    // δα_ij = dot(δh_i, z_j): the SDDMM of §2.1.2.
    let dalpha = sddmm_f32(ops, g, dh, &state.z, f_out, d);
    // Edge-softmax backward.
    let (prod, st) = edge_ops::mul_f32(ops.dev, &g.coo, &state.alpha, &dalpha);
    ops.record(st);
    let t = edge_reduce_f32(ops, g, &prod, Reduce::Sum, d);
    let (de_soft, st) = edge_ops::softmax_grad_f32(ops.dev, &g.coo, &state.alpha, &dalpha, &t);
    ops.record(st);
    // LeakyReLU gate: sign(post) == sign(pre) for slope > 0, so the saved
    // post-activation suffices.
    let (de, st) = edge_ops::leakyrelu_grad_f32(ops.dev, &g.coo, &state.e, &de_soft, ATTN_SLOPE);
    ops.record(st);
    // δs_dst[i] = Σ_j δe_ij ; δs_src[j] = Σ_i δe_ij (reduce on Âᵀ).
    let ds_dst = edge_reduce_f32(ops, g, &de, Reduce::Sum, d);
    let de_t = g.permute_to_transpose(&de);
    let ds_src = edge_reduce_f32(ops, g, &de_t, Reduce::Sum, d);
    // δz = δz_agg + δs_dst ⊗ a_dst + δs_src ⊗ a_src.
    let outer_dst = ops.gemm_f32(&ds_dst, false, a_dst, true, n, 1, f_out);
    let outer_src = ops.gemm_f32(&ds_src, false, a_src, true, n, 1, f_out);
    let mut dz = dz_agg;
    let tmp = ops.scale_add_f32(1.0, &dz, 1.0, &outer_dst);
    dz = ops.scale_add_f32(1.0, &tmp, 1.0, &outer_src);
    // Parameter and input gradients (vertex contractions → all-reduced
    // when sharded).
    let da_dst = grad_gemm_f32(ops, &state.z, &ds_dst, f_out, n, 1, d);
    let da_src = grad_gemm_f32(ops, &state.z, &ds_src, f_out, n, 1, d);
    let dw = grad_gemm_f32(ops, x, &dz, f_in, n, f_out, d);
    let dx = ops.gemm_f32(&dz, false, w, true, n, f_out, f_in);
    (dx, dw, da_src, da_dst)
}

/// One f32 GAT training step under an explicit dispatch (the float path
/// only consults its `dist` context).
pub fn step_f32_dist(
    ops: &mut Ops,
    g: &GraphView,
    p: &GatParams,
    x: &[f32],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
) -> StepOutput<GatGrads> {
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let l1 = layer_forward_f32(ops, g, x, &p.w1, &p.a_src1, &p.a_dst1, f_in, h, d);
    let h1 = ops.relu_f32(&l1.out);
    let l2 = layer_forward_f32(ops, g, &h1, &p.w2, &p.a_src2, &p.a_dst2, h, c, d);
    let logits = l2.out.clone();
    let (loss, dlogits, correct) = ops.softmax_xent_f32(&logits, labels, mask, c);

    let (dh1, dw2, da_src2, da_dst2) =
        layer_backward_f32(ops, g, &l2, &h1, &p.w2, &p.a_src2, &p.a_dst2, &dlogits, h, c, d);
    let dl1 = ops.relu_grad_f32(&l1.out, &dh1);
    let (_, dw1, da_src1, da_dst1) =
        layer_backward_f32(ops, g, &l1, x, &p.w1, &p.a_src1, &p.a_dst1, &dl1, f_in, h, d);

    StepOutput {
        loss,
        correct,
        grads: GatGrads {
            w1: dw1,
            a_src1: da_src1,
            a_dst1: da_dst1,
            w2: dw2,
            a_src2: da_src2,
            a_dst2: da_dst2,
        },
        logits,
    }
}

/// Saved forward state of one half GAT layer.
struct LayerStateHalf {
    z: Vec<Half>,
    e: Vec<Half>,
    alpha: Vec<Half>,
    out: Vec<Half>,
}

#[allow(clippy::too_many_arguments)]
fn layer_forward_half(
    ops: &mut Ops,
    g: &GraphView,
    x: &[Half],
    w: &[Half],
    a_src: &[Half],
    a_dst: &[Half],
    f_in: usize,
    f_out: usize,
    d: Dispatch<'_>,
) -> LayerStateHalf {
    let n = g.n();
    let shadow = d.mode != PrecisionMode::HalfNaive;
    let z = ops.gemm_half(x, false, w, false, n, f_in, f_out);
    let s_src = ops.gemm_half(&z, false, a_src, false, n, f_out, 1);
    let s_dst = ops.gemm_half(&z, false, a_dst, false, n, f_out, 1);
    if d.attn_fused(g, f_out) {
        // One pass over the edges: scores, running row-max, shadow exp,
        // row-sum, normalize, aggregate. The kernel's own provenance site
        // nests under the ambient layer site ("gat.layerN/fused_attn").
        let fwd = fused_attn_forward(ops, g, &s_dst, &s_src, ATTN_SLOPE, &z, f_out, d);
        return LayerStateHalf { z, e: fwd.e, alpha: fwd.alpha, out: fwd.out };
    }
    let (e, st) = edge_ops::src_dst_add_leakyrelu(ops.dev, &g.coo, &s_dst, &s_src, ATTN_SLOPE);
    ops.record(st);
    let m = edge_reduce_half(ops, g, &e, Reduce::Max, d);
    // §3.1.2 / §5.3: AMP promotes exp to float with a tensor round trip;
    // the shadow API stays in half because e − m ≤ 0.
    let (en, st) = edge_ops::sub_row_exp(ops.dev, &g.coo, &e, &m, shadow);
    ops.record(st);
    if !shadow {
        // The AMP path materialized float tensors: count the conversions.
        ops.tensor_conversions += 2;
        ops.converted_elems += 2 * g.nnz() as u64;
    }
    let zs = edge_reduce_half(ops, g, &en, Reduce::Sum, d);
    let (alpha, st) = edge_ops::div_row(ops.dev, &g.coo, &en, &zs);
    ops.record(st);
    let out = spmmve_half(ops, g, &alpha, &z, f_out, d);
    LayerStateHalf { z, e, alpha, out }
}

#[allow(clippy::too_many_arguments)]
fn layer_backward_half(
    ops: &mut Ops,
    g: &GraphView,
    state: &LayerStateHalf,
    x: &[Half],
    w: &[Half],
    a_src: &[Half],
    a_dst: &[Half],
    dh: &[Half],
    f_in: usize,
    f_out: usize,
    d: Dispatch<'_>,
) -> (Vec<Half>, Vec<Half>, Vec<Half>, Vec<Half>) {
    let n = g.n();
    let alpha_t = g.permute_to_transpose(&state.alpha);
    let dz_agg = spmmve_half(ops, g, &alpha_t, dh, f_out, d);
    let dalpha = sddmm_half(ops, g, dh, &state.z, f_out, d);
    let de = if d.attn_fused(g, f_out) {
        // Fused edge-softmax backward: t stays register-resident, one
        // kernel instead of mul → reduce → softmax_grad → leakyrelu_grad.
        fused_softmax_grad(ops, g, &state.alpha, &dalpha, &state.e, ATTN_SLOPE, d)
    } else {
        let (prod, st) = edge_ops::mul(ops.dev, &g.coo, &state.alpha, &dalpha);
        ops.record(st);
        let t = edge_reduce_half(ops, g, &prod, Reduce::Sum, d);
        let (de_soft, st) = edge_ops::softmax_grad(ops.dev, &g.coo, &state.alpha, &dalpha, &t);
        ops.record(st);
        let (de, st) = edge_ops::leakyrelu_grad(ops.dev, &g.coo, &state.e, &de_soft, ATTN_SLOPE);
        ops.record(st);
        de
    };
    let ds_dst = edge_reduce_half(ops, g, &de, Reduce::Sum, d);
    let de_t = g.permute_to_transpose(&de);
    let ds_src = edge_reduce_half(ops, g, &de_t, Reduce::Sum, d);
    let outer_dst = ops.gemm_half(&ds_dst, false, a_dst, true, n, 1, f_out);
    let outer_src = ops.gemm_half(&ds_src, false, a_src, true, n, 1, f_out);
    let one = Half::ONE;
    let tmp = ops.scale_add_half(one, &dz_agg, one, &outer_dst);
    let dz = ops.scale_add_half(one, &tmp, one, &outer_src);
    let da_dst = grad_gemm_half(ops, &state.z, &ds_dst, f_out, n, 1, d);
    let da_src = grad_gemm_half(ops, &state.z, &ds_src, f_out, n, 1, d);
    let dw = grad_gemm_half(ops, x, &dz, f_in, n, f_out, d);
    let dx = ops.gemm_half(&dz, false, w, true, n, f_out, f_in);
    (dx, dw, da_src, da_dst)
}

/// One mixed-precision GAT training step.
pub fn step_half(
    ops: &mut Ops,
    g: &GraphView,
    p: &GatParams,
    x: &[Half],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
) -> StepOutput<GatGrads> {
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let w1h = ops.to_half(&p.w1);
    let a_src1h = ops.to_half(&p.a_src1);
    let a_dst1h = ops.to_half(&p.a_dst1);
    let w2h = ops.to_half(&p.w2);
    let a_src2h = ops.to_half(&p.a_src2);
    let a_dst2h = ops.to_half(&p.a_dst2);

    let layer1 = halfgnn_half::overflow::site("gat.layer1");
    let l1 = layer_forward_half(ops, g, x, &w1h, &a_src1h, &a_dst1h, f_in, h, d);
    let h1 = ops.relu_half(&l1.out);
    drop(layer1);
    let layer2 = halfgnn_half::overflow::site("gat.layer2");
    let l2 = layer_forward_half(ops, g, &h1, &w2h, &a_src2h, &a_dst2h, h, c, d);
    drop(layer2);

    let logits = ops.to_f32(&l2.out);
    let (loss, mut dlogits, correct) = ops.softmax_xent_f32(&logits, labels, mask, c);
    // Loss scaling: see gcn.rs — unscaled at the master update.
    let loss_scale = ops.loss_scale;
    if loss_scale != 1.0 {
        for g in dlogits.iter_mut() {
            *g *= loss_scale;
        }
    }
    let dout = ops.to_half(&dlogits);

    let bwd2 = halfgnn_half::overflow::site("gat.layer2.backward");
    let (dh1, dw2h, da_src2h, da_dst2h) =
        layer_backward_half(ops, g, &l2, &h1, &w2h, &a_src2h, &a_dst2h, &dout, h, c, d);
    drop(bwd2);
    let _bwd1 = halfgnn_half::overflow::site("gat.layer1.backward");
    let dl1 = ops.relu_grad_half(&l1.out, &dh1);
    let (_, dw1h, da_src1h, da_dst1h) =
        layer_backward_half(ops, g, &l1, x, &w1h, &a_src1h, &a_dst1h, &dl1, f_in, h, d);

    let mut grads = GatGrads {
        w1: ops.to_f32(&dw1h),
        a_src1: ops.to_f32(&da_src1h),
        a_dst1: ops.to_f32(&da_dst1h),
        w2: ops.to_f32(&dw2h),
        a_src2: ops.to_f32(&da_src2h),
        a_dst2: ops.to_f32(&da_dst2h),
    };
    for part in [
        &mut grads.w1,
        &mut grads.a_src1,
        &mut grads.a_dst1,
        &mut grads.w2,
        &mut grads.a_src2,
        &mut grads.a_dst2,
    ] {
        ops.unscale_grad(part);
    }

    StepOutput { loss, correct, grads, logits }
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
fn concat_heads(parts: &[Vec<f32>], n: usize, d: usize) -> Vec<f32> {
    let heads = parts.len();
    let mut out = vec![0f32; n * heads * d];
    for (h, p) in parts.iter().enumerate() {
        for v in 0..n {
            out[v * heads * d + h * d..v * heads * d + (h + 1) * d]
                .copy_from_slice(&p[v * d..(v + 1) * d]);
        }
    }
    out
}

/// Split the gradient of a concatenated matrix back into per-head blocks.
fn split_heads(full: &[f32], n: usize, heads: usize, d: usize) -> Vec<Vec<f32>> {
    (0..heads)
        .map(|h| {
            let mut p = vec![0f32; n * d];
            for v in 0..n {
                p[v * d..(v + 1) * d]
                    .copy_from_slice(&full[v * heads * d + h * d..v * heads * d + (h + 1) * d]);
            }
            p
        })
        .collect()
}

/// One f32 multi-head GAT training step.
pub fn step_f32_multihead(
    ops: &mut Ops,
    g: &GraphView,
    p: &MultiHeadGatParams,
    x: &[f32],
    labels: &[u32],
    mask: &[bool],
) -> StepOutput<MultiHeadGatGrads> {
    let n = g.n();
    let (f_in, d, c) = (p.f_in, p.head_dim(), p.classes);
    let fd32 = Dispatch::untuned(PrecisionMode::Float);

    // ---- Layer 1: independent heads, then concat + ReLU.
    let states: Vec<LayerStateF32> = (0..p.heads)
        .map(|h| layer_forward_f32(ops, g, x, &p.w1[h], &p.a_src1[h], &p.a_dst1[h], f_in, d, fd32))
        .collect();
    let head_outs: Vec<Vec<f32>> = states.iter().map(|s| s.out.clone()).collect();
    let cat = concat_heads(&head_outs, n, d);
    let h1 = ops.relu_f32(&cat);

    // ---- Layer 2: single head over the concatenated features.
    let l2 = layer_forward_f32(ops, g, &h1, &p.w2, &p.a_src2, &p.a_dst2, p.hidden, c, fd32);
    let logits = l2.out.clone();
    let (loss, dlogits, correct) = ops.softmax_xent_f32(&logits, labels, mask, c);

    // ---- Backward.
    let (dh1, dw2, da_src2, da_dst2) = layer_backward_f32(
        ops, g, &l2, &h1, &p.w2, &p.a_src2, &p.a_dst2, &dlogits, p.hidden, c, fd32,
    );
    let dcat = ops.relu_grad_f32(&cat, &dh1);
    let per_head = split_heads(&dcat, n, p.heads, d);
    let mut grads = MultiHeadGatGrads {
        w1: Vec::with_capacity(p.heads),
        a_src1: Vec::with_capacity(p.heads),
        a_dst1: Vec::with_capacity(p.heads),
        w2: dw2,
        a_src2: da_src2,
        a_dst2: da_dst2,
    };
    for h in 0..p.heads {
        let (_, dw, dasrc, dadst) = layer_backward_f32(
            ops,
            g,
            &states[h],
            x,
            &p.w1[h],
            &p.a_src1[h],
            &p.a_dst1[h],
            &per_head[h],
            f_in,
            d,
            fd32,
        );
        grads.w1.push(dw);
        grads.a_src1.push(dasrc);
        grads.a_dst1.push(dadst);
    }
    StepOutput { loss, correct, grads, logits }
}

/// One mixed-precision multi-head GAT step (half state tensors, f32
/// master weights/loss).
pub fn step_half_multihead(
    ops: &mut Ops,
    g: &GraphView,
    p: &MultiHeadGatParams,
    x: &[Half],
    labels: &[u32],
    mask: &[bool],
    dsp: Dispatch<'_>,
) -> StepOutput<MultiHeadGatGrads> {
    let n = g.n();
    let (f_in, d, c) = (p.f_in, p.head_dim(), p.classes);
    assert!(d.is_multiple_of(2), "head width must stay half2-padded");

    // Per-head parameter casts.
    let w1h: Vec<Vec<Half>> = p.w1.iter().map(|w| ops.to_half(w)).collect();
    let asrc1h: Vec<Vec<Half>> = p.a_src1.iter().map(|a| ops.to_half(a)).collect();
    let adst1h: Vec<Vec<Half>> = p.a_dst1.iter().map(|a| ops.to_half(a)).collect();
    let w2h = ops.to_half(&p.w2);
    let asrc2h = ops.to_half(&p.a_src2);
    let adst2h = ops.to_half(&p.a_dst2);

    // ---- Layer 1 heads + concat + ReLU.
    let states: Vec<LayerStateHalf> = (0..p.heads)
        .map(|h| layer_forward_half(ops, g, x, &w1h[h], &asrc1h[h], &adst1h[h], f_in, d, dsp))
        .collect();
    let mut cat = vec![Half::ZERO; n * p.hidden];
    for (h, st) in states.iter().enumerate() {
        for v in 0..n {
            cat[v * p.hidden + h * d..v * p.hidden + (h + 1) * d]
                .copy_from_slice(&st.out[v * d..(v + 1) * d]);
        }
    }
    let h1 = ops.relu_half(&cat);

    // ---- Layer 2 + loss.
    let l2 = layer_forward_half(ops, g, &h1, &w2h, &asrc2h, &adst2h, p.hidden, c, dsp);
    let logits = ops.to_f32(&l2.out);
    let (loss, mut dlogits, correct) = ops.softmax_xent_f32(&logits, labels, mask, c);
    let loss_scale = ops.loss_scale;
    if loss_scale != 1.0 {
        for gv in dlogits.iter_mut() {
            *gv *= loss_scale;
        }
    }
    let dout = ops.to_half(&dlogits);

    // ---- Backward.
    let (dh1, dw2h, dasrc2h, dadst2h) =
        layer_backward_half(ops, g, &l2, &h1, &w2h, &asrc2h, &adst2h, &dout, p.hidden, c, dsp);
    let dcat = ops.relu_grad_half(&cat, &dh1);
    let mut grads = MultiHeadGatGrads {
        w1: Vec::with_capacity(p.heads),
        a_src1: Vec::with_capacity(p.heads),
        a_dst1: Vec::with_capacity(p.heads),
        w2: ops.to_f32(&dw2h),
        a_src2: ops.to_f32(&dasrc2h),
        a_dst2: ops.to_f32(&dadst2h),
    };
    for h in 0..p.heads {
        let mut dh = vec![Half::ZERO; n * d];
        for v in 0..n {
            dh[v * d..(v + 1) * d]
                .copy_from_slice(&dcat[v * p.hidden + h * d..v * p.hidden + (h + 1) * d]);
        }
        let (_, dw, dasrc, dadst) = layer_backward_half(
            ops, g, &states[h], x, &w1h[h], &asrc1h[h], &adst1h[h], &dh, f_in, d, dsp,
        );
        grads.w1.push(ops.to_f32(&dw));
        grads.a_src1.push(ops.to_f32(&dasrc));
        grads.a_dst1.push(ops.to_f32(&dadst));
    }
    for part in grads
        .w1
        .iter_mut()
        .chain(grads.a_src1.iter_mut())
        .chain(grads.a_dst1.iter_mut())
        .chain([&mut grads.w2, &mut grads.a_src2, &mut grads.a_dst2])
    {
        ops.unscale_grad(part);
    }
    StepOutput { loss, correct, grads, logits }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let out = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32);
        let eps = 1e-3;

        // W1 coordinates (checks the full attention backward chain).
        for &idx in &[0usize, 9, 21] {
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.w1[idx] = orig - eps;
            let lm = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
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
            let lp = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.a_src1[idx] = orig - eps;
            let lm = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
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
        let out = step_f32_multihead(&mut ops, &g, &p, &x, &labels, &mask);
        let eps = 1e-3;
        // Spot-check one coordinate in two different heads + layer 2.
        for head in [0usize, 3] {
            let idx = 5;
            let orig = p.w1[head][idx];
            p.w1[head][idx] = orig + eps;
            let lp = step_f32_multihead(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.w1[head][idx] = orig - eps;
            let lm = step_f32_multihead(&mut ops, &g, &p, &x, &labels, &mask).loss;
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
        let lp = step_f32_multihead(&mut ops, &g, &p, &x, &labels, &mask).loss;
        p.w2[3] = orig - eps;
        let lm = step_f32_multihead(&mut ops, &g, &p, &x, &labels, &mask).loss;
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
        let a = step_f32_dist(&mut ops, &g, &single, &x, &labels, &mask, fd32);
        let b = step_f32_multihead(&mut ops, &g, &multi, &x, &labels, &mask);
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
        let f = step_f32_multihead(&mut ops, &g, &p, &x, &labels, &mask);
        let h = step_half_multihead(
            &mut ops,
            &g,
            &p,
            &xh,
            &labels,
            &mask,
            PrecisionMode::HalfGnn.into(),
        );
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
        let f = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32);
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
