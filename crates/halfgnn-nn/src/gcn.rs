//! GCN (Kipf & Welling) with right degree normalization — Eq. 2 of the
//! paper, specialized to the "frequently used" `right` norm its overflow
//! analysis centers on: `H' = σ(D⁻¹ Â (H W))`.
//!
//! Forward per layer: GeMM → bias → SpMMv with mean aggregation → ReLU
//! (last layer: no ReLU; softmax cross-entropy in f32).
//!
//! Backward: the mean aggregation's adjoint on a symmetric Â is a row
//! scaling by `1/deg` followed by a plain-sum SpMMv — scaling happens
//! *before* the reduction, so the backward pass is overflow-safe under any
//! kernel, exactly as §3.1.3 observes for right norm.

use crate::graphdata::GraphView;
use crate::models::{
    gcn_agg_backward_f32, gcn_agg_backward_half, gcn_agg_f32, gcn_agg_half, grad_colsum_f32,
    grad_colsum_half, grad_gemm_f32, grad_gemm_half, Dispatch, GcnNorm,
};
use crate::params::{TwoLayerGrads, TwoLayerParams};
use halfgnn_tensor::Ops;

/// Result of one training step.
pub struct StepOutput<G> {
    /// Mean training loss.
    pub loss: f32,
    /// Correct predictions on the training mask.
    pub correct: usize,
    /// Parameter gradients (f32 master domain).
    pub grads: G,
    /// Full logits (f32), for evaluation.
    pub logits: Vec<f32>,
}

/// One f32 training step (the DGL-float baseline) with an explicit
/// degree-norm placement (§3.1.3 ablations) and dispatch (the float path
/// only consults its `dist` context).
///
/// Layer-1 order follows DGL's `GraphConv` dispatch: when
/// `in_feats ≤ out_feats` it aggregates the (cheaper) raw features first,
/// then transforms — `(Â X) W` — otherwise it transforms first. The two
/// orders are mathematically identical; the dispatch matters because
/// aggregate-first runs SpMM on the raw input features, which is where
/// count-like datasets overflow FP16 (§3.1.3).
#[allow(clippy::too_many_arguments)]
pub fn step_f32_norm(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[f32],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
    norm: GcnNorm,
) -> StepOutput<TwoLayerGrads> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let aggregate_first = f_in <= h;

    // ---- Forward.
    // `lin_in` is whatever feeds layer 1's GeMM: X or Â·X.
    let (lin_in, a1) = if aggregate_first {
        let ax = gcn_agg_f32(ops, g, x, f_in, norm, d);
        let z1 = ops.gemm_f32(&ax, false, &p.w1, false, n, f_in, h);
        let a1 = ops.bias_add_f32(&z1, &p.b1);
        (ax, a1)
    } else {
        let z1 = ops.gemm_f32(x, false, &p.w1, false, n, f_in, h);
        let z1 = ops.bias_add_f32(&z1, &p.b1);
        let a1 = gcn_agg_f32(ops, g, &z1, h, norm, d);
        (x.to_vec(), a1)
    };
    let h1 = ops.relu_f32(&a1);
    let z2 = ops.gemm_f32(&h1, false, &p.w2, false, n, h, c);
    let z2 = ops.bias_add_f32(&z2, &p.b2);
    let logits = gcn_agg_f32(ops, g, &z2, c, norm, d);

    let (loss, dlogits, correct) = ops.softmax_xent_f32(&logits, labels, mask, c);

    // ---- Backward.
    let dz2 = gcn_agg_backward_f32(ops, g, &dlogits, c, norm, d);
    let dw2 = grad_gemm_f32(ops, &h1, &dz2, h, n, c, d);
    let db2 = grad_colsum_f32(ops, &dz2, c, d);
    let dh1 = ops.gemm_f32(&dz2, false, &p.w2, true, n, c, h);
    let da1 = ops.relu_grad_f32(&a1, &dh1);
    let (dw1, db1) = if aggregate_first {
        // a1 = agg(X)W + b: the SpMM is upstream of the GeMM, so δW = agg(X)ᵀ δa1.
        let dw1 = grad_gemm_f32(ops, &lin_in, &da1, f_in, n, h, d);
        let db1 = grad_colsum_f32(ops, &da1, h, d);
        (dw1, db1)
    } else {
        let dz1 = gcn_agg_backward_f32(ops, g, &da1, h, norm, d);
        let dw1 = grad_gemm_f32(ops, &lin_in, &dz1, f_in, n, h, d);
        let db1 = grad_colsum_f32(ops, &dz1, h, d);
        (dw1, db1)
    };

    StepOutput {
        loss,
        correct,
        grads: TwoLayerGrads { w1: dw1, b1: db1, w2: dw2, b2: db2 },
        logits,
    }
}

/// One mixed-precision training step: half state tensors through the
/// kernels the dispatch's mode selects, f32 master weights and loss, with
/// an explicit degree-norm placement.
#[allow(clippy::too_many_arguments)]
pub fn step_half_norm(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[halfgnn_half::Half],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
    norm: GcnNorm,
) -> StepOutput<TwoLayerGrads> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);

    // AMP: cast master weights to half for the step.
    let w1h = ops.to_half(&p.w1);
    let b1h = ops.to_half(&p.b1);
    let w2h = ops.to_half(&p.w2);
    let b2h = ops.to_half(&p.b2);

    let aggregate_first = f_in <= h;

    // ---- Forward (all state tensors half; DGL-style layer-1 dispatch).
    let layer1 = halfgnn_half::overflow::site("gcn.layer1");
    let (lin_in, a1) = if aggregate_first {
        let ax = gcn_agg_half(ops, g, x, f_in, norm, d);
        let z1 = ops.gemm_half(&ax, false, &w1h, false, n, f_in, h);
        let a1 = ops.bias_add_half(&z1, &b1h);
        (ax, a1)
    } else {
        let z1 = ops.gemm_half(x, false, &w1h, false, n, f_in, h);
        let z1 = ops.bias_add_half(&z1, &b1h);
        let a1 = gcn_agg_half(ops, g, &z1, h, norm, d);
        (x.to_vec(), a1)
    };
    drop(layer1);
    let layer2 = halfgnn_half::overflow::site("gcn.layer2");
    let h1 = ops.relu_half(&a1);
    let z2 = ops.gemm_half(&h1, false, &w2h, false, n, h, c);
    let z2 = ops.bias_add_half(&z2, &b2h);
    let out = gcn_agg_half(ops, g, &z2, c, norm, d);
    drop(layer2);

    // AMP promotes the loss to float (charged conversion).
    let logits = ops.to_f32(&out);
    let (loss, mut dlogits, correct) = ops.softmax_xent_f32(&logits, labels, mask, c);
    // Loss scaling (Micikevicius et al.): multiply the loss gradient so
    // small per-vertex gradients survive the f2h cast; weight gradients
    // are unscaled before the f32 master update.
    let loss_scale = ops.loss_scale;
    if loss_scale != 1.0 {
        for g in dlogits.iter_mut() {
            *g *= loss_scale;
        }
    }

    // ---- Backward in half.
    let _bwd = halfgnn_half::overflow::site("gcn.backward");
    let dout = ops.to_half(&dlogits);
    let dz2 = gcn_agg_backward_half(ops, g, &dout, c, norm, d);
    let dw2h = grad_gemm_half(ops, &h1, &dz2, h, n, c, d);
    let db2 = grad_colsum_half(ops, &dz2, c, d);
    let dh1 = ops.gemm_half(&dz2, false, &w2h, true, n, c, h);
    let da1 = ops.relu_grad_half(&a1, &dh1);
    let (dw1h, db1) = if aggregate_first {
        let dw1h = grad_gemm_half(ops, &lin_in, &da1, f_in, n, h, d);
        let db1 = grad_colsum_half(ops, &da1, h, d);
        (dw1h, db1)
    } else {
        let dz1 = gcn_agg_backward_half(ops, g, &da1, h, norm, d);
        let dw1h = grad_gemm_half(ops, &lin_in, &dz1, f_in, n, h, d);
        let db1 = grad_colsum_half(ops, &dz1, h, d);
        (dw1h, db1)
    };

    // Weight gradients return to f32 for the master update, unscaled.
    let mut dw1 = ops.to_f32(&dw1h);
    let mut dw2 = ops.to_f32(&dw2h);
    let mut db1 = db1;
    let mut db2 = db2;
    ops.unscale_grad(&mut dw1);
    ops.unscale_grad(&mut dw2);
    ops.unscale_grad(&mut db1);
    ops.unscale_grad(&mut db2);

    StepOutput {
        loss,
        correct,
        grads: TwoLayerGrads { w1: dw1, b1: db1, w2: dw2, b2: db2 },
        logits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PrecisionMode;
    use halfgnn_graph::gen;
    use halfgnn_graph::Csr;
    use halfgnn_sim::DeviceConfig;

    fn toy() -> (GraphView, Vec<f32>, Vec<u32>, Vec<bool>) {
        let (edges, labels) = gen::sbm(&[20, 20], 0.4, 0.02, 3);
        let csr = Csr::from_edges(40, 40, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x = halfgnn_graph::features::class_features(&labels, 2, 8, 1.0, 0.2, 5);
        let mask = vec![true; 40];
        (g, x, labels, mask)
    }

    #[test]
    fn f32_gradients_match_finite_differences() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = TwoLayerParams::new(8, 6, 2, 1);
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let right = GcnNorm::Right;
        let out = step_f32_norm(&mut ops, &g, &p, &x, &labels, &mask, fd32, right);
        // Check a handful of weight coordinates by central differences.
        let eps = 1e-3;
        for &idx in &[0usize, 7, 13, 40] {
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = step_f32_norm(&mut ops, &g, &p, &x, &labels, &mask, fd32, right).loss;
            p.w1[idx] = orig - eps;
            let lm = step_f32_norm(&mut ops, &g, &p, &x, &labels, &mask, fd32, right).loss;
            p.w1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w1[idx]).abs() < 5e-3,
                "w1[{idx}]: fd {fd} vs analytic {}",
                out.grads.w1[idx]
            );
        }
        for &idx in &[0usize, 5] {
            let orig = p.w2[idx];
            p.w2[idx] = orig + eps;
            let lp = step_f32_norm(&mut ops, &g, &p, &x, &labels, &mask, fd32, right).loss;
            p.w2[idx] = orig - eps;
            let lm = step_f32_norm(&mut ops, &g, &p, &x, &labels, &mask, fd32, right).loss;
            p.w2[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w2[idx]).abs() < 5e-3,
                "w2[{idx}]: fd {fd} vs analytic {}",
                out.grads.w2[idx]
            );
        }
    }

    #[test]
    fn all_norms_match_finite_differences() {
        // One W1 coordinate per norm suffices: it exercises the full
        // forward/adjoint pair for that norm.
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = TwoLayerParams::new(8, 6, 2, 3);
        let eps = 1e-3;
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        for norm in [GcnNorm::Right, GcnNorm::Left, GcnNorm::Both] {
            let mut ops = Ops::new(&dev);
            let out = step_f32_norm(&mut ops, &g, &p, &x, &labels, &mask, fd32, norm);
            let idx = 5;
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = step_f32_norm(&mut ops, &g, &p, &x, &labels, &mask, fd32, norm).loss;
            p.w1[idx] = orig - eps;
            let lm = step_f32_norm(&mut ops, &g, &p, &x, &labels, &mask, fd32, norm).loss;
            p.w1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w1[idx]).abs() < 1e-2 + 0.1 * fd.abs(),
                "{norm:?}: fd {fd} vs {}",
                out.grads.w1[idx]
            );
        }
    }

    #[test]
    fn norms_agree_on_a_regular_graph() {
        // On a degree-regular graph, right, left and both norms are the
        // same operator: outputs must coincide.
        let dev = DeviceConfig::a100_like();
        // A ring: every vertex has degree 3 after self loops.
        let n = 24u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let csr = halfgnn_graph::Csr::from_edges(n as usize, n as usize, &edges)
            .symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x: Vec<f32> = (0..n as usize * 4).map(|i| (i % 13) as f32 * 0.25 - 1.5).collect();
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let r = crate::models::gcn_agg_f32(&mut ops, &g, &x, 4, GcnNorm::Right, fd32);
        let l = crate::models::gcn_agg_f32(&mut ops, &g, &x, 4, GcnNorm::Left, fd32);
        let b = crate::models::gcn_agg_f32(&mut ops, &g, &x, 4, GcnNorm::Both, fd32);
        for i in 0..r.len() {
            assert!((r[i] - l[i]).abs() < 1e-4, "right vs left at {i}");
            assert!((r[i] - b[i]).abs() < 1e-4, "right vs both at {i}");
        }
    }

    #[test]
    fn left_norm_forward_is_overflow_safe_under_naive_half() {
        // §3.1.3: with left norm there is no *forward* overflow even for
        // the naive kernels — the input is pre-scaled.
        let dev = DeviceConfig::a100_like();
        let deg = 900u32;
        let mut edges: Vec<(u32, u32)> = (1..=deg).map(|c| (0u32, c)).collect();
        edges.extend((1..deg).map(|v| (v, v + 1)));
        let csr = halfgnn_graph::Csr::from_edges(deg as usize + 1, deg as usize + 1, &edges)
            .symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x: Vec<halfgnn_half::Half> =
            vec![halfgnn_half::Half::from_f32(100.0); (deg as usize + 1) * 4];
        let mut ops = Ops::new(&dev);
        let y_left = crate::models::gcn_agg_half(
            &mut ops,
            &g,
            &x,
            4,
            GcnNorm::Left,
            PrecisionMode::HalfNaive.into(),
        );
        assert!(y_left.iter().all(|v| v.is_finite()), "left-norm forward must be safe");
        let y_right = crate::models::gcn_agg_half(
            &mut ops,
            &g,
            &x,
            4,
            GcnNorm::Right,
            PrecisionMode::HalfNaive.into(),
        );
        assert!(y_right[0].is_infinite(), "right-norm forward overflows on the hub");
        // ... but the left-norm *adjoint* (sum then scale) overflows:
        let d_left = crate::models::gcn_agg_backward_half(
            &mut ops,
            &g,
            &x,
            4,
            GcnNorm::Left,
            PrecisionMode::HalfNaive.into(),
        );
        assert!(d_left[0].is_infinite(), "left-norm backward overflows (§3.1.3)");
        // ... and HalfGNN's discretized kernels are safe on both sides.
        let d_ours = crate::models::gcn_agg_backward_half(
            &mut ops,
            &g,
            &x,
            4,
            GcnNorm::Left,
            PrecisionMode::HalfGnn.into(),
        );
        assert!(d_ours.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn half_step_tracks_f32_step() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = TwoLayerParams::new(8, 6, 2, 1);
        let xh: Vec<halfgnn_half::Half> =
            x.iter().map(|&v| halfgnn_half::Half::from_f32(v)).collect();
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let f = step_f32_norm(&mut ops, &g, &p, &x, &labels, &mask, fd32, GcnNorm::Right);
        let hd = PrecisionMode::HalfGnn.into();
        let hstep = step_half_norm(&mut ops, &g, &p, &xh, &labels, &mask, hd, GcnNorm::Right);
        assert!((f.loss - hstep.loss).abs() < 0.05, "{} vs {}", f.loss, hstep.loss);
        // Gradient direction agreement (cosine similarity) on W1.
        let dot: f32 = f.grads.w1.iter().zip(&hstep.grads.w1).map(|(a, b)| a * b).sum();
        let na: f32 = f.grads.w1.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nb: f32 = hstep.grads.w1.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(dot / (na * nb) > 0.98, "cosine {}", dot / (na * nb));
    }
}
