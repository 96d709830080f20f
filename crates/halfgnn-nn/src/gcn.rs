//! GCN (Kipf & Welling) with right degree normalization — Eq. 2 of the
//! paper, specialized to the "frequently used" `right` norm its overflow
//! analysis centers on: `H' = σ(D⁻¹ Â (H W))`.
//!
//! Forward per layer: GeMM → bias → SpMMv with mean aggregation → ReLU
//! (last layer: no ReLU; softmax cross-entropy in f32). The forward pass
//! is shared by the training [`step`] and serving's forward-only
//! [`forward`]; both are written once, generic over the precision
//! ([`Elem`]).
//!
//! Backward: the mean aggregation's adjoint on a symmetric Â is a row
//! scaling by `1/deg` followed by a plain-sum SpMMv — scaling happens
//! *before* the reduction, so the backward pass is overflow-safe under any
//! kernel, exactly as §3.1.3 observes for right norm.

use crate::graphdata::GraphView;
use crate::models::{spmm_mean, spmm_sum, Dispatch, Elem, GcnNorm};
use crate::params::{TwoLayerGrads, TwoLayerParams};
use halfgnn_half::{overflow, Half};
use halfgnn_tensor::Ops;
use std::borrow::Cow;

/// Result of one training step.
pub struct StepOutput<G> {
    /// Mean training loss.
    pub loss: f32,
    /// Parameter gradients (f32 master domain).
    pub grads: G,
    /// Full logits (f32), for evaluation.
    pub logits: Vec<f32>,
}

/// GCN aggregation under the chosen norm (Â is symmetric).
fn agg<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    x: &[E],
    f: usize,
    norm: GcnNorm,
    d: Dispatch<'_>,
) -> Vec<E> {
    match norm {
        GcnNorm::Right => spmm_mean(ops, g, x, f, d),
        GcnNorm::Left => {
            let scaled = E::row_scale(ops, x, E::mean_scale(g), f);
            spmm_sum(ops, g, &scaled, f, d)
        }
        GcnNorm::Both => {
            let scaled = E::row_scale(ops, x, E::inv_sqrt_scale(g), f);
            E::spmm(ops, g, None, &scaled, f, Some(E::inv_sqrt_scale(g)), d)
        }
    }
}

/// Adjoint of [`agg`] on a symmetric Â.
fn agg_backward<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    dy: &[E],
    f: usize,
    norm: GcnNorm,
    d: Dispatch<'_>,
) -> Vec<E> {
    match norm {
        // (D⁻¹Â)ᵀ = Â D⁻¹: scale first, then sum.
        GcnNorm::Right => {
            let scaled = E::row_scale(ops, dy, E::mean_scale(g), f);
            spmm_sum(ops, g, &scaled, f, d)
        }
        // (ÂD⁻¹)ᵀ = D⁻¹Â: sum first, then scale — the §3.1.3 backward trap.
        GcnNorm::Left => E::left_norm_adjoint(ops, g, dy, f, d),
        // D^-1/2 Â D^-1/2 is self-adjoint.
        GcnNorm::Both => agg(ops, g, dy, f, GcnNorm::Both, d),
    }
}

/// What the forward pass leaves for the backward pass.
struct Forward<'a, E: Elem> {
    /// Layer 2's weight as the step read it.
    w2: Cow<'a, [E]>,
    /// Whatever fed layer 1's GeMM: X or Â·X.
    lin_in: Cow<'a, [E]>,
    /// Layer 1's pre-activation output.
    a1: Vec<E>,
    /// Layer 1's activation.
    h1: Vec<E>,
    logits: Vec<f32>,
}

/// The forward pass through both layers, logits promoted to f32.
///
/// Layer-1 order follows DGL's `GraphConv` dispatch: when
/// `in_feats ≤ out_feats` it aggregates the (cheaper) raw features first,
/// then transforms — `(Â X) W` — otherwise it transforms first. The two
/// orders are mathematically identical; the dispatch matters because
/// aggregate-first runs SpMM on the raw input features, which is where
/// count-like datasets overflow FP16 (§3.1.3).
fn forward_pass<'a, E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &'a TwoLayerParams,
    x: &'a [E],
    d: Dispatch<'_>,
    norm: GcnNorm,
) -> Forward<'a, E> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let [w1, b1, w2, b2] = [&p.w1, &p.b1, &p.w2, &p.b2].map(|w| E::weight(ops, w));

    let layer1 = overflow::site("gcn.layer1");
    let (lin_in, a1) = if f_in <= h {
        let ax = agg(ops, g, x, f_in, norm, d);
        let z1 = E::gemm(ops, &ax, &w1, false, n, f_in, h);
        let a1 = E::bias_add(ops, &z1, &b1);
        (Cow::Owned(ax), a1)
    } else {
        let z1 = E::gemm(ops, x, &w1, false, n, f_in, h);
        let z1 = E::bias_add(ops, &z1, &b1);
        (Cow::Borrowed(x), agg(ops, g, &z1, h, norm, d))
    };
    drop(layer1);
    let layer2 = overflow::site("gcn.layer2");
    let h1 = E::relu(ops, &a1);
    let z2 = E::gemm(ops, &h1, &w2, false, n, h, c);
    let z2 = E::bias_add(ops, &z2, &b2);
    let out = agg(ops, g, &z2, c, norm, d);
    drop(layer2);

    let logits = E::logits(ops, out);
    Forward { w2, lin_in, a1, h1, logits }
}

/// Forward-only GCN for the serving engine: the training step's own
/// forward pass, stopping at the logits (`n × classes`, row-major) — which
/// is what lets `halfgnn-serve` claim its outputs match training-side
/// evaluation. No loss, gradients or optimizer state, so the arena planner
/// sees only the inference working set.
pub fn forward<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[E],
    d: Dispatch<'_>,
    norm: GcnNorm,
) -> Vec<f32> {
    forward_pass(ops, g, p, x, d, norm).logits
}

/// One training step with an explicit degree-norm placement (§3.1.3
/// ablations): state tensors in `E` through the kernels the dispatch's
/// mode selects, f32 master weights and loss.
#[allow(clippy::too_many_arguments)]
pub fn step<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[E],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
    norm: GcnNorm,
) -> StepOutput<TwoLayerGrads> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let fwd = forward_pass(ops, g, p, x, d, norm);
    let (loss, dlogits, _) = ops.softmax_xent_f32(&fwd.logits, labels, mask, c);

    let _bwd = overflow::site("gcn.backward");
    let dout = E::loss_grad(ops, dlogits);
    let dz2 = agg_backward(ops, g, &dout, c, norm, d);
    let dw2 = E::grad_gemm(ops, &fwd.h1, &dz2, h, n, c, d);
    let db2 = E::grad_colsum(ops, &dz2, c, d);
    let dh1 = E::gemm(ops, &dz2, &fwd.w2, true, n, c, h);
    let da1 = E::relu_grad(ops, &fwd.a1, &dh1);
    // Aggregate-first: a1 = agg(X)W + b, so the SpMM is upstream of the
    // GeMM and δW = agg(X)ᵀ δa1 needs no adjoint SpMM.
    let dz1 = if f_in <= h { da1 } else { agg_backward(ops, g, &da1, h, norm, d) };
    let dw1 = E::grad_gemm(ops, &fwd.lin_in, &dz1, f_in, n, h, d);
    let db1 = E::grad_colsum(ops, &dz1, h, d);

    let (w1, w2) = (E::master_grad(ops, dw1), E::master_grad(ops, dw2));
    let mut grads = TwoLayerGrads { w1, b1: db1, w2, b2: db2 };
    E::unscale(ops, [&mut grads.w1, &mut grads.w2, &mut grads.b1, &mut grads.b2]);
    StepOutput { loss, grads, logits: fwd.logits }
}

/// [`step`] in half precision.
#[allow(clippy::too_many_arguments)]
pub fn step_half_norm(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[Half],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
    norm: GcnNorm,
) -> StepOutput<TwoLayerGrads> {
    step(ops, g, p, x, labels, mask, d, norm)
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
        let out = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, right);
        // Check a handful of weight coordinates by central differences.
        let eps = 1e-3;
        for &idx in &[0usize, 7, 13, 40] {
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, right).loss;
            p.w1[idx] = orig - eps;
            let lm = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, right).loss;
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
            let lp = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, right).loss;
            p.w2[idx] = orig - eps;
            let lm = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, right).loss;
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
            let out = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, norm);
            let idx = 5;
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, norm).loss;
            p.w1[idx] = orig - eps;
            let lm = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, norm).loss;
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
        let r = agg(&mut ops, &g, &x, 4, GcnNorm::Right, fd32);
        let l = agg(&mut ops, &g, &x, 4, GcnNorm::Left, fd32);
        let b = agg(&mut ops, &g, &x, 4, GcnNorm::Both, fd32);
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
        let y_left = agg(&mut ops, &g, &x, 4, GcnNorm::Left, PrecisionMode::HalfNaive.into());
        assert!(y_left.iter().all(|v| v.is_finite()), "left-norm forward must be safe");
        let y_right = agg(&mut ops, &g, &x, 4, GcnNorm::Right, PrecisionMode::HalfNaive.into());
        assert!(y_right[0].is_infinite(), "right-norm forward overflows on the hub");
        // ... but the left-norm *adjoint* (sum then scale) overflows:
        let d_left =
            agg_backward(&mut ops, &g, &x, 4, GcnNorm::Left, PrecisionMode::HalfNaive.into());
        assert!(d_left[0].is_infinite(), "left-norm backward overflows (§3.1.3)");
        // ... and HalfGNN's discretized kernels are safe on both sides.
        let d_ours =
            agg_backward(&mut ops, &g, &x, 4, GcnNorm::Left, PrecisionMode::HalfGnn.into());
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
        let f = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, GcnNorm::Right);
        let hd = PrecisionMode::HalfGnn.into();
        let hstep = step_half_norm(&mut ops, &g, &p, &xh, &labels, &mask, hd, GcnNorm::Right);
        assert!((f.loss - hstep.loss).abs() < 0.05, "{} vs {}", f.loss, hstep.loss);
        // Gradient direction agreement (cosine similarity) on W1.
        let dot: f32 = f.grads.w1.iter().zip(&hstep.grads.w1).map(|(a, b)| a * b).sum();
        let na: f32 = f.grads.w1.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nb: f32 = hstep.grads.w1.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(dot / (na * nb) > 0.98, "cosine {}", dot / (na * nb));
    }

    /// The 32-vertex graph the forward-only tests pin.
    fn forward_toy() -> (Csr, Vec<f32>, Vec<u32>, Vec<bool>) {
        let (edges, labels) = gen::sbm(&[16, 16], 0.4, 0.03, 7);
        let csr = Csr::from_edges(32, 32, &edges).symmetrized_with_self_loops();
        let x = halfgnn_graph::features::class_features(&labels, 2, 8, 1.0, 0.2, 11);
        let mask = vec![true; 32];
        (csr, x, labels, mask)
    }

    #[test]
    fn forward_only_logits_match_the_training_step_bitwise() {
        let dev = DeviceConfig::a100_like();
        let (csr, x, labels, mask) = forward_toy();
        let g = GraphView::full(&csr);
        let p = TwoLayerParams::new(8, 6, 2, 1);
        for norm in [GcnNorm::Right, GcnNorm::Left, GcnNorm::Both] {
            let d = Dispatch::untuned(PrecisionMode::Float);
            let mut ops = Ops::new(&dev);
            let fwd = forward(&mut ops, &g, &p, &x, d, norm);
            let out = step(&mut ops, &g, &p, &x, &labels, &mask, d, norm);
            assert_eq!(
                fwd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{norm:?}: f32 forward diverged from the step"
            );
        }
    }

    #[test]
    fn half_forward_only_logits_match_the_training_step_bitwise() {
        let dev = DeviceConfig::a100_like();
        let (csr, x, labels, mask) = forward_toy();
        let g = GraphView::full(&csr);
        let p = TwoLayerParams::new(8, 6, 2, 1);
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        for mode in [PrecisionMode::HalfGnn, PrecisionMode::HalfNaive] {
            let d = Dispatch::untuned(mode);
            let mut ops = Ops::new(&dev);
            let fwd = forward(&mut ops, &g, &p, &xh, d, GcnNorm::Right);
            let out = step_half_norm(&mut ops, &g, &p, &xh, &labels, &mask, d, GcnNorm::Right);
            assert_eq!(
                fwd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{mode:?}: half forward diverged from the step"
            );
        }
    }
}
