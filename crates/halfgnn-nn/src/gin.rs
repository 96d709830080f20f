//! GIN (Xu et al.).
//!
//! Per layer: `h' = σ(((1+ε)·x + agg(x)) · W + b)` with ε = 0 fixed.
//!
//! * The float and naive-half baselines use DGL's **'mean'** reduction
//!   variant the paper discusses in §3.1.3: "the degree-norm is called
//!   after SpMM for forward computation. Consequently, this version of GIN
//!   is susceptible to the same overflow issue as GCN" — which is exactly
//!   what the naive-half path reproduces (post-scaled mean overflows
//!   during the reduction).
//! * HalfGNN aggregation is the paper's Eq. 4: `(1+ε)·x + λ·mean(x)` with
//!   the non-learnable λ = 0.1 that protects the *combine* addition too
//!   (§5.2.2 "Additional Overflow in GIN"), on top of the discretized
//!   (overflow-free) mean.

use crate::gcn::StepOutput;
use crate::graphdata::GraphView;
use crate::models::{
    grad_colsum_f32, grad_colsum_half, grad_gemm_f32, grad_gemm_half, spmm_mean_f32,
    spmm_mean_half, spmm_sum_f32, spmm_sum_half, Dispatch, PrecisionMode,
};
use crate::params::{TwoLayerGrads, TwoLayerParams};
use halfgnn_half::Half;
use halfgnn_tensor::Ops;

/// The paper's λ (Eq. 4), validated as "worked fine for all our robust
/// testing".
pub const GIN_LAMBDA: f32 = 0.1;

/// ε in the GIN combine (fixed, non-learnable here).
pub const GIN_EPS: f32 = 0.0;

/// One f32 GIN step (DGL 'mean' reduction variant) under an explicit
/// dispatch (the sharded trainer threads a [`crate::dist::DistCtx`]
/// through it).
#[allow(clippy::too_many_arguments)]
pub fn step_f32_dist(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[f32],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
) -> StepOutput<TwoLayerGrads> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let one_eps = 1.0 + GIN_EPS;

    // ---- Forward.
    let agg1 = spmm_mean_f32(ops, g, x, f_in, d);
    let comb1 = ops.scale_add_f32(one_eps, x, 1.0, &agg1);
    let z1 = ops.gemm_f32(&comb1, false, &p.w1, false, n, f_in, h);
    let z1 = ops.bias_add_f32(&z1, &p.b1);
    let h1 = ops.relu_f32(&z1);
    let agg2 = spmm_mean_f32(ops, g, &h1, h, d);
    let comb2 = ops.scale_add_f32(one_eps, &h1, 1.0, &agg2);
    let z2 = ops.gemm_f32(&comb2, false, &p.w2, false, n, h, c);
    let logits = ops.bias_add_f32(&z2, &p.b2);

    let (loss, dlogits, correct) = ops.softmax_xent_f32(&logits, labels, mask, c);

    // ---- Backward.
    let dw2 = grad_gemm_f32(ops, &comb2, &dlogits, h, n, c, d);
    let db2 = grad_colsum_f32(ops, &dlogits, c, d);
    let dcomb2 = ops.gemm_f32(&dlogits, false, &p.w2, true, n, c, h);
    // comb2 = (1+ε)h1 + mean(h1)  ⇒  δh1 = (1+ε)δcomb2 + Âᵀ(δcomb2/deg).
    let scaled2 = ops.row_scale_f32(&dcomb2, &g.mean_scale_f, h);
    let back2 = spmm_sum_f32(ops, g, &scaled2, h, d);
    let dh1 = ops.scale_add_f32(one_eps, &dcomb2, 1.0, &back2);
    let dz1 = ops.relu_grad_f32(&z1, &dh1);
    let dw1 = grad_gemm_f32(ops, &comb1, &dz1, f_in, n, h, d);
    let db1 = grad_colsum_f32(ops, &dz1, h, d);

    StepOutput {
        loss,
        correct,
        grads: TwoLayerGrads { w1: dw1, b1: db1, w2: dw2, b2: db2 },
        logits,
    }
}

/// One mixed-precision GIN step with an explicit λ: the trainer passes
/// the paper's [`GIN_LAMBDA`] unless configured otherwise, and the §5.2.2
/// ablation sweeps it. `HalfNaive` runs the overflowing DGL-mean variant;
/// HalfGNN modes use Eq. 4.
#[allow(clippy::too_many_arguments)]
pub fn step_half_lambda(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[Half],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
    lambda: f32,
) -> StepOutput<TwoLayerGrads> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let one_eps = Half::from_f32(1.0 + GIN_EPS);
    let protected = matches!(d.mode, PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize);
    let agg_scale = if protected { Half::from_f32(lambda) } else { Half::ONE };

    let w1h = ops.to_half(&p.w1);
    let b1h = ops.to_half(&p.b1);
    let w2h = ops.to_half(&p.w2);
    let b2h = ops.to_half(&p.b2);

    // Both the naive and protected paths run DGL's 'mean' GIN; the naive
    // kernel applies the degree norm post-reduction, so hub rows have
    // already overflowed by the time it runs.
    let aggregate =
        |ops: &mut Ops, g: &GraphView, t: &[Half], f: usize| spmm_mean_half(ops, g, t, f, d);

    // ---- Forward.
    let layer1 = halfgnn_half::overflow::site("gin.layer1");
    let agg1 = aggregate(ops, g, x, f_in);
    let comb1 = ops.scale_add_half(one_eps, x, agg_scale, &agg1);
    let z1 = ops.gemm_half(&comb1, false, &w1h, false, n, f_in, h);
    let z1 = ops.bias_add_half(&z1, &b1h);
    let h1 = ops.relu_half(&z1);
    drop(layer1);
    let layer2 = halfgnn_half::overflow::site("gin.layer2");
    let agg2 = aggregate(ops, g, &h1, h);
    let comb2 = ops.scale_add_half(one_eps, &h1, agg_scale, &agg2);
    let z2 = ops.gemm_half(&comb2, false, &w2h, false, n, h, c);
    let out = ops.bias_add_half(&z2, &b2h);
    drop(layer2);

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

    // ---- Backward.
    let _bwd = halfgnn_half::overflow::site("gin.backward");
    let dout = ops.to_half(&dlogits);
    let dw2h = grad_gemm_half(ops, &comb2, &dout, h, n, c, d);
    let db2 = grad_colsum_half(ops, &dout, c, d);
    let dcomb2 = ops.gemm_half(&dout, false, &w2h, true, n, c, h);
    // Adjoint of the aggregation: mean's adjoint is row-scale-then-sum;
    // sum's adjoint is a plain sum.
    let scaled2 = ops.row_scale_half(&dcomb2, &g.mean_scale_h, h);
    let back2 = spmm_sum_half(ops, g, &scaled2, h, d);
    let dh1 = ops.scale_add_half(one_eps, &dcomb2, agg_scale, &back2);
    let dz1 = ops.relu_grad_half(&z1, &dh1);
    let dw1h = grad_gemm_half(ops, &comb1, &dz1, f_in, n, h, d);
    let db1 = grad_colsum_half(ops, &dz1, h, d);

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
    use halfgnn_graph::gen;
    use halfgnn_graph::Csr;
    use halfgnn_sim::DeviceConfig;

    fn toy() -> (GraphView, Vec<f32>, Vec<u32>, Vec<bool>) {
        let (edges, labels) = gen::sbm(&[20, 20], 0.4, 0.02, 9);
        let csr = Csr::from_edges(40, 40, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x = halfgnn_graph::features::class_features(&labels, 2, 8, 1.0, 0.2, 6);
        (g, x, labels, vec![true; 40])
    }

    #[test]
    fn f32_gradients_match_finite_differences() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = TwoLayerParams::new(8, 6, 2, 2);
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let out = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32);
        let eps = 1e-3;
        for &idx in &[0usize, 11, 30] {
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.w1[idx] = orig - eps;
            let lm = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.w1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w1[idx]).abs() < 1e-2 + 0.05 * fd.abs(),
                "w1[{idx}]: fd {fd} vs {}",
                out.grads.w1[idx]
            );
        }
        for &idx in &[1usize, 8] {
            let orig = p.b1[idx % p.b1.len()];
            let j = idx % p.b1.len();
            p.b1[j] = orig + eps;
            let lp = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.b1[j] = orig - eps;
            let lm = step_f32_dist(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            p.b1[j] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            // Relative slack absorbs ReLU-kink noise in the central
            // difference.
            assert!(
                (fd - out.grads.b1[j]).abs() < 1e-2 + 0.1 * fd.abs(),
                "b1[{j}]: fd {fd} vs {}",
                out.grads.b1[j]
            );
        }
    }

    #[test]
    fn naive_half_overflows_on_a_hub_graph_halfgnn_does_not() {
        // A star hub with large positive features: Eq. 3's sum overflows in
        // half, Eq. 4's λ-scaled mean stays finite.
        let dev = DeviceConfig::a100_like();
        let n = 900;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|c| (0, c)).collect();
        edges.extend((1..n as u32 - 1).map(|v| (v, v + 1)));
        let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x = vec![80.0f32; n * 4];
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let labels = vec![0u32; n];
        let mask = vec![true; n];
        let p = TwoLayerParams::new(4, 6, 2, 3);

        let mut ops = Ops::new(&dev);
        let naive_d = PrecisionMode::HalfNaive.into();
        let naive = step_half_lambda(&mut ops, &g, &p, &xh, &labels, &mask, naive_d, GIN_LAMBDA);
        assert!(naive.loss.is_nan(), "naive GIN should NaN, got {}", naive.loss);

        let ours_d = PrecisionMode::HalfGnn.into();
        let ours = step_half_lambda(&mut ops, &g, &p, &xh, &labels, &mask, ours_d, GIN_LAMBDA);
        assert!(ours.loss.is_finite(), "HalfGNN GIN must stay finite, got {}", ours.loss);
    }
}
