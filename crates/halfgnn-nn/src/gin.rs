//! GIN (Xu et al.).
//!
//! Per layer: `h' = σ(((1+ε)·x + agg(x)) · W + b)` with ε = 0 fixed. One
//! step, generic over the precision ([`Elem`]):
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
use crate::models::{spmm_mean, spmm_sum, Dispatch, Elem, PrecisionMode};
use crate::params::{TwoLayerGrads, TwoLayerParams};
use halfgnn_half::overflow;
use halfgnn_tensor::Ops;

/// The paper's λ (Eq. 4), validated as "worked fine for all our robust
/// testing".
pub const GIN_LAMBDA: f32 = 0.1;

/// ε in the GIN combine (fixed, non-learnable here).
pub const GIN_EPS: f32 = 0.0;

/// One GIN step with an explicit λ: the trainer passes the paper's
/// [`GIN_LAMBDA`] unless configured otherwise, and the §5.2.2 ablation
/// sweeps it. λ applies only in the HalfGNN modes (Eq. 4); the float and
/// `HalfNaive` baselines run the DGL-mean variant.
#[allow(clippy::too_many_arguments)]
pub fn step<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[E],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
    lambda: f32,
) -> StepOutput<TwoLayerGrads> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let one_eps = E::from_f32(1.0 + GIN_EPS);
    let protected = matches!(d.mode, PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize);
    let agg_scale = if protected { E::from_f32(lambda) } else { E::ONE };
    let [w1, b1, w2, b2] = [&p.w1, &p.b1, &p.w2, &p.b2].map(|w| E::weight(ops, w));

    // ---- Forward. Both the naive and protected paths run DGL's 'mean'
    // GIN; the naive kernel applies the degree norm post-reduction, so hub
    // rows have already overflowed by the time it runs.
    let layer1 = overflow::site("gin.layer1");
    let agg1 = spmm_mean(ops, g, x, f_in, d);
    let comb1 = E::scale_add(ops, one_eps, x, agg_scale, &agg1);
    let z1 = E::gemm(ops, &comb1, &w1, false, n, f_in, h);
    let z1 = E::bias_add(ops, &z1, &b1);
    let h1 = E::relu(ops, &z1);
    drop(layer1);
    let layer2 = overflow::site("gin.layer2");
    let agg2 = spmm_mean(ops, g, &h1, h, d);
    let comb2 = E::scale_add(ops, one_eps, &h1, agg_scale, &agg2);
    let z2 = E::gemm(ops, &comb2, &w2, false, n, h, c);
    let out = E::bias_add(ops, &z2, &b2);
    drop(layer2);

    let logits = E::logits(ops, out);
    let (loss, dlogits, _) = ops.softmax_xent_f32(&logits, labels, mask, c);

    // ---- Backward.
    let _bwd = overflow::site("gin.backward");
    let dout = E::loss_grad(ops, dlogits);
    let dw2 = E::grad_gemm(ops, &comb2, &dout, h, n, c, d);
    let db2 = E::grad_colsum(ops, &dout, c, d);
    let dcomb2 = E::gemm(ops, &dout, &w2, true, n, c, h);
    // comb2 = (1+ε)h1 + λ·mean(h1)  ⇒  δh1 = (1+ε)δcomb2 + λ·Âᵀ(δcomb2/deg):
    // mean's adjoint is row-scale-then-sum.
    let scaled2 = E::row_scale(ops, &dcomb2, E::mean_scale(g), h);
    let back2 = spmm_sum(ops, g, &scaled2, h, d);
    let dh1 = E::scale_add(ops, one_eps, &dcomb2, agg_scale, &back2);
    let dz1 = E::relu_grad(ops, &z1, &dh1);
    let dw1 = E::grad_gemm(ops, &comb1, &dz1, f_in, n, h, d);
    let db1 = E::grad_colsum(ops, &dz1, h, d);

    let (w1, w2) = (E::master_grad(ops, dw1), E::master_grad(ops, dw2));
    let mut grads = TwoLayerGrads { w1, b1: db1, w2, b2: db2 };
    E::unscale(ops, [&mut grads.w1, &mut grads.w2, &mut grads.b1, &mut grads.b2]);
    StepOutput { loss, grads, logits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_graph::gen;
    use halfgnn_graph::Csr;
    use halfgnn_half::Half;
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
        let out = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, GIN_LAMBDA);
        let eps = 1e-3;
        for &idx in &[0usize, 11, 30] {
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, GIN_LAMBDA).loss;
            p.w1[idx] = orig - eps;
            let lm = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, GIN_LAMBDA).loss;
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
            let lp = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, GIN_LAMBDA).loss;
            p.b1[j] = orig - eps;
            let lm = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, GIN_LAMBDA).loss;
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
        let naive = step(&mut ops, &g, &p, &xh, &labels, &mask, naive_d, GIN_LAMBDA);
        assert!(naive.loss.is_nan(), "naive GIN should NaN, got {}", naive.loss);

        let ours_d = PrecisionMode::HalfGnn.into();
        let ours = step(&mut ops, &g, &p, &xh, &labels, &mask, ours_d, GIN_LAMBDA);
        assert!(ours.loss.is_finite(), "HalfGNN GIN must stay finite, got {}", ours.loss);
    }
}
