//! GraphSAGE (Hamilton et al., ref. 14 in the paper) with the
//! mean aggregator: `h' = σ(W_self·x + W_neigh·mean(x))`.
//!
//! A fourth architecture over the same kernels — included because the
//! paper's introduction motivates GNNs through GraphSAGE-style inductive
//! learning, and because its mean aggregation has exactly the GCN overflow
//! anatomy: the naive half path accumulates the full neighborhood before
//! the degree norm and NaNs on hub graphs; HalfGNN's discretized kernel
//! does not. One step, generic over the precision ([`Elem`]).

use crate::gcn::StepOutput;
use crate::graphdata::GraphView;
use crate::models::{spmm_mean, spmm_sum, Dispatch, Elem};
use crate::params::glorot;
use halfgnn_half::{overflow, Half};
use halfgnn_tensor::Ops;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two-layer GraphSAGE parameters: per layer a self weight, a neighbor
/// weight, and a bias.
pub struct SageParams {
    /// Layer-1 self weight, `f_in × hidden`.
    pub w_self1: Vec<f32>,
    /// Layer-1 neighbor weight, `f_in × hidden`.
    pub w_neigh1: Vec<f32>,
    /// Layer-1 bias.
    pub b1: Vec<f32>,
    /// Layer-2 self weight, `hidden × classes`.
    pub w_self2: Vec<f32>,
    /// Layer-2 neighbor weight, `hidden × classes`.
    pub w_neigh2: Vec<f32>,
    /// Layer-2 bias.
    pub b2: Vec<f32>,
    /// Input feature length.
    pub f_in: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output width.
    pub classes: usize,
}

impl SageParams {
    /// Glorot-initialized parameters.
    pub fn new(f_in: usize, hidden: usize, classes: usize, seed: u64) -> SageParams {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5A6E));
        SageParams {
            w_self1: glorot(f_in, hidden, &mut rng),
            w_neigh1: glorot(f_in, hidden, &mut rng),
            b1: vec![0.0; hidden],
            w_self2: glorot(hidden, classes, &mut rng),
            w_neigh2: glorot(hidden, classes, &mut rng),
            b2: vec![0.0; classes],
            f_in,
            hidden,
            classes,
        }
    }

    /// Flat view for the optimizer.
    pub fn flat(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.num_params());
        for part in
            [&self.w_self1, &self.w_neigh1, &self.b1, &self.w_self2, &self.w_neigh2, &self.b2]
        {
            v.extend_from_slice(part);
        }
        v
    }

    /// Restore from the flat view.
    pub fn set_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params());
        let mut off = 0;
        for part in [
            &mut self.w_self1,
            &mut self.w_neigh1,
            &mut self.b1,
            &mut self.w_self2,
            &mut self.w_neigh2,
            &mut self.b2,
        ] {
            let len = part.len();
            part.copy_from_slice(&flat[off..off + len]);
            off += len;
        }
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        2 * self.f_in * self.hidden + self.hidden + 2 * self.hidden * self.classes + self.classes
    }
}

/// Gradients matching [`SageParams`] (same flat order).
#[derive(Default)]
pub struct SageGrads {
    /// ∂L/∂W_self1.
    pub w_self1: Vec<f32>,
    /// ∂L/∂W_neigh1.
    pub w_neigh1: Vec<f32>,
    /// ∂L/∂b1.
    pub b1: Vec<f32>,
    /// ∂L/∂W_self2.
    pub w_self2: Vec<f32>,
    /// ∂L/∂W_neigh2.
    pub w_neigh2: Vec<f32>,
    /// ∂L/∂b2.
    pub b2: Vec<f32>,
}

impl SageGrads {
    /// Flat view matching [`SageParams::flat`].
    pub fn flat(&self) -> Vec<f32> {
        let mut v = Vec::new();
        for part in
            [&self.w_self1, &self.w_neigh1, &self.b1, &self.w_self2, &self.w_neigh2, &self.b2]
        {
            v.extend_from_slice(part);
        }
        v
    }
}

/// One GraphSAGE step, generic over the precision: state tensors in `E`
/// through the kernels the dispatch's mode selects, f32 master weights
/// and loss.
pub fn step<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &SageParams,
    x: &[E],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
) -> StepOutput<SageGrads> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let [w_self1, w_neigh1, b1, w_self2, w_neigh2, b2] =
        [&p.w_self1, &p.w_neigh1, &p.b1, &p.w_self2, &p.w_neigh2, &p.b2].map(|w| E::weight(ops, w));
    let one = E::ONE;

    // ---- Forward.
    let layer1 = overflow::site("sage.layer1");
    let m1 = spmm_mean(ops, g, x, f_in, d);
    let zs1 = ops.gemm(x, false, &w_self1, false, n, f_in, h);
    let zn1 = ops.gemm(&m1, false, &w_neigh1, false, n, f_in, h);
    let z1 = ops.scale_add(one, &zs1, one, &zn1);
    let z1 = ops.bias_add(&z1, &b1);
    let h1 = ops.relu(&z1);
    drop(layer1);
    let layer2 = overflow::site("sage.layer2");
    let m2 = spmm_mean(ops, g, &h1, h, d);
    let zs2 = ops.gemm(&h1, false, &w_self2, false, n, h, c);
    let zn2 = ops.gemm(&m2, false, &w_neigh2, false, n, h, c);
    let z2 = ops.scale_add(one, &zs2, one, &zn2);
    let out = ops.bias_add(&z2, &b2);
    drop(layer2);

    let logits = E::logits(ops, out);
    let (loss, dlogits, _) = ops.softmax_xent_f32(&logits, labels, mask, c);

    // ---- Backward.
    let _bwd = overflow::site("sage.backward");
    let dout = E::loss_grad(ops, dlogits);
    let dw_self2 = E::grad_gemm(ops, &h1, &dout, h, n, c, d);
    let dw_neigh2 = E::grad_gemm(ops, &m2, &dout, h, n, c, d);
    let db2 = E::grad_colsum(ops, &dout, c, d);
    // δh1 = δz2 W_self2ᵀ + meanᵀ(δz2) W_neigh2ᵀ  (mean adjoint: scale+sum).
    let dh_self = ops.gemm(&dout, false, &w_self2, true, n, c, h);
    let dm2 = ops.gemm(&dout, false, &w_neigh2, true, n, c, h);
    let scaled = ops.row_scale(&dm2, E::mean_scale(g), h);
    let dh_neigh = spmm_sum(ops, g, &scaled, h, d);
    let dh1 = ops.scale_add(one, &dh_self, one, &dh_neigh);
    let dz1 = ops.relu_grad(&z1, &dh1);
    let dw_self1 = E::grad_gemm(ops, x, &dz1, f_in, n, h, d);
    let dw_neigh1 = E::grad_gemm(ops, &m1, &dz1, f_in, n, h, d);
    let db1 = E::grad_colsum(ops, &dz1, h, d);

    // Flat parameter order; weight gradients return to f32 first.
    let mut parts = [
        E::master_grad(ops, dw_self1),
        E::master_grad(ops, dw_neigh1),
        db1,
        E::master_grad(ops, dw_self2),
        E::master_grad(ops, dw_neigh2),
        db2,
    ];
    E::unscale(ops, &mut parts);
    let [w_self1, w_neigh1, b1, w_self2, w_neigh2, b2] = parts;
    let grads = SageGrads { w_self1, w_neigh1, b1, w_self2, w_neigh2, b2 };
    StepOutput { loss, grads, logits }
}

/// [`step`] in half precision.
pub fn step_half(
    ops: &mut Ops,
    g: &GraphView,
    p: &SageParams,
    x: &[Half],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
) -> StepOutput<SageGrads> {
    step(ops, g, p, x, labels, mask, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PrecisionMode;
    use halfgnn_graph::gen;
    use halfgnn_graph::Csr;
    use halfgnn_sim::DeviceConfig;

    fn toy() -> (GraphView, Vec<f32>, Vec<u32>, Vec<bool>) {
        let (edges, labels) = gen::sbm(&[20, 20], 0.4, 0.02, 13);
        let csr = Csr::from_edges(40, 40, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x = halfgnn_graph::features::class_features(&labels, 2, 8, 1.0, 0.3, 14);
        (g, x, labels, vec![true; 40])
    }

    #[test]
    fn f32_gradients_match_finite_differences() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = SageParams::new(8, 6, 2, 5);
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let out = step(&mut ops, &g, &p, &x, &labels, &mask, fd32);
        let eps = 1e-3;
        // One coordinate in each parameter tensor covers every path.
        let checks: Vec<(&str, usize)> =
            vec![("w_self1", 3), ("w_neigh1", 7), ("w_self2", 2), ("w_neigh2", 4)];
        for (which, idx) in checks {
            let read = |p: &SageParams| match which {
                "w_self1" => p.w_self1[idx],
                "w_neigh1" => p.w_neigh1[idx],
                "w_self2" => p.w_self2[idx],
                _ => p.w_neigh2[idx],
            };
            let write = |p: &mut SageParams, v: f32| match which {
                "w_self1" => p.w_self1[idx] = v,
                "w_neigh1" => p.w_neigh1[idx] = v,
                "w_self2" => p.w_self2[idx] = v,
                _ => p.w_neigh2[idx] = v,
            };
            let analytic = match which {
                "w_self1" => out.grads.w_self1[idx],
                "w_neigh1" => out.grads.w_neigh1[idx],
                "w_self2" => out.grads.w_self2[idx],
                _ => out.grads.w_neigh2[idx],
            };
            let orig = read(&p);
            write(&mut p, orig + eps);
            let lp = step(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            write(&mut p, orig - eps);
            let lm = step(&mut ops, &g, &p, &x, &labels, &mask, fd32).loss;
            write(&mut p, orig);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 1e-2 + 0.1 * fd.abs(),
                "{which}[{idx}]: fd {fd} vs {analytic}"
            );
        }
    }

    #[test]
    fn half_step_tracks_f32() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = SageParams::new(8, 6, 2, 5);
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let f = step(&mut ops, &g, &p, &x, &labels, &mask, fd32);
        let h = step_half(&mut ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into());
        assert!((f.loss - h.loss).abs() < 0.05, "{} vs {}", f.loss, h.loss);
    }

    #[test]
    fn naive_half_overflows_on_hubs_halfgnn_does_not() {
        let dev = DeviceConfig::a100_like();
        let n = 900;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|c| (0, c)).collect();
        edges.extend((1..n as u32 - 1).map(|v| (v, v + 1)));
        let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let xh: Vec<Half> = vec![Half::from_f32(90.0); n * 4];
        let labels = vec![0u32; n];
        let mask = vec![true; n];
        let p = SageParams::new(4, 6, 2, 3);
        let mut ops = Ops::new(&dev);
        let naive =
            step_half(&mut ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfNaive.into());
        assert!(naive.loss.is_nan(), "SAGE naive-half should NaN, got {}", naive.loss);
        let ours = step_half(&mut ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into());
        assert!(ours.loss.is_finite());
    }

    #[test]
    fn flat_round_trip() {
        let mut p = SageParams::new(8, 4, 3, 1);
        let flat = p.flat();
        assert_eq!(flat.len(), p.num_params());
        let mut modified = flat.clone();
        modified[10] = 99.0;
        p.set_flat(&modified);
        assert_eq!(p.flat(), modified);
    }
}
