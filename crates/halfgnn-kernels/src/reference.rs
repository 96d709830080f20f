//! Serial `f64` reference implementations — the ground truth every kernel
//! is validated against. These are deliberately simple and allocation-happy;
//! they model exact arithmetic (up to f64), so comparisons against FP16
//! kernels use tolerance bands derived from half-precision ulps.

use crate::common::{EdgeWeights, Reduce};
use halfgnn_graph::Coo;
use halfgnn_half::Half;

/// `Y ← A_w · X` in f64 with optional per-row scaling applied after the
/// exact reduction (exact arithmetic never overflows, so placement is
/// irrelevant here).
pub fn spmm_f64(
    coo: &Coo,
    w: EdgeWeights,
    x: &[f64],
    f: usize,
    reduce: Reduce,
    row_scale: Option<&[f64]>,
) -> Vec<f64> {
    let n = coo.num_rows();
    assert_eq!(x.len(), coo.num_cols() * f, "X shape mismatch");
    let mut y = match reduce {
        Reduce::Sum => vec![0f64; n * f],
        Reduce::Max => vec![f64::NEG_INFINITY; n * f],
    };
    for e in 0..coo.nnz() {
        let (r, c) = coo.edge(e);
        let wv = w.get(e).to_f64();
        let xr = &x[c as usize * f..(c as usize + 1) * f];
        let yr = &mut y[r as usize * f..(r as usize + 1) * f];
        match reduce {
            Reduce::Sum => {
                for (yo, &xv) in yr.iter_mut().zip(xr) {
                    *yo += wv * xv;
                }
            }
            Reduce::Max => {
                for (yo, &xv) in yr.iter_mut().zip(xr) {
                    *yo = yo.max(wv * xv);
                }
            }
        }
    }
    if let Reduce::Max = reduce {
        // Rows with no edges: define as 0 like the kernels do.
        for r in 0..n {
            if y[r * f..(r + 1) * f].iter().all(|v| *v == f64::NEG_INFINITY) {
                y[r * f..(r + 1) * f].fill(0.0);
            }
        }
    }
    if let Some(s) = row_scale {
        for r in 0..n {
            for v in &mut y[r * f..(r + 1) * f] {
                *v *= s[r];
            }
        }
    }
    y
}

/// `out[e] ← dot(U[row(e)], V[col(e)])` in f64.
pub fn sddmm_f64(coo: &Coo, u: &[f64], v: &[f64], f: usize) -> Vec<f64> {
    assert_eq!(u.len(), coo.num_rows() * f, "U shape mismatch");
    assert_eq!(v.len(), coo.num_cols() * f, "V shape mismatch");
    (0..coo.nnz())
        .map(|e| {
            let (r, c) = coo.edge(e);
            let ur = &u[r as usize * f..(r as usize + 1) * f];
            let vc = &v[c as usize * f..(c as usize + 1) * f];
            ur.iter().zip(vc).map(|(a, b)| a * b).sum()
        })
        .collect()
}

/// Per-row reduction of an edge tensor in f64 — ground truth for
/// [`crate::halfgnn_spmm::edge_reduce`] in either precision.
/// Rows with no edges are defined as 0 under `Max`, matching the kernels.
pub fn edge_reduce_f64(coo: &Coo, w: &[f64], op: Reduce) -> Vec<f64> {
    assert_eq!(w.len(), coo.nnz(), "edge tensor shape mismatch");
    let n = coo.num_rows();
    let init = match op {
        Reduce::Sum => 0.0,
        Reduce::Max => f64::NEG_INFINITY,
    };
    let mut y = vec![init; n];
    let mut touched = vec![false; n];
    for (e, &we) in w.iter().enumerate() {
        let (r, _) = coo.edge(e);
        let r = r as usize;
        touched[r] = true;
        y[r] = match op {
            Reduce::Sum => y[r] + we,
            Reduce::Max => y[r].max(we),
        };
    }
    for r in 0..n {
        if !touched[r] {
            y[r] = 0.0;
        }
    }
    y
}

/// f64 `e_ij ← LeakyReLU(s_src[row] + s_dst[col])` — ground truth for
/// [`crate::edge_ops::src_dst_add_leakyrelu`].
pub fn src_dst_add_leakyrelu_f64(coo: &Coo, s_src: &[f64], s_dst: &[f64], slope: f64) -> Vec<f64> {
    assert_eq!(s_src.len(), coo.num_rows());
    assert_eq!(s_dst.len(), coo.num_cols());
    (0..coo.nnz())
        .map(|e| {
            let (r, c) = coo.edge(e);
            let v = s_src[r as usize] + s_dst[c as usize];
            if v >= 0.0 {
                v
            } else {
                v * slope
            }
        })
        .collect()
}

/// f64 `out ← exp(e − m[row])` — ground truth for
/// [`crate::edge_ops::sub_row_exp`] (both the shadow and AMP paths).
pub fn sub_row_exp_f64(coo: &Coo, e: &[f64], m: &[f64]) -> Vec<f64> {
    assert_eq!(e.len(), coo.nnz());
    assert_eq!(m.len(), coo.num_rows());
    (0..coo.nnz())
        .map(|ei| {
            let (r, _) = coo.edge(ei);
            (e[ei] - m[r as usize]).exp()
        })
        .collect()
}

/// f64 `α ← e / z[row]` — ground truth for [`crate::edge_ops::div_row`].
pub fn div_row_f64(coo: &Coo, e: &[f64], z: &[f64]) -> Vec<f64> {
    assert_eq!(e.len(), coo.nnz());
    assert_eq!(z.len(), coo.num_rows());
    (0..coo.nnz())
        .map(|ei| {
            let (r, _) = coo.edge(ei);
            e[ei] / z[r as usize]
        })
        .collect()
}

/// f64 elementwise edge product — ground truth for [`crate::edge_ops::mul`].
pub fn edge_mul_f64(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// f64 edge-softmax backward `δe ← α ⊙ (δα − t[row])` — ground truth for
/// [`crate::edge_ops::softmax_grad`].
pub fn softmax_grad_f64(coo: &Coo, alpha: &[f64], dalpha: &[f64], t: &[f64]) -> Vec<f64> {
    assert_eq!(alpha.len(), coo.nnz());
    assert_eq!(dalpha.len(), coo.nnz());
    assert_eq!(t.len(), coo.num_rows());
    (0..coo.nnz())
        .map(|ei| {
            let (r, _) = coo.edge(ei);
            alpha[ei] * (dalpha[ei] - t[r as usize])
        })
        .collect()
}

/// f64 LeakyReLU backward on edge logits — ground truth for
/// [`crate::edge_ops::leakyrelu_grad`].
pub fn leakyrelu_grad_f64(pre: &[f64], grad: &[f64], slope: f64) -> Vec<f64> {
    assert_eq!(pre.len(), grad.len());
    pre.iter().zip(grad).map(|(p, g)| if *p >= 0.0 { *g } else { *g * slope }).collect()
}

/// Convert a half tensor to the f64 reference domain.
pub fn half_to_f64(h: &[Half]) -> Vec<f64> {
    h.iter().map(|v| v.to_f64()).collect()
}

/// Convert an f32 tensor to the f64 reference domain.
pub fn f32_to_f64(x: &[f32]) -> Vec<f64> {
    x.iter().map(|&v| v as f64).collect()
}

/// Shared closeness predicate: `|g − w| ≤ abs + rel · max(|g|, |w|)`.
///
/// The relative term is **symmetric** in the two operands. Scaling by the
/// reference alone (`rel·|w|`) silently loosens when the kernel result is
/// too small and tightens when it is too large — e.g. a kernel that
/// underflows a 1e-3 reference to zero would pass a `rel`-only check scaled
/// by `w` but fail the same check scaled by `g`. `max(|a|,|b|)` treats both
/// failure directions identically. Non-finite `g` never passes against a
/// finite `w` (the error is infinite/NaN).
pub fn close(g: f64, w: f64, rel: f64, abs: f64) -> bool {
    if g == w {
        return true; // covers INF == INF where err would be NaN
    }
    if !g.is_finite() || !w.is_finite() {
        return false; // don't let rel·INF inflate the band to infinity
    }
    (g - w).abs() <= abs + rel * g.abs().max(w.abs())
}

/// Assert a half result matches an f64 reference within `rel` relative and
/// `abs` absolute tolerance (both needed: FP16 results near zero are
/// dominated by absolute rounding; large ones by relative). Uses the
/// symmetric [`close`] predicate.
pub fn assert_close_half(got: &[Half], want: &[f64], rel: f64, abs: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let g = g.to_f64();
        assert!(
            close(g, *w, rel, abs),
            "{what}[{i}]: got {g}, want {w}, err {:.3e} > tol {:.3e}",
            (g - w).abs(),
            abs + rel * g.abs().max(w.abs())
        );
    }
}

/// As [`assert_close_half`] for f32 kernels.
pub fn assert_close_f32(got: &[f32], want: &[f64], rel: f64, abs: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let g = *g as f64;
        assert!(
            close(g, *w, rel, abs),
            "{what}[{i}]: got {g}, want {w}, err {:.3e} > tol {:.3e}",
            (g - w).abs(),
            abs + rel * g.abs().max(w.abs())
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_graph::Coo;

    fn fig2_graph() -> Coo {
        // The paper's Fig. 2 sample graph.
        Coo::from_edges(4, 4, &[(0, 1), (0, 2), (1, 0), (2, 1), (2, 3), (3, 2)])
    }

    #[test]
    fn spmm_sum_hand_checked() {
        let g = fig2_graph();
        // X row v = [v, 10v].
        let x: Vec<f64> = (0..4).flat_map(|v| [v as f64, 10.0 * v as f64]).collect();
        let y = spmm_f64(&g, EdgeWeights::Ones, &x, 2, Reduce::Sum, None);
        // Row 0 = X1 + X2 = [3, 30]; Row 2 = X1 + X3 = [4, 40].
        assert_eq!(&y[0..2], &[3.0, 30.0]);
        assert_eq!(&y[2..4], &[0.0, 0.0]);
        assert_eq!(&y[4..6], &[4.0, 40.0]);
        assert_eq!(&y[6..8], &[2.0, 20.0]);
    }

    #[test]
    fn spmm_weighted() {
        let g = Coo::from_edges(2, 2, &[(0, 0), (0, 1)]);
        let w = [Half::from_f32(2.0), Half::from_f32(0.5)];
        let x = [1.0, 10.0];
        let y = spmm_f64(&g, EdgeWeights::Values(&w), &x, 1, Reduce::Sum, None);
        assert_eq!(y, vec![2.0 + 5.0, 0.0]);
    }

    #[test]
    fn spmm_max_and_empty_rows() {
        let g = Coo::from_edges(3, 3, &[(0, 1), (0, 2)]);
        let x = [5.0, -2.0, 7.0];
        let y = spmm_f64(&g, EdgeWeights::Ones, &x, 1, Reduce::Max, None);
        assert_eq!(y, vec![7.0, 0.0, 0.0]); // empty rows defined as 0
    }

    #[test]
    fn spmm_row_scale() {
        let g = Coo::from_edges(2, 2, &[(0, 0), (0, 1)]);
        let x = [4.0, 8.0];
        let y = spmm_f64(&g, EdgeWeights::Ones, &x, 1, Reduce::Sum, Some(&[0.5, 1.0]));
        assert_eq!(y, vec![6.0, 0.0]);
    }

    #[test]
    fn sddmm_hand_checked() {
        let g = Coo::from_edges(2, 2, &[(0, 1), (1, 0)]);
        let u = [1.0, 2.0, 3.0, 4.0]; // rows [1,2],[3,4]
        let v = [10.0, 20.0, 30.0, 40.0];
        let out = sddmm_f64(&g, &u, &v, 2);
        // edge (0,1): [1,2]·[30,40] = 110; edge (1,0): [3,4]·[10,20] = 110.
        assert_eq!(out, vec![110.0, 110.0]);
    }

    #[test]
    fn edge_reduce_max_all_negative_and_empty() {
        let g = Coo::from_edges(3, 3, &[(0, 1), (0, 2), (2, 0)]);
        let w = [-5.0, -2.0, -7.0];
        let y = edge_reduce_f64(&g, &w, Reduce::Max);
        // Row 1 has no edges → 0; all-negative rows keep their true max.
        assert_eq!(y, vec![-2.0, 0.0, -7.0]);
    }

    #[test]
    fn symmetric_tolerance_rejects_underflow_to_zero() {
        // got = 0 vs want = 1e-3 must fail a pure-relative check: the old
        // `rel·|want|` form passed only because `want` was the larger side.
        assert!(!close(0.0, 1e-3, 0.5, 0.0));
        assert!(!close(1e-3, 0.0, 0.5, 0.0));
        assert!(close(1e-3, 0.0, 0.5, 1e-2)); // abs term still applies
        assert!(!close(f64::INFINITY, 1.0, 0.5, 1e6)); // nonfinite never passes vs finite
        assert!(!close(f64::NAN, 1.0, 0.5, 1e6));
        assert!(close(f64::INFINITY, f64::INFINITY, 0.0, 0.0));
    }

    #[test]
    fn tolerance_helpers() {
        let got = [Half::from_f32(1.0), Half::from_f32(2.001)];
        assert_close_half(&got, &[1.0, 2.0], 1e-2, 1e-3, "ok");
    }

    #[test]
    #[should_panic(expected = "err")]
    fn tolerance_helpers_catch_mismatch() {
        let got = [Half::from_f32(1.5)];
        assert_close_half(&got, &[1.0], 1e-3, 1e-3, "bad");
    }
}
