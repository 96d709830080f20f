//! Differential-testing oracle: run a kernel, run the serial `f64`
//! reference, and produce a structured [`DivergenceReport`] instead of a
//! bare pass/fail.
//!
//! The assert helpers in [`crate::reference`] answer *whether* a kernel is
//! wrong; this module answers *where and how*. Every element is compared
//! under a symmetric [`Tolerance`] and each failure is annotated with the
//! context a kernel author needs to localize the bug:
//!
//! * the flat element index, plus its **row** (and **edge** id for
//!   edge-shaped outputs) recovered from the output [`Layout`],
//! * the **degree** of that row — overflow and reduction-order bugs are
//!   degree-correlated (§3.1.3: hub rows overflow first),
//! * the error in **FP16 ulps** ([`ulp_f16`]), which separates "one
//!   rounding step off" from "wrong algorithm",
//! * whether the kernel produced **INF/NaN where the reference is finite**
//!   — the signature of the Fig. 1c overflow failure mode, distinct from
//!   an ordinary numeric mismatch.
//!
//! [`compare_half`]/[`compare_f32`] are the raw engines; the `check_*`
//! functions wrap every public kernel in this crate so a test (or a
//! debugging session) can get a report in one call. Reports are cheap:
//! only the first and worst divergences are stored, never all of them.

use crate::common::{EdgeWeights, Reduce, ScalePlacement, VectorWidth};
use crate::halfgnn_spmm::SpmmConfig;
use crate::{
    baseline, dist, edge_ops, fused, halfgnn_sddmm, halfgnn_spmm, huang, quant_spmm, reference,
};
use halfgnn_graph::{Coo, Csr};
use halfgnn_half::{Half, Scalar};
use halfgnn_sim::{DeviceConfig, KernelStats};
use std::fmt;

/// Symmetric comparison band: `|g − w| ≤ abs + rel · max(|g|, |w|)`
/// (the [`reference::close`] predicate).
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// Relative term, scaled by the larger magnitude of the two operands.
    pub rel: f64,
    /// Absolute floor for results near zero.
    pub abs: f64,
}

impl Tolerance {
    /// Build a tolerance band.
    pub const fn new(rel: f64, abs: f64) -> Tolerance {
        Tolerance { rel, abs }
    }

    /// Default band for FP16 kernels: ~1% relative (a handful of half
    /// ulps through a short reduction) with a matching absolute floor.
    pub const fn half_default() -> Tolerance {
        Tolerance::new(1e-2, 1e-2)
    }

    /// Default band for f32 kernels.
    pub const fn float_default() -> Tolerance {
        Tolerance::new(1e-5, 1e-5)
    }

    /// Default band for INT8 quantized kernels: one stochastic-rounding
    /// step per operand at ~1% block scale granularity, accumulated over
    /// a short reduction — a ~5% band (Tango trains inside it).
    pub const fn i8_default() -> Tolerance {
        Tolerance::new(5e-2, 5e-2)
    }

    /// True when `got` is acceptably close to `want`.
    pub fn accepts(&self, got: f64, want: f64) -> bool {
        reference::close(got, want, self.rel, self.abs)
    }
}

/// How a kernel's flat output vector maps back to graph structure.
pub enum Layout<'a> {
    /// Row-major `[num_rows, f]` vertex output (SpMM-shaped).
    RowMajor { f: usize, degrees: &'a [u32] },
    /// One value per edge (SDDMM / edge-op shaped).
    PerEdge { rows: &'a [u32], degrees: &'a [u32] },
    /// One value per row (edge-reduce shaped).
    PerRow { degrees: &'a [u32] },
}

impl Layout<'_> {
    /// `(row, edge, degree)` context for flat element `index`.
    fn context(&self, index: usize) -> (Option<u32>, Option<usize>, Option<u32>) {
        match self {
            Layout::RowMajor { f, degrees } => {
                let r = (index / f) as u32;
                (Some(r), None, degrees.get(r as usize).copied())
            }
            Layout::PerEdge { rows, degrees } => {
                let r = rows[index];
                (Some(r), Some(index), degrees.get(r as usize).copied())
            }
            Layout::PerRow { degrees } => (Some(index as u32), None, degrees.get(index).copied()),
        }
    }
}

/// FP16 ulp distance between two values, via the monotone ordered-integer
/// mapping of binary16 bit patterns (sign-magnitude → two's-complement
/// order). `None` when either value is non-finite in half precision —
/// ulp distance across INF is meaningless.
pub fn ulp_f16(a: f64, b: f64) -> Option<u32> {
    fn ordered(v: f64) -> Option<i32> {
        let h = Half::from_f32_raw(v as f32);
        if !h.is_finite() {
            return None;
        }
        let bits = h.to_bits();
        Some(if bits & 0x8000 != 0 { -((bits & 0x7FFF) as i32) } else { bits as i32 })
    }
    Some(ordered(a)?.abs_diff(ordered(b)?))
}

/// One element where kernel and reference disagree beyond tolerance.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Flat index into the kernel's output vector.
    pub index: usize,
    /// Output row (vertex id) the element belongs to, if the layout knows.
    pub row: Option<u32>,
    /// Edge id, for edge-shaped outputs.
    pub edge: Option<usize>,
    /// Degree of `row` — overflow bugs cluster on hub rows.
    pub degree: Option<u32>,
    /// Kernel value (widened to f64).
    pub got: f64,
    /// Reference value.
    pub want: f64,
    /// `|got − want|` (infinite when `got` is non-finite).
    pub abs_err: f64,
    /// Error in binary16 ulps; `None` when either side is non-finite
    /// in half precision.
    pub ulp_f16: Option<u32>,
    /// The kernel produced INF/NaN where the reference is finite — the
    /// Fig. 1c overflow signature, not an ordinary rounding mismatch.
    pub got_nonfinite_ref_finite: bool,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.index)?;
        if let Some(r) = self.row {
            write!(f, " row {r}")?;
        }
        if let Some(e) = self.edge {
            write!(f, " edge {e}")?;
        }
        if let Some(d) = self.degree {
            write!(f, " (degree {d})")?;
        }
        write!(f, ": got {}, want {}", self.got, self.want)?;
        if self.got_nonfinite_ref_finite {
            write!(f, " — NON-FINITE where reference is finite")?;
        } else {
            write!(f, ", err {:.3e}", self.abs_err)?;
            if let Some(u) = self.ulp_f16 {
                write!(f, " ({u} f16 ulps)")?;
            }
        }
        Ok(())
    }
}

/// Structured outcome of one kernel-vs-reference comparison.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// Which kernel was checked.
    pub kernel: &'static str,
    /// Elements compared.
    pub checked: usize,
    /// Elements outside tolerance.
    pub mismatches: usize,
    /// First out-of-tolerance element in index order.
    pub first: Option<Divergence>,
    /// Element with the largest absolute error (non-finite sorts last,
    /// i.e. wins).
    pub worst: Option<Divergence>,
    /// Kernel elements that are INF/NaN.
    pub nonfinite_got: usize,
    /// Reference elements that are INF/NaN (expected overflow, e.g. an
    /// intentionally out-of-range input).
    pub nonfinite_ref: usize,
    /// The band the comparison used.
    pub tol: Tolerance,
}

impl DivergenceReport {
    /// True when every element was within tolerance.
    pub fn is_ok(&self) -> bool {
        self.mismatches == 0
    }

    /// Panic with the full report unless [`Self::is_ok`].
    pub fn assert_ok(&self) {
        assert!(self.is_ok(), "{self}");
    }
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(
                f,
                "{}: OK ({} elements within rel {:.1e} / abs {:.1e})",
                self.kernel, self.checked, self.tol.rel, self.tol.abs
            );
        }
        writeln!(
            f,
            "{}: {}/{} elements diverge (rel {:.1e} / abs {:.1e}); \
             {} non-finite in kernel output, {} in reference",
            self.kernel,
            self.mismatches,
            self.checked,
            self.tol.rel,
            self.tol.abs,
            self.nonfinite_got,
            self.nonfinite_ref
        )?;
        if let Some(d) = &self.first {
            writeln!(f, "  first: {d}")?;
        }
        if let Some(d) = &self.worst {
            write!(f, "  worst: {d}")?;
        }
        Ok(())
    }
}

fn compare_f64(
    kernel: &'static str,
    got: &[f64],
    want: &[f64],
    layout: &Layout<'_>,
    tol: Tolerance,
) -> DivergenceReport {
    assert_eq!(
        got.len(),
        want.len(),
        "{kernel}: output length {} vs reference {}",
        got.len(),
        want.len()
    );
    let mut report = DivergenceReport {
        kernel,
        checked: got.len(),
        mismatches: 0,
        first: None,
        worst: None,
        nonfinite_got: 0,
        nonfinite_ref: 0,
        tol,
    };
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        if !g.is_finite() {
            report.nonfinite_got += 1;
        }
        if !w.is_finite() {
            report.nonfinite_ref += 1;
        }
        if tol.accepts(g, w) {
            continue;
        }
        report.mismatches += 1;
        let (row, edge, degree) = layout.context(i);
        let d = Divergence {
            index: i,
            row,
            edge,
            degree,
            got: g,
            want: w,
            abs_err: (g - w).abs(),
            ulp_f16: ulp_f16(g, w),
            got_nonfinite_ref_finite: !g.is_finite() && w.is_finite(),
        };
        let worse = match &report.worst {
            None => true,
            Some(prev) => {
                // Non-finite beats any finite error; otherwise larger wins.
                (d.abs_err > prev.abs_err && !prev.abs_err.is_nan())
                    || (d.abs_err.is_nan() && !prev.abs_err.is_nan())
            }
        };
        if worse {
            report.worst = Some(d.clone());
        }
        if report.first.is_none() {
            report.first = Some(d);
        }
    }
    report
}

/// Compare a half kernel output against an f64 reference.
pub fn compare_half(
    kernel: &'static str,
    got: &[Half],
    want: &[f64],
    layout: &Layout<'_>,
    tol: Tolerance,
) -> DivergenceReport {
    compare_f64(kernel, &reference::half_to_f64(got), want, layout, tol)
}

/// Compare an f32 kernel output against an f64 reference.
pub fn compare_f32(
    kernel: &'static str,
    got: &[f32],
    want: &[f64],
    layout: &Layout<'_>,
    tol: Tolerance,
) -> DivergenceReport {
    compare_f64(kernel, &reference::f32_to_f64(got), want, layout, tol)
}

// ---------------------------------------------------------------------
// check_* wrappers: one per public kernel. Each runs the kernel and its
// f64 reference and returns (output, stats, report).
// ---------------------------------------------------------------------

fn weights_f64<T: Scalar>(w: &EdgeWeights<'_, T>, nnz: usize) -> Vec<f64> {
    (0..nnz).map(|e| w.get(e).to_f32() as f64).collect()
}

/// Oracle for [`halfgnn_spmm::spmm`] (HalfGNN SpMMv/SpMMve).
#[allow(clippy::too_many_arguments)]
pub fn check_spmm(
    dev: &DeviceConfig,
    coo: &Coo,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    cfg: &SpmmConfig,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = halfgnn_spmm::spmm(dev, coo, w, x, f, row_scale, cfg);
    let want = spmm_ref_f64(
        coo,
        &weights_f64(&w, coo.nnz()),
        &reference::half_to_f64(x),
        f,
        row_scale.map(reference::half_to_f64).as_deref(),
    );
    let degrees = coo.degrees();
    let report =
        compare_half("halfgnn_spmm", &got, &want, &Layout::RowMajor { f, degrees: &degrees }, tol);
    (got, stats, report)
}

/// Exact f64 SpMM with arbitrary f64 edge weights (the [`reference::spmm_f64`]
/// entry point takes half weights; baselines carry f32 weights, so the
/// oracle needs a weight-agnostic reference).
fn spmm_ref_f64(coo: &Coo, w: &[f64], x: &[f64], f: usize, row_scale: Option<&[f64]>) -> Vec<f64> {
    let n = coo.num_rows();
    let mut y = vec![0f64; n * f];
    for (e, &we) in w.iter().enumerate() {
        let (r, c) = coo.edge(e);
        let xr = &x[c as usize * f..(c as usize + 1) * f];
        let yr = &mut y[r as usize * f..(r as usize + 1) * f];
        for (yo, &xv) in yr.iter_mut().zip(xr) {
            *yo += we * xv;
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

/// Oracle for [`halfgnn_spmm::spmm_vertex_parallel`].
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature + tol
pub fn check_spmm_vertex_parallel(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    scaling: ScalePlacement,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = halfgnn_spmm::spmm_vertex_parallel(dev, csr, w, x, f, row_scale, scaling);
    let coo = csr.to_coo();
    let want = spmm_ref_f64(
        &coo,
        &weights_f64(&w, coo.nnz()),
        &reference::half_to_f64(x),
        f,
        row_scale.map(reference::half_to_f64).as_deref(),
    );
    let degrees = csr.degrees();
    let report = compare_half(
        "halfgnn_spmm_vertex_parallel",
        &got,
        &want,
        &Layout::RowMajor { f, degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`quant_spmm::spmm_i8`] (INT8 quantized SpMM). The
/// reference is the exact f64 product of the *unquantized* operands, so
/// the report measures the full quantization + accumulation error — what
/// the tuner gates I8 plan candidates on (alongside the saturation
/// window; run under [`halfgnn_half::quant::isolated`] to collect both).
#[allow(clippy::too_many_arguments)]
pub fn check_spmm_i8(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    tiling: crate::common::Tiling,
    seed: u64,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = quant_spmm::spmm_i8(dev, csr, w, x, f, row_scale, tiling, seed);
    let coo = csr.to_coo();
    let want = spmm_ref_f64(
        &coo,
        &weights_f64(&w, coo.nnz()),
        &reference::half_to_f64(x),
        f,
        row_scale.map(reference::half_to_f64).as_deref(),
    );
    let degrees = csr.degrees();
    let report =
        compare_half("spmm_i8", &got, &want, &Layout::RowMajor { f, degrees: &degrees }, tol);
    (got, stats, report)
}

/// Oracle for [`halfgnn_spmm::edge_reduce`], in either precision.
pub fn check_edge_reduce<T: Scalar>(
    dev: &DeviceConfig,
    coo: &Coo,
    w: &[T],
    op: Reduce,
    tol: Tolerance,
) -> (Vec<T>, KernelStats, DivergenceReport) {
    let (got, stats) = halfgnn_spmm::edge_reduce(dev, coo, w, op);
    let to_f64 = |xs: &[T]| xs.iter().map(|v| v.to_f32() as f64).collect::<Vec<_>>();
    let want = reference::edge_reduce_f64(coo, &to_f64(w), op);
    let degrees = coo.degrees();
    let layout = Layout::PerRow { degrees: &degrees };
    let name = T::pick("edge_reduce", "edge_reduce_f32");
    let report = compare_f64(name, &to_f64(&got), &want, &layout, tol);
    (got, stats, report)
}

/// Oracle for [`halfgnn_sddmm::sddmm`].
pub fn check_sddmm(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[Half],
    v: &[Half],
    f: usize,
    width: VectorWidth,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = halfgnn_sddmm::sddmm(dev, coo, u, v, f, width);
    let want = reference::sddmm_f64(coo, &reference::half_to_f64(u), &reference::half_to_f64(v), f);
    let degrees = coo.degrees();
    let report = compare_half(
        "halfgnn_sddmm",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`baseline::cusparse::spmm_float`].
pub fn check_cusparse_spmm_float(
    dev: &DeviceConfig,
    coo: &Coo,
    w: EdgeWeights<'_, f32>,
    x: &[f32],
    f: usize,
    row_scale: Option<&[f32]>,
    tol: Tolerance,
) -> (Vec<f32>, KernelStats, DivergenceReport) {
    let (got, stats) = baseline::cusparse::spmm_float(dev, coo, w, x, f, row_scale);
    let want = spmm_ref_f64(
        coo,
        &weights_f64(&w, coo.nnz()),
        &reference::f32_to_f64(x),
        f,
        row_scale.map(reference::f32_to_f64).as_deref(),
    );
    let degrees = coo.degrees();
    let report = compare_f32(
        "cusparse_spmm_float",
        &got,
        &want,
        &Layout::RowMajor { f, degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`baseline::cusparse::spmm_half`].
pub fn check_cusparse_spmm_half(
    dev: &DeviceConfig,
    coo: &Coo,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = baseline::cusparse::spmm_half(dev, coo, w, x, f, row_scale);
    let want = spmm_ref_f64(
        coo,
        &weights_f64(&w, coo.nnz()),
        &reference::half_to_f64(x),
        f,
        row_scale.map(reference::half_to_f64).as_deref(),
    );
    let degrees = coo.degrees();
    let report = compare_half(
        "cusparse_spmm_half",
        &got,
        &want,
        &Layout::RowMajor { f, degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`baseline::ge_spmm::spmm_float`].
pub fn check_ge_spmm_float(
    dev: &DeviceConfig,
    csr: &Csr,
    x: &[f32],
    f: usize,
    tol: Tolerance,
) -> (Vec<f32>, KernelStats, DivergenceReport) {
    let (got, stats) = baseline::ge_spmm::spmm_float(dev, csr, x, f);
    let coo = csr.to_coo();
    let want = spmm_ref_f64(&coo, &vec![1.0; coo.nnz()], &reference::f32_to_f64(x), f, None);
    let degrees = csr.degrees();
    let report =
        compare_f32("ge_spmm_float", &got, &want, &Layout::RowMajor { f, degrees: &degrees }, tol);
    (got, stats, report)
}

/// Oracle for [`baseline::dgl_sddmm::sddmm_float`].
pub fn check_dgl_sddmm_float(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[f32],
    v: &[f32],
    f: usize,
    tol: Tolerance,
) -> (Vec<f32>, KernelStats, DivergenceReport) {
    let (got, stats) = baseline::dgl_sddmm::sddmm_float(dev, coo, u, v, f);
    let want = reference::sddmm_f64(coo, &reference::f32_to_f64(u), &reference::f32_to_f64(v), f);
    let degrees = coo.degrees();
    let report = compare_f32(
        "dgl_sddmm_float",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`baseline::dgl_sddmm::sddmm_half`].
pub fn check_dgl_sddmm_half(
    dev: &DeviceConfig,
    coo: &Coo,
    u: &[Half],
    v: &[Half],
    f: usize,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = baseline::dgl_sddmm::sddmm_half(dev, coo, u, v, f);
    let want = reference::sddmm_f64(coo, &reference::half_to_f64(u), &reference::half_to_f64(v), f);
    let degrees = coo.degrees();
    let report = compare_half(
        "dgl_sddmm_half",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`huang::spmm_float`].
pub fn check_huang_spmm_float(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights<'_, f32>,
    x: &[f32],
    f: usize,
    tol: Tolerance,
) -> (Vec<f32>, KernelStats, DivergenceReport) {
    let (got, stats) = huang::spmm_float(dev, csr, w, x, f);
    let coo = csr.to_coo();
    let want = spmm_ref_f64(&coo, &weights_f64(&w, coo.nnz()), &reference::f32_to_f64(x), f, None);
    let degrees = csr.degrees();
    let report = compare_f32(
        "huang_spmm_float",
        &got,
        &want,
        &Layout::RowMajor { f, degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`huang::spmm_half2`] (and, with `grouped`, `spmm_half2_g64`).
pub fn check_huang_spmm_half2(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    grouped: bool,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = if grouped {
        huang::spmm_half2_g64(dev, csr, w, x, f)
    } else {
        huang::spmm_half2(dev, csr, w, x, f)
    };
    let coo = csr.to_coo();
    let want = spmm_ref_f64(&coo, &weights_f64(&w, coo.nnz()), &reference::half_to_f64(x), f, None);
    let degrees = csr.degrees();
    let report = compare_half(
        "huang_spmm_half2",
        &got,
        &want,
        &Layout::RowMajor { f, degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`edge_ops::src_dst_add_leakyrelu`].
pub fn check_src_dst_add_leakyrelu(
    dev: &DeviceConfig,
    coo: &Coo,
    s_src: &[Half],
    s_dst: &[Half],
    slope: f32,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = edge_ops::src_dst_add_leakyrelu(dev, coo, s_src, s_dst, slope);
    let want = reference::src_dst_add_leakyrelu_f64(
        coo,
        &reference::half_to_f64(s_src),
        &reference::half_to_f64(s_dst),
        slope as f64,
    );
    let degrees = coo.degrees();
    let report = compare_half(
        "edge_add_leakyrelu",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`edge_ops::sub_row_exp`] (shadow or AMP path).
pub fn check_sub_row_exp(
    dev: &DeviceConfig,
    coo: &Coo,
    e: &[Half],
    m: &[Half],
    shadow: bool,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = edge_ops::sub_row_exp(dev, coo, e, m, shadow);
    let want =
        reference::sub_row_exp_f64(coo, &reference::half_to_f64(e), &reference::half_to_f64(m));
    let degrees = coo.degrees();
    let report = compare_half(
        "edge_sub_exp",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`edge_ops::div_row`].
pub fn check_div_row(
    dev: &DeviceConfig,
    coo: &Coo,
    e: &[Half],
    z: &[Half],
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = edge_ops::div_row(dev, coo, e, z);
    let want = reference::div_row_f64(coo, &reference::half_to_f64(e), &reference::half_to_f64(z));
    let degrees = coo.degrees();
    let report = compare_half(
        "edge_div_row",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`edge_ops::mul`].
pub fn check_edge_mul(
    dev: &DeviceConfig,
    coo: &Coo,
    a: &[Half],
    b: &[Half],
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = edge_ops::mul(dev, coo, a, b);
    let want = reference::edge_mul_f64(&reference::half_to_f64(a), &reference::half_to_f64(b));
    let degrees = coo.degrees();
    let report = compare_half(
        "edge_mul",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`edge_ops::softmax_grad`].
pub fn check_softmax_grad(
    dev: &DeviceConfig,
    coo: &Coo,
    alpha: &[Half],
    dalpha: &[Half],
    t: &[Half],
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = edge_ops::softmax_grad(dev, coo, alpha, dalpha, t);
    let want = reference::softmax_grad_f64(
        coo,
        &reference::half_to_f64(alpha),
        &reference::half_to_f64(dalpha),
        &reference::half_to_f64(t),
    );
    let degrees = coo.degrees();
    let report = compare_half(
        "edge_softmax_grad",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`edge_ops::leakyrelu_grad`].
pub fn check_leakyrelu_grad(
    dev: &DeviceConfig,
    coo: &Coo,
    pre: &[Half],
    grad: &[Half],
    slope: f32,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = edge_ops::leakyrelu_grad(dev, coo, pre, grad, slope);
    let want = reference::leakyrelu_grad_f64(
        &reference::half_to_f64(pre),
        &reference::half_to_f64(grad),
        slope as f64,
    );
    let degrees = coo.degrees();
    let report = compare_half(
        "edge_leakyrelu_grad",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Fold several per-buffer reports into one, so a fused kernel with
/// multiple outputs still yields a single report. Counts are summed;
/// `first` is the first failing buffer's first divergence and `worst` the
/// largest error across all buffers.
fn combine_reports(kernel: &'static str, parts: Vec<DivergenceReport>) -> DivergenceReport {
    let tol = parts[0].tol;
    let mut out = DivergenceReport {
        kernel,
        checked: 0,
        mismatches: 0,
        first: None,
        worst: None,
        nonfinite_got: 0,
        nonfinite_ref: 0,
        tol,
    };
    for p in parts {
        out.checked += p.checked;
        out.mismatches += p.mismatches;
        out.nonfinite_got += p.nonfinite_got;
        out.nonfinite_ref += p.nonfinite_ref;
        if out.first.is_none() {
            out.first = p.first;
        }
        let worse = match (&out.worst, &p.worst) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(cur), Some(new)) => {
                (new.abs_err > cur.abs_err && !cur.abs_err.is_nan())
                    || (new.abs_err.is_nan() && !cur.abs_err.is_nan())
            }
        };
        if worse {
            out.worst = p.worst;
        }
    }
    out
}

/// Oracle for [`fused::fused_attn_forward`]: checks all three outputs
/// (`e`, `α`, aggregated `out`) against the composed unfused f64 chain
/// `src_dst_add_leakyrelu → edge_reduce(Max) → sub_row_exp →
/// edge_reduce(Sum) → div_row → spmm`.
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature + tol
pub fn check_fused_attn_forward(
    dev: &DeviceConfig,
    coo: &Coo,
    s_row: &[Half],
    s_col: &[Half],
    slope: f32,
    z: &[Half],
    f: usize,
    tol: Tolerance,
) -> (fused::FusedAttnForward, KernelStats, DivergenceReport) {
    let (got, stats) = fused::fused_attn_forward(dev, coo, s_row, s_col, slope, z, f);
    let sr = reference::half_to_f64(s_row);
    let sc = reference::half_to_f64(s_col);
    let e_want = reference::src_dst_add_leakyrelu_f64(coo, &sr, &sc, slope as f64);
    let m = reference::edge_reduce_f64(coo, &e_want, Reduce::Max);
    let num = reference::sub_row_exp_f64(coo, &e_want, &m);
    let zsum = reference::edge_reduce_f64(coo, &num, Reduce::Sum);
    let alpha_want = reference::div_row_f64(coo, &num, &zsum);
    let out_want = spmm_ref_f64(coo, &alpha_want, &reference::half_to_f64(z), f, None);
    let degrees = coo.degrees();
    let edge_layout = Layout::PerEdge { rows: coo.rows(), degrees: &degrees };
    let r_e = compare_half("fused_attn.e", &got.e, &e_want, &edge_layout, tol);
    let r_a = compare_half("fused_attn.alpha", &got.alpha, &alpha_want, &edge_layout, tol);
    let r_o = compare_half(
        "fused_attn.out",
        &got.out,
        &out_want,
        &Layout::RowMajor { f, degrees: &degrees },
        tol,
    );
    let report = combine_reports("fused_attn_forward", vec![r_e, r_a, r_o]);
    (got, stats, report)
}

/// Oracle for [`fused::fused_softmax_grad`]: the f64 reference composes
/// the unfused backward chain `edge_mul → edge_reduce(Sum) →
/// softmax_grad → leakyrelu_grad`.
pub fn check_fused_softmax_grad(
    dev: &DeviceConfig,
    coo: &Coo,
    alpha: &[Half],
    dalpha: &[Half],
    e: &[Half],
    slope: f32,
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = fused::fused_softmax_grad(dev, coo, alpha, dalpha, e, slope);
    let a = reference::half_to_f64(alpha);
    let da = reference::half_to_f64(dalpha);
    let ef = reference::half_to_f64(e);
    let prod = reference::edge_mul_f64(&a, &da);
    let t = reference::edge_reduce_f64(coo, &prod, Reduce::Sum);
    let soft = reference::softmax_grad_f64(coo, &a, &da, &t);
    let want = reference::leakyrelu_grad_f64(&ef, &soft, slope as f64);
    let degrees = coo.degrees();
    let report = compare_half(
        "fused_softmax_grad",
        &got,
        &want,
        &Layout::PerEdge { rows: coo.rows(), degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`dist::halo_gather`]: the reference is direct f64
/// indexing of the named rows, so any tolerance violation is a packing
/// bug, not rounding (the gather copies bits).
pub fn check_halo_gather(
    dev: &DeviceConfig,
    x: &[Half],
    f: usize,
    halo: &[u32],
    tol: Tolerance,
) -> (Vec<Half>, KernelStats, DivergenceReport) {
    let (got, stats) = dist::halo_gather(dev, x, f, halo);
    let mut want = Vec::with_capacity(halo.len() * f);
    for &v in halo {
        want.extend(x[v as usize * f..(v as usize + 1) * f].iter().map(|h| h.to_f64()));
    }
    // Degree context is meaningless for a gather; every packed row reads 1.
    let degrees = vec![1u32; halo.len()];
    let report = compare_half(
        "halo_gather_f16",
        &got,
        &want,
        &Layout::RowMajor { f, degrees: &degrees },
        tol,
    );
    (got, stats, report)
}

/// Oracle for [`dist::allreduce_f16_discretized`]: the reference is the
/// exact f64 sum of the shard partials; divergence beyond the half band
/// means the discretized exponent or the wire accumulation is wrong.
pub fn check_allreduce_f16(
    dev: &DeviceConfig,
    partials: &[Vec<f32>],
    bucket: usize,
    tol: Tolerance,
) -> (Vec<f32>, KernelStats, DivergenceReport) {
    let (got, stats) = dist::allreduce_f16_discretized(dev, partials, bucket);
    let n = partials.first().map_or(0, Vec::len);
    let want: Vec<f64> = (0..n).map(|i| partials.iter().map(|p| p[i] as f64).sum()).collect();
    let degrees = vec![partials.len() as u32; n];
    let report =
        compare_f32("allreduce_f16_disc", &got, &want, &Layout::PerRow { degrees: &degrees }, tol);
    (got, stats, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_graph::gen;
    use halfgnn_half::slice::f32_slice_to_half;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dev() -> DeviceConfig {
        DeviceConfig::a100_like()
    }

    fn graph(seed: u64) -> Coo {
        let edges = gen::erdos_renyi(120, 700, seed);
        Csr::from_edges(120, 120, &edges).symmetrized_with_self_loops().to_coo()
    }

    fn random_halves(n: usize, scale: f32, seed: u64) -> Vec<Half> {
        let mut rng = StdRng::seed_from_u64(seed);
        f32_slice_to_half(&(0..n).map(|_| rng.gen_range(-scale..scale)).collect::<Vec<_>>())
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_f16(1.0, 1.0), Some(0));
        // 1.0 and the next representable half differ by one ulp.
        let next = Half::from_bits(Half::from_f32(1.0).to_bits() + 1).to_f64();
        assert_eq!(ulp_f16(1.0, next), Some(1));
        // Crossing zero: -ulp to +ulp is two steps apart (through ±0).
        assert!(ulp_f16(-6e-8, 6e-8).unwrap() <= 2);
        assert_eq!(ulp_f16(1e9, 1.0), None); // INF in f16
    }

    #[test]
    fn clean_kernel_gets_ok_report() {
        let g = graph(1);
        let f = 16;
        let x = random_halves(g.num_cols() * f, 0.5, 2);
        let scales = crate::common::row_scales_mean(&g.degrees());
        let (_, _, report) = check_spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            Some(&scales),
            &SpmmConfig::default(),
            Tolerance::half_default(),
        );
        report.assert_ok();
        assert_eq!(report.mismatches, 0);
        assert!(report.checked > 0);
        assert!(format!("{report}").contains("OK"));
    }

    #[test]
    fn corrupted_output_names_first_bad_element() {
        // The acceptance criterion: corrupt one element of a kernel's
        // output and the report must name its index, row, and edge status.
        let g = graph(3);
        let f = 8;
        let x = random_halves(g.num_cols() * f, 0.5, 4);
        let cfg = SpmmConfig { scaling: ScalePlacement::None, ..SpmmConfig::default() };
        let (mut got, _) = halfgnn_spmm::spmm(&dev(), &g, EdgeWeights::Ones, &x, f, None, &cfg);
        let want = reference::spmm_f64(
            &g,
            EdgeWeights::Ones,
            &reference::half_to_f64(&x),
            f,
            Reduce::Sum,
            None,
        );
        let bad = 3 * f + 5; // row 3, feature 5
        got[bad] = Half::from_f32(f32::INFINITY);
        let degrees = g.degrees();
        let report = compare_half(
            "mutated",
            &got,
            &want,
            &Layout::RowMajor { f, degrees: &degrees },
            Tolerance::half_default(),
        );
        assert!(!report.is_ok());
        assert_eq!(report.mismatches, 1);
        let first = report.first.as_ref().unwrap();
        assert_eq!(first.index, bad);
        assert_eq!(first.row, Some(3));
        assert_eq!(first.degree, Some(degrees[3]));
        assert!(first.got_nonfinite_ref_finite);
        assert_eq!(first.ulp_f16, None);
        assert_eq!(report.nonfinite_got, 1);
        let text = format!("{report}");
        assert!(text.contains("NON-FINITE"), "{text}");
        assert!(text.contains("row 3"), "{text}");
    }

    #[test]
    fn edge_layout_reports_edge_id_and_degree() {
        let g = graph(5);
        let f = 16;
        let u = random_halves(g.num_rows() * f, 0.5, 6);
        let v = random_halves(g.num_cols() * f, 0.5, 7);
        let (mut got, _) = halfgnn_sddmm::sddmm(&dev(), &g, &u, &v, f, VectorWidth::Half2);
        let want =
            reference::sddmm_f64(&g, &reference::half_to_f64(&u), &reference::half_to_f64(&v), f);
        got[17] = Half::from_f32(got[17].to_f32() + 100.0);
        let degrees = g.degrees();
        let report = compare_half(
            "mutated_sddmm",
            &got,
            &want,
            &Layout::PerEdge { rows: g.rows(), degrees: &degrees },
            Tolerance::half_default(),
        );
        assert_eq!(report.mismatches, 1);
        let first = report.first.unwrap();
        assert_eq!(first.edge, Some(17));
        assert_eq!(first.row, Some(g.rows()[17]));
        assert_eq!(first.degree, Some(degrees[g.rows()[17] as usize]));
        assert!(first.ulp_f16.is_some());
    }

    #[test]
    fn worst_tracks_largest_error() {
        let degrees = [1u32, 1, 1];
        let got = [Half::from_f32(1.5), Half::from_f32(5.0), Half::from_f32(1.0)];
        let want = [1.0, 1.0, 1.0];
        let report = compare_half(
            "worst",
            &got,
            &want,
            &Layout::PerRow { degrees: &degrees },
            Tolerance::new(1e-3, 1e-3),
        );
        assert_eq!(report.mismatches, 2);
        assert_eq!(report.first.unwrap().index, 0);
        assert_eq!(report.worst.unwrap().index, 1);
    }

    #[test]
    fn every_kernel_family_is_callable_through_the_oracle() {
        // Smoke coverage of all check_* wrappers on one small graph.
        let d = dev();
        let g = graph(8);
        let csr = Csr::from_coo(&g);
        let f = 8;
        let tol_h = Tolerance::half_default();
        let tol_f = Tolerance::float_default();
        let xh = random_halves(g.num_cols() * f, 0.3, 10);
        let xf: Vec<f32> = xh.iter().map(|h| h.to_f32()).collect();
        let wh = random_halves(g.nnz(), 0.3, 11);
        let wf: Vec<f32> = wh.iter().map(|h| h.to_f32()).collect();
        let row_h = random_halves(g.num_rows(), 0.3, 12);
        let scales = crate::common::row_scales_mean(&g.degrees());
        let no_scale = SpmmConfig { scaling: ScalePlacement::None, ..SpmmConfig::default() };

        check_spmm(&d, &g, EdgeWeights::Values(&wh), &xh, f, None, &no_scale, tol_h).2.assert_ok();
        check_spmm(&d, &g, EdgeWeights::Ones, &xh, f, Some(&scales), &SpmmConfig::default(), tol_h)
            .2
            .assert_ok();
        check_spmm_vertex_parallel(
            &d,
            &csr,
            EdgeWeights::Ones,
            &xh,
            f,
            Some(&scales),
            ScalePlacement::Discretized,
            tol_h,
        )
        .2
        .assert_ok();
        check_edge_reduce(&d, &g, &wh, Reduce::Max, tol_h).2.assert_ok();
        check_edge_reduce(&d, &g, &wh, Reduce::Sum, tol_h).2.assert_ok();
        check_sddmm(&d, &g, &xh, &xh, f, VectorWidth::Half8, tol_h).2.assert_ok();
        check_cusparse_spmm_float(&d, &g, EdgeWeights::Values(&wf), &xf, f, None, tol_f)
            .2
            .assert_ok();
        check_cusparse_spmm_half(&d, &g, EdgeWeights::Values(&wh), &xh, f, None, tol_h)
            .2
            .assert_ok();
        check_ge_spmm_float(&d, &csr, &xf, f, tol_f).2.assert_ok();
        check_dgl_sddmm_float(&d, &g, &xf, &xf, f, tol_f).2.assert_ok();
        check_dgl_sddmm_half(&d, &g, &xh, &xh, f, tol_h).2.assert_ok();
        check_huang_spmm_float(&d, &csr, EdgeWeights::Ones, &xf, f, tol_f).2.assert_ok();
        check_huang_spmm_half2(&d, &csr, EdgeWeights::Ones, &xh, f, false, tol_h).2.assert_ok();
        check_huang_spmm_half2(&d, &csr, EdgeWeights::Ones, &xh, f, true, tol_h).2.assert_ok();
        check_src_dst_add_leakyrelu(&d, &g, &row_h, &row_h, 0.2, tol_h).2.assert_ok();
        let (m, _, r) = check_edge_reduce(&d, &g, &wh, Reduce::Max, tol_h);
        r.assert_ok();
        let (num, _, r) = check_sub_row_exp(&d, &g, &wh, &m, true, tol_h);
        r.assert_ok();
        let (z, _, r) = check_edge_reduce(&d, &g, &num, Reduce::Sum, tol_h);
        r.assert_ok();
        check_div_row(&d, &g, &num, &z, tol_h).2.assert_ok();
        check_edge_mul(&d, &g, &wh, &wh, tol_h).2.assert_ok();
        let t = random_halves(g.num_rows(), 0.3, 13);
        check_softmax_grad(&d, &g, &wh, &wh, &t, tol_h).2.assert_ok();
        check_leakyrelu_grad(&d, &g, &wh, &wh, 0.1, tol_h).2.assert_ok();
        let zf = random_halves(g.num_cols() * f, 0.3, 14);
        let (fwd, _, r) = check_fused_attn_forward(&d, &g, &row_h, &row_h, 0.2, &zf, f, tol_h);
        r.assert_ok();
        check_fused_softmax_grad(&d, &g, &fwd.alpha, &wh, &fwd.e, 0.2, tol_h).2.assert_ok();
        check_edge_reduce(&d, &g, &wf, Reduce::Sum, tol_f).2.assert_ok();
        check_edge_reduce(&d, &g, &wf, Reduce::Max, tol_f).2.assert_ok();
        let halo: Vec<u32> = (0..g.num_cols() as u32).step_by(7).collect();
        check_halo_gather(&d, &xh, f, &halo, tol_h).2.assert_ok();
        let partials: Vec<Vec<f32>> = (0..3).map(|_| wf.clone()).collect();
        check_allreduce_f16(&d, &partials, 64, tol_h).2.assert_ok();
    }

    #[test]
    fn overflow_divergence_is_flagged_as_nonfinite() {
        // Drive cusparse half SpMM into genuine FP16 overflow: a degree-120
        // hub row summing features of 600 reaches 72000 > 65504.
        let edges: Vec<(u32, u32)> = (0..120u32).map(|c| (0, c)).collect();
        let g = Coo::from_edges(120, 120, &edges);
        let f = 2;
        let x = vec![Half::from_f32(600.0); g.num_cols() * f];
        let (_, _, report) = check_cusparse_spmm_half(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            None,
            Tolerance::half_default(),
        );
        assert!(!report.is_ok());
        assert!(report.nonfinite_got > 0);
        let first = report.first.unwrap();
        assert!(first.got_nonfinite_ref_finite);
        assert_eq!(first.row, Some(0)); // the hub row overflows
        assert!(first.degree.unwrap() > 100);
    }
}
