//! Dense operations on the cost-model simulator, plus the kernel/time log
//! a training step accumulates.
//!
//! [`Ops`] is the execution context one training step threads through: it
//! records every kernel's [`KernelStats`] (sparse kernels from
//! `halfgnn-kernels` report into the same log via [`Ops::record`]), counts
//! tensor-level dtype conversions (the §3.1.2 tax), and sums modeled time.
//!
//! The log's meaning follows the device's execution backend
//! (`DeviceConfig::exec`): under `ExecMode::Sim` every entry carries
//! modeled cycles and `total_time_us` is analytic; under `ExecMode::Fast`
//! entries carry zero cycles and measured wall-clock, so `total_time_us`
//! sums real elapsed time. The dense ops' launches only charge, so under
//! `Fast` they are logged with zero time and never run; the ops' own work
//! runs on the calling thread either way. Functional results are
//! bit-identical either way.

use crate::gemm::magnitude;
use halfgnn_exec::{buf_ref, BufRef, ExecCtx};
use halfgnn_half::slice::{f32_slice_to_half, half_slice_to_f32};
use halfgnn_half::{Half, Scalar};
use halfgnn_sim::launch::{charge_only, Cta, LaunchParams};
use halfgnn_sim::{DeviceConfig, KernelStats};

/// Execution context: device, kernel log, conversion counters.
pub struct Ops<'d> {
    /// Device the kernels are modeled on.
    pub dev: &'d DeviceConfig,
    /// Every kernel launched in this context, in order.
    pub log: Vec<KernelStats>,
    /// Tensor-level h2f/f2h conversion kernels launched.
    pub tensor_conversions: u64,
    /// Total elements converted between dtypes.
    pub converted_elems: u64,
    /// Static loss scale for mixed-precision backward passes (Micikevicius
    /// et al.): the loss gradient is multiplied by this before the f2h
    /// cast and weight gradients divide it back out at the master update.
    pub loss_scale: f32,
    /// Capture/replay context. While capturing, dense kernels record
    /// themselves into the execution graph; while replaying, [`Ops::record`]
    /// strips the per-launch overhead the capture epoch already charged.
    pub exec: Option<&'d ExecCtx>,
}

/// Elements each CTA covers in elementwise kernels.
const EW_CTA_ELEMS: usize = 8192;

impl<'d> Ops<'d> {
    /// New context on `dev`.
    pub fn new(dev: &'d DeviceConfig) -> Ops<'d> {
        Ops {
            dev,
            log: Vec::new(),
            tensor_conversions: 0,
            converted_elems: 0,
            loss_scale: 1.0,
            exec: None,
        }
    }

    /// Attach a capture/replay context.
    pub fn with_exec(mut self, exec: Option<&'d ExecCtx>) -> Ops<'d> {
        self.exec = exec;
        self
    }

    /// Record an externally produced kernel's stats (sparse kernels).
    /// During a replay epoch the per-launch overhead was already charged
    /// at capture, so it is stripped here — the CUDA-graph effect.
    pub fn record(&mut self, stats: KernelStats) {
        let stats = match self.exec {
            Some(ctx) if ctx.is_replaying() => {
                let (stripped, saved) = stats.without_launch_overhead(self.dev);
                ctx.add_saved_cycles(saved);
                stripped
            }
            _ => stats,
        };
        self.log.push(stats);
    }

    /// Capture hook: record a dense-kernel launch into the execution
    /// graph (no-op without a capturing context).
    fn trace(&self, op: &'static str, inputs: &[BufRef], outputs: &[BufRef]) {
        if let Some(ctx) = self.exec {
            ctx.record_node(op, inputs, outputs, None);
        }
    }

    /// Total modeled time in microseconds.
    pub fn total_time_us(&self) -> f64 {
        self.log.iter().map(|s| s.time_us).sum()
    }

    /// Number of kernels launched.
    pub fn kernel_count(&self) -> usize {
        self.log.len()
    }

    /// Charge a simple streaming elementwise kernel: `reads`+`writes`
    /// tensors of `n` elements at `elem_bytes`, `instrs_per_32` compute
    /// instructions per 32 elements.
    #[allow(clippy::too_many_arguments)]
    fn charge_elementwise(
        &mut self,
        name: &str,
        n: usize,
        elem_bytes: usize,
        reads: usize,
        writes: usize,
        instrs_per_32: u64,
        half_path: bool,
    ) {
        if n == 0 {
            return;
        }
        let num_ctas = n.div_ceil(EW_CTA_ELEMS).max(1);
        self.charge(name, num_ctas, |cta| {
            let lo = cta.id * EW_CTA_ELEMS;
            let hi = (lo + EW_CTA_ELEMS).min(n);
            if lo >= hi {
                return;
            }
            let span = hi - lo;
            let per_warp = span.div_ceil(4);
            for wi in 0..4 {
                let wlo = lo + wi * per_warp;
                if wlo >= hi {
                    break;
                }
                let wn = per_warp.min(hi - wlo);
                let mut warp = cta.warp(wi);
                for r in 0..reads {
                    warp.load_contiguous(
                        (r as u64) << 32 | (wlo * elem_bytes) as u64,
                        wn,
                        elem_bytes,
                    );
                }
                let instrs = instrs_per_32 * (wn as u64).div_ceil(32);
                if half_path {
                    warp.half2_ops(instrs);
                } else {
                    warp.float_ops(instrs);
                }
                for w in 0..writes {
                    warp.store_contiguous(
                        (w as u64 + 8) << 32 | (wlo * elem_bytes) as u64,
                        wn,
                        elem_bytes,
                    );
                }
            }
        });
    }

    /// Log a launch of `num_ctas` four-warp CTAs whose kernel only
    /// charges ([`charge_only`]: run under `ExecMode::Sim`, logged without
    /// running under `ExecMode::Fast`).
    fn charge(&mut self, name: &str, num_ctas: usize, kernel: impl Fn(&mut Cta) + Sync) {
        let params = LaunchParams { num_ctas, warps_per_cta: 4 };
        self.record(charge_only(self.dev, name, params, kernel));
    }

    /// Divide a gradient tensor by the loss scale (no-op at scale 1).
    pub fn unscale_grad(&mut self, g: &mut [f32]) {
        if self.loss_scale != 1.0 {
            let inv = 1.0 / self.loss_scale;
            self.charge_elementwise("unscale_grad", g.len(), 4, 1, 1, 1, false);
            self.trace("unscale_grad", &[buf_ref(g)], &[buf_ref(g)]);
            for v in g.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// Convert a float tensor to half (charged conversion kernel).
    pub fn to_half(&mut self, x: &[f32]) -> Vec<Half> {
        self.tensor_conversions += 1;
        self.converted_elems += x.len() as u64;
        self.charge_elementwise("f2h_convert", x.len(), 4, 1, 1, 1, false);
        let out = f32_slice_to_half(x);
        self.trace("f2h_convert", &[buf_ref(x)], &[buf_ref(&out)]);
        out
    }

    /// Convert a half tensor to float (charged conversion kernel).
    pub fn to_f32(&mut self, x: &[Half]) -> Vec<f32> {
        self.tensor_conversions += 1;
        self.converted_elems += x.len() as u64;
        self.charge_elementwise("h2f_convert", x.len(), 4, 1, 1, 1, false);
        let out = half_slice_to_f32(x);
        self.trace("h2f_convert", &[buf_ref(x)], &[buf_ref(&out)]);
        out
    }

    /// Gather feature rows: `out[i, :] = x[ids[i], :]` with row width `f`.
    /// The batch loader's kernel — pulls a subgraph's feature rows out of
    /// the global feature matrix (one extra index read per element).
    pub fn gather_rows<T: Scalar>(&mut self, x: &[T], f: usize, ids: &[u32]) -> Vec<T> {
        let name = T::pick("gather_rows_f16", "gather_rows_f32");
        self.charge_elementwise(name, ids.len() * f, T::BYTES, 2, 1, 1, T::HALF);
        let mut out = Vec::with_capacity(ids.len() * f);
        for &id in ids {
            let r = id as usize * f;
            out.extend_from_slice(&x[r..r + f]);
        }
        self.trace(name, &[buf_ref(x)], &[buf_ref(&out)]);
        out
    }

    /// [`Ops::gather_rows`] of a half tensor.
    pub fn gather_rows_half(&mut self, x: &[Half], f: usize, ids: &[u32]) -> Vec<Half> {
        self.gather_rows(x, f, ids)
    }

    /// `C[m×n] ← op(A)[m×k] · op(B)[k×n]`. `ta`/`tb` transpose the stored
    /// operands (A is stored `m×k` or `k×m` accordingly). Half runs as
    /// PyTorch AMP does: tensor cores (modeled at 4× float throughput),
    /// f32 accumulation, half storage — the operand rows the product
    /// reads are widened, and the output narrowed once ([`crate::gemm`]).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm<T: Scalar>(
        &mut self,
        a: &[T],
        ta: bool,
        b: &[T],
        tb: bool,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<T> {
        assert_eq!(a.len(), m * k, "A shape");
        assert_eq!(b.len(), k * n, "B shape");
        let name = T::pick("gemm_f16_tc", "gemm_f32");
        self.charge_gemm::<T>(name, m, k, n);
        let out = crate::gemm::gemm(a, ta, b, tb, m, k, n);
        self.trace(name, &[buf_ref(a), buf_ref(b)], &[buf_ref(&out)]);
        out
    }

    /// GeMM cost: 64×64 output tiles, `mnk` MACs (at 4× float throughput
    /// on half tensor cores), streaming operand tiles.
    fn charge_gemm<T: Scalar>(&mut self, name: &str, m: usize, k: usize, n: usize) {
        let elem_bytes = T::BYTES;
        let speedup = if T::HALF { 4.0 } else { 1.0 };
        let tiles_m = m.div_ceil(64).max(1);
        let tiles_n = n.div_ceil(64).max(1);
        let num_ctas = tiles_m * tiles_n;
        let fma_per_warp = ((64 * 64 * k) / 4 / 32) as u64; // 4 warps per tile
        let fma_per_warp = ((fma_per_warp as f64) / speedup).ceil() as u64;
        self.charge(name, num_ctas, |cta| {
            let cta_id = cta.id;
            for wi in 0..4 {
                let mut warp = cta.warp(wi);
                // Each warp streams its share of the A and B tiles.
                warp.load_contiguous((cta_id * 7919) as u64, 16 * k, elem_bytes);
                warp.load_contiguous(((cta_id + 1) * 104729) as u64, 16 * k, elem_bytes);
                warp.smem_accesses((k as u64).div_ceil(8));
                if T::HALF {
                    warp.half2_ops(fma_per_warp);
                } else {
                    warp.float_ops(fma_per_warp);
                }
                warp.store_contiguous((cta_id * 31) as u64, 16 * 64, elem_bytes);
            }
        });
    }

    /// ReLU, dtype-preserving (as under AMP). NaN propagates (as in
    /// PyTorch): an overflowed activation must not silently launder back
    /// to zero.
    pub fn relu<T: Scalar>(&mut self, x: &[T]) -> Vec<T> {
        let name = T::pick("relu_f16", "relu_f32");
        self.charge_elementwise(name, x.len(), T::BYTES, 1, 1, 1, T::HALF);
        let out: Vec<T> =
            x.iter().map(|&v| if is_nan(v) || is_positive(v) { v } else { T::ZERO }).collect();
        self.trace(name, &[buf_ref(x)], &[buf_ref(&out)]);
        out
    }

    /// ReLU backward: `δx = δy · 1[x > 0]` (NaN inputs propagate NaN).
    pub fn relu_grad<T: Scalar>(&mut self, x: &[T], dy: &[T]) -> Vec<T> {
        let name = T::pick("relu_grad_f16", "relu_grad_f32");
        self.charge_elementwise(name, x.len(), T::BYTES, 2, 1, 1, T::HALF);
        let out: Vec<T> = x
            .iter()
            .zip(dy)
            .map(|(&v, &g)| {
                if is_nan(v) {
                    v
                } else if is_positive(v) {
                    g
                } else {
                    T::ZERO
                }
            })
            .collect();
        self.trace(name, &[buf_ref(x), buf_ref(dy)], &[buf_ref(&out)]);
        out
    }

    /// Row-broadcast bias add (`x: m×n`, `bias: n`).
    pub fn bias_add<T: Scalar>(&mut self, x: &[T], bias: &[T]) -> Vec<T> {
        let name = T::pick("bias_f16", "bias_f32");
        self.charge_elementwise(name, x.len(), T::BYTES, 2, 1, 1, T::HALF);
        let out = T::bias_add(x, bias);
        self.trace(name, &[buf_ref(x), buf_ref(bias)], &[buf_ref(&out)]);
        out
    }

    /// `out ← a·x + b·y` (GIN's Eq. 4 aggregation combine).
    pub fn scale_add<T: Scalar>(&mut self, a: T, x: &[T], b: T, y: &[T]) -> Vec<T> {
        assert_eq!(x.len(), y.len());
        let name = T::pick("scale_add_f16", "scale_add_f32");
        self.charge_elementwise(name, x.len(), T::BYTES, 2, 1, 2, T::HALF);
        let out = T::scale_add(a, x, b, y);
        self.trace(name, &[buf_ref(x), buf_ref(y)], &[buf_ref(&out)]);
        out
    }

    /// Scale each row of an `n×f` tensor by `scale[row]` (degree-norm
    /// applied on the input side, as right-norm backward requires).
    pub fn row_scale<T: Scalar>(&mut self, x: &[T], scale: &[T], f: usize) -> Vec<T> {
        assert_eq!(x.len(), scale.len() * f);
        let name = T::pick("row_scale_f16", "row_scale_f32");
        self.charge_elementwise(name, x.len(), T::BYTES, 1, 1, 1, T::HALF);
        let out = T::row_scale(x, scale, f);
        self.trace(name, &[buf_ref(x), buf_ref(scale)], &[buf_ref(&out)]);
        out
    }

    /// Column sums of an `m×n` tensor (bias gradients), accumulated in
    /// f32: AMP promotes a `Sum`, so a half input pays a counted
    /// promotion and there is no half output.
    pub fn colsum<T: Scalar>(&mut self, x: &[T], n: usize) -> Vec<f32> {
        assert!(n > 0 && x.len().is_multiple_of(n));
        let name = T::pick("colsum_f16_promoted", "colsum_f32");
        if T::HALF {
            self.tensor_conversions += 1;
            self.converted_elems += x.len() as u64;
        }
        // The promotion's conversion is a second instruction per element,
        // on the float pipe.
        let instrs = if T::HALF { 2 } else { 1 };
        self.charge_elementwise(name, x.len(), T::BYTES, 1, 0, instrs, false);
        let mut out = vec![0f32; n];
        let mut row_f32 = vec![0f32; n];
        for row in x.chunks_exact(n) {
            T::widen_into(row, &mut row_f32);
            for (o, &v) in out.iter_mut().zip(&row_f32) {
                *o += v;
            }
        }
        self.trace(name, &[buf_ref(x)], &[buf_ref(&out)]);
        out
    }

    /// Masked softmax cross-entropy (always f32 — AMP promotes it, and the
    /// paper keeps losses/weight updates in float per Micikevicius et al.).
    ///
    /// Returns `(mean loss, gradient w.r.t. logits, correct predictions)`
    /// over the masked rows; gradient rows outside the mask are zero.
    pub fn softmax_xent_f32(
        &mut self,
        logits: &[f32],
        labels: &[u32],
        mask: &[bool],
        classes: usize,
    ) -> (f32, Vec<f32>, usize) {
        let n = labels.len();
        assert_eq!(logits.len(), n * classes);
        self.charge_elementwise("softmax_xent_f32", logits.len(), 4, 1, 1, 6, false);
        let mut grad = vec![0f32; logits.len()];
        let mut loss = 0f64;
        let mut correct = 0usize;
        let mut count = 0usize;
        for v in 0..n {
            if !mask[v] {
                continue;
            }
            count += 1;
            let row = &logits[v * classes..(v + 1) * classes];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
            let z: f32 = exps.iter().sum();
            let label = labels[v] as usize;
            let prob = exps[label] / z;
            // Preserve NaN (overflowed logits): `max` would silently drop
            // it and hide the very failure Fig. 1c demonstrates.
            loss -= if prob.is_nan() { f64::NAN } else { (prob.max(1e-30) as f64).ln() };
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if pred == label {
                correct += 1;
            }
            let g = &mut grad[v * classes..(v + 1) * classes];
            for (j, gv) in g.iter_mut().enumerate() {
                *gv = exps[j] / z - if j == label { 1.0 } else { 0.0 };
            }
        }
        let count = count.max(1);
        for g in grad.iter_mut() {
            *g /= count as f32;
        }
        self.trace("softmax_xent_f32", &[buf_ref(logits)], &[buf_ref(&grad)]);
        ((loss / count as f64) as f32, grad, correct)
    }

    /// Accuracy of argmax predictions over masked rows.
    pub fn accuracy(logits: &[f32], labels: &[u32], mask: &[bool], classes: usize) -> f32 {
        let mut correct = 0usize;
        let mut count = 0usize;
        for (v, &label) in labels.iter().enumerate() {
            if !mask[v] {
                continue;
            }
            count += 1;
            let row = &logits[v * classes..(v + 1) * classes];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if pred == label as usize {
                correct += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            correct as f32 / count as f32
        }
    }
}

/// NaN of either sign, tested on the bits: a magnitude above +Inf's.
fn is_nan<T: Scalar>(v: T) -> bool {
    let infinity = if T::HALF { 0x7C00 } else { 0x7F80_0000 };
    v.bits() & magnitude::<T>() > infinity
}

/// `v > 0`, tested on the bits: sign clear, nonzero and not NaN, so +Inf
/// and the positive subnormals pass.
fn is_positive<T: Scalar>(v: T) -> bool {
    v.bits() & !magnitude::<T>() == 0 && v.bits() != 0 && !is_nan(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_sim::DeviceConfig;

    fn dev() -> DeviceConfig {
        DeviceConfig::a100_like()
    }

    #[test]
    fn gather_rows_picks_and_charges() {
        let d = dev();
        let mut ops = Ops::new(&d);
        let x = [0.0, 1.0, 10.0, 11.0, 20.0, 21.0];
        let out = ops.gather_rows(&x, 2, &[2, 0, 2]);
        assert_eq!(out, vec![20.0, 21.0, 0.0, 1.0, 20.0, 21.0]);
        assert_eq!(ops.kernel_count(), 1, "gather must appear in the kernel log");
        let xh = f32_slice_to_half(&x);
        let outh = ops.gather_rows(&xh, 2, &[1]);
        assert_eq!(half_slice_to_f32(&outh), vec![10.0, 11.0]);
        let empty = ops.gather_rows(&x, 2, &[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn gemm_f32_and_half_agree() {
        let d = dev();
        let mut ops = Ops::new(&d);
        let a: Vec<f32> = (0..6).map(|i| i as f32 * 0.5).collect(); // 2x3
        let b: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) * 0.25).collect(); // 3x4
        let cf = ops.gemm(&a, false, &b, false, 2, 3, 4);
        let ah = f32_slice_to_half(&a);
        let bh = f32_slice_to_half(&b);
        let ch = ops.gemm(&ah, false, &bh, false, 2, 3, 4);
        for (f, h) in cf.iter().zip(&ch) {
            assert!((f - h.to_f32()).abs() < 0.01, "{f} vs {h}");
        }
        assert_eq!(ops.kernel_count(), 2);
    }

    #[test]
    fn half_gemm_is_faster_than_float() {
        let d = dev();
        let mut ops = Ops::new(&d);
        let m = 512;
        let a = vec![0.01f32; m * m];
        ops.gemm(&a, false, &a, false, m, m, m);
        let f32_cycles = ops.log.last().unwrap().cycles;
        let ah = f32_slice_to_half(&a);
        ops.gemm(&ah, false, &ah, false, m, m, m);
        let f16_cycles = ops.log.last().unwrap().cycles;
        assert!(
            f16_cycles < f32_cycles,
            "tensor-core half GeMM should win: {f16_cycles} vs {f32_cycles}"
        );
    }

    #[test]
    fn conversions_are_counted() {
        let d = dev();
        let mut ops = Ops::new(&d);
        let x = vec![1.5f32; 100];
        let h = ops.to_half(&x);
        let back = ops.to_f32(&h);
        assert_eq!(back, x);
        assert_eq!(ops.tensor_conversions, 2);
        assert_eq!(ops.converted_elems, 200);
        assert_eq!(ops.kernel_count(), 2);
    }

    #[test]
    fn relu_and_grads() {
        let d = dev();
        let mut ops = Ops::new(&d);
        let x = [1.0f32, -2.0, 0.0, 3.0];
        assert_eq!(ops.relu(&x), vec![1.0, 0.0, 0.0, 3.0]);
        let dy = [1.0f32; 4];
        assert_eq!(ops.relu_grad(&x, &dy), vec![1.0, 0.0, 0.0, 1.0]);
        let xh = f32_slice_to_half(&x);
        let rh = ops.relu(&xh);
        assert_eq!(rh[1], Half::ZERO);
        assert_eq!(rh[3].to_f32(), 3.0);
    }

    #[test]
    fn bias_and_scale_add() {
        let d = dev();
        let mut ops = Ops::new(&d);
        let x = [1.0f32, 2.0, 3.0, 4.0]; // 2x2
        let bias = [10.0f32, 20.0];
        assert_eq!(ops.bias_add(&x, &bias), vec![11.0, 22.0, 13.0, 24.0]);
        let r = ops.scale_add(2.0, &x, 0.5, &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(r, vec![4.0, 6.0, 8.0, 10.0]);
        let xh = f32_slice_to_half(&x);
        let yh = f32_slice_to_half(&[4.0, 4.0, 4.0, 4.0]);
        let rh = ops.scale_add(Half::from_f32(2.0), &xh, Half::from_f32(0.5), &yh);
        assert_eq!(rh[0].to_f32(), 4.0);
        assert_eq!(rh[3].to_f32(), 10.0);
    }

    #[test]
    fn softmax_xent_gradient_sums_to_zero_per_row() {
        let d = dev();
        let mut ops = Ops::new(&d);
        let logits = [2.0f32, 1.0, 0.1, 0.5, 0.5, 3.0];
        let labels = [0u32, 2];
        let mask = [true, true];
        let (loss, grad, correct) = ops.softmax_xent_f32(&logits, &labels, &mask, 3);
        assert!(loss > 0.0);
        assert_eq!(correct, 2);
        for v in 0..2 {
            let s: f32 = grad[v * 3..(v + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {v} grad sum {s}");
        }
        // Gradient at the label is negative (pull up), others positive.
        assert!(grad[0] < 0.0 && grad[1] > 0.0);
    }

    #[test]
    fn masked_rows_do_not_contribute() {
        let d = dev();
        let mut ops = Ops::new(&d);
        let logits = [1.0f32, 0.0, 0.0, 5.0];
        let labels = [0u32, 0];
        let mask = [true, false];
        let (_, grad, _) = ops.softmax_xent_f32(&logits, &labels, &mask, 2);
        assert_eq!(&grad[2..4], &[0.0, 0.0]);
    }

    #[test]
    fn accuracy_helper() {
        let logits = [0.9f32, 0.1, 0.2, 0.8];
        let labels = [0u32, 0];
        let mask = [true, true];
        assert_eq!(Ops::accuracy(&logits, &labels, &mask, 2), 0.5);
    }

    #[test]
    fn finite_difference_checks_xent_gradient() {
        let d = dev();
        let mut ops = Ops::new(&d);
        let mut logits = vec![0.3f32, -0.2, 0.7, 0.1, 0.9, -0.5];
        let labels = [2u32, 0];
        let mask = [true, true];
        let (_, grad, _) = ops.softmax_xent_f32(&logits, &labels, &mask, 3);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let orig = logits[i];
            logits[i] = orig + eps;
            let (lp, _, _) = ops.softmax_xent_f32(&logits, &labels, &mask, 3);
            logits[i] = orig - eps;
            let (lm, _, _) = ops.softmax_xent_f32(&logits, &labels, &mask, 3);
            logits[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - grad[i]).abs() < 1e-3, "grad[{i}]: fd {fd} vs {}", grad[i]);
        }
    }
}
