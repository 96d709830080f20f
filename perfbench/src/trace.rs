//! Spans recorded around the calls into each layer, and the per-layer rows
//! derived from them.
//!
//! A span is `(name, start, end, parent)`. Spans are kept in memory and
//! written out once, when the benchmark ends. A span's self time is its
//! duration minus its child spans and minus the kernel launches logged
//! while it ran; every self time lands in one row, so the rows add up to
//! the root span.

use halfgnn_sim::KernelStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Kernel family of a logged launch, from its `KernelStats::name`.
/// Composite launches (`a+b`) are classified by their first kernel.
pub fn family(k: &str) -> &'static str {
    const DENSE: [&str; 7] =
        ["gemm_", "bias_", "relu_", "colsum_", "row_scale_", "scale_add_", "softmax_xent_"];
    if k.starts_with("spmm_i8") {
        "kernels.spmm_i8"
    } else if k.starts_with("halfgnn_spmm") || k.ends_with("spmm_followup") {
        "kernels.spmm"
    } else if k.starts_with("halfgnn_sddmm") {
        "kernels.sddmm"
    } else if k.starts_with("fused_") || k.starts_with("edge_") {
        "kernels.attn"
    } else if k.starts_with("halo_gather_") || k.starts_with("allreduce_") {
        "kernels.dist"
    } else if k.starts_with("f2h_convert") || k.starts_with("h2f_convert") {
        "tensor.convert"
    } else if k.starts_with("gather_rows_") {
        "tensor.gather"
    } else if DENSE.iter().any(|p| k.starts_with(p)) {
        "tensor.dense"
    } else {
        "kernels.other"
    }
}

/// Every kernel family, in report order.
pub const FAMILIES: [&str; 9] = [
    "kernels.spmm",
    "kernels.sddmm",
    "kernels.attn",
    "kernels.spmm_i8",
    "kernels.dist",
    "kernels.other",
    "tensor.dense",
    "tensor.convert",
    "tensor.gather",
];

/// The row a span's self time lands in.
fn self_row(span: &str) -> &'static str {
    match span {
        "nn.step" => "nn.step.host_ms",
        "nn.adam" => "nn.adam.wall_ms",
        "nn.eval" => "nn.eval.wall_ms",
        "graph.sample" => "graph.sample.wall_ms",
        "graph.delta_insert" => "graph.delta_insert.wall_ms",
        "nn.batch_view" => "nn.batch_view.wall_ms",
        "tensor.gather" => "tensor.gather.wall_ms",
        // The call and epoch frames: parameter init, views, contexts.
        _ => "unattributed_ms",
    }
}

/// The rows span self times land in, besides `tensor.gather.wall_ms`.
pub const SPAN_ROWS: [&str; 7] = [
    "graph.sample.wall_ms",
    "graph.delta_insert.wall_ms",
    "nn.batch_view.wall_ms",
    "nn.step.host_ms",
    "nn.adam.wall_ms",
    "nn.eval.wall_ms",
    "unattributed_ms",
];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    /// Microseconds since the tracer started.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Kernel launches logged inside the span: `(name, wall µs)`.
    pub kernels: Vec<(String, f64)>,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span recorder with an explicit enter/exit stack.
pub struct Tracer {
    t0: Instant,
    /// Every span, in entry order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; timestamps count from now.
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            kernels: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_us = self.now_us();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Attach the kernel launches `log` recorded during span `id`.
    pub fn attach(&mut self, id: usize, log: &[KernelStats]) {
        self.spans[id].kernels.extend(log.iter().map(|k| (k.name.clone(), k.time_us)));
    }

    /// Wall time per row, in milliseconds, summed over every span.
    pub fn rows_ms(&self) -> BTreeMap<String, f64> {
        let families = FAMILIES.iter().map(|f| format!("{f}.wall_ms"));
        let mut rows: BTreeMap<String, f64> =
            families.chain(SPAN_ROWS.map(String::from)).map(|r| (r, 0.0)).collect();
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let mut self_us = s.dur_us() - child_us[i];
            for (k, us) in &s.kernels {
                self_us -= us;
                *rows.entry(format!("{}.wall_ms", family(k))).or_default() += us / 1e3;
            }
            *rows.entry(self_row(s.name).to_string()).or_default() += self_us / 1e3;
        }
        rows
    }

    /// Total duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_us).sum::<f64>() / 1e3
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"kernels\":[",
                s.name, s.start_us, s.end_us
            );
            for (j, (k, us)) in s.kernels.iter().enumerate() {
                let sep = if j > 0 { "," } else { "" };
                let _ = write!(out, "{sep}[\"{k}\",{us}]");
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_follow_the_name_prefixes() {
        for (k, f) in [
            ("halfgnn_spmmv+spmm_followup", "kernels.spmm"),
            ("halfgnn_spmmve+spmm_followup", "kernels.spmm"),
            ("halfgnn_sddmm", "kernels.sddmm"),
            ("edge_softmax_grad", "kernels.attn"),
            ("fused_attn_fwd", "kernels.attn"),
            ("spmm_i8v+spmm_i8_followup", "kernels.spmm_i8"),
            ("halo_gather_i8", "kernels.dist"),
            ("allreduce_i8_sr", "kernels.dist"),
            ("gemm_f16_tc", "tensor.dense"),
            ("relu_grad_f16", "tensor.dense"),
            ("softmax_xent_f32", "tensor.dense"),
            ("f2h_convert", "tensor.convert"),
            ("gather_rows_f16", "tensor.gather"),
            ("unscale_grad", "kernels.other"),
        ] {
            assert_eq!(family(k), f, "{k}");
        }
    }

    #[test]
    fn rows_add_up_to_the_root_span() {
        let mut t = Tracer::new();
        let root = t.enter("call");
        let step = t.enter("nn.step");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(step);
        t.spans[step].kernels.push(("gemm_f16_tc".into(), 500.0));
        t.span("nn.adam", || std::thread::sleep(std::time::Duration::from_millis(1)));
        t.exit(root);
        let rows = t.rows_ms();
        let sum: f64 = rows.values().sum();
        assert!((sum - t.spans[root].dur_us() / 1e3).abs() < 1e-9);
        assert_eq!(rows["tensor.dense.wall_ms"], 0.5);
        assert!(rows["nn.step.host_ms"] > 1.0);
    }
}
