//! Golden pin of every model's training step at the kernel level: one
//! step per (model, precision, loss scale) on a 40-vertex SBM graph under
//! `ExecMode::Sim`, reduced to one line each in
//! `tests/golden/step_launches.txt`.
//!
//! A line holds the config's name, its launch count and a digest of
//! everything the step computed and charged: the ordered kernel log (name,
//! `cycles` and `time_us` bits, DRAM bytes), the tensor-conversion
//! counters, and the bits of the loss, the flat gradients and the logits.
//! So any change to which kernels run, in which order, or to any value a
//! step returns shows up here. Serving's forward-only GCN is pinned the
//! same way, without loss or gradients.
//!
//! The second test checks overflow provenance at the AMP boundary: a huge
//! loss scale overflows the loss gradient's f32→half cast, and that first
//! event must carry the model's backward site label.

use halfgnn::graph::partition::PartitionStrategy;
use halfgnn::graph::{features, gen, Csr};
use halfgnn::half::slice::f32_slice_to_half;
use halfgnn::half::{overflow, Half};
use halfgnn::nn::dist::DistCtx;
use halfgnn::nn::gat::{self, MultiHeadGatParams};
use halfgnn::nn::graphdata::GraphView;
use halfgnn::nn::models::{Dispatch, GcnNorm, PrecisionMode};
use halfgnn::nn::params::{GatParams, TwoLayerParams};
use halfgnn::nn::sage::{self, SageParams};
use halfgnn::nn::{gcn, gin};
use halfgnn::sim::interconnect::Topology;
use halfgnn::sim::DeviceConfig;
use halfgnn::tensor::Ops;

const GOLDEN: &str = include_str!("golden/step_launches.txt");

const MODES: [PrecisionMode; 5] = [
    PrecisionMode::Float,
    PrecisionMode::HalfNaive,
    PrecisionMode::HalfGnn,
    PrecisionMode::HalfGnnNoDiscretize,
    PrecisionMode::I8,
];

#[derive(Clone, Copy, Debug)]
enum Model {
    Gcn(GcnNorm),
    Gin,
    Sage,
    Gat,
    /// Two-head GAT.
    Gat2,
}

const MODELS: [Model; 7] = [
    Model::Gcn(GcnNorm::Right),
    Model::Gcn(GcnNorm::Left),
    Model::Gcn(GcnNorm::Both),
    Model::Gin,
    Model::Sage,
    Model::Gat,
    Model::Gat2,
];

/// The 40-vertex two-block SBM graph, 8 class-correlated features, every
/// vertex in the training mask.
struct Fixture {
    csr: Csr,
    x: Vec<f32>,
    xh: Vec<Half>,
    labels: Vec<u32>,
    mask: Vec<bool>,
}

fn fixture() -> Fixture {
    let (edges, labels) = gen::sbm(&[20, 20], 0.4, 0.02, 3);
    let csr = Csr::from_edges(40, 40, &edges).symmetrized_with_self_loops();
    let x = features::class_features(&labels, 2, 8, 1.0, 0.2, 5);
    let xh = f32_slice_to_half(&x);
    Fixture { csr, x, xh, labels, mask: vec![true; 40] }
}

/// What one step returned: `(loss, flat gradients, logits)`.
type StepOut = (f32, Vec<f32>, Vec<f32>);

/// One training step of `model` in `d.mode`'s precision.
fn step(ops: &mut Ops, g: &GraphView, fx: &Fixture, model: Model, d: Dispatch<'_>) -> StepOut {
    let (x, xh, labels, mask) = (&fx.x, &fx.xh, &fx.labels, &fx.mask);
    let half = d.mode.is_half();
    match model {
        Model::Gcn(norm) => {
            let p = TwoLayerParams::new(8, 8, 2, 1);
            let o = if half {
                gcn::step_half_norm(ops, g, &p, xh, labels, mask, d, norm)
            } else {
                gcn::step(ops, g, &p, x, labels, mask, d, norm)
            };
            (o.loss, o.grads.flat(), o.logits)
        }
        Model::Gin => {
            let p = TwoLayerParams::new(8, 8, 2, 1);
            let o = if half {
                gin::step(ops, g, &p, xh, labels, mask, d, gin::GIN_LAMBDA)
            } else {
                gin::step(ops, g, &p, x, labels, mask, d, gin::GIN_LAMBDA)
            };
            (o.loss, o.grads.flat(), o.logits)
        }
        Model::Sage => {
            let p = SageParams::new(8, 8, 2, 1);
            let o = if half {
                sage::step_half(ops, g, &p, xh, labels, mask, d)
            } else {
                sage::step(ops, g, &p, x, labels, mask, d)
            };
            (o.loss, o.grads.flat(), o.logits)
        }
        Model::Gat => {
            let p = GatParams::new(8, 8, 2, 1);
            let o = if half {
                gat::step_half(ops, g, &p, xh, labels, mask, d)
            } else {
                gat::step(ops, g, &p, x, labels, mask, d)
            };
            (o.loss, o.grads.flat(), o.logits)
        }
        Model::Gat2 => {
            let p = MultiHeadGatParams::new(8, 8, 2, 2, 1);
            let o = if half {
                gat::step_multihead(ops, g, &p, xh, labels, mask, d)
            } else {
                gat::step_multihead(ops, g, &p, x, labels, mask, d)
            };
            let gr = o.grads;
            let heads = gr.w1.iter().chain(&gr.a_src1).chain(&gr.a_dst1);
            let flat = heads.chain([&gr.w2, &gr.a_src2, &gr.a_dst2]).flatten().copied().collect();
            (o.loss, flat, o.logits)
        }
    }
}

/// Serving's forward-only GCN under the vertex-parallel dispatch.
fn serve_forward(ops: &mut Ops, g: &GraphView, fx: &Fixture, mode: PrecisionMode) -> Vec<f32> {
    let p = TwoLayerParams::new(8, 8, 2, 1);
    let d = Dispatch::untuned(mode).with_vertex_parallel_spmm(true);
    if mode.is_half() {
        gcn::forward(ops, g, &p, &fx.xh, d, GcnNorm::Right)
    } else {
        gcn::forward(ops, g, &p, &fx.x, d, GcnNorm::Right)
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn bytes(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }

    fn floats(&mut self, v: &[f32]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits() as u64);
        }
    }
}

/// One golden line: the launch count and the digest of the step's kernel
/// log, conversion counters and (when given) its loss, gradients and
/// logits.
fn line(name: &str, ops: &Ops, loss: Option<f32>, grads: &[f32], logits: &[f32]) -> String {
    let mut h = Digest::new();
    for s in &ops.log {
        h.bytes(&s.name);
        h.word(s.cycles.to_bits());
        h.word(s.time_us.to_bits());
        h.word(s.dram_bytes());
    }
    h.word(ops.tensor_conversions);
    h.word(ops.converted_elems);
    if let Some(l) = loss {
        h.word(l.to_bits() as u64);
    }
    h.floats(grads);
    h.floats(logits);
    format!("{name}: launches {} digest {:016x}\n", ops.log.len(), h.0)
}

fn launches_text() -> String {
    let dev = DeviceConfig::a100_like();
    let fx = fixture();
    let g = GraphView::full(&fx.csr);
    let mut text = String::new();
    let mut run = |name: String, d: Dispatch<'_>, model: Model, loss_scale: f32| {
        let mut ops = Ops::new(&dev);
        ops.loss_scale = loss_scale;
        let (loss, grads, logits) = step(&mut ops, &g, &fx, model, d.with_quant_seed(1));
        text.push_str(&line(&name, &ops, Some(loss), &grads, &logits));
    };
    for model in MODELS {
        for mode in MODES {
            for scale in [1.0, 64.0] {
                run(
                    format!("{model:?} {mode:?} scale {scale}"),
                    Dispatch::untuned(mode),
                    model,
                    scale,
                );
            }
        }
    }
    let fused = Dispatch::untuned(PrecisionMode::HalfGnn).with_fusion(true);
    run("Gat HalfGnn fused".into(), fused, Model::Gat, 1.0);
    for model in [Model::Gcn(GcnNorm::Right), Model::Gin, Model::Sage, Model::Gat] {
        for mode in [PrecisionMode::Float, PrecisionMode::HalfGnn] {
            let ctx = DistCtx::new(&fx.csr, 2, PartitionStrategy::Contiguous, Topology::Ring);
            let d = Dispatch::untuned(mode).with_dist(Some(&ctx));
            run(format!("{model:?} {mode:?} 2 shards"), d, model, 1.0);
        }
    }
    let ctx = DistCtx::new(&fx.csr, 2, PartitionStrategy::Contiguous, Topology::Ring);
    let d = Dispatch::untuned(PrecisionMode::HalfGnn).with_dist(Some(&ctx));
    run("Gat2 HalfGnn 2 shards".into(), d, Model::Gat2, 1.0);
    for mode in [PrecisionMode::Float, PrecisionMode::HalfGnn] {
        let mut ops = Ops::new(&dev);
        let logits = serve_forward(&mut ops, &g, &fx, mode);
        text.push_str(&line(&format!("serve gcn forward {mode:?}"), &ops, None, &[], &logits));
    }
    text
}

#[test]
fn step_launches_match_the_golden_text() {
    let actual = launches_text();
    if actual != GOLDEN {
        let line = actual.lines().zip(GOLDEN.lines()).position(|(a, g)| a != g);
        println!("---- actual launches ----\n{actual}---- end of actual launches ----");
        panic!(
            "step launches differ from tests/golden/step_launches.txt \
             (first differing line: {:?}; actual {} lines, golden {} lines)",
            line.map(|l| l + 1),
            actual.lines().count(),
            GOLDEN.lines().count()
        );
    }
}

#[test]
fn loss_gradient_overflows_carry_the_backward_site() {
    let dev = DeviceConfig::a100_like();
    let fx = fixture();
    let g = GraphView::full(&fx.csr);
    let d = Dispatch::untuned(PrecisionMode::HalfGnn);
    let cases = [
        (Model::Gcn(GcnNorm::Right), "gcn.backward"),
        (Model::Gin, "gin.backward"),
        (Model::Sage, "sage.backward"),
        (Model::Gat, "gat.layer2.backward"),
        (Model::Gat2, "gat.layer2.backward"),
    ];
    let mut wrong = Vec::new();
    for (model, label) in cases {
        let mut ops = Ops::new(&dev);
        ops.loss_scale = 1e9;
        overflow::begin();
        step(&mut ops, &g, &fx, model, d);
        let first = overflow::take().first.expect("a 1e9 loss scale overflows the loss gradient");
        if !first.site.starts_with(label) {
            wrong.push(format!("{model:?}: first overflow at '{}', want '{label}'", first.site));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
