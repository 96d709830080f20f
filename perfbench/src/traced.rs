//! Traced calls: the epochs of one `train_on` call, re-run through the
//! library's public functions with a span around each layer call.
//!
//! It builds the same views, contexts, parameters and dispatch as the
//! trainer, so its losses equal `train_on`'s bitwise. The one exception is
//! the streamed-edge draw of the mini-batch loop, which is private to the
//! trainer: a traced call streams edges of its own, so its losses match
//! only before the stream epoch.

use crate::trace::Tracer;
use halfgnn_exec::ExecCtx;
use halfgnn_graph::datasets::LoadedDataset;
use halfgnn_graph::{DeltaCsr, NeighborSampler, VertexId};
use halfgnn_half::slice::{f32_slice_to_half, pad_feature_len};
use halfgnn_half::{overflow, quant, Half};
use halfgnn_nn::adam::Adam;
use halfgnn_nn::dist::DistCtx;
use halfgnn_nn::graphdata::GraphView;
use halfgnn_nn::models::Dispatch;
use halfgnn_nn::params::{GatParams, TwoLayerParams};
use halfgnn_nn::sage::SageParams;
use halfgnn_nn::trainer::{ModelKind, TrainConfig, Tuning};
use halfgnn_nn::{gat, gcn, sage};
use halfgnn_sim::DeviceConfig;
use halfgnn_tensor::Ops;
use halfgnn_tune::Tuner;

/// What one traced call produced.
#[derive(Clone, Debug)]
pub struct TracedCall {
    /// Loss per epoch.
    pub losses: Vec<f32>,
    /// Held-out accuracy after the last epoch.
    pub test_accuracy: f32,
    /// Wall time of each epoch span, in milliseconds.
    pub epoch_ms: Vec<f64>,
    /// Vertices in every sampled receptive field of the call.
    pub sampled_vertices: usize,
    /// Epoch before which the call streamed its edges, when it did.
    pub stream_epoch: Option<usize>,
}

/// Run one traced call of `cfg` (a half-precision configuration).
pub fn call(
    t: &mut Tracer,
    dev: &DeviceConfig,
    data: &LoadedDataset,
    cfg: &TrainConfig,
) -> TracedCall {
    assert!(cfg.precision.is_half(), "traced calls cover the half-precision workloads");
    if cfg.batch_size.is_some() {
        minibatch(t, dev, data, cfg)
    } else {
        fullbatch(t, dev, data, cfg)
    }
}

/// Master weights of the three architectures the workloads train.
enum Params {
    Gcn(TwoLayerParams),
    Gat(GatParams),
    Sage(SageParams),
}

impl Params {
    fn new(cfg: &TrainConfig, f_in: usize, classes: usize) -> Params {
        let (h, s) = (cfg.hidden, cfg.seed);
        match cfg.model {
            ModelKind::Gcn => Params::Gcn(TwoLayerParams::new(f_in, h, classes, s)),
            ModelKind::Gat => Params::Gat(GatParams::new(f_in, h, classes, s)),
            ModelKind::Sage => Params::Sage(SageParams::new(f_in, h, classes, s)),
            ModelKind::Gin => unreachable!("no workload trains GIN"),
        }
    }

    fn num_params(&self) -> usize {
        match self {
            Params::Gcn(p) => p.num_params(),
            Params::Gat(p) => p.num_params(),
            Params::Sage(p) => p.num_params(),
        }
    }

    /// One forward and backward step: `(loss, flat grads, logits)`.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        ops: &mut Ops,
        g: &GraphView,
        x: &[Half],
        labels: &[u32],
        mask: &[bool],
        d: Dispatch<'_>,
        cfg: &TrainConfig,
    ) -> (f32, Vec<f32>, Vec<f32>) {
        match self {
            Params::Gcn(p) => {
                let o = gcn::step_half_norm(ops, g, p, x, labels, mask, d, cfg.gcn_norm);
                (o.loss, o.grads.flat(), o.logits)
            }
            Params::Gat(p) => {
                let o = gat::step_half(ops, g, p, x, labels, mask, d);
                (o.loss, o.grads.flat(), o.logits)
            }
            Params::Sage(p) => {
                let o = sage::step_half(ops, g, p, x, labels, mask, d);
                (o.loss, o.grads.flat(), o.logits)
            }
        }
    }

    /// Adam update of the flat master weights.
    fn adam_step(&mut self, opt: &mut Adam, grads: &[f32]) {
        let mut flat = match self {
            Params::Gcn(p) => p.flat(),
            Params::Gat(p) => p.flat(),
            Params::Sage(p) => p.flat(),
        };
        opt.step(&mut flat, grads);
        match self {
            Params::Gcn(p) => p.set_flat(&flat),
            Params::Gat(p) => p.set_flat(&flat),
            Params::Sage(p) => p.set_flat(&flat),
        }
    }
}

fn tuner(dev: &DeviceConfig, cfg: &TrainConfig) -> Option<Tuner> {
    let t = match &cfg.tuning {
        Tuning::Off => return None,
        Tuning::Auto => Tuner::auto(dev),
        Tuning::Cached(path) => Tuner::cached(dev, path.as_str()),
    };
    Some(t.with_shards(cfg.shards).with_partition(cfg.effective_partition()))
}

fn fullbatch(
    t: &mut Tracer,
    dev: &DeviceConfig,
    data: &LoadedDataset,
    cfg: &TrainConfig,
) -> TracedCall {
    let root = t.enter("call");
    let dev = &dev.clone().with_exec(cfg.exec);
    let g = GraphView::full(&data.adj);
    let classes = pad_feature_len(data.spec.classes, 2);
    let xh = f32_slice_to_half(&data.features);
    let mut params = Params::new(cfg, data.spec.feat, classes);
    let mut opt = Adam::new(params.num_params(), cfg.lr);
    let tuner = tuner(dev, cfg);
    let dist = (cfg.shards > 1).then(|| {
        let ctx = DistCtx::new(&g.csr, cfg.shards, cfg.effective_partition(), cfg.topology);
        match cfg.i8_block {
            Some(b) => ctx.with_i8_bucket(b),
            None => ctx,
        }
    });
    let exec = cfg.replay.then(ExecCtx::capturing);
    let dispatch = match &tuner {
        Some(tu) => Dispatch::tuned(cfg.precision, tu),
        None => Dispatch::untuned(cfg.precision),
    }
    .with_fusion(cfg.fusion)
    .with_dist(dist.as_ref())
    .with_exec(exec.as_ref());

    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut epoch_ms = Vec::with_capacity(cfg.epochs);
    let mut logits = Vec::new();
    for epoch in 0..cfg.epochs {
        let e = t.enter("epoch");
        if let Some(ctx) = &dist {
            ctx.reset_epoch();
        }
        if let Some(ctx) = &exec {
            ctx.begin_epoch();
        }
        let mut ops = Ops::new(dev).with_exec(exec.as_ref());
        ops.loss_scale = cfg.loss_scale;
        overflow::begin();
        quant::begin();
        let s = t.enter("nn.step");
        let d = dispatch.with_quant_seed(cfg.seed ^ epoch as u64);
        let (loss, grads, out) =
            params.step(&mut ops, &g, &xh, &data.labels, &data.split.train, d, cfg);
        t.exit(s);
        t.attach(s, &ops.log);
        let _ = (quant::take(), overflow::take());
        if let Some(ctx) = &exec {
            if epoch == 0 {
                ctx.seal();
            } else {
                ctx.end_epoch();
            }
        }
        t.span("nn.adam", || params.adam_step(&mut opt, &grads));
        losses.push(loss);
        logits = out;
        t.exit(e);
        epoch_ms.push(t.spans[e].dur_us() / 1e3);
    }
    let test_accuracy = t.span("nn.eval", || {
        let _ = Ops::accuracy(&logits, &data.labels, &data.split.train, classes);
        Ops::accuracy(&logits, &data.labels, &data.split.test, classes)
    });
    t.exit(root);
    TracedCall { losses, test_accuracy, epoch_ms, sampled_vertices: 0, stream_epoch: None }
}

fn minibatch(
    t: &mut Tracer,
    dev: &DeviceConfig,
    data: &LoadedDataset,
    cfg: &TrainConfig,
) -> TracedCall {
    let batch_size = cfg.batch_size.expect("mini-batch configuration");
    let root = t.enter("call");
    let dev = &dev.clone().with_exec(cfg.exec);
    let f_in = data.spec.feat;
    let classes = pad_feature_len(data.spec.classes, 2);
    let xh = f32_slice_to_half(&data.features);
    let mut graph = DeltaCsr::new(data.adj.clone());
    let sampler = NeighborSampler::new(cfg.fanout, 2, cfg.seed);
    let train_ids: Vec<VertexId> =
        (0..data.num_vertices() as VertexId).filter(|&v| data.split.train[v as usize]).collect();
    let mut params = Params::new(cfg, f_in, classes);
    let mut opt = Adam::new(params.num_params(), cfg.lr);
    let tuner = tuner(dev, cfg);
    let dispatch = match &tuner {
        Some(tu) => Dispatch::tuned(cfg.precision, tu),
        None => Dispatch::untuned(cfg.precision),
    }
    .with_fusion(cfg.fusion);
    let stream_epoch = (cfg.stream_edges > 0).then_some(cfg.epochs / 2);

    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut epoch_ms = Vec::with_capacity(cfg.epochs);
    let mut sampled_vertices = 0;
    let mut streamed = 0;
    for epoch in 0..cfg.epochs {
        let e = t.enter("epoch");
        if stream_epoch == Some(epoch) {
            streamed =
                t.span("graph.delta_insert", || stream(&mut graph, cfg.stream_edges, cfg.seed));
        }
        let schedule =
            t.span("graph.sample", || sampler.schedule(&train_ids, batch_size, epoch as u64));
        let (mut loss_sum, mut seeds_seen) = (0.0f64, 0usize);
        for (b, seeds) in schedule.iter().enumerate() {
            let salt = ((epoch as u64) << 32) | b as u64;
            let sub = t.span("graph.sample", || sampler.sample(&graph, seeds, salt));
            sampled_vertices += sub.n();
            let (view, labels, mask) = t.span("nn.batch_view", || {
                let labels: Vec<u32> =
                    sub.global_ids.iter().map(|&v| data.labels[v as usize]).collect();
                let mask: Vec<bool> = (0..sub.n()).map(|i| i < sub.n_seeds).collect();
                (GraphView::batch(&sub, epoch, b), labels, mask)
            });
            let mut ops = Ops::new(dev);
            ops.loss_scale = cfg.loss_scale;
            let xb = t.span("tensor.gather", || ops.gather_rows_half(&xh, f_in, &sub.global_ids));
            let logged = ops.log.len();
            overflow::begin();
            quant::begin();
            let s = t.enter("nn.step");
            let d = dispatch.with_quant_seed(cfg.seed ^ salt);
            let (loss, grads, _) = params.step(&mut ops, &view, &xb, &labels, &mask, d, cfg);
            t.exit(s);
            t.attach(s, &ops.log[logged..]);
            let _ = (quant::take(), overflow::take());
            loss_sum += loss as f64 * seeds.len() as f64;
            seeds_seen += seeds.len();
            t.span("nn.adam", || params.adam_step(&mut opt, &grads));
        }
        losses.push((loss_sum / seeds_seen.max(1) as f64) as f32);
        t.exit(e);
        epoch_ms.push(t.spans[e].dur_us() / 1e3);
    }
    // One full-graph forward with the trained weights, on the streamed
    // graph, as the trainer evaluates.
    let test_accuracy = t.span("nn.eval", || {
        let adj = if streamed > 0 { graph.merge() } else { data.adj.clone() };
        let g = GraphView::full(&adj);
        let mut ops = Ops::new(dev);
        ops.loss_scale = cfg.loss_scale;
        let d = Dispatch::untuned(cfg.precision).with_fusion(cfg.fusion);
        let (_, _, logits) =
            params.step(&mut ops, &g, &xh, &data.labels, &data.split.train, d, cfg);
        let _ = Ops::accuracy(&logits, &data.labels, &data.split.train, classes);
        Ops::accuracy(&logits, &data.labels, &data.split.test, classes)
    });
    t.exit(root);
    TracedCall {
        losses,
        test_accuracy,
        epoch_ms,
        sampled_vertices,
        stream_epoch: stream_epoch.filter(|_| streamed > 0),
    }
}

/// Insert up to `count` new undirected edges through the overlay, drawn
/// from a 64-bit LCG keyed by `seed`. Draws that repeat an edge or loop
/// on a vertex are skipped, within a budget of `8 * count` draws.
fn stream(graph: &mut DeltaCsr, count: usize, seed: u64) -> usize {
    let n = graph.num_rows() as u64;
    let mut state = seed ^ 0x5eed_da7a;
    let mut draw = || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % n) as VertexId
    };
    let mut inserted = 0;
    for _ in 0..count * 8 {
        if inserted == count {
            break;
        }
        let (u, v) = (draw(), draw());
        if u != v && graph.insert_undirected(u, v) > 0 {
            inserted += 1;
        }
    }
    inserted
}
