//! Model and precision-mode selection, the kernel dispatch layer that
//! routes a model's operations to the right system's kernels, and the
//! [`Elem`] trait that holds the precision policy: each model's step is
//! written once, generic over `f32` and [`Half`]. The arithmetic of an
//! element is [`Scalar`]'s, so the steps call the dense ops and the GAT
//! edge ops directly; `Elem` keeps the AMP boundary and the ops whose
//! kernel system or wire differs by precision.
//!
//! Every sparse op has one launch body, run through one windowed-launch
//! helper (`Dispatch::launch`). Without a [`DistCtx`] the helper runs the
//! kernel once over the whole graph. With one attached it *shards* the
//! op: each simulated device runs the global kernel tiling clamped to its
//! row (or edge) window, after a metered halo exchange of the remote
//! operand rows, and the per-shard outputs are pasted back into the
//! global tensor. Because windowed launches are bitwise slices of the
//! full launch (see `halfgnn-kernels`), sharded float training is
//! bit-identical to single-device training; sharded half training differs
//! only where the gradient all-reduce genuinely re-quantizes on the f16
//! wire. Per-edge elementwise kernels (LeakyReLU, shadow-exp, row-div,
//! softmax-grad, …) are replicated on every device and never dispatched
//! through a window: their operands already ride along with the feature
//! halos, so they contribute zero additional communication.
//!
//! Every tuned plan — HalfGNN and INT8 SpMM, SDDMM, attention fusion — is
//! resolved in one place too (`Dispatch::plan`): replay reads the next
//! captured plan; otherwise the tuner or the untuned default decides, and
//! capture records the decision.

use crate::dist::DistCtx;
use crate::gat::ATTN_SLOPE;
use crate::graphdata::GraphView;
use halfgnn_exec::{buf_ref, BufRef, ExecCtx};
use halfgnn_graph::partition::Shard;
use halfgnn_half::{Half, Scalar};
use halfgnn_kernels::baseline::cusparse;
use halfgnn_kernels::common::{EdgeWeights, Reduce, ScalePlacement, Tiling};
use halfgnn_kernels::fused;
use halfgnn_kernels::{baseline::dgl_sddmm, baseline::ge_spmm, edge_ops, halfgnn_sddmm};
use halfgnn_kernels::{halfgnn_spmm, quant_spmm};
use halfgnn_sim::KernelStats;
use halfgnn_tensor::Ops;
use halfgnn_tune::plan::{AttnPlan, KernelPlan, SddmmPlan};
use halfgnn_tune::{SpmmPlan, SpmmVariant, Tuner};
use std::borrow::Cow;
use std::cell::OnceCell;
use Part::{Edges, Rows};

/// Which GNN architecture to train.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Graph Convolutional Network (Kipf & Welling), right degree norm.
    Gcn,
    /// Graph Attention Network (Veličković et al.), single head.
    Gat,
    /// Graph Isomorphism Network (Xu et al.).
    Gin,
    /// GraphSAGE with the mean aggregator (Hamilton et al.).
    Sage,
}

impl ModelKind {
    /// CLI tag, also the snapshot header's and the BENCH rows' name.
    pub fn tag(self) -> &'static str {
        match self {
            ModelKind::Gcn => "gcn",
            ModelKind::Gat => "gat",
            ModelKind::Gin => "gin",
            ModelKind::Sage => "sage",
        }
    }

    /// Parse a CLI tag.
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s {
            "gcn" => Some(ModelKind::Gcn),
            "gat" => Some(ModelKind::Gat),
            "gin" => Some(ModelKind::Gin),
            "sage" => Some(ModelKind::Sage),
            _ => None,
        }
    }
}

/// Which system's kernels and numerics a training run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecisionMode {
    /// f32 everywhere — the DGL-float baseline.
    Float,
    /// Half state tensors through DGL/cuSPARSE-style kernels with AMP
    /// promotions — the DGL-half baseline (overflows on hub graphs).
    HalfNaive,
    /// The paper's HalfGNN system: half2/half8 kernels, discretized
    /// reduction scaling, staged writes, shadow APIs.
    HalfGnn,
    /// Ablation (§6.1.1): HalfGNN kernels but post-reduction scaling — the
    /// overflow returns.
    HalfGnnNoDiscretize,
    /// INT8 quantized aggregation and wire: HalfGNN's system with
    /// per-64-element scale-block INT8 SpMM operands under deterministic
    /// stochastic rounding, and a 1 byte/element halo + all-reduce wire.
    /// Quantized plans run only where the f64 oracle is clean; vetoed
    /// sites fall back to the f16 HalfGNN kernels. SDDMM and the dense
    /// path stay f16 — the quantization targets the aggregation
    /// bandwidth, which is where §5's roofline says the bytes are.
    I8,
}

impl PrecisionMode {
    /// CLI tag, also the BENCH rows' name.
    pub fn tag(self) -> &'static str {
        match self {
            PrecisionMode::Float => "float",
            PrecisionMode::HalfNaive => "halfnaive",
            PrecisionMode::HalfGnn => "halfgnn",
            PrecisionMode::HalfGnnNoDiscretize => "nodiscretize",
            PrecisionMode::I8 => "i8",
        }
    }

    /// Parse a CLI tag.
    pub fn parse(s: &str) -> Option<PrecisionMode> {
        match s {
            "float" => Some(PrecisionMode::Float),
            "halfnaive" => Some(PrecisionMode::HalfNaive),
            "halfgnn" => Some(PrecisionMode::HalfGnn),
            "nodiscretize" => Some(PrecisionMode::HalfGnnNoDiscretize),
            "i8" => Some(PrecisionMode::I8),
            _ => None,
        }
    }

    /// True for any mode whose state tensors are half precision.
    pub fn is_half(self) -> bool {
        !matches!(self, PrecisionMode::Float)
    }

    /// Scaling placement of this mode's HalfGNN SpMM when the aggregation
    /// carries a per-row scale (half modes only). This is a *correctness*
    /// property of the mode — never a tuning knob.
    fn scaling(self) -> ScalePlacement {
        match self {
            PrecisionMode::HalfGnn | PrecisionMode::I8 => ScalePlacement::Discretized,
            PrecisionMode::HalfGnnNoDiscretize => ScalePlacement::PostReduction,
            _ => unreachable!("scaling placement is only for HalfGNN modes"),
        }
    }
}

/// How a training run dispatches its sparse kernels: the precision mode
/// (which kernel *system* runs) plus an optional autotuner (which *plan*
/// each HalfGNN kernel runs with) plus an optional sharded-execution
/// context (how many simulated devices run it, and over which
/// interconnect). With no tuner attached every dispatch uses the untuned
/// default plan; with no `dist` attached every dispatch is one
/// single-device launch — both bit-for-bit identical to the simpler
/// trainer they generalize.
#[derive(Clone, Copy)]
pub struct Dispatch<'t> {
    /// Kernel system / numerics.
    pub mode: PrecisionMode,
    /// Kernel-plan autotuner, when `TrainConfig::tuning` is not `Off`.
    pub tuner: Option<&'t Tuner>,
    /// Force the fused attention pipeline on (`--fusion`). When false the
    /// fused kernels remain reachable only through tuner selection, so an
    /// untuned dispatch stays bit-for-bit on the unfused chain.
    pub fusion: bool,
    /// Sharded-execution context, when `TrainConfig::shards > 1`. `None`
    /// runs single-device launches — bit-for-bit the pre-sharding trainer.
    pub dist: Option<&'t DistCtx>,
    /// Capture/replay context (`--replay`). While capturing, every plan
    /// resolution and kernel launch records into the execution graph;
    /// while replaying, plans come back from the captured stream with zero
    /// tuner lookups.
    pub exec: Option<&'t ExecCtx>,
    /// Force every SpMM onto a specific skeleton, overriding both the
    /// untuned default and the tuner's pick. Serving sets
    /// `VertexParallel`: its neighbor groups never cross rows, so a row's
    /// f32/f16 summation order depends only on that row — which is what
    /// makes a coalesced batch bitwise-equal to serving each request
    /// alone. The edge-parallel skeletons cut rows at warp-tile
    /// boundaries derived from *global* edge offsets, so their partial
    /// sums shift with batch composition.
    pub force_spmm: Option<SpmmVariant>,
    /// Seed for INT8 stochastic rounding (`PrecisionMode::I8` only).
    /// Quantization is a pure function of `(seed, site, index)`; the
    /// trainer re-keys this per epoch so rounding errors decorrelate
    /// across steps while every run stays reproducible.
    pub quant_seed: u64,
}

impl Dispatch<'static> {
    /// Dispatch with default plans only (`tuning: Off`).
    pub fn untuned(mode: PrecisionMode) -> Dispatch<'static> {
        Dispatch {
            mode,
            tuner: None,
            fusion: false,
            dist: None,
            exec: None,
            force_spmm: None,
            quant_seed: 0,
        }
    }
}

impl<'t> Dispatch<'t> {
    /// Dispatch through a tuner (`tuning: Auto` / `Cached`).
    pub fn tuned(mode: PrecisionMode, tuner: &'t Tuner) -> Dispatch<'t> {
        Dispatch { tuner: Some(tuner), ..Dispatch::untuned(mode) }
    }

    /// Explicitly force (or forbid forcing) the fused attention pipeline.
    pub fn with_fusion(mut self, fusion: bool) -> Dispatch<'t> {
        self.fusion = fusion;
        self
    }

    /// Attach (or detach) a sharded-execution context.
    pub fn with_dist(mut self, dist: Option<&'t DistCtx>) -> Dispatch<'t> {
        self.dist = dist;
        self
    }

    /// Attach (or detach) a capture/replay context.
    pub fn with_exec(mut self, exec: Option<&'t ExecCtx>) -> Dispatch<'t> {
        self.exec = exec;
        self
    }

    /// Pin every SpMM to the per-row-independent vertex-parallel skeleton
    /// (see [`Dispatch::force_spmm`]). `false` restores default routing.
    pub fn with_vertex_parallel_spmm(mut self, on: bool) -> Dispatch<'t> {
        self.force_spmm = on.then_some(SpmmVariant::VertexParallel);
        self
    }

    /// Re-key INT8 stochastic rounding (no effect outside
    /// [`PrecisionMode::I8`]).
    pub fn with_quant_seed(mut self, seed: u64) -> Dispatch<'t> {
        self.quant_seed = seed;
        self
    }

    /// The one launch path of every windowed sparse op. Without a
    /// [`DistCtx`], `kernel` runs once over the whole graph and its own
    /// outputs come back. With one, each shard exchanges `halo`'s remote
    /// rows (`halo` is the column-indexed operand and its width), launches
    /// its `win` window, logs the compute on its device, and pastes its
    /// `parts` of the outputs (`f`-wide rows or edges) into global tensors.
    /// Windowed launches are bitwise slices of the full launch, so the
    /// pasted tensors are the single-device outputs exactly.
    #[allow(clippy::too_many_arguments)]
    fn launch<E: Scalar, const K: usize>(
        &self,
        ops: &mut Ops,
        g: &GraphView,
        op: &'static str,
        ins: &[BufRef],
        halo: Option<(&[E], usize)>,
        win: Part,
        parts: [(Part, usize); K],
        mut kernel: impl FnMut(&mut Ops, (usize, usize)) -> ([Vec<E>; K], KernelStats),
    ) -> [Vec<E>; K] {
        let mut run = |ops: &mut Ops, shard: Option<&Shard>| {
            let w = win.range(g, shard);
            let (ys, stats) = kernel(ops, w);
            if let (Some(ctx), Some(s)) = (self.dist, shard) {
                ctx.log_compute(s.index, stats.time_us);
            }
            ops.record(stats);
            if let Some(ctx) = self.exec {
                ctx.record_node(op, ins, &ys.each_ref().map(|y| buf_ref(y)), shard.map(|_| w));
            }
            ys
        };
        let Some(ctx) = self.dist else { return run(ops, None) };
        let mut out = parts.map(|(part, f)| vec![E::default(); part.range(g, None).1 * f]);
        for shard in &ctx.plan.shards {
            // The halo's one wire choice: INT8 under `PrecisionMode::I8`,
            // otherwise the operand's own precision — f32 for the float
            // pipeline, f16 for every other half mode. The gathered wire
            // buffers are only charged: kernels read `x`.
            match halo {
                Some((x, f)) if self.mode == PrecisionMode::I8 => {
                    ctx.exchange_halo_i8(ops, x, f, shard, self.quant_seed)
                }
                Some((x, f)) => drop(ctx.exchange_halo(ops, x, f, shard)),
                None => {}
            }
            let ys = run(ops, Some(shard));
            for ((o, y), (part, f)) in out.iter_mut().zip(&ys).zip(parts) {
                let (lo, hi) = part.range(g, Some(shard));
                o[lo * f..hi * f].copy_from_slice(&y[lo * f..hi * f]);
            }
        }
        out
    }

    /// The one plan-resolution point: HalfGNN and INT8 SpMM, SDDMM and
    /// attention fusion all resolve here. Replay reads the next captured
    /// plan with zero tuner lookups; otherwise `resolve` asks the tuner or
    /// takes the untuned default, and capture records what it picked.
    fn plan(&self, resolve: impl FnOnce() -> KernelPlan) -> KernelPlan {
        if let Some(ctx) = self.exec.filter(|ctx| ctx.is_replaying()) {
            return ctx.next_plan();
        }
        let plan = resolve();
        if let Some(ctx) = self.exec {
            ctx.record_plan(plan);
        }
        plan
    }

    /// Whether GAT's attention chain runs the fused single-pass kernels
    /// for `f`-wide features over this graph. Explicit `fusion` config
    /// wins; otherwise the tuner decides per graph shape; with neither,
    /// the unfused five-kernel chain (bit-for-bit pre-fusion behavior).
    /// Baseline modes and odd `f` (the fused kernel is half2-padded)
    /// never fuse.
    pub fn attn_fused(&self, g: &GraphView, f: usize) -> bool {
        let halfgnn =
            matches!(self.mode, PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize);
        if !halfgnn || !f.is_multiple_of(2) {
            return false;
        }
        // The plan is resolved after the early returns so the plan stream
        // pairs up launch-for-launch across epochs.
        match self.plan(|| {
            let fused = self.fusion || self.tuner.is_some_and(|t| t.attn_plan(&g.csr, f).fused);
            KernelPlan::Attn(AttnPlan { fused })
        }) {
            KernelPlan::Attn(p) => p.fused,
            other => diverged("attn", other),
        }
    }
}

impl<'t> From<PrecisionMode> for Dispatch<'t> {
    fn from(mode: PrecisionMode) -> Dispatch<'t> {
        Dispatch::untuned(mode)
    }
}

/// A replayed plan of the wrong kind for its dispatch site: the epoch's
/// launch sequence left the captured one.
fn diverged(want: &str, got: KernelPlan) -> ! {
    panic!("replay diverged from captured graph: wanted {want}, got {got:?}")
}

/// The global range one windowed launch owns: rows, or the edges those
/// rows own (shards own contiguous row ranges, so their edge ranges are
/// exactly the CSR slices of those rows).
#[derive(Clone, Copy)]
enum Part {
    Rows,
    Edges,
}

impl Part {
    /// `shard`'s range, or the whole graph's without one.
    fn range(self, g: &GraphView, shard: Option<&Shard>) -> (usize, usize) {
        match self {
            Rows => shard.map_or((0, g.n()), |s| s.row_range),
            Edges => shard.map_or((0, g.nnz()), |s| s.edge_range),
        }
    }
}

/// A one-output kernel's result in [`Dispatch::launch`]'s shape.
fn one<T>((y, stats): (Vec<T>, KernelStats)) -> ([Vec<T>; 1], KernelStats) {
    ([y], stats)
}

/// GCN degree-norm placement (§3.1.3 discusses all three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcnNorm {
    /// Divide the SpMM *output* by the degree — the "frequently used"
    /// variant whose forward reduction overflows under naive half.
    Right,
    /// Divide the SpMM *input* by the degree: the forward never overflows,
    /// "however, during backward computation the degree-norm happens after
    /// SpMMv, where it is likely to overflow" (§3.1.3).
    Left,
    /// Divide input and output by √degree (Eq. 2's symmetric norm).
    Both,
}

/// Record a kernel's stats into `ops` and return its output.
pub(crate) fn record<T>(ops: &mut Ops, (y, stats): (Vec<T>, KernelStats)) -> Vec<T> {
    ops.record(stats);
    y
}

/// Capture inputs of an SpMM launch: features, then the edge weights and
/// row scale when present.
fn spmm_inputs<T>(x: &[T], w: Option<&[T]>, row_scale: Option<&[T]>) -> Vec<BufRef> {
    [Some(x), w, row_scale].into_iter().flatten().map(buf_ref).collect()
}

/// One windowed half SpMM launch under the mode's kernel system. HalfGNN
/// runs the tuner's plan, or the untuned default without a tuner (keeping
/// `tuning: Off` runs bit-identical to the pre-tuner trainer); the plan
/// picks write strategy, tile geometry and the edge- vs vertex-parallel
/// skeleton, while `scaling` stays the mode's decision. INT8 runs the
/// quantized kernel where the f64 oracle found a clean (no divergence, no
/// saturation) candidate; where every candidate was oracle-dirty it
/// resolves an f16 plan and runs the HalfGNN kernel instead. The fallback
/// decision is captured, so replay never re-tunes a vetoed site back onto
/// the quantized path. The op's INT8 operands are quantized into
/// `operands` by its first quantized window and read by every later one.
#[allow(clippy::too_many_arguments)]
fn spmm_half_window(
    ops: &mut Ops,
    g: &GraphView,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    d: Dispatch<'_>,
    operands: &OnceCell<quant_spmm::I8Operands>,
    win: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    match d.mode {
        PrecisionMode::HalfNaive => {
            return cusparse::spmm_half_window(ops.dev, &g.coo, w, x, f, row_scale, win)
        }
        PrecisionMode::Float => unreachable!("float path uses the f32 dispatch"),
        PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize | PrecisionMode::I8 => {}
    }
    // A per-row scale means mean-style aggregation: its placement is the
    // mode's correctness property. A plain sum never scales.
    let scaling = if row_scale.is_some() { d.mode.scaling() } else { ScalePlacement::None };
    let weighted = !w.is_ones();
    let plan = d.plan(|| {
        let mut plan = match (d.mode, d.tuner) {
            // INT8's untuned geometry: its one vertex-parallel skeleton at
            // the paper-default group size (candidate #0 of
            // `spmm_i8_candidates`).
            (PrecisionMode::I8, None) => {
                let vp = SpmmPlan { variant: SpmmVariant::VertexParallel, ..SpmmPlan::default() };
                return KernelPlan::SpmmI8(vp);
            }
            (PrecisionMode::I8, Some(t)) => {
                match t.spmm_i8_plan(&g.csr, f, weighted, d.quant_seed) {
                    Some(p) => return KernelPlan::SpmmI8(p),
                    None => SpmmPlan::default(),
                }
            }
            (_, Some(t)) => t.spmm_plan(&g.csr, f, weighted, scaling),
            (_, None) => SpmmPlan::default(),
        };
        // A forced skeleton overrides both default and tuned routing (and
        // is recorded, so replay reproduces the forced variant).
        if let Some(v) = d.force_spmm {
            plan.variant = v;
        }
        KernelPlan::Spmm(plan)
    });
    match plan {
        KernelPlan::SpmmI8(p) if d.mode == PrecisionMode::I8 => {
            let t = Tiling { edges_per_warp: p.edges_per_warp, warps_per_cta: p.warps_per_cta };
            let q =
                operands.get_or_init(|| quant_spmm::I8Operands::new(&g.csr, w, x, f, d.quant_seed));
            quant_spmm::spmm_i8_window(ops.dev, &g.csr, q, f, row_scale, t, win)
        }
        KernelPlan::Spmm(p) => match p.variant {
            SpmmVariant::EdgeParallel => halfgnn_spmm::spmm_window(
                ops.dev,
                &g.coo,
                w,
                x,
                f,
                row_scale,
                &p.to_spmm_config(scaling),
                win,
            ),
            // The canonical COO edge order equals CSR order, so edge-weight
            // tensors remain valid under the vertex-parallel skeleton.
            SpmmVariant::VertexParallel => halfgnn_spmm::spmm_vertex_parallel_window(
                ops.dev, &g.csr, w, x, f, row_scale, scaling, win,
            ),
        },
        other => diverged("spmm", other),
    }
}

/// One windowed half SDDMM launch under the mode's kernel system, with
/// the plan resolved by the tuner when one is attached and by
/// [`SddmmConfig::widest_for`] (the paper's widest-legal-width rule)
/// otherwise.
///
/// [`SddmmConfig::widest_for`]: halfgnn_kernels::halfgnn_sddmm::SddmmConfig::widest_for
fn sddmm_half_window(
    ops: &mut Ops,
    g: &GraphView,
    u: &[Half],
    v: &[Half],
    f: usize,
    d: Dispatch<'_>,
    win: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    match d.mode {
        PrecisionMode::HalfNaive => dgl_sddmm::sddmm_half_window(ops.dev, &g.coo, u, v, f, win),
        // I8 keeps SDDMM in f16: the dot products are per-edge (no long
        // reductions to quantize) and the operands already rode the INT8
        // halo wire — re-quantizing them buys no bytes.
        PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize | PrecisionMode::I8 => {
            // `default_for` round-trips `widest_for` exactly, so the
            // captured plan replays bit-identically.
            let plan = match d.plan(|| {
                KernelPlan::Sddmm(match d.tuner {
                    Some(t) => t.sddmm_plan(&g.csr, f),
                    None => SddmmPlan::default_for(f),
                })
            }) {
                KernelPlan::Sddmm(p) => p,
                other => diverged("sddmm", other),
            };
            halfgnn_sddmm::sddmm_window(ops.dev, &g.coo, u, v, f, &plan.to_sddmm_config(), win)
        }
        PrecisionMode::Float => unreachable!("float path uses the f32 dispatch"),
    }
}

// ---------------------------------------------------------------------
// The precision policy. Each model's step is written once over
// `E: Elem`; the two impls below hold what differs between the
// DGL-float baseline and the half modes beyond the element arithmetic
// itself, which `Scalar` owns.
// ---------------------------------------------------------------------

/// The element type of a step's state tensors — `f32` for the DGL-float
/// baseline, [`Half`] for every half mode. How an element computes,
/// rounds, names and charges an op is [`Scalar`]'s, so the dense ops
/// (`Ops::gemm`, `Ops::relu`, …) and the GAT edge ops (`edge_ops::*`,
/// [`edge_reduce`], `sub_row_exp`) are called directly, once, for both.
/// `Elem` holds only what genuinely differs by precision:
///
/// * the AMP boundary (Micikevicius et al.): casting the f32 master
///   weights, promoting the logits to the f32 loss, loss scaling, and
///   returning weight gradients to the f32 master domain;
/// * the ops whose kernel *system* or wire differs: cuSPARSE/DGL-float
///   against the half systems the [`Dispatch`]'s mode picks from, the
///   f32 against the f16/INT8 gradient all-reduce, and the fused
///   attention kernels only HalfGNN has.
///
/// `f32` casts nothing, charges no conversion, ignores
/// `Ops::loss_scale` and never fuses.
pub trait Elem: Scalar {
    /// Feature widths must be multiples of this (half2 packing).
    const LANES: usize;
    /// The graph's per-row mean scale `1/deg`.
    fn mean_scale(g: &GraphView) -> &[Self];
    /// The graph's per-row symmetric-norm scale `1/√deg`.
    fn inv_sqrt_scale(g: &GraphView) -> &[Self];

    /// An f32 master weight as the step reads it. Steps take every
    /// weight, in parameter order, before layer 1.
    fn weight<'w>(ops: &mut Ops, w: &'w [f32]) -> Cow<'w, [Self]>;
    /// The last layer's output as the f32 logits the loss runs on (AMP
    /// promotes the loss; a charged conversion in half).
    fn logits(ops: &mut Ops, out: Vec<Self>) -> Vec<f32>;
    /// The loss gradient entering the backward pass. Half multiplies it
    /// by `ops.loss_scale` so small per-vertex gradients survive the f2h
    /// cast; weight gradients are unscaled before the master update.
    fn loss_grad(ops: &mut Ops, dlogits: Vec<f32>) -> Vec<Self>;
    /// A weight gradient in the f32 master domain, still loss-scaled.
    fn master_grad(ops: &mut Ops, grad: Vec<Self>) -> Vec<f32>;
    /// Divide master-domain gradients by the loss scale, in order.
    fn unscale<'g>(ops: &mut Ops, grads: impl IntoIterator<Item = &'g mut Vec<f32>>);

    /// SpMM over Â with edge weights `w` (SpMMve) or ones (SpMMv) and an
    /// optional per-row scale (mean-style aggregation). One launch, or —
    /// with a [`DistCtx`] attached — per-shard halo exchange + windowed
    /// launch + paste.
    fn spmm(
        ops: &mut Ops,
        g: &GraphView,
        w: Option<&[Self]>,
        x: &[Self],
        f: usize,
        row_scale: Option<&[Self]>,
        d: Dispatch<'_>,
    ) -> Vec<Self>;
    /// `D⁻¹Â·x` with the degree norm after the reduction — GCN left
    /// norm's adjoint, where §3.1.3 places the backward overflow. Float
    /// runs DGL's sum then a row-scale kernel. Half runs it as the mean
    /// aggregation it is: the naive kernel sums then post-scales
    /// (overflow), HalfGNN discretizes it.
    fn left_norm_adjoint(
        ops: &mut Ops,
        g: &GraphView,
        x: &[Self],
        f: usize,
        d: Dispatch<'_>,
    ) -> Vec<Self>;
    /// SDDMM `dot(u_i, v_j)` per edge. `u` is row-indexed (shard-local);
    /// `v` is column-indexed, so sharded runs halo-exchange it.
    fn sddmm(
        ops: &mut Ops,
        g: &GraphView,
        u: &[Self],
        v: &[Self],
        f: usize,
        d: Dispatch<'_>,
    ) -> Vec<Self>;
    /// Weight gradient `AᵀB` contracted over vertices (`A: n×m`,
    /// `B: n×c`). A sharded device holds only the rows it owns, so the
    /// full gradient is the all-reduce of per-shard partials: half moves
    /// them over the f16 (or INT8) wire with discretized per-bucket
    /// scaling, overflow-free by construction; float computes the exact
    /// global GEMM and charges only the f32 wire, so sharded float
    /// training stays bit-identical.
    fn grad_gemm(
        ops: &mut Ops,
        a: &[Self],
        b: &[Self],
        m: usize,
        n: usize,
        c: usize,
        d: Dispatch<'_>,
    ) -> Vec<Self>;
    /// Bias gradient: column sums over vertices, accumulated in f32 (AMP
    /// promotes the sum) and all-reduced like [`Elem::grad_gemm`].
    fn grad_colsum(ops: &mut Ops, x: &[Self], c: usize, d: Dispatch<'_>) -> Vec<f32>;

    /// GAT's fused attention forward `[e, α, out]`: SDDMM, edge softmax
    /// and SpMM in one pass. `None` when the dispatch runs the unfused
    /// chain for `f`-wide features — always, unless overridden: only the
    /// HalfGNN modes fuse.
    fn fused_attn_forward(
        _ops: &mut Ops,
        _g: &GraphView,
        _s_dst: &[Self],
        _s_src: &[Self],
        _z: &[Self],
        _f: usize,
        _d: Dispatch<'_>,
    ) -> Option<[Vec<Self>; 3]> {
        None
    }
    /// GAT's fused edge-softmax backward `δe`, or `None` when unfused.
    fn fused_softmax_grad(
        _ops: &mut Ops,
        _g: &GraphView,
        _alpha: &[Self],
        _da: &[Self],
        _e: &[Self],
        _f: usize,
        _d: Dispatch<'_>,
    ) -> Option<Vec<Self>> {
        None
    }
}

/// SpMMv with mean (right degree-norm) aggregation.
pub fn spmm_mean<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    x: &[E],
    f: usize,
    d: Dispatch<'_>,
) -> Vec<E> {
    E::spmm(ops, g, None, x, f, Some(E::mean_scale(g)), d)
}

/// SpMMv, plain sum (GIN's default aggregation; backward passes).
pub fn spmm_sum<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    x: &[E],
    f: usize,
    d: Dispatch<'_>,
) -> Vec<E> {
    E::spmm(ops, g, None, x, f, None, d)
}

/// SpMMve (weighted sum — GAT's attention aggregation; the attention
/// weights are normalized, so no degree scaling is needed).
pub fn spmmve<E: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    w: &[E],
    x: &[E],
    f: usize,
    d: Dispatch<'_>,
) -> Vec<E> {
    E::spmm(ops, g, Some(w), x, f, None, d)
}

/// Per-row reduction of an edge tensor (softmax max/denominator).
/// Edges live with the rows that own them: no halo when sharded.
pub fn edge_reduce<E: Scalar>(
    ops: &mut Ops,
    g: &GraphView,
    w: &[E],
    op: Reduce,
    d: Dispatch<'_>,
) -> Vec<E> {
    let name = E::pick("edge_reduce_half", "edge_reduce_f32");
    let [y] = d.launch(ops, g, name, &[buf_ref(w)], None, Rows, [(Rows, 1)], |ops, win| {
        one(halfgnn_spmm::edge_reduce_window(ops.dev, &g.coo, w, op, win))
    });
    y
}

/// `exp(e − m[row])`. Half runs the shadow API (§5.3), legal because the
/// argument is ≤ 0, except under `HalfNaive`, which pays AMP's promotion
/// to float with a tensor round trip (§3.1.2).
pub(crate) fn sub_row_exp<E: Scalar>(
    ops: &mut Ops,
    g: &GraphView,
    e: &[E],
    m: &[E],
    d: Dispatch<'_>,
) -> Vec<E> {
    let shadow = d.mode != PrecisionMode::HalfNaive;
    let y = record(ops, edge_ops::sub_row_exp(ops.dev, &g.coo, e, m, shadow));
    if !shadow {
        // The AMP path materialized float tensors: count the conversions.
        ops.tensor_conversions += 2;
        ops.converted_elems += 2 * g.nnz() as u64;
    }
    y
}

/// The DGL-float baseline: cuSPARSE SpMM (mean aggregation post-scales,
/// as DGL does), DGL's SDDMM, the f32 gradient wire.
impl Elem for f32 {
    const LANES: usize = 1;

    fn mean_scale(g: &GraphView) -> &[f32] {
        &g.mean_scale_f
    }

    fn inv_sqrt_scale(g: &GraphView) -> &[f32] {
        &g.inv_sqrt_scale_f
    }

    fn weight<'w>(_: &mut Ops, w: &'w [f32]) -> Cow<'w, [f32]> {
        Cow::Borrowed(w)
    }

    fn logits(_: &mut Ops, out: Vec<f32>) -> Vec<f32> {
        out
    }

    fn loss_grad(_: &mut Ops, dlogits: Vec<f32>) -> Vec<f32> {
        dlogits
    }

    fn master_grad(_: &mut Ops, grad: Vec<f32>) -> Vec<f32> {
        grad
    }

    fn unscale<'g>(_: &mut Ops, _: impl IntoIterator<Item = &'g mut Vec<f32>>) {}

    fn spmm(
        ops: &mut Ops,
        g: &GraphView,
        w: Option<&[f32]>,
        x: &[f32],
        f: usize,
        row_scale: Option<&[f32]>,
        d: Dispatch<'_>,
    ) -> Vec<f32> {
        let ins = spmm_inputs(x, w, row_scale);
        let w = w.map_or(EdgeWeights::Ones, EdgeWeights::Values);
        // The forced vertex-parallel skeleton (serving, single-device
        // only) runs the GE-SpMM row-per-warp kernel: each row reduces its
        // own neighbors in column order, so output bits are independent of
        // which other rows share the launch. Degree norm becomes a
        // post-reduction row scale, same placement as the cuSPARSE path.
        // (Weighted SpMMve — GAT — keeps the edge-tiled kernel; serving
        // only dispatches unweighted GCN aggregation.)
        let ge =
            d.dist.is_none() && d.force_spmm == Some(SpmmVariant::VertexParallel) && w.is_ones();
        let halo = Some((x, f));
        let [y] = d.launch(ops, g, "spmm_f32", &ins, halo, Rows, [(Rows, f)], |ops, win| {
            if !ge {
                return one(cusparse::spmm_float_window(ops.dev, &g.coo, w, x, f, row_scale, win));
            }
            let (mut y, stats) = ge_spmm::spmm_float(ops.dev, &g.csr, x, f);
            if let Some(scale) = row_scale {
                for (r, &sc) in scale.iter().enumerate() {
                    for v in &mut y[r * f..(r + 1) * f] {
                        *v *= sc;
                    }
                }
            }
            ([y], stats)
        });
        y
    }

    fn left_norm_adjoint(
        ops: &mut Ops,
        g: &GraphView,
        x: &[f32],
        f: usize,
        d: Dispatch<'_>,
    ) -> Vec<f32> {
        let summed = spmm_sum(ops, g, x, f, d);
        ops.row_scale(&summed, &g.mean_scale_f, f)
    }

    fn sddmm(
        ops: &mut Ops,
        g: &GraphView,
        u: &[f32],
        v: &[f32],
        f: usize,
        d: Dispatch<'_>,
    ) -> Vec<f32> {
        let ins = [buf_ref(u), buf_ref(v)];
        let halo = Some((v, f));
        let [y] = d.launch(ops, g, "sddmm_f32", &ins, halo, Edges, [(Edges, 1)], |ops, win| {
            one(dgl_sddmm::sddmm_float_window(ops.dev, &g.coo, u, v, f, win))
        });
        y
    }

    fn grad_gemm(
        ops: &mut Ops,
        a: &[f32],
        b: &[f32],
        m: usize,
        n: usize,
        c: usize,
        d: Dispatch<'_>,
    ) -> Vec<f32> {
        let y = ops.gemm(a, true, b, false, m, n, c);
        if let Some(ctx) = d.dist {
            ctx.charge_allreduce_f32(y.len());
        }
        y
    }

    fn grad_colsum(ops: &mut Ops, x: &[f32], c: usize, d: Dispatch<'_>) -> Vec<f32> {
        let y = ops.colsum(x, c);
        if let Some(ctx) = d.dist {
            ctx.charge_allreduce_f32(y.len());
        }
        y
    }
}

/// Every half mode: the [`Dispatch`]'s mode picks DGL/cuSPARSE-f16,
/// HalfGNN or INT8 kernels per op; the AMP boundary casts and scales.
impl Elem for Half {
    const LANES: usize = 2;

    fn mean_scale(g: &GraphView) -> &[Half] {
        &g.mean_scale_h
    }

    fn inv_sqrt_scale(g: &GraphView) -> &[Half] {
        &g.inv_sqrt_scale_h
    }

    fn weight<'w>(ops: &mut Ops, w: &'w [f32]) -> Cow<'w, [Half]> {
        Cow::Owned(ops.to_half(w))
    }

    fn logits(ops: &mut Ops, out: Vec<Half>) -> Vec<f32> {
        ops.to_f32(&out)
    }

    fn loss_grad(ops: &mut Ops, mut dlogits: Vec<f32>) -> Vec<Half> {
        let loss_scale = ops.loss_scale;
        if loss_scale != 1.0 {
            for g in dlogits.iter_mut() {
                *g *= loss_scale;
            }
        }
        ops.to_half(&dlogits)
    }

    fn master_grad(ops: &mut Ops, grad: Vec<Half>) -> Vec<f32> {
        ops.to_f32(&grad)
    }

    fn unscale<'g>(ops: &mut Ops, grads: impl IntoIterator<Item = &'g mut Vec<f32>>) {
        for g in grads {
            ops.unscale_grad(g);
        }
    }

    fn spmm(
        ops: &mut Ops,
        g: &GraphView,
        w: Option<&[Half]>,
        x: &[Half],
        f: usize,
        row_scale: Option<&[Half]>,
        d: Dispatch<'_>,
    ) -> Vec<Half> {
        let ins = spmm_inputs(x, w, row_scale);
        let w = w.map_or(EdgeWeights::Ones, EdgeWeights::Values);
        let halo = Some((x, f));
        let operands = OnceCell::new();
        let [y] = d.launch(ops, g, "spmm_half", &ins, halo, Rows, [(Rows, f)], |ops, win| {
            one(spmm_half_window(ops, g, w, x, f, row_scale, d, &operands, win))
        });
        y
    }

    fn left_norm_adjoint(
        ops: &mut Ops,
        g: &GraphView,
        x: &[Half],
        f: usize,
        d: Dispatch<'_>,
    ) -> Vec<Half> {
        spmm_mean(ops, g, x, f, d)
    }

    fn sddmm(
        ops: &mut Ops,
        g: &GraphView,
        u: &[Half],
        v: &[Half],
        f: usize,
        d: Dispatch<'_>,
    ) -> Vec<Half> {
        let ins = [buf_ref(u), buf_ref(v)];
        let halo = Some((v, f));
        let [y] = d.launch(ops, g, "sddmm_half", &ins, halo, Edges, [(Edges, 1)], |ops, win| {
            one(sddmm_half_window(ops, g, u, v, f, d, win))
        });
        y
    }

    fn grad_gemm(
        ops: &mut Ops,
        a: &[Half],
        b: &[Half],
        m: usize,
        n: usize,
        c: usize,
        d: Dispatch<'_>,
    ) -> Vec<Half> {
        let Some(ctx) = d.dist else { return ops.gemm(a, true, b, false, m, n, c) };
        let partials: Vec<Vec<Half>> = ctx
            .plan
            .shards
            .iter()
            .map(|s| {
                let (r0, r1) = s.row_range;
                ops.gemm(&a[r0 * m..r1 * m], true, &b[r0 * c..r1 * c], false, m, r1 - r0, c)
            })
            .collect();
        if d.mode == PrecisionMode::I8 {
            ctx.allreduce_grad_i8(ops, &partials, d.quant_seed)
        } else {
            ctx.allreduce_grad_half(ops, &partials)
        }
    }

    fn grad_colsum(ops: &mut Ops, x: &[Half], c: usize, d: Dispatch<'_>) -> Vec<f32> {
        let Some(ctx) = d.dist else { return ops.colsum(x, c) };
        let partials: Vec<Vec<f32>> = ctx
            .plan
            .shards
            .iter()
            .map(|s| {
                let (r0, r1) = s.row_range;
                ops.colsum(&x[r0 * c..r1 * c], c)
            })
            .collect();
        if d.mode == PrecisionMode::I8 {
            ctx.allreduce_f32_on_i8_wire(ops, &partials, d.quant_seed)
        } else {
            ctx.allreduce_f32_on_f16_wire(ops, &partials)
        }
    }

    /// Sharded runs halo-exchange `z` once for the whole fused pass — the
    /// fusion win carries over to the wire: one exchange instead of the
    /// unfused chain's two (SDDMM + SpMMve).
    fn fused_attn_forward(
        ops: &mut Ops,
        g: &GraphView,
        s_dst: &[Half],
        s_src: &[Half],
        z: &[Half],
        f: usize,
        d: Dispatch<'_>,
    ) -> Option<[Vec<Half>; 3]> {
        if !d.attn_fused(g, f) {
            return None;
        }
        let ins = [buf_ref(s_dst), buf_ref(s_src), buf_ref(z)];
        let parts = [(Edges, 1), (Edges, 1), (Rows, f)];
        let halo = Some((z, f));
        Some(d.launch(ops, g, "fused_attn_forward", &ins, halo, Rows, parts, |ops, win| {
            let (y, stats) = fused::fused_attn_forward_window(
                ops.dev, &g.coo, s_dst, s_src, ATTN_SLOPE, z, f, win,
            );
            ([y.e, y.alpha, y.out], stats)
        }))
    }

    /// All operands are edge tensors (local to the shard that owns the
    /// rows), so sharded runs are windowed launches with zero
    /// communication.
    fn fused_softmax_grad(
        ops: &mut Ops,
        g: &GraphView,
        alpha: &[Half],
        da: &[Half],
        e: &[Half],
        f: usize,
        d: Dispatch<'_>,
    ) -> Option<Vec<Half>> {
        if !d.attn_fused(g, f) {
            return None;
        }
        let ins = [buf_ref(alpha), buf_ref(da), buf_ref(e)];
        let [y] =
            d.launch(ops, g, "fused_softmax_grad", &ins, None, Rows, [(Edges, 1)], |ops, win| {
                one(fused::fused_softmax_grad_window(
                    ops.dev, &g.coo, alpha, da, e, ATTN_SLOPE, win,
                ))
            });
        Some(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_graph::partition::PartitionStrategy;
    use halfgnn_graph::Csr;
    use halfgnn_sim::interconnect::Topology;
    use halfgnn_sim::DeviceConfig;

    fn prep() -> GraphView {
        let csr = Csr::from_edges(6, 6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
            .symmetrized_with_self_loops();
        GraphView::full(&csr)
    }

    #[test]
    fn model_and_precision_tags_round_trip() {
        let models = [ModelKind::Gcn, ModelKind::Gat, ModelKind::Gin, ModelKind::Sage];
        let tags: Vec<&str> = models.iter().map(|m| m.tag()).collect();
        assert_eq!(tags, ["gcn", "gat", "gin", "sage"]);
        for m in models {
            assert_eq!(ModelKind::parse(m.tag()), Some(m));
        }
        let modes = [
            PrecisionMode::Float,
            PrecisionMode::HalfNaive,
            PrecisionMode::HalfGnn,
            PrecisionMode::HalfGnnNoDiscretize,
            PrecisionMode::I8,
        ];
        let tags: Vec<&str> = modes.iter().map(|p| p.tag()).collect();
        assert_eq!(tags, ["float", "halfnaive", "halfgnn", "nodiscretize", "i8"]);
        for p in modes {
            assert_eq!(PrecisionMode::parse(p.tag()), Some(p));
        }
        assert_eq!(ModelKind::parse("GCN"), None);
        assert_eq!(PrecisionMode::parse("half"), None);
    }

    #[test]
    fn half_dispatch_runs_all_modes() {
        let dev = DeviceConfig::a100_like();
        let g = prep();
        let x = vec![Half::from_f32(0.5); g.n() * 4];
        for mode in
            [PrecisionMode::HalfNaive, PrecisionMode::HalfGnn, PrecisionMode::HalfGnnNoDiscretize]
        {
            let mut ops = Ops::new(&dev);
            let y = spmm_mean(&mut ops, &g, &x, 4, mode.into());
            assert_eq!(y.len(), g.n() * 4);
            // Mean of constant 0.5 is 0.5 whatever the kernel.
            assert!((y[0].to_f32() - 0.5).abs() < 0.01, "{mode:?}: {}", y[0]);
            assert!(ops.kernel_count() >= 1);
        }
    }

    #[test]
    fn float_and_half_dispatch_agree() {
        let dev = DeviceConfig::a100_like();
        let g = prep();
        let xf: Vec<f32> = (0..g.n() * 4).map(|i| (i % 7) as f32 * 0.25 - 0.75).collect();
        let xh: Vec<Half> = xf.iter().map(|&v| Half::from_f32(v)).collect();
        let mut ops = Ops::new(&dev);
        let yf = spmm_sum(&mut ops, &g, &xf, 4, Dispatch::untuned(PrecisionMode::Float));
        let yh = spmm_sum(&mut ops, &g, &xh, 4, PrecisionMode::HalfGnn.into());
        for (a, b) in yf.iter().zip(&yh) {
            assert!((a - b.to_f32()).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn mode_flags() {
        assert!(!PrecisionMode::Float.is_half());
        assert!(PrecisionMode::HalfNaive.is_half());
        assert!(PrecisionMode::HalfGnn.is_half());
    }

    #[test]
    fn sharded_dispatch_is_bitwise_for_every_kernel_family() {
        // Every sharded sparse dispatch must paste back the exact bits of
        // the single-device launch (the tentpole's core invariant — the
        // full-blown harness lives in tests/shard_equivalence.rs).
        let dev = DeviceConfig::a100_like();
        let g = prep();
        let n = g.n();
        let f = 4;
        let xh: Vec<Half> =
            (0..n * f).map(|i| Half::from_f32((i % 5) as f32 * 0.3 - 0.6)).collect();
        let xf: Vec<f32> = xh.iter().map(|h| h.to_f32()).collect();
        let wh: Vec<Half> = (0..g.nnz()).map(|i| Half::from_f32((i % 3) as f32 * 0.25)).collect();
        let wf: Vec<f32> = wh.iter().map(|h| h.to_f32()).collect();
        let ctx = DistCtx::new(&g.csr, 3, PartitionStrategy::Contiguous, Topology::Ring);

        let mut ops = Ops::new(&dev);
        let single = Dispatch::untuned(PrecisionMode::HalfGnn);
        let shard = single.with_dist(Some(&ctx));
        assert_eq!(spmm_mean(&mut ops, &g, &xh, f, single), spmm_mean(&mut ops, &g, &xh, f, shard));
        assert_eq!(
            spmmve(&mut ops, &g, &wh, &xh, f, single),
            spmmve(&mut ops, &g, &wh, &xh, f, shard)
        );
        assert_eq!(
            Half::sddmm(&mut ops, &g, &xh, &xh, f, single),
            Half::sddmm(&mut ops, &g, &xh, &xh, f, shard)
        );
        assert_eq!(
            edge_reduce::<Half>(&mut ops, &g, &wh, Reduce::Max, single),
            edge_reduce::<Half>(&mut ops, &g, &wh, Reduce::Max, shard)
        );

        let fsingle = Dispatch::untuned(PrecisionMode::Float);
        let fshard = fsingle.with_dist(Some(&ctx));
        assert_eq!(spmm_sum(&mut ops, &g, &xf, f, fsingle), spmm_sum(&mut ops, &g, &xf, f, fshard));
        assert_eq!(
            f32::sddmm(&mut ops, &g, &xf, &xf, f, fsingle),
            f32::sddmm(&mut ops, &g, &xf, &xf, f, fshard)
        );
        assert_eq!(
            edge_reduce::<f32>(&mut ops, &g, &wf, Reduce::Sum, fsingle),
            edge_reduce::<f32>(&mut ops, &g, &wf, Reduce::Sum, fshard)
        );
        // Float grad reductions are the exact global contraction.
        assert_eq!(
            f32::grad_gemm(&mut ops, &xf, &xf, f, n, f, fsingle),
            f32::grad_gemm(&mut ops, &xf, &xf, f, n, f, fshard)
        );
        // And the dispatch actually metered traffic.
        assert!(ctx.snapshot().total_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn replayed_plan_of_the_wrong_kind_panics() {
        // The resolver checks each replayed plan's kind: an SDDMM site that
        // reads a captured SpMM plan has left the captured launch sequence.
        let dev = DeviceConfig::a100_like();
        let g = prep();
        let x = vec![Half::from_f32(0.5); g.n() * 4];
        let ctx = ExecCtx::capturing();
        let d = Dispatch::untuned(PrecisionMode::HalfGnn).with_exec(Some(&ctx));
        let mut ops = Ops::new(&dev);
        spmm_sum(&mut ops, &g, &x, 4, d);
        ctx.seal();
        ctx.begin_epoch();
        Half::sddmm(&mut ops, &g, &x, &x, 4, d);
    }

    #[test]
    fn sharded_fused_attention_is_bitwise() {
        let dev = DeviceConfig::a100_like();
        let g = prep();
        let n = g.n();
        let f = 4;
        let z: Vec<Half> = (0..n * f).map(|i| Half::from_f32((i % 7) as f32 * 0.2 - 0.5)).collect();
        let s: Vec<Half> = (0..n).map(|i| Half::from_f32(i as f32 * 0.1)).collect();
        let ctx = DistCtx::new(&g.csr, 2, PartitionStrategy::DegreeBalanced, Topology::AllToAll);
        let mut ops = Ops::new(&dev);
        let single = Dispatch::untuned(PrecisionMode::HalfGnn).with_fusion(true);
        let shard = single.with_dist(Some(&ctx));
        let a = Half::fused_attn_forward(&mut ops, &g, &s, &s, &z, f, single).unwrap();
        let b = Half::fused_attn_forward(&mut ops, &g, &s, &s, &z, f, shard).unwrap();
        assert_eq!(a, b);
        let [e, alpha, _] = &a;
        let ga = Half::fused_softmax_grad(&mut ops, &g, alpha, e, e, f, single);
        let gb = Half::fused_softmax_grad(&mut ops, &g, alpha, e, e, f, shard);
        assert_eq!(ga, gb);
    }
}
