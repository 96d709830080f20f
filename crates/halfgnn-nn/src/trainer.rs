//! Training: one epoch loop — f32 master weights, a
//! half-precision step, an overflow and saturation check after every
//! step, an f32 Adam update (paper §5–6) — over a private batch source.
//! `Full` yields one batch per epoch, the whole graph (the paper's
//! setting); `Sampled` yields neighbor-sampled batches read through a
//! [`DeltaCsr`] overlay. DESIGN.md §14 lists what stays per source.

use crate::adam::Adam;
use crate::dist::DistCtx;
use crate::graphdata::GraphView;
use crate::models::{Dispatch, Elem};
pub use crate::models::{ModelKind, PrecisionMode};
use crate::params::{GatParams, TwoLayerParams};
use crate::sage::SageParams;
use crate::{gat, gcn, gin, sage};
use halfgnn_exec::ExecCtx;
pub use halfgnn_exec::{CaptureRefused, ReplaySummary};
use halfgnn_graph::datasets::LoadedDataset;
pub use halfgnn_graph::partition::PartitionStrategy;
use halfgnn_graph::{DeltaCsr, NeighborSampler, VertexId};
use halfgnn_half::slice::{f32_slice_to_half, pad_feature_len};
use halfgnn_half::{overflow, quant, splitmix64, Half};
use halfgnn_sim::interconnect::LinkStat;
pub use halfgnn_sim::interconnect::Topology;
use halfgnn_sim::DeviceConfig;
pub use halfgnn_sim::ExecMode;
use halfgnn_tensor::{MemoryTracker, Ops};
use halfgnn_tune::{Tuner, TunerCounters};

/// Kernel autotuning policy for a training run (§ DESIGN.md 10).
///
/// `Off` dispatches every HalfGNN kernel with the static default plan —
/// bit-for-bit the pre-tuner behaviour. `Auto` consults an in-memory
/// [`Tuner`] that evaluates candidate plans under the cost model the
/// first time each (op, graph-shape, dtype) key appears. `Cached` does
/// the same but loads/saves the plan cache at the given JSON path, so a
/// second run skips evaluation entirely.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Tuning {
    /// Static default kernel plans (exactly the untuned dispatch).
    #[default]
    Off,
    /// Tune on first use; plans live only for this process.
    Auto,
    /// Tune on first use and persist plans to this JSON file.
    Cached(String),
}

/// Training configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Architecture.
    pub model: ModelKind,
    /// Kernel/precision system.
    pub precision: PrecisionMode,
    /// Training epochs (full passes over the training set).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Hidden width (the paper fixes 64).
    pub hidden: usize,
    /// Parameter-init seed.
    pub seed: u64,
    /// GIN's aggregation scale λ (Eq. 4; the paper validates 0.1).
    pub gin_lambda: f32,
    /// GCN degree-norm placement (§3.1.3).
    pub gcn_norm: crate::models::GcnNorm,
    /// Static loss scale for the half backward pass (1.0 = off).
    pub loss_scale: f32,
    /// Execution backend for the run's kernels. [`ExecMode::Sim`]
    /// (default) models cost: `epoch_time_us` is analytic cycles and
    /// overflow provenance is exact. [`ExecMode::Fast`] runs CTAs on real
    /// OS threads with charging compiled out: `epoch_time_us` becomes
    /// measured wall-clock and kernel-level overflow provenance is not
    /// recorded (worker threads don't share the recorder's thread-local).
    pub exec: ExecMode,
    /// Kernel autotuning policy. [`Tuning::Off`] keeps the static default
    /// plans; `Auto`/`Cached` route SpMM/SDDMM dispatch through the
    /// cost-model tuner (plans are modeled-cycles argmins vetted against
    /// the f64 oracle, so losses stay within oracle tolerance).
    pub tuning: Tuning,
    /// Force the fused GAT attention pipeline (§ DESIGN.md 11) on every
    /// eligible layer. `false` (default) leaves the choice to the tuner
    /// (`Auto`/`Cached` runs) or keeps the unfused five-kernel chain
    /// (`Off` runs) — so `Tuning::Off` without this flag stays bit-for-bit
    /// the pre-fusion behaviour. Only HalfGnn-family GAT layers with even
    /// feature width can fuse; the flag is a no-op elsewhere.
    pub fusion: bool,
    /// Simulated devices for sharded training (§ DESIGN.md 12). `1`
    /// (default) is the single-device path, bit-for-bit the pre-sharding
    /// behaviour. With `shards > 1` every sparse op runs as per-shard
    /// windowed launches with halo exchanges, and gradients all-reduce
    /// (f16 wire in half modes, f32 in float) — all metered into the
    /// report's comms fields.
    pub shards: usize,
    /// Interconnect wiring between the shards (ignored when `shards == 1`).
    pub topology: Topology,
    /// How vertices are assigned to shards (ignored when `shards == 1`).
    pub partition: PartitionStrategy,
    /// Replication factor override for the 1.5D partition
    /// (`--replication`, DESIGN.md §16). `None` keeps the strategy's
    /// built-in factor (`--partition 1p5d` defaults to c = 2); `Some(c)`
    /// requires the 1.5D partition and a shard count divisible by `c`.
    pub replication: Option<usize>,
    /// Capture epoch 0 into an execution graph and replay it for every
    /// later epoch (`--replay`, DESIGN.md §13) — the CUDA-graph analog.
    /// Replay epochs resolve zero kernel plans (no tuner-cache lookups)
    /// and pay launch overhead only once, at capture; functional results
    /// are bit-identical to eager execution.
    pub replay: bool,
    /// Mini-batch seed count per step (`--batch-size`, DESIGN.md §14).
    /// `None` (default) is the paper's full-batch setting; `Some(b)`
    /// switches to neighbor-sampled mini-batch epochs: each batch trains
    /// on the sampled receptive field of `b` seed vertices.
    pub batch_size: Option<usize>,
    /// Sampled in-neighbors per vertex per hop (`--fanout`). Ignored in
    /// full-batch runs.
    pub fanout: u32,
    /// Streaming-ingestion exercise (`--stream-edges`): insert this many
    /// random undirected edges through the [`DeltaCsr`] overlay halfway
    /// through training, with no full CSR rebuild. Requires mini-batch
    /// mode (the sampler reads through the overlay; the full-batch path's
    /// graph tables are precomputed once).
    pub stream_edges: usize,
    /// Write the trained f32 master weights to this path after the last
    /// epoch (`--save-snapshot`), atomically and bit-exactly, in the
    /// [`crate::snapshot::ModelSnapshot`] format `halfgnn-serve` loads.
    pub snapshot_path: Option<String>,
    /// INT8 all-reduce bucket size override (`--i8-block`): elements
    /// sharing one joint exponent on the INT8 gradient wire. `None`
    /// keeps [`crate::dist::ALLREDUCE_BUCKET`]. Requires
    /// `--precision i8` and a power of two in `[16, 256]` — both checked
    /// at config time, by name.
    pub i8_block: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            model: ModelKind::Gcn,
            precision: PrecisionMode::Float,
            epochs: 100,
            lr: 0.01,
            hidden: 64,
            seed: 0,
            gin_lambda: crate::gin::GIN_LAMBDA,
            gcn_norm: crate::models::GcnNorm::Right,
            loss_scale: 1.0,
            exec: ExecMode::Sim,
            tuning: Tuning::Off,
            fusion: false,
            shards: 1,
            topology: Topology::Ring,
            partition: PartitionStrategy::Contiguous,
            replication: None,
            replay: false,
            batch_size: None,
            fanout: 10,
            stream_edges: 0,
            snapshot_path: None,
            i8_block: None,
        }
    }
}

/// A configuration rejected before training starts, by name — the
/// alternative is a mid-run panic with a stack trace instead of a cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `--replay` with `--batch-size`: capture assumes a fixed epoch
    /// kernel sequence, which mini-batch sampling breaks.
    ReplayWithMiniBatch(CaptureRefused),
    /// `--shards` > 1 with `--batch-size`: the partition plan is built
    /// once for the full graph, not per batch subgraph.
    ShardedMiniBatch,
    /// `--stream-edges` without `--batch-size`: the full-batch path
    /// precomputes its graph tables once and cannot ingest a delta.
    StreamingNeedsMiniBatch,
    /// `--batch-size 0` selects no seeds.
    ZeroBatchSize,
    /// `--fanout 0` samples no neighbors.
    ZeroFanout,
    /// `--loss-scale` zero, negative, or non-finite: gradients would be
    /// annihilated (or poisoned) before the unscale, silently.
    BadLossScale,
    /// `--save-snapshot` with an empty path.
    EmptySnapshotPath,
    /// `--replication 0`: a replication group needs at least one member.
    ZeroReplication,
    /// `--replication` with a partition other than 1.5D: the factor has
    /// no meaning for 1D strategies.
    ReplicationRequiresOneP5D,
    /// `--partition 1p5d` with a shard count the replication factor does
    /// not divide: replication groups must tile the shards exactly.
    ReplicationDoesNotDivideShards,
    /// `--i8-block` without `--precision i8`: the bucket only exists on
    /// the INT8 wire.
    QuantBlockWithoutI8,
    /// `--i8-block` that is zero, not a power of two, or outside
    /// `[16, 256]`: the joint-exponent bucket must pack the wire evenly,
    /// and a degenerate bucket either crushes small gradients (too wide)
    /// or pays an exponent per element (too narrow).
    BadQuantBlock,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ReplayWithMiniBatch(r) => {
                write!(f, "--replay is incompatible with --batch-size ({r})")
            }
            ConfigError::ShardedMiniBatch => {
                write!(f, "--shards > 1 is incompatible with --batch-size (the partition plan is per full graph, not per batch)")
            }
            ConfigError::StreamingNeedsMiniBatch => {
                write!(f, "--stream-edges requires --batch-size (full-batch graph tables are precomputed once)")
            }
            ConfigError::ZeroBatchSize => write!(f, "--batch-size must be at least 1"),
            ConfigError::ZeroFanout => write!(f, "--fanout must be at least 1"),
            ConfigError::BadLossScale => {
                write!(f, "--loss-scale must be a positive, finite value")
            }
            ConfigError::EmptySnapshotPath => {
                write!(f, "--save-snapshot requires a non-empty path")
            }
            ConfigError::ZeroReplication => write!(f, "--replication must be at least 1"),
            ConfigError::ReplicationRequiresOneP5D => {
                write!(f, "--replication requires --partition 1p5d")
            }
            ConfigError::ReplicationDoesNotDivideShards => {
                write!(f, "--partition 1p5d requires --shards divisible by the replication factor")
            }
            ConfigError::QuantBlockWithoutI8 => {
                write!(f, "--i8-block requires --precision i8")
            }
            ConfigError::BadQuantBlock => {
                write!(f, "--i8-block must be a power of two between 16 and 256")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl TrainConfig {
    /// Reject configurations that cannot train, with a named reason.
    /// [`train_on`] calls this and panics with the message; CLIs should
    /// call it directly and exit with a usage error instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.loss_scale.is_finite() || self.loss_scale <= 0.0 {
            return Err(ConfigError::BadLossScale);
        }
        if let Some(c) = self.replication {
            if c == 0 {
                return Err(ConfigError::ZeroReplication);
            }
            if !matches!(self.partition, PartitionStrategy::OneP5D { .. }) {
                return Err(ConfigError::ReplicationRequiresOneP5D);
            }
        }
        if self.shards > 1 && !self.shards.is_multiple_of(self.effective_partition().replication())
        {
            return Err(ConfigError::ReplicationDoesNotDivideShards);
        }
        if matches!(&self.snapshot_path, Some(p) if p.is_empty()) {
            return Err(ConfigError::EmptySnapshotPath);
        }
        if let Some(b) = self.i8_block {
            if self.precision != PrecisionMode::I8 {
                return Err(ConfigError::QuantBlockWithoutI8);
            }
            if !b.is_power_of_two() || !(16..=256).contains(&b) {
                return Err(ConfigError::BadQuantBlock);
            }
        }
        match self.batch_size {
            Some(0) => return Err(ConfigError::ZeroBatchSize),
            Some(_) => {
                if self.replay {
                    return Err(ConfigError::ReplayWithMiniBatch(
                        CaptureRefused::MiniBatchSchedule,
                    ));
                }
                if self.shards > 1 {
                    return Err(ConfigError::ShardedMiniBatch);
                }
                if self.fanout == 0 {
                    return Err(ConfigError::ZeroFanout);
                }
            }
            None => {
                if self.stream_edges > 0 {
                    return Err(ConfigError::StreamingNeedsMiniBatch);
                }
            }
        }
        Ok(())
    }

    /// The partition strategy the run actually trains with: the configured
    /// strategy, with `--replication` folded into the 1.5D factor.
    pub fn effective_partition(&self) -> PartitionStrategy {
        match self.replication {
            Some(c) => self.partition.with_replication(c),
            None => self.partition,
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Loss per epoch.
    pub losses: Vec<f32>,
    /// Training accuracy at the final epoch.
    pub final_train_accuracy: f32,
    /// Held-out test accuracy at the final epoch.
    pub test_accuracy: f32,
    /// First epoch whose loss was NaN (the DGL-half failure of Fig. 1c).
    pub nan_epoch: Option<usize>,
    /// Time of one training epoch in microseconds: modeled (analytic
    /// cycles) under [`ExecMode::Sim`], measured wall-clock under
    /// [`ExecMode::Fast`].
    pub epoch_time_us: f64,
    /// Peak modeled device memory in bytes (Fig. 6).
    pub peak_memory_bytes: u64,
    /// Tensor dtype conversions per epoch (§3.1.2).
    pub conversions_per_epoch: u64,
    /// Elements converted per epoch.
    pub converted_elems_per_epoch: u64,
    /// Kernel launches per epoch.
    pub kernels_per_epoch: usize,
    /// Modeled DRAM traffic of one epoch in bytes (read + write sectors
    /// × 32 B). Fused kernels never charge sectors for the intermediates
    /// they eliminate, so this is where fusion's memory-traffic savings
    /// show up. Zero under [`ExecMode::Fast`] (charging is compiled out).
    pub dram_bytes_per_epoch: u64,
    /// Per-kernel breakdown of one epoch:
    /// `(name, launches, total us, total DRAM bytes)` sorted by time
    /// descending — the profile a Nsight Systems trace would show.
    pub kernel_breakdown: Vec<(String, usize, f64, u64)>,
    /// Overflow-provenance summary for each epoch: every `f32 → half`
    /// conversion of the step is tracked, and the first non-finite one
    /// carries its site path (layer + kernel), answering *which tensor
    /// overflowed first* when a half run NaNs (Fig. 1c). Clean summaries
    /// when `halfgnn-half/provenance` is off or the run is float.
    pub overflow_per_epoch: Vec<overflow::Summary>,
    /// Saturation-provenance summary for each epoch: every INT8
    /// quantization of the step is tracked, and the first flagged one
    /// (a clamp at ±127·2^e or a non-finite input) carries its site,
    /// answering *which tensor saturated first* when an I8 run drifts.
    /// Clean summaries outside `--precision i8` — so "zero unflagged
    /// saturation events" is checkable: a flagged event always lands
    /// here.
    pub saturation_per_epoch: Vec<quant::SatSummary>,
    /// Plan-cache counters when the run tuned ([`Tuning::Auto`]/`Cached`):
    /// hits, misses, and candidate evaluations across the whole run. `None`
    /// under [`Tuning::Off`].
    pub tuning_counters: Option<TunerCounters>,
    /// Interconnect bytes moved by one epoch (halo + all-reduce, relay
    /// hops counted per link). Zero when `shards == 1`.
    pub comms_bytes_per_epoch: u64,
    /// Halo-exchange payload bytes of one epoch (2 B/element in half
    /// modes, 4 B in float — the FP16 comms win `BENCH_pr5` measures).
    pub comms_halo_bytes_per_epoch: u64,
    /// Gradient all-reduce bytes of one epoch.
    pub comms_allreduce_bytes_per_epoch: u64,
    /// Modeled communication time of one epoch in microseconds (busiest
    /// link; links transfer concurrently).
    pub comms_time_us_per_epoch: f64,
    /// Per-directed-link traffic of one epoch, sorted by `(from, to)`.
    pub link_breakdown: Vec<((usize, usize), LinkStat)>,
    /// Epoch comm+compute time with every transfer serialized against its
    /// device's kernels (busiest device; epoch 0, cold halo cache). Zero
    /// when `shards == 1`.
    pub comms_serialized_us: f64,
    /// The same epoch under the double-buffered halo-prefetch model
    /// (DESIGN.md §16): each halo transfer hides under the compute window
    /// since the previous communication point; all-reduces are barriers.
    /// Strictly below `comms_serialized_us` whenever a halo hides.
    pub comms_overlapped_us: f64,
    /// Cross-epoch halo-cache rows served locally during the *last* epoch
    /// (steady state: static features hit from epoch 1 on). Zero when
    /// `shards == 1`.
    pub halo_cache_hits: u64,
    /// Halo-cache rows fetched over the wire during the last epoch.
    pub halo_cache_misses: u64,
    /// Wire bytes the last epoch's cache hits avoided.
    pub halo_cache_bytes_saved: u64,
    /// Captured-graph summary when the run replayed (`TrainConfig::replay`):
    /// launches and buffers per epoch, the arena-planned `peak_bytes` for
    /// intermediates (vs the eager no-reuse baseline), and the modeled
    /// cycles saved per replay epoch by stripped launch overhead. `None`
    /// on eager runs.
    pub replay: Option<ReplaySummary>,
    /// Time of one *replayed* epoch in microseconds (first replay epoch;
    /// same semantics as `epoch_time_us`). Zero on eager runs and on
    /// single-epoch runs that never replayed.
    pub replay_epoch_time_us: f64,
    /// Mini-batch sampling summary (`TrainConfig::batch_size`); `None`
    /// on full-batch runs.
    pub sampling: Option<SamplingSummary>,
}

/// What the neighbor sampler actually did during a mini-batch run.
#[derive(Clone, Debug, Default)]
pub struct SamplingSummary {
    /// Batches per epoch (`⌈|train| / batch_size⌉`).
    pub batches_per_epoch: usize,
    /// Mean sampled receptive-field size (vertices) across epoch 0.
    pub mean_batch_vertices: f64,
    /// Mean sampled subgraph edges (before symmetrization) across epoch 0.
    pub mean_batch_edges: f64,
    /// Largest receptive field of any batch in the run — the size the
    /// peak-memory model is scaled to.
    pub max_batch_vertices: usize,
    /// Largest sampled edge count of any batch in the run.
    pub max_batch_edges: usize,
    /// Fanout the run sampled with.
    pub fanout: u32,
    /// Edges actually inserted through the [`DeltaCsr`] overlay (0 when
    /// `stream_edges` was 0 or every drawn edge already existed).
    pub streamed_edges: usize,
    /// Epoch before which the stream was ingested, when it was.
    pub stream_epoch: Option<usize>,
    /// Tuner cache activity *after* the stream was ingested (hits vs
    /// misses over post-delta batches) — the "re-tuning stays mostly
    /// cache-hit" claim, measured. `None` without streaming or tuning.
    pub post_stream_tuning: Option<TunerCounters>,
}

impl TrainReport {
    /// The first non-finite conversion of the whole run, as
    /// `(epoch, event)` — the genesis of a Fig. 1c loss collapse.
    pub fn first_overflow(&self) -> Option<(usize, &overflow::OverflowEvent)> {
        self.overflow_per_epoch
            .iter()
            .enumerate()
            .find_map(|(ep, s)| s.first.as_ref().map(|ev| (ep, ev)))
    }

    /// The first flagged INT8 quantization of the whole run, as
    /// `(epoch, event)`. `None` for oracle-clean I8 runs and every
    /// non-I8 run.
    pub fn first_saturation(&self) -> Option<(usize, &quant::SatEvent)> {
        self.saturation_per_epoch
            .iter()
            .enumerate()
            .find_map(|(ep, s)| s.first.as_ref().map(|ev| (ep, ev)))
    }
}

/// Train on the standard A100-like device.
pub fn train(data: &LoadedDataset, cfg: &TrainConfig) -> TrainReport {
    train_on(&DeviceConfig::a100_like(), data, cfg)
}

/// Train on an explicit device. The config's [`TrainConfig::exec`] selects
/// the execution backend, overriding whatever mode `dev` carries.
pub fn train_on(dev: &DeviceConfig, data: &LoadedDataset, cfg: &TrainConfig) -> TrainReport {
    if let Err(e) = cfg.validate() {
        panic!("invalid config: {e}");
    }
    let dev = &dev.clone().with_exec(cfg.exec);
    let f_in = data.spec.feat;
    let is_half = cfg.precision.is_half();
    // Feature padding (§4.1.2): half paths pad odd class counts.
    let classes = if is_half { pad_feature_len(data.spec.classes, 2) } else { data.spec.classes };
    let xh = if is_half { f32_slice_to_half(&data.features) } else { Vec::new() };

    let mut params = ModelParams::new(cfg.model, f_in, cfg.hidden, classes, cfg.seed);
    let mut opt = Adam::new(params.flat().len(), cfg.lr);

    // One tuner for the whole run: plans are per (op, graph-shape, dtype)
    // key, so epoch 0 pays any evaluation cost and later epochs hit the
    // in-memory cache. The tuner always evaluates under `ExecMode::Sim`
    // regardless of `cfg.exec` — plans are modeled-cycles argmins either
    // way, and its oracle checks run inside `overflow::isolated` so they
    // never pollute this run's per-step provenance windows.
    let partition = cfg.effective_partition();
    let tuner = match &cfg.tuning {
        Tuning::Off => None,
        Tuning::Auto => Some(Tuner::auto(dev)),
        Tuning::Cached(path) => Some(Tuner::cached(dev, path.as_str())),
    }
    .map(|t| t.with_shards(cfg.shards).with_partition(partition));
    // Sharded execution context: partition Â (the graph the kernels run
    // on) and meter every halo exchange / all-reduce against the chosen
    // interconnect. `shards == 1` keeps the single-device dispatch path.
    let dist = (cfg.shards > 1).then(|| {
        let ctx = DistCtx::new(&data.adj, cfg.shards, partition, cfg.topology);
        match cfg.i8_block {
            Some(b) => ctx.with_i8_bucket(b),
            None => ctx,
        }
    });
    // Capture/replay context (`--replay`): epoch 0 records every plan
    // resolution and kernel launch; `seal()` freezes the graph and every
    // later epoch replays it — no tuner lookups, launch overhead stripped.
    let exec_ctx = cfg.replay.then(ExecCtx::capturing);
    let dispatch = match &tuner {
        Some(t) => Dispatch::tuned(cfg.precision, t),
        None => Dispatch::untuned(cfg.precision),
    }
    .with_fusion(cfg.fusion)
    .with_dist(dist.as_ref())
    .with_exec(exec_ctx.as_ref());
    let run = Run { dev, data, cfg, xh: &xh, classes, dispatch };
    let mut source = match cfg.batch_size {
        None => Source::Full(GraphView::full(&data.adj)),
        Some(batch_size) => Source::Sampled(Sampled::new(data, cfg, batch_size)),
    };

    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut overflow_per_epoch: Vec<overflow::Summary> = Vec::with_capacity(cfg.epochs);
    let mut saturation_per_epoch: Vec<quant::SatSummary> = Vec::with_capacity(cfg.epochs);
    let mut nan_epoch = None;
    let (mut logged_overflow, mut logged_saturation) = (false, false);
    let mut last_logits = Vec::new();
    // Epoch 0's charged work: kernel sequences are value-independent, so
    // one epoch's modeled cost represents them all.
    let (mut epoch_time_us, mut conversions, mut converted) = (0.0, 0u64, 0u64);
    let mut epoch0_log: Vec<halfgnn_sim::KernelStats> = Vec::new();
    let mut replay_epoch_time_us = 0.0;
    let mut comms = halfgnn_sim::interconnect::CommsLedger::new();
    let (mut comms_serialized_us, mut comms_overlapped_us) = (0.0, 0.0);
    for epoch in 0..cfg.epochs {
        if let Some(ctx) = &dist {
            ctx.reset_epoch();
        }
        if let Some(ctx) = &exec_ctx {
            ctx.begin_epoch();
        }
        let (mut loss_sum, mut loss_weight) = (0.0f64, 0.0f64);
        let mut epoch_overflow = overflow::Summary::default();
        let mut epoch_saturation = quant::SatSummary::default();
        let mut step = |mut ops: Ops, batch: Batch| {
            // Track every f32→half conversion and INT8 quantization of the
            // step; the first flagged one is recorded with its site path.
            overflow::begin();
            quant::begin();
            let (loss, grad_flat, logits) = params.step(&mut ops, &batch, &run);
            let (sat, ofw) = (quant::take(), overflow::take());
            // Log only the run's first event of each kind: later steps
            // mostly repeat the same site once the parameters are poisoned.
            let at = || {
                let run = format!("[halfgnn-nn] {:?}/{:?}", cfg.model, cfg.precision);
                match batch.view.meta() {
                    Some(m) => format!("{run}: epoch {} batch {}", m.epoch, m.batch),
                    None => format!("{run}: epoch {epoch}"),
                }
            };
            if let Some(ev) = sat.first.as_ref().filter(|_| !logged_saturation) {
                eprintln!("{}: first INT8 saturation: {ev}", at());
                logged_saturation = true;
            }
            if let Some(ev) = ofw.first.as_ref().filter(|_| !logged_overflow) {
                eprintln!("{}: first non-finite conversion: {ev}", at());
                logged_overflow = true;
            }
            epoch_saturation.merge(sat);
            epoch_overflow.merge(ofw);

            if loss.is_nan() && nan_epoch.is_none() {
                nan_epoch = Some(epoch);
            }
            loss_sum += loss as f64 * batch.weight;
            loss_weight += batch.weight;
            if exec_ctx.is_some() && epoch == 1 {
                replay_epoch_time_us += ops.total_time_us();
            }
            if epoch == 0 {
                epoch_time_us += ops.total_time_us();
                conversions += ops.tensor_conversions;
                converted += ops.converted_elems;
                epoch0_log.extend(ops.log);
            }
            // Master update in f32 (NaN gradients propagate, as in real DGL).
            params.adam_step(&mut opt, &grad_flat);
            last_logits = logits;
        };
        match &mut source {
            // Re-key INT8 stochastic rounding per epoch: errors decorrelate
            // across steps, yet the whole run is a pure function of the seed.
            Source::Full(view) => step(run.ops(), run.full_batch(view, cfg.seed ^ epoch as u64)),
            Source::Sampled(s) => s.each_batch(epoch, &run, step),
        }
        losses.push((loss_sum / loss_weight) as f32);
        overflow_per_epoch.push(epoch_overflow);
        saturation_per_epoch.push(epoch_saturation);

        if let (0, Some(ctx)) = (epoch, &dist) {
            comms = ctx.snapshot();
            // Epoch 0 is the cold-cache epoch: its event streams carry
            // every halo transfer, so the serialized-vs-overlapped gap is
            // the conservative (smallest) one.
            let timeline = ctx.timeline();
            comms_serialized_us = timeline.serialized_us();
            comms_overlapped_us = timeline.overlapped_us();
        }
        if let Some(ctx) = &exec_ctx {
            if epoch == 0 {
                // Capture complete: freeze the graph, replay from here on.
                ctx.seal();
            } else {
                // A replayed epoch must consume exactly the captured plan
                // stream — anything else is a silent divergence.
                ctx.end_epoch();
            }
        }
    }

    // `Full` scores the last step's logits, taken before the final Adam
    // update.
    let (logits, memory, sampling) = match &source {
        Source::Full(_) => (last_logits, model_memory(data, cfg, classes).peak(), None),
        Source::Sampled(s) => {
            let (logits, memory, sampling) = s.finish(&run, &params);
            (logits, memory, Some(sampling))
        }
    };
    let final_train_accuracy = Ops::accuracy(&logits, &data.labels, &data.split.train, classes);
    let test_accuracy = Ops::accuracy(&logits, &data.labels, &data.split.test, classes);
    save_snapshot(cfg, f_in, classes, &params);
    // Last epoch's counters = the steady state: with static input
    // features every post-warmup epoch serves its halo from the cache.
    let halo_cache = dist.as_ref().map(DistCtx::halo_cache_stats).unwrap_or_default();

    TrainReport {
        losses,
        final_train_accuracy,
        test_accuracy,
        nan_epoch,
        epoch_time_us,
        peak_memory_bytes: memory,
        conversions_per_epoch: conversions,
        converted_elems_per_epoch: converted,
        kernels_per_epoch: epoch0_log.len(),
        dram_bytes_per_epoch: epoch0_log.iter().map(halfgnn_sim::KernelStats::dram_bytes).sum(),
        kernel_breakdown: kernel_breakdown(&epoch0_log),
        overflow_per_epoch,
        saturation_per_epoch,
        tuning_counters: tuner.as_ref().map(Tuner::counters),
        comms_bytes_per_epoch: comms.total_bytes(),
        comms_halo_bytes_per_epoch: comms.halo_bytes,
        comms_allreduce_bytes_per_epoch: comms.allreduce_bytes,
        comms_time_us_per_epoch: comms.total_time_us(),
        link_breakdown: comms.link_stats(),
        comms_serialized_us,
        comms_overlapped_us,
        halo_cache_hits: halo_cache.hits,
        halo_cache_misses: halo_cache.misses,
        halo_cache_bytes_saved: halo_cache.bytes_saved,
        replay: exec_ctx.as_ref().map(|ctx| {
            let mut s = ctx.summary();
            // Per-epoch figure: total stripped cycles over the replay
            // epochs that actually ran.
            let replays = cfg.epochs.saturating_sub(1).max(1) as f64;
            s.saved_cycles /= replays;
            s
        }),
        replay_epoch_time_us,
        sampling,
    }
}

/// Run-wide context the batch sources build steps from.
struct Run<'a> {
    dev: &'a DeviceConfig,
    data: &'a LoadedDataset,
    cfg: &'a TrainConfig,
    /// The run's one half copy of the features (empty in float runs).
    xh: &'a [Half],
    /// Output width: the class count, padded in half runs.
    classes: usize,
    /// The run's kernel dispatch, tuner and sharding/replay contexts
    /// included.
    dispatch: Dispatch<'a>,
}

impl<'a> Run<'a> {
    /// A fresh kernel context for one step.
    fn ops(&self) -> Ops<'a> {
        let mut ops = Ops::new(self.dev).with_exec(self.dispatch.exec);
        ops.loss_scale = self.cfg.loss_scale;
        ops
    }

    /// A step over the whole graph `view` with the dataset's own rows.
    fn full_batch<'v>(&'v self, view: &'v GraphView, quant_seed: u64) -> Batch<'v> {
        let (x, labels, mask) = (&self.data.features, &self.data.labels, &self.data.split.train);
        Batch { view, x, xh: self.xh, labels, mask, weight: 1.0, quant_seed }
    }
}

/// One step's inputs: a graph view and its vertices' rows (half steps
/// read `xh`, float steps `x`), the weight of its loss in the epoch's
/// mean, and its INT8 rounding key.
struct Batch<'a> {
    view: &'a GraphView,
    x: &'a [f32],
    xh: &'a [Half],
    labels: &'a [u32],
    mask: &'a [bool],
    weight: f64,
    quant_seed: u64,
}

/// Where an epoch's batches come from.
enum Source {
    /// The paper's full-batch setting: one batch per epoch, the whole
    /// graph with the dataset's own rows.
    Full(GraphView),
    /// Neighbor-sampled mini-batches.
    Sampled(Sampled),
}

/// Mini-batch state (DESIGN.md §14): the sampler, the overlay it reads
/// through, and what it has sampled so far.
struct Sampled {
    batch_size: usize,
    // The training graph lives behind a delta overlay: streamed edges
    // ingest in O(log deg) each, and the sampler reads straight through
    // the overlay — the base CSR is never rebuilt mid-training.
    graph: DeltaCsr,
    sampler: NeighborSampler,
    train_ids: Vec<VertexId>,
    counters_at_stream: Option<TunerCounters>,
    /// Epoch-0 sums of batch vertices and edges, for the summary's means.
    ep0: (usize, usize),
    /// Largest symmetrized batch view `(vertices, edges)`: the shape peak
    /// memory is modeled at.
    max_view: (usize, usize),
    summary: SamplingSummary,
}

impl Sampled {
    fn new(data: &LoadedDataset, cfg: &TrainConfig, batch_size: usize) -> Sampled {
        let train = &data.split.train;
        let train_ids: Vec<VertexId> =
            (0..train.len() as VertexId).filter(|&v| train[v as usize]).collect();
        assert!(!train_ids.is_empty(), "dataset has no training vertices");
        Sampled {
            batch_size,
            graph: DeltaCsr::new(data.adj.clone()),
            sampler: NeighborSampler::new(cfg.fanout, 2, cfg.seed),
            train_ids,
            counters_at_stream: None,
            ep0: (0, 0),
            max_view: (0, 0),
            summary: SamplingSummary { fanout: cfg.fanout, ..SamplingSummary::default() },
        }
    }

    /// Run `step` on each of `epoch`'s batches: a deterministic shuffle of
    /// the train set into seed batches, each trained on its sampled k-hop
    /// receptive field.
    fn each_batch(&mut self, epoch: usize, run: &Run, mut step: impl FnMut(Ops, Batch)) {
        let (cfg, data, s) = (run.cfg, run.data, &mut self.summary);
        // Streaming ingests halfway through, so both regimes are exercised.
        if cfg.stream_edges > 0 && epoch == cfg.epochs / 2 {
            s.streamed_edges = stream_random_edges(&mut self.graph, cfg.stream_edges, cfg.seed);
            s.stream_epoch = (s.streamed_edges > 0).then_some(epoch);
            let tuner = run.dispatch.tuner;
            self.counters_at_stream = Some(tuner.map(Tuner::counters).unwrap_or_default());
        }
        let schedule = self.sampler.schedule(&self.train_ids, self.batch_size, epoch as u64);
        s.batches_per_epoch = schedule.len();
        for (b, seeds) in schedule.iter().enumerate() {
            let salt = ((epoch as u64) << 32) | b as u64;
            let sub = self.sampler.sample(&self.graph, seeds, salt);
            let view = GraphView::batch(&sub, epoch, b);
            s.max_batch_vertices = s.max_batch_vertices.max(sub.n());
            s.max_batch_edges = s.max_batch_edges.max(sub.nnz());
            self.max_view = (self.max_view.0.max(view.n()), self.max_view.1.max(view.nnz()));
            if epoch == 0 {
                self.ep0 = (self.ep0.0 + sub.n(), self.ep0.1 + sub.nnz());
            }

            let mut ops = run.ops();
            // Batch feature rows come out of the global matrix through a
            // charged gather kernel; label/mask rows are host-side views.
            let ids = &sub.global_ids;
            let (x, xh) = if cfg.precision.is_half() {
                (Vec::new(), ops.gather_rows_half(run.xh, data.spec.feat, ids))
            } else {
                (ops.gather_rows_f32(&data.features, data.spec.feat, ids), Vec::new())
            };
            let labels: Vec<u32> = ids.iter().map(|&v| data.labels[v as usize]).collect();
            let mask: Vec<bool> = (0..sub.n()).map(|i| i < sub.n_seeds).collect();
            let (view, x, xh, labels, mask) = (&view, &x, &xh, &labels, &mask);
            let weight = seeds.len() as f64;
            step(ops, Batch { view, x, xh, labels, mask, weight, quant_seed: cfg.seed ^ salt });
        }
    }

    /// The run's final logits, peak memory and sampling summary. The
    /// post-stream tuner counters are read first: the final evaluation's
    /// plan lookups are not the stream's.
    fn finish(&self, run: &Run, params: &ModelParams) -> (Vec<f32>, u64, SamplingSummary) {
        let (cfg, data, classes) = (run.cfg, run.data, run.classes);
        let batches = self.summary.batches_per_epoch.max(1) as f64;
        let summary = SamplingSummary {
            mean_batch_vertices: self.ep0.0 as f64 / batches,
            mean_batch_edges: self.ep0.1 as f64 / batches,
            post_stream_tuning: run.dispatch.tuner.zip(self.counters_at_stream).map(|(t, at)| {
                let end = t.counters();
                TunerCounters {
                    hits: end.hits - at.hits,
                    misses: end.misses - at.misses,
                    evaluations: end.evaluations - at.evaluations,
                }
            }),
            ..self.summary.clone()
        };
        // Final metrics: one full-graph step with the trained weights,
        // against the streamed graph if edges were ingested — the one
        // place the overlay materializes, after training. The accuracies
        // are directly comparable to a full-batch run's.
        let adj =
            if self.summary.streamed_edges > 0 { self.graph.merge() } else { data.adj.clone() };
        let view = GraphView::full(&adj);
        let logits = params.step(&mut run.ops(), &run.full_batch(&view, 0), run).2;
        // Peak memory: the largest batch's working set (the full-batch
        // model at the batch shape) plus the resident global feature
        // matrix and graph structure the gathers read from.
        let (n, e) = self.max_view;
        let mut m = model_memory_shape(n, e, data.spec.feat, cfg, classes);
        let elem = if cfg.precision.is_half() { 2 } else { 4 };
        m.alloc("global_features", data.num_vertices() * data.spec.feat, elem);
        m.alloc("global_csr", data.num_edges() + data.num_vertices() + 1, 4);
        (logits, m.peak(), summary)
    }
}

/// Parameter storage, one variant per architecture.
enum ModelParams {
    Gcn(TwoLayerParams),
    Gin(TwoLayerParams),
    Gat(GatParams),
    Sage(SageParams),
}

impl ModelParams {
    fn new(model: ModelKind, f_in: usize, hidden: usize, classes: usize, seed: u64) -> ModelParams {
        match model {
            ModelKind::Gcn => ModelParams::Gcn(TwoLayerParams::new(f_in, hidden, classes, seed)),
            ModelKind::Gin => ModelParams::Gin(TwoLayerParams::new(f_in, hidden, classes, seed)),
            ModelKind::Gat => ModelParams::Gat(GatParams::new(f_in, hidden, classes, seed)),
            ModelKind::Sage => ModelParams::Sage(SageParams::new(f_in, hidden, classes, seed)),
        }
    }

    /// Flattened f32 master weights (the optimizer's view and the
    /// snapshot payload).
    fn flat(&self) -> Vec<f32> {
        match self {
            ModelParams::Gcn(p) | ModelParams::Gin(p) => p.flat(),
            ModelParams::Gat(p) => p.flat(),
            ModelParams::Sage(p) => p.flat(),
        }
    }

    /// Adam update of the flattened master weights.
    fn adam_step(&mut self, opt: &mut Adam, grad_flat: &[f32]) {
        let mut flat = self.flat();
        opt.step(&mut flat, grad_flat);
        match self {
            ModelParams::Gcn(p) | ModelParams::Gin(p) => p.set_flat(&flat),
            ModelParams::Gat(p) => p.set_flat(&flat),
            ModelParams::Sage(p) => p.set_flat(&flat),
        }
    }

    /// One forward+backward step of the model on `b.view` — the full
    /// graph or one batch subgraph; the step functions don't care, which
    /// is the point of [`GraphView`]. Returns `(loss, grad_flat, logits)`.
    fn step(&self, ops: &mut Ops, b: &Batch, run: &Run) -> (f32, Vec<f32>, Vec<f32>) {
        if run.cfg.precision.is_half() {
            self.step_in::<Half>(ops, b, b.xh, run)
        } else {
            self.step_in::<f32>(ops, b, b.x, run)
        }
    }

    /// [`ModelParams::step`] with the state tensors in `E`, reading the
    /// batch's rows `x` in that precision.
    fn step_in<E: Elem>(
        &self,
        ops: &mut Ops,
        b: &Batch,
        x: &[E],
        run: &Run,
    ) -> (f32, Vec<f32>, Vec<f32>) {
        let (g, labels, mask) = (b.view, b.labels, b.mask);
        let (cfg, d) = (run.cfg, run.dispatch.with_quant_seed(b.quant_seed));
        match self {
            ModelParams::Gcn(p) => {
                let out = gcn::step(ops, g, p, x, labels, mask, d, cfg.gcn_norm);
                (out.loss, out.grads.flat(), out.logits)
            }
            ModelParams::Gin(p) => {
                let out = gin::step(ops, g, p, x, labels, mask, d, cfg.gin_lambda);
                (out.loss, out.grads.flat(), out.logits)
            }
            ModelParams::Gat(p) => {
                let out = gat::step(ops, g, p, x, labels, mask, d);
                (out.loss, out.grads.flat(), out.logits)
            }
            ModelParams::Sage(p) => {
                let out = sage::step(ops, g, p, x, labels, mask, d);
                (out.loss, out.grads.flat(), out.logits)
            }
        }
    }
}

/// Write the trained weights to `cfg.snapshot_path` when set. The save is
/// atomic (tmp + rename); an I/O failure is reported, not fatal — the
/// training result is still valid.
fn save_snapshot(cfg: &TrainConfig, f_in: usize, classes: usize, params: &ModelParams) {
    let Some(path) = &cfg.snapshot_path else { return };
    let snap = crate::snapshot::ModelSnapshot::from_f32(
        cfg.model,
        f_in,
        cfg.hidden,
        classes,
        &params.flat(),
    );
    if let Err(e) = snap.save(std::path::Path::new(path)) {
        eprintln!("[halfgnn-nn] failed to save snapshot to {path}: {e}");
    }
}

/// Insert up to `count` deterministic random undirected edges through the
/// overlay. Returns how many endpoint pairs were actually new.
fn stream_random_edges(graph: &mut DeltaCsr, count: usize, seed: u64) -> usize {
    let n = graph.num_rows() as u64;
    if n < 2 {
        return 0;
    }
    let mut inserted = 0;
    let mut state = splitmix64(seed ^ 0x57ea_u64);
    // Draw with a retry budget: duplicates of existing edges don't count.
    for _ in 0..count * 8 {
        if inserted == count {
            break;
        }
        state = splitmix64(state);
        let u = (state % n) as VertexId;
        state = splitmix64(state);
        let v = (state % n) as VertexId;
        if u != v && graph.insert_undirected(u, v) > 0 {
            inserted += 1;
        }
    }
    inserted
}

/// Aggregate an epoch's kernel log by kernel name, sorted by total time.
fn kernel_breakdown(log: &[halfgnn_sim::KernelStats]) -> Vec<(String, usize, f64, u64)> {
    let mut agg: std::collections::BTreeMap<&str, (usize, f64, u64)> =
        std::collections::BTreeMap::new();
    for s in log {
        // Composite stats ("a+b") are named by their phases; aggregate on
        // the full composite name.
        let e = agg.entry(s.name.as_str()).or_insert((0, 0.0, 0));
        e.0 += 1;
        e.1 += s.time_us;
        e.2 += s.dram_bytes();
    }
    let mut out: Vec<(String, usize, f64, u64)> =
        agg.into_iter().map(|(k, (n, t, b))| (k.to_string(), n, t, b)).collect();
    out.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// Analytic peak-memory model for Fig. 6.
///
/// State tensors (features, per-layer activations, their gradients, GAT's
/// edge tensors) take the mode's element width; parameters, optimizer
/// state, and the loss take f32. DGL modes additionally carry framework
/// overhead (GNNBench's finding the paper cites in §6.1.2) and the
/// AMP-materialized float copies of promoted tensors.
pub fn model_memory(data: &LoadedDataset, cfg: &TrainConfig, classes: usize) -> MemoryTracker {
    model_memory_shape(data.num_vertices(), data.num_edges(), data.spec.feat, cfg, classes)
}

/// [`model_memory`] evaluated at an explicit graph shape (`n` vertices,
/// `e` edges) so the same accounting serves full graphs and batch
/// subgraphs.
fn model_memory_shape(
    n: usize,
    e: usize,
    f_in: usize,
    cfg: &TrainConfig,
    classes: usize,
) -> MemoryTracker {
    let h = cfg.hidden;
    let c = classes;
    let elem = if cfg.precision.is_half() { 2 } else { 4 };
    let mut m = MemoryTracker::new();

    // Graph structure (COO + CSR), shared by all systems.
    m.alloc("coo", e * 2, 4);
    m.alloc("csr", e + n + 1, 4);
    m.alloc("features", n * f_in, elem);

    // Per-layer state tensors + mirrored gradients (x2).
    let acts: usize = match cfg.model {
        ModelKind::Gcn => n * h * 3 + n * c * 2,
        ModelKind::Gin => n * f_in + n * h * 3 + n * c,
        ModelKind::Gat => n * h * 2 + n * c * 2 + 4 * e + 2 * n,
        ModelKind::Sage => n * f_in + n * h * 4 + n * c * 2,
    };
    m.alloc("activations", acts, elem);
    m.alloc("activation_grads", acts, elem);

    // Parameters + grads + Adam m/v in f32, plus half copies in half modes.
    let pcount: usize = match cfg.model {
        ModelKind::Gcn | ModelKind::Gin => f_in * h + h + h * c + c,
        ModelKind::Gat => f_in * h + 2 * h + h * c + 2 * c,
        ModelKind::Sage => 2 * f_in * h + h + 2 * h * c + c,
    };
    m.alloc("params_master_opt", pcount * 4, 4);
    if cfg.precision.is_half() {
        m.alloc("params_half_copy", pcount, 2);
        // AMP-promoted logits materialize in f32.
        m.alloc("amp_logits_f32", n * c * 2, 4);
    }

    match cfg.precision {
        PrecisionMode::Float | PrecisionMode::HalfNaive => {
            // DGL: framework workspace + caching-allocator slack, plus (for
            // half) the float copies AMP materializes around promoted ops.
            if cfg.precision == PrecisionMode::HalfNaive && cfg.model == ModelKind::Gat {
                m.alloc("amp_exp_f32", 2 * e, 4);
            }
            let overhead = (m.current() / 4) + (8 << 20);
            m.framework_overhead(overhead);
        }
        PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize | PrecisionMode::I8 => {
            // Staging buffer: 2 entries per CTA of |F| halves (§5.2.3).
            let ctas = e.div_ceil(256).max(1);
            m.alloc("staging_buffer", 2 * ctas * (h + 2), 2);
            if cfg.precision == PrecisionMode::I8 {
                // Quantized operand mirror for the widest layer's SpMM
                // input: 1 B codes plus one i16 exponent per 64-element
                // scale block.
                m.alloc("i8_codes", n * h, 1);
                m.alloc("i8_block_exponents", (n * h).div_ceil(64), 2);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_graph::datasets::Dataset;

    fn quick_cfg(model: ModelKind, precision: PrecisionMode, epochs: usize) -> TrainConfig {
        TrainConfig {
            model,
            precision,
            epochs,
            hidden: 16,
            lr: 0.02,
            seed: 1,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn gcn_float_learns_cora() {
        let data = Dataset::cora().load(42);
        let r = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::Float, 30));
        assert!(r.nan_epoch.is_none());
        assert!(r.final_train_accuracy > 0.75, "train accuracy {}", r.final_train_accuracy);
        assert!(r.test_accuracy > 0.6, "test accuracy {}", r.test_accuracy);
        assert!(r.losses.first().unwrap() > r.losses.last().unwrap());
    }

    #[test]
    fn gcn_halfgnn_matches_float_accuracy() {
        let data = Dataset::cora().load(42);
        let f = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::Float, 30));
        let h = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 30));
        assert!(h.nan_epoch.is_none(), "HalfGNN must not NaN");
        assert!(
            (f.final_train_accuracy - h.final_train_accuracy).abs() < 0.05,
            "float {} vs halfgnn {}",
            f.final_train_accuracy,
            h.final_train_accuracy
        );
    }

    #[test]
    fn gcn_i8_tracks_halfgnn_accuracy_with_clean_saturation() {
        let data = Dataset::cora().load(42);
        let h = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 30));
        let q = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::I8, 30));
        assert!(q.nan_epoch.is_none(), "I8 must not NaN");
        assert!(
            (h.final_train_accuracy - q.final_train_accuracy).abs() < 0.05,
            "halfgnn {} vs i8 {}",
            h.final_train_accuracy,
            q.final_train_accuracy
        );
        // Per-block scales are derived from each block's own max-abs, so
        // a finite input can never be out of range for its own scale.
        assert!(q.first_saturation().is_none(), "{:?}", q.first_saturation());
        let quantized: u64 = q.saturation_per_epoch.iter().map(|s| s.quantized).sum();
        assert!(quantized > 0, "the I8 run must actually quantize");
        // The non-I8 run never touches the quantizer.
        let hq: u64 = h.saturation_per_epoch.iter().map(|s| s.quantized).sum();
        assert_eq!(hq, 0);
    }

    #[test]
    fn i8_runs_are_a_pure_function_of_the_seed() {
        let data = Dataset::cora().load(42);
        let a = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::I8, 5));
        let b = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::I8, 5));
        assert_eq!(a.losses, b.losses, "identical seeds must replay bitwise");
        let mut cfg = quick_cfg(ModelKind::Gcn, PrecisionMode::I8, 5);
        cfg.seed = 7;
        let c = train(&data, &cfg);
        assert_ne!(a.losses, c.losses, "the seed must actually reach the rounding");
    }

    #[test]
    fn halfgnn_trains_faster_than_naive_half() {
        // Needs a graph big enough to fill more than one scheduling wave
        // (like the paper's G4-G16); tiny Cora hides kernel quality behind
        // launch overheads.
        let data = Dataset::hollywood09().load(42);
        let naive = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::HalfNaive, 2));
        let ours = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 2));
        assert!(
            ours.epoch_time_us < naive.epoch_time_us,
            "halfgnn {} vs naive {}",
            ours.epoch_time_us,
            naive.epoch_time_us
        );
    }

    #[test]
    fn half_uses_less_memory_than_float() {
        let data = Dataset::cora().load(42);
        let f = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::Float, 1));
        let h = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 1));
        let ratio = f.peak_memory_bytes as f64 / h.peak_memory_bytes as f64;
        assert!(ratio > 1.8, "memory ratio {ratio:.2}");
    }

    #[test]
    fn gin_float_learns() {
        let data = Dataset::citeseer().load(7);
        let r = train(&data, &quick_cfg(ModelKind::Gin, PrecisionMode::Float, 30));
        assert!(r.nan_epoch.is_none());
        assert!(r.final_train_accuracy > 0.7, "accuracy {}", r.final_train_accuracy);
    }

    #[test]
    fn gat_float_learns() {
        let data = Dataset::cora().load(42);
        let r = train(&data, &quick_cfg(ModelKind::Gat, PrecisionMode::Float, 30));
        assert!(r.nan_epoch.is_none());
        assert!(r.final_train_accuracy > 0.7, "accuracy {}", r.final_train_accuracy);
    }

    #[test]
    fn overflow_provenance_is_clean_and_active_on_healthy_half_runs() {
        let data = Dataset::cora().load(42);
        let r = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 3));
        assert_eq!(r.overflow_per_epoch.len(), 3);
        assert!(r.first_overflow().is_none(), "Cora has no overflow-grade hubs");
        // The recorder must actually be watching: a half step converts.
        assert!(r.overflow_per_epoch[0].conversions > 0);
    }

    #[test]
    fn overflow_provenance_sees_nothing_in_float_runs() {
        let data = Dataset::cora().load(42);
        let r = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::Float, 2));
        assert!(r.first_overflow().is_none());
        assert_eq!(r.overflow_per_epoch[0].conversions, 0);
    }

    #[test]
    fn fast_exec_reproduces_sim_training_bit_for_bit() {
        // The executor contract end-to-end: a whole training run — SpMM,
        // SDDMM, edge ops, matmuls, Adam — must produce identical losses
        // and accuracy whether kernels run under the cost model or on real
        // threads, at any thread count.
        let data = Dataset::cora().load(42);
        let base = quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 4);
        let sim = train(&data, &base);
        for threads in [1, 2, 0] {
            let fast = train(
                &data,
                &TrainConfig { exec: ExecMode::fast_with_threads(threads), ..base.clone() },
            );
            assert_eq!(
                sim.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                fast.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
            assert_eq!(sim.final_train_accuracy, fast.final_train_accuracy);
            // Fast epochs report measured wall-clock, not modeled time.
            assert!(fast.epoch_time_us > 0.0);
        }
    }

    #[test]
    fn fused_gat_training_saves_dram_and_tracks_the_unfused_losses() {
        let data = Dataset::cora().load(42);
        let base = quick_cfg(ModelKind::Gat, PrecisionMode::HalfGnn, 5);
        let unfused = train(&data, &base);
        let fused = train(&data, &TrainConfig { fusion: true, ..base.clone() });
        // Fusion eliminates intermediate round-trips: fewer launches and
        // strictly less modeled DRAM traffic, with no overflow events.
        assert!(unfused.dram_bytes_per_epoch > 0);
        assert!(
            fused.dram_bytes_per_epoch < unfused.dram_bytes_per_epoch,
            "fused {} vs unfused {}",
            fused.dram_bytes_per_epoch,
            unfused.dram_bytes_per_epoch
        );
        assert!(fused.kernels_per_epoch < unfused.kernels_per_epoch);
        assert!(fused.nan_epoch.is_none());
        assert!(fused.overflow_per_epoch.iter().all(overflow::Summary::is_clean));
        // Same optimization trajectory within half rounding of the
        // re-associated fused reductions.
        for (a, b) in unfused.losses.iter().zip(&fused.losses) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        // The breakdown's per-kernel bytes must account for the total.
        let sum: u64 = fused.kernel_breakdown.iter().map(|(_, _, _, b)| b).sum();
        assert_eq!(sum, fused.dram_bytes_per_epoch);
    }

    #[test]
    fn sharded_float_training_is_bit_identical_and_meters_comms() {
        // The tentpole's correctness anchor at the trainer level: float
        // sharded runs paste bitwise slices of the single-device kernels
        // and all-reduce exactly (ledger charges only), so every loss of
        // every epoch must be bit-for-bit the shards=1 run — only the
        // comms fields change.
        let data = Dataset::cora().load(42);
        let base = quick_cfg(ModelKind::Gcn, PrecisionMode::Float, 5);
        let single = train(&data, &base);
        assert_eq!(single.comms_bytes_per_epoch, 0, "one device has no interconnect");
        for shards in [2usize, 4] {
            for topology in [Topology::Ring, Topology::AllToAll] {
                let sharded = train(&data, &TrainConfig { shards, topology, ..base.clone() });
                assert_eq!(
                    single.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                    sharded.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                    "shards={shards} {topology:?}"
                );
                assert_eq!(single.final_train_accuracy, sharded.final_train_accuracy);
                assert!(sharded.comms_halo_bytes_per_epoch > 0);
                assert!(sharded.comms_allreduce_bytes_per_epoch > 0);
                assert!(sharded.comms_time_us_per_epoch > 0.0);
                assert!(!sharded.link_breakdown.is_empty());
            }
        }
    }

    #[test]
    fn sharded_half_runs_move_half_the_halo_bytes_of_float() {
        // The headline BENCH_pr5 property end-to-end: identical row sets
        // cross the interconnect, at 2 B/element instead of 4. Citeseer's
        // even class count keeps the half pipeline's feature widths equal
        // to float's, so the halo ratio is exactly 2.
        let data = Dataset::citeseer().load(7);
        let mk = |precision| TrainConfig { shards: 4, ..quick_cfg(ModelKind::Gcn, precision, 3) };
        let f = train(&data, &mk(PrecisionMode::Float));
        let h = train(&data, &mk(PrecisionMode::HalfGnn));
        assert!(h.nan_epoch.is_none());
        assert!(h.overflow_per_epoch.iter().all(overflow::Summary::is_clean));
        assert!(h.comms_halo_bytes_per_epoch > 0);
        assert_eq!(
            2 * h.comms_halo_bytes_per_epoch,
            f.comms_halo_bytes_per_epoch,
            "half halo traffic must be exactly half of float's"
        );
        assert!(
            2 * h.comms_allreduce_bytes_per_epoch <= f.comms_allreduce_bytes_per_epoch + 1024,
            "f16-wire all-reduce must move about half the bytes: half {} vs float {}",
            h.comms_allreduce_bytes_per_epoch,
            f.comms_allreduce_bytes_per_epoch
        );
        assert!(h.comms_time_us_per_epoch < f.comms_time_us_per_epoch);
    }

    #[test]
    fn sharded_fast_exec_reproduces_sharded_sim_bit_for_bit() {
        // Executor contract × sharding: per-shard windowed launches, halo
        // gathers, and the discretized f16 all-reduce must be thread-count
        // invariant, so a sharded run under real OS threads reproduces the
        // sharded cost-model run exactly.
        let data = Dataset::cora().load(42);
        let base = TrainConfig {
            shards: 2,
            partition: PartitionStrategy::DegreeBalanced,
            ..quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 4)
        };
        let sim = train(&data, &base);
        assert!(sim.nan_epoch.is_none());
        for threads in [1, 4] {
            let fast = train(
                &data,
                &TrainConfig { exec: ExecMode::fast_with_threads(threads), ..base.clone() },
            );
            assert_eq!(
                sim.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                fast.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
            assert_eq!(sim.final_train_accuracy, fast.final_train_accuracy);
        }
    }

    #[test]
    fn every_model_trains_sharded_without_overflow() {
        // All four architectures must survive the sharded half dispatch:
        // finite losses, zero overflow events, and nonzero metered comms.
        let data = Dataset::cora().load(42);
        for model in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat, ModelKind::Sage] {
            let r = train(
                &data,
                &TrainConfig { shards: 3, ..quick_cfg(model, PrecisionMode::HalfGnn, 3) },
            );
            assert!(r.nan_epoch.is_none(), "{model:?} NaNed sharded");
            assert!(
                r.overflow_per_epoch.iter().all(overflow::Summary::is_clean),
                "{model:?} overflowed sharded"
            );
            assert!(r.comms_bytes_per_epoch > 0, "{model:?} metered no comms");
        }
    }

    #[test]
    fn one5d_float_training_is_bit_identical_and_charges_less_halo() {
        // The tentpole's trainer-level contract: the 1.5D partition runs
        // the exact DegreeBalanced kernel windows (float losses bitwise
        // the single-device run's) while the group-union wire charge
        // strictly undercuts 1D's per-shard halo replication.
        let data = Dataset::cora().load(42);
        let base = quick_cfg(ModelKind::Gcn, PrecisionMode::Float, 4);
        let single = train(&data, &base);
        let balanced = train(
            &data,
            &TrainConfig {
                shards: 4,
                partition: PartitionStrategy::DegreeBalanced,
                ..base.clone()
            },
        );
        let one5d = train(
            &data,
            &TrainConfig {
                shards: 4,
                partition: PartitionStrategy::OneP5D { c: 2 },
                ..base.clone()
            },
        );
        assert_eq!(bits(&single.losses), bits(&one5d.losses), "1.5D float diverged");
        assert_eq!(single.final_train_accuracy, one5d.final_train_accuracy);
        assert!(one5d.comms_halo_bytes_per_epoch > 0);
        assert!(
            one5d.comms_halo_bytes_per_epoch < balanced.comms_halo_bytes_per_epoch,
            "1.5D halo {} must undercut 1D's {}",
            one5d.comms_halo_bytes_per_epoch,
            balanced.comms_halo_bytes_per_epoch
        );
        // Same cuts ⇒ same all-reduce payloads.
        assert_eq!(one5d.comms_allreduce_bytes_per_epoch, balanced.comms_allreduce_bytes_per_epoch);
    }

    #[test]
    fn every_model_trains_on_the_one5d_partition() {
        let data = Dataset::cora().load(42);
        for model in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat, ModelKind::Sage] {
            let r = train(
                &data,
                &TrainConfig {
                    shards: 4,
                    partition: PartitionStrategy::OneP5D { c: 2 },
                    ..quick_cfg(model, PrecisionMode::HalfGnn, 3)
                },
            );
            assert!(r.nan_epoch.is_none(), "{model:?} NaNed on 1.5D");
            assert!(
                r.overflow_per_epoch.iter().all(overflow::Summary::is_clean),
                "{model:?} overflowed on 1.5D"
            );
            assert!(r.comms_bytes_per_epoch > 0, "{model:?} metered no comms");
        }
    }

    #[test]
    fn overlap_beats_serialized_and_the_halo_cache_warms_up() {
        // Satellite: the overlap model and cache counters surface in the
        // report. Cache counters are read at the LAST epoch (steady state:
        // Cora's input features are static, so every halo row hits), while
        // the timeline snapshot is epoch 0 — the prefetch model must hide
        // at least one halo under compute on every sharded config.
        // Note shards 4 for 1.5D: at shards == c the single replication
        // group owns every row, halo traffic is zero, and there is nothing
        // left to hide (overlapped == serialized by construction).
        let data = Dataset::cora().load(42);
        for (shards, partition) in
            [(2, PartitionStrategy::DegreeBalanced), (4, PartitionStrategy::OneP5D { c: 2 })]
        {
            let r = train(
                &data,
                &TrainConfig {
                    shards,
                    partition,
                    ..quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 3)
                },
            );
            assert!(
                r.comms_overlapped_us < r.comms_serialized_us,
                "{partition:?}: overlapped {} must beat serialized {}",
                r.comms_overlapped_us,
                r.comms_serialized_us
            );
            // Steady state (last epoch): the static input-feature rows are
            // served locally, while activation/gradient exchanges change
            // every step and must keep paying wire bytes.
            assert!(r.halo_cache_hits > 0, "{partition:?}: static features must hit");
            assert!(r.halo_cache_misses > 0, "{partition:?}: changed rows must refetch");
            assert!(r.halo_cache_bytes_saved > 0, "{partition:?}");
        }
        // Single-device runs have no interconnect and no cache.
        let single = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 2));
        assert_eq!(single.comms_serialized_us, 0.0);
        assert_eq!((single.halo_cache_hits, single.halo_cache_misses), (0, 0));
    }

    #[test]
    fn replay_is_bit_identical_under_the_one5d_partition() {
        // Capture/replay × 1.5D: halo gathers always run (the cache only
        // changes the ledger), so the captured kernel sequence replays
        // bit-for-bit under the new partition too.
        let data = Dataset::cora().load(42);
        let base = TrainConfig {
            shards: 4,
            partition: PartitionStrategy::OneP5D { c: 2 },
            ..quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 4)
        };
        let eager = train(&data, &base);
        let replay = train(&data, &TrainConfig { replay: true, ..base });
        assert_eq!(bits(&eager.losses), bits(&replay.losses), "1.5D replay diverged");
        assert!(replay.replay.is_some());
    }

    #[test]
    fn odd_class_count_is_padded_for_half() {
        // Cora has 7 classes; half paths pad to 8 and still train.
        let data = Dataset::cora().load(42);
        let r = train(&data, &quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 10));
        assert!(r.nan_epoch.is_none());
        assert!(r.final_train_accuracy > 0.4);
    }

    fn bits(losses: &[f32]) -> Vec<u32> {
        losses.iter().map(|l| l.to_bits()).collect()
    }

    #[test]
    fn replay_is_bit_identical_to_eager_for_every_model() {
        // The tentpole contract: epoch 0 captures, every later epoch
        // replays pre-resolved plans with launch overhead stripped — and
        // the losses stay bit-for-bit the eager run's for all four
        // architectures in both precisions.
        let data = Dataset::cora().load(42);
        for model in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat, ModelKind::Sage] {
            for precision in [PrecisionMode::Float, PrecisionMode::HalfGnn] {
                let base = quick_cfg(model, precision, 4);
                let eager = train(&data, &base);
                assert!(eager.replay.is_none(), "eager runs must not report a replay summary");
                let replay = train(&data, &TrainConfig { replay: true, ..base });
                assert_eq!(
                    bits(&eager.losses),
                    bits(&replay.losses),
                    "{model:?} {precision:?} replay diverged"
                );
                assert_eq!(eager.final_train_accuracy, replay.final_train_accuracy);
                let s = replay.replay.expect("replay runs must report a summary");
                assert!(s.nodes > 0 && s.buffers > 0, "{model:?} captured an empty graph");
                assert!(
                    s.saved_cycles > 0.0,
                    "{model:?} {precision:?} replay stripped no launch overhead"
                );
                assert!(
                    s.peak_bytes > 0 && s.peak_bytes <= s.eager_bytes,
                    "{model:?} arena peak {} vs eager {}",
                    s.peak_bytes,
                    s.eager_bytes
                );
                // Replayed epochs are modeled strictly cheaper than the
                // capture epoch: same kernels minus the launch charges.
                assert!(
                    replay.replay_epoch_time_us > 0.0
                        && replay.replay_epoch_time_us < replay.epoch_time_us,
                    "{model:?} {precision:?} replay epoch {} vs capture epoch {}",
                    replay.replay_epoch_time_us,
                    replay.epoch_time_us
                );
            }
        }
    }

    #[test]
    fn replay_arena_plans_smaller_buffers_in_half() {
        // The arena's peak over the half pipeline's 2 B/element buffers
        // must come in well under the float pipeline's.
        let data = Dataset::cora().load(42);
        let mk =
            |precision| TrainConfig { replay: true, ..quick_cfg(ModelKind::Gcn, precision, 2) };
        let f = train(&data, &mk(PrecisionMode::Float)).replay.unwrap();
        let h = train(&data, &mk(PrecisionMode::HalfGnn)).replay.unwrap();
        let ratio = f.peak_bytes as f64 / h.peak_bytes as f64;
        assert!(
            ratio > 1.5,
            "arena peak ratio {ratio:.2} (float {} half {})",
            f.peak_bytes,
            h.peak_bytes
        );
        // Reuse must actually bite: the plan packs strictly tighter than
        // one-slab-per-buffer for both precisions.
        assert!(f.peak_bytes < f.eager_bytes);
        assert!(h.peak_bytes < h.eager_bytes);
    }

    #[test]
    fn replay_matches_eager_sharded_and_under_fast_exec() {
        // Replay × shards × real threads: plans are captured and consumed
        // per shard window, so sharded replay — under the cost model and
        // under real OS threads at any count — must reproduce the eager
        // sharded run exactly.
        let data = Dataset::cora().load(42);
        for shards in [1usize, 4] {
            let base =
                TrainConfig { shards, ..quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, 4) };
            let eager = train(&data, &base);
            let sim = train(&data, &TrainConfig { replay: true, ..base.clone() });
            assert_eq!(bits(&eager.losses), bits(&sim.losses), "sim shards={shards}");
            for threads in [1, 4] {
                let fast = train(
                    &data,
                    &TrainConfig {
                        replay: true,
                        exec: ExecMode::fast_with_threads(threads),
                        ..base.clone()
                    },
                );
                assert_eq!(
                    bits(&eager.losses),
                    bits(&fast.losses),
                    "fast shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn replay_freezes_tuner_lookups_after_capture() {
        // Replay epochs resolve zero kernel plans, so the tuner is
        // consulted only during the capture epoch: an eager tuned run
        // looks up the same keys every epoch, a replay run exactly once.
        let data = Dataset::cora().load(42);
        let epochs = 5;
        let base = TrainConfig {
            tuning: Tuning::Auto,
            ..quick_cfg(ModelKind::Gcn, PrecisionMode::HalfGnn, epochs)
        };
        let eager = train(&data, &base);
        let replay = train(&data, &TrainConfig { replay: true, ..base });
        assert_eq!(bits(&eager.losses), bits(&replay.losses), "tuned replay diverged");
        let e = eager.tuning_counters.unwrap();
        let r = replay.tuning_counters.unwrap();
        // Same first epoch ⇒ same misses and evaluations; after that the
        // replay run never touches the cache again.
        assert_eq!(e.misses, r.misses);
        assert_eq!(e.evaluations, r.evaluations);
        assert_eq!(
            e.hits + e.misses,
            epochs as u64 * (r.hits + r.misses),
            "eager {e:?} vs replay {r:?}"
        );
    }
}

#[cfg(test)]
mod minibatch_tests {
    use super::*;
    use halfgnn_graph::datasets::Dataset;

    fn mb_cfg(precision: PrecisionMode, epochs: usize) -> TrainConfig {
        TrainConfig {
            model: ModelKind::Gcn,
            precision,
            epochs,
            hidden: 16,
            lr: 0.02,
            seed: 1,
            batch_size: Some(128),
            fanout: 10,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn minibatch_reaches_full_batch_accuracy() {
        // The acceptance criterion: sampled training lands within ε of the
        // full-batch accuracies, in float and in half.
        let data = Dataset::cora().load(42);
        for precision in [PrecisionMode::Float, PrecisionMode::HalfGnn] {
            let base = TrainConfig { batch_size: None, ..mb_cfg(precision, 20) };
            let full = train(&data, &base);
            let mb = train(&data, &mb_cfg(precision, 20));
            assert!(mb.nan_epoch.is_none(), "{precision:?} NaNed");
            assert!(
                (full.final_train_accuracy - mb.final_train_accuracy).abs() < 0.08,
                "{precision:?} train: full {} vs mini-batch {}",
                full.final_train_accuracy,
                mb.final_train_accuracy
            );
            assert!(
                (full.test_accuracy - mb.test_accuracy).abs() < 0.08,
                "{precision:?} test: full {} vs mini-batch {}",
                full.test_accuracy,
                mb.test_accuracy
            );
            let s = mb.sampling.expect("mini-batch runs report sampling");
            assert_eq!(
                s.batches_per_epoch,
                data.split.train.iter().filter(|&&t| t).count().div_ceil(128)
            );
            assert!(s.max_batch_vertices > 0 && s.mean_batch_edges > 0.0);
            assert!(full.sampling.is_none(), "full-batch runs must not report sampling");
        }
    }

    #[test]
    fn streaming_inserts_mid_training_stay_cache_hit() {
        // The delta-CSR claim, measured: edges ingested halfway through
        // training (no CSR rebuild — the overlay's base is untouched) and
        // the tuner's per-batch-shape keys keep hitting after the delta.
        let data = Dataset::cora().load(42);
        let cfg = TrainConfig {
            stream_edges: 200,
            tuning: Tuning::Auto,
            ..mb_cfg(PrecisionMode::HalfGnn, 8)
        };
        let r = train(&data, &cfg);
        assert!(r.nan_epoch.is_none());
        assert!(r.overflow_per_epoch.iter().all(overflow::Summary::is_clean));
        let s = r.sampling.expect("sampling summary");
        assert_eq!(s.streamed_edges, 200, "every drawn edge should be new on Cora");
        assert_eq!(s.stream_epoch, Some(4));
        let post = s.post_stream_tuning.expect("tuned streaming run measures post-delta cache");
        let hit_rate = post.hits as f64 / (post.hits + post.misses).max(1) as f64;
        assert!(
            hit_rate > 0.5,
            "post-delta tuner hit rate {hit_rate:.2} ({} hits, {} misses)",
            post.hits,
            post.misses
        );
    }

    #[test]
    fn minibatch_fast_exec_is_bit_identical_to_sim() {
        // Sampling is keyed (order/thread independent) and the executor
        // contract holds per batch, so the whole mini-batch run must be
        // bitwise reproducible across backends and thread counts.
        let data = Dataset::cora().load(42);
        let base = mb_cfg(PrecisionMode::HalfGnn, 3);
        let sim = train(&data, &base);
        for threads in [1, 4] {
            let fast = train(
                &data,
                &TrainConfig { exec: ExecMode::fast_with_threads(threads), ..base.clone() },
            );
            assert_eq!(
                sim.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                fast.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
            assert_eq!(sim.final_train_accuracy, fast.final_train_accuracy);
        }
    }

    #[test]
    fn every_model_trains_minibatch_half_cleanly() {
        let data = Dataset::cora().load(42);
        for precision in [PrecisionMode::HalfGnn, PrecisionMode::I8] {
            for model in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat, ModelKind::Sage] {
                let r = train(&data, &TrainConfig { model, ..mb_cfg(precision, 3) });
                assert!(r.nan_epoch.is_none(), "{model:?} {precision:?} NaNed mini-batch");
                assert!(
                    r.overflow_per_epoch.iter().all(overflow::Summary::is_clean),
                    "{model:?} {precision:?} overflowed mini-batch"
                );
                assert!(
                    r.overflow_per_epoch[0].conversions > 0,
                    "{model:?} {precision:?} recorder inactive"
                );
                if precision == PrecisionMode::I8 {
                    for (epoch, s) in r.saturation_per_epoch.iter().enumerate() {
                        assert_eq!(s.flagged(), 0, "{model:?} epoch {epoch} saturated: {s:?}");
                        assert!(s.quantized > 0, "{model:?} epoch {epoch} never quantized");
                    }
                }
            }
        }
    }

    #[test]
    fn tuned_minibatch_evaluation_dispatches_through_the_runs_tuner() {
        // Every step of a model makes the same plan lookups, whatever the
        // graph: `k` per step, measured on a one-step full-batch run. A
        // tuned mini-batch run steps once per batch and once more for the
        // final full-graph evaluation, which uses the run's dispatch.
        let data = Dataset::cora().load(42);
        let lookups = |r: &TrainReport| r.tuning_counters.map(|c| c.hits + c.misses).unwrap();
        let tuned = |batch_size, epochs| {
            let cfg =
                TrainConfig { tuning: Tuning::Auto, ..mb_cfg(PrecisionMode::HalfGnn, epochs) };
            train(&data, &TrainConfig { batch_size, ..cfg })
        };
        let k = lookups(&tuned(None, 1));
        let epochs = 2;
        let mb = tuned(Some(128), epochs);
        let batches = mb.sampling.as_ref().unwrap().batches_per_epoch as u64;
        assert_eq!(lookups(&mb), (batches * epochs as u64 + 1) * k, "k = {k}");
    }

    #[test]
    fn invalid_configs_are_rejected_by_name() {
        let ok = TrainConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let one5d = PartitionStrategy::OneP5D { c: 2 };
        let cases: [(TrainConfig, ConfigError); 12] = [
            (
                TrainConfig { replay: true, batch_size: Some(64), ..ok.clone() },
                ConfigError::ReplayWithMiniBatch(CaptureRefused::MiniBatchSchedule),
            ),
            (
                TrainConfig { shards: 2, batch_size: Some(64), ..ok.clone() },
                ConfigError::ShardedMiniBatch,
            ),
            (TrainConfig { stream_edges: 10, ..ok.clone() }, ConfigError::StreamingNeedsMiniBatch),
            (TrainConfig { batch_size: Some(0), ..ok.clone() }, ConfigError::ZeroBatchSize),
            (
                TrainConfig { batch_size: Some(64), fanout: 0, ..ok.clone() },
                ConfigError::ZeroFanout,
            ),
            (
                TrainConfig { partition: one5d, replication: Some(0), ..ok.clone() },
                ConfigError::ZeroReplication,
            ),
            (
                TrainConfig { shards: 4, replication: Some(2), ..ok.clone() },
                ConfigError::ReplicationRequiresOneP5D,
            ),
            (
                TrainConfig { shards: 3, partition: one5d, ..ok.clone() },
                ConfigError::ReplicationDoesNotDivideShards,
            ),
            // --i8-block outside i8 mode is named even when the value is
            // itself bad: the mode mismatch is the root cause.
            (TrainConfig { i8_block: Some(64), ..ok.clone() }, ConfigError::QuantBlockWithoutI8),
            (
                TrainConfig { precision: PrecisionMode::I8, i8_block: Some(48), ..ok.clone() },
                ConfigError::BadQuantBlock,
            ),
            (
                TrainConfig { precision: PrecisionMode::I8, i8_block: Some(0), ..ok.clone() },
                ConfigError::BadQuantBlock,
            ),
            (
                TrainConfig { precision: PrecisionMode::I8, i8_block: Some(512), ..ok.clone() },
                ConfigError::BadQuantBlock,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
        // Legal i8 block sizes pass in i8 mode.
        for b in [16usize, 64, 256] {
            let cfg = TrainConfig { precision: PrecisionMode::I8, i8_block: Some(b), ..ok.clone() };
            assert_eq!(cfg.validate(), Ok(()), "--i8-block {b}");
        }
        // Legal 1.5D configs pass, and --replication folds into the
        // strategy's factor.
        let good = TrainConfig { shards: 4, partition: one5d, ..ok.clone() };
        assert_eq!(good.validate(), Ok(()));
        let overridden =
            TrainConfig { shards: 4, partition: one5d, replication: Some(4), ..ok.clone() };
        assert_eq!(overridden.validate(), Ok(()));
        assert_eq!(overridden.effective_partition(), PartitionStrategy::OneP5D { c: 4 });
    }

    #[test]
    #[should_panic(expected = "invalid config: --replay is incompatible with --batch-size")]
    fn replay_with_batch_size_panics_with_the_named_error() {
        // Never the ExecGraph divergence panic: the config is refused up
        // front with the capture-refusal reason in the message.
        let data = Dataset::cora().load(42);
        train(&data, &TrainConfig { replay: true, ..mb_cfg(PrecisionMode::Float, 2) });
    }
}

#[cfg(test)]
mod loss_scale_tests {
    use super::*;
    use halfgnn_graph::datasets::Dataset;

    #[test]
    fn loss_scaling_changes_nothing_when_gradients_are_healthy() {
        let data = Dataset::cora().load(42);
        let base = TrainConfig {
            model: ModelKind::Gcn,
            precision: PrecisionMode::HalfGnn,
            epochs: 8,
            ..TrainConfig::default()
        };
        let unscaled = train(&data, &base);
        let scaled = train(&data, &TrainConfig { loss_scale: 128.0, ..base.clone() });
        assert!(unscaled.nan_epoch.is_none() && scaled.nan_epoch.is_none());
        // Same trajectory within FP16 rounding of the scaled backward.
        for (a, b) in unscaled.losses.iter().zip(&scaled.losses) {
            assert!((a - b).abs() < 0.15 + 0.05 * a.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn loss_scaling_rescues_underflowing_gradients() {
        // A large masked set makes per-vertex loss gradients ~1/|train| ~
        // 4e-4; dividing across a wide hidden layer pushes weight-gradient
        // contributions below the FP16 subnormal range. Scale 1024 keeps
        // them alive. We check the *gradient signal*, not luck: the scaled
        // run must decrease loss at least as well as the unscaled one.
        let data = Dataset::pubmed().load(9);
        let base = TrainConfig {
            model: ModelKind::Gcn,
            precision: PrecisionMode::HalfGnn,
            epochs: 12,
            lr: 0.005,
            ..TrainConfig::default()
        };
        let unscaled = train(&data, &base);
        let scaled = train(&data, &TrainConfig { loss_scale: 1024.0, ..base.clone() });
        assert!(scaled.nan_epoch.is_none(), "scale 1024 must not overflow the backward");
        let drop_unscaled = unscaled.losses[0] - unscaled.losses.last().unwrap();
        let drop_scaled = scaled.losses[0] - scaled.losses.last().unwrap();
        assert!(
            drop_scaled >= 0.8 * drop_unscaled,
            "scaled run should train at least comparably: {drop_scaled} vs {drop_unscaled}"
        );
    }
}
