//! The serving engine: closed-loop request processing over a trained
//! two-layer GCN.
//!
//! Per miss batch: coalesce (batcher) → gather the ball's feature rows →
//! forward-only GCN on the induced subgraph → per-request logit rows.
//! Everything is modeled-time accounting: kernel µs from the cost model,
//! remote-shard halo-fetch µs from the interconnect model, queueing from
//! the single-accelerator closed loop in [`ServeEngine::serve_trace`].
//! No gradient, optimizer, or activation-stash buffers exist anywhere on
//! this path — which is what makes the arena-planned inference footprint
//! (see [`ServeEngine::inference_footprint`]) a fraction of a training
//! step's.

use crate::batcher::{coalesce, Batch};
use crate::cache::EmbeddingCache;
use crate::config::{ServeConfig, ServeConfigError};
use halfgnn_exec::{ExecCtx, ReplaySummary};
use halfgnn_graph::reach::khop_ball;
use halfgnn_graph::{partition, Csr, DeltaCsr, ShardPlan, VertexId};
use halfgnn_half::slice::f32_slice_to_half;
use halfgnn_half::Half;
use halfgnn_nn::gcn;
use halfgnn_nn::graphdata::GraphView;
use halfgnn_nn::models::{Dispatch, GcnNorm};
use halfgnn_nn::params::TwoLayerParams;
use halfgnn_nn::snapshot::ModelSnapshot;
use halfgnn_nn::trainer::ModelKind;
use halfgnn_sim::{CommsLedger, DeviceConfig, Interconnect, TrafficClass};
use halfgnn_tensor::Ops;
use halfgnn_tune::{Tuner, TunerCounters};

/// Modeled cost of answering a request from the embedding cache (a
/// host-side hash probe; never touches the accelerator queue).
pub const CACHE_LOOKUP_US: f64 = 0.5;

/// Lifetime counters for one engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Requests processed by [`ServeEngine::serve_trace`].
    pub requests: u64,
    /// Requests answered by the cache.
    pub cache_hits: u64,
    /// Batched kernel launches (miss batches).
    pub batches: u64,
    /// Miss requests served through those batches.
    pub coalesced_requests: u64,
    /// Batches replayed from the captured steady-state kernel sequence.
    pub replayed_batches: u64,
    /// Remote-shard halo feature bytes fetched.
    pub halo_bytes: u64,
    /// Modeled halo-fetch time, µs.
    pub halo_time_us: f64,
    /// Modeled kernel time, µs.
    pub kernel_time_us: f64,
    /// Largest coalesced subgraph (vertices).
    pub max_batch_vertices: usize,
    /// Cache entries dropped by edge-insert invalidation.
    pub invalidated_entries: u64,
}

/// Result of serving one coalesced batch.
pub struct ServedBatch {
    /// One logit row per *request*, in request order (duplicates get
    /// identical rows).
    pub outputs: Vec<Vec<f32>>,
    /// Modeled halo-fetch time for the batch, µs.
    pub fetch_us: f64,
    /// Modeled kernel time for the batch, µs.
    pub kernel_us: f64,
    /// Coalesced subgraph size.
    pub batch_vertices: usize,
    /// Whether this batch replayed the captured kernel sequence.
    pub replayed: bool,
}

struct CaptureState {
    n: usize,
    nnz: usize,
    ctx: ExecCtx,
}

/// A forward-only inference engine over one trained model and one
/// (mutable, delta-overlaid) serving graph.
pub struct ServeEngine<'d> {
    dev: &'d DeviceConfig,
    cfg: ServeConfig,
    graph: DeltaCsr,
    x: Vec<f32>,
    xh: Vec<Half>,
    f_in: usize,
    params: TwoLayerParams,
    cache: EmbeddingCache,
    plan: Option<ShardPlan>,
    ic: Option<Interconnect>,
    tuner: Option<Tuner>,
    capture: Option<CaptureState>,
    pub stats: ServeStats,
}

impl<'d> ServeEngine<'d> {
    /// Build an engine over `adj` (the symmetric serving graph, typically
    /// Â = A + Aᵀ + I), per-vertex `features` (`n × f_in` row-major), and
    /// trained `params`. Rejects invalid configs and half-precision
    /// serving of odd-width models by name.
    pub fn new(
        dev: &'d DeviceConfig,
        adj: &Csr,
        features: &[f32],
        f_in: usize,
        params: TwoLayerParams,
        cfg: ServeConfig,
    ) -> Result<ServeEngine<'d>, ServeConfigError> {
        cfg.validate()?;
        assert!(adj.is_symmetric(), "serving graph must be symmetric");
        assert_eq!(features.len(), adj.num_rows() * f_in, "feature table shape");
        let is_half = cfg.precision.is_half();
        if is_half
            && (!f_in.is_multiple_of(2)
                || !params.classes.is_multiple_of(2)
                || !params.hidden.is_multiple_of(2))
        {
            return Err(ServeConfigError::OddWidthForHalf);
        }
        let xh = if is_half { f32_slice_to_half(features) } else { Vec::new() };
        let cache = EmbeddingCache::new(cfg.cache_bytes, params.classes, cfg.cache_precision);
        let (plan, ic) = if cfg.shards > 1 {
            (
                Some(partition(adj, cfg.shards, cfg.partition)),
                Some(Interconnect::nvlink_like(cfg.shards, cfg.topology)),
            )
        } else {
            (None, None)
        };
        let tuner = cfg.tuning.then(|| Tuner::auto(dev));
        Ok(ServeEngine {
            dev,
            cfg,
            graph: DeltaCsr::new(adj.clone()),
            x: features.to_vec(),
            xh,
            f_in,
            params,
            cache,
            plan,
            ic,
            tuner,
            capture: None,
            stats: ServeStats::default(),
        })
    }

    /// Build from a trainer-written snapshot (the production handoff).
    pub fn from_snapshot(
        dev: &'d DeviceConfig,
        adj: &Csr,
        features: &[f32],
        f_in: usize,
        snap: &ModelSnapshot,
        cfg: ServeConfig,
    ) -> Result<ServeEngine<'d>, ServeConfigError> {
        if !matches!(snap.model, ModelKind::Gcn) {
            return Err(ServeConfigError::SnapshotModelUnsupported);
        }
        let mut params = TwoLayerParams::new(snap.f_in, snap.hidden, snap.classes, 0);
        if snap.len() != params.num_params() || snap.f_in != f_in {
            return Err(ServeConfigError::SnapshotDimsMismatch);
        }
        params.set_flat(&snap.flat_f32());
        ServeEngine::new(dev, adj, features, f_in, params, cfg)
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub fn cache(&self) -> &EmbeddingCache {
        &self.cache
    }

    /// Mutable cache access (warm-up, manual installs, tests).
    pub fn cache_mut(&mut self) -> &mut EmbeddingCache {
        &mut self.cache
    }

    pub fn tuner_counters(&self) -> Option<TunerCounters> {
        self.tuner.as_ref().map(Tuner::counters)
    }

    pub fn num_vertices(&self) -> usize {
        self.graph.num_rows()
    }

    /// Serve `requests` as one coalesced batch, bypassing the cache and
    /// the closed-loop clock — the pure compute path. Deterministic and
    /// bitwise-equal to serving each request alone.
    pub fn embed(&mut self, requests: &[VertexId]) -> ServedBatch {
        let batch = coalesce(&self.graph, requests, self.cfg.hops);
        let (logits, kernel_us, replayed) = self.forward_batch(&batch);
        let (halo_bytes, fetch_us) = self.halo_fetch(&batch, requests[0]);
        let c = self.params.classes;
        let outputs: Vec<Vec<f32>> = requests
            .iter()
            .map(|&v| {
                let row = batch.local_of(v);
                logits[row * c..(row + 1) * c].to_vec()
            })
            .collect();
        self.stats.batches += 1;
        self.stats.coalesced_requests += requests.len() as u64;
        self.stats.halo_bytes += halo_bytes;
        self.stats.halo_time_us += fetch_us;
        self.stats.kernel_time_us += kernel_us;
        self.stats.max_batch_vertices = self.stats.max_batch_vertices.max(batch.n());
        if replayed {
            self.stats.replayed_batches += 1;
        }
        ServedBatch { outputs, fetch_us, kernel_us, batch_vertices: batch.n(), replayed }
    }

    /// The batched forward: gather the ball's feature rows, run the
    /// forward-only GCN on the induced subgraph. Handles steady-state
    /// capture/replay when the config asks for it.
    fn forward_batch(&mut self, batch: &Batch) -> (Vec<f32>, f64, bool) {
        // Capture/replay bookkeeping. Capture the first batch; replay any
        // later batch whose (n, nnz) matches the captured shape — an
        // identical subgraph shape yields an identical kernel sequence.
        // Other shapes fall back to eager execution.
        enum Mode {
            Eager,
            Capture,
            Replay,
        }
        let mode = if !self.cfg.replay {
            Mode::Eager
        } else {
            match &self.capture {
                None => Mode::Capture,
                Some(cs) if (cs.n, cs.nnz) == (batch.n(), batch.nnz()) => Mode::Replay,
                Some(_) => Mode::Eager,
            }
        };
        if matches!(mode, Mode::Capture) {
            self.capture =
                Some(CaptureState { n: batch.n(), nnz: batch.nnz(), ctx: ExecCtx::capturing() });
        }
        let exec = match mode {
            Mode::Eager => None,
            Mode::Capture | Mode::Replay => self.capture.as_ref().map(|cs| &cs.ctx),
        };
        if let Some(ctx) = exec {
            ctx.begin_epoch();
        }
        let (logits, kernel_us) = self.forward(batch, exec);

        let replayed = match mode {
            Mode::Eager => false,
            Mode::Capture => {
                self.capture.as_ref().expect("capture state").ctx.seal();
                false
            }
            Mode::Replay => {
                self.capture.as_ref().expect("capture state").ctx.end_epoch();
                true
            }
        };
        (logits, kernel_us, replayed)
    }

    /// Gather the ball's feature rows and run the forward-only GCN on the
    /// induced subgraph in the configured precision. Returns the logits
    /// and the modeled kernel time.
    fn forward(&self, batch: &Batch, exec: Option<&ExecCtx>) -> (Vec<f32>, f64) {
        let g = GraphView::full(&batch.csr);
        // Vertex-parallel SpMM is what makes coalescing bitwise-invisible:
        // its neighbor groups never cross rows, so a row's summation order
        // is batch-composition-independent. The edge-tiled skeletons cut
        // rows at global-edge-offset tile boundaries and would drift by
        // ULPs as the batch around a request changes.
        let dispatch = match &self.tuner {
            Some(t) => Dispatch::tuned(self.cfg.precision, t),
            None => Dispatch::untuned(self.cfg.precision),
        }
        .with_vertex_parallel_spmm(true)
        .with_exec(exec);
        let mut ops = Ops::new(self.dev).with_exec(exec);
        let logits = if self.cfg.precision.is_half() {
            let xs = ops.gather_rows_half(&self.xh, self.f_in, &batch.ball);
            gcn::forward(&mut ops, &g, &self.params, &xs, dispatch, GcnNorm::Right)
        } else {
            let xs = ops.gather_rows_f32(&self.x, self.f_in, &batch.ball);
            gcn::forward(&mut ops, &g, &self.params, &xs, dispatch, GcnNorm::Right)
        };
        (logits, ops.total_time_us())
    }

    /// Remote-shard halo fetch for one batch: the batch runs on the home
    /// shard of its first request; every ball vertex owned elsewhere
    /// ships its feature row over the interconnect (2 B/element in half,
    /// 4 B in float — the FP16 comms win, serving edition). Per-source
    /// rows coalesce into one message.
    fn halo_fetch(&self, batch: &Batch, first_request: VertexId) -> (u64, f64) {
        let (Some(plan), Some(ic)) = (&self.plan, &self.ic) else {
            return (0, 0.0);
        };
        let home = plan.owner_of(first_request as usize);
        let elem = if self.cfg.precision.is_half() { 2 } else { 4 };
        let mut per_src = vec![0u64; plan.num_shards()];
        for &v in &batch.ball {
            let owner = plan.owner_of(v as usize);
            if owner != home {
                per_src[owner] += (self.f_in * elem) as u64;
            }
        }
        let mut ledger = CommsLedger::new();
        for (src, &bytes) in per_src.iter().enumerate() {
            if bytes > 0 {
                ledger.message(ic, TrafficClass::Halo, src, home, bytes);
            }
        }
        (ledger.halo_bytes, ledger.total_time_us())
    }

    /// Ingest one undirected edge through the delta overlay and drop
    /// every cache entry the insert can have staled. Returns the number
    /// of directed edges actually new.
    ///
    /// Staleness bound: the insert changes rows (and degrees) of `u` and
    /// `v` only; a right-norm depth-`k` GCN's logits at `w` read row
    /// structure of vertices within `k − 1` hops of `w`, so on the
    /// symmetric serving graph the stale set is the `(hops − 1)`-ball of
    /// `{u, v}` — computed on the *post*-insert graph, whose ball is a
    /// superset of the pre-insert one (adding edges only shrinks
    /// distances).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> usize {
        let added = self.graph.insert_undirected(u, v);
        if added > 0 {
            let stale = khop_ball(&self.graph, &[u, v], self.cfg.hops - 1);
            self.stats.invalidated_entries += self.cache.invalidate(&stale) as u64;
        }
        added
    }

    /// Capture one batch's forward under a fresh exec context and return
    /// the arena-planned footprint — the inference working set the
    /// tentpole compares against a training step's peak.
    pub fn inference_footprint(&mut self, requests: &[VertexId]) -> ReplaySummary {
        let batch = coalesce(&self.graph, requests, self.cfg.hops);
        let ctx = ExecCtx::capturing();
        ctx.begin_epoch();
        self.forward(&batch, Some(&ctx));
        ctx.seal();
        ctx.summary()
    }

    /// Replay a request trace through the closed loop: one accelerator,
    /// FIFO admission, up to `batch_window` queued misses coalesced per
    /// launch. Cache hits are answered at arrival by the front end
    /// ([`CACHE_LOOKUP_US`]); completed batches install their requested
    /// vertices' embeddings. Returns per-request timings aligned with
    /// `trace`. Fully deterministic: modeled clocks only.
    pub fn serve_trace(
        &mut self,
        trace: &[halfgnn_sim::Request],
    ) -> Vec<halfgnn_sim::RequestTiming> {
        use halfgnn_sim::RequestTiming;
        let mut timings = vec![RequestTiming::default(); trace.len()];
        let mut pending: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut t_free = 0.0f64;
        let mut i = 0usize;

        // Front-end a request: cache hit → answered immediately; miss →
        // queued for the accelerator.
        macro_rules! front_end {
            ($j:expr) => {{
                let j = $j;
                self.stats.requests += 1;
                if self.cache.get(trace[j].vertex).is_some() {
                    self.stats.cache_hits += 1;
                    timings[j] = RequestTiming {
                        queue_us: 0.0,
                        fetch_us: 0.0,
                        kernel_us: CACHE_LOOKUP_US,
                        cache_hit: true,
                    };
                } else {
                    pending.push_back(j);
                }
            }};
        }

        while i < trace.len() || !pending.is_empty() {
            if pending.is_empty() {
                front_end!(i);
                i += 1;
                continue;
            }
            // The accelerator picks up the queue head as soon as both it
            // and the request are ready; everything arriving up to that
            // instant goes through the front end first (later batches see
            // embeddings installed by earlier completions).
            let start = t_free.max(trace[pending[0]].arrival_us);
            while i < trace.len() && trace[i].arrival_us <= start {
                front_end!(i);
                i += 1;
            }
            let take = pending.len().min(self.cfg.batch_window);
            let batch_idx: Vec<usize> = pending.drain(..take).collect();
            let verts: Vec<VertexId> = batch_idx.iter().map(|&j| trace[j].vertex).collect();
            let served = self.embed(&verts);
            for (&j, out) in batch_idx.iter().zip(&served.outputs) {
                timings[j] = RequestTiming {
                    queue_us: start - trace[j].arrival_us,
                    fetch_us: served.fetch_us,
                    kernel_us: served.kernel_us,
                    cache_hit: false,
                };
                self.cache.insert(trace[j].vertex, out);
            }
            t_free = start + served.fetch_us + served.kernel_us;
        }
        timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePrecision;
    use halfgnn_graph::gen;
    use halfgnn_nn::models::PrecisionMode;
    use halfgnn_sim::{latency_stats, synth_trace, TraceConfig};

    fn toy_graph(n: usize) -> (Csr, Vec<f32>) {
        let (edges, labels) = gen::sbm(&[n / 2, n / 2], 0.3, 0.05, 13);
        let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
        let x = halfgnn_graph::features::class_features(&labels, 2, 8, 1.0, 0.2, 17);
        (csr, x)
    }

    fn engine<'a>(
        dev: &'a DeviceConfig,
        csr: &Csr,
        x: &[f32],
        cfg: ServeConfig,
    ) -> ServeEngine<'a> {
        let params = TwoLayerParams::new(8, 6, 4, 3);
        ServeEngine::new(dev, csr, x, 8, params, cfg).expect("valid engine")
    }

    #[test]
    fn batched_embed_matches_sequential_bitwise_on_a_toy_graph() {
        let dev = DeviceConfig::a100_like();
        let (csr, x) = toy_graph(40);
        let requests: Vec<u32> = vec![0, 7, 7, 23, 39];
        let mut batched = engine(&dev, &csr, &x, ServeConfig::default());
        let all = batched.embed(&requests);
        for (k, &v) in requests.iter().enumerate() {
            let mut single = engine(&dev, &csr, &x, ServeConfig::default());
            let one = single.embed(&[v]);
            assert_eq!(
                all.outputs[k].iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                one.outputs[0].iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "vertex {v} diverged under coalescing"
            );
        }
    }

    #[test]
    fn zero_degree_vertices_are_servable() {
        // A graph with an isolated vertex (symmetric, no self loops): its
        // aggregation input is empty and its logits are still defined.
        let edges = vec![(0u32, 1u32), (1, 0), (1, 2), (2, 1)];
        let csr = Csr::from_edges(4, 4, &edges);
        assert_eq!(csr.degree(3), 0);
        let x: Vec<f32> = (0..4 * 8).map(|i| i as f32 * 0.01).collect();
        let dev = DeviceConfig::a100_like();
        let mut e = engine(&dev, &csr, &x, ServeConfig::default());
        let out = e.embed(&[3, 0]);
        assert!(out.outputs[0].iter().all(|v| v.is_finite()));
        let mut single = engine(&dev, &csr, &x, ServeConfig::default());
        let one = single.embed(&[3]);
        assert_eq!(out.outputs[0], one.outputs[0]);
    }

    #[test]
    fn replay_reproduces_eager_bits_and_counts_replays() {
        let dev = DeviceConfig::a100_like();
        let (csr, x) = toy_graph(40);
        let cfg = ServeConfig { replay: true, batch_window: 1, ..ServeConfig::default() };
        let mut rep = engine(&dev, &csr, &x, cfg);
        let mut eager = engine(&dev, &csr, &x, ServeConfig::default());
        // Same vertex repeatedly: identical shape, so batch 2+ replays.
        for _ in 0..3 {
            let a = rep.embed(&[11]);
            let b = eager.embed(&[11]);
            assert_eq!(a.outputs, b.outputs, "replayed bits diverged from eager");
        }
        assert_eq!(rep.stats.replayed_batches, 2);
        // A different-shaped request falls back to eager, no panic.
        let a = rep.embed(&[0]);
        let b = eager.embed(&[0]);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(rep.stats.replayed_batches, 2);
    }

    #[test]
    fn sharded_serving_charges_halo_and_keeps_bits() {
        let dev = DeviceConfig::a100_like();
        let (csr, x) = toy_graph(40);
        let mut single = engine(&dev, &csr, &x, ServeConfig::default());
        let mut sharded =
            engine(&dev, &csr, &x, ServeConfig { shards: 4, ..ServeConfig::default() });
        let a = single.embed(&[5, 31]);
        let b = sharded.embed(&[5, 31]);
        // Sharding the *feature table* never changes the computation.
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.fetch_us, 0.0);
        assert!(b.fetch_us > 0.0, "a 4-shard ball must fetch remote rows");
        assert!(sharded.stats.halo_bytes > 0);
    }

    #[test]
    fn closed_loop_serves_every_request_and_hits_cache_on_hot_vertices() {
        let dev = DeviceConfig::a100_like();
        let (csr, x) = toy_graph(40);
        let cfg = ServeConfig { cache_bytes: 4096, ..ServeConfig::default() };
        let mut e = engine(&dev, &csr, &x, cfg);
        let trace = synth_trace(&TraceConfig {
            seed: 5,
            requests: 120,
            num_vertices: 40,
            mean_gap_us: 50.0,
            hot_fraction: 0.9,
            hot_vertices: 4,
        });
        let timings = e.serve_trace(&trace);
        assert_eq!(timings.len(), trace.len());
        assert!(timings.iter().all(|t| t.total_us().is_finite() && t.total_us() >= 0.0));
        assert!(e.stats.cache_hits > 0, "hot trace must hit the cache");
        assert_eq!(e.stats.requests, 120);
        assert_eq!(
            e.stats.cache_hits + e.stats.coalesced_requests,
            e.stats.requests,
            "every request is either a hit or batched"
        );
        let span = timings
            .iter()
            .zip(&trace)
            .map(|(t, r)| r.arrival_us + t.total_us())
            .fold(0.0f64, f64::max);
        let stats = latency_stats(&timings, span);
        assert!(stats.p99_us.is_finite() && stats.p99_us > 0.0);
        assert!(stats.p50_us <= stats.p99_us);
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let dev = DeviceConfig::a100_like();
        let (csr, x) = toy_graph(40);
        let trace = synth_trace(&TraceConfig {
            seed: 8,
            requests: 60,
            num_vertices: 40,
            mean_gap_us: 30.0,
            hot_fraction: 0.7,
            hot_vertices: 6,
        });
        let run = |cache_precision| {
            let cfg = ServeConfig { cache_bytes: 2048, cache_precision, ..ServeConfig::default() };
            let mut e = engine(&dev, &csr, &x, cfg);
            let t = e.serve_trace(&trace);
            (t.iter().map(|x| x.total_us().to_bits()).collect::<Vec<_>>(), e.stats.cache_hits)
        };
        assert_eq!(run(CachePrecision::F16), run(CachePrecision::F16));
        assert_eq!(run(CachePrecision::F32), run(CachePrecision::F32));
    }

    #[test]
    fn edge_insert_invalidates_the_stale_ball() {
        let dev = DeviceConfig::a100_like();
        let (csr, x) = toy_graph(40);
        let cfg = ServeConfig {
            cache_bytes: 64 * 1024,
            cache_precision: CachePrecision::F32,
            ..ServeConfig::default()
        };
        let mut e = engine(&dev, &csr, &x, cfg);
        // Fill the cache with every vertex's embedding.
        let all: Vec<u32> = (0..40).collect();
        let served = e.embed(&all);
        for (&v, out) in all.iter().zip(&served.outputs) {
            e.cache.insert(v, out);
        }
        assert_eq!(e.cache().len(), 40);
        // Pick two vertices currently far apart and connect them.
        let (u, v) = (0u32, 39u32);
        let added = e.insert_edge(u, v);
        assert!(added > 0);
        // Every vertex whose embedding actually changed must be gone.
        let fresh = e.embed(&all);
        for (k, &w) in all.iter().enumerate() {
            if fresh.outputs[k] != served.outputs[k] {
                assert!(
                    !e.cache().contains(w),
                    "vertex {w} changed after insert but survived in the cache"
                );
            }
        }
        assert!(e.stats.invalidated_entries > 0);
    }

    #[test]
    fn inference_footprint_is_a_fraction_of_a_training_step() {
        let dev = DeviceConfig::a100_like();
        let (csr, x) = toy_graph(40);
        let mut e = engine(&dev, &csr, &x, ServeConfig::default());
        let requests: Vec<u32> = (0..8).collect();
        let inf = e.inference_footprint(&requests);
        assert!(inf.peak_bytes > 0);

        // A training step on the same coalesced subgraph, captured the
        // same way.
        let batch = coalesce(&DeltaCsr::new(csr.clone()), &requests, crate::config::MODEL_DEPTH);
        let ctx = ExecCtx::capturing();
        ctx.begin_epoch();
        let g = GraphView::full(&batch.csr);
        let d = Dispatch::untuned(PrecisionMode::Float).with_exec(Some(&ctx));
        let mut ops = Ops::new(&dev).with_exec(Some(&ctx));
        let xs = ops.gather_rows_f32(&x, 8, &batch.ball);
        let p = TwoLayerParams::new(8, 6, 4, 3);
        let labels = vec![0u32; batch.n()];
        let mask = vec![true; batch.n()];
        gcn::step(&mut ops, &g, &p, &xs, &labels, &mask, d, GcnNorm::Right);
        ctx.seal();
        let train = ctx.summary();

        assert!(
            (inf.peak_bytes as f64) < 0.8 * train.peak_bytes as f64,
            "inference working set {} must be a fraction of training peak {}",
            inf.peak_bytes,
            train.peak_bytes
        );
    }

    #[test]
    fn snapshot_round_trip_builds_an_identical_engine() {
        let dev = DeviceConfig::a100_like();
        let (csr, x) = toy_graph(40);
        let params = TwoLayerParams::new(8, 6, 4, 3);
        let snap = ModelSnapshot::from_f32(ModelKind::Gcn, 8, 6, 4, &params.flat());
        let decoded = ModelSnapshot::decode(&snap.encode()).expect("round trip");
        let mut from_snap =
            ServeEngine::from_snapshot(&dev, &csr, &x, 8, &decoded, ServeConfig::default())
                .expect("snapshot engine");
        let mut direct = ServeEngine::new(&dev, &csr, &x, 8, params, ServeConfig::default())
            .expect("direct engine");
        assert_eq!(from_snap.embed(&[4, 17]).outputs, direct.embed(&[4, 17]).outputs);
    }

    #[test]
    fn half_engine_rejects_odd_widths_and_serves_even_ones() {
        let dev = DeviceConfig::a100_like();
        let (csr, x) = toy_graph(40);
        let cfg = ServeConfig { precision: PrecisionMode::HalfGnn, ..ServeConfig::default() };
        let odd = TwoLayerParams::new(8, 6, 3, 3);
        assert_eq!(
            ServeEngine::new(&dev, &csr, &x, 8, odd, cfg.clone()).err(),
            Some(ServeConfigError::OddWidthForHalf)
        );
        let even = TwoLayerParams::new(8, 6, 4, 3);
        let mut e = ServeEngine::new(&dev, &csr, &x, 8, even, cfg).expect("even widths serve");
        let out = e.embed(&[1, 2]);
        assert!(out.outputs.iter().flatten().all(|v| v.is_finite()));
    }
}
