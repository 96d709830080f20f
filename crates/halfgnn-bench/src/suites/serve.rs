//! `serve` → `BENCH_pr8.json`: forward-only serving — coalesced batching,
//! embedding cache, modeled closed-loop latency.
//!
//! Trains a GCN on the G1-class graph (float and HalfGNN), snapshots the
//! weights through the trainer's save path, and serves a synthetic
//! request trace against 1/2/4-shard deployments.
//!
//! Hard gates, asserted not observed:
//!
//! * **bitwise coalescing** — a batched forward returns exactly the bits
//!   each request gets served alone, in float and in half;
//! * **cache headline** — at the same byte budget the f16 embedding cache
//!   holds ≥ 1.9× the vertices of the f32 cache (exactly 2× by
//!   construction);
//! * **latency sanity** — p99 is finite and positive at every shard
//!   count, and every request of the trace is answered.

use crate::row::Row;
use halfgnn_graph::datasets::{Dataset, LoadedDataset};
use halfgnn_nn::models::GcnNorm;
use halfgnn_nn::snapshot::ModelSnapshot;
use halfgnn_nn::trainer::{train_on, ModelKind, PrecisionMode, TrainConfig};
use halfgnn_serve::{CachePrecision, EmbeddingCache, ServeConfig, ServeEngine};
use halfgnn_sim::{latency_stats, synth_trace, DeviceConfig, TraceConfig};

const CACHE_RATIO_GATE: f64 = 1.9;

fn train_cfg(precision: PrecisionMode, epochs: usize) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Gcn,
        precision,
        epochs,
        hidden: 16,
        lr: 0.02,
        seed: 3,
        gcn_norm: GcnNorm::Right,
        ..TrainConfig::default()
    }
}

/// Train under `precision` and hand the weights off through the snapshot
/// file, exactly as a production trainer → server pipeline would.
fn trained_snapshot(
    dev: &DeviceConfig,
    data: &LoadedDataset,
    precision: PrecisionMode,
) -> ModelSnapshot {
    let tmp = std::env::temp_dir().join(format!(
        "bench-serve-{}-{}.snap",
        precision.tag(),
        std::process::id()
    ));
    let path = Some(tmp.to_string_lossy().into_owned());
    let report =
        train_on(dev, data, &TrainConfig { snapshot_path: path, ..train_cfg(precision, 20) });
    assert!(report.nan_epoch.is_none(), "{precision:?} training hit NaN");
    let snap = ModelSnapshot::load(&tmp).expect("trainer wrote a loadable snapshot");
    std::fs::remove_file(&tmp).ok();
    snap
}

fn bits_of(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
}

pub(super) fn run() -> Row {
    let dev = DeviceConfig::a100_like();
    let data = Dataset::by_id("G1").expect("G1 in registry").load(42);
    let n = data.num_vertices();
    let engine = |snap: &ModelSnapshot, cfg: ServeConfig| {
        ServeEngine::from_snapshot(&dev, &data.adj, &data.features, data.spec.feat, snap, cfg)
            .expect("engine")
    };

    let float_snap = trained_snapshot(&dev, &data, PrecisionMode::Float);
    let half_snap = trained_snapshot(&dev, &data, PrecisionMode::HalfGnn);

    // Gate 1: coalesced batched forward == per-request forward, bitwise.
    // A spread of requests across the graph, with duplicates.
    let mut requests: Vec<u32> = (0..n as u32).step_by(97).collect();
    requests.push(requests[3]);
    requests.push(0);
    let mut bitwise_values = 0usize;
    for (precision, snap) in
        [(PrecisionMode::Float, &float_snap), (PrecisionMode::HalfGnn, &half_snap)]
    {
        let cfg = ServeConfig { precision, ..ServeConfig::default() };
        let all = engine(snap, cfg.clone()).embed(&requests);
        let mut sequential = engine(snap, cfg);
        for (k, &v) in requests.iter().enumerate() {
            let one = sequential.embed(&[v]);
            assert_eq!(
                bits_of(&all.outputs[k..k + 1]),
                bits_of(&one.outputs[0..1]),
                "{precision:?}: vertex {v} diverged under coalescing"
            );
            bitwise_values += all.outputs[k].len();
        }
    }

    // Gate 2: the f16 cache fits >= 1.9x the vertices of f32.
    let budget = 64 * 1024;
    let width = float_snap.classes;
    let cap_f16 = EmbeddingCache::new(budget, width, CachePrecision::F16).capacity();
    let cap_f32 = EmbeddingCache::new(budget, width, CachePrecision::F32).capacity();
    let cache_ratio = cap_f16 as f64 / cap_f32 as f64;
    assert!(
        cache_ratio >= CACHE_RATIO_GATE,
        "f16/f32 cache capacity ratio {cache_ratio:.3} below gate {CACHE_RATIO_GATE}"
    );

    // Gate 3: closed loop at 1/2/4 shards, p99 finite everywhere.
    let trace = synth_trace(&TraceConfig {
        seed: 11,
        requests: 2000,
        num_vertices: n,
        mean_gap_us: 40.0,
        hot_fraction: 0.8,
        hot_vertices: 64,
    });
    let mut closed_loop = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut server = engine(
            &half_snap,
            ServeConfig {
                precision: PrecisionMode::HalfGnn,
                shards,
                cache_bytes: 32 * 1024,
                cache_precision: CachePrecision::F16,
                ..ServeConfig::default()
            },
        );
        let timings = server.serve_trace(&trace);
        assert_eq!(timings.len(), trace.len(), "shards={shards}: dropped requests");
        let span = timings
            .iter()
            .zip(&trace)
            .map(|(t, r)| r.arrival_us + t.total_us())
            .fold(0.0f64, f64::max)
            - trace[0].arrival_us;
        let stats = latency_stats(&timings, span);
        assert!(
            stats.p99_us.is_finite() && stats.p99_us > 0.0,
            "shards={shards}: p99 {} not finite-positive",
            stats.p99_us
        );
        assert!(stats.p50_us <= stats.p99_us, "shards={shards}: p50 above p99");
        let es = &server.stats;
        assert_eq!(
            es.cache_hits + es.coalesced_requests,
            es.requests,
            "shards={shards}: requests lost between cache and batcher"
        );
        if shards > 1 {
            assert!(es.halo_bytes > 0, "shards={shards}: no halo traffic charged");
        }
        closed_loop.push(
            Row::new()
                .val("shards", shards)
                .fixed("throughput_rps", stats.throughput_rps, 1)
                .fixed("p50_us", stats.p50_us, 2)
                .fixed("p99_us", stats.p99_us, 2)
                .fixed("cache_hit_rate", stats.hit_rate(), 4)
                .fixed("halo_mib", es.halo_bytes as f64 / 1048576.0, 3)
                .val("batches", es.batches)
                .val("max_batch_vertices", es.max_batch_vertices),
        );
    }

    // Forward-only footprint: the serving working set is a fraction of the
    // training peak (no grad/optimizer/stash buffers on the path).
    let train_peak = train_on(&dev, &data, &train_cfg(PrecisionMode::Float, 1)).peak_memory_bytes;
    let probe: Vec<u32> = (0..8u32).collect();
    let inference_peak =
        engine(&float_snap, ServeConfig::default()).inference_footprint(&probe).peak_bytes;
    let footprint_ratio = inference_peak as f64 / train_peak as f64;
    assert!(
        footprint_ratio < 0.5,
        "inference footprint {inference_peak} is not a fraction of training peak {train_peak}"
    );

    Row::new()
        .str("device", "a100_like (modeled)")
        .str("graph", "G1 (cora)")
        .val("batched_equals_sequential_bitwise", true)
        .val("bitwise_values_compared", bitwise_values)
        .val("cache_budget_bytes", budget)
        .val("cache_entries_f16", cap_f16)
        .val("cache_entries_f32", cap_f32)
        .fixed("cache_capacity_ratio", cache_ratio, 4)
        .val("cache_ratio_gate", CACHE_RATIO_GATE)
        .val("inference_peak_bytes", inference_peak)
        .val("training_peak_bytes", train_peak)
        .fixed("inference_over_training_peak", footprint_ratio, 4)
        .rows("closed_loop", closed_loop)
}
