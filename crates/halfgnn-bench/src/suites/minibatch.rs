//! `minibatch` → `BENCH_pr7.json`: neighbor-sampled mini-batch training
//! and delta-CSR streaming ingestion.
//!
//! One sweep on the modeled A100 over the G1-class graph (Cora): GCN and
//! SAGE, float vs. HalfGNN, full-batch against fanout-sampled mini-batch,
//! plus a streaming run that inserts edges mid-training through the
//! DeltaCsr overlay (no CSR rebuild) with the tuner on.
//!
//! Hard gates, asserted not observed:
//!
//! * accuracy: every sampled run lands within ε = 0.08 of its full-batch
//!   counterpart's test accuracy, and half-precision sampled runs are
//!   oracle-clean — zero overflow events, no NaN epoch;
//! * memory: the per-batch working set (peak minus the resident global
//!   feature table + CSR) is strictly below the full-batch peak at every
//!   config;
//! * streaming: every requested edge is ingested by the overlay, and the
//!   post-delta plan-cache hit rate is > 0.5 — KernelKey's log2-nnz
//!   buckets absorb a small delta without re-tuning.

use crate::row::Row;
use halfgnn_graph::datasets::Dataset;
use halfgnn_nn::trainer::{train_on, ModelKind, PrecisionMode, TrainConfig, Tuning};
use halfgnn_sim::DeviceConfig;

const EPS: f32 = 0.08;

pub(super) fn run() -> Row {
    let dev = DeviceConfig::a100_like();
    let data = Dataset::by_id("G1").expect("G1 in registry").load(42);
    let resident_global = (data.num_vertices() * data.spec.feat * 2
        + (data.num_edges() + data.num_vertices() + 1) * 4) as u64;
    let base = TrainConfig { epochs: 20, hidden: 16, lr: 0.02, seed: 3, ..TrainConfig::default() };
    let mut rows = Vec::new();
    let (mut accuracy_gap_max, mut working_set_ratio_max) = (0.0f32, 0.0f64);

    for model in [ModelKind::Gcn, ModelKind::Sage] {
        for precision in [PrecisionMode::Float, PrecisionMode::HalfGnn] {
            let base = TrainConfig { model, precision, ..base.clone() };
            let full = train_on(&dev, &data, &base);
            let mb =
                train_on(&dev, &data, &TrainConfig { batch_size: Some(128), fanout: 10, ..base });

            // Gate 1: sampled training reaches full-batch accuracy ± ε,
            // oracle-clean in half precision.
            let gap = (full.test_accuracy - mb.test_accuracy).abs();
            assert!(
                gap < EPS,
                "{model:?}/{precision:?}: full {} vs sampled {}",
                full.test_accuracy,
                mb.test_accuracy
            );
            assert!(mb.nan_epoch.is_none(), "{model:?}/{precision:?}: NaN epoch");
            assert!(
                mb.overflow_per_epoch.iter().all(|s| s.is_clean()),
                "{model:?}/{precision:?}: overflow events in sampled run"
            );

            // Gate 2: the batch working set undercuts the full-batch peak.
            let working_set = mb.peak_memory_bytes.saturating_sub(resident_global);
            assert!(
                working_set < full.peak_memory_bytes,
                "{model:?}/{precision:?}: batch working set {} vs full peak {}",
                working_set,
                full.peak_memory_bytes
            );

            accuracy_gap_max = accuracy_gap_max.max(gap);
            working_set_ratio_max =
                working_set_ratio_max.max(working_set as f64 / full.peak_memory_bytes as f64);
            let s = mb.sampling.expect("mini-batch runs report sampling");
            rows.push(
                Row::new()
                    .str("model", model.tag())
                    .str("precision", precision.tag())
                    .fixed("full_test_accuracy", f64::from(full.test_accuracy), 4)
                    .fixed("sampled_test_accuracy", f64::from(mb.test_accuracy), 4)
                    .val("full_peak_bytes", full.peak_memory_bytes)
                    .val("sampled_peak_bytes", mb.peak_memory_bytes)
                    .val("batch_working_set_bytes", working_set)
                    .val("batches_per_epoch", s.batches_per_epoch)
                    .fixed("mean_batch_vertices", s.mean_batch_vertices, 0)
                    .val("max_batch_vertices", s.max_batch_vertices),
            );
        }
    }

    // Gate 3: streaming ingestion through the delta overlay, tuner on.
    let stream = train_on(
        &dev,
        &data,
        &TrainConfig {
            model: ModelKind::Gcn,
            precision: PrecisionMode::HalfGnn,
            epochs: 10,
            batch_size: Some(128),
            fanout: 10,
            stream_edges: 200,
            tuning: Tuning::Auto,
            ..base
        },
    );
    assert!(stream.nan_epoch.is_none(), "stream run hit NaN");
    assert!(
        stream.overflow_per_epoch.iter().all(|s| s.is_clean()),
        "overflow events in stream run"
    );
    let ss = stream.sampling.expect("sampling summary");
    assert_eq!(ss.streamed_edges, 200, "overlay dropped requested edges");
    let stream_epoch = ss.stream_epoch.expect("stream run records the insert epoch");
    let post = ss.post_stream_tuning.expect("tuned stream run measures the post-delta cache");
    let hit_rate = post.hits as f64 / (post.hits + post.misses).max(1) as f64;
    assert!(hit_rate > 0.5, "post-delta plan-cache hit rate {hit_rate:.2} <= 0.5 ({post:?})");

    Row::new()
        .str("device", "a100_like (modeled)")
        .str("graph", "G1 (cora)")
        .val("epsilon", EPS)
        .fixed("accuracy_gap_max", f64::from(accuracy_gap_max), 4)
        .val("sampled_overflow_events", 0)
        .fixed("batch_working_set_over_full_peak_max", working_set_ratio_max, 4)
        .val("streamed_edges", ss.streamed_edges)
        .val("stream_epoch", stream_epoch)
        .val("post_delta_cache_hits", post.hits)
        .val("post_delta_cache_misses", post.misses)
        .fixed("post_delta_hit_rate", hit_rate, 4)
        .rows("rows", rows)
}
