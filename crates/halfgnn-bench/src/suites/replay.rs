//! `replay` → `BENCH_pr6.json`: epoch capture/replay with arena-planned
//! buffers.
//!
//! One sweep on the modeled A100: GCN and GAT on a low-skew SBM
//! (Citeseer stand-in) and the power-law Hollywood09 stand-in, float vs.
//! HalfGNN, every run with `replay: true`. Epoch 0 captures the kernel
//! sequence; epochs 1+ replay pre-resolved plans with launch overhead
//! stripped, and the captured graph's buffer lifetimes are packed into
//! arena slabs.
//!
//! Hard gates, asserted not observed:
//!
//! * replay is bit-identical: every loss of the `replay: true` run equals
//!   the eager run's bits at every config;
//! * the modeled-cycle win is real: every replayed epoch is strictly
//!   cheaper than its capture epoch;
//! * the memory headline: an eager FP32 baseline (no lifetime reuse — one
//!   live slab per intermediate, what an allocator without the captured
//!   graph must hold) over HalfGNN's arena-planned peak is >= 2.0 at
//!   every config. The decomposition is reported alongside: the
//!   precision-only component (planned float / planned half, ~1.9x — the
//!   f32 softmax/cross-entropy tail is shared by both pipelines) and the
//!   reuse-only component (eager / planned within one precision, >= 2.0,
//!   landing near the paper's 2.67x footprint ratio).

use super::{loss_bits, regimes};
use crate::row::Row;
use halfgnn_exec::ReplaySummary;
use halfgnn_graph::datasets::Dataset;
use halfgnn_nn::trainer::{train_on, ModelKind, PrecisionMode, TrainConfig, TrainReport};
use halfgnn_sim::DeviceConfig;

const MODELS: [ModelKind; 2] = [ModelKind::Gcn, ModelKind::Gat];

struct Run {
    graph: &'static str,
    model: ModelKind,
    precision: PrecisionMode,
    summary: ReplaySummary,
    report: TrainReport,
}

pub(super) fn run() -> Row {
    let dev = DeviceConfig::a100_like();
    let graphs = regimes(Dataset::citeseer());
    let mut runs = Vec::new();
    for (graph, data) in &graphs {
        for model in MODELS {
            for precision in [PrecisionMode::Float, PrecisionMode::HalfGnn] {
                let base = TrainConfig {
                    model,
                    precision,
                    epochs: 3,
                    hidden: 64,
                    ..TrainConfig::default()
                };
                let eager = train_on(&dev, data, &base);
                let report = train_on(&dev, data, &TrainConfig { replay: true, ..base });

                // Gate 1: capture/replay moves no bits.
                assert_eq!(
                    loss_bits(&eager),
                    loss_bits(&report),
                    "{graph}/{model:?}/{precision:?}: replay diverged from eager"
                );

                // Gate 2: every replayed epoch is modeled strictly cheaper
                // than its capture epoch.
                assert!(
                    report.replay_epoch_time_us > 0.0
                        && report.replay_epoch_time_us < report.epoch_time_us,
                    "{graph}/{model:?}/{precision:?}: replay epoch {} us vs capture {} us",
                    report.replay_epoch_time_us,
                    report.epoch_time_us
                );

                let summary = report.replay.expect("replay run reports a summary");
                assert!(summary.saved_cycles > 0.0, "no launch overhead stripped");
                runs.push(Run { graph, model, precision, summary, report });
            }
        }
    }

    // Gate 3: the memory headline and its decomposition, per config.
    let (mut headline_min, mut headline_max) = (f64::INFINITY, 0.0f64);
    let (mut precision_only_min, mut reuse_min) = (f64::INFINITY, f64::INFINITY);
    for (graph, _) in &graphs {
        for model in MODELS {
            let find = |p: PrecisionMode| {
                let run =
                    runs.iter().find(|r| r.graph == *graph && r.model == model && r.precision == p);
                run.expect("row").summary
            };
            let (f, h) = (find(PrecisionMode::Float), find(PrecisionMode::HalfGnn));
            let headline = f.eager_bytes as f64 / h.peak_bytes as f64;
            assert!(
                headline >= 2.0,
                "{graph}/{model:?}: eager-float / planned-half peak ratio {headline:.2} < 2.0 \
                 (float eager {} vs half peak {})",
                f.eager_bytes,
                h.peak_bytes
            );
            let precision_only = f.peak_bytes as f64 / h.peak_bytes as f64;
            assert!(
                precision_only >= 1.8,
                "{graph}/{model:?}: planned float/half ratio {precision_only:.2} < 1.8"
            );
            for (precision, s) in [("float", f), ("halfgnn", h)] {
                let reuse = s.eager_bytes as f64 / s.peak_bytes as f64;
                assert!(
                    reuse >= 2.0,
                    "{graph}/{model:?}/{precision}: arena reuse factor {reuse:.2} < 2.0"
                );
                reuse_min = reuse_min.min(reuse);
            }
            headline_min = headline_min.min(headline);
            headline_max = headline_max.max(headline);
            precision_only_min = precision_only_min.min(precision_only);
        }
    }

    let rows = runs.iter().map(|Run { graph, model, precision, summary: s, report: r }| {
        Row::new()
            .str("graph", graph)
            .str("model", model.tag())
            .str("precision", precision.tag())
            .val("nodes", s.nodes)
            .val("plans", s.plans)
            .val("buffers", s.buffers)
            .val("peak_bytes", s.peak_bytes)
            .val("eager_bytes", s.eager_bytes)
            .val("external_bytes", s.external_bytes)
            .fixed("saved_cycles_per_epoch", s.saved_cycles, 0)
            .fixed("capture_epoch_us", r.epoch_time_us, 1)
            .fixed("replay_epoch_us", r.replay_epoch_time_us, 1)
            .fixed("test_accuracy", f64::from(r.test_accuracy), 4)
    });
    Row::new()
        .str("device", "a100_like (modeled)")
        .val("replay_bitwise_equal", true)
        .fixed("float_eager_over_half_planned_peak_ratio_min", headline_min, 4)
        .fixed("float_eager_over_half_planned_peak_ratio_max", headline_max, 4)
        .fixed("planned_float_over_half_peak_ratio_min", precision_only_min, 4)
        .fixed("arena_reuse_factor_min", reuse_min, 4)
        .rows("rows", rows.collect())
}
