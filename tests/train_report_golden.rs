//! Golden pin of whole training reports: seven Sim runs on Cora that
//! together reach every branch of the epoch loop — full batch and
//! sampled batches, float, half and INT8, tuned and fused, sharded with
//! replay, streamed edges — printed with `{:#?}` and compared byte for
//! byte with `tests/golden/train_reports.txt`. The last two also reach
//! every tuned plan path under sharding and replay: GAT where the tuner
//! picks fused attention and vertex-parallel SpMMve, and INT8 GCN whose
//! tuned `spmm_i8v` launches read INT8 halos.
//!
//! The text covers every `TrainReport` field, so any change to what a run
//! computes or reports shows up here. Three replay fields are zeroed
//! before printing: `buffers`, `peak_bytes` and `external_bytes` are
//! derived from the heap addresses of the captured buffers, and address
//! reuse varies from process to process.

use halfgnn::graph::datasets::Dataset;
use halfgnn::nn::trainer::{
    train, ModelKind, PartitionStrategy, PrecisionMode, Topology, TrainConfig, Tuning,
};

const GOLDEN: &str = include_str!("golden/train_reports.txt");

fn base(model: ModelKind, precision: PrecisionMode, epochs: usize) -> TrainConfig {
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

fn configs() -> Vec<(&'static str, TrainConfig)> {
    vec![
        ("gcn float, full batch", base(ModelKind::Gcn, PrecisionMode::Float, 3)),
        (
            "gat halfgnn, full batch, tuned, fused",
            TrainConfig {
                tuning: Tuning::Auto,
                fusion: true,
                ..base(ModelKind::Gat, PrecisionMode::HalfGnn, 3)
            },
        ),
        (
            "gcn i8, 4 shards, 1p5d c=2, ring, replay",
            TrainConfig {
                shards: 4,
                partition: PartitionStrategy::OneP5D { c: 2 },
                topology: Topology::Ring,
                replay: true,
                ..base(ModelKind::Gcn, PrecisionMode::I8, 3)
            },
        ),
        (
            "sage halfgnn, mini-batch, streamed edges",
            TrainConfig {
                batch_size: Some(128),
                fanout: 5,
                stream_edges: 50,
                ..base(ModelKind::Sage, PrecisionMode::HalfGnn, 4)
            },
        ),
        (
            "gin float, mini-batch",
            TrainConfig { batch_size: Some(128), ..base(ModelKind::Gin, PrecisionMode::Float, 2) },
        ),
        (
            "gat halfgnn, 2 shards, tuned, replay",
            TrainConfig {
                tuning: Tuning::Auto,
                shards: 2,
                replay: true,
                ..base(ModelKind::Gat, PrecisionMode::HalfGnn, 3)
            },
        ),
        (
            "gcn i8, 2 shards, balanced, all-to-all, tuned, replay",
            TrainConfig {
                tuning: Tuning::Auto,
                shards: 2,
                partition: PartitionStrategy::DegreeBalanced,
                topology: Topology::AllToAll,
                replay: true,
                ..base(ModelKind::Gcn, PrecisionMode::I8, 3)
            },
        ),
    ]
}

fn reports_text() -> String {
    let data = Dataset::cora().load(42);
    let mut text = String::new();
    for (name, cfg) in configs() {
        let mut r = train(&data, &cfg);
        if let Some(s) = r.replay.as_mut() {
            s.buffers = 0;
            s.peak_bytes = 0;
            s.external_bytes = 0;
        }
        text.push_str(&format!("== {name} ==\n{r:#?}\n"));
    }
    text
}

#[test]
fn train_reports_match_the_golden_text() {
    let actual = reports_text();
    if actual != GOLDEN {
        let line = actual.lines().zip(GOLDEN.lines()).position(|(a, g)| a != g);
        println!("---- actual reports ----\n{actual}---- end of actual reports ----");
        panic!(
            "training reports differ from tests/golden/train_reports.txt \
             (first differing line: {:?}; actual {} lines, golden {} lines)",
            line.map(|l| l + 1),
            actual.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
