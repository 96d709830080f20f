//! The three benchmark workloads: one training configuration each, built
//! from the workload seed.

use halfgnn_graph::datasets::Dataset;
use halfgnn_nn::trainer::{
    ExecMode, ModelKind, PartitionStrategy, PrecisionMode, Topology, TrainConfig, Tuning,
};
use std::path::Path;

/// Which training loop and layers a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Full-batch GAT through the plan-cache tuner, one device.
    FullbatchGat,
    /// Neighbor-sampled GraphSAGE with edges streamed mid-run.
    MinibatchSage,
    /// Four-shard 1.5D INT8 GCN with capture/replay.
    ShardedGcnI8,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Training loop and layers driven.
    pub kind: Kind,
    /// Graph the workload trains on.
    pub dataset: Dataset,
    /// Fast-executor worker threads.
    pub threads: usize,
    /// Epochs per timed `train_on` call.
    pub epochs: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "fullbatch-gat",
            why: "low-degree GAT: SDDMM, edge softmax and the warmed plan-cache tuner",
            kind: Kind::FullbatchGat,
            dataset: Dataset::pubmed(),
            threads: 1,
            epochs: 1,
        },
        Workload {
            name: "minibatch-sage",
            why: "host-heavy sampled batches with edges streamed through the delta overlay",
            kind: Kind::MinibatchSage,
            dataset: Dataset::ogb_product(),
            threads: 1,
            epochs: 2,
        },
        Workload {
            name: "sharded-gcn-i8",
            why: "four 1.5D shards: halo cache, all-reduce, overlap, replay and INT8 at 2 threads",
            kind: Kind::ShardedGcnI8,
            dataset: Dataset::hollywood09(),
            threads: 2,
            epochs: 2,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload on another graph (the tests use small ones).
    pub fn with_dataset(mut self, dataset: Dataset) -> Workload {
        self.dataset = dataset;
        self
    }

    /// Whether the workload dispatches through the plan-cache tuner.
    pub fn tuned(&self) -> bool {
        self.kind == Kind::FullbatchGat
    }

    /// Whether later epochs replay the captured epoch 0.
    pub fn replays(&self) -> bool {
        self.kind == Kind::ShardedGcnI8
    }

    /// The training configuration of one call. `plan_cache` is the file
    /// the tuned workload loads its plans from.
    pub fn config(&self, seed: u64, exec: ExecMode, plan_cache: &Path) -> TrainConfig {
        let base = TrainConfig {
            precision: PrecisionMode::HalfGnn,
            epochs: self.epochs,
            seed,
            exec,
            ..TrainConfig::default()
        };
        match self.kind {
            Kind::FullbatchGat => TrainConfig {
                model: ModelKind::Gat,
                tuning: Tuning::Cached(plan_cache.to_string_lossy().into_owned()),
                ..base
            },
            Kind::MinibatchSage => TrainConfig {
                model: ModelKind::Sage,
                batch_size: Some(256),
                fanout: 5,
                stream_edges: 200,
                ..base
            },
            Kind::ShardedGcnI8 => TrainConfig {
                model: ModelKind::Gcn,
                precision: PrecisionMode::I8,
                shards: 4,
                partition: PartitionStrategy::OneP5D { c: 2 },
                topology: Topology::Ring,
                replay: true,
                ..base
            },
        }
    }
}
