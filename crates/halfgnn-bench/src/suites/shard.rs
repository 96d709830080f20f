//! `shard` → `BENCH_pr5.json`: sharded multi-device training under the
//! FP16-aware communication cost model.
//!
//! One sweep on a modeled A100 cluster with NVLink-like links: GCN
//! training on a low-skew SBM (Citeseer stand-in, even class count so
//! half and float move identical row sets) and the power-law Hollywood09
//! stand-in, at shard counts 1/2/4/8, float vs. HalfGNN, ring vs.
//! crossbar. Every row reports the epoch's metered interconnect traffic
//! (halo feature exchanges + gradient all-reduces), the busiest-link
//! comms time, and the run's overflow-event count.
//!
//! Hard gates, asserted not observed:
//!
//! * float sharded losses are bit-for-bit the `shards = 1` run at every
//!   shard count and topology (the shard-equivalence property);
//! * FP16 halo traffic is half of FP32's at every sharded config (the
//!   headline — 2 bytes/element on the same rows);
//! * zero overflow-provenance events anywhere in the sweep (the f16-wire
//!   all-reduce's discretized bucket scaling is overflow-free by
//!   construction).

use super::{loss_bits, overflow_events, regimes};
use crate::row::Row;
use halfgnn_graph::datasets::Dataset;
use halfgnn_nn::trainer::{
    train_on, ModelKind, PartitionStrategy, PrecisionMode, Topology, TrainConfig, TrainReport,
};
use halfgnn_sim::DeviceConfig;

struct Run {
    graph: &'static str,
    precision: PrecisionMode,
    shards: usize,
    topology: Topology,
    report: TrainReport,
}

pub(super) fn run() -> Row {
    let dev = DeviceConfig::a100_like();
    let graphs = regimes(Dataset::citeseer());
    let mut runs = Vec::new();
    for (graph, data) in &graphs {
        for precision in [PrecisionMode::Float, PrecisionMode::HalfGnn] {
            for shards in [1usize, 2, 4, 8] {
                for topology in [Topology::Ring, Topology::AllToAll] {
                    if shards == 1 && topology == Topology::AllToAll {
                        continue; // one device has no interconnect to vary
                    }
                    let cfg = TrainConfig {
                        model: ModelKind::Gcn,
                        precision,
                        epochs: 2,
                        hidden: 64,
                        shards,
                        topology,
                        // Equal-edge boundaries keep the hub shard of the
                        // power-law graph from owning most of the work.
                        partition: PartitionStrategy::DegreeBalanced,
                        ..TrainConfig::default()
                    };
                    let report = train_on(&dev, data, &cfg);
                    runs.push(Run { graph, precision, shards, topology, report });
                }
            }
        }
    }

    // Gate 1: float sharded trajectories are bitwise the single-device run.
    for (graph, _) in &graphs {
        let float = |r: &&Run| r.graph == *graph && r.precision == PrecisionMode::Float;
        let single = runs.iter().filter(float).find(|r| r.shards == 1);
        let single = loss_bits(&single.expect("single-device float row").report);
        for r in runs.iter().filter(float).filter(|r| r.shards > 1) {
            assert_eq!(
                single,
                loss_bits(&r.report),
                "{graph}: float shards={} {:?} diverged from single-device",
                r.shards,
                r.topology
            );
        }
    }

    // Gate 2: FP16 halo traffic is half of FP32's at every sharded config.
    let (mut min_ratio, mut max_ratio) = (f64::INFINITY, 0.0f64);
    for h in runs.iter().filter(|r| r.precision == PrecisionMode::HalfGnn && r.shards > 1) {
        let f = runs
            .iter()
            .find(|f| {
                f.graph == h.graph
                    && f.precision == PrecisionMode::Float
                    && f.shards == h.shards
                    && f.topology == h.topology
            })
            .expect("matching float row");
        let (float_halo, half_halo) =
            (f.report.comms_halo_bytes_per_epoch, h.report.comms_halo_bytes_per_epoch);
        let ratio = float_halo as f64 / half_halo as f64;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "{} shards={} {:?}: fp32/fp16 halo ratio {ratio:.3} (float {float_halo} vs half \
             {half_halo})",
            h.graph,
            h.shards,
            h.topology
        );
        assert!(
            h.report.comms_time_us_per_epoch < f.report.comms_time_us_per_epoch,
            "half comms must be faster than float at the same shard count"
        );
        min_ratio = min_ratio.min(ratio);
        max_ratio = max_ratio.max(ratio);
    }

    // Gate 3: the whole sweep is overflow-free.
    let total_overflow: u64 = runs.iter().map(|r| overflow_events(&r.report)).sum();
    assert_eq!(total_overflow, 0, "sharded training must record zero overflow events");

    let rows = runs.iter().map(|Run { graph, precision, shards, topology, report: r }| {
        Row::new()
            .str("graph", graph)
            .str("precision", precision.tag())
            .val("shards", shards)
            .str("topology", topology.tag())
            .val("comms_bytes", r.comms_bytes_per_epoch)
            .val("halo_bytes", r.comms_halo_bytes_per_epoch)
            .val("allreduce_bytes", r.comms_allreduce_bytes_per_epoch)
            .fixed("comms_time_us", r.comms_time_us_per_epoch, 1)
            .fixed("epoch_time_us", r.epoch_time_us, 1)
            .fixed("test_accuracy", f64::from(r.test_accuracy), 4)
            .val("overflow_events", overflow_events(r))
    });
    Row::new()
        .str("device", "a100_like x N, nvlink_like links (modeled)")
        .str("model", "gcn")
        .val("float_sharded_bitwise_equal", true)
        .fixed("fp32_over_fp16_halo_ratio_min", min_ratio, 4)
        .fixed("fp32_over_fp16_halo_ratio_max", max_ratio, 4)
        .val("total_overflow_events", total_overflow)
        .rows("rows", rows.collect())
}
