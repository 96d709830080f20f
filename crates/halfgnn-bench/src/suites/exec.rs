//! `exec` → `BENCH_pr2.json`: execution-layer smoke benchmark.
//!
//! One HalfGNN-precision training epoch of GCN and GAT on the synthetic
//! medium graph (hollywood09 stand-in, 4000 vertices), measured four
//! ways:
//!
//! * `sim_modeled_us` — the cost-model backend's analytic epoch time
//!   (modeled A100 cycles, what the figure experiments report);
//! * `sim_wall_us` — wall-clock of the cost-model backend itself
//!   (sequential CTAs, live counters);
//! * `fast_wall_us_1thread` — wall-clock on the fast backend pinned to
//!   one worker: same sequential execution, charging compiled out;
//! * `fast_wall_us_auto` — wall-clock with auto-sized workers
//!   (`HALFGNN_THREADS` / available cores).
//!
//! Two speedups fall out: `charging_off_speedup` (sim wall / fast 1T —
//! what dead counters buy at equal parallelism) and `thread_speedup`
//! (fast 1T / fast auto — what real threads buy; ≈1.0 on a single-core
//! host, where `auto_threads` reports 1). The per-workload wall-clock
//! lane with a regression bound is `perfbench`; this suite has no gate.

use crate::row::Row;
use halfgnn_graph::datasets::{Dataset, LoadedDataset};
use halfgnn_nn::trainer::{train_on, ExecMode, ModelKind, PrecisionMode, TrainConfig};
use halfgnn_sim::DeviceConfig;
use std::time::Instant;

/// Best-of-3 wall-clock of one full training epoch after a warm-up run
/// (the minimum is the standard noise-robust estimator).
fn wall_us(dev: &DeviceConfig, data: &LoadedDataset, cfg: &TrainConfig) -> f64 {
    train_on(dev, data, cfg); // warm-up: page faults, lazy init
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        train_on(dev, data, cfg);
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

pub(super) fn run() -> Row {
    let dev = DeviceConfig::a100_like();
    let data = Dataset::hollywood09().load(42);
    let models = [ModelKind::Gcn, ModelKind::Gat].map(|model| {
        let cfg = TrainConfig {
            model,
            precision: PrecisionMode::HalfGnn,
            epochs: 1,
            hidden: 64,
            ..TrainConfig::default()
        };
        let sim = train_on(&dev, &data, &cfg);
        let sim_wall = wall_us(&dev, &data, &cfg);
        let with = |exec| TrainConfig { exec, ..cfg.clone() };
        let fast1 = wall_us(&dev, &data, &with(ExecMode::fast_with_threads(1)));
        let fast_auto = wall_us(&dev, &data, &with(ExecMode::fast()));
        Row::new()
            .str("model", model.tag())
            .fixed("sim_modeled_us", sim.epoch_time_us, 1)
            .fixed("sim_wall_us", sim_wall, 1)
            .fixed("fast_wall_us_1thread", fast1, 1)
            .fixed("fast_wall_us_auto", fast_auto, 1)
            .fixed("charging_off_speedup", sim_wall / fast1, 2)
            .fixed("thread_speedup", fast1 / fast_auto, 2)
    });
    Row::new()
        .str("graph", "hollywood09-synthetic (4000 vertices)")
        .str("precision", "HalfGnn")
        .val("epochs", 1)
        .val("auto_threads", rayon::pool::default_threads())
        .str(
            "note",
            "thread_speedup needs >1 host core; on a 1-core host it is ~1.0 and \
             charging_off_speedup (sim wall vs fast wall at equal threads) is the executor win",
        )
        .rows("models", models.into())
}
