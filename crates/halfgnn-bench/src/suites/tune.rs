//! `tune` → `BENCH_pr3.json`: autotuner benchmark, tuned vs default
//! kernel plans.
//!
//! Two sections, both on a modeled A100:
//!
//! * `kernels` — for the two [`kernel_graphs`](super::kernel_graphs), at
//!   feature dims 8/64/256: the plan `halfgnn-tune` picks for SpMM
//!   (discretized scaling) and SDDMM, its modeled cycles vs the static
//!   default plan's, and whether the oracle accepted both runs. The tuner
//!   only ever returns oracle-vetted plans, so `oracle_clean` is a hard
//!   invariant, not an observation.
//! * `training` — one GCN and one GAT epoch on the SBM PubMed stand-in
//!   (low skew) and the preferential-attachment Hollywood09 stand-in
//!   (power law), `tuning: Off` vs `tuning: Auto`: modeled epoch time,
//!   plan-cache counters, and the run's total non-finite conversion count
//!   (must be 0 — tuned plans may not destabilize training).
//!
//! The headline: on both graph regimes the tuner strictly beats the
//! default plan for the narrow/medium feature dims, and the epoch time
//! under `Auto` drops accordingly while losses stay inside oracle
//! tolerance.

use super::{kernel_graphs, overflow_events, regimes};
use crate::row::Row;
use halfgnn_graph::datasets::Dataset;
use halfgnn_kernels::common::ScalePlacement;
use halfgnn_nn::trainer::{train_on, ModelKind, PrecisionMode, TrainConfig, Tuning};
use halfgnn_sim::DeviceConfig;
use halfgnn_tune::{KernelPlan, SddmmPlan, SpmmPlan, Tuner};

pub(super) fn run() -> Row {
    let dev = DeviceConfig::a100_like();
    let mut kernels = Vec::new();
    let mut strict_wins = 0usize;
    for (graph, csr) in &kernel_graphs() {
        for f in [8usize, 64, 256] {
            let t = Tuner::auto(&dev);
            let spmm = t.spmm_plan(csr, f, false, ScalePlacement::Discretized);
            let vet_spmm =
                |plan: &SpmmPlan| t.vet_spmm(csr, f, false, ScalePlacement::Discretized, plan);
            let spmm_default =
                vet_spmm(&SpmmPlan::default()).expect("default SpMM plan must be oracle-clean");
            let spmm_tuned = vet_spmm(&spmm).expect("tuned SpMM plan must be oracle-clean");
            let sddmm = t.sddmm_plan(csr, f);
            let sddmm_default = t
                .vet_sddmm(csr, f, &SddmmPlan::default_for(f))
                .expect("default SDDMM plan must be oracle-clean");
            let sddmm_tuned =
                t.vet_sddmm(csr, f, &sddmm).expect("tuned SDDMM plan must be oracle-clean");
            for (op, plan, default_cycles, tuned_cycles) in [
                ("spmm", KernelPlan::Spmm(spmm), spmm_default, spmm_tuned),
                ("sddmm", KernelPlan::Sddmm(sddmm), sddmm_default, sddmm_tuned),
            ] {
                strict_wins += usize::from(tuned_cycles < default_cycles);
                kernels.push(
                    Row::new()
                        .str("graph", graph)
                        .str("op", op)
                        .val("f", f)
                        .str("plan", &plan.encode())
                        .fixed("default_cycles", default_cycles, 1)
                        .fixed("tuned_cycles", tuned_cycles, 1)
                        .fixed("speedup", default_cycles / tuned_cycles, 3)
                        .val("oracle_clean", true),
                );
            }
        }
    }

    let mut training = Vec::new();
    let mut total_overflow = 0u64;
    for (graph, data) in &regimes(Dataset::pubmed()) {
        for model in [ModelKind::Gcn, ModelKind::Gat] {
            let base = TrainConfig {
                model,
                precision: PrecisionMode::HalfGnn,
                epochs: 1,
                hidden: 64,
                ..TrainConfig::default()
            };
            let off = train_on(&dev, data, &base);
            let auto = train_on(&dev, data, &TrainConfig { tuning: Tuning::Auto, ..base });
            let c = auto.tuning_counters.expect("Auto reports counters");
            let overflow = overflow_events(&auto);
            total_overflow += overflow;
            training.push(
                Row::new()
                    .str("graph", graph)
                    .str("model", model.tag())
                    .fixed("off_epoch_us", off.epoch_time_us, 1)
                    .fixed("auto_epoch_us", auto.epoch_time_us, 1)
                    .fixed("speedup", off.epoch_time_us / auto.epoch_time_us, 3)
                    .val("cache_hits", c.hits)
                    .val("cache_misses", c.misses)
                    .val("candidate_evaluations", c.evaluations)
                    .val("overflow_events", overflow),
            );
        }
    }

    assert!(strict_wins >= 2, "tuner must strictly beat the default somewhere");
    assert_eq!(total_overflow, 0, "tuned training must stay overflow-free");
    Row::new()
        .str("device", "a100_like (modeled)")
        .val("strict_improvement_ops", strict_wins)
        .val("total_overflow_events", total_overflow)
        .rows("kernels", kernels)
        .rows("training", training)
}
