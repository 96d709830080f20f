//! `fused` → `BENCH_pr4.json`: the single-pass SDDMM → edge-softmax →
//! SpMM attention kernel vs. the five-kernel unfused chain.
//!
//! Two sections, both on a modeled A100:
//!
//! * `kernels` — for the two [`kernel_graphs`](super::kernel_graphs), at
//!   feature dims 8/64/256: modeled cycles and modeled DRAM bytes of the
//!   GAT attention forward (scores → row-max → shadow-exp → row-sum →
//!   normalize → aggregate) and the softmax-grad backward, fused vs.
//!   unfused. Every fused run goes through the f64 oracle (`oracle_clean`
//!   is asserted, not observed) and inside an `overflow::isolated` window
//!   (event count must be 0).
//! * `training` — one end-to-end GAT epoch on the SBM PubMed stand-in and
//!   the preferential-attachment Hollywood09 stand-in, `tuning: Off` vs
//!   `tuning: Auto` (the tuner owns the fused/unfused choice): modeled
//!   epoch time, modeled DRAM traffic, plan-cache counters, and the run's
//!   non-finite conversion count (must be 0).
//!
//! The headline: at narrow feature dims the fused pass wins big on both
//! cycles and DRAM traffic (the eliminated |E|-length intermediates
//! dominate); at wide dims the per-edge feature gather dominates both
//! pipelines and the gap narrows — exactly why fusion is a tuned
//! dimension rather than a hard-wired default.

use super::{kernel_graphs, overflow_events, regimes};
use crate::row::Row;
use halfgnn_graph::datasets::Dataset;
use halfgnn_graph::Coo;
use halfgnn_half::overflow;
use halfgnn_half::slice::f32_slice_to_half;
use halfgnn_half::Half;
use halfgnn_kernels::common::{EdgeWeights, Reduce, ScalePlacement};
use halfgnn_kernels::oracle::{self, Tolerance};
use halfgnn_kernels::{edge_ops, halfgnn_spmm};
use halfgnn_nn::trainer::{train_on, ModelKind, PrecisionMode, TrainConfig, Tuning};
use halfgnn_sim::{DeviceConfig, KernelStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ATTN_SLOPE: f32 = 0.2;

fn random_halves(n: usize, scale: f32, seed: u64) -> Vec<Half> {
    let mut rng = StdRng::seed_from_u64(seed);
    let v: Vec<f32> = (0..n).map(|_| rng.gen_range(-scale..scale)).collect();
    f32_slice_to_half(&v)
}

/// The five-kernel unfused attention forward, with composed stats.
fn unfused_forward(
    dev: &DeviceConfig,
    coo: &Coo,
    s_row: &[Half],
    s_col: &[Half],
    z: &[Half],
    f: usize,
) -> (Vec<Half>, Vec<Half>, KernelStats) {
    let (e, s1) = edge_ops::src_dst_add_leakyrelu(dev, coo, s_row, s_col, ATTN_SLOPE);
    let (m, s2) = halfgnn_spmm::edge_reduce(dev, coo, &e, Reduce::Max);
    let (num, s3) = edge_ops::sub_row_exp(dev, coo, &e, &m, true);
    let (zs, s4) = halfgnn_spmm::edge_reduce(dev, coo, &num, Reduce::Sum);
    let (alpha, s5) = edge_ops::div_row(dev, coo, &num, &zs);
    let (_, s6) = halfgnn_spmm::spmm(
        dev,
        coo,
        EdgeWeights::Values(&alpha),
        z,
        f,
        None,
        &halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
    );
    (e, alpha, s1.then(&s2).then(&s3).then(&s4).then(&s5).then(&s6))
}

/// The four-kernel unfused softmax-grad backward, with composed stats.
fn unfused_backward(
    dev: &DeviceConfig,
    coo: &Coo,
    alpha: &[Half],
    dalpha: &[Half],
    e: &[Half],
) -> KernelStats {
    let (prod, s1) = edge_ops::mul(dev, coo, alpha, dalpha);
    let (t, s2) = halfgnn_spmm::edge_reduce(dev, coo, &prod, Reduce::Sum);
    let (de_soft, s3) = edge_ops::softmax_grad(dev, coo, alpha, dalpha, &t);
    let (_, s4) = edge_ops::leakyrelu_grad(dev, coo, e, &de_soft, ATTN_SLOPE);
    s1.then(&s2).then(&s3).then(&s4)
}

pub(super) fn run() -> Row {
    let dev = DeviceConfig::a100_like();
    let tol = Tolerance::half_default();
    let mut kernels = Vec::new();
    let mut headline_configs = 0usize;
    let mut total_overflow = 0u64;
    for (name, csr) in &kernel_graphs() {
        let coo = csr.to_coo();
        for f in [8usize, 64, 256] {
            let s_row = random_halves(coo.num_rows(), 1.0, 0x40 ^ f as u64);
            let s_col = random_halves(coo.num_cols(), 1.0, 0x41 ^ f as u64);
            let z = random_halves(coo.num_cols() * f, 0.5, 0x42 ^ f as u64);
            let dalpha = random_halves(coo.nnz(), 0.5, 0x43 ^ f as u64);

            // Fused paths run under the oracle and an isolated provenance
            // window: correctness is a hard gate on every benchmark row.
            let ((fwd, fwd_stats, fwd_report), fwd_sum) = overflow::isolated(|| {
                oracle::check_fused_attn_forward(&dev, &coo, &s_row, &s_col, ATTN_SLOPE, &z, f, tol)
            });
            fwd_report.assert_ok();
            let ((_, bwd_stats, bwd_report), bwd_sum) = overflow::isolated(|| {
                oracle::check_fused_softmax_grad(
                    &dev, &coo, &fwd.alpha, &dalpha, &fwd.e, ATTN_SLOPE, tol,
                )
            });
            bwd_report.assert_ok();

            let (e_u, alpha_u, u_fwd) = unfused_forward(&dev, &coo, &s_row, &s_col, &z, f);
            let u_bwd = unfused_backward(&dev, &coo, &alpha_u, &dalpha, &e_u);

            let fwd_speedup = u_fwd.cycles / fwd_stats.cycles;
            let fwd_dram_ratio = u_fwd.dram_bytes() as f64 / fwd_stats.dram_bytes() as f64;
            headline_configs += usize::from(fwd_speedup >= 1.25 && fwd_dram_ratio >= 1.5);
            let overflow = fwd_sum.nonfinite() + bwd_sum.nonfinite();
            total_overflow += overflow;
            kernels.push(
                Row::new()
                    .str("graph", name)
                    .val("f", f)
                    .fixed("fwd_fused_cycles", fwd_stats.cycles, 1)
                    .fixed("fwd_unfused_cycles", u_fwd.cycles, 1)
                    .fixed("fwd_cycle_speedup", fwd_speedup, 3)
                    .val("fwd_fused_dram_bytes", fwd_stats.dram_bytes())
                    .val("fwd_unfused_dram_bytes", u_fwd.dram_bytes())
                    .fixed("fwd_dram_ratio", fwd_dram_ratio, 3)
                    .fixed("bwd_fused_cycles", bwd_stats.cycles, 1)
                    .fixed("bwd_unfused_cycles", u_bwd.cycles, 1)
                    .fixed("bwd_cycle_speedup", u_bwd.cycles / bwd_stats.cycles, 3)
                    .val("bwd_fused_dram_bytes", bwd_stats.dram_bytes())
                    .val("bwd_unfused_dram_bytes", u_bwd.dram_bytes())
                    .fixed(
                        "bwd_dram_ratio",
                        u_bwd.dram_bytes() as f64 / bwd_stats.dram_bytes() as f64,
                        3,
                    )
                    .val("oracle_clean", true)
                    .val("overflow_events", overflow),
            );
        }
    }

    let mut training = Vec::new();
    for (graph, data) in &regimes(Dataset::pubmed()) {
        let base = TrainConfig {
            model: ModelKind::Gat,
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
        let (off_dram, auto_dram) = (off.dram_bytes_per_epoch, auto.dram_bytes_per_epoch);
        training.push(
            Row::new()
                .str("graph", graph)
                .str("model", "gat")
                .fixed("off_epoch_us", off.epoch_time_us, 1)
                .fixed("auto_epoch_us", auto.epoch_time_us, 1)
                .fixed("speedup", off.epoch_time_us / auto.epoch_time_us, 3)
                .val("off_dram_bytes", off_dram)
                .val("auto_dram_bytes", auto_dram)
                .fixed("dram_ratio", off_dram as f64 / auto_dram as f64, 3)
                .val("cache_hits", c.hits)
                .val("cache_misses", c.misses)
                .val("candidate_evaluations", c.evaluations)
                .val("overflow_events", overflow),
        );
    }

    assert!(
        headline_configs >= 1,
        "fused attention must hit >=1.25x cycles and >=1.5x dram on some config"
    );
    assert_eq!(total_overflow, 0, "fused pipeline must stay overflow-free");
    Row::new()
        .str("device", "a100_like (modeled)")
        .val("headline_configs", headline_configs)
        .val("total_overflow_events", total_overflow)
        .rows("kernels", kernels)
        .rows("training", training)
}
