//! Figs. 10 & 11 — NCU-style utilization counters: HalfGNN kernels achieve
//! much higher memory-bandwidth (and SM) utilization than the DGL/cuSPARSE
//! baselines.

use crate::experiments::{
    perf_datasets, random_edge_weights_f, random_edge_weights_h, random_features_f,
    random_features_h, SEED,
};
use crate::Table;
use halfgnn_kernels::baseline::{cusparse, dgl_sddmm};
use halfgnn_kernels::common::{EdgeWeights, ScalePlacement, VectorWidth};
use halfgnn_kernels::{halfgnn_sddmm, halfgnn_spmm};
use halfgnn_sim::DeviceConfig;

/// Fig. 10: SpMM memory-BW% and SM% for HalfGNN / cuSPARSE-half /
/// cuSPARSE-float, averaged over the performance datasets.
pub fn fig10(quick: bool) -> Table {
    let dev = DeviceConfig::a100_like();
    let f = 64;
    let mut t = Table::new(
        "Fig 10 — SpMM utilization (%, mean over datasets)",
        &["system", "mem BW %", "SM %"],
    );
    let mut acc = [[0.0f64; 2]; 3];
    let mut n = 0usize;
    for ds in perf_datasets(quick) {
        let data = ds.load(SEED);
        let wh = random_edge_weights_h(&data, 3);
        let wf = random_edge_weights_f(&data, 3);
        let xh = random_features_h(&data, f, 4);
        let xf = random_features_f(&data, f, 4);
        let (_, ours) = halfgnn_spmm::spmm(
            &dev,
            &data.coo,
            EdgeWeights::Values(&wh),
            &xh,
            f,
            None,
            &halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
        );
        let (_, half) =
            cusparse::spmm_half(&dev, &data.coo, EdgeWeights::Values(&wh), &xh, f, None);
        let (_, float) =
            cusparse::spmm_float(&dev, &data.coo, EdgeWeights::Values(&wf), &xf, f, None);
        for (i, s) in [&ours, &half, &float].iter().enumerate() {
            acc[i][0] += s.mem_bw_utilization;
            acc[i][1] += s.sm_utilization;
        }
        n += 1;
    }
    for (i, name) in
        ["HalfGNN", "cuSPARSE-half (DGL-half)", "cuSPARSE-float (DGL-float)"].iter().enumerate()
    {
        t.row(vec![
            name.to_string(),
            format!("{:.1}", acc[i][0] / n as f64),
            format!("{:.1}", acc[i][1] / n as f64),
        ]);
    }
    t.note(
        "paper: mem BW 80.9 / 20.2 / 52.0 %, SM 72.3 / 21.6 / 50.8 % — the ordering is the claim.",
    );
    t
}

/// Fig. 11: SDDMM memory-BW% for HalfGNN / DGL-half / DGL-float.
pub fn fig11(quick: bool) -> Table {
    let dev = DeviceConfig::a100_like();
    let f = 64;
    let mut t = Table::new(
        "Fig 11 — SDDMM memory bandwidth utilization (%, mean over datasets)",
        &["system", "mem BW %"],
    );
    let mut acc = [0.0f64; 3];
    let mut n = 0usize;
    for ds in perf_datasets(quick) {
        let data = ds.load(SEED);
        let uh = random_features_h(&data, f, 5);
        let vh = random_features_h(&data, f, 6);
        let uf = random_features_f(&data, f, 5);
        let vf = random_features_f(&data, f, 6);
        let (_, ours) = halfgnn_sddmm::sddmm(&dev, &data.coo, &uh, &vh, f, VectorWidth::Half8);
        let (_, half) = dgl_sddmm::sddmm_half(&dev, &data.coo, &uh, &vh, f);
        let (_, float) = dgl_sddmm::sddmm_float(&dev, &data.coo, &uf, &vf, f);
        acc[0] += ours.mem_bw_utilization;
        acc[1] += half.mem_bw_utilization;
        acc[2] += float.mem_bw_utilization;
        n += 1;
    }
    for (i, name) in ["HalfGNN (half8)", "DGL-half", "DGL-float"].iter().enumerate() {
        t.row(vec![name.to_string(), format!("{:.1}", acc[i] / n as f64)]);
    }
    t.note("paper: 83.7 / 50.9 / 50.6 % — HalfGNN well above both baselines, baselines similar.");
    t
}
