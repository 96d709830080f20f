//! Fig. 9 — kernel-level speedups of HalfGNN over DGL-half: SpMMve vs
//! cuSPARSE-half (paper: 22.89× average) and SDDMM vs DGL-half SDDMM
//! (paper: 7.12× average), feature sizes 32 and 64.

use crate::experiments::{perf_datasets, random_edge_weights_h, random_features_h, SEED};
use crate::{fx, geomean, Table};
use halfgnn_kernels::baseline::{cusparse, dgl_sddmm};
use halfgnn_kernels::common::{EdgeWeights, VectorWidth};
use halfgnn_kernels::{halfgnn_sddmm, halfgnn_spmm};
use halfgnn_sim::DeviceConfig;

/// Kernel speedups for both kernels and both feature sizes.
pub fn run(quick: bool) -> Table {
    let dev = DeviceConfig::a100_like();
    let mut t = Table::new(
        "Fig 9 — kernel speedup over DGL-half kernels",
        &["dataset", "SpMM F=32", "SpMM F=64", "SDDMM F=32", "SDDMM F=64"],
    );
    let mut spmm_all = Vec::new();
    let mut sddmm_all = Vec::new();
    for ds in perf_datasets(quick) {
        let data = ds.load(SEED);
        let w = random_edge_weights_h(&data, 3);
        let mut cells = vec![data.spec.name.to_string()];
        for &f in &[32usize, 64] {
            let x = random_features_h(&data, f, 4);
            let (_, base) =
                cusparse::spmm_half(&dev, &data.coo, EdgeWeights::Values(&w), &x, f, None);
            let (_, ours) = halfgnn_spmm::spmm(
                &dev,
                &data.coo,
                EdgeWeights::Values(&w),
                &x,
                f,
                None,
                &halfgnn_spmm::SpmmConfig {
                    scaling: halfgnn_kernels::common::ScalePlacement::None,
                    ..Default::default()
                },
            );
            let s = base.time_us / ours.time_us;
            spmm_all.push(s);
            cells.push(fx(s));
        }
        for &f in &[32usize, 64] {
            let u = random_features_h(&data, f, 5);
            let v = random_features_h(&data, f, 6);
            let (_, base) = dgl_sddmm::sddmm_half(&dev, &data.coo, &u, &v, f);
            let (_, ours) = halfgnn_sddmm::sddmm(&dev, &data.coo, &u, &v, f, VectorWidth::Half8);
            let s = base.time_us / ours.time_us;
            sddmm_all.push(s);
            cells.push(fx(s));
        }
        t.row(cells);
    }
    t.row(vec![
        "**geomean**".into(),
        fx(geomean(&spmm_all[..])),
        String::new(),
        fx(geomean(&sddmm_all[..])),
        String::new(),
    ]);
    t.note(format!(
        "geomean SpMM speedup {} (paper 22.89x avg), SDDMM {} (paper 7.12x avg)",
        fx(geomean(&spmm_all)),
        fx(geomean(&sddmm_all))
    ));
    t
}

/// The paper's secondary measurement: HalfGNN SpMM vs cuSPARSE-*float*
/// ("a more realistic 2.52x average").
pub fn spmm_vs_float(quick: bool) -> Table {
    let dev = DeviceConfig::a100_like();
    let mut t = Table::new(
        "Fig 9 (aux) — HalfGNN SpMM speedup over cuSPARSE-float",
        &["dataset", "F=32", "F=64"],
    );
    let mut all = Vec::new();
    for ds in perf_datasets(quick) {
        let data = ds.load(SEED);
        let mut cells = vec![data.spec.name.to_string()];
        for &f in &[32usize, 64] {
            let xf = crate::experiments::random_features_f(&data, f, 4);
            let xh = random_features_h(&data, f, 4);
            let (_, base) = cusparse::spmm_float(&dev, &data.coo, EdgeWeights::Ones, &xf, f, None);
            let (_, ours) = halfgnn_spmm::spmm(
                &dev,
                &data.coo,
                EdgeWeights::Ones,
                &xh,
                f,
                None,
                &halfgnn_spmm::SpmmConfig {
                    scaling: halfgnn_kernels::common::ScalePlacement::None,
                    ..Default::default()
                },
            );
            let s = base.time_us / ours.time_us;
            all.push(s);
            cells.push(fx(s));
        }
        t.row(cells);
    }
    t.note(format!("geomean = {} (paper: 2.52x average)", fx(geomean(&all))));
    t
}
