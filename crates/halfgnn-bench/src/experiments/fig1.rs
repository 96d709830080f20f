//! Fig. 1 — the motivating analysis: (a) cuSPARSE half SpMM is *slower*
//! than float, (b) DGL half SDDMM is no faster than float, (c) DGL-half
//! training collapses to NaN for GCN and GIN.

use crate::experiments::{fig1_datasets, random_features_f, random_features_h, SEED};
use crate::{fx, geomean, us, Table};
use halfgnn_kernels::baseline::cusparse;
use halfgnn_kernels::baseline::dgl_sddmm;
use halfgnn_kernels::common::EdgeWeights;
use halfgnn_nn::trainer::{train, ModelKind, PrecisionMode, TrainConfig};
use halfgnn_sim::DeviceConfig;

/// Fig. 1a: cuSPARSE SpMM runtime, half vs float, across feature lengths.
pub fn fig1a(quick: bool) -> Table {
    let dev = DeviceConfig::a100_like();
    let feats: &[usize] = if quick { &[32, 64] } else { &[32, 64, 128, 256] };
    let mut t = Table::new(
        "Fig 1a — cuSPARSE SpMM: half is slower than float",
        &["dataset", "|F|", "float (us)", "half (us)", "half/float"],
    );
    let mut ratios = Vec::new();
    for ds in fig1_datasets() {
        let data = ds.load(SEED);
        for &f in feats {
            let xf = random_features_f(&data, f, 7);
            let xh = random_features_h(&data, f, 7);
            let (_, sf) = cusparse::spmm_float(&dev, &data.coo, EdgeWeights::Ones, &xf, f, None);
            let (_, sh) = cusparse::spmm_half(&dev, &data.coo, EdgeWeights::Ones, &xh, f, None);
            let ratio = sh.time_us / sf.time_us;
            ratios.push(ratio);
            t.row(vec![
                data.spec.name.to_string(),
                f.to_string(),
                us(sf.time_us),
                us(sh.time_us),
                fx(ratio),
            ]);
        }
    }
    t.note(format!(
        "geomean half/float = {} (> 1 means half is slower — the paper's Fig 1a shape)",
        fx(geomean(&ratios))
    ));
    t
}

/// Fig. 1b: DGL SDDMM runtime, half vs float.
pub fn fig1b(quick: bool) -> Table {
    let dev = DeviceConfig::a100_like();
    let feats: &[usize] = if quick { &[32, 64] } else { &[32, 64, 128, 256] };
    let mut t = Table::new(
        "Fig 1b — DGL SDDMM: half gives no speedup over float",
        &["dataset", "|F|", "float (us)", "half (us)", "half/float"],
    );
    let mut ratios = Vec::new();
    for ds in fig1_datasets() {
        let data = ds.load(SEED);
        for &f in feats {
            let uf = random_features_f(&data, f, 8);
            let vf = random_features_f(&data, f, 9);
            let uh = random_features_h(&data, f, 8);
            let vh = random_features_h(&data, f, 9);
            let (_, sf) = dgl_sddmm::sddmm_float(&dev, &data.coo, &uf, &vf, f);
            let (_, sh) = dgl_sddmm::sddmm_half(&dev, &data.coo, &uh, &vh, f);
            let ratio = sh.time_us / sf.time_us;
            ratios.push(ratio);
            t.row(vec![
                data.spec.name.to_string(),
                f.to_string(),
                us(sf.time_us),
                us(sh.time_us),
                fx(ratio),
            ]);
        }
    }
    t.note(format!(
        "geomean half/float = {} (~1 means no benefit — the paper's Fig 1b shape)",
        fx(geomean(&ratios))
    ));
    t
}

/// Fig. 1c: DGL-half training accuracy collapses for GCN/GIN (NaN loss).
pub fn fig1c(quick: bool) -> Table {
    let epochs = if quick { 8 } else { 30 };
    let mut t = Table::new(
        "Fig 1c — DGL-half accuracy collapse on GCN/GIN",
        &["dataset", "model", "float acc", "dgl-half acc", "dgl-half NaN epoch"],
    );
    for ds in fig1_datasets() {
        let data = ds.load(SEED);
        for model in [ModelKind::Gcn, ModelKind::Gin] {
            let base = TrainConfig { model, epochs, ..TrainConfig::default() };
            let f = train(&data, &TrainConfig { precision: PrecisionMode::Float, ..base.clone() });
            let h =
                train(&data, &TrainConfig { precision: PrecisionMode::HalfNaive, ..base.clone() });
            t.row(vec![
                data.spec.name.to_string(),
                format!("{model:?}"),
                format!("{:.3}", f.final_train_accuracy),
                format!("{:.3}", h.final_train_accuracy),
                h.nan_epoch.map_or("-".into(), |e| e.to_string()),
            ]);
        }
    }
    t.note("DGL-half loss becomes NaN within the first epochs (value overflow in SpMM reduction, §3.1.3).");
    t
}
