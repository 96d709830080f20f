//! Fig. 14 — generality: applying the HalfGNN optimizations (half2 loads,
//! mirroring with the alignment fix, non-atomic writes) to Huang et al.'s
//! vertex-parallel SpMM (paper: 1.79× average).

use crate::experiments::{perf_datasets, random_features_f, random_features_h, SEED};
use crate::{fx, geomean, Table};
use halfgnn_kernels::common::EdgeWeights;
use halfgnn_kernels::huang;
use halfgnn_sim::DeviceConfig;

/// Huang-half2 speedup over Huang-float, F = 64.
pub fn run(quick: bool) -> Table {
    let dev = DeviceConfig::a100_like();
    let f = 64;
    let mut t = Table::new(
        "Fig 14 — Huang et al. SpMM: half2 adaptation vs float original",
        &["dataset", "float (us)", "half2 (us)", "speedup"],
    );
    let mut all = Vec::new();
    for ds in perf_datasets(quick) {
        let data = ds.load(SEED);
        let xf = random_features_f(&data, f, 11);
        let xh = random_features_h(&data, f, 11);
        let (_, float) = huang::spmm_float(&dev, &data.adj, EdgeWeights::Ones, &xf, f);
        let (_, half2) = huang::spmm_half2(&dev, &data.adj, EdgeWeights::Ones, &xh, f);
        let s = float.time_us / half2.time_us;
        all.push(s);
        t.row(vec![
            data.spec.name.to_string(),
            format!("{:.1}", float.time_us),
            format!("{:.1}", half2.time_us),
            fx(s),
        ]);
    }
    t.note(format!(
        "geomean = {} (paper: 1.79x average) — the 32-neighbor grouping is kept, so edge loads stay 64 B as in §6.3.3",
        fx(geomean(&all))
    ));
    t
}
