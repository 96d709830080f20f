//! Kernel laboratory: run the HalfGNN kernels and every baseline on one
//! graph and print the modeled performance counters side by side — the
//! numbers behind Figs. 9–14.
//!
//! ```text
//! cargo run --release --example kernel_lab [dataset]
//! ```

use halfgnn::graph::datasets::Dataset;
use halfgnn::half::slice::f32_slice_to_half;
use halfgnn::kernels::baseline::{cusparse, dgl_sddmm, ge_spmm};
use halfgnn::kernels::common::{EdgeWeights, ScalePlacement, VectorWidth, WriteStrategy};
use halfgnn::kernels::{halfgnn_sddmm, halfgnn_spmm, huang};
use halfgnn::sim::{DeviceConfig, KernelStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn show(label: &str, s: &KernelStats) {
    println!(
        "{:<26} {:>10.1} us  BW {:>5.1}%  SM {:>5.1}%  {:>7} MiB moved  atomics {:>8}",
        label,
        s.time_us,
        s.mem_bw_utilization,
        s.sm_utilization,
        s.dram_bytes() / (1024 * 1024),
        s.totals.atomics_f32 + s.totals.atomics_f16,
    );
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "hollywood09".into());
    let data = Dataset::by_id(&name).expect("unknown dataset (try G4..G16 or a name)").load(42);
    let dev = DeviceConfig::a100_like();
    let f = 64;
    println!(
        "{}: {} vertices, {} edges, mean degree {:.1}, max degree {}\n",
        data.spec.name,
        data.num_vertices(),
        data.num_edges(),
        data.adj.mean_degree(),
        data.adj.max_degree()
    );

    let mut rng = StdRng::seed_from_u64(3);
    let xf: Vec<f32> = (0..data.num_vertices() * f).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let xh = f32_slice_to_half(&xf);
    let wf: Vec<f32> = (0..data.num_edges()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let wh = f32_slice_to_half(&wf);

    println!("--- SpMMve (F = {f}) ---");
    let none = halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() };
    let (_, s) = halfgnn_spmm::spmm(&dev, &data.coo, EdgeWeights::Values(&wh), &xh, f, None, &none);
    show("HalfGNN (staged)", &s);
    let (_, s) = halfgnn_spmm::spmm(
        &dev,
        &data.coo,
        EdgeWeights::Values(&wh),
        &xh,
        f,
        None,
        &halfgnn_spmm::SpmmConfig { writes: WriteStrategy::Atomic, ..none },
    );
    show("HalfGNN (atomic ablation)", &s);
    let (_, s) = cusparse::spmm_half(&dev, &data.coo, EdgeWeights::Values(&wh), &xh, f, None);
    show("cuSPARSE-half (DGL-half)", &s);
    let (_, s) = cusparse::spmm_float(&dev, &data.coo, EdgeWeights::Values(&wf), &xf, f, None);
    show("cuSPARSE-float", &s);
    let (_, s) = ge_spmm::spmm_float(&dev, &data.adj, &xf, f);
    show("GE-SpMM (vertex-par f32)", &s);
    let (_, s) = huang::spmm_float(&dev, &data.adj, EdgeWeights::Ones, &xf, f);
    show("Huang-float", &s);
    let (_, s) = huang::spmm_half2(&dev, &data.adj, EdgeWeights::Ones, &xh, f);
    show("Huang-half2 (§5.4)", &s);

    println!("\n--- SDDMM (F = {f}) ---");
    let uh = f32_slice_to_half(&xf);
    for width in [VectorWidth::Half2, VectorWidth::Half4, VectorWidth::Half8] {
        let (_, s) = halfgnn_sddmm::sddmm(&dev, &data.coo, &uh, &xh, f, width);
        show(&format!("HalfGNN {width:?}"), &s);
    }
    let (_, s) = dgl_sddmm::sddmm_half(&dev, &data.coo, &uh, &xh, f);
    show("DGL-half", &s);
    let (_, s) = dgl_sddmm::sddmm_float(&dev, &data.coo, &xf, &xf, f);
    show("DGL-float", &s);
}
