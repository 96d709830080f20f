//! cuSPARSE-style SpMM, float and half — what DGL invokes.
//!
//! The float kernel is a competent workload-balanced design: edge tiles,
//! feature-parallel `f32` loads (128 B per warp instruction), and `f32`
//! atomics for row segments that cross tile boundaries.
//!
//! The half kernel keeps the identical structure but (a) loads scalar
//! halves — only 64 B per warp instruction, (b) computes through the
//! implicit float-promotion path of Fig. 3a (h2f → float op → f2h on
//! store), and (c) resolves conflicts with 16-bit atomics, which CAS-loop
//! on the containing word. Accumulation happens in half precision at the
//! output, so hub rows overflow to INF — the §3.1.3 pathology. Both
//! effects are what Fig. 1a measures.

use crate::common::launch;
use crate::common::{EdgeWeights, Tiling};
use crate::halfgnn_spmm::row_offsets_of;
use halfgnn_graph::Coo;
use halfgnn_half::Half;
use halfgnn_sim::launch::{commit_all, LaunchParams, WriteList};
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{AtomicKind, DeviceConfig, KernelStats};

/// cuSPARSE-float SpMM: `Y ← A_w X` in `f32` with sum reduction and
/// optional post-reduction row scaling (how DGL applies degree norm).
pub fn spmm_float(
    dev: &DeviceConfig,
    coo: &Coo,
    w: EdgeWeights<f32>,
    x: &[f32],
    f: usize,
    row_scale: Option<&[f32]>,
) -> (Vec<f32>, KernelStats) {
    spmm_float_window(dev, coo, w, x, f, row_scale, (0, coo.num_rows()))
}

/// [`spmm_float`] restricted to the global row window `[r0, r1)`: the
/// per-shard launch of the distributed float path. Global edge tiling
/// clamped to the window keeps per-row segment cuts — and therefore f32
/// summation order — identical to the full run, so window rows are
/// bit-identical. Rows outside the window are zero.
pub fn spmm_float_window(
    dev: &DeviceConfig,
    coo: &Coo,
    w: EdgeWeights<f32>,
    x: &[f32],
    f: usize,
    row_scale: Option<&[f32]>,
    row_window: (usize, usize),
) -> (Vec<f32>, KernelStats) {
    assert_eq!(x.len(), coo.num_cols() * f, "X shape mismatch");
    let (r0, r1) = row_window;
    assert!(r0 <= r1 && r1 <= coo.num_rows(), "bad row window {row_window:?}");
    let nnz = coo.nnz();
    let num_rows = coo.num_rows();
    let tiling = Tiling::default();
    let rows = coo.rows();
    let cols = coo.cols();
    let row_offsets = row_offsets_of(coo);
    let (e0, e1) = (row_offsets[r0], row_offsets[r1]);
    let (cta_lo, cta_hi) = tiling.cta_range(e0, e1);
    let num_ctas = cta_hi - cta_lo;

    let mut space = AddrSpace::new();
    let rows_base = space.alloc(nnz, 4);
    let cols_base = space.alloc(nnz, 4);
    let w_base = space.alloc(nnz, 4);
    let x_base = space.alloc(x.len(), 4);
    let y_base = space.alloc(num_rows * f, 4);

    let (cta_outs, stats) = launch(
        dev,
        if w.is_ones() { "cusparse_f32_spmmv" } else { "cusparse_f32_spmmve" },
        LaunchParams { num_ctas, warps_per_cta: tiling.warps_per_cta },
        |cta| {
            let mut writes: WriteList<f32> = WriteList::new();
            for wi in 0..tiling.warps_per_cta {
                let (s, e) = tiling.warp_range_in(cta.id + cta_lo, wi, e0, e1);
                if s >= e {
                    continue;
                }
                let n = e - s;
                let mut warp = cta.warp(wi);
                warp.load_contiguous(rows_base + s as u64 * 4, n, 4);
                warp.load_contiguous(cols_base + s as u64 * 4, n, 4);
                if !w.is_ones() {
                    warp.load_contiguous(w_base + s as u64 * 4, n, 4);
                }
                // Feature-parallel f32 loads: 128 B per instruction.
                warp.load_feature_rows(
                    (s..e).map(|ei| x_base + cols[ei] as u64 * (f as u64 * 4)),
                    f * 4,
                    4,
                );
                let fma_instrs = (n as u64 * f as u64).div_ceil(32);
                warp.float_ops(fma_instrs);

                let mut acc = vec![0f32; f];
                let mut seg_row = rows[s];
                let mut seg_start = s;
                for ei in s..=e {
                    let boundary = ei == e || rows[ei] != seg_row;
                    if boundary {
                        let full = seg_start == row_offsets[seg_row as usize]
                            && ei == row_offsets[seg_row as usize + 1];
                        let vals = std::mem::replace(&mut acc, vec![0f32; f]);
                        if full {
                            warp.store_contiguous(y_base + seg_row as u64 * (f as u64 * 4), f, 4);
                            writes.assign(seg_row as usize * f, vals);
                        } else {
                            let deg = (row_offsets[seg_row as usize + 1]
                                - row_offsets[seg_row as usize])
                                as f64;
                            let conflict = (deg / tiling.edges_per_warp as f64).max(0.0);
                            warp.atomic_add(AtomicKind::F32, f as u64, conflict);
                            writes.add(seg_row as usize * f, vals);
                        }
                        if ei == e {
                            break;
                        }
                        seg_row = rows[ei];
                        seg_start = ei;
                    }
                    let c = cols[ei] as usize;
                    let wv = w.get(ei);
                    for (a, &xv) in acc.iter_mut().zip(&x[c * f..(c + 1) * f]) {
                        *a += wv * xv;
                    }
                }
            }
            writes
        },
    );

    let mut y = vec![0f32; num_rows * f];
    commit_all(cta_outs, &mut y);
    if let Some(scale) = row_scale {
        for r in r0..r1 {
            for v in &mut y[r * f..(r + 1) * f] {
                *v *= scale[r];
            }
        }
    }
    (y, stats)
}

/// cuSPARSE-half SpMM: identical structure, scalar half loads, Fig. 3a
/// arithmetic, 16-bit atomics, half-precision accumulation at the output.
/// Post-reduction row scaling (too late to stop overflow).
pub fn spmm_half(
    dev: &DeviceConfig,
    coo: &Coo,
    w: EdgeWeights,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
) -> (Vec<Half>, KernelStats) {
    spmm_half_window(dev, coo, w, x, f, row_scale, (0, coo.num_rows()))
}

/// [`spmm_half`] restricted to the global row window `[r0, r1)`; see
/// [`spmm_float_window`] for the tiling-alignment contract.
pub fn spmm_half_window(
    dev: &DeviceConfig,
    coo: &Coo,
    w: EdgeWeights,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    row_window: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    assert_eq!(x.len(), coo.num_cols() * f, "X shape mismatch");
    let (r0, r1) = row_window;
    assert!(r0 <= r1 && r1 <= coo.num_rows(), "bad row window {row_window:?}");
    let _site = halfgnn_half::overflow::site(if w.is_ones() {
        "cusparse_f16_spmmv"
    } else {
        "cusparse_f16_spmmve"
    });
    let nnz = coo.nnz();
    let num_rows = coo.num_rows();
    let tiling = Tiling::default();
    let rows = coo.rows();
    let cols = coo.cols();
    let row_offsets = row_offsets_of(coo);
    let (e0, e1) = (row_offsets[r0], row_offsets[r1]);
    let (cta_lo, cta_hi) = tiling.cta_range(e0, e1);
    let num_ctas = cta_hi - cta_lo;

    let mut space = AddrSpace::new();
    let rows_base = space.alloc(nnz, 4);
    let cols_base = space.alloc(nnz, 4);
    let w_base = space.alloc(nnz, 2);
    let x_base = space.alloc(x.len(), 2);
    let y_base = space.alloc(num_rows * f, 2);

    let (cta_outs, stats) = launch(
        dev,
        if w.is_ones() { "cusparse_f16_spmmv" } else { "cusparse_f16_spmmve" },
        LaunchParams { num_ctas, warps_per_cta: tiling.warps_per_cta },
        |cta| {
            let mut writes: WriteList<Half> = WriteList::new();
            for wi in 0..tiling.warps_per_cta {
                let (s, e) = tiling.warp_range_in(cta.id + cta_lo, wi, e0, e1);
                if s >= e {
                    continue;
                }
                let n = e - s;
                let mut warp = cta.warp(wi);
                warp.load_contiguous(rows_base + s as u64 * 4, n, 4);
                warp.load_contiguous(cols_base + s as u64 * 4, n, 4);
                if !w.is_ones() {
                    // Scalar half loads for the weights too.
                    warp.load_contiguous(w_base + s as u64 * 2, n, 2);
                }
                // Scalar half feature loads: each instruction moves 64 B.
                warp.load_feature_rows(
                    (s..e).map(|ei| x_base + cols[ei] as u64 * (f as u64 * 2)),
                    f * 2,
                    2,
                );
                // Fig. 3a: every FMA is h2f + h2f + float-FMA + f2h.
                let fma_instrs = (n as u64 * f as u64).div_ceil(32);
                warp.float_ops(fma_instrs);
                warp.convert_ops(3 * fma_instrs);

                let mut acc = vec![Half::ZERO; f];
                let mut seg_row = rows[s];
                let mut seg_start = s;
                for ei in s..=e {
                    let boundary = ei == e || rows[ei] != seg_row;
                    if boundary {
                        let full = seg_start == row_offsets[seg_row as usize]
                            && ei == row_offsets[seg_row as usize + 1];
                        let vals = std::mem::replace(&mut acc, vec![Half::ZERO; f]);
                        warp.nonfinite_values(crate::common::count_nonfinite(&vals));
                        if full {
                            warp.store_contiguous(y_base + seg_row as u64 * (f as u64 * 2), f, 2);
                            writes.assign(seg_row as usize * f, vals);
                        } else {
                            let deg = (row_offsets[seg_row as usize + 1]
                                - row_offsets[seg_row as usize])
                                as f64;
                            let conflict = (deg / tiling.edges_per_warp as f64).max(0.0);
                            // One CAS-loop atomic per half value.
                            warp.atomic_add(AtomicKind::F16, f as u64, conflict);
                            writes.add(seg_row as usize * f, vals);
                        }
                        if ei == e {
                            break;
                        }
                        seg_row = rows[ei];
                        seg_start = ei;
                    }
                    let c = cols[ei] as usize;
                    let wv = w.get(ei);
                    for (a, &xv) in acc.iter_mut().zip(&x[c * f..(c + 1) * f]) {
                        // Implicit promotion: f32 FMA, rounded back per op.
                        *a = Half::from_f32(a.to_f32() + wv.to_f32() * xv.to_f32());
                    }
                }
            }
            writes
        },
    );

    // Half-precision accumulation at the output tensor: this is where hub
    // rows overflow (WriteList `add` runs Half::add_assign, i.e. a
    // correctly-rounded half atomic add).
    let mut y = vec![Half::ZERO; num_rows * f];
    commit_all(cta_outs, &mut y);
    if let Some(scale) = row_scale {
        for r in r0..r1 {
            let sc = scale[r];
            for v in &mut y[r * f..(r + 1) * f] {
                *v = *v * sc; // post-reduction: INF stays INF
            }
        }
    }
    (y, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Reduce;
    use crate::reference::{
        assert_close_f32, assert_close_half, f32_to_f64, half_to_f64, spmm_f64,
    };
    use halfgnn_graph::{gen, Csr};
    use halfgnn_half::slice::f32_slice_to_half;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dev() -> DeviceConfig {
        DeviceConfig::a100_like()
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> Coo {
        let edges = gen::erdos_renyi(n, m, seed);
        Csr::from_edges(n, n, &edges).symmetrized_with_self_loops().to_coo()
    }

    fn random_f32(n: usize, scale: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
    }

    #[test]
    fn fast_executor_matches_sim_bitwise() {
        let g = random_graph(150, 700, 11);
        let f = 16;
        let x = f32_slice_to_half(&random_f32(g.num_cols() * f, 0.5, 12));
        let (sim_y, _) = spmm_half(&dev(), &g, EdgeWeights::Ones, &x, f, None);
        let (fast_y, fast_s) = spmm_half(&dev().fast(), &g, EdgeWeights::Ones, &x, f, None);
        assert_eq!(
            sim_y.iter().map(|h| h.to_bits()).collect::<Vec<u16>>(),
            fast_y.iter().map(|h| h.to_bits()).collect::<Vec<u16>>()
        );
        assert_eq!(fast_s.cycles, 0.0);
        assert_eq!(fast_s.totals.atomics_f16, 0, "fast charging is a no-op");
    }

    #[test]
    fn float_spmm_matches_reference() {
        let g = random_graph(200, 900, 1);
        let f = 32;
        let x = random_f32(g.num_cols() * f, 1.0, 2);
        let (y, stats) = spmm_float(&dev(), &g, EdgeWeights::Ones, &x, f, None);
        let want = spmm_f64(&g, EdgeWeights::Ones, &f32_to_f64(&x), f, Reduce::Sum, None);
        assert_close_f32(&y, &want, 1e-4, 1e-4, "cusparse float");
        assert!(stats.totals.atomics_f32 > 0, "balanced design uses atomics");
        assert_eq!(stats.totals.convert_ops, 0);
    }

    #[test]
    fn half_spmm_matches_reference_on_small_values() {
        let g = random_graph(150, 700, 3);
        let f = 16;
        let xf = random_f32(g.num_cols() * f, 0.5, 4);
        let x = f32_slice_to_half(&xf);
        let (y, stats) = spmm_half(&dev(), &g, EdgeWeights::Ones, &x, f, None);
        let want = spmm_f64(&g, EdgeWeights::Ones, &half_to_f64(&x), f, Reduce::Sum, None);
        assert_close_half(&y, &want, 0.03, 0.1, "cusparse half");
        assert!(stats.totals.atomics_f16 > 0);
        assert!(stats.totals.convert_ops > 0, "Fig 3a path pays conversions");
    }

    #[test]
    fn half_spmm_overflows_on_hub_rows() {
        // The Fig. 1c root cause: a hub row's half accumulation hits INF
        // even though degree-norm would have brought it back in range.
        let deg = 600u32;
        let edges: Vec<(u32, u32)> = (1..=deg).map(|c| (0u32, c)).collect();
        let g = Coo::from_edges(deg as usize + 1, deg as usize + 1, &edges);
        let f = 2;
        let x = vec![Half::from_f32(150.0); (deg as usize + 1) * f];
        let degrees = Csr::from_coo(&g).degrees();
        let scale = crate::common::row_scales_mean(&degrees);
        let (y, _) = spmm_half(&dev(), &g, EdgeWeights::Ones, &x, f, Some(&scale));
        assert!(y[0].is_infinite(), "expected overflow, got {:?}", y[0]);
    }

    #[test]
    fn half_spmm_is_slower_than_float_spmm() {
        // Fig. 1a: cuSPARSE half SpMM underperforms float.
        let g = random_graph(3_000, 60_000, 5);
        let f = 64;
        let xf = random_f32(g.num_cols() * f, 0.5, 6);
        let x = f32_slice_to_half(&xf);
        let (_, sh) = spmm_half(&dev(), &g, EdgeWeights::Ones, &x, f, None);
        let (_, sf) = spmm_float(&dev(), &g, EdgeWeights::Ones, &xf, f, None);
        assert!(
            sh.cycles > sf.cycles,
            "half {} should be slower than float {}",
            sh.cycles,
            sf.cycles
        );
    }

    #[test]
    fn float_post_scale_applies() {
        let g = Coo::from_edges(2, 2, &[(0, 0), (0, 1)]);
        let x = vec![4.0f32, 8.0];
        let (y, _) = spmm_float(&dev(), &g, EdgeWeights::Ones, &x, 1, Some(&[0.5, 1.0]));
        assert_eq!(y, vec![6.0, 0.0]);
    }

    #[test]
    fn windowed_launches_are_bitwise_slices_of_the_full_run() {
        // Float bit-identity is what the distributed float trainer relies
        // on: the windowed launch must preserve f32 summation order.
        let g = random_graph(170, 800, 51);
        let f = 8;
        let xf = random_f32(g.num_cols() * f, 1.0, 52);
        let xh = f32_slice_to_half(&xf);
        let scale_f: Vec<f32> = (0..g.num_rows()).map(|r| 1.0 / (r + 1) as f32).collect();
        let n = g.num_rows();
        let cuts = [0, 43, n / 2, n];

        let (full_f, _) = spmm_float(&dev(), &g, EdgeWeights::Ones, &xf, f, Some(&scale_f));
        let (full_h, _) = spmm_half(&dev(), &g, EdgeWeights::Ones, &xh, f, None);
        let mut pasted_f = vec![0f32; n * f];
        let mut pasted_h = vec![Half::ZERO; n * f];
        for win in cuts.windows(2) {
            let (r0, r1) = (win[0], win[1]);
            let (pf, _) =
                spmm_float_window(&dev(), &g, EdgeWeights::Ones, &xf, f, Some(&scale_f), (r0, r1));
            assert!(pf[..r0 * f].iter().chain(&pf[r1 * f..]).all(|v| *v == 0.0));
            pasted_f[r0 * f..r1 * f].copy_from_slice(&pf[r0 * f..r1 * f]);
            let (ph, _) = spmm_half_window(&dev(), &g, EdgeWeights::Ones, &xh, f, None, (r0, r1));
            pasted_h[r0 * f..r1 * f].copy_from_slice(&ph[r0 * f..r1 * f]);
        }
        assert_eq!(
            full_f.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            pasted_f.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );
        assert_eq!(
            full_h.iter().map(|h| h.to_bits()).collect::<Vec<u16>>(),
            pasted_h.iter().map(|h| h.to_bits()).collect::<Vec<u16>>()
        );
    }

    #[test]
    fn weighted_variants() {
        let g = Coo::from_edges(2, 2, &[(0, 0), (0, 1)]);
        let wf = [2.0f32, 0.5];
        let x = vec![1.0f32, 10.0];
        let (y, _) = spmm_float(&dev(), &g, EdgeWeights::Values(&wf), &x, 1, None);
        assert_eq!(y[0], 7.0);

        let wh = f32_slice_to_half(&wf);
        let xh = f32_slice_to_half(&x);
        let (yh, _) = spmm_half(&dev(), &g, EdgeWeights::Values(&wh), &xh, 1, None);
        assert_eq!(yh[0].to_f32(), 7.0);
    }
}
