//! Execution-mode equivalence: one launch body runs every kernel, so for
//! arbitrary random CSR graphs and feature widths `ExecMode::Fast` must
//! produce **bit-identical** Half outputs to `ExecMode::Sim` for SpMMv,
//! SpMMve, SDDMM, and the edge-softmax chain, at 1, 2, and N worker
//! threads — and the overflow record of a run, compared by its `Debug`
//! string, must be the same in every mode and at every thread count.
//!
//! This is the determinism contract of the execution layer: functional
//! work is identical in both modes, per-CTA results commit in CTA order,
//! the thread pool returns results in input order, and the recorded
//! launch (`halfgnn_kernels::common::launch`) credits each CTA's overflow
//! window to the caller's in CTA order, so no scheduling choice can leak
//! into the numerics or the record.
//!
//! CI runs this suite with `--features halfgnn-half/provenance` under
//! both `HALFGNN_THREADS=1` and `HALFGNN_THREADS=4`, which the auto-sized
//! (`threads: 0`) runs pick up. Without the recorder compiled in, every
//! record is empty and the record comparisons hold trivially.

use halfgnn_graph::{Csr, VertexId};
use halfgnn_half::overflow::{self, NonfiniteKind};
use halfgnn_half::slice::f32_slice_to_half;
use halfgnn_half::Half;
use halfgnn_kernels::common::{self, EdgeWeights, Reduce, ScalePlacement, VectorWidth};
use halfgnn_kernels::halfgnn_sddmm::SddmmConfig;
use halfgnn_kernels::{edge_ops, halfgnn_sddmm, halfgnn_spmm};
use halfgnn_sim::{DeviceConfig, ExecMode, LaunchParams};
use proptest::prelude::*;

/// Arbitrary graph + padded feature length + half features (|x| ≤ 1).
fn arb_case() -> impl Strategy<Value = (Csr, usize, Vec<Half>, Vec<Half>)> {
    (3usize..40, 1usize..5)
        .prop_flat_map(|(n, fpow)| {
            let f = 8 << (fpow % 3); // 8, 16, 32
            let edge = (0..n as VertexId, 0..n as VertexId);
            (
                Just(n),
                Just(f),
                prop::collection::vec(edge, 0..120),
                prop::collection::vec(-1.0f32..1.0, n * f),
            )
        })
        .prop_map(|(n, f, edges, feats)| {
            let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
            let x = f32_slice_to_half(&feats);
            let w: Vec<Half> =
                (0..csr.nnz()).map(|i| Half::from_f32(((i % 17) as f32 - 8.0) / 8.0)).collect();
            (csr, f, x, w)
        })
}

fn bits(v: &[Half]) -> Vec<u16> {
    v.iter().map(|h| h.to_bits()).collect()
}

/// `f()` inside an open tracking window under the label `layer`: its
/// output and the window's record as a `Debug` string.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, String) {
    overflow::begin();
    let out = {
        let _site = overflow::site("layer");
        f()
    };
    (out, format!("{:?}", overflow::take()))
}

/// Whether `Half::from_f32` records into the tracking window (the
/// `provenance` feature of `halfgnn-half`).
fn recorder_on() -> bool {
    overflow::begin();
    let _ = Half::from_f32(1.0);
    overflow::take().conversions == 1
}

/// `Sim` and `Fast` at 1, 2 and 4 worker threads.
fn every_mode() -> Vec<DeviceConfig> {
    let mut devs = vec![DeviceConfig::tiny()];
    for t in [1, 2, 4] {
        devs.push(DeviceConfig::tiny().with_exec(ExecMode::fast_with_threads(t)));
    }
    devs
}

/// Conversions CTA `c` makes in [`converting_launch`].
fn conversions_of(c: usize) -> usize {
    c % 5 + 3
}

/// A 40-CTA launch whose CTA `c` converts [`conversions_of`]`(c)` values:
/// CTA 31's third conversion overflows under the label `late`, and CTA 35
/// propagates a NaN. Returns each CTA's converted bits.
fn converting_launch(dev: &DeviceConfig) -> Vec<Vec<u16>> {
    let params = LaunchParams { num_ctas: 40, warps_per_cta: 1 };
    let (outs, _) = common::launch(dev, "convert", params, |cta| {
        let n = conversions_of(cta.id);
        cta.warp(0).convert_ops(n as u64);
        (0..n)
            .map(|i| {
                let v = match (cta.id, i) {
                    (31, 2) => 7e4,
                    (35, 0) => f32::NAN,
                    _ => (cta.id * 8 + i) as f32 * 0.5,
                };
                let _site = (cta.id == 31).then(|| overflow::site("late"));
                Half::from_f32(v).to_bits()
            })
            .collect()
    });
    outs
}

#[test]
fn a_launch_records_the_sequential_record_in_every_mode() {
    let (want, record) = recorded(|| converting_launch(&DeviceConfig::tiny()));
    for dev in every_mode() {
        let (got, got_record) = recorded(|| converting_launch(&dev));
        assert_eq!(got, want, "{:?}", dev.exec);
        assert_eq!(got_record, record, "{:?}", dev.exec);
    }
    if !recorder_on() {
        return;
    }
    // The record itself: what one window over CTAs 0, 1, … in turn reads.
    overflow::begin();
    let s = {
        let _site = overflow::site("layer");
        let _ = converting_launch(&DeviceConfig::tiny().with_exec(ExecMode::fast_with_threads(4)));
        overflow::take()
    };
    let total: usize = (0..40).map(conversions_of).sum();
    assert_eq!(s.conversions, total as u64);
    assert_eq!((s.overflows, s.nan_propagated, s.inf_propagated), (1, 1, 0));
    let first = s.first.expect("CTA 31's overflow is recorded");
    let before: usize = (0..31).map(conversions_of).sum();
    assert_eq!(first.conversion_index, before as u64 + 2, "counts the earlier CTAs' conversions");
    assert_eq!(first.site, "layer/late");
    assert_eq!(first.kind, NonfiniteKind::Overflow);
}

#[test]
fn a_launch_with_no_window_open_records_nothing() {
    for dev in every_mode() {
        let out = converting_launch(&dev);
        assert_eq!(out.len(), 40);
        assert!(!overflow::is_active(), "{:?} left a window open", dev.exec);
        overflow::begin();
        let after = overflow::take();
        assert_eq!(after.conversions, 0, "{:?}", dev.exec);
        assert!(after.is_clean(), "{:?}", dev.exec);
    }
}

#[test]
fn an_overflowing_spmm_records_the_same_first_event_in_every_mode() {
    // A star whose hub is the last row: its unscaled sum of 64 × 2048
    // overflows in the last CTA, after every other row has converted.
    let n = 600;
    let hub = (n - 1) as VertexId;
    let edges: Vec<(VertexId, VertexId)> = (0..n as VertexId - 1).map(|v| (v, hub)).collect();
    let coo = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops().to_coo();
    let f = 8;
    let x: Vec<Half> =
        (0..n * f).map(|i| Half::from_f32(if i % 9 == 0 { 2048.0 } else { 0.25 })).collect();
    let cfg = halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() };
    let run = |dev: &DeviceConfig| {
        recorded(|| bits(&halfgnn_spmm::spmm(dev, &coo, EdgeWeights::Ones, &x, f, None, &cfg).0))
    };
    let (want, record) = run(&DeviceConfig::a100_like());
    for t in [1, 2, 4] {
        let (got, got_record) =
            run(&DeviceConfig::a100_like().with_exec(ExecMode::fast_with_threads(t)));
        assert_eq!(got, want, "threads={t}");
        assert_eq!(got_record, record, "threads={t}");
    }
    if recorder_on() {
        assert!(record.contains("Overflow"), "the hub row must overflow: {record}");
        assert!(record.contains("layer/halfgnn_spmmv"), "{record}");
    }
}

/// Sim device plus the fast variants the properties sweep: pinned 1 and 2
/// workers, and auto-sized (0 → `HALFGNN_THREADS` / available cores).
fn devices() -> (DeviceConfig, Vec<DeviceConfig>) {
    let sim = DeviceConfig::a100_like();
    let fasts = [1usize, 2, 0]
        .iter()
        .map(|&t| DeviceConfig::a100_like().with_exec(ExecMode::fast_with_threads(t)))
        .collect();
    (sim, fasts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn spmmv_and_spmmve_are_bit_identical_across_backends((csr, f, x, w) in arb_case()) {
        let (sim, fasts) = devices();
        let coo = csr.to_coo();
        let cfg = halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() };
        for weights in [EdgeWeights::Ones, EdgeWeights::Values(&w)] {
            let ((want, sim_stats), record) =
                recorded(|| halfgnn_spmm::spmm(&sim, &coo, weights, &x, f, None, &cfg));
            prop_assert!(sim_stats.cycles > 0.0);
            for fast in &fasts {
                let ((got, stats), got_record) =
                    recorded(|| halfgnn_spmm::spmm(fast, &coo, weights, &x, f, None, &cfg));
                prop_assert_eq!(bits(&want), bits(&got), "exec={:?}", fast.exec);
                prop_assert_eq!(&got_record, &record, "exec={:?}", fast.exec);
                prop_assert_eq!(stats.cycles, 0.0);
            }
        }
    }

    #[test]
    fn sddmm_is_bit_identical_across_backends_at_every_width((csr, f, x, _w) in arb_case()) {
        let (sim, fasts) = devices();
        let coo = csr.to_coo();
        for width in [VectorWidth::Half2, VectorWidth::Half4, VectorWidth::Half8] {
            let ((want, _), record) =
                recorded(|| halfgnn_sddmm::sddmm(&sim, &coo, &x, &x, f, width));
            for fast in &fasts {
                let ((got, _), got_record) =
                    recorded(|| halfgnn_sddmm::sddmm(fast, &coo, &x, &x, f, width));
                prop_assert_eq!(bits(&want), bits(&got), "{:?} exec={:?}", width, fast.exec);
                prop_assert_eq!(&got_record, &record, "{:?} exec={:?}", width, fast.exec);
            }
        }
    }

    #[test]
    fn edge_softmax_chain_is_bit_identical_across_backends((csr, _f, _x, w) in arb_case()) {
        let (sim, fasts) = devices();
        let coo = csr.to_coo();
        let run = |dev: &DeviceConfig| {
            recorded(|| {
                let (m, _) = halfgnn_spmm::edge_reduce(dev, &coo, &w, Reduce::Max);
                let (num, _) = edge_ops::sub_row_exp(dev, &coo, &w, &m, true);
                let (z, _) = halfgnn_spmm::edge_reduce(dev, &coo, &num, Reduce::Sum);
                let (alpha, _) = edge_ops::div_row(dev, &coo, &num, &z);
                bits(&alpha)
            })
        };
        let want = run(&sim);
        for fast in &fasts {
            prop_assert_eq!(&want, &run(fast), "exec={:?}", fast.exec);
        }
    }

    #[test]
    fn windowed_kernels_are_bit_identical_across_backends((csr, f, x, w) in arb_case()) {
        // The sharded path runs these per-shard windows on whatever
        // backend the device is configured with, so the determinism
        // contract must hold window-by-window, not just for full
        // launches: every window must agree bit-for-bit between Sim and
        // Fast at 1/2/auto workers, and (window ⊂ full) must be a bitwise
        // slice on both backends.
        let (sim, fasts) = devices();
        let coo = csr.to_coo();
        let n = coo.num_rows();
        let nnz = coo.nnz();
        let cfg = halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() };
        let (full, _) = halfgnn_spmm::spmm(&sim, &coo, EdgeWeights::Values(&w), &x, f, None, &cfg);

        let row_cuts = [0, n / 3, 2 * n / 3, n];
        for win in row_cuts.windows(2) {
            let rw = (win[0], win[1]);
            let (want_spmm, _) = halfgnn_spmm::spmm_window(
                &sim, &coo, EdgeWeights::Values(&w), &x, f, None, &cfg, rw,
            );
            let (want_red, _) =
                halfgnn_spmm::edge_reduce_window(&sim, &coo, &w, Reduce::Max, rw);
            prop_assert_eq!(
                &bits(&want_spmm)[rw.0 * f..rw.1 * f],
                &bits(&full)[rw.0 * f..rw.1 * f],
                "window {:?} is not a slice of the full launch", rw
            );
            for fast in &fasts {
                let (got_spmm, _) = halfgnn_spmm::spmm_window(
                    fast, &coo, EdgeWeights::Values(&w), &x, f, None, &cfg, rw,
                );
                prop_assert_eq!(bits(&want_spmm), bits(&got_spmm), "spmm {:?} {:?}", rw, fast.exec);
                let (got_red, _) =
                    halfgnn_spmm::edge_reduce_window(fast, &coo, &w, Reduce::Max, rw);
                prop_assert_eq!(bits(&want_red), bits(&got_red), "reduce {:?} {:?}", rw, fast.exec);
            }
        }

        let sddmm_cfg = SddmmConfig::widest_for(f);
        let edge_cuts = [0, nnz / 3, 2 * nnz / 3, nnz];
        for win in edge_cuts.windows(2) {
            let ew = (win[0], win[1]);
            let (want, _) = halfgnn_sddmm::sddmm_window(&sim, &coo, &x, &x, f, &sddmm_cfg, ew);
            for fast in &fasts {
                let (got, _) = halfgnn_sddmm::sddmm_window(fast, &coo, &x, &x, f, &sddmm_cfg, ew);
                prop_assert_eq!(bits(&want), bits(&got), "sddmm {:?} {:?}", ew, fast.exec);
            }
        }
    }

    #[test]
    fn fast_backend_is_stable_across_thread_counts((csr, f, x, w) in arb_case()) {
        // Determinism of the fast path itself: 1, 2, and auto-N workers
        // must agree bit-for-bit (commit-in-CTA-order contract).
        let (_, fasts) = devices();
        let coo = csr.to_coo();
        let cfg = halfgnn_spmm::SpmmConfig { scaling: ScalePlacement::None, ..Default::default() };
        let runs: Vec<Vec<u16>> = fasts
            .iter()
            .map(|d| {
                let (y, _) =
                    halfgnn_spmm::spmm(d, &coo, EdgeWeights::Values(&w), &x, f, None, &cfg);
                bits(&y)
            })
            .collect();
        for r in &runs[1..] {
            prop_assert_eq!(&runs[0], r);
        }
    }
}
