//! **HalfGNN's edge-parallel SpMM** (§4, §5.2): the paper's flagship
//! kernel.
//!
//! Design, as implemented here:
//!
//! * **Edge tiles** — each warp owns `edges_per_warp` (≥64) consecutive
//!   edges of the row-sorted COO; a CTA owns `warps_per_cta` tiles
//!   (Fig. 4).
//! * **Two-phase data load** (§4.1) — phase 1 explicitly loads the tile's
//!   row IDs, column IDs and (for SpMMve) edge weights with coalesced
//!   half2-cast loads, mirrors each edge weight across a `half2`
//!   (§4.2), and caches everything in shared memory. Phase 2 loads the
//!   column's vertex features feature-parallel as `half2`, using sub-warps
//!   when `|F|/2 < 32`.
//! * **Discretized reduction scaling** (§5.2.2) — the running `half2`
//!   accumulator covers at most one warp-tile's worth of a row's neighbors;
//!   at every row boundary (and tile end) the batch is degree-scaled
//!   *before* joining the rest of the row, so the intermediate never
//!   exceeds `edges_per_warp · max|w·x|` — FP16-safe. `PostReduction`,
//!   `PreReduction` and `None` placements are provided for the paper's
//!   ablations.
//! * **Non-atomic writes** (§5.2.3) — rows fully inside a warp are written
//!   directly; warp-boundary partials are combined in shared memory within
//!   the CTA; rows crossing a CTA boundary produce staging-buffer entries
//!   that a follow-up kernel merges and writes
//!   ([`crate::common::resolve_staged`], which every staged SpMM shares).
//!   The `Atomic` strategy replaces all of that with (expensive) half
//!   atomics for Fig. 13.

use crate::common::{count_nonfinite, EdgeWeights, Reduce, ScalePlacement, Tiling, WriteStrategy};
use crate::common::{launch, neighbor_groups, resolve_staged};
use halfgnn_graph::{Coo, Csr};
use halfgnn_half::intrinsics::{hadd, hmul};
use halfgnn_half::overflow;
use halfgnn_half::slice::{add_row, fma_row, scale_row};
use halfgnn_half::{Half, Scalar};
use halfgnn_sim::launch::{charge_only, LaunchParams, WriteList};
use halfgnn_sim::memory::AddrSpace;
use halfgnn_sim::{AtomicKind, DeviceConfig, KernelStats, WarpCtx};

/// Configuration of the HalfGNN SpMM (defaults = the paper's design).
#[derive(Clone, Copy, Debug)]
pub struct SpmmConfig {
    /// Degree-norm scaling placement (Discretized is HalfGNN's).
    pub scaling: ScalePlacement,
    /// Conflict-write resolution (Staged is HalfGNN's).
    pub writes: WriteStrategy,
    /// Edge-tile geometry.
    pub tiling: Tiling,
}

impl Default for SpmmConfig {
    fn default() -> SpmmConfig {
        SpmmConfig {
            scaling: ScalePlacement::Discretized,
            writes: WriteStrategy::Staged,
            tiling: Tiling::default(),
        }
    }
}

/// `Y ← A_w · X` in half precision with sum reduction.
///
/// * `row_scale` — per-row factor applied according to `cfg.scaling`
///   (e.g. `1/deg` for mean aggregation, `1/sqrt(deg)` for GCN-both).
/// * Output rows with no edges are zero.
///
/// Returns the half-precision output and the modeled kernel stats
/// (including the follow-up kernel when `Staged`).
pub fn spmm(
    dev: &DeviceConfig,
    coo: &Coo,
    w: EdgeWeights,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    cfg: &SpmmConfig,
) -> (Vec<Half>, KernelStats) {
    spmm_window(dev, coo, w, x, f, row_scale, cfg, (0, coo.num_rows()))
}

/// [`spmm`] restricted to the global row window `[r0, r1)` — the per-shard
/// launch of the distributed path.
///
/// The kernel runs the *global* edge tiling clamped to the window's edge
/// range (shard boundaries are row boundaries, so the window is a
/// contiguous edge slice), which reproduces the exact per-row segment cuts
/// and CTA commit order of the single-device launch: window outputs are
/// bit-identical to the corresponding rows of the full run. Rows outside
/// the window are zero; the full window `(0, num_rows)` is [`spmm`]
/// itself, cost model included.
#[allow(clippy::too_many_arguments)]
pub fn spmm_window(
    dev: &DeviceConfig,
    coo: &Coo,
    w: EdgeWeights,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    cfg: &SpmmConfig,
    row_window: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    assert_eq!(x.len(), coo.num_cols() * f, "X shape mismatch");
    assert!(f.is_multiple_of(2), "feature length must be half2-padded (got {f})");
    if cfg.scaling != ScalePlacement::None {
        assert!(row_scale.is_some(), "scaling placement {:?} needs row_scale", cfg.scaling);
    }
    let (r0, r1) = row_window;
    assert!(r0 <= r1 && r1 <= coo.num_rows(), "bad row window {row_window:?}");
    let name = if w.is_ones() { "halfgnn_spmmv" } else { "halfgnn_spmmve" };
    let _site = overflow::site(name);

    let nnz = coo.nnz();
    let num_rows = coo.num_rows();
    let tiling = cfg.tiling;
    let rows = coo.rows();
    let cols = coo.cols();

    // Row start/end offsets let a tile decide whether it holds a row fully
    // (the GPU kernel reads neighbours' cached row IDs for the same test).
    let row_offsets = row_offsets_of(coo);
    let (e0, e1) = (row_offsets[r0], row_offsets[r1]);
    let (cta_lo, cta_hi) = tiling.cta_range(e0, e1);
    let num_ctas = cta_hi - cta_lo;

    // Synthetic address space for coalescing.
    let mut space = AddrSpace::new();
    let rows_base = space.alloc(nnz, 4);
    let cols_base = space.alloc(nnz, 4);
    let w_base = space.alloc(nnz, 2);
    let x_base = space.alloc(x.len(), 2);
    let y_base = space.alloc(num_rows * f, 2);
    let stage_base = space.alloc(2 * num_ctas * (f + 2), 2);

    let scale_of = |r: u32| -> Half {
        match row_scale {
            Some(s) => s[r as usize],
            None => Half::ONE,
        }
    };

    let (ctas, main_stats) =
        launch(dev, name, LaunchParams { num_ctas, warps_per_cta: tiling.warps_per_cta }, |cta| {
            let mut writes = WriteList::new();
            // Partials of rows no warp holds whole (Staged only), combined
            // within the CTA below.
            let mut boundary: Vec<(u32, Vec<Half>)> = Vec::new();

            for wi in 0..tiling.warps_per_cta {
                let (s, e) = tiling.warp_range_in(cta.id + cta_lo, wi, e0, e1);
                if s >= e {
                    continue;
                }
                let n = e - s;
                let mut warp = cta.warp(wi);

                // ---- Phase 1: explicit edge-parallel load of NZE + edge
                // features into shared memory (§4.1.1).
                warp.load_contiguous(rows_base + s as u64 * 4, n, 4);
                warp.load_contiguous(cols_base + s as u64 * 4, n, 4);
                if !w.is_ones() {
                    // Two halves per half2 word; mirroring afterwards.
                    warp.load_contiguous(w_base + s as u64 * 2, n.div_ceil(2), 4);
                    warp.half2_ops((n as u64).div_ceil(32)); // mirror extracts
                }
                warp.smem_accesses((n as u64 * 2).div_ceil(32) + 2);
                warp.barrier();

                // ---- Phase 2: feature-parallel half2 loads + FMA.
                warp.load_feature_rows(
                    (s..e).map(|ei| x_base + cols[ei] as u64 * (f as u64 * 2)),
                    f * 2,
                    4,
                );
                let half2_lanes = (f / 2) as u64;
                let fma_instrs = (n as u64 * half2_lanes).div_ceil(32);
                warp.half2_ops(fma_instrs);
                if !w.is_ones() {
                    warp.smem_accesses((n as u64).div_ceil(32));
                }
                if cfg.scaling == ScalePlacement::PreReduction {
                    // One extra scale multiply per dot product.
                    warp.half2_ops(fma_instrs);
                }

                // ---- Functional: run the tile, segment by row.
                let mut acc = vec![Half::ZERO; f];
                let mut seg_row = rows[s];
                let mut seg_start = s;
                let flush = |warp: &mut WarpCtx,
                             writes: &mut WriteList<Half>,
                             boundary: &mut Vec<(u32, Vec<Half>)>,
                             acc: &mut Vec<Half>,
                             row: u32,
                             seg_s: usize,
                             seg_e: usize| {
                    let mut vals = std::mem::replace(acc, vec![Half::ZERO; f]);
                    if cfg.scaling == ScalePlacement::Discretized {
                        scale_row(&mut vals, scale_of(row));
                        warp.half2_ops(half2_lanes.div_ceil(32));
                    }
                    warp.nonfinite_values(count_nonfinite(&vals));
                    let (row_s, row_e) = (row_offsets[row as usize], row_offsets[row as usize + 1]);
                    if seg_s == row_s && seg_e == row_e {
                        // Case 1/3a: the warp holds the whole row, which
                        // never conflicts — direct write.
                        warp.store_contiguous(y_base + row as u64 * (f as u64 * 2), f / 2, 4);
                        writes.assign(row as usize * f, vals);
                    } else if cfg.writes == WriteStrategy::Staged {
                        boundary.push((row, vals));
                    } else {
                        // Prior-work style: half2 atomic adds, which
                        // serialize with every other tile of the row. One
                        // CAS-loop atomic per half2 word: the L2 atomic
                        // unit serializes per address.
                        let conflict =
                            ((row_e - row_s) as f64 / tiling.edges_per_warp as f64).max(0.0);
                        warp.atomic_add(AtomicKind::F16, half2_lanes.max(1), conflict);
                        writes.add(row as usize * f, vals);
                    }
                };

                for ei in s..e {
                    let r = rows[ei];
                    if r != seg_row {
                        flush(
                            &mut warp,
                            &mut writes,
                            &mut boundary,
                            &mut acc,
                            seg_row,
                            seg_start,
                            ei,
                        );
                        seg_row = r;
                        seg_start = ei;
                    }
                    let c = cols[ei] as usize;
                    let wv = w.get(ei);
                    let xr = &x[c * f..(c + 1) * f];
                    if cfg.scaling == ScalePlacement::PreReduction {
                        // Pre scales each product before it joins the
                        // accumulator.
                        let sc = scale_of(r);
                        for (a, &xv) in acc.iter_mut().zip(xr) {
                            *a = hadd(*a, hmul(hmul(wv, xv), sc));
                        }
                    } else {
                        // half2 FMA semantics lanewise.
                        fma_row(&mut acc, wv, xr);
                    }
                }
                flush(&mut warp, &mut writes, &mut boundary, &mut acc, seg_row, seg_start, e);
            }

            // ---- Intra-CTA combine: merge warp-boundary partials of the
            // same row via shared memory (§5.2.3 case 2).
            let mut staged = Vec::new();
            if !boundary.is_empty() {
                let cta_id = cta.id;
                cta.barrier();
                let mut warp0 = cta.warp(0);
                let merge_instrs = ((f / 2) as u64).div_ceil(32).max(1);
                let mut merged: Vec<(u32, Vec<Half>)> = Vec::new();
                for (row, vals) in boundary {
                    match merged.last_mut() {
                        Some((last, sum)) if *last == row => {
                            add_row(sum, &vals);
                            warp0.smem_accesses(merge_instrs * 2);
                            warp0.half2_ops(merge_instrs);
                        }
                        _ => merged.push((row, vals)),
                    }
                }
                let (cta_s, _) = tiling.warp_range_in(cta_id + cta_lo, 0, e0, e1);
                let cta_e =
                    tiling.warp_range_in(cta_id + cta_lo, tiling.warps_per_cta - 1, e0, e1).1;
                for (row, vals) in merged {
                    let r = row as usize;
                    if row_offsets[r] >= cta_s && row_offsets[r + 1] <= cta_e {
                        // Complete within the CTA: non-conflicting write.
                        warp0.store_contiguous(y_base + row as u64 * (f as u64 * 2), f / 2, 4);
                        writes.assign(r * f, vals);
                    } else {
                        // §5.2.3 case 3b: to the staging buffer.
                        warp0.store_contiguous(
                            stage_base + (cta_id * 2 * (f + 2)) as u64,
                            f / 2 + 1,
                            4,
                        );
                        staged.push((row, vals));
                    }
                }
            }
            (writes, staged)
        });

    // ---- Inter-CTA resolution: direct writes, then the follow-up kernel.
    let (mut y, mut stats) =
        resolve_staged(dev, "spmm_followup", ctas, (num_rows, f), (stage_base, y_base), main_stats);

    // ---- Post-reduction scaling pass (baseline placement): a separate
    // elementwise kernel over Y, after overflow has already happened.
    if cfg.scaling == ScalePlacement::PostReduction {
        let scale = row_scale.expect("checked above");
        let win_elems = (r1 - r0) * f;
        let params = LaunchParams { num_ctas: win_elems.div_ceil(4096).max(1), warps_per_cta: 4 };
        let post = charge_only(dev, "spmm_postscale", params, |cta| {
            let lo = r0 * f + cta.id * 4096;
            let hi = (lo + 4096).min(r1 * f);
            if lo >= hi {
                return;
            }
            let mut warp = cta.warp(0);
            let n = hi - lo;
            warp.load_contiguous(y_base + lo as u64 * 2, n / 2, 4);
            warp.half2_ops((n as u64 / 2).div_ceil(32));
            warp.store_contiguous(y_base + lo as u64 * 2, n / 2, 4);
        });
        for r in r0..r1 {
            scale_row(&mut y[r * f..(r + 1) * f], scale[r]);
        }
        stats = stats.then(&post);
    }

    (y, stats)
}

/// Per-row reduction of an edge-level tensor (`|E| → |V|`, F = 1): the
/// SpMM variants edge-softmax needs (`max` for `m_i`, `sum` for the
/// denominator). Edge-parallel with the same segment classification as
/// [`spmm`]; no overflow protection is needed for `Max`, and the softmax
/// `Sum` is bounded by the degree (each term ≤ 1). The `f32`
/// instantiation is the float GAT's `edge_reduce_f32`.
pub fn edge_reduce<T: Scalar>(
    dev: &DeviceConfig,
    coo: &Coo,
    w: &[T],
    op: Reduce,
) -> (Vec<T>, KernelStats) {
    edge_reduce_window(dev, coo, w, op, (0, coo.num_rows()))
}

/// [`edge_reduce`] restricted to the global row window `[r0, r1)`, with the
/// same global-tiling alignment as [`spmm_window`]: window rows are
/// bit-identical to the full run; rows outside the window hold the
/// reduction identity and must not be read.
pub fn edge_reduce_window<T: Scalar>(
    dev: &DeviceConfig,
    coo: &Coo,
    w: &[T],
    op: Reduce,
    row_window: (usize, usize),
) -> (Vec<T>, KernelStats) {
    assert_eq!(w.len(), coo.nnz(), "edge tensor length mismatch");
    let (r0, r1) = row_window;
    assert!(r0 <= r1 && r1 <= coo.num_rows(), "bad row window {row_window:?}");
    let name = T::pick(
        match op {
            Reduce::Sum => "edge_reduce_sum",
            Reduce::Max => "edge_reduce_max",
        },
        "edge_reduce_f32",
    );
    let _site = overflow::site(name);
    let bytes = T::BYTES;
    let nnz = coo.nnz();
    let tiling = Tiling::default();
    let rows = coo.rows();
    let row_offsets = row_offsets_of(coo);
    let (e0, e1) = (row_offsets[r0], row_offsets[r1]);
    let (cta_lo, cta_hi) = tiling.cta_range(e0, e1);
    let num_ctas = cta_hi - cta_lo;

    let mut space = AddrSpace::new();
    let rows_base = space.alloc(nnz, 4);
    let w_base = space.alloc(nnz, bytes);
    let y_base = space.alloc(coo.num_rows(), bytes);

    let init = match op {
        Reduce::Sum => T::ZERO,
        Reduce::Max => T::NEG_INFINITY,
    };
    let combine = |a: T, b: T| match op {
        Reduce::Sum => a.add(b),
        Reduce::Max => a.max(b),
    };

    let (cta_outs, stats) =
        launch(dev, name, LaunchParams { num_ctas, warps_per_cta: tiling.warps_per_cta }, |cta| {
            // Partials cross warp/CTA boundaries; resolve everything in the
            // sequential commit (a scalar per boundary row — negligible).
            let mut partials: Vec<(u32, T)> = Vec::new();
            // Per-warp scratch: the row segments' bounds and reductions.
            let (mut cuts, mut accs) = (Vec::new(), Vec::new());
            for wi in 0..tiling.warps_per_cta {
                let (s, e) = tiling.warp_range_in(cta.id + cta_lo, wi, e0, e1);
                if s >= e {
                    continue;
                }
                let n = e - s;
                let mut warp = cta.warp(wi);
                warp.load_contiguous(rows_base + s as u64 * 4, n, 4);
                // Half loads as half2-cast words, two edges per lane.
                warp.load_contiguous(w_base + (s * bytes) as u64, (n * bytes).div_ceil(4), 4);
                if T::HALF {
                    warp.half2_ops((n as u64).div_ceil(64));
                } else {
                    warp.float_ops((n as u64).div_ceil(32));
                }
                cuts.clear();
                cuts.push(0);
                cuts.extend((s + 1..e).filter(|&ei| rows[ei] != rows[ei - 1]).map(|ei| ei - s));
                cuts.push(n);
                accs.clear();
                accs.resize(cuts.len() - 1, init);
                match op {
                    Reduce::Sum => T::sum_chains(&w[s..e], &cuts, &mut accs),
                    Reduce::Max => {
                        for (acc, c) in accs.iter_mut().zip(cuts.windows(2)) {
                            *acc = w[s + c[0]..s + c[1]].iter().fold(init, |a, &b| combine(a, b));
                        }
                    }
                }
                for (&acc, &c) in accs.iter().zip(&cuts) {
                    let seg_row = rows[s + c];
                    if !acc.is_finite() {
                        warp.nonfinite_values(1);
                    }
                    partials.push((seg_row, acc));
                    warp.store_contiguous(y_base + (seg_row as usize * bytes) as u64, 1, bytes);
                }
            }
            partials
        });

    let mut y = vec![init; coo.num_rows()];
    for partials in cta_outs {
        for (r, v) in partials {
            y[r as usize] = combine(y[r as usize], v);
        }
    }
    if op == Reduce::Max {
        // Empty rows (within the window): define as zero (matches the
        // reference).
        for r in r0..r1 {
            if row_offsets[r] == row_offsets[r + 1] {
                y[r] = T::ZERO;
            }
        }
    }
    (y, stats)
}

/// **Vertex-parallel HalfGNN SpMM** (§5.4): the same discretized-scaling +
/// staged-write design on a workload-balanced vertex-parallel layout —
/// every warp owns one group of ≤ `group` neighbors of a single row (no
/// row split), with groups of 64 per the §4.1.1 recommendation so edge
/// loads stay fully coalesced.
///
/// HalfGNN itself recommends the edge-parallel [`spmm`] "for the best
/// performance"; this variant exists to demonstrate — and measure — the
/// generality claim (see the `vertex-vs-edge` experiment).
pub fn spmm_vertex_parallel(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    scaling: ScalePlacement,
) -> (Vec<Half>, KernelStats) {
    spmm_vertex_parallel_window(dev, csr, w, x, f, row_scale, scaling, (0, csr.num_rows()))
}

/// [`spmm_vertex_parallel`] restricted to the global row window `[r0, r1)`:
/// neighbor groups are generated only for window rows, in the same order
/// and with the same ≤64-edge geometry as the full launch, so window rows
/// are bit-identical to the full run (groups are per-row independent).
#[allow(clippy::too_many_arguments)]
pub fn spmm_vertex_parallel_window(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    scaling: ScalePlacement,
    row_window: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    let name = if w.is_ones() { "halfgnn_vp_spmmv" } else { "halfgnn_vp_spmmve" };
    let kernel = Grouped { group: 64, name, followup: "halfgnn_vp_followup" };
    vertex_parallel(dev, csr, w, x, f, row_scale, scaling, row_window, kernel)
}

/// A vertex-parallel staged SpMM: its neighbor-group size, and the names
/// of its main kernel (also its overflow site label) and follow-up.
pub(crate) struct Grouped {
    pub(crate) group: usize,
    pub(crate) name: &'static str,
    pub(crate) followup: &'static str,
}

/// The vertex-parallel body that [`spmm_vertex_parallel_window`] and
/// Huang-half2 share: each four-warp CTA owns four neighbor groups; a
/// row of one group is written directly, and a wider row's groups are
/// staged and merged by the follow-up kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vertex_parallel(
    dev: &DeviceConfig,
    csr: &Csr,
    w: EdgeWeights,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    scaling: ScalePlacement,
    row_window: (usize, usize),
    Grouped { group, name, followup }: Grouped,
) -> (Vec<Half>, KernelStats) {
    assert_eq!(x.len(), csr.num_cols() * f, "X shape mismatch");
    assert!(f.is_multiple_of(2), "feature length must be half2-padded");
    if scaling != ScalePlacement::None {
        assert!(row_scale.is_some(), "scaling placement {scaling:?} needs row_scale");
    }
    let (r0, r1) = row_window;
    assert!(r0 <= r1 && r1 <= csr.num_rows(), "bad row window {row_window:?}");
    let _site = overflow::site(name);
    const WARPS_PER_CTA: usize = 4;
    let n = csr.num_rows();
    let groups = neighbor_groups(csr, row_window, group);
    let num_ctas = groups.len().div_ceil(WARPS_PER_CTA).max(1);

    let mut space = AddrSpace::new();
    let cols_base = space.alloc(csr.nnz(), 4);
    let w_base = space.alloc(csr.nnz(), 2);
    let x_base = space.alloc(x.len(), 2);
    let y_base = space.alloc(n * f, 2);
    let stage_base = space.alloc(groups.len() * (f + 2), 2);

    let scale_of = |r: u32| -> Half { row_scale.map_or(Half::ONE, |s| s[r as usize]) };

    let (ctas, main_stats) =
        launch(dev, name, LaunchParams { num_ctas, warps_per_cta: WARPS_PER_CTA }, |cta| {
            let cta_id = cta.id;
            let mut writes = WriteList::new();
            let mut staged = Vec::new();
            for wi in 0..WARPS_PER_CTA {
                let gi = cta_id * WARPS_PER_CTA + wi;
                let Some(&(row, off, len)) = groups.get(gi) else { break };
                let mut warp = cta.warp(wi);
                warp.load_contiguous(cols_base + off as u64 * 4, len, 4);
                if !w.is_ones() {
                    // §5.4 alignment fix: start the half2-cast fetch one
                    // position earlier when the group offset is odd.
                    let aligned = off & !1;
                    let padded = (off - aligned + len).div_ceil(2) * 2;
                    warp.load_contiguous(w_base + aligned as u64 * 2, padded / 2, 4);
                    warp.half2_ops((len as u64).div_ceil(32)); // mirroring
                }
                let cols = &csr.cols()[off..off + len];
                warp.load_feature_rows(
                    cols.iter().map(|&c| x_base + c as u64 * (f as u64 * 2)),
                    f * 2,
                    4,
                );
                let half2_lanes = (f / 2) as u64;
                warp.half2_ops((len as u64 * half2_lanes).div_ceil(32));
                if scaling == ScalePlacement::PreReduction {
                    warp.half2_ops((len as u64 * half2_lanes).div_ceil(32));
                }

                let mut acc = vec![Half::ZERO; f];
                let sc = scale_of(row);
                for (k, &c) in cols.iter().enumerate() {
                    let wv = w.get(off + k);
                    let xr = &x[c as usize * f..(c as usize + 1) * f];
                    if scaling == ScalePlacement::PreReduction {
                        for (a, &xv) in acc.iter_mut().zip(xr) {
                            *a = hadd(*a, hmul(hmul(wv, xv), sc));
                        }
                    } else {
                        fma_row(&mut acc, wv, xr);
                    }
                }
                // Discretized scaling: each group is scaled before it
                // joins the rest of the row.
                if scaling == ScalePlacement::Discretized {
                    scale_row(&mut acc, sc);
                    warp.half2_ops(half2_lanes.div_ceil(32));
                }
                warp.nonfinite_values(count_nonfinite(&acc));
                if csr.degree(row) as usize <= group {
                    warp.store_contiguous(y_base + row as u64 * (f as u64 * 2), f / 2, 4);
                    writes.assign(row as usize * f, acc);
                } else {
                    warp.store_contiguous(stage_base + gi as u64 * (f as u64 + 2), f / 2 + 1, 4);
                    staged.push((row, acc));
                }
            }
            (writes, staged)
        });
    let (mut y, stats) =
        resolve_staged(dev, followup, ctas, (n, f), (stage_base, y_base), main_stats);

    // Post-reduction scaling pass (ablation placement).
    if scaling == ScalePlacement::PostReduction {
        let scale = row_scale.expect("checked above");
        for r in r0..r1 {
            scale_row(&mut y[r * f..(r + 1) * f], scale[r]);
        }
    }
    (y, stats)
}

/// Row start offsets of a canonical COO (CSR-style, `num_rows + 1` long).
pub fn row_offsets_of(coo: &Coo) -> Vec<usize> {
    let mut off = vec![0usize; coo.num_rows() + 1];
    for &r in coo.rows() {
        off[r as usize + 1] += 1;
    }
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
    off
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_close_half, half_to_f64, spmm_f64};
    use halfgnn_graph::gen;
    use halfgnn_graph::Csr;
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

    fn random_halves(n: usize, scale: f32, seed: u64) -> Vec<Half> {
        let mut rng = StdRng::seed_from_u64(seed);
        f32_slice_to_half(&(0..n).map(|_| rng.gen_range(-scale..scale)).collect::<Vec<_>>())
    }

    #[test]
    fn fast_executor_matches_sim_bitwise() {
        // Same kernel source, two backends: the fast path (real threads,
        // dead counters) must reproduce the cost-model path bit-for-bit
        // for both SpMMv and SpMMve.
        let g = random_graph(200, 900, 21);
        let f = 32;
        let x = random_halves(g.num_cols() * f, 1.0, 22);
        let w = random_halves(g.nnz(), 1.0, 23);
        let cfg = SpmmConfig { scaling: ScalePlacement::None, ..Default::default() };
        let fast = dev().fast();
        let bits = |v: &[Half]| v.iter().map(|h| h.to_bits()).collect::<Vec<u16>>();
        for weights in [EdgeWeights::Ones, EdgeWeights::Values(&w)] {
            let (sim_y, sim_s) = spmm(&dev(), &g, weights, &x, f, None, &cfg);
            let (fast_y, fast_s) = spmm(&fast, &g, weights, &x, f, None, &cfg);
            assert_eq!(bits(&sim_y), bits(&fast_y));
            assert!(sim_s.cycles > 0.0);
            assert_eq!(fast_s.cycles, 0.0, "fast stats are wall-clock only");
        }
    }

    #[test]
    fn spmmv_matches_reference() {
        let g = random_graph(200, 800, 1);
        let f = 32;
        let x = random_halves(g.num_cols() * f, 1.0, 2);
        let (y, stats) = spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            None,
            &SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
        );
        let want = spmm_f64(&g, EdgeWeights::Ones, &half_to_f64(&x), f, Reduce::Sum, None);
        assert_close_half(&y, &want, 0.02, 0.05, "spmmv");
        assert!(stats.cycles > 0.0);
        assert_eq!(stats.totals.atomics_f16, 0, "staged design must not use atomics");
    }

    #[test]
    fn spmmve_matches_reference() {
        let g = random_graph(150, 600, 3);
        let f = 64;
        let x = random_halves(g.num_cols() * f, 1.0, 4);
        let w = random_halves(g.nnz(), 1.0, 5);
        let (y, _) = spmm(
            &dev(),
            &g,
            EdgeWeights::Values(&w),
            &x,
            f,
            None,
            &SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
        );
        let want = spmm_f64(&g, EdgeWeights::Values(&w), &half_to_f64(&x), f, Reduce::Sum, None);
        assert_close_half(&y, &want, 0.03, 0.08, "spmmve");
    }

    #[test]
    fn discretized_mean_matches_reference() {
        let g = random_graph(100, 500, 7);
        let f = 16;
        let x = random_halves(g.num_cols() * f, 2.0, 8);
        let degrees = Csr::from_coo(&g).degrees();
        let scale = crate::common::row_scales_mean(&degrees);
        let scale_f64: Vec<f64> = scale.iter().map(|s| s.to_f64()).collect();
        let (y, _) =
            spmm(&dev(), &g, EdgeWeights::Ones, &x, f, Some(&scale), &SpmmConfig::default());
        let want =
            spmm_f64(&g, EdgeWeights::Ones, &half_to_f64(&x), f, Reduce::Sum, Some(&scale_f64));
        assert_close_half(&y, &want, 0.03, 0.05, "discretized mean");
    }

    #[test]
    fn atomic_strategy_matches_reference_but_uses_atomics() {
        let g = random_graph(120, 700, 9);
        let f = 32;
        let x = random_halves(g.num_cols() * f, 1.0, 10);
        let cfg = SpmmConfig {
            scaling: ScalePlacement::None,
            writes: WriteStrategy::Atomic,
            ..Default::default()
        };
        let (y, stats) = spmm(&dev(), &g, EdgeWeights::Ones, &x, f, None, &cfg);
        let want = spmm_f64(&g, EdgeWeights::Ones, &half_to_f64(&x), f, Reduce::Sum, None);
        assert_close_half(&y, &want, 0.03, 0.08, "atomic spmm");
        assert!(stats.totals.atomics_f16 > 0);
    }

    #[test]
    fn non_atomic_is_faster_than_atomic() {
        // Fig. 13: removing atomic writes speeds up SpMM. Needs a grid
        // larger than one scheduling wave, otherwise the follow-up kernel's
        // launch overhead dominates — as on real GPUs, where the win shows
        // on the large graphs of Table 1.
        let small_dev = DeviceConfig::tiny();
        let edges = gen::preferential_attachment(2_000, 10, 11);
        let g = Csr::from_edges(2_000, 2_000, &edges).symmetrized_with_self_loops().to_coo();
        let f = 64;
        let x = random_halves(g.num_cols() * f, 1.0, 12);
        let base = SpmmConfig { scaling: ScalePlacement::None, ..Default::default() };
        let (_, staged) = spmm(&small_dev, &g, EdgeWeights::Ones, &x, f, None, &base);
        let (_, atomic) = spmm(
            &small_dev,
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            None,
            &SpmmConfig { writes: WriteStrategy::Atomic, ..base },
        );
        assert!(
            atomic.cycles > staged.cycles,
            "atomic {} <= staged {}",
            atomic.cycles,
            staged.cycles
        );
    }

    #[test]
    fn overflow_post_vs_discretized() {
        // A hub row whose FP16 sum overflows: post-reduction scaling yields
        // INF (then the scale keeps it INF); discretized scaling stays
        // finite. This is the §3.1.3 / §5.2.2 story in one test.
        let hub_degree = 400u32;
        let edges: Vec<(u32, u32)> = (1..=hub_degree).map(|c| (0u32, c)).collect();
        let g = Coo::from_edges(hub_degree as usize + 1, hub_degree as usize + 1, &edges);
        let f = 2;
        // Every neighbor contributes ~200: the exact sum is ~80000 > 65504.
        let x = vec![Half::from_f32(200.0); (hub_degree as usize + 1) * f];
        let degrees = Csr::from_coo(&g).degrees();
        let scale = crate::common::row_scales_mean(&degrees);

        let (post, _) = spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            Some(&scale),
            &SpmmConfig { scaling: ScalePlacement::PostReduction, ..Default::default() },
        );
        assert!(post[0].is_infinite(), "post-reduction scaling must overflow, got {:?}", post[0]);

        let (disc, _) = spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            Some(&scale),
            &SpmmConfig { scaling: ScalePlacement::Discretized, ..Default::default() },
        );
        assert!(disc[0].is_finite(), "discretized must stay finite");
        assert!((disc[0].to_f32() - 200.0).abs() < 4.0, "mean should be ~200, got {}", disc[0]);

        let (pre, _) = spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            Some(&scale),
            &SpmmConfig { scaling: ScalePlacement::PreReduction, ..Default::default() },
        );
        assert!(pre[0].is_finite(), "pre-reduction must stay finite");
    }

    #[test]
    fn pre_reduction_underflows_where_discretized_does_not() {
        // §5.2.2: pre-reduction divides every dot product by the degree,
        // so tiny values vanish before they can accumulate.
        let deg = 2000u32;
        let edges: Vec<(u32, u32)> = (1..=deg).map(|c| (0u32, c)).collect();
        let g = Coo::from_edges(deg as usize + 1, deg as usize + 1, &edges);
        let f = 2;
        // Each scaled dot product is 2e-5 / 2000 = 1e-8, far below the
        // smallest subnormal (6e-8): pre-reduction flushes every term to
        // zero. Discretized scales whole 64-edge batches (1.28e-3 / 2000 =
        // 6.4e-7), which survive.
        let x = vec![Half::from_f32(2e-5); (deg as usize + 1) * f];
        let degrees = Csr::from_coo(&g).degrees();
        let scale = crate::common::row_scales_mean(&degrees);
        let (pre, _) = spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            Some(&scale),
            &SpmmConfig { scaling: ScalePlacement::PreReduction, ..Default::default() },
        );
        let (disc, _) = spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            Some(&scale),
            &SpmmConfig { scaling: ScalePlacement::Discretized, ..Default::default() },
        );
        let want = 2e-5f32;
        assert_eq!(pre[0].to_f32(), 0.0, "pre-reduction must underflow to zero");
        let disc_err = (disc[0].to_f32() - want).abs();
        assert!(disc_err < 0.5 * want, "discretized {} should approximate {want}", disc[0]);
    }

    #[test]
    fn odd_feature_length_rejected() {
        let g = random_graph(10, 30, 1);
        let x = random_halves(g.num_cols() * 3, 1.0, 2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spmm(
                &dev(),
                &g,
                EdgeWeights::Ones,
                &x,
                3,
                None,
                &SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
            )
        }));
        assert!(r.is_err(), "odd F must require feature padding");
    }

    #[test]
    fn empty_rows_are_zero() {
        let g = Coo::from_edges(5, 5, &[(0, 1)]);
        let x = random_halves(5 * 4, 1.0, 3);
        let (y, _) = spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            4,
            None,
            &SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
        );
        assert!(y[4..].iter().all(|h| h.is_zero()));
    }

    #[test]
    fn edge_reduce_max_and_sum() {
        let g = random_graph(80, 400, 20);
        let w = random_halves(g.nnz(), 4.0, 21);
        let (mx, _) = edge_reduce(&dev(), &g, &w, Reduce::Max);
        let (sm, _) = edge_reduce(&dev(), &g, &w, Reduce::Sum);
        let off = row_offsets_of(&g);
        for r in 0..g.num_rows() {
            let es = &w[off[r]..off[r + 1]];
            if es.is_empty() {
                assert!(mx[r].is_zero());
                continue;
            }
            let want_max = es.iter().fold(f32::NEG_INFINITY, |a, h| a.max(h.to_f32()));
            assert_eq!(mx[r].to_f32(), want_max, "row {r} max");
            let want_sum: f32 = es.iter().map(|h| h.to_f32()).sum();
            assert!(
                (sm[r].to_f32() - want_sum).abs() <= 0.02 * want_sum.abs() + 0.1,
                "row {r} sum"
            );
        }
    }

    #[test]
    fn vertex_parallel_matches_reference_and_edge_parallel() {
        let g = random_graph(300, 2_000, 21);
        let csr = Csr::from_coo(&g);
        let f = 32;
        let x = random_halves(g.num_cols() * f, 0.5, 22);
        let w = random_halves(g.nnz(), 1.0, 23);
        let (yv, sv) = spmm_vertex_parallel(
            &dev(),
            &csr,
            EdgeWeights::Values(&w),
            &x,
            f,
            None,
            ScalePlacement::None,
        );
        let want = spmm_f64(&g, EdgeWeights::Values(&w), &half_to_f64(&x), f, Reduce::Sum, None);
        assert_close_half(&yv, &want, 0.05, 0.1, "vertex-parallel spmm");
        assert_eq!(sv.totals.atomics_f16 + sv.totals.atomics_f32, 0, "non-atomic design");
        // And it agrees with the edge-parallel kernel to FP16 rounding.
        let (ye, _) = spmm(
            &dev(),
            &g,
            EdgeWeights::Values(&w),
            &x,
            f,
            None,
            &SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
        );
        for (a, b) in yv.iter().zip(&ye) {
            assert!((a.to_f32() - b.to_f32()).abs() <= 0.05 + 0.03 * b.to_f32().abs());
        }
    }

    #[test]
    fn vertex_parallel_discretized_protects_overflow() {
        // The same §5.2.2 protection as the edge-parallel kernel.
        let deg = 400u32;
        let edges: Vec<(u32, u32)> = (1..=deg).map(|c| (0u32, c)).collect();
        let csr = Csr::from_edges(deg as usize + 1, deg as usize + 1, &edges);
        let f = 2;
        let x = vec![Half::from_f32(200.0); (deg as usize + 1) * f];
        let scale = crate::common::row_scales_mean(&csr.degrees());
        let (post, _) = spmm_vertex_parallel(
            &dev(),
            &csr,
            EdgeWeights::Ones,
            &x,
            f,
            Some(&scale),
            ScalePlacement::PostReduction,
        );
        assert!(post[0].is_infinite(), "post-reduction must overflow");
        let (disc, _) = spmm_vertex_parallel(
            &dev(),
            &csr,
            EdgeWeights::Ones,
            &x,
            f,
            Some(&scale),
            ScalePlacement::Discretized,
        );
        assert!(disc[0].is_finite());
        assert!((disc[0].to_f32() - 200.0).abs() < 4.0);
    }

    #[test]
    fn edge_parallel_beats_vertex_parallel_on_skewed_graphs() {
        // §3.2 / §5.4: "HalfGNN recommends an edge-parallel solution for
        // the best performance" — visible on power-law graphs where the
        // vertex-parallel layout leaves hub groups on single warps.
        let edges = gen::preferential_attachment(3_000, 10, 31);
        let csr = Csr::from_edges(3_000, 3_000, &edges).symmetrized_with_self_loops();
        let g = csr.to_coo();
        let f = 64;
        let x = random_halves(g.num_cols() * f, 0.5, 32);
        let (_, se) = spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            None,
            &SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
        );
        let (_, sv) = spmm_vertex_parallel(
            &dev(),
            &csr,
            EdgeWeights::Ones,
            &x,
            f,
            None,
            ScalePlacement::None,
        );
        assert!(
            se.cycles <= sv.cycles * 1.05,
            "edge-parallel {} should not lose to vertex-parallel {}",
            se.cycles,
            sv.cycles
        );
    }

    #[test]
    fn windowed_launches_are_bitwise_slices_of_the_full_run() {
        // The distributed path's foundation: running the global tiling
        // clamped to a row window reproduces the full run's window rows
        // bit-for-bit, for every kernel that gets a `_window` variant.
        let g = random_graph(180, 900, 41);
        let csr = Csr::from_coo(&g);
        let f = 8;
        let x = random_halves(g.num_cols() * f, 1.0, 42);
        let wvals = random_halves(g.nnz(), 1.0, 43);
        let degrees = csr.degrees();
        let scale = crate::common::row_scales_mean(&degrees);
        let n = g.num_rows();
        let cuts = [0, 61, 62, n / 2, n - 1, n];
        let bits = |v: &[Half]| v.iter().map(|h| h.to_bits()).collect::<Vec<u16>>();

        for cfg in [
            SpmmConfig::default(),
            SpmmConfig { scaling: ScalePlacement::PostReduction, ..Default::default() },
            SpmmConfig { writes: WriteStrategy::Atomic, ..Default::default() },
        ] {
            let (full, _) =
                spmm(&dev(), &g, EdgeWeights::Values(&wvals), &x, f, Some(&scale), &cfg);
            let mut pasted = vec![Half::ZERO; n * f];
            for win in cuts.windows(2) {
                let (r0, r1) = (win[0], win[1]);
                let (part, _) = spmm_window(
                    &dev(),
                    &g,
                    EdgeWeights::Values(&wvals),
                    &x,
                    f,
                    Some(&scale),
                    &cfg,
                    (r0, r1),
                );
                assert!(part[..r0 * f].iter().chain(&part[r1 * f..]).all(|h| h.is_zero()));
                pasted[r0 * f..r1 * f].copy_from_slice(&part[r0 * f..r1 * f]);
            }
            assert_eq!(bits(&full), bits(&pasted), "spmm window mismatch ({cfg:?})");
        }

        for op in [Reduce::Sum, Reduce::Max] {
            let (full, _) = edge_reduce(&dev(), &g, &wvals, op);
            let mut pasted = vec![Half::ZERO; n];
            for win in cuts.windows(2) {
                let (part, _) = edge_reduce_window(&dev(), &g, &wvals, op, (win[0], win[1]));
                pasted[win[0]..win[1]].copy_from_slice(&part[win[0]..win[1]]);
            }
            assert_eq!(bits(&full), bits(&pasted), "edge_reduce window mismatch ({op:?})");
        }

        let (full, _) = spmm_vertex_parallel(
            &dev(),
            &csr,
            EdgeWeights::Ones,
            &x,
            f,
            Some(&scale),
            ScalePlacement::Discretized,
        );
        let mut pasted = vec![Half::ZERO; n * f];
        for win in cuts.windows(2) {
            let (part, _) = spmm_vertex_parallel_window(
                &dev(),
                &csr,
                EdgeWeights::Ones,
                &x,
                f,
                Some(&scale),
                ScalePlacement::Discretized,
                (win[0], win[1]),
            );
            pasted[win[0] * f..win[1] * f].copy_from_slice(&part[win[0] * f..win[1] * f]);
        }
        assert_eq!(bits(&full), bits(&pasted), "vertex-parallel window mismatch");
    }

    #[test]
    fn hub_rows_span_many_ctas_and_still_match() {
        // A 3000-degree hub spans ~12 CTAs: exercises the staging buffer +
        // follow-up merge across CTA boundaries.
        let mut edges: Vec<(u32, u32)> = (1..=3000u32).map(|c| (0, c)).collect();
        edges.extend((1..=2999u32).map(|v| (v, v + 1)));
        let g = Coo::from_edges(3001, 3001, &edges);
        let f = 8;
        let x = random_halves(3001 * f, 0.25, 30);
        let (y, _) = spmm(
            &dev(),
            &g,
            EdgeWeights::Ones,
            &x,
            f,
            None,
            &SpmmConfig { scaling: ScalePlacement::None, ..Default::default() },
        );
        let want = spmm_f64(&g, EdgeWeights::Ones, &half_to_f64(&x), f, Reduce::Sum, None);
        assert_close_half(&y, &want, 0.05, 0.3, "hub spmm");
    }
}
