//! Shared kernel vocabulary: the recorded launch, the §5.2.3 staging
//! resolution, the neighbor-group builder, reduction modes, scaling
//! placement, write strategies, vector widths, and the edge-tiling
//! geometry.

use halfgnn_graph::Csr;
use halfgnn_half::slice::add_row;
use halfgnn_half::{overflow, Half, Scalar};
use halfgnn_sim::launch::{charge_only, commit_all, find_assign_overlap};
use halfgnn_sim::launch::{Cta, LaunchParams, WriteList};
use halfgnn_sim::{DeviceConfig, KernelStats};

/// [`halfgnn_sim::launch::launch`] with the overflow record of a
/// sequential run at any thread count; every kernel in this crate launches
/// through it. When the caller has a tracking window open, each CTA runs
/// in its own window under the caller's site labels (a pool worker has no
/// window of its own), and the windows are credited to the caller's in
/// CTA order. With no window open it is the plain launch.
pub fn launch<R, F>(
    dev: &DeviceConfig,
    name: &str,
    params: LaunchParams,
    kernel: F,
) -> (Vec<R>, KernelStats)
where
    R: Send,
    F: Fn(&mut Cta) -> R + Sync,
{
    let sites = overflow::open_sites();
    let (ctas, stats) = halfgnn_sim::launch(dev, name, params, |cta| match &sites {
        Some(sites) => overflow::windowed(sites, || kernel(cta)),
        None => (kernel(cta), overflow::Summary::default()),
    });
    let mut record = overflow::Summary::default();
    let results = ctas
        .into_iter()
        .map(|(out, window)| {
            record.merge(window);
            out
        })
        .collect();
    overflow::credit(record);
    (results, stats)
}

/// One CTA's writes under the §5.2.3 protocol: direct writes to the rows
/// it owns, and `(row, partial)` entries for the staging buffer, in row
/// order.
pub(crate) type StagedWrites = (WriteList<Half>, Vec<(u32, Vec<Half>)>);

/// §5.2.3's inter-CTA resolution, after a staged SpMM's main kernel
/// (whose stats are `stats`), into a zeroed `rows × f` output. It commits
/// every CTA's direct writes in CTA order (a debug build checks that no
/// two assign the same element). If anything was staged, it logs the
/// follow-up kernel `followup`: one one-warp CTA per eight entries, each
/// entry reloaded from `stage_base` and its row stored at `y_base`.
/// Entries arrive in CTA order, so a row's partials are adjacent; each
/// staged row, which the main kernel did not write, is assigned their
/// [`add_row`] sum.
pub(crate) fn resolve_staged(
    dev: &DeviceConfig,
    followup: &str,
    ctas: Vec<StagedWrites>,
    (rows, f): (usize, usize),
    (stage_base, y_base): (u64, u64),
    stats: KernelStats,
) -> (Vec<Half>, KernelStats) {
    let (writes, staged): (Vec<_>, Vec<_>) = ctas.into_iter().unzip();
    debug_assert!(
        find_assign_overlap(&writes).is_none(),
        "conflicting direct writes: {:?}",
        find_assign_overlap(&writes)
    );
    let mut y = vec![Half::ZERO; rows * f];
    commit_all(writes, &mut y);
    let staged: Vec<(u32, Vec<Half>)> = staged.into_iter().flatten().collect();
    if staged.is_empty() {
        return (y, stats);
    }
    let entries = staged.len();
    let params = LaunchParams { num_ctas: entries.div_ceil(8), warps_per_cta: 1 };
    let follow = charge_only(dev, followup, params, |cta| {
        let slice = cta.id * 8..entries.min((cta.id + 1) * 8);
        let mut warp = cta.warp(0);
        for _ in slice {
            warp.load_contiguous(stage_base, f / 2 + 1, 4);
            warp.half2_ops(((f / 2) as u64).div_ceil(32));
            warp.store_contiguous(y_base, f / 2, 4);
        }
    });
    let mut staged = staged.into_iter().peekable();
    while let Some((row, mut sum)) = staged.next() {
        while let Some((_, part)) = staged.next_if(|(r, _)| *r == row) {
            add_row(&mut sum, &part);
        }
        y[row as usize * f..][..f].copy_from_slice(&sum);
    }
    (y, stats.then(&follow))
}

/// The neighbor groups of a vertex-parallel SpMM, one per warp:
/// `(row, edge offset, len)` for the rows `[r0, r1)` of `csr`, in row
/// order, each at most `group` edges long and never crossing a row.
pub(crate) fn neighbor_groups(
    csr: &Csr,
    (r0, r1): (usize, usize),
    group: usize,
) -> Vec<(u32, usize, usize)> {
    let off = csr.offsets();
    (r0..r1)
        .flat_map(|r| {
            let end = off[r + 1];
            (off[r]..end).step_by(group).map(move |o| (r as u32, o, group.min(end - o)))
        })
        .collect()
}

/// Where degree-norm scaling happens relative to the SpMM reduction
/// (§5.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalePlacement {
    /// No scaling: plain sum (GIN's default aggregation — overflows).
    None,
    /// Scale once after the full reduction (current systems; overflow has
    /// already happened by then).
    PostReduction,
    /// Scale every dot product before reducing (no overflow, extra
    /// arithmetic, underflow risk).
    PreReduction,
    /// **The paper's contribution**: scale at the end of each discretized
    /// batch of neighbors — overflow-safe at no extra cost.
    Discretized,
}

/// How conflicting writes are resolved (§5.2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteStrategy {
    /// Atomic read-modify-write per conflicting element (costly for half).
    Atomic,
    /// Warp-local direct writes + intra-CTA shared-memory combine +
    /// staging buffer and follow-up kernel.
    Staged,
}

/// SpMM reduction operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduce {
    /// Sum of neighbor contributions.
    Sum,
    /// Maximum (edge-softmax's `m_i`; never overflows).
    Max,
}

/// Data-load vector width for SDDMM (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorWidth {
    /// Scalar half loads: 64 B per warp instruction.
    Half1,
    /// Native half2: 128 B.
    Half2,
    /// Proposed half4 via float2: 256 B.
    Half4,
    /// Proposed half8 via float4: 512 B.
    Half8,
}

impl VectorWidth {
    /// Lanes of half data per thread per load.
    pub fn lanes(self) -> usize {
        match self {
            VectorWidth::Half1 => 1,
            VectorWidth::Half2 => 2,
            VectorWidth::Half4 => 4,
            VectorWidth::Half8 => 8,
        }
    }

    /// Bytes per thread per load instruction.
    pub fn bytes(self) -> usize {
        self.lanes() * 2
    }
}

/// Edge weights for SpMM: `SpMMv` (implicit ones) or `SpMMve` (explicit
/// edge-level tensor), in the kernel's element type (half by default).
#[derive(Clone, Copy, Debug)]
pub enum EdgeWeights<'a, T = Half> {
    /// All weights are 1.0 — GCN/GIN's kernel; no weight tensor is stored
    /// or loaded.
    Ones,
    /// Explicit per-edge weights (attention scores in GAT).
    Values(&'a [T]),
}

impl<T: Scalar> EdgeWeights<'_, T> {
    /// Weight of edge `e`.
    #[inline(always)]
    pub fn get(&self, e: usize) -> T {
        match self {
            EdgeWeights::Ones => T::ONE,
            EdgeWeights::Values(w) => w[e],
        }
    }

    /// True for the SpMMv case.
    pub fn is_ones(&self) -> bool {
        matches!(self, EdgeWeights::Ones)
    }
}

/// Count of non-finite values in a slice (the per-tile quantity kernels
/// report through [`halfgnn_sim::WarpCtx::nonfinite_values`]).
pub fn count_nonfinite<T: Scalar>(vals: &[T]) -> u64 {
    vals.iter().filter(|v| !v.is_finite()).count() as u64
}

/// Edge-tile geometry for edge-parallel kernels: the discretization unit of
/// §5.2. Defaults follow §4.1.1 ("at least 64 edges must be allocated to
/// each warp").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tiling {
    /// Edges assigned to each warp.
    pub edges_per_warp: usize,
    /// Warps per CTA.
    pub warps_per_cta: usize,
}

impl Default for Tiling {
    fn default() -> Tiling {
        Tiling { edges_per_warp: 64, warps_per_cta: 4 }
    }
}

impl Tiling {
    /// Edges covered by one CTA.
    pub fn edges_per_cta(&self) -> usize {
        self.edges_per_warp * self.warps_per_cta
    }

    /// CTAs needed for `nnz` edges.
    pub fn num_ctas(&self, nnz: usize) -> usize {
        nnz.div_ceil(self.edges_per_cta()).max(1)
    }

    /// The edge range `[start, end)` of warp `w` in CTA `cta`.
    pub fn warp_range(&self, cta: usize, w: usize, nnz: usize) -> (usize, usize) {
        let start = cta * self.edges_per_cta() + w * self.edges_per_warp;
        let end = (start + self.edges_per_warp).min(nnz);
        (start.min(nnz), end)
    }

    /// Global CTA-id range `[lo, hi)` covering the edge window `[e0, e1)`.
    ///
    /// Sharded launches keep *global* CTA coordinates so every warp sees
    /// exactly the edge tile it would own in a single-device launch — this
    /// is what makes a sharded run bit-identical to the unsharded one
    /// (identical per-row segment cuts, identical commit order). The full
    /// window `(0, nnz)` reproduces [`Tiling::num_ctas`] exactly.
    pub fn cta_range(&self, e0: usize, e1: usize) -> (usize, usize) {
        debug_assert!(e0 <= e1);
        let lo = e0 / self.edges_per_cta();
        let hi = e1.div_ceil(self.edges_per_cta()).max(lo + 1);
        (lo, hi)
    }

    /// [`Tiling::warp_range`] clamped to the edge window `[e0, e1)`; `cta`
    /// is a *global* CTA id (see [`Tiling::cta_range`]).
    pub fn warp_range_in(&self, cta: usize, w: usize, e0: usize, e1: usize) -> (usize, usize) {
        let start = cta * self.edges_per_cta() + w * self.edges_per_warp;
        let end = (start + self.edges_per_warp).min(e1);
        (start.clamp(e0, e1), end.clamp(e0, e1))
    }
}

/// Convert per-row scale factors (e.g. 1/degree) to half precision once, as
/// the GPU kernel would keep them.
pub fn row_scales_mean(degrees: &[u32]) -> Vec<Half> {
    degrees
        .iter()
        .map(|&d| if d == 0 { Half::ZERO } else { Half::from_f32(1.0 / d as f32) })
        .collect()
}

/// Per-row `1/sqrt(degree)` factors for GCN's `both` norm.
pub fn row_scales_inv_sqrt(degrees: &[u32]) -> Vec<Half> {
    degrees
        .iter()
        .map(|&d| if d == 0 { Half::ZERO } else { Half::from_f32(1.0 / (d as f32).sqrt()) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_width_bytes() {
        assert_eq!(VectorWidth::Half1.bytes(), 2);
        assert_eq!(VectorWidth::Half2.bytes(), 4);
        assert_eq!(VectorWidth::Half4.bytes(), 8);
        assert_eq!(VectorWidth::Half8.bytes(), 16);
    }

    #[test]
    fn tiling_covers_all_edges() {
        let t = Tiling::default();
        assert_eq!(t.edges_per_cta(), 256);
        assert_eq!(t.num_ctas(1000), 4);
        assert_eq!(t.num_ctas(1024), 4);
        assert_eq!(t.num_ctas(1025), 5);
        assert_eq!(t.num_ctas(0), 1);
        // Ranges tile the edge list exactly.
        let nnz = 1000;
        let mut covered = 0;
        for cta in 0..t.num_ctas(nnz) {
            for w in 0..t.warps_per_cta {
                let (s, e) = t.warp_range(cta, w, nnz);
                assert_eq!(s, covered.min(nnz));
                covered = e.max(covered);
            }
        }
        assert_eq!(covered, nnz);
    }

    #[test]
    fn windowed_tiling_matches_global_tiling() {
        let t = Tiling::default();
        // Full window reproduces the unwindowed geometry exactly.
        for nnz in [0usize, 1, 255, 256, 1000, 1025] {
            assert_eq!(t.cta_range(0, nnz), (0, t.num_ctas(nnz)));
            for cta in 0..t.num_ctas(nnz) {
                for w in 0..t.warps_per_cta {
                    assert_eq!(t.warp_range_in(cta, w, 0, nnz), t.warp_range(cta, w, nnz));
                }
            }
        }
        // A window's warp ranges are the global ranges clamped to it.
        let (e0, e1) = (300usize, 700usize);
        let (lo, hi) = t.cta_range(e0, e1);
        assert_eq!((lo, hi), (1, 3));
        let mut covered = e0;
        for cta in lo..hi {
            for w in 0..t.warps_per_cta {
                let (s, e) = t.warp_range_in(cta, w, e0, e1);
                let (gs, ge) = t.warp_range(cta, w, usize::MAX);
                assert_eq!(s, gs.clamp(e0, e1));
                assert_eq!(e, ge.clamp(e0, e1));
                assert_eq!(s, covered.min(e1));
                covered = e.max(covered);
            }
        }
        assert_eq!(covered, e1);
        // Empty window inside a larger edge list: one empty CTA.
        let (lo, hi) = t.cta_range(512, 512);
        assert_eq!(hi - lo, 1);
        assert_eq!(t.warp_range_in(lo, 0, 512, 512), (512, 512));
    }

    #[test]
    fn edge_weights_accessor() {
        let w = [Half::from_f32(2.0), Half::from_f32(3.0)];
        assert_eq!(EdgeWeights::<Half>::Ones.get(1), Half::ONE);
        assert_eq!(EdgeWeights::Values(&w).get(1).to_f32(), 3.0);
        assert!(EdgeWeights::<Half>::Ones.is_ones());
        assert!(!EdgeWeights::Values(&w).is_ones());
    }

    #[test]
    fn neighbor_groups_tile_each_window_row_in_order() {
        let edges = halfgnn_graph::gen::preferential_attachment(1_500, 8, 1);
        let csr = Csr::from_edges(1_500, 1_500, &edges).symmetrized_with_self_loops();
        let n = csr.num_rows();
        for (group, window) in [(32, (0, n)), (64, (0, n)), (5, (100, 900)), (64, (700, 700))] {
            let groups = neighbor_groups(&csr, window, group);
            let mut next = (window.0, csr.offsets()[window.0]);
            for &(r, off, len) in &groups {
                assert!(len > 0 && len <= group, "group {group}: len {len}");
                let r = r as usize;
                if off == csr.offsets()[r] {
                    assert_eq!(next.1, off, "row {r} starts where the last row ended");
                    assert!(r >= next.0, "rows in order");
                } else {
                    assert_eq!((r, off), next, "a row's groups are consecutive");
                }
                next = (r, off + len);
                assert!(off + len <= csr.offsets()[r + 1], "row {r}: no group crosses a row");
            }
            assert_eq!(next.1, csr.offsets()[window.1], "the window's edges are covered");
        }
    }

    #[test]
    fn row_scale_tables() {
        let d = [0u32, 1, 4, 16];
        let mean = row_scales_mean(&d);
        assert_eq!(mean[0], Half::ZERO);
        assert_eq!(mean[2].to_f32(), 0.25);
        let isq = row_scales_inv_sqrt(&d);
        assert_eq!(isq[3].to_f32(), 0.25);
        assert_eq!(isq[1].to_f32(), 1.0);
    }
}
