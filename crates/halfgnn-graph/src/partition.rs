//! Deterministic 1D vertex partitioning for sharded training (CAGNET-style).
//!
//! A shard owns a *contiguous* range of destination rows. Contiguity is
//! load-bearing, not a simplification: the canonical COO is row-sorted, so
//! a shard's edges are exactly the contiguous slice
//! `csr.offsets()[r0] .. csr.offsets()[r1]` of the global edge arrays.
//! Sharded kernels can therefore run the *global* edge tiling clamped to
//! that window, which reproduces the single-device per-row segmentation —
//! and hence bit-identical f16/f32 reductions (see DESIGN.md §12).
//!
//! Three boundary strategies:
//!
//! * [`PartitionStrategy::Contiguous`] — equal row counts (`⌊k·n/S⌋`
//!   boundaries). Degenerate on hub graphs: one shard can own most edges.
//! * [`PartitionStrategy::DegreeBalanced`] — boundaries placed where the
//!   cumulative edge count crosses `k·nnz/S`, equalizing per-shard edge
//!   work (the quantity SpMM cost actually scales with).
//! * [`PartitionStrategy::OneP5D`] — 1.5D with replication factor `c`
//!   (Tripathy/Yelick/Buluç): shards use the DegreeBalanced boundaries,
//!   but consecutive runs of `c` shards form a *replication group* that
//!   fetches its out-of-group halo union once over the wire (in-group
//!   halo rows ride the free intra-group links). Kernels and outputs are
//!   unchanged — only the wire-charge assignment ([`Shard::wire_rows`])
//!   differs, which is what makes the comms volume sublinear in shard
//!   count where 1D is superlinear (DESIGN.md §16).
//!
//! Each shard also carries the *halo*: the sorted set of global column ids
//! its edges reference outside its owned range — the feature rows another
//! device must send it before a local aggregation, and the payload the
//! interconnect cost model charges per layer. Kernels read a shard's edges
//! through its window into the global arrays, with global column ids, so
//! a shard needs no local CSR or id map of its own.

use crate::{Csr, VertexId};

/// How shard boundaries are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Equal vertex counts per shard.
    Contiguous,
    /// Equal edge counts per shard (boundaries at cumulative-degree
    /// crossings), the right balance for SpMM-bound work on skewed graphs.
    DegreeBalanced,
    /// 1.5D partition with replication factor `c`: DegreeBalanced row
    /// boundaries, with each run of `c` consecutive shards forming a
    /// replication group that shares one wire fetch of its halo union.
    /// `c` must divide the shard count; `c == 1` degenerates to
    /// DegreeBalanced charging exactly.
    OneP5D {
        /// Replication factor (group size).
        c: usize,
    },
}

impl PartitionStrategy {
    /// CLI tag.
    pub fn tag(self) -> &'static str {
        match self {
            PartitionStrategy::Contiguous => "contiguous",
            PartitionStrategy::DegreeBalanced => "balanced",
            PartitionStrategy::OneP5D { .. } => "1p5d",
        }
    }

    /// Parse a CLI tag. `1p5d` defaults to replication factor 2 — the CLI
    /// overrides it via `--replication` ([`Self::with_replication`]).
    pub fn parse(s: &str) -> Option<PartitionStrategy> {
        match s {
            "contiguous" => Some(PartitionStrategy::Contiguous),
            "balanced" => Some(PartitionStrategy::DegreeBalanced),
            "1p5d" => Some(PartitionStrategy::OneP5D { c: 2 }),
            _ => None,
        }
    }

    /// The replication factor: `c` for 1.5D, 1 for the 1D strategies.
    pub fn replication(self) -> usize {
        match self {
            PartitionStrategy::OneP5D { c } => c,
            _ => 1,
        }
    }

    /// Override the replication factor (no-op on 1D strategies).
    pub fn with_replication(self, c: usize) -> PartitionStrategy {
        match self {
            PartitionStrategy::OneP5D { .. } => PartitionStrategy::OneP5D { c },
            other => other,
        }
    }
}

/// One shard of a [`ShardPlan`]: an owned row range, its edge window in the
/// canonical global edge order, the halo it must receive, who sends it, and
/// which halo rows it pays wire bytes for.
#[derive(Clone, Debug)]
pub struct Shard {
    /// This shard's index.
    pub index: usize,
    /// Owned destination rows `[r0, r1)`. May be empty (`r0 == r1`) when
    /// there are more shards than rows.
    pub row_range: (usize, usize),
    /// The shard's edges as a window `[e0, e1)` into the canonical global
    /// COO/CSR edge arrays (`e0 = offsets[r0]`, `e1 = offsets[r1]`).
    pub edge_range: (usize, usize),
    /// Sorted global ids of non-owned vertices referenced by the shard's
    /// edges — the feature rows a halo exchange must deliver.
    pub halo: Vec<VertexId>,
    /// How many halo rows each source shard must send this one: sorted
    /// `(src_shard, rows)` pairs, omitting zero counts. Precomputed at
    /// partition time — the halo-exchange loop reads it every layer of
    /// every epoch.
    pub halo_sources: Vec<(usize, usize)>,
    /// The remote rows this shard pays *wire* bytes for, sorted, each with
    /// its owner shard. Under the 1D strategies this is exactly `halo` ×
    /// owner. Under 1.5D the `c` members of a replication group split one
    /// fetch of the group's out-of-group halo union (each row goes to the
    /// least-loaded member that needs it), so in-group halo rows and
    /// duplicate out-of-group needs appear in nobody's `wire_rows` — the
    /// communication-avoiding effect, priced at partition time.
    pub wire_rows: Vec<(VertexId, usize)>,
}

impl Shard {
    /// Number of owned rows.
    pub fn num_rows(&self) -> usize {
        self.row_range.1 - self.row_range.0
    }

    /// Number of owned edges.
    pub fn num_edges(&self) -> usize {
        self.edge_range.1 - self.edge_range.0
    }
}

/// A complete 1D partition of a graph.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Total vertex count of the partitioned graph.
    pub num_rows: usize,
    /// Total edge count of the partitioned graph.
    pub nnz: usize,
    /// Boundary strategy the plan was built with.
    pub strategy: PartitionStrategy,
    /// Replication factor: `c` for 1.5D plans, 1 otherwise. Shards
    /// `[g·c, (g+1)·c)` form replication group `g`.
    pub replication: usize,
    /// The shards, in row order.
    pub shards: Vec<Shard>,
}

impl ShardPlan {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The replication group a shard belongs to.
    pub fn group_of(&self, shard: usize) -> usize {
        shard / self.replication
    }

    /// Number of replication groups (`shards / c`).
    pub fn num_groups(&self) -> usize {
        self.shards.len() / self.replication
    }

    /// The rows shard `dst` pays wire bytes for, with owners — what the
    /// comms ledger charges per halo exchange (see [`Shard::wire_rows`]).
    pub fn wire_rows(&self, dst: usize) -> &[(VertexId, usize)] {
        &self.shards[dst].wire_rows
    }

    /// Which shard owns global row `v`.
    pub fn owner_of(&self, v: usize) -> usize {
        debug_assert!(v < self.num_rows);
        // Boundaries are sorted: the owner is the last shard whose range
        // starts at or before `v` and actually contains it (empty shards
        // share a boundary and own nothing).
        self.shards
            .iter()
            .position(|s| s.row_range.0 <= v && v < s.row_range.1)
            .expect("every row is owned by exactly one shard")
    }

    /// Largest per-shard edge count (the balance figure of merit).
    pub fn max_shard_edges(&self) -> usize {
        self.shards.iter().map(Shard::num_edges).max().unwrap_or(0)
    }

    /// For shard `dst`, how many halo rows each source shard must send it:
    /// sorted `(src_shard, rows)` pairs, omitting zero counts. Precomputed
    /// by [`partition`]; this is a plain slice borrow, safe to call in the
    /// per-epoch halo-exchange loop.
    pub fn halo_sources(&self, dst: usize) -> &[(usize, usize)] {
        &self.shards[dst].halo_sources
    }
}

/// Row boundaries for `num_shards` shards: `num_shards + 1` non-decreasing
/// cut points starting at 0 and ending at `num_rows`.
fn boundaries(csr: &Csr, num_shards: usize, strategy: PartitionStrategy) -> Vec<usize> {
    let n = csr.num_rows();
    let nnz = csr.nnz();
    let mut cuts = Vec::with_capacity(num_shards + 1);
    cuts.push(0);
    for k in 1..num_shards {
        let cut = match strategy {
            PartitionStrategy::Contiguous => k * n / num_shards,
            // 1.5D reuses the edge-balanced cuts: members of a replication
            // group own consecutive ranges, so the group's rows are one
            // contiguous super-range.
            PartitionStrategy::DegreeBalanced | PartitionStrategy::OneP5D { .. } => {
                if nnz == 0 {
                    k * n / num_shards
                } else {
                    // First row whose cumulative edge count reaches k/S of
                    // the total: offsets is sorted, so this is a
                    // partition_point over `offsets[r] * S < k * nnz`.
                    let (k128, s128) = (k as u128, num_shards as u128);
                    csr.offsets()
                        .partition_point(|&o| (o as u128) * s128 < k128 * nnz as u128)
                        .min(n)
                }
            }
        };
        // Boundaries must be non-decreasing even when a hub row swallows
        // several targets at once.
        cuts.push(cut.max(*cuts.last().unwrap()));
    }
    cuts.push(n);
    cuts
}

/// Partition a graph into `num_shards` contiguous row shards. Deterministic:
/// the same graph, shard count and strategy always yield the same plan.
pub fn partition(csr: &Csr, num_shards: usize, strategy: PartitionStrategy) -> ShardPlan {
    assert!(num_shards > 0, "need at least one shard");
    let replication = strategy.replication();
    assert!(replication >= 1, "replication factor must be at least 1");
    assert!(
        num_shards.is_multiple_of(replication),
        "1.5D needs the shard count divisible by the replication factor \
         (shards {num_shards}, c {replication})"
    );
    let cuts = boundaries(csr, num_shards, strategy);
    let off = csr.offsets();
    let cols = csr.cols();
    let n = csr.num_rows();
    // Rows `[r0, r1)` cut out of `0..n`, in order.
    let outside = |r0: usize, r1: usize| (0..r0).chain(r1..n);

    // `seen[v] == s` marks `v` as a column of shard `s`'s window.
    let mut seen = vec![usize::MAX; n];
    let mut shards: Vec<Shard> = (0..num_shards)
        .map(|s| {
            let (r0, r1) = (cuts[s], cuts[s + 1]);
            let (e0, e1) = (off[r0], off[r1]);

            // Halo: the window's out-of-range columns, marked, then read
            // off in vertex order (sorted and deduplicated by the scan).
            for &c in &cols[e0..e1] {
                seen[c as usize] = s;
            }
            let halo: Vec<VertexId> =
                outside(r0, r1).filter(|&v| seen[v] == s).map(|v| v as VertexId).collect();

            // Halo rows per source shard: the halo is sorted, so each
            // owner's share is one contiguous run delimited by its cuts.
            // Empty shards ([cuts[k], cuts[k+1]) empty) contribute nothing,
            // exactly as the owner-scan attribution did.
            let halo_sources = (0..num_shards)
                .filter_map(|src| {
                    let lo = halo.partition_point(|&c| (c as usize) < cuts[src]);
                    let hi = halo.partition_point(|&c| (c as usize) < cuts[src + 1]);
                    (hi > lo).then_some((src, hi - lo))
                })
                .collect();

            Shard {
                index: s,
                row_range: (r0, r1),
                edge_range: (e0, e1),
                halo,
                halo_sources,
                wire_rows: Vec::new(),
            }
        })
        .collect();

    // Wire-charge assignment. Owner lookup by cut: the last shard whose
    // range starts at or before `v` (empty shards share a boundary and
    // never win the scan).
    let owner = |v: usize| cuts.partition_point(|&cut| cut <= v) - 1;
    if replication == 1 {
        // 1D: every shard fetches its own halo, row by row.
        for s in &mut shards {
            s.wire_rows = s.halo.iter().map(|&v| (v, owner(v as usize))).collect();
        }
    } else {
        // 1.5D: each group fetches the union of its members' out-of-group
        // halos exactly once, every row assigned to the least-loaded
        // member whose halo contains it (ties to the lowest member).
        // In-group halo rows ride the free intra-group links and are
        // charged to nobody. `member[v·c + j]` marks an out-of-group `v`
        // in member `j`'s halo; the union is the marked rows, read off in
        // vertex order, and each is unmarked as it is assigned.
        let mut member = vec![false; n * replication];
        for g0 in (0..num_shards).step_by(replication) {
            let (gr0, gr1) = (cuts[g0], cuts[g0 + replication]);
            for j in 0..replication {
                for &v in &shards[g0 + j].halo {
                    if !(gr0..gr1).contains(&(v as usize)) {
                        member[v as usize * replication + j] = true;
                    }
                }
            }
            let mut load = vec![0usize; replication];
            for v in outside(gr0, gr1) {
                let marks = &mut member[v * replication..(v + 1) * replication];
                let mut best: Option<usize> = None;
                for (j, &m) in marks.iter().enumerate() {
                    if m && best.is_none_or(|b| load[j] < load[b]) {
                        best = Some(j);
                    }
                }
                let Some(j) = best else { continue };
                marks.fill(false);
                load[j] += 1;
                shards[g0 + j].wire_rows.push((v as VertexId, owner(v)));
            }
        }
    }

    ShardPlan { num_rows: csr.num_rows(), nnz: csr.nnz(), strategy, replication, shards }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain6() -> Csr {
        Csr::from_edges(6, 6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
            .symmetrized_with_self_loops()
    }

    fn star(n: usize) -> Csr {
        let edges: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|v| (0, v)).collect();
        Csr::from_edges(n, n, &edges).symmetrized_with_self_loops()
    }

    #[test]
    fn shards_cover_all_rows_and_edges() {
        let g = chain6();
        for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::DegreeBalanced] {
            for s in [1, 2, 3, 4] {
                let plan = partition(&g, s, strategy);
                assert_eq!(plan.num_shards(), s);
                assert_eq!(plan.shards[0].row_range.0, 0);
                assert_eq!(plan.shards[s - 1].row_range.1, g.num_rows());
                let rows: usize = plan.shards.iter().map(Shard::num_rows).sum();
                let edges: usize = plan.shards.iter().map(Shard::num_edges).sum();
                assert_eq!(rows, g.num_rows());
                assert_eq!(edges, g.nnz());
                // Ranges are contiguous and ordered.
                for w in plan.shards.windows(2) {
                    assert_eq!(w[0].row_range.1, w[1].row_range.0);
                    assert_eq!(w[0].edge_range.1, w[1].edge_range.0);
                }
            }
        }
    }

    #[test]
    fn edge_windows_tile_the_edges_and_halos_are_their_outside_columns() {
        // What the windowed kernels rely on: shard `k`'s edges are the
        // window `edge_range` of the global arrays, the windows tile
        // `0..nnz` in shard order, and the halo is exactly the window's
        // columns outside the owned rows, sorted and deduplicated.
        let isolated = Csr::from_edges(8, 8, &[(0, 1), (1, 0), (5, 7), (7, 5)]);
        let tiny = Csr::from_edges(2, 2, &[(0, 1)]).symmetrized_with_self_loops();
        for g in [chain6(), star(17), isolated, tiny] {
            for (s, c) in [(1usize, 1usize), (2, 2), (3, 3), (4, 2), (6, 2), (6, 3)] {
                for strategy in [
                    PartitionStrategy::Contiguous,
                    PartitionStrategy::DegreeBalanced,
                    PartitionStrategy::OneP5D { c },
                ] {
                    let plan = partition(&g, s, strategy);
                    let mut next_edge = 0;
                    for shard in &plan.shards {
                        let ((r0, r1), (e0, e1)) = (shard.row_range, shard.edge_range);
                        assert_eq!(e0, next_edge, "{strategy:?} s={s} #{}", shard.index);
                        assert_eq!((e0, e1), (g.offsets()[r0], g.offsets()[r1]));
                        next_edge = e1;
                        let mut want: Vec<VertexId> = g.cols()[e0..e1]
                            .iter()
                            .copied()
                            .filter(|&v| !(r0..r1).contains(&(v as usize)))
                            .collect();
                        want.sort_unstable();
                        want.dedup();
                        assert_eq!(shard.halo, want, "{strategy:?} s={s} #{}", shard.index);
                    }
                    assert_eq!(next_edge, g.nnz(), "{strategy:?} s={s}");
                }
            }
        }
    }

    #[test]
    fn halos_are_exactly_the_out_of_range_neighbors() {
        let g = chain6();
        let plan = partition(&g, 2, PartitionStrategy::Contiguous);
        // Shard 0 owns rows 0..3; row 2's neighbor 3 is the only halo.
        assert_eq!(plan.shards[0].row_range, (0, 3));
        assert_eq!(plan.shards[0].halo, vec![3]);
        // Shard 1 owns rows 3..6; row 3's neighbor 2 is the only halo.
        assert_eq!(plan.shards[1].halo, vec![2]);
        assert_eq!(plan.halo_sources(0), vec![(1, 1)]);
        assert_eq!(plan.halo_sources(1), vec![(0, 1)]);
    }

    #[test]
    fn degree_balanced_beats_contiguous_on_a_star() {
        let g = star(64);
        let cont = partition(&g, 4, PartitionStrategy::Contiguous);
        let bal = partition(&g, 4, PartitionStrategy::DegreeBalanced);
        assert!(
            bal.max_shard_edges() <= cont.max_shard_edges(),
            "balanced {} vs contiguous {}",
            bal.max_shard_edges(),
            cont.max_shard_edges()
        );
        // The hub row (degree 64) dominates: the balanced plan isolates it.
        assert!(bal.max_shard_edges() < g.nnz());
    }

    #[test]
    fn more_shards_than_rows_yields_empty_shards() {
        let g = Csr::from_edges(2, 2, &[(0, 1)]).symmetrized_with_self_loops();
        let plan = partition(&g, 4, PartitionStrategy::Contiguous);
        assert_eq!(plan.num_shards(), 4);
        let nonempty: Vec<usize> =
            plan.shards.iter().filter(|s| s.num_rows() > 0).map(|s| s.index).collect();
        let rows: usize = plan.shards.iter().map(Shard::num_rows).sum();
        assert_eq!(rows, 2);
        assert!(!nonempty.is_empty());
        for s in &plan.shards {
            if s.num_rows() == 0 {
                assert!(s.halo.is_empty());
                assert_eq!(s.num_edges(), 0);
            }
        }
    }

    #[test]
    fn owner_lookup_is_total() {
        let g = chain6();
        for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::DegreeBalanced] {
            let plan = partition(&g, 4, strategy);
            for v in 0..g.num_rows() {
                let o = plan.owner_of(v);
                let (r0, r1) = plan.shards[o].row_range;
                assert!(r0 <= v && v < r1);
            }
        }
    }

    #[test]
    fn zero_degree_rows_partition_cleanly() {
        // Isolated vertices (rows with no edges at all).
        let g = Csr::from_edges(8, 8, &[(0, 1), (1, 0)]);
        let plan = partition(&g, 3, PartitionStrategy::DegreeBalanced);
        let rows: usize = plan.shards.iter().map(Shard::num_rows).sum();
        assert_eq!(rows, 8);
        let edges: usize = plan.shards.iter().map(Shard::num_edges).sum();
        assert_eq!(edges, 2);
    }

    #[test]
    fn precomputed_halo_sources_match_owner_scan() {
        // Regression for the per-call recompute this replaced: the
        // partition-time `halo_sources` must equal the old owner-by-owner
        // count for every shard, on skewed and empty-shard plans alike.
        for g in
            [chain6(), star(17), Csr::from_edges(2, 2, &[(0, 1)]).symmetrized_with_self_loops()]
        {
            for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::DegreeBalanced] {
                for s in [1usize, 2, 3, 4, 6] {
                    let plan = partition(&g, s, strategy);
                    for dst in 0..s {
                        let mut counts = vec![0usize; s];
                        for &v in &plan.shards[dst].halo {
                            counts[plan.owner_of(v as usize)] += 1;
                        }
                        let want: Vec<(usize, usize)> =
                            counts.into_iter().enumerate().filter(|&(_, c)| c > 0).collect();
                        assert_eq!(plan.halo_sources(dst), want, "{strategy:?} s={s} dst={dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn strategy_tags_round_trip() {
        for s in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::DegreeBalanced,
            PartitionStrategy::OneP5D { c: 2 },
        ] {
            assert_eq!(PartitionStrategy::parse(s.tag()), Some(s));
        }
        assert_eq!(PartitionStrategy::parse("random"), None);
        assert_eq!(PartitionStrategy::OneP5D { c: 2 }.replication(), 2);
        assert_eq!(PartitionStrategy::DegreeBalanced.replication(), 1);
        assert_eq!(
            PartitionStrategy::OneP5D { c: 2 }.with_replication(4),
            PartitionStrategy::OneP5D { c: 4 }
        );
        assert_eq!(
            PartitionStrategy::Contiguous.with_replication(4),
            PartitionStrategy::Contiguous
        );
    }

    #[test]
    fn wire_rows_under_1d_are_exactly_the_halo_with_owners() {
        for g in [chain6(), star(17)] {
            for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::DegreeBalanced] {
                for s in [1usize, 2, 3, 4] {
                    let plan = partition(&g, s, strategy);
                    for shard in &plan.shards {
                        let want: Vec<(VertexId, usize)> =
                            shard.halo.iter().map(|&v| (v, plan.owner_of(v as usize))).collect();
                        assert_eq!(shard.wire_rows, want, "{strategy:?} s={s} #{}", shard.index);
                    }
                }
            }
        }
    }

    #[test]
    fn one5d_kernel_geometry_matches_degree_balanced() {
        // 1.5D is a comms transformation only: rows, edges and halos are
        // identical to the DegreeBalanced plan.
        for g in [chain6(), star(33)] {
            for (s, c) in [(2usize, 2usize), (4, 2), (4, 4), (6, 2), (6, 3)] {
                let bal = partition(&g, s, PartitionStrategy::DegreeBalanced);
                let p5 = partition(&g, s, PartitionStrategy::OneP5D { c });
                assert_eq!(p5.replication, c);
                assert_eq!(p5.num_groups(), s / c);
                for (a, b) in bal.shards.iter().zip(&p5.shards) {
                    assert_eq!(a.row_range, b.row_range);
                    assert_eq!(a.edge_range, b.edge_range);
                    assert_eq!(a.halo, b.halo);
                    assert_eq!(a.halo_sources, b.halo_sources);
                }
            }
        }
    }

    #[test]
    fn one5d_wire_rows_cover_the_group_union_once_and_skip_in_group_rows() {
        for g in [chain6(), star(33)] {
            for (s, c) in [(4usize, 2usize), (6, 2), (6, 3), (8, 4)] {
                let plan = partition(&g, s, PartitionStrategy::OneP5D { c });
                let cuts: Vec<usize> =
                    plan.shards.iter().map(|sh| sh.row_range.0).chain([g.num_rows()]).collect();
                for g0 in (0..s).step_by(c) {
                    let (gr0, gr1) = (cuts[g0], cuts[g0 + c]);
                    // Expected union: out-of-group halo rows of any member.
                    let mut union: Vec<VertexId> = (g0..g0 + c)
                        .flat_map(|m| plan.shards[m].halo.iter().copied())
                        .filter(|&v| (v as usize) < gr0 || (v as usize) >= gr1)
                        .collect();
                    union.sort_unstable();
                    union.dedup();
                    // Actual: the members' wire rows, disjoint by construction.
                    let mut got: Vec<VertexId> = (g0..g0 + c)
                        .flat_map(|m| plan.wire_rows(m).iter().map(|&(v, _)| v))
                        .collect();
                    got.sort_unstable();
                    assert_eq!(got, union, "s={s} c={c} group@{g0}");
                    for m in g0..g0 + c {
                        for &(v, o) in plan.wire_rows(m) {
                            assert!(plan.shards[m].halo.binary_search(&v).is_ok());
                            assert_eq!(o, plan.owner_of(v as usize));
                            assert_ne!(plan.group_of(o), g0 / c, "in-group row charged");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one5d_c1_charges_exactly_like_degree_balanced() {
        for g in [chain6(), star(17)] {
            for s in [2usize, 3, 4] {
                let bal = partition(&g, s, PartitionStrategy::DegreeBalanced);
                let p5 = partition(&g, s, PartitionStrategy::OneP5D { c: 1 });
                for (a, b) in bal.shards.iter().zip(&p5.shards) {
                    assert_eq!(a.wire_rows, b.wire_rows);
                }
            }
        }
    }

    #[test]
    fn one5d_full_replication_charges_no_wire_rows() {
        // One group spanning every shard: all halo is intra-group.
        let plan = partition(&chain6(), 3, PartitionStrategy::OneP5D { c: 3 });
        for s in &plan.shards {
            assert!(s.wire_rows.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "divisible by the replication factor")]
    fn one5d_requires_divisible_shards() {
        partition(&chain6(), 3, PartitionStrategy::OneP5D { c: 2 });
    }
}
