//! Property-based invariants for graph storage and conversions.

use halfgnn_graph::{partition, Coo, Csr, DeltaCsr, PartitionStrategy, ShardPlan, VertexId};
use proptest::prelude::*;

fn arb_edges(
    max_n: usize,
    max_e: usize,
) -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (2usize..max_n).prop_flat_map(move |n| {
        let edge = (0..n as VertexId, 0..n as VertexId);
        prop::collection::vec(edge, 0..max_e).prop_map(move |es| (n, es))
    })
}

proptest! {
    #[test]
    fn csr_offsets_are_monotone_and_bounded((n, edges) in arb_edges(64, 256)) {
        let g = Csr::from_edges(n, n, &edges);
        let off = g.offsets();
        prop_assert_eq!(off.len(), n + 1);
        prop_assert_eq!(off[0], 0);
        prop_assert_eq!(off[n], g.nnz());
        prop_assert!(off.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn csr_rows_sorted_and_deduped((n, edges) in arb_edges(64, 256)) {
        let g = Csr::from_edges(n, n, &edges);
        for v in 0..n {
            let row = g.row(v as VertexId);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} not strictly sorted");
        }
    }

    #[test]
    fn degrees_sum_to_nnz((n, edges) in arb_edges(64, 256)) {
        let g = Csr::from_edges(n, n, &edges);
        prop_assert_eq!(g.degrees().iter().map(|&d| d as usize).sum::<usize>(), g.nnz());
    }

    #[test]
    fn coo_csr_round_trip((n, edges) in arb_edges(64, 256)) {
        let coo = Coo::from_edges(n, n, &edges);
        let csr = Csr::from_coo(&coo);
        prop_assert_eq!(csr.to_coo(), coo);
    }

    #[test]
    fn transpose_involution((n, edges) in arb_edges(48, 192)) {
        let g = Csr::from_edges(n, n, &edges);
        prop_assert_eq!(g.transpose().transpose(), g.clone());
    }

    #[test]
    fn transpose_preserves_nnz((n, edges) in arb_edges(48, 192)) {
        let g = Csr::from_edges(n, n, &edges);
        prop_assert_eq!(g.transpose().nnz(), g.nnz());
    }

    #[test]
    fn symmetrize_is_symmetric_and_has_loops((n, edges) in arb_edges(32, 128)) {
        let g = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
        prop_assert!(g.is_symmetric());
        for v in 0..n as VertexId {
            prop_assert!(g.row(v).contains(&v));
            prop_assert!(g.degree(v) >= 1);
        }
    }

    #[test]
    fn symmetric_graph_equals_its_transpose((n, edges) in arb_edges(32, 128)) {
        let g = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
        prop_assert_eq!(g.transpose(), g.clone());
    }

    #[test]
    fn coo_edges_match_membership((n, edges) in arb_edges(32, 96)) {
        let coo = Coo::from_edges(n, n, &edges);
        let csr = Csr::from_coo(&coo);
        // Every original edge must be found in the CSR row.
        for &(r, c) in &edges {
            prop_assert!(csr.row(r).binary_search(&c).is_ok());
        }
        prop_assert!(coo.nnz() <= edges.len());
    }
}

// ---------------------------------------------------------------------
// The linear-time primitives against the bodies they replaced. Each
// reference below is an earlier body that expanded its edges and sorted
// them (or binary-searched every edge), kept here as the definition the
// counting sorts and row merges must reproduce exactly.
// ---------------------------------------------------------------------

/// `Csr::to_coo`'s earlier body: expand every row, then canonicalize.
fn to_coo_by_sort(g: &Csr) -> Coo {
    let mut edges = Vec::with_capacity(g.nnz());
    for r in 0..g.num_rows() {
        for &c in g.row(r as VertexId) {
            edges.push((r as VertexId, c));
        }
    }
    Coo::from_edges(g.num_rows(), g.num_cols(), &edges)
}

/// `Coo::transpose`: reverse every edge, then canonicalize.
fn transpose_by_sort(coo: &Coo) -> Coo {
    let edges: Vec<(VertexId, VertexId)> =
        coo.cols().iter().copied().zip(coo.rows().iter().copied()).collect();
    Coo::from_edges(coo.num_cols(), coo.num_rows(), &edges)
}

/// `Csr::transpose`'s earlier body.
fn csr_transpose_by_sort(g: &Csr) -> Csr {
    Csr::from_coo(&transpose_by_sort(&to_coo_by_sort(g)))
}

/// `Coo::transpose_permutation`'s earlier body: sort a transposed copy,
/// then binary-search each of its edges' reverse.
fn transpose_permutation_by_search(coo: &Coo) -> Vec<usize> {
    let t = transpose_by_sort(coo);
    (0..t.nnz())
        .map(|i| {
            let (r, c) = t.edge(i);
            coo.find_edge(c, r).unwrap_or_else(|| panic!("reverse edge of ({r}, {c}) missing"))
        })
        .collect()
}

/// `Csr::is_symmetric`'s earlier body: one binary search per edge.
fn is_symmetric_by_search(g: &Csr) -> bool {
    if g.num_rows() != g.num_cols() {
        return false;
    }
    for r in 0..g.num_rows() {
        for &c in g.row(r as VertexId) {
            if g.row(c).binary_search(&(r as VertexId)).is_err() {
                return false;
            }
        }
    }
    true
}

/// `Csr::symmetrized_with_self_loops`'s earlier body.
fn symmetrized_by_sort(g: &Csr) -> Csr {
    let n = g.num_rows();
    let mut edges = Vec::with_capacity(g.nnz() * 2 + n);
    for r in 0..n {
        for &c in g.row(r as VertexId) {
            edges.push((r as VertexId, c));
            edges.push((c, r as VertexId));
        }
        edges.push((r as VertexId, r as VertexId));
    }
    Csr::from_edges(n, n, &edges)
}

/// `DeltaCsr::merge`'s earlier body.
fn merge_by_sort(d: &DeltaCsr) -> Csr {
    let mut edges = Vec::with_capacity(d.nnz());
    for r in 0..d.num_rows() as VertexId {
        for c in d.row_merged(r) {
            edges.push((r, c));
        }
    }
    Csr::from_edges(d.num_rows(), d.num_cols(), &edges)
}

/// Every primitive that takes any graph, against its reference.
fn check_primitives(g: &Csr) {
    let coo = g.to_coo();
    assert_eq!(coo, to_coo_by_sort(g));
    assert_eq!(g.transpose(), csr_transpose_by_sort(g));
    assert_eq!(coo.transpose_permutation(), transpose_permutation_by_search(&coo));
    assert_eq!(g.is_symmetric(), is_symmetric_by_search(g));
}

/// A `rows × cols` edge list with both sizes drawn separately, so
/// non-square graphs occur; small sizes make empty rows and repeated
/// edges common.
fn arb_rect(
    max_n: usize,
    max_e: usize,
) -> impl Strategy<Value = (usize, usize, Vec<(VertexId, VertexId)>)> {
    (1usize..max_n, 1usize..max_n).prop_flat_map(move |(n, m)| {
        let edge = (0..n as VertexId, 0..m as VertexId);
        prop::collection::vec(edge, 0..max_e).prop_map(move |es| (n, m, es))
    })
}

/// A square edge list in which some edges also come reversed and some
/// sources carry a self-loop, so both directions of an edge and existing
/// loops occur next to one-way edges and isolated vertices.
fn arb_square(
    max_n: usize,
    max_e: usize,
) -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (1usize..max_n).prop_flat_map(move |n| {
        let edge = (0..n as VertexId, 0..n as VertexId, 0u8..4);
        prop::collection::vec(edge, 0..max_e).prop_map(move |es| {
            let mut edges = Vec::with_capacity(2 * es.len());
            for (u, v, kind) in es {
                edges.push((u, v));
                match kind {
                    1 => edges.push((v, u)),
                    2 => edges.push((u, u)),
                    _ => {}
                }
            }
            (n, edges)
        })
    })
}

proptest! {
    #[test]
    fn rectangular_primitives_match_their_references((n, m, edges) in arb_rect(40, 200)) {
        check_primitives(&Csr::from_edges(n, m, &edges));
    }

    #[test]
    fn square_primitives_match_their_references((n, edges) in arb_square(40, 160)) {
        let g = Csr::from_edges(n, n, &edges);
        let reversed = edges.iter().map(|&(u, v)| (v, u));
        let mirrored = Csr::from_edges(n, n, &edges.iter().copied().chain(reversed).collect::<Vec<_>>());
        prop_assert!(mirrored.is_symmetric());
        let sym = g.symmetrized_with_self_loops();
        prop_assert_eq!(&sym, &symmetrized_by_sort(&g));
        for h in [&g, &mirrored, &sym] {
            check_primitives(h);
        }
    }

    #[test]
    fn delta_merge_matches_its_reference_and_a_rebuild((n, edges) in arb_square(40, 160)) {
        // The first half is the base graph, the second half streams in.
        let (base, streamed) = edges.split_at(edges.len() / 2);
        let mut d = DeltaCsr::new(Csr::from_edges(n, n, base));
        let mut all = base.to_vec();
        for &(u, v) in streamed {
            d.insert_undirected(u, v);
            all.extend([(u, v), (v, u)]);
        }
        let merged = d.merge();
        prop_assert_eq!(&merged, &merge_by_sort(&d));
        prop_assert_eq!(&merged, &Csr::from_edges(n, n, &all));
    }
}

#[test]
fn primitives_match_their_references_without_vertices_or_edges() {
    for (n, m) in [(0, 0), (0, 3), (3, 0), (4, 4)] {
        let g = Csr::from_edges(n, m, &[]);
        check_primitives(&g);
        if n == m {
            assert_eq!(g.symmetrized_with_self_loops(), symmetrized_by_sort(&g));
            assert_eq!(DeltaCsr::new(g.clone()).merge(), g);
        }
    }
}

/// One shard's halo, halo sources and wire rows.
type ShardHalo = (Vec<VertexId>, Vec<(usize, usize)>, Vec<(VertexId, usize)>);

/// `partition`'s earlier halo and wire-row body, on the plan's own row
/// ranges: each shard's out-of-range columns sorted and deduplicated, its
/// sources counted by owner, and each 1.5D group's out-of-group union
/// sorted and deduplicated, every row binary-searched in each member's
/// halo and given to the least-loaded member holding it (ties to the
/// lowest).
fn halos_by_sort(csr: &Csr, plan: &ShardPlan) -> Vec<ShardHalo> {
    let (off, cols) = (csr.offsets(), csr.cols());
    let ranges: Vec<(usize, usize)> = plan.shards.iter().map(|s| s.row_range).collect();
    let mut out: Vec<ShardHalo> = ranges
        .iter()
        .map(|&(r0, r1)| {
            let mut halo: Vec<VertexId> = cols[off[r0]..off[r1]]
                .iter()
                .copied()
                .filter(|&c| (c as usize) < r0 || (c as usize) >= r1)
                .collect();
            halo.sort_unstable();
            halo.dedup();
            let sources = ranges
                .iter()
                .enumerate()
                .filter_map(|(src, &(s0, s1))| {
                    let rows = halo.iter().filter(|&&c| (s0..s1).contains(&(c as usize))).count();
                    (rows > 0).then_some((src, rows))
                })
                .collect();
            (halo, sources, Vec::new())
        })
        .collect();
    let c = plan.replication;
    if c == 1 {
        for o in &mut out {
            o.2 = o.0.iter().map(|&v| (v, plan.owner_of(v as usize))).collect();
        }
        return out;
    }
    for g0 in (0..out.len()).step_by(c) {
        let (gr0, gr1) = (ranges[g0].0, ranges[g0 + c - 1].1);
        let mut union: Vec<VertexId> = out[g0..g0 + c]
            .iter()
            .flat_map(|o| o.0.iter().copied())
            .filter(|&v| (v as usize) < gr0 || (v as usize) >= gr1)
            .collect();
        union.sort_unstable();
        union.dedup();
        let mut load = vec![0usize; c];
        for &v in &union {
            let mut best: Option<usize> = None;
            for j in 0..c {
                if out[g0 + j].0.binary_search(&v).is_ok() && best.is_none_or(|b| load[j] < load[b])
                {
                    best = Some(j);
                }
            }
            let j = best.expect("every union row is in some member's halo");
            load[j] += 1;
            out[g0 + j].2.push((v, plan.owner_of(v as usize)));
        }
    }
    out
}

/// `partition` against [`halos_by_sort`], shard by shard.
fn check_partition(csr: &Csr, shards: usize, strategy: PartitionStrategy) {
    let plan = partition(csr, shards, strategy);
    let want = halos_by_sort(csr, &plan);
    for (s, (shard, (halo, sources, wire))) in plan.shards.iter().zip(&want).enumerate() {
        let what = format!("shard {s} of {shards}, {strategy:?}");
        assert_eq!(&shard.halo, halo, "halo of {what}");
        assert_eq!(&shard.halo_sources, sources, "halo sources of {what}");
        assert_eq!(&shard.wire_rows, wire, "wire rows of {what}");
    }
}

/// A graph, a shard count of 1–6 and a strategy: Contiguous,
/// DegreeBalanced, or 1.5D with a replication factor that divides the
/// shard count. Small graphs with few edges make empty shards and isolated
/// rows common.
fn arb_partition(
) -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>, usize, PartitionStrategy)> {
    (1usize..40, 1usize..=6, 0usize..3, 0usize..6).prop_flat_map(|(n, shards, kind, pick)| {
        let divisors: Vec<usize> = (1..=shards).filter(|c| shards % c == 0).collect();
        let strategy = match kind {
            0 => PartitionStrategy::Contiguous,
            1 => PartitionStrategy::DegreeBalanced,
            _ => PartitionStrategy::OneP5D { c: divisors[pick % divisors.len()] },
        };
        let edge = (0..n as VertexId, 0..n as VertexId);
        prop::collection::vec(edge, 0..120).prop_map(move |es| (n, es, shards, strategy))
    })
}

proptest! {
    #[test]
    fn partition_matches_its_sorting_reference((n, edges, shards, strategy) in arb_partition()) {
        check_partition(&Csr::from_edges(n, n, &edges), shards, strategy);
        let sym = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
        check_partition(&sym, shards, strategy);
    }
}

#[test]
fn partition_matches_its_sorting_reference_on_empty_shards_and_isolated_rows() {
    // Three rows over six shards: three shards own nothing.
    let tiny = Csr::from_edges(3, 3, &[(0, 2), (2, 1)]);
    // A hub row that swallows several DegreeBalanced cuts, and isolated
    // rows 5–7.
    let mut hub: Vec<(VertexId, VertexId)> = (1..5).map(|v| (0, v)).collect();
    hub.extend([(1, 4), (4, 8), (8, 0)]);
    let hub = Csr::from_edges(9, 9, &hub);
    for g in [&tiny, &hub] {
        for (shards, c) in [(6, 3), (6, 2), (4, 4), (5, 1)] {
            check_partition(g, shards, PartitionStrategy::Contiguous);
            check_partition(g, shards, PartitionStrategy::DegreeBalanced);
            check_partition(g, shards, PartitionStrategy::OneP5D { c });
        }
    }
}
