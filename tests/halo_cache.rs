//! Cross-epoch halo-cache coherence: the cache is a *charging*
//! optimization — the gather kernel always runs, so values are always
//! fresh — and these properties pin the ledger side of that contract:
//!
//! * a warm epoch over unchanged features charges zero halo bytes and
//!   serves every wire row bitwise what a cold exchange would fetch;
//! * after a [`DeltaCsr`] insert plus in-ball invalidation, exactly the
//!   stale wire rows are refetched and recharged, and every row the
//!   cache still serves remains bitwise-fresh;
//! * a feature write that changes bytes is detected even without an
//!   explicit invalidation (write tracking), so the cache can never
//!   claim a saved fetch for data that actually moved.

use halfgnn::graph::partition::PartitionStrategy;
use halfgnn::graph::{Csr, DeltaCsr, VertexId};
use halfgnn::half::slice::f32_slice_to_half;
use halfgnn::half::Half;
use halfgnn::nn::dist::DistCtx;
use halfgnn::sim::interconnect::Topology;
use halfgnn::sim::DeviceConfig;
use halfgnn::tensor::Ops;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Arbitrary symmetrized graph + half2-padded feature width + features +
/// edges to stream in later (the invalidation trigger).
#[allow(clippy::type_complexity)]
fn arb_case() -> impl Strategy<Value = (Csr, usize, Vec<f32>, Vec<(VertexId, VertexId)>)> {
    (4usize..24, 1usize..4)
        .prop_flat_map(|(n, fhalf)| {
            let f = 2 * fhalf;
            let edge = (0..n as VertexId, 0..n as VertexId);
            (
                Just(n),
                Just(f),
                prop::collection::vec(edge.clone(), 1..64),
                prop::collection::vec(-1.0f32..1.0, n * f),
                prop::collection::vec(edge, 1..4),
            )
        })
        .prop_map(|(n, f, edges, feats, inserts)| {
            let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
            (csr, f, feats, inserts)
        })
}

/// One full epoch of halo exchanges (every shard, one layer) over `x`.
fn exchange_epoch(ops: &mut Ops, ctx: &DistCtx, x: &[Half], f: usize) {
    for sh in &ctx.plan.shards {
        ctx.exchange_halo(ops, x, f, sh);
    }
}

/// The wire-row payload a cold fetch of global row `v` would carry.
fn fresh_bytes(x: &[Half], v: VertexId, f: usize) -> Vec<u8> {
    x[(v as usize) * f..(v as usize + 1) * f]
        .iter()
        .flat_map(|h| h.to_bits().to_le_bytes())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline coherence property, under both 1D and 1.5D charging:
    /// warm epochs are free, `DeltaCsr` inserts invalidate exactly the
    /// touched in-ball, changed rows are always refetched, and every row
    /// the cache serves is bitwise what a cold exchange would fetch.
    #[test]
    fn halo_cache_is_coherent_under_delta_csr_inserts(
        (csr, f, feats, inserts) in arb_case()
    ) {
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        let xh = f32_slice_to_half(&feats);

        for (shards, strategy) in [
            (2, PartitionStrategy::DegreeBalanced),
            (4, PartitionStrategy::DegreeBalanced),
            (4, PartitionStrategy::OneP5D { c: 2 }),
        ] {
            let ctx = DistCtx::new(&csr, shards, strategy, Topology::Ring);
            let wire_rows: Vec<(usize, VertexId)> = (0..shards)
                .flat_map(|s| ctx.plan.wire_rows(s).iter().map(move |&(v, _)| (s, v)))
                .collect();

            // Epoch 0: cold — every wire row is a miss.
            exchange_epoch(&mut ops, &ctx, &xh, f);
            let cold = ctx.snapshot().halo_bytes;
            let s0 = ctx.halo_cache_stats();
            prop_assert_eq!(s0.hits, 0);
            prop_assert_eq!(s0.misses, wire_rows.len() as u64);
            prop_assert_eq!(cold, wire_rows.len() as u64 * (f as u64) * 2);

            // Epoch 1: warm over static features — all hits, zero bytes,
            // and every served payload is bitwise the cold fetch.
            ctx.reset_epoch();
            exchange_epoch(&mut ops, &ctx, &xh, f);
            let s1 = ctx.halo_cache_stats();
            prop_assert_eq!(ctx.snapshot().halo_bytes, 0);
            prop_assert_eq!(s1.hits, s0.misses);
            prop_assert_eq!(s1.misses, 0);
            prop_assert_eq!(s1.bytes_saved, cold);
            for &(s, v) in &wire_rows {
                let got = ctx.cached_wire_row(s, 0, 2, v);
                prop_assert_eq!(got, Some(fresh_bytes(&xh, v, f)), "shard {} row {}", s, v);
            }

            // Stream edges through a DeltaCsr and invalidate the 2-hop
            // in-ball of the endpoints — the rows whose activations can
            // read the new edges. Their features are then rewritten (the
            // recompute a real system would do after a topology change).
            let mut delta = DeltaCsr::new(csr.clone());
            let mut endpoints: Vec<VertexId> = Vec::new();
            for &(u, v) in &inserts {
                delta.insert_undirected(u, v);
                endpoints.push(u);
                endpoints.push(v);
            }
            ctx.invalidate_in_ball(&delta, &endpoints, 2);
            let ball: BTreeSet<VertexId> =
                halfgnn::graph::khop_ball(&delta, &endpoints, 2).into_iter().collect();
            let mut x2 = xh.clone();
            for &v in &ball {
                for e in &mut x2[(v as usize) * f..(v as usize + 1) * f] {
                    *e = Half::from_f32(e.to_f32() + 0.25);
                }
            }

            // Epoch 2: exactly the stale wire rows (in-ball ∩ wire set)
            // miss and are recharged; everything else still hits.
            ctx.reset_epoch();
            exchange_epoch(&mut ops, &ctx, &x2, f);
            let s2 = ctx.halo_cache_stats();
            let stale: Vec<&(usize, VertexId)> =
                wire_rows.iter().filter(|&&(_, v)| ball.contains(&v)).collect();
            prop_assert_eq!(s2.misses, stale.len() as u64, "{:?} shards={}", strategy, shards);
            prop_assert_eq!(s2.hits, (wire_rows.len() - stale.len()) as u64);
            prop_assert_eq!(
                ctx.snapshot().halo_bytes,
                stale.len() as u64 * (f as u64) * 2,
                "only changed rows pay wire bytes"
            );
            // Post-exchange, the cache holds fresh bytes for every wire
            // row again — served rows can never lag a topology change.
            for &(s, v) in &wire_rows {
                let got = ctx.cached_wire_row(s, 0, 2, v);
                prop_assert_eq!(got, Some(fresh_bytes(&x2, v, f)), "shard {} row {}", s, v);
            }
        }
    }

    /// Write tracking without explicit invalidation: mutating a source row
    /// changes its wire bytes, and the byte-equality half of the hit rule
    /// forces a refetch — the cache can never claim `bytes_saved` for data
    /// that moved, even if nobody called `invalidate_halo_rows`.
    #[test]
    fn changed_bytes_are_refetched_even_without_invalidation(
        (csr, f, feats, _) in arb_case(),
        bump in 0.125f32..2.0
    ) {
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        let xh = f32_slice_to_half(&feats);
        let ctx = DistCtx::new(&csr, 2, PartitionStrategy::DegreeBalanced, Topology::Ring);
        let total: usize = (0..2).map(|s| ctx.plan.wire_rows(s).len()).sum();

        exchange_epoch(&mut ops, &ctx, &xh, f);

        // Rewrite every feature row so every wire payload's bits change.
        let x2: Vec<Half> = xh.iter().map(|h| Half::from_f32(h.to_f32() + bump)).collect();
        ctx.reset_epoch();
        exchange_epoch(&mut ops, &ctx, &x2, f);
        let s = ctx.halo_cache_stats();
        prop_assert_eq!(s.hits, 0, "no stale row may be served");
        prop_assert_eq!(s.misses, total as u64);
        prop_assert_eq!(ctx.snapshot().halo_bytes, total as u64 * (f as u64) * 2);
    }
}

/// Hops = 0 invalidates just the named rows — the right call when feature
/// rows themselves are overwritten with no topology change.
#[test]
fn zero_hop_invalidation_touches_only_the_named_rows() {
    let dev = DeviceConfig::a100_like();
    let mut ops = Ops::new(&dev);
    let n = 12;
    let edges: Vec<(VertexId, VertexId)> = (0..n as VertexId - 1).map(|v| (v, v + 1)).collect();
    let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
    let f = 4;
    let xh: Vec<Half> = (0..n * f).map(|i| Half::from_f32((i % 7) as f32 * 0.1)).collect();
    let ctx = DistCtx::new(&csr, 4, PartitionStrategy::Contiguous, Topology::Ring);

    exchange_epoch(&mut ops, &ctx, &xh, f);
    let cold_misses = ctx.halo_cache_stats().misses;
    assert!(cold_misses > 0, "a path graph sharded 4 ways has halo rows");

    // Invalidate one wire row by name; its bytes do not even change.
    let &(victim, _) = &ctx.plan.wire_rows(0)[0];
    ctx.invalidate_in_ball(&csr, &[victim], 0);
    ctx.reset_epoch();
    exchange_epoch(&mut ops, &ctx, &xh, f);
    let s = ctx.halo_cache_stats();

    // The victim appears once per shard that pays for it (here: one).
    let victim_slots: u64 = (0..4)
        .map(|sh| ctx.plan.wire_rows(sh).iter().filter(|&&(v, _)| v == victim).count() as u64)
        .sum();
    assert_eq!(s.misses, victim_slots, "only the invalidated row refetches");
    assert_eq!(s.hits, cold_misses - victim_slots);
}
