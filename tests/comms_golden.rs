//! Golden-trace test for the interconnect cost model: every byte, message
//! and microsecond a small sharded run charges is pinned against numbers
//! worked out by hand from the model's definition (DESIGN.md §12).
//!
//! The fixture is a 6-vertex graph split over 2 shards:
//!
//! ```text
//! base edges   0–3, 2–4, 1–3, 2–5   (plus self loops after Â = A+Aᵀ+I)
//! shard 0      rows {0,1,2}; its edges reference columns {3,4,5}
//! shard 1      rows {3,4,5}; its edges reference columns {0,1,2}
//! ```
//!
//! So each shard needs exactly 3 remote feature rows from the other, and
//! with `f = 4` features one halo exchange per shard moves
//! `3 · 4 · elem_bytes` in a single message per direction:
//!
//! * half  (2 B/elem): 24 B/message, 48 B total, link time 1.75 + 24/25000 µs
//! * float (4 B/elem): 48 B/message, 96 B total, link time 1.75 + 48/25000 µs
//!
//! With N = 2 both topologies route every pair in one hop, so ring and
//! crossbar halo traces are identical — the all-reduce schedules differ
//! only in step structure and (at N = 2) also land on the same per-link
//! totals: a 100-element f32 gradient (400 B payload, 200 B chunks) puts
//! 2 × 200 B on each directed link; the f16 wire halves that.

use halfgnn::graph::partition::PartitionStrategy;
use halfgnn::graph::Csr;
use halfgnn::half::slice::f32_slice_to_half;
use halfgnn::nn::dist::DistCtx;
use halfgnn::sim::interconnect::Topology;
use halfgnn::sim::DeviceConfig;
use halfgnn::tensor::Ops;

const F: usize = 4;
const TOPOLOGIES: [Topology; 2] = [Topology::Ring, Topology::AllToAll];

fn fixture(topology: Topology) -> DistCtx {
    let csr =
        Csr::from_edges(6, 6, &[(0, 3), (2, 4), (3, 1), (5, 2)]).symmetrized_with_self_loops();
    DistCtx::new(&csr, 2, PartitionStrategy::Contiguous, topology)
}

/// The premise of every hand computation below: the partition is rows
/// {0,1,2} | {3,4,5} and each shard's halo is exactly the other's rows.
#[test]
fn fixture_partitions_as_documented() {
    let ctx = fixture(Topology::Ring);
    assert_eq!(ctx.plan.shards[0].row_range, (0, 3));
    assert_eq!(ctx.plan.shards[1].row_range, (3, 6));
    assert_eq!(ctx.plan.shards[0].halo, vec![3, 4, 5]);
    assert_eq!(ctx.plan.shards[1].halo, vec![0, 1, 2]);
    assert_eq!(ctx.plan.halo_sources(0), vec![(1, 3)]);
    assert_eq!(ctx.plan.halo_sources(1), vec![(0, 3)]);
}

/// One halo exchange per shard, both dtypes, both topologies: 24 B (half)
/// or 48 B (float) per directed link, one message each, and the busiest
/// link's time is latency + serialization exactly.
#[test]
fn halo_trace_matches_hand_computed_bytes_messages_and_time() {
    let dev = DeviceConfig::a100_like();
    let xf: Vec<f32> = (0..6 * F).map(|i| i as f32 * 0.125).collect();
    let xh = f32_slice_to_half(&xf);

    for topology in TOPOLOGIES {
        for (elem_bytes, msg_bytes) in [(2u64, 24u64), (4, 48)] {
            let ctx = fixture(topology);
            let mut ops = Ops::new(&dev);
            for shard in &ctx.plan.shards {
                if elem_bytes == 2 {
                    ctx.exchange_halo(&mut ops, &xh, F, shard);
                } else {
                    ctx.exchange_halo(&mut ops, &xf, F, shard);
                }
            }
            let ledger = ctx.snapshot();
            assert_eq!(ledger.halo_bytes, 2 * msg_bytes, "{topology:?}/{elem_bytes}B");
            assert_eq!(ledger.allreduce_bytes, 0);
            assert_eq!(ledger.total_bytes(), 2 * msg_bytes);

            let links = ledger.link_stats();
            assert_eq!(links.len(), 2, "one directed link each way");
            for ((from, to), stat) in links {
                assert!((from, to) == (0, 1) || (from, to) == (1, 0));
                assert_eq!(stat.bytes, msg_bytes);
                assert_eq!(stat.messages, 1);
                let want_us = 1.75 + msg_bytes as f64 / 25_000.0;
                assert!(
                    (stat.time_us - want_us).abs() < 1e-9,
                    "{topology:?}/{elem_bytes}B link time {} != {want_us}",
                    stat.time_us
                );
            }
            assert!((ledger.total_time_us() - (1.75 + msg_bytes as f64 / 25_000.0)).abs() < 1e-9);
        }
    }
}

/// A 100-element f32 gradient all-reduce: payload 400 B, 200 B chunks.
/// Ring at N = 2: 2(N−1) = 2 steps × both links × 200 B. Crossbar: 2
/// ordered pairs × 2 phases × 200 B. Identical per-link totals — 400 B in
/// 2 messages — and 800 B charged in class total (chunks are counted per
/// send, which is the wire truth at N = 2: reduce-scatter + all-gather
/// each move the full payload once).
#[test]
fn f32_allreduce_trace_matches_the_closed_form() {
    for topology in TOPOLOGIES {
        let ctx = fixture(topology);
        ctx.charge_allreduce_f32(100);
        let ledger = ctx.snapshot();
        assert_eq!(ledger.allreduce_bytes, 800, "{topology:?}");
        assert_eq!(ledger.halo_bytes, 0);
        assert_eq!(ledger.total_bytes(), 800);
        for ((from, to), stat) in ledger.link_stats() {
            assert!((from, to) == (0, 1) || (from, to) == (1, 0), "{topology:?}");
            assert_eq!(stat.bytes, 400);
            assert_eq!(stat.messages, 2);
            let want_us = 2.0 * (1.75 + 200.0 / 25_000.0);
            assert!((stat.time_us - want_us).abs() < 1e-9, "{topology:?}");
        }
    }
}

/// The 1.5D wire charge on the same fixture, worked by hand. At c = 2 the
/// two shards form one replication group, every halo row is in-group, and
/// the halo exchange charges **zero** bytes — the fully-replicated
/// degenerate corner of the 1.5D family. At c = 1 the group structure is
/// trivial and the charge is exactly the 1D trace (24 B per directed link
/// in half). Kernels and halos are untouched either way.
#[test]
fn one5d_halo_charges_match_the_hand_computed_group_union() {
    let dev = DeviceConfig::a100_like();
    let xf: Vec<f32> = (0..6 * F).map(|i| i as f32 * 0.125).collect();
    let xh = f32_slice_to_half(&xf);
    let csr =
        Csr::from_edges(6, 6, &[(0, 3), (2, 4), (3, 1), (5, 2)]).symmetrized_with_self_loops();

    for (c, want_bytes) in [(1usize, 48u64), (2, 0)] {
        let ctx = DistCtx::new(&csr, 2, PartitionStrategy::OneP5D { c }, Topology::Ring);
        // Same halos as the 1D fixture — replication moves charges, not
        // data dependencies.
        assert_eq!(ctx.plan.shards[0].halo, vec![3, 4, 5]);
        assert_eq!(ctx.plan.shards[1].halo, vec![0, 1, 2]);
        let mut ops = Ops::new(&dev);
        for shard in &ctx.plan.shards {
            ctx.exchange_halo(&mut ops, &xh, F, shard);
        }
        let ledger = ctx.snapshot();
        assert_eq!(ledger.halo_bytes, want_bytes, "c={c}");
        if c == 2 {
            assert!(ledger.link_stats().is_empty(), "no wire messages at c=2");
            // Every halo row is in-group: nothing to cache either.
            let s = ctx.halo_cache_stats();
            assert_eq!((s.hits, s.misses), (0, 0));
        }
    }
}

/// The same gradient on the f16 wire: 2 B/element halves every number in
/// the f32 trace (200 B payload, 100 B chunks, 400 B class total) — and
/// the reduced values still come back correct through the discretized
/// bucket scaling.
#[test]
fn f16_wire_allreduce_halves_the_f32_trace() {
    let dev = DeviceConfig::a100_like();
    for topology in TOPOLOGIES {
        let ctx = fixture(topology);
        let mut ops = Ops::new(&dev);
        let partials = vec![vec![1.0f32; 100], vec![2.0f32; 100]];
        let reduced = ctx.allreduce_f32_on_f16_wire(&mut ops, &partials);
        for v in &reduced {
            assert!((v - 3.0).abs() < 0.01, "{topology:?}: {v}");
        }
        let ledger = ctx.snapshot();
        assert_eq!(ledger.allreduce_bytes, 400, "{topology:?}");
        assert_eq!(ledger.total_bytes(), 400);
        for (_, stat) in ledger.link_stats() {
            assert_eq!(stat.bytes, 200);
            assert_eq!(stat.messages, 2);
        }
    }
}
