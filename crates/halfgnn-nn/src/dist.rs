//! Sharded-training context: the partition plan, the interconnect cost
//! model, the comms ledger, the cross-epoch halo cache, and the
//! comm/compute overlap timeline, bundled so the dispatch layer can run
//! and cost every halo exchange and gradient all-reduce of a step.
//!
//! The execution model is 1D/1.5D vertex sharding (DESIGN.md §12, §16):
//! every device owns a contiguous global row range and runs the *global*
//! kernel tiling clamped to its window, so sharded outputs are bitwise
//! slices of the single-device run. Communication is therefore the only
//! thing that changes with the shard count — and it is exactly what this
//! context meters: per-layer halo feature exchanges (2 bytes/element in
//! half modes, 4 in float — the FP16 comms win) and per-step gradient
//! all-reduces (f16 wire with discretized per-bucket scaling in half
//! modes, f32 wire in float).
//!
//! Three cost layers sit on top of the functional exchange:
//!
//! * **Wire-charge assignment** ([`ShardPlan::wire_rows`]): under 1D each
//!   shard pays for its own halo; under 1.5D a replication group pays for
//!   its out-of-group halo union once.
//! * **Cross-epoch halo cache**: a wire row whose source did not change
//!   since the last fetch (input features are static across epochs) is
//!   served from the local copy and charged zero bytes. Slots are keyed
//!   `(shard, exchange-seq-within-epoch, elem_bytes)` — valid because the
//!   epoch kernel sequence is value-independent. [`DeltaCsr`] inserts
//!   invalidate the touched in-ball via [`DistCtx::invalidate_in_ball`]
//!   (PR8's `reach` machinery). The gather kernel *always* runs — values
//!   are recomputed every exchange, so replay sequences are unchanged and
//!   served rows are bitwise-fresh by construction; the cache affects
//!   only the ledger.
//! * **Overlap timeline** ([`OverlapTimeline`]): every exchange, compute
//!   window and all-reduce is logged per device, yielding the epoch's
//!   `serialized_us` vs `overlapped_us` (double-buffered halo prefetch).
//!
//! [`DeltaCsr`]: halfgnn_graph::DeltaCsr

use halfgnn_exec::buf_ref;
use halfgnn_graph::partition::{partition, PartitionStrategy, Shard, ShardPlan};
use halfgnn_graph::reach::khop_ball;
use halfgnn_graph::sample::NeighborAccess;
use halfgnn_graph::{Csr, VertexId};
use halfgnn_half::{Half, Scalar};
use halfgnn_kernels::dist as dist_kernels;
use halfgnn_sim::interconnect::{
    CommEvent, CommsLedger, Interconnect, OverlapTimeline, Topology, TrafficClass,
};
use halfgnn_tensor::Ops;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Gradient all-reduce bucket size (elements sharing one discretized
/// exponent on the f16 wire). 64 matches the kernel tests and keeps the
/// shared exponent local enough that small gradients aren't crushed by a
/// distant hub gradient in the same bucket.
pub const ALLREDUCE_BUCKET: usize = 64;

/// Halo-cache counters for one epoch (reset by [`DistCtx::reset_epoch`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HaloCacheStats {
    /// Wire rows served locally (zero bytes charged).
    pub hits: u64,
    /// Wire rows fetched over the interconnect.
    pub misses: u64,
    /// Bytes the hits kept off the wire.
    pub bytes_saved: u64,
}

/// One cached exchange: per-wire-row source versions and the payload
/// bytes as of the last fetch. Aligned index-for-index with the shard's
/// [`ShardPlan::wire_rows`].
struct CacheSlot {
    /// `u64::MAX` marks a never-fetched row.
    versions: Vec<u64>,
    /// `wire_rows.len() · f · elem_bytes` payload bytes.
    payload: Vec<u8>,
}

/// Cross-epoch halo cache state: source-row change stamps plus the
/// per-(shard, seq, dtype) slots.
#[derive(Default)]
struct HaloCache {
    /// Change stamp per global row; a cached copy is valid while its
    /// recorded stamp matches.
    row_version: Vec<u64>,
    version_counter: u64,
    slots: BTreeMap<(usize, usize, usize), CacheSlot>,
    stats: HaloCacheStats,
}

/// Everything the dispatch layer needs to run and cost one step of
/// sharded training.
pub struct DistCtx {
    /// The 1D/1.5D vertex partition.
    pub plan: ShardPlan,
    /// Link latency/bandwidth + topology.
    pub interconnect: Interconnect,
    /// Accumulated comms charges (reset per epoch by the trainer).
    pub ledger: RefCell<CommsLedger>,
    cache: RefCell<HaloCache>,
    timeline: RefCell<OverlapTimeline>,
    /// Per-shard exchange sequence number within the epoch (cache slot
    /// key; the epoch kernel sequence is value-independent).
    seq: RefCell<Vec<usize>>,
    /// INT8 all-reduce bucket: elements sharing one joint exponent on
    /// the INT8 gradient wire (`--i8-block`).
    i8_bucket: usize,
}

impl DistCtx {
    /// Partition `csr` over `shards` simulated devices.
    pub fn new(
        csr: &Csr,
        shards: usize,
        strategy: PartitionStrategy,
        topology: Topology,
    ) -> DistCtx {
        let plan = partition(csr, shards, strategy);
        let cache = HaloCache {
            row_version: vec![0; csr.num_rows()],
            version_counter: 0,
            slots: BTreeMap::new(),
            stats: HaloCacheStats::default(),
        };
        DistCtx {
            plan,
            interconnect: Interconnect::nvlink_like(shards, topology),
            ledger: RefCell::new(CommsLedger::new()),
            cache: RefCell::new(cache),
            timeline: RefCell::new(OverlapTimeline::new(shards)),
            seq: RefCell::new(vec![0; shards]),
            i8_bucket: ALLREDUCE_BUCKET,
        }
    }

    /// Override the INT8 all-reduce bucket size (`--i8-block`). The f16
    /// wire keeps [`ALLREDUCE_BUCKET`] — the knob exists for the INT8
    /// wire, where the joint-exponent width is the accuracy/overhead
    /// trade the paper's discretization sweep studies.
    pub fn with_i8_bucket(mut self, bucket: usize) -> DistCtx {
        self.i8_bucket = bucket;
        self
    }

    /// Number of simulated devices.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// Drop the ledger's charges, the epoch's timeline and cache counters,
    /// and rewind the exchange sequence (per-epoch reuse). Cache
    /// *contents* survive — that is the cross-epoch win.
    pub fn reset_epoch(&self) {
        self.ledger.borrow_mut().reset();
        self.timeline.borrow_mut().reset();
        self.cache.borrow_mut().stats = HaloCacheStats::default();
        self.seq.borrow_mut().iter_mut().for_each(|s| *s = 0);
    }

    /// Snapshot of the accumulated comms charges.
    pub fn snapshot(&self) -> CommsLedger {
        self.ledger.borrow().clone()
    }

    /// Snapshot of the epoch's per-device comm/compute event streams.
    pub fn timeline(&self) -> OverlapTimeline {
        self.timeline.borrow().clone()
    }

    /// The epoch's halo-cache counters so far.
    pub fn halo_cache_stats(&self) -> HaloCacheStats {
        self.cache.borrow().stats
    }

    /// Log `time_us` of kernel compute on `shard`'s device — the window
    /// the next halo prefetch can hide under.
    pub fn log_compute(&self, shard: usize, time_us: f64) {
        self.timeline.borrow_mut().log(shard, CommEvent::Compute(time_us));
    }

    /// Mark `rows` as changed: every cached copy of them is stale and
    /// will be refetched (and recharged) on its next exchange.
    pub fn invalidate_halo_rows(&self, rows: &[VertexId]) {
        let mut cache = self.cache.borrow_mut();
        cache.version_counter += 1;
        let stamp = cache.version_counter;
        for &v in rows {
            cache.row_version[v as usize] = stamp;
        }
    }

    /// Invalidate the in-ball of an edge mutation: after inserting
    /// `(u, v)` through a [`halfgnn_graph::DeltaCsr`], the stale halo rows
    /// are exactly the vertices within `hops` of either endpoint (their
    /// layer-`hops` activations read the new edge). `hops = 0` invalidates
    /// just the endpoints — the right call for static input features
    /// whose rows themselves were overwritten.
    pub fn invalidate_in_ball<G: NeighborAccess>(
        &self,
        g: &G,
        endpoints: &[VertexId],
        hops: usize,
    ) {
        let ball = khop_ball(g, endpoints, hops);
        self.invalidate_halo_rows(&ball);
    }

    /// A currently-valid cached wire row's payload bytes, if any: slot
    /// `(shard, seq, elem_bytes)`, global row `row`. Test hook for the
    /// coherence property — a served row must be bitwise what a cold
    /// exchange would fetch.
    pub fn cached_wire_row(
        &self,
        shard: usize,
        seq: usize,
        elem_bytes: usize,
        row: VertexId,
    ) -> Option<Vec<u8>> {
        let cache = self.cache.borrow();
        let slot = cache.slots.get(&(shard, seq, elem_bytes))?;
        let rows = self.plan.wire_rows(shard);
        let i = rows.binary_search_by_key(&row, |&(v, _)| v).ok()?;
        if slot.versions[i] != cache.row_version[row as usize] {
            return None;
        }
        let row_bytes = slot.payload.len() / rows.len();
        Some(slot.payload[i * row_bytes..(i + 1) * row_bytes].to_vec())
    }

    /// Charge `shard`'s halo exchange against the wire-charge assignment:
    /// each still-valid cached row is served locally for zero bytes; the
    /// misses are fetched from their owners (one message per owner) and
    /// their fresh payload cached. Logs the exchange's receive time as a
    /// `Halo` event on the shard's device.
    fn charge_halo(&self, shard: &Shard, wire_bytes: &[u8], f: usize, elem_bytes: usize) {
        let seq = {
            let mut seqs = self.seq.borrow_mut();
            let s = seqs[shard.index];
            seqs[shard.index] += 1;
            s
        };
        let rows = self.plan.wire_rows(shard.index);
        let row_bytes = f * elem_bytes;
        let mut per_owner: BTreeMap<usize, u64> = BTreeMap::new();
        {
            let cache = &mut *self.cache.borrow_mut();
            let slot =
                cache.slots.entry((shard.index, seq, elem_bytes)).or_insert_with(|| CacheSlot {
                    versions: vec![u64::MAX; rows.len()],
                    payload: vec![0; rows.len() * row_bytes],
                });
            for (i, &(v, owner)) in rows.iter().enumerate() {
                let current = cache.row_version[v as usize];
                // The wire buffer covers the shard's full halo in sorted
                // order; this row's fresh bytes live at its halo index.
                let h =
                    shard.halo.binary_search(&v).expect("every wire row is in the shard's halo");
                let fresh = &wire_bytes[h * row_bytes..(h + 1) * row_bytes];
                let cached = &slot.payload[i * row_bytes..(i + 1) * row_bytes];
                // A hit needs an un-invalidated stamp AND unchanged bytes:
                // the source device tracks writes to its feature rows
                // (activation/gradient exchanges change every epoch), and
                // byte equality is the simulation's proxy for that dirty
                // bit. Served rows are therefore bitwise a cold fetch.
                if slot.versions[i] == current && cached == fresh {
                    cache.stats.hits += 1;
                    cache.stats.bytes_saved += row_bytes as u64;
                } else {
                    cache.stats.misses += 1;
                    *per_owner.entry(owner).or_default() += row_bytes as u64;
                    slot.versions[i] = current;
                    slot.payload[i * row_bytes..(i + 1) * row_bytes].copy_from_slice(fresh);
                }
            }
        }
        let mut ledger = self.ledger.borrow_mut();
        let mut event_us = 0.0;
        for (&src, &bytes) in &per_owner {
            ledger.message(&self.interconnect, TrafficClass::Halo, src, shard.index, bytes);
            event_us += self.interconnect.link_time_us(bytes);
        }
        self.timeline.borrow_mut().log(shard.index, CommEvent::Halo(event_us));
    }

    /// Run `shard`'s halo gather (pack the remote rows it needs into the
    /// wire buffer) and charge the exchange: 2 bytes per element on the
    /// f16 wire, twice that on the float pipeline's f32 wire. Returns the
    /// wire buffer. The gather always runs — replay records an identical
    /// kernel sequence whatever the cache state.
    pub fn exchange_halo<T: Scalar>(
        &self,
        ops: &mut Ops,
        x: &[T],
        f: usize,
        shard: &Shard,
    ) -> Vec<T> {
        let (wire, stats) = dist_kernels::halo_gather(ops.dev, x, f, &shard.halo);
        ops.record(stats);
        if let Some(ctx) = ops.exec {
            let op = T::pick("halo_gather_half", "halo_gather_f32");
            ctx.record_node(op, &[buf_ref(x)], &[buf_ref(&wire)], None);
        }
        let mut bytes = Vec::with_capacity(wire.len() * T::BYTES);
        for v in &wire {
            bytes.extend_from_slice(&v.bits().to_le_bytes()[..T::BYTES]);
        }
        self.charge_halo(shard, &bytes, f, T::BYTES);
        wire
    }

    /// [`Self::exchange_halo`] for the INT8 wire: the gather
    /// quantizes the packed remote rows into per-64-element scale-block
    /// INT8 codes on the sender (deterministic stochastic rounding keyed
    /// by `seed`), so the wire moves 1 byte/element — half the f16 path,
    /// a quarter of float. The codes feed the halo cache's byte
    /// comparison and the saturation record; the kernels read the
    /// sender's tensor, so no receiver-side buffer is built.
    pub fn exchange_halo_i8<T: Scalar>(
        &self,
        ops: &mut Ops,
        x: &[T],
        f: usize,
        shard: &Shard,
        seed: u64,
    ) {
        let (wire, stats) = dist_kernels::halo_gather_i8(ops.dev, x, f, &shard.halo, seed);
        ops.record(stats);
        if let Some(ctx) = ops.exec {
            ctx.record_node("halo_gather_i8", &[buf_ref(x)], &[buf_ref(&wire.q)], None);
        }
        let bytes: Vec<u8> = wire.q.iter().map(|&c| c as u8).collect();
        self.charge_halo(shard, &bytes, f, 1);
    }

    /// All-reduce per-shard half gradient partials over the f16 wire with
    /// discretized per-bucket scaling, charging the topology's all-reduce
    /// traffic. Returns the reduced gradient in half (the mode's gradient
    /// dtype); the power-of-two dequantization means no overflow events by
    /// construction, whatever the hub gradients look like.
    pub fn allreduce_grad_half(&self, ops: &mut Ops, partials: &[Vec<Half>]) -> Vec<Half> {
        let f32_partials: Vec<Vec<f32>> = partials.iter().map(|p| ops.to_f32(p)).collect();
        let reduced = self.allreduce_f32_on_f16_wire(ops, &f32_partials);
        ops.to_half(&reduced)
    }

    /// [`Self::allreduce_grad_half`] for f32-valued partials (bias
    /// gradients are accumulated in f32): the wire is still half — each
    /// shard's contribution is quantized to f16 under the bucket's shared
    /// discretized exponent — so the traffic charge is 2 bytes/element.
    pub fn allreduce_f32_on_f16_wire(&self, ops: &mut Ops, partials: &[Vec<f32>]) -> Vec<f32> {
        let (reduced, stats) =
            dist_kernels::allreduce_f16_discretized(ops.dev, partials, ALLREDUCE_BUCKET);
        ops.record(stats);
        let n = reduced.len();
        let t = self.ledger.borrow_mut().all_reduce(&self.interconnect, (n * 2) as u64);
        self.log_allreduce(t);
        reduced
    }

    /// [`Self::allreduce_grad_half`] on the INT8 wire: each shard's
    /// bucket contribution is stochastically rounded to INT8 codes under
    /// the bucket's joint exponent, the codes sum exactly in i32, and
    /// the wire moves 1 byte/element.
    pub fn allreduce_grad_i8(&self, ops: &mut Ops, partials: &[Vec<Half>], seed: u64) -> Vec<Half> {
        let f32_partials: Vec<Vec<f32>> = partials.iter().map(|p| ops.to_f32(p)).collect();
        let reduced = self.allreduce_f32_on_i8_wire(ops, &f32_partials, seed);
        ops.to_half(&reduced)
    }

    /// [`Self::allreduce_f32_on_f16_wire`] on the INT8 wire (1
    /// byte/element — half the f16 traffic, a quarter of f32). The joint
    /// per-bucket exponent covers every shard's contribution, so the
    /// integer wire sum cannot saturate by construction.
    pub fn allreduce_f32_on_i8_wire(
        &self,
        ops: &mut Ops,
        partials: &[Vec<f32>],
        seed: u64,
    ) -> Vec<f32> {
        let (reduced, stats) =
            dist_kernels::allreduce_i8_stochastic(ops.dev, partials, self.i8_bucket, seed);
        ops.record(stats);
        let n = reduced.len();
        let t = self.ledger.borrow_mut().all_reduce(&self.interconnect, n as u64);
        self.log_allreduce(t);
        reduced
    }

    /// Charge (only) the float gradient all-reduce: the functional value
    /// is the exact global reduction the single-device step already
    /// computed, so float sharded training stays bit-identical; the f32
    /// wire moves twice the bytes of the half path.
    pub fn charge_allreduce_f32(&self, elems: usize) {
        let t = self.ledger.borrow_mut().all_reduce(&self.interconnect, (elems * 4) as u64);
        self.log_allreduce(t);
    }

    /// An all-reduce is a barrier: every device logs its duration.
    fn log_allreduce(&self, time_us: f64) {
        let mut timeline = self.timeline.borrow_mut();
        for d in 0..self.plan.num_shards() {
            timeline.log(d, CommEvent::AllReduce(time_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_half::slice::f32_slice_to_half;
    use halfgnn_sim::DeviceConfig;

    fn ctx(shards: usize, topology: Topology) -> DistCtx {
        let csr = Csr::from_edges(8, 8, &[(0, 5), (1, 6), (2, 7), (5, 0), (6, 1), (7, 2)])
            .symmetrized_with_self_loops();
        DistCtx::new(&csr, shards, PartitionStrategy::Contiguous, topology)
    }

    #[test]
    fn halo_exchange_charges_half_the_bytes_in_half() {
        let dev = DeviceConfig::a100_like();
        let c = ctx(2, Topology::Ring);
        let f = 4;
        let xf: Vec<f32> = (0..8 * f).map(|i| i as f32 * 0.1).collect();
        let xh = f32_slice_to_half(&xf);
        let mut ops = Ops::new(&dev);
        for s in &c.plan.shards {
            c.exchange_halo(&mut ops, &xh, f, s);
        }
        let half_bytes = c.snapshot().halo_bytes;
        c.reset_epoch();
        for s in &c.plan.shards {
            c.exchange_halo(&mut ops, &xf, f, s);
        }
        let float_bytes = c.snapshot().halo_bytes;
        assert!(half_bytes > 0);
        assert_eq!(float_bytes, 2 * half_bytes);
    }

    #[test]
    fn allreduce_reduces_and_charges() {
        let dev = DeviceConfig::a100_like();
        let c = ctx(4, Topology::AllToAll);
        let mut ops = Ops::new(&dev);
        let partials: Vec<Vec<Half>> =
            (0..4).map(|s| f32_slice_to_half(&vec![0.25 * (s + 1) as f32; 100])).collect();
        let got = c.allreduce_grad_half(&mut ops, &partials);
        for v in &got {
            assert!((v.to_f32() - 2.5).abs() < 0.05, "{v}");
        }
        assert!(c.snapshot().allreduce_bytes > 0);
    }

    #[test]
    fn single_shard_has_no_traffic() {
        let dev = DeviceConfig::a100_like();
        let c = ctx(1, Topology::Ring);
        let f = 2;
        let xh = f32_slice_to_half(&vec![1.0; 8 * f]);
        let mut ops = Ops::new(&dev);
        for s in &c.plan.shards {
            assert!(s.halo.is_empty(), "one shard owns everything");
            c.exchange_halo(&mut ops, &xh, f, s);
        }
        c.charge_allreduce_f32(100);
        assert_eq!(c.snapshot().total_bytes(), 0);
    }

    #[test]
    fn second_epoch_halo_is_served_from_the_cache_for_free() {
        let dev = DeviceConfig::a100_like();
        let c = ctx(2, Topology::Ring);
        let f = 4;
        let xh = f32_slice_to_half(&(0..8 * f).map(|i| i as f32 * 0.1).collect::<Vec<_>>());
        let mut ops = Ops::new(&dev);
        // Epoch 0: cold, every wire row is a miss.
        for s in &c.plan.shards {
            c.exchange_halo(&mut ops, &xh, f, s);
        }
        let cold = c.snapshot().halo_bytes;
        let s0 = c.halo_cache_stats();
        assert!(cold > 0);
        assert_eq!(s0.hits, 0);
        assert!(s0.misses > 0);
        // Epoch 1: static sources, every row hits, zero bytes.
        c.reset_epoch();
        for s in &c.plan.shards {
            c.exchange_halo(&mut ops, &xh, f, s);
        }
        let warm = c.snapshot().halo_bytes;
        let s1 = c.halo_cache_stats();
        assert_eq!(warm, 0);
        assert_eq!(s1.misses, 0);
        assert_eq!(s1.hits, s0.misses);
        assert_eq!(s1.bytes_saved, cold);
        // The served payloads are bitwise what the cold fetch stored.
        for sh in &c.plan.shards {
            for &(v, _) in c.plan.wire_rows(sh.index) {
                let got = c.cached_wire_row(sh.index, 0, 2, v).expect("valid cached row");
                let want: Vec<u8> = xh[(v as usize) * f..(v as usize + 1) * f]
                    .iter()
                    .flat_map(|h| h.to_bits().to_le_bytes())
                    .collect();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn invalidated_rows_are_refetched_and_recharged() {
        let dev = DeviceConfig::a100_like();
        let c = ctx(2, Topology::Ring);
        let f = 4;
        let xh = f32_slice_to_half(&(0..8 * f).map(|i| i as f32 * 0.1).collect::<Vec<_>>());
        let mut ops = Ops::new(&dev);
        for s in &c.plan.shards {
            c.exchange_halo(&mut ops, &xh, f, s);
        }
        c.reset_epoch();
        // Invalidate one wire row of shard 0; only it is refetched.
        let &(victim, _) = &c.plan.wire_rows(0)[0];
        c.invalidate_halo_rows(&[victim]);
        for s in &c.plan.shards {
            c.exchange_halo(&mut ops, &xh, f, s);
        }
        let stats = c.halo_cache_stats();
        assert_eq!(stats.misses, 1, "exactly the invalidated row refetches");
        assert_eq!(c.snapshot().halo_bytes, (f * 2) as u64);
        // A stale slot read returns None until the refetch lands.
        assert!(c.cached_wire_row(0, 0, 2, victim).is_some(), "refetched row is valid again");
    }

    #[test]
    fn timeline_logs_halo_compute_and_allreduce_events() {
        let dev = DeviceConfig::a100_like();
        let c = ctx(2, Topology::Ring);
        let f = 4;
        let xh = f32_slice_to_half(&vec![0.5; 8 * f]);
        let mut ops = Ops::new(&dev);
        for s in &c.plan.shards {
            c.exchange_halo(&mut ops, &xh, f, s);
            c.log_compute(s.index, 12.5);
            c.exchange_halo(&mut ops, &xh, f, s);
        }
        c.charge_allreduce_f32(64);
        let t = c.timeline();
        // Per device: halo, compute, halo, allreduce.
        for d in 0..2 {
            assert_eq!(t.events(d).len(), 4, "device {d}");
        }
        assert!(t.overlapped_us() < t.serialized_us(), "the second halo hides under compute");
    }
}
