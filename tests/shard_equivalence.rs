//! Shard-equivalence harness: the tentpole's correctness proof.
//!
//! Sharded execution is a *cost* transformation, not a numeric one: each
//! simulated device runs the global kernel tiling clamped to its row (or
//! edge) window and the outputs are pasted back, so for ANY graph — hub
//! graphs, graphs with zero-degree vertices, more shards than rows (empty
//! partitions) — the sharded run must reproduce the single-device run.
//!
//! Exactly two spots are allowed to deviate, and only in half precision:
//! the gradient all-reduce re-quantizes per-shard partials on the f16
//! wire, and the bias colsum rides the same wire. Everything else —
//! every sparse kernel family, the float training step's loss, logits and
//! gradients, the half step's loss and logits — is asserted **bitwise**.
//! The two wire-quantized reductions are held to [`reference::close`].

use halfgnn::graph::partition::PartitionStrategy;
use halfgnn::graph::{Csr, VertexId};
use halfgnn::half::quant;
use halfgnn::half::slice::f32_slice_to_half;
use halfgnn::half::Half;
use halfgnn::kernels::common::{EdgeWeights, Reduce};
use halfgnn::kernels::dist::halo_gather_i8;
use halfgnn::kernels::{quant_spmm, reference};
use halfgnn::nn::dist::DistCtx;
use halfgnn::nn::gcn;
use halfgnn::nn::graphdata::GraphView;
use halfgnn::nn::models::{
    edge_reduce, spmm_mean, spmm_sum, spmmve, Dispatch, Elem, GcnNorm, PrecisionMode,
};
use halfgnn::nn::params::TwoLayerParams;
use halfgnn::sim::interconnect::Topology;
use halfgnn::sim::DeviceConfig;
use halfgnn::tensor::Ops;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn strategies() -> [PartitionStrategy; 3] {
    [
        PartitionStrategy::Contiguous,
        PartitionStrategy::DegreeBalanced,
        // c = 1 divides every shard count in SHARD_COUNTS; the c = 2 grid
        // gets its own dedicated property below.
        PartitionStrategy::OneP5D { c: 1 },
    ]
}

/// Arbitrary symmetrized graph + feature width + f32 features.
///
/// `hub == 1` wires vertex 0 to every other vertex, so DegreeBalanced
/// partitions squeeze the non-hub shards down to a handful of rows. The
/// edge list may leave vertices untouched (zero-degree before the added
/// self loop), and `n` as small as 2 with 4 shards forces empty
/// partitions.
fn arb_graph() -> impl Strategy<Value = (Csr, usize, Vec<f32>)> {
    (2usize..24, 1usize..4, 0usize..2)
        .prop_flat_map(|(n, fhalf, hub)| {
            let f = 2 * fhalf; // half kernels need half2-padded widths
            let edge = (0..n as VertexId, 0..n as VertexId);
            (
                Just(n),
                Just(f),
                Just(hub),
                prop::collection::vec(edge, 0..64),
                prop::collection::vec(-1.0f32..1.0, n * f),
            )
        })
        .prop_map(|(n, f, hub, mut edges, feats)| {
            if hub == 1 {
                for v in 1..n as VertexId {
                    edges.push((0, v));
                }
            }
            let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
            (csr, f, feats)
        })
}

/// Deterministic labels/mask for the step-level properties: every class
/// appears, and vertex 0 is always masked in so the loss is never empty.
fn labels_and_mask(n: usize, classes: usize) -> (Vec<u32>, Vec<bool>) {
    let labels: Vec<u32> = (0..n).map(|i| (i % classes) as u32).collect();
    let mask: Vec<bool> = (0..n).map(|i| i == 0 || i % 3 != 1).collect();
    (labels, mask)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every sparse dispatch family pastes back the exact bits of the
    /// single-device launch, at every shard count, under both partition
    /// strategies. Float gradient reductions are exact; half gradient
    /// reductions land inside the `reference::close` band of the global
    /// contraction (the f16 wire is the only permitted deviation).
    #[test]
    fn sharded_dispatch_is_equivalent_on_arbitrary_graphs(
        (csr, f, feats) in arb_graph()
    ) {
        let dev = DeviceConfig::a100_like();
        let g = GraphView::full(&csr);
        let n = g.n();
        let xf = feats;
        let xh = f32_slice_to_half(&xf);
        let wh: Vec<Half> =
            (0..g.nnz()).map(|i| Half::from_f32(((i % 13) as f32 - 6.0) / 8.0)).collect();
        let wf: Vec<f32> = wh.iter().map(|h| h.to_f32()).collect();

        let mut ops = Ops::new(&dev);
        let h1 = Dispatch::untuned(PrecisionMode::HalfGnn);
        let f1 = Dispatch::untuned(PrecisionMode::Float);

        // Single-device ground truth, once per case.
        let want_mean_h = spmm_mean(&mut ops, &g, &xh, f, h1);
        let want_sum_h = spmm_sum(&mut ops, &g, &xh, f, h1);
        let want_ve_h = spmmve(&mut ops, &g, &wh, &xh, f, h1);
        let want_sddmm_h = Half::sddmm(&mut ops, &g, &xh, &xh, f, h1);
        let want_max_h = edge_reduce::<Half>(&mut ops, &g, &wh, Reduce::Max, h1);
        let want_gemm_h = Half::grad_gemm(&mut ops, &xh, &xh, f, n, f, h1);
        let want_colsum_h = Half::grad_colsum(&mut ops, &xh, f, h1);
        let want_mean_f = spmm_mean(&mut ops, &g, &xf, f, f1);
        let want_sum_f = spmm_sum(&mut ops, &g, &xf, f, f1);
        let want_ve_f = spmmve(&mut ops, &g, &wf, &xf, f, f1);
        let want_sddmm_f = f32::sddmm(&mut ops, &g, &xf, &xf, f, f1);
        let want_sum_ef = edge_reduce::<f32>(&mut ops, &g, &wf, Reduce::Sum, f1);
        let want_gemm_f = f32::grad_gemm(&mut ops, &xf, &xf, f, n, f, f1);
        let want_colsum_f = f32::grad_colsum(&mut ops, &xf, f, f1);

        for shards in SHARD_COUNTS {
            for strategy in strategies() {
                let ctx = DistCtx::new(&g.csr, shards, strategy, Topology::Ring);
                let hd = h1.with_dist(Some(&ctx));
                let fd = f1.with_dist(Some(&ctx));

                prop_assert_eq!(&spmm_mean(&mut ops, &g, &xh, f, hd), &want_mean_h);
                prop_assert_eq!(&spmm_sum(&mut ops, &g, &xh, f, hd), &want_sum_h);
                prop_assert_eq!(&spmmve(&mut ops, &g, &wh, &xh, f, hd), &want_ve_h);
                prop_assert_eq!(&Half::sddmm(&mut ops, &g, &xh, &xh, f, hd), &want_sddmm_h);
                prop_assert_eq!(
                    &edge_reduce::<Half>(&mut ops, &g, &wh, Reduce::Max, hd),
                    &want_max_h
                );
                prop_assert_eq!(&spmm_mean(&mut ops, &g, &xf, f, fd), &want_mean_f);
                prop_assert_eq!(&spmm_sum(&mut ops, &g, &xf, f, fd), &want_sum_f);
                prop_assert_eq!(&spmmve(&mut ops, &g, &wf, &xf, f, fd), &want_ve_f);
                prop_assert_eq!(&f32::sddmm(&mut ops, &g, &xf, &xf, f, fd), &want_sddmm_f);
                prop_assert_eq!(
                    &edge_reduce::<f32>(&mut ops, &g, &wf, Reduce::Sum, fd),
                    &want_sum_ef
                );
                // Float gradient reductions: the exact global contraction.
                prop_assert_eq!(&f32::grad_gemm(&mut ops, &xf, &xf, f, n, f, fd), &want_gemm_f);
                prop_assert_eq!(&f32::grad_colsum(&mut ops, &xf, f, fd), &want_colsum_f);

                // Half gradient reductions: re-quantized on the f16 wire,
                // so close rather than bitwise.
                let got_gemm = Half::grad_gemm(&mut ops, &xh, &xh, f, n, f, hd);
                for (got, want) in got_gemm.iter().zip(&want_gemm_h) {
                    prop_assert!(
                        reference::close(got.to_f64(), want.to_f64(), 0.05, 0.05),
                        "grad_gemm_half: {got} vs {want} (shards={shards}, {strategy:?})"
                    );
                }
                let got_colsum = Half::grad_colsum(&mut ops, &xh, f, hd);
                for (got, want) in got_colsum.iter().zip(&want_colsum_h) {
                    prop_assert!(
                        reference::close(*got as f64, *want as f64, 0.05, 0.05),
                        "grad_colsum_half: {got} vs {want} (shards={shards}, {strategy:?})"
                    );
                }

                // A multi-shard run must have metered wire traffic.
                if shards > 1 {
                    prop_assert!(ctx.snapshot().total_bytes() > 0);
                }
            }
        }
    }

    /// The float GCN training step is bit-identical under sharding: same
    /// loss bits, same logits, same gradients, whatever the graph, shard
    /// count, partition strategy or topology.
    #[test]
    fn sharded_float_gcn_step_is_bit_identical(
        (csr, f, feats) in arb_graph()
    ) {
        let dev = DeviceConfig::a100_like();
        let g = GraphView::full(&csr);
        let classes = 3;
        let (labels, mask) = labels_and_mask(g.n(), classes);
        let p = TwoLayerParams::new(f, 4, classes, 7);
        let d1 = Dispatch::untuned(PrecisionMode::Float);

        let mut ops = Ops::new(&dev);
        let want = gcn::step(&mut ops, &g, &p, &feats, &labels, &mask, d1, GcnNorm::Right);

        for shards in SHARD_COUNTS {
            for strategy in strategies() {
                for topology in [Topology::Ring, Topology::AllToAll] {
                    let ctx = DistCtx::new(&g.csr, shards, strategy, topology);
                    let d = d1.with_dist(Some(&ctx));
                    let got = gcn::step(
                        &mut ops, &g, &p, &feats, &labels, &mask, d, GcnNorm::Right,
                    );
                    prop_assert_eq!(got.loss.to_bits(), want.loss.to_bits());
                    prop_assert_eq!(&got.logits, &want.logits);
                    prop_assert_eq!(&got.grads.flat(), &want.grads.flat());
                }
            }
        }
    }

    /// The half GCN step under sharding: the forward pass (loss, logits)
    /// is still bitwise — windowed kernels paste exact slices — and only
    /// the wire-reduced weight/bias gradients move, within the
    /// `reference::close` band.
    #[test]
    fn sharded_half_gcn_step_is_bitwise_forward_and_close_backward(
        (csr, f, feats) in arb_graph()
    ) {
        let dev = DeviceConfig::a100_like();
        let g = GraphView::full(&csr);
        let classes = 4; // even: the half path pads odd class counts
        let (labels, mask) = labels_and_mask(g.n(), classes);
        let p = TwoLayerParams::new(f, 4, classes, 11);
        let xh = f32_slice_to_half(&feats);
        let d1 = Dispatch::untuned(PrecisionMode::HalfGnn);

        let mut ops = Ops::new(&dev);
        let want = gcn::step_half_norm(&mut ops, &g, &p, &xh, &labels, &mask, d1, GcnNorm::Right);

        for shards in SHARD_COUNTS {
            for strategy in strategies() {
                let ctx = DistCtx::new(&g.csr, shards, strategy, Topology::Ring);
                let d = d1.with_dist(Some(&ctx));
                let got =
                    gcn::step_half_norm(&mut ops, &g, &p, &xh, &labels, &mask, d, GcnNorm::Right);
                prop_assert_eq!(got.loss.to_bits(), want.loss.to_bits());
                prop_assert_eq!(&got.logits, &want.logits);
                for (got, want) in got.grads.flat().iter().zip(want.grads.flat()) {
                    prop_assert!(
                        reference::close(*got as f64, want as f64, 0.05, 0.05),
                        "half grads: {got} vs {want} (shards={shards}, {strategy:?})"
                    );
                }
            }
        }
    }

    /// 1.5D is the tentpole's cost transformation: it shares the
    /// DegreeBalanced boundaries, kernel windows and halos exactly — so
    /// the float step is bitwise the single-device step at every shard
    /// count, replication factor and topology — while the replication
    /// groups fetch each out-of-group halo row once, so wire bytes never
    /// exceed 1D's.
    #[test]
    fn one5d_step_is_bitwise_and_never_moves_more_bytes_than_1d(
        (csr, f, feats) in arb_graph()
    ) {
        let dev = DeviceConfig::a100_like();
        let g = GraphView::full(&csr);
        let classes = 3;
        let (labels, mask) = labels_and_mask(g.n(), classes);
        let p = TwoLayerParams::new(f, 4, classes, 7);
        let d1 = Dispatch::untuned(PrecisionMode::Float);

        let mut ops = Ops::new(&dev);
        let want = gcn::step(&mut ops, &g, &p, &feats, &labels, &mask, d1, GcnNorm::Right);

        for shards in [2usize, 4, 8] {
            for c in [1usize, 2] {
                for topology in [Topology::Ring, Topology::AllToAll] {
                    let ctx =
                        DistCtx::new(&g.csr, shards, PartitionStrategy::OneP5D { c }, topology);
                    let bal =
                        DistCtx::new(&g.csr, shards, PartitionStrategy::DegreeBalanced, topology);

                    // Same cuts, same halos: replication changes who pays
                    // for a halo row, never which rows are halo.
                    prop_assert_eq!(ctx.plan.replication, c);
                    for (s15, s1d) in ctx.plan.shards.iter().zip(&bal.plan.shards) {
                        prop_assert_eq!(s15.row_range, s1d.row_range);
                        prop_assert_eq!(&s15.halo, &s1d.halo);
                    }

                    let got = gcn::step(
                        &mut ops, &g, &p, &feats, &labels, &mask,
                        d1.with_dist(Some(&ctx)), GcnNorm::Right,
                    );
                    prop_assert_eq!(got.loss.to_bits(), want.loss.to_bits());
                    prop_assert_eq!(&got.logits, &want.logits);
                    prop_assert_eq!(&got.grads.flat(), &want.grads.flat());

                    let _ = gcn::step(
                        &mut ops, &g, &p, &feats, &labels, &mask,
                        d1.with_dist(Some(&bal)), GcnNorm::Right,
                    );
                    let (s15, s1d) = (ctx.snapshot(), bal.snapshot());
                    prop_assert!(
                        s15.halo_bytes <= s1d.halo_bytes,
                        "1.5D halo {} > 1D halo {} (shards={}, c={})",
                        s15.halo_bytes, s1d.halo_bytes, shards, c
                    );
                    // c = 1 degenerates to exactly the 1D wire charge.
                    if c == 1 {
                        prop_assert_eq!(s15.halo_bytes, s1d.halo_bytes);
                    }
                    // The gradient all-reduce is partition-independent.
                    prop_assert_eq!(s15.allreduce_bytes, s1d.allreduce_bytes);
                }
            }
        }
    }

    /// The headline cost property holds pointwise, not just end-to-end:
    /// on the same graph, same shard plan, same feature width, a half
    /// halo exchange moves exactly half the bytes of the float one.
    #[test]
    fn half_halo_traffic_is_exactly_half_of_float(
        (csr, f, feats) in arb_graph()
    ) {
        let dev = DeviceConfig::a100_like();
        let g = GraphView::full(&csr);
        let xh = f32_slice_to_half(&feats);
        let mut ops = Ops::new(&dev);

        for shards in [2usize, 4] {
            for strategy in strategies() {
                let ctx_h = DistCtx::new(&g.csr, shards, strategy, Topology::Ring);
                let ctx_f = DistCtx::new(&g.csr, shards, strategy, Topology::Ring);
                let dh = Dispatch::untuned(PrecisionMode::HalfGnn).with_dist(Some(&ctx_h));
                let df = Dispatch::untuned(PrecisionMode::Float).with_dist(Some(&ctx_f));
                spmm_sum(&mut ops, &g, &xh, f, dh);
                spmm_sum(&mut ops, &g, &feats, f, df);
                let (h, fl) = (ctx_h.snapshot(), ctx_f.snapshot());
                prop_assert_eq!(2 * h.halo_bytes, fl.halo_bytes);
                // And the modeled wire time strictly improves whenever
                // any halo actually crossed a link.
                if fl.halo_bytes > 0 {
                    prop_assert!(h.total_time_us() < fl.total_time_us());
                }
            }
        }
    }

    /// The INT8 wire rung below: on the same graph, shard plan and
    /// feature width — 1D and the 1.5D replication grid alike — the i8
    /// halo exchange moves exactly half the bytes of the f16 ledger and
    /// a quarter of the float one, on every sharded config.
    #[test]
    fn i8_halo_traffic_is_half_of_f16_and_a_quarter_of_float(
        (csr, f, feats) in arb_graph()
    ) {
        let dev = DeviceConfig::a100_like();
        let g = GraphView::full(&csr);
        let xh = f32_slice_to_half(&feats);
        let mut ops = Ops::new(&dev);

        let mut configs: Vec<(usize, PartitionStrategy)> = Vec::new();
        for shards in [2usize, 4] {
            for strategy in strategies() {
                configs.push((shards, strategy));
            }
        }
        // The c = 2 replication grid: groups share halo fetches, and the
        // compression ratio must survive the shared-fetch accounting.
        configs.push((4, PartitionStrategy::OneP5D { c: 2 }));

        for (shards, strategy) in configs {
            let ctx_i = DistCtx::new(&g.csr, shards, strategy, Topology::Ring);
            let ctx_h = DistCtx::new(&g.csr, shards, strategy, Topology::Ring);
            let ctx_f = DistCtx::new(&g.csr, shards, strategy, Topology::Ring);
            let di = Dispatch::untuned(PrecisionMode::I8)
                .with_quant_seed(0xA5)
                .with_dist(Some(&ctx_i));
            let dh = Dispatch::untuned(PrecisionMode::HalfGnn).with_dist(Some(&ctx_h));
            let df = Dispatch::untuned(PrecisionMode::Float).with_dist(Some(&ctx_f));
            spmm_sum(&mut ops, &g, &xh, f, di);
            spmm_sum(&mut ops, &g, &xh, f, dh);
            spmm_sum(&mut ops, &g, &feats, f, df);
            let (i8s, hs, fs) = (ctx_i.snapshot(), ctx_h.snapshot(), ctx_f.snapshot());
            prop_assert_eq!(
                2 * i8s.halo_bytes, hs.halo_bytes,
                "i8 halo vs f16 (shards={}, {:?})", shards, strategy
            );
            prop_assert_eq!(
                4 * i8s.halo_bytes, fs.halo_bytes,
                "i8 halo vs float (shards={}, {:?})", shards, strategy
            );
        }
    }

    /// The i8 gradient all-reduce lands inside the *deterministic*
    /// `shards · 2^e` band of the exact f32-wire reduction (e = the joint
    /// bucket exponent — computable because the wire sums codes exactly
    /// in i32), never saturates by construction, and charges exactly half
    /// the f16 all-reduce bytes and a quarter of the float ones.
    #[test]
    fn i8_wire_allreduce_stays_in_band_and_moves_quarter_bytes(
        (csr, _f, feats) in arb_graph()
    ) {
        const BUCKET: usize = 64;
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        // Pad to a multiple of every shard count under test: the ring
        // all-reduce charges per div_ceil(payload, shards) chunk, so
        // exact 0.5×/0.25× ratios need an evenly divisible payload.
        let mut feats = feats;
        while feats.len() % 4 != 0 {
            feats.push(0.0);
        }
        let n = feats.len();

        for shards in [2usize, 4] {
            for strategy in strategies() {
                // Synthetic per-shard partials spanning shard-dependent
                // magnitudes, derived from the proptest feature pool.
                let partials: Vec<Vec<f32>> = (0..shards)
                    .map(|s| {
                        feats
                            .iter()
                            .map(|&v| v * (s + 1) as f32 - s as f32 * 0.25)
                            .collect()
                    })
                    .collect();
                let exact: Vec<f32> =
                    (0..n).map(|i| partials.iter().map(|p| p[i]).sum()).collect();

                let ctx_i = DistCtx::new(&csr, shards, strategy, Topology::Ring)
                    .with_i8_bucket(BUCKET);
                let ctx_h = DistCtx::new(&csr, shards, strategy, Topology::Ring);
                let ctx_f = DistCtx::new(&csr, shards, strategy, Topology::Ring);

                let (got, sat) = quant::isolated(|| {
                    ctx_i.allreduce_f32_on_i8_wire(&mut ops, &partials, 0xD15C)
                });
                prop_assert_eq!(
                    sat.saturated, 0,
                    "the joint bucket exponent makes saturation impossible"
                );
                for (bi, chunk) in exact.chunks(BUCKET).enumerate() {
                    let lo = bi * BUCKET;
                    let joint = partials
                        .iter()
                        .flat_map(|p| p[lo..lo + chunk.len()].iter())
                        .fold(0f32, |m, &v| m.max(v.abs()));
                    let band = shards as f64
                        * (2.0f64).powi(quant::block_exponent(joint));
                    for (i, (&g_v, &w_v)) in
                        got[lo..lo + chunk.len()].iter().zip(chunk).enumerate()
                    {
                        prop_assert!(
                            reference::close(g_v as f64, w_v as f64, 1e-6, band + 1e-6),
                            "elem {}: i8-wire {} vs f32-wire {} outside ±{band:e} \
                             (shards={}, {:?})",
                            lo + i, g_v, w_v, shards, strategy
                        );
                    }
                }

                // Same reduction on the f16 and f32 wires: the i8 ledger
                // charge is exactly 0.5× / 0.25×.
                ctx_h.allreduce_f32_on_f16_wire(&mut ops, &partials);
                ctx_f.charge_allreduce_f32(n);
                let (b8, b16, b32) = (
                    ctx_i.snapshot().allreduce_bytes,
                    ctx_h.snapshot().allreduce_bytes,
                    ctx_f.snapshot().allreduce_bytes,
                );
                prop_assert!(b8 > 0, "all-reduce must be metered");
                prop_assert_eq!(2 * b8, b16, "i8 vs f16 wire (shards={shards})");
                prop_assert_eq!(4 * b8, b32, "i8 vs f32 wire (shards={shards})");
            }
        }
    }
}

/// More shards than vertices: partitions past the vertex count are empty,
/// and the dispatch layer must skip them without emitting traffic for
/// them — while still matching the single-device bits.
#[test]
fn empty_partitions_are_harmless() {
    let dev = DeviceConfig::a100_like();
    let csr = Csr::from_edges(3, 3, &[(0, 1), (1, 2)]).symmetrized_with_self_loops();
    let g = GraphView::full(&csr);
    let f = 4;
    let xh: Vec<Half> = (0..g.n() * f).map(|i| Half::from_f32((i % 5) as f32 * 0.2)).collect();
    let mut ops = Ops::new(&dev);
    let single = Dispatch::untuned(PrecisionMode::HalfGnn);
    let want = spmm_sum(&mut ops, &g, &xh, f, single);
    for strategy in strategies() {
        let ctx = DistCtx::new(&g.csr, 4, strategy, Topology::Ring);
        assert_eq!(ctx.num_shards(), 4);
        let got = spmm_sum(&mut ops, &g, &xh, f, single.with_dist(Some(&ctx)));
        assert_eq!(got, want, "{strategy:?}");
    }
}

/// A pure star graph under DegreeBalanced partitioning: the hub shard owns
/// almost every edge and the leaf shards almost none, the most lopsided
/// plan the partitioner can produce. Equivalence must not depend on
/// balance.
#[test]
fn star_graph_is_bitwise_under_degree_balanced_sharding() {
    let dev = DeviceConfig::a100_like();
    let n: usize = 33;
    let edges: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|v| (0, v)).collect();
    let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
    let g = GraphView::full(&csr);
    let f = 8;
    let xh: Vec<Half> = (0..n * f).map(|i| Half::from_f32(((i % 9) as f32 - 4.0) * 0.1)).collect();
    let mut ops = Ops::new(&dev);
    let single = Dispatch::untuned(PrecisionMode::HalfGnn);
    let want_spmm = spmm_mean(&mut ops, &g, &xh, f, single);
    let want_sddmm = Half::sddmm(&mut ops, &g, &xh, &xh, f, single);
    for shards in [2usize, 4, 8] {
        let ctx = DistCtx::new(&g.csr, shards, PartitionStrategy::DegreeBalanced, Topology::Ring);
        let d = single.with_dist(Some(&ctx));
        assert_eq!(spmm_mean(&mut ops, &g, &xh, f, d), want_spmm, "shards={shards}");
        assert_eq!(Half::sddmm(&mut ops, &g, &xh, &xh, f, d), want_sddmm, "shards={shards}");
    }
}

/// One INT8 quantization per sparse op: SpMMv and SpMMve over 1–4 shards
/// return the single-device bits, and record exactly what quantizing the
/// operands again in every shard's window records, after that shard's
/// halo wire — with a −4 exponent bias too, which clamps, so `first`
/// must be the first event of those quantizations in that order.
#[test]
fn i8_spmm_quantizes_each_operand_once_per_op() {
    let dev = DeviceConfig::a100_like();
    let n = 90;
    let edges: Vec<(VertexId, VertexId)> = (0..4 * n as VertexId)
        .map(|i| (i % n as VertexId, (i * 37 + 11) % n as VertexId))
        .collect();
    let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
    let g = GraphView::full(&csr);
    let f = 10;
    let x: Vec<Half> =
        (0..n * f).map(|i| Half::from_f32(((i * 7) % 23) as f32 * 0.09 - 1.0)).collect();
    let w: Vec<Half> =
        (0..g.nnz()).map(|e| Half::from_f32(((e % 11) as f32 - 5.0) / 6.0)).collect();
    let mut ops = Ops::new(&dev);
    let single = Dispatch::untuned(PrecisionMode::I8);
    for bias in [0, -4] {
        quant::set_exponent_bias(bias);
        let want_v = spmm_sum(&mut ops, &g, &x, f, single);
        let want_ve = spmmve(&mut ops, &g, &w, &x, f, single);
        let quantize = |weighted: bool| {
            quant_spmm::quantize_features(&x, f, 0);
            if weighted {
                quant_spmm::quantize_edge_weights(&EdgeWeights::Values(&w), g.nnz(), 0);
            }
        };
        for shards in 1..=4 {
            let ctx = DistCtx::new(&g.csr, shards, PartitionStrategy::Contiguous, Topology::Ring);
            let d = single.with_dist(Some(&ctx));
            for (weighted, want) in [(false, &want_v), (true, &want_ve)] {
                quant::begin();
                let got = if weighted {
                    spmmve(&mut ops, &g, &w, &x, f, d)
                } else {
                    spmm_sum(&mut ops, &g, &x, f, d)
                };
                let sat = quant::take();
                let label = format!("weighted {weighted}, {shards} shards, bias {bias}");
                assert_eq!(&got, want, "{label}");
                let mut expect = quant::SatSummary::default();
                for s in &ctx.plan.shards {
                    expect.merge(quant::isolated(|| halo_gather_i8(&dev, &x, f, &s.halo, 0)).1);
                    expect.merge(quant::isolated(|| quantize(weighted)).1);
                }
                assert_eq!(format!("{sat:?}"), format!("{expect:?}"), "{label}");
                let halo: usize = ctx.plan.shards.iter().map(|s| s.halo.len() * f).sum();
                let per_op = n * f + if weighted { g.nnz() } else { 0 };
                assert_eq!(sat.quantized, (shards * per_op + halo) as u64, "{label}");
                assert_eq!(sat.first.is_some(), bias < 0, "{label}");
            }
        }
    }
    quant::set_exponent_bias(0);
}
