//! `i8` → `BENCH_pr10.json`: INT8 quantized wire and kernel path.
//!
//! One sweep on the modeled A100: GCN and SAGE on the G1-class graph
//! (Cora) plus GCN on G3 (Pubmed-class), `--precision i8` against the
//! f16 HalfGNN baseline, then every sharded wire config, then the tuner's
//! oracle gate.
//!
//! Hard gates, asserted not observed:
//!
//! * accuracy: every I8 run lands within ε = 0.08 of its f16
//!   counterpart's test accuracy with no NaN epoch — the 1-byte wire and
//!   stochastic rounding cost bandwidth, not convergence;
//! * saturation: zero *unflagged* saturation events — every epoch whose
//!   summary counts a clamp or non-finite input must carry first-event
//!   provenance, and the baseline f16 runs must quantize nothing;
//! * wire: on every sharded config (1D contiguous/balanced, 1.5D at
//!   c = 1 and c = 2), halo and all-reduce bytes are exactly 0.5× the
//!   f16 ledger — the i8 and f16 pipelines move the same elements, so
//!   the ratio is a byte-width identity. Against float the end-to-end
//!   ratios land within 5% of 0.25×: the half pipeline pads Cora's 7
//!   classes to 8 where float does not, so the gradient-side wires carry
//!   slightly different element counts by design. (The exact 0.25× at
//!   matched element counts is pinned per-exchange by the
//!   `shard_equivalence` proptests.);
//! * tuner: `spmm_i8_plan` yields a plan the f64 oracle confirms clean
//!   on the bench graph, and under a 6-octave exponent-bias stress every
//!   candidate saturates and the tuner selects nothing — it never ships
//!   an oracle-dirty I8 plan.

use crate::row::Row;
use halfgnn_graph::datasets::Dataset;
use halfgnn_graph::partition::PartitionStrategy;
use halfgnn_half::quant;
use halfgnn_nn::trainer::{train_on, ModelKind, PrecisionMode, TrainConfig, TrainReport};
use halfgnn_sim::interconnect::Topology;
use halfgnn_sim::DeviceConfig;
use halfgnn_tune::Tuner;

const EPS: f32 = 0.08;

/// Gate: a saturation summary may count flagged events only with
/// first-event provenance attached; silent clamps are a bug.
fn assert_flagged_events_carry_provenance(tag: &str, report: &TrainReport) {
    for (ep, s) in report.saturation_per_epoch.iter().enumerate() {
        assert!(
            s.flagged() == 0 || s.first.is_some(),
            "{tag}: epoch {ep} counts {} flagged quantizations without provenance",
            s.flagged()
        );
    }
}

pub(super) fn run() -> Row {
    let dev = DeviceConfig::a100_like();
    let g1 = Dataset::by_id("G1").expect("G1 in registry").load(42);
    let base = TrainConfig { epochs: 20, hidden: 16, lr: 0.02, seed: 3, ..TrainConfig::default() };

    // Gate 1 + 2: accuracy within ε of f16, saturation fully flagged.
    let mut accuracy_rows = Vec::new();
    let mut accuracy_gap_max = 0.0f32;
    let mut g1_gcn_f16_accuracy = None;
    let g3 = Dataset::by_id("G3").expect("G3 in registry").load(42);
    for (gid, data, models) in
        [("G1", &g1, &[ModelKind::Gcn, ModelKind::Sage][..]), ("G3", &g3, &[ModelKind::Gcn][..])]
    {
        for &model in models {
            let by_mode =
                |precision| train_on(&dev, data, &TrainConfig { model, precision, ..base.clone() });
            let f16 = by_mode(PrecisionMode::HalfGnn);
            let i8 = by_mode(PrecisionMode::I8);

            assert!(i8.nan_epoch.is_none(), "{gid}/{model:?}: I8 NaN epoch");
            assert!(
                (f16.test_accuracy - i8.test_accuracy).abs() < EPS,
                "{gid}/{model:?}: f16 {} vs i8 {}",
                f16.test_accuracy,
                i8.test_accuracy
            );
            assert_flagged_events_carry_provenance(&format!("{gid}/{model:?}"), &i8);
            let quantized: u64 = i8.saturation_per_epoch.iter().map(|s| s.quantized).sum();
            let saturated: u64 = i8.saturation_per_epoch.iter().map(|s| s.flagged()).sum();
            assert!(quantized > 0, "{gid}/{model:?}: the I8 path never quantized");
            assert!(
                f16.saturation_per_epoch.iter().all(|s| s.quantized == 0),
                "{gid}/{model:?}: f16 baseline touched the quantizer"
            );
            accuracy_gap_max = accuracy_gap_max.max((f16.test_accuracy - i8.test_accuracy).abs());
            if (gid, model) == ("G1", ModelKind::Gcn) {
                g1_gcn_f16_accuracy = Some(f16.test_accuracy);
            }
            accuracy_rows.push(
                Row::new()
                    .str("graph", gid)
                    .str("model", model.tag())
                    .fixed("f16_test_accuracy", f64::from(f16.test_accuracy), 4)
                    .fixed("i8_test_accuracy", f64::from(i8.test_accuracy), 4)
                    .val("quantized", quantized)
                    .val("saturated", saturated),
            );
        }
    }

    // A non-default block size must train just as well (the joint-exponent
    // bucket of the gradient wire is a knob, not a correctness risk).
    let r = train_on(
        &dev,
        &g1,
        &TrainConfig {
            model: ModelKind::Gcn,
            precision: PrecisionMode::I8,
            i8_block: Some(128),
            ..base.clone()
        },
    );
    assert!(r.nan_epoch.is_none(), "i8-block 128: NaN epoch");
    let f16_accuracy = g1_gcn_f16_accuracy.expect("G1/GCN row");
    assert!(
        (f16_accuracy - r.test_accuracy).abs() < EPS,
        "i8-block 128: f16 {f16_accuracy} vs i8 {}",
        r.test_accuracy
    );

    // Gate 3: wire bytes on every sharded config.
    let mut wire_rows = Vec::new();
    for (shards, partition, ptag) in [
        (2, PartitionStrategy::Contiguous, "contiguous"),
        (2, PartitionStrategy::DegreeBalanced, "balanced"),
        (2, PartitionStrategy::OneP5D { c: 1 }, "1p5d-c1"),
        (4, PartitionStrategy::Contiguous, "contiguous"),
        (4, PartitionStrategy::DegreeBalanced, "balanced"),
        (4, PartitionStrategy::OneP5D { c: 1 }, "1p5d-c1"),
        (4, PartitionStrategy::OneP5D { c: 2 }, "1p5d-c2"),
    ] {
        let by_mode = |precision| {
            let cfg = TrainConfig {
                model: ModelKind::Gcn,
                precision,
                epochs: 4,
                shards,
                partition,
                topology: Topology::Ring,
                ..base.clone()
            };
            train_on(&dev, &g1, &cfg)
        };
        let ri = by_mode(PrecisionMode::I8);
        let rh = by_mode(PrecisionMode::HalfGnn);
        let rf = by_mode(PrecisionMode::Float);
        let tag = format!("shards={shards}/{ptag}");
        let (i8_halo, f16_halo, f32_halo) = (
            ri.comms_halo_bytes_per_epoch,
            rh.comms_halo_bytes_per_epoch,
            rf.comms_halo_bytes_per_epoch,
        );
        let (i8_allreduce, f16_allreduce, f32_allreduce) = (
            ri.comms_allreduce_bytes_per_epoch,
            rh.comms_allreduce_bytes_per_epoch,
            rf.comms_allreduce_bytes_per_epoch,
        );

        assert_flagged_events_carry_provenance(&tag, &ri);
        assert_eq!(2 * i8_halo, f16_halo, "{tag}: i8 halo must be exactly half the f16 wire");
        assert_eq!(
            2 * i8_allreduce,
            f16_allreduce,
            "{tag}: i8 all-reduce must be exactly half the f16 wire"
        );
        // Float carries 7 unpadded classes where the half pipeline pads
        // to 8, so the gradient-side wires differ slightly in element
        // count: 0.25× within 5%, on both halo and all-reduce ledgers.
        for (kind, i8b, f32b) in
            [("halo", i8_halo, f32_halo), ("all-reduce", i8_allreduce, f32_allreduce)]
        {
            let quad = 4 * i8b;
            assert!(
                quad >= f32b && quad * 100 <= f32b * 105,
                "{tag}: 4×i8 {kind} {quad} vs float {f32b}"
            );
        }
        assert!(i8_halo > 0, "{tag}: halo must be metered");

        wire_rows.push(
            Row::new()
                .val("shards", shards)
                .str("partition", ptag)
                .val("i8_halo_bytes", i8_halo)
                .val("f16_halo_bytes", f16_halo)
                .val("f32_halo_bytes", f32_halo)
                .val("i8_allreduce_bytes", i8_allreduce)
                .val("f16_allreduce_bytes", f16_allreduce)
                .val("f32_allreduce_bytes", f32_allreduce),
        );
    }

    // Gate 4: the tuner's oracle gate. A selected plan re-vets clean
    // through the same f64-oracle harness the tuner used to pick it; a
    // stressed quantizer leaves nothing to select.
    let f = 16usize;
    let tuner = Tuner::auto(&dev);
    let plan =
        tuner.spmm_i8_plan(&g1.adj, f, false, 3).expect("the bench graph must tune clean in I8");
    tuner
        .vet_spmm_i8(&g1.adj, f, false, 3, &plan)
        .unwrap_or_else(|r| panic!("selected I8 plan must re-vet oracle-clean, got: {r}"));
    // Stress: bias every scale 6 octaves down — all candidates clamp, the
    // tuner must select nothing rather than ship a dirty plan. The bias is
    // process-global, so it is reset before anything else runs.
    quant::set_exponent_bias(-6);
    let dirty = tuner.spmm_i8_plan(&g1.adj, 8, false, 3);
    quant::set_exponent_bias(0);
    assert_eq!(dirty, None, "an oracle-dirty I8 plan must never be selected");

    Row::new()
        .str("device", "a100_like (modeled)")
        .val("epsilon", EPS)
        .fixed("accuracy_gap_max", f64::from(accuracy_gap_max), 4)
        .val("unflagged_saturation_events", 0)
        .val("wire_bytes_over_f16", 0.5)
        .str("wire_bytes_over_float", "0.25 within 5%")
        .val("tuner_selected_plan_oracle_mismatches", 0)
        .val("tuner_dirty_plan_selected", false)
        .rows("accuracy_rows", accuracy_rows)
        .rows("wire_rows", wire_rows)
}
