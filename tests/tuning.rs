//! End-to-end autotuning: `TrainConfig::tuning` wired through the whole
//! trainer (satellites c/d, acceptance gates on Off/Auto equivalence).
//!
//! - `Off` is the default and dispatches the static plans — two runs are
//!   bit-identical, and `Auto` must stay within the oracle's tolerance of
//!   that trajectory (plans only pass the tuner if the oracle accepts
//!   their output, so training cannot drift further than the band).
//! - `Cached` round-trips plans through the JSON file: the second process
//!   re-evaluates nothing and reproduces the first's losses exactly.
//! - Tuning is invisible to the overflow record: a run that fills a cold
//!   cache records exactly what a run on the warm cache does.

use halfgnn::graph::datasets::Dataset;
use halfgnn::nn::trainer::{train, ModelKind, PrecisionMode, TrainConfig, Tuning};

fn cfg(model: ModelKind, tuning: Tuning, epochs: usize) -> TrainConfig {
    TrainConfig {
        model,
        precision: PrecisionMode::HalfGnn,
        epochs,
        hidden: 16,
        lr: 0.02,
        seed: 1,
        tuning,
        ..TrainConfig::default()
    }
}

#[test]
fn tuning_defaults_to_off_and_off_is_deterministic() {
    assert_eq!(TrainConfig::default().tuning, Tuning::Off);
    let data = Dataset::cora().load(42);
    let a = train(&data, &cfg(ModelKind::Gcn, Tuning::Off, 4));
    let b = train(&data, &cfg(ModelKind::Gcn, Tuning::Off, 4));
    assert_eq!(
        a.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        b.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
    );
    assert!(a.tuning_counters.is_none(), "Off must not instantiate a tuner");
}

#[test]
fn auto_tuning_stays_within_oracle_tolerance_of_off() {
    let data = Dataset::cora().load(42);
    let off = train(&data, &cfg(ModelKind::Gcn, Tuning::Off, 8));
    let auto = train(&data, &cfg(ModelKind::Gcn, Tuning::Auto, 8));
    assert!(auto.nan_epoch.is_none(), "tuned plans must not destabilize training");
    for (e, (a, b)) in off.losses.iter().zip(&auto.losses).enumerate() {
        assert!((a - b).abs() < 0.05 + 0.02 * a.abs(), "epoch {e}: off {a} vs auto {b}");
    }
    let c = auto.tuning_counters.expect("Auto must report plan-cache counters");
    assert!(c.misses > 0, "first epoch must tune");
    assert!(c.evaluations > c.misses, "each miss tries several candidates");
    // Epochs 1..7 re-resolve the same keys: hits dominate after warm-up.
    assert!(c.hits >= c.misses, "hits {} vs misses {}", c.hits, c.misses);
}

#[test]
fn auto_tuning_covers_gat_sddmm_dispatch() {
    let data = Dataset::cora().load(42);
    let r = train(&data, &cfg(ModelKind::Gat, Tuning::Auto, 2));
    assert!(r.nan_epoch.is_none());
    let c = r.tuning_counters.unwrap();
    // GAT resolves SpMMve (forward + backward feature dims) and SDDMM
    // keys: strictly more distinct plans than GCN's single-op pattern.
    assert!(c.misses >= 2, "GAT must tune both SpMMve and SDDMM, got {} misses", c.misses);
}

#[test]
fn cached_tuning_round_trips_through_the_json_file() {
    let dir = std::env::temp_dir().join("halfgnn-e2e-tuning");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plans.json");
    std::fs::remove_file(&path).ok();
    let tuning = Tuning::Cached(path.to_string_lossy().into_owned());

    let data = Dataset::cora().load(42);
    let first = train(&data, &cfg(ModelKind::Gcn, tuning.clone(), 3));
    assert!(path.exists(), "Cached mode must write the plan file");
    let c1 = first.tuning_counters.unwrap();
    assert!(c1.evaluations > 0, "cold cache must evaluate candidates");

    let second = train(&data, &cfg(ModelKind::Gcn, tuning, 3));
    let c2 = second.tuning_counters.unwrap();
    assert_eq!(c2.evaluations, 0, "warm cache must evaluate nothing");
    assert_eq!(c2.misses, 0, "every key must hit the loaded cache");
    assert_eq!(
        first.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        second.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "identical plans must reproduce identical losses"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_half1_sddmm_cache_entry_retunes_and_trains() {
    // SDDMM arithmetic is half2, so a cache naming half1 loads must be a
    // miss that re-tunes, not a plan that crashes the kernel.
    let dir = std::env::temp_dir().join("halfgnn-e2e-tuning-half1");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plans.json");
    std::fs::remove_file(&path).ok();
    let tuning = Tuning::Cached(path.to_string_lossy().into_owned());

    let data = Dataset::cora().load(42);
    let first = train(&data, &cfg(ModelKind::Gat, tuning.clone(), 2));
    let json = std::fs::read_to_string(&path).unwrap();
    let stale = ["half2", "half4", "half8"]
        .iter()
        .fold(json.clone(), |s, w| s.replace(&format!("\"sddmm:{w}:"), "\"sddmm:half1:"));
    assert_ne!(stale, json, "GAT must have cached an SDDMM plan: {json}");
    std::fs::write(&path, stale).unwrap();

    let second = train(&data, &cfg(ModelKind::Gat, tuning, 2));
    let c = second.tuning_counters.unwrap();
    assert!(c.misses > 0 && c.evaluations > 0, "the half1 entries must re-tune: {c:?}");
    assert_eq!(
        first.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        second.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "re-tuning picks the same plans"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_cold_plan_cache_records_the_same_overflow_windows_as_a_warm_one() {
    // The tuner's whole evaluation, its synthetic inputs included, runs in
    // its own overflow window, so filling the cache adds no conversion to
    // the epoch that tunes.
    let dir = std::env::temp_dir().join("halfgnn-e2e-tuning-record");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plans.json");
    std::fs::remove_file(&path).ok();
    let tuning = Tuning::Cached(path.to_string_lossy().into_owned());

    let data = Dataset::cora().load(42);
    let cold = train(&data, &cfg(ModelKind::Gat, tuning.clone(), 2));
    let warm = train(&data, &cfg(ModelKind::Gat, tuning, 2));
    assert!(cold.tuning_counters.unwrap().evaluations > 0, "the first run must tune");
    assert_eq!(warm.tuning_counters.unwrap().evaluations, 0, "the second must hit");
    assert!(cold.overflow_per_epoch[0].conversions > 0, "the recorder must be compiled in");
    assert_eq!(format!("{:?}", cold.overflow_per_epoch), format!("{:?}", warm.overflow_per_epoch));
    std::fs::remove_file(&path).ok();
}
