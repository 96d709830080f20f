//! The benchmark's own checks: metric names and their agreement with
//! `BENCHMARK.json`, determinism across runs and thread counts, and that
//! the seed reaches the generated inputs. Each runs the real workloads on
//! the small Cora graph for one call.

use halfgnn_graph::datasets::Dataset;
use perfbench::report::{valid_name, Metric};
use perfbench::run::{run, Options, Outcome};
use perfbench::workload::{self, Workload};
use std::path::PathBuf;
use std::process::Command;

fn run_small(w: &Workload, seed: u64, trace: bool, threads: usize, tag: &str) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", w.name));
    let out = run(&Options {
        workload: w.clone().with_dataset(Dataset::cora()),
        seed,
        seconds: 0.01,
        trace,
        out_dir,
        threads: Some(threads),
    });
    assert_eq!(out.checks.failed, 0, "{}: {:?}", w.name, out.checks.failures);
    out
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no metric {name}")).value
}

/// Lines of one list in `BENCHMARK.json`, which writes one entry a line.
fn spec_section(key: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("no {key}"));
    let body = &text[start..];
    let end = body.find(']').expect("list closes");
    let lines = body[..end].lines().skip(1).map(|l| l.trim().trim_end_matches(',').to_string());
    lines.filter(|l| !l.is_empty()).collect()
}

/// Which way a metric improves: up for accuracy, hit ratios, hits, values
/// quantized and overhead saved; down for everything else.
fn better(name: &str) -> &'static str {
    const HIGHER: [&str; 5] = [
        "nn.test_acc",
        "nn.dist.halo_cache_hit_ratio",
        "tune.hits",
        "half.quant.values",
        "exec.saved_launch_us",
    ];
    if HIGHER.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

fn spec_entry(m: &Metric) -> String {
    format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        m.name,
        m.unit,
        better(&m.name)
    )
}

fn assert_listed(metrics: &[Metric], key: &str) {
    let spec = spec_section(key);
    assert_eq!(spec.len(), metrics.len(), "{key} lists every reported metric and no other");
    for m in metrics {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        let entry = spec_entry(m);
        assert!(spec.iter().any(|l| l.starts_with(&entry)), "{entry} missing from {key}");
    }
}

#[test]
fn every_metric_is_validly_named_and_listed_in_benchmark_json() {
    let workloads = spec_section("workloads");
    assert_eq!(workloads.len(), workload::all().len());
    for w in workload::all() {
        let line = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
        assert!(workloads.contains(&line), "{line} missing from workloads");
        assert_listed(&run_small(&w, 3, false, 1, "names").metrics, "end_to_end");
        assert_listed(&run_small(&w, 3, true, 1, "names").metrics, "per_layer");
    }
}

/// Metrics that are pure functions of the seed: modeled time, modeled
/// memory, counts, ratios and losses.
fn deterministic(metrics: &[Metric]) -> Vec<(String, u64)> {
    let pure = |m: &&Metric| {
        matches!(m.unit, "modeled_us" | "count" | "ratio" | "loss")
            || m.name == "peak_mem_mib"
            || m.name.starts_with("nn.dist.")
            || m.name == "kernels.dram_mib"
    };
    metrics.iter().filter(pure).map(|m| (m.name.clone(), m.value.to_bits())).collect()
}

#[test]
fn deterministic_metrics_repeat_across_runs_and_thread_counts() {
    for w in workload::all() {
        for trace in [false, true] {
            let first = deterministic(&run_small(&w, 5, trace, 1, "det-a").metrics);
            let again = deterministic(&run_small(&w, 5, trace, 1, "det-b").metrics);
            let two = deterministic(&run_small(&w, 5, trace, 2, "det-c").metrics);
            assert!(!first.is_empty());
            assert_eq!(first, again, "{} trace={trace}: second run differs", w.name);
            assert_eq!(first, two, "{} trace={trace}: 2 threads differ from 1", w.name);
        }
    }
}

#[test]
fn a_different_seed_changes_final_loss() {
    for w in workload::all() {
        let a = value(&run_small(&w, 1, true, 1, "seed-a").metrics, "nn.final_loss");
        let b = value(&run_small(&w, 2, true, 1, "seed-b").metrics, "nn.final_loss");
        assert_ne!(a.to_bits(), b.to_bits(), "{}: the seed must reach the inputs", w.name);
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        vec!["--workload", "no-such-workload"],
        vec!["--seed", "1"],
        vec!["--workload", "fullbatch-gat", "--trace", "2"],
        vec!["--workload", "fullbatch-gat", "--seconds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(&args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
