//! The acceptance suites behind the `bench` binary. Each suite runs one
//! modeled sweep, asserts every gate on it, and returns the rows of the
//! `BENCH_prN.json` file it writes.

mod exec;
mod fused;
mod i8;
mod minibatch;
mod one5d;
mod replay;
mod serve;
mod shard;
mod tune;

use crate::row::Row;
use halfgnn_graph::datasets::{Dataset, LoadedDataset};
use halfgnn_graph::{gen, Csr};
use halfgnn_nn::trainer::TrainReport;

/// One suite: its command-line name, its output file and that file's
/// `"bench"` id.
pub struct Suite {
    /// Name on the `bench` command line.
    name: &'static str,
    /// File the suite writes, relative to the current directory.
    pub file: &'static str,
    /// The file's `"bench"` id.
    id: &'static str,
    run: fn() -> Row,
}

/// Every suite, in the order `bench all` runs them.
static SUITES: [Suite; 9] = [
    Suite { name: "exec", file: "BENCH_pr2.json", id: "pr2_execution_layers", run: exec::run },
    Suite { name: "tune", file: "BENCH_pr3.json", id: "pr3_kernel_autotuner", run: tune::run },
    Suite { name: "fused", file: "BENCH_pr4.json", id: "pr4_fused_attention", run: fused::run },
    Suite { name: "shard", file: "BENCH_pr5.json", id: "pr5_sharded_training", run: shard::run },
    Suite { name: "replay", file: "BENCH_pr6.json", id: "pr6_capture_replay", run: replay::run },
    Suite {
        name: "minibatch",
        file: "BENCH_pr7.json",
        id: "pr7_minibatch_streaming",
        run: minibatch::run,
    },
    Suite { name: "serve", file: "BENCH_pr8.json", id: "pr8_serving", run: serve::run },
    Suite {
        name: "one5d",
        file: "BENCH_pr9.json",
        id: "pr9_one5d_partition_halo_cache_overlap",
        run: one5d::run,
    },
    Suite { name: "i8", file: "BENCH_pr10.json", id: "pr10_i8_wire_and_kernels", run: i8::run },
];

impl Suite {
    /// Run the suite, asserting its gates, and render its file.
    pub fn json(&self) -> String {
        let mut row = Row::new().str("bench", self.id);
        row.0.extend((self.run)().0);
        row.to_json()
    }
}

/// The suite names, space-separated, for usage messages.
pub fn names() -> String {
    SUITES.iter().map(|s| s.name).collect::<Vec<_>>().join(" ")
}

/// Resolve command-line arguments to suites: `all`, or suite names.
/// Every argument is checked before any suite runs; the error names the
/// problem.
pub fn select(args: &[String]) -> Result<Vec<&'static Suite>, String> {
    if args.is_empty() {
        return Err("no suite named".to_string());
    }
    let mut picked = Vec::new();
    for arg in args {
        if arg == "all" {
            picked.extend(SUITES.iter());
        } else {
            let suite = SUITES.iter().find(|s| s.name == arg);
            picked.push(suite.ok_or_else(|| format!("unknown suite {arg}"))?);
        }
    }
    Ok(picked)
}

/// The 3,000-vertex kernel graphs `tune` and `fused` sweep: a low-skew
/// Erdős–Rényi graph and a power-law preferential-attachment graph.
fn kernel_graphs() -> [(&'static str, Csr); 2] {
    [
        ("er_low_skew", gen::erdos_renyi(3_000, 18_000, 7)),
        ("powerlaw", gen::preferential_attachment(3_000, 10, 7)),
    ]
    .map(|(name, edges)| {
        (name, Csr::from_edges(3_000, 3_000, &edges).symmetrized_with_self_loops())
    })
}

/// The two training regimes most suites sweep: `low_skew`, an SBM stand-in,
/// and the power-law Hollywood09 stand-in.
fn regimes(low_skew: Dataset) -> [(&'static str, LoadedDataset); 2] {
    [("sbm_low_skew", low_skew.load(42)), ("powerlaw", Dataset::hollywood09().load(42))]
}

/// Non-finite conversions over the whole run.
fn overflow_events(r: &TrainReport) -> u64 {
    r.overflow_per_epoch.iter().map(|s| s.nonfinite()).sum()
}

/// The run's losses as bits, for bitwise comparisons.
fn loss_bits(r: &TrainReport) -> Vec<u32> {
    r.losses.iter().map(|l| l.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_table_is_pinned() {
        let table: Vec<_> = SUITES.iter().map(|s| (s.name, s.file, s.id)).collect();
        assert_eq!(
            table,
            [
                ("exec", "BENCH_pr2.json", "pr2_execution_layers"),
                ("tune", "BENCH_pr3.json", "pr3_kernel_autotuner"),
                ("fused", "BENCH_pr4.json", "pr4_fused_attention"),
                ("shard", "BENCH_pr5.json", "pr5_sharded_training"),
                ("replay", "BENCH_pr6.json", "pr6_capture_replay"),
                ("minibatch", "BENCH_pr7.json", "pr7_minibatch_streaming"),
                ("serve", "BENCH_pr8.json", "pr8_serving"),
                ("one5d", "BENCH_pr9.json", "pr9_one5d_partition_halo_cache_overlap"),
                ("i8", "BENCH_pr10.json", "pr10_i8_wire_and_kernels"),
            ]
        );
    }

    #[test]
    fn select_expands_all_and_keeps_argument_order() {
        let picked = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            select(&args).map(|s| s.iter().map(|s| s.name).collect::<Vec<_>>().join(" "))
        };
        assert_eq!(picked(&["all"]), Ok(names()));
        assert_eq!(picked(&["i8", "tune"]), Ok("i8 tune".to_string()));
        assert_eq!(picked(&[]), Err("no suite named".to_string()));
        assert_eq!(picked(&["tune", "bogus"]), Err("unknown suite bogus".to_string()));
    }
}
