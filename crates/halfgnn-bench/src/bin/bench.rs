//! `bench` — run the acceptance suites. Each suite asserts its gates,
//! then writes its `BENCH_prN.json` in the current directory and prints
//! it to stdout; run from the repo root.
//!
//! ```text
//! bench <suite>... | all
//!
//! suites: exec tune fused shard replay minibatch serve one5d i8
//! ```
//!
//! Every name is checked before any suite runs: no name, or an unknown
//! one, exits 2.

use halfgnn_bench::suites;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let picked = suites::select(&args).unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        eprintln!("usage: bench <suite>... | all");
        eprintln!("  suites: {}", suites::names());
        exit(2)
    });
    for suite in picked {
        let json = suite.json();
        std::fs::write(suite.file, &json).unwrap_or_else(|e| panic!("write {}: {e}", suite.file));
        print!("{json}");
    }
}
