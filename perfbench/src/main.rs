//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints what the run measured, an environment block, and, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 2 on a bad argument.

use perfbench::report::result_line;
use perfbench::run::{run, Options};
use perfbench::workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
                workload = Some(
                    workload::by_name(value)
                        .ok_or_else(|| bad(&format!("one of {}", names.join(", "))))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from("perfbench/out"),
        threads: None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} (seed {}, {} s, trace {}): {}",
        opts.workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.workload.why
    );
    let out = run(&opts);
    for f in &out.checks.failures {
        println!("FAILED {f}");
    }
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics {
        println!("{:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("env {}", out.env.to_json());
    println!("{}", result_line(out.checks.attempted, out.checks.failed, &out.metrics));
    ExitCode::SUCCESS
}
