//! Training benchmark for the halfgnn workspace.
//!
//! One run trains one workload (see [`workload::all`]) for a fixed number
//! of seconds and reports its end-to-end metrics on both clocks: measured
//! wall time of `train_on` under `ExecMode::Fast`, and modeled A100 time
//! from an `ExecMode::Sim` run of the same configuration. A traced run
//! re-drives the same epochs through the library's public functions with a
//! span around every layer call and reports per-layer rows instead.
//! `METRICS.md` describes every metric.

pub mod report;
pub mod run;
pub mod trace;
pub mod traced;
pub mod workload;
