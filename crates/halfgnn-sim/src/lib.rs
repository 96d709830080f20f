//! A SIMT GPU **cost-model simulator**.
//!
//! The paper's kernels target an NVIDIA A100; this crate is the
//! substitution that lets them run and be *measured* on a CPU-only host.
//! Kernels execute functionally as ordinary Rust while reporting their
//! hardware-visible actions — global loads/stores, arithmetic by precision
//! path, shuffle rounds, shared memory traffic, atomics — to a per-warp
//! counter set. An analytical timing model turns the counters into modeled
//! cycles and the NCU-style utilization percentages that Figs. 10-11 of
//! the paper report.
//!
//! One launch body, [`launch::launch`], runs every kernel's CTAs through
//! the worker pool. The device's [`config::ExecMode`]
//! ([`config::DeviceConfig::exec`]) sets its thread count, whether
//! charging records and which clock the stats read: `Sim` runs on the
//! calling thread with live counters (the cost-model path above), `Fast`
//! runs on `threads` workers with charging off and reports measured
//! wall-clock instead of modeled cycles. Functional results are the same
//! in both.
//!
//! What the model captures (because the paper's claims rest on it):
//!
//! * **Memory coalescing** — every warp access is decomposed into 32-byte
//!   DRAM sectors. A warp of 2-byte scalar half loads moves 64 B per
//!   instruction (the paper's §4.1 observation); `half2` restores 128 B;
//!   `half8` reaches 512 B per instruction.
//! * **Issue cost & latency hiding** — loads have a per-instruction issue
//!   cost and a latency that is hidden in proportion to how many loads are
//!   in flight between barriers. Shuffle-based reductions are barriers, so
//!   fewer reduction rounds (half8 SDDMM) means better hiding (§5.1).
//! * **Arithmetic throughput by path** — Fig. 3: implicit-promotion half
//!   arithmetic pays conversion instructions, half intrinsics match float
//!   throughput, `half2` doubles it.
//! * **Atomics** — a 2-byte atomic is a CAS loop on the containing word,
//!   several times costlier than a float atomic, and serializes under
//!   conflicts (§5.2, Fig. 13).
//!
//! What it does not capture: caches beyond first-order reuse (kernels
//! charge shared-memory reuse explicitly), instruction scheduling detail,
//! and ECC/refresh effects. Absolute times are *modeled*; the paper-shape
//! comparisons derive from counter ratios, which are exact.

pub mod config;
pub mod counters;
pub mod interconnect;
pub mod latency;
pub mod launch;
pub mod memory;
pub mod warp;

pub use config::{CostModel, DeviceConfig, ExecMode};
pub use counters::{KernelStats, WarpCounters};
pub use interconnect::{
    CommEvent, CommsLedger, Interconnect, LinkStat, OverlapTimeline, Topology, TrafficClass,
};
pub use latency::{latency_stats, synth_trace, LatencyStats, Request, RequestTiming, TraceConfig};
pub use launch::{charge_only, launch, Cta, LaunchParams};
pub use warp::{AtomicKind, WarpCtx};
