//! Device geometry and the cost model.
//!
//! Constants are calibrated so the *ratios* between kernel designs land
//! where the paper measured them on an A100 (see EXPERIMENTS.md); absolute
//! cycle counts are a model, not a promise.

/// How kernel launches on a device execute. Both modes run the same
/// launch body ([`crate::launch::launch`]); they differ in thread count,
/// in whether charging records, and in which clock `KernelStats` reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Cost model: CTAs run on the calling thread with live counters and
    /// the launch reports modeled cycles. The default, and the mode every
    /// figure and oracle test uses.
    #[default]
    Sim,
    /// Throughput: CTAs run on `threads` pool workers with charging off
    /// and the launch reports measured wall-clock. `threads == 0` means
    /// auto-size from `HALFGNN_THREADS` / `available_parallelism()`.
    Fast {
        /// Worker threads; 0 = auto.
        threads: usize,
    },
}

impl ExecMode {
    /// Fast mode with auto-sized threads.
    pub fn fast() -> ExecMode {
        ExecMode::Fast { threads: 0 }
    }

    /// Fast mode pinned to exactly `threads` workers (useful for
    /// determinism tests and 1-thread baselines).
    pub fn fast_with_threads(threads: usize) -> ExecMode {
        ExecMode::Fast { threads }
    }
}

/// Per-action costs in cycles (per warp instruction unless noted).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Cycles per 32-byte DRAM sector moved by one warp — models the
    /// LSU/L2 throughput a warp can sustain.
    pub sector_cycles: f64,
    /// Issue cost of one global load instruction.
    pub load_issue: f64,
    /// Issue cost of one global store instruction.
    pub store_issue: f64,
    /// Global memory latency (hidden in proportion to loads in flight).
    pub mem_latency: f64,
    /// Maximum overlapped outstanding loads per warp (MLP limit).
    pub mlp_max: f64,
    /// How much of one warp's exposed latency co-resident warps hide.
    pub latency_hiding: f64,
    /// One warp float instruction (32 lanes).
    pub float_op: f64,
    /// One warp half-intrinsic instruction (32 lanes; same as float —
    /// Fig. 3b).
    pub half_op: f64,
    /// One warp half2 instruction (64 values — Fig. 3c doubles throughput).
    pub half2_op: f64,
    /// One h2f/f2h conversion instruction (the Fig. 3a overhead).
    pub convert_op: f64,
    /// One warp-wide shuffle round, including its implicit barrier.
    pub shuffle: f64,
    /// One warp shared-memory access.
    pub smem: f64,
    /// One CTA-wide __syncthreads().
    pub cta_barrier: f64,
    /// One warp atomic instruction on a 32-bit word (f32).
    pub atomic_f32: f64,
    /// Multiplier for 16-bit atomics (CAS loop on the containing word).
    pub atomic_f16_mult: f64,
    /// Contention saturation for *native* 32-bit atomics: the L2 atomic
    /// unit pipelines same-address adds, so serialization stops growing
    /// beyond this factor.
    pub atomic_f32_conflict_cap: f64,
    /// Contention saturation for CAS-loop 16-bit atomics: retries degrade
    /// far longer under contention before the L2 scheduler levels off.
    pub atomic_f16_conflict_cap: f64,
    /// Fixed kernel launch overhead in cycles.
    pub launch_overhead: f64,
    /// Slowdown factor from scheduler sharing at full occupancy: resident
    /// warps per SM divided by scheduler count (8 warps / 4 schedulers on
    /// an A100-like config).
    pub occupancy_stretch: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            sector_cycles: 4.0,
            load_issue: 8.0,
            store_issue: 6.0,
            mem_latency: 320.0,
            mlp_max: 8.0,
            latency_hiding: 4.0,
            float_op: 1.0,
            half_op: 1.0,
            half2_op: 1.0,
            convert_op: 1.0,
            shuffle: 6.0,
            smem: 1.0,
            cta_barrier: 20.0,
            atomic_f32: 10.0,
            atomic_f16_mult: 8.0,
            atomic_f32_conflict_cap: 4.0,
            atomic_f16_conflict_cap: 4.0,
            launch_overhead: 1500.0,
            occupancy_stretch: 2.0,
        }
    }
}

/// Simulated device geometry.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Human-readable device name.
    pub name: &'static str,
    /// Streaming multiprocessor count.
    pub num_sms: usize,
    /// Concurrently resident CTAs per SM (occupancy).
    pub ctas_per_sm: usize,
    /// Threads per warp (always 32 on NVIDIA hardware).
    pub warp_size: usize,
    /// Core clock in GHz (converts modeled cycles to time).
    pub clock_ghz: f64,
    /// Aggregate DRAM bandwidth in bytes per core cycle.
    pub dram_bytes_per_cycle: f64,
    /// DRAM sector size in bytes.
    pub sector_bytes: u64,
    /// Per-action costs.
    pub cost: CostModel,
    /// How launches on this device execute: cost-model simulation
    /// (default) or the real-threads fast path. The mode rides the device
    /// handle so kernel signatures stay execution-agnostic.
    pub exec: ExecMode,
}

impl DeviceConfig {
    /// An A100-40GB-like device: 108 SMs at 1.41 GHz, ~1555 GB/s DRAM.
    pub fn a100_like() -> DeviceConfig {
        DeviceConfig {
            name: "A100-like",
            num_sms: 108,
            ctas_per_sm: 2,
            warp_size: 32,
            clock_ghz: 1.41,
            // 1555 GB/s at 1.41 GHz ≈ 1103 B/cycle.
            dram_bytes_per_cycle: 1100.0,
            sector_bytes: 32,
            cost: CostModel::default(),
            exec: ExecMode::Sim,
        }
    }

    /// A deliberately tiny device for unit tests (2 SMs, 1 CTA each): wave
    /// effects become visible with small grids.
    pub fn tiny() -> DeviceConfig {
        DeviceConfig {
            name: "tiny",
            num_sms: 2,
            ctas_per_sm: 1,
            warp_size: 32,
            clock_ghz: 1.0,
            dram_bytes_per_cycle: 64.0,
            sector_bytes: 32,
            cost: CostModel::default(),
            exec: ExecMode::Sim,
        }
    }

    /// The same device with a different execution mode.
    pub fn with_exec(mut self, exec: ExecMode) -> DeviceConfig {
        self.exec = exec;
        self
    }

    /// The same device on the real-threads fast path with auto-sized
    /// workers: charging becomes a no-op and launch stats report measured
    /// wall-clock instead of modeled cycles.
    pub fn fast(self) -> DeviceConfig {
        self.with_exec(ExecMode::fast())
    }

    /// Concurrent CTA slots across the device (one scheduling "wave").
    pub fn wave_slots(&self) -> usize {
        self.num_sms * self.ctas_per_sm
    }

    /// Convert modeled cycles to microseconds.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_preset_sane() {
        let d = DeviceConfig::a100_like();
        assert_eq!(d.num_sms, 108);
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.wave_slots(), 216);
        // 1410 cycles = 1 us.
        assert!((d.cycles_to_us(1410.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exec_mode_defaults_to_sim() {
        assert_eq!(ExecMode::default(), ExecMode::Sim);
        assert_eq!(DeviceConfig::tiny().exec, ExecMode::Sim);
        assert_eq!(ExecMode::fast(), ExecMode::Fast { threads: 0 });
        assert_eq!(ExecMode::fast_with_threads(3), ExecMode::Fast { threads: 3 });
    }

    #[test]
    fn cost_model_half2_not_slower_than_half() {
        let c = CostModel::default();
        // half2 processes 2x the values per instruction at equal cost:
        // the Fig. 3 throughput ordering.
        assert!(c.half2_op <= c.half_op);
        assert!(c.atomic_f16_mult > 1.0);
    }
}
