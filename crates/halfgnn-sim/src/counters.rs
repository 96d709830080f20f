//! Per-warp event counters and aggregated kernel statistics.

use crate::config::DeviceConfig;

/// Everything one warp did, in hardware-visible units.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarpCounters {
    /// Global load instructions issued.
    pub load_instrs: u64,
    /// Global store instructions issued.
    pub store_instrs: u64,
    /// 32-byte sectors moved by loads.
    pub sectors_loaded: u64,
    /// 32-byte sectors moved by stores.
    pub sectors_stored: u64,
    /// Bytes the kernel actually consumed (for load efficiency).
    pub useful_bytes_loaded: u64,
    /// Bytes the kernel actually produced.
    pub useful_bytes_stored: u64,
    /// Warp float instructions.
    pub float_ops: u64,
    /// Warp half-intrinsic instructions (Fig. 3b path).
    pub half_ops: u64,
    /// Warp half2 SIMD instructions (Fig. 3c path).
    pub half2_ops: u64,
    /// h2f/f2h conversion instructions (Fig. 3a overhead).
    pub convert_ops: u64,
    /// Warp shuffle rounds (each is an implicit memory barrier).
    pub shuffles: u64,
    /// Barriers observed (shuffle rounds + explicit CTA barriers).
    pub barriers: u64,
    /// Shared-memory access instructions.
    pub smem_accesses: u64,
    /// 32-bit atomic instructions.
    pub atomics_f32: u64,
    /// 16-bit atomic instructions (CAS-loop emulated).
    pub atomics_f16: u64,
    /// Extra serialization cycles charged by atomic conflicts.
    pub atomic_conflict_cycles: f64,
    /// Non-finite (INF/NaN) values this warp produced in its functional
    /// output — numeric-health telemetry (§3.1.3 overflow tracking), not a
    /// timing input.
    pub nonfinite_values: u64,
}

impl WarpCounters {
    /// Merge another warp's counters into this one.
    pub fn merge(&mut self, o: &WarpCounters) {
        self.load_instrs += o.load_instrs;
        self.store_instrs += o.store_instrs;
        self.sectors_loaded += o.sectors_loaded;
        self.sectors_stored += o.sectors_stored;
        self.useful_bytes_loaded += o.useful_bytes_loaded;
        self.useful_bytes_stored += o.useful_bytes_stored;
        self.float_ops += o.float_ops;
        self.half_ops += o.half_ops;
        self.half2_ops += o.half2_ops;
        self.convert_ops += o.convert_ops;
        self.shuffles += o.shuffles;
        self.barriers += o.barriers;
        self.smem_accesses += o.smem_accesses;
        self.atomics_f32 += o.atomics_f32;
        self.atomics_f16 += o.atomics_f16;
        self.atomic_conflict_cycles += o.atomic_conflict_cycles;
        self.nonfinite_values += o.nonfinite_values;
    }

    /// Total DRAM sectors in either direction.
    pub fn sectors(&self) -> u64 {
        self.sectors_loaded + self.sectors_stored
    }

    /// Cycles this warp spends doing useful, pipelined work: the larger of
    /// its compute stream and its memory-throughput stream (they overlap).
    pub fn warp_busy_cycles(&self, dev: &DeviceConfig) -> f64 {
        let c = &dev.cost;
        let compute = self.float_ops as f64 * c.float_op
            + self.half_ops as f64 * c.half_op
            + self.half2_ops as f64 * c.half2_op
            + self.convert_ops as f64 * c.convert_op
            + self.smem_accesses as f64 * c.smem;
        let mem_throughput = self.sectors() as f64 * c.sector_cycles
            + self.load_instrs as f64 * c.load_issue
            + self.store_instrs as f64 * c.store_issue;
        compute.max(mem_throughput)
    }

    /// Modeled execution cycles for this warp:
    /// `busy + exposed-latency + reduction + atomic`.
    ///
    /// Exposed latency: a warp needs at least `ceil(loads/MLP)` latency
    /// periods to stream its loads; barriers (every shuffle round is one)
    /// break pipelining, adding up to one latency event per
    /// barrier-delimited interval that still has loads pending. Co-resident
    /// warps hide most of it (`latency_hiding` in the cost model), which is
    /// why fewer reduction rounds (half8 SDDMM) help without making each
    /// round ruinous.
    pub fn warp_cycles(&self, dev: &DeviceConfig) -> f64 {
        let c = &dev.cost;
        let stall = if self.load_instrs == 0 {
            0.0
        } else {
            let pipelined = (self.load_instrs as f64 / c.mlp_max).ceil();
            let barrier_limited = ((self.barriers + 1) as f64).min(self.load_instrs as f64);
            pipelined.max(barrier_limited) * c.mem_latency / c.latency_hiding.max(1.0)
        };
        let reduction = self.shuffles as f64 * c.shuffle;
        let atomic = self.atomics_f32 as f64 * c.atomic_f32
            + self.atomics_f16 as f64 * c.atomic_f32 * c.atomic_f16_mult
            + self.atomic_conflict_cycles;
        self.warp_busy_cycles(dev) + stall + reduction + atomic
    }
}

/// Aggregated result of one kernel launch.
#[derive(Clone, Debug)]
pub struct KernelStats {
    /// Kernel name (for reports).
    pub name: String,
    /// Number of CTAs launched.
    pub num_ctas: usize,
    /// Warps per CTA.
    pub warps_per_cta: usize,
    /// Sum of all warps' counters.
    pub totals: WarpCounters,
    /// Modeled kernel duration in cycles.
    pub cycles: f64,
    /// Modeled kernel duration in microseconds.
    pub time_us: f64,
    /// Achieved DRAM bandwidth as % of peak (NCU "memory throughput").
    pub mem_bw_utilization: f64,
    /// Compute issue-slot occupancy as % (NCU "SM throughput").
    pub sm_utilization: f64,
    /// Launch-overhead charges folded into `cycles`: 1 per kernel, summed
    /// by [`Self::then`]. Replay strips exactly this many (the CUDA-graph
    /// effect) via [`Self::without_launch_overhead`].
    pub launches: usize,
}

impl KernelStats {
    /// Build the aggregate from per-CTA times and merged counters.
    /// `busy_cycles` / `warp_cycles_total` are Σ over all warps of
    /// [`WarpCounters::warp_busy_cycles`] / [`WarpCounters::warp_cycles`].
    pub fn from_ctas(
        name: &str,
        dev: &DeviceConfig,
        warps_per_cta: usize,
        cta_times: &[f64],
        totals: WarpCounters,
        busy_cycles: f64,
        warp_cycles_total: f64,
    ) -> KernelStats {
        let slots = dev.wave_slots().max(1);
        // Wave model: CTAs are scheduled in waves of `slots`; a wave lasts
        // as long as its slowest CTA.
        let mut sm_cycles = 0.0;
        for wave in cta_times.chunks(slots) {
            sm_cycles += wave.iter().copied().fold(0.0f64, f64::max);
        }
        // Device-wide DRAM floor: the whole kernel cannot finish faster
        // than its total traffic at peak bandwidth.
        let total_bytes = (totals.sectors() * dev.sector_bytes) as f64;
        let mem_floor = total_bytes / dev.dram_bytes_per_cycle;
        let cycles = sm_cycles.max(mem_floor) + dev.cost.launch_overhead;
        let time_us = dev.cycles_to_us(cycles);
        let mem_bw_utilization = if cycles > 0.0 {
            100.0 * (total_bytes / cycles) / dev.dram_bytes_per_cycle
        } else {
            0.0
        };
        // SM% as the busy fraction: time warps spend streaming work rather
        // than stalled on latency, barriers, or (especially) atomics —
        // which is what separates the systems in the paper's Fig. 10.
        let sm_utilization = if warp_cycles_total > 0.0 {
            (100.0 * busy_cycles / warp_cycles_total).min(100.0)
        } else {
            0.0
        };
        KernelStats {
            name: name.to_string(),
            num_ctas: cta_times.len(),
            warps_per_cta,
            totals,
            cycles,
            time_us,
            mem_bw_utilization,
            sm_utilization,
            launches: 1,
        }
    }

    /// Stats for a wall-clock-measured launch ([`crate::ExecMode::Fast`]):
    /// no modeled cycles, no counters, `time_us` is elapsed real time.
    pub fn wallclock(
        name: &str,
        num_ctas: usize,
        warps_per_cta: usize,
        elapsed: std::time::Duration,
    ) -> KernelStats {
        KernelStats {
            name: name.to_string(),
            num_ctas,
            warps_per_cta,
            totals: WarpCounters::default(),
            cycles: 0.0,
            time_us: elapsed.as_secs_f64() * 1e6,
            mem_bw_utilization: 0.0,
            sm_utilization: 0.0,
            launches: 1,
        }
    }

    /// Replay accounting (the CUDA-graph effect): strip the per-launch
    /// overhead folded into `cycles` — once per composed launch — and
    /// return the adjusted stats plus the modeled cycles saved. Wall-clock
    /// stats carry no modeled cycles and pass through unchanged (the Fast
    /// mode's replay win is the skipped dispatch/tuner work, not
    /// modeled time).
    pub fn without_launch_overhead(&self, dev: &DeviceConfig) -> (KernelStats, f64) {
        if self.cycles <= 0.0 || self.launches == 0 {
            return (self.clone(), 0.0);
        }
        let saved = (dev.cost.launch_overhead * self.launches as f64).min(self.cycles);
        let mut out = self.clone();
        out.cycles = self.cycles - saved;
        out.time_us = dev.cycles_to_us(out.cycles);
        out.launches = 0;
        let total_bytes = (self.totals.sectors() * dev.sector_bytes) as f64;
        out.mem_bw_utilization = if out.cycles > 0.0 {
            (100.0 * (total_bytes / out.cycles) / dev.dram_bytes_per_cycle).min(100.0)
        } else {
            0.0
        };
        (out, saved)
    }

    /// Total DRAM bytes moved.
    pub fn dram_bytes(&self) -> u64 {
        self.totals.sectors() * 32
    }

    /// Combine two kernel stats sequentially (e.g. main + follow-up
    /// kernel): times add, counters merge, utilization is re-averaged by
    /// time weight. Wall-clock stats (zero modeled cycles on both sides)
    /// compose without producing NaN weights.
    pub fn then(&self, next: &KernelStats) -> KernelStats {
        let mut totals = self.totals.clone();
        totals.merge(&next.totals);
        let cycles = self.cycles + next.cycles;
        let time_us = self.time_us + next.time_us;
        let (w0, w1) =
            if cycles > 0.0 { (self.cycles / cycles, next.cycles / cycles) } else { (0.0, 0.0) };
        KernelStats {
            name: format!("{}+{}", self.name, next.name),
            num_ctas: self.num_ctas + next.num_ctas,
            warps_per_cta: self.warps_per_cta,
            totals,
            cycles,
            time_us,
            mem_bw_utilization: self.mem_bw_utilization * w0 + next.mem_bw_utilization * w1,
            sm_utilization: self.sm_utilization * w0 + next.sm_utilization * w1,
            launches: self.launches + next.launches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceConfig {
        DeviceConfig::tiny()
    }

    #[test]
    fn merge_adds_fields() {
        let mut a =
            WarpCounters { load_instrs: 3, sectors_loaded: 12, half2_ops: 5, ..Default::default() };
        let b =
            WarpCounters { load_instrs: 2, sectors_loaded: 4, shuffles: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.load_instrs, 5);
        assert_eq!(a.sectors_loaded, 16);
        assert_eq!(a.half2_ops, 5);
        assert_eq!(a.shuffles, 7);
    }

    #[test]
    fn warp_cycles_monotone_in_work() {
        let d = dev();
        let small =
            WarpCounters { load_instrs: 4, sectors_loaded: 16, float_ops: 8, ..Default::default() };
        let mut big = small.clone();
        big.sectors_loaded = 64;
        big.float_ops = 64;
        assert!(big.warp_cycles(&d) > small.warp_cycles(&d));
    }

    #[test]
    fn more_barriers_expose_more_latency() {
        let d = dev();
        let few = WarpCounters { load_instrs: 64, barriers: 4, shuffles: 0, ..Default::default() };
        let many =
            WarpCounters { load_instrs: 64, barriers: 32, shuffles: 0, ..Default::default() };
        assert!(many.warp_cycles(&d) > few.warp_cycles(&d));
    }

    #[test]
    fn half_atomics_cost_more_than_float() {
        let d = dev();
        let f32a = WarpCounters { atomics_f32: 100, ..Default::default() };
        let f16a = WarpCounters { atomics_f16: 100, ..Default::default() };
        assert!(f16a.warp_cycles(&d) > 2.0 * f32a.warp_cycles(&d));
    }

    #[test]
    fn wave_model_counts_waves() {
        let d = dev(); // 2 slots
        let totals = WarpCounters::default();
        // 4 equal CTAs on 2 slots: 2 waves.
        let s = KernelStats::from_ctas(
            "k",
            &d,
            1,
            &[100.0, 100.0, 100.0, 100.0],
            totals.clone(),
            0.0,
            0.0,
        );
        let one = KernelStats::from_ctas("k", &d, 1, &[100.0, 100.0], totals, 0.0, 0.0);
        assert!((s.cycles - one.cycles - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mem_floor_binds_when_traffic_is_huge() {
        let d = dev(); // 64 B/cycle
        let totals = WarpCounters { sectors_loaded: 1_000_000, ..Default::default() };
        let s = KernelStats::from_ctas("k", &d, 1, &[10.0], totals, 0.0, 0.0);
        let floor = 1_000_000.0 * 32.0 / 64.0;
        assert!(s.cycles >= floor);
        assert!(s.mem_bw_utilization > 90.0);
    }

    #[test]
    fn utilization_bounded() {
        let d = dev();
        let totals = WarpCounters { float_ops: 10, sectors_loaded: 5, ..Default::default() };
        let s = KernelStats::from_ctas("k", &d, 1, &[50.0], totals, 25.0, 50.0);
        assert!(s.mem_bw_utilization >= 0.0 && s.mem_bw_utilization <= 100.0);
        assert!(s.sm_utilization >= 0.0 && s.sm_utilization <= 100.0);
    }

    #[test]
    fn then_composes_sequentially() {
        let d = dev();
        let a = KernelStats::from_ctas(
            "a",
            &d,
            1,
            &[100.0],
            WarpCounters { sectors_loaded: 10, ..Default::default() },
            0.0,
            0.0,
        );
        let b = KernelStats::from_ctas(
            "b",
            &d,
            1,
            &[200.0],
            WarpCounters { sectors_loaded: 20, ..Default::default() },
            0.0,
            0.0,
        );
        let c = a.then(&b);
        assert!((c.cycles - a.cycles - b.cycles).abs() < 1e-9);
        assert_eq!(c.totals.sectors_loaded, 30);
        assert_eq!(c.name, "a+b");
    }

    #[test]
    fn launch_overhead_strips_once_per_composed_launch() {
        let d = dev();
        let mk = |name: &str| {
            KernelStats::from_ctas(
                name,
                &d,
                1,
                &[500.0],
                WarpCounters { sectors_loaded: 10, ..Default::default() },
                0.0,
                0.0,
            )
        };
        let pair = mk("a").then(&mk("b"));
        assert_eq!(pair.launches, 2);
        let (stripped, saved) = pair.without_launch_overhead(&d);
        assert!((saved - 2.0 * d.cost.launch_overhead).abs() < 1e-9);
        assert!((stripped.cycles - (pair.cycles - saved)).abs() < 1e-9);
        assert!((stripped.time_us - d.cycles_to_us(stripped.cycles)).abs() < 1e-12);
        assert_eq!(stripped.launches, 0);
        // Idempotent once stripped.
        let (again, zero) = stripped.without_launch_overhead(&d);
        assert_eq!(zero, 0.0);
        assert_eq!(again.cycles, stripped.cycles);
        // Wall-clock stats pass through untouched.
        let w = KernelStats::wallclock("w", 1, 1, std::time::Duration::from_micros(5));
        let (w2, ws) = w.without_launch_overhead(&d);
        assert_eq!(ws, 0.0);
        assert!((w2.time_us - w.time_us).abs() < 1e-12);
    }

    #[test]
    fn wallclock_stats_compose_without_nan() {
        let a = KernelStats::wallclock("a", 4, 2, std::time::Duration::from_micros(30));
        let b = KernelStats::wallclock("b", 4, 2, std::time::Duration::from_micros(70));
        assert_eq!(a.cycles, 0.0);
        assert!((a.time_us - 30.0).abs() < 1e-9);
        let c = a.then(&b);
        assert!((c.time_us - 100.0).abs() < 1e-9);
        assert!(c.mem_bw_utilization == 0.0 && c.sm_utilization == 0.0);
        assert!(!c.mem_bw_utilization.is_nan() && !c.sm_utilization.is_nan());
    }
}
