//! The warp-level charging API kernels program against.
//!
//! A kernel's functional work is ordinary Rust over slices; its
//! hardware-visible actions are *reported* through a [`WarpCtx`], which
//! decomposes them into the counters of [`crate::WarpCounters`]. The split
//! keeps the simulator precise about cost without forcing kernels through
//! an interpreter.

use crate::config::DeviceConfig;
use crate::counters::WarpCounters;
use crate::memory::sectors_contiguous;

/// Atomic operand width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicKind {
    /// 32-bit atomic add (native).
    F32,
    /// 16-bit atomic add (CAS loop on the containing 32-bit word).
    F16,
}

/// Charging handle for one warp.
///
/// When the launch runs under [`crate::ExecMode::Fast`], `live` is false
/// and every charging method returns before touching its arguments —
/// lazily-built address iterators are never consumed, so charging costs
/// nothing beyond the branch.
pub struct WarpCtx<'a> {
    counters: &'a mut WarpCounters,
    dev: &'a DeviceConfig,
    scratch: &'a mut Vec<u64>,
    live: bool,
}

impl<'a> WarpCtx<'a> {
    pub(crate) fn new(
        counters: &'a mut WarpCounters,
        dev: &'a DeviceConfig,
        scratch: &'a mut Vec<u64>,
        live: bool,
    ) -> WarpCtx<'a> {
        WarpCtx { counters, dev, scratch, live }
    }

    /// Report `n` non-finite (INF/NaN) values observed in this warp's
    /// functional output. Pure telemetry: feeds
    /// [`WarpCounters::nonfinite_values`] and costs no modeled cycles.
    pub fn nonfinite_values(&mut self, n: u64) {
        if !self.live {
            return;
        }
        self.counters.nonfinite_values += n;
    }

    /// Coalesced load of `count` contiguous elements of `elem_bytes` from
    /// `base`: `ceil(count*elem_bytes / (warp_size*elem_bytes))` load
    /// instructions, sector-exact traffic. This is the feature-parallel
    /// pattern (§2.1.3).
    pub fn load_contiguous(&mut self, base: u64, count: usize, elem_bytes: usize) {
        if !self.live {
            return;
        }
        if count == 0 {
            return;
        }
        let bytes = (count * elem_bytes) as u64;
        let lanes = self.dev.warp_size;
        self.counters.load_instrs += count.div_ceil(lanes) as u64;
        self.counters.sectors_loaded += sectors_contiguous(base, bytes, self.dev.sector_bytes);
        self.counters.useful_bytes_loaded += bytes;
    }

    /// Gathered load at arbitrary per-thread addresses (e.g. the naive
    /// repeated NZE fetch HalfGNN's phase-1 load replaces).
    pub fn load_gather(&mut self, addrs: impl IntoIterator<Item = u64>, elem_bytes: usize) {
        if !self.live {
            return;
        }
        let mut n = 0u64;
        let sector_bytes = self.dev.sector_bytes;
        self.scratch.clear();
        for a in addrs {
            n += 1;
            let first = a / sector_bytes;
            let last = (a + elem_bytes as u64 - 1) / sector_bytes;
            for s in first..=last {
                self.scratch.push(s);
            }
        }
        if n == 0 {
            return;
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        self.counters.sectors_loaded += self.scratch.len() as u64;
        self.counters.load_instrs += n.div_ceil(self.dev.warp_size as u64);
        self.counters.useful_bytes_loaded += n * elem_bytes as u64;
    }

    /// Coalesced store of `count` contiguous elements.
    pub fn store_contiguous(&mut self, base: u64, count: usize, elem_bytes: usize) {
        if !self.live {
            return;
        }
        if count == 0 {
            return;
        }
        let bytes = (count * elem_bytes) as u64;
        self.counters.store_instrs += count.div_ceil(self.dev.warp_size) as u64;
        self.counters.sectors_stored += sectors_contiguous(base, bytes, self.dev.sector_bytes);
        self.counters.useful_bytes_stored += bytes;
    }

    /// Feature-parallel load of several feature rows, `row_bytes` each,
    /// issued as `elem_bytes`-wide vector loads. Instruction count is
    /// computed over the *total* lanes, which models sub-warps (§4.1): with
    /// half2 and F=32 only 16 lanes are needed per row, so one warp
    /// instruction serves two rows.
    pub fn load_feature_rows(
        &mut self,
        bases: impl IntoIterator<Item = u64>,
        row_bytes: usize,
        elem_bytes: usize,
    ) {
        if !self.live {
            return;
        }
        let mut rows = 0u64;
        for b in bases {
            rows += 1;
            self.counters.sectors_loaded +=
                sectors_contiguous(b, row_bytes as u64, self.dev.sector_bytes);
        }
        if rows == 0 {
            return;
        }
        let lanes_per_row = (row_bytes / elem_bytes) as u64;
        let total_lanes = rows * lanes_per_row;
        self.counters.load_instrs += total_lanes.div_ceil(self.dev.warp_size as u64);
        self.counters.useful_bytes_loaded += rows * row_bytes as u64;
    }

    /// `n` warp float instructions.
    pub fn float_ops(&mut self, n: u64) {
        if !self.live {
            return;
        }
        self.counters.float_ops += n;
    }

    /// `n` warp half-intrinsic instructions (Fig. 3b).
    pub fn half_ops(&mut self, n: u64) {
        if !self.live {
            return;
        }
        self.counters.half_ops += n;
    }

    /// `n` warp half2 instructions (Fig. 3c: two values per lane-op).
    pub fn half2_ops(&mut self, n: u64) {
        if !self.live {
            return;
        }
        self.counters.half2_ops += n;
    }

    /// `n` h2f/f2h conversion instructions (the Fig. 3a tax and the
    /// mixed-precision data-conversion tax of §3.1.2).
    pub fn convert_ops(&mut self, n: u64) {
        if !self.live {
            return;
        }
        self.counters.convert_ops += n;
    }

    /// `rounds` of warp shuffle (inter-thread communication). Each round is
    /// an implicit memory barrier — the §5.1.1 observation.
    pub fn shuffle_rounds(&mut self, rounds: u64) {
        if !self.live {
            return;
        }
        self.counters.shuffles += rounds;
        self.counters.barriers += rounds;
    }

    /// `n` shared-memory access instructions.
    pub fn smem_accesses(&mut self, n: u64) {
        if !self.live {
            return;
        }
        self.counters.smem_accesses += n;
    }

    /// `count` atomic add instructions of the given width.
    /// `avg_conflict` is the expected number of other atomics contending
    /// for the same address (≥ 0): conflicting atomics serialize.
    pub fn atomic_add(&mut self, kind: AtomicKind, count: u64, avg_conflict: f64) {
        if !self.live {
            return;
        }
        let (base, conflict) = match kind {
            AtomicKind::F32 => {
                self.counters.atomics_f32 += count;
                // Native atomics pipeline in the L2 atomic unit: contention
                // cost saturates.
                (self.dev.cost.atomic_f32, avg_conflict.min(self.dev.cost.atomic_f32_conflict_cap))
            }
            AtomicKind::F16 => {
                self.counters.atomics_f16 += count;
                // CAS loops retry under contention: a much higher
                // saturation point than native atomics.
                (
                    self.dev.cost.atomic_f32 * self.dev.cost.atomic_f16_mult,
                    avg_conflict.min(self.dev.cost.atomic_f16_conflict_cap),
                )
            }
        };
        if conflict > 0.0 {
            self.counters.atomic_conflict_cycles += count as f64 * base * conflict;
        }
    }

    /// Explicit barrier not tied to a shuffle (e.g. after a cooperative
    /// shared-memory fill).
    pub fn barrier(&mut self) {
        if !self.live {
            return;
        }
        self.counters.barriers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_run(f: impl FnOnce(&mut WarpCtx)) -> WarpCounters {
        let dev = DeviceConfig::a100_like();
        let mut c = WarpCounters::default();
        let mut scratch = Vec::new();
        let mut w = WarpCtx::new(&mut c, &dev, &mut scratch, true);
        f(&mut w);
        c
    }

    #[test]
    fn contiguous_float_load_shape() {
        let c = ctx_run(|w| w.load_contiguous(0, 32, 4));
        assert_eq!(c.load_instrs, 1);
        assert_eq!(c.sectors_loaded, 4);
        assert_eq!(c.useful_bytes_loaded, 128);
    }

    #[test]
    fn scalar_half_load_moves_64_bytes() {
        // The paper's §4.1 observation: one warp of scalar half loads moves
        // only 64 bytes.
        let c = ctx_run(|w| w.load_contiguous(0, 32, 2));
        assert_eq!(c.load_instrs, 1);
        assert_eq!(c.sectors_loaded, 2);
        assert_eq!(c.useful_bytes_loaded, 64);
    }

    #[test]
    fn half2_load_restores_full_coalescing() {
        // 32 threads x half2 (4B) = 128 B in one instruction.
        let c = ctx_run(|w| w.load_contiguous(0, 32, 4));
        assert_eq!(c.sectors_loaded, 4);
    }

    #[test]
    fn half8_load_is_512_bytes_one_instruction() {
        let c = ctx_run(|w| w.load_contiguous(0, 32, 16));
        assert_eq!(c.load_instrs, 1);
        assert_eq!(c.sectors_loaded, 16);
        assert_eq!(c.useful_bytes_loaded, 512);
    }

    #[test]
    fn gather_counts_distinct_sectors() {
        let c = ctx_run(|w| w.load_gather((0..32u64).map(|i| i * 64), 2));
        assert_eq!(c.sectors_loaded, 32);
        assert_eq!(c.load_instrs, 1);
    }

    #[test]
    fn stores_and_ops_accumulate() {
        let c = ctx_run(|w| {
            w.store_contiguous(256, 64, 2);
            w.half2_ops(3);
            w.convert_ops(2);
            w.shuffle_rounds(4);
            w.smem_accesses(5);
        });
        assert_eq!(c.store_instrs, 2);
        assert_eq!(c.sectors_stored, 4);
        assert_eq!(c.half2_ops, 3);
        assert_eq!(c.convert_ops, 2);
        assert_eq!(c.shuffles, 4);
        assert_eq!(c.barriers, 4);
        assert_eq!(c.smem_accesses, 5);
    }

    #[test]
    fn atomic_conflict_serializes() {
        let free = ctx_run(|w| w.atomic_add(AtomicKind::F16, 10, 0.0));
        let contended = ctx_run(|w| w.atomic_add(AtomicKind::F16, 10, 8.0));
        let dev = DeviceConfig::a100_like();
        // Contention multiplies cost up to the CAS saturation cap.
        assert!(contended.warp_cycles(&dev) > 3.0 * free.warp_cycles(&dev));
    }

    #[test]
    fn dead_ctx_charges_nothing_and_skips_lazy_args() {
        let dev = DeviceConfig::a100_like();
        let mut c = WarpCounters::default();
        let mut scratch = Vec::new();
        let mut consumed = false;
        {
            let mut w = WarpCtx::new(&mut c, &dev, &mut scratch, false);
            w.load_gather(
                (0..4u64).map(|a| {
                    consumed = true;
                    a * 64
                }),
                2,
            );
            w.load_contiguous(0, 32, 4);
            w.half2_ops(100);
            w.atomic_add(AtomicKind::F16, 10, 8.0);
            w.barrier();
        }
        assert!(!consumed, "dead charging must not consume lazy address iterators");
        assert_eq!(c, WarpCounters::default());
    }
}
