//! Grid launch: the one body that runs a kernel closure once per CTA and
//! produces [`KernelStats`].
//!
//! Every launch sends its CTAs through the worker pool
//! (`rayon::pool::parallel_map`). [`DeviceConfig::exec`] picks the thread
//! count, whether charging records, and the clock the stats read:
//! [`ExecMode::Sim`] is one thread (the caller's) with live counters and
//! modeled cycles; [`ExecMode::Fast`] is `threads` workers with charging
//! off and measured wall-clock.
//!
//! The kernel closure receives a [`Cta`] for cost charging and returns an
//! arbitrary per-CTA value (typically a write list); the pool returns
//! those in CTA order and the caller commits them sequentially, which
//! keeps results deterministic and lets conflicting-write protocols
//! (staging buffer + follow-up kernel) be expressed safely at every
//! thread count.

use crate::config::{DeviceConfig, ExecMode};
use crate::counters::{KernelStats, WarpCounters};
use crate::warp::WarpCtx;
use std::sync::OnceLock;

/// Grid geometry of a launch.
#[derive(Clone, Copy, Debug)]
pub struct LaunchParams {
    /// Number of CTAs.
    pub num_ctas: usize,
    /// Warps per CTA.
    pub warps_per_cta: usize,
}

/// One cooperative thread array during execution: owns per-warp counters
/// and hands out warp charging handles.
pub struct Cta<'d> {
    /// This CTA's index in the grid.
    pub id: usize,
    dev: &'d DeviceConfig,
    warp_counters: Vec<WarpCounters>,
    scratch: Vec<u64>,
    /// Whether charging records anything. `false` under [`ExecMode::Fast`]:
    /// every charging call early-returns and lazy charging arguments are
    /// never consumed.
    live: bool,
}

/// One CTA's contribution to [`KernelStats`], extracted after the kernel
/// closure ran (live counters only).
pub(crate) struct CtaMeasure {
    pub(crate) cycles: f64,
    pub(crate) merged: WarpCounters,
    pub(crate) busy: f64,
    pub(crate) total: f64,
}

impl<'d> Cta<'d> {
    pub(crate) fn new(id: usize, dev: &'d DeviceConfig, warps: usize, live: bool) -> Cta<'d> {
        Cta {
            id,
            dev,
            warp_counters: vec![WarpCounters::default(); warps],
            scratch: Vec::new(),
            live,
        }
    }

    /// Charging handle for warp `w`.
    pub fn warp(&mut self, w: usize) -> WarpCtx<'_> {
        WarpCtx::new(&mut self.warp_counters[w], self.dev, &mut self.scratch, self.live)
    }

    /// CTA-wide `__syncthreads()`: every warp pays the barrier.
    pub fn barrier(&mut self) {
        if !self.live {
            return;
        }
        for c in &mut self.warp_counters {
            c.barriers += 1;
        }
        // The sync cost lands on the critical-path warp — the one with the
        // most cycles so far. CTA time is the max over warps, so charging a
        // fixed warp (the old behavior: always warp 0) made the barrier
        // vanish from the modeled duration whenever warp 0 was not the
        // slowest.
        let mut crit = 0;
        let mut crit_cycles = f64::NEG_INFINITY;
        for (i, w) in self.warp_counters.iter().enumerate() {
            let c = w.warp_cycles(self.dev);
            if c > crit_cycles {
                crit_cycles = c;
                crit = i;
            }
        }
        self.warp_counters[crit].atomic_conflict_cycles += self.dev.cost.cta_barrier;
    }

    /// Modeled CTA duration: slowest warp (warps run concurrently on the
    /// SM's schedulers).
    fn cta_cycles(&self) -> f64 {
        self.warp_counters.iter().map(|w| w.warp_cycles(self.dev)).fold(0.0f64, f64::max)
    }

    /// Extract this CTA's timing and counter contribution. Field order and
    /// arithmetic match the pre-refactor `launch` body exactly, keeping
    /// modeled numbers byte-for-byte stable.
    pub(crate) fn measure(&self) -> CtaMeasure {
        let cycles = self.cta_cycles() * self.dev.cost.occupancy_stretch;
        let mut merged = WarpCounters::default();
        let mut busy = 0.0;
        let mut total = 0.0;
        for w in &self.warp_counters {
            merged.merge(w);
            busy += w.warp_busy_cycles(self.dev);
            total += w.warp_cycles(self.dev);
        }
        CtaMeasure { cycles, merged, busy, total }
    }
}

/// Launch `kernel` over `params.num_ctas` CTAs. Returns the per-CTA
/// results in CTA order plus the launch's stats: modeled cycles under
/// [`ExecMode::Sim`], measured wall-clock in `time_us` (zero cycles, zero
/// counters) under [`ExecMode::Fast`]. Counters and cycles fold in CTA
/// order, so modeled numbers do not depend on scheduling.
pub fn launch<R, F>(
    dev: &DeviceConfig,
    name: &str,
    params: LaunchParams,
    kernel: F,
) -> (Vec<R>, KernelStats)
where
    R: Send,
    F: Fn(&mut Cta) -> R + Sync,
{
    let (threads, live) = match dev.exec {
        ExecMode::Sim => (1, true),
        ExecMode::Fast { threads } => (threads, false),
    };
    // One slot per CTA for its counters and cycles, when charging is live;
    // the results alone travel through the pool.
    let measures: Vec<OnceLock<CtaMeasure>> =
        if live { (0..params.num_ctas).map(|_| OnceLock::new()).collect() } else { Vec::new() };
    let start = std::time::Instant::now();
    let results = rayon::pool::parallel_map(vec![(); params.num_ctas], threads, |id, ()| {
        let mut cta = Cta::new(id, dev, params.warps_per_cta, live);
        let out = kernel(&mut cta);
        if let Some(slot) = measures.get(id) {
            let _ = slot.set(cta.measure());
        }
        out
    });
    if !live {
        let stats =
            KernelStats::wallclock(name, params.num_ctas, params.warps_per_cta, start.elapsed());
        return (results, stats);
    }
    let mut cta_times = Vec::with_capacity(params.num_ctas);
    let mut totals = WarpCounters::default();
    let (mut busy_sum, mut total_sum) = (0.0, 0.0);
    for slot in measures {
        let m = slot.into_inner().expect("every CTA is measured");
        cta_times.push(m.cycles);
        totals.merge(&m.merged);
        busy_sum += m.busy;
        total_sum += m.total;
    }
    let stats = KernelStats::from_ctas(
        name,
        dev,
        params.warps_per_cta,
        &cta_times,
        totals,
        busy_sum,
        total_sum,
    );
    (results, stats)
}

/// Log a launch whose CTAs only charge. Under [`ExecMode::Sim`] it runs,
/// and its charges are the modeled clock; under [`ExecMode::Fast`], where
/// charging is off and its CTAs would do nothing, it is logged with the
/// same name and grid and zero time, without entering the pool.
pub fn charge_only<F>(
    dev: &DeviceConfig,
    name: &str,
    params: LaunchParams,
    kernel: F,
) -> KernelStats
where
    F: Fn(&mut Cta) + Sync,
{
    match dev.exec {
        ExecMode::Sim => launch(dev, name, params, kernel).1,
        ExecMode::Fast { .. } => KernelStats::wallclock(
            name,
            params.num_ctas,
            params.warps_per_cta,
            std::time::Duration::ZERO,
        ),
    }
}

/// A deferred write set: `(start, values)` range-assignments plus
/// `(start, values)` range-accumulations, committed in CTA order.
///
/// This is how kernels return output safely from the parallel phase: a
/// well-formed kernel's `assign` ranges are disjoint across CTAs (the
/// non-conflicting writes of §5.2.3) while `add` ranges may overlap (the
/// staging-buffer path resolves them sequentially, mirroring the follow-up
/// kernel).
#[derive(Debug, Default)]
pub struct WriteList<T> {
    assigns: Vec<(usize, Vec<T>)>,
    adds: Vec<(usize, Vec<T>)>,
}

impl<T: Copy + std::ops::AddAssign> WriteList<T> {
    /// Empty write list.
    pub fn new() -> WriteList<T> {
        WriteList { assigns: Vec::new(), adds: Vec::new() }
    }

    /// Overwrite `out[start..start+values.len()]` at commit.
    pub fn assign(&mut self, start: usize, values: Vec<T>) {
        self.assigns.push((start, values));
    }

    /// Accumulate into `out[start..]` at commit.
    pub fn add(&mut self, start: usize, values: Vec<T>) {
        self.adds.push((start, values));
    }

    /// Number of deferred operations.
    pub fn len(&self) -> usize {
        self.assigns.len() + self.adds.len()
    }

    /// True when nothing is deferred.
    pub fn is_empty(&self) -> bool {
        self.assigns.is_empty() && self.adds.is_empty()
    }

    /// Apply to the output buffer: assigns first, then accumulations.
    pub fn commit(self, out: &mut [T]) {
        for (start, vals) in self.assigns {
            out[start..start + vals.len()].copy_from_slice(&vals);
        }
        for (start, vals) in self.adds {
            for (i, v) in vals.into_iter().enumerate() {
                out[start + i] += v;
            }
        }
    }

    /// The assign ranges, for overlap validation.
    pub fn assign_ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.assigns.iter().map(|(s, v)| (*s, *s + v.len()))
    }
}

/// Validate the §5.2.3 protocol invariant across a batch of per-CTA write
/// lists: *assign* ranges must be pairwise disjoint (a conflicting assign
/// means two CTAs both believed they owned a row — a kernel bug the real
/// GPU would express as a lost update). Returns the first overlapping pair
/// of ranges, if any.
pub fn find_assign_overlap<T: Copy + std::ops::AddAssign>(
    lists: &[WriteList<T>],
) -> Option<((usize, usize), (usize, usize))> {
    let mut ranges: Vec<(usize, usize)> = lists.iter().flat_map(|l| l.assign_ranges()).collect();
    ranges.sort_unstable();
    for w in ranges.windows(2) {
        if w[1].0 < w[0].1 {
            return Some((w[0], w[1]));
        }
    }
    None
}

/// Commit a batch of per-CTA write lists in CTA order.
pub fn commit_all<T: Copy + std::ops::AddAssign>(lists: Vec<WriteList<T>>, out: &mut [T]) {
    for l in lists {
        l.commit(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::AtomicKind;

    #[test]
    fn launch_runs_every_cta_in_order() {
        let dev = DeviceConfig::tiny();
        let (results, stats) =
            launch(&dev, "ids", LaunchParams { num_ctas: 7, warps_per_cta: 2 }, |cta| cta.id * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60]);
        assert_eq!(stats.num_ctas, 7);
        assert_eq!(stats.name, "ids");
    }

    #[test]
    fn counters_aggregate_across_ctas_and_warps() {
        let dev = DeviceConfig::tiny();
        let (_, stats) = launch(&dev, "k", LaunchParams { num_ctas: 3, warps_per_cta: 2 }, |cta| {
            for w in 0..2 {
                let mut warp = cta.warp(w);
                warp.load_contiguous(0, 32, 4);
                warp.half2_ops(5);
            }
        });
        assert_eq!(stats.totals.load_instrs, 6);
        assert_eq!(stats.totals.half2_ops, 30);
        assert_eq!(stats.totals.sectors_loaded, 24);
    }

    #[test]
    fn cta_time_is_max_over_warps() {
        let dev = DeviceConfig::tiny();
        // One warp does heavy compute, the other nothing: the CTA should
        // cost roughly the heavy warp, not the sum.
        let (_, heavy) = launch(&dev, "h", LaunchParams { num_ctas: 1, warps_per_cta: 2 }, |cta| {
            cta.warp(0).float_ops(10_000);
        });
        let (_, both) = launch(&dev, "b", LaunchParams { num_ctas: 1, warps_per_cta: 2 }, |cta| {
            cta.warp(0).float_ops(10_000);
            cta.warp(1).float_ops(10_000);
        });
        assert!((heavy.cycles - both.cycles).abs() < 1e-6);
    }

    #[test]
    fn atomics_lengthen_kernels() {
        let dev = DeviceConfig::tiny();
        let run = |atomic: bool| {
            let (_, s) = launch(&dev, "k", LaunchParams { num_ctas: 4, warps_per_cta: 1 }, |cta| {
                let mut w = cta.warp(0);
                w.load_contiguous(0, 64, 2);
                if atomic {
                    w.atomic_add(AtomicKind::F16, 64, 2.0);
                }
            });
            s.cycles
        };
        assert!(run(true) > run(false));
    }

    #[test]
    fn a_charge_only_launch_runs_under_sim_and_is_logged_under_fast() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let params = LaunchParams { num_ctas: 5, warps_per_cta: 3 };
        let ran = AtomicUsize::new(0);
        let kernel = |cta: &mut Cta| {
            ran.fetch_add(1, Ordering::Relaxed);
            cta.warp(cta.id % 3).half2_ops(7);
        };
        let dev = DeviceConfig::tiny();
        let sim = charge_only(&dev, "k", params, kernel);
        let (_, want) = launch(&dev, "k", params, kernel);
        assert_eq!(ran.swap(0, Ordering::Relaxed), 10, "Sim runs every CTA");
        assert_eq!(format!("{sim:?}"), format!("{want:?}"));
        for threads in [1, 2] {
            let fast = dev.clone().with_exec(ExecMode::fast_with_threads(threads));
            let s = charge_only(&fast, "k", params, kernel);
            assert_eq!(ran.load(Ordering::Relaxed), 0, "Fast runs no CTA");
            assert_eq!((s.name.as_str(), s.num_ctas, s.warps_per_cta, s.launches), ("k", 5, 3, 1));
            assert_eq!((s.cycles, s.time_us), (0.0, 0.0));
        }
    }

    #[test]
    fn write_list_assign_then_add() {
        let mut out = vec![0i64; 8];
        let mut wl = WriteList::new();
        wl.assign(2, vec![5, 6]);
        wl.add(3, vec![10, 20]);
        wl.commit(&mut out);
        assert_eq!(out, vec![0, 0, 5, 16, 20, 0, 0, 0]);
    }

    #[test]
    fn overlap_detector_finds_conflicting_assigns() {
        let mut a: WriteList<i64> = WriteList::new();
        a.assign(0, vec![1, 2, 3]);
        let mut b: WriteList<i64> = WriteList::new();
        b.assign(2, vec![9]);
        assert!(find_assign_overlap(&[a, b]).is_some());

        let mut c: WriteList<i64> = WriteList::new();
        c.assign(0, vec![1, 2, 3]);
        let mut d: WriteList<i64> = WriteList::new();
        d.assign(3, vec![9]);
        d.add(1, vec![5]); // adds may overlap freely
        assert!(find_assign_overlap(&[c, d]).is_none());
    }

    #[test]
    fn commit_all_is_cta_ordered() {
        let mut out = vec![0i64; 4];
        let mut a = WriteList::new();
        a.assign(0, vec![1, 1]);
        let mut b = WriteList::new();
        b.add(0, vec![2, 2]);
        commit_all(vec![a, b], &mut out);
        assert_eq!(out, vec![3, 3, 0, 0]);
    }

    #[test]
    fn cta_barrier_charges_all_warps() {
        let dev = DeviceConfig::tiny();
        let (_, s) = launch(&dev, "k", LaunchParams { num_ctas: 1, warps_per_cta: 4 }, |cta| {
            cta.barrier();
        });
        assert_eq!(s.totals.barriers, 4);
    }

    #[test]
    fn barrier_cost_lands_on_critical_path_warp() {
        // Two-warp skewed CTA: warp 0 does 100 float ops, warp 1 does 1000.
        // The barrier's 20 cycles must extend the slowest warp (warp 1),
        // not warp 0 where it would disappear under the max.
        let dev = DeviceConfig::tiny();
        let (_, s) = launch(&dev, "k", LaunchParams { num_ctas: 1, warps_per_cta: 2 }, |cta| {
            cta.warp(0).float_ops(100);
            cta.warp(1).float_ops(1000);
            cta.barrier();
        });
        // Critical path: 1000 float cycles + 20 barrier cycles, stretched
        // by occupancy (x2), plus fixed launch overhead (1500).
        let expect =
            (1000.0 + dev.cost.cta_barrier) * dev.cost.occupancy_stretch + dev.cost.launch_overhead;
        assert!((s.cycles - expect).abs() < 1e-9, "got {} want {expect}", s.cycles);
        // The old warp-0 attribution would have modeled 3500 cycles here.
        assert!((s.cycles - 3540.0).abs() < 1e-9);
    }

    #[test]
    fn every_mode_returns_the_same_results_in_cta_order() {
        let params = LaunchParams { num_ctas: 37, warps_per_cta: 2 };
        let kernel = |cta: &mut Cta| {
            cta.warp(0).half2_ops(4);
            cta.id * cta.id
        };
        let (want, _) = launch(&DeviceConfig::tiny(), "k", params, kernel);
        assert_eq!(want, (0..37).map(|i| i * i).collect::<Vec<_>>());
        for threads in [1, 2, 0] {
            let dev = DeviceConfig::tiny().with_exec(ExecMode::fast_with_threads(threads));
            assert_eq!(launch(&dev, "k", params, kernel).0, want, "threads={threads}");
        }
    }

    #[test]
    fn fast_mode_launch_matches_sim_results_with_dead_counters() {
        let sim_dev = DeviceConfig::tiny();
        let params = LaunchParams { num_ctas: 9, warps_per_cta: 2 };
        let kernel = |cta: &mut Cta| {
            let mut w = cta.warp(0);
            w.load_contiguous(0, 32, 4);
            w.float_ops(8);
            cta.barrier();
            cta.id + 1
        };
        let (sim_r, sim_s) = launch(&sim_dev, "k", params, kernel);
        let fast_dev = DeviceConfig::tiny().with_exec(ExecMode::fast_with_threads(3));
        let (fast_r, fast_s) = launch(&fast_dev, "k", params, kernel);
        assert_eq!(sim_r, fast_r);
        assert!(sim_s.cycles > 0.0);
        assert_eq!(fast_s.cycles, 0.0, "fast path reports wall-clock only");
        assert_eq!(fast_s.totals, WarpCounters::default(), "charging is a no-op");
    }
}
