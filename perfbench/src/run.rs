//! One benchmark run: set-up, timed `train_on` calls, the Sim reference
//! run, correctness checks, and — when traced — the traced calls and the
//! per-layer rows.

use crate::report::{fastest, median, peak_rss_mib, Env, Metric};
use crate::trace::{self, Tracer, FAMILIES, SPAN_ROWS};
use crate::traced::{self, TracedCall};
use crate::workload::Workload;
use halfgnn_graph::datasets::LoadedDataset;
use halfgnn_nn::trainer::{train_on, ExecMode, TrainConfig, TrainReport};
use halfgnn_sim::DeviceConfig;
use halfgnn_tune::TunerCounters;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up repeats at least this many times per run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;

/// Cheap set-ups repeat (up to `SETUP_MAX_REPS` times) until they have
/// taken this many seconds. A shared host switches between fast and slow
/// spells lasting a fraction of a second each; spreading the set-ups over
/// several spells keeps their median from landing on whichever one a short
/// window happened to catch.
pub const SETUP_MIN_S: f64 = 2.0;

/// Most set-ups in one run.
pub const SETUP_MAX_REPS: usize = 101;

/// Largest gap, as a share of the traced wall, between the summed span
/// rows and the traced wall before the reconciliation check fails.
pub const WALL_TOLERANCE: f64 = 0.01;

/// Largest relative gap between the summed Sim family rows and
/// `modeled_epoch_us`.
pub const MODELED_TOLERANCE: f64 = 1e-9;

const MIB: f64 = 1024.0 * 1024.0;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated graph, features, labels and parameters.
    pub seed: u64,
    /// Seconds of timed calls (split between untraced and traced calls
    /// when tracing).
    pub seconds: f64,
    /// Whether to run the traced calls and report per-layer metrics.
    pub trace: bool,
    /// Directory for the plan cache and the span file.
    pub out_dir: PathBuf,
    /// Worker threads, overriding the workload's own count.
    pub threads: Option<usize>,
}

/// Epoch-level correctness bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Epochs run.
    pub attempted: u64,
    /// Epochs that failed a check.
    pub failed: u64,
    /// One line per failed epoch.
    pub failures: Vec<String>,
}

impl Checks {
    fn epoch(&mut self, what: String, errors: &[String]) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures.push(format!("{what}: {}", errors.join("; ")));
        }
    }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Host, threads and toolchain.
    pub env: Env,
    /// Epoch checks of the run.
    pub checks: Checks,
    /// End-to-end metrics untraced, per-layer metrics when traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines explaining the metrics.
    pub notes: Vec<String>,
}

/// Set-up work and its timings.
struct Setup {
    data: LoadedDataset,
    setup_s: Vec<f64>,
    load_s: Vec<f64>,
    warm_s: Vec<f64>,
    warm_counters: Option<TunerCounters>,
}

/// One timed `train_on` call.
struct Call {
    wall_s: f64,
    report: TrainReport,
}

impl Call {
    /// Wall time per epoch, in milliseconds.
    fn epoch_ms(&self) -> f64 {
        self.wall_s * 1e3 / self.report.losses.len() as f64
    }
}

/// Run `o` and collect its metrics.
pub fn run(o: &Options) -> Outcome {
    let w = &o.workload;
    let threads = o.threads.unwrap_or(w.threads);
    let dev = DeviceConfig::a100_like();
    std::fs::create_dir_all(&o.out_dir).expect("create the benchmark output directory");
    let plan_cache = o.out_dir.join(format!("plans-{}-{}.json", w.name, std::process::id()));
    let cfg = w.config(o.seed, ExecMode::fast_with_threads(threads), &plan_cache);

    let setup = set_up(w, &dev, &cfg, o.seed);
    let data = &setup.data;
    let budget = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let calls = timed_calls(&dev, data, &cfg, budget);
    let sim = train_on(&dev, data, &TrainConfig { exec: ExecMode::Sim, ..cfg.clone() });

    let mut checks = Checks::default();
    check_calls(w, &calls, &sim, &mut checks);
    let mut notes = vec![format!(
        "final_loss {} (loss), test_acc {} (ratio), identical on every call",
        sim.losses.last().copied().unwrap_or(f32::NAN),
        sim.test_accuracy
    )];
    let per_call: Vec<f64> = calls.iter().map(Call::epoch_ms).collect();
    // Other tenants of a shared host only ever add time to a call, in
    // bursts that can outlast a call; the fastest call is the steadiest
    // estimate of what the program itself costs.
    let epoch_wall_ms = fastest(&per_call);
    notes.push(format!(
        "epoch_wall_ms is the fastest of {} train_on calls of {} epochs (median {:.1} ms): {:.1?} ms",
        calls.len(),
        w.epochs,
        median(&per_call),
        per_call
    ));
    let modeled_epoch_us = if w.replays() { sim.replay_epoch_time_us } else { sim.epoch_time_us };
    let env = Env::current(threads, o.seed);
    let end_to_end = vec![
        Metric::new("epoch_wall_ms", "ms", epoch_wall_ms),
        Metric::new("setup_s", "s", median(&setup.setup_s)),
        Metric::new("modeled_epoch_us", "modeled_us", modeled_epoch_us),
        Metric::new("peak_mem_mib", "MiB", sim.peak_memory_bytes as f64 / MIB),
        Metric::new("host_rss_mib", "MiB", peak_rss_mib()),
    ];

    let metrics = if o.trace {
        let untraced = end_to_end.iter().map(|m| format!("{} {} {}", m.name, m.value, m.unit));
        notes.push(format!(
            "end-to-end (untraced calls): {}",
            untraced.collect::<Vec<_>>().join(", ")
        ));
        let traced = traced_calls(&dev, data, &cfg, o.seconds - budget);
        let layer = LayerInputs {
            w,
            dev: &dev,
            setup: &setup,
            calls: &calls,
            sim: &sim,
            modeled_epoch_us,
            epoch_wall_ms,
        };
        let (metrics, layer_notes) = per_layer(&layer, &traced, &mut checks);
        notes.extend(layer_notes);
        let spans = format!(
            "{{\"workload\":\"{}\",\"env\":{},\"epochs_per_call\":{},\"spans\":{}}}\n",
            w.name,
            env.to_json(),
            w.epochs,
            traced.tracer.to_json()
        );
        let path = o.out_dir.join(format!("trace-{}-seed{}.json", w.name, o.seed));
        match std::fs::write(&path, spans) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
        metrics
    } else {
        end_to_end
    };
    if sim.comms_overlapped_us > 0.0 {
        notes.push(format!("modeled_comms_us {} (modeled_us)", sim.comms_overlapped_us));
    }
    notes.push(format!(
        "failed_share {} ({} of {} epochs)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    ));
    let _ = std::fs::remove_file(&plan_cache);
    Outcome { env, checks, metrics, notes }
}

/// Load the dataset (and, for the tuned workload, warm the plan cache
/// with one epoch) repeatedly; the last dataset is kept.
fn set_up(w: &Workload, dev: &DeviceConfig, cfg: &TrainConfig, seed: u64) -> Setup {
    let (mut setup_s, mut load_s, mut warm_s) = (Vec::<f64>::new(), Vec::new(), Vec::new());
    let mut warm_counters = None;
    let mut data = None;
    while setup_s.len() < SETUP_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(data.take());
        let t = Instant::now();
        let d = w.dataset.load(seed);
        load_s.push(t.elapsed().as_secs_f64());
        if w.tuned() {
            if let halfgnn_nn::trainer::Tuning::Cached(path) = &cfg.tuning {
                let _ = std::fs::remove_file(path);
            }
            let tw = Instant::now();
            let r = train_on(dev, &d, &TrainConfig { epochs: 1, ..cfg.clone() });
            warm_s.push(tw.elapsed().as_secs_f64());
            warm_counters = r.tuning_counters;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        data = Some(d);
    }
    Setup { data: data.expect("at least one set-up"), setup_s, load_s, warm_s, warm_counters }
}

/// `train_on` calls, back to back, until `seconds` have passed (at least
/// one call).
fn timed_calls(
    dev: &DeviceConfig,
    data: &LoadedDataset,
    cfg: &TrainConfig,
    seconds: f64,
) -> Vec<Call> {
    let start = Instant::now();
    let mut calls = Vec::new();
    loop {
        let t = Instant::now();
        let report = train_on(dev, data, cfg);
        calls.push(Call { wall_s: t.elapsed().as_secs_f64(), report });
        if start.elapsed().as_secs_f64() >= seconds {
            return calls;
        }
    }
}

/// Check every epoch of every timed call against the Sim run.
fn check_calls(w: &Workload, calls: &[Call], sim: &TrainReport, checks: &mut Checks) {
    for (c, call) in calls.iter().enumerate() {
        let misses = call.report.tuning_counters.map_or(0, |t| t.misses);
        for (e, &loss) in call.report.losses.iter().enumerate() {
            let mut errors = Vec::new();
            if !loss.is_finite() {
                errors.push(format!("non-finite loss {loss}"));
            }
            if sim.losses.get(e).map(|s| s.to_bits()) != Some(loss.to_bits()) {
                errors.push(format!("Fast loss {loss} != Sim loss {:?}", sim.losses.get(e)));
            }
            let saturated = sim.saturation_per_epoch.get(e).map_or(0, |s| s.saturated);
            if saturated > 0 {
                errors.push(format!("{saturated} INT8 values saturated"));
            }
            if w.tuned() && misses > 0 {
                errors.push(format!("{misses} plan-cache misses in the timed call"));
            }
            checks.epoch(format!("call {c} epoch {e}"), &errors);
        }
    }
}

/// Traced calls and their spans.
struct Traced {
    tracer: Tracer,
    calls: Vec<(f64, TracedCall)>,
}

/// Traced calls, back to back, until `seconds` have passed (at least one).
fn traced_calls(
    dev: &DeviceConfig,
    data: &LoadedDataset,
    cfg: &TrainConfig,
    seconds: f64,
) -> Traced {
    let start = Instant::now();
    let mut tracer = Tracer::new();
    let mut calls = Vec::new();
    loop {
        let root = tracer.spans.len();
        let call = traced::call(&mut tracer, dev, data, cfg);
        calls.push((tracer.spans[root].dur_us() / 1e3, call));
        if start.elapsed().as_secs_f64() >= seconds {
            return Traced { tracer, calls };
        }
    }
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    w: &'a Workload,
    dev: &'a DeviceConfig,
    setup: &'a Setup,
    calls: &'a [Call],
    sim: &'a TrainReport,
    modeled_epoch_us: f64,
    epoch_wall_ms: f64,
}

/// The per-layer metrics of a traced run, after checking that the traced
/// calls reproduce `train_on` and that the rows reconcile.
fn per_layer(l: &LayerInputs, traced: &Traced, checks: &mut Checks) -> (Vec<Metric>, Vec<String>) {
    let (w, sim) = (l.w, l.sim);
    let epochs: usize = traced.calls.iter().map(|(_, c)| c.losses.len()).sum();
    let per_epoch = |v: f64| v / epochs as f64;
    let wall_total: f64 = traced.calls.iter().map(|(ms, _)| ms).sum();
    let rows = traced.tracer.rows_ms();
    let rows_total: f64 = rows.values().sum();

    // Modeled rows: the Sim run's epoch-0 breakdown by family. A replayed
    // epoch runs the same launches minus their launch overhead.
    let mut modeled: BTreeMap<&str, f64> = FAMILIES.iter().map(|f| (*f, 0.0)).collect();
    let mut spmm_launches = 0;
    for (name, launches, us, _) in &sim.kernel_breakdown {
        *modeled.entry(trace::family(name)).or_default() += us;
        if trace::family(name) == "kernels.spmm" {
            spmm_launches += launches;
        }
    }
    let saved_launch_us = sim.replay.map_or(0.0, |r| l.dev.cycles_to_us(r.saved_cycles));
    let modeled_total = modeled.values().sum::<f64>() - saved_launch_us;

    let mut run_errors = Vec::new();
    if (rows_total - wall_total).abs() > WALL_TOLERANCE * wall_total {
        run_errors.push(format!("span rows {rows_total:.3} ms != traced wall {wall_total:.3} ms"));
    }
    if let Some((row, v)) = rows.iter().find(|(_, &v)| v < -WALL_TOLERANCE * wall_total) {
        run_errors.push(format!("row {row} is negative ({v:.3} ms)"));
    }
    if (modeled_total - l.modeled_epoch_us).abs() > MODELED_TOLERANCE * l.modeled_epoch_us {
        run_errors.push(format!(
            "Sim family rows {modeled_total} us != modeled_epoch_us {}",
            l.modeled_epoch_us
        ));
    }
    let reference = &l.calls[0].report;
    for (c, (_, call)) in traced.calls.iter().enumerate() {
        let compared = call.stream_epoch.unwrap_or(call.losses.len());
        let mut call_errors = run_errors.clone();
        let accuracy = call.test_accuracy.to_bits();
        if call.stream_epoch.is_none() && accuracy != reference.test_accuracy.to_bits() {
            call_errors.push(format!(
                "traced test accuracy {} != train_on {}",
                call.test_accuracy, reference.test_accuracy
            ));
        }
        for (e, &loss) in call.losses.iter().enumerate() {
            let mut errors = call_errors.clone();
            if !loss.is_finite() {
                errors.push(format!("non-finite traced loss {loss}"));
            }
            let want = reference.losses.get(e);
            if e < compared && want.map(|r| r.to_bits()) != Some(loss.to_bits()) {
                errors.push(format!("traced loss {loss} != train_on loss {want:?}"));
            }
            checks.epoch(format!("traced call {c} epoch {e}"), &errors);
        }
    }

    let traced_epoch_wall_ms =
        fastest(&traced.calls.iter().map(|(ms, c)| ms / c.losses.len() as f64).collect::<Vec<_>>());
    let epoch_walls = |replayed: bool| -> Vec<f64> {
        let calls = traced.calls.iter();
        calls
            .flat_map(|(_, c)| c.epoch_ms.iter().enumerate())
            .filter(|(e, _)| (*e > 0) == replayed)
            .map(|(_, &ms)| ms)
            .collect()
    };
    let (capture_ms, replay_ms) = if w.replays() {
        (median(&epoch_walls(false)), median(&epoch_walls(true)))
    } else {
        (0.0, 0.0)
    };
    let per_sim_epoch = |total: u64| total as f64 / sim.losses.len().max(1) as f64;
    let (overflow, saturation) = (&sim.overflow_per_epoch, &sim.saturation_per_epoch);
    let tune = l.calls[0].report.tuning_counters.unwrap_or_default();
    let halo_lookups = (sim.halo_cache_hits + sim.halo_cache_misses) as f64;

    let mut m = Vec::new();
    for f in FAMILIES {
        m.push(Metric::new(format!("{f}.wall_ms"), "ms", per_epoch(rows[&format!("{f}.wall_ms")])));
        m.push(Metric::new(format!("{f}.modeled_us"), "modeled_us", modeled[f]));
    }
    m.push(Metric::new("kernels.spmm.launches", "count", spmm_launches as f64));
    m.push(Metric::new("kernels.dram_mib", "MiB", sim.dram_bytes_per_epoch as f64 / MIB));
    m.push(Metric::new("tensor.convert.elems", "count", sim.converted_elems_per_epoch as f64));
    let conversions = per_sim_epoch(overflow.iter().map(|s| s.conversions).sum());
    m.push(Metric::new("half.convert_ops", "count", conversions));
    let overflows = per_sim_epoch(overflow.iter().map(|s| s.overflows).sum());
    m.push(Metric::new("half.overflow_events", "count", overflows));
    let quantized = per_sim_epoch(saturation.iter().map(|s| s.quantized).sum());
    m.push(Metric::new("half.quant.values", "count", quantized));
    let saturated = per_sim_epoch(saturation.iter().map(|s| s.saturated).sum());
    m.push(Metric::new("half.quant.saturated", "count", saturated));
    for r in SPAN_ROWS {
        m.push(Metric::new(r, "ms", per_epoch(rows[r])));
    }
    let sampled: usize = traced.calls.iter().map(|(_, c)| c.sampled_vertices).sum();
    m.push(Metric::new("graph.sample.vertices", "count", per_epoch(sampled as f64)));
    m.push(Metric::new("nn.step.wall_ms", "ms", per_epoch(traced.tracer.total_ms("nn.step"))));
    m.push(Metric::new("tune.warm_s", "s", median(&l.setup.warm_s)));
    m.push(Metric::new("tune.hits", "count", tune.hits as f64));
    m.push(Metric::new("tune.misses", "count", tune.misses as f64));
    m.push(Metric::new(
        "tune.evaluations",
        "count",
        l.setup.warm_counters.map_or(0, |c| c.evaluations) as f64,
    ));
    m.push(Metric::new("exec.capture_epoch_wall_ms", "ms", capture_ms));
    m.push(Metric::new("exec.replay_epoch_wall_ms", "ms", replay_ms));
    m.push(Metric::new("exec.saved_launch_us", "modeled_us", saved_launch_us));
    m.push(Metric::new("nn.dist.halo_mib", "MiB", sim.comms_halo_bytes_per_epoch as f64 / MIB));
    m.push(Metric::new(
        "nn.dist.allreduce_mib",
        "MiB",
        sim.comms_allreduce_bytes_per_epoch as f64 / MIB,
    ));
    m.push(Metric::new(
        "nn.dist.halo_cache_hit_ratio",
        "ratio",
        sim.halo_cache_hits as f64 / halo_lookups,
    ));
    m.push(Metric::new("sim.comms_serialized_us", "modeled_us", sim.comms_serialized_us));
    m.push(Metric::new("sim.comms_overlapped_us", "modeled_us", sim.comms_overlapped_us));
    m.push(Metric::new("graph.load_s", "s", median(&l.setup.load_s)));
    m.push(Metric::new("nn.final_loss", "loss", sim.losses.last().map_or(f64::NAN, |&v| v as f64)));
    m.push(Metric::new("nn.test_acc", "ratio", sim.test_accuracy as f64));
    m.push(Metric::new("traced_epoch_wall_ms", "ms", traced_epoch_wall_ms));
    m.push(Metric::new(
        "trace_overhead_pct",
        "%",
        100.0 * (traced_epoch_wall_ms / l.epoch_wall_ms - 1.0),
    ));

    let notes = vec![
        format!(
            "traced: {} calls, {epochs} epochs; span rows sum to {:.3} ms/epoch against a traced wall of {:.3} ms/epoch (tolerance {}%)",
            traced.calls.len(),
            per_epoch(rows_total),
            per_epoch(wall_total),
            WALL_TOLERANCE * 100.0
        ),
        format!(
            "modeled: family rows minus saved launch overhead sum to {modeled_total} us against modeled_epoch_us {}",
            l.modeled_epoch_us
        ),
    ];
    (m, notes)
}
