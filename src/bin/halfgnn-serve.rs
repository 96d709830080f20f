//! `halfgnn-serve` — forward-only inference over a trained snapshot, with
//! request coalescing, an embedding cache, and modeled serving latency.
//!
//! ```text
//! halfgnn-serve --dataset cora --snapshot model.snap --precision halfgnn \
//!               --shards 2 --cache-kb 64 [--requests 2000] [--mean-gap-us 40]
//! ```
//!
//! Without `--snapshot` the binary quick-trains a GCN on the dataset
//! first (writing a temporary snapshot, then consuming it through the
//! same load path a production handoff would use).

use halfgnn::graph::datasets::Dataset;
use halfgnn::graph::partition::PartitionStrategy;
use halfgnn::nn::models::GcnNorm;
use halfgnn::nn::snapshot::ModelSnapshot;
use halfgnn::nn::trainer::{train, ModelKind, PrecisionMode, Topology, TrainConfig};
use halfgnn::serve::{CachePrecision, ServeConfig, ServeEngine};
use halfgnn::sim::{latency_stats, synth_trace, DeviceConfig, TraceConfig};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: halfgnn-serve --dataset <id|name> [--snapshot PATH] \
         [--precision float|halfgnn] [--hops N] [--batch-window N] \
         [--cache-kb N] [--cache-precision f16|f32] [--shards N] \
         [--topology ring|alltoall] [--partition contiguous|balanced|1p5d] \
         [--replay] [--requests N] [--mean-gap-us F] \
         [--hot-fraction F] [--hot-vertices N] [--trace-seed N] \
         [--epochs N] [--hidden N] (quick-train when no --snapshot)"
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dataset = None;
    let mut snapshot_path: Option<String> = None;
    let mut cfg = ServeConfig::default();
    let mut trace_cfg = TraceConfig {
        seed: 0,
        requests: 2000,
        num_vertices: 0, // filled from the dataset
        mean_gap_us: 40.0,
        hot_fraction: 0.8,
        hot_vertices: 64,
    };
    let mut epochs = 20usize;
    let mut hidden = 16usize;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage()).as_str();
        match flag.as_str() {
            "--dataset" => dataset = Dataset::by_id(val()),
            "--snapshot" => snapshot_path = Some(val().to_string()),
            "--precision" => {
                // Training-only modes parse too: they reach validate() and
                // die with the named ServeConfigError.
                let v = val();
                cfg.precision = PrecisionMode::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown precision {v}");
                    usage()
                })
            }
            "--hops" => cfg.hops = val().parse().unwrap_or_else(|_| usage()),
            "--batch-window" => cfg.batch_window = val().parse().unwrap_or_else(|_| usage()),
            "--cache-kb" => {
                cfg.cache_bytes = val().parse::<usize>().unwrap_or_else(|_| usage()) * 1024
            }
            "--cache-precision" => {
                cfg.cache_precision = CachePrecision::parse(val()).unwrap_or_else(|| {
                    eprintln!("unknown cache precision (want f16|f32)");
                    usage()
                })
            }
            "--shards" => cfg.shards = val().parse().unwrap_or_else(|_| usage()),
            "--topology" => {
                cfg.topology = Topology::parse(val()).unwrap_or_else(|| {
                    eprintln!("unknown topology (want ring|alltoall)");
                    usage()
                })
            }
            "--partition" => {
                cfg.partition = PartitionStrategy::parse(val()).unwrap_or_else(|| {
                    eprintln!("unknown partition strategy (want contiguous|balanced|1p5d)");
                    usage()
                })
            }
            "--replay" => cfg.replay = true,
            "--requests" => trace_cfg.requests = val().parse().unwrap_or_else(|_| usage()),
            "--mean-gap-us" => trace_cfg.mean_gap_us = val().parse().unwrap_or_else(|_| usage()),
            "--hot-fraction" => trace_cfg.hot_fraction = val().parse().unwrap_or_else(|_| usage()),
            "--hot-vertices" => trace_cfg.hot_vertices = val().parse().unwrap_or_else(|_| usage()),
            "--trace-seed" => trace_cfg.seed = val().parse().unwrap_or_else(|_| usage()),
            "--epochs" => epochs = val().parse().unwrap_or_else(|_| usage()),
            "--hidden" => hidden = val().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    let Some(dataset) = dataset else { usage() };
    if let Err(e) = cfg.validate() {
        eprintln!("config error: {e}");
        exit(2);
    }

    let data = dataset.load(42);
    trace_cfg.num_vertices = data.num_vertices();
    eprintln!(
        "{} ({}): {} vertices, {} edges",
        data.spec.name,
        data.spec.id,
        data.num_vertices(),
        data.num_edges()
    );

    // Obtain a snapshot: load the given one, or quick-train and hand off
    // through the same save/load path.
    let snap = match &snapshot_path {
        Some(p) => ModelSnapshot::load(std::path::Path::new(p)).unwrap_or_else(|| {
            eprintln!("could not load snapshot {p} (missing or torn)");
            exit(2);
        }),
        None => {
            let tmp = std::env::temp_dir()
                .join(format!("halfgnn-serve-quicktrain-{}.snap", std::process::id()));
            let tcfg = TrainConfig {
                model: ModelKind::Gcn,
                // Train under the precision we will serve, so half serving
                // gets the padded even class width it requires.
                precision: cfg.precision,
                epochs,
                hidden,
                gcn_norm: GcnNorm::Right,
                snapshot_path: Some(tmp.to_string_lossy().into_owned()),
                ..TrainConfig::default()
            };
            eprintln!("no --snapshot: quick-training {epochs} epochs (hidden {hidden})");
            let report = train(&data, &tcfg);
            eprintln!(
                "quick-train: accuracy {:.3} (train) / {:.3} (test)",
                report.final_train_accuracy, report.test_accuracy
            );
            let snap = ModelSnapshot::load(&tmp).unwrap_or_else(|| {
                eprintln!("quick-train snapshot did not round-trip");
                exit(1);
            });
            std::fs::remove_file(&tmp).ok();
            snap
        }
    };

    let dev = DeviceConfig::a100_like();
    let mut engine = match ServeEngine::from_snapshot(
        &dev,
        &data.adj,
        &data.features,
        data.spec.feat,
        &snap,
        cfg.clone(),
    ) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("config error: {e}");
            exit(2);
        }
    };

    let trace = synth_trace(&trace_cfg);
    let timings = engine.serve_trace(&trace);
    let span =
        timings.iter().zip(&trace).map(|(t, r)| r.arrival_us + t.total_us()).fold(0.0f64, f64::max)
            - trace.first().map_or(0.0, |r| r.arrival_us);
    let stats = latency_stats(&timings, span);

    println!("requests       : {}", stats.requests);
    println!("throughput     : {:.1} req/s (modeled)", stats.throughput_rps);
    println!("latency p50    : {:.1} us (modeled)", stats.p50_us);
    println!("latency p99    : {:.1} us (modeled)", stats.p99_us);
    println!("latency mean   : {:.1} us (modeled)", stats.mean_us);
    println!(
        "cache          : {:.1}% hits ({} entries of {} capacity, {})",
        100.0 * stats.hit_rate(),
        engine.cache().len(),
        engine.cache().capacity(),
        engine.cache().precision().tag()
    );
    println!(
        "batches        : {} launches, {} requests coalesced, largest subgraph {} vertices",
        engine.stats.batches, engine.stats.coalesced_requests, engine.stats.max_batch_vertices
    );
    if engine.config().replay {
        println!("replay         : {} batches replayed", engine.stats.replayed_batches);
    }
    if engine.config().shards > 1 {
        println!(
            "halo traffic   : {:.2} MiB over {} shards ({}), {:.1} us (modeled)",
            engine.stats.halo_bytes as f64 / 1048576.0,
            engine.config().shards,
            engine.config().topology.tag(),
            engine.stats.halo_time_us
        );
    }

    // The forward-only footprint, arena-planned: proof the serving path
    // carries no training state.
    let probe: Vec<u32> = (0..8.min(data.num_vertices() as u32)).collect();
    let inf = engine.inference_footprint(&probe);
    println!(
        "inference plan : {:.2} MiB peak over {} buffers ({} kernel nodes)",
        inf.peak_bytes as f64 / 1048576.0,
        inf.buffers,
        inf.nodes
    );
}
