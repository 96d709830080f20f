//! `halfgnn-train` — train any registry dataset with any model under any
//! precision system, from the command line.
//!
//! ```text
//! halfgnn-train --dataset reddit --model gcn --precision halfgnn \
//!               --epochs 60 [--lr 0.01] [--hidden 64] [--seed 0] [--norm right]
//! ```

use halfgnn::graph::datasets::Dataset;
use halfgnn::graph::partition::PartitionStrategy;
use halfgnn::nn::models::GcnNorm;
use halfgnn::nn::trainer::{train, ModelKind, PrecisionMode, Topology, TrainConfig, Tuning};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: halfgnn-train --dataset <id|name> [--model gcn|gat|gin|sage] \
         [--precision float|halfnaive|halfgnn|nodiscretize|i8] [--epochs N] \
         [--lr F] [--hidden N] [--seed N] [--norm right|left|both] [--gin-lambda F] \
         [--loss-scale F] [--tuning off|auto|cached:<path>] [--fusion] \
         [--shards N] [--topology ring|alltoall] \
         [--partition contiguous|balanced|1p5d] [--replication N] \
         [--replay] [--batch-size N] [--fanout N] [--stream-edges N] \
         [--save-snapshot PATH] [--i8-block N]"
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dataset = None;
    let mut cfg = TrainConfig { epochs: 60, ..TrainConfig::default() };

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage()).as_str();
        match flag.as_str() {
            "--dataset" => dataset = Dataset::by_id(val()),
            "--model" => {
                let v = val();
                cfg.model = ModelKind::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown model {v}");
                    usage()
                })
            }
            "--precision" => {
                let v = val();
                cfg.precision = PrecisionMode::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown precision {v}");
                    usage()
                })
            }
            "--norm" => {
                cfg.gcn_norm = match val() {
                    "right" => GcnNorm::Right,
                    "left" => GcnNorm::Left,
                    "both" => GcnNorm::Both,
                    other => {
                        eprintln!("unknown norm {other}");
                        usage()
                    }
                }
            }
            "--epochs" => cfg.epochs = val().parse().unwrap_or_else(|_| usage()),
            "--lr" => cfg.lr = val().parse().unwrap_or_else(|_| usage()),
            "--hidden" => cfg.hidden = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = val().parse().unwrap_or_else(|_| usage()),
            "--gin-lambda" => cfg.gin_lambda = val().parse().unwrap_or_else(|_| usage()),
            "--loss-scale" => cfg.loss_scale = val().parse().unwrap_or_else(|_| usage()),
            "--tuning" => {
                cfg.tuning = match val() {
                    "off" => Tuning::Off,
                    "auto" => Tuning::Auto,
                    v => match v.strip_prefix("cached:") {
                        Some(path) if !path.is_empty() => Tuning::Cached(path.to_string()),
                        _ => {
                            eprintln!("unknown tuning policy {v}");
                            usage()
                        }
                    },
                }
            }
            "--fusion" => cfg.fusion = true,
            "--replay" => cfg.replay = true,
            "--shards" => {
                cfg.shards = val().parse().unwrap_or_else(|_| usage());
                if cfg.shards == 0 {
                    eprintln!("--shards must be at least 1");
                    usage()
                }
            }
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
            "--replication" => {
                cfg.replication = Some(val().parse().unwrap_or_else(|_| {
                    eprintln!("unknown replication value (want a positive integer)");
                    usage()
                }))
            }
            "--save-snapshot" => cfg.snapshot_path = Some(val().to_string()),
            "--i8-block" => cfg.i8_block = Some(val().parse().unwrap_or_else(|_| usage())),
            "--batch-size" => cfg.batch_size = Some(val().parse().unwrap_or_else(|_| usage())),
            "--fanout" => cfg.fanout = val().parse().unwrap_or_else(|_| usage()),
            "--stream-edges" => cfg.stream_edges = val().parse().unwrap_or_else(|_| usage()),
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
    eprintln!(
        "{} ({}): {} vertices, {} edges, mean degree {:.1}, max degree {}",
        data.spec.name,
        data.spec.id,
        data.num_vertices(),
        data.num_edges(),
        data.adj.mean_degree(),
        data.adj.max_degree()
    );
    eprintln!(
        "training {:?} / {:?} for {} epochs (hidden {}, lr {})",
        cfg.model, cfg.precision, cfg.epochs, cfg.hidden, cfg.lr
    );

    let report = train(&data, &cfg);
    for (e, loss) in report.losses.iter().enumerate() {
        if e % 10 == 0 || e + 1 == report.losses.len() {
            println!("epoch {e:>4}  loss {loss:.4}");
        }
    }
    println!("train accuracy : {:.4}", report.final_train_accuracy);
    println!("test accuracy  : {:.4}", report.test_accuracy);
    println!("epoch time     : {:.1} us (modeled)", report.epoch_time_us);
    println!("peak memory    : {:.1} MiB (modeled)", report.peak_memory_bytes as f64 / 1048576.0);
    println!("kernels/epoch  : {}", report.kernels_per_epoch);
    println!(
        "dram traffic   : {:.1} MiB/epoch (modeled)",
        report.dram_bytes_per_epoch as f64 / 1048576.0
    );
    println!(
        "conversions    : {} kernels, {} elements/epoch",
        report.conversions_per_epoch, report.converted_elems_per_epoch
    );
    if let Some(s) = report.replay {
        println!(
            "replay graph   : {} nodes over {} buffers ({} plans captured)",
            s.nodes, s.buffers, s.plans
        );
        println!(
            "replay epoch   : {:.1} us (modeled; {:.0} launch-overhead cycles \
             stripped per epoch)",
            report.replay_epoch_time_us, s.saved_cycles
        );
        println!(
            "arena plan     : {:.2} MiB peak vs {:.2} MiB unplanned \
             (+{:.2} MiB external)",
            s.peak_bytes as f64 / 1048576.0,
            s.eager_bytes as f64 / 1048576.0,
            s.external_bytes as f64 / 1048576.0
        );
    }
    if let Some(s) = &report.sampling {
        println!(
            "sampling       : {} batches/epoch (fanout {}), mean batch {:.0} vertices / \
             {:.0} edges, max {} vertices",
            s.batches_per_epoch,
            s.fanout,
            s.mean_batch_vertices,
            s.mean_batch_edges,
            s.max_batch_vertices
        );
        if let Some(ep) = s.stream_epoch {
            println!(
                "streamed edges : {} inserted before epoch {ep} (delta overlay, no rebuild)",
                s.streamed_edges
            );
        }
        if let Some(p) = s.post_stream_tuning {
            println!(
                "post-delta plan cache: {} hits, {} misses, {} evaluations",
                p.hits, p.misses, p.evaluations
            );
        }
    }
    if let Some(c) = report.tuning_counters {
        println!(
            "plan cache     : {} hits, {} misses, {} candidate evaluations",
            c.hits, c.misses, c.evaluations
        );
    }
    if cfg.shards > 1 {
        println!(
            "comms/epoch    : {:.2} MiB total ({:.2} MiB halo, {:.2} MiB all-reduce), \
             {:.1} us on {} shards ({})",
            report.comms_bytes_per_epoch as f64 / 1048576.0,
            report.comms_halo_bytes_per_epoch as f64 / 1048576.0,
            report.comms_allreduce_bytes_per_epoch as f64 / 1048576.0,
            report.comms_time_us_per_epoch,
            cfg.shards,
            cfg.topology.tag()
        );
        println!(
            "comms overlap  : {:.1} us serialized -> {:.1} us overlapped \
             (halo prefetch hides {:.1} us)",
            report.comms_serialized_us,
            report.comms_overlapped_us,
            report.comms_serialized_us - report.comms_overlapped_us
        );
        println!(
            "halo cache     : {} hits, {} misses, {:.2} MiB wire bytes saved \
             (steady state)",
            report.halo_cache_hits,
            report.halo_cache_misses,
            report.halo_cache_bytes_saved as f64 / 1048576.0
        );
        for ((from, to), s) in report.link_breakdown.iter().take(8) {
            println!(
                "  link {from}->{to}: {:.2} MiB in {} messages ({:.1} us)",
                s.bytes as f64 / 1048576.0,
                s.messages,
                s.time_us
            );
        }
    }
    println!("\nper-kernel breakdown (one epoch):");
    for (name, launches, us, bytes) in report.kernel_breakdown.iter().take(12) {
        println!(
            "  {name:<42} x{launches:<3} {us:>10.1} us {:>9.2} MiB",
            *bytes as f64 / 1048576.0
        );
    }
    if let Some(p) = &cfg.snapshot_path {
        println!("snapshot       : {p}");
    }
    if let Some((ep, ev)) = report.first_saturation() {
        println!("first INT8 saturation: epoch {ep}: {ev}");
    }
    if let Some(e) = report.nan_epoch {
        println!("loss became NaN at epoch {e} (FP16 overflow -> NaN, see DESIGN.md)");
        exit(1);
    }
}
