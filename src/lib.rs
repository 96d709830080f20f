//! # HalfGNN
//!
//! A Rust reproduction of **"Optimization of GNN Training Through
//! Half-precision"** (Tarafder, Gong, Kumar — HPDC '25): a half-precision
//! GNN training system with vectorized sparse kernels, discretized
//! reduction scaling, non-atomic conflict handling, and shadow APIs —
//! executed on a SIMT GPU cost-model simulator so that every experiment in
//! the paper can be regenerated on a CPU-only host.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`half`] — software binary16 plus `Half2`/`Half4`/`Half8` vectors
//! * [`graph`] — COO/CSR storage, generators, the Table-1 dataset registry
//! * [`sim`] — the SIMT cost-model simulator (warps, coalescer, timing)
//! * [`kernels`] — SpMM/SDDMM: HalfGNN kernels and every baseline
//! * [`tensor`] — dense ops in both precisions, conversion counters,
//!   memory tracking
//! * [`tune`] — cost-model kernel autotuner with a persistent plan cache
//! * [`nn`] — GCN/GAT/GIN/SAGE models, each step generic over the
//!   precision, and the mixed-precision trainer
//! * [`serve`] — forward-only inference: request coalescing, embedding
//!   cache, modeled serving latency
//!
//! ## Quickstart
//!
//! ```
//! use halfgnn::graph::datasets::Dataset;
//! use halfgnn::nn::trainer::{TrainConfig, PrecisionMode, train};
//! use halfgnn::nn::models::ModelKind;
//!
//! let data = Dataset::cora().load(42);
//! let cfg = TrainConfig {
//!     model: ModelKind::Gcn,
//!     precision: PrecisionMode::HalfGnn,
//!     epochs: 30,
//!     ..TrainConfig::default()
//! };
//! let report = train(&data, &cfg);
//! assert!(report.final_train_accuracy > 0.5);
//! ```

pub use halfgnn_graph as graph;
pub use halfgnn_half as half;
pub use halfgnn_kernels as kernels;
pub use halfgnn_nn as nn;
pub use halfgnn_serve as serve;
pub use halfgnn_sim as sim;
pub use halfgnn_tensor as tensor;
pub use halfgnn_tune as tune;
