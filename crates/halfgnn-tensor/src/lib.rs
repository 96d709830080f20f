//! Dense tensor operations, conversion accounting, and memory tracking.
//!
//! GNN training is mostly sparse kernels plus a handful of dense ops:
//! linear layers (GeMM), bias/activation, and the final softmax
//! cross-entropy. This crate provides those on the same cost-model
//! simulator the sparse kernels use, in both precisions. [`ops::Ops`]
//! also counts every tensor-level dtype conversion — the §3.1.2 tax of
//! AMP's promotions, reproduced in the `conversions` experiment. Which
//! ops a step runs in which precision is decided by `halfgnn-nn`'s
//! `Elem` trait, not here.
//!
//! [`memory::MemoryTracker`] accounts every tensor allocation so Fig. 6's
//! training-memory comparison can be regenerated analytically.

pub mod memory;
pub mod ops;

pub use memory::MemoryTracker;
pub use ops::Ops;
