//! Dense tensor operations, conversion accounting, and memory tracking.
//!
//! GNN training is mostly sparse kernels plus a handful of dense ops:
//! linear layers (GeMM), bias/activation, and the final softmax
//! cross-entropy. This crate provides those on the same cost-model
//! simulator the sparse kernels use. Each dense op is written once over
//! [`halfgnn_half::Scalar`]: the element type of its operands picks the
//! arithmetic (f32, or half intrinsics), the element bytes, the
//! instruction class and the kernel name (`relu_f32`/`relu_f16`, …).
//! [`ops::Ops`] also counts every tensor-level dtype conversion — the
//! §3.1.2 tax of AMP's promotions, reproduced in the `conversions`
//! experiment. [`gemm`] is the host GEMM behind `Ops::gemm`: zero-aware,
//! register-blocked, and bit-identical to its scalar reference loop.
//!
//! [`memory::MemoryTracker`] accounts every tensor allocation so Fig. 6's
//! training-memory comparison can be regenerated analytically.

pub mod gemm;
pub mod memory;
pub mod ops;

pub use memory::MemoryTracker;
pub use ops::Ops;
