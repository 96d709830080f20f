//! Sparse GNN kernels on the SIMT cost-model simulator.
//!
//! Two kernel families from the paper (§2.1.2):
//!
//! * **SpMM** — `Y ← A_w · X`: multiply the (edge-weighted) adjacency by a
//!   vertex-feature matrix. `SpMMv` treats all edge weights as 1 (GCN/GIN);
//!   `SpMMve` takes an edge-level weight tensor (GAT).
//! * **SDDMM** — `δW ← A ⊙ (U · Vᵀ)`: per-edge dot products of endpoint
//!   feature vectors.
//!
//! Implementations:
//!
//! | module | system modeled | design |
//! |---|---|---|
//! | [`baseline::cusparse`] | cuSPARSE float/half SpMM (what DGL calls) | edge-balanced, atomic writes, scalar loads, Fig. 3a arithmetic for half |
//! | [`baseline::dgl_sddmm`] | DGL float/half SDDMM | feature-parallel scalar loads, full shuffle reduction |
//! | [`baseline::ge_spmm`] | GE-SpMM | vanilla vertex-parallel row-per-warp, no balancing |
//! | [`huang`] | Huang et al. (ref. 20) | vertex-parallel, 32-neighbor groups + half2 adaptation (§5.4, Fig. 14) |
//! | [`halfgnn_spmm`] | **HalfGNN SpMM** | edge-parallel, half2 two-phase load, edge-feature mirroring, discretized reduction scaling, staging-buffer non-atomic writes (§4, §5.2) |
//! | [`halfgnn_sddmm`] | **HalfGNN SDDMM** | half2/half4/half8 vectorized loads, reduced shuffle rounds (§5.1) |
//! | [`edge_ops`] | edge-level softmax pieces (DGL float/half, HalfGNN) | gather-add, shadow-exp, gather-div (§3.1.2, §5.3) |
//! | [`dist`] | sharded-training wires | halo gather (f32/f16/INT8), discretized f16 and stochastic INT8 all-reduce |
//!
//! The float and half kernels that model *different systems* (cuSPARSE
//! float vs half, Huang float vs half2, HalfGNN half2/half8) are separate
//! functions. Kernels that are the same op in either precision — the edge
//! ops, the edge reduction, the halo gather — are written once over
//! [`halfgnn_half::Scalar`]; the element type picks the arithmetic, the
//! bytes, the instruction class and the kernel name.
//!
//! Every public kernel returns its functional output *and* a
//! [`halfgnn_sim::KernelStats`] with modeled time and NCU-style counters.
//! All kernels are validated against the serial `f64` implementations in
//! [`mod@reference`].

pub mod baseline;
pub mod common;
pub mod dist;
pub mod edge_ops;
pub mod fused;
pub mod halfgnn_sddmm;
pub mod halfgnn_spmm;
pub mod huang;
pub mod oracle;
pub mod quant_spmm;
pub mod reference;

pub use common::{EdgeWeights, Reduce, ScalePlacement, VectorWidth, WriteStrategy};
