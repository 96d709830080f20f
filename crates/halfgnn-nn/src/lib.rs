//! GNN models (GCN, GAT, GIN, GraphSAGE) with hand-written forward/backward
//! passes over the sparse kernels, and the mixed-precision trainer.
//!
//! The paper's training recipe follows Micikevicius et al.: *state
//! tensors* (activations, edge tensors) live in half precision; *weight
//! updates* stay in float. Each step casts the f32 master weights to half,
//! runs forward/backward through the precision-appropriate kernels, and
//! feeds f32 gradients to Adam. Each model's step is written once, generic
//! over [`models::Elem`], the element type of its state tensors: `f32`
//! for the `Float` baseline, [`halfgnn_half::Half`] for every half mode.
//! The trait owns everything the two precisions do differently — which
//! kernel each op runs, and the AMP boundary (weight casts, promoted
//! logits, loss scaling, gradient unscaling). Within half, which kernel
//! *system* runs is decided by [`trainer::PrecisionMode`]:
//!
//! | mode | SpMM | SDDMM | exp | meaning |
//! |---|---|---|---|---|
//! | `Float` | cuSPARSE-f32 | DGL-f32 | f32 | DGL-float baseline |
//! | `HalfNaive` | cuSPARSE-f16 (post-scaled, atomics) | DGL-f16 | AMP-promoted | DGL-half baseline — overflows on hub graphs |
//! | `HalfGnn` | HalfGNN (discretized, staged) | HalfGNN half8 | shadow API | the paper's system |
//! | `HalfGnnNoDiscretize` | HalfGNN with post-reduction scaling | HalfGNN half8 | shadow | the §6.1.1 ablation |
//! | `I8` | INT8 scale-block operands (HalfGNN f16 where the tuner's oracle vetoes) | HalfGNN half8 | shadow | quantized aggregation, 1 B/element wire |

pub mod adam;
pub mod dist;
pub mod gat;
pub mod gcn;
pub mod gin;
pub mod graphdata;
pub mod models;
pub mod params;
pub mod sage;
pub mod snapshot;
pub mod trainer;
