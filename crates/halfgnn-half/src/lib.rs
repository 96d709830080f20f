//! Software half-precision (IEEE 754 binary16) arithmetic and the vector
//! data types used by HalfGNN.
//!
//! The paper's accuracy findings hinge on exact FP16 semantics: overflow to
//! `INF` at ±65504, gradual underflow through subnormals, and NaN
//! propagation through follow-up operations. This crate implements binary16
//! from scratch (bit-level, round-to-nearest-even) rather than wrapping a
//! hardware type, so every overflow the paper describes is reproduced
//! deterministically on any host. The hot loops' per-lane sequences —
//! and SDDMM's per-edge dot tree and the dense GEMM's output rows — are
//! also offered as [`slice`] row kernels, which on x86-64 hosts with F16C
//! and AVX run eight lanes per step while producing the software path's
//! bits and overflow record.
//!
//! Three arithmetic paths mirror Fig. 3 of the paper:
//!
//! * **Implicit float promotion** (Fig. 3a) — the `std::ops` impls on
//!   [`Half`]: operands are converted to `f32`, the op runs in `f32`, and the
//!   result is rounded back. This is what CUDA's native `+`/`*` on `__half`
//!   does, and what DGL's kernels effectively execute.
//! * **Half intrinsics** (Fig. 3b) — [`intrinsics`]: correctly-rounded
//!   scalar half arithmetic (`hadd`, `hmul`, `hfma`, …) with no persistent
//!   float state. Same throughput as float on real GPUs.
//! * **Half2 SIMD** (Fig. 3c) — [`Half2`]: two lanes per instruction,
//!   doubling arithmetic throughput. [`Half4`] and [`Half8`] are the paper's
//!   proposed wider types: native *data-load* vectors (backed by
//!   `float2`/`float4`-sized words) whose arithmetic decomposes into `half2`
//!   operations, exactly as §5.1.2 specifies.
//!
//! All three paths round their results through [`Half::from_f32`]; the
//! [`overflow`] module exploits that choke point to record, under the
//! opt-in `provenance` feature, the first op site that produced an
//! INF/NaN — the forensic trail behind the paper's Fig. 1c NaN collapse.
//! (The row kernels' eight-lane blocks add their finite conversions to
//! that record in bulk, and round every non-finite lane through
//! `Half::from_f32` itself.)
//!
//! [`Scalar`] is the element-type contract the rest of the workspace
//! writes its precision-generic ops against: implemented for `f32` and
//! [`Half`], its arithmetic is the Fig. 3b intrinsics, which on `f32`
//! reduce to the native operators.

pub mod f16;
pub mod intrinsics;
pub mod overflow;
pub mod quant;
pub mod scalar;
pub mod slice;
pub mod vec2;
pub mod vec48;

pub use f16::Half;
pub use scalar::Scalar;
pub use vec2::Half2;
pub use vec48::{Half4, Half8};

/// splitmix64, the counter-based mix behind the keyed streams built on
/// this crate (stochastic-rounding draws, streamed-edge draws, snapshot
/// checksums): chaining it over a key makes every draw a pure function
/// of that key. The neighbor sampler (`halfgnn-graph`) and the latency
/// model (`halfgnn-sim`) keep identical copies, since neither crate
/// depends on this one.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Re-export of the scalar type, intrinsics and vector types for glob imports.
pub mod prelude {
    pub use crate::f16::Half;
    pub use crate::intrinsics::*;
    pub use crate::vec2::Half2;
    pub use crate::vec48::{Half4, Half8};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_the_reference_mix() {
        // The published splitmix64 output for state 0: every keyed stream
        // (rounding draws, streamed edges, snapshot checksums) depends on it.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
