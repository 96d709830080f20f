//! Kernel plans: the knob assignment a dispatch executes.
//!
//! A plan is the *output* of tuning and the *payload* of the cache. It
//! deliberately excludes anything the model layer must control for
//! correctness — most importantly [`ScalePlacement`], which belongs to the
//! precision mode (a tuner must never silently trade overflow safety for
//! speed). What remains are the pure performance knobs of §4–§5:
//! write strategy, edge-tile geometry (which *is* the discretized
//! reduction batch of §5.2.2), the edge- vs vertex-parallel layout choice,
//! and SDDMM's vector width + sub-warp packing.

use halfgnn_kernels::common::{ScalePlacement, Tiling, VectorWidth, WriteStrategy};
use halfgnn_kernels::halfgnn_sddmm::SddmmConfig;
use halfgnn_kernels::halfgnn_spmm::SpmmConfig;

/// Which SpMM skeleton executes the aggregation (§5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpmmVariant {
    /// Row-sorted COO, warps own edge tiles — load-balanced under skew.
    EdgeParallel,
    /// CSR, warps own vertex groups — cheaper bookkeeping on flat degree
    /// distributions, pathological on power laws.
    VertexParallel,
}

/// Tuned SpMM knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpmmPlan {
    /// Edge- or vertex-parallel skeleton.
    pub variant: SpmmVariant,
    /// Conflict-write resolution (edge-parallel only; ignored by the
    /// vertex-parallel skeleton, which never conflicts).
    pub writes: WriteStrategy,
    /// Edges per warp tile — also the discretized reduction batch size.
    pub edges_per_warp: usize,
    /// Warps per CTA.
    pub warps_per_cta: usize,
}

impl Default for SpmmPlan {
    /// The paper's design point, byte-identical to [`SpmmConfig::default`].
    fn default() -> SpmmPlan {
        let d = SpmmConfig::default();
        SpmmPlan {
            variant: SpmmVariant::EdgeParallel,
            writes: d.writes,
            edges_per_warp: d.tiling.edges_per_warp,
            warps_per_cta: d.tiling.warps_per_cta,
        }
    }
}

impl SpmmPlan {
    /// Materialize the kernel config, grafting on the caller's scaling
    /// placement (a correctness decision the plan never owns).
    pub fn to_spmm_config(&self, scaling: ScalePlacement) -> SpmmConfig {
        SpmmConfig {
            scaling,
            writes: self.writes,
            tiling: Tiling {
                edges_per_warp: self.edges_per_warp,
                warps_per_cta: self.warps_per_cta,
            },
        }
    }
}

/// Tuned SDDMM knobs, mirroring [`SddmmConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SddmmPlan {
    /// Data-load vector width (§5.1, Fig. 12).
    pub width: VectorWidth,
    /// Pack multiple edges per warp when `f/lanes < 32` (§4.1).
    pub sub_warps: bool,
    /// Edges per warp tile.
    pub edges_per_warp: usize,
    /// Warps per CTA.
    pub warps_per_cta: usize,
}

impl SddmmPlan {
    /// The untuned default for feature width `f`: the model layers' old
    /// hard-coded widest-width rule at the default tile geometry.
    pub fn default_for(f: usize) -> SddmmPlan {
        let c = SddmmConfig::widest_for(f);
        SddmmPlan {
            width: c.width,
            sub_warps: c.sub_warps,
            edges_per_warp: c.tiling.edges_per_warp,
            warps_per_cta: c.tiling.warps_per_cta,
        }
    }

    /// Materialize the kernel config.
    pub fn to_sddmm_config(&self) -> SddmmConfig {
        SddmmConfig {
            width: self.width,
            sub_warps: self.sub_warps,
            tiling: Tiling {
                edges_per_warp: self.edges_per_warp,
                warps_per_cta: self.warps_per_cta,
            },
        }
    }
}

/// Tuned attention-pipeline knob: whether GAT's score → softmax →
/// aggregation chain runs as the fused single-pass kernel or the unfused
/// five-kernel sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct AttnPlan {
    /// Run [`halfgnn_kernels::fused`] instead of the unfused chain. Off by
    /// default: untuned dispatches must stay bit-for-bit on the old path.
    pub fused: bool,
}

/// A cached plan for one [`crate::key::KernelKey`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPlan {
    /// SpMM (SpMMv / SpMMve) plan.
    Spmm(SpmmPlan),
    /// INT8 quantized SpMM plan. A distinct variant (not a flag on
    /// [`KernelPlan::Spmm`]) so the quantized path is explicit in the
    /// wire form: a cache written by a version without INT8 can never be
    /// misread as licensing the quantized kernel, and vice versa.
    SpmmI8(SpmmPlan),
    /// SDDMM plan.
    Sddmm(SddmmPlan),
    /// GAT attention-chain plan (fused vs. unfused).
    Attn(AttnPlan),
}

impl KernelPlan {
    /// Compact, stable wire form (the JSON value in the plan cache).
    pub fn encode(&self) -> String {
        match self {
            KernelPlan::Spmm(p) | KernelPlan::SpmmI8(p) => {
                let tag = if matches!(self, KernelPlan::SpmmI8(_)) { "spmm_i8" } else { "spmm" };
                let v = match p.variant {
                    SpmmVariant::EdgeParallel => "edge",
                    SpmmVariant::VertexParallel => "vertex",
                };
                let w = match p.writes {
                    WriteStrategy::Atomic => "atomic",
                    WriteStrategy::Staged => "staged",
                };
                format!("{tag}:{v}:{w}:{}:{}", p.edges_per_warp, p.warps_per_cta)
            }
            KernelPlan::Sddmm(p) => {
                let w = match p.width {
                    VectorWidth::Half1 => "half1",
                    VectorWidth::Half2 => "half2",
                    VectorWidth::Half4 => "half4",
                    VectorWidth::Half8 => "half8",
                };
                format!(
                    "sddmm:{w}:{}:{}:{}",
                    if p.sub_warps { "sub" } else { "nosub" },
                    p.edges_per_warp,
                    p.warps_per_cta
                )
            }
            KernelPlan::Attn(p) => {
                format!("attn:{}", if p.fused { "fused" } else { "unfused" })
            }
        }
    }

    /// Parse the wire form back; `None` on anything malformed (a cache
    /// written by a different version degrades to a miss, never a panic).
    pub fn decode(s: &str) -> Option<KernelPlan> {
        let mut it = s.split(':');
        match it.next()? {
            tag @ ("spmm" | "spmm_i8") => {
                let variant = match it.next()? {
                    "edge" => SpmmVariant::EdgeParallel,
                    "vertex" => SpmmVariant::VertexParallel,
                    _ => return None,
                };
                let writes = match it.next()? {
                    "atomic" => WriteStrategy::Atomic,
                    "staged" => WriteStrategy::Staged,
                    _ => return None,
                };
                let edges_per_warp: usize = it.next()?.parse().ok()?;
                let warps_per_cta: usize = it.next()?.parse().ok()?;
                if it.next().is_some() || edges_per_warp == 0 || warps_per_cta == 0 {
                    return None;
                }
                let p = SpmmPlan { variant, writes, edges_per_warp, warps_per_cta };
                Some(if tag == "spmm_i8" { KernelPlan::SpmmI8(p) } else { KernelPlan::Spmm(p) })
            }
            "sddmm" => {
                // SDDMM arithmetic is half2, so its loads are half2 or
                // wider: a `half1` entry decodes to a miss and re-tunes.
                let width = match it.next()? {
                    "half2" => VectorWidth::Half2,
                    "half4" => VectorWidth::Half4,
                    "half8" => VectorWidth::Half8,
                    _ => return None,
                };
                let sub_warps = match it.next()? {
                    "sub" => true,
                    "nosub" => false,
                    _ => return None,
                };
                let edges_per_warp: usize = it.next()?.parse().ok()?;
                let warps_per_cta: usize = it.next()?.parse().ok()?;
                if it.next().is_some() || edges_per_warp == 0 || warps_per_cta == 0 {
                    return None;
                }
                Some(KernelPlan::Sddmm(SddmmPlan {
                    width,
                    sub_warps,
                    edges_per_warp,
                    warps_per_cta,
                }))
            }
            "attn" => {
                let fused = match it.next()? {
                    "fused" => true,
                    "unfused" => false,
                    _ => return None,
                };
                if it.next().is_some() {
                    return None;
                }
                Some(KernelPlan::Attn(AttnPlan { fused }))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spmm_plan_matches_the_kernel_default() {
        let p = SpmmPlan::default();
        let c = p.to_spmm_config(ScalePlacement::Discretized);
        let d = SpmmConfig::default();
        assert_eq!(c.scaling, d.scaling);
        assert_eq!(c.writes, d.writes);
        assert_eq!(c.tiling.edges_per_warp, d.tiling.edges_per_warp);
        assert_eq!(c.tiling.warps_per_cta, d.tiling.warps_per_cta);
        assert_eq!(p.variant, SpmmVariant::EdgeParallel);
    }

    #[test]
    fn default_sddmm_plan_matches_the_widest_rule() {
        for f in [8usize, 12, 6, 64, 256] {
            let p = SddmmPlan::default_for(f);
            let c = SddmmConfig::widest_for(f);
            assert_eq!(p.width, c.width, "f={f}");
            assert_eq!(p.sub_warps, c.sub_warps, "f={f}");
            assert_eq!(p.to_sddmm_config().tiling, c.tiling, "f={f}");
        }
    }

    #[test]
    fn default_attn_plan_is_unfused() {
        assert!(!AttnPlan::default().fused);
    }

    #[test]
    fn i8_and_f16_spmm_plans_never_alias_on_the_wire() {
        // Same knobs, different dtype path: the wire forms must differ and
        // each must decode back to its own variant.
        let p = SpmmPlan::default();
        let f16 = KernelPlan::Spmm(p).encode();
        let i8 = KernelPlan::SpmmI8(p).encode();
        assert_ne!(f16, i8);
        assert_eq!(KernelPlan::decode(&f16), Some(KernelPlan::Spmm(p)));
        assert_eq!(KernelPlan::decode(&i8), Some(KernelPlan::SpmmI8(p)));
    }

    #[test]
    fn plan_wire_form_round_trips() {
        let plans = [
            KernelPlan::Spmm(SpmmPlan::default()),
            KernelPlan::Spmm(SpmmPlan {
                variant: SpmmVariant::VertexParallel,
                writes: WriteStrategy::Atomic,
                edges_per_warp: 128,
                warps_per_cta: 8,
            }),
            KernelPlan::Sddmm(SddmmPlan {
                width: VectorWidth::Half8,
                sub_warps: true,
                edges_per_warp: 64,
                warps_per_cta: 4,
            }),
            KernelPlan::Sddmm(SddmmPlan {
                width: VectorWidth::Half2,
                sub_warps: false,
                edges_per_warp: 128,
                warps_per_cta: 2,
            }),
            KernelPlan::Attn(AttnPlan { fused: true }),
            KernelPlan::Attn(AttnPlan { fused: false }),
            KernelPlan::SpmmI8(SpmmPlan::default()),
            KernelPlan::SpmmI8(SpmmPlan {
                variant: SpmmVariant::VertexParallel,
                writes: WriteStrategy::Staged,
                edges_per_warp: 32,
                warps_per_cta: 8,
            }),
        ];
        for p in plans {
            assert_eq!(KernelPlan::decode(&p.encode()), Some(p), "{}", p.encode());
        }
    }

    #[test]
    fn half1_sddmm_plans_decode_to_none() {
        // SDDMM needs half2 loads for its half2 arithmetic: a cache entry
        // naming half1 is a miss, never a plan that panics the kernel.
        assert_eq!(KernelPlan::decode("sddmm:half1:nosub:128:2"), None);
        assert_eq!(
            KernelPlan::decode("sddmm:half2:nosub:128:2").map(|p| p.encode()).as_deref(),
            Some("sddmm:half2:nosub:128:2")
        );
    }

    #[test]
    fn malformed_wire_forms_decode_to_none() {
        for bad in [
            "",
            "spmm",
            "spmm:edge:staged:64",
            "spmm:edge:staged:0:4",
            "spmm:edge:staged:64:4:extra",
            "spmm:diagonal:staged:64:4",
            "sddmm:half3:sub:64:4",
            "sddmm:half8:maybe:64:4",
            "sddmm:half8:sub", // pre-geometry wire form degrades to a miss
            "sddmm:half8:sub:0:4",
            "sddmm:half8:sub:64:4:extra",
            "attn",
            "attn:maybe",
            "attn:fused:extra",
            "conv2d:3x3",
            "spmm_i8",
            "spmm_i8:edge:staged:64",
            "spmm_i8:edge:staged:0:4",
            "spmm_i8:edge:staged:64:4:extra",
            "spmm_i8:diagonal:staged:64:4",
        ] {
            assert_eq!(KernelPlan::decode(bad), None, "{bad:?}");
        }
    }
}
