//! The tuner: evaluate candidate plans under the cost model, keep the
//! fastest one that is *provably safe* on this graph.
//!
//! Safety is not a heuristic here — every candidate actually runs (in
//! `ExecMode::Sim`, on the real graph or a degree-stratified sample) and
//! must pass two gates before its modeled cycles are even considered:
//!
//! 1. the differential-testing oracle: the candidate's output must sit
//!    inside the f64 reference's tolerance band with zero non-finite
//!    elements ([`oracle::DivergenceReport`]), and
//! 2. the overflow-provenance recorder: the evaluation runs inside
//!    [`overflow::isolated`], and any recorded `f32 → half` overflow
//!    rejects the plan (with the `provenance` feature off this gate is
//!    inert and the oracle's non-finite check still stands).
//!
//! Among survivors the argmin of modeled cycles wins; if *nothing*
//! survives (e.g. the caller insists on `ScalePlacement::None` over a hub
//! graph) the untuned default plan is returned and cached, so a dispatch
//! is never left without a config. Winners land in the [`PlanCache`].

use crate::cache::PlanCache;
use crate::candidates;
use crate::key::{Dtype, KernelKey, OpKind};
use crate::plan::{AttnPlan, KernelPlan, SddmmPlan, SpmmPlan, SpmmVariant};
use crate::sample::stratified_sample;
use halfgnn_graph::metrics::{degree_stats, DegreeStats};
use halfgnn_graph::partition::PartitionStrategy;
use halfgnn_graph::{Coo, Csr};
use halfgnn_half::slice::f32_slice_to_half;
use halfgnn_half::{overflow, quant, Half};
use halfgnn_kernels::common::{row_scales_mean, EdgeWeights, Reduce, ScalePlacement, Tiling};
use halfgnn_kernels::halfgnn_sddmm::sddmm_with_config;
use halfgnn_kernels::halfgnn_spmm::SpmmConfig;
use halfgnn_kernels::oracle::{self, Layout, Tolerance};
use halfgnn_kernels::reference;
use halfgnn_kernels::{edge_ops, halfgnn_spmm};
use halfgnn_sim::{DeviceConfig, ExecMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::path::PathBuf;

pub use crate::cache::CacheCounters as TunerCounters;

/// Why a candidate plan was rejected.
#[derive(Clone, Debug)]
pub enum Rejection {
    /// The oracle found out-of-tolerance or non-finite output elements.
    Divergence(String),
    /// The provenance recorder saw `f32 → half` overflow during the run.
    Overflow(String),
    /// The INT8 saturation recorder saw a clamp to ±127 or a non-finite
    /// quantizer input — the quantized analogue of an overflow.
    Saturation(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Divergence(s) => write!(f, "oracle divergence: {s}"),
            Rejection::Overflow(s) => write!(f, "overflow recorded: {s}"),
            Rejection::Saturation(s) => write!(f, "saturation recorded: {s}"),
        }
    }
}

/// Default nnz above which candidates are evaluated on a stratified
/// sample instead of the full graph.
const SAMPLE_THRESHOLD_NNZ: usize = 150_000;

/// LeakyReLU slope GAT's attention uses; attention-chain candidates are
/// vetted with the same nonlinearity the dispatch will run.
const ATTN_SLOPE: f32 = 0.2;

/// Seed of the sampled evaluation graph and the candidates' inputs.
const EVAL_SEED: u64 = 0x7A1F;

/// Cost-model-driven kernel autotuner.
pub struct Tuner {
    dev: DeviceConfig,
    cache: RefCell<PlanCache>,
    cache_path: Option<PathBuf>,
    sample_threshold: usize,
    tol: Tolerance,
    shards: usize,
    partition: PartitionStrategy,
}

impl Tuner {
    /// In-memory tuner (the `tuning: Auto` mode): plans live for this
    /// process only.
    pub fn auto(dev: &DeviceConfig) -> Tuner {
        Tuner {
            // Candidate evaluation needs modeled cycles, so the tuner's
            // device always simulates — even when training itself runs in
            // fast mode.
            dev: dev.clone().with_exec(ExecMode::Sim),
            cache: RefCell::new(PlanCache::new()),
            cache_path: None,
            sample_threshold: SAMPLE_THRESHOLD_NNZ,
            tol: Tolerance::half_default(),
            shards: 1,
            partition: PartitionStrategy::Contiguous,
        }
    }

    /// Persistent tuner (the `tuning: Cached(path)` mode): loads `path`
    /// if it exists and rewrites it after every newly tuned plan.
    pub fn cached(dev: &DeviceConfig, path: impl Into<PathBuf>) -> Tuner {
        let path = path.into();
        let mut t = Tuner::auto(dev);
        t.cache = RefCell::new(PlanCache::load(&path));
        t.cache_path = Some(path);
        t
    }

    /// Override the sampling threshold (tests use tiny values to force
    /// the sampling path).
    pub fn with_sample_threshold(mut self, nnz: usize) -> Tuner {
        self.sample_threshold = nnz;
        self
    }

    /// Key every resolved plan to a shard count, so plans tuned for the
    /// single-device dispatch never transfer to a sharded run's windowed
    /// launches (or vice versa).
    pub fn with_shards(mut self, shards: usize) -> Tuner {
        self.shards = shards.max(1);
        self
    }

    /// Key every resolved plan to a partition strategy: different
    /// strategies cut different row windows, so their plans must not
    /// share cache slots. Contiguous (the default) keys identically to
    /// pre-partition-dimension caches.
    pub fn with_partition(mut self, partition: PartitionStrategy) -> Tuner {
        self.partition = partition;
        self
    }

    /// Hit/miss/evaluation counters.
    pub fn counters(&self) -> TunerCounters {
        self.cache.borrow().counters()
    }

    /// Number of cached plans.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    // -----------------------------------------------------------------
    // Plan resolution: the entry points dispatch sites call.
    // -----------------------------------------------------------------

    /// Resolve the SpMM plan for aggregating `f`-wide features over this
    /// graph. `weighted` distinguishes SpMMve (GAT) from SpMMv; `scaling`
    /// is the caller's correctness-mandated placement and is preserved
    /// verbatim in whatever plan wins.
    pub fn spmm_plan(
        &self,
        csr: &Csr,
        f: usize,
        weighted: bool,
        scaling: ScalePlacement,
    ) -> SpmmPlan {
        let op = if weighted { OpKind::SpmmVe } else { OpKind::SpmmV };
        let (key, stats) = self.key(op, Dtype::Half, f, csr, scaling);
        let pick = |p| if let KernelPlan::Spmm(p) = p { Some(p) } else { None };
        let cands = candidates::spmm_candidates(&stats);
        self.resolve(
            csr,
            &key,
            (KernelPlan::Spmm, pick),
            cands,
            Some(SpmmPlan::default()),
            |e, p| self.vet_spmm_on(e, f, weighted, scaling, p),
        )
        .expect("the default plan stands in when no candidate survives")
    }

    /// Resolve the INT8 SpMM plan for aggregating `f`-wide features over
    /// this graph, or `None` when **no** candidate survives the oracle +
    /// overflow + saturation gates. A `None` verdict is deliberately not
    /// cached: a dirty quantized plan must never become selectable via a
    /// stale cache entry, and the caller's f16 fallback re-asks cheaply.
    /// `seed` keys the stochastic-rounding streams the dispatch will run
    /// with, so the vetted kernel is the deployed kernel bit-for-bit.
    pub fn spmm_i8_plan(&self, csr: &Csr, f: usize, weighted: bool, seed: u64) -> Option<SpmmPlan> {
        let op = if weighted { OpKind::SpmmVe } else { OpKind::SpmmV };
        let (key, _) = self.key(op, Dtype::I8, f, csr, ScalePlacement::Discretized);
        let pick = |p| if let KernelPlan::SpmmI8(p) = p { Some(p) } else { None };
        let cands = candidates::spmm_i8_candidates();
        self.resolve(csr, &key, (KernelPlan::SpmmI8, pick), cands, None, |e, p| {
            self.vet_spmm_i8_on(e, f, weighted, seed, p)
        })
    }

    /// Resolve the SDDMM plan for `f`-wide features over this graph.
    pub fn sddmm_plan(&self, csr: &Csr, f: usize) -> SddmmPlan {
        let (key, _) = self.key(OpKind::Sddmm, Dtype::Half, f, csr, ScalePlacement::None);
        let pick = |p| if let KernelPlan::Sddmm(p) = p { Some(p) } else { None };
        let cands = candidates::sddmm_candidates(f);
        let default = Some(SddmmPlan::default_for(f));
        self.resolve(csr, &key, (KernelPlan::Sddmm, pick), cands, default, |e, p| {
            self.vet_sddmm_on(e, f, p)
        })
        .expect("the default plan stands in when no candidate survives")
    }

    /// Resolve the attention-pipeline plan (fused vs. unfused chain) for
    /// `f`-wide features over this graph. Odd `f` always resolves to
    /// unfused without tuning — the fused kernel requires half2-padded
    /// features.
    pub fn attn_plan(&self, csr: &Csr, f: usize) -> AttnPlan {
        if !f.is_multiple_of(2) {
            return AttnPlan::default();
        }
        let (key, _) = self.key(OpKind::Attn, Dtype::Half, f, csr, ScalePlacement::None);
        let pick = |p| if let KernelPlan::Attn(p) = p { Some(p) } else { None };
        let cands = candidates::attn_candidates();
        self.resolve(
            csr,
            &key,
            (KernelPlan::Attn, pick),
            cands,
            Some(AttnPlan::default()),
            |e, p| self.vet_attn_on(e, f, p),
        )
        .expect("the default plan stands in when no candidate survives")
    }

    /// The cache key for one dispatch over `csr`, keyed to this tuner's
    /// shard count and partition strategy, and the degree statistics it
    /// buckets (the SpMM candidates are pruned by them too).
    fn key(
        &self,
        op: OpKind,
        dtype: Dtype,
        f: usize,
        csr: &Csr,
        scaling: ScalePlacement,
    ) -> (KernelKey, DegreeStats) {
        let stats = degree_stats(csr);
        let key = KernelKey::for_graph(op, dtype, f, csr.num_rows(), csr.nnz(), &stats, scaling)
            .with_shards(self.shards)
            .with_partition(self.partition);
        (key, stats)
    }

    /// The one resolution loop behind every typed entry point: a cached
    /// plan of the entry's kind is a hit; a miss vets every candidate on
    /// the evaluation graph and commits the argmin of modeled cycles among
    /// the survivors, or `fallback` when none survives. A `None` fallback
    /// is never cached: the miss only counts its evaluations. The whole
    /// miss runs in one isolated overflow window, inputs included, so a
    /// cold cache adds nothing to the caller's record.
    fn resolve<P: Copy>(
        &self,
        csr: &Csr,
        key: &KernelKey,
        (wrap, pick): Kind<P>,
        cands: Vec<P>,
        fallback: Option<P>,
        vet: impl Fn(&EvalGraph, &P) -> Result<f64, Rejection>,
    ) -> Option<P> {
        if let Some(p) = self.cache.borrow_mut().get(key).and_then(pick) {
            return Some(p);
        }
        let evals = cands.len() as u64;
        let (best, _) = overflow::isolated(|| {
            let eval = EvalGraph::build(self, csr);
            let mut best = fallback;
            let mut best_cycles = f64::INFINITY;
            for plan in cands {
                if let Ok(cycles) = vet(&eval, &plan) {
                    if cycles < best_cycles {
                        best_cycles = cycles;
                        best = Some(plan);
                    }
                }
            }
            best
        });
        let mut cache = self.cache.borrow_mut();
        cache.record_evaluations(evals);
        if let Some(p) = best {
            cache.insert(key, wrap(p));
            if let Some(path) = &self.cache_path {
                // Persistence is best-effort: an unwritable path costs the
                // next process a re-tune, not this one a crash.
                let _ = cache.save(path);
            }
        }
        best
    }

    // -----------------------------------------------------------------
    // Candidate vetting: run, compare, gate, cost.
    // -----------------------------------------------------------------

    /// Evaluate one SpMM candidate on (a sample of) `csr`: run it under
    /// the oracle inside an isolated overflow window and return its
    /// modeled cycles, or the reason it is unsafe. Public so tests can
    /// probe the guard directly.
    pub fn vet_spmm(
        &self,
        csr: &Csr,
        f: usize,
        weighted: bool,
        scaling: ScalePlacement,
        plan: &SpmmPlan,
    ) -> Result<f64, Rejection> {
        self.vet_spmm_on(&EvalGraph::build(self, csr), f, weighted, scaling, plan)
    }

    fn vet_spmm_on(
        &self,
        eval: &EvalGraph,
        f: usize,
        weighted: bool,
        scaling: ScalePlacement,
        plan: &SpmmPlan,
    ) -> Result<f64, Rejection> {
        let x = eval.features(EVAL_SEED ^ 1, eval.coo.num_cols() * f);
        let weights = weighted.then(|| eval.features(EVAL_SEED ^ 2, eval.coo.nnz()));
        let w = weights.as_deref().map_or(EdgeWeights::Ones, EdgeWeights::Values);
        let row_scale =
            (scaling != ScalePlacement::None).then(|| row_scales_mean(&eval.coo.degrees()));
        let ((_, stats, report), summary) = overflow::isolated(|| match plan.variant {
            SpmmVariant::EdgeParallel => oracle::check_spmm(
                &self.dev,
                &eval.coo,
                w,
                &x,
                f,
                row_scale.as_deref(),
                &plan.to_spmm_config(scaling),
                self.tol,
            ),
            SpmmVariant::VertexParallel => oracle::check_spmm_vertex_parallel(
                &self.dev,
                &eval.csr,
                w,
                &x,
                f,
                row_scale.as_deref(),
                scaling,
                self.tol,
            ),
        });
        gate(&report, &summary)?;
        Ok(stats.cycles)
    }

    /// Evaluate one INT8 SpMM candidate: run it under the oracle inside
    /// nested saturation + overflow windows and return its modeled
    /// cycles, or the first reason it is unsafe. Public so tests can
    /// probe the quantization gate directly.
    pub fn vet_spmm_i8(
        &self,
        csr: &Csr,
        f: usize,
        weighted: bool,
        seed: u64,
        plan: &SpmmPlan,
    ) -> Result<f64, Rejection> {
        self.vet_spmm_i8_on(&EvalGraph::build(self, csr), f, weighted, seed, plan)
    }

    fn vet_spmm_i8_on(
        &self,
        eval: &EvalGraph,
        f: usize,
        weighted: bool,
        seed: u64,
        plan: &SpmmPlan,
    ) -> Result<f64, Rejection> {
        let x = eval.features(EVAL_SEED ^ 1, eval.coo.num_cols() * f);
        let weights = weighted.then(|| eval.features(EVAL_SEED ^ 2, eval.coo.nnz()));
        let w = weights.as_deref().map_or(EdgeWeights::Ones, EdgeWeights::Values);
        let row_scale = row_scales_mean(&eval.csr.degrees());
        let tiling =
            Tiling { edges_per_warp: plan.edges_per_warp, warps_per_cta: plan.warps_per_cta };
        let (((_, stats, report), ovf), sat) = quant::isolated(|| {
            overflow::isolated(|| {
                oracle::check_spmm_i8(
                    &self.dev,
                    &eval.csr,
                    w,
                    &x,
                    f,
                    Some(&row_scale),
                    tiling,
                    seed,
                    Tolerance::i8_default(),
                )
            })
        });
        // Saturation first: a clamped quantizer also diverges from the
        // oracle downstream, and the clamp is the root cause the
        // rejection should name.
        if !sat.is_clean() {
            return Err(Rejection::Saturation(match &sat.first {
                Some(e) => format!("{e}"),
                None => format!("{} flagged quantizations", sat.flagged()),
            }));
        }
        gate(&report, &ovf)?;
        Ok(stats.cycles)
    }

    /// Evaluate one SDDMM candidate; see [`Tuner::vet_spmm`].
    pub fn vet_sddmm(&self, csr: &Csr, f: usize, plan: &SddmmPlan) -> Result<f64, Rejection> {
        self.vet_sddmm_on(&EvalGraph::build(self, csr), f, plan)
    }

    fn vet_sddmm_on(&self, eval: &EvalGraph, f: usize, plan: &SddmmPlan) -> Result<f64, Rejection> {
        let u = eval.features(EVAL_SEED ^ 3, eval.coo.num_rows() * f);
        let v = eval.features(EVAL_SEED ^ 4, eval.coo.num_cols() * f);
        let ((got, stats), summary) = overflow::isolated(|| {
            sddmm_with_config(&self.dev, &eval.coo, &u, &v, f, &plan.to_sddmm_config())
        });
        let want = reference::sddmm_f64(
            &eval.coo,
            &reference::half_to_f64(&u),
            &reference::half_to_f64(&v),
            f,
        );
        let degrees = eval.coo.degrees();
        let report = oracle::compare_half(
            "tuner_sddmm",
            &got,
            &want,
            &Layout::PerEdge { rows: eval.coo.rows(), degrees: &degrees },
            self.tol,
        );
        gate(&report, &summary)?;
        Ok(stats.cycles)
    }

    /// Evaluate one attention-chain candidate; see [`Tuner::vet_spmm`].
    pub fn vet_attn(&self, csr: &Csr, f: usize, plan: &AttnPlan) -> Result<f64, Rejection> {
        self.vet_attn_on(&EvalGraph::build(self, csr), f, plan)
    }

    fn vet_attn_on(&self, eval: &EvalGraph, f: usize, plan: &AttnPlan) -> Result<f64, Rejection> {
        let s_row = eval.features(EVAL_SEED ^ 5, eval.coo.num_rows());
        let s_col = eval.features(EVAL_SEED ^ 6, eval.coo.num_cols());
        let z = eval.features(EVAL_SEED ^ 7, eval.coo.num_cols() * f);
        if plan.fused {
            let ((_, stats, report), summary) = overflow::isolated(|| {
                oracle::check_fused_attn_forward(
                    &self.dev, &eval.coo, &s_row, &s_col, ATTN_SLOPE, &z, f, self.tol,
                )
            });
            gate(&report, &summary)?;
            return Ok(stats.cycles);
        }
        // The unfused candidate is the five-kernel chain GAT runs today;
        // its cost is the sequential composition of every launch.
        let ((out, stats), summary) = overflow::isolated(|| {
            let dev = &self.dev;
            let coo = &eval.coo;
            let (e, s1) = edge_ops::src_dst_add_leakyrelu(dev, coo, &s_row, &s_col, ATTN_SLOPE);
            let (m, s2) = halfgnn_spmm::edge_reduce(dev, coo, &e, Reduce::Max);
            let (num, s3) = edge_ops::sub_row_exp(dev, coo, &e, &m, true);
            let (zs, s4) = halfgnn_spmm::edge_reduce(dev, coo, &num, Reduce::Sum);
            let (alpha, s5) = edge_ops::div_row(dev, coo, &num, &zs);
            let cfg = SpmmConfig { scaling: ScalePlacement::None, ..SpmmConfig::default() };
            let (out, s6) =
                halfgnn_spmm::spmm(dev, coo, EdgeWeights::Values(&alpha), &z, f, None, &cfg);
            (out, s1.then(&s2).then(&s3).then(&s4).then(&s5).then(&s6))
        });
        let sr = reference::half_to_f64(&s_row);
        let sc = reference::half_to_f64(&s_col);
        let e_f64 = reference::src_dst_add_leakyrelu_f64(&eval.coo, &sr, &sc, ATTN_SLOPE as f64);
        let m_f64 = reference::edge_reduce_f64(&eval.coo, &e_f64, Reduce::Max);
        let num_f64 = reference::sub_row_exp_f64(&eval.coo, &e_f64, &m_f64);
        let zs_f64 = reference::edge_reduce_f64(&eval.coo, &num_f64, Reduce::Sum);
        let alpha_f64 = reference::div_row_f64(&eval.coo, &num_f64, &zs_f64);
        let mut want = vec![0f64; eval.coo.num_rows() * f];
        let z_f64 = reference::half_to_f64(&z);
        for (ei, &a) in alpha_f64.iter().enumerate() {
            let (r, c) = eval.coo.edge(ei);
            for k in 0..f {
                want[r as usize * f + k] += a * z_f64[c as usize * f + k];
            }
        }
        let degrees = eval.coo.degrees();
        let report = oracle::compare_half(
            "tuner_attn_unfused",
            &out,
            &want,
            &Layout::RowMajor { f, degrees: &degrees },
            self.tol,
        );
        gate(&report, &summary)?;
        Ok(stats.cycles)
    }
}

/// A typed plan's place in the cache: how it wraps into a [`KernelPlan`],
/// and how a cached plan of its kind unwraps.
type Kind<P> = (fn(P) -> KernelPlan, fn(KernelPlan) -> Option<P>);

/// Oracle + provenance gate shared by all four vetting paths.
fn gate(report: &oracle::DivergenceReport, summary: &overflow::Summary) -> Result<(), Rejection> {
    if !report.is_ok() || report.nonfinite_got > 0 {
        return Err(Rejection::Divergence(format!("{report}")));
    }
    if !summary.is_clean() {
        return Err(Rejection::Overflow(match &summary.first {
            Some(e) => format!("{e}"),
            None => format!("{} non-finite conversions", summary.nonfinite()),
        }));
    }
    Ok(())
}

/// The graph candidates are evaluated on: the full graph below the
/// sampling threshold, otherwise a degree-stratified sample. Built once
/// per tuning run and shared by every candidate so comparisons are
/// apples-to-apples.
struct EvalGraph {
    coo: Coo,
    csr: Csr,
}

impl EvalGraph {
    fn build(t: &Tuner, csr: &Csr) -> EvalGraph {
        let coo = stratified_sample(csr, t.sample_threshold, EVAL_SEED);
        let csr = Csr::from_coo(&coo);
        EvalGraph { coo, csr }
    }

    /// Seeded synthetic inputs, strictly positive so degree-proportional
    /// sums cannot cancel — a plan that would overflow on adversarial
    /// real data overflows here too, instead of hiding behind symmetric
    /// noise.
    fn features(&self, seed: u64, len: usize) -> Vec<Half> {
        let mut rng = StdRng::seed_from_u64(seed);
        f32_slice_to_half(&(0..len).map(|_| rng.gen_range(0.1f32..1.0)).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_graph::gen;
    use halfgnn_kernels::common::WriteStrategy;

    fn dev() -> DeviceConfig {
        DeviceConfig::tiny()
    }

    fn er_graph() -> Csr {
        Csr::from_edges(300, 300, &gen::erdos_renyi(300, 1_800, 11)).symmetrized_with_self_loops()
    }

    fn star_graph() -> Csr {
        // One hub whose unscaled positive-feature sum is guaranteed past
        // HALF_MAX: degree ~150k times a mean feature of 0.55 ≈ 8.2e4 >
        // 65504. Fast even under Sim because f stays tiny.
        let edges: Vec<(u32, u32)> = (1..150_000u32).map(|c| (0, c)).collect();
        Csr::from_edges(150_000, 150_000, &edges)
    }

    #[test]
    fn default_plan_vets_clean_on_a_normal_graph() {
        let t = Tuner::auto(&dev());
        let cycles = t
            .vet_spmm(&er_graph(), 8, false, ScalePlacement::Discretized, &SpmmPlan::default())
            .expect("default plan must pass its own oracle");
        assert!(cycles > 0.0);
    }

    #[test]
    fn unscaled_hub_aggregation_is_rejected_by_the_guard() {
        // Satellite (c): an overflow-prone plan — atomic writes with
        // scaling disabled on a high-degree graph — must be rejected.
        let t = Tuner::auto(&dev()).with_sample_threshold(usize::MAX);
        let plan = SpmmPlan { writes: WriteStrategy::Atomic, ..SpmmPlan::default() };
        let err = t
            .vet_spmm(&star_graph(), 2, false, ScalePlacement::None, &plan)
            .expect_err("summing 150k positive halves must overflow");
        match err {
            Rejection::Divergence(msg) => assert!(msg.contains("NON-FINITE"), "{msg}"),
            Rejection::Overflow(_) => {} // provenance feature path
            Rejection::Saturation(_) => panic!("f16 vetting cannot saturate INT8"),
        }
        // The same graph under discretized scaling is safe.
        t.vet_spmm(&star_graph(), 2, false, ScalePlacement::Discretized, &SpmmPlan::default())
            .expect("discretized scaling keeps the hub finite");
    }

    #[test]
    fn tuned_plan_is_cached_and_reused() {
        let t = Tuner::auto(&dev());
        let g = er_graph();
        let p1 = t.spmm_plan(&g, 8, false, ScalePlacement::Discretized);
        let c1 = t.counters();
        assert_eq!(c1.misses, 1);
        assert_eq!(c1.hits, 0);
        assert!(c1.evaluations > 1, "must have tried more than the default");
        let p2 = t.spmm_plan(&g, 8, false, ScalePlacement::Discretized);
        assert_eq!(p1, p2);
        let c2 = t.counters();
        assert_eq!(c2.hits, 1);
        assert_eq!(c2.evaluations, c1.evaluations, "a hit evaluates nothing");
    }

    #[test]
    fn shard_counts_get_their_own_cache_slots() {
        let g = er_graph();
        let t1 = Tuner::auto(&dev());
        let t4 = Tuner::auto(&dev()).with_shards(4);
        t1.spmm_plan(&g, 8, false, ScalePlacement::Discretized);
        t4.spmm_plan(&g, 8, false, ScalePlacement::Discretized);
        // Both tuned from scratch: the s4 key must not hit the s1 slot.
        assert_eq!(t1.counters().misses, 1);
        assert_eq!(t4.counters().misses, 1);
        assert!(t4.counters().evaluations > 0, "sharded key must re-tune, not alias");
        // Same tuner, same shard count: second resolve is a hit.
        t4.spmm_plan(&g, 8, false, ScalePlacement::Discretized);
        assert_eq!(t4.counters().hits, 1);
    }

    #[test]
    fn sddmm_tuning_picks_a_legal_plan_and_caches_it() {
        let t = Tuner::auto(&dev());
        let g = er_graph();
        let p = t.sddmm_plan(&g, 12);
        assert_eq!(12 % p.width.lanes(), 0);
        assert_eq!(t.sddmm_plan(&g, 12), p);
        assert_eq!(t.counters().hits, 1);
    }

    #[test]
    fn tuned_spmm_never_loses_to_the_default_on_modeled_cycles() {
        let t = Tuner::auto(&dev());
        for (name, csr) in [
            ("er", er_graph()),
            (
                "powerlaw",
                Csr::from_edges(400, 400, &gen::preferential_attachment(400, 6, 5))
                    .symmetrized_with_self_loops(),
            ),
        ] {
            let plan = t.spmm_plan(&csr, 16, false, ScalePlacement::Discretized);
            let tuned = t
                .vet_spmm(&csr, 16, false, ScalePlacement::Discretized, &plan)
                .expect("winner must be safe");
            let default = t
                .vet_spmm(&csr, 16, false, ScalePlacement::Discretized, &SpmmPlan::default())
                .expect("default must be safe");
            assert!(tuned <= default, "{name}: tuned {tuned} > default {default}");
        }
    }

    #[test]
    fn sddmm_candidates_are_cost_distinguishable() {
        // Satellite: BENCH_pr3 showed speedup 1.000 on every config
        // because all candidates modeled identical cycles. With tile
        // geometry in the plan space, at least one graph/f combination
        // must produce candidates with different modeled costs.
        let t = Tuner::auto(&dev());
        let mut distinguishable = false;
        for (csr, f) in [(er_graph(), 64usize), (er_graph(), 8)] {
            let cycles: Vec<f64> = candidates::sddmm_candidates(f)
                .iter()
                .filter_map(|p| t.vet_sddmm(&csr, f, p).ok())
                .collect();
            assert!(!cycles.is_empty());
            if cycles.iter().any(|&c| c != cycles[0]) {
                distinguishable = true;
            }
        }
        assert!(distinguishable, "every SDDMM candidate still models identical cycles");
    }

    #[test]
    fn attn_tuning_picks_fused_where_it_wins_and_caches_it() {
        let t = Tuner::auto(&dev());
        let g = er_graph();
        // At small f the fused pass eliminates the edge-buffer round
        // trips that dominate; the tuner must notice.
        let fused = t.vet_attn(&g, 8, &AttnPlan { fused: true }).expect("fused must vet clean");
        let unfused = t.vet_attn(&g, 8, &AttnPlan { fused: false }).expect("unfused must vet");
        assert!(fused < unfused, "fused {fused} >= unfused {unfused}");
        let p = t.attn_plan(&g, 8);
        assert!(p.fused, "tuner must pick the cheaper fused plan");
        assert_eq!(t.attn_plan(&g, 8), p);
        assert_eq!(t.counters().hits, 1);
        // Odd f cannot run the fused kernel: resolves unfused, untuned.
        assert!(!t.attn_plan(&g, 7).fused);
    }

    #[test]
    fn attn_plan_round_trips_through_a_cache_file() {
        let dir = std::env::temp_dir().join("halfgnn-tune-attn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");
        std::fs::remove_file(&path).ok();
        let g = er_graph();

        let t1 = Tuner::cached(&dev(), &path);
        let p1 = t1.attn_plan(&g, 8);
        assert!(path.exists());

        let t2 = Tuner::cached(&dev(), &path);
        let p2 = t2.attn_plan(&g, 8);
        assert_eq!(p1, p2);
        let c = t2.counters();
        assert_eq!((c.hits, c.misses, c.evaluations), (1, 0, 0), "t2 must not re-tune");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saturation_dirty_i8_plans_are_rejected_and_never_cached() {
        let t = Tuner::auto(&dev());
        let g = er_graph();
        // Bias every quantizer scale 6 octaves too small: well-conditioned
        // eval features now clamp to ±127 — every candidate is dirty.
        quant::set_exponent_bias(-6);
        let err = t
            .vet_spmm_i8(&g, 8, false, 1, &SpmmPlan::default())
            .expect_err("a saturating candidate must be rejected");
        assert!(matches!(err, Rejection::Saturation(_)), "{err}");
        assert!(err.to_string().contains("saturation"), "{err}");
        let plan = t.spmm_i8_plan(&g, 8, false, 1);
        quant::set_exponent_bias(0);
        assert_eq!(plan, None, "no clean candidate may be selected");
        assert_eq!(t.cache_len(), 0, "a dirty verdict must never be cached");
        // With sane scales the same shape tunes clean and caches.
        let p = t.spmm_i8_plan(&g, 8, false, 1).expect("clean candidates exist");
        assert_eq!(t.cache_len(), 1);
        assert_eq!(t.spmm_i8_plan(&g, 8, false, 1), Some(p));
        assert_eq!(t.counters().hits, 1);
    }

    #[test]
    fn i8_saturation_window_does_not_leak_into_the_epoch_window() {
        // The vet runs inside quant::isolated: an outer training-epoch
        // saturation window must stay clean however dirty the candidates.
        let t = Tuner::auto(&dev());
        let g = er_graph();
        quant::begin();
        quant::set_exponent_bias(-6);
        assert_eq!(t.spmm_i8_plan(&g, 8, false, 2), None);
        quant::set_exponent_bias(0);
        let outer = quant::take();
        assert!(outer.is_clean(), "tuner vetting leaked {} events", outer.flagged());
        assert_eq!(outer.quantized, 0);
    }

    #[test]
    fn i8_plan_round_trips_through_a_cache_file() {
        let dir = std::env::temp_dir().join("halfgnn-tune-i8-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");
        std::fs::remove_file(&path).ok();
        let g = er_graph();

        let t1 = Tuner::cached(&dev(), &path);
        let p1 = t1.spmm_i8_plan(&g, 8, false, 7).expect("tunes clean");
        assert!(path.exists());
        // The persisted wire form names the quantized path explicitly.
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("/i8/"), "{json}");
        assert!(json.contains("spmm_i8:"), "{json}");

        let t2 = Tuner::cached(&dev(), &path);
        let p2 = t2.spmm_i8_plan(&g, 8, false, 7).expect("cache hit");
        assert_eq!(p1, p2);
        let c = t2.counters();
        assert_eq!((c.hits, c.misses, c.evaluations), (1, 0, 0), "t2 must not re-tune");
        // The i8 slot never aliases the f16 slot for the same shape.
        t2.spmm_plan(&g, 8, false, ScalePlacement::Discretized);
        assert_eq!(t2.counters().misses, 1, "f16 resolve must miss, not hit the i8 slot");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_half1_sddmm_cache_entry_is_retuned_not_run() {
        let dir = std::env::temp_dir().join("halfgnn-tune-half1-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");
        std::fs::remove_file(&path).ok();
        let g = er_graph();

        let p1 = Tuner::cached(&dev(), &path).sddmm_plan(&g, 64);
        let json = std::fs::read_to_string(&path).unwrap();
        let stale = json.replace(&KernelPlan::Sddmm(p1).encode(), "sddmm:half1:nosub:128:2");
        assert_ne!(stale, json, "{json}");
        std::fs::write(&path, stale).unwrap();

        let t2 = Tuner::cached(&dev(), &path);
        let p2 = t2.sddmm_plan(&g, 64);
        assert_eq!(p2, p1, "the entry re-tunes to the same winner");
        let c = t2.counters();
        assert_eq!((c.hits, c.misses), (0, 1), "a half1 entry is a miss");
        assert!(c.evaluations > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cached_mode_persists_across_tuner_instances() {
        let dir = std::env::temp_dir().join("halfgnn-tune-tuner-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");
        std::fs::remove_file(&path).ok();
        let g = er_graph();

        let t1 = Tuner::cached(&dev(), &path);
        let p1 = t1.spmm_plan(&g, 8, false, ScalePlacement::Discretized);
        assert!(path.exists());

        let t2 = Tuner::cached(&dev(), &path);
        let p2 = t2.spmm_plan(&g, 8, false, ScalePlacement::Discretized);
        assert_eq!(p1, p2);
        let c = t2.counters();
        assert_eq!((c.hits, c.misses, c.evaluations), (1, 0, 0), "t2 must not re-tune");
        std::fs::remove_file(&path).ok();
    }
}
