//! Cache keys: which dispatches are "the same kernel" for tuning purposes.
//!
//! A plan tuned on one graph transfers to another when the *shape* of the
//! work matches — the op, the feature width, and the coarse geometry of
//! the sparsity pattern. The key therefore buckets rows, nnz and average
//! degree logarithmically (a 1.9× size change rarely flips the winning
//! tile geometry; a 100× change often does) and buckets the degree
//! coefficient of variation into the three regimes that actually change
//! kernel behavior (§3.1.3, Fig. 9): regular, Erdős–Rényi-like, and
//! power-law.

use halfgnn_graph::metrics::DegreeStats;
use halfgnn_graph::partition::PartitionStrategy;
use halfgnn_kernels::common::ScalePlacement;
use std::fmt;

/// Which kernel family a dispatch belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// SpMM with implicit unit weights (GCN/GIN/SAGE aggregation).
    SpmmV,
    /// SpMM with explicit per-edge weights (GAT's attention aggregation).
    SpmmVe,
    /// Sampled dense-dense matmul (GAT attention scores).
    Sddmm,
    /// The GAT attention chain (scores → softmax → aggregation): tuned as
    /// one op because its fused/unfused choice spans all five kernels.
    Attn,
}

impl OpKind {
    fn tag(self) -> &'static str {
        match self {
            OpKind::SpmmV => "spmmv",
            OpKind::SpmmVe => "spmmve",
            OpKind::Sddmm => "sddmm",
            OpKind::Attn => "attn",
        }
    }

    fn from_tag(s: &str) -> Option<OpKind> {
        Some(match s {
            "spmmv" => OpKind::SpmmV,
            "spmmve" => OpKind::SpmmVe,
            "sddmm" => OpKind::Sddmm,
            "attn" => OpKind::Attn,
            _ => return None,
        })
    }
}

/// Element dtype of the dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dtype {
    /// IEEE binary16.
    Half,
    /// IEEE binary32 (baseline kernels; not tuned yet).
    Float,
    /// INT8 block-quantized with stochastic rounding. Its own slot: an
    /// I8 plan carries an oracle/saturation verdict that must never alias
    /// the f16 plan for the same shape.
    I8,
}

impl Dtype {
    fn tag(self) -> &'static str {
        match self {
            Dtype::Half => "f16",
            Dtype::Float => "f32",
            Dtype::I8 => "i8",
        }
    }

    fn from_tag(s: &str) -> Option<Dtype> {
        Some(match s {
            "f16" => Dtype::Half,
            "f32" => Dtype::Float,
            "i8" => Dtype::I8,
            _ => return None,
        })
    }
}

/// Degree-CV regime of the graph (computed from [`DegreeStats::cv`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CvBucket {
    /// CV < 0.3: near-regular (grids, road networks).
    Regular,
    /// 0.3 ≤ CV < 1.0: Erdős–Rényi-like.
    Uniform,
    /// CV ≥ 1.0: power-law / hub-dominated.
    Skewed,
}

impl CvBucket {
    /// Bucket a raw CV value.
    pub fn of(cv: f64) -> CvBucket {
        if cv < 0.3 {
            CvBucket::Regular
        } else if cv < 1.0 {
            CvBucket::Uniform
        } else {
            CvBucket::Skewed
        }
    }

    fn tag(self) -> &'static str {
        match self {
            CvBucket::Regular => "reg",
            CvBucket::Uniform => "uni",
            CvBucket::Skewed => "skew",
        }
    }

    fn from_tag(s: &str) -> Option<CvBucket> {
        Some(match s {
            "reg" => CvBucket::Regular,
            "uni" => CvBucket::Uniform,
            "skew" => CvBucket::Skewed,
            _ => return None,
        })
    }
}

/// Floor of log2, with 0 mapping to bucket 0.
fn log2_bucket(v: usize) -> u32 {
    if v == 0 {
        0
    } else {
        usize::BITS - 1 - v.leading_zeros()
    }
}

/// The tuning-cache key for one kernel dispatch shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelKey {
    /// Kernel family.
    pub op: OpKind,
    /// Element dtype.
    pub dtype: Dtype,
    /// Exact feature width — vector-width legality (`f % 8 == 0` for
    /// half8) depends on the exact value, so it is never bucketed.
    pub f: usize,
    /// ⌊log2(rows)⌋.
    pub rows_bucket: u32,
    /// ⌊log2(nnz)⌋.
    pub nnz_bucket: u32,
    /// ⌊log2(mean degree)⌋.
    pub avg_deg_bucket: u32,
    /// Degree-CV regime.
    pub cv: CvBucket,
    /// Scaling placement the dispatch will run with — overflow legality of
    /// a plan depends on it, so plans must not cross placements.
    pub scaling: ScalePlacement,
    /// Shard count the dispatch will run under. Exact, not bucketed: the
    /// per-shard row windows change the work geometry every launch sees,
    /// so a plan tuned single-device must not leak into an 8-way run.
    pub shards: usize,
    /// Partition strategy the dispatch's row windows come from. Different
    /// strategies cut the graph at different boundaries (Contiguous splits
    /// rows evenly, DegreeBalanced/1.5D split edges evenly), so a plan
    /// tuned under one set of windows must not alias another's slot.
    pub partition: PartitionStrategy,
}

impl KernelKey {
    /// Build the key for a dispatch over a graph with `rows` vertices and
    /// `nnz` edges whose degree distribution is `stats`.
    pub fn for_graph(
        op: OpKind,
        dtype: Dtype,
        f: usize,
        rows: usize,
        nnz: usize,
        stats: &DegreeStats,
        scaling: ScalePlacement,
    ) -> KernelKey {
        KernelKey {
            op,
            dtype,
            f,
            rows_bucket: log2_bucket(rows),
            nnz_bucket: log2_bucket(nnz),
            avg_deg_bucket: log2_bucket(stats.mean as usize),
            cv: CvBucket::of(stats.cv),
            scaling,
            shards: 1,
            partition: PartitionStrategy::Contiguous,
        }
    }

    /// Key the plan to a shard count (single-device keys stay `s1`).
    pub fn with_shards(mut self, shards: usize) -> KernelKey {
        self.shards = shards.max(1);
        self
    }

    /// Key the plan to a partition strategy. Contiguous is the default and
    /// encodes to the legacy 9-part wire form, so every pre-existing cache
    /// entry keeps its slot.
    pub fn with_partition(mut self, partition: PartitionStrategy) -> KernelKey {
        self.partition = partition;
        self
    }

    fn scaling_tag(self) -> &'static str {
        match self.scaling {
            ScalePlacement::None => "none",
            ScalePlacement::PostReduction => "post",
            ScalePlacement::PreReduction => "pre",
            ScalePlacement::Discretized => "disc",
        }
    }

    /// Wire segment for a non-default partition (`None` for Contiguous so
    /// default keys keep the legacy 9-part form).
    fn partition_segment(&self) -> Option<String> {
        match self.partition {
            PartitionStrategy::Contiguous => None,
            PartitionStrategy::DegreeBalanced => Some("pbalanced".to_string()),
            PartitionStrategy::OneP5D { c } => Some(format!("p1p5dc{c}")),
        }
    }

    /// Stable wire form (the JSON key in the plan cache).
    pub fn encode(&self) -> String {
        let mut s = format!(
            "{}/{}/f{}/r{}/z{}/d{}/{}/{}/s{}",
            self.op.tag(),
            self.dtype.tag(),
            self.f,
            self.rows_bucket,
            self.nnz_bucket,
            self.avg_deg_bucket,
            self.cv.tag(),
            self.scaling_tag(),
            self.shards
        );
        if let Some(seg) = self.partition_segment() {
            s.push('/');
            s.push_str(&seg);
        }
        s
    }

    /// Parse the wire form back; `None` on anything malformed, which the
    /// plan cache counts as a miss. A 9-part key (no partition segment)
    /// decodes as Contiguous, the dispatch it was tuned under.
    pub fn decode(s: &str) -> Option<KernelKey> {
        let parts: Vec<&str> = s.split('/').collect();
        if !(9..=10).contains(&parts.len()) {
            return None;
        }
        let num = |p: &str, prefix: char| -> Option<u64> { p.strip_prefix(prefix)?.parse().ok() };
        let shards = match num(parts[8], 's')? as usize {
            0 => return None,
            n => n,
        };
        let partition = match parts.get(9) {
            None => PartitionStrategy::Contiguous,
            Some(&"pbalanced") => PartitionStrategy::DegreeBalanced,
            Some(p) => {
                let c: usize = p.strip_prefix("p1p5dc")?.parse().ok()?;
                if c == 0 {
                    return None;
                }
                PartitionStrategy::OneP5D { c }
            }
        };
        Some(KernelKey {
            op: OpKind::from_tag(parts[0])?,
            dtype: Dtype::from_tag(parts[1])?,
            f: num(parts[2], 'f')? as usize,
            rows_bucket: num(parts[3], 'r')? as u32,
            nnz_bucket: num(parts[4], 'z')? as u32,
            avg_deg_bucket: num(parts[5], 'd')? as u32,
            cv: CvBucket::from_tag(parts[6])?,
            scaling: match parts[7] {
                "none" => ScalePlacement::None,
                "post" => ScalePlacement::PostReduction,
                "pre" => ScalePlacement::PreReduction,
                "disc" => ScalePlacement::Discretized,
                _ => return None,
            },
            shards,
            partition,
        })
    }
}

impl fmt::Display for KernelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_graph::{gen, Csr};

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(1024), 10);
        assert_eq!(log2_bucket(2047), 10);
        assert_eq!(log2_bucket(2048), 11);
    }

    #[test]
    fn log2_bucket_is_exact_at_every_power_of_two_boundary() {
        // The transfer rule flips exactly at powers of two: 2^k−1 sits in
        // bucket k−1, and 2^k / 2^k+1 both sit in bucket k. Sweep every
        // representable k so an off-by-one in the leading_zeros arithmetic
        // can't hide at any scale.
        for k in 1..usize::BITS {
            let p = 1usize << k;
            assert_eq!(log2_bucket(p - 1), k - 1, "2^{k}-1");
            assert_eq!(log2_bucket(p), k, "2^{k}");
            if let Some(above) = p.checked_add(1) {
                assert_eq!(log2_bucket(above), k, "2^{k}+1");
            }
        }
    }

    #[test]
    fn wire_form_splits_and_merges_keys_exactly_at_bucket_boundaries() {
        // encode() must separate 2^k−1 from 2^k (different cache slots)
        // and collapse 2^k with 2^k+1 (same slot) — for rows and nnz — and
        // a key without its shard segment is malformed.
        let stats = DegreeStats {
            min: 1,
            max: 32,
            mean: 8.0,
            median: 8,
            gini: 0.2,
            top1pct_edge_share: 0.05,
            cv: 0.5,
            max_mean_skew: 4.0,
        };
        let key = |rows: usize, nnz: usize| {
            KernelKey::for_graph(
                OpKind::SpmmV,
                Dtype::Half,
                64,
                rows,
                nnz,
                &stats,
                ScalePlacement::Discretized,
            )
        };
        for k in [4u32, 10, 16, 20] {
            let p = 1usize << k;
            // rows boundary triplet.
            assert_ne!(key(p - 1, 4 * p).encode(), key(p, 4 * p).encode(), "rows 2^{k}");
            assert_eq!(key(p, 4 * p).encode(), key(p + 1, 4 * p).encode(), "rows 2^{k}+1");
            assert!(key(p, 4 * p).encode().contains(&format!("/r{k}/")), "rows bucket tag");
            // nnz boundary triplet.
            assert_ne!(key(1024, p - 1).encode(), key(1024, p).encode(), "nnz 2^{k}");
            assert_eq!(key(1024, p).encode(), key(1024, p + 1).encode(), "nnz 2^{k}+1");
            // Every boundary key round-trips through the wire form...
            for rows in [p - 1, p, p + 1] {
                let b = key(rows, 4 * p);
                assert_eq!(KernelKey::decode(&b.encode()), Some(b), "{b}");
                // ...and its 8-part spelling (no "/s1") does not decode.
                let enc = b.encode();
                let unsharded = enc.strip_suffix("/s1").expect("for_graph keys end in /s1");
                assert_eq!(KernelKey::decode(unsharded), None, "{unsharded}");
            }
        }
        // Shard counts are exact (never bucketed): a power-of-two triplet
        // of shard counts yields three distinct keys that all round-trip.
        let base = key(1024, 8192);
        for shards in [7usize, 8, 9] {
            let k = base.with_shards(shards);
            assert_eq!(KernelKey::decode(&k.encode()), Some(k), "{k}");
        }
        assert_ne!(base.with_shards(7).encode(), base.with_shards(8).encode());
        assert_ne!(base.with_shards(8).encode(), base.with_shards(9).encode());
    }

    #[test]
    fn i8_keys_round_trip_and_never_alias_f16_slots() {
        let stats = DegreeStats {
            min: 1,
            max: 32,
            mean: 8.0,
            median: 8,
            gini: 0.2,
            top1pct_edge_share: 0.05,
            cv: 0.5,
            max_mean_skew: 4.0,
        };
        let mk = |dtype| {
            KernelKey::for_graph(
                OpKind::SpmmV,
                dtype,
                64,
                1024,
                8192,
                &stats,
                ScalePlacement::Discretized,
            )
        };
        let i8 = mk(Dtype::I8);
        assert!(i8.encode().contains("/i8/"), "{}", i8.encode());
        assert_ne!(i8.encode(), mk(Dtype::Half).encode());
        // Round-trips at bucket boundaries, sharded and partitioned forms.
        for k in [
            i8,
            i8.with_shards(4),
            i8.with_shards(4).with_partition(PartitionStrategy::OneP5D { c: 2 }),
            KernelKey { rows_bucket: 9, ..i8 },
            KernelKey { rows_bucket: 10, ..i8 },
        ] {
            assert_eq!(KernelKey::decode(&k.encode()), Some(k), "{k}");
        }
        // Each dtype tag decodes to its own dtype; no 8-part key decodes.
        let k = KernelKey::decode("spmmv/f16/f64/r10/z13/d3/uni/disc/s1").expect("f16 key");
        assert_eq!(k.dtype, Dtype::Half);
        let k = KernelKey::decode("spmmv/i8/f64/r10/z13/d3/uni/disc/s1").expect("i8 key");
        assert_eq!(k.dtype, Dtype::I8);
        for dtype in ["f16", "i8"] {
            let unsharded = format!("spmmv/{dtype}/f64/r10/z13/d3/uni/disc");
            assert_eq!(KernelKey::decode(&unsharded), None, "{unsharded}");
        }
        // An unknown dtype tag degrades to a miss, never a panic.
        assert_eq!(KernelKey::decode("spmmv/i4/f64/r10/z13/d3/uni/disc/s1"), None);
    }

    #[test]
    fn cv_buckets_split_the_generator_families() {
        assert_eq!(CvBucket::of(0.0), CvBucket::Regular);
        assert_eq!(CvBucket::of(0.29), CvBucket::Regular);
        assert_eq!(CvBucket::of(0.5), CvBucket::Uniform);
        assert_eq!(CvBucket::of(1.0), CvBucket::Skewed);
        assert_eq!(CvBucket::of(7.3), CvBucket::Skewed);
    }

    #[test]
    fn key_wire_form_round_trips() {
        let csr = Csr::from_edges(2_000, 2_000, &gen::preferential_attachment(2_000, 5, 1))
            .symmetrized_with_self_loops();
        let stats = halfgnn_graph::metrics::degree_stats(&csr);
        for (op, scaling) in [
            (OpKind::SpmmV, ScalePlacement::Discretized),
            (OpKind::SpmmVe, ScalePlacement::None),
            (OpKind::Sddmm, ScalePlacement::None),
            (OpKind::Attn, ScalePlacement::None),
        ] {
            let k = KernelKey::for_graph(
                op,
                Dtype::Half,
                64,
                csr.num_rows(),
                csr.nnz(),
                &stats,
                scaling,
            );
            assert_eq!(KernelKey::decode(&k.encode()), Some(k), "{k}");
        }
    }

    #[test]
    fn similar_graphs_share_a_key_and_dissimilar_ones_do_not() {
        let mk = |n: usize, m: usize, seed: u64| {
            let csr =
                Csr::from_edges(n, n, &gen::erdos_renyi(n, m, seed)).symmetrized_with_self_loops();
            let stats = halfgnn_graph::metrics::degree_stats(&csr);
            KernelKey::for_graph(
                OpKind::SpmmV,
                Dtype::Half,
                64,
                csr.num_rows(),
                csr.nnz(),
                &stats,
                ScalePlacement::Discretized,
            )
        };
        // Two seeds of the same generator land in the same bucket...
        assert_eq!(mk(2_000, 10_000, 1), mk(2_000, 10_000, 2));
        // ...but a 16× larger graph does not.
        assert_ne!(mk(32_000, 160_000, 1), mk(2_000, 10_000, 1));
    }

    #[test]
    fn malformed_keys_decode_to_none() {
        for bad in [
            "",
            "spmmv/f16/f64/r10/z13/d3/uni",
            "spmmv/f16/f64/r10/z13/d3/uni/disc",
            "spmmv/f16/f64/r10/z13/d3/uni/disc/extra",
            "spmmv/f16/f64/r10/z13/d3/uni/disc/s2/more",
            "conv/f16/f64/r10/z13/d3/uni/disc/s1",
            "spmmv/f16/x64/r10/z13/d3/uni/disc/s1",
            "spmmv/f16/f64/r10/z13/d3/wild/disc/s1",
            "spmmv/f16/f64/r10/z13/d3/uni/sometimes/s1",
            "spmmv/f16/f64/r10/z13/d3/uni/disc/x2",
            "spmmv/f16/f64/r10/z13/d3/uni/disc/s0",
            "spmmv/f16/f64/r10/z13/d3/uni/disc/sten",
            "spmmv/f16/f64/r10/z13/d3/uni/disc/s2/pcontiguous",
            "spmmv/f16/f64/r10/z13/d3/uni/disc/s2/p1p5dc0",
            "spmmv/f16/f64/r10/z13/d3/uni/disc/s2/p1p5dctwo",
            "spmmv/f16/f64/r10/z13/d3/uni/disc/s2/pbalanced/extra",
        ] {
            assert_eq!(KernelKey::decode(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn sharded_keys_round_trip_and_unsharded_keys_are_malformed() {
        let csr = Csr::from_edges(500, 500, &gen::erdos_renyi(500, 2_500, 3))
            .symmetrized_with_self_loops();
        let stats = halfgnn_graph::metrics::degree_stats(&csr);
        let base = KernelKey::for_graph(
            OpKind::SpmmV,
            Dtype::Half,
            32,
            csr.num_rows(),
            csr.nnz(),
            &stats,
            ScalePlacement::Discretized,
        );
        assert_eq!(base.shards, 1, "for_graph defaults to single-device");
        for shards in [1usize, 2, 4, 8] {
            let k = base.with_shards(shards);
            assert!(k.encode().ends_with(&format!("/s{shards}")));
            assert_eq!(KernelKey::decode(&k.encode()), Some(k), "{k}");
        }
        // Keys differing only in shard count must not alias a cache slot.
        assert_ne!(base.with_shards(2), base.with_shards(4));
        // A key written before the shard segment existed is malformed: the
        // cache counts it as a miss and re-tunes.
        let unsharded = base.encode();
        let unsharded = unsharded.strip_suffix("/s1").expect("single-device keys end in /s1");
        assert_eq!(KernelKey::decode(unsharded), None, "{unsharded}");
    }

    #[test]
    fn partition_keys_round_trip_and_default_partition_stays_nine_part() {
        use halfgnn_graph::partition::PartitionStrategy;
        let stats = DegreeStats {
            min: 1,
            max: 32,
            mean: 8.0,
            median: 8,
            gini: 0.2,
            top1pct_edge_share: 0.05,
            cv: 0.5,
            max_mean_skew: 4.0,
        };
        let base = KernelKey::for_graph(
            OpKind::SpmmV,
            Dtype::Half,
            64,
            1024,
            8192,
            &stats,
            ScalePlacement::Discretized,
        )
        .with_shards(4);
        // The default (Contiguous) keeps the legacy 9-part wire form, so
        // pre-existing cache entries keep their slots.
        assert_eq!(base.partition, PartitionStrategy::Contiguous);
        assert!(base.encode().ends_with("/s4"));
        // Non-default partitions get their own slot and round-trip.
        for p in [
            PartitionStrategy::DegreeBalanced,
            PartitionStrategy::OneP5D { c: 1 },
            PartitionStrategy::OneP5D { c: 2 },
        ] {
            let k = base.with_partition(p);
            assert_ne!(k.encode(), base.encode(), "{k}");
            assert_eq!(KernelKey::decode(&k.encode()), Some(k), "{k}");
        }
        // Replication factors are distinct slots: c=1 and c=2 run the same
        // windows today, but the key is the strategy, not its geometry.
        assert_ne!(
            base.with_partition(PartitionStrategy::OneP5D { c: 1 }).encode(),
            base.with_partition(PartitionStrategy::OneP5D { c: 2 }).encode(),
        );
        // with_partition(Contiguous) re-normalizes to the 9-part form.
        let k = base.with_partition(PartitionStrategy::DegreeBalanced);
        assert_eq!(k.with_partition(PartitionStrategy::Contiguous).encode(), base.encode());
    }

    #[test]
    fn bucket_boundaries_split_keys_exactly_at_powers_of_two_and_cv_edges() {
        // The transfer rule: same bucket ⇒ same plan. These are the exact
        // edges where that rule flips, pinned value-by-value.
        let stats = |mean: f64, cv: f64| DegreeStats {
            min: 1,
            max: 32,
            mean,
            median: 8,
            gini: 0.2,
            top1pct_edge_share: 0.05,
            cv,
            max_mean_skew: 4.0,
        };
        let key = |rows: usize, nnz: usize, s: &DegreeStats| {
            KernelKey::for_graph(
                OpKind::SpmmV,
                Dtype::Half,
                64,
                rows,
                nnz,
                s,
                ScalePlacement::Discretized,
            )
        };
        let s = stats(8.0, 0.5);
        // rows: 1023 → bucket 9, 1024 → bucket 10, 2047 still 10.
        assert_ne!(key(1023, 4096, &s), key(1024, 4096, &s));
        assert_eq!(key(1024, 4096, &s), key(2047, 4096, &s));
        assert_ne!(key(2047, 4096, &s), key(2048, 4096, &s));
        // nnz boundary behaves identically.
        assert_ne!(key(1024, 8191, &s), key(1024, 8192, &s));
        assert_eq!(key(1024, 8192, &s), key(1024, 16_383, &s));
        // avg-degree boundary: mean 15.9 floors to bucket 3, 16.0 to 4.
        assert_ne!(key(1024, 4096, &stats(15.9, 0.5)), key(1024, 4096, &stats(16.0, 0.5)));
        assert_eq!(key(1024, 4096, &stats(16.0, 0.5)), key(1024, 4096, &stats(31.9, 0.5)));
        // CV regime edges: 0.3 is the first Uniform, 1.0 the first Skewed.
        assert_eq!(CvBucket::of(0.299_999), CvBucket::Regular);
        assert_eq!(CvBucket::of(0.3), CvBucket::Uniform);
        assert_eq!(CvBucket::of(0.999_999), CvBucket::Uniform);
        assert_eq!(CvBucket::of(1.0), CvBucket::Skewed);
        assert_ne!(key(1024, 4096, &stats(8.0, 0.299_999)), key(1024, 4096, &stats(8.0, 0.3)));
        assert_ne!(key(1024, 4096, &stats(8.0, 0.999_999)), key(1024, 4096, &stats(8.0, 1.0)));
    }
}
