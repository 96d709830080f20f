//! Precomputed per-graph training state: both storage formats, degree-norm
//! tables in both precisions, and the transpose permutation backward
//! passes use to reindex edge tensors.

use halfgnn_graph::{BatchSubgraph, Coo, Csr, VertexId};
use halfgnn_half::Half;
use halfgnn_kernels::common::{row_scales_inv_sqrt, row_scales_mean};
use std::ops::Deref;

/// Everything the model steps need about the graph, computed once.
pub struct PreparedGraph {
    /// Canonical COO of Â (symmetrized, self-looped).
    pub coo: Coo,
    /// CSR of Â.
    pub csr: Csr,
    /// Row degrees.
    pub degrees: Vec<u32>,
    /// `1/deg` per row in half (discretized mean scaling).
    pub mean_scale_h: Vec<Half>,
    /// `1/deg` per row in f32.
    pub mean_scale_f: Vec<f32>,
    /// `1/sqrt(deg)` per row in half (GCN `both` norm).
    pub inv_sqrt_scale_h: Vec<Half>,
    /// `1/sqrt(deg)` per row in f32.
    pub inv_sqrt_scale_f: Vec<f32>,
    /// Transpose permutation: `alpha_t[i] = alpha[t_perm[i]]`.
    pub t_perm: Vec<usize>,
}

impl PreparedGraph {
    /// Build from a symmetric adjacency (panics otherwise: GNN training
    /// assumes Â = Âᵀ so backward kernels can reuse the same structure).
    /// The check reads the transpose permutation the backward needs anyway.
    pub fn new(csr: Csr) -> PreparedGraph {
        let coo = csr.to_coo();
        let t_perm = coo.transpose_permutation();
        assert!(is_symmetric(&coo, &t_perm), "training graphs must be symmetrized");
        let degrees = csr.degrees();
        let mean_scale_h = row_scales_mean(&degrees);
        let mean_scale_f =
            degrees.iter().map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 }).collect();
        let inv_sqrt_scale_h = row_scales_inv_sqrt(&degrees);
        let inv_sqrt_scale_f: Vec<f32> =
            degrees.iter().map(|&d| if d == 0 { 0.0 } else { 1.0 / (d as f32).sqrt() }).collect();
        PreparedGraph {
            coo,
            csr,
            degrees,
            mean_scale_h,
            mean_scale_f,
            inv_sqrt_scale_h,
            inv_sqrt_scale_f,
            t_perm,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.coo.num_rows()
    }

    /// Number of edges.
    pub fn nnz(&self) -> usize {
        self.coo.nnz()
    }

    /// Permute an edge tensor into transpose order.
    pub fn permute_to_transpose<T: Copy>(&self, e: &[T]) -> Vec<T> {
        self.t_perm.iter().map(|&i| e[i]).collect()
    }
}

/// True when `coo` equals its transpose, read through `t_perm`, its
/// transpose permutation: the graph is square and, for every `i`, edge
/// `t_perm[i]` reversed is edge `i`.
fn is_symmetric(coo: &Coo, t_perm: &[usize]) -> bool {
    let (rows, cols) = (coo.rows(), coo.cols());
    coo.num_rows() == coo.num_cols()
        && t_perm.iter().enumerate().all(|(i, &j)| rows[i] == cols[j] && cols[i] == rows[j])
}

/// Where a [`GraphView`] came from: the workspace-wide graph, or one
/// sampled batch subgraph.
#[derive(Clone, Debug)]
pub enum ViewOrigin {
    /// The full training graph (the paper's full-batch setting).
    Full,
    /// A neighbor-sampled batch subgraph in local ids.
    Batch(BatchMeta),
}

/// Provenance of a batch subgraph: the id map back to the global graph
/// plus the `(epoch, batch)` coordinates overflow events report.
#[derive(Clone, Debug)]
pub struct BatchMeta {
    /// Local → global vertex map (seeds first).
    pub global_ids: Vec<VertexId>,
    /// Rows `0..n_seeds` are the batch's loss-bearing seed vertices.
    pub n_seeds: usize,
    /// Epoch the batch was sampled in.
    pub epoch: usize,
    /// Batch index within the epoch's schedule.
    pub batch: usize,
}

/// The graph a model step runs on: a [`PreparedGraph`] plus its origin.
///
/// Models, `Dispatch`, and the trainer take `&GraphView` instead of the
/// workspace-wide CSR, so the same step functions serve full-batch
/// training and sampled mini-batches. `Deref` to [`PreparedGraph`] keeps
/// kernel call sites (`g.csr`, `g.n()`, `g.mean_scale_h`) unchanged.
pub struct GraphView {
    prepared: PreparedGraph,
    origin: ViewOrigin,
}

impl Deref for GraphView {
    type Target = PreparedGraph;
    fn deref(&self) -> &PreparedGraph {
        &self.prepared
    }
}

impl GraphView {
    /// View of the full training graph (must already be symmetric Â).
    pub fn full(csr: &Csr) -> GraphView {
        GraphView { prepared: PreparedGraph::new(csr.clone()), origin: ViewOrigin::Full }
    }

    /// View of one sampled batch. The raw sampled CSR has fanout-bounded
    /// in-rows but is *not* symmetric; the step functions assume Â = Âᵀ
    /// (shared forward/backward structure), so the batch adjacency is
    /// Â_B = sym(sample) + I over the batch's local vertex set.
    pub fn batch(sub: &BatchSubgraph, epoch: usize, batch: usize) -> GraphView {
        GraphView {
            prepared: PreparedGraph::new(sub.csr.symmetrized_with_self_loops()),
            origin: ViewOrigin::Batch(BatchMeta {
                global_ids: sub.global_ids.clone(),
                n_seeds: sub.n_seeds,
                epoch,
                batch,
            }),
        }
    }

    /// True when this view is a sampled batch subgraph.
    pub fn is_batch(&self) -> bool {
        matches!(self.origin, ViewOrigin::Batch(_))
    }

    /// Batch provenance, when this is a batch view.
    pub fn meta(&self) -> Option<&BatchMeta> {
        match &self.origin {
            ViewOrigin::Full => None,
            ViewOrigin::Batch(m) => Some(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prepared_graph_tables() {
        let csr = Csr::from_edges(4, 4, &[(0, 1), (1, 2)]).symmetrized_with_self_loops();
        let g = PreparedGraph::new(csr);
        assert_eq!(g.n(), 4);
        assert_eq!(g.degrees.len(), 4);
        for (v, &d) in g.degrees.iter().enumerate() {
            assert!((g.mean_scale_f[v] - 1.0 / d as f32).abs() < 1e-6);
            assert!((g.mean_scale_h[v].to_f32() - 1.0 / d as f32).abs() < 1e-3);
            assert!((g.inv_sqrt_scale_h[v].to_f32() - 1.0 / (d as f32).sqrt()).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_permutation_is_identity_on_symmetric_values() {
        // For a symmetric graph, permuting twice returns the original.
        let csr = Csr::from_edges(5, 5, &[(0, 1), (2, 3), (1, 4)]).symmetrized_with_self_loops();
        let g = PreparedGraph::new(csr);
        let vals: Vec<usize> = (0..g.nnz()).collect();
        let once = g.permute_to_transpose(&vals);
        let twice = g.permute_to_transpose(&once);
        assert_eq!(twice, vals);
    }

    #[test]
    #[should_panic(expected = "symmetrized")]
    fn asymmetric_graph_rejected() {
        PreparedGraph::new(Csr::from_edges(3, 3, &[(0, 1)]));
    }

    /// Up to 12 × 12 vertices and 40 edges; `mirror` adds every edge's
    /// reverse, so square graphs come out symmetric.
    fn arb_graph() -> impl Strategy<Value = Csr> {
        (1usize..12, 1usize..12, 0u8..2, 0u8..2).prop_flat_map(|(n, m, square, mirror)| {
            let (m, mirror) = (if square == 1 { n } else { m }, mirror == 1);
            let edge = (0..n as VertexId, 0..m as VertexId);
            proptest::collection::vec(edge, 0..40).prop_map(move |mut edges| {
                if mirror && n == m {
                    let reversed: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
                    edges.extend(reversed);
                }
                Csr::from_edges(n, m, &edges)
            })
        })
    }

    proptest! {
        /// The check through the transpose permutation is
        /// `Csr::is_symmetric`, on square and non-square graphs,
        /// symmetric and not.
        #[test]
        fn the_permutation_check_is_csr_symmetry(csr in arb_graph()) {
            let coo = csr.to_coo();
            prop_assert_eq!(is_symmetric(&coo, &coo.transpose_permutation()), csr.is_symmetric());
        }
    }

    #[test]
    fn full_view_derefs_to_prepared_graph() {
        let csr = Csr::from_edges(4, 4, &[(0, 1), (1, 2)]).symmetrized_with_self_loops();
        let v = GraphView::full(&csr);
        assert!(!v.is_batch());
        assert!(v.meta().is_none());
        assert_eq!(v.n(), 4);
        assert_eq!(v.csr, csr);
    }

    #[test]
    fn batch_view_symmetrizes_the_sampled_csr_and_keeps_provenance() {
        // A raw sampled subgraph is directed (fanout-bounded rows).
        let sub = BatchSubgraph {
            csr: Csr::from_edges(3, 3, &[(0, 1), (0, 2), (1, 2)]),
            global_ids: vec![7, 3, 9],
            n_seeds: 2,
        };
        let v = GraphView::batch(&sub, 4, 1);
        assert!(v.is_batch());
        assert!(v.csr.is_symmetric(), "batch adjacency must be symmetric");
        for u in 0..3u32 {
            assert!(v.csr.row(u).contains(&u), "missing self loop at {u}");
        }
        let m = v.meta().unwrap();
        assert_eq!(m.global_ids, vec![7, 3, 9]);
        assert_eq!((m.n_seeds, m.epoch, m.batch), (2, 4, 1));
    }
}
