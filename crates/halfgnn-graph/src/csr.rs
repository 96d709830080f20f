//! CSR (compressed sparse row) storage: an offset array pointing at the
//! start of each row's neighborhood plus a flat column array. Vertex-parallel
//! kernels allocate warps per row slice; the offset array also supplies the
//! degrees that discretized reduction scaling divides by.

use crate::{Coo, VertexId};

/// A sparse graph in CSR format.
///
/// Invariant: every row's column indices are sorted and duplicate-free.
/// Every constructor either canonicalizes its input or adopts rows that
/// already are, so the transpose, the symmetry check and the COO
/// conversion below run in linear passes without sorting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    num_cols: usize,
    offsets: Vec<usize>,
    cols: Vec<VertexId>,
}

impl Csr {
    /// Build from an edge list (sorted + deduplicated internally).
    pub fn from_edges(num_rows: usize, num_cols: usize, edges: &[(VertexId, VertexId)]) -> Csr {
        Csr::from_coo(&Coo::from_edges(num_rows, num_cols, edges))
    }

    /// Convert from canonical COO (already row-sorted: a single counting
    /// pass builds the offsets).
    pub fn from_coo(coo: &Coo) -> Csr {
        let offsets = bucket_offsets(coo.num_rows(), coo.rows());
        Csr { num_cols: coo.num_cols(), offsets, cols: coo.cols().to_vec() }
    }

    /// Adopt an offset array and rows that are already sorted and
    /// duplicate-free without sorting them again.
    pub(crate) fn from_sorted_rows(
        num_cols: usize,
        offsets: Vec<usize>,
        cols: Vec<VertexId>,
    ) -> Csr {
        debug_assert!(offsets.first() == Some(&0) && offsets.last() == Some(&cols.len()));
        debug_assert!(cols.iter().all(|&c| (c as usize) < num_cols));
        debug_assert!(
            offsets.windows(2).all(|w| w[0] <= w[1] && cols[w[0]..w[1]].is_sorted_by(|a, b| a < b)),
            "rows must be sorted and duplicate-free"
        );
        Csr { num_cols, offsets, cols }
    }

    /// Convert to canonical COO: each row index repeated across its row.
    pub fn to_coo(&self) -> Coo {
        let mut rows = Vec::with_capacity(self.nnz());
        for (r, w) in self.offsets.windows(2).enumerate() {
            rows.resize(w[1], r as VertexId);
        }
        Coo::from_canonical(self.num_rows(), self.num_cols, rows, self.cols.clone())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The offset array (`num_rows + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat, row-major column array.
    pub fn cols(&self) -> &[VertexId] {
        &self.cols
    }

    /// Neighborhood (column indices) of row `v`.
    pub fn row(&self, v: VertexId) -> &[VertexId] {
        &self.cols[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree (neighborhood size) of row `v`.
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Degrees of all rows.
    pub fn degrees(&self) -> Vec<u32> {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect()
    }

    /// Largest row degree (0 for an empty graph).
    pub fn max_degree(&self) -> u32 {
        (0..self.num_rows()).map(|v| self.degree(v as VertexId)).max().unwrap_or(0)
    }

    /// Mean row degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_rows() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.num_rows() as f64
        }
    }

    /// Transposed copy: a counting sort by column, `O(nnz + rows + cols)`.
    /// Rows are visited in ascending order, so each column's bucket fills
    /// with its rows sorted.
    pub fn transpose(&self) -> Csr {
        let offsets = bucket_offsets(self.num_cols, &self.cols);
        let mut next = offsets.clone();
        let mut cols = vec![0; self.nnz()];
        for r in 0..self.num_rows() as VertexId {
            for &c in self.row(r) {
                cols[next[c as usize]] = r;
                next[c as usize] += 1;
            }
        }
        Csr::from_sorted_rows(self.num_rows(), offsets, cols)
    }

    /// True when for every edge (u, v) the reverse edge (v, u) is present —
    /// the undirected convention GNN datasets use. Rows are canonical, so
    /// that is every row equal to its transposed row.
    pub fn is_symmetric(&self) -> bool {
        self.num_rows() == self.num_cols && self.transpose() == *self
    }

    /// Copy with every edge mirrored and a self-loop on each vertex — the
    /// standard GCN preprocessing (Â = A + Aᵀ + I). Each row is the union
    /// of the row, its transposed row and the loop.
    pub fn symmetrized_with_self_loops(&self) -> Csr {
        assert_eq!(self.num_rows(), self.num_cols, "need a square adjacency");
        let t = self.transpose();
        let (mut offsets, mut row) = (vec![0], Vec::new());
        let mut cols = Vec::with_capacity(self.nnz() * 2 + self.num_rows());
        for r in 0..self.num_rows() as VertexId {
            row.clear();
            union_into(&mut row, self.row(r), t.row(r));
            union_into(&mut cols, &row, &[r]);
            offsets.push(cols.len());
        }
        Csr::from_sorted_rows(self.num_cols, offsets, cols)
    }
}

/// Offsets of the buckets `ids` sort into: `n + 1` entries, bucket `i`
/// holding the ids equal to `i` (one counting pass and a prefix sum).
pub(crate) fn bucket_offsets(n: usize, ids: &[VertexId]) -> Vec<usize> {
    let mut offsets = vec![0usize; n + 1];
    for &i in ids {
        offsets[i as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    offsets
}

/// Append the union of two sorted, duplicate-free rows to `out`, sorted
/// and duplicate-free.
pub(crate) fn union_into(out: &mut Vec<VertexId>, a: &[VertexId], b: &[VertexId]) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let c = a[i].min(b[j]);
        out.push(c);
        i += usize::from(a[i] == c);
        j += usize::from(b[j] == c);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_edges(4, 4, &[(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)])
    }

    #[test]
    fn offsets_and_rows() {
        let g = sample();
        assert_eq!(g.num_rows(), 4);
        assert_eq!(g.nnz(), 8);
        assert_eq!(g.offsets(), &[0, 2, 4, 7, 8]);
        assert_eq!(g.row(2), &[0, 1, 3]);
        assert_eq!(g.row(3), &[2]);
    }

    #[test]
    fn degrees() {
        let g = sample();
        assert_eq!(g.degrees(), vec![2, 2, 3, 1]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.max_degree(), 3);
        assert!((g.mean_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn coo_round_trip() {
        let g = sample();
        assert_eq!(Csr::from_coo(&g.to_coo()), g);
    }

    #[test]
    fn transpose_involution() {
        let g = Csr::from_edges(3, 5, &[(0, 4), (1, 1), (2, 0), (2, 4)]);
        assert_eq!(g.transpose().transpose(), g);
        assert_eq!(g.transpose().num_rows(), 5);
        assert_eq!(g.transpose().row(4), &[0, 2]);
    }

    #[test]
    fn symmetry_detection() {
        assert!(sample().is_symmetric());
        let asym = Csr::from_edges(3, 3, &[(0, 1)]);
        assert!(!asym.is_symmetric());
        assert!(asym.symmetrized_with_self_loops().is_symmetric());
    }

    #[test]
    fn symmetrize_adds_self_loops() {
        let g = Csr::from_edges(3, 3, &[(0, 1)]).symmetrized_with_self_loops();
        for v in 0..3u32 {
            assert!(g.row(v).contains(&v), "missing self loop at {v}");
        }
        assert_eq!(g.nnz(), 5); // (0,1), (1,0) and 3 loops
    }

    #[test]
    fn empty_rows_have_zero_degree() {
        let g = Csr::from_edges(4, 4, &[(0, 1)]);
        assert_eq!(g.degree(3), 0);
        assert!(g.row(3).is_empty());
        assert_eq!(g.max_degree(), 1);
    }
}
