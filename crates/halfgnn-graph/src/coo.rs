//! COO (coordinate) storage: parallel `rowId` / `colId` arrays, one entry
//! per non-zero element, sorted by `(row, col)`. Edge-parallel kernels walk
//! these arrays directly; the spatial ordering is what makes the paper's
//! "consecutive edges have monotonically non-decreasing row IDs"
//! observation (§5.2.1, rule 2) hold.

use crate::csr::bucket_offsets;
use crate::VertexId;

/// A sparse graph in coordinate format, canonically sorted by `(row, col)`
/// with duplicates removed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coo {
    num_rows: usize,
    num_cols: usize,
    rows: Vec<VertexId>,
    cols: Vec<VertexId>,
}

impl Coo {
    /// Build from an edge list. Edges are sorted and deduplicated;
    /// out-of-range endpoints panic.
    pub fn from_edges(num_rows: usize, num_cols: usize, edges: &[(VertexId, VertexId)]) -> Coo {
        let mut es: Vec<(VertexId, VertexId)> = edges.to_vec();
        for &(r, c) in &es {
            assert!(
                (r as usize) < num_rows && (c as usize) < num_cols,
                "edge ({r}, {c}) out of bounds for {num_rows}x{num_cols}"
            );
        }
        es.sort_unstable();
        es.dedup();
        let (rows, cols) = es.into_iter().unzip();
        Coo { num_rows, num_cols, rows, cols }
    }

    /// Adopt parallel arrays that are already canonical (sorted by
    /// `(row, col)`, duplicate-free, in range) without sorting them again.
    pub(crate) fn from_canonical(
        num_rows: usize,
        num_cols: usize,
        rows: Vec<VertexId>,
        cols: Vec<VertexId>,
    ) -> Coo {
        debug_assert_eq!(rows.len(), cols.len());
        debug_assert!(rows.iter().all(|&r| (r as usize) < num_rows));
        debug_assert!(cols.iter().all(|&c| (c as usize) < num_cols));
        debug_assert!(
            (1..rows.len()).all(|e| (rows[e - 1], cols[e - 1]) < (rows[e], cols[e])),
            "edges must be sorted by (row, col) and duplicate-free"
        );
        Coo { num_rows, num_cols, rows, cols }
    }

    /// Number of rows (vertices on the destination side of SpMM).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored non-zero elements (edges).
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Row index of every non-zero, ascending.
    pub fn rows(&self) -> &[VertexId] {
        &self.rows
    }

    /// Column index of every non-zero.
    pub fn cols(&self) -> &[VertexId] {
        &self.cols
    }

    /// The `(row, col)` pair of non-zero element `e`.
    pub fn edge(&self, e: usize) -> (VertexId, VertexId) {
        (self.rows[e], self.cols[e])
    }

    /// Out-degree of every row.
    pub fn degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.num_rows];
        for &r in &self.rows {
            d[r as usize] += 1;
        }
        d
    }

    /// Transposed copy (every edge reversed), re-canonicalized.
    pub fn transpose(&self) -> Coo {
        let edges: Vec<(VertexId, VertexId)> =
            self.cols.iter().copied().zip(self.rows.iter().copied()).collect();
        Coo::from_edges(self.num_cols, self.num_rows, &edges)
    }

    /// Index of edge `(r, c)` in the canonical ordering, if present.
    /// Binary search: `O(log nnz)`.
    pub fn find_edge(&self, r: VertexId, c: VertexId) -> Option<usize> {
        let lo = self.rows.partition_point(|&x| x < r);
        let hi = self.rows.partition_point(|&x| x <= r);
        let within = self.cols[lo..hi].binary_search(&c).ok()?;
        Some(lo + within)
    }

    /// Permutation mapping transpose-edge order to this graph's edge order:
    /// `perm[i]` is the index in `self` of the reverse of
    /// `self.transpose().edge(i)`.
    ///
    /// Backward sparse kernels run on `Aᵀ` but reuse edge-level tensors
    /// (attention scores) stored in `A`'s order; this permutation reindexes
    /// them. Always well-defined: the transpose's edges are exactly the
    /// reverses of this graph's edges.
    ///
    /// A counting sort by column, `O(nnz + cols)`: the edges are visited in
    /// `(row, col)` order, so each column's bucket fills with its rows
    /// ascending, which is the transpose's canonical `(col, row)` order.
    pub fn transpose_permutation(&self) -> Vec<usize> {
        let mut next = bucket_offsets(self.num_cols, &self.cols);
        let mut perm = vec![0; self.nnz()];
        for (e, &c) in self.cols.iter().enumerate() {
            perm[next[c as usize]] = e;
            next[c as usize] += 1;
        }
        perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        // The Fig. 2 sample graph of the paper (4 vertices).
        Coo::from_edges(4, 4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (0, 2), (2, 0)])
    }

    #[test]
    fn canonical_order_and_dedup() {
        let g = Coo::from_edges(3, 3, &[(2, 1), (0, 1), (2, 1), (1, 0)]);
        assert_eq!(g.nnz(), 3);
        assert_eq!(g.rows(), &[0, 1, 2]);
        assert_eq!(g.cols(), &[1, 0, 1]);
    }

    #[test]
    fn rows_are_monotone() {
        let g = sample();
        assert!(g.rows().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn degrees_sum_to_nnz() {
        let g = sample();
        let d = g.degrees();
        assert_eq!(d.iter().sum::<u32>() as usize, g.nnz());
        assert_eq!(d, vec![2, 2, 3, 1]);
    }

    #[test]
    fn transpose_involution() {
        let g = sample();
        assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = Coo::from_edges(2, 3, &[(0, 2), (1, 0)]);
        let t = g.transpose();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 2);
        assert_eq!(t.edge(0), (0, 1));
        assert_eq!(t.edge(1), (2, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_edge_panics() {
        Coo::from_edges(2, 2, &[(0, 5)]);
    }

    #[test]
    fn find_edge_hits_and_misses() {
        let g = sample();
        for e in 0..g.nnz() {
            let (r, c) = g.edge(e);
            assert_eq!(g.find_edge(r, c), Some(e));
        }
        assert_eq!(g.find_edge(0, 3), None);
        assert_eq!(g.find_edge(3, 3), None);
    }

    #[test]
    fn transpose_permutation_round_trips_edge_values() {
        let g = sample(); // symmetric sample
        let perm = g.transpose_permutation();
        let t = g.transpose();
        // Applying the permutation to an edge tensor in `g` order yields
        // the tensor in `t` order: value of (c, r) in t == value of (r, c).
        let vals: Vec<usize> = (0..g.nnz()).collect();
        for (ti, &gi) in perm.iter().enumerate() {
            let (tr, tc) = t.edge(ti);
            let (gr, gc) = g.edge(vals[gi]);
            assert_eq!((tr, tc), (gc, gr));
        }
    }

    #[test]
    fn transpose_permutation_on_asymmetric_graph() {
        let g = Coo::from_edges(3, 3, &[(0, 1), (2, 0)]);
        let perm = g.transpose_permutation();
        let t = g.transpose();
        assert_eq!(t.edge(0), (0, 2));
        assert_eq!(perm[0], g.find_edge(2, 0).unwrap());
        assert_eq!(perm[1], g.find_edge(0, 1).unwrap());
    }
}
