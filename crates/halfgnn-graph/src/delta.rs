//! Delta-CSR: an immutable base CSR plus a sorted per-row insertion
//! overlay, for streaming edge ingestion without full rebuilds.
//!
//! The paper's setting is a static graph; the production north star
//! (ROADMAP item 1) is a stream of edge insertions arriving mid-training.
//! Rebuilding the CSR per insert is O(nnz); the overlay makes an insert
//! O(log deg) and a merged row read O(deg) — and because the kernel
//! autotuner's [`crate::metrics::DegreeStats`]-derived cache keys bucket
//! nnz and mean degree logarithmically, a burst of inserts almost never
//! changes a key, so re-tuning after a delta stays mostly cache-hit.
//!
//! Degree metrics are recomputed **lazily**: [`DeltaCsr::stats`] caches
//! the summary and every successful insert invalidates it, so a hub
//! arriving mid-stream is visible to the next `stats()` call instead of
//! being smoothed over by a stale snapshot.

use crate::csr::union_into;
use crate::metrics::{degree_stats_from_degrees, DegreeStats};
use crate::{Csr, VertexId};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A base CSR plus an edge-insertion overlay with cheap merged reads.
#[derive(Debug)]
pub struct DeltaCsr {
    base: Csr,
    /// Inserted edges absent from the base, keyed by row; each row's
    /// vector is sorted and duplicate-free.
    delta: BTreeMap<VertexId, Vec<VertexId>>,
    delta_nnz: usize,
    /// Lazily recomputed degree summary; `None` after any insert.
    stats: RefCell<Option<DegreeStats>>,
}

impl DeltaCsr {
    /// Wrap a base graph; the overlay starts empty.
    pub fn new(base: Csr) -> DeltaCsr {
        DeltaCsr { base, delta: BTreeMap::new(), delta_nnz: 0, stats: RefCell::new(None) }
    }

    /// The immutable base (untouched by inserts — the no-rebuild invariant).
    pub fn base(&self) -> &Csr {
        &self.base
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.base.num_rows()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.base.num_cols()
    }

    /// Stored non-zeros across base and overlay.
    pub fn nnz(&self) -> usize {
        self.base.nnz() + self.delta_nnz
    }

    /// Non-zeros in the overlay alone.
    pub fn delta_nnz(&self) -> usize {
        self.delta_nnz
    }

    /// Insert one directed edge. Returns `false` (and changes nothing)
    /// when the edge already exists in the base or the overlay. A
    /// successful insert invalidates the cached [`DeltaCsr::stats`].
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        assert!((u as usize) < self.num_rows(), "row {u} out of range");
        assert!((v as usize) < self.num_cols(), "col {v} out of range");
        if self.base.row(u).binary_search(&v).is_ok() {
            return false;
        }
        let row = self.delta.entry(u).or_default();
        match row.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                row.insert(pos, v);
                self.delta_nnz += 1;
                *self.stats.borrow_mut() = None;
                true
            }
        }
    }

    /// Insert `(u, v)` and `(v, u)` (plus nothing else), keeping a
    /// symmetric training graph symmetric. Returns how many of the two
    /// directions were actually new.
    pub fn insert_undirected(&mut self, u: VertexId, v: VertexId) -> usize {
        let mut added = usize::from(self.insert_edge(u, v));
        if u != v {
            added += usize::from(self.insert_edge(v, u));
        }
        added
    }

    /// Merged degree of row `v`.
    pub fn degree(&self, v: VertexId) -> u32 {
        self.base.degree(v) + self.delta.get(&v).map_or(0, |r| r.len() as u32)
    }

    /// Merged degrees of all rows (O(rows + delta rows)).
    pub fn degrees(&self) -> Vec<u32> {
        let mut degs = self.base.degrees();
        for (&r, row) in &self.delta {
            degs[r as usize] += row.len() as u32;
        }
        degs
    }

    /// `i`-th neighbor of row `v` in the merged view's storage order:
    /// base entries first, then overlay entries (each run sorted).
    pub fn neighbor(&self, v: VertexId, i: u32) -> VertexId {
        let base_deg = self.base.degree(v);
        if i < base_deg {
            self.base.row(v)[i as usize]
        } else {
            self.delta[&v][(i - base_deg) as usize]
        }
    }

    /// Merged, sorted, duplicate-free neighborhood of row `v`.
    pub fn row_merged(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.degree(v) as usize);
        union_into(&mut out, self.base.row(v), self.delta.get(&v).map_or(&[][..], Vec::as_slice));
        out
    }

    /// Degree summary of the merged view, recomputed lazily: cached until
    /// the next successful insert, never stale.
    pub fn stats(&self) -> DegreeStats {
        let mut cached = self.stats.borrow_mut();
        if cached.is_none() {
            *cached = Some(degree_stats_from_degrees(self.degrees()));
        }
        cached.clone().unwrap()
    }

    /// Materialize the merged graph as a plain CSR — the one full-rebuild
    /// operation, for use *after* streaming (e.g. final full-graph
    /// evaluation), never per insert. Merged rows are already sorted, so
    /// this is one linear pass that lays them end to end.
    pub fn merge(&self) -> Csr {
        let (mut offsets, mut cols) = (vec![0], Vec::with_capacity(self.nnz()));
        for r in 0..self.num_rows() as VertexId {
            cols.extend(self.row_merged(r));
            offsets.push(cols.len());
        }
        Csr::from_sorted_rows(self.num_cols(), offsets, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Csr {
        Csr::from_edges(5, 5, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)])
    }

    #[test]
    fn insert_rejects_duplicates_and_counts_new_edges() {
        let mut d = DeltaCsr::new(base());
        assert!(!d.insert_edge(0, 1), "already in base");
        assert!(d.insert_edge(0, 3));
        assert!(!d.insert_edge(0, 3), "already in overlay");
        assert_eq!(d.delta_nnz(), 1);
        assert_eq!(d.nnz(), 7);
        assert_eq!(d.base().nnz(), 6, "base never rebuilt");
    }

    #[test]
    fn merged_rows_are_sorted_and_complete() {
        let mut d = DeltaCsr::new(base());
        d.insert_edge(1, 4);
        d.insert_edge(1, 3);
        assert_eq!(d.row_merged(1), vec![0, 2, 3, 4]);
        assert_eq!(d.degree(1), 4);
        assert_eq!(d.neighbor(1, 0), 0);
        assert_eq!(d.neighbor(1, 2), 3, "overlay entries follow base entries");
        assert_eq!(d.neighbor(1, 3), 4);
    }

    #[test]
    fn merge_materializes_the_union() {
        let mut d = DeltaCsr::new(base());
        d.insert_undirected(0, 4);
        let merged = d.merge();
        let want = Csr::from_edges(
            5,
            5,
            &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3), (0, 4), (4, 0)],
        );
        assert_eq!(merged, want);
        assert!(merged.is_symmetric());
    }

    #[test]
    fn stats_are_invalidated_by_inserts_not_stale() {
        let mut d = DeltaCsr::new(base());
        let before = d.stats();
        assert_eq!(before, d.stats(), "cache must be deterministic");
        // Turn vertex 0 into a hub: degrees shift, so cached stats must
        // be recomputed, not returned stale.
        d.insert_edge(0, 2);
        d.insert_edge(0, 3);
        d.insert_edge(0, 4);
        let after = d.stats();
        assert!(after.max > before.max, "max {} vs {}", after.max, before.max);
        assert!(after.max_mean_skew > before.max_mean_skew);
        assert_eq!(after, degree_stats_from_degrees(d.degrees()));
    }

    #[test]
    fn undirected_insert_keeps_symmetry() {
        let mut d = DeltaCsr::new(base());
        assert_eq!(d.insert_undirected(2, 4), 2);
        assert_eq!(d.insert_undirected(2, 4), 0);
        // Self loop counts once.
        assert_eq!(d.insert_undirected(0, 0), 1);
        assert!(d.merge().is_symmetric());
    }
}
