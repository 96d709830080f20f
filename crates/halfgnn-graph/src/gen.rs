//! Synthetic graph generators. Each produces the *shape* of one family of
//! datasets from the paper's Table 1:
//!
//! * [`rmat`] — Kronecker/R-MAT power-law graphs (Kron-21, social networks,
//!   web crawls). The recursive quadrant biasing concentrates edges on a few
//!   hub vertices, which is precisely what overflows FP16 SpMM reductions.
//! * [`preferential_attachment`] — heavy-tailed citation/collaboration
//!   graphs (Cit-Patent, Hollywood09, As-Skitter stand-ins).
//! * [`sbm`] / [`sbm_with_hubs`] — stochastic block models with community
//!   structure for the *labeled* datasets: class-pure blocks give GNNs
//!   signal to learn, the hub overlay restores the degree skew real
//!   datasets (Reddit, Ogb-product) have.
//! * [`grid2d`] — near-planar constant-degree mesh (RoadNet-CA stand-in):
//!   the no-skew contrast case where workload balancing matters least.
//! * [`erdos_renyi`] — uniform random baseline used mainly by tests.
//!
//! All generators are deterministic in their seed.

use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT recursive quadrant generator (Chakrabarti et al.). `scale` gives
/// `n = 2^scale` vertices; `edge_factor` gives `m = n * edge_factor` edge
/// samples (duplicates are removed downstream, so the realized edge count is
/// slightly lower). Partition probabilities `(a, b, c)` with `d = 1-a-b-c`;
/// the classic skewed setting is `(0.57, 0.19, 0.19)`.
pub fn rmat(
    scale: u32,
    edge_factor: usize,
    (a, b, c): (f64, f64, f64),
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    assert!(a + b + c < 1.0 + 1e-9, "R-MAT probabilities must sum below 1");
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut r0, mut r1, mut c0, mut c1) = (0usize, n, 0usize, n);
        while r1 - r0 > 1 {
            let p: f64 = rng.gen();
            let (row_hi, col_hi) = if p < a {
                (false, false)
            } else if p < a + b {
                (false, true)
            } else if p < a + b + c {
                (true, false)
            } else {
                (true, true)
            };
            let rm = (r0 + r1) / 2;
            let cm = (c0 + c1) / 2;
            if row_hi {
                r0 = rm;
            } else {
                r1 = rm;
            }
            if col_hi {
                c0 = cm;
            } else {
                c1 = cm;
            }
        }
        if r0 != c0 {
            edges.push((r0 as VertexId, c0 as VertexId));
        }
    }
    edges
}

/// Barabási–Albert preferential attachment: each new vertex attaches `m`
/// edges to existing vertices chosen proportionally to degree, yielding a
/// power-law tail with a handful of very-high-degree hubs.
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    assert!(n > m && m >= 1, "need n > m >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * m);
    // `targets` holds one entry per edge endpoint: sampling uniformly from
    // it is sampling proportionally to degree.
    let mut targets: Vec<VertexId> = (0..m as VertexId).collect();
    for v in m..n {
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let t = targets[rng.gen_range(0..targets.len())];
            if t != v as VertexId && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            edges.push((v as VertexId, t));
            targets.push(t);
            targets.push(v as VertexId);
        }
    }
    edges
}

/// Stochastic block model: `block_sizes.len()` communities; an edge between
/// two vertices appears with probability `p_in` inside a block and `p_out`
/// across blocks. Returns the edges and the block (class) label per vertex.
pub fn sbm(
    block_sizes: &[usize],
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> (Vec<(VertexId, VertexId)>, Vec<u32>) {
    let n: usize = block_sizes.iter().sum();
    let mut labels = Vec::with_capacity(n);
    for (b, &size) in block_sizes.iter().enumerate() {
        labels.extend(std::iter::repeat_n(b as u32, size));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    // Intra-block edges: geometric skipping over each block's own pair
    // list, so the work is O(|E|) rather than O(n²) — sampling the global
    // pair list and filtering would draw ~p_in·n²/2 candidates.
    let mut start = 0u64;
    for &size in block_sizes {
        let b = size as u64;
        let mut pairs = TriangleCursor::new(b);
        for rank in bernoulli_ranks(b * b.saturating_sub(1) / 2, p_in, &mut rng) {
            let (i, j) = pairs.pair(rank);
            edges.push(((start + i) as VertexId, (start + j) as VertexId));
        }
        start += b;
    }
    // Inter-block edges: sample the global pair list at rate p_out and drop
    // the (few) same-block hits; the overdraw factor is 1/(1-Σ(sᵢ/n)²).
    let total = (n as u64) * (n as u64 - 1) / 2;
    let mut pairs = TriangleCursor::new(n as u64);
    for rank in bernoulli_ranks(total, p_out, &mut rng) {
        let (i, j) = pairs.pair(rank);
        if labels[i as usize] != labels[j as usize] {
            edges.push((i as VertexId, j as VertexId));
        }
    }
    (edges, labels)
}

/// Ranks of the successes in `total` independent Bernoulli(p) trials, via
/// geometric skipping (O(#successes) draws).
fn bernoulli_ranks(total: u64, p: f64, rng: &mut StdRng) -> Vec<u64> {
    let mut out = Vec::new();
    if p <= 0.0 || total == 0 {
        return out;
    }
    if p >= 1.0 {
        return (0..total).collect();
    }
    let log_q = (1.0 - p).ln();
    let mut idx = 0u64;
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-300);
        idx += 1 + (u.ln() / log_q) as u64;
        if idx > total {
            return out;
        }
        out.push(idx - 1);
    }
}

/// Maps ascending linear ranks in `0..n*(n-1)/2` to upper-triangle pairs
/// `(i, j)`, `i < j`, in row-major order. Row `i` holds the `n - 1 - i`
/// pairs `(i, i+1..n)`; the cursor resumes from the row of the previous
/// rank, so a whole ascending stream (what [`bernoulli_ranks`] yields)
/// costs O(n + ranks) rather than a scan from row 0 per rank.
struct TriangleCursor {
    n: u64,
    row: u64,
    row_start: u64,
}

impl TriangleCursor {
    fn new(n: u64) -> TriangleCursor {
        TriangleCursor { n, row: 0, row_start: 0 }
    }

    /// The pair of `rank`, which must not be below the previous rank.
    fn pair(&mut self, rank: u64) -> (u64, u64) {
        debug_assert!(rank >= self.row_start, "ranks must ascend");
        loop {
            let row_len = self.n - 1 - self.row;
            let r = rank - self.row_start;
            if r < row_len {
                return (self.row, self.row + 1 + r);
            }
            self.row_start += row_len;
            self.row += 1;
        }
    }
}

/// SBM plus a hub overlay: `num_hubs` vertices each additionally connect to
/// `hub_degree` uniformly random vertices. This restores the heavy tail
/// that Reddit/Ogb-product have (mean degree ~500, max degree in the tens
/// of thousands) — the vertices whose SpMM reduction overflows FP16.
pub fn sbm_with_hubs(
    block_sizes: &[usize],
    p_in: f64,
    p_out: f64,
    num_hubs: usize,
    hub_degree: usize,
    seed: u64,
) -> (Vec<(VertexId, VertexId)>, Vec<u32>) {
    let (mut edges, labels) = sbm(block_sizes, p_in, p_out, seed);
    let n: usize = block_sizes.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    for h in 0..num_hubs {
        // Spread hubs across the vertex range so each block gets some.
        let hub = ((h * n) / num_hubs.max(1)) as VertexId;
        for _ in 0..hub_degree {
            let t = rng.gen_range(0..n) as VertexId;
            if t != hub {
                edges.push((hub, t));
            }
        }
    }
    (edges, labels)
}

/// 2-D grid with 4-neighborhood: RoadNet-like near-constant degree.
pub fn grid2d(width: usize, height: usize) -> Vec<(VertexId, VertexId)> {
    let mut edges = Vec::with_capacity(2 * width * height);
    let id = |x: usize, y: usize| (y * width + x) as VertexId;
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < height {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    edges
}

/// Erdős–Rényi G(n, m): `m` uniformly random distinct ordered pairs.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let a = rng.gen_range(0..n) as VertexId;
        let b = rng.gen_range(0..n) as VertexId;
        if a != b {
            edges.push((a, b));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    #[test]
    fn rmat_is_deterministic_and_skewed() {
        let e1 = rmat(10, 8, (0.57, 0.19, 0.19), 7);
        let e2 = rmat(10, 8, (0.57, 0.19, 0.19), 7);
        assert_eq!(e1, e2);
        let g = Csr::from_edges(1024, 1024, &e1);
        // Power-law: the max degree should dwarf the mean.
        assert!(
            g.max_degree() as f64 > 8.0 * g.mean_degree(),
            "max {} mean {}",
            g.max_degree(),
            g.mean_degree()
        );
    }

    #[test]
    fn rmat_different_seeds_differ() {
        assert_ne!(rmat(8, 4, (0.57, 0.19, 0.19), 1), rmat(8, 4, (0.57, 0.19, 0.19), 2));
    }

    #[test]
    fn pref_attach_shape() {
        let edges = preferential_attachment(500, 3, 11);
        assert_eq!(edges.len(), (500 - 3) * 3);
        let g = Csr::from_edges(500, 500, &edges).symmetrized_with_self_loops();
        assert!(g.max_degree() > 25, "expected hubs, max degree {}", g.max_degree());
    }

    #[test]
    fn sbm_homophily() {
        let (edges, labels) = sbm(&[200, 200, 200], 0.05, 0.002, 3);
        let intra =
            edges.iter().filter(|&&(a, b)| labels[a as usize] == labels[b as usize]).count();
        let inter = edges.len() - intra;
        assert!(intra > 3 * inter, "intra {intra} inter {inter}");
        assert_eq!(labels.len(), 600);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[599], 2);
    }

    #[test]
    fn sbm_edge_count_near_expectation() {
        let (edges, _) = sbm(&[400, 400], 0.04, 0.004, 5);
        // E[intra] = 2 * C(400,2) * 0.04 ≈ 6384; E[inter] = 160000*0.004 = 640.
        let expected = 2.0 * (400.0 * 399.0 / 2.0) * 0.04 + 400.0 * 400.0 * 0.004;
        let got = edges.len() as f64;
        assert!((got - expected).abs() < 0.15 * expected, "got {got} expected {expected}");
    }

    #[test]
    fn sbm_hubs_raise_max_degree() {
        let sizes = [300usize, 300, 300];
        let (plain, _) = sbm(&sizes, 0.02, 0.001, 9);
        let (hubby, _) = sbm_with_hubs(&sizes, 0.02, 0.001, 4, 400, 9);
        let g0 = Csr::from_edges(900, 900, &plain).symmetrized_with_self_loops();
        let g1 = Csr::from_edges(900, 900, &hubby).symmetrized_with_self_loops();
        assert!(
            g1.max_degree() > g0.max_degree() + 200,
            "{} vs {}",
            g1.max_degree(),
            g0.max_degree()
        );
    }

    #[test]
    fn grid_degrees_bounded() {
        let g = Csr::from_edges(100, 100, &grid2d(10, 10)).symmetrized_with_self_loops();
        assert!(g.max_degree() <= 5); // 4 neighbors + self loop
        assert_eq!(g.num_rows(), 100);
    }

    #[test]
    fn erdos_renyi_count() {
        let edges = erdos_renyi(1000, 5000, 2);
        assert_eq!(edges.len(), 5000);
        assert!(edges.iter().all(|&(a, b)| a != b && (a as usize) < 1000 && (b as usize) < 1000));
    }

    #[test]
    fn triangle_cursor_is_bijective_small() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        let mut pairs = TriangleCursor::new(n);
        let mut last = None;
        for r in 0..n * (n - 1) / 2 {
            let (i, j) = pairs.pair(r);
            assert!(i < j && j < n);
            assert!(seen.insert((i, j)));
            // Row-major order: each pair follows the previous one.
            assert!(last < Some((i, j)));
            last = Some((i, j));
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn triangle_cursor_skips_rows_between_sparse_ranks() {
        let n = 100u64;
        let mut pairs = TriangleCursor::new(n);
        // Rank 0 is (0, 1); row 0 holds 99 pairs, row 1 holds 98, so rank
        // 99 + 98 = 197 is the first pair of row 2; the last rank is the
        // last pair (98, 99).
        assert_eq!(pairs.pair(0), (0, 1));
        assert_eq!(pairs.pair(197), (2, 3));
        assert_eq!(pairs.pair(n * (n - 1) / 2 - 1), (98, 99));
    }
}
