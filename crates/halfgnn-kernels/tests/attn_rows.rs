//! The edge-softmax kernels — `fused_attn_forward_window`,
//! `fused_softmax_grad_window` and the half `edge_reduce_window` — against
//! their earlier per-lane bodies, kept below as test-only references: the
//! same output bits, NaN compared as NaN, and the same overflow record,
//! field for field, with a tracking window open, with none open, and
//! inside `overflow::isolated`.
//!
//! Graphs have empty rows and rows longer than a warp's 64 edges (the
//! forward's batch joins, and edge-reduce segments cut across warps);
//! feature widths 2, 4, 8, 62 and 64; the full row window and sub-windows.
//! Scores run from ordinary to scaled past the half range, so sums,
//! slope products, shifted arguments and aggregations overflow, and some
//! operands are ±Inf or NaN. Every case runs under Sim and `Fast` at 1, 2
//! and 4 threads; CI runs the suite with and without the recorder
//! compiled in, at 1 and 4 worker threads.

use halfgnn_graph::{Coo, VertexId};
use halfgnn_half::intrinsics::{hadd, hdiv, hexp, hmax, hmul, hsub};
use halfgnn_half::overflow::{self, Summary};
use halfgnn_half::slice::{add_row, fma_row};
use halfgnn_half::{splitmix64, Half, Scalar};
use halfgnn_kernels::common::{Reduce, Tiling};
use halfgnn_kernels::fused::{fused_attn_forward_window, fused_softmax_grad_window};
use halfgnn_kernels::halfgnn_spmm::{edge_reduce_window, row_offsets_of};
use halfgnn_sim::{DeviceConfig, ExecMode};

const SLOPE: f32 = 0.2;

/// A keyed stream of draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Values of magnitude up to `scale`, and in `dirt` of 10,000 draws
    /// ±Inf, NaN or a value near the half range's end.
    fn half(&mut self, scale: f32, dirt: u64) -> Half {
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        if self.below(10_000) >= dirt {
            return Half::from_f32(sign * scale * self.unit());
        }
        match self.below(4) {
            0 => Half::INFINITY,
            1 => Half::NEG_INFINITY,
            2 => Half::NAN,
            _ => Half::from_f32(sign * (40_000.0 + 25_000.0 * self.unit())),
        }
    }

    fn halves(&mut self, n: usize, scale: f32, dirt: u64) -> Vec<Half> {
        (0..n).map(|_| self.half(scale, dirt)).collect()
    }

    /// `rows × 160` edges: a third of the rows empty, most short, and one
    /// in eight holding 65–150 edges.
    fn graph(&mut self, rows: usize) -> Coo {
        let cols = 160u32;
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        for r in 0..rows as VertexId {
            let deg = match self.below(8) {
                0..=2 => 0,
                3 => 65 + self.below(86),
                _ => 1 + self.below(20),
            };
            let start = self.below(cols as u64) as u32;
            let step = 1 + 2 * self.below(3) as u32; // odd: coprime with 160
            edges.extend((0..deg as u32).map(|i| (r, (start + i * step) % cols)));
        }
        Coo::from_edges(rows, cols as usize, &edges)
    }
}

/// Output bits, with every NaN as one pattern: Rust leaves the payload of
/// a NaN that `f32` arithmetic returns unspecified.
fn value_bits(v: &[Half]) -> Vec<u16> {
    v.iter().map(|h| if h.is_nan() { 0x7E00 } else { h.to_bits() }).collect()
}

/// `f()` three ways — inside an open window, with no window, and inside
/// `isolated` within an open window — returning its output and what each
/// way recorded. All three ways must compute the same values.
fn records(f: impl Fn() -> Vec<Half>) -> (Vec<Half>, [String; 3]) {
    let show = |s: &Summary| format!("{s:?}");

    overflow::begin();
    let open = {
        let _site = overflow::site("layer");
        f()
    };
    let window = overflow::take();

    let closed = f();
    let after = overflow::take();
    assert_eq!(show(&after), show(&Summary::default()), "recorded with no window open");

    overflow::begin();
    let _ = Half::from_f32(1e9); // an outer event the inner run must not see
    let (inner, nested) = overflow::isolated(|| {
        let _site = overflow::site("inner");
        f()
    });
    let outer = overflow::take();

    assert_eq!(value_bits(&closed), value_bits(&open), "no window changed the values");
    assert_eq!(value_bits(&inner), value_bits(&open), "isolation changed the values");
    (open, [show(&window), show(&nested), show(&outer)])
}

/// Sim, then `Fast` at 1, 2 and 4 threads.
fn devices() -> Vec<DeviceConfig> {
    let sim = DeviceConfig::a100_like();
    let fast = [1, 2, 4].map(|t| sim.clone().with_exec(ExecMode::fast_with_threads(t)));
    std::iter::once(sim).chain(fast).collect()
}

/// Row windows: the whole graph, a tail, an inner range and an empty one.
fn windows(rows: usize) -> [(usize, usize); 4] {
    [(0, rows), (rows / 3, rows), (1, rows - 2), (rows / 2, rows / 2)]
}

/// The earlier `fused_attn_forward_window` body, functional part: each
/// window row's scores and running max, shifted exponents, sum, normalize
/// and batched aggregation, in row order, one `Vec` per row and batch.
/// Returns `e`, `alpha` and the output, concatenated.
fn forward_reference(
    coo: &Coo,
    s_row: &[Half],
    s_col: &[Half],
    z: &[Half],
    f: usize,
    (rw0, rw1): (usize, usize),
) -> Vec<Half> {
    let _site = overflow::site("fused_attn");
    let (nnz, cols) = (coo.nnz(), coo.cols());
    let off = row_offsets_of(coo);
    let epw = Tiling::default().edges_per_warp;
    let slope_h = Half::from_f32(SLOPE);
    let (mut e_out, mut alpha_out) = (vec![Half::ZERO; nnz], vec![Half::ZERO; nnz]);
    let mut y = vec![Half::ZERO; coo.num_rows() * f];
    for r in rw0..rw1 {
        let (rs, re) = (off[r], off[r + 1]);
        if rs == re {
            continue;
        }
        let deg = re - rs;
        let mut m = Half::NEG_INFINITY;
        let row_e: Vec<Half> = (rs..re)
            .map(|ei| {
                let v = hadd(s_row[r], s_col[cols[ei] as usize]);
                let v = if v.to_f32() >= 0.0 { v } else { hmul(v, slope_h) };
                m = hmax(m, v);
                v
            })
            .collect();
        let num: Vec<Half> = row_e.iter().map(|&v| hexp(hsub(v, m))).collect();
        let z_sum = num.iter().fold(Half::ZERO, |a, &b| hadd(a, b));
        let row_alpha: Vec<Half> = num.iter().map(|&v| hdiv(v, z_sum)).collect();
        let mut acc = vec![Half::ZERO; f];
        for (bi, batch) in (0..deg).collect::<Vec<_>>().chunks(epw).enumerate() {
            let mut batch_acc = vec![Half::ZERO; f];
            for &k in batch {
                let c = cols[rs + k] as usize;
                fma_row(&mut batch_acc, row_alpha[k], &z[c * f..(c + 1) * f]);
            }
            if bi == 0 {
                acc = batch_acc;
            } else {
                add_row(&mut acc, &batch_acc);
            }
        }
        y[r * f..(r + 1) * f].copy_from_slice(&acc);
        e_out[rs..re].copy_from_slice(&row_e);
        alpha_out[rs..re].copy_from_slice(&row_alpha);
    }
    [e_out, alpha_out, y].concat()
}

/// The earlier `fused_softmax_grad_window` body, functional part.
fn softmax_grad_reference(
    coo: &Coo,
    alpha: &[Half],
    dalpha: &[Half],
    e: &[Half],
    (rw0, rw1): (usize, usize),
) -> Vec<Half> {
    let _site = overflow::site("fused_softmax_grad");
    let off = row_offsets_of(coo);
    let slope_h = Half::from_f32(SLOPE);
    let mut de = vec![Half::ZERO; coo.nnz()];
    for r in rw0..rw1 {
        let (rs, re) = (off[r], off[r + 1]);
        let t = (rs..re).fold(Half::ZERO, |a, ei| hadd(a, hmul(alpha[ei], dalpha[ei])));
        for ei in rs..re {
            let soft = hmul(alpha[ei], hsub(dalpha[ei], t));
            de[ei] = if e[ei].to_f32() >= 0.0 { soft } else { hmul(soft, slope_h) };
        }
    }
    de
}

/// The earlier `edge_reduce_window` body, functional part: each warp's
/// edge range cut into per-row segments, reduced edge by edge, and the
/// partials merged in CTA order.
fn edge_reduce_reference(coo: &Coo, w: &[Half], op: Reduce, (r0, r1): (usize, usize)) -> Vec<Half> {
    let _site = overflow::site(match op {
        Reduce::Sum => "edge_reduce_sum",
        Reduce::Max => "edge_reduce_max",
    });
    let tiling = Tiling::default();
    let rows = coo.rows();
    let off = row_offsets_of(coo);
    let (e0, e1) = (off[r0], off[r1]);
    let (cta_lo, cta_hi) = tiling.cta_range(e0, e1);
    let init = match op {
        Reduce::Sum => Half::ZERO,
        Reduce::Max => Half::NEG_INFINITY,
    };
    let combine = |a: Half, b: Half| match op {
        Reduce::Sum => a.add(b),
        Reduce::Max => a.max(b),
    };
    let mut partials = Vec::new();
    for cta in cta_lo..cta_hi {
        for wi in 0..tiling.warps_per_cta {
            let (s, e) = tiling.warp_range_in(cta, wi, e0, e1);
            if s >= e {
                continue;
            }
            let mut acc = init;
            let mut seg_row = rows[s];
            for ei in s..e {
                if rows[ei] != seg_row {
                    partials.push((seg_row, acc));
                    acc = init;
                    seg_row = rows[ei];
                }
                acc = combine(acc, w[ei]);
            }
            partials.push((seg_row, acc));
        }
    }
    let mut y = vec![init; coo.num_rows()];
    for (r, v) in partials {
        y[r as usize] = combine(y[r as usize], v);
    }
    if op == Reduce::Max {
        for r in r0..r1 {
            if off[r] == off[r + 1] {
                y[r] = Half::ZERO;
            }
        }
    }
    y
}

/// Score scales: ordinary, large enough that shifted arguments overflow
/// after the slope, and past the half range (sums overflow).
const SCALES: [(f32, u64); 4] = [(2.0, 0), (3.0, 40), (30_000.0, 0), (60_000.0, 300)];

#[test]
fn the_fused_forward_is_its_per_row_reference() {
    for (gi, f) in [2usize, 4, 8, 62, 64].into_iter().enumerate() {
        for (si, &(scale, dirt)) in SCALES.iter().enumerate() {
            let mut d = Draws((gi as u64) << 32 | (si as u64) << 8 | f as u64);
            let coo = d.graph(40);
            let (rows, cols) = (coo.num_rows(), coo.num_cols());
            let s_row = d.halves(rows, scale, dirt);
            let s_col = d.halves(cols, scale, dirt);
            // Features: ordinary, and in the dirty cases Inf, NaN and
            // values whose weighted sums overflow.
            let z = d.halves(cols * f, if dirt > 0 { 30_000.0 } else { 1.0 }, dirt);
            for w in windows(rows) {
                let what = format!("f={f} scale={scale} dirt={dirt} window={w:?}");
                let (want, want_rec) =
                    records(|| forward_reference(&coo, &s_row, &s_col, &z, f, w));
                for dev in devices() {
                    let (got, got_rec) = records(|| {
                        let (o, _) =
                            fused_attn_forward_window(&dev, &coo, &s_row, &s_col, SLOPE, &z, f, w);
                        [o.e, o.alpha, o.out].concat()
                    });
                    assert_eq!(value_bits(&got), value_bits(&want), "{what} {:?}", dev.exec);
                    assert_eq!(got_rec, want_rec, "record {what} {:?}", dev.exec);
                }
            }
        }
    }
}

#[test]
fn the_fused_softmax_gradient_is_its_per_row_reference() {
    for gi in 0..6u64 {
        for (si, &(scale, dirt)) in SCALES.iter().enumerate() {
            let mut d = Draws(0x5F6 << 32 | gi << 8 | si as u64);
            let coo = d.graph(40);
            let nnz = coo.nnz();
            let alpha = d.halves(nnz, 1.0, dirt);
            let dalpha = d.halves(nnz, scale, dirt);
            let e = d.halves(nnz, scale, dirt);
            for w in windows(coo.num_rows()) {
                let what = format!("graph {gi} scale={scale} dirt={dirt} window={w:?}");
                let (want, want_rec) =
                    records(|| softmax_grad_reference(&coo, &alpha, &dalpha, &e, w));
                for dev in devices() {
                    let (got, got_rec) = records(|| {
                        fused_softmax_grad_window(&dev, &coo, &alpha, &dalpha, &e, SLOPE, w).0
                    });
                    assert_eq!(value_bits(&got), value_bits(&want), "{what} {:?}", dev.exec);
                    assert_eq!(got_rec, want_rec, "record {what} {:?}", dev.exec);
                }
            }
        }
    }
}

#[test]
fn the_half_edge_reduction_is_its_per_edge_reference() {
    for gi in 0..6u64 {
        for (si, &(scale, dirt)) in SCALES.iter().enumerate() {
            let mut d = Draws(0xED6E << 32 | gi << 8 | si as u64);
            let coo = d.graph(40);
            let w = d.halves(coo.nnz(), scale, dirt);
            for op in [Reduce::Sum, Reduce::Max] {
                for win in windows(coo.num_rows()) {
                    let what =
                        format!("graph {gi} {op:?} scale={scale} dirt={dirt} window={win:?}");
                    let (want, want_rec) = records(|| edge_reduce_reference(&coo, &w, op, win));
                    for dev in devices() {
                        let (got, got_rec) =
                            records(|| edge_reduce_window(&dev, &coo, &w, op, win).0);
                        assert_eq!(value_bits(&got), value_bits(&want), "{what} {:?}", dev.exec);
                        assert_eq!(got_rec, want_rec, "record {what} {:?}", dev.exec);
                    }
                }
            }
        }
    }
}
