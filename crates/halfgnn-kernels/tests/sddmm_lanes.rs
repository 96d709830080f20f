//! HalfGNN's SDDMM (`sddmm_window`, eight edges per F16C block) against its
//! per-edge loop (`dot_half2_tree` on every window edge, in edge order):
//! the same output bits, NaN compared as NaN, and the same overflow record,
//! field for field, with a tracking window open, with none open, and
//! inside `overflow::isolated`.
//!
//! Every SDDMM load width (half2, half4, half8; half1 has no half2 pairing
//! and is not an SDDMM width) with sub-warps on and off, feature lengths
//! over the multiples of each width from 2 to 128, edge counts 0–41 (full
//! blocks and every tail), two tilings and sub-windows. Features carry
//! ±Inf, NaN and operands whose products or sums overflow at a per-case
//! rate, from none to most blocks. Without the `provenance` feature every
//! summary is empty on both sides, so the outputs carry the comparison.
//! CI runs this suite at 1 and 4 worker threads; the record is compared
//! on the cost-model executor, whose CTAs run on the calling thread, and
//! the fast executor's outputs against the same loop.

use halfgnn_graph::{Coo, VertexId};
use halfgnn_half::overflow::{self, Summary};
use halfgnn_half::slice::dot_half2_tree;
use halfgnn_half::{splitmix64, Half};
use halfgnn_kernels::common::{Tiling, VectorWidth};
use halfgnn_kernels::halfgnn_sddmm::{sddmm_window, SddmmConfig};
use halfgnn_sim::DeviceConfig;

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

    /// Ordinary values, and in `dirt` of 10,000 draws a non-finite or
    /// overflowing one.
    fn half(&mut self, dirt: u64) -> Half {
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        if self.below(10_000) >= dirt {
            return Half::from_f32(sign * 2.0 * self.unit());
        }
        match self.below(6) {
            0 => Half::INFINITY,
            1 => Half::NEG_INFINITY,
            2 => Half::NAN,
            // Products of two of these overflow.
            3 => Half::from_f32(sign * (260.0 + 300.0 * self.unit())),
            // Sums of a few of these overflow.
            4 => Half::from_f32(sign * (120.0 + 60.0 * self.unit())),
            _ => Half::from_bits(self.below(0x400) as u16), // subnormal or zero
        }
    }

    /// `ne` distinct edges of a 9 × 7 grid, in random order.
    fn edges(&mut self, ne: usize) -> Vec<(VertexId, VertexId)> {
        let mut all: Vec<(VertexId, VertexId)> =
            (0..9).flat_map(|r| (0..7).map(move |c| (r, c))).collect();
        for i in (1..all.len()).rev() {
            all.swap(i, self.below(i as u64 + 1) as usize);
        }
        all.truncate(ne);
        all
    }
}

/// Output bits, with every NaN as one pattern: Rust leaves the payload of
/// a NaN that `f32` arithmetic returns unspecified.
fn value_bits(v: &[Half]) -> Vec<u16> {
    v.iter().map(|h| if h.is_nan() { 0x7E00 } else { h.to_bits() }).collect()
}

/// The per-edge loop over the window, under the kernel's site label.
fn reference(
    coo: &Coo,
    u: &[Half],
    v: &[Half],
    f: usize,
    lanes: usize,
    w: (usize, usize),
) -> Vec<Half> {
    let _site = overflow::site("halfgnn_sddmm");
    let threads = (f / lanes).clamp(1, 32);
    let mut out = vec![Half::ZERO; coo.nnz()];
    let edges = coo.rows().iter().zip(coo.cols()).enumerate().take(w.1).skip(w.0);
    for (e, (&r, &c)) in edges {
        let (r, c) = (r as usize, c as usize);
        out[e] = dot_half2_tree(&u[r * f..(r + 1) * f], &v[c * f..(c + 1) * f], threads, lanes);
    }
    out
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

/// One graph and feature draw, checked over several windows and tilings.
fn check(width: VectorWidth, sub_warps: bool, f: usize, ne: usize, dirt: u64, key: u64) {
    let mut d = Draws(key);
    let coo = Coo::from_edges(9, 7, &d.edges(ne));
    let u: Vec<Half> = (0..9 * f).map(|_| d.half(dirt)).collect();
    let v: Vec<Half> = (0..7 * f).map(|_| d.half(dirt)).collect();
    let nnz = coo.nnz();
    let windows = [(0, nnz), (nnz / 3, nnz), (nnz.min(1), nnz - nnz.min(2) / 2)];
    let tilings = [Tiling::default(), Tiling { edges_per_warp: 11, warps_per_cta: 2 }];
    let (sim, fast) = (DeviceConfig::a100_like(), DeviceConfig::a100_like().fast());
    for tiling in tilings {
        let cfg = SddmmConfig { width, sub_warps, tiling };
        for w in windows {
            let what = format!("{width:?} sub_warps={sub_warps} f={f} edges={nnz} window={w:?}");
            let (want, want_rec) = records(|| reference(&coo, &u, &v, f, width.lanes(), w));
            let (got, got_rec) = records(|| sddmm_window(&sim, &coo, &u, &v, f, &cfg, w).0);
            assert_eq!(value_bits(&got), value_bits(&want), "{what}");
            assert_eq!(got_rec, want_rec, "record {what}");
            let (fast_out, _) = sddmm_window(&fast, &coo, &u, &v, f, &cfg, w);
            assert_eq!(value_bits(&fast_out), value_bits(&want), "fast {what}");
        }
    }
}

const WIDTHS: [VectorWidth; 3] = [VectorWidth::Half2, VectorWidth::Half4, VectorWidth::Half8];

#[test]
fn every_width_and_feature_length_is_the_per_edge_loop() {
    for (wi, width) in WIDTHS.into_iter().enumerate() {
        let lanes = width.lanes();
        for (fi, f) in (lanes..=128).step_by(lanes).enumerate() {
            for sub_warps in [true, false] {
                let ne = (fi * 5 + wi * 7 + usize::from(sub_warps) * 3) % 42;
                let dirt = [0, 2, 30, 400][fi % 4];
                check(
                    width,
                    sub_warps,
                    f,
                    ne,
                    dirt,
                    (wi as u64) << 32 | (f as u64) << 8 | ne as u64,
                );
            }
        }
    }
}

#[test]
fn every_edge_count_is_the_per_edge_loop() {
    for ne in 0..=41 {
        for (width, f) in
            [(VectorWidth::Half8, 64), (VectorWidth::Half4, 12), (VectorWidth::Half2, 6)]
        {
            for dirt in [0, 60] {
                check(width, true, f, ne, dirt, 0xED6E << 32 | (f as u64) << 16 | ne as u64 | dirt);
            }
        }
    }
}

/// One overflowing product deep in a long tile of clean edges: the first
/// event's conversion index counts every earlier conversion, bulk-counted
/// blocks included.
#[test]
fn a_late_overflow_keeps_its_conversion_index() {
    let f = 64;
    let edges: Vec<(VertexId, VertexId)> =
        (0..9).flat_map(|r| (0..7).map(move |c| (r, c))).collect();
    let coo = Coo::from_edges(9, 7, &edges);
    let mut u = vec![Half::from_f32(0.5); 9 * f];
    let v = vec![Half::from_f32(1.5); 7 * f];
    u[8 * f + 40] = Half::from_f32(60_000.0); // 60,000 · 1.5 overflows: row 8's edges
    let cfg = SddmmConfig::widest_for(f);
    let sim = DeviceConfig::a100_like();
    let w = (0, coo.nnz());
    let (want, want_rec) = records(|| reference(&coo, &u, &v, f, 8, w));
    let (got, got_rec) = records(|| sddmm_window(&sim, &coo, &u, &v, f, &cfg, w).0);
    assert_eq!(value_bits(&got), value_bits(&want));
    assert_eq!(got_rec, want_rec);
    assert!(want[56..].iter().all(|h| !h.is_finite()) && want[..56].iter().all(|h| h.is_finite()));
    if want_rec[0].contains("conversions: 0,") {
        return; // the recorder is not compiled in
    }
    // 56 clean edges of 64 + 2·7 + 1 = 79 conversions precede edge 56,
    // whose overflowing product (feature 40: thread 5's first `hfma2`, low
    // lane) follows the 5 · 8 of threads 0–4.
    assert!(
        want_rec[0].contains(&format!("conversion_index: {}", 56 * 79 + 40)),
        "{}",
        want_rec[0]
    );
}
