//! The row kernels of `halfgnn_half::slice` against their per-lane
//! intrinsic loops (per edge for `dot_half2_trees`, per product for
//! `gemm_tile` and `gemm_col`): the same output bits, and the same overflow
//! record, field for field, with a tracking window open, with none open,
//! and inside `overflow::isolated`.
//!
//! Lengths 0–41 cover every tail of the eight-lane blocks; ±Inf, quiet
//! and signaling NaNs, and operands whose products or sums overflow are
//! injected at random lanes. Without the `provenance` feature every
//! summary is empty on both sides, so the outputs carry the comparison.

use halfgnn_half::intrinsics::{hadd, hmul};
use halfgnn_half::overflow::{self, Summary};
use halfgnn_half::slice::{
    add_row, axpby, convert_f32_to_half_into, convert_half_to_f32_into, dot_half2_tree,
    dot_half2_trees, fma_row, gemm_col, gemm_tile, scale_row,
};
use halfgnn_half::{splitmix64, Half};

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

    /// Mostly ordinary values, with the non-finite and overflowing
    /// operands mixed in at random lanes.
    fn half(&mut self) -> Half {
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        match self.below(40) {
            0 => Half::INFINITY,
            1 => Half::NEG_INFINITY,
            2 => Half::NAN,
            // Signaling NaNs: quiet bit clear, payload non-zero.
            3 => {
                Half::from_bits(0x7C01 | (self.below(0x1FF) as u16) | (self.below(2) << 15) as u16)
            }
            // Products of two of these overflow; sums of two nearly do.
            4..=6 => Half::from_f32(sign * (200.0 + 400.0 * self.unit())),
            7 | 8 => Half::from_f32(sign * (30_000.0 + 35_000.0 * self.unit())),
            9 => Half::from_bits(self.below(0x400) as u16), // subnormal or zero
            _ => Half::from_f32(sign * 4.0 * self.unit()),
        }
    }

    fn row(&mut self, n: usize) -> Vec<Half> {
        (0..n).map(|_| self.half()).collect()
    }

    /// `f32` inputs for narrowing: ordinary values, the rounding cliffs,
    /// and non-finite values with payloads.
    fn f32_value(&mut self) -> f32 {
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        match self.below(24) {
            0 => f32::INFINITY * sign,
            1 => f32::from_bits(0x7F80_0001 | (self.next() as u32 & 0x807F_FFFF)), // NaN
            2 => sign * (65_504.0 + 32.0 * self.unit()), // around the Inf cliff
            3 => sign * 2f32.powi(-25) * (1.0 + self.unit()), // underflow ties
            4 => f32::from_bits(self.next() as u32),     // any pattern
            _ => sign * 1000.0 * self.unit(),
        }
    }
}

/// Bit patterns of a half row.
fn bits(v: &[Half]) -> Vec<u16> {
    v.iter().map(|h| h.to_bits()).collect()
}

/// Bit patterns of an arithmetic result, with every NaN as one pattern:
/// Rust leaves the payload of a NaN that `f32` arithmetic returns
/// unspecified (the compiler may swap the operands of a commutative op),
/// so the per-lane loop's own payloads can differ between two builds.
/// Conversions are integer code, so the bulk conversions compare exactly.
fn value_bits(v: &[Half]) -> Vec<u16> {
    v.iter().map(|h| if h.is_nan() { 0x7E00 } else { h.to_bits() }).collect()
}

/// `f(…)` three ways — inside an open window, with no window, and inside
/// `isolated` within an open window — returning its output and what each
/// way recorded. All three ways must compute the same values.
fn records(f: impl Fn() -> Vec<Half>) -> (Vec<Half>, [String; 3]) {
    let show = |s: &Summary| format!("{s:?}");

    overflow::begin();
    let open = {
        let _site = overflow::site("row");
        f()
    };
    let window = overflow::take();

    // No window: the closed window `take` just emptied must stay empty.
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

/// Every length 0–41, several draws each.
fn cases() -> impl Iterator<Item = (usize, Draws)> {
    (0..=41usize).flat_map(|n| (0..12u64).map(move |k| (n, Draws((n as u64) << 32 | k))))
}

#[test]
fn fma_row_is_the_per_lane_hmul_hadd_loop() {
    for (n, mut d) in cases() {
        let (acc0, x) = (d.row(n), d.row(n));
        let w = if d.below(4) == 0 { d.half() } else { Half::from_f32(d.unit() * 2.0) };
        let (want, want_rec) = records(|| {
            let mut acc = acc0.clone();
            for (a, &xv) in acc.iter_mut().zip(&x) {
                *a = hadd(*a, hmul(w, xv));
            }
            acc
        });
        let (got, got_rec) = records(|| {
            let mut acc = acc0.clone();
            fma_row(&mut acc, w, &x);
            acc
        });
        assert_eq!(value_bits(&got), value_bits(&want), "fma_row n={n} w={w:?}");
        assert_eq!(got_rec, want_rec, "fma_row record n={n}");
    }
}

#[test]
fn scale_row_is_the_per_lane_hmul_loop() {
    for (n, mut d) in cases() {
        let v0 = d.row(n);
        let s = if d.below(4) == 0 { d.half() } else { Half::from_f32(d.unit() * 300.0) };
        let (want, want_rec) = records(|| {
            let mut v = v0.clone();
            for a in v.iter_mut() {
                *a = hmul(*a, s);
            }
            v
        });
        let (got, got_rec) = records(|| {
            let mut v = v0.clone();
            scale_row(&mut v, s);
            v
        });
        assert_eq!(value_bits(&got), value_bits(&want), "scale_row n={n} s={s:?}");
        assert_eq!(got_rec, want_rec, "scale_row record n={n}");
    }
}

#[test]
fn add_row_is_the_per_lane_hadd_loop() {
    for (n, mut d) in cases() {
        let (acc0, x) = (d.row(n), d.row(n));
        let (want, want_rec) = records(|| {
            let mut acc = acc0.clone();
            for (a, &xv) in acc.iter_mut().zip(&x) {
                *a = hadd(*a, xv);
            }
            acc
        });
        let (got, got_rec) = records(|| {
            let mut acc = acc0.clone();
            add_row(&mut acc, &x);
            acc
        });
        assert_eq!(value_bits(&got), value_bits(&want), "add_row n={n}");
        assert_eq!(got_rec, want_rec, "add_row record n={n}");
    }
}

#[test]
fn axpby_is_the_per_lane_two_product_sum() {
    for (n, mut d) in cases() {
        let (x, y) = (d.row(n), d.row(n));
        let a = if d.below(4) == 0 { d.half() } else { Half::from_f32(d.unit() * 3.0) };
        let b = if d.below(4) == 0 { d.half() } else { Half::from_f32(-d.unit()) };
        let (want, want_rec) =
            records(|| x.iter().zip(&y).map(|(&xv, &yv)| hadd(hmul(a, xv), hmul(b, yv))).collect());
        let (got, got_rec) = records(|| {
            let mut out = vec![Half::ZERO; n];
            axpby(a, &x, b, &y, &mut out);
            out
        });
        assert_eq!(value_bits(&got), value_bits(&want), "axpby n={n} a={a:?} b={b:?}");
        assert_eq!(got_rec, want_rec, "axpby record n={n}");
    }
}

#[test]
fn bulk_narrowing_is_the_per_lane_from_f32_loop() {
    for (n, mut d) in cases() {
        let src: Vec<f32> = (0..n).map(|_| d.f32_value()).collect();
        let (want, want_rec) = records(|| src.iter().map(|&v| Half::from_f32(v)).collect());
        let (got, got_rec) = records(|| {
            let mut out = vec![Half::ZERO; n];
            convert_f32_to_half_into(&src, &mut out);
            out
        });
        assert_eq!(bits(&got), bits(&want), "narrow n={n}");
        assert_eq!(got_rec, want_rec, "narrow record n={n}");
    }
}

#[test]
fn bulk_widening_is_the_per_lane_to_f32_loop() {
    for (n, mut d) in cases() {
        let src = d.row(n);
        let want: Vec<u32> = src.iter().map(|h| h.to_f32().to_bits()).collect();
        let mut got = vec![0f32; n];
        let finite = convert_half_to_f32_into(&src, &mut got);
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "widen n={n}");
        assert_eq!(finite, src.iter().all(|h| h.is_finite()), "widen's finiteness n={n}");
    }
}

/// Bit patterns of `f32` results, with every NaN as one pattern (see
/// [`value_bits`]).
fn f32_value_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() }).collect()
}

/// One to nine output rows (one to two register blocks of four, and their
/// tails), 0–130 steps, every column tail of the sixteen-column blocks and
/// the workloads' widths, with A stored row-major (strides `(k, 1)`) and
/// transposed (`(1, rows)`).
#[test]
fn gemm_tile_is_the_per_product_mul_add_loop() {
    let widths = (1..=17).chain([48, 64, 100, 150]);
    for (ci, n) in widths.enumerate() {
        for (si, k) in [0usize, 1, 2, 7, 8, 9, 33, 64, 128, 130].into_iter().enumerate() {
            let mut d = Draws((ci as u64) << 32 | (si as u64) << 8);
            let rows = 1 + (ci * 10 + si) % 9;
            let a: Vec<f32> = (0..rows * k).map(|_| d.f32_value()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| d.f32_value()).collect();
            let out0: Vec<f32> = (0..rows * n).map(|_| d.f32_value()).collect();
            for strides in [(k, 1), (1, rows)] {
                let mut want = out0.clone();
                for (r, row) in want.chunks_exact_mut(n).enumerate() {
                    for (p, brow) in b.chunks_exact(n).enumerate() {
                        let av = a[r * strides.0 + p * strides.1];
                        for (o, &bv) in row.iter_mut().zip(brow) {
                            *o += av * bv;
                        }
                    }
                }
                let mut got = out0.clone();
                gemm_tile(&a, strides, &b, n, &mut got);
                let what = format!("gemm_tile rows={rows} k={k} n={n} strides={strides:?}");
                assert_eq!(f32_value_bits(&got), f32_value_bits(&want), "{what}");
            }
        }
    }
}

#[test]
fn gemm_col_is_the_per_product_mul_add_loop() {
    for (m, mut d) in cases() {
        let k = d.below(20) as usize;
        let a: Vec<f32> = (0..m * k).map(|_| d.f32_value()).collect();
        let x: Vec<f32> = (0..k).map(|_| d.f32_value()).collect();
        let out0: Vec<f32> = (0..m).map(|_| d.f32_value()).collect();
        let mut want = out0.clone();
        for (q, o) in want.iter_mut().enumerate() {
            for (l, &xv) in x.iter().enumerate() {
                *o += a[q * k + l] * xv;
            }
        }
        let mut got = out0.clone();
        gemm_col(&a, &x, &mut got);
        assert_eq!(f32_value_bits(&got), f32_value_bits(&want), "gemm_col m={m} k={k}");
    }
}

#[test]
fn dot_half2_trees_is_the_per_edge_tree() {
    for (e, mut d) in cases() {
        for (f, lanes) in [(2, 2), (8, 2), (12, 4), (64, 8), (72, 8), (96, 2)] {
            let threads = (f / lanes).clamp(1, 32);
            let (u, v) = (d.row(5 * f), d.row(3 * f));
            let rows: Vec<u32> = (0..e).map(|_| d.below(5) as u32).collect();
            let cols: Vec<u32> = (0..e).map(|_| d.below(3) as u32).collect();
            let row = |x: &[Half], r: u32| x[r as usize * f..][..f].to_vec();
            let (want, want_rec) = records(|| {
                let pairs = rows.iter().zip(&cols);
                pairs
                    .map(|(&r, &c)| dot_half2_tree(&row(&u, r), &row(&v, c), threads, lanes))
                    .collect()
            });
            let (got, got_rec) = records(|| {
                let mut out = vec![Half::ZERO; e];
                dot_half2_trees(&u, &rows, &v, &cols, f, threads, lanes, &mut out);
                out
            });
            assert_eq!(value_bits(&got), value_bits(&want), "edges={e} f={f} lanes={lanes}");
            assert_eq!(got_rec, want_rec, "record edges={e} f={f} lanes={lanes}");
        }
    }
}

#[test]
fn the_first_event_is_the_scalar_paths_even_deep_in_a_long_row() {
    // One overflowing lane late in a 1,000-lane row, after many clean
    // blocks: its index counts every earlier conversion exactly.
    let x: Vec<Half> =
        (0..1000).map(|i| Half::from_f32(if i == 777 { 600.0 } else { 0.5 })).collect();
    let w = Half::from_f32(200.0); // 600 · 200 = 1.2e5 overflows
    let (want, want_rec) = records(|| {
        let mut acc = vec![Half::ONE; 1000];
        for (a, &xv) in acc.iter_mut().zip(&x) {
            *a = hadd(*a, hmul(w, xv));
        }
        acc
    });
    let (got, got_rec) = records(|| {
        let mut acc = vec![Half::ONE; 1000];
        fma_row(&mut acc, w, &x);
        acc
    });
    assert_eq!(value_bits(&got), value_bits(&want));
    assert_eq!(got_rec, want_rec);
    if cfg!(feature = "provenance") {
        assert!(want_rec[0].contains("conversion_index: 1554"), "{}", want_rec[0]);
    }
}
