//! The edge-softmax row kernels of `halfgnn_half::slice` against their
//! per-lane intrinsic loops (per chain for `sum_chains`/`dot_chains`): the
//! same output bits, and the same overflow record, field for field, with a
//! tracking window open, with none open, and inside `overflow::isolated`.
//!
//! Lengths 0–41 cover every tail of the eight-lane blocks, and chains of
//! those lengths share vectors in every mix. ±Inf, quiet and signaling
//! NaNs, and operands whose sums, products or exponents overflow are
//! injected at random lanes; all-negative rows send every lane through the
//! slope. Without the `provenance` feature every summary is empty on both
//! sides, so the outputs carry the comparison.

use halfgnn_half::intrinsics::{hadd, hdiv, hexp, hmax, hmul, hsub};
use halfgnn_half::overflow::{self, Summary};
use halfgnn_half::slice::{
    div_row, dot_chains, exp_shifted, leaky_scores, softmax_grad_row, sum_chains,
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
    /// operands mixed in at random lanes (the draw mix of
    /// `tests/row_kernels.rs`).
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

    /// A row of `n` draws; all of them negative (finite) when `negative`.
    fn row(&mut self, n: usize, negative: bool) -> Vec<Half> {
        (0..n)
            .map(
                |_| {
                    if negative {
                        -Half::from_f32(0.01 + 300.0 * self.unit())
                    } else {
                        self.half()
                    }
                },
            )
            .collect()
    }

    /// A scalar operand: usually ordinary, sometimes any draw.
    fn scalar(&mut self, scale: f32) -> Half {
        if self.below(4) == 0 {
            self.half()
        } else {
            Half::from_f32(scale * (2.0 * self.unit() - 1.0))
        }
    }

    /// The LeakyReLU slope: GAT's 0.2 mostly, sometimes any draw.
    fn slope(&mut self) -> Half {
        if self.below(3) == 0 {
            self.half()
        } else {
            Half::from_f32(0.2)
        }
    }
}

/// Bit patterns of an arithmetic result, with every NaN as one pattern:
/// Rust leaves the payload of a NaN that `f32` arithmetic returns
/// unspecified (the compiler may swap the operands of a commutative op),
/// so the per-lane loop's own payloads can differ between two builds.
fn value_bits(v: &[Half]) -> Vec<u16> {
    v.iter().map(|h| if h.is_nan() { 0x7E00 } else { h.to_bits() }).collect()
}

/// A row max's value: NaN as one pattern, and ±0 as +0, since the zero
/// sign of `f32::max` over equal zeros is unspecified.
fn max_bits(m: Half) -> u16 {
    if m.is_zero() {
        0
    } else {
        value_bits(&[m])[0]
    }
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

/// Every length 0–41, several draws each; every third draw all-negative.
fn cases() -> impl Iterator<Item = (usize, bool, Draws)> {
    (0..=41usize)
        .flat_map(|n| (0..12u64).map(move |k| (n, k % 3 == 2, Draws((n as u64) << 32 | k))))
}

/// The per-lane loop of `leaky_scores`: scores, then the running max.
fn scores_loop(s: Half, s_col: &[Half], cols: &[u32], slope: Half) -> (Vec<Half>, Half) {
    let mut m = Half::NEG_INFINITY;
    let e = cols
        .iter()
        .map(|&c| {
            let v = hadd(s, s_col[c as usize]);
            let v = if v.to_f32() >= 0.0 { v } else { hmul(v, slope) };
            m = hmax(m, v);
            v
        })
        .collect();
    (e, m)
}

#[test]
fn leaky_scores_is_the_per_lane_score_and_max_loop() {
    for (n, negative, mut d) in cases() {
        let s_col = d.row(9, negative);
        let cols: Vec<u32> = (0..n).map(|_| d.below(9) as u32).collect();
        let s = if negative { -Half::from_f32(d.unit()) } else { d.scalar(3.0) };
        let slope = d.slope();
        let (want, want_rec) = records(|| {
            let (mut e, m) = scores_loop(s, &s_col, &cols, slope);
            e.push(Half::from_bits(max_bits(m)));
            e
        });
        let (got, got_rec) = records(|| {
            let mut e = vec![Half::ZERO; n];
            let m = leaky_scores(s, &s_col, &cols, slope, &mut e);
            e.push(Half::from_bits(max_bits(m)));
            e
        });
        assert_eq!(value_bits(&got), value_bits(&want), "scores n={n} s={s:?} slope={slope:?}");
        assert_eq!(got_rec, want_rec, "scores record n={n}");
    }
}

#[test]
fn exp_shifted_is_the_per_lane_hsub_hexp_loop() {
    for (n, negative, mut d) in cases() {
        let e = d.row(n, negative);
        // The row's own max (arguments ≤ 0), or any shift, whose
        // exponents may overflow.
        let m = if d.below(2) == 0 {
            e.iter().fold(Half::NEG_INFINITY, |m, &v| hmax(m, v))
        } else {
            d.scalar(20.0)
        };
        let (want, want_rec) = records(|| e.iter().map(|&v| hexp(hsub(v, m))).collect());
        let (got, got_rec) = records(|| {
            let mut out = vec![Half::ZERO; n];
            exp_shifted(&e, m, &mut out);
            out
        });
        assert_eq!(value_bits(&got), value_bits(&want), "exp n={n} m={m:?}");
        assert_eq!(got_rec, want_rec, "exp record n={n}");
    }
}

#[test]
fn div_row_is_the_per_lane_hdiv_loop() {
    for (n, negative, mut d) in cases() {
        let v0 = d.row(n, negative);
        let z = match d.below(6) {
            0 => Half::ZERO,
            1 => Half::from_f32(1e-4),
            _ => d.scalar(40.0),
        };
        let (want, want_rec) = records(|| v0.iter().map(|&v| hdiv(v, z)).collect());
        let (got, got_rec) = records(|| {
            let mut v = v0.clone();
            div_row(&mut v, z);
            v
        });
        assert_eq!(value_bits(&got), value_bits(&want), "div n={n} z={z:?}");
        assert_eq!(got_rec, want_rec, "div record n={n}");
    }
}

#[test]
fn softmax_grad_row_is_the_per_lane_gradient_loop() {
    for (n, negative, mut d) in cases() {
        let (alpha, dalpha, e) = (d.row(n, false), d.row(n, false), d.row(n, negative));
        let (t, slope) = (d.scalar(8.0), d.slope());
        let (want, want_rec) = records(|| {
            let rows = alpha.iter().zip(&dalpha).zip(&e);
            rows.map(|((&a, &da), &ev)| {
                let soft = hmul(a, hsub(da, t));
                if ev.to_f32() >= 0.0 {
                    soft
                } else {
                    hmul(soft, slope)
                }
            })
            .collect()
        });
        let (got, got_rec) = records(|| {
            let mut de = vec![Half::ZERO; n];
            softmax_grad_row(&alpha, &dalpha, &e, t, slope, &mut de);
            de
        });
        assert_eq!(value_bits(&got), value_bits(&want), "grad n={n} t={t:?} slope={slope:?}");
        assert_eq!(got_rec, want_rec, "grad record n={n}");
    }
}

/// Segment offsets over `x`: up to 19 segments, each 0–41 long, the first
/// `n` long.
fn segments(d: &mut Draws, n: usize) -> Vec<usize> {
    let mut off = vec![d.below(3) as usize];
    for i in 0..d.below(20) {
        let len = if i == 0 { n } else { d.below(42) as usize };
        off.push(off.last().unwrap() + len);
    }
    off
}

#[test]
fn sum_chains_are_the_per_chain_hadd_loops() {
    for (n, negative, mut d) in cases() {
        let off = segments(&mut d, n);
        let len = off.last().unwrap() + d.below(3) as usize;
        let x = d.row(len, negative);
        let (want, want_rec) = records(|| {
            let segs = off.windows(2);
            segs.map(|w| x[w[0]..w[1]].iter().fold(Half::ZERO, |a, &v| hadd(a, v))).collect()
        });
        let (got, got_rec) = records(|| {
            let mut out = vec![Half::ZERO; off.len() - 1];
            sum_chains(&x, &off, &mut out);
            out
        });
        assert_eq!(value_bits(&got), value_bits(&want), "sum chains {off:?}");
        assert_eq!(got_rec, want_rec, "sum chains record {off:?}");
    }
}

#[test]
fn dot_chains_are_the_per_chain_hmul_hadd_loops() {
    for (n, negative, mut d) in cases() {
        let off = segments(&mut d, n);
        let len = off.last().unwrap() + d.below(3) as usize;
        let (x, y) = (d.row(len, false), d.row(len, negative));
        let (want, want_rec) = records(|| {
            let segs = off.windows(2);
            segs.map(|w| {
                let pairs = x[w[0]..w[1]].iter().zip(&y[w[0]..w[1]]);
                pairs.fold(Half::ZERO, |t, (&a, &b)| hadd(t, hmul(a, b)))
            })
            .collect()
        });
        let (got, got_rec) = records(|| {
            let mut out = vec![Half::ZERO; off.len() - 1];
            dot_chains(&x, &y, &off, &mut out);
            out
        });
        assert_eq!(value_bits(&got), value_bits(&want), "dot chains {off:?}");
        assert_eq!(got_rec, want_rec, "dot chains record {off:?}");
    }
}

/// Clean chains around one that overflows late: its event's index counts
/// every conversion of the chains before it, and none after.
#[test]
fn a_late_overflowing_chain_keeps_its_conversion_index() {
    let off: Vec<usize> = (0..=12).map(|i| 30 * i).collect();
    let mut x = vec![Half::ONE; 360];
    x[5 * 30 + 20] = Half::MAX; // chain 5: 20 + 65,504 rounds to Inf
    let (want, want_rec) = records(|| {
        let segs = off.windows(2);
        segs.map(|w| x[w[0]..w[1]].iter().fold(Half::ZERO, |a, &v| hadd(a, v))).collect()
    });
    let (got, got_rec) = records(|| {
        let mut out = vec![Half::ZERO; 12];
        sum_chains(&x, &off, &mut out);
        out
    });
    assert_eq!(value_bits(&got), value_bits(&want));
    assert_eq!(got_rec, want_rec);
    assert!(want[5].is_infinite() && want.iter().filter(|h| h.is_finite()).count() == 11);
    if cfg!(feature = "provenance") {
        assert!(want_rec[0].contains("conversion_index: 170,"), "{}", want_rec[0]);
    }
}
