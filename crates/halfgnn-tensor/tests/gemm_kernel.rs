//! `Ops::gemm` against the GEMM loop as written (`gemm::matmul` on the
//! widened operands, the output narrowed once): the same bits, NaN
//! compared as NaN, and for half GEMMs the same overflow record, compared
//! by its `Debug` string. CI runs this suite at 1 and 4 worker threads,
//! with and without the recorder compiled in.
//!
//! Shapes cover every row and column tail of the tile kernel's register
//! blocks and of the driver's row blocks, one and several panels of `k`,
//! both transpose flags, single output columns over every tail of their
//! eight-output vectors, and the GEMMs the perfbench workloads run.
//! Operands mix ±0, subnormals, range edges, all-zero rows of A and of B,
//! and, in some cases, ±Inf and NaN — the non-finite case runs the
//! reference loop itself.

use halfgnn_half::overflow::{self, Summary};
use halfgnn_half::slice::{f32_slice_to_half, half_slice_to_f32};
use halfgnn_half::{splitmix64, Half};
use halfgnn_sim::DeviceConfig;
use halfgnn_tensor::gemm::matmul;
use halfgnn_tensor::Ops;
use proptest::prelude::*;

const MS: [usize; 8] = [1, 3, 4, 5, 9, 17, 30, 64];
const NS: [usize; 15] = [1, 2, 4, 7, 8, 9, 15, 16, 17, 47, 48, 63, 64, 65, 100];
const KS: [usize; 3] = [1, 6, 300];

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

    /// Ordinary values, a share of ±0, subnormals and range edges, and —
    /// when `nonfinite` — ±Inf and NaN.
    fn value(&mut self, zeros: u64, nonfinite: bool) -> f32 {
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        if self.below(100) < zeros {
            return sign * 0.0;
        }
        match self.below(if nonfinite { 40 } else { 37 }) {
            0 => sign * 65504.0,
            1 => sign * 3e-6, // a half subnormal
            2 => sign * f32::from_bits(1 + self.below(1 << 20) as u32), // an f32 subnormal
            37 => sign * f32::INFINITY,
            38 | 39 => f32::NAN,
            _ => sign * 4.0 * self.unit(),
        }
    }

    /// An operand with `rows × cols` as the product sees it (some rows all
    /// zero), stored transposed when `t`.
    fn operand(&mut self, rows: usize, cols: usize, t: bool, nonfinite: bool) -> Vec<f32> {
        let (zeros, zero_rows) = (self.below(51), self.below(60));
        let mut x = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let zero_row = self.below(100) < zero_rows;
            for _ in 0..cols {
                x.push(if zero_row { 0.0 } else { self.value(zeros, nonfinite) });
            }
        }
        if t {
            (0..rows * cols).map(|i| x[(i % rows) * cols + i / rows]).collect()
        } else {
            x
        }
    }
}

/// Whether `Half::from_f32` records into the tracking window (the
/// `provenance` feature of `halfgnn-half`).
fn recorder_on() -> bool {
    overflow::begin();
    let _ = Half::from_f32(1.0);
    overflow::take().conversions == 1
}

/// Bitwise equality, except that any NaN matches any NaN.
fn same(got: &[u32], want: &[u32], nan: impl Fn(u32) -> bool) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(&g, &w)| if nan(w) { nan(g) } else { g == w })
}

fn half_bits(v: &[Half]) -> Vec<u32> {
    v.iter().map(|h| h.to_bits() as u32).collect()
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `f()` inside an open tracking window: its output and what it recorded.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, String) {
    overflow::begin();
    let out = {
        let _site = overflow::site("gemm");
        f()
    };
    (out, format!("{:?}", overflow::take()))
}

/// One case in both precisions: `Ops::gemm` against the reference loop.
#[allow(clippy::too_many_arguments)]
fn check(a: &[f32], ta: bool, b: &[f32], tb: bool, m: usize, k: usize, n: usize, what: &str) {
    let dev = DeviceConfig::a100_like();
    let mut ops = Ops::new(&dev);

    let want = matmul(a, ta, b, tb, m, k, n);
    let got = ops.gemm(a, ta, b, tb, m, k, n);
    assert!(same(&f32_bits(&got), &f32_bits(&want), |w| f32::from_bits(w).is_nan()), "f32 {what}");

    let (ah, bh) = (f32_slice_to_half(a), f32_slice_to_half(b));
    let (want, want_rec) = recorded(|| {
        let (aw, bw) = (half_slice_to_f32(&ah), half_slice_to_f32(&bh));
        f32_slice_to_half(&matmul(&aw, ta, &bw, tb, m, k, n))
    });
    let (got, got_rec) = recorded(|| ops.gemm(&ah, ta, &bh, tb, m, k, n));
    let nan = |w: u32| Half::from_bits(w as u16).is_nan();
    assert!(same(&half_bits(&got), &half_bits(&want), nan), "half {what}");
    assert_eq!(got_rec, want_rec, "half record {what}");
}

/// Every shape at both transpose flags, finite operands.
#[test]
fn finite_gemms_are_the_reference_loop() {
    for (ci, (&m, &n)) in MS.iter().flat_map(|m| NS.iter().map(move |n| (m, n))).enumerate() {
        for &k in &KS {
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut d =
                    Draws((ci as u64) << 40 | (k as u64) << 8 | (ta as u64) << 1 | tb as u64);
                let a = d.operand(m, k, ta, false);
                let b = d.operand(k, n, tb, false);
                check(&a, ta, &b, tb, m, k, n, &format!("m={m} k={k} n={n} ta={ta} tb={tb}"));
            }
        }
    }
}

/// Fewer shapes, with ±Inf and NaN injected: the fallback runs the
/// reference loop, so the NaNs land where they land there.
#[test]
fn non_finite_gemms_are_the_reference_loop() {
    for (ci, (&m, &n)) in
        MS.iter().flat_map(|m| [1, 8, 17, 64].iter().map(move |n| (m, n))).enumerate()
    {
        for &k in &KS {
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let key = (ci as u64) << 16 | (k as u64) << 2 | (ta as u64) << 1 | tb as u64;
                let mut d = Draws(0xBAD << 48 | key);
                let a = d.operand(m, k, ta, true);
                let b = d.operand(k, n, tb, true);
                check(&a, ta, &b, tb, m, k, n, &format!("m={m} k={k} n={n} ta={ta} tb={tb}"));
            }
        }
    }
}

/// One output column (`n = 1`, a GEMM-vector product): every tail of the
/// eight-output vectors, chains of up to 1,000 adds, both transpose flags,
/// with finite and with non-finite operands.
#[test]
fn single_column_gemms_are_the_reference_loop() {
    let ms = MS.iter().chain(&[8, 17]);
    for (ci, &m) in ms.enumerate() {
        for &k in KS.iter().chain(&[64, 1_000]) {
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                for nonfinite in [false, true] {
                    let key = (ci as u64) << 24 | (k as u64) << 3 | (ta as u64) << 1 | tb as u64;
                    let mut d = Draws(0xC01 << 40 | key << 1 | nonfinite as u64);
                    let a = d.operand(m, k, ta, nonfinite);
                    let b = d.operand(k, 1, tb, nonfinite);
                    let what = format!("m={m} k={k} n=1 ta={ta} tb={tb} nonfinite={nonfinite}");
                    check(&a, ta, &b, tb, m, k, 1, &what);
                }
            }
        }
    }
}

/// An Inf in B facing only zeros of A: the reference skips those products,
/// so no NaN appears; a kernel that skipped B's zero rows instead, or
/// multiplied through A's zeros, would differ. Likewise an Inf in a
/// transposed A's row that faces an all-zero row of B.
#[test]
fn an_inf_facing_zeros_takes_the_reference_loop() {
    let (m, k, n) = (4, 3, 9);
    let mut a = vec![1.0f32; m * k];
    for i in 0..m {
        a[i * k + 1] = 0.0; // column 1 of A is zero
    }
    let mut b = vec![0.5f32; k * n];
    b[n + 4] = f32::INFINITY; // row 1 of B holds an Inf
    check(&a, false, &b, false, m, k, n, "Inf in B against A's zero column");
    let want = matmul(&a, false, &b, false, m, k, n);
    assert!(want.iter().all(|v| v.is_finite()), "the reference skips 0·Inf");

    // Aᵀ·B: A stored k×m with an Inf in row 2, and B's row 2 all zero.
    let mut at = vec![1.0f32; k * m];
    at[2 * m + 3] = f32::INFINITY;
    let mut b = vec![0.25f32; k * n];
    b[2 * n..3 * n].fill(0.0);
    check(&at, true, &b, false, m, k, n, "Inf in A against B's zero row");
    let want = matmul(&at, true, &b, false, m, k, n);
    assert!(want[3 * n..4 * n].iter().all(|v| v.is_nan()), "the reference multiplies Inf·0");
}

/// The workloads' GEMM shapes `(vertices, features, outputs)`.
const WORKLOAD: [(usize, usize, usize); 7] = [
    (4164, 100, 64),
    (4164, 64, 48),
    (4164, 48, 64),
    (4800, 64, 4),
    (4800, 64, 1),
    (4000, 150, 64),
    (4000, 64, 100),
];

/// A `rows × cols` operand whose rows past `live` are all zero, as a
/// mini-batch loss gradient is past its seed rows.
fn seeded(d: &mut Draws, rows: usize, cols: usize, live: usize) -> Vec<f32> {
    let zeros = d.below(30);
    (0..rows * cols).map(|i| if i / cols < live { d.value(zeros, false) } else { 0.0 }).collect()
}

/// Each workload shape's forward `X·W`, data gradient `dH·Wᵀ` and weight
/// gradient `Xᵀ·dH`; every other shape's left operand (and `dH`) is zero
/// past 250 seed rows, a count that ends mid-block.
#[test]
fn workload_gemms_are_the_reference_loop() {
    for (ci, &(v, f, n)) in WORKLOAD.iter().enumerate() {
        let mut d = Draws(0x5EED << 32 | ci as u64);
        let live = if ci % 2 == 1 { 250 } else { v };
        let x = seeded(&mut d, v, f, live);
        let w = seeded(&mut d, f, n, f);
        let dh = seeded(&mut d, v, n, live);
        check(&x, false, &w, false, v, f, n, &format!("X·W v={v} f={f} n={n} live={live}"));
        check(&dh, false, &w, true, v, n, f, &format!("dH·Wᵀ v={v} f={f} n={n} live={live}"));
        check(&x, true, &dh, false, f, v, n, &format!("Xᵀ·dH v={v} f={f} n={n} live={live}"));
    }
}

/// The index of the first event the recorder saw, when it is compiled in.
fn first_event(rec: &str) -> Option<u64> {
    let at = rec.find("conversion_index: ")? + "conversion_index: ".len();
    rec[at..].split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// Only row 37 of 50 overflows, in the third row block: its first event's
/// index counts every earlier block's narrowings.
#[test]
fn an_overflow_in_a_later_row_block_keeps_its_index() {
    let (m, k, n) = (50, 8, 20);
    let a: Vec<f32> = (0..m * k).map(|i| if i / k == 37 { 100.0 } else { 1.0 }).collect();
    let b = vec![100.0f32; k * n];
    check(&a, false, &b, false, m, k, n, "overflow in row 37");
    let (ah, bh) = (f32_slice_to_half(&a), f32_slice_to_half(&b));
    let dev = DeviceConfig::a100_like();
    let (out, rec) = recorded(|| Ops::new(&dev).gemm(&ah, false, &bh, false, m, k, n));
    assert!(out[37 * n..38 * n].iter().all(|h| h.is_infinite()), "row 37 must overflow");
    assert!(out.iter().filter(|h| h.is_infinite()).count() == n, "and no other row");
    if recorder_on() {
        assert_eq!(first_event(&rec), Some(37 * n as u64), "{rec}");
    }
}

/// An Inf or NaN only in the last row block (of A, or of op(B) for a
/// weight gradient), after blocks whose outputs overflow: the fallback
/// must start before any block is narrowed, or the record would count
/// those blocks twice.
#[test]
fn a_non_finite_last_block_falls_back_before_narrowing() {
    let (m, k, n) = (40, 8, 20);
    for bad in [f32::INFINITY, f32::NAN] {
        let mut a: Vec<f32> = (0..m * k).map(|i| if i / k < 2 { 100.0 } else { 0.5 }).collect();
        a[39 * k + 3] = bad;
        let b = vec![100.0f32; k * n];
        check(&a, false, &b, false, m, k, n, &format!("{bad} in A's last block"));
        let (ah, bh) = (f32_slice_to_half(&a), f32_slice_to_half(&b));
        let dev = DeviceConfig::a100_like();
        let (_, rec) = recorded(|| Ops::new(&dev).gemm(&ah, false, &bh, false, m, k, n));
        if recorder_on() {
            assert!(rec.contains(&format!("conversions: {}", m * n)), "{rec}");
            assert_eq!(first_event(&rec), Some(0), "{rec}");
        }
        // Aᵀ·B with op(B) `m × n`, the bad value in its last row.
        let at: Vec<f32> = (0..m * k).map(|i| if i % k < 2 { 100.0 } else { 0.5 }).collect();
        let mut bt = vec![100.0f32; m * n];
        bt[(m - 1) * n + 5] = bad;
        check(&at, true, &bt, false, k, m, n, &format!("{bad} in op(B)'s last row"));
    }
}

/// A half GEMM whose output overflows when narrowed: the first event's
/// index and the counts are the reference's.
#[test]
fn the_narrowing_record_is_the_references() {
    let (m, k, n) = (9, 40, 17);
    let mut d = Draws(77);
    let a: Vec<f32> = (0..m * k).map(|_| 60.0 + 20.0 * d.unit()).collect();
    let b: Vec<f32> = (0..k * n).map(|i| if i % 7 == 0 { 200.0 } else { d.unit() }).collect();
    check(&a, false, &b, false, m, k, n, "overflowing outputs");
    let ah = f32_slice_to_half(&a);
    let bh = f32_slice_to_half(&b);
    let dev = DeviceConfig::a100_like();
    let (out, rec) = recorded(|| Ops::new(&dev).gemm(&ah, false, &bh, false, m, k, n));
    assert!(out.iter().any(|h| h.is_infinite()), "the case must overflow");
    if recorder_on() {
        assert!(rec.contains("kind: Overflow") && rec.contains("site: \"gemm\""), "{rec}");
    } else {
        assert_eq!(rec, format!("{:?}", Summary::default()));
    }
}

/// A finite factor: ±0, tiny values whose products underflow to a signed
/// zero, small integers (whose sums cancel exactly) and ordinary values.
fn factor() -> impl Strategy<Value = f32> {
    (0u32..6, -4.0f32..4.0, -8i32..8).prop_map(|(kind, x, i)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 1e-30 * x.signum(),
        3 => f32::from_bits(1) * x.signum(),
        4 => i as f32,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The rule the zero skips rest on: an accumulator that starts at +0
    /// and adds finite products (±0 ones, exact cancellations and
    /// underflows included), `mul` then `add`, is never −0.
    #[test]
    fn a_sum_of_finite_products_from_plus_zero_is_never_minus_zero(
        terms in proptest::collection::vec((factor(), factor()), 0..24),
        cancel in 0u8..2,
    ) {
        let mut acc = 0.0f32;
        let mut seen = Vec::new();
        for &(a, b) in &terms {
            acc += a * b;
            seen.push(acc);
        }
        if cancel == 1 {
            // Take every product back out, in reverse: wherever the sum
            // cancels exactly, it lands on zero.
            for &(a, b) in terms.iter().rev() {
                acc += (-a) * b;
                seen.push(acc);
            }
        }
        for v in seen {
            prop_assert!(v.to_bits() != (-0.0f32).to_bits(), "−0 after {terms:?}");
        }
    }
}
