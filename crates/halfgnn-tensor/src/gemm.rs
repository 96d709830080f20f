//! The dense GEMM behind [`Ops::gemm`](crate::Ops::gemm):
//! `C = op(A)·op(B)` in `f32`, every output summing its `k` products in
//! ascending `l` from +0, each an `f32` `mul` then `add`, skipping `l`
//! where `op(A)[i][l]` is ±0.
//!
//! [`matmul`] is that loop as written: the reference, and what runs when
//! either operand holds an Inf or NaN. Otherwise [`gemm`] skips every
//! product with a zero factor, which changes no output bit when A and B
//! are finite:
//!
//! * an accumulator that starts at +0 is never −0: under round-to-nearest
//!   `x + y` is −0 only when both are −0, an exact cancellation gives +0,
//!   and a nonzero sum never rounds to zero (gradual underflow);
//! * a product with a zero factor and a finite other factor is ±0, and
//!   adding ±0 to anything but −0 returns its bits, Inf and NaN included.
//!
//! So [`gemm`] skips op(A)'s zero entries and, for `Aᵀ·B` (a weight
//! gradient), op(B)'s all-zero rows with A's matching rows, and adds each
//! output row's remaining products through the register-blocked row kernel
//! [`halfgnn_half::slice::gemm_row`]. It widens only the operand rows it
//! reads, a panel at a time, so no call allocates an operand-sized buffer.
//! With a non-finite operand the skips would drop `0·Inf = NaN` terms, so
//! that case runs [`matmul`] unchanged.
//!
//! A single output column (`n = 1`, GAT's score projections `z·a` and
//! their gradients `zᵀ·δs`) makes each output one chain of `k` adds, so
//! eight outputs share a vector instead: `A·b` runs 8-row panels of A
//! through [`halfgnn_half::slice::gemm_col`], and `Aᵀ·b`, whose eight
//! outputs sit side by side in each row of A, is one output row of
//! [`gemm_row`] weighting A's rows by b. By the same rule, adding a zero
//! product to any of these chains changes no bit.

use halfgnn_half::slice::{gemm_col, gemm_row};
use halfgnn_half::Scalar;
use rayon::pool::default_threads;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Nonzero products one [`gemm_row`] call takes, and the rows of op(B)
/// one panel widens.
const PAIRS: usize = 128;

/// `C[m×n] ← op(A)[m×k] · op(B)[k×n]`, rounded into `T`: [`matmul`]'s
/// bits on the widened operands, with its conversion record.
pub(crate) fn gemm<T: Scalar>(
    a: &[T],
    ta: bool,
    b: &[T],
    tb: bool,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<T> {
    let c = zero_aware(a, ta, b, tb, m, k, n)
        .unwrap_or_else(|| matmul(&widen(a), ta, &widen(b), tb, m, k, n));
    // Narrowed on the calling thread, whose overflow window sees every
    // conversion; pool workers have none.
    T::narrow(c)
}

fn widen<T: Scalar>(x: &[T]) -> Vec<f32> {
    let mut out = vec![0.0; x.len()];
    T::widen_into(x, &mut out);
    out
}

/// Every bit of a `T` but its sign.
pub(crate) fn magnitude<T: Scalar>() -> u32 {
    if T::HALF {
        0x7FFF
    } else {
        0x7FFF_FFFF
    }
}

/// ±0, tested on the bits.
fn is_zero<T: Scalar>(v: T) -> bool {
    v.bits() & magnitude::<T>() == 0
}

fn all_finite<T: Scalar>(xs: &[T]) -> bool {
    xs.iter().fold(true, |finite, v| finite & v.is_finite())
}

/// [`matmul`]'s result with every zero product skipped, or `None` when an
/// operand holds an Inf or NaN.
fn zero_aware<T: Scalar>(
    a: &[T],
    ta: bool,
    b: &[T],
    tb: bool,
    m: usize,
    k: usize,
    n: usize,
) -> Option<Vec<f32>> {
    let mut c = vec![0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return Some(c);
    }
    // op(B) row-major: a transposed B is a weight matrix here, so the copy
    // is small.
    let bt: Vec<T>;
    let b = if tb {
        bt = transposed(b, n, k);
        &bt
    } else {
        b
    };
    let finite = match (ta, n) {
        (true, 1) => column_by_rows(a, b, m, k, &mut c),
        (false, 1) => column_by_panels(a, b, k, &mut c),
        (true, _) => by_columns(a, b, m, k, n, &mut c),
        (false, _) => by_rows(a, b, k, n, &mut c),
    };
    finite.then_some(c)
}

/// Rows of op(A) = A (`m×k`) widened a panel at a time, for
/// [`column_by_panels`]: eight per [`gemm_col`] vector.
const PANEL_ROWS: usize = 64;

/// `A·b` with one output column: each panel of [`PANEL_ROWS`] rows of A is
/// widened and its outputs run through [`gemm_col`], eight per vector.
fn column_by_panels<T: Scalar>(a: &[T], b: &[T], k: usize, c: &mut [f32]) -> bool {
    let mut bw = vec![0f32; k];
    if !T::widen_into(b, &mut bw) {
        return false;
    }
    let nonfinite = AtomicBool::new(false);
    c.par_chunks_mut(PANEL_ROWS).enumerate().for_each(|(p, out)| {
        let rows = &a[p * PANEL_ROWS * k..][..out.len() * k];
        let mut aw = vec![0f32; rows.len()];
        if !T::widen_into(rows, &mut aw) {
            nonfinite.store(true, Ordering::Relaxed);
            return;
        }
        gemm_col(&aw, &bw, out);
    });
    !nonfinite.load(Ordering::Relaxed)
}

/// `Aᵀ·b` with one output column, A stored `k×m`: the `m` outputs are one
/// row, A's rows weighted by b's nonzero entries through [`gemm_row`],
/// [`PAIRS`] widened rows at a time. A's rows facing a zero of b are
/// skipped, but must be finite, as in [`by_columns`].
fn column_by_rows<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, c: &mut [f32]) -> bool {
    let mut bw = vec![0f32; k];
    if !T::widen_into(b, &mut bw) {
        return false;
    }
    let mut live = Vec::new();
    for (l, &v) in bw.iter().enumerate() {
        if v != 0.0 {
            live.push((l, v));
        } else if !all_finite(&a[l * m..(l + 1) * m]) {
            return false;
        }
    }
    let mut ap = vec![0f32; PAIRS * m];
    let mut pairs = [(0u32, 0f32); PAIRS];
    for panel in live.chunks(PAIRS) {
        for (r, &(l, v)) in panel.iter().enumerate() {
            if !T::widen_into(&a[l * m..(l + 1) * m], &mut ap[r * m..(r + 1) * m]) {
                return false;
            }
            pairs[r] = (r as u32, v);
        }
        gemm_row(&pairs[..panel.len()], &ap, c);
    }
    true
}

/// op(A) = A (`m×k`): output row `i` is A's row `i` weighting the rows of
/// op(B), which is a weight matrix here and is widened whole. Each A row
/// is widened as its output row is computed, [`PAIRS`] entries at a time;
/// an all-zero run of them is skipped unwidened.
fn by_rows<T: Scalar>(a: &[T], b: &[T], k: usize, n: usize, c: &mut [f32]) -> bool {
    let mut bw = vec![0f32; k * n];
    if !T::widen_into(b, &mut bw) {
        return false;
    }
    let nonfinite = AtomicBool::new(false);
    c.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        let mut vals = [0f32; PAIRS];
        for (q, run) in a[i * k..(i + 1) * k].chunks(PAIRS).enumerate() {
            if run.iter().all(|&v| is_zero(v)) {
                continue;
            }
            let vals = &mut vals[..run.len()];
            if !T::widen_into(run, vals) {
                nonfinite.store(true, Ordering::Relaxed);
                return;
            }
            let base = q * PAIRS;
            accumulate(vals.iter().enumerate().map(|(j, &v)| ((base + j) as u32, v)), &bw, row);
        }
    });
    // The pool's join orders every worker's store before this load.
    !nonfinite.load(Ordering::Relaxed)
}

/// op(A) = Aᵀ, A stored `k×m` (a weight gradient: `k` is a vertex count):
/// output row `i` is A's column `i` weighting the rows of op(B). Only
/// op(B)'s nonzero rows and A's matching rows are read. The output rows
/// split into one block per pool thread; each block widens [`PAIRS`] of
/// those rows of op(B) at a time, with its columns of A's matching rows
/// laid out per output row.
fn by_columns<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize, c: &mut [f32]) -> bool {
    let mut live = Vec::new();
    for l in 0..k {
        if !b[l * n..(l + 1) * n].iter().all(|&v| is_zero(v)) {
            live.push(l);
        } else if !all_finite(&a[l * m..(l + 1) * m]) {
            // Never read, but the reference would have multiplied it.
            return false;
        }
    }
    let block = m.div_ceil(default_threads());
    let nonfinite = AtomicBool::new(false);
    c.par_chunks_mut(block * n).enumerate().for_each(|(blk, cb)| {
        let (i0, h) = (blk * block, cb.len() / n);
        let mut bp = vec![0f32; PAIRS * n];
        let mut ap = vec![0f32; h * PAIRS];
        let mut col = vec![0f32; h];
        for panel in live.chunks(PAIRS) {
            for (r, &l) in panel.iter().enumerate() {
                let brow = &mut bp[r * n..(r + 1) * n];
                if !(T::widen_into(&b[l * n..(l + 1) * n], brow)
                    & T::widen_into(&a[l * m + i0..l * m + i0 + h], &mut col))
                {
                    nonfinite.store(true, Ordering::Relaxed);
                    return;
                }
                for (i, &v) in col.iter().enumerate() {
                    ap[i * PAIRS + r] = v;
                }
            }
            for (arow, crow) in ap.chunks_exact(PAIRS).zip(cb.chunks_exact_mut(n)) {
                let entries = arow[..panel.len()].iter().enumerate();
                accumulate(entries.map(|(r, &v)| (r as u32, v)), &bp, crow);
            }
        }
    });
    !nonfinite.load(Ordering::Relaxed)
}

/// A `rows × cols` row-major matrix laid out `cols × rows`.
fn transposed<T: Copy>(x: &[T], rows: usize, cols: usize) -> Vec<T> {
    (0..rows * cols).map(|i| x[(i % rows) * cols + i / rows]).collect()
}

/// Add `entries`' nonzero products into `row`, in order, [`PAIRS`] at a
/// time.
fn accumulate(entries: impl Iterator<Item = (u32, f32)>, b: &[f32], row: &mut [f32]) {
    let mut pairs = [(0u32, 0f32); PAIRS];
    let mut len = 0;
    for (r, v) in entries {
        pairs[len] = (r, v);
        len += usize::from(v != 0.0);
        if len == PAIRS {
            gemm_row(&pairs, b, row);
            len = 0;
        }
    }
    gemm_row(&pairs[..len], b, row);
}

/// The GEMM loop as written — the reference [`gemm`] must match bit for
/// bit, and what it runs on non-finite operands. Rayon-parallel over
/// output rows and deterministic at any thread count: each worker owns
/// disjoint output rows and the per-row reduction order is fixed.
///
/// A transposed `B` (stored `n×k`) is first laid out row-major `k×n`
/// once per call, so the inner loop streams contiguous rows either way;
/// every output still sums its `k` products in ascending `l`.
pub fn matmul(a: &[f32], ta: bool, b: &[f32], tb: bool, m: usize, k: usize, n: usize) -> Vec<f32> {
    let get_a = |i: usize, l: usize| if ta { a[l * m + i] } else { a[i * k + l] };
    let bt: Vec<f32>;
    let b = if tb {
        bt = transposed(b, n, k);
        &bt
    } else {
        b
    };
    let mut c = vec![0f32; m * n];
    c.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        for l in 0..k {
            let av = get_a(i, l);
            if av == 0.0 {
                continue;
            }
            let brow = &b[l * n..(l + 1) * n];
            for (cv, &bv) in row.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_half::Half;

    #[test]
    fn matmul_hand_checked() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        assert_eq!(matmul(&a, false, &b, false, 2, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
        // Aᵀ stored: columns become rows.
        let at = [1.0, 3.0, 2.0, 4.0];
        assert_eq!(matmul(&at, true, &b, false, 2, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
        // Bᵀ stored.
        let bt = [5.0, 7.0, 6.0, 8.0];
        assert_eq!(matmul(&a, false, &bt, true, 2, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn zero_tests_read_the_bits() {
        assert!(is_zero(0.0f32) && is_zero(-0.0f32) && !is_zero(f32::from_bits(1)));
        assert!(is_zero(Half::ZERO) && is_zero(Half::NEG_ZERO));
        assert!(!is_zero(Half::MIN_POSITIVE_SUBNORMAL) && !is_zero(Half::NAN));
        assert!(all_finite(&[Half::MAX, Half::NEG_ZERO]) && !all_finite(&[Half::NAN]));
    }

    #[test]
    fn empty_shapes_give_zeros() {
        assert_eq!(gemm::<f32>(&[], false, &[], false, 2, 0, 3), vec![0.0; 6]);
        assert!(gemm::<Half>(&[], false, &[], true, 0, 0, 4).is_empty());
    }
}
