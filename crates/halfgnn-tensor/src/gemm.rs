//! The dense GEMM behind [`Ops::gemm`](crate::Ops::gemm):
//! `C = op(A)·op(B)` in `f32`, every output summing its `k` products in
//! ascending `l` from +0, each an `f32` `mul` then `add`, skipping `l`
//! where `op(A)[i][l]` is ±0, then rounded into the element type.
//!
//! [`matmul`] is that loop as written: the reference, and what runs when
//! either operand holds an Inf or NaN. One pass over both operands decides
//! that before any output is narrowed, so the conversion record counts
//! every output once. With finite operands [`gemm`] may add a product with
//! a zero factor, or skip it, without changing an output bit:
//!
//! * an accumulator that starts at +0 is never −0: under round-to-nearest
//!   `x + y` is −0 only when both are −0, an exact cancellation gives +0,
//!   and a nonzero sum never rounds to zero (gradual underflow);
//! * a product with a zero factor and a finite other factor is ±0, and
//!   adding ±0 to anything but −0 returns its bits.
//!
//! So [`gemm`] multiplies through op(A)'s zero entries inside the
//! register-tiled [`halfgnn_half::slice::gemm_tile`], and skips only whole
//! zero rows. It runs on the calling thread and allocates no `m×n` `f32`
//! buffer beyond a weight-sized one:
//!
//! * `A·op(B)`: op(B), a weight matrix, is widened whole; A's rows are
//!   widened [`BLOCK_ROWS`] at a time, their outputs computed into a
//!   block-sized scratch and narrowed straight into the output. A block
//!   whose rows of A are all ±0 (a mini-batch loss gradient past its seed
//!   rows) skips the tile; its +0 outputs are still narrowed, and counted.
//!   With a single output column (`z·a`, GAT's score projections) each
//!   output is one chain of `k` adds, so [`halfgnn_half::slice::gemm_col`]
//!   runs the block eight outputs per vector instead.
//! * `Aᵀ·B` (a weight gradient, `k` a vertex count): op(B)'s all-zero rows
//!   are skipped with A's matching rows, the live rows widened [`PANEL`] at
//!   a time with those rows of A and accumulated into the weight-sized
//!   `m×n` output, which is narrowed once at the end. With a single output
//!   column (`zᵀ·δs`) the `m` outputs are one row: A's rows weighted by b.

use halfgnn_half::slice::{gemm_col, gemm_tile};
use halfgnn_half::Scalar;
use rayon::prelude::*;

/// Rows of A one `A·op(B)` block widens and narrows: four register blocks
/// of [`gemm_tile`], two vectors of [`gemm_col`].
const BLOCK_ROWS: usize = 16;

/// Live rows of op(B), with A's matching rows, one `Aᵀ·B` panel widens.
const PANEL: usize = 128;

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
    let mut out = vec![T::ZERO; m * n];
    if !(all_finite(a) && all_finite(b)) {
        T::narrow_into(&matmul(&widen(a), ta, &widen(b), tb, m, k, n), &mut out);
        return out;
    }
    if out.is_empty() {
        return out;
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
    if ta {
        by_columns(a, b, m, k, n, &mut out);
    } else {
        by_rows(a, b, k, n, &mut out);
    }
    out
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

/// Whether every entry of `xs` is ±0, tested on the bits a run of 64 at
/// a time.
fn all_zero<T: Scalar>(xs: &[T]) -> bool {
    xs.chunks(64).all(|run| run.iter().fold(0, |bits, v| bits | v.bits()) & magnitude::<T>() == 0)
}

fn all_finite<T: Scalar>(xs: &[T]) -> bool {
    xs.iter().fold(true, |finite, v| finite & v.is_finite())
}

/// op(A) = A (`m×k`), finite, and `n > 0`: see the module docs.
fn by_rows<T: Scalar>(a: &[T], b: &[T], k: usize, n: usize, out: &mut [T]) {
    let mut bw = vec![0f32; k * n];
    T::widen_into(b, &mut bw);
    let mut aw = vec![0f32; BLOCK_ROWS * k];
    let mut cw = vec![0f32; BLOCK_ROWS * n];
    for (blk, o) in out.chunks_mut(BLOCK_ROWS * n).enumerate() {
        let h = o.len() / n;
        let rows = &a[blk * BLOCK_ROWS * k..][..h * k];
        let (aw, cw) = (&mut aw[..h * k], &mut cw[..h * n]);
        cw.fill(0.0);
        if !all_zero(rows) {
            T::widen_into(rows, aw);
            if n == 1 {
                gemm_col(aw, &bw, cw);
            } else {
                gemm_tile(aw, (k, 1), &bw, n, cw);
            }
        }
        T::narrow_into(cw, o);
    }
}

/// op(A) = Aᵀ, A stored `k×m`, finite, and `m, n > 0`: see the module
/// docs.
fn by_columns<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize, out: &mut [T]) {
    let live: Vec<usize> = (0..k).filter(|&l| !all_zero(&b[l * n..(l + 1) * n])).collect();
    let mut c = vec![0f32; m * n];
    let mut ap = vec![0f32; PANEL * m];
    let mut bp = vec![0f32; PANEL * n];
    for panel in live.chunks(PANEL) {
        // Each run of consecutive live rows is widened in one call.
        let mut r = 0;
        for run in panel.chunk_by(|&x, &y| y == x + 1) {
            let (l, h) = (run[0], run.len());
            T::widen_into(&a[l * m..(l + h) * m], &mut ap[r * m..(r + h) * m]);
            T::widen_into(&b[l * n..(l + h) * n], &mut bp[r * n..(r + h) * n]);
            r += h;
        }
        let (ap, bp) = (&ap[..r * m], &bp[..r * n]);
        if n == 1 {
            gemm_tile(bp, (0, 1), ap, m, &mut c);
        } else {
            gemm_tile(ap, (1, m), bp, n, &mut c);
        }
    }
    T::narrow_into(&c, out);
}

/// A `rows × cols` row-major matrix laid out `cols × rows`.
fn transposed<T: Copy>(x: &[T], rows: usize, cols: usize) -> Vec<T> {
    (0..rows * cols).map(|i| x[(i % rows) * cols + i / rows]).collect()
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
        assert!(all_zero(&[0.0f32, -0.0]) && !all_zero(&[-0.0, f32::from_bits(1)]));
        assert!(all_zero(&[Half::ZERO; 200]) && all_zero(&[Half::NEG_ZERO]));
        let mut late = [Half::ZERO; 130];
        late[129] = Half::MIN_POSITIVE_SUBNORMAL;
        assert!(!all_zero(&late) && !all_zero(&[Half::NAN]));
        assert!(all_finite(&[Half::MAX, Half::NEG_ZERO]) && !all_finite(&[Half::NAN]));
    }

    #[test]
    fn empty_shapes_give_zeros() {
        assert_eq!(gemm::<f32>(&[], false, &[], false, 2, 0, 3), vec![0.0; 6]);
        assert!(gemm::<Half>(&[], false, &[], true, 0, 0, 4).is_empty());
    }
}
