//! The row kernels eight lanes at a time, on x86-64 hosts with F16C
//! (hardware binary16 ↔ f32 conversion) and AVX.
//!
//! Each kernel returns `None` without touching its buffers when the host
//! lacks either extension, and the caller runs the per-lane loop instead.
//! A block whose outputs are all finite equals the per-lane loop's bit for
//! bit because:
//!
//! * `_mm256_cvtps_ph` with round-to-nearest-even equals
//!   [`Half::from_f32_raw`] on all 2^32 `f32` patterns (the ignored full
//!   sweep in `tests/exhaustive_f16.rs` re-checks it);
//! * `_mm256_cvtph_ps` equals [`Half::to_f32`] on every pattern except the
//!   1,022 signaling NaNs, which the hardware quiets;
//! * the arithmetic is vector `f32` `add`, `sub`, `mul` and `div`, never
//!   FMA, each correctly rounded as its scalar form is, so every step
//!   rounds where the scalar intrinsics round.
//!
//! A block that meets an Inf or NaN anywhere (an input, an intermediate
//! rounding or an output) is recomputed by the per-lane loop, which
//! produces the scalar NaN payloads and records each of its conversions
//! itself. IEEE `mul` and `add` return a non-finite result whenever an
//! operand is non-finite, so a non-finite input or intermediate always
//! reaches the block's output: the output's exponent fields alone decide.
//! A clean block converts only to finite halves, so its conversions are
//! added to the overflow window as one count; that count is flushed
//! before any per-lane block runs, so the window's event index stays
//! exact.
//!
//! Four kernels run other shapes on the same blocks. [`dot_half2_trees`]
//! puts one SDDMM edge in each lane: every lane runs its edge's stripe
//! accumulation, shuffle tree and fold, so a block of eight finite results
//! is the per-edge loop's. [`chains`] puts one `hadd` chain in each lane
//! (an 8×8 transpose feeds each lane its own segment's next value, and a
//! lane past its segment's end adds +0, which changes no chain: one that
//! starts at +0 is never −0); a chain whose result is finite was finite at
//! every step, since an Inf or NaN stays non-finite under `add`, so clean
//! chains are counted in segment order and any other chain is recomputed
//! by its per-lane loop. [`gemm_tile`] is `f32` only (no conversion, no
//! record): it holds four output rows by sixteen columns in registers, the
//! last one to fifteen columns under lane masks, and each step loads one
//! row of `B` and adds it, weighted by each row's entry of A, `mul` then
//! `add`, into all four rows, so every output sums in ascending step
//! order, the scalar loop's; [`gemm_col`] (`f32` only too) runs eight
//! single-column outputs, one per lane, each in ascending `l`.
//!
//! The attention rows take three more rules. A LeakyReLU lane computes
//! both the sum and its slope product and keeps one (a blend), so only the
//! kept value's conversions are counted. The running row max folds a clean
//! block's finite scores in at once (a max of finite values is exact), and
//! a running max already at +Inf sends the block to the per-lane loop,
//! whose `hmax` conversions are then non-finite. The shifted exponent
//! calls `f32::exp` per lane on the rounded argument: the function the
//! per-lane loop calls, on the same input.

use super::lanes;
use crate::f16::Half;
use crate::overflow;
use std::arch::x86_64::*;

/// Lanes per block: one `__m256` of `f32`, one `__m128i` of halves.
const LANES: usize = 8;

/// Output rows one [`gemm_tile`] register block holds, each in two
/// `__m256` (sixteen columns): eight accumulators.
const TILE_ROWS: usize = 4;

/// SDDMM accumulators per edge: two halves for each of up to 32 threads.
const DOT_SLOTS: usize = 64;

fn available() -> bool {
    is_x86_feature_detected!("avx") && is_x86_feature_detected!("f16c")
}

/// The safe entry points: run the `#[target_feature]` body only after the
/// run-time check, and return its result, or `None` when it could not run.
macro_rules! entry_points {
    ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? => $body:ident;)*) => {$(
        #[allow(clippy::too_many_arguments)]
        pub(super) fn $name($($arg: $ty),*) -> Option<entry_points!(@ret $($ret)?)> {
            if !available() {
                return None;
            }
            // SAFETY: the body only needs AVX and F16C, and both were
            // detected on this host just above.
            Some(unsafe { $body($($arg),*) })
        }
    )*};
    (@ret) => { () };
    (@ret $ret:ty) => { $ret };
}

entry_points! {
    narrow(src: &[f32], dst: &mut [Half]) => narrow_avx;
    widen(src: &[Half], dst: &mut [f32]) -> bool => widen_avx;
    fma_row(acc: &mut [Half], w: Half, x: &[Half]) => fma_row_avx;
    scale_row(v: &mut [Half], s: Half) => scale_row_avx;
    add_row(acc: &mut [Half], x: &[Half]) => add_row_avx;
    axpby(a: Half, x: &[Half], b: Half, y: &[Half], out: &mut [Half]) => axpby_avx;
    gemm_col(a: &[f32], x: &[f32], out: &mut [f32]) => gemm_col_avx;
    dot_half2_trees(
        u: &[Half], rows: &[u32], v: &[Half], cols: &[u32],
        f: usize, threads: usize, lanes: usize, out: &mut [Half]
    ) => dot_half2_trees_avx;
    leaky_scores(s: Half, s_col: &[Half], cols: &[u32], slope: Half, e: &mut [Half]) -> Half
        => leaky_scores_avx;
    exp_shifted(e: &[Half], m: Half, out: &mut [Half]) => exp_shifted_avx;
    div_row(v: &mut [Half], z: Half) => div_row_avx;
    softmax_grad_row(
        alpha: &[Half], dalpha: &[Half], e: &[Half], t: Half, slope: Half, de: &mut [Half]
    ) => softmax_grad_row_avx;
    chains(x: &[Half], y: Option<&[Half]>, off: &[usize], out: &mut [Half]) => chains_avx;
}

/// Conversions of clean blocks not yet added to the overflow window.
struct Pending(u64);

impl Pending {
    fn flush(&mut self) {
        overflow::count_clean(std::mem::take(&mut self.0));
    }
}

#[target_feature(enable = "avx,f16c")]
fn narrow_avx(src: &[f32], dst: &mut [Half]) {
    let mut pending = Pending(0);
    for (s, d) in src.chunks(LANES).zip(dst.chunks_mut(LANES)) {
        let h = to_half(load_f32(s));
        if nonfinite(h) {
            pending.flush();
            lanes::narrow(s, d);
        } else {
            store(d, h);
            pending.0 += d.len() as u64;
        }
    }
    pending.flush();
}

#[target_feature(enable = "avx,f16c")]
fn widen_avx(src: &[Half], dst: &mut [f32]) -> bool {
    let mut finite = true;
    for (s, d) in src.chunks(LANES).zip(dst.chunks_mut(LANES)) {
        let h = load(s);
        // Signaling NaNs widen differently in hardware; the per-lane loop
        // keeps the software payloads for every non-finite block.
        if nonfinite(h) {
            finite = false;
            lanes::widen(s, d);
        } else {
            store_f32(d, to_f32(h));
        }
    }
    finite
}

#[target_feature(enable = "avx,f16c")]
fn fma_row_avx(acc: &mut [Half], w: Half, x: &[Half]) {
    let wv = _mm256_set1_ps(w.to_f32());
    let mut pending = Pending(0);
    for (a, x) in acc.chunks_mut(LANES).zip(x.chunks(LANES)) {
        let (av, xv) = (load(a), load(x));
        let p = to_half(_mm256_mul_ps(wv, to_f32(xv)));
        let r = to_half(_mm256_add_ps(to_f32(av), to_f32(p)));
        if nonfinite(r) {
            pending.flush();
            lanes::fma_row(a, w, x);
        } else {
            store(a, r);
            pending.0 += 2 * a.len() as u64;
        }
    }
    pending.flush();
}

#[target_feature(enable = "avx,f16c")]
fn scale_row_avx(v: &mut [Half], s: Half) {
    let sv = _mm256_set1_ps(s.to_f32());
    let mut pending = Pending(0);
    for a in v.chunks_mut(LANES) {
        let av = load(a);
        let r = to_half(_mm256_mul_ps(to_f32(av), sv));
        if nonfinite(r) {
            pending.flush();
            lanes::scale_row(a, s);
        } else {
            store(a, r);
            pending.0 += a.len() as u64;
        }
    }
    pending.flush();
}

#[target_feature(enable = "avx,f16c")]
fn add_row_avx(acc: &mut [Half], x: &[Half]) {
    let mut pending = Pending(0);
    for (a, x) in acc.chunks_mut(LANES).zip(x.chunks(LANES)) {
        let (av, xv) = (load(a), load(x));
        let r = to_half(_mm256_add_ps(to_f32(av), to_f32(xv)));
        if nonfinite(r) {
            pending.flush();
            lanes::add_row(a, x);
        } else {
            store(a, r);
            pending.0 += a.len() as u64;
        }
    }
    pending.flush();
}

#[target_feature(enable = "avx,f16c")]
fn axpby_avx(a: Half, x: &[Half], b: Half, y: &[Half], out: &mut [Half]) {
    let (av, bv) = (_mm256_set1_ps(a.to_f32()), _mm256_set1_ps(b.to_f32()));
    let mut pending = Pending(0);
    for ((o, x), y) in out.chunks_mut(LANES).zip(x.chunks(LANES)).zip(y.chunks(LANES)) {
        let (xv, yv) = (load(x), load(y));
        let ax = to_half(_mm256_mul_ps(av, to_f32(xv)));
        let by = to_half(_mm256_mul_ps(bv, to_f32(yv)));
        let r = to_half(_mm256_add_ps(to_f32(ax), to_f32(by)));
        if nonfinite(r) {
            pending.flush();
            lanes::axpby(a, x, b, y, o);
        } else {
            store(o, r);
            pending.0 += 3 * o.len() as u64;
        }
    }
    pending.flush();
}

/// [`super::gemm_tile`] on register blocks of up to [`TILE_ROWS`] rows,
/// or `None` without touching `out` when the host lacks AVX or F16C.
///
/// # Safety
///
/// `n > 0`; `out` and `b` hold whole rows of `n`, at least one each (`rows`
/// and `k` of them); `a` holds entry `(rows − 1)·rs + (k − 1)·ps`. These
/// bound every entry the register blocks read and write.
pub(super) unsafe fn gemm_tile(
    a: &[f32],
    strides: (usize, usize),
    b: &[f32],
    n: usize,
    out: &mut [f32],
) -> Option<()> {
    if !available() {
        return None;
    }
    // SAFETY: AVX and F16C were detected just above; the shapes are the
    // caller's to guarantee.
    unsafe { gemm_tile_avx(a, strides, b, n, out) };
    Some(())
}

/// # Safety
///
/// As for [`gemm_tile`].
#[target_feature(enable = "avx,f16c")]
unsafe fn gemm_tile_avx(a: &[f32], strides: (usize, usize), b: &[f32], n: usize, out: &mut [f32]) {
    let k = b.len() / n;
    for (t, o) in out.chunks_mut(TILE_ROWS * n).enumerate() {
        let rows = o.len() / n;
        // SAFETY: block `t`'s rows of A start at row `t·TILE_ROWS`, whose
        // entries lie inside `a` for every step; `o` holds the block's
        // output rows and `b` all `k` of its rows.
        unsafe {
            let (a, b, o) = (a.as_ptr().add(t * TILE_ROWS * strides.0), b.as_ptr(), o.as_mut_ptr());
            match rows {
                1 => tile_cols::<1>(a, strides, b, n, k, o),
                2 => tile_cols::<2>(a, strides, b, n, k, o),
                3 => tile_cols::<3>(a, strides, b, n, k, o),
                _ => tile_cols::<4>(a, strides, b, n, k, o),
            }
        }
    }
}

/// `R` output rows of [`gemm_tile`], sixteen columns at a time, the last
/// one to fifteen under lane masks.
///
/// # Safety
///
/// `out` points at `R` rows of `n`, `b` at `k` rows of `n`, and `a` at a
/// matrix holding entry `(R − 1)·rs + (k − 1)·ps`.
#[target_feature(enable = "avx,f16c")]
#[inline]
unsafe fn tile_cols<const R: usize>(
    a: *const f32,
    strides: (usize, usize),
    b: *const f32,
    n: usize,
    k: usize,
    out: *mut f32,
) {
    let mut c0 = 0;
    // SAFETY (for every call below): columns `c0..c0 + 16`, or the masked
    // tail's, lie inside every row of `b` and `out`.
    while c0 + 2 * LANES <= n {
        unsafe { tile::<R, 2, false>(a, strides, b.add(c0), n, k, lane_mask(LANES), out.add(c0)) };
        c0 += 2 * LANES;
    }
    let (b, out) = unsafe { (b.add(c0), out.add(c0)) };
    match n - c0 {
        0 => {}
        w @ 1..=LANES => unsafe { tile::<R, 1, true>(a, strides, b, n, k, lane_mask(w), out) },
        w => unsafe { tile::<R, 2, true>(a, strides, b, n, k, lane_mask(w - LANES), out) },
    }
}

/// `8V` columns of `R` output rows, held in `R × V` registers across
/// every step: each step loads its row of `b` once and adds it, weighted,
/// into all `R` rows (`mul`, then `add`). When `MASKED`, the last register
/// covers only the mask's lanes; the rest are neither read nor written.
///
/// # Safety
///
/// `out` points at `R` rows and `b` at `k` rows, each `n` apart, whose
/// `8V` columns (the last register's under the mask) lie inside them; `a`
/// holds entry `(R − 1)·rs + (k − 1)·ps`.
#[target_feature(enable = "avx,f16c")]
#[inline]
unsafe fn tile<const R: usize, const V: usize, const MASKED: bool>(
    a: *const f32,
    (rs, ps): (usize, usize),
    b: *const f32,
    n: usize,
    k: usize,
    mask: __m256i,
    out: *mut f32,
) {
    // SAFETY: register `q` of a row the caller vouches for.
    let load = |row: *const f32, q: usize| unsafe {
        if q + 1 < V || !MASKED {
            _mm256_loadu_ps(row.add(LANES * q))
        } else {
            _mm256_maskload_ps(row.add(LANES * q), mask)
        }
    };
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    for (r, acc) in acc.iter_mut().enumerate() {
        for (q, v) in acc.iter_mut().enumerate() {
            *v = load(unsafe { out.add(r * n) }, q);
        }
    }
    for p in 0..k {
        let bv: [__m256; V] = std::array::from_fn(|q| load(unsafe { b.add(p * n) }, q));
        for (r, acc) in acc.iter_mut().enumerate() {
            // SAFETY: `r < R` and `p < k`.
            let av = _mm256_set1_ps(unsafe { *a.add(r * rs + p * ps) });
            for (v, &bq) in acc.iter_mut().zip(&bv) {
                *v = _mm256_add_ps(*v, _mm256_mul_ps(av, bq));
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (q, &v) in acc.iter().enumerate() {
            // SAFETY: as for the loads, into `out`.
            unsafe {
                let at = out.add(r * n + LANES * q);
                if q + 1 < V || !MASKED {
                    _mm256_storeu_ps(at, v);
                } else {
                    _mm256_maskstore_ps(at, mask, v);
                }
            }
        }
    }
}

#[target_feature(enable = "avx,f16c")]
fn leaky_scores_avx(s: Half, s_col: &[Half], cols: &[u32], slope: Half, e: &mut [Half]) -> Half {
    let (sv, kv) = (_mm256_set1_ps(s.to_f32()), _mm256_set1_ps(slope.to_f32()));
    let mut m = Half::NEG_INFINITY;
    let mut pending = Pending(0);
    for (c, o) in cols.chunks(LANES).zip(e.chunks_mut(LANES)) {
        let mut g = [Half::ZERO; LANES];
        for (gq, &cq) in g.iter_mut().zip(c) {
            *gq = s_col[cq as usize];
        }
        let sum = to_half(_mm256_add_ps(sv, to_f32(load(&g))));
        let x = to_f32(sum);
        let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_setzero_ps());
        let v = _mm_blendv_epi8(to_half(_mm256_mul_ps(x, kv)), sum, narrow_mask(ge));
        // A clean block's `hmax` results are finite unless the running max
        // is already +Inf.
        if nonfinite(v) || m == Half::INFINITY {
            pending.flush();
            m = lanes::leaky_scores(m, s, s_col, c, slope, o);
            continue;
        }
        store(o, v);
        let real = (1u32 << o.len()) - 1;
        let kept = (_mm256_movemask_ps(ge) as u32 & real).count_ones() as usize;
        pending.0 += (3 * o.len() - kept) as u64;
        let live = _mm256_castsi256_ps(lane_mask(o.len()));
        let vf = _mm256_blendv_ps(_mm256_set1_ps(f32::NEG_INFINITY), to_f32(v), live);
        m = Half::from_f32_raw(m.to_f32().max(max_lane(vf)));
    }
    pending.flush();
    m
}

#[target_feature(enable = "avx,f16c")]
fn exp_shifted_avx(e: &[Half], m: Half, out: &mut [Half]) {
    let mv = _mm256_set1_ps(m.to_f32());
    let mut pending = Pending(0);
    for (x, o) in e.chunks(LANES).zip(out.chunks_mut(LANES)) {
        let arg = to_half(_mm256_sub_ps(to_f32(load(x)), mv));
        let mut r = arg;
        if !nonfinite(arg) {
            let mut a = [0.0f32; LANES];
            store_f32(&mut a, to_f32(arg));
            for v in &mut a[..o.len()] {
                *v = v.exp();
            }
            r = to_half(load_f32(&a));
        }
        if nonfinite(r) {
            pending.flush();
            lanes::exp_shifted(x, m, o);
        } else {
            store(o, r);
            pending.0 += 2 * o.len() as u64;
        }
    }
    pending.flush();
}

#[target_feature(enable = "avx,f16c")]
fn div_row_avx(v: &mut [Half], z: Half) {
    let zv = _mm256_set1_ps(z.to_f32());
    let mut pending = Pending(0);
    for a in v.chunks_mut(LANES) {
        let r = to_half(_mm256_div_ps(to_f32(load(a)), zv));
        if nonfinite(r) {
            pending.flush();
            lanes::div_row(a, z);
        } else {
            store(a, r);
            pending.0 += a.len() as u64;
        }
    }
    pending.flush();
}

#[target_feature(enable = "avx,f16c")]
fn softmax_grad_row_avx(
    alpha: &[Half],
    dalpha: &[Half],
    e: &[Half],
    t: Half,
    slope: Half,
    de: &mut [Half],
) {
    let (tv, kv) = (_mm256_set1_ps(t.to_f32()), _mm256_set1_ps(slope.to_f32()));
    let mut pending = Pending(0);
    let blocks = alpha.chunks(LANES).zip(dalpha.chunks(LANES)).zip(e.chunks(LANES));
    for (((a, da), ev), o) in blocks.zip(de.chunks_mut(LANES)) {
        let diff = to_half(_mm256_sub_ps(to_f32(load(da)), tv));
        let soft = to_half(_mm256_mul_ps(to_f32(load(a)), to_f32(diff)));
        let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(to_f32(load(ev)), _mm256_setzero_ps());
        let gated = to_half(_mm256_mul_ps(to_f32(soft), kv));
        // A non-finite difference or product reaches both candidates.
        let r = _mm_blendv_epi8(gated, soft, narrow_mask(ge));
        if nonfinite(r) {
            pending.flush();
            lanes::softmax_grad_row(a, da, ev, t, slope, o);
        } else {
            store(o, r);
            let real = (1u32 << o.len()) - 1;
            let kept = (_mm256_movemask_ps(ge) as u32 & real).count_ones() as usize;
            pending.0 += (3 * o.len() - kept) as u64;
        }
    }
    pending.flush();
}

/// [`super::sum_chains`] (`y` is `None`) or [`super::dot_chains`], eight
/// segments at a time, one per lane.
#[target_feature(enable = "avx,f16c")]
fn chains_avx(x: &[Half], y: Option<&[Half]>, off: &[usize], out: &mut [Half]) {
    let per_value = if y.is_some() { 2 } else { 1 };
    let mut pending = Pending(0);
    for (i0, o) in (0..out.len()).step_by(LANES).zip(out.chunks_mut(LANES)) {
        let segs = &off[i0..=i0 + o.len()];
        let longest = segs.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mut acc = _mm256_setzero_ps();
        for j in (0..longest).step_by(LANES) {
            let steps = (longest - j).min(LANES);
            let xs = segment_block(x, segs, j);
            match y {
                None => {
                    for &v in &xs[..steps] {
                        acc = round(_mm256_add_ps(acc, to_f32(v)));
                    }
                }
                Some(y) => {
                    let ys = segment_block(y, segs, j);
                    for (&u, &v) in xs[..steps].iter().zip(&ys) {
                        let p = round(_mm256_mul_ps(to_f32(u), to_f32(v)));
                        acc = round(_mm256_add_ps(acc, p));
                    }
                }
            }
        }
        let mut r = [Half::ZERO; LANES];
        store(&mut r, to_half(acc));
        for ((oq, &rq), w) in o.iter_mut().zip(&r).zip(segs.windows(2)) {
            if rq.is_finite() {
                *oq = rq;
                pending.0 += (per_value * (w[1] - w[0])) as u64;
            } else {
                pending.flush();
                *oq = match y {
                    None => lanes::sum_chain(&x[w[0]..w[1]]),
                    Some(y) => lanes::dot_chain(&x[w[0]..w[1]], &y[w[0]..w[1]]),
                };
            }
        }
    }
    pending.flush();
}

/// Values `j..j + 8` of up to eight segments of `x` (segment `q` is
/// `x[segs[q]..segs[q + 1]]`), value-major: entry `i` holds value `j + i`
/// of every segment, lane `q` from segment `q`. Lanes past a segment's end
/// or past the last segment are +0.
#[target_feature(enable = "avx,f16c")]
fn segment_block(x: &[Half], segs: &[usize], j: usize) -> [__m128i; LANES] {
    let mut r = [_mm_setzero_si128(); LANES];
    for (rq, w) in r.iter_mut().zip(segs.windows(2)) {
        let lo = (w[0] + j).min(w[1]);
        *rq = load(&x[lo..(lo + LANES).min(w[1])]);
    }
    transpose8(r)
}

/// The largest of eight `f32` lanes (none NaN).
#[target_feature(enable = "avx,f16c")]
#[inline]
fn max_lane(v: __m256) -> f32 {
    let m4 = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
    let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    _mm_cvtss_f32(_mm_max_ss(m2, _mm_shuffle_ps::<1>(m2, m2)))
}

/// An eight-lane `f32` comparison mask as eight 16-bit lanes, for a blend
/// of halves.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn narrow_mask(m: __m256) -> __m128i {
    let m = _mm256_castps_si256(m);
    _mm_packs_epi32(_mm256_castsi256_si128(m), _mm256_extractf128_si256::<1>(m))
}

/// Eight outputs of [`gemm_col`] at a time, one per lane: an 8×8 block of
/// their rows of `a`, transposed, feeds each step `l` its eight factors.
/// Padding lanes past the last output are computed and never stored.
#[target_feature(enable = "avx,f16c")]
fn gemm_col_avx(a: &[f32], x: &[f32], out: &mut [f32]) {
    let k = x.len();
    for (p, o) in out.chunks_mut(LANES).enumerate() {
        let rows = &a[p * LANES * k..][..o.len() * k];
        let mut acc = load_f32(o);
        for l in (0..k).step_by(LANES) {
            let w = (k - l).min(LANES);
            let mut r = [_mm256_setzero_ps(); LANES];
            for (rq, row) in r.iter_mut().zip(rows.chunks_exact(k)) {
                *rq = load_f32(&row[l..l + w]);
            }
            for (&col, &xv) in transpose8_f32(r).iter().zip(&x[l..l + w]) {
                acc = _mm256_add_ps(acc, _mm256_mul_ps(col, _mm256_set1_ps(xv)));
            }
        }
        store_f32(o, acc);
    }
}

/// Eight rows of eight `f32`s, column-major: entry `i` holds column `i`,
/// lane `q` from row `q`.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn transpose8_f32(r: [__m256; LANES]) -> [__m256; LANES] {
    // Interleave pairs of rows, then pairs of pairs, then the 128-bit
    // halves.
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// A lane mask selecting the first `t` (zero to eight) of eight lanes.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn lane_mask(t: usize) -> __m256i {
    const ONES_THEN_ZEROS: [i32; 2 * LANES] =
        [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    let m = &ONES_THEN_ZEROS[LANES - t..2 * LANES - t];
    // SAFETY: `m` holds eight `i32`s, the 32 bytes read; `loadu` needs no
    // alignment.
    unsafe { _mm256_loadu_si256(m.as_ptr().cast()) }
}

#[target_feature(enable = "avx,f16c")]
#[allow(clippy::too_many_arguments)]
fn dot_half2_trees_avx(
    u: &[Half],
    rows: &[u32],
    v: &[Half],
    cols: &[u32],
    f: usize,
    threads: usize,
    lanes: usize,
    out: &mut [Half],
) {
    // One conversion per feature (the `hfma2` lanes), two per tree add
    // (`threads − 1` of them) and the final `hadd`.
    let per_edge = f + 2 * (threads - 1) + 1;
    let mut pending = Pending(0);
    let mut e = 0;
    while e + LANES <= out.len() {
        let (rs, cs) = (&rows[e..e + LANES], &cols[e..e + LANES]);
        let mut us = [&u[..0]; LANES];
        let mut vs = [&v[..0]; LANES];
        for q in 0..LANES {
            us[q] = super::feature_row(u, rs[q], f);
            vs[q] = super::feature_row(v, cs[q], f);
        }
        let r = dot_block(&us, &vs, f, threads, lanes);
        let o = &mut out[e..e + LANES];
        if nonfinite(r) {
            pending.flush();
            lanes::dot_half2_trees(u, rs, v, cs, f, threads, lanes, o);
        } else {
            store(o, r);
            pending.0 += (LANES * per_edge) as u64;
        }
        e += LANES;
    }
    pending.flush();
    lanes::dot_half2_trees(u, &rows[e..], v, &cols[e..], f, threads, lanes, &mut out[e..]);
}

/// Eight edges' `dot_half2_tree`s, one per lane. Accumulator slot `2t`
/// (`2t + 1`) is thread `t`'s low (high) half2 lane; a feature at position
/// `p` of its stride window goes to thread `p / lanes`, lane `p % 2`, and
/// features arrive in ascending order, so each slot sums its stripe in the
/// per-edge order. Slots hold `f32`s rounded to half after every step.
#[target_feature(enable = "avx,f16c")]
fn dot_block(
    us: &[&[Half]; LANES],
    vs: &[&[Half]; LANES],
    f: usize,
    threads: usize,
    lanes: usize,
) -> __m128i {
    let (stride, shift) = (threads * lanes, lanes.trailing_zeros());
    let mut acc = [_mm256_setzero_ps(); DOT_SLOTS];
    let mut p = 0;
    let mut x = 0;
    while x < f {
        let w = (f - x).min(LANES);
        let (ut, vt) = (transpose(us, x, w), transpose(vs, x, w));
        for (&uf, &vf) in ut.iter().zip(&vt).take(w) {
            let slot = (p >> shift) << 1 | (p & 1);
            let prod = _mm256_mul_ps(to_f32(uf), to_f32(vf));
            acc[slot] = round(_mm256_add_ps(prod, acc[slot]));
            p += 1;
            if p == stride {
                p = 0;
            }
        }
        x += w;
    }
    let mut width = threads.next_power_of_two();
    while width > 1 {
        width /= 2;
        for t in 0..width {
            if t + width < threads {
                let (lo, hi) = (2 * (t + width), 2 * (t + width) + 1);
                acc[2 * t] = round(_mm256_add_ps(acc[2 * t], acc[lo]));
                acc[2 * t + 1] = round(_mm256_add_ps(acc[2 * t + 1], acc[hi]));
            }
        }
    }
    to_half(_mm256_add_ps(acc[0], acc[1]))
}

/// Features `x..x + w` (`w ≤ 8`) of eight rows, feature-major: entry `i`
/// holds feature `x + i` of every row, lane `q` from row `q`. Lanes past
/// `w` are zero.
#[target_feature(enable = "avx,f16c")]
fn transpose(rows: &[&[Half]; LANES], x: usize, w: usize) -> [__m128i; LANES] {
    let mut r = [_mm_setzero_si128(); LANES];
    for (q, row) in rows.iter().enumerate() {
        r[q] = load(&row[x..x + w]);
    }
    transpose8(r)
}

/// Eight rows of eight halves, column-major: entry `i` holds column `i`,
/// lane `q` from row `q`.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn transpose8(r: [__m128i; LANES]) -> [__m128i; LANES] {
    // Interleave 16-, then 32-, then 64-bit pieces: an 8×8 transpose.
    let a0 = _mm_unpacklo_epi16(r[0], r[1]);
    let a1 = _mm_unpackhi_epi16(r[0], r[1]);
    let a2 = _mm_unpacklo_epi16(r[2], r[3]);
    let a3 = _mm_unpackhi_epi16(r[2], r[3]);
    let a4 = _mm_unpacklo_epi16(r[4], r[5]);
    let a5 = _mm_unpackhi_epi16(r[4], r[5]);
    let a6 = _mm_unpacklo_epi16(r[6], r[7]);
    let a7 = _mm_unpackhi_epi16(r[6], r[7]);
    let b0 = _mm_unpacklo_epi32(a0, a2);
    let b1 = _mm_unpackhi_epi32(a0, a2);
    let b2 = _mm_unpacklo_epi32(a1, a3);
    let b3 = _mm_unpackhi_epi32(a1, a3);
    let b4 = _mm_unpacklo_epi32(a4, a6);
    let b5 = _mm_unpackhi_epi32(a4, a6);
    let b6 = _mm_unpacklo_epi32(a5, a7);
    let b7 = _mm_unpackhi_epi32(a5, a7);
    [
        _mm_unpacklo_epi64(b0, b4),
        _mm_unpackhi_epi64(b0, b4),
        _mm_unpacklo_epi64(b1, b5),
        _mm_unpackhi_epi64(b1, b5),
        _mm_unpacklo_epi64(b2, b6),
        _mm_unpackhi_epi64(b2, b6),
        _mm_unpacklo_epi64(b3, b7),
        _mm_unpackhi_epi64(b3, b7),
    ]
}

/// Eight `f32` lanes rounded to binary16 and widened back: what storing
/// a half and loading it again does to a value.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn round(v: __m256) -> __m256 {
    to_f32(to_half(v))
}

/// Round eight `f32` lanes to binary16, to nearest even.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn to_half(v: __m256) -> __m128i {
    _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v)
}

/// Widen eight binary16 lanes to `f32` (exact).
#[target_feature(enable = "avx,f16c")]
#[inline]
fn to_f32(v: __m128i) -> __m256 {
    _mm256_cvtph_ps(v)
}

/// True when any of the eight halves has the all-ones exponent (Inf or
/// NaN).
#[target_feature(enable = "avx,f16c")]
#[inline]
fn nonfinite(v: __m128i) -> bool {
    let exp = _mm_set1_epi16(0x7C00);
    _mm_movemask_epi8(_mm_cmpeq_epi16(_mm_and_si128(v, exp), exp)) != 0
}

/// Eight halves from a block of at most eight, zero-padded (a padding
/// lane can only send its block down the per-lane path, never into an
/// output).
#[target_feature(enable = "avx,f16c")]
#[inline]
fn load(s: &[Half]) -> __m128i {
    let n = s.len();
    if n == LANES {
        // SAFETY: `s` holds exactly eight halves, the 16 bytes read;
        // `loadu` has no alignment requirement.
        return unsafe { _mm_loadu_si128(s.as_ptr().cast()) };
    }
    // Whole pairs as 32-bit lanes, then an odd last half into its lane.
    // SAFETY: the mask reads the first `n / 2` pairs of `s`, `2·(n / 2) ≤ n`
    // halves.
    let pairs = unsafe { _mm_maskload_ps(s.as_ptr().cast(), pair_mask(n / 2)) };
    let mut v = _mm_castps_si128(pairs);
    if n % 2 == 1 {
        let last = _mm_set1_epi16(s[n - 1].to_bits() as i16);
        v = _mm_or_si128(v, _mm_and_si128(last, _mm_andnot_si128(half_mask(n - 1), half_mask(n))));
    }
    v
}

/// Eight `f32`s from a block of at most eight, zero-padded.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn load_f32(s: &[f32]) -> __m256 {
    if s.len() == LANES {
        // SAFETY: `s` holds exactly eight `f32`s, the 32 bytes read;
        // `loadu` has no alignment requirement.
        return unsafe { _mm256_loadu_ps(s.as_ptr()) };
    }
    // SAFETY: the mask reads the first `s.len()` lanes, all inside `s`.
    unsafe { _mm256_maskload_ps(s.as_ptr(), lane_mask(s.len())) }
}

/// The first `d.len()` (at most eight) lanes of `v` into `d`.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn store(d: &mut [Half], v: __m128i) {
    let n = d.len();
    if n == LANES {
        // SAFETY: `d` holds exactly eight halves, the 16 bytes written;
        // `storeu` has no alignment requirement.
        unsafe { _mm_storeu_si128(d.as_mut_ptr().cast(), v) };
        return;
    }
    // SAFETY: the mask writes the first `n / 2` pairs of `d`.
    unsafe { _mm_maskstore_ps(d.as_mut_ptr().cast(), pair_mask(n / 2), _mm_castsi128_ps(v)) };
    if n % 2 == 1 {
        let mut buf = [Half::ZERO; LANES];
        // SAFETY: as above, into the eight-half `buf`.
        unsafe { _mm_storeu_si128(buf.as_mut_ptr().cast(), v) };
        d[n - 1] = buf[n - 1];
    }
}

/// The first `d.len()` (at most eight) lanes of `v` into `d`.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn store_f32(d: &mut [f32], v: __m256) {
    if d.len() == LANES {
        // SAFETY: `d` holds exactly eight `f32`s, the 32 bytes written;
        // `storeu` has no alignment requirement.
        unsafe { _mm256_storeu_ps(d.as_mut_ptr(), v) };
        return;
    }
    // SAFETY: the mask writes the first `d.len()` lanes, all inside `d`.
    unsafe { _mm256_maskstore_ps(d.as_mut_ptr(), lane_mask(d.len()), v) };
}

/// The first `t` (zero to four) 32-bit lanes of four: whole pairs of a
/// short half block. (A partial block is moved by masked loads and stores:
/// a copy of variable length is a `memcpy` call, which costs more than a
/// short block's arithmetic.)
#[target_feature(enable = "avx,f16c")]
#[inline]
fn pair_mask(t: usize) -> __m128i {
    _mm256_castsi256_si128(lane_mask(t))
}

/// The first `t` (zero to eight) 16-bit lanes of eight.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn half_mask(t: usize) -> __m128i {
    const ONES_THEN_ZEROS: [i16; 2 * LANES] =
        [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    let m = &ONES_THEN_ZEROS[LANES - t..2 * LANES - t];
    // SAFETY: `m` holds eight `i16`s, the 16 bytes read; `loadu` needs no
    // alignment.
    unsafe { _mm_loadu_si128(m.as_ptr().cast()) }
}
