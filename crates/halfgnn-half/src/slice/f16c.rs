//! The row kernels eight lanes at a time, on x86-64 hosts with F16C
//! (hardware binary16 ↔ f32 conversion) and AVX.
//!
//! Each kernel returns `false` without touching its buffers when the host
//! lacks either extension, and the caller runs the per-lane loop instead.
//! A block whose outputs are all finite equals the per-lane loop's bit for
//! bit because:
//!
//! * `_mm256_cvtps_ph` with round-to-nearest-even equals
//!   [`Half::from_f32_raw`] on all 2^32 `f32` patterns (the ignored full
//!   sweep in `tests/exhaustive_f16.rs` re-checks it);
//! * `_mm256_cvtph_ps` equals [`Half::to_f32`] on every pattern except the
//!   1,022 signaling NaNs, which the hardware quiets;
//! * the arithmetic is vector `f32` `mul` and `add`, never FMA, so every
//!   step rounds where the scalar intrinsics round.
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

use super::lanes;
use crate::f16::Half;
use crate::overflow;
use std::arch::x86_64::*;

/// Lanes per block: one `__m256` of `f32`, one `__m128i` of halves.
const LANES: usize = 8;

fn available() -> bool {
    is_x86_feature_detected!("avx") && is_x86_feature_detected!("f16c")
}

/// The safe entry points: run the `#[target_feature]` body only after the
/// run-time check, and report whether it ran.
macro_rules! entry_points {
    ($($name:ident($($arg:ident: $ty:ty),*) => $body:ident;)*) => {$(
        pub(super) fn $name($($arg: $ty),*) -> bool {
            if !available() {
                return false;
            }
            // SAFETY: the body only needs AVX and F16C, and both were
            // detected on this host just above.
            unsafe { $body($($arg),*) };
            true
        }
    )*};
}

entry_points! {
    narrow(src: &[f32], dst: &mut [Half]) => narrow_avx;
    widen(src: &[Half], dst: &mut [f32]) => widen_avx;
    fma_row(acc: &mut [Half], w: Half, x: &[Half]) => fma_row_avx;
    scale_row(v: &mut [Half], s: Half) => scale_row_avx;
    add_row(acc: &mut [Half], x: &[Half]) => add_row_avx;
    axpby(a: Half, x: &[Half], b: Half, y: &[Half], out: &mut [Half]) => axpby_avx;
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
fn widen_avx(src: &[Half], dst: &mut [f32]) {
    for (s, d) in src.chunks(LANES).zip(dst.chunks_mut(LANES)) {
        let h = load(s);
        // Signaling NaNs widen differently in hardware; the per-lane loop
        // keeps the software payloads for every non-finite block.
        if nonfinite(h) {
            lanes::widen(s, d);
        } else {
            store_f32(d, to_f32(h));
        }
    }
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
    let mut buf = [Half::ZERO; LANES];
    let src = if s.len() == LANES {
        s
    } else {
        buf[..s.len()].copy_from_slice(s);
        &buf
    };
    // SAFETY: `src` holds exactly eight halves, the 16 bytes read;
    // `loadu` has no alignment requirement.
    unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
}

/// Eight `f32`s from a block of at most eight, zero-padded.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn load_f32(s: &[f32]) -> __m256 {
    let mut buf = [0.0f32; LANES];
    let src = if s.len() == LANES {
        s
    } else {
        buf[..s.len()].copy_from_slice(s);
        &buf
    };
    // SAFETY: `src` holds exactly eight `f32`s, the 32 bytes read;
    // `loadu` has no alignment requirement.
    unsafe { _mm256_loadu_ps(src.as_ptr()) }
}

/// The first `d.len()` (at most eight) lanes of `v` into `d`.
#[target_feature(enable = "avx,f16c")]
#[inline]
fn store(d: &mut [Half], v: __m128i) {
    if d.len() == LANES {
        // SAFETY: `d` holds exactly eight halves, the 16 bytes written;
        // `storeu` has no alignment requirement.
        unsafe { _mm_storeu_si128(d.as_mut_ptr().cast(), v) };
    } else {
        let mut buf = [Half::ZERO; LANES];
        // SAFETY: as above, into the eight-half `buf`.
        unsafe { _mm_storeu_si128(buf.as_mut_ptr().cast(), v) };
        let n = d.len();
        d.copy_from_slice(&buf[..n]);
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
    } else {
        let mut buf = [0.0f32; LANES];
        // SAFETY: as above, into the eight-lane `buf`.
        unsafe { _mm256_storeu_ps(buf.as_mut_ptr(), v) };
        let n = d.len();
        d.copy_from_slice(&buf[..n]);
    }
}
