//! Slice utilities: alignment-checked vector reinterpretation, bulk
//! conversion, the row kernels, and feature padding.
//!
//! §4.1.2 of the paper: "a simple type-casting of the features tensor to
//! half2 allows us to use the half2 data type for data-loading ... hardware
//! would not allow accessing half2 values whose address is not a multiple of
//! 4 bytes". [`cast_half2`] models exactly that constraint — it returns an
//! error instead of a slice when the length is odd or the base address is
//! misaligned, which is what forces *feature padding* for odd feature
//! lengths (e.g. Reddit's 41 classes).
//!
//! **Row kernels.** [`fma_row`], [`scale_row`], [`add_row`], [`axpby`] and
//! the bulk conversions ([`convert_f32_to_half_into`],
//! [`convert_half_to_f32_into`]) are the per-lane intrinsic sequences the
//! kernels' hot loops repeat over a feature row; [`dot_half2_trees`] is
//! SDDMM's per-edge dot product ([`dot_half2_tree`]) over a tile of edges,
//! [`gemm_tile`] a block of output rows of the dense `f32` GEMM, and
//! [`gemm_col`] its single output column when `n = 1`. The edge softmax of
//! GAT's fused attention runs on five more: [`leaky_scores`] (one row's
//! LeakyReLU scores and their running max), [`exp_shifted`] (the shifted exponents,
//! `f32::exp` per lane on the rounded argument), [`div_row`] (the
//! normalize), [`softmax_grad_row`] (the softmax gradient `δe`), and the
//! sequential `hadd` chains [`sum_chains`] and [`dot_chains`] (row sums,
//! `t_i = Σ α·δα`, edge-reduce segments), each chain in its own order,
//! eight chains to a vector. Each is defined as
//! its per-lane (per-edge, per-product, per-chain) loop, and produces
//! that loop's values and overflow record (`crate::overflow`): every
//! conversion counted, and the first non-finite one reported with its
//! site, index, input and kind. On x86-64 hosts with F16C and AVX
//! (detected at run time) they run eight lanes per step; elsewhere they
//! run the loop itself.

use crate::f16::Half;
use crate::intrinsics::{hadd, hdiv, hexp, hmax, hmul, hsub};
use crate::vec2::Half2;

#[cfg(target_arch = "x86_64")]
mod f16c;

/// Why a vector-type cast of a half slice was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CastError {
    /// Slice length is not a multiple of the vector width.
    Length { len: usize, width: usize },
    /// Base address is not aligned to the vector size in bytes.
    Alignment { addr: usize, required: usize },
}

impl std::fmt::Display for CastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CastError::Length { len, width } => {
                write!(f, "slice length {len} is not a multiple of vector width {width}")
            }
            CastError::Alignment { addr, required } => {
                write!(f, "address {addr:#x} is not {required}-byte aligned")
            }
        }
    }
}

impl std::error::Error for CastError {}

/// Reinterpret a half slice as `Half2` words, enforcing the hardware's
/// 4-byte alignment and even-length constraints.
pub fn cast_half2(src: &[Half]) -> Result<&[Half2], CastError> {
    if !src.len().is_multiple_of(2) {
        return Err(CastError::Length { len: src.len(), width: 2 });
    }
    let addr = src.as_ptr() as usize;
    if !addr.is_multiple_of(std::mem::align_of::<Half2>()) {
        return Err(CastError::Alignment { addr, required: 4 });
    }
    // SAFETY: Half2 is repr(C) of two Half (no padding: size 4 = 2×2),
    // length and alignment were just checked, and the lifetime is inherited
    // from `src`.
    Ok(unsafe { std::slice::from_raw_parts(src.as_ptr().cast::<Half2>(), src.len() / 2) })
}

/// Mutable variant of [`cast_half2`].
pub fn cast_half2_mut(src: &mut [Half]) -> Result<&mut [Half2], CastError> {
    if !src.len().is_multiple_of(2) {
        return Err(CastError::Length { len: src.len(), width: 2 });
    }
    let addr = src.as_ptr() as usize;
    if !addr.is_multiple_of(std::mem::align_of::<Half2>()) {
        return Err(CastError::Alignment { addr, required: 4 });
    }
    // SAFETY: as in `cast_half2`, plus exclusive access via `&mut`.
    Ok(unsafe { std::slice::from_raw_parts_mut(src.as_mut_ptr().cast::<Half2>(), src.len() / 2) })
}

/// Round a feature length up to a multiple of `width` — *feature padding*
/// (§4.1.2): odd class counts (Reddit's 41) are padded so half2/half4/half8
/// casts stay legal.
pub const fn pad_feature_len(len: usize, width: usize) -> usize {
    len.div_ceil(width) * width
}

/// Convert an `f32` slice to freshly allocated halves (rounding each).
pub fn f32_slice_to_half(src: &[f32]) -> Vec<Half> {
    let mut out = vec![Half::ZERO; src.len()];
    convert_f32_to_half_into(src, &mut out);
    out
}

/// Convert a half slice to freshly allocated `f32`s (exact widening).
pub fn half_slice_to_f32(src: &[Half]) -> Vec<f32> {
    let mut out = vec![0.0; src.len()];
    convert_half_to_f32_into(src, &mut out);
    out
}

/// Copy-convert into an existing buffer without allocating:
/// `dst[i] ← Half::from_f32(src[i])`.
pub fn convert_f32_to_half_into(src: &[f32], dst: &mut [Half]) {
    assert_eq!(src.len(), dst.len(), "conversion buffers must match");
    #[cfg(target_arch = "x86_64")]
    if f16c::narrow(src, dst).is_some() {
        return;
    }
    lanes::narrow(src, dst);
}

/// Copy-convert halves into an existing `f32` buffer without allocating:
/// `dst[i] ← src[i].to_f32()`. Returns whether every element is finite.
pub fn convert_half_to_f32_into(src: &[Half], dst: &mut [f32]) -> bool {
    assert_eq!(src.len(), dst.len(), "conversion buffers must match");
    #[cfg(target_arch = "x86_64")]
    if let Some(finite) = f16c::widen(src, dst) {
        return finite;
    }
    lanes::widen(src, dst)
}

/// `acc[i] ← hadd(acc[i], hmul(w, x[i]))`: one weighted neighbor row
/// joining an accumulator (the SpMM and attention aggregation step).
pub fn fma_row(acc: &mut [Half], w: Half, x: &[Half]) {
    assert_eq!(acc.len(), x.len(), "row lengths must match");
    #[cfg(target_arch = "x86_64")]
    if f16c::fma_row(acc, w, x).is_some() {
        return;
    }
    lanes::fma_row(acc, w, x);
}

/// `v[i] ← hmul(v[i], s)`: a row scaled by one factor (degree scaling).
pub fn scale_row(v: &mut [Half], s: Half) {
    #[cfg(target_arch = "x86_64")]
    if f16c::scale_row(v, s).is_some() {
        return;
    }
    lanes::scale_row(v, s);
}

/// `acc[i] ← hadd(acc[i], x[i])`: two partial rows merged.
pub fn add_row(acc: &mut [Half], x: &[Half]) {
    assert_eq!(acc.len(), x.len(), "row lengths must match");
    #[cfg(target_arch = "x86_64")]
    if f16c::add_row(acc, x).is_some() {
        return;
    }
    lanes::add_row(acc, x);
}

/// `out[i] ← hadd(hmul(a, x[i]), hmul(b, y[i]))`: a scaled sum of two rows.
pub fn axpby(a: Half, x: &[Half], b: Half, y: &[Half], out: &mut [Half]) {
    assert!(x.len() == out.len() && y.len() == out.len(), "row lengths must match");
    #[cfg(target_arch = "x86_64")]
    if f16c::axpby(a, x, b, y, out).is_some() {
        return;
    }
    lanes::axpby(a, x, b, y, out);
}

/// `out[r·n + j] ← out[r·n + j] + a[r·rs + p·ps]·b[p·n + j]` for every
/// output row `r`, step `p` in ascending order and column `j`, where `out`
/// holds rows of `n`, `b` holds `k` rows of `n`, and `(rs, ps)` are A's
/// row and step strides: a block of a dense GEMM's output rows, each
/// weighting the rows of `b` by its row of A. The strides serve A stored
/// row-major (`(k, 1)`) and transposed (`(1, m)`). Each product is an
/// `f32` `mul`, then an `add` (never FMA), so every output sums its
/// products in ascending `p` with the scalar loop's roundings. On F16C
/// hosts a register block of four rows by sixteen columns loads each row
/// of `b` once per step for all four rows.
pub fn gemm_tile(a: &[f32], (rs, ps): (usize, usize), b: &[f32], n: usize, out: &mut [f32]) {
    if out.is_empty() || b.is_empty() {
        return;
    }
    assert!(out.len().is_multiple_of(n) && b.len().is_multiple_of(n), "out and b hold rows of n");
    let last = (out.len() / n - 1) * rs + (b.len() / n - 1) * ps;
    assert!(last < a.len(), "A's last entry {last} is past its {} entries", a.len());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the shapes were asserted just above.
    if unsafe { f16c::gemm_tile(a, (rs, ps), b, n, out) }.is_some() {
        return;
    }
    lanes::gemm_tile(a, (rs, ps), b, n, out);
}

/// One row of GAT's attention scores: `e[k] ← hadd(s, s_col[cols[k]])`,
/// then `hmul(e[k], slope)` when that sum is not `≥ 0` (negative or NaN),
/// folding `m ← hmax(m, e[k])` from −∞ after each edge. Returns `m`, the
/// row max the shifted exponents subtract. The zero sign of a zero max is
/// unspecified, as for `f32::max`; no output of the fused attention
/// depends on it.
pub fn leaky_scores(s: Half, s_col: &[Half], cols: &[u32], slope: Half, e: &mut [Half]) -> Half {
    assert_eq!(cols.len(), e.len(), "one column per score");
    #[cfg(target_arch = "x86_64")]
    if let Some(m) = f16c::leaky_scores(s, s_col, cols, slope, e) {
        return m;
    }
    lanes::leaky_scores(Half::NEG_INFINITY, s, s_col, cols, slope, e)
}

/// `out[k] ← hexp(hsub(e[k], m))`: a row's shifted exponents, each
/// `f32::exp` of the rounded argument, rounded once.
pub fn exp_shifted(e: &[Half], m: Half, out: &mut [Half]) {
    assert_eq!(e.len(), out.len(), "row lengths must match");
    #[cfg(target_arch = "x86_64")]
    if f16c::exp_shifted(e, m, out).is_some() {
        return;
    }
    lanes::exp_shifted(e, m, out);
}

/// `v[k] ← hdiv(v[k], z)`: a row divided by its sum (the softmax
/// normalize).
pub fn div_row(v: &mut [Half], z: Half) {
    #[cfg(target_arch = "x86_64")]
    if f16c::div_row(v, z).is_some() {
        return;
    }
    lanes::div_row(v, z);
}

/// One row of the edge-softmax gradient through the LeakyReLU gate:
/// `de[k] ← hmul(alpha[k], hsub(dalpha[k], t))`, then `hmul(de[k],
/// slope)` where `e[k]` is not `≥ 0`.
pub fn softmax_grad_row(
    alpha: &[Half],
    dalpha: &[Half],
    e: &[Half],
    t: Half,
    slope: Half,
    de: &mut [Half],
) {
    assert!(
        alpha.len() == de.len() && dalpha.len() == de.len() && e.len() == de.len(),
        "row lengths must match"
    );
    #[cfg(target_arch = "x86_64")]
    if f16c::softmax_grad_row(alpha, dalpha, e, t, slope, de).is_some() {
        return;
    }
    lanes::softmax_grad_row(alpha, dalpha, e, t, slope, de);
}

/// `out[i] ← hadd(… hadd(hadd(+0, x[a]), x[a + 1]) …, x[b − 1])` for the
/// segment `a = off[i]`, `b = off[i + 1]`: sequential half sums (a row's
/// softmax denominator, an edge-reduce segment), each in its segment's
/// order. `off` holds one more entry than `out`.
pub fn sum_chains(x: &[Half], off: &[usize], out: &mut [Half]) {
    check_segments(x, off, out);
    #[cfg(target_arch = "x86_64")]
    if f16c::chains(x, None, off, out).is_some() {
        return;
    }
    lanes::sum_chains(x, off, out);
}

/// `out[i] ← hadd(… hadd(+0, hmul(x[a], y[a])) …, hmul(x[b − 1], y[b −
/// 1]))` over the segment `a = off[i]`, `b = off[i + 1]`: sequential half
/// dot products (the softmax gradient's `t_i = Σ_j α_ij·δα_ij`), each in
/// its segment's order.
pub fn dot_chains(x: &[Half], y: &[Half], off: &[usize], out: &mut [Half]) {
    check_segments(x, off, out);
    assert_eq!(x.len(), y.len(), "factor lengths must match");
    #[cfg(target_arch = "x86_64")]
    if f16c::chains(x, Some(y), off, out).is_some() {
        return;
    }
    lanes::dot_chains(x, y, off, out);
}

/// `off` cuts `x` into one ordered segment per output.
fn check_segments(x: &[Half], off: &[usize], out: &[Half]) {
    assert_eq!(off.len(), out.len() + 1, "one segment per output");
    assert!(
        off.windows(2).all(|w| w[0] <= w[1]) && off.last().is_none_or(|&e| e <= x.len()),
        "segments must be ordered and inside the values"
    );
}

/// `out[q] ← out[q] + a[q·k]·x[0] + … + a[q·k + k − 1]·x[k − 1]`, where
/// `k = x.len()` and `a` holds `out.len()` rows of `k`: a dense GEMM with
/// one output column (`A·x`). Each product is an `f32` `mul`, then an
/// `add` (never FMA), in ascending `l`, so every output has the scalar
/// loop's roundings. On F16C hosts eight outputs run per vector, over 8×8
/// transposed blocks of `a`.
pub fn gemm_col(a: &[f32], x: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), out.len() * x.len(), "one row of a per output");
    #[cfg(target_arch = "x86_64")]
    if f16c::gemm_col(a, x, out).is_some() {
        return;
    }
    lanes::gemm_col(a, x, out);
}

/// Half-precision dot product with the exact reduction shape of the SDDMM
/// kernel (§5.1): `threads` threads each accumulate a strided stripe of
/// `lanes` features per step into a half2 register (`hfma2`), an
/// in-register fold, then a binary shuffle tree of half2 adds across the
/// threads, and a final `hadd` of the two lanes. `u.len()` features, a
/// multiple of `lanes`; `1 ≤ threads ≤ 32`.
pub fn dot_half2_tree(u: &[Half], v: &[Half], threads: usize, lanes: usize) -> Half {
    assert!((1..=32).contains(&threads), "{threads} threads: a warp has 1 to 32");
    let f = u.len();
    // Per-thread half2 accumulators.
    let mut accs = [Half2::ZERO; 32];
    let accs = &mut accs[..threads];
    let chunk = lanes; // features one thread loads per iteration
    let stride = threads * chunk;
    for (t, acc) in accs.iter_mut().enumerate() {
        let mut base = t * chunk;
        while base < f {
            // Fold this chunk's half2 words into the accumulator.
            let mut j = 0;
            while j < chunk && base + j < f {
                let a = Half2::new(u[base + j], u[base + j + 1]);
                let b = Half2::new(v[base + j], v[base + j + 1]);
                *acc = a.fma2(b, *acc);
                j += 2;
            }
            base += stride;
        }
    }
    // Shuffle tree across threads (half2 adds), then the final fold.
    let mut width = threads.next_power_of_two();
    while width > 1 {
        width /= 2;
        for t in 0..width {
            if t + width < accs.len() {
                accs[t] = accs[t].add2(accs[t + width]);
            }
        }
    }
    hadd(accs[0].lo, accs[0].hi)
}

/// `out[i] ← dot_half2_tree(u row rows[i], v row cols[i], threads, lanes)`
/// for every `i`, where `u` and `v` hold rows of `f` halves: the per-edge
/// dot products of an SDDMM tile. On F16C hosts, when `lanes` is 2, 4 or
/// 8 and divides `f`, eight edges run per step, one per lane, each in its
/// own edge's order.
#[allow(clippy::too_many_arguments)]
pub fn dot_half2_trees(
    u: &[Half],
    rows: &[u32],
    v: &[Half],
    cols: &[u32],
    f: usize,
    threads: usize,
    lanes: usize,
    out: &mut [Half],
) {
    assert!(rows.len() == out.len() && cols.len() == out.len(), "one row pair per output");
    assert!((1..=32).contains(&threads), "{threads} threads: a warp has 1 to 32");
    #[cfg(target_arch = "x86_64")]
    if matches!(lanes, 2 | 4 | 8)
        && f.is_multiple_of(lanes)
        && f16c::dot_half2_trees(u, rows, v, cols, f, threads, lanes, out).is_some()
    {
        return;
    }
    lanes::dot_half2_trees(u, rows, v, cols, f, threads, lanes, out);
}

/// Row `r` of a matrix of `f`-wide rows.
fn feature_row(x: &[Half], r: u32, f: usize) -> &[Half] {
    &x[r as usize * f..][..f]
}

/// The row kernels as per-lane intrinsic loops: what runs on hosts
/// without F16C, and what the eight-lane path falls back to for any block
/// or chain that meets an Inf or NaN. Callers have checked the lengths.
mod lanes {
    use super::*;

    pub(super) fn narrow(src: &[f32], dst: &mut [Half]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Half::from_f32(s);
        }
    }

    pub(super) fn widen(src: &[Half], dst: &mut [f32]) -> bool {
        let mut finite = true;
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32();
            finite &= s.is_finite();
        }
        finite
    }

    pub(super) fn fma_row(acc: &mut [Half], w: Half, x: &[Half]) {
        for (a, &xv) in acc.iter_mut().zip(x) {
            *a = hadd(*a, hmul(w, xv));
        }
    }

    pub(super) fn scale_row(v: &mut [Half], s: Half) {
        for a in v {
            *a = hmul(*a, s);
        }
    }

    pub(super) fn add_row(acc: &mut [Half], x: &[Half]) {
        for (a, &xv) in acc.iter_mut().zip(x) {
            *a = hadd(*a, xv);
        }
    }

    pub(super) fn axpby(a: Half, x: &[Half], b: Half, y: &[Half], out: &mut [Half]) {
        for ((o, &xv), &yv) in out.iter_mut().zip(x).zip(y) {
            *o = hadd(hmul(a, xv), hmul(b, yv));
        }
    }

    /// [`super::leaky_scores`] with the running max starting at `m`.
    pub(super) fn leaky_scores(
        mut m: Half,
        s: Half,
        s_col: &[Half],
        cols: &[u32],
        slope: Half,
        e: &mut [Half],
    ) -> Half {
        for (o, &c) in e.iter_mut().zip(cols) {
            let v = hadd(s, s_col[c as usize]);
            let v = if v.to_f32() >= 0.0 { v } else { hmul(v, slope) };
            m = hmax(m, v);
            *o = v;
        }
        m
    }

    pub(super) fn exp_shifted(e: &[Half], m: Half, out: &mut [Half]) {
        for (o, &v) in out.iter_mut().zip(e) {
            *o = hexp(hsub(v, m));
        }
    }

    pub(super) fn div_row(v: &mut [Half], z: Half) {
        for a in v {
            *a = hdiv(*a, z);
        }
    }

    pub(super) fn softmax_grad_row(
        alpha: &[Half],
        dalpha: &[Half],
        e: &[Half],
        t: Half,
        slope: Half,
        de: &mut [Half],
    ) {
        for (((o, &a), &da), &ev) in de.iter_mut().zip(alpha).zip(dalpha).zip(e) {
            let soft = hmul(a, hsub(da, t));
            *o = if ev.to_f32() >= 0.0 { soft } else { hmul(soft, slope) };
        }
    }

    pub(super) fn sum_chain(x: &[Half]) -> Half {
        x.iter().fold(Half::ZERO, |acc, &v| hadd(acc, v))
    }

    pub(super) fn dot_chain(x: &[Half], y: &[Half]) -> Half {
        x.iter().zip(y).fold(Half::ZERO, |acc, (&a, &b)| hadd(acc, hmul(a, b)))
    }

    pub(super) fn sum_chains(x: &[Half], off: &[usize], out: &mut [Half]) {
        for (o, w) in out.iter_mut().zip(off.windows(2)) {
            *o = sum_chain(&x[w[0]..w[1]]);
        }
    }

    pub(super) fn dot_chains(x: &[Half], y: &[Half], off: &[usize], out: &mut [Half]) {
        for (o, w) in out.iter_mut().zip(off.windows(2)) {
            *o = dot_chain(&x[w[0]..w[1]], &y[w[0]..w[1]]);
        }
    }

    pub(super) fn gemm_tile(
        a: &[f32],
        (rs, ps): (usize, usize),
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        for (r, row) in out.chunks_exact_mut(n).enumerate() {
            for (p, brow) in b.chunks_exact(n).enumerate() {
                let av = a[r * rs + p * ps];
                for (o, &bv) in row.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    pub(super) fn gemm_col(a: &[f32], x: &[f32], out: &mut [f32]) {
        for (o, row) in out.iter_mut().zip(a.chunks_exact(x.len().max(1))) {
            for (&av, &xv) in row.iter().zip(x) {
                *o += av * xv;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn dot_half2_trees(
        u: &[Half],
        rows: &[u32],
        v: &[Half],
        cols: &[u32],
        f: usize,
        threads: usize,
        lanes: usize,
        out: &mut [Half],
    ) {
        for ((o, &r), &c) in out.iter_mut().zip(rows).zip(cols) {
            *o = dot_half2_tree(feature_row(u, r, f), feature_row(v, c, f), threads, lanes);
        }
    }
}

/// Count of non-finite (Inf or NaN) lanes in a half slice — the overflow
/// detector used by accuracy experiments.
pub fn count_non_finite(src: &[Half]) -> usize {
    src.iter().filter(|h| !h.is_finite()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(v: f32) -> Half {
        Half::from_f32(v)
    }

    #[test]
    fn cast_even_aligned_slice() {
        // Vec<Half2>-backed storage guarantees 4-byte alignment.
        let backing: Vec<Half2> = vec![Half2::from_f32s(1.0, 2.0), Half2::from_f32s(3.0, 4.0)];
        let halves: &[Half] =
            unsafe { std::slice::from_raw_parts(backing.as_ptr().cast::<Half>(), 4) };
        let pairs = cast_half2(halves).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[1], Half2::from_f32s(3.0, 4.0));
    }

    #[test]
    fn cast_rejects_odd_length() {
        let v = vec![Half::ONE; 5];
        assert_eq!(cast_half2(&v).unwrap_err(), CastError::Length { len: 5, width: 2 });
    }

    #[test]
    fn cast_rejects_misaligned_base() {
        let v = [Half::ONE; 8];
        let addr = v.as_ptr() as usize;
        // One of the two starting offsets 0/1 is guaranteed 2-mod-4.
        let off = if addr.is_multiple_of(4) { 1 } else { 0 };
        let sub = &v[off..off + 2];
        match cast_half2(sub) {
            Err(CastError::Alignment { required: 4, .. }) => {}
            other => panic!("expected alignment error, got {other:?}"),
        }
    }

    #[test]
    fn feature_padding() {
        assert_eq!(pad_feature_len(41, 2), 42); // Reddit classes
        assert_eq!(pad_feature_len(41, 8), 48);
        assert_eq!(pad_feature_len(64, 8), 64);
        assert_eq!(pad_feature_len(0, 2), 0);
        assert_eq!(pad_feature_len(7, 4), 8);
    }

    #[test]
    fn bulk_conversions_round_trip() {
        let xs = [0.5f32, -1.25, 3.75, 1000.0];
        let hs = f32_slice_to_half(&xs);
        let back = half_slice_to_f32(&hs);
        assert_eq!(back, xs);

        let mut buf = vec![Half::ZERO; 4];
        convert_f32_to_half_into(&xs, &mut buf);
        assert_eq!(buf, hs);
        let mut fbuf = vec![0f32; 4];
        convert_half_to_f32_into(&hs, &mut fbuf);
        assert_eq!(fbuf, xs);
    }

    #[test]
    fn non_finite_counting() {
        let v = vec![h(1.0), Half::INFINITY, Half::NAN, h(-2.0), Half::NEG_INFINITY];
        assert_eq!(count_non_finite(&v), 3);
        assert_eq!(count_non_finite(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_conversion_buffers_panic() {
        convert_f32_to_half_into(&[1.0], &mut [Half::ZERO; 2]);
    }
}
