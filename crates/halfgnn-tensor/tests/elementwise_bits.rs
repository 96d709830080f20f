//! `Ops::relu`, `Ops::relu_grad` and `Ops::colsum` against their
//! per-element bodies (widen each element, compare or add in `f32`): the
//! same output bits on all 65,536 binary16 payloads, and on `f32` boundary
//! values — ±0, subnormals, range edges, ±Inf and NaN payloads.
//!
//! `colsum`'s NaN sums are compared as NaN: a sum that meets two NaNs
//! returns one of their payloads, and which one is the compiler's choice
//! (it may swap the operands of an `f32` add), so the per-element body
//! itself gives different NaN bits at different optimization levels.

use halfgnn_half::{splitmix64, Half, Scalar};
use halfgnn_sim::DeviceConfig;
use halfgnn_tensor::Ops;

fn relu_reference<T: Scalar>(x: &[T]) -> Vec<T> {
    x.iter()
        .map(|&v| {
            let f = v.to_f32();
            if f.is_nan() || f > 0.0 {
                v
            } else {
                T::ZERO
            }
        })
        .collect()
}

fn relu_grad_reference<T: Scalar>(x: &[T], dy: &[T]) -> Vec<T> {
    x.iter()
        .zip(dy)
        .map(|(&v, &g)| {
            let f = v.to_f32();
            if f.is_nan() {
                v
            } else if f > 0.0 {
                g
            } else {
                T::ZERO
            }
        })
        .collect()
}

fn colsum_reference<T: Scalar>(x: &[T], n: usize) -> Vec<f32> {
    let mut out = vec![0f32; n];
    for row in x.chunks(n) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v.to_f32();
        }
    }
    out
}

fn bits<T: Scalar>(xs: &[T]) -> Vec<u32> {
    xs.iter().map(|v| v.bits()).collect()
}

/// The bits, with every NaN as one value.
fn bits_nan_as_nan(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() }).collect()
}

/// `f32` values at every class boundary, both signs, several NaN payloads.
fn f32_boundaries() -> Vec<f32> {
    let magnitudes = [
        0u32,
        1,
        0x0000_0002,
        0x007F_FFFF,
        0x0080_0000,
        0x3F80_0000,
        0x7F7F_FFFF,
        0x7F80_0000,
        0x7F80_0001,
        0x7FC0_0000,
        0x7FFF_FFFF,
        0x7FA0_1234,
    ];
    magnitudes.iter().flat_map(|&m| [f32::from_bits(m), f32::from_bits(m | 0x8000_0000)]).collect()
}

/// Every binary16 payload, and as many keyed draws of payloads.
fn half_payloads() -> (Vec<Half>, Vec<Half>) {
    let all: Vec<Half> = (0..=u16::MAX).map(Half::from_bits).collect();
    let mut s = 0xC0FFEE;
    let shuffled = (0..all.len())
        .map(|_| {
            s = splitmix64(s);
            Half::from_bits(s as u16)
        })
        .collect();
    (all, shuffled)
}

fn check<T: Scalar>(label: &str, x: &[T], dy: &[T]) {
    let dev = DeviceConfig::a100_like();
    let mut ops = Ops::new(&dev);
    assert_eq!(bits(&ops.relu(x)), bits(&relu_reference(x)), "{label}: relu");
    assert_eq!(
        bits(&ops.relu_grad(x, dy)),
        bits(&relu_grad_reference(x, dy)),
        "{label}: relu_grad"
    );
    for n in [1, 2, 7, 8, 64] {
        let len = x.len() / n * n;
        let (got, want) = (ops.colsum(&x[..len], n), colsum_reference(&x[..len], n));
        assert_eq!(bits_nan_as_nan(&got), bits_nan_as_nan(&want), "{label}: colsum, {n} columns");
    }
}

#[test]
fn half_ops_match_their_per_element_bodies_on_every_payload() {
    let (all, shuffled) = half_payloads();
    check("half", &all, &shuffled);
    check("half, shuffled", &shuffled, &all);
}

#[test]
fn f32_ops_match_their_per_element_bodies_on_boundary_values() {
    let x = f32_boundaries();
    // Every pairing of an input with every gradient value.
    let xs: Vec<f32> = x.iter().flat_map(|&v| std::iter::repeat_n(v, x.len())).collect();
    let dys: Vec<f32> = (0..x.len()).flat_map(|_| x.iter().copied()).collect();
    check("f32", &xs, &dys);
}

#[test]
fn relu_keeps_nan_and_positive_bits_and_zeroes_the_rest() {
    let dev = DeviceConfig::a100_like();
    let mut ops = Ops::new(&dev);
    let x = [-0.0f32, 0.0, f32::NEG_INFINITY, f32::INFINITY, f32::from_bits(1), -f32::NAN];
    let got = ops.relu(&x);
    assert_eq!(bits(&got[..3]), vec![0, 0, 0], "±0 and −Inf give +0");
    assert_eq!(bits(&got[3..]), bits(&x[3..]), "+Inf, subnormals and NaN pass through");
}
