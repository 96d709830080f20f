//! Property-based tests for the dense ops: GeMM against a naive reference,
//! elementwise identities, and loss-gradient structure.

use halfgnn_half::slice::f32_slice_to_half;
use halfgnn_sim::DeviceConfig;
use halfgnn_tensor::Ops;
use proptest::prelude::*;

fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0f32; m * n];
    for i in 0..m {
        for l in 0..k {
            for j in 0..n {
                c[i * n + j] += a[i * k + l] * b[l * n + j];
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_matches_naive(
        m in 1usize..12, k in 1usize..12, n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / 2f32.powi(31)) - 0.5
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let got = ops.gemm(&a, false, &b, false, m, k, n);
        let want = naive_matmul(&a, &b, m, k, n);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn gemm_transpose_flags_consistent(
        m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..500,
    ) {
        // gemm(A, B) == gemm(Aᵀ stored, ta=true, B) == gemm(A, Bᵀ stored, tb=true).
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3);
            ((state >> 33) as f32 / 2f32.powi(31)) - 0.5
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let base = ops.gemm(&a, false, &b, false, m, k, n);
        // Store A transposed (k×m) and flip the flag.
        let mut at = vec![0f32; m * k];
        for i in 0..m {
            for l in 0..k {
                at[l * m + i] = a[i * k + l];
            }
        }
        let via_ta = ops.gemm(&at, true, &b, false, m, k, n);
        let mut bt = vec![0f32; k * n];
        for l in 0..k {
            for j in 0..n {
                bt[j * k + l] = b[l * n + j];
            }
        }
        let via_tb = ops.gemm(&a, false, &bt, true, m, k, n);
        for i in 0..base.len() {
            prop_assert!((base[i] - via_ta[i]).abs() < 1e-4);
            prop_assert!((base[i] - via_tb[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn half_gemm_tracks_f32_gemm(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..300) {
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        let mut state = seed.wrapping_add(17);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            ((state >> 33) as f32 / 2f32.powi(31)) - 0.5
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let cf = ops.gemm(&a, false, &b, false, m, k, n);
        let ch = ops.gemm(&f32_slice_to_half(&a), false, &f32_slice_to_half(&b), false, m, k, n);
        for (f, h) in cf.iter().zip(&ch) {
            // f32-accumulated tensor-core GeMM: error bounded by the input
            // and output roundings only.
            prop_assert!((f - h.to_f32()).abs() < 2e-2 + 1e-2 * f.abs(), "{f} vs {h}");
        }
    }

    #[test]
    fn relu_idempotent_and_masked(vals in prop::collection::vec(-10f32..10.0, 1..128)) {
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        let once = ops.relu(&vals);
        let twice = ops.relu(&once);
        prop_assert_eq!(&once, &twice);
        for (o, v) in once.iter().zip(&vals) {
            prop_assert!(*o == v.max(0.0));
        }
        // Grad is the indicator: relu_grad(x, 1) ∈ {0, 1}.
        let ones = vec![1f32; vals.len()];
        let g = ops.relu_grad(&vals, &ones);
        for (gi, v) in g.iter().zip(&vals) {
            prop_assert_eq!(*gi, if *v > 0.0 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn row_scale_then_inverse_is_identity(
        rows in 1usize..12, f in 1usize..8,
        scale in prop::collection::vec(0.25f32..4.0, 12),
    ) {
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        let x: Vec<f32> = (0..rows * f).map(|i| (i as f32 * 0.37).sin()).collect();
        let s = &scale[..rows];
        let inv: Vec<f32> = s.iter().map(|v| 1.0 / v).collect();
        let y = ops.row_scale(&x, s, f);
        let back = ops.row_scale(&y, &inv, f);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn xent_loss_nonnegative_and_grad_rows_sum_zero(
        n in 1usize..24, c in 2usize..8, seed in 0u64..400,
    ) {
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        let mut state = seed.wrapping_add(3);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            ((state >> 33) as f32 / 2f32.powi(31)) * 4.0 - 2.0
        };
        let logits: Vec<f32> = (0..n * c).map(|_| next()).collect();
        let labels: Vec<u32> = (0..n).map(|i| (i % c) as u32).collect();
        let mask = vec![true; n];
        let (loss, grad, correct) = ops.softmax_xent_f32(&logits, &labels, &mask, c);
        prop_assert!(loss >= 0.0);
        prop_assert!(correct <= n);
        for v in 0..n {
            let s: f32 = grad[v * c..(v + 1) * c].iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {v} grad sum {s}");
        }
    }

    #[test]
    fn conversion_counters_are_exact(sizes in prop::collection::vec(1usize..200, 1..8)) {
        let dev = DeviceConfig::a100_like();
        let mut ops = Ops::new(&dev);
        let mut total = 0u64;
        for (i, &n) in sizes.iter().enumerate() {
            let x = vec![i as f32; n];
            let h = ops.to_half(&x);
            let _ = ops.to_f32(&h);
            total += 2 * n as u64;
        }
        prop_assert_eq!(ops.tensor_conversions, 2 * sizes.len() as u64);
        prop_assert_eq!(ops.converted_elems, total);
    }
}
