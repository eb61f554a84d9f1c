//! Property-based tests for the tensor substrate: matmul algebra, quantized-layer
//! invariants, and the panel GEMM's bit identity with the reference matmul.
//!
//! The panel GEMM cases compare `matmul_panels` with `matmul` on `quantize_columns`
//! weights by `to_bits`, on the dispatched path, under forced scalar kernels, and on
//! weights cast while scalar is forced (the store a host without AVX2 keeps). Forcing
//! scalar flips a process-global switch, so those cases hold one mutex for their whole
//! body: the dispatched product then really runs on the detected backend.

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;

use mx_formats::kernels::force_scalar;
use mx_formats::quantize::{MatmulQuantConfig, QuantScheme};
use mx_tensor::{kernels, Matrix, QuantizedLinear, WeightPanels};

static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn force_lock() -> MutexGuard<'static, ()> {
    FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Weight schemes of the panel GEMM cases: both 4-bit code stores (MXFP4, MXINT4) and
/// five schemes that keep the row-major matrix.
const PANEL_SCHEMES: [QuantScheme; 7] = [
    QuantScheme::mxfp4(),
    QuantScheme::mxint4(),
    QuantScheme::mxfp4_plus(),
    QuantScheme::mxfp6(),
    QuantScheme::mxint8(),
    QuantScheme::Bf16,
    QuantScheme::Fp32,
];

/// Deterministic values in ±1 from `(seed, index)`.
fn unit(seed: u64, i: usize) -> f32 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 31;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 29;
    (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// Activations with exact zeros, −0.0, all-zero rows and 20× outlier channels.
fn panel_activations(m: usize, k: usize, seed: u64) -> Matrix {
    Matrix::from_fn(m, k, |r, c| {
        let u = unit(seed, r * k + c);
        match (r % 4, (r * k + c) % 7, c % 13) {
            (3, _, _) => 0.0,
            (_, 2, _) => 0.0,
            (_, 5, _) => -0.0,
            (_, _, 4) => 20.0 * u,
            _ => u,
        }
    })
}

/// Weights with all-zero blocks (rows 32..64 of every fifth column) and outliers.
fn panel_weights(k: usize, n: usize, seed: u64) -> Matrix {
    Matrix::from_fn(k, n, |r, c| match (c % 5, (32..64).contains(&r), (r + c) % 29) {
        (2, true, _) => 0.0,
        (_, _, 3) => 20.0 * unit(seed ^ 1, r * n + c),
        _ => 0.1 * unit(seed ^ 1, r * n + c),
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// The paths of [`panel_products`], in order.
const PANEL_PATHS: [&str; 3] = ["dispatched", "forced-scalar", "forced-scalar cast"];

/// Bits of `a · w` through panels on the three [`PANEL_PATHS`]: cast and multiplied
/// dispatched, cast dispatched and multiplied under forced scalar kernels, and cast and
/// multiplied under forced scalar kernels. Last, the reference `matmul` on the
/// `quantize_columns` weights.
fn panel_products(a: &Matrix, w: &Matrix, scheme: QuantScheme) -> [Vec<u32>; 4] {
    let _guard = force_lock();
    let panels = WeightPanels::cast(w, scheme);
    let dispatched = bits(&a.matmul_panels(&panels));
    force_scalar(true);
    let forced = bits(&a.matmul_panels(&panels));
    let forced_cast = bits(&a.matmul_panels(&WeightPanels::cast(w, scheme)));
    force_scalar(false);
    [dispatched, forced, forced_cast, bits(&a.matmul(&w.quantize_columns(scheme)))]
}

#[test]
fn panel_gemm_matches_matmul_for_every_scheme_and_shape() {
    for (s, scheme) in PANEL_SCHEMES.into_iter().enumerate() {
        for k in [32, 64, 100, 704] {
            for n in [1, 15, 16, 17, 31, 33, 512] {
                let w = panel_weights(k, n, s as u64);
                for m in [1, 7] {
                    let [products @ .., reference] = panel_products(&panel_activations(m, k, 9), &w, scheme);
                    for (path, product) in PANEL_PATHS.iter().zip(&products) {
                        assert!(*product == reference, "{scheme} m {m} k {k} n {n}: {path} panel GEMM differs");
                    }
                }
            }
        }
    }
}

#[test]
fn non_finite_weights_match_matmul_bit_for_bit() {
    // 0·inf = NaN, so `matmul`'s zero-activation skip shows here: such weights must take
    // the reference product. Rows 3 and 40 meet zero activations in rows 0 and 2.
    let mut w = panel_weights(64, 40, 5);
    w.set(3, 2, f32::INFINITY);
    w.set(40, 7, f32::NAN);
    w.set(41, 33, f32::NEG_INFINITY);
    w.set(50, 8, f32::MAX);
    let a = Matrix::from_fn(3, 64, |r, c| if r != 1 && (c == 3 || c == 40) { 0.0 } else { unit(3, r * 64 + c) });
    for scheme in PANEL_SCHEMES {
        let [products @ .., reference] = panel_products(&a, &w, scheme);
        for (path, product) in PANEL_PATHS.iter().zip(&products) {
            assert!(*product == reference, "{scheme}: {path} panel GEMM differs");
        }
    }
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0_f32..2.0, rows * cols).prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A B)^T == B^T A^T for the reference matmul.
    #[test]
    fn matmul_transpose_identity(a in small_matrix(5, 7), b in small_matrix(7, 3)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Matmul distributes over addition: (A + A') B == A B + A' B.
    #[test]
    fn matmul_distributes(a in small_matrix(4, 6), a2 in small_matrix(4, 6), b in small_matrix(6, 5)) {
        let lhs = a.add(&a2).matmul(&b);
        let rhs = a.matmul(&b).add(&a2.matmul(&b));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Softmax output is a probability distribution for arbitrary finite logits.
    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-30.0_f32..30.0, 1..40)) {
        let p = kernels::softmax(&logits);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    /// KL divergence is non-negative and zero only for identical logits (up to shifts).
    #[test]
    fn kl_divergence_is_nonnegative(a in prop::collection::vec(-5.0_f32..5.0, 2..32), shift in -3.0_f32..3.0) {
        let b: Vec<f32> = a.iter().map(|x| x + shift).collect();
        // A constant shift leaves the distribution unchanged.
        prop_assert!(kernels::kl_divergence_logits(&a, &b) < 1e-6);
        let c: Vec<f32> = a.iter().map(|x| x * 0.5 + 0.1).collect();
        prop_assert!(kernels::kl_divergence_logits(&a, &c) >= 0.0);
    }

    /// RoPE is an isometry: it never changes the norm of the head vector.
    #[test]
    fn rope_preserves_norm(values in prop::collection::vec(-3.0_f32..3.0, 4..=16), pos in 0usize..4096) {
        prop_assume!(values.len() % 2 == 0);
        let mut rotated = values.clone();
        kernels::apply_rope(&mut rotated, pos, 10_000.0);
        let n1: f32 = values.iter().map(|v| v * v).sum();
        let n2: f32 = rotated.iter().map(|v| v * v).sum();
        prop_assert!((n1 - n2).abs() <= 1e-3 * n1.max(1.0));
    }

    /// A quantized linear layer's output error against the exact product is bounded and
    /// decreases (or stays equal) when moving from MXFP4 to MXFP8.
    #[test]
    fn quantized_linear_error_ordering(x in small_matrix(3, 64), w in small_matrix(64, 8)) {
        let exact = x.matmul(&w);
        let fp4 = QuantizedLinear::new(w.clone(), MatmulQuantConfig::uniform(QuantScheme::mxfp4())).forward(&x);
        let fp8 = QuantizedLinear::new(w, MatmulQuantConfig::uniform(QuantScheme::mxfp8())).forward(&x);
        prop_assert!(exact.mse(&fp8) <= exact.mse(&fp4) + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The panel GEMM equals `matmul` on `quantize_columns` weights bit for bit, over
    /// M ∈ 0..=13 ∪ {32, 256}, k ∈ {32, 64, 100, 704} (100 leaves a tail block) and
    /// n ∈ {1, 15, 16, 17, 31, 33, 512} (partial panels and tiles), for every scheme.
    #[test]
    fn panel_gemm_is_bit_identical_to_matmul(
        m in (0usize..16).prop_map(|i| if i < 14 { i } else { [32, 256][i - 14] }),
        k in (0usize..4).prop_map(|i| [32, 64, 100, 704][i]),
        n in (0usize..7).prop_map(|i| [1, 15, 16, 17, 31, 33, 512][i]),
        scheme in 0usize..PANEL_SCHEMES.len(),
        seed in 0u64..1_000_000,
    ) {
        let scheme = PANEL_SCHEMES[scheme];
        let [products @ .., reference] =
            panel_products(&panel_activations(m, k, seed), &panel_weights(k, n, seed), scheme);
        for (path, product) in PANEL_PATHS.iter().zip(&products) {
            prop_assert!(*product == reference, "{} m {} k {} n {}: {} panel GEMM differs", scheme, m, k, n, path);
        }
    }
}

/// Weights whose 32-row blocks sit at the scale edges of a finite weight, by turns: values
/// near 1e-38 (the smallest scales, so decoded weights and their products are subnormal),
/// near 3e38 (the largest, so sums overflow), subnormal inputs, and ordinary values.
fn edge_weights(k: usize, n: usize, seed: u64) -> Matrix {
    Matrix::from_fn(k, n, |r, c| {
        let u = unit(seed ^ 2, r * n + c);
        match (r / 32 + c + seed as usize) % 4 {
            0 => u * 1e-38,
            1 => u * 3e38,
            2 => u * 1e-40,
            _ => 0.1 * u,
        }
    })
}

/// Activations with subnormals, exact zeros and −0.0 among ordinary values.
fn edge_activations(m: usize, k: usize, seed: u64) -> Matrix {
    Matrix::from_fn(m, k, |r, c| {
        let u = unit(seed ^ 4, r * k + c);
        match (r * k + c) % 5 {
            0 => u * 1e-40,
            1 => 0.0,
            2 => -0.0,
            _ => u,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The panel GEMM's integer lookup stays bit-identical to `matmul` where its
    /// exactness argument is tightest: 4-bit weights whose block scales are near the
    /// smallest and largest a finite weight gets, times subnormal activations, for
    /// M ∈ 1..=8 ∪ {32}.
    #[test]
    fn panel_gemm_is_bit_identical_at_the_scale_edges(
        m in (0usize..9).prop_map(|i| if i < 8 { i + 1 } else { 32 }),
        k in (0usize..3).prop_map(|i| [32, 64, 100][i]),
        n in (0usize..4).prop_map(|i| [1, 17, 33, 64][i]),
        int4 in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let scheme = if int4 == 1 { QuantScheme::mxint4() } else { QuantScheme::mxfp4() };
        let [products @ .., reference] =
            panel_products(&edge_activations(m, k, seed), &edge_weights(k, n, seed), scheme);
        for (path, product) in PANEL_PATHS.iter().zip(&products) {
            prop_assert!(*product == reference, "{} m {} k {} n {}: {} panel GEMM differs", scheme, m, k, n, path);
        }
    }
}
