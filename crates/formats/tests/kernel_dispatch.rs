//! Property tests pinning the dispatched pack/unpack kernels bit-exact against the
//! scalar reference: every bit width (1..=8) × row lengths including partial tail
//! bytes × forced-scalar vs auto dispatch, plus — for every MX/MX+ element type and
//! block sizes around the fused-kernel limit — the fast block quantizer against the
//! reference codecs and the `RowCodec` round trip under both dispatch modes (BF16 rows
//! included), on edge-case rows (raw bit patterns, grid points and midpoints, the MX+
//! flush boundary, values near `f32::MAX`).
//!
//! The forced-scalar cases flip a process-global switch, so everything that toggles it
//! runs under one mutex; concurrently running tests see identical *outputs* either way
//! (that equality is exactly what this suite proves), only backend identity assertions
//! need the serialization.

use proptest::prelude::*;
use std::sync::Mutex;

use mx_formats::kernels::{
    self, active_backend, force_scalar, pack_codes_into, pack_codes_into_scalar, packed_len, unpack_codes_into,
    unpack_codes_into_scalar, KernelBackend, MAX_FUSED_BLOCK,
};
use mx_formats::layout::RowCodec;
use mx_formats::mxplus::MxPlusFormat;
use mx_formats::scale::MIN_SHARED_EXP;
use mx_formats::{ElementType, MxFormat, QuantScheme};

static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn with_forced_scalar<T>(f: impl FnOnce() -> T) -> T {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    force_scalar(true);
    let result = f();
    force_scalar(false);
    result
}

/// Deterministic pseudo-random codes masked to `bits` wide, so a failing case is
/// reproducible from the printed `(bits, len, seed)` triple alone.
fn codes_for(bits: u32, len: usize, seed: u64) -> Vec<u8> {
    let mask = if bits == 8 { 0xff } else { (1u16 << bits) - 1 } as u8;
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as u8) & mask
        })
        .collect()
}

fn any_len() -> impl Strategy<Value = usize> {
    // Lengths straddle the SIMD vector widths (32/64 codes) and include partial tails.
    prop_oneof![0usize..=8, 28usize..=36, 60usize..=68, 120usize..=132, Just(1024), Just(1031)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn dispatched_pack_unpack_matches_scalar(bits in 1u32..=8, len in any_len(), seed in 0u64..1_000_000) {
        let codes = codes_for(bits, len, seed);
        let nb = packed_len(codes.len(), bits);
        let mut reference = vec![0u8; nb];
        pack_codes_into_scalar(&codes, bits, &mut reference);
        let mut packed = vec![0xaa_u8; nb];
        pack_codes_into(&codes, bits, &mut packed);
        prop_assert_eq!(&packed, &reference, "pack bits {} len {}", bits, codes.len());

        let mut unpacked = vec![0xaa_u8; codes.len()];
        unpack_codes_into(&packed, bits, &mut unpacked);
        let mut unpacked_ref = vec![0u8; codes.len()];
        unpack_codes_into_scalar(&reference, bits, &mut unpacked_ref);
        prop_assert_eq!(&unpacked, &unpacked_ref);
        prop_assert_eq!(&unpacked, &codes, "round trip bits {} len {}", bits, codes.len());
    }

    #[test]
    fn forced_scalar_and_auto_dispatch_produce_identical_bytes(bits in 1u32..=8, len in any_len(), seed in 0u64..1_000_000) {
        let codes = codes_for(bits, len, seed);
        let nb = packed_len(codes.len(), bits);
        let mut auto_packed = vec![0u8; nb];
        pack_codes_into(&codes, bits, &mut auto_packed);
        let mut auto_unpacked = vec![0u8; codes.len()];
        unpack_codes_into(&auto_packed, bits, &mut auto_unpacked);

        let (forced_packed, forced_unpacked) = with_forced_scalar(|| {
            let mut p = vec![0u8; nb];
            pack_codes_into(&codes, bits, &mut p);
            let mut u = vec![0u8; codes.len()];
            unpack_codes_into(&p, bits, &mut u);
            (p, u)
        });
        prop_assert_eq!(auto_packed, forced_packed);
        prop_assert_eq!(auto_unpacked, forced_unpacked);
    }
}

/// Every MX and MX+ element type, as `(element, plus)` pairs.
const CASTS: [(ElementType, bool); 14] = [
    (ElementType::E2M1, false),
    (ElementType::E2M3, false),
    (ElementType::E3M2, false),
    (ElementType::E4M3, false),
    (ElementType::E5M2, false),
    (ElementType::Int8, false),
    (ElementType::Int4, false),
    (ElementType::E2M1, true),
    (ElementType::E2M3, true),
    (ElementType::E3M2, true),
    (ElementType::E4M3, true),
    (ElementType::E5M2, true),
    (ElementType::Int8, true),
    (ElementType::Int4, true),
];

/// Block sizes: below, at and above the standard 32, including one past the largest
/// block the fast quantizer handles.
const BLOCK_SIZES: [usize; 4] = [16, 32, 64, MAX_FUSED_BLOCK + 1];

/// Non-finite, subnormal and signed-zero `f32` bit patterns sprinkled into raw rows.
const SPECIALS: [u32; 10] = [
    0x7fc0_0000, // NaN
    0xffc0_0001, // negative NaN with a payload
    0x7f80_0000, // +Inf
    0xff80_0000, // -Inf
    0x0000_0001, // smallest subnormal
    0x8000_0001,
    0x007f_ffff, // largest subnormal
    0x0000_0000, // +0.0
    0x8000_0000, // -0.0
    0x0080_0000, // smallest normal
];

/// A deterministic row of one of five kinds, so a failing case reproduces from the
/// printed parameters alone:
/// 0. smooth values with outlier channels;
/// 1. raw `f32` bit patterns (any exponent) with NaN, ±Inf, subnormals and ±0.0 mixed in;
/// 2. exact element-grid points and rounding midpoints (and their neighbours) under a
///    block max pinned to the largest element, so each block's scale is `2^e`;
/// 3. blocks pinned at, or one ulp below, the MX+ flush boundary `MIN_SHARED_EXP`, with
///    subnormal companions;
/// 4. blocks whose max is near `f32::MAX`, with companions that underflow once scaled.
fn edge_row(kind: usize, element: ElementType, block: usize, len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (kind as u64) << 56;
    let mut next = move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 32) as u32
    };
    let grid: Vec<f32> = {
        let mut g: Vec<f32> =
            kernels::decode_table(element).iter().map(|v| v.abs()).filter(|v| v.is_finite()).collect();
        g.sort_by(f32::total_cmp);
        g.dedup();
        g
    };
    let scale = pow2((seed % 41) as i32 - 20);
    let pin_at = seed as usize % block;
    let boundary = pow2(MIN_SHARED_EXP + element.emax());
    let below_boundary = f32::from_bits(boundary.to_bits() - 1);
    let flush_pin = if seed.is_multiple_of(2) { boundary * (1.0 + (seed % 7) as f32 / 8.0) } else { below_boundary };
    let max_pin = f32::from_bits(f32::MAX.to_bits() - (seed % 4096) as u32);
    (0..len)
        .map(|i| {
            let r = next();
            let sign = if r & 1 == 1 { -1.0 } else { 1.0 };
            let pinned = i % block == pin_at;
            match kind {
                0 => {
                    let x = (seed.wrapping_mul(2_654_435_761).wrapping_add(i as u64 * 97) % 2001) as f32;
                    (x / 1000.0 - 1.0) * if i % 13 == 7 { 30.0 } else { 1.0 }
                }
                1 if r % 16 == 0 => f32::from_bits(SPECIALS[(r >> 4) as usize % SPECIALS.len()]),
                1 => f32::from_bits(next()),
                2 if pinned => sign * element.max_normal() * scale,
                2 => {
                    let j = (r >> 1) as usize % grid.len();
                    let v = if r & 2 == 0 || j + 1 == grid.len() { grid[j] } else { (grid[j] + grid[j + 1]) / 2.0 };
                    let nudge = [0i32, 0, 1, -1][(r >> 24) as usize % 4];
                    let v = if v == 0.0 { v } else { f32::from_bits((v * scale).to_bits().wrapping_add_signed(nudge)) };
                    sign * v
                }
                3 if pinned => sign * flush_pin,
                3 => sign * f32::from_bits(next() % boundary.to_bits()),
                4 if pinned => sign * max_pin,
                _ => sign * pow2((r >> 8) as i32 % 277 - 149),
            }
        })
        .collect()
}

/// `2^k` for every exponent an `f32` can hold, subnormals included.
fn pow2(k: i32) -> f32 {
    if k >= -126 {
        f32::from_bits(((k + 127) as u32) << 23)
    } else {
        f32::from_bits(1 << (k + 149))
    }
}

/// Bits of a row with every NaN collapsed to one pattern, so NaNs compare as NaN.
fn canonical_bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn row_codec_bytes_and_decode_are_dispatch_invariant(
        seed in 0u64..1_000_000,
        len in prop_oneof![1usize..=8, 28usize..=36, 60usize..=68, 120usize..=132],
        // One past the last cast is BF16, whose rows draw on the E4M3 grid.
        cast_idx in 0usize..=CASTS.len(),
        block_idx in 0usize..BLOCK_SIZES.len(),
        kind in 0usize..5,
    ) {
        let block = BLOCK_SIZES[block_idx];
        let (element, scheme) = match CASTS.get(cast_idx) {
            Some(&(element, true)) => (element, QuantScheme::MxPlus(MxPlusFormat { element, block_size: block })),
            Some(&(element, false)) => (element, QuantScheme::Mx(MxFormat::with_block_size(element, block))),
            None => (ElementType::E4M3, QuantScheme::Bf16),
        };
        let row = edge_row(kind, element, block, len, seed);
        let codec = RowCodec::for_scheme(scheme);
        let nb = codec.packed_bytes(len);
        // One lock for the whole case, so the auto-dispatch run really is dispatched: a
        // concurrently forced-scalar test would otherwise make it a second forced run.
        let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let run = || {
            let mut qdq = vec![f32::NAN; len];
            scheme.quantize_dequantize_into(&row, &mut qdq);
            let mut packed = vec![0xaa_u8; nb];
            codec.pack_row_into(&row, &mut packed);
            let mut unpacked = vec![f32::NAN; len];
            codec.unpack_row_into(&packed, &mut unpacked);
            (canonical_bits(&qdq), packed, canonical_bits(&unpacked))
        };
        let (auto_qdq, auto_packed, auto_unpacked) = run();
        force_scalar(true);
        let (forced_qdq, forced_packed, forced_unpacked) = run();
        force_scalar(false);

        let case = format!("{scheme} block {block} len {len} kind {kind}");
        prop_assert_eq!(&auto_qdq, &forced_qdq, "quantize_dequantize_into must be dispatch-invariant: {}", case);
        prop_assert_eq!(&auto_packed, &forced_packed, "packed bytes must be dispatch-invariant: {}", case);
        prop_assert_eq!(&auto_unpacked, &auto_qdq, "packed round trip must equal fake quantization: {}", case);
        prop_assert_eq!(&forced_unpacked, &auto_qdq, "{}", case);
    }
}

#[test]
fn forced_scalar_switch_is_observable() {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    force_scalar(false);
    let auto = active_backend();
    force_scalar(true);
    assert_eq!(active_backend(), KernelBackend::Scalar);
    assert!(kernels::scalar_forced());
    force_scalar(false);
    assert_eq!(active_backend(), auto);
}
