//! Property-based tests over the format codecs' core invariants.

use proptest::prelude::*;

use mx_formats::block::{fake_quantize_row, MxBlock, BLOCK_SIZE};
use mx_formats::layout::{pack_codes, unpack_codes, PackedMxPlusRow, RowCodec};
use mx_formats::minifloat::{decode_fp, encode_fp, quantize_fp};
use mx_formats::mxplus::{MxPlusBlock, MxPlusFormat};
use mx_formats::mxpp::MxPlusPlusBlock;
use mx_formats::{ElementType, QuantScheme};

fn finite_value() -> impl Strategy<Value = f32> {
    // Magnitudes spanning the interesting dynamic range of activations/weights.
    prop_oneof![
        3 => (-4.0_f32..4.0),
        2 => (-64.0_f32..64.0),
        1 => (-0.05_f32..0.05),
        1 => Just(0.0_f32),
    ]
}

fn block_values() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(finite_value(), 1..=BLOCK_SIZE)
}

fn any_fp_element() -> impl Strategy<Value = ElementType> {
    prop_oneof![
        Just(ElementType::E2M1),
        Just(ElementType::E2M3),
        Just(ElementType::E3M2),
        Just(ElementType::E4M3),
        Just(ElementType::E5M2),
    ]
}

fn sq_err(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| f64::from(x - y) * f64::from(x - y)).sum()
}

proptest! {
    /// Scalar minifloat quantization is idempotent and never exceeds the format maximum.
    #[test]
    fn minifloat_quantization_is_idempotent(et in any_fp_element(), x in -1.0e6_f32..1.0e6) {
        let q = quantize_fp(et, x);
        prop_assert!(q.abs() <= et.max_normal());
        prop_assert_eq!(quantize_fp(et, q), q);
        // The sign is never flipped.
        prop_assert!(q == 0.0 || q.signum() == x.signum());
    }

    /// Encoding always produces a code that fits in the element's bit width and decodes
    /// to a finite value for the NaN-free formats.
    #[test]
    fn minifloat_codes_fit_their_width(et in any_fp_element(), x in -1.0e4_f32..1.0e4) {
        let code = encode_fp(et, x);
        prop_assert!(u16::from(code) < (1 << et.bits()));
        let v = decode_fp(et, code);
        if !et.has_nan() {
            prop_assert!(v.is_finite());
        }
    }

    /// MX block quantization error per element is bounded by the block max (nothing is
    /// ever amplified beyond the scaled grid), and zero blocks stay exactly zero.
    #[test]
    fn mx_block_error_is_bounded(values in block_values()) {
        let block = MxBlock::quantize(ElementType::E2M1, &values);
        let deq = block.dequantize();
        let max_abs = values.iter().map(|v| v.abs()).fold(0.0_f32, f32::max);
        for (x, q) in values.iter().zip(&deq) {
            prop_assert!(q.is_finite());
            // Each element's error is bounded by twice the original block max (a very
            // loose bound that catches scale-handling bugs).
            prop_assert!((x - q).abs() <= 2.0 * max_abs + 1e-6);
        }
    }

    /// The MX+ invariant: replacing the BM's exponent field with extra mantissa can never
    /// increase the block's squared error, and the shared scale is unchanged.
    #[test]
    fn mx_plus_never_increases_error(values in block_values()) {
        let mx = MxBlock::quantize(ElementType::E2M1, &values);
        let plus = MxPlusBlock::quantize(ElementType::E2M1, &values);
        if !mx.scale().is_zero_block() && !plus.scale().is_zero_block() {
            prop_assert_eq!(mx.scale(), plus.scale());
        }
        let e_mx = sq_err(&values, &mx.dequantize());
        let e_plus = sq_err(&values, &plus.dequantize());
        prop_assert!(e_plus <= e_mx + 1e-9, "MX+ {} vs MX {}", e_plus, e_mx);
    }

    /// The MX+ BM split (Equation 3) reconstructs the dequantized BM exactly and both
    /// halves are representable in the plain element type.
    #[test]
    fn bm_split_reconstructs_the_bm(values in block_values()) {
        let plus = MxPlusBlock::quantize(ElementType::E2M1, &values);
        prop_assume!(!plus.scale().is_zero_block());
        let (h, l) = plus.split_bm();
        let bm = plus.dequantize()[plus.bm_index()];
        let scale = plus.scale().value();
        prop_assert!(((h + l) * scale - bm).abs() <= 1e-4 * bm.abs().max(1.0));
        prop_assert_eq!(quantize_fp(ElementType::E2M1, h), h);
        prop_assert_eq!(quantize_fp(ElementType::E2M1, l), l);
    }

    /// MX++ never loses to MX on the same block (its NBM grid is at least as fine and its
    /// BM representation is identical to MX+).
    #[test]
    fn mx_plus_plus_never_loses_to_mx(values in block_values()) {
        let mx = MxBlock::quantize(ElementType::E2M1, &values);
        let pp = MxPlusPlusBlock::quantize(ElementType::E2M1, &values);
        let e_mx = sq_err(&values, &mx.dequantize());
        let e_pp = sq_err(&values, &pp.dequantize());
        prop_assert!(e_pp <= e_mx + 1e-9, "MX++ {} vs MX {}", e_pp, e_mx);
    }

    /// Bit packing round-trips arbitrary code streams at every element width.
    #[test]
    fn packing_round_trips(codes in prop::collection::vec(0u8..=255, 0..200), bits in 1u32..=8) {
        let mask = if bits == 8 { 0xff } else { (1u16 << bits) as u8 - 1 };
        let masked: Vec<u8> = codes.iter().map(|c| c & mask).collect();
        let packed = pack_codes(&masked, bits);
        let unpacked = unpack_codes(&packed, bits, masked.len()).unwrap();
        prop_assert_eq!(unpacked, masked);
    }

    /// A full MX+ row survives pack/unpack bit-exactly.
    #[test]
    fn packed_rows_round_trip(values in prop::collection::vec(finite_value(), 1..200)) {
        let blocks = MxPlusFormat::MXFP4_PLUS.quantize_row(&values);
        let packed = PackedMxPlusRow::pack(&blocks);
        let unpacked = packed.unpack().unwrap();
        let a: Vec<f32> = blocks.iter().flat_map(MxPlusBlock::dequantize).collect();
        let b: Vec<f32> = unpacked.iter().flat_map(MxPlusBlock::dequantize).collect();
        prop_assert_eq!(a, b);
    }

    /// Every high-level scheme preserves length and produces finite values; the plain
    /// power-of-two-scaled schemes are additionally idempotent. The outlier-extended
    /// variants (MX+/MX++/NVFP4+) are excluded from the idempotency check: because the BM
    /// and NBM elements use different grids, a rare corner case exists where an NBM rounds
    /// above the quantized BM and the roles swap on requantization (and NVFP4's E4M3 scale
    /// is re-derived from the new maximum).
    #[test]
    fn schemes_are_idempotent(values in prop::collection::vec(finite_value(), 1..130)) {
        for scheme in [
            QuantScheme::Bf16,
            QuantScheme::mxfp4(),
            QuantScheme::mxfp6(),
            QuantScheme::mxint8(),
        ] {
            let once = scheme.quantize_dequantize(&values);
            prop_assert_eq!(once.len(), values.len());
            prop_assert!(once.iter().all(|v| v.is_finite()));
            let twice = scheme.quantize_dequantize(&once);
            prop_assert_eq!(&once, &twice, "{} not idempotent", scheme.name());
        }
        for scheme in [QuantScheme::mxfp4_plus(), QuantScheme::mxfp4_pp(), QuantScheme::Nvfp4, QuantScheme::Nvfp4Plus] {
            let once = scheme.quantize_dequantize(&values);
            prop_assert_eq!(once.len(), values.len());
            prop_assert!(once.iter().all(|v| v.is_finite()));
        }
    }

    /// Fake quantization of a row equals concatenated per-block quantization regardless of
    /// how the row length relates to the block size.
    #[test]
    fn row_quantization_is_blockwise(values in prop::collection::vec(finite_value(), 1..300)) {
        let whole = fake_quantize_row(ElementType::E2M3, BLOCK_SIZE, &values);
        let mut by_block = Vec::new();
        for chunk in values.chunks(BLOCK_SIZE) {
            by_block.extend(MxBlock::quantize(ElementType::E2M3, chunk).dequantize());
        }
        prop_assert_eq!(whole, by_block);
    }

    /// The packed-row codec invariant the paged KV cache depends on: for every scheme
    /// across the 4/6/8-bit element widths (and BF16 and the f32 fallback), and for row
    /// lengths that are not multiples of the block size, `pack → unpack` reproduces the
    /// scheme's fake quantization bit for bit, at exactly the codec's advertised byte count.
    #[test]
    fn packed_row_codec_round_trips_every_scheme(values in prop::collection::vec(finite_value(), 1..200)) {
        for scheme in [
            // 4-bit element widths
            QuantScheme::mxfp4(),
            QuantScheme::mxint4(),
            QuantScheme::mxfp4_plus(),
            QuantScheme::mxint4_plus(),
            // 6-bit element widths
            QuantScheme::mxfp6(),
            QuantScheme::Mx(mx_formats::MxFormat::MXFP6_E3M2),
            QuantScheme::mxfp6_plus(),
            // 8-bit element widths
            QuantScheme::mxfp8(),
            QuantScheme::mxint8(),
            QuantScheme::mxfp8_plus(),
            QuantScheme::mxint8_plus(),
            // 16-bit codec
            QuantScheme::Bf16,
            // f32 fallback codec
            QuantScheme::mxfp4_pp(),
            QuantScheme::Nvfp4Plus,
        ] {
            let codec = RowCodec::for_scheme(scheme);
            let mut packed = vec![0x5a_u8; codec.packed_bytes(values.len())];
            codec.pack_row_into(&values, &mut packed);
            let mut restored = vec![f32::NAN; values.len()];
            codec.unpack_row_into(&packed, &mut restored);
            prop_assert_eq!(restored, scheme.quantize_dequantize(&values), "{}", scheme.name());
        }
    }

    /// Bit-packed codecs never store more than the per-block byte-ceiled scheme width,
    /// and always beat f32 storage for rows of at least one element.
    #[test]
    fn packed_row_codec_bytes_beat_f32(len in 1usize..300) {
        for scheme in [QuantScheme::mxfp4(), QuantScheme::mxfp6(), QuantScheme::mxfp8(), QuantScheme::mxfp4_plus()] {
            let codec = RowCodec::for_scheme(scheme);
            prop_assert!(codec.is_bit_packed());
            prop_assert!(codec.packed_bytes(len) < len * 4, "{} len {len}", scheme.name());
        }
    }
}
