//! Scalar codecs for the low-bit element data types.
//!
//! These functions convert between `f32` and the raw bit codes of each
//! [`ElementType`](crate::ElementType), using round-to-nearest-even and saturation
//! semantics, exactly as the MX block codecs require. They are deliberately scalar and
//! branch-heavy rather than table-driven so that every rounding decision is visible and
//! testable. They are the reference: [`MxBlock`](crate::MxBlock) and
//! [`MxPlusBlock`](crate::MxPlusBlock) compose them, and the fast block quantizer in
//! `cast.rs` that serves the hot paths must match them bit for bit.

use crate::element::ElementType;

/// Encodes `x` into the raw bit code of the floating-point element type `et`.
///
/// Rounding is round-to-nearest-even. Values whose magnitude exceeds the largest finite
/// representable value saturate to it (MX conversions never generate Inf/NaN). NaN inputs
/// encode as the canonical NaN for types that have one (E4M3, E5M2) and as zero otherwise.
///
/// # Panics
///
/// Panics if `et` is an integer element type; use [`encode_int`] for those.
#[must_use]
pub fn encode_fp(et: ElementType, x: f32) -> u8 {
    assert!(!et.is_int(), "encode_fp called with integer element type {et}");
    let man_bits = et.man_bits();
    let exp_bits = et.exp_bits();
    let bias = et.bias();
    let sign_bit = u8::from(x.is_sign_negative()) << (exp_bits + man_bits);

    if x.is_nan() {
        return if et.has_nan() { nan_code(et) } else { 0 };
    }
    let a = x.abs();
    if a == 0.0 {
        return sign_bit;
    }
    if a >= et.max_normal() {
        return sign_bit | max_finite_code(et);
    }

    // Below the normal range: encode as a subnormal (no implicit leading one).
    let min_normal = et.min_normal();
    if a < min_normal {
        let ulp = et.min_subnormal();
        let m = (a / ulp).round_ties_even() as u32;
        if m == 0 {
            return sign_bit;
        }
        if m >= (1 << man_bits) {
            // Rounded up into the normal range: exponent field 1, mantissa 0.
            return sign_bit | (1 << man_bits);
        }
        return sign_bit | (m as u8);
    }

    // Normal range.
    let mut e = a.log2().floor() as i32;
    // Guard against log2 landing exactly on a power-of-two boundary from below.
    if a < (2.0_f32).powi(e) {
        e -= 1;
    } else if a >= (2.0_f32).powi(e + 1) {
        e += 1;
    }
    let scale = (2.0_f32).powi(e);
    let frac = ((a / scale - 1.0) * (1u32 << man_bits) as f32).round_ties_even() as u32;
    let (mut e, mut frac) = (e, frac);
    if frac >= (1 << man_bits) {
        e += 1;
        frac = 0;
    }
    if e > et.emax() || (e == et.emax() && frac > (max_finite_code(et) & man_mask(et)) as u32) {
        return sign_bit | max_finite_code(et);
    }
    let exp_field = (e + bias) as u8;
    sign_bit | (exp_field << man_bits) | frac as u8
}

/// Decodes a raw element code of floating-point type `et` back to `f32`.
///
/// Codes with bits above the element width are ignored (masked off).
///
/// # Panics
///
/// Panics if `et` is an integer element type; use [`decode_int`] for those.
#[must_use]
pub fn decode_fp(et: ElementType, code: u8) -> f32 {
    assert!(!et.is_int(), "decode_fp called with integer element type {et}");
    let man_bits = et.man_bits();
    let exp_bits = et.exp_bits();
    let bias = et.bias();
    let code = code & (((1u16 << et.bits()) - 1) as u8);

    let sign = if code >> (exp_bits + man_bits) & 1 == 1 { -1.0 } else { 1.0 };
    let exp_field = (code >> man_bits) & (((1u16 << exp_bits) - 1) as u8);
    let man_field = code & (((1u16 << man_bits) - 1) as u8);

    // Special values for the 8-bit types.
    if et == ElementType::E5M2 && exp_field == (1 << exp_bits) - 1 {
        return if man_field == 0 { sign * f32::INFINITY } else { f32::NAN };
    }
    if et == ElementType::E4M3 && exp_field == (1 << exp_bits) - 1 && man_field == (1 << man_bits) - 1 {
        return f32::NAN;
    }

    let man_den = (1u32 << man_bits) as f32;
    if exp_field == 0 {
        // Subnormal: no implicit leading one.
        sign * (man_field as f32 / man_den) * (2.0_f32).powi(1 - bias)
    } else {
        sign * (1.0 + man_field as f32 / man_den) * (2.0_f32).powi(exp_field as i32 - bias)
    }
}

/// Quantizes `x` to the floating-point element type `et` and returns the representable
/// value (an encode/decode round trip).
#[must_use]
pub fn quantize_fp(et: ElementType, x: f32) -> f32 {
    decode_fp(et, encode_fp(et, x))
}

/// Encodes `x` into the two's-complement code of the integer element type `et`.
///
/// The fixed-point interpretation is `value = int * 2^-man_bits`; the integer is clamped
/// symmetrically to `±(2^(bits-1) - 1)` as in the MXINT8 definition.
///
/// # Panics
///
/// Panics if `et` is a floating-point element type.
#[must_use]
pub fn encode_int(et: ElementType, x: f32) -> u8 {
    assert!(et.is_int(), "encode_int called with floating-point element type {et}");
    let bits = et.bits();
    let max_int = (1i32 << (bits - 1)) - 1;
    let scaled = (x * (1u32 << et.man_bits()) as f32).round_ties_even();
    let clamped = if scaled.is_nan() { 0 } else { scaled.clamp(-(max_int as f32), max_int as f32) as i32 };
    (clamped as u32 & ((1u32 << bits) - 1)) as u8
}

/// Decodes a two's-complement integer element code back to `f32`.
///
/// # Panics
///
/// Panics if `et` is a floating-point element type.
#[must_use]
pub fn decode_int(et: ElementType, code: u8) -> f32 {
    assert!(et.is_int(), "decode_int called with floating-point element type {et}");
    let bits = et.bits();
    let raw = u32::from(code) & ((1 << bits) - 1);
    // Sign extend.
    let value = if raw & (1 << (bits - 1)) != 0 { (raw as i32) - (1 << bits) } else { raw as i32 };
    value as f32 / (1u32 << et.man_bits()) as f32
}

/// Quantizes `x` to the integer element type `et` (encode/decode round trip).
#[must_use]
pub fn quantize_int(et: ElementType, x: f32) -> f32 {
    decode_int(et, encode_int(et, x))
}

/// Quantizes `x` with whichever codec matches the element type.
#[must_use]
pub fn quantize(et: ElementType, x: f32) -> f32 {
    if et.is_int() {
        quantize_int(et, x)
    } else {
        quantize_fp(et, x)
    }
}

/// Encodes the *block-max* element under the MX+ extension.
///
/// `scaled_abs` is the magnitude of the BM element *after* division by the shared scale.
/// For floating-point element types it lies in `[2^emax, 2^(emax+1))` by construction of
/// Equation 1; the exponent is therefore implicit and the value is stored as a pure
/// extended mantissa of [`ElementType::plus_bm_man_bits`] bits (Figure 7: E0M3/E0M5/E0M7).
/// For the integer element types the scaled magnitude lies in `[1, 2)` and the always-one
/// integer bit is made implicit (Section 8.2).
///
/// Returns the `(code, sign)` pair where `code` has exactly `plus_bm_man_bits` significant
/// bits. Out-of-range inputs saturate.
#[must_use]
pub fn encode_bm_extended(et: ElementType, scaled_abs: f32, negative: bool) -> u8 {
    let k = et.plus_bm_man_bits();
    let base = if et.is_int() { 1.0 } else { (2.0_f32).powi(et.emax()) };
    let frac = ((scaled_abs / base - 1.0) * (1u32 << k) as f32).round_ties_even();
    let m = if frac.is_nan() { 0 } else { frac.clamp(0.0, ((1u32 << k) - 1) as f32) as u32 };
    let sign_bit = u8::from(negative) << k;
    sign_bit | m as u8
}

/// Decodes an MX+ block-max code produced by [`encode_bm_extended`] back to the scaled
/// magnitude (still relative to the shared scale), with the sign applied.
#[must_use]
pub fn decode_bm_extended(et: ElementType, code: u8) -> f32 {
    let k = et.plus_bm_man_bits();
    let base = if et.is_int() { 1.0 } else { (2.0_f32).powi(et.emax()) };
    let sign = if code >> k & 1 == 1 { -1.0 } else { 1.0 };
    let m = u32::from(code) & ((1 << k) - 1);
    sign * base * (1.0 + m as f32 / (1u32 << k) as f32)
}

/// The largest finite code (positive sign) for a floating-point element type.
#[must_use]
pub fn max_finite_code(et: ElementType) -> u8 {
    match et {
        // No NaN: all bits set below the sign are the max finite value.
        ElementType::E2M1 | ElementType::E2M3 | ElementType::E3M2 => {
            ((1u16 << (et.exp_bits() + et.man_bits())) - 1) as u8
        }
        // E4M3: S.1111.111 is NaN, so the max finite is S.1111.110.
        ElementType::E4M3 => 0x7e,
        // E5M2: S.11111.xx are Inf/NaN, so the max finite is S.11110.11.
        ElementType::E5M2 => 0x7b,
        ElementType::Int8 => 0x7f,
        ElementType::Int4 => 0x07,
    }
}

/// The canonical NaN code for element types that have one.
#[must_use]
pub fn nan_code(et: ElementType) -> u8 {
    match et {
        ElementType::E4M3 => 0x7f,
        ElementType::E5M2 => 0x7e,
        _ => 0,
    }
}

fn man_mask(et: ElementType) -> u8 {
    ((1u16 << et.man_bits()) - 1) as u8
}

/// Enumerates every representable non-negative value of a floating-point element type,
/// in increasing order. Useful for exhaustive tests and for the quantization-grid
/// analysis in the paper's Section 3.2.
#[must_use]
pub fn positive_grid(et: ElementType) -> Vec<f32> {
    assert!(!et.is_int());
    let mut out = Vec::new();
    for code in 0..(1u16 << (et.bits() - 1)) {
        let v = decode_fp(et, code as u8);
        if v.is_finite() {
            out.push(v);
        }
    }
    // total_cmp orders finite floats identically to partial_cmp, without the NaN escape
    // hatch (the is_finite filter above already excludes NaN anyway).
    out.sort_by(f32::total_cmp);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP_TYPES: [ElementType; 5] = ElementType::FP_TYPES;

    #[test]
    fn zero_round_trips() {
        for et in FP_TYPES {
            assert_eq!(quantize_fp(et, 0.0), 0.0);
            assert_eq!(quantize_fp(et, -0.0), 0.0);
        }
        assert_eq!(quantize_int(ElementType::Int8, 0.0), 0.0);
    }

    #[test]
    fn representable_values_round_trip_exactly() {
        for et in FP_TYPES {
            for v in positive_grid(et) {
                assert_eq!(quantize_fp(et, v), v, "{et} value {v}");
                assert_eq!(quantize_fp(et, -v), -v, "{et} value -{v}");
            }
        }
    }

    #[test]
    fn e2m1_grid_matches_spec() {
        // E2M1 representable magnitudes: 0, 0.5, 1, 1.5, 2, 3, 4, 6.
        let grid = positive_grid(ElementType::E2M1);
        assert_eq!(grid, vec![0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn e2m3_grid_extremes() {
        let grid = positive_grid(ElementType::E2M3);
        assert_eq!(grid.len(), 32);
        assert_eq!(*grid.last().unwrap(), 7.5);
        assert_eq!(grid[1], 0.125); // smallest subnormal 2^(1-1-3)
    }

    #[test]
    fn saturation_to_max_normal() {
        for et in FP_TYPES {
            assert_eq!(quantize_fp(et, 1e30), et.max_normal());
            assert_eq!(quantize_fp(et, -1e30), -et.max_normal());
        }
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // In E2M1 the grid around 1.0 is {1.0, 1.5}: 1.25 is a tie and must go to even
        // mantissa (1.0, whose mantissa bit is 0).
        assert_eq!(quantize_fp(ElementType::E2M1, 1.25), 1.0);
        // 1.75 ties between 1.5 and 2.0 -> 2.0 (mantissa 0 at the next exponent).
        assert_eq!(quantize_fp(ElementType::E2M1, 1.75), 2.0);
        // 2.5 ties between 2 and 3 -> 2 (even mantissa).
        assert_eq!(quantize_fp(ElementType::E2M1, 2.5), 2.0);
        // 5.0 ties between 4 and 6 -> 4.
        assert_eq!(quantize_fp(ElementType::E2M1, 5.0), 4.0);
    }

    #[test]
    fn rounding_never_moves_more_than_half_ulp_for_normals() {
        let et = ElementType::E4M3;
        for i in 0..2000 {
            // Stay within the normal range (above min_normal = 2^-6).
            let x = 0.05 * i as f32 + 0.03;
            if x >= et.max_normal() {
                break;
            }
            let q = quantize_fp(et, x);
            let e = q.abs().log2().floor() as i32;
            let ulp = (2.0_f32).powi(e - et.man_bits() as i32);
            assert!((q - x).abs() <= ulp * 0.5 + 1e-7, "x={x} q={q} ulp={ulp}");
        }
    }

    #[test]
    fn subnormals_flush_and_round_correctly() {
        let et = ElementType::E2M1;
        // min subnormal is 0.5; 0.24 rounds to 0, 0.26 rounds to 0.5.
        assert_eq!(quantize_fp(et, 0.24), 0.0);
        assert_eq!(quantize_fp(et, 0.26), 0.5);
        // Tie at exactly 0.25 goes to even (0.0).
        assert_eq!(quantize_fp(et, 0.25), 0.0);
        assert_eq!(quantize_fp(et, 0.75), 1.0); // tie between 0.5 and 1.0 -> 1.0 (even)
    }

    #[test]
    fn nan_handling() {
        assert!(decode_fp(ElementType::E4M3, nan_code(ElementType::E4M3)).is_nan());
        assert!(decode_fp(ElementType::E5M2, 0x7e).is_nan());
        assert!(decode_fp(ElementType::E5M2, 0x7c).is_infinite());
        assert_eq!(encode_fp(ElementType::E2M1, f32::NAN), 0);
        assert_eq!(encode_fp(ElementType::E4M3, f32::NAN), nan_code(ElementType::E4M3));
    }

    #[test]
    fn e4m3_max_finite_is_448() {
        assert_eq!(decode_fp(ElementType::E4M3, max_finite_code(ElementType::E4M3)), 448.0);
        assert_eq!(decode_fp(ElementType::E5M2, max_finite_code(ElementType::E5M2)), 57_344.0);
    }

    #[test]
    fn int8_round_trip_and_clamp() {
        let et = ElementType::Int8;
        assert_eq!(quantize_int(et, 1.0), 1.0);
        assert_eq!(quantize_int(et, -1.0), -1.0);
        assert_eq!(quantize_int(et, 0.015625), 1.0 / 64.0);
        // Clamps symmetrically at 127/64.
        assert_eq!(quantize_int(et, 5.0), 127.0 / 64.0);
        assert_eq!(quantize_int(et, -5.0), -127.0 / 64.0);
    }

    #[test]
    fn int4_round_trip() {
        let et = ElementType::Int4;
        assert_eq!(quantize_int(et, 0.25), 0.25);
        assert_eq!(quantize_int(et, 1.75), 1.75);
        assert_eq!(quantize_int(et, 2.5), 1.75);
        assert_eq!(quantize_int(et, -1.75), -1.75);
    }

    #[test]
    fn bm_extended_has_more_precision_than_element() {
        // Scaled BM for E2M1 lives in [4, 8). Plain E2M1 can only represent 4 and 6 there;
        // the extended mantissa gives eight steps of 0.5.
        let et = ElementType::E2M1;
        let code = encode_bm_extended(et, 5.0, false);
        assert_eq!(decode_bm_extended(et, code), 5.0);
        let code = encode_bm_extended(et, 7.5, true);
        assert_eq!(decode_bm_extended(et, code), -7.5);
        // Plain E2M1 would round 5.0 to 4.0 or 6.0.
        assert_ne!(quantize_fp(et, 5.0), 5.0);
    }

    #[test]
    fn bm_extended_saturates_gracefully() {
        let et = ElementType::E2M1;
        // At or above 8.0 the mantissa saturates to 7.5 (all ones).
        assert_eq!(decode_bm_extended(et, encode_bm_extended(et, 8.5, false)), 7.5);
        // Below the base it clamps to the base value.
        assert_eq!(decode_bm_extended(et, encode_bm_extended(et, 3.0, false)), 4.0);
    }

    #[test]
    fn bm_extended_int_uses_implicit_integer_bit() {
        let et = ElementType::Int8;
        // Scaled BM in [1, 2): 7 fraction bits available.
        let code = encode_bm_extended(et, 1.0 + 3.0 / 128.0, false);
        assert!((decode_bm_extended(et, code) - (1.0 + 3.0 / 128.0)).abs() < 1e-7);
    }

    #[test]
    fn decode_masks_out_of_range_bits() {
        // Upper bits beyond the element width must be ignored.
        let v1 = decode_fp(ElementType::E2M1, 0b0000_0101);
        let v2 = decode_fp(ElementType::E2M1, 0b1111_0101);
        assert_eq!(v1, v2);
    }

    #[test]
    fn grid_is_monotone_in_code_for_positive_codes() {
        for et in FP_TYPES {
            let mut prev = f32::NEG_INFINITY;
            for code in 0..(1u16 << (et.bits() - 1)) {
                let v = decode_fp(et, code as u8);
                if v.is_finite() {
                    assert!(v >= prev, "{et} code {code}");
                    prev = v;
                }
            }
        }
    }
}
