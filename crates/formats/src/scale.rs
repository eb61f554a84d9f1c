//! The E8M0 shared-scale codec used by the MX format family.
//!
//! An MX block carries one 8-bit shared scale `X = 2^shared_exp`. The encoding is a pure
//! biased exponent (bias 127) with no sign or mantissa bits. Following the paper's MX+
//! flush-to-zero rule (Section 4.1), the biased value 0 is reserved to mean "every element
//! in the block is zero", and the biased value 255 is the NaN scale of the OCP spec.

use serde::{Deserialize, Serialize};

/// Exponent bias of the E8M0 encoding.
pub const E8M0_BIAS: i32 = 127;

/// Smallest unbiased exponent representable once the zero code is reserved (-126).
pub const MIN_SHARED_EXP: i32 = 1 - E8M0_BIAS;

/// Largest unbiased exponent representable (+127).
pub const MAX_SHARED_EXP: i32 = 254 - E8M0_BIAS;

/// A shared block scale restricted to powers of two, stored as an E8M0 byte.
///
/// ```
/// use mx_formats::SharedScale;
///
/// let s = SharedScale::from_exponent(-3);
/// assert_eq!(s.value(), 0.125);
/// assert_eq!(SharedScale::from_bits(s.to_bits()), s);
/// assert_eq!(SharedScale::ZERO_BLOCK.value(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SharedScale(u8);

impl SharedScale {
    /// The reserved code meaning "all elements of this block are zero" (MX+ Section 4.1).
    pub const ZERO_BLOCK: SharedScale = SharedScale(0);

    /// The OCP NaN scale code (biased exponent 255).
    pub const NAN: SharedScale = SharedScale(255);

    /// Creates a scale `2^exp`, clamping `exp` to the representable range
    /// [[`MIN_SHARED_EXP`], [`MAX_SHARED_EXP`]].
    #[must_use]
    pub fn from_exponent(exp: i32) -> Self {
        let clamped = exp.clamp(MIN_SHARED_EXP, MAX_SHARED_EXP);
        SharedScale((clamped + E8M0_BIAS) as u8)
    }

    /// Reconstructs a scale from its raw E8M0 byte.
    #[must_use]
    pub const fn from_bits(bits: u8) -> Self {
        SharedScale(bits)
    }

    /// Raw E8M0 byte.
    #[must_use]
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Whether this is the reserved all-zero-block code.
    #[must_use]
    pub const fn is_zero_block(self) -> bool {
        self.0 == 0
    }

    /// Whether this is the NaN scale code.
    #[must_use]
    pub const fn is_nan(self) -> bool {
        self.0 == 255
    }

    /// Unbiased exponent. Returns `None` for the reserved zero-block and NaN codes.
    #[must_use]
    pub fn exponent(self) -> Option<i32> {
        if self.is_zero_block() || self.is_nan() {
            None
        } else {
            Some(i32::from(self.0) - E8M0_BIAS)
        }
    }

    /// The scale factor as an `f32`: `2^exponent`, `0.0` for the zero-block code, NaN for
    /// the NaN code.
    ///
    /// The E8M0 byte of a normal scale is exactly the biased exponent field of the `f32`
    /// `2^exponent` (bias 127 in both), so the byte shifted into that field *is* the scale:
    /// no `powi`. Every block decode calls this.
    #[must_use]
    pub fn value(self) -> f32 {
        match self.0 {
            0 => 0.0,
            255 => f32::NAN,
            bits => f32::from_bits(u32::from(bits) << 23),
        }
    }
}

impl Default for SharedScale {
    fn default() -> Self {
        SharedScale::from_exponent(0)
    }
}

/// Computes the MX shared exponent of Equation 1 for a block of values:
/// `shared_exp = floor(log2(max|x|)) - emax`.
///
/// Returns `None` when the block is entirely zero (or contains only non-finite junk),
/// which callers encode as [`SharedScale::ZERO_BLOCK`].
#[must_use]
pub fn shared_exponent(values: &[f32], emax: i32) -> Option<i32> {
    let max_abs = values.iter().map(|v| v.abs()).filter(|v| v.is_finite()).fold(0.0_f32, f32::max);
    if max_abs == 0.0 {
        return None;
    }
    Some(floor_log2(max_abs) - emax)
}

/// `floor(log2(x))` computed from the IEEE-754 representation so that exact powers of two
/// never land on the wrong side of the boundary.
#[must_use]
pub fn floor_log2(x: f32) -> i32 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let exp = ((bits >> 23) & 0xff) as i32;
    if exp == 0 {
        // Subnormal f32: `x = mantissa · 2^-149`, so the mantissa's top set bit gives it.
        (31 - (bits & 0x007f_ffff).leading_zeros()) as i32 - 149
    } else {
        exp - 127
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exponents() {
        for exp in MIN_SHARED_EXP..=MAX_SHARED_EXP {
            let s = SharedScale::from_exponent(exp);
            assert_eq!(s.exponent(), Some(exp));
            assert_eq!(s.value(), (2.0_f32).powi(exp));
            assert_eq!(SharedScale::from_bits(s.to_bits()), s);
        }
    }

    #[test]
    fn value_equals_the_powi_expression_for_every_byte() {
        for bits in 0..=255u8 {
            let expected = match bits {
                0 => 0.0_f32,
                255 => f32::NAN,
                b => (2.0_f32).powi(i32::from(b) - E8M0_BIAS),
            };
            assert_eq!(SharedScale::from_bits(bits).value().to_bits(), expected.to_bits(), "byte {bits}");
        }
    }

    #[test]
    fn clamping_at_range_ends() {
        assert_eq!(SharedScale::from_exponent(-500).exponent(), Some(MIN_SHARED_EXP));
        assert_eq!(SharedScale::from_exponent(500).exponent(), Some(MAX_SHARED_EXP));
    }

    #[test]
    fn reserved_codes() {
        assert!(SharedScale::ZERO_BLOCK.is_zero_block());
        assert_eq!(SharedScale::ZERO_BLOCK.value(), 0.0);
        assert_eq!(SharedScale::ZERO_BLOCK.exponent(), None);
        assert!(SharedScale::NAN.is_nan());
        assert!(SharedScale::NAN.value().is_nan());
    }

    #[test]
    fn floor_log2_exact_powers() {
        for e in -120..120 {
            let x = (2.0_f32).powi(e);
            assert_eq!(floor_log2(x), e, "2^{e}");
            assert_eq!(floor_log2(x * 1.5), e);
            assert_eq!(floor_log2(x * 1.999), e);
        }
        // Subnormals are exact too, including just below the smallest normal.
        assert_eq!(floor_log2(f32::from_bits(1)), -149);
        assert_eq!(floor_log2(f32::from_bits(0x0040_0000)), -127);
        assert_eq!(floor_log2(f32::from_bits(0x007f_ffff)), -127);
    }

    #[test]
    fn shared_exponent_matches_equation_1() {
        // Paper Figure 6: block max 9.84 with E2M1 (emax 2): floor(log2 9.84)=3, shared=1.
        let block = [-0.27, -0.19, 0.99, -0.20, -9.84, -0.39];
        assert_eq!(shared_exponent(&block, 2), Some(1));
        // Lower sampled block of Figure 4(b): max 1.02 -> floor log2 = 0, shared = -2.
        let block = [-0.27, 0.04, -1.02, 0.18, -0.45, -0.20];
        assert_eq!(shared_exponent(&block, 2), Some(-2));
    }

    #[test]
    fn shared_exponent_of_zero_block_is_none() {
        assert_eq!(shared_exponent(&[0.0; 32], 2), None);
        assert_eq!(shared_exponent(&[], 2), None);
    }

    #[test]
    fn shared_exponent_ignores_non_finite() {
        assert_eq!(shared_exponent(&[f32::NAN, 4.0], 2), Some(0));
    }

    #[test]
    fn default_scale_is_one() {
        assert_eq!(SharedScale::default().value(), 1.0);
    }
}
