//! The basic MX block codec: 32 elements sharing one power-of-two scale.

use serde::{Deserialize, Serialize};

use crate::element::ElementType;
use crate::error::FormatError;
use crate::minifloat;
use crate::scale::{self, SharedScale};

/// Number of elements per MX block as defined by the OCP specification.
pub const BLOCK_SIZE: usize = 32;

/// A quantized MX block: one shared scale plus per-element codes.
///
/// The block length is whatever slice was passed to [`MxBlock::quantize`]; full MX blocks
/// hold [`BLOCK_SIZE`] elements but tails of tensors whose inner dimension is not a
/// multiple of 32 may produce shorter blocks.
///
/// ```
/// use mx_formats::{ElementType, MxBlock};
///
/// let values = [0.4_f32, -1.3, 2.0, 0.05];
/// let block = MxBlock::quantize(ElementType::E2M1, &values);
/// let restored = block.dequantize();
/// assert_eq!(restored.len(), values.len());
/// // The block max is always representable within one element ULP of the scaled grid.
/// assert!((restored[2] - 2.0).abs() <= 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MxBlock {
    element: ElementType,
    scale: SharedScale,
    codes: Vec<u8>,
}

impl MxBlock {
    /// Quantizes a slice of values into an MX block with element type `element`.
    ///
    /// The shared exponent follows Equation 1 of the paper:
    /// `shared_exp = floor(log2(max|x|)) - e_max`. An all-zero block is encoded with the
    /// reserved zero-block scale.
    #[must_use]
    pub fn quantize(element: ElementType, values: &[f32]) -> Self {
        let mut codes = vec![0u8; values.len()];
        let scale = quantize_codes_into(element, values, &mut codes);
        MxBlock { element, scale, codes }
    }

    /// Reconstructs the block from stored parts.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidCode`] if any code does not fit in the element width.
    pub fn from_parts(element: ElementType, scale: SharedScale, codes: Vec<u8>) -> Result<Self, FormatError> {
        let mask = if element.bits() == 8 { 0xffu16 } else { (1u16 << element.bits()) - 1 };
        for &c in &codes {
            if u16::from(c) > mask {
                return Err(FormatError::InvalidCode { code: u16::from(c), bits: element.bits() });
            }
        }
        Ok(MxBlock { element, scale, codes })
    }

    /// The element data type of this block.
    #[must_use]
    pub fn element(&self) -> ElementType {
        self.element
    }

    /// The shared scale of this block.
    #[must_use]
    pub fn scale(&self) -> SharedScale {
        self.scale
    }

    /// The raw element codes.
    #[must_use]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Number of elements in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the block holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dequantizes the block back to `f32` values.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.codes.len()];
        self.dequantize_into(&mut out);
        out
    }

    /// Dequantizes into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.codes.len(), "output length must equal block length");
        dequantize_codes_into(self.element, self.scale, None, &self.codes, out);
    }

    /// Index of the block-max (largest magnitude) element of the original values.
    ///
    /// This is the element whose exponent determined the shared scale; ties resolve to
    /// the first occurrence, matching the conversion-kernel behaviour described in
    /// Section 4.1 of the paper.
    #[must_use]
    pub fn block_max_index(values: &[f32]) -> usize {
        let mut best = 0;
        let mut best_abs = f32::NEG_INFINITY;
        for (i, &v) in values.iter().enumerate() {
            let a = if v.is_finite() { v.abs() } else { 0.0 };
            if a > best_abs {
                best_abs = a;
                best = i;
            }
        }
        best
    }

    /// Storage cost of one block in bits (elements plus the shared-scale byte).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.codes.len() * self.element.bits() as usize + 8
    }
}

/// Quantizes `values` into per-element codes written to `codes` and returns the shared
/// scale — the allocation-free core of [`MxBlock::quantize`], for hot paths (the packed
/// row encoder) that reuse one stack buffer across blocks.
///
/// # Panics
///
/// Panics if `codes.len() != values.len()`.
pub fn quantize_codes_into(element: ElementType, values: &[f32], codes: &mut [u8]) -> SharedScale {
    assert_eq!(codes.len(), values.len(), "code buffer length must equal block length");
    let Some(exp) = scale::shared_exponent(values, element.emax()) else {
        codes.fill(0);
        return SharedScale::ZERO_BLOCK;
    };
    let scale = SharedScale::from_exponent(exp);
    let s = scale.value();
    for (c, &v) in codes.iter_mut().zip(values) {
        let scaled = v / s;
        *c = if element.is_int() {
            minifloat::encode_int(element, scaled)
        } else {
            minifloat::encode_fp(element, scaled)
        };
    }
    scale
}

/// The reference block decoder behind [`MxBlock::dequantize_into`] and
/// [`MxPlusBlock::dequantize_into`](crate::mxplus::MxPlusBlock::dequantize_into): the
/// zero-block scale decodes to zeros, `bm` names the MX+ block-max slot (decoded from
/// its extended mantissa), and every other code goes through the scalar element decoder.
pub(crate) fn dequantize_codes_into(
    element: ElementType,
    scale: SharedScale,
    bm: Option<usize>,
    codes: &[u8],
    out: &mut [f32],
) {
    if scale.is_zero_block() {
        out.fill(0.0);
        return;
    }
    let s = scale.value();
    for (i, (o, &c)) in out.iter_mut().zip(codes).enumerate() {
        let e = if bm == Some(i) {
            minifloat::decode_bm_extended(element, c)
        } else if element.is_int() {
            minifloat::decode_int(element, c)
        } else {
            minifloat::decode_fp(element, c)
        };
        *o = e * s;
    }
}

/// Splits a row into blocks of `block_size`, quantizes each with `element`, and returns
/// the dequantized ("fake quantized") row. This is the drop-in direct-cast path used for
/// the model-quality experiments.
#[must_use]
pub fn fake_quantize_row(element: ElementType, block_size: usize, values: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; values.len()];
    fake_quantize_row_into(element, block_size, values, &mut out);
    out
}

/// Like [`fake_quantize_row`], but writes into a caller-provided buffer so hot loops can
/// reuse one scratch allocation across rows (the KV-cache append path depends on this).
/// Runs on the fast block quantizer (`cast.rs`), bit-identical to dequantizing
/// [`MxBlock::quantize`] of every block.
///
/// # Panics
///
/// Panics if `block_size == 0` or `out.len() != values.len()`.
pub fn fake_quantize_row_into(element: ElementType, block_size: usize, values: &[f32], out: &mut [f32]) {
    crate::cast::quantize_dequantize_into(element, block_size, false, values, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mse(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>() / a.len() as f32
    }

    #[test]
    fn zero_block_round_trips_to_zero() {
        let block = MxBlock::quantize(ElementType::E2M1, &[0.0; BLOCK_SIZE]);
        assert!(block.scale().is_zero_block());
        assert_eq!(block.dequantize(), vec![0.0; BLOCK_SIZE]);
    }

    #[test]
    fn paper_figure_4_upper_block_mxfp4() {
        // Figure 4(b), upper sampled block: BF16 values and their MXFP4 representation.
        // The outlier -9.84 forces shared scale 2^1 and the small values collapse to 0.
        let values = [-0.27_f32, -0.19, 0.99, -0.20, -9.84, -0.39];
        let block = MxBlock::quantize(ElementType::E2M1, &values);
        let deq = block.dequantize();
        assert_eq!(block.scale().exponent(), Some(1));
        assert_eq!(deq[0], 0.0);
        assert_eq!(deq[1], 0.0);
        assert_eq!(deq[2], 1.0);
        assert_eq!(deq[3], 0.0);
        assert_eq!(deq[4], -8.0);
        assert_eq!(deq[5], 0.0);
    }

    #[test]
    fn paper_figure_4_upper_block_mxfp6() {
        // Same block in MXFP6 (E2M3): the paper reports -0.25, -0.25(?), 1.00, -0.25(?), -10.00.
        // The key checks: the outlier maps to -10.0 and small values stay non-zero.
        let values = [-0.27_f32, -0.19, 0.99, -0.20, -9.84, -0.39];
        let block = MxBlock::quantize(ElementType::E2M3, &values);
        let deq = block.dequantize();
        assert_eq!(block.scale().exponent(), Some(1));
        assert_eq!(deq[4], -10.0);
        assert_eq!(deq[2], 1.0);
        assert!((deq[0] - -0.25).abs() < 1e-6);
        assert!(deq[1] != 0.0 && deq[5] != 0.0);
    }

    #[test]
    fn paper_figure_4_lower_block_mxfp4() {
        // Figure 4(b), lower sampled block (no outlier): MXFP4 keeps reasonable precision.
        let values = [-0.27_f32, 0.04, -1.02, 0.18, -0.45, -0.20];
        let block = MxBlock::quantize(ElementType::E2M1, &values);
        let deq = block.dequantize();
        assert_eq!(block.scale().exponent(), Some(-2));
        assert_eq!(deq[2], -1.0);
        assert!((deq[0] - -0.25).abs() < 1e-6);
        assert!((deq[4] - -0.5).abs() < 1e-6);
        // Paper reports 0.13 for the 0.18 input, i.e. the representable value 0.125.
        assert!((deq[3] - 0.125).abs() < 1e-6);
    }

    #[test]
    fn outlier_block_has_higher_error_than_regular_block() {
        let with_outlier = [-0.27_f32, -0.19, 0.99, -0.20, -9.84, -0.39];
        let without = [-0.27_f32, 0.04, -1.02, 0.18, -0.45, -0.20];
        let b1 = MxBlock::quantize(ElementType::E2M1, &with_outlier);
        let b2 = MxBlock::quantize(ElementType::E2M1, &without);
        // Exclude the outlier itself when comparing the error on the small elements:
        // the shared scale inflated by the outlier destroys the NBMs.
        let deq1 = b1.dequantize();
        let deq2 = b2.dequantize();
        let nbm_err1: f32 = with_outlier
            .iter()
            .zip(&deq1)
            .enumerate()
            .filter(|(i, _)| *i != 4)
            .map(|(_, (x, y))| (x - y) * (x - y))
            .sum();
        let nbm_err2: f32 = without.iter().zip(&deq2).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!(nbm_err1 > nbm_err2 * 2.0);
    }

    #[test]
    fn larger_element_types_reduce_error() {
        let values: Vec<f32> = (0..BLOCK_SIZE).map(|i| ((i * 37 % 17) as f32 - 8.0) * 0.21).collect();
        let e4 = fake_quantize_row(ElementType::E2M1, BLOCK_SIZE, &values);
        let e6 = fake_quantize_row(ElementType::E2M3, BLOCK_SIZE, &values);
        let e8 = fake_quantize_row(ElementType::E4M3, BLOCK_SIZE, &values);
        assert!(mse(&values, &e6) <= mse(&values, &e4));
        assert!(mse(&values, &e8) <= mse(&values, &e6));
    }

    #[test]
    fn block_max_index_finds_outlier() {
        let values = [-0.27_f32, -0.19, 0.99, -0.20, -9.84, -0.39];
        assert_eq!(MxBlock::block_max_index(&values), 4);
        let tie = [1.0_f32, -1.0, 0.5];
        assert_eq!(MxBlock::block_max_index(&tie), 0);
    }

    #[test]
    fn mxint8_block_quantization() {
        let values = [0.5_f32, -0.25, 1.0, 0.125, -1.5, 0.75];
        let block = MxBlock::quantize(ElementType::Int8, &values);
        let deq = block.dequantize();
        // shared exp = floor(log2 1.5) - 0 = 0, so the grid step is 2^0 / 64.
        assert_eq!(block.scale().exponent(), Some(0));
        for (v, d) in values.iter().zip(&deq) {
            assert!((v - d).abs() <= 1.0 / 128.0 + 1e-6, "{v} vs {d}");
        }
    }

    #[test]
    fn fake_quantize_handles_partial_tail_blocks() {
        let values: Vec<f32> = (0..40).map(|i| i as f32 * 0.1).collect();
        let out = fake_quantize_row(ElementType::E2M3, BLOCK_SIZE, &values);
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn fake_quantize_into_matches_allocating_path() {
        let values: Vec<f32> = (0..100).map(|i| ((i * 37 % 29) as f32 - 14.0) * 0.13).collect();
        let alloc = fake_quantize_row(ElementType::E2M1, BLOCK_SIZE, &values);
        let mut scratch = vec![f32::NAN; values.len()];
        fake_quantize_row_into(ElementType::E2M1, BLOCK_SIZE, &values, &mut scratch);
        assert_eq!(alloc, scratch);
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn fake_quantize_into_validates_length() {
        fake_quantize_row_into(ElementType::E2M1, BLOCK_SIZE, &[1.0; 8], &mut [0.0; 7]);
    }

    #[test]
    fn storage_bits_accounting() {
        let block = MxBlock::quantize(ElementType::E2M1, &[1.0; BLOCK_SIZE]);
        // 32 elements x 4 bits + 8-bit scale = 136 bits = 4.25 bits/element.
        assert_eq!(block.storage_bits(), 136);
    }

    #[test]
    fn from_parts_validates_codes() {
        let err = MxBlock::from_parts(ElementType::E2M1, SharedScale::from_exponent(0), vec![0x1f]);
        assert!(err.is_err());
        let ok = MxBlock::from_parts(ElementType::E2M1, SharedScale::from_exponent(0), vec![0x0f]);
        assert!(ok.is_ok());
    }

    #[test]
    fn non_finite_inputs_do_not_poison_the_block() {
        let values = [1.0_f32, f32::NAN, 2.0, f32::INFINITY];
        let block = MxBlock::quantize(ElementType::E2M1, &values);
        let deq = block.dequantize();
        assert!(deq.iter().all(|v| v.is_finite()));
        assert_eq!(deq[2], 2.0);
    }
}
