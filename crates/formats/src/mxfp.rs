//! Concrete MX-compliant formats (Table 1 of the paper) and the row-level direct-cast API.

use serde::{Deserialize, Serialize};

use crate::block::{fake_quantize_row, MxBlock, BLOCK_SIZE};
use crate::element::ElementType;
use crate::error::FormatError;
use crate::scale::SharedScale;

/// A concrete MX-compliant format: an element data type plus a block size.
///
/// The OCP specification fixes the block size at 32 and the scale at E8M0 for every
/// concrete format; the block size is kept as a field so that the paper's block-size
/// ablation (and NVFP4's 16-element blocks) can reuse the same machinery.
///
/// ```
/// use mx_formats::MxFormat;
///
/// assert_eq!(MxFormat::MXFP4.average_bits_per_element(), 4.25);
/// assert_eq!(MxFormat::MXFP6_E2M3.average_bits_per_element(), 6.25);
/// assert_eq!(MxFormat::MXFP8_E4M3.average_bits_per_element(), 8.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MxFormat {
    /// Element data type for the 32 private elements.
    pub element: ElementType,
    /// Number of elements sharing one scale.
    pub block_size: usize,
}

impl MxFormat {
    /// MXFP4: E2M1 elements, 32-element blocks.
    pub const MXFP4: MxFormat = MxFormat { element: ElementType::E2M1, block_size: BLOCK_SIZE };
    /// MXFP6 with the E2M3 element type (the variant the paper evaluates).
    pub const MXFP6_E2M3: MxFormat = MxFormat { element: ElementType::E2M3, block_size: BLOCK_SIZE };
    /// MXFP6 with the E3M2 element type.
    pub const MXFP6_E3M2: MxFormat = MxFormat { element: ElementType::E3M2, block_size: BLOCK_SIZE };
    /// MXFP8 with the E4M3 element type (the variant the paper evaluates).
    pub const MXFP8_E4M3: MxFormat = MxFormat { element: ElementType::E4M3, block_size: BLOCK_SIZE };
    /// MXFP8 with the E5M2 element type.
    pub const MXFP8_E5M2: MxFormat = MxFormat { element: ElementType::E5M2, block_size: BLOCK_SIZE };
    /// MXINT8: INT8 elements with an implicit 2^-6 scale.
    pub const MXINT8: MxFormat = MxFormat { element: ElementType::Int8, block_size: BLOCK_SIZE };
    /// The paper's hypothetical MXINT4 format (Section 8.2).
    pub const MXINT4: MxFormat = MxFormat { element: ElementType::Int4, block_size: BLOCK_SIZE };

    /// All concrete formats evaluated by the paper.
    pub const ALL: [MxFormat; 7] = [
        MxFormat::MXFP4,
        MxFormat::MXFP6_E2M3,
        MxFormat::MXFP6_E3M2,
        MxFormat::MXFP8_E4M3,
        MxFormat::MXFP8_E5M2,
        MxFormat::MXINT8,
        MxFormat::MXINT4,
    ];

    /// Creates a format with the standard 32-element block.
    #[must_use]
    pub const fn new(element: ElementType) -> Self {
        MxFormat { element, block_size: BLOCK_SIZE }
    }

    /// Creates a format with a non-standard block size (used by the block-size ablation).
    #[must_use]
    pub const fn with_block_size(element: ElementType, block_size: usize) -> Self {
        MxFormat { element, block_size }
    }

    /// Average storage bits per element including the shared-scale byte
    /// (e.g. 4.25 for MXFP4, 8.25 for MXFP8).
    #[must_use]
    pub fn average_bits_per_element(&self) -> f64 {
        self.element.bits() as f64 + 8.0 / self.block_size as f64
    }

    /// Quantizes one row (last tensor dimension) into MX blocks.
    #[must_use]
    pub fn quantize_row(&self, values: &[f32]) -> Vec<MxBlock> {
        values.chunks(self.block_size).map(|c| MxBlock::quantize(self.element, c)).collect()
    }

    /// Quantizes one row through the fast block quantizer, handing each block's shared
    /// scale and element codes to `visit`, in order, without allocating per block. The
    /// codes and scale equal [`MxFormat::quantize_row`]'s blocks, so decoding them
    /// (`element` decode of each code times the scale, zeros for the zero-block scale)
    /// reproduces [`MxFormat::quantize_dequantize`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the block size is 0.
    pub fn quantize_codes_with(&self, values: &[f32], mut visit: impl FnMut(SharedScale, &[u8])) {
        crate::cast::quantize_row_codes(self.element, self.block_size, false, values, |scale, _, codes| {
            visit(scale, codes);
        });
    }

    /// Dequantizes a sequence of blocks produced by [`MxFormat::quantize_row`].
    #[must_use]
    pub fn dequantize_row(&self, blocks: &[MxBlock]) -> Vec<f32> {
        let mut out = Vec::new();
        for b in blocks {
            out.extend(b.dequantize());
        }
        out
    }

    /// Direct-cast "fake quantization" of a row: quantize then immediately dequantize.
    #[must_use]
    pub fn quantize_dequantize(&self, values: &[f32]) -> Vec<f32> {
        fake_quantize_row(self.element, self.block_size, values)
    }

    /// Buffer-reusing variant of [`MxFormat::quantize_dequantize`]: writes the
    /// fake-quantized row into `out` instead of allocating a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != values.len()`.
    pub fn quantize_dequantize_into(&self, values: &[f32], out: &mut [f32]) {
        crate::block::fake_quantize_row_into(self.element, self.block_size, values, out);
    }

    /// Direct-cast fake quantization of a row-major matrix, blocking along the rows
    /// (the last/contiguous dimension), which is how the paper quantizes both weight and
    /// activation tensors for dot products.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Alignment`] if `data.len()` is not a multiple of `cols`.
    pub fn quantize_dequantize_matrix(&self, data: &[f32], cols: usize) -> Result<Vec<f32>, FormatError> {
        if cols == 0 || !data.len().is_multiple_of(cols) {
            return Err(FormatError::Alignment { len: data.len(), block: cols.max(1) });
        }
        let mut out = Vec::with_capacity(data.len());
        for row in data.chunks(cols) {
            out.extend(self.quantize_dequantize(row));
        }
        Ok(out)
    }

    /// Short display name like "MXFP4" or "MXFP6 (E2M3)".
    #[must_use]
    pub fn name(&self) -> String {
        let base = match self.element {
            ElementType::E2M1 => "MXFP4".to_string(),
            ElementType::E2M3 => "MXFP6 (E2M3)".to_string(),
            ElementType::E3M2 => "MXFP6 (E3M2)".to_string(),
            ElementType::E4M3 => "MXFP8 (E4M3)".to_string(),
            ElementType::E5M2 => "MXFP8 (E5M2)".to_string(),
            ElementType::Int8 => "MXINT8".to_string(),
            ElementType::Int4 => "MXINT4".to_string(),
        };
        if self.block_size == BLOCK_SIZE {
            base
        } else {
            format!("{base} (k={})", self.block_size)
        }
    }
}

impl std::fmt::Display for MxFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mse(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| ((x - y) * (x - y)) as f64).sum::<f64>() / a.len() as f64
    }

    fn synthetic_row(n: usize) -> Vec<f32> {
        // Deterministic pseudo-random values with a couple of channel outliers.
        (0..n)
            .map(|i| {
                let base = ((i * 2_654_435_761_usize) % 1000) as f32 / 1000.0 - 0.5;
                if i % 97 == 13 {
                    base * 40.0
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn average_bit_widths_match_table_1() {
        assert_eq!(MxFormat::MXFP4.average_bits_per_element(), 4.25);
        assert_eq!(MxFormat::MXFP6_E2M3.average_bits_per_element(), 6.25);
        assert_eq!(MxFormat::MXFP6_E3M2.average_bits_per_element(), 6.25);
        assert_eq!(MxFormat::MXFP8_E4M3.average_bits_per_element(), 8.25);
        assert_eq!(MxFormat::MXINT8.average_bits_per_element(), 8.25);
    }

    #[test]
    fn quantize_row_block_count() {
        let row = synthetic_row(100);
        let blocks = MxFormat::MXFP4.quantize_row(&row);
        assert_eq!(blocks.len(), 4); // 32 + 32 + 32 + 4
        assert_eq!(blocks[3].len(), 4);
        let deq = MxFormat::MXFP4.dequantize_row(&blocks);
        assert_eq!(deq.len(), 100);
    }

    #[test]
    fn higher_precision_formats_have_lower_error() {
        // Note: MSE between MXFP6 and MXFP8 is not strictly ordered on outlier-heavy data
        // because E4M3 reserves its top mantissa code for NaN and therefore saturates
        // slightly earlier within the block-max binade; the robust ordering (as in the
        // paper's perplexity results) is relative to MXFP4.
        let row = synthetic_row(1024);
        let e = |fmt: MxFormat| mse(&row, &fmt.quantize_dequantize(&row));
        assert!(e(MxFormat::MXFP6_E2M3) <= e(MxFormat::MXFP4));
        assert!(e(MxFormat::MXFP8_E4M3) <= e(MxFormat::MXFP4));
        assert!(e(MxFormat::MXINT8) <= e(MxFormat::MXFP4));
    }

    #[test]
    fn e2m3_beats_e3m2_on_moderate_dynamic_range() {
        // Prior work (and the paper) choose E2M3 for MXFP6 because activations after
        // block scaling rarely need the extra exponent range.
        let row: Vec<f32> = (0..512).map(|i| ((i % 23) as f32 - 11.0) * 0.07).collect();
        let e2m3 = mse(&row, &MxFormat::MXFP6_E2M3.quantize_dequantize(&row));
        let e3m2 = mse(&row, &MxFormat::MXFP6_E3M2.quantize_dequantize(&row));
        assert!(e2m3 <= e3m2);
    }

    #[test]
    fn matrix_quantization_requires_alignment() {
        let data = vec![0.5_f32; 12];
        assert!(MxFormat::MXFP4.quantize_dequantize_matrix(&data, 5).is_err());
        assert!(MxFormat::MXFP4.quantize_dequantize_matrix(&data, 4).is_ok());
        assert!(MxFormat::MXFP4.quantize_dequantize_matrix(&data, 0).is_err());
    }

    #[test]
    fn smaller_blocks_reduce_error_but_cost_more_bits() {
        let row = synthetic_row(512);
        let k32 = MxFormat::with_block_size(ElementType::E2M1, 32);
        let k16 = MxFormat::with_block_size(ElementType::E2M1, 16);
        assert!(mse(&row, &k16.quantize_dequantize(&row)) <= mse(&row, &k32.quantize_dequantize(&row)));
        assert!(k16.average_bits_per_element() > k32.average_bits_per_element());
    }

    #[test]
    fn display_names() {
        assert_eq!(MxFormat::MXFP4.to_string(), "MXFP4");
        assert_eq!(MxFormat::MXFP6_E2M3.to_string(), "MXFP6 (E2M3)");
        assert_eq!(MxFormat::with_block_size(ElementType::E2M1, 16).to_string(), "MXFP4 (k=16)");
    }

    #[test]
    fn idempotent_fake_quantization() {
        let row = synthetic_row(256);
        let once = MxFormat::MXFP4.quantize_dequantize(&row);
        let twice = MxFormat::MXFP4.quantize_dequantize(&once);
        assert_eq!(once, twice);
    }
}
