//! Bit-packed storage layouts for MX and MX+ tensors (Figure 7 of the paper).
//!
//! Element codes are packed contiguously at their native width (4, 6 or 8 bits), the
//! shared scales form a separate byte array, and — for MX+ — a third byte array carries
//! the per-block metadata (5-bit BM index + 3 reserved bits). Keeping the three streams
//! separate mirrors the paper's observation that the index metadata "does not need to be
//! stored contiguously with the element data or the shared scale".

use serde::{Deserialize, Serialize};

use crate::cast;
use crate::element::ElementType;
use crate::error::FormatError;
use crate::kernels::{self, code_at, pack_codes_into, unpack_codes_into, MAX_FUSED_BLOCK};
use crate::minifloat;
use crate::mxfp::MxFormat;
use crate::mxplus::{MxPlusBlock, MxPlusFormat};
use crate::quantize::QuantScheme;
use crate::scale::SharedScale;

/// Packs a sequence of element codes of width `bits` into a byte vector (little-endian bit
/// order within each byte). Thin allocating wrapper over
/// [`pack_codes_into`](crate::kernels::pack_codes_into); hot paths call the into-buffer
/// form directly.
#[must_use]
pub fn pack_codes(codes: &[u8], bits: u32) -> Vec<u8> {
    let mut out = vec![0u8; kernels::packed_len(codes.len(), bits)];
    pack_codes_into(codes, bits, &mut out);
    out
}

/// Unpacks `count` element codes of width `bits` from a packed byte buffer. Thin
/// allocating wrapper over [`unpack_codes_into`](crate::kernels::unpack_codes_into); hot
/// paths call the into-buffer form directly.
///
/// # Errors
///
/// Returns [`FormatError::PackedLength`] if the buffer is too short.
pub fn unpack_codes(packed: &[u8], bits: u32, count: usize) -> Result<Vec<u8>, FormatError> {
    assert!((1..=8).contains(&bits), "element width must be between 1 and 8 bits");
    let needed = kernels::packed_len(count, bits);
    if packed.len() < needed {
        return Err(FormatError::PackedLength { expected: needed, actual: packed.len() });
    }
    let mut out = vec![0u8; count];
    unpack_codes_into(packed, bits, &mut out);
    Ok(out)
}

/// A bit-packed MX+ tensor row: element stream, shared-scale stream and metadata stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedMxPlusRow {
    /// Element data type of the packed codes.
    pub element: ElementType,
    /// Number of elements in each block (the last block may be shorter).
    pub block_size: usize,
    /// Total number of elements in the row.
    pub len: usize,
    /// Bit-packed element codes for all blocks, concatenated.
    pub elements: Vec<u8>,
    /// One E8M0 byte per block.
    pub scales: Vec<u8>,
    /// One metadata byte per block (5-bit BM index + 3 reserved bits).
    pub metadata: Vec<u8>,
}

impl PackedMxPlusRow {
    /// Packs a sequence of MX+ blocks (as produced by
    /// [`MxPlusFormat::quantize_row`](crate::mxplus::MxPlusFormat::quantize_row)).
    ///
    /// # Panics
    ///
    /// Panics if the blocks do not all share the same element type, or if a block other
    /// than the last is shorter than the first block.
    #[must_use]
    pub fn pack(blocks: &[MxPlusBlock]) -> Self {
        assert!(!blocks.is_empty(), "cannot pack an empty block sequence");
        let element = blocks[0].element();
        let block_size = blocks[0].len();
        let mut all_codes = Vec::new();
        let mut scales = Vec::with_capacity(blocks.len());
        let mut metadata = Vec::with_capacity(blocks.len());
        let mut len = 0usize;
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.element(), element, "mixed element types in one packed row");
            if i + 1 < blocks.len() {
                assert_eq!(b.len(), block_size, "only the last block may be shorter");
            }
            all_codes.extend_from_slice(b.codes());
            scales.push(b.scale().to_bits());
            metadata.push(b.metadata_byte());
            len += b.len();
        }
        PackedMxPlusRow { element, block_size, len, elements: pack_codes(&all_codes, element.bits()), scales, metadata }
    }

    /// Unpacks back into MX+ blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] if the streams are inconsistent with the stored lengths.
    pub fn unpack(&self) -> Result<Vec<MxPlusBlock>, FormatError> {
        let codes = unpack_codes(&self.elements, self.element.bits(), self.len)?;
        let n_blocks = if self.block_size == 0 { 0 } else { self.len.div_ceil(self.block_size) };
        if self.scales.len() != n_blocks || self.metadata.len() != n_blocks {
            return Err(FormatError::PackedLength { expected: n_blocks, actual: self.scales.len() });
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        for (i, chunk) in codes.chunks(self.block_size).enumerate() {
            let scale = SharedScale::from_bits(self.scales[i]);
            let meta = self.metadata[i];
            blocks.push(MxPlusBlock::from_parts(self.element, scale, meta & 0x1f, meta >> 5, chunk.to_vec())?);
        }
        Ok(blocks)
    }

    /// Total storage in bytes across the three streams.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.elements.len() + self.scales.len() + self.metadata.len()
    }

    /// Average bits per element of the packed representation.
    #[must_use]
    pub fn average_bits_per_element(&self) -> f64 {
        self.storage_bytes() as f64 * 8.0 / self.len as f64
    }
}

/// Decodes one block's packed codes into `out` (`bm` names the MX+ block-max slot, if
/// any), bit-identically to the original per-code scalar loop.
///
/// The fast path maps the codes through the per-element-type decode table — the same
/// decoder outputs, minus the per-element bit extraction and decode branching. 4-bit
/// codes go straight from the packed bytes through [`kernels::decode4_into`]; wider
/// codes are bulk-unpacked through the dispatched kernel into a stack buffer first.
/// Forced-scalar mode and oversized blocks take the original random-access reference
/// loop.
fn decode_block(element: ElementType, scale: SharedScale, code_bytes: &[u8], bm: Option<usize>, out: &mut [f32]) {
    if scale.is_zero_block() {
        out.fill(0.0);
        return;
    }
    let s = scale.value();
    let bits = element.bits();
    if kernels::scalar_forced() || out.len() > MAX_FUSED_BLOCK {
        for (i, o) in out.iter_mut().enumerate() {
            let c = code_at(code_bytes, bits, i);
            let e = if bm == Some(i) {
                minifloat::decode_bm_extended(element, c)
            } else if element.is_int() {
                minifloat::decode_int(element, c)
            } else {
                minifloat::decode_fp(element, c)
            };
            *o = e * s;
        }
        return;
    }
    let table = kernels::decode_table(element);
    if bits == 4 {
        kernels::decode4_into(code_bytes, table, s, out);
    } else {
        let mut codes = [0u8; MAX_FUSED_BLOCK];
        let codes = &mut codes[..out.len()];
        unpack_codes_into(code_bytes, bits, codes);
        for (o, &c) in out.iter_mut().zip(codes.iter()) {
            *o = table[usize::from(c)] * s;
        }
    }
    // A BM index pointing past a short tail block decodes as if absent, matching the
    // reference loop (where `i == bm` simply never holds).
    if let Some(i) = bm.filter(|&i| i < out.len()) {
        out[i] = kernels::bm_decode_table(element)[usize::from(code_at(code_bytes, bits, i))] * s;
    }
}

/// A row codec that stores quantized rows **genuinely bit-packed** in caller-provided
/// byte buffers, for storage systems (e.g. the paged KV cache) that hold tensors at their
/// true scheme width instead of as dequantized `f32`.
///
/// The MX and MX+ families pack to their native element widths (4/6/8-bit codes plus one
/// shared-scale byte per block, plus the MX+ metadata byte); every other
/// [`QuantScheme`] falls back to [`RowCodec::Dequantized`], which stores the
/// fake-quantized values as little-endian `f32` bytes. In all cases the round trip
/// `pack_row_into` → `unpack_row_into` reproduces `scheme.quantize_dequantize(values)`
/// **bit for bit**, so a packed store can substitute for an `f32` store without changing
/// a single output.
///
/// ```
/// use mx_formats::layout::RowCodec;
/// use mx_formats::QuantScheme;
///
/// let scheme = QuantScheme::mxfp4();
/// let codec = RowCodec::for_scheme(scheme);
/// let row = [0.1_f32, -0.7, 3.3, 0.02, -9.1, 0.5, 0.25, -0.125];
/// let mut packed = vec![0u8; codec.packed_bytes(row.len())];
/// codec.pack_row_into(&row, &mut packed);
/// let mut restored = vec![0.0_f32; row.len()];
/// codec.unpack_row_into(&packed, &mut restored);
/// assert_eq!(restored, scheme.quantize_dequantize(&row));
/// assert_eq!(packed.len(), 5); // one scale byte + 8 nibbles, vs 32 bytes of f32
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RowCodec {
    /// Bit-packed MX blocks: per block one E8M0 scale byte followed by the element codes
    /// packed at their native width (each block padded to a whole byte).
    Mx(MxFormat),
    /// Bit-packed MX+ blocks: per block one scale byte, one metadata byte holding the BM
    /// index (the 5-bit field of Figure 7 for the standard 32-element block, whose three
    /// reserved bits stay zero) and the packed element codes.
    MxPlus(MxPlusFormat),
    /// Fallback for schemes without a byte-exact code representation here: the row is
    /// fake-quantized and stored as little-endian `f32` bytes (no compression).
    Dequantized(QuantScheme),
}

impl RowCodec {
    /// The codec that stores rows of `scheme` at their true width: bit-packed for the MX
    /// and MX+ families, [`RowCodec::Dequantized`] otherwise.
    #[must_use]
    pub fn for_scheme(scheme: QuantScheme) -> Self {
        match scheme {
            QuantScheme::Mx(f) => RowCodec::Mx(f),
            QuantScheme::MxPlus(f) => RowCodec::MxPlus(f),
            other => RowCodec::Dequantized(other),
        }
    }

    /// Whether rows are stored below `f32` width (false only for the fallback codec).
    #[must_use]
    pub fn is_bit_packed(&self) -> bool {
        !matches!(self, RowCodec::Dequantized(_))
    }

    /// Exact number of bytes a packed row of `len` elements occupies.
    #[must_use]
    pub fn packed_bytes(&self, len: usize) -> usize {
        match self {
            RowCodec::Mx(f) => row_block_bytes(len, f.block_size, f.element.bits(), 1),
            RowCodec::MxPlus(f) => row_block_bytes(len, f.block_size, f.element.bits(), 2),
            RowCodec::Dequantized(_) => len * 4,
        }
    }

    /// Quantizes `values` and packs the result into `out`
    /// (which must be exactly [`RowCodec::packed_bytes`] long).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.packed_bytes(values.len())`.
    pub fn pack_row_into(&self, values: &[f32], out: &mut [u8]) {
        assert_eq!(out.len(), self.packed_bytes(values.len()), "packed row buffer size mismatch");
        match self {
            RowCodec::Mx(f) => pack_blocks(f.element, f.block_size, false, values, out),
            RowCodec::MxPlus(f) => pack_blocks(f.element, f.block_size, true, values, out),
            RowCodec::Dequantized(scheme) => {
                for (o, q) in out.chunks_exact_mut(4).zip(scheme.quantize_dequantize(values)) {
                    o.copy_from_slice(&q.to_le_bytes());
                }
            }
        }
    }

    /// Decodes a packed row into `out` (whose length gives the element count), producing
    /// exactly what `scheme.quantize_dequantize` produced for the original values.
    ///
    /// # Panics
    ///
    /// Panics if `packed.len() != self.packed_bytes(out.len())`.
    pub fn unpack_row_into(&self, packed: &[u8], out: &mut [f32]) {
        assert_eq!(packed.len(), self.packed_bytes(out.len()), "packed row buffer size mismatch");
        match self {
            RowCodec::Mx(f) => {
                let bits = f.element.bits();
                let mut off = 0;
                for out_chunk in out.chunks_mut(f.block_size) {
                    let scale = SharedScale::from_bits(packed[off]);
                    let nb = kernels::packed_len(out_chunk.len(), bits);
                    decode_block(f.element, scale, &packed[off + 1..off + 1 + nb], None, out_chunk);
                    off += 1 + nb;
                }
            }
            RowCodec::MxPlus(f) => {
                let bits = f.element.bits();
                let mut off = 0;
                for out_chunk in out.chunks_mut(f.block_size) {
                    let scale = SharedScale::from_bits(packed[off]);
                    let bm = usize::from(packed[off + 1]);
                    let nb = kernels::packed_len(out_chunk.len(), bits);
                    decode_block(f.element, scale, &packed[off + 2..off + 2 + nb], Some(bm), out_chunk);
                    off += 2 + nb;
                }
            }
            RowCodec::Dequantized(_) => {
                for (o, bytes) in out.iter_mut().zip(packed.chunks_exact(4)) {
                    *o = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                }
            }
        }
    }

    /// Decodes a run of packed rows — one page's keys or values, say — into `out`
    /// row-major: element `e` of row `r` lands in `out[r * rows.len + e]`, exactly as
    /// [`RowCodec::unpack_row_into`] decodes each row.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.rows * rows.len` or `rows.bytes` does not hold every
    /// row.
    pub fn unpack_rows_into(&self, rows: PackedRows<'_>, out: &mut [f32]) {
        assert_eq!(out.len(), rows.rows * rows.len, "unpacked rows buffer size mismatch");
        let row_bytes = self.checked_row_bytes(rows);
        if out.is_empty() {
            return;
        }
        for (r, out_row) in out.chunks_exact_mut(rows.len).enumerate() {
            self.unpack_row_into(&rows.bytes[r * rows.stride..r * rows.stride + row_bytes], out_row);
        }
    }

    /// Decodes a run of packed rows into `out` element-major with the rows in lanes:
    /// element `e` of row `r` lands in `out[e * lanes + r]`, so one element of every row
    /// sits in consecutive slots (a key tile whose lanes are positions). Slots of lanes
    /// `rows.rows..lanes` are left untouched. Each row decodes exactly as
    /// [`RowCodec::unpack_row_into`] decodes it.
    ///
    /// # Panics
    ///
    /// Panics if `rows.rows > lanes`, if `out` is shorter than
    /// `(rows.len - 1) * lanes + rows.rows` (for a non-empty run), or if `rows.bytes`
    /// does not hold every row.
    pub fn unpack_rows_transposed_into(&self, rows: PackedRows<'_>, out: &mut [f32], lanes: usize) {
        assert!(rows.rows <= lanes, "more rows than lanes");
        let row_bytes = self.checked_row_bytes(rows);
        if rows.rows == 0 || rows.len == 0 {
            return;
        }
        assert!(out.len() >= (rows.len - 1) * lanes + rows.rows, "transposed rows buffer too short");
        let mut row = vec![0.0f32; rows.len];
        for r in 0..rows.rows {
            self.unpack_row_into(&rows.bytes[r * rows.stride..r * rows.stride + row_bytes], &mut row);
            for (e, &v) in row.iter().enumerate() {
                out[e * lanes + r] = v;
            }
        }
    }

    /// q·k of a block of query rows against a run of packed key rows, by the fused AVX2
    /// page kernel, which decodes the 4-bit codes in registers straight into the fold.
    /// `q` holds `q.len() / (geom.heads × geom.head_dim)` query rows of `geom.heads`
    /// heads. For query row `i`, head `h` and run row `r`, the kernel sets
    /// `dots[(i × geom.heads + h) × lanes + r]` to `q[(i × heads + h) × head_dim + d] ×
    /// key_r[(h / group) × head_dim + d]` folded over `d` in ascending order from +0.0, a
    /// multiply then an add, where `key_r` is row `r` as [`RowCodec::unpack_row_into`]
    /// decodes it. That is bit for bit the fold over decoded rows. Other slots of `dots`
    /// are left untouched.
    ///
    /// Returns `false`, writing nothing, unless the kernel takes the rows: 4-bit MX or
    /// MX+ elements in blocks of a multiple of 8, a `head_dim` that is a multiple of 8,
    /// and the AVX2 backend (so never under [`kernels::force_scalar`]). The caller then
    /// decodes the rows and folds them itself.
    ///
    /// # Panics
    ///
    /// Panics if `geom` does not describe rows of `rows.len` elements, if `rows.rows >
    /// lanes`, if `q` is not whole query rows, if `dots` is too short for the slots
    /// above, or if `rows.bytes` does not hold every row.
    pub fn key_dots(
        &self,
        rows: PackedRows<'_>,
        geom: AttnGeometry,
        q: &[f32],
        dots: &mut [f32],
        lanes: usize,
    ) -> bool {
        let q_rows = geom.check(rows, q.len(), lanes);
        let Some(blocks) = self.fused4(geom) else {
            return false;
        };
        self.checked_row_bytes(rows);
        assert!(geom.fits(q_rows, rows.rows, lanes, dots.len()), "dots buffer too short");
        kernels::key_dots4(rows, blocks, geom, q, dots, lanes)
    }

    /// probs×V of a block of probability rows over a run of packed value rows, by the
    /// fused AVX2 page kernel, which decodes the 4-bit codes in registers straight into
    /// the sum. `out` holds `out.len() / (geom.heads × geom.head_dim)` output rows of
    /// `geom.heads` heads. For each output row `i` and head `h`, and each run row `r` in
    /// ascending order whose probability `p = probs[(i × geom.heads + h) × lanes + r]`
    /// is not zero, the kernel adds `p × value_r[(h / group) × head_dim + e]` into
    /// `out[(i × heads + h) × head_dim + e]`, a multiply then an add, where `value_r` is
    /// row `r` as [`RowCodec::unpack_row_into`] decodes it. That is bit for bit the same
    /// accumulation over decoded rows, as long as no element of `out` is −0.0 (as holds
    /// for accumulators that start at +0.0).
    ///
    /// Returns `false`, writing nothing, unless the kernel takes the rows (see
    /// [`RowCodec::key_dots`]).
    ///
    /// # Panics
    ///
    /// Panics if `geom` does not describe rows of `rows.len` elements, if `rows.rows >
    /// lanes`, if `out` is not whole output rows, if `probs` is too short for the slots
    /// above, or if `rows.bytes` does not hold every row.
    pub fn value_accumulate(
        &self,
        rows: PackedRows<'_>,
        geom: AttnGeometry,
        probs: &[f32],
        lanes: usize,
        out: &mut [f32],
    ) -> bool {
        let out_rows = geom.check(rows, out.len(), lanes);
        let Some(blocks) = self.fused4(geom) else {
            return false;
        };
        self.checked_row_bytes(rows);
        assert!(geom.fits(out_rows, rows.rows, lanes, probs.len()), "probs buffer too short");
        kernels::value_accumulate4(rows, blocks, geom, probs, lanes, out)
    }

    /// Bytes of one row of the run, after checking that `rows.bytes` holds them all.
    fn checked_row_bytes(&self, rows: PackedRows<'_>) -> usize {
        let row_bytes = self.packed_bytes(rows.len);
        let needed = rows.rows.saturating_sub(1).checked_mul(rows.stride).and_then(|last| last.checked_add(row_bytes));
        assert!(
            rows.rows == 0 || needed.is_some_and(|needed| rows.bytes.len() >= needed),
            "packed rows buffer too short"
        );
        row_bytes
    }

    /// The block layout of this codec's rows when the fused 4-bit attention kernels take
    /// them under `geom`: 4-bit MX/MX+ elements with an integer lookup, blocks of a
    /// multiple of 8 and heads of a multiple of 8, so every group of 8 elements lies in
    /// one block and one head.
    fn fused4(&self, geom: AttnGeometry) -> Option<kernels::Blocks4> {
        let (element, block, plus) = match *self {
            RowCodec::Mx(f) => (f.element, f.block_size, false),
            RowCodec::MxPlus(f) => (f.element, f.block_size, true),
            RowCodec::Dequantized(_) => return None,
        };
        let takes = element.bits() == 4 && block > 0 && block.is_multiple_of(8) && geom.head_dim.is_multiple_of(8);
        takes.then(|| kernels::Blocks4::new(element, block, plus)).flatten()
    }
}

/// Attention head geometry over KV rows: `heads` query heads of `head_dim` elements each
/// read KV rows of `(heads / group) * head_dim` elements, and query head `h` attends to
/// KV head `h / group` (grouped-query attention; `group == 1` is classic multi-head).
/// [`RowCodec::key_dots`] and [`RowCodec::value_accumulate`] take it, and so do the
/// attention reads of `mx_llm`'s KV cache readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttnGeometry {
    /// Number of query heads.
    pub heads: usize,
    /// Elements per head.
    pub head_dim: usize,
    /// Query heads per KV head (GQA group size, ≥ 1).
    pub group: usize,
}

impl AttnGeometry {
    /// Checks that the geometry describes `rows` and a `rows.rows`-lane tile, and that
    /// `len` values are whole query rows; returns how many.
    fn check(self, rows: PackedRows<'_>, len: usize, lanes: usize) -> usize {
        let row = self.heads * self.head_dim;
        assert!(
            self.group > 0
                && self.heads.is_multiple_of(self.group)
                && rows.len == self.heads / self.group * self.head_dim,
            "attention geometry does not match the rows"
        );
        assert!(rows.rows <= lanes, "more rows than lanes");
        assert!(row > 0 && len.is_multiple_of(row), "buffer is not whole query rows");
        len / row
    }

    /// Whether a buffer of `len` values holds slot `(i × heads + h) × lanes + r` for every
    /// query row `i < q_rows`, head `h` and run row `r < rows`.
    fn fits(self, q_rows: usize, rows: usize, lanes: usize, len: usize) -> bool {
        q_rows == 0 || rows == 0 || len >= (q_rows * self.heads - 1) * lanes + rows
    }
}

/// A run of packed rows of one length laid out at a fixed stride: row `r` is the
/// [`RowCodec::packed_bytes`]`(len)` bytes at `bytes[r * stride..]`. One page's keys are
/// such a run — one row per position slot, `stride` the slot size — and so are its
/// values.
#[derive(Debug, Clone, Copy)]
pub struct PackedRows<'a> {
    /// The packed bytes, starting at row 0.
    pub bytes: &'a [u8],
    /// Bytes from the start of one row to the start of the next.
    pub stride: usize,
    /// Number of rows.
    pub rows: usize,
    /// Elements per row.
    pub len: usize,
}

/// Quantizes each `block_size` block of `values` through the fast block quantizer and
/// writes its header (scale byte, then for MX+ the BM-index byte) and packed codes.
fn pack_blocks(element: ElementType, block_size: usize, plus: bool, values: &[f32], out: &mut [u8]) {
    let bits = element.bits();
    let header = 1 + usize::from(plus);
    let mut off = 0;
    cast::quantize_row_codes(element, block_size, plus, values, |scale, bm_index, codes| {
        out[off] = scale.to_bits();
        if plus {
            out[off + 1] = bm_index;
        }
        let nb = kernels::packed_len(codes.len(), bits);
        pack_codes_into(codes, bits, &mut out[off + header..off + header + nb]);
        off += header + nb;
    });
}

/// Bytes of a row of `len` elements split into `block_size` blocks, each paying
/// `header_bytes` of header plus its byte-padded packed codes.
pub(crate) fn row_block_bytes(len: usize, block_size: usize, bits: u32, header_bytes: usize) -> usize {
    let full = len / block_size;
    let tail = len % block_size;
    let mut bytes = full * (header_bytes + (block_size * bits as usize).div_ceil(8));
    if tail > 0 {
        bytes += header_bytes + (tail * bits as usize).div_ceil(8);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mxplus::MxPlusFormat;

    fn sample_row(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let u = ((i * 2_654_435_761_usize) % 2001) as f32 / 1000.0 - 1.0;
                if i % 50 == 9 {
                    u * 25.0
                } else {
                    u
                }
            })
            .collect()
    }

    #[test]
    fn pack_unpack_4bit_codes() {
        let codes: Vec<u8> = (0..32).map(|i| (i % 16) as u8).collect();
        let packed = pack_codes(&codes, 4);
        assert_eq!(packed.len(), 16);
        assert_eq!(unpack_codes(&packed, 4, 32).unwrap(), codes);
    }

    #[test]
    fn pack_unpack_6bit_codes() {
        let codes: Vec<u8> = (0..32).map(|i| ((i * 7) % 64) as u8).collect();
        let packed = pack_codes(&codes, 6);
        assert_eq!(packed.len(), 24); // 32 * 6 bits = 192 bits = 24 bytes
        assert_eq!(unpack_codes(&packed, 6, 32).unwrap(), codes);
    }

    #[test]
    fn pack_unpack_8bit_codes() {
        let codes: Vec<u8> = (0..40).map(|i| (i * 13 % 256) as u8).collect();
        let packed = pack_codes(&codes, 8);
        assert_eq!(packed, codes);
        assert_eq!(unpack_codes(&packed, 8, 40).unwrap(), codes);
    }

    #[test]
    fn unpack_detects_short_buffers() {
        let packed = pack_codes(&[1, 2, 3, 4], 4);
        assert!(unpack_codes(&packed, 4, 5).is_err());
    }

    #[test]
    fn packed_row_round_trips_mxfp4_plus() {
        let row = sample_row(256);
        let blocks = MxPlusFormat::MXFP4_PLUS.quantize_row(&row);
        let packed = PackedMxPlusRow::pack(&blocks);
        let unpacked = packed.unpack().unwrap();
        assert_eq!(unpacked.len(), blocks.len());
        for (a, b) in blocks.iter().zip(&unpacked) {
            assert_eq!(a.dequantize(), b.dequantize());
            assert_eq!(a.bm_index(), b.bm_index());
        }
    }

    #[test]
    fn packed_row_round_trips_partial_tail() {
        let row = sample_row(100); // 3 full blocks + 4-element tail
        let blocks = MxPlusFormat::MXFP4_PLUS.quantize_row(&row);
        let packed = PackedMxPlusRow::pack(&blocks);
        let unpacked = packed.unpack().unwrap();
        let deq: Vec<f32> = unpacked.iter().flat_map(|b| b.dequantize()).collect();
        let expected: Vec<f32> = blocks.iter().flat_map(|b| b.dequantize()).collect();
        assert_eq!(deq, expected);
        assert_eq!(deq.len(), 100);
    }

    #[test]
    fn average_bits_match_section_4_2_for_full_blocks() {
        // 256 elements in full 32-blocks: MXFP4+ packs to exactly 4.5 bits/element.
        let row = sample_row(256);
        let blocks = MxPlusFormat::MXFP4_PLUS.quantize_row(&row);
        let packed = PackedMxPlusRow::pack(&blocks);
        assert!((packed.average_bits_per_element() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn mxfp8_plus_row_packs_at_one_byte_per_element_plus_overhead() {
        let row = sample_row(128);
        let blocks = MxPlusFormat::MXFP8_PLUS.quantize_row(&row);
        let packed = PackedMxPlusRow::pack(&blocks);
        assert_eq!(packed.elements.len(), 128);
        assert_eq!(packed.scales.len(), 4);
        assert_eq!(packed.metadata.len(), 4);
        assert!((packed.average_bits_per_element() - 8.5).abs() < 1e-12);
    }

    #[test]
    fn corrupted_metadata_is_rejected() {
        let row = sample_row(64);
        let blocks = MxPlusFormat::MXFP4_PLUS.quantize_row(&row);
        let mut packed = PackedMxPlusRow::pack(&blocks);
        packed.metadata.pop();
        assert!(packed.unpack().is_err());
    }

    fn codec_round_trip(scheme: QuantScheme, len: usize) {
        let row = sample_row(len);
        let codec = RowCodec::for_scheme(scheme);
        let mut packed = vec![0xaa_u8; codec.packed_bytes(len)];
        codec.pack_row_into(&row, &mut packed);
        let mut restored = vec![f32::NAN; len];
        codec.unpack_row_into(&packed, &mut restored);
        assert_eq!(restored, scheme.quantize_dequantize(&row), "{scheme} len {len}");
    }

    #[test]
    fn row_codec_matches_fake_quantization_bit_for_bit() {
        for scheme in [
            QuantScheme::mxfp4(),
            QuantScheme::mxfp6(),
            QuantScheme::mxfp8(),
            QuantScheme::mxint4(),
            QuantScheme::mxint8(),
            QuantScheme::mxfp4_plus(),
            QuantScheme::mxfp6_plus(),
            QuantScheme::mxfp8_plus(),
            QuantScheme::mxint8_plus(),
            QuantScheme::Fp32,
            QuantScheme::Bf16,
            QuantScheme::mxfp4_pp(),
            QuantScheme::Nvfp4Plus,
        ] {
            for len in [1, 31, 32, 33, 64, 100] {
                codec_round_trip(scheme, len);
            }
        }
    }

    #[test]
    fn row_codec_bytes_are_the_true_scheme_width() {
        // 64 elements = 2 full MXFP4 blocks: 2 * (1 scale + 16 code bytes) = 34 bytes
        // (4.25 bits/element exactly), vs 256 bytes of f32.
        assert_eq!(RowCodec::for_scheme(QuantScheme::mxfp4()).packed_bytes(64), 34);
        // MXFP4+ adds one metadata byte per block: 36 bytes = 4.5 bits/element.
        assert_eq!(RowCodec::for_scheme(QuantScheme::mxfp4_plus()).packed_bytes(64), 36);
        // MXFP6: 32 * 6 bits = 24 code bytes + scale per block.
        assert_eq!(RowCodec::for_scheme(QuantScheme::mxfp6()).packed_bytes(64), 50);
        // Partial tail blocks are byte-ceiled per block: 40 = 32 + 8 elements.
        assert_eq!(RowCodec::for_scheme(QuantScheme::mxfp4()).packed_bytes(40), 17 + 1 + 4);
        // Fallback schemes store f32.
        assert_eq!(RowCodec::for_scheme(QuantScheme::Bf16).packed_bytes(64), 256);
        assert!(!RowCodec::for_scheme(QuantScheme::Bf16).is_bit_packed());
        assert!(RowCodec::for_scheme(QuantScheme::mxfp4()).is_bit_packed());
    }

    #[test]
    fn row_codec_fallback_survives_a_byte_level_round_trip() {
        // The fallback stores exact f32 bit patterns, so even schemes with no packed
        // representation round-trip losslessly through the byte buffer.
        codec_round_trip(QuantScheme::TopK(2), 100);
        codec_round_trip(QuantScheme::Nvfp4, 48);
    }

    #[test]
    #[should_panic(expected = "packed rows buffer too short")]
    fn page_decoders_reject_strides_past_the_buffer() {
        // A stride whose row offsets overflow `usize` must be rejected, not wrapped into
        // the buffer.
        let codec = RowCodec::for_scheme(QuantScheme::mxfp4());
        let packed = vec![0u8; 4 * codec.packed_bytes(32)];
        let rows = PackedRows { bytes: &packed, stride: usize::MAX / 2 + 1, rows: 3, len: 32 };
        codec.unpack_rows_transposed_into(rows, &mut [0.0; 32 * 16], 16);
    }

    #[test]
    #[should_panic(expected = "packed row buffer size mismatch")]
    fn row_codec_pack_validates_buffer_size() {
        RowCodec::for_scheme(QuantScheme::mxfp4()).pack_row_into(&[1.0; 32], &mut [0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "packed row buffer size mismatch")]
    fn row_codec_unpack_validates_buffer_size() {
        RowCodec::for_scheme(QuantScheme::mxfp4()).unpack_row_into(&[0u8; 16], &mut [0.0; 32]);
    }
}
