//! The fast MX/MX+ block quantizer: one bit-exact rounding core behind every hot
//! conversion — activation rows, attention operands, the one-time weight cast and the
//! packed KV-row encoder.
//!
//! Per block, the shared exponent comes straight from the block max's `f32` exponent
//! bits (Equation 1). Each scaled element is then rounded onto its element grid with an
//! exponent-derived magic add: for `a >= 0` and `M = ulp · 2^23`, `(a + M) - M` is `a`
//! rounded to the nearest multiple of `ulp`, ties to even, because the sum lands in the
//! binade whose `f32` spacing is exactly `ulp`. A `min` saturates at the largest finite
//! element. The MX+ block max (Section 4.1) is found in the same element loop and
//! rounds the same way onto its extended-mantissa grid; MX runs that very loop with the
//! block max switched off, so MX+ costs no extra pass. The step count of a rounded value
//! is its element code's magnitude, so the one core emits either fake-quantized `f32`
//! values ([`quantize_dequantize_into`]) or codes plus scale byte plus BM index
//! ([`quantize_row_codes`]).
//!
//! Every output equals the scalar reference codecs — [`MxBlock::quantize`] and
//! [`MxPlusBlock::quantize`], built on [`crate::minifloat`] — bit for bit. The reference
//! still serves three cases: blocks holding a non-finite value, blocks longer than
//! [`MAX_FUSED_BLOCK`], and every call of a process whose kernel plan is
//! [`KernelBackend::Scalar`], so the plan that runs the scalar pack/unpack kernels also
//! runs the whole reference conversion pipeline.
//!
//! [`MxBlock::quantize`]: crate::block::MxBlock::quantize
//! [`MxPlusBlock::quantize`]: crate::mxplus::MxPlusBlock::quantize

use crate::block;
use crate::element::ElementType;
use crate::kernels::{self, KernelBackend, MAX_FUSED_BLOCK};
use crate::minifloat;
use crate::mxplus;
use crate::scale::{SharedScale, E8M0_BIAS, MIN_SHARED_EXP};

/// Exponent bias of `f32`.
const F32_BIAS: i32 = 127;
/// Mask of the `f32` magnitude bits (everything but the sign).
const ABS_MASK: u32 = 0x7fff_ffff;
/// `f32` bits of +Inf: magnitude bits at or above it are Inf or NaN.
const INF_BITS: u32 = 0x7f80_0000;

/// One round-to-nearest-even grid in the scaled domain: the multiples of
/// `2^(max(floor(log2 a), min_exp) - man)`, saturating at `max_steps` steps.
#[derive(Clone, Copy)]
struct Grid {
    /// Stored mantissa bits: `2^man` steps per binade.
    man: u32,
    /// Unbiased exponent of the lowest binade with its own step; everything below it
    /// shares that step (subnormals for floats, the whole range for integers and the
    /// MX+ block max).
    min_exp: i32,
    /// Largest finite magnitude.
    max_value: f32,
    /// Step count of `max_value`: the largest code magnitude.
    max_steps: u32,
}

impl Grid {
    /// The grid of ordinary elements of `element`. An integer element is a float with a
    /// single fixed-step binade: `value = n · 2^-man`, `|n| <= 2^(bits-1) - 1`.
    fn element(element: ElementType) -> Self {
        let (min_exp, max_steps) = if element.is_int() {
            (0, (1 << (element.bits() - 1)) - 1)
        } else {
            (1 - element.bias(), u32::from(minifloat::max_finite_code(element)))
        };
        Grid { man: element.man_bits(), min_exp, max_value: element.max_normal(), max_steps }
    }

    /// The MX+ block-max grid: the scaled block max lies in `[2^emax, 2^(emax+1))` and
    /// keeps `plus_bm_man_bits` mantissa bits there (the exponent field is implicit).
    fn block_max(element: ElementType) -> Self {
        let man = element.plus_bm_man_bits();
        let max_steps = (2 << man) - 1;
        let ulp = pow2(element.emax() - man as i32);
        Grid { man, min_exp: element.emax(), max_value: max_steps as f32 * ulp, max_steps }
    }

    /// Rounds the magnitude `a` (finite, below `2^(emax+1)`) onto the grid: the
    /// saturated value and its step count from zero, which is the code magnitude.
    #[inline(always)]
    fn round(self, a: f32) -> (f32, u32) {
        let exp = ((a.to_bits() >> 23) as i32 - F32_BIAS).max(self.min_exp);
        let magic = pow2(exp - self.man as i32 + 23);
        let sum = a + magic;
        let value = sum - magic;
        let value = if value < self.max_value { value } else { self.max_value };
        let steps = (((exp - self.min_exp) as u32) << self.man) + (sum.to_bits() - magic.to_bits());
        (value, steps.min(self.max_steps))
    }
}

/// `2^exp` for a normal-range exponent.
fn pow2(exp: i32) -> f32 {
    f32::from_bits(((exp + F32_BIAS) as u32) << 23)
}

/// `2^-shared`, exact down to the subnormal `2^-127`, so `v * inverse_scale(shared)`
/// rounds exactly like the reference's `v / 2^shared`.
fn inverse_scale(shared: i32) -> f32 {
    pow2(1 - shared) * 0.5
}

/// The fast quantizer prepared for one MX (`plus == false`) or MX+ format, with both
/// grids derived once per row rather than per block.
struct Caster {
    element: ElementType,
    plus: bool,
    /// Whether blocks may take the fast core at all: not above [`MAX_FUSED_BLOCK`], and
    /// not on the scalar kernel plan.
    fast: bool,
    grid: Grid,
    bm_grid: Grid,
    /// Added to every fake-quantized element. `-0.0` changes nothing; `+0.0` turns `-0.0`
    /// into `+0.0`, which is how an integer code decodes a negative value that rounds to 0.
    zero: f32,
}

impl Caster {
    fn new(element: ElementType, block_size: usize, plus: bool) -> Self {
        Caster {
            element,
            plus,
            fast: block_size <= MAX_FUSED_BLOCK && kernels::active_backend() != KernelBackend::Scalar,
            grid: Grid::element(element),
            bm_grid: Grid::block_max(element),
            zero: if element.is_int() { 0.0 } else { -0.0 },
        }
    }

    /// The shared exponent of a block and its largest magnitude's bits, read from the
    /// block max's exponent bits. `None` when the block must take the reference (it holds
    /// Inf or NaN); `Some(None)` when it takes the reserved zero-block scale.
    fn scale(&self, values: &[f32]) -> Option<Option<(i32, u32)>> {
        // Magnitude bits order like the magnitudes; below 2^31 they compare as `i32`.
        let max_bits = values.iter().fold(0, |m, v| m.max((v.to_bits() & ABS_MASK) as i32)) as u32;
        if max_bits >= INF_BITS {
            return None;
        }
        // floor(log2 max) - emax; a subnormal max reads as exponent -127, below every
        // shared exponent, exactly as `scale::floor_log2` places it.
        let shared = (max_bits >> 23) as i32 - F32_BIAS - self.element.emax();
        // All zero, or MX+'s flush-to-zero rule.
        if max_bits == 0 || (self.plus && shared < MIN_SHARED_EXP) {
            return Some(None);
        }
        Some(Some((shared.max(MIN_SHARED_EXP), max_bits)))
    }

    /// The magnitude bits that put an element on the block-max grid inside the element
    /// loops: the block max's under MX+, none under MX (magnitude bits stay below 2^31).
    fn bm_bits(&self, max_bits: u32) -> u32 {
        if self.plus {
            max_bits
        } else {
            u32::MAX
        }
    }

    /// Fast fake-quantization of one block; `false` when the block needs the reference.
    ///
    /// MX and MX+ share one loop: every element at the block max's magnitude takes the
    /// block-max grid there, and [`resolve_block_max`] undoes it for later ties.
    fn quantize_dequantize_block(&self, values: &[f32], out: &mut [f32]) -> bool {
        let Some(scale) = self.scale(values) else { return false };
        let Some((shared, max_bits)) = scale else {
            out.fill(0.0);
            return true;
        };
        let (s, inv) = (pow2(shared), inverse_scale(shared));
        let bm_bits = self.bm_bits(max_bits);
        let bm_value = self.bm_grid.round(f32::from_bits(max_bits) * inv).0;
        let mut hits = 0;
        for (i, (o, &v)) in (0u32..).zip(out.iter_mut().zip(values)) {
            let x = v * inv;
            let value = self.grid.round(x.abs()).0;
            let hit = v.to_bits() & ABS_MASK == bm_bits;
            hits += hit_tally(i, hit);
            *o = ((if hit { bm_value } else { value }).copysign(x) + self.zero) * s;
        }
        if self.plus {
            resolve_block_max(values, max_bits, hits, |i| {
                let x = values[i] * inv;
                out[i] = (self.grid.round(x.abs()).0.copysign(x) + self.zero) * s;
            });
        }
        true
    }

    /// Fast code emission for one block, in the same shared loop; `None` when the block
    /// needs the reference.
    fn codes_block(&self, values: &[f32], codes: &mut [u8]) -> Option<(SharedScale, u8)> {
        let Some((shared, max_bits)) = self.scale(values)? else {
            codes.fill(0);
            return Some((SharedScale::ZERO_BLOCK, 0));
        };
        let inv = inverse_scale(shared);
        let bm_bits = self.bm_bits(max_bits);
        let bm_man = self.bm_grid.man;
        // Unused under MX, where the scaled max can fall below the block-max grid.
        let bm_code = self.bm_grid.round(f32::from_bits(max_bits) * inv).1.wrapping_sub(1 << bm_man);
        let (int, bits) = (self.element.is_int(), self.element.bits());
        let mask = (1u32 << bits) - 1;
        let code = |x: f32| {
            let steps = self.grid.round(x.abs()).1;
            let negative = x.is_sign_negative();
            // Integers are two's complement; floats carry a sign bit above the magnitude.
            if int {
                (if negative { steps.wrapping_neg() } else { steps }) & mask
            } else {
                steps | (u32::from(negative) << (bits - 1))
            }
        };
        let mut hits = 0;
        for (i, (c, &v)) in (0u32..).zip(codes.iter_mut().zip(values)) {
            let x = v * inv;
            let (code, bm) = (code(x), bm_code | (u32::from(x.is_sign_negative()) << bm_man));
            let hit = v.to_bits() & ABS_MASK == bm_bits;
            hits += hit_tally(i, hit);
            *c = (if hit { bm } else { code }) as u8;
        }
        let bm_index = if self.plus {
            resolve_block_max(values, max_bits, hits, |i| codes[i] = code(values[i] * inv) as u8)
        } else {
            0
        };
        Some((SharedScale::from_bits((shared + E8M0_BIAS) as u8), bm_index as u8))
    }

    /// The reference codecs: [`block::quantize_codes_into`] for MX (BM index 0) and
    /// [`mxplus::quantize_codes_into`] for MX+.
    fn reference_codes(&self, values: &[f32], codes: &mut [u8]) -> (SharedScale, u8) {
        if self.plus {
            mxplus::quantize_codes_into(self.element, values, codes)
        } else {
            (block::quantize_codes_into(self.element, values, codes), 0)
        }
    }
}

/// One element's contribution to a block's tally of block-max hits: `2^16` plus its index
/// if it sits at the block max's magnitude, else 0. Branch-free, so the loops vectorize.
fn hit_tally(i: u32, hit: bool) -> u32 {
    ((1 << 16) | i) & u32::from(hit).wrapping_neg()
}

/// The block max's index from the element loop's `hits` tally: the hit's own index when
/// exactly one element sits at the max magnitude `max_bits`. Otherwise (ties, which are
/// rare) the first such element is the block max and `requantize` is called for each
/// later one, which the loop put on the block-max grid, to move it to the element grid.
fn resolve_block_max(values: &[f32], max_bits: u32, hits: u32, mut requantize: impl FnMut(usize)) -> usize {
    if hits >> 16 == 1 {
        return (hits & 0xffff) as usize;
    }
    let at_max = |v: &f32| v.to_bits() & ABS_MASK == max_bits;
    let first = values.iter().position(at_max).unwrap_or(0);
    for (i, v) in values.iter().enumerate().skip(first + 1) {
        if at_max(v) {
            requantize(i);
        }
    }
    first
}

/// One block's codes: on the stack up to [`MAX_FUSED_BLOCK`], else in one heap buffer
/// reused across the row's blocks.
struct CodeBuffer {
    stack: [u8; MAX_FUSED_BLOCK],
    heap: Vec<u8>,
}

impl CodeBuffer {
    fn new() -> Self {
        CodeBuffer { stack: [0; MAX_FUSED_BLOCK], heap: Vec::new() }
    }

    fn get(&mut self, len: usize) -> &mut [u8] {
        if len <= MAX_FUSED_BLOCK {
            &mut self.stack[..len]
        } else {
            self.heap.resize(len, 0);
            &mut self.heap
        }
    }
}

/// Quantizes a row split into `block_size` blocks of the MX (`plus == false`) or MX+
/// (`plus == true`) format with `element` elements, handing each block's shared scale,
/// block-max index (always 0 under MX) and element codes to `visit`, in order. Scale,
/// index and codes equal [`block::quantize_codes_into`] /
/// [`mxplus::quantize_codes_into`] of the block.
///
/// # Panics
///
/// Panics if `block_size == 0`.
pub(crate) fn quantize_row_codes(
    element: ElementType,
    block_size: usize,
    plus: bool,
    values: &[f32],
    mut visit: impl FnMut(SharedScale, u8, &[u8]),
) {
    assert!(block_size > 0, "block size must be positive");
    let cast = Caster::new(element, block_size, plus);
    let mut buffer = CodeBuffer::new();
    for chunk in values.chunks(block_size) {
        let codes = buffer.get(chunk.len());
        let fast = if cast.fast { cast.codes_block(chunk, codes) } else { None };
        let (scale, bm_index) = fast.unwrap_or_else(|| cast.reference_codes(chunk, codes));
        visit(scale, bm_index, codes);
    }
}

/// Fake-quantizes (quantize, then dequantize) a row split into `block_size` blocks of
/// the MX (`plus == false`) or MX+ (`plus == true`) format with `element` elements,
/// writing into `out` without allocating. Bit-identical to dequantizing
/// [`MxBlock::quantize`](crate::block::MxBlock::quantize) /
/// [`MxPlusBlock::quantize`](crate::mxplus::MxPlusBlock::quantize) of every block.
///
/// # Panics
///
/// Panics if `block_size == 0` or `out.len() != values.len()`.
pub(crate) fn quantize_dequantize_into(
    element: ElementType,
    block_size: usize,
    plus: bool,
    values: &[f32],
    out: &mut [f32],
) {
    assert!(block_size > 0, "block size must be positive");
    assert_eq!(out.len(), values.len(), "output length must equal input length");
    let cast = Caster::new(element, block_size, plus);
    let mut buffer = CodeBuffer::new();
    for (chunk, out_chunk) in values.chunks(block_size).zip(out.chunks_mut(block_size)) {
        if cast.fast && cast.quantize_dequantize_block(chunk, out_chunk) {
            continue;
        }
        let codes = buffer.get(chunk.len());
        let (scale, bm_index) = cast.reference_codes(chunk, codes);
        block::dequantize_codes_into(element, scale, plus.then_some(usize::from(bm_index)), codes, out_chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MxBlock;
    use crate::mxplus::MxPlusBlock;

    const ELEMENTS: [ElementType; 7] = [
        ElementType::E2M1,
        ElementType::E2M3,
        ElementType::E3M2,
        ElementType::E4M3,
        ElementType::E5M2,
        ElementType::Int8,
        ElementType::Int4,
    ];

    /// Asserts the fast core against the reference block codecs on one block: values
    /// bit for bit, codes, scale byte and BM index.
    fn assert_block_matches_reference(element: ElementType, plus: bool, values: &[f32]) {
        assert!(values.iter().all(|v| v.is_finite()) && values.len() <= MAX_FUSED_BLOCK);
        let (codes_ref, scale_ref, bm_ref, values_ref) = if plus {
            let b = MxPlusBlock::quantize(element, values);
            (b.codes().to_vec(), b.scale(), b.bm_index() as u8, b.dequantize())
        } else {
            let b = MxBlock::quantize(element, values);
            (b.codes().to_vec(), b.scale(), 0, b.dequantize())
        };
        let mut codes = vec![0xaa; values.len()];
        let cast = Caster::new(element, values.len(), plus);
        let (scale, bm) = cast.codes_block(values, &mut codes).expect("finite blocks take the fast path");
        let ctx = || format!("{element} plus={plus} block {values:?}");
        assert_eq!(codes, codes_ref, "codes: {}", ctx());
        assert_eq!(scale, scale_ref, "scale: {}", ctx());
        assert_eq!(bm, bm_ref, "bm index: {}", ctx());
        let mut out = vec![f32::NAN; values.len()];
        assert!(cast.quantize_dequantize_block(values, &mut out));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&values_ref), "values: {}", ctx());
    }

    #[test]
    fn every_scaled_magnitude_matches_the_reference() {
        // Sweep f32 bit patterns with an odd stride across every binade an element can
        // land in after scaling (below the smallest subnormal up to the saturation
        // range), in blocks whose max pins the shared exponent at 0 — so each value is
        // its own scaled input — with both signs.
        for element in ELEMENTS {
            let top = pow2(element.emax()) * 1.75;
            let mut block = vec![top];
            let mut bits = (2.0f32.powi(-20)).to_bits();
            while bits < top.to_bits() {
                let v = f32::from_bits(bits);
                block.push(if bits.is_multiple_of(2) { v } else { -v });
                if block.len() == 32 {
                    assert_block_matches_reference(element, false, &block);
                    assert_block_matches_reference(element, true, &block);
                    block.truncate(1);
                }
                bits += 4099;
            }
        }
    }

    #[test]
    fn grid_points_midpoints_and_saturation_match_the_reference() {
        for element in ELEMENTS {
            let grid: Vec<f32> = if element.is_int() {
                let n = (1 << (element.bits() - 1)) - 1;
                (0..=n).map(|i| i as f32 * element.min_subnormal()).collect()
            } else {
                minifloat::positive_grid(element)
            };
            let mut probes = Vec::new();
            for pair in grid.windows(2) {
                let mid = (pair[0] + pair[1]) / 2.0;
                probes.extend([pair[0], mid, f32::from_bits(mid.to_bits() - 1), f32::from_bits(mid.to_bits() + 1)]);
            }
            let max = element.max_normal();
            probes.extend([max, max * 1.01, max * 1.5, pow2(element.emax() + 1) * 0.999_999]);
            for (i, chunk) in probes.chunks(31).enumerate() {
                // The block max rides along at a varying position and sign.
                let mut block: Vec<f32> =
                    chunk.iter().enumerate().map(|(j, &v)| if j % 3 == 1 { -v } else { v }).collect();
                let bm = pow2(element.emax()) * (1.0 + (i % 7) as f32 / 7.0);
                block.insert(i % (block.len() + 1), if i % 2 == 0 { bm } else { -bm });
                for scale_exp in [-126 + element.emax(), -3, 0, 5, 127 - element.emax()] {
                    let scaled: Vec<f32> = block.iter().map(|v| v * 2f32.powi(scale_exp)).collect();
                    if scaled.iter().all(|v| v.is_finite()) {
                        assert_block_matches_reference(element, false, &scaled);
                        assert_block_matches_reference(element, true, &scaled);
                    }
                }
            }
        }
    }

    #[test]
    fn edge_blocks_match_the_reference() {
        let min_pos = f32::from_bits(1);
        for element in ELEMENTS {
            // Shared exponent exactly at, and one below, the MX+ flush boundary.
            let at = pow2(MIN_SHARED_EXP + element.emax());
            let below = f32::from_bits(at.to_bits() - 1);
            let blocks = [
                vec![0.0, -0.0, 0.0],
                vec![-0.0; 5],
                vec![at, min_pos, -min_pos, at * 0.3, -0.0],
                vec![below, min_pos, -below * 0.5],
                vec![f32::from_bits(0x007f_ffff), min_pos, -f32::from_bits(0x0040_0000)],
                vec![f32::MAX, -f32::MAX * 0.75, 1.0, -1e30, 1e-30, f32::MIN_POSITIVE],
                vec![-f32::MAX, f32::from_bits(f32::MAX.to_bits() - 1), 3.0e38],
                vec![1.0, 1.0, -1.0, 0.5],
                vec![-2.5],
            ];
            for block in &blocks {
                assert_block_matches_reference(element, false, block);
                assert_block_matches_reference(element, true, block);
            }
        }
    }

    #[test]
    fn non_finite_and_oversized_blocks_take_the_reference() {
        for element in ELEMENTS {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let values = [1.0, bad, -3.0, 0.25];
                assert!(Caster::new(element, 32, true).scale(&values).is_none());
                let mut out = vec![0.0; values.len()];
                quantize_dequantize_into(element, 32, true, &values, &mut out);
                let expected = MxPlusBlock::quantize(element, &values).dequantize();
                let same =
                    out.iter().zip(&expected).all(|(a, b)| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan());
                assert!(same, "{element}: {out:?} vs {expected:?}");
                let reference = MxBlock::quantize(element, &values);
                quantize_row_codes(element, 32, false, &values, |scale, bm, codes| {
                    assert_eq!((scale, bm, codes), (reference.scale(), 0, reference.codes()));
                });
            }
            let long: Vec<f32> = (0..MAX_FUSED_BLOCK + 9).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let mut out = vec![0.0; long.len()];
            quantize_dequantize_into(element, long.len(), false, &long, &mut out);
            assert_eq!(out, MxBlock::quantize(element, &long).dequantize());
        }
    }

    #[test]
    fn rows_match_blockwise_reference_with_tails() {
        let row: Vec<f32> =
            (0..203).map(|i| ((i * 37 % 101) as f32 - 50.0) * if i % 29 == 3 { 0.9 } else { 0.013 }).collect();
        for element in ELEMENTS {
            for block_size in [1, 7, 16, 32, 64] {
                let mut out = vec![f32::NAN; row.len()];
                quantize_dequantize_into(element, block_size, true, &row, &mut out);
                let expected: Vec<f32> =
                    row.chunks(block_size).flat_map(|c| MxPlusBlock::quantize(element, c).dequantize()).collect();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&expected), "{element} block {block_size}");
            }
        }
    }
}
