//! Weight panels: projection weights stored the way the panel GEMM reads them, and that
//! GEMM, [`Matrix::matmul_panels`].
//!
//! [`WeightPanels::cast`] direct-casts a `k × n` weight matrix once, blocking along `k`
//! exactly as [`Matrix::quantize_columns`] does. Under an MX scheme with 4-bit elements
//! (MXFP4, MXINT4) it groups the columns into panels of 32 and stores each panel k-major:
//! the 32 codes at reduction index `p` are contiguous, two per byte, and each panel has
//! one `f32` scale per (block, column): 5 bits per weight instead of 32. The codes come
//! straight from the block quantizer in the cast pass. Every other scheme, and weights
//! holding Inf or NaN, keep the row-major `quantize_columns` matrix, which the GEMM
//! hands to [`Matrix::matmul`] itself.
//!
//! Code panels are built only on a kernel plan that runs the AVX2 kernels (see
//! [`mx_formats::kernels::active_backend`]); every other plan, the scalar reference
//! included, keeps the matrix too, since `matmul` over `f32` weights outruns a portable
//! loop that decodes every weight on every call. The plan is fixed for the process, so
//! code panels always meet the plan they were cast under, which picks one of two kernel
//! sets:
//! - **`Avx512` (AVX-512F):** one loop for every M. Per panel, blocks of up to 8
//!   activation rows walk the reduction index `p` in ascending order. Each 16-byte row of
//!   codes (32 weights) is widened to 16 lanes (`vpmovzxbd`) and looked up twice by
//!   `vpermps` in the first 16 entries of [`mx_formats::kernels::decode_table`]: the low
//!   nibbles directly, the high nibbles after a shift by 4. That gives the even and the
//!   odd columns, which are multiplied by the block's 32 scales, held in the same
//!   even/odd order. Each row of the block adds `x * w` into two 16-lane accumulators,
//!   and when the block ends `vpermt2ps` interleaves them back into column order. Nothing
//!   is decoded into memory, and a lone row skips the code rows its zero activations
//!   meet.
//! - **`Avx2`, on CPUs without AVX-512F:** the kernel is chosen from M.
//!   - **M = 1:** each code row is decoded in registers by one integer lookup
//!     ([`mx_formats::kernels::avx2::IntLookup4`]: `pshufb` to the table's entries times
//!     `2^m` as `i8`, widened to `f32`) and multiplied by its scales, which carry the
//!     `2^-m` from once per block, into four 8-lane accumulators per panel.
//!   - **M > 1:** each panel is decoded the same way once into an `f32` slab that stays
//!     in L1/L2, then a 6×16 register tile runs over it, so each loaded weight vector
//!     feeds 6 rows.
//!
//! Every kernel is bit-identical to `a.matmul(&w.quantize_columns(scheme))`. Each output
//! accumulates `a[i][p] * w[p][j]` starting from +0.0, in ascending `p`, as a multiply and
//! then an add, never a fused multiply-add. Each weight decodes to the value
//! `quantize_columns` produces, `table[code] * scale` (the packed-row contract of
//! [`mx_formats::RowCodec`]). The AVX-512 kernel computes exactly that product: `vpermps`
//! moves the table entry's bits unchanged, and the scale is a power of two (or 0), so
//! multiplying by it only moves the exponent, and where the product is subnormal or
//! overflows it rounds as the quantizer's own multiply of the same two operands does.
//! The AVX2 kernels look up `table[code] × 2^m` as an integer instead, and multiply it by
//! `scale × 2^-m`: the same exact real, which rounds alike, subnormal results included.
//! Only the sign of a zero weight can differ there (E2M1's −0.0 decodes to +0.0).
//! [`Matrix::matmul`] skips terms with `a == 0`. A decoded weight is finite (4-bit MX
//! elements have no Inf or NaN, and the scale of a finite block is finite), so a skipped
//! term, like a term with a zero weight of either sign, is ±0, and adding ±0 to an
//! accumulator that started at +0.0 changes nothing, because that accumulator is never
//! −0. So neither the skip nor the sign of a zero weight shows.

use mx_formats::kernels::{self as format_kernels, KernelBackend};
use mx_formats::{ElementType, MxFormat, QuantScheme};
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Columns per panel: four 8-lane vectors.
const PANEL: usize = 32;
/// Code bytes per panel row, and the columns of the AVX2 M > 1 register tile: half a
/// panel.
const HALF: usize = PANEL / 2;

/// A `k × n` weight matrix, direct-cast once and stored for [`Matrix::matmul_panels`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightPanels {
    rows: usize,
    cols: usize,
    store: Store,
}

#[derive(Debug, Clone, PartialEq)]
enum Store {
    /// MX codes of a 4-bit element. Row `p` of a panel is 16 bytes, column `j` in nibble
    /// `j % 2` of byte `j / 2`, low nibble first (the `pack_codes_into` layout). Each
    /// panel also has one scale per (block, column), 32 per block: the shared scale's
    /// value, 0.0 for the zero-block scale (whose codes are all 0).
    Codes4 { element: ElementType, block_size: usize, codes: Vec<u8>, scales: Vec<f32> },
    /// The row-major `quantize_columns` weights, for [`Matrix::matmul`].
    Matrix(Matrix),
}

/// One panel of 4-bit codes: `k` rows of 16 bytes and its scales.
#[derive(Clone, Copy)]
struct Panel<'a> {
    element: ElementType,
    block_size: usize,
    codes: &'a [u8],
    scales: &'a [f32],
}

impl<'a> Panel<'a> {
    /// The code blocks of the panel, each with its 32 column scales.
    fn blocks(self) -> impl Iterator<Item = (&'a [u8], &'a [f32])> {
        self.codes.chunks(self.block_size * HALF).zip(self.scales.chunks_exact(PANEL))
    }
}

impl WeightPanels {
    /// Direct-casts `w` (`k × n`) with `scheme`, blocking along `k` exactly as
    /// [`Matrix::quantize_columns`]: straight into code panels for MX schemes with 4-bit
    /// elements on a kernel plan that runs the AVX2 kernels, into the row-major matrix
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` is an MX format with a block size of 0.
    #[must_use]
    pub fn cast(w: &Matrix, scheme: QuantScheme) -> Self {
        let codes = match scheme {
            QuantScheme::Mx(format) if format.element.bits() == 4 && format_kernels::active_backend().runs_avx2() => {
                cast_codes4(w, format)
            }
            _ => None,
        };
        let store = codes.unwrap_or_else(|| Store::Matrix(w.quantize_columns(scheme)));
        WeightPanels { rows: w.rows(), cols: w.cols(), store }
    }

    /// Bytes of weight data held: codes and scales, or `f32` values.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        match &self.store {
            Store::Codes4 { codes, scales, .. } => codes.len() + 4 * scales.len(),
            Store::Matrix(matrix) => 4 * matrix.data().len(),
        }
    }

    /// The code panels, in column order, each with its first column and its column
    /// count; none for the row-major store.
    fn panels(&self) -> impl Iterator<Item = (usize, usize, Panel<'_>)> {
        let k = self.rows;
        let codes4 = match &self.store {
            Store::Codes4 { element, block_size, codes, scales } => Some((*element, *block_size, codes, scales)),
            Store::Matrix(_) => None,
        };
        codes4.into_iter().flat_map(move |(element, block_size, codes, scales)| {
            let scale_len = k.div_ceil(block_size) * PANEL;
            (0..self.cols.div_ceil(PANEL)).map(move |i| {
                let panel = Panel {
                    element,
                    block_size,
                    codes: &codes[i * k * HALF..(i + 1) * k * HALF],
                    scales: &scales[i * scale_len..(i + 1) * scale_len],
                };
                (i * PANEL, PANEL.min(self.cols - i * PANEL), panel)
            })
        })
    }

    /// The code panels decoded, code by code, to the row-major `quantize_columns` matrix:
    /// the scalar reference for the SIMD kernels.
    fn decoded(&self) -> Matrix {
        let mut wq = Matrix::zeros(self.rows, self.cols);
        for (col0, width, panel) in self.panels() {
            let table = format_kernels::decode_table(panel.element);
            for (p, row_codes) in panel.codes.chunks_exact(HALF).enumerate() {
                let scales = &panel.scales[p / panel.block_size * PANEL..];
                for (j, out) in wq.row_mut(p)[col0..col0 + width].iter_mut().enumerate() {
                    let code = (row_codes[j / 2] >> (4 * (j % 2))) & 0x0f;
                    *out = table[usize::from(code)] * scales[j];
                }
            }
        }
        wq
    }
}

/// Codes and scales of every column, straight from the block quantizer; `None` if a
/// weight is not finite.
fn cast_codes4(w: &Matrix, format: MxFormat) -> Option<Store> {
    let (k, n) = w.shape();
    let blocks = k.div_ceil(format.block_size);
    let mut codes = vec![0u8; n.div_ceil(PANEL) * k * HALF];
    let mut scales = vec![0.0f32; n.div_ceil(PANEL) * blocks * PANEL];
    let mut column = vec![0.0f32; k];
    for c in 0..n {
        for (p, slot) in column.iter_mut().enumerate() {
            *slot = w.data()[p * n + c];
        }
        if !column.iter().all(|v| v.is_finite()) {
            return None;
        }
        let (panel, lane) = (c / PANEL, c % PANEL);
        let panel_codes = &mut codes[panel * k * HALF..(panel + 1) * k * HALF];
        let panel_scales = &mut scales[panel * blocks * PANEL..(panel + 1) * blocks * PANEL];
        let (byte, shift) = (lane / 2, 4 * (lane % 2));
        let mut p = 0;
        format.quantize_codes_with(&column, |scale, block_codes| {
            panel_scales[p / format.block_size * PANEL + lane] = scale.value();
            for &code in block_codes {
                panel_codes[p * HALF + byte] |= (code & 0x0f) << shift;
                p += 1;
            }
        });
    }
    Some(Store::Codes4 { element: format.element, block_size: format.block_size, codes, scales })
}

impl Matrix {
    /// `self (m × k) · w (k × n)` over weight panels, bit-identical to
    /// `self.matmul(&source.quantize_columns(scheme))` for the `source` matrix and
    /// `scheme` that `w` was cast from (see the [module docs](crate::panels) for why).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != w.rows()`.
    #[must_use]
    pub fn matmul_panels(&self, w: &WeightPanels) -> Matrix {
        assert_eq!(self.cols(), w.rows, "inner dimensions must match");
        if let Store::Matrix(wq) = &w.store {
            return self.matmul(wq);
        }
        // `cast` builds code panels only on the two plans below, and the plan is fixed
        // for the process; the decoded product is the portable definition.
        #[cfg(target_arch = "x86_64")]
        {
            let mut out = Matrix::zeros(self.rows(), w.cols);
            if self.rows() == 0 || w.rows == 0 {
                return out;
            }
            match format_kernels::active_backend() {
                KernelBackend::Avx512 => {
                    // SAFETY: `detect()` selects the Avx512 backend only where the CPU has
                    // AVX-512F.
                    unsafe { avx512::product(self, w, &mut out) };
                    return out;
                }
                // SAFETY: `detect()` selects the Avx2 backend only where the CPU has AVX2.
                KernelBackend::Avx2 if unsafe { avx2::product(self, w, &mut out) } => return out,
                _ => {}
            }
        }
        self.matmul(&w.decoded())
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 kernels of [`Matrix::matmul_panels`], for CPUs without AVX-512F.

    use std::arch::x86_64::*;

    use mx_formats::kernels::avx2::IntLookup4;

    use super::{Panel, WeightPanels, HALF, PANEL};
    use crate::matrix::Matrix;

    /// Rows of the M > 1 register tile.
    const TILE_ROWS: usize = 6;

    /// `out = a · w`, panel by panel, for code panels `w`, an `a` with at least one column
    /// and an `out` of `a.rows() × w.cols()`. Returns `false` if the panels' element type
    /// has no integer lookup, which a cast never stores.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn product(a: &Matrix, w: &WeightPanels, out: &mut Matrix) -> bool {
        let (m, k) = a.shape();
        let mut slab = if m > 1 { vec![0.0f32; k * PANEL] } else { Vec::new() };
        for (col0, width, panel) in w.panels() {
            let Some(lookup) = IntLookup4::new(panel.element) else {
                return false;
            };
            if m == 1 {
                let acc = row_codes4(a.row(0), lookup, panel);
                out.row_mut(0)[col0..col0 + width].copy_from_slice(&acc[..width]);
            } else {
                decode_panel(lookup, panel, &mut slab);
                tiles(a, &slab, out, col0, width);
            }
        }
        true
    }

    /// Loads 8 lanes from `values[at..at + 8]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load8(values: &[f32], at: usize) -> __m256 {
        assert!(at + 8 <= values.len());
        // SAFETY: the assert above bounds the 8-lane load.
        unsafe { _mm256_loadu_ps(values.as_ptr().add(at)) }
    }

    /// The 32 codes of a 16-byte code row, decoded by one integer lookup and times their
    /// scales (which already include the lookup's step).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn decode_row(lookup: IntLookup4, row: &[u8], scales: &[__m256; 4]) -> [__m256; 4] {
        assert!(row.len() >= HALF);
        // SAFETY: the assert above bounds the 16-byte load.
        let bytes = unsafe { _mm_loadu_si128(row.as_ptr().cast()) };
        let mut w = lookup.decode32(bytes);
        for (w, &s) in w.iter_mut().zip(scales) {
            *w = _mm256_mul_ps(*w, s);
        }
        w
    }

    /// One block's 32 column scales times the lookup's step (exact: both are powers of
    /// two, or the scale is 0), in four vectors.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load_scales(s: &[f32], lookup: IntLookup4) -> [__m256; 4] {
        let step = _mm256_set1_ps(lookup.step());
        let mut scales = [load8(s, 0), load8(s, 8), load8(s, 16), load8(s, 24)];
        for v in &mut scales {
            *v = _mm256_mul_ps(*v, step);
        }
        scales
    }

    /// One activation row times a code panel, decoded in registers. A zero activation
    /// adds ±0 to every accumulator, which changes nothing, so its row is skipped.
    #[target_feature(enable = "avx2")]
    fn row_codes4(a: &[f32], lookup: IntLookup4, panel: Panel<'_>) -> [f32; PANEL] {
        let mut acc = [_mm256_setzero_ps(); 4];
        for (a_block, (code_block, scales)) in a.chunks(panel.block_size).zip(panel.blocks()) {
            let scales = load_scales(scales, lookup);
            for (&x, row) in a_block.iter().zip(code_block.chunks_exact(HALF)) {
                if x == 0.0 {
                    continue;
                }
                let x = _mm256_set1_ps(x);
                for (acc, w) in acc.iter_mut().zip(decode_row(lookup, row, &scales)) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(x, w));
                }
            }
        }
        let mut out = [0.0f32; PANEL];
        for (o, v) in out.chunks_exact_mut(8).zip(acc) {
            // SAFETY: `o` is a chunk of exactly 8 `f32`s.
            unsafe { _mm256_storeu_ps(o.as_mut_ptr(), v) };
        }
        out
    }

    /// Decodes a code panel into `slab` (`k` rows of 32), each value `table[code] * scale`.
    #[target_feature(enable = "avx2")]
    fn decode_panel(lookup: IntLookup4, panel: Panel<'_>, slab: &mut [f32]) {
        let slab_blocks = slab.chunks_mut(panel.block_size * PANEL);
        for ((code_block, scales), slab_block) in panel.blocks().zip(slab_blocks) {
            let scales = load_scales(scales, lookup);
            for (row, out) in code_block.chunks_exact(HALF).zip(slab_block.chunks_exact_mut(PANEL)) {
                for (o, w) in out.chunks_exact_mut(8).zip(decode_row(lookup, row, &scales)) {
                    // SAFETY: `o` is a chunk of exactly 8 `f32`s.
                    unsafe { _mm256_storeu_ps(o.as_mut_ptr(), w) };
                }
            }
        }
    }

    /// All rows of `a` times one decoded panel, in 6×16 register tiles.
    #[target_feature(enable = "avx2")]
    fn tiles(a: &Matrix, slab: &[f32], out: &mut Matrix, col0: usize, width: usize) {
        let m = a.rows();
        let mut i = 0;
        while i < m {
            let rows = TILE_ROWS.min(m - i);
            for half in (0..PANEL).step_by(HALF).take_while(|&c| c < width) {
                let mut tile = [[0.0f32; HALF]; TILE_ROWS];
                match rows {
                    6 => tile_rows::<6>(a, i, &slab[half..], &mut tile),
                    5 => tile_rows::<5>(a, i, &slab[half..], &mut tile),
                    4 => tile_rows::<4>(a, i, &slab[half..], &mut tile),
                    3 => tile_rows::<3>(a, i, &slab[half..], &mut tile),
                    2 => tile_rows::<2>(a, i, &slab[half..], &mut tile),
                    _ => tile_rows::<1>(a, i, &slab[half..], &mut tile),
                }
                let cols = HALF.min(width - half);
                for (r, values) in tile.iter().take(rows).enumerate() {
                    out.row_mut(i + r)[col0 + half..col0 + half + cols].copy_from_slice(&values[..cols]);
                }
            }
            i += rows;
        }
    }

    /// Rows `i0..i0 + R` of `a` times 16 columns of a slab (`w` starts at the tile's first
    /// column; rows are `PANEL` apart): `R × 2` accumulators, each weight vector loaded
    /// once per `p` and used by all `R` rows.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn tile_rows<const R: usize>(a: &Matrix, i0: usize, w: &[f32], tile: &mut [[f32; HALF]; TILE_ROWS]) {
        let k = a.cols();
        let a = &a.data()[i0 * k..(i0 + R) * k];
        assert!(R <= TILE_ROWS && k > 0 && w.len() >= (k - 1) * PANEL + HALF);
        let (a_ptr, w_ptr) = (a.as_ptr(), w.as_ptr());
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for p in 0..k {
            // SAFETY: `p < k`, and `w` holds at least `(k - 1) * PANEL + 16` values.
            let w0 = unsafe { _mm256_loadu_ps(w_ptr.add(p * PANEL)) };
            // SAFETY: as above; these are lanes 8..16 of the same row.
            let w1 = unsafe { _mm256_loadu_ps(w_ptr.add(p * PANEL + 8)) };
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: `r < R` and `p < k`, inside `a`'s `R * k` values.
                let x = _mm256_set1_ps(unsafe { *a_ptr.add(r * k + p) });
                acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(x, w0));
                acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(x, w1));
            }
        }
        for (values, acc) in tile.iter_mut().zip(acc) {
            for (o, v) in values.chunks_exact_mut(8).zip(acc) {
                // SAFETY: `o` is a chunk of exactly 8 `f32`s.
                unsafe { _mm256_storeu_ps(o.as_mut_ptr(), v) };
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The AVX-512F kernel of [`Matrix::matmul_panels`].

    use std::arch::x86_64::*;

    use mx_formats::kernels::decode_table;

    use super::{Panel, WeightPanels, HALF, PANEL};
    use crate::matrix::Matrix;

    /// Most activation rows one walk over a panel serves: two accumulators each.
    const ROWS: usize = 8;

    /// `out = a · w`, panel by panel and in blocks of up to [`ROWS`] rows, for code
    /// panels `w`, an `a` with at least one column and an `out` of
    /// `a.rows() × w.cols()`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F support at runtime.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn product(a: &Matrix, w: &WeightPanels, out: &mut Matrix) {
        let m = a.rows();
        for (col0, width, panel) in w.panels() {
            let mut i = 0;
            while i < m {
                let rows = ROWS.min(m - i);
                match rows {
                    8 => row_block::<8>(a, i, panel, out, col0, width),
                    7 => row_block::<7>(a, i, panel, out, col0, width),
                    6 => row_block::<6>(a, i, panel, out, col0, width),
                    5 => row_block::<5>(a, i, panel, out, col0, width),
                    4 => row_block::<4>(a, i, panel, out, col0, width),
                    3 => row_block::<3>(a, i, panel, out, col0, width),
                    2 => row_block::<2>(a, i, panel, out, col0, width),
                    _ => row_block::<1>(a, i, panel, out, col0, width),
                }
                i += rows;
            }
        }
    }

    /// Loads 16 lanes from `values[at..at + 16]`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load16(values: &[f32], at: usize) -> __m512 {
        assert!(at + 16 <= values.len());
        // SAFETY: the assert above bounds the 16-lane load.
        unsafe { _mm512_loadu_ps(values.as_ptr().add(at)) }
    }

    /// Lane indices into a pair of vectors (`0..16` the first, `16..32` the second).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lanes(index: impl Fn(i32) -> i32) -> __m512i {
        let index: [i32; 16] = std::array::from_fn(|j| index(j as i32));
        // SAFETY: `index` holds exactly the 16 lanes loaded.
        unsafe { _mm512_loadu_si512(index.as_ptr().cast()) }
    }

    /// Rows `i0..i0 + R` of `a` times one code panel, written to columns
    /// `col0..col0 + width` of the same rows of `out`. Each code row is decoded in
    /// registers once and feeds all `R` rows; a lone row skips the code rows its zero
    /// activations meet.
    #[target_feature(enable = "avx512f")]
    fn row_block<const R: usize>(a: &Matrix, i0: usize, panel: Panel<'_>, out: &mut Matrix, col0: usize, width: usize) {
        let k = a.cols();
        let a = &a.data()[i0 * k..(i0 + R) * k];
        assert!(panel.codes.len() == k * HALF && width <= PANEL);
        let a_ptr = a.as_ptr();
        let table = load16(decode_table(panel.element), 0);
        let (even_lanes, odd_lanes) = (lanes(|j| 2 * j), lanes(|j| 2 * j + 1));
        let mut even = [_mm512_setzero_ps(); R];
        let mut odd = [_mm512_setzero_ps(); R];
        for (b, (codes, scales)) in panel.blocks().enumerate() {
            let (lo, hi) = (load16(scales, 0), load16(scales, 16));
            let even_scales = _mm512_permutex2var_ps(lo, even_lanes, hi);
            let odd_scales = _mm512_permutex2var_ps(lo, odd_lanes, hi);
            for (p, row) in (b * panel.block_size..).zip(codes.chunks_exact(HALF)) {
                // SAFETY: `p < k`: `panel.codes` holds `k` rows of 16 bytes.
                if R == 1 && unsafe { *a_ptr.add(p) } == 0.0 {
                    continue;
                }
                // SAFETY: `row` is a chunk of exactly 16 bytes.
                let bytes = _mm512_cvtepu8_epi32(unsafe { _mm_loadu_si128(row.as_ptr().cast()) });
                // `vpermps` reads the low 4 bits of each lane: the even column's code, then
                // the odd one's once shifted down.
                let w_even = _mm512_mul_ps(_mm512_permutexvar_ps(bytes, table), even_scales);
                let w_odd = _mm512_mul_ps(_mm512_permutexvar_ps(_mm512_srli_epi32::<4>(bytes), table), odd_scales);
                for (r, (even, odd)) in even.iter_mut().zip(&mut odd).enumerate() {
                    // SAFETY: `r < R` and `p < k`, inside `a`'s `R * k` values.
                    let x = _mm512_set1_ps(unsafe { *a_ptr.add(r * k + p) });
                    *even = _mm512_add_ps(*even, _mm512_mul_ps(x, w_even));
                    *odd = _mm512_add_ps(*odd, _mm512_mul_ps(x, w_odd));
                }
            }
        }
        // Column 2j is lane j of `even`, column 2j + 1 lane j of `odd`.
        let halves = [lanes(|j| j / 2 + 16 * (j % 2)), lanes(|j| 8 + j / 2 + 16 * (j % 2))];
        for (r, (even, odd)) in even.into_iter().zip(odd).enumerate() {
            let row = &mut out.row_mut(i0 + r)[col0..col0 + width];
            for (o, idx) in row.chunks_mut(HALF).zip(halves) {
                let mask = u16::MAX >> (HALF - o.len());
                // SAFETY: the mask stores exactly the `o.len() <= 16` lanes `o` holds.
                unsafe { _mm512_mask_storeu_ps(o.as_mut_ptr(), mask, _mm512_permutex2var_ps(even, idx, odd)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    fn weights(k: usize, n: usize) -> Matrix {
        Matrix::from_fn(k, n, |r, c| {
            let v = ((r * 31 + c * 17) as f32 * 0.37).sin() * 0.3;
            if (r + 3 * c) % 23 == 5 {
                v * 20.0
            } else {
                v
            }
        })
    }

    #[test]
    fn only_finite_four_bit_weights_become_code_panels() {
        let w = weights(64, 40);
        let matrix_bytes = 4 * 64 * 40;
        // 2 panels × 64 rows × 16 code bytes, plus 2 panels × 2 blocks × 32 scales.
        let code_panels = format_kernels::active_backend().runs_avx2();
        let codes_bytes = if code_panels { 2 * 64 * 16 + 4 * 2 * 2 * 32 } else { matrix_bytes };
        for scheme in [QuantScheme::mxfp4(), QuantScheme::mxint4()] {
            assert_eq!(WeightPanels::cast(&w, scheme).storage_bytes(), codes_bytes, "{scheme}");
        }
        for scheme in [QuantScheme::mxfp4_plus(), QuantScheme::mxfp6(), QuantScheme::Bf16, QuantScheme::Fp32] {
            assert_eq!(WeightPanels::cast(&w, scheme).storage_bytes(), matrix_bytes, "{scheme}");
        }
        let mut w = w;
        w.set(3, 2, f32::INFINITY);
        assert_eq!(WeightPanels::cast(&w, QuantScheme::mxfp4()).storage_bytes(), matrix_bytes);
    }

    /// The scale-edge weights of the panel proptests: 32-row blocks near the smallest
    /// scales (subnormal products), near the largest (overflowing sums), of subnormal
    /// values and of ordinary ones, by turns.
    fn edge_weights(k: usize, n: usize) -> Matrix {
        Matrix::from_fn(k, n, |r, c| {
            let u = ((r * 13 + c * 7) as f32 * 0.61).sin();
            match (r / 32 + c) % 4 {
                0 => u * 1e-38,
                1 => u * 3e38,
                2 => u * 1e-40,
                _ => 0.1 * u,
            }
        })
    }

    /// Activations with exact zeros, −0.0, subnormals and outliers; every fourth row is
    /// all zeros.
    fn activations(m: usize, k: usize) -> Matrix {
        Matrix::from_fn(m, k, |r, c| {
            let u = ((r * k + c) as f32 * 0.73).cos();
            match (r % 4, (r * k + c) % 7) {
                (3, _) => 0.0,
                (_, 2) => 0.0,
                (_, 4) => -0.0,
                (_, 5) => u * 1e-40,
                (_, 6) => 20.0 * u,
                _ => u,
            }
        })
    }

    /// Each SIMD kernel, called directly, equals `matmul` on the `quantize_columns`
    /// weights bit for bit: k = 100 leaves a ragged last block, n = 40 a ragged last
    /// panel, column 9 of the ordinary weights is all zeros (scale 0.0), and the M cover
    /// every AVX-512 row-block size, several blocks and both AVX2 tile paths. A kernel
    /// the CPU lacks is skipped with a note, so on an AVX-512 host both run.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn both_simd_kernels_equal_matmul_bit_for_bit() {
        type Kernel = fn(&Matrix, &WeightPanels, &mut Matrix) -> bool;
        let kernels: [(&str, bool, Kernel); 2] = [
            ("avx2", std::arch::is_x86_feature_detected!("avx2"), |a, w, out| {
                // SAFETY: called only when the CPU has AVX2.
                unsafe { avx2::product(a, w, out) }
            }),
            ("avx512", std::arch::is_x86_feature_detected!("avx512f"), |a, w, out| {
                // SAFETY: called only when the CPU has AVX-512F.
                unsafe { avx512::product(a, w, out) };
                true
            }),
        ];
        let (k, n) = (100, 40);
        let mut ordinary = weights(k, n);
        for p in 0..k {
            ordinary.set(p, 9, 0.0);
        }
        for (name, present, kernel) in kernels {
            if !present {
                println!("note: the {name} panel kernel is not tested: this CPU lacks it");
                continue;
            }
            for format in [MxFormat::MXFP4, MxFormat::MXINT4] {
                for (label, w) in [("ordinary", &ordinary), ("scale-edge", &edge_weights(k, n))] {
                    let store = cast_codes4(w, format).expect("finite weights give code panels");
                    if let Store::Codes4 { scales, .. } = &store {
                        assert!(label != "ordinary" || scales[9] == 0.0, "an all-zero column has scale 0.0");
                    }
                    let panels = WeightPanels { rows: k, cols: n, store };
                    let wq = w.quantize_columns(QuantScheme::Mx(format));
                    for m in (1..=9).chain([13, 32, 64]) {
                        let a = activations(m, k);
                        let mut out = Matrix::zeros(m, n);
                        assert!(kernel(&a, &panels, &mut out), "{name}: 4-bit elements have a lookup");
                        assert!(bits(&out) == bits(&a.matmul(&wq)), "{name} {format:?} {label} M = {m}: differs");
                    }
                }
            }
        }
    }

    #[test]
    fn decoded_panels_equal_the_quantize_columns_matrix() {
        let w = weights(100, 40);
        for format in [MxFormat::MXFP4, MxFormat::MXINT4] {
            let store = cast_codes4(&w, format).expect("finite weights give code panels");
            let panels = WeightPanels { rows: 100, cols: 40, store };
            assert_eq!(bits(&panels.decoded()), bits(&w.quantize_columns(QuantScheme::Mx(format))), "{format:?}");
        }
    }
}
