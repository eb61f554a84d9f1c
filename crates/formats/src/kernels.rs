//! Word-parallel and SIMD pack/unpack kernels behind runtime dispatch.
//!
//! The scalar loops in [`crate::layout`] move one 4/6/8-bit code at a time through
//! shift/mask arithmetic keyed on the code's absolute bit position. This module is the
//! kernel layer underneath them: the same transformations expressed as u64 word-level
//! bit manipulation (several codes inserted or extracted per word, no per-code byte/bit
//! bookkeeping) plus `std::arch` SIMD specializations for the 4-bit path — AVX2/SSE2 on
//! x86_64, NEON on aarch64 — selected once by runtime feature detection.
//!
//! Every path is bit-exact against the scalar reference (pinned by the unit tests here
//! and the `kernel_dispatch` proptest suite, which call the reference directly): for
//! identical inputs, identical packed bytes and identical unpacked codes, for every bit
//! width in `1..=8` and every length including partial tail bytes.
//!
//! The kernel plan is a fact of the process: the first call of [`active_backend`] runs
//! `detect()`, the one place that reads CPU features, and the plan never changes after.
//! The `MX_FORCE_SCALAR_KERNELS` environment variable (any non-empty value other than
//! `0`) makes it [`KernelBackend::Scalar`]: the scalar pack/unpack loops, attention on
//! the provided path of `mx_llm`'s KV readers (rows decoded by the row codecs, then
//! folded) instead of the fused page kernels, every MX/MX+ conversion on the scalar
//! `minifloat` codecs instead of the fast block quantizer, and row-major `f32` weights
//! instead of code panels: the full reference pipeline, end to end, as a process of its
//! own.
//!
//! The module also hosts the per-element-type decode lookup tables used by the block
//! decoders: a code is at most 8 bits, so each decoder is a pure function on 256 inputs
//! and tabulates exactly — the table path is bit-identical to calling the decoder, just
//! without re-deriving sign/exponent/mantissa per element. On top of them sit the two
//! AVX2 4-bit lookups of [`avx2`]:
//! - [`avx2::Decode4`], exact, behind [`decode4_into`] and so behind every packed row a
//!   `RowCodec` unpacks;
//! - [`avx2::IntLookup4`], one `pshufb` from codes to the table's entries times `2^m` as
//!   integers ([`int4_table`]), for consumers that sum what they decode: the fused
//!   attention page kernels here (`RowCodec::key_dots` / `RowCodec::value_accumulate`)
//!   and, on the [`KernelBackend::Avx2`] tier, `mx_tensor`'s panel GEMM. On the
//!   [`KernelBackend::Avx512`] tier the panel GEMM looks codes up with `vpermps` in the
//!   first 16 entries of [`decode_table`] instead.

use std::sync::OnceLock;

use crate::element::ElementType;
use crate::layout::{AttnGeometry, PackedRows};
use crate::minifloat;

/// The kernel plan of the process: which tier serves every kernel call, from
/// [`pack_codes_into`]/[`unpack_codes_into`] to `mx_tensor`'s panel GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The reference pipeline: the per-code shift/mask loops, the scalar `minifloat`
    /// codecs and, downstream, row-major `f32` weights and the provided attention path.
    Scalar,
    /// Portable u64 word-parallel paths (multiple codes per word).
    Word,
    /// x86_64 SSE2 vectors for the 4-bit path, word-parallel otherwise.
    Sse2,
    /// x86_64 AVX2 vectors for the 4-bit path, word-parallel otherwise; the AVX2 4-bit
    /// lookups, fused page kernels and panel GEMM.
    Avx2,
    /// x86_64 with AVX2 and AVX-512F: the AVX-512F panel GEMM, and the [`Avx2`] kernels
    /// everywhere else.
    ///
    /// [`Avx2`]: KernelBackend::Avx2
    Avx512,
    /// aarch64 NEON vectors for the 4-bit path, word-parallel otherwise.
    Neon,
}

impl KernelBackend {
    /// Stable lower-case name for logs and bench labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Word => "word",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Neon => "neon",
        }
    }

    /// Whether this tier runs the AVX2 kernels: the 4-bit pack/unpack vectors,
    /// [`decode4_into`]'s lookups, the fused attention page kernels and `mx_tensor`'s
    /// code panels. `detect()` picks such a tier only where the CPU has AVX2.
    #[must_use]
    pub fn runs_avx2(self) -> bool {
        matches!(self, KernelBackend::Avx2 | KernelBackend::Avx512)
    }
}

/// Largest block length (in elements) the register-resident kernels handle; blocks above
/// this fall back to the scalar per-code path. Twice the OCP standard block of 32, so
/// every stock MX/MX+ format fits with headroom.
pub const MAX_FUSED_BLOCK: usize = 64;

/// The kernel plan of this process, decided by `detect()` on the first call and fixed
/// from then on.
#[must_use]
pub fn active_backend() -> KernelBackend {
    static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

/// The one backend selection of the process, and the only code that reads CPU features:
/// [`KernelBackend::Scalar`] under `MX_FORCE_SCALAR_KERNELS`, else the best tier the CPU
/// runs.
fn detect() -> KernelBackend {
    if std::env::var_os("MX_FORCE_SCALAR_KERNELS").is_some_and(|v| !v.is_empty() && v != "0") {
        return KernelBackend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        match (std::arch::is_x86_feature_detected!("avx2"), std::arch::is_x86_feature_detected!("avx512f")) {
            (true, true) => KernelBackend::Avx512,
            (true, false) => KernelBackend::Avx2,
            // SSE2 is part of the x86_64 baseline; no detection needed.
            (false, _) => KernelBackend::Sse2,
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON (asimd) is mandatory on aarch64.
        KernelBackend::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        KernelBackend::Word
    }
}

/// Exact number of bytes `count` codes of width `bits` occupy when packed.
#[must_use]
pub fn packed_len(count: usize, bits: u32) -> usize {
    (count * bits as usize).div_ceil(8)
}

/// Packs element codes of width `bits` into `out` (little-endian bit order within each
/// byte), overwriting the `packed_len(codes.len(), bits)`-byte prefix. Dispatches to the
/// active backend; bytes are identical to [`pack_codes_into_scalar`] on every path.
///
/// # Panics
///
/// Panics if `bits` is outside `1..=8` or `out` is shorter than the packed size.
pub fn pack_codes_into(codes: &[u8], bits: u32, out: &mut [u8]) {
    assert!((1..=8).contains(&bits), "element width must be between 1 and 8 bits");
    let needed = packed_len(codes.len(), bits);
    assert!(out.len() >= needed, "packed output buffer too short");
    let out = &mut out[..needed];
    match active_backend() {
        KernelBackend::Scalar => scalar_pack(codes, bits, out),
        backend => match bits {
            4 => {
                let done = simd_pack4(codes, out, backend);
                word_pack4(&codes[done..], &mut out[done / 2..]);
            }
            6 => word_pack6(codes, out),
            8 => out.copy_from_slice(codes),
            _ => word_pack_generic(codes, bits, out),
        },
    }
}

/// Unpacks `out.len()` element codes of width `bits` from a packed byte buffer.
/// Dispatches to the active backend; codes are identical to
/// [`unpack_codes_into_scalar`] on every path.
///
/// # Panics
///
/// Panics if `bits` is outside `1..=8` or `packed` is shorter than the packed size of
/// `out.len()` codes.
pub fn unpack_codes_into(packed: &[u8], bits: u32, out: &mut [u8]) {
    assert!((1..=8).contains(&bits), "element width must be between 1 and 8 bits");
    let needed = packed_len(out.len(), bits);
    assert!(packed.len() >= needed, "packed input buffer too short");
    let packed = &packed[..needed];
    match active_backend() {
        KernelBackend::Scalar => scalar_unpack(packed, bits, out),
        backend => match bits {
            4 => {
                let done = simd_unpack4(packed, out, backend);
                word_unpack4(&packed[done / 2..], &mut out[done..]);
            }
            6 => word_unpack6(packed, out),
            8 => out.copy_from_slice(packed),
            _ => word_unpack_generic(packed, bits, out),
        },
    }
}

/// The scalar reference for [`pack_codes_into`]: one code at a time, shift/mask keyed on
/// the code's absolute bit position. Every other path must match it byte for byte.
///
/// # Panics
///
/// Panics under the same conditions as [`pack_codes_into`].
pub fn pack_codes_into_scalar(codes: &[u8], bits: u32, out: &mut [u8]) {
    assert!((1..=8).contains(&bits), "element width must be between 1 and 8 bits");
    let needed = packed_len(codes.len(), bits);
    assert!(out.len() >= needed, "packed output buffer too short");
    scalar_pack(codes, bits, &mut out[..needed]);
}

/// The scalar reference for [`unpack_codes_into`]: random-access extraction of one code
/// at a time via [`code_at`]. Every other path must match it code for code.
///
/// # Panics
///
/// Panics under the same conditions as [`unpack_codes_into`].
pub fn unpack_codes_into_scalar(packed: &[u8], bits: u32, out: &mut [u8]) {
    assert!((1..=8).contains(&bits), "element width must be between 1 and 8 bits");
    let needed = packed_len(out.len(), bits);
    assert!(packed.len() >= needed, "packed input buffer too short");
    scalar_unpack(&packed[..needed], bits, out);
}

/// Reads the `i`-th element code of width `bits` from a packed byte slice without
/// allocating (the random-access primitive behind the scalar reference paths).
#[must_use]
pub fn code_at(packed: &[u8], bits: u32, i: usize) -> u8 {
    let mask = if bits == 8 { 0xff } else { (1u16 << bits) - 1 };
    let bit_pos = i * bits as usize;
    let byte = bit_pos / 8;
    let offset = bit_pos % 8;
    let mut value = u16::from(packed[byte]) >> offset;
    if offset + bits as usize > 8 {
        value |= u16::from(packed[byte + 1]) << (8 - offset);
    }
    (value & mask) as u8
}

fn scalar_pack(codes: &[u8], bits: u32, out: &mut [u8]) {
    out.fill(0);
    let mask = if bits == 8 { 0xff } else { (1u16 << bits) - 1 };
    for (i, &code) in codes.iter().enumerate() {
        let value = u16::from(code) & mask;
        let bit_pos = i * bits as usize;
        let byte = bit_pos / 8;
        let offset = bit_pos % 8;
        out[byte] |= (value << offset) as u8;
        if offset + bits as usize > 8 {
            out[byte + 1] |= (value >> (8 - offset)) as u8;
        }
    }
}

fn scalar_unpack(packed: &[u8], bits: u32, out: &mut [u8]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = code_at(packed, bits, i);
    }
}

/// 4-bit pack, one output byte per code pair (`lo | hi << 4`); the `u8` shift discards
/// the high nibble of the odd code exactly as the scalar mask does.
fn word_pack4(codes: &[u8], out: &mut [u8]) {
    for (o, pair) in out.iter_mut().zip(codes.chunks_exact(2)) {
        *o = (pair[0] & 0x0f) | (pair[1] << 4);
    }
    if let [last] = codes.chunks_exact(2).remainder() {
        out[codes.len() / 2] = last & 0x0f;
    }
}

/// 4-bit unpack, two codes per packed byte.
fn word_unpack4(packed: &[u8], out: &mut [u8]) {
    for (o, &b) in out.chunks_exact_mut(2).zip(packed) {
        o[0] = b & 0x0f;
        o[1] = b >> 4;
    }
    if out.len() % 2 == 1 {
        out[out.len() - 1] = packed[out.len() / 2] & 0x0f;
    }
}

/// 6-bit pack: four codes become one 24-bit little-endian word (three bytes).
fn word_pack6(codes: &[u8], out: &mut [u8]) {
    const M6: u32 = 0x3f;
    let full = codes.len() / 4;
    for (o, quad) in out.chunks_exact_mut(3).zip(codes.chunks_exact(4)) {
        let w = (u32::from(quad[0]) & M6)
            | ((u32::from(quad[1]) & M6) << 6)
            | ((u32::from(quad[2]) & M6) << 12)
            | ((u32::from(quad[3]) & M6) << 18);
        o.copy_from_slice(&w.to_le_bytes()[..3]);
    }
    let tail = codes.chunks_exact(4).remainder();
    if !tail.is_empty() {
        let mut w = 0u32;
        for (k, &c) in tail.iter().enumerate() {
            w |= (u32::from(c) & M6) << (6 * k);
        }
        let nb = packed_len(tail.len(), 6);
        out[3 * full..3 * full + nb].copy_from_slice(&w.to_le_bytes()[..nb]);
    }
}

/// 6-bit unpack: three packed bytes yield four codes per 24-bit word.
fn word_unpack6(packed: &[u8], out: &mut [u8]) {
    let full = out.len() / 4;
    for (o, p) in out.chunks_exact_mut(4).zip(packed.chunks_exact(3)) {
        let w = u32::from(p[0]) | (u32::from(p[1]) << 8) | (u32::from(p[2]) << 16);
        o[0] = (w & 0x3f) as u8;
        o[1] = ((w >> 6) & 0x3f) as u8;
        o[2] = ((w >> 12) & 0x3f) as u8;
        o[3] = ((w >> 18) & 0x3f) as u8;
    }
    let t = out.len() % 4;
    if t > 0 {
        let base = 3 * full;
        let nb = packed_len(t, 6);
        let mut w = 0u32;
        for (k, &b) in packed[base..base + nb].iter().enumerate() {
            w |= u32::from(b) << (8 * k);
        }
        for (k, o) in out[4 * full..].iter_mut().enumerate() {
            *o = ((w >> (6 * k)) & 0x3f) as u8;
        }
    }
}

/// Generic word-parallel pack for the remaining widths (1/2/3/5/7 bits): codes stream
/// into a u64 bit accumulator and whole bytes drain out, so the inner loop is branch-lean
/// (one conditional flush per code — the accumulator never holds more than 15 bits).
fn word_pack_generic(codes: &[u8], bits: u32, out: &mut [u8]) {
    let mask = (1u64 << bits) - 1;
    let mut acc = 0u64;
    let mut acc_bits = 0u32;
    let mut o = 0usize;
    for &c in codes {
        acc |= (u64::from(c) & mask) << acc_bits;
        acc_bits += bits;
        if acc_bits >= 8 {
            out[o] = acc as u8;
            o += 1;
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out[o] = acc as u8;
    }
}

/// Generic word-parallel unpack: bytes stream into a u64 window and codes shift out.
fn word_unpack_generic(packed: &[u8], bits: u32, out: &mut [u8]) {
    let mask = (1u64 << bits) - 1;
    let mut acc = 0u64;
    let mut acc_bits = 0u32;
    let mut idx = 0usize;
    for o in out.iter_mut() {
        if acc_bits < bits {
            acc |= u64::from(packed[idx]) << acc_bits;
            idx += 1;
            acc_bits += 8;
        }
        *o = (acc & mask) as u8;
        acc >>= bits;
        acc_bits -= bits;
    }
}

/// Vector 4-bit pack for the aligned prefix; returns the number of codes consumed (a
/// multiple of 32, so the remainder stays byte-aligned for the word tail).
#[cfg(target_arch = "x86_64")]
fn simd_pack4(codes: &[u8], out: &mut [u8], backend: KernelBackend) -> usize {
    let mut done = 0usize;
    if backend.runs_avx2() && codes.len() >= 64 {
        let n = codes.len() & !63;
        // SAFETY: `detect()` selects a backend that runs the AVX2 kernels only after
        // `is_x86_feature_detected!("avx2")` succeeded, and the slices are pre-cut to
        // matching lengths.
        unsafe { x86::pack4_avx2(&codes[..n], &mut out[..n / 2]) };
        done = n;
    }
    if (backend.runs_avx2() || backend == KernelBackend::Sse2) && codes.len() - done >= 32 {
        let n = (codes.len() - done) & !31;
        // SAFETY: SSE2 is unconditionally available on x86_64 (baseline ISA), and the
        // slices are pre-cut to matching lengths.
        unsafe { x86::pack4_sse2(&codes[done..done + n], &mut out[done / 2..(done + n) / 2]) };
        done += n;
    }
    done
}

/// Vector 4-bit unpack for the aligned prefix; returns the number of codes produced.
#[cfg(target_arch = "x86_64")]
fn simd_unpack4(packed: &[u8], out: &mut [u8], backend: KernelBackend) -> usize {
    let mut done = 0usize;
    if backend.runs_avx2() && out.len() >= 64 {
        let n = out.len() & !63;
        // SAFETY: `detect()` selects a backend that runs the AVX2 kernels only after
        // `is_x86_feature_detected!("avx2")` succeeded, and the slices are pre-cut to
        // matching lengths.
        unsafe { x86::unpack4_avx2(&packed[..n / 2], &mut out[..n]) };
        done = n;
    }
    if (backend.runs_avx2() || backend == KernelBackend::Sse2) && out.len() - done >= 32 {
        let n = (out.len() - done) & !31;
        // SAFETY: SSE2 is unconditionally available on x86_64 (baseline ISA), and the
        // slices are pre-cut to matching lengths.
        unsafe { x86::unpack4_sse2(&packed[done / 2..(done + n) / 2], &mut out[done..done + n]) };
        done += n;
    }
    done
}

#[cfg(target_arch = "aarch64")]
fn simd_pack4(codes: &[u8], out: &mut [u8], backend: KernelBackend) -> usize {
    if backend == KernelBackend::Neon && codes.len() >= 32 {
        let n = codes.len() & !31;
        // SAFETY: NEON is mandatory on aarch64, and the slices are pre-cut to matching
        // lengths.
        unsafe { neon::pack4_neon(&codes[..n], &mut out[..n / 2]) };
        n
    } else {
        let _ = out;
        0
    }
}

#[cfg(target_arch = "aarch64")]
fn simd_unpack4(packed: &[u8], out: &mut [u8], backend: KernelBackend) -> usize {
    if backend == KernelBackend::Neon && out.len() >= 32 {
        let n = out.len() & !31;
        // SAFETY: NEON is mandatory on aarch64, and the slices are pre-cut to matching
        // lengths.
        unsafe { neon::unpack4_neon(&packed[..n / 2], &mut out[..n]) };
        n
    } else {
        let _ = packed;
        0
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn simd_pack4(_codes: &[u8], _out: &mut [u8], _backend: KernelBackend) -> usize {
    0
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn simd_unpack4(_packed: &[u8], _out: &mut [u8], _backend: KernelBackend) -> usize {
    0
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2/AVX2 4-bit kernels. The layout invariant throughout: packed byte `k` holds
    //! codes `2k` (low nibble) and `2k+1` (high nibble), matching the scalar reference.

    use std::arch::x86_64::*;

    /// Packs code pairs into nibbles, 64 codes (two 256-bit loads) per iteration.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime. `codes.len()` must be a
    /// multiple of 64 with `out.len() == codes.len() / 2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack4_avx2(codes: &[u8], out: &mut [u8]) {
        debug_assert!(codes.len().is_multiple_of(64) && out.len() * 2 == codes.len());
        let lownib = _mm256_set1_epi16(0x000f);
        let mut i = 0usize;
        while i + 64 <= codes.len() {
            // SAFETY: `i + 64 <= codes.len()` bounds both unaligned 32-byte loads.
            let (c0, c1) = unsafe {
                (
                    _mm256_loadu_si256(codes.as_ptr().add(i).cast()),
                    _mm256_loadu_si256(codes.as_ptr().add(i + 32).cast()),
                )
            };
            // Per u16 lane: low-nibble of the even byte | low-nibble of the odd byte << 4.
            let v0 = _mm256_or_si256(
                _mm256_and_si256(c0, lownib),
                _mm256_slli_epi16::<4>(_mm256_and_si256(_mm256_srli_epi16::<8>(c0), lownib)),
            );
            let v1 = _mm256_or_si256(
                _mm256_and_si256(c1, lownib),
                _mm256_slli_epi16::<4>(_mm256_and_si256(_mm256_srli_epi16::<8>(c1), lownib)),
            );
            // packus interleaves 128-bit lanes of v0/v1; the qword permute restores
            // sequential byte order (v0.lane0, v0.lane1, v1.lane0, v1.lane1).
            let packed = _mm256_packus_epi16(v0, v1);
            let packed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
            // SAFETY: `out.len() == codes.len() / 2`, so `i / 2 + 32 <= out.len()`.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(i / 2).cast(), packed) };
            i += 64;
        }
    }

    /// Unpacks nibbles into code bytes, 32 packed bytes (64 codes) per iteration.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime. `out.len()` must be a
    /// multiple of 64 with `packed.len() == out.len() / 2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn unpack4_avx2(packed: &[u8], out: &mut [u8]) {
        debug_assert!(out.len().is_multiple_of(64) && packed.len() * 2 == out.len());
        let lownib = _mm256_set1_epi8(0x0f);
        let mut i = 0usize;
        while i + 32 <= packed.len() {
            // SAFETY: `i + 32 <= packed.len()` bounds the unaligned 32-byte load.
            let v = unsafe { _mm256_loadu_si256(packed.as_ptr().add(i).cast()) };
            let lo = _mm256_and_si256(v, lownib);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), lownib);
            // Byte interleave happens within 128-bit lanes; the cross-lane permutes
            // reassemble codes 0..31 and 32..63 in order.
            let a = _mm256_unpacklo_epi8(lo, hi);
            let b = _mm256_unpackhi_epi8(lo, hi);
            let first = _mm256_permute2x128_si256::<0x20>(a, b);
            let second = _mm256_permute2x128_si256::<0x31>(a, b);
            // SAFETY: `out.len() == 2 * packed.len()`, so `2 * i + 64 <= out.len()`.
            unsafe {
                _mm256_storeu_si256(out.as_mut_ptr().add(2 * i).cast(), first);
                _mm256_storeu_si256(out.as_mut_ptr().add(2 * i + 32).cast(), second);
            }
            i += 32;
        }
    }

    /// Packs code pairs into nibbles, 32 codes (two 128-bit loads) per iteration.
    ///
    /// # Safety
    ///
    /// SSE2 is baseline on x86_64 so the target feature always holds; `codes.len()` must
    /// be a multiple of 32 with `out.len() == codes.len() / 2`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn pack4_sse2(codes: &[u8], out: &mut [u8]) {
        debug_assert!(codes.len().is_multiple_of(32) && out.len() * 2 == codes.len());
        let lownib = _mm_set1_epi16(0x000f);
        let mut i = 0usize;
        while i + 32 <= codes.len() {
            // SAFETY: `i + 32 <= codes.len()` bounds both unaligned 16-byte loads.
            let (c0, c1) = unsafe {
                (_mm_loadu_si128(codes.as_ptr().add(i).cast()), _mm_loadu_si128(codes.as_ptr().add(i + 16).cast()))
            };
            let v0 = _mm_or_si128(
                _mm_and_si128(c0, lownib),
                _mm_slli_epi16::<4>(_mm_and_si128(_mm_srli_epi16::<8>(c0), lownib)),
            );
            let v1 = _mm_or_si128(
                _mm_and_si128(c1, lownib),
                _mm_slli_epi16::<4>(_mm_and_si128(_mm_srli_epi16::<8>(c1), lownib)),
            );
            let packed = _mm_packus_epi16(v0, v1);
            // SAFETY: `out.len() == codes.len() / 2`, so `i / 2 + 16 <= out.len()`.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().add(i / 2).cast(), packed) };
            i += 32;
        }
    }

    /// Unpacks nibbles into code bytes, 16 packed bytes (32 codes) per iteration.
    ///
    /// # Safety
    ///
    /// SSE2 is baseline on x86_64 so the target feature always holds; `out.len()` must be
    /// a multiple of 32 with `packed.len() == out.len() / 2`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn unpack4_sse2(packed: &[u8], out: &mut [u8]) {
        debug_assert!(out.len().is_multiple_of(32) && packed.len() * 2 == out.len());
        let lownib = _mm_set1_epi8(0x0f);
        let mut i = 0usize;
        while i + 16 <= packed.len() {
            // SAFETY: `i + 16 <= packed.len()` bounds the unaligned 16-byte load.
            let v = unsafe { _mm_loadu_si128(packed.as_ptr().add(i).cast()) };
            let lo = _mm_and_si128(v, lownib);
            let hi = _mm_and_si128(_mm_srli_epi16::<4>(v), lownib);
            let a = _mm_unpacklo_epi8(lo, hi);
            let b = _mm_unpackhi_epi8(lo, hi);
            // SAFETY: `out.len() == 2 * packed.len()`, so `2 * i + 32 <= out.len()`.
            unsafe {
                _mm_storeu_si128(out.as_mut_ptr().add(2 * i).cast(), a);
                _mm_storeu_si128(out.as_mut_ptr().add(2 * i + 16).cast(), b);
            }
            i += 16;
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON 4-bit kernels; `vld2`/`vst2` do the even/odd (de)interleave in hardware.

    use std::arch::aarch64::*;

    /// Packs code pairs into nibbles, 32 codes per iteration.
    ///
    /// # Safety
    ///
    /// NEON is mandatory on aarch64 so the target feature always holds; `codes.len()`
    /// must be a multiple of 32 with `out.len() == codes.len() / 2`.
    #[target_feature(enable = "neon")]
    pub unsafe fn pack4_neon(codes: &[u8], out: &mut [u8]) {
        debug_assert!(codes.len().is_multiple_of(32) && out.len() * 2 == codes.len());
        let mut i = 0usize;
        while i + 32 <= codes.len() {
            // SAFETY: `i + 32 <= codes.len()` bounds the 32-byte deinterleaving load.
            let pair = unsafe { vld2q_u8(codes.as_ptr().add(i)) };
            let even = vandq_u8(pair.0, vdupq_n_u8(0x0f));
            let merged = vorrq_u8(even, vshlq_n_u8::<4>(pair.1));
            // SAFETY: `out.len() == codes.len() / 2`, so `i / 2 + 16 <= out.len()`.
            unsafe { vst1q_u8(out.as_mut_ptr().add(i / 2), merged) };
            i += 32;
        }
    }

    /// Unpacks nibbles into code bytes, 16 packed bytes (32 codes) per iteration.
    ///
    /// # Safety
    ///
    /// NEON is mandatory on aarch64 so the target feature always holds; `out.len()` must
    /// be a multiple of 32 with `packed.len() == out.len() / 2`.
    #[target_feature(enable = "neon")]
    pub unsafe fn unpack4_neon(packed: &[u8], out: &mut [u8]) {
        debug_assert!(out.len().is_multiple_of(32) && packed.len() * 2 == out.len());
        let mut i = 0usize;
        while i + 16 <= packed.len() {
            // SAFETY: `i + 16 <= packed.len()` bounds the 16-byte load.
            let v = unsafe { vld1q_u8(packed.as_ptr().add(i)) };
            let lo = vandq_u8(v, vdupq_n_u8(0x0f));
            let hi = vshrq_n_u8::<4>(v);
            // SAFETY: `out.len() == 2 * packed.len()`, so `2 * i + 32 <= out.len()`.
            unsafe { vst2q_u8(out.as_mut_ptr().add(2 * i), uint8x16x2_t(lo, hi)) };
            i += 16;
        }
    }
}

const NUM_ELEMENT_TYPES: usize = 7;

fn type_index(element: ElementType) -> usize {
    match element {
        ElementType::E2M1 => 0,
        ElementType::E2M3 => 1,
        ElementType::E3M2 => 2,
        ElementType::E4M3 => 3,
        ElementType::E5M2 => 4,
        ElementType::Int8 => 5,
        ElementType::Int4 => 6,
    }
}

static DECODE_TABLES: [OnceLock<[f32; 256]>; NUM_ELEMENT_TYPES] = [const { OnceLock::new() }; NUM_ELEMENT_TYPES];
static BM_DECODE_TABLES: [OnceLock<[f32; 256]>; NUM_ELEMENT_TYPES] = [const { OnceLock::new() }; NUM_ELEMENT_TYPES];

fn build_table(element: ElementType, bm: bool) -> [f32; 256] {
    let mut table = [0.0f32; 256];
    for (code, slot) in table.iter_mut().enumerate() {
        let c = code as u8;
        *slot = if bm {
            minifloat::decode_bm_extended(element, c)
        } else if element.is_int() {
            minifloat::decode_int(element, c)
        } else {
            minifloat::decode_fp(element, c)
        };
    }
    table
}

/// The 256-entry decode table for ordinary (non-block-max) codes of `element`: entry `c`
/// is exactly `decode_int`/`decode_fp` of `c`, bit for bit, built once per process.
#[must_use]
pub fn decode_table(element: ElementType) -> &'static [f32; 256] {
    DECODE_TABLES[type_index(element)].get_or_init(|| build_table(element, false))
}

/// The 256-entry decode table for the MX+ block-max slot: entry `c` is exactly
/// `decode_bm_extended` of `c`.
#[must_use]
pub fn bm_decode_table(element: ElementType) -> &'static [f32; 256] {
    BM_DECODE_TABLES[type_index(element)].get_or_init(|| build_table(element, true))
}

/// Decodes `out.len()` 4-bit codes, packed two per byte as [`pack_codes_into`] lays them
/// out (code `i` in the low nibble of byte `i / 2` when `i` is even, the high nibble when
/// odd), through a [`decode_table`]: `out[i] = table[code_i] * scale`.
///
/// This is the one exact 4-bit block decoder. `RowCodec::unpack_row_into` calls it, so
/// packed rows decode to `quantize_dequantize`'s values bit for bit, signed zeros
/// included. On a backend that [runs the AVX2 kernels](KernelBackend::runs_avx2) it runs
/// on [`avx2::Decode4`]: two 8-lane permutes over the table's 16 entries plus a blend
/// per 8 codes. Other backends, and the last `out.len() % 8` codes, index the table one
/// code at a time. Both give the same bits. Kernels that only sum decoded values use the
/// cheaper [`avx2::IntLookup4`] instead.
///
/// # Panics
///
/// Panics if `packed` is shorter than `packed_len(out.len(), 4)`.
pub fn decode4_into(packed: &[u8], table: &[f32; 256], scale: f32, out: &mut [f32]) {
    assert!(packed.len() >= packed_len(out.len(), 4), "packed input buffer too short");
    #[cfg(target_arch = "x86_64")]
    let done = if active_backend().runs_avx2() {
        // SAFETY: `detect()` selects a backend that runs the AVX2 kernels only after
        // `is_x86_feature_detected!("avx2")` succeeded.
        unsafe { avx2::decode4_scaled(packed, table, scale, out) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (i, o) in out.iter_mut().enumerate().skip(done) {
        let code = (packed[i / 2] >> (4 * (i % 2))) & 0x0f;
        *o = table[usize::from(code)] * scale;
    }
}

/// The integer lookup table of 4-bit `element` codes and its step: entry `c` is
/// `decode_table(element)[c] × 2^m`, an integer that fits an `i8`, and the step is
/// `2^-m`, with `m = 1` for E2M1 (whose values are multiples of 1/2) and `m = 2` for
/// INT4 (multiples of 1/4). So `entry × (scale × step)` is `decode_table(element)[c] ×
/// scale` bit for bit for any power-of-two (or zero, or NaN) `scale`; the one value that
/// differs is E2M1's −0.0 (code 8), which becomes the integer 0. `None` for element types
/// the lookup does not take.
#[must_use]
pub fn int4_table(element: ElementType) -> Option<([i8; 16], f32)> {
    let m = match element {
        ElementType::E2M1 => 1,
        ElementType::Int4 => 2,
        _ => return None,
    };
    let table = decode_table(element);
    let up = (2.0f32).powi(m);
    // Every entry times 2^m is an integer in -12..=12 (the unit tests check each one).
    let entries = std::array::from_fn(|c| (table[c] * up) as i8);
    Some((entries, up.recip()))
}

/// The block layout of a codec's 4-bit MX/MX+ rows and their lookups: what the fused
/// attention kernels need to know beyond the rows themselves.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct Blocks4 {
    /// Elements per block (the last block of a row may be shorter).
    block: usize,
    /// Whether each block's scale byte is followed by an MX+ BM-index byte.
    plus: bool,
    /// [`int4_table`] of the element type: the entries and their step.
    ints: [i8; 16],
    step: f32,
    /// [`bm_decode_table`] of the element type.
    bm_table: &'static [f32; 256],
}

impl Blocks4 {
    /// The layout of `element` codes in blocks of `block` elements, if the element has an
    /// integer lookup.
    pub(crate) fn new(element: ElementType, block: usize, plus: bool) -> Option<Self> {
        let (ints, step) = int4_table(element)?;
        Some(Blocks4 { block, plus, ints, step, bm_table: bm_decode_table(element) })
    }

    /// Header bytes in front of each block's codes: the scale, then the MX+ BM index.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fn header(self) -> usize {
        1 + usize::from(self.plus)
    }
}

/// Code `i` of a block of 4-bit codes packed two per byte.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn code4(codes: &[u8], i: usize) -> usize {
    usize::from((codes[i / 2] >> (4 * (i % 2))) & 0x0f)
}

/// The fused q·k page kernel behind `RowCodec::key_dots`: folds a block of query rows
/// against a run of 4-bit MX/MX+ key rows straight from their packed codes. Returns
/// `false`, writing nothing, unless the backend [runs the AVX2
/// kernels](KernelBackend::runs_avx2). The caller checks the shape (see
/// `RowCodec::key_dots`) and that every buffer holds what it indexes.
pub(crate) fn key_dots4(
    rows: PackedRows<'_>,
    blocks: Blocks4,
    geom: AttnGeometry,
    q: &[f32],
    dots: &mut [f32],
    lanes: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active_backend().runs_avx2() {
        // SAFETY: `detect()` selects a backend that runs the AVX2 kernels only after
        // `is_x86_feature_detected!("avx2")` succeeded.
        unsafe { avx2::key_dots(rows, blocks, geom, q, dots, lanes) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (rows, blocks, geom, q, dots, lanes);
    false
}

/// The fused probs×V page kernel behind `RowCodec::value_accumulate`: accumulates a run of
/// 4-bit MX/MX+ value rows, weighted by a block of probability rows, straight from their
/// packed codes. Returns `false`, writing nothing, as [`key_dots4`] does. The caller
/// checks the shape and the buffers, as for [`key_dots4`].
pub(crate) fn value_accumulate4(
    rows: PackedRows<'_>,
    blocks: Blocks4,
    geom: AttnGeometry,
    probs: &[f32],
    lanes: usize,
    out: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active_backend().runs_avx2() {
        // SAFETY: `detect()` selects a backend that runs the AVX2 kernels only after
        // `is_x86_feature_detected!("avx2")` succeeded.
        unsafe { avx2::value_accumulate(rows, blocks, geom, probs, lanes, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (rows, blocks, geom, probs, lanes, out);
    false
}

#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    //! The AVX2 4-bit lookups, public so kernels in other crates can decode packed codes in
    //! registers, and the fused attention page kernels built on them. The lookups' methods
    //! are safe to call from code compiled with AVX2 enabled (a `#[target_feature(enable =
    //! "avx2")]` function); anywhere else the caller must check for AVX2 first.
    //!
    //! - [`Decode4`] is the exact lookup behind [`decode4_into`](super::decode4_into):
    //!   `f32` table entries, two 8-lane permutes and a blend per 8 codes.
    //! - [`IntLookup4`] serves every consumer that sums what it decodes: the fused page
    //!   kernels here and, on the `Avx2` tier, `mx_tensor`'s panel GEMM (on the `Avx512`
    //!   tier it looks codes up in the `f32` [`decode_table`](super::decode_table)
    //!   instead). One `pshufb` per 16 or 32 codes maps each code to its table entry
    //!   times `2^m` as an `i8`; the consumer converts to `f32` and multiplies by
    //!   `scale × 2^-m`. Each entry is a small integer times
    //!   `2^-m` and the scale a power of two, so that product is the same exact real as
    //!   `table[code] × scale` and rounds alike, subnormal scales and overflow to ±inf
    //!   included; a NaN scale stays NaN. The one difference is E2M1 code 8, which
    //!   decodes to +0.0 instead of −0.0, and zero-block (scale byte 0) values, which come
    //!   out as `int × 0.0` (±0.0) instead of +0.0. A sum cannot see either: it adds
    //!   `x × ±0.0` (±0.0, or the same NaN for an infinite `x`) to an accumulator that
    //!   started at +0.0 and so is never −0.0, which leaves it unchanged.

    use std::arch::x86_64::*;

    use super::{code4, Blocks4};
    use crate::element::ElementType;
    use crate::layout::{AttnGeometry, PackedRows};
    use crate::scale::SharedScale;

    /// The first 16 entries of a decode table, held in two 8-lane registers.
    #[derive(Debug, Clone, Copy)]
    pub struct Decode4 {
        lo: __m256,
        hi: __m256,
        shifts: __m256i,
    }

    impl Decode4 {
        /// Loads entries `0..16` of `table`.
        ///
        /// # Safety
        ///
        /// Outside code compiled with AVX2 enabled, the caller must have verified AVX2
        /// support at runtime.
        #[target_feature(enable = "avx2")]
        #[inline]
        #[must_use]
        pub fn new(table: &[f32; 256]) -> Self {
            // SAFETY: `table` holds 256 entries, so both 8-lane loads are in bounds.
            let (lo, hi) = unsafe { (_mm256_loadu_ps(table.as_ptr()), _mm256_loadu_ps(table.as_ptr().add(8))) };
            Decode4 { lo, hi, shifts: _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28) }
        }

        /// Decodes the eight codes of one little-endian packed word: lane `j` is
        /// `table[(word >> 4j) & 15]`, bit for bit.
        ///
        /// # Safety
        ///
        /// As for [`Decode4::new`].
        #[target_feature(enable = "avx2")]
        #[inline]
        #[must_use]
        pub fn decode8(self, word: u32) -> __m256 {
            // Lane j holds code j in its low 4 bits (higher codes above it).
            self.lookup(_mm256_srlv_epi32(_mm256_set1_epi32(word as i32), self.shifts))
        }

        /// Decodes one code per lane: lane `j` is `table[codes_j & 15]`, bit for bit. Bits
        /// above each lane's low nibble are ignored.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn lookup(self, codes: __m256i) -> __m256 {
            // The permutes read only bits 0-2; bit 3, shifted up to the sign bit, picks
            // the half.
            let lo = _mm256_permutevar8x32_ps(self.lo, codes);
            let hi = _mm256_permutevar8x32_ps(self.hi, codes);
            _mm256_blendv_ps(lo, hi, _mm256_castsi256_ps(_mm256_slli_epi32::<28>(codes)))
        }
    }

    /// The integer lookup of 4-bit codes: the 16 entries of
    /// [`int4_table`](super::int4_table), held twice in one 32-byte register for
    /// `pshufb`. A decoded value is the looked-up integer, converted to `f32`, times
    /// `scale ×` [`IntLookup4::step`] (see the [module docs](self) for why that equals
    /// `table[code] × scale` wherever a sum consumes it).
    #[derive(Debug, Clone, Copy)]
    pub struct IntLookup4 {
        table: __m256i,
        step: f32,
    }

    impl IntLookup4 {
        /// The lookup of `element` codes; `None` for element types without an integer
        /// table ([`int4_table`](super::int4_table)).
        ///
        /// # Safety
        ///
        /// As for [`Decode4::new`].
        #[target_feature(enable = "avx2")]
        #[inline]
        #[must_use]
        pub fn new(element: ElementType) -> Option<Self> {
            let (entries, step) = super::int4_table(element)?;
            Some(Self::from_table(entries, step))
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn from_table(entries: [i8; 16], step: f32) -> Self {
            let bytes: [i8; 32] = std::array::from_fn(|i| entries[i % 16]);
            // SAFETY: `bytes` holds exactly the 32 bytes loaded.
            let table = unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) };
            IntLookup4 { table, step }
        }

        /// `2^-m`: what a block scale is multiplied by, once per block, before it scales
        /// looked-up integers.
        #[must_use]
        pub fn step(self) -> f32 {
            self.step
        }

        /// The 32 codes of 16 packed bytes, as integers in `f32`: lane `j` of vector `v`
        /// is the entry of code `8v + j` (byte `(8v + j) / 2`, low nibble first).
        ///
        /// # Safety
        ///
        /// As for [`Decode4::new`].
        #[target_feature(enable = "avx2")]
        #[inline]
        #[must_use]
        pub fn decode32(self, bytes: __m128i) -> [__m256; 4] {
            let nibble = _mm_set1_epi8(0x0f);
            let table = _mm256_castsi256_si128(self.table);
            let even = _mm_shuffle_epi8(table, _mm_and_si128(bytes, nibble));
            let odd = _mm_shuffle_epi8(table, _mm_and_si128(_mm_srli_epi16::<4>(bytes), nibble));
            let (first, second) = (_mm_unpacklo_epi8(even, odd), _mm_unpackhi_epi8(even, odd));
            [widen8(first), widen8(_mm_srli_si128::<8>(first)), widen8(second), widen8(_mm_srli_si128::<8>(second))]
        }

        /// One packed 32-bit word of 8 codes per lane, as integers in `f32`: lane `j` of
        /// vector `c` is the entry of code `c` of lane `j`'s word (nibble `c`, low first).
        ///
        /// # Safety
        ///
        /// As for [`Decode4::new`].
        #[target_feature(enable = "avx2")]
        #[inline]
        #[must_use]
        pub fn decode_lanes(self, words: __m256i) -> [__m256; 8] {
            let nibble = _mm256_set1_epi8(0x0f);
            // Byte b of each lane: the entry of code 2b (`even`) or 2b + 1 (`odd`).
            let even = _mm256_shuffle_epi8(self.table, _mm256_and_si256(words, nibble));
            let odd = _mm256_shuffle_epi8(self.table, _mm256_and_si256(_mm256_srli_epi16::<4>(words), nibble));
            // Byte b moves to the top of its lane, and the arithmetic shift back down
            // sign-extends it.
            let ints = [
                _mm256_srai_epi32::<24>(_mm256_slli_epi32::<24>(even)),
                _mm256_srai_epi32::<24>(_mm256_slli_epi32::<24>(odd)),
                _mm256_srai_epi32::<24>(_mm256_slli_epi32::<16>(even)),
                _mm256_srai_epi32::<24>(_mm256_slli_epi32::<16>(odd)),
                _mm256_srai_epi32::<24>(_mm256_slli_epi32::<8>(even)),
                _mm256_srai_epi32::<24>(_mm256_slli_epi32::<8>(odd)),
                _mm256_srai_epi32::<24>(even),
                _mm256_srai_epi32::<24>(odd),
            ];
            let mut values = [_mm256_setzero_ps(); 8];
            for (v, int) in values.iter_mut().zip(ints) {
                *v = _mm256_cvtepi32_ps(int);
            }
            values
        }
    }

    /// The low 8 bytes of `bytes` as sign-extended `i8`s, converted to `f32`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn widen8(bytes: __m128i) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes))
    }

    /// The vector part of [`decode4_into`](super::decode4_into): decodes the longest
    /// multiple-of-8 prefix of `out` and returns its length.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime, and `packed` must hold at
    /// least `out.len() / 2` bytes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode4_scaled(packed: &[u8], table: &[f32; 256], scale: f32, out: &mut [f32]) -> usize {
        let decode = Decode4::new(table);
        let scale = _mm256_set1_ps(scale);
        let mut done = 0;
        for (o, w) in out.chunks_exact_mut(8).zip(packed.chunks_exact(4)) {
            let v = _mm256_mul_ps(decode.decode8(u32::from_le_bytes([w[0], w[1], w[2], w[3]])), scale);
            // SAFETY: `o` is a chunk of exactly 8 `f32`s.
            unsafe { _mm256_storeu_ps(o.as_mut_ptr(), v) };
            done += 8;
        }
        done
    }

    /// Loads 8 lanes from `values[at..at + 8]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load8(values: &[f32], at: usize) -> __m256 {
        assert!(at + 8 <= values.len(), "8-lane load out of bounds");
        // SAFETY: the assert above bounds the 8-lane load.
        unsafe { _mm256_loadu_ps(values.as_ptr().add(at)) }
    }

    /// Stores 8 lanes at `values[at..at + 8]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store8(values: &mut [f32], at: usize, v: __m256) {
        assert!(at + 8 <= values.len(), "8-lane store out of bounds");
        // SAFETY: the assert above bounds the 8-lane store.
        unsafe { _mm256_storeu_ps(values.as_mut_ptr().add(at), v) };
    }

    /// Stores the first `count` lanes of `v` (`count <= 8`) at `out[at..at + count]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store_lanes(out: &mut [f32], at: usize, count: usize, v: __m256) {
        assert!(count <= 8 && at + count <= out.len(), "lane store out of bounds");
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(count as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        // SAFETY: the assert above bounds the `count` lanes `mask` enables; a masked store
        // does not access disabled lanes.
        unsafe { _mm256_maskstore_ps(out.as_mut_ptr().add(at), mask, v) };
    }

    /// Where one piece of a head sits in every packed row: up to 32 elements of one block
    /// (8, 16 or 32, the piece's length), decoded by one lookup of up to 16 bytes.
    #[derive(Debug, Clone, Copy)]
    struct Piece {
        /// Byte offset of the block's header (the scale byte, then the MX+ BM index).
        header_at: usize,
        /// Byte offset of the piece's first code byte.
        codes_at: usize,
        /// Elements in the block, and the piece's offset in it (in elements).
        len: usize,
        within: usize,
        /// The piece's first element within its head.
        at: usize,
    }

    impl Piece {
        /// The piece at element `at` of the head starting at element `e0` of a row of
        /// `len`, at most `width` elements long and ending inside its block; returns it
        /// and its length (32, 16 or 8).
        fn at(blocks: Blocks4, len: usize, e0: usize, at: usize, width: usize) -> (Self, usize) {
            let e = e0 + at;
            let b = e / blocks.block;
            let start = b * blocks.block;
            let block_len = blocks.block.min(len - start);
            let rest = (start + block_len - e).min(width);
            let piece_len = if rest >= 32 {
                32
            } else if rest >= 16 {
                16
            } else {
                8
            };
            let header_at = block_at(blocks, b);
            let codes_at = header_at + blocks.header() + (e - start) / 2;
            (Piece { header_at, codes_at, len: block_len, within: e - start, at }, piece_len)
        }
    }

    /// One block's header for the eight rows of a [`LaneRows`], one lane per row.
    #[derive(Clone, Copy)]
    struct LaneHeader {
        /// Each lane's scale, and its scale times the lookup's step.
        raw_scales: __m256,
        scales: __m256,
        /// Each lane's MX+ BM index within the block, or -1 where the lane has none
        /// (plain MX, a zero block, or an index past a short tail block).
        bm_index: __m256i,
    }

    /// Up to eight rows of a run, one per lane, for the key kernel.
    struct LaneRows<'a> {
        bytes: &'a [u8],
        blocks: Blocks4,
        lookup: IntLookup4,
        /// The MX+ block-max table's first 16 entries.
        bm: Decode4,
        /// Elements per row.
        len: usize,
        /// Byte offset of each lane's row; lanes past the run re-read its last row.
        row_at: [usize; 8],
    }

    impl<'a> LaneRows<'a> {
        /// Rows `r0..r0 + count` of `rows` (`1 <= count <= 8`), the rest of the lanes
        /// repeating the last.
        #[target_feature(enable = "avx2")]
        fn new(rows: PackedRows<'a>, blocks: Blocks4, r0: usize, count: usize) -> Self {
            let row_at: [usize; 8] = std::array::from_fn(|j| (r0 + j.min(count - 1)) * rows.stride);
            let (lookup, bm) = (IntLookup4::from_table(blocks.ints, blocks.step), Decode4::new(blocks.bm_table));
            LaneRows { bytes: rows.bytes, blocks, lookup, bm, len: rows.len, row_at }
        }

        /// The `4 × W` bytes at byte `at` of every lane's row as `W` little-endian words
        /// per lane: lane `j` of vector `w` is word `w` of lane `j`'s row (`W` is 1, 2 or
        /// 4). Rows are loaded whole and transposed in registers.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn words<const W: usize>(&self, at: usize) -> [__m256i; W] {
            assert!(self.row_at[7] + at + 4 * W <= self.bytes.len(), "packed rows buffer too short");
            let base = self.bytes.as_ptr();
            // SAFETY: lane j reads the `4 × W` bytes at `row_at[j] + at`; the largest such
            // offset is `row_at[7]`'s, bounded by the assert above.
            let rows = self.row_at.map(|row| unsafe {
                let p = base.add(row + at);
                match W {
                    1 => _mm_cvtsi32_si128(p.cast::<i32>().read_unaligned()),
                    2 => _mm_loadl_epi64(p.cast()),
                    _ => _mm_loadu_si128(p.cast()),
                }
            });
            // Row j in the low half, row j + 4 in the high half, then a 4 × 4 transpose of
            // 32-bit words within each half.
            let [a, b, c, d] = [0, 1, 2, 3].map(|j| _mm256_set_m128i(rows[j + 4], rows[j]));
            let (ab_lo, cd_lo) = (_mm256_unpacklo_epi32(a, b), _mm256_unpacklo_epi32(c, d));
            let (ab_hi, cd_hi) = (_mm256_unpackhi_epi32(a, b), _mm256_unpackhi_epi32(c, d));
            let all = [
                _mm256_unpacklo_epi64(ab_lo, cd_lo),
                _mm256_unpackhi_epi64(ab_lo, cd_lo),
                _mm256_unpacklo_epi64(ab_hi, cd_hi),
                _mm256_unpackhi_epi64(ab_hi, cd_hi),
            ];
            std::array::from_fn(|w| all[w])
        }

        /// The header of the block of `len` elements at byte `at`, per lane.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn header(&self, at: usize, len: usize) -> LaneHeader {
            // The scale byte, then (MX+) the BM index, then codes.
            let [word] = self.words::<1>(at);
            let bits = _mm256_and_si256(word, _mm256_set1_epi32(0xff));
            // The E8M0 byte is the biased exponent of the scale (0 gives +0.0), except
            // 255, NaN: `SharedScale::value` lane by lane.
            let raw = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(bits));
            let nan = _mm256_castsi256_ps(_mm256_cmpeq_epi32(bits, _mm256_set1_epi32(0xff)));
            let raw_scales = _mm256_blendv_ps(raw, _mm256_set1_ps(f32::NAN), nan);
            let scales = _mm256_mul_ps(raw_scales, _mm256_set1_ps(self.blocks.step));
            let none = _mm256_set1_epi32(-1);
            let bm_index = if self.blocks.plus {
                // A BM index past a short tail block decodes as if absent, and a zero
                // block has no BM element.
                let index = _mm256_and_si256(_mm256_srli_epi32::<8>(word), _mm256_set1_epi32(0xff));
                let zero_block = _mm256_cmpeq_epi32(bits, _mm256_setzero_si256());
                let inside = _mm256_andnot_si256(zero_block, _mm256_cmpgt_epi32(_mm256_set1_epi32(len as i32), index));
                _mm256_blendv_epi8(none, index, inside)
            } else {
                none
            };
            LaneHeader { raw_scales, scales, bm_index }
        }

        /// The eight elements of one code word per lane, decoded: vector `c` holds
        /// element `within + c` of its block in each lane. A lane whose MX+ block-max
        /// element is among them gets it decoded exactly, `bm_table[code] × scale`.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn decode(&self, word: __m256i, header: &LaneHeader, within: usize) -> [__m256; 8] {
            let mut k = self.lookup.decode_lanes(word);
            for v in &mut k {
                *v = _mm256_mul_ps(*v, header.scales);
            }
            if self.blocks.plus {
                // Each lane's BM slot relative to this word: 0..8 when it is in the word.
                let slot = _mm256_sub_epi32(header.bm_index, _mm256_set1_epi32(within as i32));
                let inside = _mm256_andnot_si256(
                    _mm256_cmpgt_epi32(_mm256_setzero_si256(), slot),
                    _mm256_cmpgt_epi32(_mm256_set1_epi32(8), slot),
                );
                if _mm256_movemask_ps(_mm256_castsi256_ps(inside)) != 0 {
                    // Lanes outside shift by 32 or more (or a negative count) and read
                    // code 0; they are never blended in.
                    let codes = _mm256_srlv_epi32(word, _mm256_slli_epi32::<2>(slot));
                    let bm = _mm256_mul_ps(self.bm.lookup(codes), header.raw_scales);
                    for (c, v) in k.iter_mut().enumerate() {
                        let hit = _mm256_cmpeq_epi32(slot, _mm256_set1_epi32(c as i32));
                        *v = _mm256_blendv_ps(*v, bm, _mm256_castsi256_ps(hit));
                    }
                }
            }
            k
        }

        /// The pieces of the head starting at element `e0`, `head_dim` long, each with its
        /// block's header and length, in order.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn piece(&self, e0: usize, at: usize, head_dim: usize) -> (Piece, LaneHeader, usize) {
            let (piece, len) = Piece::at(self.blocks, self.len, e0, at, head_dim - at);
            (piece, self.header(piece.header_at, piece.len), len)
        }

        /// q·k of one query head against piece `piece` (`8 × W` elements) of the eight
        /// rows, added onto `acc`: the codes decode in registers straight into the fold.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn fold<const W: usize>(&self, piece: Piece, header: &LaneHeader, q: &[f32], mut acc: __m256) -> __m256 {
            for (w, word) in self.words::<W>(piece.codes_at).into_iter().enumerate() {
                let q = &q[piece.at + 8 * w..piece.at + 8 * w + 8];
                for (&qd, k) in q.iter().zip(self.decode(word, header, piece.within + 8 * w)) {
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(qd), k));
                }
            }
            acc
        }

        /// Piece `piece` (`8 × W` elements) of the eight rows, decoded into
        /// `keys[piece.at..]`, one vector per element.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn store<const W: usize>(&self, piece: Piece, header: &LaneHeader, keys: &mut [__m256]) {
            for (w, word) in self.words::<W>(piece.codes_at).into_iter().enumerate() {
                let at = piece.at + 8 * w;
                for (key, k) in keys[at..at + 8].iter_mut().zip(self.decode(word, header, piece.within + 8 * w)) {
                    *key = k;
                }
            }
        }
    }

    /// q·k of `P` (row, head) query slices against one KV head's decoded slice of eight
    /// positions (`keys[d]` holds element `d` of each lane), interleaved so their
    /// additions overlap.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fold_slices<const P: usize>(keys: &[__m256], q: [&[f32]; P]) -> [__m256; P] {
        let mut acc = [_mm256_setzero_ps(); P];
        for (d, &k) in keys.iter().enumerate() {
            for (acc, q) in acc.iter_mut().zip(q) {
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(_mm256_set1_ps(q[d]), k));
            }
        }
        acc
    }

    /// The kernel of [`key_dots4`](super::key_dots4). Eight positions at a time, one per
    /// lane: per piece of up to 32 elements of one block, it loads each row's codes
    /// whole and transposes them in registers, so each 8-lane vector holds one code word
    /// of each position; looks the codes up as integers, scales each lane by its own
    /// block scale and patches in each lane's MX+ block-max element. One query row of a
    /// multi-head layout folds those vectors straight into one accumulator per head;
    /// otherwise each KV head's slice is decoded once into a buffer and every (row, head)
    /// of its group folds from it, four at a time. Either way each lane adds
    /// `q[d] × k[d]` in ascending `d` from +0.0, a multiply then an add.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime, and the shape must be one
    /// `RowCodec::key_dots` accepts.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn key_dots(
        rows: PackedRows<'_>,
        blocks: Blocks4,
        geom: AttnGeometry,
        q: &[f32],
        dots: &mut [f32],
        lanes: usize,
    ) {
        let AttnGeometry { heads, head_dim, group } = geom;
        let kv_heads = heads / group;
        let q_rows = q.len() / (heads * head_dim);
        let direct = q_rows == 1 && group == 1;
        let mut keys = vec![_mm256_setzero_ps(); if direct { 0 } else { head_dim }];
        for r0 in (0..rows.rows).step_by(8) {
            let count = 8.min(rows.rows - r0);
            let lane_rows = LaneRows::new(rows, blocks, r0, count);
            for kv in 0..kv_heads {
                let e0 = kv * head_dim;
                let mut at = 0;
                if direct {
                    let q_head = &q[e0..e0 + head_dim];
                    let mut acc = _mm256_setzero_ps();
                    while at < head_dim {
                        let (piece, header, len) = lane_rows.piece(e0, at, head_dim);
                        acc = match len {
                            32 => lane_rows.fold::<4>(piece, &header, q_head, acc),
                            16 => lane_rows.fold::<2>(piece, &header, q_head, acc),
                            _ => lane_rows.fold::<1>(piece, &header, q_head, acc),
                        };
                        at += len;
                    }
                    store_lanes(dots, kv * lanes + r0, count, acc);
                    continue;
                }
                while at < head_dim {
                    let (piece, header, len) = lane_rows.piece(e0, at, head_dim);
                    match len {
                        32 => lane_rows.store::<4>(piece, &header, &mut keys),
                        16 => lane_rows.store::<2>(piece, &header, &mut keys),
                        _ => lane_rows.store::<1>(piece, &header, &mut keys),
                    }
                    at += len;
                }
                // Slice `t` of the KV head's `q_rows × group` (row, head) query slices is
                // slice `i * heads + h` of `q`.
                let slice = |t: usize| (t / group) * heads + kv * group + t % group;
                let q_slice = |s: usize| &q[s * head_dim..(s + 1) * head_dim];
                let mut t = 0;
                while t < q_rows * group {
                    if t + 4 <= q_rows * group {
                        let s = [slice(t), slice(t + 1), slice(t + 2), slice(t + 3)];
                        let acc = fold_slices::<4>(&keys, s.map(q_slice));
                        for (s, a) in s.into_iter().zip(acc) {
                            store_lanes(dots, s * lanes + r0, count, a);
                        }
                        t += 4;
                    } else {
                        let [a] = fold_slices::<1>(&keys, [q_slice(slice(t))]);
                        store_lanes(dots, slice(t) * lanes + r0, count, a);
                        t += 1;
                    }
                }
            }
        }
    }

    /// The probs×V kernel's view of one call: the value run and the probability rows.
    struct ValueRun<'a> {
        rows: PackedRows<'a>,
        /// Bytes of one packed row.
        row_bytes: usize,
        blocks: Blocks4,
        lookup: IntLookup4,
        geom: AttnGeometry,
        probs: &'a [f32],
        lanes: usize,
        /// Probability (and output) rows.
        q_rows: usize,
    }

    impl ValueRun<'_> {
        /// Piece `piece` (`8 × N` elements) of the row at byte `row_at`, decoded: lane `j`
        /// of vector `v` is element `8v + j` of the piece, `int × scale × step`, and (for
        /// MX+ rows, `PLUS`) the block-max element decoded exactly from its table.
        ///
        /// # Safety
        ///
        /// The caller must have verified AVX2 support at runtime, and the row's bytes
        /// `row_at..row_at + row_bytes` must lie in `rows.bytes` and hold the piece.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn decode<const N: usize, const PLUS: bool>(&self, piece: Piece, row_at: usize) -> [__m256; N] {
            // SAFETY: the caller guarantees the row and the piece are in bounds, so the
            // header's scale (and BM index) bytes and the piece's `4 × N` code bytes are.
            let (scale, codes) = unsafe {
                let row = self.rows.bytes.as_ptr().add(row_at);
                (SharedScale::from_bits(*row.add(piece.header_at)), row.add(piece.codes_at))
            };
            // SAFETY: as above, `codes` points at `4 × N` readable bytes.
            let bytes = unsafe {
                match N {
                    1 => _mm_cvtsi32_si128(codes.cast::<i32>().read_unaligned()),
                    2 => _mm_loadl_epi64(codes.cast()),
                    _ => _mm_loadu_si128(codes.cast()),
                }
            };
            let s = _mm256_set1_ps(scale.value() * self.blocks.step);
            let ints = self.lookup.decode32(bytes);
            let mut v: [__m256; N] = [_mm256_setzero_ps(); N];
            for (v, int) in v.iter_mut().zip(ints) {
                *v = _mm256_mul_ps(int, s);
            }
            if PLUS {
                let row = &self.rows.bytes[row_at..row_at + self.row_bytes];
                let bm = usize::from(row[piece.header_at + 1]);
                if bm < piece.len && (piece.within..piece.within + 8 * N).contains(&bm) && !scale.is_zero_block() {
                    let codes = &row[piece.header_at + self.blocks.header()..];
                    let value = _mm256_set1_ps(self.blocks.bm_table[code4(codes, bm)] * scale.value());
                    // Element `bm - within` of the piece is lane `(bm - within) % 8` of
                    // vector `(bm - within) / 8`: blend it into every vector under a mask
                    // that only that lane of that vector passes.
                    let at = _mm256_set1_epi32((bm - piece.within) as i32);
                    let mut lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                    for v in &mut v {
                        let hit = _mm256_cmpeq_epi32(lanes, at);
                        *v = _mm256_blendv_ps(*v, value, _mm256_castsi256_ps(hit));
                        lanes = _mm256_add_epi32(lanes, _mm256_set1_epi32(8));
                    }
                }
            }
            v
        }

        /// Accumulates piece `piece` (`8 × N` elements) of KV head `kv` over every run row
        /// into every (row, head) of the head's group.
        ///
        /// # Safety
        ///
        /// The caller must have verified AVX2 support at runtime, and every run row must
        /// lie in `rows.bytes` and hold the piece.
        #[target_feature(enable = "avx2")]
        unsafe fn accumulate<const N: usize, const PLUS: bool>(&self, piece: Piece, kv: usize, out: &mut [f32]) {
            let AttnGeometry { heads, head_dim, group } = self.geom;
            let stride = self.rows.stride;
            if self.q_rows == 1 && group == 1 {
                // One probability row: the accumulators stay in registers across the run.
                let at = kv * head_dim + piece.at;
                let mut acc: [__m256; N] = [_mm256_setzero_ps(); N];
                for (v, a) in acc.iter_mut().enumerate() {
                    *a = load8(out, at + 8 * v);
                }
                for (r, &p) in self.probs[kv * self.lanes..kv * self.lanes + self.rows.rows].iter().enumerate() {
                    if p == 0.0 {
                        continue;
                    }
                    let p = _mm256_set1_ps(p);
                    // SAFETY: `r` is a run row, which the caller guarantees is in bounds.
                    let v = unsafe { self.decode::<N, PLUS>(piece, r * stride) };
                    for (a, v) in acc.iter_mut().zip(v) {
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(p, v));
                    }
                }
                for (v, &a) in acc.iter().enumerate() {
                    store8(out, at + 8 * v, a);
                }
                return;
            }
            let mut values = [[_mm256_setzero_ps(); N]; VALUE_ROWS];
            for r0 in (0..self.rows.rows).step_by(VALUE_ROWS) {
                let count = VALUE_ROWS.min(self.rows.rows - r0);
                for (r, v) in values.iter_mut().enumerate().take(count) {
                    // SAFETY: `r0 + r` is a run row, which the caller guarantees is in
                    // bounds.
                    *v = unsafe { self.decode::<N, PLUS>(piece, (r0 + r) * stride) };
                }
                for i in 0..self.q_rows {
                    for h in kv * group..(kv + 1) * group {
                        let at = (i * heads + h) * head_dim + piece.at;
                        let mut acc: [__m256; N] = [_mm256_setzero_ps(); N];
                        for (v, a) in acc.iter_mut().enumerate() {
                            *a = load8(out, at + 8 * v);
                        }
                        let p_at = (i * heads + h) * self.lanes + r0;
                        for (&p, v) in self.probs[p_at..p_at + count].iter().zip(&values) {
                            if p == 0.0 {
                                continue;
                            }
                            let p = _mm256_set1_ps(p);
                            for (a, &v) in acc.iter_mut().zip(v) {
                                *a = _mm256_add_ps(*a, _mm256_mul_ps(p, v));
                            }
                        }
                        for (v, &a) in acc.iter().enumerate() {
                            store8(out, at + 8 * v, a);
                        }
                    }
                }
            }
        }
    }

    /// Positions of a value run decoded together by the multi-row kernel.
    const VALUE_ROWS: usize = 16;

    /// The kernel of [`value_accumulate4`](super::value_accumulate4). Per KV head, piece
    /// by piece (up to 32 elements of one block), it decodes each position's codes with
    /// one lookup of up to 16 bytes and accumulates `p × v` into that head's output, in
    /// ascending position order, skipping exact-zero probabilities, as an 8-lane multiply
    /// then add per element. One probability row of a multi-head layout keeps the
    /// accumulators in registers across the run and decodes a position only where its
    /// probability is nonzero; otherwise each position's piece is decoded once into a
    /// buffer that every (row, head) of the KV head's group accumulates from.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime, and the shape must be one
    /// `RowCodec::value_accumulate` accepts.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn value_accumulate(
        rows: PackedRows<'_>,
        blocks: Blocks4,
        geom: AttnGeometry,
        probs: &[f32],
        lanes: usize,
        out: &mut [f32],
    ) {
        let AttnGeometry { heads, head_dim, group } = geom;
        let row_bytes = crate::layout::row_block_bytes(rows.len, blocks.block, 4, blocks.header());
        let lookup = IntLookup4::from_table(blocks.ints, blocks.step);
        let q_rows = out.len() / (heads * head_dim);
        let last_at = rows.rows.checked_sub(1).map_or(0, |last| last * rows.stride);
        assert!(rows.rows == 0 || last_at + row_bytes <= rows.bytes.len(), "packed rows buffer too short");
        let run = ValueRun { rows, row_bytes, blocks, lookup, geom, probs, lanes, q_rows };
        for kv in 0..heads / group {
            let mut at = 0;
            while at < head_dim {
                let (piece, len) = Piece::at(blocks, rows.len, kv * head_dim, at, head_dim - at);
                assert!(piece.codes_at + len / 2 <= row_bytes, "a piece ends past its row");
                // SAFETY: every run row lies in `rows.bytes` and the piece in its row, by
                // the two asserts above.
                unsafe {
                    match (len, blocks.plus) {
                        (32, false) => run.accumulate::<4, false>(piece, kv, out),
                        (32, true) => run.accumulate::<4, true>(piece, kv, out),
                        (16, false) => run.accumulate::<2, false>(piece, kv, out),
                        (16, true) => run.accumulate::<2, true>(piece, kv, out),
                        (_, false) => run.accumulate::<1, false>(piece, kv, out),
                        (_, true) => run.accumulate::<1, true>(piece, kv, out),
                    }
                }
                at += len;
            }
        }
    }

    /// Byte offset of block `b`'s header within a row: every block before it is full.
    fn block_at(blocks: Blocks4, b: usize) -> usize {
        b * (blocks.header() + blocks.block / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_codes(n: usize, bits: u32) -> Vec<u8> {
        let mask = ((1u16 << bits) - 1) as u8;
        (0..n).map(|i| ((i * 167 + 13) % 256) as u8 & mask).collect()
    }

    #[test]
    fn word_paths_match_scalar_for_every_width_and_length() {
        for bits in 1..=8u32 {
            for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 33, 63, 64, 65, 67, 100, 129] {
                let codes = sample_codes(n, bits);
                let nb = packed_len(n, bits);
                let mut reference = vec![0u8; nb];
                scalar_pack(&codes, bits, &mut reference);
                let mut packed = vec![0xaa_u8; nb];
                match bits {
                    4 => word_pack4(&codes, &mut packed),
                    6 => word_pack6(&codes, &mut packed),
                    8 => packed.copy_from_slice(&codes),
                    _ => word_pack_generic(&codes, bits, &mut packed),
                }
                assert_eq!(packed, reference, "pack bits {bits} len {n}");
                let mut decoded = vec![0xaa_u8; n];
                match bits {
                    4 => word_unpack4(&packed, &mut decoded),
                    6 => word_unpack6(&packed, &mut decoded),
                    8 => decoded.copy_from_slice(&packed),
                    _ => word_unpack_generic(&packed, bits, &mut decoded),
                }
                assert_eq!(decoded, codes, "unpack bits {bits} len {n}");
            }
        }
    }

    #[test]
    fn dispatched_paths_match_scalar_for_every_width_and_length() {
        for bits in 1..=8u32 {
            for n in [0usize, 1, 5, 16, 31, 32, 33, 63, 64, 65, 96, 127, 128, 200, 1024, 1031] {
                let codes = sample_codes(n, bits);
                let nb = packed_len(n, bits);
                let mut reference = vec![0u8; nb];
                pack_codes_into_scalar(&codes, bits, &mut reference);
                let mut packed = vec![0xaa_u8; nb];
                pack_codes_into(&codes, bits, &mut packed);
                assert_eq!(packed, reference, "pack bits {bits} len {n} backend {:?}", active_backend());
                let mut decoded = vec![0xaa_u8; n];
                unpack_codes_into(&packed, bits, &mut decoded);
                let mut decoded_ref = vec![0u8; n];
                unpack_codes_into_scalar(&reference, bits, &mut decoded_ref);
                assert_eq!(decoded, decoded_ref, "unpack bits {bits} len {n}");
                assert_eq!(decoded, codes, "round trip bits {bits} len {n}");
            }
        }
    }

    #[test]
    fn pack_masks_out_of_range_codes_exactly_like_scalar() {
        // The pack contract masks each code to its width; dispatched paths must drop the
        // same high bits the scalar reference drops.
        for bits in 1..=8u32 {
            let codes: Vec<u8> = (0..=255u8).collect();
            let nb = packed_len(codes.len(), bits);
            let mut reference = vec![0u8; nb];
            pack_codes_into_scalar(&codes, bits, &mut reference);
            let mut packed = vec![0u8; nb];
            pack_codes_into(&codes, bits, &mut packed);
            assert_eq!(packed, reference, "bits {bits}");
        }
    }

    /// The plan is `Scalar` exactly when `MX_FORCE_SCALAR_KERNELS` asks for it, and
    /// otherwise the best tier the CPU runs: `Avx512` only with both AVX2 and AVX-512F.
    #[test]
    fn detected_backend_matches_the_target_isa() {
        let backend = active_backend();
        let scalar = std::env::var_os("MX_FORCE_SCALAR_KERNELS").is_some_and(|v| !v.is_empty() && v != "0");
        assert_eq!(backend == KernelBackend::Scalar, scalar, "{backend:?}");
        #[cfg(target_arch = "x86_64")]
        if !scalar {
            let features = (is_x86_feature_detected!("avx2"), is_x86_feature_detected!("avx512f"));
            let best = match features {
                (true, true) => KernelBackend::Avx512,
                (true, false) => KernelBackend::Avx2,
                (false, _) => KernelBackend::Sse2,
            };
            assert_eq!(backend, best, "avx2, avx512f: {features:?}");
        }
        #[cfg(target_arch = "aarch64")]
        assert!(scalar || backend == KernelBackend::Neon);
        assert_eq!(backend.runs_avx2(), matches!(backend, KernelBackend::Avx2 | KernelBackend::Avx512));
        assert!(!backend.name().is_empty());
    }

    #[test]
    fn decode_tables_are_bit_identical_to_the_decoders() {
        for element in [
            ElementType::E2M1,
            ElementType::E2M3,
            ElementType::E3M2,
            ElementType::E4M3,
            ElementType::E5M2,
            ElementType::Int8,
            ElementType::Int4,
        ] {
            let table = decode_table(element);
            let bm_table = bm_decode_table(element);
            for code in 0..=255u8 {
                let direct = if element.is_int() {
                    minifloat::decode_int(element, code)
                } else {
                    minifloat::decode_fp(element, code)
                };
                assert_eq!(table[usize::from(code)].to_bits(), direct.to_bits(), "{element:?} code {code}");
                let direct_bm = minifloat::decode_bm_extended(element, code);
                assert_eq!(bm_table[usize::from(code)].to_bits(), direct_bm.to_bits(), "{element:?} bm code {code}");
            }
        }
    }

    #[test]
    fn decode4_matches_the_table_code_by_code() {
        let cases: Vec<(Vec<u8>, Vec<u8>)> = [0usize, 1, 7, 8, 9, 16, 31, 32, 33, 64, 67]
            .into_iter()
            .map(|n| {
                let codes = sample_codes(n, 4);
                let mut packed = vec![0u8; packed_len(n, 4)];
                pack_codes_into_scalar(&codes, 4, &mut packed);
                (codes, packed)
            })
            .collect();
        for element in [ElementType::E2M1, ElementType::Int4] {
            let table = decode_table(element);
            for (codes, packed) in &cases {
                for scale in [1.0f32, 0.0, 2f32.powi(-126), 2f32.powi(125), f32::NAN] {
                    let expected: Vec<u32> = codes.iter().map(|&c| (table[usize::from(c)] * scale).to_bits()).collect();
                    let mut out = vec![f32::NAN; codes.len()];
                    decode4_into(packed, table, scale, &mut out);
                    let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, expected, "{element:?} len {} scale {scale}", codes.len());
                }
            }
        }
    }

    const ALL_ELEMENTS: [ElementType; 7] = [
        ElementType::E2M1,
        ElementType::E2M3,
        ElementType::E3M2,
        ElementType::E4M3,
        ElementType::E5M2,
        ElementType::Int8,
        ElementType::Int4,
    ];

    #[test]
    fn every_four_bit_table_entry_times_two_to_the_m_is_an_int8() {
        for element in ALL_ELEMENTS {
            let Some((entries, step)) = int4_table(element) else {
                assert_ne!(element.bits(), 4, "{element:?} is 4 bits wide but has no integer lookup");
                continue;
            };
            let m = if element.is_int() { 2 } else { 1 };
            assert_eq!(step, (2.0f32).powi(-m), "{element:?}");
            for (c, &entry) in entries.iter().enumerate() {
                let scaled = decode_table(element)[c] * (2.0f32).powi(m);
                assert!(scaled.fract() == 0.0 && (-128.0..=127.0).contains(&scaled), "{element:?} code {c}: {scaled}");
                // Equal as numbers; only E2M1's −0.0 (code 8) loses its sign.
                assert_eq!(f32::from(entry), scaled, "{element:?} code {c}");
            }
        }
    }

    #[test]
    fn integer_times_stepped_scale_rounds_like_the_table_for_every_scale_byte() {
        // The exactness argument of the integer lookup, exhaustively: for every code and
        // every E8M0 scale byte (zero block, subnormal and overflowing products, NaN),
        // `entry × (scale × step)` equals `table[code] × scale` bit for bit, except that
        // a zero may come out +0.0 where the table gives −0.0 or the other way round.
        for element in [ElementType::E2M1, ElementType::Int4] {
            let (entries, step) = int4_table(element).expect("4-bit elements have an integer lookup");
            let table = decode_table(element);
            for byte in 0..=255u8 {
                let scale = crate::scale::SharedScale::from_bits(byte).value();
                for (c, &entry) in entries.iter().enumerate() {
                    let (fast, exact) = (f32::from(entry) * (scale * step), table[c] * scale);
                    let same = fast.to_bits() == exact.to_bits() || (fast == 0.0 && exact == 0.0);
                    assert!(same, "{element:?} code {c} scale byte {byte}: {fast:e} vs {exact:e}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn int_lookup_decodes_the_integer_table() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        use std::arch::x86_64::*;
        for element in [ElementType::E2M1, ElementType::Int4] {
            let (entries, _) = int4_table(element).expect("4-bit elements have an integer lookup");
            let codes = sample_codes(64, 4);
            let mut packed = vec![0u8; 32];
            pack_codes_into_scalar(&codes, 4, &mut packed);
            let expected: Vec<f32> = codes.iter().map(|&c| f32::from(entries[usize::from(c)])).collect();
            // SAFETY: AVX2 was detected above; the loads read 16 and 32 bytes of
            // `packed`, which holds 32.
            let (runs, lanes) = unsafe {
                let lookup = avx2::IntLookup4::new(element).expect("4-bit elements have a lookup");
                let runs = lookup.decode32(_mm_loadu_si128(packed.as_ptr().cast()));
                let lanes = lookup.decode_lanes(_mm256_loadu_si256(packed.as_ptr().cast()));
                let mut out = [[0.0f32; 8]; 12];
                for (o, v) in out.iter_mut().zip(runs.iter().chain(&lanes)) {
                    _mm256_storeu_ps(o.as_mut_ptr(), *v);
                }
                (out[..4].concat(), out[4..].to_vec())
            };
            assert_eq!(runs, expected[..32], "{element:?} decode32");
            for (c, lane_values) in lanes.iter().enumerate() {
                // Lane j holds word j's code c: code 8j + c of the 64.
                let want: Vec<f32> = (0..8).map(|j| expected[8 * j + c]).collect();
                assert_eq!(lane_values.to_vec(), want, "{element:?} decode_lanes code {c}");
            }
        }
    }

    #[test]
    fn packed_len_matches_bit_arithmetic() {
        assert_eq!(packed_len(32, 4), 16);
        assert_eq!(packed_len(32, 6), 24);
        assert_eq!(packed_len(5, 4), 3);
        assert_eq!(packed_len(1, 1), 1);
        assert_eq!(packed_len(0, 7), 0);
    }
}
