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
//! and the `kernel_dispatch` proptest suite): for identical inputs, identical packed
//! bytes and identical unpacked codes, for every bit width in `1..=8` and every length
//! including partial tail bytes. The scalar reference itself stays available two ways:
//! programmatically via [`force_scalar`], or for a whole process via the
//! `MX_FORCE_SCALAR_KERNELS` environment variable (any non-empty value other than `0`).
//! Forcing scalar also disables the fused packed-row attention walk
//! ([`crate::layout::RowCodec::walk_row_blocks`] returns `false`) and sends every MX/MX+
//! conversion to the scalar `minifloat` codecs instead of the fast block quantizer, so
//! one switch yields the full reference execution path end to end.
//!
//! The module also hosts the per-element-type decode lookup tables used by the block
//! decoder and the fused attention kernel: a code is at most 8 bits, so each decoder is
//! a pure function on 256 inputs and tabulates exactly — the table path is bit-identical
//! to calling the decoder, just without re-deriving sign/exponent/mantissa per element.
//! On top of them sits the one 4-bit decoder, [`decode4_into`], whose AVX2 lookup
//! ([`avx2::Decode4`]) also decodes `mx_tensor`'s 4-bit weight panels in registers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::element::ElementType;
use crate::minifloat;

/// Which implementation serves [`pack_codes_into`]/[`unpack_codes_into`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The per-code shift/mask reference loops (bit-exact baseline).
    Scalar,
    /// Portable u64 word-parallel paths (multiple codes per word).
    Word,
    /// x86_64 SSE2 vectors for the 4-bit path, word-parallel otherwise.
    Sse2,
    /// x86_64 AVX2 vectors for the 4-bit path, word-parallel otherwise.
    Avx2,
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
            KernelBackend::Neon => "neon",
        }
    }
}

/// Largest block length (in elements) the register-resident kernels handle; blocks above
/// this fall back to the scalar per-code path. Twice the OCP standard block of 32, so
/// every stock MX/MX+ format fits with headroom.
pub const MAX_FUSED_BLOCK: usize = 64;

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Force all kernel entry points onto the scalar reference path (`true`) or restore
/// runtime-detected dispatch (`false`). Intended for tests and A/B benchmarks; the
/// scalar and dispatched paths produce identical bytes either way.
pub fn force_scalar(enabled: bool) {
    FORCE_SCALAR.store(enabled, Ordering::SeqCst);
}

/// Whether the scalar reference path is currently forced (via [`force_scalar`] or the
/// `MX_FORCE_SCALAR_KERNELS` environment variable). The fused packed-row attention walk
/// checks this and reports itself unavailable, and the block quantizer takes the scalar
/// reference codecs, so forcing scalar exercises the complete reference pipeline.
#[must_use]
pub fn scalar_forced() -> bool {
    active_backend() == KernelBackend::Scalar
}

/// The backend that will serve the next kernel call: the runtime-detected best backend
/// for this CPU, unless scalar is forced.
#[must_use]
pub fn active_backend() -> KernelBackend {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        return KernelBackend::Scalar;
    }
    static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

/// One-time backend selection: environment override first, then ISA feature detection.
fn detect() -> KernelBackend {
    if std::env::var_os("MX_FORCE_SCALAR_KERNELS").is_some_and(|v| !v.is_empty() && v != "0") {
        return KernelBackend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            KernelBackend::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline; no detection needed.
            KernelBackend::Sse2
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
    if backend == KernelBackend::Avx2 && codes.len() >= 64 {
        let n = codes.len() & !63;
        // SAFETY: the Avx2 backend is only selected after `is_x86_feature_detected!("avx2")`
        // succeeded in `detect()`, and the slices are pre-cut to matching lengths.
        unsafe { x86::pack4_avx2(&codes[..n], &mut out[..n / 2]) };
        done = n;
    }
    if matches!(backend, KernelBackend::Avx2 | KernelBackend::Sse2) && codes.len() - done >= 32 {
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
    if backend == KernelBackend::Avx2 && out.len() >= 64 {
        let n = out.len() & !63;
        // SAFETY: the Avx2 backend is only selected after `is_x86_feature_detected!("avx2")`
        // succeeded in `detect()`, and the slices are pre-cut to matching lengths.
        unsafe { x86::unpack4_avx2(&packed[..n / 2], &mut out[..n]) };
        done = n;
    }
    if matches!(backend, KernelBackend::Avx2 | KernelBackend::Sse2) && out.len() - done >= 32 {
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
/// This is the one 4-bit decoder. The packed-row reads (`RowCodec::unpack_row_into` and
/// the fused attention walk) call it, and the lookup it runs on under AVX2,
/// [`avx2::Decode4`], also decodes the 4-bit weight panels of `mx_tensor`'s panel GEMM:
/// two 8-lane permutes over the table's 16 entries plus a blend per 8 codes. Other
/// backends, and the last `out.len() % 8` codes, index the table one code at a time.
/// Both give the same bits.
///
/// # Panics
///
/// Panics if `packed` is shorter than `packed_len(out.len(), 4)`.
pub fn decode4_into(packed: &[u8], table: &[f32; 256], scale: f32, out: &mut [f32]) {
    assert!(packed.len() >= packed_len(out.len(), 4), "packed input buffer too short");
    #[cfg(target_arch = "x86_64")]
    let done = if active_backend() == KernelBackend::Avx2 {
        // SAFETY: the Avx2 backend is only selected after `is_x86_feature_detected!("avx2")`
        // succeeded in `detect()`.
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

#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    //! The AVX2 4-bit table lookup behind [`decode4_into`](super::decode4_into), public
    //! so kernels in other crates can decode packed codes in registers. Its methods are
    //! safe to call from code compiled with AVX2 enabled (a `#[target_feature(enable =
    //! "avx2")]` function); anywhere else the caller must check for AVX2 first.

    use std::arch::x86_64::*;

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
            // Lane j holds code j in its low 4 bits (higher codes above it). The permutes
            // read only bits 0-2; bit 3, shifted up to the sign bit, picks the half.
            let codes = _mm256_srlv_epi32(_mm256_set1_epi32(word as i32), self.shifts);
            let lo = _mm256_permutevar8x32_ps(self.lo, codes);
            let hi = _mm256_permutevar8x32_ps(self.hi, codes);
            _mm256_blendv_ps(lo, hi, _mm256_castsi256_ps(_mm256_slli_epi32::<28>(codes)))
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that flip the global force-scalar switch; concurrent kernel
    /// *outputs* are identical either way, but backend-identity assertions are not.
    static FORCE_LOCK: Mutex<()> = Mutex::new(());

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

    #[test]
    fn force_scalar_switch_selects_the_scalar_backend() {
        let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let auto = active_backend();
        force_scalar(true);
        assert_eq!(active_backend(), KernelBackend::Scalar);
        assert!(scalar_forced());
        force_scalar(false);
        assert_eq!(active_backend(), auto);
    }

    #[test]
    fn detected_backend_matches_the_target_isa() {
        let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        force_scalar(false);
        let backend = active_backend();
        #[cfg(target_arch = "x86_64")]
        assert!(matches!(backend, KernelBackend::Avx2 | KernelBackend::Sse2 | KernelBackend::Scalar));
        #[cfg(target_arch = "aarch64")]
        assert!(matches!(backend, KernelBackend::Neon | KernelBackend::Scalar));
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
        let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for element in [ElementType::E2M1, ElementType::Int4] {
            let table = decode_table(element);
            for (codes, packed) in &cases {
                for scale in [1.0f32, 0.0, 2f32.powi(-126), 2f32.powi(125), f32::NAN] {
                    let expected: Vec<u32> = codes.iter().map(|&c| (table[usize::from(c)] * scale).to_bits()).collect();
                    for forced in [false, true] {
                        force_scalar(forced);
                        let mut out = vec![f32::NAN; codes.len()];
                        decode4_into(packed, table, scale, &mut out);
                        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits, expected, "{element:?} len {} scale {scale} forced {forced}", codes.len());
                    }
                    force_scalar(false);
                }
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
