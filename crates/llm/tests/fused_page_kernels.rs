//! Property tests pinning the fused 4-bit attention page kernels against the provided
//! path they replace, bit for bit.
//!
//! - **Reader level.** The paged reader's `key_dots` / `value_accumulate` (one fused
//!   kernel call per page run) must equal the trait's provided bodies over the same
//!   reader's rows (read each row into the tile, then fold), compared by `to_bits`. Cases cover MX and MX+
//!   rows of E2M1 and INT4 elements, blocks of 8 to 64, `head_dim` 8 to 64, GQA groups
//!   1, 2 and 4, pages of 16 and of 5 positions (tiles then straddle pages), 1 to 16
//!   positions and query rows, all-zero, tiny and huge blocks (scale bytes 0, near 1 and
//!   near 254), queries with ±0, subnormals and overflowing magnitudes, and probabilities
//!   with zeros.
//! - **Hostile headers.** Appends can only write headers the quantizer produces, so the
//!   run-level entry points the reader calls (`RowCodec::key_dots` /
//!   `RowCodec::value_accumulate`) are also driven on raw page bytes: scale bytes 0, 1,
//!   254 and 255, BM indices at every slot and past a short tail block, junk between
//!   slots. They must equal folds over `unpack_row_into`'s rows, with NaN payloads
//!   collapsed (a NaN scale meets NaNs that overflowing products make, and which NaN an
//!   addition keeps is not part of the contract).
//! - **Shapes the kernels do not take** (6-bit rows, blocks of 12, `head_dim` 12) report
//!   that they did not run, and the paged reader's row-by-row decode of them equals the
//!   provided path.
//!
//! The kernels run only on a kernel plan that runs the AVX2 kernels; CI also runs this
//! suite under `MX_FORCE_SCALAR_KERNELS=1`, where they decline and the paged reader's
//! row-by-row decode meets the same references.

use proptest::prelude::*;

use mx_formats::kernels::{active_backend, packed_len};
use mx_formats::layout::{PackedRows, RowCodec};
use mx_formats::mxplus::MxPlusFormat;
use mx_formats::{ElementType, MxFormat, QuantScheme};
use mx_llm::kvcache::{AttnGeometry, KvBackend, KvLayerReader, TILE_POSITIONS};
use mx_llm::{PagePool, PagedKvCache, PagedScratch};

/// A reader that serves attention through the trait's provided `key_dots` /
/// `value_accumulate` over another reader's rows: the path the fused kernels replace.
struct ProvidedPath<'a, R>(&'a mut R);

impl<R: KvLayerReader> KvLayerReader for ProvidedPath<'_, R> {
    fn key_row(&mut self, t: usize) -> &[f32] {
        self.0.key_row(t)
    }

    fn value_row(&mut self, t: usize) -> &[f32] {
        self.0.value_row(t)
    }
}

/// A deterministic stream of `u32`s, so a failing case reproduces from its seed alone.
fn stream(seed: u64) -> impl FnMut() -> u32 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 32) as u32
    }
}

/// A value in `[-1, 1)`.
fn unit(r: u32) -> f32 {
    (r % 2001) as f32 / 1000.0 - 1.0
}

/// A KV row whose blocks are, by turns, ordinary values with outliers, all zero (scale
/// byte 0), tiny (scale bytes near 1, decoded values subnormal) or huge (scale bytes
/// near 254).
fn kv_row(len: usize, block: usize, next: &mut impl FnMut() -> u32) -> Vec<f32> {
    let kinds: Vec<u32> = (0..len.div_ceil(block)).map(|_| next() % 6).collect();
    (0..len)
        .map(|e| {
            let r = next();
            match kinds[e / block] {
                0 => 0.0,
                1 => unit(r) * 1e-38,
                2 => unit(r) * 3e38,
                _ => unit(r) * if r % 17 == 3 { 40.0 } else { 1.0 },
            }
        })
        .collect()
}

/// Query values: ordinary, with ±0, subnormals and magnitudes whose products with large
/// keys overflow.
fn query(len: usize, next: &mut impl FnMut() -> u32) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let r = next();
            match r % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => unit(r) * 1e-40,
                3 => unit(r) * 3e38,
                _ => unit(r) * 4.0,
            }
        })
        .collect()
}

/// Probabilities in `[0, 1]`, a fifth of them exactly zero.
fn probs(len: usize, next: &mut impl FnMut() -> u32) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let r = next();
            if r.is_multiple_of(5) {
                0.0
            } else {
                (r % 1000) as f32 / 999.0
            }
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bits with every NaN collapsed to one pattern.
fn canonical_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
}

fn scheme(element: ElementType, plus: bool, block: usize) -> QuantScheme {
    if plus {
        QuantScheme::MxPlus(MxPlusFormat { element, block_size: block })
    } else {
        QuantScheme::Mx(MxFormat::with_block_size(element, block))
    }
}

/// The paged reader's fused `key_dots` / `value_accumulate` and the provided path over
/// the same reader's rows, for a tile of `n` positions from `t0` and `rows` query rows:
/// `(fused dots, fused out, provided dots, provided out)`.
fn both_paths(
    cache: &mut PagedKvCache,
    geom: AttnGeometry,
    (t0, n, rows): (usize, usize, usize),
    q: &[f32],
    p: &[f32],
) -> [Vec<f32>; 4] {
    let kv_dim = geom.heads / geom.group * geom.head_dim;
    let lanes = rows * geom.heads * TILE_POSITIONS;
    let out_len = rows * geom.heads * geom.head_dim;
    let mut scratch = PagedScratch::default();
    let mut reader = cache.layer_reader(0, &mut scratch);
    let mut tile = vec![f32::NAN; kv_dim * TILE_POSITIONS];
    let mut fused = (vec![f32::NAN; lanes], vec![0.0f32; out_len]);
    reader.key_dots(t0, n, q, geom, &mut tile, &mut fused.0);
    reader.value_accumulate(t0, n, p, geom, &mut tile, &mut fused.1);
    let mut provided = (vec![f32::NAN; lanes], vec![0.0f32; out_len]);
    let mut reference = ProvidedPath(&mut reader);
    reference.key_dots(t0, n, q, geom, &mut tile, &mut provided.0);
    reference.value_accumulate(t0, n, p, geom, &mut tile, &mut provided.1);
    [fused.0, fused.1, provided.0, provided.1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn paged_reader_fused_kernels_equal_the_provided_tile_path(
        seed in 0u64..1_000_000,
        int4 in 0usize..2,
        plus in 0usize..2,
        block in prop_oneof![Just(8usize), Just(16usize), Just(32usize), Just(64usize)],
        head_dim in prop_oneof![Just(8usize), Just(16usize), Just(32usize), Just(64usize)],
        group in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        kv_heads in 1usize..=3,
        page_positions in prop_oneof![Just(16usize), Just(5usize)],
        t0 in 0usize..=21,
        n in 1usize..=16,
        rows in 1usize..=16,
    ) {
        let element = if int4 == 1 { ElementType::Int4 } else { ElementType::E2M1 };
        let scheme = scheme(element, plus == 1, block);
        let geom = AttnGeometry { heads: kv_heads * group, head_dim, group };
        let kv_dim = kv_heads * head_dim;
        let len = t0 + n;
        let pool = PagePool::for_kv_rows(len.div_ceil(page_positions), page_positions, RowCodec::for_scheme(scheme), kv_dim)
            .shared();
        let mut cache = PagedKvCache::new(&pool, 1, kv_dim, scheme, len).expect("the pool holds the cache");
        let mut next = stream(seed);
        for _ in 0..len {
            let (k, v) = (kv_row(kv_dim, block, &mut next), kv_row(kv_dim, block, &mut next));
            KvBackend::append(&mut cache, 0, &k, &v, scheme);
        }
        let q = query(rows * geom.heads * head_dim, &mut next);
        let p = probs(rows * geom.heads * TILE_POSITIONS, &mut next);
        let [dots, out, ref_dots, ref_out] = both_paths(&mut cache, geom, (t0, n, rows), &q, &p);
        let case = format!("{scheme} {geom:?} pages of {page_positions} t0 {t0} n {n} rows {rows}");
        for s in 0..rows * geom.heads {
            let at = s * TILE_POSITIONS;
            prop_assert_eq!(bits(&dots[at..at + n]), bits(&ref_dots[at..at + n]), "dots of slice {}: {}", s, case);
        }
        prop_assert_eq!(bits(&out), bits(&ref_out), "outputs: {}", case);
    }
}

/// The header offset (its scale byte, then the MX+ BM-index byte) and element count of
/// every block of a packed row of `len` elements.
fn block_headers(element: ElementType, block: usize, plus: bool, len: usize) -> Vec<(usize, usize)> {
    let mut headers = Vec::new();
    let (mut off, mut start) = (0, 0);
    while start < len {
        let n = block.min(len - start);
        headers.push((off, n));
        off += 1 + usize::from(plus) + packed_len(n, element.bits());
        start += n;
    }
    headers
}

/// `RowCodec::key_dots` / `value_accumulate` on a run, and the same folds over the rows
/// `unpack_row_into` decodes: `(ran, dots, out, reference dots, reference out)`.
fn run_and_reference(
    codec: RowCodec,
    run: PackedRows<'_>,
    geom: AttnGeometry,
    q: &[f32],
    p: &[f32],
) -> (bool, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let (heads, head_dim, group) = (geom.heads, geom.head_dim, geom.group);
    let q_rows = q.len() / (heads * head_dim);
    let lanes = TILE_POSITIONS;
    let mut dots = vec![f32::NAN; q_rows * heads * lanes];
    let mut out = vec![0.0f32; q_rows * heads * head_dim];
    let ran_k = codec.key_dots(run, geom, q, &mut dots, lanes);
    let ran_v = codec.value_accumulate(run, geom, p, lanes, &mut out);
    assert_eq!(ran_k, ran_v, "the two kernels take the same shapes");
    let row_bytes = codec.packed_bytes(run.len);
    let decoded: Vec<Vec<f32>> = (0..run.rows)
        .map(|r| {
            let mut row = vec![0.0f32; run.len];
            codec.unpack_row_into(&run.bytes[r * run.stride..r * run.stride + row_bytes], &mut row);
            row
        })
        .collect();
    let mut ref_dots = vec![f32::NAN; q_rows * heads * lanes];
    let mut ref_out = vec![0.0f32; q_rows * heads * head_dim];
    for i in 0..q_rows {
        for h in 0..heads {
            let kv = (h / group) * head_dim;
            let q_head = &q[(i * heads + h) * head_dim..(i * heads + h + 1) * head_dim];
            let out_head = &mut ref_out[(i * heads + h) * head_dim..(i * heads + h + 1) * head_dim];
            for (r, row) in decoded.iter().enumerate() {
                let mut acc = 0.0f32;
                for (&qd, &kd) in q_head.iter().zip(&row[kv..kv + head_dim]) {
                    acc += qd * kd;
                }
                ref_dots[(i * heads + h) * lanes + r] = acc;
                let pr = p[(i * heads + h) * lanes + r];
                if pr != 0.0 {
                    for (o, &v) in out_head.iter_mut().zip(&row[kv..kv + head_dim]) {
                        *o += pr * v;
                    }
                }
            }
        }
    }
    (ran_k, dots, out, ref_dots, ref_out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_kernels_equal_decoded_rows_under_hostile_headers(
        seed in 0u64..1_000_000,
        int4 in 0usize..2,
        plus in 0usize..2,
        block in prop_oneof![Just(8usize), Just(16usize), Just(32usize), Just(64usize)],
        head_dim in prop_oneof![Just(8usize), Just(16usize), Just(32usize), Just(64usize)],
        group in prop_oneof![Just(1usize), Just(2usize)],
        kv_heads in 1usize..=3,
        rows in 1usize..=16,
        q_rows in 1usize..=4,
        pad in 0usize..=9,
    ) {
        let element = if int4 == 1 { ElementType::Int4 } else { ElementType::E2M1 };
        let plus = plus == 1;
        let codec = RowCodec::for_scheme(scheme(element, plus, block));
        let geom = AttnGeometry { heads: kv_heads * group, head_dim, group };
        let len = kv_heads * head_dim;
        let row_bytes = codec.packed_bytes(len);
        let stride = row_bytes + pad;
        let mut next = stream(seed);
        // A page run: each row packed at its slot, junk in the padding between slots,
        // then hostile headers: zero and NaN scales, the extreme finite scales, and BM
        // indices at every slot and past a short tail block.
        let mut bytes: Vec<u8> = (0..(rows - 1) * stride + row_bytes).map(|_| next() as u8).collect();
        for r in 0..rows {
            codec.pack_row_into(&kv_row(len, block, &mut next), &mut bytes[r * stride..r * stride + row_bytes]);
            for &(off, n) in &block_headers(element, block, plus, len) {
                let at = r * stride + off;
                match next() % 10 {
                    0 => bytes[at] = 0,
                    1 => bytes[at] = 1,
                    2 => bytes[at] = 254,
                    3 => bytes[at] = 255,
                    _ => {}
                }
                if plus && next().is_multiple_of(2) {
                    bytes[at + 1] = (next() as usize % (n + 3)) as u8;
                }
            }
        }
        let run = PackedRows { bytes: &bytes, stride, rows, len };
        let q = query(q_rows * geom.heads * head_dim, &mut next);
        let p = probs(q_rows * geom.heads * TILE_POSITIONS, &mut next);
        let (ran, dots, out, ref_dots, ref_out) = run_and_reference(codec, run, geom, &q, &p);
        let case = format!("{element:?} plus {plus} block {block} {geom:?} rows {rows} q_rows {q_rows}");
        prop_assert_eq!(ran, active_backend().runs_avx2(), "{}", case);
        if ran {
            for s in 0..q_rows * geom.heads {
                let at = s * TILE_POSITIONS;
                prop_assert_eq!(
                    canonical_bits(&dots[at..at + rows]),
                    canonical_bits(&ref_dots[at..at + rows]),
                    "dots of slice {}: {}", s, case
                );
            }
            prop_assert_eq!(canonical_bits(&out), canonical_bits(&ref_out), "outputs: {}", case);
        } else {
            prop_assert!(dots.iter().all(|d| d.is_nan()), "a kernel that did not run wrote dots: {}", case);
            prop_assert!(out.iter().all(|&o| o.to_bits() == 0), "a kernel that did not run wrote outputs: {}", case);
        }
    }
}

/// 6-bit rows, blocks of 12 and heads of 12 are shapes the kernels do not take: the
/// entry points report it, writing nothing, and the paged reader's results are the
/// provided path's.
#[test]
fn shapes_the_kernels_do_not_take_use_the_provided_path() {
    let cases = [
        (QuantScheme::mxfp6(), 16usize),
        (QuantScheme::Mx(MxFormat::with_block_size(ElementType::E2M1, 12)), 16),
        (QuantScheme::mxfp4(), 12),
        (QuantScheme::Bf16, 16),
    ];
    for (scheme, head_dim) in cases {
        let geom = AttnGeometry { heads: 4, head_dim, group: 2 };
        let kv_dim = 2 * head_dim;
        let codec = RowCodec::for_scheme(scheme);
        let mut next = stream(7);
        let row: Vec<u8> = {
            let mut packed = vec![0u8; codec.packed_bytes(kv_dim)];
            codec.pack_row_into(&kv_row(kv_dim, 16, &mut next), &mut packed);
            packed
        };
        let run = PackedRows { bytes: &row, stride: row.len(), rows: 1, len: kv_dim };
        let q = query(geom.heads * head_dim, &mut next);
        let p = probs(geom.heads * TILE_POSITIONS, &mut next);
        let (ran, dots, out, _, _) = run_and_reference(codec, run, geom, &q, &p);
        assert!(!ran, "{scheme} head_dim {head_dim}: the fused kernels must not take this shape");
        assert!(dots.iter().all(|d| d.is_nan()) && out.iter().all(|&o| o.to_bits() == 0), "{scheme}");

        let pool = PagePool::for_kv_rows(4, 5, codec, kv_dim).shared();
        let mut cache = PagedKvCache::new(&pool, 1, kv_dim, scheme, 13).expect("the pool holds the cache");
        for _ in 0..13 {
            let (k, v) = (kv_row(kv_dim, 16, &mut next), kv_row(kv_dim, 16, &mut next));
            KvBackend::append(&mut cache, 0, &k, &v, scheme);
        }
        let q = query(3 * geom.heads * head_dim, &mut next);
        let p = probs(3 * geom.heads * TILE_POSITIONS, &mut next);
        let [dots, out, ref_dots, ref_out] = both_paths(&mut cache, geom, (2, 11, 3), &q, &p);
        for s in 0..3 * geom.heads {
            let at = s * TILE_POSITIONS;
            assert_eq!(bits(&dots[at..at + 11]), bits(&ref_dots[at..at + 11]), "{scheme} head_dim {head_dim}");
        }
        assert_eq!(bits(&out), bits(&ref_out), "{scheme} head_dim {head_dim}");
    }
}
