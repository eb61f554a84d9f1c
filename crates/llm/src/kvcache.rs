//! Key/value cache for autoregressive decoding.
//!
//! Following the paper's methodology, the cached keys and values participate in dot
//! products (attention scores and attention-weighted sums) and are therefore quantized
//! with the same scheme as other dot-product operands.
//!
//! ## Storage
//!
//! Rows are stored append-only in one contiguous row-major buffer per tensor: an append
//! quantizes straight into the grown storage, and reads borrow `&[f32]` rows
//! ([`LayerKvCache::key_row`]) from it. Nothing copies the cache.
//!
//! ## Backends
//!
//! The decode hot path is generic over a cache *backend* ([`KvBackend`]): this module's
//! [`KvCache`] stores dequantized `f32` rows (the accuracy / bit-exactness baseline),
//! while [`PagedKvCache`](crate::paging::PagedKvCache) stores rows genuinely bit-packed
//! in pool-allocated pages — exclusively owned, or refcounted-shared with other
//! sequences under prefix sharing (reads never care which; writes copy-on-write). Both
//! backends feed attention through a per-layer [`KvLayerReader`], which folds q·k and
//! accumulates probs×V over a tile of [`TILE_POSITIONS`] cached positions at a time for
//! a block of query rows ([`KvLayerReader::key_dots`] /
//! [`KvLayerReader::value_accumulate`], shaped by an [`AttnGeometry`]). Their provided
//! bodies read the tile's rows into a tile buffer and fold it; the paged backend
//! overrides them with fused page kernels that fold 4-bit codes straight from the page,
//! bit for bit the same.

pub use mx_formats::AttnGeometry;
use mx_formats::QuantScheme;
use mx_tensor::kernels;
use serde::{Deserialize, Serialize};

/// The KV cache of one attention layer: keys and values appended token by token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerKvCache {
    kv_dim: usize,
    keys: Vec<f32>,
    values: Vec<f32>,
    len: usize,
}

impl LayerKvCache {
    /// Creates an empty cache for keys/values of width `kv_dim`.
    #[must_use]
    pub fn new(kv_dim: usize) -> Self {
        LayerKvCache::with_capacity(kv_dim, 0)
    }

    /// Creates an empty cache with storage pre-reserved for `positions` tokens, so a
    /// serving loop with a known budget never reallocates (or moves) the row storage.
    #[must_use]
    pub fn with_capacity(kv_dim: usize, positions: usize) -> Self {
        LayerKvCache {
            kv_dim,
            keys: Vec::with_capacity(positions * kv_dim),
            values: Vec::with_capacity(positions * kv_dim),
            len: 0,
        }
    }

    /// Reserves storage for at least `additional` more positions.
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional * self.kv_dim);
        self.values.reserve(additional * self.kv_dim);
    }

    /// Number of cached positions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Key/value width.
    #[must_use]
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    /// Appends one position's key and value rows, fake-quantized with `scheme`
    /// (the cache stores the quantized representation, as a real serving system would).
    /// Each row is quantized straight into the grown row storage, so appends allocate
    /// only when that storage must grow.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not have width `kv_dim`.
    pub fn append(&mut self, key: &[f32], value: &[f32], scheme: QuantScheme) {
        assert_eq!(key.len(), self.kv_dim, "key width mismatch");
        assert_eq!(value.len(), self.kv_dim, "value width mismatch");
        let end = (self.len + 1) * self.kv_dim;
        self.keys.resize(end, 0.0);
        scheme.quantize_dequantize_into(key, &mut self.keys[end - self.kv_dim..]);
        self.values.resize(end, 0.0);
        scheme.quantize_dequantize_into(value, &mut self.values[end - self.kv_dim..]);
        self.len += 1;
    }

    /// One cached key row, borrowed straight from the row storage (no copy).
    ///
    /// # Panics
    ///
    /// Panics if `t >= len`.
    #[must_use]
    pub fn key_row(&self, t: usize) -> &[f32] {
        assert!(t < self.len, "position out of bounds");
        &self.keys[t * self.kv_dim..(t + 1) * self.kv_dim]
    }

    /// One cached value row, borrowed straight from the row storage (no copy).
    ///
    /// # Panics
    ///
    /// Panics if `t >= len`.
    #[must_use]
    pub fn value_row(&self, t: usize) -> &[f32] {
        assert!(t < self.len, "position out of bounds");
        &self.values[t * self.kv_dim..(t + 1) * self.kv_dim]
    }

    /// Clears the cache (retaining storage).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.len = 0;
    }

    /// Storage in bytes if the cache were held in `scheme`, rounding each stored row up
    /// to whole bytes (rows are the allocation unit of the append-only layout, so partial
    /// trailing blocks cost a full byte per row rather than vanishing in a flattened
    /// average).
    #[must_use]
    pub fn storage_bytes(&self, scheme: QuantScheme) -> usize {
        2 * self.len * Self::row_storage_bytes(self.kv_dim, scheme)
    }

    /// Bytes of backing storage this cache has allocated for row data: this backend
    /// stores the *dequantized* rows, so the commitment is 4 bytes per element of
    /// reserved capacity regardless of the quantization scheme. Counting capacity (not
    /// just rows written) makes the number the allocation-granular analogue of the paged
    /// backend's page occupancy (contrast [`LayerKvCache::storage_bytes`], the
    /// theoretical scheme width of the rows written).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        (self.keys.capacity() + self.values.capacity()) * std::mem::size_of::<f32>()
    }

    /// Bytes one stored row of width `kv_dim` occupies under `scheme` (ceiled per row).
    #[must_use]
    pub fn row_storage_bytes(kv_dim: usize, scheme: QuantScheme) -> usize {
        (kv_dim as f64 * scheme.average_bits_per_element() / 8.0).ceil() as usize
    }
}

/// KV caches for all layers of a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvCache {
    layers: Vec<LayerKvCache>,
}

impl KvCache {
    /// Creates empty caches for `layers` layers of key/value width `kv_dim`.
    #[must_use]
    pub fn new(layers: usize, kv_dim: usize) -> Self {
        KvCache::with_capacity(layers, kv_dim, 0)
    }

    /// Creates empty caches with per-layer storage pre-reserved for `positions` tokens.
    #[must_use]
    pub fn with_capacity(layers: usize, kv_dim: usize, positions: usize) -> Self {
        KvCache { layers: (0..layers).map(|_| LayerKvCache::with_capacity(kv_dim, positions)).collect() }
    }

    /// The cache of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn layer(&self, layer: usize) -> &LayerKvCache {
        &self.layers[layer]
    }

    /// Mutable access to one layer's cache.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_mut(&mut self, layer: usize) -> &mut LayerKvCache {
        &mut self.layers[layer]
    }

    /// Number of layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Sequence length currently cached (same for every layer).
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, LayerKvCache::len)
    }

    /// Reserves storage for at least `additional` more positions in every layer
    /// (a cloned `Vec` keeps only `len` capacity, so clones that will keep decoding
    /// should re-reserve their headroom).
    pub fn reserve(&mut self, additional: usize) {
        for l in &mut self.layers {
            l.reserve(additional);
        }
    }

    /// Total storage in bytes across all layers if held in `scheme`
    /// (see [`LayerKvCache::storage_bytes`]).
    #[must_use]
    pub fn storage_bytes(&self, scheme: QuantScheme) -> usize {
        self.layers.iter().map(|l| l.storage_bytes(scheme)).sum()
    }

    /// Bytes of backing storage allocated for cache rows across all layers
    /// (see [`LayerKvCache::resident_bytes`]).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.layers.iter().map(LayerKvCache::resident_bytes).sum()
    }

    /// Clears every layer.
    pub fn clear(&mut self) {
        for l in &mut self.layers {
            l.clear();
        }
    }
}

/// Positions per attention tile: a key tile holds this many positions side by side, one
/// per SIMD lane of the q·k fold, and the model walks query rows in blocks of one such
/// tile (one default page).
pub const TILE_POSITIONS: usize = 16;

/// Read access to one layer of a KV cache during attention, by row and by tile.
///
/// The reader owns whatever per-read state the backend needs: the `f32` backend returns
/// borrowed slices straight into its contiguous row storage (zero work per read), while
/// the paged backend decodes the requested packed row into a reusable dequant scratch
/// buffer and returns that. Either way a returned row is only guaranteed until the next
/// read.
///
/// Attention reads tiles of up to [`TILE_POSITIONS`] positions for a block of up to
/// [`TILE_POSITIONS`] query rows, through two methods: [`KvLayerReader::key_dots`]
/// (q·k) and [`KvLayerReader::value_accumulate`] (probs×V). Their provided bodies read
/// the tile's rows ([`KvLayerReader::key_row`] / [`KvLayerReader::value_row`]) into a
/// caller-owned tile and fold it, so every backend serves attention. A backend that can
/// fold packed rows directly (the paged backend's fused 4-bit page kernels) overrides
/// them. Either way every dot and every output element sees the same operations in the
/// same order, bit for bit.
pub trait KvLayerReader {
    /// The cached key row at position `t`.
    fn key_row(&mut self, t: usize) -> &[f32];
    /// The cached value row at position `t`.
    fn value_row(&mut self, t: usize) -> &[f32];

    /// q·k of a block of query rows against the keys of positions `t0..t0 + n`. `q`
    /// holds whole query rows of `geom.heads × geom.head_dim` (already quantized). For
    /// row `i`, head `h` and lane `j < n`, slot `(i * geom.heads + h) * TILE_POSITIONS +
    /// j` of `dots` becomes `q·k` of that head against the key at `t0 + j`, folded from
    /// +0.0 in ascending element order, a multiply then an add (the provided body's
    /// `fold_key_tile`, over a tile holding the keys with the positions in lanes). `tile`
    /// is working memory of at least `kv_dim * TILE_POSITIONS` values; what it holds
    /// afterwards is unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `n > TILE_POSITIONS`, a position is not cached, or a buffer is too
    /// short.
    fn key_dots(&mut self, t0: usize, n: usize, q: &[f32], geom: AttnGeometry, tile: &mut [f32], dots: &mut [f32]) {
        assert!(n <= TILE_POSITIONS, "a key tile holds at most TILE_POSITIONS positions");
        for j in 0..n {
            set_key_lane(tile, j, self.key_row(t0 + j));
        }
        fold_key_tile(q, geom, tile, n, dots);
    }

    /// Adds probs×V over positions `t0..t0 + n` into a block of output rows. `out` holds
    /// whole rows of `geom.heads × geom.head_dim`; for row `i` and head `h`, each lane
    /// `j < n` in ascending order whose probability `p = probs[(i * geom.heads + h) *
    /// TILE_POSITIONS + j]` is not zero adds `p × value` of that head's KV head at
    /// `t0 + j` into the row's head slice, a multiply then an add per element (the
    /// provided body's `accumulate_value_tile`, over a tile holding the values
    /// row-major). A lane a row cannot see holds probability 0, so the zero skip also
    /// applies the causal mask. `tile` is working memory of at least
    /// `kv_dim * TILE_POSITIONS` values; what it holds afterwards is unspecified. No
    /// element of `out` may be −0.0 (accumulators start at +0.0), so a backend may
    /// decode a zero as either sign.
    ///
    /// # Panics
    ///
    /// Panics if a position is not cached or a buffer is too short.
    fn value_accumulate(
        &mut self,
        t0: usize,
        n: usize,
        probs: &[f32],
        geom: AttnGeometry,
        tile: &mut [f32],
        out: &mut [f32],
    ) {
        for j in 0..n {
            let row = self.value_row(t0 + j);
            tile[j * row.len()..(j + 1) * row.len()].copy_from_slice(row);
        }
        accumulate_value_tile(probs, geom, tile, n, out);
    }

    /// Retired per-position fused q·k read: no backend implements it and the model never
    /// calls it, so it always returns `false` ("no fused path; read
    /// [`KvLayerReader::key_row`] instead"). It keeps its signature only because the
    /// serving benchmark's layer replay still calls it; ROADMAP item 1, which replaces
    /// that replay with the engine's own phase profile, retires it.
    fn fused_key_dots(&mut self, _t: usize, _q: &[f32], _geom: AttnGeometry, _dots: &mut [f32]) -> bool {
        false
    }

    /// Retired per-position fused probs×V read: always returns `false` ("read
    /// [`KvLayerReader::value_row`] instead"). Kept for the serving benchmark's layer
    /// replay, like [`KvLayerReader::fused_key_dots`].
    fn fused_value_accumulate(&mut self, _t: usize, _probs: &[f32], _geom: AttnGeometry, _out: &mut [f32]) -> bool {
        false
    }
}

/// Writes `key` into lane `j` of a key tile: element `e` lands in
/// `tile[e * TILE_POSITIONS + j]`, the layout [`fold_key_tile`] reads.
pub(crate) fn set_key_lane(tile: &mut [f32], j: usize, key: &[f32]) {
    for (e, &v) in key.iter().enumerate() {
        tile[e * TILE_POSITIONS + j] = v;
    }
}

/// q·k of every query row's every head against the first `n` lanes of a key tile
/// (positions in lanes, as [`set_key_lane`] writes them): lane `j` of head `h` of row
/// `i` lands in `dots[(i * geom.heads + h) * TILE_POSITIONS + j]`. Each lane folds
/// `q[d] * key[d]` in ascending `d` from `0.0`, a multiply then an add — the operation
/// sequence of [`kernels::dot_acc_seq`] — so every lane equals the per-position fold bit
/// for bit. The lanes are independent accumulators, which is what lets an optimized
/// build keep them in SIMD registers.
pub(crate) fn fold_key_tile(q: &[f32], geom: AttnGeometry, tile: &[f32], n: usize, dots: &mut [f32]) {
    let AttnGeometry { heads, head_dim, group } = geom;
    for (i, q_row) in q.chunks_exact(heads * head_dim).enumerate() {
        for (h, q_head) in q_row.chunks_exact(head_dim).enumerate() {
            let keys = &tile[(h / group) * head_dim * TILE_POSITIONS..][..head_dim * TILE_POSITIONS];
            let mut acc = [0.0f32; TILE_POSITIONS];
            for (&qd, k) in q_head.iter().zip(keys.chunks_exact(TILE_POSITIONS)) {
                for (a, &kd) in acc.iter_mut().zip(k) {
                    *a += qd * kd;
                }
            }
            let at = (i * heads + h) * TILE_POSITIONS;
            dots[at..at + n].copy_from_slice(&acc[..n]);
        }
    }
}

/// probs×V of the first `n` rows of a row-major value tile (row `j` at
/// `tile[j * kv_dim..]`) into whole output rows: for each row `i`, position `j < n` in
/// ascending order and head `h` whose probability
/// `probs[(i * geom.heads + h) * TILE_POSITIONS + j]` is not zero,
/// [`kernels::axpy_seq`] adds `p × value` into the row's head slice. Each output element
/// therefore accumulates its positions in ascending order.
pub(crate) fn accumulate_value_tile(probs: &[f32], geom: AttnGeometry, tile: &[f32], n: usize, out: &mut [f32]) {
    let AttnGeometry { heads, head_dim, group } = geom;
    let kv_dim = heads / group * head_dim;
    for (i, out_row) in out.chunks_exact_mut(heads * head_dim).enumerate() {
        for (j, value) in tile.chunks_exact(kv_dim).take(n).enumerate() {
            for (h, out) in out_row.chunks_exact_mut(head_dim).enumerate() {
                let p = probs[(i * heads + h) * TILE_POSITIONS + j];
                if p == 0.0 {
                    continue;
                }
                let kv = (h / group) * head_dim;
                kernels::axpy_seq(out, p, &value[kv..kv + head_dim]);
            }
        }
    }
}

/// A KV-cache backend the transformer's decode path can run over.
///
/// Extracted from the concrete [`KvCache`] so the model is agnostic to *how* rows are
/// stored: dequantized `f32` ([`KvCache`]) or bit-packed pages
/// ([`PagedKvCache`](crate::paging::PagedKvCache)). Appends hand the backend the raw
/// (pre-quantization) rows plus the scheme; reads go through a per-layer
/// [`KvLayerReader`]. Both backends must expose rows whose values equal
/// `scheme.quantize_dequantize(row)` bit for bit, which is what makes the backends
/// interchangeable token for token.
pub trait KvBackend {
    /// The per-layer reader type handed to the attention loop.
    type Layer<'a>: KvLayerReader
    where
        Self: 'a;

    /// Reusable per-read working memory the backend's readers decode rows into. Owned by
    /// the *caller* — in the threaded serving engine, by the worker thread — rather than
    /// the cache, so one scratch serves every sequence a worker steps and the caches
    /// themselves stay free of read-side mutable state. `()` for backends whose reads
    /// borrow storage directly (the f32 [`KvCache`]); a row-buffer pair plus decode
    /// counters for the paged backend ([`PagedScratch`](crate::paging::PagedScratch)).
    type Scratch: Default + Send + std::fmt::Debug;

    /// Number of layers.
    fn num_layers(&self) -> usize;

    /// Sequence length currently cached (same for every layer).
    fn seq_len(&self) -> usize;

    /// Appends one position's key and value rows to `layer`, quantized with `scheme`.
    fn append(&mut self, layer: usize, key: &[f32], value: &[f32], scheme: QuantScheme);

    /// A row and tile reader over `layer`'s cached positions, decoding through `scratch`.
    fn layer_reader<'a>(&'a mut self, layer: usize, scratch: &'a mut Self::Scratch) -> Self::Layer<'a>;
}

impl KvLayerReader for &LayerKvCache {
    fn key_row(&mut self, t: usize) -> &[f32] {
        LayerKvCache::key_row(self, t)
    }

    fn value_row(&mut self, t: usize) -> &[f32] {
        LayerKvCache::value_row(self, t)
    }
}

impl KvBackend for KvCache {
    type Layer<'a> = &'a LayerKvCache;
    type Scratch = ();

    fn num_layers(&self) -> usize {
        KvCache::num_layers(self)
    }

    fn seq_len(&self) -> usize {
        KvCache::seq_len(self)
    }

    fn append(&mut self, layer: usize, key: &[f32], value: &[f32], scheme: QuantScheme) {
        self.layer_mut(layer).append(key, value, scheme);
    }

    fn layer_reader<'a>(&'a mut self, layer: usize, (): &'a mut ()) -> Self::Layer<'a> {
        self.layer(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut cache = LayerKvCache::new(4);
        cache.append(&[1.0, 2.0, 3.0, 4.0], &[0.5, 0.5, 0.5, 0.5], QuantScheme::Fp32);
        cache.append(&[-1.0, 0.0, 1.0, 2.0], &[0.1, 0.2, 0.3, 0.4], QuantScheme::Fp32);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.key_row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cache.value_row(1), &[0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn with_capacity_appends_do_not_move_storage() {
        let mut cache = LayerKvCache::with_capacity(8, 64);
        cache.append(&[1.0; 8], &[2.0; 8], QuantScheme::Fp32);
        let p_keys = cache.key_row(0).as_ptr();
        for _ in 1..64 {
            cache.append(&[1.0; 8], &[2.0; 8], QuantScheme::Fp32);
        }
        // Row storage was pre-reserved: 64 appends later, row 0 has not moved.
        assert_eq!(cache.key_row(0).as_ptr(), p_keys);
        assert_eq!(cache.len(), 64);
    }

    #[test]
    fn quantized_cache_is_lossy_but_close() {
        let mut exact = LayerKvCache::new(64);
        let mut quant = LayerKvCache::new(64);
        let key: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let value: Vec<f32> = (0..64).map(|i| (i as f32 * 0.11).cos()).collect();
        exact.append(&key, &value, QuantScheme::Fp32);
        quant.append(&key, &value, QuantScheme::mxfp4());
        let err = mx_formats::metrics::mse(exact.key_row(0), quant.key_row(0));
        assert!(err > 0.0 && err < 0.05);
    }

    #[test]
    fn multi_layer_cache() {
        let mut cache = KvCache::new(3, 8);
        assert_eq!(cache.num_layers(), 3);
        assert_eq!(cache.seq_len(), 0);
        for l in 0..3 {
            cache.layer_mut(l).append(&[0.0; 8], &[0.0; 8], QuantScheme::Fp32);
        }
        assert_eq!(cache.seq_len(), 1);
        cache.clear();
        assert_eq!(cache.seq_len(), 0);
    }

    #[test]
    fn storage_accounting() {
        let mut cache = LayerKvCache::new(32);
        for _ in 0..10 {
            cache.append(&[0.1; 32], &[0.2; 32], QuantScheme::Fp32);
        }
        // 2 * 10 rows of 32 elements: MXFP4 at 4.25 bits -> 17 bytes/row, BF16 -> 64.
        assert_eq!(cache.storage_bytes(QuantScheme::mxfp4()), 340);
        assert_eq!(cache.storage_bytes(QuantScheme::Bf16), 1280);
    }

    #[test]
    fn storage_accounting_ceils_per_row() {
        // kv_dim = 40 under MXFP4: 40 * 4.25 = 170 bits = 21.25 bytes -> 22 bytes per
        // stored row. The old flattened accounting (2*3*40 elements * 4.25 bits / 8,
        // ceiled once) reported 128 bytes, undercounting the partial trailing block of
        // every row.
        assert_eq!(LayerKvCache::row_storage_bytes(40, QuantScheme::mxfp4()), 22);
        let mut cache = LayerKvCache::new(40);
        for _ in 0..3 {
            cache.append(&[0.3; 40], &[0.4; 40], QuantScheme::Fp32);
        }
        assert_eq!(cache.storage_bytes(QuantScheme::mxfp4()), 132);
        assert!(cache.storage_bytes(QuantScheme::mxfp4()) > 128);
    }

    #[test]
    fn whole_cache_storage_sums_layers() {
        let mut cache = KvCache::new(2, 32);
        for l in 0..2 {
            for _ in 0..4 {
                cache.layer_mut(l).append(&[0.1; 32], &[0.1; 32], QuantScheme::Fp32);
            }
        }
        assert_eq!(cache.storage_bytes(QuantScheme::mxfp4()), 2 * 2 * 4 * 17);
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn append_validates_width() {
        let mut cache = LayerKvCache::new(4);
        cache.append(&[1.0; 3], &[1.0; 4], QuantScheme::Fp32);
    }

    #[test]
    #[should_panic(expected = "position out of bounds")]
    fn row_reads_validate_position() {
        let mut cache = LayerKvCache::new(4);
        cache.append(&[1.0; 4], &[1.0; 4], QuantScheme::Fp32);
        let _ = cache.key_row(1);
    }
}
