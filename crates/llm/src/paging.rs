//! Paged KV-cache storage with true bit-packed MX rows, shared safely across threads.
//!
//! The serving engine's original per-sequence [`KvCache`](crate::kvcache::KvCache) stores
//! the **dequantized f32** of the quantized keys/values — it reports theoretical scheme
//! bytes while actually holding 32-bit rows. This module closes that gap with two pieces:
//!
//! * [`PagePool`] — a shared, fixed-budget allocator of pages. Each page holds
//!   [`PagePool::page_positions`] position *slots*, and each slot stores one key row and
//!   one value row **genuinely bit-packed** with [`mx_formats::RowCodec`] (4/6/8-bit
//!   element codes + shared scales for the MX/MX+ families; `f32` fallback otherwise).
//!   The pool hands out pages against *reservations*, so a scheduler can admit a sequence
//!   only when its worst-case footprint fits, and occupancy
//!   ([`PagePool::resident_bytes`]) is a **measured** number, not scheme math.
//! * [`PagedKvCache`] — one sequence's cache: a per-layer page table mapping position
//!   `t → (table[t / page_positions], t % page_positions)`. Appends quantize-and-pack
//!   straight into the slot. Attention folds tiles through [`KvLayerReader`]: each run
//!   of a tile's positions that lies in one page goes to one fused [`RowCodec`] page
//!   kernel call (`key_dots` / `value_accumulate`), which folds 4-bit MX/MX+ codes
//!   straight from the page buffer into q·k and probs×V; a codec, shape or backend the
//!   kernels do not take decodes the run row by row with [`RowCodec::unpack_row_into`]
//!   into the caller's tile and folds it exactly as the reader trait's provided bodies
//!   do. Single-row reads decode into a caller-provided [`PagedScratch`].
//!
//! ## Ownership model: exclusive tail pages, refcounted shared pages
//!
//! A cache's page table holds page references in one of two states:
//!
//! * **Owned** — the page buffer is exclusively held by this cache (the common case and
//!   always the state of a freshly allocated tail page), so packs and unpacks are
//!   lock-free plain memory access.
//! * **Shared** — the page has been *sealed* behind an atomically refcounted handle
//!   ([`Arc`]) so that any number of caches can read it concurrently. Sealing happens
//!   when a cache donates a prompt prefix ([`PagedKvCache::share_prefix`]); a recipient
//!   built with [`PagedKvCache::with_shared_prefix`] maps the donor's sealed pages
//!   straight into its own table, paying **zero** new pages and zero re-prefill for the
//!   shared positions. When the last reference drops, the page returns itself to the
//!   pool.
//!
//! Appending into a shared page triggers **copy-on-write**
//! (an append can only ever target the partially filled boundary page of a shared
//! prefix): if the cache is the sole remaining owner the page is reclaimed in place
//! (no copy — the donor retired), otherwise a fresh page is allocated from the cache's
//! reservation and the shared bytes are copied before the write. Either way the other
//! holders of the page never observe the mutation.
//!
//! For **preemption**, a whole cache can be swapped out of the pool into a host-side
//! [`SpilledKv`] buffer ([`PagedKvCache::spill`]) and later re-admitted with
//! [`PagedKvCache::restore`], which is bit-exact: packed slot bytes are copied verbatim
//! in both directions, so a preempted sequence resumes token-identically.
//!
//! ## Threading model
//!
//! The pool is shared as an [`Arc<PagePool>`] and is `Send + Sync`: all free-list,
//! reservation and occupancy accounting sits behind one internal [`Mutex`], which is
//! touched only when pages change hands (admission, page-boundary growth, sealing,
//! copy-on-write, retirement) — never on the per-row decode hot path. Owned page *data*
//! is handed out by moving each page's pre-allocated buffer out of the pool and into the
//! owning [`PagedKvCache`] (and back on release), so a worker thread decoding its
//! sequence packs and unpacks rows with **zero locking**; shared pages are immutable
//! behind their refcount, so concurrent readers need no locking either. The per-row
//! dequant scratch lives in a [`PagedScratch`] owned by the *worker thread* rather than
//! the cache, so a thread serving many resident sequences carries exactly one pair of
//! row buffers.
//!
//! Because [`mx_formats::RowCodec`] round-trips bit-for-bit with
//! `QuantScheme::quantize_dequantize` — the exact values the f32 backend stores — a
//! decode over the paged backend is **token-identical** to the same forward over the
//! f32 [`KvCache`](crate::kvcache::KvCache), on any number of threads.
//! Dropping a [`PagedKvCache`] returns every page (and any unused reservation) to the
//! pool, which is what lets the continuous-batching scheduler admit queued sequences as
//! earlier ones finish.

use std::sync::{Arc, Mutex, MutexGuard};

use mx_formats::{PackedRows, QuantScheme, RowCodec};

use crate::kvcache::{
    accumulate_value_tile, fold_key_tile, set_key_lane, AttnGeometry, KvBackend, KvLayerReader, TILE_POSITIONS,
};

/// Default number of position slots per page (the paged-attention block size).
pub const DEFAULT_PAGE_POSITIONS: usize = 16;

/// Errors of the paging subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagingError {
    /// A reservation asked for more pages than the pool can currently provide.
    OutOfPages {
        /// Pages the reservation needed.
        needed: usize,
        /// Pages available (free and not reserved by other sequences).
        available: usize,
    },
}

impl std::fmt::Display for PagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagingError::OutOfPages { needed, available } => {
                write!(f, "page pool exhausted: needed {needed} pages, {available} available")
            }
        }
    }
}

impl std::error::Error for PagingError {}

/// One page checked out of the pool: its id plus the owned backing buffer. The buffer
/// physically moves between the pool and the owning cache, which is what makes reads and
/// writes of an allocated page lock-free (exclusive ownership, no shared arena aliasing).
#[derive(Debug)]
struct PageEntry {
    id: usize,
    buf: Box<[u8]>,
}

/// A sealed, immutable page held behind an atomic refcount. Every holder reads the same
/// buffer; when the last [`Arc<SharedPage>`] drops, the page returns itself to the pool
/// (which is why it carries its pool handle). A shared page is never written — caches
/// that need to write one first go through copy-on-write.
#[derive(Debug)]
struct SharedPage {
    pool: Arc<PagePool>,
    /// `Some` until the page is reclaimed exclusively (sole-owner copy-on-write) or
    /// returned to the pool by `Drop`.
    entry: Option<PageEntry>,
}

impl SharedPage {
    fn buf(&self) -> &[u8] {
        // Invariant: a SharedPage reachable through a page table always holds its entry.
        // The entry only leaves via sole-owner copy-on-write (which consumes the last
        // Arc, so no table can still point here) or Drop.
        match &self.entry {
            Some(entry) => &entry.buf,
            None => unreachable!("shared page already reclaimed"),
        }
    }
}

impl Drop for SharedPage {
    fn drop(&mut self) {
        if let Some(entry) = self.entry.take() {
            self.pool.state().free_page(entry);
        }
    }
}

/// One entry of a cache's page table: exclusively owned and mutable (the tail page and
/// every page of a cache that shares nothing), or sealed and refcounted-shared.
#[derive(Debug)]
enum PageRef {
    /// Exclusively owned: reads and writes are lock-free plain memory access.
    Owned(PageEntry),
    /// Sealed read-only page shared with other caches through an atomic refcount.
    Shared(Arc<SharedPage>),
}

impl PageRef {
    fn buf(&self) -> &[u8] {
        match self {
            PageRef::Owned(entry) => &entry.buf,
            PageRef::Shared(page) => page.buf(),
        }
    }

    fn is_shared(&self) -> bool {
        matches!(self, PageRef::Shared(_))
    }

    /// The pool page id this table entry is mapped to (used by the debug audits).
    fn id(&self) -> usize {
        match self {
            PageRef::Owned(entry) => entry.id,
            PageRef::Shared(page) => match &page.entry {
                Some(entry) => entry.id,
                None => unreachable!("shared page already reclaimed"),
            },
        }
    }
}

/// A donor's sealed prompt-prefix pages, cloned out of its page table by
/// [`PagedKvCache::share_prefix`] and consumed by [`PagedKvCache::with_shared_prefix`].
/// Holding this keeps every page alive (refcounted) even if the donor retires before the
/// recipient is built.
#[derive(Debug)]
pub struct SharedPrefix {
    /// Per-layer clones of the donor's sealed pages (same page count in every layer).
    pages: Vec<Vec<PageRef>>,
    /// Prefix positions the pages cover (the recipient's initial sequence length).
    positions: usize,
}

impl SharedPrefix {
    /// Prefix positions covered by the shared pages.
    #[must_use]
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Shared pages mapped per layer (full pages plus a partially filled boundary page
    /// when the prefix does not end on a page boundary).
    #[must_use]
    pub fn pages_per_layer(&self) -> usize {
        self.pages.first().map_or(0, Vec::len)
    }

    /// Total shared page mappings across all layers.
    #[must_use]
    pub fn total_pages(&self) -> usize {
        self.pages.iter().map(Vec::len).sum()
    }
}

/// A preempted cache's contents, swapped out of the page pool into plain host memory:
/// per-layer packed page buffers copied verbatim plus the appended lengths. Restoring
/// with [`PagedKvCache::restore`] copies the bytes back into freshly allocated pages, so
/// a spill/restore round trip is bit-exact. `Clone` is what makes a retained
/// [`PagedKvCache::checkpoint`] reusable across several retry attempts.
#[derive(Debug, Clone)]
pub struct SpilledKv {
    scheme: QuantScheme,
    kv_dim: usize,
    lens: Vec<usize>,
    /// `pages[layer][page]` — a verbatim copy of each page buffer at spill time.
    pages: Vec<Vec<Box<[u8]>>>,
}

impl SpilledKv {
    /// Positions the spilled cache held (same for every layer).
    #[must_use]
    pub fn positions(&self) -> usize {
        self.lens.first().copied().unwrap_or(0)
    }

    /// Host-side bytes the spill buffer occupies (page-granular, like pool residency).
    #[must_use]
    pub fn spill_bytes(&self) -> usize {
        self.pages.iter().flatten().map(|buf| buf.len()).sum()
    }
}

/// The lock-protected side of the pool: which pages are home, which are checked out,
/// and how many are promised to admitted-but-not-yet-written sequences.
#[derive(Debug)]
struct PoolState {
    /// Buffer of each page while it sits in the pool; `None` while checked out.
    buffers: Vec<Option<Box<[u8]>>>,
    /// Ids of pages currently in the pool and not promised to anyone.
    free: Vec<usize>,
    /// Pages promised to admitted sequences but not yet written.
    reserved: usize,
}

impl PoolState {
    /// Converts one reserved page into a checked-out page.
    ///
    /// Panics if nothing is reserved — allocation is only legal against a reservation,
    /// which is what makes admission decisions binding.
    fn alloc_reserved(&mut self) -> PageEntry {
        assert!(self.reserved > 0, "allocating without a reservation");
        // Invariant: `reserved <= free.len()` (reservations only come from the free
        // headroom) and every free id's buffer is home — `PagePool::audit` checks both.
        let Some(id) = self.free.pop() else { unreachable!("reserved pages must be free") };
        self.reserved -= 1;
        let Some(buf) = self.buffers[id].take() else { unreachable!("free page {id} lost its buffer") };
        PageEntry { id, buf }
    }

    /// Returns a checked-out page to the pool.
    ///
    /// Panics if the page's home slot is already occupied (double free).
    fn free_page(&mut self, entry: PageEntry) {
        assert!(self.buffers[entry.id].is_none(), "double free of page {}", entry.id);
        self.buffers[entry.id] = Some(entry.buf);
        self.free.push(entry.id);
    }
}

/// A fixed-budget allocator of KV-cache pages, shared by every sequence of a serving run.
///
/// The backing storage of every page is allocated once at construction
/// (`pages × page_bytes`), mirroring how a real serving system pre-carves an
/// accelerator's KV-cache arena. Pages move between three states: *free*, *reserved*
/// (promised to an admitted sequence but not yet written) and *in use* (checked out to a
/// cache, holding packed rows). [`PagePool::resident_bytes`] reports the in-use
/// footprint — the measured occupancy a [`ServingReport`] exposes alongside the
/// theoretical scheme bytes.
///
/// The pool is `Send + Sync` (see the [module docs](crate::paging) for the threading
/// model); every accounting method takes `&self` and locks internally.
///
/// [`ServingReport`]: crate::serving::ServingReport
#[derive(Debug)]
pub struct PagePool {
    page_positions: usize,
    slot_bytes: usize,
    pages: usize,
    state: Mutex<PoolState>,
}

impl PagePool {
    /// Creates a pool of `pages` pages, each holding `page_positions` slots of
    /// `slot_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(pages: usize, page_positions: usize, slot_bytes: usize) -> Self {
        assert!(pages > 0, "page pool must hold at least one page");
        assert!(page_positions > 0, "pages must hold at least one position");
        assert!(slot_bytes > 0, "slots must hold at least one byte");
        let page_bytes = page_positions * slot_bytes;
        PagePool {
            page_positions,
            slot_bytes,
            pages,
            state: Mutex::new(PoolState {
                buffers: (0..pages).map(|_| Some(vec![0u8; page_bytes].into_boxed_slice())).collect(),
                free: (0..pages).rev().collect(),
                reserved: 0,
            }),
        }
    }

    /// Creates a pool whose slots each hold one packed key row plus one packed value row
    /// of width `kv_dim` under `codec`.
    #[must_use]
    pub fn for_kv_rows(pages: usize, page_positions: usize, codec: RowCodec, kv_dim: usize) -> Self {
        PagePool::new(pages, page_positions, 2 * codec.packed_bytes(kv_dim))
    }

    /// Wraps the pool for sharing between the scheduler, its sequences' caches and any
    /// number of decode worker threads.
    #[must_use]
    pub fn shared(self) -> Arc<PagePool> {
        Arc::new(self)
    }

    fn state(&self) -> MutexGuard<'_, PoolState> {
        // Recover from poisoning instead of panicking: a worker that panicked mid-step
        // already propagates through the thread scope, and the Drop paths (caches,
        // shared pages) must still be able to return pages during that unwinding —
        // a second panic here would turn a diagnosable failure into an abort.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of position slots per page.
    #[must_use]
    pub fn page_positions(&self) -> usize {
        self.page_positions
    }

    /// Bytes per position slot (packed key row + packed value row).
    #[must_use]
    pub fn slot_bytes(&self) -> usize {
        self.slot_bytes
    }

    /// Bytes per page.
    #[must_use]
    pub fn page_bytes(&self) -> usize {
        self.page_positions * self.slot_bytes
    }

    /// Total pages in the pool (the global budget).
    #[must_use]
    pub fn total_pages(&self) -> usize {
        self.pages
    }

    /// Pages not currently holding data (free or merely reserved).
    #[must_use]
    pub fn free_pages(&self) -> usize {
        self.state().free.len()
    }

    /// Pages checked out to caches (holding packed rows) right now.
    #[must_use]
    pub fn in_use_pages(&self) -> usize {
        self.pages - self.state().free.len()
    }

    /// Pages promised to admitted sequences but not yet written.
    #[must_use]
    pub fn reserved_pages(&self) -> usize {
        self.state().reserved
    }

    /// Pages a new reservation could still claim.
    #[must_use]
    pub fn available_pages(&self) -> usize {
        let state = self.state();
        state.free.len() - state.reserved
    }

    /// Measured pool occupancy in bytes: in-use pages times the page size.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.in_use_pages() * self.page_bytes()
    }

    /// Debug-build sanitizer: reconciles the pool's internal accounting — every page
    /// is either home (free) or checked out (`free + in-use == capacity`), free ids
    /// are unique and in range with their buffers home, and reservations never exceed
    /// the free headroom. Compiles to a no-op in release builds, so callers (the
    /// serving engine at pass boundaries, the churn proptests at every step) invoke it
    /// unconditionally.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if any invariant is violated.
    pub fn audit(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let state = self.state();
        let mut seen = vec![false; self.pages];
        for &id in &state.free {
            assert!(id < self.pages, "free list holds out-of-range page id {id}");
            assert!(!seen[id], "page {id} appears twice in the free list");
            seen[id] = true;
            assert!(state.buffers[id].is_some(), "free page {id} lost its buffer");
        }
        let home = state.buffers.iter().filter(|buf| buf.is_some()).count();
        assert_eq!(home, state.free.len(), "pages home in the pool must be exactly the free pages");
        assert!(state.reserved <= state.free.len(), "more pages reserved than free");
    }

    /// Reserves `pages` pages for a sequence being admitted. Returns `false` (reserving
    /// nothing) if fewer than `pages` are available.
    pub fn try_reserve(&self, pages: usize) -> bool {
        self.try_reserve_or_available(pages).is_ok()
    }

    /// [`PagePool::try_reserve`], reporting the available-page count observed under the
    /// same lock acquisition on failure — so an admission error can never quote a count
    /// that contradicts the denial (pages may have been freed by the time a second read
    /// would run).
    fn try_reserve_or_available(&self, pages: usize) -> Result<(), usize> {
        let mut state = self.state();
        let available = state.free.len() - state.reserved;
        if available < pages {
            return Err(available);
        }
        state.reserved += pages;
        Ok(())
    }

    /// Returns an unused reservation of `pages` pages to the available set.
    ///
    /// # Panics
    ///
    /// Panics if more pages are returned than are currently reserved.
    pub fn unreserve(&self, pages: usize) {
        let mut state = self.state();
        assert!(pages <= state.reserved, "unreserving more pages than reserved");
        state.reserved -= pages;
    }

    /// Converts one reserved page into a checked-out page (see [`PoolState::alloc_reserved`]).
    fn alloc_reserved(&self) -> PageEntry {
        self.state().alloc_reserved()
    }
}

/// Per-worker read state of the paged backend's layer readers: the buffers single-row
/// reads decode into, and counters of what every read decoded.
///
/// Splitting the scratch out of [`PagedKvCache`] (where it used to live) is what lets a
/// decode worker thread carry **one** pair of buffers across however many resident
/// sequences it steps, instead of every cache owning its own; it is plain owned data, so
/// each worker simply constructs its own (`PagedScratch::default()`). Attention decodes
/// in registers, or into the caller's tiles (keys through the key row buffer), and only
/// counts here.
#[derive(Debug, Default)]
pub struct PagedScratch {
    /// Reusable dequant scratch the layer readers decode key rows into.
    key: Vec<f32>,
    /// Reusable dequant scratch the layer readers decode value rows into.
    value: Vec<f32>,
    /// Rows attention decoded: into key/value tiles, or in registers by the fused page
    /// kernels (one page run per call).
    tile_rows: usize,
    /// Rows decoded by single-row reads.
    scratch_rows: usize,
}

impl PagedScratch {
    /// Rows attention decoded since construction, keys and values together, whether into
    /// tiles or in registers by the fused page kernels. A forward decodes each cached
    /// row once per block of query rows that sees it.
    #[must_use]
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Rows decoded by single-row reads ([`KvLayerReader::key_row`] /
    /// [`KvLayerReader::value_row`]) since construction. Zero after any number of
    /// forwards: attention counts only tile rows.
    #[must_use]
    pub fn scratch_rows(&self) -> usize {
        self.scratch_rows
    }
}

/// One sequence's KV cache stored bit-packed in pool pages (see the [module
/// docs](crate::paging)).
///
/// Construction reserves the sequence's worst-case page count
/// (`layers × ⌈capacity_positions / page_positions⌉`) so that appends within the stated
/// capacity can never fail mid-decode; pages are physically allocated lazily as positions
/// are written and returned to the pool when the cache is dropped. The cache is
/// `Send + Sync`: it exclusively owns the buffers of its allocated pages, so decode
/// workers read and write them without touching the pool lock.
#[derive(Debug)]
pub struct PagedKvCache {
    pool: Arc<PagePool>,
    scheme: QuantScheme,
    codec: RowCodec,
    kv_dim: usize,
    row_bytes: usize,
    /// Pages still reserved for each layer but not yet allocated. Tracked per layer so
    /// one layer growing past its own share can never consume a page reserved for —
    /// and still guaranteed to — another layer's in-capacity appends.
    layer_reserved: Vec<usize>,
    /// Per-layer page tables: position `t` lives in `tables[layer][t / page_positions]`.
    tables: Vec<Vec<PageRef>>,
    /// Per-layer appended lengths (layers fill in lock-step during a forward pass).
    lens: Vec<usize>,
    /// Copy-on-write page copies performed (sole-owner in-place reclaims not counted).
    cow_copies: usize,
}

impl PagedKvCache {
    /// Pages a cache of `layers` layers and `positions` positions needs from `pool`.
    #[must_use]
    pub fn pages_needed(pool: &PagePool, layers: usize, positions: usize) -> usize {
        layers * positions.div_ceil(pool.page_positions())
    }

    /// Creates a cache for `layers` layers of width `kv_dim`, reserving pages for up to
    /// `capacity_positions` positions.
    ///
    /// # Errors
    ///
    /// Returns [`PagingError::OutOfPages`] (reserving nothing) if the pool cannot cover
    /// the worst case — the admission-control signal of the continuous-batching
    /// scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the pool's slot size does not match `kv_dim` under the scheme's codec.
    pub fn new(
        pool: &Arc<PagePool>,
        layers: usize,
        kv_dim: usize,
        scheme: QuantScheme,
        capacity_positions: usize,
    ) -> Result<Self, PagingError> {
        let codec = RowCodec::for_scheme(scheme);
        let row_bytes = codec.packed_bytes(kv_dim);
        assert_eq!(2 * row_bytes, pool.slot_bytes(), "pool slot size does not match kv_dim under this scheme");
        // Reserve exactly what `pages_needed` promises the scheduler, so the admission
        // decision and the reservation can never diverge.
        let needed = Self::pages_needed(pool, layers, capacity_positions);
        if let Err(available) = pool.try_reserve_or_available(needed) {
            return Err(PagingError::OutOfPages { needed, available });
        }
        let per_layer = capacity_positions.div_ceil(pool.page_positions());
        Ok(PagedKvCache {
            pool: Arc::clone(pool),
            scheme,
            codec,
            kv_dim,
            row_bytes,
            layer_reserved: vec![per_layer; layers],
            tables: (0..layers).map(|_| Vec::new()).collect(),
            lens: vec![0; layers],
            cow_copies: 0,
        })
    }

    /// Pages a cache of `layers` layers and `positions` positions needs when
    /// `shared_positions` of them are mapped from a donor's sealed pages: only the pages
    /// *past* the fully shared ones must be funded (the partially filled boundary page of
    /// a non-aligned prefix still counts — it is the copy-on-write target of the first
    /// divergent append).
    #[must_use]
    pub fn pages_needed_with_prefix(
        pool: &PagePool,
        layers: usize,
        positions: usize,
        shared_positions: usize,
    ) -> usize {
        let full_shared = shared_positions / pool.page_positions();
        layers * (positions.div_ceil(pool.page_positions()) - full_shared)
    }

    /// Creates a cache whose first [`SharedPrefix::positions`] positions are served from
    /// a donor's sealed pages — no re-prefill, no new pages for the fully shared part.
    /// Reserves pages only for the remainder of `capacity_positions` (including one
    /// copy-on-write page per layer for a non-aligned boundary page), so admission under
    /// prefix sharing is strictly cheaper than a cold admission.
    ///
    /// # Errors
    ///
    /// Returns [`PagingError::OutOfPages`] (reserving nothing, dropping the prefix
    /// handles) if the pool cannot cover the non-shared remainder.
    ///
    /// # Panics
    ///
    /// Panics if the prefix's layer count does not match `layers`, if the pool's slot
    /// size does not match `kv_dim` under the scheme's codec, or if the prefix does not
    /// leave room for at least one new position within `capacity_positions`.
    pub fn with_shared_prefix(
        pool: &Arc<PagePool>,
        layers: usize,
        kv_dim: usize,
        scheme: QuantScheme,
        capacity_positions: usize,
        prefix: SharedPrefix,
    ) -> Result<Self, PagingError> {
        let codec = RowCodec::for_scheme(scheme);
        let row_bytes = codec.packed_bytes(kv_dim);
        assert_eq!(2 * row_bytes, pool.slot_bytes(), "pool slot size does not match kv_dim under this scheme");
        assert_eq!(prefix.pages.len(), layers, "shared prefix layer count mismatch");
        assert!(prefix.positions < capacity_positions, "shared prefix must leave room for new positions");
        let needed = Self::pages_needed_with_prefix(pool, layers, capacity_positions, prefix.positions);
        if let Err(available) = pool.try_reserve_or_available(needed) {
            return Err(PagingError::OutOfPages { needed, available });
        }
        let per_layer = needed / layers;
        Ok(PagedKvCache {
            pool: Arc::clone(pool),
            scheme,
            codec,
            kv_dim,
            row_bytes,
            layer_reserved: vec![per_layer; layers],
            tables: prefix.pages,
            lens: vec![prefix.positions; layers],
            cow_copies: 0,
        })
    }

    /// The quantization scheme rows are packed with.
    #[must_use]
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Key/value width.
    #[must_use]
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    /// Number of layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.tables.len()
    }

    /// Sequence length currently cached (same for every layer).
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.lens.first().copied().unwrap_or(0)
    }

    /// Pages this cache has physically allocated.
    #[must_use]
    pub fn allocated_pages(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// Measured resident footprint: allocated pages times the page size (page-granular,
    /// so it includes the slack of partially filled trailing pages).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.allocated_pages() * self.pool.page_bytes()
    }

    /// Exact packed bytes of the rows written so far (no page slack).
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.lens.iter().map(|len| 2 * len * self.row_bytes).sum()
    }

    /// Page-table entries currently mapped to sealed shared pages.
    #[must_use]
    pub fn shared_pages(&self) -> usize {
        self.tables.iter().flatten().filter(|p| p.is_shared()).count()
    }

    /// Page-table entries exclusively owned (allocated or reclaimed/copied by this cache).
    #[must_use]
    pub fn owned_pages(&self) -> usize {
        self.allocated_pages() - self.shared_pages()
    }

    /// Copy-on-write page *copies* this cache has performed (sole-owner in-place
    /// reclaims, which copy nothing, are not counted).
    #[must_use]
    pub fn cow_copies(&self) -> usize {
        self.cow_copies
    }

    /// Pages guaranteed to become available if this cache is released right now:
    /// exclusively owned pages plus unused reservations. Shared pages are excluded —
    /// they only return to the pool if this cache holds the last reference — so the
    /// number is a lower bound the preemption planner can rely on.
    #[must_use]
    pub fn reclaimable_pages(&self) -> usize {
        self.owned_pages() + self.layer_reserved.iter().sum::<usize>()
    }

    /// Allocates one page, funding it from this layer's reservation or — past the
    /// construction capacity — from the pool's free headroom.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted beyond this cache's reservation (allocations
    /// within the construction capacity never hit this).
    fn alloc_page(&mut self, layer: usize) -> PageEntry {
        // A layer growing past its own reserved share must fund the page from the
        // pool's free headroom — never from another layer's reservation, so appends
        // within the construction capacity stay infallible in any layer order.
        if self.layer_reserved[layer] == 0 {
            assert!(self.pool.try_reserve(1), "page pool exhausted: cache grew past its reservation");
            self.layer_reserved[layer] += 1;
        }
        let entry = self.pool.alloc_reserved();
        self.layer_reserved[layer] -= 1;
        entry
    }

    /// Removes the page at `page_idx` from `layer`'s table in O(1), leaving the other
    /// entries displaced until the matching [`PagedKvCache::put_page`].
    fn take_page(&mut self, layer: usize, page_idx: usize) -> PageRef {
        // `swap` has already bounds-checked `page_idx`, so the table cannot be empty.
        let last = self.tables[layer].len() - 1;
        self.tables[layer].swap(page_idx, last);
        let Some(page) = self.tables[layer].pop() else { unreachable!("page index out of range") };
        page
    }

    /// Reinserts a page taken with [`PagedKvCache::take_page`] at its original index.
    fn put_page(&mut self, layer: usize, page_idx: usize, page: PageRef) {
        let last = self.tables[layer].len();
        self.tables[layer].push(page);
        self.tables[layer].swap(page_idx, last);
    }

    /// Seals `layer`'s page at `page_idx` into the refcounted shared state (idempotent)
    /// and returns a handle to it.
    fn seal_page(&mut self, layer: usize, page_idx: usize) -> Arc<SharedPage> {
        if let PageRef::Shared(arc) = &self.tables[layer][page_idx] {
            return Arc::clone(arc);
        }
        let PageRef::Owned(entry) = self.take_page(layer, page_idx) else { unreachable!("checked Owned above") };
        let arc = Arc::new(SharedPage { pool: Arc::clone(&self.pool), entry: Some(entry) });
        self.put_page(layer, page_idx, PageRef::Shared(Arc::clone(&arc)));
        arc
    }

    /// Copy-on-write: guarantees `layer`'s page at `page_idx` is exclusively owned
    /// before a write. If this cache holds the last reference the page is reclaimed in
    /// place (the donor retired — no copy); otherwise a fresh page is allocated and the
    /// shared bytes are copied, leaving every other holder's view untouched.
    fn ensure_writable(&mut self, layer: usize, page_idx: usize) {
        if !self.tables[layer][page_idx].is_shared() {
            return;
        }
        let PageRef::Shared(arc) = self.take_page(layer, page_idx) else { unreachable!("checked Shared above") };
        let entry = match Arc::try_unwrap(arc) {
            // Sole owner: take the page back exclusively; the pool accounting is
            // untouched (the page stays checked out, now to this cache alone). The
            // entry is present for the same invariant `SharedPage::buf` relies on.
            Ok(mut sole) => match sole.entry.take() {
                Some(entry) => entry,
                None => unreachable!("shared page already reclaimed"),
            },
            Err(arc) => {
                let mut entry = self.alloc_page(layer);
                entry.buf.copy_from_slice(arc.buf());
                self.cow_copies += 1;
                entry
            }
        };
        self.put_page(layer, page_idx, PageRef::Owned(entry));
    }

    /// Seals the pages covering this cache's first `positions` positions and returns
    /// refcounted handles to them, so a new sequence with the same prompt prefix can map
    /// them instead of re-prefilling. Full pages are sealed for free; a partially filled
    /// boundary page is sealed only if the pool can also fund this cache's own future
    /// copy-on-write of it (one page per still-appending layer) — otherwise the prefix
    /// is truncated to whole pages, keeping in-capacity appends infallible.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is 0 or exceeds the cached sequence length.
    pub fn share_prefix(&mut self, positions: usize) -> SharedPrefix {
        assert!(positions > 0, "cannot share an empty prefix");
        assert!(positions <= self.seq_len(), "cannot share positions that are not cached yet");
        let pp = self.pool.page_positions();
        let full = positions / pp;
        let mut positions = positions;
        let mut take = full;
        if !positions.is_multiple_of(pp) {
            // Sealing the partially filled boundary page makes this cache's own next
            // append into it a copy-on-write; reserve that headroom now (per layer that
            // will still write the page) so the write can never fail mid-decode.
            let headroom = (0..self.tables.len())
                .filter(|&l| self.lens[l] < (full + 1) * pp && !self.tables[l][full].is_shared())
                .count();
            if self.pool.try_reserve(headroom) {
                for l in 0..self.tables.len() {
                    if self.lens[l] < (full + 1) * pp && !self.tables[l][full].is_shared() {
                        self.layer_reserved[l] += 1;
                    }
                }
                take = full + 1;
            } else {
                positions = full * pp;
            }
        }
        let pages = (0..self.tables.len())
            .map(|layer| (0..take).map(|idx| PageRef::Shared(self.seal_page(layer, idx))).collect())
            .collect();
        SharedPrefix { pages, positions }
    }

    /// Copies every page's packed bytes into a host-side [`SpilledKv`] buffer *without*
    /// releasing anything — the cache keeps running exactly as before. This is the
    /// fault-tolerance checkpoint primitive: the coordinator snapshots retryable
    /// sequences every K passes, and a sequence lost to a worker panic is rebuilt
    /// bit-identically from its last snapshot with [`PagedKvCache::restore`].
    #[must_use]
    pub fn checkpoint(&self) -> SpilledKv {
        SpilledKv {
            scheme: self.scheme,
            kv_dim: self.kv_dim,
            lens: self.lens.clone(),
            pages: self
                .tables
                .iter()
                .map(|table| table.iter().map(|page| page.buf().to_vec().into_boxed_slice()).collect())
                .collect(),
        }
    }

    /// Swaps this cache out of the pool: copies every page's packed bytes into a
    /// host-side [`SpilledKv`] buffer and releases all pages and reservations — the
    /// preemption primitive. The sequence's cache can later be rebuilt bit-identically
    /// with [`PagedKvCache::restore`].
    pub fn spill(&mut self) -> SpilledKv {
        let spilled = self.checkpoint();
        self.release();
        spilled
    }

    /// Re-admits a spilled cache: reserves the full `capacity_positions` worst case
    /// (exactly like a cold admission), copies the spilled page bytes back into freshly
    /// allocated pages and restores the appended lengths. The restored cache is
    /// bit-identical to the spilled one.
    ///
    /// # Errors
    ///
    /// Returns [`PagingError::OutOfPages`] (reserving nothing) if the pool cannot cover
    /// the worst case — the re-admission waits like any other.
    ///
    /// # Panics
    ///
    /// Panics if the spill's layer count, width or scheme disagree with the arguments,
    /// or if the spilled positions exceed `capacity_positions`.
    pub fn restore(
        pool: &Arc<PagePool>,
        layers: usize,
        kv_dim: usize,
        scheme: QuantScheme,
        capacity_positions: usize,
        spilled: &SpilledKv,
    ) -> Result<Self, PagingError> {
        assert_eq!(spilled.pages.len(), layers, "spilled layer count mismatch");
        assert_eq!(spilled.kv_dim, kv_dim, "spilled width mismatch");
        assert_eq!(spilled.scheme, scheme, "spilled scheme mismatch");
        assert!(spilled.positions() <= capacity_positions, "spilled positions exceed the restore capacity");
        let mut cache = Self::new(pool, layers, kv_dim, scheme, capacity_positions)?;
        for (layer, bufs) in spilled.pages.iter().enumerate() {
            for buf in bufs {
                let mut entry = cache.alloc_page(layer);
                entry.buf.copy_from_slice(buf);
                cache.tables[layer].push(PageRef::Owned(entry));
            }
        }
        cache.lens.copy_from_slice(&spilled.lens);
        Ok(cache)
    }

    /// Appends one position's key and value rows to `layer`, quantized with the cache's
    /// scheme and packed straight into the slot. Only a page-boundary crossing (or a
    /// copy-on-write of a shared boundary page) touches the pool lock; the pack itself
    /// writes a buffer this cache exclusively owns.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not have width `kv_dim`, or if a new page is needed and the
    /// pool is exhausted beyond this cache's reservation (appends within the construction
    /// capacity never hit this).
    pub fn append(&mut self, layer: usize, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.kv_dim, "key width mismatch");
        assert_eq!(value.len(), self.kv_dim, "value width mismatch");
        let t = self.lens[layer];
        let pp = self.pool.page_positions();
        let page_idx = t / pp;
        if page_idx == self.tables[layer].len() {
            let entry = self.alloc_page(layer);
            self.tables[layer].push(PageRef::Owned(entry));
        } else {
            // Writing into a shared boundary page (a mapped prefix that ends mid-page):
            // copy-on-write first, so the donor and every other holder keep their view.
            self.ensure_writable(layer, page_idx);
        }
        let slot_bytes = 2 * self.row_bytes;
        let PageRef::Owned(entry) = &mut self.tables[layer][page_idx] else {
            unreachable!("append target page must be exclusively owned after ensure_writable")
        };
        let slot = &mut entry.buf[(t % pp) * slot_bytes..(t % pp + 1) * slot_bytes];
        let (key_slot, value_slot) = slot.split_at_mut(self.row_bytes);
        self.codec.pack_row_into(key, key_slot);
        self.codec.pack_row_into(value, value_slot);
        self.lens[layer] = t + 1;
    }

    /// Returns every owned page, every shared-page reference and any unused reservation
    /// to the pool, emptying the cache. Also invoked by `Drop`, which is how a retiring
    /// sequence funds the admission of queued ones. Owned pages and reservations are
    /// returned under one pool-lock acquisition; shared pages only return to the pool if
    /// this cache held the last reference (each such final drop re-locks briefly).
    pub fn release(&mut self) {
        let mut shared: Vec<Arc<SharedPage>> = Vec::new();
        {
            let mut state = self.pool.state();
            for table in &mut self.tables {
                for page in table.drain(..) {
                    match page {
                        PageRef::Owned(entry) => state.free_page(entry),
                        // Defer: SharedPage::drop takes the pool lock itself.
                        PageRef::Shared(arc) => shared.push(arc),
                    }
                }
            }
            let leftover: usize = self.layer_reserved.iter().sum();
            assert!(leftover <= state.reserved, "unreserving more pages than reserved");
            state.reserved -= leftover;
        }
        drop(shared);
        self.layer_reserved.fill(0);
        self.lens.fill(0);
    }
}

impl Drop for PagedKvCache {
    fn drop(&mut self) {
        self.release();
    }
}

/// Debug-build sanitizer over the pool *and* every live cache. Beyond
/// [`PagePool::audit`], reconciles the caches' page tables against the pool's
/// accounting: each table is sized exactly for its appended rows, no page is
/// exclusively owned by two tables (or mapped both exclusively and shared), every
/// shared mapping still holds its buffer, and the distinct pages reachable from the
/// caches account for **every** checked-out page — no leak, no double free.
///
/// `caches` must enumerate every holder of the pool's pages, and the pool must be
/// quiescent for the duration of the call (the serving engine audits between scheduler
/// passes, the churn proptest after every operation). Compiles to a no-op in release.
///
/// # Panics
///
/// Panics (debug builds only) if any invariant is violated.
pub fn audit_caches<'a, I>(pool: &PagePool, caches: I)
where
    I: IntoIterator<Item = &'a PagedKvCache>,
{
    if !cfg!(debug_assertions) {
        return;
    }
    pool.audit();
    let mut owned = std::collections::HashSet::new();
    let mut shared = std::collections::HashSet::new();
    for cache in caches {
        let pp = pool.page_positions();
        for (layer, table) in cache.tables.iter().enumerate() {
            assert_eq!(
                table.len(),
                cache.lens[layer].div_ceil(pp),
                "layer {layer} page table size disagrees with its appended length"
            );
            for page in table {
                match page {
                    PageRef::Owned(entry) => {
                        assert!(owned.insert(entry.id), "page {} exclusively owned by two tables", entry.id);
                    }
                    PageRef::Shared(_) => {
                        shared.insert(page.id());
                    }
                }
            }
        }
    }
    for id in &shared {
        assert!(!owned.contains(id), "page {id} is mapped both exclusively and shared");
    }
    assert_eq!(
        owned.len() + shared.len(),
        pool.in_use_pages(),
        "checked-out pages not accounted for by any live cache (leak or double free)"
    );
}

/// Per-layer reader of a [`PagedKvCache`]: resolves positions through the page table and
/// reads packed slots — single rows into the worker's [`PagedScratch`] buffers, and
/// attention's q·k and probs×V one fused page-kernel call per page run. Never touches
/// the pool lock — the pages it reads are exclusively owned by the cache it borrows, or
/// sealed.
#[derive(Debug)]
pub struct PagedLayerReader<'a> {
    pages: LayerPages<'a>,
    scratch: &'a mut PagedScratch,
}

/// One layer's page table and slot geometry: where each position's packed key and value
/// rows live. Works identically on owned and shared pages — reads never care who else
/// holds a page.
#[derive(Debug, Clone, Copy)]
struct LayerPages<'a> {
    table: &'a [PageRef],
    codec: RowCodec,
    kv_dim: usize,
    row_bytes: usize,
    page_positions: usize,
    len: usize,
}

impl<'a> LayerPages<'a> {
    /// The packed key row (or value row, `values == true`) of position `t`.
    fn row(self, t: usize, values: bool) -> &'a [u8] {
        assert!(t < self.len, "position out of bounds");
        let start = (t % self.page_positions) * 2 * self.row_bytes + if values { self.row_bytes } else { 0 };
        &self.table[t / self.page_positions].buf()[start..start + self.row_bytes]
    }

    /// Calls `decode(run, j)` for each run of positions `t0..t0 + n` that lies in one
    /// page, in ascending order: `run` holds the run's packed key rows (or value rows,
    /// `values == true`) at the page's slot stride, and `j` is its first position's offset
    /// from `t0`.
    fn page_runs(self, t0: usize, n: usize, values: bool, mut decode: impl FnMut(PackedRows<'_>, usize)) {
        assert!(t0 + n <= self.len, "position out of bounds");
        let slot_bytes = 2 * self.row_bytes;
        let mut t = t0;
        while t < t0 + n {
            let slot = t % self.page_positions;
            let rows = (self.page_positions - slot).min(t0 + n - t);
            let start = slot * slot_bytes + if values { self.row_bytes } else { 0 };
            let bytes = &self.table[t / self.page_positions].buf()[start..];
            decode(PackedRows { bytes, stride: slot_bytes, rows, len: self.kv_dim }, t - t0);
            t += rows;
        }
    }
}

impl KvLayerReader for PagedLayerReader<'_> {
    fn key_row(&mut self, t: usize) -> &[f32] {
        // Decode through the scratch buffer: one row lives at a time, nothing larger than
        // kv_dim is ever materialized.
        self.pages.codec.unpack_row_into(self.pages.row(t, false), &mut self.scratch.key);
        self.scratch.scratch_rows += 1;
        &self.scratch.key
    }

    fn value_row(&mut self, t: usize) -> &[f32] {
        self.pages.codec.unpack_row_into(self.pages.row(t, true), &mut self.scratch.value);
        self.scratch.scratch_rows += 1;
        &self.scratch.value
    }

    /// One fused [`RowCodec::key_dots`] call per page run. A run the kernel declines
    /// decodes row by row through the scratch key row into `tile` and folds it as the
    /// provided body does.
    fn key_dots(&mut self, t0: usize, n: usize, q: &[f32], geom: AttnGeometry, tile: &mut [f32], dots: &mut [f32]) {
        assert!(n <= TILE_POSITIONS, "a key tile holds at most TILE_POSITIONS positions");
        let pages = self.pages;
        let key = &mut self.scratch.key;
        pages.page_runs(t0, n, false, |run, j| {
            if !pages.codec.key_dots(run, geom, q, &mut dots[j..], TILE_POSITIONS) {
                for r in 0..run.rows {
                    pages.codec.unpack_row_into(pages.row(t0 + j + r, false), key);
                    set_key_lane(tile, r, key);
                }
                fold_key_tile(q, geom, tile, run.rows, &mut dots[j..]);
            }
        });
        self.scratch.tile_rows += n;
    }

    /// One fused [`RowCodec::value_accumulate`] call per page run. A run the kernel
    /// declines decodes straight into `tile`, row-major, and accumulates as the provided
    /// body does.
    fn value_accumulate(
        &mut self,
        t0: usize,
        n: usize,
        probs: &[f32],
        geom: AttnGeometry,
        tile: &mut [f32],
        out: &mut [f32],
    ) {
        let pages = self.pages;
        pages.page_runs(t0, n, true, |run, j| {
            if !pages.codec.value_accumulate(run, geom, &probs[j..], TILE_POSITIONS, out) {
                let rows = &mut tile[..run.rows * pages.kv_dim];
                for (r, row) in rows.chunks_exact_mut(pages.kv_dim).enumerate() {
                    pages.codec.unpack_row_into(pages.row(t0 + j + r, true), row);
                }
                accumulate_value_tile(&probs[j..], geom, rows, run.rows, out);
            }
        });
        self.scratch.tile_rows += n;
    }
}

impl KvBackend for PagedKvCache {
    type Layer<'a> = PagedLayerReader<'a>;
    type Scratch = PagedScratch;

    fn num_layers(&self) -> usize {
        PagedKvCache::num_layers(self)
    }

    fn seq_len(&self) -> usize {
        PagedKvCache::seq_len(self)
    }

    fn append(&mut self, layer: usize, key: &[f32], value: &[f32], scheme: QuantScheme) {
        assert_eq!(scheme, self.scheme, "append scheme does not match the packed storage scheme");
        PagedKvCache::append(self, layer, key, value);
    }

    fn layer_reader<'a>(&'a mut self, layer: usize, scratch: &'a mut PagedScratch) -> PagedLayerReader<'a> {
        scratch.key.resize(self.kv_dim, 0.0);
        scratch.value.resize(self.kv_dim, 0.0);
        PagedLayerReader {
            pages: LayerPages {
                table: &self.tables[layer],
                codec: self.codec,
                kv_dim: self.kv_dim,
                row_bytes: self.row_bytes,
                page_positions: self.pool.page_positions(),
                len: self.lens[layer],
            },
            scratch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvcache::LayerKvCache;

    fn sample_row(kv_dim: usize, salt: usize) -> Vec<f32> {
        (0..kv_dim)
            .map(|i| {
                let u = (((i + salt) * 2_654_435_761) % 2001) as f32 / 1000.0 - 1.0;
                if (i + salt) % 37 == 5 {
                    u * 30.0
                } else {
                    u
                }
            })
            .collect()
    }

    fn pool_64(scheme: QuantScheme) -> Arc<PagePool> {
        PagePool::for_kv_rows(16, 4, RowCodec::for_scheme(scheme), 64).shared()
    }

    fn read_layer(cache: &mut PagedKvCache, layer: usize, t: usize) -> (Vec<f32>, Vec<f32>) {
        let mut scratch = PagedScratch::default();
        let mut reader = cache.layer_reader(layer, &mut scratch);
        (reader.key_row(t).to_vec(), reader.value_row(t).to_vec())
    }

    /// The sanitizers must hold through a full share → copy-on-write → spill → restore
    /// lifecycle (they run after every churn-proptest step too; this pins the happy
    /// path deterministically).
    #[test]
    fn audit_passes_through_share_cow_spill_lifecycle() {
        let scheme = QuantScheme::mxfp4();
        let pool = pool_64(scheme);
        audit_caches(&pool, std::iter::empty());
        let mut donor = PagedKvCache::new(&pool, 2, 64, scheme, 8).unwrap();
        for t in 0..6 {
            for layer in 0..2 {
                donor.append(layer, &sample_row(64, t), &sample_row(64, t + 100));
            }
        }
        audit_caches(&pool, [&donor]);
        let prefix = donor.share_prefix(6);
        let mut recipient = PagedKvCache::with_shared_prefix(&pool, 2, 64, scheme, 8, prefix).unwrap();
        audit_caches(&pool, [&donor, &recipient]);
        // Diverge: the recipient's append into the shared boundary page copy-on-writes.
        for layer in 0..2 {
            recipient.append(layer, &sample_row(64, 42), &sample_row(64, 142));
        }
        audit_caches(&pool, [&donor, &recipient]);
        let spilled = donor.spill();
        audit_caches(&pool, [&donor, &recipient]);
        let restored = PagedKvCache::restore(&pool, 2, 64, scheme, 8, &spilled).unwrap();
        audit_caches(&pool, [&donor, &restored, &recipient]);
        drop(restored);
        drop(recipient);
        audit_caches(&pool, [&donor]);
        pool.audit();
    }

    /// A page checked out but reachable from no cache is a leak; the cache-level
    /// sanitizer must catch it. (Debug builds only: the audit is a release no-op.)
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not accounted for by any live cache")]
    fn audit_catches_leaked_pages() {
        let pool = pool_64(QuantScheme::mxfp4());
        assert!(pool.try_reserve(1));
        let entry = pool.alloc_reserved();
        audit_caches(&pool, std::iter::empty());
        drop(entry);
    }

    #[test]
    fn pool_accounting_starts_empty() {
        let pool = PagePool::for_kv_rows(8, 16, RowCodec::for_scheme(QuantScheme::mxfp4()), 64);
        assert_eq!(pool.total_pages(), 8);
        assert_eq!(pool.free_pages(), 8);
        assert_eq!(pool.available_pages(), 8);
        assert_eq!(pool.in_use_pages(), 0);
        assert_eq!(pool.resident_bytes(), 0);
        // MXFP4 row of 64 elements packs to 34 bytes; a slot holds K + V.
        assert_eq!(pool.slot_bytes(), 68);
        assert_eq!(pool.page_bytes(), 16 * 68);
    }

    #[test]
    fn reservation_gates_admission() {
        let pool = pool_64(QuantScheme::mxfp4());
        // 16 pages of 4 positions, 2 layers: a 20-position cache needs 2 * 5 = 10 pages.
        let a = PagedKvCache::new(&pool, 2, 64, QuantScheme::mxfp4(), 20).unwrap();
        assert_eq!(pool.reserved_pages(), 10);
        assert_eq!(pool.available_pages(), 6);
        // A second identical cache cannot be admitted...
        let denied = PagedKvCache::new(&pool, 2, 64, QuantScheme::mxfp4(), 20);
        assert_eq!(denied.err(), Some(PagingError::OutOfPages { needed: 10, available: 6 }));
        // ...and the failed attempt reserved nothing.
        assert_eq!(pool.reserved_pages(), 10);
        drop(a);
        assert_eq!(pool.reserved_pages(), 0);
        assert_eq!(pool.available_pages(), 16);
    }

    #[test]
    fn appends_allocate_lazily_and_reads_round_trip() {
        let scheme = QuantScheme::mxfp4_plus();
        let pool = pool_64(scheme);
        let mut cache = PagedKvCache::new(&pool, 2, 64, scheme, 8).unwrap();
        assert_eq!(cache.allocated_pages(), 0);
        for t in 0..8 {
            for layer in 0..2 {
                cache.append(layer, &sample_row(64, t), &sample_row(64, t + 100));
            }
        }
        assert_eq!(cache.seq_len(), 8);
        // 8 positions at 4 per page: 2 pages per layer, all of the reservation used.
        assert_eq!(cache.allocated_pages(), 4);
        assert_eq!(pool.reserved_pages(), 0);
        assert_eq!(pool.resident_bytes(), cache.resident_bytes());
        // Reads decode to exactly the scheme's fake quantization (what the f32 cache
        // would have stored).
        for t in 0..8 {
            let (k, v) = read_layer(&mut cache, 1, t);
            assert_eq!(k, scheme.quantize_dequantize(&sample_row(64, t)));
            assert_eq!(v, scheme.quantize_dequantize(&sample_row(64, t + 100)));
        }
    }

    #[test]
    fn paged_rows_match_the_f32_backend_bit_for_bit() {
        let scheme = QuantScheme::mxfp4();
        let pool = pool_64(scheme);
        let mut paged = PagedKvCache::new(&pool, 1, 64, scheme, 6).unwrap();
        let mut f32cache = LayerKvCache::new(64);
        for t in 0..6 {
            let (k, v) = (sample_row(64, t * 3), sample_row(64, t * 7 + 1));
            paged.append(0, &k, &v);
            f32cache.append(&k, &v, scheme);
        }
        for t in 0..6 {
            let (k, v) = read_layer(&mut paged, 0, t);
            assert_eq!(k, f32cache.key_row(t), "key row {t}");
            assert_eq!(v, f32cache.value_row(t), "value row {t}");
        }
    }

    #[test]
    fn packed_resident_bytes_undercut_f32_by_the_scheme_ratio() {
        let scheme = QuantScheme::mxfp4();
        let pool = PagePool::for_kv_rows(64, 16, RowCodec::for_scheme(scheme), 64).shared();
        let mut cache = PagedKvCache::new(&pool, 2, 64, scheme, 64).unwrap();
        for t in 0..64 {
            for layer in 0..2 {
                cache.append(layer, &sample_row(64, t), &sample_row(64, t + 9));
            }
        }
        // f32 storage of the same rows: 2 layers * 64 positions * 2 rows * 64 * 4 bytes.
        let f32_bytes = 2 * 64 * 2 * 64 * 4;
        assert!(
            cache.resident_bytes() * 4 <= f32_bytes,
            "packed pages must be >=4x below f32: {} vs {f32_bytes}",
            cache.resident_bytes()
        );
        assert_eq!(cache.packed_bytes(), 2 * 64 * 2 * 34);
    }

    #[test]
    fn release_returns_everything_and_is_idempotent() {
        let pool = pool_64(QuantScheme::mxfp4());
        let mut cache = PagedKvCache::new(&pool, 2, 64, QuantScheme::mxfp4(), 10).unwrap();
        for layer in 0..2 {
            cache.append(layer, &[0.5; 64], &[0.25; 64]);
        }
        assert!(pool.in_use_pages() > 0);
        cache.release();
        assert_eq!(cache.seq_len(), 0);
        assert_eq!(pool.in_use_pages(), 0);
        assert_eq!(pool.reserved_pages(), 0);
        cache.release(); // nothing left to free, nothing to double-free
        drop(cache); // Drop after release is also a no-op
        assert_eq!(pool.free_pages(), 16);
    }

    #[test]
    fn admit_evict_churn_never_leaks_or_double_frees() {
        // Deterministic admit/evict churn: a few live caches of pseudo-random sizes are
        // created and dropped out of order against a small pool; the page accounting must
        // balance after every step and drain to empty at the end.
        let scheme = QuantScheme::mxfp4_plus();
        let pool = PagePool::for_kv_rows(24, 4, RowCodec::for_scheme(scheme), 64).shared();
        let mut live: Vec<PagedKvCache> = Vec::new();
        let mut admitted = 0usize;
        for step in 0..200usize {
            let positions = 1 + (step * 2_654_435_761) % 12;
            match PagedKvCache::new(&pool, 2, 64, scheme, positions) {
                Ok(mut cache) => {
                    let fill = positions - (step % 2); // sometimes underfill the reservation
                    for t in 0..fill {
                        for layer in 0..2 {
                            cache.append(layer, &sample_row(64, t + step), &sample_row(64, t + step + 7));
                        }
                    }
                    live.push(cache);
                    admitted += 1;
                }
                Err(PagingError::OutOfPages { .. }) => {
                    // Evict the oldest live cache and retry once; its pages must fund us.
                    assert!(!live.is_empty(), "empty pool denied a reservation");
                    live.remove(0);
                }
            }
            if step % 7 == 3 && !live.is_empty() {
                live.remove(live.len() / 2);
            }
            let held: usize = live.iter().map(PagedKvCache::allocated_pages).sum();
            assert_eq!(pool.in_use_pages(), held, "step {step}: pages in use must equal pages held by live caches");
            assert!(pool.free_pages() + held == pool.total_pages(), "step {step}: leak detected");
        }
        assert!(admitted > 50, "churn must actually admit sequences");
        live.clear();
        assert_eq!(pool.free_pages(), pool.total_pages());
        assert_eq!(pool.reserved_pages(), 0);
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    fn concurrent_churn_from_many_threads_balances_the_accounting() {
        // The same leak/double-free invariant under real contention: 4 threads hammer one
        // shared pool with admit/fill/drop churn. Ownership moves page buffers across
        // threads; the lock only guards the free list. The pool must drain to empty.
        let scheme = QuantScheme::mxfp4();
        let pool = PagePool::for_kv_rows(32, 4, RowCodec::for_scheme(scheme), 64).shared();
        std::thread::scope(|s| {
            for worker in 0..4usize {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for step in 0..100usize {
                        let positions = 1 + (step * 7 + worker * 13) % 8;
                        if let Ok(mut cache) = PagedKvCache::new(&pool, 2, 64, scheme, positions) {
                            for t in 0..positions {
                                for layer in 0..2 {
                                    cache.append(layer, &sample_row(64, t + step), &sample_row(64, t + worker));
                                }
                            }
                            // Reads see exactly this cache's rows despite neighbours churning.
                            let (k, _) = {
                                let mut scratch = PagedScratch::default();
                                let mut reader = cache.layer_reader(1, &mut scratch);
                                (reader.key_row(positions - 1).to_vec(), ())
                            };
                            assert_eq!(k, scheme.quantize_dequantize(&sample_row(64, positions - 1 + step)));
                        }
                    }
                });
            }
        });
        assert_eq!(pool.free_pages(), pool.total_pages());
        assert_eq!(pool.reserved_pages(), 0);
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn pool_rejects_double_free() {
        let pool = PagePool::new(2, 4, 8);
        assert!(pool.try_reserve(1));
        let entry = pool.alloc_reserved();
        // Forge a second entry for the same page id: ownership makes an accidental double
        // free impossible from safe client code, so the accounting check is exercised
        // directly.
        let forged = PageEntry { id: entry.id, buf: vec![0u8; pool.page_bytes()].into_boxed_slice() };
        let mut state = pool.state();
        state.free_page(entry);
        state.free_page(forged);
    }

    #[test]
    #[should_panic(expected = "allocating without a reservation")]
    fn pool_rejects_unreserved_allocation() {
        let pool = PagePool::new(2, 4, 8);
        let _ = pool.alloc_reserved();
    }

    #[test]
    #[should_panic(expected = "cache grew past its reservation")]
    fn growth_cannot_steal_another_layers_reservation() {
        // 2-page pool, fully reserved as one page per layer (capacity 4 at 4 positions
        // per page). Layer 0 growing to a 5th position must fail *at the growth append*:
        // funding it from layer 1's reserved page would instead move the panic onto
        // layer 1's first in-capacity append, breaking the documented guarantee.
        let scheme = QuantScheme::mxfp4();
        let pool = PagePool::for_kv_rows(2, 4, RowCodec::for_scheme(scheme), 64).shared();
        let mut cache = PagedKvCache::new(&pool, 2, 64, scheme, 4).unwrap();
        for t in 0..4 {
            cache.append(0, &sample_row(64, t), &sample_row(64, t));
        }
        cache.append(0, &sample_row(64, 4), &sample_row(64, 4));
    }

    #[test]
    fn uneven_layer_append_order_within_capacity_never_panics() {
        // The in-capacity guarantee must hold in any append order: fill layer 0 to its
        // full capacity before layer 1 sees a single row, against a pool with zero
        // spare pages beyond the reservation.
        let scheme = QuantScheme::mxfp4();
        let pool = PagePool::for_kv_rows(4, 4, RowCodec::for_scheme(scheme), 64).shared();
        let mut cache = PagedKvCache::new(&pool, 2, 64, scheme, 8).unwrap();
        assert_eq!(pool.available_pages(), 0);
        for t in 0..8 {
            cache.append(0, &sample_row(64, t), &sample_row(64, t));
        }
        for t in 0..8 {
            cache.append(1, &sample_row(64, t), &sample_row(64, t));
        }
        assert_eq!(cache.allocated_pages(), 4);
        drop(cache);
        assert_eq!(pool.free_pages(), 4);
    }

    #[test]
    fn shared_prefix_maps_pages_without_new_allocations() {
        let scheme = QuantScheme::mxfp4();
        let pool = pool_64(scheme); // 16 pages of 4 positions
        let mut donor = PagedKvCache::new(&pool, 2, 64, scheme, 8).unwrap();
        for t in 0..8 {
            for layer in 0..2 {
                donor.append(layer, &sample_row(64, t), &sample_row(64, t + 50));
            }
        }
        assert_eq!(pool.in_use_pages(), 4);
        // Page-aligned prefix: 8 positions = 2 full pages per layer, no headroom needed.
        let prefix = donor.share_prefix(8);
        assert_eq!(prefix.positions(), 8);
        assert_eq!(prefix.pages_per_layer(), 2);
        assert_eq!(prefix.total_pages(), 4);
        assert_eq!(pool.reserved_pages(), 0, "aligned sealing reserves nothing");
        // The recipient maps the 4 shared pages and reserves only its remainder:
        // 2 layers * (ceil(12/4) - 2) = 2 pages.
        let mut recipient = PagedKvCache::with_shared_prefix(&pool, 2, 64, scheme, 12, prefix).unwrap();
        assert_eq!(pool.reserved_pages(), 2);
        assert_eq!(pool.in_use_pages(), 4, "sharing allocates no new pages");
        assert_eq!(recipient.seq_len(), 8);
        assert_eq!(recipient.shared_pages(), 4);
        assert_eq!(recipient.owned_pages(), 0);
        // Shared reads decode the donor's rows bit for bit.
        for t in 0..8 {
            let (k, v) = read_layer(&mut recipient, 1, t);
            assert_eq!(k, scheme.quantize_dequantize(&sample_row(64, t)));
            assert_eq!(v, scheme.quantize_dequantize(&sample_row(64, t + 50)));
        }
        // Divergent appends land in fresh exclusive pages past the shared prefix.
        for t in 8..12 {
            for layer in 0..2 {
                recipient.append(layer, &sample_row(64, t + 900), &sample_row(64, t + 950));
            }
        }
        assert_eq!(recipient.cow_copies(), 0, "aligned prefixes never copy-on-write");
        assert_eq!(pool.in_use_pages(), 6);
        drop(recipient);
        assert_eq!(pool.in_use_pages(), 4, "shared pages stay resident for the donor");
        drop(donor);
        assert_eq!(pool.free_pages(), 16);
        assert_eq!(pool.reserved_pages(), 0);
    }

    #[test]
    fn copy_on_write_preserves_every_holders_view() {
        let scheme = QuantScheme::mxfp4();
        let pool = pool_64(scheme);
        let mut donor = PagedKvCache::new(&pool, 1, 64, scheme, 8).unwrap();
        for t in 0..6 {
            donor.append(0, &sample_row(64, t), &sample_row(64, t + 50));
        }
        // Non-aligned prefix: 1 full page + the partial boundary page (positions 4, 5),
        // sealing which books one COW-headroom page for the still-appending donor.
        let prefix = donor.share_prefix(6);
        assert_eq!(prefix.positions(), 6);
        assert_eq!(prefix.pages_per_layer(), 2);
        assert_eq!(pool.reserved_pages(), 1, "donor books COW headroom for its sealed boundary page");
        let mut recipient = PagedKvCache::with_shared_prefix(&pool, 1, 64, scheme, 10, prefix).unwrap();
        assert_eq!(pool.in_use_pages(), 2);
        // The recipient's first divergent append writes into the shared boundary page:
        // copy-on-write (the donor still holds it).
        recipient.append(0, &sample_row(64, 700), &sample_row(64, 701));
        assert_eq!(recipient.cow_copies(), 1);
        assert_eq!(pool.in_use_pages(), 3);
        // The donor's view of positions 4..6 is untouched by the recipient's write...
        for t in 4..6 {
            let (k, _) = read_layer(&mut donor, 0, t);
            assert_eq!(k, scheme.quantize_dequantize(&sample_row(64, t)), "donor position {t} corrupted");
        }
        // ...and the donor's own next append also copy-on-writes (the recipient's copy
        // dropped the shared handle, so the donor reclaims the page in place, no copy).
        donor.append(0, &sample_row(64, 800), &sample_row(64, 801));
        assert_eq!(donor.cow_copies(), 0, "sole owner reclaims in place without copying");
        assert_eq!(pool.in_use_pages(), 3);
        // Both caches see their own divergent position 6 and the common prefix.
        let (dk, _) = read_layer(&mut donor, 0, 6);
        assert_eq!(dk, scheme.quantize_dequantize(&sample_row(64, 800)));
        let (rk, _) = read_layer(&mut recipient, 0, 6);
        assert_eq!(rk, scheme.quantize_dequantize(&sample_row(64, 700)));
        for t in 0..6 {
            assert_eq!(read_layer(&mut donor, 0, t), read_layer(&mut recipient, 0, t), "prefix position {t}");
        }
        drop(donor);
        drop(recipient);
        assert_eq!(pool.free_pages(), 16);
        assert_eq!(pool.reserved_pages(), 0);
    }

    #[test]
    fn shared_pages_outlive_a_retired_donor() {
        let scheme = QuantScheme::mxfp4_plus();
        let pool = pool_64(scheme);
        let mut donor = PagedKvCache::new(&pool, 2, 64, scheme, 4).unwrap();
        for t in 0..4 {
            for layer in 0..2 {
                donor.append(layer, &sample_row(64, t), &sample_row(64, t + 9));
            }
        }
        let prefix = donor.share_prefix(4);
        let mut recipient = PagedKvCache::with_shared_prefix(&pool, 2, 64, scheme, 8, prefix).unwrap();
        drop(donor); // retire the donor: the refcount keeps the shared pages resident
        assert_eq!(pool.in_use_pages(), 2);
        for t in 0..4 {
            let (k, _) = read_layer(&mut recipient, 0, t);
            assert_eq!(k, scheme.quantize_dequantize(&sample_row(64, t)), "shared page freed under a live reader");
        }
        drop(recipient);
        assert_eq!(pool.free_pages(), 16);
        assert_eq!(pool.reserved_pages(), 0);
    }

    #[test]
    fn share_prefix_truncates_to_full_pages_when_headroom_is_unavailable() {
        let scheme = QuantScheme::mxfp4();
        // 2-page pool, fully used by the donor: sealing the partial boundary page would
        // need COW headroom the pool cannot fund, so the prefix truncates to whole pages.
        let pool = PagePool::for_kv_rows(2, 4, RowCodec::for_scheme(scheme), 64).shared();
        let mut donor = PagedKvCache::new(&pool, 1, 64, scheme, 8).unwrap();
        for t in 0..6 {
            donor.append(0, &sample_row(64, t), &sample_row(64, t));
        }
        assert_eq!(pool.available_pages(), 0);
        let prefix = donor.share_prefix(6);
        assert_eq!(prefix.positions(), 4, "partial page must be dropped without headroom");
        assert_eq!(prefix.pages_per_layer(), 1);
        assert_eq!(pool.reserved_pages(), 0);
    }

    #[test]
    fn spill_restore_round_trips_bit_exact() {
        let scheme = QuantScheme::mxfp4();
        let pool = pool_64(scheme);
        let mut cache = PagedKvCache::new(&pool, 2, 64, scheme, 10).unwrap();
        for t in 0..7 {
            for layer in 0..2 {
                cache.append(layer, &sample_row(64, t), &sample_row(64, t + 31));
            }
        }
        let before: Vec<_> = (0..7).map(|t| read_layer(&mut cache, 1, t)).collect();
        let in_use_before = pool.in_use_pages();
        let spilled = cache.spill();
        assert_eq!(cache.seq_len(), 0);
        assert_eq!(pool.in_use_pages(), 0, "spilling must return every page");
        assert_eq!(pool.reserved_pages(), 0);
        assert_eq!(spilled.positions(), 7);
        assert_eq!(spilled.spill_bytes(), in_use_before * pool.page_bytes());
        let mut restored = PagedKvCache::restore(&pool, 2, 64, scheme, 10, &spilled).unwrap();
        assert_eq!(restored.seq_len(), 7);
        assert_eq!(pool.in_use_pages(), in_use_before);
        for (t, expected) in before.iter().enumerate() {
            assert_eq!(&read_layer(&mut restored, 1, t), expected, "restored position {t} diverges");
        }
        // The restored cache keeps the original in-capacity append guarantee.
        for t in 7..10 {
            for layer in 0..2 {
                restored.append(layer, &sample_row(64, t), &sample_row(64, t));
            }
        }
        drop(restored);
        assert_eq!(pool.free_pages(), 16);
    }

    #[test]
    fn spilled_donor_leaves_shared_pages_with_the_recipient() {
        let scheme = QuantScheme::mxfp4();
        let pool = pool_64(scheme);
        let mut donor = PagedKvCache::new(&pool, 1, 64, scheme, 4).unwrap();
        for t in 0..4 {
            donor.append(0, &sample_row(64, t), &sample_row(64, t + 5));
        }
        let prefix = donor.share_prefix(4);
        let mut recipient = PagedKvCache::with_shared_prefix(&pool, 1, 64, scheme, 8, prefix).unwrap();
        // Preempting the donor spills a byte copy and drops its refs; the recipient's
        // refcount keeps the page resident.
        let spilled = donor.spill();
        assert_eq!(pool.in_use_pages(), 1);
        let (k, _) = read_layer(&mut recipient, 0, 2);
        assert_eq!(k, scheme.quantize_dequantize(&sample_row(64, 2)));
        // Restoring the donor yields its own exclusive copy, bit-identical.
        let mut restored = PagedKvCache::restore(&pool, 1, 64, scheme, 4, &spilled).unwrap();
        assert_eq!(read_layer(&mut restored, 0, 3), read_layer(&mut recipient, 0, 3));
        drop(restored);
        drop(recipient);
        assert_eq!(pool.free_pages(), 16);
        assert_eq!(pool.reserved_pages(), 0);
    }

    #[test]
    fn growth_past_reservation_extends_when_pool_allows() {
        let pool = pool_64(QuantScheme::mxfp4());
        let mut cache = PagedKvCache::new(&pool, 1, 64, QuantScheme::mxfp4(), 4).unwrap();
        for t in 0..12 {
            cache.append(0, &sample_row(64, t), &sample_row(64, t));
        }
        assert_eq!(cache.seq_len(), 12);
        assert_eq!(cache.allocated_pages(), 3); // 1 reserved + 2 grown
        drop(cache);
        assert_eq!(pool.free_pages(), 16);
    }
}
