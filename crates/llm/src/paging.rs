//! Paged KV-cache storage with true bit-packed MX rows, shared safely across threads:
//! the storage the serving engine serves every sequence from.
//!
//! The reference [`KvCache`](crate::kvcache::KvCache) holds the **dequantized f32** of
//! the quantized keys/values, 32-bit rows whatever the scheme. This module stores the
//! scheme's bits instead, in two pieces:
//!
//! * [`PagePool`] — a shared, fixed-budget allocator of pages. Each page holds
//!   [`PagePool::page_positions`] position *slots*, and each slot stores one key row and
//!   one value row **genuinely bit-packed** with [`mx_formats::RowCodec`] (4/6/8-bit
//!   element codes + shared scales for the MX/MX+ families, 16 bits per element for BF16,
//!   `f32` fallback otherwise).
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
//! ## Ownership model: exclusive tail pages, keyed shared pages
//!
//! A cache's page table holds page references in one of two states:
//!
//! * **Owned** — the page buffer is exclusively held by this cache (every freshly
//!   allocated page), so packs and unpacks are lock-free plain memory access.
//! * **Shared** — a full prompt page the cache *published* ([`PagedKvCache::publish`]):
//!   sealed read-only behind an atomically refcounted handle ([`Arc`]) and *keyed* in the
//!   pool by the prompt's chain hash at that page ([`prefix_keys`]) and its layer. A
//!   cache built with [`PagedKvCache::with_prefix`] maps the longest keyed run of its own
//!   prompt straight into its table, paying **zero** new pages and zero re-prefill for
//!   those positions. Sharing is whole-page: a cache appends only into pages it owns, so
//!   no page is ever written once it is shared.
//!
//! ## The pool is the prefix cache
//!
//! When the last holder of a keyed page releases it, the page goes home **still keyed**:
//! its buffer keeps the rows, and the pool keeps the page's key, its tokens and its
//! parent's key with it. A keyed home page counts as free — [`PagePool::free_pages`],
//! [`PagePool::available_pages`], [`PagePool::in_use_pages`] and
//! [`PagePool::resident_bytes`] treat it exactly like a never-keyed page — yet a later
//! prompt can still map it, taking it back out of the free set. Allocation takes
//! never-keyed home pages first, and only then evicts keyed ones, oldest release first,
//! dropping their keys. A release hands a chain home deepest page first, so eviction
//! takes a chain's tail before its head, and a page's parent stays keyed for as long as
//! the page is. The cache's capacity is the pool's home pages; eviction drops a page's
//! metadata with its key, so the cache's memory is bounded by the pool. This is the
//! free-block queue of vLLM's automatic prefix caching (Kwon et al., SOSP '23) at page
//! granularity.
//!
//! A map checks each page's recorded tokens and parent key against the prompt, so a
//! hash collision costs a share, never a token. An admitted cache *announces* the keys
//! of the full prompt pages it has yet to write, and withdraws each when it publishes or
//! releases the page. [`PagePool::lookup_prefix`] reports a prompt whose next page is
//! announced as pending, so a scheduler can wait for that page instead of prefilling it a
//! second time.
//!
//! For **preemption**, a whole cache can be swapped out of the pool into a host-side
//! [`SpilledKv`] buffer ([`PagedKvCache::spill`]) and later re-admitted with
//! [`PagedKvCache::restore`], which is bit-exact: packed slot bytes are copied verbatim
//! in both directions, so a preempted sequence resumes token-identically. A spilled last
//! holder leaves its keyed pages home and mappable.
//!
//! ## Threading model
//!
//! The pool is shared as an [`Arc<PagePool>`] and is `Send + Sync`: all free-list,
//! reservation, key and occupancy accounting sits behind one internal [`Mutex`], which is
//! touched only when pages change hands (admission, page-boundary growth, publication,
//! retirement) — never on the per-row decode hot path. Owned page *data* is handed out by
//! moving each page's pre-allocated buffer out of the pool and into the owning
//! [`PagedKvCache`] (and back on release), so a worker thread decoding its sequence packs
//! and unpacks rows with **zero locking**; shared pages are immutable behind their
//! refcount, so concurrent readers need no locking either. The per-row dequant scratch
//! lives in a [`PagedScratch`] owned by the *worker thread* rather than the cache, so a
//! thread serving many resident sequences carries exactly one pair of row buffers.
//!
//! Because [`mx_formats::RowCodec`] round-trips bit-for-bit with
//! `QuantScheme::quantize_dequantize` — the exact values the f32 `KvCache` stores — a
//! decode over paged caches is **token-identical** to the same forward over the f32
//! [`KvCache`](crate::kvcache::KvCache), on any number of threads.
//! Dropping a [`PagedKvCache`] returns every page (and any unused reservation) to the
//! pool, which is what lets the continuous-batching scheduler admit queued sequences as
//! earlier ones finish.

use std::collections::{BTreeMap, HashMap};
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

/// One mixing step of the chained prompt-prefix hash (FNV/SplitMix-style, deterministic
/// across platforms).
fn prefix_hash_step(hash: u64, token: usize) -> u64 {
    (hash ^ (token as u64).wrapping_add(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0x0100_0000_01b3).rotate_left(23)
}

/// The prefix-cache keys of `prompt`: its chained token hash at every full page of
/// `page_positions` positions, so `keys[k]` covers `prompt[..(k + 1) * page_positions]`.
/// A keyed page's pool key is its chain hash plus its layer.
#[must_use]
pub fn prefix_keys(prompt: &[usize], page_positions: usize) -> Vec<u64> {
    let mut keys = Vec::with_capacity(prompt.len() / page_positions.max(1));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &token) in prompt.iter().enumerate() {
        hash = prefix_hash_step(hash, token);
        if (i + 1).is_multiple_of(page_positions) {
            keys.push(hash);
        }
    }
    keys
}

/// A keyed page's identity in the pool: the prompt's chain hash at the page, and the
/// layer.
type PageKey = (u64, usize);

/// One page checked out of the pool: its id plus the owned backing buffer. The buffer
/// physically moves between the pool and the owning cache, which is what makes reads and
/// writes of an allocated page lock-free (exclusive ownership, no shared arena aliasing).
#[derive(Debug)]
struct PageEntry {
    id: usize,
    buf: Box<[u8]>,
}

/// A published, immutable page behind an atomic refcount. Every holder reads the same
/// buffer lock-free, and the pool keeps one more handle for as long as the page stays
/// keyed; eviction takes the buffer back once that handle is the only one left.
#[derive(Debug)]
struct SharedPage {
    id: usize,
    buf: Box<[u8]>,
}

/// One entry of a cache's page table: exclusively owned and mutable (every page the
/// cache has not published), or published and refcounted-shared.
#[derive(Debug)]
enum PageRef {
    /// Exclusively owned: reads and writes are lock-free plain memory access.
    Owned(PageEntry),
    /// A keyed read-only page shared with the pool's prefix cache and other caches.
    Shared(Arc<SharedPage>),
}

impl PageRef {
    fn buf(&self) -> &[u8] {
        match self {
            PageRef::Owned(entry) => &entry.buf,
            PageRef::Shared(page) => &page.buf,
        }
    }

    fn is_shared(&self) -> bool {
        matches!(self, PageRef::Shared(_))
    }
}

/// What the pool's prefix cache holds of one prompt ([`PagePool::lookup_prefix`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixHit {
    /// Leading prompt pages keyed in every layer, which a cache built now would map. At
    /// most `(prompt_len − 1) / page_positions`, so the last prompt position always runs
    /// again: its logits seed the first sampled token.
    pub pages: usize,
    /// Pages building that cache would take out of [`PagePool::available_pages`]: the
    /// reservation for the positions past the mapped pages, plus the mapped pages that
    /// sit home in the pool.
    pub demand: usize,
    /// Whether an admitted cache has announced the prompt's next full page: waiting for
    /// it to publish maps the page instead of prefilling it a second time.
    pub pending: bool,
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

/// What the pool keeps with a keyed page, home or checked out, until eviction drops it.
#[derive(Debug)]
struct Keyed {
    key: PageKey,
    /// Chain hash of the prompt page before this one (`None` for a prompt's first page).
    parent: Option<u64>,
    /// The prompt tokens whose rows the page holds.
    tokens: Box<[usize]>,
    /// The pool's handle on the page; mapping clones it.
    page: Arc<SharedPage>,
    /// Page tables that map the page right now; 0 while it is home.
    holders: usize,
    /// While the page is home: its release tick, its place in the eviction order.
    home: Option<u64>,
}

/// The lock-protected side of the pool: which pages are home (never-keyed, or keyed and
/// mappable), which are checked out, which keys the caches have published or announced,
/// and how many pages are promised to admitted-but-not-yet-written sequences.
#[derive(Debug)]
struct PoolState {
    /// Buffer of each never-keyed page while it sits in the pool; `None` while checked
    /// out, or while the page is keyed (its buffer then lives in its [`SharedPage`]).
    buffers: Vec<Option<Box<[u8]>>>,
    /// Ids of never-keyed home pages.
    free: Vec<usize>,
    /// Keyed home pages by release tick, oldest first: the eviction order.
    cached: BTreeMap<u64, usize>,
    /// The next release tick.
    tick: u64,
    /// Every keyed page, home or checked out, by key.
    index: HashMap<PageKey, usize>,
    /// Each page's key and metadata while it is keyed.
    keyed: Vec<Option<Keyed>>,
    /// Chain hashes admitted caches will write and have not yet published or released,
    /// with how many caches announced each.
    announced: HashMap<u64, usize>,
    /// Pages promised to admitted sequences but not yet written.
    reserved: usize,
}

impl PoolState {
    /// Pages home in the pool: never-keyed ones plus keyed ones, which count as free.
    fn home_pages(&self) -> usize {
        self.free.len() + self.cached.len()
    }

    /// Converts one reserved page into a checked-out page: a never-keyed home page if
    /// there is one, else the keyed home page released longest ago, whose key goes.
    ///
    /// Panics if nothing is reserved — allocation is only legal against a reservation,
    /// which is what makes admission decisions binding.
    fn alloc_reserved(&mut self) -> PageEntry {
        assert!(self.reserved > 0, "allocating without a reservation");
        self.reserved -= 1;
        // Invariant: `reserved <= home_pages()` (reservations only come from the free
        // headroom), never-keyed home pages keep their buffers home, and a keyed home
        // page's only handle is the pool's — `PagePool::audit` checks all three.
        if let Some(id) = self.free.pop() {
            let Some(buf) = self.buffers[id].take() else { unreachable!("free page {id} lost its buffer") };
            return PageEntry { id, buf };
        }
        let Some((_, id)) = self.cached.pop_first() else { unreachable!("reserved pages must be home") };
        let Some(keyed) = self.keyed[id].take() else { unreachable!("cached page {id} lost its key") };
        self.index.remove(&keyed.key);
        let Ok(page) = Arc::try_unwrap(keyed.page) else { unreachable!("home page {id} is still mapped") };
        PageEntry { id, buf: page.buf }
    }

    /// Returns a checked-out never-keyed page to the pool.
    ///
    /// Panics if the page's home slot is already occupied (double free).
    fn free_page(&mut self, entry: PageEntry) {
        assert!(self.buffers[entry.id].is_none(), "double free of page {}", entry.id);
        self.buffers[entry.id] = Some(entry.buf);
        self.free.push(entry.id);
    }

    /// Keys `entry` under `key` and hands back its shared handle, with one holder: the
    /// publishing cache.
    fn seal_page(&mut self, entry: PageEntry, key: PageKey, parent: Option<u64>, tokens: &[usize]) -> Arc<SharedPage> {
        let page = Arc::new(SharedPage { id: entry.id, buf: entry.buf });
        self.index.insert(key, page.id);
        self.keyed[page.id] =
            Some(Keyed { key, parent, tokens: tokens.into(), page: Arc::clone(&page), holders: 1, home: None });
        page
    }

    /// One more holder for keyed page `id`, taking it back out of the free set if it is
    /// home.
    fn share_page(&mut self, id: usize) -> Arc<SharedPage> {
        let Some(keyed) = &mut self.keyed[id] else { unreachable!("mapping unkeyed page {id}") };
        if let Some(tick) = keyed.home.take() {
            self.cached.remove(&tick);
        }
        keyed.holders += 1;
        Arc::clone(&keyed.page)
    }

    /// One holder fewer for keyed page `id`; the last one sends it home, still keyed, as
    /// the newest release. Runs on the `Drop` path, so it never panics: a shared page is
    /// keyed until it goes home, which `PagePool::audit` checks.
    fn release_keyed(&mut self, id: usize) {
        let tick = self.tick;
        let Some(keyed) = &mut self.keyed[id] else { return };
        keyed.holders = keyed.holders.saturating_sub(1);
        if keyed.holders == 0 {
            keyed.home = Some(tick);
            self.cached.insert(tick, id);
            self.tick += 1;
        }
    }

    /// Withdraws one announcement of `hash`.
    fn withdraw(&mut self, hash: u64) {
        if let Some(count) = self.announced.get_mut(&hash) {
            *count -= 1;
            if *count == 0 {
                self.announced.remove(&hash);
            }
        }
    }

    /// The longest run of `prompt`'s leading pages keyed in every one of `layers`
    /// layers, at most `(prompt.len() − 1) / page_positions` pages: its page count and
    /// its page ids, page by page, layer by layer. A page joins the run only if its
    /// recorded tokens and parent key match the prompt's.
    fn run(&self, layers: usize, page_positions: usize, prompt: &[usize], keys: &[u64]) -> (usize, Vec<usize>) {
        let cap = (prompt.len().saturating_sub(1) / page_positions).min(keys.len());
        let mut ids = Vec::with_capacity(cap * layers);
        for (k, &hash) in keys[..cap].iter().enumerate() {
            let parent = k.checked_sub(1).map(|p| keys[p]);
            let tokens = &prompt[k * page_positions..(k + 1) * page_positions];
            for layer in 0..layers {
                let found = self.index.get(&(hash, layer)).copied().filter(|&id| {
                    self.keyed[id].as_ref().is_some_and(|keyed| keyed.parent == parent && *keyed.tokens == *tokens)
                });
                let Some(id) = found else {
                    ids.truncate(k * layers);
                    return (k, ids);
                };
                ids.push(id);
            }
        }
        (cap, ids)
    }

    /// Of `ids`, the keyed pages that sit home.
    fn home_among(&self, ids: &[usize]) -> usize {
        ids.iter().filter(|&&id| self.keyed[id].as_ref().is_some_and(|keyed| keyed.holders == 0)).count()
    }
}

/// A fixed-budget allocator of KV-cache pages, shared by every sequence of a serving run,
/// and the run's prefix cache (see the [module docs](crate::paging)).
///
/// The backing storage of every page is allocated once at construction
/// (`pages × page_bytes`), mirroring how a real serving system pre-carves an
/// accelerator's KV-cache arena. Pages move between four states: *free* and never
/// keyed, *free* and keyed (home, but still mappable by a matching prompt until an
/// allocation evicts it), *reserved* (promised to an admitted sequence but not yet
/// written) and *in use* (checked out to caches, holding packed rows).
/// [`PagePool::resident_bytes`] reports the in-use footprint — the measured occupancy a
/// [`ServingReport`] exposes alongside the theoretical scheme bytes.
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
                cached: BTreeMap::new(),
                tick: 0,
                index: HashMap::new(),
                keyed: (0..pages).map(|_| None).collect(),
                announced: HashMap::new(),
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
        // already propagates through the thread scope, and the Drop paths of the caches
        // must still be able to return pages during that unwinding — a second panic here
        // would turn a diagnosable failure into an abort.
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

    /// Pages no cache maps right now (free or merely reserved). Keyed home pages count:
    /// the prefix cache keeps them mappable only until an allocation needs them.
    #[must_use]
    pub fn free_pages(&self) -> usize {
        self.state().home_pages()
    }

    /// Keyed home pages: free, but still mappable by a prompt that matches their keys
    /// (a subset of [`PagePool::free_pages`]).
    #[must_use]
    pub fn cached_pages(&self) -> usize {
        self.state().cached.len()
    }

    /// Pages checked out to caches (holding packed rows) right now. Keyed home pages are
    /// not in use.
    #[must_use]
    pub fn in_use_pages(&self) -> usize {
        self.pages - self.state().home_pages()
    }

    /// Pages promised to admitted sequences but not yet written.
    #[must_use]
    pub fn reserved_pages(&self) -> usize {
        self.state().reserved
    }

    /// Pages a new reservation could still claim: free pages, keyed home pages included,
    /// minus reservations.
    #[must_use]
    pub fn available_pages(&self) -> usize {
        let state = self.state();
        state.home_pages() - state.reserved
    }

    /// Measured pool occupancy in bytes: in-use pages times the page size. Keyed home
    /// pages count as free.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.in_use_pages() * self.page_bytes()
    }

    /// What the prefix cache holds of `prompt` for a cache of `layers` layers and
    /// `capacity_positions` positions, as [`PagedKvCache::with_prefix`] would map it
    /// right now: the mappable pages, what building the cache would take from the
    /// available pages, and whether the next page is announced. `keys` are the prompt's
    /// [`prefix_keys`]; with none, nothing maps.
    #[must_use]
    pub fn lookup_prefix(&self, layers: usize, capacity_positions: usize, prompt: &[usize], keys: &[u64]) -> PrefixHit {
        let state = self.state();
        let (pages, ids) = state.run(layers, self.page_positions, prompt, keys);
        let cap = (prompt.len().saturating_sub(1) / self.page_positions).min(keys.len());
        let reserve =
            PagedKvCache::pages_needed(self, layers, capacity_positions).saturating_sub(layers.saturating_mul(pages));
        PrefixHit {
            pages,
            demand: reserve.saturating_add(state.home_among(&ids)),
            pending: pages < cap && state.announced.contains_key(&keys[pages]),
        }
    }

    /// Debug-build sanitizer: reconciles the pool's internal accounting. Every page is
    /// home (never-keyed with its buffer home, or keyed and held by the pool alone) or
    /// checked out; home ids are unique and in range; every keyed page sits in the key
    /// index under its own key, with the pool's handle plus one per holder; and
    /// reservations never exceed the free headroom. Compiles to a no-op in release
    /// builds, so callers (the serving engine at pass boundaries, the churn proptests at
    /// every step) invoke it unconditionally.
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
            assert!(state.keyed[id].is_none(), "never-keyed free page {id} holds a key");
        }
        for (&tick, &id) in &state.cached {
            assert!(!seen[id], "page {id} is home twice");
            seen[id] = true;
            let keyed = state.keyed[id].as_ref();
            assert!(keyed.is_some_and(|k| k.holders == 0 && k.home == Some(tick)), "cached page {id} is mapped");
        }
        let home = state.buffers.iter().filter(|buf| buf.is_some()).count();
        assert_eq!(home, state.free.len(), "buffers home in the pool must be exactly the never-keyed free pages");
        assert!(state.reserved <= state.home_pages(), "more pages reserved than free");
        for (key, &id) in &state.index {
            assert!(state.keyed[id].as_ref().is_some_and(|k| k.key == *key), "key index names page {id} wrongly");
        }
        let keyed = state.keyed.iter().flatten();
        assert_eq!(keyed.clone().count(), state.index.len(), "a keyed page is missing from the key index");
        for k in keyed {
            assert_eq!(Arc::strong_count(&k.page), k.holders + 1, "page {} has handles no holder counts", k.page.id);
            assert_eq!(k.holders == 0, k.home.is_some(), "page {} is home while mapped", k.page.id);
        }
        assert!(state.announced.values().all(|&count| count > 0), "an announcement count fell to zero");
    }

    /// Reserves `pages` pages for a sequence being admitted. Returns `false` (reserving
    /// nothing) if fewer than `pages` are available.
    pub fn try_reserve(&self, pages: usize) -> bool {
        let mut state = self.state();
        if state.home_pages() - state.reserved < pages {
            return false;
        }
        state.reserved += pages;
        true
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
/// Keeping the scratch out of [`PagedKvCache`] is what lets a
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
/// (`layers × ⌈capacity_positions / page_positions⌉`, less any pages mapped from the
/// prefix cache) so that appends within the stated capacity can never fail mid-decode;
/// pages are physically allocated lazily as positions are written and returned to the
/// pool when the cache is dropped. The cache is `Send + Sync`: it exclusively owns the
/// buffers of its unpublished pages, so decode workers read and write them without
/// touching the pool lock.
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
    /// Leading pages offered to the prefix cache: mapped at construction or offered by
    /// [`PagedKvCache::publish`] since.
    offered: usize,
    /// Chain hashes of the prompt pages this cache will write, announced to the pool and
    /// not yet withdrawn, the next page to offer first.
    announced: Vec<u64>,
}

impl PagedKvCache {
    /// Pages a cache of `layers` layers and `positions` positions needs from `pool`
    /// (saturating, so an absurd `positions` reads as more than any pool holds).
    #[must_use]
    pub fn pages_needed(pool: &PagePool, layers: usize, positions: usize) -> usize {
        layers.saturating_mul(positions.div_ceil(pool.page_positions()))
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
        Self::with_prefix(pool, layers, kv_dim, scheme, capacity_positions, &[], &[])
    }

    /// Creates a cache for `prompt` whose leading positions are mapped from the pool's
    /// prefix cache, in one pool-locked step: it finds the longest run of the prompt's
    /// pages keyed in every layer (see [`PagePool::lookup_prefix`]), checks that the
    /// available pages cover the reservation for the rest of `capacity_positions` plus
    /// the mapped pages that sit home, and maps the run. The mapped positions are never
    /// re-prefilled and cost no new page, so admission under prefix sharing is strictly
    /// cheaper than a cold one. The cache then announces the keys of the prompt's later
    /// full pages, which it will write and [`PagedKvCache::publish`].
    ///
    /// `keys` are the prompt's [`prefix_keys`]; with none, nothing is mapped or
    /// announced, exactly as [`PagedKvCache::new`].
    ///
    /// # Errors
    ///
    /// Returns [`PagingError::OutOfPages`] (mapping and reserving nothing) if the pool
    /// cannot cover that demand.
    ///
    /// # Panics
    ///
    /// Panics if the pool's slot size does not match `kv_dim` under the scheme's codec,
    /// or if `keys` are more than the prompt's full pages.
    pub fn with_prefix(
        pool: &Arc<PagePool>,
        layers: usize,
        kv_dim: usize,
        scheme: QuantScheme,
        capacity_positions: usize,
        prompt: &[usize],
        keys: &[u64],
    ) -> Result<Self, PagingError> {
        let codec = RowCodec::for_scheme(scheme);
        let row_bytes = codec.packed_bytes(kv_dim);
        assert_eq!(2 * row_bytes, pool.slot_bytes(), "pool slot size does not match kv_dim under this scheme");
        let pp = pool.page_positions();
        assert!(keys.len() <= prompt.len() / pp, "more prefix keys than full prompt pages");
        let mut state = pool.state();
        let (pages, ids) = state.run(layers, pp, prompt, keys);
        // Mapped pages hold fewer positions than the prompt, so they never exceed the
        // capacity unless the prompt does.
        let per_layer = capacity_positions.div_ceil(pp).saturating_sub(pages);
        let needed = layers.saturating_mul(per_layer).saturating_add(state.home_among(&ids));
        let available = state.home_pages() - state.reserved;
        if available < needed {
            return Err(PagingError::OutOfPages { needed, available });
        }
        state.reserved += layers * per_layer;
        let mut tables: Vec<Vec<PageRef>> = (0..layers).map(|_| Vec::with_capacity(pages)).collect();
        for (i, &id) in ids.iter().enumerate() {
            tables[i % layers].push(PageRef::Shared(state.share_page(id)));
        }
        let announced = keys[pages..].to_vec();
        for &hash in &announced {
            *state.announced.entry(hash).or_default() += 1;
        }
        drop(state);
        Ok(PagedKvCache {
            pool: Arc::clone(pool),
            scheme,
            codec,
            kv_dim,
            row_bytes,
            layer_reserved: vec![per_layer; layers],
            tables,
            lens: vec![pages * pp; layers],
            offered: pages,
            announced,
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

    /// Pages this cache has physically allocated or mapped.
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

    /// Page-table entries mapped to keyed shared pages: mapped at construction or
    /// published since.
    #[must_use]
    pub fn shared_pages(&self) -> usize {
        self.tables.iter().flatten().filter(|p| p.is_shared()).count()
    }

    /// Page-table entries exclusively owned (allocated and not yet published).
    #[must_use]
    pub fn owned_pages(&self) -> usize {
        self.allocated_pages() - self.shared_pages()
    }

    /// Pages guaranteed to become available if this cache is released right now, for
    /// an admission that maps this cache's first `mapped` pages itself: exclusively owned
    /// pages, unused reservations, and the shared pages past the first `mapped` that
    /// this cache holds alone, which go home and count as free. A shared page another
    /// cache holds stays in use, and one the admission maps comes straight back out of
    /// the free set, so neither counts, and on a quiescent pool the number is a lower
    /// bound the preemption planner can rely on.
    #[must_use]
    pub fn reclaimable_pages(&self, mapped: usize) -> usize {
        // A keyed page's handles are the pool's plus one per holding table.
        let alone = self
            .tables
            .iter()
            .flat_map(|table| table.iter().skip(mapped))
            .filter(|page| matches!(page, PageRef::Shared(page) if Arc::strong_count(page) == 2))
            .count();
        self.owned_pages() + self.layer_reserved.iter().sum::<usize>() + alone
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

    /// Publishes every full page of `prompt` this cache has written in every layer and
    /// not yet offered, keying each under its [`prefix_keys`] entry (`keys`, the same
    /// keys the cache was built with) and layer, with its tokens and its parent's key.
    /// A published page is sealed read-only and stays mappable by later prompts until
    /// the pool evicts it, after this cache and every other holder have released it.
    /// Each offered page withdraws its announcement.
    ///
    /// Pages are offered in order. If another page already holds a key, this cache keeps
    /// that page and every later one private, so a keyed page's parent stays keyed for as
    /// long as the page is.
    ///
    /// # Panics
    ///
    /// Panics if `keys` are more than the prompt's full pages.
    pub fn publish(&mut self, prompt: &[usize], keys: &[u64]) {
        let pp = self.pool.page_positions();
        assert!(keys.len() <= prompt.len() / pp, "more prefix keys than full prompt pages");
        let written = self.lens.iter().copied().min().unwrap_or(0) / pp;
        let end = written.min(keys.len());
        if self.offered >= end {
            return;
        }
        let first = self.offered;
        let mut state = self.pool.state();
        while self.offered < end {
            let k = self.offered;
            if (0..self.tables.len()).any(|layer| state.index.contains_key(&(keys[k], layer))) {
                self.offered = keys.len();
                break;
            }
            let parent = k.checked_sub(1).map(|p| keys[p]);
            let tokens = &prompt[k * pp..(k + 1) * pp];
            for (layer, table) in self.tables.iter_mut().enumerate() {
                let PageRef::Owned(entry) = &mut table[k] else { unreachable!("page {k} was offered already") };
                let entry = PageEntry { id: entry.id, buf: std::mem::take(&mut entry.buf) };
                table[k] = PageRef::Shared(state.seal_page(entry, (keys[k], layer), parent, tokens));
            }
            self.offered += 1;
        }
        let withdrawn = (self.offered - first).min(self.announced.len());
        for hash in self.announced.drain(..withdrawn) {
            state.withdraw(hash);
        }
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
    /// with [`PagedKvCache::restore`]; meanwhile its keyed pages stay mappable.
    pub fn spill(&mut self) -> SpilledKv {
        let spilled = self.checkpoint();
        self.release();
        spilled
    }

    /// Re-admits a spilled cache: reserves the full `capacity_positions` worst case
    /// (exactly like a cold admission), copies the spilled page bytes back into freshly
    /// allocated pages and restores the appended lengths. The restored cache is
    /// bit-identical to the spilled one; its pages are its own, unpublished.
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
    /// scheme and packed straight into the slot. Only a page-boundary crossing touches
    /// the pool lock; the pack itself writes a buffer this cache exclusively owns.
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
        }
        let slot_bytes = 2 * self.row_bytes;
        // Only full pages are ever shared, so the page holding the next position is
        // always this cache's own.
        let PageRef::Owned(entry) = &mut self.tables[layer][page_idx] else {
            unreachable!("a page with free slots is never shared")
        };
        let slot = &mut entry.buf[(t % pp) * slot_bytes..(t % pp + 1) * slot_bytes];
        let (key_slot, value_slot) = slot.split_at_mut(self.row_bytes);
        self.codec.pack_row_into(key, key_slot);
        self.codec.pack_row_into(value, value_slot);
        self.lens[layer] = t + 1;
    }

    /// Returns every owned page, every shared-page reference and any unused reservation
    /// to the pool under one lock acquisition, withdraws the cache's announcements and
    /// empties the cache. Also invoked by `Drop`, which is how a retiring sequence funds
    /// the admission of queued ones. A keyed page this cache held last goes home still
    /// keyed; the pages go back deepest first, so the pool evicts a chain's tail before
    /// its head.
    pub fn release(&mut self) {
        let mut state = self.pool.state();
        let depth = self.tables.iter().map(Vec::len).max().unwrap_or(0);
        for idx in (0..depth).rev() {
            for table in &mut self.tables {
                if table.len() > idx {
                    match table.pop() {
                        Some(PageRef::Owned(entry)) => state.free_page(entry),
                        Some(PageRef::Shared(page)) => state.release_keyed(page.id),
                        None => {}
                    }
                }
            }
        }
        for hash in self.announced.drain(..) {
            state.withdraw(hash);
        }
        let leftover: usize = self.layer_reserved.iter().sum();
        assert!(leftover <= state.reserved, "unreserving more pages than reserved");
        state.reserved -= leftover;
        drop(state);
        self.layer_reserved.fill(0);
        self.lens.fill(0);
        self.offered = 0;
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
/// shared mapping is the pool's keyed page for its layer, each keyed page's holder count
/// equals the tables that map it, the caches' announcements are exactly the pool's, and
/// the distinct pages reachable from the caches account for **every** checked-out page —
/// no leak, no double free. Keyed home pages are free and mapped by no table.
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
    let pp = pool.page_positions();
    let mut owned = std::collections::HashSet::new();
    let mut shared: HashMap<usize, usize> = HashMap::new();
    let mut announced: HashMap<u64, usize> = HashMap::new();
    let state = pool.state();
    for cache in caches {
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
                    PageRef::Shared(page) => {
                        let keyed = state.keyed[page.id].as_ref();
                        assert!(
                            keyed.is_some_and(|k| k.key.1 == layer && Arc::ptr_eq(&k.page, page)),
                            "layer {layer} maps page {} outside the key index",
                            page.id
                        );
                        *shared.entry(page.id).or_default() += 1;
                    }
                }
            }
        }
        for &hash in &cache.announced {
            *announced.entry(hash).or_default() += 1;
        }
    }
    for (&id, &tables) in &shared {
        assert!(!owned.contains(&id), "page {id} is mapped both exclusively and shared");
        assert_eq!(state.keyed[id].as_ref().map(|k| k.holders), Some(tables), "page {id} holder count is off");
    }
    assert_eq!(announced, state.announced, "announcements disagree with the live caches");
    assert_eq!(
        owned.len() + shared.len(),
        pool.pages - state.home_pages(),
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

    /// A prompt of `len` tokens, distinct per `salt`.
    fn prompt(len: usize, salt: usize) -> Vec<usize> {
        (0..len).map(|i| (i * 7 + salt * 31 + 1) % 128).collect()
    }

    /// Appends rows to every layer of `cache` until it holds `positions`; position `t`
    /// gets the key row of salt `t` and the value row of salt `t + 50`.
    fn fill(cache: &mut PagedKvCache, positions: usize) {
        for t in cache.seq_len()..positions {
            for layer in 0..cache.num_layers() {
                cache.append(layer, &sample_row(64, t), &sample_row(64, t + 50));
            }
        }
    }

    /// The sanitizers must hold through a full publish → map → spill → release home →
    /// map back → restore → evict lifecycle (they run after every churn-proptest step
    /// too; this pins the happy path deterministically).
    #[test]
    fn audit_passes_through_publish_map_spill_lifecycle() {
        let scheme = QuantScheme::mxfp4();
        let pool = pool_64(scheme); // 16 pages of 4 positions
        let tokens = prompt(9, 0); // two full pages
        let keys = prefix_keys(&tokens, 4);
        audit_caches(&pool, std::iter::empty());
        let mut donor = PagedKvCache::with_prefix(&pool, 2, 64, scheme, 12, &tokens, &keys).unwrap();
        audit_caches(&pool, [&donor]);
        fill(&mut donor, 9);
        donor.publish(&tokens, &keys);
        assert_eq!(donor.shared_pages(), 4);
        audit_caches(&pool, [&donor]);
        let mut recipient = PagedKvCache::with_prefix(&pool, 2, 64, scheme, 12, &tokens, &keys).unwrap();
        assert_eq!(recipient.seq_len(), 8);
        audit_caches(&pool, [&donor, &recipient]);
        fill(&mut recipient, 10);
        audit_caches(&pool, [&donor, &recipient]);
        let spilled = donor.spill();
        audit_caches(&pool, [&donor, &recipient]);
        drop(recipient);
        assert_eq!(pool.cached_pages(), 4, "the last holder leaves the prefix keyed at home");
        audit_caches(&pool, [&donor]);
        let restored = PagedKvCache::restore(&pool, 2, 64, scheme, 12, &spilled).unwrap();
        audit_caches(&pool, [&donor, &restored]);
        let again = PagedKvCache::with_prefix(&pool, 2, 64, scheme, 12, &tokens, &keys).unwrap();
        assert_eq!(again.seq_len(), 8, "the home prefix maps back");
        audit_caches(&pool, [&donor, &restored, &again]);
        drop(again);
        drop(restored);
        // A cold cache the size of the pool evicts every keyed page.
        let mut cold = PagedKvCache::new(&pool, 2, 64, scheme, 32).unwrap();
        fill(&mut cold, 32);
        assert_eq!(pool.cached_pages(), 0);
        audit_caches(&pool, [&donor, &cold]);
        drop(cold);
        audit_caches(&pool, [&donor]);
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
        let tokens = prompt(9, 1);
        let keys = prefix_keys(&tokens, 4);
        let mut donor = PagedKvCache::with_prefix(&pool, 2, 64, scheme, 9, &tokens, &keys).unwrap();
        fill(&mut donor, 9);
        assert_eq!(pool.in_use_pages(), 6);
        donor.publish(&tokens, &keys);
        assert_eq!(donor.shared_pages(), 4, "the two full prompt pages of each layer are published");
        assert_eq!(pool.in_use_pages(), 6, "publishing moves no page");
        // The recipient maps the 4 keyed pages and reserves only its remainder:
        // 2 layers * (ceil(12/4) - 2) = 2 pages.
        assert_eq!(pool.lookup_prefix(2, 12, &tokens, &keys), PrefixHit { pages: 2, demand: 2, pending: false });
        let mut recipient = PagedKvCache::with_prefix(&pool, 2, 64, scheme, 12, &tokens, &keys).unwrap();
        assert_eq!(pool.reserved_pages(), 2);
        assert_eq!(pool.in_use_pages(), 6, "mapping allocates no new pages");
        assert_eq!(recipient.seq_len(), 8);
        assert_eq!(recipient.shared_pages(), 4);
        assert_eq!(recipient.owned_pages(), 0);
        // Mapped reads decode the donor's rows bit for bit.
        for t in 0..8 {
            let (k, v) = read_layer(&mut recipient, 1, t);
            assert_eq!(k, scheme.quantize_dequantize(&sample_row(64, t)));
            assert_eq!(v, scheme.quantize_dequantize(&sample_row(64, t + 50)));
        }
        // Appends land in fresh exclusive pages past the mapped prefix.
        for t in 8..12 {
            for layer in 0..2 {
                recipient.append(layer, &sample_row(64, t + 900), &sample_row(64, t + 950));
            }
        }
        assert_eq!(pool.in_use_pages(), 8);
        drop(recipient);
        assert_eq!(pool.in_use_pages(), 6, "shared pages stay resident for the donor");
        drop(donor);
        assert_eq!(pool.free_pages(), 16);
        assert_eq!(pool.cached_pages(), 4, "the prefix stays keyed at home");
        assert_eq!(pool.reserved_pages(), 0);
    }

    /// A keyed page its last holder released counts as free, yet the next matching
    /// prompt maps it back out of the free set. The page holding the prompt's last
    /// position is never mapped: its logits must run again.
    #[test]
    fn keyed_home_pages_count_as_free_and_map_back() {
        let scheme = QuantScheme::mxfp4_plus();
        let pool = pool_64(scheme);
        let tokens = prompt(8, 2); // exactly two full pages
        let keys = prefix_keys(&tokens, 4);
        let mut donor = PagedKvCache::with_prefix(&pool, 2, 64, scheme, 8, &tokens, &keys).unwrap();
        fill(&mut donor, 8);
        donor.publish(&tokens, &keys);
        drop(donor);
        let occupancy = (pool.free_pages(), pool.available_pages(), pool.in_use_pages(), pool.resident_bytes());
        assert_eq!(occupancy, (16, 16, 0, 0), "keyed home pages count as free");
        assert_eq!(pool.cached_pages(), 4);
        // Capacity 10 reserves 2 * (3 - 1) pages and takes page 0 of both layers home.
        assert_eq!(pool.lookup_prefix(2, 10, &tokens, &keys), PrefixHit { pages: 1, demand: 4 + 2, pending: false });
        let mut recipient = PagedKvCache::with_prefix(&pool, 2, 64, scheme, 10, &tokens, &keys).unwrap();
        assert_eq!(recipient.seq_len(), 4);
        assert_eq!(pool.in_use_pages(), 2, "mapping takes the home pages back out of the free set");
        assert_eq!(pool.cached_pages(), 2);
        assert_eq!(pool.available_pages(), 16 - 2 - 4);
        for t in 0..4 {
            let (k, _) = read_layer(&mut recipient, 1, t);
            assert_eq!(k, scheme.quantize_dequantize(&sample_row(64, t)), "home page {t} lost its rows");
        }
        drop(recipient);
        assert_eq!(pool.cached_pages(), 4);
        audit_caches(&pool, std::iter::empty());
    }

    /// Allocation takes never-keyed home pages first; only then does it evict keyed
    /// ones, a chain's deepest page first, so the rest of the chain still maps.
    #[test]
    fn allocation_takes_never_keyed_pages_first_and_evicts_a_chains_tail_first() {
        let scheme = QuantScheme::mxfp4();
        let pool = PagePool::for_kv_rows(8, 4, RowCodec::for_scheme(scheme), 64).shared();
        let tokens = prompt(17, 3); // four full pages
        let keys = prefix_keys(&tokens, 4);
        let mut donor = PagedKvCache::with_prefix(&pool, 1, 64, scheme, 17, &tokens, &keys).unwrap();
        fill(&mut donor, 17);
        donor.publish(&tokens, &keys);
        drop(donor);
        assert_eq!((pool.free_pages(), pool.cached_pages()), (8, 4));
        let mapped = || pool.lookup_prefix(1, 17, &tokens, &keys).pages;
        let mut cold = PagedKvCache::new(&pool, 1, 64, scheme, 16).unwrap();
        fill(&mut cold, 16);
        assert_eq!(mapped(), 4, "four never-keyed pages go before any keyed one");
        let mut colder = PagedKvCache::new(&pool, 1, 64, scheme, 8).unwrap();
        fill(&mut colder, 8);
        assert_eq!(pool.cached_pages(), 2);
        assert_eq!(mapped(), 2, "eviction takes the chain's two deepest pages");
        drop(colder);
        assert_eq!(mapped(), 2);
        audit_caches(&pool, [&cold]);
    }

    /// An admitted cache announces the prompt pages it will write: a lookup of a
    /// matching prompt reads pending until the page is published, and a release
    /// withdraws what was never published.
    #[test]
    fn announced_pages_read_as_pending_until_published_or_released() {
        let scheme = QuantScheme::mxfp4();
        let pool = pool_64(scheme);
        let tokens = prompt(13, 4); // three full pages
        let keys = prefix_keys(&tokens, 4);
        let mut writer = PagedKvCache::with_prefix(&pool, 1, 64, scheme, 13, &tokens, &keys).unwrap();
        assert_eq!(pool.lookup_prefix(1, 16, &tokens, &keys), PrefixHit { pages: 0, demand: 4, pending: true });
        fill(&mut writer, 6);
        writer.publish(&tokens, &keys);
        let hit = pool.lookup_prefix(1, 16, &tokens, &keys);
        assert_eq!((hit.pages, hit.pending), (1, true), "page 1 is still announced");
        // A prompt that leaves the chain after page 0 waits for nothing.
        let mut other = tokens[..4].to_vec();
        other.extend(prompt(9, 5));
        let other_keys = prefix_keys(&other, 4);
        let hit = pool.lookup_prefix(1, 16, &other, &other_keys);
        assert_eq!((hit.pages, hit.pending), (1, false));
        fill(&mut writer, 13);
        writer.publish(&tokens, &keys);
        assert_eq!(pool.lookup_prefix(1, 16, &tokens, &keys), PrefixHit { pages: 3, demand: 1, pending: false });
        audit_caches(&pool, [&writer]);
        // A cache released before it publishes withdraws its announcements.
        let quitter = PagedKvCache::with_prefix(&pool, 1, 64, scheme, 16, &other, &other_keys).unwrap();
        assert!(pool.lookup_prefix(1, 16, &other, &other_keys).pending);
        drop(quitter);
        assert!(!pool.lookup_prefix(1, 16, &other, &other_keys).pending);
        audit_caches(&pool, [&writer]);
    }

    #[test]
    fn shared_pages_outlive_a_retired_donor() {
        let scheme = QuantScheme::mxfp4_plus();
        let pool = pool_64(scheme);
        let tokens = prompt(5, 6); // one full page
        let keys = prefix_keys(&tokens, 4);
        let mut donor = PagedKvCache::with_prefix(&pool, 2, 64, scheme, 5, &tokens, &keys).unwrap();
        fill(&mut donor, 5);
        donor.publish(&tokens, &keys);
        let mut recipient = PagedKvCache::with_prefix(&pool, 2, 64, scheme, 8, &tokens, &keys).unwrap();
        drop(donor); // retire the donor: the recipient's holds keep the shared pages resident
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
        let tokens = prompt(5, 7);
        let keys = prefix_keys(&tokens, 4);
        let mut donor = PagedKvCache::with_prefix(&pool, 1, 64, scheme, 5, &tokens, &keys).unwrap();
        fill(&mut donor, 5);
        donor.publish(&tokens, &keys);
        let mut recipient = PagedKvCache::with_prefix(&pool, 1, 64, scheme, 8, &tokens, &keys).unwrap();
        // Preempting the donor spills a byte copy and drops its holds; the recipient's
        // hold keeps the page resident.
        let spilled = donor.spill();
        assert_eq!(pool.in_use_pages(), 1);
        let (k, _) = read_layer(&mut recipient, 0, 2);
        assert_eq!(k, scheme.quantize_dequantize(&sample_row(64, 2)));
        // Restoring the donor yields its own exclusive copy, bit-identical.
        let mut restored = PagedKvCache::restore(&pool, 1, 64, scheme, 5, &spilled).unwrap();
        assert_eq!(restored.shared_pages(), 0);
        assert_eq!(read_layer(&mut restored, 0, 3), read_layer(&mut recipient, 0, 3));
        drop(restored);
        drop(recipient);
        assert_eq!(pool.free_pages(), 16);
        assert_eq!(pool.cached_pages(), 1, "the last holder leaves the page keyed at home");
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
