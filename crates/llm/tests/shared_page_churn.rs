//! Property-based pool-churn invariants for the pool's keyed page cache: random
//! interleavings of admit (mapping any keyed prefix, home or held) / append / publish /
//! retire (dropping a prefix's last holder) / spill+restore / evict against one small
//! pool must never leak a page, double-free one, let a shared page die while a reader
//! still holds it, or map a page whose rows differ from what the mapping cache would
//! have written itself.
//!
//! The test tracks, per live cache, the exact row *salts* it must contain and re-reads a
//! probe row after every operation. Prompt rows are a function of the prompt's family and
//! position only, as a model's prefill rows are a function of the token prefix, so a
//! cache that maps another's published pages must read back its own family's salts: any
//! aliasing bug — two caches owning one page exclusively, a write into a shared page, a
//! freed-then-reused keyed page, a mismatched key — shows up as a value mismatch, and any
//! accounting bug as a free/in-use imbalance, a sanitizer failure or a failure to drain.

use std::sync::Arc;

use mx_formats::{QuantScheme, RowCodec};
use mx_llm::kvcache::{KvBackend, KvLayerReader};
use mx_llm::{audit_caches, prefix_keys, PagePool, PagedKvCache, PagedScratch};
use proptest::prelude::*;

const KV_DIM: usize = 64;
const PAGE_POSITIONS: usize = 4;
const POOL_PAGES: usize = 24;
const SLOTS: usize = 5;
/// Prompt families: prompts of one family share every leading token.
const FAMILIES: usize = 3;

fn scheme() -> QuantScheme {
    QuantScheme::mxfp4()
}

/// Deterministic row with outliers, keyed by a salt (same generator as the unit tests).
fn sample_row(salt: usize) -> Vec<f32> {
    (0..KV_DIM)
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

/// The first `len` tokens of prompt family `family`.
fn prompt(family: usize, len: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 7 + family * 31 + 1) % 128).collect()
}

/// The key-row salt of prompt position `t` in family `family` (values use `salt + 1000`).
fn prompt_salt(family: usize, t: usize) -> usize {
    1_000_000 + family * 1000 + t
}

/// One live cache plus the ground truth of what it must contain.
struct Slot {
    cache: PagedKvCache,
    family: usize,
    prompt: Vec<usize>,
    keys: Vec<u64>,
    /// Row salt appended at each position (keys; values use `salt + 1000`).
    salts: Vec<usize>,
    /// Fixed append capacity reserved at admission.
    capacity: usize,
}

fn read_key(cache: &mut PagedKvCache, t: usize) -> Vec<f32> {
    let mut scratch = PagedScratch::default();
    let mut reader = cache.layer_reader(0, &mut scratch);
    reader.key_row(t).to_vec()
}

fn check_slot(slot: &mut Slot, probe: usize) {
    if slot.salts.is_empty() {
        return;
    }
    let t = probe % slot.salts.len();
    let expected = scheme().quantize_dequantize(&sample_row(slot.salts[t]));
    let got = read_key(&mut slot.cache, t);
    assert_eq!(got, expected, "position {t} corrupted (salt {})", slot.salts[t]);
}

/// Appends up to `count` rows: the family's prompt rows while the prompt lasts, then
/// rows salted from `salt_base`.
fn append_rows(slot: &mut Slot, count: usize, salt_base: usize) {
    for k in 0..count {
        let t = slot.salts.len();
        if t >= slot.capacity {
            break;
        }
        let salt = if t < slot.prompt.len() { prompt_salt(slot.family, t) } else { salt_base + k };
        slot.cache.append(0, &sample_row(salt), &sample_row(salt + 1000));
        slot.salts.push(salt);
    }
}

fn pool_invariants(pool: &Arc<PagePool>, live: &[Option<Slot>], step: usize) {
    assert!(pool.free_pages() + pool.in_use_pages() == pool.total_pages(), "step {step}: page count imbalance");
    assert!(pool.cached_pages() <= pool.free_pages(), "step {step}: keyed home pages must count as free");
    // With sharing, the sum of per-cache table entries can exceed the distinct in-use
    // count (refcounted aliasing) but never the converse; and with no cache alive at
    // all, nothing may remain checked out.
    let referenced: usize = live.iter().flatten().map(|s| s.cache.allocated_pages()).sum();
    assert!(
        pool.in_use_pages() <= referenced,
        "step {step}: pages in use that no live cache references (leak): {} in use, {referenced} referenced",
        pool.in_use_pages()
    );
    // The debug-build sanitizers reconcile the pool's internal accounting and the
    // *exact* page ownership against every live cache's page table (distinct mapped
    // pages == checked-out pages; holder counts; announcements; no double-ownership;
    // tables sized to their rows).
    pool.audit();
    audit_caches(pool, live.iter().flatten().map(|s| &s.cache));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random admit/append/publish/retire/spill/evict churn: exact data integrity and
    /// exact accounting at every step, full drain at the end.
    #[test]
    fn churn_with_sharing_never_leaks_double_frees_or_corrupts(ops in prop::collection::vec(0u32..1_000_000u32, 1..120)) {
        let pool = PagePool::for_kv_rows(POOL_PAGES, PAGE_POSITIONS, RowCodec::for_scheme(scheme()), KV_DIM).shared();
        let mut live: Vec<Option<Slot>> = (0..SLOTS).map(|_| None).collect();
        for (step, &word) in ops.iter().enumerate() {
            let op = word % 6;
            let a = (word as usize / 6) % SLOTS;
            let amount = (word as usize / 30) % 15;
            match op {
                // Admission into an empty slot: maps the longest keyed run of its prompt,
                // from live holders or from home, then prefills part of the rest.
                0 => {
                    if live[a].is_none() {
                        let family = (word as usize / 450) % FAMILIES;
                        let prompt = prompt(family, 1 + amount);
                        let keys = prefix_keys(&prompt, PAGE_POSITIONS);
                        let capacity = prompt.len() + 1 + amount / 3;
                        if let Ok(cache) = PagedKvCache::with_prefix(&pool, 1, KV_DIM, scheme(), capacity, &prompt, &keys) {
                            let shared = cache.seq_len();
                            prop_assert_eq!(shared % PAGE_POSITIONS, 0, "sharing is whole-page");
                            prop_assert!(shared < prompt.len(), "the last prompt position is never mapped");
                            let salts = (0..shared).map(|t| prompt_salt(family, t)).collect();
                            let mut slot = Slot { cache, family, prompt, keys, salts, capacity };
                            append_rows(&mut slot, amount / 2, step * 31);
                            live[a] = Some(slot);
                        }
                    }
                }
                // Append into a live slot: prefill rows, then decode rows.
                1 => {
                    if let Some(slot) = &mut live[a] {
                        append_rows(slot, 1 + amount / 2, step * 31 + 250_000);
                    }
                }
                // Publish the full prompt pages written so far.
                2 => {
                    if let Some(slot) = &mut live[a] {
                        slot.cache.publish(&slot.prompt, &slot.keys);
                    }
                }
                // Retire: a prefix's last holder sends its keyed pages home.
                3 => {
                    live[a] = None;
                }
                // Preemption round trip: spill, restore, verify bit-identity via the salts.
                4 => {
                    if let Some(mut slot) = live[a].take() {
                        let spilled = slot.cache.spill();
                        prop_assert_eq!(spilled.positions(), slot.salts.len());
                        if let Ok(cache) = PagedKvCache::restore(&pool, 1, KV_DIM, scheme(), slot.capacity, &spilled) {
                            prop_assert_eq!(cache.shared_pages(), 0, "a restored cache owns its pages");
                            slot.cache = cache;
                            live[a] = Some(slot);
                        }
                        // Else the pool is too full to restore right now: the sequence
                        // stays preempted (dropped here); nothing may leak.
                    }
                }
                // Eviction: a cold cache takes pages, the keyed home ones last, then
                // returns them without keys.
                5 => {
                    let positions = (1 + amount) * PAGE_POSITIONS;
                    if let Ok(mut cold) = PagedKvCache::new(&pool, 1, KV_DIM, scheme(), positions) {
                        for t in 0..positions {
                            cold.append(0, &sample_row(t), &sample_row(t + 1000));
                        }
                        let others = live.iter().flatten().map(|s| &s.cache);
                        audit_caches(&pool, others.chain(std::iter::once(&cold)));
                    }
                }
                _ => unreachable!(),
            }
            pool_invariants(&pool, &live, step);
            // Probe every live cache: shared pages must still decode their exact rows
            // even after holders retired, spilled, or the pool evicted other pages.
            for slot in live.iter_mut().flatten() {
                check_slot(slot, step);
            }
        }
        // Drain: dropping every cache must return every page and reservation.
        live.clear();
        prop_assert_eq!(pool.free_pages(), pool.total_pages());
        prop_assert_eq!(pool.in_use_pages(), 0);
        prop_assert_eq!(pool.reserved_pages(), 0);
        prop_assert_eq!(pool.resident_bytes(), 0);
    }
}
