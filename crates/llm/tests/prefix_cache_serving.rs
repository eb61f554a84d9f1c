//! The page pool as the engine's prefix cache: a full prompt page, once published, stays
//! mappable after its last holder has left the pool — retired or spilled — until an
//! allocation evicts it, and keyed home pages count as free.
//!
//! * a later arrival maps a prefix whose last holder retired passes earlier, in whole
//!   pages, token-identically, at 1 and 2 threads;
//! * the next arrival maps the pages of a spilled last holder, which later restores
//!   bit-identically;
//! * a pool full of keyed home pages admits a cold high-priority request without
//!   preempting anyone, and its allocations evict a chain's tail before its head;
//! * a key whose recorded tokens or parent differ from the prompt's is never mapped;
//! * sharing on and off, at 1, 2 and 4 threads: the tokens of `generate_greedy` over the
//!   f32 `KvCache`, and no page in use after the run.

use std::sync::Arc;

use mx_formats::{QuantScheme, RowCodec};
use mx_llm::{
    prefix_keys, ModelConfig, ModelQuantConfig, PagePool, PagedKvCache, ServingEngine, SubmitOptions, TransformerModel,
};

fn model() -> TransformerModel {
    // The paper's headline serving configuration: A-MXFP4+, W-MXFP4.
    TransformerModel::new(ModelConfig::tiny_test(43), ModelQuantConfig::a_mxfp4_plus())
}

fn tokens(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 13 + salt * 29 + 5) % 128).collect()
}

fn with_suffix(prefix: &[usize], suffix: &[usize]) -> Vec<usize> {
    let mut prompt = prefix.to_vec();
    prompt.extend_from_slice(suffix);
    prompt
}

#[test]
fn a_later_arrival_maps_a_prefix_whose_last_holder_retired() {
    let model = model();
    let prefix = tokens(40, 1); // 2 full 16-position pages + 8 positions
    let first = with_suffix(&prefix, &[3]);
    let later = with_suffix(&prefix, &[7, 9, 11]);
    for threads in [1usize, 2] {
        let mut engine = ServingEngine::paged(&model, 64).with_threads(threads);
        engine.submit_with(&first, SubmitOptions::new(4));
        let report = engine.run();
        assert_eq!(report.prefill_tokens_saved, 0);
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0, "{threads} threads: the holder retired");
        assert_eq!(pool.cached_pages(), 2 * 2, "{threads} threads: its full prompt pages stay keyed at home");
        // Passes later, the next arrival with the same prefix maps both full pages.
        engine.submit_with(&later, SubmitOptions::new(6).arrival_pass(report.passes + 8));
        let report = engine.run();
        assert_eq!(engine.sequences()[1].shared_positions(), 32, "{threads} threads");
        assert_eq!(report.prefill_tokens_saved, 32, "{threads} threads: whole pages only");
        assert_eq!(report.shared_pages, 2 * 2);
        assert_eq!(engine.sequences()[0].generated, model.generate_greedy(&first, 4));
        assert_eq!(engine.sequences()[1].generated, model.generate_greedy(&later, 6), "{threads} threads");
        let pool = engine.pool().unwrap();
        assert_eq!(pool.in_use_pages(), 0);
        assert_eq!(pool.reserved_pages(), 0);
    }
}

#[test]
fn the_next_arrival_maps_a_spilled_last_holders_pages() {
    let model = model();
    let prefix = tokens(48, 2); // 3 full pages
    let holder = with_suffix(&prefix, &[1, 2]);
    let urgent = vec![9, 9];
    let next = with_suffix(&prefix, &[4, 6]);
    // 16-page pool: the holder reserves 10 pages (50 + 30 positions); the urgent request
    // arrives at pass 2 needing 8 of the 6 left, so the holder, the only lower-priority
    // sequence, is spilled and its 3 keyed pages per layer go home.
    let mut engine = ServingEngine::paged(&model, 16).with_threads(1);
    engine.submit_with(&holder, SubmitOptions::new(30));
    engine.submit_with(&urgent, SubmitOptions::new(60).priority(1).arrival_pass(2));
    engine.submit_with(&next, SubmitOptions::new(10).priority(1).arrival_pass(4));
    let early = engine.run_for(4);
    assert_eq!(early.preemptions, 1);
    let pool = engine.pool().unwrap();
    assert!(!engine.sequences()[0].is_finished());
    assert_eq!(engine.sequences()[0].cached_positions(), 51, "the holder waits, spilled");
    assert_eq!(pool.cached_pages(), 3 * 2, "the spilled holder's prompt pages are home and keyed");
    let report = engine.run();
    assert_eq!(report.preemptions, 0, "no later pass preempts");
    assert_eq!(engine.sequences()[2].shared_positions(), 48, "the next arrival maps the spilled holder's pages");
    assert_eq!(
        engine.sequences()[0].generated,
        model.generate_greedy(&holder, 30),
        "the holder restores bit-identically"
    );
    assert_eq!(engine.sequences()[1].generated, model.generate_greedy(&urgent, 60));
    assert_eq!(engine.sequences()[2].generated, model.generate_greedy(&next, 10));
    let pool = engine.pool().unwrap();
    assert_eq!(pool.in_use_pages(), 0);
    assert_eq!(pool.reserved_pages(), 0);
}

#[test]
fn a_pool_of_keyed_home_pages_admits_a_cold_request_and_evicts_tails_first() {
    let model = model();
    let cached = tokens(64, 3); // 4 full pages, published and retired in pass 0
                                // A lookup prompt one token longer may map all 4 pages.
    let probe = with_suffix(&cached, &[0]);
    let probe_keys = prefix_keys(&probe, 16);
    let running = vec![7, 7];
    let cold = vec![1, 2];
    // 16 pages: the cached prompt reserves 10 and the running sequence 6 at pass 0. The
    // cached one finishes in pass 0 and leaves 8 keyed home pages; the cold arrival
    // needs 10 pages, which the free pages cover only if keyed home pages count.
    let mut engine = ServingEngine::paged(&model, 16).with_threads(1);
    engine.submit_with(&cached, SubmitOptions::new(1));
    engine.submit_with(&running, SubmitOptions::new(40));
    engine.submit_with(&cold, SubmitOptions::new(78).priority(1).arrival_pass(2));
    let mut fewest = usize::MAX;
    loop {
        let report = engine.run_for(1);
        assert_eq!(report.preemptions, 0, "keyed home pages are free: nothing is preempted");
        let pool = engine.pool().unwrap();
        let mapped = pool.lookup_prefix(2, probe.len(), &probe, &probe_keys).pages;
        // Both layers of a page go in the same pass, deepest page first, so what is
        // still keyed is always a chain's head.
        assert_eq!(mapped, pool.cached_pages() / 2, "eviction must take the chain's tail first");
        fewest = fewest.min(pool.cached_pages());
        if engine.sequences().iter().all(|s| s.is_finished()) {
            break;
        }
    }
    // Growth took the 8 never-keyed pages first, then evicted pages 3 and 2 of both
    // layers; the running sequence's release then funded the rest.
    assert_eq!(fewest, 4, "the head of the chain survives its tail's eviction");
    assert_eq!(engine.sequences()[1].generated, model.generate_greedy(&running, 40));
    assert_eq!(engine.sequences()[2].generated, model.generate_greedy(&cold, 78));
    assert_eq!(engine.pool().unwrap().in_use_pages(), 0);
}

#[test]
fn a_key_whose_recorded_tokens_or_parent_differ_is_never_mapped() {
    let scheme = QuantScheme::mxfp4();
    let pool = PagePool::for_kv_rows(32, 4, RowCodec::for_scheme(scheme), 64).shared();
    let publish = |prompt: &[usize], keys: &[u64]| {
        let mut cache = PagedKvCache::with_prefix(&pool, 2, 64, scheme, prompt.len(), prompt, keys).unwrap();
        for t in 0..prompt.len() {
            for layer in 0..2 {
                cache.append(layer, &[t as f32; 64], &[-(t as f32); 64]);
            }
        }
        cache.publish(prompt, keys);
        cache
    };
    let mapped = |pool: &Arc<PagePool>, prompt: &[usize], keys: &[u64]| {
        let hit = pool.lookup_prefix(2, 16, prompt, keys).pages;
        let cache = PagedKvCache::with_prefix(pool, 2, 64, scheme, 16, prompt, keys).unwrap();
        assert_eq!(cache.seq_len(), 4 * hit, "the lookup and the map agree");
        hit
    };
    // A collision: pages holding prompt `a` keyed under the hashes of prompt `b`.
    let a = tokens(9, 4);
    let b = tokens(9, 5);
    let b_keys = prefix_keys(&b, 4);
    let _holder = publish(&a, &b_keys);
    assert_eq!(mapped(&pool, &b, &b_keys), 0, "recorded tokens differ: the collision costs a share, not a token");
    assert_eq!(mapped(&pool, &a, &b_keys), 2, "the same keys with the recorded tokens map");
    // A page whose tokens match but whose parent is another page: prompt `c` shares
    // `a`'s second page of tokens, but its first page is keyed apart.
    let c = with_suffix(&tokens(4, 6), &a[4..]);
    let c_first = prefix_keys(&c, 4)[0];
    let _other = publish(&c[..5], &[c_first]);
    assert_eq!(mapped(&pool, &c, &[c_first, b_keys[1]]), 1, "a parent key that differs stops the run");
}

#[test]
fn sharing_on_and_off_paged_and_f32_runs_are_token_identical() {
    let model = model();
    let prefixes: Vec<Vec<usize>> = (0..3).map(|f| tokens(40 + 8 * f, 10 + f)).collect();
    // Twelve requests over three prefixes, arriving over 40 passes: some while a holder
    // is live, some long after every holder retired; every fourth at priority 1.
    let workload: Vec<(Vec<usize>, SubmitOptions)> = (0..12usize)
        .map(|i| {
            let prompt = with_suffix(&prefixes[i % 3], &tokens(1 + (i * 7) % 20, 30 + i));
            let opts = SubmitOptions::new(4 + (i * 5) % 9).arrival_pass((i * 11) % 41).priority(i32::from(i % 4 == 3));
            (prompt, opts)
        })
        .collect();
    let reference: Vec<Vec<usize>> = workload.iter().map(|(p, o)| model.generate_greedy(p, o.max_new_tokens)).collect();
    for threads in [1usize, 2, 4] {
        for (label, share) in [("shared", true), ("unshared", false)] {
            let mut engine = ServingEngine::paged(&model, 24).with_threads(threads);
            for (prompt, opts) in &workload {
                engine.submit_with(prompt, if share { *opts } else { opts.without_prefix_sharing() });
            }
            let report = engine.run();
            let streams: Vec<Vec<usize>> = engine.sequences().iter().map(|s| s.generated.clone()).collect();
            assert_eq!(streams, reference, "{label} at {threads} threads");
            let pool = engine.pool().unwrap();
            assert_eq!(pool.in_use_pages(), 0, "{label} at {threads} threads: pages leaked");
            assert_eq!(pool.reserved_pages(), 0, "{label} at {threads} threads: reservations leaked");
            assert_eq!(report.prefill_tokens_saved > 0, share, "{label} at {threads} threads");
            assert_eq!(report.prefill_tokens_saved % 16, 0, "whole pages only");
        }
    }
}
