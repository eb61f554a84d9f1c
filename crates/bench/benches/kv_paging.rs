//! Benchmark of the KV-cache backends and the paged serving engine under the paper's
//! headline serving configuration (A-MXFP4+, W-MXFP4).
//!
//! * `kv_{f32,paged}_seq{64,256,512}`: each call rebuilds a cache at the target sequence
//!   length by appending precomputed key/value rows (quantize+memcpy on the f32 backend,
//!   quantize+bit-pack on the paged backend) and then decodes [`DECODE_TOKENS`] tokens
//!   through the generic zero-copy path, so the timing covers both the write (pack) and
//!   read sides of the packed storage. Resident bytes at each length are printed once —
//!   the memory half of the trade: ~7x less cache storage for a modest decode cost.
//! * `paged_seqs{8,16,32}_t{1,2,4,8}`: the paged engine's thread-scaling sweep. Its
//!   `paged_seqs16_t{1,2,4}` entries are the committed `BENCH_serving.json` baselines
//!   `bench_gate` compares, each by its median wall tokens/s at -15%.
//! * `prefix_{shared,unshared}_n{2,8}` and `telemetry_{off,on}`: prefix sharing and
//!   event tracing, each behind its residency or token-identity assertions.

use mx_bench::harness::{model_config, Harness};
use mx_formats::RowCodec;
use mx_llm::kvcache::KvBackend;
use mx_llm::model::argmax;
use mx_llm::{
    KvCache, ModelConfig, ModelQuantConfig, PagePool, PagedKvCache, ServingEngine, SubmitOptions, TelemetryConfig,
    TransformerModel,
};

/// Tokens decoded per timed call after the cache is rebuilt.
const DECODE_TOKENS: usize = 8;

/// Positions per page (the paged-attention block size used throughout the serving stack).
const PAGE_POSITIONS: usize = 16;

/// Deterministic key/value rows with occasional outliers, shared by both backends.
fn kv_rows(kv_dim: usize, seq_len: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
    let gen = |salt: usize| -> Vec<f32> {
        (0..kv_dim)
            .map(|i| {
                let u = (((i + salt) * 2_654_435_761) % 2001) as f32 / 1000.0 - 1.0;
                if (i + salt) % 41 == 7 {
                    u * 20.0
                } else {
                    u
                }
            })
            .collect()
    };
    (0..seq_len).map(|t| (gen(t * 3 + 1), gen(t * 5 + 2))).collect()
}

/// Appends every row to `cache` and decodes `DECODE_TOKENS` tokens through the generic
/// zero-copy path (identical code for both backends; only the storage differs).
fn fill_and_decode<B: KvBackend>(model: &TransformerModel, cache: &mut B, rows: &[(Vec<f32>, Vec<f32>)]) -> usize {
    let scheme = model.quant().kv_cache;
    for (k, v) in rows {
        for layer in 0..model.config().layers {
            cache.append(layer, k, v, scheme);
        }
    }
    let mut next = 1usize;
    for _ in 0..DECODE_TOKENS {
        next = argmax(&model.decode_step_backend(next, cache));
    }
    next
}

fn paged_vs_f32(h: &mut Harness, model: &TransformerModel) {
    let cfg = model.config().clone();
    let kv_dim = cfg.head_dim() * cfg.kv_heads;
    let scheme = model.quant().kv_cache;
    let codec = RowCodec::for_scheme(scheme);
    let config = model_config(model);
    // One shared pool big enough for the longest sequence plus decode headroom.
    let max_positions = 512 + DECODE_TOKENS + 1;
    let pool =
        PagePool::for_kv_rows(cfg.layers * max_positions.div_ceil(PAGE_POSITIONS) + 4, PAGE_POSITIONS, codec, kv_dim)
            .shared();

    for seq_len in [64usize, 256, 512] {
        let rows = kv_rows(kv_dim, seq_len);

        // Report the memory side once, outside the timed calls.
        {
            let mut paged = PagedKvCache::new(&pool, cfg.layers, kv_dim, scheme, seq_len).unwrap();
            let mut flat = KvCache::with_capacity(cfg.layers, kv_dim, seq_len);
            for (k, v) in &rows {
                for layer in 0..cfg.layers {
                    paged.append(layer, k, v);
                    flat.layer_mut(layer).append(k, v, scheme);
                }
            }
            println!(
                "kv_paging seq {seq_len}: resident bytes paged-packed {} vs f32-contiguous {} ({:.1}x)",
                paged.resident_bytes(),
                flat.resident_bytes(),
                flat.resident_bytes() as f64 / paged.resident_bytes() as f64
            );
        }

        h.time(&format!("kv_f32_seq{seq_len}"), "calls", 1.0, &config, || {
            let mut cache = KvCache::with_capacity(cfg.layers, kv_dim, seq_len + DECODE_TOKENS + 1);
            fill_and_decode(model, &mut cache, &rows)
        });
        h.time(&format!("kv_paged_seq{seq_len}"), "calls", 1.0, &config, || {
            let mut cache = PagedKvCache::new(&pool, cfg.layers, kv_dim, scheme, seq_len + DECODE_TOKENS + 1).unwrap();
            fill_and_decode(model, &mut cache, &rows)
        });
    }
}

/// Thread-scaling sweep of the paged continuous-batching engine: the same workload
/// (resident sequences decoding in lock-step) at 1/2/4/8 decode worker threads, sampled
/// by each run's own wall tokens/s. Within a pass every sequence owns its pages, so the
/// decode steps parallelize. (On a single hardware thread the sweep degenerates
/// gracefully: the extra worker threads add only their per-pass scoped-spawn overhead.)
fn thread_scaling(h: &mut Harness, model: &TransformerModel) {
    const PROMPT: usize = 8;
    const NEW_TOKENS: usize = 24;
    let config = model_config(model);
    for resident in [8usize, 16, 32] {
        // Size the pool so every sequence is admitted immediately: the sweep measures
        // decode parallelism, not admission waves.
        let pages = resident * model.config().layers * (PROMPT + NEW_TOKENS + 1).div_ceil(PAGE_POSITIONS);
        for threads in [1usize, 2, 4, 8] {
            h.serve(&format!("paged_seqs{resident}_t{threads}"), &config, || {
                let mut engine = ServingEngine::paged(model, pages).with_threads(threads);
                for s in 0..resident {
                    let prompt: Vec<usize> = (0..PROMPT).map(|i| (s * 13 + i * 7) % 128).collect();
                    engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
                }
                let report = engine.run();
                assert_eq!(report.generated_tokens, resident * NEW_TOKENS);
                report
            });
        }
    }
}

/// Prefix-sharing sweep: N sequences submitting the same long prompt (plus divergent
/// tails) with the pool's prefix cache on vs off. The memory half is printed once —
/// peak resident bytes with sharing stay near one copy of the prompt pages while the
/// unshared baseline grows ~linearly with N — and the timed half runs the whole `run()`
/// including the skipped prefills, so sharing also shows up as throughput. The
/// assertions pin `shared_pages > 0` and the residency win at every N > 1.
fn prefix_sharing(h: &mut Harness, model: &TransformerModel) {
    const COMMON: usize = 50; // 3 full 16-position pages, shared, + a boundary page each
    const NEW_TOKENS: usize = 8;
    let prompts = |n: usize| -> Vec<Vec<usize>> {
        let prefix: Vec<usize> = (0..COMMON).map(|i| (i * 19 + 5) % 128).collect();
        (0..n)
            .map(|s| {
                let mut p = prefix.clone();
                p.push((100 + s * 3) % 128);
                p
            })
            .collect()
    };
    let run = |n: usize, share: bool| {
        let mut engine = ServingEngine::paged(model, 160).with_threads(1);
        for p in prompts(n) {
            let opts = SubmitOptions::new(NEW_TOKENS);
            engine.submit_with(&p, if share { opts } else { opts.without_prefix_sharing() });
        }
        let report = engine.run();
        assert_eq!(report.generated_tokens, n * NEW_TOKENS);
        report
    };

    println!(
        "{:>6} {:>18} {:>18} {:>8} {:>14} {:>12}",
        "seqs", "resident shared B", "resident unshared", "ratio", "shared pages", "saved tokens"
    );
    for n in [1usize, 2, 4, 8] {
        let shared = run(n, true);
        let unshared = run(n, false);
        if n > 1 {
            assert!(shared.shared_pages > 0, "sharing must engage at n={n}");
            assert!(shared.resident_bytes < unshared.resident_bytes, "sharing must shrink residency at n={n}");
        }
        println!(
            "{:>6} {:>18} {:>18} {:>7.2}x {:>14} {:>12}",
            n,
            shared.resident_bytes,
            unshared.resident_bytes,
            unshared.resident_bytes as f64 / shared.resident_bytes as f64,
            shared.shared_pages,
            shared.prefill_tokens_saved
        );
    }

    let config = model_config(model);
    for n in [2usize, 8] {
        for (label, share) in [("shared", true), ("unshared", false)] {
            h.serve(&format!("prefix_{label}_n{n}"), &config, || run(n, share));
        }
    }
}

/// Telemetry overhead: the same paged serving workload with event tracing off vs on.
/// The `off` arm is the default-path number the < 2% regression budget is judged
/// against; the `on` arm prices full event recording. Token streams are asserted
/// identical up front — tracing observes the schedule, it never perturbs it.
fn telemetry_overhead(h: &mut Harness, model: &TransformerModel) {
    const RESIDENT: usize = 8;
    const PROMPT: usize = 8;
    const NEW_TOKENS: usize = 24;
    let pages = RESIDENT * model.config().layers * (PROMPT + NEW_TOKENS + 1).div_ceil(PAGE_POSITIONS);
    let run = |config: TelemetryConfig| {
        let mut engine = ServingEngine::paged(model, pages).with_threads(2).with_telemetry(config);
        for s in 0..RESIDENT {
            let prompt: Vec<usize> = (0..PROMPT).map(|i| (s * 13 + i * 7) % 128).collect();
            engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
        }
        let report = engine.run();
        assert_eq!(report.generated_tokens, RESIDENT * NEW_TOKENS);
        let tokens: Vec<Vec<usize>> = engine.sequences().iter().map(|s| s.generated.clone()).collect();
        (report, tokens)
    };
    assert_eq!(run(TelemetryConfig::Off).1, run(TelemetryConfig::On).1, "tracing must not perturb the token streams");

    let config = model_config(model);
    h.serve("telemetry_off", &config, || run(TelemetryConfig::Off).0);
    h.serve("telemetry_on", &config, || run(TelemetryConfig::On).0);
}

fn main() {
    let mut h = Harness::from_args("kv_paging");
    let model = TransformerModel::new(ModelConfig::tiny_test(17), ModelQuantConfig::a_mxfp4_plus());
    paged_vs_f32(&mut h, &model);
    thread_scaling(&mut h, &model);
    prefix_sharing(&mut h, &model);
    telemetry_overhead(&mut h, &model);
    h.finish();
}
