//! Criterion benchmark of the KV-cache backends under the paper's headline serving
//! configuration (A-MXFP4+, W-MXFP4): the packed-paged backend vs the f32-contiguous
//! baseline.
//!
//! Each measured iteration rebuilds a cache at the target sequence length by appending
//! precomputed key/value rows (quantize+memcpy on the f32 backend, quantize+bit-pack on
//! the paged backend) and then decodes [`DECODE_TOKENS`] tokens through the generic
//! zero-copy path, so the timing covers both the write (pack) and read (per-row unpack)
//! sides of the packed storage. Resident bytes at each length are printed once at
//! startup — that is the memory half of the trade the bench quantifies: ~7x less cache
//! storage for a modest per-row decode cost.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mx_formats::RowCodec;
use mx_llm::kvcache::KvBackend;
use mx_llm::model::argmax;
use mx_llm::{
    KvCache, ModelConfig, ModelQuantConfig, PagePool, PagedKvCache, ServingEngine, SubmitOptions, TelemetryConfig,
    TransformerModel,
};

/// Tokens decoded per measured iteration after the cache is rebuilt.
const DECODE_TOKENS: usize = 8;

/// Positions per page (the paged-attention block size used throughout the serving stack).
const PAGE_POSITIONS: usize = 16;

fn bench_model() -> TransformerModel {
    TransformerModel::new(ModelConfig::tiny_test(17), ModelQuantConfig::a_mxfp4_plus())
}

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

fn paged_vs_f32(c: &mut Criterion) {
    let model = bench_model();
    let cfg = model.config().clone();
    let kv_dim = cfg.head_dim() * cfg.kv_heads;
    let scheme = model.quant().kv_cache;
    let codec = RowCodec::for_scheme(scheme);
    // One shared pool big enough for the longest sequence plus decode headroom.
    let max_positions = 512 + DECODE_TOKENS + 1;
    let pool =
        PagePool::for_kv_rows(cfg.layers * max_positions.div_ceil(PAGE_POSITIONS) + 4, PAGE_POSITIONS, codec, kv_dim)
            .shared();

    let mut group = c.benchmark_group("kv_paging");
    group.sample_size(10);
    for seq_len in [64usize, 256, 512] {
        let rows = kv_rows(kv_dim, seq_len);

        // Report the memory side once, outside the timing loop.
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

        group.bench_with_input(BenchmarkId::new("f32", seq_len), &rows, |b, rows| {
            b.iter(|| {
                let mut cache = KvCache::with_capacity(cfg.layers, kv_dim, seq_len + DECODE_TOKENS + 1);
                fill_and_decode(&model, &mut cache, rows)
            });
        });
        group.bench_with_input(BenchmarkId::new("paged", seq_len), &rows, |b, rows| {
            b.iter(|| {
                let mut cache =
                    PagedKvCache::new(&pool, cfg.layers, kv_dim, scheme, seq_len + DECODE_TOKENS + 1).unwrap();
                fill_and_decode(&model, &mut cache, rows)
            });
        });
    }
    group.finish();
}

/// Thread-scaling sweep of the paged continuous-batching engine: the same oversubscribed
/// workload (resident sequences decoding in lock-step) at 1/2/4/8 decode worker threads.
/// Within a pass every sequence owns its pages, so the decode steps parallelize; the
/// measured wall time of `run()` is the number the README's scaling table reports.
/// (On a single hardware thread the sweep degenerates gracefully: the extra worker
/// threads add only their per-pass scoped-spawn overhead.)
fn thread_scaling(c: &mut Criterion) {
    let model = bench_model();
    let cfg = model.config().clone();
    const PROMPT: usize = 8;
    const NEW_TOKENS: usize = 24;
    let mut group = c.benchmark_group("serving_thread_scaling");
    group.sample_size(10);
    for resident in [8usize, 16, 32] {
        // Size the pool so every sequence is admitted immediately: the sweep measures
        // decode parallelism, not admission waves.
        let pages = resident * cfg.layers * (PROMPT + NEW_TOKENS + 1).div_ceil(PAGE_POSITIONS);
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("paged_seqs{resident}"), threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let mut engine = ServingEngine::paged(&model, pages).with_threads(threads);
                        for s in 0..resident {
                            let prompt: Vec<usize> = (0..PROMPT).map(|i| (s * 13 + i * 7) % 128).collect();
                            engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
                        }
                        let report = engine.run();
                        assert_eq!(report.generated_tokens, resident * NEW_TOKENS);
                        report.generated_tokens
                    });
                },
            );
        }
    }
    group.finish();
}

/// Prefix-sharing sweep: N sequences submitting the same long prompt (plus divergent
/// tails) with refcounted page sharing on vs off. The memory half is printed once at
/// startup — peak resident bytes with sharing stay near one copy of the prompt pages
/// while the unshared baseline grows ~linearly with N — and the timed half measures the
/// whole `run()` including the skipped prefills, so sharing also shows up as wall-clock
/// savings. Run in CI smoke mode, the assertions pin `shared_pages > 0` and the
/// residency win at every N.
fn prefix_sharing(c: &mut Criterion) {
    let model = bench_model();
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
        let mut engine = ServingEngine::paged(&model, 160).with_threads(1);
        for p in prompts(n) {
            let opts = SubmitOptions::new(NEW_TOKENS);
            engine.submit_with(&p, if share { opts } else { opts.without_prefix_sharing() });
        }
        engine.run()
    };

    println!(
        "{:>6} {:>18} {:>18} {:>8} {:>14} {:>12}",
        "seqs", "resident shared B", "resident unshared", "ratio", "shared pages", "saved tokens"
    );
    for n in [1usize, 2, 4, 8] {
        let shared = run(n, true);
        let unshared = run(n, false);
        assert_eq!(shared.generated_tokens, unshared.generated_tokens);
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

    let mut group = c.benchmark_group("prefix_sharing");
    group.sample_size(10);
    for n in [2usize, 8] {
        for (label, share) in [("shared", true), ("unshared", false)] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
                b.iter(|| {
                    let report = run(n, share);
                    assert_eq!(report.generated_tokens, n * NEW_TOKENS);
                    report.generated_tokens
                });
            });
        }
    }
    group.finish();
}

/// Telemetry-overhead bench (ISSUE-8): the same paged serving workload with event
/// tracing disabled vs enabled. The `off` arm is the default-path number the < 2%
/// regression budget is judged against; the `on` arm prices full event recording.
/// Token streams are asserted identical up front — tracing observes the schedule, it
/// never perturbs it.
fn telemetry_overhead(c: &mut Criterion) {
    let model = bench_model();
    let cfg = model.config().clone();
    const RESIDENT: usize = 8;
    const PROMPT: usize = 8;
    const NEW_TOKENS: usize = 24;
    let pages = RESIDENT * cfg.layers * (PROMPT + NEW_TOKENS + 1).div_ceil(PAGE_POSITIONS);
    let run = |config: TelemetryConfig| {
        let mut engine = ServingEngine::paged(&model, pages).with_threads(2).with_telemetry(config);
        for s in 0..RESIDENT {
            let prompt: Vec<usize> = (0..PROMPT).map(|i| (s * 13 + i * 7) % 128).collect();
            engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
        }
        let report = engine.run();
        assert_eq!(report.generated_tokens, RESIDENT * NEW_TOKENS);
        let tokens: Vec<Vec<usize>> = engine.sequences().iter().map(|s| s.generated.clone()).collect();
        tokens
    };
    assert_eq!(run(TelemetryConfig::Off), run(TelemetryConfig::On), "tracing must not perturb the token streams");

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    for (label, enabled) in [("off", false), ("on", true)] {
        group.bench_function(label, |b| {
            b.iter(|| run(if enabled { TelemetryConfig::On } else { TelemetryConfig::Off }));
        });
    }
    group.finish();
}

/// The `--json` snapshot workload: the paged thread-scaling sweep at a fixed size, one
/// entry per thread count carrying wall throughput and the latency percentiles.
fn serving_snapshot() -> String {
    let model = bench_model();
    let cfg = model.config().clone();
    const RESIDENT: usize = 16;
    const PROMPT: usize = 8;
    const NEW_TOKENS: usize = 24;
    let pages = RESIDENT * cfg.layers * (PROMPT + NEW_TOKENS + 1).div_ceil(PAGE_POSITIONS);
    let entries: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let mut engine = ServingEngine::paged(&model, pages).with_threads(threads);
            for s in 0..RESIDENT {
                let prompt: Vec<usize> = (0..PROMPT).map(|i| (s * 13 + i * 7) % 128).collect();
                engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
            }
            let report = engine.run();
            assert_eq!(report.generated_tokens, RESIDENT * NEW_TOKENS);
            mx_bench::snapshot::entry_json(&format!("paged_seqs{RESIDENT}_t{threads}"), &report)
        })
        .collect();
    mx_bench::snapshot::document_json("kv_paging_serving", &entries)
}

criterion_group!(benches, paged_vs_f32, thread_scaling, prefix_sharing, telemetry_overhead);

fn main() {
    // `--json <path>` replaces the criterion run with one deterministic serving sweep
    // whose throughput + latency percentiles are written as a JSON snapshot (the
    // committed `BENCH_serving.json` baseline and the CI artifact both come from here).
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let path = args.next().expect("--json requires a file path");
            std::fs::write(&path, serving_snapshot()).expect("write --json snapshot");
            println!("wrote serving latency snapshot to {path}");
            return;
        }
    }
    benches();
}
