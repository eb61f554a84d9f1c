//! Criterion benchmark of the decode hot path under the paper's headline serving
//! configuration (A-MXFP4+, W-MXFP4): per-token decode against caches of 64-512
//! positions, a 4-sequence batched serving run, and the f32-backend thread-scaling sweep.
//!
//! Decode reads cached keys/values through borrowed row slices, reuses scratch buffers,
//! and multiplies against weights direct-cast once; a full-cache copy per step would show
//! up here as time growing faster than linearly with the cache length.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mx_llm::model::argmax;
use mx_llm::{KvCache, ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TransformerModel};

/// Tokens decoded per measured iteration (amortizes the per-iteration cache clone).
const DECODE_TOKENS: usize = 16;

fn bench_model() -> TransformerModel {
    TransformerModel::new(ModelConfig::tiny_test(17), ModelQuantConfig::a_mxfp4_plus())
}

/// Prefill one token, then extend the cache to `seq_len` positions through cheap decode.
fn cache_at(model: &TransformerModel, seq_len: usize) -> KvCache {
    let mut cache = KvCache::with_capacity(
        model.config().layers,
        model.config().head_dim() * model.config().kv_heads,
        seq_len + DECODE_TOKENS + 1,
    );
    let logits = model.forward(&[1], &mut cache);
    let mut next = argmax(logits.row(0));
    while cache.seq_len() < seq_len {
        next = argmax(&model.decode_step(next, &mut cache));
    }
    cache
}

fn decode_per_token(c: &mut Criterion) {
    let model = bench_model();
    let mut group = c.benchmark_group("decode_per_token");
    group.sample_size(20);
    for seq_len in [64usize, 256, 512] {
        let base = cache_at(&model, seq_len);
        group.bench_with_input(BenchmarkId::new("view", seq_len), &base, |b, base| {
            b.iter(|| {
                let mut cache = base.clone();
                // Vec::clone keeps capacity == len; restore decode headroom so the
                // measured loop never pays a growth reallocation.
                cache.reserve(DECODE_TOKENS + 1);
                let mut next = 2usize;
                for _ in 0..DECODE_TOKENS {
                    next = argmax(&model.decode_step(next, &mut cache));
                }
                next
            });
        });
    }
    group.finish();
}

fn batched_serving(c: &mut Criterion) {
    let model = bench_model();
    let mut group = c.benchmark_group("serving_batch4");
    group.sample_size(10);
    group.bench_function("prefill8_decode32", |b| {
        b.iter(|| {
            let mut engine = ServingEngine::new(&model);
            for s in 0..4usize {
                let prompt: Vec<usize> = (0..8).map(|i| (s * 8 + i) % 128).collect();
                engine.submit_with(&prompt, SubmitOptions::new(32));
            }
            engine.run().generated_tokens
        });
    });
    group.finish();
}

/// Thread-scaling sweep of the f32-contiguous engine (the paged twin lives in the
/// `kv_paging` bench): 16 resident sequences decoding in lock-step across 1/2/4/8 decode
/// worker threads. Sequences are independent, so wall time should fall with hardware
/// threads while the generated streams stay bit-identical (pinned by the `mx-llm` tests).
fn serving_thread_scaling(c: &mut Criterion) {
    let model = bench_model();
    const RESIDENT: usize = 16;
    const NEW_TOKENS: usize = 24;
    let mut group = c.benchmark_group("decode_thread_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("f32_seqs16", threads), &threads, |b, &threads| {
            b.iter(|| {
                let mut engine = ServingEngine::new(&model).with_threads(threads);
                for s in 0..RESIDENT {
                    let prompt: Vec<usize> = (0..8).map(|i| (s * 11 + i * 3) % 128).collect();
                    engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
                }
                let report = engine.run();
                assert_eq!(report.generated_tokens, RESIDENT * NEW_TOKENS);
                report.generated_tokens
            });
        });
    }
    group.finish();
}

/// The `--json` snapshot workload: the f32-backend thread-scaling sweep, one entry per
/// thread count carrying wall throughput and the latency percentiles.
fn serving_snapshot() -> String {
    let model = bench_model();
    const RESIDENT: usize = 16;
    const NEW_TOKENS: usize = 24;
    let entries: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let mut engine = ServingEngine::new(&model).with_threads(threads);
            for s in 0..RESIDENT {
                let prompt: Vec<usize> = (0..8).map(|i| (s * 11 + i * 3) % 128).collect();
                engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
            }
            let report = engine.run();
            assert_eq!(report.generated_tokens, RESIDENT * NEW_TOKENS);
            mx_bench::snapshot::entry_json(&format!("f32_seqs{RESIDENT}_t{threads}"), &report)
        })
        .collect();
    mx_bench::snapshot::document_json("decode_serving", &entries)
}

criterion_group!(benches, decode_per_token, batched_serving, serving_thread_scaling);

fn main() {
    // `--json <path>` replaces the criterion run with one deterministic serving sweep
    // written as a JSON snapshot (throughput + latency percentiles).
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
