//! Serving performance, two ways:
//!
//! 1. *Analytic*: the GPU model's estimated prefill/decode times and end-to-end speedups
//!    of MX and MX+ configurations over BF16, as in the paper's Figures 11-13.
//! 2. *Measured*: the real batched serving engine (`mxplus::llm::ServingEngine`),
//!    reporting decode tokens/sec and KV-cache bytes per scheme.
//!
//! Run with: `cargo run --release --example serving_performance`

use mxplus::formats::QuantScheme;
use mxplus::gpu::gemm::GemmConfig;
use mxplus::gpu::inference::{InferenceModel, InferenceWorkload, PerfModelConfig};
use mxplus::gpu::GpuSpec;
use mxplus::llm::{ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TransformerModel};

fn measured_serving() {
    let cfg = ModelConfig::llama2_7b();
    println!("\nMeasured: batched serving on the scaled-down {} analogue", cfg.name);
    println!("4 sequences x 16 prompt tokens x 48 generated tokens, per-sequence KV caches");
    println!("(theoretical = scheme-math bytes; the f32 backend actually holds 32-bit rows;");
    println!(" decode tok/s is the summed per-worker rate, wall tok/s the end-to-end throughput)\n");
    println!("{:>16} {:>12} {:>12} {:>14} {:>12}", "config", "decode tok/s", "wall tok/s", "theory KiB", "vs FP32");
    for quant in [
        ModelQuantConfig::BASELINE,
        ModelQuantConfig::uniform(QuantScheme::mxfp8()),
        ModelQuantConfig::uniform(QuantScheme::mxfp4()),
        ModelQuantConfig::a_mxfp4_plus(),
    ] {
        let model = TransformerModel::new(cfg.clone(), quant);
        let mut engine = ServingEngine::new(&model);
        for s in 0..4usize {
            let prompt: Vec<usize> = (0..16).map(|i| (s * 31 + i * 7) % cfg.vocab).collect();
            engine.submit_with(&prompt, SubmitOptions::new(48));
        }
        let report = engine.run();
        println!(
            "{:>16} {:>12.0} {:>12.0} {:>14.1} {:>11.1}x",
            quant.name(),
            report.decode_tokens_per_sec,
            report.tokens_per_sec_parallel,
            report.theoretical_bytes as f64 / 1024.0,
            report.theoretical_compression()
        );
    }
}

fn main() {
    let model = InferenceModel::new(GpuSpec::rtx5090(), PerfModelConfig::llama2_13b());
    let workload = InferenceWorkload::paper_default(64);

    println!("Llama-2-13B, 4 requests x 1024 input tokens x 64 output tokens (RTX 5090-like GPU)\n");
    println!("{:>16} {:>12} {:>12} {:>12} {:>10}", "format", "prefill ms", "decode ms", "total ms", "vs BF16");
    let baseline = model.stage_times(workload, GemmConfig::BF16).total_s();
    for (name, cfg) in [
        ("BF16", GemmConfig::BF16),
        ("MXFP8", GemmConfig::MXFP8),
        ("MXFP4", GemmConfig::MXFP4),
        ("A-MXFP4+ (SW)", GemmConfig::A_MXFP4_PLUS_SW),
        ("MXFP4+ (HW)", GemmConfig::MXFP4_PLUS_HW),
        ("MXFP4++ (HW)", GemmConfig::MXFP4_PP_HW),
    ] {
        let t = model.stage_times(workload, cfg);
        println!(
            "{:>16} {:>12.2} {:>12.2} {:>12.2} {:>9.2}x",
            name,
            t.prefill_s * 1e3,
            t.decode_s * 1e3,
            t.total_s() * 1e3,
            baseline / t.total_s()
        );
    }

    println!("\nDecode is memory-bound, so the extra sparse MMA of the software MX+ path is nearly free");
    println!("there; with hardware support MXFP4+ matches MXFP4 end to end.");

    measured_serving();
}
