//! Benchmarks of quantized matrix multiplication: the software fake-quant path that backs
//! every model-quality experiment, across operand formats, and the analytic GPU GEMM
//! model's own cost.

use mx_bench::harness::Harness;
use mx_formats::quantize::MatmulQuantConfig;
use mx_formats::QuantScheme;
use mx_gpu_sim::gemm::{gemm_time, GemmConfig, GemmShape};
use mx_gpu_sim::GpuSpec;
use mx_tensor::{synth, ActivationProfile};

fn main() {
    let mut h = Harness::from_args("matmul");
    let (m, k, n) = (16, 1024, 256);
    let a = ActivationProfile::llm(k, 3).sample(m, 0);
    let w = synth::xavier_weights(k, n, 1.0, 9);
    let gflop = 2.0 * (m * k * n) as f64 / 1e9;
    for (name, cfg) in [
        ("BF16", MatmulQuantConfig::BASELINE),
        ("MXFP4", MatmulQuantConfig::uniform(QuantScheme::mxfp4())),
        ("A-MXFP4+", MatmulQuantConfig::a_mxfp4_plus()),
        ("MXFP4++", MatmulQuantConfig::uniform(QuantScheme::mxfp4_pp())),
        ("MXFP8", MatmulQuantConfig::uniform(QuantScheme::mxfp8())),
    ] {
        h.time(&format!("matmul_{m}x{k}x{n}_{name}"), "gflop", gflop, name, || {
            std::hint::black_box(&a).matmul_quantized(std::hint::black_box(&w), cfg)
        });
    }

    let gpu = GpuSpec::rtx5090();
    for (label, shape, cfg) in [
        ("gpu_model_decode_shape", GemmShape::new(4, 5120, 5120), GemmConfig::A_MXFP4_PLUS_SW),
        ("gpu_model_prefill_shape", GemmShape::new(4096, 5120, 5120), GemmConfig::MXFP4_PLUS_HW),
    ] {
        h.time(label, "calls", 1.0, "RTX 5090", || gemm_time(&gpu, shape, std::hint::black_box(cfg)));
    }
    h.finish();
}
