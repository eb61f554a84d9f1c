//! Golden logits digest: the numeric contract of the serving forward pass, pinned as a
//! hash rather than against another code path.
//!
//! For a fixed prompt on the `llama2_7b` toy, the digest folds the `to_bits` of every
//! prefill logit and of the logits of 8 greedy decode steps into one FNV-1a hash, under
//! three quantization configurations. The prefill runs 13 rows and each decode step one,
//! so both the many-row and the single-row projection kernels are covered. Any change to
//! a single bit of any logit changes the digest; a change that is meant to keep the
//! model's numbers must keep these values.
//!
//! The digests were recorded on x86_64 Linux with glibc 2.36, on a CPU with AVX2 and FMA,
//! and read the same under `MX_FORCE_SCALAR_KERNELS=1`. The logits pass through
//! `f32::exp` (softmax, SiLU) and `powf` (rotary), which call the platform's libm, and
//! libm does not round correctly: another libm or architecture can give other bits with
//! no code change. So the test only runs on x86_64 Linux with glibc.
#![cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]

use mx_formats::QuantScheme;
use mx_llm::model::argmax;
use mx_llm::{ModelConfig, ModelQuantConfig, TransformerModel};

/// Greedy decode steps folded into the digest after the prefill.
const DECODE_STEPS: usize = 8;

/// FNV-1a over the bit patterns of `values`, continuing from `hash`.
fn fold(hash: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn digest(quant: ModelQuantConfig) -> u64 {
    let model = TransformerModel::new(ModelConfig::llama2_7b(), quant);
    let vocab = model.config().vocab;
    let prompt: Vec<usize> = (0..13).map(|i| (i * 37 + 5) % vocab).collect();
    let (logits, mut cache) = model.prefill(&prompt);
    let mut hash = fold(0xcbf2_9ce4_8422_2325, logits.data());
    let mut next = argmax(logits.row(logits.rows() - 1));
    for _ in 0..DECODE_STEPS {
        let step = model.decode_step(next, &mut cache);
        hash = fold(hash, &step);
        next = argmax(&step);
    }
    hash
}

#[test]
fn llama2_7b_logits_match_the_golden_digest() {
    let cases = [
        ("A-MXFP4+", ModelQuantConfig::a_mxfp4_plus(), 0xb55c_c9d9_c902_c080),
        ("BASELINE", ModelQuantConfig::BASELINE, 0xd8bc_cd13_8841_3164),
        ("MXFP4+", ModelQuantConfig::uniform(QuantScheme::mxfp4_plus()), 0x29b4_7265_d755_7a46),
    ];
    let got: Vec<(&str, u64)> = cases.iter().map(|&(name, quant, _)| (name, digest(quant))).collect();
    for ((name, _, expected), (_, actual)) in cases.iter().zip(&got) {
        assert_eq!(
            *actual, *expected,
            "{name}: logits digest {actual:#018x} != golden {expected:#018x}; all: {got:x?}"
        );
    }
}
