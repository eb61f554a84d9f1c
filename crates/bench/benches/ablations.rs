//! Ablation benchmarks for the format's design choices: block size, the MX+ / MX++
//! conversion cost, top-k outlier promotion and the BM split used by the software
//! Tensor-Core path.

use mx_bench::harness::Harness;
use mx_formats::block::fake_quantize_row;
use mx_formats::mxplus::MxPlusBlock;
use mx_formats::mxpp::fake_quantize_row_pp;
use mx_formats::topk::quantize_row_topk;
use mx_formats::{ElementType, QuantScheme};
use mx_tensor::ActivationProfile;

/// Elements per ablation row.
const ROW: usize = 4096;

fn main() {
    let mut h = Harness::from_args("ablations");
    let row = ActivationProfile::llm(ROW, 17).sample(1, 0).into_data();
    let work = ROW as f64;
    for block in [16usize, 32, 64, 128] {
        h.time(&format!("block_size_{block}"), "elements", work, "MXFP4", || {
            fake_quantize_row(ElementType::E2M1, block, std::hint::black_box(&row))
        });
    }

    h.time("variant_mx", "elements", work, "MXFP4", || {
        fake_quantize_row(ElementType::E2M1, 32, std::hint::black_box(&row))
    });
    h.time("variant_mx_plus", "elements", work, "MXFP4+", || {
        QuantScheme::mxfp4_plus().quantize_dequantize(std::hint::black_box(&row))
    });
    h.time("variant_mx_plus_plus", "elements", work, "MXFP4++", || {
        fake_quantize_row_pp(ElementType::E2M1, 32, std::hint::black_box(&row))
    });

    for k in [0usize, 1, 2, 4] {
        h.time(&format!("topk_promotion_{k}"), "elements", work, "MXFP4", || {
            quantize_row_topk(k, std::hint::black_box(&row))
        });
    }

    // Cost of splitting the BM into BM_H + BM_L for every block of a row (the per-kernel
    // fragment preparation work of the software integration, Algorithm 1).
    let blocks: Vec<MxPlusBlock> = row.chunks(32).map(|c| MxPlusBlock::quantize(ElementType::E2M1, c)).collect();
    h.time("bm_split", "elements", work, "MXFP4+", || {
        std::hint::black_box(&blocks)
            .iter()
            .map(|blk| blk.split_bm())
            .fold((0.0_f32, 0.0_f32), |acc, (h, l)| (acc.0 + h, acc.1 + l))
    });
    h.finish();
}
