//! Benchmarks of the block quantization kernels: the software cost of MX, MX+ and MX++
//! conversion (the substrate behind Table 6's relative quantization times).

use mx_bench::harness::Harness;
use mx_formats::layout::PackedMxPlusRow;
use mx_formats::mxplus::MxPlusFormat;
use mx_formats::QuantScheme;
use mx_tensor::ActivationProfile;

/// Elements per quantized row.
const ROW: usize = 4096;

fn main() {
    let mut h = Harness::from_args("quantize");
    let row = ActivationProfile::llm(ROW, 11).sample(1, 0).into_data();
    for scheme in [
        QuantScheme::mxfp4(),
        QuantScheme::mxfp4_plus(),
        QuantScheme::mxfp4_pp(),
        QuantScheme::mxfp6(),
        QuantScheme::mxfp8(),
        QuantScheme::mxint8(),
        QuantScheme::Nvfp4,
        QuantScheme::Nvfp4Plus,
    ] {
        // The label keeps the scheme's short name ("MXFP6", not "MXFP6 (E2M3)").
        let name = scheme.name();
        let short = name.split(' ').next().unwrap_or_default();
        h.time(&format!("quantize_row_{short}"), "elements", ROW as f64, &name, || {
            scheme.quantize_dequantize(std::hint::black_box(&row))
        });
    }

    let row = ActivationProfile::llm(ROW, 13).sample(1, 0).into_data();
    let blocks = MxPlusFormat::MXFP4_PLUS.quantize_row(&row);
    let packed = PackedMxPlusRow::pack(&blocks);
    h.time("mxfp4_plus_pack", "elements", ROW as f64, "MXFP4+", || {
        PackedMxPlusRow::pack(std::hint::black_box(&blocks))
    });
    h.time("mxfp4_plus_unpack", "elements", ROW as f64, "MXFP4+", || std::hint::black_box(&packed).unpack().unwrap());
    h.finish();
}
