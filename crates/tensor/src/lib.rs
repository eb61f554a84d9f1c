//! # mx-tensor
//!
//! Dense tensor substrate for the MX+ reproduction: a small row-major matrix type,
//! reference matrix multiplication with FP32 accumulation, quantized matrix
//! multiplication driven by [`mx_formats::QuantScheme`], weight panels with a
//! register-tiled GEMM bit-identical to the reference ([`panels`]), the
//! elementwise/normalization kernels a transformer needs, and synthetic activation/weight
//! generators whose outlier structure is calibrated to the paper's observations
//! (Figure 4).
//!
//! The crate is deliberately dependency-light (no BLAS): the reproduction's experiments
//! are about *quantization error* and *relative* performance, not absolute GEMM speed.
//!
//! ```
//! use mx_tensor::Matrix;
//! use mx_formats::quantize::MatmulQuantConfig;
//!
//! let a = Matrix::from_fn(4, 64, |r, c| ((r * 64 + c) as f32 * 0.01).sin());
//! let w = Matrix::from_fn(64, 8, |r, c| ((r + c) as f32 * 0.02).cos());
//! let exact = a.matmul(&w);
//! let quant = a.matmul_quantized(&w, MatmulQuantConfig::a_mxfp4_plus());
//! assert_eq!(exact.shape(), quant.shape());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod kernels;
pub mod matrix;
pub mod panels;
pub mod quantized;
pub mod synth;

pub use matrix::Matrix;
pub use panels::WeightPanels;
pub use quantized::QuantizedLinear;
pub use synth::{ActivationProfile, OutlierSpec};
