//! # mx-formats
//!
//! Block floating-point (BFP) and Open Compute Project *Microscaling* (MX) data formats,
//! together with the **MX+** / **MX++** outlier-aware extensions proposed in
//! *"MX+: Pushing the Limits of Microscaling Formats for Efficient Large Language Model
//! Serving"* (MICRO 2025).
//!
//! The crate provides bit-exact software implementations of:
//!
//! * IEEE-like low-bit *minifloat* element codecs (E2M1, E2M3, E3M2, E4M3, E5M2 and any
//!   other `ExMy` configuration) with round-to-nearest-even semantics
//!   ([`minifloat`], [`element`]).
//! * The E8M0 power-of-two shared-scale codec used by the MX family ([`scale`]).
//! * The concrete MX-compliant formats MXFP4 / MXFP6 / MXFP8 / MXINT8 (and the paper's
//!   hypothetical MXINT4), plus the industry BFP variants MSFP12/14/16 and SMX4/6/9, and
//!   NVIDIA's NVFP4 ([`mxfp`], [`mxint`], [`msfp`], [`smx`], [`nvfp`]).
//! * The **MX+** extension: the block-max (BM) element's exponent field is repurposed as an
//!   extended mantissa, with a one-byte-per-block metadata word carrying the BM index
//!   ([`mxplus`]), and the **MX++** variant that additionally decouples the non-block-max
//!   shared scale using the reserved metadata bits ([`mxpp`]).
//! * Bit-packed storage layouts ([`layout`]), quantization-error metrics ([`metrics`]),
//!   channel reordering ([`reorder`]) and top-k outlier promotion ([`topk`]) used by the
//!   paper's analysis sections.
//! * A fast, bit-exact MX/MX+ block quantizer (`cast.rs`) behind every hot MX/MX+
//!   conversion, pinned against the scalar reference codecs above.
//! * A single high-level entry point, [`quantize::QuantScheme`], that fake-quantizes a
//!   tensor row with any of the above formats so that downstream crates (the LLM and DNN
//!   substrates) can evaluate model quality under each format.
//!
//! ## Quickstart
//!
//! ```
//! use mx_formats::quantize::QuantScheme;
//!
//! // A block with a large outlier, as in Figure 4 of the paper.
//! let row = [-0.27_f32, -0.19, 0.99, -0.20, -9.84, -0.39, 0.11, -0.05,
//!            0.02, 0.33, -0.41, 0.25, 0.17, -0.08, 0.61, -0.13,
//!            0.04, -0.22, 0.09, 0.31, -0.29, 0.14, -0.36, 0.07,
//!            0.19, -0.11, 0.23, -0.16, 0.27, -0.21, 0.12, 0.05];
//!
//! let mxfp4 = QuantScheme::mxfp4().quantize_dequantize(&row);
//! let mxfp4_plus = QuantScheme::mxfp4_plus().quantize_dequantize(&row);
//!
//! let err = |q: &[f32]| -> f32 {
//!     row.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / row.len() as f32
//! };
//! // MX+ always has lower (or equal) block error than plain MXFP4.
//! assert!(err(&mxfp4_plus) <= err(&mxfp4));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bf16;
pub mod block;
pub(crate) mod cast;
pub mod element;
pub mod error;
pub mod kernels;
pub mod layout;
pub mod metrics;
pub mod minifloat;
pub mod msfp;
pub mod mxfp;
pub mod mxint;
pub mod mxplus;
pub mod mxpp;
pub mod nvfp;
pub mod quantize;
pub mod reorder;
pub mod scale;
pub mod smx;
pub mod topk;

pub use bf16::Bf16;
pub use block::{MxBlock, BLOCK_SIZE};
pub use element::ElementType;
pub use error::FormatError;
pub use layout::{AttnGeometry, PackedRows, RowCodec};
pub use mxfp::MxFormat;
pub use mxplus::MxPlusBlock;
pub use quantize::QuantScheme;
pub use scale::SharedScale;
