//! # mx-llm
//!
//! A from-scratch transformer inference substrate with pluggable quantized matrix
//! multiplication, used to reproduce the model-quality experiments of the MX+ paper
//! (Figures 2-3, 14 and Tables 2-3, 7-8, 10-12).
//!
//! ## What is real and what is synthetic
//!
//! The transformer itself — embeddings, rotary attention with a KV cache, gated MLPs,
//! RMS/LayerNorm, the language-model head, prefill and decode — is fully implemented and
//! every dot-product operand can be quantized with any [`mx_formats::QuantScheme`],
//! following the paper's computation flow (vector ops stay in BF16/FP32).
//!
//! What we cannot ship are the pre-trained weights of OPT/Llama/Mistral/Phi/Qwen and the
//! WikiText-2/C4 corpora. Instead, each paper model is represented by a
//! [`config::ModelConfig`] preset whose weights are drawn deterministically and whose
//! activation statistics (channel-concentrated outliers) are calibrated to the paper's
//! observations via [`mx_tensor::ActivationProfile`]. Model quality is reported through a
//! *perplexity proxy*: the calibrated BF16 perplexity of the model (taken from the paper's
//! baseline column) inflated by the measured KL divergence between the quantized and
//! reference model's next-token distributions over a synthetic token stream. Task accuracy
//! (Table 2) is likewise a *margin-based proxy*. DESIGN.md discusses why this preserves
//! the result shape the reproduction targets.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod eval;
pub mod fault;
pub mod kvcache;
pub mod model;
pub mod paging;
pub mod quant_config;
pub mod sampling;
pub mod serving;
pub mod tasks;
pub mod weights;

pub use config::ModelConfig;
pub use eval::{evaluate_perplexity, PerplexityReport};
pub use fault::{FaultKind, FaultPlan, RecoveryPolicy};
pub use kvcache::{KvBackend, KvCache, KvLayerReader, LayerKvCache};
pub use model::TransformerModel;
pub use paging::{
    audit_caches, PagePool, PagedKvCache, PagedLayerReader, PagedScratch, PagingError, SharedPrefix, SpilledKv,
};
pub use quant_config::ModelQuantConfig;
pub use sampling::{Sampling, SamplingPolicy, SeqRng};
pub use serving::{DrainReport, FinishReason, Sequence, ServingEngine, ServingReport, SubmitOptions, PREFILL_BUDGET};
// Telemetry types that appear in the serving API surface (reports, tracing config),
// re-exported so engine users need no direct mx-telemetry dependency.
pub use mx_telemetry::{
    Category, Clock, Event, EventKind, Histogram, LatencySummary, MonotonicClock, QuantileSummary, Telemetry,
    TelemetryConfig, TestClock, Trace,
};
