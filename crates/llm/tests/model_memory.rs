//! What building a model costs in memory, counted by the global allocator.
//!
//! `TransformerModel::new` casts each projection into its `WeightPanels` as soon as it is
//! drawn and drops the raw `f32` matrix before drawing the next, and the model keeps only
//! what its forward reads. So on the `llama2_7b` toy under A-MXFP4+:
//! * the live bytes the build leaves behind are at most the panels, the embedding and the
//!   norms;
//! * the peak during the build is at most those kept bytes plus one `f32` projection;
//! * `weights()` regenerates the raw weights on first call, equal to
//!   `ModelWeights::generate`, and calling it changes no logit;
//! * `generate_greedy(prompt, n)` reserves its `f32` cache for the `prompt.len() + n`
//!   positions it appends, so its live-byte peak stays within that exact cache and a
//!   small slack for the forward's temporaries: a cache grown by doubling would hold
//!   512 rows of capacity for the 288 positions of `batch_decode`'s shape;
//! * a prefill forward frees each phase's temporaries before the next phase allocates, so
//!   beyond the cache rows and logits it keeps, a 128-row forward holds at most the MLP
//!   phase's activations: holding the attention phase's through the MLP, as one flat
//!   scope does, adds about 70% more.
//!
//! The file holds a single test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mx_llm::weights::ModelWeights;
use mx_llm::{ModelConfig, ModelQuantConfig, TransformerModel};
use mx_tensor::{Matrix, WeightPanels};

/// The system allocator, counting the bytes live and the most ever live at once.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }

    fn shrank(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::SeqCst);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments unchanged; the
// counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            Self::grew(new_size);
            Self::shrank(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Room for what the build allocates besides the panels, the embedding and the norms:
/// the layer table, the rotary frequencies, the outlier profile and the cast's column
/// buffer. A few KiB in practice.
const SLACK: usize = 64 * 1024;

/// Room for what greedy generation allocates besides its cache: the prefill's
/// activations, logits and attention scratch, and the output tokens. About 0.5 MB on the
/// `llama2_7b` toy; a cache grown by doubling adds 1.8 MB more.
const GENERATE_SLACK: usize = 1024 * 1024;

fn f32_bytes(m: &Matrix) -> usize {
    4 * m.data().len()
}

#[test]
fn the_model_keeps_only_what_its_forward_reads() {
    let config = ModelConfig::llama2_7b();
    let quant = ModelQuantConfig::a_mxfp4_plus();
    let tokens: Vec<usize> = (0..24).map(|i| (i * 37 + 5) % config.vocab).collect();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let model = TransformerModel::new(config.clone(), quant);
    let kept = LIVE.load(Ordering::SeqCst) - before;
    let build_peak = PEAK.load(Ordering::SeqCst) - before;

    let (logits_before, _) = model.prefill(&tokens);
    let raw = model.weights();
    assert_eq!(raw, &ModelWeights::generate(&config), "weights() must regenerate the model's raw weights");
    let (logits_after, _) = model.prefill(&tokens);
    let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&logits_before), bits(&logits_after), "filling weights() must not change a logit");

    // What the forward reads, sized from the raw weights: each projection's panels as
    // the model casts them, the embedding and every norm gain and bias.
    let projections: Vec<(&Matrix, _)> = raw
        .layers
        .iter()
        .flat_map(|lw| [&lw.wq, &lw.wk, &lw.wv, &lw.wo, &lw.w_gate, &lw.w_up, &lw.w_down])
        .map(|w| (w, quant.linear.weights))
        .chain([(&raw.lm_head, quant.lm_head.weights)])
        .collect();
    let panels: usize = projections.iter().map(|&(w, scheme)| WeightPanels::cast(w, scheme).storage_bytes()).sum();
    let norms =
        raw.layers.iter().flat_map(|lw| [&lw.attn_norm_gain, &lw.attn_norm_bias, &lw.mlp_norm_gain, &lw.mlp_norm_bias]);
    let norm_bytes: usize = norms.chain([&raw.final_norm_gain, &raw.final_norm_bias]).map(|v| 4 * v.len()).sum();
    let forward_bytes = panels + f32_bytes(&raw.embedding) + norm_bytes;
    let largest_projection = projections.iter().map(|&(w, _)| f32_bytes(w)).max().unwrap_or(0);
    assert_eq!(largest_projection, 256 * 704 * 4, "the gate, up and down projections of the toy");

    assert!(
        kept <= forward_bytes + SLACK,
        "the model keeps {kept} B, but its forward reads {forward_bytes} B ({panels} B of panels)"
    );
    assert!(
        build_peak <= kept + largest_projection + SLACK,
        "building the model peaked at {build_peak} B live: more than the {kept} B it keeps plus one \
         {largest_projection} B projection"
    );

    // `batch_decode`'s shape: a 32-token prompt and 256 new tokens, 288 cached positions.
    let prompt: Vec<usize> = (0..32).map(|i| (i * 29 + 3) % config.vocab).collect();
    let n = 256;
    let positions = prompt.len() + n;
    let cache_bytes = config.layers * 2 * positions * config.head_dim() * config.kv_heads * 4;
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let generated = model.generate_greedy(&prompt, n);
    let generate_peak = PEAK.load(Ordering::SeqCst) - before;
    assert_eq!(generated.len(), n);
    assert!(
        generate_peak <= cache_bytes + GENERATE_SLACK,
        "generate_greedy peaked at {generate_peak} B live: more than its {cache_bytes} B cache of {positions} \
         positions plus {GENERATE_SLACK} B"
    );

    // The MLP phase holds, per row, the layer's input and output, the norm and its
    // quantized operand (4 × hidden), and gate, up and their product (3 × intermediate).
    let rows = 128;
    let prefill: Vec<usize> = (0..rows).map(|i| (i * 29 + 3) % config.vocab).collect();
    let mut cache = model.new_cache();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let logits = model.forward(&prefill, &mut cache);
    let forward_kept = LIVE.load(Ordering::SeqCst) - before;
    let transient = PEAK.load(Ordering::SeqCst) - before - forward_kept;
    let phase = rows * (4 * config.hidden + 3 * config.intermediate) * 4;
    assert_eq!(logits.rows(), rows);
    assert!(
        transient <= phase + SLACK,
        "a {rows}-row forward held {transient} B beyond the {forward_kept} B it keeps: more than the MLP phase's \
         {phase} B of activations"
    );
}
