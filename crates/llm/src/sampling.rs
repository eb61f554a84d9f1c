//! Token-sampling policies for the serving engine: greedy, top-k and top-p (nucleus).
//!
//! Every sequence owns its sampling configuration **and its RNG state**
//! ([`SeqRng`], a SplitMix64 stream seeded from the run seed and the sequence id), so
//! sampling is deterministic given `(seed, sequence id, logits)` and — because the
//! quantized decode paths produce bit-identical logits on every cache backend and
//! thread count — the sampled token streams are reproducible across any `num_threads`.
//! Thread safety falls out of ownership: no sampler state
//! is shared between sequences, so there is nothing to lock.
//!
//! Greedy sampling ([`SamplingPolicy::Greedy`]) is exactly [`crate::model::argmax`] —
//! ties resolve to the lowest token id — and [`Sampling::GREEDY`] is the default of
//! every `submit` call, preserving the engine's original behaviour. Top-k keeps the `k`
//! highest-probability tokens; top-p keeps the smallest prefix of the
//! probability-sorted vocabulary whose cumulative mass reaches `p` (always at least one
//! token). Both renormalize and draw from the kept set; ranking ties break toward the
//! lower token id so the kept set is deterministic.

use crate::model::argmax;

/// How the next token is chosen from a decode step's logits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingPolicy {
    /// Always the highest-probability token (ties to the lowest id). Deterministic; the
    /// RNG is never consulted.
    Greedy,
    /// Sample from the `k` highest-probability tokens after temperature scaling.
    TopK {
        /// Number of tokens kept (clamped to the vocabulary size; must be ≥ 1).
        k: usize,
    },
    /// Nucleus sampling: sample from the smallest probability-sorted prefix whose
    /// cumulative mass is ≥ `p`.
    TopP {
        /// Cumulative probability mass kept, in `(0, 1]`.
        p: f32,
    },
}

/// A full sampling configuration: policy, softmax temperature and RNG seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampling {
    /// The token-selection policy.
    pub policy: SamplingPolicy,
    /// Softmax temperature applied to the logits before top-k / top-p (must be finite
    /// and > 0; ignored by greedy).
    pub temperature: f32,
    /// Base seed of the per-sequence RNG streams (each sequence derives its own stream
    /// from this and its id).
    pub seed: u64,
}

impl Sampling {
    /// Greedy decoding — the engine's default, identical to the pre-sampling behaviour.
    pub const GREEDY: Sampling = Sampling { policy: SamplingPolicy::Greedy, temperature: 1.0, seed: 0 };

    /// Top-k sampling at `temperature` with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or `temperature` is not finite and positive.
    #[must_use]
    pub fn top_k(k: usize, temperature: f32, seed: u64) -> Self {
        Sampling { policy: SamplingPolicy::TopK { k }, temperature, seed }.checked()
    }

    /// Top-p (nucleus) sampling at `temperature` with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]` or `temperature` is not finite and positive.
    #[must_use]
    pub fn top_p(p: f32, temperature: f32, seed: u64) -> Self {
        Sampling { policy: SamplingPolicy::TopP { p }, temperature, seed }.checked()
    }

    /// The parameters the sampler relies on, checked: `k ≥ 1` for top-k, `p` in
    /// `(0, 1]` for top-p, and for both a finite positive temperature (greedy reads
    /// neither). The fields are public, so the serving engine checks every submission's
    /// sampling here too, not only the constructors'.
    ///
    /// # Panics
    ///
    /// Panics on the first parameter out of range.
    pub(crate) fn checked(self) -> Self {
        match self.policy {
            SamplingPolicy::Greedy => return self,
            SamplingPolicy::TopK { k } => assert!(k >= 1, "top-k needs k >= 1"),
            SamplingPolicy::TopP { p } => assert!(p > 0.0 && p <= 1.0, "top-p needs p in (0, 1]"),
        }
        assert!(self.temperature.is_finite() && self.temperature > 0.0, "temperature must be positive and finite");
        self
    }
}

/// A per-sequence SplitMix64 stream: 8 bytes of owned state, `Send + Sync`, and cheap
/// enough to embed in every [`Sequence`](crate::serving::Sequence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqRng {
    state: u64,
}

impl SeqRng {
    /// A stream deterministically derived from `seed` and a stream id (the sequence id),
    /// decorrelated by one warm-up step so neighbouring ids do not produce neighbouring
    /// first draws.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SeqRng { state: seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F) };
        let _ = rng.next_u64();
        rng
    }

    /// The next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` with 24 bits of mantissa.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Draws the next token from `logits` under `sampling`, advancing `rng` (greedy never
/// consults it).
///
/// # Panics
///
/// Panics if `logits` is empty.
#[must_use]
pub fn sample_token(logits: &[f32], sampling: &Sampling, rng: &mut SeqRng) -> usize {
    assert!(!logits.is_empty(), "cannot sample from empty logits");
    let (keep_k, keep_p) = match sampling.policy {
        SamplingPolicy::Greedy => return argmax(logits),
        SamplingPolicy::TopK { k } => (k.min(logits.len()), None),
        SamplingPolicy::TopP { p } => (logits.len(), Some(p)),
    };
    // Temperature-scaled, max-subtracted softmax numerators (the common normalizer
    // cancels in the renormalized draw below).
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &l| m.max(l));
    let weights: Vec<f32> = logits.iter().map(|&l| ((l - max) / sampling.temperature).exp()).collect();
    // Rank token ids by probability; ties break toward the lower id so the kept set (and
    // therefore the draw) is deterministic. Top-k needs only the k best: partial-select
    // first so the O(V log V) full sort is paid only by top-p (which must walk the
    // sorted tail to find its nucleus).
    let mut ranked: Vec<usize> = (0..weights.len()).collect();
    let by_weight_desc = |&a: &usize, &b: &usize| weights[b].total_cmp(&weights[a]).then(a.cmp(&b));
    if keep_p.is_none() && keep_k < ranked.len() {
        ranked.select_nth_unstable_by(keep_k - 1, by_weight_desc);
        ranked.truncate(keep_k);
    }
    // Unstable is fine: the comparator is a total order (the id tiebreak), so the
    // ranking is unique regardless of sort stability.
    ranked.sort_unstable_by(by_weight_desc);
    let kept = match keep_p {
        None => keep_k,
        Some(p) => {
            let total: f32 = weights.iter().sum();
            let mut cumulative = 0.0;
            let mut kept = 0;
            for &t in &ranked {
                cumulative += weights[t] / total;
                kept += 1;
                if cumulative >= p {
                    break;
                }
            }
            kept.max(1)
        }
    };
    ranked.truncate(kept);
    let total: f32 = ranked.iter().map(|&t| weights[t]).sum();
    let mut u = rng.next_f32() * total;
    for &t in &ranked {
        u -= weights[t];
        if u <= 0.0 {
            return t;
        }
    }
    // Floating-point slack can leave a sliver of u; it belongs to the last kept token.
    // `kept.max(1)` and the non-empty-logits assert above keep the set non-empty, so
    // the greedy fallback is unreachable in practice.
    ranked.last().copied().unwrap_or_else(|| argmax(logits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits() -> Vec<f32> {
        vec![0.1, 2.5, -1.0, 2.5, 0.7, -3.2, 1.9, 0.0]
    }

    #[test]
    fn greedy_is_argmax_with_lowest_id_ties() {
        let mut rng = SeqRng::new(1, 0);
        assert_eq!(sample_token(&logits(), &Sampling::GREEDY, &mut rng), 1);
        // The RNG is untouched by greedy.
        assert_eq!(rng, SeqRng::new(1, 0));
    }

    #[test]
    fn top_k_of_one_is_greedy_for_any_seed() {
        for seed in 0..32u64 {
            let mut rng = SeqRng::new(seed, 3);
            assert_eq!(sample_token(&logits(), &Sampling::top_k(1, 0.8, seed), &mut rng), 1);
        }
    }

    #[test]
    fn tiny_top_p_keeps_only_the_mode() {
        // p small enough that the single highest-probability token already covers it.
        for seed in 0..32u64 {
            let mut rng = SeqRng::new(seed, 9);
            assert_eq!(sample_token(&logits(), &Sampling::top_p(1e-6, 1.0, seed), &mut rng), 1);
        }
    }

    #[test]
    fn top_k_only_emits_the_k_most_probable_tokens() {
        let sampling = Sampling::top_k(3, 1.0, 42);
        let mut rng = SeqRng::new(sampling.seed, 0);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            seen.insert(sample_token(&logits(), &sampling, &mut rng));
        }
        // Top-3 by probability (ties toward lower id): tokens 1, 3, 6.
        assert!(seen.iter().all(|t| [1usize, 3, 6].contains(t)), "out-of-set token in {seen:?}");
        assert!(seen.len() > 1, "500 draws at temperature 1.0 must not collapse to one token");
    }

    #[test]
    fn full_top_p_covers_the_distribution_deterministically() {
        let sampling = Sampling::top_p(1.0, 1.0, 7);
        let a: Vec<usize> = {
            let mut rng = SeqRng::new(sampling.seed, 5);
            (0..64).map(|_| sample_token(&logits(), &sampling, &mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = SeqRng::new(sampling.seed, 5);
            (0..64).map(|_| sample_token(&logits(), &sampling, &mut rng)).collect()
        };
        assert_eq!(a, b, "same seed and stream must reproduce the same draws");
        let c: Vec<usize> = {
            let mut rng = SeqRng::new(sampling.seed, 6);
            (0..64).map(|_| sample_token(&logits(), &sampling, &mut rng)).collect()
        };
        assert_ne!(a, c, "different streams must decorrelate");
    }

    #[test]
    fn temperature_sharpens_toward_greedy() {
        // At a very low temperature even top-k=vocab collapses onto the argmax
        // (tie-free logits: the tied pair in `logits()` would legitimately split draws).
        let sharp = vec![0.1, 2.5, -1.0, 2.2, 0.7, -3.2, 1.9, 0.0];
        let sampling = Sampling::top_k(8, 1e-3, 11);
        let mut rng = SeqRng::new(sampling.seed, 2);
        for _ in 0..100 {
            assert_eq!(sample_token(&sharp, &sampling, &mut rng), 1);
        }
    }

    #[test]
    fn rng_stream_is_stable() {
        // Golden values pin the SplitMix64 implementation (and therefore every seeded
        // sampling run) against accidental drift.
        let mut rng = SeqRng::new(0, 0);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let f = rng.next_f32();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn top_k_rejects_zero() {
        let _ = Sampling::top_k(0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "p in (0, 1]")]
    fn top_p_rejects_out_of_range() {
        let _ = Sampling::top_p(1.5, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn temperature_must_be_positive() {
        let _ = Sampling::top_k(4, 0.0, 0);
    }
}
