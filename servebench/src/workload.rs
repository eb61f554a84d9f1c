//! The two traffic mixes and their request generators.
//!
//! A workload is a round of requests replayed back to back for the length of a run. Each
//! request arrives at a fixed scheduler pass of its round: the driver submits it right
//! before that `run_for(1)` call, and the request is due at that moment. Arrivals counted
//! in passes rather than seconds make the engine do the same work in the same batches on
//! every run, however fast the host is; a queue cannot turn a slow phase of the host into
//! a latency blow-up, so run-to-run spread stays the host's own. A faster engine still
//! shows as lower latency and higher throughput, since every pass takes less time.
//!
//! The round's shape — arrival passes, prompt and output lengths, shared-prefix choice
//! and priority of every request — is drawn once from a fixed stream, stratified so that
//! every block of [`BLOCK`] consecutive requests takes an evenly spread set of values in
//! shuffled order. `--seed` and the round number draw the token contents of every prompt
//! and prefix, so the engine only ever sees generated inputs.

use mx_llm::SeqRng;

/// One request as the client sends it.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Scheduler pass of its round at which the request arrives.
    pub pass: usize,
    pub prompt: Vec<usize>,
    pub max_new: usize,
    pub priority: i32,
}

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A closed batch of unique short prompts decoding 256 tokens each.
    BatchDecode,
    /// Bursty arrivals over 4 shared 64-token system prefixes, on a pool below demand.
    SharedPrefixChat,
}

/// Fixed parameters of a workload: pool size and per-request SLO limits.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Pages in the engine's KV pool (16 positions each).
    pub pool_pages: usize,
    /// A request meets its SLO when its TTFT is at most this...
    pub slo_ttft_ms: f64,
    /// ...and its mean inter-token gap at most this.
    pub slo_itl_ms: f64,
}

pub const BATCH_SIZE: usize = 4;
pub const BATCH_PROMPT: usize = 32;
pub const BATCH_NEW: usize = 256;

pub const CHAT_ROUND: usize = 30;
/// Passes between consecutive arrivals: per block, 7 short gaps (exponential, mean 1)
/// and 3 long ones (exponential, mean 10), so arrivals come in bursts.
pub const CHAT_GAP: [(usize, f64); 2] = [(7, 1.0), (3, 10.0)];
pub const CHAT_PREFIXES: usize = 4;
pub const CHAT_PREFIX_LEN: usize = 64;
pub const CHAT_USER_LEN: (usize, usize) = (8, 32);
pub const CHAT_NEW: (usize, usize) = (16, 64);
/// One request in this many runs at priority 1.
pub const CHAT_PRIORITY_EVERY: usize = 5;
/// Consecutive requests over which each stratified quantity is spread evenly.
pub const BLOCK: usize = 10;
/// Seed of the fixed round-shape stream.
const TRACE_SEED: u64 = 0x7ace;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BatchDecode, Workload::SharedPrefixChat];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchDecode => "batch_decode",
            Workload::SharedPrefixChat => "shared_prefix_chat",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            // 4 sequences × 4 layers × ceil(288 / 16) pages: the pool admits the whole batch.
            Workload::BatchDecode => Spec { pool_pages: 288, slo_ttft_ms: 1000.0, slo_itl_ms: 60.0 },
            // Below the round's peak demand, so queueing and preemption occur.
            Workload::SharedPrefixChat => Spec { pool_pages: 160, slo_ttft_ms: 10000.0, slo_itl_ms: 150.0 },
        }
    }

    /// The requests of round `round` of a run, in arrival order.
    pub fn requests(self, seed: u64, round: u64, vocab: usize) -> Vec<Request> {
        let mut trace = SeqRng::new(TRACE_SEED, self as u64);
        let mut content = SeqRng::new(seed, 1 + round * 8 + self as u64);
        match self {
            Workload::BatchDecode => (0..BATCH_SIZE)
                .map(|_| Request {
                    pass: 0,
                    prompt: tokens(&mut content, BATCH_PROMPT, vocab),
                    max_new: BATCH_NEW,
                    priority: 0,
                })
                .collect(),
            Workload::SharedPrefixChat => {
                let n = CHAT_ROUND;
                let passes = arrival_passes(&mut trace, n, &CHAT_GAP);
                let which = stratified(&mut trace, n, (0, CHAT_PREFIXES - 1));
                let users = stratified(&mut trace, n, CHAT_USER_LEN);
                let news = stratified(&mut trace, n, CHAT_NEW);
                let priority = stratified(&mut trace, n, (0, CHAT_PRIORITY_EVERY - 1));
                let prefixes: Vec<Vec<usize>> =
                    (0..CHAT_PREFIXES).map(|_| tokens(&mut content, CHAT_PREFIX_LEN, vocab)).collect();
                (0..n)
                    .map(|i| {
                        let mut prompt = prefixes[which[i]].clone();
                        prompt.extend(tokens(&mut content, users[i], vocab));
                        Request { pass: passes[i], prompt, max_new: news[i], priority: i32::from(priority[i] == 0) }
                    })
                    .collect()
            }
        }
    }
}

/// Uniform float in `[0, 1)` from the top 53 bits.
fn unit(rng: &mut SeqRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn below(rng: &mut SeqRng, n: usize) -> usize {
    (unit(rng) * n as f64) as usize % n.max(1)
}

fn tokens(rng: &mut SeqRng, len: usize, vocab: usize) -> Vec<usize> {
    (0..len).map(|_| below(rng, vocab)).collect()
}

/// `n` values, each block of [`BLOCK`] (or the shorter last block of size `b`) holding
/// `value(i, b)` for `i` in `0..b` in seeded order.
fn blocked<T>(rng: &mut SeqRng, n: usize, value: impl Fn(usize, usize) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    for start in (0..n).step_by(BLOCK) {
        let b = BLOCK.min(n - start);
        let mut block: Vec<T> = (0..b).map(|i| value(i, b)).collect();
        for i in (1..b).rev() {
            block.swap(i, below(rng, i + 1));
        }
        out.extend(block);
    }
    out
}

/// `n` values spread evenly over the inclusive range within every block.
fn stratified(rng: &mut SeqRng, n: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    let span = hi - lo + 1;
    blocked(rng, n, |i, b| lo + (i * span + span / 2) / b)
}

/// Arrival passes of `n` requests, the first at pass 0. The gaps between them mix
/// exponential components given as `(share of a block, mean gap in passes)`: each block
/// takes evenly spread quantiles of every component, rounded to whole passes.
fn arrival_passes(rng: &mut SeqRng, n: usize, mix: &[(usize, f64)]) -> Vec<usize> {
    let weight: usize = mix.iter().map(|&(share, _)| share).sum();
    let gaps = blocked(rng, n, |i, b| {
        // The block is split among the components in proportion to their shares.
        let mut start = 0;
        for (k, &(share, mean)) in mix.iter().enumerate() {
            let end = if k + 1 == mix.len() { b } else { (start + (share * b).div_ceil(weight)).min(b) };
            if i < end {
                let q = (i - start) as f64 + 0.5;
                return (-(1.0 - q / (end - start) as f64).ln() * mean).round() as usize;
            }
            start = end;
        }
        0
    });
    let mut pass = 0;
    (0..n)
        .map(|i| {
            if i > 0 {
                pass += gaps[i];
            }
            pass
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        for w in Workload::ALL {
            assert_eq!(w.requests(7, 0, 512), w.requests(7, 0, 512), "{}", w.name());
            assert_ne!(w.requests(7, 0, 512), w.requests(8, 0, 512), "{}", w.name());
            assert_ne!(w.requests(7, 0, 512), w.requests(7, 1, 512), "{}", w.name());
        }
    }

    #[test]
    fn batch_decode_is_a_closed_batch_of_unique_prompts() {
        let reqs = Workload::BatchDecode.requests(3, 0, 512);
        assert_eq!(reqs.len(), BATCH_SIZE);
        assert!(reqs.iter().all(|r| r.pass == 0 && r.prompt.len() == BATCH_PROMPT && r.max_new == BATCH_NEW));
        // No two prompts share their first page, so prefix sharing never triggers.
        for (i, a) in reqs.iter().enumerate() {
            for b in &reqs[i + 1..] {
                assert_ne!(a.prompt[..16], b.prompt[..16]);
            }
        }
    }

    #[test]
    fn every_seed_and_round_replays_the_same_shape() {
        // The round's shape is fixed; only the token contents follow the seed and round.
        let shape =
            |r: &[Request]| r.iter().map(|q| (q.pass, q.prompt.len(), q.max_new, q.priority)).collect::<Vec<_>>();
        for w in Workload::ALL {
            let a = w.requests(1, 0, 512);
            for b in [w.requests(2, 0, 512), w.requests(1, 3, 512)] {
                assert_eq!(shape(&a), shape(&b));
                assert_ne!(a[0].prompt, b[0].prompt);
            }
        }
    }

    #[test]
    fn arrivals_are_in_pass_order_with_the_planned_mean_gap() {
        let chat = Workload::SharedPrefixChat.requests(1, 0, 512);
        assert_eq!(chat[0].pass, 0);
        assert!(chat.windows(2).all(|p| p[0].pass <= p[1].pass));
        // Evenly spread quantiles of an exponential fall a little short of its mean.
        let gap = chat[chat.len() - 1].pass as f64 / (chat.len() - 1) as f64;
        assert!((0.65 * 3.7..1.1 * 3.7).contains(&gap), "mean gap {gap}");
        // Bursts: most arrivals follow the previous one within two passes.
        let close = chat.windows(2).filter(|p| p[1].pass - p[0].pass <= 2).count();
        assert!(close * 10 >= 6 * (chat.len() - 1), "{close} of {}", chat.len() - 1);
    }

    #[test]
    fn chat_prompts_share_one_of_four_prefixes() {
        let reqs = Workload::SharedPrefixChat.requests(5, 0, 512);
        let mut prefixes: Vec<&[usize]> = reqs.iter().map(|r| &r.prompt[..CHAT_PREFIX_LEN]).collect();
        prefixes.sort();
        prefixes.dedup();
        assert_eq!(prefixes.len(), CHAT_PREFIXES);
        let high = reqs.iter().filter(|r| r.priority == 1).count();
        assert_eq!(high, reqs.len() / CHAT_PRIORITY_EVERY);
        assert!(reqs.iter().all(|r| (72..=96).contains(&r.prompt.len()) && (16..=64).contains(&r.max_new)));
    }

    #[test]
    fn stratified_spreads_evenly() {
        let mut rng = SeqRng::new(1, 1);
        let mut v = stratified(&mut rng, 4, (1, 4));
        v.sort_unstable();
        assert_eq!(v, vec![1, 2, 3, 4]);
        let v = stratified(&mut rng, 100, (0, 4));
        for k in 0..5 {
            assert_eq!(v.iter().filter(|&&x| x == k).count(), 20);
        }
    }
}
