//! Host-speed calibration and the benchmark's clock.
//!
//! The host is a few vCPUs of a shared machine, and its speed drifts by tens of percent
//! over minutes: every run of the same program measures a different host. So the
//! benchmark times a fixed kernel of its own between scheduler passes, and scales the
//! times it reports to a host on which that kernel takes [`NOMINAL_S`]. The kernel is
//! not program code, so a change to the program moves the reported times as much as it
//! moves the measured ones; a slower or faster phase of the host moves the kernel too,
//! and cancels out.
//!
//! The kernel is an MXFP4-shaped matrix-vector product (4-bit codes through a lookup
//! table, a scale per 32 elements, f32 accumulation) at the toy model's MLP shape, so
//! it leans on the same parts of the core as the served model does.

use std::time::{Duration, Instant};

use crate::stats::Sample;

/// Seconds one calibration sample takes on the nominal host: about what it takes on the
/// 2-vCPU Xeon host the bounds were set on.
pub const NOMINAL_S: f64 = 250e-6;
/// Input width and output rows of the kernel (the toy model's hidden and MLP widths).
const K: usize = 256;
const N: usize = 704;
/// Kernel calls per sample.
const REPEATS: usize = 2;
/// FP4 (E2M1) code points.
const FP4: [f32; 16] = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, -0.0, -0.5, -1.0, -1.5, -2.0, -3.0, -4.0, -6.0];

/// A clock that stops while the host's speed is sampled, and the samples it took.
pub struct Calibration {
    origin: Instant,
    paused: Duration,
    codes: Vec<u8>,
    scales: Vec<f32>,
    x: Vec<f32>,
    out: Vec<f32>,
    samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        // Fixed inputs from a xorshift stream: the kernel does the same work every time.
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        Calibration {
            origin: Instant::now(),
            paused: Duration::ZERO,
            codes: (0..K * N / 2).map(|_| next() as u8).collect(),
            scales: (0..K * N / 32).map(|_| (next() % 8) as f32 * 0.25).collect(),
            x: (0..K).map(|_| (next() % 100) as f32 * 0.01).collect(),
            out: vec![0.0; N],
            samples: Vec::new(),
        }
    }

    /// Seconds since the calibration was made, not counting time spent sampling.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().saturating_sub(self.paused).as_secs_f64()
    }

    /// Times one sample of the kernel. The clock does not count it.
    pub fn sample(&mut self) {
        let t = Instant::now();
        for _ in 0..REPEATS {
            mxfp4_gemv(&self.codes, &self.scales, &self.x, &mut self.out);
            std::hint::black_box(&mut self.out);
        }
        self.samples.push(t.elapsed().as_secs_f64());
        self.paused += t.elapsed();
    }

    /// Samples taken so far; a mark for [`Calibration::factor_since`].
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// What seconds measured since `mark` are multiplied by to give seconds on the
    /// nominal host: [`NOMINAL_S`] over the median sample taken since. 1 when none was.
    pub fn factor_since(&self, mark: usize) -> f64 {
        scale_factor(&self.samples[mark.min(self.samples.len())..])
    }
}

/// [`NOMINAL_S`] over the median of `samples`; 1 for no samples.
fn scale_factor(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    NOMINAL_S / Sample::new(samples.to_vec()).q(0.5)
}

/// `out[j] = Σ_k fp4(codes[j, k]) · scale[j, k / 32] · x[k]`, two codes per byte.
fn mxfp4_gemv(codes: &[u8], scales: &[f32], x: &[f32], out: &mut [f32]) {
    let k = x.len();
    for (j, o) in out.iter_mut().enumerate() {
        let row = &codes[j * k / 2..(j + 1) * k / 2];
        let mut acc = [0f32; 8];
        for (b, block) in row.chunks_exact(16).enumerate() {
            let s = scales[j * k / 32 + b];
            let xs = &x[b * 32..(b + 1) * 32];
            for (i, &c) in block.iter().enumerate() {
                acc[i % 8] += FP4[usize::from(c & 15)] * s * xs[2 * i];
                acc[(i + 4) % 8] += FP4[usize::from(c >> 4)] * s * xs[2 * i + 1];
            }
        }
        *o = acc.iter().sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_maps_the_median_sample_to_nominal() {
        assert_eq!(scale_factor(&[]), 1.0);
        // A host twice as slow as nominal halves every time it measures; one outlier
        // sample does not move the median.
        let slow = [2.0 * NOMINAL_S, 2.0 * NOMINAL_S, 9.0 * NOMINAL_S];
        assert_eq!(scale_factor(&slow), 0.5);
    }

    #[test]
    fn the_clock_stops_while_sampling() {
        let mut c = Calibration::new();
        let mark = c.mark();
        let before = c.now();
        let wall = Instant::now();
        for _ in 0..20 {
            c.sample();
        }
        let spent = wall.elapsed().as_secs_f64();
        assert_eq!(c.mark() - mark, 20);
        // Only the loop's own overhead is left on the clock.
        assert!(c.now() - before < 0.1 * spent, "{} of {spent}", c.now() - before);
        let f = c.factor_since(mark);
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(c.factor_since(c.mark()), 1.0);
    }

    #[test]
    fn kernel_decodes_fp4_codes() {
        // One row of 32 codes, bytes 0x21: low nibble 0.5, high nibble 1.0; scale 2.
        let codes = vec![0x21u8; 16];
        let scales = vec![2.0f32];
        let x = vec![1.0f32; 32];
        let mut out = vec![0.0f32];
        mxfp4_gemv(&codes, &scales, &x, &mut out);
        // 16 × (0.5 + 1.0) × 2.
        assert_eq!(out[0], 48.0);
    }
}
