//! Sample statistics, the benchmark's own seeded generator, and the
//! call timers the traced runs wrap around each layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (0 when
/// empty). Sorts a copy.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// SplitMix64. The benchmark owns its generator so that its inputs for
/// a seed never change when the program's own random sources do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct items of `pool`, in random order.
    pub fn sample<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut v = pool.to_vec();
        for i in 0..k.min(v.len()) {
            let j = i + self.below(v.len() - i);
            v.swap(i, j);
        }
        v.truncate(k);
        v
    }
}

/// Calls into one layer: count, busy time and per-call durations.
#[derive(Debug, Default)]
pub struct Timer {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    durations: Mutex<Vec<f64>>,
}

impl Timer {
    /// Runs `f`, charging its wall time to this layer.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_secs_f64());
        out
    }

    fn record(&self, seconds: f64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
        self.durations.lock().expect("timer poisoned").push(seconds);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.durations.lock().expect("timer poisoned")) * 1e3
    }
}
