//! Host-speed calibration of the end-to-end timings.
//!
//! On a shared host the same operation runs slower while other tenants
//! load the machine, by up to about 2× for seconds to minutes at a time.
//! A fixed reference kernel (a sort and a hash-map count over a fixed
//! pseudo-random sequence, independent of the code under test) slows down
//! with it. A run samples the kernel between operations and set-ups, and
//! reports its timings in *calibrated* units: each measured duration is
//! scaled by [`REFERENCE_MS`] over the median kernel time around its end
//! (within [`LOCAL`]), and the throughput by the window's median, i.e.
//! what they would have been on a host where the kernel takes
//! [`REFERENCE_MS`]. A change to the program moves a calibrated figure
//! exactly as it moves the raw one; a change in host load moves it
//! less. The raw figures go to standard error.
//!
//! The kernel only ever runs while no operation is in flight, so it
//! measures the host, never contention with the workload.

use crate::metrics::median;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nominal kernel time, in ms, the calibrated timings are scaled to:
/// about the kernel's median time on the shared 2-vCPU Sapphire Rapids
/// guest the benchmark was tuned on.
pub const REFERENCE_MS: f64 = 4.5;

/// Wall time between kernel samples.
pub const INTERVAL: Duration = Duration::from_millis(200);

/// Kernel samples within this of a duration's end calibrate it.
pub const LOCAL: Duration = Duration::from_secs(1);

/// Most kernel samples taken at one operation boundary.
const MAX_PER_TICK: usize = 8;

/// Keys sorted per kernel run.
const SORT_KEYS: usize = 100_000;

/// Keys counted per kernel run, and their distinct values.
const COUNT_KEYS: usize = 60_000;
const COUNT_RANGE: u32 = 30_000;

/// Samples the reference kernel over a run.
pub struct Calibrator {
    keys: Vec<u32>,
    counts: HashMap<u32, u32, BuildHasherDefault<DefaultHasher>>,
    /// Kernel times in ms, with the instant each was taken.
    samples: Vec<(Instant, f64)>,
    last: Instant,
    spent: Duration,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// A calibrator with its buffers allocated and warmed, holding one
    /// sample.
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            keys: Vec::with_capacity(SORT_KEYS),
            counts: HashMap::default(),
            samples: Vec::new(),
            last: Instant::now(),
            spent: Duration::ZERO,
        };
        c.sample();
        c
    }

    /// Runs the kernel once; its time in ms.
    fn kernel(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        self.keys.clear();
        self.keys.extend((0..SORT_KEYS).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        }));
        self.keys.sort_unstable();
        self.counts.clear();
        for &k in &self.keys[..COUNT_KEYS] {
            *self
                .counts
                .entry(k.rotate_left(11) % COUNT_RANGE)
                .or_insert(0) += 1;
        }
        black_box((&self.keys, &self.counts));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Takes one sample now: an untimed pass first, so that the timed
    /// one finds its buffers in cache whatever the last operation left
    /// there.
    pub fn sample(&mut self) {
        let t = Instant::now();
        self.kernel();
        let ms = self.kernel();
        self.last = Instant::now();
        self.samples.push((self.last, ms));
        self.spent += t.elapsed();
    }

    /// Whether a sample is due.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= INTERVAL
    }

    /// At an operation boundary: one sample per [`INTERVAL`] elapsed since
    /// the last (at most [`MAX_PER_TICK`]).
    pub fn tick(&mut self) {
        let due = (self.last.elapsed().as_secs_f64() / INTERVAL.as_secs_f64()) as usize;
        for _ in 0..due.min(MAX_PER_TICK) {
            self.sample();
        }
    }

    /// Wall time spent in the kernel so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Kernel times taken so far, in ms.
    pub fn samples(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, ms)| ms).collect()
    }

    /// Scale factor for a duration that ended at `t`: [`REFERENCE_MS`]
    /// over the median of the samples within [`LOCAL`] of `t`, or over
    /// the nearest sample when none is that close.
    pub fn factor_at(&self, t: Instant) -> f64 {
        let gap = |at: Instant| if at > t { at - t } else { t - at };
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(at, _)| gap(at) <= LOCAL)
            .map(|&(_, ms)| ms)
            .collect();
        let ms = if near.is_empty() {
            self.samples
                .iter()
                .min_by_key(|&&(at, _)| gap(at))
                .map_or(REFERENCE_MS, |&(_, ms)| ms)
        } else {
            median(&near)
        };
        REFERENCE_MS / ms
    }

    /// Scale factor for a rate over `[from, to]`: [`REFERENCE_MS`] over
    /// the median of the samples taken in that span (all samples when
    /// none was).
    pub fn factor_over(&self, from: Instant, to: Instant) -> f64 {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(at, _)| at >= from && at <= to)
            .map(|&(_, ms)| ms)
            .collect();
        let ms = if inside.is_empty() {
            median(&self.samples())
        } else {
            median(&inside)
        };
        REFERENCE_MS / ms
    }
}
