//! Host-speed reference: a fixed piece of arithmetic owned by the
//! benchmark, timed between the program's calls.
//!
//! A shared host runs the same work at different speeds, on-CPU time
//! included: other tenants share caches, memory bandwidth and core
//! pipelines. On the 2-vCPU host of the README figures, the CPU time of
//! a fixed 27 ms piece of this work wandered between 18 and 30 ms over a
//! minute, staying correlated for about a second. So the reference is
//! called every 50 ms of program CPU time, and each stretch of program
//! time between two calls is scaled by the nominal reference time over the
//! two calls' mean: the result is the program's CPU time on a host running
//! at nominal speed.
//! The reference does the kinds of work the decoder does (complex FFTs,
//! sines and cosines, complex multiply-accumulate over a few hundred KiB),
//! but it is the benchmark's own code: no change to the program moves it.

use std::f64::consts::PI;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock;

/// FFT length of the reference.
const FFT_LEN: usize = 1024;
/// FFTs per reference call.
const FFTS: usize = 24;
/// Length of the multiply-accumulate vectors (256 KiB each).
const MAC_LEN: usize = 16 * 1024;
/// Multiply-accumulate sweeps per reference call.
const MACS: usize = 12;

/// CPU seconds of one reference call at nominal host speed: the median
/// reading on the 2-vCPU Xeon host the README figures come from. Only the
/// scale of the normalised figures depends on it.
pub const NOMINAL_S: f64 = 0.0042;

/// Program CPU seconds between reference calls. The host's speed stays
/// correlated for about a second, so a call every 50 ms tracks it; each
/// call costs about 4 ms.
const INTERVAL_S: f64 = 0.05;

/// In-place iterative radix-2 FFT of `re`/`im` (power-of-two length).
fn fft(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (s, c) = (ang * k as f64).sin_cos();
                let (a, b) = (start + k, start + k + len / 2);
                let tr = re[b] * c - im[b] * s;
                let ti = re[b] * s + im[b] * c;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        len <<= 1;
    }
}

/// One reference call; returns a checksum so the work is not optimised
/// away.
fn work() -> f64 {
    let mut acc = 0.0;
    let mut re = vec![0.0f64; FFT_LEN];
    let mut im = vec![0.0f64; FFT_LEN];
    for r in 0..FFTS {
        for (i, (x, y)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let t = (i * (r + 3)) as f64 * 0.001;
            *x = t.cos();
            *y = t.sin();
        }
        fft(black_box(&mut re), black_box(&mut im));
        acc += re[r] + im[FFT_LEN - 1 - r];
    }
    let a: Vec<(f64, f64)> = (0..MAC_LEN)
        .map(|i| ((i % 97) as f64 * 0.01, (i % 89) as f64 * -0.01))
        .collect();
    let mut b: Vec<(f64, f64)> = (0..MAC_LEN)
        .map(|i| ((i % 83) as f64 * 0.02, (i % 79) as f64 * 0.03))
        .collect();
    for r in 0..MACS {
        let (mut sr, mut si) = (0.0, 0.0);
        for (x, y) in black_box(&a).iter().zip(b.iter_mut()) {
            sr += x.0 * y.0 - x.1 * y.1;
            si += x.0 * y.1 + x.1 * y.0;
            y.0 = y.0 * 0.999 + x.1 * 1e-3;
        }
        acc += sr * 1e-9 + si * 1e-9 + r as f64;
    }
    acc
}

/// CPU nanoseconds spent in reference calls so far (this process). Only
/// the benchmark's main thread makes reference calls, so `Relaxed` suffices.
static SPENT_NS: AtomicU64 = AtomicU64::new(0);

/// CPU seconds this process has spent in reference calls.
pub fn spent_s() -> f64 {
    SPENT_NS.load(Ordering::Relaxed) as f64 * 1e-9
}

/// CPU seconds of one reference call.
pub fn call() -> f64 {
    let t0 = clock::raw_cpu_s();
    black_box(work());
    let d = clock::raw_cpu_s() - t0;
    SPENT_NS.fetch_add((d * 1e9) as u64, Ordering::Relaxed);
    d
}

/// Reference calls spread through a stretch of program work: one at the
/// start, one whenever `INTERVAL_S` of program CPU has passed since the
/// last (checked by [`Meter::tick`] between program calls), one at the end.
pub struct Meter {
    /// (program CPU seconds at the call, CPU seconds the call took).
    marks: Vec<(f64, f64)>,
}

impl Meter {
    pub fn start() -> Self {
        let mut m = Meter { marks: Vec::new() };
        m.mark();
        m
    }

    fn mark(&mut self) {
        let at = clock::cpu_s();
        self.marks.push((at, call()));
    }

    /// Makes a reference call if `INTERVAL_S` of program CPU has passed
    /// since the last one.
    pub fn tick(&mut self) {
        if self
            .marks
            .last()
            .is_none_or(|m| clock::cpu_s() - m.0 >= INTERVAL_S)
        {
            self.mark();
        }
    }

    pub fn finish(mut self) -> NominalClock {
        self.mark();
        let marks = self.marks;
        let mut prefix = vec![0.0];
        for w in marks.windows(2) {
            let last = prefix[prefix.len() - 1];
            prefix.push(last + (w[1].0 - w[0].0) * factor(w[0].1, w[1].1));
        }
        NominalClock { marks, prefix }
    }
}

/// Nominal CPU seconds per program CPU second between two readings.
fn factor(r0: f64, r1: f64) -> f64 {
    NOMINAL_S / (0.5 * (r0 + r1))
}

/// Maps program CPU time inside a metered stretch to CPU time at nominal
/// host speed: each stretch between two reference calls is scaled by
/// `NOMINAL_S` over the mean of the two readings.
pub struct NominalClock {
    marks: Vec<(f64, f64)>,
    /// Nominal seconds from the first mark to each mark.
    prefix: Vec<f64>,
}

impl NominalClock {
    /// Nominal seconds from the first mark to program CPU time `t`.
    /// Every timed interval lies between the first and the last mark
    /// (`Meter::start` and `Meter::finish` call the reference around the
    /// stretch); outside them the nearest stretch's scale applies.
    fn at(&self, t: f64) -> f64 {
        // A meter always holds its start and finish marks, so n ≥ 2.
        let n = self.marks.len();
        let i = self.marks.partition_point(|m| m.0 <= t).clamp(1, n - 1);
        let (c, r0) = self.marks[i - 1];
        self.prefix[i - 1] + (t - c) * factor(r0, self.marks[i].1)
    }

    /// Nominal CPU seconds of the program CPU interval `[a, b]`.
    pub fn span(&self, a: f64, b: f64) -> f64 {
        self.at(b) - self.at(a)
    }

    /// The host's speed over the stretch relative to nominal (above 1 is
    /// faster): `NOMINAL_S` over the mean reading.
    pub fn speed(&self) -> f64 {
        let mean = self.marks.iter().map(|m| m.1).sum::<f64>() / self.marks.len() as f64;
        NOMINAL_S / mean
    }
}
