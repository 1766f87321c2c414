//! Host time, measured against a frozen reference kernel.
//!
//! On a shared host the speed of the same code drifts by 10–30 % between
//! minutes, mostly through other tenants' cache and memory traffic. The
//! benchmark therefore never reports a raw time. Every timed sample (a
//! cell's pass, a set-up round, a layer's replay) is taken right after a
//! sample of [`RefKernel`], a small cache model that lives here and calls
//! no simulator crate, and the figure is
//!
//! ```text
//! median over samples of (sample time / reference time) × REF_NOMINAL_S
//! ```
//!
//! The drift slows both sides of a pair alike and cancels in the ratio; a
//! change to the simulator moves only the numerator. The nominal time puts
//! the figure back in seconds.

use std::time::Instant;

/// Sets of the reference cache: 8 Ki sets × 16 ways × 8-byte tags is a
/// 1 MiB table. Timed side by side over six seeds of `l2-orgs`, tables of
/// 0.5–1 MiB tracked the cells' drift best (see README.md).
const REF_SETS: usize = 1 << 13;
const REF_WAYS: usize = 16;
/// Accesses in one reference sample: 16 per set on average.
const REF_ACCESSES: u32 = 1 << 17;
/// Distinct tags the stream draws per set; more than `REF_WAYS`, so the
/// stream also evicts.
const REF_TAGS_PER_SET: u64 = 24;
/// The kernel's checksum: hits of one sample. Frozen; a different count
/// means the kernel is no longer the one the nominal time was taken on.
pub const REF_HITS: u64 = 35_267;
/// Nominal time of one reference sample: its median thread CPU time
/// between cells on a 2-vCPU Xeon VM with a 2 MiB L2 per core. Frozen:
/// changing it rescales every reported time.
pub const REF_NOMINAL_S: f64 = 0.0025;

/// CPU time the calling thread has run so far, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). It leaves out the time the thread waited
/// for a CPU.
fn thread_cpu_s() -> Option<f64> {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.sec as f64 + ts.nsec as f64 / 1e9)
}

/// Runs `f` and returns its result with the CPU time it took on the
/// calling thread, or its wall time where that clock is unavailable.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (cpu, wall) = (thread_cpu_s(), Instant::now());
    let out = f();
    let secs = match (cpu, thread_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => wall.elapsed().as_secs_f64(),
    };
    (out, secs)
}

/// The frozen reference kernel: a 16-way LRU set-associative cache over a
/// fixed xorshift stream. Each sample empties the table and replays the
/// same stream, so every sample does identical work and scores
/// [`REF_HITS`].
pub struct RefKernel {
    /// `REF_WAYS` tags per set, most recently used first; 0 is empty.
    tags: Vec<u64>,
    /// Samples whose hit count was not [`REF_HITS`].
    bad_checksums: u64,
    /// Raw reference times, in seconds.
    times: Vec<f64>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel {
            tags: vec![0; REF_SETS * REF_WAYS],
            bad_checksums: 0,
            times: Vec::new(),
        }
    }
}

impl RefKernel {
    /// One pass over the stream on an empty table; returns the hit count.
    fn pass(&mut self) -> u64 {
        self.tags.fill(0);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut hits = 0;
        for _ in 0..REF_ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let set = (x as usize) & (REF_SETS - 1);
            let tag = 1 + (x >> 40) % REF_TAGS_PER_SET;
            let Some(ways) = self.tags.get_mut(set * REF_WAYS..(set + 1) * REF_WAYS) else {
                continue;
            };
            let end = match ways.iter().position(|&t| t == tag) {
                Some(way) => {
                    hits += 1;
                    way
                }
                None => REF_WAYS - 1,
            };
            ways.copy_within(0..end, 1);
            ways[0] = tag;
        }
        std::hint::black_box(hits)
    }

    /// Times one reference sample, in seconds, and checks its checksum.
    pub fn sample(&mut self) -> f64 {
        let (hits, secs) = cpu_timed(|| self.pass());
        if hits != REF_HITS {
            self.bad_checksums += 1;
        }
        self.times.push(secs);
        secs
    }

    /// Takes a reference sample, then times `f` right after it.
    pub fn paired<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let ref_secs = self.sample();
        let (out, secs) = cpu_timed(f);
        (out, Sample { secs, ref_secs })
    }

    /// Samples so far whose hit count was not the frozen checksum.
    pub fn bad_checksums(&self) -> u64 {
        self.bad_checksums
    }

    /// Median raw reference time so far, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// One timed sample and the reference sample taken next to it, both in
/// seconds of thread CPU time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub secs: f64,
    pub ref_secs: f64,
}

/// The median of `values` (NaN if empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The reference-scaled median of `samples`, in seconds: the median of
/// each sample's time over its reference time, times [`REF_NOMINAL_S`].
pub fn scaled_median(samples: &[Sample]) -> f64 {
    let ratios: Vec<f64> = samples.iter().map(|s| s.secs / s.ref_secs).collect();
    median(&ratios) * REF_NOMINAL_S
}

/// The raw median of `samples`, in seconds.
pub fn raw_median(samples: &[Sample]) -> f64 {
    let secs: Vec<f64> = samples.iter().map(|s| s.secs).collect();
    median(&secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kernel_scores_its_frozen_checksum() {
        let mut k = RefKernel::default();
        for _ in 0..3 {
            k.sample();
        }
        assert_eq!(k.bad_checksums(), 0, "the kernel no longer scores REF_HITS");
    }

    #[test]
    fn scaled_median_is_the_median_ratio_times_the_nominal_time() {
        let s = |secs, ref_secs| Sample { secs, ref_secs };
        // Ratios 2, 1, 3: median 2.
        let samples = [s(0.2, 0.1), s(0.3, 0.3), s(0.6, 0.2)];
        assert!((scaled_median(&samples) - 2.0 * REF_NOMINAL_S).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
