//! Worker-count settings for every sweep.
//!
//! Every paper figure walks a benchmark × cache-configuration matrix whose
//! cells are mutually independent: each cell constructs its own workload
//! and caches, and draws its randomness from a seed derived with
//! [`SimRng::derive`](ldis_mem::SimRng::derive) rather than from any
//! shared stream. Cells therefore run on the crash-safe executor
//! ([`crate::exec::run_cells`]) in any order on any number of threads, and
//! the merged result is bit-identical because results are always written
//! back into canonical matrix order.
//!
//! This module only decides how many workers that executor gets. The
//! count resolves, in priority order:
//!
//! 1. an explicit [`set_thread_override`] (the binary's `--threads` flag);
//! 2. the `LDIS_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// `--threads` override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or clears, with `None`) a process-wide worker-count override
/// that takes precedence over `LDIS_THREADS` and the detected parallelism.
/// Used by the `ldis-experiments` binary's `--threads` flag.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The machine's available parallelism (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker count sweeps will use: the [`set_thread_override`] value if
/// set, else `LDIS_THREADS` if set and parseable, else
/// [`available_threads`]. Always at least 1.
pub fn configured_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("LDIS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configured_threads_is_positive_and_override_wins() {
        assert!(configured_threads() >= 1);
        set_thread_override(Some(3));
        assert_eq!(configured_threads(), 3);
        set_thread_override(None);
        assert!(configured_threads() >= 1);
    }
}
