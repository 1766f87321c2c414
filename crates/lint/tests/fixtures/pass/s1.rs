//! Seed-provenance discipline done right: S1 must stay silent on every
//! function here. Scanned as `crates/core/src/fixture.rs`.

/// A `seed`-named parameter is trusted as already derived by the caller.
pub fn from_param(cell_seed: u64) -> SimRng {
    SimRng::new(cell_seed)
}

/// Rebinding on a branch keeps the taint when the new value is also
/// derived: the must-join proves it on every path.
pub fn re_derived(seed: u64, flip: bool) -> SimRng {
    let mut s = SimRng::derive_seed(seed, 1, 2);
    if flip {
        s = SimRng::derive_seed(seed, 3, 4);
    }
    SimRng::new(s)
}

/// Forking a throwaway worker stream for the parallel region leaves the
/// parent's sequence untouched and reusable.
pub fn forked_worker(seed: u64, cells: &[u64]) -> u64 {
    let mut rng = SimRng::new(seed);
    let mut worker = rng.fork();
    let out = for_each_benchmark(cells, |c| c + worker.next_u64());
    rng.next_u64() + out[0]
}

/// Distinct `stable_id` salts produce distinct streams — no collision.
pub fn distinct_salts(seed: u64) -> (u64, u64) {
    let a = SimRng::derive_seed_chain(seed, &[1, stable_id("loc")]);
    let b = SimRng::derive_seed_chain(seed, &[1, stable_id("woc")]);
    (a, b)
}

/// The waiver syntax: a justified allow silences a deliberate fixed
/// stream.
pub fn waived() -> SimRng {
    // ldis: allow(S1, "fixture: fixed bring-up stream, goldens frozen")
    SimRng::new(0x7131)
}
