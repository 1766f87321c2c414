//! Deliberate S1 violations: every RNG construction or derive here
//! breaks the seed-provenance discipline in a distinct way. Scanned as
//! `crates/core/src/fixture.rs`; the self-test pins the exact count.

/// A literal seed: the stream is not derived from the root seed at all.
pub fn literal_seed() -> SimRng {
    SimRng::new(0xdead_beef)
}

/// The taint is killed on one branch: at the merge the must-analysis no
/// longer proves `s` derived, so the construction is flagged.
pub fn branch_killed(seed: u64, flip: bool) -> SimRng {
    let mut s = SimRng::derive_seed(seed, 1, 2);
    if flip {
        s = 3;
    }
    SimRng::new(s)
}

/// The parent RNG is captured by a parallel region and then used again:
/// the post-region draw interleaves with the workers' stream.
pub fn reuse_after_parallel(seed: u64, cells: &[u64]) -> u64 {
    let mut rng = SimRng::new(seed);
    let out = run_cells(cells, |_, c| c + rng.next_u64());
    rng.next_u64() + out[0]
}

/// First half of a salt collision: same base, same resolved salts as
/// `salt_collision_b` below.
pub fn salt_collision_a(seed: u64) -> u64 {
    SimRng::derive_seed_chain(seed, &[7, stable_id("woc")])
}

/// Second half — `3 + 4` const-folds to the same 7, so the two derived
/// streams are identical. Flagged against the first site.
pub fn salt_collision_b(seed: u64) -> u64 {
    SimRng::derive_seed_chain(seed, &[3 + 4, stable_id("woc")])
}
