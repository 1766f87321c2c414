//! Differential equivalence suite for the hot-path overhaul.
//!
//! The arena-backed struct-of-arrays cache storage and the `u64` bitwise
//! footprint operations replaced per-set `Vec<Vec<Entry>>` pointer chasing
//! and per-word loops. This suite keeps the pre-overhaul per-word routines
//! alive as reference implementations and proves the fast paths bit-for-bit
//! equal to them:
//!
//! * the flat [`SetAssocCache`] against a per-set model built from the
//!   legacy [`CacheSet`] stacks and scalar [`RefEntry`] bookkeeping
//!   (`tests/support`), over hundreds of SimRng-derived random traces —
//!   same hits, same footprints, same words-used histograms, same
//!   eviction order;
//! * the reverter, whose auxiliary tag directory runs on the arena,
//!   against a reference ATD of [`CacheSet`] stacks, in lockstep over
//!   random leader-set traces — same PSEL, ATD misses, flips and
//!   decision after every access;
//! * [`Footprint::touch_span`] and the sectored-L1 span masks against the
//!   historical `for w in first..=last` loop;
//! * the WOC run-finder bit tricks against a naive aligned-window scan,
//!   exhaustively over all 2^8 low-byte valid/head patterns;
//! * seeded mutation checks: an off-by-one span mask (behind the
//!   test-only `span_mask16_with_mutation` flag) and a reference ATD that
//!   installs without promoting must each trip their differential.

mod support;

use ldis_cache::{
    CacheConfig, EvictedL1Line, EvictedLine, L1Lookup, SectoredCache, SetArena, SetAssocCache,
    TagEntry,
};
use ldis_distill::{Reverter, ReverterConfig};
use ldis_mem::bitops::{
    aligned_stride, eligible_aligned_slots, free_aligned_windows, low_mask, span_mask16,
    span_mask16_with_mutation,
};
use ldis_mem::rng::{stable_id, SimRng};
use ldis_mem::stats::Histogram;
use ldis_mem::{Footprint, LineAddr, LineGeometry, WordIndex};

use support::{CacheSet, RefEntry, RefSectoredL1};

/// The pre-overhaul reference: a set-associative cache whose sets are the
/// legacy per-set [`CacheSet`] stacks and whose footprint updates go word
/// by word through [`RefEntry`]'s scalar methods. This is exactly the
/// structure `SetAssocCache` used before the arena rewrite.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<CacheSet>,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = (0..cfg.num_sets())
            .map(|_| CacheSet::new(cfg.ways()))
            .collect();
        RefCache { cfg, sets }
    }

    fn set_mut(&mut self, line: LineAddr) -> (&mut CacheSet, u64) {
        let idx = self.cfg.set_index(line);
        let tag = self.cfg.tag(line);
        (&mut self.sets[idx], tag)
    }

    fn access(&mut self, line: LineAddr, word: Option<WordIndex>, write: bool) -> bool {
        let (set, tag) = self.set_mut(line);
        match set.find(tag) {
            Some(way) => {
                let pos = set.promote(way);
                let e = set.entry_mut(way);
                e.observe_position(pos);
                if let Some(w) = word {
                    e.touch_word(w);
                }
                if write {
                    e.dirty = true;
                }
                true
            }
            None => false,
        }
    }

    fn install(
        &mut self,
        line: LineAddr,
        word: Option<WordIndex>,
        write: bool,
        is_instr: bool,
    ) -> Option<EvictedLine> {
        let set_idx = self.cfg.set_index(line);
        let (set, tag) = self.set_mut(line);
        let way = set.victim_way();
        let victim = {
            let e = set.entry(way);
            if e.valid {
                Some((e.tag, e.dirty, e.is_instr, e.footprint, e.max_pos_at_change))
            } else {
                None
            }
        };
        let e = set.entry_mut(way);
        e.install(tag, write, is_instr);
        if let Some(w) = word {
            e.touch_word(w);
        }
        set.promote(way);
        victim.map(|(vtag, dirty, vinstr, footprint, recency)| EvictedLine {
            line: self.cfg.line_of(set_idx, vtag),
            dirty,
            is_instr: vinstr,
            footprint,
            recency_at_last_change: recency,
        })
    }

    fn merge_footprint(&mut self, line: LineAddr, fp: Footprint, dirty: bool) -> bool {
        let (set, tag) = self.set_mut(line);
        match set.find(tag) {
            Some(way) => {
                let e = set.entry_mut(way);
                e.merge_footprint(fp);
                if dirty {
                    e.dirty = true;
                }
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, line: LineAddr) -> bool {
        let (set, tag) = self.set_mut(line);
        match set.find(tag) {
            Some(way) => {
                set.entry_mut(way).valid = false;
                true
            }
            None => false,
        }
    }
}

/// Drives the arena-backed cache and the legacy reference through one
/// random trace, asserting every observable agrees step by step. Returns
/// the words-used-at-evict histograms of both paths.
fn run_trace(seed: u64) -> (Histogram, Histogram) {
    let mut rng = SimRng::new(seed);
    let sets = 1u64 << rng.range(3); // 1, 2 or 4 sets
    let ways = 1 + rng.range(8) as u32; // 1..=8 ways
    let cfg = CacheConfig::with_sets(sets, ways, LineGeometry::default());
    let mut fast = SetAssocCache::new(cfg);
    let mut slow = RefCache::new(cfg);
    let mut fast_hist = Histogram::new(9);
    let mut slow_hist = Histogram::new(9);
    let lines = sets * (ways as u64 + 2); // enough aliases to force evictions
    for step in 0..300 {
        let line = LineAddr::new(rng.range(lines));
        let word = match rng.range(4) {
            0 => None,
            _ => Some(WordIndex::new(rng.range(8) as u8)),
        };
        let write = rng.chance(0.3);
        match rng.range(10) {
            0 => {
                // Footprint merge from a simulated L1 eviction.
                let fp = Footprint::from_bits((rng.next_u64() & 0xff) as u16);
                assert_eq!(
                    fast.merge_footprint(line, fp, write),
                    slow.merge_footprint(line, fp, write),
                    "merge disagrees at step {step} (seed {seed:#x})"
                );
            }
            1 => {
                let fast_ev = fast.invalidate(line);
                assert_eq!(
                    fast_ev.is_some(),
                    slow.invalidate(line),
                    "invalidate disagrees at step {step} (seed {seed:#x})"
                );
            }
            _ => {
                let hit = fast.access(line, word, write);
                assert_eq!(
                    hit,
                    slow.access(line, word, write),
                    "hit/miss disagrees at step {step} (seed {seed:#x})"
                );
                if !hit {
                    let is_instr = rng.chance(0.2);
                    let fast_ev = fast.install(line, word, write, is_instr);
                    let slow_ev = slow.install(line, word, write, is_instr);
                    assert_eq!(
                        fast_ev, slow_ev,
                        "eviction disagrees at step {step} (seed {seed:#x})"
                    );
                    for (ev, hist) in [(fast_ev, &mut fast_hist), (slow_ev, &mut slow_hist)] {
                        if let Some(ev) = ev {
                            if !ev.is_instr {
                                hist.record(ev.footprint.used_words() as usize);
                            }
                        }
                    }
                }
            }
        }
    }
    // Final state: every resident line, its entry and its recency position
    // must agree between the arena and the per-set reference.
    let mut fast_state: Vec<_> = fast
        .iter_lines()
        .map(|(l, e)| (l.raw(), e, fast.position_of(l)))
        .collect();
    fast_state.sort_by_key(|(raw, _, _)| *raw);
    let mut slow_state = Vec::new();
    for set_idx in 0..sets as usize {
        let set = &slow.sets[set_idx];
        for way in 0..ways as usize {
            let e = *set.entry(way);
            if e.valid {
                let line = cfg.line_of(set_idx, e.tag);
                slow_state.push((line.raw(), e, Some(set.position_of(way))));
            }
        }
    }
    slow_state.sort_by_key(|(raw, _, _)| *raw);
    assert_eq!(
        fast_state, slow_state,
        "final state disagrees (seed {seed:#x})"
    );
    (fast_hist, slow_hist)
}

#[test]
fn arena_cache_matches_legacy_per_set_model_on_random_traces() {
    // 240 independent SimRng-derived traces across set counts, way counts
    // and op mixes; every observable is asserted inside `run_trace`, and
    // the accumulated words-used histograms must match bin for bin.
    let mut master = SimRng::new(stable_id("hotpath-equivalence"));
    let mut fast_total = Histogram::new(9);
    let mut slow_total = Histogram::new(9);
    for _ in 0..240 {
        let (f, s) = run_trace(master.next_u64());
        fast_total.merge(&f);
        slow_total.merge(&s);
    }
    for bin in 0..9 {
        assert_eq!(fast_total.count(bin), slow_total.count(bin), "bin {bin}");
    }
    assert!(fast_total.total() > 0, "traces must produce evictions");
}

/// Marks every word of `span` used, one word at a time.
fn touch_bits(e: &mut TagEntry, span: u16) {
    for w in 0..16 {
        if span & (1 << w) != 0 {
            e.touch_word(WordIndex::new(w));
        }
    }
}

/// One access through the legacy reference set: a hit promotes, observes
/// the pre-promotion position, touches each word of `span` and marks
/// writes dirty; a miss installs the victim way, touches the span and
/// promotes. Returns the way and, on a miss, the displaced entry.
fn ref_set_access(
    set: &mut CacheSet,
    tag: u64,
    span: u16,
    write: bool,
) -> (usize, Option<TagEntry>) {
    match set.find(tag) {
        Some(way) => {
            let pos = set.promote(way);
            let e = set.entry_mut(way);
            e.observe_position(pos);
            touch_bits(e, span);
            e.dirty |= write;
            (way, None)
        }
        None => {
            let way = set.victim_way();
            let victim = *set.entry(way);
            let e = set.entry_mut(way);
            e.install(tag, write, false);
            touch_bits(e, span);
            set.promote(way);
            (way, Some(victim))
        }
    }
}

/// The same access through the arena's fused operations.
fn arena_access(
    arena: &mut SetArena,
    set: usize,
    tag: u64,
    span: u16,
    write: bool,
) -> (usize, Option<TagEntry>) {
    match arena.hit_update(set, tag, span, write, true) {
        Some(way) => (way, None),
        None => {
            let (way, victim) = arena.install_evict(set, tag, span, write, false);
            (way, Some(victim))
        }
    }
}

/// Every entry and recency position of the arena equals the reference's.
fn assert_arena_matches(arena: &SetArena, sets: &[CacheSet], ctx: &str) {
    for (set, legacy) in sets.iter().enumerate() {
        for way in 0..legacy.ways() {
            assert_eq!(arena.entry(set, way), *legacy.entry(way), "{ctx}");
            assert_eq!(
                arena.position_of(set, way),
                Some(legacy.position_of(way)),
                "{ctx}"
            );
        }
    }
}

#[test]
fn arena_find_promote_victim_match_cache_set() {
    // Drive the arena's fused hit/merge/install paths and the legacy
    // per-set stack with scalar `RefEntry` bookkeeping through the same
    // random accesses and merges at every way count; every find, victim,
    // displaced entry, footprint latch and recency position must agree.
    let mut master = SimRng::new(stable_id("arena-fused-vs-cache-set"));
    for ways in 1..=8u32 {
        let mut rng = SimRng::new(master.next_u64());
        let mut arena = SetArena::new(2, ways);
        let mut sets = [CacheSet::new(ways), CacheSet::new(ways)];
        for step in 0..400 {
            let set = rng.range(2) as usize;
            let tag = rng.range(u64::from(ways) + 3);
            let first = rng.range(8) as u8;
            let span = span_mask16(first, first + rng.range(2) as u8);
            let write = rng.chance(0.3);
            let ctx = format!("ways {ways} step {step}");
            let legacy = &mut sets[set];
            assert_eq!(arena.find(set, tag), legacy.find(tag), "{ctx}");
            if rng.chance(0.2) {
                let bits = (rng.next_u64() & 0xff) as u16;
                let resident = match legacy.find(tag) {
                    Some(way) => {
                        let e = legacy.entry_mut(way);
                        e.merge_footprint(Footprint::from_bits(bits));
                        e.dirty |= write;
                        true
                    }
                    None => false,
                };
                assert_eq!(arena.merge_update(set, tag, bits, write), resident, "{ctx}");
            } else {
                assert_eq!(
                    arena_access(&mut arena, set, tag, span, write),
                    ref_set_access(legacy, tag, span, write),
                    "{ctx}"
                );
            }
            assert_arena_matches(&arena, &sets, &ctx);
        }
    }
}

#[test]
fn arena_touch_and_merge_latch_positions_like_tag_entry() {
    // The Figure 2 bookkeeping on one 8-way set, scripted so each latch
    // rule fires: a footprint change latches the maximum position seen so
    // far, a repeat word does not, and a merge latches only on new bits.
    let mut arena = SetArena::new(1, 8);
    let mut sets = [CacheSet::new(8)];
    let mut step = |tag: u64, span: u16, merge: bool| {
        if merge {
            let resident = match sets[0].find(tag) {
                Some(way) => {
                    sets[0]
                        .entry_mut(way)
                        .merge_footprint(Footprint::from_bits(span));
                    true
                }
                None => false,
            };
            assert_eq!(arena.merge_update(0, tag, span, false), resident);
        } else {
            assert_eq!(
                arena_access(&mut arena, 0, tag, span, false),
                ref_set_access(&mut sets[0], tag, span, false)
            );
        }
        assert_arena_matches(&arena, &sets, &format!("tag {tag} span {span:#b}"));
        arena.entry(0, 0)
    };
    assert_eq!(step(9, 0b1, false).max_pos_at_change, 0); // install, way 0
    for tag in 10..13 {
        step(tag, 0b1, false); // tag 9 drifts to position 3
    }
    let e = step(9, 0b10, false); // change at position 3
    assert_eq!((e.max_pos_seen, e.max_pos_at_change), (3, 3));
    for tag in 13..18 {
        step(tag, 0b1, false); // tag 9 drifts to position 5
    }
    let e = step(9, 0b10, false); // repeat word: observed, no change
    assert_eq!((e.max_pos_seen, e.max_pos_at_change), (5, 3));
    let e = step(9, 0b11, true); // merge of covered bits: no change
    assert_eq!(e.max_pos_at_change, 3);
    let e = step(9, 0b110, true); // merge with a new bit latches 5
    assert_eq!(e.max_pos_at_change, 5);
    assert_eq!(e.footprint.bits(), 0b111);
}

/// Random valid-word bits of an 8-word line.
fn random_words(rng: &mut SimRng) -> Footprint {
    Footprint::from_bits((rng.next_u64() & 0xff) as u16)
}

/// The outcome of one step of the L1D lockstep, compared side by side.
#[derive(Debug, PartialEq)]
enum L1Step {
    Lookup(L1Lookup),
    Fill(Option<EvictedL1Line>, L1Lookup),
    FillWords(bool),
    Invalidate(Option<EvictedL1Line>),
    Position(Option<u8>),
}

/// Drives [`SectoredCache`] and the memo-free [`RefSectoredL1`] through the
/// same SimRng-derived traces, comparing every lookup result, eviction
/// record, sector fill and recency position, and at the end every resident
/// line's valid words, position and eviction record. Traces repeat the
/// previous line most of the time, as a line visit of the generators does,
/// and mix in partial-valid fills, both fill paths, sector fills and
/// invalidations. With `mutated`, the reference behaves as a memo that
/// survives `invalidate`: the next access to the invalidated line is
/// classified against its stale valid bits instead of missing. Returns
/// the number of accesses that repeated the previous line, or the first
/// disagreement.
fn l1d_lockstep(mutated: bool) -> Result<u64, String> {
    let mut repeats = 0;
    let mut master = SimRng::new(stable_id("l1d-memo-lockstep"));
    for trace in 0..120 {
        let mut rng = SimRng::new(master.next_u64());
        let sets = 1u64 << rng.range(3);
        let ways = 1 + rng.range(4) as u32;
        let cfg = CacheConfig::with_sets(sets, ways, LineGeometry::default());
        let mut fast = SectoredCache::new(cfg);
        let mut slow = RefSectoredL1::new(cfg);
        let lines = sets * (u64::from(ways) + 2);
        let mut prev = LineAddr::new(0);
        // The mutated reference's stale memo: the line last touched, and
        // its valid bits once it has been invalidated.
        let mut last_touched = None;
        let mut stale: Option<(LineAddr, u16)> = None;
        for step in 0..1_500 {
            let line = if rng.chance(0.75) {
                repeats += 1;
                prev
            } else {
                LineAddr::new(rng.range(lines))
            };
            prev = line;
            let first = rng.range(8) as u8;
            let last = first + rng.range(u64::from(8 - first).min(3)) as u8;
            let (first, last) = (WordIndex::new(first), WordIndex::new(last));
            let span = span_mask16(first.get(), last.get());
            let write = rng.chance(0.3);
            let mut steps: Vec<(L1Step, L1Step)> = Vec::new();
            match rng.range(20) {
                0 => {
                    let valid = slow.valid_words(line);
                    let got = fast.invalidate(line);
                    steps.push((
                        L1Step::Invalidate(got),
                        L1Step::Invalidate(slow.invalidate(line)),
                    ));
                    if mutated && last_touched == Some(line) {
                        stale = valid.map(|v| (line, v));
                    }
                }
                1 => {
                    let bits = random_words(&mut rng);
                    steps.push((
                        L1Step::FillWords(fast.fill_words(line, bits)),
                        L1Step::FillWords(slow.fill_words(line, bits)),
                    ));
                }
                2 => steps.push((
                    L1Step::Position(fast.position_of(line)),
                    L1Step::Position(slow.position_of(line)),
                )),
                _ => {
                    let got = fast.access(line, first, last, write);
                    let want = match stale {
                        Some((l, valid)) if l == line => {
                            if span & !valid == 0 {
                                L1Lookup::Hit
                            } else {
                                L1Lookup::SectorMiss
                            }
                        }
                        _ => slow.access(line, first, last, write),
                    };
                    steps.push((L1Step::Lookup(got), L1Step::Lookup(want)));
                    last_touched = Some(line);
                    stale = stale.filter(|&(l, _)| l == line);
                    let mut lookup = got;
                    if got == L1Lookup::Miss && want == L1Lookup::Miss {
                        // Half the fills deliver the full line, half a
                        // partial one that may miss part of the span.
                        let valid = if rng.chance(0.5) {
                            Footprint::full(8)
                        } else {
                            random_words(&mut rng)
                        };
                        let (ev, look) = if rng.chance(0.7) {
                            (
                                fast.fill_demand(line, valid, first, last, write),
                                slow.fill_demand(line, valid, first, last, write),
                            )
                        } else {
                            let fast_ev = fast.fill(line, valid);
                            let slow_ev = slow.fill(line, valid);
                            (
                                (fast_ev, fast.access(line, first, last, write)),
                                (slow_ev, slow.access(line, first, last, write)),
                            )
                        };
                        lookup = ev.1;
                        steps.push((L1Step::Fill(ev.0, ev.1), L1Step::Fill(look.0, look.1)));
                    }
                    if lookup == L1Lookup::SectorMiss {
                        // The hierarchy's sector-miss loop: fetch each
                        // still-invalid word, sometimes with neighbours.
                        for w in first.get()..=last.get() {
                            let w = WordIndex::new(w);
                            let (a, b) = (fast.lookup(line, w, w), slow.lookup(line, w, w));
                            steps.push((L1Step::Lookup(a), L1Step::Lookup(b)));
                            if a == L1Lookup::SectorMiss {
                                let bits = Footprint::from_bits(
                                    span_mask16(w.get(), w.get()) | random_words(&mut rng).bits(),
                                );
                                steps.push((
                                    L1Step::FillWords(fast.fill_words(line, bits)),
                                    L1Step::FillWords(slow.fill_words(line, bits)),
                                ));
                            }
                        }
                    }
                }
            }
            for (got, want) in steps {
                if got != want {
                    return Err(format!(
                        "trace {trace} step {step}: SectoredCache {got:?} vs reference {want:?}"
                    ));
                }
            }
        }
        // Final state: every line's valid words, recency position and
        // eviction record.
        for raw in 0..lines {
            let line = LineAddr::new(raw);
            let mut got = vec![L1Step::Position(fast.position_of(line))];
            let mut want = vec![L1Step::Position(slow.position_of(line))];
            for w in 0..8 {
                let w = WordIndex::new(w);
                got.push(L1Step::Lookup(fast.lookup(line, w, w)));
                want.push(L1Step::Lookup(slow.lookup(line, w, w)));
            }
            got.push(L1Step::Invalidate(fast.invalidate(line)));
            want.push(L1Step::Invalidate(slow.invalidate(line)));
            if got != want {
                return Err(format!(
                    "trace {trace} final line {raw}: SectoredCache {got:?} vs reference {want:?}"
                ));
            }
        }
        if fast.occupancy() != 0 {
            return Err(format!("trace {trace}: lines left after invalidating all"));
        }
    }
    Ok(repeats)
}

#[test]
fn sectored_l1d_matches_memo_free_reference_in_lockstep() {
    match l1d_lockstep(false) {
        Ok(repeats) => assert!(repeats > 100_000, "traces must favour same-line runs"),
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn seeded_l1d_memo_mutation_trips_the_lockstep() {
    assert!(
        l1d_lockstep(true).is_err(),
        "a memo that survives invalidate must be detected"
    );
}

/// The reverter of Section 5.5 written out directly: one traditional LRU
/// [`CacheSet`] per leader set as the auxiliary tag directory, and the
/// PSEL counter with its 64/192 hysteresis. With `mutated`, a missing line
/// is installed without being promoted to MRU — the seeded defect the
/// lockstep differential must catch.
struct RefReverter {
    cfg: ReverterConfig,
    stride: usize,
    atd: Vec<CacheSet>,
    psel: u16,
    enabled: bool,
    atd_misses: u64,
    distill_leader_misses: u64,
    flips: u64,
    mutated: bool,
}

impl RefReverter {
    fn new(cfg: ReverterConfig, num_sets: u64, ways: u32, mutated: bool) -> Self {
        RefReverter {
            cfg,
            stride: (num_sets / u64::from(cfg.leader_sets)) as usize,
            atd: (0..cfg.leader_sets).map(|_| CacheSet::new(ways)).collect(),
            psel: cfg.psel_max.div_ceil(2),
            enabled: true,
            atd_misses: 0,
            distill_leader_misses: 0,
            flips: 0,
            mutated,
        }
    }

    fn observe(&mut self, set: usize, tag: u64, distill_missed: bool) {
        let atd = &mut self.atd[set / self.stride];
        let atd_missed = match atd.find(tag) {
            Some(way) => {
                atd.promote(way);
                false
            }
            None => {
                let way = atd.victim_way();
                atd.entry_mut(way).install(tag, false, false);
                if !self.mutated {
                    atd.promote(way);
                }
                true
            }
        };
        if distill_missed {
            self.distill_leader_misses += 1;
            self.psel = self.psel.saturating_sub(1);
        }
        if atd_missed {
            self.atd_misses += 1;
            self.psel = (self.psel + 1).min(self.cfg.psel_max);
        }
        let next = if self.psel < self.cfg.disable_below {
            false
        } else if self.psel > self.cfg.enable_above {
            true
        } else {
            self.enabled
        };
        if next != self.enabled {
            self.flips += 1;
            self.enabled = next;
        }
    }
}

/// Drives [`Reverter`] and the reference through the same SimRng-derived
/// leader-set traces, comparing PSEL, ATD misses, distill misses, flips
/// and the decision after every access. Returns the total decision flips
/// seen, or the first disagreement.
fn reverter_lockstep(mutated: bool) -> Result<u64, String> {
    let mut flips = 0;
    let mut master = SimRng::new(stable_id("reverter-lockstep"));
    for trace in 0..60 {
        let mut rng = SimRng::new(master.next_u64());
        let leader_sets = [8u32, 32][rng.range(2) as usize];
        let num_sets = u64::from(leader_sets) << (1 + rng.range(3)); // stride 2, 4 or 8
        let ways = 1 + rng.range(8) as u32;
        let cfg = ReverterConfig {
            leader_sets,
            ..ReverterConfig::default()
        };
        let mut fast = Reverter::new(cfg, num_sets, ways);
        let mut slow = RefReverter::new(cfg, num_sets, ways, mutated);
        let stride = (num_sets / u64::from(leader_sets)) as usize;
        // Few enough tags per set that lines are reused, enough that the
        // ATD evicts; the distill-miss odds drift per trace so PSEL visits
        // both rails.
        let tags = u64::from(ways) + 1 + rng.range(4);
        let miss_odds = [0.1, 0.5, 0.9][rng.range(3) as usize];
        for step in 0..2_000 {
            let set = rng.range(u64::from(leader_sets)) as usize * stride;
            let tag = rng.range(tags);
            let distill_missed = rng.chance(miss_odds);
            fast.observe_leader_access(set, LineAddr::new(tag), distill_missed);
            slow.observe(set, tag, distill_missed);
            let got = (
                fast.psel(),
                fast.atd_misses,
                fast.distill_leader_misses,
                fast.flips,
                fast.ldis_enabled(),
            );
            let want = (
                slow.psel,
                slow.atd_misses,
                slow.distill_leader_misses,
                slow.flips,
                slow.enabled,
            );
            if got != want {
                return Err(format!(
                    "trace {trace} step {step}: reverter {got:?} vs reference {want:?}"
                ));
            }
        }
        flips += fast.flips;
    }
    Ok(flips)
}

#[test]
fn reverter_atd_matches_cache_set_reference_in_lockstep() {
    match reverter_lockstep(false) {
        Ok(flips) => assert!(flips > 0, "the traces must drive PSEL across both rails"),
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn seeded_reverter_mutation_trips_the_lockstep() {
    assert!(
        reverter_lockstep(true).is_err(),
        "a reference ATD that installs without promoting must be detected"
    );
}

/// The per-word span reference — the loop `touch_span` replaced.
fn touch_span_ref(fp: &mut Footprint, first: u8, last: u8) -> bool {
    let mut changed = false;
    for w in first..=last {
        changed |= fp.touch(WordIndex::new(w));
    }
    changed
}

/// Drives random span accesses through a mask-based footprint (built with
/// `span_fn`) and the per-word reference; returns whether every step
/// agreed. The real mask must always agree; the mutated mask must not.
fn span_differential_agrees(span_fn: fn(u8, u8) -> u16) -> bool {
    let mut rng = SimRng::new(stable_id("span-differential"));
    for _ in 0..2_000 {
        let first = rng.range(8) as u8;
        let last = first + rng.range(8 - first as u64) as u8;
        let pre = (rng.next_u64() & 0xff) as u16;
        let mut fast = Footprint::from_bits(pre);
        let mask = span_fn(first, last);
        let fast_changed = mask & !fast.bits() != 0;
        fast.merge(Footprint::from_bits(mask));
        let mut slow = Footprint::from_bits(pre);
        let slow_changed = touch_span_ref(&mut slow, first, last);
        if fast != slow || fast_changed != slow_changed {
            return false;
        }
    }
    true
}

#[test]
fn touch_span_matches_per_word_loop() {
    assert!(span_differential_agrees(span_mask16));
    // The public API path must agree too, exhaustively.
    for first in 0u8..8 {
        for last in first..8 {
            for pre in 0u16..256 {
                let mut fast = Footprint::from_bits(pre);
                let fast_changed = fast.touch_span(WordIndex::new(first), WordIndex::new(last));
                let mut slow = Footprint::from_bits(pre);
                let slow_changed = touch_span_ref(&mut slow, first, last);
                assert_eq!(fast, slow, "first={first} last={last} pre={pre:#b}");
                assert_eq!(fast_changed, slow_changed);
            }
        }
    }
}

#[test]
fn seeded_mutation_trips_the_suite() {
    // The deliberately off-by-one mask (test-only flag) must be caught by
    // the same differential that passes for the real implementation —
    // evidence the suite has teeth.
    assert!(span_differential_agrees(|f, l| span_mask16_with_mutation(
        f, l, false
    )));
    assert!(
        !span_differential_agrees(|f, l| span_mask16_with_mutation(f, l, true)),
        "the off-by-one span mask must be detected"
    );
}

#[test]
fn span_mask_popcount_is_span_length() {
    for first in 0u8..16 {
        for last in first..16 {
            assert_eq!(
                span_mask16(first, last).count_ones() as u8,
                last - first + 1,
                "first={first} last={last}"
            );
        }
    }
}

#[test]
fn footprint_merge_is_bitwise_or() {
    let mut rng = SimRng::new(stable_id("merge-is-or"));
    for _ in 0..1_000 {
        let a = (rng.next_u64() & 0xffff) as u16;
        let b = (rng.next_u64() & 0xffff) as u16;
        let mut fp = Footprint::from_bits(a);
        fp.merge(Footprint::from_bits(b));
        assert_eq!(fp.bits(), a | b);
        assert_eq!(
            Footprint::from_bits(a)
                .merged(Footprint::from_bits(b))
                .bits(),
            a | b
        );
    }
}

/// Naive run-finder: scan every aligned offset and test each slot — the
/// shape of the pre-overhaul WOC placement loop.
fn free_windows_ref(valid: u64, words: u32, slots: u32) -> u64 {
    let mut out = 0u64;
    let mut offset = 0;
    while offset + slots <= words {
        if (offset..offset + slots).all(|s| valid & (1 << s) == 0) {
            out |= 1 << offset;
        }
        offset += slots;
    }
    out
}

#[test]
fn run_finder_matches_naive_scan_for_all_byte_patterns() {
    // Exhaustive over all 2^8 valid patterns and all 2^8 head patterns of
    // an 8-word WOC way, for every power-of-two run size the paper allows.
    for valid in 0u64..256 {
        for slots in [1u32, 2, 4, 8] {
            assert_eq!(
                free_aligned_windows(valid, 8, slots),
                free_windows_ref(valid, 8, slots),
                "valid={valid:#010b} slots={slots}"
            );
        }
        for head in 0u64..256 {
            for slots in [1u32, 2, 4, 8] {
                let got = eligible_aligned_slots(valid, head, 8, slots);
                let mut expect = 0u64;
                let mut offset = 0;
                while offset < 8 {
                    if valid & (1 << offset) == 0 || head & (1 << offset) != 0 {
                        expect |= 1 << offset;
                    }
                    offset += slots;
                }
                assert_eq!(got, expect, "valid={valid:#b} head={head:#b} slots={slots}");
            }
        }
    }
}

#[test]
fn stride_and_low_mask_building_blocks() {
    assert_eq!(aligned_stride(1), u64::MAX);
    assert_eq!(aligned_stride(2) & low_mask(8), 0b0101_0101);
    assert_eq!(aligned_stride(4) & low_mask(8), 0b0001_0001);
    assert_eq!(aligned_stride(8) & low_mask(8), 0b0000_0001);
    assert_eq!(low_mask(8), 0xff);
}
