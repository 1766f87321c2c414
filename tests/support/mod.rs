//! Reference models kept only for the differential tests.
//!
//! [`CacheSet`] is the original one-allocation-per-set LRU stack and
//! [`RefEntry`] the scalar, word-at-a-time [`TagEntry`] bookkeeping of the
//! paper's Section 3. The simulator itself runs on the flat
//! [`SetArena`](ldis_cache::SetArena); these structures are the oracle the
//! arena, the set-associative cache, the sectored L1D and the reverter's
//! auxiliary tag directory are checked against.

use ldis_cache::{CacheConfig, EvictedL1Line, L1Lookup, TagEntry};
use ldis_mem::{Footprint, LineAddr, WordIndex};

/// The scalar per-entry mutators: install, observe a recency position,
/// touch one word, merge an external footprint.
pub trait RefEntry {
    /// Re-initializes the entry for a newly installed line.
    fn install(&mut self, tag: u64, write: bool, is_instr: bool);
    /// Records that the line was observed at recency position `pos` just
    /// before being promoted, updating the Figure 2 bookkeeping.
    fn observe_position(&mut self, pos: u8);
    /// Marks `word` used. If the bit was newly set, this is a
    /// footprint-change: the current `max_pos_seen` is latched.
    fn touch_word(&mut self, word: WordIndex);
    /// OR-merges an external footprint (an L1D eviction, Section 4.1).
    /// Newly set bits count as a footprint-change at the line's current
    /// maximum observed position.
    fn merge_footprint(&mut self, fp: Footprint);
}

impl RefEntry for TagEntry {
    fn install(&mut self, tag: u64, write: bool, is_instr: bool) {
        *self = TagEntry {
            valid: true,
            dirty: write,
            is_instr,
            tag,
            ..TagEntry::invalid()
        };
    }

    fn observe_position(&mut self, pos: u8) {
        self.max_pos_seen = self.max_pos_seen.max(pos);
    }

    fn touch_word(&mut self, word: WordIndex) {
        if self.footprint.touch(word) {
            self.max_pos_at_change = self.max_pos_seen;
        }
    }

    fn merge_footprint(&mut self, fp: Footprint) {
        if !self.footprint.covers(fp) {
            self.max_pos_at_change = self.max_pos_seen;
        }
        self.footprint.merge(fp);
    }
}

/// A cache set: `ways` tag entries plus an explicit recency stack.
///
/// The recency stack is a permutation of way indices with the MRU way at
/// position 0 and the LRU way at position `ways - 1` — exactly the "recency
/// position" numbering of the paper's Section 3 (MRU = position 0, LRU =
/// position `ways - 1`).
#[derive(Clone, Debug)]
pub struct CacheSet {
    entries: Vec<TagEntry>,
    /// `order[pos]` = way index at recency position `pos` (0 = MRU).
    order: Vec<u8>,
}

impl CacheSet {
    /// Creates an empty set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or greater than 255.
    pub fn new(ways: u32) -> Self {
        assert!((1..=255).contains(&ways), "ways must be in 1..=255");
        CacheSet {
            entries: vec![TagEntry::invalid(); ways as usize],
            order: (0..ways as u8).collect(),
        }
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.entries.len()
    }

    /// The way holding `tag`, if present and valid.
    pub fn find(&self, tag: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.valid && e.tag == tag)
    }

    /// The recency position of `way` (0 = MRU).
    pub fn position_of(&self, way: usize) -> u8 {
        self.order
            .iter()
            .position(|&w| w as usize == way)
            .expect("way must be a member of the recency order") as u8
    }

    /// Promotes `way` to MRU, returning its recency position *before* the
    /// promotion (the position an access observes, per Section 3).
    pub fn promote(&mut self, way: usize) -> u8 {
        let pos = self.position_of(way);
        let w = self.order.remove(pos as usize);
        self.order.insert(0, w);
        pos
    }

    /// The way a new line should replace: the first invalid way if any,
    /// otherwise the LRU way.
    pub fn victim_way(&self) -> usize {
        if let Some(w) = self.entries.iter().position(|e| !e.valid) {
            return w;
        }
        *self.order.last().expect("sets have at least one way") as usize
    }

    /// Shared access to the entry in `way`.
    pub fn entry(&self, way: usize) -> &TagEntry {
        &self.entries[way]
    }

    /// Exclusive access to the entry in `way`.
    pub fn entry_mut(&mut self, way: usize) -> &mut TagEntry {
        &mut self.entries[way]
    }

    /// The way index at recency position `pos` (0 = MRU).
    pub fn way_at_position(&self, pos: u8) -> usize {
        self.order[pos as usize] as usize
    }

    /// Returns the recency order as way indices, MRU first.
    pub fn recency_order(&self) -> &[u8] {
        &self.order
    }
}

/// The sectored L1D of Section 4.2 written out directly: one [`CacheSet`]
/// per set plus per-way valid-word bits. Every access probes the tags and
/// promotes the hit way; there is no way memo.
#[derive(Clone, Debug)]
pub struct RefSectoredL1 {
    cfg: CacheConfig,
    sets: Vec<CacheSet>,
    /// `valid[set][way]`, bit *i* = word *i* valid.
    valid: Vec<Vec<u16>>,
}

impl RefSectoredL1 {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let ways = cfg.ways();
        RefSectoredL1 {
            cfg,
            sets: (0..cfg.num_sets()).map(|_| CacheSet::new(ways)).collect(),
            valid: (0..cfg.num_sets())
                .map(|_| vec![0; ways as usize])
                .collect(),
        }
    }

    /// The set index, tag and resident way of `line`.
    fn locate(&self, line: LineAddr) -> (usize, u64, Option<usize>) {
        let set = self.cfg.set_index(line);
        let tag = self.cfg.tag(line);
        (set, tag, self.sets[set].find(tag))
    }

    fn classify(valid: u16, first: WordIndex, last: WordIndex) -> L1Lookup {
        if (first.get()..=last.get()).all(|w| valid & (1 << w) != 0) {
            L1Lookup::Hit
        } else {
            L1Lookup::SectorMiss
        }
    }

    /// Classifies an access without changing any state.
    pub fn lookup(&self, line: LineAddr, first: WordIndex, last: WordIndex) -> L1Lookup {
        match self.locate(line) {
            (_, _, None) => L1Lookup::Miss,
            (set, _, Some(way)) => Self::classify(self.valid[set][way], first, last),
        }
    }

    /// The valid-word bits of `line`, if resident.
    pub fn valid_words(&self, line: LineAddr) -> Option<u16> {
        let (set, _, way) = self.locate(line);
        way.map(|way| self.valid[set][way])
    }

    /// Probes, promotes, touches each word of the span and marks writes
    /// dirty; the lookup result is taken against the valid bits.
    pub fn access(
        &mut self,
        line: LineAddr,
        first: WordIndex,
        last: WordIndex,
        write: bool,
    ) -> L1Lookup {
        let (set, _, Some(way)) = self.locate(line) else {
            return L1Lookup::Miss;
        };
        self.sets[set].promote(way);
        let e = self.sets[set].entry_mut(way);
        for w in first.get()..=last.get() {
            e.footprint.touch(WordIndex::new(w));
        }
        e.dirty |= write;
        Self::classify(self.valid[set][way], first, last)
    }

    /// Installs `line` in the victim way with an empty footprint and the
    /// given valid words, promoting it to MRU.
    pub fn fill(&mut self, line: LineAddr, valid_words: Footprint) -> Option<EvictedL1Line> {
        let (set, tag, resident) = self.locate(line);
        assert!(resident.is_none(), "filling a resident line");
        let cache_set = &mut self.sets[set];
        let way = cache_set.victim_way();
        let old = *cache_set.entry(way);
        cache_set.entry_mut(way).install(tag, false, false);
        cache_set.promote(way);
        self.valid[set][way] = valid_words.bits();
        old.valid.then(|| EvictedL1Line {
            line: self.cfg.line_of(set, old.tag),
            footprint: old.footprint,
            dirty: old.dirty,
        })
    }

    /// [`fill`](Self::fill) followed by [`access`](Self::access).
    pub fn fill_demand(
        &mut self,
        line: LineAddr,
        valid_words: Footprint,
        first: WordIndex,
        last: WordIndex,
        write: bool,
    ) -> (Option<EvictedL1Line>, L1Lookup) {
        let evicted = self.fill(line, valid_words);
        (evicted, self.access(line, first, last, write))
    }

    /// Adds valid words to a resident line.
    pub fn fill_words(&mut self, line: LineAddr, valid_words: Footprint) -> bool {
        match self.locate(line) {
            (set, _, Some(way)) => {
                self.valid[set][way] |= valid_words.bits();
                true
            }
            _ => false,
        }
    }

    /// Clears the valid bit of `line`, returning its eviction record.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedL1Line> {
        let (set, _, way) = self.locate(line);
        let e = self.sets[set].entry_mut(way?);
        e.valid = false;
        Some(EvictedL1Line {
            line,
            footprint: e.footprint,
            dirty: e.dirty,
        })
    }

    /// The recency position of `line` (0 = MRU), if resident.
    pub fn position_of(&self, line: LineAddr) -> Option<u8> {
        let (set, _, way) = self.locate(line);
        way.map(|way| self.sets[set].position_of(way))
    }
}

mod tests {
    use super::*;

    fn installed(set: &mut CacheSet, way: usize, tag: u64) {
        set.entry_mut(way).install(tag, false, false);
        set.promote(way);
    }

    #[test]
    fn empty_set_has_no_matches() {
        let set = CacheSet::new(4);
        assert_eq!(set.find(0), None);
        assert_eq!(set.ways(), 4);
    }

    #[test]
    fn find_locates_valid_tags_only() {
        let mut set = CacheSet::new(4);
        installed(&mut set, 0, 10);
        assert_eq!(set.find(10), Some(0));
        assert_eq!(set.find(11), None);
        set.entry_mut(0).valid = false;
        assert_eq!(set.find(10), None);
    }

    #[test]
    fn promote_returns_prior_position_and_moves_to_mru() {
        let mut set = CacheSet::new(4);
        for (w, t) in [(0usize, 10u64), (1, 11), (2, 12), (3, 13)] {
            installed(&mut set, w, t);
        }
        // Install order 0,1,2,3 → recency order (MRU..LRU) = 3,2,1,0.
        assert_eq!(set.recency_order(), &[3, 2, 1, 0]);
        let pos = set.promote(1);
        assert_eq!(pos, 2);
        assert_eq!(set.recency_order(), &[1, 3, 2, 0]);
        assert_eq!(set.position_of(1), 0);
        assert_eq!(set.position_of(0), 3);
    }

    #[test]
    fn victim_prefers_invalid_ways() {
        let mut set = CacheSet::new(3);
        installed(&mut set, 0, 10);
        installed(&mut set, 2, 12);
        assert_eq!(set.victim_way(), 1);
        installed(&mut set, 1, 11);
        // All valid now: LRU is way 0 (installed first).
        assert_eq!(set.victim_way(), 0);
    }

    #[test]
    fn recency_order_is_always_a_permutation() {
        let mut set = CacheSet::new(8);
        for i in 0..100u64 {
            let way = (i % 8) as usize;
            installed(&mut set, way, i);
            let mut sorted: Vec<u8> = set.recency_order().to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn way_at_position_inverts_position_of() {
        let mut set = CacheSet::new(4);
        for (w, t) in [(0usize, 1u64), (1, 2), (2, 3), (3, 4)] {
            installed(&mut set, w, t);
        }
        for pos in 0..4u8 {
            assert_eq!(set.position_of(set.way_at_position(pos)), pos);
        }
    }

    #[test]
    #[should_panic(expected = "1..=255")]
    fn rejects_zero_ways() {
        let _ = CacheSet::new(0);
    }

    #[test]
    fn install_resets_state() {
        let mut e = TagEntry::invalid();
        e.footprint.touch(WordIndex::new(3));
        e.max_pos_seen = 5;
        e.install(42, true, false);
        assert!(e.valid && e.dirty && !e.is_instr);
        assert_eq!(e.tag, 42);
        assert!(e.footprint.is_empty());
        assert_eq!(e.max_pos_seen, 0);
        assert_eq!(e.max_pos_at_change, 0);
    }

    #[test]
    fn figure2_example_from_the_paper() {
        // Line A: first footprint-change at position 0, drifts to position
        // 5, a second footprint-change happens there, then the line is
        // never accessed again. Recorded value must be 5 (Section 3).
        let mut e = TagEntry::invalid();
        e.install(1, false, false);
        e.observe_position(0);
        e.touch_word(WordIndex::new(0)); // change #1 at max pos 0
        assert_eq!(e.max_pos_at_change, 0);
        e.observe_position(5); // drifted down the stack
        e.touch_word(WordIndex::new(3)); // change #2, latches max pos 5
        assert_eq!(e.max_pos_at_change, 5);
        e.observe_position(7); // drifts further but no more changes
        e.touch_word(WordIndex::new(3)); // not a change: bit already set
        assert_eq!(e.max_pos_at_change, 5);
    }

    #[test]
    fn merge_latches_position_only_on_new_bits() {
        let mut e = TagEntry::invalid();
        e.install(1, false, false);
        e.touch_word(WordIndex::new(0));
        e.observe_position(4);
        e.merge_footprint(Footprint::from_bits(0b1)); // already covered
        assert_eq!(e.max_pos_at_change, 0);
        e.merge_footprint(Footprint::from_bits(0b10)); // new bit
        assert_eq!(e.max_pos_at_change, 4);
        assert_eq!(e.footprint.used_words(), 2);
    }
}
