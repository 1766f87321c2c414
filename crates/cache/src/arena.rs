//! Contiguous struct-of-arrays storage for every set of a cache.
//!
//! The original layout kept one heap allocation per set (`Vec<Vec<Entry>>`),
//! so a probe chased two pointers before touching a tag. [`SetArena`] flattens
//! all sets into parallel arrays — one `Vec` each for tags, metadata bits,
//! footprints, recency bookkeeping and the LRU order — indexed by
//! `set * ways + way`. A set probe is then one contiguous scan of at most
//! `ways` consecutive tags, and the whole tag store lives in a handful of
//! allocations regardless of cache size.
//!
//! Every tag store in the simulator lives in an arena: the set-associative
//! caches, the sectored L1D and the reverter's auxiliary tag directory.
//! The one-allocation-per-set LRU stack it replaced is kept only as the
//! reference model of `tests/hotpath_equivalence.rs`, which drives both
//! against random traces and asserts the same find order, promotion,
//! victim choice, footprints and eviction order.
//!
//! Apart from the read accessors, `invalidate` and the fault model's
//! `set_footprint`, every operation is fused: [`SetArena::hit_update`]
//! (probe, promote, footprint, dirty), [`SetArena::merge_update`] (the
//! L1D → L2 footprint merge), [`SetArena::install_evict`] (victim choice,
//! snapshot, re-initialization, promotion) and [`SetArena::touch_mru`]
//! (the sectored L1D's memoized same-line hit, which needs neither probe
//! nor promotion). Promotion is one move-to-front shift over the order
//! prefix up to the hit way.

use crate::TagEntry;
use ldis_mem::Footprint;

/// Flattened per-way state for `num_sets * ways` cache entries.
///
/// Metadata is packed one byte per way (valid/dirty/is-instr bits); the
/// recency order keeps `order[set * ways + pos]` = way index at recency
/// position `pos` (0 = MRU), the same permutation-per-set invariant as the
/// old per-set stack. All accessors take `(set, way)` pairs and use checked
/// indexing; out-of-range coordinates read as an invalid entry and ignore
/// writes, which callers rule out by masking set indices into range.
#[derive(Clone, Debug)]
pub struct SetArena {
    ways: usize,
    tags: Vec<u64>,
    meta: Vec<u8>,
    footprints: Vec<u16>,
    pos_seen: Vec<u8>,
    pos_change: Vec<u8>,
    /// `order[set * ways + pos]` = way at recency position `pos` (0 = MRU).
    order: Vec<u8>,
}

const VALID: u8 = 1 << 0;
const DIRTY: u8 = 1 << 1;
const INSTR: u8 = 1 << 2;

/// Moves the last way of a recency-order prefix to its front (MRU) and
/// shifts the others back one position: `remove(pos)` + `insert(0, way)`
/// on a per-set stack, as one pass over the prefix. `slice::rotate_right`
/// does the same through the general-purpose `ptr_rotate`, which is sized
/// for long slices, not for prefixes of at most `ways` bytes.
#[inline(always)]
fn move_to_front(prefix: &mut [u8]) {
    let Some(&last) = prefix.last() else {
        return;
    };
    let mut carry = last;
    for slot in prefix {
        carry = std::mem::replace(slot, carry);
    }
}

impl SetArena {
    /// Creates an empty arena of `num_sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or greater than 255.
    pub fn new(num_sets: usize, ways: u32) -> Self {
        assert!((1..=255).contains(&ways), "ways must be in 1..=255");
        let ways = ways as usize;
        let n = num_sets * ways;
        let mut order = Vec::with_capacity(n);
        for _ in 0..num_sets {
            order.extend(0..ways as u8);
        }
        SetArena {
            ways,
            tags: vec![0; n],
            meta: vec![0; n],
            footprints: vec![0; n],
            pos_seen: vec![0; n],
            pos_change: vec![0; n],
            order,
        }
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        // Explicit wrapping: an (impossible in practice) overflow produces
        // an out-of-range index, which every accessor treats as inert.
        // ldis: allow(R1, "new() sizes every array to sets * ways and all callers route the returned index through checked get/get_mut accessors, so an overflowed index is inert")
        set.wrapping_mul(self.ways).wrapping_add(way)
    }

    /// The way of `set` holding `tag`, if present and valid. Scans ways in
    /// ascending order, so the lowest matching way wins.
    #[inline]
    pub fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let tags = self.tags.get(base..base + self.ways)?;
        let meta = self.meta.get(base..base + self.ways)?;
        tags.iter()
            .zip(meta)
            .position(|(&t, &m)| m & VALID != 0 && t == tag)
    }

    /// The recency position of `way` in `set` (0 = MRU), if in range.
    #[inline]
    pub fn position_of(&self, set: usize, way: usize) -> Option<u8> {
        let base = set * self.ways;
        let order = self.order.get(base..base + self.ways)?;
        order
            .iter()
            .position(|&w| w as usize == way)
            // ldis: allow(T1, "position over the per-set order slice, whose length is ways, asserted 1..=255 in new()")
            .map(|p| p as u8)
    }

    /// The fused hit path: finds `tag` in `set` and, on a hit, promotes the
    /// way to MRU, ORs `span` into its footprint and sets the dirty bit for
    /// writes, with one base computation and one slice per array. With
    /// `latch` the Figure 2 recency bookkeeping also runs: the
    /// pre-promotion position is observed (the line's maximum position
    /// seen grows to it), and if `span` sets a new footprint bit the
    /// maximum position is latched as the position at the last footprint
    /// change. Returns the hit way, or `None` on a miss (or out-of-range
    /// `set`).
    #[inline]
    pub fn hit_update(
        &mut self,
        set: usize,
        tag: u64,
        span: u16,
        write: bool,
        latch: bool,
    ) -> Option<usize> {
        let base = set.wrapping_mul(self.ways);
        let end = base.checked_add(self.ways)?;
        let tags = self.tags.get(base..end)?;
        let meta = self.meta.get(base..end)?;
        let way = tags
            .iter()
            .zip(meta)
            .position(|(&t, &m)| m & VALID != 0 && t == tag)?;
        let i = base.wrapping_add(way);
        // Promote to MRU, remembering the pre-promotion position.
        let order = self.order.get_mut(base..end)?;
        // ldis: allow(T1, "position over the per-set order slice, whose length is ways, asserted 1..=255 in new()")
        let pos = order.iter().position(|&w| w as usize == way)? as u8;
        if let Some(prefix) = order.get_mut(..=pos as usize) {
            move_to_front(prefix);
        }
        if latch {
            let seen = match self.pos_seen.get_mut(i) {
                Some(s) => {
                    *s = (*s).max(pos);
                    *s
                }
                None => pos,
            };
            if let Some(fp) = self.footprints.get_mut(i) {
                if span & !*fp != 0 {
                    if let Some(p) = self.pos_change.get_mut(i) {
                        *p = seen;
                    }
                }
                *fp |= span;
            }
        } else if let Some(fp) = self.footprints.get_mut(i) {
            *fp |= span;
        }
        if write {
            if let Some(m) = self.meta.get_mut(i) {
                *m |= DIRTY;
            }
        }
        Some(way)
    }

    /// The fused footprint-merge path (the L1D → LOC merge of Section 4.1):
    /// finds `tag` in `set` and, on a hit, OR-merges `bits` into the
    /// footprint (newly set bits latch the maximum position seen, as in
    /// [`hit_update`](SetArena::hit_update)) and sets the dirty bit when
    /// `dirty`. Recency is **not** updated. Returns whether the line was
    /// resident.
    #[inline]
    pub fn merge_update(&mut self, set: usize, tag: u64, bits: u16, dirty: bool) -> bool {
        let base = set.wrapping_mul(self.ways);
        let Some(end) = base.checked_add(self.ways) else {
            return false;
        };
        let (Some(tags), Some(meta)) = (self.tags.get(base..end), self.meta.get(base..end)) else {
            return false;
        };
        let Some(way) = tags
            .iter()
            .zip(meta)
            .position(|(&t, &m)| m & VALID != 0 && t == tag)
        else {
            return false;
        };
        let i = base.wrapping_add(way);
        if let Some(fp) = self.footprints.get_mut(i) {
            if *fp & bits != bits {
                let seen = self.pos_seen.get(i).copied().unwrap_or(0);
                if let Some(p) = self.pos_change.get_mut(i) {
                    *p = seen;
                }
            }
            *fp |= bits;
        }
        if dirty {
            if let Some(m) = self.meta.get_mut(i) {
                *m |= DIRTY;
            }
        }
        true
    }

    /// The fused install path: picks the victim way of `set` (first
    /// invalid way, else LRU), snapshots the displaced entry,
    /// re-initializes the way for `tag` with `span` as the initial
    /// footprint (the demand words; both recency latches start at position
    /// 0, where a fresh install is observed) and promotes it to MRU, in one
    /// pass. Returns the chosen way and the displaced entry (invalid if the
    /// way was empty). An out-of-range `set` mutates nothing and returns
    /// way 0.
    #[inline]
    pub fn install_evict(
        &mut self,
        set: usize,
        tag: u64,
        span: u16,
        write: bool,
        is_instr: bool,
    ) -> (usize, TagEntry) {
        let base = set.wrapping_mul(self.ways);
        let Some(end) = base.checked_add(self.ways) else {
            return (0, TagEntry::invalid());
        };
        let Some(meta) = self.meta.get(base..end) else {
            return (0, TagEntry::invalid());
        };
        let way = match meta.iter().position(|&m| m & VALID == 0) {
            Some(w) => w,
            None => self
                .order
                .get(base..end)
                .and_then(|o| o.last())
                .map_or(0, |&w| w as usize),
        };
        let i = base.wrapping_add(way);
        let victim = self.entry(set, way);
        if let Some(t) = self.tags.get_mut(i) {
            *t = tag;
        }
        if let Some(m) = self.meta.get_mut(i) {
            *m = VALID | if write { DIRTY } else { 0 } | if is_instr { INSTR } else { 0 };
        }
        if let Some(fp) = self.footprints.get_mut(i) {
            *fp = span;
        }
        if let Some(p) = self.pos_seen.get_mut(i) {
            *p = 0;
        }
        if let Some(p) = self.pos_change.get_mut(i) {
            *p = 0;
        }
        if let Some(order) = self.order.get_mut(base..end) {
            if let Some(pos) = order.iter().position(|&w| w as usize == way) {
                if let Some(prefix) = order.get_mut(..=pos) {
                    move_to_front(prefix);
                }
            }
        }
        (way, victim)
    }

    /// The memoized hit path of the sectored L1D: ORs `span` into the
    /// footprint of `(set, way)` and sets its dirty bit for writes, with no
    /// tag probe and no recency update. Only exact for a valid way already
    /// at MRU of a cache that runs [`hit_update`](SetArena::hit_update)
    /// without `latch`: promoting position 0 is the identity, so this is
    /// that call's effect on the same line. Out-of-range coordinates are
    /// ignored.
    #[inline]
    pub fn touch_mru(&mut self, set: usize, way: usize, span: u16, write: bool) {
        let i = self.idx(set, way);
        if let Some(fp) = self.footprints.get_mut(i) {
            *fp |= span;
        }
        if write {
            if let Some(m) = self.meta.get_mut(i) {
                *m |= DIRTY;
            }
        }
    }

    /// Whether `(set, way)` holds a valid line.
    #[inline]
    pub fn is_valid(&self, set: usize, way: usize) -> bool {
        self.meta
            .get(self.idx(set, way))
            .is_some_and(|&m| m & VALID != 0)
    }

    /// Marks `(set, way)` invalid, leaving the other fields in place (the
    /// same effect as clearing `TagEntry::valid`).
    #[inline]
    pub fn invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        if let Some(m) = self.meta.get_mut(i) {
            *m &= !VALID;
        }
    }

    /// The footprint of `(set, way)` (empty if out of range).
    #[inline]
    pub fn footprint(&self, set: usize, way: usize) -> Footprint {
        Footprint::from_bits(
            self.footprints
                .get(self.idx(set, way))
                .copied()
                .unwrap_or(0),
        )
    }

    /// Overwrites the footprint of `(set, way)` without touching the
    /// recency bookkeeping — the fault-injection/repair entry point.
    #[inline]
    pub fn set_footprint(&mut self, set: usize, way: usize, fp: Footprint) {
        let i = self.idx(set, way);
        if let Some(cur) = self.footprints.get_mut(i) {
            *cur = fp.bits();
        }
    }

    /// An owned copy of the entry at `(set, way)`, in the classic
    /// [`TagEntry`] shape (an invalid entry if out of range).
    #[inline]
    pub fn entry(&self, set: usize, way: usize) -> TagEntry {
        let i = self.idx(set, way);
        let meta = self.meta.get(i).copied().unwrap_or(0);
        TagEntry {
            valid: meta & VALID != 0,
            dirty: meta & DIRTY != 0,
            is_instr: meta & INSTR != 0,
            tag: self.tags.get(i).copied().unwrap_or(0),
            footprint: self.footprint(set, way),
            max_pos_seen: self.pos_seen.get(i).copied().unwrap_or(0),
            max_pos_at_change: self.pos_change.get(i).copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Installs `tags` into set 0 in order, so the last one ends at MRU.
    fn filled(ways: u32, tags: &[u64]) -> SetArena {
        let mut arena = SetArena::new(1, ways);
        for &tag in tags {
            arena.install_evict(0, tag, 0, false, false);
        }
        arena
    }

    fn order(arena: &SetArena) -> Vec<Option<u8>> {
        (0..arena.ways()).map(|w| arena.position_of(0, w)).collect()
    }

    #[test]
    fn dirty_and_invalidate_round_trip() {
        let mut arena = SetArena::new(1, 2);
        assert_eq!(arena.install_evict(0, 7, 0, false, true).0, 0);
        assert!(arena.entry(0, 0).is_instr);
        arena.touch_mru(0, 0, 0, false);
        assert!(!arena.entry(0, 0).dirty);
        arena.touch_mru(0, 0, 0, true);
        assert!(arena.entry(0, 0).dirty);
        assert!(arena.is_valid(0, 0));
        arena.invalidate(0, 0);
        assert!(!arena.is_valid(0, 0));
        assert_eq!(arena.find(0, 7), None, "invalid entries never match");
        assert_eq!(
            arena.install_evict(0, 8, 0, false, false).0,
            0,
            "the invalid way is refilled before the LRU way"
        );
    }

    #[test]
    fn promotion_moves_the_hit_way_to_the_front() {
        // Install order 0,1,2,3 → recency order (MRU..LRU) = 3,2,1,0.
        let mut arena = filled(4, &[10, 11, 12, 13]);
        assert_eq!(order(&arena), [Some(3), Some(2), Some(1), Some(0)]);
        // Way 1 at position 2: ways 3 and 2 shift back one, way 0 stays.
        assert_eq!(arena.hit_update(0, 11, 0, false, false), Some(1));
        assert_eq!(order(&arena), [Some(3), Some(0), Some(2), Some(1)]);
        // Promoting the MRU way changes nothing.
        assert_eq!(arena.hit_update(0, 11, 0, false, false), Some(1));
        assert_eq!(order(&arena), [Some(3), Some(0), Some(2), Some(1)]);
        // The LRU way (way 0) is the victim; the newcomer lands at MRU.
        let (way, victim) = arena.install_evict(0, 14, 0, false, false);
        assert_eq!((way, victim.tag), (0, 10));
        assert_eq!(order(&arena), [Some(0), Some(1), Some(3), Some(2)]);
    }

    #[test]
    fn hit_update_without_latch_skips_recency_bookkeeping() {
        let mut arena = filled(2, &[5, 6]); // way 0 (tag 5) at position 1
        let way = arena.hit_update(0, 5, 0b100, true, false);
        assert_eq!(way, Some(0));
        let e = arena.entry(0, 0);
        assert_eq!(e.footprint.bits(), 0b100);
        assert!(e.dirty);
        assert_eq!(e.max_pos_seen, 0, "no observe without latch");
        assert_eq!(e.max_pos_at_change, 0, "no latch without latch");
        assert_eq!(arena.position_of(0, 0), Some(0), "promotion still happens");
        assert_eq!(arena.hit_update(0, 99, 0, false, false), None);
        assert_eq!(arena.hit_update(7, 5, 0, false, false), None, "oob set");
    }

    #[test]
    fn touch_mru_is_the_unlatched_hit_on_the_mru_way() {
        let mut memo = filled(2, &[5, 6]);
        let mut probed = memo.clone();
        for (span, write) in [(0b1, false), (0b110, true), (0b1, false)] {
            memo.touch_mru(0, 1, span, write);
            assert_eq!(probed.hit_update(0, 6, span, write, false), Some(1));
        }
        for way in 0..2 {
            assert_eq!(memo.entry(0, way), probed.entry(0, way));
        }
        assert_eq!(order(&memo), order(&probed));
    }

    #[test]
    fn out_of_range_coordinates_are_inert() {
        let mut arena = SetArena::new(2, 2);
        assert_eq!(arena.find(5, 0), None);
        assert_eq!(arena.position_of(5, 0), None);
        assert_eq!(arena.hit_update(5, 0, 1, true, true), None);
        assert!(!arena.merge_update(5, 0, 1, true));
        let (way, victim) = arena.install_evict(5, 1, 1, true, true);
        assert_eq!(way, 0);
        assert!(!victim.valid);
        arena.touch_mru(5, 0, 1, true); // must not panic
        arena.touch_mru(0, 9, 1, true);
        assert!(!arena.entry(5, 0).valid);
        assert_eq!(arena.entry(0, 0), TagEntry::invalid());
    }

    #[test]
    fn set_footprint_bypasses_recency_latch() {
        let mut arena = filled(2, &[1, 2]);
        assert_eq!(arena.hit_update(0, 1, 0, false, true), Some(0));
        assert_eq!(arena.entry(0, 0).max_pos_seen, 1);
        arena.set_footprint(0, 0, Footprint::full(8));
        let e = arena.entry(0, 0);
        assert_eq!(e.footprint.used_words(), 8);
        assert_eq!(e.max_pos_at_change, 0, "repair does not latch positions");
    }
}
