//! A tag-store entry of a line-organized cache.

use ldis_mem::Footprint;

/// One tag-store entry: validity, tag, dirty bit, the per-line footprint
/// (Section 3) and the bookkeeping for the Figure 2 recency analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagEntry {
    /// Whether the entry holds a line.
    pub valid: bool,
    /// Whether the line has been written since install.
    pub dirty: bool,
    /// Whether the line was installed by an instruction fetch. Instruction
    /// lines are excluded from footprint statistics and are never distilled
    /// (Section 4).
    pub is_instr: bool,
    /// The tag (line-address bits above the set index).
    pub tag: u64,
    /// Which words of the line have been used.
    pub footprint: Footprint,
    /// Maximum recency position this line has occupied since install.
    pub max_pos_seen: u8,
    /// `max_pos_seen` captured at the most recent footprint change; at
    /// eviction this is the "maximum recency position before
    /// footprint-change" of the paper's Figure 2.
    pub max_pos_at_change: u8,
}

impl TagEntry {
    /// An invalid (empty) entry.
    pub const fn invalid() -> Self {
        TagEntry {
            valid: false,
            dirty: false,
            is_instr: false,
            tag: 0,
            footprint: Footprint::empty(),
            max_pos_seen: 0,
            max_pos_at_change: 0,
        }
    }
}
