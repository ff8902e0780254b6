//! The Block Translation Table (BTT) and Page Translation Table (PTT) of
//! Figure 5.
//!
//! Both tables map physical block/page indices to the location of the
//! software-visible working copy and record which checkpoint region holds
//! `C_last` and which one the running checkpoint writes (`pending`). The store counts that drive §4.2's scheme switching are kept
//! per page by the controller, not in the entries.
//!
//! The tables are the *hardware budget* of the design: entry counts are
//! fixed at construction ([`thynvm_types::ThyNvmConfig`]), and overflow
//! forces the controller to end the epoch early so that entries belonging
//! to the penultimate checkpoint can be reclaimed (§4.3).

use std::collections::hash_map::Entry;

use thynvm_types::{BlockIndex, FxHashMap, PageIndex};

use crate::layout::Region;

/// Where a block-remapped working copy currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WactiveLoc {
    /// Directly in an NVM checkpoint region (the normal §3.2 case: the
    /// working copy overwrites `C_penult` in place).
    Nvm(Region),
    /// Temporarily buffered in the DRAM Working Data Region because the
    /// previous checkpoint had not completed when the write arrived (§4.1).
    DramBuffered {
        /// Index of the DRAM block-buffer slot holding the copy.
        slot: u32,
    },
}

/// One BTT entry: tracking state for a single 64 B block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BttEntry {
    /// Location of the active working copy, if the block was written in the
    /// current (active) epoch.
    pub wactive: Option<WactiveLoc>,
    /// Region holding the last checkpoint copy, if one exists. `None` means
    /// the only committed copy is the Home Region original.
    pub clast_region: Option<Region>,
    /// Region the running checkpoint job captured the working copy in (it
    /// becomes `C_last` when the job completes). Buffered copies drain to
    /// NVM before the capture, so this is always an NVM region.
    pub pending: Option<Region>,
}

impl BttEntry {
    fn new() -> Self {
        Self { wactive: None, clast_region: None, pending: None }
    }

    /// Whether this entry holds no in-flight state and can be reclaimed
    /// (after migrating `C_last` back to the Home Region if necessary).
    pub fn is_quiescent(&self) -> bool {
        self.wactive.is_none() && self.pending.is_none()
    }
}

/// The Block Translation Table.
///
/// # Example
///
/// ```
/// use thynvm_core::Btt;
/// use thynvm_types::BlockIndex;
///
/// let mut btt = Btt::new(4);
/// let b = BlockIndex::new(7);
/// assert!(btt.get(b).is_none());
/// btt.entry_or_insert(b).expect("capacity available");
/// assert!(btt.get(b).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Btt {
    entries: FxHashMap<BlockIndex, BttEntry>,
    capacity: usize,
    peak: usize,
    /// Blocks that *may* be quiescent — a superset of the truly quiescent
    /// entries, maintained by [`Btt::note_quiescent`] at the controller's
    /// quiescence-transition points and validated lazily against `entries`
    /// when victims are selected. `hints[next..sorted]` are the hints not
    /// yet consumed, ascending and distinct; `hints[sorted..]` is the
    /// unsorted tail `note_quiescent` appends to, which the next victim
    /// selection sorts once and merges in. This turns every overflow
    /// reclaim from a full-table scan-and-partition into a read of the
    /// next `O(victims)` hints.
    hints: Vec<BlockIndex>,
    /// The first hint not yet consumed.
    next: usize,
    /// End of the sorted part of `hints`.
    sorted: usize,
    /// The merge's output buffer, kept to reuse its allocation.
    merged: Vec<BlockIndex>,
}

impl Btt {
    /// Creates a BTT with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            // +1: `force_insert` may spill one entry past capacity.
            // Bounded so absurd configured capacities stay constructible.
            entries: FxHashMap::with_capacity_and_hasher(
                capacity.saturating_add(1).min(4096),
                Default::default(),
            ),
            capacity,
            peak: 0,
            hints: Vec::new(),
            next: 0,
            sorted: 0,
            merged: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no live entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy ever observed (hardware-provisioning metric).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Whether the table is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Looks up the entry for `block`.
    pub fn get(&self, block: BlockIndex) -> Option<&BttEntry> {
        self.entries.get(&block)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, block: BlockIndex) -> Option<&mut BttEntry> {
        self.entries.get_mut(&block)
    }

    /// Returns the entry for `block`, inserting a fresh one if absent, with
    /// one probe of the table. Returns `None` if the table is full and the
    /// block has no entry.
    pub fn entry_or_insert(&mut self, block: BlockIndex) -> Option<&mut BttEntry> {
        let (len, full) = (self.entries.len(), self.is_full());
        match self.entries.entry(block) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(_) if full => None,
            Entry::Vacant(v) => {
                self.peak = self.peak.max(len + 1);
                Some(v.insert(BttEntry::new()))
            }
        }
    }

    /// Removes and returns the entry for `block`.
    pub fn remove(&mut self, block: BlockIndex) -> Option<BttEntry> {
        self.entries.remove(&block)
    }

    /// Inserts an entry for `block` even past capacity (an emergency spill:
    /// the controller flags an overflow-triggered epoch end at the same
    /// time, so the spill window is one platform event). Returns the entry.
    pub fn force_insert(&mut self, block: BlockIndex) -> &mut BttEntry {
        let len_before = self.entries.len();
        match self.entries.entry(block) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                self.peak = self.peak.max(len_before + 1);
                v.insert(BttEntry::new())
            }
        }
    }

    /// Iterates over all `(block, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockIndex, &BttEntry)> {
        self.entries.iter().map(|(&b, e)| (b, e))
    }

    /// Mutable iteration over all entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (BlockIndex, &mut BttEntry)> {
        self.entries.iter_mut().map(|(&b, e)| (b, e))
    }

    /// Blocks whose entries are quiescent and thus reclaimable. Entries
    /// whose `C_last` sits in Region A must first be migrated home; the
    /// controller handles that using the returned list. This is the
    /// full-scan diagnostic view; the reclaim hot path uses
    /// [`Self::reclaimable_victims_into`].
    pub fn reclaimable(&self) -> Vec<BlockIndex> {
        self.scan_victims(usize::MAX)
    }

    /// Ground truth for victim selection: every quiescent block, smallest
    /// `max` first, in ascending order.
    fn scan_victims(&self, max: usize) -> Vec<BlockIndex> {
        let mut v: Vec<BlockIndex> =
            self.entries.iter().filter(|(_, e)| e.is_quiescent()).map(|(&b, _)| b).collect();
        if v.len() > max {
            // Partition so v[..max] holds the smallest `max` indices.
            v.select_nth_unstable(max.saturating_sub(1));
            v.truncate(max);
        }
        // Deterministic victim order (hash maps iterate randomly).
        v.sort_unstable();
        v
    }

    /// Records that `block`'s entry may have become quiescent. Every code
    /// path that can take an entry from non-quiescent to quiescent must
    /// call this (or [`Self::rebuild_quiescent_hints`]); victim selection
    /// only considers hinted blocks. Over-approximation is fine — hints are
    /// re-validated against the live entry when consumed — but a *missing*
    /// hint would silently shrink the victim set, so selection cross-checks
    /// itself against a full scan in debug builds.
    pub fn note_quiescent(&mut self, block: BlockIndex) {
        self.hints.push(block);
    }

    /// Rebuilds the quiescence hint index from the live entries. Used after
    /// bulk table surgery (recovery's metadata replay), where per-entry
    /// hinting would be noise.
    pub fn rebuild_quiescent_hints(&mut self) {
        self.hints.clear();
        self.hints.extend(self.entries.iter().filter(|(_, e)| e.is_quiescent()).map(|(&b, _)| b));
        self.hints.sort_unstable();
        (self.next, self.sorted) = (0, self.hints.len());
    }

    /// Sorts the hints appended since the last selection and merges them
    /// with the ones not yet consumed, dropping duplicates (a block hinted
    /// again after going quiescent, rewritten and quiescent once more).
    /// A stable sort and `dedup` of the whole order would do the same but
    /// made the commit's selection slower (DESIGN §9 item 1).
    fn merge_hints(&mut self) {
        if self.sorted == self.hints.len() {
            return;
        }
        self.hints[self.sorted..].sort_unstable();
        let (head, tail) = self.hints.split_at(self.sorted);
        let (mut a, mut b) = (head[self.next..].iter().peekable(), tail.iter().peekable());
        self.merged.clear();
        while let Some(&x) = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if x <= y => a.next(),
            (Some(_), Some(_)) | (None, _) => b.next(),
            (Some(_), None) => a.next(),
        } {
            if self.merged.last() != Some(&x) {
                self.merged.push(x);
            }
        }
        std::mem::swap(&mut self.hints, &mut self.merged);
        (self.next, self.sorted) = (0, self.hints.len());
    }

    /// Fills `out` with the first `max` reclaimable entries in block-index
    /// order — exactly the prefix of [`Self::reclaimable`], read from the
    /// sorted quiescence hints in `O(victims)` once the hints noted since
    /// the last selection are merged in (one sort of those), instead of a
    /// scan-and-partition over the whole table (the overflow path reclaims
    /// 64 victims on every table-pressure event, so the full scan dominated
    /// the simulator's profile). Hints are consumed as they are read: the
    /// caller must reclaim (remove) every returned block, or its hint is
    /// lost.
    pub fn reclaimable_victims_into(&mut self, max: usize, out: &mut Vec<BlockIndex>) {
        self.merge_hints();
        out.clear();
        while out.len() < max && self.next < self.hints.len() {
            let block = self.hints[self.next];
            self.next += 1;
            // Stale hint: the entry was rewritten or reclaimed since.
            if self.entries.get(&block).is_some_and(BttEntry::is_quiescent) {
                out.push(block);
            }
        }
        debug_assert_eq!(
            *out,
            self.scan_victims(max),
            "quiescence hints out of sync with entries: a transition site is missing note_quiescent"
        );
    }

    /// Number of entries touched in the current epoch (with a working copy),
    /// i.e. the metadata volume the next checkpoint must persist.
    pub fn dirty_entries(&self) -> usize {
        self.entries.values().filter(|e| e.wactive.is_some()).count()
    }
}

/// One PTT entry: tracking state for a 4 KiB page cached in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PttEntry {
    /// DRAM Working Data Region slot holding the page.
    pub slot: u32,
    /// Whether the DRAM copy was modified in the current epoch (and so must
    /// be written back by the next checkpoint).
    pub dirty: bool,
    /// Region holding the page's last checkpoint copy, if any.
    pub clast_region: Option<Region>,
    /// Region the running checkpoint job writes this page back to (it
    /// becomes `clast_region` when the job completes). While the job runs
    /// the DRAM copy is frozen and incoming writes are absorbed by block
    /// remapping (§3.4).
    pub pending: Option<Region>,
}

/// The Page Translation Table.
///
/// Pages enter the PTT by promotion from block remapping (§3.4) and leave
/// by demotion; slots index the DRAM Working Data Region.
#[derive(Debug, Clone)]
pub struct Ptt {
    entries: FxHashMap<PageIndex, PttEntry>,
    /// Slots returned by [`Ptt::remove`], reused before fresh ones.
    recycled_slots: Vec<u32>,
    /// Next never-used slot; slots are handed out lazily so construction
    /// never allocates (or panics on) a slot free-list.
    next_fresh_slot: u32,
    capacity: usize,
    peak: usize,
}

impl Ptt {
    /// Creates a PTT with `capacity` entries (and as many DRAM page slots).
    ///
    /// Capacities beyond `u32` slot addressing are rejected up front by
    /// [`thynvm_types::SystemConfig::validate`]; construction itself never
    /// panics — slots are allocated lazily and insertion simply fails once
    /// slot addressing is exhausted.
    pub fn new(capacity: usize) -> Self {
        Self {
            // Bounded pre-size: construction must stay allocation-light
            // even for absurd configured capacities (tested).
            entries: FxHashMap::with_capacity_and_hasher(capacity.min(4096), Default::default()),
            recycled_slots: Vec::new(),
            next_fresh_slot: 0,
            capacity,
            peak: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no live entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Whether the table is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Looks up the entry for `page`.
    pub fn get(&self, page: PageIndex) -> Option<&PttEntry> {
        self.entries.get(&page)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, page: PageIndex) -> Option<&mut PttEntry> {
        self.entries.get_mut(&page)
    }

    /// Inserts a fresh entry for `page`, allocating a DRAM slot. Returns the
    /// slot, or `None` if the table (equivalently, DRAM) is full or the page
    /// is already present.
    pub fn insert(&mut self, page: PageIndex) -> Option<u32> {
        if self.entries.contains_key(&page) || self.entries.len() >= self.capacity {
            return None;
        }
        let slot = match self.recycled_slots.pop() {
            Some(slot) => slot,
            None => {
                // Fresh slot: fails (no panic) if u32 addressing runs out.
                let slot = self.next_fresh_slot;
                self.next_fresh_slot = self.next_fresh_slot.checked_add(1)?;
                slot
            }
        };
        self.entries.insert(
            page,
            PttEntry { slot, dirty: false, clast_region: None, pending: None },
        );
        self.peak = self.peak.max(self.entries.len());
        Some(slot)
    }

    /// Removes the entry for `page`, freeing its DRAM slot.
    pub fn remove(&mut self, page: PageIndex) -> Option<PttEntry> {
        let entry = self.entries.remove(&page)?;
        self.recycled_slots.push(entry.slot);
        Some(entry)
    }

    /// Iterates over all `(page, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PageIndex, &PttEntry)> {
        self.entries.iter().map(|(&p, e)| (p, e))
    }

    /// Mutable iteration over all entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PageIndex, &mut PttEntry)> {
        self.entries.iter_mut().map(|(&p, e)| (p, e))
    }

    /// Pages dirty in the current epoch (the next checkpoint's writeback
    /// set).
    pub fn dirty_pages(&self) -> Vec<PageIndex> {
        let mut v: Vec<PageIndex> =
            self.entries.iter().filter(|(_, e)| e.dirty).map(|(&p, _)| p).collect();
        // Deterministic writeback order (hash maps iterate randomly).
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btt_insert_until_full() {
        let mut btt = Btt::new(2);
        assert!(btt.entry_or_insert(BlockIndex::new(1)).is_some());
        assert!(btt.entry_or_insert(BlockIndex::new(2)).is_some());
        assert!(btt.is_full());
        assert!(btt.entry_or_insert(BlockIndex::new(3)).is_none());
        // Existing entries still reachable when full.
        assert!(btt.entry_or_insert(BlockIndex::new(1)).is_some());
        assert_eq!(btt.len(), 2);
    }

    #[test]
    fn btt_peak_tracks_high_water_mark() {
        let mut btt = Btt::new(8);
        for i in 0..5 {
            btt.entry_or_insert(BlockIndex::new(i));
        }
        btt.remove(BlockIndex::new(0));
        btt.remove(BlockIndex::new(1));
        assert_eq!(btt.len(), 3);
        assert_eq!(btt.peak(), 5);
    }

    #[test]
    fn btt_quiescence_and_reclaim() {
        let mut btt = Btt::new(4);
        let a = BlockIndex::new(1);
        let b = BlockIndex::new(2);
        btt.entry_or_insert(a).expect("invariant: BTT below capacity").wactive =
            Some(WactiveLoc::Nvm(Region::A));
        btt.entry_or_insert(b).expect("invariant: BTT below capacity").clast_region =
            Some(Region::A);
        assert!(!btt.get(a).expect("invariant: inserted above").is_quiescent());
        assert!(btt.get(b).expect("invariant: inserted above").is_quiescent());
        assert_eq!(btt.reclaimable(), vec![b]);
    }

    /// Victim selection is hint-driven: hinted quiescent entries come back
    /// smallest-first, stale hints (entries rewritten or removed since) are
    /// discarded lazily, and duplicate hints yield one victim.
    #[test]
    fn btt_victim_selection_consumes_hints_lazily() {
        let mut btt = Btt::new(8);
        for i in [5u64, 1, 3, 7] {
            let b = BlockIndex::new(i);
            btt.entry_or_insert(b).expect("invariant: BTT below capacity").clast_region =
                Some(Region::A);
            btt.note_quiescent(b);
        }
        // A duplicate hint for an already-hinted block.
        btt.note_quiescent(BlockIndex::new(3));
        // Stale hints: one entry rewritten, one removed outright.
        btt.get_mut(BlockIndex::new(5)).expect("invariant: inserted above").wactive =
            Some(WactiveLoc::Nvm(Region::B));
        btt.remove(BlockIndex::new(7));

        let mut out = Vec::new();
        btt.reclaimable_victims_into(1, &mut out);
        assert_eq!(out, vec![BlockIndex::new(1)]);
        btt.remove(BlockIndex::new(1)); // consumed hints must be reclaimed

        btt.reclaimable_victims_into(8, &mut out);
        assert_eq!(out, vec![BlockIndex::new(3)]);
        btt.remove(BlockIndex::new(3));

        // Everything left is non-quiescent or gone: no victims.
        btt.reclaimable_victims_into(8, &mut out);
        assert!(out.is_empty());
    }

    /// `rebuild_quiescent_hints` re-derives the hint index from the live
    /// entries, covering bulk surgery that bypasses `note_quiescent`.
    #[test]
    fn btt_hint_rebuild_after_bulk_surgery() {
        let mut btt = Btt::new(8);
        for i in 0..4u64 {
            btt.entry_or_insert(BlockIndex::new(i))
                .expect("invariant: BTT below capacity")
                .wactive = Some(WactiveLoc::Nvm(Region::A));
        }
        // Bulk normalization without per-entry hints (recovery's replay).
        for (_, e) in btt.iter_mut() {
            e.wactive = None;
            e.clast_region = Some(Region::B);
        }
        btt.rebuild_quiescent_hints();
        let mut out = Vec::new();
        btt.reclaimable_victims_into(2, &mut out);
        assert_eq!(out, vec![BlockIndex::new(0), BlockIndex::new(1)]);
    }

    /// One step of a random BTT history, as the controller drives the
    /// table.
    #[derive(Debug, Clone, Copy)]
    enum BttOp {
        /// A store gives the block a working copy, its entry inserted if
        /// absent (a full table reclaims first, then spills).
        Write(u64),
        /// The capture: every working copy becomes the job's `pending`.
        Capture,
        /// The commit: `pending` becomes `C_last`, and the entries that
        /// leaves quiescent are hinted.
        Commit,
        /// A quarantine drops the block's working copy: the entry is hinted
        /// when only checkpointed copies remain, removed when none do.
        Quarantine(u64),
        /// The block's entry is removed outright.
        Remove(u64),
        /// A promotion of the block's page: its entries lose their working
        /// copies, and those without `pending` are dropped.
        Promote(u64),
        /// A reclaim of up to this many victims.
        Reclaim(usize),
        /// Recovery's bulk surgery, then a hint rebuild.
        Rebuild,
    }

    fn btt_op() -> impl proptest::prelude::Strategy<Value = BttOp> {
        use proptest::prelude::*;
        prop_oneof![
            8 => (0u64..160).prop_map(BttOp::Write),
            1 => Just(BttOp::Capture),
            1 => Just(BttOp::Commit),
            1 => (0u64..160).prop_map(BttOp::Quarantine),
            1 => (0u64..160).prop_map(BttOp::Remove),
            1 => (0u64..160).prop_map(BttOp::Promote),
            2 => (1usize..24).prop_map(BttOp::Reclaim),
            1 => Just(BttOp::Rebuild),
        ]
    }

    /// Reclaims up to `max` victims as the controller does, removing each,
    /// and checks them against the full scan taken first.
    fn reclaim(btt: &mut Btt, max: usize) -> Result<usize, String> {
        let expected = btt.scan_victims(max);
        let mut out = Vec::new();
        btt.reclaimable_victims_into(max, &mut out);
        proptest::prop_assert_eq!(&out, &expected);
        for &b in &out {
            btt.remove(b);
        }
        Ok(out.len())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The sorted hint order against the scan, in every build: after
        /// any history of inserts, working copies, captures, commits,
        /// quarantines, removals, promotions and rebuilds, every reclaim's
        /// victims are exactly the smallest quiescent blocks.
        #[test]
        fn btt_victims_equal_the_scan_over_random_histories(
            ops in proptest::collection::vec(btt_op(), 1..300),
        ) {
            let mut btt = Btt::new(40);
            for op in ops {
                match op {
                    BttOp::Write(b) => {
                        let b = BlockIndex::new(b);
                        if btt.entry_or_insert(b).is_none() {
                            reclaim(&mut btt, 8)?;
                        }
                        let e = btt.force_insert(b);
                        e.wactive = Some(match e.wactive {
                            Some(loc) => loc,
                            None if b.raw().is_multiple_of(5) => WactiveLoc::DramBuffered { slot: b.raw() as u32 },
                            None => WactiveLoc::Nvm(e.clast_region.map_or(Region::A, Region::other)),
                        });
                    }
                    BttOp::Capture => {
                        // Buffered copies drain to NVM first.
                        for (_, e) in btt.iter_mut() {
                            if let Some(loc) = e.wactive.take() {
                                e.pending = Some(match loc {
                                    WactiveLoc::Nvm(r) => r,
                                    WactiveLoc::DramBuffered { .. } => e.clast_region.map_or(Region::A, Region::other),
                                });
                            }
                        }
                    }
                    BttOp::Commit => {
                        let mut quiescent = Vec::new();
                        for (b, e) in btt.iter_mut() {
                            if let Some(r) = e.pending.take() {
                                e.clast_region = Some(r);
                                if e.wactive.is_none() {
                                    quiescent.push(b);
                                }
                            }
                        }
                        for b in quiescent {
                            btt.note_quiescent(b);
                        }
                    }
                    BttOp::Quarantine(b) => {
                        let b = BlockIndex::new(b);
                        let state = btt.get_mut(b).map(|e| {
                            e.wactive = None;
                            (e.pending.is_none(), e.clast_region.is_none())
                        });
                        match state {
                            Some((true, true)) => {
                                btt.remove(b);
                            }
                            Some((true, false)) => btt.note_quiescent(b),
                            _ => {}
                        }
                    }
                    BttOp::Remove(b) => {
                        btt.remove(BlockIndex::new(b));
                    }
                    BttOp::Promote(b) => {
                        for block in BlockIndex::new(b).page().blocks() {
                            let drop_it = btt.get_mut(block).is_some_and(|e| {
                                e.wactive = None;
                                e.pending.is_none()
                            });
                            if drop_it {
                                btt.remove(block);
                            }
                        }
                    }
                    BttOp::Reclaim(k) => {
                        reclaim(&mut btt, k)?;
                    }
                    BttOp::Rebuild => {
                        for (_, e) in btt.iter_mut() {
                            if let Some(r) = e.pending.take() {
                                e.clast_region = Some(r);
                            }
                            e.wactive = None;
                        }
                        btt.rebuild_quiescent_hints();
                    }
                }
            }
            // Drain the table: the hints still cover every quiescent entry.
            while reclaim(&mut btt, 7)? > 0 {}
            proptest::prop_assert!(btt.scan_victims(usize::MAX).is_empty());
        }
    }

    #[test]
    fn btt_dirty_entries_counts_working_copies() {
        let mut btt = Btt::new(4);
        btt.entry_or_insert(BlockIndex::new(1)).expect("invariant: BTT below capacity").wactive =
            Some(WactiveLoc::DramBuffered { slot: 0 });
        btt.entry_or_insert(BlockIndex::new(2));
        assert_eq!(btt.dirty_entries(), 1);
    }

    #[test]
    fn ptt_slot_allocation_and_reuse() {
        let mut ptt = Ptt::new(2);
        let s0 = ptt.insert(PageIndex::new(10)).expect("invariant: PTT has free slots");
        let s1 = ptt.insert(PageIndex::new(20)).expect("invariant: PTT has free slots");
        assert_ne!(s0, s1);
        assert!(ptt.insert(PageIndex::new(30)).is_none()); // full
        let removed = ptt.remove(PageIndex::new(10)).expect("invariant: inserted above");
        assert_eq!(removed.slot, s0);
        // Slot is recycled.
        assert_eq!(ptt.insert(PageIndex::new(30)), Some(s0));
    }

    #[test]
    fn ptt_duplicate_insert_rejected() {
        let mut ptt = Ptt::new(2);
        assert!(ptt.insert(PageIndex::new(1)).is_some());
        assert!(ptt.insert(PageIndex::new(1)).is_none());
        assert_eq!(ptt.len(), 1);
    }

    #[test]
    fn ptt_dirty_pages() {
        let mut ptt = Ptt::new(4);
        ptt.insert(PageIndex::new(1));
        ptt.insert(PageIndex::new(2));
        ptt.get_mut(PageIndex::new(2)).expect("invariant: inserted above").dirty = true;
        assert_eq!(ptt.dirty_pages(), vec![PageIndex::new(2)]);
    }

    #[test]
    fn ptt_peak() {
        let mut ptt = Ptt::new(4);
        ptt.insert(PageIndex::new(1));
        ptt.insert(PageIndex::new(2));
        ptt.remove(PageIndex::new(1));
        assert_eq!(ptt.peak(), 2);
        assert_eq!(ptt.len(), 1);
    }

    /// Construction with an absurd capacity must neither panic nor
    /// eagerly allocate a slot free-list; misconfigurations are caught by
    /// `SystemConfig::validate` instead.
    #[test]
    fn ptt_huge_capacity_constructs_lazily() {
        let mut ptt = Ptt::new(usize::MAX);
        assert_eq!(ptt.capacity(), usize::MAX);
        // The table still works; slots are minted on demand.
        assert_eq!(ptt.insert(PageIndex::new(1)), Some(0));
        assert_eq!(ptt.insert(PageIndex::new(2)), Some(1));
    }

    #[test]
    fn empty_tables() {
        assert!(Btt::new(4).is_empty());
        assert!(Ptt::new(4).is_empty());
        assert_eq!(Btt::new(4).dirty_entries(), 0);
        assert!(Ptt::new(4).dirty_pages().is_empty());
    }
}
