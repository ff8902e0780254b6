//! The three-level cache hierarchy of Table 2.
//!
//! Lookup walks L1 → L2 → L3. A hit at level *k* costs that level's hit
//! latency and fills the block into the levels above it. A miss in all
//! levels produces a [`HierarchyOutcome::fetch`] that the platform must send
//! to main memory. Evictions cascade downward: a dirty victim of L1 is
//! installed into L2, a dirty victim of L2 into L3, and a dirty victim of
//! L3 becomes a [`HierarchyOutcome::writebacks`] entry destined for main
//! memory. Clean victims are dropped silently.

use thynvm_types::{
    AccessKind, CacheConfig, PhysAddr, L1_HIT_CYCLES, L2_HIT_CYCLES, L3_HIT_CYCLES,
};

use crate::cache::{block_of, Eviction, SetAssocCache};

/// Queues a dirty victim of L3 for main memory; clean victims are dropped.
fn write_back_to_memory(victim: Option<Eviction>, out: &mut Vec<PhysAddr>) {
    if let Some(ev) = victim.filter(|ev| ev.dirty) {
        out.push(ev.addr);
    }
}

/// Writes a dirty victim of L1 back into `l2`, cascading L2's dirty victim
/// into `l3`. A full fill, since L2 may still hold the block.
fn write_back_to_l2(
    l2: &mut SetAssocCache,
    l3: &mut SetAssocCache,
    victim: Option<Eviction>,
    out: &mut Vec<PhysAddr>,
) {
    if let Some(ev) = victim.filter(|ev| ev.dirty) {
        let l2_victim = l2.fill(ev.addr, true);
        write_back_to_l3(l3, l2_victim, out);
    }
}

/// Writes a dirty victim of L2 back into `l3` (a full fill, as above);
/// L3's dirty victim goes to main memory.
fn write_back_to_l3(l3: &mut SetAssocCache, victim: Option<Eviction>, out: &mut Vec<PhysAddr>) {
    if let Some(ev) = victim.filter(|ev| ev.dirty) {
        write_back_to_memory(l3.fill(ev.addr, true), out);
    }
}

/// One access of `addr` through the levels `[l1, l2, l3]`: the walk both
/// [`CacheHierarchy::access`] and the multi-core platform (private L1/L2,
/// shared L3) take. `kind` decides whether the block is dirtied. Issuing
/// the returned fetch and writebacks to memory is the caller's.
///
/// Each level's set is scanned once: a level that misses hands back the
/// way the block will take there, and the fill installs into it without
/// scanning again. That way stays right because evictions only cascade
/// downward, so between a level's lookup and its install only the levels
/// below it change. Hence L2 is installed before L1: L1's dirty victim
/// could otherwise take the way remembered for L2.
pub(crate) fn walk(
    [l1, l2, l3]: [&mut SetAssocCache; 3],
    addr: PhysAddr,
    kind: AccessKind,
) -> HierarchyOutcome {
    let is_write = kind.is_write();
    let block = block_of(addr);
    let mut out = HierarchyOutcome::default();

    let Err(l1_way) = l1.access_block(block, is_write) else {
        out.latency_cycles = L1_HIT_CYCLES;
        return out;
    };
    match l2.access_block(block, false) {
        Ok(()) => out.latency_cycles = L2_HIT_CYCLES,
        Err(l2_way) => {
            out.latency_cycles = L3_HIT_CYCLES;
            if let Err(l3_way) = l3.access_block(block, false) {
                // Miss everywhere: fetch from memory and install in all levels.
                out.fetch = Some(addr.block_aligned());
                write_back_to_memory(l3.install(l3_way, block, false), &mut out.writebacks);
            }
            let victim = l2.install(l2_way, block, false);
            write_back_to_l3(l3, victim, &mut out.writebacks);
        }
    }
    let victim = l1.install(l1_way, block, is_write);
    write_back_to_l2(l2, l3, victim, &mut out.writebacks);
    out
}

/// Result of one hierarchy lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Cycles spent in the cache hierarchy itself (hit latency of the level
    /// that serviced the request; memory latency not included).
    pub latency_cycles: u64,
    /// Block that must be fetched from main memory (miss in all levels).
    pub fetch: Option<PhysAddr>,
    /// Dirty blocks pushed out to main memory by this access.
    pub writebacks: Vec<PhysAddr>,
}

/// Three-level writeback hierarchy (private L1/L2, shared L3).
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    config: CacheConfig,
}

impl CacheHierarchy {
    /// Creates the hierarchy from a configuration.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            l1: SetAssocCache::new(config.l1_bytes, config.l1_ways),
            l2: SetAssocCache::new(config.l2_bytes, config.l2_ways),
            l3: SetAssocCache::new(config.l3_bytes, config.l3_ways),
            config,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Performs one access. `kind` decides whether the block is dirtied.
    /// Each level's set is scanned once.
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> HierarchyOutcome {
        walk([&mut self.l1, &mut self.l2, &mut self.l3], addr, kind)
    }

    /// Cleans every dirty block in every level without invalidation
    /// (the §4.4 hardware flush) and returns the deduplicated set of block
    /// addresses that must be written to main memory.
    pub fn clean_all(&mut self) -> Vec<PhysAddr> {
        let mut dirty = self.l1.clean_all();
        dirty.extend(self.l2.clean_all());
        dirty.extend(self.l3.clean_all());
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Total dirty blocks across all levels (before deduplication).
    pub fn dirty_blocks(&self) -> usize {
        self.l1.dirty_blocks() + self.l2.dirty_blocks() + self.l3.dirty_blocks()
    }

    /// The three levels, for the reference comparison.
    #[cfg(test)]
    pub(crate) fn levels(&self) -> [&SetAssocCache; 3] {
        [&self.l1, &self.l2, &self.l3]
    }

    /// Per-level `(hits, misses)` for L1, L2 and L3.
    pub fn hit_miss_counts(&self) -> [(u64, u64); 3] {
        [
            (self.l1.hits(), self.l1.misses()),
            (self.l2.hits(), self.l2.misses()),
            (self.l3.hits(), self.l3.misses()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thynvm_types::SystemConfig;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(SystemConfig::paper().cache)
    }

    #[test]
    fn cold_miss_fetches_from_memory() {
        let mut h = hierarchy();
        let out = h.access(PhysAddr::new(0x1000), AccessKind::Read);
        assert_eq!(out.fetch, Some(PhysAddr::new(0x1000)));
        assert_eq!(out.latency_cycles, 28);
        assert!(out.writebacks.is_empty());
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = hierarchy();
        h.access(PhysAddr::new(0x1000), AccessKind::Read);
        let out = h.access(PhysAddr::new(0x1010), AccessKind::Read);
        assert!(out.fetch.is_none());
        assert_eq!(out.latency_cycles, 4);
    }

    #[test]
    fn fetch_is_block_aligned() {
        let mut h = hierarchy();
        let out = h.access(PhysAddr::new(0x1234), AccessKind::Write);
        assert_eq!(out.fetch, Some(PhysAddr::new(0x1200)));
    }

    #[test]
    fn write_dirties_l1_only_until_eviction() {
        let mut h = hierarchy();
        h.access(PhysAddr::new(0), AccessKind::Write);
        assert_eq!(h.dirty_blocks(), 1);
    }

    #[test]
    fn l1_eviction_falls_to_l2_and_hits_there() {
        let mut h = hierarchy();
        // L1 is 32 KB / 64 sets of 8: fill one set with 9 conflicting blocks.
        let l1_blocks = 32 * 1024 / 64; // 512
        let sets = 64u64;
        let _ = sets;
        let stride = (l1_blocks / 8) as u64 * 64; // one L1 set apart
        for i in 0..9u64 {
            h.access(PhysAddr::new(i * stride), AccessKind::Read);
        }
        // Block 0 was evicted from L1 but lives in L2.
        let out = h.access(PhysAddr::new(0), AccessKind::Read);
        assert!(out.fetch.is_none());
        assert_eq!(out.latency_cycles, 12);
    }

    #[test]
    fn dirty_data_survives_cascade_to_memory() {
        // A stream larger than L3 must eventually push dirty blocks to memory.
        let mut h = hierarchy();
        let mut writebacks = 0usize;
        // Write 4 MB (2x the 2 MB L3).
        for i in 0..(4 * 1024 * 1024 / 64u64) {
            let out = h.access(PhysAddr::new(i * 64), AccessKind::Write);
            writebacks += out.writebacks.len();
        }
        assert!(writebacks > 0, "dirty blocks must reach memory");
    }

    #[test]
    fn clean_all_returns_unique_dirty_blocks() {
        let mut h = hierarchy();
        h.access(PhysAddr::new(0), AccessKind::Write);
        h.access(PhysAddr::new(64), AccessKind::Write);
        h.access(PhysAddr::new(64), AccessKind::Write); // same block twice
        let cleaned = h.clean_all();
        assert_eq!(cleaned, vec![PhysAddr::new(0), PhysAddr::new(64)]);
        assert_eq!(h.dirty_blocks(), 0);
        // Blocks still resident: next access is an L1 hit.
        let out = h.access(PhysAddr::new(0), AccessKind::Read);
        assert_eq!(out.latency_cycles, 4);
    }

    #[test]
    fn clean_then_rewrite_redirties() {
        let mut h = hierarchy();
        h.access(PhysAddr::new(0), AccessKind::Write);
        h.clean_all();
        h.access(PhysAddr::new(0), AccessKind::Write);
        assert_eq!(h.dirty_blocks(), 1);
    }

    #[test]
    fn read_after_write_hit_does_not_clean() {
        let mut h = hierarchy();
        h.access(PhysAddr::new(0), AccessKind::Write);
        h.access(PhysAddr::new(0), AccessKind::Read);
        assert_eq!(h.dirty_blocks(), 1);
    }

    #[test]
    fn hit_miss_counts_accumulate() {
        let mut h = hierarchy();
        h.access(PhysAddr::new(0), AccessKind::Read); // miss everywhere
        h.access(PhysAddr::new(0), AccessKind::Read); // L1 hit
        let [(h1, m1), (_, m2), (_, m3)] = h.hit_miss_counts();
        assert_eq!((h1, m1), (1, 1));
        assert_eq!(m2, 1);
        assert_eq!(m3, 1);
    }

    #[test]
    fn config_accessor() {
        let h = hierarchy();
        assert_eq!(h.config().l1_bytes, 32 * 1024);
    }
}
