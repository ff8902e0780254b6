//! A single set-associative, writeback, write-allocate cache with LRU
//! replacement.

use thynvm_types::{PhysAddr, BLOCK_BYTES};

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base physical address of the evicted block.
    pub addr: PhysAddr,
    /// Whether the block was dirty (must be written back downstream).
    pub dirty: bool,
}

/// One way of a set: 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// The block number (`addr / 64`, so the evicted address is `tag × 64`)
    /// with [`DIRTY`] in its top bit, or [`INVALID`] for an empty way.
    tag: u64,
    /// LRU stamp: larger = more recently used. An invalid way's stamp is 0,
    /// below every valid stamp, so the least-stamped way of a set is its
    /// first invalid way if it has one, else its LRU way.
    lru: u64,
}

/// Tag of an empty way. No block number reaches the top bit, so it never
/// matches one, even with [`DIRTY`] masked off.
const INVALID: u64 = u64::MAX;
/// Dirty flag, kept in the tag's top bit.
const DIRTY: u64 = 1 << 63;

impl Line {
    const INVALID: Line = Line { tag: INVALID, lru: 0 };

    fn is_dirty(self) -> bool {
        self.tag != INVALID && self.tag & DIRTY != 0
    }
}

/// One level of a writeback cache.
///
/// Addresses are managed at 64 B block granularity; any byte address within
/// a block maps to the same line. The cache is *write-allocate*: a store
/// miss fills the block, then dirties it.
///
/// # Example
///
/// ```
/// use thynvm_cache::SetAssocCache;
/// use thynvm_types::PhysAddr;
///
/// let mut c = SetAssocCache::new(4096, 4); // 4 KiB, 4-way
/// assert!(!c.probe(PhysAddr::new(0)));
/// c.fill(PhysAddr::new(0), false);
/// assert!(c.probe(PhysAddr::new(63))); // same block
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    lines: Vec<Line>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// The block number of `addr`: a cache line's tag.
pub(crate) fn block_of(addr: PhysAddr) -> u64 {
    addr.raw() / BLOCK_BYTES
}

impl SetAssocCache {
    /// Creates a cache of `bytes` capacity and `ways` associativity with
    /// 64 B blocks.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * BLOCK_BYTES` or if `ways` is zero.
    pub fn new(bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        let set_bytes = u64::from(ways) * BLOCK_BYTES;
        assert!(
            bytes > 0 && bytes.is_multiple_of(set_bytes),
            "capacity must be a positive multiple of ways × 64 B"
        );
        let ways = ways as usize;
        let blocks = (bytes / BLOCK_BYTES) as usize;
        Self { sets: blocks / ways, ways, lines: vec![Line::INVALID; blocks], tick: 0, hits: 0, misses: 0 }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Scans `block`'s set once: `Ok(line)` if a way holds the block, else
    /// `Err(line)` for the way a fill takes, the first invalid way or else
    /// the least recently used one. Both are indices into `lines`.
    fn lookup(&self, block: u64) -> Result<usize, usize> {
        let start = (block % self.sets as u64) as usize * self.ways;
        let mut victim = start;
        let mut oldest = u64::MAX;
        for (i, line) in self.lines[start..start + self.ways].iter().enumerate() {
            if line.tag & !DIRTY == block {
                return Ok(start + i);
            }
            if line.lru < oldest {
                oldest = line.lru;
                victim = start + i;
            }
        }
        Err(victim)
    }

    /// Stamps `line` as the most recently used, dirtying it if `dirty`.
    fn touch(&mut self, line: usize, dirty: bool) {
        self.tick += 1;
        let line = &mut self.lines[line];
        line.lru = self.tick;
        if dirty {
            line.tag |= DIRTY;
        }
    }

    /// An access by block number: on a hit refreshes the line's stamp (and
    /// dirties it for a write) and returns `Ok`; on a miss returns the way
    /// a fill of `block` takes, for [`SetAssocCache::install`]. The way
    /// stays right until this cache is changed again.
    pub(crate) fn access_block(&mut self, block: u64, is_write: bool) -> Result<(), usize> {
        let found = self.lookup(block);
        match found {
            Ok(line) => {
                self.touch(line, is_write);
                self.hits += 1;
            }
            Err(_) => self.misses += 1,
        }
        found.map(|_| ())
    }

    /// Installs `block` into `way`, as returned by a lookup that missed,
    /// and returns the valid block it displaced.
    pub(crate) fn install(&mut self, way: usize, block: u64, dirty: bool) -> Option<Eviction> {
        self.tick += 1;
        let tag = if dirty { block | DIRTY } else { block };
        let old = std::mem::replace(&mut self.lines[way], Line { tag, lru: self.tick });
        (old.tag != INVALID)
            .then(|| Eviction { addr: PhysAddr::new((old.tag & !DIRTY) * BLOCK_BYTES), dirty: old.is_dirty() })
    }

    /// Looks up `addr` without modifying replacement state or statistics.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        self.lookup(block_of(addr)).is_ok()
    }

    /// Looks up `addr`; on a hit updates LRU (and the dirty bit for writes)
    /// and returns `true`. On a miss returns `false` without filling —
    /// call [`SetAssocCache::fill`] to install the block.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> bool {
        self.access_block(block_of(addr), is_write).is_ok()
    }

    /// Installs the block containing `addr`, marking it dirty if `dirty`.
    /// Returns the victim if a valid block had to be evicted.
    ///
    /// Filling a block that is already present just updates its dirty bit.
    pub fn fill(&mut self, addr: PhysAddr, dirty: bool) -> Option<Eviction> {
        let block = block_of(addr);
        match self.lookup(block) {
            // Already present (e.g. racing fill): refresh.
            Ok(line) => {
                self.touch(line, dirty);
                None
            }
            Err(way) => self.install(way, block, dirty),
        }
    }

    /// Invalidates the block containing `addr` if present, returning whether
    /// it was dirty.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<bool> {
        let i = self.lookup(block_of(addr)).ok()?;
        Some(std::mem::replace(&mut self.lines[i], Line::INVALID).is_dirty())
    }

    /// Cleans every dirty block *without invalidating it* (CLWB-like, §4.4)
    /// and returns the addresses of the blocks that were dirty.
    pub fn clean_all(&mut self) -> Vec<PhysAddr> {
        let mut cleaned = Vec::new();
        for line in self.lines.iter_mut().filter(|l| l.is_dirty()) {
            line.tag &= !DIRTY;
            cleaned.push(PhysAddr::new(line.tag * BLOCK_BYTES));
        }
        cleaned
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.lines.iter().filter(|l| l.tag != INVALID).count()
    }

    /// Number of dirty blocks currently resident.
    pub fn dirty_blocks(&self) -> usize {
        self.lines.iter().filter(|l| l.is_dirty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets × 2 ways × 64 B = 256 B.
        SetAssocCache::new(256, 2)
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.sets(), 2);
        assert_eq!(c.ways(), 2);
        let big = SetAssocCache::new(32 * 1024, 8);
        assert_eq!(big.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_capacity_rejected() {
        SetAssocCache::new(100, 3);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn capacity_must_divide_into_whole_sets() {
        // 130 B is two 64 B blocks plus 2 B: not a whole number of 2-way
        // sets, so it must not quietly become a 128 B cache.
        SetAssocCache::new(130, 2);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(PhysAddr::new(0), false));
        c.fill(PhysAddr::new(0), false);
        assert!(c.access(PhysAddr::new(0), false));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_block_different_byte_hits() {
        let mut c = tiny();
        c.fill(PhysAddr::new(0), false);
        assert!(c.access(PhysAddr::new(63), true));
        assert!(!c.access(PhysAddr::new(64), false)); // next block
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds blocks whose block index is even (2 sets).
        let a = PhysAddr::new(0); // set 0
        let b = PhysAddr::new(128); // set 0
        let d = PhysAddr::new(256); // set 0
        c.fill(a, false);
        c.fill(b, false);
        // Touch a so b becomes LRU.
        c.access(a, false);
        let ev = c.fill(d, false).expect("eviction");
        assert_eq!(ev.addr, b);
        assert!(!ev.dirty);
        assert!(c.probe(a));
        assert!(!c.probe(b));
    }

    #[test]
    fn dirty_eviction_reports_dirty() {
        let mut c = tiny();
        c.fill(PhysAddr::new(0), true);
        c.fill(PhysAddr::new(128), false);
        c.access(PhysAddr::new(128), false);
        let ev = c.fill(PhysAddr::new(256), false).expect("eviction");
        assert_eq!(ev.addr, PhysAddr::new(0));
        assert!(ev.dirty);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        c.fill(PhysAddr::new(0), false);
        assert_eq!(c.dirty_blocks(), 0);
        c.access(PhysAddr::new(0), true);
        assert_eq!(c.dirty_blocks(), 1);
    }

    #[test]
    fn refill_existing_block_keeps_single_copy() {
        let mut c = tiny();
        c.fill(PhysAddr::new(0), false);
        assert!(c.fill(PhysAddr::new(0), true).is_none());
        assert_eq!(c.resident_blocks(), 1);
        assert_eq!(c.dirty_blocks(), 1); // dirty bit merged
    }

    #[test]
    fn clean_all_cleans_but_keeps_blocks() {
        let mut c = tiny();
        c.fill(PhysAddr::new(0), true);
        c.fill(PhysAddr::new(64), true);
        c.fill(PhysAddr::new(128), false);
        let mut cleaned = c.clean_all();
        cleaned.sort();
        assert_eq!(cleaned, vec![PhysAddr::new(0), PhysAddr::new(64)]);
        assert_eq!(c.dirty_blocks(), 0);
        assert_eq!(c.resident_blocks(), 3); // not invalidated (CLWB semantics)
        assert!(c.probe(PhysAddr::new(0)));
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny();
        c.fill(PhysAddr::new(0), true);
        assert_eq!(c.invalidate(PhysAddr::new(0)), Some(true));
        assert_eq!(c.invalidate(PhysAddr::new(0)), None);
        assert!(!c.probe(PhysAddr::new(0)));
    }

    #[test]
    fn eviction_address_reconstruction() {
        // A cache with many sets: make sure evicted addresses are exact.
        let mut c = SetAssocCache::new(32 * 1024, 8); // 64 sets
        let addr = PhysAddr::new(123 * 64);
        c.fill(addr, true);
        // Fill the same set with 8 more conflicting blocks.
        let sets = c.sets() as u64;
        let mut evicted = Vec::new();
        for i in 1..=8u64 {
            let conflict = PhysAddr::new((123 + i * sets) * 64);
            if let Some(ev) = c.fill(conflict, false) {
                evicted.push(ev.addr);
            }
        }
        assert!(evicted.contains(&addr.block_aligned()));
    }

    #[test]
    fn capacity_bounded_residency() {
        let mut c = tiny(); // 4 blocks
        for i in 0..100u64 {
            let addr = PhysAddr::new(i * 64);
            if !c.access(addr, false) {
                c.fill(addr, false);
            }
        }
        assert_eq!(c.resident_blocks(), 4);
    }
}
