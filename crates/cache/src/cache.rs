//! A single set-associative, writeback, write-allocate cache with LRU
//! replacement.

use thynvm_types::{PhysAddr, BLOCK_BYTES, MAX_CACHE_WAYS};

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base physical address of the evicted block.
    pub addr: PhysAddr,
    /// Whether the block was dirty (must be written back downstream).
    pub dirty: bool,
}

/// Lanes per set: every set has room for [`MAX_CACHE_WAYS`] ways, and the
/// lanes past a cache's associativity stay empty.
const LANES: usize = MAX_CACHE_WAYS as usize;
/// A way handle is `set << WAY_BITS | way`.
const WAY_BITS: u32 = LANES.trailing_zeros();
/// Tag half of an empty way. A tag is at most `u64::MAX / 64`, so its high
/// half never reaches this, and an empty way, marked wide, matches no tag.
const EMPTY: u32 = u32::MAX;
/// Rank of a lane past the associativity: above every real rank, so a
/// touch never moves it and it is never the victim.
const UNUSED: u8 = u8::MAX;

/// One set's 32-bit tag halves, one cache line of lanes.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct Halves([u32; LANES]);

/// Bit `i` is set where `lanes[i] == x`. A fixed-length fold that LLVM
/// turns into a few vector compares and one byte-mask extraction.
fn lanes_equal<T: Copy + PartialEq>(lanes: &[T; LANES], x: T) -> u16 {
    lanes.iter().rev().fold(0, |mask, &lane| mask << 1 | u16::from(lane == x))
}

/// One level of a writeback cache.
///
/// Addresses are managed at 64 B block granularity; any byte address within
/// a block maps to the same line. The cache is *write-allocate*: a store
/// miss fills the block, then dirties it.
///
/// A block's set is `block % sets` and its tag `block / sets` (a mask and
/// a shift when the set count is a power of two). Each field is its own
/// per-set array:
///
/// * `lo` holds the tags' low 32 bits, one lane per way, so a lookup
///   compares a whole set in a few vector instructions.
/// * `wide` marks the ways whose tag is 2^32 or more; only those read
///   their high half from `hi`. An empty way is wide with all-ones halves,
///   so no tag matches it.
/// * `rank` holds each way's recency, 0 for the most recently used and
///   `ways − 1` for the victim. A fresh set ranks way `w` at
///   `ways − 1 − w`, so empty ways fill lowest first and stay older than
///   every filled way: the victim is the first empty way, else the least
///   recently used one.
/// * `dirty` is one bit per way.
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
    sets: u64,
    /// `log2(sets)` when the set count is a power of two.
    shift: Option<u32>,
    /// The victim's rank, `ways − 1`.
    oldest: u8,
    lo: Vec<Halves>,
    hi: Vec<Halves>,
    wide: Vec<u16>,
    rank: Vec<[u8; LANES]>,
    dirty: Vec<u16>,
    hits: u64,
    misses: u64,
}

/// The block number of `addr`.
pub(crate) fn block_of(addr: PhysAddr) -> u64 {
    addr.raw() / BLOCK_BYTES
}

/// Splits a way handle into its set and way.
fn unpack(handle: usize) -> (usize, usize) {
    (handle >> WAY_BITS, handle & (LANES - 1))
}

impl SetAssocCache {
    /// Creates a cache of `bytes` capacity and `ways` associativity with
    /// 64 B blocks.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * BLOCK_BYTES`, or if `ways` is zero or above
    /// [`MAX_CACHE_WAYS`].
    pub fn new(bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        assert!(ways <= MAX_CACHE_WAYS, "cache may have at most {MAX_CACHE_WAYS} ways");
        let set_bytes = u64::from(ways) * BLOCK_BYTES;
        assert!(
            bytes > 0 && bytes.is_multiple_of(set_bytes),
            "capacity must be a positive multiple of ways × 64 B"
        );
        let sets = bytes / set_bytes;
        let n = sets as usize;
        let ways = ways as u8;
        let rank = std::array::from_fn(|w| ways.checked_sub(1 + w as u8).unwrap_or(UNUSED));
        Self {
            sets,
            shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            oldest: ways - 1,
            lo: vec![Halves([EMPTY; LANES]); n],
            hi: vec![Halves([EMPTY; LANES]); n],
            wide: vec![u16::MAX; n],
            rank: vec![rank; n],
            dirty: vec![0; n],
            hits: 0,
            misses: 0,
        }
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// `block`'s set and tag.
    fn split(&self, block: u64) -> (usize, u64) {
        match self.shift {
            Some(shift) => ((block & (self.sets - 1)) as usize, block >> shift),
            None => ((block % self.sets) as usize, block / self.sets),
        }
    }

    /// The tag way `way` of `set` holds, or `None` if the way is empty.
    fn tag(&self, set: usize, way: usize) -> Option<u64> {
        let lo = u64::from(self.lo[set].0[way]);
        if self.wide[set] & 1 << way == 0 {
            return Some(lo);
        }
        let hi = self.hi[set].0[way];
        (hi != EMPTY).then_some(u64::from(hi) << 32 | lo)
    }

    /// The address of the block with `tag` in `set`.
    fn addr_of(&self, set: usize, tag: u64) -> PhysAddr {
        PhysAddr::new((tag * self.sets + set as u64) * BLOCK_BYTES)
    }

    /// Scans `block`'s set once: `Ok(handle)` if a way holds the block,
    /// else `Err(handle)` for the way a fill takes, the first empty way or
    /// else the least recently used one. A handle is `set << 4 | way`.
    fn lookup(&self, block: u64) -> Result<usize, usize> {
        let (set, tag) = self.split(block);
        let low = lanes_equal(&self.lo[set].0, tag as u32);
        let high = (tag >> 32) as u32;
        let found = if high == 0 {
            low & !self.wide[set]
        } else {
            self.wide_matches(set, low & self.wide[set], high)
        };
        let handle = set << WAY_BITS;
        if found != 0 {
            Ok(handle | found.trailing_zeros() as usize)
        } else {
            Err(handle | lanes_equal(&self.rank[set], self.oldest).trailing_zeros() as usize)
        }
    }

    /// The ways among `candidates` of `set` whose high tag half is `high`.
    fn wide_matches(&self, set: usize, mut candidates: u16, high: u32) -> u16 {
        let mut found = 0;
        while candidates != 0 {
            let way = candidates.trailing_zeros();
            if self.hi[set].0[way as usize] == high {
                found |= 1 << way;
            }
            candidates &= candidates - 1;
        }
        found
    }

    /// Ranks `way` of `set` the most recently used: every way ranked more
    /// recent than it ages by one.
    fn promote(&mut self, set: usize, way: usize) {
        let rank = &mut self.rank[set];
        let old = rank[way];
        for r in rank.iter_mut() {
            *r += u8::from(*r < old);
        }
        rank[way] = 0;
    }

    /// Marks the way behind `handle` the most recently used, dirtying it if
    /// `dirty`.
    fn touch(&mut self, handle: usize, dirty: bool) {
        let (set, way) = unpack(handle);
        self.promote(set, way);
        self.dirty[set] |= u16::from(dirty) << way;
    }

    /// An access by block number: on a hit marks the way the most recently
    /// used (and dirties it for a write) and returns `Ok`; on a miss returns
    /// the way a fill of `block` takes, for [`SetAssocCache::install`]. The
    /// way stays right until this cache is changed again.
    pub(crate) fn access_block(&mut self, block: u64, is_write: bool) -> Result<(), usize> {
        let found = self.lookup(block);
        match found {
            Ok(handle) => {
                self.touch(handle, is_write);
                self.hits += 1;
            }
            Err(_) => self.misses += 1,
        }
        found.map(|_| ())
    }

    /// Installs `block` into the way behind `handle`, as returned by a
    /// lookup that missed, and returns the valid block it displaced.
    pub(crate) fn install(&mut self, handle: usize, block: u64, dirty: bool) -> Option<Eviction> {
        let (set, way) = unpack(handle);
        let bit = 1 << way;
        let evicted = self
            .tag(set, way)
            .map(|old| Eviction { addr: self.addr_of(set, old), dirty: self.dirty[set] & bit != 0 });
        let (_, tag) = self.split(block);
        self.lo[set].0[way] = tag as u32;
        let high = (tag >> 32) as u32;
        if high == 0 {
            self.wide[set] &= !bit;
        } else {
            self.hi[set].0[way] = high;
            self.wide[set] |= bit;
        }
        self.dirty[set] = self.dirty[set] & !bit | u16::from(dirty) << way;
        self.promote(set, way);
        evicted
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
            Ok(handle) => {
                self.touch(handle, dirty);
                None
            }
            Err(handle) => self.install(handle, block, dirty),
        }
    }

    /// Cleans every dirty block *without invalidating it* (CLWB-like, §4.4)
    /// and returns the addresses of the blocks that were dirty, set by set
    /// and way by way.
    pub fn clean_all(&mut self) -> Vec<PhysAddr> {
        let mut cleaned = Vec::new();
        for set in 0..self.dirty.len() {
            let mut dirty = std::mem::take(&mut self.dirty[set]);
            while dirty != 0 {
                let way = dirty.trailing_zeros() as usize;
                let tag = self.tag(set, way).expect("a dirty way holds a block");
                cleaned.push(self.addr_of(set, tag));
                dirty &= dirty - 1;
            }
        }
        cleaned
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        let ways = usize::from(self.oldest) + 1;
        let resident = |set| (0..ways).filter(|&w| self.tag(set, w).is_some()).count();
        (0..self.dirty.len()).map(resident).sum()
    }

    /// Number of dirty blocks currently resident.
    pub fn dirty_blocks(&self) -> usize {
        self.dirty.iter().map(|d| d.count_ones() as usize).sum()
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
    #[should_panic(expected = "at most 16 ways")]
    fn more_ways_than_lanes_rejected() {
        SetAssocCache::new(17 * 64, 17);
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
    fn eviction_address_reconstruction() {
        // A cache with many sets: make sure evicted addresses are exact.
        let mut c = SetAssocCache::new(32 * 1024, 8); // 64 sets
        let addr = PhysAddr::new(123 * 64);
        c.fill(addr, true);
        // Fill the same set with 8 more conflicting blocks.
        let sets = 64u64;
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
