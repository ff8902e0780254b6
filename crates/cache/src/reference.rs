//! The previous cache model, kept as the test reference.
//!
//! [`RefCache`] is the 24-byte-line cache that scanned a set up to three
//! times per fill (present? invalid way? LRU way?) and ordered ways by a
//! global LRU stamp, and [`RefHierarchy`] the walk that re-scanned each
//! missing level when it filled it. The proptests below drive them side
//! by side with [`SetAssocCache`] and [`CacheHierarchy`] and require every
//! observable to agree, so the lane-and-rank cache and the scan-once walk
//! provably keep the same victims, fill ways, flush order and writeback
//! order, for tags of any width.

use proptest::prelude::*;
use thynvm_types::{
    AccessKind, CacheConfig, PhysAddr, SystemConfig, BLOCK_BYTES, L1_HIT_CYCLES, L2_HIT_CYCLES,
    L3_HIT_CYCLES,
};

use crate::cache::{Eviction, SetAssocCache};
use crate::hierarchy::{CacheHierarchy, HierarchyOutcome};

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

impl Line {
    const INVALID: Line = Line { tag: 0, valid: false, dirty: false, lru: 0 };
}

/// The previous `SetAssocCache`, unchanged but for its name.
#[derive(Debug, Clone)]
struct RefCache {
    sets: usize,
    ways: usize,
    lines: Vec<Line>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(bytes: u64, ways: u32) -> Self {
        let ways = ways as usize;
        let blocks = (bytes / BLOCK_BYTES) as usize;
        let sets = blocks / ways;
        Self { sets, ways, lines: vec![Line::INVALID; blocks], tick: 0, hits: 0, misses: 0 }
    }

    fn index(&self, addr: PhysAddr) -> (usize, u64) {
        let block = addr.raw() / BLOCK_BYTES;
        ((block % self.sets as u64) as usize, block / self.sets as u64)
    }

    fn set_lines(&mut self, set: usize) -> &mut [Line] {
        let start = set * self.ways;
        &mut self.lines[start..start + self.ways]
    }

    fn probe(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr);
        let start = set * self.ways;
        self.lines[start..start + self.ways].iter().any(|l| l.valid && l.tag == tag)
    }

    fn access(&mut self, addr: PhysAddr, is_write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        for line in self.set_lines(set) {
            if line.valid && line.tag == tag {
                line.lru = tick;
                if is_write {
                    line.dirty = true;
                }
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    fn fill(&mut self, addr: PhysAddr, dirty: bool) -> Option<Eviction> {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        let sets = self.sets as u64;
        let lines = self.set_lines(set);
        if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= dirty;
            return None;
        }
        if let Some(line) = lines.iter_mut().find(|l| !l.valid) {
            *line = Line { tag, valid: true, dirty, lru: tick };
            return None;
        }
        let victim = lines.iter_mut().min_by_key(|l| l.lru).expect("ways > 0");
        let evicted = Eviction {
            addr: PhysAddr::new((victim.tag * sets + set as u64) * BLOCK_BYTES),
            dirty: victim.dirty,
        };
        *victim = Line { tag, valid: true, dirty, lru: tick };
        Some(evicted)
    }

    fn clean_all(&mut self) -> Vec<PhysAddr> {
        let sets = self.sets as u64;
        let mut cleaned = Vec::new();
        for (i, line) in self.lines.iter_mut().enumerate() {
            if line.valid && line.dirty {
                let set = (i / self.ways) as u64;
                cleaned.push(PhysAddr::new((line.tag * sets + set) * BLOCK_BYTES));
                line.dirty = false;
            }
        }
        cleaned
    }

    fn resident_blocks(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    fn dirty_blocks(&self) -> usize {
        self.lines.iter().filter(|l| l.valid && l.dirty).count()
    }
}

/// The previous `CacheHierarchy` walk: every fill re-scans its set.
#[derive(Debug)]
struct RefHierarchy {
    l1: RefCache,
    l2: RefCache,
    l3: RefCache,
}

impl RefHierarchy {
    fn new(config: CacheConfig) -> Self {
        Self {
            l1: RefCache::new(config.l1_bytes, config.l1_ways),
            l2: RefCache::new(config.l2_bytes, config.l2_ways),
            l3: RefCache::new(config.l3_bytes, config.l3_ways),
        }
    }

    fn fill_l1(&mut self, addr: PhysAddr, dirty: bool, out: &mut Vec<PhysAddr>) {
        if let Some(ev) = self.l1.fill(addr, dirty) {
            if ev.dirty {
                self.fill_l2(ev.addr, true, out);
            }
        }
    }

    fn fill_l2(&mut self, addr: PhysAddr, dirty: bool, out: &mut Vec<PhysAddr>) {
        if let Some(ev) = self.l2.fill(addr, dirty) {
            if ev.dirty {
                self.fill_l3(ev.addr, true, out);
            }
        }
    }

    fn fill_l3(&mut self, addr: PhysAddr, dirty: bool, out: &mut Vec<PhysAddr>) {
        if let Some(ev) = self.l3.fill(addr, dirty) {
            if ev.dirty {
                out.push(ev.addr);
            }
        }
    }

    fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> HierarchyOutcome {
        let is_write = kind.is_write();
        let mut out = HierarchyOutcome::default();
        if self.l1.access(addr, is_write) {
            out.latency_cycles = L1_HIT_CYCLES;
            return out;
        }
        if self.l2.access(addr, false) {
            out.latency_cycles = L2_HIT_CYCLES;
            self.fill_l1(addr, is_write, &mut out.writebacks);
            return out;
        }
        if self.l3.access(addr, false) {
            out.latency_cycles = L3_HIT_CYCLES;
            self.fill_l2(addr, false, &mut out.writebacks);
            self.fill_l1(addr, is_write, &mut out.writebacks);
            return out;
        }
        out.latency_cycles = L3_HIT_CYCLES;
        out.fetch = Some(addr.block_aligned());
        self.fill_l3(addr, false, &mut out.writebacks);
        self.fill_l2(addr, false, &mut out.writebacks);
        self.fill_l1(addr, is_write, &mut out.writebacks);
        out
    }

    fn clean_all(&mut self) -> Vec<PhysAddr> {
        let mut dirty = self.l1.clean_all();
        dirty.extend(self.l2.clean_all());
        dirty.extend(self.l3.clean_all());
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }
}

/// Everything a caller can observe of one level, for both models. The
/// residency counts scan every line, so they are taken only when `full`.
fn observe(c: &SetAssocCache, full: bool) -> (u64, u64, Option<(usize, usize)>) {
    (c.hits(), c.misses(), full.then(|| (c.resident_blocks(), c.dirty_blocks())))
}

fn observe_ref(c: &RefCache, full: bool) -> (u64, u64, Option<(usize, usize)>) {
    (c.hits, c.misses, full.then(|| (c.resident_blocks(), c.dirty_blocks())))
}

/// Whether step `i` of `n` also compares residency: every 16th step and
/// the last.
fn full_check(i: usize, n: usize) -> bool {
    i.is_multiple_of(16) || i + 1 == n
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Access(u64, bool),
    Fill(u64, bool),
    Probe(u64),
    CleanAll,
}

/// What one [`CacheOp`] returned.
#[derive(Debug, PartialEq)]
enum Returned {
    Hit(bool),
    Evicted(Option<Eviction>),
    Cleaned(Vec<PhysAddr>),
}

fn apply(c: &mut SetAssocCache, op: CacheOp) -> Returned {
    match op {
        CacheOp::Access(a, w) => Returned::Hit(c.access(PhysAddr::new(a), w)),
        CacheOp::Fill(a, d) => Returned::Evicted(c.fill(PhysAddr::new(a), d)),
        CacheOp::Probe(a) => Returned::Hit(c.probe(PhysAddr::new(a))),
        CacheOp::CleanAll => Returned::Cleaned(c.clean_all()),
    }
}

fn apply_ref(c: &mut RefCache, op: CacheOp) -> Returned {
    match op {
        CacheOp::Access(a, w) => Returned::Hit(c.access(PhysAddr::new(a), w)),
        CacheOp::Fill(a, d) => Returned::Evicted(c.fill(PhysAddr::new(a), d)),
        CacheOp::Probe(a) => Returned::Hit(c.probe(PhysAddr::new(a))),
        CacheOp::CleanAll => Returned::Cleaned(c.clean_all()),
    }
}

/// Operations on the byte addresses `addr` draws, weighted towards
/// accesses and fills.
fn cache_op(addr: impl Strategy<Value = u64>) -> impl Strategy<Value = CacheOp> {
    (0u8..17, addr, any::<bool>()).prop_map(|(pick, a, flag)| match pick {
        0..=7 => CacheOp::Access(a, flag),
        8..=13 => CacheOp::Fill(a, flag),
        14..=15 => CacheOp::Probe(a),
        _ => CacheOp::CleanAll,
    })
}

/// Byte addresses in the first `blocks` blocks: a small block space makes
/// tiny caches conflict densely.
fn low_addr(blocks: u64) -> std::ops::Range<u64> {
    0..blocks * BLOCK_BYTES
}

/// Block `s + t × 12288` lands in set `s` of every paper-shaped level at
/// once (64, 512, 2048, 4096 and 6144 sets all divide 12288), so 48 tags
/// over 4 sets overflow even the 16-way L3, and an L1 victim always maps
/// to the L2 and L3 sets its line came from.
fn aligned_addr() -> impl Strategy<Value = u64> {
    (0u64..4, 0u64..48, 0..BLOCK_BYTES).prop_map(|(s, t, off)| (s + t * 12_288) * BLOCK_BYTES + off)
}

/// Addresses for the paper geometries: set-aligned conflicts, or uniform
/// over 512 KiB (twice the L2).
fn paper_addr() -> impl Strategy<Value = u64> {
    prop_oneof![1 => aligned_addr(), 1 => low_addr(8192)]
}

/// [`paper_addr`]'s addresses, some moved up by 2^45 or by 3 × 2^60
/// bytes. On the 64-set L1 the first shift adds 2^33 to a block's tag;
/// the second is a multiple of 2^32 tags in every paper-shaped level, so
/// it keeps the set and the tag's low 32 bits and changes only its high
/// half. The three copies of one block then meet in the same set.
fn wide_addr() -> impl Strategy<Value = u64> {
    (paper_addr(), 0usize..3).prop_map(|(a, k)| a + [0, 1 << 45, 3 << 60][k])
}

/// A level of `sets` sets and `ways` ways.
fn level(sets: u64, ways: u32) -> (u64, u32) {
    (sets * u64::from(ways) * BLOCK_BYTES, ways)
}

/// Drives both caches through `ops` and compares every return value and
/// every counter after each step.
fn run_cache(bytes: u64, ways: u32, ops: &[CacheOp]) {
    let mut c = SetAssocCache::new(bytes, ways);
    let mut r = RefCache::new(bytes, ways);
    for (i, &op) in ops.iter().enumerate() {
        assert_eq!(apply(&mut c, op), apply_ref(&mut r, op), "step {i}: {op:?}");
        let full = full_check(i, ops.len());
        assert_eq!(observe(&c, full), observe_ref(&r, full), "step {i}: {op:?}");
    }
}

#[derive(Debug, Clone, Copy)]
enum HierOp {
    Access(u64, bool),
    CleanAll,
}

/// Accesses to the byte addresses `addr` draws, with a flush every ~40.
fn hier_op(addr: impl Strategy<Value = u64>) -> impl Strategy<Value = HierOp> {
    (0u8..41, addr, any::<bool>())
        .prop_map(|(pick, a, write)| if pick == 0 { HierOp::CleanAll } else { HierOp::Access(a, write) })
}

/// Drives both hierarchies through `ops` and compares each outcome (its
/// writebacks in order), each flush, and every level's counters.
fn run_hierarchy(config: CacheConfig, ops: &[HierOp]) {
    let mut h = CacheHierarchy::new(config);
    let mut r = RefHierarchy::new(config);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            HierOp::Access(a, w) => {
                let kind = if w { AccessKind::Write } else { AccessKind::Read };
                assert_eq!(h.access(PhysAddr::new(a), kind), r.access(PhysAddr::new(a), kind), "step {i}: {op:?}");
            }
            HierOp::CleanAll => assert_eq!(h.clean_all(), r.clean_all(), "step {i}: {op:?}"),
        }
        let full = full_check(i, ops.len());
        let levels = h.levels().map(|c| observe(c, full));
        let want = [&r.l1, &r.l2, &r.l3].map(|c| observe_ref(c, full));
        assert_eq!(levels, want, "step {i}: {op:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tiny_caches_match_the_three_scan_reference(
        sets in 1u64..5,
        ways in 1u32..17,
        ops in proptest::collection::vec(cache_op(low_addr(24)), 1..400),
    ) {
        let (bytes, ways) = level(sets, ways);
        run_cache(bytes, ways, &ops);
    }

    #[test]
    fn paper_and_multicore_l3_geometries_match_the_three_scan_reference(
        shape in 0usize..4,
        ops in proptest::collection::vec(cache_op(paper_addr()), 1..1500),
    ) {
        // The paper's L1, L2 and L3, and the 3-core shared L3 (6144 sets,
        // not a power of two).
        let c = SystemConfig::paper().cache;
        let (bytes, ways) = [
            (c.l1_bytes, c.l1_ways),
            (c.l2_bytes, c.l2_ways),
            (c.l3_bytes, c.l3_ways),
            (c.l3_bytes * 3, c.l3_ways),
        ][shape];
        run_cache(bytes, ways, &ops);
    }

    #[test]
    fn wide_tags_match_the_three_scan_reference(
        shape in 0usize..4,
        ops in proptest::collection::vec(cache_op(wide_addr()), 1..1500),
    ) {
        // Tags of 2^32 and up that share their low 32 bits with a low
        // address's tag, on the paper's L1, L2 and L3 and the 3-core L3.
        let c = SystemConfig::paper().cache;
        let (bytes, ways) = [
            (c.l1_bytes, c.l1_ways),
            (c.l2_bytes, c.l2_ways),
            (c.l3_bytes, c.l3_ways),
            (c.l3_bytes * 3, c.l3_ways),
        ][shape];
        run_cache(bytes, ways, &ops);
    }

    #[test]
    fn tiny_hierarchies_match_the_rescanning_walk(
        l1 in (1u64..5, 1u32..17),
        l2 in (1u64..5, 1u32..17),
        l3 in (1u64..5, 1u32..17),
        ops in proptest::collection::vec(hier_op(low_addr(48)), 1..500),
    ) {
        let [(b1, w1), (b2, w2), (b3, w3)] = [l1, l2, l3].map(|(sets, ways)| level(sets, ways));
        let config = CacheConfig {
            l1_bytes: b1,
            l1_ways: w1,
            l2_bytes: b2,
            l2_ways: w2,
            l3_bytes: b3,
            l3_ways: w3,
        };
        run_hierarchy(config, &ops);
    }

    #[test]
    fn paper_hierarchies_match_the_rescanning_walk(
        cores in 1u64..4,
        ops in proptest::collection::vec(hier_op(paper_addr()), 1..3000),
    ) {
        // The paper's hierarchy with the L3 of a 1-, 2- or 3-core platform.
        let mut config = SystemConfig::paper().cache;
        config.l3_bytes *= cores;
        run_hierarchy(config, &ops);
    }
}
