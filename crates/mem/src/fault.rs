//! Deterministic NVM media-fault model.
//!
//! Real NVM is not a perfect store: cells suffer transient bit flips and
//! wear out into stuck-at faults. [`FaultModel`] models both so the
//! controller's integrity protection (per-64 B CRCs, checksummed metadata,
//! retry/remap/scrub healing) can be exercised and validated.
//!
//! Every decision the model makes is a pure function of the configured seed
//! and the sequence of device operations it has observed — there is no
//! global RNG state, no clock, and no OS entropy. Two models built from the
//! same [`MediaFaultConfig`] and fed the same operation sequence produce
//! byte-identical fault schedules, which is what lets the crash-replay
//! sweeps reproduce a faulty run exactly (the vendored proptest shim cannot
//! replay upstream seed hashes, so determinism must come from the model
//! itself).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use thynvm_types::rng::{mix, unit};
use thynvm_types::{
    DramFaultConfig, FaultKind, FxHashMap, FxHashSet, HwAddr, MediaFaultConfig, BLOCKS_PER_PAGE, BLOCK_BYTES,
    PAGE_BYTES,
};

use crate::device::bank_and_row;

/// One corrupted read as decided by the fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Device address of the corrupted byte.
    pub addr: u64,
    /// XOR mask of the flipped bit(s) within that byte.
    pub mask: u8,
    /// Classification of the fault.
    pub kind: FaultKind,
}

/// Deterministic, seedable model of NVM media faults: transient bit flips
/// and wear-induced stuck-at cells.
///
/// The model keys every decision on a counter of observed operations mixed
/// with the seed (splitmix64), so schedules replay exactly. Wear is tracked
/// per device row, split by the same fold as [`crate::Device`].
#[derive(Debug, Clone)]
pub struct FaultModel {
    seed: u64,
    bit_flip_rate: f64,
    stuck_at_threshold: u64,
    reads_seen: u64,
    writes_seen: u64,
    forced_flips: u32,
    row_writes: BTreeMap<u64, u64>,
    stuck: BTreeMap<u64, u8>,
}

/// Domain-separation tags mixed into the seed so the read and wear
/// schedules are independent streams.
const TAG_READ: u64 = 0x5245_4144; // "READ"
const TAG_WEAR: u64 = 0x5745_4152; // "WEAR"

impl FaultModel {
    /// Builds a model from the configuration.
    pub fn new(cfg: &MediaFaultConfig) -> Self {
        Self {
            seed: cfg.seed,
            bit_flip_rate: cfg.bit_flip_rate,
            stuck_at_threshold: cfg.stuck_at_threshold,
            reads_seen: 0,
            writes_seen: 0,
            forced_flips: 0,
            row_writes: BTreeMap::new(),
            stuck: BTreeMap::new(),
        }
    }

    /// Observes one device write of `bytes` at `addr`, feeding the wear
    /// model. When the write pushes its row across the stuck-at threshold,
    /// one cell inside the just-written range becomes permanently stuck and
    /// its address is returned (exactly once per row).
    pub fn record_write(&mut self, addr: HwAddr, bytes: u32) -> Option<u64> {
        self.writes_seen += 1;
        if self.stuck_at_threshold == 0 {
            return None;
        }
        // Wear is counted per row; the bank does not matter here.
        let (_, row) = bank_and_row(addr, 1);
        let count = self.row_writes.entry(row).or_insert(0);
        *count += 1;
        if *count != self.stuck_at_threshold {
            return None;
        }
        // The row just wore out: pick a deterministic cell within the write
        // that triggered it and a bit inside that cell.
        let h = mix(self.seed ^ TAG_WEAR, row);
        let span = u64::from(bytes).max(1);
        let cell = addr.raw() + h % span;
        let mask = 1u8 << ((h >> 8) % 8);
        self.stuck.insert(cell, mask);
        Some(cell)
    }

    /// Decides whether a read of `bytes` at `addr` is corrupted.
    ///
    /// Stuck cells corrupt every read that covers them; otherwise a
    /// transient flip fires with the configured per-read probability. The
    /// transient stream always advances, so the schedule downstream of this
    /// read does not depend on which branch was taken.
    pub fn read_fault(&mut self, addr: HwAddr, bytes: u32) -> Option<FaultEvent> {
        self.reads_seen += 1;
        let base = addr.raw();
        let span = u64::from(bytes).max(1);
        if self.forced_flips > 0 {
            self.forced_flips -= 1;
            return Some(FaultEvent { addr: base, mask: 0x01, kind: FaultKind::BitFlip });
        }
        if let Some((&cell, &mask)) = self.stuck.range(base..base + span).next() {
            return Some(FaultEvent { addr: cell, mask, kind: FaultKind::StuckAt });
        }
        if self.bit_flip_rate > 0.0 {
            let h = mix(self.seed ^ TAG_READ, self.reads_seen);
            if unit(h) < self.bit_flip_rate {
                let addr = base + (h >> 17) % span;
                let mask = 1u8 << ((h >> 3) % 8);
                return Some(FaultEvent { addr, mask, kind: FaultKind::BitFlip });
            }
        }
        None
    }

    /// Whether this model can currently corrupt any read: the transient
    /// rate is zero (immutable after construction), no flip is armed, and
    /// no cell is stuck. Callers may skip [`FaultModel::read_fault`] for a
    /// quiet model — the transient stream is only consulted when the rate
    /// is nonzero, so the skipped `reads_seen` increments are unobservable
    /// and the fault schedule stays bit-identical. Wear state does not
    /// affect read decisions and is tracked separately.
    pub fn is_quiet(&self) -> bool {
        self.bit_flip_rate == 0.0 && self.forced_flips == 0 && self.stuck.is_empty()
    }

    /// Arms `n` guaranteed transient bit flips: each of the next `n` reads
    /// is corrupted once and reads back clean on retry. A test and demo
    /// hook for exercising the heal-by-retry path deterministically.
    pub fn arm_transient_flips(&mut self, n: u32) {
        self.forced_flips += n;
    }

    /// All currently stuck cells as `(address, stuck bit mask)`, in address
    /// order.
    pub fn stuck_cells(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.stuck.iter().map(|(&a, &m)| (a, m))
    }
}

/// Outcome of one SEC-DED-checked DRAM read, as decided by
/// [`DramEccModel::observe_read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccReadFault {
    /// A single-bit transient the SEC-DED code corrected: the delivered
    /// data is good, the event only needs counting.
    Corrected,
    /// A multi-bit error the code can detect but not correct: the 64 B
    /// block at device offset `block` is poisoned. `fresh` is `true` the
    /// first time the block is reported and `false` on every re-read of an
    /// already-poisoned block.
    Poisoned {
        /// Block-aligned device offset of the poisoned 64 B block.
        block: u64,
        /// Whether this read created the poison (count it once).
        fresh: bool,
    },
}

/// Deterministic, seedable SEC-DED ECC model for the DRAM working region.
///
/// Mirrors [`FaultModel`]'s determinism contract: every decision is a pure
/// function of the configured seed and the read counter, so fault
/// schedules replay exactly across runs. Single-bit transients are
/// corrected in place by the code; multi-bit errors poison whole 64 B
/// blocks, which stay poisoned (the stored data itself is corrupt, so
/// re-reads keep failing) until the block is rewritten whole, re-fetched
/// from NVM, or power is lost — DRAM poison is volatile.
#[derive(Debug, Clone)]
pub struct DramEccModel {
    seed: u64,
    flip_rate: f64,
    poison_rate: f64,
    reads_seen: u64,
    forced_flips: u32,
    forced_poisons: u32,
    poisoned: BTreeSet<u64>,
}

/// Domain-separation tags for the DRAM ECC streams (distinct from the NVM
/// model's `TAG_READ`/`TAG_WEAR` so equal seeds would still
/// decorrelate — though the config layer additionally rejects equal seeds).
const TAG_ECC_FLIP: u64 = 0x4543_4346; // "ECCF"
const TAG_ECC_POISON: u64 = 0x4543_4350; // "ECCP"

impl DramEccModel {
    /// Builds a model from the configuration.
    pub fn new(cfg: &DramFaultConfig) -> Self {
        Self {
            seed: cfg.seed,
            flip_rate: cfg.flip_rate,
            poison_rate: cfg.poison_rate,
            reads_seen: 0,
            forced_flips: 0,
            forced_poisons: 0,
            poisoned: BTreeSet::new(),
        }
    }

    /// Observes one ECC-checked DRAM read of `bytes` at device offset
    /// `off` and decides its outcome.
    ///
    /// A read covering an already-poisoned block always reports that block
    /// (`fresh: false`): its stored data is corrupt, so the check keeps
    /// failing. Otherwise the seeded streams decide — a multi-bit error
    /// poisons one block inside the span, a single-bit transient is
    /// corrected. Both streams advance on every read, so the downstream
    /// schedule does not depend on which branch was taken.
    pub fn observe_read(&mut self, off: u64, bytes: u32) -> Option<EccReadFault> {
        self.reads_seen += 1;
        let span = u64::from(bytes).max(1);
        if self.forced_poisons > 0 {
            self.forced_poisons -= 1;
            let block = off & !(BLOCK_BYTES - 1);
            let fresh = self.poisoned.insert(block);
            return Some(EccReadFault::Poisoned { block, fresh });
        }
        if let Some(block) = self.first_poisoned_in(off, span) {
            return Some(EccReadFault::Poisoned { block, fresh: false });
        }
        if self.forced_flips > 0 {
            self.forced_flips -= 1;
            return Some(EccReadFault::Corrected);
        }
        // The hashes are only *consulted* when the corresponding rate is
        // armed; computing them lazily keeps the zero-rate path to a
        // counter increment without changing any armed schedule (each
        // stream is a pure function of seed and `reads_seen`).
        if self.poison_rate > 0.0 {
            let hp = mix(self.seed ^ TAG_ECC_POISON, self.reads_seen);
            if unit(hp) < self.poison_rate {
                let block = (off + (hp >> 17) % span) & !(BLOCK_BYTES - 1);
                self.poisoned.insert(block);
                return Some(EccReadFault::Poisoned { block, fresh: true });
            }
        }
        if self.flip_rate > 0.0 {
            let hf = mix(self.seed ^ TAG_ECC_FLIP, self.reads_seen);
            if unit(hf) < self.flip_rate {
                return Some(EccReadFault::Corrected);
            }
        }
        None
    }

    /// Whether this model can currently produce any fault at all: both
    /// rates are zero (immutable after construction), no test hook is
    /// armed, and no block is poisoned. Callers may skip [`observe_read`]
    /// entirely for a quiet model — the seeded streams are only consulted
    /// when a rate is nonzero, so the skipped counter increments are
    /// unobservable and the fault schedule stays bit-identical.
    ///
    /// [`observe_read`]: DramEccModel::observe_read
    pub fn is_quiet(&self) -> bool {
        self.flip_rate == 0.0
            && self.poison_rate == 0.0
            && self.forced_flips == 0
            && self.forced_poisons == 0
            && self.poisoned.is_empty()
    }

    /// Observes one DRAM write: blocks *fully* covered by
    /// `[off, off + bytes)` are rewritten with a freshly encoded ECC word,
    /// clearing their poison. Partial overwrites leave the poison in place
    /// (the ECC word still covers stale corrupt bytes). Returns how many
    /// poisoned blocks the write cleared.
    pub fn note_write(&mut self, off: u64, bytes: u32) -> usize {
        if self.poisoned.is_empty() {
            return 0;
        }
        let end = off + u64::from(bytes);
        let first = off.next_multiple_of(BLOCK_BYTES);
        let last = end & !(BLOCK_BYTES - 1);
        if first >= last {
            return 0;
        }
        let cleared: Vec<u64> = self.poisoned.range(first..last).copied().collect();
        for b in &cleared {
            self.poisoned.remove(b);
        }
        cleared.len()
    }

    /// Poisoned blocks intersecting `[off, off + len)`, in address order.
    pub fn poisoned_in(&self, off: u64, len: u64) -> Vec<u64> {
        let start = off.saturating_sub(BLOCK_BYTES - 1) & !(BLOCK_BYTES - 1);
        self.poisoned
            .range(start..off.saturating_add(len.max(1)))
            .copied()
            .filter(|&b| b + BLOCK_BYTES > off)
            .collect()
    }

    /// The lowest poisoned block intersecting `[off, off + len)`, without
    /// allocating — the hot-path form of [`DramEccModel::poisoned_in`].
    pub fn first_poisoned_in(&self, off: u64, len: u64) -> Option<u64> {
        if self.poisoned.is_empty() {
            return None;
        }
        let start = off.saturating_sub(BLOCK_BYTES - 1) & !(BLOCK_BYTES - 1);
        self.poisoned
            .range(start..off.saturating_add(len.max(1)))
            .copied()
            .find(|&b| b + BLOCK_BYTES > off)
    }

    /// Clears the poison on the block at block-aligned offset `block`
    /// (models a re-fetch from the NVM checkpoint copy rewriting it).
    /// Returns whether the block was actually poisoned.
    pub fn clear_block(&mut self, block: u64) -> bool {
        self.poisoned.remove(&block)
    }

    /// Power loss: DRAM contents — and with them all poison — vanish.
    /// Returns how many poisoned blocks were outstanding.
    pub fn clear_all(&mut self) -> usize {
        let n = self.poisoned.len();
        self.poisoned.clear();
        n
    }

    /// Number of currently poisoned blocks.
    pub fn outstanding(&self) -> usize {
        self.poisoned.len()
    }

    /// All currently poisoned block offsets, in address order.
    pub fn poisoned_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.poisoned.iter().copied()
    }

    /// Arms `n` guaranteed corrected single-bit transients on the next `n`
    /// reads (test/demo hook).
    pub fn arm_corrected_flips(&mut self, n: u32) {
        self.forced_flips += n;
    }

    /// Arms `n` guaranteed multi-bit errors: each of the next `n` reads
    /// poisons the first block of its span (test/demo hook).
    pub fn arm_poison(&mut self, n: u32) {
        self.forced_poisons += n;
    }

    /// Directly poisons the block containing device offset `off`
    /// (test/demo hook). Returns `true` if the block was not already
    /// poisoned.
    pub fn poison_block(&mut self, off: u64) -> bool {
        self.poisoned.insert(off & !(BLOCK_BYTES - 1))
    }
}

/// Receipt of one security-metadata persist: how much counter-table and
/// integrity-tree state had to be written to NVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityPersist {
    /// Dirty counter-table entries persisted (8 B each, logically).
    pub counter_entries: usize,
    /// Distinct integrity-tree nodes rewritten on the dirty leaves' paths
    /// to the root (root included).
    pub tree_nodes: u64,
}

/// Deterministic model of the secure persistent memory mode: per-block
/// counter-mode encryption counters and an integrity tree over the
/// counter table, both treated as crash-consistency state.
///
/// The model draws no random decisions: it is a pure function of the
/// writes, persists, crashes and injected tampers it is fed, so runs
/// replay exactly.
///
/// Counter lifecycle (Zuo et al., arXiv:1901.00620): the controller bumps
/// the write counter of every block an encrypted NVM write touches
/// ([`SecurityModel::note_write`]); at each epoch boundary the dirty
/// counters and their integrity-tree path are persisted
/// ([`SecurityModel::persist`]) under the checkpoint's commit-record
/// discipline; a crash reverts the volatile table to the last persisted
/// snapshot ([`SecurityModel::crash`]) and reports exactly how many
/// counters were lost — recovery *replays* that bounded set, never
/// guesses.
///
/// One table holds both: outside the blocks bumped since the last persist,
/// the volatile counters *are* the persisted table. Each count is stamped
/// with the table generation of its first bump since then, when its block
/// is listed with its persisted value. So a bump probes one map, a persist
/// settles every count by advancing the generation, and a crash reverts
/// the list, not the table.
///
/// A block's counter is the sum of two sparse counts: its page's count of
/// whole-page writes and its own count of every other write. A
/// page-aligned 4 KiB write (a checkpoint page writeback or a demotion)
/// thus bumps one page count instead of 64 block counters. The split is
/// bookkeeping only: every receipt and count is per block, as if each of
/// the page's 64 counters had been bumped.
#[derive(Debug, Clone, Default)]
pub struct SecurityModel {
    /// Single-block write counts in the memory controller, keyed by block
    /// number (device address / 64: FxHash keeps the six zero low bits of
    /// a block address, which would crowd the map's probe starts).
    counters: FxHashMap<u64, Count>,
    /// The blocks bumped since the last persist, each once, with the value
    /// the persisted table holds for it, 0 when it holds none (a bumped
    /// count is at least 1, so 0 never is a persisted value).
    dirty: Vec<(u64, u32)>,
    /// Whole-page write counts, keyed by page number.
    pages: FxHashMap<u64, Count>,
    /// The pages bumped since the last persist, as `dirty`.
    dirty_pages: Vec<(u64, u32)>,
    /// Blocks whose persisted counter is nonzero: the persisted table's
    /// entries, kept as a running count so reading it costs nothing.
    table_len: usize,
    /// Generation of the persisted table (bumped once per persist); the
    /// integrity-tree root authenticates table + generation, which is what
    /// makes a rolled-back table (replay attack) detectable.
    generation: u64,
    /// Injected fault: the root record was torn by power loss mid-persist.
    root_torn: bool,
    /// Injected attack: the persisted table was rolled back to an earlier
    /// generation (counter-replay attack).
    stale_table: bool,
}

/// One write count and the low 32 bits of the table generation of its
/// first bump since the last persist: a count stamped with an older
/// generation is clean, and the persisted table holds the count itself.
/// Both halves are 32 bits, so an entry is as small as a bare `u64` count
/// and the map keeps its footprint: a block would need 2^32 writes, and
/// the table 2^32 persists, to wrap them.
#[derive(Debug, Clone, Copy)]
struct Count {
    now: u32,
    stamp: u32,
}

/// Arity of the integrity tree over the counter table: each node
/// authenticates this many children.
const TREE_ARITY: u64 = 8;

/// Bumps `key`'s count in `counts` with one probe, listing `key` and its
/// persisted value in `dirty` on its first bump since the last persist
/// (whose table generation stamps it). Returns the new count.
fn bump(counts: &mut FxHashMap<u64, Count>, dirty: &mut Vec<(u64, u32)>, key: u64, stamp: u32) -> u64 {
    let c = match counts.entry(key) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            dirty.push((key, 0));
            e.insert(Count { now: 0, stamp })
        }
    };
    if c.stamp != stamp {
        dirty.push((key, c.now));
        c.stamp = stamp;
    }
    c.now += 1;
    u64::from(c.now)
}

/// Block numbers of page `page`.
fn page_blocks(page: u64) -> std::ops::Range<u64> {
    page * BLOCKS_PER_PAGE..(page + 1) * BLOCKS_PER_PAGE
}

/// Reverts the `dirty` counts to their persisted values, stamped clean
/// (`stamp` is the current generation's), dropping those the persisted
/// table holds none for.
fn revert(counts: &mut FxHashMap<u64, Count>, dirty: &mut Vec<(u64, u32)>, stamp: u32) {
    for (key, persisted) in dirty.drain(..) {
        if persisted == 0 {
            counts.remove(&key);
        } else {
            counts.insert(key, Count { now: persisted, stamp: stamp.wrapping_sub(1) });
        }
    }
}

impl SecurityModel {
    /// The current table generation's stamp (see [`Count`]).
    fn stamp(&self) -> u32 {
        self.generation as u32
    }

    /// Observes one encrypted write of the 64 B block at device address
    /// `block`: bumps its write counter and marks it dirty. Returns the
    /// new counter value.
    pub fn note_block_write(&mut self, block: u64) -> u64 {
        let (b, stamp) = (block / BLOCK_BYTES, self.stamp());
        let own = bump(&mut self.counters, &mut self.dirty, b, stamp);
        own + self.pages.get(&(b / BLOCKS_PER_PAGE)).map_or(0, |c| u64::from(c.now))
    }

    /// Observes one encrypted write of `bytes` at device address `addr`:
    /// bumps the counter of every 64 B block it touches and marks them
    /// dirty. A page-aligned 4 KiB write bumps its page's count once.
    pub fn note_write(&mut self, addr: u64, bytes: u64) {
        let stamp = self.stamp();
        if bytes == PAGE_BYTES && addr.is_multiple_of(PAGE_BYTES) {
            bump(&mut self.pages, &mut self.dirty_pages, addr / PAGE_BYTES, stamp);
            return;
        }
        for a in (addr & !(BLOCK_BYTES - 1)..addr + bytes).step_by(BLOCK_BYTES as usize) {
            bump(&mut self.counters, &mut self.dirty, a / BLOCK_BYTES, stamp);
        }
    }

    /// The dirty blocks outside the pages bumped since the last persist.
    fn lone_dirty_blocks(&self) -> impl Iterator<Item = &(u64, u32)> {
        let page_dirty = |b: u64| {
            !self.dirty_pages.is_empty()
                && self.pages.get(&(b / BLOCKS_PER_PAGE)).is_some_and(|c| c.stamp == self.stamp())
        };
        self.dirty.iter().filter(move |&&(b, _)| !page_dirty(b))
    }

    /// Number of counters bumped since the last persist — the exact
    /// exposure a crash right now would have to replay.
    pub fn dirty_count(&self) -> usize {
        self.dirty_pages.len() * BLOCKS_PER_PAGE as usize + self.lone_dirty_blocks().count()
    }

    /// Number of entries in the persisted counter table.
    pub fn table_entries(&self) -> usize {
        self.table_len
    }

    /// Generation of the persisted counter table.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of dirty blocks the persisted table holds no counter for:
    /// neither their page nor the block itself has a persisted count.
    fn unpersisted_dirty_blocks(&self) -> usize {
        // A block dirty on its own in a page never written whole.
        let lone = self.dirty.iter().filter(|&&(b, persisted)| {
            persisted == 0 && !self.pages.contains_key(&(b / BLOCKS_PER_PAGE))
        });
        // A block of a dirty page that had no persisted count, unless
        // the block has one of its own: absent from `counters`, or listed
        // dirty with none persisted.
        let fresh_pages: Vec<u64> =
            self.dirty_pages.iter().filter(|&&(_, persisted)| persisted == 0).map(|&(page, _)| page).collect();
        let mut in_fresh_pages = 0;
        if !fresh_pages.is_empty() {
            let fresh_blocks: FxHashSet<u64> =
                self.dirty.iter().filter(|&&(_, persisted)| persisted == 0).map(|&(b, _)| b).collect();
            let own_unpersisted = |b: &u64| !self.counters.contains_key(b) || fresh_blocks.contains(b);
            in_fresh_pages = fresh_pages.iter().map(|&page| page_blocks(page).filter(own_unpersisted).count()).sum();
        }
        lone.count() + in_fresh_pages
    }

    /// Persists the dirty counters and the integrity-tree path above them,
    /// advancing the table generation. Returns what had to be written.
    ///
    /// Tree accounting: each dirty leaf (counter entry, indexed by block
    /// number) dirties its ancestor chain; distinct ancestors per level
    /// are counted once, up to and including the root.
    pub fn persist(&mut self) -> SecurityPersist {
        // Level 0: the distinct dirty blocks in order. Each dirty page's
        // blocks are one sorted run, so the sorted pages merge with the
        // sorted blocks dirty outside them; nothing sorts 64 blocks a page.
        let mut pages: Vec<u64> = self.dirty_pages.iter().map(|&(page, _)| page).collect();
        pages.sort_unstable();
        let mut lone: Vec<u64> = self.lone_dirty_blocks().map(|&(b, _)| b).collect();
        lone.sort_unstable();
        let mut level = Vec::with_capacity(lone.len() + pages.len() * BLOCKS_PER_PAGE as usize);
        let mut lone = lone.into_iter().peekable();
        for page in pages {
            let run = page_blocks(page);
            while let Some(b) = lone.next_if(|&b| b < run.start) {
                level.push(b);
            }
            level.extend(run);
        }
        level.extend(lone);
        let counter_entries = level.len();
        let mut tree_nodes = 0u64;
        if counter_entries > 0 {
            self.table_len += self.unpersisted_dirty_blocks();
            // One sorted level at a time: integer division by the arity
            // keeps the level sorted, so `dedup` leaves its distinct nodes.
            loop {
                level.iter_mut().for_each(|i| *i /= TREE_ARITY);
                level.dedup();
                tree_nodes += level.len() as u64;
                if level == [0] {
                    break;
                }
            }
            // The generation advanced below settles every listed count.
            self.dirty.clear();
            self.dirty_pages.clear();
        }
        self.generation += 1;
        SecurityPersist { counter_entries, tree_nodes }
    }

    /// Power loss: the volatile counter cache reverts to the persisted
    /// table. Returns how many counters were lost mid-epoch — the bounded
    /// set recovery must replay.
    pub fn crash(&mut self) -> usize {
        let lost = self.dirty_count();
        let stamp = self.stamp();
        revert(&mut self.counters, &mut self.dirty, stamp);
        revert(&mut self.pages, &mut self.dirty_pages, stamp);
        lost
    }

    /// Whether the persisted security metadata authenticates: no torn root
    /// and no rolled-back table. A pure function of persisted state, so
    /// restarted recovery attempts reach the same verdict.
    pub fn table_authentic(&self) -> bool {
        !self.root_torn && !self.stale_table
    }

    /// Whether the injected metadata fault is a torn root (power loss
    /// mid-persist) as opposed to a rolled-back table.
    pub fn root_is_torn(&self) -> bool {
        self.root_torn
    }

    /// Injects a torn security-metadata root: power was lost while the
    /// root record was being persisted.
    pub fn tamper_torn_root(&mut self) {
        self.root_torn = true;
    }

    /// Injects a counter-replay attack: the persisted table was rolled
    /// back to a stale generation out-of-band.
    pub fn tamper_stale_table(&mut self) {
        self.stale_table = true;
    }

    /// Heals the persisted metadata after a WAL-sealed fallback re-derived
    /// and re-sealed it from the authenticated image.
    pub fn heal_table(&mut self) {
        self.root_torn = false;
        self.stale_table = false;
    }

    /// Full reset to the empty (provably uncorrupted) state — the
    /// unrecoverable path: no counter or tree state survives.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.dirty.clear();
        self.pages.clear();
        self.dirty_pages.clear();
        self.table_len = 0;
        self.generation = 0;
        self.root_torn = false;
        self.stale_table = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> MediaFaultConfig {
        MediaFaultConfig {
            enabled: true,
            seed,
            bit_flip_rate: 0.25,
            stuck_at_threshold: 4,
            ..MediaFaultConfig::default()
        }
    }

    /// Drives a model through a fixed interleaving of reads and writes and
    /// records every read fault it decides.
    fn schedule(model: &mut FaultModel) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        for i in 0..64u64 {
            let addr = HwAddr::new((i % 7) * 64);
            model.record_write(addr, 64);
            out.extend(model.read_fault(addr, 64));
        }
        out
    }

    #[test]
    fn same_seed_replays_byte_identical_schedule() {
        // Satellite requirement: the proptest shim cannot replay upstream
        // seed hashes, so determinism must be proven at the model level.
        let mut a = FaultModel::new(&cfg(0xDEAD_BEEF));
        let mut b = FaultModel::new(&cfg(0xDEAD_BEEF));
        let sa = schedule(&mut a);
        let sb = schedule(&mut b);
        assert!(!sa.is_empty(), "schedule produced no faults; rates too low");
        assert_eq!(sa, sb, "same seed must replay an identical fault schedule");
        // And the accumulated state matches too.
        assert_eq!(a.stuck_cells().collect::<Vec<_>>(), b.stuck_cells().collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultModel::new(&cfg(1));
        let mut b = FaultModel::new(&cfg(2));
        assert_ne!(schedule(&mut a), schedule(&mut b));
    }

    #[test]
    fn stuck_cell_appears_exactly_at_threshold_and_persists() {
        let media = MediaFaultConfig { enabled: true, stuck_at_threshold: 3, ..Default::default() };
        let mut m = FaultModel::new(&media);
        let addr = HwAddr::new(128);
        assert_eq!(m.record_write(addr, 64), None);
        assert_eq!(m.record_write(addr, 64), None);
        let cell = m.record_write(addr, 64).expect("third write crosses threshold");
        assert!((128..192).contains(&cell), "stuck cell inside the written range");
        // Only once per row.
        assert_eq!(m.record_write(addr, 64), None);
        // Every covering read is corrupted, at the same cell.
        let e1 = m.read_fault(addr, 64).expect("stuck read corrupts");
        let e2 = m.read_fault(addr, 64).expect("still corrupts");
        assert_eq!((e1.addr, e1.mask, e1.kind), (e2.addr, e2.mask, FaultKind::StuckAt));
        assert_eq!(m.stuck_cells().map(|(a, _)| a).collect::<Vec<_>>(), [cell]);
    }

    #[test]
    fn transient_flip_rate_zero_never_fires() {
        let mut m = FaultModel::new(&MediaFaultConfig { enabled: true, ..Default::default() });
        for i in 0..1000 {
            assert_eq!(m.read_fault(HwAddr::new(i * 64), 64), None);
        }
    }

    #[test]
    fn transient_flip_rate_one_always_fires_within_range() {
        let media = MediaFaultConfig { enabled: true, bit_flip_rate: 1.0, ..Default::default() };
        let mut m = FaultModel::new(&media);
        for i in 0..100u64 {
            let base = i * 64;
            let ev = m.read_fault(HwAddr::new(base), 64).expect("rate 1.0 always flips");
            assert_eq!(ev.kind, FaultKind::BitFlip);
            assert!((base..base + 64).contains(&ev.addr));
            assert_eq!(ev.mask.count_ones(), 1, "exactly one flipped bit");
        }
    }

    #[test]
    fn armed_flips_fire_once_each_then_clear() {
        let mut m = FaultModel::new(&MediaFaultConfig { enabled: true, ..Default::default() });
        m.arm_transient_flips(2);
        assert!(m.read_fault(HwAddr::new(0), 64).is_some());
        assert!(m.read_fault(HwAddr::new(0), 64).is_some());
        assert_eq!(m.read_fault(HwAddr::new(0), 64), None, "armed flips are consumed");
    }

    fn ecc(seed: u64, flip: f64, poison: f64) -> DramEccModel {
        DramEccModel::new(&DramFaultConfig {
            enabled: true,
            seed,
            flip_rate: flip,
            poison_rate: poison,
        })
    }

    #[test]
    fn ecc_same_seed_replays_identically() {
        let mut a = ecc(7, 0.05, 0.02);
        let mut b = ecc(7, 0.05, 0.02);
        for i in 0..2000u64 {
            let off = (i * 24) % 8192;
            assert_eq!(a.observe_read(off, 64), b.observe_read(off, 64));
        }
        assert_eq!(
            a.poisoned_blocks().collect::<Vec<_>>(),
            b.poisoned_blocks().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ecc_different_seeds_diverge() {
        let mut a = ecc(7, 0.05, 0.02);
        let mut b = ecc(8, 0.05, 0.02);
        let fa: Vec<_> = (0..500u64).map(|i| a.observe_read(i * 64 % 4096, 64)).collect();
        let fb: Vec<_> = (0..500u64).map(|i| b.observe_read(i * 64 % 4096, 64)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn ecc_rate_zero_never_faults_rate_one_always() {
        let mut quiet = ecc(1, 0.0, 0.0);
        for i in 0..1000u64 {
            assert_eq!(quiet.observe_read(i * 64, 64), None);
        }
        let mut noisy = ecc(1, 1.0, 0.0);
        for i in 0..100u64 {
            assert_eq!(noisy.observe_read(i * 64, 64), Some(EccReadFault::Corrected));
        }
        let mut toxic = ecc(1, 0.0, 1.0);
        match toxic.observe_read(0, 64) {
            Some(EccReadFault::Poisoned { block: 0, fresh: true }) => {}
            other => panic!("expected fresh poison at block 0, got {other:?}"),
        }
        // The block stays poisoned on re-read, now stale.
        assert_eq!(
            toxic.observe_read(0, 64),
            Some(EccReadFault::Poisoned { block: 0, fresh: false })
        );
        assert_eq!(toxic.outstanding(), 1);
    }

    #[test]
    fn ecc_armed_hooks_fire_once_each() {
        let mut m = ecc(3, 0.0, 0.0);
        m.arm_corrected_flips(1);
        m.arm_poison(1);
        // Poison hook takes precedence, then the corrected flip, then quiet.
        assert_eq!(m.observe_read(128, 64), Some(EccReadFault::Poisoned { block: 128, fresh: true }));
        // The poisoned block keeps reporting; read elsewhere for the flip.
        assert_eq!(m.observe_read(1024, 64), Some(EccReadFault::Corrected));
        assert_eq!(m.observe_read(1024, 64), None);
        assert!(m.first_poisoned_in(128, 64).is_some());
        assert!(m.first_poisoned_in(192, 64).is_none());
    }

    #[test]
    fn ecc_full_overwrite_clears_partial_does_not() {
        let mut m = ecc(4, 0.0, 0.0);
        m.poison_block(256);
        m.poison_block(320);
        // Partial overwrite of block 256 leaves poison in place.
        assert_eq!(m.note_write(256, 32), 0);
        assert!(m.first_poisoned_in(256, 64).is_some());
        // Whole-block overwrite clears exactly the covered blocks.
        assert_eq!(m.note_write(256, 64), 1);
        assert!(m.first_poisoned_in(256, 64).is_none());
        assert!(m.first_poisoned_in(320, 64).is_some());
        // Unaligned span that happens to cover block 320 entirely clears it.
        assert_eq!(m.note_write(300, 120), 1);
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn ecc_clear_all_reports_outstanding_count() {
        let mut m = ecc(5, 0.0, 0.0);
        m.poison_block(0);
        m.poison_block(4096);
        m.poison_block(4096); // duplicate is idempotent
        assert_eq!(m.outstanding(), 2);
        assert_eq!(m.clear_all(), 2);
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.clear_all(), 0);
    }

    #[test]
    fn quiet_models_report_quiet_and_skipping_is_unobservable() {
        // NVM model: zero rate, nothing armed, nothing stuck => quiet.
        let mut m = FaultModel::new(&MediaFaultConfig { enabled: true, ..Default::default() });
        assert!(m.is_quiet());
        m.arm_transient_flips(1);
        assert!(!m.is_quiet());
        m.read_fault(HwAddr::new(0), 64);
        assert!(m.is_quiet(), "armed flip consumed");
        // A stuck cell silences the fast path.
        let media = MediaFaultConfig { enabled: true, stuck_at_threshold: 1, ..Default::default() };
        let mut worn = FaultModel::new(&media);
        worn.record_write(HwAddr::new(0), 64);
        assert!(!worn.is_quiet());
        // A nonzero transient rate is never quiet.
        let media = MediaFaultConfig { enabled: true, bit_flip_rate: 0.1, ..Default::default() };
        let hot = FaultModel::new(&media);
        assert!(!hot.is_quiet());

        // ECC model: skipping observe_read while quiet must not change any
        // later decision. `a` makes 100 quiet reads, `b` skips them; both
        // then arm the same hook and must agree.
        let mut a = ecc(11, 0.0, 0.0);
        let mut b = ecc(11, 0.0, 0.0);
        assert!(a.is_quiet());
        for i in 0..100u64 {
            assert_eq!(a.observe_read(i * 64, 64), None);
        }
        a.arm_poison(1);
        b.arm_poison(1);
        assert!(!a.is_quiet() && !b.is_quiet());
        assert_eq!(a.observe_read(640, 64), b.observe_read(640, 64));
        let noisy = ecc(11, 0.5, 0.0);
        assert!(!noisy.is_quiet());
    }

    #[test]
    fn security_counters_bump_persist_and_revert_on_crash() {
        let mut m = SecurityModel::default();
        assert_eq!(m.note_block_write(0), 1);
        assert_eq!(m.note_block_write(70), 1); // same block as 64
        assert_eq!(m.note_block_write(64), 2);
        assert_eq!(m.note_block_write(4096), 1);
        assert_eq!(m.dirty_count(), 3);

        let receipt = m.persist();
        assert_eq!(receipt.counter_entries, 3);
        assert!(receipt.tree_nodes >= 1, "at least the root is rewritten");
        assert_eq!(m.dirty_count(), 0);
        assert_eq!(m.table_entries(), 3);
        assert_eq!(m.generation(), 1);

        // Mid-epoch bumps are exactly the crash exposure.
        m.note_block_write(0);
        m.note_block_write(8192);
        assert_eq!(m.dirty_count(), 2);
        assert_eq!(m.crash(), 2, "two counters lost, bounded and replayable");
        assert_eq!(m.dirty_count(), 0);
        // The volatile cache reverted to the persisted table: a re-bump of
        // block 0 continues from the persisted value (1), not the lost 2.
        assert_eq!(m.note_block_write(0), 2);
        assert_eq!(m.table_entries(), 3);

        // A block first written in the crashed epoch has no persisted
        // entry: the revert removes it and the table keeps its size.
        m.persist();
        m.note_block_write(3 * 4096);
        assert_eq!(m.table_entries(), 3, "a dirty fresh block is not persisted yet");
        assert_eq!(m.crash(), 1);
        assert_eq!(m.table_entries(), 3);
        assert_eq!(m.note_block_write(3 * 4096), 1, "the lost counter starts over at 1");
    }

    /// One step of [`security_whole_page_writes_count_per_block`].
    #[derive(Debug, Clone, Copy)]
    enum PageStep {
        /// A whole-page write of page `n`.
        Page(u64),
        /// A single-block write at a device address.
        Block(u64),
        /// A persist and its expected receipt.
        Persist(SecurityPersist),
        /// A crash and its expected count of lost counters.
        Crash(usize),
    }

    #[test]
    fn security_whole_page_writes_count_per_block() {
        use PageStep::{Block, Crash, Page, Persist};
        let receipt = |counter_entries, tree_nodes| Persist(SecurityPersist { counter_entries, tree_nodes });
        // Each step, then the `dirty_count()` and `table_entries()` after it.
        let steps = [
            (Page(0), 64, 0),
            (Block(64), 64, 0), // a block of a page already dirty
            (Block(4096 + 128), 65, 0),
            (receipt(65, 12), 0, 65),
            (Page(1), 64, 65),
            (Page(1), 64, 65),
            (Block(5 * 4096), 65, 65),
            (Crash(65), 0, 65),
            (Page(0), 64, 65), // over a persisted page and a persisted block
            (Block(2 * 4096 + 4032), 65, 65),
            (receipt(65, 12), 0, 66),
            (Block(5 * 4096 + 192), 1, 66), // a block, then its whole page
            (Page(5), 64, 66),
            (Crash(64), 0, 66),
            (Page(2), 64, 66), // one of its blocks is in the table already
            (receipt(64, 10), 0, 129),
        ];
        let mut m = SecurityModel::default();
        for (i, &(step, dirty, table)) in steps.iter().enumerate() {
            match step {
                Page(page) => m.note_write(page * 4096, 4096),
                Block(addr) => {
                    m.note_block_write(addr);
                }
                Persist(want) => assert_eq!(m.persist(), want, "step {i}"),
                Crash(want) => assert_eq!(m.crash(), want, "step {i}"),
            }
            assert_eq!((m.dirty_count(), m.table_entries()), (dirty, table), "step {i}");
        }
        // Final counters, read back by one more bump each: the persisted
        // page and block writes count, the crashed ones do not.
        for (addr, counter) in
            [(0, 2), (64, 3), (4096 + 128, 1), (4096, 0), (5 * 4096, 0), (2 * 4096 + 4032, 2), (2 * 4096, 1)]
        {
            assert_eq!(m.note_block_write(addr), counter + 1, "block at {addr}");
        }
    }

    /// Reference counter-table model in its most direct form: a volatile
    /// and a persisted `BTreeMap`, a `BTreeSet` of dirty blocks, a crash
    /// that clones the persisted table back, and a `BTreeSet` per tree
    /// level. The one-probe model must be indistinguishable from it.
    #[derive(Debug, Default)]
    struct RefSecurityModel {
        counters: BTreeMap<u64, u64>,
        persisted: BTreeMap<u64, u64>,
        dirty: BTreeSet<u64>,
        generation: u64,
        root_torn: bool,
        stale_table: bool,
    }

    impl RefSecurityModel {
        fn note_block_write(&mut self, block: u64) -> u64 {
            let b = block & !(BLOCK_BYTES - 1);
            let c = self.counters.entry(b).or_insert(0);
            *c += 1;
            self.dirty.insert(b);
            *c
        }

        /// A write of `bytes` at `addr`: one block write per 64 B block it
        /// touches, whole page or not.
        fn note_write(&mut self, addr: u64, bytes: u64) {
            for a in (addr & !(BLOCK_BYTES - 1)..addr + bytes).step_by(BLOCK_BYTES as usize) {
                self.note_block_write(a);
            }
        }

        fn persist(&mut self) -> SecurityPersist {
            let counter_entries = self.dirty.len();
            let mut tree_nodes = 0u64;
            if counter_entries > 0 {
                let mut level: BTreeSet<u64> =
                    self.dirty.iter().map(|b| b / BLOCK_BYTES).collect();
                loop {
                    let parents: BTreeSet<u64> = level.iter().map(|i| i / TREE_ARITY).collect();
                    tree_nodes += parents.len() as u64;
                    if parents.len() == 1 && parents.contains(&0) {
                        break;
                    }
                    level = parents;
                }
                for &b in &self.dirty {
                    let c = self.counters.get(&b).copied().unwrap_or(0);
                    self.persisted.insert(b, c);
                }
                self.dirty.clear();
            }
            self.generation += 1;
            SecurityPersist { counter_entries, tree_nodes }
        }

        fn crash(&mut self) -> usize {
            let lost = self.dirty.len();
            self.counters = self.persisted.clone();
            self.dirty.clear();
            lost
        }

        fn reset(&mut self) {
            self.counters.clear();
            self.persisted.clear();
            self.dirty.clear();
            self.generation = 0;
            self.root_torn = false;
            self.stale_table = false;
        }
    }

    /// One step of a counter-table workload.
    #[derive(Debug, Clone, Copy)]
    enum SecOp {
        Write(u64),
        /// A whole-page write of page `n`.
        PageWrite(u64),
        /// A 4 KiB write that starts inside a page.
        Span(u64),
        Persist,
        Crash,
        Reset,
        TornRoot,
        StaleTable,
        Heal,
    }

    fn sec_op() -> impl proptest::Strategy<Value = SecOp> {
        use proptest::prelude::*;
        prop_oneof![
            // Mostly nearby blocks, so epochs rewrite blocks and share tree
            // paths; some far away, so paths diverge high in the tree.
            12 => (0u64..64 * 600).prop_map(SecOp::Write),
            3 => (0u64..1 << 36).prop_map(SecOp::Write),
            // Whole pages over the same nearby blocks, and some far away.
            4 => (0u64..12).prop_map(SecOp::PageWrite),
            1 => (0u64..1 << 24).prop_map(SecOp::PageWrite),
            2 => (0u64..10, 1u64..4096).prop_map(|(page, off)| SecOp::Span(page * 4096 + off)),
            3 => Just(SecOp::Persist),
            2 => Just(SecOp::Crash),
            1 => Just(SecOp::Reset),
            1 => Just(SecOp::TornRoot),
            1 => Just(SecOp::StaleTable),
            1 => Just(SecOp::Heal),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn security_model_matches_the_btree_reference(
            ops in proptest::collection::vec(sec_op(), 1..400),
        ) {
            let mut m = SecurityModel::default();
            let mut r = RefSecurityModel::default();
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    SecOp::Write(a) => {
                        proptest::prop_assert_eq!(m.note_block_write(a), r.note_block_write(a), "step {}", i);
                    }
                    SecOp::PageWrite(page) => {
                        m.note_write(page * 4096, 4096);
                        r.note_write(page * 4096, 4096);
                    }
                    SecOp::Span(a) => {
                        m.note_write(a, 4096);
                        r.note_write(a, 4096);
                    }
                    SecOp::Persist => proptest::prop_assert_eq!(m.persist(), r.persist(), "step {}", i),
                    SecOp::Crash => proptest::prop_assert_eq!(m.crash(), r.crash(), "step {}", i),
                    SecOp::Reset => {
                        m.reset();
                        r.reset();
                    }
                    SecOp::TornRoot => {
                        m.tamper_torn_root();
                        r.root_torn = true;
                    }
                    SecOp::StaleTable => {
                        m.tamper_stale_table();
                        r.stale_table = true;
                    }
                    SecOp::Heal => {
                        m.heal_table();
                        r.root_torn = false;
                        r.stale_table = false;
                    }
                }
                proptest::prop_assert_eq!(m.table_entries(), r.persisted.len(), "step {}", i);
                proptest::prop_assert_eq!(m.dirty_count(), r.dirty.len(), "step {}", i);
                proptest::prop_assert_eq!(m.generation(), r.generation, "step {}", i);
                proptest::prop_assert_eq!(m.table_authentic(), !r.root_torn && !r.stale_table, "step {}", i);
                proptest::prop_assert_eq!(m.root_is_torn(), r.root_torn, "step {}", i);
            }
        }
    }

    #[test]
    fn security_persist_with_no_dirty_counters_writes_no_tree() {
        let mut m = SecurityModel::default();
        let receipt = m.persist();
        assert_eq!(receipt, SecurityPersist { counter_entries: 0, tree_nodes: 0 });
        assert_eq!(m.generation(), 1, "generation still advances with the checkpoint");
    }

    #[test]
    fn security_tree_nodes_shared_ancestors_counted_once() {
        let mut m = SecurityModel::default();
        // Two adjacent blocks share every ancestor under arity 8.
        m.note_block_write(0);
        m.note_block_write(64);
        let adjacent = m.persist().tree_nodes;
        // Two far-apart blocks share only the root.
        let mut m2 = SecurityModel::default();
        m2.note_block_write(0);
        m2.note_block_write(64 * 8 * 8 * 8 * 64);
        let distant = m2.persist().tree_nodes;
        assert!(distant > adjacent, "distant leaves dirty more tree nodes");
    }

    #[test]
    fn security_tamper_flags_and_heal() {
        let mut m = SecurityModel::default();
        assert!(m.table_authentic());
        m.tamper_torn_root();
        assert!(!m.table_authentic() && m.root_is_torn());
        m.heal_table();
        assert!(m.table_authentic());
        m.tamper_stale_table();
        assert!(!m.table_authentic() && !m.root_is_torn());
        m.note_block_write(0);
        m.persist();
        m.reset();
        assert!(m.table_authentic());
        assert_eq!((m.table_entries(), m.dirty_count(), m.generation()), (0, 0, 0));
    }

    #[test]
    fn first_poisoned_in_matches_poisoned_in() {
        let mut m = ecc(6, 0.0, 0.0);
        assert_eq!(m.first_poisoned_in(0, 4096), None);
        m.poison_block(64);
        m.poison_block(256);
        for (off, len) in [(0u64, 4096u64), (100, 1), (0, 64), (128, 64), (200, 100)] {
            assert_eq!(
                m.first_poisoned_in(off, len),
                m.poisoned_in(off, len).first().copied(),
                "divergence at off={off} len={len}"
            );
        }
    }

    #[test]
    fn ecc_poisoned_in_finds_straddling_blocks() {
        let mut m = ecc(6, 0.0, 0.0);
        m.poison_block(64);
        // A 1-byte read at offset 100 sits inside block 64..128.
        assert_eq!(m.poisoned_in(100, 1), vec![64]);
        // A span ending exactly at the block start does not touch it.
        assert!(m.poisoned_in(0, 64).is_empty());
        assert!(m.clear_block(64));
        assert!(!m.clear_block(64));
    }
}
