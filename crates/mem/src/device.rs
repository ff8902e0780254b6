//! Banked memory-device timing model.
//!
//! Each device (DRAM or NVM) consists of `channels × BANKS_PER_CHANNEL`
//! banks. Every bank owns a row buffer: an access to the currently open row
//! is a *row hit*; anything else is a *row miss*, which for NVM is more
//! expensive when the evicted row buffer is dirty, because the old row must
//! be written back into the slow NVM array first (timing per Table 2 /
//! [Lee'09], [Yoon'12]).
//!
//! Banks are modeled with a `busy_until` timestamp: an access cannot start
//! before the bank finished its previous operation, so bank conflicts
//! serialize while accesses to different banks proceed in parallel. Data
//! transfer beyond the first 64 B burst is pipelined at the DDR3 burst rate.

use thynvm_types::{
    AccessKind, Cycle, DeviceGeometry, FxHashMap, HwAddr, BLOCK_BYTES, DRAM_ROW_HIT_NS,
    DRAM_ROW_MISS_NS, NVM_CLEAN_MISS_NS, NVM_DIRTY_MISS_NS, NVM_ROW_HIT_NS, ROW_BYTES,
};

/// Additional data-transfer time per extra 64 B burst, in nanoseconds
/// (DDR3-1600: 8 beats × 0.625 ns ≈ 5 ns per 64 B burst).
pub const BURST_NS: u64 = 5;

/// Maps an address to `(bank index, row id)` on a device of `banks` banks.
///
/// Rows are interleaved across banks so that consecutive rows live in
/// different banks (row-interleaving), while accesses within one row
/// stay in one bank and enjoy row-buffer locality. [`Device`],
/// [`crate::PersistBuffer`] and [`crate::FaultModel`]'s per-row wear all
/// fold through here, so writes to one line share a bank and a row in
/// each. [`ROW_BYTES`] is a power of two, so the row is a shift; a
/// power-of-two bank count folds with a mask instead of a 64-bit modulo.
pub(crate) fn bank_and_row(addr: HwAddr, banks: usize) -> (usize, u64) {
    let row = addr.raw() / ROW_BYTES;
    let banks = banks as u64;
    let bank = if banks.is_power_of_two() { row & (banks - 1) } else { row % banks };
    (bank as usize, row)
}

/// Which technology a [`Device`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Volatile DRAM: symmetric row-miss cost.
    Dram,
    /// Nonvolatile memory (PCM-like): asymmetric clean/dirty row-miss cost.
    Nvm,
}

impl DeviceKind {
    /// Human-readable name.
    pub const fn as_str(self) -> &'static str {
        match self {
            DeviceKind::Dram => "DRAM",
            DeviceKind::Nvm => "NVM",
        }
    }
}

/// Per-device statistics, independent of the controller-level classification
/// in [`thynvm_types::MemStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Read accesses serviced.
    pub reads: u64,
    /// Write accesses serviced.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (clean + dirty).
    pub row_misses: u64,
    /// Row-buffer misses that evicted a dirty row (NVM only).
    pub dirty_row_misses: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Total cycles banks spent busy (sums over banks).
    pub busy_cycles: Cycle,
}

impl DeviceStats {
    /// Row-buffer hit rate in [0, 1]; 0 when no accesses happened.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    row_dirty: bool,
    busy_until: Cycle,
}

/// A device's technology and Table 2's latencies, resolved from
/// nanoseconds once at construction so the per-access path does no
/// ns→cycle conversions.
#[derive(Debug, Clone, Copy)]
struct Timing {
    kind: DeviceKind,
    /// Row-hit latency.
    hit_lat: Cycle,
    /// Clean row-miss latency (row buffer empty or clean).
    clean_miss_lat: Cycle,
    /// Dirty row-miss latency; equals the plain miss latency for DRAM,
    /// which has no writeback asymmetry.
    dirty_miss_lat: Cycle,
}

impl Timing {
    /// Latency of the row activation for this access, given bank state.
    /// DRAM's dirty-miss latency equals its clean-miss latency, so the
    /// dirty branch is technology-agnostic here.
    fn row_latency(self, bank: &Bank, row: u64) -> (Cycle, bool) {
        if bank.open_row == Some(row) {
            (self.hit_lat, true)
        } else if bank.row_dirty && bank.open_row.is_some() {
            (self.dirty_miss_lat, false)
        } else {
            (self.clean_miss_lat, false)
        }
    }

    /// The per-access step [`Device::access`] and the first block of each
    /// row in [`Device::access_blocks`] take: one access of `bytes` to
    /// `row`, which `bank` holds, arriving at `now`. Updates the bank and
    /// `stats` (wear is the caller's) and returns the completion cycle.
    fn step(
        self,
        bank: &mut Bank,
        stats: &mut DeviceStats,
        row: u64,
        kind: AccessKind,
        bytes: u32,
        now: Cycle,
    ) -> Cycle {
        let (row_lat, hit) = self.row_latency(bank, row);
        let bursts = u64::from(bytes).div_ceil(64);
        let transfer = Cycle::from_ns(BURST_NS * bursts);
        let start = now.max(bank.busy_until);
        // Completion: latency of the first word + pipelined rest.
        let done = start + row_lat + Cycle::from_ns(BURST_NS * bursts.saturating_sub(1));
        // Occupancy: activation (miss only) + transfer.
        let occupancy = if hit { transfer } else { (row_lat - self.hit_lat) + transfer };

        // Update bank state.
        let was_dirty = bank.row_dirty;
        if !hit {
            bank.open_row = Some(row);
            bank.row_dirty = false;
        }
        if kind.is_write() {
            bank.row_dirty = true;
        }
        bank.busy_until = start + occupancy;

        // Update stats.
        if hit {
            stats.row_hits += 1;
        } else {
            stats.row_misses += 1;
            if self.kind == DeviceKind::Nvm && was_dirty {
                stats.dirty_row_misses += 1;
            }
        }
        match kind {
            AccessKind::Read => {
                stats.reads += 1;
                stats.read_bytes += u64::from(bytes);
            }
            AccessKind::Write => {
                stats.writes += 1;
                stats.write_bytes += u64::from(bytes);
            }
        }
        stats.busy_cycles += occupancy;

        done
    }

    /// `n` row hits moving `bytes` in all, each within one 64 B block,
    /// issued back to back to `bank` behind an access to the same row that
    /// still occupies it: the bank, the row's state and `stats` end as `n`
    /// [`Timing::step`] calls leave them. Each hit starts when the one
    /// before frees the bank and occupies it for one burst, so together
    /// they occupy it for `n` bursts; none changes the open row, and a
    /// write hit finds the row already dirty from the access before it.
    fn hits(bank: &mut Bank, stats: &mut DeviceStats, kind: AccessKind, bytes: u64, n: u64) {
        let occupancy = Cycle::new(Cycle::from_ns(BURST_NS).raw() * n);
        bank.busy_until += occupancy;
        stats.row_hits += n;
        match kind {
            AccessKind::Read => {
                stats.reads += n;
                stats.read_bytes += bytes;
            }
            AccessKind::Write => {
                stats.writes += n;
                stats.write_bytes += bytes;
            }
        }
        stats.busy_cycles += occupancy;
    }
}

/// The completions of one row's blocks in a [`Device::access_blocks`]
/// span: `count` blocks, the first completing at `first` and each later
/// one `step` after the one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRun {
    /// Completion of the first block.
    pub first: Cycle,
    /// Gap between consecutive completions.
    pub step: Cycle,
    /// Number of blocks, at least one.
    pub count: u64,
}

impl BlockRun {
    /// Completion of block `k` (from 0).
    pub fn at(self, k: u64) -> Cycle {
        self.first + Cycle::new(self.step.raw() * k)
    }

    /// Completion of the last block.
    pub fn last(self) -> Cycle {
        self.at(self.count - 1)
    }
}

/// Wear (endurance) summary of a device: how write traffic distributes
/// over rows. NVM cells endure a bounded number of writes (~10^8 for PCM),
/// so *imbalance* — a few rows absorbing most writes — determines lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearStats {
    /// Distinct rows ever written.
    pub rows_written: u64,
    /// Total row-write events.
    pub total_writes: u64,
    /// Writes absorbed by the most-written row.
    pub max_row_writes: u64,
    /// `max / mean` — 1.0 is perfectly level wear; large values mean a few
    /// hot rows will fail early.
    pub imbalance: f64,
}

/// A banked DRAM or NVM device with row-buffer timing.
///
/// See the [module documentation](self) for the model. All addresses are
/// *hardware* addresses ([`HwAddr`]): the caller (a memory controller) has
/// already translated physical addresses.
#[derive(Debug, Clone)]
pub struct Device {
    timing: Timing,
    banks: Vec<Bank>,
    stats: DeviceStats,
    /// Per-row write counts (sparse), for endurance analysis. Kept for NVM
    /// only: DRAM cells do not wear out, so a DRAM device leaves it empty.
    row_writes: FxHashMap<u64, u64>,
}

impl Device {
    /// Creates a device of `kind` with Table 2's latencies and the given
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero banks.
    pub fn new(kind: DeviceKind, geometry: DeviceGeometry) -> Self {
        assert!(geometry.total_banks() > 0, "device must have at least one bank");
        let (hit_ns, clean_miss_ns, dirty_miss_ns) = match kind {
            DeviceKind::Dram => (DRAM_ROW_HIT_NS, DRAM_ROW_MISS_NS, DRAM_ROW_MISS_NS),
            DeviceKind::Nvm => (NVM_ROW_HIT_NS, NVM_CLEAN_MISS_NS, NVM_DIRTY_MISS_NS),
        };
        Self {
            timing: Timing {
                kind,
                hit_lat: Cycle::from_ns(hit_ns),
                clean_miss_lat: Cycle::from_ns(clean_miss_ns),
                dirty_miss_lat: Cycle::from_ns(dirty_miss_ns),
            },
            banks: vec![Bank::default(); geometry.total_banks() as usize],
            stats: DeviceStats::default(),
            // Pre-sized for NVM: one entry per written row accrues from the
            // first access on; growing from empty showed up as rehash churn.
            row_writes: match kind {
                DeviceKind::Dram => FxHashMap::default(),
                DeviceKind::Nvm => FxHashMap::with_capacity_and_hasher(1024, Default::default()),
            },
        }
    }

    /// The device technology.
    pub fn kind(&self) -> DeviceKind {
        self.timing.kind
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Services one access of `bytes` bytes starting at `addr`, arriving at
    /// `now`. Returns the completion cycle.
    ///
    /// Latency and bank occupancy are accounted separately, as in real
    /// DDR3: the *completion* of an access pays the row hit/miss latency
    /// plus the pipelined transfer of `ceil(bytes/64)` bursts, but the bank
    /// is only *occupied* for the activation work (on a miss) and the data
    /// transfer — successive open-row accesses stream at the burst rate
    /// (~12.8 GB/s per bank at DDR3-1600), not one full access latency
    /// each.
    pub fn access(&mut self, addr: HwAddr, kind: AccessKind, bytes: u32, now: Cycle) -> Cycle {
        assert!(bytes > 0, "device access must move at least one byte");
        let (bank, row) = bank_and_row(addr, self.banks.len());
        let done = self.timing.step(&mut self.banks[bank], &mut self.stats, row, kind, bytes, now);
        self.note_wear(row, kind, 1);
        done
    }

    /// Services `[addr, addr + bytes)` as one access per 64 B block it
    /// touches — the first and last may be partial — all arriving at `now`,
    /// back to back in address order, and hands `done` the completions of
    /// each row's blocks as one [`BlockRun`], rows in address order. The
    /// completions, bank state and statistics are exactly those of one
    /// [`Device::access`] per block.
    ///
    /// Only a row's first block takes the general step. Every later block
    /// is a row hit, one burst long, on a bank the block before still
    /// occupies, so it starts when that block's burst ends: block `k`
    /// (`k ≥ 2`) completes at `busy₁ + (k−2)·burst + hit`, where `busy₁` is
    /// the bank's busy time after the first block. The first block is one
    /// burst long too, so it completes one burst before the second, and
    /// the row's completions step by one burst from the first. The bank,
    /// the statistics and the wear then advance by the block count at once.
    /// The address is mapped once per row (a page-sized run stays in one
    /// row whenever the row size is a multiple of the page).
    pub fn access_blocks(
        &mut self,
        addr: HwAddr,
        kind: AccessKind,
        bytes: u32,
        now: Cycle,
        mut done: impl FnMut(BlockRun),
    ) {
        assert!(bytes > 0, "device access must move at least one byte");
        let (mut at, end) = (addr.raw(), addr.raw() + u64::from(bytes));
        while at < end {
            let (b, row) = bank_and_row(HwAddr::new(at), self.banks.len());
            let row_end = end.min((row + 1) * ROW_BYTES);
            let head = (BLOCK_BYTES - at % BLOCK_BYTES).min(row_end - at);
            let bank = &mut self.banks[b];
            let first = self.timing.step(bank, &mut self.stats, row, kind, head as u32, now);
            let rest = row_end - at - head;
            let hits = rest.div_ceil(BLOCK_BYTES);
            Timing::hits(bank, &mut self.stats, kind, rest, hits);
            done(BlockRun { first, step: Cycle::from_ns(BURST_NS), count: 1 + hits });
            self.note_wear(row, kind, 1 + hits);
            at = row_end;
        }
    }

    /// Counts `n` writes to `row` for [`Device::wear`]: NVM only, since
    /// DRAM cells do not wear out.
    fn note_wear(&mut self, row: u64, kind: AccessKind, n: u64) {
        if kind.is_write() && self.timing.kind == DeviceKind::Nvm {
            *self.row_writes.entry(row).or_insert(0) += n;
        }
    }

    /// The earliest cycle at which every bank is idle — i.e. the completion
    /// time of all accepted work.
    pub fn idle_at(&self) -> Cycle {
        self.banks.iter().map(|b| b.busy_until).max().unwrap_or(Cycle::ZERO)
    }

    /// Resets all bank state and timing (used by crash modeling: a power
    /// cycle leaves row buffers closed). Statistics are preserved.
    pub fn power_cycle(&mut self) {
        for bank in &mut self.banks {
            *bank = Bank::default();
        }
    }

    /// Endurance summary of an NVM device: how evenly write traffic
    /// spreads over its rows. A DRAM device tracks no wear (its cells do
    /// not wear out), so its summary is all zeros.
    pub fn wear(&self) -> WearStats {
        let rows_written = self.row_writes.len() as u64;
        let total_writes: u64 = self.row_writes.values().sum();
        let max_row_writes = self.row_writes.values().copied().max().unwrap_or(0);
        let imbalance = if rows_written == 0 {
            0.0
        } else {
            max_row_writes as f64 / (total_writes as f64 / rows_written as f64)
        };
        WearStats { rows_written, total_writes, max_row_writes, imbalance }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thynvm_types::SystemConfig;

    fn dram() -> Device {
        let cfg = SystemConfig::paper();
        Device::new(DeviceKind::Dram, cfg.dram_geometry)
    }

    fn nvm() -> Device {
        let cfg = SystemConfig::paper();
        Device::new(DeviceKind::Nvm, cfg.nvm_geometry)
    }

    #[test]
    fn dram_first_access_is_row_miss() {
        let mut d = dram();
        let done = d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        assert_eq!(done, Cycle::from_ns(80));
        assert_eq!(d.stats().row_misses, 1);
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn dram_second_access_same_row_is_hit() {
        let mut d = dram();
        let t1 = d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        let t2 = d.access(HwAddr::new(64), AccessKind::Read, 64, t1);
        assert_eq!(t2 - t1, Cycle::from_ns(40));
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn nvm_clean_then_dirty_miss() {
        let mut d = nvm();
        // Open row 0 with a write -> row becomes dirty.
        let t1 = d.access(HwAddr::new(0), AccessKind::Write, 64, Cycle::ZERO);
        assert_eq!(t1, Cycle::from_ns(128)); // clean miss (row buffer empty)
        // Access a different row on the same bank: row 0 and row 8 map to the
        // same bank with 8 banks (row-interleaved).
        let same_bank_other_row = HwAddr::new(8 * ROW_BYTES);
        let t2 = d.access(same_bank_other_row, AccessKind::Read, 64, t1);
        assert_eq!(t2 - t1, Cycle::from_ns(368)); // dirty miss
        assert_eq!(d.stats().dirty_row_misses, 1);
    }

    #[test]
    fn nvm_read_does_not_dirty_row() {
        let mut d = nvm();
        let t1 = d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        let t2 = d.access(HwAddr::new(8 * ROW_BYTES), AccessKind::Read, 64, t1);
        assert_eq!(t2 - t1, Cycle::from_ns(128)); // clean miss, not dirty
        assert_eq!(d.stats().dirty_row_misses, 0);
    }

    #[test]
    fn bank_conflict_serializes_at_burst_rate() {
        let mut d = dram();
        // Two accesses to the same bank, same row, issued at the same time:
        // the second starts once the first's activation + transfer occupy
        // the bank (pipelined open-row streaming), completing one burst
        // after data for the first became available minus the overlap.
        let t1 = d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        assert_eq!(t1, Cycle::from_ns(80)); // miss latency
        let t2 = d.access(HwAddr::new(128), AccessKind::Read, 64, Cycle::ZERO);
        // Occupancy of the miss: activation (80-40) + one burst (5) = 45 ns;
        // the hit then takes its 40 ns latency.
        assert_eq!(t2, Cycle::from_ns(45 + 40));
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut d = dram();
        let t1 = d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        // Next row maps to the next bank: starts immediately.
        let t2 = d.access(HwAddr::new(ROW_BYTES), AccessKind::Read, 64, Cycle::ZERO);
        assert_eq!(t1, t2);
    }

    #[test]
    fn large_access_streams_bursts() {
        let mut d = dram();
        // 4 KiB page write = 64 bursts: row miss + 63 extra bursts.
        let done = d.access(HwAddr::new(0), AccessKind::Write, 4096, Cycle::ZERO);
        assert_eq!(done, Cycle::from_ns(80 + 63 * BURST_NS));
        assert_eq!(d.stats().write_bytes, 4096);
    }

    #[test]
    fn idle_at_tracks_bank_occupancy() {
        let mut d = dram();
        assert_eq!(d.idle_at(), Cycle::ZERO);
        let t1 = d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        // The bank frees after activation + burst, before the data's
        // completion latency has fully elapsed.
        assert_eq!(d.idle_at(), Cycle::from_ns(45));
        assert!(d.idle_at() <= t1);
    }

    #[test]
    fn power_cycle_closes_rows_but_keeps_stats() {
        let mut d = nvm();
        d.access(HwAddr::new(0), AccessKind::Write, 64, Cycle::ZERO);
        let writes = d.stats().writes;
        d.power_cycle();
        assert_eq!(d.stats().writes, writes);
        // After a power cycle the next access to the same row is a miss again.
        let t = d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        assert_eq!(t, Cycle::from_ns(128));
    }

    #[test]
    fn row_hit_rate() {
        let mut d = dram();
        let mut now = Cycle::ZERO;
        for i in 0..10 {
            now = d.access(HwAddr::new(i * 64), AccessKind::Read, 64, now);
        }
        // 1 miss + 9 hits.
        assert!((d.stats().row_hit_rate() - 0.9).abs() < 1e-9);
        assert_eq!(DeviceStats::default().row_hit_rate(), 0.0);
    }

    #[test]
    fn kind_names() {
        assert_eq!(DeviceKind::Dram.as_str(), "DRAM");
        assert_eq!(DeviceKind::Nvm.as_str(), "NVM");
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_access_panics() {
        dram().access(HwAddr::new(0), AccessKind::Read, 0, Cycle::ZERO);
    }

    #[test]
    fn busy_cycles_count_occupancy_not_latency() {
        let mut d = dram();
        d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        // Row miss: activation (40) + one burst (5).
        assert_eq!(d.stats().busy_cycles, Cycle::from_ns(45));
        // An open-row hit only occupies the bank for its burst.
        d.access(HwAddr::new(64), AccessKind::Read, 64, Cycle::from_ns(80));
        assert_eq!(d.stats().busy_cycles, Cycle::from_ns(50));
    }

    #[test]
    fn wear_tracks_row_write_distribution() {
        let mut d = nvm();
        // 9 writes to row 0, 1 write to row 1: mean 5, max 9.
        let mut now = Cycle::ZERO;
        for _ in 0..9 {
            now = d.access(HwAddr::new(0), AccessKind::Write, 64, now);
        }
        d.access(HwAddr::new(ROW_BYTES), AccessKind::Write, 64, now);
        let w = d.wear();
        assert_eq!(w.rows_written, 2);
        assert_eq!(w.total_writes, 10);
        assert_eq!(w.max_row_writes, 9);
        assert!((w.imbalance - 1.8).abs() < 1e-9, "imbalance {}", w.imbalance);
    }

    #[test]
    fn wear_of_untouched_device_is_zero() {
        let mut d = nvm();
        d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        let w = d.wear();
        assert_eq!(w, WearStats::default());
    }

    #[test]
    fn dram_tracks_no_wear_while_nvm_counts_its_row_writes() {
        let (mut d, mut n) = (dram(), nvm());
        let mut now = Cycle::ZERO;
        for i in 0..10u64 {
            now = d.access(HwAddr::new(i * 64), AccessKind::Write, 64, now);
            now = n.access(HwAddr::new(i * 64), AccessKind::Write, 64, now);
        }
        d.access_blocks(HwAddr::new(0), AccessKind::Write, 4096, now, |_| {});
        assert_eq!(d.stats().writes, 74);
        assert_eq!(d.wear(), WearStats::default());
        assert_eq!(n.wear().total_writes, 10);
    }

    /// `access_blocks` against one `access` per block on a clone of the
    /// device: a random prior bank state, then `bytes` from `start`
    /// (possibly unaligned) split at 64 B boundaries, all issued at `now`.
    fn blocks_match_single_accesses(
        mut d: Device,
        prior: &[(u64, bool, u32, u64)],
        start: u64,
        bytes: u32,
        write: bool,
        now: u64,
        probe: (u64, bool),
    ) -> Result<(), String> {
        let kind_of = |w: bool| if w { AccessKind::Write } else { AccessKind::Read };
        let mut t = Cycle::ZERO;
        for &(row, w, len, gap) in prior {
            t = d.access(HwAddr::new(row * ROW_BYTES), kind_of(w), len, t + Cycle::new(gap));
        }
        let (now, kind) = (Cycle::new(now), kind_of(write));
        let mut reference = d.clone();
        let mut expected = Vec::new();
        let (mut at, end) = (start, start + u64::from(bytes));
        while at < end {
            let chunk = (BLOCK_BYTES - at % BLOCK_BYTES).min(end - at);
            expected.push(reference.access(HwAddr::new(at), kind, chunk as u32, now));
            at += chunk;
        }
        let mut got = Vec::new();
        d.access_blocks(HwAddr::new(start), kind, bytes, now, |run| {
            got.extend((0..run.count).map(|k| run.at(k)));
        });
        proptest::prop_assert_eq!(&got, &expected);
        proptest::prop_assert_eq!(d.stats(), reference.stats());
        proptest::prop_assert_eq!(d.idle_at(), reference.idle_at());
        proptest::prop_assert_eq!(d.wear(), reference.wear());
        let probe_addr = HwAddr::new(probe.0 * ROW_BYTES);
        let after = now + Cycle::new(7);
        proptest::prop_assert_eq!(
            d.access(probe_addr, kind_of(probe.1), 64, after),
            reference.access(probe_addr, kind_of(probe.1), 64, after)
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn access_blocks_equals_one_access_per_block(
            kinds in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
            prior in proptest::collection::vec((0u64..24, proptest::prelude::any::<bool>(), 1u32..4097, 0u64..400), 0..24),
            shape in (0u64..24, 1u64..65, 0u64..128, 0u64..64, 0u64..64),
            now in 0u64..6000,
            probe_row in 0u64..24,
        ) {
            let (nvm_device, write, probe_write) = kinds;
            let (row, blocks, first, lead, trim) = shape;
            let d = if nvm_device { nvm() } else { dram() };
            let row_blocks = ROW_BYTES / BLOCK_BYTES;
            // 1–64 blocks inside one row, the first entered at `lead`, the
            // last left up to `trim` bytes short (at least one byte touched).
            let first = first % (row_blocks - blocks + 1);
            let lo = ((blocks - 1) * BLOCK_BYTES + 1).saturating_sub(lead).max(1);
            let hi = blocks * BLOCK_BYTES - lead;
            let bytes = (hi - trim.min(hi - lo)) as u32;
            let start = row * ROW_BYTES + first * BLOCK_BYTES + lead;
            blocks_match_single_accesses(d, &prior, start, bytes, write, now, (probe_row, probe_write))?;
        }
    }

    #[test]
    fn access_blocks_remaps_when_a_run_crosses_a_row() {
        // 24 banks: not a power of two, so the fold takes the modulo path.
        let geometry = DeviceGeometry { channels: 3 };
        for kind in [DeviceKind::Dram, DeviceKind::Nvm] {
            let start = ROW_BYTES - 1000;
            blocks_match_single_accesses(Device::new(kind, geometry), &[], start, 10_000, true, 0, (1, false))
                .expect("a run over three rows equals one access per block");
        }
    }

    #[test]
    fn bank_fold_interleaves_rows_over_banks() {
        for banks in [8usize, 16, 24] {
            for row in [0u64, 1, 7, 8, 15, 16, 23, 24, 25, 1000] {
                let base = row * ROW_BYTES;
                let (bank, r) = bank_and_row(HwAddr::new(base), banks);
                assert_eq!((bank, r), ((row % banks as u64) as usize, row), "{banks} banks, row {row}");
                // Every byte of the row's first line, and of the rest of
                // the row, folds to the same bank and row.
                for off in [1, 63, 64, ROW_BYTES / 2, ROW_BYTES - 64, ROW_BYTES - 1] {
                    assert_eq!(bank_and_row(HwAddr::new(base + off), banks), (bank, row));
                }
                // The next row goes to the next bank, wrapping at the count.
                assert_eq!(bank_and_row(HwAddr::new(base + ROW_BYTES), banks), ((bank + 1) % banks, row + 1));
            }
        }
        // A mask of 23 would fold rows 8 and 24 of 24 banks to banks 0 and
        // 16; the modulo gives 8 and 0.
        assert_eq!(bank_and_row(HwAddr::new(8 * ROW_BYTES), 24).0, 8);
        assert_eq!(bank_and_row(HwAddr::new(24 * ROW_BYTES), 24).0, 0);
    }

    #[test]
    fn level_wear_has_unit_imbalance() {
        let mut d = nvm();
        let mut now = Cycle::ZERO;
        for r in 0..8u64 {
            now = d.access(HwAddr::new(r * ROW_BYTES), AccessKind::Write, 64, now);
        }
        assert!((d.wear().imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn writes_after_power_loss_are_row_misses_everywhere() {
        let mut d = nvm();
        let mut now = Cycle::ZERO;
        for b in 0..4u64 {
            now = d.access(HwAddr::new(b * ROW_BYTES), AccessKind::Write, 64, now);
        }
        d.power_cycle();
        let before = d.stats().row_misses;
        let mut now = Cycle::ZERO;
        for b in 0..4u64 {
            now = d.access(HwAddr::new(b * ROW_BYTES), AccessKind::Read, 64, now);
        }
        assert_eq!(d.stats().row_misses, before + 4);
    }
}
