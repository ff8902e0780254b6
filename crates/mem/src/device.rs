//! Banked memory-device timing model.
//!
//! Each device (DRAM or NVM) consists of `channels × banks_per_channel`
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
    AccessKind, Cycle, DeviceGeometry, FxHashMap, HwAddr, DRAM_ROW_HIT_NS, DRAM_ROW_MISS_NS,
    NVM_CLEAN_MISS_NS, NVM_DIRTY_MISS_NS, NVM_ROW_HIT_NS,
};

/// Additional data-transfer time per extra 64 B burst, in nanoseconds
/// (DDR3-1600: 8 beats × 0.625 ns ≈ 5 ns per 64 B burst).
pub const BURST_NS: u64 = 5;

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

#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
    row_dirty: bool,
    busy_until: Cycle,
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
    kind: DeviceKind,
    geometry: DeviceGeometry,
    banks: Vec<Bank>,
    stats: DeviceStats,
    /// Per-row write counts (sparse), for endurance analysis.
    row_writes: FxHashMap<u64, u64>,
    /// `log2(row_bytes)` when the row size is a power of two, so the
    /// per-access address split is a shift instead of a 64-bit divide.
    row_shift: Option<u32>,
    /// `total_banks - 1` when the bank count is a power of two, so the
    /// bank fold is a mask instead of a 64-bit modulo.
    bank_mask: Option<u64>,
    /// Row-hit latency, resolved from Table 2's nanoseconds once at
    /// construction so the per-access path does no ns→cycle conversions.
    hit_lat: Cycle,
    /// Clean row-miss latency (row buffer empty or clean).
    clean_miss_lat: Cycle,
    /// Dirty row-miss latency; equals the plain miss latency for DRAM,
    /// which has no writeback asymmetry.
    dirty_miss_lat: Cycle,
}

impl Device {
    /// Creates a device of `kind` with Table 2's latencies and the given
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero banks or a zero-byte row.
    pub fn new(kind: DeviceKind, geometry: DeviceGeometry) -> Self {
        assert!(geometry.total_banks() > 0, "device must have at least one bank");
        assert!(geometry.row_bytes > 0, "row size must be nonzero");
        let (hit_ns, clean_miss_ns, dirty_miss_ns) = match kind {
            DeviceKind::Dram => (DRAM_ROW_HIT_NS, DRAM_ROW_MISS_NS, DRAM_ROW_MISS_NS),
            DeviceKind::Nvm => (NVM_ROW_HIT_NS, NVM_CLEAN_MISS_NS, NVM_DIRTY_MISS_NS),
        };
        Self {
            kind,
            geometry,
            banks: vec![Bank::default(); geometry.total_banks() as usize],
            stats: DeviceStats::default(),
            // Pre-sized: one entry per written row accrues from the first
            // access on; growing from empty showed up as rehash churn.
            row_writes: FxHashMap::with_capacity_and_hasher(1024, Default::default()),
            row_shift: geometry.row_bytes.is_power_of_two().then(|| geometry.row_bytes.trailing_zeros()),
            bank_mask: geometry
                .total_banks()
                .is_power_of_two()
                .then(|| u64::from(geometry.total_banks()) - 1),
            hit_lat: Cycle::from_ns(hit_ns),
            clean_miss_lat: Cycle::from_ns(clean_miss_ns),
            dirty_miss_lat: Cycle::from_ns(dirty_miss_ns),
        }
    }

    /// The device technology.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// The device geometry.
    pub fn geometry(&self) -> DeviceGeometry {
        self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Maps an address to `(bank index, row id)`.
    ///
    /// Rows are interleaved across banks so that consecutive rows live in
    /// different banks (row-interleaving), while accesses within one row
    /// stay in one bank and enjoy row-buffer locality.
    fn map(&self, addr: HwAddr) -> (usize, u64) {
        let row = match self.row_shift {
            Some(shift) => addr.raw() >> shift,
            None => addr.raw() / self.geometry.row_bytes,
        };
        let bank = match self.bank_mask {
            Some(mask) => (row & mask) as usize,
            None => (row % u64::from(self.geometry.total_banks())) as usize,
        };
        (bank, row)
    }

    /// Latency of the row activation for this access, given bank state.
    /// DRAM's dirty-miss latency equals its clean-miss latency, so the
    /// dirty branch is technology-agnostic here.
    fn row_latency(&self, bank: &Bank, row: u64) -> (Cycle, bool) {
        if bank.open_row == Some(row) {
            (self.hit_lat, true)
        } else if bank.row_dirty && bank.open_row.is_some() {
            (self.dirty_miss_lat, false)
        } else {
            (self.clean_miss_lat, false)
        }
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
        let (bank_idx, row) = self.map(addr);
        let (row_lat, hit) = self.row_latency(&self.banks[bank_idx], row);
        let hit_lat = self.hit_lat;

        let bursts = u64::from(bytes).div_ceil(64);
        let transfer = Cycle::from_ns(BURST_NS * bursts);
        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.busy_until);
        // Completion: latency of the first word + pipelined rest.
        let done = start + row_lat + Cycle::from_ns(BURST_NS * bursts.saturating_sub(1));
        // Occupancy: activation (miss only) + transfer.
        let occupancy = if hit { transfer } else { (row_lat - hit_lat) + transfer };

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
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
            if self.kind == DeviceKind::Nvm && was_dirty {
                self.stats.dirty_row_misses += 1;
            }
        }
        match kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                self.stats.read_bytes += u64::from(bytes);
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                self.stats.write_bytes += u64::from(bytes);
                *self.row_writes.entry(row).or_insert(0) += 1;
            }
        }
        self.stats.busy_cycles += occupancy;

        done
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

    /// Endurance summary: how evenly write traffic spreads over rows.
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
        let row_bytes = d.geometry().row_bytes;
        let same_bank_other_row = HwAddr::new(8 * row_bytes);
        let t2 = d.access(same_bank_other_row, AccessKind::Read, 64, t1);
        assert_eq!(t2 - t1, Cycle::from_ns(368)); // dirty miss
        assert_eq!(d.stats().dirty_row_misses, 1);
    }

    #[test]
    fn nvm_read_does_not_dirty_row() {
        let mut d = nvm();
        let row_bytes = d.geometry().row_bytes;
        let t1 = d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        let t2 = d.access(HwAddr::new(8 * row_bytes), AccessKind::Read, 64, t1);
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
        let row_bytes = d.geometry().row_bytes;
        let t1 = d.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
        // Next row maps to the next bank: starts immediately.
        let t2 = d.access(HwAddr::new(row_bytes), AccessKind::Read, 64, Cycle::ZERO);
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
        let row_bytes = d.geometry().row_bytes;
        // 9 writes to row 0, 1 write to row 1: mean 5, max 9.
        let mut now = Cycle::ZERO;
        for _ in 0..9 {
            now = d.access(HwAddr::new(0), AccessKind::Write, 64, now);
        }
        d.access(HwAddr::new(row_bytes), AccessKind::Write, 64, now);
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
    fn level_wear_has_unit_imbalance() {
        let mut d = nvm();
        let row_bytes = d.geometry().row_bytes;
        let mut now = Cycle::ZERO;
        for r in 0..8u64 {
            now = d.access(HwAddr::new(r * row_bytes), AccessKind::Write, 64, now);
        }
        assert!((d.wear().imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn writes_after_power_loss_are_row_misses_everywhere() {
        let mut d = nvm();
        let row_bytes = d.geometry().row_bytes;
        let mut now = Cycle::ZERO;
        for b in 0..4u64 {
            now = d.access(HwAddr::new(b * row_bytes), AccessKind::Write, 64, now);
        }
        d.power_cycle();
        let before = d.stats().row_misses;
        let mut now = Cycle::ZERO;
        for b in 0..4u64 {
            now = d.access(HwAddr::new(b * row_bytes), AccessKind::Read, 64, now);
        }
        assert_eq!(d.stats().row_misses, before + 4);
    }
}
