//! Content-carrying volatile persist buffer (WPQ) for the NVM device.
//!
//! The memory controller's write-pending queue is *volatile*: a write that
//! was acknowledged to the issuer is not durable until the device actually
//! retires it into the NVM array. [`crate::queue::WriteQueue`] models the
//! timing of that window; this module models its *fault domain* — which
//! bytes survive a crash that lands inside it.
//!
//! Writes enter the buffer as `(addr, data, retire_cycle)` entries and only
//! become durable in the buffer's sink [`SparseStore`] when they drain.
//! Draining is out of order **across banks** (each bank retires its own
//! queue independently, mirroring per-bank `busy_until` in
//! [`crate::device::Device`]) but in order **within a bank** — and therefore
//! within a 64 B line, because the buffer takes each address's bank from
//! the device's own address→bank fold, so two writes to the same line
//! always share a bank and their per-bank retire times are clamped
//! monotone.
//!
//! [`PersistBuffer::fence`] is the §4.4 ordering primitive: it stalls the
//! issuer until every pending entry has retired, so anything enqueued after
//! the fence (e.g. a checkpoint commit record) is guaranteed to retire no
//! earlier than everything before it. [`PersistBuffer::crash`] applies the
//! partial-flush model: entries already retired are durable, and of the
//! in-flight remainder each bank salvages a seeded, deterministic,
//! retire-consistent *prefix* (hardware flushes queues front-to-back on the
//! residual energy of a dying power supply — it never skips ahead). The
//! result is genuinely torn, reordered persist state for recovery to face.

use std::collections::VecDeque;

use thynvm_types::{rng, Cycle, DeviceGeometry, HwAddr, PersistBufferConfig, WpqStats};

use crate::device::bank_and_row;
use crate::store::SparseStore;

/// What an entry in the persist buffer represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WpqKind {
    /// Ordinary data: checkpoint payload, WAL payload, working writeback.
    Data,
    /// A checkpoint commit record (or equivalent seal). Whether one of
    /// these survives a crash decides early-commit vs. rollback, so
    /// [`WpqCrashReport`] tracks markers separately from data.
    CommitMarker,
}

/// One pending write in the persist buffer.
#[derive(Debug, Clone)]
struct WpqEntry {
    /// Hardware (post-translation) address of the write.
    addr: HwAddr,
    /// Payload bytes; empty for timing-only entries enqueued by callers
    /// that do not have the data at hand (the sink is untouched then).
    data: Vec<u8>,
    /// Cycle the issuer enqueued the write.
    issue: Cycle,
    /// Cycle the device retires the write (durability point).
    retire: Cycle,
    kind: WpqKind,
}

/// Outcome of [`PersistBuffer::crash`]: how the partial flush resolved
/// every entry that was pending when power failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WpqCrashReport {
    /// Entries durable at the crash: retired before it, plus salvaged.
    pub drained: u64,
    /// Of `drained`, how many were salvaged by the partial flush (still
    /// in flight at the crash cycle but written out on residual energy).
    pub salvaged: u64,
    /// Entries lost: in flight and not salvaged, or issued after the
    /// crash cycle (unwound — they never reached the controller).
    pub dropped: u64,
    /// Of `dropped`, how many were [`WpqKind::Data`] entries.
    pub data_dropped: u64,
    /// A [`WpqKind::CommitMarker`] was salvaged by the partial flush.
    pub marker_salvaged: bool,
    /// A [`WpqKind::CommitMarker`] was dropped.
    pub marker_dropped: bool,
}

impl WpqCrashReport {
    /// The conservative early-commit rule: the in-flight checkpoint may be
    /// treated as committed only if its commit marker became durable *and*
    /// no data entry was lost at this crash — a marker that outran dropped
    /// payload would commit a torn image (exactly the hazard §4.4 fences
    /// exist to prevent).
    pub fn commit_salvaged(&self) -> bool {
        self.marker_salvaged && self.data_dropped == 0
    }
}

/// Bounded, banked, content-carrying volatile persist buffer.
///
/// See the [module documentation](self) for the model.
///
/// # Example
///
/// ```
/// use thynvm_mem::{PersistBuffer, WpqKind};
/// use thynvm_types::{Cycle, DeviceGeometry, HwAddr, PersistBufferConfig};
///
/// let cfg = PersistBufferConfig::armed();
/// let mut wpq = PersistBuffer::new(cfg, DeviceGeometry::default());
/// wpq.push(HwAddr::new(0), b"ab", Cycle::ZERO, Cycle::new(100), WpqKind::Data);
/// // Not yet durable: the sink still reads zero.
/// let mut b = [0u8; 2];
/// wpq.sink().read(HwAddr::new(0), &mut b);
/// assert_eq!(&b, &[0, 0]);
/// // The fence stalls to the last retire and drains everything.
/// assert_eq!(wpq.fence(Cycle::new(10)), Cycle::new(100));
/// wpq.sink().read(HwAddr::new(0), &mut b);
/// assert_eq!(&b, b"ab");
/// ```
#[derive(Debug, Clone)]
pub struct PersistBuffer {
    cfg: PersistBufferConfig,
    /// Per-bank FIFO queues; retire times are nondecreasing within a bank.
    banks: Vec<VecDeque<WpqEntry>>,
    /// Durable image: drained entries' bytes land here.
    sink: SparseStore,
    stats: WpqStats,
    /// Entries currently pending across all banks.
    pending_total: usize,
    /// How many crashes this buffer has absorbed; salts the salvage stream
    /// so consecutive crashes see independent partial flushes.
    crash_ordinal: u64,
}

impl PersistBuffer {
    /// Maximum buffered entries across all banks before further enqueues
    /// exert back-pressure (the issuer stalls until the earliest pending
    /// entry retires).
    pub const CAPACITY: usize = 64;

    /// Creates a buffer with one queue per bank of the device geometry it
    /// shadows. Each address's bank comes from the device's own fold, so
    /// same-line writes share a bank and drain in order.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no banks.
    pub fn new(cfg: PersistBufferConfig, geometry: DeviceGeometry) -> Self {
        let total_banks = geometry.total_banks();
        assert!(total_banks > 0, "persist buffer needs at least one bank");
        Self {
            cfg,
            banks: (0..total_banks).map(|_| VecDeque::new()).collect(),
            sink: SparseStore::new(),
            stats: WpqStats::default(),
            pending_total: 0,
            crash_ordinal: 0,
        }
    }

    /// Durable image of everything drained so far.
    pub fn sink(&self) -> &SparseStore {
        &self.sink
    }

    /// Counters, including the conservation ledger
    /// `enqueued == drained + dropped_at_crash + outstanding`.
    pub fn stats(&self) -> &WpqStats {
        &self.stats
    }

    /// Entries pending (not yet retired) at time `now`, without draining.
    pub fn outstanding_at(&self, now: Cycle) -> usize {
        self.banks.iter().flatten().filter(|e| e.retire > now).count()
    }

    /// Pending [`WpqKind::Data`] entries at time `now` — the §4.4 audit:
    /// a commit record enqueued while this is nonzero is unfenced.
    pub fn outstanding_data_at(&self, now: Cycle) -> usize {
        self.banks
            .iter()
            .flatten()
            .filter(|e| e.retire > now && e.kind == WpqKind::Data)
            .count()
    }

    /// Whether the buffer holds no entries at all (regardless of time).
    pub fn is_idle(&self) -> bool {
        self.pending_total == 0
    }

    /// [`WpqKind::Data`] entries currently *held* by the buffer, whether
    /// or not their retire cycle has passed. A fence empties the buffer,
    /// so any held entry at a commit-record persist means the §4.4 fence
    /// was skipped — this is the audit's view, stricter than
    /// [`PersistBuffer::outstanding_data_at`].
    pub fn held_data(&self) -> usize {
        self.banks.iter().flatten().filter(|e| e.kind == WpqKind::Data).count()
    }

    /// Enqueues a write the device will retire at `retire`. Returns the
    /// cycle at which the *issuer* may proceed: `issue` if the buffer had
    /// room, or the earliest pending retire time if it was full (the
    /// issuer stalls until a slot frees up).
    ///
    /// The retire time is clamped monotone *per bank*, so writes to the
    /// same bank — and in particular to the same 64 B line — drain in
    /// enqueue order; the last write to a line wins in the sink.
    pub fn push(
        &mut self,
        addr: HwAddr,
        data: &[u8],
        issue: Cycle,
        retire: Cycle,
        kind: WpqKind,
    ) -> Cycle {
        self.drain_to(issue);
        let resume = if self.pending_total >= Self::CAPACITY {
            // Full: stall until the earliest in-flight entry retires. The
            // stall is charged to the same counter as fence stalls — the
            // ledger's `fence_stall_cycles` covers every cycle the issuer
            // spent waiting on the buffer, whichever primitive blocked it.
            let earliest = self
                .banks
                .iter()
                .filter_map(|b| b.front().map(|e| e.retire))
                .min()
                .expect("nonempty when full");
            self.drain_to(earliest);
            let resume = earliest.max(issue);
            self.stats.fence_stall_cycles += resume - issue;
            resume
        } else {
            issue
        };
        let (bank, _) = bank_and_row(addr, self.banks.len());
        let last = self.banks[bank].back().map_or(Cycle::ZERO, |e| e.retire);
        let retire = retire.max(last);
        // Reorder window: how many earlier-enqueued entries this write may
        // overtake (they sit in other banks with later retire times).
        let overtaken = self
            .banks
            .iter()
            .enumerate()
            .filter(|&(b, _)| b != bank)
            .flat_map(|(_, q)| q.iter())
            .filter(|e| e.retire > retire)
            .count() as u64;
        self.stats.reorder_window_max = self.stats.reorder_window_max.max(overtaken);
        self.banks[bank].push_back(WpqEntry { addr, data: data.to_vec(), issue, retire, kind });
        self.pending_total += 1;
        self.stats.enqueued += 1;
        resume
    }

    /// §4.4 ordering fence: stalls the issuer until every pending entry
    /// has retired into the sink. Returns the cycle at which the issuer
    /// may proceed (`now` if the buffer was already drained — an empty
    /// fence costs nothing).
    pub fn fence(&mut self, now: Cycle) -> Cycle {
        self.stats.fences += 1;
        let done = self
            .banks
            .iter()
            .filter_map(|b| b.back().map(|e| e.retire))
            .max()
            .map_or(now, |r| r.max(now));
        self.stats.fence_stall_cycles += done - now;
        self.drain_to(done);
        done
    }

    /// Retires every entry with `retire <= now` into the sink, in per-bank
    /// FIFO order (retire times are monotone within a bank, so this is a
    /// prefix pop).
    fn drain_to(&mut self, now: Cycle) {
        for bank in 0..self.banks.len() {
            while let Some(front) = self.banks[bank].front() {
                if front.retire > now {
                    break;
                }
                let e = self.banks[bank].pop_front().expect("front just observed");
                self.apply(&e);
            }
        }
    }

    fn apply(&mut self, e: &WpqEntry) {
        if !e.data.is_empty() {
            self.sink.write(e.addr, &e.data);
        }
        self.pending_total -= 1;
        self.stats.drained += 1;
    }

    /// Length of the salvaged prefix for one bank at one crash: a pure
    /// function of `(seed, ordinal, bank, salvage_rate)`, exposed so tests
    /// can pin that replaying a crash reproduces the exact same partial
    /// flush (prefix-replay determinism).
    pub fn salvage_prefix_len(
        seed: u64,
        ordinal: u64,
        bank: u64,
        salvage_rate: f64,
        pending: usize,
    ) -> usize {
        let mut state = rng::mix(rng::mix(seed, ordinal), bank);
        let mut n = 0;
        while n < pending && rng::unit(rng::next(&mut state)) < salvage_rate {
            n += 1;
        }
        n
    }

    /// Power failure at cycle `at`: the partial-flush model.
    ///
    /// 1. Entries with `retire <= at` had already reached the array — they
    ///    drain normally and are durable.
    /// 2. Entries with `issue > at` are unwound: simulated time ran ahead
    ///    of the crash point, so those writes never happened. They count
    ///    as dropped for ledger conservation.
    /// 3. Of each bank's remaining in-flight entries, a seeded,
    ///    deterministic, retire-order *prefix* is salvaged (flushed on
    ///    residual energy) and becomes durable; the suffix is lost.
    ///
    /// Empties the buffer and advances the crash ordinal so the next
    /// crash sees an independent salvage stream.
    pub fn crash(&mut self, at: Cycle) -> WpqCrashReport {
        let drained_before = self.stats.drained;
        self.drain_to(at);
        let mut report = WpqCrashReport {
            drained: self.stats.drained - drained_before,
            ..WpqCrashReport::default()
        };
        for bank in 0..self.banks.len() {
            let q = std::mem::take(&mut self.banks[bank]);
            // Unwind writes from the unreached future. Issue order within
            // a bank is NOT monotone — background checkpoint timelines run
            // ahead of foreground time, so a marker issued at a later cycle
            // can sit *in front of* a foreground write issued earlier.
            // Filter the whole queue (preserving the retire order of what
            // remains) rather than popping a back suffix, or a
            // never-issued entry could hide in the salvageable prefix.
            let mut reached: VecDeque<WpqEntry> = VecDeque::with_capacity(q.len());
            for e in q {
                if e.issue > at {
                    self.drop_entry(&e, &mut report);
                } else {
                    reached.push_back(e);
                }
            }
            let keep = Self::salvage_prefix_len(
                self.cfg.seed,
                self.crash_ordinal,
                bank as u64,
                self.cfg.salvage_rate,
                reached.len(),
            );
            for (i, e) in reached.iter().enumerate() {
                if i < keep {
                    self.apply(e);
                    report.drained += 1;
                    report.salvaged += 1;
                    if e.kind == WpqKind::CommitMarker {
                        report.marker_salvaged = true;
                    }
                } else {
                    self.drop_entry(e, &mut report);
                }
            }
        }
        debug_assert_eq!(self.pending_total, 0);
        self.crash_ordinal += 1;
        report
    }

    fn drop_entry(&mut self, e: &WpqEntry, report: &mut WpqCrashReport) {
        self.pending_total -= 1;
        self.stats.dropped_at_crash += 1;
        report.dropped += 1;
        match e.kind {
            WpqKind::Data => report.data_dropped += 1,
            WpqKind::CommitMarker => report.marker_dropped = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed() -> PersistBufferConfig {
        PersistBufferConfig::armed()
    }

    fn geom() -> DeviceGeometry {
        DeviceGeometry::default() // 8 banks
    }

    fn conservation_holds(w: &PersistBuffer) {
        let s = w.stats();
        assert_eq!(
            s.enqueued,
            s.drained + s.dropped_at_crash + s.outstanding(),
            "ledger must conserve: {s:?}"
        );
        assert_eq!(s.outstanding(), w.pending_total as u64);
    }

    #[test]
    fn entries_become_durable_only_when_drained() {
        let mut w = PersistBuffer::new(armed(), geom());
        w.push(HwAddr::new(0x40), b"payload", Cycle::ZERO, Cycle::new(100), WpqKind::Data);
        let mut buf = [0u8; 7];
        w.sink().read(HwAddr::new(0x40), &mut buf);
        assert_eq!(&buf, &[0; 7], "not durable before retire");
        assert_eq!(w.outstanding_at(Cycle::new(99)), 1);
        assert_eq!(w.outstanding_at(Cycle::new(100)), 0);
        // A later push observes the passage of time and drains it.
        w.push(HwAddr::new(0x8000), b"x", Cycle::new(150), Cycle::new(200), WpqKind::Data);
        w.sink().read(HwAddr::new(0x40), &mut buf);
        assert_eq!(&buf, b"payload");
        conservation_holds(&w);
    }

    #[test]
    fn zero_entry_fence_is_free() {
        let mut w = PersistBuffer::new(armed(), geom());
        assert_eq!(w.fence(Cycle::new(42)), Cycle::new(42));
        assert_eq!(w.stats().fences, 1);
        assert_eq!(w.stats().fence_stall_cycles, Cycle::ZERO);
        conservation_holds(&w);
    }

    #[test]
    fn fence_stalls_to_last_retire_and_drains_everything() {
        let mut w = PersistBuffer::new(armed(), geom());
        w.push(HwAddr::new(0), b"a", Cycle::ZERO, Cycle::new(300), WpqKind::Data);
        w.push(HwAddr::new(8192), b"b", Cycle::ZERO, Cycle::new(150), WpqKind::Data);
        assert_eq!(w.fence(Cycle::new(100)), Cycle::new(300));
        assert_eq!(w.stats().fence_stall_cycles, Cycle::new(200));
        assert!(w.is_idle());
        let mut b = [0u8; 1];
        w.sink().read(HwAddr::new(8192), &mut b);
        assert_eq!(&b, b"b");
        conservation_holds(&w);
    }

    #[test]
    fn crash_with_empty_buffer_reports_nothing() {
        let mut w = PersistBuffer::new(armed(), geom());
        let r = w.crash(Cycle::new(500));
        assert_eq!(r, WpqCrashReport::default());
        assert!(!r.commit_salvaged());
        conservation_holds(&w);
    }

    #[test]
    fn full_buffer_back_pressures_the_issuer() {
        let mut w = PersistBuffer::new(armed(), geom());
        // Fill every slot, one row per entry so the entries spread over
        // all banks; the earliest retires at cycle 100.
        for i in 0..PersistBuffer::CAPACITY as u64 {
            let retire = Cycle::new(100 + 10 * i);
            let resume = w.push(HwAddr::new(i * 8192), b"a", Cycle::ZERO, retire, WpqKind::Data);
            assert_eq!(resume, Cycle::ZERO, "entry {i} fits");
        }
        // Full: the next push stalls until the earliest entry retires
        // (cycle 100), which frees its slot.
        assert_eq!(
            w.push(HwAddr::new(64), b"c", Cycle::new(10), Cycle::new(5_000), WpqKind::Data),
            Cycle::new(100)
        );
        assert_eq!(w.pending_total, PersistBuffer::CAPACITY);
        // The back-pressure stall (cycle 10 → 100) is charged to the
        // ledger's stall counter, same as a fence stall would be.
        assert_eq!(w.stats().fence_stall_cycles, Cycle::new(90));
        conservation_holds(&w);
    }

    #[test]
    fn unwind_removes_future_issued_entries_anywhere_in_the_bank() {
        // Background checkpoint timelines run ahead of foreground time, so
        // per-bank issue order is not monotone: a commit marker issued at
        // cycle 1000 can sit *in front of* a foreground write issued at
        // cycle 500. A crash at cycle 600 must unwind the marker even
        // though it is not at the back of the queue — at salvage rate 1.0
        // a surviving marker would early-commit a checkpoint whose commit
        // record was never issued.
        let cfg = PersistBufferConfig { salvage_rate: 1.0, ..armed() };
        let mut w = PersistBuffer::new(cfg, geom());
        let line = HwAddr::new(0);
        w.push(line, &[], Cycle::new(1_000), Cycle::new(1_200), WpqKind::CommitMarker);
        w.push(line, b"f", Cycle::new(500), Cycle::new(1_300), WpqKind::Data);
        let r = w.crash(Cycle::new(600));
        assert!(r.marker_dropped && !r.marker_salvaged, "got {r:?}");
        assert!(!r.commit_salvaged(), "never-issued marker must not early-commit");
        assert_eq!(r.salvaged, 1, "the reached foreground write still salvages");
        assert_eq!(r.dropped, 1);
        assert_eq!(r.data_dropped, 0);
        let mut b = [0u8; 1];
        w.sink().read(line, &mut b);
        assert_eq!(&b, b"f", "salvage keeps the reached entries in order");
        conservation_holds(&w);
    }

    #[test]
    fn same_line_writes_share_a_bank_and_drain_in_order() {
        let mut w = PersistBuffer::new(armed(), geom());
        let line = HwAddr::new(0x1000);
        let banks = w.banks.len();
        assert_eq!(bank_and_row(line, banks), bank_and_row(HwAddr::new(0x103f), banks));
        // Out-of-order retire times: the second write's retire is clamped
        // monotone, so the older value can never overwrite the newer one.
        w.push(line, b"old", Cycle::ZERO, Cycle::new(400), WpqKind::Data);
        w.push(line, b"new", Cycle::ZERO, Cycle::new(100), WpqKind::Data);
        w.fence(Cycle::ZERO);
        let mut b = [0u8; 3];
        w.sink().read(line, &mut b);
        assert_eq!(&b, b"new", "last write to a line must win");
        conservation_holds(&w);
    }

    #[test]
    fn drain_is_out_of_order_across_banks() {
        let mut w = PersistBuffer::new(armed(), geom());
        // Bank 0 enqueued first but retires last; bank 1 overtakes it.
        w.push(HwAddr::new(0), b"slow", Cycle::ZERO, Cycle::new(1_000), WpqKind::Data);
        w.push(HwAddr::new(8192), b"fast", Cycle::ZERO, Cycle::new(50), WpqKind::Data);
        assert!(w.stats().reorder_window_max >= 1, "overtake must be observed");
        // At cycle 100 only the younger write is durable.
        w.push(HwAddr::new(16384), b"t", Cycle::new(100), Cycle::new(2_000), WpqKind::Data);
        let mut b = [0u8; 4];
        w.sink().read(HwAddr::new(8192), &mut b);
        assert_eq!(&b[..4], b"fast");
        w.sink().read(HwAddr::new(0), &mut b);
        assert_eq!(&b, &[0; 4], "older cross-bank write still in flight");
        conservation_holds(&w);
    }

    #[test]
    fn crash_salvages_a_deterministic_per_bank_prefix() {
        let cfg = PersistBufferConfig { salvage_rate: 0.5, ..armed() };
        let run = || {
            let mut w = PersistBuffer::new(cfg, geom());
            for i in 0..16u64 {
                let addr = HwAddr::new(i * 8192); // spread across all 8 banks
                w.push(addr, &[i as u8], Cycle::ZERO, Cycle::new(10_000 + i), WpqKind::Data);
            }
            let r = w.crash(Cycle::new(5)); // everything still in flight
            (r, w.sink().fingerprint())
        };
        let (r1, f1) = run();
        let (r2, f2) = run();
        assert_eq!(r1, r2, "same seed and ordinal must replay identically");
        assert_eq!(f1, f2, "salvaged bytes must replay identically");
        assert_eq!(r1.drained + r1.dropped, 16);
        assert_eq!(r1.salvaged, r1.drained, "nothing had retired before the crash");
    }

    #[test]
    fn salvage_prefix_is_replayable_and_ordinal_salted() {
        let n = PersistBuffer::salvage_prefix_len(7, 0, 3, 0.5, 32);
        assert_eq!(n, PersistBuffer::salvage_prefix_len(7, 0, 3, 0.5, 32));
        assert!(n <= 32);
        assert_eq!(PersistBuffer::salvage_prefix_len(7, 0, 3, 0.0, 32), 0);
        assert_eq!(PersistBuffer::salvage_prefix_len(7, 0, 3, 1.0, 32), 32);
        // Different ordinals or banks draw from independent streams: over
        // many draws at rate 0.5 they cannot all agree.
        let differs = (0..64u64).any(|o| {
            PersistBuffer::salvage_prefix_len(7, o, 3, 0.5, 32)
                != PersistBuffer::salvage_prefix_len(7, o + 1, 3, 0.5, 32)
        });
        assert!(differs, "crash ordinal must salt the salvage stream");
    }

    #[test]
    fn crash_unwinds_future_writes_for_conservation() {
        let cfg = PersistBufferConfig { salvage_rate: 0.0, ..armed() };
        let mut w = PersistBuffer::new(cfg, geom());
        w.push(HwAddr::new(0), b"a", Cycle::new(10), Cycle::new(100), WpqKind::Data);
        // Issued *after* the crash point: simulated time ran ahead. Its
        // push's lazy drain also retires the first entry into the sink.
        w.push(HwAddr::new(0), b"b", Cycle::new(900), Cycle::new(950), WpqKind::Data);
        let r = w.crash(Cycle::new(500));
        assert_eq!(r.drained, 0, "first entry retired before the crash, not at it");
        assert_eq!(r.dropped, 1, "future entry is unwound");
        assert_eq!(r.data_dropped, 1);
        let mut b = [0u8; 1];
        w.sink().read(HwAddr::new(0), &mut b);
        assert_eq!(&b, b"a", "the unwound write never reached the sink");
        conservation_holds(&w);
    }

    #[test]
    fn commit_marker_salvage_requires_zero_data_drops() {
        // rate 1.0: everything salvages — marker durable, no data lost.
        let cfg = PersistBufferConfig { salvage_rate: 1.0, ..armed() };
        let mut w = PersistBuffer::new(cfg, geom());
        w.push(HwAddr::new(0), b"d", Cycle::ZERO, Cycle::new(100), WpqKind::Data);
        w.push(HwAddr::new(64), &[], Cycle::ZERO, Cycle::new(120), WpqKind::CommitMarker);
        let r = w.crash(Cycle::new(5));
        assert!(r.marker_salvaged && r.data_dropped == 0 && r.commit_salvaged());

        // rate 0.0: nothing salvages — marker dropped, no early commit.
        let cfg = PersistBufferConfig { salvage_rate: 0.0, ..armed() };
        let mut w = PersistBuffer::new(cfg, geom());
        w.push(HwAddr::new(0), b"d", Cycle::ZERO, Cycle::new(100), WpqKind::Data);
        w.push(HwAddr::new(64), &[], Cycle::ZERO, Cycle::new(120), WpqKind::CommitMarker);
        let r = w.crash(Cycle::new(5));
        assert!(r.marker_dropped && !r.commit_salvaged());

        // Marker salvaged but a *different bank's* data dropped: the
        // conservative rule refuses the early commit.
        let torn = WpqCrashReport {
            marker_salvaged: true,
            data_dropped: 1,
            ..WpqCrashReport::default()
        };
        assert!(!torn.commit_salvaged());
    }

    #[test]
    fn outstanding_data_ignores_markers() {
        let mut w = PersistBuffer::new(armed(), geom());
        w.push(HwAddr::new(0), &[], Cycle::ZERO, Cycle::new(100), WpqKind::CommitMarker);
        assert_eq!(w.outstanding_at(Cycle::ZERO), 1);
        assert_eq!(w.outstanding_data_at(Cycle::ZERO), 0);
        w.push(HwAddr::new(8192), b"d", Cycle::ZERO, Cycle::new(200), WpqKind::Data);
        assert_eq!(w.outstanding_data_at(Cycle::ZERO), 1);
        assert_eq!(w.outstanding_data_at(Cycle::new(200)), 0);
    }

    #[test]
    fn stats_survive_crashes_and_keep_conserving() {
        let cfg = PersistBufferConfig { salvage_rate: 0.5, ..armed() };
        let mut w = PersistBuffer::new(cfg, geom());
        let mut now = Cycle::ZERO;
        // Each round pushes half again the capacity, so the buffer fills
        // and back-pressures before the round's fence or crash.
        let per_round = PersistBuffer::CAPACITY as u64 * 3 / 2;
        let mut stalled = false;
        for round in 0..10u64 {
            for i in 0..per_round {
                let addr = HwAddr::new((round * per_round + i) % 8 * 8192);
                let retire = now + Cycle::new(50 + i * 37);
                let resume = w.push(addr, &[round as u8], now, retire, WpqKind::Data);
                stalled |= resume > now;
                now = resume;
            }
            if round % 3 == 0 {
                now = w.fence(now);
            }
            if round % 4 == 1 {
                w.crash(now + Cycle::new(13));
            }
            conservation_holds(&w);
        }
        assert!(stalled, "a full buffer back-pressured the issuer");
        assert_eq!(w.stats().enqueued, 10 * per_round);
        assert!(w.stats().fences >= 4);
    }
}
