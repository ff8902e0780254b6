//! Statistics every memory system reports.
//!
//! The counters here are exactly the quantities the paper's evaluation plots:
//! NVM write traffic split into CPU / checkpointing / migration components
//! (Figure 8), checkpointing time share (Figures 3 & 8), write bandwidth
//! (Figure 10), and enough raw counts to derive execution time and IPC
//! (Figures 7 & 11).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::BLOCK_BYTES;
use crate::config::CRYPTO_NS_PER_BLOCK;
use crate::cycle::Cycle;

/// Classification of a write reaching NVM, for the Figure 8 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NvmWriteClass {
    /// Direct write from the CPU (last-level-cache writeback or remapped
    /// store serviced in NVM).
    Cpu,
    /// Write performed while creating a checkpoint (page writeback, buffered
    /// block drain, metadata/CPU-state persist, journal/shadow flushes).
    Checkpoint,
    /// Write caused by migrating a page between the two checkpointing
    /// schemes (§3.4).
    Migration,
}

impl fmt::Display for NvmWriteClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NvmWriteClass::Cpu => "cpu",
            NvmWriteClass::Checkpoint => "checkpoint",
            NvmWriteClass::Migration => "migration",
        })
    }
}

/// Phase of the Figure 6(b) checkpointing sequence a cycle falls in, used
/// to classify where an injected crash landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CkptPhase {
    /// No checkpoint job in flight — the crash hit the execution phase.
    Execution,
    /// Phase 1: draining DRAM-buffered block working copies to NVM.
    DrainBlocks,
    /// Phase 2: persisting the BTT and CPU state to the backup region.
    PersistBtt,
    /// Phase 3: writing dirty pages back to the alternate checkpoint region.
    PageWriteback,
    /// Phase 4: persisting the PTT, flushing the NVM write queue, and
    /// setting the atomic completion flag.
    Finalize,
}

impl fmt::Display for CkptPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CkptPhase::Execution => "execution",
            CkptPhase::DrainBlocks => "drain-blocks",
            CkptPhase::PersistBtt => "persist-btt",
            CkptPhase::PageWriteback => "page-writeback",
            CkptPhase::Finalize => "finalize",
        })
    }
}

/// Which checkpoint image a recovery restored (§4.5 three-version rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RecoveryOutcome {
    /// The last checkpoint's commit record had persisted: recovered to
    /// `C_last`.
    CLast,
    /// The last checkpoint was incomplete and was discarded: recovered to
    /// `C_penult`.
    CPenult,
    /// The last checkpoint had completed but failed media-integrity
    /// verification (torn commit record, corrupted data or metadata), so
    /// recovery discarded it and fell back to `C_penult`.
    CPenultIntegrityFallback,
    /// No trusted checkpoint image survived: *both* failed authentication
    /// (secure mode), or `C_last` failed verification after a rollback
    /// left no `C_penult`. Recovery reset to the empty image and surfaced
    /// [`crate::Error::IntegrityUnrecoverable`] instead of ever replaying
    /// unverified data.
    Unrecoverable,
}

impl fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryOutcome::CLast => "C_last",
            RecoveryOutcome::CPenult => "C_penult",
            RecoveryOutcome::CPenultIntegrityFallback => "C_penult (integrity)",
            RecoveryOutcome::Unrecoverable => "unrecoverable",
        })
    }
}

/// One step of the restartable §4.5 recovery sequence.
///
/// Recovery is modeled as a cycle-accounted step machine rather than an
/// instantaneous call, so a crash point can land *inside* recovery. Each
/// step is idempotent: a nested crash restarts the whole sequence from the
/// persisted commit record and converges to the same image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RecoveryStep {
    /// Read the 64 B commit record from the backup region to locate the
    /// newest completed checkpoint.
    ReadCommitRecord,
    /// Verify the CRCs of `C_last` (commit record, data, metadata images).
    VerifyClast,
    /// Secure mode: authenticate `C_last` against its stored MAC root and
    /// the persisted counter-table generation, classifying any mismatch
    /// (tamper vs. torn vs. media) before trusting the image.
    VerifyMacs,
    /// `C_last` failed verification: write-ahead, then durably void it and
    /// promote `C_penult`, sealing the decision with a CRC'd record.
    IntegrityFallback,
    /// Replay the persisted BTT/PTT metadata images (§4.5 step 1).
    ReplayMetadata,
    /// Reload checkpointed pages into the DRAM working set (§4.5 step 2).
    RearmWorkingSet,
}

impl fmt::Display for RecoveryStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryStep::ReadCommitRecord => "read-commit-record",
            RecoveryStep::VerifyClast => "verify-clast",
            RecoveryStep::VerifyMacs => "verify-macs",
            RecoveryStep::IntegrityFallback => "integrity-fallback",
            RecoveryStep::ReplayMetadata => "replay-metadata",
            RecoveryStep::RearmWorkingSet => "rearm-working-set",
        })
    }
}

/// Kind of an NVM media fault, for classification in [`MediaStats`] and in
/// [`crate::Error::MediaCorruption`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A transient bit flip: one read returns a flipped bit, a retry of the
    /// same location reads back clean.
    BitFlip,
    /// A worn-out cell stuck at a fixed value: every read of the location
    /// is corrupted until the block is remapped.
    StuckAt,
    /// A torn write: power was lost during a multi-word device commit and
    /// only a prefix/subset of the words persisted.
    TornWrite,
    /// Corrupted serialized checkpoint metadata (BTT/PTT image or commit
    /// record) in the backup region.
    Metadata,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::StuckAt => "stuck-at",
            FaultKind::TornWrite => "torn-write",
            FaultKind::Metadata => "metadata",
        })
    }
}

/// Media-fault and integrity-protection counters (the self-healing
/// telemetry of the hardened recovery path).
///
/// Fault counters classify by [`FaultKind`]: `bit_flips` counts transient
/// flips observed on reads (plus injected `C_last` data corruption),
/// `stuck_faults` counts cells the wear model marked permanently bad,
/// `torn_writes` counts commit records recovery found torn, and
/// `meta_corruptions` counts checkpoint-metadata images that failed their
/// checksum. The remaining counters describe what the controller did about
/// the faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaStats {
    /// Transient bit flips observed on reads.
    pub bit_flips: u64,
    /// Cells that became permanently stuck (wear model).
    pub stuck_faults: u64,
    /// Commit records recovery found torn.
    pub torn_writes: u64,
    /// Corrupted checkpoint-metadata images.
    pub meta_corruptions: u64,
    /// Read retries issued while healing detected corruption, each one
    /// attempt of [`crate::RetryPolicy::MEDIA`].
    pub retries: u64,
    /// The part of `retries` that recovery's own reads spent.
    pub recovery_retries: u64,
    /// Blocks remapped to spare locations via the persistent bad-block
    /// table.
    pub remaps: u64,
    /// Blocks proactively repaired by the background scrubber between
    /// epochs.
    pub scrub_repairs: u64,
    /// Recoveries that discarded a completed-but-corrupt `C_last` and fell
    /// back to `C_penult`.
    pub integrity_fallbacks: u64,
    /// Corrupted reads delivered to software because integrity checking
    /// was disabled.
    pub silent_corruptions: u64,
    /// Remap attempts abandoned because every spare block was already in
    /// use; the affected block keeps being served through CRC retries.
    pub spare_exhausted: u64,
    /// Write-ahead records durably sealed for recovery-side NVM mutations
    /// (bad-block remaps, integrity fallbacks).
    pub wal_seals: u64,
    /// Write-ahead records found torn (unsealed) after a nested crash and
    /// redone from scratch instead of compounded.
    pub wal_redos: u64,
    /// 64 B blocks whose CRC was computed or verified.
    pub crc_checked_blocks: u64,
    /// Cycles spent computing/verifying CRCs (attributed only while
    /// integrity checking is enabled).
    pub crc_check_cycles: Cycle,
}

impl MediaStats {
    /// Bumps the counter for one observed fault of `kind`.
    pub fn record_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::BitFlip => self.bit_flips += 1,
            FaultKind::StuckAt => self.stuck_faults += 1,
            FaultKind::TornWrite => self.torn_writes += 1,
            FaultKind::Metadata => self.meta_corruptions += 1,
        }
    }

    /// Total faults observed, all kinds combined.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.bit_flips + self.stuck_faults + self.torn_writes + self.meta_corruptions
    }

    /// Whether any media-fault activity was recorded at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.total_faults() > 0
            || self.retries > 0
            || self.remaps > 0
            || self.scrub_repairs > 0
            || self.crc_checked_blocks > 0
            || self.spare_exhausted > 0
            || self.wal_seals > 0
            || self.wal_redos > 0
    }
}

/// DRAM fault-domain counters: SEC-DED ECC corrections, poisoned 64 B
/// blocks, and what the controller did about the poison.
///
/// Poison bookkeeping is conservative by construction: every block the ECC
/// model poisons is eventually re-fetched from its checkpoint copy
/// (`poison_refetched`), dropped by a quarantine (`poison_dropped`),
/// overwritten whole by a fresh store (`poison_overwritten`), or wiped by a
/// power cycle (`poison_cleared_by_crash`) — so
/// `poisoned_blocks == poison_accounted() + outstanding poison`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Single-bit transients corrected by the SEC-DED code.
    pub corrected_flips: u64,
    /// 64 B blocks poisoned by detected-but-uncorrectable multi-bit errors.
    pub poisoned_blocks: u64,
    /// Poisoned blocks healed by transparently re-fetching the block from
    /// its NVM checkpoint copy (clean data, nothing lost).
    pub poison_refetched: u64,
    /// Bounded DRAM re-read attempts spent on poisoned blocks before
    /// falling back to the checkpoint copy.
    pub refetch_retries: u64,
    /// Poisoned blocks whose dirty data was dropped by a quarantine (the
    /// only path where poison costs data — surfaced as
    /// [`crate::Error::DramPoisonLost`], never silently persisted).
    pub poison_dropped: u64,
    /// Poisoned blocks cleared because a store overwrote the whole block
    /// with fresh data (the write re-encodes the ECC word).
    pub poison_overwritten: u64,
    /// Poisoned blocks wiped by a power cycle — DRAM poison is volatile,
    /// and recovery re-arms the working set from NVM checkpoint copies.
    pub poison_cleared_by_crash: u64,
    /// Dirty PTT pages quarantined at checkpoint time: their writeback was
    /// suppressed and the page rolled back to its `C_last` version.
    pub quarantined_pages: u64,
    /// Dirty bytes dropped by quarantine rollbacks (page- and
    /// block-granularity combined).
    pub quarantine_dropped_bytes: u64,
}

impl DramStats {
    /// Poisoned blocks whose fate has been decided (healed, dropped,
    /// overwritten, or wiped by power loss). The difference
    /// `poisoned_blocks - poison_accounted()` is the poison still
    /// outstanding in DRAM.
    #[must_use]
    pub fn poison_accounted(&self) -> u64 {
        self.poison_refetched
            + self.poison_dropped
            + self.poison_overwritten
            + self.poison_cleared_by_crash
    }

    /// Whether any DRAM fault activity was recorded at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.corrected_flips > 0
            || self.poisoned_blocks > 0
            || self.refetch_retries > 0
            || self.quarantined_pages > 0
            || self.quarantine_dropped_bytes > 0
    }
}

/// Secure-mode counters: counter-mode encryption traffic, security
/// metadata persists, and the tamper-detection ledger.
///
/// The tamper ledger is conservative by construction: every detected
/// tamper is classified exactly once (`tampers_detected ==
/// classified_tamper + classified_torn + classified_media`) and resolved
/// exactly once (`tampers_detected == verify_fallbacks + unrecoverable`).
/// `classified_media` detections originate from *media* faults caught by
/// the MAC (CRC layer off), not from injected tampers, so the injection
/// bound is `tampers_injected + classified_media >= tampers_detected`;
/// the slack is tampering still armed but not yet applied (no completed
/// checkpoint to tamper with).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecurityStats {
    /// 64 B blocks encrypted on their way to NVM (counter-mode: each bump
    /// of the per-block write counter encrypts one block).
    pub blocks_encrypted: u64,
    /// 64 B blocks decrypted and MAC-verified on NVM reads (including
    /// recovery-side verification reads).
    pub blocks_verified: u64,
    /// Counter-table persists at epoch boundaries (one per completed
    /// checkpoint that had dirty counters).
    pub counter_persists: u64,
    /// Bytes of encryption-counter entries persisted to NVM.
    pub counter_bytes: u64,
    /// Integrity-tree nodes written while persisting security metadata.
    pub tree_node_persists: u64,
    /// Bytes of integrity-tree nodes persisted to NVM.
    pub tree_bytes: u64,
    /// Integrity-tree root (+ MAC record) persists — the atomic tip of the
    /// security metadata, sealed with the checkpoint commit record.
    pub root_persists: u64,
    /// Per-block write counters lost to a mid-epoch crash and re-derived
    /// by bounded replay at recovery (never guessed).
    pub counters_replayed: u64,
    /// Cycles spent in modeled encryption, decryption, and MAC work.
    pub crypto_cycles: Cycle,
    /// Adversarial tampers injected by the fault hooks.
    pub tampers_injected: u64,
    /// Injected tampers detected by MAC/counter verification at recovery.
    pub tampers_detected: u64,
    /// Detections classified as adversarial tampering (MAC forgery or a
    /// rolled-back counter table, i.e. a replay attack).
    pub classified_tamper: u64,
    /// Detections classified as a torn security-metadata write (power loss
    /// mid-persist).
    pub classified_torn: u64,
    /// Detections classified as media corruption caught by the MAC (CRC
    /// layer disabled or bypassed).
    pub classified_media: u64,
    /// Detections resolved by authenticating `C_penult` and falling back
    /// to it (the graceful path).
    pub verify_fallbacks: u64,
    /// Detections with no authenticated image to fall back to (*both*
    /// failed, or a rollback left no `C_penult`): recovery reset to the
    /// empty image and surfaced
    /// [`crate::Error::IntegrityUnrecoverable`].
    pub unrecoverable: u64,
}

impl SecurityStats {
    /// Charges counter-mode encryption + MAC work for `bytes` of data:
    /// [`CRYPTO_NS_PER_BLOCK`] per started 64 B block, counted as encrypted
    /// on the write path (`encrypt`) or verified on the read path. Pure
    /// stats: the AES-CTR pads are precomputed from the counters and
    /// overlap the burst transfers. Callers charge only in secure mode, so
    /// disabled runs stay bit-identical.
    pub fn charge_crypto(&mut self, bytes: u64, encrypt: bool) {
        let blocks = bytes.div_ceil(BLOCK_BYTES);
        self.crypto_cycles += Cycle::from_ns(CRYPTO_NS_PER_BLOCK * blocks);
        if encrypt {
            self.blocks_encrypted += blocks;
        } else {
            self.blocks_verified += blocks;
        }
    }

    /// Detections classified, all classes combined. Conservation:
    /// equals `tampers_detected`.
    #[must_use]
    pub fn classified_total(&self) -> u64 {
        self.classified_tamper + self.classified_torn + self.classified_media
    }

    /// Detections resolved (fallen back or declared unrecoverable).
    /// Conservation: equals `tampers_detected`.
    #[must_use]
    pub fn detections_accounted(&self) -> u64 {
        self.verify_fallbacks + self.unrecoverable
    }

    /// Whether any secure-mode activity was recorded at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.blocks_encrypted > 0
            || self.blocks_verified > 0
            || self.counter_persists > 0
            || self.tree_node_persists > 0
            || self.root_persists > 0
            || self.counters_replayed > 0
            || self.tampers_injected > 0
            || self.tampers_detected > 0
    }
}

/// One rung of the graceful-degradation health ladder.
///
/// The ladder is ordered: each rung is strictly worse than the one before
/// it, and the [`Ord`] impl reflects that (`Healthy < Wounded < ReadOnly <
/// FailSafe`). Demotion can skip rungs when a severe signal fires;
/// promotion climbs one rung at a time after a hysteresis window of clean
/// epochs, and `FailSafe` never promotes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HealthRung {
    /// No degradation signal: full service.
    #[default]
    Healthy,
    /// Cumulative wear or fault pressure detected: checkpoints fire early
    /// and the scrubber runs under a cycle budget, but all traffic is
    /// served.
    Wounded,
    /// Durability can no longer be guaranteed for new data: stores are
    /// rejected with [`crate::Error::Degraded`]; CRC-verified loads and the
    /// in-flight checkpoint still complete.
    ReadOnly,
    /// Trust in the stored state itself is in question (tamper detected or
    /// unrecoverable images): only integrity-verified data is served and
    /// the rung never promotes.
    FailSafe,
}

impl fmt::Display for HealthRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthRung::Healthy => "healthy",
            HealthRung::Wounded => "wounded",
            HealthRung::ReadOnly => "read-only",
            HealthRung::FailSafe => "fail-safe",
        })
    }
}

/// Health-ladder counters: ladder movement, degraded-posture actions, and
/// the crash-consistency bookkeeping of the persisted rung.
///
/// Ladder conservation: promotion climbs one rung at a time and only after
/// a demotion put the ladder below `Healthy`, so `promotions <= demotions`
/// always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthStats {
    /// Epoch-boundary signal evaluations performed by the monitor.
    pub evaluations: u64,
    /// Ladder demotions (one per transition toward a worse rung, however
    /// many rungs it skipped).
    pub demotions: u64,
    /// Ladder promotions (always exactly one rung after a clean hysteresis
    /// window).
    pub promotions: u64,
    /// Stores rejected with [`crate::Error::Degraded`] while at `ReadOnly`
    /// or `FailSafe`.
    pub stores_rejected: u64,
    /// Checkpoints triggered early by the `Wounded` posture rather than the
    /// epoch timer or dirty-block pressure.
    pub emergency_checkpoints: u64,
    /// Scrub passes cut short by the `Wounded` cycle budget, leaving
    /// remaining stuck cells for a later epoch.
    pub scrub_deferrals: u64,
    /// 64 B health records persisted alongside checkpoint commit records.
    pub rung_persists: u64,
    /// Recoveries that rehydrated the rung from the restored checkpoint
    /// image's persisted health record.
    pub rehydrations: u64,
}

impl HealthStats {
    /// Whether any health-ladder activity was recorded at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.evaluations > 0
            || self.demotions > 0
            || self.promotions > 0
            || self.stores_rejected > 0
            || self.emergency_checkpoints > 0
            || self.scrub_deferrals > 0
            || self.rung_persists > 0
            || self.rehydrations > 0
    }
}

/// Volatile persist-buffer (WPQ) conservation ledger.
///
/// Conservation: every entry that ever entered the buffer is accounted for
/// exactly once — `enqueued == drained + dropped_at_crash +`
/// [`WpqStats::outstanding`] — so a leaked or double-counted persist shows
/// up as a ledger imbalance, not a silent divergence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WpqStats {
    /// Entries that entered the buffer.
    pub enqueued: u64,
    /// Entries made content-durable by draining (retirement, a fence, or
    /// the salvaged prefix of a crash-time partial flush).
    pub drained: u64,
    /// Entries discarded by a crash before they drained.
    pub dropped_at_crash: u64,
    /// Explicit fence (force-drain) operations issued by the controller.
    pub fences: u64,
    /// Cycles the issuer spent stalled on fences and full-buffer
    /// back-pressure.
    pub fence_stall_cycles: Cycle,
    /// Largest number of entries simultaneously pending across all banks —
    /// the maximum window within which a crash can reorder persists.
    pub reorder_window_max: u64,
}

impl WpqStats {
    /// Entries still pending in the buffer (enqueued but neither drained
    /// nor dropped) — the third term of the conservation law.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.enqueued - self.drained - self.dropped_at_crash
    }

    /// Whether the buffer recorded any activity at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.enqueued > 0 || self.fences > 0
    }
}

/// Observability record of one injected crash and its recovery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// Cycle at which power was lost.
    pub cycle: Cycle,
    /// Identifier of the epoch that was executing when the crash hit.
    pub epoch: u64,
    /// Checkpointing phase the crash landed in.
    pub phase: CkptPhase,
    /// Checkpoint writebacks and queued NVM writes still in flight (and
    /// therefore lost) at the crash cycle.
    pub inflight_writebacks: usize,
    /// Which checkpoint image the recovery restored.
    pub outcome: RecoveryOutcome,
    /// `Some(step)` when power was lost *inside* a running recovery (a
    /// nested crash): the recovery step the crash interrupted. `None` for
    /// a top-level crash during normal execution.
    pub recovery_step: Option<RecoveryStep>,
}

/// Aggregated statistics of one memory-system run.
///
/// All byte counters are cumulative; all cycle counters are sums of simulated
/// time. A fresh value is all-zero ([`MemStats::default`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// Reads serviced by DRAM.
    pub dram_reads: u64,
    /// Writes serviced by DRAM.
    pub dram_writes: u64,
    /// Reads serviced by NVM.
    pub nvm_reads: u64,
    /// Writes serviced by NVM.
    pub nvm_writes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Bytes written to NVM by direct CPU traffic.
    pub nvm_write_bytes_cpu: u64,
    /// Bytes written to NVM by checkpointing work.
    pub nvm_write_bytes_ckpt: u64,
    /// Bytes written to NVM by inter-scheme page migration.
    pub nvm_write_bytes_migration: u64,
    /// Bytes read from NVM.
    pub nvm_read_bytes: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Completed epochs (equivalently, completed checkpoints).
    pub epochs_completed: u64,
    /// Cycles during which the system was performing checkpoint work.
    pub ckpt_busy_cycles: Cycle,
    /// Cycles the *application* was stalled waiting on checkpointing
    /// (blocked stores, stop-the-world pauses, flush stalls).
    pub ckpt_stall_cycles: Cycle,
    /// Total memory-access service cycles accumulated (sum of request
    /// latencies), used for average-latency reporting.
    pub service_cycles: Cycle,
    /// Pages migrated from block remapping to page writeback.
    pub pages_promoted: u64,
    /// Pages migrated from page writeback to block remapping.
    pub pages_demoted: u64,
    /// Crashes injected via the fault-injection hooks.
    pub crashes_injected: u64,
    /// Recoveries that restored `C_last` (the last checkpoint committed).
    pub recoveries_to_clast: u64,
    /// Recoveries that discarded an incomplete checkpoint and restored
    /// `C_penult`.
    pub recoveries_to_cpenult: u64,
    /// Recoveries that found no trusted checkpoint image (both failed
    /// authentication, or a rollback left no `C_penult` behind a failed
    /// `C_last`) and reset to the empty image.
    pub recoveries_unrecoverable: u64,
    /// Queued writes discarded by power loss before their device committed
    /// them.
    pub wq_writes_lost: u64,
    /// Crashes that interrupted a recovery already in progress; each aborts
    /// the current recovery attempt, which restarts from the persisted
    /// commit record. Counted separately from `crashes_injected` so that
    /// `crashes_injected == recoveries_to_clast + recoveries_to_cpenult +
    /// recoveries_unrecoverable` stays an invariant.
    pub nested_crashes: u64,
    /// Total simulated cycles spent in recovery, including attempts that
    /// were themselves interrupted by a nested crash.
    pub recovery_cycles: Cycle,
    /// Media-fault and integrity-protection counters.
    pub media: MediaStats,
    /// DRAM ECC fault-domain counters.
    pub dram: DramStats,
    /// Secure-mode (encryption + integrity tree) counters.
    pub security: SecurityStats,
    /// Graceful-degradation health-ladder counters.
    pub health: HealthStats,
    /// Volatile persist-buffer conservation ledger.
    pub wpq: WpqStats,
    /// Simulator fast-path counters (host-performance accounting).
    pub perf: PerfStats,
}

impl MemStats {
    /// Creates an all-zero statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write of `bytes` reaching NVM, classified per Figure 8.
    pub fn record_nvm_write(&mut self, bytes: u64, class: NvmWriteClass) {
        self.nvm_writes += 1;
        match class {
            NvmWriteClass::Cpu => self.nvm_write_bytes_cpu += bytes,
            NvmWriteClass::Checkpoint => self.nvm_write_bytes_ckpt += bytes,
            NvmWriteClass::Migration => self.nvm_write_bytes_migration += bytes,
        }
    }

    /// Records a write of `bytes` reaching DRAM.
    pub fn record_dram_write(&mut self, bytes: u64) {
        self.dram_writes += 1;
        self.dram_write_bytes += bytes;
    }

    /// Counts an injected crash. A top-level crash bumps
    /// `crashes_injected` and its outcome counter. A crash that interrupted
    /// a running recovery (`recovery_step` is set) only bumps
    /// `nested_crashes`: the aborted attempt is not a completed recovery.
    pub fn record_crash(&mut self, event: &CrashEvent) {
        if event.recovery_step.is_some() {
            self.nested_crashes += 1;
            return;
        }
        self.crashes_injected += 1;
        match event.outcome {
            RecoveryOutcome::CLast => self.recoveries_to_clast += 1,
            RecoveryOutcome::CPenult | RecoveryOutcome::CPenultIntegrityFallback => {
                self.recoveries_to_cpenult += 1
            }
            RecoveryOutcome::Unrecoverable => self.recoveries_unrecoverable += 1,
        }
    }

    /// Total bytes written to NVM, all classes combined.
    #[must_use]
    pub fn nvm_write_bytes_total(&self) -> u64 {
        self.nvm_write_bytes_cpu + self.nvm_write_bytes_ckpt + self.nvm_write_bytes_migration
    }

    /// Total requests serviced.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of `total_cycles` spent on checkpoint work, in percent
    /// (the "% exec. time spent on ckpt." series of Figure 8).
    #[must_use]
    pub fn ckpt_time_share(&self, total_cycles: Cycle) -> f64 {
        if total_cycles == Cycle::ZERO {
            return 0.0;
        }
        100.0 * self.ckpt_busy_cycles.raw() as f64 / total_cycles.raw() as f64
    }

    /// Average NVM write bandwidth over `total_cycles`, in MB/s
    /// (Figure 10; 1 MB = 10^6 bytes as in the paper's axis).
    #[must_use]
    pub fn nvm_write_bandwidth_mbps(&self, total_cycles: Cycle) -> f64 {
        let secs = total_cycles.as_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.nvm_write_bytes_total() as f64 / 1e6 / secs
    }

    /// Average DRAM write bandwidth over `total_cycles`, in MB/s.
    #[must_use]
    pub fn dram_write_bandwidth_mbps(&self, total_cycles: Cycle) -> f64 {
        let secs = total_cycles.as_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.dram_write_bytes as f64 / 1e6 / secs
    }
}

/// Simulator fast-path counters: how often the controller provably skipped
/// fault-model work because the model was *quiet* (zero rates, nothing
/// armed, nothing stuck or poisoned).
///
/// These counters account for the hot-path flattening itself — they let
/// the `simspeed` harness and tests verify the fast paths actually fire
/// (a silent fast path that never triggers is dead weight, and one that
/// fires when the model is armed would corrupt fault schedules). They are
/// host-performance accounting only; no simulated time or fault decision
/// depends on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfStats {
    /// NVM data reads that skipped the media fault model because it was
    /// quiet; each skip saved a seeded-stream consultation and a stuck-cell
    /// range probe.
    pub nvm_quiet_reads: u64,
    /// DRAM working-region reads that skipped the SEC-DED ECC check
    /// because the model was quiet.
    pub dram_quiet_reads: u64,
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} nvm_wr_bytes(cpu/ckpt/migr)={}/{}/{} dram_wr_bytes={} epochs={} ckpt_busy={} stalls={}",
            self.reads,
            self.writes,
            self.nvm_write_bytes_cpu,
            self.nvm_write_bytes_ckpt,
            self.nvm_write_bytes_migration,
            self.dram_write_bytes,
            self.epochs_completed,
            self.ckpt_busy_cycles,
            self.ckpt_stall_cycles,
        )?;
        if self.crashes_injected > 0 || self.nested_crashes > 0 {
            write!(
                f,
                " crashes={} (C_last={} C_penult={} unrecoverable={} nested={} wq_lost={} recovery_cycles={})",
                self.crashes_injected,
                self.recoveries_to_clast,
                self.recoveries_to_cpenult,
                self.recoveries_unrecoverable,
                self.nested_crashes,
                self.wq_writes_lost,
                self.recovery_cycles,
            )?;
        }
        if self.media.any() {
            write!(
                f,
                " media(flip={} stuck={} torn={} meta={} retries={} remaps={} scrubbed={} fallbacks={} spare_exhausted={} wal={}+{})",
                self.media.bit_flips,
                self.media.stuck_faults,
                self.media.torn_writes,
                self.media.meta_corruptions,
                self.media.retries,
                self.media.remaps,
                self.media.scrub_repairs,
                self.media.integrity_fallbacks,
                self.media.spare_exhausted,
                self.media.wal_seals,
                self.media.wal_redos,
            )?;
        }
        if self.security.any() {
            write!(
                f,
                " security(enc={} ver={} ctr_persists={} ctr_bytes={} tree={}+{}B roots={} replayed={} tampers={}/{} class(t/t/m)={}/{}/{} fallbacks={} unrecoverable={})",
                self.security.blocks_encrypted,
                self.security.blocks_verified,
                self.security.counter_persists,
                self.security.counter_bytes,
                self.security.tree_node_persists,
                self.security.tree_bytes,
                self.security.root_persists,
                self.security.counters_replayed,
                self.security.tampers_detected,
                self.security.tampers_injected,
                self.security.classified_tamper,
                self.security.classified_torn,
                self.security.classified_media,
                self.security.verify_fallbacks,
                self.security.unrecoverable,
            )?;
        }
        if self.health.any() {
            write!(
                f,
                " health(evals={} demotions={} promotions={} rejected={} emergency={} scrub_deferrals={} persists={} rehydrations={})",
                self.health.evaluations,
                self.health.demotions,
                self.health.promotions,
                self.health.stores_rejected,
                self.health.emergency_checkpoints,
                self.health.scrub_deferrals,
                self.health.rung_persists,
                self.health.rehydrations,
            )?;
        }
        // Every bounded retry, split by the loop that spent it.
        if self.media.retries + self.dram.refetch_retries > 0 {
            write!(
                f,
                " retry(media={} recovery={} dram={})",
                self.media.retries.saturating_sub(self.media.recovery_retries),
                self.media.recovery_retries,
                self.dram.refetch_retries,
            )?;
        }
        if self.wpq.any() {
            write!(
                f,
                " wpq(enq={} drained={} dropped={} outstanding={} fences={} stall={} window={})",
                self.wpq.enqueued,
                self.wpq.drained,
                self.wpq.dropped_at_crash,
                self.wpq.outstanding(),
                self.wpq.fences,
                self.wpq.fence_stall_cycles,
                self.wpq.reorder_window_max,
            )?;
        }
        if self.dram.any() {
            write!(
                f,
                " dram(corrected={} poisoned={} refetched={} retries={} dropped={} overwritten={} crash_cleared={} quarantines={} lost_bytes={})",
                self.dram.corrected_flips,
                self.dram.poisoned_blocks,
                self.dram.poison_refetched,
                self.dram.refetch_retries,
                self.dram.poison_dropped,
                self.dram.poison_overwritten,
                self.dram.poison_cleared_by_crash,
                self.dram.quarantined_pages,
                self.dram.quarantine_dropped_bytes,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut s = MemStats::new();
        s.record_nvm_write(64, NvmWriteClass::Cpu);
        s.record_nvm_write(4096, NvmWriteClass::Checkpoint);
        s.record_nvm_write(4096, NvmWriteClass::Migration);
        assert_eq!(s.nvm_writes, 3);
        assert_eq!(s.nvm_write_bytes_total(), 64 + 4096 + 4096);
        assert_eq!(s.nvm_write_bytes_cpu, 64);
        assert_eq!(s.nvm_write_bytes_ckpt, 4096);
        assert_eq!(s.nvm_write_bytes_migration, 4096);
    }

    #[test]
    fn dram_write_recording() {
        let mut s = MemStats::new();
        s.record_dram_write(64);
        s.record_dram_write(64);
        assert_eq!(s.dram_writes, 2);
        assert_eq!(s.dram_write_bytes, 128);
    }

    #[test]
    fn ckpt_time_share_percentage() {
        let mut s = MemStats::new();
        s.ckpt_busy_cycles = Cycle::new(250);
        assert!((s.ckpt_time_share(Cycle::new(1000)) - 25.0).abs() < 1e-9);
        // Zero total time must not divide by zero.
        assert_eq!(s.ckpt_time_share(Cycle::ZERO), 0.0);
    }

    #[test]
    fn bandwidth_mbps() {
        let mut s = MemStats::new();
        // 3e9 cycles = 1 s at 3 GHz; 100 MB written -> 100 MB/s.
        s.record_nvm_write(100_000_000, NvmWriteClass::Cpu);
        let bw = s.nvm_write_bandwidth_mbps(Cycle::new(3_000_000_000));
        assert!((bw - 100.0).abs() < 1e-6, "bw={bw}");
        assert_eq!(s.nvm_write_bandwidth_mbps(Cycle::ZERO), 0.0);
    }

    #[test]
    fn total_accesses() {
        let mut s = MemStats::new();
        s.reads = 7;
        s.writes = 3;
        assert_eq!(s.total_accesses(), 10);
    }

    #[test]
    fn display_nonempty() {
        assert!(!MemStats::new().to_string().is_empty());
        assert_eq!(NvmWriteClass::Cpu.to_string(), "cpu");
        assert_eq!(NvmWriteClass::Checkpoint.to_string(), "checkpoint");
        assert_eq!(NvmWriteClass::Migration.to_string(), "migration");
        assert_eq!(CkptPhase::PageWriteback.to_string(), "page-writeback");
        assert_eq!(RecoveryOutcome::CPenult.to_string(), "C_penult");
    }

    fn crash_event(cycle: u64, outcome: RecoveryOutcome) -> CrashEvent {
        CrashEvent {
            cycle: Cycle::new(cycle),
            epoch: 3,
            phase: CkptPhase::PersistBtt,
            inflight_writebacks: 2,
            outcome,
            recovery_step: None,
        }
    }

    #[test]
    fn record_crash_bumps_outcome_counters() {
        let mut s = MemStats::new();
        s.record_crash(&crash_event(100, RecoveryOutcome::CLast));
        s.record_crash(&crash_event(200, RecoveryOutcome::CPenult));
        s.record_crash(&crash_event(300, RecoveryOutcome::CPenult));
        assert_eq!(s.crashes_injected, 3);
        assert_eq!(s.recoveries_to_clast, 1);
        assert_eq!(s.recoveries_to_cpenult, 2);
        assert!(s.to_string().contains("crashes=3"));
    }

    #[test]
    fn fault_kind_display() {
        assert_eq!(FaultKind::BitFlip.to_string(), "bit-flip");
        assert_eq!(FaultKind::StuckAt.to_string(), "stuck-at");
        assert_eq!(FaultKind::TornWrite.to_string(), "torn-write");
        assert_eq!(FaultKind::Metadata.to_string(), "metadata");
        assert_eq!(
            RecoveryOutcome::CPenultIntegrityFallback.to_string(),
            "C_penult (integrity)"
        );
    }

    #[test]
    fn media_stats_record_and_count() {
        let mut m = MediaStats::default();
        assert!(!m.any());
        m.record_fault(FaultKind::BitFlip);
        m.record_fault(FaultKind::StuckAt);
        m.record_fault(FaultKind::TornWrite);
        m.record_fault(FaultKind::Metadata);
        m.retries = 3;
        assert_eq!(m.total_faults(), 4);
        assert!(m.any());
        assert_eq!((m.bit_flips, m.stuck_faults, m.torn_writes, m.meta_corruptions), (1, 1, 1, 1));
    }

    #[test]
    fn nested_crash_counts_separately_from_injected() {
        let mut s = MemStats::new();
        s.record_crash(&crash_event(100, RecoveryOutcome::CLast));
        let mut nested = crash_event(150, RecoveryOutcome::CLast);
        nested.recovery_step = Some(RecoveryStep::RearmWorkingSet);
        s.record_crash(&nested);
        assert_eq!(s.crashes_injected, 1);
        assert_eq!(s.nested_crashes, 1);
        assert_eq!(s.recoveries_to_clast, 1, "aborted attempt is not a completed recovery");
        assert!(s.to_string().contains("nested=1"));
    }

    #[test]
    fn recovery_step_display() {
        assert_eq!(RecoveryStep::ReadCommitRecord.to_string(), "read-commit-record");
        assert_eq!(RecoveryStep::VerifyClast.to_string(), "verify-clast");
        assert_eq!(RecoveryStep::IntegrityFallback.to_string(), "integrity-fallback");
        assert_eq!(RecoveryStep::ReplayMetadata.to_string(), "replay-metadata");
        assert_eq!(RecoveryStep::RearmWorkingSet.to_string(), "rearm-working-set");
    }

    #[test]
    fn wal_and_spare_counters_show() {
        let mut m = MediaStats::default();
        assert!(!m.any());
        m.spare_exhausted = 1;
        assert!(m.any(), "spare exhaustion alone is media activity");
        let wal = MediaStats { wal_seals: 4, wal_redos: 2, ..Default::default() };
        assert!(wal.any());
        let s = MemStats { media: MediaStats { spare_exhausted: 1, ..wal }, ..MemStats::new() };
        let text = s.to_string();
        assert!(text.contains("spare_exhausted=1"), "text={text}");
        assert!(text.contains("wal=4+2"), "text={text}");
    }

    #[test]
    fn integrity_fallback_counts_as_cpenult_recovery() {
        let mut s = MemStats::new();
        s.record_crash(&crash_event(10, RecoveryOutcome::CPenultIntegrityFallback));
        assert_eq!(s.recoveries_to_cpenult, 1);
        assert_eq!(s.recoveries_to_clast, 0);
    }

    #[test]
    fn display_includes_media_section_when_active() {
        let mut s = MemStats::new();
        assert!(!s.to_string().contains("media("));
        s.media.record_fault(FaultKind::StuckAt);
        s.media.remaps = 1;
        let text = s.to_string();
        assert!(text.contains("media("), "text={text}");
        assert!(text.contains("stuck=1"), "text={text}");
    }

    #[test]
    fn dram_stats_conserve_and_show() {
        let mut d = DramStats::default();
        assert!(!d.any());
        d.corrected_flips = 5;
        d.poisoned_blocks = 4;
        d.poison_refetched = 1;
        d.refetch_retries = 2;
        d.poison_dropped = 1;
        d.poison_overwritten = 1;
        d.poison_cleared_by_crash = 1;
        d.quarantined_pages = 1;
        d.quarantine_dropped_bytes = 4096;
        assert!(d.any());
        // All four fates accounted: no poison outstanding.
        assert_eq!(d.poison_accounted(), d.poisoned_blocks);

        let a = MemStats { dram: d, ..MemStats::new() };
        let text = a.to_string();
        assert!(text.contains("dram("), "text={text}");
        assert!(text.contains("quarantines=1"), "text={text}");
        assert!(!MemStats::new().to_string().contains("dram("));
    }

    #[test]
    fn unrecoverable_outcome_counts_separately() {
        let mut s = MemStats::new();
        s.record_crash(&crash_event(10, RecoveryOutcome::Unrecoverable));
        s.record_crash(&crash_event(20, RecoveryOutcome::CLast));
        assert_eq!(s.crashes_injected, 2);
        assert_eq!(s.recoveries_unrecoverable, 1);
        assert_eq!(s.recoveries_to_clast, 1);
        assert_eq!(s.recoveries_to_cpenult, 0);
        assert_eq!(
            s.crashes_injected,
            s.recoveries_to_clast + s.recoveries_to_cpenult + s.recoveries_unrecoverable
        );
        assert!(s.to_string().contains("unrecoverable=1"));
        assert_eq!(RecoveryOutcome::Unrecoverable.to_string(), "unrecoverable");
        assert_eq!(RecoveryStep::VerifyMacs.to_string(), "verify-macs");
    }

    #[test]
    fn security_stats_conserve_and_show() {
        let mut c = SecurityStats::default();
        assert!(!c.any());
        c.blocks_encrypted = 10;
        c.blocks_verified = 8;
        c.counter_persists = 3;
        c.counter_bytes = 24;
        c.tree_node_persists = 5;
        c.tree_bytes = 320;
        c.root_persists = 3;
        c.counters_replayed = 2;
        c.crypto_cycles = Cycle::new(400);
        c.tampers_injected = 3;
        c.tampers_detected = 2;
        c.classified_tamper = 1;
        c.classified_torn = 1;
        c.classified_media = 0;
        c.verify_fallbacks = 1;
        c.unrecoverable = 1;
        assert!(c.any());
        // Conservation: every detection classified once and resolved once.
        assert_eq!(c.classified_total(), c.tampers_detected);
        assert_eq!(c.detections_accounted(), c.tampers_detected);
        assert!(c.tampers_injected >= c.tampers_detected);

        let a = MemStats { security: c, ..MemStats::new() };
        let text = a.to_string();
        assert!(text.contains("security("), "text={text}");
        assert!(text.contains("tampers=2/3"), "text={text}");
        assert!(!MemStats::new().to_string().contains("security("));
    }

    #[test]
    fn health_rung_ladder_is_ordered_and_displays() {
        assert!(HealthRung::Healthy < HealthRung::Wounded);
        assert!(HealthRung::Wounded < HealthRung::ReadOnly);
        assert!(HealthRung::ReadOnly < HealthRung::FailSafe);
        assert_eq!(HealthRung::default(), HealthRung::Healthy);
        assert_eq!(HealthRung::Healthy.to_string(), "healthy");
        assert_eq!(HealthRung::Wounded.to_string(), "wounded");
        assert_eq!(HealthRung::ReadOnly.to_string(), "read-only");
        assert_eq!(HealthRung::FailSafe.to_string(), "fail-safe");
    }

    #[test]
    fn health_stats_conserve_and_show() {
        let mut h = HealthStats::default();
        assert!(!h.any());
        h.evaluations = 10;
        h.demotions = 3;
        h.promotions = 2;
        h.stores_rejected = 5;
        h.emergency_checkpoints = 4;
        h.scrub_deferrals = 1;
        h.rung_persists = 10;
        h.rehydrations = 2;
        assert!(h.any());
        // Ladder conservation: promotion only climbs back what a demotion
        // descended.
        assert!(h.promotions <= h.demotions);

        let a = MemStats { health: h, ..MemStats::new() };
        let text = a.to_string();
        assert!(text.contains("health("), "text={text}");
        assert!(text.contains("rejected=5"), "text={text}");
        assert!(!MemStats::new().to_string().contains("health("));
    }

    #[test]
    fn retries_show_split_by_the_loop_that_spent_them() {
        let mut a = MemStats::new();
        assert!(!a.to_string().contains("retry("));
        a.media.retries = 6;
        a.media.recovery_retries = 2;
        a.dram.refetch_retries = 3;
        let text = a.to_string();
        assert!(text.contains("retry(media=4 recovery=2 dram=3)"), "text={text}");
        // DRAM re-reads alone still show the section.
        let mut dram = MemStats::new();
        dram.dram.refetch_retries = 1;
        assert!(dram.to_string().contains(" retry(media=0 recovery=0 dram=1)"));
    }

    #[test]
    fn wpq_stats_conserve_and_show() {
        let mut w = WpqStats::default();
        assert!(!w.any());
        w.enqueued = 10;
        w.drained = 6;
        w.dropped_at_crash = 3;
        w.fences = 2;
        w.fence_stall_cycles = Cycle::new(40);
        w.reorder_window_max = 5;
        assert!(w.any());
        // Conservation: enqueued == drained + dropped_at_crash + outstanding.
        assert_eq!(w.outstanding(), 1);
        assert_eq!(w.enqueued, w.drained + w.dropped_at_crash + w.outstanding());

        let a = MemStats { wpq: w, ..MemStats::new() };
        let text = a.to_string();
        assert!(text.contains("wpq(enq=10 drained=6 dropped=3 outstanding=1"), "text={text}");
        assert!(text.contains("fences=2"), "text={text}");
        assert!(!MemStats::new().to_string().contains("wpq("));
    }
}
