//! The ThyNVM memory controller.
//!
//! [`ThyNvm`] combines:
//!
//! * the **timing layer** — DRAM/NVM devices, write queues, translation
//!   table costs, checkpoint-job scheduling, cooperation stalls — which
//!   produces the performance numbers of §5; and
//! * the **functional layer** — real bytes in copy-on-write images of the
//!   visible contents, `C_last`, `C_penult` and the checkpoint in flight —
//!   which makes the three-version consistency protocol *testable*: crash
//!   at any cycle, recover, and compare contents.
//!
//! # Store path (Figure 6a)
//!
//! A store first probes the PTT. A PTT hit writes the DRAM working page —
//! unless the page is frozen by an in-flight checkpoint, in which case the
//! write is absorbed by block remapping into the DRAM block buffer (§3.4
//! cooperation). A PTT miss uses block remapping: while no checkpoint is in
//! flight the working copy is written directly to NVM, overwriting
//! `C_penult` (§3.2); while one is in flight `C_penult` must be preserved,
//! so the write is buffered in the DRAM Working Data Region (§4.1).
//!
//! # Checkpoint order (Figure 6b)
//!
//! 1. drain DRAM-buffered block working copies to NVM,
//! 2. persist the BTT (and CPU state),
//! 3. write dirty DRAM pages back to the alternate NVM checkpoint region,
//! 4. persist the PTT, flush the NVM write queue, and atomically set the
//!    checkpoint-complete flag.
//!
//! # Modeling notes (deviations documented in DESIGN.md)
//!
//! * Functional stores are keyed by *physical* address; the region-A/B
//!   alternation affects only the timing layer (NVM row-buffer behaviour
//!   and traffic), not content correctness, which is governed by the
//!   image each checkpoint captures.
//! * Scheme switching (§3.4) is decided from the ending epoch's store
//!   counters at checkpoint start and applied when the system is next
//!   quiescent (job retirement), half an epoch later than the paper — the
//!   paper likewise hides migration in the execution phase.
//! * Cooperation blocks buffered for a frozen PTT page are merged into the
//!   DRAM page when the job retires (one DRAM write each) instead of being
//!   persisted twice.

use std::collections::VecDeque;

use thynvm_mem::{
    BlockRun, Device, DeviceKind, DramEccModel, EccReadFault, FaultModel, PersistBuffer, SecurityModel,
    SparseStore, WpqCrashReport, WpqKind, WriteQueue,
};
use thynvm_types::{
    AccessKind, BlockIndex, CkptMode, CkptPhase, Cycle, Error, FaultKind, FxHashMap, HealthRung,
    HwAddr, MemRequest, MemStats, MemorySystem, NvmWriteClass, PageIndex, PhysAddr, RecoveryStep,
    RetryPolicy, SystemConfig, BLOCK_BYTES, NVM_CLEAN_MISS_NS, PAGE_BYTES, ROW_BYTES,
    TABLE_LOOKUP_NS,
};

use crate::epoch::{CkptJob, EpochState};
use crate::health::{
    HealthMonitor, HealthSignals, EMERGENCY_DIVISOR, READONLY_WAL_REDOS, SCRUB_BUDGET_NS,
};
use crate::layout::{AddressSpace, Region};
use crate::table::{Btt, BttEntry, Ptt, WactiveLoc};

/// Bytes persisted per BTT/PTT entry when checkpointing metadata (Figure 5
/// entries round up to 8 bytes).
const META_ENTRY_BYTES: u64 = 8;

/// CRC word appended to each serialized metadata image (BTT, PTT) and to
/// the commit record when integrity protection is enabled.
const META_CRC_BYTES: u64 = 8;

/// Nanoseconds to compute/verify one 64 B block's CRC (a few XOR/shift
/// stages in the controller pipeline).
const CRC_NS_PER_BLOCK: u64 = 2;

/// Domain-separation tag for deriving the modeled MAC key from the
/// security seed.
const TAG_MAC_KEY: u64 = 0x4d41_434b; // "MACK"

/// Size of the checkpointed CPU state in bytes (registers + store
/// buffers); modeled as a single flush to the backup region.
const CPU_STATE_BYTES: u64 = 4 * 1024;

/// Capacity of each of the NVM and DRAM write queues (requests in flight).
const WRITE_QUEUE_ENTRIES: usize = 64;

/// A latent media fault injected into persisted checkpoint state.
///
/// The fault is consulted at the next recovery and applies to whichever
/// checkpoint is `C_last` then; with no completed checkpoint it stays armed
/// (there is no persisted state to corrupt yet). Integrity verification
/// (when [`thynvm_types::MediaFaultConfig::integrity`] is on) detects the
/// corruption and recovery falls back to `C_penult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaFault {
    /// The checkpoint's multi-word commit record is torn: only a prefix of
    /// its words persisted, so its checksum can never verify.
    TornCommitRecord,
    /// A single bit of `C_last`'s checkpointed data flipped, failing that
    /// block's per-64 B CRC.
    ClastBitFlip {
        /// Physical address of the corrupted byte.
        addr: u64,
    },
    /// The serialized PTT metadata image in the backup region is corrupted,
    /// failing its metadata checksum.
    CorruptPttMetadata,
}

/// An adversarial tamper injected into persisted secure-mode state.
///
/// Unlike [`MediaFault`] (accidental corruption, modeled as latent flags),
/// a tamper *really mutates* the persisted bytes or the security-metadata
/// model out-of-band, the way an attacker with physical NVM access would.
/// The next recovery's MAC / integrity-tree verification must therefore
/// detect it by recomputation, not by consulting a flag. Armed via
/// [`ThyNvm::inject_tamper`]; applied at the next crash once a completed
/// checkpoint exists (until then it stays armed — there is nothing
/// authenticated to forge yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperFault {
    /// A byte of `C_last`'s committed data is overwritten in place: a
    /// content forgery that the checkpoint MAC rejects.
    ClastData {
        /// Physical address of the forged byte.
        addr: u64,
    },
    /// The persisted encryption-counter table is rolled back to a stale
    /// generation (a counter-replay attack); the integrity-tree root no
    /// longer authenticates it.
    StaleCounterTable,
    /// The security-metadata root record is torn — power was lost while it
    /// streamed to NVM, so it never authenticates.
    TornRootMeta,
    /// Bytes of *both* checkpoint images are forged: no authenticated
    /// state survives, and recovery must refuse to replay either image
    /// ([`Error::IntegrityUnrecoverable`]) rather than serve forged data.
    BothImages {
        /// Physical address of the forged byte (in each image).
        addr: u64,
    },
}

/// Result of a crash recovery (§4.5).
#[must_use = "the report says which checkpoint survived — dropping it hides rollbacks"]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Number of epochs whose checkpoints had completed — the state the
    /// system rolled back to.
    pub recovered_checkpoints: u64,
    /// Whether an in-flight (incomplete) checkpoint was discarded, i.e. the
    /// system recovered to `C_penult` rather than `C_last`.
    pub rolled_back_incomplete: bool,
    /// Pages restored from NVM into the DRAM working region.
    pub restored_pages: usize,
    /// Whether `C_last` had *completed* but failed media-integrity
    /// verification, so recovery discarded it and restored the retained
    /// penultimate image instead.
    pub integrity_fallback: bool,
    /// Whether *both* checkpoint images failed secure-mode authentication,
    /// or `C_last` failed verification after a rollback or an earlier
    /// fallback left no `C_penult`: recovery refused to replay unverified
    /// data and reset to the provably-empty image
    /// ([`Error::IntegrityUnrecoverable`]).
    pub unrecoverable: bool,
    /// Simulated duration of the recovery procedure, including every
    /// attempt aborted by a nested crash.
    pub recovery_cycles: Cycle,
    /// The steps of the final (successful) recovery attempt, with the
    /// cycle each completed at. Step boundaries are exactly where a
    /// queued crash point can interrupt recovery.
    pub steps: Vec<(RecoveryStep, Cycle)>,
    /// Crash points that fired *during* this recovery (each aborted an
    /// attempt, which then restarted from the persisted commit record).
    pub nested_crashes: u64,
    /// Recovery attempts run: `nested_crashes` aborted ones plus the
    /// final successful pass.
    pub attempts: u64,
}

/// Result of one crash injected through [`ThyNvm::arm_crash_point`]:
/// the observability record, the §4.5 recovery report, and the cycle at
/// which the rebooted system resumes. Journaled as [`EventKind::Crash`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedCrash {
    /// Where the crash landed and what recovery did.
    pub event: thynvm_types::CrashEvent,
    /// The recovery report, as returned by [`ThyNvm::crash_and_recover`].
    pub report: RecoveryReport,
    /// Cycle at which the recovered system accepts requests again.
    pub resume_at: Cycle,
}

/// One entry of the controller's event journal, drained by
/// [`ThyNvm::take_events`]. Entries appear in the order the controller
/// learned them: a top-level crash is appended once its recovery has run,
/// so the flush and any nested crashes of that recovery precede it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The cycle the event happened at (a crash's power-fail cycle).
    pub cycle: Cycle,
    /// What happened.
    pub kind: EventKind,
}

/// What a journal [`Event`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A queued crash point fired during normal operation and recovery
    /// ran to completion.
    Crash(InjectedCrash),
    /// A queued crash point fired inside a running recovery and aborted
    /// that attempt; `recovery_step` names the interrupted step.
    NestedCrash(thynvm_types::CrashEvent),
    /// The persist buffer's partial flush at a power failure — in
    /// particular whether the in-flight commit marker was salvaged.
    WpqFlush(WpqCrashReport),
    /// A fault the controller absorbed without failing the request:
    /// media corruption, exhausted retries or spares, an unabsorbable BTT
    /// overflow, a quarantine ([`Error::DramPoisonLost`] names the rolled
    /// back range), an unrecoverable recovery, a skipped §4.4 fence, or a
    /// store the health ladder refused.
    Error(Error),
}

/// The recovery verdicts that decide a crash's
/// [`RecoveryOutcome`](thynvm_types::RecoveryOutcome) and the rung the
/// health ladder rehydrates to, as recovery learns them.
#[derive(Debug, Clone, Copy, Default)]
struct Verdict {
    rolled_back_incomplete: bool,
    integrity_fallback: bool,
    unrecoverable: bool,
    /// A MAC or integrity-tree failure this recovery sealed.
    tamper_detected: bool,
    /// WAL records this recovery found torn and redid.
    wal_redos: u64,
}

/// One completed checkpoint as recovery finds it: its image, the MAC over
/// the image and the health rung its commit record persisted.
#[derive(Debug)]
struct Checkpoint {
    /// Checkpoints completed when it committed; 0 is the empty image the
    /// system starts from.
    number: u64,
    /// The checkpointed contents, physical address space. It shares every
    /// page a later commit did not rewrite with that commit's image
    /// (copy-on-write).
    store: SparseStore,
    /// MAC over `store` under the modeled key, taken on `visible` at the
    /// capture. Models the authenticated checkpoint root stored in NVM.
    /// Stays the empty image's MAC while secure mode is off.
    mac: u64,
    /// Rung persisted with the commit record: what recovery rehydrates
    /// when it restores this checkpoint.
    rung: HealthRung,
}

impl Checkpoint {
    /// Checkpoint 0: the empty image, carrying `rung`.
    fn empty(mac_key: u64, rung: HealthRung) -> Self {
        let mut store = SparseStore::new();
        Self { number: 0, mac: store.mac(mac_key), store, rung }
    }

    /// Whether the image still authenticates under `mac_key`. The walk
    /// reads the MAC sums the capture left in the image and re-hashes only
    /// the pages written since, which is none unless they were forged.
    fn authentic(&mut self, mac_key: u64) -> bool {
        let mac = self.store.mac(mac_key);
        debug_assert_eq!(mac, self.store.recomputed_mac(mac_key), "checkpoint {}", self.number);
        mac == self.mac
    }
}

/// What power loss wipes besides the checkpoint job in flight: the
/// per-epoch counters and the input block, which live only in controller
/// SRAM. [`ThyNvm::new`] builds it, and a crash replaces it whole before
/// recovery starts, so recovery only ever sees rebooted state and no
/// field here can outlive a crash by being left off a reset list. The job
/// owns what it captured and goes with `EpochState::job`.
#[derive(Debug)]
struct Volatile {
    /// Counts snapshotted at checkpoint start, applied at job retirement.
    pending_switch_counts: FxHashMap<PageIndex, u32>,
    /// Per-epoch page-granularity store counts driving scheme switching.
    page_store_counts: FxHashMap<PageIndex, u32>,
    /// Blocks that gained a working copy this epoch (BTT pressure gauge:
    /// the epoch ends early when this approaches the BTT budget).
    epoch_dirty_blocks: usize,
    /// Head-of-line blocking of the controller's request queue: requests
    /// arriving earlier than this start at this cycle (set when a store
    /// must wait for an in-flight checkpoint, e.g. PageOnly frozen pages).
    input_blocked_until: Cycle,
}

impl Volatile {
    fn new() -> Self {
        Self {
            pending_switch_counts: FxHashMap::default(),
            page_store_counts: FxHashMap::with_capacity_and_hasher(1024, Default::default()),
            epoch_dirty_blocks: 0,
            input_blocked_until: Cycle::ZERO,
        }
    }
}

/// The ThyNVM hybrid persistent-memory controller.
///
/// See the [crate documentation](crate) for an overview and example.
#[derive(Debug)]
pub struct ThyNvm {
    cfg: SystemConfig,
    space: AddressSpace,
    dram: Device,
    nvm: Device,
    nvm_wq: WriteQueue,
    dram_wq: WriteQueue,
    btt: Btt,
    ptt: Ptt,
    epoch: EpochState,
    stats: MemStats,
    /// What a crash wipes; replaced whole by [`Self::crash_and_recover`].
    volatile: Volatile,

    /// Next DRAM block-buffer slot (round-robin). A crash keeps the
    /// cursor where it is: the slot decides the DRAM row a buffered block
    /// lands in, so resetting it would move every later timing.
    next_block_slot: u32,
    /// BTT spills: inserts forced past capacity while an overflow-triggered
    /// epoch end was pending (bounded by one platform event).
    btt_spills: u64,

    // ---- functional layer ----
    /// The completed checkpoints recovery can restore, oldest first:
    /// checkpoint 0 (the empty image) pinned at the front, `C_last` at the
    /// back, `C_penult` the record numbered one below it when held, and
    /// the §6 archive the newest `archive_depth` records behind checkpoint
    /// 0. A commit pushes, a fallback pops, a rollback truncates and an
    /// unrecoverable reset clears.
    history: VecDeque<Checkpoint>,
    /// Current software-visible contents. Recovery resets them to a clone
    /// of `C_last`, and between recoveries they only gain pages, so every
    /// image captured from them holds every page `C_last` holds.
    visible: SparseStore,
    /// Crashes, flushes and absorbed faults not yet drained by
    /// [`Self::take_events`].
    journal: Vec<Event>,
    /// How many past checkpoints the §6 archive exposes (0 disables it).
    archive_depth: usize,
    /// Distribution of epoch execution-phase lengths (cycles).
    epoch_length_hist: thynvm_types::Histogram,
    /// Distribution of checkpointing-phase durations (cycles).
    job_duration_hist: thynvm_types::Histogram,

    // ---- fault injection ----
    /// Queued crash points, sorted ascending: power fails at the end of
    /// each listed cycle. The earliest fires at the first request whose
    /// timeline passes it, and recovery runs *as of that cycle* — effects
    /// scheduled to complete later (an in-flight checkpoint's commit,
    /// queued writes) are lost. Points still queued when a crash fires
    /// survive into the recovery phase and interrupt it at recovery-step
    /// boundaries (nested crashes); points beyond the end of recovery
    /// stay armed for later requests.
    crash_points: Vec<Cycle>,

    // ---- media faults & self-healing ----
    /// The NVM media-fault model, when `cfg.media.enabled`.
    fault: Option<FaultModel>,
    /// Persistent bad-block table: device block base → spare slot. Blocks
    /// listed here have been permanently remapped away from worn-out cells;
    /// the table survives crashes (it is persisted NVM metadata). Slots are
    /// handed out in order, so its length is the number of spares used.
    bad_blocks: FxHashMap<u64, u64>,
    /// Retired scheme-switch snapshot, recycled into the next epoch's
    /// `pending_switch_counts` so the per-epoch snapshot reuses one
    /// allocation instead of growing a fresh map from empty every time.
    switch_scratch: FxHashMap<PageIndex, u32>,
    /// Reused victim buffer for [`Self::reclaim_quiescent`], so the
    /// overflow path does not allocate on every table-pressure event.
    reclaim_scratch: Vec<BlockIndex>,
    /// A corruption detected on the current read but *not* healed (no
    /// integrity checking): `(physical byte, XOR mask)` to apply to the
    /// delivered buffer.
    pending_corruption: Option<(u64, u8)>,
    /// Latent media faults in the next recovery's `C_last`, one entry per
    /// kind: a torn commit record, a flipped data bit, corrupt PTT
    /// metadata.
    injected_media: Vec<FaultKind>,
    /// Sequence number of the next write-ahead-log record in the backup
    /// region (bad-block remaps, recovery-side integrity fallbacks).
    wal_seq: u64,

    // ---- DRAM fault domain (ECC, poison, quarantine) ----
    /// The DRAM SEC-DED ECC model, when `cfg.dram_fault.enabled`.
    dram_fault: Option<DramEccModel>,

    // ---- secure persistent memory mode ----
    /// The counter-mode encryption / integrity-tree model, when
    /// `cfg.security.enabled`.
    security: Option<SecurityModel>,
    /// The modeled MAC key fed to [`SparseStore::mac`], derived from the
    /// security seed. An attacker without it cannot produce a forgery that
    /// verifies.
    mac_key: u64,
    /// Armed tamper, applied at the next crash once a completed checkpoint
    /// exists to forge.
    injected_tamper: Option<TamperFault>,

    // ---- volatile persist buffer (WPQ fault domain) ----
    /// The content-carrying persist buffer, when `cfg.wpq.enabled`. Writes
    /// pass through it before durability; `wpq_fence` is the §4.4 ordering
    /// primitive, and a crash partially flushes a seeded per-bank prefix.
    pbuf: Option<PersistBuffer>,
    /// Test hook: skip the next `wpq_fence`, so the ordering audit (and
    /// lint rule L10's runtime counterpart) can be exercised.
    wpq_skip_next_fence: bool,

    // ---- graceful-degradation health ladder ----
    /// The hysteresis-driven degradation ladder, when `cfg.health.enabled`.
    health_mon: Option<HealthMonitor>,
}

impl ThyNvm {
    /// Creates a controller with the given configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        let mac_key = thynvm_types::rng::mix(cfg.security.seed, TAG_MAC_KEY);
        Self {
            space: AddressSpace::new(),
            dram: Device::new(DeviceKind::Dram, cfg.dram_geometry),
            nvm: Device::new(DeviceKind::Nvm, cfg.nvm_geometry),
            nvm_wq: WriteQueue::new(WRITE_QUEUE_ENTRIES),
            dram_wq: WriteQueue::new(WRITE_QUEUE_ENTRIES),
            btt: Btt::new(cfg.thynvm.btt_entries),
            ptt: Ptt::new(cfg.thynvm.ptt_entries.min(cfg.thynvm.dram_pages() as usize)),
            epoch: EpochState::new(),
            stats: MemStats::new(),
            volatile: Volatile::new(),
            next_block_slot: 0,
            btt_spills: 0,
            history: VecDeque::from([Checkpoint::empty(mac_key, HealthRung::Healthy)]),
            visible: SparseStore::new(),
            journal: Vec::new(),
            archive_depth: 0,
            epoch_length_hist: thynvm_types::Histogram::new(),
            job_duration_hist: thynvm_types::Histogram::new(),
            crash_points: Vec::new(),
            fault: cfg
                .media
                .enabled
                .then(|| FaultModel::new(&cfg.media)),
            bad_blocks: FxHashMap::default(),
            switch_scratch: FxHashMap::default(),
            reclaim_scratch: Vec::new(),
            pending_corruption: None,
            injected_media: Vec::new(),
            wal_seq: 0,
            dram_fault: cfg.dram_fault.enabled.then(|| DramEccModel::new(&cfg.dram_fault)),
            security: cfg.security.enabled.then(SecurityModel::default),
            mac_key,
            injected_tamper: None,
            pbuf: cfg.wpq.enabled.then(|| PersistBuffer::new(cfg.wpq, cfg.nvm_geometry)),
            wpq_skip_next_fence: false,
            health_mon: cfg.health.enabled.then(|| HealthMonitor::new(cfg.health)),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The Block Translation Table (inspection).
    pub fn btt(&self) -> &Btt {
        &self.btt
    }

    /// The Page Translation Table (inspection).
    pub fn ptt(&self) -> &Ptt {
        &self.ptt
    }

    /// Epoch bookkeeping (inspection).
    pub fn epoch_state(&self) -> &EpochState {
        &self.epoch
    }

    /// The NVM device (inspection of row-buffer statistics and wear).
    pub fn nvm_device(&self) -> &Device {
        &self.nvm
    }

    /// The DRAM device (inspection of row-buffer statistics). DRAM does
    /// not wear out, so its [`Device::wear`] stays zero.
    pub fn dram_device(&self) -> &Device {
        &self.dram
    }

    /// Number of BTT inserts forced past capacity (should stay tiny; the
    /// overflow handshake ends the epoch within one platform event).
    pub fn btt_spills(&self) -> u64 {
        self.btt_spills
    }

    /// Drains the event journal: every crash, nested crash, persist-buffer
    /// flush and absorbed fault since the last call, in the order the
    /// controller recorded them. The journal is always on; entries appear
    /// only when one of those happens.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.journal)
    }

    /// Content fingerprint of the software-visible byte image (see
    /// [`SparseStore::fingerprint`]): equal fingerprints mean byte-identical
    /// contents. Crash-storm harnesses use this to assert that every
    /// nested-crash recovery converges to the exact image an uninterrupted
    /// recovery produces.
    pub fn visible_fingerprint(&self) -> u64 {
        self.visible.fingerprint()
    }

    // ------------------------------------------------------------------
    // Fault injection (crash points)
    // ------------------------------------------------------------------

    /// Arms a crash point: power fails at the *end* of cycle `at`.
    ///
    /// The boundary convention matches [`ThyNvm::crash_and_recover`]
    /// everywhere: an effect whose device commit lands at or before `at`
    /// (a write retiring, a checkpoint's completion flag at `done_at`)
    /// survives; anything scheduled later is lost. Accordingly the crash
    /// fires at the first subsequent request whose timeline is *strictly
    /// past* `at` — including while the controller is *waiting* on an
    /// in-flight checkpoint — and recovery runs as of cycle `at`. The
    /// triggering request itself is dropped if it mutates state (power was
    /// already gone); loads proceed against the recovered image.
    ///
    /// Re-arming replaces *all* previously queued points (use
    /// [`ThyNvm::queue_crash_point`] to stack additional ones). A fired
    /// crash appears in [`ThyNvm::take_events`] as an [`EventKind::Crash`]
    /// entry.
    pub fn arm_crash_point(&mut self, at: Cycle) {
        self.crash_points.clear();
        self.crash_points.push(at);
    }

    /// Queues an additional crash point without disturbing those already
    /// armed. Points fire earliest-first; a point still queued when an
    /// earlier one fires *survives into the recovery phase* and interrupts
    /// it at the next recovery-step boundary (a nested crash), forcing
    /// recovery to restart from the persisted commit record. Points beyond
    /// the end of recovery stay armed for later requests.
    pub fn queue_crash_point(&mut self, at: Cycle) {
        let idx = self.crash_points.partition_point(|&p| p <= at);
        self.crash_points.insert(idx, at);
    }

    /// The earliest queued crash point, if any.
    pub fn armed_crash_point(&self) -> Option<Cycle> {
        self.crash_points.first().copied()
    }

    /// All queued crash points, earliest first.
    pub fn armed_crash_points(&self) -> &[Cycle] {
        &self.crash_points
    }

    /// Disarms the *earliest* queued crash point without firing it,
    /// returning its cycle if one was queued. Later points stay armed.
    ///
    /// Disarming is the only way to stop a queued point from reaching the
    /// recovery phase: once a crash fires, every still-queued point that
    /// recovery's timeline overruns fires as a nested crash.
    pub fn disarm_crash_point(&mut self) -> Option<Cycle> {
        if self.crash_points.is_empty() {
            None
        } else {
            Some(self.crash_points.remove(0))
        }
    }

    /// Fires the armed crash point if the timeline has passed it: checks
    /// `now` against the armed cycle and performs the crash + recovery.
    /// Returns the resume cycle if the crash fired. Harnesses may call this
    /// between requests; the controller calls it on every request entry.
    ///
    /// Power fails at the *end* of the armed cycle, so a request entering
    /// exactly at it is still serviced; the crash fires strictly after.
    pub fn poll_crash(&mut self, now: Cycle) -> Option<Cycle> {
        self.crash_before(now).then(|| self.trigger_crash())
    }

    /// Whether the earliest queued crash point fires strictly before cycle
    /// `t`. Power fails at the end of the armed cycle, so this is the one
    /// statement of the crash boundary: a request entering at `t`, a job
    /// completing at `t`, a wait until `t` and a recovery step ending at
    /// `t` are each cut off exactly when it holds.
    fn crash_before(&self, t: Cycle) -> bool {
        self.crash_points.first().is_some_and(|&at| at < t)
    }

    /// Performs the earliest queued crash: classifies where it landed, runs
    /// §4.5 recovery as of that cycle, journals the crash, and returns the
    /// cycle at which the rebooted system resumes.
    fn trigger_crash(&mut self) -> Cycle {
        let at = self.crash_points.remove(0);

        // Classify the crash site before recovery tears the state down.
        let (phase, mut inflight) = match &self.epoch.job {
            Some(job) if !job.is_done(at) => {
                (job.phase_at(at), job.inflight_writebacks_at(at))
            }
            _ => (CkptPhase::Execution, 0),
        };
        inflight += self.nvm_wq.len_at(at) + self.dram_wq.len_at(at);

        let report = self.crash_and_recover(at);
        let v = Verdict {
            rolled_back_incomplete: report.rolled_back_incomplete,
            integrity_fallback: report.integrity_fallback,
            unrecoverable: report.unrecoverable,
            ..Verdict::default()
        };
        let event = self.crash_event(at, (phase, inflight), None, v);
        let resume_at = at + report.recovery_cycles;
        self.record(at, EventKind::Crash(InjectedCrash { event, report, resume_at }));
        resume_at
    }

    /// The one record of a crash point firing at `at`, for both crash
    /// paths: the checkpoint phase and in-flight writebacks it landed on,
    /// the recovery step a nested crash interrupted, and the outcome the
    /// recovery verdict `v` implies (for a nested crash, the aborted
    /// attempt's verdict so far). Counts the crash in the stats.
    fn crash_event(
        &mut self,
        at: Cycle,
        (phase, inflight_writebacks): (CkptPhase, usize),
        recovery_step: Option<RecoveryStep>,
        v: Verdict,
    ) -> thynvm_types::CrashEvent {
        let outcome = if v.unrecoverable {
            thynvm_types::RecoveryOutcome::Unrecoverable
        } else if v.integrity_fallback {
            thynvm_types::RecoveryOutcome::CPenultIntegrityFallback
        } else if v.rolled_back_incomplete {
            thynvm_types::RecoveryOutcome::CPenult
        } else {
            thynvm_types::RecoveryOutcome::CLast
        };
        let event = thynvm_types::CrashEvent {
            cycle: at,
            epoch: self.epoch.active_epoch,
            phase,
            inflight_writebacks,
            outcome,
            recovery_step,
        };
        self.stats.record_crash(&event);
        event
    }

    /// Appends one entry to the event journal.
    fn record(&mut self, cycle: Cycle, kind: EventKind) {
        self.journal.push(Event { cycle, kind });
    }

    // ------------------------------------------------------------------
    // Media faults & self-healing
    // ------------------------------------------------------------------

    /// Mutable access to the media-fault model, e.g. to arm guaranteed
    /// transient flips ([`FaultModel::arm_transient_flips`]) in tests and
    /// demos.
    pub fn fault_model_mut(&mut self) -> Option<&mut FaultModel> {
        self.fault.as_mut()
    }

    /// Number of blocks permanently remapped to spare locations via the
    /// bad-block table.
    pub fn bad_block_remaps(&self) -> usize {
        self.bad_blocks.len()
    }

    /// Arms a latent media fault in persisted checkpoint state. Consulted
    /// at the next recovery: whichever checkpoint is `C_last` then fails
    /// its integrity verification and recovery falls back to `C_penult`.
    /// With no completed checkpoint at recovery time the fault stays armed.
    pub fn inject_media_fault(&mut self, fault: MediaFault) {
        let kind = match fault {
            MediaFault::TornCommitRecord => FaultKind::TornWrite,
            MediaFault::ClastBitFlip { .. } => FaultKind::BitFlip,
            MediaFault::CorruptPttMetadata => FaultKind::Metadata,
        };
        if !self.injected_media.contains(&kind) {
            self.injected_media.push(kind);
        }
    }

    // ------------------------------------------------------------------
    // Secure persistent memory mode (counter-mode encryption, MAC tree)
    // ------------------------------------------------------------------

    /// The secure-mode model (encryption counters, integrity tree), when
    /// `cfg.security.enabled` (inspection).
    pub fn security_model(&self) -> Option<&SecurityModel> {
        self.security.as_ref()
    }

    /// Arms an adversarial tamper in persisted secure-mode state. Applied
    /// at the next crash once a completed checkpoint exists (nothing
    /// authenticated to forge before then — it stays armed); recovery's
    /// MAC / integrity-tree verification then detects it by recomputation
    /// and classifies it. Ignored when secure mode is off — without MACs
    /// nothing *models* the attacker's physical access, and the harness
    /// asserts detection, so arming would be a silent no-op lie.
    pub fn inject_tamper(&mut self, fault: TamperFault) {
        if self.security.is_some() {
            self.injected_tamper = Some(fault);
        }
    }

    /// The tamper armed but not yet applied, if any.
    pub fn armed_tamper(&self) -> Option<TamperFault> {
        self.injected_tamper
    }

    // ------------------------------------------------------------------
    // Volatile persist buffer (WPQ fault domain)
    // ------------------------------------------------------------------

    /// The persist buffer, when `cfg.wpq.enabled` (inspection).
    pub fn persist_buffer(&self) -> Option<&PersistBuffer> {
        self.pbuf.as_ref()
    }

    /// Test hook: suppress every [`Self::wpq_fence`] until the next
    /// commit-record push, so the ordering audit (the runtime counterpart
    /// of lint rule L10) can be exercised without editing the checkpoint
    /// path. Cleared by [`Self::wpq_push_marker`] once the audit has run.
    pub fn skip_next_fence(&mut self) {
        self.wpq_skip_next_fence = true;
    }

    /// §4.4 ordering fence: stalls until the persist buffer has drained,
    /// so everything enqueued afterwards retires no earlier than what came
    /// before. A no-op returning `now` when the buffer is off — the
    /// WPQ-off timeline is bit-identical to a build without the feature.
    fn wpq_fence(&mut self, now: Cycle) -> Cycle {
        if self.pbuf.is_some() && self.wpq_skip_next_fence {
            return now;
        }
        match self.pbuf.as_mut() {
            Some(p) => {
                let done = p.fence(now);
                self.stats.wpq = *p.stats();
                done
            }
            None => now,
        }
    }

    /// Mirrors an NVM device write into the persist buffer (timing-only
    /// entry: content plumbing lives in the buffer's own unit tests and
    /// sink). Returns the cycle the issuer may proceed — later than
    /// `issue` when the buffer was full and back-pressured.
    fn wpq_push(&mut self, hw: HwAddr, issue: Cycle, retire: Cycle, kind: WpqKind) -> Cycle {
        match self.pbuf.as_mut() {
            Some(p) => {
                let resume = p.push(hw, &[], issue, retire, kind);
                self.stats.wpq = *p.stats();
                resume
            }
            None => issue,
        }
    }

    /// Enqueues a commit-record persist, auditing §4.4 on the way: if data
    /// entries are still pending at `issue`, the mandatory fence was
    /// skipped and the violation is journaled.
    fn wpq_push_marker(&mut self, hw: HwAddr, issue: Cycle, retire: Cycle) -> Cycle {
        self.wpq_skip_next_fence = false;
        // Audit on *held* entries, not retire times: a correct round
        // fences (empties the buffer) immediately before the marker, so
        // anything still held here means the fence was skipped.
        let pending = self.pbuf.as_ref().map_or(0, |p| p.held_data());
        if pending > 0 {
            let err = Error::UnfencedCommit { addr: PhysAddr::new(hw.raw()), pending };
            self.record(issue, EventKind::Error(err));
        }
        self.wpq_push(hw, issue, retire, WpqKind::CommitMarker)
    }

    // ------------------------------------------------------------------
    // Graceful-degradation health ladder
    // ------------------------------------------------------------------

    /// The current health-ladder rung (`Healthy` when the ladder is off).
    pub fn health_rung(&self) -> HealthRung {
        self.health_mon.as_ref().map_or(HealthRung::Healthy, HealthMonitor::rung)
    }

    /// The health monitor, when `cfg.health.enabled` (inspection).
    pub fn health_monitor(&self) -> Option<&HealthMonitor> {
        self.health_mon.as_ref()
    }

    /// The rung persisted with `C_last`'s commit record — what recovery
    /// would rehydrate if a crash struck right now and `C_last` verified.
    /// Reference runs feed this to [`PersistenceOracle::record_health`]
    /// after each drained checkpoint.
    ///
    /// [`PersistenceOracle::record_health`]: crate::PersistenceOracle::record_health
    pub fn clast_health_rung(&self) -> HealthRung {
        self.clast().rung
    }

    /// The rung captured for the checkpoint currently in flight, if any —
    /// the value its 64 B health record carries. Rotates into
    /// [`Self::clast_health_rung`] when the job retires.
    pub fn pending_health_rung(&self) -> Option<HealthRung> {
        self.epoch.job.as_ref().and_then(|j| j.rung)
    }

    /// Pages allocated across the functional stores (visible + in-flight
    /// capture + every held checkpoint image). A page that several images
    /// share copy-on-write counts once per image that holds it, so this
    /// bounds the host memory from above. Soak harnesses bound it to show
    /// the simulator's footprint stays proportional to the touched working
    /// set, not to simulated time.
    pub fn functional_footprint_pages(&self) -> usize {
        let captured = self.epoch.job.as_ref().and_then(|j| j.image.as_ref()).map(|(img, _)| img);
        self.visible.allocated_pages()
            + captured.map_or(0, SparseStore::allocated_pages)
            + self.history.iter().map(|c| c.store.allocated_pages()).sum::<usize>()
    }

    /// Samples the observable health signals from state the controller
    /// already maintains (no device traffic, no cycles charged).
    fn health_signals(&self) -> HealthSignals {
        let scrub_backlog = self.fault.as_ref().map_or(0, |f| {
            f.stuck_cells()
                .filter(|(addr, _)| !self.bad_blocks.contains_key(&(addr & !(BLOCK_BYTES - 1))))
                .count() as u64
        });
        HealthSignals {
            spares_used: self.bad_blocks.len() as u64,
            spares_total: self.cfg.media.spare_blocks,
            retries_total: self.stats.media.retries,
            refetches_total: self.stats.dram.refetch_retries + self.stats.dram.corrected_flips,
            spare_exhausted_total: self.stats.media.spare_exhausted,
            scrub_backlog,
            outstanding_poison: self.dram_fault.as_ref().map_or(0, |e| e.outstanding() as u64),
            tampers_detected_total: self.stats.security.tampers_detected,
        }
    }

    /// One ladder evaluation at an epoch boundary (job retirement). A no-op
    /// with the ladder off, so disabled runs stay bit-identical.
    fn health_evaluate(&mut self) {
        if self.health_mon.is_none() {
            return;
        }
        let signals = self.health_signals();
        let mon = self.health_mon.as_mut().expect("invariant: is_none() checked above");
        mon.observe_epoch(&signals, &mut self.stats.health);
    }

    /// Rejects a store at `now` when the ladder rung forbids mutation
    /// (`ReadOnly` or `FailSafe`), journaling the rejection.
    fn degraded_store_rejection(&mut self, now: Cycle) -> Result<(), Error> {
        let rung = self.health_rung();
        if rung < HealthRung::ReadOnly {
            return Ok(());
        }
        self.stats.health.stores_rejected += 1;
        let err = Error::Degraded { rung };
        self.record(now, EventKind::Error(err.clone()));
        Err(err)
    }

    /// Whether the Wounded posture's emergency-early epoch timer has
    /// expired: at `Wounded` or worse the epoch length divides by
    /// [`EMERGENCY_DIVISOR`] so less work is at risk per crash.
    fn emergency_epoch_due(&self, now: Cycle) -> bool {
        let Some(mon) = self.health_mon.as_ref() else {
            return false;
        };
        if mon.rung() < HealthRung::Wounded {
            return false;
        }
        let shortened = Cycle::new(self.cfg.thynvm.epoch_max().raw() / EMERGENCY_DIVISOR);
        self.epoch.due(now, shortened)
    }

    // ------------------------------------------------------------------
    // DRAM fault domain (ECC, poison containment, quarantine)
    // ------------------------------------------------------------------

    /// The DRAM SEC-DED ECC model, when `cfg.dram_fault.enabled`
    /// (inspection).
    pub fn dram_ecc(&self) -> Option<&DramEccModel> {
        self.dram_fault.as_ref()
    }

    /// Mutable access to the DRAM ECC model, e.g. to arm guaranteed
    /// corrected flips ([`DramEccModel::arm_corrected_flips`]) or poison
    /// ([`DramEccModel::arm_poison`]) in tests and demos.
    pub fn dram_ecc_mut(&mut self) -> Option<&mut DramEccModel> {
        self.dram_fault.as_mut()
    }

    /// Clears the DRAM poison on the 64 B working-region blocks
    /// intersecting `[off, off+len)` and returns how many were poisoned:
    /// none when the ECC model is off or the working region is not DRAM
    /// (NVM placement carries the media model's protection instead).
    fn clear_poison(&mut self, off: u64, len: u64) -> u64 {
        if self.cfg.thynvm.working_region != thynvm_types::WorkingRegion::Dram {
            return 0;
        }
        let Some(ecc) = self.dram_fault.as_mut() else { return 0 };
        let poisoned = ecc.poisoned_in(off, len);
        for &b in &poisoned {
            ecc.clear_block(b);
        }
        poisoned.len() as u64
    }

    /// Whether `[off, off+len)` of the working region is free of DRAM
    /// poison — the allocation-free query for the per-access load path,
    /// where the answer is almost always "yes".
    fn dram_poison_free(&self, off: u64, len: u64) -> bool {
        if self.cfg.thynvm.working_region != thynvm_types::WorkingRegion::Dram {
            return true;
        }
        self.dram_fault.as_ref().is_none_or(|e| e.first_poisoned_in(off, len).is_none())
    }

    /// Functional side of a quarantine: the software-visible bytes of
    /// `[base, base + len)` roll back to the last captured checkpoint —
    /// the image in flight when a job captured one, else `C_last` — so the
    /// poisoned dirty data survives nowhere, not even in the next capture.
    // lint: recovery-path
    fn quarantine_rollback(&mut self, base: u64, len: u64) {
        let mut img = vec![0u8; len as usize];
        let captured = self.epoch.job.as_ref().and_then(|j| j.image.as_ref()).map(|(img, _)| img);
        let last = captured.unwrap_or(&self.clast().store);
        last.read(HwAddr::new(base), &mut img);
        self.visible.write(HwAddr::new(base), &img);
    }

    /// Quarantines a poisoned *dirty* PTT page: its dirty data is dropped
    /// (the poison must never reach NVM and become durable corruption),
    /// the software-visible range rolls back to the last checkpoint, and
    /// the page leaves the page-writeback scheme — it re-enters through
    /// the ordinary §3.3 promotion counters if it stays hot. When the
    /// page's `C_last` lives in a checkpoint region it is copied home
    /// NVM-to-NVM so reads keep resolving after the PTT entry is freed;
    /// the poisoned DRAM copy is never the source. Returns the cycle the
    /// copy-home lands.
    // lint: recovery-path
    fn quarantine_page(&mut self, page: PageIndex, now: Cycle) -> Cycle {
        let Some(entry) = self.ptt.remove(page) else { return now };
        let off = self.space.working_offset(self.space.working_page(entry.slot));
        let mut done = now;
        if let Some(region) = entry.clast_region {
            let src = self.space.checkpoint_page(region, page);
            done = self.nvm_read(src, PAGE_BYTES as u32, done);
            let dst = self.remapped(self.space.home(page.base_addr()));
            done = self.nvm_write(dst, PAGE_BYTES as u32, done, NvmWriteClass::Migration);
        }
        // With no checkpointed copy the Home Region still holds the page's
        // pre-promotion bytes — nothing durable ever left it — so no copy
        // is needed.
        self.stats.dram.poison_dropped += self.clear_poison(off, PAGE_BYTES);
        self.quarantine_rollback(page.base_addr().raw(), PAGE_BYTES);
        self.stats.dram.quarantined_pages += 1;
        self.stats.dram.quarantine_dropped_bytes += PAGE_BYTES;
        self.stats.pages_demoted += 1;
        let err = Error::DramPoisonLost { addr: page.base_addr(), bytes: PAGE_BYTES };
        self.record(now, EventKind::Error(err));
        done
    }

    /// Quarantines a poisoned DRAM-buffered block working copy (block
    /// remapping's cooperation/overlap buffer): the block's dirty data is
    /// dropped and its visible bytes roll back to the last checkpoint; the
    /// BTT entry keeps only its checkpointed versions. `off` is the
    /// block-aligned working-region offset of the buffer slot.
    // lint: recovery-path
    fn quarantine_buffered_block(&mut self, block: BlockIndex, off: u64, now: Cycle) -> Cycle {
        self.stats.dram.poison_dropped += self.clear_poison(off, BLOCK_BYTES);
        let state = self.btt.get_mut(block).map(|e| {
            e.wactive = None;
            (e.pending.is_none(), e.clast_region.is_none())
        });
        match state {
            // Nothing checkpointed either: the entry is empty, drop it.
            Some((true, true)) => {
                self.btt.remove(block);
            }
            // Only checkpointed copies remain: the entry just went
            // quiescent, so hint it for victim selection.
            Some((true, false)) => self.btt.note_quiescent(block),
            _ => {}
        }
        self.quarantine_rollback(block.base_addr().raw(), BLOCK_BYTES);
        self.stats.dram.quarantine_dropped_bytes += BLOCK_BYTES;
        let err = Error::DramPoisonLost { addr: block.base_addr(), bytes: BLOCK_BYTES };
        self.record(now, EventKind::Error(err));
        now
    }

    /// Heals a poisoned-but-recoverable DRAM block: bounded DRAM re-reads
    /// (each still fails — the stored bits themselves are corrupt), then
    /// one NVM read of the checkpointed copy at `src` and a DRAM rewrite.
    /// The caller guarantees the DRAM block is clean, i.e. `src` holds its
    /// exact bytes, so the visible image is untouched. Returns the cycle
    /// the healing DRAM write lands.
    // lint: recovery-path
    fn dram_refetch_block(&mut self, block: BlockIndex, off: u64, src: HwAddr, now: Cycle) -> Cycle {
        let mut done = now;
        for (_, backoff) in RetryPolicy::DRAM.schedule() {
            done += backoff;
            done = self.dram.access(HwAddr::new(off), AccessKind::Read, BLOCK_BYTES as u32, done);
            self.stats.dram_reads += 1;
            self.stats.dram_read_bytes += BLOCK_BYTES;
            self.stats.dram.refetch_retries += 1;
        }
        done = self.nvm_data_read(block, src, BLOCK_BYTES as u32, done);
        if let Some(ecc) = self.dram_fault.as_mut() {
            if ecc.clear_block(off & !(BLOCK_BYTES - 1)) {
                self.stats.dram.poison_refetched += 1;
            }
        }
        self.working_write(off, BLOCK_BYTES as u32, done)
    }

    /// Attributes CRC compute/verify work for `bytes` of data. Pure stats
    /// (the CRC stages are pipelined with the burst transfers); attributed
    /// only while integrity checking is enabled.
    fn charge_crc(&mut self, bytes: u64) {
        if !self.cfg.media.integrity {
            return;
        }
        // Zero bytes touch zero CRC blocks: attribute nothing. (This once
        // charged `max(1)` blocks, so a zero-length transfer inflated
        // `crc_checked_blocks`; no current call site passes zero, but the
        // accounting must not rely on that.)
        let blocks = bytes.div_ceil(BLOCK_BYTES);
        if blocks == 0 {
            return;
        }
        self.stats.media.crc_checked_blocks += blocks;
        self.stats.media.crc_check_cycles += Cycle::from_ns(CRC_NS_PER_BLOCK * blocks);
    }

    /// Attributes counter-mode encryption + MAC work for `bytes` of data
    /// (`encrypt` distinguishes the write path from read-side decrypt +
    /// verify). Pure stats, like [`Self::charge_crc`]. A no-op with secure
    /// mode off, so disabled runs stay bit-identical.
    fn charge_crypto(&mut self, bytes: u64, encrypt: bool) {
        if self.security.is_some() {
            self.stats.security.charge_crypto(bytes, encrypt);
        }
    }

    // ------------------------------------------------------------------
    // The NVM access path
    // ------------------------------------------------------------------

    /// One NVM device read, counted in `nvm_reads` / `nvm_read_bytes`.
    /// CRC checks, retries and decryption stay with the caller, which
    /// knows what the read is for.
    fn nvm_read(&mut self, src: HwAddr, bytes: u32, start: Cycle) -> Cycle {
        self.stats.nvm_reads += 1;
        self.stats.nvm_read_bytes += u64::from(bytes);
        self.nvm.access(src, AccessKind::Read, bytes, start)
    }

    /// Writes one NVM data cell: the device write, its traffic class, the
    /// wear model and counter-mode re-encryption. A write that pushes its
    /// row across the stuck-at threshold leaves a permanently bad cell for
    /// the read path and the scrubber. Every touched 64 B block is
    /// re-encrypted under a bumped write counter (counter reuse would break
    /// CTR-mode confidentiality), which dirties the counter table the next
    /// epoch boundary persists. The persist-buffer push and any data CRC
    /// stay with the caller: the migration copies of quarantine, demotion
    /// and reclaim never enter the buffer, and only checkpoint writeback
    /// charges data CRCs.
    fn nvm_write(&mut self, dst: HwAddr, bytes: u32, start: Cycle, class: NvmWriteClass) -> Cycle {
        let done = self.nvm.access(dst, AccessKind::Write, bytes, start);
        self.note_nvm_write(dst, bytes, class);
        done
    }

    /// What [`Self::nvm_write`] does besides the device write: the traffic
    /// class, the wear model and counter-mode re-encryption of `bytes` at
    /// `dst`.
    fn note_nvm_write(&mut self, dst: HwAddr, bytes: u32, class: NvmWriteClass) {
        self.stats.record_nvm_write(u64::from(bytes), class);
        if let Some(fault) = self.fault.as_mut() {
            if fault.record_write(dst, bytes).is_some() {
                self.stats.media.record_fault(FaultKind::StuckAt);
            }
        }
        if let Some(sec) = self.security.as_mut() {
            sec.note_write(dst.raw(), u64::from(bytes));
            self.charge_crypto(u64::from(bytes), true);
        }
    }

    /// Persists one metadata record of `bytes` at `dst`: at least one 64 B
    /// burst on the device, `bytes` of traffic in `class`, and one
    /// persist-buffer entry. A record is no data cell, so it skips wear and
    /// re-encryption. Any CRC stays with the caller, because the security
    /// counters, tree and root carry none.
    fn persist_record(&mut self, dst: HwAddr, bytes: u64, start: Cycle, class: NvmWriteClass) -> Cycle {
        let burst = u32::try_from(bytes.max(64)).unwrap_or(u32::MAX);
        let done = self.nvm.access(dst, AccessKind::Write, burst, start);
        self.stats.record_nvm_write(bytes, class);
        self.wpq_push(dst, start, done, WpqKind::Data);
        done
    }

    /// Resolves the bad-block indirection: accesses to a remapped block go
    /// to its spare location instead of the worn-out original. A spare that
    /// wore out is remapped in turn, so the lookup follows the chain to its
    /// last spare; a remap of the resolved block then always keys a block
    /// the table does not hold yet.
    fn remapped(&self, mut hw: HwAddr) -> HwAddr {
        if self.bad_blocks.is_empty() {
            return hw;
        }
        let offset = hw.raw() % BLOCK_BYTES;
        while let Some(&slot) = self.bad_blocks.get(&(hw.raw() - offset)) {
            hw = self.space.spare_block(slot).offset(offset);
        }
        hw
    }

    /// Whether the spare-block pool has been fully consumed: no further
    /// bad-block remaps are possible and the device can no longer heal
    /// itself (reads are still served through bounded CRC retries).
    pub fn spares_exhausted(&self) -> bool {
        self.bad_blocks.len() as u64 >= self.cfg.media.spare_blocks
    }

    /// Remaps the block at device address `base` to a fresh spare slot: the
    /// controller writes an intent record to the write-ahead log, rewrites
    /// the block's good data (which it still holds) to the spare location,
    /// and CRC-seals the log record — only then is the indirection in the
    /// persistent bad-block table effective, so a crash mid-remap leaves a
    /// torn record that is detected and redone, never compounded. Each
    /// block is remapped at most once — later accesses resolve through the
    /// table before touching the media.
    ///
    /// Returns the cycle the seal lands, or `None` when the spare pool is
    /// exhausted: the remap is dropped, `spare_exhausted` is counted, and
    /// the block keeps being served with per-read CRC retries (graceful
    /// degradation).
    // lint: recovery-path
    fn remap_bad_block(&mut self, base: u64, now: Cycle) -> Option<Cycle> {
        if self.spares_exhausted() {
            self.stats.media.spare_exhausted += 1;
            self.record(now, EventKind::Error(Error::SpareExhausted { addr: PhysAddr::new(base) }));
            return None;
        }
        // WAL intent: the (bad block → spare slot) assignment.
        let wal = self.space.backup_wal(self.wal_seq);
        self.wal_seq += 1;
        let t = self.persist_record(wal, 64, now, NvmWriteClass::Migration);
        self.charge_crc(64);
        let slot = self.bad_blocks.len() as u64;
        self.bad_blocks.insert(base, slot);
        let dst = self.space.spare_block(slot);
        let payload_at = self.nvm_write(dst, BLOCK_BYTES as u32, t, NvmWriteClass::Migration);
        self.wpq_push(dst, t, payload_at, WpqKind::Data);
        // §4.4: intent and payload must be durable before the seal that
        // commits them.
        let t = self.wpq_fence(payload_at);
        // CRC seal: the remap commits when this lands.
        let sealed = self.persist_record(wal, 64, t, NvmWriteClass::Migration);
        self.charge_crc(64);
        self.stats.media.wal_seals += 1;
        self.stats.media.remaps += 1;
        Some(sealed)
    }

    /// One NVM data read on the load path: applies the bad-block remap,
    /// charges the device access, and — when media faults are modeled —
    /// runs the detect/heal pipeline. With integrity checking on, a read
    /// that fails its per-64 B CRC is retried with bounded backoff
    /// (transient flips clear on retry); a location that keeps failing is
    /// permanently bad and its block is remapped to a spare. With integrity
    /// off, the corrupted bytes are silently delivered to software.
    // lint: recovery-path
    fn nvm_data_read(&mut self, block: BlockIndex, hw: HwAddr, bytes: u32, now: Cycle) -> Cycle {
        let hw = self.remapped(hw);
        let mut done = self.nvm_read(hw, bytes, now);
        // Secure mode decrypts + MAC-verifies every NVM data read,
        // independent of the media-fault model.
        self.charge_crypto(u64::from(bytes), false);
        if self.fault.is_none() {
            return done;
        }
        self.charge_crc(u64::from(bytes));
        let fault = self.fault.as_mut().expect("invariant: is_none() checked above");
        if fault.is_quiet() {
            // Zero rates, nothing armed, nothing stuck: the model cannot
            // produce a fault and its streams are never consulted, so the
            // consultation is skipped wholesale (counted for the simspeed
            // harness).
            self.stats.perf.nvm_quiet_reads += 1;
            return done;
        }
        let Some(ev) = fault.read_fault(hw, bytes) else {
            return done;
        };
        if ev.kind == FaultKind::BitFlip {
            // Stuck-at cells were counted when the wear model created them.
            self.stats.media.record_fault(FaultKind::BitFlip);
        }
        let fault_offset = ev.addr.saturating_sub(hw.raw()).min(u64::from(bytes) - 1);
        if !self.cfg.media.integrity {
            // No CRCs: nothing detects the corruption; the wrong bytes are
            // delivered to software by the functional layer.
            self.stats.media.silent_corruptions += 1;
            let addr = PhysAddr::new(block.base_addr().raw() + fault_offset);
            self.record(done, EventKind::Error(Error::MediaCorruption { addr, kind: ev.kind }));
            self.pending_corruption = Some((block.base_addr().raw() + fault_offset, ev.mask));
            return done;
        }
        // The CRC rejected the data: retry with bounded backoff.
        let mut healed = false;
        for (_, backoff) in RetryPolicy::MEDIA.schedule() {
            done += backoff;
            done = self.nvm_read(hw, bytes, done);
            self.stats.media.retries += 1;
            self.charge_crc(u64::from(bytes));
            if self.fault.as_mut().expect("invariant: is_none() checked above").read_fault(hw, bytes).is_none() {
                healed = true;
                break;
            }
        }
        if !healed {
            // Every retry failed: the location is permanently bad (a
            // stuck-at cell). Remap the block away from it; with the spare
            // pool drained the block keeps limping along on CRC retries.
            let err = Error::RetriesExhausted {
                addr: PhysAddr::new(block.base_addr().raw() + fault_offset),
                attempts: RetryPolicy::MEDIA.max_attempts(),
            };
            self.record(done, EventKind::Error(err));
            done = self.remap_bad_block(hw.raw() & !(BLOCK_BYTES - 1), done).unwrap_or(done);
        }
        done
    }

    /// The background scrubber: proactively remaps every block whose cells
    /// the wear model has marked stuck, repairing checkpoint regions before
    /// the next epoch reads them. Runs at job retirement — between epochs,
    /// off the critical path.
    fn scrub_media(&mut self, now: Cycle) {
        let cells: Vec<u64> = match self.fault.as_ref() {
            Some(f) => f.stuck_cells().map(|(addr, _)| addr).collect(),
            None => return,
        };
        // Wounded posture: the scrubber gets a bounded cycle budget so it
        // can no longer starve foreground traffic; what it cannot finish is
        // deferred to the next epoch boundary (counted). Off-ladder runs
        // keep the unbudgeted behaviour bit-identically.
        let deadline = self
            .health_mon
            .as_ref()
            .filter(|m| m.rung() >= HealthRung::Wounded)
            .map(|_| now + Cycle::from_ns(SCRUB_BUDGET_NS));
        let mut t = now;
        for cell in cells {
            if self.spares_exhausted() {
                // Nothing left to heal with: stop scrubbing; reads keep
                // being served through bounded CRC retries.
                break;
            }
            if deadline.is_some_and(|d| t > d) {
                self.stats.health.scrub_deferrals += 1;
                break;
            }
            let base = cell & !(BLOCK_BYTES - 1);
            if self.bad_blocks.contains_key(&base) {
                continue; // already remapped away from the bad cell
            }
            // Verify the block (NVM read + CRC), then remap it to a spare.
            t = self.nvm_read(HwAddr::new(base), BLOCK_BYTES as u32, t);
            self.charge_crc(BLOCK_BYTES);
            if let Some(done) = self.remap_bad_block(base, t) {
                t = done;
                self.stats.media.scrub_repairs += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Working Data Region access (placement per §4.1 footnote 3)
    // ------------------------------------------------------------------

    /// Hardware-address offset that keeps an NVM-placed working region
    /// disjoint from the Home Region and Checkpoint Region A on the NVM
    /// device's bank/row mapping.
    const NVM_WORKING_BASE: u64 = 1 << 41;

    /// Writes `bytes` at working-region offset `off`, honoring the
    /// configured placement.
    fn working_write(&mut self, off: u64, bytes: u32, now: Cycle) -> Cycle {
        match self.cfg.thynvm.working_region {
            thynvm_types::WorkingRegion::Dram => {
                let done = self
                    .dram
                    .access(thynvm_types::HwAddr::new(off), AccessKind::Write, bytes, now);
                self.stats.record_dram_write(u64::from(bytes));
                // A whole-block rewrite re-encodes the ECC word: any poison
                // fully covered by the write is gone with the bad bits.
                if let Some(ecc) = self.dram_fault.as_mut() {
                    self.stats.dram.poison_overwritten += ecc.note_write(off, bytes) as u64;
                }
                done
            }
            thynvm_types::WorkingRegion::Nvm => {
                // Straight to the device, not `nvm_write`: the working copy
                // is modeled without wear or re-encryption.
                let done =
                    self.nvm.access(HwAddr::new(Self::NVM_WORKING_BASE + off), AccessKind::Write, bytes, now);
                self.stats.record_nvm_write(u64::from(bytes), NvmWriteClass::Cpu);
                done
            }
        }
    }

    /// Reads `bytes` at working-region offset `off`, honoring the
    /// configured placement.
    fn working_read(&mut self, off: u64, bytes: u32, now: Cycle) -> Cycle {
        match self.cfg.thynvm.working_region {
            thynvm_types::WorkingRegion::Dram => {
                let done =
                    self.dram.access(thynvm_types::HwAddr::new(off), AccessKind::Read, bytes, now);
                self.stats.dram_reads += 1;
                self.stats.dram_read_bytes += u64::from(bytes);
                // Every DRAM read passes through the SEC-DED check: count
                // corrections and register fresh poison here; the *response*
                // (refetch or quarantine) is the caller's, who knows whether
                // the data under the poison is dirty.
                if let Some(ecc) = self.dram_fault.as_mut() {
                    if ecc.is_quiet() {
                        // The SEC-DED model cannot fault: skip the check
                        // (counted for the simspeed harness).
                        self.stats.perf.dram_quiet_reads += 1;
                    } else {
                        match ecc.observe_read(off, bytes) {
                            Some(EccReadFault::Corrected) => {
                                self.stats.dram.corrected_flips += 1;
                            }
                            Some(EccReadFault::Poisoned { fresh: true, .. }) => {
                                self.stats.dram.poisoned_blocks += 1;
                            }
                            _ => {}
                        }
                    }
                }
                done
            }
            thynvm_types::WorkingRegion::Nvm => {
                self.nvm_read(HwAddr::new(Self::NVM_WORKING_BASE + off), bytes, now)
            }
        }
    }

    // ------------------------------------------------------------------
    // Job retirement and version rotation
    // ------------------------------------------------------------------

    /// If the in-flight checkpoint completed by `now`, commit it: its
    /// captured image becomes `C_last`, versions rotate (`pending` →
    /// `C_last`), pages thaw, cooperation blocks merge, and deferred
    /// scheme switches apply.
    fn retire_job_if_done(&mut self, now: Cycle) {
        // A job completing after an armed crash point can never commit:
        // power fails first. Leaving it in place lets the crash trigger
        // find it and roll it back (`C_penult`).
        if self.epoch.job.as_ref().is_some_and(|job| self.crash_before(job.done_at)) {
            return;
        }
        let Some(job) = self.epoch.take_finished_job(now) else {
            return;
        };
        self.commit_job(job);
    }

    /// Blocks at `t` until the checkpoint job running then completes, and
    /// retires it: every wait on the job (a stall, a stop-the-world round,
    /// a drain) goes through here. Power fails mid-wait when an armed crash
    /// point falls before the job's `done_at`: returns `Err` with the cycle
    /// the rebooted system resumes. Otherwise returns the cycle the wait
    /// ends, `t` itself when no job runs at `t`.
    fn wait_for_job(&mut self, t: Cycle) -> Result<Cycle, Cycle> {
        let mut end = t;
        if let Some(done) = self.epoch.job.as_ref().map(|j| j.done_at).filter(|&d| d > t) {
            if self.crash_before(done) {
                return Err(self.trigger_crash());
            }
            end = done;
        }
        self.retire_job_if_done(end);
        Ok(end)
    }

    /// Commits a *taken* checkpoint job: pushes its record onto the
    /// checkpoint history, rotates block/page versions, and applies
    /// deferred scheme switches. Shared by normal retirement and by the
    /// crash-time early-commit path, where the persist buffer's partial
    /// flush salvaged the commit marker of a still-in-flight job.
    fn commit_job(&mut self, job: CkptJob) {
        let retire_at = job.done_at;

        // Functional commit: the image the final round captured becomes
        // `C_last` with the MAC the capture took, and the superseded
        // `C_last` becomes `C_penult`, the fallback should the new one fail
        // verification. An intermediate round captured nothing, so
        // committing it leaves `C_last`'s contents and MAC as they were.
        let last = self.history.back().expect("invariant: checkpoint 0 is never trimmed");
        let (store, mac) = job.image.unwrap_or_else(|| (last.store.clone(), last.mac));

        // The commit record carries the rung its health record persisted;
        // with the ladder off there is none, and `C_last`'s stands.
        let rung = job.rung.unwrap_or(last.rung);
        self.history.push_back(Checkpoint { number: self.epoch.completed, store, mac, rung });
        self.trim_history();

        // Rotate block versions (iteration order does not affect timing
        // here; the merge lists are sorted before their DRAM writes below).
        let mut merge_blocks: Vec<(BlockIndex, u32)> = Vec::new();
        let mut newly_quiescent: Vec<BlockIndex> = Vec::new();
        for (block, entry) in self.btt.iter_mut() {
            if let Some(region) = entry.pending.take() {
                entry.clast_region = Some(region);
                if entry.wactive.is_none() {
                    newly_quiescent.push(block);
                }
            }
            if entry.is_quiescent() {
                // Cooperation block for a page under page writeback: the
                // page's DRAM copy absorbs it (one DRAM write), entry freed.
                if let Some(pe) = self.ptt.get(block.page()).filter(|pe| pe.pending.is_some()) {
                    merge_blocks.push((block, pe.slot));
                }
            }
        }
        // Hint the freshly-quiescent entries for victim selection (ones the
        // merge below drops become stale hints, discarded lazily).
        for block in newly_quiescent {
            self.btt.note_quiescent(block);
        }
        merge_blocks.sort_unstable_by_key(|(b, _)| *b);
        for (block, slot) in merge_blocks {
            self.btt.remove(block);
            let hw = self
                .space
                .working_page(slot)
                .offset(block.slot_in_page() * BLOCK_BYTES);
            let off = self.space.working_offset(hw);
            self.working_write(off, BLOCK_BYTES as u32, retire_at);
        }

        // Rotate page versions, which thaws the pages.
        for (_, entry) in self.ptt.iter_mut() {
            entry.clast_region = entry.pending.take().or(entry.clast_region);
        }

        // Deferred scheme switching (§3.4), now that the system is quiescent.
        self.apply_scheme_switches(retire_at);

        // Background scrubbing between epochs: proactively remap blocks the
        // wear model has marked stuck before the next epoch reads them.
        if self.cfg.media.scrub {
            self.scrub_media(retire_at);
        }

        // Free table pressure: entries belonging only to committed
        // checkpoints are reclaimed once occupancy is high (§4.3 frees
        // penultimate-checkpoint entries at epoch boundaries). The `C_last`
        // copies stranded in Region A migrate home, charged as migration
        // traffic off the critical path.
        if self.btt.len() * 10 >= self.btt.capacity() * 6 {
            let excess = self.btt.len().saturating_sub(self.btt.capacity() * 6 / 10);
            self.reclaim_quiescent(retire_at, excess);
        }

        // Epoch boundary: one health-ladder evaluation over the signals the
        // retired epoch (and its scrub pass) left behind.
        self.health_evaluate();
    }

    /// Whether `C_penult` is kept: only a configuration that can find
    /// `C_last` corrupt (media faults, CRCs or MACs) ever falls back to it.
    fn keeps_penult(&self) -> bool {
        self.fault.is_some() || self.cfg.media.integrity || self.security.is_some()
    }

    /// `C_last`: the newest held checkpoint.
    fn clast(&self) -> &Checkpoint {
        self.history.back().expect("invariant: checkpoint 0 is never trimmed")
    }

    /// `C_penult`: the held checkpoint numbered one below `C_last`, if any.
    fn penult(&self) -> Option<&Checkpoint> {
        let last = self.clast().number;
        self.history.iter().rev().nth(1).filter(|c| c.number + 1 == last)
    }

    /// [`Self::penult`], for the MAC walk to store its sums in.
    fn penult_mut(&mut self) -> Option<&mut Checkpoint> {
        let last = self.clast().number;
        self.history.iter_mut().rev().nth(1).filter(|c| c.number + 1 == last)
    }

    /// The §6 archive: the newest `archive_depth` checkpoints behind
    /// checkpoint 0, oldest first.
    fn archive(&self) -> impl Iterator<Item = &Checkpoint> {
        let held = self.history.len() - 1;
        self.history.iter().skip(1 + held.saturating_sub(self.archive_depth))
    }

    /// Drops the oldest checkpoints behind checkpoint 0 until the archive
    /// and, while a verifier can reject `C_last`, `C_penult` are all that
    /// remain besides `C_last`.
    fn trim_history(&mut self) {
        let keep = self.archive_depth.max(1 + usize::from(self.keeps_penult()));
        while self.history.len() > 1 + keep {
            self.history.remove(1);
        }
    }

    /// Applies promotions/demotions decided from the previous epoch's store
    /// counters.
    fn apply_scheme_switches(&mut self, now: Cycle) {
        let counts = std::mem::take(&mut self.volatile.pending_switch_counts);
        self.apply_scheme_switches_with(&counts, now);
        // Recycle the snapshot's allocation for the next epoch.
        self.switch_scratch = counts;
        self.switch_scratch.clear();
    }

    /// The body of [`Self::apply_scheme_switches`], with the store-counter
    /// snapshot borrowed so its allocation can be recycled by the caller.
    fn apply_scheme_switches_with(&mut self, counts: &FxHashMap<PageIndex, u32>, now: Cycle) {
        if self.cfg.thynvm.mode == CkptMode::BlockOnly {
            return;
        }
        let promote = u32::from(self.cfg.thynvm.promote_threshold);
        let demote = u32::from(self.cfg.thynvm.demote_threshold);
        let force_pages = self.cfg.thynvm.mode == CkptMode::PageOnly;

        // Promotions: hot pages move under page writeback (most promotions
        // already happened intra-epoch; this sweeps stragglers).
        let mut hot_pages: Vec<PageIndex> = counts
            .iter()
            .filter(|(_, &count)| count >= promote || (force_pages && count > 0))
            .map(|(&page, _)| page)
            .collect();
        hot_pages.sort_unstable();
        for page in hot_pages {
            if self.ptt.get(page).is_none() {
                self.promote_page(page, now);
            }
        }

        if force_pages {
            return; // PageOnly never demotes
        }

        // Demotions: cold pages leave DRAM (migration NVM write).
        let mut cold: Vec<PageIndex> = self
            .ptt
            .iter()
            .filter(|(page, e)| {
                !e.dirty
                    && e.pending.is_none()
                    && counts.get(page).copied().unwrap_or(0) <= demote
            })
            .map(|(page, _)| page)
            .collect();
        cold.sort_unstable();
        for page in cold {
            self.demote_page(page, now);
        }
    }

    /// Moves `page` under the page-writeback scheme: allocates a PTT entry
    /// and DRAM slot, assembles the page's current contents into DRAM (bulk
    /// NVM read + DRAM fill), and retires the page's block-remapping state.
    /// Returns the DRAM slot, or `None` if the PTT/DRAM is full (in
    /// `PageOnly` mode a clean resident page is demoted to make room).
    fn promote_page(&mut self, page: PageIndex, now: Cycle) -> Option<u32> {
        if self.ptt.get(page).is_some() {
            return self.ptt.get(page).map(|e| e.slot);
        }
        if self.ptt.is_full() && self.cfg.thynvm.mode == CkptMode::PageOnly {
            // Page-only ablation: evict a clean, idle page (CoW-style).
            let victim = self
                .ptt
                .iter()
                .filter(|(_, e)| !e.dirty && e.pending.is_none())
                .map(|(p, _)| p)
                .min();
            if let Some(victim) = victim {
                self.demote_page(victim, now);
            }
        }
        let slot = self.ptt.insert(page)?;
        // Assemble the page: bulk NVM read + DRAM fill.
        self.nvm_read(self.space.home(page.base_addr()), PAGE_BYTES as u32, now);
        let off = self.space.working_offset(self.space.working_page(slot));
        self.working_write(off, PAGE_BYTES as u32, now);
        self.stats.pages_promoted += 1;
        // The DRAM copy is now authoritative: block entries without an
        // in-flight checkpoint are dropped; ones still being checkpointed
        // keep their pending state and are swept after retirement.
        for block in page.blocks() {
            let drop_it = match self.btt.get_mut(block) {
                Some(e) => {
                    e.wactive = None;
                    e.pending.is_none()
                }
                None => false,
            };
            if drop_it {
                self.btt.remove(block);
            }
        }
        Some(slot)
    }

    /// Demotes `page` out of DRAM: one 4 KiB migration write to the Home
    /// Region, PTT entry freed.
    fn demote_page(&mut self, page: PageIndex, now: Cycle) {
        let Some(entry) = self.ptt.remove(page) else { return };
        let off = self.space.working_offset(self.space.working_page(entry.slot));
        self.working_read(off, PAGE_BYTES as u32, now);
        // The page is clean (demotion skips dirty pages), so under DRAM
        // poison its exact bytes still exist intact in NVM: the migration
        // copy is sourced from `C_last` instead — NVM-to-NVM, counted as
        // refetches because no data is lost. With no checkpointed copy the
        // Home Region already holds the page's bytes, so the demotion is
        // pure bookkeeping.
        let refetched = self.clear_poison(off, PAGE_BYTES);
        self.stats.dram.poison_refetched += refetched;
        let dst = self.remapped(self.space.home(page.base_addr()));
        if refetched == 0 {
            self.nvm_write(dst, PAGE_BYTES as u32, now, NvmWriteClass::Migration);
        } else if let Some(region) = entry.clast_region {
            self.nvm_read(self.space.checkpoint_page(region, page), PAGE_BYTES as u32, now);
            self.nvm_write(dst, PAGE_BYTES as u32, now, NvmWriteClass::Migration);
        }
        self.stats.pages_demoted += 1;
    }

    /// Working-region offset of `addr`'s byte in the working copy of its
    /// page, which sits in page slot `slot`.
    fn page_working_offset(&self, slot: u32, addr: PhysAddr) -> u64 {
        self.space.working_offset(self.space.working_page(slot)) + addr.page_offset()
    }

    /// Number of 64 B blocks `[addr, addr + bytes)` touches.
    fn blocks_touched(addr: PhysAddr, bytes: u32) -> u64 {
        (addr.block_offset() + u64::from(bytes)).div_ceil(BLOCK_BYTES)
    }

    /// The blocks `[addr, addr + bytes)` touches, in order, each as the
    /// address and length of its part of the span (the first and last may
    /// be partial).
    fn blocks_of(addr: PhysAddr, bytes: u32) -> impl Iterator<Item = (PhysAddr, u32)> {
        let end = addr.raw() + u64::from(bytes);
        let next = |a: u64| (a | (BLOCK_BYTES - 1)) + 1;
        std::iter::successors(Some(addr.raw()), move |&a| Some(next(a)))
            .take_while(move |&a| a < end)
            .map(move |a| (PhysAddr::new(a), (next(a).min(end) - a) as u32))
    }

    /// The page-writeback store: writes `[addr, addr + bytes)`, which lies
    /// in one page, into the page's working copy as one device access per
    /// 64 B block, each pushed to the DRAM write queue, and marks the page
    /// dirty. A DRAM working copy takes the run as one `access_blocks`; an
    /// NVM-placed one takes one [`Self::working_write`] per block. Returns
    /// the cycle the issuer may resume, or `None`, touching nothing, when
    /// the PTT does not hold the page.
    fn write_to_page(&mut self, addr: PhysAddr, bytes: u32, now: Cycle) -> Option<Cycle> {
        let entry = self.ptt.get_mut(addr.page())?;
        entry.dirty = true;
        let slot = entry.slot;
        let mut resume = now;
        if self.cfg.thynvm.working_region == thynvm_types::WorkingRegion::Nvm {
            for (at, chunk) in Self::blocks_of(addr, bytes) {
                let done = self.working_write(self.page_working_offset(slot, at), chunk, now);
                resume = resume.max(self.dram_wq.push(done, now));
            }
            return Some(resume);
        }
        let off = self.page_working_offset(slot, addr);
        let push = |run| resume = resume.max(self.dram_wq.push_run(run, now));
        self.dram
            .access_blocks(HwAddr::new(off), AccessKind::Write, bytes, now, push);
        self.stats.dram_writes += Self::blocks_touched(addr, bytes);
        self.stats.dram_write_bytes += u64::from(bytes);
        // Each whole-block rewrite re-encodes its ECC word (see
        // `working_write`); a partial first or last block does not.
        if let Some(ecc) = self.dram_fault.as_mut() {
            self.stats.dram.poison_overwritten += ecc.note_write(off, bytes) as u64;
        }
        Some(resume)
    }

    /// Whether a DRAM working-copy read can be served without the poison
    /// response: the working region is DRAM and the ECC model is absent or
    /// cannot fault.
    fn quiet_dram_reads(&self) -> bool {
        self.cfg.thynvm.working_region == thynvm_types::WorkingRegion::Dram
            && self.dram_fault.as_ref().is_none_or(DramEccModel::is_quiet)
    }

    /// The page-writeback load: reads `[addr, addr + bytes)`, which lies in
    /// one page, from the page's working copy. Returns the completion, or
    /// `None`, touching nothing, when the PTT does not hold the page.
    ///
    /// While [`Self::quiet_dram_reads`] holds, the read is one DRAM access
    /// per 64 B block and no poison can appear. Otherwise `bytes` lies in
    /// one block, whose read may discover poison and respond to it.
    fn read_from_page(&mut self, addr: PhysAddr, bytes: u32, now: Cycle) -> Option<Cycle> {
        let page = addr.page();
        let entry = self.ptt.get(page)?;
        let (slot, dirty, durable) =
            (entry.slot, entry.dirty, entry.pending.or(entry.clast_region));
        let off = self.page_working_offset(slot, addr);
        if self.quiet_dram_reads() {
            let mut done = now;
            self.dram.access_blocks(HwAddr::new(off), AccessKind::Read, bytes, now, |run| {
                done = done.max(run.last());
            });
            let blocks = Self::blocks_touched(addr, bytes);
            self.stats.dram_reads += blocks;
            self.stats.dram_read_bytes += u64::from(bytes);
            if self.dram_fault.is_some() {
                // The SEC-DED check is skipped (see `working_read`).
                self.stats.perf.dram_quiet_reads += blocks;
            }
            return Some(done);
        }
        debug_assert_eq!(Self::blocks_touched(addr, bytes), 1, "a read that may fault is one block");
        let done = self.working_read(off, bytes, now);
        if self.dram_poison_free(off, u64::from(bytes)) {
            return Some(done);
        }
        if dirty {
            // Dirty data under the poison: the bytes exist nowhere
            // else, so there is nothing to re-fetch. Quarantine now
            // rather than let the poison age toward a checkpoint.
            return Some(self.quarantine_page(page, done));
        }
        // Clean (or frozen-and-captured) page: the block's exact bytes
        // sit intact in NVM, in the region the running job writes the page
        // to or else in `C_last`'s — re-fetch them and heal the DRAM copy.
        let block = addr.block();
        let in_page = block.slot_in_page() * BLOCK_BYTES;
        let src = match durable {
            Some(r) => self.space.checkpoint_page(r, page).offset(in_page),
            None => self.space.home(block.base_addr()),
        };
        Some(self.dram_refetch_block(block, off, src, done))
    }

    // ------------------------------------------------------------------
    // Store / load paths
    // ------------------------------------------------------------------

    /// The §4.3 overflow rule, for a block the full BTT holds no entry
    /// for: reclaim committed entries; only when none can be replaced is
    /// the early epoch end flagged and the spill past capacity counted
    /// (bounded by one platform event).
    fn btt_overflow(&mut self, now: Cycle) {
        if self.reclaim_quiescent(now, 64) == 0 {
            if self.epoch.overflow_pending {
                self.record(now, EventKind::Error(Error::TableFull { table: "BTT" }));
            }
            self.epoch.overflow_pending = true;
            self.btt_spills += 1;
        }
    }

    /// Claims `entry` for the working copy of a write in this epoch:
    /// returns where the copy goes, and whether the entry newly got one.
    /// A copy the epoch already placed takes the write in place: an NVM
    /// copy coalesces, and a buffered one keeps coalescing in the DRAM
    /// buffer (rare: buffered earlier while a job ran). Otherwise a
    /// `buffered` write (a job runs, §4.1) takes the next DRAM buffer slot,
    /// and an NVM one the region opposite `C_last` (§3.2).
    fn claim_working_copy(entry: &mut BttEntry, buffered: bool, next_slot: &mut u32) -> (WactiveLoc, bool) {
        let loc = match (entry.wactive, buffered) {
            (Some(loc @ WactiveLoc::DramBuffered { .. }), _) | (Some(loc @ WactiveLoc::Nvm(_)), false) => {
                return (loc, false);
            }
            (_, true) => {
                let slot = *next_slot;
                *next_slot = slot.wrapping_add(1);
                WactiveLoc::DramBuffered { slot }
            }
            (None, false) => WactiveLoc::Nvm(entry.clast_region.map_or(Region::A, Region::other)),
        };
        entry.wactive = Some(loc);
        (loc, true)
    }

    /// Writes `bytes` of a block's working copy into DRAM block-buffer
    /// slot `slot` (§4.1).
    fn buffered_write(&mut self, slot: u32, bytes: u32, now: Cycle) -> Cycle {
        let hw = self.space.working_block(slot, self.ptt.capacity());
        let off = self.space.working_offset(hw);
        let done = self.working_write(off, bytes, now);
        self.dram_wq.push(done, now)
    }

    /// Issues a store run's pending NVM span, the run blocks `[from, to)`
    /// whose NVM copies sit back to back on the device from `base` (the
    /// address of `from`'s block), as one `Device::access_blocks` write at
    /// `now`: the completions, bank state and device statistics of one
    /// access per block (`access_blocks_equals_one_access_per_block`). Its
    /// row runs enter the NVM write queue as one `push_run` each, which
    /// equals one push per block (`push_run_equals_one_push_per_completion`).
    /// Each block then takes the hooks of [`Self::nvm_write`] and its
    /// persist-buffer entry, in block order. Returns the cycle the issuer
    /// may resume; `now` for no span.
    fn nvm_write_span(&mut self, span: Option<(PhysAddr, HwAddr)>, to: u64, now: Cycle, class: NvmWriteClass) -> Cycle {
        const { assert!(ROW_BYTES >= PAGE_BYTES, "a span meets at most one row boundary") };
        let Some((from, base)) = span else { return now };
        let bytes = (to - from.raw()) as u32;
        let mut rows = [BlockRun { first: Cycle::ZERO, step: Cycle::ZERO, count: 0 }; 2];
        let (mut n, mut resume) = (0, now);
        let queue = &mut self.nvm_wq;
        self.nvm.access_blocks(base.offset(from.block_offset()), AccessKind::Write, bytes, now, |run| {
            resume = resume.max(queue.push_run(run, now));
            rows[n] = run;
            n += 1;
        });
        let first = from.block().base_addr().raw();
        for ((at, chunk), k) in Self::blocks_of(from, bytes).zip(0..) {
            let done = if k < rows[0].count { rows[0].at(k) } else { rows[1].at(k - rows[0].count) };
            let hw = base.offset(at.block().base_addr().raw() - first);
            self.note_nvm_write(hw, chunk, class);
            resume = resume.max(self.wpq_push(hw, now, done, WpqKind::Data));
        }
        resume
    }

    /// Adds the block at `at`, whose NVM copy sits at device address `hw`,
    /// to a run's pending `span`: it joins the span when it continues it on
    /// the device; otherwise `issue` sends the span out first and a new one
    /// starts at the block. Returns what `issue` returned, or `now`.
    fn extend_span(
        span: &mut Option<(PhysAddr, HwAddr)>,
        at: PhysAddr,
        hw: HwAddr,
        now: Cycle,
        issue: impl FnOnce(Option<(PhysAddr, HwAddr)>) -> Cycle,
    ) -> Cycle {
        let block = at.block().base_addr().raw();
        match *span {
            Some((from, base)) if base.raw() + (block - from.block().base_addr().raw()) == hw.raw() => now,
            _ => issue(span.replace((at, hw))),
        }
    }

    /// The Figure 6(a) store path for `[addr, addr + bytes)`, which lies
    /// in one page: a page run of a request, or one block of the
    /// checkpoint's cache flush. Every block of the run counts toward the
    /// page's §4.2 store count at once; then [`Self::write_counted`] serves
    /// it. Returns the cycle the issuer may resume (or a crash's resume).
    fn write_run(&mut self, addr: PhysAddr, bytes: u32, now: Cycle, class: NvmWriteClass) -> Cycle {
        let count = self.volatile.page_store_counts.entry(addr.page()).or_insert(0);
        let before = *count;
        *count += Self::blocks_touched(addr, bytes) as u32;
        self.write_counted(addr, bytes, before, now, class)
    }

    /// Serves a counted store run; `before` is the page's store count
    /// before its first block. A page the PTT holds takes page writeback,
    /// the run written whole. While the running job writes the page back
    /// (frozen), block remapping absorbs the run in DRAM (§3.4
    /// cooperation), or, in the PageOnly ablation, the store waits the
    /// writeback out. Any other page takes block remapping
    /// ([`Self::write_remapped`]), promoted (§4.2) from the block whose
    /// count reaches the threshold (every block in the PageOnly ablation,
    /// none in BlockOnly).
    fn write_counted(&mut self, addr: PhysAddr, bytes: u32, before: u32, now: Cycle, class: NvmWriteClass) -> Cycle {
        let Some(entry) = self.ptt.get(addr.page()) else {
            // Intra-epoch promotion relieves BTT pressure: the block whose
            // store count reaches the threshold moves the page under page
            // writeback.
            let promote_at = match self.cfg.thynvm.mode {
                CkptMode::Dual => u64::from(self.cfg.thynvm.promote_threshold).saturating_sub(u64::from(before) + 1),
                CkptMode::PageOnly => 0,
                CkptMode::BlockOnly => u64::MAX,
            };
            return self.write_remapped(addr, bytes, promote_at, now, class);
        };
        // Frozen: the running job writes the page back.
        let frozen = entry.pending.is_some() && self.epoch.job_running(now);
        if !frozen {
            return self.write_to_page(addr, bytes, now).expect("page resident");
        }
        if self.cfg.thynvm.mode != CkptMode::PageOnly {
            // §3.4 cooperation: absorb via block remapping in DRAM.
            return self.write_remapped(addr, bytes, u64::MAX, now, class);
        }
        // No block scheme to absorb the write: the store blocks the
        // controller until the page's writeback completes — the Table 1
        // quadrant-❹ pain the dual scheme removes.
        let done = match self.wait_for_job(now) {
            Ok(done) => done,
            Err(resume) => return resume.max(now),
        };
        self.stats.ckpt_stall_cycles += done.saturating_sub(now);
        self.volatile.input_blocked_until = self.volatile.input_blocked_until.max(done);
        // The commit thawed the page, or its promotions evicted it (the
        // ablation's CoW eviction): the first block is served as it would
        // be at `done`, and the rest at `now`, as each would be on its own.
        let head = (BLOCK_BYTES - addr.block_offset()).min(u64::from(bytes)) as u32;
        let first = self.write_counted(addr, head, before, done, class);
        if head == bytes {
            return first;
        }
        first.max(self.write_counted(addr.offset(u64::from(head)), bytes - head, before + 1, now, class))
    }

    /// Block remapping (§3.2) for the store run `[addr, addr + bytes)` of
    /// a page the PTT lacks or holds frozen. Each block claims its BTT
    /// entry with one probe ([`Btt::entry_or_insert`]; a full table applies
    /// the §4.3 overflow rule first, [`Self::btt_overflow`]) and writes its
    /// working copy: to NVM at its remapped address
    /// ([`Self::claim_working_copy`] picks the region), or to the DRAM block
    /// buffer while a job runs (§4.1). From block `promote_at` on, each
    /// block first tries to promote the page; once one does, the rest of
    /// the run is written to the page's working copy.
    ///
    /// The NVM writes gather into spans contiguous on the device, each
    /// issued as one `access_blocks` ([`Self::nvm_write_span`]). A span goes
    /// out before any step that makes a device access of its own (a
    /// promotion, a full table's reclaim, a DRAM-buffered write), so each
    /// model sees its own events in the order one block at a time gives it.
    fn write_remapped(
        &mut self,
        addr: PhysAddr,
        bytes: u32,
        mut promote_at: u64,
        now: Cycle,
        class: NvmWriteClass,
    ) -> Cycle {
        // `C_penult` is unsafe to overwrite while a job runs: buffer in DRAM.
        let buffered = self.epoch.job_running(now);
        let end = addr.raw() + u64::from(bytes);
        let (mut span, mut done) = (None, now);
        for (k, (at, chunk)) in Self::blocks_of(addr, bytes).enumerate() {
            let block = at.block();
            if k as u64 >= promote_at {
                done = done.max(self.nvm_write_span(span.take(), at.raw(), now, class));
                if self.promote_page(block.page(), now).is_some() {
                    let rest = (end - at.raw()) as u32;
                    return done.max(self.write_to_page(at, rest, now).expect("page promoted"));
                }
                // A failed promotion changes nothing, and nothing in the
                // run frees a PTT slot: every later block would fail too.
                promote_at = u64::MAX;
            }
            let slot = &mut self.next_block_slot;
            let claimed = self.btt.entry_or_insert(block).map(|e| Self::claim_working_copy(e, buffered, slot));
            let (loc, fresh) = match claimed {
                Some(claimed) => claimed,
                None => {
                    done = done.max(self.nvm_write_span(span.take(), at.raw(), now, class));
                    self.btt_overflow(now);
                    let entry = self.btt.force_insert(block);
                    Self::claim_working_copy(entry, buffered, &mut self.next_block_slot)
                }
            };
            if fresh {
                self.volatile.epoch_dirty_blocks += 1;
            }
            match loc {
                WactiveLoc::Nvm(region) => {
                    let hw = self.remapped(self.space.checkpoint_block(region, block));
                    let issue = |s| self.nvm_write_span(s, at.raw(), now, class);
                    done = done.max(Self::extend_span(&mut span, at, hw, now, issue));
                }
                WactiveLoc::DramBuffered { slot } => {
                    done = done.max(self.nvm_write_span(span.take(), at.raw(), now, class));
                    done = done.max(self.buffered_write(slot, chunk, now));
                }
            }
        }
        done.max(self.nvm_write_span(span, end, now, class))
    }

    /// Reclaims quiescent BTT entries, migrating `C_last` home when needed
    /// (§4.3 overflow handling). Returns the number reclaimed.
    fn reclaim_quiescent(&mut self, now: Cycle, max: usize) -> usize {
        let mut victims = std::mem::take(&mut self.reclaim_scratch);
        self.btt.reclaimable_victims_into(max, &mut victims);
        let mut reclaimed = 0;
        for &block in &victims {
            let entry = self.btt.remove(block).expect("listed as reclaimable");
            if entry.clast_region == Some(Region::A) {
                // C_last lives in Region A: copy it to the Home Region so
                // the entry can be dropped.
                let src = self.space.checkpoint_block(Region::A, block);
                self.nvm_read(src, BLOCK_BYTES as u32, now);
                let dst = self.remapped(self.space.home(block.base_addr()));
                self.nvm_write(dst, BLOCK_BYTES as u32, now, NvmWriteClass::Migration);
            }
            reclaimed += 1;
        }
        self.reclaim_scratch = victims;
        reclaimed
    }

    /// The load path (§4.1) for `[addr, addr + bytes)`, which lies in one
    /// page: a page the PTT holds is read from its working copy, whole
    /// while DRAM reads cannot fault. Otherwise it goes block by block,
    /// since a poisoned block can quarantine the page, and the rest of the
    /// run then reads block remapping's copies ([`Self::read_remapped`]).
    /// Returns the latest completion.
    fn read_run(&mut self, addr: PhysAddr, bytes: u32, now: Cycle) -> Cycle {
        let end = addr.raw() + u64::from(bytes);
        let (mut at, mut done) = (addr, now);
        while at.raw() < end {
            let rest = end - at.raw();
            let chunk = (BLOCK_BYTES - at.block_offset()).min(rest);
            let read = if self.quiet_dram_reads() {
                self.read_from_page(at, rest as u32, now).map(|d| (d, rest))
            } else {
                self.read_from_page(at.block().base_addr(), chunk as u32, now).map(|d| (d, chunk))
            };
            let Some((read, len)) = read else {
                return done.max(self.read_remapped(at, rest as u32, now));
            };
            done = done.max(read);
            at = at.offset(len);
        }
        done
    }

    /// The load path's block-remapping side for `[addr, addr + bytes)` of
    /// a page the PTT lacks, one block at a time: each block reads its
    /// working copy (in NVM, or buffered in DRAM), else the copy the
    /// running job writes, else its `C_last` region's, else the Home
    /// Region's. Returns the latest completion.
    fn read_remapped(&mut self, addr: PhysAddr, bytes: u32, now: Cycle) -> Cycle {
        let mut done = now;
        for (at, chunk) in Self::blocks_of(addr, bytes) {
            let block = at.block();
            let copy = self.btt.get(block).map(|e| {
                let durable = e.pending.or(e.clast_region).unwrap_or(Region::B);
                e.wactive.unwrap_or(WactiveLoc::Nvm(durable))
            });
            let read = match copy {
                Some(WactiveLoc::Nvm(region)) => {
                    self.nvm_data_read(block, self.space.checkpoint_block(region, block), chunk, now)
                }
                None => self.nvm_data_read(block, self.space.home(block.base_addr()), chunk, now),
                Some(WactiveLoc::DramBuffered { slot }) => self.read_buffered(block, slot, chunk, now),
            };
            done = done.max(read);
        }
        done
    }

    /// Reads `bytes` of `block`'s working copy buffered in DRAM slot
    /// `slot` (§4.1). A buffered copy is dirty by construction: under
    /// poison the block is quarantined, and its rolled-back bytes are
    /// served from its surviving checkpointed copy.
    fn read_buffered(&mut self, block: BlockIndex, slot: u32, bytes: u32, now: Cycle) -> Cycle {
        let hw = self.space.working_block(slot, self.ptt.capacity());
        let off = self.space.working_offset(hw);
        let done = self.working_read(off, bytes, now);
        if self.dram_poison_free(off, u64::from(bytes)) {
            return done;
        }
        let done = self.quarantine_buffered_block(block, off, done);
        let src = match self.btt.get(block).and_then(|e| e.pending.or(e.clast_region)) {
            Some(r) => self.space.checkpoint_block(r, block),
            None => self.space.home(block.base_addr()),
        };
        self.nvm_data_read(block, src, bytes, done)
    }

    /// The span [`MemorySystem::access`] cuts a request into runs at: a
    /// page. The run referee in the tests cuts at every block instead.
    #[cfg(not(test))]
    const fn page_run_bytes() -> u64 {
        PAGE_BYTES
    }

    // ------------------------------------------------------------------
    // Checkpointing (Figure 6b)
    // ------------------------------------------------------------------

    /// Whether the active epoch ends at `now` on the epoch timer, a table
    /// overflow, or BTT pressure: ~90 % of the block budget carries working
    /// copies, leaving headroom for the checkpoint-time cache flush. The
    /// health ladder's emergency timer is the one other cause.
    fn epoch_end_due(&self, now: Cycle) -> bool {
        self.epoch.due(now, self.cfg.thynvm.epoch_max())
            || self.volatile.epoch_dirty_blocks * 10 >= self.btt.capacity() * 9
    }

    // ------------------------------------------------------------------
    // §6 extensions: explicit persistence and bug tolerance
    // ------------------------------------------------------------------

    /// Configures the periodic persistence guarantee (§6: "such a system
    /// is only allowed to lose data updates that happened in the last
    /// *n* ms, where *n* is configurable").
    pub fn set_persistence_interval_ms(&mut self, ms: u64) {
        self.cfg.thynvm.epoch_max_ms = ms;
    }

    /// Enables the §6 bug-tolerance extension: retain up to `depth` past
    /// committed checkpoint images that [`ThyNvm::rollback_to_checkpoint`]
    /// can restore ("devising mechanisms to find and recover to past
    /// bug-free checkpoints"). `0` disables archiving (the default; the
    /// archive costs memory proportional to the footprint). Checkpoints
    /// already held count toward the depth: `C_last` always, and
    /// `C_penult` while a verifier can reject `C_last`.
    pub fn set_archive_depth(&mut self, depth: usize) {
        self.archive_depth = depth;
        self.trim_history();
    }

    /// Checkpoint numbers currently held in the archive, oldest first.
    pub fn archived_checkpoints(&self) -> Vec<u64> {
        self.archive().map(|c| c.number).collect()
    }

    /// Distribution of epoch execution-phase lengths, in cycles.
    pub fn epoch_length_histogram(&self) -> &thynvm_types::Histogram {
        &self.epoch_length_hist
    }

    /// Distribution of checkpointing-phase durations, in cycles.
    pub fn job_duration_histogram(&self) -> &thynvm_types::Histogram {
        &self.job_duration_hist
    }

    /// Rolls the system back to archived checkpoint `number` (as if a
    /// crash had occurred immediately after it completed), discarding all
    /// later state — including later archived checkpoints, which are now
    /// "the future". `number` checkpoints count as completed afterwards.
    ///
    /// `C_penult` becomes checkpoint `number − 1` when it is still held:
    /// always for checkpoint 1, whose `C_penult` is the empty image, and
    /// for the latest completed checkpoint, which discards nothing. An
    /// older `number` whose predecessor left the history leaves no
    /// `C_penult` at all: should `C_last` then fail verification, recovery
    /// has nothing trusted to fall back to and reports the recovery
    /// unrecoverable instead of replaying a stand-in image. Each image
    /// keeps the MAC it was committed under, so recovery's verification
    /// does not mistake the sanctioned rollback for tampering.
    ///
    /// The health rungs of `C_last` and `C_penult` survive a rollback on
    /// purpose: they describe the device, not the data, and restoring an
    /// old image heals no cell.
    ///
    /// # Errors
    ///
    /// Returns [`thynvm_types::Error::NoCheckpoint`] if `number` is not in
    /// the archive.
    pub fn rollback_to_checkpoint(
        &mut self,
        number: u64,
        now: Cycle,
    ) -> Result<RecoveryReport, thynvm_types::Error> {
        if !self.archive().any(|c| c.number == number) {
            return Err(thynvm_types::Error::NoCheckpoint);
        }
        let last_rung = self.clast().rung;
        let penult_rung = self.penult().map_or(last_rung, |c| c.rung);
        // Invalidate the in-flight job and everything after `number`.
        self.epoch.job = None;
        self.epoch.completed = number;
        self.history.retain(|c| c.number <= number);
        let mut newest = self.history.iter_mut().rev();
        if let Some(last) = newest.next() {
            last.rung = last_rung;
        }
        if let Some(prev) = newest.next().filter(|c| c.number + 1 == number) {
            prev.rung = penult_rung;
        }
        Ok(self.crash_and_recover(now))
    }

    /// Ends the active epoch immediately: the explicit persistence trigger
    /// of §6 ("persistence of data can also be explicitly triggered by the
    /// program via a new instruction added to the ISA that forces ThyNVM to
    /// end an epoch"). Everything stored before it is captured by the
    /// checkpoint this starts and becomes durable when that completes. The
    /// platform normally calls [`MemorySystem::begin_checkpoint`] after the
    /// processor flush instead.
    ///
    /// Returns the cycle at which execution resumes; use
    /// [`MemorySystem::drain`] to wait for full durability.
    pub fn force_checkpoint(&mut self, now: Cycle) -> Cycle {
        self.begin_checkpoint(now, &[])
    }

    /// Whether any state from the active epoch would be lost on a crash.
    pub fn has_uncheckpointed_writes(&self) -> bool {
        // Every store dirties a BTT or PTT entry.
        self.btt.dirty_entries() > 0 || self.ptt.iter().any(|(_, e)| e.dirty)
    }

    // ------------------------------------------------------------------
    // Functional API (used by crash-consistency tests and examples)
    // ------------------------------------------------------------------

    /// Writes `data` at physical address `addr`, updating both the
    /// software-visible contents and the timing model. Returns the cycle at
    /// which the store is acknowledged.
    pub fn store_bytes(&mut self, addr: PhysAddr, data: &[u8], now: Cycle) -> Cycle {
        self.store(addr, data, now).unwrap_or(now)
    }

    /// Bounds-checked variant of [`ThyNvm::store_bytes`]: rejects spans
    /// that leave the identity-mapped Home Region (they would alias
    /// checkpoint storage) instead of wrapping into it, and surfaces
    /// health-ladder store rejections as errors.
    ///
    /// # Errors
    ///
    /// Returns [`thynvm_types::Error::AddressOutOfRange`] when
    /// `[addr, addr + data.len())` crosses [`crate::PHYS_LIMIT`], and
    /// [`thynvm_types::Error::Degraded`] when the health ladder sits at
    /// `ReadOnly` or `FailSafe` (the store is refused, nothing mutates).
    pub fn try_store_bytes(
        &mut self,
        addr: PhysAddr,
        data: &[u8],
        now: Cycle,
    ) -> Result<Cycle, Error> {
        self.space.check_phys(addr, data.len() as u64)?;
        self.store(addr, data, now)
    }

    /// The store path behind [`Self::store_bytes`] and
    /// [`Self::try_store_bytes`], without the bounds check: `Err` is a
    /// store the health ladder refused.
    fn store(&mut self, addr: PhysAddr, data: &[u8], now: Cycle) -> Result<Cycle, Error> {
        // Power already failed: the store never reaches the controller.
        if let Some(resume) = self.poll_crash(now) {
            return Ok(resume.max(now));
        }
        // ReadOnly/FailSafe posture: durability of fresh data can no longer
        // be promised, so the store is refused — no mutation, no traffic.
        // (Retire first: a completed checkpoint may have promoted the rung.)
        self.retire_job_if_done(now);
        self.degraded_store_rejection(now)?;
        self.visible.write(thynvm_types::HwAddr::new(addr.raw()), data);
        let req = MemRequest::write(addr, u32::try_from(data.len()).expect("write too large"));
        Ok(self.access(&req, now))
    }

    /// Bounds-checked variant of [`ThyNvm::load_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`thynvm_types::Error::AddressOutOfRange`] when
    /// `[addr, addr + buf.len())` crosses [`crate::PHYS_LIMIT`].
    pub fn try_load_bytes(
        &mut self,
        addr: PhysAddr,
        buf: &mut [u8],
        now: Cycle,
    ) -> Result<Cycle, Error> {
        self.space.check_phys(addr, buf.len() as u64)?;
        Ok(self.load_bytes(addr, buf, now))
    }

    /// Reads `buf.len()` bytes at physical address `addr` from the
    /// software-visible image, paying the timing cost. Returns the cycle at
    /// which the load completes.
    pub fn load_bytes(&mut self, addr: PhysAddr, buf: &mut [u8], now: Cycle) -> Cycle {
        // Power already failed: the load observes the *recovered* image.
        let now = match self.poll_crash(now) {
            Some(resume) => resume.max(now),
            None => now,
        };
        self.pending_corruption = None;
        let req = MemRequest::read(addr, u32::try_from(buf.len()).expect("read too large"));
        let done = self.access(&req, now);
        // Read the image the request was served from: a crash point the
        // request was held back past, or a poisoned range quarantined while
        // servicing it, has already rolled it back.
        self.visible.read(thynvm_types::HwAddr::new(addr.raw()), buf);
        // Without integrity protection an undetected media fault reaches
        // software: deliver the corrupted byte, not the stored one.
        if let Some((paddr, mask)) = self.pending_corruption.take() {
            if let Some(i) = paddr.checked_sub(addr.raw()) {
                if let Some(b) = buf.get_mut(i as usize) {
                    *b ^= mask;
                }
            }
        }
        done
    }

    /// Applies an armed tamper to the persisted state it forges. The raw
    /// store mutations model an attacker with physical NVM access writing
    /// out-of-band — they deliberately bypass the controller's write path
    /// (no counters bump, no MAC changes), which is exactly why the next
    /// recovery's recomputed MAC rejects the forged image.
    // lint: recovery-path
    fn apply_tamper(&mut self, fault: TamperFault) {
        self.stats.security.tampers_injected += 1;
        // Forges one byte of each of the `n` newest checkpoint images.
        let forge = |history: &mut VecDeque<Checkpoint>, n: usize, addr: u64| {
            for c in history.iter_mut().rev().take(n) {
                let mut b = [0u8];
                c.store.read(HwAddr::new(addr), &mut b);
                b.iter_mut().for_each(|x| *x ^= 0xA5);
                c.store.write(HwAddr::new(addr), &b);
            }
        };
        match fault {
            TamperFault::ClastData { addr } => forge(&mut self.history, 1, addr),
            TamperFault::StaleCounterTable => self
                .security
                .as_mut()
                .expect("invariant: tamper applied only with secure mode on")
                .tamper_stale_table(),
            TamperFault::TornRootMeta => self
                .security
                .as_mut()
                .expect("invariant: tamper applied only with secure mode on")
                .tamper_torn_root(),
            // `C_last` and the image behind it. When that image is not
            // `C_penult`, no image verifies either way.
            TamperFault::BothImages { addr } => forge(&mut self.history, 2, addr),
        }
    }

    /// Simulates a power failure at `now` followed by the §4.5 recovery
    /// procedure, and returns the recovery report.
    ///
    /// All volatile state (DRAM contents, CPU-side data, queued NVM writes,
    /// the active epoch's working copies and any *incomplete* checkpoint)
    /// is lost; the software-visible image rolls back to the most recent
    /// completed checkpoint.
    ///
    /// Recovery itself is a cycle-accounted, interruptible step machine:
    /// crash points still queued via [`ThyNvm::queue_crash_point`] fire at
    /// recovery-step boundaries as *nested* crashes, aborting the attempt.
    /// Every step is idempotent — the restarted attempt begins again from
    /// the persisted commit record and converges to the same byte-identical
    /// image an uninterrupted recovery produces.
    pub fn crash_and_recover(&mut self, now: Cycle) -> RecoveryReport {
        // A checkpoint that finished before the crash counts.
        self.retire_job_if_done(now);

        // Volatile persist buffer: the partial flush decides which
        // in-flight entries each bank salvaged on residual energy. If the
        // in-flight checkpoint's commit marker became durable *and* no
        // data entry was lost, the checkpoint is complete at the device
        // even though its timeline had not finished — commit it early
        // (recovery restores `C_last`, not `C_penult`). A marker that
        // outran dropped payload never commits: the fence discipline (and
        // its L10 audit) exists precisely to keep that window closed.
        if let Some(p) = self.pbuf.as_mut() {
            let flush = p.crash(now);
            self.stats.wpq = *p.stats();
            self.record(now, EventKind::WpqFlush(flush));
            if flush.commit_salvaged() {
                if let Some(job) = self.epoch.job.take() {
                    self.epoch.completed += 1;
                    self.commit_job(job);
                }
            }
        }

        // Anything in flight is lost — including the image and the rung the
        // incomplete checkpoint captured (its commit flag never set).
        let rolled_back_incomplete = self.epoch.job.take().is_some();
        self.volatile = Volatile::new();
        let lost = self.nvm_wq.discard_lost(now) + self.dram_wq.discard_lost(now);
        self.stats.wq_writes_lost += lost as u64;
        // DRAM contents vanish with power — and with them any outstanding
        // poison (the next boot re-reads everything from NVM, which the
        // quarantine discipline kept poison-free).
        if let Some(ecc) = self.dram_fault.as_mut() {
            self.stats.dram.poison_cleared_by_crash += ecc.clear_all() as u64;
        }
        // The controller's volatile counter cache reverts to the persisted
        // table; the counters bumped mid-epoch are a *bounded, known* set
        // that recovery replays — never guesses (arXiv:1901.00620).
        if let Some(sec) = self.security.as_mut() {
            self.stats.security.counters_replayed += sec.crash() as u64;
        }

        // Apply the armed tamper once a completed checkpoint exists to
        // forge. The mutation is *real* (bytes / model state change), so
        // every restarted recovery attempt re-derives the same verdict by
        // recomputation — no flag peeking needed.
        if self.security.is_some() && self.epoch.completed > 0 {
            if let Some(t) = self.injected_tamper.take() {
                self.apply_tamper(t);
            }
        }

        // Restartable recovery: run attempts until one completes. A queued
        // crash point overrun by an attempt's timeline aborts it (a nested
        // crash); the next attempt restarts at the interrupting cycle.
        let mut v = Verdict { rolled_back_incomplete, ..Verdict::default() };
        let mut attempts = 0u64;
        let mut start = now;
        let (steps, restored, mut end) = loop {
            attempts += 1;
            match self.recovery_attempt(start, &mut v) {
                Ok(done) => break done,
                Err(at) => start = start.max(at),
            }
        };

        // Roll the visible image back to the recovered checkpoint.
        self.visible = self.clast().store.clone();

        // Rehydrate the health ladder with the rung that was durable
        // alongside the restored image. A tamper detected by *this*
        // recovery, or an unrecoverable verdict, overrides it: the ladder
        // lands at FailSafe, which never promotes.
        if self.health_mon.is_some() {
            // `C_last`'s rung mirrors the durable record at
            // `health_record()` exactly: it starts Healthy (no record, no
            // standing degradation) and only changes when a record commits
            // — checkpoint retirement, a fallback, or the override-persist
            // below.
            let persisted = self.clast().rung;
            let rung = if v.unrecoverable || v.tamper_detected {
                HealthRung::FailSafe
            } else if v.wal_redos >= READONLY_WAL_REDOS {
                // WAL redos only ever happen inside recovery, so this is
                // the one place their threshold is decided.
                persisted.max(HealthRung::ReadOnly)
            } else {
                persisted
            };
            let signals = self.health_signals();
            let mon = self.health_mon.as_mut().expect("invariant: is_some() checked above");
            mon.rehydrate(rung, &signals, &mut self.stats.health);
            // An override that outranks the durable record (tamper →
            // FailSafe, WAL-redo → ReadOnly) is persisted before recovery
            // hands control back: a follow-on crash would otherwise
            // rehydrate the stale pre-incident rung and launder the
            // degradation away. The persist is WAL-bracketed (L8): recovery
            // runs with no checkpoint in flight, so a crash tearing the
            // record mid-write would otherwise leave a corrupt rung with
            // nothing to redo it from.
            if rung > persisted {
                // WAL intent: the escalated rung about to be recorded.
                let wal = self.space.backup_wal(self.wal_seq);
                self.wal_seq += 1;
                end = self.persist_record(wal, 64, end, NvmWriteClass::Migration);
                self.charge_crc(64);
                end = self.persist_record(self.space.health_record(), 64, end, NvmWriteClass::Checkpoint);
                self.charge_crc(64);
                // §4.4: intent and record must be durable before the seal.
                end = self.wpq_fence(end);
                // CRC seal: the override commits when this lands. The seal
                // goes straight to the device, outside the persist buffer.
                end = self.nvm.access(wal, AccessKind::Write, 64, end);
                self.stats.record_nvm_write(64, NvmWriteClass::Migration);
                self.charge_crc(64);
                self.stats.media.wal_seals += 1;
                self.stats.health.rung_persists += 1;
                if let Some(last) = self.history.back_mut() {
                    last.rung = rung;
                }
            }
        }

        // Fresh epoch begins after recovery.
        self.epoch = EpochState {
            active_epoch: self.epoch.active_epoch,
            epoch_start: end,
            job: None,
            overflow_pending: false,
            completed: self.epoch.completed,
        };

        let report = RecoveryReport {
            recovered_checkpoints: self.epoch.completed,
            rolled_back_incomplete,
            restored_pages: restored,
            integrity_fallback: v.integrity_fallback,
            unrecoverable: v.unrecoverable,
            recovery_cycles: end.saturating_sub(now),
            steps,
            // Every aborted attempt is exactly one nested crash.
            nested_crashes: attempts - 1,
            attempts,
        };
        self.stats.recovery_cycles += report.recovery_cycles;
        report
    }

    /// One pass of the §4.5 recovery step machine, beginning at `start`.
    /// Returns the completed steps, pages restored, and end cycle — or
    /// `Err(at)` when a queued crash point at cycle `at` aborted it, with
    /// any unsealed recovery-side remaps rolled back (their torn WAL
    /// records mean the next attempt redoes them from scratch).
    #[allow(clippy::type_complexity)]
    fn recovery_attempt(
        &mut self,
        start: Cycle,
        v: &mut Verdict,
    ) -> Result<(Vec<(RecoveryStep, Cycle)>, usize, Cycle), Cycle> {
        let mut remaps = Vec::new();
        let result = self.recovery_attempt_run(start, v, &mut remaps);
        if let Err(at) = result {
            // Bad-block remaps whose WAL seal had not landed when power
            // failed never took effect: drop the in-memory indirection and
            // return the spare slots. Sealed remaps (seal ≤ at) persist.
            for (base, sealed) in remaps.into_iter().rev() {
                if sealed > at {
                    self.bad_blocks.remove(&base);
                    self.stats.media.wal_redos += 1;
                    v.wal_redos += 1;
                }
            }
        }
        result
    }

    /// Checks whether completing a recovery step at `t_end` overruns the
    /// earliest queued crash point: if so, power failed mid-recovery. The
    /// point is consumed, a nested crash is journaled against `step`, and
    /// the attempt aborts.
    fn recovery_interrupt(&mut self, step: RecoveryStep, t_end: Cycle, v: Verdict) -> Result<(), Cycle> {
        if !self.crash_before(t_end) {
            return Ok(());
        }
        let at = self.crash_points.remove(0);
        let event = self.crash_event(at, (CkptPhase::Execution, 0), Some(step), v);
        self.record(at, EventKind::NestedCrash(event));
        Err(at)
    }

    /// One fault-aware NVM read on the recovery path: resolves the
    /// bad-block indirection, pays the device latency, verifies CRCs, and
    /// — when retries exhaust — remaps the block, recording the WAL seal
    /// cycle in `remaps` so an aborted attempt can undo unsealed ones.
    fn recovery_read(
        &mut self,
        hw: HwAddr,
        bytes: u32,
        now: Cycle,
        remaps: &mut Vec<(u64, Cycle)>,
    ) -> Cycle {
        let hw = self.remapped(hw);
        let mut done = self.nvm_read(hw, bytes, now);
        self.charge_crc(u64::from(bytes));
        self.charge_crypto(u64::from(bytes), false);
        if self.fault.is_none() || !self.cfg.media.integrity {
            return done;
        }
        if self.fault.as_mut().expect("invariant: is_none() checked above").read_fault(hw, bytes).is_none() {
            return done;
        }
        for (_, backoff) in RetryPolicy::MEDIA.schedule() {
            done += backoff;
            done = self.nvm_read(hw, bytes, done);
            self.stats.media.retries += 1;
            self.stats.media.recovery_retries += 1;
            self.charge_crc(u64::from(bytes));
            if self.fault.as_mut().expect("invariant: is_none() checked above").read_fault(hw, bytes).is_none() {
                return done;
            }
        }
        let base = hw.raw() & !(BLOCK_BYTES - 1);
        if let Some(sealed) = self.remap_bad_block(base, done) {
            remaps.push((base, sealed));
            done = sealed;
        }
        done
    }

    /// Recovery falls back to `C_penult`: the abandoned `C_last` leaves the
    /// history, so `C_penult`'s image, MAC and health rung become
    /// `C_last`'s together and the completed-checkpoint count drops to its
    /// number. The abandoned number passes to the next commit. Returns
    /// `false`, changing nothing, when no `C_penult` is held.
    // lint: recovery-path
    fn fall_back_to_penult(&mut self) -> bool {
        let Some(number) = self.penult().map(|c| c.number) else {
            return false;
        };
        self.history.pop_back();
        self.epoch.completed = number;
        true
    }

    /// Recovery has no trusted image to restore: replaying either image
    /// would hand unverified (possibly attacker-chosen) data to software.
    /// Reset to the provably empty image, forgetting every held
    /// checkpoint, and surface the error instead. The rung persisted with
    /// `C_last` stays durable.
    // lint: recovery-path
    fn reset_unrecoverable(&mut self, t: Cycle, v: &mut Verdict) {
        let rung = self.clast().rung;
        self.history = VecDeque::from([Checkpoint::empty(self.mac_key, rung)]);
        self.btt = Btt::new(self.cfg.thynvm.btt_entries);
        self.ptt = Ptt::new(self.cfg.thynvm.ptt_entries.min(self.cfg.thynvm.dram_pages() as usize));
        self.epoch.completed = 0;
        if let Some(sec) = self.security.as_mut() {
            sec.reset();
        }
        let err = Error::IntegrityUnrecoverable { epoch: self.epoch.active_epoch };
        self.record(t, EventKind::Error(err));
        v.unrecoverable = true;
    }

    /// A verifier rejected `C_last`, and its sealed WAL record commits the
    /// outcome: the latent media faults become unreachable, and recovery
    /// falls back to `C_penult` when that is `trusted`. A recovery abandons
    /// at most one checkpoint, so a fallback an earlier verifier already
    /// made (in this attempt or an aborted one) stands instead of falling
    /// back again. Without a trusted, held `C_penult` recovery resets as
    /// unrecoverable. Returns whether a fallback stands.
    // lint: recovery-path
    fn abandon_clast(&mut self, t: Cycle, v: &mut Verdict, trusted: bool) -> bool {
        self.injected_media.clear();
        if trusted && (v.integrity_fallback || self.fall_back_to_penult()) {
            v.integrity_fallback = true;
            true
        } else {
            self.reset_unrecoverable(t, v);
            false
        }
    }

    /// Commits a recovery fallback through the WAL: an intent record, then
    /// its CRC seal, both straight to the device — neither enters the
    /// persist buffer. A queued crash point the seal overruns leaves a torn
    /// record, which the next attempt detects and redoes: `Err` carries the
    /// interrupting cycle. Otherwise returns the cycle the seal lands.
    fn recovery_wal_seal(&mut self, t: Cycle, v: &mut Verdict) -> Result<Cycle, Cycle> {
        let wal = self.space.backup_wal(self.wal_seq);
        self.wal_seq += 1;
        let intent = self.nvm.access(wal, AccessKind::Write, 64, t);
        self.stats.record_nvm_write(64, NvmWriteClass::Migration);
        self.charge_crc(64);
        let sealed = self.nvm.access(wal, AccessKind::Write, 64, intent);
        self.stats.record_nvm_write(64, NvmWriteClass::Migration);
        self.charge_crc(64);
        if let Err(at) = self.recovery_interrupt(RecoveryStep::IntegrityFallback, sealed, *v) {
            // The seal never landed: nothing took effect.
            self.stats.media.wal_redos += 1;
            v.wal_redos += 1;
            return Err(at);
        }
        self.stats.media.wal_seals += 1;
        Ok(sealed)
    }

    /// The body of one recovery attempt. Each step pays its modeled NVM
    /// latency, then checks the queued crash points before its effects are
    /// considered complete.
    #[allow(clippy::type_complexity)]
    fn recovery_attempt_run(
        &mut self,
        start: Cycle,
        v: &mut Verdict,
        remaps: &mut Vec<(u64, Cycle)>,
    ) -> Result<(Vec<(RecoveryStep, Cycle)>, usize, Cycle), Cycle> {
        // Power restore: volatile device state (row buffers, bank busy
        // times) starts fresh on every attempt.
        self.dram.power_cycle();
        self.nvm.power_cycle();
        let mut steps = Vec::with_capacity(5);

        // Step 1: read the checkpoint commit record.
        let mut t = self.recovery_read(self.space.backup(0), 64, start, remaps);
        self.recovery_interrupt(RecoveryStep::ReadCommitRecord, t, *v)?;
        steps.push((RecoveryStep::ReadCommitRecord, t));

        // Step 2: verify `C_last`'s integrity (commit-record checksum +
        // BTT/PTT metadata CRCs). A latent fault in any of them makes
        // `C_last` unusable; step 3 then falls back to `C_penult`, which a
        // completed checkpoint always leaves intact.
        if self.cfg.media.integrity && self.epoch.completed > 0 {
            let meta_bytes = ((self.btt.len() + self.ptt.len()).max(1) as u64) * META_ENTRY_BYTES
                + 2 * META_CRC_BYTES;
            let meta_len = u32::try_from(meta_bytes.min(u64::from(u32::MAX)))
                .expect("invariant: value clamped to u32::MAX on the previous line")
                .max(64);
            t = self.recovery_read(self.space.backup(8192), meta_len, t, remaps);
            // Peek — never consume — the injected latent faults: whether
            // `C_last` is corrupt is a property of the persisted bytes, so
            // a restarted attempt must reach the same verdict.
            for &kind in &self.injected_media {
                self.stats.media.record_fault(kind);
            }
            let corrupt = !self.injected_media.is_empty();
            self.recovery_interrupt(RecoveryStep::VerifyClast, t, *v)?;
            steps.push((RecoveryStep::VerifyClast, t));

            // Step 3: fall back to `C_penult` — write-ahead + CRC-sealed,
            // so an interruption leaves a torn WAL record that the next
            // attempt detects and redoes, never a half-applied fallback.
            if corrupt {
                t = self.recovery_wal_seal(t, v)?;
                if self.abandon_clast(t, v, true) {
                    self.stats.media.integrity_fallbacks += 1;
                }
                steps.push((RecoveryStep::IntegrityFallback, t));
            }
        }

        // Step 2b/3b: secure-mode authentication. The MAC over the
        // committed image and the integrity-tree root over the counter
        // table are *recomputed* from persisted state — pure functions of
        // it, so a restarted attempt converges on the same verdict (the
        // MAC walk's memos only spare re-hashing unwritten pages). A CRC
        // fallback that landed on `completed == 0` still authenticates:
        // the fallback image is the persisted `C_penult`, whose bytes an
        // attacker with physical access can forge, so skipping the MAC
        // here would replay unauthenticated data (a forged penult behind a
        // torn commit record with exactly one completed checkpoint).
        if self.security.is_some() && (self.epoch.completed > 0 || v.integrity_fallback) {
            let table_bytes = (self.security.as_ref().expect("invariant: secure mode is on in this block").table_entries()
                as u64
                * META_ENTRY_BYTES)
                .max(64);
            t = self.recovery_read(self.space.security_root(), 64, t, remaps);
            t = self.recovery_read(
                self.space.security_counters(0),
                u32::try_from(table_bytes.min(u64::from(u32::MAX))).expect("invariant: clamped to u32::MAX above"),
                t,
                remaps,
            );
            self.charge_crypto(table_bytes + 64, false);
            // An armed media fault with CRC protection off: nothing else
            // would detect it, but the MAC does — accidentally corrupt
            // bytes fail authentication just like forged ones.
            let media_caught = !self.cfg.media.integrity && !self.injected_media.is_empty();
            let key = self.mac_key;
            let last = self.history.back_mut().expect("invariant: checkpoint 0 is never trimmed");
            let mac_ok = !media_caught && last.authentic(key);
            let table_ok = self.security.as_ref().expect("invariant: secure mode is on in this block").table_authentic();
            self.recovery_interrupt(RecoveryStep::VerifyMacs, t, *v)?;
            steps.push((RecoveryStep::VerifyMacs, t));

            if !mac_ok || !table_ok {
                let root_torn = self.security.as_ref().expect("invariant: secure mode is on in this block").root_is_torn();
                // The fallback target must verify. After a CRC fallback it
                // is the `C_last` just checked.
                let trusted = mac_ok
                    || (!v.integrity_fallback
                        && self.penult_mut().is_some_and(|p| p.authentic(key)));
                // Either outcome commits through the WAL first — intent,
                // act, seal — so an interruption leaves a torn record the
                // next attempt detects and redoes, never a half-applied
                // fallback or reset.
                t = self.recovery_wal_seal(t, v)?;
                // Sealed: count the detection exactly once — a restarted
                // attempt after the seal finds healed state and detects
                // nothing, so these ledgers never double-count.
                self.stats.security.tampers_detected += 1;
                v.tamper_detected = true;
                if root_torn {
                    self.stats.security.classified_torn += 1;
                } else if media_caught {
                    self.stats.security.classified_media += 1;
                } else {
                    // A rolled-back counter table (replay attack) or a
                    // content forgery: deliberate tampering either way.
                    self.stats.security.classified_tamper += 1;
                }
                if self.abandon_clast(t, v, trusted) {
                    // Degrade to `C_penult` exactly as CRC failures do,
                    // re-deriving and re-sealing the counter table from
                    // the surviving authenticated image.
                    self.security.as_mut().expect("invariant: secure mode is on in this block").heal_table();
                    self.stats.security.verify_fallbacks += 1;
                } else {
                    // Both images fail authentication, or no `C_penult`
                    // is held.
                    self.stats.security.unrecoverable += 1;
                }
                steps.push((RecoveryStep::IntegrityFallback, t));
            }
        }

        // Step 4 (§4.5 step 1): replay BTT/PTT metadata from the backup
        // region, dropping uncommitted working copies. Re-running this on
        // already-normalized tables changes nothing.
        let stale: Vec<BlockIndex> = self
            .btt
            .iter_mut()
            .filter_map(|(b, e)| {
                e.wactive = None;
                if v.rolled_back_incomplete {
                    e.pending = None;
                }
                if e.clast_region.is_none() && e.pending.is_none() {
                    Some(b)
                } else {
                    None
                }
            })
            .collect();
        for b in stale {
            self.btt.remove(b);
        }
        // The surgery above can quiesce any number of entries at once:
        // re-derive the victim-selection hints from the live table.
        self.btt.rebuild_quiescent_hints();
        let meta_bytes = (self.btt.len() + self.ptt.len()) as u64 * META_ENTRY_BYTES + CPU_STATE_BYTES;
        let meta_len = u32::try_from(meta_bytes.max(64).min(u64::from(u32::MAX)))
            .expect("invariant: value clamped to u32::MAX on the previous line");
        t = self.recovery_read(self.space.backup(0), meta_len, t, remaps);
        self.recovery_interrupt(RecoveryStep::ReplayMetadata, t, *v)?;
        steps.push((RecoveryStep::ReplayMetadata, t));

        // Step 5 (§4.5 step 2): re-arm the DRAM working set — restore
        // page-writeback pages from their checkpoint copies.
        let mut restored = 0usize;
        let mut pages: Vec<(PageIndex, u32, Option<Region>)> = self
            .ptt
            .iter_mut()
            .map(|(p, e)| {
                e.dirty = false;
                e.pending = None;
                (p, e.slot, e.clast_region)
            })
            .collect();
        pages.sort_unstable_by_key(|(p, _, _)| *p);
        for (page, slot, clast) in pages {
            let region = clast.unwrap_or(Region::B);
            let src = self.space.checkpoint_page(region, page);
            t = self.recovery_read(src, PAGE_BYTES as u32, t, remaps);
            let off = self.space.working_offset(self.space.working_page(slot));
            t = self.working_write(off, PAGE_BYTES as u32, t);
            restored += 1;
        }
        self.recovery_interrupt(RecoveryStep::RearmWorkingSet, t, *v)?;
        steps.push((RecoveryStep::RearmWorkingSet, t));

        Ok((steps, restored, t))
    }
}

impl MemorySystem for ThyNvm {
    fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
        let now = now.max(self.volatile.input_blocked_until);
        // The request begins processing at `now`; if the armed crash point
        // has been reached by then, power fails before it is serviced.
        if let Some(resume) = self.poll_crash(now) {
            return resume.max(now);
        }
        self.retire_job_if_done(now);
        let t = now + Cycle::from_ns(TABLE_LOOKUP_NS);
        let write = req.kind.is_write();
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        // The request is served one page run at a time: the blocks it
        // touches in one page, every block issued at `t`.
        let crashes = self.stats.crashes_injected;
        let (mut addr, end) = (req.addr, req.addr.raw() + u64::from(req.bytes));
        let mut done = t;
        let unit = Self::page_run_bytes();
        while addr.raw() < end && self.stats.crashes_injected == crashes {
            let run = (unit - addr.raw() % unit).min(end - addr.raw()) as u32;
            done = done.max(if write {
                self.write_run(addr, run, t, NvmWriteClass::Cpu)
            } else {
                self.read_run(addr, run, t)
            });
            addr = addr.offset(u64::from(run));
        }
        self.stats.service_cycles += done.saturating_sub(now);
        done
    }

    fn checkpoint_due(&self, now: Cycle) -> bool {
        // A Wounded (or worse) health rung adds the emergency-early timer.
        self.epoch_end_due(now) || self.emergency_epoch_due(now)
    }

    fn begin_checkpoint(&mut self, now: Cycle, flushed: &[PhysAddr]) -> Cycle {
        // Power already failed: the checkpoint request never happens.
        if let Some(resume) = self.poll_crash(now) {
            return resume.max(now);
        }
        // The Wounded emergency timer — and nothing else — demanded this
        // checkpoint: count it so the posture's cost is observable.
        if self.emergency_epoch_due(now) && !self.epoch_end_due(now) {
            self.stats.health.emergency_checkpoints += 1;
        }

        // If the previous checkpoint is still running, the new epoch cannot
        // start its own checkpointing phase yet: stall (Figure 3b).
        let mut t = match self.wait_for_job(now) {
            Ok(t) => t,
            Err(resume) => return resume.max(now),
        };
        self.stats.ckpt_stall_cycles += t - now;

        // Snapshot store counters for deferred scheme switching, then age
        // them by halving. The paper zeroes counters each 10 ms epoch;
        // overflow-shortened epochs would starve promotion under a plain
        // reset, so aging preserves hotness across short epochs while cold
        // pages still decay below the demotion threshold within a couple of
        // boundaries.
        let mut snap = std::mem::take(&mut self.switch_scratch);
        snap.clone_from(&self.volatile.page_store_counts);
        self.volatile.pending_switch_counts = snap;
        self.volatile.page_store_counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });

        // CPU data flush: the processor's dirty cache blocks are writes of
        // the epoch that is ending. The processor only *initiates* these
        // writebacks (§4.4) — it resumes once they are issued, while the
        // checkpoint's metadata persist waits for them in the background
        // (`flush_done`). A flush larger than the remaining BTT budget is
        // split across multiple checkpoint rounds — the §4.3 overflow rule
        // applied during the flush itself; intermediate rounds block the
        // processor.
        let mut flush_done = t;
        let mut i = 0usize;
        while i < flushed.len() {
            let block = flushed[i].block();
            let absorbable = self.ptt.get(block.page()).is_some()
                || self.btt.get(block).is_some()
                || !self.btt.is_full()
                || self.reclaim_quiescent(t, 64) > 0;
            if absorbable {
                let done = self.write_run(block.base_addr(), BLOCK_BYTES as u32, t, NvmWriteClass::Checkpoint);
                flush_done = flush_done.max(done);
                i += 1;
            } else {
                // An intermediate round blocks the processor until it
                // completes, and power can fail mid-round.
                t = self.checkpoint_round(t, flush_done, false);
                t = match self.wait_for_job(t) {
                    Ok(t) => t,
                    Err(resume) => return resume.max(now),
                };
                flush_done = flush_done.max(t);
            }
        }

        let mut resume = self.checkpoint_round(t, flush_done, true);
        if !self.cfg.thynvm.overlap {
            // Stop-the-world: the processor waits for the round to complete.
            resume = match self.wait_for_job(resume) {
                Ok(t) => t,
                Err(resume) => return resume.max(now),
            };
        }
        self.stats.ckpt_stall_cycles += resume.saturating_sub(now);
        resume
    }

    fn drain(&mut self, now: Cycle) -> Cycle {
        // Power already failed: nothing left to drain.
        if let Some(resume) = self.poll_crash(now) {
            return resume.max(now);
        }
        let mut t = match self.wait_for_job(now) {
            Ok(t) => t,
            Err(resume) => return resume.max(now),
        };
        if self.has_uncheckpointed_writes() {
            let crashes_before = self.stats.crashes_injected;
            t = self.begin_checkpoint(t, &[]);
            if self.stats.crashes_injected > crashes_before {
                // The crash fired inside the checkpoint; `t` is the resume.
                return t.max(now);
            }
            t = match self.wait_for_job(t) {
                Ok(t) => t,
                Err(resume) => return resume.max(now),
            };
        }
        t.max(self.nvm.idle_at()).max(self.dram.idle_at())
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        match (self.cfg.thynvm.mode, self.cfg.thynvm.overlap) {
            (CkptMode::Dual, true) => "ThyNVM",
            (CkptMode::Dual, false) => "ThyNVM-nooverlap",
            (CkptMode::BlockOnly, _) => "ThyNVM-blockonly",
            (CkptMode::PageOnly, _) => "ThyNVM-pageonly",
        }
    }
}

impl ThyNvm {
    /// One checkpoint round: the Figure 6(b) sequence. `data_ready` is when
    /// the epoch's initiated cache writebacks complete — the metadata
    /// persist must not start earlier. `final_round` captures the visible
    /// image; intermediate rounds persist metadata and timing only. Starts
    /// the round's job and returns the cycle the processor may resume once
    /// the CPU state persisted; the caller waits for the job when the round
    /// does not overlap execution.
    fn checkpoint_round(&mut self, t: Cycle, data_ready: Cycle, final_round: bool) -> Cycle {
        let ckpt_start = t;

        // Checkpoint operations are issued as fast as the devices accept
        // them; bank busy-times arbitrate, so independent blocks/pages
        // proceed in parallel while same-bank operations serialize. The
        // Figure 6(b) order is preserved *between* phases.

        // (1) Drain DRAM-buffered block working copies to NVM: read the
        // DRAM buffer, then write NVM once the data is available.
        let mut buffered: Vec<(BlockIndex, u32)> = self
            .btt
            .iter()
            .filter_map(|(b, e)| match e.wactive {
                Some(WactiveLoc::DramBuffered { slot }) => Some((b, slot)),
                _ => None,
            })
            .collect();
        buffered.sort_unstable_by_key(|(b, _)| *b);
        let mut writeback_done: Vec<Cycle> = Vec::new();
        let mut phase1_done = ckpt_start.max(data_ready);
        for (block, slot) in buffered {
            let src = self.space.working_block(slot, self.ptt.capacity());
            let off = self.space.working_offset(src);
            let read_done = self.working_read(off, BLOCK_BYTES as u32, ckpt_start);
            if !self.dram_poison_free(off, BLOCK_BYTES) {
                // Poison must never reach NVM: drop the block's dirty data
                // instead of draining it.
                let q_done = self.quarantine_buffered_block(block, off, read_done);
                phase1_done = phase1_done.max(q_done);
                continue;
            }
            let entry = self.btt.get(block).expect("iterated above");
            let region = entry.clast_region.map_or(Region::A, Region::other);
            let dst = self.remapped(self.space.checkpoint_block(region, block));
            let write_done = self.nvm_write(dst, BLOCK_BYTES as u32, read_done, NvmWriteClass::Checkpoint);
            self.charge_crc(BLOCK_BYTES); // per-64 B data CRC generation
            let resume = self.wpq_push(dst, read_done, write_done, WpqKind::Data);
            writeback_done.push(write_done);
            phase1_done = phase1_done.max(write_done).max(resume);
            let entry = self.btt.get_mut(block).expect("present");
            entry.wactive = Some(WactiveLoc::Nvm(region));
        }

        // CPU state persists synchronously; the processor resumes after.
        // The write is prioritized ahead of the background flush drains
        // (modeled as an uncontended write: row miss + burst transfer).
        let bursts = CPU_STATE_BYTES.max(64).div_ceil(64);
        let resume_after_flush = t
            + Cycle::from_ns(NVM_CLEAN_MISS_NS)
            + Cycle::from_ns(thynvm_mem::device::BURST_NS * bursts.saturating_sub(1));
        self.stats.record_nvm_write(CPU_STATE_BYTES, NvmWriteClass::Checkpoint);

        // (2) Checkpoint the BTT once the buffered drains are durable. With
        // integrity protection the serialized table carries a trailing CRC.
        let meta_crc = if self.cfg.media.integrity { META_CRC_BYTES } else { 0 };
        let btt_bytes = (self.btt.dirty_entries().max(1) as u64) * META_ENTRY_BYTES + meta_crc;
        // §4.4: checkpoint data must be durable before the metadata that
        // references it.
        let meta_start = self.wpq_fence(phase1_done.max(resume_after_flush));
        let btt_done =
            self.persist_record(self.space.backup(8192), btt_bytes, meta_start, NvmWriteClass::Checkpoint);
        self.charge_crc(btt_bytes);

        // Capture block versions: working copies in NVM become pending
        // checkpoints (no data movement, §3.2). Phase 1 drained every
        // buffered copy to NVM or quarantined it.
        for (_, entry) in self.btt.iter_mut() {
            if let Some(WactiveLoc::Nvm(region)) = entry.wactive.take() {
                entry.pending = Some(region);
            }
        }
        self.volatile.epoch_dirty_blocks = 0;

        // (3) Write dirty pages back to the alternate checkpoint region.
        let dirty_pages = self.ptt.dirty_pages();
        let mut phase3_done = btt_done;
        for page in dirty_pages {
            let slot = self.ptt.get(page).expect("dirty page listed").slot;
            let off = self.space.working_offset(self.space.working_page(slot));
            let read_done = self.working_read(off, PAGE_BYTES as u32, btt_done);
            if !self.dram_poison_free(off, PAGE_BYTES) {
                // An uncorrectable DRAM error sits under this page's dirty
                // data: writing it back would make the corruption durable.
                // Quarantine instead — the dirty epoch is dropped, the page
                // rolls back to `C_last` and leaves the page scheme.
                let q_done = self.quarantine_page(page, read_done);
                phase3_done = phase3_done.max(q_done);
                continue;
            }
            let entry = self.ptt.get_mut(page).expect("dirty page listed");
            let target = entry.clast_region.map_or(Region::A, Region::other);
            entry.dirty = false;
            entry.pending = Some(target);
            let dst = self.remapped(self.space.checkpoint_page(target, page));
            let write_done = self.nvm_write(dst, PAGE_BYTES as u32, read_done, NvmWriteClass::Checkpoint);
            self.charge_crc(PAGE_BYTES); // per-64 B data CRCs for the page
            let resume = self.wpq_push(dst, read_done, write_done, WpqKind::Data);
            writeback_done.push(write_done);
            phase3_done = phase3_done.max(write_done).max(resume);
        }

        // (4) Checkpoint the PTT, flush the NVM write queue, set the
        // completion flag.
        let ptt_bytes = (self.ptt.len().max(1) as u64) * META_ENTRY_BYTES + meta_crc;
        let mut bg =
            self.persist_record(self.space.backup(16384), ptt_bytes, phase3_done, NvmWriteClass::Checkpoint);
        self.charge_crc(ptt_bytes);
        bg = bg.max(self.nvm_wq.drain_time(bg));

        // (4b) Secure mode: persist the dirty encryption counters, the
        // distinct integrity-tree nodes on their paths to the root, and
        // finally the root record itself — all *before* the commit record,
        // so the state the commit flag covers is already authenticated.
        // This rides the same discipline as the BTT/PTT images: a crash
        // anywhere in here leaves the commit flag unset and the previous
        // epoch's sealed metadata intact.
        if self.security.is_some() {
            let receipt = self.security.as_mut().expect("invariant: secure mode is on in this block").persist();
            if receipt.counter_entries > 0 {
                let ctr_bytes = receipt.counter_entries as u64 * META_ENTRY_BYTES;
                bg = self.persist_record(self.space.security_counters(0), ctr_bytes, bg, NvmWriteClass::Checkpoint);
                self.stats.security.counter_persists += 1;
                self.stats.security.counter_bytes += ctr_bytes;
                let tree_bytes = receipt.tree_nodes * META_ENTRY_BYTES;
                bg = self.persist_record(self.space.security_tree(0), tree_bytes, bg, NvmWriteClass::Checkpoint);
                self.stats.security.tree_node_persists += receipt.tree_nodes;
                self.stats.security.tree_bytes += tree_bytes;
            }
            // §4.4: counter table and tree nodes must be durable before
            // the root that authenticates them.
            bg = self.wpq_fence(bg);
            // The 64 B root + MAC record persists every round: it binds
            // the table generation, which is what makes a rolled-back
            // table (counter-replay attack) detectable.
            bg = self.persist_record(self.space.security_root(), 64, bg, NvmWriteClass::Checkpoint);
            self.stats.security.root_persists += 1;
            self.charge_crypto(64, true);
        }

        // (4c) Health ladder: persist the current rung as a 64 B record
        // just before the commit record, riding the same discipline — a
        // crash before the commit flag leaves the previous epoch's sealed
        // rung in effect, exactly like every other piece of metadata.
        let mut rung = None;
        if let Some(r) = self.health_mon.as_ref().map(HealthMonitor::rung) {
            bg = self.persist_record(self.space.health_record(), 64, bg, NvmWriteClass::Checkpoint);
            self.charge_crc(64);
            self.stats.health.rung_persists += 1;
            rung = Some(r);
        }

        // §4.4: everything the commit record covers — data, metadata,
        // security and health records — must be durable before it. The
        // record counts as 1 byte of traffic and enters the buffer through
        // the ordering audit, so it bypasses `persist_record`.
        bg = self.wpq_fence(bg);
        let commit_start = bg;
        bg = self.nvm.access(self.space.backup(0), AccessKind::Write, 64, bg);
        self.stats.record_nvm_write(1, NvmWriteClass::Checkpoint);
        self.charge_crc(64); // checksummed commit record
        self.wpq_push_marker(self.space.backup(0), commit_start, bg);

        self.stats.ckpt_busy_cycles += bg - ckpt_start;
        self.stats.epochs_completed += 1; // checkpoints taken
        self.epoch_length_hist
            .record(ckpt_start.saturating_sub(self.epoch.epoch_start).raw());
        self.job_duration_hist.record((bg - ckpt_start).raw());

        let job = CkptJob {
            epoch: self.epoch.active_epoch,
            started: ckpt_start,
            commit_at: commit_start,
            done_at: bg,
            drained_at: phase1_done,
            btt_at: btt_done,
            pages_at: phase3_done,
            writeback_done,
            // Functional capture: the ending epoch's image is now "being
            // checkpointed"; it commits when the job retires. Intermediate
            // rounds persist metadata only — a crash among them rolls back
            // to the previous full epoch boundary (conservative, see
            // DESIGN.md).
            image: final_round.then(|| self.capture()),
            rung,
        };
        self.epoch.start_job(job, t);
        resume_after_flush
    }

    /// The final round's capture: a clone of `visible` and the MAC that
    /// authenticates it, `C_last`'s while secure mode is off. The MAC is
    /// taken on `visible` before the clone: the paths the epoch wrote are
    /// then `visible`'s alone, so the walk stores its sums in them and the
    /// clone inherits every one.
    fn capture(&mut self) -> (SparseStore, u64) {
        let mac = if self.security.is_some() {
            let mac = self.visible.mac(self.mac_key);
            debug_assert_eq!(mac, self.visible.recomputed_mac(self.mac_key), "the capture");
            mac
        } else {
            self.clast().mac
        };
        (self.visible.clone(), mac)
    }
}

impl thynvm_types::PersistentMemory for ThyNvm {
    fn store_bytes(&mut self, addr: PhysAddr, data: &[u8], now: Cycle) -> Cycle {
        ThyNvm::store_bytes(self, addr, data, now)
    }

    fn load_bytes(&mut self, addr: PhysAddr, buf: &mut [u8], now: Cycle) -> Cycle {
        ThyNvm::load_bytes(self, addr, buf, now)
    }

    fn persist(&mut self, now: Cycle) -> Cycle {
        let t = self.force_checkpoint(now);
        MemorySystem::drain(self, t)
    }

    fn power_fail(&mut self, now: Cycle) -> Cycle {
        let report = self.crash_and_recover(now);
        now + report.recovery_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ThyNvm {
        ThyNvm::new(SystemConfig::small_test())
    }

    fn write64(sys: &mut ThyNvm, addr: u64, now: u64) -> Cycle {
        sys.access(&MemRequest::write(PhysAddr::new(addr), 64), Cycle::new(now))
    }

    /// Drains the journal and returns its top-level crash entries.
    fn crashes(sys: &mut ThyNvm) -> Vec<InjectedCrash> {
        let events = sys.take_events().into_iter();
        events.filter_map(|e| if let EventKind::Crash(c) = e.kind { Some(c) } else { None }).collect()
    }

    /// Drains the journal and returns its absorbed faults.
    fn errors(sys: &mut ThyNvm) -> Vec<Error> {
        let events = sys.take_events().into_iter();
        events.filter_map(|e| if let EventKind::Error(err) = e.kind { Some(err) } else { None }).collect()
    }

    /// Drains the journal and returns its persist-buffer flush reports.
    fn flushes(sys: &mut ThyNvm) -> Vec<WpqCrashReport> {
        let events = sys.take_events().into_iter();
        events.filter_map(|e| if let EventKind::WpqFlush(f) = e.kind { Some(f) } else { None }).collect()
    }

    #[test]
    fn first_write_goes_to_nvm_region_a() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let entry = sys.btt().get(BlockIndex::new(0)).expect("BTT entry created");
        assert_eq!(entry.wactive, Some(WactiveLoc::Nvm(Region::A)));
        assert_eq!(sys.stats().nvm_write_bytes_cpu, 64);
        assert_eq!(sys.stats().dram_write_bytes, 0);
    }

    #[test]
    fn writes_coalesce_in_same_working_copy() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        write64(&mut sys, 0, 10_000);
        assert_eq!(sys.btt().len(), 1);
        assert_eq!(sys.stats().nvm_write_bytes_cpu, 128);
        let entry = sys.btt().get(BlockIndex::new(0)).unwrap();
        assert_eq!(entry.wactive, Some(WactiveLoc::Nvm(Region::A)));
    }

    #[test]
    fn checkpoint_rotates_block_version_to_clast() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let t = sys.force_checkpoint(Cycle::new(1_000));
        let t = sys.drain(t);
        let entry = sys.btt().get(BlockIndex::new(0)).expect("entry kept");
        assert_eq!(entry.clast_region, Some(Region::A));
        assert_eq!(entry.wactive, None);
        assert_eq!(entry.pending, None);
        assert!(t > Cycle::new(1_000));
    }

    #[test]
    fn next_epoch_write_targets_other_region() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let t = sys.force_checkpoint(Cycle::new(1_000));
        let t = sys.drain(t);
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        let entry = sys.btt().get(BlockIndex::new(0)).unwrap();
        assert_eq!(entry.wactive, Some(WactiveLoc::Nvm(Region::B)));
    }

    #[test]
    fn write_during_inflight_checkpoint_is_buffered_in_dram() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let resume = sys.force_checkpoint(Cycle::new(1_000));
        // Job still in flight right at resume: new write must not touch NVM.
        assert!(sys.epoch_state().job_running(resume));
        let nvm_before = sys.stats().nvm_write_bytes_total();
        sys.access(&MemRequest::write(PhysAddr::new(4096), 64), resume);
        assert_eq!(sys.stats().nvm_write_bytes_total(), nvm_before);
        let entry = sys.btt().get(BlockIndex::new(64)).expect("buffered entry");
        assert!(matches!(entry.wactive, Some(WactiveLoc::DramBuffered { .. })));
        assert!(sys.stats().dram_write_bytes >= 64);
    }

    #[test]
    fn buffered_blocks_drain_at_next_checkpoint() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let resume = sys.force_checkpoint(Cycle::new(1_000));
        sys.access(&MemRequest::write(PhysAddr::new(4096), 64), resume);
        // Wait for job 0, then checkpoint epoch 1.
        let done = sys.epoch_state().job.as_ref().unwrap().done_at;
        let resume2 = sys.force_checkpoint(done);
        let _ = sys.drain(resume2);
        let entry = sys.btt().get(BlockIndex::new(64)).expect("entry");
        assert!(entry.clast_region.is_some());
        // The drain wrote the block to NVM as checkpoint traffic.
        assert!(sys.stats().nvm_write_bytes_ckpt >= 64);
    }

    #[test]
    fn hot_page_promoted_to_page_writeback() {
        let mut sys = small();
        // 30 stores to the same page in epoch 0 (threshold is 22).
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.force_checkpoint(now);
        let t = sys.drain(t);
        assert!(sys.ptt().get(PageIndex::new(0)).is_some(), "page should be promoted");
        assert_eq!(sys.stats().pages_promoted, 1);
        // Next write to the page goes to DRAM.
        let dram_before = sys.stats().dram_write_bytes;
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        assert_eq!(sys.stats().dram_write_bytes, dram_before + 64);
        assert!(sys.ptt().get(PageIndex::new(0)).unwrap().dirty);
    }

    #[test]
    fn cold_page_demoted_back_to_block_remapping() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.force_checkpoint(now);
        let t = sys.drain(t);
        assert!(sys.ptt().get(PageIndex::new(0)).is_some());
        // Epoch with zero writes to the page → demote at next retirement.
        let t2 = sys.force_checkpoint(t + Cycle::new(10));
        let t2 = sys.drain(t2);
        let t3 = sys.force_checkpoint(t2 + Cycle::new(10));
        let _ = sys.drain(t3);
        assert!(sys.ptt().get(PageIndex::new(0)).is_none(), "cold page demoted");
        assert!(sys.stats().pages_demoted >= 1);
        assert!(sys.stats().nvm_write_bytes_migration >= PAGE_BYTES);
    }

    #[test]
    fn dirty_page_checkpoint_writes_whole_page() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now); // promote
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        let ckpt_before = sys.stats().nvm_write_bytes_ckpt;
        let t2 = sys.force_checkpoint(t + Cycle::new(100));
        let _ = sys.drain(t2);
        assert!(
            sys.stats().nvm_write_bytes_ckpt >= ckpt_before + PAGE_BYTES,
            "page writeback persists 4 KiB"
        );
    }

    #[test]
    fn store_to_frozen_page_is_absorbed_by_block_remapping() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now); // page promoted
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t); // dirty it
        let resume = sys.force_checkpoint(t + Cycle::new(100));
        // Page is frozen while the job writes it back.
        assert!(sys.page_frozen(PageIndex::new(0), resume));
        let nvm_before = sys.stats().nvm_write_bytes_total();
        sys.access(&MemRequest::write(PhysAddr::new(64), 64), resume);
        // Cooperation: absorbed in DRAM, no NVM write, no stall on the page.
        assert_eq!(sys.stats().nvm_write_bytes_total(), nvm_before);
        let entry = sys.btt().get(BlockIndex::new(1)).expect("cooperation entry");
        assert!(matches!(entry.wactive, Some(WactiveLoc::DramBuffered { .. })));
    }

    #[test]
    fn a_captured_page_is_frozen_until_its_job_completes() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let mut t = sys.drain(now); // page 0 promoted and checkpointed
        let clast = sys.ptt().get(PageIndex::new(0)).expect("promoted").clast_region;
        // Keep the page hot, so the retirement below does not demote it.
        for i in 0..30u64 {
            t = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), t);
        }
        let resume = sys.force_checkpoint(t + Cycle::new(100));
        let done = sys.epoch_state().job.as_ref().expect("overlapped job").done_at;
        let target = clast.map_or(Region::A, Region::other);
        assert_eq!(sys.ptt().get(PageIndex::new(0)).expect("resident").pending, Some(target));
        assert!(sys.page_frozen(PageIndex::new(0), resume));
        assert!(sys.page_frozen(PageIndex::new(0), done - Cycle::new(1)));
        assert!(!sys.page_frozen(PageIndex::new(1), resume), "page 1 is not resident");
        // At `done_at` the page thaws although the job has not retired yet.
        assert!(!sys.page_frozen(PageIndex::new(0), done));
        assert!(sys.epoch_state().job.is_some(), "not retired");
        sys.access(&MemRequest::read(PhysAddr::new(0), 64), done);
        let entry = sys.ptt().get(PageIndex::new(0)).expect("resident");
        assert_eq!((entry.pending, entry.clast_region), (None, Some(target)), "retired");
    }

    #[test]
    fn a_no_overlap_checkpoint_fires_a_crash_point_it_waits_past() {
        // Stop-the-world: the final round blocks the processor until the
        // job completes, so an armed point inside the job fires mid-wait,
        // like in every other wait on a job.
        let run = |crash_at: Option<Cycle>| {
            let mut cfg = SystemConfig::small_test();
            cfg.thynvm.overlap = false;
            let mut sys = ThyNvm::new(cfg);
            let t = sys.store_bytes(PhysAddr::new(0), &[7; 64], Cycle::ZERO);
            let t = sys.drain(t);
            let t = sys.store_bytes(PhysAddr::new(0), &[9; 64], t);
            if let Some(at) = crash_at {
                sys.arm_crash_point(at);
            }
            let stall_before = sys.stats().ckpt_stall_cycles;
            let resume = sys.force_checkpoint(t);
            (sys, t, resume, stall_before)
        };
        let (mut sys, t, done, _) = run(None);
        assert!(crashes(&mut sys).is_empty());
        assert!(!sys.epoch_state().job_running(done), "the call returns at completion");

        // Arm a point halfway through the wait.
        let at = Cycle::new((t.raw() + done.raw()) / 2);
        let (mut sys, _, resume, stall_before) = run(Some(at));
        let crash = crashes(&mut sys).pop().expect("the crash fires inside the wait");
        assert_eq!(crash.event.cycle, at);
        assert!(crash.report.rolled_back_incomplete);
        assert_eq!(resume, crash.resume_at);
        assert_eq!(resume, at + crash.report.recovery_cycles, "the crash point plus recovery");
        assert_eq!(sys.armed_crash_point(), None);
        assert_eq!(sys.stats().ckpt_stall_cycles, stall_before, "no stall for the aborted wait");
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, resume);
        assert_eq!(buf, [7; 64], "the load sees the recovered image");
    }

    #[test]
    fn btt_overflow_forces_early_epoch_end() {
        let mut sys = small(); // 64 BTT entries
        let mut now = Cycle::ZERO;
        // Touch 65 distinct pages (each write = one block, distinct pages so
        // no promotion).
        for i in 0..65u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new(i * PAGE_BYTES), 64), now);
        }
        assert!(sys.checkpoint_due(now), "overflow must request an epoch end");
    }

    #[test]
    fn overlap_resumes_before_job_completes() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now);
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        let resume = sys.force_checkpoint(t + Cycle::new(100));
        let job_done = sys.epoch_state().job.as_ref().expect("job").done_at;
        assert!(resume < job_done, "overlapped checkpoint must not block execution");
    }

    #[test]
    fn no_overlap_mode_blocks_until_done() {
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.overlap = false;
        let mut sys = ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let resume = sys.force_checkpoint(now);
        assert!(!sys.epoch_state().job_running(resume), "stop-the-world returns at completion");
    }

    #[test]
    fn back_to_back_checkpoints_stall_for_first_job() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now);
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        let r1 = sys.force_checkpoint(t + Cycle::new(10));
        let stall_before = sys.stats().ckpt_stall_cycles;
        // Immediately demand another checkpoint: must wait for job 1.
        sys.access(&MemRequest::write(PhysAddr::new(8 * PAGE_BYTES), 64), r1);
        let _r2 = sys.force_checkpoint(r1 + Cycle::new(1));
        assert!(sys.stats().ckpt_stall_cycles > stall_before, "second checkpoint stalls");
    }

    // ---------------- functional / crash-consistency ----------------

    #[test]
    fn recover_to_last_completed_checkpoint() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(100), b"AAAA", Cycle::ZERO);
        let t = sys.force_checkpoint(Cycle::new(1_000));
        let t = sys.drain(t);
        sys.store_bytes(PhysAddr::new(100), b"BBBB", t);
        // Crash before the second value is checkpointed.
        let report = sys.crash_and_recover(t + Cycle::new(1));
        assert!(!report.rolled_back_incomplete);
        assert_eq!(report.recovered_checkpoints, 1);
        let mut buf = [0u8; 4];
        sys.load_bytes(PhysAddr::new(100), &mut buf, t);
        assert_eq!(&buf, b"AAAA");
    }

    #[test]
    fn crash_during_checkpoint_rolls_back_to_penultimate() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(0), b"epoch0", Cycle::ZERO);
        let t = sys.drain(Cycle::new(100)); // checkpoint 0 complete
        sys.store_bytes(PhysAddr::new(0), b"epoch1", t);
        let resume = sys.force_checkpoint(t + Cycle::new(10));
        // Crash while checkpoint 1 is in flight.
        assert!(sys.epoch_state().job_running(resume));
        let report = sys.crash_and_recover(resume);
        assert!(report.rolled_back_incomplete);
        let mut buf = [0u8; 6];
        sys.load_bytes(PhysAddr::new(0), &mut buf, resume);
        assert_eq!(&buf, b"epoch0", "incomplete checkpoint discarded");
    }

    #[test]
    fn intermediate_flush_rounds_commit_none_of_the_epochs_writes() {
        // DESIGN §4 item 6: a flush larger than the BTT budget splits into
        // rounds, and only the final one captures the epoch's writes. A
        // crash before the final round completes must therefore recover
        // the image from before the epoch, although an intermediate round
        // already committed.
        let mut sys = small();
        let mut t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let before = sys.visible_fingerprint();
        for page in 1..=68u64 {
            t = sys.store_bytes(PhysAddr::new(page * PAGE_BYTES), &[2u8; 64], t);
        }
        // Flushed blocks that miss both tables do not fit in the full BTT.
        let flushed: Vec<PhysAddr> =
            (0..16u64).map(|i| PhysAddr::new((200 + i) * PAGE_BYTES)).collect();
        let rounds_before = sys.stats().epochs_completed;
        MemorySystem::begin_checkpoint(&mut sys, t, &flushed);
        assert_eq!(sys.stats().epochs_completed - rounds_before, 2, "one intermediate round");
        let done = sys.epoch_state().job.as_ref().expect("final round in flight").done_at;
        sys.arm_crash_point(done - Cycle::new(1));
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, done);
        assert_eq!(sys.stats().crashes_injected, 1);
        assert_eq!(sys.visible_fingerprint(), before, "the epoch's writes are all lost");
    }

    #[test]
    fn functional_footprint_counts_the_image_in_flight() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[1u8; 64], Cycle::ZERO);
        let t = sys.force_checkpoint(t);
        assert!(sys.epoch_state().job_running(t));
        // Rewriting the page copies it: the checkpoint in flight now holds
        // the only copy of the old version, and nothing is committed yet.
        let t = sys.store_bytes(PhysAddr::new(0), &[2u8; 64], t);
        assert_eq!(sys.functional_footprint_pages(), 2, "visible + capture");
        sys.drain(t);
        assert_eq!(sys.functional_footprint_pages(), 2, "visible + committed");
    }

    #[test]
    fn crash_after_checkpoint_done_keeps_it() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(0), b"epoch0", Cycle::ZERO);
        let t = sys.drain(Cycle::new(100));
        sys.store_bytes(PhysAddr::new(0), b"epoch1", t);
        let resume = sys.force_checkpoint(t + Cycle::new(10));
        let done = sys.epoch_state().job.as_ref().unwrap().done_at;
        let _ = resume;
        // Crash *after* the job completed.
        let report = sys.crash_and_recover(done + Cycle::new(1));
        assert!(!report.rolled_back_incomplete);
        let mut buf = [0u8; 6];
        sys.load_bytes(PhysAddr::new(0), &mut buf, done);
        assert_eq!(&buf, b"epoch1");
    }

    #[test]
    fn crash_with_no_checkpoint_recovers_to_zeroes() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(0), b"lost", Cycle::ZERO);
        let report = sys.crash_and_recover(Cycle::new(10));
        assert_eq!(report.recovered_checkpoints, 0);
        let mut buf = [9u8; 4];
        sys.load_bytes(PhysAddr::new(0), &mut buf, Cycle::new(20));
        assert_eq!(buf, [0u8; 4], "nothing was ever made durable");
    }

    #[test]
    fn recovery_restores_promoted_pages_to_dram() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.store_bytes(PhysAddr::new((i % 64) * 64), &[i as u8; 64], now);
        }
        let t = sys.drain(now); // page promoted + checkpointed
        let report = sys.crash_and_recover(t);
        assert!(report.restored_pages >= 1, "PTT pages reload into DRAM (§4.5)");
        assert!(report.recovery_cycles > Cycle::ZERO);
    }

    #[test]
    fn visible_reads_see_working_copy_before_checkpoint() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(64), b"fresh", Cycle::ZERO);
        let mut buf = [0u8; 5];
        sys.load_bytes(PhysAddr::new(64), &mut buf, Cycle::new(10));
        assert_eq!(&buf, b"fresh", "W_active is software-visible (§4.1)");
    }

    #[test]
    fn run_raw_trace_completes_and_checkpoints() {
        // Trace events straight into the controller (no caches), honoring
        // the checkpoint handshake.
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..200u64 {
            let req = MemRequest::write(PhysAddr::new((i * 64) % 8192), 64);
            now = sys.access(&req, now + Cycle::new(10));
            if sys.checkpoint_due(now) {
                now = sys.begin_checkpoint(now, &[]);
            }
        }
        let end = sys.drain(now);
        assert!(end > Cycle::ZERO);
        assert!(sys.stats().epochs_completed >= 1);
        assert!(!sys.has_uncheckpointed_writes());
    }

    #[test]
    fn reads_from_home_region_for_untracked_data() {
        let mut sys = small();
        let before = sys.stats().nvm_reads;
        sys.access(&MemRequest::read(PhysAddr::new(1 << 20), 64), Cycle::ZERO);
        assert_eq!(sys.stats().nvm_reads, before + 1);
        assert_eq!(sys.stats().reads, 1);
    }

    #[test]
    fn reads_of_page_mode_data_hit_dram() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now);
        let dram_reads_before = sys.stats().dram_reads;
        sys.access(&MemRequest::read(PhysAddr::new(0), 64), t);
        assert_eq!(sys.stats().dram_reads, dram_reads_before + 1);
    }

    #[test]
    fn drain_leaves_system_quiescent() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let t = sys.drain(Cycle::new(100));
        assert!(!sys.has_uncheckpointed_writes());
        assert!(!sys.epoch_state().job_running(t));
        // Idempotent.
        assert_eq!(sys.drain(t), t);
    }

    #[test]
    fn name_reflects_mode() {
        assert_eq!(small().name(), "ThyNVM");
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.mode = CkptMode::BlockOnly;
        assert_eq!(ThyNvm::new(cfg).name(), "ThyNVM-blockonly");
        cfg.thynvm.mode = CkptMode::PageOnly;
        assert_eq!(ThyNvm::new(cfg).name(), "ThyNVM-pageonly");
        cfg.thynvm.mode = CkptMode::Dual;
        cfg.thynvm.overlap = false;
        assert_eq!(ThyNvm::new(cfg).name(), "ThyNVM-nooverlap");
    }

    #[test]
    fn ckpt_busy_cycles_accumulate() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let t = sys.force_checkpoint(Cycle::new(1_000));
        let _ = sys.drain(t);
        assert!(sys.stats().ckpt_busy_cycles > Cycle::ZERO);
    }

    // ---------------- §6 extensions ----------------

    #[test]
    fn persist_barrier_makes_preceding_stores_durable() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), b"before", Cycle::ZERO);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let t2 = sys.store_bytes(PhysAddr::new(64), b"after!", t);
        let _ = sys.crash_and_recover(t2);
        let mut a = [0u8; 6];
        let mut b = [0u8; 6];
        sys.load_bytes(PhysAddr::new(0), &mut a, t2);
        sys.load_bytes(PhysAddr::new(64), &mut b, t2);
        assert_eq!(&a, b"before", "pre-barrier data survives");
        assert_eq!(&b, &[0u8; 6], "post-barrier data was never persisted");
    }

    #[test]
    fn persistence_interval_is_configurable() {
        let mut sys = small();
        sys.set_persistence_interval_ms(2);
        assert!(!sys.checkpoint_due(Cycle::from_ms(1)));
        assert!(sys.checkpoint_due(Cycle::from_ms(2)));
    }

    #[test]
    fn archive_retains_past_checkpoints() {
        let mut sys = small();
        sys.set_archive_depth(2);
        let mut t = Cycle::ZERO;
        for i in 1u8..=3 {
            t = sys.store_bytes(PhysAddr::new(0), &[i], t);
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
        }
        // Depth 2: only the two most recent checkpoints retained.
        assert_eq!(sys.archived_checkpoints().len(), 2);
    }

    #[test]
    fn rollback_to_archived_checkpoint_restores_old_image() {
        let mut sys = small();
        sys.set_archive_depth(4);
        let mut t = Cycle::ZERO;
        for i in 1u8..=3 {
            t = sys.store_bytes(PhysAddr::new(0), &[i], t);
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
        }
        let archived = sys.archived_checkpoints();
        assert_eq!(archived.len(), 3);
        // Roll back to the first checkpoint (value 1).
        let _ = sys.rollback_to_checkpoint(archived[0], t).expect("in archive");
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf[0], 1, "the 'bug-free' past image is restored");
        // Later checkpoints are gone from the archive.
        assert_eq!(sys.archived_checkpoints(), vec![archived[0]]);
    }

    #[test]
    fn rollback_rebuilds_cpenult_and_the_checkpoint_count() {
        // Checkpoints the values 1..=`last` into block 0 with archive depth
        // `depth`, rolls back to checkpoint `number`, then crashes with
        // `C_last` corrupt: a media bit flip under CRCs, or a forged byte
        // in secure mode. Returns the crash's report, the recovered value
        // and the errors it surfaced.
        let run = |secure: bool, depth: usize, last: u8, number: u64| {
            let mut sys = ThyNvm::new(if secure { secure_cfg(|_| {}) } else { media_cfg(|_| {}) });
            sys.set_archive_depth(depth);
            let mut t = Cycle::ZERO;
            for val in 1..=last {
                t = store_and_checkpoint(&mut sys, val, t);
            }
            let report = sys.rollback_to_checkpoint(number, t).expect("archived");
            assert_eq!(report.recovered_checkpoints, number);
            if secure {
                sys.inject_tamper(TamperFault::ClastData { addr: 0 });
            } else {
                sys.inject_media_fault(MediaFault::ClastBitFlip { addr: 0 });
            }
            let report = sys.crash_and_recover(t);
            let mut buf = [0xFFu8; 64];
            sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
            assert!(buf.iter().all(|&b| b == buf[0]), "one checkpoint's bytes");
            (report, buf[0], errors(&mut sys))
        };
        for secure in [false, true] {
            // Back to checkpoint 2 of 4: `C_penult` is the archived
            // checkpoint 1, never the discarded checkpoint 3.
            let (report, value, _) = run(secure, 8, 4, 2);
            assert!(report.integrity_fallback && !report.unrecoverable);
            assert_eq!((value, report.recovered_checkpoints), (1, 1), "secure={secure}");

            // Back to the latest checkpoint with only it archived: nothing
            // is discarded, so the kept `C_penult` (checkpoint 2) stands.
            let (report, value, _) = run(secure, 1, 3, 3);
            assert!(report.integrity_fallback && !report.unrecoverable);
            assert_eq!((value, report.recovered_checkpoints), (2, 2), "secure={secure}");

            // Back to checkpoint 1: `C_penult` is checkpoint 0, the empty
            // image.
            let (report, value, _) = run(secure, 8, 2, 1);
            assert!(report.integrity_fallback && !report.unrecoverable);
            assert_eq!((value, report.recovered_checkpoints), (0, 0), "secure={secure}");

            // Back to checkpoint 3 of 4 once checkpoint 2 left the archive:
            // no `C_penult` exists, so recovery reports the loss instead of
            // passing a stand-in image off as checkpoint 2.
            let (report, value, errs) = run(secure, 2, 4, 3);
            assert!(report.unrecoverable && !report.integrity_fallback, "secure={secure}");
            assert_eq!((value, report.recovered_checkpoints), (0, 0), "secure={secure}");
            assert!(matches!(errs[..], [Error::IntegrityUnrecoverable { .. }]), "got {errs:?}");
        }
    }

    #[test]
    fn a_recovery_abandons_at_most_one_checkpoint() {
        // Each case checkpoints the values 1..=`last` into block 0, arms
        // each crash's faults and crashes, then checks the recovered value,
        // checkpoint count, archive, fallback counters and unrecoverable
        // errors. A follow-up commit of 9 must take the next number, and a
        // rollback to it must restore 9.
        type Faults = (Option<MediaFault>, Option<TamperFault>);
        struct Case {
            name: &'static str,
            media: bool,
            secure: bool,
            depth: usize,
            /// Set the depth after the commits instead of before them.
            late: bool,
            last: u8,
            crashes: &'static [Faults],
            value: u8,
            recovered: u64,
            archive: &'static [u64],
            /// `integrity_fallbacks` and `verify_fallbacks`.
            fallbacks: (u64, u64),
            unrecoverable: usize,
        }
        const FLIP: Faults = (Some(MediaFault::ClastBitFlip { addr: 0 }), None);
        const FORGE: Faults = (None, Some(TamperFault::ClastData { addr: 0 }));
        const BOTH: Faults = (None, Some(TamperFault::BothImages { addr: 0 }));
        const FLIP_STALE: Faults = (FLIP.0, Some(TamperFault::StaleCounterTable));
        const FLIP_TORN_ROOT: Faults = (FLIP.0, Some(TamperFault::TornRootMeta));
        // Media and secure mode at archive depth 8, checkpoints 1–4.
        const BASE: Case = Case {
            name: "",
            media: true,
            secure: true,
            depth: 8,
            late: false,
            last: 4,
            crashes: &[],
            value: 0,
            recovered: 0,
            archive: &[],
            fallbacks: (0, 0),
            unrecoverable: 0,
        };
        const MEDIA: Case = Case { secure: false, ..BASE };
        const SECURE: Case = Case { media: false, ..BASE };
        let cases = [
            // The CRC step falls back once; the MAC step then finds the
            // stale table or torn root and heals it without falling back
            // again.
            Case {
                name: "flip + stale table",
                crashes: &[FLIP_STALE],
                value: 3,
                recovered: 3,
                archive: &[1, 2, 3],
                fallbacks: (1, 1),
                ..BASE
            },
            Case {
                name: "flip + torn root",
                crashes: &[FLIP_TORN_ROOT],
                value: 3,
                recovered: 3,
                archive: &[1, 2, 3],
                fallbacks: (1, 1),
                ..BASE
            },
            // An unrecoverable reset forgets every held checkpoint.
            Case { name: "both images", last: 3, crashes: &[BOTH], unrecoverable: 1, ..SECURE },
            // A second failure before the next commit falls back to n − 2
            // when the history holds it, and is unrecoverable otherwise.
            Case {
                name: "flip twice, depth 8",
                crashes: &[FLIP, FLIP],
                value: 2,
                recovered: 2,
                archive: &[1, 2],
                fallbacks: (2, 0),
                ..MEDIA
            },
            Case {
                name: "flip twice, depth 0",
                depth: 0,
                crashes: &[FLIP, FLIP],
                fallbacks: (1, 0),
                unrecoverable: 1,
                ..MEDIA
            },
            Case {
                name: "forge twice, depth 8",
                crashes: &[FORGE, FORGE],
                value: 2,
                recovered: 2,
                archive: &[1, 2],
                fallbacks: (0, 2),
                ..SECURE
            },
            Case {
                name: "forge twice, depth 0",
                depth: 0,
                crashes: &[FORGE, FORGE],
                fallbacks: (0, 1),
                unrecoverable: 1,
                ..SECURE
            },
            // Checkpoints already held count toward a depth set later.
            Case {
                name: "late depth, no verifier",
                media: false,
                secure: false,
                late: true,
                last: 3,
                value: 3,
                recovered: 3,
                archive: &[3],
                ..BASE
            },
            Case {
                name: "late depth, media",
                late: true,
                last: 3,
                value: 3,
                recovered: 3,
                archive: &[2, 3],
                ..MEDIA
            },
        ];
        let read = |sys: &mut ThyNvm, t: Cycle| {
            let mut buf = [0xFFu8; 64];
            sys.load_bytes(PhysAddr::new(0), &mut buf, t);
            assert!(buf.iter().all(|&b| b == buf[0]), "one checkpoint's bytes");
            buf[0]
        };
        for c in cases {
            let mut cfg = SystemConfig::small_test();
            if c.media {
                cfg.media = thynvm_types::MediaFaultConfig::hardened();
            }
            if c.secure {
                cfg.security = thynvm_types::SecurityConfig::hardened();
            }
            let mut sys = ThyNvm::new(cfg);
            if !c.late {
                sys.set_archive_depth(c.depth);
            }
            let mut t = Cycle::ZERO;
            for val in 1..=c.last {
                t = store_and_checkpoint(&mut sys, val, t);
            }
            if c.late {
                sys.set_archive_depth(c.depth);
            }
            for &(media, tamper) in c.crashes {
                if let Some(fault) = media {
                    sys.inject_media_fault(fault);
                }
                if let Some(fault) = tamper {
                    sys.inject_tamper(fault);
                }
                t += sys.crash_and_recover(t).recovery_cycles;
            }
            let got = (read(&mut sys, t), sys.epoch_state().completed, sys.archived_checkpoints());
            assert_eq!(got, (c.value, c.recovered, c.archive.to_vec()), "{}", c.name);
            let s = sys.stats();
            let fallbacks = (s.media.integrity_fallbacks, s.security.verify_fallbacks);
            assert_eq!(fallbacks, c.fallbacks, "{}", c.name);
            let unrecoverable = errors(&mut sys)
                .iter()
                .filter(|e| matches!(e, Error::IntegrityUnrecoverable { .. }))
                .count();
            assert_eq!(unrecoverable, c.unrecoverable, "{}", c.name);

            t = store_and_checkpoint(&mut sys, 9, t);
            assert_eq!(sys.epoch_state().completed, c.recovered + 1, "{}: next commit", c.name);
            if c.depth > 0 {
                let report = sys.rollback_to_checkpoint(c.recovered + 1, t).expect("archived");
                assert_eq!(read(&mut sys, t + report.recovery_cycles), 9, "{}: rollback", c.name);
            }
        }
    }

    #[test]
    fn seeded_fault_sequences_keep_image_count_and_history_in_step() {
        // Media and secure mode at several archive depths: commits, crashes
        // with a media fault or a tamper armed, crashes that lose an
        // uncheckpointed store, and rollbacks, in a seeded random order.
        // `shadow[n]` is the value checkpoint `n` committed to block 0.
        let media = [
            MediaFault::TornCommitRecord,
            MediaFault::ClastBitFlip { addr: 0 },
            MediaFault::CorruptPttMetadata,
        ];
        let tampers = [
            TamperFault::ClastData { addr: 0 },
            TamperFault::StaleCounterTable,
            TamperFault::TornRootMeta,
            TamperFault::BothImages { addr: 0 },
        ];
        for depth in [0, 1, 2, 8] {
            for seed in 0..100u64 {
                let mut cfg = SystemConfig::small_test();
                cfg.media = thynvm_types::MediaFaultConfig::hardened();
                cfg.security = thynvm_types::SecurityConfig::hardened();
                let mut sys = ThyNvm::new(cfg);
                sys.set_archive_depth(depth);
                let mut shadow = vec![0u8];
                let mut rng = seed;
                let mut t = Cycle::ZERO;
                for step in 0..40u8 {
                    let ctx = format!("depth {depth} seed {seed} step {step}");
                    let roll = thynvm_types::rng::next(&mut rng);
                    let val = step + 1;
                    let pick = (roll >> 8) as usize;
                    match roll % 7 {
                        0..=2 => {
                            t = store_and_checkpoint(&mut sys, val, t);
                            shadow.push(val);
                        }
                        6 => {
                            let archived = sys.archived_checkpoints();
                            if let Some(&n) = archived.get(pick % archived.len().max(1)) {
                                let report = sys.rollback_to_checkpoint(n, t).expect("archived");
                                t += report.recovery_cycles;
                            }
                        }
                        crash => {
                            match crash {
                                3 => sys.inject_media_fault(media[pick % media.len()]),
                                4 => sys.inject_tamper(tampers[pick % tampers.len()]),
                                _ => t = sys.store_bytes(PhysAddr::new(0), &[val; 64], t),
                            }
                            t += sys.crash_and_recover(t).recovery_cycles;
                        }
                    }

                    let n = sys.epoch_state().completed;
                    assert!((n as usize) < shadow.len(), "{ctx}: {n} checkpoints reported");
                    shadow.truncate(n as usize + 1);
                    let mut buf = [0xFFu8; 64];
                    t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
                    assert_eq!(buf, [shadow[n as usize]; 64], "{ctx}: image of checkpoint {n}");

                    let archived = sys.archived_checkpoints();
                    let ordered = archived.windows(2).all(|w| w[0] < w[1]);
                    let ends_at_n = archived.last().is_none_or(|&last| last == n);
                    let held = archived.len() <= depth;
                    assert!(ordered && held && ends_at_n, "{ctx}: archive {archived:?}");
                    assert_macs_match_images(&mut sys, &ctx);
                    // The records behind checkpoint 0 are consecutive and end
                    // at `C_last`, so a held `C_penult` is numbered one below.
                    let numbers: Vec<u64> = sys.history.iter().map(|c| c.number).collect();
                    assert_eq!(numbers.first(), Some(&0), "{ctx}: history {numbers:?}");
                    assert_eq!(numbers.last(), Some(&n), "{ctx}: history {numbers:?}");
                    let consecutive = numbers[1..].windows(2).all(|w| w[0] + 1 == w[1]);
                    assert!(consecutive, "{ctx}: history {numbers:?}");
                    assert_security_conservation(&sys);
                }
            }
        }
    }

    #[test]
    fn integrity_fallback_drops_the_abandoned_checkpoint_from_the_archive() {
        // A fallback abandons checkpoint 3, and the next commit is numbered
        // 3 again: a rollback to 3 must restore that commit, not the
        // abandoned image.
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        sys.set_archive_depth(8);
        let mut t = Cycle::ZERO;
        for val in 1u8..=3 {
            t = store_and_checkpoint(&mut sys, val, t);
        }
        sys.inject_media_fault(MediaFault::ClastBitFlip { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        assert_eq!(sys.archived_checkpoints(), vec![1, 2]);
        let t = store_and_checkpoint(&mut sys, 9, t + report.recovery_cycles);
        assert_eq!(sys.archived_checkpoints(), vec![1, 2, 3]);
        let report = sys.rollback_to_checkpoint(3, t).expect("archived");
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [9u8; 64], "checkpoint 3 is the commit after the fallback");
    }

    #[test]
    fn rollback_to_unknown_checkpoint_errors() {
        let mut sys = small();
        sys.set_archive_depth(2);
        let err = sys.rollback_to_checkpoint(99, Cycle::ZERO).unwrap_err();
        assert_eq!(err, thynvm_types::Error::NoCheckpoint);
    }

    #[test]
    fn nvm_working_region_functions_identically() {
        // §4.1 footnote 3 exploration: correctness must be placement-
        // independent; only timing and traffic accounting change.
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.working_region = thynvm_types::WorkingRegion::Nvm;
        let mut sys = ThyNvm::new(cfg);
        let t = sys.store_bytes(PhysAddr::new(0x40), b"nvm-working", Cycle::ZERO);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let _ = sys.crash_and_recover(t);
        let mut buf = [0u8; 11];
        sys.load_bytes(PhysAddr::new(0x40), &mut buf, t);
        assert_eq!(&buf, b"nvm-working");
        // No DRAM traffic at all in this placement.
        assert_eq!(sys.stats().dram_write_bytes, 0);
        assert_eq!(sys.stats().dram_reads, 0);
    }

    #[test]
    fn nvm_working_region_page_writes_hit_nvm() {
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.working_region = thynvm_types::WorkingRegion::Nvm;
        let mut sys = ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now); // page promoted into the NVM working region
        assert!(sys.ptt().get(PageIndex::new(0)).is_some());
        let nvm_before = sys.stats().nvm_write_bytes_cpu;
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        assert!(sys.stats().nvm_write_bytes_cpu > nvm_before, "page write went to NVM");
        assert_eq!(sys.stats().dram_write_bytes, 0);
    }

    /// FNV-1a 64 of `bytes`, continuing from `h`.
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// Drives a seeded mix of `store_bytes`/`load_bytes` of 1–9000 B at
    /// unaligned addresses over 48 pages (half of them within the first
    /// 8, so pages get hot), with a `force_checkpoint` every fourth op, so requests meet frozen pages and promotions land in the
    /// middle of a request. With `poison`, every seventh op arms one DRAM
    /// poison on the next read and plants one in a resident page's DRAM
    /// copy, where a later whole-block store must clear it. Folds every
    /// returned cycle and loaded byte, `MemStats`, both devices' stats and
    /// the visible image into one FNV-1a digest.
    fn byte_mix_digest(cfg: SystemConfig, poison: bool) -> u64 {
        let mut sys = ThyNvm::new(cfg);
        let (mut rng, mut h, mut t) = (0x006d_6978_u64, 0xcbf2_9ce4_8422_2325u64, Cycle::ZERO);
        let mut buf = vec![0u8; 9000];
        for op in 0..400u64 {
            let r = thynvm_types::rng::next(&mut rng);
            let len = 1 + (r >> 8) % 9000;
            let span = if r & 2 == 0 { 8 * PAGE_BYTES } else { 48 * PAGE_BYTES };
            let addr = PhysAddr::new((r >> 24) % (span - len));
            let data = &mut buf[..len as usize];
            if r & 1 == 0 {
                data.iter_mut().enumerate().for_each(|(i, b)| *b = (op as u8) ^ (i as u8));
                t = sys.store_bytes(addr, data, t);
            } else {
                t = sys.load_bytes(addr, data, t);
                h = fnv(h, data);
            }
            h = fnv(h, &t.raw().to_le_bytes());
            if op % 4 == 3 {
                t = sys.force_checkpoint(t);
                h = fnv(h, &t.raw().to_le_bytes());
            }
            if poison && op % 7 == 0 {
                let mut pages: Vec<_> = sys.ptt().iter().map(|(p, e)| (p, e.slot)).collect();
                pages.sort_unstable();
                let ecc = sys.dram_ecc_mut().expect("hardened arms the DRAM model");
                ecc.arm_poison(1);
                if let Some(&(_, slot)) = pages.get((r >> 40) as usize % pages.len().max(1)) {
                    ecc.poison_block(u64::from(slot) * PAGE_BYTES + (r >> 50) % 64 * BLOCK_BYTES);
                }
            }
        }
        t = sys.drain(t);
        h = fnv(h, &t.raw().to_le_bytes());
        h = fnv(h, sys.stats().to_string().as_bytes());
        h = fnv(h, format!("{:?}", sys.dram_device().stats()).as_bytes());
        h = fnv(h, format!("{:?}", sys.nvm_device().stats()).as_bytes());
        fnv(h, &sys.visible_fingerprint().to_le_bytes())
    }

    #[test]
    fn multi_block_byte_requests_keep_their_digests() {
        let dual = SystemConfig::small_test();
        let mut page_only = dual;
        page_only.thynvm.mode = CkptMode::PageOnly;
        let mut nvm_working = dual;
        nvm_working.thynvm.working_region = thynvm_types::WorkingRegion::Nvm;
        let mut hardened = SystemConfig::hardened();
        hardened.thynvm = dual.thynvm;
        hardened.validate().expect("valid hardened small config");
        let digests = [
            byte_mix_digest(dual, false),
            byte_mix_digest(page_only, false),
            byte_mix_digest(nvm_working, false),
            byte_mix_digest(hardened, true),
        ];
        // Dual, PageOnly, NVM working region, hardened with poison.
        let pinned: [u64; 4] =
            [0x1bdc_1d1d_50c9_e5d4, 0x5f97_f230_dae8_3e61, 0x62a2_caa0_40b1_c74c, 0x2aa5_25f6_482a_df96];
        assert_eq!(digests.map(|d| format!("{d:016x}")), pinned.map(|d| format!("{d:016x}")));
    }

    /// A PageOnly store that waits out its frozen page's writeback can find
    /// the page gone: the commit's promotions evict the smallest clean page
    /// when the PTT is full. The store is then served as one to a page the
    /// PTT lacks, promoted back, instead of panicking on the missing entry.
    #[test]
    fn a_page_only_store_whose_wait_evicts_its_page_is_served() {
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.mode = CkptMode::PageOnly;
        cfg.thynvm.ptt_entries = 2;
        let mut sys = ThyNvm::new(cfg);
        // Pages 1 and 2 fill the PTT dirty, so page 3 finds no victim and
        // stays with block remapping, counted hot for the commit.
        let mut t = Cycle::ZERO;
        for page in [1u64, 2, 3] {
            t = sys.store_bytes(PhysAddr::new(page * PAGE_BYTES), &[1], t);
        }
        assert!(sys.ptt().get(PageIndex::new(3)).is_none());
        t = sys.force_checkpoint(t);
        assert!(sys.page_frozen(PageIndex::new(1), t), "the job writes page 1 back");
        // The store waits for the job, whose commit promotes page 3 last
        // and evicts page 1, the smallest clean one.
        let stall = sys.stats().ckpt_stall_cycles;
        t = sys.store_bytes(PhysAddr::new(PAGE_BYTES + 8), &[9], t);
        assert!(sys.stats().ckpt_stall_cycles > stall, "the store waited");
        assert!(sys.ptt().get(PageIndex::new(1)).is_some_and(|e| e.dirty), "promoted back, dirty");
        let mut b = [0u8];
        sys.load_bytes(PhysAddr::new(PAGE_BYTES + 8), &mut b, t);
        assert_eq!(b, [9]);
    }

    thread_local! {
        /// The run referee's switch: while set, `access` cuts a request
        /// into one run per block.
        static BLOCKWISE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    impl ThyNvm {
        /// Whether `page` is frozen at `now`: a job is running and writing
        /// the page back (its PTT entry holds a `pending` region).
        fn page_frozen(&self, page: PageIndex, now: Cycle) -> bool {
            self.epoch.job_running(now) && self.ptt.get(page).is_some_and(|e| e.pending.is_some())
        }

        /// `page_run_bytes` under test: a block while [`BLOCKWISE`] is set.
        pub(super) fn page_run_bytes() -> u64 {
            if BLOCKWISE.get() {
                BLOCK_BYTES
            } else {
                PAGE_BYTES
            }
        }
    }

    /// The configurations the run referee crosses: Dual, PageOnly,
    /// BlockOnly, an NVM working region, `hardened()` with the persist
    /// buffer armed (DRAM poison is planted by the mix), and the same with
    /// a wearing, flipping medium, so blocks remap and reads retry.
    fn referee_configs() -> [(SystemConfig, bool); 6] {
        let dual = SystemConfig::small_test();
        let with = |f: &dyn Fn(&mut SystemConfig)| {
            let mut cfg = dual;
            f(&mut cfg);
            cfg
        };
        let mut hardened = SystemConfig::hardened();
        hardened.thynvm = dual.thynvm;
        hardened.wpq = thynvm_types::PersistBufferConfig::armed();
        let mut worn = hardened;
        worn.media.bit_flip_rate = 0.01;
        worn.media.stuck_at_threshold = 24;
        worn.media.spare_blocks = 64;
        for cfg in [hardened, worn] {
            cfg.validate().expect("valid hardened small config");
        }
        [
            (dual, false),
            (with(&|c| c.thynvm.mode = CkptMode::PageOnly), false),
            (with(&|c| c.thynvm.mode = CkptMode::BlockOnly), false),
            (with(&|c| c.thynvm.working_region = thynvm_types::WorkingRegion::Nvm), false),
            (hardened, true),
            (worn, true),
        ]
    }

    /// Serves the byte mix `ops` (one draw per request) and returns what
    /// it shows, one line per request and six at the end: each returned
    /// cycle and loaded byte, `MemStats` (its `Display` and every field),
    /// both `DeviceStats`, the visible image's fingerprint and the
    /// journal. Requests are 1 B–9 KiB at unaligned addresses over 160
    /// pages, two and a half times what the PTT holds, a quarter of them
    /// within 16 hot pages; the draw also picks a `force_checkpoint` or a
    /// `drain` after the request, and with `poison` it arms and plants DRAM
    /// poison as [`byte_mix_digest`] does. With `blockwise`, `access`
    /// serves every block of a request as a run of its own.
    fn byte_mix_trace(cfg: SystemConfig, poison: bool, ops: &[u64], blockwise: bool) -> Vec<String> {
        BLOCKWISE.set(blockwise);
        let mut sys = ThyNvm::new(cfg);
        let (mut out, mut t, mut buf) = (Vec::new(), Cycle::ZERO, vec![0u8; 9 * 1024]);
        for (op, &r) in ops.iter().enumerate() {
            let len = 1 + (r >> 8) % (9 * 1024);
            let span = if r & 6 == 0 { 16 * PAGE_BYTES } else { 160 * PAGE_BYTES };
            let addr = PhysAddr::new((r >> 24) % (span - len));
            let data = &mut buf[..len as usize];
            let mut line = if r & 1 == 0 {
                data.iter_mut().enumerate().for_each(|(i, b)| *b = (op as u8) ^ (i as u8));
                t = sys.store_bytes(addr, data, t);
                format!("{op}: store {len} B at {addr:?} -> {}", t.raw())
            } else {
                t = sys.load_bytes(addr, data, t);
                format!("{op}: load {len} B at {addr:?} -> {} {:016x}", t.raw(), fnv(0, data))
            };
            match (r >> 56) % 8 {
                0 | 1 => t = sys.force_checkpoint(t),
                2 => t = sys.drain(t),
                _ if sys.checkpoint_due(t) => t = sys.begin_checkpoint(t, &[]),
                _ => {}
            }
            line += &format!(", then {}", t.raw());
            out.push(line);
            if poison && op % 7 == 0 {
                let mut pages: Vec<_> = sys.ptt().iter().map(|(p, e)| (p, e.slot)).collect();
                pages.sort_unstable();
                let ecc = sys.dram_ecc_mut().expect("hardened arms the DRAM model");
                ecc.arm_poison(1);
                if let Some(&(_, slot)) = pages.get((r >> 40) as usize % pages.len().max(1)) {
                    ecc.poison_block(u64::from(slot) * PAGE_BYTES + (r >> 50) % 64 * BLOCK_BYTES);
                }
            }
        }
        t = sys.drain(t);
        out.push(format!("drain -> {}", t.raw()));
        out.push(sys.stats().to_string());
        out.push(format!("{:?}", sys.stats()));
        out.push(format!("DRAM {:?}", sys.dram_device().stats()));
        out.push(format!("NVM {:?}", sys.nvm_device().stats()));
        out.push(format!("image {:016x}", sys.visible_fingerprint()));
        out.push(format!("{:?}", sys.take_events()));
        BLOCKWISE.set(false);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The run referee: a request served a page run at a time shows
        /// exactly what serving each of its blocks as a run of its own
        /// shows, in every configuration.
        #[test]
        fn page_runs_equal_their_blocks_one_at_a_time(
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..200),
        ) {
            for (i, (cfg, poison)) in referee_configs().into_iter().enumerate() {
                let runs = byte_mix_trace(cfg, poison, &ops, false);
                let blocks = byte_mix_trace(cfg, poison, &ops, true);
                let first = runs.iter().zip(&blocks).position(|(a, b)| a != b);
                if let Some(k) = first {
                    proptest::prop_assert_eq!(&runs[k], &blocks[k], "configuration {}, line {}", i, k);
                }
                proptest::prop_assert_eq!(runs.len(), blocks.len(), "configuration {}", i);
            }
        }
    }

    #[test]
    fn archive_disabled_by_default() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[1], Cycle::ZERO);
        let t = sys.force_checkpoint(t);
        let _ = sys.drain(t);
        assert!(sys.archived_checkpoints().is_empty());
    }

    // ---------------- fault injection ----------------

    #[test]
    fn armed_crash_fires_on_next_request_past_the_point() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[1], Cycle::ZERO);
        sys.arm_crash_point(t + Cycle::new(10));
        assert_eq!(sys.armed_crash_point(), Some(t + Cycle::new(10)));
        // A store before the point proceeds normally.
        let t2 = sys.store_bytes(PhysAddr::new(64), &[2], t);
        assert!(crashes(&mut sys).is_empty());
        // The first request strictly past the point triggers the crash.
        let resume = sys.store_bytes(PhysAddr::new(128), &[3], t2 + Cycle::new(1_000));
        let crash = crashes(&mut sys).pop().expect("crash fired");
        assert_eq!(crash.event.cycle, t + Cycle::new(10));
        assert_eq!(crash.resume_at, resume);
        assert_eq!(sys.armed_crash_point(), None);
        assert_eq!(sys.stats().crashes_injected, 1);
        // No checkpoint had completed: everything reads zero, including the
        // dropped store.
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(128), &mut buf, resume);
        assert_eq!(buf[0], 0, "the crashed store must be dropped");
    }

    #[test]
    fn crash_during_checkpoint_classifies_phase_and_rolls_back() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[7], Cycle::ZERO);
        // First checkpoint completes: C_last = {7}.
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let t = sys.store_bytes(PhysAddr::new(0), &[8], t);
        // Second checkpoint starts; crash one cycle before its commit.
        let resume = sys.force_checkpoint(t);
        let job_done = sys.epoch_state().job.as_ref().expect("job in flight").done_at;
        sys.arm_crash_point(job_done - Cycle::new(1));
        let after = sys.load_bytes(PhysAddr::new(0), &mut [0u8; 1], job_done + Cycle::new(1));
        let _ = (resume, after);
        let crash = crashes(&mut sys).pop().expect("crash fired");
        assert!(crash.report.rolled_back_incomplete, "checkpoint was in flight");
        assert_eq!(crash.event.outcome, thynvm_types::RecoveryOutcome::CPenult);
        assert_ne!(crash.event.phase, thynvm_types::CkptPhase::Execution);
        // Recovery restored the first checkpoint's value.
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(0), &mut buf, crash.resume_at);
        assert_eq!(buf[0], 7);
        assert_eq!(sys.stats().recoveries_to_cpenult, 1);
    }

    #[test]
    fn crash_after_checkpoint_commit_keeps_clast() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[9], Cycle::ZERO);
        let t = sys.force_checkpoint(t);
        let job_done = sys.epoch_state().job.as_ref().map(|j| j.done_at).unwrap_or(t);
        // Crash exactly at the commit cycle: the checkpoint counts.
        sys.arm_crash_point(job_done);
        sys.load_bytes(PhysAddr::new(0), &mut [0u8; 1], job_done + Cycle::new(1));
        let crash = crashes(&mut sys).pop().expect("crash fired");
        assert!(!crash.report.rolled_back_incomplete);
        assert_eq!(crash.event.outcome, thynvm_types::RecoveryOutcome::CLast);
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(0), &mut buf, crash.resume_at);
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn crash_fires_while_stalled_on_inflight_job() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[1], Cycle::ZERO);
        let resume = sys.force_checkpoint(t);
        let job_done = sys.epoch_state().job.as_ref().expect("overlap job").done_at;
        assert!(resume < job_done, "needs an overlapped in-flight job");
        // Arm inside the job's window, then request a second checkpoint:
        // the controller would stall until `job_done`, but power fails
        // mid-wait.
        sys.arm_crash_point(job_done - Cycle::new(1));
        sys.force_checkpoint(resume);
        let crash = crashes(&mut sys).pop().expect("crash fired during stall");
        assert!(crash.report.rolled_back_incomplete);
    }

    #[test]
    fn crash_fires_while_a_page_only_store_stalls_on_a_frozen_page() {
        // PageOnly has no block scheme to absorb a store to a frozen page:
        // the store waits for the page's writeback, and power can fail
        // during that wait like during any other.
        for bytes in [64usize, 128] {
            let mut cfg = SystemConfig::small_test();
            cfg.thynvm.mode = CkptMode::PageOnly;
            let mut sys = ThyNvm::new(cfg);
            let t = sys.store_bytes(PhysAddr::new(0), &[1; 64], Cycle::ZERO);
            let t = sys.force_checkpoint(t);
            let t = sys.drain(t);
            let t = sys.store_bytes(PhysAddr::new(0), &[2; 64], t);
            sys.force_checkpoint(t);
            let job = sys.epoch_state().job.as_ref().expect("job in flight");
            // A point a quarter into the job's window, and a store to the
            // frozen page two cycles before it.
            let at = job.started + Cycle::new((job.done_at - job.started).raw() / 4);
            sys.arm_crash_point(at);
            let acked = sys.store_bytes(PhysAddr::new(0), &vec![3; bytes], at - Cycle::new(2));
            let crash = crashes(&mut sys).pop().expect("the crash fires inside the stalled store");
            assert!(crash.report.rolled_back_incomplete, "the job never completed");
            assert_eq!(acked, crash.resume_at, "{bytes} B: the store ends with the power");
            assert_eq!(sys.armed_crash_point(), None);
            // Power was gone for the request's second block too: nothing of
            // the store reached the recovered controller.
            assert!(!sys.has_uncheckpointed_writes(), "{bytes} B");
            let mut buf = [0u8; 64];
            sys.load_bytes(PhysAddr::new(0), &mut buf, acked);
            assert_eq!(buf, [1; 64], "{bytes} B: the load sees the recovered image");
            assert!(crashes(&mut sys).is_empty(), "no second crash");
        }
    }

    #[test]
    fn a_load_held_back_past_a_crash_point_returns_the_recovered_image() {
        // A PageOnly store to a frozen page holds every later request back
        // until the job completes. A crash point inside that hold-back
        // fires when the next load starts: the load must see the recovered
        // image, not the bytes visible when it was issued.
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.mode = CkptMode::PageOnly;
        let mut sys = ThyNvm::new(cfg);
        let t = sys.store_bytes(PhysAddr::new(0), &[1; 64], Cycle::ZERO);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let t = sys.store_bytes(PhysAddr::new(0), &[2; 64], t);
        sys.force_checkpoint(t);
        let job = sys.epoch_state().job.as_ref().expect("job in flight");
        let (start, done_at) = (job.started, job.done_at);
        let acked = sys.store_bytes(PhysAddr::new(0), &[3; 64], start + Cycle::new(10));
        assert!(acked >= done_at, "the store waits out the frozen page");
        // Later than every issue cycle so far, earlier than the hold-back.
        sys.arm_crash_point(start + Cycle::new(110));
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, start + Cycle::new(11));
        assert_eq!(crashes(&mut sys).len(), 1, "power fails before the load is served");
        assert_eq!(buf, [2; 64], "the load returns the recovered image");
        sys.load_bytes(PhysAddr::new(0), &mut buf, acked);
        assert_eq!(buf, [2; 64]);
    }

    #[test]
    fn disarm_prevents_the_crash() {
        let mut sys = small();
        sys.arm_crash_point(Cycle::new(5));
        assert_eq!(sys.disarm_crash_point(), Some(Cycle::new(5)));
        let t = sys.store_bytes(PhysAddr::new(0), &[1], Cycle::new(100));
        assert!(crashes(&mut sys).is_empty());
        assert!(t > Cycle::new(100));
        assert_eq!(sys.stats().crashes_injected, 0);
    }

    #[test]
    fn poll_crash_fires_between_requests() {
        let mut sys = small();
        sys.arm_crash_point(Cycle::new(50));
        // Power fails at the *end* of cycle 50: not due at 50 itself.
        assert!(sys.poll_crash(Cycle::new(49)).is_none());
        assert!(sys.poll_crash(Cycle::new(50)).is_none());
        let resume = sys.poll_crash(Cycle::new(51)).expect("due");
        assert!(resume >= Cycle::new(50));
        assert_eq!(crashes(&mut sys).len(), 1);
    }

    #[test]
    fn crash_entry_records_epoch_phase_and_cycle() {
        let mut sys = small();
        let mut t = Cycle::ZERO;
        for round in 0u8..3 {
            t = sys.store_bytes(PhysAddr::new(0), &[round + 1], t);
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
        }
        let epoch_before = sys.epoch_state().active_epoch;
        sys.arm_crash_point(t + Cycle::new(1));
        sys.store_bytes(PhysAddr::new(0), &[9], t + Cycle::new(2));
        let events = sys.take_events();
        let [Event { cycle, kind: EventKind::Crash(crash) }] = &events[..] else {
            panic!("one crash, one journal entry: {events:?}");
        };
        assert_eq!(*cycle, t + Cycle::new(1), "stamped with the power-fail cycle");
        assert_eq!(crash.event.cycle, *cycle);
        assert_eq!(crash.event.epoch, epoch_before);
        assert_eq!(crash.event.phase, thynvm_types::CkptPhase::Execution);
        assert!(sys.take_events().is_empty(), "the journal drains once");
    }

    // ------------------------------------------------------------------
    // Media faults & self-healing
    // ------------------------------------------------------------------

    fn media_cfg(f: impl FnOnce(&mut thynvm_types::MediaFaultConfig)) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        f(&mut cfg.media);
        cfg.validate().expect("valid media config");
        cfg
    }

    /// Stores `val` over block 0 and completes a full checkpoint.
    fn store_and_checkpoint(sys: &mut ThyNvm, val: u8, t: Cycle) -> Cycle {
        let t = sys.store_bytes(PhysAddr::new(0), &[val; 64], t);
        let t = sys.force_checkpoint(t);
        sys.drain(t)
    }

    #[test]
    fn torn_commit_record_falls_back_to_cpenult() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        assert!(!report.rolled_back_incomplete);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64], "recovered to C_penult's contents");
        assert_eq!(sys.stats().media.torn_writes, 1);
        assert_eq!(sys.stats().media.integrity_fallbacks, 1);
    }

    #[test]
    fn clast_bit_flip_falls_back_to_cpenult() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_media_fault(MediaFault::ClastBitFlip { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
        assert_eq!(sys.stats().media.bit_flips, 1);
    }

    #[test]
    fn corrupt_ptt_metadata_falls_back_to_cpenult() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_media_fault(MediaFault::CorruptPttMetadata);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
        assert_eq!(sys.stats().media.meta_corruptions, 1);
    }

    #[test]
    fn injected_fault_stays_armed_until_a_checkpoint_exists() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        // No completed checkpoint: nothing persisted to corrupt yet.
        let report = sys.crash_and_recover(Cycle::new(100));
        assert!(!report.integrity_fallback);
        assert_eq!(sys.stats().media.integrity_fallbacks, 0);
        // After the first checkpoint the armed fault fires and recovery
        // falls back to the pre-checkpoint (empty) image.
        let t = store_and_checkpoint(&mut sys, 3, Cycle::new(200));
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "fell back to the initial zero image");
    }

    #[test]
    fn transient_flip_is_healed_by_retry() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xAA; 64], Cycle::ZERO);
        sys.fault_model_mut().expect("media on").arm_transient_flips(1);
        let mut buf = [0u8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [0xAA; 64], "CRC+retry delivered the true bytes");
        let m = sys.stats().media;
        assert_eq!(m.bit_flips, 1);
        assert_eq!(m.retries, 1, "one retry healed the transient flip");
        assert_eq!(m.remaps, 0);
        assert_eq!(m.integrity_fallbacks, 0);
        assert!(errors(&mut sys).is_empty(), "a healed flip is not a fault");
        // And the system keeps working afterwards.
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [0xAA; 64]);
    }

    #[test]
    fn silent_corruption_reaches_software_without_integrity() {
        let mut sys = ThyNvm::new(media_cfg(|m| {
            m.integrity = false;
            m.scrub = false;
        }));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xAA; 64], Cycle::ZERO);
        sys.fault_model_mut().expect("media on").arm_transient_flips(1);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_ne!(buf, [0xAA; 64], "no CRC, so the flip is delivered");
        assert_eq!(sys.stats().media.silent_corruptions, 1);
        assert_eq!(sys.stats().media.retries, 0);
        // The fault model still records what software never saw.
        let errs = errors(&mut sys);
        assert!(
            matches!(errs[..], [Error::MediaCorruption { kind: FaultKind::BitFlip, .. }]),
            "got {errs:?}"
        );
    }

    #[test]
    fn a_worn_out_spare_is_remapped_once_and_reads_follow_the_chain() {
        // The remapped block's stores wear out its spare too. The spare is
        // remapped like any other block, once: later loads follow the chain
        // to the second spare and read clean, with no further retries.
        let mut sys = ThyNvm::new(media_cfg(|m| {
            m.stuck_at_threshold = 2;
            m.scrub = false;
        }));
        let (mut t, mut buf) = (Cycle::ZERO, [0u8; 64]);
        for _ in 0..4 {
            t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
            t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
            t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
            assert_eq!(buf, [7u8; 64]);
        }
        let m = sys.stats().media;
        assert_eq!((m.stuck_faults, m.remaps, m.retries), (2, 2, 6));
        // One slot per block the table keys, handed out in order.
        let mut slots: Vec<u64> = sys.bad_blocks.values().copied().collect();
        slots.sort_unstable();
        assert_eq!(slots, [0, 1]);
        assert_eq!(sys.health_signals().spares_used, 2);
    }

    #[test]
    fn stuck_cell_is_remapped_exactly_once() {
        for armed in [false, true] {
            let mut cfg = media_cfg(|m| {
                m.stuck_at_threshold = 2;
                m.scrub = false; // exercise the read path, not the scrubber
            });
            if armed {
                cfg.wpq = thynvm_types::PersistBufferConfig::armed();
            }
            let mut sys = ThyNvm::new(cfg);
            // Two writes to the same row cross the wear threshold.
            let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], Cycle::ZERO);
            let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
            assert_eq!(sys.stats().media.stuck_faults, 1, "wear created a stuck cell");
            let wpq_before = sys.stats().wpq;
            let mut buf = [0u8; 64];
            let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
            assert_eq!(buf, [7u8; 64], "functional contents survive the remap");
            let m = sys.stats().media;
            assert_eq!(m.remaps, 1, "retries exhausted, block remapped to spare");
            assert_eq!(m.retries, 3, "all bounded retries failed on a stuck cell");
            assert_eq!(sys.bad_block_remaps(), 1);
            // With the persist buffer armed the remap's intent, payload and
            // seal each enter it, and one fence orders the seal after both.
            let wpq = sys.stats().wpq;
            let (entries, fences) = if armed { (3, 1) } else { (0, 0) };
            assert_eq!(wpq.enqueued - wpq_before.enqueued, entries, "armed: {armed}");
            assert_eq!(wpq.fences - wpq_before.fences, fences, "armed: {armed}");
            let errs = errors(&mut sys);
            assert!(matches!(errs[..], [Error::RetriesExhausted { attempts: 3, .. }]), "got {errs:?}");
            // A second read resolves through the bad-block table: no new
            // retries, no second remap.
            sys.load_bytes(PhysAddr::new(0), &mut buf, t);
            assert_eq!(buf, [7u8; 64]);
            let m = sys.stats().media;
            assert_eq!(m.remaps, 1, "a block is remapped at most once");
            assert_eq!(m.retries, 3, "remapped reads are clean");
        }
    }

    #[test]
    fn scrubber_remaps_stuck_blocks_between_epochs() {
        let mut sys = ThyNvm::new(media_cfg(|m| m.stuck_at_threshold = 2));
        let t = sys.store_bytes(PhysAddr::new(0), &[5u8; 64], Cycle::ZERO);
        let t = sys.store_bytes(PhysAddr::new(0), &[5u8; 64], t);
        assert_eq!(sys.stats().media.stuck_faults, 1);
        // Retiring the checkpoint runs the scrubber.
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let m = sys.stats().media;
        assert_eq!(m.scrub_repairs, 1, "scrubber proactively remapped the block");
        assert_eq!(m.remaps, 1);
        // Reads after scrubbing never hit the stuck cell.
        let retries_before = m.retries;
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [5u8; 64]);
        assert_eq!(sys.stats().media.retries, retries_before);
    }

    #[test]
    fn zero_rate_media_model_matches_default_timing_and_stats() {
        // With the model enabled but all fault sources at zero and
        // integrity off, timing and stats are identical to media-off.
        let mut cfg = SystemConfig::small_test();
        cfg.media.enabled = true;
        cfg.media.bit_flip_rate = 0.0;
        let mut faulty = ThyNvm::new(cfg);
        let mut plain = small();
        let mut t_f = Cycle::ZERO;
        let mut t_p = Cycle::ZERO;
        for round in 0u8..4 {
            for blk in 0u64..8 {
                t_f = faulty.store_bytes(PhysAddr::new(blk * 64), &[round; 64], t_f);
                t_p = plain.store_bytes(PhysAddr::new(blk * 64), &[round; 64], t_p);
            }
            t_f = faulty.force_checkpoint(t_f);
            t_f = faulty.drain(t_f);
            t_p = plain.force_checkpoint(t_p);
            t_p = plain.drain(t_p);
            let mut buf = [0u8; 64];
            t_f = faulty.load_bytes(PhysAddr::new(64), &mut buf, t_f);
            t_p = plain.load_bytes(PhysAddr::new(64), &mut buf, t_p);
        }
        assert_eq!(t_f, t_p, "zero-rate media model must not perturb timing");
        assert_eq!(faulty.stats().nvm_reads, plain.stats().nvm_reads);
        assert_eq!(faulty.stats().nvm_write_bytes_ckpt, plain.stats().nvm_write_bytes_ckpt);
        assert!(!faulty.stats().media.any());
        assert_eq!(faulty.stats().media.crc_check_cycles, Cycle::ZERO);
    }

    #[test]
    fn integrity_crc_costs_are_stats_only() {
        // CRC work is attributed to dedicated counters, never to the
        // service-time accounting of the store/load paths.
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 9, Cycle::ZERO);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        let m = sys.stats().media;
        assert!(m.crc_checked_blocks > 0, "checkpoint + load verified CRCs");
        assert!(m.crc_check_cycles > Cycle::ZERO);
    }

    // ------------------------------------------------------------------
    // Restartable recovery & crash-point queue
    // ------------------------------------------------------------------

    #[test]
    fn recovery_is_cycle_accounted_and_reports_steps() {
        // CRCs on with the media model off is a configuration `validate()`
        // accepts: recovery verifies `C_last` with no fault model to ask.
        let mut crc_only = SystemConfig::small_test();
        crc_only.media.integrity = true;
        crc_only.validate().expect("CRCs without the media model are valid");
        for cfg in [SystemConfig::small_test(), crc_only] {
            let mut sys = ThyNvm::new(cfg);
            let t = store_and_checkpoint(&mut sys, 3, Cycle::ZERO);
            let report = sys.crash_and_recover(t);
            assert!(report.recovery_cycles > Cycle::ZERO, "recovery pays modeled latency");
            assert_eq!(report.attempts, 1);
            assert_eq!(report.nested_crashes, 0);
            assert_eq!(report.steps.first().map(|&(s, _)| s), Some(RecoveryStep::ReadCommitRecord));
            assert_eq!(report.steps.last().map(|&(s, _)| s), Some(RecoveryStep::RearmWorkingSet));
            let verified = report.steps.iter().any(|&(s, _)| s == RecoveryStep::VerifyClast);
            assert_eq!(verified, cfg.media.integrity, "only CRCs verify C_last");
            // Step-end cycles are strictly ordered along the recovery timeline.
            for pair in report.steps.windows(2) {
                assert!(pair[0].1 <= pair[1].1, "steps out of order: {:?}", report.steps);
            }
            assert_eq!(sys.stats().recovery_cycles, report.recovery_cycles);
            assert_eq!(sys.stats().nested_crashes, 0);
            let mut buf = [0u8; 64];
            sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
            assert_eq!(buf, [3u8; 64], "recovered to C_last");
        }
    }

    #[test]
    fn a_recovery_step_ending_on_a_crash_point_completes() {
        // Power fails at the *end* of a queued cycle, so a recovery step
        // whose last effect lands on that very cycle completes and the
        // next step is the one interrupted; one cycle earlier interrupts
        // the step itself.
        let run = |nested: Option<Cycle>| {
            let mut sys = small();
            let t = store_and_checkpoint(&mut sys, 4, Cycle::ZERO);
            sys.arm_crash_point(t);
            if let Some(at) = nested {
                sys.queue_crash_point(at);
            }
            sys.poll_crash(t + Cycle::new(1)).expect("crash fires");
            sys.take_events()
        };
        let events = run(None);
        let [Event { kind: EventKind::Crash(probe), .. }] = &events[..] else {
            panic!("expected one uninterrupted crash: {events:?}");
        };
        let [(first, end), (next, _), ..] = probe.report.steps[..] else {
            panic!("recovery ran fewer than two steps: {probe:?}");
        };
        for (at, interrupted) in [(end, next), (end.saturating_sub(Cycle::new(1)), first)] {
            let events = run(Some(at));
            let [Event { kind: EventKind::NestedCrash(nested), .. }, Event { kind: EventKind::Crash(crash), .. }] =
                &events[..]
            else {
                panic!("expected a nested then a top-level crash: {events:?}");
            };
            assert_eq!(nested.recovery_step, Some(interrupted), "crash point at {at:?}");
            assert_eq!(crash.report.nested_crashes, 1);
            assert_eq!(crash.report.attempts, 2);
        }
    }

    #[test]
    fn queue_crash_point_orders_and_disarm_pops_earliest() {
        let mut sys = small();
        sys.queue_crash_point(Cycle::new(300));
        sys.queue_crash_point(Cycle::new(100));
        sys.queue_crash_point(Cycle::new(200));
        assert_eq!(
            sys.armed_crash_points(),
            &[Cycle::new(100), Cycle::new(200), Cycle::new(300)]
        );
        assert_eq!(sys.armed_crash_point(), Some(Cycle::new(100)));
        // Disarm removes only the earliest; the rest stay queued.
        assert_eq!(sys.disarm_crash_point(), Some(Cycle::new(100)));
        assert_eq!(sys.armed_crash_point(), Some(Cycle::new(200)));
        // Arming replaces the whole queue.
        sys.arm_crash_point(Cycle::new(50));
        assert_eq!(sys.armed_crash_points(), &[Cycle::new(50)]);
        assert_eq!(sys.disarm_crash_point(), Some(Cycle::new(50)));
        assert_eq!(sys.disarm_crash_point(), None);
    }

    #[test]
    fn queued_point_survives_into_recovery_as_nested_crash() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 5, Cycle::ZERO);
        sys.arm_crash_point(t);
        // One cycle after the crash: recovery's first step overruns it.
        sys.queue_crash_point(t + Cycle::new(1));
        let resume = sys.poll_crash(t + Cycle::new(2)).expect("crash fires");
        // The nested crash is journaled before the top-level crash whose
        // recovery it interrupted: that entry is appended once recovery ends.
        let events = sys.take_events();
        let [Event { cycle: nested_at, kind: EventKind::NestedCrash(nested) }, Event { cycle: crash_at, kind: EventKind::Crash(crash) }] =
            &events[..]
        else {
            panic!("expected a nested then a top-level crash: {events:?}");
        };
        assert_eq!(*crash_at, t);
        assert_eq!(crash.report.nested_crashes, 1, "queued point fired mid-recovery");
        assert_eq!(crash.report.attempts, 2);
        assert_eq!(sys.stats().crashes_injected, 1, "nested crashes are not top-level");
        assert_eq!(sys.stats().nested_crashes, 1);
        // The nested event names the interrupted recovery step.
        assert_eq!(nested.recovery_step, Some(RecoveryStep::ReadCommitRecord));
        assert_eq!(*nested_at, t + Cycle::new(1));
        assert_eq!(nested.cycle, *nested_at);
        // Both queued points are consumed; recovery still lands on C_last.
        assert_eq!(sys.armed_crash_points(), &[] as &[Cycle]);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, resume);
        assert_eq!(buf, [5u8; 64]);
    }

    #[test]
    fn nested_crash_recovery_converges_to_the_uninterrupted_image() {
        // Probe twin: identical workload, single crash — learns the step
        // boundaries and the reference image.
        let mut probe = small();
        let mut trial = small();
        let mut tp = Cycle::ZERO;
        let mut tt = Cycle::ZERO;
        for (i, val) in [(0u64, 1u8), (64, 2), (4096, 3), (8192, 4)] {
            tp = probe.store_bytes(PhysAddr::new(i), &[val; 64], tp);
            tt = trial.store_bytes(PhysAddr::new(i), &[val; 64], tt);
        }
        tp = probe.force_checkpoint(tp);
        tp = probe.drain(tp);
        tt = trial.force_checkpoint(tt);
        tt = trial.drain(tt);
        assert_eq!(tp, tt, "twins share a timeline");
        probe.arm_crash_point(tp);
        probe.poll_crash(tp + Cycle::new(1)).expect("probe crash");
        let probe_report = crashes(&mut probe).pop().expect("probe report").report;
        assert_eq!(probe_report.nested_crashes, 0);

        // Trial: nested crash points at every step boundary of the probe's
        // recovery (one cycle before each completion).
        trial.arm_crash_point(tt);
        for &(_, end) in &probe_report.steps {
            trial.queue_crash_point(end.saturating_sub(Cycle::new(1)));
        }
        trial.poll_crash(tt + Cycle::new(1)).expect("trial crash");
        let trial_report = crashes(&mut trial).pop().expect("trial report").report;
        assert!(trial_report.nested_crashes > 0, "boundary points interrupted recovery");
        assert_eq!(trial_report.attempts, trial_report.nested_crashes + 1);
        // Idempotence: byte-identical to the uninterrupted recovery.
        assert_eq!(trial.visible_fingerprint(), probe.visible_fingerprint());
        assert_eq!(trial_report.recovered_checkpoints, probe_report.recovered_checkpoints);
        assert_eq!(trial_report.restored_pages, probe_report.restored_pages);
        // Interrupted recovery takes at least as long as the clean one.
        assert!(trial_report.recovery_cycles >= probe_report.recovery_cycles);
    }

    #[test]
    fn leftover_queued_points_stay_armed_after_recovery() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 9, Cycle::ZERO);
        sys.arm_crash_point(t);
        // Far beyond the end of recovery: must NOT fire as a nested crash.
        let far = t + Cycle::new(1_000_000_000);
        sys.queue_crash_point(far);
        let resume = sys.poll_crash(t + Cycle::new(1)).expect("first crash");
        let first = crashes(&mut sys).pop().expect("first report");
        assert_eq!(first.report.nested_crashes, 0);
        assert_eq!(sys.armed_crash_points(), &[far], "distant point survives recovery");
        // It fires later as an ordinary top-level crash.
        let resume2 = sys.poll_crash(far + Cycle::new(1)).expect("second crash");
        assert!(resume2 > resume);
        assert_eq!(sys.stats().crashes_injected, 2);
        assert_eq!(sys.stats().nested_crashes, 0);
    }

    #[test]
    fn disarm_prevents_a_queued_point_from_reaching_recovery() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 7, Cycle::ZERO);
        sys.arm_crash_point(t);
        sys.queue_crash_point(t + Cycle::new(1));
        // Disarming pops the earliest point: the nested-crash candidate at
        // t+1 becomes the (only) top-level crash point.
        assert_eq!(sys.disarm_crash_point(), Some(t));
        sys.poll_crash(t + Cycle::new(2)).expect("remaining point fires");
        let crash = crashes(&mut sys).pop().expect("reported");
        assert_eq!(crash.event.cycle, t + Cycle::new(1));
        assert_eq!(crash.report.nested_crashes, 0, "no queued point left to nest");
    }

    #[test]
    fn a_crash_on_a_recovery_remap_seal_keeps_the_remap() {
        // A worn-out cell in the commit record: recovery's first read
        // exhausts its retries and remaps the block, and the step ends
        // when the remap's WAL seal lands. A crash on exactly that cycle
        // leaves the remap standing and redoes nothing; one cycle earlier
        // the seal never landed, so the next attempt redoes the remap.
        let run = |nested: Option<Cycle>| {
            let mut sys = ThyNvm::new(media_cfg(|m| {
                m.stuck_at_threshold = 64;
                m.scrub = false;
            }));
            let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
            let record = sys.space.backup(0);
            let fault = sys.fault_model_mut().expect("media model on");
            for _ in 0..64 {
                fault.record_write(record, 64);
            }
            sys.arm_crash_point(t);
            if let Some(at) = nested {
                sys.queue_crash_point(at);
            }
            sys.poll_crash(t + Cycle::new(1)).expect("crash fires");
            let report = crashes(&mut sys).pop().expect("reported").report;
            (report, sys.stats().media, sys.bad_block_remaps())
        };
        let (probe, m, _) = run(None);
        assert_eq!((m.remaps, m.wal_redos), (1, 0), "the uninterrupted recovery remaps once");
        let (step, sealed) = probe.steps[0];
        assert_eq!(step, RecoveryStep::ReadCommitRecord);
        for (at, redos) in [(sealed, 0), (sealed.saturating_sub(Cycle::new(1)), 1)] {
            let (report, m, bad_blocks) = run(Some(at));
            assert_eq!(report.nested_crashes, 1, "crash point at {at:?}");
            assert_eq!(m.wal_redos, redos, "crash point at {at:?}");
            assert_eq!(m.remaps, 1 + redos, "a torn remap is redone, a sealed one stands");
            assert_eq!(bad_blocks, 1);
        }
    }

    #[test]
    fn crash_during_integrity_fallback_still_lands_on_cpenult() {
        // Probe twin learns where the IntegrityFallback step completes.
        let mut probe = ThyNvm::new(media_cfg(|_| {}));
        let mut trial = ThyNvm::new(media_cfg(|_| {}));
        let tp = store_and_checkpoint(&mut probe, 1, Cycle::ZERO);
        let tp = store_and_checkpoint(&mut probe, 2, tp);
        let tt = store_and_checkpoint(&mut trial, 1, Cycle::ZERO);
        let tt = store_and_checkpoint(&mut trial, 2, tt);
        assert_eq!(tp, tt);
        probe.inject_media_fault(MediaFault::TornCommitRecord);
        probe.arm_crash_point(tp);
        probe.poll_crash(tp + Cycle::new(1)).expect("probe crash");
        let probe_report = crashes(&mut probe).pop().expect("probe").report;
        let fallback_end = probe_report
            .steps
            .iter()
            .find(|&&(s, _)| s == RecoveryStep::IntegrityFallback)
            .map(|&(_, end)| end)
            .expect("probe recovery ran the fallback step");

        // Trial: power fails again one cycle before the fallback's WAL
        // seal lands — the fallback must be redone, never compounded.
        trial.inject_media_fault(MediaFault::TornCommitRecord);
        trial.arm_crash_point(tt);
        trial.queue_crash_point(fallback_end.saturating_sub(Cycle::new(1)));
        trial.poll_crash(tt + Cycle::new(1)).expect("trial crash");
        let crash = crashes(&mut trial).pop().expect("trial");
        assert!(crash.report.integrity_fallback, "second recovery still picks C_penult");
        assert_eq!(crash.event.outcome, thynvm_types::RecoveryOutcome::CPenultIntegrityFallback);
        assert_eq!(crash.report.nested_crashes, 1);
        let m = trial.stats().media;
        assert_eq!(m.integrity_fallbacks, 1, "the fallback applied exactly once");
        assert!(m.wal_redos >= 1, "the torn WAL record was detected and redone");
        assert!(m.wal_seals >= 1);
        // Byte-identical to the uninterrupted fallback recovery.
        assert_eq!(trial.visible_fingerprint(), probe.visible_fingerprint());
        let mut buf = [0u8; 64];
        trial.load_bytes(PhysAddr::new(0), &mut buf, crash.resume_at);
        assert_eq!(buf, [1u8; 64], "C_penult's contents");
    }

    #[test]
    fn spare_pool_exhaustion_degrades_gracefully() {
        // One spare, two worn-out blocks: the second remap must be refused
        // without losing data or the first block's healing.
        let mut sys = ThyNvm::new(media_cfg(|m| {
            m.stuck_at_threshold = 2;
            m.scrub = false;
            m.spare_blocks = 1;
        }));
        let mut t = Cycle::ZERO;
        for addr in [0u64, 16 * PAGE_BYTES] {
            t = sys.store_bytes(PhysAddr::new(addr), &[0xAB; 64], t);
            t = sys.store_bytes(PhysAddr::new(addr), &[0xAB; 64], t);
        }
        assert_eq!(sys.stats().media.stuck_faults, 2, "wear stuck both rows");
        let mut buf = [0u8; 64];
        // First bad block consumes the only spare.
        t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [0xAB; 64]);
        assert_eq!(sys.bad_block_remaps(), 1);
        assert!(!sys.spares_exhausted() || sys.config().media.spare_blocks == 1);
        // Second bad block: no spare left. Served anyway, via CRC retries.
        t = sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t);
        assert_eq!(buf, [0xAB; 64], "graceful degradation keeps serving data");
        let m = sys.stats().media;
        assert_eq!(m.remaps, 1, "the refused remap was not half-applied");
        assert!(m.spare_exhausted >= 1);
        assert_eq!(sys.bad_block_remaps(), 1);
        assert!(sys.spares_exhausted());
        // Both blocks exhausted their retries; only the second found the
        // spare pool empty.
        let errs = errors(&mut sys);
        assert!(
            matches!(
                errs[..],
                [
                    Error::RetriesExhausted { .. },
                    Error::RetriesExhausted { .. },
                    Error::SpareExhausted { .. }
                ]
            ),
            "got {errs:?}"
        );
        // Every later read of the unhealed block keeps paying retries —
        // degraded, but correct.
        let retries_before = sys.stats().media.retries;
        sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t);
        assert_eq!(buf, [0xAB; 64]);
        assert!(sys.stats().media.retries > retries_before);
    }

    #[test]
    fn out_of_range_accesses_are_rejected_not_wrapped() {
        let mut sys = ThyNvm::new(SystemConfig::small_test());
        let mut t = Cycle::ZERO;
        // In range: behaves exactly like the unchecked API.
        t = sys
            .try_store_bytes(PhysAddr::new(0), &[5u8; 64], t)
            .expect("invariant: address 0 is in range");
        let mut buf = [0u8; 64];
        sys.try_load_bytes(PhysAddr::new(0), &mut buf, t)
            .expect("invariant: address 0 is in range");
        assert_eq!(buf, [5u8; 64]);
        // Out of range: rejected with the offending address and the limit.
        let bad = PhysAddr::new(crate::PHYS_LIMIT);
        let err = sys.try_store_bytes(bad, &[1u8; 64], t).expect_err("must reject");
        assert_eq!(err, Error::AddressOutOfRange { addr: bad, limit: crate::PHYS_LIMIT });
        let err = sys.try_load_bytes(bad, &mut buf, t).expect_err("must reject");
        assert!(matches!(err, Error::AddressOutOfRange { .. }));
        // A span that *ends* out of range is rejected too.
        let edge = PhysAddr::new(crate::PHYS_LIMIT - 32);
        assert!(matches!(
            sys.try_store_bytes(edge, &[1u8; 64], t),
            Err(Error::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn btt_emergency_spill_forces_an_early_checkpoint_and_drains() {
        // Tiny BTT; fill it while a checkpoint is in flight so inserts must
        // spill, then verify the overflow handshake ends the epoch and the
        // spilled entry is drained into the checkpoint.
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.btt_entries = 4;
        cfg.thynvm.promote_threshold = 255; // keep everything under block remapping
        let mut sys = ThyNvm::new(cfg);
        let mut t = Cycle::ZERO;
        for i in 0..4u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[i as u8; 64], t);
        }
        // Start a checkpoint but do NOT wait for it: the job is in flight.
        t = sys.force_checkpoint(t);
        assert!(sys.epoch_state().job_running(t), "checkpoint must be in flight");
        // New blocks while the BTT is full and nothing is reclaimable.
        for i in 4..9u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[i as u8; 64], t);
        }
        assert!(sys.btt_spills() >= 1, "inserts past capacity spilled");
        assert!(sys.epoch_state().overflow_pending, "spill demanded an early epoch end");
        // Spills kept arriving while the first spill's early epoch end was
        // still pending: the table was genuinely full.
        let errs = errors(&mut sys);
        assert!(!errs.is_empty(), "repeated spills must be journaled");
        assert!(errs.iter().all(|e| *e == Error::TableFull { table: "BTT" }), "got {errs:?}");
        assert!(errors(&mut sys).is_empty(), "entries drain once");
        // The platform's next event fires the forced early checkpoint.
        assert!(sys.checkpoint_due(t), "overflow makes the checkpoint due immediately");
        let epochs_before = sys.stats().epochs_completed;
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        assert!(sys.stats().epochs_completed > epochs_before, "early checkpoint fired");
        assert!(!sys.epoch_state().overflow_pending, "spill drained");
        // The spilled blocks' contents are durable: crash and verify.
        let report = sys.crash_and_recover(t);
        let mut buf = [0u8; 64];
        for i in 0..9u64 {
            sys.load_bytes(PhysAddr::new(i * 64), &mut buf, t + report.recovery_cycles);
            assert_eq!(buf, [i as u8; 64], "block {i} survived the spill");
        }
    }

    // ------------------------------------------------------------------
    // DRAM fault domain (ECC, poison containment, quarantine)
    // ------------------------------------------------------------------

    fn dram_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.dram_fault = thynvm_types::DramFaultConfig::hardened();
        cfg.validate().expect("valid dram-fault config");
        cfg
    }

    /// Promotes page 0 (22 stores of `val` across its first 22 blocks) and
    /// completes a checkpoint, so the page sits clean under page writeback
    /// with `val` durable. Returns the resume cycle.
    fn promote_and_checkpoint(sys: &mut ThyNvm, val: u8, mut t: Cycle) -> Cycle {
        for i in 0..22u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[val; 64], t);
        }
        assert!(sys.ptt().get(PageIndex::new(0)).is_some(), "page promoted");
        t = sys.force_checkpoint(t);
        sys.drain(t)
    }

    /// Working-region offset of block `i` of page 0's DRAM slot.
    fn page0_block_off(sys: &ThyNvm, i: u64) -> u64 {
        let slot = sys.ptt().get(PageIndex::new(0)).expect("resident").slot;
        u64::from(slot) * PAGE_BYTES + i * BLOCK_BYTES
    }

    #[test]
    fn ecc_model_disabled_keeps_timing_and_contents_identical() {
        // An enabled model with zero fault rates must behave exactly like
        // the disabled one: no extra device traffic, identical bytes.
        let mut plain = small();
        let mut armed = ThyNvm::new(dram_cfg());
        let mut tp = Cycle::ZERO;
        let mut ta = Cycle::ZERO;
        for round in 0u8..3 {
            tp = promote_and_checkpoint(&mut plain, round + 1, tp);
            ta = promote_and_checkpoint(&mut armed, round + 1, ta);
        }
        assert_eq!(tp, ta, "cycle-identical timelines");
        assert_eq!(plain.visible_fingerprint(), armed.visible_fingerprint());
        assert!(!armed.stats().dram.any(), "quiet model left no counters");
    }

    #[test]
    fn quiet_fault_models_are_skipped_and_the_skips_are_counted() {
        // Hardened models with every rate at zero are "quiet": the
        // controller skips their per-read consultation entirely. The perf
        // counters witness the skip so the fast path cannot silently rot.
        let mut cfg = SystemConfig::small_test();
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        cfg.dram_fault = thynvm_types::DramFaultConfig::hardened();
        cfg.validate().expect("valid config");
        let mut sys = ThyNvm::new(cfg);
        let t = promote_and_checkpoint(&mut sys, 7, Cycle::ZERO);

        // Page-scheme read: lands in the DRAM working region, where the
        // quiet SEC-DED model is skipped.
        let dram_skips = sys.stats().perf.dram_quiet_reads;
        let t = sys.access(&MemRequest::read(PhysAddr::new(0), 64), t);
        assert!(
            sys.stats().perf.dram_quiet_reads > dram_skips,
            "DRAM read must take the quiet fast path"
        );

        // Block-scheme read of an untouched block: served from the NVM home
        // region, where the quiet media model is skipped.
        let nvm_skips = sys.stats().perf.nvm_quiet_reads;
        let _ = sys.access(&MemRequest::read(PhysAddr::new(PAGE_BYTES * 4), 64), t);
        assert!(
            sys.stats().perf.nvm_quiet_reads > nvm_skips,
            "NVM read must take the quiet fast path"
        );
        assert!(!sys.stats().dram.any(), "no DRAM fault counters moved");
    }

    #[test]
    fn corrected_flips_are_counted_and_harmless() {
        let mut sys = ThyNvm::new(dram_cfg());
        let t = promote_and_checkpoint(&mut sys, 5, Cycle::ZERO);
        sys.dram_ecc_mut().expect("model on").arm_corrected_flips(1);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [5u8; 64], "corrected data is good data");
        assert_eq!(sys.stats().dram.corrected_flips, 1);
        assert_eq!(sys.stats().dram.poisoned_blocks, 0);
        assert!(errors(&mut sys).is_empty());
    }

    #[test]
    fn poisoned_clean_block_refetches_from_nvm() {
        let mut sys = ThyNvm::new(dram_cfg());
        let t = promote_and_checkpoint(&mut sys, 5, Cycle::ZERO);
        sys.dram_ecc_mut().expect("model on").arm_poison(1);
        let mut buf = [0u8; 64];
        let done = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [5u8; 64], "clean data healed transparently");
        let d = &sys.stats().dram;
        assert_eq!(d.poisoned_blocks, 1);
        assert_eq!(d.poison_refetched, 1);
        assert_eq!(d.refetch_retries, 2, "paid the configured retry budget");
        assert_eq!(d.quarantined_pages, 0, "no data was lost");
        assert_eq!(sys.dram_ecc().expect("model on").outstanding(), 0);
        assert!(sys.ptt().get(PageIndex::new(0)).is_some(), "page stays resident");
        assert!(done > t, "healing costs cycles");
        assert!(errors(&mut sys).is_empty(), "nothing was lost");
    }

    #[test]
    fn poisoned_dirty_page_is_quarantined_at_checkpoint() {
        let mut sys = ThyNvm::new(dram_cfg());
        let mut t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        // Dirty the page, then poison a block under the dirty data.
        t = sys.store_bytes(PhysAddr::new(0), &[9u8; 64], t);
        let off = page0_block_off(&sys, 0);
        sys.dram_ecc_mut().expect("model on").poison_block(off);
        // The checkpoint must refuse to persist the poisoned page.
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        assert!(sys.ptt().get(PageIndex::new(0)).is_none(), "page left the page scheme");
        let d = &sys.stats().dram;
        assert_eq!(d.quarantined_pages, 1);
        assert_eq!(d.poison_dropped, 1);
        assert_eq!(d.quarantine_dropped_bytes, PAGE_BYTES);
        // One entry names the loss and the rolled-back range.
        let quarantined = Error::DramPoisonLost { addr: PhysAddr::new(0), bytes: PAGE_BYTES };
        assert_eq!(errors(&mut sys), vec![quarantined]);
        assert!(sys.take_events().is_empty(), "entries drain once");
        // The dirty write is gone; the checkpointed bytes survive.
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [1u8; 64], "rolled back to C_last");
        // And the rollback is durable: crash and re-verify.
        let report = sys.crash_and_recover(t);
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64], "recovered image is poison-free");
    }

    #[test]
    fn poison_under_dirty_read_quarantines_immediately() {
        let mut sys = ThyNvm::new(dram_cfg());
        let mut t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        t = sys.store_bytes(PhysAddr::new(0), &[9u8; 64], t);
        sys.dram_ecc_mut().expect("model on").arm_poison(1);
        // The load itself discovers the poison; the delivered bytes must be
        // the rolled-back ones, not the stale pre-quarantine snapshot.
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [1u8; 64], "load observes the rollback");
        assert_eq!(sys.stats().dram.quarantined_pages, 1);
        assert!(sys.ptt().get(PageIndex::new(0)).is_none());
        let errs = errors(&mut sys);
        assert!(matches!(errs[..], [Error::DramPoisonLost { .. }]), "got {errs:?}");
    }

    #[test]
    fn full_block_overwrite_clears_poison_in_place() {
        let mut sys = ThyNvm::new(dram_cfg());
        let mut t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let off = page0_block_off(&sys, 0);
        sys.dram_ecc_mut().expect("model on").poison_block(off);
        // A whole-block store re-encodes the ECC word: nothing is lost.
        t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
        assert_eq!(sys.stats().dram.poison_overwritten, 1);
        assert_eq!(sys.dram_ecc().expect("model on").outstanding(), 0);
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [7u8; 64], "overwrite persisted normally");
        assert_eq!(sys.stats().dram.quarantined_pages, 0);
    }

    #[test]
    fn crash_clears_outstanding_poison() {
        let mut sys = ThyNvm::new(dram_cfg());
        let t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let off = page0_block_off(&sys, 0);
        sys.dram_ecc_mut().expect("model on").poison_block(off);
        let report = sys.crash_and_recover(t);
        assert_eq!(sys.stats().dram.poison_cleared_by_crash, 1);
        assert_eq!(sys.dram_ecc().expect("model on").outstanding(), 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64], "DRAM poison never taints recovery");
    }

    #[test]
    fn poisoned_buffered_block_is_quarantined_not_drained() {
        // Block under block remapping, buffered in DRAM during an in-flight
        // checkpoint (§4.1), with poison landing on the buffer slot. The
        // block rolls back to the checkpoint in flight: `C_last` when that
        // checkpoint did not capture the block, else the captured value.
        for (captured, expect) in [(false, [1u8; 64]), (true, [2u8; 64])] {
            let mut cfg = dram_cfg();
            cfg.thynvm.promote_threshold = 255; // stay under block remapping
            let mut sys = ThyNvm::new(cfg);
            let mut t = sys.store_bytes(PhysAddr::new(0), &[1u8; 64], Cycle::ZERO);
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
            // Start a checkpoint and write the block mid-flight: DRAM-buffered.
            t = sys.store_bytes(PhysAddr::new(64), &[2u8; 64], t);
            if captured {
                t = sys.store_bytes(PhysAddr::new(0), &[2u8; 64], t);
            }
            t = sys.force_checkpoint(t);
            let during = sys.epoch_state().job.as_ref().map(|j| j.started).unwrap_or(t);
            let mut t2 = sys.store_bytes(PhysAddr::new(0), &[9u8; 64], during);
            // Reading it back now poisons the buffer slot: the dirty block is
            // dropped and rolls back to its checkpointed value.
            sys.dram_ecc_mut().expect("model on").arm_poison(1);
            let mut buf = [0u8; 64];
            t2 = sys.load_bytes(PhysAddr::new(0), &mut buf, t2);
            assert_eq!(buf, expect, "buffered dirty block rolled back (captured: {captured})");
            let d = &sys.stats().dram;
            assert_eq!(d.poison_dropped, 1);
            assert_eq!(d.quarantine_dropped_bytes, BLOCK_BYTES);
            let quarantined = Error::DramPoisonLost { addr: PhysAddr::new(0), bytes: BLOCK_BYTES };
            assert_eq!(errors(&mut sys), vec![quarantined]);
            // The rollback is durable across the checkpoint and a crash.
            t2 = sys.drain(t2);
            let report = sys.crash_and_recover(t2);
            sys.load_bytes(PhysAddr::new(0), &mut buf, t2 + report.recovery_cycles);
            assert_eq!(buf, expect, "after the crash (captured: {captured})");
        }
    }

    #[test]
    fn quarantined_page_repromotes_when_hot_again() {
        // Satellite: a quarantine-demoted page that turns write-dense again
        // re-enters page writeback via the §3.3 counters, and the visible
        // fingerprint is stable across the demote/re-promote round trip.
        let mut sys = ThyNvm::new(dram_cfg());
        let mut t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        t = sys.store_bytes(PhysAddr::new(0), &[9u8; 64], t);
        let off = page0_block_off(&sys, 0);
        sys.dram_ecc_mut().expect("model on").poison_block(off);
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        assert!(sys.ptt().get(PageIndex::new(0)).is_none(), "quarantine demoted");
        let fp = sys.visible_fingerprint();
        // Write-dense again, storing the bytes the page already holds so the
        // visible image is untouched by the re-promotion mechanics.
        for i in 0..22u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[1u8; 64], t);
        }
        assert!(
            sys.ptt().get(PageIndex::new(0)).is_some(),
            "hot page re-promoted after quarantine"
        );
        assert_eq!(sys.visible_fingerprint(), fp, "round trip preserved contents");
        // And the re-promoted page checkpoints normally.
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [1u8; 64]);
        assert_eq!(sys.stats().dram.quarantined_pages, 1, "no second quarantine");
    }

    // ---- secure persistent memory mode ----

    /// `small_test` with the security model enabled (and optional tweaks).
    fn secure_cfg(f: impl FnOnce(&mut thynvm_types::SecurityConfig)) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.security = thynvm_types::SecurityConfig::hardened();
        f(&mut cfg.security);
        cfg.validate().expect("valid secure config");
        cfg
    }

    /// Asserts the SecurityStats conservation invariants (§ DESIGN 10).
    fn assert_security_conservation(sys: &ThyNvm) {
        let s = sys.stats().security;
        assert_eq!(s.classified_total(), s.tampers_detected, "classification conservation");
        assert_eq!(s.detections_accounted(), s.tampers_detected, "resolution conservation");
        // Media-caught detections come from media faults, not tampers, so
        // they sit on the "injected" side of the inequality.
        assert!(
            s.tampers_injected + s.classified_media >= s.tampers_detected,
            "cannot detect more than was injected"
        );
    }

    #[test]
    fn security_off_charges_nothing_and_exposes_no_model() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        assert!(sys.security_model().is_none());
        assert!(!sys.stats().security.any(), "disabled mode records nothing");
        assert_eq!(sys.stats().security.crypto_cycles, Cycle::ZERO);
        assert!(errors(&mut sys).is_empty());
    }

    #[test]
    fn secure_mode_preserves_contents_and_adds_crypto_cost() {
        // The same workload on the secure and baseline configs must agree
        // on *contents*; the secure run pays extra modeled cycles.
        let mut base = small();
        let mut sec = ThyNvm::new(secure_cfg(|_| {}));
        let tb = store_and_checkpoint(&mut base, 7, Cycle::ZERO);
        let ts = store_and_checkpoint(&mut sec, 7, Cycle::ZERO);
        assert_eq!(base.visible_fingerprint(), sec.visible_fingerprint());
        assert!(ts >= tb, "crypto + metadata persists never make a checkpoint faster");
        let s = sec.stats().security;
        assert!(s.blocks_encrypted > 0, "write path encrypted blocks");
        assert!(s.crypto_cycles > Cycle::ZERO);
        assert!(!base.stats().security.any());
    }

    #[test]
    fn checkpoint_persists_counters_tree_and_root() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let s = sys.stats().security;
        assert_eq!(s.counter_persists, 1, "dirty counters persisted once");
        assert!(s.counter_bytes > 0);
        assert!(s.tree_node_persists > 0, "ancestor tree nodes rewritten");
        assert!(s.tree_bytes > 0);
        assert_eq!(s.root_persists, 1, "root sealed with the commit record");
        let model = sys.security_model().expect("enabled");
        assert_eq!(model.dirty_count(), 0, "persist cleared the dirty set");
        assert_eq!(model.generation(), 1);
        // A quiet checkpoint still seals the root but persists no counters.
        let t2 = sys.force_checkpoint(t);
        sys.drain(t2);
        let s = sys.stats().security;
        assert_eq!(s.counter_persists, 1, "nothing dirty: no counter persist");
        assert_eq!(s.root_persists, 2, "root still sealed every round");
    }

    #[test]
    fn mid_epoch_crash_replays_lost_counters() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        // Dirty counters that never reached an epoch boundary…
        let t = sys.store_bytes(PhysAddr::new(128), &[2u8; 64], t);
        assert!(sys.security_model().expect("enabled").dirty_count() > 0);
        let report = sys.crash_and_recover(t);
        // …are re-derived by bounded replay, never guessed.
        assert!(sys.stats().security.counters_replayed > 0);
        assert_eq!(sys.security_model().expect("enabled").dirty_count(), 0);
        assert!(!report.integrity_fallback, "counter replay is not a fallback");
        assert_security_conservation(&sys);
    }

    #[test]
    fn tampered_clast_is_detected_and_falls_back_to_cpenult() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback, "MAC mismatch degrades to C_penult");
        assert!(!report.unrecoverable);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64], "recovered to the authenticated image");
        let s = sys.stats().security;
        assert_eq!(s.tampers_injected, 1);
        assert_eq!(s.tampers_detected, 1);
        assert_eq!(s.classified_tamper, 1, "forged data is adversarial");
        assert_eq!(s.verify_fallbacks, 1);
        assert_eq!(s.unrecoverable, 0);
        assert!(report.steps.iter().any(|(st, _)| *st == RecoveryStep::VerifyMacs));
        assert_security_conservation(&sys);
    }

    #[test]
    fn stale_counter_table_is_classified_as_replay_attack() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::StaleCounterTable);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let s = sys.stats().security;
        assert_eq!(s.classified_tamper, 1, "rolled-back counters = replay attack");
        assert_eq!(s.classified_torn, 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
        assert_security_conservation(&sys);
    }

    #[test]
    fn torn_root_metadata_is_classified_as_torn_not_tamper() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::TornRootMeta);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let s = sys.stats().security;
        assert_eq!(s.classified_torn, 1, "power loss mid-persist, not an attack");
        assert_eq!(s.classified_tamper, 0);
        assert_security_conservation(&sys);
    }

    #[test]
    fn both_images_tampered_is_unrecoverable_never_replayed() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::BothImages { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.unrecoverable, "no authenticated image exists");
        let errs = errors(&mut sys);
        assert!(matches!(errs[..], [Error::IntegrityUnrecoverable { .. }]), "got {errs:?}");
        let s = sys.stats().security;
        assert_eq!(s.unrecoverable, 1);
        assert_eq!(s.verify_fallbacks, 0);
        // Unauthenticated data is never replayed: the image is provably empty.
        let mut buf = [0xFFu8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "reset to the empty image");
        assert_security_conservation(&sys);
        // The system keeps working after the reset.
        let t = store_and_checkpoint(&mut sys, 9, t);
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [9u8; 64]);
    }

    #[test]
    fn crc_fallback_to_zero_checkpoints_still_authenticates_the_image() {
        // A torn commit record with exactly one completed checkpoint makes
        // the CRC step fall back to `C_penult` and land on zero completed
        // checkpoints. The fallback image is still cloned from persisted
        // bytes an attacker can forge, so MAC verification must run anyway
        // — skipping it would replay the forged penult unauthenticated.
        let mut cfg = SystemConfig::small_test();
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        cfg.security = thynvm_types::SecurityConfig::hardened();
        cfg.validate().expect("valid secure+media config");
        let mut sys = ThyNvm::new(cfg);
        let t = store_and_checkpoint(&mut sys, 7, Cycle::ZERO);
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        sys.inject_tamper(TamperFault::BothImages { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback, "CRC step rejects the torn record");
        assert!(report.unrecoverable, "the forged fallback image fails its MAC");
        assert_eq!(sys.stats().media.integrity_fallbacks, 1);
        assert_eq!(sys.stats().security.unrecoverable, 1);
        let mut buf = [0xFFu8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "forged bytes never reach software");
        assert_security_conservation(&sys);
    }

    #[test]
    fn tamper_stays_armed_until_a_checkpoint_exists() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        // Nothing persisted yet: there is no image to forge.
        let report = sys.crash_and_recover(Cycle::new(100));
        assert!(!report.integrity_fallback);
        assert_eq!(sys.armed_tamper(), Some(TamperFault::ClastData { addr: 0 }));
        assert_eq!(sys.stats().security.tampers_injected, 0);
        // The first checkpoint gives the adversary a target.
        let t = store_and_checkpoint(&mut sys, 3, Cycle::new(200));
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        assert_eq!(sys.armed_tamper(), None);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "fell back to the initial zero image");
        assert_security_conservation(&sys);
    }

    #[test]
    fn tamper_on_disabled_model_is_ignored() {
        let mut sys = small();
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        assert_eq!(sys.armed_tamper(), None, "no model, nothing to arm");
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let report = sys.crash_and_recover(t);
        assert!(!report.integrity_fallback);
        assert!(!sys.stats().security.any());
    }

    #[test]
    fn mac_catches_media_corruption_when_crc_is_off() {
        // CRC layer disabled: the armed media fault would be silent, but
        // secure mode's MAC catches it and classifies it as media.
        let mut cfg = secure_cfg(|_| {});
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        cfg.media.integrity = false;
        cfg.media.scrub = false; // the scrubber needs CRCs
        cfg.validate().expect("valid");
        let mut sys = ThyNvm::new(cfg);
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback, "MAC stood in for the missing CRC");
        let s = sys.stats().security;
        assert_eq!(s.classified_media, 1);
        assert_eq!(s.classified_tamper, 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
        assert_security_conservation(&sys);
    }

    #[test]
    fn nested_crash_during_tamper_recovery_converges() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        sys.arm_crash_point(t);
        // Interrupt the first recovery attempt one cycle in: the attempt
        // restarts and must converge on the same verdict without double
        // counting the detection.
        sys.queue_crash_point(t + Cycle::new(1));
        let resume = sys.poll_crash(t + Cycle::new(2)).expect("crash fires");
        let crash = crashes(&mut sys).pop().expect("reported");
        assert!(crash.report.nested_crashes >= 1);
        assert!(crash.report.integrity_fallback);
        let s = sys.stats().security;
        assert_eq!(s.tampers_detected, 1, "detection counted exactly once");
        assert_eq!(s.verify_fallbacks, 1);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, resume);
        assert_eq!(buf, [1u8; 64]);
        assert_security_conservation(&sys);
    }

    #[test]
    fn sanctioned_rollback_does_not_trip_the_mac() {
        // rollback_to_checkpoint restores the archived image with the MAC
        // it was committed under, so a later crash does not misread the
        // rollback as tampering.
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        sys.set_archive_depth(4);
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        let archived = sys.archived_checkpoints();
        let _ = sys.rollback_to_checkpoint(archived[0], t).expect("archived epoch");
        let report = sys.crash_and_recover(t);
        assert!(!report.integrity_fallback, "rollback is not a MAC mismatch");
        assert_eq!(sys.stats().security.tampers_detected, 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn reclaim_migration_reencrypts_each_home_copy() {
        // §4.3 reclaim copies each `C_last` block stranded in Region A to
        // the Home Region. The copy is a data write, so it bumps its
        // block's counter after the checkpoint persisted the table.
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let mut t = Cycle::ZERO;
        for page in 0..50u64 {
            t = sys.store_bytes(PhysAddr::new(page * PAGE_BYTES), &[3u8; 64], t);
        }
        assert_eq!(sys.btt().len(), 50);
        let t = sys.force_checkpoint(t);
        sys.drain(t);
        assert_eq!(sys.btt().len(), 38, "retirement reclaims down to 60 % of 64 entries");
        let sec = sys.security_model().expect("secure mode on");
        assert_eq!(sec.dirty_count(), 12, "one re-encrypted home copy per reclaimed entry");
    }

    /// Asserts that every held checkpoint's MAC equals a full
    /// recomputation over the image it authenticates, and that the
    /// memoized MAC walk of each held image and of `visible` equals the
    /// full recomputation too, so the memos are current in release builds.
    fn assert_macs_match_images(sys: &mut ThyNvm, when: &str) {
        let key = sys.mac_key;
        for c in &mut sys.history {
            let full = c.store.recomputed_mac(key);
            assert_eq!(c.mac, full, "checkpoint {} MAC after {when}", c.number);
            assert_eq!(c.store.mac(key), full, "checkpoint {} memoized MAC after {when}", c.number);
        }
        let full = sys.visible.recomputed_mac(key);
        assert_eq!(sys.visible.mac(key), full, "visible memoized MAC after {when}");
    }

    #[test]
    fn incremental_commit_mac_equals_the_recomputed_mac() {
        // Secure mode with CRC integrity and a persist buffer that salvages
        // every pending write, so each way a commit or a fallback can move
        // the images runs once. Release builds compile out the
        // `debug_assert`s at the capture and in `VerifyMacs`; this test
        // checks the same equalities there, and the memos of every image.
        let mut cfg = SystemConfig::small_test();
        cfg.security = thynvm_types::SecurityConfig::hardened();
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        cfg.wpq = thynvm_types::PersistBufferConfig::armed();
        cfg.wpq.salvage_rate = 1.0;
        cfg.validate().expect("valid secure + media + wpq config");
        let mut sys = ThyNvm::new(cfg);
        let commit = |sys: &mut ThyNvm, t: Cycle| {
            let t = sys.force_checkpoint(t);
            sys.drain(t)
        };

        // Page-straddling stores, rewrites of earlier pages, and a store
        // that zeroes a page again so its term leaves the sum.
        let mut t = Cycle::ZERO;
        for round in 0..4u64 {
            let straddle = (round + 1) * PAGE_BYTES - 100;
            t = sys.store_bytes(PhysAddr::new(straddle), &[round as u8 + 1; 200], t);
            t = sys.store_bytes(PhysAddr::new(9 * PAGE_BYTES + 64 * round), &[0xEE; 64], t);
            t = commit(&mut sys, t);
            assert_macs_match_images(&mut sys, &format!("commit {round}"));
        }
        t = sys.store_bytes(PhysAddr::new(PAGE_BYTES - 100), &[0; 200], t);
        t = sys.store_bytes(PhysAddr::new(2 * PAGE_BYTES - 100), &[0; 100], t);
        t = commit(&mut sys, t);
        assert_macs_match_images(&mut sys, "a zeroing commit");

        // A crash inside the commit-record window: the salvaged marker
        // commits the in-flight checkpoint early, at crash time.
        let before = sys.epoch_state().completed;
        t = sys.store_bytes(PhysAddr::new(3 * PAGE_BYTES - 8), &[0x5A; 64], t);
        let _ = sys.force_checkpoint(t);
        let done = sys.epoch_state().job.as_ref().expect("job in flight").done_at;
        let report = sys.crash_and_recover(done - Cycle::new(1));
        assert!(flushes(&mut sys).iter().any(|f| f.commit_salvaged()), "early commit");
        assert!(!report.rolled_back_incomplete);
        assert_eq!(sys.epoch_state().completed, before + 1);
        assert_macs_match_images(&mut sys, "a salvaged early commit");
        t = done + report.recovery_cycles;

        // A torn commit record: the CRC check falls back to `C_penult`.
        t = sys.store_bytes(PhysAddr::new(4 * PAGE_BYTES - 32), &[0x11; 64], t);
        t = commit(&mut sys, t);
        assert_macs_match_images(&mut sys, "a commit");
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback, "CRC fallback");
        assert_macs_match_images(&mut sys, "a CRC fallback");
        t += report.recovery_cycles;

        // Forged `C_last` bytes: the MAC check falls back to `C_penult`.
        t = sys.store_bytes(PhysAddr::new(5 * PAGE_BYTES - 32), &[0x22; 64], t);
        t = commit(&mut sys, t);
        t = sys.store_bytes(PhysAddr::new(5 * PAGE_BYTES - 32), &[0x33; 64], t);
        t = commit(&mut sys, t);
        assert_macs_match_images(&mut sys, "a commit");
        sys.inject_tamper(TamperFault::ClastData { addr: 5 * PAGE_BYTES - 1 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback && !report.unrecoverable, "MAC fallback");
        assert_eq!(sys.stats().security.verify_fallbacks, 1);
        assert_macs_match_images(&mut sys, "a tamper fallback");
        t += report.recovery_cycles;

        // Commits after the fallbacks keep updating from the right base.
        t = sys.store_bytes(PhysAddr::new(5 * PAGE_BYTES - 32), &[0x44; 64], t);
        commit(&mut sys, t);
        assert_macs_match_images(&mut sys, "a commit after the fallbacks");
    }

    // ------------------------------------------------------------------
    // Graceful-degradation health ladder
    // ------------------------------------------------------------------

    /// `small_test` with the health ladder enabled (and optional tweaks to
    /// the whole config, so tests can co-enable fault domains).
    fn health_cfg(f: impl FnOnce(&mut SystemConfig)) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.health = thynvm_types::HealthConfig::hardened();
        f(&mut cfg);
        cfg.validate().expect("valid health config");
        cfg
    }

    /// Asserts the HealthStats conservation invariant.
    fn assert_health_conservation(sys: &ThyNvm) {
        let s = sys.stats();
        assert!(s.health.promotions <= s.health.demotions, "ladder ledger");
    }

    #[test]
    fn health_off_exposes_no_monitor_and_records_nothing() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        assert!(sys.health_monitor().is_none());
        assert_eq!(sys.health_rung(), HealthRung::Healthy);
        assert_eq!(sys.stats().health, thynvm_types::HealthStats::default());
        assert!(errors(&mut sys).is_empty());
    }

    #[test]
    fn quiet_health_run_is_content_identical_and_persists_healthy() {
        let mut base = small();
        let mut sys = ThyNvm::new(health_cfg(|_| {}));
        let tb = store_and_checkpoint(&mut base, 7, Cycle::ZERO);
        let th = store_and_checkpoint(&mut sys, 7, Cycle::ZERO);
        assert_eq!(base.visible_fingerprint(), sys.visible_fingerprint());
        assert!(th >= tb, "the 64 B rung persist never speeds a checkpoint up");
        let h = sys.stats().health;
        assert_eq!(h.rung_persists, 1, "rung persisted with the commit record");
        assert_eq!(h.evaluations, 1, "one evaluation per retired epoch");
        assert_eq!(h.demotions, 0);
        assert_eq!(sys.clast_health_rung(), HealthRung::Healthy);
        assert_health_conservation(&sys);
    }

    #[test]
    fn retry_storm_wounds_the_ladder_and_arms_emergency_checkpoints() {
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.scrub = false;
            c.health.wounded_retry_rate = 1;
        }));
        // Wear out a row, then read through it: three bounded CRC retries.
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], Cycle::ZERO);
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
        let mut buf = [0u8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(sys.stats().media.retries, 3);
        // The retirement-time evaluation sees the retry burst and wounds.
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        assert_eq!(sys.health_rung(), HealthRung::Wounded);
        assert_eq!(sys.stats().health.demotions, 1);
        // Wounded shortens the epoch deadline by `EMERGENCY_DIVISOR`: with
        // a 1 ms epoch and divisor 4, dirty data makes a checkpoint due at
        // a quarter of the regular deadline.
        let t = sys.store_bytes(PhysAddr::new(4096), &[1u8; 64], t);
        let early = t + Cycle::from_ns(300_000);
        assert!(sys.checkpoint_due(early), "emergency deadline fires early");
        let _ = sys.begin_checkpoint(early, &[]);
        assert_eq!(sys.stats().health.emergency_checkpoints, 1);
        assert_health_conservation(&sys);
    }

    #[test]
    fn rung_persists_with_commit_record_and_rehydrates_after_crash() {
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.scrub = false;
            c.health.wounded_retry_rate = 1;
        }));
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], Cycle::ZERO);
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
        let mut buf = [0u8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        assert_eq!(sys.health_rung(), HealthRung::Wounded);
        // The wound postdates the first commit record: `C_last` still
        // carries Healthy, so a crash here rehydrates Healthy.
        assert_eq!(sys.clast_health_rung(), HealthRung::Healthy);
        // The *next* checkpoint persists the Wounded rung…
        let t = sys.store_bytes(PhysAddr::new(4096), &[2u8; 64], t);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        assert_eq!(sys.clast_health_rung(), HealthRung::Wounded);
        // …and recovery rehydrates it from durable state.
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        assert_eq!(sys.health_rung(), HealthRung::Wounded);
        assert_eq!(sys.stats().health.rehydrations, 1);
        assert_health_conservation(&sys);
    }

    #[test]
    fn spare_exhaustion_escalates_to_readonly_with_bounded_read_latency() {
        // Satellite: MediaStats::spare_exhausted feeds the ladder, and a
        // drained spare pool keeps per-read latency inside the
        // RetryPolicy bound.
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.scrub = false;
            c.media.spare_blocks = 1;
        }));
        let mut t = Cycle::ZERO;
        for addr in [0u64, 16 * PAGE_BYTES] {
            t = sys.store_bytes(PhysAddr::new(addr), &[0xAB; 64], t);
            t = sys.store_bytes(PhysAddr::new(addr), &[0xAB; 64], t);
        }
        // A healthy block for the latency baseline.
        t = sys.store_bytes(PhysAddr::new(4096), &[3u8; 64], t);
        let mut buf = [0u8; 64];
        t = sys.load_bytes(PhysAddr::new(0), &mut buf, t); // consumes the spare
        t = sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t); // refused remap
        assert!(sys.stats().media.spare_exhausted >= 1);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        // The refused remap is an exhaustion *event*: straight to ReadOnly.
        assert_eq!(sys.health_rung(), HealthRung::ReadOnly);
        // New stores are rejected — silently on the raw path, with
        // `Error::Degraded` on the fallible one — and nothing mutates.
        let before = sys.visible_fingerprint();
        let t2 = sys.store_bytes(PhysAddr::new(8192), &[9u8; 64], t);
        assert_eq!(sys.visible_fingerprint(), before, "rejected store must not mutate");
        let err = sys.try_store_bytes(PhysAddr::new(8192), &[9u8; 64], t2).unwrap_err();
        assert!(matches!(err, Error::Degraded { rung: HealthRung::ReadOnly }), "got {err:?}");
        assert!(sys.stats().health.stores_rejected >= 2);
        // Both rejections are journaled, the silent one included.
        let errs = errors(&mut sys);
        assert!(
            matches!(errs[..], [.., Error::Degraded { .. }, Error::Degraded { .. }]),
            "got {errs:?}"
        );
        // Loads still serve CRC-verified data, inside the retry bound.
        let clean_start = t2;
        let clean_end = sys.load_bytes(PhysAddr::new(4096), &mut buf, clean_start);
        assert_eq!(buf, [3u8; 64]);
        let clean_dt = clean_end.raw() - clean_start.raw();
        let bad_end = sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, clean_end);
        assert_eq!(buf, [0xAB; 64], "degraded reads still serve correct data");
        let bad_dt = bad_end.raw() - clean_end.raw();
        let policy = RetryPolicy::MEDIA;
        assert!(
            bad_dt <= clean_dt * u64::from(policy.max_attempts() + 1) + policy.total_backoff().raw(),
            "per-read latency exceeds the RetryPolicy bound: {bad_dt} vs clean {clean_dt}"
        );
        assert_health_conservation(&sys);
    }

    #[test]
    fn scrubber_with_nothing_left_to_heal_defers_without_spinning() {
        // Satellite: the scrub "nothing left to heal" branch — spares gone,
        // the scrubber stops repairing, reads keep retrying.
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.spare_blocks = 1;
            c.health.readonly_scrub_backlog = 1;
        }));
        let mut t = Cycle::ZERO;
        for addr in [0u64, 16 * PAGE_BYTES] {
            t = sys.store_bytes(PhysAddr::new(addr), &[0xCD; 64], t);
            t = sys.store_bytes(PhysAddr::new(addr), &[0xCD; 64], t);
        }
        assert_eq!(sys.stats().media.stuck_faults, 2);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        // The scrubber healed one block, then hit the empty pool.
        assert_eq!(sys.stats().media.scrub_repairs, 1);
        assert!(sys.spares_exhausted());
        // Exhausted pool + standing backlog pins the ladder at ReadOnly.
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        assert_eq!(sys.stats().media.scrub_repairs, 1, "nothing left to heal: no new repairs");
        assert_eq!(sys.health_rung(), HealthRung::ReadOnly);
        // The unhealed block is still served, by retrying every read.
        let retries_before = sys.stats().media.retries;
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t);
        assert_eq!(buf, [0xCD; 64]);
        assert!(sys.stats().media.retries > retries_before, "unremappable reads keep retrying");
        assert_health_conservation(&sys);
    }

    #[test]
    fn wal_redos_during_recovery_escalate_to_readonly() {
        // WAL-redo accounting feeds the ladder. Each nested crash tears
        // the fallback's WAL seal and the restarted attempt redoes it;
        // recovery lands at ReadOnly once the redos reach the threshold.
        // Each run finds the next crash point: one cycle before the seal
        // of the attempt its own crashes leave standing.
        let mut points = Vec::new();
        for redos in 0..=READONLY_WAL_REDOS {
            let mut sys = ThyNvm::new(health_cfg(|c| c.media = thynvm_types::MediaFaultConfig::hardened()));
            let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
            let t = store_and_checkpoint(&mut sys, 2, t);
            sys.inject_media_fault(MediaFault::TornCommitRecord);
            sys.arm_crash_point(t);
            for &at in &points {
                sys.queue_crash_point(at);
            }
            sys.poll_crash(t + Cycle::new(1)).expect("crash fires");
            let report = crashes(&mut sys).pop().expect("reported").report;
            assert_eq!(report.nested_crashes, redos);
            assert_eq!(sys.stats().media.wal_redos, redos, "each nested crash tore one seal");
            let rung = if redos < READONLY_WAL_REDOS { HealthRung::Healthy } else { HealthRung::ReadOnly };
            assert_eq!(sys.health_rung(), rung, "after {redos} redos");
            assert_health_conservation(&sys);
            let sealed = report
                .steps
                .iter()
                .find(|&&(s, _)| s == RecoveryStep::IntegrityFallback)
                .map(|&(_, end)| end)
                .expect("the standing attempt ran the fallback step");
            points.push(sealed.saturating_sub(Cycle::new(1)));
        }
    }

    #[test]
    fn tamper_detection_rehydrates_to_failsafe_and_sticks() {
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.security = thynvm_types::SecurityConfig::hardened();
        }));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback, "tamper detected, image fell back");
        assert_eq!(sys.stats().security.tampers_detected, 1);
        // Detected tampering overrides the persisted rung: FailSafe.
        assert_eq!(sys.health_rung(), HealthRung::FailSafe);
        // FailSafe refuses new stores…
        let err = sys
            .try_store_bytes(PhysAddr::new(4096), &[9u8; 64], t + report.recovery_cycles)
            .unwrap_err();
        assert!(matches!(err, Error::Degraded { rung: HealthRung::FailSafe }), "got {err:?}");
        // …and never promotes, no matter how many clean epochs follow.
        let mut t = t + report.recovery_cycles;
        for _ in 0..8 {
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
        }
        assert_eq!(sys.health_rung(), HealthRung::FailSafe);
        assert_health_conservation(&sys);
    }

    #[test]
    fn readonly_completes_the_inflight_checkpoint() {
        // A rung demotion mid-flight must not abort the checkpoint that is
        // already persisting: the job retires and its image is durable.
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.scrub = false;
            c.media.spare_blocks = 1;
        }));
        let mut t = Cycle::ZERO;
        for addr in [0u64, 16 * PAGE_BYTES] {
            t = sys.store_bytes(PhysAddr::new(addr), &[0xEE; 64], t);
            t = sys.store_bytes(PhysAddr::new(addr), &[0xEE; 64], t);
        }
        let mut buf = [0u8; 64];
        t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        t = sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t);
        let resume = sys.force_checkpoint(t);
        assert!(sys.epoch_state().job_running(resume), "checkpoint in flight");
        let t = sys.drain(resume);
        assert_eq!(sys.health_rung(), HealthRung::ReadOnly);
        assert_eq!(sys.epoch_state().completed, 1, "in-flight checkpoint completed");
        // The committed image survives a crash under the degraded rung.
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0xEE; 64]);
        assert_health_conservation(&sys);
    }

    // ---- volatile persist buffer (WPQ fault domain) ----

    fn wpq_cfg(salvage_rate: f64) -> SystemConfig {
        let mut c = SystemConfig::small_test();
        c.wpq = thynvm_types::PersistBufferConfig::armed();
        c.wpq.salvage_rate = salvage_rate;
        c
    }

    fn assert_wpq_conservation(sys: &ThyNvm) {
        let w = &sys.stats().wpq;
        assert_eq!(
            w.enqueued,
            w.drained + w.dropped_at_crash + w.outstanding(),
            "WPQ ledger must conserve: {w:?}"
        );
    }

    #[test]
    fn wpq_off_leaves_no_trace() {
        let mut sys = small();
        let mut t = write64(&mut sys, 0, 0);
        t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let _ = sys.crash_and_recover(t);
        assert!(!sys.stats().wpq.any(), "disabled buffer must not count anything");
        assert!(sys.persist_buffer().is_none());
        assert!(sys.take_events().is_empty(), "no flush, no ordering finding");
    }

    #[test]
    fn wpq_fences_and_ledger_conserve_through_checkpoints() {
        let mut sys = ThyNvm::new(wpq_cfg(0.5));
        let mut t = Cycle::ZERO;
        for i in 0..8u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[i as u8; 64], t);
        }
        t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let w = sys.stats().wpq;
        assert!(w.enqueued > 0, "checkpoint traffic must pass through the buffer");
        // One fence before the metadata, one before the commit record.
        assert!(w.fences >= 2, "both §4.4 ordering points must fence: {w:?}");
        assert_wpq_conservation(&sys);
        // Quiescent after the drain: only the commit marker may still be
        // lazily pending (its retire is the job completion cycle).
        assert!(sys.persist_buffer().expect("armed").outstanding_at(t) <= 1);
        assert!(errors(&mut sys).is_empty(), "fenced rounds audit clean");
    }

    #[test]
    fn unfenced_commit_is_audited_and_surfaced() {
        let mut sys = ThyNvm::new(wpq_cfg(0.5));
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], Cycle::ZERO);
        sys.skip_next_fence();
        let t = sys.force_checkpoint(t);
        sys.drain(t);
        let errs = errors(&mut sys);
        let [err] = &errs[..] else { panic!("audit must fire once with fences skipped: {errs:?}") };
        assert!(
            matches!(err, Error::UnfencedCommit { pending, .. } if *pending > 0),
            "got {err:?}"
        );
        assert!(err.to_string().contains("unfenced"));
        // Drained once: the violation does not linger.
        assert!(errors(&mut sys).is_empty());
    }

    #[test]
    fn crash_salvage_commits_the_inflight_checkpoint_early() {
        let mut sys = ThyNvm::new(wpq_cfg(1.0));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xAB; 64], Cycle::ZERO);
        let resume = sys.force_checkpoint(t);
        let done = sys.epoch_state().job.as_ref().expect("job in flight").done_at;
        assert!(sys.epoch_state().job_running(resume));
        // Crash inside the commit-record persist window: the marker was
        // issued but had not retired. Salvage rate 1.0 flushes it.
        let report = sys.crash_and_recover(done - Cycle::new(1));
        let flush = flushes(&mut sys).pop().expect("armed buffer records the flush");
        assert!(flush.marker_salvaged && flush.commit_salvaged(), "got {flush:?}");
        assert!(!report.rolled_back_incomplete, "checkpoint committed early");
        assert_eq!(sys.epoch_state().completed, 1);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, done + report.recovery_cycles);
        assert_eq!(buf, [0xAB; 64], "early-committed data must be durable");
        assert_wpq_conservation(&sys);
    }

    #[test]
    fn crash_without_salvage_rolls_back_as_before() {
        let mut sys = ThyNvm::new(wpq_cfg(0.0));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xAB; 64], Cycle::ZERO);
        let resume = sys.force_checkpoint(t);
        let done = sys.epoch_state().job.as_ref().expect("job in flight").done_at;
        assert!(sys.epoch_state().job_running(resume));
        let report = sys.crash_and_recover(done - Cycle::new(1));
        let flush = flushes(&mut sys).pop().expect("armed buffer records the flush");
        assert!(flush.marker_dropped && !flush.commit_salvaged(), "got {flush:?}");
        assert!(report.rolled_back_incomplete, "no salvage: §4.5 rollback");
        assert_eq!(sys.epoch_state().completed, 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, done + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "the in-flight epoch's data is lost");
        assert_wpq_conservation(&sys);
    }

    #[test]
    fn crash_before_the_marker_was_issued_never_salvages() {
        // Even at salvage rate 1.0, a crash before the commit record's
        // write was *issued* unwinds the marker: residual energy cannot
        // flush a write that never reached the queue.
        let mut sys = ThyNvm::new(wpq_cfg(1.0));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xCD; 64], Cycle::ZERO);
        let _ = sys.force_checkpoint(t);
        let started = sys.epoch_state().job.as_ref().expect("job in flight").started;
        let report = sys.crash_and_recover(started + Cycle::new(1));
        let flush = flushes(&mut sys).pop().expect("armed buffer records the flush");
        assert!(flush.marker_dropped && !flush.commit_salvaged(), "got {flush:?}");
        assert!(report.rolled_back_incomplete);
        assert_wpq_conservation(&sys);
    }
}
