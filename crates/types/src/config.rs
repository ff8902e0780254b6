//! System configuration (Table 2 of the paper) and the fault-domain knobs.
//!
//! Table 2's latencies are constants: every evaluated system runs on the
//! one machine the paper fixes, so nothing configures them. Its sizes,
//! table capacities, epoch length and thresholds stay [`SystemConfig`]
//! fields, which the sensitivity experiments and tests vary. All defaults
//! reproduce the paper's evaluated configuration:
//!
//! | Component  | Paper value |
//! |------------|-------------|
//! | Processor  | 3 GHz, in-order |
//! | L1 I/D     | private 32 KB, 8-way, 64 B blocks, 4-cycle hit |
//! | L2         | private 256 KB, 8-way, 64 B blocks, 12-cycle hit |
//! | L3         | shared 2 MB/core, 16-way, 64 B blocks, 28-cycle hit |
//! | DRAM       | DDR3-1600: 40 ns row hit, 80 ns row miss |
//! | NVM        | 40 ns row hit, 128 ns clean miss, 368 ns dirty miss |
//! | BTT/PTT    | 3 ns lookup; 2048 / 4096 entries |
//! | DRAM size  | 16 MB working-data region |
//! | Epoch      | ≤ 10 ms |
//! | Thresholds | 22 stores/epoch → page writeback; ≤16 → block remapping |

use serde::{Deserialize, Serialize};

use crate::addr::{BLOCK_BYTES, PAGE_BYTES};
use crate::cycle::Cycle;

/// CPU core frequency in GHz (Table 2: 3 GHz in-order).
pub const CPU_FREQ_GHZ: u64 = 3;

// Device latencies in nanoseconds (Table 2). NVM follows the PCM-style
// model of the paper's sources: a row-buffer hit costs the same as DRAM, a
// clean row miss pays the slow NVM array read, and a dirty row miss
// additionally pays the expensive NVM array write-back.

/// DRAM row-buffer hit latency (ns; DDR3-1600).
pub const DRAM_ROW_HIT_NS: u64 = 40;
/// DRAM row-buffer miss latency (ns).
pub const DRAM_ROW_MISS_NS: u64 = 80;
/// NVM row-buffer hit latency (ns).
pub const NVM_ROW_HIT_NS: u64 = 40;
/// NVM row-buffer miss latency when the evicted row is clean (ns).
pub const NVM_CLEAN_MISS_NS: u64 = 128;
/// NVM row-buffer miss latency when the evicted row is dirty (ns).
pub const NVM_DIRTY_MISS_NS: u64 = 368;
/// BTT/PTT lookup latency in the memory controller (ns).
pub const TABLE_LOOKUP_NS: u64 = 3;

/// L1 hit latency in cycles (Table 2).
pub const L1_HIT_CYCLES: u64 = 4;
/// L2 hit latency in cycles (Table 2).
pub const L2_HIT_CYCLES: u64 = 12;
/// L3 hit latency in cycles (Table 2).
pub const L3_HIT_CYCLES: u64 = 28;
/// The most ways a cache level may have: each set keeps 16 tag lanes.
pub const MAX_CACHE_WAYS: u32 = 16;

/// Secure mode's modeled cost per 64 B block, in nanoseconds, charged on
/// every encryption and every verification: 14 ns of counter-mode AES
/// (pad generation and counter fetch) plus 8 ns of MAC work
/// (integrity-tree leaf and node hashing), after Zuo et al.
/// (arXiv:1901.00620).
pub const CRYPTO_NS_PER_BLOCK: u64 = 14 + 8;

/// Banks per channel of every DRAM and NVM device.
pub const BANKS_PER_CHANNEL: u32 = 8;
/// Bytes per row (row-buffer size) of every DRAM and NVM device.
pub const ROW_BYTES: u64 = 8 * 1024;

/// Geometry of one memory device: its channel count. Each channel has
/// [`BANKS_PER_CHANNEL`] banks, each with a [`ROW_BYTES`]-byte row buffer.
///
/// The paper models DDR3-interfaced DRAM and NVM; we expose enough geometry
/// for bank-level parallelism and row-buffer locality to matter, which is
/// what the dual-scheme design exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceGeometry {
    /// Independent channels.
    pub channels: u32,
}

impl Default for DeviceGeometry {
    fn default() -> Self {
        Self { channels: 1 }
    }
}

impl DeviceGeometry {
    /// Total number of banks across all channels.
    pub fn total_banks(&self) -> u32 {
        self.channels * BANKS_PER_CHANNEL
    }
}

/// Cache hierarchy configuration (Table 2). The hit latencies are the
/// constants [`L1_HIT_CYCLES`], [`L2_HIT_CYCLES`] and [`L3_HIT_CYCLES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// L1 data cache capacity in bytes (32 KB).
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// L2 capacity in bytes (256 KB).
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L3 capacity in bytes (2 MB per core).
    pub l3_bytes: u64,
    /// L3 associativity.
    pub l3_ways: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l2_bytes: 256 * 1024,
            l2_ways: 8,
            l3_bytes: 2 * 1024 * 1024,
            l3_ways: 16,
        }
    }
}

/// Which checkpointing scheme(s) the controller uses.
///
/// The paper's contribution is [`CkptMode::Dual`]; the uniform modes exist
/// to reproduce the §1/§2.3 tradeoff claims (Table 1): uniform page
/// granularity suffers long stalls, uniform block granularity suffers large
/// metadata overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CkptMode {
    /// Dual-scheme checkpointing (§3): block remapping + page writeback,
    /// adapted by write locality.
    #[default]
    Dual,
    /// Uniform cache-block granularity (block remapping only).
    BlockOnly,
    /// Uniform page granularity (page writeback only).
    PageOnly,
}

/// Where the Working Data Region lives.
///
/// §4.1 footnote 3: "we assume that the Working Data Region is mapped to
/// DRAM… Other implementations of ThyNVM can distribute this region between
/// DRAM and NVM or place it completely in NVM. We leave the exploration of
/// such choices to future work." — this knob performs that exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WorkingRegion {
    /// Working data in DRAM (the paper's evaluated configuration).
    #[default]
    Dram,
    /// Working data entirely in NVM: no volatile working copies to lose,
    /// shorter checkpoints, slower execution-phase writes.
    Nvm,
}

/// ThyNVM-specific configuration: translation-table sizes, DRAM capacity,
/// epoch length and the scheme-switching thresholds of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThyNvmConfig {
    /// Number of Block Translation Table entries (2048 in the paper).
    pub btt_entries: usize,
    /// Number of Page Translation Table entries (4096 in the paper).
    pub ptt_entries: usize,
    /// Size of the DRAM working-data region in bytes (16 MB simulated).
    pub dram_bytes: u64,
    /// Maximum epoch length (10 ms in the paper).
    pub epoch_max_ms: u64,
    /// Store-counter threshold at/above which a page switches to page
    /// writeback at the next epoch (22 in the paper).
    pub promote_threshold: u8,
    /// Store-counter threshold at/below which a page switches to block
    /// remapping at the next epoch (16 in the paper).
    pub demote_threshold: u8,
    /// Which checkpointing scheme(s) to use.
    pub mode: CkptMode,
    /// Whether checkpointing overlaps the next epoch's execution (Figure
    /// 3b). `false` reproduces the stop-the-world model of Figure 3a.
    pub overlap: bool,
    /// Placement of the Working Data Region (§4.1 footnote 3).
    pub working_region: WorkingRegion,
}

impl Default for ThyNvmConfig {
    fn default() -> Self {
        Self {
            btt_entries: 2048,
            ptt_entries: 4096,
            dram_bytes: 16 * 1024 * 1024,
            epoch_max_ms: 10,
            promote_threshold: 22,
            demote_threshold: 16,
            mode: CkptMode::Dual,
            overlap: true,
            working_region: WorkingRegion::Dram,
        }
    }
}

impl ThyNvmConfig {
    /// Maximum epoch length in cycles.
    pub fn epoch_max(&self) -> Cycle {
        Cycle::from_ms(self.epoch_max_ms)
    }

    /// Number of pages that fit in the DRAM working-data region.
    pub fn dram_pages(&self) -> u64 {
        self.dram_bytes / PAGE_BYTES
    }

    /// Approximate metadata storage for the BTT+PTT in bytes, using the
    /// field widths of Figure 5 (BTT entry: 42-bit tag + 11 bits of state;
    /// PTT entry: 36-bit tag + 11 bits of state), rounded up per entry.
    pub fn metadata_bytes(&self) -> u64 {
        let btt_entry_bits = 42 + 2 + 2 + 1 + 6;
        let ptt_entry_bits = 36 + 2 + 2 + 1 + 6;
        let bits = self.btt_entries as u64 * btt_entry_bits
            + self.ptt_entries as u64 * ptt_entry_bits;
        bits.div_ceil(8)
    }
}

/// NVM media-fault model and integrity-protection configuration.
///
/// All fields default to "off": a default configuration models perfect
/// media and adds zero cycles of integrity overhead, so baseline runs are
/// byte- and cycle-identical to a build without the fault subsystem.
///
/// The model is fully deterministic: every fault decision is a pure
/// function of `seed` and the sequence of device operations, so any run —
/// including a crash replay — can be reproduced exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MediaFaultConfig {
    /// Master switch for the fault model. When `false` no faults are ever
    /// injected and no wear is tracked by the model.
    pub enabled: bool,
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability that one 64 B read returns a transiently flipped bit.
    /// Must be in `[0, 1]`.
    pub bit_flip_rate: f64,
    /// Number of writes to a device row after which one cell in the
    /// just-written range becomes permanently stuck. `0` disables the wear
    /// model.
    pub stuck_at_threshold: u64,
    /// CRC-protect persisted state (per-64 B data CRCs in the checkpoint
    /// regions, checksummed commit records and BTT/PTT metadata) and verify
    /// it on reads and at recovery, retrying a rejected read under
    /// [`crate::RetryPolicy::MEDIA`]. Off: corrupted reads are delivered
    /// silently.
    pub integrity: bool,
    /// Run the background scrubber: between epochs, remap blocks whose
    /// cells the wear model marked stuck, repairing checkpoint regions
    /// before the next epoch reads them. Requires `integrity` (CRCs are
    /// what the scrubber verifies against).
    pub scrub: bool,
    /// Number of spare blocks available for bad-block remapping. When the
    /// pool is exhausted further remap attempts degrade gracefully: the bad
    /// block keeps being served through bounded CRC retries and
    /// `MediaStats::spare_exhausted` counts the abandoned remaps.
    pub spare_blocks: u64,
}

impl Default for MediaFaultConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            seed: 0x7479_4e56_4d01,
            bit_flip_rate: 0.0,
            stuck_at_threshold: 0,
            integrity: false,
            scrub: false,
            spare_blocks: 4096,
        }
    }
}

impl MediaFaultConfig {
    /// A fully-armed configuration: faults on, CRC integrity on, scrubber
    /// running. Fault rates are left for the caller to choose (they
    /// default to zero).
    pub fn hardened() -> Self {
        Self {
            enabled: true,
            integrity: true,
            scrub: true,
            ..Self::default()
        }
    }
}

/// DRAM fault-domain configuration: a seedable SEC-DED ECC model on the
/// DRAM working-data region.
///
/// All fields default to "off": a default configuration models perfect
/// DRAM and the controller's data path is cycle- and byte-identical to a
/// build without the subsystem.
///
/// With the model enabled, single-bit transients are corrected by the
/// SEC-DED code and counted; multi-bit errors are detected but
/// uncorrectable and *poison* the affected 64 B block. Poison is volatile
/// (DRAM loses it with power) but must never propagate to NVM: the
/// controller quarantines poisoned dirty pages at checkpoint time and
/// re-fetches poisoned clean blocks from their checkpoint copies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramFaultConfig {
    /// Master switch for the DRAM ECC model. When `false` no DRAM faults
    /// are ever injected and the controller adds zero overhead.
    pub enabled: bool,
    /// Seed for the deterministic fault schedule. Must differ from
    /// [`MediaFaultConfig::seed`] when both models are enabled, so the two
    /// fault streams stay statistically independent.
    pub seed: u64,
    /// Probability that one DRAM read suffers a single-bit transient the
    /// SEC-DED code corrects. Must be in `[0, 1]`.
    pub flip_rate: f64,
    /// Probability that one DRAM read suffers a multi-bit error the code
    /// can only detect: one 64 B block of the read span becomes poisoned.
    /// Must be in `[0, 1]`. A poisoned clean block is re-read under
    /// [`crate::RetryPolicy::DRAM`], then re-fetched from its NVM
    /// checkpoint copy.
    pub poison_rate: f64,
}

impl Default for DramFaultConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            seed: 0x4452_414d_4543, // "DRAMEC"
            flip_rate: 0.0,
            poison_rate: 0.0,
        }
    }
}

impl DramFaultConfig {
    /// A fully-armed configuration: the ECC model on. Fault rates are left
    /// for the caller to choose (they default to zero).
    pub fn hardened() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

/// Secure persistent memory mode: counter-mode encryption of NVM data plus
/// a MAC/integrity tree over the checkpoint images and metadata.
///
/// All fields default to "off": a default configuration adds zero cycles
/// of crypto overhead, so baseline runs are byte- and cycle-identical to a
/// build without the subsystem.
///
/// The model follows Zuo et al. (arXiv:1901.00620): per-block encryption
/// counters and integrity-tree nodes are themselves crash-consistency
/// state. Counters are persisted at epoch boundaries under the same
/// commit-record discipline as the checkpoint itself; a crash mid-epoch
/// loses only the counters of blocks written since the last persist, and
/// recovery *replays* those bounded counters — it never guesses. A MAC
/// mismatch on `C_last` at recovery is classified (tamper vs. torn vs.
/// media) and degrades to `C_penult` exactly as CRC failures do; a
/// mismatch on both images surfaces
/// [`crate::Error::IntegrityUnrecoverable`] rather than ever replaying
/// unauthenticated data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SecurityConfig {
    /// Master switch for the security model. When `false` no crypto costs
    /// are charged, no security metadata is persisted, and recovery skips
    /// all verification steps.
    pub enabled: bool,
    /// Seed the modeled MAC key is derived from.
    pub seed: u64,
}

impl Default for SecurityConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            seed: 0x5345_4355_5245, // "SECURE"
        }
    }
}

impl SecurityConfig {
    /// A fully-armed configuration: encryption and integrity verification
    /// on, each charged [`CRYPTO_NS_PER_BLOCK`].
    pub fn hardened() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

/// Graceful-degradation health-ladder configuration.
///
/// All fields default to "off": a default configuration never evaluates
/// signals, never persists a health record, and never changes controller
/// posture, so baseline runs are byte- and cycle-identical to a build
/// without the subsystem.
///
/// With the monitor enabled, observable signals already collected in
/// `MemStats` (spare-pool occupancy, windowed CRC-retry and ECC-refetch
/// rates, scrub backlog, tamper detections, outstanding DRAM poison) are
/// evaluated at every epoch boundary and drive the ladder
/// `Healthy → Wounded → ReadOnly → FailSafe`; WAL redos escalate at the
/// end of the recovery that made them. Demotion is immediate and may skip
/// rungs; promotion climbs one rung after `promote_clean_epochs`
/// consecutive signal-free epochs (hysteresis), and `FailSafe` never
/// promotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Master switch for the health monitor. When `false` no signals are
    /// evaluated, no health record is persisted, and the controller's
    /// timing and image are bit-identical to a build without the ladder.
    pub enabled: bool,
    /// Length of the sliding window, in epochs, over which retry/refetch
    /// rates are summed. Must be at least 1 when the monitor is enabled.
    pub window_epochs: u32,
    /// Media CRC-retry attempts summed over the window at or above which
    /// the ladder demotes to at least `Wounded`. Zero would pin the ladder
    /// at `Wounded` permanently and is rejected when the monitor is on.
    pub wounded_retry_rate: u64,
    /// DRAM ECC-refetch attempts summed over the window at or above which
    /// the ladder demotes to at least `Wounded`. Zero is rejected when the
    /// monitor is on.
    pub wounded_refetch_rate: u64,
    /// Stuck-cell scrub backlog at or above which — once the spare pool is
    /// exhausted and the scrubber can no longer heal — the ladder demotes
    /// to at least `ReadOnly`. Zero is rejected when the monitor is on.
    pub readonly_scrub_backlog: u64,
    /// Consecutive signal-free epochs required before the ladder promotes
    /// one rung (hysteresis). Must be at least 1 when the monitor is
    /// enabled.
    pub promote_clean_epochs: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            window_epochs: 8,
            wounded_retry_rate: 64,
            wounded_refetch_rate: 64,
            readonly_scrub_backlog: 64,
            promote_clean_epochs: 4,
        }
    }
}

impl HealthConfig {
    /// A fully-armed configuration: the monitor on with the default
    /// thresholds and hysteresis.
    pub fn hardened() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

/// Volatile persist-buffer (WPQ) fault-domain configuration.
///
/// All fields default to "off": a default configuration keeps every NVM
/// write content-durable the instant it is issued, so baseline runs are
/// byte- and cycle-identical to a build without the subsystem.
///
/// With the buffer enabled, NVM writes enter a bounded volatile write
/// pending queue holding `(addr, data, retire_cycle)` entries and only
/// become durable when they drain — out of order across banks, in order
/// within a 64 B line. The controller must fence (force-drain) the buffer
/// at every §4.4 ordering point; a crash drops a seeded, retire-consistent
/// suffix of each bank's pending entries, so recovery faces genuinely
/// torn, reordered persist state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PersistBufferConfig {
    /// Master switch for the persist-buffer model. When `false` writes are
    /// durable at issue and the simulated image and cycle counts are
    /// bit-identical to a build without the subsystem.
    pub enabled: bool,
    /// Seed for the deterministic crash-time partial-flush schedule. Must
    /// differ from [`MediaFaultConfig::seed`] and [`DramFaultConfig::seed`]
    /// when the respective models are enabled, so the fault streams stay
    /// independent.
    pub seed: u64,
    /// Expected fraction of each bank's in-flight (issued but not yet
    /// retired) entries salvaged at a crash, beyond the retire-complete
    /// prefix that is always durable. Must be in `[0, 1]`: `0.0` drops
    /// everything still in flight, `1.0` models a fully residual-powered
    /// buffer that always finishes its drain.
    pub salvage_rate: f64,
}

impl Default for PersistBufferConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            seed: 0x5750_5144_524e, // "WPQDRN"
            salvage_rate: 0.5,
        }
    }
}

impl PersistBufferConfig {
    /// A fully-armed configuration: the buffer on with the default salvage
    /// rate. Deliberately *not* part of [`SystemConfig::hardened`] — fence
    /// stalls change cycle counts, and `hardened()` is used in
    /// timing-compared configurations.
    pub fn armed() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

/// Complete system configuration: one struct to construct any evaluated
/// memory system with the paper's parameters.
///
/// # Example
///
/// ```
/// use thynvm_types::SystemConfig;
/// let cfg = SystemConfig::default();
/// assert_eq!(cfg.thynvm.btt_entries, 2048);
/// assert_eq!(cfg.thynvm.ptt_entries, 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SystemConfig {
    /// DRAM geometry.
    pub dram_geometry: DeviceGeometry,
    /// NVM geometry.
    pub nvm_geometry: DeviceGeometry,
    /// Cache hierarchy parameters.
    pub cache: CacheConfig,
    /// ThyNVM controller parameters.
    pub thynvm: ThyNvmConfig,
    /// NVM media-fault model and integrity protection (default: perfect
    /// media, no integrity overhead).
    pub media: MediaFaultConfig,
    /// DRAM ECC fault model (default: perfect DRAM, zero overhead).
    pub dram_fault: DramFaultConfig,
    /// Secure persistent memory mode: counter-mode encryption + integrity
    /// tree (default: off, zero overhead).
    pub security: SecurityConfig,
    /// Graceful-degradation health ladder (default: off, zero overhead).
    pub health: HealthConfig,
    /// Volatile persist-buffer fault domain (default: off, writes durable
    /// at issue, zero overhead).
    pub wpq: PersistBufferConfig,
}

impl Eq for SystemConfig {}

impl SystemConfig {
    /// The exact configuration of Table 2.
    pub fn paper() -> Self {
        Self::default()
    }

    /// The paper configuration with every robustness domain armed: NVM
    /// media integrity (CRC + retry/remap/scrub), the DRAM SEC-DED ECC
    /// model, the secure persistent memory mode, and the graceful-
    /// degradation health ladder. Fault rates are left at zero for the
    /// caller to choose.
    pub fn hardened() -> Self {
        Self {
            media: MediaFaultConfig::hardened(),
            dram_fault: DramFaultConfig::hardened(),
            security: SecurityConfig::hardened(),
            health: HealthConfig::hardened(),
            ..Self::default()
        }
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidConfig`] when a field combination is
    /// meaningless: zero-sized structures, a demote threshold above the
    /// promote threshold (pages would oscillate between schemes every
    /// epoch), a PTT larger than the DRAM that backs it, or a cache level
    /// whose capacity is not a positive multiple of `ways × 64 B` or that
    /// has more than [`MAX_CACHE_WAYS`] ways.
    pub fn validate(&self) -> crate::Result<()> {
        let t = &self.thynvm;
        let fail = |reason: &str| {
            Err(crate::Error::InvalidConfig { reason: reason.to_owned() })
        };
        if t.btt_entries == 0 {
            return fail("BTT must have at least one entry");
        }
        if t.ptt_entries == 0 {
            return fail("PTT must have at least one entry");
        }
        if t.dram_bytes < PAGE_BYTES {
            return fail("DRAM must hold at least one page");
        }
        if t.demote_threshold > t.promote_threshold {
            return fail("demote threshold above promote threshold causes scheme oscillation");
        }
        if t.ptt_entries as u64 > t.dram_pages() {
            return fail("PTT entries exceed DRAM page capacity");
        }
        if t.ptt_entries as u64 > u64::from(u32::MAX) {
            return fail("PTT capacity exceeds DRAM slot addressing (u32 slots)");
        }
        if t.epoch_max_ms == 0 {
            return fail("epoch length must be nonzero");
        }
        let c = &self.cache;
        for (level, bytes, ways) in
            [("L1", c.l1_bytes, c.l1_ways), ("L2", c.l2_bytes, c.l2_ways), ("L3", c.l3_bytes, c.l3_ways)]
        {
            let set_bytes = u64::from(ways) * BLOCK_BYTES;
            let whole_sets = set_bytes > 0 && bytes > 0 && bytes.is_multiple_of(set_bytes);
            if !whole_sets || ways > MAX_CACHE_WAYS {
                return fail(&format!(
                    "{level} must have 1 to {MAX_CACHE_WAYS} ways and a capacity that is a \
                     positive multiple of ways × 64 B"
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.media.bit_flip_rate) {
            return fail("media bit-flip rate must be a probability in [0, 1]");
        }
        if self.media.scrub && !self.media.integrity {
            return fail("media scrubber requires integrity checking (CRCs detect the rot)");
        }
        if self.media.spare_blocks > (1 << 32) {
            return fail("spare pool exceeds the spare region's addressable blocks");
        }
        let d = &self.dram_fault;
        if !(0.0..=1.0).contains(&d.flip_rate) {
            return fail("DRAM single-bit flip rate must be a probability in [0, 1]");
        }
        if !(0.0..=1.0).contains(&d.poison_rate) {
            return fail("DRAM poison rate must be a probability in [0, 1]");
        }
        if d.enabled && self.media.enabled && d.seed == self.media.seed {
            return fail(
                "DRAM fault seed must differ from the NVM media seed so the fault streams stay independent",
            );
        }
        let w = &self.wpq;
        if !(0.0..=1.0).contains(&w.salvage_rate) {
            return fail("WPQ salvage rate must be a probability in [0, 1]");
        }
        if w.enabled && self.media.enabled && w.seed == self.media.seed {
            return fail(
                "WPQ seed must differ from the NVM media seed so the fault streams stay independent",
            );
        }
        if w.enabled && d.enabled && w.seed == d.seed {
            return fail(
                "WPQ seed must differ from the DRAM fault seed so the fault streams stay independent",
            );
        }
        let h = &self.health;
        if h.enabled {
            if h.window_epochs == 0 {
                return fail("health sliding window must span at least one epoch");
            }
            if h.wounded_retry_rate == 0 {
                return fail("a zero retry-rate threshold would pin the ladder at Wounded");
            }
            if h.wounded_refetch_rate == 0 {
                return fail("a zero refetch-rate threshold would pin the ladder at Wounded");
            }
            if h.readonly_scrub_backlog == 0 {
                return fail("a zero scrub-backlog threshold would pin the ladder at ReadOnly");
            }
            if h.promote_clean_epochs == 0 {
                return fail("promotion hysteresis needs at least one clean epoch");
            }
        }
        Ok(())
    }

    /// A scaled-down configuration for fast unit tests: small DRAM, small
    /// tables, and a short epoch so tests cross many epoch boundaries.
    pub fn small_test() -> Self {
        let mut cfg = Self::default();
        cfg.thynvm.dram_bytes = 64 * PAGE_BYTES;
        cfg.thynvm.btt_entries = 64;
        cfg.thynvm.ptt_entries = 64;
        cfg.thynvm.epoch_max_ms = 1;
        cfg
    }
}

/// Sanity guard: block size divides page size (used throughout the address
/// math).
const _: () = assert!(PAGE_BYTES.is_multiple_of(BLOCK_BYTES));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_2() {
        assert_eq!(DRAM_ROW_HIT_NS, 40);
        assert_eq!(DRAM_ROW_MISS_NS, 80);
        assert_eq!(NVM_ROW_HIT_NS, 40);
        assert_eq!(NVM_CLEAN_MISS_NS, 128);
        assert_eq!(NVM_DIRTY_MISS_NS, 368);
        assert_eq!(TABLE_LOOKUP_NS, 3);

        let c = CacheConfig::default();
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l1_ways, 8);
        assert_eq!(L1_HIT_CYCLES, 4);
        assert_eq!(c.l2_bytes, 256 * 1024);
        assert_eq!(L2_HIT_CYCLES, 12);
        assert_eq!(c.l3_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l3_ways, 16);
        assert_eq!(L3_HIT_CYCLES, 28);

        let n = ThyNvmConfig::default();
        assert_eq!(n.btt_entries, 2048);
        assert_eq!(n.ptt_entries, 4096);
        assert_eq!(n.dram_bytes, 16 * 1024 * 1024);
        assert_eq!(n.epoch_max_ms, 10);
        assert_eq!(n.promote_threshold, 22);
        assert_eq!(n.demote_threshold, 16);
    }

    #[test]
    fn latencies_in_cycles() {
        assert_eq!(Cycle::from_ns(DRAM_ROW_HIT_NS).raw(), 120);
        assert_eq!(Cycle::from_ns(DRAM_ROW_MISS_NS).raw(), 240);
        assert_eq!(Cycle::from_ns(NVM_ROW_HIT_NS).raw(), 120);
        assert_eq!(Cycle::from_ns(NVM_CLEAN_MISS_NS).raw(), 384);
        assert_eq!(Cycle::from_ns(NVM_DIRTY_MISS_NS).raw(), 1104);
        assert_eq!(Cycle::from_ns(TABLE_LOOKUP_NS).raw(), 9);
    }

    #[test]
    fn metadata_size_near_paper_37kb() {
        // §4.2: "total size of the BTT and PTT we use in our evaluations is
        // approximately 37KB".
        let kb = ThyNvmConfig::default().metadata_bytes() as f64 / 1024.0;
        assert!((35.0..40.0).contains(&kb), "metadata {kb:.1} KB not ≈37 KB");
    }

    #[test]
    fn epoch_length_cycles() {
        assert_eq!(ThyNvmConfig::default().epoch_max().raw(), 30_000_000);
    }

    #[test]
    fn dram_page_count() {
        assert_eq!(ThyNvmConfig::default().dram_pages(), 4096);
    }

    #[test]
    fn geometry_totals() {
        let g = DeviceGeometry::default();
        assert_eq!(g.total_banks(), 8);
        let g2 = DeviceGeometry { channels: 2 };
        assert_eq!(g2.total_banks(), 16);
    }

    #[test]
    fn small_test_config_is_smaller() {
        let s = SystemConfig::small_test();
        let p = SystemConfig::paper();
        assert!(s.thynvm.dram_bytes < p.thynvm.dram_bytes);
        assert!(s.thynvm.btt_entries < p.thynvm.btt_entries);
        assert!(s.thynvm.epoch_max() < p.thynvm.epoch_max());
    }

    #[test]
    fn paper_and_test_configs_validate() {
        SystemConfig::paper().validate().expect("paper config valid");
        SystemConfig::small_test().validate().expect("test config valid");
    }

    #[test]
    fn validation_checks_cache_geometry() {
        SystemConfig::hardened().validate().expect("hardened config valid");
        // Not a whole number of 8-way sets: the cache would silently
        // shrink to 32 KiB.
        let mut cfg = SystemConfig::paper();
        cfg.cache.l1_bytes = 32_800;
        assert!(cfg.validate().unwrap_err().to_string().contains("L1 must have"));
        // No ways at all: the cache cannot be built.
        let mut cfg = SystemConfig::paper();
        cfg.cache.l2_ways = 0;
        assert!(cfg.validate().unwrap_err().to_string().contains("L2 must have"));
        let mut cfg = SystemConfig::paper();
        cfg.cache.l3_bytes = 0;
        assert!(cfg.validate().unwrap_err().to_string().contains("L3 must have"));
        // More ways than a set has lanes, though 17 × 64 B sets divide it.
        let mut cfg = SystemConfig::paper();
        cfg.cache.l1_ways = 17;
        cfg.cache.l1_bytes = 17 * 64 * 32;
        assert!(cfg.validate().unwrap_err().to_string().contains("L1 must have 1 to 16 ways"));
        cfg.cache.l1_ways = 16;
        cfg.cache.l1_bytes = 16 * 64 * 32;
        cfg.validate().expect("16 ways fit");
    }

    #[test]
    fn validation_rejects_bad_combinations() {
        let mut cfg = SystemConfig::paper();
        cfg.thynvm.btt_entries = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper();
        cfg.thynvm.demote_threshold = 40; // above promote (22)
        assert!(cfg.validate().unwrap_err().to_string().contains("oscillation"));

        let mut cfg = SystemConfig::paper();
        cfg.thynvm.dram_bytes = 4096;
        // 4096-entry PTT cannot fit in a 1-page DRAM.
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper();
        cfg.thynvm.epoch_max_ms = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper();
        cfg.media.bit_flip_rate = 1.5;
        assert!(cfg.validate().unwrap_err().to_string().contains("probability"));

        let mut cfg = SystemConfig::paper();
        cfg.media.scrub = true; // without integrity
        assert!(cfg.validate().unwrap_err().to_string().contains("scrubber"));

        let mut cfg = SystemConfig::paper();
        cfg.media.spare_blocks = (1 << 32) + 1;
        assert!(cfg.validate().unwrap_err().to_string().contains("spare"));
    }

    /// An absurd PTT capacity fails at config time with a clear reason
    /// instead of panicking deep inside `Ptt` construction.
    #[test]
    fn validation_rejects_ptt_beyond_slot_addressing() {
        let mut cfg = SystemConfig::paper();
        // Enough DRAM that the page-capacity check passes; the slot-width
        // check must still reject the table.
        cfg.thynvm.dram_bytes = u64::MAX / 2;
        cfg.thynvm.ptt_entries = u32::MAX as usize + 1;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("slot addressing"), "err={err}");
    }

    #[test]
    fn spare_pool_defaults_and_hardened_inherit() {
        assert_eq!(MediaFaultConfig::default().spare_blocks, 4096);
        assert_eq!(MediaFaultConfig::hardened().spare_blocks, 4096);
    }

    #[test]
    fn media_faults_default_off() {
        let m = SystemConfig::paper().media;
        assert!(!m.enabled);
        assert!(!m.integrity);
        assert!(!m.scrub);
        assert_eq!(m.bit_flip_rate, 0.0);
        assert_eq!(m.stuck_at_threshold, 0);
    }

    #[test]
    fn hardened_media_preset_validates() {
        let mut cfg = SystemConfig::small_test();
        cfg.media = MediaFaultConfig::hardened();
        cfg.media.bit_flip_rate = 1e-4;
        cfg.media.stuck_at_threshold = 1000;
        cfg.validate().expect("hardened media config valid");
        assert!(cfg.media.enabled && cfg.media.integrity && cfg.media.scrub);
    }

    #[test]
    fn dram_faults_default_off() {
        let d = SystemConfig::paper().dram_fault;
        assert!(!d.enabled);
        assert_eq!(d.flip_rate, 0.0);
        assert_eq!(d.poison_rate, 0.0);
        assert_ne!(d.seed, MediaFaultConfig::default().seed);
    }

    #[test]
    fn hardened_dram_preset_validates() {
        let mut cfg = SystemConfig::small_test();
        cfg.dram_fault = DramFaultConfig::hardened();
        cfg.dram_fault.flip_rate = 1e-4;
        cfg.dram_fault.poison_rate = 1e-5;
        cfg.validate().expect("hardened DRAM config valid");
        assert!(cfg.dram_fault.enabled);
    }

    #[test]
    fn validation_rejects_bad_dram_fault_combinations() {
        let mut cfg = SystemConfig::paper();
        cfg.dram_fault.flip_rate = 1.5;
        assert!(cfg.validate().unwrap_err().to_string().contains("probability"));

        let mut cfg = SystemConfig::paper();
        cfg.dram_fault.poison_rate = -0.1;
        assert!(cfg.validate().unwrap_err().to_string().contains("probability"));

        let mut cfg = SystemConfig::paper();
        cfg.media = MediaFaultConfig::hardened();
        cfg.dram_fault = DramFaultConfig::hardened();
        cfg.dram_fault.seed = cfg.media.seed;
        assert!(cfg.validate().unwrap_err().to_string().contains("seed"));
    }

    #[test]
    fn security_defaults_off_with_distinct_seed() {
        let s = SystemConfig::paper().security;
        assert!(!s.enabled);
        assert_ne!(s.seed, MediaFaultConfig::default().seed);
        assert_ne!(s.seed, DramFaultConfig::default().seed);
    }

    #[test]
    fn hardened_composes_all_domains_and_validates() {
        let cfg = SystemConfig::hardened();
        assert!(cfg.media.enabled && cfg.media.integrity && cfg.media.scrub);
        assert!(cfg.dram_fault.enabled);
        assert!(cfg.security.enabled);
        assert!(cfg.health.enabled);
        cfg.validate().expect("hardened config valid");
        // Rates default to zero: hardened arms machinery, not faults.
        assert_eq!(cfg.media.bit_flip_rate, 0.0);
        assert_eq!(cfg.dram_fault.poison_rate, 0.0);
    }

    #[test]
    fn health_defaults_off_with_sane_thresholds() {
        let h = SystemConfig::paper().health;
        assert!(!h.enabled);
        assert_eq!(h.window_epochs, 8);
        assert_eq!(h.promote_clean_epochs, 4);
        assert_eq!(HealthConfig::hardened(), HealthConfig { enabled: true, ..HealthConfig::default() });
    }

    #[test]
    fn validation_rejects_bad_health_combinations() {
        let mut cfg = SystemConfig::paper();
        cfg.health = HealthConfig::hardened();
        cfg.health.window_epochs = 0;
        assert!(cfg.validate().unwrap_err().to_string().contains("window"));

        let mut cfg = SystemConfig::paper();
        cfg.health = HealthConfig::hardened();
        cfg.health.wounded_retry_rate = 0;
        assert!(cfg.validate().unwrap_err().to_string().contains("retry-rate"));

        let mut cfg = SystemConfig::paper();
        cfg.health = HealthConfig::hardened();
        cfg.health.wounded_refetch_rate = 0;
        assert!(cfg.validate().unwrap_err().to_string().contains("refetch-rate"));

        let mut cfg = SystemConfig::paper();
        cfg.health = HealthConfig::hardened();
        cfg.health.readonly_scrub_backlog = 0;
        assert!(cfg.validate().unwrap_err().to_string().contains("scrub-backlog"));

        let mut cfg = SystemConfig::paper();
        cfg.health = HealthConfig::hardened();
        cfg.health.promote_clean_epochs = 0;
        assert!(cfg.validate().unwrap_err().to_string().contains("hysteresis"));

        // Disabled health skips threshold validation entirely.
        let mut cfg = SystemConfig::paper();
        cfg.health.window_epochs = 0;
        cfg.validate().expect("disabled health is not validated");
    }

    #[test]
    fn validation_rejects_seed_collisions_across_all_domains() {
        // dram == media (pre-existing rule still holds under hardened()).
        let mut cfg = SystemConfig::hardened();
        cfg.dram_fault.seed = cfg.media.seed;
        assert!(cfg.validate().unwrap_err().to_string().contains("seed"));

        // A collision with a *disabled* domain is harmless.
        let mut cfg = SystemConfig::hardened();
        cfg.dram_fault.enabled = false;
        cfg.dram_fault.seed = cfg.media.seed;
        cfg.validate().expect("collision with disabled domain allowed");

        // The security seed keys the MAC and draws no fault stream, so it
        // may equal any fault seed.
        let armed = SystemConfig { wpq: PersistBufferConfig::armed(), ..SystemConfig::hardened() };
        for seed in [armed.media.seed, armed.dram_fault.seed, armed.wpq.seed] {
            let cfg = SystemConfig { security: SecurityConfig { seed, ..armed.security }, ..armed };
            cfg.validate().expect("a security seed equal to a fault seed is valid");
        }
    }

    #[test]
    fn wpq_defaults_off_with_distinct_seed() {
        let w = SystemConfig::paper().wpq;
        assert!(!w.enabled);
        assert_eq!(w.salvage_rate, 0.5);
        assert_ne!(w.seed, MediaFaultConfig::default().seed);
        assert_ne!(w.seed, DramFaultConfig::default().seed);
        assert_ne!(w.seed, SecurityConfig::default().seed);
        // Armed preset flips only the switch — and is deliberately not part
        // of hardened(): fence stalls change cycle counts.
        assert_eq!(PersistBufferConfig::armed(), PersistBufferConfig {
            enabled: true,
            ..PersistBufferConfig::default()
        });
        assert!(!SystemConfig::hardened().wpq.enabled);
    }

    #[test]
    fn validation_rejects_bad_wpq_combinations() {
        let mut cfg = SystemConfig::paper();
        cfg.wpq.salvage_rate = 1.5;
        assert!(cfg.validate().unwrap_err().to_string().contains("probability"));

        // Seed collisions with each enabled sibling domain.
        let mut cfg = SystemConfig::hardened();
        cfg.wpq = PersistBufferConfig::armed();
        cfg.wpq.seed = cfg.media.seed;
        assert!(cfg.validate().unwrap_err().to_string().contains("seed"));

        let mut cfg = SystemConfig::hardened();
        cfg.wpq = PersistBufferConfig::armed();
        cfg.wpq.seed = cfg.dram_fault.seed;
        assert!(cfg.validate().unwrap_err().to_string().contains("seed"));
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<SystemConfig>();
        let cfg = SystemConfig::paper();
        assert_eq!(cfg, cfg.clone());
    }
}
