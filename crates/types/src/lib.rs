//! Common foundation types for the ThyNVM persistent-memory simulator.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`addr`] — strongly-typed physical/hardware addresses and block/page
//!   indices (64 B cache blocks, 4 KiB pages).
//! * [`cycle`] — the simulated clock ([`Cycle`]) and nanosecond conversion at
//!   the paper's 3 GHz core frequency.
//! * [`req`] — memory requests as seen by a memory controller.
//! * [`config`] — the system of Table 2 of the paper: its fixed latencies
//!   as constants, and a configuration of the sizes, epoch length,
//!   scheme-switch thresholds and fault domains that experiments vary.
//! * [`stats`] — statistics counters every memory system reports, including
//!   the NVM write-traffic breakdown of Figure 8 (CPU / checkpoint /
//!   migration).
//! * [`system`] — the [`MemorySystem`] trait implemented by ThyNVM and all
//!   baselines.
//! * [`error`] — the crate-wide error type.
//!
//! # Example
//!
//! ```
//! use thynvm_types::{PhysAddr, BLOCK_BYTES, PAGE_BYTES};
//!
//! let a = PhysAddr::new(0x1234);
//! assert_eq!(a.block().byte_offset(), 0x1200); // 64 B-aligned
//! assert_eq!(a.page().byte_offset(), 0x1000);  // 4 KiB-aligned
//! assert_eq!(BLOCK_BYTES * 64, PAGE_BYTES);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod config;
pub mod cycle;
pub mod error;
pub mod fxmap;
pub mod hist;
pub mod req;
pub mod retry;
pub mod rng;
pub mod stats;
pub mod system;

pub use addr::{BlockIndex, HwAddr, PageIndex, PhysAddr, BLOCK_BYTES, BLOCKS_PER_PAGE, PAGE_BYTES};
pub use config::{
    CacheConfig, CkptMode, DeviceGeometry, DramFaultConfig, HealthConfig, MediaFaultConfig,
    PersistBufferConfig, SecurityConfig, SystemConfig, ThyNvmConfig, WorkingRegion,
    BANKS_PER_CHANNEL, CPU_FREQ_GHZ, CRYPTO_NS_PER_BLOCK, DRAM_ROW_HIT_NS, DRAM_ROW_MISS_NS,
    L1_HIT_CYCLES, L2_HIT_CYCLES, L3_HIT_CYCLES, MAX_CACHE_WAYS, NVM_CLEAN_MISS_NS, NVM_DIRTY_MISS_NS,
    NVM_ROW_HIT_NS, ROW_BYTES, TABLE_LOOKUP_NS,
};
pub use cycle::Cycle;
pub use error::{Error, Result};
pub use fxmap::{FxHashMap, FxHashSet, FxHasher};
pub use hist::Histogram;
pub use req::{AccessKind, MemRequest, TraceEvent};
pub use retry::RetryPolicy;
pub use stats::{
    CkptPhase, CrashEvent, DramStats, FaultKind, HealthRung, HealthStats, MediaStats, MemStats,
    NvmWriteClass, PerfStats, RecoveryOutcome, RecoveryStep, SecurityStats, WpqStats,
};
pub use system::{MemorySystem, PersistentMemory};
