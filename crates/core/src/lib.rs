//! ThyNVM: software-transparent crash consistency for hybrid DRAM+NVM
//! persistent memory.
//!
//! This crate implements the paper's primary contribution — the memory
//! controller of *ThyNVM: Enabling Software-Transparent Crash Consistency in
//! Persistent Memory Systems* (MICRO-48, 2015) — on top of the device
//! substrate in [`thynvm_mem`].
//!
//! # What ThyNVM does
//!
//! ThyNVM periodically checkpoints all memory state in hardware, so that
//! *unmodified* applications get crash consistency with no transactional
//! API, no persistent-object annotations, and no logging library. Its key
//! mechanism is **dual-scheme checkpointing** (§3):
//!
//! * **block remapping** — sparse, low-locality writes go straight to NVM at
//!   a remapped address recorded in the Block Translation Table ([`Btt`]).
//!   Checkpointing them persists only metadata, so it is nearly free.
//! * **page writeback** — dense, high-locality pages are cached in DRAM and
//!   written back to an alternate NVM checkpoint region during the
//!   checkpointing phase, recorded in the Page Translation Table ([`Ptt`]).
//!
//! Epochs **overlap**: epoch *N+1* executes while epoch *N* checkpoints
//! (Figure 3b), maintaining three data versions — the active working copy
//! `W_active`, the last checkpoint `C_last` and the penultimate checkpoint
//! `C_penult`. Recovery rolls back to `C_last` if its checkpoint completed,
//! else to `C_penult` (§4.5).
//!
//! # Crate layout
//!
//! * [`layout`] — the hardware address space of Figure 4 (Home Region /
//!   Checkpoint Regions A & B / Working Data Region / Backup Region).
//! * [`table`] — the BTT and PTT of Figure 5.
//! * [`epoch`] — the epoch state machine and in-flight checkpoint jobs.
//! * [`controller`] — [`ThyNvm`], the memory controller itself: the store
//!   path of Figure 6(a), the checkpointing order of Figure 6(b),
//!   inter-scheme migration (§3.4), crash injection and recovery (§4.5).
//!
//! # Quick start
//!
//! ```
//! use thynvm_core::ThyNvm;
//! use thynvm_types::{Cycle, MemorySystem, MemRequest, PhysAddr, SystemConfig};
//!
//! let mut sys = ThyNvm::new(SystemConfig::small_test());
//! // Write some persistent data…
//! sys.store_bytes(PhysAddr::new(0x1000), b"durable", Cycle::ZERO);
//! // …checkpoint it (normally the platform does this on epoch boundaries)…
//! let t = sys.force_checkpoint(Cycle::new(1_000));
//! let t = sys.drain(t);
//! // …crash! Recovery restores the checkpointed value.
//! let _ = sys.crash_and_recover(t);
//! let mut buf = [0u8; 7];
//! sys.load_bytes(PhysAddr::new(0x1000), &mut buf, t);
//! assert_eq!(&buf, b"durable");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod epoch;
pub mod health;
pub mod layout;
pub mod oracle;
pub mod protocol;
pub mod table;

pub use controller::{
    Event, EventKind, InjectedCrash, MediaFault, RecoveryReport, TamperFault, ThyNvm,
};
pub use health::{HealthMonitor, HealthSignals};
pub use oracle::{Expectation, OracleMismatch, PersistenceOracle, Scenario};
pub use protocol::{Event as ProtocolEvent, ProtocolError, VersionState};
pub use epoch::{CkptJob, EpochState};
pub use layout::{AddressSpace, Region, PHYS_LIMIT};
pub use table::{Btt, BttEntry, Ptt, PttEntry, WactiveLoc};
