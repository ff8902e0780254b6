//! Cycle-accounting DRAM and NVM device models for the ThyNVM simulator.
//!
//! The paper evaluates ThyNVM on gem5 with DDR3-interfaced DRAM and NVM
//! (Table 2). This crate rebuilds the relevant part of that substrate from
//! scratch:
//!
//! * [`device::Device`] — a banked memory device with per-bank row buffers
//!   and busy times. Row-buffer hits, clean misses and (for NVM) dirty
//!   misses pay the paper's latencies; bank conflicts serialize.
//! * [`queue::WriteQueue`] — a bounded memory-controller write queue. Writes
//!   retire in the background; a full queue back-pressures the issuer. The
//!   NVM write queue is flushed at the end of every checkpoint (§4.4).
//! * [`store::SparseStore`] — a byte-accurate backing store so that crash
//!   and recovery tests can verify *contents*, not just timing.
//! * [`fault::FaultModel`] — a deterministic, seedable NVM media-fault
//!   model (transient bit flips, wear-induced stuck-at cells, torn
//!   multi-word writes) that corrupts reads from the device/store so the
//!   controller's integrity protection can be exercised.
//! * [`fault::DramEccModel`] — a deterministic, seedable SEC-DED ECC model
//!   for the DRAM working region: single-bit transients are corrected and
//!   counted, multi-bit errors poison 64 B blocks that the controller must
//!   quarantine before they can reach NVM.
//! * [`wpq::PersistBuffer`] — the volatile persist buffer's *fault
//!   domain*: a bounded, banked, content-carrying WPQ whose entries drain
//!   out of order across banks (in order within a 64 B line), with a §4.4
//!   `fence` primitive and a seeded crash-time partial-flush model that
//!   salvages a retire-consistent prefix of each bank's pending writes.
//! * [`fault::SecurityModel`] — the secure persistent memory mode's
//!   crash-consistency state: per-block counter-mode encryption counters
//!   with epoch-boundary persistence, an integrity tree over the counter
//!   table, and hooks that inject a torn root or a rolled-back table.
//!
//! # Example
//!
//! ```
//! use thynvm_mem::{Device, DeviceKind};
//! use thynvm_types::{AccessKind, Cycle, HwAddr, SystemConfig};
//!
//! let cfg = SystemConfig::paper();
//! let mut nvm = Device::new(DeviceKind::Nvm, cfg.nvm_geometry);
//! // First touch opens the row: clean miss, 128 ns = 384 cycles.
//! let t1 = nvm.access(HwAddr::new(0), AccessKind::Read, 64, Cycle::ZERO);
//! assert_eq!(t1, Cycle::new(384));
//! // Same row again: a row hit that starts once the first access's
//! // activation + burst (93 ns) release the bank.
//! let t2 = nvm.access(HwAddr::new(64), AccessKind::Read, 64, Cycle::ZERO);
//! assert_eq!(t2, Cycle::from_ns(93 + 40));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod fault;
pub mod queue;
pub mod store;
pub mod wpq;

pub use device::{BlockRun, Device, DeviceKind, DeviceStats, WearStats};
pub use fault::{DramEccModel, EccReadFault, FaultEvent, FaultModel, SecurityModel, SecurityPersist};
pub use queue::WriteQueue;
pub use store::SparseStore;
pub use wpq::{PersistBuffer, WpqCrashReport, WpqKind};
