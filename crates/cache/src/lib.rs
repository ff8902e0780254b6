//! CPU cache hierarchy and in-order core timing model.
//!
//! Rebuilds the processor-side substrate of the paper's gem5 setup
//! (Table 2): a 3 GHz in-order core with a three-level writeback cache
//! hierarchy (32 KB L1, 256 KB L2, 2 MB L3; 64 B blocks; 4/12/28-cycle
//! hits).
//!
//! * [`cache::SetAssocCache`] — one set-associative LRU writeback cache
//!   of up to 16 ways. Each set keeps 16 lanes per field: the tags' low
//!   32 bits, their high halves (read only for the ways a `wide` mask
//!   marks), per-way recency ranks and a dirty mask. One lookup compares
//!   the set's low halves in a few vector instructions and finds the hit
//!   way, or else the way a fill takes (the first empty way, else the LRU
//!   one) with one byte compare of the ranks.
//! * [`hierarchy::CacheHierarchy`] — the three-level chain. A lookup
//!   returns the hit latency and the memory operations (fetch, writebacks)
//!   that must be sent to main memory. It scans each level's set once: a
//!   level that misses keeps its fill way, and the block is installed
//!   there without a second scan.
//! * [`core::CoreModel`] — an in-order core that executes a memory trace,
//!   stalling on memory, and reports instructions-per-cycle (Figure 11).
//! * [`multicore::MulticorePlatform`] — in-order cores with private L1/L2
//!   and a shared L3 in front of one memory system; each access takes the
//!   hierarchy's scan-once walk over the core's levels and the shared L3.
//!
//! The hierarchy also implements the hardware data flush of §4.4: cleaning
//! all dirty blocks *without invalidating them* (like Intel `CLWB`), used at
//! every checkpoint to make CPU-cached state reach the memory controller.
//!
//! # Example
//!
//! ```
//! use thynvm_cache::CacheHierarchy;
//! use thynvm_types::{AccessKind, PhysAddr, SystemConfig};
//!
//! let mut h = CacheHierarchy::new(SystemConfig::paper().cache);
//! let out = h.access(PhysAddr::new(0x80), AccessKind::Read);
//! assert!(out.fetch.is_some()); // cold miss goes to memory
//! let out = h.access(PhysAddr::new(0x80), AccessKind::Read);
//! assert!(out.fetch.is_none()); // now it hits
//! assert_eq!(out.latency_cycles, 4); // L1 hit
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod core;
pub mod hierarchy;
pub mod multicore;
#[cfg(test)]
mod reference;

pub use crate::core::{CoreModel, CoreStats};
pub use multicore::{CoreResult, MulticorePlatform};
pub use cache::{Eviction, SetAssocCache};
pub use hierarchy::{CacheHierarchy, HierarchyOutcome};
