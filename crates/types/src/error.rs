//! Error handling for the ThyNVM workspace.

use std::fmt;

use crate::addr::PhysAddr;
use crate::stats::{FaultKind, HealthRung};

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the simulator crates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// An access fell outside the configured physical address space.
    AddressOutOfRange {
        /// The offending address.
        addr: PhysAddr,
        /// Size of the configured physical address space in bytes.
        limit: u64,
    },
    /// A translation table (BTT or PTT) has no free or reclaimable entry and
    /// the controller could not recover by starting a new epoch.
    TableFull {
        /// Which table overflowed ("BTT" or "PTT").
        table: &'static str,
    },
    /// Recovery was attempted but no completed checkpoint exists.
    NoCheckpoint,
    /// A configuration value is invalid.
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A read returned data that failed its integrity check: the media
    /// corrupted it.
    MediaCorruption {
        /// Physical address of the corrupted data.
        addr: PhysAddr,
        /// What kind of media fault corrupted it.
        kind: FaultKind,
    },
    /// Bounded read retries were exhausted without obtaining data that
    /// passes its integrity check (the location is permanently bad).
    RetriesExhausted {
        /// Physical address of the unreadable data.
        addr: PhysAddr,
        /// How many retries were attempted before giving up.
        attempts: u32,
    },
    /// A bad block needed remapping but every spare block is already in
    /// use. The block is still served — each read pays bounded CRC retries
    /// — but the device can no longer heal itself.
    SpareExhausted {
        /// Physical address of the block that could not be remapped.
        addr: PhysAddr,
    },
    /// Integrity verification failed on *both* checkpoint images: neither
    /// `C_last` nor `C_penult` authenticates against its stored MAC (or
    /// `C_last` failed verification after a rollback left no `C_penult`),
    /// so no trusted state exists to replay. Recovery refuses to deliver
    /// unauthenticated data and resets to the empty (provably
    /// uncorrupted) image instead.
    IntegrityUnrecoverable {
        /// Epoch of the newest (rejected) checkpoint.
        epoch: u64,
    },
    /// The health ladder degraded the controller to a rung that rejects
    /// new stores (`ReadOnly` or `FailSafe`): durability of fresh data can
    /// no longer be guaranteed, so the store was refused instead of
    /// silently accepted. Loads are still served (CRC/MAC-verified).
    Degraded {
        /// The ladder rung the controller is currently at.
        rung: HealthRung,
    },
    /// A commit-record persist was issued while the volatile persist
    /// buffer still held non-commit entries: the §4.4 ordering fence was
    /// skipped, so a crash could make the commit record durable before the
    /// data it commits. Caught by the controller's ordering audit and
    /// journaled as an error event rather than silently tolerated.
    UnfencedCommit {
        /// Physical address of the commit record.
        addr: PhysAddr,
        /// Non-commit entries still pending in the buffer at the persist.
        pending: usize,
    },
    /// An uncorrectable DRAM error poisoned dirty working data: the
    /// affected range was quarantined — its writes were dropped and the
    /// contents rolled back to the last checkpoint — instead of letting the
    /// poison reach NVM and become durable corruption.
    DramPoisonLost {
        /// Physical base address of the quarantined range.
        addr: PhysAddr,
        /// Bytes rolled back to their checkpointed contents.
        bytes: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::AddressOutOfRange { addr, limit } => {
                write!(f, "address {addr} outside physical space of {limit} bytes")
            }
            Error::TableFull { table } => write!(f, "{table} has no reclaimable entry"),
            Error::NoCheckpoint => f.write_str("no completed checkpoint to recover from"),
            Error::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            Error::MediaCorruption { addr, kind } => {
                write!(f, "media corruption ({kind}) at {addr}")
            }
            Error::RetriesExhausted { addr, attempts } => {
                write!(f, "read retries exhausted at {addr} after {attempts} attempts")
            }
            Error::SpareExhausted { addr } => {
                write!(f, "no spare block left to remap bad block at {addr}")
            }
            Error::IntegrityUnrecoverable { epoch } => {
                write!(
                    f,
                    "integrity verification failed on both checkpoint images at epoch {epoch}: no authenticated state to recover"
                )
            }
            Error::Degraded { rung } => {
                write!(f, "controller degraded to {rung}: new stores are rejected")
            }
            Error::UnfencedCommit { addr, pending } => {
                write!(
                    f,
                    "commit record at {addr} persisted with {pending} unfenced entries still pending in the persist buffer"
                )
            }
            Error::DramPoisonLost { addr, bytes } => {
                write!(
                    f,
                    "uncorrectable DRAM error: {bytes} dirty bytes at {addr} quarantined and rolled back to the last checkpoint"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = Error::AddressOutOfRange { addr: PhysAddr::new(0x1000), limit: 64 };
        assert!(e.to_string().contains("0x1000"));
        assert!(e.to_string().contains("64"));
        let e = Error::TableFull { table: "BTT" };
        assert!(e.to_string().contains("BTT"));
        assert!(!Error::NoCheckpoint.to_string().is_empty());
        let e = Error::InvalidConfig { reason: "dram too small".into() };
        assert!(e.to_string().contains("dram too small"));
        let e = Error::MediaCorruption { addr: PhysAddr::new(0x40), kind: FaultKind::StuckAt };
        assert!(e.to_string().contains("stuck-at"));
        assert!(e.to_string().contains("0x40"));
        let e = Error::RetriesExhausted { addr: PhysAddr::new(0x80), attempts: 3 };
        assert!(e.to_string().contains("3 attempts"));
        assert!(e.to_string().contains("0x80"));
        let e = Error::SpareExhausted { addr: PhysAddr::new(0xc0) };
        assert!(e.to_string().contains("no spare block"));
        assert!(e.to_string().contains("0xc0"));
        let e = Error::IntegrityUnrecoverable { epoch: 9 };
        assert!(e.to_string().contains("both checkpoint images"));
        assert!(e.to_string().contains("epoch 9"));
        let e = Error::Degraded { rung: HealthRung::ReadOnly };
        assert!(e.to_string().contains("read-only"));
        assert!(e.to_string().contains("stores are rejected"));
        let e = Error::UnfencedCommit { addr: PhysAddr::new(0x0), pending: 7 };
        assert!(e.to_string().contains("unfenced"));
        assert!(e.to_string().contains("7"));
        let e = Error::DramPoisonLost { addr: PhysAddr::new(0x2000), bytes: 4096 };
        assert!(e.to_string().contains("quarantined"));
        assert!(e.to_string().contains("0x2000"));
        assert!(e.to_string().contains("4096"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<Error>();
    }
}
