//! Binary trace serialization.
//!
//! Workload traces are expensive to generate (KV stores replay millions of
//! structure operations) and sharing them is how simulation results are
//! made reproducible across machines. This module defines a compact binary
//! format — a 16-byte header plus one 20-byte record per event — with
//! writers/readers over any `std::io` stream. Reader functions accept `R:
//! Read` by value, so `&mut file` works for multi-section files.
//!
//! Format (all little-endian):
//!
//! ```text
//! header:  magic "THYT" | version u32 | event count u64
//! record:  addr u64 | gap u32 | bytes u32 | kind u8 | pad [u8; 3]
//! ```

use std::io::{self, Read, Write};

use thynvm_types::{AccessKind, MemRequest, PhysAddr, TraceEvent, BLOCK_BYTES};

/// File magic: "THYT" (ThyNVM Trace).
pub const MAGIC: [u8; 4] = *b"THYT";
/// Current format version.
pub const VERSION: u32 = 1;
/// Bytes per serialized event record.
pub const RECORD_BYTES: usize = 20;

/// Writes `events` to `w` in the trace format. Returns the number of
/// events written.
///
/// # Errors
///
/// Propagates any I/O error from the underlying writer.
///
/// # Example
///
/// ```
/// use thynvm_workloads::tracefile::{read_trace, write_trace};
/// use thynvm_workloads::micro::{MicroConfig, MicroPattern};
///
/// # fn main() -> std::io::Result<()> {
/// let events: Vec<_> = MicroConfig::new(MicroPattern::Random).events(100).collect();
/// let mut buf = Vec::new();
/// write_trace(&mut buf, events.iter().copied())?;
/// assert_eq!(read_trace(&buf[..])?, events);
/// # Ok(())
/// # }
/// ```
pub fn write_trace<W, I>(mut w: W, events: I) -> io::Result<u64>
where
    W: Write,
    I: IntoIterator<Item = TraceEvent>,
{
    // Buffer records so the count can be written up front.
    let mut body = Vec::new();
    let mut count = 0u64;
    for e in events {
        body.extend_from_slice(&e.req.addr.raw().to_le_bytes());
        body.extend_from_slice(&e.gap.to_le_bytes());
        body.extend_from_slice(&e.req.bytes.to_le_bytes());
        body.push(if e.req.kind.is_write() { 1 } else { 0 });
        body.extend_from_slice(&[0u8; 3]);
        count += 1;
    }
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&count.to_le_bytes())?;
    w.write_all(&body)?;
    Ok(count)
}

/// Reads a complete trace from `r`.
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic, unsupported version, malformed
/// record (a zero-byte access, or one whose last block ends past the top
/// of the address space), or truncated stream; propagates underlying I/O
/// errors.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<Vec<TraceEvent>> {
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    if header[..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a ThyNVM trace (bad magic)"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    let count = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let mut events = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
    let mut record = [0u8; RECORD_BYTES];
    for i in 0..count {
        r.read_exact(&mut record).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("truncated at record {i}: {e}"))
        })?;
        let addr = u64::from_le_bytes(record[0..8].try_into().expect("8 bytes"));
        let gap = u32::from_le_bytes(record[8..12].try_into().expect("4 bytes"));
        let bytes = u32::from_le_bytes(record[12..16].try_into().expect("4 bytes"));
        let kind = match record[16] {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("record {i}: invalid access kind {other}"),
                ))
            }
        };
        if bytes == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("record {i}: zero-byte access"),
            ));
        }
        // The block-rounded end must fit in a u64, or the blocks it
        // touches cannot be counted.
        if addr.checked_add(u64::from(bytes) + BLOCK_BYTES - 1).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("record {i}: access of {bytes} B at {addr:#x} runs past the address space"),
            ));
        }
        events.push(TraceEvent::new(gap, MemRequest::new(PhysAddr::new(addr), kind, bytes)));
    }
    Ok(events)
}

/// Saves a trace to `path`.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save<P, I>(path: P, events: I) -> io::Result<u64>
where
    P: AsRef<std::path::Path>,
    I: IntoIterator<Item = TraceEvent>,
{
    let file = std::fs::File::create(path)?;
    write_trace(io::BufWriter::new(file), events)
}

/// Loads a trace from `path`.
///
/// # Errors
///
/// Propagates file-open and format errors.
pub fn load<P: AsRef<std::path::Path>>(path: P) -> io::Result<Vec<TraceEvent>> {
    let file = std::fs::File::open(path)?;
    read_trace(io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{MicroConfig, MicroPattern};

    #[test]
    fn roundtrip_preserves_every_field() {
        let events: Vec<_> =
            MicroConfig::new(MicroPattern::Sliding).events(1_000).collect();
        let mut buf = Vec::new();
        let n = write_trace(&mut buf, events.iter().copied()).unwrap();
        assert_eq!(n, 1_000);
        assert_eq!(buf.len(), 16 + 1_000 * RECORD_BYTES);
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, std::iter::empty()).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), Vec::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00".to_vec();
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn truncated_body_rejected() {
        let events: Vec<_> = MicroConfig::new(MicroPattern::Random).events(10).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn corrupt_kind_rejected() {
        let events: Vec<_> = MicroConfig::new(MicroPattern::Random).events(1).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        buf[16 + 16] = 7; // kind byte of record 0
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("invalid access kind"));
    }

    #[test]
    fn zero_byte_record_rejected() {
        let events: Vec<_> = MicroConfig::new(MicroPattern::Random).events(1).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        for b in &mut buf[16 + 12..16 + 16] {
            *b = 0; // bytes field of record 0
        }
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn access_past_the_address_space_rejected() {
        let trace = |addr: u64, bytes: u32| {
            let mut buf = Vec::new();
            let req = MemRequest::new(PhysAddr::new(addr), AccessKind::Write, bytes);
            write_trace(&mut buf, [TraceEvent::new(1, req)]).unwrap();
            read_trace(&buf[..])
        };
        let err = trace(u64::MAX - 8, 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("past the address space"), "{err}");
        // Within the last block: its end, 2^64, does not fit either.
        assert!(trace(u64::MAX - 63, 1).is_err());
        // The block below it ends at 2^64 - 64, just under u64::MAX.
        let events = trace(u64::MAX - 127, 64).unwrap();
        let blocks: Vec<_> = events[0].req.blocks_touched().collect();
        assert_eq!(blocks, vec![PhysAddr::new(u64::MAX - 127)]);
    }

    #[test]
    fn file_save_and_load() {
        let dir = std::env::temp_dir().join("thynvm-tracefile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.thyt");
        let events: Vec<_> = MicroConfig::new(MicroPattern::Streaming).events(500).collect();
        save(&path, events.iter().copied()).unwrap();
        assert_eq!(load(&path).unwrap(), events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_accepts_mut_reference() {
        // C-RW-VALUE: `&mut R` works where `R: Read` is taken by value.
        let events: Vec<_> = MicroConfig::new(MicroPattern::Random).events(3).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, events.iter().copied()).unwrap();
        let mut cursor = std::io::Cursor::new(&buf);
        assert_eq!(read_trace(&mut cursor).unwrap(), events);
    }
}
