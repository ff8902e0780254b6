//! The §6 extensions: explicit persistence barriers, a configurable
//! durability window, and bug-tolerance rollback to archived checkpoints.
//!
//! Run with `cargo run --release --example persistence_control`.

use thynvm::core::ThyNvm;
use thynvm::types::{Cycle, MemorySystem, PhysAddr, SystemConfig};

fn read_u8(sys: &mut ThyNvm, addr: u64, now: Cycle) -> u8 {
    let mut buf = [0u8; 1];
    sys.load_bytes(PhysAddr::new(addr), &mut buf, now);
    buf[0]
}

fn main() {
    let mut sys = ThyNvm::new(SystemConfig::paper());

    // --- Explicit persistence barrier (a new ISA instruction per §6) ---
    let t = sys.store_bytes(PhysAddr::new(0), &[7], Cycle::ZERO);
    let t = sys.force_checkpoint(t); // everything before this is captured
    let t = sys.drain(t);
    let t2 = sys.store_bytes(PhysAddr::new(0), &[9], t); // after the barrier
    let _ = sys.crash_and_recover(t2);
    println!("after barrier + crash: value = {} (expected 7)", read_u8(&mut sys, 0, t2));
    assert_eq!(read_u8(&mut sys, 0, t2), 7);

    // --- Configurable durability window ---
    sys.set_persistence_interval_ms(2);
    println!("durability window set to 2 ms: at most 2 ms of updates can be lost");

    // --- Bug-tolerance archive: roll back past a corrupting "bug" ---
    let mut sys = ThyNvm::new(SystemConfig::paper());
    sys.set_archive_depth(8);
    let mut t = Cycle::ZERO;
    for version in 1u8..=3 {
        t = sys.store_bytes(PhysAddr::new(64), &[version], t);
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        println!("checkpoint taken with value {version}");
    }
    // "version 3" turns out to be a software bug's corruption; recover to
    // the first archived checkpoint.
    let archive = sys.archived_checkpoints();
    println!("archive holds checkpoints {archive:?}");
    let _ = sys.rollback_to_checkpoint(archive[0], t).expect("archived");
    let v = read_u8(&mut sys, 64, t);
    println!("after rollback to checkpoint {}: value = {v} (expected 1)", archive[0]);
    assert_eq!(v, 1);
    println!("bug-tolerance rollback works — the §6 future-work extension, implemented.");
}
