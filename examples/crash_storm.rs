//! Crash-storm walkthrough: power fails *during recovery*, repeatedly, and
//! every restarted recovery converges to the same image.
//!
//! Recovery in this model is not an instantaneous function — it is a
//! cycle-accounted sequence of steps (read the commit record, verify
//! `C_last`'s CRCs, fall back to `C_penult` if voided, replay the BTT/PTT
//! metadata, re-arm the DRAM working set), each paying modeled NVM latency.
//! That makes recovery itself crashable: this demo arms a first crash point
//! and then *queues* additional points that land mid-recovery, so each
//! recovery attempt is torn down partway and restarted from the persisted
//! commit record.
//!
//! The printed table shows, per nested-crash depth, the interrupted steps,
//! the number of attempts, and the total recovery latency — and checks the
//! final image is byte-identical (by content fingerprint) to what a single
//! uninterrupted recovery produces. A second section arms a torn commit
//! record so the storm hits the integrity-fallback path: every retry still
//! lands on `C_penult`, never compounding the fallback.
//!
//! Run with `cargo run --release --example crash_storm`.

use thynvm::core::{EventKind, InjectedCrash, MediaFault, ThyNvm};
use thynvm::types::{Cycle, MediaFaultConfig, MemorySystem, PhysAddr, SystemConfig};

const PAGE: u64 = 4096;

/// Builds a system with two completed checkpoints (values 1 then 2 at the
/// probe address) plus uncheckpointed `W_active` writes (value 3).
fn build(media: bool) -> (ThyNvm, Cycle) {
    let mut cfg = SystemConfig::small_test();
    if media {
        cfg.media = MediaFaultConfig::hardened();
        cfg.validate().expect("valid config");
    }
    let mut sys = ThyNvm::new(cfg);
    let mut now = Cycle::ZERO;
    for (epoch, fill) in [(0u64, 1u8), (1, 2)] {
        for page in 0..4u64 {
            for blk in 0..8u64 {
                let t = sys.store_bytes(
                    PhysAddr::new(page * PAGE + blk * 64),
                    &[fill + (epoch * page) as u8; 64],
                    now,
                );
                now = now.max(t);
            }
        }
        now = now.max(sys.force_checkpoint(now));
        now = sys.drain(now);
    }
    // W_active: must never survive any crash, however deep the storm.
    now = now.max(sys.store_bytes(PhysAddr::new(0), &[3u8; 64], now));
    (sys, now)
}

/// Crashes at `at` with nested points queued at `points`; returns the
/// crash's journal record and the settled system.
fn storm(
    media: bool,
    fault: Option<MediaFault>,
    at: Cycle,
    points: &[Cycle],
) -> (InjectedCrash, ThyNvm) {
    let (mut sys, _) = build(media);
    if let Some(f) = fault {
        sys.inject_media_fault(f);
    }
    sys.arm_crash_point(at);
    for &p in points {
        sys.queue_crash_point(p);
    }
    sys.poll_crash(at + Cycle::new(1)).expect("crash fires");
    let crash = sys
        .take_events()
        .into_iter()
        .find_map(|e| if let EventKind::Crash(c) = e.kind { Some(c) } else { None })
        .expect("the fired crash is journaled");
    (crash, sys)
}

fn main() {
    // ---- Section 1: clean crash, increasing storm depth -----------------
    let (_, t) = build(false);
    println!("== nested crash storm: clean C_last, crash at cycle {t} ==\n");

    // Probe: a single uninterrupted recovery learns the step boundaries
    // and the reference image.
    let (probe_crash, probe) = storm(false, None, t, &[]);
    let reference = probe.visible_fingerprint();
    let steps = probe_crash.report.steps;
    println!("recovery steps of the uninterrupted probe:");
    for (step, end) in &steps {
        println!("  {step:<20} completes at cycle {end}");
    }

    println!("\n{:<6} {:>9} {:>8} {:>13} {:>10}", "depth", "attempts", "nested", "recovery µs", "identical");
    for depth in 0..=4usize {
        let points: Vec<Cycle> = (0..depth)
            .map(|i| steps[i % steps.len()].1.saturating_sub(Cycle::new(1)))
            .collect();
        let (crash, sys) = storm(false, None, t, &points);
        let report = crash.report;
        println!(
            "{:<6} {:>9} {:>8} {:>13.3} {:>10}",
            depth,
            report.attempts,
            report.nested_crashes,
            report.recovery_cycles.as_ns() / 1e3,
            if sys.visible_fingerprint() == reference { "yes" } else { "NO" },
        );
        assert_eq!(sys.visible_fingerprint(), reference, "storm diverged at depth {depth}");
    }

    // ---- Section 2: crash during the integrity fallback -----------------
    let (_, tm) = build(true);
    println!("\n== storm over a torn commit record (integrity fallback) ==\n");
    let (probe_crash, probe) = storm(true, Some(MediaFault::TornCommitRecord), tm, &[]);
    let reference = probe.visible_fingerprint();
    let steps = probe_crash.report.steps;
    let points: Vec<Cycle> =
        steps.iter().map(|&(_, end)| end.saturating_sub(Cycle::new(1))).collect();
    let (crash, sys) = storm(true, Some(MediaFault::TornCommitRecord), tm, &points);
    let report = crash.report;
    let m = sys.stats().media;
    println!("fallback applied: {}", report.integrity_fallback);
    println!("attempts: {}   nested crashes: {}", report.attempts, report.nested_crashes);
    println!("WAL seals: {}   WAL redos (torn, redone): {}", m.wal_seals, m.wal_redos);
    println!("image identical to single-crash fallback: {}", sys.visible_fingerprint() == reference);
    assert_eq!(sys.visible_fingerprint(), reference);
    assert!(report.integrity_fallback, "storm must still land on C_penult");

    let mut buf = [0u8; 1];
    let mut probe = probe;
    probe.load_bytes(PhysAddr::new(0), &mut buf, tm + report.recovery_cycles);
    println!("probe byte at 0 after fallback: {} (C_penult's value, W_active's 3 is gone)", buf[0]);
}
