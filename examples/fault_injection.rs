//! Fault-injection walkthrough: crash the controller at chosen cycles and
//! validate every recovery against the persistence oracle.
//!
//! A deterministic workload (a counter array updated across several epochs)
//! first runs fault-free to learn the checkpoint timeline and build a
//! [`PersistenceOracle`] — the pure three-version model of §3.2/§4.5:
//! `W_active` is lost, `C_last` wins iff its commit record persisted by the
//! crash, else recovery falls back to `C_penult`. The demo then replays the
//! workload with a crash point armed at a spread of cycles across one
//! complete checkpoint — execution, block drain, BTT persist, page
//! writebacks, finalize — and prints, for each injected crash, where it
//! landed and whether the recovered image is byte-identical to the oracle's
//! prediction.
//!
//! A second section arms *media* faults — a torn commit record, a `C_last`
//! bit flip, corrupted PTT metadata — and shows the self-healing recovery
//! path: integrity verification rejects `C_last` and restores `C_penult`,
//! exactly as the oracle predicts for a [`Scenario`] carrying that fault.
//!
//! A third section arms *DRAM* faults against the working copies: a
//! corrected single-bit flip (counted, harmless), poison under clean data
//! (healed transparently by re-fetching the NVM checkpoint copy) and
//! poison under dirty data (the page is quarantined — dirty bytes roll
//! back to the last checkpoint and the loss is surfaced, never silently
//! persisted).
//!
//! Run with `cargo run --release --example fault_injection`.

use thynvm::core::{EventKind, InjectedCrash, MediaFault, PersistenceOracle, Scenario, ThyNvm};
use thynvm::types::{
    Cycle, DramFaultConfig, Error, MediaFaultConfig, MemorySystem, PhysAddr, RecoveryOutcome,
    SystemConfig,
};

const PAGE: u64 = 4096;
const EPOCHS: u64 = 4;

/// One program step: a write or an epoch boundary.
enum Op {
    Write { addr: u64, data: Vec<u8> },
    Checkpoint,
}

/// The fixed workload: hot counters rewritten every epoch (page-writeback
/// scheme) plus a scatter of cold single blocks (block-remapping scheme).
fn workload() -> Vec<Op> {
    let mut ops = Vec::new();
    for epoch in 0..EPOCHS {
        for rep in 0..4u64 {
            for slot in 0..16u64 {
                let value = epoch * 1_000 + rep * 100 + slot;
                ops.push(Op::Write {
                    addr: (slot % 2) * PAGE + (slot / 2) * 64,
                    data: value.to_le_bytes().to_vec(),
                });
            }
        }
        for i in 0..8u64 {
            ops.push(Op::Write {
                addr: 4 * PAGE + ((i * 11 + epoch) % 32) * 64,
                data: vec![(epoch * 10 + i) as u8; 16],
            });
        }
        ops.push(Op::Checkpoint);
    }
    ops
}

fn apply(sys: &mut ThyNvm, op: &Op, now: Cycle) -> Cycle {
    match op {
        Op::Write { addr, data } => now.max(sys.store_bytes(PhysAddr::new(*addr), data, now)),
        Op::Checkpoint => now.max(sys.force_checkpoint(now)),
    }
}

/// Replays the workload with power failing at the end of cycle `at`, and
/// returns the crash's record from the controller's event journal.
fn replay_with_crash(ops: &[Op], at: Cycle) -> (InjectedCrash, ThyNvm) {
    let mut sys = ThyNvm::new(SystemConfig::small_test());
    sys.arm_crash_point(at);
    let mut now = Cycle::ZERO;
    for op in ops {
        now = apply(&mut sys, op, now);
        if sys.armed_crash_point().is_none() {
            break;
        }
    }
    sys.poll_crash(now.max(at) + Cycle::new(1));
    let crash = sys
        .take_events()
        .into_iter()
        .find_map(|e| if let EventKind::Crash(c) = e.kind { Some(c) } else { None })
        .expect("invariant: the armed crash fired");
    (crash, sys)
}

fn main() {
    let ops = workload();

    // Fault-free reference run: feed the oracle, learn the timeline.
    let mut sys = ThyNvm::new(SystemConfig::small_test());
    let mut oracle = PersistenceOracle::new();
    let mut now = Cycle::ZERO;
    let mut last_job = None;
    for op in &ops {
        if let Op::Write { addr, data } = op {
            oracle.record_write(*addr, data);
        }
        now = apply(&mut sys, op, now);
        if matches!(op, Op::Checkpoint) {
            let j = sys.epoch_state().job.as_ref().expect("job overlaps execution").clone();
            oracle.record_checkpoint(j.started, j.done_at);
            last_job = Some(j);
        }
    }
    let target = last_job.expect("workload checkpoints at least once");
    println!("workload: {} ops, {EPOCHS} epochs, ends at {now}", ops.len());
    println!(
        "sweeping checkpoint of epoch {}: start={} drain={} btt={} pages={} commit={}",
        target.epoch, target.started, target.drained_at, target.btt_at, target.pages_at,
        target.done_at
    );
    println!();
    println!("{:>10}  {:<14} {:>8}  {:<8}  vs oracle", "crash@", "phase", "inflight", "outcome");

    // Crash at 24 points spread across the checkpoint (plus margins), then
    // diff every recovery byte-for-byte against the oracle.
    let lo = target.started.raw().saturating_sub(200);
    let hi = target.done_at.raw() + 200;
    let mut verified = 0usize;
    for i in 0..24u64 {
        let at = Cycle::new(lo + i * (hi - lo) / 23);
        let (crash, mut crashed) = replay_with_crash(&ops, at);
        let scenario = Scenario::crash_at(at);
        assert_eq!(crash.event.outcome, oracle.expect(&scenario).outcome);
        let diffs = oracle.diff(&scenario, |addr| {
            let mut b = [0u8; 1];
            crashed.load_bytes(PhysAddr::new(addr), &mut b, crash.resume_at);
            b[0]
        });
        assert!(diffs.is_empty(), "recovery diverged from the oracle: {:?}", diffs.first());
        verified += 1;
        println!(
            "{:>10}  {:<14} {:>8}  {:<8}  byte-identical",
            format!("{}", crash.event.cycle),
            format!("{}", crash.event.phase),
            crash.event.inflight_writebacks,
            format!("{}", crash.event.outcome),
        );
    }
    println!();
    println!(
        "{verified}/24 injected crashes recovered oracle-identical images \
         (W_active lost; C_last iff its commit persisted, else C_penult)."
    );

    // ------------------------------------------------------------------
    // Media faults: checksummed metadata + self-healing recovery.
    // ------------------------------------------------------------------
    println!();
    println!("media faults (integrity protection on):");
    let mut cfg = SystemConfig::small_test();
    cfg.media = MediaFaultConfig::hardened();
    for (name, fault) in [
        ("torn commit record", MediaFault::TornCommitRecord),
        ("C_last bit flip", MediaFault::ClastBitFlip { addr: 0 }),
        ("corrupt PTT metadata", MediaFault::CorruptPttMetadata),
    ] {
        // Two completed checkpoints, then a latent fault voids C_last.
        let mut sys = ThyNvm::new(cfg);
        let mut oracle = PersistenceOracle::new();
        let mut t = Cycle::ZERO;
        for val in [0x11u8, 0x22] {
            oracle.record_write(0, &[val; 64]);
            t = sys.store_bytes(PhysAddr::new(0), &[val; 64], t);
            let started = t;
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
            oracle.record_checkpoint(started, t);
        }
        sys.inject_media_fault(fault);
        let expected = oracle.expect(&Scenario { media: Some(fault), ..Scenario::crash_at(t) });
        let report = sys.crash_and_recover(t);
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(expected.outcome, RecoveryOutcome::CPenultIntegrityFallback);
        assert!(report.integrity_fallback, "{name} must void C_last");
        assert_eq!(Some(&buf[0]), expected.image.get(&0), "{name}: recovery must restore C_penult");
        println!(
            "  {name:<22} C_last rejected, fell back to C_penult \
             (recovered value {:#04x}, fallbacks={})",
            buf[0],
            sys.stats().media.integrity_fallbacks
        );
    }

    // A transient read flip is healed in place by CRC-verified retries.
    let mut sys = ThyNvm::new(cfg);
    let t = sys.store_bytes(PhysAddr::new(0), &[0xAB; 64], Cycle::ZERO);
    sys.fault_model_mut().expect("media enabled").arm_transient_flips(1);
    let mut buf = [0u8; 64];
    sys.load_bytes(PhysAddr::new(0), &mut buf, t);
    assert_eq!(buf, [0xAB; 64]);
    let m = sys.stats().media;
    println!(
        "  {:<22} healed by retry without fallback (flips={} retries={} remaps={})",
        "transient read flip", m.bit_flips, m.retries, m.remaps
    );

    // ------------------------------------------------------------------
    // DRAM faults: ECC correction, transparent refetch, quarantine.
    // ------------------------------------------------------------------
    println!();
    println!("DRAM fault domain (SEC-DED model on):");
    let mut cfg = SystemConfig::small_test();
    cfg.dram_fault = DramFaultConfig::hardened();
    cfg.validate().expect("hardened DRAM config is valid");
    let mut sys = ThyNvm::new(cfg);

    // Promote page 0 past the write-density threshold, then checkpoint so a
    // clean DRAM working copy with an NVM checkpoint twin exists.
    let mut t = Cycle::ZERO;
    for blk in 0..cfg.thynvm.promote_threshold {
        t = sys.store_bytes(PhysAddr::new(u64::from(blk) * 64), &[0x5A; 64], t);
    }
    t = sys.force_checkpoint(t);
    t = sys.drain(t);

    // (a) A correctable single-bit flip: ECC fixes it inline; only counted.
    sys.dram_ecc_mut().expect("dram model enabled").arm_corrected_flips(1);
    let mut buf = [0u8; 64];
    t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
    assert_eq!(buf, [0x5A; 64]);
    println!(
        "  {:<26} data intact (corrected_flips={})",
        "corrected single-bit flip",
        sys.stats().dram.corrected_flips
    );

    // (b) Poison under *clean* data: the working copy is a cache of the NVM
    // checkpoint copy, so the block re-fetches transparently.
    sys.dram_ecc_mut().expect("dram model enabled").arm_poison(1);
    t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
    assert_eq!(buf, [0x5A; 64]);
    let d = sys.stats().dram;
    println!(
        "  {:<26} healed from NVM checkpoint copy (refetched={} retries={})",
        "poison under clean page", d.poison_refetched, d.refetch_retries
    );

    // (c) Poison under *dirty* data: the only copy is corrupt, so the page
    // is quarantined — dirty bytes roll back to the last checkpoint, the
    // page demotes to block remapping and the loss is surfaced as an error.
    t = sys.store_bytes(PhysAddr::new(0), &[0x77; 64], t);
    sys.dram_ecc_mut().expect("dram model enabled").arm_poison(1);
    sys.load_bytes(PhysAddr::new(0), &mut buf, t);
    assert_eq!(buf, [0x5A; 64], "dirty write rolled back to the last checkpoint");
    let events = sys.take_events();
    let [event] = &events[..] else { panic!("one quarantine, one journal entry: {events:?}") };
    let EventKind::Error(err @ Error::DramPoisonLost { .. }) = &event.kind else {
        panic!("quarantine surfaces a poison-loss error: {event:?}");
    };
    let d = sys.stats().dram;
    println!(
        "  {:<26} {err} at cycle {} (quarantined_pages={} dropped_bytes={})",
        "poison under dirty page", event.cycle, d.quarantined_pages, d.quarantine_dropped_bytes
    );
}
