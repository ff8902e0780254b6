//! Accounting-consistency tests: the statistics the figures are built from
//! must agree with the device-level ground truth.
//!
//! Every byte the controller claims to have written to NVM (classified as
//! CPU / checkpoint / migration for Figure 8) must correspond to bytes the
//! NVM device actually transferred, and likewise for DRAM — otherwise the
//! traffic breakdowns in EXPERIMENTS.md would be fiction.

use thynvm::baselines::{Journaling, ShadowPaging};
use thynvm::cache::CoreModel;
use thynvm::core::ThyNvm;
use thynvm::mem::PersistBuffer;
use thynvm::types::{MemorySystem, SystemConfig};
use thynvm::workloads::micro::{MicroConfig, MicroPattern};

#[test]
fn thynvm_nvm_write_classes_track_device_bytes() {
    // The Figure 8 classes count *logical* bytes (an 8 B commit record, a
    // metadata table of exactly N×8 B), while the device transfers 64 B
    // burst granules and the prioritized CPU-state persist bypasses the
    // bank model (§4.4 note in controller.rs). Those per-checkpoint
    // constants bound the divergence to well under 1 %.
    let cfg = SystemConfig::paper();
    for pattern in MicroPattern::all() {
        let micro = MicroConfig::new(pattern);
        let mut sys = ThyNvm::new(cfg);
        let mut core = CoreModel::new(cfg.cache);
        core.run_trace(micro.events(40_000), &mut sys);
        let claimed = MemorySystem::stats(&sys).nvm_write_bytes_total() as f64;
        let device = sys.nvm_device().stats().write_bytes as f64;
        let ratio = claimed / device;
        assert!(
            (0.99..1.03).contains(&ratio),
            "{pattern:?}: claimed {claimed} B vs device {device} B (ratio {ratio:.4})"
        );
    }
}

#[test]
fn thynvm_dram_write_bytes_match_device() {
    let cfg = SystemConfig::paper();
    let micro = MicroConfig::new(MicroPattern::Sliding);
    let mut sys = ThyNvm::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    core.run_trace(micro.events(40_000), &mut sys);
    assert_eq!(
        MemorySystem::stats(&sys).dram_write_bytes,
        sys.dram_device().stats().write_bytes,
    );
}

#[test]
fn thynvm_read_bytes_match_device() {
    let cfg = SystemConfig::paper();
    let micro = MicroConfig::new(MicroPattern::Random);
    let mut sys = ThyNvm::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    core.run_trace(micro.events(30_000), &mut sys);
    let stats = MemorySystem::stats(&sys).clone();
    assert_eq!(stats.nvm_read_bytes, sys.nvm_device().stats().read_bytes);
    assert_eq!(stats.dram_read_bytes, sys.dram_device().stats().read_bytes);
}

#[test]
fn journaling_nvm_accounting_tracks_device() {
    // Only the 8 B-logical / 64 B-burst commit record diverges per flush.
    let cfg = SystemConfig::paper();
    let micro = MicroConfig::new(MicroPattern::Random);
    let mut sys = Journaling::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    core.run_trace(micro.events(40_000), &mut sys);
    let claimed = MemorySystem::stats(&sys).nvm_write_bytes_total();
    let device = sys.nvm_device().stats().write_bytes;
    let flushes = MemorySystem::stats(&sys).epochs_completed;
    assert_eq!(claimed + flushes * 56, device, "commit record padding only");
}

#[test]
fn shadow_paging_nvm_accounting_tracks_device() {
    // Only the 8 B-logical / 64 B-burst root-pointer write diverges.
    let cfg = SystemConfig::paper();
    let micro = MicroConfig::new(MicroPattern::Streaming);
    let mut sys = ShadowPaging::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    core.run_trace(micro.events(40_000), &mut sys);
    let claimed = MemorySystem::stats(&sys).nvm_write_bytes_total();
    let device = sys.nvm_device().stats().write_bytes;
    let flushes = MemorySystem::stats(&sys).epochs_completed;
    assert_eq!(claimed + flushes * 56, device, "root pointer padding only");
}

#[test]
fn stall_shares_never_exceed_execution_time() {
    let cfg = SystemConfig::paper();
    for pattern in MicroPattern::all() {
        let micro = MicroConfig::new(pattern);
        let mut sys = ThyNvm::new(cfg);
        let mut core = CoreModel::new(cfg.cache);
        let end = core.run_trace(micro.events(30_000), &mut sys);
        let stats = MemorySystem::stats(&sys);
        assert!(
            stats.ckpt_stall_cycles <= end,
            "{pattern:?}: stall {} exceeds run {}",
            stats.ckpt_stall_cycles,
            end
        );
        // Busy time is bounded by #checkpoints × run length, and each
        // individual job fits inside the run (they never overlap).
        assert!(stats.ckpt_busy_cycles <= end, "{pattern:?}: busy exceeds run");
    }
}

#[test]
fn service_cycles_accumulate_and_are_bounded_by_the_run() {
    // `service_cycles` sums per-request (done − issue) latencies; it must
    // grow whenever the controller serves traffic and can never exceed
    // #accesses × run length (each request completes within the run).
    let cfg = SystemConfig::paper();
    let micro = MicroConfig::new(MicroPattern::Random);
    let mut sys = ThyNvm::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    let end = core.run_trace(micro.events(30_000), &mut sys);
    let stats = MemorySystem::stats(&sys);
    assert!(stats.service_cycles.raw() > 0, "traffic was served but no latency accrued");
    let accesses = stats.total_accesses();
    assert!(accesses > 0);
    assert!(
        stats.service_cycles.raw() <= accesses.saturating_mul(end.raw()),
        "aggregate service latency {} exceeds accesses×run bound",
        stats.service_cycles
    );
}

#[test]
fn epoch_histograms_agree_with_checkpoint_count() {
    let cfg = SystemConfig::paper();
    let micro = MicroConfig::new(MicroPattern::Random);
    let mut sys = ThyNvm::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    core.run_trace(micro.events(40_000), &mut sys);
    let checkpoints = MemorySystem::stats(&sys).epochs_completed;
    assert_eq!(sys.epoch_length_histogram().count(), checkpoints);
    assert_eq!(sys.job_duration_histogram().count(), checkpoints);
}

#[test]
fn request_counts_are_conserved_through_the_platform() {
    // Every memory instruction the core executes is either absorbed by the
    // caches or becomes controller traffic; controller accesses can never
    // exceed core accesses plus writebacks/flush traffic.
    let cfg = SystemConfig::paper();
    let micro = MicroConfig::new(MicroPattern::Sliding);
    let mut sys = ThyNvm::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    core.run_trace(micro.events(25_000), &mut sys);
    let [(l1_hits, l1_misses), _, (_, l3_misses)] = core.hierarchy().hit_miss_counts();
    assert_eq!(
        l1_hits + l1_misses,
        25_000,
        "every access probes L1 exactly once for single-block requests"
    );
    // Controller reads = L3 read misses (fetches).
    assert_eq!(MemorySystem::stats(&sys).reads, l3_misses);
}

#[test]
fn security_ledger_conserves_and_tracks_device_traffic() {
    // The secure mode's tamper ledger must conserve (every detection is
    // classified exactly once and resolved exactly once), its metadata
    // persists must be real device traffic, and a tamper-and-crash storm
    // must keep the ledger consistent.
    use thynvm::core::TamperFault;
    use thynvm::types::{Cycle, PhysAddr, SecurityConfig};

    let mut cfg = SystemConfig::paper();
    cfg.security = SecurityConfig::hardened();
    cfg.validate().expect("valid secure config");
    let micro = MicroConfig::new(MicroPattern::Random);
    let mut sys = ThyNvm::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    let end = core.run_trace(micro.events(20_000), &mut sys);

    // Crypto work happened and the metadata persists are accounted in the
    // device's checkpoint-class write traffic.
    let s = MemorySystem::stats(&sys).security;
    assert!(s.blocks_encrypted > 0);
    assert!(s.counter_persists > 0);
    let meta_bytes = s.counter_bytes + s.tree_bytes + 64 * s.root_persists;
    let ckpt_bytes = MemorySystem::stats(&sys).nvm_write_bytes_ckpt;
    assert!(
        meta_bytes <= ckpt_bytes,
        "security metadata ({meta_bytes} B) exceeds checkpoint traffic ({ckpt_bytes} B)"
    );

    // A tamper-and-crash storm: ledger conservation after every recovery.
    let mut t = end;
    for (i, tamper) in [
        TamperFault::ClastData { addr: 0 },
        TamperFault::StaleCounterTable,
        TamperFault::TornRootMeta,
    ]
    .into_iter()
    .enumerate()
    {
        t = sys.store_bytes(PhysAddr::new(0), &[i as u8 + 1; 64], t);
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        sys.inject_tamper(tamper);
        let report = sys.crash_and_recover(t);
        t = t + report.recovery_cycles + Cycle::new(1);
        let s = MemorySystem::stats(&sys).security;
        assert_eq!(s.classified_total(), s.tampers_detected, "step {i}: {s:?}");
        assert_eq!(s.detections_accounted(), s.tampers_detected, "step {i}: {s:?}");
        assert!(s.tampers_injected + s.classified_media >= s.tampers_detected, "step {i}");
    }
    let s = MemorySystem::stats(&sys).security;
    assert_eq!(s.tampers_injected, 3);
    assert_eq!(s.tampers_detected, 3);
    assert_eq!(s.classified_tamper, 2, "forged data + stale table");
    assert_eq!(s.classified_torn, 1, "torn root metadata");
    assert_eq!(s.verify_fallbacks, 3);
    assert_eq!(s.unrecoverable, 0);
}

#[test]
fn wpq_ledger_conserves_against_device_traffic() {
    // Every NVM write the controller issues passes through the armed
    // persist buffer exactly once (plus one commit marker per checkpoint),
    // so the ledger must balance against itself after any mix of fences,
    // lazy drains and crash-time partial flushes — and nothing may be
    // counted while the buffer is disabled.
    let mut cfg = SystemConfig::small_test();
    cfg.wpq = thynvm::types::PersistBufferConfig::armed();
    cfg.validate().expect("valid armed config");
    let mut sys = ThyNvm::new(cfg);
    let mut t = thynvm::types::Cycle::ZERO;
    for i in 0..32u64 {
        t = sys.store_bytes(thynvm::types::PhysAddr::new((i % 8) * 64), &[i as u8; 64], t);
        if i % 10 == 9 {
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
        }
        if i % 16 == 15 {
            let report = sys.crash_and_recover(t);
            t = t + report.recovery_cycles + thynvm::types::Cycle::new(1);
        }
    }
    let w = MemorySystem::stats(&sys).wpq;
    assert!(w.enqueued > 0, "armed buffer saw no traffic");
    assert_eq!(
        w.enqueued,
        w.drained + w.dropped_at_crash + w.outstanding(),
        "WPQ ledger out of balance: {w:?}"
    );
    // Three checkpoints, each with at least a data fence and a commit
    // fence; the health-override seal may add more.
    assert!(w.fences >= 6, "missing §4.4 fences: {w:?}");
    // Fences drain to the last retire cycle; the serialized checkpoint
    // timeline keeps that at or before `now`, so stalls stay bounded by
    // the total fence count times a burst.
    assert!(w.fence_stall_cycles.raw() <= w.fences * 1_000, "{w:?}");
    assert!(w.reorder_window_max <= PersistBuffer::CAPACITY as u64, "{w:?}");

    // Disabled twin: same traffic, empty ledger.
    let mut sys = ThyNvm::new(SystemConfig::small_test());
    let mut t = thynvm::types::Cycle::ZERO;
    for i in 0..8u64 {
        t = sys.store_bytes(thynvm::types::PhysAddr::new(i * 64), &[1; 64], t);
    }
    t = sys.force_checkpoint(t);
    sys.drain(t);
    assert!(!MemorySystem::stats(&sys).wpq.any(), "disabled buffer counted traffic");
}
