//! Exhaustive crash-point sweep validated against the persistence oracle.
//!
//! A fixed, deterministic workload runs once without faults to learn the
//! controller's checkpoint timeline and to build a [`PersistenceOracle`]
//! (the pure three-version model of §3.2/§4.5: `W_active` lost, `C_last`
//! wins iff its commit record persisted, else `C_penult`). The sweep then
//! replays the identical workload on a fresh controller once per crash
//! cycle in a window spanning a complete checkpoint — execution phase,
//! block drain, BTT persist, page writebacks, finalize, and the execution
//! phase after — and diffs the recovered image byte-for-byte against the
//! oracle's prediction for that exact cycle.
//!
//! Acceptance: at least 1000 distinct injected crash cycles, every one
//! recovering to an oracle-identical `C_last` or `C_penult` image.

mod common;

use std::collections::BTreeSet;

use common::{read_byte, run_trial, Digest, Op, PAGE};
use thynvm::core::{MediaFault, Scenario};
use thynvm::types::{
    CkptPhase, Cycle, MediaFaultConfig, MemorySystem, RecoveryOutcome, SystemConfig,
};

/// A fixed workload exercising both checkpointing schemes across five
/// epochs: dense page-local writes (page writeback / PTT) plus scattered
/// block-aligned writes (block remapping / BTT), with overwrites so each
/// checkpoint image is distinct.
fn workload() -> Vec<Op> {
    let mut ops = Vec::new();
    for epoch in 0u64..5 {
        // Dense: rewrite the same four pages several times every epoch —
        // hot enough to cross the §4.2 promotion threshold, so these pages
        // enter the page-writeback scheme and the checkpoint has a real
        // PageWriteback phase.
        for rep in 0..4u64 {
            for page in 0..4u64 {
                for blk in 0..8u64 {
                    ops.push(Op::Write {
                        addr: page * PAGE + blk * 64,
                        len: 64,
                        fill: (1 + epoch * 40 + page * 9 + blk + rep * 3) as u8,
                    });
                }
            }
        }
        // Sparse: a fresh scatter of single blocks every epoch (block-cold).
        for i in 0..12u64 {
            let block = (i * 17 + epoch * 5) % 96;
            ops.push(Op::Write {
                addr: 8 * PAGE + block * 64,
                len: 8,
                fill: (100 + epoch * 13 + i) as u8,
            });
        }
        ops.push(Op::Checkpoint);
        // Give the early checkpoints room to complete; keep the later ones
        // overlapped with the next epoch's execution.
        if epoch < 2 {
            ops.push(Op::Advance { cycles: 400_000 });
        }
    }
    // Tail: time for the last checkpoint, then uncheckpointed W_active
    // writes that no recovery may ever surface.
    ops.push(Op::Advance { cycles: 2_000_000 });
    for blk in 0..8u64 {
        ops.push(Op::Write { addr: blk * 64, len: 64, fill: 0xEE });
    }
    ops
}

/// The tentpole sweep: ≥ 1000 distinct crash cycles across a window
/// spanning a complete checkpoint, each recovery oracle-identical.
#[test]
fn sweep_every_cycle_across_a_checkpoint_recovers_oracle_identical() {
    let ops = workload();
    let cfg = SystemConfig::small_test();
    let r = common::reference_run(&ops, cfg);
    assert_eq!(r.ckpts.len(), 5, "workload must reach all five checkpoints");

    // Sweep across the third checkpoint: by then both schemes carry state
    // from two completed checkpoints, so C_penult is a real image rather
    // than zeroes.
    let target = r.ckpts[2];
    let lead = Cycle::new(300); // execution phase before the job
    let tail = Cycle::new(300); // execution phase after completion
    let window_start = target.started.saturating_sub(lead);
    let window_end = target.done_at + tail;
    let span = window_end.raw() - window_start.raw();

    // Inject at every cycle when the window is small; otherwise stride so
    // the sweep stays ~2000 points but always hit every phase boundary
    // (and its neighbours) exactly.
    let stride = (span / 2000).max(1);
    let mut cycles: BTreeSet<u64> =
        (window_start.raw()..=window_end.raw()).step_by(usize::try_from(stride).unwrap()).collect();
    for edge in [target.started, target.drained_at, target.btt_at, target.pages_at, target.done_at]
    {
        for c in edge.raw().saturating_sub(1)..=edge.raw() + 1 {
            if (window_start.raw()..=window_end.raw()).contains(&c) {
                cycles.insert(c);
            }
        }
    }
    assert!(
        cycles.len() >= 1000,
        "sweep window too narrow: {} cycles (span {span}, stride {stride})",
        cycles.len()
    );

    let mut digest = Digest::new();
    let mut phases_seen = BTreeSet::new();
    let mut outcomes_seen = BTreeSet::new();
    let mut writes_lost = 0u64;
    for &c in &cycles {
        let sc = Scenario::crash_at(Cycle::new(c));
        let t = run_trial(&ops, cfg, &r.oracle, sc, "sweep", &mut digest);
        let s = t.sys.stats();
        assert_eq!(s.crashes_injected, 1);
        // Queued writes the crash discarded were in flight when it hit.
        assert!(
            s.wq_writes_lost <= t.first().event.inflight_writebacks as u64,
            "{}: lost more queued writes than were in flight",
            t.label
        );
        writes_lost += s.wq_writes_lost;
        phases_seen.insert(format!("{}", t.first().event.phase));
        outcomes_seen.insert(t.first().event.outcome);
    }

    // The window must have genuinely spanned the checkpoint: every
    // Figure 6(b) phase with a nonzero window in the reference timeline
    // was hit, plus execution on both sides.
    let mut expected_phases = BTreeSet::new();
    expected_phases.insert(format!("{}", CkptPhase::Execution));
    for (phase, lo, hi) in [
        (CkptPhase::DrainBlocks, target.started, target.drained_at),
        (CkptPhase::PersistBtt, target.drained_at, target.btt_at),
        (CkptPhase::PageWriteback, target.btt_at, target.pages_at),
        (CkptPhase::Finalize, target.pages_at, target.done_at),
    ] {
        if lo < hi {
            expected_phases.insert(format!("{phase}"));
        }
    }
    assert!(
        phases_seen.is_superset(&expected_phases),
        "phases hit {phases_seen:?} missing some of {expected_phases:?}"
    );
    assert!(expected_phases.len() >= 4, "checkpoint degenerate: {expected_phases:?}");
    assert!(outcomes_seen.contains(&RecoveryOutcome::CLast));
    assert!(outcomes_seen.contains(&RecoveryOutcome::CPenult));
    assert!(writes_lost > 0, "no crash ever caught a queued write in flight");
    digest.check("sweep_every_cycle_across_a_checkpoint_recovers_oracle_identical");
}

/// Crashing in the execution tail — after the final checkpoint completed,
/// with fresh uncheckpointed writes in flight — always recovers `C_last`
/// and never surfaces the `0xEE` tail writes.
#[test]
fn tail_crashes_recover_clast_and_never_leak_wactive() {
    let ops = workload();
    let cfg = SystemConfig::small_test();
    let r = common::reference_run(&ops, cfg);
    let last_done = r.ckpts.last().unwrap().done_at;
    let span = r.end.raw().saturating_sub(last_done.raw()).max(64);
    let mut digest = Digest::new();
    for i in 0..64u64 {
        let c = last_done.raw() + 1 + i * (span / 64).max(1);
        let sc = Scenario::crash_at(Cycle::new(c));
        let mut t = run_trial(&ops, cfg, &r.oracle, sc, "tail", &mut digest);
        assert_eq!(t.first().event.outcome, RecoveryOutcome::CLast);
        // Spot-check: the W_active tail fill never survives.
        assert_ne!(read_byte(&mut t.sys, 0), 0xEE, "uncheckpointed tail write leaked at crash {c}");
    }
    digest.check("tail_crashes_recover_clast_and_never_leak_wactive");
}

/// Crashes injected before the first checkpoint completes recover the
/// all-zero initial image (`C_penult` chain bottoms out at zeroes).
#[test]
fn crashes_before_first_commit_recover_zeroes() {
    let ops = workload();
    let cfg = SystemConfig::small_test();
    let r = common::reference_run(&ops, cfg);
    let first_done = r.ckpts[0].done_at.raw();
    let stride = (first_done / 200).max(1);
    let mut digest = Digest::new();
    for c in (0..first_done).step_by(usize::try_from(stride).unwrap()) {
        let sc = Scenario::crash_at(Cycle::new(c));
        let t = run_trial(&ops, cfg, &r.oracle, sc, "pre-commit", &mut digest);
        assert_eq!(t.first().report.recovered_checkpoints, 0, "crash at {c}");
    }
    digest.check("crashes_before_first_commit_recover_zeroes");
}

/// Configuration for the media-fault sweep: hardened integrity protection
/// with wear faults armed (low stuck-at threshold), but no random transient
/// flips — wear-driven stuck cells are healed operationally (retry, remap,
/// scrub), so they never change recovery outcomes and the pure oracle
/// stays exact.
fn media_sweep_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.media = MediaFaultConfig::hardened();
    cfg.media.stuck_at_threshold = 24;
    cfg.validate().expect("valid media sweep config");
    cfg
}

/// Combined sweep: crash cycles × latent media faults —
/// torn commit record, `C_last` data bit flip, corrupted PTT metadata.
/// Each recovery must match the *extended* oracle: when a completed
/// checkpoint exists the injected fault voids `C_last` and the recovered
/// image must equal `C_penult` byte-for-byte, labeled as an integrity
/// fallback; before any commit the plain oracle applies. Afterwards all
/// four fault kinds must have been observed across the sweep.
#[test]
fn combined_media_fault_sweep_matches_extended_oracle() {
    let ops = workload();
    let cfg = media_sweep_cfg();
    // Reference run under the SAME config: integrity checking perturbs
    // metadata sizes, so the checkpoint timeline differs from the plain
    // sweep's. The latent faults themselves do not perturb timing.
    let r = common::reference_run(&ops, cfg);
    assert_eq!(r.ckpts.len(), 5);

    let target = r.ckpts[2];
    let window_start = target.started.saturating_sub(Cycle::new(200));
    let window_end = target.done_at + Cycle::new(200);
    let span = window_end.raw() - window_start.raw();
    let stride = (span / 40).max(1);
    let cycles: Vec<u64> =
        (window_start.raw()..=window_end.raw()).step_by(usize::try_from(stride).unwrap()).collect();
    assert!(cycles.len() >= 40, "sweep window too narrow: {}", cycles.len());

    let faults = [
        MediaFault::TornCommitRecord,
        MediaFault::ClastBitFlip { addr: 0 },
        MediaFault::CorruptPttMetadata,
    ];
    let mut digest = Digest::new();
    let mut fallbacks_seen = 0u64;
    // (torn writes, bit flips, metadata corruptions, stuck cells, CRC'd blocks)
    let mut seen = [0u64; 5];
    for fault in faults {
        for &c in &cycles {
            let sc = Scenario { media: Some(fault), ..Scenario::crash_at(Cycle::new(c)) };
            let t = run_trial(&ops, cfg, &r.oracle, sc, "media sweep", &mut digest);
            if t.first().report.integrity_fallback {
                fallbacks_seen += 1;
                assert_eq!(t.expect.outcome, RecoveryOutcome::CPenultIntegrityFallback);
            }
            let m = t.sys.stats().media;
            for (n, v) in seen.iter_mut().zip([
                m.torn_writes,
                m.bit_flips,
                m.meta_corruptions,
                m.stuck_faults,
                m.crc_checked_blocks,
            ]) {
                *n += v;
            }
        }
    }

    assert!(fallbacks_seen > 0, "sweep never exercised an integrity fallback");
    let [torn, flips, meta, stuck, crc] = seen;
    assert!(torn > 0, "no torn-write faults observed");
    assert!(flips > 0, "no bit-flip faults observed");
    assert!(meta > 0, "no metadata faults observed");
    assert!(stuck > 0, "wear model never created a stuck cell");
    assert!(crc > 0);
    digest.check("combined_media_fault_sweep_matches_extended_oracle");
}

/// A torn commit record always lands in `C_penult`: for every crash cycle
/// after the first commit, recovery with [`MediaFault::TornCommitRecord`]
/// armed must report an integrity fallback and restore the penultimate
/// image — never the (torn) last one.
#[test]
fn torn_commit_record_always_recovers_cpenult() {
    let ops = workload();
    let cfg = media_sweep_cfg();
    let r = common::reference_run(&ops, cfg);
    let first_done = r.ckpts[0].done_at;
    let span = r.end.raw() - first_done.raw();
    let mut digest = Digest::new();
    for i in 0..48u64 {
        let c = first_done.raw() + 1 + i * (span / 48).max(1);
        let sc = Scenario {
            media: Some(MediaFault::TornCommitRecord),
            ..Scenario::crash_at(Cycle::new(c))
        };
        let t = run_trial(&ops, cfg, &r.oracle, sc, "torn commit", &mut digest);
        let report = &t.first().report;
        if report.recovered_checkpoints == 0 && !report.integrity_fallback {
            // The crash replay landed before any commit (timeline shifts
            // are impossible here, but keep the guard explicit).
            continue;
        }
        assert!(report.integrity_fallback, "{}: torn commit record must void C_last", t.label);
        assert_eq!(t.first().event.outcome, RecoveryOutcome::CPenultIntegrityFallback);
    }
    digest.check("torn_commit_record_always_recovers_cpenult");
}
