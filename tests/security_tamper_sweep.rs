//! Secure-mode soak: seeded adversarial tampers crossed with crash cycles,
//! stacked crash points, and the NVM media-fault model, validated against
//! the tamper-aware persistence oracle.
//!
//! The secure persistent memory mode's claim: recovery never replays
//! unauthenticated data. A MAC mismatch or stale counter table on `C_last`
//! is detected, classified (tamper vs. torn vs. media) and degraded to the
//! authenticated `C_penult`, exactly as CRC failures are; when *both*
//! images fail authentication the system resets to the provably-empty
//! image and surfaces `IntegrityUnrecoverable` — there are no silent
//! recoveries. This suite stress-tests that claim four ways:
//!
//! 1. **Randomized sweep**: ≥ 500 seeded trials across eight config combos
//!    (four tamper kinds × media model on/off), each crashing at a random
//!    cycle with 0–2 stacked crash points, asserting the recovered image
//!    is byte-identical to the tamper-aware oracle and that the per-trial
//!    tamper ledger conserves: every detection is classified exactly once
//!    and resolved exactly once, and every *applied* tamper is detected.
//! 2. **Disabled twin**: with `SecurityConfig.enabled = false` (even with
//!    a seed of its own configured) the timeline and visible fingerprint
//!    are bit-identical to a default-config run — the model adds zero cost
//!    when off.
//! 3. **Determinism**: replaying a prefix of the sweep from the same seed
//!    reproduces identical ledgers and fingerprints.
//! 4. **One-line reproduction**: any trial, regenerated from the seed and
//!    its index alone, replays exactly as it did inside the sweep.
//!
//! Seeds come from `SWEEP_SEED` (CI runs a small fixed matrix); the default
//! seed keeps local runs deterministic.

mod common;

use common::{
    apply, assert_trials_replay_alone, replay, run_trial, stacked_crashes, sweep_seed, tamper_kind,
    trial_label, Digest, Op, Reference, Trial, PAGE,
};
use thynvm::core::{EventKind, Scenario, TamperFault, ThyNvm};
use thynvm::types::{
    rng, Cycle, Error, MediaFaultConfig, MemorySystem, RecoveryOutcome, SecurityConfig,
    SystemConfig,
};

const DEFAULT_SEED: u64 = 0x5EC0_31A7;
const TRIALS: usize = 510;

/// A three-epoch workload touching both schemes: hot pages that cross the
/// promotion threshold (PTT) plus scattered cold blocks (BTT), ending with
/// uncheckpointed tail writes no recovery may ever surface.
fn workload() -> Vec<Op> {
    let mut ops = Vec::new();
    for epoch in 0u64..3 {
        for rep in 0..4u64 {
            for page in 0..3u64 {
                for blk in 0..8u64 {
                    ops.push(Op::Write {
                        addr: page * PAGE + blk * 64,
                        len: 64,
                        fill: (1 + epoch * 50 + page * 11 + blk + rep * 3) as u8,
                    });
                }
            }
        }
        for i in 0..10u64 {
            let block = (i * 13 + epoch * 7) % 64;
            ops.push(Op::Write {
                addr: 8 * PAGE + block * 64,
                len: 8,
                fill: (100 + epoch * 17 + i) as u8,
            });
        }
        ops.push(Op::Checkpoint);
        ops.push(Op::Advance { cycles: 400_000 });
    }
    ops.push(Op::Advance { cycles: 2_000_000 });
    for blk in 0..6u64 {
        ops.push(Op::Write { addr: blk * 64, len: 64, fill: 0xEE });
    }
    ops
}

fn combo_cfg(media: bool, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.security = SecurityConfig { seed, ..SecurityConfig::hardened() };
    if media {
        cfg.media = MediaFaultConfig::hardened();
    }
    cfg.validate().expect("valid sweep config");
    cfg
}

/// The sweep's two configs (media model off, on) and their crash-free
/// references: the deterministic workload gives both the same logical
/// write history.
fn setup(ops: &[Op], seed: u64) -> ([SystemConfig; 2], Vec<Reference>) {
    let cfgs = [combo_cfg(false, seed | 1), combo_cfg(true, seed | 1)];
    let refs = cfgs
        .iter()
        .map(|&cfg| {
            let r = common::reference_run(ops, cfg);
            assert_eq!(r.ckpts.len(), 3, "workload must reach all three checkpoints");
            r
        })
        .collect();
    (cfgs, refs)
}

/// Trial generator: the config index (media model on/off) and the
/// scenario — one armed tamper, a crash, 0–2 stacked points.
fn tamper_trial(refs: &[Reference], _trial: usize, rng: &mut u64) -> (usize, Scenario) {
    let kind = (rng::next(rng) % 4) as usize;
    let ci = usize::from(rng::next(rng) % 2 == 1);
    let end = refs[ci].end;
    let addr = (rng::next(rng) % (3 * PAGE)) & !63;
    let tamper = tamper_kind(kind, addr);
    let at = Cycle::new(1 + rng::next(rng) % (end.raw() - 1));
    let depth = (rng::next(rng) % 3) as usize; // 0–2 stacked points
    let crashes = stacked_crashes(at, depth, 2_000_000, rng);
    (ci, Scenario { crashes, tamper: Some(tamper), ..Scenario::default() })
}

/// Randomized sweep: ≥ 500 seeded trials crossing tamper kinds, crash
/// cycles, stacked crash points and the media model. Every recovered image
/// must match the tamper-aware oracle byte-for-byte, every applied tamper
/// must be detected (zero silent recoveries), and every trial's tamper
/// ledger must conserve.
#[test]
fn seeded_tamper_sweep_never_replays_unauthenticated_data() {
    let ops = workload();
    let seed = sweep_seed(DEFAULT_SEED);
    let (cfgs, refs) = setup(&ops, seed);

    let mut rng = seed;
    let mut digest = Digest::new();
    let mut fallbacks = 0u64;
    let mut unrecoverables = 0u64;
    let mut still_armed = 0u64;
    let mut kinds_detected = [0u64; 2]; // tamper / torn
    let mut check = |t: &Trial| {
        let label = &t.label;
        let s = t.sys.stats().security;
        let applied = t.sys.armed_tamper().is_none();
        // The oracle decides when a tamper takes effect (a completed
        // checkpoint existed at the first crash); the controller agrees.
        let effective = matches!(
            t.expect.outcome,
            RecoveryOutcome::CPenultIntegrityFallback | RecoveryOutcome::Unrecoverable
        );
        assert_eq!(applied, effective, "{label}: tamper applied against the oracle's rule");
        if applied {
            // Zero silent recoveries: the applied tamper was detected and
            // resolved (fallback or unrecoverable), never replayed.
            assert_eq!(s.tampers_injected, 1, "{label}: applied tamper not counted");
            assert_eq!(
                s.tampers_detected,
                s.tampers_injected + s.classified_media,
                "{label}: silent recovery — applied tamper went undetected ({s:?})"
            );
            match t.scenario.tamper.expect("every trial arms a tamper") {
                TamperFault::BothImages { .. } => {
                    assert_eq!(s.unrecoverable, 1, "{label}: both-images must be terminal");
                    assert!(
                        t.events.iter().any(|e| matches!(
                            e.kind,
                            EventKind::Error(Error::IntegrityUnrecoverable { .. })
                        )),
                        "{label}: unrecoverable must surface an error"
                    );
                    unrecoverables += 1;
                }
                TamperFault::ClastData { .. } | TamperFault::StaleCounterTable => {
                    assert!(s.classified_tamper >= 1, "{label}: misclassified ({s:?})");
                    kinds_detected[0] += 1;
                    fallbacks += s.verify_fallbacks;
                }
                TamperFault::TornRootMeta => {
                    assert!(s.classified_torn >= 1, "{label}: misclassified ({s:?})");
                    kinds_detected[1] += 1;
                    fallbacks += s.verify_fallbacks;
                }
            }
        } else {
            // Crash before any completed checkpoint: nothing to forge yet.
            assert_eq!(s.tampers_injected, 0, "{label}: armed tamper counted early");
            assert_eq!(s.tampers_detected, s.classified_media, "{label}: phantom detection");
            still_armed += 1;
        }
    };
    // A fixed trial ahead of the seeded ones, the same at every sweep seed:
    // a forged `C_last` block armed and power lost at cycle 1, before any
    // checkpoint exists, so the floor below holds at seeds whose seeded
    // crashes all land after the first checkpoint.
    let sc = Scenario {
        crashes: vec![Cycle::new(1)],
        tamper: Some(tamper_kind(0, 0)),
        ..Scenario::default()
    };
    check(&run_trial(&ops, cfgs[0], &refs[0].oracle, sc, "fixed trial", &mut digest));
    for trial in 0..TRIALS {
        let (ci, sc) = tamper_trial(&refs, trial, &mut rng);
        let label = trial_label(seed, trial);
        check(&run_trial(&ops, cfgs[ci], &refs[ci].oracle, sc, &label, &mut digest));
    }
    // Coverage floor: the sweep exercised every path in the population.
    assert!(fallbacks > 0, "sweep never fell back to C_penult");
    assert!(unrecoverables > 0, "sweep never hit the unrecoverable path");
    assert!(still_armed > 0, "sweep never crashed before the first checkpoint");
    assert!(kinds_detected[0] > 0, "no adversarial classification exercised");
    assert!(kinds_detected[1] > 0, "no torn-metadata classification exercised");
    digest.check("seeded_tamper_sweep_never_replays_unauthenticated_data");
}

/// Disabled twin: with `enabled = false` the model must be absent, not
/// merely quiet — even with a seed of its own configured, the timeline and
/// the visible fingerprint are bit-identical to a default-config run.
#[test]
fn disabled_security_config_is_bit_identical_to_default() {
    let ops = workload();
    let plain = SystemConfig::small_test();
    let mut disabled = SystemConfig::small_test();
    disabled.security = SecurityConfig { enabled: false, seed: 0x5EED };
    disabled.validate().expect("disabled model with a seed set is still valid");

    let run = |cfg: SystemConfig| {
        let mut sys = ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for op in &ops {
            now = apply(&mut sys, op, now).0;
        }
        now = sys.drain(now);
        // A crash exercises the recovery path with verification off.
        let report = sys.crash_and_recover(now);
        (now + report.recovery_cycles, sys.visible_fingerprint(), sys.stats().clone())
    };
    let (t_plain, fp_plain, s_plain) = run(plain);
    let (t_off, fp_off, s_off) = run(disabled);
    assert_eq!(t_plain, t_off, "disabled model changed the timeline");
    assert_eq!(fp_plain, fp_off, "disabled model changed the contents");
    assert!(!s_off.security.any(), "disabled model left security counters");
    assert_eq!(s_plain.nvm_writes, s_off.nvm_writes);
    assert_eq!(s_plain.dram_reads, s_off.dram_reads);
    assert_eq!(s_plain.service_cycles, s_off.service_cycles);
}

/// Determinism: the same seed reproduces the same trial schedule, the same
/// tamper ledgers, and the same recovered fingerprints.
#[test]
fn tamper_sweep_prefix_replays_deterministically() {
    let ops = workload();
    let seed = sweep_seed(DEFAULT_SEED);
    let (cfgs, refs) = setup(&ops, seed);

    let run_prefix = || {
        let mut rng = seed;
        (0..12)
            .map(|trial| {
                let (ci, mut sc) = tamper_trial(&refs, trial, &mut rng);
                let (_, sys) = replay(&ops, cfgs[ci], &mut sc);
                (sys.stats().security, sys.visible_fingerprint())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run_prefix(), run_prefix(), "same seed must replay identically");
}

/// One-line reproduction: a trial regenerated from its seed replays alone
/// as it did inside the sweep.
#[test]
fn a_trial_regenerated_from_its_seed_replays_as_in_the_sweep() {
    let ops = workload();
    let seed = sweep_seed(DEFAULT_SEED);
    let (cfgs, refs) = setup(&ops, seed);
    let generate = |trial: usize, rng: &mut u64| tamper_trial(&refs, trial, rng);
    assert_trials_replay_alone(&ops, seed, TRIALS, generate, |&ci| cfgs[ci]);
}
