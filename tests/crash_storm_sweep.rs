//! Nested-crash-storm soak: crashes *during recovery* validated against the
//! persistence oracle's crash-sequence rule (the first crash decides).
//!
//! The restartable-recovery design claims idempotence: recovery restarted
//! from the persisted commit record — after any number of stacked power
//! failures at arbitrary recovery cycles — converges to the exact image an
//! uninterrupted recovery would have produced. This suite stress-tests that
//! claim three ways:
//!
//! 1. **Boundary-exhaustive**: for crash points straddling a complete
//!    checkpoint, queue a nested crash at every recovery-step boundary
//!    (learned from an identically-configured probe twin) and assert the
//!    storm image is *fingerprint-identical* to the probe's uninterrupted
//!    recovery, and oracle-identical byte-for-byte.
//! 2. **Randomized soak**: ≥ 500 seeded trials stacking 2–8 crashes at
//!    random mid-step cycles, with and without latent media faults armed
//!    (torn commit record / `C_last` bit flip — the crash-during-integrity-
//!    fallback path), each converging to the oracle with every queued
//!    point fired exactly once and every ledger balanced.
//! 3. **Fallback storm**: a torn commit record with nested crashes at the
//!    integrity-fallback step's boundaries — the second recovery must still
//!    pick `C_penult`, never compound the fallback.
//!
//! Seeds come from `SWEEP_SEED` (CI runs a small fixed matrix); the default
//! seed keeps local runs deterministic.

mod common;

use common::{
    assert_trials_replay_alone, first_crash, replay, run_trial, stacked_crashes, storm_workload,
    sweep_seed, trial_label, Digest, Op, Reference,
};
use thynvm::core::{InjectedCrash, MediaFault, Scenario};
use thynvm::types::{rng, Cycle, MediaFaultConfig, RecoveryOutcome, SystemConfig};

const DEFAULT_SEED: u64 = 0xC0FF_EE00;
const TRIALS: usize = 510;
/// Trials from this index on arm a latent media fault that voids `C_last`.
const MEDIA_FROM: usize = 340;

/// Hardened-integrity config for the media-fault storm population: CRC
/// checking on, deterministic (no random flips, no wear) so only the
/// injected latent fault perturbs recovery.
fn storm_media_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.media = MediaFaultConfig::hardened();
    cfg.validate().expect("valid storm media config");
    cfg
}

/// A scenario crashing at `at` with a nested point at every recovery-step
/// boundary the probe observed (and one cycle before each).
fn boundary_storm(probe: &InjectedCrash, at: Cycle, media: Option<MediaFault>) -> Scenario {
    let mut crashes = vec![at];
    for &(_, end) in &probe.report.steps {
        for p in [end.saturating_sub(Cycle::new(1)), end] {
            if p > at && !crashes.contains(&p) {
                crashes.push(p);
            }
        }
    }
    Scenario { crashes, media, ..Scenario::default() }
}

/// The randomized soak's plain and media-fault configs, their crash-free
/// references, and a typical recovery span learned from one probe, so
/// random nested points land both inside and past the recovery window.
fn soak_setup(ops: &[Op]) -> ([SystemConfig; 2], [Reference; 2], u64) {
    let cfgs = [SystemConfig::small_test(), storm_media_cfg()];
    let refs = cfgs.map(|cfg| common::reference_run(ops, cfg));
    let (probe, _) = replay(ops, cfgs[0], &mut Scenario::crash_at(refs[0].ckpts[1].done_at));
    let span = first_crash(&probe).report.recovery_cycles.raw().max(16);
    (cfgs, refs, span)
}

/// Trial generator of the randomized soak: whether the trial runs the
/// media population, and its scenario. `refs` holds the plain and the
/// media reference; `span` is a typical recovery length.
fn storm_trial(refs: &[Reference; 2], span: u64, trial: usize, rng: &mut u64) -> (bool, Scenario) {
    let is_media = trial >= MEDIA_FROM;
    let r = &refs[usize::from(is_media)];
    let fault = match trial % 2 {
        _ if !is_media => None,
        0 => Some(MediaFault::TornCommitRecord),
        _ => Some(MediaFault::ClastBitFlip { addr: 0 }),
    };
    // Media faults only matter once a commit exists; crash after the
    // first checkpoint completes so the fallback path is reachable.
    let lo = if is_media { r.ckpts[0].done_at.raw() + 1 } else { 1 };
    let at = Cycle::new(lo + rng::next(rng) % (r.end.raw() - lo));
    let depth = 2 + (rng::next(rng) % 7) as usize; // 2–8 stacked
    // Bias toward the recovery window (where nesting happens) but let some
    // points land beyond it, staying armed for later.
    let crashes = stacked_crashes(at, depth, 3 * span, rng);
    (is_media, Scenario { crashes, media: fault, ..Scenario::default() })
}

/// Boundary-exhaustive pass: for crash cycles straddling the second
/// checkpoint, a probe twin learns the recovery-step boundaries, then the
/// storm trial queues a nested crash at every boundary (and one cycle
/// before it). The storm must converge to the probe's byte-identical image.
#[test]
fn nested_crashes_at_every_step_boundary_converge_to_the_probe_image() {
    let ops = storm_workload();
    let cfg = SystemConfig::small_test();
    let r = common::reference_run(&ops, cfg);
    assert_eq!(r.ckpts.len(), 3, "workload must reach all three checkpoints");

    let target = r.ckpts[1];
    let crash_cycles = [
        target.started.saturating_sub(Cycle::new(1)),
        target.started + Cycle::new(1),
        Cycle::new((target.started.raw() + target.done_at.raw()) / 2),
        target.done_at,
        target.done_at + Cycle::new(100),
    ];
    let mut digest = Digest::new();
    let mut storms_nested = 0u64;
    for &at in &crash_cycles {
        // Probe: identical config and workload, single crash, no storm.
        let (events, probe) = replay(&ops, cfg, &mut Scenario::crash_at(at));
        let probe_crash = first_crash(&events);
        assert_eq!(probe_crash.report.nested_crashes, 0);
        assert_eq!(probe_crash.event.cycle, at);

        let storm = boundary_storm(probe_crash, at, None);
        let t =
            run_trial(&ops, cfg, &r.oracle, storm, &format!("boundary storm at {at}"), &mut digest);
        storms_nested += t.first().report.nested_crashes;
        // Idempotence: byte-identical to the uninterrupted recovery.
        assert_eq!(
            t.sys.visible_fingerprint(),
            probe.visible_fingerprint(),
            "storm at {at} diverged from the uninterrupted recovery"
        );
        assert!(t.first().report.recovery_cycles >= probe_crash.report.recovery_cycles);
    }
    assert!(storms_nested > 0, "no boundary point ever interrupted a recovery");
    digest.check("nested_crashes_at_every_step_boundary_converge_to_the_probe_image");
}

/// Randomized soak: ≥ 500 seeded trials, 2–8 stacked crashes each at random
/// mid-step cycles, plain and with latent media faults armed. Every trial
/// converges to the oracle with conserved counters.
#[test]
fn randomized_crash_storms_converge_to_the_sequence_oracle() {
    let ops = storm_workload();
    let (cfgs, refs, span) = soak_setup(&ops);

    let seed = sweep_seed(DEFAULT_SEED);
    let mut rng = seed;
    let mut digest = Digest::new();
    let mut nested_fired = 0u64;
    let mut fallbacks_seen = 0u64;
    for trial in 0..TRIALS {
        let (is_media, sc) = storm_trial(&refs, span, trial, &mut rng);
        let m = usize::from(is_media);
        let t =
            run_trial(&ops, cfgs[m], &refs[m].oracle, sc, &trial_label(seed, trial), &mut digest);
        assert_eq!(t.first().event.cycle, t.scenario.crashes[0], "{}", t.label);
        nested_fired += t.first().report.nested_crashes;
        fallbacks_seen += u64::from(t.first().report.integrity_fallback);
    }
    assert!(
        nested_fired >= TRIALS as u64 / 4,
        "storm too shallow: only {nested_fired} nested crashes over {TRIALS} trials"
    );
    assert!(fallbacks_seen > 0, "soak never exercised an integrity fallback");
    digest.check("randomized_crash_storms_converge_to_the_sequence_oracle");
}

/// Fallback storm: a torn commit record voids `C_last`, and power fails
/// again at every boundary of the fallback recovery. Every retry must land
/// on `C_penult` — the fallback applies exactly once, never compounds.
#[test]
fn crash_storms_during_integrity_fallback_never_compound() {
    let ops = storm_workload();
    let cfg = storm_media_cfg();
    let r = common::reference_run(&ops, cfg);
    let torn = Some(MediaFault::TornCommitRecord);
    let mut digest = Digest::new();
    for at in [r.ckpts[1].done_at + Cycle::new(50), r.end + Cycle::new(1)] {
        let mut probe_sc = Scenario { media: torn, ..Scenario::crash_at(at) };
        let (events, probe) = replay(&ops, cfg, &mut probe_sc);
        let probe_crash = first_crash(&events);
        assert!(probe_crash.report.integrity_fallback, "probe at {at} must fall back");

        let storm = boundary_storm(probe_crash, at, torn);
        let t =
            run_trial(&ops, cfg, &r.oracle, storm, &format!("fallback storm at {at}"), &mut digest);
        assert!(t.first().report.integrity_fallback, "storm at {at} must still fall back");
        assert_eq!(t.first().event.outcome, RecoveryOutcome::CPenultIntegrityFallback);
        assert_eq!(
            t.sys.visible_fingerprint(),
            probe.visible_fingerprint(),
            "fallback storm at {at} diverged from the single-crash fallback"
        );
    }
    digest.check("crash_storms_during_integrity_fallback_never_compound");
}

/// One-line reproduction: a randomized storm regenerated from its seed
/// replays alone as it did inside the soak.
#[test]
fn a_trial_regenerated_from_its_seed_replays_as_in_the_sweep() {
    let ops = storm_workload();
    let (cfgs, refs, span) = soak_setup(&ops);
    let generate = |trial: usize, rng: &mut u64| storm_trial(&refs, span, trial, rng);
    assert_trials_replay_alone(&ops, sweep_seed(DEFAULT_SEED), TRIALS, generate, |&m| {
        cfgs[usize::from(m)]
    });
}
