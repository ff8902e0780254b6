//! Persist-buffer reorder soak: crash-time partial flushes of the volatile
//! WPQ validated against the persistence oracle's salvage rule.
//!
//! The persist buffer is a *fault domain*: writes that entered the WPQ but
//! had not drained at power loss are partially salvaged — a seeded,
//! retire-consistent prefix per bank. The one functional consequence the
//! controller exposes is **commit salvage**: when the crash lands inside
//! the commit-record persist window and the partial flush keeps the marker
//! while dropping no data, the in-flight checkpoint is promoted to
//! `C_last` instead of being rolled back. This suite validates that edge
//! three ways:
//!
//! 1. **Off/on twin**: with the buffer disabled the system is bit-identical
//!    to the armed system's fault-free run (the WPQ is timing/ordering
//!    state, not a content channel), and the armed run is deterministic.
//! 2. **Targeted salvage window**: a rate-1.0 crash one cycle before each
//!    checkpoint's completion must salvage the marker and recover to the
//!    *promoted* checkpoint's oracle image; a rate-0.0 crash at the same
//!    cycle must roll back classically.
//! 3. **Randomized soak**: ≥ 510 seeded trials crossing salvage rates
//!    {0.0, 0.5, 1.0} × nested crash storms × latent media faults, each
//!    converging byte-for-byte to the oracle with conserved crash counters
//!    (no silent recoveries) and a conserved WPQ ledger.
//!
//! Seeds come from `SWEEP_SEED` (CI runs a small fixed matrix); the default
//! keeps local runs deterministic.

mod common;

use common::{
    apply, assert_trials_replay_alone, first_flush, run_trial, stacked_crashes, storm_workload,
    sweep_seed, trial_label, Digest, Op, Reference,
};
use thynvm::core::{MediaFault, Scenario, ThyNvm};
use thynvm::types::{
    rng, Cycle, MediaFaultConfig, MemorySystem, PersistBufferConfig, RecoveryOutcome, SystemConfig,
};

const DEFAULT_SEED: u64 = 0x5750_51D4;
const TRIALS: usize = 510;
const RATES: [f64; 3] = [0.0, 0.5, 1.0];

fn armed_cfg(salvage_rate: f64) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.wpq = PersistBufferConfig::armed();
    cfg.wpq.salvage_rate = salvage_rate;
    cfg.validate().expect("valid armed config");
    cfg
}

fn armed_media_cfg(salvage_rate: f64) -> SystemConfig {
    let mut cfg = armed_cfg(salvage_rate);
    cfg.media = MediaFaultConfig::hardened();
    cfg.validate().expect("valid armed media config");
    cfg
}

/// The randomized soak's config for a `(salvage rate, media population)`.
fn soak_cfg(rate: f64, media: bool) -> SystemConfig {
    if media {
        armed_media_cfg(rate)
    } else {
        armed_cfg(rate)
    }
}

/// The randomized soak's crash-free references: armed, and armed with media
/// faults (the salvage rate does not change a crash-free run).
fn soak_refs(ops: &[Op]) -> [Reference; 2] {
    [false, true].map(|media| common::reference_run(ops, soak_cfg(0.5, media)))
}

/// Trial generator of the randomized soak: `(salvage rate, media
/// population)` and the scenario. `refs` holds the armed reference and the
/// armed-with-media reference.
fn reorder_trial(refs: &[Reference; 2], trial: usize, rng: &mut u64) -> ((f64, bool), Scenario) {
    let rate = RATES[trial % RATES.len()];
    // Latent media faults ride only the rate-0.0 (classic-semantics)
    // population: a salvaged commit and a torn commit record are mutually
    // exclusive claims about the same record.
    let media = rate == 0.0 && trial.is_multiple_of(2);
    let r = &refs[usize::from(media)];
    let fault = media.then_some(if trial.is_multiple_of(4) {
        MediaFault::TornCommitRecord
    } else {
        MediaFault::ClastBitFlip { addr: 0 }
    });
    let lo = if media { r.ckpts[0].done_at.raw() + 1 } else { 1 };
    // The commit-record persist window is a few hundred cycles in a
    // multi-million-cycle trace; uniform sampling would never land in it.
    // Aim a slice of the salvage-capable trials just before a checkpoint's
    // completion so commit salvage is actually exercised.
    let aimed = rate > 0.0 && trial % 5 == 1;
    let at = if aimed {
        let ck = r.ckpts[(rng::next(rng) % r.ckpts.len() as u64) as usize];
        Cycle::new(ck.done_at.raw().saturating_sub(1 + rng::next(rng) % 100))
    } else {
        Cycle::new(lo + rng::next(rng) % (r.end.raw() - lo))
    };
    let depth = (rng::next(rng) % 5) as usize; // 0–4 stacked
    let crashes = stacked_crashes(at, depth, 200_000, rng);
    ((rate, media), Scenario { crashes, media: fault, ..Scenario::default() })
}

/// Off/on twin: the armed buffer's fault-free run is byte-identical to the
/// disabled run (the WPQ carries ordering state, not content) and
/// deterministic across repetitions; the disabled run leaves no ledger.
#[test]
fn fault_free_runs_are_twin_identical_with_and_without_the_buffer() {
    let ops = storm_workload();
    let run = |cfg: SystemConfig| {
        let mut sys = ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for op in &ops {
            now = apply(&mut sys, op, now).0;
        }
        (sys.visible_fingerprint(), now, sys.stats().wpq)
    };
    let (off_fp, off_end, off_wpq) = run(SystemConfig::small_test());
    let (on_fp, on_end, on_wpq) = run(armed_cfg(0.5));
    let (on_fp2, on_end2, _) = run(armed_cfg(0.5));
    assert_eq!(off_fp, on_fp, "armed buffer changed fault-free contents");
    assert_eq!((on_fp, on_end), (on_fp2, on_end2), "armed run not deterministic");
    assert!(!off_wpq.any(), "disabled buffer counted traffic: {off_wpq:?}");
    assert!(on_wpq.enqueued > 0 && on_wpq.fences > 0, "armed buffer unused: {on_wpq:?}");
    // The serialized checkpoint timeline retires every entry before each
    // §4.4 fence, so fencing is free here — off and on end cycles agree.
    assert_eq!(off_end, on_end, "fence stalls appeared in a drained timeline");
}

/// Targeted salvage window: one cycle before a checkpoint completes, the
/// commit marker is in flight. With salvage rate 1.0 the partial flush
/// keeps it — the checkpoint is promoted and recovery lands on *its*
/// image. With rate 0.0 the marker is dropped and recovery rolls back.
#[test]
fn crash_inside_the_commit_window_salvages_by_rate() {
    let ops = storm_workload();
    let r = common::reference_run(&ops, armed_cfg(1.0));
    assert_eq!(r.ckpts.len(), 3, "workload must reach all three checkpoints");
    let mut digest = Digest::new();
    let mut salvages = 0u64;
    for (k, ck) in r.ckpts.iter().enumerate() {
        let at = ck.done_at.saturating_sub(Cycle::new(1));

        // Rate 1.0: everything pending is salvaged, marker included.
        let label = format!("rate-1.0 ckpt {k}");
        let t =
            run_trial(&ops, armed_cfg(1.0), &r.oracle, Scenario::crash_at(at), &label, &mut digest);
        let flush = first_flush(&t.events).expect("armed crash reports a flush");
        assert_eq!(t.scenario.commit_salvaged, flush.commit_salvaged(), "{}", t.label);
        if flush.commit_salvaged() {
            salvages += 1;
            assert!(
                ck.commit_at <= at && at < ck.done_at,
                "ckpt {k}: salvage requires the marker to have been issued"
            );
            assert_eq!(
                t.first().event.outcome,
                RecoveryOutcome::CLast,
                "ckpt {k}: salvaged marker must promote the in-flight checkpoint"
            );
        }

        // Rate 0.0: the same crash cycle drops the marker — classic rollback.
        let label = format!("rate-0.0 ckpt {k}");
        let t0 =
            run_trial(&ops, armed_cfg(0.0), &r.oracle, Scenario::crash_at(at), &label, &mut digest);
        let flush0 = first_flush(&t0.events).expect("armed crash reports a flush");
        assert!(!flush0.commit_salvaged(), "ckpt {k}: rate 0.0 must not salvage");
        assert!(!t0.scenario.commit_salvaged, "{}: classic crash semantics", t0.label);
    }
    assert!(salvages > 0, "no commit window ever had its marker in flight");
    digest.check("crash_inside_the_commit_window_salvages_by_rate");
}

/// The flip side of the commit window: a crash *before* the commit record
/// was issued (`at < commit_at`) can never salvage the marker, even at
/// salvage rate 1.0 — residual energy cannot flush a write that had not
/// entered the WPQ. Overlapped execution makes this window adversarial:
/// foreground writes issued on the (earlier) foreground timeline enqueue
/// *behind* the marker in its bank, so a naive suffix unwind would leave
/// the never-issued marker in the salvageable prefix and early-commit a
/// checkpoint whose commit record did not exist at the crash.
#[test]
fn crash_before_the_commit_record_never_salvages() {
    let ops = storm_workload();
    let r = common::reference_run(&ops, armed_cfg(1.0));
    let mut digest = Digest::new();
    let mut windows = 0u64;
    for (k, ck) in r.ckpts.iter().enumerate() {
        for back in [1u64, 7, 50, 200, 1_000] {
            let at = Cycle::new(ck.commit_at.raw().saturating_sub(back));
            if at <= ck.started {
                continue;
            }
            windows += 1;
            let label = format!("pre-issue ckpt {k} (commit_at {})", ck.commit_at);
            let t = run_trial(
                &ops,
                armed_cfg(1.0),
                &r.oracle,
                Scenario::crash_at(at),
                &label,
                &mut digest,
            );
            let flush = first_flush(&t.events).expect("armed crash reports a flush");
            assert!(
                !flush.marker_salvaged,
                "{}: salvaged a never-issued marker: {flush:?}",
                t.label
            );
        }
    }
    assert!(windows >= 10, "workload must expose pre-issue crash windows");
    digest.check("crash_before_the_commit_record_never_salvages");
}

/// Randomized soak: 510 seeded trials crossing salvage rates × nested
/// crash storms × latent media faults. Every trial converges to the
/// oracle — the promoted image when the first crash salvaged the commit —
/// with conserved counters.
#[test]
fn seeded_reorder_storms_converge_to_the_salvage_aware_oracle() {
    let ops = storm_workload();
    let refs = soak_refs(&ops);

    let seed = sweep_seed(DEFAULT_SEED);
    let mut rng = seed;
    let mut digest = Digest::new();
    let mut salvages = 0u64;
    let mut storms_nested = 0u64;
    let mut fallbacks = 0u64;
    for trial in 0..TRIALS {
        let ((rate, media), sc) = reorder_trial(&refs, trial, &mut rng);
        let (cfg, r) = (soak_cfg(rate, media), &refs[usize::from(media)]);
        let t = run_trial(&ops, cfg, &r.oracle, sc, &trial_label(seed, trial), &mut digest);
        let at = t.scenario.crashes[0];
        assert_eq!(t.first().event.cycle, at, "{}", t.label);
        if t.scenario.commit_salvaged {
            // The first crash promoted the in-flight checkpoint. Legal only
            // inside some checkpoint's commit-*record* window — the marker
            // must have been issued (`commit_at <= at`, not merely
            // `started <= at`: a salvage before the record entered the WPQ
            // would mean the buffer kept a never-issued write) and not yet
            // retired — and only when the flush could keep it at all.
            assert!(rate > 0.0, "{}: rate 0.0 can never salvage", t.label);
            assert!(
                r.ckpts.iter().any(|c| c.commit_at <= at && at < c.done_at),
                "{}: salvage outside every commit-record window",
                t.label
            );
            salvages += 1;
        }
        storms_nested += t.first().report.nested_crashes;
        fallbacks += u64::from(t.first().report.integrity_fallback);
        assert!(t.sys.stats().wpq.enqueued > 0, "{}: armed buffer saw no traffic", t.label);
    }
    assert!(salvages > 0, "soak never exercised a commit salvage");
    assert!(storms_nested > 0, "soak never interrupted a recovery");
    assert!(fallbacks > 0, "soak never exercised an integrity fallback");
    digest.check("seeded_reorder_storms_converge_to_the_salvage_aware_oracle");
}

/// One-line reproduction: a reorder storm regenerated from its seed replays
/// alone as it did inside the soak.
#[test]
fn a_trial_regenerated_from_its_seed_replays_as_in_the_sweep() {
    let ops = storm_workload();
    let refs = soak_refs(&ops);
    let generate = |trial: usize, rng: &mut u64| reorder_trial(&refs, trial, rng);
    assert_trials_replay_alone(
        &ops,
        sweep_seed(DEFAULT_SEED),
        TRIALS,
        generate,
        |&(rate, media)| soak_cfg(rate, media),
    );
}
