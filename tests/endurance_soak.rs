//! Long-horizon endurance soak: the graceful-degradation health ladder
//! under continuous fault streams crossing all four fault domains — NVM
//! media wear, DRAM ECC faults, crash/power-loss, and adversarial tampering
//! — validated against the rung-aware persistence oracle.
//!
//! The ladder's claim: under sustained, compounding faults the controller
//! degrades *monotonically and observably* (Healthy → Wounded → ReadOnly →
//! FailSafe), never loses crash consistency while doing so, and recovers
//! the rung that was durable alongside the image it restores. This suite
//! stress-tests that claim four ways:
//!
//! 1. **Randomized soak**: ≥ 500 seeded trials over a multi-million-cycle
//!    workload whose wear deterministically drains the spare pool, each
//!    crashing at a random cycle with 0–2 stacked crash points. Every
//!    recovered image must match the persistence oracle byte-for-byte and
//!    the post-recovery rung must match the rung the oracle saw persisted
//!    with the restored checkpoint (tamper and fallback overrides
//!    accounted for exactly).
//! 2. **Ladder discipline**: per reference run, promotions climb one rung
//!    at a time (hysteresis) while demotions may skip; per trial the
//!    ledger conserves (`promotions <= demotions`) and every media/DRAM
//!    retry is a RetryPolicy-issued attempt.
//! 3. **Bounded footprint**: after multi-million-cycle trials the
//!    functional stores' page count stays proportional to the touched
//!    working set, never to simulated time.
//! 4. **Disabled twin**: with `HealthConfig.enabled = false` (thresholds
//!    configured but the ladder off) the timeline and visible fingerprint
//!    are bit-identical to a default-config run — the subsystem adds zero
//!    cost when off.
//!
//! Seeds come from `SWEEP_SEED` (CI runs a small fixed matrix); the default
//! seed keeps local runs deterministic.

mod common;

use common::{
    apply, assert_trials_replay_alone, replay, run_trial, stacked_crashes, sweep_seed, tamper_kind,
    trial_label, Digest, Op, Reference, Trial, PAGE,
};
use thynvm::core::health::READONLY_WAL_REDOS;
use thynvm::core::{MediaFault, Scenario, ThyNvm};
use thynvm::types::{
    rng, Cycle, DramFaultConfig, Error, HealthConfig, HealthRung, MediaFaultConfig, MemorySystem,
    PhysAddr, SecurityConfig, SystemConfig,
};

const DEFAULT_SEED: u64 = 0xE0D0_5A0C;
const TRIALS: usize = 510;
/// Epochs in the endurance workload — enough repeated writes per hot row
/// to cross the wear threshold mid-run, so the media domain degrades the
/// system *during* the soak, not in a warm-up.
const EPOCHS: u64 = 6;
/// Traffic-free cool-down epochs after the stress phase: the wear and ECC
/// bursts slide out of the monitor's window and the promotion streak can
/// build, so the soak exercises *both* directions of the hysteresis.
const QUIET_EPOCHS: u64 = 7;

/// A multi-million-cycle workload touching both schemes (hot PTT pages and
/// scattered BTT blocks), reading its data back every epoch, and ending
/// with uncheckpointed tail writes no recovery may ever surface. With the
/// endurance media config each hot row is written ~12 times — past the
/// stuck-at threshold — so wear, scrubbing, spare-pool drain and the
/// ladder's responses all happen on the clock.
fn workload() -> Vec<Op> {
    let mut ops = Vec::new();
    for epoch in 0..EPOCHS {
        for rep in 0..2u64 {
            for page in 0..3u64 {
                for blk in 0..8u64 {
                    ops.push(Op::Write {
                        addr: page * PAGE + blk * 64,
                        len: 64,
                        fill: (1 + epoch * 40 + page * 11 + blk + rep * 3) as u8,
                    });
                }
            }
        }
        for i in 0..8u64 {
            let block = (i * 13 + epoch * 7) % 64;
            ops.push(Op::Write {
                addr: 8 * PAGE + block * 64,
                len: 8,
                fill: (100 + epoch * 17 + i) as u8,
            });
        }
        // Read the hot pages back: CRC retries on worn rows, ECC checks on
        // DRAM copies.
        for page in 0..3u64 {
            for blk in 0..4u64 {
                ops.push(Op::Read { addr: page * PAGE + blk * 128, len: 64 });
            }
        }
        ops.push(Op::Checkpoint);
        ops.push(Op::Advance { cycles: 600_000 });
    }
    // Cool-down: epochs with no traffic at all. Wounded systems whose
    // firing signals were windowed rates (not standing levels) climb back.
    for _ in 0..QUIET_EPOCHS {
        ops.push(Op::Checkpoint);
        ops.push(Op::Advance { cycles: 600_000 });
    }
    ops.push(Op::Advance { cycles: 2_000_000 });
    for blk in 0..6u64 {
        ops.push(Op::Write { addr: blk * 64, len: 64, fill: 0xEE });
    }
    ops
}

/// Maps a rung onto its ladder level for step arithmetic.
fn level(r: HealthRung) -> u64 {
    match r {
        HealthRung::Healthy => 0,
        HealthRung::Wounded => 1,
        HealthRung::ReadOnly => 2,
        HealthRung::FailSafe => 3,
    }
}

/// The soak's hysteresis discipline, checked on a rung trace: recovery is
/// earned one rung at a time (a promotion never skips), while demotion may
/// jump straight to the firing signal's rung.
fn assert_hysteresis(rungs: &[HealthRung], label: &str) {
    for w in rungs.windows(2) {
        if w[1] < w[0] {
            assert_eq!(
                level(w[0]) - level(w[1]),
                1,
                "{label}: promotion skipped a rung ({:?} -> {:?})",
                w[0],
                w[1]
            );
        }
    }
}

/// One config combo of the soak population. Crash is in every trial; the
/// other three fault domains toggle per combo.
#[derive(Debug, Clone, Copy)]
struct Combo {
    media: bool,
    dram: bool,
    tamper: bool,
}

const COMBOS: &[Combo] = &[
    Combo { media: true, dram: false, tamper: false }, // wear × crash
    Combo { media: false, dram: true, tamper: false }, // ECC × crash
    Combo { media: false, dram: false, tamper: true }, // tamper × crash
    Combo { media: true, dram: true, tamper: false },  // wear × ECC × crash
    Combo { media: true, dram: true, tamper: true },   // all four domains
    Combo { media: false, dram: false, tamper: false }, // ladder-on control
];

/// The endurance health posture: a tight window and low thresholds so the
/// deterministic wear schedule actually walks the ladder, plus a short
/// promotion streak so quiet epochs climb back.
fn soak_health() -> HealthConfig {
    HealthConfig {
        window_epochs: 4,
        wounded_retry_rate: 2,
        wounded_refetch_rate: 2,
        readonly_scrub_backlog: 4,
        promote_clean_epochs: 2,
        ..HealthConfig::hardened()
    }
}

fn combo_cfg(c: Combo, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.health = soak_health();
    if c.media {
        cfg.media = MediaFaultConfig {
            stuck_at_threshold: 8,
            spare_blocks: 4,
            ..MediaFaultConfig::hardened()
        };
    }
    if c.dram {
        // A flip rate high enough that the refetch-rate signal actually
        // wounds the ladder during the stress epochs — and, being a
        // windowed rate rather than a standing level, lets the cool-down
        // epochs earn the promotion back.
        cfg.dram_fault = DramFaultConfig {
            flip_rate: 0.2,
            poison_rate: 0.02,
            seed,
            ..DramFaultConfig::hardened()
        };
    }
    if c.tamper {
        // Distinct from the DRAM seed: the config validator insists the
        // fault streams stay independent.
        cfg.security = SecurityConfig { seed: seed.wrapping_add(1), ..SecurityConfig::hardened() };
    }
    cfg.validate().expect("valid soak config");
    cfg
}

/// Trial generator: the combo index and the scenario — a crash with 0–2
/// stacked points, plus a latent media fault on a third of the media
/// combos' trials and a tamper on every tamper combo's trial.
fn soak_trial(refs: &[Reference], trial: usize, rng: &mut u64) -> (usize, Scenario) {
    let ci = (rng::next(rng) % COMBOS.len() as u64) as usize;
    let (combo, r) = (COMBOS[ci], &refs[ci]);
    let media =
        (combo.media && rng::next(rng).is_multiple_of(3)).then_some(if trial.is_multiple_of(2) {
            MediaFault::TornCommitRecord
        } else {
            MediaFault::ClastBitFlip { addr: 64 * PAGE }
        });
    let tamper = combo.tamper.then(|| {
        let kind = (rng::next(rng) % 4) as usize;
        let addr = (rng::next(rng) % (3 * PAGE)) & !63;
        tamper_kind(kind, addr)
    });
    // Latent faults and tampers only matter once a commit exists.
    let lo = if media.is_some() || tamper.is_some() { r.ckpts[0].done_at.raw() + 1 } else { 1 };
    let at = Cycle::new(lo + rng::next(rng) % (r.end.raw() - lo));
    let depth = (rng::next(rng) % 3) as usize; // 0–2 stacked points
    let crashes = stacked_crashes(at, depth, 2_000_000, rng);
    (ci, Scenario { crashes, media, tamper, ..Scenario::default() })
}

/// The soak's configs and their crash-free references, each checked to
/// span every checkpoint over millions of cycles with a hysteresis-clean
/// rung trace and a balanced ladder ledger.
fn setup(ops: &[Op], seed: u64) -> (Vec<SystemConfig>, Vec<Reference>) {
    let cfgs: Vec<SystemConfig> = COMBOS.iter().map(|&c| combo_cfg(c, seed | 1)).collect();
    let refs = COMBOS
        .iter()
        .zip(&cfgs)
        .map(|(c, &cfg)| {
            let r = common::reference_run(ops, cfg);
            assert_eq!(
                r.ckpts.len(),
                (EPOCHS + QUIET_EPOCHS) as usize,
                "workload must reach every checkpoint"
            );
            assert!(r.end >= Cycle::new(5_000_000), "endurance runs span multiple million cycles");
            assert_hysteresis(&r.rungs, &format!("reference combo {c:?}"));
            assert!(
                r.health.promotions <= r.health.demotions,
                "reference combo {c:?}: ladder ledger out of balance ({:?})",
                r.health
            );
            r
        })
        .collect();
    (cfgs, refs)
}

/// Validates one settled trial's post-recovery rung against the rung the
/// oracle saw persisted with the restored image (with tamper / fallback /
/// WAL-redo overrides applied exactly), and that a degraded rung refuses
/// stores.
fn verify_rung(oracle: &thynvm::core::PersistenceOracle, t: &mut Trial) {
    let label = &t.label;
    let s = t.sys.stats();
    let rung = t.sys.health_rung();
    let rung_with =
        |media| oracle.expect(&Scenario { media, tamper: None, ..t.scenario.clone() }).rung;
    let exact = rung_with(None);
    let fallback = rung_with(Some(MediaFault::TornCommitRecord));
    let tampered = s.security.tampers_detected > 0;
    let unrecoverable = s.security.unrecoverable > 0;
    let redo_escalated = s.media.wal_redos >= READONLY_WAL_REDOS && rung >= HealthRung::ReadOnly;
    if tampered || unrecoverable {
        assert_eq!(
            rung,
            HealthRung::FailSafe,
            "{label}: detected tamper / unrecoverable verdict must land FailSafe"
        );
        assert_eq!(t.expect.rung, HealthRung::FailSafe, "{label}: the oracle missed the tamper");
    } else if s.media.integrity_fallbacks == 0 && !redo_escalated {
        // The clean case is exact: recovery rehydrates precisely the rung
        // persisted with the checkpoint it restored.
        assert_eq!(rung, exact, "{label}: rehydrated rung diverges from the oracle");
    } else {
        // A fallback restores the penultimate image (and its rung); a
        // WAL-redo burst escalates to at least ReadOnly. Either way the
        // rung must still be one the durable history can explain.
        assert!(
            rung == exact || rung == fallback || redo_escalated,
            "{label}: rung {rung} explained by neither C_last ({exact}) nor C_penult ({fallback})"
        );
    }
    // FailSafe never serves new stores.
    if rung >= HealthRung::ReadOnly {
        let far = Cycle::new(u64::MAX / 2);
        let err = t.sys.try_store_bytes(PhysAddr::new(63 * PAGE), &[1u8; 64], far).unwrap_err();
        assert!(matches!(err, Error::Degraded { .. }), "{label}: degraded rung accepted a store");
    }
}

/// Randomized endurance soak: ≥ 500 seeded trials over multi-million-cycle
/// runs crossing media wear, DRAM ECC faults, crashes and tampering, with
/// zero oracle divergence at sampled crash points, exact post-recovery
/// rungs, per-trial conservation, and a bounded functional footprint.
#[test]
fn seeded_endurance_soak_degrades_gracefully_without_divergence() {
    let ops = workload();
    let seed = sweep_seed(DEFAULT_SEED);
    let (cfgs, refs) = setup(&ops, seed);
    let mut demotions: u64 = refs.iter().map(|r| r.health.demotions).sum();
    let mut promotions: u64 = refs.iter().map(|r| r.health.promotions).sum();

    let mut rng = seed;
    let mut digest = Digest::new();
    let mut rejected = 0u64;
    let mut rehydrations = 0u64;
    let mut failsafes = 0u64;
    let mut fallbacks = 0u64;
    let mut max_footprint = 0usize;
    for trial in 0..TRIALS {
        let (ci, sc) = soak_trial(&refs, trial, &mut rng);
        let oracle = &refs[ci].oracle;
        let mut t = run_trial(&ops, cfgs[ci], oracle, sc, &trial_label(seed, trial), &mut digest);
        verify_rung(oracle, &mut t);
        let s = t.sys.stats();
        demotions += s.health.demotions;
        promotions += s.health.promotions;
        rejected += s.health.stores_rejected;
        rehydrations += s.health.rehydrations;
        failsafes += u64::from(t.sys.health_rung() == HealthRung::FailSafe);
        fallbacks += s.media.integrity_fallbacks;
        max_footprint = max_footprint.max(t.sys.functional_footprint_pages());
    }
    // Coverage floor: the soak exercised every rung transition class.
    assert!(demotions > 0, "soak never demoted");
    assert!(promotions > 0, "soak never promoted back (hysteresis untested)");
    assert!(rejected > 0, "soak never rejected a degraded store");
    assert!(rehydrations > 0, "soak never rehydrated a rung after crash");
    assert!(failsafes > 0, "soak never reached FailSafe");
    assert!(fallbacks > 0, "soak never fell back to C_penult");
    // Bounded footprint: the workload touches ~10 pages of address space;
    // the functional stores (visible + in-flight capture + committed +
    // penult + archive) must stay proportional to that, not to the
    // millions of simulated cycles.
    assert!(
        max_footprint <= 256,
        "functional footprint grew past the working-set bound: {max_footprint} pages"
    );
    digest.check("seeded_endurance_soak_degrades_gracefully_without_divergence");
}

/// Disabled twin: with `HealthConfig.enabled = false` (thresholds set, the
/// ladder off) the timeline and the visible fingerprint are bit-identical
/// to a default-config run, including across a crash — the subsystem adds
/// zero cost when off.
#[test]
fn disabled_health_config_is_bit_identical_to_default() {
    let ops = workload();
    let plain = SystemConfig::small_test();
    let mut disabled = SystemConfig::small_test();
    disabled.health = HealthConfig { enabled: false, ..soak_health() };
    disabled.validate().expect("disabled ladder with thresholds set is still valid");

    let run = |cfg: SystemConfig| {
        let mut sys = ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for op in &ops {
            let (next, landed) = apply(&mut sys, op, now);
            assert!(landed, "a disabled ladder must never reject a store");
            now = next;
        }
        now = sys.drain(now);
        let report = sys.crash_and_recover(now);
        (now + report.recovery_cycles, sys.visible_fingerprint(), sys.stats().clone())
    };
    let (t_plain, fp_plain, s_plain) = run(plain);
    let (t_off, fp_off, s_off) = run(disabled);
    assert_eq!(t_plain, t_off, "disabled ladder changed the timeline");
    assert_eq!(fp_plain, fp_off, "disabled ladder changed the contents");
    assert_eq!(s_off.health, thynvm::types::HealthStats::default());
    assert_eq!(s_plain.nvm_writes, s_off.nvm_writes);
    assert_eq!(s_plain.nvm_write_bytes_ckpt, s_off.nvm_write_bytes_ckpt);
    assert_eq!(s_plain.service_cycles, s_off.service_cycles);
}

/// Determinism: the same seed reproduces the same trial schedule, the same
/// health ledgers, and the same recovered fingerprints.
#[test]
fn endurance_soak_prefix_replays_deterministically() {
    let ops = workload();
    let seed = sweep_seed(DEFAULT_SEED);
    let (cfgs, refs) = setup(&ops, seed);

    let run_prefix = || {
        let mut rng = seed;
        (0..10)
            .map(|trial| {
                let (ci, mut sc) = soak_trial(&refs, trial, &mut rng);
                let (_, sys) = replay(&ops, cfgs[ci], &mut sc);
                (sys.stats().health, sys.health_rung(), sys.visible_fingerprint())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run_prefix(), run_prefix(), "same seed must replay identically");
}

/// One-line reproduction: a soak trial regenerated from its seed replays
/// alone as it did inside the soak.
#[test]
fn a_trial_regenerated_from_its_seed_replays_as_in_the_sweep() {
    let ops = workload();
    let seed = sweep_seed(DEFAULT_SEED);
    let (cfgs, refs) = setup(&ops, seed);
    let generate = |trial: usize, rng: &mut u64| soak_trial(&refs, trial, rng);
    assert_trials_replay_alone(&ops, seed, TRIALS, generate, |&ci| cfgs[ci]);
}
