//! DRAM fault-domain soak: seeded ECC faults (corrected flips + poisoned
//! blocks) crossed with crash cycles and NVM media faults, validated
//! against the quarantine-aware persistence oracle.
//!
//! The DRAM fault domain's containment claim: an uncorrectable DRAM error
//! never becomes durable corruption. Poison under *clean* data heals
//! transparently (re-fetch from the NVM checkpoint copy); poison under
//! *dirty* data is quarantined — the dirty range rolls back to the last
//! checkpoint and the loss is surfaced, never silently persisted. This
//! suite stress-tests that claim three ways:
//!
//! 1. **Randomized sweep**: ≥ 500 seeded trials across six config combos
//!    (poison only, flips only, both, poison × NVM media faults, both ×
//!    media, and a rates-zero control), each crashing at a random cycle
//!    and asserting the recovered image is byte-identical to the
//!    quarantine-aware oracle — so no recovered byte ever comes from a
//!    poisoned block — plus per-trial poison-lifecycle conservation:
//!    `poisoned_blocks == refetched + dropped + overwritten +
//!    crash_cleared + outstanding`.
//! 2. **Disabled twin**: with `DramFaultConfig.enabled = false` (even with
//!    nonzero rates configured) the timeline and visible fingerprint are
//!    bit-identical to a default-config run — the model adds zero cost
//!    when off.
//! 3. **Containment floor**: the sweep must actually exercise the
//!    machinery — corrected flips, transparent refetches and quarantines
//!    all occur across the population, which a fixed trial ahead of the
//!    seeded ones covers at every seed.
//!
//! Seeds come from `SWEEP_SEED` (CI runs a small fixed matrix); the default
//! seed keeps local runs deterministic.

mod common;

use common::{
    apply, assert_trials_replay_alone, run_trial, stacked_crashes, sweep_seed, trial_label, Digest,
    Op, Reference, Trial, PAGE,
};
use thynvm::core::{MediaFault, Scenario, ThyNvm};
use thynvm::types::{rng, Cycle, DramFaultConfig, MediaFaultConfig, MemorySystem, SystemConfig};

const DEFAULT_SEED: u64 = 0xD4A3_FA01;
const TRIALS: usize = 510;

/// A three-epoch workload touching both schemes — hot pages that cross the
/// promotion threshold (PTT) plus scattered cold blocks (BTT) — and, unlike
/// the crash-storm workload, *reading its own data back* every epoch so the
/// DRAM ECC check runs against dirty and clean working copies alike.
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
        // Read the hot pages back mid-epoch: ECC checks on dirty data.
        for page in 0..3u64 {
            for blk in 0..8u64 {
                ops.push(Op::Read { addr: page * PAGE + blk * 64, len: 64 });
            }
        }
        ops.push(Op::Checkpoint);
        ops.push(Op::Advance { cycles: 400_000 });
        // Read again post-checkpoint: ECC checks on clean (refetchable) data.
        for page in 0..3u64 {
            ops.push(Op::Read { addr: page * PAGE, len: 64 });
        }
    }
    ops.push(Op::Advance { cycles: 2_000_000 });
    // Uncheckpointed tail writes no recovery may ever surface.
    for blk in 0..6u64 {
        ops.push(Op::Write { addr: blk * 64, len: 64, fill: 0xEE });
    }
    ops
}

/// One config combo of the sweep population.
#[derive(Debug, Clone, Copy)]
struct Combo {
    flip_rate: f64,
    poison_rate: f64,
    media: bool,
}

const COMBOS: &[Combo] = &[
    Combo { flip_rate: 0.0, poison_rate: 0.03, media: false }, // poison only
    Combo { flip_rate: 0.10, poison_rate: 0.0, media: false }, // flips only
    Combo { flip_rate: 0.05, poison_rate: 0.02, media: false }, // both
    Combo { flip_rate: 0.0, poison_rate: 0.03, media: true },  // poison × NVM faults
    Combo { flip_rate: 0.05, poison_rate: 0.02, media: true }, // both × NVM faults
    Combo { flip_rate: 0.0, poison_rate: 0.0, media: false },  // armed-but-quiet control
];

fn combo_cfg(c: Combo, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.dram_fault = DramFaultConfig {
        flip_rate: c.flip_rate,
        poison_rate: c.poison_rate,
        seed,
        ..DramFaultConfig::hardened()
    };
    if c.media {
        cfg.media = MediaFaultConfig::hardened();
    }
    cfg.validate().expect("valid sweep config");
    cfg
}

/// Trial generator: the combo index and the scenario, drawn against the
/// combo's reference timeline.
fn dram_trial(refs: &[Reference], trial: usize, rng: &mut u64) -> (usize, Scenario) {
    let ci = (rng::next(rng) % COMBOS.len() as u64) as usize;
    let (combo, r) = (COMBOS[ci], &refs[ci]);
    // Latent NVM faults void C_last at recovery — crossing the DRAM
    // quarantine rollback with the NVM integrity fallback.
    let media = combo.media.then_some(if trial.is_multiple_of(2) {
        MediaFault::TornCommitRecord
    } else {
        MediaFault::ClastBitFlip { addr: 0 }
    });
    // Media faults only matter once a commit exists.
    let lo = if combo.media { r.ckpts[0].done_at.raw() + 1 } else { 1 };
    let at = Cycle::new(lo + rng::next(rng) % (r.end.raw() - lo));
    let depth = (rng::next(rng) % 3) as usize; // 0–2 stacked points
    let crashes = stacked_crashes(at, depth, 2_000_000, rng);
    (ci, Scenario { crashes, media, ..Scenario::default() })
}

/// The sweep's combo configs and their crash-free references: each oracle
/// learns its combo's deterministic quarantine schedule alongside the
/// checkpoint times.
fn setup(ops: &[Op], seed: u64) -> (Vec<SystemConfig>, Vec<Reference>) {
    let cfgs: Vec<SystemConfig> = COMBOS.iter().map(|&c| combo_cfg(c, seed | 1)).collect();
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

/// Randomized sweep: ≥ 500 seeded trials crossing DRAM poison, crash
/// cycles and NVM media faults. Every recovered image must match the
/// quarantine-aware oracle byte-for-byte — a recovered byte sourced from a
/// poisoned block would diverge — and every trial's poison counters must
/// conserve.
#[test]
fn seeded_dram_fault_sweep_never_persists_poison() {
    let ops = workload();
    let seed = sweep_seed(DEFAULT_SEED);
    let (cfgs, refs) = setup(&ops, seed);

    let mut rng = seed;
    let mut digest = Digest::new();
    let mut quarantines = 0u64;
    let mut refetches = 0u64;
    let mut corrected = 0u64;
    let mut tally = |t: &Trial, combo: Combo| {
        let d = &t.sys.stats().dram;
        quarantines +=
            d.quarantined_pages + u64::from(!d.quarantine_dropped_bytes.is_multiple_of(PAGE));
        refetches += d.poison_refetched;
        corrected += d.corrected_flips;
        if combo.flip_rate == 0.0 && combo.poison_rate == 0.0 {
            assert!(!d.any(), "{}: quiet control produced DRAM fault counters", t.label);
        }
    };
    // A fixed trial ahead of the seeded ones, the same at every sweep seed:
    // the flips-and-poison combo under the default seed's fault schedule,
    // crashed once the workload has run, quarantines dirty pages, heals
    // clean blocks and corrects flips, so the floor below holds at seeds
    // whose schedules happen to miss a case.
    let fixed_combo = COMBOS[2];
    let fixed_cfg = combo_cfg(fixed_combo, DEFAULT_SEED | 1);
    let fixed = common::reference_run(&ops, fixed_cfg);
    let sc = Scenario::crash_at(fixed.end);
    tally(&run_trial(&ops, fixed_cfg, &fixed.oracle, sc, "fixed trial", &mut digest), fixed_combo);
    for trial in 0..TRIALS {
        let (ci, sc) = dram_trial(&refs, trial, &mut rng);
        let t =
            run_trial(&ops, cfgs[ci], &refs[ci].oracle, sc, &trial_label(seed, trial), &mut digest);
        tally(&t, COMBOS[ci]);
    }
    // Containment floor: the sweep exercised the whole machinery.
    assert!(quarantines > 0, "sweep never quarantined a dirty range");
    assert!(refetches > 0, "sweep never healed a clean block by refetch");
    assert!(corrected > 0, "sweep never corrected a single-bit flip");
    digest.check("seeded_dram_fault_sweep_never_persists_poison");
}

/// One-line reproduction: a trial regenerated from its seed replays alone
/// as it did inside the sweep.
#[test]
fn a_trial_regenerated_from_its_seed_replays_as_in_the_sweep() {
    let ops = workload();
    let seed = sweep_seed(DEFAULT_SEED);
    let (cfgs, refs) = setup(&ops, seed);
    let generate = |trial: usize, rng: &mut u64| dram_trial(&refs, trial, rng);
    assert_trials_replay_alone(&ops, seed, TRIALS, generate, |&ci| cfgs[ci]);
}

/// Disabled twin: with `enabled = false` the model must be absent, not
/// merely quiet — even with aggressive rates configured, the timeline and
/// the visible fingerprint are bit-identical to a default-config run.
#[test]
fn disabled_dram_fault_config_is_bit_identical_to_default() {
    let ops = workload();
    let plain = SystemConfig::small_test();
    let mut disabled = SystemConfig::small_test();
    disabled.dram_fault =
        DramFaultConfig { enabled: false, flip_rate: 0.9, poison_rate: 0.9, ..Default::default() };
    disabled.validate().expect("disabled model with rates set is still valid");

    let run = |cfg: SystemConfig| {
        let mut sys = ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for op in &ops {
            now = apply(&mut sys, op, now).0;
        }
        now = sys.drain(now);
        (now, sys.visible_fingerprint(), sys.stats().clone())
    };
    let (t_plain, fp_plain, s_plain) = run(plain);
    let (t_off, fp_off, s_off) = run(disabled);
    assert_eq!(t_plain, t_off, "disabled model changed the timeline");
    assert_eq!(fp_plain, fp_off, "disabled model changed the contents");
    assert!(!s_off.dram.any(), "disabled model left DRAM fault counters");
    assert_eq!(s_plain.nvm_writes, s_off.nvm_writes);
    assert_eq!(s_plain.dram_reads, s_off.dram_reads);
    assert_eq!(s_plain.service_cycles, s_off.service_cycles);
}

/// Crash-while-poison-outstanding: arm fresh poison, crash before anything
/// observes it, and assert recovery lands on a consistent pre-poison image
/// with the loss accounted to `poison_cleared_by_crash`.
#[test]
fn crash_with_outstanding_poison_recovers_a_consistent_image() {
    let ops = workload();
    let cfg = combo_cfg(COMBOS[0], sweep_seed(DEFAULT_SEED) | 1);
    let r = common::reference_run(&ops, cfg);

    // Crash shortly after the second checkpoint commits: whatever poison
    // the schedule had outstanding right then is lost with DRAM power.
    let at = r.ckpts[1].done_at + Cycle::new(10);
    let mut digest = Digest::new();
    run_trial(
        &ops,
        cfg,
        &r.oracle,
        Scenario::crash_at(at),
        "outstanding-poison crash",
        &mut digest,
    );
    digest.check("crash_with_outstanding_poison_recovers_a_consistent_image");
}
