//! Shared crash-sweep harness: one workload vocabulary, one reference run,
//! one replay, one set of conservation ledgers, and one per-test digest.
//!
//! Every sweep file describes its trials as [`Scenario`] values and hands
//! them to [`run_trial`], which replays the scenario on a fresh controller,
//! checks the first crash's outcome and the recovered image against
//! [`PersistenceOracle::expect`], and asserts every conservation ledger.
//! The sweep keeps only its workload, its config combos, and its own
//! coverage floors.
//!
//! Seeds come from `SWEEP_SEED`; each sweep file supplies its own default.
//! A failing trial panics with `SWEEP_SEED=<s> trial=<i> <scenario>`, which
//! is enough to regenerate and replay that one trial alone
//! ([`assert_trials_replay_alone`] proves it per sweep). Each test's digest
//! is checked against `sweep_digests.txt` next to this file.

#![allow(dead_code)]

use thynvm::core::{
    Event, EventKind, Expectation, InjectedCrash, PersistenceOracle, Scenario, TamperFault, ThyNvm,
};
use thynvm::mem::WpqCrashReport;
use thynvm::types::{
    rng, Cycle, Error, HealthRung, HealthStats, MemorySystem, PhysAddr, SystemConfig,
};

pub const PAGE: u64 = 4096;

/// One step of a deterministic sweep workload.
#[derive(Debug, Clone)]
pub enum Op {
    /// Write `len` bytes of `fill` at `addr`.
    Write { addr: u64, len: usize, fill: u8 },
    /// Read `len` bytes at `addr` (drives CRC retries and DRAM ECC checks).
    Read { addr: u64, len: usize },
    /// End the epoch (checkpoint start; execution overlaps the job).
    Checkpoint,
    /// Let simulated time pass.
    Advance { cycles: u64 },
}

/// Applies one op and returns the advanced timeline plus whether the op's
/// write landed. A store the health ladder rejects (`ReadOnly` or worse)
/// advances time like a served one but writes nothing, so the caller can
/// keep the oracle aligned.
pub fn apply(sys: &mut ThyNvm, op: &Op, now: Cycle) -> (Cycle, bool) {
    match op {
        Op::Write { addr, len, fill } => {
            match sys.try_store_bytes(PhysAddr::new(*addr), &vec![*fill; *len], now) {
                Ok(done) => (now.max(done), true),
                Err(Error::Degraded { .. }) => (now, false),
                Err(e) => panic!("store failed for a non-degradation reason: {e}"),
            }
        }
        Op::Read { addr, len } => {
            let mut buf = vec![0u8; *len];
            (now.max(sys.load_bytes(PhysAddr::new(*addr), &mut buf, now)), true)
        }
        Op::Checkpoint => (now.max(sys.force_checkpoint(now)), true),
        Op::Advance { cycles } => (now + Cycle::new(*cycles), true),
    }
}

/// The compact three-epoch storm workload (crash storms, persist-buffer
/// reorder): hot pages that cross the promotion threshold (PTT / page
/// writeback) plus scattered cold blocks (BTT / block remapping), with
/// per-epoch distinct fills so `W_active`, `C_last` and `C_penult` all
/// differ, ending in uncheckpointed tail writes no recovery may surface.
pub fn storm_workload() -> Vec<Op> {
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
        if epoch < 1 {
            ops.push(Op::Advance { cycles: 400_000 });
        }
    }
    ops.push(Op::Advance { cycles: 2_000_000 });
    for blk in 0..6u64 {
        ops.push(Op::Write { addr: blk * 64, len: 64, fill: 0xEE });
    }
    ops
}

/// The four tamper kinds the seeded sweeps draw from.
pub fn tamper_kind(kind: usize, addr: u64) -> TamperFault {
    match kind {
        0 => TamperFault::ClastData { addr },
        1 => TamperFault::StaleCounterTable,
        2 => TamperFault::TornRootMeta,
        _ => TamperFault::BothImages { addr },
    }
}

/// One checkpoint's timeline, learned from the crash-free reference run.
#[derive(Debug, Clone, Copy)]
pub struct CkptTimes {
    /// Initiation cycle (the image's content cutoff).
    pub started: Cycle,
    /// Cycle the commit record's write was issued: the earliest crash at
    /// which the marker exists to be salvaged at all.
    pub commit_at: Cycle,
    pub drained_at: Cycle,
    pub btt_at: Cycle,
    pub pages_at: Cycle,
    /// Cycle the commit record persisted.
    pub done_at: Cycle,
}

/// What a crash-free run of a workload taught the harness.
pub struct Reference {
    /// Fed with every landed write, quarantine, checkpoint and health rung.
    pub oracle: PersistenceOracle,
    pub ckpts: Vec<CkptTimes>,
    /// End-of-workload cycle.
    pub end: Cycle,
    /// The ladder rung observed after every op.
    pub rungs: Vec<HealthRung>,
    /// The run's final health-ladder counters.
    pub health: HealthStats,
}

/// Runs `ops` crash-free under `cfg`, feeding the oracle: writes that
/// landed, quarantines in op order (each before the checkpoint it
/// preceded), every checkpoint window, and the rung each checkpoint's
/// health record persisted.
pub fn reference_run(ops: &[Op], cfg: SystemConfig) -> Reference {
    let mut sys = ThyNvm::new(cfg);
    let mut oracle = PersistenceOracle::new();
    let mut ckpts = Vec::new();
    let mut rungs = Vec::new();
    let mut now = Cycle::ZERO;
    for op in ops {
        let before = now;
        let (next, landed) = apply(&mut sys, op, now);
        now = next;
        if let (Op::Write { addr, len, fill }, true) = (op, landed) {
            oracle.record_write(*addr, &vec![*fill; *len]);
        }
        for e in sys.take_events() {
            if let EventKind::Error(Error::DramPoisonLost { addr, bytes }) = e.kind {
                oracle.record_quarantine(addr.raw(), bytes);
            }
        }
        if matches!(op, Op::Checkpoint) {
            let job = sys.epoch_state().job.as_ref();
            let times = match job {
                Some(j) => CkptTimes {
                    started: j.started,
                    commit_at: j.commit_at,
                    drained_at: j.drained_at,
                    btt_at: j.btt_at,
                    pages_at: j.pages_at,
                    done_at: j.done_at,
                },
                // The round retired synchronously within the call: its
                // whole window is behind us, so an empty one is correct.
                None => CkptTimes {
                    started: before,
                    commit_at: now,
                    drained_at: now,
                    btt_at: now,
                    pages_at: now,
                    done_at: now,
                },
            };
            oracle.record_checkpoint(times.started, times.done_at);
            // The rung riding this checkpoint's health record: still
            // pending while the job is in flight, already rotated into
            // `C_last` if it completed instantly.
            let rung = match job {
                Some(_) => sys.pending_health_rung().unwrap_or(HealthRung::Healthy),
                None => sys.clast_health_rung(),
            };
            oracle.record_health(times.done_at, rung);
            ckpts.push(times);
        }
        rungs.push(sys.health_rung());
    }
    Reference { oracle, ckpts, end: now, rungs, health: sys.stats().health }
}

/// Replays `ops` under `cfg` with the scenario's faults armed and its
/// first crash point at `crashes[0]`, the rest queued behind it. Points
/// past the end of the first recovery fire afterwards as later top-level
/// crashes, so every queued point fires before this returns. Records the
/// first crash's persist-buffer salvage verdict into the scenario and
/// returns the replay's whole journal and the settled system.
pub fn replay(ops: &[Op], cfg: SystemConfig, sc: &mut Scenario) -> (Vec<Event>, ThyNvm) {
    let mut sys = ThyNvm::new(cfg);
    if let Some(fault) = sc.media {
        sys.inject_media_fault(fault);
    }
    if let Some(tamper) = sc.tamper {
        sys.inject_tamper(tamper);
    }
    let (&at, later) = sc.crashes.split_first().expect("a scenario crashes at least once");
    sys.arm_crash_point(at);
    for &p in later {
        assert!(p > at, "queued points must lie past the first crash");
        sys.queue_crash_point(p);
    }
    let mut now = Cycle::ZERO;
    for op in ops {
        now = apply(&mut sys, op, now).0;
        if sys.stats().crashes_injected > 0 {
            break;
        }
    }
    // Armed cycle beyond the trace: power fails with the system idle. Then
    // every point still queued fires as a later top-level crash.
    while let Some(p) = sys.armed_crash_point() {
        sys.poll_crash(now.max(p) + Cycle::new(1)).expect("an armed point fires once passed");
    }
    let events = sys.take_events();
    if let Some(flush) = first_flush(&events) {
        sc.commit_salvaged = flush.commit_salvaged();
    }
    (events, sys)
}

/// The first top-level crash's own record: the crash that decides the
/// image. Nested crashes of its recovery are journaled before it.
pub fn first_crash(events: &[Event]) -> &InjectedCrash {
    events
        .iter()
        .find_map(|e| if let EventKind::Crash(c) = &e.kind { Some(c) } else { None })
        .expect("a replayed scenario crashed at least once")
}

/// The first crash's persist-buffer flush, when the buffer is armed: a
/// replay recovers only from its crashes, so the first flush is the first
/// crash's.
pub fn first_flush(events: &[Event]) -> Option<WpqCrashReport> {
    events.iter().find_map(|e| if let EventKind::WpqFlush(f) = e.kind { Some(f) } else { None })
}

/// The sweep seed: `SWEEP_SEED` if set, else the sweep's own default.
pub fn sweep_seed(default: u64) -> u64 {
    std::env::var("SWEEP_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// The one-line reproduction prefix of a seeded trial.
pub fn trial_label(seed: u64, trial: usize) -> String {
    format!("SWEEP_SEED={seed} trial={trial}")
}

/// A seeded trial's crash sequence: `at`, then `depth` distinct stacked
/// points drawn from `(at, at + range]`, in firing order.
pub fn stacked_crashes(at: Cycle, depth: usize, range: u64, rng: &mut u64) -> Vec<Cycle> {
    let mut crashes = vec![at];
    while crashes.len() <= depth {
        let p = at + Cycle::new(1 + rng::next(rng) % range);
        if !crashes.contains(&p) {
            crashes.push(p);
        }
    }
    crashes[1..].sort_unstable();
    crashes
}

/// Regenerates trial `i` of a seeded sweep without running anything: the
/// generator is stepped through trials `0..=i` from the seed.
pub fn nth_trial<C>(
    seed: u64,
    i: usize,
    mut generate: impl FnMut(usize, &mut u64) -> (C, Scenario),
) -> (C, Scenario) {
    let mut rng = seed;
    for trial in 0..i {
        generate(trial, &mut rng);
    }
    generate(i, &mut rng)
}

/// Every conservation law the controller keeps, checked on a settled
/// system: labeled recoveries, the WPQ ledger, the poison lifecycle, the
/// tamper ledger, retry budgets, and the health ladder.
pub fn assert_ledgers(sys: &ThyNvm, label: &str) {
    let s = sys.stats();
    assert_eq!(
        s.crashes_injected,
        s.recoveries_to_clast + s.recoveries_to_cpenult + s.recoveries_unrecoverable,
        "{label}: a top-level crash went without exactly one labeled recovery"
    );
    let w = &s.wpq;
    assert_eq!(
        w.enqueued,
        w.drained + w.dropped_at_crash + w.outstanding(),
        "{label}: WPQ ledger out of balance: {w:?}"
    );
    let outstanding = sys.dram_ecc().map_or(0, |e| e.outstanding() as u64);
    assert_eq!(
        s.dram.poisoned_blocks,
        s.dram.poison_accounted() + outstanding,
        "{label}: poison leaked from the lifecycle accounting ({:?})",
        s.dram
    );
    let sec = &s.security;
    assert_eq!(
        sec.classified_total(),
        sec.tampers_detected,
        "{label}: detection classified other than exactly once ({sec:?})"
    );
    assert_eq!(
        sec.detections_accounted(),
        sec.tampers_detected,
        "{label}: detection resolved other than exactly once ({sec:?})"
    );
    assert!(
        sec.tampers_injected + sec.classified_media >= sec.tampers_detected,
        "{label}: more detections than injections ({sec:?})"
    );
    assert!(
        s.health.promotions <= s.health.demotions,
        "{label}: more promotions than demotions ({:?})",
        s.health
    );
}

/// The locked digests: one `<test binary>::<test> <SWEEP_SEED> <digest>
/// trials=<n>` line per sweep test and seed (see the file's header).
const LOCKED_DIGESTS: &str = include_str!("sweep_digests.txt");

/// FNV-1a fold of every trial's (first-crash cycle, first-crash outcome,
/// recovered visible fingerprint), in trial order: a test's replay
/// identity. [`Digest::check`] prints it and holds it to the lock file, so
/// a refactor can prove it left every trial unchanged.
pub struct Digest {
    hash: u64,
    trials: usize,
}

impl Digest {
    pub fn new() -> Self {
        Self { hash: 0xcbf2_9ce4_8422_2325, trials: 0 }
    }

    pub fn fold(&mut self, events: &[Event], sys: &ThyNvm) {
        let first = &first_crash(events).event;
        let bytes = first
            .cycle
            .raw()
            .to_le_bytes()
            .into_iter()
            .chain([first.outcome as u8])
            .chain(sys.visible_fingerprint().to_le_bytes());
        for b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.trials += 1;
    }

    /// Prints the digest (visible under `--nocapture`) and fails the test
    /// if `sweep_digests.txt` locks a different one for this test at this
    /// `SWEEP_SEED`. Every digest at the default seed must be locked.
    pub fn check(&self, test: &str) {
        let key = format!("{}::{test}", env!("CARGO_CRATE_NAME"));
        let seed = std::env::var("SWEEP_SEED").unwrap_or_else(|_| "default".to_owned());
        let line = format!("{key} {seed} {:016x} trials={}", self.hash, self.trials);
        println!("sweep digest {line}");
        let prefix = format!("{key} {seed} ");
        match LOCKED_DIGESTS.lines().find(|l| l.starts_with(&prefix)) {
            Some(locked) => assert_eq!(
                line, locked,
                "{key} at SWEEP_SEED={seed} no longer replays as locked in \
                 tests/common/sweep_digests.txt (its header says how to regenerate)"
            ),
            None => assert_ne!(seed, "default", "{key}: no locked digest at the default seed"),
        }
    }
}

/// One replayed and verified trial.
pub struct Trial {
    /// The scenario, with the run's salvage verdict filled in.
    pub scenario: Scenario,
    /// Everything the controller journaled during the replay.
    pub events: Vec<Event>,
    pub sys: ThyNvm,
    pub expect: Expectation,
    /// `<prefix> <scenario>`: every assertion message starts with it.
    pub label: String,
}

impl Trial {
    /// The first crash's own record.
    pub fn first(&self) -> &InjectedCrash {
        first_crash(&self.events)
    }
}

/// Reads one byte of the recovered image.
pub fn read_byte(sys: &mut ThyNvm, addr: u64) -> u8 {
    let mut buf = [0u8; 1];
    sys.load_bytes(PhysAddr::new(addr), &mut buf, Cycle::new(u64::MAX / 2));
    buf[0]
}

/// Replays `scenario`, folds it into `digest`, and checks it: the first
/// crash fired where armed and carries the oracle's label, every queued
/// point fired exactly once, recovery was cycle-accounted, the recovered
/// image is byte-identical to the oracle's, and every ledger balances.
pub fn run_trial(
    ops: &[Op],
    cfg: SystemConfig,
    oracle: &PersistenceOracle,
    mut scenario: Scenario,
    prefix: &str,
    digest: &mut Digest,
) -> Trial {
    let (events, mut sys) = replay(ops, cfg, &mut scenario);
    digest.fold(&events, &sys);
    let label = format!("{prefix} {scenario:?}");
    let first = first_crash(&events);
    assert_eq!(first.event.cycle, scenario.crashes[0], "{label}: crash fired off its armed cycle");
    let expect = oracle.expect(&scenario);
    assert_eq!(first.event.outcome, expect.outcome, "{label}: outcome disagrees with the oracle");
    let diffs = oracle.diff(&scenario, |addr| read_byte(&mut sys, addr));
    assert!(
        diffs.is_empty(),
        "{label}: {} divergent byte(s) vs the oracle, first {:?}",
        diffs.len(),
        diffs.first()
    );
    let s = sys.stats();
    assert_eq!(
        s.crashes_injected + s.nested_crashes,
        scenario.crashes.len() as u64,
        "{label}: queued points lost or double-fired"
    );
    assert!(s.recovery_cycles >= first.report.recovery_cycles, "{label}: cycle accounting lost");
    assert!(first.report.recovery_cycles > Cycle::ZERO, "{label}: recovery was free");
    assert_ledgers(&sys, &label);
    Trial { scenario, events, sys, expect, label }
}

/// One-line reproduction: the first, middle and last trial of a seeded
/// sweep of `trials` trials, regenerated from the seed by [`nth_trial`]
/// without simulating the trials before them, replay to the same scenario,
/// first-crash outcome and recovered fingerprint as when generated in
/// sweep order. `cfg` maps a trial's combo to its config.
pub fn assert_trials_replay_alone<C: Clone>(
    ops: &[Op],
    seed: u64,
    trials: usize,
    generate: impl Fn(usize, &mut u64) -> (C, Scenario),
    cfg: impl Fn(&C) -> SystemConfig,
) {
    let run = |(combo, mut sc): (C, Scenario)| {
        let (events, sys) = replay(ops, cfg(&combo), &mut sc);
        (first_crash(&events).event.outcome, sys.visible_fingerprint(), sc)
    };
    let mut rng = seed;
    let in_sweep: Vec<_> = (0..trials).map(|trial| generate(trial, &mut rng)).collect();
    for i in [0, (trials - 1) / 2, trials - 1] {
        assert_eq!(
            run(nth_trial(seed, i, &generate)),
            run(in_sweep[i].clone()),
            "{}: replayed alone, the trial diverged from its sweep run",
            trial_label(seed, i)
        );
    }
}
