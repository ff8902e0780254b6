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
//! is enough to regenerate and replay that one trial alone.

#![allow(dead_code)]

use thynvm::core::{Expectation, InjectedCrash, PersistenceOracle, Scenario, TamperFault, ThyNvm};
use thynvm::types::{
    rng, CrashEvent, Cycle, Error, HealthRung, HealthStats, MemorySystem, PhysAddr, SystemConfig,
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
        for (base, len) in sys.take_quarantine_events() {
            oracle.record_quarantine(base, len);
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
/// returns the crash record of the request the first crash interrupted
/// (the latest crash inside that request — see [`first_crash`]) and the
/// settled system.
pub fn replay(ops: &[Op], cfg: SystemConfig, sc: &mut Scenario) -> (InjectedCrash, ThyNvm) {
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
    let mut first = None;
    for op in ops {
        now = apply(&mut sys, op, now).0;
        first = sys.take_crash_report();
        if first.is_some() {
            break;
        }
    }
    let first = first.unwrap_or_else(|| {
        // Armed cycle beyond the trace: power fails with the system idle.
        sys.poll_crash(now.max(at) + Cycle::new(1));
        sys.take_crash_report().expect("armed crash must fire")
    });
    if let Some(flush) = sys.last_wpq_flush() {
        // A second crash inside the same request would have replaced the
        // first crash's flush report, and with it the verdict.
        assert_eq!(first.event.cycle, at, "{sc:?}: the first crash's flush report was replaced");
        sc.commit_salvaged = flush.commit_salvaged();
    }
    let mut t = first.resume_at;
    while let Some(p) = sys.armed_crash_point() {
        t = sys.poll_crash(t.max(p) + Cycle::new(1)).expect("leftover point fires");
        sys.take_crash_report().expect("leftover crash reported");
    }
    (first, sys)
}

/// The first top-level crash's event: the crash that decides the image.
/// A queued point can fire as a second top-level crash inside the same
/// request as the first (say, mid-wait after recovery), so the record
/// [`ThyNvm::take_crash_report`] hands back is not always the first one's.
pub fn first_crash(sys: &ThyNvm) -> &CrashEvent {
    sys.stats()
        .crash_events
        .iter()
        .find(|e| e.recovery_step.is_none())
        .expect("a replayed scenario crashed at least once")
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
    assert_eq!(
        s.retry.media_attempts + s.retry.recovery_attempts,
        s.media.retries,
        "{label}: media retries not conserved ({:?} vs {:?})",
        s.retry,
        s.media
    );
    assert_eq!(
        s.retry.dram_attempts, s.dram.refetch_retries,
        "{label}: DRAM retries not conserved"
    );
    assert!(
        s.health.promotions <= s.health.demotions,
        "{label}: more promotions than demotions ({:?})",
        s.health
    );
}

/// FNV-1a fold of every trial's (first-crash cycle, first-crash outcome,
/// recovered visible fingerprint), in trial order: a test's replay
/// identity, printed under `--nocapture` so a refactor can prove it left
/// every trial unchanged.
pub struct Digest {
    hash: u64,
    trials: usize,
}

impl Digest {
    pub fn new() -> Self {
        Self { hash: 0xcbf2_9ce4_8422_2325, trials: 0 }
    }

    pub fn fold(&mut self, sys: &ThyNvm) {
        let first = first_crash(sys);
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

    pub fn print(&self, test: &str) {
        println!("sweep digest {test}: {:016x} over {} trials", self.hash, self.trials);
    }
}

/// One replayed and verified trial.
pub struct Trial {
    /// The scenario, with the run's salvage verdict filled in.
    pub scenario: Scenario,
    /// The crash record of the request the first crash interrupted.
    pub first: InjectedCrash,
    pub sys: ThyNvm,
    pub expect: Expectation,
    /// `<prefix> <scenario>`: every assertion message starts with it.
    pub label: String,
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
    let (first, mut sys) = replay(ops, cfg, &mut scenario);
    digest.fold(&sys);
    let label = format!("{prefix} {scenario:?}");
    let decisive = first_crash(&sys);
    assert_eq!(decisive.cycle, scenario.crashes[0], "{label}: crash fired off its armed cycle");
    let expect = oracle.expect(&scenario);
    assert_eq!(decisive.outcome, expect.outcome, "{label}: outcome disagrees with the oracle");
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
    Trial { scenario, first, sys, expect, label }
}
