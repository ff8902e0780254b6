//! Simulator-throughput harness: how fast does the *simulator itself* run?
//!
//! Every other experiment in this crate measures the simulated machine;
//! this one measures the host cost of simulating it. Five PRs of fault
//! machinery (per-64 B CRC charging, ECC/poison streams, splitmix64
//! decisions per read) each made the hot path heavier without anyone
//! noticing, because nothing recorded a trajectory. This module fixes
//! that: it runs a fixed set of workload × fault configurations through
//! the raw controller path (one through the data-carrying
//! `store_bytes`/`load_bytes` path, and one through the core and its
//! cache hierarchy), records simulated cycles per host
//! second and host nanoseconds per operation, and serializes the results
//! to `BENCH_simspeed.json` so CI can fail any PR that regresses
//! throughput by more than [`GATE_REGRESSION_PCT`].
//!
//! Two invariants make the artifact trustworthy:
//!
//! * **Simulated cycle totals are part of the schema.** A performance
//!   optimization must not change the simulated timeline; the gate
//!   compares `sim_cycles` *exactly* against the committed baseline, so a
//!   "speedup" that perturbs timing is caught even when every oracle sweep
//!   is green. Intentional timing changes update the baseline explicitly.
//! * **Host-time noise is bounded, not trusted.** Each case takes the
//!   best of N repeats (default 3) and the gate tolerates
//!   [`GATE_REGRESSION_PCT`] percent before failing, so shared-runner
//!   jitter does not flake the build.

use std::time::Instant;

use thynvm_core::ThyNvm;
use thynvm_types::{
    Cycle, DramFaultConfig, MediaFaultConfig, MemorySystem, PhysAddr, SystemConfig, TraceEvent,
};
use thynvm_workloads::kv::KvStore;
use thynvm_workloads::{
    Arena, HashKv, KvConfig, KvOp, MicroConfig, MicroPattern, YcsbConfig, YcsbMix,
};

use crate::report::Json;
use crate::runner::{run_raw, run_with_caches, SystemKind};

/// Schema identifier stamped into every artifact; bump on layout changes.
pub const SCHEMA: &str = "thynvm-simspeed/v1";

/// Throughput regression (percent, vs the committed baseline) at which the
/// CI gate fails the build.
pub const GATE_REGRESSION_PCT: f64 = 15.0;

/// Default number of repeats per case; the best (fastest) repeat wins.
pub const DEFAULT_REPEATS: u32 = 3;

/// One workload × fault configuration the harness measures.
#[derive(Debug)]
pub struct SpeedCase {
    /// Stable case identifier; the gate matches cases by this name.
    pub name: &'static str,
    /// System configuration (fault models on or off).
    pub cfg: SystemConfig,
    /// Pre-generated trace, so event generation is excluded from timing.
    pub events: Vec<TraceEvent>,
    /// The path each event takes.
    pub replay: Replay,
}

/// How a [`SpeedCase`] replays its trace, and so which layer it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// Each event is one raw `access` to ThyNVM: the controller.
    Raw,
    /// Each write is a `store_bytes` of a payload and each read a
    /// `load_bytes` on ThyNVM, so the functional byte store is timed
    /// along with the controller.
    Bytes,
    /// Each event runs through the in-order core and its L1/L2/L3 in front
    /// of Ideal DRAM, so nearly all the time is the cache hierarchy's.
    Caches,
}

/// One measured case: identity plus raw counters; ratios are derived.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Case identifier (matches [`SpeedCase::name`]).
    pub name: String,
    /// Trace events executed.
    pub ops: u64,
    /// Total simulated cycles — must be bit-identical run to run and
    /// across performance-only changes.
    pub sim_cycles: u64,
    /// Host wall-clock nanoseconds for the best repeat.
    pub host_ns: u64,
}

impl CaseResult {
    /// Simulated cycles advanced per host second — the headline throughput
    /// number the gate protects.
    pub fn sim_cycles_per_host_sec(&self) -> f64 {
        if self.host_ns == 0 {
            0.0
        } else {
            self.sim_cycles as f64 * 1e9 / self.host_ns as f64
        }
    }

    /// Host nanoseconds per trace event.
    pub fn host_ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.host_ns as f64 / self.ops as f64
        }
    }
}

/// Fault-on media configuration: everything armed at rates high enough to
/// exercise the fault paths constantly but low enough that the run still
/// completes (retries are bounded).
fn faulty_media() -> MediaFaultConfig {
    MediaFaultConfig {
        bit_flip_rate: 1e-3,
        stuck_at_threshold: 10_000,
        ..MediaFaultConfig::hardened()
    }
}

/// Fault-on DRAM ECC configuration, correspondingly armed.
fn faulty_dram() -> DramFaultConfig {
    DramFaultConfig {
        flip_rate: 1e-3,
        poison_rate: 1e-4,
        ..DramFaultConfig::hardened()
    }
}

/// The data-carrying case's store: record `k` is the 1 KiB at `k × 1 KiB`,
/// a search loads it whole and an insert stores it whole. It keeps no
/// index, so it reports no keys.
struct Records;

impl KvStore for Records {
    fn apply(&mut self, arena: &mut Arena, op: KvOp, value_bytes: u32) {
        let at = |key: u64| PhysAddr::new(key * u64::from(value_bytes));
        match op {
            KvOp::Search(key) => arena.read(at(key), value_bytes),
            KvOp::Insert(key) => arena.write(at(key), value_bytes),
            KvOp::Delete(_) => {}
        }
    }

    fn len(&self) -> usize {
        0
    }
}

/// Builds the fixed case set: {micro-random, YCSB-A} × {fault-off,
/// fault-on}, plus micro-random with the secure persistent memory mode
/// armed, with the health ladder armed, and with the volatile persist
/// buffer armed, all through the ThyNVM controller on the paper
/// configuration. The health-on twin pins the graceful-degradation
/// claim: with no faults injected the monitor only observes, so its
/// sim-cycle total must stay bit-identical to `micro-random/fault-off`.
/// The wpq-on case prices the §4.4 fence bookkeeping on a clean run.
/// `ycsb-a-bytes/fault-off` is the one data-carrying case: zipfian 1 KiB
/// `store_bytes`/`load_bytes` over 8 MiB, so the functional byte store
/// and the controller's multi-block dispatch are timed together.
/// `kv-hash/caches` replays Figure 9's hash-KV trace (256 B values) through
/// the core and the cache hierarchy over Ideal DRAM, which does little per
/// access, so it times the cache layer. `micro_accesses` scales the micro
/// traces and `ycsb_ops` the YCSB and KV operation counts; the
/// committed baseline uses [`cases`]'s defaults, and the gate refuses to
/// compare entries with different `ops`.
pub fn cases_scaled(micro_accesses: u64, ycsb_ops: u64) -> Vec<SpeedCase> {
    let micro_events: Vec<TraceEvent> =
        MicroConfig::new(MicroPattern::Random).events(micro_accesses).collect();
    let mut kv = HashKv::new(16 * 1024);
    let ycsb = YcsbConfig { records: 4 * 1024, ..YcsbConfig::new(YcsbMix::A) };
    let (ycsb_events, _) = ycsb.run(&mut kv, ycsb_ops);
    let kv_cfg = KvConfig::new(256);
    let mut hash = HashKv::new(16 * 1024);
    kv_cfg.populate(&mut hash, 8 * 1024);
    let (kv_events, _) = kv_cfg.trace(&mut hash, ycsb_ops);

    let base = SystemConfig::paper();
    let mut faulty = base;
    faulty.media = faulty_media();
    faulty.dram_fault = faulty_dram();
    faulty.validate().expect("fault-on simspeed configuration is valid");
    let mut secure = base;
    secure.security = thynvm_types::SecurityConfig::hardened();
    secure.validate().expect("secure simspeed configuration is valid");
    let mut health = base;
    health.health = thynvm_types::HealthConfig::hardened();
    health.validate().expect("health-on simspeed configuration is valid");
    let mut wpq = base;
    wpq.wpq = thynvm_types::PersistBufferConfig::armed();
    wpq.validate().expect("wpq-on simspeed configuration is valid");

    let raw = |name, cfg, events| SpeedCase { name, cfg, events, replay: Replay::Raw };
    vec![
        raw("micro-random/fault-off", base, micro_events.clone()),
        raw("micro-random/fault-on", faulty, micro_events.clone()),
        raw("micro-random/secure-on", secure, micro_events.clone()),
        raw("micro-random/health-on", health, micro_events.clone()),
        raw("micro-random/wpq-on", wpq, micro_events),
        raw("ycsb-a/fault-off", base, ycsb_events.clone()),
        raw("ycsb-a/fault-on", faulty, ycsb_events),
        SpeedCase {
            name: "ycsb-a-bytes/fault-off",
            cfg: base,
            events: YcsbConfig { records: 8 * 1024, ..YcsbConfig::new(YcsbMix::A) }
                .run(&mut Records, ycsb_ops)
                .0,
            replay: Replay::Bytes,
        },
        SpeedCase { name: "kv-hash/caches", cfg: base, events: kv_events, replay: Replay::Caches },
    ]
}

/// The default-scale case set the committed baseline is measured at.
pub fn cases() -> Vec<SpeedCase> {
    cases_scaled(60_000, 8_000)
}

/// Replays `events` through the functional byte path: each write stores a
/// payload with `store_bytes`, each read loads it back with `load_bytes`,
/// and an epoch ends whenever the controller asks (`checkpoint_due`).
/// Returns the cycle at which everything is drained.
fn run_bytes(cfg: SystemConfig, events: &[TraceEvent]) -> Cycle {
    let mut sys = ThyNvm::new(cfg);
    let len = events.iter().map(|e| e.req.bytes).max().unwrap_or(0);
    let mut buf = vec![0u8; len as usize];
    let mut now = Cycle::ZERO;
    for (i, e) in events.iter().enumerate() {
        now += Cycle::new(u64::from(e.gap));
        let data = &mut buf[..e.req.bytes as usize];
        now = if e.req.kind.is_write() {
            data.fill(i as u8);
            sys.store_bytes(e.req.addr, data, now)
        } else {
            sys.load_bytes(e.req.addr, data, now)
        };
        if sys.checkpoint_due(now) {
            now = sys.begin_checkpoint(now, &[]);
        }
    }
    sys.drain(now)
}

/// Measures one case: `repeats` timed runs, best host time wins.
///
/// # Panics
///
/// Panics if the simulated cycle total differs between repeats — that
/// would mean the simulator is nondeterministic, which invalidates every
/// oracle sweep in the repo, not just this harness.
pub fn measure(case: &SpeedCase, repeats: u32) -> CaseResult {
    let mut best_ns = u64::MAX;
    let mut sim_cycles: Option<Cycle> = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let events = case.events.iter().copied();
        let cycles = match case.replay {
            Replay::Raw => run_raw(SystemKind::ThyNvm, case.cfg, events).cycles,
            Replay::Bytes => run_bytes(case.cfg, &case.events),
            Replay::Caches => run_with_caches(SystemKind::IdealDram, case.cfg, events).cycles,
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        best_ns = best_ns.min(elapsed);
        match sim_cycles {
            None => sim_cycles = Some(cycles),
            Some(prev) => assert_eq!(
                prev, cycles,
                "{}: simulated cycle total changed between repeats",
                case.name
            ),
        }
    }
    CaseResult {
        name: case.name.to_owned(),
        ops: case.events.len() as u64,
        sim_cycles: sim_cycles.expect("at least one repeat ran").raw(),
        host_ns: best_ns,
    }
}

/// Runs every case at the committed-baseline scale.
pub fn run_all(repeats: u32) -> Vec<CaseResult> {
    cases().iter().map(|c| measure(c, repeats)).collect()
}

/// Serializes one trajectory entry.
fn entry_to_json(label: &str, results: &[CaseResult]) -> Json {
    Json::Obj(vec![
        ("label".to_owned(), Json::Str(label.to_owned())),
        (
            "cases".to_owned(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".to_owned(), Json::Str(r.name.clone())),
                            ("ops".to_owned(), Json::Int(r.ops)),
                            ("sim_cycles".to_owned(), Json::Int(r.sim_cycles)),
                            ("host_ns".to_owned(), Json::Int(r.host_ns)),
                            (
                                "sim_cycles_per_host_sec".to_owned(),
                                Json::Num(r.sim_cycles_per_host_sec()),
                            ),
                            ("host_ns_per_op".to_owned(), Json::Num(r.host_ns_per_op())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Appends a trajectory entry to an existing artifact (or starts a new
/// one), returning the updated document.
///
/// # Errors
///
/// Returns a message when `existing` is present but malformed.
pub fn append_entry(
    existing: Option<&Json>,
    label: &str,
    results: &[CaseResult],
) -> Result<Json, String> {
    let mut trajectory: Vec<Json> = match existing {
        None => Vec::new(),
        Some(doc) => {
            check_schema(doc)?;
            doc.get("trajectory")
                .and_then(Json::as_arr)
                .ok_or("artifact has no trajectory array")?
                .to_vec()
        }
    };
    trajectory.push(entry_to_json(label, results));
    Ok(Json::Obj(vec![
        ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
        ("gate_regression_pct".to_owned(), Json::Num(GATE_REGRESSION_PCT)),
        ("trajectory".to_owned(), Json::Arr(trajectory)),
    ]))
}

fn check_schema(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => Ok(()),
        Some(other) => Err(format!("unsupported schema '{other}' (want '{SCHEMA}')")),
        None => Err("artifact has no schema field".to_owned()),
    }
}

/// Decodes the *latest* trajectory entry of an artifact into results.
///
/// # Errors
///
/// Returns a message when the document is malformed or empty.
pub fn latest_entry(doc: &Json) -> Result<(String, Vec<CaseResult>), String> {
    check_schema(doc)?;
    let trajectory =
        doc.get("trajectory").and_then(Json::as_arr).ok_or("no trajectory array")?;
    let entry = trajectory.last().ok_or("trajectory is empty")?;
    let label = entry
        .get("label")
        .and_then(Json::as_str)
        .ok_or("entry has no label")?
        .to_owned();
    let cases = entry.get("cases").and_then(Json::as_arr).ok_or("entry has no cases")?;
    let mut results = Vec::new();
    for case in cases {
        let field = |key: &str| {
            case.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("case missing integer field '{key}'"))
        };
        results.push(CaseResult {
            name: case
                .get("name")
                .and_then(Json::as_str)
                .ok_or("case has no name")?
                .to_owned(),
            ops: field("ops")?,
            sim_cycles: field("sim_cycles")?,
            host_ns: field("host_ns")?,
        });
    }
    Ok((label, results))
}

/// Merges several measured runs of the same cases into one result per
/// case, with the case's `ops` and `sim_cycles` and the median of its
/// runs' `host_ns` (the mean of the middle two for an even count). One
/// best-of-N run on a shared machine can land a few percent off its
/// neighbours for no reason in the code; the median of many such runs
/// is what a trajectory entry should record.
///
/// # Errors
///
/// Returns a message when `runs` is empty, or when a run measures other
/// cases, or the same case with other `ops` or `sim_cycles`, than the
/// first: runs of different simulated timelines have no common median.
pub fn median_of(runs: &[Vec<CaseResult>]) -> Result<Vec<CaseResult>, String> {
    let (first, rest) = runs.split_first().ok_or("no runs to take the median of")?;
    for (i, run) in rest.iter().enumerate() {
        let names = |r: &[CaseResult]| r.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
        if names(run) != names(first) {
            return Err(format!("run {} measures other cases than run 1", i + 2));
        }
        let differs =
            |(c, f): &(&CaseResult, &CaseResult)| (c.ops, c.sim_cycles) != (f.ops, f.sim_cycles);
        if let Some((c, f)) = run.iter().zip(first).find(differs) {
            return Err(format!(
                "run {}: '{}' has ops {} and sim_cycles {}, run 1 {} and {}",
                i + 2,
                c.name,
                c.ops,
                c.sim_cycles,
                f.ops,
                f.sim_cycles
            ));
        }
    }
    let median = |k: usize| {
        let mut ns: Vec<u64> = runs.iter().map(|r| r[k].host_ns).collect();
        ns.sort_unstable();
        let mid = ns.len() / 2;
        if ns.len() % 2 == 1 { ns[mid] } else { (ns[mid - 1] + ns[mid]) / 2 }
    };
    Ok(first
        .iter()
        .enumerate()
        .map(|(k, f)| CaseResult { host_ns: median(k), ..f.clone() })
        .collect())
}

/// Outcome of gating one measured case against the committed baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateLine {
    /// Case name.
    pub name: String,
    /// Human-readable verdict for the CI log.
    pub message: String,
    /// Whether this case passed.
    pub ok: bool,
}

/// Compares fresh measurements against the latest committed entry.
///
/// Fails a case when (a) it is missing from either side, (b) `ops`
/// differs (the scale changed — the baseline must be re-recorded), (c)
/// `sim_cycles` differs (the simulated timeline moved: either a bug or an
/// intentional timing change that needs a baseline update), or (d)
/// throughput dropped more than `gate_pct` percent.
///
/// # Errors
///
/// Returns the malformed-artifact message when `baseline` cannot be
/// decoded.
pub fn check_against(
    baseline: &Json,
    current: &[CaseResult],
    gate_pct: f64,
) -> Result<Vec<GateLine>, String> {
    let (label, base) = latest_entry(baseline)?;
    let mut lines = Vec::new();
    for b in &base {
        if !current.iter().any(|c| c.name == b.name) {
            lines.push(GateLine {
                name: b.name.clone(),
                message: format!("baseline case '{}' not measured", b.name),
                ok: false,
            });
        }
    }
    for c in current {
        let Some(b) = base.iter().find(|b| b.name == c.name) else {
            lines.push(GateLine {
                name: c.name.clone(),
                message: format!(
                    "case '{}' absent from baseline '{label}' — record it with --update",
                    c.name
                ),
                ok: false,
            });
            continue;
        };
        if c.ops != b.ops {
            lines.push(GateLine {
                name: c.name.clone(),
                message: format!(
                    "ops changed {} -> {} — harness scale moved, re-record the baseline",
                    b.ops, c.ops
                ),
                ok: false,
            });
            continue;
        }
        if c.sim_cycles != b.sim_cycles {
            lines.push(GateLine {
                name: c.name.clone(),
                message: format!(
                    "sim_cycles changed {} -> {} — simulated timeline moved; if the timing \
                     change is intentional, re-record the baseline with --update",
                    b.sim_cycles, c.sim_cycles
                ),
                ok: false,
            });
            continue;
        }
        let base_tput = b.sim_cycles_per_host_sec();
        let cur_tput = c.sim_cycles_per_host_sec();
        let floor = base_tput * (1.0 - gate_pct / 100.0);
        let ratio = if base_tput > 0.0 { cur_tput / base_tput } else { 0.0 };
        lines.push(GateLine {
            name: c.name.clone(),
            message: format!(
                "{:.2}x of baseline '{label}' ({:.3e} vs {:.3e} sim cycles/host sec, floor {:.0}%)",
                ratio,
                cur_tput,
                base_tput,
                100.0 - gate_pct
            ),
            ok: cur_tput >= floor,
        });
    }
    Ok(lines)
}

/// Formats measured results as a [`crate::Table`] for terminal output.
pub fn table(results: &[CaseResult]) -> crate::Table {
    let mut t = crate::Table::new(
        "Simulator throughput (simspeed)",
        &["case", "ops", "sim cycles", "host ms", "Msim-cyc/s", "ns/op"],
    );
    for r in results {
        t.row(&[
            r.name.clone(),
            r.ops.to_string(),
            r.sim_cycles.to_string(),
            format!("{:.1}", r.host_ns as f64 / 1e6),
            format!("{:.1}", r.sim_cycles_per_host_sec() / 1e6),
            format!("{:.0}", r.host_ns_per_op()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &str, sim_cycles: u64, host_ns: u64) -> CaseResult {
        CaseResult { name: name.to_owned(), ops: 100, sim_cycles, host_ns }
    }

    #[test]
    fn schema_roundtrip_every_field_parses_back() {
        let results =
            vec![fake("micro-random/fault-off", 123_456_789_012, 42_000_000), fake("b", 7, 9)];
        let doc = append_entry(None, "seed", &results).unwrap();
        let text = doc.render();
        assert!(!text.contains("NaN") && !text.contains("inf"), "no NaN/Inf: {text}");
        let back = Json::parse(&text).expect("artifact parses");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            back.get("gate_regression_pct").and_then(Json::as_f64),
            Some(GATE_REGRESSION_PCT)
        );
        let (label, decoded) = latest_entry(&back).unwrap();
        assert_eq!(label, "seed");
        assert_eq!(decoded, results);
        // Derived ratios serialize finite and reparse.
        let case0 = back.get("trajectory").unwrap().as_arr().unwrap()[0]
            .get("cases")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .clone();
        let tput = case0.get("sim_cycles_per_host_sec").unwrap().as_f64().unwrap();
        assert!((tput - results[0].sim_cycles_per_host_sec()).abs() < 1e-6);
        assert!(case0.get("host_ns_per_op").unwrap().as_f64().unwrap().is_finite());
    }

    #[test]
    fn zero_host_time_yields_zero_not_nan() {
        let r = fake("z", 100, 0);
        assert_eq!(r.sim_cycles_per_host_sec(), 0.0);
        let r2 = CaseResult { ops: 0, ..fake("z", 0, 0) };
        assert_eq!(r2.host_ns_per_op(), 0.0);
    }

    #[test]
    fn append_extends_trajectory() {
        let doc = append_entry(None, "first", &[fake("a", 10, 10)]).unwrap();
        let doc = append_entry(Some(&doc), "second", &[fake("a", 10, 5)]).unwrap();
        let trajectory = doc.get("trajectory").unwrap().as_arr().unwrap();
        assert_eq!(trajectory.len(), 2);
        let (label, results) = latest_entry(&doc).unwrap();
        assert_eq!(label, "second");
        assert_eq!(results[0].host_ns, 5);
    }

    #[test]
    fn append_rejects_malformed_artifact() {
        let bogus = Json::Obj(vec![("schema".into(), Json::Str("other/v9".into()))]);
        assert!(append_entry(Some(&bogus), "x", &[]).is_err());
        assert!(latest_entry(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn gate_passes_identical_measurements() {
        let results = vec![fake("a", 1000, 1000)];
        let doc = append_entry(None, "base", &results).unwrap();
        let lines = check_against(&doc, &results, GATE_REGRESSION_PCT).unwrap();
        assert!(lines.iter().all(|l| l.ok), "{lines:?}");
    }

    #[test]
    fn gate_fails_on_throughput_regression_beyond_pct() {
        let base = vec![fake("a", 1000, 1000)];
        let doc = append_entry(None, "base", &base).unwrap();
        // 30% slower host time -> ~23% throughput drop -> fails a 15% gate.
        let slow = vec![fake("a", 1000, 1300)];
        let lines = check_against(&doc, &slow, GATE_REGRESSION_PCT).unwrap();
        assert!(lines.iter().any(|l| !l.ok), "{lines:?}");
        // ...but passes a 50% gate.
        let lines = check_against(&doc, &slow, 50.0).unwrap();
        assert!(lines.iter().all(|l| l.ok), "{lines:?}");
    }

    #[test]
    fn gate_fails_on_sim_cycle_drift() {
        let doc = append_entry(None, "base", &[fake("a", 1000, 1000)]).unwrap();
        let drifted = vec![fake("a", 1001, 900)];
        let lines = check_against(&doc, &drifted, GATE_REGRESSION_PCT).unwrap();
        assert!(
            lines.iter().any(|l| !l.ok && l.message.contains("sim_cycles")),
            "{lines:?}"
        );
    }

    #[test]
    fn gate_fails_on_missing_or_extra_cases() {
        let doc = append_entry(None, "base", &[fake("a", 1, 1), fake("b", 1, 1)]).unwrap();
        let lines = check_against(&doc, &[fake("a", 1, 1)], GATE_REGRESSION_PCT).unwrap();
        assert!(lines.iter().any(|l| !l.ok && l.name == "b"), "{lines:?}");
        let lines =
            check_against(&doc, &[fake("a", 1, 1), fake("b", 1, 1), fake("c", 1, 1)], 15.0)
                .unwrap();
        assert!(lines.iter().any(|l| !l.ok && l.name == "c"), "{lines:?}");
    }

    #[test]
    fn gate_fails_on_ops_change() {
        let doc = append_entry(None, "base", &[fake("a", 1000, 1000)]).unwrap();
        let rescaled = vec![CaseResult { ops: 200, ..fake("a", 1000, 1000) }];
        let lines = check_against(&doc, &rescaled, GATE_REGRESSION_PCT).unwrap();
        assert!(lines.iter().any(|l| !l.ok && l.message.contains("ops")), "{lines:?}");
    }

    #[test]
    fn median_of_takes_each_cases_median_and_refuses_other_timelines() {
        // Three runs as `--update` writes them, each its own artifact.
        let runs = [[30, 7], [10, 9], [20, 8]].map(|[a, b]| {
            let doc = append_entry(None, "run", &[fake("a", 1000, a), fake("b", 50, b)]).unwrap();
            latest_entry(&doc).unwrap().1
        });
        let merged = median_of(&runs).unwrap();
        assert_eq!(merged, vec![fake("a", 1000, 20), fake("b", 50, 8)]);
        // An even count takes the mean of the middle two.
        assert_eq!(median_of(&runs[..2]).unwrap(), vec![fake("a", 1000, 20), fake("b", 50, 8)]);
        assert_eq!(median_of(&runs[..1]).unwrap(), runs[0]);
        // Runs of another simulated timeline, scale or case list.
        let mut drifted = runs.to_vec();
        drifted[2][1].sim_cycles += 1;
        let err = median_of(&drifted).unwrap_err();
        assert!(err.contains("run 3") && err.contains("'b'"), "{err}");
        let mut rescaled = runs.to_vec();
        rescaled[1][0].ops = 200;
        assert!(median_of(&rescaled).is_err());
        let mut fewer = runs.to_vec();
        fewer[1].pop();
        assert!(median_of(&fewer).is_err());
        assert!(median_of(&[]).is_err());
    }

    #[test]
    fn small_cases_measure_deterministically() {
        // A miniature end-to-end run: all nine cases execute, produce
        // nonzero simulated time, and the cycle totals are repeatable.
        let cases = cases_scaled(400, 100);
        assert_eq!(cases.len(), 9);
        let count = |replay| cases.iter().filter(|c| c.replay == replay).count();
        assert_eq!(count(Replay::Bytes), 1, "one data-carrying case");
        assert_eq!(count(Replay::Caches), 1, "one case through the caches");
        let mut by_name = std::collections::HashMap::new();
        for case in &cases {
            let a = measure(case, 2);
            let b = measure(case, 1);
            assert_eq!(a.sim_cycles, b.sim_cycles, "{} is nondeterministic", case.name);
            assert!(a.sim_cycles > 0, "{} advanced no simulated time", case.name);
            assert_eq!(a.ops, case.events.len() as u64);
            by_name.insert(case.name, a.sim_cycles);
        }
        // The graceful-degradation twin: on a clean run an armed health
        // monitor pays only the per-checkpoint rung persist (the health
        // word sealed next to the commit record), a sliver of the total.
        // Health *off* stays bit-identical to pre-ladder behavior — that
        // side is pinned by the unchanged committed baseline entries.
        let (on, off) = (by_name["micro-random/health-on"], by_name["micro-random/fault-off"]);
        assert!(on >= off, "arming the monitor cannot make a clean run faster");
        assert!(
            (on - off) * 100 < off,
            "health-on overhead on a clean run must stay under 1% ({on} vs {off})"
        );
        // The persist-buffer twin: the serialized checkpoint timeline
        // retires every entry before each §4.4 fence fires, so arming the
        // WPQ costs fence bookkeeping, not stall cycles. Off stays
        // bit-identical to pre-buffer behavior — pinned by the unchanged
        // committed baseline entries.
        let wpq_on = by_name["micro-random/wpq-on"];
        assert!(wpq_on >= off, "arming the buffer cannot make a clean run faster");
        assert!(
            (wpq_on - off) * 100 < off,
            "wpq-on overhead on a clean run must stay under 1% ({wpq_on} vs {off})"
        );
    }

    #[test]
    fn fault_on_cases_really_arm_the_models() {
        let cases = cases_scaled(16, 4);
        assert!(cases.iter().any(|c| c.cfg.media.enabled && c.cfg.dram_fault.enabled));
        assert!(cases.iter().any(|c| !c.cfg.media.enabled && !c.cfg.dram_fault.enabled));
        assert!(cases.iter().any(|c| c.cfg.security.enabled), "secure case present");
        assert!(cases.iter().any(|c| c.cfg.wpq.enabled), "wpq case present");
        for case in cases {
            case.cfg.validate().expect("every simspeed config validates");
        }
    }

    #[test]
    fn table_has_one_row_per_case() {
        let t = table(&[fake("a", 1, 1), fake("b", 2, 2)]);
        assert_eq!(t.len(), 2);
    }
}
