//! Simulator-throughput harness CLI.
//!
//! ```bash
//! # Measure and print (no file I/O):
//! cargo run --release -p thynvm-bench --bin simspeed
//!
//! # Append a trajectory entry to the committed artifact:
//! cargo run --release -p thynvm-bench --bin simspeed -- \
//!     --update BENCH_simspeed.json --label "PR6 flattened hot path"
//!
//! # Append one entry whose per-case host time is the median of several
//! # runs, each recorded by its own `--update` into a file of its own
//! # (refused unless every run has the same sim_cycles); measures nothing:
//! cargo run --release -p thynvm-bench --bin simspeed -- \
//!     --median-of /tmp/run.*.json --update BENCH_simspeed.json --label "..."
//!
//! # CI regression gate (exit 1 on >15% throughput drop or any
//! # simulated-cycle drift vs the latest committed entry):
//! cargo run --release -p thynvm-bench --bin simspeed -- \
//!     --check BENCH_simspeed.json
//! ```
//!
//! `SIMSPEED_GATE_PCT` overrides the gate threshold (useful on noisy
//! shared runners); `SIMSPEED_REPEATS` overrides the best-of repeat count.

use std::process::ExitCode;

use thynvm_bench::report::Json;
use thynvm_bench::simspeed;

struct Args {
    check: Option<String>,
    update: Option<String>,
    /// Files whose latest entries are merged instead of measuring.
    median_of: Vec<String>,
    label: String,
    repeats: u32,
    gate_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: None,
        update: None,
        median_of: Vec::new(),
        label: "unlabeled".to_owned(),
        repeats: env_u32("SIMSPEED_REPEATS", simspeed::DEFAULT_REPEATS)?,
        gate_pct: env_f64("SIMSPEED_GATE_PCT", simspeed::GATE_REGRESSION_PCT)?,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--check" => args.check = Some(value("--check")?),
            "--update" => args.update = Some(value("--update")?),
            "--median-of" => {
                while let Some(file) = it.next_if(|a| !a.starts_with("--")) {
                    args.median_of.push(file);
                }
                if args.median_of.is_empty() {
                    return Err("--median-of needs at least one file".to_owned());
                }
            }
            "--label" => args.label = value("--label")?,
            "--repeats" => {
                args.repeats = value("--repeats")?.parse().map_err(|e| format!("--repeats: {e}"))?;
            }
            other => {
                return Err(format!(
                    "unknown argument '{other}' \
                     (see --check/--update/--median-of/--label/--repeats)"
                ))
            }
        }
    }
    if args.check.is_some() && args.update.is_some() {
        return Err("--check and --update are mutually exclusive".to_owned());
    }
    if args.check.is_some() && !args.median_of.is_empty() {
        return Err("--check measures; --median-of merges earlier runs instead".to_owned());
    }
    Ok(args)
}

fn env_u32(name: &str, default: u32) -> Result<u32, String> {
    match std::env::var(name) {
        Ok(v) => v.parse().map_err(|e| format!("{name}: {e}")),
        Err(_) => Ok(default),
    }
}

fn env_f64(name: &str, default: f64) -> Result<f64, String> {
    match std::env::var(name) {
        Ok(v) => v.parse().map_err(|e| format!("{name}: {e}")),
        Err(_) => Ok(default),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let results = if args.median_of.is_empty() {
        eprintln!("simspeed: measuring {} repeats per case...", args.repeats);
        simspeed::run_all(args.repeats)
    } else {
        let latest = |path: &String| {
            let doc = load(path)?;
            let (_, run) = simspeed::latest_entry(&doc).map_err(|e| format!("{path}: {e}"))?;
            Ok(run)
        };
        let runs = args.median_of.iter().map(latest).collect::<Result<Vec<_>, String>>()?;
        eprintln!("simspeed: per-case median of {} runs", runs.len());
        simspeed::median_of(&runs)?
    };
    simspeed::table(&results).print();

    if let Some(path) = &args.check {
        let baseline = load(path)?;
        let lines = simspeed::check_against(&baseline, &results, args.gate_pct)?;
        let mut ok = true;
        for line in &lines {
            println!("{} {}: {}", if line.ok { "PASS" } else { "FAIL" }, line.name, line.message);
            ok &= line.ok;
        }
        return Ok(ok);
    }

    if let Some(path) = &args.update {
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => Some(Json::parse(&text).map_err(|e| format!("{path}: {e}"))?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("{path}: {e}")),
        };
        let doc = simspeed::append_entry(existing.as_ref(), &args.label, &results)?;
        std::fs::write(path, doc.render()).map_err(|e| format!("{path}: {e}"))?;
        println!("appended entry '{}' to {path}", args.label);
    }
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("simspeed: gate FAILED");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("simspeed: error: {msg}");
            ExitCode::FAILURE
        }
    }
}
