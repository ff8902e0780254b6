//! `thynvm-sim` — command-line driver for the ThyNVM simulator.
//!
//! Runs any workload × system combination from the paper's evaluation and
//! prints a performance/traffic report, optionally with trace
//! characterization and epoch-length histograms.
//!
//! ```bash
//! thynvm-sim --workload random --system all --accesses 200000
//! thynvm-sim --workload kv-hash --ops 20000 --request-bytes 256
//! thynvm-sim --workload spec:lbm --system thynvm --histograms
//! thynvm-sim --workload sliding --analyze
//! ```

use thynvm::bench::runner::{run_with_caches, SystemKind};
use thynvm::cache::CoreModel;
use thynvm::core::ThyNvm;
use thynvm::types::{MemorySystem, SystemConfig, TraceEvent};
use thynvm::workloads::analysis::TraceStats;
use thynvm::workloads::kv::{btree::BTreeKv, hash::HashKv, rbtree::RbTreeKv, KvConfig};
use thynvm::workloads::micro::{MicroConfig, MicroPattern};
use thynvm::workloads::spec::{profile, SpecWorkload};

const USAGE: &str = "\
thynvm-sim — ThyNVM persistent-memory simulator

USAGE:
    thynvm-sim [OPTIONS]

OPTIONS:
    --workload <W>        random | streaming | sliding | kv-hash | kv-rbtree
                          | kv-btree | spec:<name>  [default: random]
    --system <S>          ideal-dram | ideal-nvm | journal | shadow | thynvm
                          | block-only | page-only | no-overlap | all
                                                 [default: all]
    --accesses <N>        trace length for micro/spec workloads
                                                 [default: 200000]
    --ops <N>             transactions for KV workloads [default: 20000]
    --request-bytes <N>   KV value size            [default: 256]
    --btt <N>             BTT entries              [default: 2048]
    --ptt <N>             PTT entries              [default: 4096]
    --epoch-ms <N>        max epoch length in ms   [default: 10]
    --save-trace <PATH>   save the generated trace (binary .thyt format)
    --load-trace <PATH>   replay a saved trace instead of generating one
    --analyze             print trace characterization before running
    --histograms          print ThyNVM epoch/checkpoint histograms
    --help                this text
";

#[derive(Debug)]
struct Args {
    workload: String,
    system: String,
    accesses: u64,
    ops: u64,
    request_bytes: u32,
    btt: usize,
    ptt: usize,
    epoch_ms: u64,
    analyze: bool,
    histograms: bool,
    save_trace: Option<String>,
    load_trace: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: "random".into(),
            system: "all".into(),
            accesses: 200_000,
            ops: 20_000,
            request_bytes: 256,
            btt: 2048,
            ptt: 4096,
            epoch_ms: 10,
            analyze: false,
            histograms: false,
            save_trace: None,
            load_trace: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value("--workload")?,
                "--system" => args.system = value("--system")?,
                "--accesses" => {
                    args.accesses =
                        value("--accesses")?.parse().map_err(|e| format!("--accesses: {e}"))?
                }
                "--ops" => args.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
                "--request-bytes" => {
                    args.request_bytes = value("--request-bytes")?
                        .parse()
                        .map_err(|e| format!("--request-bytes: {e}"))?
                }
                "--btt" => args.btt = value("--btt")?.parse().map_err(|e| format!("--btt: {e}"))?,
                "--ptt" => args.ptt = value("--ptt")?.parse().map_err(|e| format!("--ptt: {e}"))?,
                "--epoch-ms" => {
                    args.epoch_ms =
                        value("--epoch-ms")?.parse().map_err(|e| format!("--epoch-ms: {e}"))?
                }
                "--save-trace" => args.save_trace = Some(value("--save-trace")?),
                "--load-trace" => args.load_trace = Some(value("--load-trace")?),
                "--analyze" => args.analyze = true,
                "--histograms" => args.histograms = true,
                "--help" | "-h" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        Ok(args)
    }
}

/// Builds the workload trace and its transaction count (1 per access for
/// non-KV workloads).
fn build_trace(args: &Args) -> Result<(Vec<TraceEvent>, u64, String), String> {
    let w = args.workload.as_str();
    if let Some(name) = w.strip_prefix("spec:") {
        let p = profile(name).ok_or_else(|| format!("unknown SPEC profile: {name}"))?;
        let events = SpecWorkload::new(p).events(args.accesses).collect();
        return Ok((events, args.accesses, format!("spec:{name}")));
    }
    match w {
        "random" | "streaming" | "sliding" => {
            let pattern = match w {
                "random" => MicroPattern::Random,
                "streaming" => MicroPattern::Streaming,
                _ => MicroPattern::Sliding,
            };
            let events = MicroConfig::new(pattern).events(args.accesses).collect();
            Ok((events, args.accesses, w.to_owned()))
        }
        "kv-hash" => {
            let cfg = KvConfig::new(args.request_bytes);
            let mut store = HashKv::new(16 * 1024);
            cfg.populate(&mut store, args.ops / 4);
            let (events, ops) = cfg.trace(&mut store, args.ops);
            Ok((events, ops, format!("kv-hash ({} B values)", args.request_bytes)))
        }
        "kv-rbtree" => {
            let cfg = KvConfig::new(args.request_bytes);
            let mut store = RbTreeKv::new();
            cfg.populate(&mut store, args.ops / 4);
            let (events, ops) = cfg.trace(&mut store, args.ops);
            Ok((events, ops, format!("kv-rbtree ({} B values)", args.request_bytes)))
        }
        "kv-btree" => {
            let cfg = KvConfig::new(args.request_bytes);
            let mut store = BTreeKv::new();
            cfg.populate(&mut store, args.ops / 4);
            let (events, ops) = cfg.trace(&mut store, args.ops);
            Ok((events, ops, format!("kv-btree ({} B values)", args.request_bytes)))
        }
        other => Err(format!("unknown workload: {other}")),
    }
}

fn systems_for(selector: &str) -> Result<Vec<SystemKind>, String> {
    Ok(match selector {
        "all" => vec![
            SystemKind::IdealDram,
            SystemKind::IdealNvm,
            SystemKind::Journal,
            SystemKind::Shadow,
            SystemKind::ThyNvm,
        ],
        "ideal-dram" => vec![SystemKind::IdealDram],
        "ideal-nvm" => vec![SystemKind::IdealNvm],
        "journal" => vec![SystemKind::Journal],
        "shadow" => vec![SystemKind::Shadow],
        "thynvm" => vec![SystemKind::ThyNvm],
        "block-only" => vec![SystemKind::ThyNvmBlockOnly],
        "page-only" => vec![SystemKind::ThyNvmPageOnly],
        "no-overlap" => vec![SystemKind::ThyNvmNoOverlap],
        other => return Err(format!("unknown system: {other}")),
    })
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut cfg = SystemConfig::paper();
    cfg.thynvm.btt_entries = args.btt;
    cfg.thynvm.ptt_entries = args.ptt;
    cfg.thynvm.epoch_max_ms = args.epoch_ms;
    if let Err(e) = cfg.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    let (events, transactions, label) = if let Some(path) = &args.load_trace {
        match thynvm::workloads::tracefile::load(path) {
            Ok(events) => {
                let n = events.len() as u64;
                (events, n, format!("trace:{path}"))
            }
            Err(e) => {
                eprintln!("error: cannot load trace {path}: {e}");
                std::process::exit(2);
            }
        }
    } else {
        match build_trace(&args) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    };
    if let Some(path) = &args.save_trace {
        match thynvm::workloads::tracefile::save(path, events.iter().copied()) {
            Ok(n) => println!("saved {n} events to {path}"),
            Err(e) => {
                eprintln!("error: cannot save trace {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    println!("workload: {label} — {} events, {} transactions", events.len(), transactions);
    if args.analyze {
        let stats = TraceStats::from_events(events.iter().copied());
        println!("{}", stats.report(&label));
    }
    println!();

    let systems = match systems_for(&args.system) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    println!(
        "{:<12} {:>10} {:>8} {:>11} {:>11} {:>11} {:>8} {:>8}",
        "system", "ms", "IPC", "KTPS", "NVM-wr MB", "DRAM-wr MB", "ckpts", "stall%"
    );
    for kind in systems {
        let res = run_with_caches(kind, cfg, events.iter().copied());
        println!(
            "{:<12} {:>10.3} {:>8.3} {:>11.1} {:>11.2} {:>11.2} {:>8} {:>8.2}",
            res.system,
            res.cycles.as_secs() * 1e3,
            res.ipc(),
            res.throughput_tps(transactions) / 1e3,
            res.mem.nvm_write_bytes_total() as f64 / 1e6,
            res.mem.dram_write_bytes as f64 / 1e6,
            res.mem.epochs_completed,
            res.ckpt_stall_share(),
        );
    }

    if args.histograms {
        let mut sys = ThyNvm::new(cfg);
        let mut core = CoreModel::new(cfg.cache);
        core.run_trace(events.iter().copied(), &mut sys);
        let _ = MemorySystem::stats(&sys);
        println!("\nThyNVM epoch execution-phase lengths (cycles):");
        println!("{}", sys.epoch_length_histogram().render(40));
        println!("ThyNVM checkpointing-phase durations (cycles):");
        println!("{}", sys.job_duration_histogram().render(40));
    }
}
