//! One entry point per paper artifact.
//!
//! Every function takes a [`Scale`] so the same code powers fast unit tests
//! and full-scale `cargo bench` runs, and returns structured results that
//! render to a [`Table`] mirroring the corresponding figure.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`tab1_tradeoff`] | Table 1 + the §1 dual-scheme claims |
//! | [`tab2_config`] | Table 2 (system configuration) |
//! | [`fig7_micro_exec_time`] | Figure 7 (micro-benchmark execution time) |
//! | [`fig8_write_traffic`] | Figure 8 (NVM write traffic + ckpt delay) |
//! | [`fig9_fig10_kv`] | Figures 9 and 10 (KV throughput & bandwidth) |
//! | [`fig11_spec_ipc`] | Figure 11 (SPEC CPU2006 normalized IPC) |
//! | [`fig12_btt_sensitivity`] | Figure 12 (BTT size sweep) |
//! | [`e9_overlap_ablation`] | §3.1/§5.3 stop-the-world vs overlap |

use thynvm_core::{EventKind, InjectedCrash};
use thynvm_types::SystemConfig;
use thynvm_workloads::kv::{hash::HashKv, rbtree::RbTreeKv, KvConfig};
use thynvm_workloads::micro::{MicroConfig, MicroPattern};
use thynvm_workloads::spec::{SpecWorkload, SPEC_2006};

use crate::report::{fmt_f, fmt_mb, Table};
use crate::runner::{run_with_caches, RunResult, SystemKind};

/// How much work each experiment performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Accesses per micro-benchmark run.
    pub micro_accesses: u64,
    /// Operations per key-value run.
    pub kv_ops: u64,
    /// Keys pre-populated before measuring a key-value run.
    pub kv_prepopulate: u64,
    /// Accesses per SPEC-like run.
    pub spec_accesses: u64,
}

impl Scale {
    /// Full scale for `cargo bench` (minutes of wall time overall).
    pub const fn bench() -> Self {
        Self {
            micro_accesses: 2_000_000,
            kv_ops: 400_000,
            kv_prepopulate: 8_192,
            spec_accesses: 2_000_000,
        }
    }

    /// Reduced scale for unit/integration tests (sub-second per run). The
    /// micro scale keeps the streaming footprint larger than the L3 so that
    /// write traffic actually reaches the memory controller.
    pub const fn test() -> Self {
        Self { micro_accesses: 80_000, kv_ops: 1_500, kv_prepopulate: 512, spec_accesses: 30_000 }
    }

    /// Scale selected by the `THYNVM_SCALE` environment variable (`test`
    /// for the reduced scale, anything else or unset for full scale) —
    /// lets `cargo bench` be smoke-tested quickly.
    pub fn from_env() -> Self {
        match std::env::var("THYNVM_SCALE").as_deref() {
            Ok("test") => Self::test(),
            _ => Self::bench(),
        }
    }
}

/// One (workload, system) cell of a figure.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload label (pattern / benchmark / request size).
    pub workload: String,
    /// System label.
    pub system: &'static str,
    /// The full run result.
    pub result: RunResult,
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

/// Figure 7: execution time of the three micro-benchmarks on all five
/// systems, normalized to Ideal DRAM.
pub fn fig7_micro_exec_time(scale: Scale) -> (Table, Vec<Cell>) {
    let cfg = SystemConfig::paper();
    let mut cells = Vec::new();
    let mut table = Table::new(
        "Figure 7: micro-benchmark execution time (relative to Ideal DRAM)",
        &["pattern", "Ideal DRAM", "Ideal NVM", "Journal", "Shadow", "ThyNVM"],
    );
    for pattern in MicroPattern::all() {
        let micro = MicroConfig::new(pattern);
        let mut row = vec![pattern.as_str().to_owned()];
        let mut baseline: Option<RunResult> = None;
        for kind in SystemKind::paper_five() {
            let res = run_with_caches(kind, cfg, micro.events(scale.micro_accesses));
            let rel = match &baseline {
                None => 1.0,
                Some(b) => res.relative_time(b),
            };
            if baseline.is_none() {
                baseline = Some(res.clone());
            }
            row.push(fmt_f(rel));
            cells.push(Cell { workload: pattern.as_str().into(), system: kind.as_str(), result: res });
        }
        table.row(&row);
    }
    (table, cells)
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

/// Figure 8: NVM write traffic (CPU / checkpointing / migration) and the
/// percentage of execution time spent stalled on checkpointing, for the
/// three consistency systems on each micro-benchmark.
pub fn fig8_write_traffic(scale: Scale) -> (Table, Vec<Cell>) {
    let cfg = SystemConfig::paper();
    let mut cells = Vec::new();
    let mut table = Table::new(
        "Figure 8: NVM write traffic (MB) and checkpointing delay",
        &["pattern", "system", "CPU", "Checkpoint", "Migration", "total", "% time on ckpt"],
    );
    for pattern in MicroPattern::all() {
        let micro = MicroConfig::new(pattern);
        for kind in [SystemKind::Journal, SystemKind::Shadow, SystemKind::ThyNvm] {
            let res = run_with_caches(kind, cfg, micro.events(scale.micro_accesses));
            table.row(&[
                pattern.as_str().into(),
                kind.as_str().into(),
                fmt_mb(res.mem.nvm_write_bytes_cpu),
                fmt_mb(res.mem.nvm_write_bytes_ckpt),
                fmt_mb(res.mem.nvm_write_bytes_migration),
                fmt_mb(res.mem.nvm_write_bytes_total()),
                fmt_f(res.ckpt_stall_share()),
            ]);
            cells.push(Cell { workload: pattern.as_str().into(), system: kind.as_str(), result: res });
        }
    }
    (table, cells)
}

// ---------------------------------------------------------------------
// Figures 9 and 10
// ---------------------------------------------------------------------

/// Which key-value store a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvKind {
    /// Chained hash table (Figures 9a/10a).
    HashTable,
    /// Red-black tree (Figures 9b/10b).
    RbTree,
}

impl KvKind {
    /// Display name.
    pub const fn as_str(self) -> &'static str {
        match self {
            KvKind::HashTable => "hash table",
            KvKind::RbTree => "red-black tree",
        }
    }
}

/// The request sizes swept in Figures 9/10.
pub const KV_REQUEST_SIZES: [u32; 5] = [16, 64, 256, 1024, 4096];

/// Figures 9 and 10: transaction throughput (KTPS) and write bandwidth
/// (MB/s) of the two key-value stores across request sizes, on all five
/// systems. One simulation powers both figures.
pub fn fig9_fig10_kv(scale: Scale, kv: KvKind) -> (Table, Table, Vec<Cell>) {
    let cfg = SystemConfig::paper();
    let mut cells = Vec::new();
    let mut throughput = Table::new(
        &format!("Figure 9: transaction throughput (KTPS), {} store", kv.as_str()),
        &["request B", "Ideal DRAM", "Ideal NVM", "Journal", "Shadow", "ThyNVM"],
    );
    let mut bandwidth = Table::new(
        &format!("Figure 10: write bandwidth (MB/s), {} store", kv.as_str()),
        &["request B", "Ideal DRAM", "Ideal NVM", "Journal", "Shadow", "ThyNVM"],
    );
    for request in KV_REQUEST_SIZES {
        let kv_cfg = KvConfig::new(request);
        // Larger requests move proportionally more data per transaction;
        // scale the op count down so every point simulates a comparable
        // amount of work (the paper ran fixed instruction counts).
        let ops_for_size =
            (scale.kv_ops * 64 / u64::from(request)).clamp(scale.kv_ops / 8, scale.kv_ops);
        // Build the trace once per request size; all systems replay it.
        let (events, ops) = match kv {
            KvKind::HashTable => {
                let mut store = HashKv::new(16 * 1024);
                kv_cfg.populate(&mut store, scale.kv_prepopulate);
                kv_cfg.trace(&mut store, ops_for_size)
            }
            KvKind::RbTree => {
                let mut store = RbTreeKv::new();
                kv_cfg.populate(&mut store, scale.kv_prepopulate);
                kv_cfg.trace(&mut store, ops_for_size)
            }
        };
        let mut t_row = vec![request.to_string()];
        let mut b_row = vec![request.to_string()];
        for kind in SystemKind::paper_five() {
            let res = run_with_caches(kind, cfg, events.iter().copied());
            t_row.push(fmt_f(res.throughput_tps(ops) / 1e3));
            b_row.push(fmt_f(res.write_bandwidth_mbps()));
            cells.push(Cell { workload: format!("{}B", request), system: kind.as_str(), result: res });
        }
        throughput.row(&t_row);
        bandwidth.row(&b_row);
    }
    (throughput, bandwidth, cells)
}

// ---------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------

/// Figure 11: IPC of the eight memory-intensive SPEC CPU2006 stand-ins,
/// normalized to Ideal DRAM.
pub fn fig11_spec_ipc(scale: Scale) -> (Table, Vec<Cell>) {
    let cfg = SystemConfig::paper();
    let mut cells = Vec::new();
    let mut table = Table::new(
        "Figure 11: SPEC CPU2006 IPC (normalized to Ideal DRAM)",
        &["benchmark", "Ideal DRAM", "Ideal NVM", "ThyNVM"],
    );
    for profile in SPEC_2006 {
        let workload = SpecWorkload::new(profile);
        let mut row = vec![profile.name.to_owned()];
        let mut base_ipc = 0.0f64;
        for kind in [SystemKind::IdealDram, SystemKind::IdealNvm, SystemKind::ThyNvm] {
            let res = run_with_caches(kind, cfg, workload.events(scale.spec_accesses));
            let ipc = res.ipc();
            if kind == SystemKind::IdealDram {
                base_ipc = ipc;
                row.push("1.000".into());
            } else {
                row.push(fmt_f(if base_ipc > 0.0 { ipc / base_ipc } else { 0.0 }));
            }
            cells.push(Cell { workload: profile.name.into(), system: kind.as_str(), result: res });
        }
        table.row(&row);
    }
    (table, cells)
}

// ---------------------------------------------------------------------
// Figure 12
// ---------------------------------------------------------------------

/// The BTT sizes swept in Figure 12.
pub const BTT_SIZES: [usize; 6] = [256, 512, 1024, 2048, 4096, 8192];

/// Figure 12: effect of the BTT size on the hash-table store — total NVM
/// write traffic and transaction throughput.
pub fn fig12_btt_sensitivity(scale: Scale) -> (Table, Vec<Cell>) {
    let mut cells = Vec::new();
    let mut table = Table::new(
        "Figure 12: BTT size sensitivity (hash-table KV store)",
        &["BTT entries", "NVM write traffic MB", "throughput KTPS", "epochs"],
    );
    // One trace, replayed against each BTT size. 256 B values give each
    // transaction a multi-block write so the BTT actually fills.
    let kv_cfg = KvConfig::new(256);
    let mut store = HashKv::new(16 * 1024);
    kv_cfg.populate(&mut store, scale.kv_prepopulate);
    let (events, ops) = kv_cfg.trace(&mut store, scale.kv_ops);
    for btt in BTT_SIZES {
        let mut cfg = SystemConfig::paper();
        cfg.thynvm.btt_entries = btt;
        let res = run_with_caches(SystemKind::ThyNvm, cfg, events.iter().copied());
        table.row(&[
            btt.to_string(),
            fmt_mb(res.mem.nvm_write_bytes_total()),
            fmt_f(res.throughput_tps(ops) / 1e3),
            res.mem.epochs_completed.to_string(),
        ]);
        cells.push(Cell { workload: format!("BTT={btt}"), system: "ThyNVM", result: res });
    }
    (table, cells)
}

// ---------------------------------------------------------------------
// Table 1 / §1 claims
// ---------------------------------------------------------------------

/// Table 1 ablation: uniform block-granularity vs uniform page-granularity
/// vs the dual scheme, across the micro-benchmarks. Reports application
/// stall share (the page-granularity pain) and peak translation-table
/// occupancy (the block-granularity pain).
pub fn tab1_tradeoff(scale: Scale) -> (Table, Vec<Cell>) {
    let cfg = SystemConfig::paper();
    let mut cells = Vec::new();
    let mut table = Table::new(
        "Table 1 ablation: checkpointing-granularity tradeoff",
        &["pattern", "scheme", "rel. exec time", "% time stalled on ckpt", "peak BTT+PTT entries"],
    );
    for pattern in MicroPattern::all() {
        let micro = MicroConfig::new(pattern);
        let mut baseline: Option<RunResult> = None;
        for kind in [SystemKind::ThyNvm, SystemKind::ThyNvmBlockOnly, SystemKind::ThyNvmPageOnly] {
            // Peak-occupancy inspection needs the concrete type, so rebuild.
            let mut sys = match kind {
                SystemKind::ThyNvmBlockOnly => {
                    let mut c = cfg;
                    c.thynvm.mode = thynvm_types::CkptMode::BlockOnly;
                    thynvm_core::ThyNvm::new(c)
                }
                SystemKind::ThyNvmPageOnly => {
                    let mut c = cfg;
                    c.thynvm.mode = thynvm_types::CkptMode::PageOnly;
                    thynvm_core::ThyNvm::new(c)
                }
                _ => thynvm_core::ThyNvm::new(cfg),
            };
            let mut core = thynvm_cache::CoreModel::new(cfg.cache);
            let cycles = core.run_trace(micro.events(scale.micro_accesses), &mut sys);
            let res = RunResult {
                system: kind.as_str(),
                cycles,
                instructions: core.stats().instructions,
                mem: thynvm_types::MemorySystem::stats(&sys).clone(),
                core: core.stats().clone(),
            };
            let rel = match &baseline {
                None => 1.0,
                Some(b) => res.relative_time(b),
            };
            if baseline.is_none() {
                baseline = Some(res.clone());
            }
            let peak = sys.btt().peak() + sys.ptt().peak();
            table.row(&[
                pattern.as_str().into(),
                kind.as_str().into(),
                fmt_f(rel),
                fmt_f(res.ckpt_stall_share()),
                peak.to_string(),
            ]);
            cells.push(Cell { workload: pattern.as_str().into(), system: kind.as_str(), result: res });
        }
    }
    (table, cells)
}

// ---------------------------------------------------------------------
// §3.1 / §5.3 overlap ablation
// ---------------------------------------------------------------------

/// The overlap ablation behind Figure 3: the same dual-scheme controller
/// with and without execution/checkpointing overlap. Backs the §3.1 claim
/// that stop-the-world checkpointing costs up to ~35 % of execution time on
/// memory-intensive workloads while ThyNVM's overlap reduces the stall
/// share to low single digits (§5.2 reports 2.5 % on average).
pub fn e9_overlap_ablation(scale: Scale) -> (Table, Vec<Cell>) {
    let cfg = SystemConfig::paper();
    let mut cells = Vec::new();
    let mut table = Table::new(
        "Overlap ablation (Figure 3): stop-the-world vs overlapped checkpointing",
        &["pattern", "scheme", "rel. exec time", "% time stalled on ckpt"],
    );
    for pattern in MicroPattern::all() {
        let micro = MicroConfig::new(pattern);
        let mut baseline: Option<RunResult> = None;
        for kind in [SystemKind::ThyNvm, SystemKind::ThyNvmNoOverlap] {
            let res = run_with_caches(kind, cfg, micro.events(scale.micro_accesses));
            let rel = match &baseline {
                None => 1.0,
                Some(b) => res.relative_time(b),
            };
            if baseline.is_none() {
                baseline = Some(res.clone());
            }
            table.row(&[
                pattern.as_str().into(),
                kind.as_str().into(),
                fmt_f(rel),
                fmt_f(res.ckpt_stall_share()),
            ]);
            cells.push(Cell { workload: pattern.as_str().into(), system: kind.as_str(), result: res });
        }
    }
    (table, cells)
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// Table 2: the evaluated system configuration.
pub fn tab2_config() -> Table {
    use thynvm_types::{
        DRAM_ROW_HIT_NS, DRAM_ROW_MISS_NS, L1_HIT_CYCLES, L2_HIT_CYCLES, L3_HIT_CYCLES,
        NVM_CLEAN_MISS_NS, NVM_DIRTY_MISS_NS, NVM_ROW_HIT_NS, TABLE_LOOKUP_NS,
    };
    let cfg = SystemConfig::paper();
    let mut table = Table::new("Table 2: system configuration", &["component", "value"]);
    let c = cfg.cache;
    let n = cfg.thynvm;
    let rows: Vec<(String, String)> = vec![
        ("Processor".into(), "3 GHz, in-order".into()),
        ("L1".into(), format!("{} KB, {}-way, {} cycles", c.l1_bytes / 1024, c.l1_ways, L1_HIT_CYCLES)),
        ("L2".into(), format!("{} KB, {}-way, {} cycles", c.l2_bytes / 1024, c.l2_ways, L2_HIT_CYCLES)),
        ("L3".into(), format!("{} MB, {}-way, {} cycles", c.l3_bytes / 1024 / 1024, c.l3_ways, L3_HIT_CYCLES)),
        ("DRAM".into(), format!("{DRAM_ROW_HIT_NS} ({DRAM_ROW_MISS_NS}) ns row hit (miss)")),
        (
            "NVM".into(),
            format!("{NVM_ROW_HIT_NS} ({NVM_CLEAN_MISS_NS}/{NVM_DIRTY_MISS_NS}) ns row hit (clean/dirty miss)"),
        ),
        ("BTT/PTT".into(), format!("{}/{} entries, {TABLE_LOOKUP_NS} ns lookup", n.btt_entries, n.ptt_entries)),
        ("DRAM size".into(), format!("{} MB", n.dram_bytes / 1024 / 1024)),
        ("Epoch".into(), format!("{} ms max", n.epoch_max_ms)),
        ("Metadata".into(), format!("{:.1} KB (≈37 KB in the paper)", n.metadata_bytes() as f64 / 1024.0)),
    ];
    for (k, v) in rows {
        table.row(&[k, v]);
    }
    table
}

/// Convenience: a short summary line comparing ThyNVM to Ideal DRAM on a
/// set of cells (the abstract's "within 4.9 % of an idealized DRAM-only
/// system" style of claim).
pub fn summarize_vs_ideal(cells: &[Cell]) -> String {
    let mut ratios = Vec::new();
    let workloads: std::collections::BTreeSet<String> =
        cells.iter().map(|c| c.workload.clone()).collect();
    for w in &workloads {
        let ideal = cells.iter().find(|c| &c.workload == w && c.system == "Ideal DRAM");
        let thynvm = cells.iter().find(|c| &c.workload == w && c.system == "ThyNVM");
        if let (Some(i), Some(t)) = (ideal, thynvm) {
            ratios.push(t.result.cycles.raw() as f64 / i.result.cycles.raw() as f64);
        }
    }
    if ratios.is_empty() {
        return "no comparable runs".into();
    }
    let gmean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    format!("ThyNVM geometric-mean slowdown vs Ideal DRAM: {:.1} %", (gmean - 1.0) * 100.0)
}


// ---------------------------------------------------------------------
// Additional ablations (DESIGN.md E10–E13)
// ---------------------------------------------------------------------

/// E10: sensitivity to the §4.2 scheme-switching thresholds. The paper
/// states the values (22 up / 16 down) were determined empirically; this
/// sweep shows the sliding-pattern execution time and migration traffic
/// across the threshold space.
pub fn e10_threshold_sensitivity(scale: Scale) -> (Table, Vec<Cell>) {
    let mut cells = Vec::new();
    let mut table = Table::new(
        "Threshold sensitivity (Sliding): promote/demote thresholds of §4.2",
        &["promote/demote", "rel. exec time", "migration MB", "pages promoted"],
    );
    let micro = MicroConfig::new(MicroPattern::Sliding);
    let sweeps: [(u8, u8); 5] = [(8, 4), (16, 8), (22, 16), (32, 24), (48, 40)];
    let mut baseline_cycles = None;
    for (promote, demote) in sweeps {
        let mut cfg = SystemConfig::paper();
        cfg.thynvm.promote_threshold = promote;
        cfg.thynvm.demote_threshold = demote;
        let res = run_with_caches(SystemKind::ThyNvm, cfg, micro.events(scale.micro_accesses));
        let base = *baseline_cycles.get_or_insert(res.cycles.raw());
        table.row(&[
            format!("{promote}/{demote}"),
            fmt_f(res.cycles.raw() as f64 / base as f64),
            fmt_mb(res.mem.nvm_write_bytes_migration),
            res.mem.pages_promoted.to_string(),
        ]);
        cells.push(Cell {
            workload: format!("thr={promote}/{demote}"),
            system: "ThyNVM",
            result: res,
        });
    }
    (table, cells)
}

/// E11: sensitivity to the epoch length (the §6 configurable persistence
/// guarantee: "only allowed to lose data updates that happened in the last
/// n ms"). Shorter epochs mean tighter durability and more checkpoints.
pub fn e11_epoch_length(scale: Scale) -> (Table, Vec<Cell>) {
    let mut cells = Vec::new();
    let mut table = Table::new(
        "Epoch-length sensitivity (hash-table KV): durability window vs cost",
        &["epoch ms", "KTPS", "NVM write MB", "checkpoints", "% time stalled"],
    );
    let kv_cfg = KvConfig::new(64);
    let mut store = HashKv::new(16 * 1024);
    kv_cfg.populate(&mut store, scale.kv_prepopulate);
    let (events, ops) = kv_cfg.trace(&mut store, scale.kv_ops);
    for epoch_ms in [1u64, 2, 5, 10, 20] {
        let mut cfg = SystemConfig::paper();
        cfg.thynvm.epoch_max_ms = epoch_ms;
        let res = run_with_caches(SystemKind::ThyNvm, cfg, events.iter().copied());
        table.row(&[
            epoch_ms.to_string(),
            fmt_f(res.throughput_tps(ops) / 1e3),
            fmt_mb(res.mem.nvm_write_bytes_total()),
            res.mem.epochs_completed.to_string(),
            fmt_f(res.ckpt_stall_share()),
        ]);
        cells.push(Cell { workload: format!("{epoch_ms}ms"), system: "ThyNVM", result: res });
    }
    (table, cells)
}

/// E12: sensitivity to the DRAM working-data region (and thus PTT
/// coverage) — the §4.2 observation that PTT size tracks DRAM size.
pub fn e12_dram_size(scale: Scale) -> (Table, Vec<Cell>) {
    let mut cells = Vec::new();
    let mut table = Table::new(
        "DRAM-size sensitivity (hash-table KV)",
        &["DRAM MB", "PTT entries", "KTPS", "NVM write MB", "pages promoted"],
    );
    let kv_cfg = KvConfig::new(256);
    let mut store = HashKv::new(16 * 1024);
    kv_cfg.populate(&mut store, scale.kv_prepopulate);
    let (events, ops) = kv_cfg.trace(&mut store, scale.kv_ops);
    for dram_mb in [2u64, 4, 8, 16, 32] {
        let mut cfg = SystemConfig::paper();
        cfg.thynvm.dram_bytes = dram_mb * 1024 * 1024;
        cfg.thynvm.ptt_entries = (cfg.thynvm.dram_pages() as usize).min(cfg.thynvm.ptt_entries * 2);
        let res = run_with_caches(SystemKind::ThyNvm, cfg, events.iter().copied());
        table.row(&[
            dram_mb.to_string(),
            cfg.thynvm.ptt_entries.to_string(),
            fmt_f(res.throughput_tps(ops) / 1e3),
            fmt_mb(res.mem.nvm_write_bytes_total()),
            res.mem.pages_promoted.to_string(),
        ]);
        cells.push(Cell { workload: format!("{dram_mb}MB"), system: "ThyNVM", result: res });
    }
    (table, cells)
}

/// E13: recovery time as a function of the number of DRAM pages that must
/// be restored (§4.5 step 2 dominates recovery: the PTT pages reload from
/// NVM into DRAM). Backs the paper's "fast recovery" benefit of NVM over
/// slow block devices.
pub fn e13_recovery_time() -> Table {
    use thynvm_types::{Cycle, PhysAddr, PAGE_BYTES};
    let mut table = Table::new(
        "Recovery time vs restored DRAM pages (§4.5)",
        &["PTT pages restored", "recovery µs"],
    );
    for pages in [0u64, 16, 64, 256, 1024] {
        let mut cfg = SystemConfig::paper();
        cfg.thynvm.promote_threshold = 1; // promote on first write
        cfg.thynvm.demote_threshold = 0; // never demote
        let mut sys = thynvm_core::ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        // Dirty `pages` distinct pages so they are promoted and resident.
        for p in 0..pages {
            let base = p * PAGE_BYTES;
            now = now.max(sys.store_bytes(PhysAddr::new(base), &[1u8; 64], now));
        }
        let t = sys.force_checkpoint(now);
        let t = thynvm_types::MemorySystem::drain(&mut sys, t);
        let report = sys.crash_and_recover(t);
        assert!(report.restored_pages as u64 >= pages.min(1), "pages restored");
        table.row(&[
            report.restored_pages.to_string(),
            fmt_f(report.recovery_cycles.as_ns() / 1e3),
        ]);
    }
    table
}

/// E14: NVM endurance (wear) comparison. NVM cells tolerate a bounded
/// number of writes, so the *distribution* of writes across rows governs
/// device lifetime. ThyNVM's alternating checkpoint regions spread updates
/// over two locations per datum, while journaling re-commits every datum
/// in place plus hammers the sequential journal area.
pub fn e14_endurance(scale: Scale) -> Table {
    use thynvm_cache::CoreModel;
    use thynvm_types::MemorySystem as _;

    let cfg = SystemConfig::paper();
    let kv_cfg = KvConfig::new(256);
    let mut store = HashKv::new(16 * 1024);
    kv_cfg.populate(&mut store, scale.kv_prepopulate);
    let (events, _) = kv_cfg.trace(&mut store, scale.kv_ops);

    let mut table = Table::new(
        "NVM endurance (hash-table KV): row-write distribution",
        &["system", "rows written", "total row writes", "max per row", "imbalance"],
    );
    let mut run = |name: &str, wear: thynvm_mem::WearStats| {
        table.row(&[
            name.to_owned(),
            wear.rows_written.to_string(),
            wear.total_writes.to_string(),
            wear.max_row_writes.to_string(),
            fmt_f(wear.imbalance),
        ]);
    };

    let mut sys = thynvm_core::ThyNvm::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    core.run_trace(events.iter().copied(), &mut sys);
    run(sys.name(), sys.nvm_device().wear());

    let mut sys = thynvm_baselines::Journaling::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    core.run_trace(events.iter().copied(), &mut sys);
    run(sys.name(), sys.nvm_device().wear());

    let mut sys = thynvm_baselines::ShadowPaging::new(cfg);
    let mut core = CoreModel::new(cfg.cache);
    core.run_trace(events.iter().copied(), &mut sys);
    run(sys.name(), sys.nvm_device().wear());

    table
}

/// E15: multi-core scalability. Table 2 sizes the L3 "per core"; this
/// experiment runs 1/2/4 cores, each with its own Sliding working set in a
/// disjoint address range, against one shared ThyNVM controller, and
/// reports aggregate IPC and checkpoint interference. Ideal DRAM provides
/// the contention-only baseline.
pub fn e15_multicore(scale: Scale) -> (Table, Vec<Cell>) {
    use thynvm_cache::MulticorePlatform;

    let cfg = SystemConfig::paper();
    let cells = Vec::new();
    let mut table = Table::new(
        "Multi-core scalability (Sliding per core, disjoint address spaces)",
        &["cores", "system", "aggregate IPC", "per-core IPC", "flush stalls (cycles)"],
    );
    for n in [1usize, 2, 4] {
        let traces: Vec<Vec<thynvm_types::TraceEvent>> = (0..n)
            .map(|c| {
                let mut micro = MicroConfig::new(MicroPattern::Sliding);
                micro.seed ^= c as u64;
                let base = (c as u64) << 30; // 1 GiB apart
                micro
                    .events(scale.micro_accesses / n as u64)
                    .map(|mut e| {
                        e.req.addr = thynvm_types::PhysAddr::new(e.req.addr.raw() + base);
                        e
                    })
                    .collect()
            })
            .collect();
        for kind in [SystemKind::IdealDram, SystemKind::ThyNvm] {
            let mut platform = MulticorePlatform::new(cfg.cache, n);
            let mut mem = kind.build(cfg);
            let results = platform.run(traces.clone(), mem.as_mut());
            let agg: f64 = results.iter().map(|r| r.ipc()).sum();
            let stalls: u64 =
                results.iter().map(|r| r.stats.flush_stall_cycles.raw()).sum();
            table.row(&[
                n.to_string(),
                kind.as_str().into(),
                fmt_f(agg),
                fmt_f(agg / n as f64),
                stalls.to_string(),
            ]);
        }
    }
    (table, cells)
}

/// E16: Working Data Region placement (§4.1 footnote 3 — "we leave the
/// exploration of such choices to future work"). NVM placement removes the
/// volatile working copies (shorter checkpoints, nothing to restore on
/// recovery) at the price of serving every working-region access at NVM
/// speed.
pub fn e16_working_region(scale: Scale) -> (Table, Vec<Cell>) {
    use thynvm_types::WorkingRegion;

    let cells = Vec::new();
    let mut table = Table::new(
        "Working Data Region placement (§4.1 footnote 3)",
        &["pattern", "placement", "rel. exec time", "% time on ckpt", "NVM write MB"],
    );
    for pattern in MicroPattern::all() {
        let micro = MicroConfig::new(pattern);
        let mut baseline: Option<RunResult> = None;
        for placement in [WorkingRegion::Dram, WorkingRegion::Nvm] {
            let mut cfg = SystemConfig::paper();
            cfg.thynvm.working_region = placement;
            let res = run_with_caches(SystemKind::ThyNvm, cfg, micro.events(scale.micro_accesses));
            let rel = match &baseline {
                None => 1.0,
                Some(b) => res.relative_time(b),
            };
            if baseline.is_none() {
                baseline = Some(res.clone());
            }
            table.row(&[
                pattern.as_str().into(),
                format!("{placement:?}"),
                fmt_f(rel),
                fmt_f(res.ckpt_stall_share()),
                fmt_mb(res.mem.nvm_write_bytes_total()),
            ]);
        }
    }
    (table, cells)
}

/// E17: YCSB core mixes on the hash-table store — the KV evaluation the
/// wider persistent-memory literature reports. Zipfian-skewed requests
/// concentrate updates on hot keys, the best case for both DRAM caching
/// and write coalescing.
pub fn e17_ycsb(scale: Scale) -> (Table, Vec<Cell>) {
    use thynvm_workloads::ycsb::{YcsbConfig, YcsbMix};

    let cfg = SystemConfig::paper();
    let mut cells = Vec::new();
    let mut table = Table::new(
        "YCSB core mixes (hash-table store, 1 KiB values): throughput KTPS",
        &["mix", "Ideal DRAM", "Journal", "Shadow", "ThyNVM"],
    );
    let ops = (scale.kv_ops / 8).max(1_000);
    for mix in YcsbMix::ALL {
        let ycsb = YcsbConfig { records: 8 * 1024, ..YcsbConfig::new(mix) };
        let mut store = HashKv::new(16 * 1024);
        let (events, txns) = ycsb.run(&mut store, ops);
        let mut row = vec![mix.as_str().to_owned()];
        for kind in
            [SystemKind::IdealDram, SystemKind::Journal, SystemKind::Shadow, SystemKind::ThyNvm]
        {
            let res = run_with_caches(kind, cfg, events.iter().copied());
            row.push(fmt_f(res.throughput_tps(txns) / 1e3));
            cells.push(Cell { workload: mix.as_str().into(), system: kind.as_str(), result: res });
        }
        table.row(&row);
    }
    (table, cells)
}

/// E19: media resilience. Runs the hash-table KV trace on ThyNVM with the
/// NVM media-fault model disabled and then armed (transient flips, wear-
/// induced stuck-at cells, integrity CRCs, retry/remap/scrub healing), and
/// reports device wear alongside the full self-healing ledger: faults
/// observed, retries spent, blocks remapped, scrubber repairs, and the CRC
/// verification work the `integrity` knob costs.
pub fn e19_media_resilience(scale: Scale) -> Table {
    use thynvm_cache::CoreModel;
    use thynvm_types::{MediaFaultConfig, MemorySystem as _};

    let kv_cfg = KvConfig::new(256);
    let mut store = HashKv::new(16 * 1024);
    kv_cfg.populate(&mut store, scale.kv_prepopulate);
    let (events, _) = kv_cfg.trace(&mut store, scale.kv_ops);

    let mut table = Table::new(
        "NVM media resilience (hash-table KV): wear + self-healing ledger",
        &[
            "media model",
            "rows written",
            "max per row",
            "bit flips",
            "stuck",
            "retries",
            "remaps",
            "scrubbed",
            "CRC blocks",
            "CRC µs",
        ],
    );

    let mut armed = MediaFaultConfig::hardened();
    armed.bit_flip_rate = 1e-3;
    armed.stuck_at_threshold = 64;
    for (label, media) in [("off", MediaFaultConfig::default()), ("hardened", armed)] {
        let mut cfg = SystemConfig::paper();
        cfg.media = media;
        cfg.validate().expect("valid media config");
        let mut sys = thynvm_core::ThyNvm::new(cfg);
        let mut core = CoreModel::new(cfg.cache);
        core.run_trace(events.iter().copied(), &mut sys);
        let wear = sys.nvm_device().wear();
        let m = sys.stats().media;
        table.row(&[
            label.to_owned(),
            wear.rows_written.to_string(),
            wear.max_row_writes.to_string(),
            m.bit_flips.to_string(),
            m.stuck_faults.to_string(),
            m.retries.to_string(),
            m.remaps.to_string(),
            m.scrub_repairs.to_string(),
            m.crc_checked_blocks.to_string(),
            fmt_f(m.crc_check_cycles.as_ns() / 1e3),
        ]);
    }
    table
}

/// The top-level crash a poll just fired, read from the system's journal.
fn fired_crash(sys: &mut thynvm_core::ThyNvm) -> InjectedCrash {
    sys.take_events()
        .into_iter()
        .find_map(|e| if let EventKind::Crash(c) = e.kind { Some(c) } else { None })
        .expect("invariant: crash point armed before poll")
}

/// E20: recovery latency vs nested-crash depth. Recovery is restartable —
/// a power failure *during* recovery restarts it from the persisted commit
/// record — so each extra stacked crash pays one more (partial) recovery
/// attempt. A probe run learns the recovery-step boundaries, then each
/// depth queues that many crash points at step boundaries and reports the
/// end-to-end recovery time (aborted attempts included), attempt count,
/// and nested-crash count.
pub fn e20_recovery_latency() -> Table {
    use thynvm_types::{Cycle, PhysAddr, PAGE_BYTES};

    // A fixed checkpointed working set: 64 promoted pages plus the
    // metadata images, so recovery has real replay and re-arm work.
    let build = || {
        let mut cfg = SystemConfig::paper();
        cfg.thynvm.promote_threshold = 1; // promote on first write
        cfg.thynvm.demote_threshold = 0; // never demote
        let mut sys = thynvm_core::ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for p in 0..64u64 {
            now = now.max(sys.store_bytes(PhysAddr::new(p * PAGE_BYTES), &[1u8; 64], now));
        }
        let t = sys.force_checkpoint(now);
        let t = thynvm_types::MemorySystem::drain(&mut sys, t);
        (sys, t)
    };

    // Probe: one clean crash learns where each recovery step completes.
    let (mut probe, t0) = build();
    probe.arm_crash_point(t0);
    probe.poll_crash(t0 + Cycle::new(1));
    let probe_report = fired_crash(&mut probe).report;
    let boundaries: Vec<Cycle> = probe_report.steps.iter().map(|&(_, end)| end).collect();
    assert!(!boundaries.is_empty(), "recovery reported no steps");

    let mut table = Table::new(
        "Recovery latency vs nested-crash depth (restartable recovery)",
        &["crash depth", "recovery µs", "attempts", "nested crashes"],
    );
    for depth in 0..=4usize {
        let (mut sys, t) = build();
        sys.arm_crash_point(t);
        for i in 0..depth {
            // One cycle short of a step boundary: the step is interrupted
            // and redone by the next attempt. Cycling through the
            // boundaries stacks crashes on successive restarts.
            let b = boundaries[i % boundaries.len()];
            sys.queue_crash_point(b.saturating_sub(Cycle::new(1)));
        }
        sys.poll_crash(t + Cycle::new(1));
        let crash = fired_crash(&mut sys);
        table.row(&[
            depth.to_string(),
            fmt_f(crash.report.recovery_cycles.as_ns() / 1e3),
            crash.report.attempts.to_string(),
            crash.report.nested_crashes.to_string(),
        ]);
    }
    table
}

/// E21: DRAM resilience. Runs the hash-table KV trace on ThyNVM with the
/// DRAM ECC fault model disabled and then at escalating fault pressure,
/// and reports the containment ledger: corrected single-bit flips,
/// poisoned (uncorrectable) blocks, transparent refetches from the NVM
/// checkpoint copy, quarantined dirty pages with the bytes they dropped,
/// and the execution-time cost relative to the fault-free run.
pub fn e21_dram_resilience(scale: Scale) -> Table {
    use thynvm_cache::CoreModel;
    use thynvm_types::{DramFaultConfig, MemorySystem as _};

    let kv_cfg = KvConfig::new(256);
    let mut store = HashKv::new(16 * 1024);
    kv_cfg.populate(&mut store, scale.kv_prepopulate);
    let (events, _) = kv_cfg.trace(&mut store, scale.kv_ops);

    let mut table = Table::new(
        "DRAM resilience (hash-table KV): ECC pressure vs containment cost",
        &[
            "dram model",
            "rel time",
            "corrected",
            "poisoned",
            "refetched",
            "quarantined",
            "dropped KiB",
        ],
    );

    // Rates are per ECC-checked DRAM read — far above field rates, chosen
    // so the ladder exercises every containment path at bench scale.
    let hardened = DramFaultConfig::hardened();
    let ladder = [
        ("off", DramFaultConfig::default()),
        ("flips 5e-2", DramFaultConfig { flip_rate: 5e-2, ..hardened }),
        ("poison 5e-2", DramFaultConfig { poison_rate: 5e-2, ..hardened }),
        ("flips+poison 2e-1", DramFaultConfig { flip_rate: 2e-1, poison_rate: 2e-1, ..hardened }),
    ];
    let mut baseline = None;
    for (label, dram) in ladder {
        let mut cfg = SystemConfig::paper();
        cfg.dram_fault = dram;
        cfg.validate().expect("valid dram config");
        let mut sys = thynvm_core::ThyNvm::new(cfg);
        let mut core = CoreModel::new(cfg.cache);
        let end = core.run_trace(events.iter().copied(), &mut sys);
        let base = *baseline.get_or_insert(end.raw().max(1));
        let d = sys.stats().dram;
        table.row(&[
            label.to_owned(),
            fmt_f(end.raw() as f64 / base as f64),
            d.corrected_flips.to_string(),
            d.poisoned_blocks.to_string(),
            d.poison_refetched.to_string(),
            d.quarantined_pages.to_string(),
            fmt_f(d.quarantine_dropped_bytes as f64 / 1024.0),
        ]);
    }
    table
}

/// E22: secure persistent memory mode. Runs the hash-table KV trace with
/// the security model off and hardened and reports the crypto ledger:
/// blocks encrypted and verified, counter-table persists at epoch
/// boundaries, security-metadata bytes (counters + tree nodes + sealed
/// roots), modeled crypto time, and the security-metadata write
/// amplification over total NVM write traffic. The hardened run ends with
/// a crash so the `verified` column includes MAC-authenticated recovery
/// reads — the ledger proves verification ran, not that an adversary
/// showed up (tamper injection is exercised by the sweep tests).
///
/// The journaling baseline runs the same ladder (arXiv:1901.00620's
/// apples-to-apples comparison): it encrypts per commit rather than per
/// checkpoint, so its counter-table persist cadence — and with it the
/// metadata write amplification — tracks the journal commit rate instead
/// of the epoch length. Relative time is within-system (each `hardened`
/// row against its own `off` row).
pub fn e22_secure_mode(scale: Scale) -> Table {
    use thynvm_cache::CoreModel;
    use thynvm_types::{MemorySystem as _, SecurityConfig};

    let kv_cfg = KvConfig::new(256);
    let mut store = HashKv::new(16 * 1024);
    kv_cfg.populate(&mut store, scale.kv_prepopulate);
    let (events, _) = kv_cfg.trace(&mut store, scale.kv_ops);

    let mut table = Table::new(
        "Secure persistent memory (hash-table KV): counter-mode crypto cost",
        &[
            "security",
            "rel time",
            "encrypted",
            "verified",
            "ctr persists",
            "meta KiB",
            "crypto µs",
            "meta amp %",
        ],
    );

    let ladder = [("off", SecurityConfig::default()), ("hardened", SecurityConfig::hardened())];
    let mut baseline = None;
    for (label, security) in ladder {
        let mut cfg = SystemConfig::paper();
        cfg.security = security;
        cfg.validate().expect("valid security config");
        let mut sys = thynvm_core::ThyNvm::new(cfg);
        let mut core = CoreModel::new(cfg.cache);
        let end = core.run_trace(events.iter().copied(), &mut sys);
        let base = *baseline.get_or_insert(end.raw().max(1));
        if security.enabled {
            // MAC-verified recovery over the trace's real state; its
            // authenticated reads land in the `verified` column. The
            // relative-time column compares execution only.
            let _ = sys.crash_and_recover(end);
        }
        let s = sys.stats().security;
        let meta_bytes = s.counter_bytes + s.tree_bytes + 64 * s.root_persists;
        let nvm_total = sys.stats().nvm_write_bytes_total().max(1);
        table.row(&[
            label.to_owned(),
            fmt_f(end.raw() as f64 / base as f64),
            s.blocks_encrypted.to_string(),
            s.blocks_verified.to_string(),
            s.counter_persists.to_string(),
            fmt_f(meta_bytes as f64 / 1024.0),
            fmt_f(s.crypto_cycles.as_ns() / 1e3),
            fmt_f(100.0 * meta_bytes as f64 / nvm_total as f64),
        ]);
    }

    let mut jbaseline = None;
    for (label, security) in ladder {
        let mut cfg = SystemConfig::paper();
        cfg.security = security;
        cfg.validate().expect("valid security config");
        let mut sys = thynvm_baselines::Journaling::new(cfg);
        let mut core = CoreModel::new(cfg.cache);
        let end = core.run_trace(events.iter().copied(), &mut sys);
        let base = *jbaseline.get_or_insert(end.raw().max(1));
        let s = sys.stats().security;
        let meta_bytes = s.counter_bytes + s.tree_bytes + 64 * s.root_persists;
        let nvm_total = sys.stats().nvm_write_bytes_total().max(1);
        table.row(&[
            format!("journal {label}"),
            fmt_f(end.raw() as f64 / base as f64),
            s.blocks_encrypted.to_string(),
            s.blocks_verified.to_string(),
            s.counter_persists.to_string(),
            fmt_f(meta_bytes as f64 / 1024.0),
            fmt_f(s.crypto_cycles.as_ns() / 1e3),
            fmt_f(100.0 * meta_bytes as f64 / nvm_total as f64),
        ]);
    }
    table
}

/// E23: long-horizon endurance and the graceful-degradation ladder
/// (DESIGN.md §11). A deterministic wear workload — hot rows rewritten
/// past the stuck-at threshold every epoch, then traffic-free cool-down
/// epochs — runs under four fault postures with the health ladder off and
/// on. Reported per row: execution time relative to the fault-free
/// health-off run, the final ladder rung, the rung-transition ledger
/// (demotions / promotions), the Wounded posture's emergency checkpoints,
/// stores rejected at `ReadOnly`, and the bounded-retry traffic
/// (`RetryPolicy`-issued media retries and DRAM ECC events).
///
/// Two claims made measurable: the quiet health-on row is cycle-identical
/// to the quiet health-off row (the ladder costs nothing until a signal
/// fires — the same twin that `BENCH_simspeed.json` pins), and under
/// sustained wear the ladder degrades monotonically instead of letting
/// retry latency grow unbounded.
pub fn e23_endurance(scale: Scale) -> Table {
    use thynvm_types::{
        Cycle, DramFaultConfig, HealthConfig, MediaFaultConfig, MemorySystem as _, PhysAddr,
    };

    const PAGE: u64 = 4096;
    // Scale the stress phase with the micro budget; the cool-down stays
    // fixed at the window-drain + promotion-streak length.
    let stress_epochs = (scale.micro_accesses / 13_000).clamp(6, 60);
    let quiet_epochs = 7u64;

    // The soak posture: thresholds low enough that the deterministic wear
    // schedule walks the ladder within the stress phase.
    let health_on = HealthConfig {
        window_epochs: 4,
        wounded_retry_rate: 2,
        wounded_refetch_rate: 2,
        readonly_scrub_backlog: 4,
        promote_clean_epochs: 2,
        ..HealthConfig::hardened()
    };
    let media_on = MediaFaultConfig { stuck_at_threshold: 8, spare_blocks: 4, ..MediaFaultConfig::hardened() };
    let dram_on = DramFaultConfig { flip_rate: 0.2, poison_rate: 0.02, ..DramFaultConfig::hardened() };

    let postures: [(&str, bool, bool, bool); 5] = [
        ("off quiet", false, false, false),
        ("on quiet", true, false, false),
        ("off wear", false, true, false),
        ("on wear", true, true, false),
        ("on wear+ecc", true, true, true),
    ];

    let mut table = Table::new(
        "Endurance ladder (deterministic wear): graceful degradation cost",
        &[
            "posture",
            "rel time",
            "final rung",
            "demote",
            "promote",
            "emrg ckpt",
            "rejected",
            "media retries",
            "ecc events",
        ],
    );

    let mut baseline = None;
    for (label, health, media, dram) in postures {
        let mut cfg = SystemConfig::small_test();
        if health {
            cfg.health = health_on;
        }
        if media {
            cfg.media = media_on;
        }
        if dram {
            cfg.dram_fault = dram_on;
        }
        cfg.validate().expect("valid endurance config");
        let mut sys = thynvm_core::ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for epoch in 0..stress_epochs {
            for rep in 0..2u64 {
                for page in 0..3u64 {
                    for blk in 0..8u64 {
                        let fill = (1 + epoch * 40 + page * 11 + blk + rep * 3) as u8;
                        now = now.max(sys.store_bytes(
                            PhysAddr::new(page * PAGE + blk * 64),
                            &[fill; 64],
                            now,
                        ));
                    }
                }
            }
            for page in 0..3u64 {
                for blk in 0..4u64 {
                    let mut buf = [0u8; 64];
                    now = now.max(sys.load_bytes(PhysAddr::new(page * PAGE + blk * 128), &mut buf, now));
                }
            }
            now = now.max(sys.force_checkpoint(now)) + Cycle::new(600_000);
        }
        for _ in 0..quiet_epochs {
            now = now.max(sys.force_checkpoint(now)) + Cycle::new(600_000);
        }
        now = sys.drain(now);
        let base = *baseline.get_or_insert(now.raw().max(1));
        let s = sys.stats();
        table.row(&[
            label.to_owned(),
            fmt_f(now.raw() as f64 / base as f64),
            sys.health_rung().to_string(),
            s.health.demotions.to_string(),
            s.health.promotions.to_string(),
            s.health.emergency_checkpoints.to_string(),
            s.health.stores_rejected.to_string(),
            s.media.retries.to_string(),
            (s.dram.corrected_flips + s.dram.refetch_retries).to_string(),
        ]);
    }
    table
}

/// E24: the volatile persist-buffer fault domain (DESIGN.md §12). The
/// same deterministic checkpointed workload runs with the buffer off,
/// armed but crash-free, and armed with a crash injected one cycle
/// before a checkpoint seals — once with `salvage_rate` 0.0 (the
/// partial flush drops every in-flight entry, the torn marker never
/// lands, recovery rolls back) and once at 1.0 (the residual-powered
/// drain finishes, the marker is salvaged, and recovery early-commits
/// the in-flight checkpoint). Reported per row: execution time relative
/// to the buffer-off run, the conservation ledger (enqueued / drained /
/// dropped), §4.4 fences with their stall cost, the widest reorder
/// window a crash could have exploited, and the crash verdict.
///
/// Two claims made measurable: arming the buffer on a crash-free run is
/// cycle-identical to off (every fence finds an already-drained buffer —
/// the same twin `BENCH_simspeed.json` pins), and the crash verdict is
/// decided by the salvage schedule alone, not by the workload.
pub fn e24_persist_buffer(scale: Scale) -> Table {
    use thynvm_types::{Cycle, MemorySystem as _, PersistBufferConfig, PhysAddr};

    const PAGE: u64 = 4096;
    let epochs = (scale.micro_accesses / 20_000).clamp(3, 12);

    let cfg_for = |rate: Option<f64>| {
        let mut cfg = SystemConfig::small_test();
        if let Some(salvage_rate) = rate {
            cfg.wpq = PersistBufferConfig { salvage_rate, ..PersistBufferConfig::armed() };
        }
        cfg.validate().expect("valid persist-buffer config");
        cfg
    };
    // One epoch of stores; returns the issue cycle the checkpoint starts at.
    let run_epoch = |sys: &mut thynvm_core::ThyNvm, epoch: u64, mut now: Cycle| -> Cycle {
        for page in 0..3u64 {
            for blk in 0..8u64 {
                let fill = (1 + epoch * 31 + page * 7 + blk) as u8;
                now = now.max(sys.store_bytes(PhysAddr::new(page * PAGE + blk * 64), &[fill; 64], now));
            }
        }
        now
    };

    // Probe pass: learn when the final checkpoint seals, so the crash rows
    // can land one cycle short of it — inside the commit window.
    let mut probe = thynvm_core::ThyNvm::new(cfg_for(Some(1.0)));
    let mut now = Cycle::ZERO;
    let mut final_done = Cycle::ZERO;
    for epoch in 0..epochs {
        now = run_epoch(&mut probe, epoch, now);
        let ret = probe.force_checkpoint(now);
        // The checkpoint commits on the background timeline: its seal
        // lands at the job's `done_at`, not at the foreground return.
        final_done = probe.epoch_state().job.as_ref().map_or(ret, |j| j.done_at);
        now = ret + Cycle::new(600_000);
    }

    let postures: [(&str, Option<f64>, bool); 4] = [
        ("off", None, false),
        ("on quiet", Some(1.0), false),
        ("on crash r=0.0", Some(0.0), true),
        ("on crash r=1.0", Some(1.0), true),
    ];

    let mut table = Table::new(
        "Persist-buffer fault domain: fence cost and crash-time salvage",
        &["posture", "rel time", "enqueued", "drained", "dropped", "fences", "stall µs", "window", "verdict"],
    );

    let mut baseline = None;
    for (label, rate, crash) in postures {
        let mut sys = thynvm_core::ThyNvm::new(cfg_for(rate));
        if crash {
            sys.arm_crash_point(final_done.saturating_sub(Cycle::new(1)));
        }
        let mut now = Cycle::ZERO;
        for epoch in 0..epochs {
            now = run_epoch(&mut sys, epoch, now);
            now = sys.force_checkpoint(now) + Cycle::new(600_000);
        }
        if let Some(resume) = sys.poll_crash(now) {
            now = now.max(resume);
        }
        now = sys.drain(now);
        let base = *baseline.get_or_insert(now.raw().max(1));
        let verdict = if crash {
            let events = sys.take_events();
            let flush = events
                .iter()
                .find_map(|e| if let EventKind::WpqFlush(f) = e.kind { Some(f) } else { None })
                .expect("armed crash flushed the buffer");
            assert!(
                events.iter().any(|e| matches!(e.kind, EventKind::Crash(_))),
                "armed crash point never fired"
            );
            if flush.commit_salvaged() { "salvaged" } else { "rollback" }
        } else {
            "-"
        };
        let w = sys.stats().wpq;
        assert_eq!(
            w.enqueued,
            w.drained + w.dropped_at_crash + w.outstanding(),
            "persist-buffer ledger out of balance for {label}"
        );
        table.row(&[
            label.to_owned(),
            fmt_f(now.raw() as f64 / base as f64),
            w.enqueued.to_string(),
            w.drained.to_string(),
            w.dropped_at_crash.to_string(),
            w.fences.to_string(),
            fmt_f(w.fence_stall_cycles.as_ns() / 1e3),
            w.reorder_window_max.to_string(),
            verdict.to_owned(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab2_renders_paper_values() {
        let t = tab2_config();
        let s = t.render();
        assert!(s.contains("3 GHz"));
        assert!(s.contains("2048/4096"));
        assert!(s.contains("40 (80)"));
        assert!(s.contains("368"));
    }

    #[test]
    fn fig7_shape_holds_at_test_scale() {
        let (table, cells) = fig7_micro_exec_time(Scale::test());
        assert_eq!(table.len(), 3);
        assert_eq!(cells.len(), 15);
        // ThyNVM must beat Journal and Shadow on every pattern (the paper's
        // headline micro-benchmark claim).
        for pattern in ["Random", "Streaming", "Sliding"] {
            let time = |sys: &str| {
                cells
                    .iter()
                    .find(|c| c.workload == pattern && c.system == sys)
                    .map(|c| c.result.cycles.raw())
                    .expect("cell present")
            };
            assert!(
                time("ThyNVM") <= time("Journal").max(time("Shadow")),
                "{pattern}: ThyNVM {} vs Journal {} Shadow {}",
                time("ThyNVM"),
                time("Journal"),
                time("Shadow"),
            );
            // Page-granularity systems legitimately edge out Ideal DRAM on
            // sequential patterns (4 KiB bulk transfers amortize row
            // latency, acting like prefetch), so the strict ordering is
            // only required on Random.
            if pattern == "Random" {
                assert!(time("Ideal DRAM") <= time("ThyNVM"));
            }
        }
    }

    #[test]
    fn fig8_traffic_components_are_consistent() {
        let (_, cells) = fig8_write_traffic(Scale::test());
        for c in &cells {
            let total = c.result.mem.nvm_write_bytes_total();
            assert_eq!(
                total,
                c.result.mem.nvm_write_bytes_cpu
                    + c.result.mem.nvm_write_bytes_ckpt
                    + c.result.mem.nvm_write_bytes_migration
            );
            assert!(total > 0, "{}/{} wrote nothing to NVM", c.workload, c.system);
        }
        // Only ThyNVM has migration traffic.
        for c in cells.iter().filter(|c| c.system != "ThyNVM") {
            assert_eq!(c.result.mem.nvm_write_bytes_migration, 0);
        }
    }

    #[test]
    fn fig12_more_btt_entries_mean_fewer_epochs() {
        let (_, cells) = fig12_btt_sensitivity(Scale::test());
        let epochs: Vec<u64> = cells.iter().map(|c| c.result.mem.epochs_completed).collect();
        assert!(
            epochs.first() >= epochs.last(),
            "epochs should not increase with BTT size: {epochs:?}"
        );
    }

    #[test]
    fn overlap_reduces_stall_share() {
        let (_, cells) = e9_overlap_ablation(Scale::test());
        for pattern in ["Random", "Streaming", "Sliding"] {
            let stall = |sys: &str| {
                cells
                    .iter()
                    .find(|c| c.workload == pattern && c.system == sys)
                    .map(|c| c.result.ckpt_stall_share())
                    .expect("cell present")
            };
            assert!(
                stall("ThyNVM") <= stall("No-overlap") + 1e-9,
                "{pattern}: overlap {} vs stop-the-world {}",
                stall("ThyNVM"),
                stall("No-overlap"),
            );
        }
    }

    #[test]
    fn e10_threshold_sweep_produces_five_rows() {
        let (table, cells) = e10_threshold_sensitivity(Scale::test());
        assert_eq!(table.len(), 5);
        assert_eq!(cells.len(), 5);
    }

    #[test]
    fn e11_epoch_sweep_produces_five_rows() {
        let (table, cells) = e11_epoch_length(Scale::test());
        assert_eq!(table.len(), 5);
        assert!(cells.iter().all(|c| c.result.cycles.raw() > 0));
    }

    #[test]
    fn e12_dram_sweep_produces_five_rows() {
        let (table, _) = e12_dram_size(Scale::test());
        assert_eq!(table.len(), 5);
    }

    #[test]
    fn e13_recovery_time_scales_with_pages() {
        let table = e13_recovery_time();
        assert_eq!(table.len(), 5);
        let text = table.render();
        assert!(text.contains("1024"));
    }

    #[test]
    fn e19_media_row_reports_nonzero_healing_counters() {
        let table = e19_media_resilience(Scale::test());
        assert_eq!(table.len(), 2, "one row media-off, one row hardened");
        let text = table.render();
        assert!(text.contains("hardened"));
        // The media-off row reports an all-zero healing ledger; the
        // hardened row must show real CRC verification work.
        let hardened = text.lines().find(|l| l.contains("hardened")).expect("row rendered");
        let crc_blocks: u64 = hardened
            .split_whitespace()
            .rev()
            .nth(1)
            .expect("CRC blocks column")
            .parse()
            .expect("numeric CRC blocks");
        assert!(crc_blocks > 0, "hardened run verified no CRCs: {hardened}");
    }

    #[test]
    fn e21_dram_ladder_reports_containment_ledger() {
        let table = e21_dram_resilience(Scale::test());
        assert_eq!(table.len(), 4, "off plus three pressure rungs");
        let text = table.render();
        let count = |row: &str, col_from_end: usize| -> u64 {
            text.lines()
                .find(|l| l.contains(row))
                .and_then(|l| l.split_whitespace().rev().nth(col_from_end))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{row}: no numeric column {col_from_end}: {text}"))
        };
        // The off row must report an all-zero ledger.
        for col in 1..=4 {
            assert_eq!(count("off", col), 0, "disabled model produced faults: {text}");
        }
        // Flips correct inline; poison is observed and every poisoned block
        // is either refetched (clean) or quarantined (dirty), never leaked.
        assert!(count("flips 5e-2", 4) > 0, "no corrected flips: {text}");
        let poisoned = count("flips+poison 2e-1", 3);
        let refetched = count("flips+poison 2e-1", 2);
        assert!(poisoned > 0, "no poison at the top rung: {text}");
        assert!(refetched > 0, "no transparent refetches: {text}");
        assert!(refetched <= poisoned, "refetched more than poisoned: {text}");
    }

    #[test]
    fn e22_secure_ladder_reports_crypto_ledger() {
        let table = e22_secure_mode(Scale::test());
        assert_eq!(table.len(), 4, "off/hardened for ThyNVM, then for the journal baseline");
        let text = table.render();
        let count = |row: &str, col_from_end: usize| -> f64 {
            text.lines()
                .find(|l| l.starts_with(row))
                .and_then(|l| l.split_whitespace().rev().nth(col_from_end))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{row}: no numeric column {col_from_end}: {text}"))
        };
        // The off row reports an all-zero crypto ledger.
        for col in 0..=5 {
            assert_eq!(count("off", col), 0.0, "disabled model charged crypto: {text}");
        }
        // The hardened row encrypted the write path, verified reads
        // (including MAC-authenticated recovery), and persisted counters.
        assert!(count("hardened", 5) > 0.0, "no blocks encrypted: {text}");
        assert!(count("hardened", 4) > 0.0, "no blocks verified: {text}");
        assert!(count("hardened", 3) > 0.0, "no counter persists: {text}");
        assert!(count("hardened", 0) > 0.0, "zero metadata amplification: {text}");
        // The journaling baseline under the same hardened config: encrypts
        // per commit and persists its own counter-table receipts, so its
        // metadata amplification is a nonzero, comparable number.
        for col in 0..=5 {
            assert_eq!(count("journal off", col), 0.0, "disabled journal charged crypto: {text}");
        }
        assert!(count("journal hardened", 5) > 0.0, "journal encrypted nothing: {text}");
        assert!(count("journal hardened", 3) > 0.0, "journal persisted no counters: {text}");
        assert!(count("journal hardened", 0) > 0.0, "journal amplification zero: {text}");
    }

    #[test]
    fn e23_ladder_walks_down_and_back_and_costs_nothing_quiet() {
        let table = e23_endurance(Scale::test());
        assert_eq!(table.len(), 5, "five fault postures");
        let text = table.render();
        let row = |name: &str| -> Vec<String> {
            text.lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("missing row {name}: {text}"))
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        // The quiet twin: enabling the ladder with no firing signal is
        // cycle-identical (rel time exactly 1.000 against the off row).
        let on_quiet = row("on quiet");
        assert_eq!(on_quiet[2], "1.000", "quiet health-on must be cycle-identical: {text}");
        assert_eq!(on_quiet[3], "healthy");
        // Health off records nothing, whatever the fault pressure.
        for label in ["off quiet", "off wear"] {
            let r = row(label);
            let n = r.len();
            assert_eq!(&r[n - 6..n - 2], &["0"; 4], "{label} touched the health ledger: {text}");
        }
        // Sustained wear demotes; the cool-down epochs promote back what
        // windowed-rate signals wounded (standing levels stay down).
        let wear = row("on wear");
        assert!(wear[4].parse::<u64>().unwrap() > 0, "wear never demoted: {text}");
        let wear_ecc = row("on wear+ecc");
        assert!(wear_ecc[4].parse::<u64>().unwrap() > 0, "wear+ecc never demoted: {text}");
        let ecc_events: u64 = wear_ecc.last().unwrap().parse().unwrap();
        assert!(ecc_events > 0, "no ECC events under the armed flip rate: {text}");
        // Retries stay bounded per read; the ladder is what escalates.
        assert!(wear.last().unwrap() == "0", "no DRAM model armed in the wear row: {text}");
    }

    #[test]
    fn e24_fences_are_free_quiet_and_salvage_follows_the_rate() {
        let table = e24_persist_buffer(Scale::test());
        assert_eq!(table.len(), 4, "four buffer postures");
        let text = table.render();
        let row = |name: &str| -> Vec<String> {
            let words = name.split_whitespace().count();
            let line = text
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("missing row {name}: {text}"));
            // Drop the label words so columns index the same regardless of
            // how many words the posture name has.
            line.split_whitespace().skip(words).map(str::to_owned).collect()
        };
        // The disabled run never touches the ledger.
        let off = row("off");
        assert_eq!(&off[1..5], &["0"; 4], "disabled buffer charged the ledger: {text}");
        // The quiet twin: arming the buffer on a crash-free run is
        // cycle-identical, and every §4.4 fence fired over a drained buffer.
        let quiet = row("on quiet");
        assert_eq!(quiet[0], "1.000", "quiet wpq-on must be cycle-identical: {text}");
        assert!(quiet[1].parse::<u64>().unwrap() > 0, "armed run enqueued nothing: {text}");
        assert!(quiet[4].parse::<u64>().unwrap() > 0, "armed run never fenced: {text}");
        assert_eq!(quiet.last().unwrap(), "-");
        // The crash verdict is the salvage schedule's alone: rate 0.0 drops
        // the in-flight marker and rolls back, rate 1.0 finishes the drain
        // and early-commits, on the same workload and crash cycle.
        assert_eq!(row("on crash r=0.0").last().unwrap(), "rollback", "{text}");
        assert_eq!(row("on crash r=1.0").last().unwrap(), "salvaged", "{text}");
        assert!(
            row("on crash r=0.0")[3].parse::<u64>().unwrap() > 0,
            "rate-0.0 crash dropped nothing: {text}"
        );
    }

    #[test]
    fn e20_latency_grows_with_crash_depth() {
        let table = e20_recovery_latency();
        assert_eq!(table.len(), 5, "depths 0 through 4");
        let text = table.render();
        // Depth-d rows report d nested crashes and d+1 attempts; the
        // deepest storm must be strictly slower than the clean recovery.
        let micros: Vec<f64> = text
            .lines()
            .filter_map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                match cols.as_slice() {
                    [depth, us, attempts, nested] => {
                        let d: u64 = depth.parse().ok()?;
                        assert_eq!(nested.parse::<u64>().ok()?, d);
                        assert_eq!(attempts.parse::<u64>().ok()?, d + 1);
                        us.parse().ok()
                    }
                    _ => None,
                }
            })
            .collect();
        assert_eq!(micros.len(), 5, "five parsed data rows: {text}");
        assert!(micros[4] > micros[0], "nested crashes must cost cycles: {text}");
        assert!(micros.windows(2).all(|w| w[1] >= w[0]), "latency not monotone: {text}");
    }

    #[test]
    fn summary_line_formats() {
        let (_, cells) = fig7_micro_exec_time(Scale::test());
        let s = summarize_vs_ideal(&cells);
        assert!(s.contains("geometric-mean"));
        assert_eq!(summarize_vs_ideal(&[]), "no comparable runs");
    }
}
