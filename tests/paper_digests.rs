//! Locks every paper figure and experiment table the bench crate renders.
//!
//! Each experiment renders a table of simulated figures (or, for Table 2,
//! the configured machine) only: the ones that drive a trace through
//! `CoreModel` or `MulticorePlatform`, and the controller-level ones that
//! time recovery, endurance and the persist buffer. Its FNV-1a digest is
//! held to `tests/common/paper_digests.txt`, so a change that moves any
//! simulated number of any of these tables fails here and has to say why.
//! The test-scale set runs with `cargo test`; Fig 7, Fig 8 and Table 1 at
//! full scale run with `--ignored` (under a minute in release).

use thynvm::bench::experiments::{self as ex, KvKind, Scale};

/// The locked digests: one `<experiment> <scale> <digest>` line each (see
/// the file's header for the regeneration command).
const LOCKED: &str = include_str!("common/paper_digests.txt");

/// An experiment, rendered to the bytes its digest covers.
type Render = fn(Scale) -> String;

/// Every locked experiment, by the name its line uses. Table 2, E13 and E20
/// take no scale, so their entries ignore it.
const EXPERIMENTS: &[(&str, Render)] = &[
    ("fig7", |s| ex::fig7_micro_exec_time(s).0.render()),
    ("fig8", |s| ex::fig8_write_traffic(s).0.render()),
    ("fig9_fig10_kv_hash", |s| fig9_fig10(s, KvKind::HashTable)),
    ("fig9_fig10_kv_rbtree", |s| fig9_fig10(s, KvKind::RbTree)),
    ("fig11", |s| ex::fig11_spec_ipc(s).0.render()),
    ("fig12", |s| ex::fig12_btt_sensitivity(s).0.render()),
    ("tab1", |s| ex::tab1_tradeoff(s).0.render()),
    ("e9", |s| ex::e9_overlap_ablation(s).0.render()),
    ("e10", |s| ex::e10_threshold_sensitivity(s).0.render()),
    ("e11", |s| ex::e11_epoch_length(s).0.render()),
    ("e12", |s| ex::e12_dram_size(s).0.render()),
    ("e14", |s| ex::e14_endurance(s).render()),
    ("e15", |s| ex::e15_multicore(s).0.render()),
    ("e16", |s| ex::e16_working_region(s).0.render()),
    ("e17", |s| ex::e17_ycsb(s).0.render()),
    ("e19", |s| ex::e19_media_resilience(s).render()),
    ("e21", |s| ex::e21_dram_resilience(s).render()),
    ("e22", |s| ex::e22_secure_mode(s).render()),
    ("tab2", |_| ex::tab2_config().render()),
    ("e13", |_| ex::e13_recovery_time().render()),
    ("e20", |_| ex::e20_recovery_latency().render()),
    ("e23", |s| ex::e23_endurance(s).render()),
    ("e24", |s| ex::e24_persist_buffer(s).render()),
];

/// The experiments also locked at `Scale::bench()`.
const FULL_SCALE: &[&str] = &["fig7", "fig8", "tab1"];

fn fig9_fig10(scale: Scale, kv: KvKind) -> String {
    let (fig9, fig10, _) = ex::fig9_fig10_kv(scale, kv);
    fig9.render() + &fig10.render()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Renders each named experiment at `scale`, prints its digest line
/// (visible under `--nocapture`) and fails listing every line that differs
/// from, or is missing in, the lock file.
fn check(names: &[&str], scale: Scale, scale_name: &str) {
    let mut stale = Vec::new();
    for &name in names {
        let (_, render) = EXPERIMENTS.iter().find(|(n, _)| *n == name).expect("a listed experiment");
        let line = format!("{name} {scale_name} {:016x}", fnv1a(render(scale).as_bytes()));
        println!("paper digest {line}");
        if !LOCKED.lines().any(|l| l == line) {
            stale.push(line);
        }
    }
    assert!(
        stale.is_empty(),
        "these figures no longer match tests/common/paper_digests.txt (its header says how to \
         regenerate after a deliberate change):\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_cache_driven_figure_matches_its_locked_digest_at_test_scale() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    check(&names, Scale::test(), "test");
}

#[test]
#[ignore = "full scale: under a minute in release; CI's paper-digests job runs it"]
fn fig7_fig8_and_table1_match_their_locked_digests_at_full_scale() {
    check(FULL_SCALE, Scale::bench(), "bench");
}

#[test]
fn every_locked_line_names_a_known_experiment() {
    for line in LOCKED.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let mut fields = line.split(' ');
        let (name, scale) = (fields.next().unwrap_or(""), fields.next().unwrap_or(""));
        let known = match scale {
            "test" => EXPERIMENTS.iter().any(|(n, _)| *n == name),
            "bench" => FULL_SCALE.contains(&name),
            _ => false,
        };
        assert!(known, "stale line in tests/common/paper_digests.txt: {line}");
    }
}
