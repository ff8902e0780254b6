//! Pins the simulated cycle total of every simspeed case.
//!
//! `BENCH_simspeed.json`'s latest entry records each case's `sim_cycles`.
//! CI's `simspeed` job checks them too, but only next to a host-throughput
//! check that a shared runner can fail on noise alone. Here every
//! `cargo test` replays each case once and holds its simulated timeline to
//! the pinned total, so a change that moves it has to say why.

use thynvm::bench::{simspeed, Json};

#[test]
fn every_simspeed_case_replays_its_pinned_sim_cycles() {
    let doc = Json::parse(include_str!("../BENCH_simspeed.json")).expect("artifact parses");
    let (label, pinned) = simspeed::latest_entry(&doc).expect("latest entry decodes");
    let cases = simspeed::cases();
    assert_eq!(cases.len(), pinned.len(), "every case is pinned by '{label}'");
    for case in &cases {
        let pin = pinned
            .iter()
            .find(|p| p.name == case.name)
            .unwrap_or_else(|| panic!("{} is not pinned by '{label}'", case.name));
        let run = simspeed::measure(case, 1);
        assert_eq!(run.ops, pin.ops, "{}: the trace changed length", case.name);
        assert_eq!(run.sim_cycles, pin.sim_cycles, "{}: the simulated timeline moved", case.name);
    }
}
