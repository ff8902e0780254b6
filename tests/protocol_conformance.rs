//! Conformance of the real controller to the executable protocol
//! specification in `thynvm_core::protocol`.
//!
//! The controller's BTT and PTT entries are mapped to abstract
//! [`VersionState`]s; random traffic with checkpoints and crashes is
//! driven through the controller, and after every step each observed entry
//! state must be one the specification reaches, with spec-level recovery
//! semantics agreeing with the controller's functional behaviour.

use proptest::prelude::*;
use thynvm::core::{BttEntry, ProtocolEvent, PttEntry, ThyNvm, VersionState};
use thynvm::types::{Cycle, MemorySystem, PageIndex, PhysAddr, SystemConfig};

/// Maps a controller BTT entry to its abstract protocol state.
fn block_state(entry: &BttEntry) -> VersionState {
    VersionState {
        working: entry.wactive.is_some(),
        in_flight: entry.pending.is_some(),
        durable: entry.clast_region.is_some(),
    }
}

/// Maps a controller PTT entry to its abstract protocol state: the DRAM
/// copy is a working version while dirty, `pending` names the region the
/// running checkpoint writes the page to, and `clast_region` the durable
/// copy.
fn page_state(entry: &PttEntry) -> VersionState {
    VersionState {
        working: entry.dirty,
        in_flight: entry.pending.is_some(),
        durable: entry.clast_region.is_some(),
    }
}

/// Every BTT and PTT entry of `sys`, named, with its abstract state.
fn entry_states(sys: &ThyNvm) -> Vec<(String, VersionState)> {
    let blocks = sys.btt().iter().map(|(b, e)| (format!("block {b}"), block_state(e)));
    let pages = sys.ptt().iter().map(|(p, e)| (format!("page {p}"), page_state(e)));
    blocks.chain(pages).collect()
}

/// All states the specification can reach (by exhaustive exploration).
fn reachable_states() -> Vec<VersionState> {
    use std::collections::{HashSet, VecDeque};
    let mut seen: HashSet<VersionState> = HashSet::new();
    let mut queue = VecDeque::from([VersionState::HOME]);
    while let Some(s) = queue.pop_front() {
        if !seen.insert(s) {
            continue;
        }
        for e in ProtocolEvent::ALL {
            if let Ok(next) = s.apply(e) {
                queue.push_back(next);
            }
        }
    }
    seen.into_iter().collect()
}

/// Writes land on the blocks of page 0, so 22 of them within one epoch
/// promote the page (§4.2) and the properties see PTT entries as well as
/// BTT entries. A burst stores 1 KiB, 16 blocks, from its block on.
#[derive(Debug, Clone)]
enum Act {
    Write(u64),
    Burst(u64),
    Checkpoint,
    Wait(u64),
    Crash,
}

fn act_strategy() -> impl Strategy<Value = Act> {
    prop_oneof![
        6 => (0u64..64).prop_map(|b| Act::Write(b * 64)),
        2 => (0u64..64).prop_map(|b| Act::Burst(b * 64)),
        2 => Just(Act::Checkpoint),
        2 => (0u64..1_000_000).prop_map(Act::Wait),
        1 => Just(Act::Crash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every BTT and PTT entry state the controller produces is reachable
    /// in the protocol specification.
    #[test]
    fn controller_states_are_spec_reachable(
        acts in proptest::collection::vec(act_strategy(), 1..80)
    ) {
        let legal = reachable_states();
        let mut sys = ThyNvm::new(SystemConfig::small_test());
        let mut now = Cycle::ZERO;
        for act in acts {
            match act {
                Act::Write(addr) => {
                    now = now.max(sys.store_bytes(PhysAddr::new(addr), &[1], now));
                }
                Act::Burst(addr) => {
                    now = now.max(sys.store_bytes(PhysAddr::new(addr), &[1; 1024], now));
                }
                Act::Checkpoint => now = now.max(sys.force_checkpoint(now)),
                Act::Wait(c) => now += Cycle::new(c),
                Act::Crash => {
                    let _ = sys.crash_and_recover(now);
                }
            }
            for (datum, state) in entry_states(&sys) {
                prop_assert!(
                    legal.contains(&state),
                    "entry for {datum} in unreachable state {state}"
                );
            }
        }
    }

    /// After a crash, no entry may claim working or in-flight versions —
    /// the spec's Crash event postcondition.
    #[test]
    fn crash_clears_volatile_versions(
        writes in proptest::collection::vec(0u64..64, 1..40),
        do_ckpt in any::<bool>(),
    ) {
        let mut sys = ThyNvm::new(SystemConfig::small_test());
        let mut now = Cycle::ZERO;
        for b in writes {
            now = now.max(sys.store_bytes(PhysAddr::new(b * 64), &[1], now));
        }
        if do_ckpt {
            now = sys.force_checkpoint(now);
        }
        let _ = sys.crash_and_recover(now);
        for (datum, s) in entry_states(&sys) {
            prop_assert!(!s.working, "{datum} kept a working copy through power loss");
            // An in-flight checkpoint survives only if it completed before
            // the crash — in which case the controller rotated it to
            // durable, so `pending` must be empty either way.
            prop_assert!(!s.in_flight, "{datum} kept an in-flight checkpoint");
        }
    }
}

#[test]
fn spec_recovery_matches_controller_on_canonical_scenarios() {
    // Scenario A: write, checkpoint completes → spec says LastCheckpoint.
    let mut sys = ThyNvm::new(SystemConfig::small_test());
    let t = sys.store_bytes(PhysAddr::new(0), &[5], Cycle::ZERO);
    let t = sys.force_checkpoint(t);
    let t = sys.drain(t);
    let spec = VersionState { working: false, in_flight: false, durable: true };
    assert_eq!(
        spec.recovery_target(),
        thynvm::core::protocol::RecoveryTarget::LastCheckpoint
    );
    let _ = sys.crash_and_recover(t);
    let mut buf = [0u8; 1];
    sys.load_bytes(PhysAddr::new(0), &mut buf, t);
    assert_eq!(buf[0], 5, "controller agrees: last checkpoint restored");

    // Scenario B: crash while the first checkpoint is in flight → spec
    // says HomeOriginal (zero).
    let mut sys = ThyNvm::new(SystemConfig::small_test());
    let t = sys.store_bytes(PhysAddr::new(0), &[5], Cycle::ZERO);
    let resume = sys.force_checkpoint(t);
    assert!(sys.epoch_state().job_running(resume));
    let spec = VersionState { working: false, in_flight: true, durable: false };
    assert_eq!(
        spec.recovery_target(),
        thynvm::core::protocol::RecoveryTarget::HomeOriginal
    );
    let _ = sys.crash_and_recover(resume);
    let mut buf = [9u8; 1];
    sys.load_bytes(PhysAddr::new(0), &mut buf, resume);
    assert_eq!(buf[0], 0, "controller agrees: home original restored");
}

#[test]
fn a_promoted_page_moves_through_the_spec_states() {
    let page =
        |sys: &ThyNvm| page_state(sys.ptt().get(PageIndex::new(0)).expect("page 0 resident"));
    let step = |s: VersionState, e: ProtocolEvent| s.apply(e).expect("legal in the spec");
    let mut sys = ThyNvm::new(SystemConfig::small_test());
    let mut now = Cycle::ZERO;
    // 22 stores to one page within an epoch promote it (§4.2).
    for b in 0..22u64 {
        now = now.max(sys.store_bytes(PhysAddr::new(b * 64), &[1], now));
    }
    let mut spec = step(VersionState::HOME, ProtocolEvent::Write);
    assert_eq!(page(&sys), spec, "promoted and dirty");
    now = sys.force_checkpoint(now);
    spec = step(spec, ProtocolEvent::Capture);
    assert_eq!(page(&sys), spec, "written back by the running job");
    now = sys.drain(now);
    spec = step(spec, ProtocolEvent::Commit);
    assert_eq!(page(&sys), spec, "durable");
    now = sys.store_bytes(PhysAddr::new(0), &[2], now);
    spec = step(spec, ProtocolEvent::Write);
    assert_eq!(page(&sys), spec, "dirty again");
    now = sys.force_checkpoint(now);
    spec = step(spec, ProtocolEvent::Capture);
    assert_eq!(page(&sys), spec, "in flight over a durable copy");
    let _ = sys.crash_and_recover(now);
    spec = step(spec, ProtocolEvent::Crash);
    assert_eq!(page(&sys), spec, "the crash leaves the durable copy only");
}
