//! The persistence oracle: a pure model of the paper's three-version
//! crash-consistency rules (§3.2, §4.5).
//!
//! The oracle is a plain byte map plus a list of checkpoint snapshots. A
//! harness feeds it the same writes and checkpoints it feeds the simulated
//! controller; the oracle then predicts, for a crash at *any* cycle, the
//! exact byte image recovery must produce:
//!
//! * writes of the active epoch (`W_active`) are always lost;
//! * the last checkpoint (`C_last`) wins if its commit record persisted —
//!   i.e. the checkpoint *completed* — by the crash cycle;
//! * otherwise recovery falls back to the penultimate completed checkpoint
//!   (`C_penult`), and transitively to older ones, down to the initial
//!   all-zero image.
//!
//! Fault domains compose on top of that rule through one query,
//! [`PersistenceOracle::expect`], which takes a [`Scenario`] — the crash
//! sequence plus whatever latent corruption, tamper, or persist-buffer
//! salvage rode along — and returns the image, label, and health rung
//! recovery must produce. How faults combine is decided here and nowhere
//! else.
//!
//! The oracle deliberately knows nothing about the controller's BTT/PTT,
//! regions, or devices — it is the independent specification the
//! implementation is diffed against, byte for byte.

use std::collections::BTreeMap;

use thynvm_types::{Cycle, HealthRung, RecoveryOutcome};

use crate::{MediaFault, TamperFault};

/// One byte-level divergence between the oracle and a recovered image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleMismatch {
    /// Physical address of the diverging byte.
    pub addr: u64,
    /// What the three-version rules require.
    pub expected: u8,
    /// What recovery actually produced.
    pub actual: u8,
}

/// A checkpoint the oracle knows about.
#[derive(Debug, Clone)]
struct OracleCheckpoint {
    /// Cycle the checkpoint was initiated (its content cutoff).
    started: Cycle,
    /// Cycle its commit record persists; the checkpoint only counts for
    /// crashes at or after this cycle.
    completes_at: Cycle,
    /// Byte image as of initiation.
    image: BTreeMap<u64, u8>,
}

/// Everything about one crash trial that decides what recovery must
/// produce. Built by a harness before the run; only `commit_salvaged` is
/// filled in from the run itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scenario {
    /// Crash cycles in firing order. The first crash decides which image
    /// survives: no checkpoint can complete while recovery runs, so nested
    /// crashes (and later ones) only restart recovery toward the same
    /// image. Empty means no crash at all.
    pub crashes: Vec<Cycle>,
    /// Latent media fault armed before the run; it voids whichever
    /// checkpoint is `C_last` at the first crash.
    pub media: Option<MediaFault>,
    /// Secure-mode tamper armed before the run; applied at the first crash
    /// that finds a completed checkpoint to forge.
    pub tamper: Option<TamperFault>,
    /// Whether the first crash's persist-buffer (WPQ) partial flush kept
    /// the in-flight checkpoint's commit marker — a runtime verdict the
    /// oracle cannot model, read from that crash's
    /// [`crate::EventKind::WpqFlush`] journal entry (the first one a
    /// replay's [`crate::ThyNvm::take_events`] returns).
    pub commit_salvaged: bool,
}

impl Scenario {
    /// A single crash at `at` with no other fault armed.
    #[must_use]
    pub fn crash_at(at: Cycle) -> Self {
        Self { crashes: vec![at], ..Self::default() }
    }
}

/// What recovery must produce for a [`Scenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// The byte image recovery must converge to; absent addresses are zero.
    pub image: BTreeMap<u64, u8>,
    /// The §4.5 label of the recovery the first crash triggers.
    pub outcome: RecoveryOutcome,
    /// The health-ladder rung recovery must rehydrate: the rung persisted
    /// with the restored image, or `FailSafe` once a tamper was detected.
    pub rung: HealthRung,
}

/// Pure reference model of what a crash at any cycle must recover to.
///
/// # Example
///
/// ```
/// use thynvm_core::{PersistenceOracle, Scenario};
/// use thynvm_types::{Cycle, RecoveryOutcome};
///
/// let mut oracle = PersistenceOracle::new();
/// oracle.record_write(0x40, b"ab");
/// oracle.record_checkpoint(Cycle::new(100), Cycle::new(500));
/// oracle.record_write(0x40, b"xy"); // W_active: lost on crash
///
/// // Crash before the checkpoint's commit persisted: all-zero image.
/// let early = oracle.expect(&Scenario::crash_at(Cycle::new(499)));
/// assert_eq!(early.image.get(&0x40), None);
/// assert_eq!(early.outcome, RecoveryOutcome::CPenult);
/// // Crash after: the checkpointed value survives, the overwrite does not.
/// let late = oracle.expect(&Scenario::crash_at(Cycle::new(500)));
/// assert_eq!(late.image.get(&0x40), Some(&b'a'));
/// assert_eq!(late.outcome, RecoveryOutcome::CLast);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PersistenceOracle {
    /// Live contents as the program wrote them (the would-be `W_active`).
    current: BTreeMap<u64, u8>,
    /// Checkpoint snapshots, in initiation order.
    checkpoints: Vec<OracleCheckpoint>,
    /// Health-ladder rungs persisted alongside checkpoint commit records:
    /// `(completes_at, rung)` in persist order. Fed from a reference run's
    /// durable rung ([`crate::ThyNvm::clast_health_rung`]); a crashed twin's
    /// post-recovery rung is validated against them.
    healths: Vec<(Cycle, HealthRung)>,
}

impl PersistenceOracle {
    /// Creates an oracle with an all-zero initial image and no checkpoints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a program write of `data` at physical address `addr`.
    pub fn record_write(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.current.insert(addr + i as u64, b);
        }
    }

    /// Records a checkpoint initiated at `started` whose commit record
    /// persists at `completes_at`: snapshots the current image.
    pub fn record_checkpoint(&mut self, started: Cycle, completes_at: Cycle) {
        self.checkpoints.push(OracleCheckpoint {
            started,
            completes_at,
            image: self.current.clone(),
        });
    }

    /// Records a DRAM-poison quarantine of `[base, base + len)`: the
    /// controller dropped that range's uncheckpointed writes and rolled its
    /// visible bytes back to the last captured checkpoint, so the oracle's
    /// live image must forget them too. Bytes the last snapshot never held
    /// revert to zero (fresh memory). Feed this from each
    /// [`Error::DramPoisonLost`](thynvm_types::Error::DramPoisonLost)
    /// `{ addr, bytes }` journal entry ([`crate::ThyNvm::take_events`])
    /// *before* recording any checkpoint the quarantine preceded.
    pub fn record_quarantine(&mut self, base: u64, len: u64) {
        let prev = self.checkpoints.last().map(|c| &c.image);
        for a in base..base.saturating_add(len) {
            match prev.and_then(|img| img.get(&a)) {
                Some(&b) => {
                    self.current.insert(a, b);
                }
                None => {
                    self.current.remove(&a);
                }
            }
        }
    }

    /// Records the health-ladder rung whose 64 B record persisted with the
    /// checkpoint committing at `completes_at`. Recovery must rehydrate the
    /// rung that was durable *with the image it restores*, so rung
    /// selection follows image selection exactly — see
    /// [`PersistenceOracle::expect`].
    pub fn record_health(&mut self, completes_at: Cycle, rung: HealthRung) {
        self.healths.push((completes_at, rung));
    }

    /// What recovery must produce for `scenario`. The rules, composed in
    /// one place:
    ///
    /// * **Clean crash.** `C_last` — the most recent checkpoint whose
    ///   commit record persisted by the first crash — wins; a checkpoint
    ///   initiated but not yet committed is discarded and labeled
    ///   `CPenult`. With nothing committed the image is all zero.
    /// * **First crash decides.** Later crashes in the sequence restart
    ///   recovery but never change the image or its label.
    /// * **Salvage promotes.** When the first crash's persist-buffer flush
    ///   kept the commit marker, the in-flight checkpoint counts as
    ///   committed and the label is `CLast`.
    /// * **Corrupt `C_last` falls back exactly one level.** A latent media
    ///   fault or a single-image tamper rejects `C_last`; recovery restores
    ///   the next older committed image, labeled
    ///   `CPenultIntegrityFallback`, and never falls back twice.
    /// * **Both images forged is unrecoverable.** Recovery refuses to
    ///   replay either image: all-zero image, `Unrecoverable`.
    /// * **Nothing committed, nothing to corrupt.** A media fault or tamper
    ///   armed before the first commit changes nothing.
    ///
    /// The rung follows the image: the rung persisted with the restored
    /// checkpoint (`Healthy` if none), except that a detected tamper pins
    /// `FailSafe`. With no crash at all the expectation is the live image
    /// and the newest persisted rung.
    #[must_use]
    pub fn expect(&self, scenario: &Scenario) -> Expectation {
        let Some(&at) = scenario.crashes.first() else {
            return Expectation {
                image: self.current.clone(),
                outcome: RecoveryOutcome::CLast,
                rung: self.healths.last().map_or(HealthRung::Healthy, |(_, r)| *r),
            };
        };
        let salvaged = scenario.commit_salvaged;
        // Checkpoints whose commit record is durable at the first crash.
        let durable: Vec<&OracleCheckpoint> = self
            .checkpoints
            .iter()
            .filter(|c| if salvaged { c.started <= at } else { c.completes_at <= at })
            .collect();
        let in_flight = self.checkpoints.iter().any(|c| c.started <= at && at < c.completes_at);

        let corruptible = !durable.is_empty();
        let tampered = corruptible && scenario.tamper.is_some();
        let both_forged =
            tampered && matches!(scenario.tamper, Some(TamperFault::BothImages { .. }));
        let fallback = corruptible && (tampered || scenario.media.is_some());

        let outcome = if both_forged {
            RecoveryOutcome::Unrecoverable
        } else if fallback {
            RecoveryOutcome::CPenultIntegrityFallback
        } else if in_flight && !salvaged {
            RecoveryOutcome::CPenult
        } else {
            RecoveryOutcome::CLast
        };
        let skip = usize::from(fallback);
        let image = if both_forged {
            BTreeMap::new()
        } else {
            durable.iter().rev().nth(skip).map(|c| c.image.clone()).unwrap_or_default()
        };
        // A salvaged checkpoint's rung record persisted with its marker.
        let cutoff = match durable.last() {
            Some(c) if salvaged => c.completes_at.max(at),
            _ => at,
        };
        let rung = if tampered {
            HealthRung::FailSafe
        } else {
            self.healths
                .iter()
                .rev()
                .filter(|(t, _)| *t <= cutoff)
                .nth(skip)
                .map_or(HealthRung::Healthy, |(_, r)| *r)
        };
        Expectation { image, outcome, rung }
    }

    /// Diffs a recovered image against [`PersistenceOracle::expect`]'s image
    /// for `scenario`, byte for byte over every address the program ever
    /// wrote (all other bytes are zero in both). `read` fetches one byte of
    /// the recovered image (e.g. a `load_bytes` wrapper). Returns every
    /// divergence; empty means recovery is oracle-identical.
    #[must_use = "a non-empty diff means recovery diverged from the oracle"]
    pub fn diff(
        &self,
        scenario: &Scenario,
        mut read: impl FnMut(u64) -> u8,
    ) -> Vec<OracleMismatch> {
        let expected = self.expect(scenario).image;
        self.current
            .keys()
            .filter_map(|&addr| {
                let want = expected.get(&addr).copied().unwrap_or(0);
                let got = read(addr);
                (got != want).then_some(OracleMismatch { addr, expected: want, actual: got })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(c: u64) -> Scenario {
        Scenario::crash_at(Cycle::new(c))
    }

    fn corrupt_at(c: u64) -> Scenario {
        Scenario { media: Some(MediaFault::TornCommitRecord), ..at(c) }
    }

    fn tampered_at(c: u64, t: TamperFault) -> Scenario {
        Scenario { tamper: Some(t), ..at(c) }
    }

    fn byte(o: &PersistenceOracle, addr: u64, s: &Scenario) -> Option<u8> {
        o.expect(s).image.get(&addr).copied()
    }

    /// Two checkpoints: value 1 committed at 100, value 2 committed at 300.
    fn two_checkpoints() -> PersistenceOracle {
        let mut o = PersistenceOracle::new();
        o.record_write(0, &[1]);
        o.record_checkpoint(Cycle::new(10), Cycle::new(100));
        o.record_write(0, &[2]);
        o.record_checkpoint(Cycle::new(200), Cycle::new(300));
        o
    }

    #[test]
    fn rung_selection_mirrors_image_selection() {
        let mut o = PersistenceOracle::new();
        // No completed checkpoint: an empty image carries no degradation.
        assert_eq!(o.expect(&at(50)).rung, HealthRung::Healthy);
        o.record_health(Cycle::new(100), HealthRung::Healthy);
        o.record_health(Cycle::new(300), HealthRung::Wounded);
        o.record_health(Cycle::new(500), HealthRung::ReadOnly);
        // Before the first commit record lands.
        assert_eq!(o.expect(&at(99)).rung, HealthRung::Healthy);
        // Newest persisted rung wins at and after each commit point.
        assert_eq!(o.expect(&at(100)).rung, HealthRung::Healthy);
        assert_eq!(o.expect(&at(300)).rung, HealthRung::Wounded);
        assert_eq!(o.expect(&at(499)).rung, HealthRung::Wounded);
        assert_eq!(o.expect(&at(9_999)).rung, HealthRung::ReadOnly);
    }

    #[test]
    fn fallback_rung_steps_back_exactly_one_checkpoint() {
        let mut o = PersistenceOracle::new();
        o.record_checkpoint(Cycle::new(10), Cycle::new(100));
        o.record_health(Cycle::new(100), HealthRung::Wounded);
        o.record_checkpoint(Cycle::new(200), Cycle::new(300));
        o.record_health(Cycle::new(300), HealthRung::ReadOnly);
        // With two completed checkpoints, fallback lands on the penultimate
        // rung; with one (or none) it degrades to Healthy like the image.
        assert_eq!(o.expect(&corrupt_at(400)).rung, HealthRung::Wounded);
        assert_eq!(o.expect(&corrupt_at(200)).rung, HealthRung::Healthy);
        assert_eq!(o.expect(&corrupt_at(50)).rung, HealthRung::Healthy);
    }

    #[test]
    fn no_checkpoint_expects_zeroes() {
        let mut o = PersistenceOracle::new();
        o.record_write(10, &[7, 8]);
        assert_eq!(byte(&o, 10, &at(1_000_000)), None);
        assert!(o.expect(&at(1_000_000)).image.is_empty());
        assert_eq!(o.expect(&at(0)).outcome, RecoveryOutcome::CLast);
    }

    #[test]
    fn clast_wins_once_commit_persisted() {
        let o = two_checkpoints();
        // Before the first commit: zeroes.
        assert_eq!(byte(&o, 0, &at(99)), None);
        // Between commits: the first checkpoint's value.
        assert_eq!(byte(&o, 0, &at(100)), Some(1));
        assert_eq!(byte(&o, 0, &at(299)), Some(1));
        // After the second commit: the overwrite.
        assert_eq!(byte(&o, 0, &at(300)), Some(2));
    }

    #[test]
    fn outcome_is_cpenult_only_while_a_checkpoint_is_in_flight() {
        let mut o = PersistenceOracle::new();
        o.record_checkpoint(Cycle::new(10), Cycle::new(100));
        assert_eq!(o.expect(&at(9)).outcome, RecoveryOutcome::CLast);
        assert_eq!(o.expect(&at(10)).outcome, RecoveryOutcome::CPenult);
        assert_eq!(o.expect(&at(99)).outcome, RecoveryOutcome::CPenult);
        assert_eq!(o.expect(&at(100)).outcome, RecoveryOutcome::CLast);
    }

    #[test]
    fn wactive_writes_are_always_lost() {
        let mut o = PersistenceOracle::new();
        o.record_write(5, &[1]);
        o.record_checkpoint(Cycle::new(10), Cycle::new(20));
        o.record_write(5, &[9]);
        o.record_write(6, &[9]);
        let img = o.expect(&at(1_000)).image;
        assert_eq!(img.get(&5), Some(&1));
        assert_eq!(img.get(&6), None);
    }

    #[test]
    fn diff_reports_divergent_bytes_only() {
        let mut o = PersistenceOracle::new();
        o.record_write(0, &[1, 2, 3]);
        o.record_checkpoint(Cycle::new(10), Cycle::new(20));
        // Recovered image differs at addr 1 only.
        let recovered = |addr: u64| match addr {
            0 => 1,
            1 => 99,
            2 => 3,
            _ => 0,
        };
        let diffs = o.diff(&at(20), recovered);
        assert_eq!(diffs, vec![OracleMismatch { addr: 1, expected: 2, actual: 99 }]);
        // And is empty when recovery matches.
        assert!(o.diff(&at(19), |_| 0).is_empty());
    }

    #[test]
    fn fallback_image_skips_the_corrupt_clast() {
        let mut o = two_checkpoints();
        o.record_write(0, &[3]);
        o.record_checkpoint(Cycle::new(400), Cycle::new(500));

        // Only one checkpoint completed: the fallback is the zero image.
        assert!(o.expect(&corrupt_at(100)).image.is_empty());
        // Two completed: C_last (value 2) is rejected, C_penult (value 1)
        // is the fallback.
        assert_eq!(byte(&o, 0, &corrupt_at(300)), Some(1));
        // Crash mid-flight of the third: the in-flight one never counted,
        // so the corrupt "C_last" is #2 and the fallback is still #1.
        assert_eq!(byte(&o, 0, &corrupt_at(450)), Some(1));
        // Three completed: fallback is #2.
        assert_eq!(byte(&o, 0, &corrupt_at(500)), Some(2));
    }

    #[test]
    fn corrupt_clast_outcome_labels_the_integrity_fallback() {
        let mut o = PersistenceOracle::new();
        // No checkpoint at all: nothing to verify, clean-crash rules apply.
        assert_eq!(o.expect(&corrupt_at(0)).outcome, RecoveryOutcome::CLast);
        o.record_checkpoint(Cycle::new(10), Cycle::new(100));
        // In flight and never completed: still plain CPenult.
        assert_eq!(o.expect(&corrupt_at(50)).outcome, RecoveryOutcome::CPenult);
        // Completed: its verification fails at recovery.
        assert_eq!(o.expect(&corrupt_at(100)).outcome, RecoveryOutcome::CPenultIntegrityFallback);
        // Every media fault kind voids C_last the same way.
        for media in [MediaFault::ClastBitFlip { addr: 0 }, MediaFault::CorruptPttMetadata] {
            let s = Scenario { media: Some(media), ..at(100) };
            assert_eq!(o.expect(&s).outcome, RecoveryOutcome::CPenultIntegrityFallback);
        }
    }

    #[test]
    fn diff_with_corrupt_clast_checks_the_fallback_image() {
        let o = two_checkpoints();
        // A recovered image holding the first checkpoint's value is correct
        // when C_last is corrupt…
        assert!(o.diff(&corrupt_at(300), |_| 1).is_empty());
        // …and wrong for a clean crash at the same cycle.
        assert!(!o.diff(&at(300), |_| 1).is_empty());
    }

    #[test]
    fn crash_sequence_is_governed_by_its_first_crash() {
        let mut o = two_checkpoints();
        o.record_write(0, &[3]); // W_active: always lost

        // Empty sequence: no crash — the live image, labeled CLast.
        let none = o.expect(&Scenario::default());
        assert_eq!(none.image.get(&0), Some(&3));
        assert_eq!(none.outcome, RecoveryOutcome::CLast);

        // Nested crashes during recovery never change the converged image:
        // any suffix of stacked crashes matches the single-crash answer.
        let stacked = Scenario {
            crashes: [300, 310, 350, 9_999].map(Cycle::new).to_vec(),
            ..Scenario::default()
        };
        assert_eq!(o.expect(&stacked), o.expect(&at(300)));

        // Crash during the integrity fallback: the second recovery still
        // picks C_penult — never a double fallback.
        let stacked_corrupt =
            Scenario { media: Some(MediaFault::TornCommitRecord), ..stacked.clone() };
        assert_eq!(o.expect(&stacked_corrupt), o.expect(&corrupt_at(300)));
        assert_eq!(o.expect(&stacked_corrupt).outcome, RecoveryOutcome::CPenultIntegrityFallback);
        assert!(o.diff(&stacked_corrupt, |_| 1).is_empty());
        assert!(!o.diff(&stacked, |_| 1).is_empty());
    }

    #[test]
    fn tampered_region_outcomes_and_images() {
        let o = two_checkpoints();
        let forged = TamperFault::ClastData { addr: 0 };
        let both = TamperFault::BothImages { addr: 0 };

        // Before any checkpoint completed: nothing authenticated to forge,
        // the tamper stays armed and clean-crash rules apply.
        let early = o.expect(&tampered_at(50, both));
        assert_eq!(early.outcome, RecoveryOutcome::CPenult);
        assert!(early.image.is_empty());
        assert_eq!(early, o.expect(&at(50)));

        // Single-image tampers degrade to C_penult, exactly like CRC
        // failures — for every recoverable kind — and pin FailSafe.
        for t in [forged, TamperFault::StaleCounterTable, TamperFault::TornRootMeta] {
            let e = o.expect(&tampered_at(300, t));
            assert_eq!(e.outcome, RecoveryOutcome::CPenultIntegrityFallback);
            assert_eq!(e.image.get(&0), Some(&1));
            assert_eq!(e.rung, HealthRung::FailSafe);
        }

        // Both images forged: nothing authenticated survives.
        let e = o.expect(&tampered_at(300, both));
        assert_eq!(e.outcome, RecoveryOutcome::Unrecoverable);
        assert!(e.image.is_empty());
        assert!(o.diff(&tampered_at(300, both), |_| 0).is_empty());
        assert!(o.diff(&tampered_at(300, forged), |_| 1).is_empty());
        assert!(!o.diff(&tampered_at(300, forged), |_| 2).is_empty());
    }

    #[test]
    fn faults_compose_without_compounding() {
        let mut o = two_checkpoints();
        o.record_write(0, &[3]);
        o.record_checkpoint(Cycle::new(400), Cycle::new(500));
        // A media fault and a single-image tamper on the same C_last still
        // fall back exactly one level.
        let both_kinds = Scenario {
            media: Some(MediaFault::ClastBitFlip { addr: 0 }),
            ..tampered_at(500, TamperFault::StaleCounterTable)
        };
        let e = o.expect(&both_kinds);
        assert_eq!(e.outcome, RecoveryOutcome::CPenultIntegrityFallback);
        assert_eq!(e.image.get(&0), Some(&2));
        // A both-images forgery dominates any media fault.
        let forged = Scenario {
            media: Some(MediaFault::TornCommitRecord),
            ..tampered_at(500, TamperFault::BothImages { addr: 0 })
        };
        assert_eq!(o.expect(&forged).outcome, RecoveryOutcome::Unrecoverable);
        // A salvaged marker promotes the in-flight checkpoint to C_last,
        // which a media fault then rejects: the fallback is the checkpoint
        // that was C_last before the promotion.
        let salvaged_corrupt = Scenario { commit_salvaged: true, ..corrupt_at(450) };
        let e = o.expect(&salvaged_corrupt);
        assert_eq!(e.outcome, RecoveryOutcome::CPenultIntegrityFallback);
        assert_eq!(e.image.get(&0), Some(&2));
    }

    #[test]
    fn commit_salvage_promotes_the_in_flight_checkpoint() {
        let mut o = two_checkpoints();
        o.record_health(Cycle::new(100), HealthRung::Healthy);
        o.record_health(Cycle::new(300), HealthRung::Wounded);
        // Crash mid-flight of the second checkpoint: normally CPenult with
        // value 1, but a salvaged commit marker promotes it to CLast with
        // the in-flight snapshot's value (and rung).
        let classic = o.expect(&at(250));
        assert_eq!(classic.outcome, RecoveryOutcome::CPenult);
        assert_eq!(classic.image.get(&0), Some(&1));
        assert_eq!(classic.rung, HealthRung::Healthy);
        let salvaged = Scenario { commit_salvaged: true, ..at(250) };
        let e = o.expect(&salvaged);
        assert_eq!(e.outcome, RecoveryOutcome::CLast);
        assert_eq!(e.image.get(&0), Some(&2));
        assert_eq!(e.rung, HealthRung::Wounded);
        assert!(o.diff(&salvaged, |_| 2).is_empty());
        assert!(!o.diff(&salvaged, |_| 1).is_empty());
        // With no checkpoint initiated, the salvage image is empty (there
        // was no marker to salvage; the prediction degrades gracefully).
        let nothing = Scenario { commit_salvaged: true, ..at(5) };
        assert!(o.expect(&nothing).image.is_empty());
        assert_eq!(o.expect(&nothing).outcome, RecoveryOutcome::CLast);
    }

    #[test]
    fn multi_byte_writes_split_into_bytes() {
        let mut o = PersistenceOracle::new();
        o.record_write(100, b"hello");
        o.record_checkpoint(Cycle::ZERO, Cycle::ZERO);
        assert_eq!(byte(&o, 104, &at(0)), Some(b'o'));
        // Every written byte is in the verification domain.
        let mut reads = 0;
        let _ = o.diff(&at(0), |_| {
            reads += 1;
            0
        });
        assert_eq!(reads, 5);
    }

    #[test]
    fn quarantine_rolls_the_live_image_back_to_the_last_snapshot() {
        let mut o = PersistenceOracle::new();
        o.record_write(0x40, &[1, 1]);
        o.record_checkpoint(Cycle::new(10), Cycle::new(100));
        o.record_write(0x40, &[2]);
        o.record_write(0x80, &[9]); // outside the quarantined range
        // Poison under the dirty 0x40 block: the controller dropped its
        // epoch writes and rolled it back to the checkpointed bytes.
        o.record_quarantine(0x40, 64);
        o.record_checkpoint(Cycle::new(200), Cycle::new(300));
        let img = o.expect(&at(300)).image;
        assert_eq!(img.get(&0x40), Some(&1), "rolled back to the snapshot");
        assert_eq!(img.get(&0x41), Some(&1));
        assert_eq!(img.get(&0x80), Some(&9), "outside range untouched");
    }

    #[test]
    fn quarantine_with_no_snapshot_reverts_to_zero() {
        let mut o = PersistenceOracle::new();
        o.record_write(0x40, &[7]);
        o.record_quarantine(0x40, 64);
        o.record_checkpoint(Cycle::new(10), Cycle::new(100));
        // The dropped byte never reached any checkpoint: fresh memory.
        assert_eq!(byte(&o, 0x40, &at(100)), None);
    }
}
