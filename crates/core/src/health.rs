//! The graceful-degradation health ladder.
//!
//! PRs 1–7 gave the controller a deep *per-event* fault stack — CRC retries,
//! bad-block remaps, DRAM poison quarantine, tamper detection — but no
//! notion of *cumulative* health: a drained spare pool degenerates into
//! unbounded per-read retry latency with no posture change, and wear accrues
//! silently. [`HealthMonitor`] closes that gap with a hysteresis-driven
//! degradation ladder
//!
//! ```text
//! Healthy → Wounded → ReadOnly → FailSafe
//! ```
//!
//! fed only by signals the controller already observes ([`HealthSignals`]):
//! spare-pool occupancy, sliding-window CRC-retry and ECC-refetch rates,
//! the scrubber's backlog of un-remapped stuck cells, outstanding DRAM
//! poison, and tamper detections. WAL redos happen only inside recovery, so
//! the controller weighs them against [`READONLY_WAL_REDOS`] when that
//! recovery ends, not in the monitor's window.
//!
//! # Rung postures (enforced by the controller)
//!
//! * **Wounded** — emergency-early checkpoints (the epoch timer divides by
//!   `EMERGENCY_DIVISOR`) and a scrubber held to `SCRUB_BUDGET_NS` per
//!   pass, so scrubbing can no longer starve foreground traffic.
//! * **ReadOnly** — new stores are rejected with
//!   [`thynvm_types::Error::Degraded`]; CRC-verified loads are still served
//!   and the in-flight checkpoint completes.
//! * **FailSafe** — only integrity-verified data is served and the rung
//!   *never promotes* (a detected forgery is not something time heals).
//!
//! # Hysteresis
//!
//! Demotion is immediate and may skip rungs — the ladder reacts to the worst
//! firing signal at once. Promotion is deliberately slow: one rung per
//! [`HealthConfig::promote_clean_epochs`] *consecutive* clean epochs, and any
//! firing signal resets the clean streak. This asymmetry is what keeps the
//! ladder monotone under a flapping signal instead of oscillating with it.
//!
//! # Crash consistency
//!
//! The monitor itself is volatile. The controller persists the current rung
//! in a 64 B record alongside each checkpoint's commit record and rotates it
//! with the images (`C_last`/`C_penult`), so recovery rehydrates the rung
//! that was durable *with the image it restored* — see
//! [`HealthMonitor::rehydrate`]. Window state and clean-epoch streaks are
//! deliberately not persisted: they re-baseline from the durable counters.

use std::collections::VecDeque;

use thynvm_types::{HealthConfig, HealthRung, HealthStats};

/// Spare-pool occupancy percentage at or above which the ladder demotes to
/// at least `Wounded`.
const WOUNDED_SPARE_PCT: u64 = 75;

/// Outstanding poisoned DRAM blocks at or above which the ladder demotes to
/// at least `ReadOnly`.
const READONLY_POISON_BLOCKS: u64 = 16;

/// WAL redos in one recovery at or above which the recovered rung is at
/// least `ReadOnly`: recovery-side write-ahead records keep tearing, so
/// durability of new data is in question.
pub const READONLY_WAL_REDOS: u64 = 4;

/// Factor by which the `Wounded` posture shortens the epoch timer:
/// checkpoints become due after `epoch_max / EMERGENCY_DIVISOR`.
pub(crate) const EMERGENCY_DIVISOR: u64 = 4;

/// Simulated time one `Wounded`-mode scrub pass may spend, in nanoseconds,
/// before deferring the remaining stuck cells to a later epoch.
pub(crate) const SCRUB_BUDGET_NS: u64 = 100_000;

/// One epoch's worth of observable health inputs, sampled by the controller
/// at job retirement from state it already maintains. All `*_total` fields
/// are *cumulative* counters (the monitor differences them internally);
/// `scrub_backlog`, `outstanding_poison` and the spare-pool pair are current
/// levels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSignals {
    /// Spare-pool slots handed out so far.
    pub spares_used: u64,
    /// Spare-pool capacity ([`thynvm_types::MediaFaultConfig::spare_blocks`]).
    pub spares_total: u64,
    /// Cumulative media CRC-retry count ([`thynvm_types::MediaStats::retries`]).
    pub retries_total: u64,
    /// Cumulative DRAM ECC pressure: corrected flips plus refetch retries
    /// ([`thynvm_types::DramStats::corrected_flips`] +
    /// [`thynvm_types::DramStats::refetch_retries`]). A corrected flip costs
    /// no traffic but consumes SEC-DED margin — it is the earliest wear
    /// signal the controller sees.
    pub refetches_total: u64,
    /// Cumulative spare-pool-exhausted events
    /// ([`thynvm_types::MediaStats::spare_exhausted`]).
    pub spare_exhausted_total: u64,
    /// Stuck cells the scrubber has not (and, with spares gone, cannot)
    /// remap away — the healing backlog.
    pub scrub_backlog: u64,
    /// Outstanding poisoned 64 B DRAM blocks.
    pub outstanding_poison: u64,
    /// Cumulative tamper detections
    /// ([`thynvm_types::SecurityStats::tampers_detected`]).
    pub tampers_detected_total: u64,
}

/// Per-epoch deltas of the cumulative signals, kept in the sliding window.
#[derive(Debug, Clone, Copy, Default)]
struct EpochDeltas {
    retries: u64,
    refetches: u64,
}

/// The hysteresis-driven degradation ladder (see the [module docs](self)).
///
/// The monitor is pure policy: it owns no devices and charges no cycles. The
/// controller feeds it [`HealthSignals`] once per retired checkpoint and
/// enforces whatever posture the resulting rung demands.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    rung: HealthRung,
    /// Per-epoch deltas of the windowed signals, newest last; bounded by
    /// `cfg.window_epochs`.
    window: VecDeque<EpochDeltas>,
    /// Consecutive evaluations with no firing signal.
    clean_epochs: u32,
    /// Cumulative-counter baselines from the previous evaluation.
    prev: HealthSignals,
}

/// Ladder position as a count of rungs below `Healthy`, for step accounting.
fn level(r: HealthRung) -> u64 {
    match r {
        HealthRung::Healthy => 0,
        HealthRung::Wounded => 1,
        HealthRung::ReadOnly => 2,
        HealthRung::FailSafe => 3,
    }
}

/// The rung one step healthier than `r` (saturating at `Healthy`).
fn promoted(r: HealthRung) -> HealthRung {
    match r {
        HealthRung::Healthy | HealthRung::Wounded => HealthRung::Healthy,
        HealthRung::ReadOnly => HealthRung::Wounded,
        HealthRung::FailSafe => HealthRung::ReadOnly,
    }
}

impl HealthMonitor {
    /// Creates a monitor at `Healthy` with empty history. `cfg` must have
    /// passed [`thynvm_types::SystemConfig::validate`].
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            window: VecDeque::with_capacity(cfg.window_epochs as usize),
            cfg,
            rung: HealthRung::Healthy,
            clean_epochs: 0,
            prev: HealthSignals::default(),
        }
    }

    /// The current ladder rung.
    pub fn rung(&self) -> HealthRung {
        self.rung
    }

    /// Consecutive clean evaluations accumulated toward the next promotion.
    pub fn clean_epochs(&self) -> u32 {
        self.clean_epochs
    }

    /// The rung demanded by this epoch's signals alone (ignoring the current
    /// rung and hysteresis): the worst rung any firing signal maps to.
    fn target(&self, s: &HealthSignals, deltas: EpochDeltas) -> HealthRung {
        let c = &self.cfg;
        let mut target = HealthRung::Healthy;
        let mut at_least = |r: HealthRung| {
            if r > target {
                target = r;
            }
        };

        // Wounded: the device is consuming its margins.
        let occupancy_pct =
            s.spares_used.saturating_mul(100).checked_div(s.spares_total).unwrap_or(0);
        if occupancy_pct >= WOUNDED_SPARE_PCT {
            at_least(HealthRung::Wounded);
        }
        let (mut retries, mut refetches) = (deltas.retries, deltas.refetches);
        for d in &self.window {
            retries += d.retries;
            refetches += d.refetches;
        }
        if retries >= c.wounded_retry_rate {
            at_least(HealthRung::Wounded);
        }
        if refetches >= c.wounded_refetch_rate {
            at_least(HealthRung::Wounded);
        }

        // ReadOnly: durability of *new* data can no longer be promised.
        if s.spare_exhausted_total > self.prev.spare_exhausted_total {
            at_least(HealthRung::ReadOnly);
        }
        if s.scrub_backlog >= c.readonly_scrub_backlog && s.spares_used >= s.spares_total {
            at_least(HealthRung::ReadOnly);
        }
        if s.outstanding_poison >= READONLY_POISON_BLOCKS {
            at_least(HealthRung::ReadOnly);
        }

        // FailSafe: an integrity verdict, not a rate — any fresh detection.
        if s.tampers_detected_total > self.prev.tampers_detected_total {
            at_least(HealthRung::FailSafe);
        }
        target
    }

    /// One ladder evaluation, fed the current signal sample. Demotion to the
    /// target rung is immediate (and may skip rungs); promotion climbs one
    /// rung per [`HealthConfig::promote_clean_epochs`] consecutive clean
    /// epochs, and `FailSafe` never promotes. Returns the (possibly
    /// unchanged) rung.
    ///
    /// `stats` keeps the conservation ledger: every rung-step downward is a
    /// demotion, every step upward a promotion, so
    /// `promotions <= demotions` always holds.
    pub fn observe_epoch(&mut self, s: &HealthSignals, stats: &mut HealthStats) -> HealthRung {
        stats.evaluations += 1;
        let deltas = EpochDeltas {
            retries: s.retries_total.saturating_sub(self.prev.retries_total),
            refetches: s.refetches_total.saturating_sub(self.prev.refetches_total),
        };
        let target = self.target(s, deltas);
        self.window.push_back(deltas);
        while self.window.len() > self.cfg.window_epochs as usize {
            self.window.pop_front();
        }
        self.prev = *s;

        if target > self.rung {
            stats.demotions += level(target) - level(self.rung);
            self.rung = target;
            self.clean_epochs = 0;
        } else if target == HealthRung::Healthy {
            // Clean epoch: accrue toward promotion. FailSafe is sticky — a
            // verified forgery is not something clean epochs wash out.
            self.clean_epochs += 1;
            if self.clean_epochs >= self.cfg.promote_clean_epochs
                && self.rung > HealthRung::Healthy
                && self.rung != HealthRung::FailSafe
            {
                self.rung = promoted(self.rung);
                self.clean_epochs = 0;
                stats.promotions += 1;
            }
        } else {
            // A signal still fires at or below the current rung: the streak
            // breaks, the rung holds.
            self.clean_epochs = 0;
        }
        self.rung
    }

    /// Restores the rung recovery rehydrated from durable state and
    /// re-baselines the cumulative counters at `s`, discarding the volatile
    /// window and clean streak (they were lost with power). Rung-steps
    /// *downward* relative to the pre-crash rung are counted as demotions so
    /// the `promotions <= demotions` ledger survives rehydration; an upward
    /// move (the persisted rung predates a volatile demotion) is not a
    /// promotion and is left uncounted.
    pub fn rehydrate(&mut self, rung: HealthRung, s: &HealthSignals, stats: &mut HealthStats) {
        if rung > self.rung {
            stats.demotions += level(rung) - level(self.rung);
        }
        self.rung = rung;
        self.window.clear();
        self.clean_epochs = 0;
        self.prev = *s;
        stats.rehydrations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thynvm_types::HealthConfig;

    fn cfg() -> HealthConfig {
        HealthConfig::hardened()
    }

    fn sig() -> HealthSignals {
        HealthSignals { spares_total: 100, ..Default::default() }
    }

    #[test]
    fn starts_healthy_and_stays_healthy_on_quiet_signals() {
        let mut m = HealthMonitor::new(cfg());
        let mut st = HealthStats::default();
        for _ in 0..20 {
            assert_eq!(m.observe_epoch(&sig(), &mut st), HealthRung::Healthy);
        }
        assert_eq!(st.evaluations, 20);
        assert_eq!(st.demotions, 0);
        assert_eq!(st.promotions, 0);
    }

    #[test]
    fn spare_occupancy_wounds_and_hysteresis_promotes_back() {
        let mut m = HealthMonitor::new(cfg());
        let mut st = HealthStats::default();
        let mut s = sig();
        s.spares_used = 80; // 80 % >= 75 %
        assert_eq!(m.observe_epoch(&s, &mut st), HealthRung::Wounded);
        assert_eq!(st.demotions, 1);
        // Pool pressure relieved: promotion needs the full clean streak.
        let clean = sig();
        for i in 1..cfg().promote_clean_epochs {
            assert_eq!(m.observe_epoch(&clean, &mut st), HealthRung::Wounded, "epoch {i}");
        }
        assert_eq!(m.observe_epoch(&clean, &mut st), HealthRung::Healthy);
        assert_eq!(st.promotions, 1);
        assert!(st.promotions <= st.demotions);
    }

    #[test]
    fn firing_signal_resets_the_clean_streak() {
        let mut m = HealthMonitor::new(cfg());
        let mut st = HealthStats::default();
        let mut s = sig();
        s.spares_used = 80;
        m.observe_epoch(&s, &mut st);
        // Almost promoted…
        for _ in 1..cfg().promote_clean_epochs {
            m.observe_epoch(&sig(), &mut st);
        }
        // …but the signal fires again: streak resets, rung holds.
        assert_eq!(m.observe_epoch(&s, &mut st), HealthRung::Wounded);
        assert_eq!(m.clean_epochs(), 0);
        assert_eq!(m.observe_epoch(&sig(), &mut st), HealthRung::Wounded);
    }

    #[test]
    fn windowed_retry_rate_wounds_and_slides_off() {
        let c = cfg();
        let mut m = HealthMonitor::new(c);
        let mut st = HealthStats::default();
        let mut s = sig();
        // One burst of retries equal to the threshold.
        s.retries_total = c.wounded_retry_rate;
        assert_eq!(m.observe_epoch(&s, &mut st), HealthRung::Wounded);
        // The burst stays in the window (rung holds, streak broken) until
        // `window_epochs` later epochs push it out; then the promotion
        // streak can finally build.
        let mut rungs = Vec::new();
        for _ in 0..(c.window_epochs + c.promote_clean_epochs) {
            rungs.push(m.observe_epoch(&s, &mut st)); // counters flat: delta 0
        }
        assert_eq!(*rungs.last().unwrap(), HealthRung::Healthy);
        // Monotone recovery: Wounded…Wounded then Healthy, never worse.
        assert!(rungs.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn spare_exhaustion_delta_goes_straight_to_readonly() {
        let mut m = HealthMonitor::new(cfg());
        let mut st = HealthStats::default();
        let mut s = sig();
        s.spare_exhausted_total = 1;
        assert_eq!(m.observe_epoch(&s, &mut st), HealthRung::ReadOnly);
        // Demotion skipping Wounded counts both steps.
        assert_eq!(st.demotions, 2);
        // No new exhaustion events: the ladder may climb back.
        for _ in 0..2 * cfg().promote_clean_epochs {
            m.observe_epoch(&s, &mut st);
        }
        assert_eq!(m.rung(), HealthRung::Healthy);
        assert_eq!(st.promotions, 2);
        assert!(st.promotions <= st.demotions);
    }

    #[test]
    fn exhausted_pool_with_backlog_pins_readonly() {
        let c = cfg();
        let mut m = HealthMonitor::new(c);
        let mut st = HealthStats::default();
        let mut s = sig();
        s.spares_used = s.spares_total;
        s.scrub_backlog = c.readonly_scrub_backlog;
        for _ in 0..3 * c.promote_clean_epochs {
            assert_eq!(m.observe_epoch(&s, &mut st), HealthRung::ReadOnly);
        }
        assert_eq!(st.promotions, 0, "a standing condition never promotes");
    }

    #[test]
    fn poison_level_demotes_to_readonly() {
        let c = cfg();
        let mut m = HealthMonitor::new(c);
        let mut st = HealthStats::default();
        let mut s = sig();
        s.outstanding_poison = READONLY_POISON_BLOCKS;
        assert_eq!(m.observe_epoch(&s, &mut st), HealthRung::ReadOnly);
    }

    #[test]
    fn tamper_detection_is_failsafe_and_sticky() {
        let mut m = HealthMonitor::new(cfg());
        let mut st = HealthStats::default();
        let mut s = sig();
        s.tampers_detected_total = 1;
        assert_eq!(m.observe_epoch(&s, &mut st), HealthRung::FailSafe);
        assert_eq!(st.demotions, 3);
        // Decades of clean epochs: FailSafe never promotes.
        for _ in 0..100 {
            assert_eq!(m.observe_epoch(&s, &mut st), HealthRung::FailSafe);
        }
        assert_eq!(st.promotions, 0);
    }

    #[test]
    fn rehydrate_restores_rung_and_rebaselines() {
        let mut m = HealthMonitor::new(cfg());
        let mut st = HealthStats::default();
        let mut s = sig();
        s.retries_total = 1_000_000; // huge cumulative history pre-crash
        m.rehydrate(HealthRung::Wounded, &s, &mut st);
        assert_eq!(m.rung(), HealthRung::Wounded);
        assert_eq!(st.rehydrations, 1);
        assert_eq!(st.demotions, 1, "rehydrating downward is a counted demotion");
        // The cumulative history was re-baselined: flat counters are clean.
        for _ in 0..cfg().promote_clean_epochs {
            m.observe_epoch(&s, &mut st);
        }
        assert_eq!(m.rung(), HealthRung::Healthy);
        assert!(st.promotions <= st.demotions);
    }

    #[test]
    fn rehydrate_upward_is_not_a_promotion() {
        let mut m = HealthMonitor::new(cfg());
        let mut st = HealthStats::default();
        let mut s = sig();
        s.spare_exhausted_total = 1;
        m.observe_epoch(&s, &mut st); // ReadOnly, demotions = 2
        m.rehydrate(HealthRung::Healthy, &s, &mut st);
        assert_eq!(m.rung(), HealthRung::Healthy);
        assert_eq!(st.promotions, 0);
        assert_eq!(st.demotions, 2);
    }
}
