//! The single deterministic bounded-retry policy every fault domain uses.
//!
//! Three controller paths perform bounded retries with linear backoff: NVM
//! data reads healing CRC-rejected corruption, recovery-side reads of
//! checkpoint metadata, and DRAM re-reads of poisoned working blocks. Each
//! used to hand-roll the same `for attempt in 1..=max { backoff * attempt }`
//! loop; [`RetryPolicy`] extracts the schedule into one place so the loops
//! cannot drift apart, the lint rule L6 can reject new hand-rolled copies,
//! and tests can bound worst-case retry latency from the policy alone.
//!
//! The schedule is a pure function of the policy's two parameters — no
//! clock, no randomness — so routing an existing loop through it is
//! cycle-identical by construction: attempt `k` waits `backoff_ns * k`
//! nanoseconds before the device access, exactly as the hand-rolled loops
//! did.

use crate::cycle::Cycle;

/// A bounded, deterministic retry schedule: at most `max_attempts`
/// attempts, attempt `k` (1-based) preceded by a linear backoff of
/// `backoff_ns * k` nanoseconds.
///
/// # Example
///
/// ```
/// use thynvm_types::{Cycle, RetryPolicy};
///
/// let policy = RetryPolicy::new(3, 50);
/// let attempts: Vec<_> = policy.schedule().collect();
/// assert_eq!(attempts.len(), 3);
/// assert_eq!(attempts[0], (1, Cycle::from_ns(50)));
/// assert_eq!(attempts[2], (3, Cycle::from_ns(150)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    backoff_ns: u64,
}

impl RetryPolicy {
    /// Media CRC retries, shared by NVM data reads and recovery-side reads
    /// of checkpoint state: three attempts before the block is declared
    /// permanently bad, 50 ns backoff units. Its [`Self::total_backoff`]
    /// bounds the worst-case added latency of any single read, even with
    /// the spare pool drained.
    pub const MEDIA: Self = Self::new(3, 50);

    /// DRAM ECC refetches: two re-reads of a poisoned working block, 30 ns
    /// backoff units, before the controller re-fetches the block from its
    /// NVM checkpoint copy.
    pub const DRAM: Self = Self::new(2, 30);

    /// Builds a policy: `max_attempts` bounded attempts with a linear
    /// `backoff_ns` schedule.
    #[must_use]
    pub const fn new(max_attempts: u32, backoff_ns: u64) -> Self {
        Self { max_attempts, backoff_ns }
    }

    /// Upper bound on attempts — the budget a retry loop may spend.
    #[must_use]
    pub const fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Backoff paid *before* 1-based attempt `attempt`: linear in the
    /// attempt number, so pressure on a struggling device decays.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Cycle {
        Cycle::from_ns(self.backoff_ns * u64::from(attempt))
    }

    /// The full schedule: `(attempt, backoff)` pairs for attempts
    /// `1..=max_attempts`. The iterator is the one retry loop shape the
    /// workspace allows (lint rule L6).
    pub fn schedule(&self) -> impl Iterator<Item = (u32, Cycle)> + '_ {
        (1..=self.max_attempts).map(|a| (a, self.backoff(a)))
    }

    /// Total backoff a loop that exhausts the budget pays — the worst-case
    /// added latency of one fully-retried access, used by latency-bound
    /// regression tests.
    #[must_use]
    pub fn total_backoff(&self) -> Cycle {
        // 1 + 2 + … + n = n(n+1)/2 backoff units.
        let n = u64::from(self.max_attempts);
        Cycle::from_ns(self.backoff_ns * n * (n + 1) / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_matches_hand_rolled_loop() {
        // The exact loop shape the controller used before extraction.
        let (max, backoff_ns) = (3u32, 50u64);
        let mut hand = Vec::new();
        for attempt in 1..=max {
            hand.push((attempt, Cycle::from_ns(backoff_ns * u64::from(attempt))));
        }
        let policy = RetryPolicy::new(max, backoff_ns);
        let routed: Vec<_> = policy.schedule().collect();
        assert_eq!(hand, routed, "routing through RetryPolicy must be cycle-identical");
    }

    #[test]
    fn zero_attempts_is_an_empty_schedule() {
        let policy = RetryPolicy::new(0, 50);
        assert_eq!(policy.schedule().count(), 0);
        assert_eq!(policy.total_backoff(), Cycle::ZERO);
    }

    #[test]
    fn total_backoff_is_the_schedule_sum() {
        for (max, ns) in [(1u32, 30u64), (2, 30), (3, 50), (7, 11)] {
            let policy = RetryPolicy::new(max, ns);
            let sum = policy.schedule().fold(Cycle::ZERO, |acc, (_, b)| acc + b);
            assert_eq!(policy.total_backoff(), sum, "max={max} ns={ns}");
        }
    }

    #[test]
    fn accessors_round_trip() {
        let policy = RetryPolicy::new(5, 40);
        assert_eq!(policy.max_attempts(), 5);
        assert_eq!(policy.backoff(2), Cycle::from_ns(80));
    }
}
