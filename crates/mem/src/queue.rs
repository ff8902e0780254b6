//! Bounded memory-controller write queue.
//!
//! Figure 2 of the paper shows separate DRAM/NVM read and write queues in
//! the memory controller. Writes are acknowledged as soon as they enter the
//! queue and retire in the background; the queue only back-pressures the
//! issuer when it is full. §4.4 requires the NVM write queue to be flushed
//! (fully drained) at the end of every checkpointing phase before the
//! checkpoint is marked complete — [`WriteQueue::drain_time`] gives the
//! cycle at which that flush finishes.

use std::collections::VecDeque;

use thynvm_types::Cycle;

use crate::device::BlockRun;

/// A bounded queue of in-flight writes, each represented by its completion
/// cycle at the device.
///
/// # Example
///
/// ```
/// use thynvm_mem::WriteQueue;
/// use thynvm_types::Cycle;
///
/// let mut q = WriteQueue::new(2);
/// assert_eq!(q.push(Cycle::new(100), Cycle::ZERO), Cycle::ZERO); // no stall
/// assert_eq!(q.push(Cycle::new(200), Cycle::ZERO), Cycle::ZERO); // no stall
/// // Queue full: the third write stalls until the first retires at 100.
/// assert_eq!(q.push(Cycle::new(300), Cycle::ZERO), Cycle::new(100));
/// ```
#[derive(Debug, Clone)]
pub struct WriteQueue {
    capacity: usize,
    /// Completion cycles of queued writes as runs of evenly spaced
    /// completions, oldest first; read run by run, they are nondecreasing.
    runs: VecDeque<BlockRun>,
    /// Writes in `runs`.
    len: u64,
}

/// How many of `run`'s completions fall at or before `t`: a prefix, since
/// they are nondecreasing.
fn done_by(run: BlockRun, t: Cycle) -> u64 {
    if run.first > t {
        0
    } else if run.last() <= t {
        run.count
    } else {
        (t - run.first).raw() / run.step.raw() + 1
    }
}

/// `run` without its first `k` completions.
fn skip(run: BlockRun, k: u64) -> BlockRun {
    BlockRun { first: run.at(k), count: run.count - k, ..run }
}

impl WriteQueue {
    /// Creates a queue holding at most `capacity` in-flight writes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write queue capacity must be nonzero");
        Self { capacity, runs: VecDeque::new(), len: 0 }
    }

    /// Number of writes currently in flight at time `now`.
    ///
    /// The completions are nondecreasing, so the count stops at the first
    /// run from the back that reaches `now`.
    pub fn len_at(&self, now: Cycle) -> usize {
        let mut inflight = 0;
        for &run in self.runs.iter().rev() {
            inflight += run.count - done_by(run, now);
            if run.first <= now {
                break;
            }
        }
        inflight as usize
    }

    /// Whether no writes are in flight at time `now`.
    pub fn is_empty_at(&self, now: Cycle) -> bool {
        self.runs.back().is_none_or(|run| run.last() <= now)
    }

    /// Maximum number of in-flight writes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops entries that have retired by `now`.
    pub fn retire(&mut self, now: Cycle) {
        while let Some(run) = self.runs.front_mut() {
            let retired = done_by(*run, now);
            self.len -= retired;
            if retired < run.count {
                *run = skip(*run, retired);
                break;
            }
            self.runs.pop_front();
        }
    }

    /// Removes the `n` oldest queued writes and returns the latest
    /// completion among them.
    fn pop(&mut self, mut n: u64) -> Cycle {
        let mut last = Cycle::ZERO;
        while n > 0 {
            let run = self.runs.front_mut().expect("popping queued writes");
            let k = n.min(run.count);
            last = last.max(run.at(k - 1));
            self.len -= k;
            n -= k;
            if k < run.count {
                *run = skip(*run, k);
            } else {
                self.runs.pop_front();
            }
        }
        last
    }

    /// Enqueues a write that the device will complete at `completion`.
    ///
    /// Returns the cycle at which the *issuer* may proceed: `now` if the
    /// queue had room, or the retirement time of the oldest entry if the
    /// queue was full (the issuer stalls until a slot frees up).
    pub fn push(&mut self, completion: Cycle, now: Cycle) -> Cycle {
        self.push_run(BlockRun { first: completion, step: Cycle::ZERO, count: 1 }, now)
    }

    /// Enqueues `run`'s writes, all issued at `now`, exactly as one
    /// [`WriteQueue::push`] per completion in order would, and returns the
    /// latest of those pushes' resume cycles.
    ///
    /// Only the first of those pushes can retire a queued write: every
    /// later one finds the writes before it still in flight, unless the
    /// queue was empty and they completed by `now`, in which case each
    /// retires the one before and none stalls. A push queues its
    /// completion no earlier than the queue's newest write, so the run's
    /// completions up to that write queue at it; with room for one write
    /// only, each push first waits that write out and finds the queue
    /// empty, so nothing is held back. Once the queue is full, each push
    /// waits for the oldest write: the writes waited for are the oldest
    /// of the queue followed by the run, and the issuer resumes when the
    /// latest of them retires.
    pub fn push_run(&mut self, run: BlockRun, now: Cycle) -> Cycle {
        debug_assert!(run.count > 0, "a run holds at least one write");
        self.retire(now);
        let mut run = run;
        if self.runs.is_empty() {
            run = skip(run, done_by(run, now).min(run.count - 1));
        }
        let newest = match self.runs.back() {
            Some(back) if self.capacity > 1 => back.last(),
            _ => Cycle::ZERO,
        };
        let held = done_by(run, newest);
        if held > 0 {
            self.runs.push_back(BlockRun { first: newest, step: Cycle::ZERO, count: held });
        }
        if held < run.count {
            self.runs.push_back(skip(run, held));
        }
        self.len += run.count;
        let over = self.len.saturating_sub(self.capacity as u64);
        if over == 0 {
            now
        } else {
            self.pop(over).max(now)
        }
    }

    /// The cycle at which all currently queued writes have retired
    /// (`now` if the queue is empty). This is the §4.4 flush time.
    pub fn drain_time(&self, now: Cycle) -> Cycle {
        self.runs.back().map_or(now, |run| run.last()).max(now)
    }

    /// Empties the queue without retiring its writes — the crash model: on
    /// power loss, queued-but-unwritten data is gone.
    pub fn discard(&mut self) {
        self.runs.clear();
        self.len = 0;
    }

    /// Power-loss drain at cycle `now`: writes whose device commit was at or
    /// before `now` made it to the medium; the rest are lost. Empties the
    /// queue and returns the number of writes lost.
    pub fn discard_lost(&mut self, now: Cycle) -> usize {
        let lost = self.len_at(now);
        self.discard();
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_within_capacity_never_stalls() {
        let mut q = WriteQueue::new(4);
        for i in 0..4 {
            assert_eq!(q.push(Cycle::new(100 + i), Cycle::ZERO), Cycle::ZERO);
        }
    }

    #[test]
    fn full_queue_stalls_until_oldest_retires() {
        let mut q = WriteQueue::new(1);
        assert_eq!(q.push(Cycle::new(50), Cycle::ZERO), Cycle::ZERO);
        assert_eq!(q.push(Cycle::new(80), Cycle::new(10)), Cycle::new(50));
    }

    #[test]
    fn retire_frees_slots() {
        let mut q = WriteQueue::new(1);
        q.push(Cycle::new(50), Cycle::ZERO);
        // At cycle 60 the first write has retired; no stall.
        assert_eq!(q.push(Cycle::new(90), Cycle::new(60)), Cycle::new(60));
    }

    #[test]
    fn drain_time_is_last_completion() {
        let mut q = WriteQueue::new(8);
        q.push(Cycle::new(100), Cycle::ZERO);
        q.push(Cycle::new(250), Cycle::ZERO);
        assert_eq!(q.drain_time(Cycle::ZERO), Cycle::new(250));
        // Once time has passed the drain, drain_time is `now`.
        assert_eq!(q.drain_time(Cycle::new(300)), Cycle::new(300));
    }

    #[test]
    fn drain_time_of_empty_queue_is_now() {
        let q = WriteQueue::new(2);
        assert_eq!(q.drain_time(Cycle::new(42)), Cycle::new(42));
    }

    #[test]
    fn len_and_empty_respect_time() {
        let mut q = WriteQueue::new(4);
        q.push(Cycle::new(100), Cycle::ZERO);
        q.push(Cycle::new(200), Cycle::ZERO);
        assert_eq!(q.len_at(Cycle::ZERO), 2);
        assert_eq!(q.len_at(Cycle::new(150)), 1);
        assert!(q.is_empty_at(Cycle::new(201)));
        assert!(!q.is_empty_at(Cycle::new(199)));
    }

    #[test]
    fn discard_models_power_loss() {
        let mut q = WriteQueue::new(4);
        q.push(Cycle::new(1_000), Cycle::ZERO);
        q.discard();
        assert!(q.is_empty_at(Cycle::ZERO));
        assert_eq!(q.drain_time(Cycle::ZERO), Cycle::ZERO);
    }

    #[test]
    fn out_of_order_completions_are_clamped_monotone() {
        let mut q = WriteQueue::new(4);
        q.push(Cycle::new(300), Cycle::ZERO);
        q.push(Cycle::new(100), Cycle::ZERO); // clamped to 300
        assert_eq!(q.drain_time(Cycle::ZERO), Cycle::new(300));
    }

    #[test]
    fn discard_lost_counts_only_inflight_writes() {
        let mut q = WriteQueue::new(4);
        q.push(Cycle::new(100), Cycle::ZERO);
        q.push(Cycle::new(200), Cycle::ZERO);
        q.push(Cycle::new(300), Cycle::ZERO);
        // At cycle 150 the first write is durable; the other two are lost.
        assert_eq!(q.discard_lost(Cycle::new(150)), 2);
        assert!(q.is_empty_at(Cycle::ZERO));
        assert_eq!(q.discard_lost(Cycle::ZERO), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        WriteQueue::new(0);
    }

    #[test]
    fn capacity_accessor() {
        assert_eq!(WriteQueue::new(64).capacity(), 64);
    }

    /// Every queued completion, oldest first.
    fn entries(q: &WriteQueue) -> Vec<Cycle> {
        q.runs.iter().flat_map(|&run| (0..run.count).map(move |k| run.at(k))).collect()
    }

    /// Pins the run-counting `len_at`/`is_empty_at` to the original O(n)
    /// filter-scan semantics: identical results (and therefore identical
    /// stall behavior) at every probe time across a long interleaving of
    /// pushes, including out-of-order completions and full-queue stalls.
    #[test]
    fn len_at_matches_linear_scan_reference() {
        let scan_len = |q: &WriteQueue, now: Cycle| entries(q).iter().filter(|&&c| c > now).count();
        let mut q = WriteQueue::new(8);
        let mut state = 0x5750_5144u64;
        let mut now = Cycle::ZERO;
        for _ in 0..500 {
            now += Cycle::new(thynvm_types::rng::next(&mut state) % 40);
            let completion = now + Cycle::new(thynvm_types::rng::next(&mut state) % 300);
            q.push(completion, now);
            for probe in [Cycle::ZERO, now, completion, completion + Cycle::new(1)] {
                assert_eq!(q.len_at(probe), scan_len(&q, probe), "probe={probe}");
                assert_eq!(q.is_empty_at(probe), scan_len(&q, probe) == 0, "probe={probe}");
            }
            // push() retires eagerly, so the queue is bounded by the true
            // in-flight count plus the entries not yet observed to retire.
            assert!(entries(&q).len() <= q.capacity());
            assert_eq!(q.len as usize, entries(&q).len());
        }
    }

    /// The queue as it was before runs: one entry per write, and every
    /// push retiring first. [`WriteQueue::push_run`] must match one
    /// [`Reference::push`] per completion.
    #[derive(Debug, Clone)]
    struct Reference {
        capacity: usize,
        pending: VecDeque<Cycle>,
    }

    impl Reference {
        fn retire(&mut self, now: Cycle) {
            while self.pending.front().is_some_and(|&c| c <= now) {
                self.pending.pop_front();
            }
        }

        fn push(&mut self, completion: Cycle, now: Cycle) -> Cycle {
            self.retire(now);
            let resume = if self.pending.len() >= self.capacity {
                self.pending.pop_front().expect("nonempty when full")
            } else {
                now
            };
            let last = self.pending.back().copied().unwrap_or(Cycle::ZERO);
            self.pending.push_back(completion.max(last));
            resume
        }

        fn len_at(&self, now: Cycle) -> usize {
            self.pending.iter().filter(|&&c| c > now).count()
        }

        fn drain_time(&self, now: Cycle) -> Cycle {
            self.pending.back().copied().unwrap_or(now).max(now)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Runs pushed in one call against one push per completion: from
        /// `now` moving back and forth, runs whose first completion may
        /// lie before `now` or before the queue's tail, steps of zero, and
        /// more writes than the queue holds.
        #[test]
        fn push_run_equals_one_push_per_completion(
            capacity in 1usize..12,
            ops in proptest::collection::vec(
                (
                    (0u64..200, proptest::prelude::any::<bool>()),
                    0u64..400,
                    0u64..40,
                    1u64..24,
                    0u64..700,
                ),
                1..40,
            ),
        ) {
            let mut q = WriteQueue::new(capacity);
            let mut reference = Reference { capacity, pending: VecDeque::new() };
            let mut now = 300u64;
            for ((advance, back), lead, step, count, probe) in ops {
                now = if back { now.saturating_sub(advance) } else { now + advance };
                // `lead` below 100 puts the first completion before `now`.
                let first = Cycle::new((now + lead).saturating_sub(100));
                let run = BlockRun { first, step: Cycle::new(step), count };
                let at = Cycle::new(now);
                let expected =
                    (0..count).fold(at, |r, k| r.max(reference.push(run.at(k), at)));
                proptest::prop_assert_eq!(q.push_run(run, at), expected);
                proptest::prop_assert_eq!(q.len as usize, entries(&q).len());
                let retired = reference.pending.len() - entries(&q).len();
                let unretired = &reference.pending.make_contiguous()[retired..];
                proptest::prop_assert_eq!(&entries(&q)[..], unretired);
                for t in [Cycle::ZERO, at, Cycle::new(probe), Cycle::new(now + probe)] {
                    let inflight = reference.len_at(t);
                    proptest::prop_assert_eq!(q.len_at(t), inflight, "len_at {}", t);
                    proptest::prop_assert_eq!(q.is_empty_at(t), inflight == 0, "is_empty_at {}", t);
                    let drained = reference.drain_time(t);
                    proptest::prop_assert_eq!(q.drain_time(t), drained, "drain_time {}", t);
                    let mut lost = q.clone();
                    proptest::prop_assert_eq!(lost.discard_lost(t), inflight, "discard_lost {}", t);
                    proptest::prop_assert!(lost.is_empty_at(Cycle::ZERO));
                }
            }
        }
    }
}
