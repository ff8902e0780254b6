//! The epoch state machine of §3.1 (Figure 3).
//!
//! Execution time is divided into epochs. Each epoch has an execution phase
//! and a checkpointing phase; ThyNVM overlaps the checkpointing phase of
//! epoch *N* with the execution phase of epoch *N+1*. At most one
//! checkpoint job is in flight at a time: epoch *N+1* cannot start its own
//! checkpointing phase until epoch *N*'s has completed — when both are due,
//! the processor stalls (the Figure 3(b) corner case).

use thynvm_mem::SparseStore;
use thynvm_types::{CkptPhase, Cycle, HealthRung};

/// An in-flight checkpointing phase. It owns what its final round
/// captured, so a crash that drops the job drops the capture with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptJob {
    /// Epoch being checkpointed.
    pub epoch: u64,
    /// Cycle the checkpointing phase started.
    pub started: Cycle,
    /// Cycle the commit record's write was *issued* (after the final §4.4
    /// fence). The commit window is `[commit_at, done_at)`: a crash before
    /// `commit_at` can never salvage the marker, because the record had not
    /// entered the persist buffer yet.
    pub commit_at: Cycle,
    /// Cycle the checkpoint completes (write queue drained, completion bit
    /// set). Computed when the job is scheduled.
    pub done_at: Cycle,
    /// Cycle phase 1 (DRAM-buffered block drain) completes.
    pub drained_at: Cycle,
    /// Cycle phase 2 (BTT + CPU-state persist) completes.
    pub btt_at: Cycle,
    /// Cycle phase 3 (dirty-page writebacks) completes.
    pub pages_at: Cycle,
    /// Device-commit cycles of every data writeback this job issues
    /// (buffered block drains and page writebacks), for in-flight counts at
    /// an arbitrary crash cycle.
    pub writeback_done: Vec<Cycle>,
    /// The visible image the final round captured and its MAC; both
    /// become `C_last`'s when the job commits. `None` for an intermediate
    /// round, which captures nothing.
    pub(crate) image: Option<(SparseStore, u64)>,
    /// The rung the job's health record persisted, when the ladder is on;
    /// it becomes `C_last`'s when the job commits.
    pub(crate) rung: Option<HealthRung>,
}

impl CkptJob {
    /// Whether the job has completed by `now`.
    pub fn is_done(&self, now: Cycle) -> bool {
        self.done_at <= now
    }

    /// Which Figure 6(b) phase this job is in at `now`.
    ///
    /// Returns [`CkptPhase::Execution`] outside the job's lifetime — before
    /// it started (the job belongs to a future the crashed timeline never
    /// reached) or after it completed.
    pub fn phase_at(&self, now: Cycle) -> CkptPhase {
        if now < self.started || self.is_done(now) {
            CkptPhase::Execution
        } else if now < self.drained_at {
            CkptPhase::DrainBlocks
        } else if now < self.btt_at {
            CkptPhase::PersistBtt
        } else if now < self.pages_at {
            CkptPhase::PageWriteback
        } else {
            CkptPhase::Finalize
        }
    }

    /// Number of this job's data writebacks still in flight at `now`.
    pub fn inflight_writebacks_at(&self, now: Cycle) -> usize {
        self.writeback_done.iter().filter(|&&d| d > now).count()
    }
}

/// Epoch bookkeeping: the active epoch, its start time, and the in-flight
/// checkpoint job, if any.
#[derive(Debug, Clone, Default)]
pub struct EpochState {
    /// Identifier of the active (executing) epoch, starting at 0.
    pub active_epoch: u64,
    /// Cycle at which the active epoch began executing.
    pub epoch_start: Cycle,
    /// The checkpointing phase still in flight, if any.
    pub job: Option<CkptJob>,
    /// Set when a table overflow demands an early epoch end (§4.3).
    pub overflow_pending: bool,
    /// Epochs whose checkpoints have completed.
    pub completed: u64,
}

impl EpochState {
    /// Creates the initial state: epoch 0 executing from cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the active epoch has run for at least `max_len` cycles, or an
    /// overflow forced an early end.
    pub fn due(&self, now: Cycle, max_len: Cycle) -> bool {
        self.overflow_pending || now.saturating_sub(self.epoch_start) >= max_len
    }

    /// Whether a checkpoint job is still running at `now`.
    pub fn job_running(&self, now: Cycle) -> bool {
        self.job.as_ref().is_some_and(|j| !j.is_done(now))
    }

    /// Takes the job if it has completed by `now` (for retirement).
    pub fn take_finished_job(&mut self, now: Cycle) -> Option<CkptJob> {
        if self.job.as_ref().is_some_and(|j| j.is_done(now)) {
            let job = self.job.take();
            if job.is_some() {
                self.completed += 1;
            }
            job
        } else {
            None
        }
    }

    /// Starts the checkpointing phase for the active epoch and begins the
    /// next epoch's execution phase.
    ///
    /// # Panics
    ///
    /// Panics if a job is still in flight — the controller must retire (or
    /// wait for) the previous job first.
    pub fn start_job(&mut self, job: CkptJob, now: Cycle) {
        assert!(self.job.is_none(), "previous checkpoint job still in flight");
        assert_eq!(job.epoch, self.active_epoch, "job must checkpoint the active epoch");
        self.job = Some(job);
        self.active_epoch += 1;
        self.epoch_start = now;
        self.overflow_pending = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(epoch: u64, started: u64, done: u64) -> CkptJob {
        // Split the job's lifetime into four equal phase windows.
        let span = done - started;
        CkptJob {
            epoch,
            started: Cycle::new(started),
            commit_at: Cycle::new(started + 7 * span / 8),
            done_at: Cycle::new(done),
            drained_at: Cycle::new(started + span / 4),
            btt_at: Cycle::new(started + span / 2),
            pages_at: Cycle::new(started + 3 * span / 4),
            writeback_done: Vec::new(),
            image: None,
            rung: None,
        }
    }

    #[test]
    fn due_after_max_length() {
        let s = EpochState::new();
        assert!(!s.due(Cycle::new(99), Cycle::new(100)));
        assert!(s.due(Cycle::new(100), Cycle::new(100)));
    }

    #[test]
    fn overflow_forces_due() {
        let mut s = EpochState::new();
        s.overflow_pending = true;
        assert!(s.due(Cycle::ZERO, Cycle::new(1_000_000)));
    }

    #[test]
    fn job_lifecycle() {
        let mut s = EpochState::new();
        s.start_job(job(0, 10, 100), Cycle::new(10));
        assert_eq!(s.active_epoch, 1);
        assert_eq!(s.epoch_start, Cycle::new(10));
        assert!(s.job_running(Cycle::new(50)));
        assert!(!s.job_running(Cycle::new(100)));
        assert!(s.take_finished_job(Cycle::new(50)).is_none());
        let j = s.take_finished_job(Cycle::new(100)).expect("job finished");
        assert_eq!(j.epoch, 0);
        assert_eq!(s.completed, 1);
        assert!(s.job.is_none());
    }

    #[test]
    #[should_panic(expected = "still in flight")]
    fn overlapping_jobs_rejected() {
        let mut s = EpochState::new();
        s.start_job(job(0, 0, 100), Cycle::ZERO);
        s.start_job(job(1, 10, 200), Cycle::new(10));
    }

    #[test]
    #[should_panic(expected = "active epoch")]
    fn job_for_wrong_epoch_rejected() {
        let mut s = EpochState::new();
        s.start_job(job(3, 0, 100), Cycle::ZERO);
    }

    #[test]
    fn phase_classification_follows_timeline() {
        use thynvm_types::CkptPhase::*;
        let j = job(0, 100, 200); // drained 125, btt 150, pages 175
        assert_eq!(j.phase_at(Cycle::new(99)), Execution);
        assert_eq!(j.phase_at(Cycle::new(100)), DrainBlocks);
        assert_eq!(j.phase_at(Cycle::new(124)), DrainBlocks);
        assert_eq!(j.phase_at(Cycle::new(125)), PersistBtt);
        assert_eq!(j.phase_at(Cycle::new(150)), PageWriteback);
        assert_eq!(j.phase_at(Cycle::new(175)), Finalize);
        assert_eq!(j.phase_at(Cycle::new(199)), Finalize);
        assert_eq!(j.phase_at(Cycle::new(200)), Execution);
    }

    #[test]
    fn inflight_writebacks_count_pending_commits() {
        let mut j = job(0, 0, 100);
        j.writeback_done = vec![Cycle::new(10), Cycle::new(40), Cycle::new(90)];
        assert_eq!(j.inflight_writebacks_at(Cycle::ZERO), 3);
        assert_eq!(j.inflight_writebacks_at(Cycle::new(40)), 1);
        assert_eq!(j.inflight_writebacks_at(Cycle::new(90)), 0);
    }

    #[test]
    fn start_job_clears_overflow() {
        let mut s = EpochState::new();
        s.overflow_pending = true;
        s.start_job(job(0, 0, 10), Cycle::ZERO);
        assert!(!s.overflow_pending);
    }
}
