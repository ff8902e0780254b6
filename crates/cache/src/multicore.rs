//! Multi-core platform: private L1/L2 per core, shared L3, one memory
//! system.
//!
//! Table 2 specifies the L3 as "2 MB/core", implying the authors' platform
//! scales to multiple cores even though the evaluation drives one. This
//! module provides that scaling: each core owns a private L1/L2 pair and
//! executes its own trace; a shared L3 (sized `l3_bytes × cores`) sits in
//! front of the single memory system, whose banks and checkpoint machinery
//! all cores contend for.
//!
//! Scheduling is deterministic: at every step the core with the smallest
//! local clock executes its next event (ties broken by core index), so
//! interleavings are reproducible. The checkpoint handshake (§4.4) stalls
//! *all* cores: every private cache and the L3 are cleaned, the combined
//! dirty set is handed to [`MemorySystem::begin_checkpoint`], and every
//! core resumes at the controller's resume cycle.

use thynvm_types::{CacheConfig, Cycle, MemRequest, MemorySystem, TraceEvent};

use crate::cache::SetAssocCache;
use crate::core::CoreStats;
use crate::hierarchy::walk;

/// Per-core private state.
#[derive(Debug)]
struct Core {
    l1: SetAssocCache,
    l2: SetAssocCache,
    now: Cycle,
    stats: CoreStats,
    events: std::vec::IntoIter<TraceEvent>,
    /// The next event, pre-fetched for scheduling.
    pending: Option<TraceEvent>,
}

/// Result of one core's run.
#[derive(Debug, Clone)]
pub struct CoreResult {
    /// Final local clock of the core.
    pub cycles: Cycle,
    /// The core's statistics.
    pub stats: CoreStats,
}

impl CoreResult {
    /// The core's instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == Cycle::ZERO {
            0.0
        } else {
            self.stats.instructions as f64 / self.cycles.raw() as f64
        }
    }
}

/// The multi-core platform.
///
/// # Example
///
/// ```no_run
/// use thynvm_cache::MulticorePlatform;
/// use thynvm_types::{MemorySystem, SystemConfig, TraceEvent};
///
/// fn run(traces: Vec<Vec<TraceEvent>>, mem: &mut dyn MemorySystem) -> f64 {
///     let mut platform = MulticorePlatform::new(SystemConfig::paper().cache, traces.len());
///     let results = platform.run(traces, mem);
///     results.iter().map(|r| r.ipc()).sum::<f64>() // aggregate IPC
/// }
/// ```
#[derive(Debug)]
pub struct MulticorePlatform {
    cores: Vec<Core>,
    l3: SetAssocCache,
    flushes: u64,
}

impl MulticorePlatform {
    /// Creates a platform with `n` cores. The shared L3 is `l3_bytes`
    /// (which Table 2 gives per core) times `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(config: CacheConfig, n: usize) -> Self {
        assert!(n > 0, "platform needs at least one core");
        let cores = (0..n)
            .map(|_| Core {
                l1: SetAssocCache::new(config.l1_bytes, config.l1_ways),
                l2: SetAssocCache::new(config.l2_bytes, config.l2_ways),
                now: Cycle::ZERO,
                stats: CoreStats::default(),
                events: Vec::new().into_iter(),
                pending: None,
            })
            .collect();
        Self {
            cores,
            l3: SetAssocCache::new(config.l3_bytes * n as u64, config.l3_ways),
            flushes: 0,
        }
    }

    /// Checkpoint flushes performed (whole-platform stalls).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Executes one memory access for core `ci`. Each block takes the
    /// hierarchy's walk over the core's L1/L2 and the shared L3. A fetch
    /// blocks the in-order core; the writebacks are posted after it, at
    /// its completion, in the walk's order.
    fn access(&mut self, ci: usize, event: &TraceEvent, mem: &mut dyn MemorySystem) {
        let core = &mut self.cores[ci];
        core.now += Cycle::new(u64::from(event.gap));
        core.stats.instructions += event.instructions();
        core.stats.mem_accesses += 1;

        for block in event.req.blocks_touched() {
            let out = walk([&mut core.l1, &mut core.l2, &mut self.l3], block, event.req.kind);
            core.now += Cycle::new(out.latency_cycles);
            if let Some(addr) = out.fetch {
                let done = mem.access(&MemRequest::read(addr, 64), core.now);
                core.stats.mem_stall_cycles += done.saturating_sub(core.now);
                core.now = done;
            }
            for wb in out.writebacks {
                mem.access(&MemRequest::write(wb, 64), core.now);
            }
        }
    }

    /// Platform-wide flush + checkpoint: all cores stall.
    fn flush_and_checkpoint(&mut self, mem: &mut dyn MemorySystem) {
        let barrier = self.cores.iter().map(|c| c.now).max().unwrap_or(Cycle::ZERO);
        let mut dirty = Vec::new();
        for core in &mut self.cores {
            dirty.extend(core.l1.clean_all());
            dirty.extend(core.l2.clean_all());
        }
        dirty.extend(self.l3.clean_all());
        dirty.sort_unstable();
        dirty.dedup();
        let resume = mem.begin_checkpoint(barrier, &dirty);
        for core in &mut self.cores {
            core.stats.flush_stall_cycles += resume.saturating_sub(core.now);
            core.now = resume.max(core.now);
            core.stats.flushes += 1;
        }
        self.flushes += 1;
    }

    /// Runs one trace per core to completion against `mem`, then performs a
    /// final flush and drains. Returns one result per core.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces differs from the number of cores.
    pub fn run(
        &mut self,
        traces: Vec<Vec<TraceEvent>>,
        mem: &mut dyn MemorySystem,
    ) -> Vec<CoreResult> {
        assert_eq!(traces.len(), self.cores.len(), "one trace per core");
        for (core, trace) in self.cores.iter_mut().zip(traces) {
            core.events = trace.into_iter();
            core.pending = core.events.next();
        }

        loop {
            // Deterministic schedule: smallest local clock with work left.
            let next = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, c)| c.pending.is_some())
                .min_by_key(|(i, c)| (c.now, *i))
                .map(|(i, _)| i);
            let Some(ci) = next else { break };
            let event = self.cores[ci].pending.take().expect("filtered on pending");
            self.cores[ci].pending = self.cores[ci].events.next();
            self.access(ci, &event, mem);

            if mem.checkpoint_due(self.cores[ci].now) {
                self.flush_and_checkpoint(mem);
            }
        }

        self.flush_and_checkpoint(mem);
        // The shared drain retires the final checkpoint's deferred work, and
        // every core's run ends with it, as `CoreModel::run_trace`'s does:
        // at `end`, which is no earlier than any core's clock.
        let latest = self.cores.iter().map(|c| c.now).max().unwrap_or(Cycle::ZERO);
        let end = mem.drain(latest);
        self.cores
            .iter_mut()
            .map(|c| {
                c.now = end;
                CoreResult { cycles: end, stats: c.stats.clone() }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thynvm_types::{AccessKind, MemStats, PhysAddr, SystemConfig};

    /// Serves every request in 100 cycles and records it with its issue
    /// cycle.
    #[derive(Debug, Default)]
    struct FixedMem {
        stats: MemStats,
        flushed: Vec<usize>,
        requests: Vec<(AccessKind, PhysAddr, Cycle)>,
    }

    impl MemorySystem for FixedMem {
        fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
            match req.kind {
                AccessKind::Read => self.stats.reads += 1,
                AccessKind::Write => self.stats.writes += 1,
            }
            self.requests.push((req.kind, req.addr, now));
            now + Cycle::new(100)
        }
        fn begin_checkpoint(&mut self, now: Cycle, flushed: &[PhysAddr]) -> Cycle {
            self.flushed.push(flushed.len());
            now + Cycle::new(1_000)
        }
        fn drain(&mut self, now: Cycle) -> Cycle {
            now
        }
        fn stats(&self) -> &MemStats {
            &self.stats
        }
        fn name(&self) -> &'static str {
            "FixedMem"
        }
    }

    fn trace(base: u64, n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| {
                let addr = PhysAddr::new(base + i * 64);
                let req = if i % 2 == 0 {
                    MemRequest::write(addr, 64)
                } else {
                    MemRequest::read(addr, 64)
                };
                TraceEvent::new(2, req)
            })
            .collect()
    }

    #[test]
    fn single_core_platform_runs() {
        let mut p = MulticorePlatform::new(SystemConfig::paper().cache, 1);
        let mut mem = FixedMem::default();
        let results = p.run(vec![trace(0, 1_000)], &mut mem);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].stats.instructions, 3_000);
        assert!(results[0].ipc() > 0.0);
    }

    #[test]
    fn all_cores_execute_their_traces() {
        let mut p = MulticorePlatform::new(SystemConfig::paper().cache, 4);
        let mut mem = FixedMem::default();
        // Disjoint 16 MB-apart address spaces per core.
        let traces: Vec<_> = (0..4).map(|c| trace(c * (16 << 20), 500)).collect();
        let results = p.run(traces, &mut mem);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.stats.instructions, 1_500);
            assert_eq!(r.stats.mem_accesses, 500);
        }
    }

    #[test]
    fn final_flush_reaches_memory_once() {
        let mut p = MulticorePlatform::new(SystemConfig::paper().cache, 2);
        let mut mem = FixedMem::default();
        p.run(vec![trace(0, 100), trace(1 << 24, 100)], &mut mem);
        assert_eq!(p.flushes(), 1, "exactly the terminal flush");
        // Both cores' dirty blocks arrive in one combined set.
        assert_eq!(mem.flushed.len(), 1);
        assert!(mem.flushed[0] >= 100, "dirty blocks from both cores: {}", mem.flushed[0]);
    }

    #[test]
    fn checkpoint_stalls_every_core() {
        #[derive(Debug, Default)]
        struct DemandingMem {
            stats: MemStats,
            asked: bool,
        }
        impl MemorySystem for DemandingMem {
            fn access(&mut self, _req: &MemRequest, now: Cycle) -> Cycle {
                now + Cycle::new(10)
            }
            fn checkpoint_due(&self, _now: Cycle) -> bool {
                !self.asked
            }
            fn begin_checkpoint(&mut self, now: Cycle, _flushed: &[PhysAddr]) -> Cycle {
                self.asked = true;
                now + Cycle::new(5_000)
            }
            fn drain(&mut self, now: Cycle) -> Cycle {
                now
            }
            fn stats(&self) -> &MemStats {
                &self.stats
            }
            fn name(&self) -> &'static str {
                "DemandingMem"
            }
        }
        let mut p = MulticorePlatform::new(SystemConfig::paper().cache, 2);
        let mut mem = DemandingMem::default();
        let results = p.run(vec![trace(0, 50), trace(1 << 24, 50)], &mut mem);
        for (i, r) in results.iter().enumerate() {
            assert!(
                r.stats.flush_stall_cycles >= Cycle::new(5_000),
                "core {i} did not stall for the checkpoint"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let mut p = MulticorePlatform::new(SystemConfig::paper().cache, 3);
            let mut mem = FixedMem::default();
            let traces: Vec<_> = (0..3).map(|c| trace(c * (8 << 20), 400)).collect();
            p.run(traces, &mut mem).iter().map(|r| r.cycles).collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn shared_l3_gives_cross_core_hits() {
        // Two cores touching the SAME blocks: the second core's misses are
        // L3 hits (no second memory fetch).
        let mut p = MulticorePlatform::new(SystemConfig::paper().cache, 2);
        let mut mem = FixedMem::default();
        // Core 1 starts far behind core 0 in time via long gaps.
        let t0 = trace(0, 200);
        let t1: Vec<_> = trace(0, 200)
            .into_iter()
            .map(|mut e| {
                e.gap = 200;
                e
            })
            .collect();
        p.run(vec![t0, t1], &mut mem);
        // 200 distinct blocks: without sharing 2×(reads needed); with the
        // shared L3 the total stays close to 200.
        assert!(
            mem.stats.reads < 300,
            "shared L3 should absorb the second core's fetches: {}",
            mem.stats.reads
        );
    }

    #[test]
    fn a_full_miss_fetches_first_and_writes_back_when_the_fetch_returns() {
        // One line per level. Block 0 is written, then pushed down to L3
        // dirty by reads of blocks 1 and 2; the read of block 3 misses
        // everywhere and evicts it from L3.
        let one_line =
            CacheConfig { l1_bytes: 64, l1_ways: 1, l2_bytes: 64, l2_ways: 1, l3_bytes: 64, l3_ways: 1 };
        let mut p = MulticorePlatform::new(one_line, 1);
        let mut mem = FixedMem::default();
        let block = |b: u64| PhysAddr::new(b * 64);
        let mut trace = vec![TraceEvent::new(0, MemRequest::write(block(0), 64))];
        trace.extend((1..4).map(|b| TraceEvent::new(0, MemRequest::read(block(b), 64))));
        p.run(vec![trace], &mut mem);
        // Each fetch leaves after the 28-cycle L3 latency and returns 100
        // cycles later; block 0's writeback goes out at block 3's return.
        // `CoreModel` posts a writeback before its fetch instead.
        use AccessKind::{Read, Write};
        assert_eq!(
            mem.requests,
            [
                (Read, block(0), Cycle::new(28)),
                (Read, block(1), Cycle::new(156)),
                (Read, block(2), Cycle::new(284)),
                (Read, block(3), Cycle::new(412)),
                (Write, block(0), Cycle::new(512)),
            ]
        );
    }

    #[test]
    fn the_final_drain_ends_every_core_as_it_ends_a_lone_core() {
        // Every request takes 100 cycles; the drain adds 1 000 000, which
        // the platform once left out of every core's cycles.
        #[derive(Debug, Default)]
        struct SlowDrain(MemStats);
        impl MemorySystem for SlowDrain {
            fn access(&mut self, _req: &MemRequest, now: Cycle) -> Cycle {
                now + Cycle::new(100)
            }
            fn begin_checkpoint(&mut self, now: Cycle, _flushed: &[PhysAddr]) -> Cycle {
                now
            }
            fn drain(&mut self, now: Cycle) -> Cycle {
                now + Cycle::new(1_000_000)
            }
            fn stats(&self) -> &MemStats {
                &self.0
            }
            fn name(&self) -> &'static str {
                "SlowDrain"
            }
        }
        let events = trace(0, 10);
        let mut lone = crate::CoreModel::new(SystemConfig::paper().cache);
        let alone = lone.run_trace(events.clone(), &mut SlowDrain::default());
        let mut p = MulticorePlatform::new(SystemConfig::paper().cache, 1);
        let results = p.run(vec![events], &mut SlowDrain::default());
        assert_eq!(results[0].cycles, alone);
        assert_eq!(alone, Cycle::new(1_001_300), "the trace's own 1300 cycles and the drain");

        // Two cores: both end when the one drain completes.
        let mut p = MulticorePlatform::new(SystemConfig::paper().cache, 2);
        let results = p.run(vec![trace(0, 4), trace(1 << 24, 40)], &mut SlowDrain::default());
        assert_eq!(results[0].cycles, results[1].cycles);
        assert!(results[0].cycles > Cycle::new(1_000_000));
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_mismatch_panics() {
        let mut p = MulticorePlatform::new(SystemConfig::paper().cache, 2);
        let mut mem = FixedMem::default();
        p.run(vec![trace(0, 10)], &mut mem);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        MulticorePlatform::new(SystemConfig::paper().cache, 0);
    }
}
