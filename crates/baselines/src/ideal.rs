//! The idealized single-technology baselines.
//!
//! Both systems are "assumed to provide crash consistency without any
//! overhead" (§5.1): they never checkpoint, never stall, and simply service
//! every request from their single device at its native timing.

use thynvm_mem::{Device, DeviceKind};
use thynvm_types::{
    AccessKind, Cycle, HwAddr, MemRequest, MemStats, MemorySystem, NvmWriteClass, SystemConfig,
};

/// Shared implementation for the two ideal systems.
#[derive(Debug)]
struct Ideal {
    device: Device,
    stats: MemStats,
    is_dram: bool,
}

impl Ideal {
    fn new(kind: DeviceKind, cfg: SystemConfig) -> Self {
        // The hybrid systems own two devices (DRAM + NVM) and therefore
        // twice the banks; give the single-technology baselines the same
        // aggregate bank parallelism so comparisons isolate the
        // crash-consistency mechanisms, not channel counts.
        let mut geometry = match kind {
            DeviceKind::Dram => cfg.dram_geometry,
            DeviceKind::Nvm => cfg.nvm_geometry,
        };
        geometry.channels *= 2;
        Self {
            device: Device::new(kind, geometry),
            stats: MemStats::new(),
            is_dram: kind == DeviceKind::Dram,
        }
    }

    fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
        let done = self.device.access(HwAddr::new(req.addr.raw()), req.kind, req.bytes, now);
        match req.kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                if self.is_dram {
                    self.stats.dram_reads += 1;
                    self.stats.dram_read_bytes += u64::from(req.bytes);
                } else {
                    self.stats.nvm_reads += 1;
                    self.stats.nvm_read_bytes += u64::from(req.bytes);
                }
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                if self.is_dram {
                    self.stats.record_dram_write(u64::from(req.bytes));
                } else {
                    self.stats.record_nvm_write(u64::from(req.bytes), NvmWriteClass::Cpu);
                }
            }
        }
        self.stats.service_cycles += done.saturating_sub(now);
        done
    }
}

/// DRAM-only main memory with zero-cost crash consistency (§5.1 system 1).
///
/// Used as the normalization target of Figures 7 and 11: nothing can be
/// faster, and no consistency work is ever performed.
#[derive(Debug)]
pub struct IdealDram {
    inner: Ideal,
}

impl IdealDram {
    /// Creates the system with the paper's DRAM timing.
    pub fn new(cfg: SystemConfig) -> Self {
        Self { inner: Ideal::new(DeviceKind::Dram, cfg) }
    }

    /// The underlying device (row-buffer statistics).
    pub fn device(&self) -> &Device {
        &self.inner.device
    }
}

impl MemorySystem for IdealDram {
    fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
        self.inner.access(req, now)
    }

    fn drain(&mut self, now: Cycle) -> Cycle {
        now.max(self.inner.device.idle_at())
    }

    fn stats(&self) -> &MemStats {
        &self.inner.stats
    }

    fn name(&self) -> &'static str {
        "Ideal DRAM"
    }
}

/// NVM-only main memory with zero-cost crash consistency (§5.1 system 2).
#[derive(Debug)]
pub struct IdealNvm {
    inner: Ideal,
}

impl IdealNvm {
    /// Creates the system with the paper's NVM timing.
    pub fn new(cfg: SystemConfig) -> Self {
        Self { inner: Ideal::new(DeviceKind::Nvm, cfg) }
    }

    /// The underlying device (row-buffer statistics).
    pub fn device(&self) -> &Device {
        &self.inner.device
    }
}

impl MemorySystem for IdealNvm {
    fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
        self.inner.access(req, now)
    }

    fn drain(&mut self, now: Cycle) -> Cycle {
        now.max(self.inner.device.idle_at())
    }

    fn stats(&self) -> &MemStats {
        &self.inner.stats
    }

    fn name(&self) -> &'static str {
        "Ideal NVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thynvm_types::PhysAddr;

    #[test]
    fn dram_uses_dram_timing() {
        let mut sys = IdealDram::new(SystemConfig::paper());
        let done = sys.access(&MemRequest::read(PhysAddr::new(0), 64), Cycle::ZERO);
        assert_eq!(done, Cycle::from_ns(80)); // DRAM row miss
        let done2 = sys.access(&MemRequest::read(PhysAddr::new(64), 64), done);
        assert_eq!(done2 - done, Cycle::from_ns(40)); // row hit
    }

    #[test]
    fn nvm_uses_nvm_timing() {
        let mut sys = IdealNvm::new(SystemConfig::paper());
        let done = sys.access(&MemRequest::read(PhysAddr::new(0), 64), Cycle::ZERO);
        assert_eq!(done, Cycle::from_ns(128)); // NVM clean miss
    }

    #[test]
    fn nvm_writes_classified_as_cpu_traffic() {
        let mut sys = IdealNvm::new(SystemConfig::paper());
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        assert_eq!(sys.stats().nvm_write_bytes_cpu, 64);
        assert_eq!(sys.stats().nvm_write_bytes_ckpt, 0);
    }

    #[test]
    fn dram_write_bandwidth_counted_for_figure_10() {
        let mut sys = IdealDram::new(SystemConfig::paper());
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        assert_eq!(sys.stats().dram_write_bytes, 64);
        assert_eq!(sys.stats().nvm_write_bytes_total(), 0);
    }

    #[test]
    fn never_requests_checkpoints() {
        let sys = IdealDram::new(SystemConfig::paper());
        assert!(!sys.checkpoint_due(Cycle::from_ms(1_000)));
        let sys = IdealNvm::new(SystemConfig::paper());
        assert!(!sys.checkpoint_due(Cycle::from_ms(1_000)));
    }

    #[test]
    fn begin_checkpoint_is_free() {
        let mut sys = IdealDram::new(SystemConfig::paper());
        let resume = sys.begin_checkpoint(Cycle::new(123), &[PhysAddr::new(0)]);
        assert_eq!(resume, Cycle::new(123));
        assert_eq!(sys.stats().ckpt_busy_cycles, Cycle::ZERO);
    }

    #[test]
    fn drain_waits_for_device_occupancy() {
        let mut sys = IdealNvm::new(SystemConfig::paper());
        let done = sys.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        // The bank frees after activation + burst; the returned completion
        // (data latency) is later.
        let idle = sys.drain(Cycle::ZERO);
        assert_eq!(idle, Cycle::from_ns(88 + 5));
        assert!(idle <= done);
    }

    #[test]
    fn names() {
        assert_eq!(IdealDram::new(SystemConfig::paper()).name(), "Ideal DRAM");
        assert_eq!(IdealNvm::new(SystemConfig::paper()).name(), "Ideal NVM");
    }
}
