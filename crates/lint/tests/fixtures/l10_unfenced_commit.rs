//! L10 fixture: commit-record and security-root persists without a
//! persist-buffer fence. Parsed as `crates/core/src/fencepath.rs`.

pub fn seal_without_fence(&mut self, t: u64) -> u64 {
    let t = self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);
    self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t)
}

pub fn root_without_fence(&mut self, t: u64) -> u64 {
    self.nvm.access(self.space.security_root(), AccessKind::Write, 64, t)
}

/// Near-miss: the fence dominates the seal — clean.
pub fn seal_with_fence(&mut self, t: u64) -> u64 {
    let t = self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);
    let t = self.wpq_fence(t); // fence
    self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t) // seal
}

/// Near-miss: backup metadata is covered by the commit protocol, not by
/// the fence obligation.
pub fn metadata_only(&mut self, t: u64) -> u64 {
    self.nvm.access(self.space.backup(16384), AccessKind::Write, 64, t)
}

/// An earlier fence does not cover a write issued after it: the second
/// metadata write may still sit in the buffer when the seal lands.
pub fn seal_after_stale_fence(&mut self, t: u64) -> u64 {
    let t = self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);
    let t = self.wpq_fence(t);
    let t = self.nvm.access(self.space.backup(16384), AccessKind::Write, 64, t);
    self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t)
}

/// Near-miss: a working-region write between the nearest fence and the
/// seal is volatile, so the fence still covers every persisted write.
pub fn seal_after_working_write(&mut self, t: u64) -> u64 {
    let t = self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);
    let t = self.wpq_fence(t);
    let t = self.dram.access(HwAddr::new(0), AccessKind::Write, 64, t);
    self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t)
}
