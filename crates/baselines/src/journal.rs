//! The journaling (redo-logging) baseline of §5.1, following the paper's
//! description: "A journal buffer is located in DRAM to collect and coalesce
//! updated blocks. At the end of each epoch, the buffer is written back to
//! NVM in a backup region, before it is committed in-place. This mechanism
//! uses a table to track buffered dirty blocks in DRAM. The size of the
//! table is the same as the combined size of the BTT and the PTT in ThyNVM."
//!
//! The flush is stop-the-world: the application cannot make progress while
//! the journal is persisted and committed, which is the source of the large
//! checkpointing-time share the paper reports for this baseline (18.9 % on
//! the micro-benchmarks, §5.2).
//!
//! # Secure mode
//!
//! With [`SecurityConfig`](thynvm_types::SecurityConfig) enabled the
//! baseline carries the same counter-mode-encryption metadata as ThyNVM
//! (Zuo et al., arXiv:1901.00620): every committed block bumps its write
//! counter, and each flush persists the dirty counter-table entries, the
//! distinct integrity-tree nodes on their paths to the root, and a 64 B
//! root record — all *before* the commit record. This makes the metadata
//! amplification of a journaling design directly comparable to ThyNVM's
//! (experiment E22). Security off is byte- and cycle-identical to a build
//! without the subsystem.


use thynvm_mem::{Device, DeviceKind, SecurityModel, SparseStore};
use thynvm_types::{
    AccessKind, BlockIndex, Cycle, FxHashMap, HwAddr, MemRequest, MemStats, MemorySystem, NvmWriteClass,
    PersistentMemory, PhysAddr, SystemConfig, BLOCK_BYTES,
};

/// Hardware-address base of the NVM journal backup region (disjoint from
/// all home addresses used by workloads).
const JOURNAL_BASE: u64 = 1 << 40;
/// DRAM slot size: one block.
const SLOT_BYTES: u64 = BLOCK_BYTES;
/// Security-metadata region within the journal's backup space: counter
/// table, integrity-tree nodes, and the root record live here, disjoint
/// from the journal entries themselves.
const JOURNAL_META_BASE: u64 = JOURNAL_BASE + (1 << 30);
/// Bytes per persisted counter-table / tree-node entry (matches ThyNVM's
/// metadata-entry size so E22 compares like with like).
const META_ENTRY_BYTES: u64 = 8;

/// The journaling hybrid memory system.
///
/// See the [module documentation](self) for the design.
#[derive(Debug)]
pub struct Journaling {
    cfg: SystemConfig,
    dram: Device,
    nvm: Device,
    /// Physical block → DRAM buffer slot.
    table: FxHashMap<BlockIndex, u32>,
    capacity: usize,
    next_slot: u32,
    epoch_start: Cycle,
    stats: MemStats,
    /// Functional layer: committed NVM contents (physical address space).
    committed: SparseStore,
    /// Functional layer: contents of buffered (not yet committed) blocks.
    buffer_data: SparseStore,
    /// Secure mode: counter-mode encryption + integrity-tree metadata,
    /// `None` unless `cfg.security.enabled`.
    security: Option<SecurityModel>,
}

impl Journaling {
    /// Creates the system; the coalescing table is as large as ThyNVM's
    /// BTT + PTT combined, per §5.1.
    pub fn new(cfg: SystemConfig) -> Self {
        Self {
            dram: Device::new(DeviceKind::Dram, cfg.dram_geometry),
            nvm: Device::new(DeviceKind::Nvm, cfg.nvm_geometry),
            table: FxHashMap::default(),
            capacity: cfg.thynvm.btt_entries + cfg.thynvm.ptt_entries,
            next_slot: 0,
            epoch_start: Cycle::ZERO,
            stats: MemStats::new(),
            committed: SparseStore::new(),
            buffer_data: SparseStore::new(),
            security: cfg.security.enabled.then(SecurityModel::default),
            cfg,
        }
    }

    /// Number of blocks currently buffered in the DRAM journal.
    pub fn buffered_blocks(&self) -> usize {
        self.table.len()
    }

    /// The NVM device (row-buffer and wear statistics).
    pub fn nvm_device(&self) -> &Device {
        &self.nvm
    }

    fn slot_addr(&self, slot: u32) -> HwAddr {
        HwAddr::new(u64::from(slot) * SLOT_BYTES)
    }

    /// Attributes counter-mode encryption + MAC work for `bytes` of data,
    /// as in ThyNVM. A no-op with secure mode off, so disabled runs stay
    /// bit-identical.
    fn charge_crypto(&mut self, bytes: u64, encrypt: bool) {
        if self.security.is_some() {
            self.stats.security.charge_crypto(bytes, encrypt);
        }
    }

    /// Stop-the-world journal flush: write every buffered block to the NVM
    /// journal region, then commit it in place. Returns the completion
    /// cycle.
    fn flush(&mut self, now: Cycle) -> Cycle {
        // Functional commit: the journal's redo rule makes the whole batch
        // atomic — apply every buffered block to the committed image.
        let buffered: Vec<BlockIndex> = self.table.keys().copied().collect();
        for block in buffered {
            let base = HwAddr::new(block.byte_offset());
            let data = self.buffer_data.read_block(base);
            self.committed.write(base, &data);
        }
        self.buffer_data.clear();

        let mut blocks: Vec<(BlockIndex, u32)> = self.table.drain().collect();
        blocks.sort_unstable_by_key(|(_, slot)| *slot); // journal order = arrival order
        // Operations are issued as fast as the devices accept them; bank
        // busy-times arbitrate. Per block the DRAM read feeds the journal
        // write, and the in-place commit follows the journal write (redo
        // rule: the log entry must be durable before the home location is
        // overwritten).
        let mut t = now;
        for (i, (block, slot)) in blocks.iter().enumerate() {
            // Read the buffered block from DRAM.
            let read_done =
                self.dram.access(self.slot_addr(*slot), AccessKind::Read, BLOCK_BYTES as u32, now);
            self.stats.dram_reads += 1;
            self.stats.dram_read_bytes += BLOCK_BYTES;
            // Journal write: data + metadata tuple (address), sequential.
            let jaddr = HwAddr::new(JOURNAL_BASE + (i as u64) * (BLOCK_BYTES + 8));
            let jdone =
                self.nvm.access(jaddr, AccessKind::Write, (BLOCK_BYTES + 8) as u32, read_done);
            self.stats.record_nvm_write(BLOCK_BYTES + 8, NvmWriteClass::Checkpoint);
            // In-place commit to the home location.
            let home = HwAddr::new(block.byte_offset());
            let cdone = self.nvm.access(home, AccessKind::Write, BLOCK_BYTES as u32, jdone);
            self.stats.record_nvm_write(BLOCK_BYTES, NvmWriteClass::Cpu);
            t = t.max(cdone);
            // Secure mode: the block is encrypted once under a bumped
            // write counter; the journal entry and the home location carry
            // the same ciphertext.
            if let Some(sec) = self.security.as_mut() {
                sec.note_block_write(home.raw());
            }
            self.charge_crypto(BLOCK_BYTES, true);
        }
        // Secure mode persists the dirty counters, the distinct tree nodes
        // on their paths to the root, and the root record *before* the
        // commit record — the state the commit flag covers must already be
        // authenticated (same discipline as ThyNVM's step 4b).
        if self.security.is_some() {
            let receipt =
                self.security.as_mut().expect("invariant: secure mode is on in this block").persist();
            if receipt.counter_entries > 0 {
                let ctr_bytes = receipt.counter_entries as u64 * META_ENTRY_BYTES;
                t = self.nvm.access(
                    HwAddr::new(JOURNAL_META_BASE),
                    AccessKind::Write,
                    u32::try_from(ctr_bytes.max(64).min(u64::from(u32::MAX))).expect("bounded"),
                    t,
                );
                self.stats.record_nvm_write(ctr_bytes, NvmWriteClass::Checkpoint);
                self.stats.security.counter_persists += 1;
                self.stats.security.counter_bytes += ctr_bytes;
                let tree_bytes = receipt.tree_nodes * META_ENTRY_BYTES;
                t = self.nvm.access(
                    HwAddr::new(JOURNAL_META_BASE + (1 << 20)),
                    AccessKind::Write,
                    u32::try_from(tree_bytes.max(64).min(u64::from(u32::MAX))).expect("bounded"),
                    t,
                );
                self.stats.record_nvm_write(tree_bytes, NvmWriteClass::Checkpoint);
                self.stats.security.tree_node_persists += receipt.tree_nodes;
                self.stats.security.tree_bytes += tree_bytes;
            }
            t = self.nvm.access(HwAddr::new(JOURNAL_META_BASE + (2 << 20)), AccessKind::Write, 64, t);
            self.stats.record_nvm_write(64, NvmWriteClass::Checkpoint);
            self.stats.security.root_persists += 1;
            self.charge_crypto(64, true);
        }
        // Commit record.
        t = self.nvm.access(HwAddr::new(JOURNAL_BASE), AccessKind::Write, 64, t);
        self.stats.record_nvm_write(8, NvmWriteClass::Checkpoint);

        self.stats.ckpt_busy_cycles += t - now;
        self.stats.ckpt_stall_cycles += t - now; // stop-the-world
        self.stats.epochs_completed += 1;
        self.next_slot = 0;
        self.epoch_start = t;
        t
    }
}

impl MemorySystem for Journaling {
    fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
        let mut t = now;
        match req.kind {
            AccessKind::Write => {
                self.stats.writes += 1;
                for block_addr in req.blocks_touched() {
                    let block = block_addr.block();
                    // Full table forces an immediate epoch end.
                    if !self.table.contains_key(&block) && self.table.len() >= self.capacity {
                        t = self.flush(t);
                    }
                    let next = self.next_slot;
                    let slot = *self.table.entry(block).or_insert_with(|| next);
                    if slot == next {
                        self.next_slot += 1;
                    }
                    t = self.dram.access(self.slot_addr(slot), AccessKind::Write, BLOCK_BYTES as u32, t);
                    self.stats.record_dram_write(BLOCK_BYTES);
                }
            }
            AccessKind::Read => {
                self.stats.reads += 1;
                for block_addr in req.blocks_touched() {
                    let block = block_addr.block();
                    if let Some(&slot) = self.table.get(&block) {
                        t = self.dram.access(self.slot_addr(slot), AccessKind::Read, BLOCK_BYTES as u32, t);
                        self.stats.dram_reads += 1;
                        self.stats.dram_read_bytes += BLOCK_BYTES;
                    } else {
                        t = self.nvm.access(
                            HwAddr::new(block.byte_offset()),
                            AccessKind::Read,
                            BLOCK_BYTES as u32,
                            t,
                        );
                        self.stats.nvm_reads += 1;
                        self.stats.nvm_read_bytes += BLOCK_BYTES;
                    }
                }
            }
        }
        self.stats.service_cycles += t.saturating_sub(now);
        t
    }

    fn checkpoint_due(&self, now: Cycle) -> bool {
        // Request the epoch end slightly before the table is hard-full so
        // the platform performs the flush through the proper processor
        // handshake; the inline flush in `access` is only a backstop.
        now.saturating_sub(self.epoch_start) >= self.cfg.thynvm.epoch_max()
            || self.table.len() * 10 >= self.capacity * 9
    }

    fn begin_checkpoint(&mut self, now: Cycle, flushed: &[PhysAddr]) -> Cycle {
        // CPU dirty blocks join the journal before the flush.
        let mut t = now;
        for &addr in flushed {
            t = self.access(&MemRequest::write(addr, BLOCK_BYTES as u32), t);
        }
        self.flush(t)
    }

    fn drain(&mut self, now: Cycle) -> Cycle {
        let t = if self.table.is_empty() { now } else { self.flush(now) };
        t.max(self.nvm.idle_at()).max(self.dram.idle_at())
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "Journal"
    }
}

impl PersistentMemory for Journaling {
    fn store_bytes(&mut self, addr: PhysAddr, data: &[u8], now: Cycle) -> Cycle {
        // Blocks entering the buffer are initialized from the committed
        // image so partially-written blocks read back correctly.
        let req = MemRequest::write(addr, u32::try_from(data.len()).expect("write too large"));
        for block_addr in req.blocks_touched() {
            let block = block_addr.block();
            if !self.table.contains_key(&block) {
                let base = HwAddr::new(block.byte_offset());
                let current = self.committed.read_block(base);
                self.buffer_data.write(base, &current);
            }
        }
        self.buffer_data.write(HwAddr::new(addr.raw()), data);
        self.access(&req, now)
    }

    fn load_bytes(&mut self, addr: PhysAddr, buf: &mut [u8], now: Cycle) -> Cycle {
        // Assemble byte-wise: buffered blocks shadow committed contents.
        for (i, slot) in buf.iter_mut().enumerate() {
            let a = addr.raw() + i as u64;
            let block = PhysAddr::new(a).block();
            let mut byte = [0u8; 1];
            if self.table.contains_key(&block) {
                self.buffer_data.read(HwAddr::new(a), &mut byte);
            } else {
                self.committed.read(HwAddr::new(a), &mut byte);
            }
            *slot = byte[0];
        }
        self.access(&MemRequest::read(addr, u32::try_from(buf.len()).expect("read too large")), now)
    }

    fn persist(&mut self, now: Cycle) -> Cycle {
        if self.table.is_empty() {
            now
        } else {
            self.flush(now)
        }
    }

    fn power_fail(&mut self, now: Cycle) -> Cycle {
        // Everything volatile is lost: the DRAM journal buffer and device
        // row buffers. The committed NVM image survives.
        self.table.clear();
        self.buffer_data.clear();
        self.next_slot = 0;
        self.dram.power_cycle();
        self.nvm.power_cycle();
        self.epoch_start = now;
        now + Cycle::from_ns(1_000) // journal scan: no entries to replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> Journaling {
        Journaling::new(SystemConfig::small_test())
    }

    #[test]
    fn writes_buffer_in_dram() {
        let mut j = sys();
        j.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        assert_eq!(j.buffered_blocks(), 1);
        assert_eq!(j.stats().dram_write_bytes, 64);
        assert_eq!(j.stats().nvm_write_bytes_total(), 0);
    }

    #[test]
    fn writes_coalesce_per_block() {
        let mut j = sys();
        j.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        j.access(&MemRequest::write(PhysAddr::new(32), 32), Cycle::new(1_000));
        assert_eq!(j.buffered_blocks(), 1);
    }

    #[test]
    fn reads_hit_buffer_else_nvm() {
        let mut j = sys();
        j.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        let r1 = Cycle::new(10_000);
        let d1 = j.access(&MemRequest::read(PhysAddr::new(0), 64), r1);
        // Buffered: DRAM row-hit/miss latency, well under NVM clean miss.
        assert!(d1 - r1 <= Cycle::from_ns(80));
        let before = j.stats().nvm_reads;
        j.access(&MemRequest::read(PhysAddr::new(1 << 20), 64), d1);
        assert_eq!(j.stats().nvm_reads, before + 1);
    }

    #[test]
    fn flush_writes_journal_then_commits_in_place() {
        let mut j = sys();
        j.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        let t = j.begin_checkpoint(Cycle::new(1_000), &[]);
        assert!(t > Cycle::new(1_000));
        assert_eq!(j.buffered_blocks(), 0);
        // Journal entry (72 B) + commit record (8) as ckpt, commit (64) as CPU.
        assert_eq!(j.stats().nvm_write_bytes_ckpt, 72 + 8);
        assert_eq!(j.stats().nvm_write_bytes_cpu, 64);
        assert_eq!(j.stats().epochs_completed, 1);
    }

    #[test]
    fn flush_is_stop_the_world() {
        let mut j = sys();
        for i in 0..100u64 {
            j.access(&MemRequest::write(PhysAddr::new(i * 64), 64), Cycle::ZERO);
        }
        let resume = j.begin_checkpoint(Cycle::new(10_000), &[]);
        let busy = j.stats().ckpt_busy_cycles;
        assert_eq!(j.stats().ckpt_stall_cycles, busy);
        assert_eq!(resume, Cycle::new(10_000) + busy);
    }

    #[test]
    fn table_overflow_flushes_inline() {
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.btt_entries = 4;
        cfg.thynvm.ptt_entries = 4; // capacity 8
        let mut j = Journaling::new(cfg);
        let mut t = Cycle::ZERO;
        for i in 0..9u64 {
            t = j.access(&MemRequest::write(PhysAddr::new(i * 64), 64), t);
        }
        assert_eq!(j.stats().epochs_completed, 1, "overflow forced a flush");
        assert!(j.buffered_blocks() <= 8);
    }

    #[test]
    fn epoch_timer_requests_checkpoint() {
        let j = sys();
        assert!(!j.checkpoint_due(Cycle::ZERO));
        assert!(j.checkpoint_due(Cycle::from_ms(1))); // small_test epoch = 1 ms
    }

    #[test]
    fn flushed_cpu_blocks_join_the_epoch() {
        let mut j = sys();
        let t = j.begin_checkpoint(Cycle::ZERO, &[PhysAddr::new(0), PhysAddr::new(64)]);
        assert!(t > Cycle::ZERO);
        // Two blocks journaled + committed.
        assert_eq!(j.stats().nvm_write_bytes_cpu, 128);
    }

    #[test]
    fn drain_flushes_remaining() {
        let mut j = sys();
        j.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        let t = j.drain(Cycle::new(100));
        assert!(t > Cycle::new(100));
        assert_eq!(j.buffered_blocks(), 0);
        assert_eq!(j.drain(t), t, "idempotent when clean");
    }

    #[test]
    fn name() {
        assert_eq!(sys().name(), "Journal");
    }

    #[test]
    fn security_off_charges_nothing_and_keeps_flush_bytes() {
        let mut j = sys();
        j.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        j.begin_checkpoint(Cycle::new(1_000), &[]);
        assert!(!j.stats().security.any(), "disabled mode records nothing");
        assert_eq!(j.stats().security.crypto_cycles, Cycle::ZERO);
        assert_eq!(j.stats().nvm_write_bytes_ckpt, 72 + 8, "byte-identical to pre-secure");
    }

    #[test]
    fn secure_flush_persists_counters_tree_and_root() {
        let mut cfg = SystemConfig::small_test();
        cfg.security = thynvm_types::SecurityConfig::hardened();
        cfg.validate().expect("valid secure config");
        let mut j = Journaling::new(cfg);
        j.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        let t = j.begin_checkpoint(Cycle::new(1_000), &[]);
        let s = j.stats().security;
        assert_eq!(s.counter_persists, 1, "dirty counter persisted with the flush");
        assert!(s.counter_bytes > 0);
        assert!(s.tree_node_persists > 0, "ancestor tree nodes rewritten");
        assert_eq!(s.root_persists, 1, "root sealed before the commit record");
        assert!(s.blocks_encrypted > 0);
        assert!(s.crypto_cycles > Cycle::ZERO);
        // Metadata amplification: strictly more checkpoint-class bytes
        // than the plain journal entry + commit record.
        assert!(j.stats().nvm_write_bytes_ckpt > 72 + 8);
        // A secure flush is never faster than a plain one.
        let mut plain = sys();
        plain.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        let tp = plain.begin_checkpoint(Cycle::new(1_000), &[]);
        assert!(t >= tp);
    }

    #[test]
    fn quiet_secure_flush_still_seals_the_root() {
        let mut cfg = SystemConfig::small_test();
        cfg.security = thynvm_types::SecurityConfig::hardened();
        cfg.validate().expect("valid secure config");
        let mut j = Journaling::new(cfg);
        j.access(&MemRequest::write(PhysAddr::new(0), 64), Cycle::ZERO);
        j.begin_checkpoint(Cycle::new(1_000), &[]);
        // A flush with nothing buffered persists no counters but still
        // seals the generation-bearing root.
        j.begin_checkpoint(Cycle::new(1_000_000), &[PhysAddr::new(64)]);
        let s = j.stats().security;
        assert_eq!(s.counter_persists, 2, "second flush had a dirty counter too");
        assert_eq!(s.root_persists, 2, "root sealed every flush");
    }
}
