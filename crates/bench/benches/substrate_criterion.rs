//! Criterion micro-benchmarks of the simulator substrate's hot paths.
//!
//! These do not reproduce a paper artifact; they track the performance of
//! the simulator itself (device timing, cache lookups, the ThyNVM store
//! path) so regressions in simulation throughput are visible.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use thynvm_cache::CacheHierarchy;
use thynvm_core::ThyNvm;
use thynvm_mem::{Device, DeviceKind};
use thynvm_types::{
    AccessKind, Cycle, HwAddr, MemRequest, MemorySystem, PhysAddr, SystemConfig,
};

fn bench_device(c: &mut Criterion) {
    let cfg = SystemConfig::paper();
    c.bench_function("nvm_device_access", |b| {
        let mut dev = Device::new(DeviceKind::Nvm, cfg.nvm_geometry);
        let mut now = Cycle::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let addr = HwAddr::new((i % (1 << 26)) & !63);
            now = dev.access(black_box(addr), AccessKind::Write, 64, now);
            black_box(now)
        });
    });
}

fn bench_cache(c: &mut Criterion) {
    let cfg = SystemConfig::paper();
    c.bench_function("cache_hierarchy_access", |b| {
        let mut h = CacheHierarchy::new(cfg.cache);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let addr = PhysAddr::new((i % (1 << 24)) & !63);
            black_box(h.access(black_box(addr), AccessKind::Write))
        });
    });
}

fn bench_store_path(c: &mut Criterion) {
    let cfg = SystemConfig::paper();
    c.bench_function("thynvm_store_path", |b| {
        let mut sys = ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let addr = PhysAddr::new((i % (1 << 26)) & !63);
            now = sys.access(&MemRequest::write(addr, 64), now);
            if sys.checkpoint_due(now) {
                now = sys.begin_checkpoint(now, &[]);
            }
            black_box(now)
        });
    });
}

criterion_group!(benches, bench_device, bench_cache, bench_store_path);
criterion_main!(benches);
