//! Micro-benchmarks of the page-fault paths nothing else times: the
//! demand-zero fault on a fresh heap page and the copy-on-write break on
//! a page a snapshot still shares.
//!
//! The other mechanisms are timed elsewhere: page-table clones at 512
//! pages by `benches/ablation.rs` (`ablation_deploy`); translation,
//! capture, deploy, compile and exec by the perfbench layer probes; and
//! the hot/warm/cold invocation paths by `perfbench --trace 1`.
//!
//! These measure *host wall time* of the real data-structure work (the
//! virtual-time costs the experiments report are separate, produced by
//! the calibrated cost model).

use seuss_bench::Harness;

use seuss_mem::{PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Mmu, Region, RegionKind};

const BASE: u64 = 0x10_0000;

fn rig(pages: u64) -> (PhysMemory, Mmu, AddressSpace) {
    let mut mem = PhysMemory::with_mib(512);
    let mut mmu = Mmu::new();
    let mut space = mmu.create_space(&mut mem).expect("space");
    space.add_region(Region {
        start: VirtAddr::new(BASE),
        pages: 65_536,
        kind: RegionKind::Heap,
        writable: true,
        demand_zero: true,
    });
    for p in 0..pages {
        let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
        mmu.touch_write(&mut mem, &mut space, va).expect("seed");
    }
    (mem, mmu, space)
}

fn bench_paging(h: &mut Harness) {
    let mut g = h.benchmark_group("paging");

    g.bench_function("demand_zero_fault", |b| {
        b.iter_batched(
            || rig(0),
            |(mut mem, mut mmu, mut space)| {
                let va = VirtAddr::new(BASE);
                mmu.touch_write(&mut mem, &mut space, va).expect("fault");
                (mem, mmu, space)
            },
        );
    });

    g.bench_function("cow_break_after_snapshot", |b| {
        b.iter_batched(
            || {
                let (mut mem, mut mmu, space) = rig(1);
                let snap = mmu.shallow_clone(&mut mem, space.root()).expect("snap");
                (mem, mmu, space, snap)
            },
            |(mut mem, mut mmu, mut space, _snap)| {
                let va = VirtAddr::new(BASE);
                mmu.touch_write(&mut mem, &mut space, va).expect("cow");
                (mem, mmu, space)
            },
        );
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_paging(&mut h);
    h.finish();
}
