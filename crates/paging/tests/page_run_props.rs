//! Property test (driven by `seuss-check`): [`Mmu::write_page_run`] has
//! exactly the effect of the per-page loop it replaces — one
//! [`Mmu::touch_write`] plus one [`PhysMemory::write`] per page, stopping
//! at the first fault.
//!
//! Both sides start from the same random state and must end with equal
//! page tables (entries and refcounts), frame refcounts, content digests,
//! dirty sets, private-page counts, [`OpStats`] and pool statistics. The
//! states cover runs that cross L1 (and an L2) table boundaries, tables a
//! snapshot still shares and that the run must split, demand-zero pages,
//! COW pages, a read-only page, pages past the region, and running out
//! of frames part-way through the run.

use seuss_check::{check_with, ensure_eq, gen::Gen, Config};
use seuss_mem::{FrameKind, MemStats, PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{
    AddressSpace, Entry, EntryFlags, Mmu, OpStats, PageFault, Region, RegionKind, TableId,
};

/// The region starts 700 pages below the 1 GiB line, so it spans three
/// L1 tables' boundaries, one of which is also an L2 boundary.
const BASE: u64 = (1 << 30) - 700 * PAGE_SIZE as u64;
const REGION_PAGES: u64 = 1536;

#[derive(Clone, Debug)]
struct Setup {
    /// `(page, value)` writes made before the snapshot.
    before: Vec<(u64, u8)>,
    /// A contiguous range of pages `(first, count)` also written before
    /// the snapshot: a run over it needs no frames until it leaves it.
    filled: (u64, u64),
    /// Whether a snapshot (a shallow root clone) is taken and kept alive.
    snapshot: bool,
    /// Pages written after the snapshot, which split some paths again.
    after: Vec<u64>,
    /// A page mapped read-only (not COW), if any.
    read_only: Option<u64>,
}

#[derive(Clone, Debug)]
struct Run {
    start: u64,
    pages: u64,
    /// Byte offset in each page (word-aligned).
    offset: usize,
    /// The bytes written at that offset (empty: touch only).
    bytes: Vec<u8>,
    /// Frames left free before the run, if the pool is squeezed.
    headroom: Option<u64>,
}

fn setups() -> impl Gen<Value = Setup> {
    (
        seuss_check::vecs(
            (
                seuss_check::range(0u64, REGION_PAGES - 1),
                seuss_check::range(0u8, 255),
            ),
            0,
            40,
        ),
        (
            seuss_check::range(0u64, REGION_PAGES - 1),
            seuss_check::range(0u64, 300),
        ),
        (
            seuss_check::bools(),
            seuss_check::vecs(seuss_check::range(0u64, REGION_PAGES - 1), 0, 12),
        ),
        (
            seuss_check::bools(),
            seuss_check::range(0u64, REGION_PAGES - 1),
        ),
    )
        .map(|(before, filled, (snapshot, after), (ro, ro_page))| Setup {
            before,
            filled,
            snapshot,
            after,
            read_only: ro.then_some(ro_page),
        })
}

fn runs() -> impl Gen<Value = Run> {
    (
        seuss_check::one_of(vec![
            // Just below an L1 boundary (188 is the first, 700 the L2 one).
            seuss_check::range(150u64, 200).boxed(),
            seuss_check::range(650u64, 710).boxed(),
            seuss_check::range(0u64, REGION_PAGES - 1).boxed(),
        ]),
        seuss_check::range(0u64, 700),
        (
            seuss_check::range(0usize, PAGE_SIZE / 8 - 1),
            seuss_check::vecs(seuss_check::range(0u8, 255), 0, 8),
        ),
        (
            seuss_check::bools(),
            seuss_check::one_of(vec![
                seuss_check::range(0u64, 3).boxed(),
                seuss_check::range(0u64, 80).boxed(),
            ]),
        ),
    )
        .map(|(start, pages, (word, bytes), (squeeze, headroom))| Run {
            start,
            pages,
            offset: word * 8,
            bytes,
            headroom: squeeze.then_some(headroom),
        })
}

fn page(p: u64) -> VirtAddr {
    VirtAddr::new(BASE + p * PAGE_SIZE as u64)
}

struct Rig {
    mem: PhysMemory,
    mmu: Mmu,
    space: AddressSpace,
    snapshot: Option<TableId>,
}

fn build(setup: &Setup, headroom: Option<u64>) -> Rig {
    let mut mem = PhysMemory::with_mib(64);
    let mut mmu = Mmu::new();
    let mut space = mmu.create_space(&mut mem).expect("space");
    space.add_region(Region {
        start: page(0),
        pages: REGION_PAGES,
        kind: RegionKind::Heap,
        writable: true,
        demand_zero: true,
    });
    let (first, count) = setup.filled;
    let filled = (first..first + count).map(|p| (p.min(REGION_PAGES - 1), 0xF1));
    for (p, val) in setup.before.iter().copied().chain(filled) {
        let bytes = [val; 3];
        mmu.write_bytes(&mut mem, &mut space, page(p).offset(p % 97), &bytes)
            .expect("setup write");
    }
    if let Some(p) = setup.read_only {
        let frame = mem.alloc(FrameKind::Data).expect("frame");
        mmu.map_page(&mut mem, &mut space, page(p), frame, EntryFlags::USER)
            .expect("map");
    }
    let snapshot = setup
        .snapshot
        .then(|| mmu.shallow_clone(&mut mem, space.root()).expect("clone"));
    space.take_dirty();
    for &p in &setup.after {
        if Some(p) != setup.read_only {
            mmu.write_bytes(&mut mem, &mut space, page(p), &[0x5A])
                .expect("setup write");
        }
    }
    if let Some(h) = headroom {
        mem.apply_pressure(mem.stats().free_frames().saturating_sub(h));
    }
    Rig {
        mem,
        mmu,
        space,
        snapshot,
    }
}

/// A reachable table: its id, its refcount and its non-empty entries.
type TableDump = (u32, u32, Vec<(usize, Entry)>);

/// Everything the two sides must agree on.
#[derive(Debug, PartialEq)]
struct State {
    tables: Vec<TableDump>,
    /// Every mapped frame: index, refcount and content digest.
    frames: Vec<(u32, u32, u64)>,
    dirty: Vec<u64>,
    private_pages: u64,
    ops: OpStats,
    pool: MemStats,
}

fn state(rig: &Rig) -> State {
    let mut tables = Vec::new();
    let mut frames = Vec::new();
    let mut stack: Vec<TableId> = vec![rig.space.root()];
    stack.extend(rig.snapshot);
    while let Some(id) = stack.pop() {
        let node = rig.mmu.store.node(id);
        let mut entries = Vec::new();
        for (i, &e) in node.entries.iter().enumerate() {
            if e.is_table() {
                stack.push(e.next_table());
            } else if e.is_page() {
                let f = e.frame();
                frames.push((f.index(), rig.mem.refcount(f), rig.mem.digest(f)));
            }
            if e != Entry::EMPTY {
                entries.push((i, e));
            }
        }
        tables.push((id.index(), rig.mmu.store.refcount(id), entries));
    }
    State {
        tables,
        frames,
        dirty: rig.space.dirty_pages().collect(),
        private_pages: rig.space.private_pages(),
        ops: rig.mmu.stats,
        pool: rig.mem.stats(),
    }
}

fn per_page_loop(rig: &mut Rig, run: &Run) -> Result<(), PageFault> {
    for i in 0..run.pages {
        let va = page(run.start + i).offset(run.offset as u64);
        let frame = rig.mmu.touch_write(&mut rig.mem, &mut rig.space, va)?;
        rig.mem.write(frame, run.offset, &run.bytes);
    }
    Ok(())
}

#[test]
fn page_run_equals_the_per_page_loop() {
    check_with(
        Config::with_cases(96),
        "mmu_page_run_equals_loop",
        &(setups(), runs()),
        |(setup, run)| {
            let mut fast = build(setup, run.headroom);
            let mut slow = build(setup, run.headroom);
            ensure_eq!(state(&fast), state(&slow), "rigs differ before the run");
            let va = page(run.start).offset(run.offset as u64);
            let got =
                fast.mmu
                    .write_page_run(&mut fast.mem, &mut fast.space, va, run.pages, &run.bytes);
            let want = per_page_loop(&mut slow, run);
            ensure_eq!(got, want, "run outcome");
            ensure_eq!(state(&fast), state(&slow), "state after the run");
            // The run's writes are readable where the loop put them.
            for i in 0..run.pages {
                let at = page(run.start + i);
                let (Some(a), Some(b)) = (
                    fast.mmu.translate(fast.space.root(), at),
                    slow.mmu.translate(slow.space.root(), at),
                ) else {
                    continue;
                };
                let mut x = vec![0u8; run.bytes.len()];
                let mut y = vec![0u8; run.bytes.len()];
                fast.mem.read(a.frame(), run.offset, &mut x);
                slow.mem.read(b.frame(), run.offset, &mut y);
                ensure_eq!(x, y, "bytes at page {}", run.start + i);
            }
            for rig in [fast, slow] {
                let Rig {
                    mut mem,
                    mut mmu,
                    space,
                    snapshot,
                } = rig;
                if let Some(s) = snapshot {
                    mmu.release_root(&mut mem, s);
                }
                mmu.destroy_space(&mut mem, space);
                ensure_eq!(mem.stats().used_frames, 0, "leaked frames");
                ensure_eq!(mmu.store.live_tables(), 0, "leaked tables");
            }
            Ok(())
        },
    );
}
