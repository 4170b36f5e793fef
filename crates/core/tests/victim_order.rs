//! Model tests on the OOM daemon's reclaim structures (driven by
//! `seuss-check`): random operation sequences run against the real
//! structure and against the full-scan algorithm each one replaced, and
//! every victim (and every cache's contents after every step) must
//! match.
//!
//! 1. `FnImageCache`: lookup, insert (with capacity evictions),
//!    displacing insert, remove and OOM eviction, while some images are
//!    held by active UCs. Reference: sort every deletable entry by
//!    `(last_use, insertion seq)` and take the first.
//! 2. `IdleUcCache`: put over the per-function cap, put over the global
//!    cap, take and pop_lru. Reference: per-function vectors with cache
//!    times, and an LRU scan of every function for the oldest head.
//! 3. DemoteColdest: `TieredStore::demote_coldest` over a cached set of
//!    function snapshots, with uses, uncaching (forget), live UCs,
//!    eager promotions and a device small enough to run out. Reference:
//!    a second, identical rig that gathers every candidate and demotes
//!    the coldest by `(last_use or 0, id)`, retrying the next-coldest
//!    when a demotion fails.
//!
//! A failure prints a minimized op-sequence and a `SEUSS_CHECK_SEED`
//! value that replays it.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use miniscript::RuntimeProfile;
use seuss_check::{check_with, ensure_eq, gen::Gen, Config};
use seuss_core::{FnImageCache, IdleUcCache};
use seuss_mem::{PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Mmu, Region, RegionKind};
use seuss_snapshot::{RegisterState, SnapshotId, SnapshotKind, SnapshotStore};
use seuss_store::{DeviceConfig, ReclaimMode, RestorePolicy, StoreConfig, TieredStore};
use seuss_unikernel::{ImageStore, Layout, UcContext, UcImageId, UcProfile};

/// Functions the cache sequences draw from.
const FNS: u64 = 6;

/// A booted runtime image plus the stores function images live in.
struct UcRig {
    mem: PhysMemory,
    mmu: Mmu,
    snaps: SnapshotStore,
    images: ImageStore,
    base: UcImageId,
}

impl UcRig {
    fn new() -> Self {
        let mut mem = PhysMemory::with_mib(768);
        let mut mmu = Mmu::new();
        let mut snaps = SnapshotStore::new();
        let mut images = ImageStore::new();
        let (mut uc, _) = UcContext::boot(
            &mut mmu,
            &mut mem,
            Layout::nodejs(),
            UcProfile::tiny(),
            RuntimeProfile::tiny(),
        )
        .expect("boot");
        let (base, _) = images
            .capture(
                &mut mmu,
                &mut mem,
                &mut snaps,
                &mut uc,
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .expect("base capture");
        uc.destroy(&mut mmu, &mut mem);
        UcRig {
            mem,
            mmu,
            snaps,
            images,
            base,
        }
    }

    /// A UC deployed from the runtime image.
    fn uc(&mut self) -> UcContext {
        self.deploy(self.base)
    }

    fn deploy(&mut self, img: UcImageId) -> UcContext {
        self.images
            .deploy(&mut self.mmu, &mut self.mem, &mut self.snaps, img)
            .expect("deploy")
            .0
    }

    fn destroy(&mut self, uc: UcContext) {
        self.images
            .destroy_uc(&mut self.mmu, &mut self.mem, &mut self.snaps, uc);
    }

    /// A fresh function image captured on top of the runtime image.
    fn fn_image(&mut self, f: u64) -> UcImageId {
        let mut uc = self.uc();
        uc.connect(&mut self.mmu, &mut self.mem).expect("connect");
        uc.import_function(
            &mut self.mmu,
            &mut self.mem,
            "function main(a) { return 0; }",
        )
        .expect("import");
        let (img, _) = self
            .images
            .capture(
                &mut self.mmu,
                &mut self.mem,
                &mut self.snaps,
                &mut uc,
                SnapshotKind::Function,
                format!("f{f}"),
                Some(self.base),
            )
            .expect("function capture");
        self.destroy(uc);
        img
    }

    fn active_ucs(&self, img: UcImageId) -> u32 {
        self.images
            .snapshot_of(img)
            .ok()
            .and_then(|s| self.snaps.get(s).ok())
            .map_or(0, |s| s.active_ucs())
    }
}

// ---------------------------------------------------------------------
// 1. FnImageCache

#[derive(Clone, Debug, PartialEq)]
enum FnOp {
    Lookup(u64),
    Insert(u64),
    Remove(u64),
    Evict,
    /// Deploy a UC from `f`'s cached image and keep it alive.
    Hold(u64),
    /// Destroy the `i`-th held UC.
    Release(usize),
}

fn fn_ops() -> impl Gen<Value = Vec<FnOp>> {
    let f = || seuss_check::range(0u64, FNS - 1);
    seuss_check::vecs(
        seuss_check::one_of(vec![
            f().map(FnOp::Lookup).boxed(),
            f().map(FnOp::Insert).boxed(),
            f().map(FnOp::Insert).boxed(),
            f().map(FnOp::Remove).boxed(),
            seuss_check::just(FnOp::Evict).boxed(),
            f().map(FnOp::Hold).boxed(),
            seuss_check::range(0usize, 7).map(FnOp::Release).boxed(),
        ]),
        1,
        40,
    )
}

/// The pre-index `FnImageCache`: a map scanned and sorted per eviction.
struct FnModel {
    entries: BTreeMap<u64, (UcImageId, u64, u64)>,
    capacity: usize,
    clock: u64,
    next_seq: u64,
}

impl FnModel {
    fn victim(&self, r: &UcRig) -> Option<u64> {
        let mut c: Vec<(u64, (u64, u64))> = self
            .entries
            .iter()
            .filter(|(_, e)| r.active_ucs(e.0) == 0)
            .map(|(f, e)| (*f, (e.1, e.2)))
            .collect();
        c.sort_by_key(|&(_, key)| key);
        c.first().map(|&(f, _)| f)
    }
}

#[test]
fn fn_image_cache_victims_match_the_sorting_scan() {
    const CAPACITY: usize = 4;
    check_with(
        Config::with_cases(24),
        "fn_cache_victim_order",
        &fn_ops(),
        |ops| {
            let mut r = UcRig::new();
            let mut cache = FnImageCache::new(CAPACITY);
            let mut model = FnModel {
                entries: BTreeMap::new(),
                capacity: CAPACITY,
                clock: 0,
                next_seq: 0,
            };
            let mut held: Vec<UcContext> = Vec::new();
            for op in ops {
                match *op {
                    FnOp::Lookup(f) => {
                        model.clock += 1;
                        let want = model.entries.get_mut(&f).map(|e| {
                            e.1 = model.clock;
                            e.0
                        });
                        ensure_eq!(cache.lookup(f), want, "lookup {f}");
                    }
                    FnOp::Insert(f) => {
                        let img = r.fn_image(f);
                        model.clock += 1;
                        while model.entries.len() >= model.capacity {
                            match model.victim(&r) {
                                Some(v) => {
                                    model.entries.remove(&v);
                                }
                                None => break,
                            }
                        }
                        model.entries.insert(f, (img, model.clock, model.next_seq));
                        model.next_seq += 1;
                        cache.insert(&mut r.mmu, &mut r.mem, &mut r.snaps, &mut r.images, f, img);
                    }
                    FnOp::Remove(f) => {
                        let want = model.entries.remove(&f).map(|e| e.0);
                        ensure_eq!(cache.remove(f), want, "remove {f}");
                        if let Some(img) = want {
                            let _ = r.images.delete(&mut r.mmu, &mut r.mem, &mut r.snaps, img);
                        }
                    }
                    FnOp::Evict => {
                        let want = model.victim(&r).map(|v| {
                            let img = model.entries.remove(&v).expect("victim cached").0;
                            r.images.snapshot_of(img).ok()
                        });
                        let got =
                            cache.evict_lru(&mut r.mmu, &mut r.mem, &mut r.snaps, &mut r.images);
                        ensure_eq!(got, want, "OOM eviction");
                    }
                    FnOp::Hold(f) => {
                        if let Some(img) = cache.peek(f) {
                            held.push(r.deploy(img));
                        }
                    }
                    FnOp::Release(i) => {
                        if !held.is_empty() {
                            let uc = held.remove(i % held.len());
                            r.destroy(uc);
                        }
                    }
                }
                ensure_eq!(cache.len(), model.entries.len(), "after {op:?}");
                for f in 0..FNS {
                    ensure_eq!(
                        cache.peek(f),
                        model.entries.get(&f).map(|e| e.0),
                        "entry {f} after {op:?}"
                    );
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 2. IdleUcCache

#[derive(Clone, Debug, PartialEq)]
enum IdleOp {
    Put(u64),
    Take(u64),
    PopLru,
}

fn idle_ops() -> impl Gen<Value = Vec<IdleOp>> {
    let f = || seuss_check::range(0u64, FNS - 1);
    seuss_check::vecs(
        seuss_check::one_of(vec![
            f().map(IdleOp::Put).boxed(),
            f().map(IdleOp::Put).boxed(),
            f().map(IdleOp::Take).boxed(),
            seuss_check::just(IdleOp::PopLru).boxed(),
        ]),
        1,
        80,
    )
}

/// The pre-slab `IdleUcCache`: per-function vectors of `(uc id, cache
/// time)`, and a scan over every function for the oldest head.
struct IdleModel {
    by_fn: HashMap<u64, Vec<(u32, u64)>>,
    per_fn: usize,
    total_cap: usize,
    total: usize,
    clock: u64,
}

impl IdleModel {
    fn put(&mut self, f: u64, uc: u32) -> Option<u32> {
        self.clock += 1;
        let v = self.by_fn.entry(f).or_default();
        v.push((uc, self.clock));
        self.total += 1;
        if v.len() > self.per_fn {
            self.total -= 1;
            return Some(v.remove(0).0);
        }
        if self.total > self.total_cap {
            return self.pop_lru();
        }
        None
    }

    fn take(&mut self, f: u64) -> Option<u32> {
        let (uc, _) = self.by_fn.get_mut(&f)?.pop()?;
        self.total -= 1;
        Some(uc)
    }

    fn pop_lru(&mut self) -> Option<u32> {
        let f = self
            .by_fn
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .min_by_key(|(f, v)| (v[0].1, **f))
            .map(|(f, _)| *f)?;
        self.total -= 1;
        Some(self.by_fn.get_mut(&f)?.remove(0).0)
    }
}

#[test]
fn idle_uc_cache_victims_match_the_lru_scan() {
    const PER_FN: usize = 3;
    const TOTAL: usize = 7;
    check_with(
        Config::with_cases(32),
        "idle_cache_victim_order",
        &idle_ops(),
        |ops| {
            let mut r = UcRig::new();
            let mut cache = IdleUcCache::new(PER_FN, TOTAL);
            let mut model = IdleModel {
                by_fn: HashMap::new(),
                per_fn: PER_FN,
                total_cap: TOTAL,
                total: 0,
                clock: 0,
            };
            for op in ops {
                let got = match *op {
                    IdleOp::Put(f) => {
                        let uc = r.uc();
                        let want = model.put(f, uc.uc_id);
                        (cache.put(f, uc), want)
                    }
                    IdleOp::Take(f) => (cache.take(f), model.take(f)),
                    IdleOp::PopLru => (cache.pop_lru(), model.pop_lru()),
                };
                ensure_eq!(got.0.as_ref().map(|uc| uc.uc_id), got.1, "{op:?}");
                if let Some(uc) = got.0 {
                    r.destroy(uc);
                }
                ensure_eq!(cache.len(), model.total, "len after {op:?}");
                for f in 0..FNS {
                    ensure_eq!(
                        cache.count_for(f),
                        model.by_fn.get(&f).map_or(0, |v| v.len()),
                        "count for {f} after {op:?}"
                    );
                }
            }
            while let Some(uc) = cache.pop_lru() {
                ensure_eq!(Some(uc.uc_id), model.pop_lru(), "drain");
                r.destroy(uc);
            }
            ensure_eq!(model.total, 0, "drained");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 3. DemoteColdest

/// Function snapshots in the demotion rig.
const SNAPS: usize = 6;
const BASE: u64 = 0x10_0000;
const REGION_PAGES: u64 = 1024;

#[derive(Clone, Debug, PartialEq)]
enum DemoteOp {
    /// A deploy of cached snapshot `i` (bumps its LRU clock).
    Use(usize),
    /// Snapshot `i` enters the function cache (noted at capture).
    Cache(usize),
    /// Snapshot `i` leaves the function cache (its tier state forgotten).
    Uncache(usize),
    /// A UC deployed from snapshot `i` stays alive.
    Hold(usize),
    /// The `i`-th live UC is destroyed.
    Release(usize),
    /// Eager promotion of snapshot `i`, if demoted.
    Promote(usize),
    /// One DemoteColdest reclaim step.
    Demote,
}

fn demote_ops() -> impl Gen<Value = Vec<DemoteOp>> {
    let s = || seuss_check::range(0usize, SNAPS - 1);
    seuss_check::vecs(
        seuss_check::one_of(vec![
            s().map(DemoteOp::Use).boxed(),
            s().map(DemoteOp::Cache).boxed(),
            s().map(DemoteOp::Uncache).boxed(),
            s().map(DemoteOp::Hold).boxed(),
            seuss_check::range(0usize, 7).map(DemoteOp::Release).boxed(),
            s().map(DemoteOp::Promote).boxed(),
            seuss_check::just(DemoteOp::Demote).boxed(),
            seuss_check::just(DemoteOp::Demote).boxed(),
        ]),
        1,
        60,
    )
}

/// One side of the DemoteColdest comparison: a runtime snapshot, its
/// function children (snapshot `i` diffs `4 + 3i` pages), and a tier.
struct TierRig {
    mem: PhysMemory,
    mmu: Mmu,
    snaps: SnapshotStore,
    tier: TieredStore,
    fns: Vec<SnapshotId>,
    cached: BTreeSet<SnapshotId>,
    live: Vec<(AddressSpace, SnapshotId)>,
    /// The reference's own copy of the tier's LRU clock.
    last_use: HashMap<SnapshotId, u64>,
    clock: u64,
}

fn va_of(p: u64) -> VirtAddr {
    VirtAddr::new(BASE + p * PAGE_SIZE as u64)
}

impl TierRig {
    fn new() -> Self {
        let tier = TieredStore::new(StoreConfig {
            // Room for about two of the larger diffs: demotions run out
            // of blocks and fall through to the next-coldest.
            device: DeviceConfig::test(30),
            policy: RestorePolicy::EagerFull,
            reclaim: ReclaimMode::DemoteColdest,
        });
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let mut snaps = SnapshotStore::new();
        let mut space = mmu.create_space(&mut mem).expect("space");
        space.add_region(Region {
            start: VirtAddr::new(BASE),
            pages: REGION_PAGES,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        });
        for p in 0..64 {
            mmu.write_bytes(&mut mem, &mut space, va_of(p * 8), &[1])
                .expect("runtime write");
        }
        let runtime = snaps
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "runtime",
                None,
            )
            .expect("runtime capture");
        mmu.destroy_space(&mut mem, space);
        let mut fns = Vec::new();
        for i in 0..SNAPS as u64 {
            let (mut uc, _) = snaps.deploy(&mut mmu, &mut mem, runtime).expect("deploy");
            for p in 0..4 + 3 * i {
                mmu.write_bytes(&mut mem, &mut uc, va_of(p * 5 + i), &[2])
                    .expect("function write");
            }
            let sid = snaps
                .capture(
                    &mut mmu,
                    &mut mem,
                    &mut uc,
                    RegisterState::default(),
                    SnapshotKind::Function,
                    format!("f{i}"),
                    Some(runtime),
                )
                .expect("function capture");
            mmu.destroy_space(&mut mem, uc);
            snaps.release_uc(runtime).expect("release");
            fns.push(sid);
        }
        TierRig {
            mem,
            mmu,
            snaps,
            tier,
            fns,
            cached: BTreeSet::new(),
            live: Vec::new(),
            last_use: HashMap::new(),
            clock: 0,
        }
    }

    fn note_use(&mut self, sid: SnapshotId) {
        self.tier.note_use(sid);
        self.clock += 1;
        self.last_use.insert(sid, self.clock);
    }

    /// Applies one op; `Demote` runs the indexed walk, or the full-scan
    /// reference when `reference` is set. Returns the demoted snapshot.
    fn apply(&mut self, op: &DemoteOp, reference: bool) -> Option<SnapshotId> {
        match *op {
            DemoteOp::Use(i) | DemoteOp::Cache(i) => {
                let sid = self.fns[i];
                if matches!(op, DemoteOp::Cache(_)) {
                    self.cached.insert(sid);
                }
                if self.cached.contains(&sid) {
                    self.note_use(sid);
                }
            }
            DemoteOp::Uncache(i) => {
                let sid = self.fns[i];
                if self.cached.remove(&sid) {
                    self.tier.forget(sid);
                    self.last_use.remove(&sid);
                }
            }
            DemoteOp::Hold(i) => {
                let sid = self.fns[i];
                let (space, _) = self
                    .snaps
                    .deploy(&mut self.mmu, &mut self.mem, sid)
                    .expect("deploy");
                self.live.push((space, sid));
            }
            DemoteOp::Release(i) => {
                if !self.live.is_empty() {
                    let (space, sid) = self.live.remove(i % self.live.len());
                    self.mmu.destroy_space(&mut self.mem, space);
                    self.snaps.release_uc(sid).expect("release");
                }
            }
            DemoteOp::Promote(i) => {
                let sid = self.fns[i];
                if self.tier.is_demoted(sid) {
                    self.tier
                        .promote(&mut self.mmu, &mut self.mem, &self.snaps, sid)
                        .expect("promote");
                }
            }
            DemoteOp::Demote if reference => return self.demote_by_scan(),
            DemoteOp::Demote => {
                let cached = &self.cached;
                return self
                    .tier
                    .demote_coldest(&mut self.mmu, &mut self.mem, &self.snaps, |s| {
                        cached.contains(&s)
                    })
                    .map(|(sid, _)| sid);
            }
        }
        None
    }

    /// The pre-index reclaim step: gather every candidate, then demote
    /// the coldest, dropping it and retrying on failure.
    fn demote_by_scan(&mut self) -> Option<SnapshotId> {
        let mut remaining: Vec<SnapshotId> = self
            .cached
            .iter()
            .copied()
            .filter(|&s| !self.tier.is_demoted(s))
            .filter(|&s| {
                self.snaps
                    .get(s)
                    .map(|sn| sn.active_ucs() == 0 && sn.children() == 0)
                    .unwrap_or(false)
            })
            .collect();
        while let Some(victim) = remaining
            .iter()
            .copied()
            .min_by_key(|s| (self.last_use.get(s).copied().unwrap_or(0), s.index()))
        {
            remaining.retain(|&s| s != victim);
            if self
                .tier
                .demote(&mut self.mmu, &mut self.mem, &self.snaps, victim)
                .is_ok()
            {
                return Some(victim);
            }
        }
        None
    }
}

#[test]
fn demote_coldest_victims_match_the_candidate_scan() {
    check_with(
        Config::with_cases(48),
        "demote_coldest_victim_order",
        &demote_ops(),
        |ops| {
            let mut indexed = TierRig::new();
            let mut scanned = TierRig::new();
            for op in ops {
                ensure_eq!(
                    indexed.apply(op, false),
                    scanned.apply(op, true),
                    "victim of {op:?}"
                );
                for &sid in &indexed.fns {
                    ensure_eq!(
                        indexed.tier.is_demoted(sid),
                        scanned.tier.is_demoted(sid),
                        "demoted state of {sid:?} after {op:?}"
                    );
                }
                ensure_eq!(
                    indexed.tier.used_blocks(),
                    scanned.tier.used_blocks(),
                    "device blocks after {op:?}"
                );
            }
            Ok(())
        },
    );
}
