//! The two node caches of §4: function snapshots and idle UCs.
//!
//! Both are LRU. The snapshot cache evicts only images the §6 policy
//! allows deleting (no active UCs); the idle-UC cache is additionally
//! drained by the OOM daemon under memory pressure.

use std::collections::{BTreeMap, HashMap, HashSet};

use seuss_mem::PhysMemory;
use seuss_paging::Mmu;
use seuss_snapshot::{SnapshotId, SnapshotStore};
use seuss_unikernel::{ImageStore, UcContext, UcImageId};

use crate::node::FnId;

/// One cached function image and its place in the eviction order.
struct FnCacheEntry {
    img: UcImageId,
    /// The image's snapshot.
    sid: Option<SnapshotId>,
    /// `(last_use, seq)`, this entry's key in the LRU index. `seq` is the
    /// monotone insertion sequence — the tie-break between equal
    /// `last_use`s, so the victim never depends on map iteration order.
    key: (u64, u64),
}

/// LRU cache of function-specific UC images, keyed by function identity.
pub struct FnImageCache {
    entries: HashMap<FnId, FnCacheEntry>,
    /// Every entry's function by `(last_use, seq)`: eviction order,
    /// least recently used first.
    lru: BTreeMap<(u64, u64), FnId>,
    /// The snapshots behind the cached images.
    snapshots: HashSet<SnapshotId>,
    capacity: usize,
    clock: u64,
    next_seq: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Evictions performed.
    pub evictions: u64,
}

impl FnImageCache {
    /// Creates a cache holding at most `capacity` function images.
    pub fn new(capacity: usize) -> Self {
        FnImageCache {
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            snapshots: HashSet::new(),
            capacity,
            clock: 0,
            next_seq: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Non-mutating lookup (no recency refresh, no stats).
    pub fn peek(&self, f: FnId) -> Option<UcImageId> {
        self.entries.get(&f).map(|e| e.img)
    }

    /// Whether a cached image is backed by snapshot `sid`.
    pub fn holds_snapshot(&self, sid: SnapshotId) -> bool {
        self.snapshots.contains(&sid)
    }

    /// Looks up the image for a function, refreshing recency.
    pub fn lookup(&mut self, f: FnId) -> Option<UcImageId> {
        self.clock += 1;
        match self.entries.get_mut(&f) {
            Some(e) => {
                self.lru.remove(&e.key);
                e.key.0 = self.clock;
                self.lru.insert(e.key, f);
                self.hits += 1;
                Some(e.img)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a function image, evicting LRU deletable images as needed.
    /// Returns the snapshot ids of every image actually deleted in the
    /// process (evicted for capacity, or displaced by the new entry) —
    /// the caller's cue to drop any storage-tier state they held.
    pub fn insert(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        images: &mut ImageStore,
        f: FnId,
        img: UcImageId,
    ) -> Vec<SnapshotId> {
        self.clock += 1;
        let mut deleted = Vec::new();
        while self.entries.len() >= self.capacity {
            match self.evict_one(mmu, mem, snaps, images) {
                Some(sid) => deleted.extend(sid),
                None => break,
            }
        }
        let key = (self.clock, self.next_seq);
        self.next_seq += 1;
        let sid = images.snapshot_of(img).ok();
        if let Some(old) = self.unlink(f) {
            if images.delete(mmu, mem, snaps, old.img).is_ok() {
                deleted.extend(old.sid);
            }
        }
        self.entries.insert(f, FnCacheEntry { img, sid, key });
        self.lru.insert(key, f);
        self.snapshots.extend(sid);
        deleted
    }

    /// Evicts the least-recently-used deletable image (used directly by
    /// the OOM daemon under memory pressure). `None` means nothing was
    /// evictable; `Some(sid)` carries the deleted image's snapshot id
    /// when the deletion went through (so the caller can release any
    /// storage-tier blocks it held).
    pub fn evict_lru(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        images: &mut ImageStore,
    ) -> Option<Option<SnapshotId>> {
        self.evict_one(mmu, mem, snaps, images)
    }

    fn evict_one(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        images: &mut ImageStore,
    ) -> Option<Option<SnapshotId>> {
        // The first deletable entry in LRU order: images with active UCs
        // are skipped, so the walk costs the victim plus the live images
        // older than it.
        let f = self.lru.values().copied().find(|f| {
            self.entries[f]
                .sid
                .and_then(|s| snaps.get(s).ok())
                .map(|s| s.active_ucs() == 0)
                .unwrap_or(true)
        })?;
        let e = self.unlink(f).expect("LRU index lists only cached entries");
        self.evictions += 1;
        match images.delete(mmu, mem, snaps, e.img) {
            Ok(()) => Some(e.sid),
            Err(_) => Some(None),
        }
    }

    /// Removes and returns a specific entry without deleting its image.
    pub fn remove(&mut self, f: FnId) -> Option<UcImageId> {
        self.unlink(f).map(|e| e.img)
    }

    /// Drops `f`'s entry from the map and both indices.
    fn unlink(&mut self, f: FnId) -> Option<FnCacheEntry> {
        let e = self.entries.remove(&f)?;
        self.lru.remove(&e.key);
        if let Some(sid) = e.sid {
            self.snapshots.remove(&sid);
        }
        Some(e)
    }

    /// Forces an entry's recency to a given value, fabricating the ties
    /// the deterministic-eviction tests need.
    #[cfg(test)]
    pub(crate) fn force_last_use(&mut self, f: FnId, t: u64) {
        if let Some(e) = self.entries.get_mut(&f) {
            self.lru.remove(&e.key);
            e.key.0 = t;
            self.lru.insert(e.key, f);
        }
    }
}

/// End marker of the idle cache's slot links.
const NIL: u32 = u32::MAX;

/// One slab slot's place in the idle cache's cache-time list.
#[derive(Clone, Copy)]
struct Link {
    f: FnId,
    /// Neighbours in cache-time order (`NIL` at either end). A free slot
    /// chains the free list through `next`.
    prev: u32,
    next: u32,
}

/// Cache of idle ("hot") UCs, per function, with global and per-function
/// caps and LRU reclaim for the OOM daemon.
///
/// Every cached UC sits in a slab slot threaded on one list in
/// cache-time order, so the LRU victim is the list head and every
/// operation is O(1) (plus a shift of one function's short slot list).
/// The links live apart from the UCs, in a dense array, so relinking
/// does not touch the UCs next to the one taken. Freed slots and emptied
/// per-function lists are kept for reuse: once warm, `take` and `put` do
/// not allocate.
pub struct IdleUcCache {
    /// The slab: `None` marks a free slot.
    ucs: Vec<Option<UcContext>>,
    links: Vec<Link>,
    /// Oldest and newest cached slot.
    head: u32,
    tail: u32,
    /// First free slot.
    free: u32,
    /// Each function's slots, oldest first.
    by_fn: HashMap<FnId, Vec<u32>>,
    per_fn: usize,
    total_cap: usize,
    total: usize,
    /// Hot hits served.
    pub hits: u64,
    /// UCs reclaimed (by pressure or capacity).
    pub reclaimed: u64,
}

impl IdleUcCache {
    /// Creates a cache with per-function and global caps.
    pub fn new(per_fn: usize, total_cap: usize) -> Self {
        IdleUcCache {
            ucs: Vec::new(),
            links: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            by_fn: HashMap::new(),
            per_fn,
            total_cap,
            total: 0,
            hits: 0,
            reclaimed: 0,
        }
    }

    /// Total idle UCs cached.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether any idle UC is cached.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Idle UCs cached for one function.
    pub fn count_for(&self, f: FnId) -> usize {
        self.by_fn.get(&f).map(|v| v.len()).unwrap_or(0)
    }

    /// Takes an idle UC for `f` if one is cached (the hot path): the most
    /// recently cached one.
    pub fn take(&mut self, f: FnId) -> Option<UcContext> {
        let s = self.by_fn.get_mut(&f)?.pop()?;
        self.total -= 1;
        self.hits += 1;
        Some(self.unlink(s))
    }

    /// Caches a finished UC for future hot invocations. Returns a UC that
    /// had to be displaced (capacity), which the caller must destroy.
    pub fn put(&mut self, f: FnId, uc: UcContext) -> Option<UcContext> {
        let s = self.link(f, uc);
        let v = self.by_fn.entry(f).or_default();
        v.push(s);
        self.total += 1;
        if v.len() > self.per_fn {
            let oldest = v.remove(0);
            self.total -= 1;
            self.reclaimed += 1;
            return Some(self.unlink(oldest));
        }
        if self.total > self.total_cap {
            return self.pop_lru();
        }
        None
    }

    /// Removes the least-recently-cached idle UC (OOM-daemon reclaim).
    pub fn pop_lru(&mut self) -> Option<UcContext> {
        if self.head == NIL {
            return None;
        }
        let s = self.head;
        let v = self
            .by_fn
            .get_mut(&self.links[s as usize].f)
            .expect("a cached slot is listed under its function");
        // The globally oldest UC is also its function's oldest.
        debug_assert_eq!(v.first(), Some(&s));
        v.remove(0);
        self.total -= 1;
        self.reclaimed += 1;
        Some(self.unlink(s))
    }

    /// Stores `uc` in a free (or new) slot at the newest end of the list.
    fn link(&mut self, f: FnId, uc: UcContext) -> u32 {
        let link = Link {
            f,
            prev: self.tail,
            next: NIL,
        };
        let s = if self.free == NIL {
            self.ucs.push(Some(uc));
            self.links.push(link);
            u32::try_from(self.links.len() - 1).expect("idle slots fit u32")
        } else {
            let s = self.free;
            self.free = self.links[s as usize].next;
            self.ucs[s as usize] = Some(uc);
            self.links[s as usize] = link;
            s
        };
        match self.tail {
            NIL => self.head = s,
            t => self.links[t as usize].next = s,
        }
        self.tail = s;
        s
    }

    /// Unthreads slot `s` from the list, frees it, and returns its UC.
    fn unlink(&mut self, s: u32) -> UcContext {
        let Link { prev, next, .. } = self.links[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
        self.links[s as usize].next = self.free;
        self.free = s;
        self.ucs[s as usize]
            .take()
            .expect("a linked slot holds a UC")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // UcContext cannot be fabricated without a full rig, so IdleUcCache
    // policy tests that need real UCs live in the node tests; here we
    // exercise the counters and FnImageCache bookkeeping that don't.

    #[test]
    fn fn_cache_lru_accounting() {
        let mut c = FnImageCache::new(8);
        assert_eq!(c.lookup(1), None);
        assert_eq!(c.misses, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn idle_cache_counts() {
        let c = IdleUcCache::new(2, 10);
        assert_eq!(c.len(), 0);
        assert_eq!(c.count_for(3), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn fn_cache_eviction_tie_breaks_by_insertion_order() {
        use miniscript::RuntimeProfile;
        use seuss_snapshot::SnapshotKind;
        use seuss_unikernel::{Layout, UcContext, UcProfile};

        let mut mem = PhysMemory::with_mib(768);
        let mut mmu = Mmu::new();
        let mut snaps = SnapshotStore::new();
        let mut images = ImageStore::new();
        let (mut base_uc, _) = UcContext::boot(
            &mut mmu,
            &mut mem,
            Layout::nodejs(),
            UcProfile::tiny(),
            RuntimeProfile::tiny(),
        )
        .unwrap();
        let (base, _) = images
            .capture(
                &mut mmu,
                &mut mem,
                &mut snaps,
                &mut base_uc,
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap();

        let mut cache = FnImageCache::new(8);
        for f in [10u64, 20, 30] {
            let (mut uc, _) = images.deploy(&mut mmu, &mut mem, &mut snaps, base).unwrap();
            uc.connect(&mut mmu, &mut mem).unwrap();
            uc.import_function(&mut mmu, &mut mem, "function main(a) { return 0; }")
                .unwrap();
            let (img, _) = images
                .capture(
                    &mut mmu,
                    &mut mem,
                    &mut snaps,
                    &mut uc,
                    SnapshotKind::Function,
                    format!("f{f}"),
                    Some(base),
                )
                .unwrap();
            images.destroy_uc(&mut mmu, &mut mem, &mut snaps, uc);
            cache.insert(&mut mmu, &mut mem, &mut snaps, &mut images, f, img);
        }

        // Fabricate a three-way recency tie; the victim must then be the
        // earliest-inserted entry, not whatever the map iterates first.
        for f in [10u64, 20, 30] {
            cache.force_last_use(f, 7);
        }
        assert!(cache
            .evict_lru(&mut mmu, &mut mem, &mut snaps, &mut images)
            .is_some());
        assert!(cache.peek(10).is_none(), "earliest insertion evicted first");
        assert!(cache.peek(20).is_some());
        assert!(cache.peek(30).is_some());
        assert!(cache
            .evict_lru(&mut mmu, &mut mem, &mut snaps, &mut images)
            .is_some());
        assert!(cache.peek(20).is_none(), "then the next-earliest");
        assert!(cache.peek(30).is_some());
    }
}
