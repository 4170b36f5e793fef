//! A KSM-style retroactive page-deduplication scanner.
//!
//! §5 contrasts SEUSS sharing with Linux's Kernel Samepage Merging: "In
//! contrast to KSM, page-sharing in SEUSS is not applied retroactively,
//! reducing the concern for deduplication-based side-channel attacks."
//! This module implements the retroactive approach so the comparison is
//! runnable: scan the leaf mappings of a set of address spaces, group
//! frames by content digest, and merge identical frames into one
//! copy-on-write page.
//!
//! Two costs distinguish it from snapshot sharing, each checked by a
//! unit test below:
//!
//! * the scanner must *touch every mapped page* on every pass (hashing
//!   work proportional to the resident set, repeated forever), while
//!   snapshot sharing never scans anything — pages are born shared
//!   (`scan_cost_is_proportional_to_resident_set`);
//! * merging is observable: a deduplicated write suddenly costs a COW
//!   break, which is the timing side channel §5 cites
//!   (`writes_after_merge_cow_break`).

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, HashSet};

use seuss_mem::{FrameId, PhysMemory};

use crate::entry::{Entry, EntryFlags};
use crate::mmu::Mmu;
use crate::table::TableId;

/// Results of one merge pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KsmStats {
    /// Leaf mappings visited.
    pub pages_scanned: u64,
    /// Distinct frames hashed.
    pub frames_hashed: u64,
    /// Frames eliminated by merging.
    pub frames_merged: u64,
    /// Bytes of physical memory recovered.
    pub bytes_recovered: u64,
}

/// The dedup scanner.
#[derive(Default)]
pub struct KsmScanner {
    /// Cumulative stats across passes.
    pub total: KsmStats,
}

impl KsmScanner {
    /// Creates a scanner.
    pub fn new() -> Self {
        KsmScanner::default()
    }

    /// Runs one scan-and-merge pass over the address spaces rooted at
    /// `roots`. Frames with identical content are merged: every mapping
    /// of a duplicate is rewritten to the canonical frame, read-only with
    /// the COW bit set, so the next write breaks the sharing exactly like
    /// a snapshot page.
    ///
    /// Mappings reached through *shared* tables are rewritten once and
    /// affect every sharer consistently (they all mapped the same
    /// physical frame before the merge, and all map the canonical one
    /// after).
    pub fn merge_pass(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        roots: &[TableId],
    ) -> KsmStats {
        let mut stats = KsmStats::default();

        // Phase 1: collect every leaf slot reachable from the roots,
        // deduplicating shared tables.
        let mut visited: HashSet<TableId> = HashSet::new();
        let mut leaf_slots: Vec<(TableId, usize, FrameId)> = Vec::new();
        for &root in roots {
            let mut stack = vec![root];
            while let Some(id) = stack.pop() {
                if !visited.insert(id) {
                    continue;
                }
                for (idx, entry) in mmu.store.node(id).entries.iter().enumerate() {
                    if entry.is_table() {
                        stack.push(entry.next_table());
                    } else if entry.is_page() {
                        leaf_slots.push((id, idx, entry.frame()));
                        stats.pages_scanned += 1;
                    }
                }
            }
        }

        // Phase 2: hash distinct frames and pick canonical representatives.
        let mut canonical: HashMap<u64, FrameId> = HashMap::new();
        let mut replacement: HashMap<FrameId, FrameId> = HashMap::new();
        let mut hashed: HashSet<FrameId> = HashSet::new();
        for &(_, _, frame) in &leaf_slots {
            if !hashed.insert(frame) {
                continue;
            }
            let digest = mem.digest(frame);
            stats.frames_hashed += 1;
            match canonical.entry(digest) {
                MapEntry::Vacant(v) => {
                    v.insert(frame);
                }
                MapEntry::Occupied(o) => {
                    let canon = *o.get();
                    if canon != frame {
                        replacement.insert(frame, canon);
                    }
                }
            }
        }

        // Phase 3: rewrite mappings of duplicates to the canonical frame,
        // read-only + COW. Canonical frames that gained sharers are also
        // demoted to COW so *their* next write copies too.
        let mut demote: HashSet<FrameId> = HashSet::new();
        for (table, idx, frame) in leaf_slots {
            if let Some(&canon) = replacement.get(&frame) {
                let old = mmu.store.node(table).entries[idx];
                let flags = old
                    .flags()
                    .without(EntryFlags::WRITABLE)
                    .union(EntryFlags::COW);
                mem.inc_ref(canon);
                if mem.dec_ref(frame) {
                    stats.frames_merged += 1;
                    stats.bytes_recovered += seuss_mem::PAGE_SIZE as u64;
                }
                mmu.store.node_mut(table).entries[idx] = Entry::page(canon, flags);
                demote.insert(canon);
            } else if demote.contains(&frame) {
                let old = mmu.store.node(table).entries[idx];
                let flags = old
                    .flags()
                    .without(EntryFlags::WRITABLE)
                    .union(EntryFlags::COW);
                mmu.store.node_mut(table).entries[idx] = old.with_flags(flags);
            }
        }
        // Second sweep for canonical slots scanned before their duplicate
        // (demotion must not depend on scan order).
        let mut stack: Vec<TableId> = roots.to_vec();
        let mut revisit: HashSet<TableId> = HashSet::new();
        while let Some(id) = stack.pop() {
            if !revisit.insert(id) {
                continue;
            }
            for idx in 0..seuss_mem::addr::TABLE_ENTRIES {
                let entry = mmu.store.node(id).entries[idx];
                if entry.is_table() {
                    stack.push(entry.next_table());
                } else if entry.is_page() && demote.contains(&entry.frame()) {
                    let flags = entry
                        .flags()
                        .without(EntryFlags::WRITABLE)
                        .union(EntryFlags::COW);
                    mmu.store.node_mut(id).entries[idx] = entry.with_flags(flags);
                }
            }
        }

        self.total.pages_scanned += stats.pages_scanned;
        self.total.frames_hashed += stats.frames_hashed;
        self.total.frames_merged += stats.frames_merged;
        self.total.bytes_recovered += stats.bytes_recovered;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Region, RegionKind};
    use seuss_mem::{VirtAddr, PAGE_SIZE};

    const BASE: u64 = 0x10_0000;

    fn space_with_pages(
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        contents: &[&[u8]],
    ) -> crate::AddressSpace {
        let mut s = mmu.create_space(mem).expect("space");
        s.add_region(Region {
            start: VirtAddr::new(BASE),
            pages: 1024,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        });
        for (i, bytes) in contents.iter().enumerate() {
            let va = VirtAddr::new(BASE + i as u64 * PAGE_SIZE as u64);
            mmu.write_bytes(mem, &mut s, va, bytes).expect("write");
        }
        s
    }

    #[test]
    fn merges_identical_pages_across_spaces() {
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        // Two independent spaces with identical content — like two
        // separately-booted VMs KSM would deduplicate.
        let a = space_with_pages(&mut mmu, &mut mem, &[b"same", b"unique-a"]);
        let b = space_with_pages(&mut mmu, &mut mem, &[b"same", b"unique-b"]);
        let frames_before = mem.stats().data_frames;

        let mut ksm = KsmScanner::new();
        let stats = ksm.merge_pass(&mut mmu, &mut mem, &[a.root(), b.root()]);
        assert_eq!(stats.pages_scanned, 4);
        assert_eq!(stats.frames_merged, 1, "one duplicate pair");
        assert_eq!(mem.stats().data_frames, frames_before - 1);

        // Both spaces still read the same logical bytes.
        for s in [&a, &b] {
            let e = mmu
                .translate(s.root(), VirtAddr::new(BASE))
                .expect("mapped");
            let mut buf = [0u8; 4];
            mem.read(e.frame(), 0, &mut buf);
            assert_eq!(&buf, b"same");
            assert!(e.flags().contains(EntryFlags::COW), "merged page is COW");
        }
        mmu.destroy_space(&mut mem, a);
        mmu.destroy_space(&mut mem, b);
        assert_eq!(mem.stats().used_frames, 0);
    }

    #[test]
    fn writes_after_merge_cow_break() {
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let mut a = space_with_pages(&mut mmu, &mut mem, &[b"dup"]);
        let b = space_with_pages(&mut mmu, &mut mem, &[b"dup"]);
        let mut ksm = KsmScanner::new();
        ksm.merge_pass(&mut mmu, &mut mem, &[a.root(), b.root()]);

        // Writing through space A after the merge must copy, not corrupt B
        // — and this extra copy is the §5 timing side channel.
        let cow_before = mmu.stats.cow_clones;
        mmu.write_bytes(&mut mem, &mut a, VirtAddr::new(BASE), b"mut")
            .expect("write");
        assert_eq!(mmu.stats.cow_clones, cow_before + 1);
        let e = mmu
            .translate(b.root(), VirtAddr::new(BASE))
            .expect("mapped");
        let mut buf = [0u8; 3];
        mem.read(e.frame(), 0, &mut buf);
        assert_eq!(&buf, b"dup");
        mmu.destroy_space(&mut mem, a);
        mmu.destroy_space(&mut mem, b);
        assert_eq!(mem.stats().used_frames, 0);
    }

    #[test]
    fn scan_cost_is_proportional_to_resident_set() {
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let contents: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let refs: Vec<&[u8]> = contents.iter().map(|v| v.as_slice()).collect();
        let s = space_with_pages(&mut mmu, &mut mem, &refs);
        let mut ksm = KsmScanner::new();
        // No duplicates: the pass still scans and hashes everything.
        let stats = ksm.merge_pass(&mut mmu, &mut mem, &[s.root()]);
        assert_eq!(stats.pages_scanned, 100);
        assert_eq!(stats.frames_hashed, 100);
        assert_eq!(stats.frames_merged, 0);
        // A second pass re-pays the whole scan — the retroactive tax.
        let stats2 = ksm.merge_pass(&mut mmu, &mut mem, &[s.root()]);
        assert_eq!(stats2.pages_scanned, 100);
        assert_eq!(ksm.total.pages_scanned, 200);
        mmu.destroy_space(&mut mem, s);
    }

    #[test]
    fn snapshot_shared_pages_need_no_merging() {
        // Pages born shared via shallow clone are already one frame; KSM
        // finds nothing to do — sharing without scanning.
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let s = space_with_pages(&mut mmu, &mut mem, &[b"base1", b"base2"]);
        let clone_root = mmu.shallow_clone(&mut mem, s.root()).expect("clone");
        let mut ksm = KsmScanner::new();
        let stats = ksm.merge_pass(&mut mmu, &mut mem, &[s.root(), clone_root]);
        assert_eq!(stats.frames_merged, 0);
        mmu.release_root(&mut mem, clone_root);
        mmu.destroy_space(&mut mem, s);
    }
}
