//! Property test on `Mmu::collect_diff` (driven by `seuss-check`): on
//! random COW trees it returns exactly what the full-walk filter does —
//! every `(vpn, frame)` of `collect_mapped(child)` that is not also in
//! `collect_mapped(parent)`, in the same (address) order.
//!
//! Each case builds a "runtime snapshot" parent from random writes,
//! deploys a space from it (a root-only shallow clone, as a UC deploy
//! does), and mutates that space with writes that split shared subtrees,
//! unmaps, writes to pages and top-level regions the parent never
//! mapped, and page demotions on either side. The child is then captured
//! as a shallow clone of the space, which keeps writing afterwards so
//! later splits must not leak into the child.
//!
//! A failure prints a minimized case and a `SEUSS_CHECK_SEED` value that
//! replays it.

use seuss_check::{check_with, ensure_eq, gen::Gen, Config};
use seuss_mem::{FrameId, PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Mmu, Region, RegionKind, TableId};
use std::collections::HashMap;

/// Spans three L1 tables, so subtrees split independently.
const NEAR: u64 = 0x10_0000;
const NEAR_PAGES: u64 = 1536;
/// Under another root (L4) entry, which the parent never maps.
const FAR: u64 = 0x80_0000_0000;
const FAR_PAGES: u64 = 64;

#[derive(Clone, Debug, PartialEq)]
enum Op {
    /// Write page `p` of the near region through the space.
    Write { p: u64 },
    /// Write page `p` of the far region (absent from the parent).
    WriteFar { p: u64 },
    /// Unmap near page `p` from the space.
    Unmap { p: u64 },
    /// Demote near page `p` under the space's root, if mapped there.
    DemoteChild { p: u64 },
    /// Demote near page `p` under the parent's root, if mapped there.
    DemoteParent { p: u64 },
}

fn va(base: u64, p: u64) -> VirtAddr {
    VirtAddr::new(base + p * PAGE_SIZE as u64)
}

fn ops() -> impl Gen<Value = Vec<Op>> {
    let near = || seuss_check::range(0u64, NEAR_PAGES - 1);
    seuss_check::vecs(
        seuss_check::one_of(vec![
            near().map(|p| Op::Write { p }).boxed(),
            seuss_check::range(0u64, FAR_PAGES - 1)
                .map(|p| Op::WriteFar { p })
                .boxed(),
            near().map(|p| Op::Unmap { p }).boxed(),
            near().map(|p| Op::DemoteChild { p }).boxed(),
            near().map(|p| Op::DemoteParent { p }).boxed(),
        ]),
        0,
        60,
    )
}

/// (pages the parent's space writes, ops before capture, writes after).
fn cases() -> impl Gen<Value = (Vec<u64>, Vec<Op>, Vec<u64>)> {
    (
        seuss_check::vecs(seuss_check::range(0u64, NEAR_PAGES - 1), 0, 80),
        ops(),
        seuss_check::vecs(seuss_check::range(0u64, NEAR_PAGES - 1), 0, 20),
    )
}

fn space_with_regions(root: TableId) -> AddressSpace {
    let mut s = AddressSpace::from_root(root);
    for (start, pages) in [(NEAR, NEAR_PAGES), (FAR, FAR_PAGES)] {
        s.add_region(Region {
            start: VirtAddr::new(start),
            pages,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        });
    }
    s
}

/// The full-walk filter `collect_diff` replaces.
fn reference(mmu: &Mmu, parent: TableId, child: TableId) -> Vec<(u64, FrameId)> {
    let parent_map: HashMap<u64, FrameId> = mmu.collect_mapped(parent).into_iter().collect();
    mmu.collect_mapped(child)
        .into_iter()
        .filter(|&(vpn, frame)| parent_map.get(&vpn) != Some(&frame))
        .collect()
}

#[test]
fn collect_diff_equals_the_full_walk_filter() {
    check_with(
        Config::with_cases(64),
        "collect_diff_equals_filter",
        &cases(),
        |(base_pages, ops, after)| {
            let mut mem = PhysMemory::with_mib(256);
            let mut mmu = Mmu::new();
            let root = mmu.create_space(&mut mem).expect("space").root();
            let mut base = space_with_regions(root);
            for &p in base_pages {
                mmu.write_bytes(&mut mem, &mut base, va(NEAR, p), &[1])
                    .expect("base write");
            }
            let parent = mmu.shallow_clone(&mut mem, base.root()).expect("parent");
            mmu.destroy_space(&mut mem, base);

            let uc_root = mmu.shallow_clone(&mut mem, parent).expect("deploy");
            let mut uc = space_with_regions(uc_root);
            let mut block = 0u64;
            for op in ops {
                match *op {
                    Op::Write { p } => mmu
                        .write_bytes(&mut mem, &mut uc, va(NEAR, p), &[2])
                        .expect("write"),
                    Op::WriteFar { p } => mmu
                        .write_bytes(&mut mem, &mut uc, va(FAR, p), &[3])
                        .expect("far write"),
                    Op::Unmap { p } => {
                        mmu.unmap_page(&mut mem, &mut uc, va(NEAR, p))
                            .expect("unmap");
                    }
                    Op::DemoteChild { p } | Op::DemoteParent { p } => {
                        let target = match op {
                            Op::DemoteChild { .. } => uc.root(),
                            _ => parent,
                        };
                        if mmu.translate(target, va(NEAR, p)).is_some() {
                            mmu.demote_page(&mut mem, target, va(NEAR, p), block)
                                .expect("demote");
                            block += 1;
                        }
                    }
                }
            }
            let child = mmu.shallow_clone(&mut mem, uc.root()).expect("capture");
            for &p in after {
                mmu.write_bytes(&mut mem, &mut uc, va(NEAR, p), &[4])
                    .expect("post-capture write");
            }

            ensure_eq!(
                mmu.collect_diff(parent, child),
                reference(&mmu, parent, child),
                "diff against the parent snapshot"
            );
            ensure_eq!(
                mmu.collect_diff(child, child),
                Vec::new(),
                "a tree has no diff against itself"
            );
            mmu.destroy_space(&mut mem, uc);
            mmu.release_root(&mut mem, child);
            mmu.release_root(&mut mem, parent);
            Ok(())
        },
    );
}
