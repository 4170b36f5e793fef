//! Pairing mechanical snapshots with their semantic mirror.
//!
//! A snapshot in `seuss-snapshot` is pages + registers. A *deployable UC
//! image* additionally needs the interpreter state those pages encode —
//! the host-side mirror of the guest heap. [`ImageStore`] keeps the two
//! in lockstep: capture stores an `Rc` of the UC's interpreter (cheap —
//! copies materialize only when a descendant mutates), deploy clones the
//! `Rc` into the new UC and replays the driver's resume writes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use miniscript::{Interpreter, ProgId};
use seuss_mem::{FrameKind, PhysMemory};
use seuss_paging::Mmu;
use seuss_snapshot::transfer::{
    export_diff, export_full, import as import_snapshot, SnapshotImage,
};
use seuss_snapshot::{SnapshotError, SnapshotId, SnapshotKind, SnapshotStore};
use seuss_trace::{TraceEvent, Tracer};
use simcore::SimDuration;

use crate::context::{UcContext, UcError, UcState};
use crate::layout::Layout;
use crate::profile::UcProfile;

/// Identifier of a deployable UC image.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UcImageId(u32);

struct UcImage {
    snap: SnapshotId,
    interp: Rc<Interpreter>,
    net_warmed: bool,
    driver_warmed: bool,
    main_prog: Option<ProgId>,
    layout: Layout,
    profile: UcProfile,
}

/// A UC image serialized for cross-node migration (§9, DR-SEUSS): the
/// mechanical snapshot image plus the semantic state a destination node
/// needs to deploy it.
#[derive(Clone)]
pub struct UcImagePackage {
    /// The page-level snapshot image (full or diff).
    pub snapshot: SnapshotImage,
    /// Interpreter mirror as of capture.
    pub interp: Rc<Interpreter>,
    /// Network-path warm latch.
    pub net_warmed: bool,
    /// Driver-dispatch warm latch.
    pub driver_warmed: bool,
    /// The compiled entry program, if this is a function image.
    pub main_prog: Option<ProgId>,
    /// Address-space layout.
    pub layout: Layout,
    /// UC sizing profile.
    pub profile: UcProfile,
}

impl UcImagePackage {
    /// Bytes this package occupies on the wire (pages dominate; the
    /// interpreter mirror rides along as serialized heap metadata,
    /// already embodied in the shipped pages).
    pub fn wire_bytes(&self) -> u64 {
        self.snapshot.wire_bytes()
    }
}

/// Store of deployable UC images (snapshot + interpreter mirror).
#[derive(Default)]
pub struct ImageStore {
    images: Vec<Option<UcImage>>,
    /// The empty slots of `images`, lowest first: an insert takes the
    /// lowest free id without scanning the store.
    free: BinaryHeap<Reverse<u32>>,
    next_uc_id: u32,
    /// Tracing handle (disabled by default; the node installs a live one).
    pub tracer: Tracer,
}

impl ImageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ImageStore::default()
    }

    /// Number of live images.
    pub fn len(&self) -> usize {
        self.images.iter().flatten().count()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn image(&self, id: UcImageId) -> Result<&UcImage, UcError> {
        self.images
            .get(id.0 as usize)
            .and_then(|i| i.as_ref())
            .ok_or(UcError::BadState("dangling image id"))
    }

    /// The mechanical snapshot behind an image.
    pub fn snapshot_of(&self, id: UcImageId) -> Result<SnapshotId, UcError> {
        Ok(self.image(id)?.snap)
    }

    /// Whether the image has a compiled function (deploys land Ready).
    pub fn is_function_image(&self, id: UcImageId) -> Result<bool, UcError> {
        Ok(self.image(id)?.main_prog.is_some())
    }

    /// Captures a UC into a new image. The UC keeps running. Returns the
    /// image id and the capture cost (the eager dirty-page clone the
    /// paper charges ≈0.8 µs per page for).
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        uc: &mut UcContext,
        kind: SnapshotKind,
        label: impl Into<String>,
        parent: Option<UcImageId>,
    ) -> Result<(UcImageId, SimDuration), UcError> {
        let parent_snap = match parent {
            Some(p) => Some(self.image(p)?.snap),
            None => None,
        };
        let dirty_pages = uc.space.dirty_count();
        let snap = snaps
            .capture(mmu, mem, &mut uc.space, uc.regs, kind, label, parent_snap)
            .map_err(|e| match e {
                SnapshotError::OutOfMemory => UcError::Mem(seuss_mem::MemError::OutOfFrames),
                other => UcError::Script(other.to_string()),
            })?;
        let image = UcImage {
            snap,
            interp: Rc::clone(&uc.interp),
            net_warmed: uc.net_warmed,
            driver_warmed: uc.driver_warmed,
            main_prog: uc.main_prog,
            layout: uc.layout,
            profile: uc.profile,
        };
        let id = self.insert(image);
        // 0.8 µs per cloned dirty page (400 µs for the paper's 2 MiB NOP
        // snapshot), plus a fixed #DB-exception entry/exit.
        let cost = SimDuration::from_nanos(800) * dirty_pages + SimDuration::from_micros(15);
        Ok((id, cost))
    }

    fn insert(&mut self, image: UcImage) -> UcImageId {
        if let Some(Reverse(i)) = self.free.pop() {
            self.images[i as usize] = Some(image);
            return UcImageId(i);
        }
        self.images.push(Some(image));
        UcImageId(self.images.len() as u32 - 1)
    }

    /// Deploys a new UC from an image: shallow-clones the snapshot's page
    /// tables, allocates kernel metadata, and replays the driver's resume
    /// writes. Returns the UC and the mechanical deploy cost.
    pub fn deploy(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        id: UcImageId,
    ) -> Result<(UcContext, SimDuration), UcError> {
        self.deploy_prepared(mmu, mem, snaps, id, |_, _, _| Ok(()))
    }

    /// [`ImageStore::deploy`] with a preparation hook that runs on the
    /// fresh UC root *after* the shallow clone but *before* the driver's
    /// resume writes — the window where a storage tier prefetches a
    /// demoted snapshot's working set into the UC's private tables. A
    /// hook error unwinds the half-built UC.
    pub fn deploy_prepared(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        id: UcImageId,
        prepare: impl FnOnce(&mut Mmu, &mut PhysMemory, seuss_paging::TableId) -> Result<(), UcError>,
    ) -> Result<(UcContext, SimDuration), UcError> {
        let (snap_id, interp, net_warmed, driver_warmed, main_prog, layout, profile) = {
            let img = self.image(id)?;
            (
                img.snap,
                Rc::clone(&img.interp),
                img.net_warmed,
                img.driver_warmed,
                img.main_prog,
                img.layout,
                img.profile,
            )
        };
        let ops_before = mmu.stats;
        let (space, regs) = snaps.deploy(mmu, mem, snap_id).map_err(|e| match e {
            SnapshotError::OutOfMemory => UcError::Mem(seuss_mem::MemError::OutOfFrames),
            other => UcError::Script(other.to_string()),
        })?;
        if let Err(e) = prepare(mmu, mem, space.root()) {
            mmu.release_root(mem, space.root());
            let _ = snaps.release_uc(snap_id);
            return Err(e);
        }
        let kmeta = match mem.alloc_many(FrameKind::KernelMeta, profile.kmeta_pages) {
            Ok(k) => k,
            Err(e) => {
                mmu.release_root(mem, space.root());
                let _ = snaps.release_uc(snap_id);
                return Err(UcError::Mem(e));
            }
        };
        let state = if main_prog.is_some() {
            UcState::Ready
        } else {
            UcState::Listening
        };
        let mut uc = UcContext::from_parts(
            space,
            regs,
            interp,
            state,
            net_warmed,
            driver_warmed,
            layout,
            profile,
            snap_id,
            main_prog,
            kmeta,
        );
        self.next_uc_id += 1;
        uc.uc_id = self.next_uc_id;
        // Resume-to-listening writes: the driver re-enters its accept loop
        // and dirties a deterministic set of data pages (COW clones of the
        // snapshot's pages).
        let resumed = mmu.write_page_run(
            mem,
            &mut uc.space,
            layout.data_base,
            profile.resume_touch_pages,
            &[],
        );
        if let Err(e) = resumed {
            let _ = snaps.release_uc(snap_id);
            uc.destroy(mmu, mem);
            return Err(UcError::Fault(e));
        }
        let ops = mmu.stats.since(&ops_before);
        self.tracer.event(TraceEvent::FramesCopied {
            frames: ops.pages_copied(),
        });
        // Mechanical deploy cost: per-op charges for the root copy, table
        // work, COW clones, plus the fixed UC-construction overhead that
        // calibrates warm starts to Table 1 (see seuss-core::cost for the
        // derivation).
        let cost = SimDuration::from_nanos(500) // root-table copy + TLB flush
            + SimDuration::from_nanos(300) * (ops.tables_split + ops.tables_allocated)
            + SimDuration::from_nanos(800) * ops.pages_copied();
        Ok((uc, cost))
    }

    /// Serializes an image for migration to another node. With `parent`
    /// set, only the diff against the parent image ships (the destination
    /// must hold the parent — every DR-SEUSS node holds the runtime
    /// snapshots); without it the full resident set ships.
    pub fn export(
        &self,
        mmu: &Mmu,
        mem: &PhysMemory,
        snaps: &SnapshotStore,
        id: UcImageId,
        parent: Option<UcImageId>,
    ) -> Result<UcImagePackage, UcError> {
        let img = self.image(id)?;
        let snapshot = match parent {
            Some(p) => {
                export_diff(mmu, mem, snaps, img.snap, self.image(p)?.snap).map_err(map_snap_err)?
            }
            None => export_full(mmu, mem, snaps, img.snap).map_err(map_snap_err)?,
        };
        Ok(UcImagePackage {
            snapshot,
            interp: Rc::clone(&img.interp),
            net_warmed: img.net_warmed,
            driver_warmed: img.driver_warmed,
            main_prog: img.main_prog,
            layout: img.layout,
            profile: img.profile,
        })
    }

    /// Installs a migrated package as a local image. For a diff package,
    /// `parent` names this node's copy of the parent image.
    pub fn import(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        package: &UcImagePackage,
        parent: Option<UcImageId>,
    ) -> Result<UcImageId, UcError> {
        let parent_snap = match parent {
            Some(p) => Some(self.image(p)?.snap),
            None => None,
        };
        let snap = import_snapshot(mmu, mem, snaps, &package.snapshot, parent_snap)
            .map_err(map_snap_err)?;
        let image = UcImage {
            snap,
            interp: Rc::clone(&package.interp),
            net_warmed: package.net_warmed,
            driver_warmed: package.driver_warmed,
            main_prog: package.main_prog,
            layout: package.layout,
            profile: package.profile,
        };
        Ok(self.insert(image))
    }

    /// Destroys a UC deployed from this store, fixing snapshot accounting.
    pub fn destroy_uc(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        uc: UcContext,
    ) {
        if let Some(snap) = uc.source_snapshot {
            let _ = snaps.release_uc(snap);
        }
        uc.destroy(mmu, mem);
    }

    /// Deletes an image (and its snapshot, subject to the safety policy).
    pub fn delete(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        id: UcImageId,
    ) -> Result<(), SnapshotError> {
        let snap = {
            let img = self
                .images
                .get(id.0 as usize)
                .and_then(|i| i.as_ref())
                .ok_or(SnapshotError::Dangling)?;
            img.snap
        };
        snaps.delete(mmu, mem, snap)?;
        self.images[id.0 as usize] = None;
        self.free.push(Reverse(id.0));
        Ok(())
    }
}

fn map_snap_err(e: SnapshotError) -> UcError {
    match e {
        SnapshotError::OutOfMemory => UcError::Mem(seuss_mem::MemError::OutOfFrames),
        other => UcError::Script(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::InvocationOutcome;
    use miniscript::RuntimeProfile;

    struct Rig {
        mem: PhysMemory,
        mmu: Mmu,
        snaps: SnapshotStore,
        images: ImageStore,
    }

    fn rig() -> (Rig, UcContext) {
        let mut mem = PhysMemory::with_mib(768);
        let mut mmu = Mmu::new();
        let (uc, _) = UcContext::boot(
            &mut mmu,
            &mut mem,
            Layout::nodejs(),
            UcProfile::tiny(),
            RuntimeProfile::tiny(),
        )
        .unwrap();
        (
            Rig {
                mem,
                mmu,
                snaps: SnapshotStore::new(),
                images: ImageStore::new(),
            },
            uc,
        )
    }

    fn capture_base(r: &mut Rig, uc: &mut UcContext) -> UcImageId {
        r.images
            .capture(
                &mut r.mmu,
                &mut r.mem,
                &mut r.snaps,
                uc,
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap()
            .0
    }

    #[test]
    fn deploy_from_runtime_image_is_listening() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        let (uc, cost) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        assert_eq!(uc.state, UcState::Listening);
        assert!(cost > SimDuration::ZERO);
        assert!(!r.images.is_function_image(base).unwrap());
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);
    }

    #[test]
    fn full_cold_path_through_images() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        // Cold: deploy from runtime image, import, capture fn image, run.
        let (mut uc, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        uc.connect(&mut r.mmu, &mut r.mem).unwrap();
        uc.import_function(
            &mut r.mmu,
            &mut r.mem,
            "function main(a) { return 41 + 1; }",
        )
        .unwrap();
        let (fn_img, _) = r
            .images
            .capture(
                &mut r.mmu,
                &mut r.mem,
                &mut r.snaps,
                &mut uc,
                SnapshotKind::Function,
                "f",
                Some(base),
            )
            .unwrap();
        let (o, _) = uc.invoke(&mut r.mmu, &mut r.mem, &[]).unwrap();
        assert_eq!(
            o,
            InvocationOutcome::Completed {
                result: "42".into()
            }
        );
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);

        // Warm: deploy from the function image — lands Ready, runs without
        // importing, and shares the compiled program via the Rc mirror.
        let (mut warm, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, fn_img)
            .unwrap();
        assert_eq!(warm.state, UcState::Ready);
        let (o, _) = warm.invoke(&mut r.mmu, &mut r.mem, &[]).unwrap();
        assert_eq!(
            o,
            InvocationOutcome::Completed {
                result: "42".into()
            }
        );
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, warm);
    }

    #[test]
    fn warm_deploys_do_not_share_mutable_state() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        let (mut uc, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        uc.connect(&mut r.mmu, &mut r.mem).unwrap();
        uc.import_function(
            &mut r.mmu,
            &mut r.mem,
            "let counter = 0; function main(a) { counter = counter + 1; return counter; }",
        )
        .unwrap();
        let (fn_img, _) = r
            .images
            .capture(
                &mut r.mmu,
                &mut r.mem,
                &mut r.snaps,
                &mut uc,
                SnapshotKind::Function,
                "ctr",
                Some(base),
            )
            .unwrap();
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);

        // Two independent warm deploys each see counter = 1 on first call:
        // snapshot isolation across UCs.
        for _ in 0..2 {
            let (mut w, _) = r
                .images
                .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, fn_img)
                .unwrap();
            let (o, _) = w.invoke(&mut r.mmu, &mut r.mem, &[]).unwrap();
            assert_eq!(o, InvocationOutcome::Completed { result: "1".into() });
            r.images.destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, w);
        }
    }

    #[test]
    fn idle_deploys_are_cheap_in_frames() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        let before = r.mem.stats().used_frames;
        let (uc, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        let per_uc = r.mem.stats().used_frames - before;
        let p = UcProfile::tiny();
        // kmeta + resume touches + a handful of table pages.
        assert!(per_uc >= p.kmeta_pages + p.resume_touch_pages);
        assert!(per_uc < p.kmeta_pages + p.resume_touch_pages + 10);
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);
        assert_eq!(r.mem.stats().used_frames, before);
    }

    #[test]
    fn image_deletion_respects_policy() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        let (uc, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        assert!(matches!(
            r.images.delete(&mut r.mmu, &mut r.mem, &mut r.snaps, base),
            Err(SnapshotError::ActiveUcs(1))
        ));
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);
        r.images
            .delete(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        assert!(r.images.is_empty());
    }
}
