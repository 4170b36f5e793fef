//! Layer probes: the layers the traced run cannot split out of
//! `SeussNode::invoke`, timed by calling their public entry points
//! directly on inputs drawn from the workload — its own function sources
//! and its own node configuration (with a storage tier added, so the
//! tier entry points can be timed on every workload). Diagnostic only.

use std::hint::black_box;
use std::time::Instant;

use miniscript::{HostHeap, Interpreter};
use seuss_core::{FnId, Invocation, SeussNode};
use seuss_mem::{VirtAddr, PAGE_SHIFT};
use seuss_snapshot::SnapshotKind;

use crate::metrics::{median, Metric};
use crate::workloads::Workload;

/// Distinct functions probed, taken in request order.
const FNS: usize = 64;
/// Repetitions of the cheap probes.
const ROUNDS: usize = 5;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Invokes `f` to completion, answering any external call at once.
fn invoke(node: &mut SeussNode, f: FnId, src: &str) {
    let mut inv = node.invoke(f, src, &[]).expect("probe invocation");
    while let Invocation::Blocked { token, .. } = inv {
        inv = node
            .resume_invocation(token, "ok")
            .expect("probe resumption");
    }
}

/// Destroys the idle UCs cached for `f`.
fn drop_idle(node: &mut SeussNode, f: FnId) {
    while let Some(uc) = node.idle.take(f) {
        node.destroy_uc(uc);
    }
}

/// Runs every probe; returns the probe metrics.
pub fn run(w: &Workload, seed: u64) -> Vec<Metric> {
    let (registry, spec) = w.build(seed);
    let mut fns: Vec<FnId> = Vec::new();
    for &f in &spec.order {
        if fns.len() == FNS {
            break;
        }
        if !fns.contains(&f) {
            fns.push(f);
        }
    }
    let src = |f: FnId| registry.get(f).expect("registered").src.clone();
    let cfg = w.probe_config();

    // Interpreter: compile, then run the top level and `main` in a fresh
    // interpreter (IO functions stop at their external call).
    let mut compile_us = Vec::new();
    let mut run_us = Vec::new();
    for _ in 0..ROUNDS {
        for &f in &fns {
            let s = src(f);
            let t = Instant::now();
            black_box(miniscript::compile(black_box(&s)).expect("workload source compiles"));
            compile_us.push(us_since(t));

            let mut heap = HostHeap::with_capacity(8 << 20);
            let mut interp = Interpreter::new(cfg.runtime_profile);
            let prog = interp.load_source(&mut heap, &s).expect("load");
            let t = Instant::now();
            interp
                .run_main(&mut heap, prog, u64::MAX)
                .expect("top level");
            black_box(interp.call_global(&mut heap, "main", &[], u64::MAX).ok());
            run_us.push(us_since(t));
        }
    }

    let (mut node, _) = SeussNode::new(cfg).expect("probe node boots");
    for &f in &fns {
        invoke(&mut node, f, &src(f));
    }

    // Paging: translate every page the base runtime snapshot maps.
    let base = node.runtime_image().expect("runtime image");
    let root = node
        .snaps
        .get(node.images.snapshot_of(base).expect("base snapshot"))
        .expect("base snapshot")
        .root();
    let vas: Vec<VirtAddr> = node
        .mmu
        .collect_mapped(root)
        .into_iter()
        .map(|(vpn, _)| VirtAddr::new(vpn << PAGE_SHIFT))
        .collect();
    let mut translate_ns = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for &va in &vas {
            black_box(node.mmu.translate(root, black_box(va)));
        }
        translate_ns.push(t.elapsed().as_nanos() as f64 / vas.len().max(1) as f64);
    }

    // Snapshots: capture each function's idle UC as a child of its
    // function image (then delete it), and deploy from the image.
    let mut capture_us = Vec::new();
    for &f in &fns {
        let Some(mut uc) = node.idle.take(f) else {
            continue;
        };
        let parent = node.fn_cache.peek(f);
        let t = Instant::now();
        let (img, _) = node
            .images
            .capture(
                &mut node.mmu,
                &mut node.mem,
                &mut node.snaps,
                &mut uc,
                SnapshotKind::Function,
                "probe",
                parent,
            )
            .expect("probe capture");
        capture_us.push(us_since(t));
        node.destroy_uc(uc);
        drop_idle(&mut node, f);
        node.images
            .delete(&mut node.mmu, &mut node.mem, &mut node.snaps, img)
            .expect("probe image delete");
    }
    let mut deploy_us = Vec::new();
    for _ in 0..ROUNDS {
        for &f in &fns {
            let img = node.fn_cache.peek(f).expect("cached function image");
            let t = Instant::now();
            let (uc, _) = node
                .images
                .deploy(&mut node.mmu, &mut node.mem, &mut node.snaps, img)
                .expect("probe deploy");
            deploy_us.push(us_since(t));
            node.destroy_uc(uc);
        }
    }

    // Storage tier: demote each function snapshot, record its working
    // set through one warm-from-tier invocation, then prefetch it into a
    // fresh UC's root.
    let mut demote_us = Vec::new();
    let mut demoted = Vec::new();
    for &f in &fns {
        let img = node.fn_cache.peek(f).expect("cached function image");
        let sid = node.images.snapshot_of(img).expect("function snapshot");
        let tier = node.tier.as_mut().expect("probe node has a tier");
        let t = Instant::now();
        let out = tier.demote(&mut node.mmu, &mut node.mem, &node.snaps, sid);
        if out.is_ok() {
            demote_us.push(us_since(t));
            demoted.push((f, img, sid));
        }
    }
    let mut prefetch_us = Vec::new();
    for &(f, img, sid) in &demoted {
        invoke(&mut node, f, &src(f));
        drop_idle(&mut node, f);
        let tier = node.tier.as_mut().expect("probe node has a tier");
        if tier.working_set(sid).is_none() {
            continue;
        }
        let mut took = None;
        let (uc, _) = node
            .images
            .deploy_prepared(
                &mut node.mmu,
                &mut node.mem,
                &mut node.snaps,
                img,
                |mmu, mem, root| {
                    let t = Instant::now();
                    let out = tier.prefetch_into(mmu, mem, root, sid);
                    took = out.is_ok().then(|| us_since(t));
                    Ok(())
                },
            )
            .expect("probe tiered deploy");
        node.destroy_uc(uc);
        prefetch_us.extend(took);
    }

    let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    vec![
        Metric::new("interp.compile_us", med(&compile_us), "us"),
        Metric::new("interp.run_us", med(&run_us), "us"),
        Metric::new("paging.translate_ns", med(&translate_ns), "ns"),
        Metric::new("snapshot.capture_us", med(&capture_us), "us"),
        Metric::new("snapshot.deploy_us", med(&deploy_us), "us"),
        Metric::new("store.demote_us", med(&demote_us), "us"),
        Metric::new("store.prefetch_us", med(&prefetch_us), "us"),
    ]
}
