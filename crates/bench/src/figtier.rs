//! Tier figure: cache density vs. restore latency with the snapshot
//! storage tier (`seuss-store`).
//!
//! Five sides run the *same* populate-then-redeploy workload on the same
//! small-DRAM node:
//!
//! - `dram` — no tier: under pressure the OOM daemon deletes function
//!   snapshots outright, so re-invocations of evicted functions fall all
//!   the way back to the cold path.
//! - `evict` — a tier exists but reclaim stays [`ReclaimMode::Evict`]:
//!   the pre-tier behavior with the device idle, a control side.
//! - `lazy` / `eager` / `ws` — [`ReclaimMode::DemoteColdest`] with the
//!   matching [`RestorePolicy`]: pressure demotes cold snapshots to the
//!   device instead of deleting them, and re-deploys restore them over
//!   the warm-from-tier path.
//!
//! The figure's claims, all from measured virtual-time accounting: the
//! demoting sides keep *every* function warm-servable where the DRAM cap
//! loses some (density), and working-set prefetch restores strictly
//! cheaper than lazy paging on every re-deploy after its recording pass
//! (latency — one batched device read instead of a latency payment per
//! page).

use seuss::store::{DeviceConfig, ReclaimMode, RestorePolicy, StoreConfig};
use seuss_core::{FnId, Invocation, SeussConfig, SeussNode};
use seuss_trace::PathKind;

/// Workload shape of one tier-figure run.
#[derive(Clone, Copy, Debug)]
pub struct TierParams {
    /// Distinct functions to populate.
    pub fns: u64,
    /// Re-deploy sweeps over every function after populating.
    pub rounds: u64,
    /// Node DRAM in MiB — small enough that populating `fns` functions
    /// crosses the OOM daemon's reclaim threshold.
    pub mem_mib: u64,
    /// Device capacity in blocks.
    pub device_blocks: u64,
}

impl TierParams {
    /// The configuration the committed figure (and the CI smoke run)
    /// uses: enough functions to overrun the DRAM cap several times.
    pub fn small() -> Self {
        TierParams {
            fns: 96,
            rounds: 3,
            mem_mib: 48,
            device_blocks: 1 << 16,
        }
    }
}

/// One measured re-deploy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierRow {
    /// Sweep number (1-based; populate is round 0 and unrecorded).
    pub round: u64,
    /// Function invoked.
    pub f: FnId,
    /// Path the node served it on.
    pub path: PathKind,
    /// Whether this deploy batch-prefetched a previously recorded
    /// working set (only ever true on the `ws` side).
    pub prefetched: bool,
    /// Storage-tier restore time of the segment, virtual nanoseconds.
    pub restore_nanos: u64,
    /// Total segment CPU time, virtual nanoseconds.
    pub total_nanos: u64,
}

/// One side's full measurement.
#[derive(Clone, Debug)]
pub struct TierSide {
    /// Stable lowercase label (`dram`, `evict`, `lazy`, `eager`, `ws`).
    pub label: &'static str,
    /// Functions still warm-servable on the first re-deploy sweep (the
    /// density number: `fns` minus the functions pressure cost us).
    pub density: u64,
    /// Cold re-deploys across all sweeps (cache losses).
    pub cold_redeploys: u64,
    /// Warm-from-tier deploys across all sweeps.
    pub warm_tier: u64,
    /// Snapshots demoted to the device over the whole run.
    pub demotions: u64,
    /// Working-set prefetch restores issued.
    pub prefetches: u64,
    /// Every measured re-deploy, in (round, f) order.
    pub rows: Vec<TierRow>,
}

/// The whole experiment: all five sides under one [`TierParams`].
#[derive(Clone, Debug)]
pub struct TierOutcome {
    /// Workload shape.
    pub params: TierParams,
    /// `dram`, `evict`, `lazy`, `eager`, `ws` — in that order.
    pub sides: Vec<TierSide>,
}

impl TierOutcome {
    /// The named side (labels are fixed, so this never misses).
    pub fn side(&self, label: &str) -> &TierSide {
        self.sides
            .iter()
            .find(|s| s.label == label)
            .expect("known side label")
    }
}

/// Per-function source: a distinct body with a page-sized data literal,
/// so every function snapshot carries a multi-page diff for the tier to
/// move (and the restore path has real pages to fetch).
fn fn_source(f: FnId) -> String {
    let cells: Vec<String> = (0..192u64).map(|i| (f * 1000 + i).to_string()).collect();
    let mut src = format!("// fn {f}\nlet table = [{}];\n", cells.join(","));
    src.push_str("function main(args) { let acc = ");
    src.push_str(&f.to_string());
    src.push_str("; for (let i = 0; i < 8; i = i + 1) { acc = acc + table[i]; } return acc; }");
    src
}

fn store_for(label: &str, device_blocks: u64) -> Option<StoreConfig> {
    let device = DeviceConfig {
        capacity_blocks: device_blocks,
        ..DeviceConfig::nvme()
    };
    let (policy, reclaim) = match label {
        "dram" => return None,
        "evict" => (RestorePolicy::WorkingSetPrefetch, ReclaimMode::Evict),
        "lazy" => (RestorePolicy::LazyPaging, ReclaimMode::DemoteColdest),
        "eager" => (RestorePolicy::EagerFull, ReclaimMode::DemoteColdest),
        "ws" => (
            RestorePolicy::WorkingSetPrefetch,
            ReclaimMode::DemoteColdest,
        ),
        other => panic!("unknown side {other}"),
    };
    Some(StoreConfig {
        device,
        policy,
        reclaim,
    })
}

fn run_side(label: &'static str, p: TierParams) -> TierSide {
    let cfg = SeussConfig::test_builder()
        .mem_mib(p.mem_mib)
        .store(store_for(label, p.device_blocks))
        .build()
        .expect("valid tier-figure config");
    let (mut node, _) = SeussNode::new(cfg).expect("node init");

    let sources: Vec<String> = (0..p.fns).map(fn_source).collect();
    // The measurement wants deploys, not in-place reuse: drain the idle
    // UC after every invocation so each sweep redeploys from the cache.
    let drain = |node: &mut SeussNode, f: FnId| {
        while let Some(uc) = node.idle.take(f) {
            node.destroy_uc(uc);
        }
    };

    for f in 0..p.fns {
        match node.invoke(f, &sources[f as usize], &[]) {
            Ok(Invocation::Completed { .. }) => {}
            Ok(Invocation::Blocked { .. }) => panic!("workload never blocks"),
            Err(e) => panic!("populate({f}) failed: {e}"),
        }
        drain(&mut node, f);
    }

    let mut rows = Vec::new();
    for round in 1..=p.rounds {
        for f in 0..p.fns {
            // A prefetch is coming iff the snapshot is demoted with a
            // recorded working set (only the `ws` policy records one).
            let prefetched = node
                .fn_cache
                .peek(f)
                .and_then(|img| node.images.snapshot_of(img).ok())
                .zip(node.tier.as_ref())
                .is_some_and(|(sid, t)| t.is_demoted(sid) && t.working_set(sid).is_some());
            match node.invoke(f, &sources[f as usize], &[]) {
                Ok(Invocation::Completed { path, costs, .. }) => rows.push(TierRow {
                    round,
                    f,
                    path,
                    prefetched: prefetched && path == PathKind::WarmTier,
                    restore_nanos: costs.restore.as_nanos(),
                    total_nanos: costs.total().as_nanos(),
                }),
                Ok(Invocation::Blocked { .. }) => panic!("workload never blocks"),
                Err(e) => panic!("redeploy({f}, round {round}) failed: {e}"),
            }
            drain(&mut node, f);
        }
    }

    let density = rows
        .iter()
        .filter(|r| r.round == 1 && r.path != PathKind::Cold)
        .count() as u64;
    let cold_redeploys = rows.iter().filter(|r| r.path == PathKind::Cold).count() as u64;
    let (demotions, prefetches) = node
        .tier
        .as_ref()
        .map(|t| (t.stats().demotions, t.stats().prefetches))
        .unwrap_or((0, 0));
    TierSide {
        label,
        density,
        cold_redeploys,
        warm_tier: node.stats.warm_tier,
        demotions,
        prefetches,
        rows,
    }
}

/// Runs the tier figure: five independent sides on `workers` threads.
/// Results are byte-identical at every worker count.
pub fn run_figtier(p: TierParams, workers: usize) -> TierOutcome {
    let labels: Vec<&'static str> = vec!["dram", "evict", "lazy", "eager", "ws"];
    let sides = crate::ordered_parallel(labels, workers, |_, label| run_side(label, p));
    TierOutcome { params: p, sides }
}

/// Renders every measured re-deploy as CSV — the figure's canonical
/// artifact, and the byte string the CI smoke diffs across worker
/// counts.
pub fn tier_csv(out: &TierOutcome) -> String {
    let mut csv = String::from("side,round,fn,path,prefetched,restore_ns,total_ns\n");
    for s in &out.sides {
        for r in &s.rows {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                s.label,
                r.round,
                r.f,
                r.path.as_str(),
                r.prefetched as u8,
                r.restore_nanos,
                r.total_nanos
            ));
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_latency_and_worker_identity_hold() {
        let p = TierParams::small();
        let out = run_figtier(p, 4);
        let dram = out.side("dram");
        let evict = out.side("evict");
        let lazy = out.side("lazy");
        let ws = out.side("ws");

        // Pressure must actually bite, or the figure measures nothing.
        assert!(dram.density < p.fns, "DRAM cap never overran");
        assert!(ws.demotions > 0, "no demotions under pressure");

        // Density: demotion keeps every function warm-servable.
        for tiered in [lazy, out.side("eager"), ws] {
            assert_eq!(
                tiered.density, p.fns,
                "{}: demoting side lost functions",
                tiered.label
            );
            assert!(tiered.warm_tier > 0, "{}: tier never used", tiered.label);
        }
        assert_eq!(
            evict.density, dram.density,
            "evict-only control must match the DRAM cap"
        );

        // Latency: every prefetch re-deploy beats the lazy side's
        // restore of the same (function, round).
        let mut prefetch_rows = 0;
        for wr in ws.rows.iter().filter(|r| r.prefetched) {
            let lr = lazy
                .rows
                .iter()
                .find(|r| r.round == wr.round && r.f == wr.f)
                .expect("same workload shape");
            if lr.path == PathKind::WarmTier {
                assert!(
                    wr.restore_nanos < lr.restore_nanos,
                    "fn {} round {}: ws restore {} ≥ lazy {}",
                    wr.f,
                    wr.round,
                    wr.restore_nanos,
                    lr.restore_nanos
                );
                prefetch_rows += 1;
            }
        }
        assert!(prefetch_rows > 0, "no prefetch/lazy pairs compared");
        assert_eq!(
            ws.prefetches,
            ws.rows.iter().filter(|r| r.prefetched).count() as u64
        );

        // Worker-count identity of the artifact.
        let base = tier_csv(&out);
        assert_eq!(base, tier_csv(&run_figtier(p, 1)), "workers=1 diverged");
        assert_eq!(base, tier_csv(&run_figtier(p, 2)), "workers=2 diverged");
    }
}
