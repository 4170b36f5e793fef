//! Table 1: SEUSS microbenchmarks.
//!
//! Top half — memory footprint of snapshots before and after AO: the
//! Node.js invocation-driver (base runtime) snapshot and the JavaScript
//! NOP function snapshot. Bottom half — invocation latency and memory
//! footprint of NOP invocations over the cold, warm, and hot paths,
//! averaged across 475 invocations (the paper's count).

use seuss_core::{AoLevel, Invocation, Phase, SeussConfig, SeussNode};
use seuss_mem::PAGE_SIZE;

/// One invocation path's measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathRow {
    /// Mean latency, ms.
    pub latency_ms: f64,
    /// Mean memory footprint (pages copied × 4 KiB), MiB.
    pub footprint_mib: f64,
    /// Mean pages copied per invocation.
    pub pages_copied: f64,
    /// Mean per-phase latency, ms, indexed by [`Phase::index`]. The
    /// phases sum to `latency_ms`; absent phases (e.g. deploy on the hot
    /// path) stay zero.
    pub phase_ms: [f64; Phase::COUNT],
}

/// All Table 1 measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct Table1Results {
    /// Base runtime snapshot resident size before AO, MiB.
    pub base_snapshot_mib: f64,
    /// Base runtime snapshot resident size after AO, MiB.
    pub base_snapshot_ao_mib: f64,
    /// NOP function snapshot diff size before AO, MiB.
    pub fn_snapshot_mib: f64,
    /// NOP function snapshot diff size after AO, MiB.
    pub fn_snapshot_ao_mib: f64,
    /// Cold path (after AO).
    pub cold: PathRow,
    /// Warm path (after AO).
    pub warm: PathRow,
    /// Hot path (after AO).
    pub hot: PathRow,
}

const NOP: &str = "function main(args) { return 0; }";

fn node_with(ao: AoLevel, mem_mib: u64) -> SeussNode {
    let cfg = SeussConfig::builder()
        .mem_mib(mem_mib)
        .ao_level(ao)
        .build()
        .expect("valid table1 config");
    SeussNode::new(cfg).expect("node init").0
}

fn fn_snapshot_mib(node: &mut SeussNode) -> f64 {
    node.invoke(1, NOP, &[]).expect("cold invoke");
    let img = node.fn_cache.lookup(1).expect("fn snapshot cached");
    let snap = node.images.snapshot_of(img).expect("snapshot");
    node.snaps.get(snap).expect("live").diff_mib()
}

fn base_snapshot_mib(node: &SeussNode) -> f64 {
    let img = node.runtime_image().expect("runtime image");
    let snap = node.images.snapshot_of(img).expect("snapshot");
    node.snaps
        .resident_mib(&node.mmu, snap)
        .expect("resident size")
}

fn drain_idle(node: &mut SeussNode, f: u64) {
    while let Some(uc) = node.idle.take(f) {
        node.images
            .destroy_uc(&mut node.mmu, &mut node.mem, &mut node.snaps, uc);
    }
}

/// Runs the Table 1 experiment.
///
/// `iterations` is the per-path invocation count (paper: 475; tests use
/// fewer). Memory is scaled to hold the working set comfortably. The
/// pre-AO and post-AO halves use separate nodes and run on `workers`
/// threads; results are identical at every worker count.
pub fn run_table1(iterations: u32, workers: usize) -> Table1Results {
    let halves = crate::ordered_parallel(vec![false, true], workers, |_, with_ao| {
        if with_ao {
            measure_ao_half(iterations)
        } else {
            measure_pre_ao_half()
        }
    });
    let mut r = halves[1];
    r.base_snapshot_mib = halves[0].base_snapshot_mib;
    r.fn_snapshot_mib = halves[0].fn_snapshot_mib;
    r
}

/// Snapshot sizes before AO (its own node; independent of the AO half).
fn measure_pre_ao_half() -> Table1Results {
    let mut node = node_with(AoLevel::None, 6 * 1024);
    let base = base_snapshot_mib(&node);
    Table1Results {
        base_snapshot_mib: base,
        fn_snapshot_mib: fn_snapshot_mib(&mut node),
        ..Table1Results::default()
    }
}

/// Snapshot sizes and the three invocation paths after AO.
fn measure_ao_half(iterations: u32) -> Table1Results {
    let mut r = Table1Results::default();
    let mut node = node_with(AoLevel::NetworkAndInterpreter, 8 * 1024);
    r.base_snapshot_ao_mib = base_snapshot_mib(&node);
    r.fn_snapshot_ao_mib = fn_snapshot_mib(&mut node);
    drain_idle(&mut node, 1);

    let measure = |node: &mut SeussNode, want_hot: bool, drain: bool| -> PathRow {
        let mut row = PathRow::default();
        let mut n = 0f64;
        for i in 0..iterations {
            // Use a distinct function per cold iteration so every cold is
            // genuinely cold; warm/hot reuse function 1.
            let f = if drain && !want_hot {
                10_000 + i as u64
            } else {
                1
            };
            match node.invoke(f, NOP, &[]).expect("invoke") {
                Invocation::Completed {
                    costs,
                    private_pages,
                    ..
                } => {
                    row.latency_ms += costs.total().as_millis_f64();
                    for (phase, d) in costs.phases() {
                        row.phase_ms[phase.index()] += d.as_millis_f64();
                    }
                    row.pages_copied += private_pages as f64;
                    row.footprint_mib +=
                        (private_pages * PAGE_SIZE as u64) as f64 / (1024.0 * 1024.0);
                    n += 1.0;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
            if !want_hot {
                drain_idle(node, f);
            }
        }
        row.latency_ms /= n;
        row.pages_copied /= n;
        row.footprint_mib /= n;
        for p in row.phase_ms.iter_mut() {
            *p /= n;
        }
        row
    };

    // Cold: fresh function ids, idle cache drained each time.
    r.cold = measure(&mut node, false, true);
    // Warm: function 1 has a snapshot; idle cache drained each time.
    r.warm = measure(&mut node, false, false);
    // Hot: idle UC reused.
    node.invoke(1, NOP, &[]).expect("prime hot");
    r.hot = measure(&mut node, true, false);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds() {
        let r = run_table1(20, 2);
        // Snapshot sizes: AO halves the function snapshot and grows the
        // base snapshot (paper: 4.8→2.0 MiB and 109.6→114.5 MiB).
        assert!(r.fn_snapshot_mib > 1.9 * r.fn_snapshot_ao_mib);
        assert!(r.base_snapshot_ao_mib > r.base_snapshot_mib);
        assert!((100.0..120.0).contains(&r.base_snapshot_mib));
        assert!((1.5..2.5).contains(&r.fn_snapshot_ao_mib));
        // Latency ordering and magnitudes (paper: 7.5 / 3.5 / 0.8 ms).
        assert!(
            (6.5..8.5).contains(&r.cold.latency_ms),
            "{}",
            r.cold.latency_ms
        );
        assert!(
            (3.0..4.0).contains(&r.warm.latency_ms),
            "{}",
            r.warm.latency_ms
        );
        assert!(
            (0.6..1.0).contains(&r.hot.latency_ms),
            "{}",
            r.hot.latency_ms
        );
        // Footprints: warm touches the resume set; hot only run state.
        assert!(r.warm.pages_copied > r.hot.pages_copied);
        // Per-phase breakdown sums back to the mean latency.
        for row in [r.cold, r.warm, r.hot] {
            let sum: f64 = row.phase_ms.iter().sum();
            assert!((sum - row.latency_ms).abs() < 1e-9, "{sum} vs {row:?}");
        }
        // Only cold pays import + capture.
        assert!(r.cold.phase_ms[Phase::Import.index()] > 0.0);
        assert!(r.warm.phase_ms[Phase::Import.index()] == 0.0);
        assert!(r.hot.phase_ms[Phase::Deploy.index()] == 0.0);
    }
}
