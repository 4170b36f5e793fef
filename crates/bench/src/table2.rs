//! Table 2: latency improvements across anticipatory-optimization levels.
//!
//! Cold and warm NOP starts under No AO / Network AO / Network +
//! Interpreter AO (paper: 42 → 16.8 → 7.5 ms cold; 7.6 → 5.5 → 3.5 ms
//! warm).

use seuss_core::{AoLevel, Invocation, SeussConfig, SeussNode};

/// One AO level's cold/warm latencies, ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct AoRow {
    /// Mean cold-start latency, ms.
    pub cold_ms: f64,
    /// Mean warm-start latency, ms.
    pub warm_ms: f64,
}

/// The 2×3 grid of Table 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct Table2Results {
    /// No anticipatory optimization.
    pub none: AoRow,
    /// Network AO only.
    pub network: AoRow,
    /// Network + interpreter AO.
    pub full: AoRow,
}

const NOP: &str = "function main(args) { return 0; }";

fn measure(ao: AoLevel, iterations: u32) -> AoRow {
    let cfg = SeussConfig::builder()
        .mem_mib(8 * 1024)
        .ao_level(ao)
        .build()
        .expect("valid table2 config");
    let (mut node, _) = SeussNode::new(cfg).expect("node init");
    let mut row = AoRow::default();

    // Cold: a fresh function id per iteration (every invocation deploys
    // from the runtime snapshot and compiles).
    for i in 0..iterations {
        let f = 1_000 + i as u64;
        match node.invoke(f, NOP, &[]).expect("cold") {
            Invocation::Completed { costs, .. } => {
                row.cold_ms += costs.total().as_millis_f64();
            }
            other => panic!("{other:?}"),
        }
        while let Some(uc) = node.idle.take(f) {
            node.images
                .destroy_uc(&mut node.mmu, &mut node.mem, &mut node.snaps, uc);
        }
    }
    row.cold_ms /= iterations as f64;

    // Warm: repeatedly deploy from one function's snapshot, draining the
    // idle cache so the hot path never fires.
    node.invoke(1, NOP, &[]).expect("prime");
    while let Some(uc) = node.idle.take(1) {
        node.images
            .destroy_uc(&mut node.mmu, &mut node.mem, &mut node.snaps, uc);
    }
    for _ in 0..iterations {
        match node.invoke(1, NOP, &[]).expect("warm") {
            Invocation::Completed { costs, .. } => {
                row.warm_ms += costs.total().as_millis_f64();
            }
            other => panic!("{other:?}"),
        }
        while let Some(uc) = node.idle.take(1) {
            node.images
                .destroy_uc(&mut node.mmu, &mut node.mem, &mut node.snaps, uc);
        }
    }
    row.warm_ms /= iterations as f64;
    row
}

/// Runs the Table 2 ablation with `iterations` invocations per cell.
/// The three AO levels are independent nodes and run on `workers`
/// threads; results are identical at every worker count.
pub fn run_table2(iterations: u32, workers: usize) -> Table2Results {
    let rows = crate::ordered_parallel(
        vec![
            AoLevel::None,
            AoLevel::Network,
            AoLevel::NetworkAndInterpreter,
        ],
        workers,
        |_, ao| measure(ao, iterations),
    );
    Table2Results {
        none: rows[0],
        network: rows[1],
        full: rows[2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let r = run_table2(5, 3);
        // Cold: 42 → 16.8 → 7.5 (each AO level must cut the cold path).
        assert!((38.0..46.0).contains(&r.none.cold_ms), "{}", r.none.cold_ms);
        assert!(
            (14.0..20.0).contains(&r.network.cold_ms),
            "{}",
            r.network.cold_ms
        );
        assert!((6.5..8.5).contains(&r.full.cold_ms), "{}", r.full.cold_ms);
        // Warm: 7.6 → 5.5 → 3.5.
        assert!((6.8..8.6).contains(&r.none.warm_ms), "{}", r.none.warm_ms);
        assert!(
            (4.8..6.2).contains(&r.network.warm_ms),
            "{}",
            r.network.warm_ms
        );
        assert!((3.0..4.0).contains(&r.full.warm_ms), "{}", r.full.warm_ms);
    }
}
