//! Figure 5: end-to-end request latency percentiles of a NOP function at
//! three function set sizes (1st/25th/50th/75th/99th percentiles + mean).
//!
//! Paper shape: at 64 functions both backends sit in the tens of
//! milliseconds (Linux slightly lower — no shim hop); at 2048 the Linux
//! distribution explodes into seconds (every miss is a container create
//! + evict) while SEUSS moves by single-digit milliseconds.

use seuss_platform::{run_trial, TrialParams};
use simcore::PercentileSummary;

/// One (backend, set size) row of Figure 5.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Row {
    /// Unique-function set size.
    pub set_size: u64,
    /// SEUSS latency percentiles, ms.
    pub seuss: PercentileSummary,
    /// Linux latency percentiles, ms.
    pub linux: PercentileSummary,
}

/// Runs Figure 5 at the given set sizes. The (set size × backend) cells
/// run on `workers` threads; results are identical at every worker
/// count.
pub fn run_fig5(
    set_sizes: &[u64],
    invocations_per_trial: Option<u64>,
    mem_mib: u64,
    workers: usize,
) -> Vec<Fig5Row> {
    use seuss_platform::ClusterConfig;

    let cells: Vec<(u64, bool)> = set_sizes
        .iter()
        .flat_map(|&m| [(m, true), (m, false)])
        .collect();
    let measured = crate::ordered_parallel(cells, workers, |_, (m, is_seuss)| {
        let mut params = TrialParams::throughput(m, 42);
        if let Some(n) = invocations_per_trial {
            params.invocations = n.max(m);
        }
        let cfg = if is_seuss {
            crate::fig4::seuss_cluster(mem_mib)
        } else {
            ClusterConfig::linux_paper()
        };
        let (reg, spec) = params.build();
        run_trial(cfg, reg, &spec).analysis.latency
    });
    set_sizes
        .iter()
        .zip(measured.chunks_exact(2))
        .map(|(&m, pair)| Fig5Row {
            set_size: m,
            seuss: pair[0],
            linux: pair[1],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_distribution_shape() {
        let rows = run_fig5(&[64, 2048], Some(4096), 3 * 1024, 2);
        let small = &rows[0];
        let big = &rows[1];
        // Small set: medians within tens of ms; Linux lower.
        assert!(small.linux.p50 < small.seuss.p50);
        assert!(small.seuss.p50 < 80.0, "{}", small.seuss.p50);
        // Saturated: Linux p50 in the seconds; SEUSS stays ≈50 ms.
        assert!(big.linux.p50 > 1_000.0, "{}", big.linux.p50);
        assert!(big.seuss.p50 < 100.0, "{}", big.seuss.p50);
        // SEUSS p99 grows only mildly with set size.
        assert!(big.seuss.p99 < small.seuss.p99 * 4.0 + 40.0);
    }
}
