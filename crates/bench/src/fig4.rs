//! Figure 4: OpenWhisk platform throughput vs unique-function set size.
//!
//! Each trial doubles the number of unique NOP functions (64 … 65536) and
//! drives the platform with 32 closed-loop workers until throughput
//! stabilizes. The paper's shape: both backends comparable (Linux ≈21%
//! ahead) while everything fits the container cache; Linux collapses
//! after saturation; SEUSS sustains throughput and ends up ~52× ahead on
//! the mostly-unique workload.

use seuss_core::SeussConfig;
use seuss_platform::{run_trial, BackendKind, ClusterConfig, TrialParams};

/// One set-size point for one backend.
#[derive(Clone, Copy, Debug)]
pub struct Fig4Point {
    /// Unique-function set size (M).
    pub set_size: u64,
    /// SEUSS steady-state throughput, requests/s.
    pub seuss_rps: f64,
    /// Linux steady-state throughput, requests/s.
    pub linux_rps: f64,
    /// Errors on the Linux backend.
    pub linux_errors: u64,
    /// Errors on the SEUSS backend.
    pub seuss_errors: u64,
}

/// The paper's cluster on a full-AO SEUSS node of `mem_mib` MiB — the
/// SEUSS side of every platform figure.
pub(crate) fn seuss_cluster(mem_mib: u64) -> ClusterConfig {
    let node = SeussConfig::builder()
        .mem_mib(mem_mib)
        .build()
        .expect("valid SEUSS node config");
    ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        ..ClusterConfig::seuss_paper()
    }
}

/// Runs the Figure 4 sweep over the given set sizes.
///
/// `invocations_per_trial` overrides N when `Some` (tests use small N);
/// `mem_mib` sizes the SEUSS node (the paper's 88 GB for the full run).
/// The sweep's (set size × backend) cells are independent trials, so
/// they run on `workers` threads via [`crate::ordered_parallel`];
/// results are identical at every worker count.
pub fn run_fig4(
    set_sizes: &[u64],
    invocations_per_trial: Option<u64>,
    mem_mib: u64,
    workers: usize,
) -> Vec<Fig4Point> {
    // One cell per (set size, backend); results come back in input order.
    let cells: Vec<(u64, bool)> = set_sizes
        .iter()
        .flat_map(|&m| [(m, true), (m, false)])
        .collect();
    let measured = crate::ordered_parallel(cells, workers, |_, (m, is_seuss)| {
        let mut params = TrialParams::throughput(m, 42);
        if let Some(n) = invocations_per_trial {
            params.invocations = n.max(m);
        }
        let (reg, spec) = params.build();
        let cfg = if is_seuss {
            seuss_cluster(mem_mib)
        } else {
            ClusterConfig::linux_paper()
        };
        let out = run_trial(cfg, reg, &spec);
        (out.analysis.steady_throughput_rps, out.analysis.errors)
    });
    set_sizes
        .iter()
        .zip(measured.chunks_exact(2))
        .map(|(&m, pair)| Fig4Point {
            set_size: m,
            seuss_rps: pair[0].0,
            seuss_errors: pair[0].1,
            linux_rps: pair[1].0,
            linux_errors: pair[1].1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_crossover_shape() {
        // Small-memory, small-N rendition of the sweep: the crossover and
        // collapse must still appear.
        let pts = run_fig4(&[64, 2048], Some(4096), 3 * 1024, 2);
        let small = &pts[0];
        let big = &pts[1];
        // Small working set: Linux ahead (the shim hop), within ~10–40%.
        assert!(
            small.linux_rps > small.seuss_rps,
            "linux {} vs seuss {}",
            small.linux_rps,
            small.seuss_rps
        );
        assert!(small.linux_rps < small.seuss_rps * 1.6);
        // Past container-cache saturation: Linux collapses, SEUSS holds.
        assert!(
            big.seuss_rps > 10.0 * big.linux_rps,
            "seuss {} vs linux {}",
            big.seuss_rps,
            big.linux_rps
        );
        assert!(big.seuss_rps > 0.5 * small.seuss_rps, "SEUSS holds up");
    }
}
