//! Burst resiliency (the Figure 6–8 scenario, scaled down): a steady
//! background of IO-bound functions plus sudden bursts of a CPU-bound
//! function the platform has never seen, on both backends.
//!
//! ```sh
//! cargo run --release --example burst_resilience [period_seconds]
//! ```

use seuss::core::SeussConfig;
use seuss::platform::{BackendKind, BurstParams, ClusterConfig, RequestStatus};

fn main() {
    let period: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let mut params = BurstParams::paper(period);
    params.bursts = 6;
    println!(
        "{} bursts of {} CPU-bound requests every {period}s over a {} rps IO-bound background\n",
        params.bursts, params.burst_size, params.background_rps
    );

    for backend in ["Linux", "SEUSS"] {
        let (registry, spec) = params.build();
        let cfg = if backend == "Linux" {
            ClusterConfig {
                backend: BackendKind::Linux {
                    cache_limit: 1024,
                    stemcell_target: 256,
                },
                ..ClusterConfig::seuss_paper()
            }
        } else {
            let node = SeussConfig::builder()
                .mem_mib(6 * 1024)
                .build()
                .expect("valid node config");
            ClusterConfig {
                backend: BackendKind::Seuss(Box::new(node)),
                ..ClusterConfig::seuss_paper()
            }
        };
        let out = seuss::platform::run_trial(cfg, registry, &spec);
        let errors = out
            .records
            .iter()
            .filter(|r| r.status == RequestStatus::Error)
            .count();
        let burst_worst = out
            .records
            .iter()
            .filter(|r| r.burst && r.status == RequestStatus::Ok)
            .map(|r| r.latency_ms)
            .fold(0.0f64, f64::max);
        println!(
            "{backend:<6} node: {} requests, {errors} errors, worst successful burst latency {:.0} ms",
            out.records.len(),
            burst_worst
        );
        // A one-line-per-burst view of how each burst fared.
        for b in 0..params.bursts {
            let fn_id = 1_000 + b as u64;
            let (ok, err): (
                Vec<&seuss::platform::RequestRecord>,
                Vec<&seuss::platform::RequestRecord>,
            ) = out
                .records
                .iter()
                .filter(|r| r.fn_id == fn_id)
                .partition(|r| r.status == RequestStatus::Ok);
            let p99 = {
                let mut v: Vec<f64> = ok.iter().map(|r| r.latency_ms).collect();
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                v.get(v.len().saturating_sub(2))
                    .copied()
                    .unwrap_or(f64::NAN)
            };
            println!(
                "   burst {:>2}: {:>3} ok, {:>3} errors, p99 {:>9.0} ms",
                b + 1,
                ok.len(),
                err.len(),
                p99
            );
        }
        println!();
    }
    println!("shape: SEUSS absorbs every burst (each one adds a single new snapshot);\nLinux degrades once its container cache saturates.");
}
