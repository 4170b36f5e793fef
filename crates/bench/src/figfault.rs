//! Fault figure: availability and latency under an injected fault
//! schedule.
//!
//! Three sides run the *same* workload and the *same* seeded
//! [`FaultPlan`] — SEUSS with the resilient retry policy, SEUSS with
//! retries disabled (the ablation), and the Linux baseline — and the
//! per-second availability series shows the paper's resilience story:
//! with retry and backoff the platform absorbs node crashes and
//! packet loss (availability dips during the outage, then returns to
//! 100%), while the no-retry ablation surfaces every faulted request as
//! an error.

use seuss::faults::{FaultPlan, RetryPolicy};
use seuss_platform::{run_trial, BackendKind, ClusterConfig, RequestRecord, RequestStatus};
use seuss_workload::{
    report::{per_second_series, SecondBucket},
    BurstParams,
};

/// One platform variant under the fault schedule.
#[derive(Clone, Debug)]
pub struct FaultSide {
    /// Stable lowercase label used in the CSV (`seuss`,
    /// `seuss_no_retry`, `linux`).
    pub label: &'static str,
    /// Raw request records.
    pub records: Vec<RequestRecord>,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that errored.
    pub errors: u64,
    /// Lowest per-second availability observed, percent.
    pub min_availability_pct: f64,
    /// Whether the final seconds of the run were error-free — i.e. the
    /// platform returned to 100% availability after the faults cleared.
    pub recovered: bool,
}

/// The full fault experiment: all three sides plus the schedule size.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// Number of injected fault events.
    pub plan_len: usize,
    /// SEUSS with [`RetryPolicy::resilient`].
    pub resilient: FaultSide,
    /// SEUSS with [`RetryPolicy::none`] — the ablation.
    pub no_retry: FaultSide,
    /// Linux baseline with [`RetryPolicy::resilient`].
    pub linux: FaultSide,
}

/// The default fault schedule for a run of `params`: a node crash just
/// after the second burst (rebooting for two seconds) overlapping a 30%
/// packet-loss window — both sized off the lead-in so shrunken test
/// configurations still place the faults inside the run.
pub fn default_fault_spec(params: &BurstParams) -> String {
    let crash_at = params.lead_in_s + params.period_s + 1;
    let loss_at = params.lead_in_s;
    let loss_span = params.period_s * 2;
    format!("crash@{crash_at}s+2s,loss@{loss_at}s+{loss_span}s:0.3")
}

fn side(label: &'static str, records: Vec<RequestRecord>) -> FaultSide {
    let completed = records
        .iter()
        .filter(|r| r.status == RequestStatus::Ok)
        .count() as u64;
    let errors = records.len() as u64 - completed;
    let series = per_second_series(&records);
    let min_availability_pct = series
        .iter()
        .map(availability_pct)
        .fold(f64::INFINITY, f64::min);
    // Recovered = the trailing three seconds with traffic are clean.
    let recovered = series.iter().rev().take(3).all(|b| b.errors == 0);
    FaultSide {
        label,
        records,
        completed,
        errors,
        min_availability_pct,
        recovered,
    }
}

fn availability_pct(b: &SecondBucket) -> f64 {
    if b.sent == 0 {
        100.0
    } else {
        100.0 * (b.sent - b.errors) as f64 / b.sent as f64
    }
}

/// Runs the fault experiment: the burst workload of `params` on a
/// `mem_mib` SEUSS node (resilient and no-retry) and on the Linux
/// baseline, all under `plan`. The three sides are independent trials
/// run on `workers` threads; results are byte-identical at every worker
/// count.
pub fn run_figfault(
    params: BurstParams,
    mem_mib: u64,
    workers: usize,
    plan: &FaultPlan,
) -> FaultOutcome {
    let variants: Vec<(&'static str, bool, RetryPolicy)> = vec![
        ("seuss", true, RetryPolicy::resilient()),
        ("seuss_no_retry", true, RetryPolicy::none()),
        ("linux", false, RetryPolicy::resilient()),
    ];
    let mut sides = crate::ordered_parallel(variants, workers, |_, (label, is_seuss, retry)| {
        let (reg, spec) = params.build();
        let cfg = if is_seuss {
            ClusterConfig {
                faults: plan.clone(),
                retry,
                ..crate::fig4::seuss_cluster(mem_mib)
            }
        } else {
            ClusterConfig {
                backend: BackendKind::Linux {
                    cache_limit: 1024,
                    stemcell_target: 256,
                },
                faults: plan.clone(),
                retry,
                ..ClusterConfig::seuss_paper()
            }
        };
        side(label, run_trial(cfg, reg, &spec).records)
    });

    let linux = sides.pop().expect("linux side");
    let no_retry = sides.pop().expect("no-retry side");
    let resilient = sides.pop().expect("resilient side");
    FaultOutcome {
        plan_len: plan.len(),
        resilient,
        no_retry,
        linux,
    }
}

/// Renders the per-second availability/latency time series of all three
/// sides as CSV — the figure's canonical artifact, and the byte string
/// the CI smoke diffs across worker counts.
pub fn availability_csv(out: &FaultOutcome) -> String {
    let mut csv = String::from("side,second,sent,errors,availability_pct,p50_ms,p99_ms\n");
    for s in [&out.resilient, &out.no_retry, &out.linux] {
        for b in per_second_series(&s.records) {
            csv.push_str(&format!(
                "{},{},{},{},{:.3},{:.3},{:.3}\n",
                s.label,
                b.second,
                b.sent,
                b.errors,
                availability_pct(&b),
                b.p50_ms,
                b.p99_ms
            ));
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss::faults::spec::compile;

    fn small() -> BurstParams {
        BurstParams {
            period_s: 4,
            bursts: 2,
            burst_size: 8,
            burst_cpu: simcore::SimDuration::from_millis(50),
            background_fns: 4,
            background_workers: 8,
            background_rps: 8.0,
            lead_in_s: 2,
        }
    }

    #[test]
    fn retry_recovers_where_the_ablation_errors() {
        let p = small();
        let plan = compile(&default_fault_spec(&p), 42).expect("valid default spec");
        let out = run_figfault(p, 1024, 2, &plan);

        // Resilient SEUSS absorbs the crash; the 30% loss window can
        // still exhaust a 4-attempt budget for the odd request, so the
        // contract is recovery plus a small fraction of the ablation's
        // error count — not strictly zero.
        assert!(out.resilient.recovered, "availability must return to 100%");
        assert!(out.resilient.completed > 0);
        assert!(
            out.no_retry.errors > 0,
            "no-retry ablation must report errors"
        );
        assert!(
            out.resilient.errors * 5 < out.no_retry.errors,
            "retry must absorb most faults: resilient {} vs ablation {}",
            out.resilient.errors,
            out.no_retry.errors
        );
        assert!(
            out.resilient.min_availability_pct > out.no_retry.min_availability_pct,
            "retry must keep availability higher through the fault window"
        );
        // Same workload on both SEUSS sides.
        assert_eq!(
            out.resilient.completed + out.resilient.errors,
            out.no_retry.completed + out.no_retry.errors
        );
    }

    #[test]
    fn artifacts_are_byte_identical_at_every_worker_count() {
        let p = small();
        let plan = compile("crash@5s+1s,loss@2s+3s:0.4", 7).expect("valid spec");
        let base = availability_csv(&run_figfault(p, 1024, 1, &plan));
        for workers in [2, 4] {
            let got = availability_csv(&run_figfault(p, 1024, workers, &plan));
            assert_eq!(base, got, "CSV diverged at workers={workers}");
        }
        assert!(base.contains("seuss_no_retry"));
    }

    #[test]
    fn empty_plan_matches_the_plain_burst_run() {
        let p = small();
        let out = run_figfault(p, 1024, 2, &FaultPlan::none());
        assert_eq!(out.plan_len, 0);
        assert_eq!(out.resilient.errors, 0);
        assert!(out.resilient.recovered);
        // Without faults the retry policy is never consulted: both SEUSS
        // sides produce identical records.
        assert_eq!(
            seuss_platform::records_jsonl(&out.resilient.records),
            seuss_platform::records_jsonl(&out.no_retry.records)
        );
    }
}
