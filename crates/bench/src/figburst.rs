//! Figures 6–8: platform resiliency to request bursts.
//!
//! A rate-throttled background stream of IO-bound functions keeps the
//! platform at moderate utilization while bursts of a never-before-seen
//! CPU-bound function arrive every 32 / 16 / 8 seconds. Paper shape: the
//! Linux node errors once its container cache saturates and stalls the
//! background stream; SEUSS serves every request, with only CPU
//! contention visible at the 8 s period.

use seuss::faults::{FaultPlan, RetryPolicy};
use seuss_platform::{
    run_trial, BackendKind, BurstParams, ClusterConfig, RequestRecord, RequestStatus,
};

/// Outcome of one burst run on one backend.
#[derive(Clone, Debug)]
pub struct BurstSide {
    /// Raw records (the Figure 6–8 scatter).
    pub records: Vec<RequestRecord>,
    /// Background stream: successes.
    pub background_ok: u64,
    /// Background stream: errors.
    pub background_err: u64,
    /// Burst requests: successes.
    pub burst_ok: u64,
    /// Burst requests: errors.
    pub burst_err: u64,
    /// Median background latency, ms.
    pub background_p50_ms: f64,
    /// 99th-percentile burst latency, ms.
    pub burst_p99_ms: f64,
}

/// Both backends at one burst period.
#[derive(Clone, Debug)]
pub struct BurstOutcome {
    /// Burst period, seconds.
    pub period_s: u64,
    /// Linux node results.
    pub linux: BurstSide,
    /// SEUSS node results.
    pub seuss: BurstSide,
}

/// Summary counts for a burst run: `(background ok, background err,
/// burst ok, burst err)`.
fn burst_counts(records: &[RequestRecord]) -> (u64, u64, u64, u64) {
    let mut c = (0, 0, 0, 0);
    for r in records {
        match (r.burst, r.status == RequestStatus::Ok) {
            (false, true) => c.0 += 1,
            (false, false) => c.1 += 1,
            (true, true) => c.2 += 1,
            (true, false) => c.3 += 1,
        }
    }
    c
}

/// Renders the Figure 6–8 scatter as an aligned text series, split into
/// background and burst streams, marking errors with `x` like the paper.
pub fn burst_series_csv(records: &[RequestRecord]) -> String {
    let mut out = String::from("stream,sent_s,latency_ms,mark\n");
    let mut sorted: Vec<&RequestRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.sent_at_s.partial_cmp(&b.sent_at_s).expect("finite"));
    for r in sorted {
        out.push_str(&format!(
            "{},{:.3},{:.3},{}\n",
            if r.burst { "burst" } else { "background" },
            r.sent_at_s,
            r.latency_ms,
            if r.status == RequestStatus::Ok {
                "."
            } else {
                "x"
            }
        ));
    }
    out
}

fn side(records: Vec<RequestRecord>) -> BurstSide {
    let (background_ok, background_err, burst_ok, burst_err) = burst_counts(&records);
    let mut bg: Vec<f64> = records
        .iter()
        .filter(|r| !r.burst && r.status == RequestStatus::Ok)
        .map(|r| r.latency_ms)
        .collect();
    bg.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut bu: Vec<f64> = records
        .iter()
        .filter(|r| r.burst && r.status == RequestStatus::Ok)
        .map(|r| r.latency_ms)
        .collect();
    bu.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pick = |v: &[f64], q: f64| -> f64 {
        if v.is_empty() {
            f64::NAN
        } else {
            v[((v.len() - 1) as f64 * q) as usize]
        }
    };
    BurstSide {
        background_p50_ms: pick(&bg, 0.5),
        burst_p99_ms: pick(&bu, 0.99),
        records,
        background_ok,
        background_err,
        burst_ok,
        burst_err,
    }
}

/// Runs the burst experiment at `period_s` (32, 16, or 8 in the paper)
/// under an injected fault schedule.
///
/// `params` override lets tests shrink the run; `mem_mib` sizes the SEUSS
/// node. The Linux node runs with the paper's burst configuration: the
/// stemcell cache enabled at 256. Both backends run the same `faults`
/// plan and `retry` policy, so the figure shows how each platform's
/// resiliency interacts with infrastructure failures; with
/// [`FaultPlan::none`] neither sees a fault. The two backends are
/// independent trials and run on `workers` threads; results are
/// identical at every worker count.
pub fn run_burst_with_faults(
    params: BurstParams,
    mem_mib: u64,
    workers: usize,
    faults: &FaultPlan,
    retry: RetryPolicy,
) -> BurstOutcome {
    let mut sides = crate::ordered_parallel(vec![false, true], workers, |_, is_seuss| {
        let (reg, spec) = params.build();
        let cfg = if is_seuss {
            ClusterConfig {
                faults: faults.clone(),
                retry,
                ..crate::fig4::seuss_cluster(mem_mib)
            }
        } else {
            ClusterConfig {
                backend: BackendKind::Linux {
                    cache_limit: 1024,
                    stemcell_target: 256,
                },
                faults: faults.clone(),
                retry,
                ..ClusterConfig::seuss_paper()
            }
        };
        side(run_trial(cfg, reg, &spec).records)
    });

    let seuss = sides.pop().expect("seuss side");
    let linux = sides.pop().expect("linux side");
    BurstOutcome {
        period_s: params.period_s,
        linux,
        seuss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_platform::ServedBy;

    #[test]
    fn seuss_serves_every_request_linux_errors() {
        // 8 bursts every 8 s (the harshest period): enough bound
        // containers accumulate (8 × 128 + 256 stemcells + background) to
        // hit the 1024-container cache limit and saturate the bridge —
        // the paper's failure mechanism.
        let mut p = BurstParams::paper(8);
        p.bursts = 8;
        let out =
            run_burst_with_faults(p, 4 * 1024, 2, &FaultPlan::none(), RetryPolicy::resilient());
        // SEUSS: no request returns an error (the paper's headline).
        assert_eq!(out.seuss.background_err, 0, "SEUSS background errors");
        assert_eq!(out.seuss.burst_err, 0, "SEUSS burst errors");
        // Linux: the container cache cannot keep up at 8 s.
        assert!(
            out.linux.burst_err + out.linux.background_err > 0,
            "Linux should show errors at the 8 s period"
        );
        // SEUSS background stream stays low-latency.
        assert!(
            out.seuss.background_p50_ms < out.linux.background_p50_ms * 2.0 + 500.0,
            "seuss bg p50 {} vs linux {}",
            out.seuss.background_p50_ms,
            out.linux.background_p50_ms
        );
    }

    fn rec(burst: bool, ok: bool, sent: f64) -> RequestRecord {
        RequestRecord {
            fn_id: 1,
            sent_at_s: sent,
            latency_ms: 10.0,
            status: if ok {
                RequestStatus::Ok
            } else {
                RequestStatus::Error
            },
            served_by: ServedBy::Hot,
            burst,
        }
    }

    #[test]
    fn burst_series_sorted_and_marked() {
        let csv = burst_series_csv(&[rec(true, false, 2.0), rec(false, true, 1.0)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[1].starts_with("background,1.000"));
        assert!(lines[2].starts_with("burst,2.000"));
        assert!(lines[2].ends_with(",x"));
    }

    #[test]
    fn counts_split_streams() {
        let records = vec![
            rec(false, true, 0.0),
            rec(false, false, 0.1),
            rec(true, true, 0.2),
            rec(true, true, 0.3),
        ];
        assert_eq!(burst_counts(&records), (1, 1, 2, 0));
    }
}
