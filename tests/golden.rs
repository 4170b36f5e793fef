//! Behaviour lock: FNV-1a digests of the artifacts the trial runners
//! and experiment drivers produce, compared with the committed
//! `results/golden.txt`.
//!
//! Each trial case renders its records as JSONL (plus the trace JSONL
//! and the metrics JSON when traced) and hashes the bytes; a driver case
//! hashes its rendered report. A refactor that
//! claims to keep behaviour must leave every digest unchanged; a change
//! that moves behaviour on purpose rewrites `results/golden.txt` and
//! says why.

use seuss::core::SeussConfig;
use seuss::faults::{FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use seuss::platform::{
    records_jsonl, run_trial, BackendKind, ClusterConfig, FnKind, Registry, ServedBy, TrialOutput,
    TrialParams, WorkloadSpec,
};
use seuss::sim::{SimDuration, SimTime};
use seuss::store::StoreConfig;
use seuss_bench::{run_dr_seuss, run_trace_smoke};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden.txt");

/// 64-bit FNV-1a over the parts, with a separator byte between them.
fn fnv1a(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, part) in parts.iter().enumerate() {
        let sep: &[u8] = if i == 0 { &[] } else { &[0xff] };
        for &b in sep.iter().chain(part.as_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn trial_digest(out: &TrialOutput) -> u64 {
    let records = records_jsonl(&out.records);
    if out.tracer.is_enabled() {
        fnv1a(&[
            &records,
            &out.tracer.export_jsonl(),
            &out.tracer.metrics_report().to_json(),
        ])
    } else {
        fnv1a(&[&records])
    }
}

fn small_node() -> SeussConfig {
    SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config")
}

/// A traced SEUSS trial on a 2 GiB node over a mixed registry.
fn seuss_traced_trial() -> u64 {
    let mut reg = Registry::new();
    reg.register_many(0, 8, FnKind::Nop);
    reg.register_many(8, 2, FnKind::Io);
    reg.register_many(10, 2, FnKind::Cpu(SimDuration::from_millis(5)));
    let order: Vec<u64> = (0..120).map(|i| (i * 7) % 12).collect();
    let spec = WorkloadSpec::closed_loop(order, 4);
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(small_node())),
        traced: true,
        ..ClusterConfig::seuss_paper()
    };
    trial_digest(&run_trial(cfg, reg, &spec))
}

/// A Linux trial whose function set overflows the 1024-container cache.
fn linux_past_cache_trial() -> u64 {
    let (reg, spec) = TrialParams {
        invocations: 2200,
        set_size: 1100,
        workers: 32,
        kind: FnKind::Nop,
        seed: 11,
    }
    .build();
    let out = run_trial(ClusterConfig::linux_paper(), reg, &spec);
    let colds = out
        .records
        .iter()
        .filter(|r| r.served_by == ServedBy::Cold)
        .count();
    assert!(colds > 1100, "no function was evicted and went cold again");
    trial_digest(&out)
}

/// A traced trial under a crash, a packet-loss window and a snapshot
/// corruption, retried with the resilient policy.
fn faulted_trial() -> u64 {
    let (reg, spec) = TrialParams {
        invocations: 160,
        set_size: 16,
        workers: 8,
        kind: FnKind::Nop,
        seed: 23,
    }
    .build();
    let faults = FaultPlan::from_events(vec![
        FaultEvent {
            at: SimTime::from_millis(150),
            kind: FaultKind::NodeCrash {
                reboot: SimDuration::from_millis(200),
            },
        },
        FaultEvent {
            at: SimTime::from_millis(50),
            kind: FaultKind::PacketLoss {
                prob: 0.3,
                span: SimDuration::from_millis(400),
            },
        },
        FaultEvent {
            at: SimTime::from_millis(600),
            kind: FaultKind::SnapshotCorruption { fn_id: 3 },
        },
    ]);
    // A small idle-UC cache sends repeat invocations down the warm
    // path, where the corrupted snapshot is detected.
    let node = SeussConfig::builder()
        .mem_mib(2048)
        .idle_per_fn(1)
        .idle_total(2)
        .build()
        .expect("valid config");
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        traced: true,
        faults,
        retry: RetryPolicy::resilient(),
        ..ClusterConfig::seuss_paper()
    };
    let out = run_trial(cfg, reg, &spec);
    let trace = out.tracer.export_jsonl();
    for kind in [
        "fault:node_crash",
        "fault:packet_drop",
        "fault:snapshot_corrupt",
    ] {
        assert!(trace.contains(kind), "{kind} never fired");
    }
    assert_eq!(out.analysis.completed, 160, "a request was lost");
    trial_digest(&out)
}

/// A traced trial on a tiered node whose DRAM is smaller than the set.
fn tiered_trial() -> u64 {
    let node = SeussConfig::test_builder()
        .mem_mib(48)
        .reclaim_threshold_frames(Some(1200))
        .store(Some(StoreConfig::nvme_prefetch()))
        .build()
        .expect("valid tiered config");
    let (reg, spec) = TrialParams {
        invocations: 192,
        set_size: 48,
        workers: 8,
        kind: FnKind::Nop,
        seed: 77,
    }
    .build();
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        traced: true,
        ..ClusterConfig::seuss_paper()
    };
    let out = run_trial(cfg, reg, &spec);
    assert!(
        out.tracer
            .metrics_report()
            .to_json()
            .contains("tier:demote"),
        "pressure never reached the tier"
    );
    assert_eq!(out.analysis.completed, 192, "a request was lost");
    trial_digest(&out)
}

/// The `trace_smoke` binary's validated trial at its default size.
fn trace_smoke() -> u64 {
    let s = run_trace_smoke(40).expect("trace smoke validates");
    fnv1a(&[&s.trace_jsonl, &s.metrics_json])
}

/// DR-SEUSS's viral load at 3 nodes × 24 functions, with §9's claims
/// asserted on the measured report.
fn dr_seuss_report() -> u64 {
    let r = run_dr_seuss(3, 24);
    assert!(
        r.mean_remote_warm_ms() < r.mean_cold_ms(),
        "remote warm {} ms must beat local cold {} ms",
        r.mean_remote_warm_ms(),
        r.mean_cold_ms()
    );
    let diff_mib = r.mean_diff_mib();
    assert!(
        (0.5..4.0).contains(&diff_mib),
        "a migration ships the ~2 MiB function diff, not the runtime: {diff_mib} MiB"
    );
    assert!(
        r.full_ship_ms > 10.0 * r.mean_remote_warm_ms(),
        "shipping the full image ({} ms) must dwarf a remote warm start ({} ms)",
        r.full_ship_ms,
        r.mean_remote_warm_ms()
    );
    fnv1a(&[&r.render()])
}

#[test]
fn trial_artifacts_match_the_golden_digests() {
    type Case = (&'static str, fn() -> u64);
    let cases: [Case; 6] = [
        ("seuss_traced_trial", seuss_traced_trial),
        ("linux_past_cache_trial", linux_past_cache_trial),
        ("faulted_trial", faulted_trial),
        ("tiered_trial", tiered_trial),
        ("dr_seuss", dr_seuss_report),
        ("trace_smoke", trace_smoke),
    ];
    let actual: String = cases
        .iter()
        .map(|(name, run)| format!("{name} {:016x}\n", run()))
        .collect();
    let expected = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    assert!(
        actual == expected,
        "golden digests differ.\n--- expected ({GOLDEN}) ---\n{expected}--- actual ---\n{actual}"
    );
}
