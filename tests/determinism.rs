//! Whole-stack determinism: identical configurations and seeds must
//! produce byte-identical results — the property that makes every number
//! in EXPERIMENTS.md reproducible.

use seuss::core::SeussConfig;
use seuss::platform::{run_trial, BackendKind, ClusterConfig};
use seuss::workload::{records_csv, BurstParams, TrialParams};

fn seuss_cfg() -> ClusterConfig {
    let node = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        ..ClusterConfig::seuss_paper()
    }
}

#[test]
fn seuss_trials_are_deterministic() {
    let run = || {
        let (reg, spec) = TrialParams {
            invocations: 256,
            set_size: 16,
            workers: 8,
            kind: seuss::platform::FnKind::Nop,
            seed: 99,
        }
        .build();
        let out = run_trial(seuss_cfg(), reg, &spec);
        (records_csv(&out.records), out.finished_at, out.events)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "records differ between identical runs");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn linux_trials_are_deterministic_with_fixed_seed() {
    // The Linux backend uses randomness (bridge drops); with a fixed seed
    // it must still replay exactly.
    let run = || {
        let (reg, spec) = TrialParams {
            invocations: 200,
            set_size: 32,
            workers: 8,
            kind: seuss::platform::FnKind::Nop,
            seed: 5,
        }
        .build();
        let out = run_trial(ClusterConfig::linux_paper(), reg, &spec);
        records_csv(&out.records)
    };
    assert_eq!(run(), run());
}

#[test]
fn linux_replay_holds_when_idle_containers_share_a_function() {
    // Sixteen workers over 48 functions often bind two containers to one
    // function, and a 32-container cache forces LRU evictions: which
    // idle container a request is dispatched to decides later victims,
    // so the choice must not follow map iteration order (which differs
    // between two engines in one process).
    let run = || {
        let (reg, spec) = TrialParams {
            invocations: 1200,
            set_size: 48,
            workers: 16,
            kind: seuss::platform::FnKind::Nop,
            seed: 7,
        }
        .build();
        let cfg = ClusterConfig {
            backend: BackendKind::Linux {
                cache_limit: 32,
                stemcell_target: 0,
            },
            ..ClusterConfig::linux_paper()
        };
        records_csv(&run_trial(cfg, reg, &spec).records)
    };
    let first = run();
    for _ in 0..4 {
        assert_eq!(run(), first, "records differ between identical runs");
    }
}

#[test]
fn burst_runs_are_deterministic() {
    let run = || {
        let mut p = BurstParams::paper(16);
        p.bursts = 2;
        p.burst_size = 32;
        let (reg, spec) = p.build();
        let out = run_trial(seuss_cfg(), reg, &spec);
        records_csv(&out.records)
    };
    assert_eq!(run(), run());
}

#[test]
fn cross_run_replay_is_byte_identical_for_both_backends() {
    // The replay contract, stated once for every backend: a fresh
    // `run_trial` with an identical seed must reproduce the full record
    // stream byte-for-byte — in both the CSV and the JSON-lines
    // renderings — with nothing shared between the two invocations.
    type CfgFn = fn() -> ClusterConfig;
    let backends: [(&str, CfgFn); 2] = [
        ("seuss", seuss_cfg as CfgFn),
        ("linux", ClusterConfig::linux_paper as CfgFn),
    ];
    for (name, cfg) in backends {
        let run = || {
            let (reg, spec) = TrialParams {
                invocations: 192,
                set_size: 24,
                workers: 8,
                kind: seuss::platform::FnKind::Nop,
                seed: 1234,
            }
            .build();
            let out = run_trial(cfg(), reg, &spec);
            (
                records_csv(&out.records),
                seuss::platform::records_jsonl(&out.records),
            )
        };
        let (csv_a, jsonl_a) = run();
        let (csv_b, jsonl_b) = run();
        assert_eq!(csv_a, csv_b, "{name}: records_csv differs across runs");
        assert_eq!(
            jsonl_a, jsonl_b,
            "{name}: records_jsonl differs across runs"
        );
        assert!(!csv_a.is_empty(), "{name}: trial produced no records");
    }
}

#[test]
fn different_seeds_change_the_order_not_the_aggregates() {
    let run = |seed: u64| {
        let (reg, spec) = TrialParams {
            invocations: 256,
            set_size: 16,
            workers: 8,
            kind: seuss::platform::FnKind::Nop,
            seed,
        }
        .build();
        run_trial(seuss_cfg(), reg, &spec)
    };
    let a = run(1);
    let b = run(2);
    // Same totals and path mix (16 colds either way)…
    assert_eq!(a.analysis.completed, b.analysis.completed);
    assert_eq!(a.analysis.paths.0, b.analysis.paths.0);
    // …but a genuinely different interleaving.
    assert_ne!(records_csv(&a.records), records_csv(&b.records));
}
