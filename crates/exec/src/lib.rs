//! `seuss-exec` — the parallel sharded trial executor.
//!
//! A trial is decomposed into **logical shards** (via
//! [`seuss_platform::partition_workload`]): each shard owns a disjoint
//! slice of the function population and simulates its entire SEUSS (or
//! Linux) node — frame pool, MMU, snapshot store, caches, tracer — for
//! that slice. Shards are independent simulations, so they run on a pool
//! of **worker threads**; results are merged afterwards by virtual
//! completion time with a stable shard-index tie-break.
//!
//! # The determinism contract
//!
//! * The *shard count* is part of the experiment definition: it decides
//!   how the population splits and therefore what the merged records,
//!   trace, and metrics contain.
//! * The *worker count* is pure execution speed. For a fixed
//!   `(config, registry, spec, shards)` the merged output is
//!   **byte-identical at every worker count** — merging is a pure
//!   function of per-shard results, which are themselves deterministic
//!   single-threaded simulations, and nothing in the merge observes
//!   thread scheduling.
//! * `shards = 1` degenerates to exactly the legacy
//!   [`seuss_platform::run_trial`]: same seed (stream 0 is the identity
//!   stream), same single simulation, same record order, same JSONL
//!   bytes.
//!
//! Per-shard RNG streams are split from the trial seed with
//! [`simcore::stream_seed`], so shard `s` sees the same randomness no
//! matter which thread runs it, or when.
//!
//! The trial is described by one [`ClusterConfig`], shared by reference
//! with every worker thread. Each worker derives its shard's config
//! from it (seed stream, fault view) and builds the non-`Send` parts —
//! the `Rc`-backed tracer, the node itself — locally; only plain-data
//! results cross back.
//!
//! # Example
//!
//! ```
//! use seuss_core::SeussConfig;
//! use seuss_exec::{run_sharded, ShardPlan};
//! use seuss_platform::{BackendKind, ClusterConfig, FnKind, Registry, WorkloadSpec};
//!
//! let mut reg = Registry::new();
//! reg.register_many(0, 4, FnKind::Nop);
//! let order: Vec<u64> = (0..32).map(|i| i % 4).collect();
//! let spec = WorkloadSpec::closed_loop(order, 4);
//! let node = SeussConfig::builder().mem_mib(2048).build().unwrap();
//! let cfg = ClusterConfig {
//!     backend: BackendKind::Seuss(Box::new(node)),
//!     ..ClusterConfig::seuss_paper()
//! };
//! let a = run_sharded(&cfg, &reg, &spec, ShardPlan::new(2, 1));
//! let b = run_sharded(&cfg, &reg, &spec, ShardPlan::new(2, 2));
//! assert_eq!(a.records_jsonl(), b.records_jsonl()); // workers never change bytes
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use seuss_platform::cluster::{run_trial, ClusterConfig};
use seuss_platform::{
    partition_workload, records_jsonl, Registry, RequestRecord, TrialAnalysis, WorkloadSpec,
};
use seuss_trace::{merge_jsonl, merge_metrics, MetricsReport, TraceDump};
use simcore::{stream_seed, SimTime};

/// Environment variable overriding the worker-thread count of every
/// [`ShardPlan`] built with [`ShardPlan::from_env`]. Execution-speed
/// only: artifacts are byte-identical at every value.
pub const WORKERS_ENV: &str = "SEUSS_EXEC_WORKERS";

/// How a trial is decomposed and executed: `shards` is part of the
/// experiment (it determines the bytes), `workers` is not (it only
/// determines the wall clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Logical shards the function population splits into (≥ 1).
    pub shards: usize,
    /// Worker threads executing the shards (≥ 1; capped at `shards`).
    pub workers: usize,
}

impl ShardPlan {
    /// A plan with explicit shard and worker counts (both floored at 1).
    pub fn new(shards: usize, workers: usize) -> Self {
        ShardPlan {
            shards: shards.max(1),
            workers: workers.max(1),
        }
    }

    /// The legacy single-threaded plan: one shard, one worker.
    pub fn single() -> Self {
        ShardPlan::new(1, 1)
    }

    /// `workers` shards on `workers` threads — the usual speedup shape.
    pub fn wide(workers: usize) -> Self {
        ShardPlan::new(workers, workers)
    }

    /// Applies the [`WORKERS_ENV`] override, if set and parseable, to
    /// the worker count (shards are untouched — the env var must never
    /// change bytes).
    pub fn from_env(self) -> Self {
        match std::env::var(WORKERS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => ShardPlan { workers: n, ..self },
                _ => self,
            },
            Err(_) => self,
        }
    }
}

/// The merged result of a sharded trial — the same artifacts a
/// single-threaded [`run_trial`] yields, plus the wall-clock time the
/// execution took (the only field that may vary with `workers`).
pub struct ShardedOutput {
    /// All request records, ordered by `(virtual completion time, shard
    /// index)` — for one shard, exactly the legacy record order.
    pub records: Vec<RequestRecord>,
    /// Aggregates over the merged records.
    pub analysis: TrialAnalysis,
    /// Latest virtual finish time across shards.
    pub finished_at: SimTime,
    /// Total simulation events processed across shards.
    pub events: u64,
    /// Per-shard trace dumps, in shard order (empty when untraced).
    pub trace_dumps: Vec<TraceDump>,
    /// Real time the execution took. **Not** part of the deterministic
    /// artifact set.
    pub wall: Duration,
}

impl ShardedOutput {
    /// The merged trace as validated JSONL (empty string when untraced).
    pub fn trace_jsonl(&self) -> String {
        merge_jsonl(&self.trace_dumps)
    }

    /// The merged metrics report (empty when untraced).
    pub fn metrics_report(&self) -> MetricsReport {
        merge_metrics(&self.trace_dumps)
    }

    /// The records rendered with [`seuss_platform::records_jsonl`] — a
    /// convenient canonical byte-string for determinism comparisons.
    pub fn records_jsonl(&self) -> String {
        records_jsonl(&self.records)
    }
}

/// What one shard's worker thread hands back: the plain-data subset of
/// [`seuss_platform::TrialOutput`] (the tracer is snapshotted into a
/// [`TraceDump`] so nothing `Rc`-backed crosses the thread boundary).
struct ShardResult {
    records: Vec<RequestRecord>,
    finished_at: SimTime,
    events: u64,
    dump: Option<TraceDump>,
}

/// Runs one trial decomposed per `plan` and merges the shards.
///
/// Shard `s` of `n` runs `cfg` with seed [`stream_seed`]`(cfg.seed, s)`
/// and the fault schedule `cfg.faults.shard_view(s, n)`: global
/// faults (crash, loss, memory pressure, stragglers) hit every shard's
/// node, while a targeted snapshot corruption follows its function to
/// the owning shard.
///
/// See the crate docs for the determinism contract. The merge is:
/// records stable-sorted by exact virtual completion time (shard index
/// breaking ties, which the stable sort provides since shards are
/// concatenated in order); `finished_at` is the max; `events` the sum;
/// traces and metrics merge via [`merge_jsonl`] / [`merge_metrics`].
pub fn run_sharded(
    cfg: &ClusterConfig,
    registry: &Registry,
    spec: &WorkloadSpec,
    plan: ShardPlan,
) -> ShardedOutput {
    let started = std::time::Instant::now();
    let parts = partition_workload(registry, spec, plan.shards);
    let results = ordered_parallel(parts, plan.workers, |shard, (reg, sub_spec)| {
        let shard_cfg = ClusterConfig {
            seed: stream_seed(cfg.seed, shard as u64),
            faults: cfg.faults.shard_view(shard as u64, plan.shards as u64),
            ..cfg.clone()
        };
        let out = run_trial(shard_cfg, reg, &sub_spec);
        ShardResult {
            records: out.records,
            finished_at: out.finished_at,
            events: out.events,
            dump: out.tracer.dump(),
        }
    });

    let mut records = Vec::new();
    let mut finished_at = SimTime::ZERO;
    let mut events = 0u64;
    let mut trace_dumps = Vec::new();
    for r in results {
        records.extend(r.records);
        finished_at = finished_at.max(r.finished_at);
        events += r.events;
        if let Some(d) = r.dump {
            trace_dumps.push(d);
        }
    }
    // Per-shard record vectors are already completion-ordered (the sim
    // clock is monotone), so a stable sort on the exact completion nanos
    // yields (done_ns, shard) order — and is the identity for one shard.
    records.sort_by_key(|r| r.done_ns);
    let analysis = TrialAnalysis::from_records(&records);

    ShardedOutput {
        records,
        analysis,
        finished_at,
        events,
        trace_dumps,
        wall: started.elapsed(),
    }
}

/// Runs `f` over `items` on `workers` threads, returning results in
/// **input order** regardless of which thread finished first — the
/// primitive both `run_sharded` and the bench sweep drivers build their
/// determinism on. Threads claim indices from an atomic counter, so work
/// distribution adapts to uneven item costs.
pub fn ordered_parallel<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        // Run inline: no threads, no overhead — the legacy code path.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let item = slots[i].lock().expect("slot lock").take().expect("item");
                let r = f(i, item);
                *results[i].lock().expect("result lock") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock").expect("result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_core::SeussConfig;
    use seuss_faults::{FaultPlan, RetryPolicy};
    use seuss_platform::{BackendKind, FnKind};
    use seuss_trace::validate_jsonl;
    use simcore::SimDuration;

    fn sample() -> (Registry, WorkloadSpec) {
        let mut reg = Registry::new();
        reg.register_many(0, 8, FnKind::Nop);
        let order: Vec<u64> = (0..64).map(|i| i % 8).collect();
        (reg, WorkloadSpec::closed_loop(order, 8))
    }

    /// A small SEUSS cluster (2 GiB node, full AO): cheap enough for
    /// tests while exercising all three paths.
    fn small(traced: bool) -> ClusterConfig {
        let node = SeussConfig::builder()
            .mem_mib(2048)
            .build()
            .expect("static small config is valid");
        ClusterConfig {
            backend: BackendKind::Seuss(Box::new(node)),
            traced,
            ..ClusterConfig::seuss_paper()
        }
    }

    #[test]
    fn cluster_config_is_shareable_across_threads() {
        fn shareable<T: Clone + Send + Sync>() {}
        shareable::<ClusterConfig>();
    }

    #[test]
    fn one_shard_reproduces_legacy_run_trial() {
        let (reg, spec) = sample();
        let cfg = small(true);
        let legacy = run_trial(cfg.clone(), reg.clone(), &spec);
        let sharded = run_sharded(&cfg, &reg, &spec, ShardPlan::single());

        assert_eq!(sharded.records_jsonl(), records_jsonl(&legacy.records));
        assert_eq!(sharded.finished_at, legacy.finished_at);
        assert_eq!(sharded.events, legacy.events);
        assert_eq!(sharded.trace_jsonl(), legacy.tracer.export_jsonl());
        assert_eq!(
            sharded.metrics_report().to_json(),
            legacy.tracer.metrics_report().to_json()
        );
    }

    #[test]
    fn worker_count_never_changes_bytes() {
        let (reg, spec) = sample();
        let cfg = small(true);
        let w1 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 1));
        let w2 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 2));
        let w4 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 4));
        assert_eq!(w1.records_jsonl(), w2.records_jsonl());
        assert_eq!(w1.records_jsonl(), w4.records_jsonl());
        assert_eq!(w1.trace_jsonl(), w2.trace_jsonl());
        assert_eq!(w1.trace_jsonl(), w4.trace_jsonl());
        assert_eq!(w1.metrics_report().to_json(), w4.metrics_report().to_json());
        assert_eq!(w1.finished_at, w4.finished_at);
        assert_eq!(w1.events, w4.events);
        validate_jsonl(&w4.trace_jsonl()).expect("merged trace validates");
        assert_eq!(w1.analysis.completed, 64);
    }

    #[test]
    fn sharded_run_completes_the_whole_workload() {
        let (reg, spec) = sample();
        let cfg = small(false);
        let out = run_sharded(&cfg, &reg, &spec, ShardPlan::wide(4));
        assert_eq!(out.analysis.completed, 64);
        assert_eq!(out.analysis.errors, 0);
        // 8 unique functions → 8 cold paths, exactly one per function.
        assert_eq!(out.analysis.paths.0, 8);
        // Untraced → no dumps, empty artifacts.
        assert!(out.trace_dumps.is_empty());
        assert_eq!(out.trace_jsonl(), "");
    }

    #[test]
    fn records_merge_is_completion_ordered() {
        let (reg, spec) = sample();
        let cfg = small(false);
        let out = run_sharded(&cfg, &reg, &spec, ShardPlan::wide(4));
        assert!(out.records.windows(2).all(|w| w[0].done_ns <= w[1].done_ns));
    }

    #[test]
    fn ordered_parallel_preserves_input_order() {
        // Uneven spins so late items often finish first on 4 threads.
        let items: Vec<u64> = (0..32).collect();
        let out = ordered_parallel(items, 4, |i, x| {
            let mut acc = 0u64;
            for k in 0..((32 - i as u64) * 1000) {
                acc = acc.wrapping_add(k);
            }
            (x, std::hint::black_box(acc))
        });
        let xs: Vec<u64> = out.iter().map(|(x, _)| *x).collect();
        assert_eq!(xs, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn faulted_trials_are_byte_identical_at_every_worker_count() {
        use seuss_faults::{FaultEvent, FaultKind};
        let (reg, spec) = sample();
        let mut cfg = small(true);
        cfg.faults = FaultPlan::from_events(vec![
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
                at: SimTime::from_millis(100),
                kind: FaultKind::SnapshotCorruption { fn_id: 3 },
            },
        ]);
        cfg.retry = RetryPolicy::resilient();
        let w1 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 1));
        let w2 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 2));
        let w4 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 4));
        assert_eq!(w1.records_jsonl(), w2.records_jsonl());
        assert_eq!(w1.records_jsonl(), w4.records_jsonl());
        assert_eq!(w1.trace_jsonl(), w4.trace_jsonl());
        assert_eq!(w1.metrics_report().to_json(), w4.metrics_report().to_json());
        // The faults actually fired somewhere in the merged trace.
        assert!(
            w1.trace_jsonl().contains("fault:node_crash"),
            "crash missing from the merged trace"
        );
    }

    #[test]
    fn empty_fault_plan_reproduces_pre_fault_bytes() {
        let (reg, spec) = sample();
        let with_default = small(true);
        let mut no_retry = small(true);
        no_retry.retry = RetryPolicy::none();
        let a = run_sharded(&with_default, &reg, &spec, ShardPlan::new(2, 2));
        let b = run_sharded(&no_retry, &reg, &spec, ShardPlan::new(2, 2));
        assert_eq!(
            a.records_jsonl(),
            b.records_jsonl(),
            "without faults the retry policy must be unobservable"
        );
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
    }

    #[test]
    fn env_override_touches_only_workers() {
        let plan = ShardPlan::new(4, 1);
        // No env set in tests: from_env is the identity.
        let same = plan.from_env();
        assert_eq!(same.shards, 4);
    }
}
