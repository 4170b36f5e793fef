//! Metric values, the per-layer report of a traced trial, and the result
//! line.

use std::hint::black_box;
use std::time::{Duration, Instant};

use seuss_mem::MemStats;
use seuss_paging::OpStats;
use seuss_platform::{RequestRecord, RequestStatus, ServedBy};

use crate::traced::{Acc, Counters, Traced, EV_KINDS, PATHS};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of a sorted sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median over rounds of the per-call cost of `f`, in nanoseconds.
fn per_call_ns(calls: u32, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// Cost of one `Instant::now()`. A timed interval holds about one such
/// read; the gap between two events holds about one more.
fn timer_ns() -> f64 {
    per_call_ns(200_000, || {
        black_box(Instant::now());
    })
}

/// The per-layer metrics of one traced trial.
///
/// `at_start` is the node's paging and memory counters before the trial;
/// `run` is the host time of `Simulation::run` alone.
pub fn layers(
    t: &Traced,
    records: &[RequestRecord],
    at_start: Option<(OpStats, MemStats)>,
    run: Duration,
) -> Vec<Metric> {
    let timer = timer_ns();
    let read = per_call_ns(20_000, || {
        black_box(Counters::read(black_box(&t.inner)));
    });
    let events = t.events() as f64;
    // Host time of a class of events, with the clock read inside each
    // timed interval removed.
    let host_ns = |a: &Acc| a.ns as f64 - a.calls as f64 * timer;
    let mut m = Vec::new();

    let outside = run.as_nanos() as f64 - t.handle_ns() as f64 - t.snapshot_read_ns as f64;
    m.push(Metric::new("sim.events", events, "count"));
    m.push(Metric::new(
        "sim.self_ns_per_event",
        ratio(outside, events) - timer - read,
        "ns",
    ));
    m.push(Metric::new("sim.timer_ns", timer, "ns"));
    m.push(Metric::new("sim.counter_read_ns", read, "ns"));

    for (k, name) in t.kinds.iter().zip(EV_KINDS) {
        m.push(Metric::new(
            format!("platform.{name}.calls"),
            k.calls as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("platform.{name}.host_us"),
            host_ns(k) / 1e3,
            "us",
        ));
    }
    m.push(Metric::new(
        "platform.self_s",
        host_ns(&t.platform) / 1e9,
        "s",
    ));
    let errors = records
        .iter()
        .filter(|r| r.status == RequestStatus::Error)
        .count();
    m.push(Metric::new(
        "platform.error_frac",
        ratio(errors as f64, records.len() as f64),
        "ratio",
    ));

    let end = Counters::read(&t.inner);
    let invocations: u64 = end.paths.iter().sum();
    for (p, name) in PATHS.iter().enumerate() {
        m.push(Metric::new(
            format!("core.{name}.count"),
            end.paths[p] as f64,
            "count",
        ));
    }
    m.push(Metric::new(
        "core.hit_ratio",
        ratio((invocations - end.paths[0]) as f64, invocations as f64),
        "ratio",
    ));
    for (p, name) in PATHS.iter().enumerate() {
        let mut us: Vec<f64> = t.path_ns[p]
            .iter()
            .map(|&ns| (ns as f64 - timer).max(0.0) / 1e3)
            .collect();
        us.sort_by(f64::total_cmp);
        m.push(Metric::new(
            format!("core.{name}.host_us_p50"),
            percentile(&us, 50.0),
            "us",
        ));
        m.push(Metric::new(
            format!("core.{name}.host_us_p99"),
            percentile(&us, 99.0),
            "us",
        ));
        m.push(Metric::new(
            format!("core.{name}.samples"),
            us.len() as f64,
            "count",
        ));
    }
    let reclaim_s = host_ns(&t.reclaim) / 1e9;
    m.push(Metric::new(
        "core.reclaim.count",
        end.reclaims as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.reclaim.events",
        t.reclaim.calls as f64,
        "count",
    ));
    m.push(Metric::new("core.reclaim.host_s", reclaim_s, "s"));
    m.push(Metric::new(
        "core.reclaim.host_us_per_reclaim",
        ratio(reclaim_s * 1e6, end.reclaims as f64),
        "us",
    ));
    m.push(Metric::new(
        "core.fn_cache.len_max",
        t.max.fn_cache as f64,
        "count",
    ));
    m.push(Metric::new("core.idle.len_max", t.max.idle as f64, "count"));

    let node = t.inner.seuss_node();
    let (ops, allocs) = match (node, at_start) {
        (Some(n), Some((ops0, mem0))) => (
            n.mmu.stats.since(&ops0),
            n.mem.stats().total_allocs - mem0.total_allocs,
        ),
        _ => (OpStats::default(), 0),
    };
    m.push(Metric::new(
        "mem.used_frames_max",
        t.max.used_frames as f64,
        "count",
    ));
    m.push(Metric::new("mem.total_allocs", allocs as f64, "count"));

    let inv = invocations as f64;
    for (name, v) in [
        ("levels_walked", ops.levels_walked),
        ("entries_copied", ops.entries_copied),
        ("cow_clones", ops.cow_clones),
        ("demand_zero_allocs", ops.demand_zero_allocs),
        ("tlb_flushes", ops.tlb_flushes),
        ("swap_ins", ops.swap_ins),
    ] {
        m.push(Metric::new(
            format!("paging.{name}"),
            ratio(v as f64, inv),
            "count/inv",
        ));
    }
    // Every cold invocation captures exactly one function snapshot.
    m.push(Metric::new(
        "snapshot.clones_per_capture",
        ratio(ops.snapshot_clones as f64, end.paths[0] as f64),
        "count",
    ));
    m.push(Metric::new(
        "snapshot.dirty_scanned",
        ops.dirty_scanned as f64,
        "count",
    ));
    m.push(Metric::new(
        "snapshot.live_max",
        t.max.snapshots as f64,
        "count",
    ));

    let tier = node.and_then(|n| n.tier.as_ref());
    let ts = tier.map(|t| t.stats()).unwrap_or_default();
    let ds = tier.map(|t| t.device_stats()).unwrap_or_default();
    for (name, v, unit) in [
        ("demotions", ts.demotions, "count"),
        ("prefetches", ts.prefetches, "count"),
        ("recorded_sets", ts.recorded_sets, "count"),
        ("device_reads", ds.reads, "count"),
        ("device_bytes_read", ds.bytes_read, "bytes"),
        ("used_blocks_max", t.max.tier_blocks, "count"),
    ] {
        m.push(Metric::new(format!("store.{name}"), v as f64, unit));
    }
    m.push(Metric::new(
        "store.prefetch_ratio",
        ratio(ts.prefetches as f64, end.paths[3] as f64),
        "ratio",
    ));

    let linux = t.inner.docker().is_some();
    let completed = records.len() - errors;
    let hot = records
        .iter()
        .filter(|r| r.status == RequestStatus::Ok && r.served_by == ServedBy::Hot)
        .count();
    m.push(Metric::new(
        "baseline.live_max",
        t.max.docker_live as f64,
        "count",
    ));
    m.push(Metric::new(
        "baseline.evictions",
        t.kinds[EV_KINDS
            .iter()
            .position(|&k| k == "DeleteDone")
            .expect("kind")]
        .calls as f64,
        "count",
    ));
    m.push(Metric::new(
        "baseline.host_s",
        host_ns(&t.docker) / 1e9,
        "s",
    ));
    m.push(Metric::new(
        "baseline.hit_ratio",
        if linux {
            ratio(hot as f64, completed as f64)
        } else {
            0.0
        },
        "ratio",
    ));
    m
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
