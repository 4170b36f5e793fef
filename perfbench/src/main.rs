//! Host-time benchmark of the SEUSS simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workloads.rs`) through the public
//! `seuss_platform` entry points for about `--seconds` seconds of host
//! time and prints one JSON object as the last line of standard output.
//! With `--trace 0` it reports the end-to-end metrics of untraced trials;
//! with `--trace 1` it alternates untraced and traced trials and reports
//! the per-layer metrics. See `perfbench/README.md`.

mod metrics;
mod probes;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use seuss_platform::cluster::Ev;
use seuss_platform::{
    records_jsonl, run_trial, Cluster, RequestRecord, RequestStatus, TrialAnalysis, WorkloadSpec,
};
use simcore::{SimTime, Simulation, World};

use metrics::{median, percentile, Metric};
use traced::Traced;
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

/// Measured trials per run, at least (the last one may overrun
/// `--seconds`).
const MIN_TRIALS: usize = 3;
/// Set-ups per run, at least; extra ones are made after the trials.
const MIN_SETUPS: usize = 31;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload.ok_or(format!("--workload is one of {}", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a trial's simulated output.
fn digest(records: &[RequestRecord]) -> u64 {
    fnv1a(records_jsonl(records).as_bytes())
}

/// A freshly set-up trial: the generated workload and the built cluster.
struct Setup {
    spec: WorkloadSpec,
    cluster: Cluster,
    took: Duration,
}

/// Set-up: workload generation plus `Cluster::new` (node boot and base
/// snapshot capture).
fn set_up(w: &Workload, seed: u64) -> Setup {
    let t = Instant::now();
    let (registry, spec) = w.build(seed);
    let cluster = Cluster::new(w.cluster_config(), registry, &spec);
    Setup {
        spec,
        cluster,
        took: t.elapsed(),
    }
}

/// A finished trial; `S` is the simulation, kept for the traced run's
/// accumulators.
struct Trial<S> {
    records: Vec<RequestRecord>,
    sim: S,
    /// Host time of `Simulation::run` alone.
    run: Duration,
    /// Host time of the whole trial: everything `run_trial` does after
    /// `Cluster::new`, including dropping the world.
    wall: Duration,
}

/// Drives a cluster world as `run_trial` does for a fault-free closed
/// loop. The world is dropped with the returned simulation; callers
/// that keep it stop the clock first.
fn drive<W: World<Event = Ev>>(
    world: W,
    workers: u32,
    records_of: impl FnOnce(&mut W) -> Vec<RequestRecord>,
) -> Trial<Simulation<W>> {
    let t = Instant::now();
    let mut sim = Simulation::new(world);
    for w in 0..workers {
        sim.schedule_at(SimTime::ZERO, Ev::WorkerIssue(w));
    }
    let r = Instant::now();
    sim.run();
    let run = r.elapsed();
    let records = records_of(sim.world_mut());
    std::hint::black_box(TrialAnalysis::from_records(&records));
    Trial {
        records,
        sim,
        run,
        wall: t.elapsed(),
    }
}

/// One untraced trial. Its `wall` includes dropping the world, as
/// `run_trial` drops it.
fn untraced_trial(s: Setup) -> Trial<()> {
    let t = Instant::now();
    let trial = drive(s.cluster, s.spec.workers, |c| {
        std::mem::take(&mut c.records)
    });
    drop(trial.sim);
    Trial {
        records: trial.records,
        sim: (),
        run: trial.run,
        wall: t.elapsed(),
    }
}

/// The checks every trial's output must pass.
struct Checker {
    reference: u64,
    order_sorted: Vec<u64>,
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, what: &str, records: &[RequestRecord]) {
        if records.len() != self.order_sorted.len() {
            self.failures.push(format!(
                "{what}: {} records for {} requests",
                records.len(),
                self.order_sorted.len()
            ));
        }
        let mut fns: Vec<u64> = records.iter().map(|r| r.fn_id).collect();
        fns.sort_unstable();
        if fns != self.order_sorted {
            self.failures
                .push(format!("{what}: served functions differ from the order"));
        }
        let d = digest(records);
        if d != self.reference {
            self.failures.push(format!(
                "{what}: records digest {d:016x} differs from run_trial's {:016x}",
                self.reference
            ));
        }
    }
}

fn errors(records: &[RequestRecord]) -> u64 {
    records
        .iter()
        .filter(|r| r.status == RequestStatus::Error)
        .count() as u64
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn run(args: &Args) -> Outcome {
    let w = &args.workload;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);

    // Warm-up, discarded from timing: one `run_trial`, whose records are
    // the reference every later trial of this run must reproduce.
    let (registry, spec) = w.build(args.seed);
    assert!(
        spec.open_arrivals.is_empty() && spec.throttle_rps.is_none(),
        "the benchmark drives closed loops only"
    );
    let mut order_sorted = spec.order.clone();
    order_sorted.sort_unstable();
    let warm = run_trial(w.cluster_config(), registry, &spec);
    let mut checker = Checker {
        reference: digest(&warm.records),
        order_sorted,
        failures: Vec::new(),
    };
    checker.check("run_trial", &warm.records);
    if args.seed == DEFAULT_SEED && checker.reference != w.golden {
        checker.failures.push(format!(
            "records digest {:016x} differs from the pinned {:016x} for seed {DEFAULT_SEED}",
            checker.reference, w.golden
        ));
    }
    eprintln!(
        "{}: seed {}, {} requests, warm-up trial {:.3} s",
        w.name,
        args.seed,
        warm.records.len(),
        start.elapsed().as_secs_f64()
    );

    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut runs = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // The fastest traced trial so far: its `Simulation::run` time and its
    // layer metrics.
    let mut traced: Option<(f64, Vec<Metric>)> = None;
    let min_trials = if args.trace { 1 } else { MIN_TRIALS };
    let measure_from = Instant::now();
    while walls.len() < min_trials || measure_from.elapsed() < budget {
        let s = set_up(w, args.seed);
        setups.push(s.took.as_secs_f64());
        let trial = untraced_trial(s);
        checker.check("trial", &trial.records);
        attempted += trial.records.len() as u64;
        failed += errors(&trial.records);
        walls.push(trial.wall.as_secs_f64());
        runs.push(trial.run.as_secs_f64());

        if args.trace {
            let s = set_up(w, args.seed);
            let ops0 = s.cluster.seuss_node().map(|n| (n.mmu.stats, n.mem.stats()));
            let trial = drive(Traced::new(s.cluster), s.spec.workers, |t| {
                std::mem::take(&mut t.inner.records)
            });
            checker.check("traced trial", &trial.records);
            attempted += trial.records.len() as u64;
            failed += errors(&trial.records);
            let run = trial.run.as_secs_f64();
            if traced.as_ref().is_none_or(|(best, _)| run < *best) {
                let layers = metrics::layers(trial.sim.world(), &trial.records, ops0, trial.run);
                traced = Some((run, layers));
            }
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(set_up(w, args.seed).took.as_secs_f64());
    }
    // The host slows for seconds to minutes at a time, so one trial's
    // time says little; the mean over every trial of the run (total
    // requests over total trial time) spread least from run to run.
    let wall = walls.iter().sum::<f64>() / walls.len() as f64;
    eprintln!(
        "{}: {} trials, wall mean {:.4} s (min {:.4}, median {:.4}, max {:.4}), setup median {:.5} s",
        w.name,
        walls.len(),
        wall,
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        median(&setups),
    );
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    eprintln!("{}: trial walls (s): {}", w.name, list.join(" "));

    let requests = warm.records.len() as f64;
    let mut lat: Vec<f64> = warm
        .records
        .iter()
        .filter(|r| r.status == RequestStatus::Ok)
        .map(|r| r.latency_ms)
        .collect();
    lat.sort_by(f64::total_cmp);
    let metrics = if args.trace {
        let (traced_run, mut m) = traced.expect("at least one traced trial");
        let untraced_run = runs.iter().copied().fold(f64::INFINITY, f64::min);
        m.push(Metric::new(
            "platform.virt_p50_ms",
            percentile(&lat, 50.0),
            "ms",
        ));
        m.push(Metric::new(
            "platform.virt_p99_ms",
            percentile(&lat, 99.0),
            "ms",
        ));
        m.push(Metric::new("trace.untraced_run_s", untraced_run, "s"));
        m.push(Metric::new("trace.traced_run_s", traced_run, "s"));
        m.push(Metric::new(
            "trace.overhead_frac",
            traced_run / untraced_run - 1.0,
            "ratio",
        ));
        m.extend(probes::run(w, args.seed));
        m
    } else {
        vec![
            Metric::new("inv_per_s", requests / wall, "1/s"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
            Metric::new("virt_rps", warm.analysis.steady_throughput_rps, "1/s"),
            Metric::new(
                "virt_mean_ms",
                lat.iter().sum::<f64>() / lat.len().max(1) as f64,
                "ms",
            ),
        ]
    };
    Outcome {
        metrics,
        attempted,
        failed,
        failures: checker.failures,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = out.failures.is_empty();
    let failed = if correct { out.failed } else { out.attempted };
    for m in &out.metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        metrics::result_json(correct, out.attempted, failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
