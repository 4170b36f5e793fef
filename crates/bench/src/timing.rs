//! A small in-tree wall-clock timing harness for the `benches/` targets.
//!
//! A [`Harness`] opens named groups ([`Harness::benchmark_group`]); each
//! [`Group::bench_function`] hands its closure a [`Bencher`], which times
//! a routine with [`Bencher::iter`], or with [`Bencher::iter_batched`]
//! when every iteration needs fresh input built outside the timed span.
//! Each benchmark is calibrated to a per-sample target time, measured
//! over a fixed number of samples, and reported as `median ns/iter` with
//! min/max spread; [`Harness::finish`] prints the summary table.
//!
//! Run via `cargo bench -p seuss-bench [-- <filter>]`; a filter substring
//! restricts which benchmarks execute (matching on `group/name`). The
//! `SEUSS_BENCH_SAMPLE_MS` env var scales per-sample time for quick
//! smoke runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A named benchmark id with an attached parameter.
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `new("lazy", 512)` renders as `lazy/512`.
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), param),
        }
    }
}

/// Top-level harness: owns the filter and the collected results.
pub struct Harness {
    filter: Option<String>,
    sample_target: Duration,
    results: Vec<(String, Stats)>,
}

/// Per-benchmark timing summary, in nanoseconds per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Median across samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Samples taken.
    pub samples: u32,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_args()
    }
}

impl Harness {
    /// Builds a harness, taking the first non-flag CLI argument as a
    /// substring filter (cargo bench passes `--bench` etc., skip those).
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        let sample_ms = std::env::var("SEUSS_BENCH_SAMPLE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4u64);
        Harness {
            filter,
            sample_target: Duration::from_millis(sample_ms),
            results: Vec::new(),
        }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            harness: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Prints the final report table. Call once from `main`.
    pub fn finish(&self) {
        if self.results.is_empty() {
            println!("no benchmarks matched the filter");
            return;
        }
        let width = self.results.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        println!(
            "\n{:width$}  {:>12}  {:>12}  {:>12}",
            "benchmark", "median", "min", "max"
        );
        for (name, s) in &self.results {
            println!(
                "{:width$}  {:>12}  {:>12}  {:>12}",
                name,
                fmt_ns(s.median_ns),
                fmt_ns(s.min_ns),
                fmt_ns(s.max_ns)
            );
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// A benchmark group; names report as `group/benchmark`.
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
    sample_size: u32,
}

impl Group<'_> {
    /// Overrides the number of samples (at least 5; default 20).
    pub fn sample_size(&mut self, n: u32) -> &mut Self {
        self.sample_size = n.max(5);
        self
    }

    /// Runs one benchmark. The closure receives a [`Bencher`] and must
    /// call [`Bencher::iter`] or [`Bencher::iter_batched`] exactly once.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.harness.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            sample_target: self.harness.sample_target,
            sample_size: self.sample_size,
            stats: None,
        };
        f(&mut b);
        let stats = b.stats.expect("bench closure must call iter()");
        println!("{full}: {} / iter", fmt_ns(stats.median_ns));
        self.harness.results.push((full, stats));
        self
    }

    /// Runs one benchmark named `id` over `input`, passed through to the
    /// closure.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let input_ref = input;
        self.bench_function(id.name.clone(), move |b| f(b, input_ref))
    }
}

/// Per-benchmark measurement driver.
pub struct Bencher {
    sample_target: Duration,
    sample_size: u32,
    stats: Option<Stats>,
}

impl Bencher {
    /// Measures `routine` in a tight loop.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        self.iter_batched(|| (), |()| routine());
    }

    /// Measures `routine` over fresh `setup` output per iteration; setup
    /// time is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibrate: grow the per-sample iteration count until one sample
        // costs ~sample_target (capped so slow benchmarks still finish).
        let mut iters: u64 = 1;
        loop {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            let once = start.elapsed();
            if once * iters as u32 >= self.sample_target || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size as usize);
        for _ in 0..self.sample_size {
            // Pre-build one input per iteration, outside the timed span.
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let elapsed = start.elapsed();
            samples_ns.push(elapsed.as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        self.stats = Some(Stats {
            median_ns: samples_ns[samples_ns.len() / 2],
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().expect("nonempty"),
            samples: self.sample_size,
            iters_per_sample: iters,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_reports() {
        let mut h = Harness {
            filter: None,
            sample_target: Duration::from_micros(50),
            results: Vec::new(),
        };
        let mut g = h.benchmark_group("t");
        g.bench_function("spin", |b| {
            b.iter(|| {
                let mut x = 0u64;
                for i in 0..100 {
                    x = x.wrapping_add(i);
                }
                x
            })
        });
        assert_eq!(h.results.len(), 1);
        let s = h.results[0].1;
        assert!(s.median_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = Harness {
            filter: Some("nomatch".into()),
            sample_target: Duration::from_micros(10),
            results: Vec::new(),
        };
        h.benchmark_group("g").bench_function("x", |b| b.iter(|| 1));
        assert!(h.results.is_empty());
    }

    #[test]
    fn batched_setup_excluded_from_iter_count() {
        let mut h = Harness {
            filter: None,
            sample_target: Duration::from_micros(20),
            results: Vec::new(),
        };
        h.benchmark_group("g")
            .bench_function("b", |b| b.iter_batched(|| vec![1u8; 16], |v| v.len()));
        assert_eq!(h.results.len(), 1);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(512.0), "512 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
    }
}
