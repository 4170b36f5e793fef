//! Function specifications, the function registry, workload specs, and
//! the two generators that build them for the paper's benchmark (§7).
//!
//! "The benchmark works in trials, with each trial consisting of three
//! configuration parameters: invocation count (N), function set size (M),
//! and worker threads (C). Each trial consists of N invocations
//! distributed across a set of M functions, which are sent in a random
//! order (for repeatability, the send order is pre-computed and persisted
//! across trials)." [`TrialParams`] builds exactly that; [`BurstParams`]
//! builds the Figures 6–8 workload.

use std::collections::HashMap;

use seuss_core::RuntimeKind;
use simcore::{SimDuration, SimRng, SimTime};

/// Function identity.
pub type FnId = u64;

/// The three function shapes the evaluation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FnKind {
    /// The NOP JavaScript function (micro + throughput experiments).
    Nop,
    /// CPU-bound: spins for the given duration (burst functions, ≈150 ms).
    Cpu(SimDuration),
    /// IO-bound: one external HTTP call the server holds for its block
    /// time (≈250 ms), plus trivial CPU.
    Io,
}

/// A registered function: its kind, runtime, and its miniscript source.
#[derive(Clone, Debug)]
pub struct FnSpec {
    /// Behavioural class.
    pub kind: FnKind,
    /// The interpreter this function targets (Node.js by default).
    pub runtime: RuntimeKind,
    /// Source code (what SEUSS imports and compiles; Linux containers
    /// /init with it).
    pub src: String,
}

impl FnSpec {
    /// Builds the canonical source for a function kind.
    ///
    /// Each unique function gets a salt comment so that logically-unique
    /// functions have distinct sources, like distinct client uploads.
    pub fn new(kind: FnKind, salt: u64) -> Self {
        let src = match kind {
            FnKind::Nop => {
                format!("// fn {salt}\nfunction main(args) {{ return 0; }}")
            }
            FnKind::Cpu(d) => format!(
                "// fn {salt}\nfunction main(args) {{ spin({}); return 'done'; }}",
                d.as_nanos()
            ),
            FnKind::Io => format!(
                "// fn {salt}\nfunction main(args) {{ let r = http_get('http://ext/{salt}'); return r; }}"
            ),
        };
        FnSpec {
            kind,
            runtime: RuntimeKind::NodeJs,
            src,
        }
    }

    /// Rebinds the function to another runtime.
    pub fn on_runtime(mut self, runtime: RuntimeKind) -> Self {
        self.runtime = runtime;
        self
    }
}

/// The function store (the platform's CouchDB stand-in).
#[derive(Clone, Debug, Default)]
pub struct Registry {
    fns: HashMap<FnId, FnSpec>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers `count` unique functions of one kind starting at
    /// `first_id`. Returns the ids.
    pub fn register_many(&mut self, first_id: FnId, count: u64, kind: FnKind) -> Vec<FnId> {
        let ids: Vec<FnId> = (first_id..first_id + count).collect();
        for &id in &ids {
            self.fns.insert(id, FnSpec::new(kind, id));
        }
        ids
    }

    /// Registers one function.
    pub fn register(&mut self, id: FnId, kind: FnKind) {
        self.fns.insert(id, FnSpec::new(kind, id));
    }

    /// Registers one function bound to a specific runtime.
    pub fn register_on(&mut self, id: FnId, kind: FnKind, runtime: RuntimeKind) {
        self.fns
            .insert(id, FnSpec::new(kind, id).on_runtime(runtime));
    }

    /// Looks up a function.
    pub fn get(&self, id: FnId) -> Option<&FnSpec> {
        self.fns.get(&id)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }
}

/// A load description, mirroring the paper's benchmark tool: `N`
/// invocations over `M` functions issued by `C` closed-loop workers (with
/// an optional rate throttle), plus open-loop scheduled arrivals
/// (bursts).
#[derive(Clone, Debug, Default)]
pub struct WorkloadSpec {
    /// Precomputed shared request order for the closed-loop workers.
    pub order: Vec<FnId>,
    /// Number of closed-loop worker threads (`C`).
    pub workers: u32,
    /// Optional aggregate rate limit, requests per second.
    pub throttle_rps: Option<f64>,
    /// Open-loop arrivals: `(send time, function)` pairs (bursts).
    pub open_arrivals: Vec<(SimTime, FnId)>,
}

impl WorkloadSpec {
    /// A pure closed-loop trial.
    pub fn closed_loop(order: Vec<FnId>, workers: u32) -> Self {
        WorkloadSpec {
            order,
            workers,
            throttle_rps: None,
            open_arrivals: Vec::new(),
        }
    }

    /// Total requests this spec will issue.
    pub fn total_requests(&self) -> usize {
        self.order.len() + self.open_arrivals.len()
    }
}

/// Parameters of one closed-loop benchmark trial: N invocations over M
/// functions from C workers.
#[derive(Clone, Copy, Debug)]
pub struct TrialParams {
    /// Total invocations (N).
    pub invocations: u64,
    /// Unique function set size (M).
    pub set_size: u64,
    /// Closed-loop worker threads (C).
    pub workers: u32,
    /// Function shape.
    pub kind: FnKind,
    /// Seed for the precomputed send order.
    pub seed: u64,
}

impl TrialParams {
    /// A Figure-4 style trial: NOP functions, 32 workers, N scaled to the
    /// set size so every trial reaches steady state.
    pub fn throughput(set_size: u64, seed: u64) -> Self {
        TrialParams {
            invocations: (2 * set_size).max(8_192),
            set_size,
            workers: 32,
            kind: FnKind::Nop,
            seed,
        }
    }

    /// Builds the function registry and the precomputed random order.
    ///
    /// Every function appears ⌈N/M⌉ or ⌊N/M⌋ times; the order is a seeded
    /// shuffle, reproducible across backends (the paper reuses one order
    /// for both Linux and SEUSS).
    pub fn build(&self) -> (Registry, WorkloadSpec) {
        let mut registry = Registry::new();
        registry.register_many(0, self.set_size, self.kind);
        let mut order: Vec<u64> = (0..self.invocations).map(|i| i % self.set_size).collect();
        let mut rng = SimRng::new(self.seed);
        rng.shuffle(&mut order);
        (registry, WorkloadSpec::closed_loop(order, self.workers))
    }
}

/// The burst-resiliency workload of Figures 6–8.
///
/// "To generate the background utilization stream, we deploy our
/// benchmark using 128 threads that make requests to a total of 16 unique
/// IO-bound functions. The benchmark is rate-throttled to a limit of 72
/// requests per second. Each IO-bound function makes an external network
/// call to a remote HTTP server, which blocks for 250 ms … The CPU-bound
/// burst functions each perform a computation that takes around 150 ms.
/// Bursts are sent at a fixed frequency of every 32, 16, or 8 seconds"
/// with each burst hitting one never-before-seen function (§7).
#[derive(Clone, Copy, Debug)]
pub struct BurstParams {
    /// Seconds between bursts (32, 16, or 8 in the paper).
    pub period_s: u64,
    /// Number of bursts in the run.
    pub bursts: u32,
    /// Concurrent invocations per burst.
    pub burst_size: u32,
    /// CPU time of the burst function.
    pub burst_cpu: SimDuration,
    /// Unique IO-bound background functions.
    pub background_fns: u64,
    /// Closed-loop background workers.
    pub background_workers: u32,
    /// Background rate throttle, requests per second.
    pub background_rps: f64,
    /// Warm-up before the first burst.
    pub lead_in_s: u64,
}

impl BurstParams {
    /// The paper's configuration at a given burst period.
    pub fn paper(period_s: u64) -> Self {
        BurstParams {
            period_s,
            bursts: 10,
            burst_size: 128,
            burst_cpu: SimDuration::from_millis(150),
            background_fns: 16,
            background_workers: 128,
            background_rps: 72.0,
            lead_in_s: 8,
        }
    }

    /// Total experiment span (lead-in plus all bursts plus drain).
    pub fn span(&self) -> SimDuration {
        SimDuration::from_secs(self.lead_in_s + self.period_s * self.bursts as u64 + 5)
    }

    /// Builds the registry and workload: background ids 0..background_fns
    /// (IO-bound), burst ids 1000, 1001, … (one fresh CPU function per
    /// burst).
    pub fn build(&self) -> (Registry, WorkloadSpec) {
        let mut registry = Registry::new();
        registry.register_many(0, self.background_fns, FnKind::Io);

        // Background stream: enough closed-loop requests to span the run
        // at the throttled rate. Round to nearest: a bare cast truncates
        // toward zero, silently dropping a request whenever rate × span
        // lands just below an integer (e.g. 89.9999995 → 89).
        let total_bg = (self.background_rps * self.span().as_secs_f64()).round() as u64;
        let order: Vec<u64> = (0..total_bg).map(|i| i % self.background_fns).collect();

        let mut spec = WorkloadSpec::closed_loop(order, self.background_workers);
        spec.throttle_rps = Some(self.background_rps);

        for b in 0..self.bursts {
            let fn_id = 1_000 + b as u64;
            registry.register(fn_id, FnKind::Cpu(self.burst_cpu));
            let at = SimTime::from_secs(self.lead_in_s + self.period_s * b as u64);
            for _ in 0..self.burst_size {
                spec.open_arrivals.push((at, fn_id));
            }
        }
        (registry, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_distinct_per_salt() {
        let a = FnSpec::new(FnKind::Nop, 1);
        let b = FnSpec::new(FnKind::Nop, 2);
        assert_ne!(a.src, b.src);
        assert!(a.src.contains("function main"));
    }

    #[test]
    fn cpu_source_embeds_duration() {
        let s = FnSpec::new(FnKind::Cpu(SimDuration::from_millis(150)), 0);
        assert!(s.src.contains("spin(150000000)"), "{}", s.src);
    }

    #[test]
    fn registry_round_trip() {
        let mut r = Registry::new();
        let ids = r.register_many(0, 10, FnKind::Nop);
        assert_eq!(ids.len(), 10);
        assert_eq!(r.len(), 10);
        assert!(r.get(9).is_some());
        assert!(r.get(10).is_none());
    }

    #[test]
    fn workload_counts() {
        let mut w = WorkloadSpec::closed_loop(vec![1, 2, 3], 2);
        w.open_arrivals.push((SimTime::from_secs(1), 9));
        assert_eq!(w.total_requests(), 4);
    }

    #[test]
    fn order_covers_all_functions_evenly() {
        let p = TrialParams {
            invocations: 100,
            set_size: 10,
            workers: 4,
            kind: FnKind::Nop,
            seed: 1,
        };
        let (reg, spec) = p.build();
        assert_eq!(reg.len(), 10);
        assert_eq!(spec.order.len(), 100);
        for f in 0..10u64 {
            assert_eq!(spec.order.iter().filter(|&&x| x == f).count(), 10);
        }
    }

    #[test]
    fn order_is_deterministic_per_seed() {
        let p = TrialParams {
            invocations: 50,
            set_size: 5,
            workers: 1,
            kind: FnKind::Nop,
            seed: 7,
        };
        assert_eq!(p.build().1.order, p.build().1.order);
        let mut q = p;
        q.seed = 8;
        assert_ne!(p.build().1.order, q.build().1.order);
    }

    #[test]
    fn order_is_shuffled() {
        let p = TrialParams {
            invocations: 64,
            set_size: 64,
            workers: 1,
            kind: FnKind::Nop,
            seed: 3,
        };
        let sorted: Vec<u64> = (0..64).collect();
        assert_ne!(p.build().1.order, sorted);
    }

    #[test]
    fn throughput_trial_scales_n() {
        let small = TrialParams::throughput(64, 0);
        assert_eq!(small.invocations, 8_192);
        let big = TrialParams::throughput(65_536, 0);
        assert_eq!(big.invocations, 131_072);
        assert_eq!(big.workers, 32);
    }

    #[test]
    fn zipf_skew_boosts_hot_hits_end_to_end() {
        use crate::{run_trial, BackendKind, ClusterConfig};
        use seuss_core::SeussConfig;
        use simcore::Zipf;
        let run = |alpha: f64| {
            let mut reg = Registry::new();
            reg.register_many(0, 64, FnKind::Nop);
            let dist = Zipf::new(64, alpha);
            let mut rng = SimRng::new(3);
            let order: Vec<u64> = (0..512).map(|_| dist.sample(&mut rng)).collect();
            let node = SeussConfig::builder()
                .mem_mib(2048)
                .build()
                .expect("valid test config");
            let cfg = ClusterConfig {
                backend: BackendKind::Seuss(Box::new(node)),
                ..ClusterConfig::seuss_paper()
            };
            run_trial(cfg, reg, &WorkloadSpec::closed_loop(order, 8))
                .analysis
                .paths
        };
        let skewed = run(1.2);
        let uniform = run(0.0);
        // Hot-path share rises with skew.
        assert!(
            skewed.2 > uniform.2,
            "skewed hot {} vs uniform hot {}",
            skewed.2,
            uniform.2
        );
    }

    #[test]
    fn builds_paper_shape() {
        let p = BurstParams::paper(32);
        let (reg, spec) = p.build();
        // 16 IO fns + 10 burst fns.
        assert_eq!(reg.len(), 26);
        assert_eq!(spec.open_arrivals.len(), 10 * 128);
        assert_eq!(spec.workers, 128);
        assert_eq!(spec.throttle_rps, Some(72.0));
    }

    #[test]
    fn bursts_are_periodic_and_unique() {
        let p = BurstParams::paper(16);
        let (_, spec) = p.build();
        let mut times: Vec<u64> = spec
            .open_arrivals
            .iter()
            .map(|(t, _)| t.as_nanos() / 1_000_000_000)
            .collect();
        times.dedup();
        assert_eq!(times.len(), 10);
        assert_eq!(times[1] - times[0], 16);
        // Each burst targets its own function.
        let fns: std::collections::HashSet<u64> =
            spec.open_arrivals.iter().map(|&(_, f)| f).collect();
        assert_eq!(fns.len(), 10);
    }

    #[test]
    fn background_spans_experiment() {
        let p = BurstParams::paper(8);
        let (_, spec) = p.build();
        let expect = (72.0 * p.span().as_secs_f64()).round() as usize;
        assert_eq!(spec.order.len(), expect);
    }

    #[test]
    fn background_count_rounds_at_fractional_boundary() {
        // span = 8 + 4·10 + 5 = 53 s; 1.9999999 rps × 53 s = 105.9999947,
        // which a bare `as u64` cast truncated to 105.
        let p = BurstParams {
            background_rps: 1.999_999_9,
            ..BurstParams::paper(4)
        };
        assert_eq!(p.span(), SimDuration::from_secs(53));
        let (_, spec) = p.build();
        assert_eq!(spec.order.len(), 106, "must round, not truncate");
    }
}
