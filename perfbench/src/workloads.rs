//! The four benchmark workloads.
//!
//! Each workload is a fixed-size closed loop of 32 virtual workers (the
//! paper's C) over a generated function registry and request order. Only
//! the order (and, for `zipf-hot`, the popularity draw) depends on the
//! seed; sizes and node configurations are fixed, so host time is
//! compared at a fixed input size.

use seuss_core::SeussConfig;
use seuss_platform::{BackendKind, ClusterConfig, FnKind, Registry, WorkloadSpec};
use seuss_store::StoreConfig;
use simcore::{SimRng, Zipf};

/// Closed-loop virtual workers (the paper's C).
pub const WORKERS: u32 = 32;

/// The seed whose record digests are pinned in [`Workload::golden`].
pub const DEFAULT_SEED: u64 = 42;

/// How the request order is drawn.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// Every function `requests / fns` times, seeded shuffle
    /// (`TrialParams::throughput` shape).
    Uniform,
    /// Zipf popularity with the given exponent.
    Zipf(f64),
}

/// The compute backend a workload runs on.
#[derive(Clone, Copy, Debug)]
enum Node {
    /// SEUSS node with this much DRAM, optionally with the NVMe tier
    /// (working-set prefetch, demote-coldest reclaim).
    Seuss { mem_mib: u64, tier: bool },
    /// The paper's Linux/Docker node (1024-container cache).
    Linux,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    fns: u64,
    requests: u64,
    /// Every `io_every`-th function is `FnKind::Io` (0: none).
    io_every: u64,
    order: Order,
    node: Node,
    /// FNV-1a digest of the records JSONL at [`DEFAULT_SEED`].
    pub golden: u64,
}

/// Every workload. `BENCHMARK.json` lists the first three; `linux-churn`
/// still runs by name, but its records are not yet reproducible (see
/// `perfbench/README.md`).
pub const WORKLOADS: [Workload; 4] = [
    // Uniform over more functions than DRAM caches: the OOM daemon
    // reclaims on most deploys; cold path and reclaim dominate.
    Workload {
        name: "fig4-pressure",
        fns: 1536,
        requests: 3072,
        io_every: 0,
        order: Order::Uniform,
        node: Node::Seuss {
            mem_mib: 1536,
            tier: false,
        },
        golden: 0x55cb_032b_0038_5116,
    },
    // Zipf-hot set that fits in DRAM, 1 in 8 functions IO-bound: hot
    // path, event engine and dispatch; the OOM daemon never runs.
    Workload {
        name: "zipf-hot",
        fns: 2048,
        requests: 65_536,
        io_every: 8,
        order: Order::Zipf(1.0),
        node: Node::Seuss {
            mem_mib: 24 * 1024,
            tier: false,
        },
        golden: 0x1b29_a903_c122_daad,
    },
    // Uniform over a set several times DRAM, with the storage tier: the
    // OOM daemon demotes instead of evicting.
    Workload {
        name: "tier-demote",
        fns: 320,
        requests: 1280,
        io_every: 0,
        order: Order::Uniform,
        node: Node::Seuss {
            mem_mib: 256,
            tier: true,
        },
        golden: 0x0111_453a_5636_a3c0,
    },
    // Linux backend past its 1024-container cache: container create and
    // LRU delete on most requests.
    Workload {
        name: "linux-churn",
        fns: 4096,
        requests: 16_384,
        io_every: 0,
        order: Order::Uniform,
        node: Node::Linux,
        golden: 0x7ff3_0656_8679_d287,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Generates the registry and the request order for `seed`.
    pub fn build(&self, seed: u64) -> (Registry, WorkloadSpec) {
        let mut registry = Registry::new();
        for id in 0..self.fns {
            let io = self.io_every > 0 && id % self.io_every == self.io_every - 1;
            registry.register(id, if io { FnKind::Io } else { FnKind::Nop });
        }
        let mut rng = SimRng::new(seed);
        let order: Vec<u64> = match self.order {
            Order::Uniform => {
                let mut order: Vec<u64> = (0..self.requests).map(|i| i % self.fns).collect();
                rng.shuffle(&mut order);
                order
            }
            Order::Zipf(alpha) => {
                let dist = Zipf::new(self.fns, alpha);
                (0..self.requests).map(|_| dist.sample(&mut rng)).collect()
            }
        };
        (registry, WorkloadSpec::closed_loop(order, WORKERS))
    }

    /// The cluster configuration (fresh each call: it owns a tracer).
    pub fn cluster_config(&self) -> ClusterConfig {
        match self.node {
            Node::Seuss { mem_mib, tier } => ClusterConfig {
                backend: BackendKind::Seuss(Box::new(self.seuss_config(mem_mib, tier))),
                ..ClusterConfig::seuss_paper()
            },
            Node::Linux => ClusterConfig::linux_paper(),
        }
    }

    /// The SEUSS node configuration the layer probes use: the workload's
    /// own node, or the paper's node (with DRAM cut to 4 GiB) for the
    /// Linux workload. The probes always get a storage tier.
    pub fn probe_config(&self) -> SeussConfig {
        match self.node {
            Node::Seuss { mem_mib, .. } => self.seuss_config(mem_mib, true),
            Node::Linux => self.seuss_config(4 * 1024, true),
        }
    }

    fn seuss_config(&self, mem_mib: u64, tier: bool) -> SeussConfig {
        SeussConfig::builder()
            .mem_mib(mem_mib)
            .store(tier.then(StoreConfig::nvme_prefetch))
            .build()
            .expect("benchmark node configuration is valid")
    }
}
