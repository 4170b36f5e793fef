//! DR-SEUSS (§9 future work): quantifies distributed snapshot migration.
//!
//! Scenario: a cluster where functions go viral — a function cold-starts
//! on one node, then requests for it land on every other node. Compares
//! three ways the other nodes can serve it:
//!
//! * recompile locally (what single-node SEUSS would do: a cold start),
//! * fetch the function snapshot *diff* from a holder and warm-start
//!   (DR-SEUSS; every node already holds the runtime snapshot),
//! * ship the *full* image (what a system without shared runtime
//!   snapshots would pay).
//!
//! Every node boots the same runtime snapshot, so a migration is
//! [`SeussNode::export_fn_snapshot`] on the function's home node and
//! [`SeussNode::install_fn_snapshot`] on the peer, priced by a 10 GbE
//! datacenter link plus a per-page install charge.

use seuss_core::{FnId, Invocation, PathKind, SeussConfig, SeussNode};
use seuss_net::TcpCostModel;
use simcore::SimDuration;

use crate::Table;

/// Measured outcome of one viral-load run.
#[derive(Clone, Debug)]
pub struct DrSeussReport {
    /// Virtual initialization cost of one node (nodes boot in parallel).
    pub init: SimDuration,
    /// Latency of every local cold start, in ms.
    pub cold_ms: Vec<f64>,
    /// Latency of every remote-warm start (diff fetch + install + warm
    /// start), in ms.
    pub remote_warm_ms: Vec<f64>,
    /// Peer requests served hot from the peer's own idle-UC cache.
    pub hot: u64,
    /// Bytes shipped between nodes by all migrations.
    pub bytes_transferred: u64,
    /// Wire size of the runtime+function image shipped whole.
    pub full_image_bytes: u64,
    /// Wire time of the full image, in ms.
    pub full_ship_ms: f64,
    /// Bytes an on-demand-paging transfer ships up front.
    pub lazy_eager_bytes: u64,
    /// Wire time of that up-front part, in ms.
    pub lazy_ship_ms: f64,
    /// Pages an on-demand-paging transfer faults in later.
    pub lazy_remote_pages: u64,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

impl DrSeussReport {
    /// Mean local cold-start latency in ms.
    pub fn mean_cold_ms(&self) -> f64 {
        mean(&self.cold_ms)
    }

    /// Mean remote-warm latency in ms.
    pub fn mean_remote_warm_ms(&self) -> f64 {
        mean(&self.remote_warm_ms)
    }

    /// Mean shipped diff per migration, in MiB.
    pub fn mean_diff_mib(&self) -> f64 {
        self.bytes_transferred as f64 / self.remote_warm_ms.len().max(1) as f64 / (1024.0 * 1024.0)
    }

    /// The printed report: the strategy table, the path counts, and §9's
    /// claim with the measured wire-time ratio.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "DR-SEUSS: serving a function the node has never seen",
            &["strategy", "mean latency (ms)", "notes"],
        );
        t.row(&[
            "local cold (recompile)".into(),
            format!("{:.2}", self.mean_cold_ms()),
            "single-node SEUSS behaviour".into(),
        ]);
        t.row(&[
            "remote-warm (diff fetch)".into(),
            format!("{:.2}", self.mean_remote_warm_ms()),
            format!("~{:.1} MiB diff over 10 GbE", self.mean_diff_mib()),
        ]);
        t.row(&[
            "full-image ship (wire only)".into(),
            format!("{:.2}", self.full_ship_ms),
            format!(
                "{:.0} MiB runtime+fn image",
                self.full_image_bytes as f64 / (1024.0 * 1024.0)
            ),
        ]);
        t.row(&[
            "on-demand paging (upfront wire)".into(),
            format!("{:.2}", self.lazy_ship_ms),
            format!(
                "{:.1} MiB working set now, {} pages faulted later",
                self.lazy_eager_bytes as f64 / (1024.0 * 1024.0),
                self.lazy_remote_pages
            ),
        ]);
        format!(
            "{}\n\
             cluster stats: {} cold / {} remote-warm / {} hot; {:.1} MiB shipped total\n\
             \n\
             §9's claim, quantified: because every node holds the per-interpreter\n\
             runtime snapshot, a function snapshot migrates as a ~2 MiB diff and a\n\
             remote warm start beats recompiling — while shipping whole images\n\
             would cost {:.0}x more wire time.\n",
            t.render(),
            self.cold_ms.len(),
            self.remote_warm_ms.len(),
            self.hot,
            self.bytes_transferred as f64 / (1024.0 * 1024.0),
            self.full_ship_ms / self.mean_remote_warm_ms().max(0.001)
        )
    }
}

/// Inter-node bandwidth: 10 GbE is about 1.25 GB/s.
const LINK_BYTES_PER_S: f64 = 1.25e9;

/// Install cost per shipped page: the import's page writes are charged
/// like a capture's per-page clone.
const INSTALL_PER_PAGE: SimDuration = SimDuration::from_nanos(800);

/// Time to ship `bytes` between two nodes over a fresh connection.
fn wire_time(bytes: u64) -> SimDuration {
    let link = TcpCostModel::datacenter();
    link.handshake()
        + link.transfer(0)
        + SimDuration::from_secs_f64(bytes as f64 / LINK_BYTES_PER_S)
}

/// Runs `f` on `node` and returns the path it took and its cost.
fn serve(node: &mut SeussNode, f: FnId, src: &str) -> (PathKind, SimDuration) {
    match node.invoke(f, src, &[]).expect("invoke") {
        Invocation::Completed { path, costs, .. } => (path, costs.total()),
        Invocation::Blocked { .. } => panic!("the viral functions never block on IO"),
    }
}

/// Runs the viral pattern on `nodes` 4 GiB nodes: each of `functions`
/// functions cold-starts on its home node, then is requested once on
/// every other node, which fetches the snapshot diff from the home node
/// unless it already holds the function.
pub fn run_dr_seuss(nodes: usize, functions: u64) -> DrSeussReport {
    assert!(nodes > 0, "a cluster needs at least one node");
    let cfg = SeussConfig::builder()
        .mem_mib(4 * 1024)
        .build()
        .expect("valid dr-seuss config");
    // Nodes boot in parallel: the cluster is ready after the slowest.
    let mut init = SimDuration::ZERO;
    let mut cluster: Vec<SeussNode> = (0..nodes)
        .map(|_| {
            let (node, cost) = SeussNode::new(cfg.clone()).expect("node");
            init = init.max(cost);
            node
        })
        .collect();

    let src = |f: u64| format!("// fn {f}\nfunction main(args) {{ return {f}; }}");

    let mut cold = Vec::new();
    let mut remote = Vec::new();
    let mut hot = 0;
    let mut bytes_transferred = 0;
    for f in 0..functions {
        let home = (f % nodes as u64) as usize;
        let (p, c) = serve(&mut cluster[home], f, &src(f));
        assert_eq!(p, PathKind::Cold);
        cold.push(c.as_millis_f64());
        for peer in 0..nodes {
            if peer == home {
                continue;
            }
            let held =
                cluster[peer].fn_cache.peek(f).is_some() || cluster[peer].idle.count_for(f) > 0;
            if held {
                let (p, _) = serve(&mut cluster[peer], f, &src(f));
                assert_eq!(p, PathKind::Hot, "unexpected local path");
                hot += 1;
                continue;
            }
            let package = cluster[home].export_fn_snapshot(f).expect("export");
            cluster[peer]
                .install_fn_snapshot(f, &package)
                .expect("install");
            bytes_transferred += package.wire_bytes();
            let fetch =
                wire_time(package.wire_bytes()) + INSTALL_PER_PAGE * package.snapshot.page_count();
            let (p, c) = serve(&mut cluster[peer], f, &src(f));
            assert_eq!(p, PathKind::Warm, "an installed snapshot starts warm");
            remote.push((c + fetch).as_millis_f64());
        }
    }
    // Full-image shipping for comparison: the runtime snapshot travels too.
    let full_pkg = {
        let node = &cluster[0];
        let img = node.runtime_image().expect("runtime image");
        node.images
            .export(&node.mmu, &node.mem, &node.snaps, img, None)
            .expect("export full")
    };
    let full_ship_ms = wire_time(full_pkg.wire_bytes()).as_millis_f64();

    // On-demand paging variant (§9): ship only the working set up front.
    // For the NOP function the resume working set dominates its diff, so
    // the upfront wire time shrinks accordingly.
    let (lazy_eager_bytes, lazy_remote_pages) = {
        let node = &cluster[0];
        // Function 0 cold-started on node 0, so its image is cached there.
        let img = node.fn_cache.peek(0).expect("fn 0 cached on node 0");
        let base = node.runtime_image().expect("base");
        let base_snap = node.images.snapshot_of(base).expect("base snap");
        let fn_snap = node.images.snapshot_of(img).expect("fn snap");
        let lazy = seuss_snapshot::export_lazy(
            &node.mmu,
            &node.mem,
            &node.snaps,
            fn_snap,
            base_snap,
            360, // the driver's resume working set
        )
        .expect("lazy export");
        (lazy.eager_wire_bytes(), lazy.remote_pages())
    };
    let lazy_ship_ms = wire_time(lazy_eager_bytes).as_millis_f64();

    DrSeussReport {
        init,
        cold_ms: cold,
        remote_warm_ms: remote,
        hot,
        bytes_transferred,
        full_image_bytes: full_pkg.wire_bytes(),
        full_ship_ms,
        lazy_eager_bytes,
        lazy_ship_ms,
        lazy_remote_pages,
    }
}
