//! The traced run: a `World` that wraps `Cluster`, times every event from
//! outside, and attributes the time to layers by reading the public
//! counters of the node (or Docker engine) before and after each event.
//!
//! The world is only mutated inside `handle`, so the counters read after
//! one event are the counters before the next: one read per event.

use std::time::Instant;

use seuss_platform::cluster::Ev;
use seuss_platform::Cluster;
use simcore::{Scheduler, SimTime, World};

/// Event kinds with their own accumulator; everything else (stemcells,
/// faults, retries, any variant added later) lands in `other`.
pub const EV_KINDS: [&str; 11] = [
    "WorkerIssue",
    "Arrive",
    "NodeReceive",
    "SegmentEnd",
    "IoReply",
    "CreationDone",
    "BindDone",
    "DeleteDone",
    "Complete",
    "Timeout",
    "other",
];

fn ev_kind(ev: &Ev) -> usize {
    match ev {
        Ev::WorkerIssue(_) => 0,
        Ev::Arrive(_) => 1,
        Ev::NodeReceive(_) => 2,
        Ev::SegmentEnd { .. } => 3,
        Ev::IoReply(_) => 4,
        Ev::CreationDone(_) => 5,
        Ev::BindDone { .. } => 6,
        Ev::DeleteDone(_) => 7,
        Ev::Complete { .. } => 8,
        Ev::Timeout(_) => 9,
        _ => 10,
    }
}

/// SEUSS invocation paths, in `NodeStats` field order.
pub const PATHS: [&str; 4] = ["cold", "warm", "hot", "warm_tier"];

/// The public counters read around each event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Completed invocations per path (`PATHS` order).
    pub paths: [u64; 4],
    /// Failed invocations.
    pub errors: u64,
    /// OOM-daemon reclaim actions (idle UCs, demotions, evictions).
    pub reclaims: u64,
    /// Invocations blocked on external IO.
    pub blocked: usize,
    /// Frames in use.
    pub used_frames: u64,
    /// Cached function snapshots.
    pub fn_cache: usize,
    /// Cached idle UCs.
    pub idle: usize,
    /// Live mechanical snapshots (a count that scans the store, so it
    /// is re-read only after events that may capture or delete one).
    pub snapshots: usize,
    /// Device blocks in use by the storage tier.
    pub tier_blocks: u64,
    /// Docker containers created and deleted so far.
    pub docker_churn: u64,
    /// Live Docker containers.
    pub docker_live: usize,
}

impl Counters {
    /// Reads the counters of a cluster's backend, except `snapshots`.
    pub fn read(c: &Cluster) -> Counters {
        let mut k = Counters::default();
        if let Some(n) = c.seuss_node() {
            let s = n.stats;
            k.paths = [s.cold, s.warm, s.hot, s.warm_tier];
            k.errors = s.errors;
            k.reclaims = s.oom_reclaims;
            k.blocked = n.blocked_count();
            k.used_frames = n.mem.stats().used_frames;
            k.fn_cache = n.fn_cache.len();
            k.idle = n.idle.len();
            k.tier_blocks = n.tier.as_ref().map_or(0, |t| t.used_blocks());
        }
        if let Some(d) = c.docker() {
            k.docker_churn = d.created + d.deleted;
            k.docker_live = d.live();
        }
        k
    }

    /// Whether the node invoked, blocked, failed or reclaimed since
    /// `before`.
    fn node_worked(&self, before: &Counters) -> bool {
        self.paths != before.paths
            || self.blocked != before.blocked
            || self.errors != before.errors
            || self.reclaims != before.reclaims
    }

    /// Whether the events since `before` may have captured a snapshot
    /// (a cold start, which may block before it completes) or deleted
    /// one (a reclaim or a failure).
    fn snapshots_may_differ(&self, before: &Counters) -> bool {
        self.paths[0] != before.paths[0]
            || self.blocked > before.blocked
            || self.errors != before.errors
            || self.reclaims != before.reclaims
    }

    fn max_with(&mut self, o: &Counters) {
        self.used_frames = self.used_frames.max(o.used_frames);
        self.fn_cache = self.fn_cache.max(o.fn_cache);
        self.idle = self.idle.max(o.idle);
        self.snapshots = self.snapshots.max(o.snapshots);
        self.tier_blocks = self.tier_blocks.max(o.tier_blocks);
        self.docker_live = self.docker_live.max(o.docker_live);
    }
}

fn snapshot_count(c: &Cluster) -> usize {
    c.seuss_node().map_or(0, |n| n.snaps.len())
}

/// A class of events: how many, and their raw host nanoseconds inside
/// `Cluster::handle` (the clock read not yet removed).
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }
}

/// `Cluster` wrapped with per-event host timing.
pub struct Traced {
    /// The wrapped world.
    pub inner: Cluster,
    prev: Counters,
    /// Maxima of the level counters over the run.
    pub max: Counters,
    /// Per event kind (`EV_KINDS` order).
    pub kinds: [Acc; EV_KINDS.len()],
    /// Raw handle nanoseconds of events with exactly one completed
    /// invocation of a path, no reclaim and no IO block/resume change,
    /// per path.
    pub path_ns: [Vec<u64>; 4],
    /// Events that reclaimed.
    pub reclaim: Acc,
    /// Events that did no node work, no reclaim and no container
    /// create/delete.
    pub platform: Acc,
    /// Events that created or deleted a Docker container.
    pub docker: Acc,
    /// Host nanoseconds spent counting snapshots between events.
    pub snapshot_read_ns: u64,
}

impl Traced {
    /// Wraps a freshly built cluster.
    pub fn new(inner: Cluster) -> Traced {
        let mut prev = Counters::read(&inner);
        prev.snapshots = snapshot_count(&inner);
        Traced {
            inner,
            prev,
            max: prev,
            kinds: Default::default(),
            path_ns: Default::default(),
            reclaim: Acc::default(),
            platform: Acc::default(),
            docker: Acc::default(),
            snapshot_read_ns: 0,
        }
    }

    /// Events handled so far.
    pub fn events(&self) -> u64 {
        self.kinds.iter().map(|k| k.calls).sum()
    }

    /// Raw nanoseconds inside `Cluster::handle` so far.
    pub fn handle_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.ns).sum()
    }

    fn account(&mut self, kind: usize, ns: u64, before: &Counters, after: &Counters) {
        self.kinds[kind].add(ns);
        self.max.max_with(after);

        if after.reclaims > before.reclaims {
            self.reclaim.add(ns);
            return;
        }
        let completed: u64 = (0..4).map(|p| after.paths[p] - before.paths[p]).sum();
        if completed == 1 && after.blocked == before.blocked {
            let p = (0..4)
                .find(|&p| after.paths[p] != before.paths[p])
                .expect("one path advanced");
            self.path_ns[p].push(ns);
        }
        if after.docker_churn != before.docker_churn {
            self.docker.add(ns);
        } else if !after.node_worked(before) {
            self.platform.add(ns);
        }
    }
}

impl World for Traced {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let kind = ev_kind(&ev);
        let t0 = Instant::now();
        self.inner.handle(now, ev, sched);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut after = Counters::read(&self.inner);
        after.snapshots = self.prev.snapshots;
        if after.snapshots_may_differ(&self.prev) {
            let t = Instant::now();
            after.snapshots = snapshot_count(&self.inner);
            self.snapshot_read_ns += t.elapsed().as_nanos() as u64;
        }
        let before = std::mem::replace(&mut self.prev, after);
        self.account(kind, ns, &before, &after);
    }
}
