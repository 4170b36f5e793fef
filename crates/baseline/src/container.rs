//! The Docker container engine: the primary Linux baseline.
//!
//! Two scaling laws from §7 drive everything:
//!
//! 1. *Creation latency grows with the number of live containers* —
//!    541 ms with an empty node, ≈1.5 s past 1 000 containers — and with
//!    the number of concurrent creations (multi-second at 16-way).
//! 2. *Every container is a bridge endpoint.* Broadcast processing is
//!    O(N) per packet, so past ≈1 000 endpoints connections start timing
//!    out (`seuss-net::Bridge`).
//!
//! The engine also models OpenWhisk's container lifecycle: containers are
//! bound to one function after code import (an unbound, pre-warmed
//! container is a *stemcell*), a container serves one invocation at a
//! time, and eviction (deletion) must precede creation once the cache
//! limit is reached.

use std::collections::BTreeMap;

use seuss_net::Bridge;
use seuss_trace::{TraceEvent, Tracer};
use simcore::SimDuration;

/// Function identity (mirrors `seuss-core::FnId`).
pub type FnId = u64;

/// Identifier of a container.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(u64);

/// Lifecycle state of a container.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerState {
    /// Pre-warmed runtime, no function code imported (stemcell).
    Stemcell,
    /// Code import (/init) in progress; not yet dispatchable.
    Initializing,
    /// Bound to a function, idle.
    Idle,
    /// Bound and currently serving an invocation.
    Busy,
}

/// One container's bookkeeping.
#[derive(Clone, Copy, Debug)]
pub struct Container {
    /// State.
    pub state: ContainerState,
    /// Bound function, if any.
    pub bound: Option<FnId>,
    /// LRU stamp.
    pub last_use: u64,
}

/// Engine errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DockerError {
    /// Container cache limit reached; evict before creating.
    CacheFull,
    /// Bridge endpoint limit reached.
    Bridge,
    /// Unknown container id.
    Unknown,
}

impl core::fmt::Display for DockerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DockerError::CacheFull => write!(f, "container cache full"),
            DockerError::Bridge => write!(f, "bridge endpoint limit"),
            DockerError::Unknown => write!(f, "unknown container"),
        }
    }
}

impl std::error::Error for DockerError {}

/// The Docker engine on the Linux compute node.
pub struct DockerEngine {
    /// Ordered by id, so every "pick one" query below chooses the lowest
    /// matching `ContainerId` and replays identically.
    containers: BTreeMap<ContainerId, Container>,
    /// The shared bridge all veth endpoints attach to.
    pub bridge: Bridge,
    /// Maximum containers the node will keep (OpenWhisk cache limit).
    pub cache_limit: usize,
    /// Resident memory per container, MiB (88 GB / 3 000).
    pub footprint_mib: f64,
    /// Creation latency with an empty, idle node.
    pub base_create: SimDuration,
    /// Added creation latency per live container.
    pub per_live: SimDuration,
    /// Added creation latency per concurrent creation (jointly calibrated
    /// with `per_live` so a 16-way parallel fill reproduces Table 3's
    /// ≈5.3 creations/s).
    pub per_concurrent: SimDuration,
    /// Container deletion latency.
    pub delete_latency: SimDuration,
    /// Latency to import function code into a stemcell (/init).
    pub init_latency: SimDuration,
    /// Latency of a hot dispatch (container already bound and idle).
    pub hot_dispatch: SimDuration,
    in_flight_creates: u64,
    next_id: u64,
    clock: u64,
    /// Containers created over the engine lifetime.
    pub created: u64,
    /// Containers deleted.
    pub deleted: u64,
    /// Connection attempts that timed out on the bridge.
    pub connect_failures: u64,
    /// Trace sink for container lifecycle events (disabled by default).
    pub tracer: Tracer,
}

impl DockerEngine {
    /// Calibrated to §7 with the paper's 1 024-container cache limit.
    pub fn paper(seed: u64) -> Self {
        DockerEngine {
            containers: BTreeMap::new(),
            bridge: Bridge::new(seed),
            cache_limit: 1024,
            footprint_mib: 29.3,
            base_create: SimDuration::from_millis(541),
            per_live: SimDuration::from_micros(960),
            per_concurrent: SimDuration::from_millis(50),
            delete_latency: SimDuration::from_millis(450),
            init_latency: SimDuration::from_millis(15),
            hot_dispatch: SimDuration::from_micros(600),
            in_flight_creates: 0,
            next_id: 0,
            clock: 0,
            created: 0,
            deleted: 0,
            connect_failures: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Variant with a custom cache limit (the paper also tried ~3 000,
    /// with catastrophic results).
    pub fn with_cache_limit(mut self, limit: usize) -> Self {
        self.cache_limit = limit;
        self.bridge = Bridge::new(7).with_max_endpoints(limit.max(1024) * 2);
        self
    }

    /// Live container count.
    pub fn live(&self) -> usize {
        self.containers.len()
    }

    /// Memory in use by containers, MiB.
    pub fn used_mib(&self) -> f64 {
        self.live() as f64 * self.footprint_mib
    }

    /// How many containers fit in `mem_mib` of memory (density limit).
    pub fn density_limit(&self, mem_mib: u64) -> u64 {
        (mem_mib as f64 / self.footprint_mib) as u64
    }

    /// Current creation latency, by the two scaling laws.
    pub fn create_latency(&self) -> SimDuration {
        self.base_create
            + self.per_live * self.live() as u64
            + self.per_concurrent * self.in_flight_creates
    }

    /// Begins creating a container. Fails if the cache is full.
    /// The caller schedules completion after the returned latency and
    /// then calls [`DockerEngine::finish_create`].
    pub fn start_create(&mut self) -> Result<SimDuration, DockerError> {
        if self.live() + self.in_flight_creates as usize >= self.cache_limit {
            return Err(DockerError::CacheFull);
        }
        // Contention counts the *other* creations in flight.
        let latency = self.create_latency();
        self.in_flight_creates += 1;
        self.tracer.event(TraceEvent::ContainerCreate);
        Ok(latency)
    }

    /// Completes a creation: attaches the veth endpoint and registers the
    /// container (as a stemcell, or bound directly when `bound` is set).
    pub fn finish_create(&mut self, bound: Option<FnId>) -> Result<ContainerId, DockerError> {
        debug_assert!(self.in_flight_creates > 0);
        self.in_flight_creates -= 1;
        if self.bridge.attach().is_err() {
            return Err(DockerError::Bridge);
        }
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        self.clock += 1;
        self.containers.insert(
            id,
            Container {
                state: if bound.is_some() {
                    ContainerState::Idle
                } else {
                    ContainerState::Stemcell
                },
                bound,
                last_use: self.clock,
            },
        );
        self.created += 1;
        Ok(id)
    }

    /// Power-cycles the node: every container — busy, idle, or stemcell —
    /// vanishes and its bridge endpoint detaches. Creations already in
    /// flight complete into the rebooted engine (their `finish_create`
    /// bookkeeping must still balance). Returns how many containers died.
    pub fn crash(&mut self) -> u64 {
        let lost = self.containers.len() as u64;
        for _ in 0..lost {
            self.bridge.detach();
        }
        self.containers.clear();
        lost
    }

    /// Deletes a container (evict). Returns the deletion latency.
    pub fn delete(&mut self, id: ContainerId) -> Result<SimDuration, DockerError> {
        self.containers.remove(&id).ok_or(DockerError::Unknown)?;
        self.bridge.detach();
        self.deleted += 1;
        self.tracer.event(TraceEvent::ContainerDelete);
        Ok(self.delete_latency)
    }

    /// The lowest-id idle container bound to `f`, if any (the hot path).
    pub fn idle_for(&self, f: FnId) -> Option<ContainerId> {
        self.containers
            .iter()
            .filter(|(_, c)| c.state == ContainerState::Idle && c.bound == Some(f))
            .map(|(id, _)| *id)
            .next()
    }

    /// Number of unbound stemcells.
    pub fn stemcell_count(&self) -> usize {
        self.containers
            .values()
            .filter(|c| c.state == ContainerState::Stemcell)
            .count()
    }

    /// The lowest-id unbound stemcell, if any.
    pub fn any_stemcell(&self) -> Option<ContainerId> {
        self.containers
            .iter()
            .filter(|(_, c)| c.state == ContainerState::Stemcell)
            .map(|(id, _)| *id)
            .next()
    }

    /// The least-recently-used idle or stemcell container (evict victim);
    /// equal `last_use`s go to the lowest id.
    pub fn lru_evictable(&self) -> Option<ContainerId> {
        self.containers
            .iter()
            .filter(|(_, c)| matches!(c.state, ContainerState::Idle | ContainerState::Stemcell))
            .min_by_key(|(_, c)| c.last_use)
            .map(|(id, _)| *id)
    }

    /// Starts binding a stemcell to a function (code import). Returns the
    /// /init latency; the container is `Initializing` (not dispatchable)
    /// until [`DockerEngine::finish_bind`].
    pub fn bind(&mut self, id: ContainerId, f: FnId) -> Result<SimDuration, DockerError> {
        let c = self.containers.get_mut(&id).ok_or(DockerError::Unknown)?;
        debug_assert_eq!(c.state, ContainerState::Stemcell, "bind requires stemcell");
        c.state = ContainerState::Initializing;
        c.bound = Some(f);
        Ok(self.init_latency)
    }

    /// Completes a bind: the container becomes Idle and dispatchable.
    pub fn finish_bind(&mut self, id: ContainerId) -> Result<(), DockerError> {
        let c = self.containers.get_mut(&id).ok_or(DockerError::Unknown)?;
        debug_assert_eq!(c.state, ContainerState::Initializing, "finish_bind order");
        c.state = ContainerState::Idle;
        Ok(())
    }

    /// Attempts the TCP connection from the controller into a container
    /// (crosses the bridge). On a saturated bridge this fails — the §7
    /// connection timeouts. Marks the container busy on success and
    /// returns the dispatch latency.
    pub fn dispatch(&mut self, id: ContainerId) -> Result<SimDuration, DockerError> {
        if self.containers.get(&id).ok_or(DockerError::Unknown)?.state != ContainerState::Idle {
            return Err(DockerError::Unknown);
        }
        if !self.bridge.connect() {
            self.connect_failures += 1;
            return Err(DockerError::Bridge);
        }
        let clock = {
            self.clock += 1;
            self.clock
        };
        let c = self.containers.get_mut(&id).ok_or(DockerError::Unknown)?;
        c.state = ContainerState::Busy;
        c.last_use = clock;
        Ok(self.hot_dispatch)
    }

    /// Marks an invocation finished; the container returns to Idle.
    /// Releasing a non-busy container is rejected.
    pub fn release(&mut self, id: ContainerId) -> Result<(), DockerError> {
        let c = self.containers.get_mut(&id).ok_or(DockerError::Unknown)?;
        if c.state != ContainerState::Busy {
            return Err(DockerError::Unknown);
        }
        c.state = ContainerState::Idle;
        Ok(())
    }

    /// Creation latency at an explicit concurrency level (for the
    /// parallel-fill harness, where all 16 cores create at once).
    pub fn latency_with(&self, concurrent: u64) -> SimDuration {
        self.base_create + self.per_live * self.live() as u64 + self.per_concurrent * concurrent
    }

    /// Container state lookup.
    pub fn get(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_create_near_541_ms() {
        let mut e = DockerEngine::paper(1);
        let lat = e.start_create().unwrap();
        assert_eq!(lat, SimDuration::from_millis(541));
        e.finish_create(None).unwrap();
        assert_eq!(e.live(), 1);
    }

    #[test]
    fn latency_grows_with_live_containers() {
        let mut e = DockerEngine::paper(2);
        for _ in 0..1000 {
            e.start_create().unwrap();
            e.finish_create(None).unwrap();
        }
        let lat = e.create_latency();
        // ≈ 541 ms + 1000 × 0.96 ms ≈ 1.5 s — the paper's observation.
        assert!((1.4..1.7).contains(&lat.as_secs_f64()), "{lat:?}");
    }

    #[test]
    fn latency_grows_with_concurrency() {
        let mut e = DockerEngine::paper(3);
        let first = e.start_create().unwrap();
        let mut last = first;
        for _ in 0..15 {
            last = e.start_create().unwrap();
        }
        // 541 ms alone, growing with each concurrent creation; jointly
        // calibrated with the live-count law so the 16-way fill rate
        // lands near Table 3's 5.3/s.
        assert_eq!(first, SimDuration::from_millis(541));
        assert!(last > first + SimDuration::from_millis(700), "{last:?}");
    }

    #[test]
    fn cache_limit_blocks_creation() {
        let mut e = DockerEngine::paper(4).with_cache_limit(2);
        for _ in 0..2 {
            e.start_create().unwrap();
            e.finish_create(None).unwrap();
        }
        assert_eq!(e.start_create(), Err(DockerError::CacheFull));
        // Evicting frees a slot.
        let victim = e.lru_evictable().unwrap();
        e.delete(victim).unwrap();
        assert!(e.start_create().is_ok());
    }

    #[test]
    fn stemcell_bind_then_hot() {
        let mut e = DockerEngine::paper(5);
        e.start_create().unwrap();
        let c = e.finish_create(None).unwrap();
        assert_eq!(e.get(c).unwrap().state, ContainerState::Stemcell);
        assert!(e.any_stemcell().is_some());
        e.bind(c, 42).unwrap();
        assert_eq!(e.get(c).unwrap().state, ContainerState::Initializing);
        assert!(
            e.dispatch(c).is_err(),
            "initializing container not dispatchable"
        );
        e.finish_bind(c).unwrap();
        assert_eq!(e.idle_for(42), Some(c));
        e.dispatch(c).unwrap();
        assert_eq!(e.get(c).unwrap().state, ContainerState::Busy);
        assert!(
            e.idle_for(42).is_none(),
            "busy container is not hot-available"
        );
        e.release(c).unwrap();
        assert_eq!(e.idle_for(42), Some(c));
    }

    #[test]
    fn lru_prefers_oldest_non_busy() {
        let mut e = DockerEngine::paper(6);
        e.start_create().unwrap();
        let a = e.finish_create(Some(1)).unwrap();
        e.start_create().unwrap();
        let b = e.finish_create(Some(2)).unwrap();
        assert_eq!(e.lru_evictable(), Some(a));
        e.dispatch(a).unwrap(); // a becomes busy
        assert_eq!(e.lru_evictable(), Some(b));
    }

    #[test]
    fn saturated_bridge_fails_dispatches() {
        let mut e = DockerEngine::paper(7).with_cache_limit(3000);
        for _ in 0..3000 {
            e.start_create().unwrap();
            e.finish_create(Some(1)).unwrap();
        }
        let mut failures = 0;
        for _ in 0..100 {
            let c = e.idle_for(1).unwrap();
            match e.dispatch(c) {
                Ok(_) => {
                    e.release(c).unwrap();
                }
                Err(DockerError::Bridge) => failures += 1,
                Err(other) => panic!("{other:?}"),
            }
        }
        assert!(
            failures > 50,
            "only {failures} bridge failures at 3000 endpoints"
        );
    }

    #[test]
    fn density_matches_table_3() {
        let e = DockerEngine::paper(8);
        let d = e.density_limit(88 * 1024);
        assert!((2900..3150).contains(&d), "{d}");
    }
}
