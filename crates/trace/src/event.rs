//! Typed trace events: points in virtual time, parented to spans.

use simcore::SimTime;

use crate::span::SpanId;

/// Which cache a hit/miss event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// The SEUSS idle-UC cache (hot path).
    IdleUc,
    /// The SEUSS function-snapshot cache (warm path).
    FnSnapshot,
    /// Linux: an idle bound container (hot dispatch).
    Container,
    /// Linux: the unbound stemcell pool.
    Stemcell,
}

impl CacheKind {
    /// Lowercase name used in trace output.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheKind::IdleUc => "idle_uc",
            CacheKind::FnSnapshot => "fn_snapshot",
            CacheKind::Container => "container",
            CacheKind::Stemcell => "stemcell",
        }
    }
}

/// A typed trace event. The taxonomy covers the mechanism operations the
/// paper attributes time and memory to (see DESIGN.md "Observability").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// The MMU serviced a demand-zero page fault.
    PageFault,
    /// The MMU broke a COW share (cloned a frame).
    CowBreak,
    /// A root switch flushed the TLB.
    TlbFlush,
    /// A snapshot was captured; `dirty_pages` is its page-level diff.
    SnapshotCapture {
        /// Pages the captured UC had dirtied since deploy.
        dirty_pages: u64,
    },
    /// A UC address space was deployed from a snapshot.
    SnapshotDeploy,
    /// A UC deploy copied frames while resuming (COW + demand-zero).
    FramesCopied {
        /// Frames copied during the resume writes.
        frames: u64,
    },
    /// A lookup hit one of the caches.
    CacheHit {
        /// Which cache.
        cache: CacheKind,
    },
    /// A lookup missed one of the caches.
    CacheMiss {
        /// Which cache.
        cache: CacheKind,
    },
    /// A request crossed the SEUSS shim process (one direction).
    ShimHop,
    /// The platform timed a request out.
    Timeout,
    /// A task queued because every core was busy.
    CoreQueued,
    /// Linux: a container creation started.
    ContainerCreate,
    /// Linux: a container was deleted (evicted).
    ContainerDelete,
    /// Injected: the compute node crashed (caches and in-flight work lost).
    FaultNodeCrash,
    /// The crashed node finished rebooting and serves again.
    FaultNodeRestart,
    /// Injected: a request's packet was dropped by an active loss window.
    FaultPacketDrop,
    /// Injected: transient memory pressure began (`frames` withheld).
    FaultMemPressure {
        /// Frames withheld from the pool.
        frames: u64,
    },
    /// Injected: a core started running slow.
    FaultStraggler,
    /// Injected: a cached function snapshot failed its integrity check.
    FaultSnapshotCorrupt,
    /// The platform retried a faulted request (backoff scheduled).
    FaultRetry,
    /// The platform shed a request to a degraded path instead of erroring.
    FaultShed,
    /// The MMU faulted a swapped-out page back in from the block device.
    TierPageIn,
    /// A snapshot's diff pages were demoted to the storage tier.
    TierDemote {
        /// Pages written to the device.
        pages: u64,
    },
    /// A demoted snapshot was eagerly promoted back to DRAM in full.
    TierPromote {
        /// Pages read back from the device.
        pages: u64,
    },
    /// A deploy batch-prefetched a recorded working set from the device.
    TierPrefetch {
        /// Pages in the prefetched working set.
        pages: u64,
    },
    /// Injected: a device read failed; the snapshot degrades to cold.
    TierReadError,
}

/// Number of distinct event kinds (counter-array size). Fault kinds are
/// appended after the original 19, and storage-tier kinds after those,
/// so fault-free / tier-free metrics output stays byte-identical (the
/// report emits only non-zero counters).
pub(crate) const EVENT_KINDS: usize = 32;

impl TraceEvent {
    /// Lowercase kind name used in trace output and metrics.
    pub fn kind_str(&self) -> &'static str {
        match self {
            TraceEvent::PageFault => "page_fault",
            TraceEvent::CowBreak => "cow_break",
            TraceEvent::TlbFlush => "tlb_flush",
            TraceEvent::SnapshotCapture { .. } => "snapshot_capture",
            TraceEvent::SnapshotDeploy => "snapshot_deploy",
            TraceEvent::FramesCopied { .. } => "frames_copied",
            TraceEvent::CacheHit { cache } => match cache {
                CacheKind::IdleUc => "cache_hit:idle_uc",
                CacheKind::FnSnapshot => "cache_hit:fn_snapshot",
                CacheKind::Container => "cache_hit:container",
                CacheKind::Stemcell => "cache_hit:stemcell",
            },
            TraceEvent::CacheMiss { cache } => match cache {
                CacheKind::IdleUc => "cache_miss:idle_uc",
                CacheKind::FnSnapshot => "cache_miss:fn_snapshot",
                CacheKind::Container => "cache_miss:container",
                CacheKind::Stemcell => "cache_miss:stemcell",
            },
            TraceEvent::ShimHop => "shim_hop",
            TraceEvent::Timeout => "timeout",
            TraceEvent::CoreQueued => "core_queued",
            TraceEvent::ContainerCreate => "container_create",
            TraceEvent::ContainerDelete => "container_delete",
            TraceEvent::FaultNodeCrash => "fault:node_crash",
            TraceEvent::FaultNodeRestart => "fault:node_restart",
            TraceEvent::FaultPacketDrop => "fault:packet_drop",
            TraceEvent::FaultMemPressure { .. } => "fault:mem_pressure",
            TraceEvent::FaultStraggler => "fault:straggler",
            TraceEvent::FaultSnapshotCorrupt => "fault:snapshot_corrupt",
            TraceEvent::FaultRetry => "fault:retry",
            TraceEvent::FaultShed => "fault:shed",
            TraceEvent::TierPageIn => "tier:page_in",
            TraceEvent::TierDemote { .. } => "tier:demote",
            TraceEvent::TierPromote { .. } => "tier:promote",
            TraceEvent::TierPrefetch { .. } => "tier:prefetch",
            TraceEvent::TierReadError => "tier:read_error",
        }
    }

    /// Dense index for the metrics counter array.
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            TraceEvent::PageFault => 0,
            TraceEvent::CowBreak => 1,
            TraceEvent::TlbFlush => 2,
            TraceEvent::SnapshotCapture { .. } => 3,
            TraceEvent::SnapshotDeploy => 4,
            TraceEvent::FramesCopied { .. } => 5,
            TraceEvent::CacheHit { cache } => 6 + cache_offset(*cache),
            TraceEvent::CacheMiss { cache } => 10 + cache_offset(*cache),
            TraceEvent::ShimHop => 14,
            TraceEvent::Timeout => 15,
            TraceEvent::CoreQueued => 16,
            TraceEvent::ContainerCreate => 17,
            TraceEvent::ContainerDelete => 18,
            TraceEvent::FaultNodeCrash => 19,
            TraceEvent::FaultNodeRestart => 20,
            TraceEvent::FaultPacketDrop => 21,
            TraceEvent::FaultMemPressure { .. } => 22,
            TraceEvent::FaultStraggler => 23,
            TraceEvent::FaultSnapshotCorrupt => 24,
            TraceEvent::FaultRetry => 25,
            TraceEvent::FaultShed => 26,
            TraceEvent::TierPageIn => 27,
            TraceEvent::TierDemote { .. } => 28,
            TraceEvent::TierPromote { .. } => 29,
            TraceEvent::TierPrefetch { .. } => 30,
            TraceEvent::TierReadError => 31,
        }
    }

    /// Attached magnitude, if the event carries one (pages, frames).
    pub fn magnitude(&self) -> Option<u64> {
        match self {
            TraceEvent::SnapshotCapture { dirty_pages } => Some(*dirty_pages),
            TraceEvent::FramesCopied { frames } => Some(*frames),
            TraceEvent::FaultMemPressure { frames } => Some(*frames),
            TraceEvent::TierDemote { pages } => Some(*pages),
            TraceEvent::TierPromote { pages } => Some(*pages),
            TraceEvent::TierPrefetch { pages } => Some(*pages),
            _ => None,
        }
    }
}

fn cache_offset(c: CacheKind) -> usize {
    match c {
        CacheKind::IdleUc => 0,
        CacheKind::FnSnapshot => 1,
        CacheKind::Container => 2,
        CacheKind::Stemcell => 3,
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug)]
pub struct EventRecord {
    /// Virtual time the event fired.
    pub at: SimTime,
    /// The innermost span open when it fired, if any.
    pub parent: Option<SpanId>,
    /// The event itself.
    pub event: TraceEvent,
    pub(crate) seq: u64,
}
