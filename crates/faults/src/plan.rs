//! Fault plans: typed, time-sorted injection schedules.

use simcore::{SimDuration, SimTime};

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The compute node crashes, losing its idle-UC and snapshot caches
    /// and all in-flight work, then rejoins after `reboot`.
    NodeCrash {
        /// Reboot cost before the node serves again.
        reboot: SimDuration,
    },
    /// Every packet arriving at the node during the window is dropped
    /// independently with probability `prob`.
    PacketLoss {
        /// Per-packet drop probability in `[0, 1]`.
        prob: f64,
        /// Window length.
        span: SimDuration,
    },
    /// The node's frame pool transiently shrinks by `frames`, driving
    /// the OOM daemon until the window closes.
    MemPressure {
        /// Frames withheld from the pool.
        frames: u64,
        /// Window length.
        span: SimDuration,
    },
    /// One worker core runs slow by `factor` until the window closes.
    StragglerCore {
        /// Core index (taken modulo the core count at injection time).
        core: u16,
        /// Execution-time multiplier, `>= 1.0`.
        factor: f64,
        /// Window length.
        span: SimDuration,
    },
    /// The cached function snapshot for `fn_id` is corrupted in place;
    /// the node detects the bad checksum on next use and degrades the
    /// invocation to the cold path.
    SnapshotCorruption {
        /// Function whose cached snapshot is damaged.
        fn_id: u64,
    },
    /// The snapshot-tier block device fails every read until the window
    /// closes. Deploys of demoted snapshots detect the unreadable blocks
    /// and degrade to the cold path, whose re-capture repairs the cache.
    /// A no-op on nodes without a storage tier.
    DeviceReadError {
        /// Window length.
        span: SimDuration,
    },
}

impl FaultKind {
    /// Window length for windowed kinds (`None` for point faults).
    pub fn span(&self) -> Option<SimDuration> {
        match *self {
            FaultKind::PacketLoss { span, .. }
            | FaultKind::MemPressure { span, .. }
            | FaultKind::StragglerCore { span, .. }
            | FaultKind::DeviceReadError { span } => Some(span),
            FaultKind::NodeCrash { .. } | FaultKind::SnapshotCorruption { .. } => None,
        }
    }
}

/// One scheduled injection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Virtual instant at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted schedule of fault injections.
///
/// The empty plan ([`FaultPlan::none`]) is the determinism anchor: with
/// it, a trial draws nothing from the fault RNG streams and produces
/// byte-identical output to a build without the fault subsystem.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from events, sorting by instant (stable, so events
    /// at the same instant keep their given order).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled injections.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The schedule, sorted by instant.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Appends an event, keeping the schedule sorted.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
    }

    /// Whether any scheduled event needs per-packet RNG draws while
    /// executing (i.e. the plan has a packet-loss window).
    pub fn needs_exec_rng(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::PacketLoss { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(!p.needs_exec_rng());
    }

    #[test]
    fn from_events_sorts_stably() {
        let crash = FaultKind::NodeCrash {
            reboot: SimDuration::from_millis(500),
        };
        let corrupt = FaultKind::SnapshotCorruption { fn_id: 7 };
        let p = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(9),
                kind: crash,
            },
            FaultEvent {
                at: SimTime::from_secs(3),
                kind: corrupt,
            },
            FaultEvent {
                at: SimTime::from_secs(3),
                kind: crash,
            },
        ]);
        assert_eq!(p.events()[0].at, SimTime::from_secs(3));
        assert_eq!(p.events()[0].kind, corrupt, "equal instants keep order");
        assert_eq!(p.events()[1].kind, crash);
        assert_eq!(p.events()[2].at, SimTime::from_secs(9));
    }

    #[test]
    fn exec_rng_only_for_loss() {
        let mut p = FaultPlan::none();
        p.push(
            SimTime::from_secs(1),
            FaultKind::MemPressure {
                frames: 100,
                span: SimDuration::from_secs(1),
            },
        );
        assert!(!p.needs_exec_rng());
        p.push(
            SimTime::from_secs(2),
            FaultKind::PacketLoss {
                prob: 0.5,
                span: SimDuration::from_secs(1),
            },
        );
        assert!(p.needs_exec_rng());
    }
}
