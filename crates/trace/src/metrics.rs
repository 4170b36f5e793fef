//! Per-trial metric aggregation: event counters and per-phase /
//! per-path latency quantiles.

use simcore::{Histogram, SimDuration};

use crate::event::{TraceEvent, EVENT_KINDS};
use crate::span::{PathKind, Phase};

/// Kind names in `kind_index` order, for reporting counters.
const KIND_NAMES: [&str; EVENT_KINDS] = [
    "page_fault",
    "cow_break",
    "tlb_flush",
    "snapshot_capture",
    "snapshot_deploy",
    "frames_copied",
    "cache_hit:idle_uc",
    "cache_hit:fn_snapshot",
    "cache_hit:container",
    "cache_hit:stemcell",
    "cache_miss:idle_uc",
    "cache_miss:fn_snapshot",
    "cache_miss:container",
    "cache_miss:stemcell",
    "shim_hop",
    "timeout",
    "core_queued",
    "container_create",
    "container_delete",
    "fault:node_crash",
    "fault:node_restart",
    "fault:packet_drop",
    "fault:mem_pressure",
    "fault:straggler",
    "fault:snapshot_corrupt",
    "fault:retry",
    "fault:shed",
    "tier:page_in",
    "tier:demote",
    "tier:promote",
    "tier:prefetch",
    "tier:read_error",
];

/// Aggregated metric state inside a tracer buffer.
pub(crate) struct Metrics {
    counters: [u64; EVENT_KINDS],
    magnitudes: [u64; EVENT_KINDS],
    /// Indexed `path.index() * Phase::COUNT + phase.index()`.
    per_phase: Vec<Histogram>,
    /// Indexed `path.index()`.
    per_path: Vec<Histogram>,
    segments: u64,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics {
            counters: [0; EVENT_KINDS],
            magnitudes: [0; EVENT_KINDS],
            per_phase: (0..PathKind::ALL.len() * Phase::COUNT)
                .map(|_| Histogram::new())
                .collect(),
            per_path: (0..PathKind::ALL.len()).map(|_| Histogram::new()).collect(),
            segments: 0,
        }
    }

    pub(crate) fn record_event(&mut self, ev: &TraceEvent) {
        let i = ev.kind_index();
        self.counters[i] += 1;
        if let Some(m) = ev.magnitude() {
            self.magnitudes[i] += m;
        }
    }

    pub(crate) fn record_segment<I>(&mut self, path: PathKind, phases: I)
    where
        I: IntoIterator<Item = (Phase, SimDuration)>,
    {
        self.segments += 1;
        let mut total = SimDuration::ZERO;
        for (phase, d) in phases {
            total += d;
            // Skip zero phases so e.g. the hot path's absent deploy cost
            // doesn't drag the deploy distribution to zero.
            if d > SimDuration::ZERO {
                self.per_phase[path.index() * Phase::COUNT + phase.index()].record(d);
            }
        }
        self.per_path[path.index()].record(total);
    }

    pub(crate) fn report(&self) -> MetricsReport {
        let events = (0..EVENT_KINDS)
            .filter(|&i| self.counters[i] > 0)
            .map(|i| EventCount {
                kind: KIND_NAMES[i],
                count: self.counters[i],
                magnitude: self.magnitudes[i],
            })
            .collect();
        let mut per_phase = Vec::new();
        for path in PathKind::ALL {
            for phase in Phase::ALL {
                let h = &self.per_phase[path.index() * Phase::COUNT + phase.index()];
                if h.count() > 0 {
                    per_phase.push((path, phase, Quantiles::of(h)));
                }
            }
        }
        let per_path = PathKind::ALL
            .iter()
            .filter(|p| self.per_path[p.index()].count() > 0)
            .map(|&p| (p, Quantiles::of(&self.per_path[p.index()])))
            .collect();
        MetricsReport {
            segments: self.segments,
            events,
            per_phase,
            per_path,
        }
    }
}

/// p50/p90/p99 of one latency distribution, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantiles {
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Samples in the distribution.
    pub count: u64,
}

impl Quantiles {
    fn of(h: &Histogram) -> Self {
        Quantiles {
            p50_ms: h.quantile(0.50).as_millis_f64(),
            p90_ms: h.quantile(0.90).as_millis_f64(),
            p99_ms: h.quantile(0.99).as_millis_f64(),
            count: h.count(),
        }
    }
}

/// Count (and summed magnitude) of one event kind over a trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventCount {
    /// Event kind name (`"page_fault"`, `"cache_hit:idle_uc"`, …).
    pub kind: &'static str,
    /// How many times it fired.
    pub count: u64,
    /// Summed magnitudes (pages/frames); zero for kinds without one.
    pub magnitude: u64,
}

/// The aggregated metrics for one trial.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    /// Invocation segments recorded via `record_segment`.
    pub segments: u64,
    /// Non-zero event counters.
    pub events: Vec<EventCount>,
    /// Latency quantiles per (path, phase), zero-duration phases skipped.
    pub per_phase: Vec<(PathKind, Phase, Quantiles)>,
    /// End-to-end segment latency quantiles per path.
    pub per_path: Vec<(PathKind, Quantiles)>,
}

impl MetricsReport {
    /// An empty report (what a disabled tracer returns).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Renders the report as one hand-rolled JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"segments\":");
        s.push_str(&self.segments.to_string());
        s.push_str(",\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"kind\":\"");
            s.push_str(e.kind);
            s.push_str("\",\"count\":");
            s.push_str(&e.count.to_string());
            if e.magnitude > 0 {
                s.push_str(",\"magnitude\":");
                s.push_str(&e.magnitude.to_string());
            }
            s.push('}');
        }
        s.push_str("],\"per_phase\":[");
        for (i, (path, phase, q)) in self.per_phase.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"path\":\"");
            s.push_str(path.as_str());
            s.push_str("\",\"phase\":\"");
            s.push_str(phase.as_str());
            s.push('"');
            push_quantiles(&mut s, q);
            s.push('}');
        }
        s.push_str("],\"per_path\":[");
        for (i, (path, q)) in self.per_path.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"path\":\"");
            s.push_str(path.as_str());
            s.push('"');
            push_quantiles(&mut s, q);
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn push_quantiles(s: &mut String, q: &Quantiles) {
    s.push_str(",\"count\":");
    s.push_str(&q.count.to_string());
    s.push_str(",\"p50_ms\":");
    s.push_str(&fmt_f64(q.p50_ms));
    s.push_str(",\"p90_ms\":");
    s.push_str(&fmt_f64(q.p90_ms));
    s.push_str(",\"p99_ms\":");
    s.push_str(&fmt_f64(q.p99_ms));
}

/// Fixed-point float formatting (6 decimal places) — JSON-safe, no NaN.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheKind;

    #[test]
    fn counters_and_magnitudes_accumulate() {
        let mut m = Metrics::new();
        m.record_event(&TraceEvent::PageFault);
        m.record_event(&TraceEvent::PageFault);
        m.record_event(&TraceEvent::SnapshotCapture { dirty_pages: 12 });
        m.record_event(&TraceEvent::CacheHit {
            cache: CacheKind::IdleUc,
        });
        let r = m.report();
        let pf = r.events.iter().find(|e| e.kind == "page_fault").unwrap();
        assert_eq!(pf.count, 2);
        let cap = r
            .events
            .iter()
            .find(|e| e.kind == "snapshot_capture")
            .unwrap();
        assert_eq!((cap.count, cap.magnitude), (1, 12));
        assert!(r.events.iter().any(|e| e.kind == "cache_hit:idle_uc"));
    }

    #[test]
    fn segments_bucket_by_path_and_phase() {
        let mut m = Metrics::new();
        m.record_segment(
            PathKind::Hot,
            [
                (Phase::Deploy, SimDuration::ZERO),
                (Phase::Exec, SimDuration::from_millis(2)),
                (Phase::Respond, SimDuration::from_micros(100)),
            ],
        );
        m.record_segment(
            PathKind::Cold,
            [(Phase::Deploy, SimDuration::from_millis(40))],
        );
        let r = m.report();
        assert_eq!(r.segments, 2);
        // Hot deploy was zero → skipped.
        assert!(!r
            .per_phase
            .iter()
            .any(|(p, ph, _)| *p == PathKind::Hot && *ph == Phase::Deploy));
        let (_, _, q) = r
            .per_phase
            .iter()
            .find(|(p, ph, _)| *p == PathKind::Cold && *ph == Phase::Deploy)
            .unwrap();
        assert_eq!(q.count, 1);
        // Per-path totals include the zero phase contributions.
        let (_, hot) = r
            .per_path
            .iter()
            .find(|(p, _)| *p == PathKind::Hot)
            .unwrap();
        assert_eq!(hot.count, 1);
        assert!(hot.p50_ms > 0.0);
    }

    #[test]
    fn kind_names_stay_in_lockstep_with_kind_index() {
        // One representative of every variant; `kind_str` must agree with
        // the `KIND_NAMES` slot its `kind_index` selects, or merged
        // reports would mislabel counters.
        let all = [
            TraceEvent::PageFault,
            TraceEvent::CowBreak,
            TraceEvent::TlbFlush,
            TraceEvent::SnapshotCapture { dirty_pages: 1 },
            TraceEvent::SnapshotDeploy,
            TraceEvent::FramesCopied { frames: 1 },
            TraceEvent::CacheHit {
                cache: CacheKind::IdleUc,
            },
            TraceEvent::CacheHit {
                cache: CacheKind::FnSnapshot,
            },
            TraceEvent::CacheHit {
                cache: CacheKind::Container,
            },
            TraceEvent::CacheHit {
                cache: CacheKind::Stemcell,
            },
            TraceEvent::CacheMiss {
                cache: CacheKind::IdleUc,
            },
            TraceEvent::CacheMiss {
                cache: CacheKind::FnSnapshot,
            },
            TraceEvent::CacheMiss {
                cache: CacheKind::Container,
            },
            TraceEvent::CacheMiss {
                cache: CacheKind::Stemcell,
            },
            TraceEvent::ShimHop,
            TraceEvent::Timeout,
            TraceEvent::CoreQueued,
            TraceEvent::ContainerCreate,
            TraceEvent::ContainerDelete,
            TraceEvent::FaultNodeCrash,
            TraceEvent::FaultNodeRestart,
            TraceEvent::FaultPacketDrop,
            TraceEvent::FaultMemPressure { frames: 1 },
            TraceEvent::FaultStraggler,
            TraceEvent::FaultSnapshotCorrupt,
            TraceEvent::FaultRetry,
            TraceEvent::FaultShed,
            TraceEvent::TierPageIn,
            TraceEvent::TierDemote { pages: 1 },
            TraceEvent::TierPromote { pages: 1 },
            TraceEvent::TierPrefetch { pages: 1 },
            TraceEvent::TierReadError,
        ];
        assert_eq!(all.len(), EVENT_KINDS, "a variant is missing here");
        for (i, ev) in all.iter().enumerate() {
            assert_eq!(ev.kind_index(), i, "dense index order: {ev:?}");
            assert_eq!(KIND_NAMES[i], ev.kind_str(), "name mismatch at {i}");
        }
    }

    #[test]
    fn fault_events_count_and_carry_magnitude() {
        let mut m = Metrics::new();
        m.record_event(&TraceEvent::FaultMemPressure { frames: 512 });
        m.record_event(&TraceEvent::FaultRetry);
        m.record_event(&TraceEvent::FaultRetry);
        let r = m.report();
        let mp = r
            .events
            .iter()
            .find(|e| e.kind == "fault:mem_pressure")
            .unwrap();
        assert_eq!((mp.count, mp.magnitude), (1, 512));
        let retry = r.events.iter().find(|e| e.kind == "fault:retry").unwrap();
        assert_eq!(retry.count, 2);
    }

    #[test]
    fn json_is_valid_shape() {
        let mut m = Metrics::new();
        m.record_event(&TraceEvent::ShimHop);
        m.record_segment(PathKind::Warm, [(Phase::Exec, SimDuration::from_millis(1))]);
        let json = m.report().to_json();
        assert!(json.starts_with("{\"segments\":1"));
        assert!(json.contains("\"shim_hop\""));
        assert!(json.contains("\"per_path\""));
        assert!(json.ends_with("]}"));
    }
}
