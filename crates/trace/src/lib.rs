//! `seuss-trace` — structured tracing and metrics for the invocation
//! paths, in virtual time.
//!
//! SEUSS's whole argument is *where the time goes* on the cold/warm/hot
//! paths (§4–§6: deploy, import, capture, exec). This crate is the
//! observability substrate that attributes a slow invocation to MMU
//! faults vs. snapshot page copies vs. shim hops:
//!
//! * **Spans** ([`Tracer::span`]): intervals in [`simcore::SimTime`] with
//!   parent links. One span wraps each invocation segment and one wraps
//!   each [`Phase`] inside it, so a span tree mirrors the `PathCosts`
//!   breakdown exactly.
//! * **Events** ([`Tracer::event`]): typed points in time — page fault
//!   serviced, COW break, snapshot capture, frames copied, cache
//!   hit/miss, shim hop, timeout — parented to the innermost open span.
//! * **Metrics** ([`Tracer::metrics_report`]): event counters plus
//!   p50/p90/p99 histograms per phase and per [`PathKind`], aggregated
//!   over a trial.
//! * **JSONL export** ([`Tracer::export_jsonl`], [`validate_jsonl`]):
//!   hand-rolled JSON lines (the workspace is dependency-free — no
//!   serde), one line per span enter/exit and per event, sorted so
//!   virtual timestamps are monotone.
//!
//! # Disabled-mode cost contract
//!
//! [`Tracer::disabled`] (also [`Tracer::default`]) holds no buffer at
//! all: every method is an `Option` check that returns immediately, and
//! **no trace call allocates heap memory**. The mechanism layers keep a
//! disabled tracer threaded through permanently; enabling tracing is a
//! matter of passing [`Tracer::enabled`] into the node or cluster
//! config. The contract is asserted by a counting-allocator test in this
//! crate.
//!
//! # Examples
//!
//! ```
//! use seuss_trace::{Phase, PathKind, SpanName, Tracer};
//! use simcore::SimDuration;
//!
//! let tracer = Tracer::enabled();
//! {
//!     let invoke = tracer.span(SpanName::Invoke);
//!     invoke.annotate_fn(7);
//!     invoke.annotate_path(PathKind::Hot);
//!     {
//!         let _exec = tracer.span(SpanName::Phase(Phase::Exec));
//!         tracer.advance(SimDuration::from_micros(780));
//!     }
//! }
//! let spans = tracer.spans();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[1].parent, Some(spans[0].id));
//! seuss_trace::validate_jsonl(&tracer.export_jsonl()).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod span;
pub mod tracer;

pub use event::{CacheKind, EventRecord, TraceEvent};
pub use export::{validate_jsonl, TraceValidation};
pub use metrics::{EventCount, MetricsReport, Quantiles};
pub use span::{PathKind, Phase, SpanId, SpanName, SpanRecord};
pub use tracer::{SpanGuard, Tracer};
