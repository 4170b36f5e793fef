//! The observability smoke experiment: a small traced trial whose
//! output is validated end to end — the CI gate for the tracing
//! subsystem.
//!
//! Runs a closed-loop mixed workload as one traced [`run_trial`] and
//! checks the invariants the trace format promises: the exported JSONL
//! parses with monotone timestamps and balanced enter/exit pairs, every
//! top-level segment's phase spans sum exactly to the segment span, and
//! the metrics report covers the recorded segments.

use seuss_core::SeussConfig;
use seuss_platform::{run_trial, BackendKind, ClusterConfig, FnKind, Registry, WorkloadSpec};
use seuss_trace::{validate_jsonl, SpanName};
use simcore::SimDuration;

/// Outcome of a validated traced trial.
#[derive(Clone, Debug)]
pub struct TraceSmoke {
    /// Requests completed.
    pub completed: u64,
    /// Trace lines exported.
    pub trace_lines: usize,
    /// Top-level invocation segments found in the trace.
    pub segments: usize,
    /// The validated trace document (JSON lines).
    pub trace_jsonl: String,
    /// The metrics report (one JSON object).
    pub metrics_json: String,
}

fn smoke_workload(invocations: u64) -> (Registry, WorkloadSpec) {
    let mut reg = Registry::new();
    reg.register_many(0, 3, FnKind::Nop);
    reg.register_many(3, 1, FnKind::Io);
    reg.register_many(4, 1, FnKind::Cpu(SimDuration::from_millis(5)));
    let order: Vec<u64> = (0..invocations).map(|i| i % 5).collect();
    (reg, WorkloadSpec::closed_loop(order, 4))
}

/// Runs the traced trial and validates its trace; `Err` carries the
/// first violated invariant.
pub fn run_trace_smoke(invocations: u64) -> Result<TraceSmoke, String> {
    let node = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .map_err(|e| e.to_string())?;
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        traced: true,
        ..ClusterConfig::seuss_paper()
    };
    let (reg, spec) = smoke_workload(invocations);
    let out = run_trial(cfg, reg, &spec);

    if out.analysis.completed != invocations {
        return Err(format!(
            "only {}/{} requests completed",
            out.analysis.completed, invocations
        ));
    }

    // 1. The export validates: parseable lines, monotone timestamps,
    //    balanced enter/exit, children nested inside parents.
    let doc = out.tracer.export_jsonl();
    let v = validate_jsonl(&doc)?;
    if v.enters == 0 || v.events == 0 {
        return Err(format!(
            "trace suspiciously empty: {} spans, {} events",
            v.enters, v.events
        ));
    }

    // 2. Exact cover: every invoke/resume span equals the sum of its
    //    phase children.
    let spans = out.tracer.spans();
    let mut segments = 0usize;
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        if !matches!(root.name, SpanName::Invoke | SpanName::Resume) {
            continue;
        }
        segments += 1;
        let child_sum = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .filter(|s| matches!(s.name, SpanName::Phase(_)))
            .fold(SimDuration::ZERO, |acc, s| {
                acc + s.duration().unwrap_or(SimDuration::ZERO)
            });
        let own = root
            .duration()
            .ok_or_else(|| format!("unclosed {:?} span", root.name))?;
        if child_sum != own {
            return Err(format!(
                "{:?} span is {} ns but its phases sum to {} ns",
                root.name,
                own.as_nanos(),
                child_sum.as_nanos()
            ));
        }
    }
    if (segments as u64) < invocations {
        return Err(format!("{segments} segments for {invocations} requests"));
    }

    // 3. Metrics agree with the span count.
    let report = out.tracer.metrics_report();
    if report.segments < invocations {
        return Err(format!(
            "metrics recorded {} segments for {} requests",
            report.segments, invocations
        ));
    }

    Ok(TraceSmoke {
        completed: out.analysis.completed,
        trace_lines: v.lines,
        segments,
        trace_jsonl: doc,
        metrics_json: report.to_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_on_a_tiny_trial() {
        let s = run_trace_smoke(15).expect("smoke must validate");
        assert_eq!(s.completed, 15);
        assert!(s.segments >= 15);
        assert!(s.trace_lines > 0);
    }
}
