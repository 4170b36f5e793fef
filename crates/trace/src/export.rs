//! JSONL export of a trace, plus an offline validator.
//!
//! One line per span enter, span exit, and event. Lines are sorted by
//! `(virtual time, sequence)` — the tracer's clock can step backwards
//! *between* segments (each segment re-anchors at the simulation `now`
//! while mechanism costs were advanced eagerly inside the previous one),
//! so sorting is what makes the exported timestamps monotone.

use std::collections::HashMap;

use crate::event::EventRecord;
use crate::span::SpanRecord;

/// Renders the spans/events as JSON lines sorted by `(t, seq)`.
pub(crate) fn export_jsonl(spans: &[SpanRecord], events: &[EventRecord]) -> String {
    let mut lines: Vec<(u64, u64, String)> = Vec::new();
    for s in spans {
        let mut l = String::from("{\"type\":\"enter\",\"t\":");
        l.push_str(&s.start.as_nanos().to_string());
        l.push_str(",\"id\":");
        l.push_str(&s.id.as_u32().to_string());
        if let Some(p) = s.parent {
            l.push_str(",\"parent\":");
            l.push_str(&p.as_u32().to_string());
        }
        l.push_str(",\"name\":\"");
        l.push_str(s.name.as_str());
        l.push('"');
        if let Some(f) = s.fn_id {
            l.push_str(",\"fn\":");
            l.push_str(&f.to_string());
        }
        l.push('}');
        lines.push((s.start.as_nanos(), s.enter_seq, l));

        if let Some(end) = s.end {
            let mut l = String::from("{\"type\":\"exit\",\"t\":");
            l.push_str(&end.as_nanos().to_string());
            l.push_str(",\"id\":");
            l.push_str(&s.id.as_u32().to_string());
            if let Some(path) = s.path {
                l.push_str(",\"path\":\"");
                l.push_str(path.as_str());
                l.push('"');
            }
            l.push('}');
            lines.push((end.as_nanos(), s.exit_seq, l));
        }
    }
    for e in events {
        let mut l = String::from("{\"type\":\"event\",\"t\":");
        l.push_str(&e.at.as_nanos().to_string());
        l.push_str(",\"kind\":\"");
        l.push_str(e.event.kind_str());
        l.push('"');
        if let Some(p) = e.parent {
            l.push_str(",\"parent\":");
            l.push_str(&p.as_u32().to_string());
        }
        if let Some(n) = e.event.magnitude() {
            l.push_str(",\"n\":");
            l.push_str(&n.to_string());
        }
        l.push('}');
        lines.push((e.at.as_nanos(), e.seq, l));
    }
    lines.sort_by_key(|l| (l.0, l.1));
    let mut out = String::new();
    for (_, _, l) in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

/// One parsed JSON scalar in a trace line.
#[derive(Clone, Debug, PartialEq)]
enum JsonVal {
    Num(u64),
    Str(String),
}

/// Parses one flat JSON object line (`{"k":v,...}`, values are unsigned
/// numbers or strings). Returns the key→value map or a description of
/// the syntax error. This is intentionally the minimal grammar the
/// exporter emits — not a general JSON parser.
fn parse_line(line: &str) -> Result<HashMap<String, JsonVal>, String> {
    let mut map = HashMap::new();
    let b = line.as_bytes();
    let mut i = 0usize;
    let err = |msg: &str, i: usize| format!("{msg} at byte {i}: {line}");
    if b.first() != Some(&b'{') {
        return Err(err("expected '{'", 0));
    }
    i += 1;
    if b.get(i) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        // Key.
        if b.get(i) != Some(&b'"') {
            return Err(err("expected '\"' to open key", i));
        }
        i += 1;
        let key_start = i;
        while i < b.len() && b[i] != b'"' {
            i += 1;
        }
        if i >= b.len() {
            return Err(err("unterminated key", i));
        }
        let key = line[key_start..i].to_string();
        i += 1;
        if b.get(i) != Some(&b':') {
            return Err(err("expected ':'", i));
        }
        i += 1;
        // Value: number or string.
        let val = match b.get(i) {
            Some(&b'"') => {
                i += 1;
                let v_start = i;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' {
                        return Err(err("escapes not supported", i));
                    }
                    i += 1;
                }
                if i >= b.len() {
                    return Err(err("unterminated string", i));
                }
                let v = line[v_start..i].to_string();
                i += 1;
                JsonVal::Str(v)
            }
            Some(c) if c.is_ascii_digit() => {
                let v_start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let n: u64 = line[v_start..i]
                    .parse()
                    .map_err(|_| err("bad number", v_start))?;
                JsonVal::Num(n)
            }
            _ => return Err(err("expected value", i)),
        };
        map.insert(key, val);
        match b.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => {
                if i + 1 != b.len() {
                    return Err(err("trailing bytes after '}'", i + 1));
                }
                return Ok(map);
            }
            _ => return Err(err("expected ',' or '}'", i)),
        }
    }
}

/// Summary of a validated trace (see [`validate_jsonl`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceValidation {
    /// Total JSONL lines.
    pub lines: usize,
    /// Span-enter lines.
    pub enters: usize,
    /// Span-exit lines.
    pub exits: usize,
    /// Event lines.
    pub events: usize,
}

/// Checks a trace JSONL document for well-formedness:
///
/// * every line parses as a flat JSON object with a known `type`;
/// * timestamps are monotone non-decreasing line to line;
/// * every exit matches exactly one prior enter (no double exits);
/// * every `parent` reference names an already-entered span;
/// * children nest inside their parents in virtual time;
/// * the document is balanced — enters equal exits.
///
/// Returns counts on success, the first violation otherwise.
pub fn validate_jsonl(doc: &str) -> Result<TraceValidation, String> {
    let mut v = TraceValidation {
        lines: 0,
        enters: 0,
        exits: 0,
        events: 0,
    };
    // id → (start, parent, end)
    let mut spans: HashMap<u64, (u64, Option<u64>, Option<u64>)> = HashMap::new();
    let mut last_t: u64 = 0;
    for (lineno, line) in doc.lines().enumerate() {
        let n = lineno + 1;
        let map = parse_line(line).map_err(|e| format!("line {n}: {e}"))?;
        v.lines += 1;
        let t = match map.get("t") {
            Some(JsonVal::Num(t)) => *t,
            _ => return Err(format!("line {n}: missing numeric \"t\"")),
        };
        if t < last_t {
            return Err(format!(
                "line {n}: timestamp {t} < previous {last_t} (not monotone)"
            ));
        }
        last_t = t;
        let parent = match map.get("parent") {
            Some(JsonVal::Num(p)) => Some(*p),
            None => None,
            _ => return Err(format!("line {n}: non-numeric \"parent\"")),
        };
        if let Some(p) = parent {
            if !spans.contains_key(&p) {
                return Err(format!("line {n}: parent {p} never entered"));
            }
        }
        match map.get("type") {
            Some(JsonVal::Str(ty)) if ty == "enter" => {
                v.enters += 1;
                let id = match map.get("id") {
                    Some(JsonVal::Num(id)) => *id,
                    _ => return Err(format!("line {n}: enter without numeric \"id\"")),
                };
                if spans.contains_key(&id) {
                    return Err(format!("line {n}: span {id} entered twice"));
                }
                if !matches!(map.get("name"), Some(JsonVal::Str(_))) {
                    return Err(format!("line {n}: enter without \"name\""));
                }
                spans.insert(id, (t, parent, None));
            }
            Some(JsonVal::Str(ty)) if ty == "exit" => {
                v.exits += 1;
                let id = match map.get("id") {
                    Some(JsonVal::Num(id)) => *id,
                    _ => return Err(format!("line {n}: exit without numeric \"id\"")),
                };
                let (start, parent, end) = match spans.get(&id) {
                    Some(s) => *s,
                    None => return Err(format!("line {n}: exit of span {id} never entered")),
                };
                if end.is_some() {
                    return Err(format!("line {n}: span {id} exited twice"));
                }
                if t < start {
                    return Err(format!("line {n}: span {id} exits before it starts"));
                }
                // Nesting: the child's interval must lie inside its parent's.
                if let Some(p) = parent {
                    let (p_start, _, p_end) = spans[&p];
                    if start < p_start {
                        return Err(format!("line {n}: span {id} starts before parent {p}"));
                    }
                    if let Some(p_end) = p_end {
                        if t > p_end {
                            return Err(format!("line {n}: span {id} ends after parent {p}"));
                        }
                    }
                }
                spans.insert(id, (start, parent, Some(t)));
            }
            Some(JsonVal::Str(ty)) if ty == "event" => {
                v.events += 1;
                if !matches!(map.get("kind"), Some(JsonVal::Str(_))) {
                    return Err(format!("line {n}: event without \"kind\""));
                }
            }
            _ => return Err(format!("line {n}: missing or unknown \"type\"")),
        }
    }
    if v.enters != v.exits {
        return Err(format!(
            "unbalanced trace: {} enters vs {} exits",
            v.enters, v.exits
        ));
    }
    if let Some((id, _)) = spans.iter().find(|(_, (_, _, end))| end.is_none()) {
        return Err(format!("span {id} never exited"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::span::{Phase, SpanName};
    use crate::tracer::Tracer;
    use simcore::{SimDuration, SimTime};

    #[test]
    fn roundtrip_validates() {
        let t = Tracer::enabled();
        t.set_clock(SimTime::from_millis(10));
        {
            let g = t.span(SpanName::Invoke);
            g.annotate_fn(3);
            g.annotate_path(crate::span::PathKind::Warm);
            {
                let _d = t.span(SpanName::Phase(Phase::Deploy));
                t.event(TraceEvent::SnapshotDeploy);
                t.advance(SimDuration::from_millis(2));
            }
            {
                let _e = t.span(SpanName::Phase(Phase::Exec));
                t.advance(SimDuration::from_millis(1));
            }
        }
        let doc = t.export_jsonl();
        let val = validate_jsonl(&doc).unwrap();
        assert_eq!(val.enters, 3);
        assert_eq!(val.exits, 3);
        assert_eq!(val.events, 1);
        assert_eq!(val.lines, 7);
    }

    #[test]
    fn backwards_clock_between_segments_still_monotone() {
        let t = Tracer::enabled();
        // Segment 1 advances the clock eagerly past sim-now...
        t.set_clock(SimTime::from_millis(100));
        {
            let _g = t.span(SpanName::Invoke);
            t.advance(SimDuration::from_millis(50));
        }
        // ...then the next sim event re-anchors earlier.
        t.set_clock(SimTime::from_millis(110));
        {
            let _g = t.span(SpanName::Resume);
            t.advance(SimDuration::from_millis(5));
        }
        validate_jsonl(&t.export_jsonl()).unwrap();
    }

    #[test]
    fn rejects_garbage() {
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("{\"type\":\"enter\",\"t\":5}\n").is_err()); // no id
        assert!(
            validate_jsonl("{\"type\":\"exit\",\"t\":5,\"id\":0}\n").is_err() // exit w/o enter
        );
        // Unbalanced: enter without exit.
        assert!(
            validate_jsonl("{\"type\":\"enter\",\"t\":1,\"id\":0,\"name\":\"invoke\"}\n").is_err()
        );
        // Non-monotone t.
        let doc = "{\"type\":\"event\",\"t\":5,\"kind\":\"shim_hop\"}\n{\"type\":\"event\",\"t\":4,\"kind\":\"shim_hop\"}\n";
        assert!(validate_jsonl(doc).unwrap_err().contains("monotone"));
    }

    #[test]
    fn parse_line_handles_shapes() {
        let m = parse_line("{\"a\":1,\"b\":\"x\"}").unwrap();
        assert_eq!(m["a"], JsonVal::Num(1));
        assert_eq!(m["b"], JsonVal::Str("x".into()));
        assert!(parse_line("{}").unwrap().is_empty());
        assert!(parse_line("{\"a\":}").is_err());
        assert!(parse_line("{\"a\":1} junk").is_err());
    }
}
