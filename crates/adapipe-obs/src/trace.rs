//! Chrome Trace Event Format export: the run's spans as complete
//! (`"ph": "X"`) duration events, loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! The export uses the JSON-array form of the format — an array whose
//! elements each carry `name`, `cat`, `ph`, `ts`/`dur` (microseconds),
//! `pid`, `tid` and optional `args` — which both viewers accept
//! directly.

#![expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String cannot fail"
)]

use crate::recorder::Snapshot;
use crate::report::{escape_json, json_num};
use std::fmt::Write as _;

/// Renders the snapshot's spans as Chrome-trace JSON. Events are sorted
/// by start timestamp; annotation args become the event's `args`
/// object. A metadata event names the process so traces from several
/// runs stay distinguishable in a viewer.
#[must_use]
pub fn chrome_trace_json(snapshot: &Snapshot) -> String {
    let mut spans: Vec<_> = snapshot.spans.iter().collect();
    spans.sort_by(|a, b| {
        a.start_us
            .total_cmp(&b.start_us)
            .then(a.tid.cmp(&b.tid))
            .then(b.dur_us.total_cmp(&a.dur_us))
    });

    let mut out = String::from("[\n");
    let _ = write!(
        out,
        "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
         \"args\": {{\"name\": \"adapipe search engine\"}}}}"
    );
    for e in spans {
        out.push_str(",\n");
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}, \"pid\": 0, \"tid\": {}",
            escape_json(&e.name),
            escape_json(&e.cat),
            json_num(e.start_us),
            json_num(e.dur_us.max(0.0)),
            e.tid,
        );
        if !e.args.is_empty() {
            out.push_str(", \"args\": {");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": \"{}\"", escape_json(k), escape_json(v));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::{span, Recorder};

    fn sample_snapshot() -> Snapshot {
        let rec = Recorder::new();
        {
            let _plan = span!(rec, "plan", method = "adapipe");
            let _profile = rec.span_cat("plan.profile", "planner");
            drop(_profile);
            let _partition = rec.span_cat("plan.partition", "partition");
        }
        rec.snapshot()
    }

    #[test]
    fn trace_parses_and_events_are_complete() {
        let text = chrome_trace_json(&sample_snapshot());
        let Value::Array(events) = parse(&text).expect("valid JSON") else {
            panic!("trace must be a JSON array");
        };
        // Metadata event + three spans.
        assert_eq!(events.len(), 4);
        let mut last_ts = f64::NEG_INFINITY;
        for ev in &events[1..] {
            let Value::Object(map) = ev else {
                panic!("event must be an object")
            };
            assert_eq!(map.get("ph"), Some(&Value::String("X".into())));
            let Some(Value::Number(ts)) = map.get("ts") else {
                panic!("no ts")
            };
            let Some(Value::Number(dur)) = map.get("dur") else {
                panic!("no dur")
            };
            assert!(*ts >= last_ts, "timestamps must be sorted");
            assert!(*dur >= 0.0);
            last_ts = *ts;
        }
    }

    #[test]
    fn parent_span_encloses_children() {
        let text = chrome_trace_json(&sample_snapshot());
        let Value::Array(events) = parse(&text).unwrap() else {
            unreachable!()
        };
        let span = |name: &str| -> (f64, f64) {
            events
                .iter()
                .find_map(|e| {
                    let Value::Object(m) = e else { return None };
                    if m.get("name") == Some(&Value::String(name.into())) {
                        let Some(Value::Number(ts)) = m.get("ts") else {
                            return None;
                        };
                        let Some(Value::Number(dur)) = m.get("dur") else {
                            return None;
                        };
                        Some((*ts, *dur))
                    } else {
                        None
                    }
                })
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        let (pts, pdur) = span("plan");
        for child in ["plan.profile", "plan.partition"] {
            let (cts, cdur) = span(child);
            assert!(cts >= pts, "{child} starts inside plan");
            assert!(cts + cdur <= pts + pdur + 1e-6, "{child} ends inside plan");
        }
    }

    #[test]
    fn args_are_exported() {
        let text = chrome_trace_json(&sample_snapshot());
        assert!(
            text.contains("\"args\": {\"method\": \"adapipe\"}"),
            "{text}"
        );
    }

    #[test]
    fn empty_snapshot_is_a_valid_trace() {
        let text = chrome_trace_json(&Snapshot::default());
        let Value::Array(events) = parse(&text).unwrap() else {
            panic!()
        };
        assert_eq!(events.len(), 1); // just the metadata event
    }
}
