//! Flight recorder: a fixed-capacity, overwrite-oldest ring buffer of
//! structured events.
//!
//! Metrics answer "how often"; the flight recorder answers "what just
//! happened" — when a daemon returns 503, misses a deadline, or a chaos
//! run fails, the last N noteworthy events are dumped to an artifact so
//! the incident can be reconstructed after the fact. Like
//! [`crate::Recorder`], a disabled handle costs one branch per call and
//! the enabled path takes a single mutex; capacity is fixed at
//! construction, so memory is bounded no matter how long the daemon
//! runs (`dropped` counts what the ring overwrote).
//!
//! Events carry a monotonic timestamp relative to the recorder's epoch,
//! a `kind` (use the `flight.*` constants in [`crate::keys`]), a
//! free-form detail string, and an optional request trace id linking
//! the event to a `GET /v1/trace/{id}` timeline. Dumps serialize as the
//! `adapipe-flight/v1` JSON schema via [`flight_json`].

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::report::{escape_json, json_num};

/// Ring capacity (events retained for dumps) of the daemon's and the
/// CLI's flight recorders.
pub const DEFAULT_CAPACITY: usize = 256;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Microseconds since the recorder's construction.
    pub t_us: u64,
    /// Event kind — one of the `flight.*` constants in [`crate::keys`].
    pub kind: String,
    /// Human-readable detail (free-form, single line by convention).
    pub detail: String,
    /// Request trace id, when the event happened inside a traced request.
    pub trace_id: Option<String>,
}

/// A point-in-time copy of the ring.
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// Ring capacity (the maximum number of retained events).
    pub capacity: usize,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

#[derive(Debug)]
struct Ring {
    dropped: u64,
    events: VecDeque<FlightEvent>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

/// Cheaply cloneable handle; clones share the same ring.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

impl FlightRecorder {
    /// An enabled recorder retaining at most `capacity` events
    /// (`capacity` 0 is treated as 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                capacity,
                ring: Mutex::new(Ring {
                    dropped: 0,
                    events: VecDeque::with_capacity(capacity),
                }),
            })),
        }
    }

    /// A disabled recorder: every call is a single branch, records
    /// nothing, allocates nothing.
    #[must_use]
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records an event (no-op when disabled).
    pub fn note(&self, kind: &str, detail: impl Into<String>) {
        self.push(kind, detail.into(), None);
    }

    /// Records an event attributed to a request trace (no-op when
    /// disabled).
    pub fn note_traced(&self, kind: &str, detail: impl Into<String>, trace_id: &str) {
        self.push(kind, detail.into(), Some(trace_id.to_string()));
    }

    fn push(&self, kind: &str, detail: String, trace_id: Option<String>) {
        let Some(inner) = &self.inner else { return };
        let t_us = u64::try_from(
            Instant::now()
                .saturating_duration_since(inner.epoch)
                .as_micros(),
        )
        .unwrap_or(u64::MAX);
        let mut ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.events.len() == inner.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(FlightEvent {
            t_us,
            kind: kind.to_string(),
            detail,
            trace_id,
        });
    }

    /// Copies the current ring contents, oldest event first. A disabled
    /// recorder snapshots as empty with capacity 0.
    #[must_use]
    pub fn snapshot(&self) -> FlightSnapshot {
        let Some(inner) = &self.inner else {
            return FlightSnapshot {
                capacity: 0,
                dropped: 0,
                events: Vec::new(),
            };
        };
        let ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
        FlightSnapshot {
            capacity: inner.capacity,
            dropped: ring.dropped,
            events: ring.events.iter().cloned().collect(),
        }
    }
}

/// Renders a snapshot as the `adapipe-flight/v1` dump schema:
///
/// ```json
/// {
///   "schema": "adapipe-flight/v1",
///   "reason": "serve.backpressure",
///   "meta": {"component": "adapipe-serve"},
///   "capacity": 256,
///   "dropped": 0,
///   "events": [
///     {"t_us": 1234, "kind": "flight.request.rejected",
///      "detail": "queue full (depth 8)", "trace_id": "ab12..-7"}
///   ]
/// }
/// ```
///
/// `reason` names the trigger (one of the `flight.*` kind constants or
/// `manual` for `POST /admin/dump`).
#[must_use]
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String cannot fail"
)]
pub fn flight_json(snap: &FlightSnapshot, reason: &str, meta: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"adapipe-flight/v1\",");
    let _ = writeln!(out, "  \"reason\": \"{}\",", escape_json(reason));
    out.push_str("  \"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": \"{}\"", escape_json(k), escape_json(v));
    }
    out.push_str("},\n");
    let _ = writeln!(out, "  \"capacity\": {},", json_num(snap.capacity as f64));
    let _ = writeln!(out, "  \"dropped\": {},", snap.dropped);
    out.push_str("  \"events\": [\n");
    for (i, ev) in snap.events.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"t_us\": {}, \"kind\": \"{}\", \"detail\": \"{}\"",
            ev.t_us,
            escape_json(&ev.kind),
            escape_json(&ev.detail)
        );
        if let Some(id) = &ev.trace_id {
            let _ = write!(out, ", \"trace_id\": \"{}\"", escape_json(id));
        }
        let _ = writeln!(
            out,
            "}}{}",
            if i + 1 < snap.events.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.note("flight.test", format!("event {i}"));
        }
        let snap = fr.snapshot();
        assert_eq!(snap.capacity, 3);
        assert_eq!(snap.dropped, 2);
        let details: Vec<&str> = snap.events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, ["event 2", "event 3", "event 4"]);
        let mut last = 0;
        for e in &snap.events {
            assert!(e.t_us >= last, "timestamps monotone");
            last = e.t_us;
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        assert!(!fr.is_enabled());
        fr.note("flight.test", "ignored");
        fr.note_traced("flight.test", "ignored", "id");
        let snap = fr.snapshot();
        assert_eq!(snap.capacity, 0);
        assert!(snap.events.is_empty());
    }

    #[test]
    fn clones_share_the_ring() {
        let fr = FlightRecorder::new(8);
        let other = fr.clone();
        fr.note("flight.a", "one");
        other.note("flight.b", "two");
        assert_eq!(fr.snapshot().events.len(), 2);
    }

    #[test]
    fn dump_json_parses_and_round_trips_fields() {
        let fr = FlightRecorder::new(4);
        fr.note("flight.request.rejected", "queue full (depth 2)");
        fr.note_traced("flight.deadline.missed", "1500us over", "ab12-7");
        let text = flight_json(&fr.snapshot(), "manual", &[("component", "test")]);
        let v = parse(&text).expect("dump must parse");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("adapipe-flight/v1")
        );
        assert_eq!(v.get("reason").and_then(Value::as_str), Some("manual"));
        let Some(Value::Array(events)) = v.get("events") else {
            panic!("events array");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("trace_id").and_then(Value::as_str),
            Some("ab12-7")
        );
        assert!(events[0].get("trace_id").is_none());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let fr = FlightRecorder::new(0);
        fr.note("flight.test", "a");
        fr.note("flight.test", "b");
        let snap = fr.snapshot();
        assert_eq!(snap.capacity, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].detail, "b");
    }
}
