//! Timeline rendering: ASCII Gantt charts (the Figure 2 style) and
//! Chrome-trace JSON export (`chrome://tracing` / Perfetto) for
//! inspecting simulated schedules interactively.

#![expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String cannot fail"
)]

use crate::report::SimReport;
use crate::task::OpKind;
use adapipe_units::{convert, Bytes, MicroSecs};
use std::fmt::Write as _;

/// Renders the report as an ASCII Gantt chart, one row per device,
/// `width` characters across the makespan. Forward passes print their
/// micro-batch digit (mod 10), backward passes print `B`, idle time `.`.
///
/// # Panics
///
/// Panics if `width` is zero.
#[must_use]
pub fn render_ascii(report: &SimReport, width: usize) -> String {
    assert!(width > 0, "need a positive width");
    let mut out = String::new();
    if report.makespan <= MicroSecs::ZERO {
        return out;
    }
    let scale = convert::count_f64(width) / report.makespan.as_micros();
    for dev in 0..report.devices.len() {
        let mut line = vec!['.'; width];
        for e in report.timeline.iter().filter(|e| e.device == dev) {
            let from = convert::f64_usize_clamped((e.start.as_micros() * scale).floor());
            let to = convert::f64_usize_clamped((e.end.as_micros() * scale).ceil())
                .min(width)
                .max(from + 1);
            let ch = match e.meta.kind {
                OpKind::Forward => u32::try_from(e.meta.micro_batch % 10)
                    .ok()
                    .and_then(|d| char::from_digit(d, 10))
                    .unwrap_or('F'),
                OpKind::Backward => 'B',
            };
            for c in line.iter_mut().take(to).skip(from) {
                *c = ch;
            }
        }
        let _ = writeln!(out, "device {dev} |{}|", line.iter().collect::<String>());
    }
    out
}

/// Renders one device's dynamic-memory trace as a sparkline of `width`
/// buckets, each showing the bucket's peak as a 0–9 digit scaled to the
/// overall maximum (`.` = no allocation). The time-resolved view of the
/// Figure 1 measurements.
///
/// # Panics
///
/// Panics if `width` is zero.
#[must_use]
pub fn render_memory_sparkline(report: &SimReport, device: usize, width: usize) -> String {
    assert!(width > 0, "need a positive width");
    let samples: Vec<_> = report
        .memory_timeline
        .iter()
        .filter(|s| s.device == device)
        .collect();
    let max = report
        .memory_timeline
        .iter()
        .map(|s| s.bytes)
        .max()
        .unwrap_or(Bytes::ZERO);
    if max == Bytes::ZERO || report.makespan <= MicroSecs::ZERO {
        return ".".repeat(width);
    }
    // Peak per bucket, carrying the running level across bucket edges.
    let mut buckets = vec![Bytes::ZERO; width];
    let mut level = Bytes::ZERO;
    let mut cursor = 0usize;
    for (b, bucket) in buckets.iter_mut().enumerate() {
        let end = report.makespan * (convert::count_f64(b + 1) / convert::count_f64(width));
        let mut peak = level;
        while cursor < samples.len() && samples[cursor].time <= end {
            level = samples[cursor].bytes;
            peak = peak.max(level);
            cursor += 1;
        }
        *bucket = peak;
    }
    buckets
        .iter()
        .map(|&b| {
            if b == Bytes::ZERO {
                '.'
            } else {
                u32::try_from((b.get() * 9) / max.get())
                    .ok()
                    .and_then(|d| char::from_digit(d, 10))
                    .unwrap_or('9')
            }
        })
        .collect()
}

/// Exports the timeline as Chrome-trace JSON (an array of complete
/// duration events with microsecond timestamps — the native unit of
/// [`MicroSecs`], so no conversion factor appears), loadable in
/// `chrome://tracing` or Perfetto.
#[must_use]
pub fn to_chrome_trace(report: &SimReport) -> String {
    let mut out = String::from("[");
    for (i, e) in report.timeline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = format!(
            "{}{} s{}{}",
            e.meta.kind,
            e.meta.micro_batch,
            e.meta.stage,
            if e.meta.replica > 0 { " up" } else { "" }
        );
        let _ = write!(
            out,
            "\n  {{\"name\": \"{name}\", \"cat\": \"{}\", \"ph\": \"X\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 0, \"tid\": {}}}",
            report.schedule,
            e.start.as_micros(),
            (e.end - e.start).as_micros(),
            e.device,
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::schedule;
    use crate::task::StageExec;
    use adapipe_obs::Recorder;
    use adapipe_units::{Bytes, MicroSecs};

    fn report() -> SimReport {
        let stages = vec![
            StageExec {
                time_f: MicroSecs::new(1.0),
                time_b: MicroSecs::new(2.0),
                saved_bytes: Bytes::new(1),
                buffer_bytes: Bytes::ZERO
            };
            3
        ];
        simulate(
            &schedule::one_f_one_b(&stages, 4, MicroSecs::ZERO),
            &Recorder::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn ascii_has_one_row_per_device() {
        let r = report();
        let art = render_ascii(&r, 60);
        assert_eq!(art.lines().count(), 3);
        for line in art.lines() {
            assert!(line.starts_with("device "));
            assert!(line.contains('B'));
            assert!(line.contains('0'));
        }
    }

    #[test]
    fn ascii_width_is_respected() {
        let r = report();
        for width in [10usize, 40, 120] {
            for line in render_ascii(&r, width).lines() {
                let bar = line.split('|').nth(1).expect("framed row");
                assert_eq!(bar.chars().count(), width);
            }
        }
    }

    #[test]
    fn empty_report_renders_empty() {
        let r = SimReport {
            schedule: "x".into(),
            makespan: MicroSecs::ZERO,
            devices: vec![],
            timeline: vec![],
            memory_timeline: vec![],
        };
        assert!(render_ascii(&r, 10).is_empty());
    }

    #[test]
    fn memory_sparkline_tracks_the_ledger() {
        let r = report();
        let line = render_memory_sparkline(&r, 0, 40);
        assert_eq!(line.chars().count(), 40);
        // Device 0 (stage 0) reaches the global peak: a '9' must appear.
        assert!(line.contains('9'), "{line}");
        // Memory ramps up during warmup: the first bucket is below peak.
        assert!(!line.starts_with('9'), "{line}");
    }

    #[test]
    fn memory_trace_is_consistent_with_peaks() {
        let r = report();
        for (dev, d) in r.devices.iter().enumerate() {
            let max = r
                .memory_timeline
                .iter()
                .filter(|s| s.device == dev)
                .map(|s| s.bytes)
                .max()
                .unwrap_or(Bytes::ZERO);
            assert_eq!(max, d.peak_dynamic_bytes, "device {dev}");
            // Fully drained: the last sample returns to zero.
            let last = r.memory_timeline.iter().rfind(|s| s.device == dev).unwrap();
            assert_eq!(last.bytes, Bytes::ZERO, "device {dev}");
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_json_shape() {
        let r = report();
        let json = to_chrome_trace(&r);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        // One event per executed task.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), r.timeline.len());
        // Balanced braces and no stray quotes-in-names (labels are
        // machine-generated, so a structural check suffices).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"tid\": 2"));
    }

    #[test]
    fn chrome_trace_durations_are_positive() {
        let json = to_chrome_trace(&report());
        for part in json.split("\"dur\": ").skip(1) {
            let num: f64 = part.split(',').next().unwrap().parse().unwrap();
            assert!(num > 0.0);
        }
    }
}
