//! The JSON metrics report: everything a run recorded, as one
//! machine-readable document (the artifact behind `--metrics-out` and
//! the `results/BENCH_*.json` files).

#![expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String cannot fail"
)]

use crate::recorder::Snapshot;
use std::fmt::Write as _;

/// Escapes `s` for inclusion in a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as JSON (JSON has no NaN/Infinity; they become
/// `null`).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Trim to a stable, compact form.
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() || s == "-" {
            "0".to_string()
        } else {
            s.to_string()
        }
    } else {
        "null".to_string()
    }
}

/// Renders `snapshot` as a self-describing JSON metrics report.
///
/// `meta` key/value pairs land under `"meta"` (model name, method,
/// command line — whatever identifies the run). Histograms are exported
/// as `{count, sum, p50, p95, p99, max}` objects; spans are aggregated
/// per name into `{count, total_us}` (the full per-event stream belongs
/// to the Chrome trace, not the metrics report).
#[must_use]
pub fn metrics_json(snapshot: &Snapshot, meta: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"adapipe-obs/v1\",\n");

    out.push_str("  \"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": \"{}\"", escape_json(k), escape_json(v));
    }
    out.push_str(if meta.is_empty() { "},\n" } else { "\n  },\n" });

    out.push_str("  \"counters\": {");
    for (i, (k, v)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {v}", escape_json(k));
    }
    out.push_str(if snapshot.counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    out.push_str("  \"gauges\": {");
    for (i, (k, v)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", escape_json(k), json_num(*v));
    }
    out.push_str(if snapshot.gauges.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    out.push_str("  \"histograms\": {");
    for (i, (k, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
            escape_json(k),
            h.count,
            json_num(h.sum),
            json_num(h.p50),
            json_num(h.p95),
            json_num(h.p99),
            json_num(h.max)
        );
    }
    out.push_str(if snapshot.histograms.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    // Aggregate spans by name, preserving first-seen order.
    let mut order: Vec<&str> = Vec::new();
    let mut agg: std::collections::BTreeMap<&str, (u64, f64)> = std::collections::BTreeMap::new();
    for s in &snapshot.spans {
        let e = agg.entry(&s.name).or_insert_with(|| {
            order.push(&s.name);
            (0, 0.0)
        });
        e.0 += 1;
        e.1 += s.dur_us;
    }
    out.push_str("  \"spans\": {");
    for (i, name) in order.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (count, total) = agg[name];
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {count}, \"total_us\": {}}}",
            escape_json(name),
            json_num(total)
        );
    }
    out.push_str(if order.is_empty() { "}\n" } else { "\n  }\n" });

    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::Recorder;

    #[test]
    fn report_is_valid_json_and_complete() {
        let rec = Recorder::new();
        rec.add("a.count", 7);
        rec.gauge("b.level", 0.5);
        rec.observe("c.us", 12.0);
        rec.observe("c.us", 18.0);
        rec.time("phase", || {});
        rec.time("phase", || {});
        let text = metrics_json(
            &rec.snapshot(),
            &[("model", "gpt2"), ("note", "a \"q\" \n")],
        );
        let v = parse(&text).expect("valid JSON");
        let Value::Object(top) = v else {
            panic!("not an object")
        };
        assert_eq!(
            top.get("schema"),
            Some(&Value::String("adapipe-obs/v1".into()))
        );
        let Some(Value::Object(counters)) = top.get("counters") else {
            panic!("no counters")
        };
        assert_eq!(counters.get("a.count"), Some(&Value::Number(7.0)));
        let Some(Value::Object(hists)) = top.get("histograms") else {
            panic!("no histograms")
        };
        let Some(Value::Object(c)) = hists.get("c.us") else {
            panic!("no c.us")
        };
        assert_eq!(c.get("count"), Some(&Value::Number(2.0)));
        let Some(Value::Object(spans)) = top.get("spans") else {
            panic!("no spans")
        };
        let Some(Value::Object(phase)) = spans.get("phase") else {
            panic!("no phase")
        };
        assert_eq!(phase.get("count"), Some(&Value::Number(2.0)));
    }

    #[test]
    fn empty_snapshot_is_still_valid_json() {
        let text = metrics_json(&Recorder::new().snapshot(), &[]);
        assert!(parse(&text).is_ok(), "{text}");
    }

    #[test]
    fn numbers_render_compactly() {
        assert_eq!(json_num(1.0), "1");
        assert_eq!(json_num(0.5), "0.5");
        assert_eq!(json_num(-2.25), "-2.25");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(0.0), "0");
    }

    #[test]
    fn escaping_handles_control_characters() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
