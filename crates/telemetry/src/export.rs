//! CSV and JSON exporters.
//!
//! Everything is rendered by hand into `String`s in stable column orders,
//! so the fig8/fig9/fig10 bench binaries — and any external plotting
//! script — can regenerate the paper's transmission-time panels from files
//! alone.

use std::fmt::Write as _;
use std::path::Path;

use crate::hist::Histogram;
use crate::metrics::Registry;
use crate::span::StageBreakdown;

/// Stage-summary table: one row per lifecycle stage with count, exact mean,
/// and interpolated quantiles (µs).
pub fn stage_summary_csv(breakdown: &StageBreakdown) -> String {
    let mut out = String::from("stage,count,mean_us,p50_us,p95_us,p99_us,max_us\n");
    for (name, h) in breakdown.stages() {
        let us = |nanos: u64| nanos as f64 / 1e3;
        let _ = writeln!(
            out,
            "{},{},{:.3},{:.3},{:.3},{:.3},{:.3}",
            name,
            h.count(),
            us(h.mean()),
            us(h.quantile(0.5)),
            us(h.quantile(0.95)),
            us(h.quantile(0.99)),
            us(h.max()),
        );
    }
    out
}

/// CDF table of a histogram evaluated at `points` (nanoseconds):
/// `threshold_ms,fraction` rows, e.g. the paper's "wait ≤ 20 ms in 96.61% of
/// sessions" reads straight off this file.
pub fn cdf_csv(h: &Histogram, points_nanos: &[u64]) -> String {
    let mut out = String::from("threshold_ms,fraction\n");
    for &p in points_nanos {
        let _ = writeln!(out, "{:.3},{:.6}", p as f64 / 1e6, h.cdf_at(p));
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The whole registry as a JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{name:{count,mean,p50,p95,
/// p99,max}}}`.
pub fn registry_json(registry: &Registry) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let counters = registry.counter_values();
    for (i, (name, v)) in counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {v}", json_escape(name));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    let gauges = registry.gauge_values();
    for (i, (name, v)) in gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {v}", json_escape(name));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    let hists = registry.histogram_values();
    for (i, (name, h)) in hists.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \
             \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            json_escape(name),
            h.count(),
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max(),
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Writes `content` to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Returns any I/O error encountered.
pub fn write_file(path: impl AsRef<Path>, content: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, content)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::span::{assemble, MessageSpan};

    fn sample_spans() -> Vec<MessageSpan> {
        let events = vec![
            Event { msg_id: 1, kind: EventKind::SendEnqueued, t_nanos: 0, aux: 64 },
            Event { msg_id: 1, kind: EventKind::StoreInserted, t_nanos: 1_000, aux: 64 },
            Event { msg_id: 1, kind: EventKind::Routed, t_nanos: 1_500, aux: 1 },
            Event { msg_id: 1, kind: EventKind::Fetched, t_nanos: 3_000, aux: 0 },
            Event { msg_id: 1, kind: EventKind::Consumed, t_nanos: 10_000, aux: 0 },
        ];
        assemble(&events)
    }

    #[test]
    fn stage_summary_covers_all_stages() {
        let breakdown = StageBreakdown::from_spans(&sample_spans());
        let csv = stage_summary_csv(&breakdown);
        for stage in ["serialize", "store", "route", "nic", "wait", "total"] {
            assert!(csv.lines().any(|l| l.starts_with(stage)), "missing {stage}: {csv}");
        }
    }

    #[test]
    fn cdf_csv_reaches_one() {
        let h = Histogram::new();
        for v in [1_000_000u64, 5_000_000, 30_000_000] {
            h.record(v);
        }
        let csv = cdf_csv(&h, &[1_000_000, 20_000_000, 1_000_000_000]);
        let last = csv.lines().last().unwrap();
        assert!(last.starts_with("1000.000,1.000000"), "{csv}");
    }

    #[test]
    fn registry_json_is_structurally_sound() {
        let r = Registry::new();
        r.counter("comm.messages").add(3);
        r.gauge("store.live_bytes").set(-1);
        r.histogram("learner.wait_ns").record(42);
        let json = registry_json(&r);
        assert!(json.contains("\"comm.messages\": 3"));
        assert!(json.contains("\"store.live_bytes\": -1"));
        assert!(json.contains("\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn write_file_creates_parents() {
        let dir = std::env::temp_dir().join(format!("xt-telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        write_file(&path, "a,b\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
