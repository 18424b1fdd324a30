//! Transport-neutral metric snapshots and their text exporter.
//!
//! Layers assemble [`MetricFamily`] values (from a `BrokerStats` or
//! ad-hoc gauges like queue depths) and hand them to
//! [`render_prometheus`]. The Prometheus text format is the one
//! `xdn-node` serves on its control socket; the format is covered by a
//! golden snapshot test, so changes here are deliberate.

use crate::hist::Histogram;
use std::fmt::Write as _;

/// The value of one sample.
///
/// Histogram snapshots dominate the enum's size, but samples are built
/// once per scrape and dropped immediately after rendering, so the
/// uneven variants are not worth a heap indirection.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricData {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(i64),
    /// Latency distribution.
    Histogram(Histogram),
}

/// One labelled sample within a family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label key/value pairs, e.g. `[("kind", "publish")]`.
    pub labels: Vec<(String, String)>,
    /// The sample's value.
    pub data: MetricData,
}

/// A named metric with one or more labelled samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Metric name (`snake_case`, conventionally `xdn_`-prefixed).
    pub name: String,
    /// One-line description, emitted as `# HELP`.
    pub help: String,
    /// The family's samples.
    pub samples: Vec<Sample>,
}

impl MetricFamily {
    /// An empty family.
    pub fn new(name: &str, help: &str) -> Self {
        MetricFamily {
            name: name.to_owned(),
            help: help.to_owned(),
            samples: Vec::new(),
        }
    }

    /// A family holding a single unlabelled counter.
    pub fn counter(name: &str, help: &str, value: u64) -> Self {
        let mut f = Self::new(name, help);
        f.push(&[], MetricData::Counter(value));
        f
    }

    /// A family holding a single unlabelled gauge.
    pub fn gauge(name: &str, help: &str, value: i64) -> Self {
        let mut f = Self::new(name, help);
        f.push(&[], MetricData::Gauge(value));
        f
    }

    /// A family holding a single unlabelled histogram.
    pub fn histogram(name: &str, help: &str, hist: Histogram) -> Self {
        let mut f = Self::new(name, help);
        f.push(&[], MetricData::Histogram(hist));
        f
    }

    /// Appends one sample.
    pub fn push(&mut self, labels: &[(&str, &str)], data: MetricData) {
        self.samples.push(Sample {
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            data,
        });
    }
}

/// Renders families in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers, one line per sample,
/// histograms expanded into cumulative `_bucket{le=…}` series plus
/// `_sum` and `_count`. Durations are expressed in seconds, the
/// Prometheus convention.
pub fn render_prometheus(families: &[MetricFamily]) -> String {
    let mut out = String::new();
    for family in families {
        if !family.help.is_empty() {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
        }
        let type_name = match family.samples.first().map(|s| &s.data) {
            Some(MetricData::Counter(_)) | None => "counter",
            Some(MetricData::Gauge(_)) => "gauge",
            Some(MetricData::Histogram(_)) => "histogram",
        };
        let _ = writeln!(out, "# TYPE {} {}", family.name, type_name);
        for sample in &family.samples {
            match &sample.data {
                MetricData::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        family.name,
                        fmt_labels(&sample.labels, None),
                        v
                    );
                }
                MetricData::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        family.name,
                        fmt_labels(&sample.labels, None),
                        v
                    );
                }
                MetricData::Histogram(h) => {
                    for (bound_ns, cumulative) in h.cumulative_buckets() {
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            family.name,
                            fmt_labels(&sample.labels, Some(&fmt_seconds(u128::from(bound_ns)))),
                            cumulative
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        family.name,
                        fmt_labels(&sample.labels, Some("+Inf")),
                        h.count()
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        family.name,
                        fmt_labels(&sample.labels, None),
                        fmt_seconds(h.sum_ns())
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        family.name,
                        fmt_labels(&sample.labels, None),
                        h.count()
                    );
                }
            }
        }
    }
    out
}

/// Formats nanoseconds as decimal seconds with no trailing zeros
/// (`1000` → `0.000001`, `5_000_000_000` → `5`). Deterministic — no
/// float formatting — so golden tests stay byte-stable.
fn fmt_seconds(ns: u128) -> String {
    const NANOS_PER_SEC: u128 = 1_000_000_000;
    let secs = ns / NANOS_PER_SEC;
    let frac = ns % NANOS_PER_SEC;
    if frac == 0 {
        return secs.to_string();
    }
    let mut frac_str = format!("{frac:09}");
    while frac_str.ends_with('0') {
        frac_str.pop();
    }
    format!("{secs}.{frac_str}")
}

fn fmt_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", k, escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn seconds_formatting_is_deterministic() {
        assert_eq!(fmt_seconds(0), "0");
        assert_eq!(fmt_seconds(1_000), "0.000001");
        assert_eq!(fmt_seconds(1_500_000), "0.0015");
        assert_eq!(fmt_seconds(5_000_000_000), "5");
        assert_eq!(fmt_seconds(5_250_000_000), "5.25");
    }

    #[test]
    fn counter_and_gauge_lines() {
        let mut msgs = MetricFamily::new("xdn_messages_total", "Messages by kind.");
        msgs.push(&[("kind", "publish")], MetricData::Counter(4));
        msgs.push(&[("kind", "subscribe")], MetricData::Counter(2));
        let depth = MetricFamily::gauge("xdn_queue_depth", "Frames queued.", 3);
        let text = render_prometheus(&[msgs, depth]);
        assert!(text.contains("# TYPE xdn_messages_total counter\n"));
        assert!(text.contains("xdn_messages_total{kind=\"publish\"} 4\n"));
        assert!(text.contains("# TYPE xdn_queue_depth gauge\n"));
        assert!(text.contains("xdn_queue_depth 3\n"));
    }

    #[test]
    fn histogram_expands_to_buckets_sum_count() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(3));
        let fam = MetricFamily::histogram("xdn_lat", "Latency.", h);
        let text = render_prometheus(&[fam]);
        assert!(text.contains("xdn_lat_bucket{le=\"0.000005\"} 2\n"));
        assert!(text.contains("xdn_lat_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("xdn_lat_sum 0.000006\n"));
        assert!(text.contains("xdn_lat_count 2\n"));
    }
}
