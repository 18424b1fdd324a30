//! What a run reports, and the one-line JSON result.
//!
//! A workload measures everything it can into an [`Outcome`]. The
//! result line then carries exactly the metrics `BENCHMARK.json` lists:
//! the end-to-end ones for an untraced run, the per-layer ones for a
//! traced run. Everything else a workload measured (layers only one
//! drive has, sample counts, correctness counters) is printed on the
//! report lines above it.

/// End-to-end metrics every workload reports, with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("docs_per_cpu_s", "1/s"),
    ("deliver_p50_cpu_us", "us"),
    ("deliver_p90_cpu_us", "us"),
    ("sub_ops_per_cpu_s", "1/s"),
    ("broker_msgs_per_doc", "count"),
    ("broker_msgs_per_sub_op", "count"),
    ("wire_bytes_per_doc", "bytes"),
    ("rss_after_setup_mb", "MB"),
];

/// Per-layer metrics every workload reports from its traced run, with
/// their units, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("broker.route_us_per_path.b0", "us"),
    ("broker.route_us_per_path.b1", "us"),
    ("broker.route_us_per_path.b2", "us"),
    ("broker.sub_us.b0", "us"),
    ("broker.sub_us.b1", "us"),
    ("broker.sub_us.b2", "us"),
    ("core.prt_size.b0", "count"),
    ("core.prt_size.b1", "count"),
    ("core.prt_size.b2", "count"),
    ("core.srt_size", "count"),
    ("xml.extract_us_per_doc", "us"),
    ("wire.bytes_per_frame", "bytes"),
    ("wire.encodes_per_outbound", "ratio"),
    ("wire.pool_miss_ratio", "ratio"),
    ("reliable.acks_per_doc", "count"),
    ("reliable.dup_frames", "count"),
    ("reliable.retransmits", "count"),
    ("gen.offered_docs_per_s", "1/s"),
    ("path.nonroute_us_per_doc", "us"),
    ("drive.trace_overhead_share", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The traced run's spans, written out once the run ends.
    pub trace: Option<crate::trace::Tracer>,
    /// Documents and subscription operations attempted.
    pub attempted: u64,
    /// Of those, documents not fully delivered (by the deadline, or
    /// shed) and operations that did not complete.
    pub failed: u64,
    /// (client, doc, path) deliveries that differ from the oracle.
    pub mismatches: u64,
    /// Failed checks other than delivery mismatches.
    pub check_failures: Vec<String>,
    /// Every metric measured, in measurement order.
    pub metrics: Vec<Metric>,
    /// Why a metric is absent or how it was derived on this workload.
    pub notes: Vec<String>,
    /// Run metadata particular to the workload (`key`, `value`).
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    /// Records (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a metric only when it could be measured (a percentile
    /// with enough samples beyond it).
    pub fn set_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.set(name, v, unit),
            None => self.note(format!("{name}: too few samples beyond it to report")),
        }
    }

    /// A metric's value, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Adds a note line.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records run metadata.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// True when every delivery matched the oracle and every check held.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.check_failures.is_empty()
    }

    /// The result line: exactly the metrics of `wanted`.
    ///
    /// # Errors
    ///
    /// Names every wanted metric that was not measured or is not a
    /// finite number.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut missing = Vec::new();
        let mut fields = Vec::new();
        for (name, unit) in wanted {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    m.value
                )),
                _ => missing.push(*name),
            }
        }
        if !missing.is_empty() {
            return Err(format!("not measured: {}", missing.join(", ")));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// JSON string literal for `s` (quotes and backslashes escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
