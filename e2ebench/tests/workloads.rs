//! The benchmark's own tests: every workload at tiny scale.
//!
//! The wire codec's counters are process-wide, so the tests take a
//! lock and run one workload at a time.

use std::sync::Mutex;
use xdn_e2ebench::common::Run;
use xdn_e2ebench::report::{Outcome, END_TO_END, PER_LAYER};
use xdn_e2ebench::{run_workload, Scale, WORKLOADS};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let run = Run {
        seed,
        seconds: 0.0,
        trace,
    };
    run_workload(workload, &run, Scale::Tiny).expect("a known workload")
}

/// `(name, unit)` of every metric entry in one section of
/// `BENCHMARK.json` (entries are written one per line).
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("the section is present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section's list ends")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..].split('"').next()?.to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
}

#[test]
fn every_workload_matches_the_oracle_and_emits_every_metric() {
    for w in WORKLOADS {
        let plain = tiny(w, 7, false);
        assert_eq!(
            plain.mismatches, 0,
            "{w}: deliveries differ from the oracle"
        );
        assert_eq!(plain.failed, 0, "{w}: documents not fully delivered");
        assert!(plain.correct(), "{w}: {:?}", plain.check_failures);
        let line = plain
            .result_line(END_TO_END)
            .unwrap_or_else(|e| panic!("{w}: {e}"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": "))
                    && line.contains(&format!("\"unit\": \"{unit}\"")),
                "{w}: {name} missing from {line}"
            );
        }

        let traced = tiny(w, 7, true);
        assert_eq!(traced.mismatches, 0, "{w}: traced deliveries differ");
        traced
            .result_line(PER_LAYER)
            .unwrap_or_else(|e| panic!("{w} traced: {e}"));
        assert!(traced.trace.is_some(), "{w}: the traced run kept its spans");
    }
}

#[test]
fn traffic_counts_repeat_exactly_for_one_seed() {
    for w in WORKLOADS {
        let a = tiny(w, 11, false);
        let b = tiny(w, 11, false);
        for name in [
            "broker_msgs_per_doc",
            "broker_msgs_per_sub_op",
            "wire_bytes_per_doc",
        ] {
            let (x, y) = (a.get(name), b.get(name));
            assert!(x.is_some(), "{w}: {name} not measured");
            assert_eq!(x, y, "{w}: {name} differs between two runs of seed 11");
        }
    }
}
