//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its metadata and every metric it measured
//! (one `name value unit` line each), and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced run (`--trace 1`). Exits non-zero when a delivery differs
//! from the oracle or a check fails.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xdn_e2ebench::common::Run;
use xdn_e2ebench::report::{json_str, END_TO_END, PER_LAYER};
use xdn_e2ebench::{run_workload, Scale, WORKLOADS};

const USAGE: &str =
    "usage: e2ebench --workload <nitf-match|nitf-churn|tcp-chain> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The commit being measured, read from the checkout's own `.git`
/// (nothing outside the checkout is consulted); `unknown` elsewhere.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            line.split_whitespace().next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: build with --release");
        return ExitCode::from(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let Some(mut outcome) = run_workload(&args.workload, &run, Scale::Full) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut meta = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("host_cores".to_string(), cores.to_string()),
        ("build_profile".to_string(), json_str("release")),
        ("git_commit".to_string(), json_str(&git_commit())),
    ];
    meta.extend(outcome.meta.iter().map(|(k, v)| (k.clone(), json_str(v))));
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("meta {{{}}}", meta.join(", "));
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for n in &outcome.notes {
        println!("note {n}");
    }
    for f in &outcome.check_failures {
        println!("check failed: {f}");
    }
    if let Some(tracer) = outcome.trace.take() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("note spans not written: {e}"),
        }
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.result_line(wanted) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("incomplete run: {e}");
            ExitCode::from(1)
        }
    }
}
