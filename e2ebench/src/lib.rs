#![deny(unsafe_code)]
//! # xdn-e2ebench — one self-timed benchmark for the whole network
//!
//! Three workloads drive the system only through its public entry
//! points and time every call from outside:
//!
//! * [`nitf_match`] — publication matching over an in-process 5-broker
//!   chain whose frames really go through the wire codec ([`chain`]);
//! * [`nitf_churn`] — subscribe/unsubscribe churn with publications in
//!   between, on the same kind of chain;
//! * [`tcp_chain`] — three `TcpNode`s on loopback under an open-loop
//!   publisher.
//!
//! Every delivery is checked against an independent [`oracle`]; every
//! headline timing is CPU time ([`cpu`]), taken over the quiet blocks of
//! a run, and every percentile comes from raw samples ([`stats`]); the
//! traced run records spans around each layer call ([`trace`]). `README.md` in
//! this directory lists every metric, its unit, its direction, its
//! layer, and the end-to-end metric and workload it should move.

pub mod chain;
pub mod common;
#[allow(unsafe_code)]
pub mod cpu;
pub mod nitf_churn;
pub mod nitf_match;
pub mod oracle;
pub mod reference;
pub mod report;
pub mod stats;
pub mod tcp_chain;
pub mod trace;

use common::Run;
use report::Outcome;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["nitf-match", "nitf-churn", "tcp-chain"];

/// Benchmark or test dimensions of every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's dimensions.
    Full,
    /// Tiny dimensions for the benchmark's own tests.
    Tiny,
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, run: &Run, scale: Scale) -> Option<Outcome> {
    let outcome = match (name, scale) {
        ("nitf-match", Scale::Full) => nitf_match::run(run, &nitf_match::Size::full()),
        ("nitf-match", Scale::Tiny) => nitf_match::run(run, &nitf_match::Size::tiny()),
        ("nitf-churn", Scale::Full) => nitf_churn::run(run, &nitf_churn::Size::full()),
        ("nitf-churn", Scale::Tiny) => nitf_churn::run(run, &nitf_churn::Size::tiny()),
        ("tcp-chain", Scale::Full) => tcp_chain::run(run, &tcp_chain::Size::full()),
        ("tcp-chain", Scale::Tiny) => tcp_chain::run(run, &tcp_chain::Size::tiny()),
        _ => return None,
    };
    Some(outcome)
}
