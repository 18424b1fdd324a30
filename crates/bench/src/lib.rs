#![forbid(unsafe_code)]
//! # xdn-bench — the reproduction harness
//!
//! One module per table/figure of the paper's evaluation (§5). Every
//! experiment is a plain function from a [`Scale`] to a typed result,
//! so the same code backs
//!
//! * the `repro` binary (`cargo run -p xdn-bench --release --bin repro`),
//!   which prints paper-style tables,
//! * the cross-crate integration tests, which assert the paper's
//!   qualitative shapes (who wins, by roughly what factor).
//!
//! The self-timed benches in `benches/` (`matching`, `wire`) write the
//! `BENCH_*.json` artifacts.
//!
//! Absolute numbers differ from the paper — its testbed was a 2003-era
//! cluster and PlanetLab — but each experiment preserves the relation
//! the paper reports (see `EXPERIMENTS.md`).

pub mod delay;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod report;
pub mod scale;
pub mod table1;
pub mod traffic;

pub use scale::Scale;

/// Base seed for every experiment; sub-experiments derive from it.
pub const SEED: u64 = 0x1cdc_5200;

/// A deterministic sample of a DTD's path universe, used where the
/// full universe would make `D_imperfect` scoring needlessly slow.
pub fn universe_sample(dtd: &xdn_xml::dtd::Dtd, cap: usize) -> Vec<Vec<String>> {
    let full = xdn_workloads::universe(dtd);
    if full.len() <= cap {
        return full;
    }
    let stride = full.len() / cap;
    full.into_iter().step_by(stride.max(1)).take(cap).collect()
}
