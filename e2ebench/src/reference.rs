//! The host-speed reference.
//!
//! Even on a CPU clock, the same work costs up to 1.7x more while other
//! tenants load the physical cores this host shares, for stretches of
//! seconds to minutes. Tight loops hardly see it; work shaped like the
//! program's does. The reference is such work, owned by the benchmark
//! and fixed: naive matching of fixed NITF paths against fixed NITF
//! Set A XPEs, with the allocation and hashing of a broker hop. Timed
//! between the measured work, in the same blocks, it gives the host's
//! slowdown there: its CPU time over [`NOMINAL_US`]. The headline figures
//! are scaled by that slowdown, so they read as CPU time on a host where
//! one reference unit takes [`NOMINAL_US`]. A change to the program
//! leaves the reference alone, so its effect on the scaled figures is
//! its effect on the CPU time.

use crate::common::{POOL_SEED, POPULATION_SEED};
use crate::stats::Samples;
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use xdn_workloads::{docs, nitf_dtd, sets};
use xdn_xml::paths::{dedup_paths, extract_paths};
use xdn_xml::DocId;

/// CPU microseconds of one reference unit on a quiet host (a 2-vCPU
/// Xeon virtual machine with its neighbours idle), so that scaled
/// figures stay close to the CPU time measured there.
pub const NOMINAL_US: f64 = 1800.0;

/// XPEs the reference matches against.
const XPES: usize = 2000;

/// Documents whose paths the reference matches.
const DOCS: usize = 100;

/// Paths one unit matches.
const PATHS_PER_UNIT: usize = 40;

/// Units timed in each block: spread over a pass, or just before a
/// set-up.
pub const UNITS_PER_BLOCK: usize = 4;

/// One location step of an XPE, as the reference matcher sees it.
enum Step {
    Child(String),
    Descendant(String),
    AnyChild,
    AnyDescendant,
}

/// Parses an XPE's text into steps, ignoring predicates.
fn steps(xpe: &str) -> Vec<Step> {
    let mut out = Vec::new();
    let mut descendant = false;
    for segment in xpe.split('/').skip(1) {
        if segment.is_empty() {
            descendant = true;
            continue;
        }
        let name = segment.split('[').next().unwrap_or_default().to_string();
        out.push(match (descendant, name == "*") {
            (false, false) => Step::Child(name),
            (true, false) => Step::Descendant(name),
            (false, true) => Step::AnyChild,
            (true, true) => Step::AnyDescendant,
        });
        descendant = false;
    }
    out
}

fn matches(steps: &[Step], path: &[String]) -> bool {
    let Some((first, rest)) = steps.split_first() else {
        return true;
    };
    let tail = |i: usize| path.get(i + 1..).unwrap_or_default();
    match first {
        Step::Child(n) => path.first() == Some(n) && matches(rest, tail(0)),
        Step::AnyChild => !path.is_empty() && matches(rest, tail(0)),
        Step::Descendant(n) => (0..path.len()).any(|i| path[i] == *n && matches(rest, tail(i))),
        Step::AnyDescendant => (0..path.len()).any(|i| matches(rest, tail(i))),
    }
}

/// The reference workload and where it is in its paths.
pub struct Reference {
    xpes: Vec<Vec<Step>>,
    paths: Vec<Vec<String>>,
    at: usize,
    seen: HashMap<String, u64>,
}

impl Reference {
    /// The fixed reference; building it is not timed.
    pub fn new() -> Reference {
        let dtd = nitf_dtd();
        let xpes = sets::set_a(&dtd, XPES, POPULATION_SEED)
            .iter()
            .map(|x| steps(&x.to_string()))
            .collect();
        let paths = docs::documents(&dtd, DOCS, POOL_SEED)
            .iter()
            .flat_map(|d| dedup_paths(extract_paths(d, DocId(0))))
            .map(|p| p.elements)
            .collect();
        Reference {
            xpes,
            paths,
            at: 0,
            seen: HashMap::new(),
        }
    }

    /// Runs one unit and returns its CPU microseconds.
    fn unit(&mut self) -> f64 {
        let t0 = crate::cpu::thread();
        let mut work = 0usize;
        for _ in 0..PATHS_PER_UNIT {
            self.at = (self.at + 1) % self.paths.len();
            let path = self.paths[self.at].clone();
            for e in &path {
                *self.seen.entry(e.clone()).or_default() += 1;
            }
            let frame: Vec<u8> = path.iter().flat_map(|e| e.bytes().chain([0])).collect();
            work += frame.len();
            work += self.xpes.iter().filter(|x| matches(x, &path)).count();
        }
        black_box(work);
        (crate::cpu::thread() - t0).as_secs_f64() * 1e6
    }

    /// Runs `n` units, recording each in `block` of `samples`.
    pub fn time(&mut self, n: usize, block: u32, samples: &mut Samples) {
        for _ in 0..n {
            samples.push(block, self.unit());
        }
    }
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

/// The host's slowdown over `blocks`: the mean reference unit there over
/// [`NOMINAL_US`] (1 without samples).
pub fn slowdown(samples: &Samples, blocks: &BTreeSet<u32>) -> f64 {
    let there = samples.only(blocks);
    if there.is_empty() {
        1.0
    } else {
        there.mean() / NOMINAL_US
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matcher_follows_the_axes() {
        let path: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        for (xpe, want) in [
            ("/a/b", true),
            ("/a/c", false),
            ("/a//c", true),
            ("//b/c", true),
            ("/*/b/*", true),
            ("/a/*/b", false),
            ("//*/c[@x]", true),
        ] {
            assert_eq!(matches(&steps(xpe), &path), want, "{xpe}");
        }
    }
}
