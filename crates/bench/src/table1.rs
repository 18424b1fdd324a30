//! Table 1 — publication routing time per message.
//!
//! Publications (paths of 500 NITF documents) are routed against
//! 100,000 XPEs under four table organizations: flat (no covering),
//! covering, covering + perfect merging, covering + imperfect merging
//! (`D = 0.1`). The paper reports covering cutting Set A's routing
//! time by 84.6 % and Set B's by 47.5 %, with merging improving both
//! further.
//!
//! The four tables are built first, as separate routers, and every
//! publication is routed through each once, untimed. Then `ROUNDS`
//! timed passes visit the four tables in turn, timing each
//! publication's `matching_hops` call, and in each cell every
//! publication keeps its fastest time, so every cell still counts each
//! publication once. Interleaving matters because a cell now takes
//! about a microsecond per path: cells timed seconds apart would see
//! different host speeds. Keeping the fastest time per publication,
//! not per pass, means a preemption spoils one sample instead of a
//! whole pass, while each pass still runs on warm caches.
//!
//! Publications are routed in document order, so the shared automaton
//! resumes each path at the prefix it shares with the one before, and
//! a path's time includes that reuse.
//!
//! Each cell is a [`Histogram`] of those per-publication fastest
//! times. Its mean is the paper's figure; its quantiles spread over
//! publications (cheap paths against expensive ones), so they are not
//! tail latencies.

use crate::{universe_sample, Scale, SEED};
use std::time::Duration;
use xdn_core::rtable::{FlatPrt, Prt, PublicationRouter, SubId};
use xdn_obs::{Histogram, Stopwatch};
use xdn_workloads::{docs, nitf_dtd, sets};
use xdn_xpath::Xpe;

/// Timed passes per cell; each publication keeps its fastest time.
pub const ROUNDS: usize = 5;

/// Times one table on every publication path.
type Cell<'a> = &'a dyn Fn() -> Vec<Duration>;

/// Routing times for every (method, set) cell: one sample per
/// publication, its fastest of `ROUNDS` passes. [`Histogram::mean`]
/// reproduces the paper's reported figure; the quantiles, this
/// reproduction's addition, spread over publications.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Methods in paper order: no covering, covering, perfect merging,
    /// imperfect merging.
    pub methods: [&'static str; 4],
    /// Per-publication fastest routing times for Set A.
    pub set_a: [Histogram; 4],
    /// Per-publication fastest routing times for Set B.
    pub set_b: [Histogram; 4],
    /// Number of publications routed.
    pub publications: usize,
}

/// Runs the experiment.
pub fn run(scale: &Scale) -> Table1 {
    let dtd = nitf_dtd();
    let universe = universe_sample(&dtd, 4_000);
    let documents = docs::documents(&dtd, scale.table1_docs, SEED + 5);
    let paths = docs::publication_paths(&documents);
    let pubs: Vec<Vec<String>> = paths.into_iter().map(|p| p.elements).collect();

    let a = sets::set_a(&dtd, scale.table1_queries, SEED + 6);
    let b = sets::set_b(&dtd, scale.table1_queries, SEED + 7);

    Table1 {
        methods: [
            "No Covering",
            "Covering",
            "Perfect Merging",
            "Imperfect Merging",
        ],
        set_a: run_set(&a, &pubs, &universe),
        set_b: run_set(&b, &pubs, &universe),
        publications: pubs.len(),
    }
}

/// Routes each publication once and returns its routing time.
fn time_each<H: Clone + Ord, R: PublicationRouter<H>>(
    router: &R,
    pubs: &[Vec<String>],
) -> Vec<Duration> {
    pubs.iter()
        .map(|p| {
            let sw = Stopwatch::start();
            let hops = std::hint::black_box(router.matching_hops(p, &[]));
            let took = sw.elapsed();
            drop(hops);
            took
        })
        .collect()
}

fn run_set(queries: &[Xpe], pubs: &[Vec<String>], universe: &[Vec<String>]) -> [Histogram; 4] {
    let mut flat: FlatPrt<u32> = FlatPrt::new();
    let mut covering: Prt<u32> = Prt::new();
    let mut perfect: Prt<u32> = Prt::new();
    let mut imperfect: Prt<u32> = Prt::new();
    for (i, q) in queries.iter().enumerate() {
        let (id, hop) = (SubId(i as u64), i as u32);
        flat.insert(id, q.clone(), hop);
        covering.insert(id, q.clone(), hop);
        perfect.insert(id, q.clone(), hop);
        imperfect.insert(id, q.clone(), hop);
    }
    let mut seq = 1_000_000u64;
    let mut next_id = || {
        seq += 1;
        SubId(seq)
    };
    perfect.apply_merging(universe, 0.0, &mut next_id);
    // Imperfect merging runs on top of the perfect pass, as in a broker
    // that relaxes its degree budget.
    imperfect.apply_merging(universe, 0.0, &mut next_id);
    imperfect.apply_merging(universe, 0.1, &mut next_id);

    let cells: [Cell; 4] = [
        &|| time_each(&flat, pubs),
        &|| time_each(&covering, pubs),
        &|| time_each(&perfect, pubs),
        &|| time_each(&imperfect, pubs),
    ];
    for cell in cells {
        cell();
    }
    let mut fastest = [(); 4].map(|()| vec![Duration::MAX; pubs.len()]);
    for _ in 0..ROUNDS {
        for (cell, fastest) in cells.iter().zip(&mut fastest) {
            for (best, took) in fastest.iter_mut().zip(cell()) {
                *best = (*best).min(took);
            }
        }
    }
    fastest.map(|times| {
        let mut hist = Histogram::new();
        for took in times {
            hist.record(took);
        }
        hist
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_beats_flat_on_both_sets() {
        let t = run(&Scale::quick());
        assert!(t.publications > 100);
        // Table 1's ordering: covering < no covering, merging <= covering
        // (allowing jitter headroom on the small quick scale).
        for set in [&t.set_a, &t.set_b] {
            assert_eq!(set[0].count(), t.publications as u64);
            assert!(
                set[1].mean() < set[0].mean(),
                "covering ({:?}) must beat flat ({:?})",
                set[1].mean(),
                set[0].mean()
            );
            let merged_ok = set[2].mean() <= set[1].mean() + set[1].mean() / 2;
            assert!(merged_ok, "merging should not regress much");
            // The distribution is populated, not just its mean.
            assert!(set[0].p95() >= set[0].p50());
        }
    }
}
