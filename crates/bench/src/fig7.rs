//! Figure 7 — routing-table size under covering, perfect merging, and
//! imperfect merging (Set B).
//!
//! The paper reports perfect merging compacting the covering table to
//! ≈87 % of its size, and imperfect merging with `D = 0.1` to ≈67 %.

use crate::{universe_sample, Scale, SEED};
use xdn_core::subtree::SubscriptionTree;
use xdn_workloads::{nitf_dtd, sets};

/// One sampled point of the Figure 7 series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig7Row {
    /// Queries inserted so far.
    pub queries: usize,
    /// Effective table size after covering only.
    pub covering: usize,
    /// After covering + perfect merging.
    pub perfect: usize,
    /// After covering + imperfect merging (`D = 0.1`).
    pub imperfect: usize,
}

/// Runs the experiment, sampling `points` evenly spaced checkpoints.
pub fn run(scale: &Scale, points: usize) -> Vec<Fig7Row> {
    let dtd = nitf_dtd();
    // Degrees are scored against the DTD's own path universe: "perfect"
    // must mean provably-no-false-positives, so a (finite) document
    // sample would over-merge. On our synthetic DTD the (0, 0.1] degree
    // band is sparse — mergers are mostly exactly perfect or far over
    // budget — so the imperfect line tracks the perfect one closely;
    // the tested invariant is imperfect <= perfect.
    let universe = universe_sample(&dtd, 4_000);
    let queries = sets::set_b(&dtd, scale.fig7_queries, SEED + 2);
    let n = queries.len();
    let step = (n / points.max(1)).max(1);

    let mut tree: SubscriptionTree<()> = SubscriptionTree::new();
    let mut rows = Vec::new();
    let mut next_checkpoint = step;
    for (i, q) in queries.iter().enumerate() {
        tree.insert(q.clone(), ());
        if i + 1 == next_checkpoint || i + 1 == n {
            let covering = tree.root_count();
            let mut pm = tree.clone();
            xdn_core::merge::merge_tree(&mut pm, &universe, 0.0);
            let mut ipm = tree.clone();
            xdn_core::merge::merge_tree(&mut ipm, &universe, 0.1);
            rows.push(Fig7Row {
                queries: i + 1,
                covering,
                perfect: pm.root_count(),
                imperfect: ipm.root_count(),
            });
            next_checkpoint += step;
        }
    }
    rows.dedup_by_key(|r| r.queries);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_compacts_beyond_covering() {
        let rows = run(&Scale::quick(), 3);
        let last = rows.last().unwrap();
        assert!(
            last.perfect < last.covering,
            "perfect merging must shrink the table: {} vs {}",
            last.perfect,
            last.covering
        );
        assert!(
            last.imperfect <= last.perfect,
            "imperfect merging admits every perfect merger and more: {} vs {}",
            last.imperfect,
            last.perfect
        );
    }
}
