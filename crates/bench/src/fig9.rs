//! Figure 9 — false positives introduced by imperfect merging.
//!
//! An imperfect merger forwarded upstream attracts publications that
//! none of its constituent subscriptions wants; those publications
//! travel one broker hop too far (they are never delivered to
//! clients). The experiment sweeps the tolerated imperfect degree
//! `D_imperfect` and measures the percentage of upstream forwards that
//! are false.

use crate::{Scale, SEED};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xdn_core::rtable::{Prt, PublicationRouter, SubId};
use xdn_workloads::{docs, nitf_dtd};
use xdn_xpath::generate::XpeGeneratorConfig;
use xdn_xpath::Xpe;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Point {
    /// Tolerated `D_imperfect`.
    pub degree: f64,
    /// Percentage of upstream forwards that were false positives.
    pub false_positive_pct: f64,
    /// Total upstream forwards observed.
    pub forwards: u64,
}

/// Runs the sweep over the given degrees (the paper plots 0 … 0.2).
pub fn run(scale: &Scale, degrees: &[f64]) -> Vec<Fig9Point> {
    // NITF: its path universe is large enough that subscriber groups do
    // not saturate it (a saturated universe makes every merger
    // vacuously perfect and hides the effect).
    let dtd = nitf_dtd();
    // Score mergers against the *publication distribution* rather than
    // a uniform DTD enumeration: brokers estimating D_imperfect from
    // the DTD alone systematically underestimate the false positives
    // their actual document workload will see (§4.3 notes the element
    // distribution must be taken into account). A disjoint document
    // sample stands in for that distribution.
    let estimation_docs = docs::documents(&dtd, scale.fig9_docs.max(40), SEED + 77);
    let universe: Vec<Vec<String>> = docs::publication_paths(&estimation_docs)
        .into_iter()
        .map(|p| p.elements)
        .collect();
    let documents = docs::documents(&dtd, scale.fig9_docs, SEED + 11);
    let pubs: Vec<Vec<String>> = docs::publication_paths(&documents)
        .into_iter()
        .map(|p| p.elements)
        .collect();

    // Independent subscriber groups, each modelling the subscription
    // table a downstream broker exports upstream.
    // A mid-generality workload (between Sets A and B): enough near-
    // miss sibling groups that the degree budget actually selects how
    // aggressively to merge.
    let qcfg = XpeGeneratorConfig {
        max_length: 10,
        min_length: 10,
        stop_p: 0.0,
        wildcard_p: 0.18,
        descendant_p: 0.0,
        relative_p: 0.0,
        first_concrete: true,
        max_wildcards: 2,
        max_descendants: 0,
        generalize_min_walk: 6,
        ..XpeGeneratorConfig::default()
    };
    let groups: Vec<Vec<Xpe>> = (0..scale.fig9_groups)
        .map(|g| {
            let mut rng = ChaCha8Rng::seed_from_u64(SEED + 12 + g as u64);
            xdn_xpath::generate::generate_distinct_xpes(
                &dtd,
                scale.fig9_queries_per_group,
                &qcfg,
                &mut rng,
            )
        })
        .collect();

    degrees
        .iter()
        .map(|&degree| {
            let mut forwards = 0u64;
            let mut false_forwards = 0u64;
            for group in &groups {
                // Build the downstream table and merge at this degree.
                let mut prt: Prt<u32> = Prt::new();
                for (i, q) in group.iter().enumerate() {
                    prt.insert(SubId(i as u64), q.clone(), 0);
                }
                if degree > 0.0 {
                    let mut seq = 1_000_000u64;
                    prt.apply_merging(&universe, degree, || {
                        seq += 1;
                        SubId(seq)
                    });
                }
                // What the upstream broker sees is the top-level set.
                let exported: Vec<Xpe> = prt
                    .forwarded_subs()
                    .into_iter()
                    .map(|(_, x, _)| x)
                    .collect();
                for p in &pubs {
                    let forwarded = exported.iter().any(|x| x.matches_path(p));
                    if forwarded {
                        forwards += 1;
                        let wanted = group.iter().any(|x| x.matches_path(p));
                        if !wanted {
                            false_forwards += 1;
                        }
                    }
                }
            }
            Fig9Point {
                degree,
                false_positive_pct: if forwards == 0 {
                    0.0
                } else {
                    100.0 * false_forwards as f64 / forwards as f64
                },
                forwards,
            }
        })
        .collect()
}

/// The paper's sweep points.
pub fn paper_degrees() -> Vec<f64> {
    vec![0.0, 0.05, 0.10, 0.15, 0.20]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_positives_grow_with_degree_and_vanish_at_zero() {
        let points = run(&Scale::quick(), &paper_degrees());
        assert_eq!(points.len(), 5);
        assert_eq!(
            points[0].false_positive_pct, 0.0,
            "perfect merging introduces no false positives"
        );
        let last = points.last().unwrap();
        assert!(
            last.false_positive_pct >= points[1].false_positive_pct,
            "false positives must not shrink as the degree grows: {points:?}"
        );
        // Forward counts only grow as mergers get looser.
        for w in points.windows(2) {
            assert!(w[1].forwards >= w[0].forwards);
        }
    }
}
