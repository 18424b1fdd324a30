//! Table-level equivalence: the covering PRT must route exactly like
//! the flat baseline on realistic generated workloads, before and
//! after merging (perfect mergers add nothing; imperfect mergers only
//! add hops, never drop one).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use xdn::core::rtable::{FlatPrt, Prt, PublicationRouter, SubId};
use xdn::workloads::{docs, nitf_dtd, psd_dtd, sets, universe};
use xdn::xpath::generate::generate_distinct_xpes;

fn workload(
    dtd: &xdn::xml::dtd::Dtd,
    n_queries: usize,
    n_docs: usize,
    seed: u64,
) -> (Vec<xdn::xpath::Xpe>, Vec<Vec<String>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let queries = generate_distinct_xpes(dtd, n_queries, &sets::set_a_config(), &mut rng);
    let documents = docs::documents(dtd, n_docs, seed + 1);
    let paths = docs::publication_paths(&documents)
        .into_iter()
        .map(|p| p.elements)
        .collect();
    (queries, paths)
}

#[test]
fn covering_routes_like_flat() {
    for (dtd, seed) in [(psd_dtd(), 3u64), (nitf_dtd(), 4)] {
        let (queries, pubs) = workload(&dtd, 800, 20, seed);
        let mut flat: FlatPrt<u32> = FlatPrt::new();
        let mut prt: Prt<u32> = Prt::new();
        for (i, q) in queries.iter().enumerate() {
            flat.insert(SubId(i as u64), q.clone(), i as u32);
            prt.insert(SubId(i as u64), q.clone(), i as u32);
        }
        for p in &pubs {
            assert_eq!(
                prt.matching_hops(p, &[]),
                flat.matching_hops(p, &[]),
                "covering changed routing for path {p:?}"
            );
        }
    }
}

#[test]
fn perfect_merging_routes_identically() {
    let dtd = psd_dtd();
    let u = universe(&dtd);
    let (queries, pubs) = workload(&dtd, 600, 15, 9);
    let mut flat: FlatPrt<u32> = FlatPrt::new();
    let mut prt: Prt<u32> = Prt::new();
    for (i, q) in queries.iter().enumerate() {
        flat.insert(SubId(i as u64), q.clone(), i as u32);
        prt.insert(SubId(i as u64), q.clone(), i as u32);
    }
    let mut seq = 1_000_000u64;
    prt.apply_merging(&u, 0.0, || {
        seq += 1;
        SubId(seq)
    });
    for p in &pubs {
        assert_eq!(
            prt.matching_hops(p, &[]),
            flat.matching_hops(p, &[]),
            "perfect merging changed routing for {p:?}"
        );
    }
}

#[test]
fn imperfect_merging_only_adds_hops() {
    let dtd = psd_dtd();
    let u = universe(&dtd);
    let (queries, pubs) = workload(&dtd, 600, 15, 10);
    let mut flat: FlatPrt<u32> = FlatPrt::new();
    let mut prt: Prt<u32> = Prt::new();
    for (i, q) in queries.iter().enumerate() {
        flat.insert(SubId(i as u64), q.clone(), i as u32);
        prt.insert(SubId(i as u64), q.clone(), i as u32);
    }
    let mut seq = 1_000_000u64;
    prt.apply_merging(&u, 0.2, || {
        seq += 1;
        SubId(seq)
    });
    for p in &pubs {
        let truth: BTreeSet<u32> = flat.matching_hops(p, &[]);
        let got: BTreeSet<u32> = prt.matching_hops(p, &[]);
        assert!(
            got.is_superset(&truth),
            "imperfect merging dropped hops for {p:?}: {got:?} vs {truth:?}"
        );
    }
}

#[test]
fn unsubscribing_everyone_empties_the_table() {
    let dtd = psd_dtd();
    let (queries, pubs) = workload(&dtd, 300, 5, 11);
    let mut prt: Prt<u32> = Prt::new();
    for (i, q) in queries.iter().enumerate() {
        prt.insert(SubId(i as u64), q.clone(), i as u32);
    }
    for i in 0..queries.len() {
        prt.remove(SubId(i as u64));
    }
    assert!(prt.is_empty());
    assert_eq!(prt.effective_size(), 0);
    for p in &pubs {
        assert!(prt.matching_hops(p, &[]).is_empty());
    }
}

#[test]
fn interleaved_subscribe_unsubscribe_stays_consistent() {
    let dtd = nitf_dtd();
    let (queries, pubs) = workload(&dtd, 400, 10, 12);
    let mut flat: FlatPrt<u32> = FlatPrt::new();
    let mut prt: Prt<u32> = Prt::new();
    // Subscribe everything, then remove every third subscription.
    for (i, q) in queries.iter().enumerate() {
        flat.insert(SubId(i as u64), q.clone(), i as u32);
        prt.insert(SubId(i as u64), q.clone(), i as u32);
    }
    for i in (0..queries.len()).step_by(3) {
        flat.remove(SubId(i as u64));
        prt.remove(SubId(i as u64));
    }
    prt.tree()
        .check_invariants()
        .expect("tree invariants after churn");
    for p in &pubs {
        assert_eq!(
            prt.matching_hops(p, &[]),
            flat.matching_hops(p, &[]),
            "divergence after churn on {p:?}"
        );
    }
}
