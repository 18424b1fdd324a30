//! Cross-crate end-to-end tests: whole-network delivery correctness.
//!
//! The load-bearing claim behind every optimization in the paper is
//! that it changes *cost*, never *delivery*: for any workload, every
//! strategy must deliver exactly the same documents to exactly the
//! same subscribers as naive flooding with flat tables.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use xdn::broker::{BrokerId, ClientId, MessageKind, RoutingConfig};
use xdn::core::adv::{derive_advertisements, DeriveOptions};
use xdn::net::latency::ClusterLan;
use xdn::net::sim::ProcessingModel;
use xdn::net::topology::{binary_tree, binary_tree_leaves, chain};
use xdn::workloads::{docs, psd_dtd, sets};
use xdn::xml::DocId;
use xdn::xpath::generate::generate_distinct_xpes;

/// Runs one workload under a strategy and returns the delivery set.
fn deliveries(
    config: RoutingConfig,
    levels: u32,
    queries_per_sub: usize,
    n_docs: usize,
    seed: u64,
) -> BTreeSet<(ClientId, DocId)> {
    let dtd = psd_dtd();
    let mut net = binary_tree(levels, config, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids = net.broker_ids();
    let publisher = net.attach_client(ids[rng.gen_range(0..ids.len())]);

    if config.advertisements() {
        net.advertise_all(
            publisher,
            derive_advertisements(&dtd, &DeriveOptions::default()),
        );
        net.run();
    }
    if config.merge_degree().is_some() {
        let universe = std::sync::Arc::new(xdn::workloads::universe(&dtd));
        for id in net.broker_ids() {
            net.broker_mut(id).set_universe(universe.clone());
        }
    }
    for (i, leaf) in binary_tree_leaves(levels).into_iter().enumerate() {
        let subscriber = net.attach_client(leaf);
        let mut qrng = ChaCha8Rng::seed_from_u64(seed + 100 + i as u64);
        for q in generate_distinct_xpes(&dtd, queries_per_sub, &sets::set_a_config(), &mut qrng) {
            net.subscribe(subscriber, q);
        }
        // Interleave merging so mergers are live while subscriptions
        // still arrive — the adversarial case for correctness.
        if config.merge_degree().is_some() && i % 2 == 1 {
            net.run();
            net.apply_merging();
        }
    }
    net.run();

    for d in &docs::documents(&dtd, n_docs, seed + 500) {
        net.publish_document(publisher, d);
    }
    net.run();

    net.metrics()
        .notifications
        .iter()
        .map(|n| (n.client, n.doc))
        .collect()
}

#[test]
fn all_strategies_deliver_identically() {
    for seed in [1u64, 2, 3] {
        let baseline = deliveries(RoutingConfig::NoAdvNoCov, 3, 30, 6, seed);
        assert!(!baseline.is_empty(), "workload must produce deliveries");
        // Imperfect merging may only add network-internal forwards,
        // never change client deliveries.
        for config in RoutingConfig::ALL {
            let got = deliveries(config, 3, 30, 6, seed);
            assert_eq!(
                got, baseline,
                "strategy {config} changed the delivery set (seed {seed})"
            );
        }
    }
}

#[test]
fn unsubscribe_stops_delivery_and_uncovers() {
    let mut net = chain(3, RoutingConfig::WithAdvWithCov, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);
    let ids = net.broker_ids();
    let publisher = net.attach_client(ids[0]);
    let subscriber = net.attach_client(ids[2]);

    let dtd = psd_dtd();
    net.advertise_all(
        publisher,
        derive_advertisements(&dtd, &DeriveOptions::default()),
    );
    net.run();

    // A wide subscription covering a narrow one.
    let wide = net.subscribe(subscriber, "/ProteinDatabase/ProteinEntry".parse().unwrap());
    net.subscribe(
        subscriber,
        "/ProteinDatabase/ProteinEntry/header".parse().unwrap(),
    );
    net.run();

    // Retract the wide one; the narrow subscription must be promoted
    // and keep delivering.
    net.unsubscribe(subscriber, wide);
    net.run();
    net.metrics_mut().reset();

    let doc = xdn::xml::parse_document(
        "<ProteinDatabase><ProteinEntry><header><uid>X</uid><accession>A</accession></header>\
         <protein><name>n</name></protein><sequence><seq-data>S</seq-data></sequence>\
         </ProteinEntry></ProteinDatabase>",
    )
    .unwrap();
    net.publish_document(publisher, &doc);
    net.run();
    assert_eq!(
        net.metrics().notifications.len(),
        1,
        "promoted narrow subscription must still deliver"
    );

    // Retract the narrow one too: nothing should be delivered.
    // (Re-subscribe bookkeeping: find its id via a fresh subscribe /
    // unsubscribe pair is unnecessary — we saved none, so re-issue.)
    let mut net2 = chain(3, RoutingConfig::WithAdvWithCov, ClusterLan::default());
    net2.set_processing_model(ProcessingModel::Zero);
    let ids2 = net2.broker_ids();
    let p2 = net2.attach_client(ids2[0]);
    let s2 = net2.attach_client(ids2[2]);
    net2.advertise_all(p2, derive_advertisements(&dtd, &DeriveOptions::default()));
    let sub = net2.subscribe(s2, "/ProteinDatabase".parse().unwrap());
    net2.run();
    net2.unsubscribe(s2, sub);
    net2.run();
    net2.metrics_mut().reset();
    net2.publish_document(p2, &doc);
    net2.run();
    assert!(
        net2.metrics().notifications.is_empty(),
        "unsubscribed client still received"
    );
}

#[test]
fn subscription_before_advertisement_still_delivers() {
    // The adversarial ordering: the subscription floods first, the
    // advertisement arrives later; re-evaluation must build the path.
    let mut net = chain(4, RoutingConfig::WithAdvWithCov, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);
    let ids = net.broker_ids();
    let publisher = net.attach_client(ids[0]);
    let subscriber = net.attach_client(ids[3]);

    net.subscribe(subscriber, "/ProteinDatabase//uid".parse().unwrap());
    net.run();

    let dtd = psd_dtd();
    net.advertise_all(
        publisher,
        derive_advertisements(&dtd, &DeriveOptions::default()),
    );
    net.run();

    let doc = xdn::xml::parse_document(
        "<ProteinDatabase><ProteinEntry><header><uid>Z</uid><accession>A</accession></header>\
         <protein><name>n</name></protein><sequence><seq-data>S</seq-data></sequence>\
         </ProteinEntry></ProteinDatabase>",
    )
    .unwrap();
    net.publish_document(publisher, &doc);
    net.run();
    assert_eq!(net.metrics().notifications.len(), 1);
}

#[test]
fn covered_subscription_across_brokers_still_delivers() {
    // Subscriber A's wide filter covers subscriber B's narrow one at
    // B's edge broker; B must still receive matching documents even
    // though its subscription was never forwarded.
    let mut net = binary_tree(2, RoutingConfig::NoAdvWithCov, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);
    let publisher = net.attach_client(BrokerId(2));
    let wide_sub = net.attach_client(BrokerId(3));
    let narrow_sub = net.attach_client(BrokerId(3));

    net.subscribe(wide_sub, "/a".parse().unwrap());
    net.run();
    net.subscribe(narrow_sub, "/a/b".parse().unwrap());
    net.run();

    let doc = xdn::xml::parse_document("<a><b/></a>").unwrap();
    net.publish_document(publisher, &doc);
    net.run();
    let clients: BTreeSet<ClientId> = net
        .metrics()
        .notifications
        .iter()
        .map(|n| n.client)
        .collect();
    assert!(clients.contains(&wide_sub));
    assert!(
        clients.contains(&narrow_sub),
        "covered subscriber lost delivery"
    );
}

#[test]
fn coverer_from_one_direction_does_not_suppress_toward_it() {
    // The directional covering bug: q1 floods from the left subscriber,
    // q2 (covered by q1) registers at a right-side broker. q2 must
    // still be forwarded toward the rest of the network, or documents
    // published on the far side never reach it.
    let mut net = chain(3, RoutingConfig::NoAdvWithCov, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);
    let ids = net.broker_ids();
    let left_sub = net.attach_client(ids[0]);
    let right_sub = net.attach_client(ids[2]);
    let publisher = net.attach_client(ids[0]);

    net.subscribe(left_sub, "/a".parse().unwrap()); // floods everywhere
    net.run();
    net.subscribe(right_sub, "/a/b".parse().unwrap()); // covered by /a at its broker
    net.run();

    let doc = xdn::xml::parse_document("<a><b/></a>").unwrap();
    net.publish_document(publisher, &doc);
    net.run();
    let clients: BTreeSet<ClientId> = net
        .metrics()
        .notifications
        .iter()
        .map(|n| n.client)
        .collect();
    assert!(
        clients.contains(&right_sub),
        "directionally covered subscriber lost delivery: got {clients:?}"
    );
}

#[test]
fn unsubscribing_an_owed_subscription_retracts_it_everywhere() {
    // `/a/b` at b2 is covered by `/a/*` at b0, so it is forwarded only
    // toward b0, the direction its coverer was never sent. Once it is
    // unsubscribed, the chain must read as if it had never existed, in
    // either subscription order.
    for coverer_first in [true, false] {
        let mut net = chain(3, RoutingConfig::NoAdvWithCov, ClusterLan::default());
        net.set_processing_model(ProcessingModel::Zero);
        let ids = net.broker_ids();
        let publisher = net.attach_client(ids[0]);
        let wide = net.attach_client(ids[0]);
        let narrow = net.attach_client(ids[2]);
        let mut covered = None;
        for wide_turn in [coverer_first, !coverer_first] {
            if wide_turn {
                net.subscribe(wide, "/a/*".parse().unwrap());
            } else {
                covered = Some(net.subscribe(narrow, "/a/b".parse().unwrap()));
            }
            net.run();
        }
        net.unsubscribe(narrow, covered.expect("subscribed"));
        net.run();
        let sizes: Vec<usize> = ids.iter().map(|&id| net.broker(id).prt_size()).collect();
        assert_eq!(sizes, [1, 1, 1], "coverer first: {coverer_first}");

        net.metrics_mut().reset();
        let doc = xdn::xml::parse_document("<a><b/></a>").unwrap();
        for _ in 0..10 {
            net.publish_document(publisher, &doc);
        }
        net.run();
        assert_eq!(
            net.metrics().traffic_of(MessageKind::Publish),
            10,
            "coverer first: {coverer_first}"
        );
        assert_eq!(net.metrics().notifications.len(), 10);
    }
}
