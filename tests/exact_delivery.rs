//! Exact delivery with subscribers at every broker: each client must
//! receive a published path exactly once if and only if its XPE
//! matches the path. The expected (client, doc, path) multiset comes
//! from the script alone, through `matches_path_with_attrs`, not from
//! another run of the brokers; comparing `(client, doc)` sets, as
//! `end_to_end.rs` does, would hide a lost XPE behind another of the
//! same client's XPEs.

use std::collections::BTreeMap;
use std::sync::Arc;
use xdn::broker::{BrokerId, ClientId, RoutingConfig};
use xdn::core::adv::{derive_advertisements, AdvPath, Advertisement, DeriveOptions};
use xdn::net::latency::ClusterLan;
use xdn::net::sim::{Network, ProcessingModel};
use xdn::net::topology::{binary_tree, chain};
use xdn::workloads::{docs, psd_dtd, sets};
use xdn::xml::paths::{dedup_paths, extract_paths};
use xdn::xpath::matching::matches_path_with_attrs;
use xdn::xpath::Xpe;

/// (client, doc, path id) → deliveries.
type Multiset = BTreeMap<(ClientId, u64, u32), usize>;

fn delivered(net: &Network) -> Multiset {
    let mut out = Multiset::new();
    for (client, path) in &net.metrics().delivered_paths {
        *out.entry((*client, path.doc_id.0, path.path_id.0))
            .or_default() += 1;
    }
    out
}

/// Subscribes one client per XPE, dealt round-robin over `brokers`;
/// publishers at `publishers` advertise `advs` when the strategy uses
/// advertisements; merging strategies merge after subscribing. Then
/// every document is published, in turn from each publisher, and the
/// deliveries are compared with the oracle's.
fn check_exact(
    mut net: Network,
    config: RoutingConfig,
    publishers: &[BrokerId],
    advs: &[Advertisement],
    xpes: &[Xpe],
    documents: &[xdn::xml::Document],
) {
    net.set_processing_model(ProcessingModel::Zero);
    net.set_record_deliveries(true);
    let brokers = net.broker_ids();
    let producers: Vec<ClientId> = publishers.iter().map(|&b| net.attach_client(b)).collect();
    if config.advertisements() {
        for &p in &producers {
            net.advertise_all(p, advs.to_vec());
        }
        net.run();
    }
    if config.merge_degree().is_some() {
        let universe = Arc::new(xdn::workloads::universe(&psd_dtd()));
        for id in net.broker_ids() {
            net.broker_mut(id).set_universe(Arc::clone(&universe));
        }
    }
    let mut subscribers = Vec::new();
    for (i, xpe) in xpes.iter().enumerate() {
        let client = net.attach_client(brokers[i % brokers.len()]);
        net.subscribe(client, xpe.clone());
        subscribers.push((client, xpe));
    }
    net.run();
    if config.merge_degree().is_some() {
        net.apply_merging();
        net.run();
    }
    let mut want = Multiset::new();
    for (i, document) in documents.iter().enumerate() {
        let doc = net.publish_document(producers[i % producers.len()], document);
        for path in dedup_paths(extract_paths(document, doc)) {
            for &(client, xpe) in &subscribers {
                if matches_path_with_attrs(xpe, &path.elements, &path.attributes) {
                    *want.entry((client, doc.0, path.path_id.0)).or_default() += 1;
                }
            }
        }
    }
    net.run();
    let got = delivered(&net);
    assert!(!want.is_empty(), "{config}: the workload must deliver");
    let missing: Vec<_> = want.keys().filter(|k| !got.contains_key(k)).collect();
    let extra: Vec<_> = got
        .iter()
        .filter(|(k, &n)| want.get(k) != Some(&n))
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{config} on {} brokers, publishers at {publishers:?}: {} of {} deliveries missing \
         (first {:?}), {} wrong (first {:?})",
        brokers.len(),
        missing.len(),
        want.len(),
        missing.first(),
        extra.len(),
        extra.first(),
    );
}

/// PSD Set A, 160 XPEs with one client each, spread over every broker
/// of a 4-broker chain and a 7-broker tree, under all six strategies,
/// with one publisher and with two at different brokers.
#[test]
fn spread_subscribers_receive_exactly_their_matches() {
    let dtd = psd_dtd();
    let advs = derive_advertisements(&dtd, &DeriveOptions::default());
    for (seed, config) in RoutingConfig::ALL.into_iter().enumerate() {
        let seed = seed as u64 + 1;
        let xpes = sets::set_a(&dtd, 160, seed);
        let documents = docs::documents(&dtd, 20, seed + 50);
        let tree = || binary_tree(3, config, ClusterLan::default());
        let line = || chain(4, config, ClusterLan::default());
        for publishers in [&[BrokerId(0)][..], &[BrokerId(0), BrokerId(3)]] {
            check_exact(line(), config, publishers, &advs, &xpes, &documents);
        }
        for publishers in [&[BrokerId(1)][..], &[BrokerId(4), BrokerId(7)]] {
            check_exact(tree(), config, publishers, &advs, &xpes, &documents);
        }
    }
}

/// The smallest covering case: a subscription covered at the broker
/// it crosses must still reach the neighbour it came from.
#[test]
fn covered_subscription_from_a_neighbour_keeps_its_deliveries() {
    let covered: Xpe = "/nitf/body/body-head/*/person/function-x".parse().unwrap();
    let coverer: Xpe = "/nitf/body/body-head//person/*".parse().unwrap();
    let elements = ["nitf", "body", "body-head", "x", "person", "function-x"];
    assert!(xdn::core::covers(&coverer, &covered));
    for config in RoutingConfig::ALL {
        let mut net = chain(2, config, ClusterLan::default());
        net.set_processing_model(ProcessingModel::Zero);
        let producer = net.attach_client(BrokerId(0));
        if config.advertisements() {
            net.advertise(
                producer,
                Advertisement::non_recursive(AdvPath::from_names(&elements)),
            );
            net.run();
        }
        let far = net.attach_client(BrokerId(1));
        let near = net.attach_client(BrokerId(0));
        net.subscribe(far, covered.clone());
        net.run();
        net.subscribe(near, coverer.clone());
        net.run();
        net.publish_path(
            producer,
            elements.iter().map(ToString::to_string).collect(),
            64,
        );
        net.run();
        let mut got: Vec<ClientId> = net
            .metrics()
            .notifications
            .iter()
            .map(|n| n.client)
            .collect();
        got.sort();
        let mut want = vec![far, near];
        want.sort();
        assert_eq!(got, want, "{config}");
    }
}
