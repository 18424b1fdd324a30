//! Chaos tests: broker failure and recovery under a live stream.
//!
//! Every test compares a faulted run against a never-failed reference
//! run of the same deterministic workload: after all faults are
//! repaired, the subscriber must end up with exactly the reference
//! deliveries — no losses, no duplicates — and (where the routing
//! state is comparable) bit-identical routing tables. The sequenced
//! per-link channel (`xdn_broker::reliable`) is what makes this hold:
//! unacked frames are replayed on sync and dedup windows absorb the
//! overlap.
//!
//! One small scenario (`tier1_small_chaos_recovers_exactly`) runs in
//! the default tier-1 suite. The heavier scripted runs stay behind
//! `--ignored` (exercised by CI's chaos job, one process per seed:
//! `XDN_CHAOS_SEED=<n> cargo test --test chaos -- --ignored`); each
//! writes `target/chaos-report-<seed>.json`, the machine-readable
//! zero-loss proof CI archives as an artifact.

use std::collections::{BTreeMap, BTreeSet};
use xdn::broker::{BrokerId, ClientId, RoutingConfig};
use xdn::net::chaos::{self, FaultOp, FaultScript};
use xdn::net::latency::ClusterLan;
use xdn::net::sim::{Network, ProcessingModel};
use xdn::net::topology::{binary_tree, chain};
use xdn::workloads::{docs, psd_dtd, sets};
use xdn::xml::{DocId, PathId};
use xdn::xpath::generate::generate_distinct_xpes;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 11;
const N_DOCS: usize = 12;

/// Builds an `n`-broker chain with a publisher on one end and a
/// subscriber on the other, control plane fully settled.
fn build(n: u32, config: RoutingConfig) -> (Network, ClientId, ClientId) {
    let dtd = psd_dtd();
    let mut net = chain(n, config, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);
    net.set_record_deliveries(true);
    let ids = net.broker_ids();
    let publisher = net.attach_client(ids[0]);
    let subscriber = net.attach_client(ids[n as usize - 1]);

    net.advertise_all(
        publisher,
        xdn::core::adv::derive_advertisements(&dtd, &xdn::core::adv::DeriveOptions::default()),
    );
    net.run();
    let mut qrng = ChaCha8Rng::seed_from_u64(SEED + 1);
    for q in generate_distinct_xpes(&dtd, 25, &sets::set_a_config(), &mut qrng) {
        net.subscribe(subscriber, q);
    }
    net.run();
    (net, publisher, subscriber)
}

/// Publishes documents `[from, to)` of the deterministic workload.
fn publish_range(net: &mut Network, publisher: ClientId, from: usize, to: usize) {
    let dtd = psd_dtd();
    for d in &docs::documents(&dtd, N_DOCS, SEED + 500)[from..to] {
        net.publish_document(publisher, d);
    }
}

/// Per-broker routing signatures, keyed by broker id.
fn signatures(net: &Network) -> Vec<String> {
    net.broker_ids()
        .iter()
        .map(|&id| net.broker(id).routing_signature())
        .collect()
}

fn delivery_counts(net: &Network) -> BTreeMap<(ClientId, DocId, PathId), usize> {
    chaos::delivery_counts(net)
}

/// Runs the full workload with no faults and returns its delivery
/// multiset — the ground truth every chaos run is held to.
fn healthy_reference(n: u32, config: RoutingConfig) -> BTreeMap<(ClientId, DocId, PathId), usize> {
    let (mut healthy, h_pub, _h_sub) = build(n, config);
    publish_range(&mut healthy, h_pub, 0, N_DOCS);
    healthy.run();
    let expected = delivery_counts(&healthy);
    assert!(!expected.is_empty(), "workload must produce deliveries");
    expected
}

/// Tier-1 chaos: a 4-broker chain takes one interior crash and one
/// link flap mid-stream, with a fixed hand-written schedule. Small
/// enough for the default `cargo test` run; the invariant is the same
/// exactly-once equality the heavy scripted runs prove.
#[test]
fn tier1_small_chaos_recovers_exactly() {
    let config = RoutingConfig::WithAdvWithCov;
    let expected = healthy_reference(4, config);

    let (mut net, publisher, _subscriber) = build(4, config);
    let ids = net.broker_ids();
    let script = FaultScript {
        seed: SEED,
        slots: 3,
        ops: vec![
            (1, FaultOp::Crash(ids[1])),
            (1, FaultOp::DropLink(ids[2], ids[3])),
            (2, FaultOp::Restart(ids[1])),
            (3, FaultOp::RestoreLink(ids[2], ids[3])),
        ],
    };
    chaos::run_script(&mut net, &script, |net, slot| {
        publish_range(net, publisher, slot * N_DOCS / 3, (slot + 1) * N_DOCS / 3);
    });

    let report = chaos::check_exact_delivery(&script, &expected, &net);
    assert!(
        report.ok(),
        "delivery invariant violated: {}",
        report.to_json()
    );
    assert!(
        report.retransmits > 0,
        "the crash must exercise the retransmit path: {}",
        report.to_json()
    );
}

/// A coverer and a covered subscriber on opposite sides of a broker
/// that restarts: `/a/b` at b2 is owed toward b0, where its coverer
/// `/a/*` sits, so b2's re-sync must hand it back to the restarted b1.
#[test]
fn restart_restores_owed_subscriptions() {
    let mut net = chain(3, RoutingConfig::NoAdvWithCov, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);
    let ids = net.broker_ids();
    let publisher = net.attach_client(ids[0]);
    let wide = net.attach_client(ids[0]);
    let narrow = net.attach_client(ids[2]);
    net.subscribe(wide, "/a/*".parse().unwrap());
    net.run();
    net.subscribe(narrow, "/a/b".parse().unwrap());
    net.run();
    let before = net.broker(ids[1]).prt_size();
    assert_eq!(before, 2);

    net.crash_broker(ids[1]);
    net.restart_broker(ids[1]);
    net.run();
    assert_eq!(net.broker(ids[1]).prt_size(), before);

    let doc = xdn::xml::parse_document("<a><b/></a>").unwrap();
    net.publish_document(publisher, &doc);
    net.run();
    let clients: BTreeSet<ClientId> = net
        .metrics()
        .notifications
        .iter()
        .map(|n| n.client)
        .collect();
    assert_eq!(clients, BTreeSet::from([wide, narrow]));
}

/// One expression installed at a broker under several ids: b2 sends
/// `/a/b` to b4 under the id from b1's side and under the id from b5
/// (which owes b4, where another subscriber sits). After b4 restarts,
/// b2's re-sync must restore the expression although one of its
/// subscribers sits at b4, and under both ids, or the first
/// subscriber's leave retracts the only route b4 has back toward b5's
/// subscriber.
#[test]
fn restart_restores_every_installation_of_an_expression() {
    let mut net = binary_tree(3, RoutingConfig::NoAdvWithCov, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);
    let [b1, b4, b5] = [1, 4, 5].map(BrokerId);
    let publisher = net.attach_client(b4);
    let first = net.attach_client(b1);
    let beside = net.attach_client(b4);
    let behind = net.attach_client(b5);
    let mut first_id = None;
    for client in [first, beside, behind] {
        let id = net.subscribe(client, "/a/b".parse().unwrap());
        first_id.get_or_insert(id);
        net.run();
    }
    let doc = xdn::xml::parse_document("<a><b/></a>").unwrap();
    let received = |net: &Network| {
        let notes = &net.metrics().notifications;
        notes.iter().filter(|n| n.client == behind).count()
    };

    net.crash_broker(b4);
    net.restart_broker(b4);
    net.run();
    net.publish_document(publisher, &doc);
    net.run();
    assert_eq!(
        received(&net),
        1,
        "b5's subscriber lost `/a/b` when b4 restarted"
    );

    net.unsubscribe(first, first_id.unwrap());
    net.run();
    net.publish_document(publisher, &doc);
    net.run();
    assert_eq!(
        received(&net),
        2,
        "b5's subscriber lost `/a/b` when b1's left"
    );
}

/// Scripted chaos: a seeded generated fault schedule (from
/// `XDN_CHAOS_SEED`, default 11) against a 5-broker chain. Writes the
/// invariant report to `target/chaos-report-<seed>.json` whether it
/// passes or not, so CI archives the proof (or the counterexample).
#[test]
#[ignore = "chaos tier: run with --ignored"]
fn scripted_chaos_zero_loss_for_seed() {
    let seed = std::env::var("XDN_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED);
    let config = RoutingConfig::WithAdvWithCov;
    let expected = healthy_reference(5, config);

    let (mut net, publisher, _subscriber) = build(5, config);
    let ids = net.broker_ids();
    let links: Vec<_> = ids.windows(2).map(|w| (w[0], w[1])).collect();
    // Client-edge brokers are protected: client⇄broker frames ride no
    // sequenced link, so crashing a home broker loses state the
    // overlay is not responsible for recovering.
    let protected = [ids[0], ids[4]];
    let slots = 4;
    let script = FaultScript::generate(seed, &ids, &links, slots, &protected);

    chaos::run_script(&mut net, &script, |net, slot| {
        publish_range(
            net,
            publisher,
            slot * N_DOCS / slots,
            (slot + 1) * N_DOCS / slots,
        );
    });

    let report = chaos::check_exact_delivery(&script, &expected, &net);
    let json = report.to_json();
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write(format!("target/chaos-report-{seed}.json"), &json).expect("write report");
    println!("chaos report (seed {seed}): {json}");
    assert!(report.ok(), "delivery invariant violated: {json}");
}

#[test]
#[ignore = "chaos tier: run with --ignored"]
fn middle_broker_crash_mid_stream_recovers_exactly() {
    let config = RoutingConfig::WithAdvWithCov;

    // Reference: the same workload with no failure.
    let expected = healthy_reference(5, config);
    let healthy_sigs = {
        let (mut healthy, h_pub, _h_sub) = build(5, config);
        publish_range(&mut healthy, h_pub, 0, N_DOCS);
        healthy.run();
        signatures(&healthy)
    };

    // Chaos run: the middle broker dies with publications in flight.
    let (mut net, publisher, _subscriber) = build(5, config);
    let middle = net.broker_ids()[2];

    publish_range(&mut net, publisher, 0, N_DOCS / 3);
    net.run();

    net.crash_broker(middle);
    assert!(net.is_down(middle));
    // Published into the outage: these frames park at the fault line.
    publish_range(&mut net, publisher, N_DOCS / 3, 2 * N_DOCS / 3);
    net.run();
    assert!(
        net.parked_len() > 0,
        "traffic toward the dead broker must park, not vanish"
    );

    // Restart: neighbour sync rebuilds the SRT/PRT, then parked
    // traffic replays.
    net.restart_broker(middle);
    publish_range(&mut net, publisher, 2 * N_DOCS / 3, N_DOCS);
    net.run();

    let got = delivery_counts(&net);
    let missing: Vec<_> = expected.keys().filter(|k| !got.contains_key(*k)).collect();
    assert!(
        missing.is_empty(),
        "deliveries lost across the crash: {missing:?}"
    );
    let duplicated: Vec<_> = got.iter().filter(|(_, &n)| n > 1).collect();
    assert!(
        duplicated.is_empty(),
        "duplicate deliveries after recovery: {duplicated:?}"
    );
    let extra: Vec<_> = got.keys().filter(|k| !expected.contains_key(*k)).collect();
    assert!(
        extra.is_empty(),
        "spurious deliveries after recovery: {extra:?}"
    );
    assert_eq!(
        net.metrics().dropped_crash,
        0,
        "park buffer must not overflow here"
    );

    // The recovered overlay must be routing-table-identical to the
    // never-failed one — SRT and PRT both, on every broker.
    assert_eq!(
        signatures(&net),
        healthy_sigs,
        "routing state after recovery diverges from the never-failed run"
    );
}

#[test]
#[ignore = "chaos tier: run with --ignored"]
fn link_outage_mid_stream_recovers_exactly() {
    let config = RoutingConfig::WithAdvWithCov;

    let expected: BTreeSet<_> = healthy_reference(5, config).into_keys().collect();
    let healthy_sigs = {
        let (mut healthy, h_pub, _h_sub) = build(5, config);
        publish_range(&mut healthy, h_pub, 0, N_DOCS);
        healthy.run();
        signatures(&healthy)
    };

    let (mut net, publisher, _subscriber) = build(5, config);
    let ids = net.broker_ids();

    publish_range(&mut net, publisher, 0, N_DOCS / 2);
    net.run();
    net.drop_link(ids[1], ids[2]);
    publish_range(&mut net, publisher, N_DOCS / 2, N_DOCS);
    net.run();
    net.restore_link(ids[1], ids[2]);
    net.run();

    let counts = delivery_counts(&net);
    let got: BTreeSet<_> = counts.keys().copied().collect();
    assert_eq!(got, expected, "link outage changed the delivery set");
    assert!(
        counts.values().all(|&n| n == 1),
        "link outage introduced duplicates"
    );
    assert_eq!(signatures(&net), healthy_sigs);
}
