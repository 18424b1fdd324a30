//! Cross-crate observability tests: the trace events the brokers emit
//! must agree with the metrics the network records — a tracer is only
//! trustworthy if its event stream reconstructs the delivery set.

use std::collections::BTreeSet;
use std::sync::Arc;
use xdn::broker::RoutingConfig;
use xdn::net::latency::ClusterLan;
use xdn::net::sim::ProcessingModel;
use xdn::net::topology::chain;
use xdn::obs::CollectingTracer;

#[test]
fn trace_events_match_delivered_notifications() {
    let mut net = chain(3, RoutingConfig::NoAdvWithCov, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);
    let tracer = Arc::new(CollectingTracer::new());
    net.set_tracer(tracer.clone());

    let ids = net.broker_ids();
    let publisher = net.attach_client(ids[0]);
    let sub_near = net.attach_client(ids[1]);
    let sub_far = net.attach_client(ids[2]);
    let sub_miss = net.attach_client(ids[2]);
    net.subscribe(sub_near, "/a/b".parse().expect("xpe"));
    net.subscribe(sub_far, "/a/*".parse().expect("xpe"));
    net.subscribe(sub_miss, "/x".parse().expect("xpe"));
    net.run();

    let doc = net.publish_path(publisher, vec!["a".into(), "b".into()], 42);
    net.run();

    // Every delivery the metrics recorded has a matching `pub.deliver`
    // trace event, and vice versa: the event stream reconstructs the
    // notification set exactly.
    let delivered: BTreeSet<(u64, u64)> = net
        .metrics()
        .notifications
        .iter()
        .map(|n| (n.doc.0, n.client.0))
        .collect();
    let traced: BTreeSet<(u64, u64)> = tracer
        .named("pub.deliver")
        .iter()
        .map(|e| (e.id, e.value))
        .collect();
    assert_eq!(delivered, traced, "trace events must mirror deliveries");
    assert_eq!(
        delivered.len(),
        2,
        "exactly the two matching subscribers: {delivered:?}"
    );
    assert!(delivered.iter().all(|&(d, _)| d == doc.0));

    // Each broker on the path recorded one routing span for the
    // publication, stamped with its measured duration.
    let routes = tracer.named("pub.route");
    assert!(
        routes.iter().filter(|e| e.id == doc.0).count() >= 3,
        "every broker in the chain routes the publication: {routes:?}"
    );

    // Subscription processing emitted spans as the three subscriptions
    // propagated through the chain.
    assert!(tracer.named("sub.process").len() >= 3);
}

#[test]
fn tracer_is_opt_in_and_detachable() {
    let mut net = chain(2, RoutingConfig::NoAdvNoCov, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);

    // No tracer attached: the network still routes and records metrics.
    let ids = net.broker_ids();
    let publisher = net.attach_client(ids[0]);
    let subscriber = net.attach_client(ids[1]);
    net.subscribe(subscriber, "/a".parse().expect("xpe"));
    net.run();
    net.publish_path(publisher, vec!["a".into()], 10);
    net.run();
    assert_eq!(net.metrics().notifications.len(), 1);

    // Attaching mid-run only observes from that point on.
    let tracer = Arc::new(CollectingTracer::new());
    net.set_tracer(tracer.clone());
    net.publish_path(publisher, vec!["a".into()], 10);
    net.run();
    let deliver = tracer.named("pub.deliver");
    assert_eq!(deliver.len(), 1, "only the second publish is traced");
}
