//! Quickstart: a three-broker dissemination network in ~40 lines.
//!
//! A publisher announces what it will publish (derived from its DTD),
//! a subscriber registers an XPath expression, and a published XML
//! document is routed across the overlay to the subscriber.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use xdn::broker::{MessageKind, RoutingConfig};
use xdn::core::adv::{derive_advertisements, DeriveOptions};
use xdn::net::latency::ClusterLan;
use xdn::net::topology::chain;
use xdn::xml::dtd::Dtd;
use xdn::xml::parse_document;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A chain of three content-based XML routers.
    let mut net = chain(3, RoutingConfig::WithAdvWithCov, ClusterLan::default());
    net.set_record_deliveries(true);
    let broker_ids = net.broker_ids();
    let publisher = net.attach_client(broker_ids[0]);
    let subscriber = net.attach_client(broker_ids[2]);

    // The publisher's DTD describes stock quotes; its advertisements
    // are derived automatically and flooded through the overlay.
    let dtd = Dtd::parse(
        "<!ELEMENT quotes (exchange+)>\n\
         <!ELEMENT exchange (stock*)>\n\
         <!ELEMENT stock (symbol, price, volume?)>\n\
         <!ELEMENT symbol (#PCDATA)>\n\
         <!ELEMENT price (#PCDATA)>\n\
         <!ELEMENT volume (#PCDATA)>",
    )?;
    let advertisements = derive_advertisements(&dtd, &DeriveOptions::default());
    println!(
        "publisher advertises {} path patterns, e.g. {}",
        advertisements.len(),
        advertisements[0]
    );
    net.advertise_all(publisher, advertisements);
    net.run();

    // The subscriber asks for any stock price, wherever it appears.
    net.subscribe(subscriber, "/quotes/*/stock/price".parse()?);
    net.run();

    // Publish a document; it is decomposed into root-to-leaf paths and
    // routed by content only.
    let doc = parse_document(
        "<quotes><exchange><stock><symbol>XDN</symbol><price>42</price></stock></exchange></quotes>",
    )?;
    net.publish_document(publisher, &doc);
    net.run();

    for n in &net.metrics().notifications {
        println!(
            "client {:?} received {:?} after {:?} over {} broker hops",
            n.client, n.doc, n.delay, n.hops
        );
    }
    assert_eq!(net.metrics().notifications.len(), 1);

    // Path decomposition is transparent: the subscriber reassembles the
    // delivered paths back into a document.
    let delivered: Vec<_> = net
        .metrics()
        .delivered_paths
        .iter()
        .filter(|(c, _)| *c == subscriber)
        .map(|(_, p)| p.clone())
        .collect();
    let rebuilt = xdn::xml::reassemble::reassemble(&delivered)?;
    println!("subscriber reassembled: {}", rebuilt.to_xml_string());

    println!(
        "total broker messages: {} (advertise={}, subscribe={}, publish={})",
        net.metrics().network_traffic(),
        net.metrics().traffic_of(MessageKind::Advertise),
        net.metrics().traffic_of(MessageKind::Subscribe),
        net.metrics().traffic_of(MessageKind::Publish),
    );
    Ok(())
}
