//! The paper's motivating scenario (§1): a globally operating
//! insurance company whose branch offices are linked by an overlay of
//! content-based XML routers. Claims, bids, and requests for proposal
//! are submitted anywhere and routed to currently online experts whose
//! interests — line of business, language, region — are XPath filter
//! expressions. Producers and consumers are fully decoupled: nobody
//! holds addresses, all routing is by content.
//!
//! ```sh
//! cargo run --example insurance_claims
//! ```

use xdn::broker::{BrokerId, RoutingConfig};
use xdn::core::adv::{derive_advertisements, DeriveOptions};
use xdn::net::latency::PlanetLabWan;
use xdn::net::topology::binary_tree;
use xdn::xml::dtd::Dtd;
use xdn::xml::parse_document;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A seven-broker tree: headquarters at the root, regional hubs,
    // branch offices at the leaves, linked over a WAN.
    let mut net = binary_tree(3, RoutingConfig::WithAdvWithCovPM, PlanetLabWan::default());

    // The claims intake system (a third-party broker in the paper's
    // story) connects at a branch office and announces the document
    // shapes it emits, derived from the corporate claims DTD.
    let dtd = Dtd::parse(
        "<!ELEMENT claim (line, region, language, details)>\n\
         <!ELEMENT line (auto | home | health | marine)>\n\
         <!ELEMENT auto EMPTY>\n\
         <!ELEMENT home EMPTY>\n\
         <!ELEMENT health EMPTY>\n\
         <!ELEMENT marine EMPTY>\n\
         <!ELEMENT region (americas | emea | apac)>\n\
         <!ELEMENT americas EMPTY>\n\
         <!ELEMENT emea EMPTY>\n\
         <!ELEMENT apac EMPTY>\n\
         <!ELEMENT language (#PCDATA)>\n\
         <!ELEMENT details (amount, description?)>\n\
         <!ELEMENT amount (#PCDATA)>\n\
         <!ELEMENT description (#PCDATA)>",
    )?;
    let intake = net.attach_client(BrokerId(4));
    net.advertise_all(
        intake,
        derive_advertisements(&dtd, &DeriveOptions::default()),
    );
    net.run();

    // Experts subscribe from different offices. Note how the marine
    // specialist's filter covers the generalist's narrower one — the
    // network stores only the general filter upstream.
    let marine_expert = net.attach_client(BrokerId(5));
    net.subscribe(marine_expert, "/claim/line/marine".parse()?);

    let emea_generalist = net.attach_client(BrokerId(6));
    net.subscribe(emea_generalist, "/claim/region/emea".parse()?);

    let auditor = net.attach_client(BrokerId(7));
    net.subscribe(auditor, "//amount".parse()?); // every claim has one

    net.run();

    // Two claims come in from the field.
    let marine_claim = parse_document(
        "<claim><line><marine/></line><region><emea/></region>\
         <language>pt</language><details><amount>180000</amount></details></claim>",
    )?;
    let auto_claim = parse_document(
        "<claim><line><auto/></line><region><apac/></region>\
         <language>ja</language><details><amount>3200</amount>\
         <description>bumper</description></details></claim>",
    )?;
    let marine_doc = net.publish_document(intake, &marine_claim);
    let auto_doc = net.publish_document(intake, &auto_claim);
    net.run();

    let recipients = |doc| -> Vec<_> {
        net.metrics()
            .notifications
            .iter()
            .filter(|n| n.doc == doc)
            .map(|n| n.client)
            .collect()
    };
    println!("marine claim delivered to {:?}", recipients(marine_doc));
    println!("auto claim delivered to   {:?}", recipients(auto_doc));

    // The marine claim reaches the marine expert, the EMEA generalist
    // (it is an EMEA claim), and the auditor; the auto claim reaches
    // only the auditor.
    assert_eq!(recipients(marine_doc).len(), 3);
    assert_eq!(recipients(auto_doc), vec![auditor]);

    println!(
        "network traffic: {} messages, mean delay {:?}",
        net.metrics().network_traffic(),
        net.metrics()
            .mean_notification_delay()
            .expect("deliveries observed"),
    );
    Ok(())
}
