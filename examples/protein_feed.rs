//! A dissemination overlay for protein-database updates over TCP
//! loopback: four brokers, each a [`TcpNode`] on its own socket, the
//! shape a deployment takes with one `xdn-node` per host.
//!
//! ```sh
//! cargo run --example protein_feed
//! ```

use std::time::Duration;
use xdn::broker::{BrokerId, ClientId, Message, Publication, RoutingConfig};
use xdn::core::adv::{derive_advertisements, DeriveOptions};
use xdn::core::rtable::{AdvId, SubId};
use xdn::net::tcp::{TcpClient, TcpNode};
use xdn::workloads::psd_dtd;
use xdn::xml::paths::{dedup_paths, extract_paths};
use xdn::xml::DocId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four brokers in a tree: 3 - 1 - 0 - 2. Each node dials its
    // parent, so the parent starts first.
    let cfg = RoutingConfig::WithAdvWithCov;
    let any = "127.0.0.1:0".parse()?;
    let b0 = TcpNode::start(BrokerId(0), cfg, any, &[])?;
    let b1 = TcpNode::start(BrokerId(1), cfg, any, &[(BrokerId(0), b0.addr())])?;
    let b2 = TcpNode::start(BrokerId(2), cfg, any, &[(BrokerId(0), b0.addr())])?;
    let b3 = TcpNode::start(BrokerId(3), cfg, any, &[(BrokerId(1), b1.addr())])?;

    // Publishes database updates at broker 0.
    let mut curator = TcpClient::connect(b0.addr(), ClientId(1))?;
    // Watches kinase entries at broker 3.
    let mut lab = TcpClient::connect(b3.addr(), ClientId(2))?;
    // Archives all reference data at broker 2.
    let mut archive = TcpClient::connect(b2.addr(), ClientId(3))?;

    // Announce the feed.
    let dtd = psd_dtd();
    for (i, adv) in derive_advertisements(&dtd, &DeriveOptions::default())
        .into_iter()
        .enumerate()
    {
        curator.send(&Message::advertise(AdvId(i as u64), adv))?;
    }

    // Register interests.
    lab.send(&Message::subscribe(
        SubId(1),
        "//classification/superfamily".parse()?,
    ))?;
    archive.send(&Message::subscribe(
        SubId(2),
        "/ProteinDatabase/ProteinEntry/reference".parse()?,
    ))?;
    // The control plane has settled once both subscriptions reach the
    // curator's broker.
    assert!(
        b0.await_state(Duration::from_secs(5), |s| s.prt_size >= 2),
        "subscriptions did not reach broker 0"
    );

    // Publish one update; the document is decomposed into paths by the
    // publisher-side library, exactly as the simulator does.
    let doc = xdn::xml::parse_document(
        "<ProteinDatabase><ProteinEntry>\
           <header><uid>KIN001</uid><accession>A1</accession></header>\
           <protein><name>kinase-like</name></protein>\
           <reference><refinfo><authors><author>Li</author></authors>\
             <citation><cit-title>ICDCS</cit-title></citation></refinfo></reference>\
           <classification><superfamily>protein kinase</superfamily></classification>\
           <sequence><seq-data>MSEQ</seq-data></sequence>\
         </ProteinEntry></ProteinDatabase>",
    )?;
    let bytes = doc.to_xml_string().len();
    for p in dedup_paths(extract_paths(&doc, DocId(1))) {
        curator.send(&Message::Publish(Publication::from_doc_path(&p, bytes)))?;
    }

    // Both subscribers receive the paths their filters select.
    let lab_msg = lab.recv_timeout(Duration::from_secs(5));
    let archive_msg = archive.recv_timeout(Duration::from_secs(5));
    println!(
        "lab received:     {:?}",
        lab_msg.as_ref().map(Message::kind)
    );
    println!(
        "archive received: {:?}",
        archive_msg.as_ref().map(Message::kind)
    );
    assert!(matches!(lab_msg, Some(Message::Publish(_))));
    assert!(matches!(archive_msg, Some(Message::Publish(_))));

    let nodes = [b0, b1, b2, b3];
    for (id, node) in nodes.iter().enumerate() {
        let s = node.snapshot().ok_or("broker loop gone")?.stats;
        println!(
            "broker {id}: received {} messages, delivered {} to clients",
            s.received_total(),
            s.deliveries
        );
    }
    for node in nodes {
        node.shutdown();
    }
    Ok(())
}
