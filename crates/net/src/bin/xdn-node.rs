//! `xdn-node` — run one content-based XML router on a TCP socket.
//!
//! ```text
//! xdn-node --id 1 --listen 127.0.0.1:7001 \
//!          [--peer 2=127.0.0.1:7002]... \
//!          [--strategy with-adv-with-cov]
//! ```
//!
//! Peers listed with `--peer` are dialled on startup; nodes started
//! later simply list the earlier ones. Clients connect with the
//! protocol in [`xdn_net::tcp`] (hello byte `0x02` + client id, then
//! wire frames).
//!
//! The same port doubles as the node's control surface: an HTTP `GET`
//! (e.g. `curl http://127.0.0.1:7001/metrics`) returns a Prometheus
//! text snapshot — per-kind message traffic, routing-table sizes,
//! subscription/publication latency histograms, and per-peer outbound
//! queue depths.

// A CLI entry point legitimately exits with a status code; the
// workspace-wide `clippy::exit` deny protects library code.
#![allow(clippy::exit)]

use std::net::SocketAddr;
use xdn_broker::{BrokerId, RoutingConfig};
use xdn_net::tcp::TcpNode;

fn usage() -> ! {
    eprintln!(
        "usage: xdn-node --id <u32> --listen <addr:port> \
         [--peer <id>=<addr:port>]... [--expect <id>]... [--strategy <name>]\n\
         --expect: neighbour that dials in (acceptor side); on a restart, \
         payload is deferred until its state re-syncs\n\
         strategies (default with-adv-with-cov): no-adv-no-cov | \
         no-adv-with-cov | with-adv-no-cov | with-adv-with-cov | \
         with-adv-with-cov-pm | with-adv-with-cov-ipm"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut id: Option<u32> = None;
    let mut listen: Option<SocketAddr> = None;
    let mut peers: Vec<(BrokerId, SocketAddr)> = Vec::new();
    let mut expected: Vec<BrokerId> = Vec::new();
    let mut strategy = RoutingConfig::WithAdvWithCov;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--id" => {
                i += 1;
                id = args.get(i).and_then(|s| s.parse().ok());
            }
            "--listen" => {
                i += 1;
                listen = args.get(i).and_then(|s| s.parse().ok());
            }
            "--peer" => {
                i += 1;
                let Some((pid, paddr)) = args.get(i).and_then(|s| s.split_once('=')) else {
                    usage()
                };
                match (pid.parse(), paddr.parse()) {
                    (Ok(pid), Ok(paddr)) => peers.push((BrokerId(pid), paddr)),
                    _ => usage(),
                }
            }
            "--expect" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(pid) => expected.push(BrokerId(pid)),
                    None => usage(),
                }
            }
            "--strategy" => {
                i += 1;
                match args.get(i).and_then(|s| RoutingConfig::by_name(s)) {
                    Some(cfg) => strategy = cfg,
                    None => usage(),
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let (Some(id), Some(listen)) = (id, listen) else {
        usage()
    };

    match TcpNode::start_with(
        BrokerId(id),
        strategy,
        listen,
        &peers,
        &expected,
        xdn_net::tcp::SupervisorConfig::default(),
    ) {
        Ok(node) => {
            println!(
                "xdn-node {id} listening on {} ({} peers); \
                 metrics: curl http://{}/metrics",
                node.addr(),
                peers.len(),
                node.addr()
            );
            // Run until interrupted.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("failed to start node: {e}");
            std::process::exit(1);
        }
    }
}
