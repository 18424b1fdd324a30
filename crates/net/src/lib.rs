#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # xdn-net — the overlay network substrate
//!
//! The paper evaluates its routing algorithms on a 20-node cluster and
//! on PlanetLab. This crate is the documented substitute (`DESIGN.md`):
//! a deterministic discrete-event simulator in which the brokers'
//! *matching computation really runs* — only the wire is simulated.
//! Message counts are therefore exact, and delays combine configurable
//! link latency ([`latency`]) with a modeled cost of each broker's
//! routing work ([`sim::ProcessingModel`]), reproducing the
//! covering/merging effects on notification delay (Figures 10/11,
//! Tables 2/3). The deployment runs the same brokers over TCP
//! ([`tcp`]); these are the crate's two transports.
//!
//! * [`sim::Network`] — event-driven overlay of [`xdn_broker::Broker`]s
//!   with attached publisher/subscriber clients.
//! * [`topology`] — balanced binary trees (the 7- and 127-broker
//!   overlays of Tables 2/3) and linear chains (the hop sweeps of
//!   Figures 10/11), every broker running one
//!   [`xdn_broker::RoutingConfig`]; Tables 2/3 sweep
//!   `RoutingConfig::ALL`.
//! * [`latency`] — cluster-LAN and PlanetLab-like WAN link models.
//! * [`metrics`] — the simulator's network-wide message counts and
//!   notification delays.
//! * [`tcp`] — the same brokers over real TCP sockets with the binary
//!   wire codec; the `xdn-node` binary's engine.
//!
//! ```
//! use xdn_broker::RoutingConfig;
//! use xdn_net::{latency::ClusterLan, sim::Network, topology};
//! use xdn_core::adv::{AdvPath, Advertisement};
//!
//! // A 3-broker `with-Adv-with-Cov` chain: publisher at one end,
//! // subscriber at the other.
//! let mut net = topology::chain(3, RoutingConfig::WithAdvWithCov, ClusterLan::default());
//! let publisher = net.attach_client(net.broker_ids()[0]);
//! let subscriber = net.attach_client(net.broker_ids()[2]);
//!
//! net.advertise(publisher, Advertisement::non_recursive(AdvPath::from_names(&["a", "b"])));
//! net.subscribe(subscriber, "/a/*".parse().unwrap());
//! net.run();
//!
//! let doc = xdn_xml::parse_document("<a><b/></a>").unwrap();
//! net.publish_document(publisher, &doc);
//! net.run();
//! assert_eq!(net.metrics().notifications.len(), 1);
//! ```

pub mod chaos;
pub mod latency;
pub mod metrics;
pub mod queue;
pub mod sim;
pub mod tcp;
pub mod topology;

pub use latency::{ClusterLan, LatencyModel, PlanetLabWan};
pub use metrics::NetMetrics;
pub use sim::Network;
