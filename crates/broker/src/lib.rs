#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # xdn-broker — the content-based XML router
//!
//! A [`Broker`] is one node of the dissemination overlay (Figure 1):
//! it holds a subscription routing table (SRT) and a publication
//! routing table (PRT) and forwards messages purely on content. This
//! crate composes the algorithms of [`xdn_core`] into the six routing
//! strategies evaluated in Tables 2 and 3 of the paper, the six
//! variants of [`RoutingConfig`]:
//!
//! | [`RoutingConfig`]     | paper name             | advertisements | covering | merging |
//! |-----------------------|------------------------|----------------|----------|---------|
//! | `NoAdvNoCov`          | `no-Adv-no-Cov`        | –              | –        | –       |
//! | `NoAdvWithCov`        | `no-Adv-with-Cov`      | –              | ✓        | –       |
//! | `WithAdvNoCov`        | `with-Adv-no-Cov`      | ✓              | –        | –       |
//! | `WithAdvWithCov`      | `with-Adv-with-Cov`    | ✓              | ✓        | –       |
//! | `WithAdvWithCovPM`    | `with-Adv-with-CovPM`  | ✓              | ✓        | perfect |
//! | `WithAdvWithCovIPM`   | `with-Adv-with-CovIPM` | ✓              | ✓        | imperfect, `D = 0.1` |
//!
//! ```
//! use xdn_broker::{Broker, BrokerId, ClientId, Dest, Message, RoutingConfig};
//! use xdn_core::rtable::{AdvId, SubId};
//! use xdn_core::adv::{AdvPath, Advertisement};
//!
//! let mut broker = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
//! broker.add_neighbor(BrokerId(1));
//!
//! // A producer behind neighbor 1 advertises /quotes/nyse/price.
//! let adv = Advertisement::non_recursive(AdvPath::from_names(&["quotes", "nyse", "price"]));
//! broker.handle_frames(Dest::Broker(BrokerId(1)), Message::advertise(AdvId(1), adv));
//!
//! // A local client subscribes; the subscription is forwarded toward
//! // the advertisement's last hop as an outbound frame.
//! let out = broker.handle_frames(
//!     Dest::Client(ClientId(7)),
//!     Message::subscribe(SubId(1), "/quotes/*/price".parse().unwrap()),
//! );
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].dest, Dest::Broker(BrokerId(1)));
//! ```

pub mod broker;
pub mod message;
pub mod reliable;
pub mod stats;
pub mod wire;

pub use broker::{Broker, RoutingConfig};
pub use message::{BrokerId, ClientId, Dest, Message, MessageKind, Publication};
pub use reliable::{Admit, DedupWindow, OutboundLink, ReliabilityState};
pub use stats::{BrokerStats, KindCounters};
pub use wire::{FrameBuf, Outbound, SeqHeader};
