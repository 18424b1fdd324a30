#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # xdn — XML/XPath routing for data dissemination networks
//!
//! A reproduction of *"Routing of XML and XPath Queries in Data
//! Dissemination Networks"* (Li, Hou, Jacobsen — ICDCS 2008): an
//! overlay network of content-based XML routers that forward documents
//! to XPath subscriptions using advertisement-based routing, covering,
//! and merging.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`xml`] — XML documents, DTDs, path extraction, generation;
//! * [`xpath`] — the XPE subscription language and matching;
//! * [`core`] — advertisements, overlap, covering, the subscription
//!   tree, merging, and the routing tables (the paper's contribution);
//! * [`broker`] — the content-based XML router;
//! * [`net`] — the overlay's two transports: the discrete-event
//!   simulator and TCP;
//! * [`obs`] — metrics, trace events, and text exporters;
//! * [`workloads`] — DTDs and generated workloads for the evaluation.
//!
//! ```
//! use xdn::core::cover::covers;
//!
//! let wide: xdn::xpath::Xpe = "/news//headline".parse()?;
//! let narrow: xdn::xpath::Xpe = "/news/sports/headline".parse()?;
//! assert!(covers(&wide, &narrow));
//! # Ok::<(), xdn::xpath::XpeParseError>(())
//! ```

pub use xdn_broker as broker;
pub use xdn_core as core;
pub use xdn_net as net;
pub use xdn_obs as obs;
pub use xdn_workloads as workloads;
pub use xdn_xml as xml;
pub use xdn_xpath as xpath;
