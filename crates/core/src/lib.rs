#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # xdn-core — advertisement-based routing, covering, and merging
//!
//! This crate is the paper's primary contribution: the routing machinery
//! of a content-based XML router.
//!
//! * [`adv`] — advertisements derived from DTDs (§3.1): non-recursive
//!   paths plus the simple-, series-, and embedded-recursive forms
//!   `a1(a2)+a3`, `a1(a2)+a3(a4)+a5`, `a1(a2(a3)+a4)+a5`.
//! * [`advmatch`] — the advertisement–subscription overlap algorithms
//!   of §3.2/§3.3 (`AbsExprAndAdv`, `RelExprAndAdv`, `DesExprAndAdv`,
//!   `AbsExprAndSimRecAdv`, and the series/embedded generalizations).
//! * [`cover`] — the covering (containment) algorithms of §4.2
//!   (`AbsSimCov`, `RelSimCov`, `DesCov`).
//! * [`subtree`] — the subscription tree (§4.1), which decides what a
//!   covering broker forwards.
//! * [`merge`] — the merging rules and the imperfect-merging degree
//!   `D_imperfect` (§4.3).
//! * [`rtable`] — the subscription routing table (SRT) and publication
//!   routing table (PRT) that advertisement-based routing maintains
//!   (§2.1, Figure 1), unified behind the
//!   [`rtable::PublicationRouter`] trait. The covering PRT keeps the
//!   subscription tree for forwarding and matches publications on an
//!   embedded shared automaton.
//! * [`automaton`] — the non-covering publication table: the whole
//!   subscription set compiled into one shared NFA
//!   ([`xdn_xpath::automaton::PathAutomaton`]), matching a publication
//!   in a single traversal regardless of the candidate count.
//!
//! ```
//! use xdn_core::cover::covers;
//! use xdn_xpath::Xpe;
//!
//! let general: Xpe = "/a/*".parse()?;
//! let specific: Xpe = "/a/b/c".parse()?;
//! assert!(covers(&general, &specific));
//! assert!(!covers(&specific, &general));
//! # Ok::<(), xdn_xpath::XpeParseError>(())
//! ```

pub mod adv;
pub mod advmatch;
mod advnfa;
pub mod automaton;
pub mod cover;
pub mod merge;
pub mod rtable;
pub mod subtree;

pub use adv::{AdvKind, AdvPath, AdvSegment, Advertisement};
pub use automaton::{AutomatonPrt, AutomatonStats};
pub use cover::covers;
pub use rtable::PublicationRouter;
pub use subtree::{Insertion, NodeId, SubscriptionTree};
