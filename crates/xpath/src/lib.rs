#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # xdn-xpath — XPath expressions (XPEs) for content-based routing
//!
//! Subscriptions in the dissemination network are XPath expressions
//! over the fragment the paper routes on (§3.2): the parent-child
//! operator `/`, the ancestor-descendant operator `//`, and the
//! wildcard `*`, in absolute (`/a/*/b`) or relative (`a//b`) form.
//!
//! This crate provides:
//!
//! * the XPE data model ([`Xpe`], [`Step`], [`Axis`], [`NodeTest`]) and
//!   a parser ([`Xpe::parse`]),
//! * publication matching ([`Xpe::matches_path`],
//!   [`matching::matches_document`]) — deciding whether a root-to-leaf
//!   XML path satisfies a subscription,
//! * the shared subscription automaton ([`automaton::PathAutomaton`]) —
//!   every registered XPE compiled into one NFA so a publication is
//!   matched against the whole set in a single traversal, which
//!   resumes at the prefix a path shares with the previous one (the
//!   paths of one document share prefixes),
//! * a DTD-guided random XPE generator ([`generate`]) standing in for
//!   the XPath generator of Diao et al. used in the paper's evaluation,
//!   parameterized by the wildcard probability `W` and the
//!   descendant-operator probability `DO` exactly as in §5.
//!
//! ```
//! use xdn_xpath::Xpe;
//!
//! let sub: Xpe = "/quotes/*//price".parse()?;
//! assert!(sub.matches_path(&["quotes", "nyse", "stock", "price"]));
//! assert!(!sub.matches_path(&["quotes", "price"]));
//! # Ok::<(), xdn_xpath::XpeParseError>(())
//! ```

pub mod ast;
pub mod automaton;
pub mod generate;
pub mod matching;
pub mod parse;

pub use ast::{Axis, NodeTest, Predicate, Step, Xpe};
pub use parse::XpeParseError;
