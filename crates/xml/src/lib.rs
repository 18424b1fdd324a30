#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # xdn-xml — XML substrate for the XDN dissemination network
//!
//! This crate provides the XML-side substrate the paper's router depends
//! on:
//!
//! * a minimal element-centric XML document model and parser
//!   ([`Document`], [`parse_document`]),
//! * a DTD content-model parser and analyzer ([`dtd::Dtd`]) including
//!   recursion detection (the paper distinguishes recursive from
//!   non-recursive DTDs when deriving advertisements),
//! * root-to-leaf *path extraction* ([`paths::extract_paths`]) — the
//!   unit of routing in the paper is an XML path annotated with a
//!   `docId` and `pathId`, not the whole document,
//! * a DTD-driven random document generator ([`generate`]) standing in
//!   for the IBM XML Generator used in the paper's evaluation.
//!
//! The paper's discussion (§3.1) focuses on elements; attributes and
//! text content are carried by the model but play no role in routing.
//!
//! ```
//! use xdn_xml::{parse_document, paths::extract_paths, DocId};
//!
//! # fn main() -> Result<(), xdn_xml::XmlError> {
//! let doc = parse_document("<a><b><c/></b><d/></a>")?;
//! let paths = extract_paths(&doc, DocId(7));
//! assert_eq!(paths.len(), 2); // /a/b/c and /a/d
//! assert_eq!(paths[0].elements, vec!["a", "b", "c"]);
//! # Ok(())
//! # }
//! ```

pub mod dtd;
pub mod error;
pub mod generate;
pub mod paths;
pub mod reassemble;
pub mod tree;

pub use error::XmlError;
pub use paths::{DocId, DocPath, PathId};
pub use tree::{parse_document, Document, Element, Node};
