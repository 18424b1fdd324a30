//! Root-to-leaf path extraction.
//!
//! The routing unit in the paper is not the whole XML document but each
//! of its root-to-leaf element paths, annotated with a `docId` and
//! `pathId` (§3.1). A publication routed through the broker network is
//! one such [`DocPath`]; subscribers transparently receive whole
//! documents reassembled from their paths.

use crate::tree::{Document, Element};
use std::fmt;

/// Identifier of a published document, unique per publisher session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DocId(pub u64);

/// Identifier of one root-to-leaf path within a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PathId(pub u32);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc{}", self.0)
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path{}", self.0)
    }
}

/// One root-to-leaf element path of a document: the publication format
/// routed through the network.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DocPath {
    /// The document this path was extracted from.
    pub doc_id: DocId,
    /// Position of this path within the document (document order).
    pub path_id: PathId,
    /// Element names from the root to a leaf.
    pub elements: Vec<String>,
    /// Per-element attributes, aligned with `elements` (empty when the
    /// source carried none) — consumed by the attribute-predicate
    /// matching extension.
    pub attributes: Vec<Vec<(String, String)>>,
}

impl DocPath {
    /// Creates a path from raw parts, carrying no attributes.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty — a document always has a root.
    pub fn new(doc_id: DocId, path_id: PathId, elements: Vec<String>) -> Self {
        assert!(
            !elements.is_empty(),
            "a document path has at least the root element"
        );
        let attributes = vec![Vec::new(); elements.len()];
        DocPath {
            doc_id,
            path_id,
            elements,
            attributes,
        }
    }

    /// Replaces the attribute lists (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `attributes` is not aligned with the elements.
    pub fn with_attributes(mut self, attributes: Vec<Vec<(String, String)>>) -> Self {
        assert_eq!(
            attributes.len(),
            self.elements.len(),
            "attribute lists must align with elements"
        );
        self.attributes = attributes;
        self
    }

    /// Number of elements on the path.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Always false; paths contain at least the root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Element names as `&str` slices, convenient for matching.
    pub fn as_strs(&self) -> Vec<&str> {
        self.elements.iter().map(String::as_str).collect()
    }
}

impl fmt::Display for DocPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.elements {
            write!(f, "/{e}")?;
        }
        write!(f, " [{} {}]", self.doc_id, self.path_id)
    }
}

/// Decomposes a document into its root-to-leaf paths in document order.
///
/// This is the publisher-side step performed "before the publisher
/// submits the document to the network" (§3.1).
///
/// ```
/// use xdn_xml::{parse_document, paths::extract_paths, DocId};
///
/// let doc = parse_document("<r><a><b/></a><c/></r>")?;
/// let paths = extract_paths(&doc, DocId(1));
/// assert_eq!(paths[0].elements, ["r", "a", "b"]);
/// assert_eq!(paths[1].elements, ["r", "c"]);
/// # Ok::<(), xdn_xml::XmlError>(())
/// ```
pub fn extract_paths(doc: &Document, doc_id: DocId) -> Vec<DocPath> {
    let mut out = Vec::new();
    walk(doc.root(), doc_id, &mut Vec::new(), &mut out);
    out
}

/// Visits `elem` below the borrowed `prefix` of its ancestors; each
/// leaf builds its path's names and attributes once.
fn walk<'d>(
    elem: &'d Element,
    doc_id: DocId,
    prefix: &mut Vec<&'d Element>,
    out: &mut Vec<DocPath>,
) {
    prefix.push(elem);
    if elem.is_leaf() {
        out.push(DocPath {
            doc_id,
            path_id: PathId(out.len() as u32),
            elements: prefix.iter().map(|e| e.name().to_owned()).collect(),
            attributes: prefix.iter().map(|e| e.attributes().to_vec()).collect(),
        });
    } else {
        for child in elem.child_elements() {
            walk(child, doc_id, prefix, out);
        }
    }
    prefix.pop();
}

/// Deduplicates paths that share the same element sequence, keeping the
/// first occurrence. Brokers route on element sequences, so duplicate
/// sibling subtrees produce redundant routing work that publishers can
/// elide.
pub fn dedup_paths(paths: Vec<DocPath>) -> Vec<DocPath> {
    let keep: Vec<bool> = {
        let mut seen = std::collections::HashSet::with_capacity(paths.len());
        paths
            .iter()
            .map(|p| seen.insert(p.elements.as_slice()))
            .collect()
    };
    paths
        .into_iter()
        .zip(keep)
        .filter_map(|(p, first)| first.then_some(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_document;

    #[test]
    fn extract_single_leaf() {
        let doc = parse_document("<a/>").unwrap();
        let paths = extract_paths(&doc, DocId(0));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].elements, vec!["a"]);
    }

    #[test]
    fn extract_document_order() {
        let doc = parse_document("<r><a><b/><c/></a><d/></r>").unwrap();
        let paths = extract_paths(&doc, DocId(3));
        let seqs: Vec<Vec<&str>> = paths.iter().map(|p| p.as_strs()).collect();
        assert_eq!(
            seqs,
            vec![vec!["r", "a", "b"], vec!["r", "a", "c"], vec!["r", "d"]]
        );
        assert_eq!(paths[2].path_id, PathId(2));
        assert!(paths.iter().all(|p| p.doc_id == DocId(3)));
    }

    #[test]
    fn text_only_element_is_leaf() {
        let doc = parse_document("<a><b>text</b></a>").unwrap();
        let paths = extract_paths(&doc, DocId(0));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].elements, vec!["a", "b"]);
    }

    #[test]
    fn dedup_removes_repeated_sequences() {
        let doc = parse_document("<a><b/><b/><c/></a>").unwrap();
        let paths = extract_paths(&doc, DocId(0));
        assert_eq!(paths.len(), 3);
        let deduped = dedup_paths(paths);
        assert_eq!(deduped.len(), 2);
        assert_eq!(deduped[0].elements, vec!["a", "b"]);
        assert_eq!(deduped[1].elements, vec!["a", "c"]);
    }

    #[test]
    fn display_formats() {
        let p = DocPath::new(DocId(1), PathId(2), vec!["a".into(), "b".into()]);
        assert_eq!(p.to_string(), "/a/b [doc1 path2]");
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least the root")]
    fn empty_path_panics() {
        let _ = DocPath::new(DocId(0), PathId(0), vec![]);
    }
}
