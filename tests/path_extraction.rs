//! Publisher-side path extraction against a naive reference: the same
//! paths, ids, names and attributes, in the same order, before and
//! after deduplication, on generated NITF and PSD documents and on
//! hand-made ones with attributes and repeated siblings.

use std::collections::HashSet;
use xdn::workloads::{docs, nitf_dtd, psd_dtd};
use xdn::xml::paths::{dedup_paths, extract_paths};
use xdn::xml::{parse_document, DocId, DocPath, Document, Element, PathId};

/// Root-to-leaf paths by an owned walk: every visited element's name
/// and attributes copied onto the prefix, each leaf cloning it.
fn naive_extract(doc: &Document, doc_id: DocId) -> Vec<DocPath> {
    fn walk(
        elem: &Element,
        doc_id: DocId,
        names: &mut Vec<String>,
        attrs: &mut Vec<Vec<(String, String)>>,
        out: &mut Vec<DocPath>,
    ) {
        names.push(elem.name().to_owned());
        attrs.push(elem.attributes().to_vec());
        if elem.is_leaf() {
            let id = PathId(out.len() as u32);
            out.push(DocPath::new(doc_id, id, names.clone()).with_attributes(attrs.clone()));
        } else {
            for child in elem.child_elements() {
                walk(child, doc_id, names, attrs, out);
            }
        }
        names.pop();
        attrs.pop();
    }
    let mut out = Vec::new();
    walk(
        doc.root(),
        doc_id,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// The first path of each element sequence, in order.
fn naive_dedup(paths: Vec<DocPath>) -> Vec<DocPath> {
    let mut seen = HashSet::new();
    paths
        .into_iter()
        .filter(|p| seen.insert(p.elements.clone()))
        .collect()
}

fn check(doc: &Document, doc_id: DocId) {
    let paths = extract_paths(doc, doc_id);
    assert_eq!(paths, naive_extract(doc, doc_id));
    assert_eq!(dedup_paths(paths.clone()), naive_dedup(paths));
}

#[test]
fn generated_documents_extract_like_the_reference() {
    for (i, dtd) in [nitf_dtd(), psd_dtd()].iter().enumerate() {
        for (j, doc) in docs::documents(dtd, 25, 90 + i as u64).iter().enumerate() {
            check(doc, DocId(j as u64));
        }
    }
}

#[test]
fn attributes_and_repeated_siblings_extract_like_the_reference() {
    for text in [
        "<a/>",
        "<a x=\"1\"><b y=\"2\"/><b y=\"3\"/><c/></a>",
        "<r><s k=\"v\"><t/><t a=\"1\" b=\"2\"/></s><s><t/></s><u>text</u></r>",
        "<r><a><b/><b/></a><a><b/><c z=\"9\"/></a><a/></r>",
    ] {
        let doc = parse_document(text).unwrap();
        check(&doc, DocId(7));
        let paths = extract_paths(&doc, DocId(7));
        assert!(paths.iter().all(|p| p.attributes.len() == p.elements.len()));
    }
    let doc = parse_document("<a x=\"1\"><b y=\"2\"/><b y=\"3\"/></a>").unwrap();
    let deduped = dedup_paths(extract_paths(&doc, DocId(1)));
    assert_eq!(deduped.len(), 1);
    assert_eq!(deduped[0].attributes[1], [("y".to_owned(), "2".to_owned())]);
}
