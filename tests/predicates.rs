//! Tests for the attribute-predicate extension (§3.1 notes the
//! approach "could be easily extended to element attributes and
//! content"): parsing, matching, covering, and end-to-end delivery.

use xdn::broker::RoutingConfig;
use xdn::core::cover::covers;
use xdn::net::latency::ClusterLan;
use xdn::net::sim::ProcessingModel;
use xdn::net::topology::chain;
use xdn::xpath::matching::{matches_doc_path, matches_document};
use xdn::xpath::{Predicate, Xpe};

fn xpe(s: &str) -> Xpe {
    s.parse().unwrap()
}

#[test]
fn parse_and_display_roundtrip() {
    for src in [
        "/claim[@id]",
        "/claim[@id='7']/line",
        "//stock[@symbol='XDN']/price",
        "a/*[@lang='en']",
        "/a[@x][@y='2']/b",
    ] {
        let parsed = xpe(src);
        assert_eq!(parsed.to_string(), src, "display must round-trip");
        assert_eq!(xpe(&parsed.to_string()), parsed);
    }
}

#[test]
fn parse_errors() {
    assert!(Xpe::parse("/a[@]").is_err());
    assert!(Xpe::parse("/a[@x='unterminated]").is_err());
    assert!(Xpe::parse("/a[@x=unquoted]").is_err());
    assert!(
        Xpe::parse("/a[text()='x']").is_err(),
        "only @attr predicates supported"
    );
    assert!(Xpe::parse("/a[@x").is_err());
}

#[test]
fn document_matching_with_attributes() {
    let doc = xdn::xml::parse_document(
        r#"<claims><claim id="7" lang="en"><amount>90</amount></claim>
           <claim id="8" lang="pt"><amount>10</amount></claim></claims>"#,
    )
    .unwrap();
    assert!(matches_document(&xpe("//claim[@lang='en']"), &doc));
    assert!(matches_document(&xpe("//claim[@lang='pt']/amount"), &doc));
    assert!(!matches_document(&xpe("//claim[@lang='ja']"), &doc));
    assert!(matches_document(&xpe("//claim[@id]"), &doc));
    assert!(!matches_document(&xpe("//amount[@id]"), &doc));
}

#[test]
fn doc_path_matching_uses_extracted_attributes() {
    let doc = xdn::xml::parse_document(r#"<a x="1"><b y="2"/></a>"#).unwrap();
    let paths = xdn::xml::paths::extract_paths(&doc, xdn::xml::DocId(1));
    assert_eq!(paths.len(), 1);
    assert!(matches_doc_path(&xpe("/a[@x='1']/b"), &paths[0]));
    assert!(matches_doc_path(&xpe("/a/b[@y]"), &paths[0]));
    assert!(!matches_doc_path(&xpe("/a[@x='2']/b"), &paths[0]));
    assert!(!matches_doc_path(&xpe("/a/b[@z]"), &paths[0]));
}

#[test]
fn names_only_paths_fail_predicates() {
    // Without attribute data, predicate steps cannot be satisfied.
    assert!(!xpe("/a[@x]").matches_path(&["a"]));
    assert!(xpe("/a").matches_path(&["a"]));
}

#[test]
fn covering_respects_predicates() {
    // Fewer predicates = wider.
    assert!(covers(&xpe("/a/b"), &xpe("/a/b[@x]")));
    assert!(!covers(&xpe("/a/b[@x]"), &xpe("/a/b")));
    // [@x] is implied by [@x='1'].
    assert!(covers(&xpe("/a[@x]"), &xpe("/a[@x='1']")));
    assert!(!covers(&xpe("/a[@x='1']"), &xpe("/a[@x]")));
    assert!(!covers(&xpe("/a[@x='1']"), &xpe("/a[@x='2']")));
    // Wildcards with predicates still constrain.
    assert!(covers(&xpe("/a/*"), &xpe("/a/*[@x]")));
    assert!(!covers(&xpe("/a/*[@x]"), &xpe("/a/b")));
    // Identical predicate sets cover reflexively.
    assert!(covers(&xpe("/a[@x='1']/b"), &xpe("/a[@x='1']/b/c")));
}

#[test]
fn predicate_implication_table() {
    let has = Predicate::HasAttr("x".into());
    let eq1 = Predicate::AttrEq("x".into(), "1".into());
    let eq2 = Predicate::AttrEq("x".into(), "2".into());
    let other = Predicate::HasAttr("y".into());
    assert!(has.implied_by(&eq1));
    assert!(has.implied_by(&has));
    assert!(!eq1.implied_by(&has));
    assert!(!eq1.implied_by(&eq2));
    assert!(!has.implied_by(&other));
}

#[test]
fn end_to_end_attribute_routing() {
    // Two subscribers: one wants English claims, one Portuguese; the
    // network must route on attribute values.
    let mut net = chain(3, RoutingConfig::WithAdvWithCov, ClusterLan::default());
    net.set_processing_model(ProcessingModel::Zero);
    let ids = net.broker_ids();
    let publisher = net.attach_client(ids[0]);
    let english = net.attach_client(ids[2]);
    let portuguese = net.attach_client(ids[2]);

    let dtd = xdn::xml::dtd::Dtd::parse(
        "<!ELEMENT claims (claim*)><!ELEMENT claim (amount)><!ELEMENT amount (#PCDATA)>",
    )
    .unwrap();
    net.advertise_all(
        publisher,
        xdn::core::adv::derive_advertisements(&dtd, &Default::default()),
    );
    net.run();

    net.subscribe(english, xpe("//claim[@lang='en']"));
    net.subscribe(portuguese, xpe("//claim[@lang='pt']"));
    net.run();

    let doc =
        xdn::xml::parse_document(r#"<claims><claim lang="en"><amount>5</amount></claim></claims>"#)
            .unwrap();
    net.publish_document(publisher, &doc);
    net.run();

    let clients: Vec<_> = net
        .metrics()
        .notifications
        .iter()
        .map(|n| n.client)
        .collect();
    assert_eq!(
        clients,
        vec![english],
        "only the English subscriber matches"
    );
}

#[test]
fn wire_codec_preserves_attributes() {
    let doc = xdn::xml::parse_document(r#"<a x="1"><b lang="en">t</b></a>"#).unwrap();
    let path = &xdn::xml::paths::extract_paths(&doc, xdn::xml::DocId(1))[0];
    let publication = xdn::broker::Publication::from_doc_path(path, 99);
    let msg = xdn::broker::Message::Publish(publication);
    let mut bytes = Vec::new();
    xdn::broker::wire::encode_into(&msg, &mut bytes);
    let (decoded, _) = xdn::broker::wire::decode_frame(&bytes).unwrap();
    assert_eq!(decoded, msg);
    // And the decoded publication still satisfies the predicate.
    if let xdn::broker::Message::Publish(p) = decoded {
        assert!(xdn::xpath::matching::matches_path_with_attrs(
            &xpe("/a[@x='1']/b[@lang='en']"),
            &p.elements,
            &p.attributes,
        ));
    } else {
        unreachable!();
    }
}
