//! Property-based tests for the core routing invariants.
//!
//! These are the properties the system's correctness rests on:
//!
//! * covering soundness — `covers(s1, s2)` implies every path matching
//!   `s2` matches `s1` (a false positive would silently drop live
//!   subscriptions);
//! * adv–sub overlap completeness — if a publication matches both an
//!   advertisement and a subscription, the overlap test must say so (a
//!   false negative would break delivery);
//! * exactness on simple expressions — `covers` and `rel_expr_and_adv`
//!   agree with matching witness paths in both directions (`covers`
//!   with one recorded gap);
//! * mergers cover their inputs.

use proptest::prelude::*;
use xdn::core::adv::{AdvPath, AdvSegment, Advertisement};
use xdn::core::advmatch::{adv_overlaps_sub, rel_expr_and_adv, PreparedAdv};
use xdn::core::cover::covers;
use xdn::core::merge::{try_merge_pair, try_merge_rule3};
use xdn::xpath::{Axis, NodeTest, Step, Xpe};

const ALPHABET: &[&str] = &["a", "b", "c", "d"];

/// A name no generated expression or advertisement tests: it stands for
/// every element a `*` may match outside the alphabet.
const OTHER: &str = "z";

fn arb_test() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        4 => (0..ALPHABET.len()).prop_map(|i| NodeTest::Name(ALPHABET[i].to_owned())),
        1 => Just(NodeTest::Wildcard),
    ]
}

fn arb_axis() -> impl Strategy<Value = Axis> {
    prop_oneof![3 => Just(Axis::Child), 1 => Just(Axis::Descendant)]
}

fn arb_xpe() -> impl Strategy<Value = Xpe> {
    (
        any::<bool>(),
        prop::collection::vec((arb_axis(), arb_test()), 1..6),
    )
        .prop_map(|(absolute, steps)| {
            let steps: Vec<Step> = steps
                .into_iter()
                .map(|(axis, test)| Step {
                    axis,
                    test,
                    predicates: Vec::new(),
                })
                .collect();
            Xpe::new(absolute, steps)
        })
}

fn arb_simple_xpe() -> impl Strategy<Value = Xpe> {
    (any::<bool>(), prop::collection::vec(arb_test(), 1..6)).prop_map(|(absolute, tests)| {
        let steps: Vec<Step> = tests
            .into_iter()
            .map(|test| Step {
                axis: Axis::Child,
                test,
                predicates: Vec::new(),
            })
            .collect();
        Xpe::new(absolute, steps)
    })
}

fn arb_path() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i].to_owned()),
        1..8,
    )
}

fn arb_adv_path() -> impl Strategy<Value = AdvPath> {
    prop::collection::vec(arb_test(), 1..8).prop_map(AdvPath::new)
}

/// `x`'s steps as a path, each `*` read as [`OTHER`].
fn witness(x: &Xpe) -> Vec<&str> {
    x.steps()
        .iter()
        .map(|s| s.test.name().unwrap_or(OTHER))
        .collect()
}

/// Every publication `adv` advertises, up to renaming the elements no
/// expression tests: each `*` becomes a name of the alphabet or
/// [`OTHER`].
fn publications(adv: &AdvPath) -> Vec<Vec<&str>> {
    let mut paths = vec![Vec::new()];
    for test in adv.positions() {
        let names: Vec<&str> = match test.name() {
            Some(n) => vec![n],
            None => ALPHABET.iter().copied().chain([OTHER]).collect(),
        };
        paths = paths
            .iter()
            .flat_map(|p| names.iter().map(move |&n| [p.as_slice(), &[n]].concat()))
            .collect();
    }
    paths
}

fn arb_advertisement() -> impl Strategy<Value = Advertisement> {
    // Plain, simple-recursive, or series-recursive shapes.
    (
        prop::collection::vec(arb_test(), 1..4),
        prop::option::of(prop::collection::vec(arb_test(), 1..3)),
        prop::collection::vec(arb_test(), 0..3),
    )
        .prop_map(|(head, repeat, tail)| {
            let mut segments = vec![AdvSegment::Plain(AdvPath::new(head))];
            if let Some(body) = repeat {
                segments.push(AdvSegment::Repeat(vec![AdvSegment::Plain(AdvPath::new(
                    body,
                ))]));
            }
            if !tail.is_empty() {
                segments.push(AdvSegment::Plain(AdvPath::new(tail)));
            }
            Advertisement::new(segments)
        })
}

/// The mergers of a pair: [`try_merge_pair`]'s, plus rule 3 at any
/// shared fraction on a pair it would hand rule 3 (neither input
/// covers the other).
fn mergers(s1: &Xpe, s2: &Xpe) -> Vec<Xpe> {
    let mut out: Vec<Xpe> = try_merge_pair(s1, s2).into_iter().collect();
    if !covers(s1, s2) && !covers(s2, s1) {
        out.extend(try_merge_rule3(s1, s2, 0.0));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Covering soundness: a claimed cover never misses a path.
    #[test]
    fn covering_is_sound(s1 in arb_xpe(), s2 in arb_xpe(), path in arb_path()) {
        if covers(&s1, &s2) && s2.matches_path(&path) {
            prop_assert!(
                s1.matches_path(&path),
                "{s1} claims to cover {s2} but misses path {path:?}"
            );
        }
    }

    /// Covering is reflexive and transitive on sampled triples.
    #[test]
    fn covering_is_reflexive(s in arb_xpe()) {
        prop_assert!(covers(&s, &s), "{s} must cover itself");
    }

    #[test]
    fn covering_is_transitive(a in arb_xpe(), b in arb_xpe(), c in arb_xpe()) {
        if covers(&a, &b) && covers(&b, &c) {
            prop_assert!(covers(&a, &c), "{a} ⊒ {b} ⊒ {c} but not {a} ⊒ {c}");
        }
    }

    /// Covering on simple expressions is exact: `s1` covers `s2` iff it
    /// matches `s2`'s witness path and, when `s2` floats, that path
    /// behind any number of other elements (more than `s1.len()` add
    /// nothing). The one exception is pinned in `cover.rs`: an absolute
    /// all-`*` `s1` no longer than a relative `s2` covers it, but
    /// `covers` says false.
    #[test]
    fn simple_covering_is_exact(s1 in arb_simple_xpe(), s2 in arb_simple_xpe()) {
        let max_prefix = if s2.is_absolute() { 0 } else { s1.len() };
        let exact = (0..=max_prefix).all(|p| {
            let mut path = vec![OTHER; p];
            path.extend(witness(&s2));
            s1.matches_path(&path)
        });
        let gap = s1.is_absolute()
            && !s2.is_absolute()
            && s1.len() <= s2.len()
            && s1.steps().iter().all(|s| s.test.is_wildcard());
        prop_assert_eq!(
            covers(&s1, &s2),
            exact && !gap,
            "covers({}, {}) is inexact", &s1, &s2
        );
    }

    /// Relative overlap is exact: a relative simple subscription
    /// overlaps an advertisement path iff one of its publications
    /// matches the subscription.
    #[test]
    fn relative_overlap_is_exact(adv in arb_adv_path(), sub in arb_simple_xpe()) {
        let sub = Xpe::relative(sub.steps().to_vec());
        let exact = publications(&adv).iter().any(|p| sub.matches_path(p));
        prop_assert_eq!(
            rel_expr_and_adv(&adv, &sub),
            exact,
            "rel_expr_and_adv({}, {}) is inexact", &adv, &sub
        );
    }

    /// Overlap completeness: a publication matching both the
    /// advertisement and the subscription forces `adv_overlaps_sub`.
    #[test]
    fn overlap_has_no_false_negatives(
        adv in arb_advertisement(),
        sub in arb_xpe(),
        path in arb_path(),
    ) {
        if adv.matches_path(&path) && sub.matches_path(&path) {
            prop_assert!(
                adv_overlaps_sub(&adv, &sub),
                "pub {path:?} matches adv {adv} and sub {sub}, but no overlap reported"
            );
        }
    }

    /// Prepared advertisements decide exactly like the dynamic
    /// algorithm.
    #[test]
    fn prepared_adv_is_exact(adv in arb_advertisement(), sub in arb_xpe()) {
        let prepared = PreparedAdv::new(adv.clone(), 16);
        prop_assert_eq!(
            prepared.overlaps(&sub),
            adv_overlaps_sub(&adv, &sub),
            "prepared/dynamic disagreement on {} vs {}", &adv, &sub
        );
    }

    /// Every merger covers both of its inputs.
    #[test]
    fn mergers_cover_inputs(s1 in arb_xpe(), s2 in arb_xpe()) {
        for m in mergers(&s1, &s2) {
            prop_assert!(covers(&m, &s1), "merger {m} does not cover {s1}");
            prop_assert!(covers(&m, &s2), "merger {m} does not cover {s2}");
        }
    }

    /// Mergers never lose publications.
    #[test]
    fn mergers_preserve_matches(s1 in arb_xpe(), s2 in arb_xpe(), path in arb_path()) {
        if s1.matches_path(&path) || s2.matches_path(&path) {
            for m in mergers(&s1, &s2) {
                prop_assert!(m.matches_path(&path), "merger {m} loses {path:?}");
            }
        }
    }

    /// Expansions of an advertisement advertise exactly what it does.
    #[test]
    fn expansions_are_consistent(adv in arb_advertisement(), path in arb_path()) {
        let exps = adv.expansions(2 * path.len() + 2, path.len());
        let via_expansion = exps.iter().any(|e| e.matches_path(&path));
        prop_assert_eq!(
            via_expansion,
            adv.matches_path(&path),
            "expansion/direct disagreement for {} on {:?}", &adv, &path
        );
    }

    /// Display/parse round-trips for generated expressions.
    #[test]
    fn xpe_display_roundtrips(x in arb_xpe()) {
        let reparsed: Xpe = x.to_string().parse().expect("display must reparse");
        prop_assert_eq!(&reparsed, &x);
    }
}
