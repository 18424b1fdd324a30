//! Property test for the automaton's run stack: a path that resumes at
//! the prefix it shares with the previous path must report exactly the
//! tokens of a traversal from the root, in the same order, and those
//! must be the live expressions that
//! [`matches_path_with_attrs`] accepts.
//!
//! Paths come from random element trees, first in document (DFS) order,
//! where consecutive paths share long prefixes, then shuffled. Element
//! names include one no expression uses, siblings often differ only in
//! their attributes, and inserts, removals, re-registrations and
//! compactions land between paths.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use xdn_xpath::automaton::PathAutomaton;
use xdn_xpath::matching::matches_path_with_attrs;
use xdn_xpath::{Axis, NodeTest, Predicate, Step, Xpe};

/// Names expressions use; paths also carry [`UNUSED`].
const ALPHABET: &[&str] = &["a", "b", "c"];
/// Element names no expression mentions, so the automaton never
/// interns them; predicated wildcard steps still accept them. The
/// empty one is no XML name, but a wire path may carry it.
const UNUSED: &[&str] = &["u", ""];
const ATTR_NAMES: &[&str] = &["p", "q"];
const ATTR_VALUES: &[&str] = &["1", "2"];

type Attrs = Vec<(String, String)>;

/// One element of a random document.
#[derive(Debug, Clone)]
struct Elem {
    name: String,
    attrs: Attrs,
    children: Vec<Elem>,
}

/// A root-to-leaf path with its per-element attribute lists.
type Path = (Vec<String>, Vec<Attrs>);

fn arb_predicates() -> impl Strategy<Value = Vec<Predicate>> {
    prop::collection::vec(
        prop_oneof![
            2 => (0..ATTR_NAMES.len()).prop_map(|i| Predicate::HasAttr(ATTR_NAMES[i].into())),
            1 => ((0..ATTR_NAMES.len()), (0..ATTR_VALUES.len())).prop_map(|(i, j)| {
                Predicate::AttrEq(ATTR_NAMES[i].into(), ATTR_VALUES[j].into())
            }),
        ],
        0..2,
    )
}

fn arb_xpe() -> impl Strategy<Value = Xpe> {
    (
        any::<bool>(),
        prop::collection::vec(
            (
                prop_oneof![3 => Just(Axis::Child), 1 => Just(Axis::Descendant)],
                prop_oneof![
                    3 => (0..ALPHABET.len()).prop_map(|i| NodeTest::Name(ALPHABET[i].into())),
                    1 => Just(NodeTest::Wildcard),
                ],
                prop_oneof![2 => Just(Vec::new()), 1 => arb_predicates()],
            ),
            1..5,
        ),
    )
        .prop_map(|(absolute, steps)| {
            Xpe::new(
                absolute,
                steps
                    .into_iter()
                    .map(|(axis, test, predicates)| Step {
                        axis,
                        test,
                        predicates,
                    })
                    .collect(),
            )
        })
}

/// An element name (sometimes an [`UNUSED`] one) and its attributes. A few
/// values are long, so a path's names and attributes can outgrow what
/// the automaton records of it.
fn random_label(rng: &mut ChaCha8Rng) -> (String, Attrs) {
    let name = if rng.gen_range(0..5) == 0 {
        UNUSED[rng.gen_range(0..UNUSED.len())]
    } else {
        ALPHABET[rng.gen_range(0..ALPHABET.len())]
    };
    let attrs = (0..rng.gen_range(0..3))
        .map(|_| {
            let k = ATTR_NAMES[rng.gen_range(0..ATTR_NAMES.len())];
            let v = if rng.gen_range(0..16) == 0 {
                "1".repeat(1500)
            } else {
                ATTR_VALUES[rng.gen_range(0..ATTR_VALUES.len())].to_owned()
            };
            (k.to_owned(), v)
        })
        .collect();
    (name.to_owned(), attrs)
}

/// A random element tree at most `depth` deep. Siblings are drawn from
/// a small alphabet, so many share a name and differ, if at all, only
/// in their attributes.
fn random_tree(rng: &mut ChaCha8Rng, depth: usize) -> Elem {
    let (name, attrs) = random_label(rng);
    let fanout = if depth <= 1 { 0 } else { rng.gen_range(1..4) };
    Elem {
        name,
        attrs,
        children: (0..fanout)
            .map(|_| {
                let below = rng.gen_range(1..depth);
                random_tree(rng, below)
            })
            .collect(),
    }
}

/// The tree's root-to-leaf paths in document order. Where a path's
/// trailing elements carry no attributes, every other path leaves
/// their lists out: a missing list counts as empty.
fn paths_of(root: &Elem) -> Vec<Path> {
    fn walk(e: &Elem, prefix: &mut Path, out: &mut Vec<Path>) {
        prefix.0.push(e.name.clone());
        prefix.1.push(e.attrs.clone());
        if e.children.is_empty() {
            let mut path = prefix.clone();
            if out.len() % 2 == 1 {
                while path.1.last().is_some_and(Vec::is_empty) {
                    path.1.pop();
                }
            }
            out.push(path);
        }
        for c in &e.children {
            walk(c, prefix, out);
        }
        prefix.0.pop();
        prefix.1.pop();
    }
    let mut out = Vec::new();
    walk(root, &mut (Vec::new(), Vec::new()), &mut out);
    out
}

/// A random document's paths twice: in document order, where
/// consecutive paths share long prefixes, then shuffled. One document
/// in four hangs its tree below a chain of 28 to 40 elements, deeper
/// than the automaton records.
fn document_paths(seed: u64) -> Vec<Path> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let depth = rng.gen_range(1..7);
    let mut root = random_tree(&mut rng, depth);
    if rng.gen_range(0..4) == 0 {
        for _ in 0..rng.gen_range(28..41) {
            let (name, attrs) = random_label(&mut rng);
            root = Elem {
                name,
                attrs,
                children: vec![root],
            };
        }
    }
    let mut paths = paths_of(&root);
    let mut shuffled = paths.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    paths.extend(shuffled);
    paths
}

/// A mutation landing before the path at index `at` (modulo).
#[derive(Debug, Clone)]
enum Mutation {
    Insert(Xpe),
    /// Removes the i-th live token (modulo the live count).
    Remove(usize),
    /// Re-registers the i-th live token under a new expression.
    Replace(usize, Xpe),
    Compact,
}

fn arb_mutations() -> impl Strategy<Value = Vec<(usize, Mutation)>> {
    prop::collection::vec(
        (
            any::<usize>(),
            prop_oneof![
                3 => arb_xpe().prop_map(Mutation::Insert),
                2 => any::<usize>().prop_map(Mutation::Remove),
                1 => (any::<usize>(), arb_xpe()).prop_map(|(i, x)| Mutation::Replace(i, x)),
                1 => Just(Mutation::Compact),
            ],
        ),
        0..8,
    )
}

fn reported(nfa: &PathAutomaton, p: &Path) -> Vec<u64> {
    let mut out = Vec::new();
    nfa.for_each_match(&p.0, &p.1, &mut |t| out.push(t));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

    #[test]
    fn resumed_paths_match_like_the_reference(
        exprs in prop::collection::vec(arb_xpe(), 1..12),
        document in any::<u64>(),
        mutations in arb_mutations(),
    ) {
        let paths = document_paths(document);
        let mut nfa = PathAutomaton::new();
        let mut live: BTreeMap<u64, Xpe> = BTreeMap::new();
        let mut next = 0u64;
        for x in exprs {
            nfa.insert(next, &x);
            live.insert(next, x);
            next += 1;
        }
        let mut mutations = mutations;
        mutations.sort_by_key(|(at, _)| at % paths.len());
        let mut pending = mutations.into_iter().peekable();
        for (i, p) in paths.iter().enumerate() {
            while let Some((_, m)) = pending.next_if(|(at, _)| at % paths.len() == i) {
                match m {
                    Mutation::Insert(x) => {
                        nfa.insert(next, &x);
                        live.insert(next, x);
                        next += 1;
                    }
                    Mutation::Remove(k) => {
                        if let Some(&t) = live.keys().nth(k % live.len().max(1)) {
                            prop_assert!(nfa.remove(t));
                            live.remove(&t);
                        }
                    }
                    Mutation::Replace(k, x) => {
                        if let Some(&t) = live.keys().nth(k % live.len().max(1)) {
                            nfa.insert(t, &x);
                            live.insert(t, x);
                        }
                    }
                    Mutation::Compact => nfa.compact(|t| live.get(&t)),
                }
            }
            let got = reported(&nfa, p);
            // A clone starts with an empty run stack: from the root.
            prop_assert_eq!(&got, &reported(&nfa.clone(), p), "order on {:?}", p);
            let mut got = got;
            got.sort_unstable();
            let expected: Vec<u64> = live
                .iter()
                .filter(|(_, x)| matches_path_with_attrs(x, &p.0, &p.1))
                .map(|(&t, _)| t)
                .collect();
            prop_assert_eq!(got, expected, "tokens on {:?}", p);
        }
    }
}
