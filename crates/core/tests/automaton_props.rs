//! Property tests for the two automaton-backed routers: under arbitrary
//! subscribe/unsubscribe churn — which exercises the shared NFA's
//! incremental inserts, tombstoned removals, and amortized compaction
//! rebuilds — [`AutomatonPrt`] and the covering [`Prt`] (also through
//! perfect and imperfect merging) must route exactly like a [`FlatPrt`]
//! holding the same subscriptions: identical `(SubId, hop)` match
//! multisets for every publication, both mid-churn and after it. This
//! pins the one-traversal-per-publication engine to the
//! expression-by-expression reference semantics.

use proptest::prelude::*;
use xdn_core::automaton::AutomatonPrt;
use xdn_core::rtable::{FlatPrt, Prt, PublicationRouter, SubId};
use xdn_xpath::{Axis, NodeTest, Predicate, Step, Xpe};

/// A probe publication: element path plus per-element attribute lists.
type Probe = (Vec<String>, Vec<Vec<(String, String)>>);

const ALPHABET: &[&str] = &["a", "b", "c", "d"];
const ATTR_NAMES: &[&str] = &["p", "q"];
const ATTR_VALUES: &[&str] = &["1", "2"];

fn arb_predicates() -> impl Strategy<Value = Vec<Predicate>> {
    prop::collection::vec(
        prop_oneof![
            2 => (0..ATTR_NAMES.len()).prop_map(|i| Predicate::HasAttr(ATTR_NAMES[i].into())),
            1 => ((0..ATTR_NAMES.len()), (0..ATTR_VALUES.len())).prop_map(|(i, j)| {
                Predicate::AttrEq(ATTR_NAMES[i].into(), ATTR_VALUES[j].into())
            }),
        ],
        0..3,
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
                arb_predicates(),
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

/// An element name plus the attributes carried at that path position.
fn arb_element() -> impl Strategy<Value = (String, Vec<(String, String)>)> {
    (
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i].to_owned()),
        prop::collection::vec(
            ((0..ATTR_NAMES.len()), (0..ATTR_VALUES.len()))
                .prop_map(|(i, j)| (ATTR_NAMES[i].to_owned(), ATTR_VALUES[j].to_owned())),
            0..3,
        ),
    )
}

fn arb_path() -> impl Strategy<Value = Vec<(String, Vec<(String, String)>)>> {
    prop::collection::vec(arb_element(), 1..7)
}

/// A merging universe: a few element-name paths (a small universe
/// makes many mergers perfect, a large one makes them imperfect).
fn arb_universe() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(
        prop::collection::vec(
            (0..ALPHABET.len()).prop_map(|i| ALPHABET[i].to_owned()),
            1..5,
        ),
        1..12,
    )
}

#[derive(Debug, Clone)]
enum Op {
    Subscribe(Xpe),
    /// Unsubscribe the i-th live subscription (modulo the live count).
    Unsubscribe(usize),
    /// Re-register the i-th live subscription under a new expression.
    Resubscribe(usize, Xpe),
    /// Match a probe path mid-churn (per-publication traversal).
    Route(Vec<(String, Vec<(String, String)>)>),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => arb_xpe().prop_map(Op::Subscribe),
            2 => (0usize..64).prop_map(Op::Unsubscribe),
            1 => ((0usize..64), arb_xpe()).prop_map(|(i, x)| Op::Resubscribe(i, x)),
            2 => arb_path().prop_map(Op::Route),
        ],
        1..48,
    )
}

/// Churn on the covering table, which keeps each id's expression for
/// its lifetime (so no re-registration).
#[derive(Debug, Clone)]
enum CoverOp {
    Subscribe(Xpe),
    /// Subscribe a fresh id with the expression of the i-th live
    /// subscription or merger (modulo their count), so the two share a
    /// tree node.
    Share(usize),
    /// Unsubscribe the i-th live subscription (modulo the live count).
    Unsubscribe(usize),
    /// Match a probe path mid-churn.
    Route(Vec<(String, Vec<(String, String)>)>),
}

fn arb_cover_ops() -> impl Strategy<Value = Vec<CoverOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => arb_xpe().prop_map(CoverOp::Subscribe),
            1 => (0usize..64).prop_map(CoverOp::Share),
            2 => (0usize..64).prop_map(CoverOp::Unsubscribe),
            2 => arb_path().prop_map(CoverOp::Route),
        ],
        1..32,
    )
}

fn probe(spec: Vec<(String, Vec<(String, String)>)>) -> Probe {
    let path: Vec<String> = spec.iter().map(|(n, _)| n.clone()).collect();
    let attrs: Vec<Vec<(String, String)>> = spec.into_iter().map(|(_, a)| a).collect();
    (path, attrs)
}

/// The exact `(SubId, hop)` match set, sorted for comparison.
fn match_set(r: &dyn PublicationRouter<u32>, p: &Probe) -> Vec<(SubId, u32)> {
    let mut out = Vec::new();
    r.for_each_matching_with_attrs(&p.0, &p.1, &mut |id, h| out.push((id, *h)));
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn automaton_routes_like_flat_under_churn(
        ops in arb_ops(),
        paths in prop::collection::vec(arb_path(), 6),
    ) {
        let mut reference: FlatPrt<u32> = FlatPrt::new();
        let mut automaton: AutomatonPrt<u32> = AutomatonPrt::new();
        let mut live: Vec<SubId> = Vec::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Subscribe(x) => {
                    next += 1;
                    let id = SubId(next);
                    reference.insert(id, x.clone(), next as u32);
                    automaton.insert(id, x, next as u32);
                    live.push(id);
                }
                Op::Unsubscribe(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live.remove(i % live.len());
                    reference.remove(id);
                    automaton.remove(id);
                }
                Op::Resubscribe(i, x) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[i % live.len()];
                    next += 1;
                    reference.insert(id, x.clone(), next as u32);
                    automaton.insert(id, x, next as u32);
                }
                Op::Route(spec) => {
                    // Mid-churn probe: the automaton must agree while
                    // tombstones and half-threaded structure are live.
                    let p = probe(spec);
                    prop_assert_eq!(
                        match_set(&automaton, &p),
                        match_set(&reference, &p),
                        "mid-churn divergence on {:?}",
                        &p.0
                    );
                }
            }
        }
        prop_assert_eq!(automaton.len(), PublicationRouter::len(&reference));

        for p in paths.into_iter().map(probe) {
            // Per-publication traversal, exact (SubId, hop) pairs.
            prop_assert_eq!(
                match_set(&automaton, &p),
                match_set(&reference, &p),
                "divergence on {:?}",
                &p.0
            );
        }
    }
}

/// The covering table and the flat reference holding the same
/// subscriptions, driven in lockstep.
struct Lockstep {
    covering: Prt<u32>,
    reference: FlatPrt<u32>,
    live: Vec<SubId>,
    /// Expressions of the mergers created so far.
    mergers: Vec<Xpe>,
    next: u64,
}

impl Lockstep {
    fn subscribe(&mut self, x: Xpe) {
        self.next += 1;
        let id = SubId(self.next);
        self.reference.insert(id, x.clone(), self.next as u32);
        self.covering.insert(id, x, self.next as u32);
        self.live.push(id);
    }

    fn apply(&mut self, op: CoverOp) -> Result<(), TestCaseError> {
        match op {
            CoverOp::Subscribe(x) => self.subscribe(x),
            CoverOp::Share(i) => {
                let shared: Vec<&Xpe> = self
                    .live
                    .iter()
                    .filter_map(|&id| self.reference.xpe_of(id))
                    .chain(&self.mergers)
                    .collect();
                if let Some(&x) = shared.get(i % shared.len().max(1)) {
                    self.subscribe(x.clone());
                }
            }
            CoverOp::Unsubscribe(i) => {
                if !self.live.is_empty() {
                    let id = self.live.remove(i % self.live.len());
                    self.reference.remove(id);
                    self.covering.remove(id);
                }
            }
            CoverOp::Route(spec) => self.check(&probe(spec))?,
        }
        self.covering
            .tree()
            .check_invariants()
            .map_err(|e| TestCaseError::fail(format!("tree invariant: {e}")))
    }

    fn check(&self, p: &Probe) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            match_set(&self.covering, p),
            match_set(&self.reference, p),
            "covering divergence on {:?}",
            &p.0
        );
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn covering_routes_like_flat_under_churn_and_merging(
        phases in prop::collection::vec(arb_cover_ops(), 3),
        universe in arb_universe(),
        paths in prop::collection::vec(arb_path(), 6),
    ) {
        let mut t = Lockstep {
            covering: Prt::new(),
            reference: FlatPrt::new(),
            live: Vec::new(),
            mergers: Vec::new(),
            next: 0,
        };
        let mut merger_ids = 1_000_000u64;
        // Churn, perfect merging, churn, imperfect merging, churn:
        // mergers carry no subscribers, so no phase may change a match.
        let degrees = [Some(0.0), Some(0.5), None];
        for (ops, degree) in phases.into_iter().zip(degrees) {
            for op in ops {
                t.apply(op)?;
            }
            for p in paths.iter().cloned().map(probe) {
                t.check(&p)?;
            }
            if let Some(max_degree) = degree {
                let applied = t.covering.apply_merging(&universe, max_degree, || {
                    merger_ids += 1;
                    SubId(merger_ids)
                });
                t.mergers.extend(applied.into_iter().map(|m| m.xpe));
                for p in paths.iter().cloned().map(probe) {
                    t.check(&p)?;
                }
            }
        }
        prop_assert_eq!(t.live.len(), PublicationRouter::len(&t.reference));
    }
}
