//! Stateful property tests for the subscription tree: any sequence of
//! inserts and removals keeps the structural invariants, and every
//! tree edge is a proven covering relation. (The tree does not match
//! publications; the covering table's routing is pinned against the
//! flat reference in `automaton_props.rs`.)

use proptest::prelude::*;
use xdn_core::cover::covers;
use xdn_core::subtree::{NodeId, SubscriptionTree};
use xdn_xpath::{Axis, NodeTest, Step, Xpe};

const ALPHABET: &[&str] = &["a", "b", "c"];

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
            ),
            1..5,
        ),
    )
        .prop_map(|(absolute, steps)| {
            Xpe::new(
                absolute,
                steps
                    .into_iter()
                    .map(|(axis, test)| Step {
                        axis,
                        test,
                        predicates: Vec::new(),
                    })
                    .collect(),
            )
        })
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Xpe),
    /// Remove the i-th live node (modulo the live count).
    Remove(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => arb_xpe().prop_map(Op::Insert),
            1 => (0usize..64).prop_map(Op::Remove),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn churn_preserves_invariants_and_covering_edges(ops in arb_ops()) {
        let mut tree: SubscriptionTree<usize> = SubscriptionTree::new();
        let mut live: Vec<NodeId> = Vec::new();
        let mut counter = 0usize;
        for op in ops {
            match op {
                Op::Insert(x) => {
                    counter += 1;
                    live.push(tree.insert(x, counter).id());
                }
                Op::Remove(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    tree.remove(live.remove(i % live.len()));
                }
            }
            tree.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("invariant violated: {e}"))
            })?;
        }
        prop_assert_eq!(tree.len(), live.len());
        // Edge-wise covering is the invariant forwarding relies on:
        // every parent provably covers its children (note: the covering
        // decision procedure is sound but incomplete, so a node need
        // not be *provably* covered by its transitive root).
        fn assert_edges(
            tree: &SubscriptionTree<usize>,
            id: NodeId,
        ) -> Result<(), TestCaseError> {
            for &c in tree.children(id) {
                prop_assert!(
                    covers(tree.xpe(id), tree.xpe(c)),
                    "{} does not cover child {}",
                    tree.xpe(id),
                    tree.xpe(c)
                );
                assert_edges(tree, c)?;
            }
            Ok(())
        }
        for &r in tree.roots() {
            // A root always provably covers itself.
            prop_assert!(covers(tree.xpe(r), tree.xpe(r)));
            assert_edges(&tree, r)?;
        }
    }
}
