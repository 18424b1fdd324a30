//! Stateful property tests for the subscription tree: any sequence of
//! inserts and removals keeps the structural invariants, every tree
//! edge is a proven covering relation, and every insert and remove
//! does what the module doc promises. The promise is recomputed before
//! each operation from the tree's public lists with plain `covers`,
//! so the signature test the scans run first must never change an
//! answer. (The tree does not match publications; the covering table's
//! routing is pinned against the flat reference in
//! `automaton_props.rs`.)

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use xdn_core::cover::covers;
use xdn_core::subtree::{Insertion, NodeId, SubscriptionTree};
use xdn_workloads::{nitf_dtd, sets};
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

/// How an expression begins, which decides where the tree searches
/// for its coverer.
#[derive(Debug, PartialEq, Eq)]
enum Head<'a> {
    /// Relative or `//`-headed.
    Floating,
    /// Absolute, a name first.
    Name(&'a str),
    /// Absolute, `*` first.
    Wild,
}

fn head(x: &Xpe) -> Head<'_> {
    let first = &x.steps()[0];
    if !x.is_absolute() || first.axis == Axis::Descendant {
        return Head::Floating;
    }
    match &first.test {
        NodeTest::Name(n) => Head::Name(n),
        NodeTest::Wildcard => Head::Wild,
    }
}

/// A tree whose every insert and remove is checked against an
/// expectation computed naively from `roots()` and `children()`.
struct Checked {
    tree: SubscriptionTree<usize>,
    inserted: usize,
}

impl Checked {
    fn new() -> Self {
        Checked {
            tree: SubscriptionTree::new(),
            inserted: 0,
        }
    }

    /// The parent the module doc promises `x`, and the siblings it
    /// adopts. At the top level the coverer search visits floating
    /// roots, then roots headed by `x`'s first name, then `*`-headed
    /// ones, each in `roots` order; any other root comes last, where
    /// a sound `covers` never finds a coverer. Below, the first
    /// covering child is taken. Adopted siblings keep their order,
    /// and a `*`-headed `x` adopts no floating root.
    fn expect(&self, x: &Xpe) -> (Option<NodeId>, Vec<NodeId>) {
        let rank = |r: NodeId| match (head(self.tree.xpe(r)), head(x)) {
            (Head::Floating, _) => 0,
            (Head::Name(a), Head::Name(b)) if a == b => 1,
            (Head::Wild, Head::Name(_) | Head::Wild) => 2,
            _ => 3,
        };
        let mut ranked = self.tree.roots().to_vec();
        ranked.sort_by_key(|&r| rank(r));
        let mut parent = ranked.into_iter().find(|&r| covers(self.tree.xpe(r), x));
        while let Some(p) = parent {
            match self
                .tree
                .children(p)
                .iter()
                .copied()
                .find(|&c| covers(self.tree.xpe(c), x))
            {
                Some(c) => parent = Some(c),
                None => break,
            }
        }
        let siblings = match parent {
            Some(p) => self.tree.children(p),
            None => self.tree.roots(),
        };
        let adopted = siblings
            .iter()
            .copied()
            .filter(|&s| {
                !(parent.is_none()
                    && head(x) == Head::Wild
                    && head(self.tree.xpe(s)) == Head::Floating)
                    && covers(x, self.tree.xpe(s))
            })
            .collect();
        (parent, adopted)
    }

    fn insert(&mut self, x: Xpe) -> Result<NodeId, String> {
        let (parent, adopted) = self.expect(&x);
        let shown = x.to_string();
        self.inserted += 1;
        let got = self.tree.insert(x, self.inserted);
        let id = got.id();
        let want = match parent {
            Some(by) => Insertion::CoveredBy { by, id },
            None => Insertion::NewTop {
                id,
                demoted: adopted.clone(),
            },
        };
        if got != want {
            return Err(format!("insert {shown}: got {got:?}, promised {want:?}"));
        }
        if self.tree.children(id) != adopted.as_slice() {
            return Err(format!(
                "insert {shown}: adopted {:?}, promised {adopted:?}",
                self.tree.children(id)
            ));
        }
        Ok(id)
    }

    /// Removes `id`: a top-level node's children are promoted in
    /// order; a covered node's join its parent's children, after them.
    fn remove(&mut self, id: NodeId) -> Result<(), String> {
        let parent = self.tree.parent(id);
        let children = self.tree.children(id).to_vec();
        let mut siblings: Vec<NodeId> = match parent {
            Some(p) => self.tree.children(p),
            None => self.tree.roots(),
        }
        .iter()
        .copied()
        .filter(|&s| s != id)
        .collect();
        siblings.extend_from_slice(&children);
        let (_, promoted) = self.tree.remove(id);
        let want_promoted = if parent.is_none() {
            children
        } else {
            Vec::new()
        };
        if promoted != want_promoted {
            return Err(format!(
                "remove {id}: promoted {promoted:?}, promised {want_promoted:?}"
            ));
        }
        let now = match parent {
            Some(p) => self.tree.children(p),
            None => self.tree.roots(),
        };
        if now != siblings.as_slice() {
            return Err(format!("remove {id}: left {now:?}, promised {siblings:?}"));
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        self.tree.check_invariants()
    }
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
        let mut checked = Checked::new();
        let mut live: Vec<NodeId> = Vec::new();
        let fail = |e: String| TestCaseError::fail(e);
        for op in ops {
            match op {
                Op::Insert(x) => live.push(checked.insert(x).map_err(fail)?),
                Op::Remove(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    checked.remove(live.remove(i % live.len())).map_err(fail)?;
                }
            }
            checked.check().map_err(|e| {
                TestCaseError::fail(format!("invariant violated: {e}"))
            })?;
        }
        let tree = &checked.tree;
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
            assert_edges(tree, r)?;
        }
    }
}

/// Invariants are checked every this many operations on the NITF
/// sequences (a check walks the whole tree).
const CHECK_EVERY: usize = 100;

/// NITF Set B at the `nitf-churn` benchmark's sizes: 500 standing
/// expressions and the first 50 of a 250-expression reserve, then two
/// seeded passes over the reserve, each subscribe followed by the
/// removal of the oldest transient expression.
#[test]
fn nitf_set_b_churn_keeps_the_promised_shape() {
    const STANDING: usize = 500;
    const RESERVE: usize = 250;
    const WINDOW: usize = 50;
    let mut xpes = sets::set_b(&nitf_dtd(), STANDING + RESERVE, 0x5b_c4a2);
    let reserve = xpes.split_off(STANDING);
    let mut checked = Checked::new();
    for x in xpes {
        checked.insert(x).unwrap();
    }
    let mut window = VecDeque::new();
    for x in &reserve[..WINDOW] {
        window.push_back(checked.insert(x.clone()).unwrap());
    }
    checked.check().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5b_c4a3);
    for pass in 0..2 {
        let mut order: Vec<usize> = (0..RESERVE).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for (op, i) in order.into_iter().enumerate() {
            window.push_back(checked.insert(reserve[i].clone()).unwrap());
            let oldest = window.pop_front().expect("the window is never empty");
            checked.remove(oldest).unwrap();
            if op % CHECK_EVERY == 0 {
                checked
                    .check()
                    .unwrap_or_else(|e| panic!("pass {pass}, op {op}: {e}"));
            }
        }
    }
    checked.check().unwrap();
    assert_eq!(checked.tree.len(), STANDING + WINDOW);
}

/// 2,000 NITF Set A inserts (the `nitf-match` benchmark's set-up
/// size), then every other one removed.
#[test]
fn nitf_set_a_inserts_keep_the_promised_shape() {
    let mut checked = Checked::new();
    let mut ids = Vec::new();
    for (i, x) in sets::set_a(&nitf_dtd(), 2_000, 0x5a_c4a2)
        .into_iter()
        .enumerate()
    {
        ids.push(checked.insert(x).unwrap());
        if i % CHECK_EVERY == 0 {
            checked
                .check()
                .unwrap_or_else(|e| panic!("insert {i}: {e}"));
        }
    }
    checked.check().unwrap();
    for &id in ids.iter().step_by(2) {
        checked.remove(id).unwrap();
    }
    checked.check().unwrap();
    assert_eq!(checked.tree.len(), 1_000);
}
