//! The subscription tree (§4.1).
//!
//! Each broker maintains its subscriptions in a tree ordered by the
//! covering relation: a node's expression covers every expression in
//! its subtree. Because covering is a partial order, a tree cannot
//! capture every relation: a node may also cover nodes in other
//! subtrees. The paper records those with *super pointers*, turning the
//! tree into a DAG. Nothing here would read them (forwarding needs only
//! the top-level nodes), so the tree keeps its tree edges only.
//!
//! The tree serves two routing purposes, both decided at subscribe
//! time:
//!
//! * **Forwarding decisions** — a newly arrived subscription that is
//!   covered by an existing one need not be forwarded; one that covers
//!   existing top-level subscriptions replaces them downstream
//!   ([`Insertion`]).
//! * **Compact routing tables** — the routing table a neighbour sees is
//!   the set of *top-level* nodes ([`SubscriptionTree::root_count`]),
//!   which covering keeps small (Figure 6).
//!
//! The tree does not match publications: the covering
//! [`crate::rtable::Prt`] indexes its nodes in a shared path automaton
//! and routes each publication with one traversal of that.
//!
//! Search is accelerated by bucketing top-level nodes on their first
//! location step, an index justified by the paper's *absolute XPE node*
//! and *relative XPE node* properties (§4.1): an absolute
//! name-anchored expression can only be covered by one starting with
//! the same name, a wildcard, or a floating (relative / `//`-headed)
//! expression. The buckets also fix the order of the coverer search
//! (floating, then the same name, then `*`), and the first coverer
//! found becomes the parent, so they decide the tree's shape.
//!
//! The buckets barely narrow a one-DTD workload: every NITF or PSD
//! expression starts with the DTD's root element, so all of them share
//! one bucket. So every list a scan walks (`roots`, the buckets and
//! each node's children) keeps, beside each node id, the covering
//! signature of its expression (its element names, the names of a
//! root-anchored leading fragment by position, and its step count; see
//! [`crate::cover`]), computed once on insert. A scan reads the
//! signatures in order and loads a node, to call [`covers`], only where
//! the signature admits the pair. The test only drops pairs that
//! `covers` rejects, so every scan returns the same nodes in the same
//! order. Among NITF Set B expressions it lets about 1 pair in 340
//! through, and most of those cover, so a scan of a full bucket seldom
//! calls `covers`: on the end-to-end benchmark's `nitf-churn` the two
//! top-level scans of an insert take about 1.1 µs together, where
//! they took 4–5 µs with a name mask kept in each node (DESIGN.md §6).

use crate::cover::{covers, CoverSig};
use std::collections::{HashMap, HashSet};
use std::fmt;
use xdn_xpath::{Axis, NodeTest, Xpe};

/// Handle to a node in a [`SubscriptionTree`]. Valid until the node is
/// removed; stale ids are detected (panics) rather than aliased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Outcome of inserting a subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Insertion {
    /// The subscription is covered by an existing one: it was stored
    /// (under `by`) but must **not** be forwarded.
    CoveredBy {
        /// The covering ancestor it was placed under.
        by: NodeId,
        /// The new node.
        id: NodeId,
    },
    /// The subscription landed at the top level: it must be forwarded,
    /// and the previously top-level subscriptions in `demoted` (now its
    /// children) should be unsubscribed downstream.
    NewTop {
        /// The new node.
        id: NodeId,
        /// Former top-level nodes now covered by `id`.
        demoted: Vec<NodeId>,
    },
}

impl Insertion {
    /// The id of the inserted node.
    pub fn id(&self) -> NodeId {
        match *self {
            Insertion::CoveredBy { id, .. } | Insertion::NewTop { id, .. } => id,
        }
    }

    /// True if the subscription should be forwarded to neighbours.
    pub fn forward(&self) -> bool {
        matches!(self, Insertion::NewTop { .. })
    }
}

#[derive(Clone)]
struct NodeData<T> {
    xpe: Xpe,
    payload: T,
    parent: Option<NodeId>,
    children: SigList,
}

/// Node ids, each with its expression's covering signature at the same
/// position of a second array. A scan reads the signatures in order
/// and loads a node only where its signature admits the covering.
#[derive(Clone, Default)]
struct SigList {
    ids: Vec<NodeId>,
    sigs: Vec<CoverSig>,
}

impl SigList {
    fn push(&mut self, id: NodeId, sig: CoverSig) {
        self.ids.push(id);
        self.sigs.push(sig);
    }

    /// Removes `id`, keeping the order of the rest.
    fn remove(&mut self, id: NodeId) {
        if let Some(at) = self.ids.iter().position(|&x| x == id) {
            self.ids.remove(at);
            self.sigs.remove(at);
        }
    }

    fn iter(&self) -> impl Iterator<Item = (NodeId, CoverSig)> + '_ {
        self.ids.iter().copied().zip(self.sigs.iter().copied())
    }
}

/// Bucket key for the top-level index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RootKey<'a> {
    /// Absolute, child-anchored, first step is a name.
    Name(&'a str),
    /// Absolute, child-anchored, first step is `*`.
    Wild,
    /// Relative or `//`-anchored: floats, may cover anything.
    Complex,
}

fn root_key(xpe: &Xpe) -> RootKey<'_> {
    let first = &xpe.steps()[0];
    if !xpe.is_absolute() || first.axis == Axis::Descendant {
        RootKey::Complex
    } else {
        match &first.test {
            NodeTest::Name(n) => RootKey::Name(n),
            NodeTest::Wildcard => RootKey::Wild,
        }
    }
}

/// The subscription tree: a covering-ordered forest, generic over a
/// per-subscription payload `T` (e.g. the set of last hops in a
/// publication routing table).
///
/// ```
/// use xdn_core::subtree::SubscriptionTree;
///
/// let mut tree = SubscriptionTree::new();
/// let wide = tree.insert("/a/*".parse()?, "client-1");
/// assert!(wide.forward());
/// let narrow = tree.insert("/a/b".parse()?, "client-2");
/// assert!(!narrow.forward()); // covered by /a/*
/// assert_eq!(tree.root_count(), 1);
/// # Ok::<(), xdn_xpath::XpeParseError>(())
/// ```
#[derive(Clone)]
pub struct SubscriptionTree<T> {
    nodes: Vec<Option<NodeData<T>>>,
    roots: SigList,
    /// The top-level index: one bucket per [`RootKey`], each holding
    /// its nodes in `roots` order.
    name_roots: HashMap<String, SigList>,
    wild_roots: SigList,
    complex_roots: SigList,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for SubscriptionTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for SubscriptionTree<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubscriptionTree")
            .field("len", &self.len)
            .field("roots", &self.root_count())
            .finish_non_exhaustive()
    }
}

impl<T> SubscriptionTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        SubscriptionTree {
            nodes: Vec::new(),
            roots: SigList::default(),
            name_roots: HashMap::new(),
            wild_roots: SigList::default(),
            complex_roots: SigList::default(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored subscriptions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no subscriptions are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of top-level (uncovered) subscriptions — the effective
    /// routing-table size after covering.
    pub fn root_count(&self) -> usize {
        self.roots.ids.len()
    }

    /// The top-level nodes.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots.ids
    }

    fn node(&self, id: NodeId) -> &NodeData<T> {
        self.nodes[id.0 as usize].as_ref().expect("stale NodeId")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeData<T> {
        self.nodes[id.0 as usize].as_mut().expect("stale NodeId")
    }

    /// The expression stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was removed.
    pub fn xpe(&self, id: NodeId) -> &Xpe {
        &self.node(id).xpe
    }

    /// The expression and payload at `id`, or `None` if it was removed.
    pub fn get(&self, id: NodeId) -> Option<(&Xpe, &T)> {
        let node = self.nodes.get(id.0 as usize)?.as_ref()?;
        Some((&node.xpe, &node.payload))
    }

    /// The payload stored at `id`.
    pub fn payload(&self, id: NodeId) -> &T {
        &self.node(id).payload
    }

    /// Mutable access to the payload at `id`.
    pub fn payload_mut(&mut self, id: NodeId) -> &mut T {
        &mut self.node_mut(id).payload
    }

    /// Children of `id` (subscriptions it covers, tree edges only).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children.ids
    }

    /// Parent of `id`, if it is not top-level.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Inserts a subscription, maintaining covering order.
    ///
    /// The insertion walks the forest breadth-wise: descending into the
    /// first covering node (Case 3 of §4.1), adopting covered siblings
    /// (Case 2), or joining the sibling list (Case 1).
    pub fn insert(&mut self, xpe: Xpe, payload: T) -> Insertion {
        let sig = CoverSig::of(&xpe);
        let mut parent: Option<NodeId> = None;
        loop {
            // Find the first sibling covering the new subscription.
            let coverer = match parent {
                None => self.root_coverer(&xpe, sig),
                Some(p) => self.first_coverer([&self.node(p).children], &xpe, sig),
            };
            if let Some(c) = coverer {
                parent = Some(c);
                continue;
            }
            // No coverer at this level: adopt covered siblings and join.
            let covered = match parent {
                None => self.covered_roots(&xpe, sig),
                Some(p) => self.covered_in(&self.node(p).children, &xpe, sig, false),
            };
            let demoted = covered.ids.clone();
            let id = self.alloc(NodeData {
                xpe,
                payload,
                parent,
                children: covered,
            });
            for &c in &demoted {
                self.detach_from_parent_list(c);
                self.node_mut(c).parent = Some(id);
            }
            match parent {
                None => self.push_root(id, sig),
                Some(p) => self.node_mut(p).children.push(id, sig),
            }
            self.len += 1;
            return match parent {
                None => Insertion::NewTop { id, demoted },
                Some(_) => {
                    // The nearest covering ancestor is the insertion
                    // parent itself.
                    Insertion::CoveredBy {
                        by: parent.expect("checked"),
                        id,
                    }
                }
            };
        }
    }

    /// Removes a subscription; its children are promoted to its parent
    /// (or to the top level). Returns the payload.
    ///
    /// Promoted top-level nodes are newly uncovered: callers performing
    /// covering-based routing should forward them upstream (the reverse
    /// of the demotion performed on insert).
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn remove(&mut self, id: NodeId) -> (T, Vec<NodeId>) {
        self.detach_from_parent_list(id);
        let parent = self.node(id).parent;
        let children = std::mem::take(&mut self.node_mut(id).children);
        for (c, sig) in children.iter() {
            self.node_mut(c).parent = parent;
            match parent {
                None => self.push_root(c, sig),
                Some(p) => self.node_mut(p).children.push(c, sig),
            }
        }
        let promoted = match parent {
            None => children.ids,
            Some(_) => Vec::new(),
        };
        let data = self.nodes[id.0 as usize].take().expect("stale NodeId");
        self.free.push(id.0);
        self.len -= 1;
        (data.payload, promoted)
    }

    /// The first top-level subscription covering `xpe` (whose signature
    /// is `sig`), if any. Because covering is transitive along tree
    /// edges, `xpe` is covered by *some* stored subscription iff it is
    /// covered by a top-level one. Searches the buckets that may hold a
    /// coverer: floating, same name, then `*`.
    fn root_coverer(&self, xpe: &Xpe, sig: CoverSig) -> Option<NodeId> {
        let (named, wild) = match root_key(xpe) {
            RootKey::Name(n) => (self.name_roots.get(n), Some(&self.wild_roots)),
            RootKey::Wild => (None, Some(&self.wild_roots)),
            RootKey::Complex => (None, None),
        };
        self.first_coverer(
            [Some(&self.complex_roots), named, wild]
                .into_iter()
                .flatten(),
            xpe,
            sig,
        )
    }

    /// The first node of `lists`, in order, that covers `xpe` (whose
    /// signature is `sig`).
    fn first_coverer<'a>(
        &self,
        lists: impl IntoIterator<Item = &'a SigList>,
        xpe: &Xpe,
        sig: CoverSig,
    ) -> Option<NodeId> {
        for list in lists {
            for (id, s) in list.iter() {
                if s.may_cover(sig) && covers(self.xpe(id), xpe) {
                    return Some(id);
                }
            }
        }
        None
    }

    /// All top-level subscriptions covered by `xpe` (whose signature is
    /// `sig`) — the set to unsubscribe downstream when `xpe` takes over
    /// — in `roots` order. A name-anchored `xpe` covers only roots in
    /// its own bucket, a `*`-headed one only root-anchored roots, a
    /// floating one any root.
    fn covered_roots(&self, xpe: &Xpe, sig: CoverSig) -> SigList {
        match root_key(xpe) {
            RootKey::Name(n) => self
                .name_roots
                .get(n)
                .map(|bucket| self.covered_in(bucket, xpe, sig, false))
                .unwrap_or_default(),
            RootKey::Wild => self.covered_in(&self.roots, xpe, sig, true),
            RootKey::Complex => self.covered_in(&self.roots, xpe, sig, false),
        }
    }

    /// The nodes of `list` that `xpe` (whose signature is `sig`)
    /// covers, in order, with their signatures; floating ones are
    /// skipped if `skip_floating`.
    fn covered_in(&self, list: &SigList, xpe: &Xpe, sig: CoverSig, skip_floating: bool) -> SigList {
        let mut covered = SigList::default();
        for (id, s) in list.iter().filter(|&(_, s)| sig.may_cover(s)) {
            let other = self.xpe(id);
            if !(skip_floating && root_key(other) == RootKey::Complex) && covers(xpe, other) {
                covered.push(id, s);
            }
        }
        covered
    }

    /// Runs `edit` on the bucket of top-level node `id`. A name bucket
    /// is created, and its key allocated, only when missing.
    fn edit_bucket(&mut self, id: NodeId, edit: impl FnOnce(&mut SigList)) {
        // Reads `nodes` as a field rather than through `node`, so the
        // name stays borrowed while `name_roots` changes. Every caller
        // holds a live id.
        let Some(node) = self.nodes.get(id.0 as usize).and_then(Option::as_ref) else {
            return;
        };
        match root_key(&node.xpe) {
            RootKey::Name(n) => match self.name_roots.get_mut(n) {
                Some(bucket) => edit(bucket),
                None => {
                    let mut bucket = SigList::default();
                    edit(&mut bucket);
                    self.name_roots.insert(n.to_owned(), bucket);
                }
            },
            RootKey::Wild => edit(&mut self.wild_roots),
            RootKey::Complex => edit(&mut self.complex_roots),
        }
    }

    /// Makes `id` (whose signature is `sig`) the last top-level node.
    fn push_root(&mut self, id: NodeId, sig: CoverSig) {
        self.roots.push(id, sig);
        self.edit_bucket(id, |bucket| bucket.push(id, sig));
    }

    fn detach_from_parent_list(&mut self, id: NodeId) {
        match self.node(id).parent {
            None => {
                self.roots.remove(id);
                self.edit_bucket(id, |bucket| bucket.remove(id));
            }
            Some(p) => self.node_mut(p).children.remove(id),
        }
    }

    fn alloc(&mut self, data: NodeData<T>) -> NodeId {
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Some(data);
                NodeId(slot)
            }
            None => {
                self.nodes.push(Some(data));
                NodeId((self.nodes.len() - 1) as u32)
            }
        }
    }

    /// Verifies the structural invariants (every child covered by its
    /// parent; parent links, packed lists, index and signatures
    /// consistent). Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Every live node sits once in `roots` or in one child list, and
        // its parent link names that list.
        let mut listed = HashSet::new();
        let mut list_once = |id: NodeId| {
            if listed.insert(id) {
                Ok(())
            } else {
                Err(format!("{id} is listed twice"))
            }
        };
        self.check_packed("roots", &self.roots)?;
        for &r in &self.roots.ids {
            if self.node(r).parent.is_some() {
                return Err(format!("root {r} has a parent"));
            }
            list_once(r)?;
        }
        let mut live = 0usize;
        for (i, slot) in self.nodes.iter().enumerate() {
            let Some(n) = slot.as_ref() else { continue };
            live += 1;
            let id = NodeId(i as u32);
            self.check_packed(&format!("children of {id}"), &n.children)?;
            for &c in &n.children.ids {
                if self.node(c).parent != Some(id) {
                    return Err(format!("child {c} of {id} has wrong parent link"));
                }
                if !covers(&n.xpe, self.xpe(c)) {
                    return Err(format!("parent {} does not cover child {c}", n.xpe));
                }
                list_once(c)?;
            }
        }
        if live != self.len {
            return Err(format!("len {} != live nodes {live}", self.len));
        }
        if listed.len() != live {
            return Err(format!("{live} live nodes, {} listed", listed.len()));
        }
        // Every root sits in the bucket of its key, and each bucket keeps
        // `roots` order (a name-anchored covered-root search relies on it).
        let rank: HashMap<NodeId, usize> = self
            .roots
            .ids
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i))
            .collect();
        let buckets = self
            .name_roots
            .iter()
            .map(|(n, b)| (RootKey::Name(n), b))
            .chain([
                (RootKey::Wild, &self.wild_roots),
                (RootKey::Complex, &self.complex_roots),
            ]);
        let mut indexed = 0usize;
        for (key, bucket) in buckets {
            self.check_packed(&format!("bucket {key:?}"), bucket)?;
            let mut last = None;
            for &id in &bucket.ids {
                let Some(&r) = rank.get(&id) else {
                    return Err(format!("indexed node {id} ({key:?}) is not a root"));
                };
                if root_key(self.xpe(id)) != key {
                    return Err(format!("root {id} indexed under {key:?}"));
                }
                if last.is_some_and(|l| l >= r) {
                    return Err(format!("bucket {key:?} leaves roots order at {id}"));
                }
                last = Some(r);
            }
            indexed += bucket.ids.len();
        }
        if indexed != self.roots.ids.len() {
            return Err(format!("{} roots, {indexed} indexed", self.roots.ids.len()));
        }
        Ok(())
    }

    /// Checks that `list` pairs each of its live nodes with that node's
    /// covering signature.
    fn check_packed(&self, what: &str, list: &SigList) -> Result<(), String> {
        if list.ids.len() != list.sigs.len() {
            return Err(format!(
                "{what}: {} ids, {} signatures",
                list.ids.len(),
                list.sigs.len()
            ));
        }
        for (id, sig) in list.iter() {
            let Some((xpe, _)) = self.get(id) else {
                return Err(format!("{what} lists removed node {id}"));
            };
            if sig != CoverSig::of(xpe) {
                return Err(format!("{what} carries a stale signature for {id}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    #[test]
    fn insert_forward_decisions() {
        let mut t = SubscriptionTree::new();
        let a = t.insert(xpe("/a/*"), 1);
        assert!(a.forward());
        let b = t.insert(xpe("/a/b"), 2);
        assert!(!b.forward());
        match b {
            Insertion::CoveredBy { by, .. } => assert_eq!(by, a.id()),
            other => panic!("expected CoveredBy, got {other:?}"),
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.root_count(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_demotes_covered_roots() {
        let mut t = SubscriptionTree::new();
        let b = t.insert(xpe("/a/b"), 1).id();
        let c = t.insert(xpe("/a/c"), 2).id();
        let top = t.insert(xpe("/a/*"), 3);
        match &top {
            Insertion::NewTop { demoted, .. } => {
                let mut d = demoted.clone();
                d.sort();
                let mut expect = vec![b, c];
                expect.sort();
                assert_eq!(d, expect);
            }
            other => panic!("expected NewTop, got {other:?}"),
        }
        assert_eq!(t.root_count(), 1);
        assert_eq!(t.children(top.id()).len(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn covered_roots_come_in_roots_order() {
        // A floating or `*`-headed XPE may cover roots of every bucket.
        // The index hashes its keys differently in every tree, so only
        // a walk in `roots` order gives each fresh tree the same result.
        for _ in 0..50 {
            let mut t = SubscriptionTree::new();
            for s in ["/a/b", "/x/b", "/*/b", "c//b", "/q/b"] {
                t.insert(xpe(s), ());
            }
            let expect = t.roots().to_vec();
            assert_eq!(expect.len(), 2, "/*/b and c//b stay top-level");
            match t.insert(xpe("//b"), ()) {
                Insertion::NewTop { id, demoted } => {
                    assert_eq!(demoted, expect);
                    assert_eq!(t.children(id), expect.as_slice());
                }
                other => panic!("expected NewTop, got {other:?}"),
            }
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn unrelated_siblings() {
        let mut t = SubscriptionTree::new();
        t.insert(xpe("/a/b"), 1);
        t.insert(xpe("/x/y"), 2);
        assert_eq!(t.root_count(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn deep_chain() {
        let mut t = SubscriptionTree::new();
        t.insert(xpe("/a"), 0);
        t.insert(xpe("/a/*"), 1);
        t.insert(xpe("/a/*/c"), 2);
        t.insert(xpe("/a/b/c"), 3);
        assert_eq!(t.root_count(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn relative_nodes_not_under_absolute() {
        // Property of a relative XPE node (§4.1): never inside an
        // absolute-rooted subtree.
        let mut t = SubscriptionTree::new();
        t.insert(xpe("/a"), 0);
        let r = t.insert(xpe("b/c"), 1);
        assert!(r.forward());
        assert_eq!(t.root_count(), 2);
        // But a relative node can cover absolutes.
        let cov = t.insert(xpe("c"), 2);
        match cov {
            Insertion::NewTop { ref demoted, .. } => assert!(demoted.contains(&r.id())),
            ref other => panic!("expected NewTop, got {other:?}"),
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_promotes_children() {
        let mut t = SubscriptionTree::new();
        let top = t.insert(xpe("/a/*"), 0).id();
        let c1 = t.insert(xpe("/a/b"), 1).id();
        let c2 = t.insert(xpe("/a/c"), 2).id();
        let (payload, promoted) = t.remove(top);
        assert_eq!(payload, 0);
        let mut p = promoted;
        p.sort();
        let mut expect = vec![c1, c2];
        expect.sort();
        assert_eq!(p, expect);
        assert_eq!(t.root_count(), 2);
        assert_eq!(t.len(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_mid_chain() {
        let mut t = SubscriptionTree::new();
        let a = t.insert(xpe("/a"), 0).id();
        let b = t.insert(xpe("/a/*"), 1).id();
        let c = t.insert(xpe("/a/b/c"), 2).id();
        let (_, promoted) = t.remove(b);
        assert!(
            promoted.is_empty(),
            "child promoted to grandparent, not to top"
        );
        assert_eq!(t.parent(c), Some(a));
        t.check_invariants().unwrap();
    }

    #[test]
    fn payload_access() {
        let mut t = SubscriptionTree::new();
        let id = t.insert(xpe("/a"), vec![1]).id();
        t.payload_mut(id).push(2);
        assert_eq!(t.payload(id), &vec![1, 2]);
        assert_eq!(t.xpe(id), &xpe("/a"));
        assert_eq!(t.get(id), Some((&xpe("/a"), &vec![1, 2])));
        t.remove(id);
        assert_eq!(t.get(id), None, "removed nodes read as absent");
        assert_eq!(t.get(NodeId(99)), None);
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut t = SubscriptionTree::new();
        let a = t.insert(xpe("/a"), 1).id();
        t.remove(a);
        let b = t.insert(xpe("/b"), 2).id();
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "stale NodeId")]
    fn stale_id_detected() {
        let mut t = SubscriptionTree::new();
        let a = t.insert(xpe("/a"), 1).id();
        t.remove(a);
        let _ = t.xpe(a);
    }

    #[test]
    fn equal_xpes_nest() {
        let mut t = SubscriptionTree::new();
        let a = t.insert(xpe("/a/b"), 1);
        let b = t.insert(xpe("/a/b"), 2);
        assert!(a.forward());
        assert!(
            !b.forward(),
            "an equal subscription is mutually covering; not reforwarded"
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn large_insert_stays_consistent() {
        let mut t = SubscriptionTree::new();
        let names = ["a", "b", "c", "d"];
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let s = format!("/{}/{}/{}", names[i], names[j], names[k]);
                    t.insert(xpe(&s), (i, j, k));
                }
            }
            t.insert(xpe(&format!("/{}/*", names[i])), (i, 9, 9));
        }
        t.insert(xpe("/*"), (9, 9, 9));
        assert_eq!(t.root_count(), 1);
        assert_eq!(t.len(), 4 * 4 * 4 + 4 + 1);
        t.check_invariants().unwrap();
    }
}
