//! Routing tables (§2.1, Figure 1).
//!
//! Advertisement-based routing maintains two tables at each broker:
//!
//! * the **subscription routing table** ([`Srt`]) stores
//!   ⟨advertisement, last hop⟩ tuples; a subscription is forwarded only
//!   to the last hops of advertisements it overlaps;
//! * the **publication routing table** ([`Prt`]) stores
//!   ⟨subscription, last hop⟩ tuples; a publication is forwarded to the
//!   last hops of subscriptions it matches, tracing the reverse path
//!   the subscription built.
//!
//! [`Prt`] is built on the covering [`SubscriptionTree`], which makes
//! the subscribe-time decisions (what to forward, retract and promote;
//! merging; the effective table size). It does not match publications:
//! every tree node is a token in an embedded [`PathAutomaton`], and a
//! publication is routed with one traversal of that. Brokers running the paper's `no-Cov` strategies (Tables 2
//! and 3) use [`crate::automaton::AutomatonPrt`] instead. [`FlatPrt`],
//! a linear scan, is the reference the other tables are tested
//! against. All three implement [`PublicationRouter`], the interface
//! brokers program against.

use crate::adv::Advertisement;
use crate::advnfa::{HopNfa, Names, Search};
use crate::subtree::{Insertion, NodeId, SubscriptionTree};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use xdn_xpath::automaton::PathAutomaton;
use xdn_xpath::Xpe;

/// Network-wide identifier of an advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AdvId(pub u64);

/// Network-wide identifier of a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SubId(pub u64);

impl fmt::Display for AdvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "adv{}", self.0)
    }
}

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// The subscription routing table: advertisements with the neighbour
/// they arrived from. Generic over the hop type `H` (a broker id, a
/// client handle, …).
///
/// The entries are the table (sync export, the routing signature,
/// unadvertise); matching runs on an index beside them, one automaton
/// per last hop (the `advnfa` module), searched on scratch the table
/// owns. The scratch makes the table `Send` but not `Sync`.
#[derive(Debug)]
pub struct Srt<H> {
    entries: HashMap<AdvId, (Advertisement, H)>,
    /// Element names of every hop's automaton.
    names: Names,
    /// The entries of each last hop as one automaton.
    hops: BTreeMap<H, HopNfa>,
    search: RefCell<Search>,
}

impl<H> Default for Srt<H> {
    fn default() -> Self {
        Srt {
            entries: HashMap::new(),
            names: Names::default(),
            hops: BTreeMap::new(),
            search: RefCell::default(),
        }
    }
}

impl<H: Clone> Clone for Srt<H> {
    fn clone(&self) -> Self {
        Srt {
            entries: self.entries.clone(),
            names: self.names.clone(),
            hops: self.hops.clone(),
            search: RefCell::default(),
        }
    }
}

impl<H: Clone + Ord> Srt<H> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an advertisement from `last_hop`, threading it into that
    /// hop's automaton. Replaces any previous entry for the same id
    /// (re-flooded advertisements); an unchanged one costs a lookup.
    pub fn insert(&mut self, id: AdvId, adv: Advertisement, last_hop: H) {
        if let Some(old) = self.entries.get(&id) {
            if old.0 == adv && old.1 == last_hop {
                return;
            }
        }
        self.hops
            .entry(last_hop.clone())
            .or_default()
            .thread(&adv, &mut self.names);
        if let Some((_, old_hop)) = self.entries.insert(id, (adv, last_hop)) {
            // The replaced advertisement may still be in its hop's
            // automaton.
            self.rebuild(&old_hop);
        }
    }

    /// Removes an advertisement (producer departure), rebuilding its
    /// hop's automaton from the entries left.
    pub fn remove(&mut self, id: AdvId) -> Option<(Advertisement, H)> {
        let removed = self.entries.remove(&id)?;
        self.rebuild(&removed.1);
        Some(removed)
    }

    /// Rebuilds `hop`'s automaton from its entries, in id order; drops
    /// it when none are left.
    fn rebuild(&mut self, hop: &H) {
        let mut advs: Vec<(AdvId, &Advertisement)> = self
            .entries
            .iter()
            .filter(|(_, (_, h))| h == hop)
            .map(|(&id, (adv, _))| (id, adv))
            .collect();
        if advs.is_empty() {
            self.hops.remove(hop);
            return;
        }
        advs.sort_unstable_by_key(|&(id, _)| id);
        let nfa = HopNfa::build(advs.into_iter().map(|(_, adv)| adv), &mut self.names);
        self.hops.insert(hop.clone(), nfa);
    }

    /// Number of stored advertisements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// States over all the hops' automatons.
    pub fn automaton_states(&self) -> usize {
        self.hops.values().map(HopNfa::states).sum()
    }

    /// The last hops whose advertisements overlap `sub` — where the
    /// subscription must be forwarded. Deduplicated. Exact for every
    /// advertisement and subscription shape and length: one search of
    /// each hop's automaton, ended by the first placement of `sub`'s
    /// last step.
    pub fn match_sub(&self, sub: &Xpe) -> BTreeSet<H> {
        match self.search.try_borrow_mut() {
            Ok(mut search) => self.match_on(&mut search, sub),
            // Only a re-entrant call can find the scratch taken; it
            // searches on scratch of its own.
            Err(_) => self.match_on(&mut Search::default(), sub),
        }
    }

    fn match_on(&self, search: &mut Search, sub: &Xpe) -> BTreeSet<H> {
        search.resolve(sub, &self.names);
        self.hops
            .iter()
            .filter(|(_, nfa)| nfa.reaches(search))
            .map(|(hop, _)| hop.clone())
            .collect()
    }

    /// Iterates over the stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (AdvId, &Advertisement, &H)> {
        self.entries.iter().map(|(&id, (adv, hop))| (id, adv, hop))
    }
}

/// The publication routing table abstraction: everything a broker needs
/// from its PRT, independent of the matching strategy behind it.
///
/// Implemented by the covering [`Prt`], the shared-automaton
/// [`crate::automaton::AutomatonPrt`], and the linear-scan [`FlatPrt`];
/// brokers and the benches program against
/// `Box<dyn PublicationRouter<H>>` and stop branching on strategy
/// internals. The trait is dyn-compatible:
/// the match visitor is a `&mut dyn FnMut`, and paths arrive as
/// concrete `&[String]`.
pub trait PublicationRouter<H: Clone + Ord>: fmt::Debug {
    /// Registers a subscription from `last_hop` and reports what the
    /// broker owes the wire (forwarding, retractions, owed directions).
    fn insert(&mut self, id: SubId, xpe: Xpe, last_hop: H) -> SubscribeOutcome<H>;

    /// Removes a subscription; reports forwarding, promotions and the
    /// subscriptions left under its expression.
    fn remove(&mut self, id: SubId) -> UnsubscribeOutcome<H>;

    /// Calls `f` with every ⟨subscription, last hop⟩ whose expression
    /// matches `path` (with per-element `attrs`). Hops repeat if
    /// several matching subscriptions share one; dedup with
    /// [`Self::matching_hops`] when only directions are needed.
    fn for_each_matching_with_attrs(
        &self,
        path: &[String],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(SubId, &H),
    );

    /// Number of stored subscriptions (distinct expressions for the
    /// covering table).
    fn len(&self) -> usize;

    /// True if no subscriptions are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The expression registered under `id`, if present.
    fn xpe_of(&self, id: SubId) -> Option<&Xpe>;

    /// The last hops of `id` and of every subscription stored with it
    /// under one expression: the directions that expression is never
    /// forwarded toward. Empty for unknown ids and mergers.
    fn hops_of(&self, id: SubId) -> Vec<H>;

    /// The forwarded subscriptions: a representative id, the
    /// expression, and the last hops each was received from.
    fn forwarded_subs(&self) -> Vec<(SubId, Xpe, Vec<H>)>;

    /// What live forwarding installs at `hop`, before advertisement
    /// scoping: for each stored expression that is top-level, or whose
    /// covering root arrived from `hop` (the direction the coverer was
    /// never sent), one id that did not arrive from `hop`. Re-sync
    /// exports those the broker has no record of sending there, and a
    /// new advertisement from `hop` re-evaluates them.
    /// Without covering every subscription is top-level: the forwarded
    /// ones not received from `hop`.
    fn owed_to(&self, hop: &H) -> Vec<(SubId, Xpe)> {
        self.forwarded_subs()
            .into_iter()
            .filter(|(_, _, hops)| hops.iter().all(|h| h != hop))
            .map(|(id, xpe, _)| (id, xpe))
            .collect()
    }

    /// The effective routing table size after covering (Figures 6/7);
    /// equals [`Self::len`] for non-covering tables.
    fn effective_size(&self) -> usize {
        self.len()
    }

    /// The deduplicated last hops owed a publication on `path` — the
    /// broker's forwarding set.
    fn matching_hops(&self, path: &[String], attrs: &[Vec<(String, String)>]) -> BTreeSet<H> {
        let mut out = BTreeSet::new();
        self.for_each_matching_with_attrs(path, attrs, &mut |_, h| {
            out.insert(h.clone());
        });
        out
    }

    /// Runs the merging engine (§4.3) up to imperfect degree
    /// `max_degree` if the strategy supports it. Non-covering tables
    /// have nothing to merge and return no applications.
    fn apply_merging(
        &mut self,
        _universe: &[Vec<String>],
        _max_degree: f64,
        _next_id: &mut dyn FnMut() -> SubId,
    ) -> Vec<MergeApplication> {
        Vec::new()
    }

    /// Shared-automaton metrics (state count, transitions, rebuild
    /// timings); `None` unless the table matches with
    /// [`crate::automaton::AutomatonPrt`].
    fn automaton_stats(&self) -> Option<crate::automaton::AutomatonStats> {
        None
    }
}

/// Result of a [`PublicationRouter::insert`] call, telling the broker
/// what to do on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeOutcome<H = ()> {
    /// Forward this subscription to matching neighbours (it is not
    /// covered by anything already forwarded).
    pub forward: bool,
    /// Previously forwarded subscriptions now covered by the new one:
    /// send unsubscriptions for them (covering-based routing, §4.1).
    pub retract: Vec<SubId>,
    /// When covered (`forward == false`): the last hops of the
    /// *top-level* covering subscription. Suppression is only valid
    /// toward neighbours the coverer was itself sent to — it was sent
    /// everywhere **except** its own last hops — so the broker must
    /// still forward this subscription toward any of these hops that
    /// are routing targets. Empty for synthetic mergers (which were
    /// forwarded everywhere on creation).
    pub covered_root_hops: Vec<H>,
}

/// Result of a [`PublicationRouter::remove`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsubscribeOutcome<H = ()> {
    /// Forward the unsubscription (the subscription had been forwarded).
    pub forward: bool,
    /// Subscriptions uncovered by the removal that must now be
    /// (re-)forwarded.
    pub promote: Vec<SubId>,
    /// The subscriptions still stored under the removed expression,
    /// with their last hops: wherever the expression was installed
    /// under the removed id, one of them may still need it. Empty when
    /// the expression left the table.
    pub remaining: Vec<(SubId, H)>,
}

impl<H> UnsubscribeOutcome<H> {
    /// The outcome of removing an id the table does not hold.
    pub(crate) fn unknown() -> Self {
        UnsubscribeOutcome {
            forward: false,
            promote: Vec::new(),
            remaining: Vec::new(),
        }
    }
}

/// The covering publication routing table: a [`SubscriptionTree`] whose
/// payloads are the ⟨subscription id, last hop⟩ pairs sharing an
/// expression, indexed for matching by a [`PathAutomaton`].
#[derive(Debug)]
pub struct Prt<H> {
    tree: SubscriptionTree<Vec<(SubId, H)>>,
    /// Every tree node, keyed by [`token`]. A merger's empty payload
    /// adds no hop, so registering it does not change matching.
    nfa: PathAutomaton,
    by_sub: HashMap<SubId, NodeId>,
    /// Synthetic merger subscriptions (empty payload) by node.
    synthetic: HashMap<NodeId, SubId>,
}

impl<H> Default for Prt<H> {
    fn default() -> Self {
        Prt {
            tree: SubscriptionTree::new(),
            nfa: PathAutomaton::new(),
            by_sub: HashMap::new(),
            synthetic: HashMap::new(),
        }
    }
}

/// The automaton token of a tree node.
fn token(node: NodeId) -> u64 {
    u64::from(node.0)
}

/// The tree node an automaton token stands for.
fn node_of(token: u64) -> Option<NodeId> {
    u32::try_from(token).ok().map(NodeId)
}

/// One merger produced by [`Prt::apply_merging`], with the control
/// traffic it implies: subscribe `xpe` under `merger_id` upstream and
/// retract the absorbed subscriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeApplication {
    /// Fresh id under which the merger is forwarded.
    pub merger_id: SubId,
    /// The merger expression.
    pub xpe: Xpe,
    /// Previously forwarded subscription ids the merger replaces.
    pub retract: Vec<SubId>,
}

impl<H: Clone + Ord> Prt<H> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The top-level ancestor of `node` (itself when top-level).
    fn root_of(&self, mut node: NodeId) -> NodeId {
        while let Some(p) = self.tree.parent(node) {
            node = p;
        }
        node
    }

    /// The unique last hops of `node`'s top-level ancestor, excluding
    /// `arriving` (the coverer was never forwarded toward its own
    /// origins, so a covered subscription still owes those directions).
    fn root_hops_of(&self, node: NodeId, arriving: &H) -> Vec<H> {
        let root = self.root_of(node);
        if self.synthetic.contains_key(&root) {
            // Mergers are created locally and forwarded to every
            // routing target; nothing is owed.
            return Vec::new();
        }
        let mut hops: Vec<H> = self
            .tree
            .payload(root)
            .iter()
            .map(|(_, h)| h.clone())
            .collect();
        hops.sort();
        hops.dedup();
        hops.retain(|h| h != arriving);
        hops
    }

    /// The expression registered under `id`, if present.
    pub fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        self.by_sub.get(&id).map(|&n| self.tree.xpe(n))
    }

    /// The node storing an expression equal to `xpe`. Equal
    /// expressions end at the same automaton state, so its tokens are
    /// the candidates.
    fn node_with(&self, xpe: &Xpe) -> Option<NodeId> {
        self.nfa
            .tokens_at(xpe)
            .iter()
            .filter_map(|&t| node_of(t))
            .find(|&n| self.tree.get(n).is_some_and(|(x, _)| x == xpe))
    }

    /// Number of distinct expressions stored (tree nodes).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if no subscriptions are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The effective (top-level) routing table size after covering —
    /// the metric of Figures 6 and 7.
    pub fn effective_size(&self) -> usize {
        self.tree.root_count()
    }

    /// Runs the merging engine (§4.3) over the table, admitting
    /// mergers up to imperfect degree `max_degree` (`0.0`: perfect
    /// only), and returns, for each merger created, the subscription
    /// to issue upstream and the absorbed subscriptions to retract.
    /// `next_id` supplies fresh ids for the synthetic merger
    /// subscriptions.
    pub fn apply_merging<S: AsRef<str>>(
        &mut self,
        universe: &[Vec<S>],
        max_degree: f64,
        mut next_id: impl FnMut() -> SubId,
    ) -> Vec<MergeApplication> {
        let report = crate::merge::merge_tree(&mut self.tree, universe, max_degree);
        let mut out = Vec::new();
        for (node, demoted) in report.mergers {
            let merger_id = next_id();
            self.by_sub.insert(merger_id, node);
            self.synthetic.insert(node, merger_id);
            self.nfa.insert(token(node), self.tree.xpe(node));
            let mut retract = Vec::new();
            for d in demoted {
                retract.extend(self.tree.payload(d).iter().map(|(s, _)| *s));
                if let Some(&syn) = self.synthetic.get(&d) {
                    retract.push(syn);
                }
            }
            out.push(MergeApplication {
                merger_id,
                xpe: self.tree.xpe(node).clone(),
                retract,
            });
        }
        out
    }

    /// Shared access to the underlying tree.
    pub fn tree(&self) -> &SubscriptionTree<Vec<(SubId, H)>> {
        &self.tree
    }
}

impl<H: Clone + Ord + fmt::Debug> PublicationRouter<H> for Prt<H> {
    /// Equal expressions share a tree node (their hops are unioned); a
    /// covered expression is stored but not forwarded; a covering
    /// expression demotes the top-level expressions it covers, which
    /// are reported in [`SubscribeOutcome::retract`].
    fn insert(&mut self, id: SubId, xpe: Xpe, last_hop: H) -> SubscribeOutcome<H> {
        if let Some(node) = self.node_with(&xpe) {
            // Re-forwarded subscriptions (advertisement re-evaluation)
            // are idempotent.
            let payload = self.tree.payload_mut(node);
            if !payload.contains(&(id, last_hop.clone())) {
                payload.push((id, last_hop.clone()));
            }
            self.by_sub.insert(id, node);
            // An equal expression was already handled upstream except
            // toward the hops it arrived from (including this one, if
            // it differs).
            return SubscribeOutcome {
                forward: false,
                retract: Vec::new(),
                covered_root_hops: self.root_hops_of(node, &last_hop),
            };
        }
        let insertion = self.tree.insert(xpe, vec![(id, last_hop.clone())]);
        let node = insertion.id();
        self.nfa.insert(token(node), self.tree.xpe(node));
        self.by_sub.insert(id, node);
        match insertion {
            Insertion::CoveredBy { .. } => SubscribeOutcome {
                forward: false,
                retract: Vec::new(),
                covered_root_hops: self.root_hops_of(node, &last_hop),
            },
            Insertion::NewTop { demoted, .. } => SubscribeOutcome {
                forward: true,
                retract: demoted
                    .iter()
                    .flat_map(|&d| self.tree.payload(d).iter().map(|(s, _)| *s))
                    .collect(),
                covered_root_hops: Vec::new(),
            },
        }
    }

    /// When the last subscriber of an expression leaves, the node is
    /// dropped and any children it was covering are promoted — those
    /// must be re-forwarded upstream. Unknown ids are ignored
    /// (duplicate unsubscriptions are routine in a network that
    /// retracts covered subscriptions).
    fn remove(&mut self, id: SubId) -> UnsubscribeOutcome<H> {
        let Some(node) = self.by_sub.remove(&id) else {
            return UnsubscribeOutcome::unknown();
        };
        let subs = self.tree.payload_mut(node);
        subs.retain(|(s, _)| *s != id);
        if !subs.is_empty() {
            return UnsubscribeOutcome {
                forward: false,
                promote: Vec::new(),
                remaining: subs.clone(),
            };
        }
        let was_top = self.tree.parent(node).is_none();
        if let Some(merger_id) = self.synthetic.remove(&node) {
            // A merger a subscriber had joined goes with its node.
            self.by_sub.remove(&merger_id);
        }
        let (_, promoted) = self.tree.remove(node);
        self.nfa.remove(token(node));
        if self.nfa.needs_compaction() {
            let tree = &self.tree;
            self.nfa
                .compact(|t| node_of(t).and_then(|n| tree.get(n)).map(|(xpe, _)| xpe));
        }
        UnsubscribeOutcome {
            forward: was_top,
            promote: promoted
                .iter()
                .flat_map(|&p| {
                    self.tree
                        .payload(p)
                        .iter()
                        .map(|(s, _)| *s)
                        .chain(self.synthetic.get(&p).copied())
                })
                .collect(),
            remaining: Vec::new(),
        }
    }

    fn for_each_matching_with_attrs(
        &self,
        path: &[String],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(SubId, &H),
    ) {
        self.nfa.for_each_match(path, attrs, &mut |t| {
            if let Some((_, subs)) = node_of(t).and_then(|n| self.tree.get(n)) {
                for (id, hop) in subs {
                    f(*id, hop);
                }
            }
        });
    }

    fn len(&self) -> usize {
        Prt::len(self)
    }

    fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        Prt::xpe_of(self, id)
    }

    fn hops_of(&self, id: SubId) -> Vec<H> {
        let Some(&node) = self.by_sub.get(&id) else {
            return Vec::new();
        };
        let mut hops: Vec<H> = self
            .tree
            .payload(node)
            .iter()
            .map(|(_, h)| h.clone())
            .collect();
        hops.sort();
        hops.dedup();
        hops
    }

    /// Each top-level tree node yields a representative id (the
    /// synthetic merger's, or the first subscriber's) with the hops the
    /// expression was received from.
    fn forwarded_subs(&self) -> Vec<(SubId, Xpe, Vec<H>)> {
        self.tree
            .roots()
            .iter()
            .filter_map(|&n| {
                let payload = self.tree.payload(n);
                let id = self
                    .synthetic
                    .get(&n)
                    .copied()
                    .or_else(|| payload.first().map(|(s, _)| *s))?;
                let hops = payload.iter().map(|(_, h)| h.clone()).collect();
                Some((id, self.tree.xpe(n).clone(), hops))
            })
            .collect()
    }

    /// Walks down from the roots: a top-level merger was sent
    /// everywhere under its own id, and what a merger covers owes
    /// nothing.
    fn owed_to(&self, hop: &H) -> Vec<(SubId, Xpe)> {
        let not_from = |node: NodeId| {
            let subs = self.tree.payload(node);
            subs.iter().find(|(_, h)| h != hop).map(|(s, _)| *s)
        };
        let mut owed = Vec::new();
        for &root in self.tree.roots() {
            let merger = self.synthetic.get(&root).copied();
            if let Some(id) = merger.or_else(|| not_from(root)) {
                owed.push((id, self.tree.xpe(root).clone()));
            }
            if merger.is_some() || self.tree.payload(root).iter().all(|(_, h)| h != hop) {
                continue;
            }
            let mut below = self.tree.children(root).to_vec();
            while let Some(node) = below.pop() {
                if let Some(id) = not_from(node) {
                    owed.push((id, self.tree.xpe(node).clone()));
                }
                below.extend_from_slice(self.tree.children(node));
            }
        }
        owed
    }

    fn effective_size(&self) -> usize {
        Prt::effective_size(self)
    }

    fn apply_merging(
        &mut self,
        universe: &[Vec<String>],
        max_degree: f64,
        next_id: &mut dyn FnMut() -> SubId,
    ) -> Vec<MergeApplication> {
        Prt::apply_merging(self, universe, max_degree, next_id)
    }
}

/// The non-covering reference table: a flat list of subscriptions, each
/// matched independently. Brokers do not use it; it is the oracle the
/// covering and automaton tables are tested and benchmarked against.
#[derive(Debug, Clone)]
pub struct FlatPrt<H> {
    entries: HashMap<SubId, (Xpe, H)>,
}

impl<H> Default for FlatPrt<H> {
    fn default() -> Self {
        FlatPrt {
            entries: HashMap::new(),
        }
    }
}

impl<H: Clone + Ord> FlatPrt<H> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The expression registered under `id`, if present.
    pub fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        self.entries.get(&id).map(|(xpe, _)| xpe)
    }

    /// Number of stored subscriptions — also the effective routing
    /// table size, since nothing is elided.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no subscriptions are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<H: Clone + Ord + fmt::Debug> PublicationRouter<H> for FlatPrt<H> {
    /// Always forwarded (no covering).
    fn insert(&mut self, id: SubId, xpe: Xpe, last_hop: H) -> SubscribeOutcome<H> {
        self.entries.insert(id, (xpe, last_hop));
        SubscribeOutcome {
            forward: true,
            retract: Vec::new(),
            covered_root_hops: Vec::new(),
        }
    }

    fn remove(&mut self, id: SubId) -> UnsubscribeOutcome<H> {
        UnsubscribeOutcome {
            forward: self.entries.remove(&id).is_some(),
            ..UnsubscribeOutcome::unknown()
        }
    }

    fn for_each_matching_with_attrs(
        &self,
        path: &[String],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(SubId, &H),
    ) {
        for (&id, (xpe, hop)) in &self.entries {
            if xdn_xpath::matching::matches_path_with_attrs(xpe, path, attrs) {
                f(id, hop);
            }
        }
    }

    fn len(&self) -> usize {
        FlatPrt::len(self)
    }

    fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        FlatPrt::xpe_of(self, id)
    }

    fn hops_of(&self, id: SubId) -> Vec<H> {
        self.entries
            .get(&id)
            .map(|(_, h)| h.clone())
            .into_iter()
            .collect()
    }

    /// Every stored subscription with its last hop (all are forwarded
    /// in the flat scheme).
    fn forwarded_subs(&self) -> Vec<(SubId, Xpe, Vec<H>)> {
        self.entries
            .iter()
            .map(|(&id, (xpe, h))| (id, xpe.clone(), vec![h.clone()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::AdvPath;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn adv(names: &[&str]) -> Advertisement {
        Advertisement::non_recursive(AdvPath::from_names(names))
    }

    fn path(p: &[&str]) -> Vec<String> {
        p.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn srt_matches_overlapping_advertisements() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), adv(&["quotes", "nyse", "price"]), "west");
        srt.insert(AdvId(2), adv(&["news", "sports", "story"]), "east");
        let hops = srt.match_sub(&xpe("/quotes/*/price"));
        assert_eq!(hops.into_iter().collect::<Vec<_>>(), vec!["west"]);
        let both = srt.match_sub(&xpe("//price"));
        assert_eq!(both.len(), 1);
        assert_eq!(srt.len(), 2);
    }

    #[test]
    fn srt_dedups_hops() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), adv(&["a", "b"]), "n1");
        srt.insert(AdvId(2), adv(&["a", "c"]), "n1");
        assert_eq!(srt.match_sub(&xpe("/a")).len(), 1);
    }

    #[test]
    fn srt_places_descendant_gaps_across_many_repetitions() {
        // Each `//f/b` crosses one iteration of the body, so the
        // witness path repeats it five times: more than a length cap
        // of `min_len + k + period + 1` positions admits.
        let adv = Advertisement::parse("/a(/b/c/d/e/f)+/g").unwrap();
        let sub = xpe("/a//f/b//f/b//f/b//f/b//f");
        let mut witness = vec!["a"];
        for _ in 0..5 {
            witness.extend(["b", "c", "d", "e", "f"]);
        }
        witness.push("g");
        assert!(adv.matches_path(&witness) && sub.matches_path(&witness));
        let mut srt = Srt::new();
        srt.insert(AdvId(1), adv, "n1");
        assert_eq!(srt.match_sub(&sub).len(), 1);
        // After `f` comes `b` or `g`, never `c`.
        assert!(srt.match_sub(&xpe("/a//f/c")).is_empty());
    }

    #[test]
    fn srt_moving_an_advertisement_rebuilds_the_hop_it_left() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), Advertisement::parse("/a(/b)+").unwrap(), "n1");
        srt.insert(AdvId(2), adv(&["x"]), "n1");
        assert_eq!(srt.match_sub(&xpe("/a/b/b")).len(), 1);
        srt.insert(AdvId(1), Advertisement::parse("/a(/b)+").unwrap(), "n2");
        let hops: Vec<_> = srt.match_sub(&xpe("/a/b/b")).into_iter().collect();
        assert_eq!(hops, ["n2"]);
        srt.remove(AdvId(1));
        assert!(srt.match_sub(&xpe("a")).is_empty());
        assert_eq!(srt.match_sub(&xpe("//x")).len(), 1);
    }

    #[test]
    fn srt_remove() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), adv(&["a"]), "n1");
        assert!(srt.remove(AdvId(1)).is_some());
        assert!(srt.remove(AdvId(1)).is_none());
        assert!(srt.is_empty());
    }

    #[test]
    fn prt_forwarding_and_covering() {
        let mut prt = Prt::new();
        let wide = prt.insert(SubId(1), xpe("/a/*"), "hopA");
        assert!(wide.forward);
        let narrow = prt.insert(SubId(2), xpe("/a/b"), "hopB");
        assert!(!narrow.forward, "covered by /a/*");
        assert_eq!(prt.effective_size(), 1);
        assert_eq!(prt.len(), 2);
    }

    #[test]
    fn prt_retracts_on_takeover() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/b"), "h1");
        prt.insert(SubId(2), xpe("/a/c"), "h2");
        let top = prt.insert(SubId(3), xpe("/a/*"), "h3");
        assert!(top.forward);
        let mut retract = top.retract;
        retract.sort();
        assert_eq!(retract, vec![SubId(1), SubId(2)]);
    }

    #[test]
    fn prt_equal_xpes_share_node() {
        let mut prt = Prt::new();
        let first = prt.insert(SubId(1), xpe("/a/b"), "h1");
        assert!(first.forward);
        let second = prt.insert(SubId(2), xpe("/a/b"), "h2");
        assert!(!second.forward);
        assert_eq!(prt.len(), 1);
        let hops = prt.matching_hops(&path(&["a", "b"]), &[]);
        assert_eq!(hops.len(), 2);
    }

    #[test]
    fn prt_routing_collects_all_matching_hops() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/*"), "h1");
        prt.insert(SubId(2), xpe("/a/b"), "h2");
        prt.insert(SubId(3), xpe("/x"), "h3");
        let hops = prt.matching_hops(&path(&["a", "b"]), &[]);
        assert_eq!(hops.into_iter().collect::<Vec<_>>(), vec!["h1", "h2"]);
    }

    #[test]
    fn prt_unsubscribe_promotes() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/*"), "h1");
        prt.insert(SubId(2), xpe("/a/b"), "h2");
        let out = prt.remove(SubId(1));
        assert!(out.forward, "the wide subscription had been forwarded");
        assert_eq!(out.promote, vec![SubId(2)], "/a/b is now uncovered");
        assert_eq!(prt.effective_size(), 1);
    }

    #[test]
    fn prt_unsubscribe_shared_node_keeps_entry() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/b"), "h1");
        prt.insert(SubId(2), xpe("/a/b"), "h2");
        let out = prt.remove(SubId(1));
        assert!(
            !out.forward,
            "another subscriber still needs the expression"
        );
        assert_eq!(prt.matching_hops(&path(&["a", "b"]), &[]).len(), 1);
    }

    #[test]
    fn prt_subscriber_joins_merger_then_leaves() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/b"), "h1");
        prt.insert(SubId(2), xpe("/a/c"), "h2");
        let universe = [path(&["a", "b"]), path(&["a", "c"])];
        let applied = prt.apply_merging(&universe, 0.0, || SubId(100));
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].xpe, xpe("/a/*"));
        let hops = |prt: &Prt<&'static str>, p: &[&str]| -> Vec<&'static str> {
            prt.matching_hops(&path(p), &[]).into_iter().collect()
        };
        // The merger alone adds no hop.
        assert!(hops(&prt, &["a", "d"]).is_empty());
        assert_eq!(hops(&prt, &["a", "b"]), ["h1"]);

        // An equal subscription joins the merger's node and is matched.
        let joined = prt.insert(SubId(3), xpe("/a/*"), "h3");
        assert!(!joined.forward, "the merger was already forwarded");
        assert!(joined.covered_root_hops.is_empty(), "mergers owe nothing");
        assert_eq!(prt.len(), 3, "no new node");
        assert_eq!(hops(&prt, &["a", "d"]), ["h3"]);
        assert_eq!(hops(&prt, &["a", "b"]), ["h1", "h3"]);

        // Its leaving drops the merger and uncovers what it absorbed.
        let left = prt.remove(SubId(3));
        assert!(left.forward);
        let mut promoted = left.promote;
        promoted.sort();
        assert_eq!(promoted, [SubId(1), SubId(2)]);
        assert!(hops(&prt, &["a", "d"]).is_empty());
        assert_eq!(hops(&prt, &["a", "b"]), ["h1"]);
        assert_eq!(prt.xpe_of(SubId(100)), None, "the merger id went too");
        assert_eq!(prt.len(), 2);
        prt.tree().check_invariants().unwrap();
    }

    #[test]
    fn prt_compacts_its_automaton_under_churn() {
        let mut prt = Prt::new();
        for i in 0..200u64 {
            prt.insert(SubId(i), xpe(&format!("/a/b{i}/c/d")), i);
        }
        for i in 0..180u64 {
            prt.remove(SubId(i));
        }
        for i in 180..200u64 {
            let p = path(&["a", &format!("b{i}"), "c", "d"]);
            assert_eq!(
                prt.matching_hops(&p, &[]).into_iter().collect::<Vec<_>>(),
                [i]
            );
        }
        assert!(prt
            .matching_hops(&path(&["a", "b0", "c", "d"]), &[])
            .is_empty());
        // Freed tree slots are reused under new tokens.
        prt.insert(SubId(500), xpe("/x"), 500);
        assert_eq!(prt.matching_hops(&path(&["x"]), &[]).len(), 1);
    }

    #[test]
    fn prt_unknown_unsubscribe_is_noop() {
        let mut prt = Prt::<&str>::new();
        let out = prt.remove(SubId(42));
        assert!(!out.forward && out.promote.is_empty());
    }

    #[test]
    fn flat_prt_always_forwards() {
        let mut flat = FlatPrt::new();
        assert!(flat.insert(SubId(1), xpe("/a/*"), "h1").forward);
        assert!(flat.insert(SubId(2), xpe("/a/b"), "h2").forward);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.matching_hops(&path(&["a", "b"]), &[]).len(), 2);
        assert!(flat.remove(SubId(1)).forward);
        assert!(!flat.remove(SubId(1)).forward);
    }

    #[test]
    fn flat_and_covering_route_identically() {
        let subs = ["/a/*", "/a/b", "a//c", "/x/y", "//b"];
        let mut prt = Prt::new();
        let mut flat = FlatPrt::new();
        for (i, s) in subs.iter().enumerate() {
            prt.insert(SubId(i as u64), xpe(s), i);
            flat.insert(SubId(i as u64), xpe(s), i);
        }
        let paths: [&[&str]; 4] = [&["a", "b"], &["a", "q", "c"], &["x", "y"], &["z", "b", "c"]];
        for p in paths {
            let p = path(p);
            assert_eq!(
                prt.matching_hops(&p, &[]),
                flat.matching_hops(&p, &[]),
                "divergence on {p:?}"
            );
        }
    }
}
