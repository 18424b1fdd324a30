//! One automaton per last hop: the index behind
//! [`crate::rtable::Srt::match_sub`].
//!
//! An advertisement is a regular language over element positions: a
//! run of name or `*` positions, with `(…)+` repeating a nested run.
//! The advertisements that arrived from one neighbour therefore merge
//! into one NFA, and a subscription overlaps *some* advertisement of
//! that hop iff its steps can be placed on a path through the NFA
//! (§3.2–3.3's overlap, decided without expanding any repetition).
//!
//! # Construction
//!
//! * **A trie of position edges.** Each advertisement is threaded from
//!   the root; a name position is an edge labelled with the interned
//!   name, a `*` position a wildcard edge. Advertisements with a common
//!   prefix share its states.
//! * **A repetition is a private sub-automaton.** Hung off the trie
//!   state `t` it follows, `(body)+` is an ε-edge from `t` to a fresh
//!   start state, the body built as a chain from there (nested
//!   repetitions recursively, for embedded recursion), and an ε back
//!   edge from the body's end to its start. The end state is the exit:
//!   the advertisement's remaining segments continue from it as trie
//!   edges. Advertisements that reach `t` and repeat an equal body
//!   share the sub-automaton and its exit, since the language up to
//!   the exit is the same; the fresh start keeps the back edge from
//!   feeding `t`'s other continuations.
//!
//! Every state lies on the path of some stored advertisement, so every
//! state can reach a complete advertised path: a subscription overlaps
//! as soon as its last step is placed. Insertion threads into the
//! existing automaton; removal rebuilds the hop's automaton from the
//! entries left (unadvertisements are rare).
//!
//! # Search
//!
//! The search runs over (XPE step, state) pairs, one layer per step:
//! layer `i` holds the states from which step `i` may take the next
//! position. A `/` step takes an edge whose label overlaps its test
//! ([`xdn_xpath::NodeTest::overlaps`]; predicates are ignored, as in
//! every overlap rule). A `//` step, and a relative or `//`-headed
//! first step, may first skip any number of positions, so its layer is
//! closed under every edge. ε-edges consume nothing and close every
//! layer. Placing the last step ends the search. Marks are stamps in
//! two state-indexed arrays (this layer's closure, the next layer's
//! frontier) that the table owns and only grows, so a search neither
//! allocates nor clears nor hashes, and its memory does not depend on
//! the subscription's length.

use crate::adv::{AdvSegment, Advertisement};
use std::collections::HashMap;
use xdn_xpath::{Axis, NodeTest, Xpe};

/// Dense state id.
type StateId = u32;

/// An interned element name, or one of the reserved labels below.
type Label = u32;

/// The label of a `*` position (and of a `*` step).
const WILDCARD: Label = u32::MAX;

/// The label of an ε-edge: consumes no position.
const EPSILON: Label = u32::MAX - 1;

/// The label of a step naming an element no advertisement names: it
/// overlaps only wildcard positions.
const UNNAMED: Label = u32::MAX - 2;

/// Every hop's automaton starts here.
const ROOT: StateId = 0;

/// Element names interned for every hop of one table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names(HashMap<String, Label>);

impl Names {
    /// The label of an advertisement position, interning its name.
    fn intern(&mut self, test: &NodeTest) -> Label {
        match test {
            NodeTest::Wildcard => WILDCARD,
            NodeTest::Name(n) => match self.0.get(n) {
                Some(&l) => l,
                None => {
                    let l = Label::try_from(self.0.len()).unwrap_or(UNNAMED - 1);
                    self.0.insert(n.clone(), l);
                    l
                }
            },
        }
    }

    /// The label a subscription step's test compares against.
    fn resolve(&self, test: &NodeTest) -> Label {
        match test {
            NodeTest::Wildcard => WILDCARD,
            NodeTest::Name(n) => self.0.get(n).copied().unwrap_or(UNNAMED),
        }
    }
}

/// True if a step labelled `step` may take a position labelled `edge`.
fn overlaps(step: Label, edge: Label) -> bool {
    step == edge || step == WILDCARD || edge == WILDCARD
}

/// The advertisements of one last hop as one NFA. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct HopNfa {
    /// Outgoing `(label, target)` edges per state.
    edges: Vec<Vec<(Label, StateId)>>,
    /// Repetitions hung off each trie state: the body and its exit.
    repeats: HashMap<StateId, Vec<(Vec<AdvSegment>, StateId)>>,
}

impl Default for HopNfa {
    fn default() -> Self {
        HopNfa {
            edges: vec![Vec::new()],
            repeats: HashMap::new(),
        }
    }
}

impl HopNfa {
    /// The automaton of `advs`, threaded in the given order.
    pub(crate) fn build<'a>(
        advs: impl IntoIterator<Item = &'a Advertisement>,
        names: &mut Names,
    ) -> Self {
        let mut nfa = HopNfa::default();
        for adv in advs {
            nfa.thread(adv, names);
        }
        nfa
    }

    /// Number of states.
    pub(crate) fn states(&self) -> usize {
        self.edges.len()
    }

    fn add_state(&mut self) -> StateId {
        self.edges.push(Vec::new());
        StateId::try_from(self.edges.len() - 1).unwrap_or(StateId::MAX)
    }

    fn add_edge(&mut self, from: StateId, label: Label, to: StateId) {
        if let Some(out) = self.edges.get_mut(from as usize) {
            out.push((label, to));
        }
    }

    /// Adds `adv`'s language to the automaton, sharing the trie states
    /// and repetitions it has in common with earlier advertisements.
    pub(crate) fn thread(&mut self, adv: &Advertisement, names: &mut Names) {
        let mut at = ROOT;
        for segment in adv.segments() {
            match segment {
                AdvSegment::Plain(path) => {
                    for test in path.positions() {
                        at = self.trie_child(at, names.intern(test));
                    }
                }
                AdvSegment::Repeat(body) if segment.min_len() > 0 => {
                    at = self.trie_repeat(at, body, names);
                }
                // A body without positions repeats the empty path.
                AdvSegment::Repeat(_) => {}
            }
        }
    }

    /// The trie state under `at` along `label`, created if missing.
    /// Every position edge out of a trie state leads to a trie state.
    fn trie_child(&mut self, at: StateId, label: Label) -> StateId {
        let existing = self
            .edges
            .get(at as usize)
            .and_then(|out| out.iter().find(|&&(l, _)| l == label).map(|&(_, to)| to));
        existing.unwrap_or_else(|| {
            let to = self.add_state();
            self.add_edge(at, label, to);
            to
        })
    }

    /// The exit of the repetition of `body` hung off trie state `at`,
    /// built if missing.
    fn trie_repeat(&mut self, at: StateId, body: &[AdvSegment], names: &mut Names) -> StateId {
        let existing = self.repeats.get(&at).and_then(|hung| {
            hung.iter()
                .find(|(b, _)| b.as_slice() == body)
                .map(|&(_, exit)| exit)
        });
        existing.unwrap_or_else(|| {
            let exit = self.repeat(at, body, names);
            self.repeats
                .entry(at)
                .or_default()
                .push((body.to_vec(), exit));
            exit
        })
    }

    /// Builds `(body)+` after `at` as a private sub-automaton and
    /// returns its exit.
    fn repeat(&mut self, at: StateId, body: &[AdvSegment], names: &mut Names) -> StateId {
        let start = self.add_state();
        self.add_edge(at, EPSILON, start);
        let end = self.chain(start, body, names);
        self.add_edge(end, EPSILON, start);
        end
    }

    /// Builds `segments` as a private chain from `at` and returns its
    /// end.
    fn chain(&mut self, mut at: StateId, segments: &[AdvSegment], names: &mut Names) -> StateId {
        for segment in segments {
            match segment {
                AdvSegment::Plain(path) => {
                    for test in path.positions() {
                        let to = self.add_state();
                        self.add_edge(at, names.intern(test), to);
                        at = to;
                    }
                }
                AdvSegment::Repeat(body) if segment.min_len() > 0 => {
                    at = self.repeat(at, body, names);
                }
                AdvSegment::Repeat(_) => {}
            }
        }
        at
    }

    /// True if the resolved subscription in `search` can be placed on
    /// a path of this automaton. See the module docs.
    pub(crate) fn reaches(&self, search: &mut Search) -> bool {
        let n = self.edges.len();
        let Search {
            steps,
            marks,
            stamp,
            layer,
            next,
        } = search;
        let Some(last) = steps.len().checked_sub(1) else {
            return false;
        };
        if marks.len() < 2 * n {
            marks.resize(2 * n, 0);
        }
        // One stamp per layer; reserve them all so none wraps mid-search.
        let layers = u32::try_from(steps.len()).unwrap_or(u32::MAX);
        if *stamp > u32::MAX - layers.saturating_add(1) {
            marks.fill(0);
            *stamp = 0;
        }
        layer.clear();
        next.clear();
        // Layer `i` marks its states in half `i % 2` of `marks`.
        *stamp += 1;
        let mut cur = *stamp;
        if let Some(m) = marks.get_mut(ROOT as usize) {
            *m = cur;
        }
        layer.push(ROOT);
        for (i, &(label, skips)) in steps.iter().enumerate() {
            let here = (i % 2) * n;
            let there = n - here;
            *stamp += 1;
            let following = *stamp;
            while let Some(q) = layer.pop() {
                let Some(out) = self.edges.get(q as usize) else {
                    continue;
                };
                for &(l, to) in out {
                    let stay = if l == EPSILON {
                        true
                    } else {
                        if overlaps(label, l) {
                            if i == last {
                                return true;
                            }
                            if let Some(m) = marks.get_mut(there + to as usize) {
                                if *m != following {
                                    *m = following;
                                    next.push(to);
                                }
                            }
                        }
                        skips
                    };
                    if stay {
                        if let Some(m) = marks.get_mut(here + to as usize) {
                            if *m != cur {
                                *m = cur;
                                layer.push(to);
                            }
                        }
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            std::mem::swap(layer, next);
            cur = following;
        }
        false
    }
}

/// Search scratch a table owns: the subscription resolved against the
/// table's names, the layer marks and the two layer stacks.
#[derive(Debug, Default)]
pub(crate) struct Search {
    /// Per step: its label and whether it may skip positions first.
    steps: Vec<(Label, bool)>,
    marks: Vec<u32>,
    stamp: u32,
    layer: Vec<StateId>,
    next: Vec<StateId>,
}

impl Search {
    /// Resolves `sub`'s steps for the searches that follow.
    pub(crate) fn resolve(&mut self, sub: &Xpe, names: &Names) {
        let anchored =
            sub.is_absolute() && sub.steps().first().is_some_and(|s| s.axis == Axis::Child);
        self.steps.clear();
        self.steps
            .extend(sub.steps().iter().enumerate().map(|(i, s)| {
                let skips = if i == 0 {
                    !anchored
                } else {
                    s.axis == Axis::Descendant
                };
                (names.resolve(&s.test), skips)
            }));
    }
}
