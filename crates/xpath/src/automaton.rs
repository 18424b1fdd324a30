//! The shared path-matching automaton: every registered XPE compiled
//! into one NFA over location steps, so a publication path is matched
//! against the *whole* subscription set in a single traversal instead
//! of one evaluation per candidate expression (the YFilter idea).
//!
//! # Construction
//!
//! States form a trie over location steps, shared between expressions
//! with a common prefix:
//!
//! * a **child step** (`/x`) is an outgoing edge labelled with the
//!   interned element name (or a wildcard edge for `*`) consuming one
//!   path element;
//! * a **descendant step** (`//x`) interposes a *slash state* — a
//!   self-looping state reached by an ε-edge from its owner — before
//!   the step's edge, so the edge may fire at any later depth. The
//!   root's slash state doubles as the floating start for relative and
//!   leading-`//` expressions (both place their first fragment at any
//!   depth, so they share it);
//! * a step with **attribute predicates** gets its own edge whose label
//!   is the (node test, predicate list) pair; predicates are checked
//!   against the consumed element's attributes when the edge fires,
//!   which keeps interior predicates exact while unpredicated
//!   expressions still share the plain name/wildcard edges.
//!
//! Each expression ends at exactly one *accepting* state carrying its
//! caller-chosen `u64` token, so a traversal reports every token at
//! most once.
//!
//! The automaton is an *index*: it owns no expressions. Its owner (a
//! routing table) keeps each token's expression and hands it back when
//! [`PathAutomaton::compact`] rebuilds the trie, so no table stores a
//! second copy of its XPEs.
//!
//! # Encoding and traversal
//!
//! States are `u32` ids into one dense `Vec`; per-state name edges are
//! a sorted vec probed by binary search, promoted to a `HashMap` above
//! a fan-out threshold. A traversal builds one active-state set per
//! path position, deduplicated with generation-stamped marks.
//!
//! The paths of one document share prefixes, so the traversal keeps a
//! *run stack* (YFilter's document stack, fed by consecutive paths):
//! per consumed position the element and its attributes, the active
//! set reached and the tokens accepted there. The next path resumes at
//! the longest prefix it shares with that record, names and attributes
//! compared exactly, replays the prefix's tokens level by level and
//! matches only the positions after it — the same tokens, in the same
//! order, as a traversal from the root. Each level takes a fresh stamp
//! and an accept mark counts only while its level is live with that
//! stamp, so every token is still reported once per path. The stack
//! is scratch the automaton owns: every mutation clears it in O(1),
//! it retains at most a fixed number of levels and bytes however long
//! a path is, and it makes the automaton `Send` but not `Sync`.
//!
//! # Churn
//!
//! `insert` threads new steps through the existing trie — no rebuild.
//! `remove` detaches the token from its accepting state and *leaves the
//! structure in place* (a tombstone), charging the expression's step
//! count to a debt counter. When the debt exceeds the live step count
//! (see [`PathAutomaton::needs_compaction`]) the caller runs
//! [`PathAutomaton::compact`], which rebuilds the trie from the live
//! entries and resets the debt — amortized O(1) structural work per
//! removal, with the rebuild visible in [`NfaStats`].

use crate::ast::{Axis, NodeTest, Predicate, Xpe};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Name-edge fan-out at which a state's sorted edge vec is promoted to
/// a hash map (binary search loses to hashing around this size, and
/// high-fan-out states sit on every traversal's hot path).
const HASH_FANOUT: usize = 16;

/// Levels the run stack retains: the root's closure and one level per
/// consumed element. Positions deeper than this are matched on rolling
/// buffers and never resumed at (the paper's documents are at most 10
/// deep).
const RETAINED_LEVELS: usize = 32;

/// Bytes of element names and attributes the run stack retains (an
/// attribute costs its key and value plus one). A level that does not
/// fit ends the record, as the level cap does.
const RETAINED_TEXT: usize = 4096;

/// The attribute list of an element that carries none.
const NO_ATTRS: &[(String, String)] = &[];

/// Interned element name.
type NameId = u32;

/// Dense state id.
type StateId = u32;

/// The root state: anchored expressions start here.
const ROOT: StateId = 0;

/// Outgoing name edges of one state.
#[derive(Debug, Clone)]
enum NameEdges {
    /// Sorted by name id; probed by binary search.
    Sorted(Vec<(NameId, StateId)>),
    /// Promoted above [`HASH_FANOUT`] distinct names.
    Hashed(HashMap<NameId, StateId>),
}

impl NameEdges {
    fn lookup(&self, name: NameId) -> Option<StateId> {
        match self {
            NameEdges::Sorted(v) => v
                .binary_search_by_key(&name, |&(n, _)| n)
                .ok()
                .and_then(|i| v.get(i))
                .map(|&(_, t)| t),
            NameEdges::Hashed(m) => m.get(&name).copied(),
        }
    }

    /// Inserts the edge `name -> target` (the name must not be present)
    /// and promotes the representation past the fan-out threshold.
    fn insert(&mut self, name: NameId, target: StateId) {
        match self {
            NameEdges::Sorted(v) => {
                if let Err(i) = v.binary_search_by_key(&name, |&(n, _)| n) {
                    v.insert(i, (name, target));
                }
                if v.len() > HASH_FANOUT {
                    *self = NameEdges::Hashed(v.iter().copied().collect());
                }
            }
            NameEdges::Hashed(m) => {
                m.entry(name).or_insert(target);
            }
        }
    }
}

/// An edge whose label carries attribute predicates (and possibly a
/// wildcard test); matched by full label equality on insert so equal
/// predicated steps share structure.
#[derive(Debug, Clone)]
struct PredEdge {
    test: NodeTest,
    predicates: Vec<Predicate>,
    target: StateId,
}

/// One NFA state.
#[derive(Debug, Clone)]
struct State {
    /// Plain name-test edges (no predicates).
    names: NameEdges,
    /// Plain wildcard edge (no predicates).
    wildcard: Option<StateId>,
    /// Predicated edges, scanned linearly (rare).
    preds: Vec<PredEdge>,
    /// The slash state hanging off this one (descendant closure);
    /// activated whenever this state is.
    eps_slash: Option<StateId>,
    /// Slash states stay active once reached ("any later depth").
    self_loop: bool,
    /// Tokens of expressions ending here.
    accepts: Vec<u64>,
}

impl State {
    fn new(self_loop: bool) -> Self {
        State {
            names: NameEdges::Sorted(Vec::new()),
            wildcard: None,
            preds: Vec::new(),
            eps_slash: None,
            self_loop,
            accepts: Vec::new(),
        }
    }
}

/// One registered token: where its expression ends, and how many
/// steps it charged to the live count (the expression itself stays
/// with the owner).
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The accepting state currently holding the token.
    state: StateId,
    /// Location steps of the expression.
    steps: usize,
}

/// Counters and gauges describing one automaton, for the observability
/// scrape (the `xdn_automaton_*` families).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NfaStats {
    /// States currently allocated (including tombstoned structure
    /// awaiting compaction).
    pub states: usize,
    /// Live registered expressions.
    pub live_subs: usize,
    /// Edges traversed by all matches since creation.
    pub transitions_total: u64,
    /// Largest active-state set any single traversal reached.
    pub peak_active_states: u64,
    /// Compaction rebuilds performed.
    pub compactions_total: u64,
    /// Step debt left behind by removals since the last compaction.
    pub tombstone_steps: usize,
}

/// The shared subscription automaton. See the module docs.
///
/// ```
/// use xdn_xpath::automaton::PathAutomaton;
///
/// let mut nfa = PathAutomaton::new();
/// nfa.insert(1, &"/a/b".parse()?);
/// nfa.insert(2, &"//b".parse()?);
/// let mut hits = Vec::new();
/// nfa.for_each_match(&["a", "b"], &[], &mut |t| hits.push(t));
/// hits.sort_unstable();
/// assert_eq!(hits, [1, 2]);
/// # Ok::<(), xdn_xpath::XpeParseError>(())
/// ```
#[derive(Debug)]
pub struct PathAutomaton {
    /// Element-name intern table; unknown path elements can only take
    /// wildcard or predicated edges.
    names: HashMap<String, NameId>,
    states: Vec<State>,
    entries: HashMap<u64, Entry>,
    /// Steps of live entries (denominator of the compaction trigger).
    live_steps: usize,
    /// Steps stranded by removals (numerator of the trigger).
    tombstone_steps: usize,
    compactions: u64,
    /// The run stack and marks of the last traversal; every mutation
    /// clears it. Owning it makes the automaton `Send` but not `Sync`.
    scratch: RefCell<Scratch>,
    transitions: Cell<u64>,
    peak_active: Cell<u64>,
}

impl Default for PathAutomaton {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for PathAutomaton {
    fn clone(&self) -> Self {
        PathAutomaton {
            names: self.names.clone(),
            states: self.states.clone(),
            entries: self.entries.clone(),
            live_steps: self.live_steps,
            tombstone_steps: self.tombstone_steps,
            compactions: self.compactions,
            scratch: RefCell::default(),
            transitions: self.transitions.clone(),
            peak_active: self.peak_active.clone(),
        }
    }
}

impl PathAutomaton {
    /// Creates an empty automaton (just the root state).
    pub fn new() -> Self {
        PathAutomaton {
            names: HashMap::new(),
            states: vec![State::new(false)],
            entries: HashMap::new(),
            live_steps: 0,
            tombstone_steps: 0,
            compactions: 0,
            scratch: RefCell::default(),
            transitions: Cell::new(0),
            peak_active: Cell::new(0),
        }
    }

    /// Number of registered expressions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no expressions are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A stats snapshot for metrics export.
    pub fn stats(&self) -> NfaStats {
        NfaStats {
            states: self.states.len(),
            live_subs: self.entries.len(),
            transitions_total: self.transitions.get(),
            peak_active_states: self.peak_active.get(),
            compactions_total: self.compactions,
            tombstone_steps: self.tombstone_steps,
        }
    }

    /// Registers `xpe` under `token`, threading its steps through the
    /// shared trie (no rebuild). Re-registering a token replaces its
    /// expression.
    pub fn insert(&mut self, token: u64, xpe: &Xpe) {
        if self.entries.contains_key(&token) {
            self.remove(token);
        }
        self.scratch.get_mut().clear();
        let entry = self.thread_token(token, xpe);
        self.entries.insert(token, entry);
    }

    /// The tokens accepted where `xpe` ends, without changing the
    /// automaton. Every token registered under an expression equal to
    /// `xpe` is among them, but so may be others: relative and
    /// leading-`//` expressions share their accepting states. Callers
    /// confirm each token against their own copy of its expression.
    pub fn tokens_at(&self, xpe: &Xpe) -> &[u64] {
        self.find_state(xpe)
            .and_then(|s| self.states.get(s as usize))
            .map_or(&[], |st| st.accepts.as_slice())
    }

    /// Removes the expression registered under `token` (tombstoning its
    /// trie structure; see the module docs). Returns false for unknown
    /// tokens. Callers decide when to [`PathAutomaton::compact`] —
    /// check [`PathAutomaton::needs_compaction`] after removals.
    pub fn remove(&mut self, token: u64) -> bool {
        let Some(entry) = self.entries.remove(&token) else {
            return false;
        };
        self.scratch.get_mut().clear();
        if let Some(st) = self.states.get_mut(entry.state as usize) {
            if let Some(i) = st.accepts.iter().position(|&t| t == token) {
                st.accepts.swap_remove(i);
            }
        }
        self.live_steps = self.live_steps.saturating_sub(entry.steps);
        self.tombstone_steps += entry.steps;
        true
    }

    /// True when removal debt warrants a compaction rebuild: the
    /// stranded step count exceeds both a floor (so small tables never
    /// rebuild) and the live step count (so the trie is at most ~2x its
    /// minimal size between rebuilds).
    pub fn needs_compaction(&self) -> bool {
        self.tombstone_steps > 64 && self.tombstone_steps > self.live_steps
    }

    /// Rebuilds the trie from the live entries, discarding tombstoned
    /// structure. The owner supplies each token's expression through
    /// `lookup`; a token it no longer knows is dropped. Deterministic:
    /// entries are re-threaded in token order, so two automatons
    /// holding the same set compact to the same shape.
    pub fn compact<'x>(&mut self, lookup: impl Fn(u64) -> Option<&'x Xpe>) {
        self.scratch.get_mut().clear();
        self.compactions += 1;
        self.names.clear();
        self.states.clear();
        self.states.push(State::new(false));
        self.tombstone_steps = 0;
        self.live_steps = 0;
        let mut tokens: Vec<u64> = self.entries.drain().map(|(t, _)| t).collect();
        tokens.sort_unstable();
        for token in tokens {
            if let Some(xpe) = lookup(token) {
                let entry = self.thread_token(token, xpe);
                self.entries.insert(token, entry);
            }
        }
    }

    /// Calls `f` with the token of every registered expression matching
    /// the root-to-leaf `path` (with per-element `attrs`, aligned like
    /// [`crate::matching::matches_path_with_attrs`]) — one traversal
    /// for the whole set; each token reported at most once. The
    /// traversal resumes at the prefix `path` shares with the previous
    /// path (see the module docs).
    pub fn for_each_match<S: AsRef<str>>(
        &self,
        path: &[S],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(u64),
    ) {
        if path.is_empty() || self.entries.is_empty() {
            return;
        }
        match self.scratch.try_borrow_mut() {
            Ok(mut run) => self.traverse(&mut run, path, attrs, f),
            // A visitor matching on this automaton again: the outer
            // traversal holds the run stack, so this one starts at the
            // root on scratch of its own.
            Err(_) => self.traverse(&mut Scratch::default(), path, attrs, f),
        }
    }

    /// The traversal proper: truncates `run` to the prefix it shares
    /// with `path`, replays that prefix's tokens, then matches the
    /// remaining positions and records them for the next path.
    fn traverse<S: AsRef<str>>(
        &self,
        run: &mut Scratch,
        path: &[S],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(u64),
    ) {
        if run.busy {
            // A visitor panicked mid-traversal: the record is partial.
            run.clear();
        }
        run.busy = true;
        run.grow_marks(self.states.len());
        let shared = run.resume(path, attrs);
        for &token in &run.tokens {
            f(token);
        }
        if run.levels.is_empty() {
            // Level 0: the root's closure, before any element.
            let at = run.open_level("", NO_ATTRS);
            self.sink(run, at).activate(ROOT, f);
            run.close_level(at);
        }
        run.load_top();
        let mut transitions = 0u64;
        let mut peak = 0u64;
        for (pos, elem) in path.iter().enumerate().skip(shared) {
            if run.current.is_empty() {
                break;
            }
            let elem = elem.as_ref();
            let attrs_here = attrs.get(pos).map_or(NO_ATTRS, Vec::as_slice);
            let name_id = self.names.get(elem).copied();
            let at = run.open_level(elem, attrs_here);
            let current = std::mem::take(&mut run.current);
            let mut sink = self.sink(run, at);
            for &sid in &current {
                let Some(st) = self.states.get(sid as usize) else {
                    continue;
                };
                if st.self_loop {
                    // Stays active at the next position; its accepts
                    // (if any) were reported on first activation.
                    sink.mark(sid);
                }
                if let Some(target) = name_id.and_then(|n| st.names.lookup(n)) {
                    transitions += 1;
                    sink.activate(target, f);
                }
                if let Some(target) = st.wildcard {
                    transitions += 1;
                    sink.activate(target, f);
                }
                for pe in &st.preds {
                    if pe.test.accepts(elem) && pe.predicates.iter().all(|p| p.eval(attrs_here)) {
                        transitions += 1;
                        sink.activate(pe.target, f);
                    }
                }
            }
            run.current = current;
            run.close_level(at);
            std::mem::swap(&mut run.current, &mut run.next);
            peak = peak.max(run.current.len() as u64);
        }
        run.finish();
        self.transitions.set(self.transitions.get() + transitions);
        self.peak_active.set(self.peak_active.get().max(peak));
    }

    /// Where the level `at` opened on `run` activates states: into an
    /// emptied `run.next`.
    fn sink<'s>(&'s self, run: &'s mut Scratch, at: At) -> Sink<'s> {
        run.next.clear();
        Sink {
            states: &self.states,
            at,
            levels: &run.levels,
            state_mark: &mut run.state_mark,
            accept_mark: &mut run.accept_mark,
            set: &mut run.next,
            tokens: at.record.then_some(&mut run.tokens),
        }
    }

    /// Threads `xpe` and accepts `token` at its end state.
    fn thread_token(&mut self, token: u64, xpe: &Xpe) -> Entry {
        let state = self.thread_steps(xpe);
        if let Some(st) = self.states.get_mut(state as usize) {
            st.accepts.push(token);
        }
        self.live_steps += xpe.len();
        Entry {
            state,
            steps: xpe.len(),
        }
    }

    /// Walks (creating as needed) the chain of states for `xpe` and
    /// returns its accepting state.
    fn thread_steps(&mut self, xpe: &Xpe) -> StateId {
        // Relative and leading-`//` expressions both place their first
        // fragment at any depth: they start from the root's slash state.
        let mut cur = if anchored(xpe) {
            ROOT
        } else {
            self.slash_of(ROOT)
        };
        for (i, step) in xpe.steps().iter().enumerate() {
            if i > 0 && step.axis == Axis::Descendant {
                cur = self.slash_of(cur);
            }
            cur = self.edge_of(cur, step);
        }
        cur
    }

    /// [`Self::thread_steps`] without creating anything: the accepting
    /// state `xpe` would end at, if its whole chain exists.
    fn find_state(&self, xpe: &Xpe) -> Option<StateId> {
        let slash = |s: StateId| self.states.get(s as usize).and_then(|st| st.eps_slash);
        let mut cur = if anchored(xpe) { ROOT } else { slash(ROOT)? };
        for (i, step) in xpe.steps().iter().enumerate() {
            if i > 0 && step.axis == Axis::Descendant {
                cur = slash(cur)?;
            }
            cur = self.existing_edge(cur, step)?;
        }
        Some(cur)
    }

    /// The slash (descendant-closure) state hanging off `state`,
    /// created on first use.
    fn slash_of(&mut self, state: StateId) -> StateId {
        if let Some(s) = self.states.get(state as usize).and_then(|s| s.eps_slash) {
            return s;
        }
        let id = self.alloc(State::new(true));
        if let Some(st) = self.states.get_mut(state as usize) {
            st.eps_slash = Some(id);
        }
        id
    }

    /// The target of `state`'s edge labelled by `step`, if it exists.
    fn existing_edge(&self, state: StateId, step: &crate::ast::Step) -> Option<StateId> {
        let st = self.states.get(state as usize)?;
        if !step.predicates.is_empty() {
            return st
                .preds
                .iter()
                .find(|e| e.test == step.test && e.predicates == step.predicates)
                .map(|e| e.target);
        }
        match &step.test {
            NodeTest::Name(n) => st.names.lookup(*self.names.get(n)?),
            NodeTest::Wildcard => st.wildcard,
        }
    }

    /// The target of `state`'s edge labelled by `step`, created on
    /// first use.
    fn edge_of(&mut self, state: StateId, step: &crate::ast::Step) -> StateId {
        if let Some(t) = self.existing_edge(state, step) {
            return t;
        }
        let t = self.alloc(State::new(false));
        let name = match &step.test {
            NodeTest::Name(n) if step.predicates.is_empty() => Some(self.intern(n)),
            _ => None,
        };
        if let Some(st) = self.states.get_mut(state as usize) {
            if !step.predicates.is_empty() {
                st.preds.push(PredEdge {
                    test: step.test.clone(),
                    predicates: step.predicates.clone(),
                    target: t,
                });
            } else if let Some(name) = name {
                st.names.insert(name, t);
            } else {
                st.wildcard = Some(t);
            }
        }
        t
    }

    fn alloc(&mut self, state: State) -> StateId {
        let id = self.states.len() as StateId;
        self.states.push(state);
        id
    }

    fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = self.names.len() as NameId;
        self.names.insert(name.to_owned(), id);
        id
    }
}

/// True if `xpe` is anchored at the root state (absolute, first step on
/// the child axis); every other expression floats.
fn anchored(xpe: &Xpe) -> bool {
    xpe.is_absolute() && xpe.steps().first().is_some_and(|s| s.axis == Axis::Child)
}

/// The level a traversal is building, as [`Scratch::open_level`]
/// opened it.
#[derive(Debug, Clone, Copy)]
struct At {
    /// Fresh stamp of the set being built.
    stamp: u64,
    /// The `(level, stamp)` mark for tokens reported here: this level,
    /// or past the record, the overflow level every deeper position
    /// shares.
    accept: (u32, u64),
    /// Whether the level is recorded for the next path to resume at.
    record: bool,
}

/// Where one level's activations go: the set being built, the marks,
/// and the level's token record.
struct Sink<'s> {
    states: &'s [State],
    at: At,
    /// The live levels, telling a mark of this path from a stale one.
    levels: &'s [Level],
    state_mark: &'s mut [u64],
    accept_mark: &'s mut [(u32, u64)],
    set: &'s mut Vec<StateId>,
    /// The tokens the live levels reported, unless this level is not
    /// recorded.
    tokens: Option<&'s mut Vec<u64>>,
}

impl Sink<'_> {
    /// Adds `state` to the set unless it is there already; true if
    /// added.
    fn mark(&mut self, state: StateId) -> bool {
        match self.state_mark.get_mut(state as usize) {
            Some(m) if *m != self.at.stamp => {
                *m = self.at.stamp;
                self.set.push(state);
                true
            }
            _ => false,
        }
    }

    /// Activates `target` and its slash ε-closure, reporting accepting
    /// tokens the path has not reported yet: a state's accept mark
    /// counts only while its level is live with the same stamp.
    fn activate(&mut self, target: StateId, f: &mut dyn FnMut(u64)) {
        let mut t = target;
        loop {
            if !self.mark(t) {
                return;
            }
            let Some(st) = self.states.get(t as usize) else {
                return;
            };
            if !st.accepts.is_empty() {
                if let Some(am) = self.accept_mark.get_mut(t as usize) {
                    let (level, stamp) = *am;
                    let reported = self
                        .levels
                        .get(level as usize)
                        .is_some_and(|l| l.stamp == stamp);
                    if !reported {
                        *am = self.at.accept;
                        for &token in &st.accepts {
                            f(token);
                        }
                        if let Some(tokens) = self.tokens.as_deref_mut() {
                            tokens.extend_from_slice(&st.accepts);
                        }
                    }
                }
            }
            // ε-closure: activating a state activates its slash state.
            match st.eps_slash {
                Some(next) => t = next,
                None => return,
            }
        }
    }
}

/// One level of the run stack: the active set after some number of
/// path elements, with the element that led to it. Its text, set and
/// tokens start where the previous level's end.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// Fresh per level; marks made under it count while it is live.
    stamp: u64,
    /// Where the element name ends in [`Scratch::text`].
    name_end: usize,
    /// Where its attributes end in [`Scratch::attrs`].
    attrs_end: usize,
    /// Where its text ends: the name, then each attribute's key and
    /// value.
    text_end: usize,
    /// Where its active set ends in [`Scratch::sets`].
    sets_end: usize,
    /// Where the tokens it reported end in [`Scratch::tokens`].
    tokens_end: usize,
}

/// Traversal scratch owned by one automaton: the run stack of the last
/// path and the marks. See the module docs.
#[derive(Debug, Default)]
struct Scratch {
    /// Last stamp handed out. Never reset, so no stale mark can equal
    /// a fresh stamp, even after `compact` reuses state ids.
    generation: u64,
    /// Per state: the stamp of the last set it joined.
    state_mark: Vec<u64>,
    /// Per state: the `(level, stamp)` its tokens were last reported at.
    accept_mark: Vec<(u32, u64)>,
    /// The run stack: level `i` is the active set after `i` elements.
    /// While the path outgrows the record, the top level is the
    /// overflow level, which records nothing.
    levels: Vec<Level>,
    /// Element names and attribute keys and values, back to back.
    text: String,
    /// Per recorded attribute: where its key and its value end in
    /// `text`.
    attrs: Vec<(usize, usize)>,
    /// Active sets of the levels, back to back.
    sets: Vec<StateId>,
    /// Tokens the levels reported, back to back.
    tokens: Vec<u64>,
    /// The set being expanded and the set being built.
    current: Vec<StateId>,
    next: Vec<StateId>,
    /// The top level is the overflow level.
    overflow: bool,
    /// A traversal is under way (left set if a visitor panicked).
    busy: bool,
}

impl Scratch {
    /// Empties the run stack (O(1): every buffer holds plain data).
    fn clear(&mut self) {
        self.levels.clear();
        self.text.clear();
        self.attrs.clear();
        self.sets.clear();
        self.tokens.clear();
        self.overflow = false;
        self.busy = false;
    }

    /// Extends the marks to `states` entries; they never shrink, so a
    /// rebuilt automaton reuses them.
    fn grow_marks(&mut self, states: usize) {
        if self.state_mark.len() < states {
            self.state_mark.resize(states, 0);
            self.accept_mark.resize(states, (0, 0));
        }
    }

    /// Truncates the stack to the root level plus the longest prefix of
    /// `path` it recorded with equal names and attributes, and returns
    /// that prefix's length.
    fn resume<S: AsRef<str>>(&mut self, path: &[S], attrs: &[Vec<(String, String)>]) -> usize {
        let Some(&root) = self.levels.first() else {
            return 0;
        };
        let mut prev = root;
        let mut shared = 0;
        for (level, elem) in self.levels.iter().skip(1).zip(path) {
            let attrs_here = attrs.get(shared).map_or(NO_ATTRS, Vec::as_slice);
            if !self.recorded(&prev, level, elem.as_ref(), attrs_here) {
                break;
            }
            prev = *level;
            shared += 1;
        }
        self.levels.truncate(shared + 1);
        self.text.truncate(prev.text_end);
        self.attrs.truncate(prev.attrs_end);
        self.sets.truncate(prev.sets_end);
        self.tokens.truncate(prev.tokens_end);
        shared
    }

    /// True if `level`, recorded after `prev`, consumed `elem` carrying
    /// exactly `attrs`.
    fn recorded(
        &self,
        prev: &Level,
        level: &Level,
        elem: &str,
        attrs: &[(String, String)],
    ) -> bool {
        if self.text.get(prev.text_end..level.name_end) != Some(elem) {
            return false;
        }
        let Some(ends) = self.attrs.get(prev.attrs_end..level.attrs_end) else {
            return false;
        };
        let mut at = level.name_end;
        ends.len() == attrs.len()
            && ends
                .iter()
                .zip(attrs)
                .all(|(&(key_end, value_end), (k, v))| {
                    let same = self.text.get(at..key_end) == Some(k.as_str())
                        && self.text.get(key_end..value_end) == Some(v.as_str());
                    at = value_end;
                    same
                })
    }

    /// Opens the next level for `elem` with `attrs`, recording it if the
    /// record has room; otherwise the overflow level reports for it.
    fn open_level(&mut self, elem: &str, attrs: &[(String, String)]) -> At {
        self.generation += 1;
        let stamp = self.generation;
        if self.overflow {
            let top = self.levels.len().saturating_sub(1);
            let accept = self.levels.last().map_or(stamp, |l| l.stamp);
            return At {
                stamp,
                accept: (top as u32, accept),
                record: false,
            };
        }
        let cost = elem.len()
            + attrs
                .iter()
                .map(|(k, v)| 1 + k.len() + v.len())
                .sum::<usize>();
        let record = self.levels.len() < RETAINED_LEVELS && self.text.len() + cost <= RETAINED_TEXT;
        let name_end = if record {
            self.text.push_str(elem);
            let name_end = self.text.len();
            for (k, v) in attrs {
                self.text.push_str(k);
                let key_end = self.text.len();
                self.text.push_str(v);
                self.attrs.push((key_end, self.text.len()));
            }
            name_end
        } else {
            self.text.len()
        };
        self.overflow = !record;
        self.levels.push(Level {
            stamp,
            name_end,
            attrs_end: self.attrs.len(),
            text_end: self.text.len(),
            sets_end: self.sets.len(),
            tokens_end: self.tokens.len(),
        });
        At {
            stamp,
            accept: ((self.levels.len() - 1) as u32, stamp),
            record,
        }
    }

    /// Records the set just built (`next`) and its tokens on level `at`.
    fn close_level(&mut self, at: At) {
        if !at.record {
            return;
        }
        self.sets.extend_from_slice(&self.next);
        if let Some(top) = self.levels.last_mut() {
            top.sets_end = self.sets.len();
            top.tokens_end = self.tokens.len();
        }
    }

    /// Loads the top level's active set into `current`.
    fn load_top(&mut self) {
        let mut ends = self.levels.iter().rev().map(|l| l.sets_end);
        let end = ends.next().unwrap_or(0);
        let start = ends.next().unwrap_or(0);
        self.current.clear();
        if let Some(set) = self.sets.get(start..end) {
            self.current.extend_from_slice(set);
        }
    }

    /// Ends a traversal: drops the overflow level, whose positions no
    /// path resumes at.
    fn finish(&mut self) {
        if self.overflow {
            self.levels.pop();
            self.overflow = false;
        }
        self.busy = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::matches_path_with_attrs;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn matches(nfa: &PathAutomaton, path: &[&str]) -> Vec<u64> {
        matches_with_attrs(nfa, path, &[])
    }

    fn matches_with_attrs(
        nfa: &PathAutomaton,
        path: &[&str],
        attrs: &[Vec<(String, String)>],
    ) -> Vec<u64> {
        let mut out = Vec::new();
        nfa.for_each_match(path, attrs, &mut |t| out.push(t));
        out.sort_unstable();
        out
    }

    fn single(expr: &str, path: &[&str]) -> bool {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe(expr));
        matches(&nfa, path) == [1]
    }

    #[test]
    fn absolute_anchored_prefix() {
        assert!(single("/a/b", &["a", "b"]));
        assert!(single("/a/b", &["a", "b", "c"]));
        assert!(!single("/a/b", &["x", "a", "b"]));
        assert!(!single("/a/b", &["a"]));
    }

    #[test]
    fn wildcards() {
        assert!(single("/a/*/c", &["a", "b", "c"]));
        assert!(single("/*/*", &["x", "y", "z"]));
        assert!(!single("/a/*/c", &["a", "c"]));
    }

    #[test]
    fn leading_descendant() {
        assert!(single("//b", &["a", "b"]));
        assert!(single("//b", &["b"]));
        assert!(single("//b/c", &["a", "b", "c"]));
        assert!(!single("//b/c", &["a", "c", "b"]));
    }

    #[test]
    fn inner_descendant_strictly_below() {
        assert!(single("/a//b", &["a", "b"]));
        assert!(single("/a//b", &["a", "x", "y", "b"]));
        assert!(!single("/a//b", &["a"]));
        assert!(!single("/a//a", &["a"]));
        assert!(single("/a//a", &["a", "a"]));
    }

    #[test]
    fn relative_floats() {
        assert!(single("b/c", &["a", "b", "c"]));
        assert!(single("b/c", &["b", "c"]));
        assert!(!single("b/c", &["a", "c", "b"]));
        assert!(single(".//c", &["a", "b", "c"]));
        assert!(single(".//c", &["c"]));
    }

    #[test]
    fn backtracking_cases() {
        // Greedy earliest placement must not lose later placements:
        // the NFA explores all of them.
        assert!(single("/a//b/c", &["a", "b", "x", "b", "c"]));
        assert!(single(
            "*/a//d/*/c//b",
            &["r", "a", "e", "q", "d", "x", "c", "b"]
        ));
        assert!(single("/a//b//c", &["a", "x", "b", "y", "c"]));
        assert!(!single("/a//b//c", &["a", "c", "b"]));
    }

    #[test]
    fn empty_path_matches_nothing() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("//*"));
        assert!(matches(&nfa, &[]).is_empty());
    }

    #[test]
    fn predicates_on_edges() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a/b"));
        nfa.insert(2, &xpe("/a/b[@k]"));
        nfa.insert(3, &xpe("/a[@k='v']/b"));
        let no_attrs: Vec<Vec<(String, String)>> = vec![];
        assert_eq!(matches_with_attrs(&nfa, &["a", "b"], &no_attrs), [1]);
        let leaf_attr = vec![vec![], vec![("k".to_string(), "x".to_string())]];
        assert_eq!(matches_with_attrs(&nfa, &["a", "b"], &leaf_attr), [1, 2]);
        let root_attr = vec![vec![("k".to_string(), "v".to_string())], vec![]];
        assert_eq!(matches_with_attrs(&nfa, &["a", "b"], &root_attr), [1, 3]);
    }

    #[test]
    fn shared_prefixes_report_each_token_once() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a/b"));
        nfa.insert(2, &xpe("/a/b"));
        nfa.insert(3, &xpe("/a/*"));
        nfa.insert(4, &xpe("//b"));
        assert_eq!(matches(&nfa, &["a", "b"]), [1, 2, 3, 4]);
        // A path where the same accepting state is reachable at several
        // depths still reports once.
        let mut nfa = PathAutomaton::new();
        nfa.insert(7, &xpe("//b"));
        assert_eq!(matches(&nfa, &["b", "b", "b"]), [7]);
    }

    #[test]
    fn remove_tombstones_and_reinsert() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a/b"));
        nfa.insert(2, &xpe("//b"));
        assert!(nfa.remove(1));
        assert!(!nfa.remove(1), "second removal is a no-op");
        assert_eq!(matches(&nfa, &["a", "b"]), [2]);
        nfa.insert(1, &xpe("/a/b"));
        assert_eq!(matches(&nfa, &["a", "b"]), [1, 2]);
        assert_eq!(nfa.len(), 2);
    }

    #[test]
    fn reinsert_replaces_expression() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a/b"));
        nfa.insert(1, &xpe("/x/y"));
        assert_eq!(nfa.len(), 1);
        assert!(matches(&nfa, &["a", "b"]).is_empty());
        assert_eq!(matches(&nfa, &["x", "y"]), [1]);
        assert!(nfa.tokens_at(&xpe("/a/b")).is_empty());
        assert_eq!(nfa.tokens_at(&xpe("/x/y")), [1]);
    }

    #[test]
    fn tokens_at_finds_equal_expressions_without_mutating() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a/b[@k]"));
        nfa.insert(2, &xpe("b/c"));
        nfa.insert(3, &xpe("//b/c"));
        nfa.insert(4, &xpe("/a/*"));
        let states = nfa.stats().states;
        assert_eq!(nfa.tokens_at(&xpe("/a/b[@k]")), [1]);
        assert_eq!(nfa.tokens_at(&xpe("/a/*")), [4]);
        // Relative and leading-`//` expressions share an accepting state:
        // the owner tells them apart.
        let mut floating = nfa.tokens_at(&xpe("b/c")).to_vec();
        floating.sort_unstable();
        assert_eq!(floating, [2, 3]);
        // Unknown names, missing edges and unthreaded prefixes miss.
        assert!(nfa.tokens_at(&xpe("/a/b")).is_empty());
        assert!(nfa.tokens_at(&xpe("/zz")).is_empty());
        assert!(nfa.tokens_at(&xpe("/a")).is_empty());
        assert!(nfa.tokens_at(&xpe("/a//b")).is_empty());
        assert_eq!(nfa.stats().states, states, "lookups create no states");
    }

    #[test]
    fn compaction_preserves_matches_and_resets_debt() {
        let owned: Vec<Xpe> = (0..100u64).map(|i| xpe(&format!("/a/b{i}/c"))).collect();
        let mut nfa = PathAutomaton::new();
        for (i, x) in owned.iter().enumerate() {
            nfa.insert(i as u64, x);
        }
        for i in 0..80u64 {
            nfa.remove(i);
        }
        assert!(nfa.needs_compaction());
        let states_before = nfa.stats().states;
        nfa.compact(|t| owned.get(t as usize));
        let stats = nfa.stats();
        assert!(stats.states < states_before, "tombstoned structure freed");
        assert_eq!(stats.tombstone_steps, 0);
        assert_eq!(stats.compactions_total, 1);
        assert!(!nfa.needs_compaction());
        for i in 80..100u64 {
            assert_eq!(matches(&nfa, &["a", &format!("b{i}"), "c"]), [i]);
        }
        assert!(matches(&nfa, &["a", "b0", "c"]).is_empty());
    }

    #[test]
    fn compaction_drops_tokens_the_owner_forgot() {
        let owned = [xpe("/a"), xpe("/b")];
        let mut nfa = PathAutomaton::new();
        nfa.insert(0, &owned[0]);
        nfa.insert(1, &owned[1]);
        nfa.compact(|t| if t == 0 { owned.first() } else { None });
        assert_eq!(nfa.len(), 1);
        assert_eq!(matches(&nfa, &["a"]), [0]);
        assert!(matches(&nfa, &["b"]).is_empty());
    }

    #[test]
    fn stats_track_traversal_work() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a/b"));
        let before = nfa.stats();
        assert_eq!(before.live_subs, 1);
        let _ = matches(&nfa, &["a", "b"]);
        let after = nfa.stats();
        assert!(after.transitions_total > before.transitions_total);
        assert!(after.peak_active_states >= 1);
    }

    #[test]
    fn hash_promotion_keeps_lookups_exact() {
        let mut nfa = PathAutomaton::new();
        // Fan the root out past the promotion threshold.
        for i in 0..3 * HASH_FANOUT as u64 {
            nfa.insert(i, &xpe(&format!("/e{i}")));
        }
        for i in 0..3 * HASH_FANOUT as u64 {
            assert_eq!(matches(&nfa, &[&format!("e{i}")]), [i]);
        }
        assert!(matches(&nfa, &["nope"]).is_empty());
    }

    #[test]
    fn clone_matches_independently() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a/b"));
        let copy = nfa.clone();
        nfa.remove(1);
        assert!(matches(&nfa, &["a", "b"]).is_empty());
        assert_eq!(matches(&copy, &["a", "b"]), [1]);
    }

    fn attr(k: &str, v: &str) -> Vec<(String, String)> {
        vec![(k.to_string(), v.to_string())]
    }

    #[test]
    fn resumed_prefix_is_not_traversed_again() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a/b/c"));
        nfa.insert(2, &xpe("/a/b/d"));
        let _ = matches(&nfa, &["a", "b", "c"]);
        let first = nfa.stats().transitions_total;
        assert_eq!(matches(&nfa, &["a", "b", "d"]), [2]);
        let second = nfa.stats().transitions_total - first;
        assert_eq!((first, second), (3, 1), "only the last step is new");
    }

    #[test]
    fn mutation_between_prefix_sharing_paths() {
        let owned = [xpe("/a/b/c"), xpe("/a/b"), xpe("//b")];
        let mut nfa = PathAutomaton::new();
        nfa.insert(0, &owned[0]);
        assert_eq!(matches(&nfa, &["a", "b", "c"]), [0]);
        // Accepts inside the prefix the next path shares.
        nfa.insert(1, &owned[1]);
        assert_eq!(matches(&nfa, &["a", "b", "d"]), [1]);
        nfa.insert(2, &owned[2]);
        assert_eq!(matches(&nfa, &["a", "b", "c"]), [0, 1, 2]);
        nfa.remove(1);
        assert_eq!(matches(&nfa, &["a", "b", "d"]), [2]);
        // Compaction renumbers states under the recorded sets.
        nfa.compact(|t| owned.get(t as usize));
        assert_eq!(matches(&nfa, &["a", "b", "c"]), [0, 2]);
        nfa.insert(1, &owned[1]);
        assert_eq!(matches(&nfa, &["a", "b", "c"]), [0, 1, 2]);
    }

    #[test]
    fn attributes_at_a_shared_position_end_the_prefix() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a[@k='v']/b"));
        nfa.insert(2, &xpe("/a/b"));
        let kv = [attr("k", "v")];
        let kw = [attr("k", "w")];
        assert_eq!(matches_with_attrs(&nfa, &["a", "b"], &kv), [1, 2]);
        assert_eq!(matches_with_attrs(&nfa, &["a", "b"], &kw), [2]);
        assert_eq!(matches_with_attrs(&nfa, &["a", "b"], &kv), [1, 2]);
        // A missing attribute list counts as empty.
        assert_eq!(matches_with_attrs(&nfa, &["a", "b"], &[]), [2]);
        assert_eq!(matches_with_attrs(&nfa, &["a", "b"], &[vec![]]), [2]);
        assert_eq!(matches_with_attrs(&nfa, &["a", "b"], &kv), [1, 2]);
    }

    #[test]
    fn names_never_interned_end_the_prefix() {
        // A predicated name test is not interned, so `yy` and `zz`
        // both have no id; only the strings tell them apart.
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/yy[@k]/b"));
        let k = vec![attr("k", "1")];
        assert!(matches_with_attrs(&nfa, &["zz", "b"], &k).is_empty());
        assert_eq!(matches_with_attrs(&nfa, &["yy", "b"], &k), [1]);
        assert!(matches_with_attrs(&nfa, &["zz", "b"], &k).is_empty());
    }

    #[test]
    fn visitor_matching_again_gets_fresh_scratch() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/a/b"));
        nfa.insert(2, &xpe("//b"));
        let _ = matches(&nfa, &["a", "c"]);
        let mut outer = Vec::new();
        nfa.for_each_match(&["a", "b"], &[], &mut |t| {
            outer.push(t);
            assert_eq!(matches(&nfa, &["a", "b"]), [1, 2]);
            assert!(matches(&nfa, &["x", "y"]).is_empty());
        });
        outer.sort_unstable();
        assert_eq!(outer, [1, 2]);
        assert_eq!(matches(&nfa, &["a", "b"]), [1, 2]);
    }

    #[test]
    fn long_paths_leave_the_retained_scratch_within_the_cap() {
        let mut nfa = PathAutomaton::new();
        nfa.insert(1, &xpe("/e"));
        nfa.insert(2, &xpe("//e/e/e"));
        nfa.insert(3, &xpe("//f"));
        let n = if cfg!(miri) { 1_000 } else { 100_000 };
        let mut path = vec!["e"; n];
        assert_eq!(matches(&nfa, &path), [1, 2]);
        path.push("f");
        assert_eq!(matches(&nfa, &path), [1, 2, 3], "resumed past the record");
        // The overflow level ends with its traversal: an element with
        // an empty name right after the record does not resume at it.
        let mut edge = vec!["e"; RETAINED_LEVELS - 1];
        edge.extend(["", "f"]);
        assert_eq!(matches(&nfa, &edge), [1, 2, 3]);
        let long_name = "n".repeat(2 * RETAINED_TEXT);
        assert_eq!(matches(&nfa, &["e", &long_name, "f"]), [1, 3]);
        let run = nfa.scratch.borrow();
        assert!(run.levels.len() <= RETAINED_LEVELS);
        assert!(run.text.capacity() <= 2 * RETAINED_TEXT);
        assert!(run.levels.capacity() <= 2 * RETAINED_LEVELS);
        assert!(run.sets.len() <= RETAINED_LEVELS * nfa.states.len());
        assert!(run.current.capacity() <= 2 * nfa.states.len());
        assert!(run.next.capacity() <= 2 * nfa.states.len());
    }

    /// Exhaustive-ish differential check against the reference matcher
    /// over a small alphabet (the proptest suite in `xdn-core` extends
    /// this across routers and churn).
    #[test]
    fn agrees_with_reference_matcher() {
        let exprs = [
            "/a/b", "/a/*", "//b", "a/b", "*/b", "/a//b", "/a//a", "a//c", ".//c", "//*",
            "/a//b/c", "/*/*", "b", "/b",
        ];
        let names = ["a", "b", "c"];
        let mut nfa = PathAutomaton::new();
        for (i, e) in exprs.iter().enumerate() {
            nfa.insert(i as u64, &xpe(e));
        }
        let mut paths: Vec<Vec<&str>> = Vec::new();
        for x in names {
            paths.push(vec![x]);
            for y in names {
                paths.push(vec![x, y]);
                for z in names {
                    paths.push(vec![x, y, z]);
                    for w in names {
                        paths.push(vec![x, y, z, w]);
                    }
                }
            }
        }
        for path in &paths {
            let expected: Vec<u64> = exprs
                .iter()
                .enumerate()
                .filter(|(_, e)| matches_path_with_attrs(&xpe(e), path, &[]))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(matches(&nfa, path), expected, "divergence on {path:?}");
        }
    }
}
