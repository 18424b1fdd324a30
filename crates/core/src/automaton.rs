//! The automaton-backed publication routing table.
//!
//! [`AutomatonPrt`] is the publication table of every non-covering
//! broker. It keeps the always-forward semantics of
//! [`crate::rtable::FlatPrt`] but matches publications with the shared
//! [`xdn_xpath::automaton::PathAutomaton`]: the whole subscription set
//! is compiled into one NFA and a publication path is matched in a
//! single traversal, independent of how many candidates would match.
//!
//! Match results are bit-identical to the flat scan (property-tested
//! in `crates/core/tests/automaton_props.rs`).
//!
//! Subscription churn is incremental: inserts thread new steps through
//! the shared trie and removals tombstone structure, with an amortized
//! compaction rebuild (timed here, into the
//! [`AutomatonStats::rebuild_seconds`] histogram) once the stranded
//! structure outweighs the live table.

use crate::rtable::{PublicationRouter, SubId, SubscribeOutcome, UnsubscribeOutcome};
use std::collections::HashMap;
use xdn_obs::{Histogram, Stopwatch};
use xdn_xpath::automaton::PathAutomaton;
use xdn_xpath::Xpe;

/// A snapshot of an automaton router's matching state, for metrics
/// (the `xdn_automaton_*` Prometheus families).
#[derive(Debug, Clone, Default)]
pub struct AutomatonStats {
    /// NFA states currently allocated (including tombstoned structure
    /// awaiting compaction).
    pub states: u64,
    /// Live registered subscriptions.
    pub live_subs: u64,
    /// NFA edges traversed by all matches since creation.
    pub transitions_total: u64,
    /// Largest active-state set any single traversal reached (the
    /// active-state high-water mark).
    pub peak_active_states: u64,
    /// Compaction rebuilds performed.
    pub compactions_total: u64,
    /// Compaction rebuild durations.
    pub rebuild_seconds: Histogram,
}

/// The automaton publication routing table. See the module docs.
#[derive(Debug)]
pub struct AutomatonPrt<H> {
    /// Indexes `entries`, one token per subscription (the id).
    nfa: PathAutomaton,
    /// Expression and last hop per subscription.
    entries: HashMap<SubId, (Xpe, H)>,
    rebuild_seconds: Histogram,
}

impl<H> Default for AutomatonPrt<H> {
    fn default() -> Self {
        Self::new()
    }
}

impl<H> AutomatonPrt<H> {
    /// Creates an empty table.
    pub fn new() -> Self {
        AutomatonPrt {
            nfa: PathAutomaton::new(),
            entries: HashMap::new(),
            rebuild_seconds: Histogram::new(),
        }
    }

    /// The underlying automaton (diagnostics).
    pub fn automaton(&self) -> &PathAutomaton {
        &self.nfa
    }

    /// The automaton metrics snapshot.
    pub fn stats(&self) -> AutomatonStats {
        let nfa = self.nfa.stats();
        AutomatonStats {
            states: nfa.states as u64,
            live_subs: nfa.live_subs as u64,
            transitions_total: nfa.transitions_total,
            peak_active_states: nfa.peak_active_states,
            compactions_total: nfa.compactions_total,
            rebuild_seconds: self.rebuild_seconds.clone(),
        }
    }

    /// Number of stored subscriptions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no subscriptions are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<H: Clone + Ord + std::fmt::Debug> PublicationRouter<H> for AutomatonPrt<H> {
    /// Always forwarded (no covering), like the flat table.
    /// Re-registering an id replaces its expression.
    fn insert(&mut self, id: SubId, xpe: Xpe, last_hop: H) -> SubscribeOutcome<H> {
        self.nfa.insert(id.0, &xpe);
        self.entries.insert(id, (xpe, last_hop));
        SubscribeOutcome {
            forward: true,
            retract: Vec::new(),
            covered_root_hops: Vec::new(),
        }
    }

    fn remove(&mut self, id: SubId) -> UnsubscribeOutcome<H> {
        let known = self.entries.remove(&id).is_some();
        if known {
            self.nfa.remove(id.0);
            if self.nfa.needs_compaction() {
                let sw = Stopwatch::start();
                let entries = &self.entries;
                self.nfa
                    .compact(|token| entries.get(&SubId(token)).map(|(xpe, _)| xpe));
                self.rebuild_seconds.record(sw.elapsed());
            }
        }
        UnsubscribeOutcome {
            forward: known,
            ..UnsubscribeOutcome::unknown()
        }
    }

    fn for_each_matching_with_attrs(
        &self,
        path: &[String],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(SubId, &H),
    ) {
        self.nfa.for_each_match(path, attrs, &mut |token| {
            let id = SubId(token);
            if let Some((_, hop)) = self.entries.get(&id) {
                f(id, hop);
            }
        });
    }

    fn len(&self) -> usize {
        AutomatonPrt::len(self)
    }

    fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        self.entries.get(&id).map(|(xpe, _)| xpe)
    }

    fn hops_of(&self, id: SubId) -> Vec<H> {
        self.entries
            .get(&id)
            .map(|(_, h)| h.clone())
            .into_iter()
            .collect()
    }

    /// Every stored subscription with its last hop (all are forwarded,
    /// as in the flat scheme).
    fn forwarded_subs(&self) -> Vec<(SubId, Xpe, Vec<H>)> {
        self.entries
            .iter()
            .map(|(&id, (xpe, hop))| (id, xpe.clone(), vec![hop.clone()]))
            .collect()
    }

    fn automaton_stats(&self) -> Option<AutomatonStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtable::FlatPrt;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn path(p: &[&str]) -> Vec<String> {
        p.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn routes_like_flat_on_basics() {
        let subs = ["/a/*", "/a/b", "a//c", "/x/y", "//b", "/*/*", "b/c[@k]"];
        let mut flat = FlatPrt::new();
        let mut aut = AutomatonPrt::new();
        for (i, s) in subs.iter().enumerate() {
            flat.insert(SubId(i as u64), xpe(s), i);
            aut.insert(SubId(i as u64), xpe(s), i);
        }
        let paths: [&[&str]; 5] = [
            &["a", "b"],
            &["a", "q", "c"],
            &["x", "y"],
            &["z", "b", "c"],
            &["q"],
        ];
        for p in paths {
            let p = path(p);
            assert_eq!(
                aut.matching_hops(&p, &[]),
                flat.matching_hops(&p, &[]),
                "divergence on {p:?}"
            );
        }
    }

    #[test]
    fn attributes_respected() {
        let mut aut = AutomatonPrt::new();
        aut.insert(SubId(1), xpe("/a/b[@k='v']"), "h1");
        let hit = vec![vec![], vec![("k".to_string(), "v".to_string())]];
        let miss = vec![vec![], vec![("k".to_string(), "w".to_string())]];
        assert_eq!(aut.matching_hops(&path(&["a", "b"]), &hit).len(), 1);
        assert!(aut.matching_hops(&path(&["a", "b"]), &miss).is_empty());
    }

    #[test]
    fn unsubscribe_and_resubscribe() {
        let mut aut = AutomatonPrt::new();
        aut.insert(SubId(1), xpe("/a/b"), "h1");
        aut.insert(SubId(2), xpe("//b"), "h2");
        assert!(aut.remove(SubId(1)).forward);
        assert!(!aut.remove(SubId(1)).forward, "second removal no-op");
        assert_eq!(aut.matching_hops(&path(&["a", "b"]), &[]).len(), 1);
        aut.insert(SubId(1), xpe("/x/y"), "h1");
        assert_eq!(aut.len(), 2);
        assert_eq!(aut.xpe_of(SubId(1)), Some(&xpe("/x/y")));
        assert_eq!(aut.matching_hops(&path(&["x", "y"]), &[]).len(), 1);
    }

    #[test]
    fn churn_triggers_timed_compaction() {
        let mut aut = AutomatonPrt::new();
        for i in 0..200u64 {
            aut.insert(SubId(i), xpe(&format!("/a/b{i}/c/d")), i as u32);
        }
        for i in 0..180u64 {
            aut.remove(SubId(i));
        }
        let stats = aut.stats();
        assert!(stats.compactions_total >= 1, "churn forced a rebuild");
        assert_eq!(
            stats.rebuild_seconds.count(),
            stats.compactions_total,
            "every rebuild was timed"
        );
        assert_eq!(stats.live_subs, 20);
        for i in 180..200u64 {
            let p = path(&["a", &format!("b{i}"), "c", "d"]);
            assert_eq!(aut.matching_hops(&p, &[]).len(), 1);
        }
    }

    #[test]
    fn forwarded_subs_cover_everything() {
        let mut aut = AutomatonPrt::new();
        aut.insert(SubId(1), xpe("/a"), "h1");
        aut.insert(SubId(2), xpe("/b"), "h2");
        let mut ids: Vec<u64> = aut.forwarded_subs().iter().map(|(id, _, _)| id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(aut.effective_size(), 2);
    }
}
