//! The independent delivery oracle.
//!
//! It knows the script, not the brokers: a client should receive a
//! publication path exactly once if and only if one of its active XPEs
//! matches the path under
//! [`xdn_xpath::matching::matches_path_with_attrs`]. No routing table,
//! covering tree or broker code is consulted.
//!
//! Scanning every XPE for every path would cost seconds per run, so
//! candidates come from a trie over each XPE's leading child-axis steps
//! (an anchored XPE can only match a path whose first elements pass
//! those name tests); every candidate is then confirmed with the
//! library matcher. Results are memoised per distinct path until the
//! subscription set changes.

use std::collections::{BTreeMap, HashMap};
use xdn_xpath::ast::{Axis, NodeTest};
use xdn_xpath::matching::matches_path_with_attrs;
use xdn_xpath::Xpe;

type Attrs = Vec<Vec<(String, String)>>;

/// Active subscriptions and the expected receivers of each path.
#[derive(Default)]
pub struct Oracle {
    subs: BTreeMap<u64, (u64, Xpe)>,
    index: Option<Index>,
    memo: HashMap<(Vec<String>, Attrs), Vec<u64>>,
}

impl Oracle {
    /// An oracle with no subscriptions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Client `client` activates subscription `id`.
    pub fn subscribe(&mut self, id: u64, client: u64, xpe: Xpe) {
        self.subs.insert(id, (client, xpe));
        self.invalidate();
    }

    /// Subscription `id` stops being active.
    pub fn unsubscribe(&mut self, id: u64) {
        self.subs.remove(&id);
        self.invalidate();
    }

    fn invalidate(&mut self) {
        self.index = None;
        self.memo.clear();
    }

    /// The clients that must receive this path, ascending and distinct.
    pub fn receivers(&mut self, elements: &[String], attrs: &[Vec<(String, String)>]) -> &[u64] {
        let key = (elements.to_vec(), attrs.to_vec());
        if !self.memo.contains_key(&key) {
            let index = self
                .index
                .get_or_insert_with(|| Index::build(self.subs.values()));
            let mut clients: Vec<u64> = index
                .candidates(elements)
                .into_iter()
                .filter(|&c| matches_path_with_attrs(&index.xpes[c].1, elements, attrs))
                .map(|c| index.xpes[c].0)
                .collect();
            clients.sort_unstable();
            clients.dedup();
            self.memo.insert(key.clone(), clients);
        }
        &self.memo[&key]
    }
}

/// Trie over the name tests of each anchored XPE's leading child-axis
/// steps; XPEs without such an anchor are always candidates.
struct Index {
    xpes: Vec<(u64, Xpe)>,
    nodes: Vec<TrieNode>,
    floating: Vec<usize>,
}

#[derive(Default)]
struct TrieNode {
    named: HashMap<String, usize>,
    wildcard: Option<usize>,
    ends: Vec<usize>,
}

impl Index {
    fn build<'a>(subs: impl Iterator<Item = &'a (u64, Xpe)>) -> Index {
        let mut index = Index {
            xpes: subs.cloned().collect(),
            nodes: vec![TrieNode::default()],
            floating: Vec::new(),
        };
        for i in 0..index.xpes.len() {
            let steps = index.xpes[i].1.steps();
            let anchored = index.xpes[i].1.is_absolute()
                && steps.first().is_some_and(|s| s.axis == Axis::Child);
            if !anchored {
                index.floating.push(i);
                continue;
            }
            let tests: Vec<NodeTest> = steps
                .iter()
                .take_while(|s| s.axis == Axis::Child)
                .map(|s| s.test.clone())
                .collect();
            let mut node = 0;
            for test in tests {
                node = index.child(node, test);
            }
            index.nodes[node].ends.push(i);
        }
        index
    }

    fn child(&mut self, node: usize, test: NodeTest) -> usize {
        let existing = match &test {
            NodeTest::Wildcard => self.nodes[node].wildcard,
            NodeTest::Name(n) => self.nodes[node].named.get(n).copied(),
        };
        if let Some(c) = existing {
            return c;
        }
        let c = self.nodes.len();
        self.nodes.push(TrieNode::default());
        match test {
            NodeTest::Wildcard => self.nodes[node].wildcard = Some(c),
            NodeTest::Name(n) => {
                self.nodes[node].named.insert(n, c);
            }
        }
        c
    }

    fn candidates(&self, path: &[String]) -> Vec<usize> {
        let mut out = self.floating.clone();
        let mut frontier = vec![0usize];
        for name in path {
            let mut next = Vec::new();
            for &n in &frontier {
                let node = &self.nodes[n];
                next.extend(node.named.get(name).copied());
                next.extend(node.wildcard);
            }
            for &n in &next {
                out.extend_from_slice(&self.nodes[n].ends);
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(s: &str) -> Vec<String> {
        s.split('/')
            .filter(|p| !p.is_empty())
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn trie_candidates_agree_with_a_full_scan() {
        let xpes = [
            "/a/b", "/a/*/c", "/a//c", "//c", "b/c", "/x", "/a/b/c/d", "/*",
        ];
        let mut oracle = Oracle::new();
        for (i, x) in xpes.iter().enumerate() {
            oracle.subscribe(i as u64, i as u64, x.parse().expect("valid xpe"));
        }
        for p in ["/a/b/c", "/a/q/c", "/x/y", "/a/b/c/d/e", "/q"] {
            let elements = path(p);
            let mut scan: Vec<u64> = xpes
                .iter()
                .enumerate()
                .filter(|(_, x)| {
                    let xpe: Xpe = x.parse().expect("valid xpe");
                    matches_path_with_attrs(&xpe, &elements, &[])
                })
                .map(|(i, _)| i as u64)
                .collect();
            scan.sort_unstable();
            assert_eq!(oracle.receivers(&elements, &[]), scan.as_slice(), "{p}");
        }
    }

    #[test]
    fn unsubscribe_removes_a_receiver() {
        let mut oracle = Oracle::new();
        oracle.subscribe(1, 7, "/a".parse().expect("valid xpe"));
        assert_eq!(oracle.receivers(&path("/a/b"), &[]), &[7]);
        oracle.unsubscribe(1);
        assert!(oracle.receivers(&path("/a/b"), &[]).is_empty());
    }
}
