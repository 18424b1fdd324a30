//! Subscription merging (§4.3).
//!
//! Subscriptions that are not in a covering relation but select
//! overlapping publications can be replaced downstream by a more
//! general *merger*: `P(merger) ⊇ P(s1) ∪ P(s2)`. A merger whose
//! publication set equals the union is a **perfect merger**; otherwise
//! it is **imperfect** and introduces false positives, quantified by
//! the imperfect-merging degree
//!
//! ```text
//! D_imperfect = |P(s) − ∪ P(si)| / |P(s)|
//! ```
//!
//! computed over the universe of publication paths the DTD admits
//! (every broker is assumed to know the producer's DTD).
//!
//! Three rules from the paper:
//!
//! 1. one differing element position → that position becomes `*`;
//! 2. one differing element position *and* one differing operator
//!    position → the element becomes `*` and the operator `//`;
//! 3. identical prefix and suffix around arbitrary differing infixes →
//!    the infixes collapse into a single `//`.
//!
//! Every rule produces an expression that covers its inputs, so
//! applying a merger can never lose publications (verified by property
//! tests).

use crate::cover::covers;
use crate::subtree::{Insertion, NodeId, SubscriptionTree};
use std::collections::HashMap;
use xdn_xpath::{Axis, NodeTest, Step, Xpe};

/// Rule 1: merge expressions that are identical except for the element
/// at exactly one position (operators all equal). Any number of
/// candidates (the paper notes the rule is not limited to two).
///
/// Returns `None` when the inputs do not fit the rule (different
/// lengths, shapes, or more than one differing position).
///
/// ```
/// use xdn_core::merge::try_merge_rule1;
/// let s1: xdn_xpath::Xpe = "/a/*/c/d".parse().unwrap();
/// let s2: xdn_xpath::Xpe = "/a/*/c/e".parse().unwrap();
/// let m = try_merge_rule1(&[&s1, &s2]).unwrap();
/// assert_eq!(m.to_string(), "/a/*/c/*");
/// ```
pub fn try_merge_rule1(xpes: &[&Xpe]) -> Option<Xpe> {
    let (first, rest) = xpes.split_first()?;
    if rest.is_empty() {
        return None;
    }
    let len = first.len();
    let absolute = first.is_absolute();
    if rest
        .iter()
        .any(|x| x.len() != len || x.is_absolute() != absolute)
    {
        return None;
    }
    // Operators must agree everywhere.
    for x in rest {
        if x.steps()
            .iter()
            .zip(first.steps())
            .any(|(a, b)| a.axis != b.axis)
        {
            return None;
        }
    }
    // Exactly one position may carry differing tests.
    let mut diff_pos: Option<usize> = None;
    for i in 0..len {
        let t0 = &first.steps()[i].test;
        if rest.iter().any(|x| &x.steps()[i].test != t0) && diff_pos.replace(i).is_some() {
            return None;
        }
    }
    let i = diff_pos?; // all equal → covering relation, nothing to merge
    let mut steps: Vec<Step> = first.steps().to_vec();
    steps[i].test = NodeTest::Wildcard;
    // The merged position must accept every candidate's element with
    // whatever attributes it carries.
    steps[i].predicates.clear();
    Some(Xpe::new(absolute, steps))
}

/// Rule 2: merge two expressions of equal length differing in at most
/// one element position and at most one operator position (at least one
/// of each kind of difference in total). The differing element becomes
/// `*` and the differing operator `//`.
///
/// ```
/// use xdn_core::merge::try_merge_rule2;
/// let s1: xdn_xpath::Xpe = "/a/c/*/*".parse().unwrap();
/// let s2: xdn_xpath::Xpe = "/a//c/*/c".parse().unwrap();
/// let m = try_merge_rule2(&s1, &s2).unwrap();
/// assert_eq!(m.to_string(), "/a//c/*/*");
/// ```
pub fn try_merge_rule2(s1: &Xpe, s2: &Xpe) -> Option<Xpe> {
    if s1.len() != s2.len() || s1.is_absolute() != s2.is_absolute() {
        return None;
    }
    let mut test_diffs = Vec::new();
    let mut axis_diffs = Vec::new();
    for (i, (a, b)) in s1.steps().iter().zip(s2.steps()).enumerate() {
        if a.test != b.test {
            test_diffs.push(i);
        }
        if a.axis != b.axis {
            axis_diffs.push(i);
        }
    }
    if test_diffs.len() > 1 || axis_diffs.len() > 1 || (test_diffs.len() + axis_diffs.len()) == 0 {
        return None;
    }
    let mut steps: Vec<Step> = s1.steps().to_vec();
    for &i in &test_diffs {
        steps[i].test = NodeTest::Wildcard;
        steps[i].predicates.clear();
    }
    for &i in &axis_diffs {
        steps[i].axis = Axis::Descendant;
    }
    Some(Xpe::new(s1.is_absolute(), steps))
}

/// Rule 3: merge two expressions sharing a common step prefix and a
/// common step suffix around differing infixes; the infixes collapse
/// into a `//` connecting prefix and suffix.
///
/// `min_shared` guards against over-general mergers ("this rule is
/// applied if most parts in two subscriptions are equal"): the shared
/// prefix + suffix must make up at least that fraction of the *shorter*
/// input. The suffix must be non-empty (an expression cannot end in an
/// operator).
///
/// ```
/// use xdn_core::merge::try_merge_rule3;
/// let s1: xdn_xpath::Xpe = "/a/b/x/d/e".parse().unwrap();
/// let s2: xdn_xpath::Xpe = "/a/b/y/z/d/e".parse().unwrap();
/// let m = try_merge_rule3(&s1, &s2, 0.5).unwrap();
/// assert_eq!(m.to_string(), "/a/b//d/e");
/// ```
pub fn try_merge_rule3(s1: &Xpe, s2: &Xpe, min_shared: f64) -> Option<Xpe> {
    if s1.is_absolute() != s2.is_absolute() {
        return None;
    }
    let (a, b) = (s1.steps(), s2.steps());
    let max_common = a.len().min(b.len());
    let mut prefix = 0;
    while prefix < max_common && a[prefix] == b[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < max_common - prefix.min(max_common)
        && a[a.len() - 1 - suffix] == b[b.len() - 1 - suffix]
    {
        suffix += 1;
    }
    if suffix == 0 {
        return None;
    }
    // Both must have a differing infix — otherwise one embeds in the
    // other and covering may already apply; a merger is still valid
    // when exactly one infix is empty (`//` covers `/`), required e.g.
    // to merge /a/b/d/e with /a/b/x/d/e.
    if prefix + suffix >= a.len() && prefix + suffix >= b.len() {
        return None; // identical expressions
    }
    let shared = (prefix + suffix) as f64 / max_common as f64;
    if shared < min_shared {
        return None;
    }
    let mut steps: Vec<Step> = a[..prefix].to_vec();
    let mut tail: Vec<Step> = a[a.len() - suffix..].to_vec();
    if let Some(first) = tail.first_mut() {
        first.axis = Axis::Descendant;
    }
    steps.append(&mut tail);
    if steps.is_empty() {
        return None;
    }
    Some(Xpe::new(s1.is_absolute(), steps))
}

/// The shared fraction rule 3 demands in [`try_merge_pair`] (see
/// [`try_merge_rule3`]).
const RULE3_MIN_SHARED: f64 = 0.6;

/// Upper bound on the fixpoint rounds of [`merge_tree`].
const MAX_ROUNDS: usize = 8;

/// Attempts to merge a pair under rules 1, 2 and 3, in that order, with
/// rule 3 demanding a 0.6 shared fraction. Returns `None` if no rule
/// applies or one input covers the other (covering already handles
/// that case).
pub fn try_merge_pair(s1: &Xpe, s2: &Xpe) -> Option<Xpe> {
    if covers(s1, s2) || covers(s2, s1) {
        return None;
    }
    try_merge_rule1(&[s1, s2])
        .or_else(|| try_merge_rule2(s1, s2))
        .or_else(|| try_merge_rule3(s1, s2, RULE3_MIN_SHARED))
}

/// The imperfect-merging degree of `merger` with respect to the
/// `originals` it replaces, measured over `universe` — the set of
/// publication paths the producer's DTD admits (§4.3).
///
/// Returns `0.0` when the merger selects nothing from the universe
/// (vacuously perfect).
pub fn imperfect_degree<S: AsRef<str>>(
    merger: &Xpe,
    originals: &[&Xpe],
    universe: &[Vec<S>],
) -> f64 {
    let mut merged = 0usize;
    let mut union = 0usize;
    for path in universe {
        if merger.matches_path(path) {
            merged += 1;
            if originals.iter().any(|o| o.matches_path(path)) {
                union += 1;
            }
        }
    }
    if merged == 0 {
        0.0
    } else {
        (merged - union) as f64 / merged as f64
    }
}

/// Report of one [`merge_tree`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Mergers inserted, with the top-level nodes each one absorbed.
    pub mergers: Vec<(NodeId, Vec<NodeId>)>,
}

/// Runs the merging engine over the top level of a subscription tree:
/// repeatedly finds sibling pairs mergeable by [`try_merge_pair`] whose
/// imperfect degree over `universe` is within `max_degree` (`0.0`
/// admits only perfect mergers), inserts the merger, and lets covering
/// demote the absorbed subscriptions, until a fixpoint (or 8 rounds).
///
/// Candidate pairs are discovered with masked-signature hashing (rule
/// 1/2 candidates agree on everything except the masked positions), so
/// a round costs `O(n · L²)` rather than `O(n²)`.
pub fn merge_tree<T: Default, S: AsRef<str>>(
    tree: &mut SubscriptionTree<T>,
    universe: &[Vec<S>],
    max_degree: f64,
) -> MergeReport {
    // A positive degree budget first exhausts the perfect mergers —
    // the imperfect trajectory then extends the perfect one, so a
    // looser budget can never end with a larger table.
    let mut report = if max_degree > 0.0 {
        merge_tree(tree, universe, 0.0)
    } else {
        MergeReport::default()
    };
    for _ in 0..MAX_ROUNDS {
        let candidates = find_candidates(tree);
        // Score every candidate first and apply in ascending order of
        // imperfect degree: perfect mergers must never be preempted by
        // a looser merger that happens to be discovered earlier (a
        // greedy-order artifact that would let a larger degree budget
        // end with a *larger* table).
        let mut scored: Vec<(f64, Xpe, Vec<NodeId>)> = Vec::new();
        for cand in candidates {
            match cand {
                MergeCandidate::Group(ids) => {
                    let live: Vec<NodeId> = ids
                        .into_iter()
                        .filter(|&n| tree.parent(n).is_none())
                        .collect();
                    if live.len() < 2 {
                        continue;
                    }
                    let xpes: Vec<Xpe> = live.iter().map(|&n| tree.xpe(n).clone()).collect();
                    let refs: Vec<&Xpe> = xpes.iter().collect();
                    let Some(m) = try_merge_rule1(&refs) else {
                        continue;
                    };
                    let d = imperfect_degree(&m, &refs, universe);
                    if d <= max_degree {
                        scored.push((d, m, live));
                    }
                }
                MergeCandidate::Pair(a, b) => {
                    if tree.parent(a).is_some() || tree.parent(b).is_some() {
                        continue;
                    }
                    let (xa, xb) = (tree.xpe(a).clone(), tree.xpe(b).clone());
                    let Some(m) = try_merge_pair(&xa, &xb) else {
                        continue;
                    };
                    let d = imperfect_degree(&m, &[&xa, &xb], universe);
                    if d <= max_degree {
                        scored.push((d, m, vec![a, b]));
                    }
                }
            }
        }
        // Deterministic trajectory: ties at equal degree are ordered by
        // the merger expression (candidate discovery iterates hash maps,
        // whose order must not leak into the result).
        scored.sort_by(|x, y| x.0.total_cmp(&y.0).then_with(|| x.1.cmp(&y.1)));
        let mut progressed = false;
        for (_, merged, members) in scored {
            // Members may have been demoted by an earlier merger this
            // round; skip stale entries.
            if members
                .iter()
                .filter(|&&n| tree.parent(n).is_none())
                .count()
                < 2
            {
                continue;
            }
            match tree.insert(merged, T::default()) {
                Insertion::NewTop { id, demoted } => {
                    report.mergers.push((id, demoted));
                    progressed = true;
                }
                Insertion::CoveredBy { id, .. } => {
                    // The merger is subsumed by an existing root; it
                    // adds nothing — remove it again.
                    tree.remove(id);
                }
            }
        }
        if !progressed {
            break;
        }
    }
    report
}

/// A merge opportunity discovered by signature hashing.
enum MergeCandidate {
    /// A rule-1 signature group: all members differ only at the masked
    /// position and can merge simultaneously (the paper notes rule 1
    /// "is not limited to 2" candidates). Group merges are attempted
    /// before pairs because the union of a full group is tighter —
    /// often perfect where any pair alone would be imperfect.
    Group(Vec<NodeId>),
    /// A pairwise rule-2/3 opportunity.
    Pair(NodeId, NodeId),
}

/// Signature-based candidate discovery for rules 1 and 2 plus a
/// bounded prefix-bucket scan for rule 3.
fn find_candidates<T>(tree: &SubscriptionTree<T>) -> Vec<MergeCandidate> {
    let mut out = Vec::new();
    let roots: Vec<NodeId> = tree.roots().to_vec();

    // Rule 1 signatures: mask one test position; expressions sharing a
    // signature differ only there and merge as a whole group.
    let mut rule1_groups: HashMap<u64, Vec<NodeId>> = HashMap::new();
    for &id in &roots {
        let x = tree.xpe(id);
        for mask_test in 0..x.len() {
            let sig = signature(x, Some(mask_test), None);
            rule1_groups.entry(sig).or_default().push(id);
        }
    }
    for mut group in rule1_groups.into_values() {
        group.sort();
        group.dedup();
        if group.len() >= 2 {
            out.push(MergeCandidate::Group(group));
        }
    }

    // Rule 2 signatures: additionally mask one axis position; members
    // merge pairwise.
    let mut sig_groups: HashMap<u64, Vec<NodeId>> = HashMap::new();
    for &id in &roots {
        let x = tree.xpe(id);
        for mask_test in 0..x.len() {
            for mask_axis in 0..x.len() {
                let sig = signature(x, Some(mask_test), Some(mask_axis));
                sig_groups.entry(sig).or_default().push(id);
            }
        }
    }
    for group in sig_groups.into_values() {
        if group.len() < 2 {
            continue;
        }
        // Pair consecutive members; later rounds pick up the rest.
        for w in group.windows(2) {
            if w[0] != w[1] {
                out.push(MergeCandidate::Pair(w[0], w[1]));
            }
        }
    }

    // Rule 3: bucket by (absoluteness, first two steps), scan small
    // buckets pairwise.
    let mut buckets: HashMap<String, Vec<NodeId>> = HashMap::new();
    for &id in &roots {
        let x = tree.xpe(id);
        let key = format!(
            "{}|{:?}",
            x.is_absolute(),
            x.steps().iter().take(2).collect::<Vec<_>>()
        );
        buckets.entry(key).or_default().push(id);
    }
    const BUCKET_CAP: usize = 24;
    for bucket in buckets.into_values() {
        if bucket.len() < 2 || bucket.len() > BUCKET_CAP {
            continue;
        }
        for i in 0..bucket.len() {
            for j in i + 1..bucket.len() {
                out.push(MergeCandidate::Pair(bucket[i], bucket[j]));
            }
        }
    }
    out
}

/// Order-insensitive structural hash with optional masked positions.
fn signature(x: &Xpe, mask_test: Option<usize>, mask_axis: Option<usize>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    x.is_absolute().hash(&mut h);
    x.len().hash(&mut h);
    mask_test.hash(&mut h);
    mask_axis.hash(&mut h);
    for (i, s) in x.steps().iter().enumerate() {
        if Some(i) != mask_test {
            s.test.hash(&mut h);
        }
        if Some(i) != mask_axis {
            s.axis.hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    #[test]
    fn rule1_paper_example() {
        let s1 = xpe("a/*/c/d");
        let s2 = xpe("a/*/c/e");
        let m = try_merge_rule1(&[&s1, &s2]).unwrap();
        assert_eq!(m.to_string(), "a/*/c/*");
        assert!(covers(&m, &s1) && covers(&m, &s2));
    }

    #[test]
    fn rule1_multiway() {
        let s1 = xpe("/a/b/a");
        let s2 = xpe("/a/b/b");
        let s3 = xpe("/a/b/d");
        let m = try_merge_rule1(&[&s1, &s2, &s3]).unwrap();
        assert_eq!(m.to_string(), "/a/b/*");
    }

    #[test]
    fn rule1_rejections() {
        assert!(try_merge_rule1(&[&xpe("/a/b")]).is_none());
        assert!(try_merge_rule1(&[&xpe("/a/b"), &xpe("/a/b/c")]).is_none()); // lengths
        assert!(try_merge_rule1(&[&xpe("/a/b"), &xpe("a/b")]).is_none()); // anchoring
        assert!(try_merge_rule1(&[&xpe("/a/b"), &xpe("/x/y")]).is_none()); // two diffs
        assert!(try_merge_rule1(&[&xpe("/a/b"), &xpe("/a//b")]).is_none()); // operators
        assert!(try_merge_rule1(&[&xpe("/a/b"), &xpe("/a/b")]).is_none()); // identical
    }

    #[test]
    fn rule2_paper_example() {
        let s1 = xpe("/a/c/*/*");
        let s2 = xpe("/a//c/*/c");
        let m = try_merge_rule2(&s1, &s2).unwrap();
        assert_eq!(m.to_string(), "/a//c/*/*");
        assert!(covers(&m, &s1) && covers(&m, &s2));
    }

    #[test]
    fn rule2_rejections() {
        assert!(try_merge_rule2(&xpe("/a/b"), &xpe("/a/b")).is_none()); // identical
        assert!(try_merge_rule2(&xpe("/a/b/c"), &xpe("/x/y/c")).is_none()); // 2 test diffs
        assert!(try_merge_rule2(&xpe("/a/b"), &xpe("/a/b/c")).is_none()); // lengths
    }

    #[test]
    fn rule2_operator_only_difference() {
        // Covered pairs are rejected at `try_merge_pair`, but the raw
        // rule accepts a single operator diff.
        let m = try_merge_rule2(&xpe("/a/b/c"), &xpe("/a/b//c")).unwrap();
        assert_eq!(m.to_string(), "/a/b//c");
    }

    #[test]
    fn rule3_basic() {
        let s1 = xpe("/a/b/x/d/e");
        let s2 = xpe("/a/b/y/z/d/e");
        let m = try_merge_rule3(&s1, &s2, 0.5).unwrap();
        assert_eq!(m.to_string(), "/a/b//d/e");
        assert!(covers(&m, &s1) && covers(&m, &s2));
    }

    #[test]
    fn rule3_empty_infix_on_one_side() {
        let s1 = xpe("/a/b/d/e");
        let s2 = xpe("/a/b/x/d/e");
        let m = try_merge_rule3(&s1, &s2, 0.5).unwrap();
        assert!(covers(&m, &s1) && covers(&m, &s2));
    }

    #[test]
    fn rule3_threshold() {
        let s1 = xpe("/a/p/q/r/e");
        let s2 = xpe("/a/x/y/z/e");
        assert!(try_merge_rule3(&s1, &s2, 0.9).is_none());
        assert!(try_merge_rule3(&s1, &s2, 0.3).is_some());
    }

    #[test]
    fn rule3_requires_suffix() {
        assert!(try_merge_rule3(&xpe("/a/b"), &xpe("/a/c"), 0.0).is_none());
    }

    #[test]
    fn pair_skips_covering_pairs() {
        assert!(try_merge_pair(&xpe("/a/*"), &xpe("/a/b")).is_none());
    }

    #[test]
    fn all_mergers_cover_inputs() {
        let cases = [
            ("/a/b/c", "/a/b/d"),
            ("/a/b/c", "/a//b/d"),
            ("a/b/c/q", "a/x/y/q"),
            ("/p/q/r/s", "/p/z/r/s"),
        ];
        for (a, b) in cases {
            let (s1, s2) = (xpe(a), xpe(b));
            let mut mergers: Vec<Xpe> = try_merge_pair(&s1, &s2).into_iter().collect();
            // Rule 3 at any shared fraction, on a pair `try_merge_pair`
            // would hand it.
            if !covers(&s1, &s2) && !covers(&s2, &s1) {
                mergers.extend(try_merge_rule3(&s1, &s2, 0.0));
            }
            for m in mergers {
                assert!(covers(&m, &s1), "{m} must cover {a}");
                assert!(covers(&m, &s2), "{m} must cover {b}");
            }
        }
    }

    fn universe() -> Vec<Vec<String>> {
        // A tiny synthetic universe: /a/<x>/<y> for x,y in {b,c,d,e}.
        let mut u = Vec::new();
        for x in ["b", "c", "d", "e"] {
            for y in ["b", "c", "d", "e"] {
                u.push(vec!["a".to_string(), x.to_string(), y.to_string()]);
            }
        }
        u
    }

    #[test]
    fn degree_of_perfect_merger_is_zero() {
        // /a/b/* ∪-merges /a/b/b … /a/b/e exactly.
        let parts: Vec<Xpe> = ["b", "c", "d", "e"]
            .iter()
            .map(|y| xpe(&format!("/a/b/{y}")))
            .collect();
        let refs: Vec<&Xpe> = parts.iter().collect();
        let m = xpe("/a/b/*");
        assert_eq!(imperfect_degree(&m, &refs, &universe()), 0.0);
    }

    #[test]
    fn degree_matches_paper_arithmetic() {
        // §4.3: merging two of five admissible elements at a position
        // introduces 60% false positives at that position.
        let s1 = xpe("/a/b/d");
        let s2 = xpe("/a/b/e");
        let m = xpe("/a/b/*");
        // Universe restricted to /a/b/<y>, y ∈ {b,c,d,e} (4 options):
        let u: Vec<Vec<String>> = universe().into_iter().filter(|p| p[1] == "b").collect();
        let d = imperfect_degree(&m, &[&s1, &s2], &u);
        assert!(
            (d - 0.5).abs() < 1e-9,
            "2 of 4 covered -> degree 0.5, got {d}"
        );
    }

    #[test]
    fn degree_empty_universe() {
        let u: Vec<Vec<String>> = Vec::new();
        assert_eq!(imperfect_degree(&xpe("/a"), &[&xpe("/a/b")], &u), 0.0);
    }

    #[test]
    fn merge_tree_perfect() {
        let mut t = SubscriptionTree::<Vec<u32>>::new();
        for y in ["b", "c", "d", "e"] {
            t.insert(xpe(&format!("/a/b/{y}")), vec![]);
        }
        assert_eq!(t.root_count(), 4);
        let report = merge_tree(&mut t, &universe(), 0.0);
        assert!(!report.mergers.is_empty());
        assert_eq!(t.root_count(), 1, "all four merge into /a/b/*");
        t.check_invariants().unwrap();
    }

    #[test]
    fn merge_tree_respects_degree_budget() {
        let mut t = SubscriptionTree::<Vec<u32>>::new();
        t.insert(xpe("/a/b/d"), vec![]);
        t.insert(xpe("/a/b/e"), vec![]);
        // /a/b/* would select 4 paths, the originals 2 → degree 0.5.
        let report = merge_tree(&mut t, &universe(), 0.1);
        assert!(report.mergers.is_empty());
        assert_eq!(t.root_count(), 2);
        let report = merge_tree(&mut t, &universe(), 0.6);
        assert_eq!(report.mergers.len(), 1);
        assert_eq!(t.root_count(), 1);
    }

    #[test]
    fn merge_tree_cascades() {
        // /a/b/c + /a/b/d -> /a/b/*; /a/c/c + /a/c/d -> /a/c/*; then
        // /a/b/* + /a/c/* -> /a/*/* (universe permitting).
        let mut t = SubscriptionTree::<Vec<u32>>::new();
        for (x, y) in [("b", "b"), ("b", "c"), ("b", "d"), ("b", "e")] {
            t.insert(xpe(&format!("/a/{x}/{y}")), vec![]);
        }
        for (x, y) in [("c", "b"), ("c", "c"), ("c", "d"), ("c", "e")] {
            t.insert(xpe(&format!("/a/{x}/{y}")), vec![]);
        }
        merge_tree(&mut t, &universe(), 0.5);
        assert!(
            t.root_count() <= 2,
            "root count {} after cascade",
            t.root_count()
        );
        t.check_invariants().unwrap();
    }
}
