//! Advertisement–subscription overlap (§3.2, §3.3).
//!
//! A broker forwards a subscription toward the publisher of an
//! advertisement `a` iff their publication sets intersect:
//! `P(a) ∩ P(s) ≠ ∅`. Because an advertisement has the same length as
//! the publications it advertises, and a subscription matches a
//! publication by embedding into a prefix-extendable window of the
//! path, the intersection test reduces to positional *overlap* checks
//! (Figure 2(b)): two node tests overlap unless both are distinct
//! names.
//!
//! Soundness note: a false positive here merely forwards a subscription
//! one hop too far (wasted traffic); a false negative breaks delivery.
//! Every algorithm in this module is exact except where explicitly
//! documented. Each rule has one implementation; the relative rule
//! scans every window instead of taking the paper's KMP shift (see
//! [`rel_expr_and_adv`]).

use crate::adv::{AdvPath, Advertisement};
use xdn_xpath::{Axis, NodeTest, Step, Xpe};

/// `AbsExprAndAdv` (§3.2): overlap of an *absolute simple* XPE (only
/// `/` and `*`) with a non-recursive advertisement.
///
/// The subscription constrains a prefix of every matching publication,
/// so it overlaps the advertisement iff it is no longer than the
/// advertisement and every aligned pair of positions overlaps.
///
/// ```
/// use xdn_core::adv::AdvPath;
/// use xdn_core::advmatch::abs_expr_and_adv;
///
/// // The paper's example: a = /b/*/*/c/c/d, s = /*/c/*/b/c — no
/// // overlap because position 5 pits `c` against `b`.
/// let a = AdvPath::from_names(&["b", "*", "*", "c", "c", "d"]);
/// let s: xdn_xpath::Xpe = "/*/c/*/b/c".parse().unwrap();
/// assert!(!abs_expr_and_adv(&a, &s));
/// ```
pub fn abs_expr_and_adv(adv: &AdvPath, sub: &Xpe) -> bool {
    debug_assert!(sub.is_absolute() && sub.is_simple());
    let steps = sub.steps();
    steps.len() <= adv.len()
        && steps
            .iter()
            .zip(adv.positions())
            .all(|(s, a)| s.test.overlaps(a))
}

/// `RelExprAndAdv` (§3.2): overlap of a *relative simple* XPE with a
/// non-recursive advertisement. The subscription floats, so it overlaps
/// iff some window of the advertisement overlaps it position-wise;
/// every window is tried, `O(n·k)`.
///
/// The paper shortens this scan with a KMP shift. That shift is unsound
/// when the advertisement contains wildcards (DESIGN.md §6), and the
/// scan costs at most `k·n` step tests with `k ≤ 10` at the paper's
/// query lengths, so only the scan is kept.
pub fn rel_expr_and_adv(adv: &AdvPath, sub: &Xpe) -> bool {
    debug_assert!(!sub.is_absolute() && sub.is_simple());
    let pattern = sub.steps();
    adv.positions()
        .windows(pattern.len())
        .any(|window| pattern.iter().zip(window).all(|(s, a)| s.test.overlaps(a)))
}

/// `DesExprAndAdv` (§3.2): overlap of an XPE containing descendant
/// (`//`) operators with a non-recursive advertisement.
///
/// The XPE is split into maximal `//`-free fragments; each fragment is
/// placed greedily at its earliest overlapping window of the
/// advertisement. Greedy placement is exact because each advertisement
/// position is constrained by at most one fragment position, so
/// feasibility is position-independent.
pub fn des_expr_and_adv(adv: &AdvPath, sub: &Xpe) -> bool {
    let text = adv.positions();
    let fragments = sub.fragments();
    let anchored = sub.is_absolute() && sub.steps()[0].axis == Axis::Child;
    let mut pos = 0usize;
    for (i, frag) in fragments.iter().enumerate() {
        if i == 0 && anchored {
            if !window_overlaps(frag, text, 0) {
                return false;
            }
            pos = frag.len();
        } else {
            match (pos..=text.len().saturating_sub(frag.len()))
                .find(|&start| window_overlaps(frag, text, start))
            {
                Some(start) => pos = start + frag.len(),
                None => return false,
            }
        }
        if pos > text.len() {
            return false;
        }
    }
    true
}

fn window_overlaps(frag: &[Step], text: &[NodeTest], at: usize) -> bool {
    at + frag.len() <= text.len()
        && frag
            .iter()
            .zip(&text[at..])
            .all(|(s, t)| s.test.overlaps(t))
}

/// `AbsExprAndSimRecAdv` (Figure 3): overlap of an absolute simple XPE
/// with a simple-recursive advertisement `a = a1(a2)+a3`.
///
/// Follows the paper's algorithm: if the subscription fits within
/// `a1 a2` it is checked directly; otherwise the number of repetitions
/// needed to reach the subscription's length is bounded (`q..=p`) and
/// each candidate expansion is checked.
///
/// # Panics
///
/// Panics if `a2` is empty (a repetition must contribute positions).
pub fn abs_expr_and_sim_rec_adv(a1: &AdvPath, a2: &AdvPath, a3: &AdvPath, sub: &Xpe) -> bool {
    assert!(!a2.is_empty(), "recursive pattern must be non-empty");
    debug_assert!(sub.is_absolute() && sub.is_simple());
    let s = sub.len();
    let l12 = a1.len() + a2.len();
    // Line 1: subscription within the first iteration.
    if s <= l12 {
        let prefix = concat(&[a1, a2]);
        return abs_expr_and_adv(&prefix, sub);
    }
    // Lines 2-3: the prefix a1 a2 must overlap the subscription's head.
    let prefix = concat(&[a1, a2]);
    if !prefix_overlaps(&prefix, sub, 0, l12) {
        return false;
    }
    // Lines 4-6: bound the repetition count.
    let l123 = l12 + a3.len();
    let q = if s <= l123 {
        0
    } else {
        (s - l123) / a2.len() + 1
    };
    let p = (s - l12) / a2.len();
    // Lines 7-12: try each repetition count; with c extra repetitions
    // the tail of the subscription beyond a1 a2 a2^c must overlap a3
    // (success) or another copy of a2 (continue).
    for c in q..=p {
        let offset = c * a2.len() + l12;
        if tail_overlaps(a3, sub, offset) {
            return true;
        }
        let end = if c == p { s } else { offset + a2.len() };
        if !segment_overlaps(a2, sub, offset, end) {
            return false;
        }
    }
    true
}

/// Overlap of `sub[from..to]` against `adv` positions `0..(to-from)`.
fn segment_overlaps(adv: &AdvPath, sub: &Xpe, from: usize, to: usize) -> bool {
    let steps = &sub.steps()[from..to.min(sub.len())];
    steps.len() <= adv.len()
        && steps
            .iter()
            .zip(adv.positions())
            .all(|(s, a)| s.test.overlaps(a))
}

/// Overlap of the subscription tail starting at `from` against `adv`
/// (tail must fit within `adv`).
fn tail_overlaps(adv: &AdvPath, sub: &Xpe, from: usize) -> bool {
    if from > sub.len() {
        return false;
    }
    segment_overlaps(adv, sub, from, sub.len())
}

fn prefix_overlaps(adv: &AdvPath, sub: &Xpe, from: usize, to: usize) -> bool {
    segment_overlaps(adv, sub, from, to)
}

fn concat(parts: &[&AdvPath]) -> AdvPath {
    let mut v = Vec::new();
    for p in parts {
        v.extend(p.positions().iter().cloned());
    }
    AdvPath::new(v)
}

/// General advertisement–subscription overlap: dispatches on the
/// subscription's shape and the advertisement's kind.
///
/// Non-recursive advertisements use the §3.2 algorithms directly.
/// Recursive advertisements (simple, series, or embedded) are handled
/// by bounded expansion: a subscription of length `k` overlaps the
/// advertisement iff it overlaps some expansion in which each
/// repetition is unrolled at most `2k + 2` times (a pumping argument —
/// a match embeds into at most `k` positions, so each repetition has at
/// most `2k + 1` iterations touched by fragment windows and the rest
/// can be removed).
///
/// ```
/// use xdn_core::adv::Advertisement;
/// use xdn_core::advmatch::adv_overlaps_sub;
///
/// let a = Advertisement::parse("/news/section(/section)+/article").unwrap();
/// let s: xdn_xpath::Xpe = "/news//article".parse().unwrap();
/// assert!(adv_overlaps_sub(&a, &s));
/// ```
pub fn adv_overlaps_sub(adv: &Advertisement, sub: &Xpe) -> bool {
    if let Some(path) = adv.as_non_recursive() {
        return nonrec_overlaps(path, sub);
    }
    let k = sub.len();
    let max_reps = 2 * k + 2;
    // Expansions longer than the subscription can still overlap
    // (absolute subscriptions constrain only a prefix), but positions
    // beyond `k + period` never interact with the subscription, so the
    // length cap below loses nothing.
    let longest_period = adv
        .segments()
        .iter()
        .map(crate::adv::AdvSegment::min_len)
        .max()
        .unwrap_or(1);
    let max_len = adv.min_len() + k + longest_period + 1;
    adv.expansions(max_reps, max_len)
        .iter()
        .any(|exp| nonrec_overlaps(exp, sub))
}

/// An advertisement prepared for repeated overlap tests: recursive
/// repetitions are expanded once, up to a maximum subscription length,
/// instead of on every [`adv_overlaps_sub`] call.
///
/// A router stores each advertisement for the lifetime of its producer
/// and matches every passing subscription against it, so the one-time
/// expansion (bounded by the same pumping argument as
/// [`adv_overlaps_sub`]) amortizes to a ~100× speedup on recursive
/// advertisement sets. Subscriptions longer than the prepared bound
/// fall back to the exact dynamic algorithm.
///
/// ```
/// use xdn_core::adv::Advertisement;
/// use xdn_core::advmatch::{adv_overlaps_sub, PreparedAdv};
///
/// let adv = Advertisement::parse("/news/section(/section)+/article").unwrap();
/// let prepared = PreparedAdv::new(adv.clone(), 16);
/// let sub: xdn_xpath::Xpe = "/news//article".parse().unwrap();
/// assert_eq!(prepared.overlaps(&sub), adv_overlaps_sub(&adv, &sub));
/// ```
#[derive(Debug, Clone)]
pub struct PreparedAdv {
    adv: Advertisement,
    /// The recursive advertisement's expansions; empty for a
    /// non-recursive one, which is matched directly.
    expansions: Vec<AdvPath>,
    max_sub_len: usize,
}

impl PreparedAdv {
    /// Prepares `adv` for subscriptions up to `max_sub_len` steps.
    pub fn new(adv: Advertisement, max_sub_len: usize) -> Self {
        let expansions = if adv.as_non_recursive().is_some() {
            Vec::new()
        } else {
            let k = max_sub_len;
            let longest_period = adv
                .segments()
                .iter()
                .map(crate::adv::AdvSegment::min_len)
                .max()
                .unwrap_or(1);
            adv.expansions(2 * k + 2, adv.min_len() + k + longest_period + 1)
        };
        PreparedAdv {
            adv,
            expansions,
            max_sub_len,
        }
    }

    /// The underlying advertisement.
    pub fn adv(&self) -> &Advertisement {
        &self.adv
    }

    /// Exact overlap test, using the precomputed expansions when the
    /// subscription fits the prepared bound.
    pub fn overlaps(&self, sub: &Xpe) -> bool {
        if sub.len() > self.max_sub_len {
            return adv_overlaps_sub(&self.adv, sub);
        }
        match self.adv.as_non_recursive() {
            Some(path) => nonrec_overlaps(path, sub),
            None => self.expansions.iter().any(|e| nonrec_overlaps(e, sub)),
        }
    }
}

fn nonrec_overlaps(path: &AdvPath, sub: &Xpe) -> bool {
    if sub.is_simple() {
        if sub.is_absolute() {
            abs_expr_and_adv(path, sub)
        } else {
            rel_expr_and_adv(path, sub)
        }
    } else {
        des_expr_and_adv(path, sub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn path(names: &[&str]) -> AdvPath {
        AdvPath::from_names(names)
    }

    #[test]
    fn abs_overlap_basic() {
        let a = path(&["a", "b", "c"]);
        assert!(abs_expr_and_adv(&a, &xpe("/a/b")));
        assert!(abs_expr_and_adv(&a, &xpe("/a/*/c")));
        assert!(!abs_expr_and_adv(&a, &xpe("/a/c")));
        assert!(!abs_expr_and_adv(&a, &xpe("/a/b/c/d"))); // longer than adv
    }

    #[test]
    fn abs_overlap_paper_example() {
        // §3.2: a = /b/*/*/c/c/d, s = /*/c/*/b/c fails at i = 4
        // (advertisement c vs subscription b).
        let a = path(&["b", "*", "*", "c", "c", "d"]);
        assert!(!abs_expr_and_adv(&a, &xpe("/*/c/*/b/c")));
        // Fixing position 4 makes it overlap.
        assert!(abs_expr_and_adv(&a, &xpe("/*/c/*/c/c")));
    }

    #[test]
    fn abs_overlap_wildcard_adv() {
        let a = path(&["*", "*"]);
        assert!(abs_expr_and_adv(&a, &xpe("/x/y")));
    }

    #[test]
    fn rel_overlap_basic() {
        let a = path(&["a", "b", "c", "d"]);
        assert!(rel_expr_and_adv(&a, &xpe("b/c")));
        assert!(rel_expr_and_adv(&a, &xpe("c/d")));
        assert!(!rel_expr_and_adv(&a, &xpe("b/d")));
        assert!(!rel_expr_and_adv(&a, &xpe("a/b/c/d/e")));
        // A periodic advertisement: each `a/b` window fails on `c`.
        let periodic = path(&["a", "b", "a", "b", "a"]);
        assert!(!rel_expr_and_adv(&periodic, &xpe("a/b/c")));
    }

    #[test]
    fn rel_overlap_wildcards() {
        // A subscription wildcard: the match starts at the first `a`,
        // which a shift by equality would skip.
        assert!(rel_expr_and_adv(
            &path(&["x", "a", "a", "b"]),
            &xpe("*/a/b")
        ));
        // An advertisement wildcard stands for the subscription's `a`.
        assert!(rel_expr_and_adv(
            &path(&["a", "*", "b", "c"]),
            &xpe("a/b/c")
        ));
    }

    #[test]
    fn des_overlap_paper_example() {
        // §3.2: a = /a/*/e/*/d/*/c/b, s = */a//d/*/c//b returns 1.
        let a = path(&["a", "*", "e", "*", "d", "*", "c", "b"]);
        assert!(des_expr_and_adv(&a, &xpe("*/a//d/*/c//b")));
    }

    #[test]
    fn des_overlap_anchoring() {
        let a = path(&["a", "b", "c"]);
        assert!(des_expr_and_adv(&a, &xpe("/a//c")));
        assert!(!des_expr_and_adv(&a, &xpe("/b//c"))); // anchored at root
        assert!(des_expr_and_adv(&a, &xpe("//b/c")));
        // Descendant includes child: /a//b//c embeds into a/b/c.
        assert!(des_expr_and_adv(&a, &xpe("/a//b//c")));
        assert!(!des_expr_and_adv(&a, &xpe("/a//c//b")));
    }

    #[test]
    fn des_overlap_order_matters() {
        let a = path(&["a", "c", "b"]);
        assert!(!des_expr_and_adv(&a, &xpe("/a//b/c")));
        assert!(des_expr_and_adv(&a, &xpe("/a//c/b")));
    }

    #[test]
    fn sim_rec_paper_example() {
        // Figure 3 walkthrough: a = /a/*/c(/e/d)+/*/c/e,
        // s = /*/a/c/*/d/e/d/* matches with the pattern doubled.
        let a1 = path(&["a", "*", "c"]);
        let a2 = path(&["e", "d"]);
        let a3 = path(&["*", "c", "e"]);
        assert!(abs_expr_and_sim_rec_adv(
            &a1,
            &a2,
            &a3,
            &xpe("/*/a/c/*/d/e/d/*")
        ));
    }

    #[test]
    fn sim_rec_short_subscription() {
        let a1 = path(&["a"]);
        let a2 = path(&["b"]);
        let a3 = path(&["c"]);
        assert!(abs_expr_and_sim_rec_adv(&a1, &a2, &a3, &xpe("/a/b")));
        assert!(!abs_expr_and_sim_rec_adv(&a1, &a2, &a3, &xpe("/a/c")));
    }

    #[test]
    fn sim_rec_agrees_with_expansion_dispatcher() {
        let adv = Advertisement::parse("/a/*/c(/e/d)+/*/c/e").unwrap();
        let a1 = path(&["a", "*", "c"]);
        let a2 = path(&["e", "d"]);
        let a3 = path(&["*", "c", "e"]);
        for s in [
            "/*/a/c/*/d/e/d/*",
            "/a/b/c/e/d/x/c/e",
            "/a/b/c/e/d/e/d/x/c/e",
            "/a/b/c/e/e",
            "/a/b",
            "/a/b/c/d",
        ] {
            let sub = xpe(s);
            assert_eq!(
                abs_expr_and_sim_rec_adv(&a1, &a2, &a3, &sub),
                adv_overlaps_sub(&adv, &sub),
                "disagreement on {s}"
            );
        }
    }

    #[test]
    fn dispatcher_series_recursive() {
        let adv = Advertisement::parse("/r(/a)+/m(/b)+/z").unwrap();
        assert!(adv_overlaps_sub(&adv, &xpe("/r/a/m")));
        assert!(adv_overlaps_sub(&adv, &xpe("/r/a/a/a/m/b/z")));
        assert!(adv_overlaps_sub(&adv, &xpe("//z")));
        assert!(adv_overlaps_sub(&adv, &xpe("a/m/b")));
        assert!(!adv_overlaps_sub(&adv, &xpe("/r/m")));
        assert!(!adv_overlaps_sub(&adv, &xpe("/r/b")));
    }

    #[test]
    fn dispatcher_embedded_recursive() {
        let adv = Advertisement::parse("/r(/a(/b)+/c)+/z").unwrap();
        assert!(adv_overlaps_sub(&adv, &xpe("/r/a/b/c/z")));
        assert!(adv_overlaps_sub(&adv, &xpe("/r/a/b/b/b/c")));
        assert!(adv_overlaps_sub(&adv, &xpe("b//z")));
        assert!(!adv_overlaps_sub(&adv, &xpe("/r/b")));
    }

    #[test]
    fn dispatcher_relative_and_descendant_vs_recursive() {
        let adv = Advertisement::parse("/news/section(/section)+/article").unwrap();
        assert!(adv_overlaps_sub(&adv, &xpe("section/article")));
        assert!(adv_overlaps_sub(&adv, &xpe("/news//article")));
        assert!(adv_overlaps_sub(
            &adv,
            &xpe("/news/section/section/section/article")
        ));
        assert!(!adv_overlaps_sub(&adv, &xpe("/news/article")));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_recursive_pattern_panics() {
        let a = path(&["a"]);
        let empty = AdvPath::new(vec![]);
        abs_expr_and_sim_rec_adv(&a, &empty, &a, &xpe("/a"));
    }
}
