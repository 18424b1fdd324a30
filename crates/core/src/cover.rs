//! Covering (containment) of XPath expressions (§4.2).
//!
//! Subscription `s1` *covers* `s2` iff `P(s1) ⊇ P(s2)` — every
//! publication matching `s2` also matches `s1`. Covering lets a broker
//! drop covered subscriptions from downstream routing tables without
//! changing delivery.
//!
//! Containment for the full `/`, `//`, `*` fragment is coNP-complete
//! (Miklau & Suciu), so like the paper this module implements *sound*
//! PTIME rules: [`covers`] never returns `true` unless containment
//! provably holds (soundness is what correctness of covering-based
//! routing requires — a false `true` would drop live subscriptions).
//! On simple expressions it is exact but for one gap: an absolute
//! all-`*` coverer with no more steps than a relative coveree (see
//! [`covers`]). A missed covering costs forwarding traffic, never a
//! delivery.
//!
//! Algorithms: `AbsSimCov` ([`abs_sim_cov`]) for two absolute simple
//! XPEs, `RelSimCov` ([`rel_sim_cov`], a scan over every window rather
//! than the paper's KMP shift) for a relative simple coverer, and
//! `DesCov` ([`des_cov`]) for expressions containing descendant
//! operators, including the paper's trailing-wildcard special case.
//!
//! Every one of these rules places each step of the coverer on a step
//! of its own in the coveree, and a name test covers only the same
//! name. So `covers(a, b)` can only hold when every element name in `a`
//! is a name in `b` and `a` has no more steps than `b`. A root-anchored
//! coverer (absolute, starting with `/`) covers only a root-anchored
//! coveree, and every rule places the coverer's leading fragment (its
//! steps up to the first `//`) on the coveree's leading fragment at
//! the same positions: so each name there is also `b`'s name at that
//! position. `CoverSig` summarises an expression for these tests,
//! which callers that compare one expression against many stored ones
//! (the subscription tree) run before `covers`.

use xdn_xpath::{Axis, Step, Xpe};

/// True if `s1` covers `s2` (`P(s1) ⊇ P(s2)`).
///
/// Dispatches to the specialised algorithms below. Sound for the whole
/// fragment. On simple expressions it is exact except when `s1` is
/// absolute, all `*`, and no longer than a relative `s2`: every path
/// matching `s2` then has at least `s1.len()` elements, so `s1` covers
/// `s2`, but this returns false (`covers("/*", "a")`).
///
/// ```
/// use xdn_core::cover::covers;
/// let wide: xdn_xpath::Xpe = "/a/*".parse().unwrap();
/// let narrow: xdn_xpath::Xpe = "/a/b/c".parse().unwrap();
/// assert!(covers(&wide, &narrow));
/// ```
pub fn covers(s1: &Xpe, s2: &Xpe) -> bool {
    if s1.is_simple() && s2.is_simple() {
        match (s1.is_absolute(), s2.is_absolute()) {
            (true, true) => abs_sim_cov(s1, s2),
            // A relative XPE's paths may start with any elements, which
            // only an all-`*` absolute XPE accepts. That case is left
            // uncovered (see above): the subscription tree's root
            // buckets assume it, so covering it would move forwarding
            // decisions.
            (true, false) => false,
            (false, _) => rel_sim_cov(s1, s2),
        }
    } else {
        des_cov(s1, s2)
    }
}

/// The covering signature of an expression: what [`covers`] needs of
/// it before it can hold.
///
/// `covers(a, b)` implies `sig(a).may_cover(sig(b))` (the rules in the
/// module doc). Names are kept as 64-bit masks, one bit per name, or
/// per name and position; two keys sharing a bit only let more pairs
/// through to `covers`. A signature is worth keeping only beside a
/// stored expression: hashing the names costs about as much as the
/// `covers` call it saves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoverSig {
    /// Bit [`name_bit`] of every element name the expression tests.
    names: u64,
    /// Bit [`anchored_bit`] of every name in the leading fragment of a
    /// root-anchored expression, with its position; 0 for one that is
    /// not root-anchored.
    anchored: u64,
    steps: usize,
}

impl CoverSig {
    /// The signature of `xpe`. `*` tests no name and sets no bit.
    pub(crate) fn of(xpe: &Xpe) -> Self {
        let steps = xpe.steps();
        // Empty unless the expression is root-anchored.
        let leading = steps
            .iter()
            .take_while(|s| xpe.is_absolute() && s.axis == Axis::Child);
        CoverSig {
            names: steps
                .iter()
                .filter_map(|s| s.test.name())
                .fold(0, |mask, n| mask | name_bit(n)),
            anchored: leading
                .enumerate()
                .filter_map(|(i, s)| Some(anchored_bit(s.test.name()?, i)))
                .fold(0, |mask, bit| mask | bit),
            steps: xpe.len(),
        }
    }

    /// False when `covers(a, b)` is certainly false, where `self` is
    /// `a`'s signature and `covered` is `b`'s.
    pub(crate) fn may_cover(self, covered: CoverSig) -> bool {
        self.names & !covered.names == 0
            && self.anchored & !covered.anchored == 0
            && self.steps <= covered.steps
    }
}

/// FNV-1a of a name's bytes. The hash is fixed, so a name sets the same
/// bits in every process.
fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The mask bit of an element name: its hash mod 64.
fn name_bit(name: &str) -> u64 {
    1 << (name_hash(name) % 64)
}

/// The mask bit of an element name at a position of a leading
/// fragment: the name's hash and the position, mixed (Fibonacci
/// hashing), keep the top 6 bits.
fn anchored_bit(name: &str, position: usize) -> u64 {
    const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
    let key = name_hash(name) ^ (position as u64 + 1).wrapping_mul(PHI);
    1 << (key.wrapping_mul(PHI) >> 58)
}

/// `AbsSimCov` (§4.2): covering between two absolute simple XPEs.
///
/// `s1` covers `s2` iff `s1` is no longer than `s2` (a shorter XPE
/// constrains fewer positions, hence matches a superset) and each of
/// `s1`'s positions covers the aligned position of `s2`.
pub fn abs_sim_cov(s1: &Xpe, s2: &Xpe) -> bool {
    debug_assert!(s1.is_absolute() && s1.is_simple());
    debug_assert!(s2.is_absolute() && s2.is_simple());
    s1.len() <= s2.len() && s1.steps().iter().zip(s2.steps()).all(|(a, b)| a.covers(b))
}

/// `RelSimCov` (§4.2): a relative simple `s1` covers `s2` (absolute or
/// relative, simple) iff `s1` covers some window of `s2` position-wise.
/// Every window is tried, `O(k·n)`; the paper's KMP shift is not used
/// (see [`crate::advmatch::rel_expr_and_adv`]).
pub fn rel_sim_cov(s1: &Xpe, s2: &Xpe) -> bool {
    debug_assert!(!s1.is_absolute() && s1.is_simple() && s2.is_simple());
    let pattern = s1.steps();
    s2.steps()
        .windows(pattern.len())
        .any(|window| pattern.iter().zip(window).all(|(a, b)| a.covers(b)))
}

/// `DesCov` (§4.2): covering when either expression may contain `//`.
///
/// Both XPEs are split at descendant operators into child-connected
/// fragments. `s1` covers `s2` when each fragment of `s1` can be
/// justified against `s2`'s fragments, in order, by one of two rules:
///
/// 1. **Window rule** — the fragment covers a contiguous window inside
///    a single fragment of `s2` (every path matching `s2` carries the
///    window's elements contiguously, and `//` between `s1` fragments
///    only requires the next placement not to precede the previous
///    one).
/// 2. **Trailing-wildcard rule** (the paper's special case, e.g.
///    `/a/*//*/d` covers `/a//b/c/d`) — a fragment `g/*…*` whose tail
///    is `k` wildcards may place `g` flush against the end of an `s2`
///    fragment and let the wildcards consume the following elements;
///    those `k` elements are only guaranteed to exist inside later
///    `s2` fragments (gaps may be empty), so a *pending* count is
///    carried forward and must be paid from guaranteed positions
///    before — or after, for the final fragment — the next placement.
///
/// The search backtracks over placements, so the rules are applied
/// exhaustively; the result is sound (each rule is containment-
/// preserving) and complete on the paper's examples.
pub fn des_cov(s1: &Xpe, s2: &Xpe) -> bool {
    let anchored1 = s1.is_absolute() && s1.steps()[0].axis == Axis::Child;
    let anchored2 = s2.is_absolute() && s2.steps()[0].axis == Axis::Child;
    if anchored1 && !anchored2 {
        // A root-anchored coverer cannot cover a floating coveree.
        return false;
    }
    let f1 = s1.fragments();
    let f2 = s2.fragments();
    place(&f1, 0, &f2, 0, 0, 0, anchored1)
}

/// Recursive placement search. State: next `s1` fragment index `i`,
/// current `s2` fragment `j`, next free offset `pos` within it, and
/// `pending` wildcard positions still owed.
fn place(
    f1: &[&[Step]],
    i: usize,
    f2: &[&[Step]],
    j: usize,
    pos: usize,
    pending: usize,
    anchor_first: bool,
) -> bool {
    if i == f1.len() {
        // All fragments placed; pending wildcards must be payable from
        // guaranteed later positions (gaps may be empty and the path
        // may end at s2's last matched element).
        return pending <= guaranteed_from(f2, j, pos);
    }
    let frag = f1[i];
    let (gpart, wilds) = split_trailing_wildcards(frag);
    // Enumerate candidate s2 fragments.
    for jj in j..f2.len() {
        let start_pos = if jj == j { pos } else { 0 };
        // Guaranteed elements strictly between the current point and
        // the start of fragment jj.
        let before_jj = guaranteed_between(f2, j, pos, jj);
        let flen = f2[jj].len();

        // Rule 1: whole fragment inside f2[jj].
        if frag.len() <= flen {
            for p in start_pos..=flen - frag.len() {
                if anchor_first && i == 0 && (jj != 0 || p != 0) {
                    break;
                }
                // Pay pending from guaranteed positions before p (the
                // offset itself supplies `p - start_pos` of them).
                if before_jj + (p - start_pos) < pending {
                    continue;
                }
                if window_covers(frag, f2[jj], p)
                    && place(f1, i + 1, f2, jj, p + frag.len(), 0, anchor_first)
                {
                    return true;
                }
            }
        }

        // Rule 2: trailing wildcards absorbed past the fragment end.
        if wilds > 0 && jj < f2.len() && gpart.len() <= flen {
            let p = flen - gpart.len();
            let p_ok = p >= start_pos && before_jj + (p - start_pos) >= pending;
            let anchor_ok = !(anchor_first && i == 0) || (jj == 0 && p == 0);
            if p_ok
                && anchor_ok
                && window_covers(gpart, f2[jj], p)
                && place(f1, i + 1, f2, jj + 1, 0, wilds, anchor_first)
            {
                return true;
            }
        }

        if anchor_first && i == 0 {
            // The anchored first fragment may only sit at the very
            // start; no later candidates.
            break;
        }
    }
    false
}

/// `s1` fragment window covers `f2[jj][p ..]` position-wise.
fn window_covers(frag: &[Step], target: &[Step], p: usize) -> bool {
    if p + frag.len() > target.len() {
        return false;
    }
    frag.iter().zip(&target[p..]).all(|(a, b)| a.covers(b))
}

/// Splits a fragment into its head and the count of trailing wildcards.
fn split_trailing_wildcards(frag: &[Step]) -> (&[Step], usize) {
    let mut k = 0;
    // A wildcard with predicates still constrains the element, so it
    // cannot be absorbed into a descendant gap.
    while k < frag.len()
        && frag[frag.len() - 1 - k].test.is_wildcard()
        && frag[frag.len() - 1 - k].predicates.is_empty()
    {
        k += 1;
    }
    (&frag[..frag.len() - k], k)
}

/// Guaranteed path elements from state `(j, pos)` to the end of `s2`'s
/// fragments (gaps contribute nothing in the worst case).
fn guaranteed_from(f2: &[&[Step]], j: usize, pos: usize) -> usize {
    if j >= f2.len() {
        return 0;
    }
    (f2[j].len() - pos.min(f2[j].len())) + f2[j + 1..].iter().map(|f| f.len()).sum::<usize>()
}

/// Guaranteed elements strictly between state `(j, pos)` and the start
/// of fragment `jj` (0 when `jj == j`).
fn guaranteed_between(f2: &[&[Step]], j: usize, pos: usize, jj: usize) -> usize {
    if jj == j {
        return 0;
    }
    (f2[j].len() - pos.min(f2[j].len())) + f2[j + 1..jj].iter().map(|f| f.len()).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn c(a: &str, b: &str) -> bool {
        covers(&xpe(a), &xpe(b))
    }

    #[test]
    fn abs_sim_basic() {
        assert!(c("/a", "/a/b"));
        assert!(c("/a/*", "/a/b"));
        assert!(c("/a/b", "/a/b"));
        assert!(!c("/a/b", "/a"));
        assert!(!c("/a/b", "/a/c"));
        assert!(!c("/a/b/c", "/a/b")); // longer cannot cover shorter
        assert!(!c("/a/b", "/a/*")); // name cannot cover wildcard
    }

    #[test]
    fn absolute_cannot_cover_relative() {
        assert!(!c("/a", "a"));
        assert!(!c("/a/b", "a/b"));
    }

    #[test]
    fn relative_covers_absolute_and_relative() {
        assert!(c("b", "/a/b"));
        assert!(c("b/c", "/a/b/c"));
        assert!(c("b/c", "a/b/c/d"));
        assert!(c("*", "/a"));
        assert!(!c("b/c", "/a/c/b"));
        assert!(!c("b/c/d", "b/c"));
    }

    #[test]
    fn rel_sim_cov_on_wildcards() {
        let cases = [
            ("*/a", "/x/a/y", true),
            ("*/a", "/a/x", false),
            ("a/*", "/a/b", true),
            ("a/*/a", "/a/b/a", true),
            ("*/*", "/a/b", true),
            ("a/b", "/a/*", false),
            ("a/a", "/x/a/a/y", true),
        ];
        for (a, b, expect) in cases {
            assert_eq!(rel_sim_cov(&xpe(a), &xpe(b)), expect, "{a} vs {b}");
        }
    }

    #[test]
    fn gap_absolute_wildcards_over_relative() {
        // A path matching a relative XPE has at least as many elements
        // as the XPE has steps, so an absolute all-`*` XPE no longer
        // than it covers it: `/*` covers `a`, and `/*/*` covers `a/b`
        // and `*/*/*`. `covers` never lets an absolute XPE cover a
        // relative one, so it misses these; the miss costs traffic,
        // not deliveries.
        assert!(!c("/*", "a"));
        assert!(!c("/*/*", "a/b"));
        assert!(!c("/*/*", "*/*/*"));
    }

    #[test]
    fn wildcard_in_coveree_needs_wildcard_coverer() {
        // s2 = /a/* matches paths /a/<anything>; s1 = a/b only matches
        // paths with a literal b.
        assert!(!c("a/b", "/a/*"));
        assert!(c("a/*", "/a/*"));
        assert!(c("*", "/a/*"));
    }

    #[test]
    fn des_cov_paper_example_positive() {
        // §4.2: s1 = /*/a//*/c covers s2 = /a/a/*//c/e/c/d.
        assert!(c("/*/a//*/c", "/a/a/*//c/e/c/d"));
    }

    #[test]
    fn des_cov_paper_example_negative() {
        // §4.2: */c does not cover *//c, so s1 fails against s2.
        assert!(!c("/*/a//*/c", "/a/a/*//c/b/d"));
    }

    #[test]
    fn des_cov_trailing_wildcard_special_case() {
        // §4.2: s1 = /a/*//*/d covers s2 = /a//b/c/d via the trailing
        // wildcard crossing the // boundary.
        assert!(c("/a/*//*/d", "/a//b/c/d"));
    }

    #[test]
    fn des_cov_simple_vs_descendant() {
        assert!(c("/a", "/a//b"));
        assert!(!c("/a/b", "/a//b")); // path a/x/b breaks it
        assert!(c("/a//b", "/a/b")); // descendant includes child
        assert!(c("/a//c", "/a/b/c"));
        // /a/c/b paths carry c at depth 2, which satisfies //c.
        assert!(c("/a//c", "/a/c/b"));
        // But /a//c/b genuinely requires b directly under a deep c.
        assert!(!c("/a//c/b", "/a/b/c"));
    }

    #[test]
    fn des_cov_descendant_both() {
        assert!(c("/a//c", "/a//b//c"));
        assert!(c("//c", "/a/b/c"));
        assert!(c("//c", "a//c"));
        assert!(!c("/a//b//c", "/a//c"));
    }

    #[test]
    fn des_cov_relative() {
        assert!(c("b//d", "/a/b/c/d"));
        assert!(c("b//d", "/a/b//d"));
        assert!(!c("b//d", "/a/d//b"));
    }

    #[test]
    fn des_cov_wildcard_gap_needs_guaranteed_elements() {
        // s1 = a/*/*/d needs two concrete elements between a and d;
        // s2 = /a//d guarantees none.
        assert!(!c("a/*/*//d", "/a//d"));
        // But /a//b/c/d guarantees b and c.
        assert!(c("a/*/*//d", "/a//b/c/d"));
    }

    #[test]
    fn reflexive_on_descendant_expressions() {
        for s in ["/a//b", "a//b/c", "//x/*", "/a/*//*/d"] {
            assert!(c(s, s), "{s} must cover itself");
        }
    }

    #[test]
    fn covering_soundness_spot_checks() {
        // For each claimed covering, every sampled path matching s2
        // must match s1.
        let claims = [
            ("/*/a//*/c", "/a/a/*//c/e/c/d"),
            ("/a/*//*/d", "/a//b/c/d"),
            ("b//d", "/a/b/c/d"),
            ("//c", "/a/b/c"),
        ];
        let paths: Vec<Vec<&str>> = vec![
            vec!["a", "a", "x", "c", "e", "c", "d"],
            vec!["a", "a", "x", "q", "c", "e", "c", "d"],
            vec!["a", "b", "c", "d"],
            vec!["a", "x", "b", "c", "d"],
            vec!["a", "b", "c", "d", "e"],
        ];
        for (a, b) in claims {
            let (s1, s2) = (xpe(a), xpe(b));
            assert!(covers(&s1, &s2));
            for p in &paths {
                if s2.matches_path(p) {
                    assert!(
                        s1.matches_path(p),
                        "{a} claimed to cover {b} but misses path {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn transitivity_spot_checks() {
        let (a, b, c_) = (xpe("/a"), xpe("/a/*"), xpe("/a/b/c"));
        assert!(covers(&a, &b) && covers(&b, &c_) && covers(&a, &c_));
    }

    /// Asserts that every covering pair among `xs` passes the signature
    /// test, and returns how many pairs cover.
    fn assert_sig_admits_covering_pairs(xs: &[Xpe]) -> usize {
        let sigs: Vec<CoverSig> = xs.iter().map(CoverSig::of).collect();
        let mut covering = 0;
        for (a, sa) in xs.iter().zip(&sigs) {
            for (b, sb) in xs.iter().zip(&sigs) {
                if covers(a, b) {
                    covering += 1;
                    assert!(
                        sa.may_cover(*sb),
                        "{a} covers {b}, but its signature says it cannot"
                    );
                }
            }
        }
        covering
    }

    #[test]
    fn signature_spot_checks() {
        let may = |a: &str, b: &str| CoverSig::of(&xpe(a)).may_cover(CoverSig::of(&xpe(b)));
        assert!(may("/a/*", "/a/b/c"));
        assert!(may("b//d", "/a/b/c/d"));
        assert!(may("/a/*//*/d", "/a//b/c/d"));
        assert!(may("/a/b//c", "/a/b/x/c"));
        assert!(may("/a/*", "/a//b/c"));
        assert!(!may("/a/b", "/a/c"), "a name missing from the coveree");
        assert!(!may("/a/b/c", "/a/b"), "more steps than the coveree");
        assert!(!may("*/*", "a"), "wildcards still count as steps");
        assert!(
            !may("/a/b/c/d", "/a/c/b/d"),
            "the coveree's names, at other positions"
        );
        assert!(!may("/a/b", "/a//b"), "a name past the coveree's `//`");
        assert!(!may("/a", "//a"), "a floating coveree");
    }

    #[test]
    #[cfg_attr(miri, ignore = "quadratic sweep, too slow under the interpreter")]
    fn signature_admits_every_covering_pair_of_the_paper_sets() {
        use xdn_workloads::{nitf_dtd, psd_dtd, sets};
        for dtd in [nitf_dtd(), psd_dtd()] {
            for xs in [sets::set_a(&dtd, 250, 1), sets::set_b(&dtd, 250, 2)] {
                let covering = assert_sig_admits_covering_pairs(&xs);
                assert!(
                    covering > xs.len(),
                    "only {covering} covering pairs among {} expressions",
                    xs.len()
                );
            }
        }
    }

    mod sig_props {
        use super::*;
        use proptest::prelude::*;
        use xdn_xpath::{NodeTest, Predicate};

        /// `ba` and `bb` share their mask bits with `a` and `b` (asserted
        /// below), so the signature cannot tell those names apart.
        const ALPHABET: &[&str] = &["a", "b", "c", "ba", "bb"];

        fn arb_step() -> impl Strategy<Value = Step> {
            (
                prop_oneof![3 => Just(Axis::Child), 1 => Just(Axis::Descendant)],
                prop_oneof![
                    3 => (0..ALPHABET.len()).prop_map(|i| NodeTest::Name(ALPHABET[i].into())),
                    1 => Just(NodeTest::Wildcard),
                ],
                prop_oneof![
                    3 => Just(Vec::new()),
                    1 => Just(vec![Predicate::HasAttr("k".into())]),
                    1 => (1u8..3).prop_map(|v| vec![Predicate::AttrEq("k".into(), v.to_string())]),
                ],
            )
                .prop_map(|(axis, test, predicates)| Step {
                    axis,
                    test,
                    predicates,
                })
        }

        fn arb_xpe() -> impl Strategy<Value = Xpe> {
            (any::<bool>(), prop::collection::vec(arb_step(), 1..6))
                .prop_map(|(absolute, steps)| Xpe::new(absolute, steps))
        }

        /// A widening of `x` by `ops` (`(step, kind)` pairs): a step
        /// becomes `*`, drops its predicates, or becomes `//`, a `//`
        /// stands in for an inner step (so the steps after it move to
        /// other positions), or the expression floats from that step
        /// on. Many results cover `x`.
        fn widen(x: &Xpe, ops: &[(usize, u8)]) -> Xpe {
            let mut absolute = x.is_absolute();
            let mut steps = x.steps().to_vec();
            for &(at, kind) in ops {
                let at = at % steps.len();
                match kind {
                    0 => steps[at].test = NodeTest::Wildcard,
                    1 => steps[at].predicates.clear(),
                    2 => steps[at].axis = Axis::Descendant,
                    3 => {
                        if at > 0 && at + 1 < steps.len() {
                            steps.remove(at);
                            steps[at].axis = Axis::Descendant;
                        }
                    }
                    _ => {
                        absolute = false;
                        steps.drain(..at);
                        steps[0].axis = Axis::Child;
                    }
                }
            }
            Xpe::new(absolute, steps)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn covers_implies_signature(
                base in prop::collection::vec(arb_xpe(), 1..6),
                ops in prop::collection::vec((0usize..8, 0u8..5), 0..6),
            ) {
                prop_assert_eq!(name_bit("ba"), name_bit("a"));
                prop_assert_eq!(name_bit("bb"), name_bit("b"));
                let mut xs = base.clone();
                xs.extend(base.iter().map(|x| widen(x, &ops)));
                assert_sig_admits_covering_pairs(&xs);
            }
        }
    }
}
