//! Advertisements and their derivation from DTDs (§3.1).
//!
//! An advertisement describes the publications a data producer will
//! emit: an absolute XPath-like expression with the *same length* as
//! the publication paths it advertises. Advertisements are a system-
//! internal mechanism — they never reach clients — which is why the
//! recursive forms may use the `(...)+` repetition operator that is not
//! part of XPath syntax.
//!
//! * A **non-recursive advertisement** is a plain sequence of element
//!   names or wildcards: `a = /t1/t2/.../tn`.
//! * A **simple-recursive advertisement** has one repetition:
//!   `a = a1(a2)+a3`.
//! * A **series-recursive advertisement** has several repetitions in
//!   sequence: `a = a1(a2)+a3(a4)+a5`.
//! * An **embedded-recursive advertisement** nests repetitions:
//!   `a = a1(a2(a3)+a4)+a5`.
//!
//! [`derive_advertisements`] computes the advertisement set of a DTD by
//! walking its element graph; cycles become `(...)+` segments.

use std::collections::BTreeSet;
use std::fmt;
use xdn_xml::dtd::Dtd;
use xdn_xpath::NodeTest;

/// A non-recursive advertisement: one position per publication element.
///
/// Positions are [`NodeTest`]s — DTD derivation produces concrete
/// names, but wildcard positions are admitted by the format (§3.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AdvPath(Vec<NodeTest>);

impl AdvPath {
    /// Creates an advertisement path from its positions.
    pub fn new(positions: Vec<NodeTest>) -> Self {
        AdvPath(positions)
    }

    /// Builds a path of concrete element names.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Self {
        AdvPath(names.iter().map(|n| NodeTest::from(n.as_ref())).collect())
    }

    /// The positions.
    pub fn positions(&self) -> &[NodeTest] {
        &self.0
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the path has no positions.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if a concrete publication path (same length) is advertised
    /// by this path: element-wise name equality, wildcards free.
    pub fn matches_path<S: AsRef<str>>(&self, path: &[S]) -> bool {
        self.0.len() == path.len() && self.0.iter().zip(path).all(|(t, e)| t.accepts(e.as_ref()))
    }
}

impl fmt::Display for AdvPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.0 {
            write!(f, "/{t}")?;
        }
        Ok(())
    }
}

/// One segment of a (possibly recursive) advertisement.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdvSegment {
    /// A fixed run of positions.
    Plain(AdvPath),
    /// A repetition `(...)+` — the contained segments occur one or more
    /// times. Nested repetitions express embedded recursion.
    Repeat(Vec<AdvSegment>),
}

impl AdvSegment {
    /// Minimum number of positions this segment contributes (one
    /// iteration of every repetition).
    pub fn min_len(&self) -> usize {
        match self {
            AdvSegment::Plain(p) => p.len(),
            AdvSegment::Repeat(inner) => inner.iter().map(AdvSegment::min_len).sum(),
        }
    }

    fn contains_repeat(&self) -> bool {
        matches!(self, AdvSegment::Repeat(_))
    }

    fn has_nested_repeat(&self) -> bool {
        match self {
            AdvSegment::Plain(_) => false,
            AdvSegment::Repeat(inner) => inner
                .iter()
                .any(|s| s.contains_repeat() || s.has_nested_repeat()),
        }
    }
}

impl fmt::Display for AdvSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdvSegment::Plain(p) => write!(f, "{p}"),
            AdvSegment::Repeat(inner) => {
                f.write_str("(")?;
                for s in inner {
                    write!(f, "{s}")?;
                }
                f.write_str(")+")
            }
        }
    }
}

/// Classification of an advertisement per §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdvKind {
    /// No repetition.
    NonRecursive,
    /// Exactly one top-level repetition, not nested.
    SimpleRecursive,
    /// Two or more top-level repetitions, none nested.
    SeriesRecursive,
    /// At least one repetition nested inside another.
    EmbeddedRecursive,
}

/// An advertisement: a sequence of plain and repeated segments.
///
/// ```
/// use xdn_core::adv::{Advertisement, AdvKind};
///
/// // a = /a/b(/c/d)+/e  — simple-recursive
/// let a = Advertisement::parse("/a/b(/c/d)+/e")?;
/// assert_eq!(a.kind(), AdvKind::SimpleRecursive);
/// assert!(a.matches_path(&["a", "b", "c", "d", "c", "d", "e"]));
/// assert!(!a.matches_path(&["a", "b", "c", "e"]));
/// # Ok::<(), xdn_core::adv::AdvParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Advertisement {
    segments: Vec<AdvSegment>,
}

impl Advertisement {
    /// Creates an advertisement from segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or contributes zero positions.
    pub fn new(segments: Vec<AdvSegment>) -> Self {
        let adv = Advertisement { segments };
        assert!(
            adv.min_len() > 0,
            "an advertisement has at least one position"
        );
        adv
    }

    /// A non-recursive advertisement from a single path.
    pub fn non_recursive(path: AdvPath) -> Self {
        Advertisement::new(vec![AdvSegment::Plain(path)])
    }

    /// The segments.
    pub fn segments(&self) -> &[AdvSegment] {
        &self.segments
    }

    /// Minimum advertised path length (one iteration per repetition).
    pub fn min_len(&self) -> usize {
        self.segments.iter().map(AdvSegment::min_len).sum()
    }

    /// Classifies the advertisement per §3.1.
    pub fn kind(&self) -> AdvKind {
        let top_repeats = self.segments.iter().filter(|s| s.contains_repeat()).count();
        let nested = self.segments.iter().any(AdvSegment::has_nested_repeat);
        match (top_repeats, nested) {
            (0, _) => AdvKind::NonRecursive,
            (_, true) => AdvKind::EmbeddedRecursive,
            (1, false) => AdvKind::SimpleRecursive,
            (_, false) => AdvKind::SeriesRecursive,
        }
    }

    /// For a non-recursive advertisement, its single path.
    pub fn as_non_recursive(&self) -> Option<&AdvPath> {
        match self.segments.as_slice() {
            [AdvSegment::Plain(p)] => Some(p),
            _ => None,
        }
    }

    /// True if the concrete publication path is advertised: some
    /// expansion of the repetitions has the path's length and matches
    /// element-wise.
    pub fn matches_path<S: AsRef<str>>(&self, path: &[S]) -> bool {
        matches_segments(&self.segments, path, 0)
    }

    /// Enumerates non-recursive expansions in which every repetition is
    /// unrolled between 1 and `max_reps` times, keeping only expansions
    /// of length at most `max_len`.
    ///
    /// The advertisement–subscription overlap algorithms for relative
    /// and descendant XPEs against recursive advertisements are built on
    /// this: a subscription of length `k` overlaps the advertisement iff
    /// it overlaps an expansion with every repetition unrolled at most
    /// `k + 2` times (a pumping argument — a match window touches at
    /// most `k` positions, so surplus iterations outside the window can
    /// be removed).
    pub fn expansions(&self, max_reps: usize, max_len: usize) -> Vec<AdvPath> {
        let mut out = Vec::new();
        let mut acc: Vec<NodeTest> = Vec::new();
        expand_rec(&self.segments, 0, max_reps, max_len, &mut acc, &mut out);
        // Deduplicate: different unroll counts can coincide.
        let mut seen = BTreeSet::new();
        out.retain(|p| seen.insert(p.clone()));
        out
    }

    /// Parses the paper's textual advertisement form, e.g.
    /// `/a/b(/c/d)+/e` or `/a(/b(/c)+/d)+/e`.
    ///
    /// # Errors
    ///
    /// Returns [`AdvParseError`] on unbalanced parentheses, a missing
    /// `+`, or empty element names.
    pub fn parse(input: &str) -> Result<Self, AdvParseError> {
        let mut chars = input.trim().char_indices().peekable();
        let segments = parse_segments(&mut chars, 0)?;
        if segments.is_empty() {
            return Err(AdvParseError::new("empty advertisement"));
        }
        let adv = Advertisement { segments };
        if adv.min_len() == 0 {
            return Err(AdvParseError::new("advertisement has no positions"));
        }
        Ok(adv)
    }
}

impl fmt::Display for Advertisement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.segments {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Error parsing the textual advertisement form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvParseError {
    message: String,
}

impl AdvParseError {
    fn new(message: impl Into<String>) -> Self {
        AdvParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for AdvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid advertisement: {}", self.message)
    }
}

impl std::error::Error for AdvParseError {}

type CharIter<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn parse_segments(
    chars: &mut CharIter<'_>,
    depth: usize,
) -> Result<Vec<AdvSegment>, AdvParseError> {
    let mut segments = Vec::new();
    let mut run: Vec<NodeTest> = Vec::new();
    loop {
        match chars.peek().copied() {
            None => {
                if depth > 0 {
                    return Err(AdvParseError::new("unbalanced `(`"));
                }
                flush_run(&mut run, &mut segments);
                return Ok(segments);
            }
            Some((_, ')')) => {
                if depth == 0 {
                    return Err(AdvParseError::new("unbalanced `)`"));
                }
                chars.next();
                match chars.next() {
                    Some((_, '+')) => {}
                    _ => return Err(AdvParseError::new("expected `+` after `)`")),
                }
                flush_run(&mut run, &mut segments);
                return Ok(segments);
            }
            Some((_, '(')) => {
                chars.next();
                flush_run(&mut run, &mut segments);
                let inner = parse_segments(chars, depth + 1)?;
                if inner.is_empty() {
                    return Err(AdvParseError::new("empty repetition"));
                }
                segments.push(AdvSegment::Repeat(inner));
            }
            Some((_, '/')) => {
                chars.next();
                let mut name = String::new();
                while let Some((_, c)) = chars.peek().copied() {
                    if c == '/' || c == '(' || c == ')' {
                        break;
                    }
                    name.push(c);
                    chars.next();
                }
                if name.is_empty() {
                    return Err(AdvParseError::new("empty element name"));
                }
                run.push(NodeTest::from(name.as_str()));
            }
            Some((_, c)) => {
                return Err(AdvParseError::new(format!("unexpected character {c:?}")));
            }
        }
    }
}

fn flush_run(run: &mut Vec<NodeTest>, segments: &mut Vec<AdvSegment>) {
    if !run.is_empty() {
        segments.push(AdvSegment::Plain(AdvPath::new(std::mem::take(run))));
    }
}

/// Backtracking matcher: can `segments` consume exactly `path[pos..]`?
fn matches_segments<S: AsRef<str>>(segments: &[AdvSegment], path: &[S], pos: usize) -> bool {
    match segments.split_first() {
        None => pos == path.len(),
        Some((AdvSegment::Plain(p), rest)) => {
            if pos + p.len() > path.len() {
                return false;
            }
            p.positions()
                .iter()
                .zip(&path[pos..pos + p.len()])
                .all(|(t, e)| t.accepts(e.as_ref()))
                && matches_segments(rest, path, pos + p.len())
        }
        Some((AdvSegment::Repeat(inner), rest)) => {
            // One or more iterations of `inner`, then the rest. Try each
            // feasible number of iterations via recursion.
            matches_repeat(inner, rest, path, pos)
        }
    }
}

fn matches_repeat<S: AsRef<str>>(
    inner: &[AdvSegment],
    rest: &[AdvSegment],
    path: &[S],
    pos: usize,
) -> bool {
    // Consume one iteration of `inner`, then either stop or iterate
    // again. `inner` may itself contain repetitions, so iterate over
    // every split position it can reach.
    let min = inner.iter().map(AdvSegment::min_len).sum::<usize>();
    if min == 0 || pos + min > path.len() {
        return false;
    }
    for end in pos + min..=path.len() {
        if consumes_exactly(inner, path, pos, end)
            && (matches_segments(rest, path, end) || matches_repeat(inner, rest, path, end))
        {
            return true;
        }
    }
    false
}

/// Can `segments` consume exactly `path[pos..end]`?
fn consumes_exactly<S: AsRef<str>>(
    segments: &[AdvSegment],
    path: &[S],
    pos: usize,
    end: usize,
) -> bool {
    matches_segments(segments, &path[..end], pos)
}

#[allow(clippy::only_used_in_recursion)] // threading the caps through the recursion is clearer
fn expand_rec(
    segments: &[AdvSegment],
    idx: usize,
    max_reps: usize,
    max_len: usize,
    acc: &mut Vec<NodeTest>,
    out: &mut Vec<AdvPath>,
) {
    if acc.len() > max_len {
        return;
    }
    if idx == segments.len() {
        out.push(AdvPath::new(acc.clone()));
        return;
    }
    match &segments[idx] {
        AdvSegment::Plain(p) => {
            acc.extend(p.positions().iter().cloned());
            expand_rec(segments, idx + 1, max_reps, max_len, acc, out);
            acc.truncate(acc.len() - p.len());
        }
        AdvSegment::Repeat(inner) => {
            // Expand `inner` 1..=max_reps times. Each iteration of a
            // nested repetition is expanded independently.
            #[allow(clippy::too_many_arguments)] // recursion state, not an API
            fn iterate(
                inner: &[AdvSegment],
                segments: &[AdvSegment],
                idx: usize,
                reps_left: usize,
                max_reps: usize,
                max_len: usize,
                acc: &mut Vec<NodeTest>,
                out: &mut Vec<AdvPath>,
            ) {
                if acc.len() > max_len {
                    return;
                }
                // Expand one iteration of `inner`, then recurse for more
                // iterations or continue with the following segments.
                let mut iteration_variants = Vec::new();
                let mut tmp = Vec::new();
                expand_rec(
                    inner,
                    0,
                    max_reps,
                    max_len,
                    &mut tmp,
                    &mut iteration_variants,
                );
                for variant in iteration_variants {
                    let before = acc.len();
                    acc.extend(variant.positions().iter().cloned());
                    // Stop after this iteration…
                    expand_rec(segments, idx + 1, max_reps, max_len, acc, out);
                    // …or keep iterating.
                    if reps_left > 1 {
                        iterate(
                            inner,
                            segments,
                            idx,
                            reps_left - 1,
                            max_reps,
                            max_len,
                            acc,
                            out,
                        );
                    }
                    acc.truncate(before);
                }
            }
            iterate(inner, segments, idx, max_reps, max_reps, max_len, acc, out);
        }
    }
}

/// Options controlling DTD-to-advertisement derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeriveOptions {
    /// Maximum flattened advertisement length (positions). The paper
    /// caps document depth at 10 in the evaluation.
    pub max_len: usize,
    /// Hard cap on the number of derived advertisements.
    pub max_advertisements: usize,
}

impl Default for DeriveOptions {
    fn default() -> Self {
        DeriveOptions {
            max_len: 10,
            max_advertisements: 200_000,
        }
    }
}

/// Derives the advertisement set of a DTD (§3.1).
///
/// The element graph is walked depth-first from the root. A walk that
/// revisits an element still on the stack closes a *cycle*; the cycle
/// body becomes a `(...)+` repetition and the walk continues past it
/// (re-entering the body once more to cover exits from mid-cycle
/// positions). Non-recursive DTDs therefore yield plain advertisements,
/// and recursive DTDs yield simple- or series-recursive advertisements;
/// embedded forms can be constructed via [`Advertisement::new`] and are
/// fully supported by matching.
///
/// The derived set is **not complete** when cycles interleave: the walk
/// stops where a cycle would nest inside an earlier one or an element
/// would close a second cycle, so a path that runs through two
/// interleaved cycles matches no derived advertisement. The PSD set
/// covers every universe and generated-document path; the NITF set
/// misses about a third of its universe
/// (`crates/core/tests/adv_derivation.rs`; ROADMAP item 8).
pub fn derive_advertisements(dtd: &Dtd, opts: &DeriveOptions) -> Vec<Advertisement> {
    let mut out = Vec::new();
    let mut walker = Walker {
        dtd,
        opts,
        out: &mut out,
        names: Vec::new(),
        repeats: Vec::new(),
        closed: BTreeSet::new(),
    };
    walker.visit(dtd.root());
    let mut seen = BTreeSet::new();
    out.retain(|a| seen.insert(a.to_string()));
    out
}

struct Walker<'a> {
    dtd: &'a Dtd,
    opts: &'a DeriveOptions,
    out: &'a mut Vec<Advertisement>,
    /// Flattened element names on the current walk.
    names: Vec<String>,
    /// Closed cycle intervals `[start, end)` over `names`, disjoint and
    /// in increasing order.
    repeats: Vec<(usize, usize)>,
    /// Elements that already closed a cycle on this walk (may not close
    /// another).
    closed: BTreeSet<String>,
}

impl Walker<'_> {
    fn visit(&mut self, name: &str) {
        if self.out.len() >= self.opts.max_advertisements {
            return;
        }
        if self.names.len() >= self.opts.max_len {
            return;
        }
        // A cycle closes when `name` is already on the walk.
        if let Some(first) = self.names.iter().position(|n| n == name) {
            if self.closed.contains(name) {
                return; // each element closes at most one cycle per walk
            }
            // The body spans from the earlier occurrence to the end.
            let start = first;
            let end = self.names.len();
            // Overlapping a previously closed cycle would nest repeats;
            // derivation keeps them disjoint (series form).
            if self.repeats.last().is_some_and(|&(_, e)| start < e) {
                return;
            }
            self.repeats.push((start, end));
            self.closed.insert(name.to_owned());
            // A document may end a path right after a whole number of
            // body iterations, when the body's last element can be
            // childless.
            if self
                .names
                .last()
                .is_some_and(|last| self.dtd.may_be_empty(last))
            {
                self.emit();
            }
            // Continue the walk re-entering the body once: this covers
            // documents that exit the cycle mid-body.
            self.descend(name);
            self.closed.remove(name);
            self.repeats.pop();
            return;
        }
        self.descend(name);
    }

    fn descend(&mut self, name: &str) {
        self.names.push(name.to_owned());
        let children = self.dtd.children_of(name);
        if children.is_empty() {
            self.emit();
        } else {
            // Conforming documents may end a path at any element whose
            // children are all optional — advertise those endings too.
            if self.dtd.may_be_empty(name) {
                self.emit();
            }
            let mut any = false;
            for child in children {
                let child = child.to_owned();
                let before = self.out.len();
                self.visit(&child);
                any |= self.out.len() > before;
            }
            // Depth-capped walks still advertise what was reached.
            if !any && self.names.len() >= self.opts.max_len {
                self.emit();
            }
        }
        self.names.pop();
    }

    fn emit(&mut self) {
        if self.out.len() >= self.opts.max_advertisements {
            return;
        }
        let mut segments = Vec::new();
        let mut pos = 0usize;
        for &(start, end) in &self.repeats {
            if start > pos {
                segments.push(AdvSegment::Plain(AdvPath::from_names(
                    &self.names[pos..start],
                )));
            }
            segments.push(AdvSegment::Repeat(vec![AdvSegment::Plain(
                AdvPath::from_names(&self.names[start..end]),
            )]));
            pos = end;
        }
        if pos < self.names.len() {
            segments.push(AdvSegment::Plain(AdvPath::from_names(&self.names[pos..])));
        }
        if !segments.is_empty() {
            self.out.push(Advertisement::new(segments));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adv(s: &str) -> Advertisement {
        Advertisement::parse(s).unwrap()
    }

    #[test]
    fn adv_path_matching_same_length_only() {
        let p = AdvPath::from_names(&["a", "*", "c"]);
        assert!(p.matches_path(&["a", "x", "c"]));
        assert!(!p.matches_path(&["a", "x"]));
        assert!(!p.matches_path(&["a", "x", "c", "d"]));
        assert!(!p.matches_path(&["b", "x", "c"]));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for src in [
            "/a/b/c",
            "/a/b(/c/d)+/e",
            "/a(/b)+/c(/d)+/e",
            "/a(/b(/c)+/d)+/e",
        ] {
            let a = adv(src);
            assert_eq!(a.to_string(), src);
            let re = Advertisement::parse(&a.to_string()).unwrap();
            assert_eq!(a, re);
        }
    }

    #[test]
    fn parse_errors() {
        assert!(Advertisement::parse("").is_err());
        assert!(Advertisement::parse("/a(/b/c").is_err());
        assert!(Advertisement::parse("/a(/b)+)").is_err());
        assert!(Advertisement::parse("/a(/b)").is_err());
        assert!(Advertisement::parse("/a//b").is_err());
        assert!(Advertisement::parse("()+").is_err());
    }

    #[test]
    fn kind_classification() {
        assert_eq!(adv("/a/b").kind(), AdvKind::NonRecursive);
        assert_eq!(adv("/a(/b)+/c").kind(), AdvKind::SimpleRecursive);
        assert_eq!(adv("/a(/b)+/c(/d)+/e").kind(), AdvKind::SeriesRecursive);
        assert_eq!(adv("/a(/b(/c)+/d)+/e").kind(), AdvKind::EmbeddedRecursive);
    }

    #[test]
    fn as_non_recursive() {
        assert!(adv("/a/b").as_non_recursive().is_some());
        assert!(adv("/a(/b)+").as_non_recursive().is_none());
    }

    #[test]
    fn simple_recursive_matching() {
        // Paper's example shape: a = /a/*/c(/e/d)+/*/c/e
        let a = adv("/a/*/c(/e/d)+/*/c/e");
        assert!(a.matches_path(&["a", "x", "c", "e", "d", "y", "c", "e"]));
        assert!(a.matches_path(&["a", "x", "c", "e", "d", "e", "d", "y", "c", "e"]));
        assert!(!a.matches_path(&["a", "x", "c", "y", "c", "e"]));
        assert!(!a.matches_path(&["a", "x", "c", "e", "d", "e", "y", "c", "e"]));
    }

    #[test]
    fn series_recursive_matching() {
        let a = adv("/r(/a)+/m(/b)+/z");
        assert!(a.matches_path(&["r", "a", "m", "b", "z"]));
        assert!(a.matches_path(&["r", "a", "a", "a", "m", "b", "b", "z"]));
        assert!(!a.matches_path(&["r", "m", "b", "z"]));
        assert!(!a.matches_path(&["r", "a", "m", "z"]));
    }

    #[test]
    fn embedded_recursive_matching() {
        let a = adv("/r(/a(/b)+/c)+/z");
        assert!(a.matches_path(&["r", "a", "b", "c", "z"]));
        assert!(a.matches_path(&["r", "a", "b", "b", "c", "a", "b", "c", "z"]));
        assert!(!a.matches_path(&["r", "a", "c", "z"]));
    }

    #[test]
    fn min_len() {
        assert_eq!(adv("/a/b").min_len(), 2);
        assert_eq!(adv("/a(/b/c)+/d").min_len(), 4);
        assert_eq!(adv("/a(/b(/c)+)+/d").min_len(), 4);
    }

    #[test]
    fn expansions_cover_unrolls() {
        let a = adv("/a(/b)+/c");
        let exps = a.expansions(3, 10);
        let strs: BTreeSet<String> = exps.iter().map(std::string::ToString::to_string).collect();
        assert!(strs.contains("/a/b/c"));
        assert!(strs.contains("/a/b/b/c"));
        assert!(strs.contains("/a/b/b/b/c"));
        assert_eq!(exps.len(), 3);
    }

    #[test]
    fn expansions_respect_max_len() {
        let a = adv("/a(/b/c)+/d");
        let exps = a.expansions(10, 6);
        assert!(exps.iter().all(|e| e.len() <= 6));
        assert!(!exps.is_empty());
    }

    #[test]
    fn expansion_matches_iff_adv_matches() {
        let a = adv("/r(/a/b)+/c");
        for exp in a.expansions(4, 12) {
            let concrete: Vec<String> = exp
                .positions()
                .iter()
                .map(|t| t.name().expect("derivation emits names").to_owned())
                .collect();
            assert!(
                a.matches_path(&concrete),
                "expansion {exp} must match its advertisement"
            );
        }
    }

    #[test]
    fn derive_non_recursive() {
        let dtd =
            Dtd::parse("<!ELEMENT a (b, c)><!ELEMENT b (d)><!ELEMENT c EMPTY><!ELEMENT d EMPTY>")
                .unwrap();
        let advs = derive_advertisements(&dtd, &DeriveOptions::default());
        let strs: BTreeSet<String> = advs.iter().map(std::string::ToString::to_string).collect();
        assert_eq!(
            strs,
            BTreeSet::from(["/a/b/d".to_string(), "/a/c".to_string()])
        );
        assert!(advs.iter().all(|a| a.kind() == AdvKind::NonRecursive));
    }

    #[test]
    fn derive_simple_recursion() {
        let dtd = Dtd::parse("<!ELEMENT a (a?, b)><!ELEMENT b EMPTY>").unwrap();
        let advs = derive_advertisements(&dtd, &DeriveOptions::default());
        let strs: BTreeSet<String> = advs.iter().map(std::string::ToString::to_string).collect();
        // Direct exit and the cycled form.
        assert!(strs.contains("/a/b"), "missing /a/b in {strs:?}");
        assert!(
            strs.iter().any(|s| s.contains(")+")),
            "no recursive advertisement in {strs:?}"
        );
        // Recursive advertisement matches deep nestings.
        let rec = advs
            .iter()
            .find(|a| a.kind() != AdvKind::NonRecursive)
            .unwrap();
        assert!(
            rec.matches_path(&["a", "a", "a", "b"]) || {
                // at minimum, SOME derived adv matches the deep path
                advs.iter().any(|a| a.matches_path(&["a", "a", "a", "b"]))
            }
        );
    }

    #[test]
    fn derived_set_covers_generated_documents() {
        use rand::SeedableRng;
        let dtd = Dtd::parse(
            "<!ELEMENT doc (sec+)>\n\
             <!ELEMENT sec (sec?, par*, note?)>\n\
             <!ELEMENT par (#PCDATA)>\n\
             <!ELEMENT note (quote?)>\n\
             <!ELEMENT quote (note?)>",
        )
        .unwrap();
        let advs = derive_advertisements(&dtd, &DeriveOptions::default());
        let cfg = xdn_xml::generate::GeneratorConfig {
            max_depth: 8,
            ..Default::default()
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for _ in 0..30 {
            let doc = xdn_xml::generate::generate_document(&dtd, &cfg, &mut rng);
            for path in xdn_xml::paths::extract_paths(&doc, xdn_xml::DocId(0)) {
                assert!(
                    advs.iter().any(|a| a.matches_path(&path.elements)),
                    "path {path} not covered by any derived advertisement"
                );
            }
        }
    }

    #[test]
    fn derive_respects_caps() {
        let dtd = Dtd::parse("<!ELEMENT a (a?, b)><!ELEMENT b EMPTY>").unwrap();
        let opts = DeriveOptions {
            max_len: 10,
            max_advertisements: 2,
        };
        let advs = derive_advertisements(&dtd, &opts);
        assert!(advs.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "at least one position")]
    fn empty_advertisement_panics() {
        let _ = Advertisement::new(vec![]);
    }
}
