//! The XPE abstract syntax: location steps over the `/`, `//`, `*`
//! fragment.

use std::fmt;

/// The axis connecting a location step to the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axis {
    /// Parent-child operator `/`: the step matches a direct child.
    Child,
    /// Ancestor-descendant operator `//`: the step matches any
    /// descendant (one or more levels below).
    Descendant,
}

/// The node test of a location step.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeTest {
    /// Matches only the named element.
    Name(String),
    /// The wildcard `*`, matching any element.
    Wildcard,
}

impl NodeTest {
    /// True if this test accepts `element`.
    pub fn accepts(&self, element: &str) -> bool {
        match self {
            NodeTest::Name(n) => n == element,
            NodeTest::Wildcard => true,
        }
    }

    /// True if this test is the wildcard.
    pub fn is_wildcard(&self) -> bool {
        matches!(self, NodeTest::Wildcard)
    }

    /// The element name, if this is a name test.
    pub fn name(&self) -> Option<&str> {
        match self {
            NodeTest::Name(n) => Some(n),
            NodeTest::Wildcard => None,
        }
    }

    /// True if `self` accepts every element that `other` accepts —
    /// the single-position covering rule of §4.2.
    pub fn covers(&self, other: &NodeTest) -> bool {
        match (self, other) {
            (NodeTest::Wildcard, _) => true,
            (NodeTest::Name(a), NodeTest::Name(b)) => a == b,
            (NodeTest::Name(_), NodeTest::Wildcard) => false,
        }
    }

    /// True if some element is accepted by both tests — the
    /// adv–sub overlap rule of Figure 2(b).
    pub fn overlaps(&self, other: &NodeTest) -> bool {
        match (self, other) {
            (NodeTest::Name(a), NodeTest::Name(b)) => a == b,
            _ => true,
        }
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Name(n) => f.write_str(n),
            NodeTest::Wildcard => f.write_str("*"),
        }
    }
}

impl From<&str> for NodeTest {
    fn from(s: &str) -> Self {
        if s == "*" {
            NodeTest::Wildcard
        } else {
            NodeTest::Name(s.to_owned())
        }
    }
}

/// An attribute predicate on a location step — the extension the paper
/// defers to its matching companion \[16\]: `[@name]` requires the
/// attribute to be present, `[@name='value']` requires an exact value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Predicate {
    /// `[@name]` — the element carries the attribute.
    HasAttr(String),
    /// `[@name='value']` — the attribute equals the value.
    AttrEq(String, String),
}

impl Predicate {
    /// Evaluates the predicate against an element's attributes.
    pub fn eval(&self, attrs: &[(String, String)]) -> bool {
        match self {
            Predicate::HasAttr(n) => attrs.iter().any(|(k, _)| k == n),
            Predicate::AttrEq(n, v) => attrs.iter().any(|(k, w)| k == n && w == v),
        }
    }

    /// True if `self` is implied by `other` (everything satisfying
    /// `other` satisfies `self`): used by covering.
    pub fn implied_by(&self, other: &Predicate) -> bool {
        match (self, other) {
            (Predicate::HasAttr(a), Predicate::HasAttr(b)) => a == b,
            (Predicate::HasAttr(a), Predicate::AttrEq(b, _)) => a == b,
            (Predicate::AttrEq(a, v), Predicate::AttrEq(b, w)) => a == b && v == w,
            (Predicate::AttrEq(_, _), Predicate::HasAttr(_)) => false,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::HasAttr(n) => write!(f, "[@{n}]"),
            Predicate::AttrEq(n, v) => write!(f, "[@{n}='{v}']"),
        }
    }
}

/// One location step: an axis, a node test, and optional attribute
/// predicates.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Step {
    /// How the step connects to the previous one.
    pub axis: Axis,
    /// Which elements the step accepts.
    pub test: NodeTest,
    /// Attribute predicates, all of which must hold.
    pub predicates: Vec<Predicate>,
}

impl Step {
    /// A child-axis step.
    pub fn child(test: impl Into<NodeTest>) -> Self {
        Step {
            axis: Axis::Child,
            test: test.into(),
            predicates: Vec::new(),
        }
    }

    /// A descendant-axis step.
    pub fn descendant(test: impl Into<NodeTest>) -> Self {
        Step {
            axis: Axis::Descendant,
            test: test.into(),
            predicates: Vec::new(),
        }
    }

    /// True if this step accepts `element` with `attrs`.
    pub fn accepts(&self, element: &str, attrs: &[(String, String)]) -> bool {
        self.test.accepts(element) && self.predicates.iter().all(|p| p.eval(attrs))
    }

    /// Step-level covering: `self` accepts every (element, attrs) that
    /// `other` accepts — the test must cover and every predicate of
    /// `self` must be implied by one of `other`'s.
    pub fn covers(&self, other: &Step) -> bool {
        self.test.covers(&other.test)
            && self
                .predicates
                .iter()
                .all(|p| other.predicates.iter().any(|q| p.implied_by(q)))
    }
}

/// An XPath expression over the routed fragment.
///
/// An XPE is *absolute* when it is anchored at the document root
/// (written with a leading `/` or `//`) and *relative* otherwise. The
/// axis of the first step is meaningful for absolute XPEs (leading `/`
/// vs `//`); for relative XPEs the first step may match at any depth.
///
/// `Xpe` implements [`std::str::FromStr`], so `"/a/*//b".parse()` works.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Xpe {
    absolute: bool,
    steps: Vec<Step>,
}

impl Xpe {
    /// Creates an XPE from parts.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty; the parser never produces an empty
    /// expression, so this indicates a logic error in the caller.
    pub fn new(absolute: bool, steps: Vec<Step>) -> Self {
        assert!(!steps.is_empty(), "an XPE has at least one location step");
        Xpe { absolute, steps }
    }

    /// Convenience constructor for an absolute XPE.
    pub fn absolute(steps: Vec<Step>) -> Self {
        Xpe::new(true, steps)
    }

    /// Convenience constructor for a relative XPE.
    pub fn relative(steps: Vec<Step>) -> Self {
        Xpe::new(false, steps)
    }

    /// True if the expression is anchored at the document root.
    pub fn is_absolute(&self) -> bool {
        self.absolute
    }

    /// The location steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of location steps (the paper's XPE "length").
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Always false; expressions contain at least one step.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if the expression contains no descendant (`//`) operator.
    /// Simple XPEs admit the positional matching and covering
    /// algorithms of §3.2/§4.2.
    pub fn is_simple(&self) -> bool {
        // Relative XPEs carry `Child` on their (unanchored) first step,
        // so this uniformly means "no `//` operator anywhere".
        self.steps.iter().all(|s| s.axis == Axis::Child)
    }

    /// True if any step is a wildcard.
    pub fn has_wildcard(&self) -> bool {
        self.steps.iter().any(|s| s.test.is_wildcard())
    }

    /// Splits the expression at descendant operators into maximal runs
    /// of child-connected steps (the "sub-XPEs" of §3.2/§4.2). The
    /// first fragment is anchored at the root only when the XPE is
    /// absolute and starts with `/`.
    pub fn fragments(&self) -> Vec<&[Step]> {
        let mut out = Vec::new();
        let mut start = 0;
        for (i, step) in self.steps.iter().enumerate() {
            let splits = step.axis == Axis::Descendant && i > 0;
            if splits {
                out.push(&self.steps[start..i]);
                start = i;
            }
        }
        out.push(&self.steps[start..]);
        out
    }

    /// Publication matching: true if the root-to-leaf `path` satisfies
    /// this expression (the selected node may be interior; the path may
    /// continue below it).
    ///
    /// ```
    /// use xdn_xpath::Xpe;
    /// let s: Xpe = "a//c".parse().unwrap();
    /// assert!(s.matches_path(&["r", "a", "b", "c", "d"]));
    /// ```
    pub fn matches_path<S: AsRef<str>>(&self, path: &[S]) -> bool {
        crate::matching::matches_path(self, path)
    }
}

impl fmt::Display for Xpe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i == 0 && !self.absolute {
                // Relative expressions print their first step bare;
                // `d/a` in the paper's Figure 4.
                if step.axis == Axis::Descendant {
                    // A leading descendant in relative form is written
                    // explicitly to round-trip.
                    f.write_str(".//")?;
                }
            } else {
                f.write_str(match step.axis {
                    Axis::Child => "/",
                    Axis::Descendant => "//",
                })?;
            }
            write!(f, "{}", step.test)?;
            for p in &step.predicates {
                write!(f, "{p}")?;
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
    fn node_test_accepts() {
        assert!(NodeTest::Wildcard.accepts("anything"));
        assert!(NodeTest::Name("a".into()).accepts("a"));
        assert!(!NodeTest::Name("a".into()).accepts("b"));
    }

    #[test]
    fn node_test_covers() {
        let a = NodeTest::Name("a".into());
        let b = NodeTest::Name("b".into());
        let w = NodeTest::Wildcard;
        assert!(w.covers(&a) && w.covers(&w));
        assert!(a.covers(&a));
        assert!(!a.covers(&b) && !a.covers(&w));
    }

    #[test]
    fn node_test_overlaps_figure_2b() {
        // The five rows of Figure 2(b).
        let t = NodeTest::Name("t".into());
        let t1 = NodeTest::Name("t1".into());
        let t2 = NodeTest::Name("t2".into());
        let w = NodeTest::Wildcard;
        assert!(w.overlaps(&w));
        assert!(w.overlaps(&t));
        assert!(t.overlaps(&w));
        assert!(t.overlaps(&t));
        assert!(!t1.overlaps(&t2));
    }

    #[test]
    fn from_str_wildcard() {
        assert_eq!(NodeTest::from("*"), NodeTest::Wildcard);
        assert_eq!(NodeTest::from("x"), NodeTest::Name("x".into()));
    }

    #[test]
    fn is_simple() {
        assert!(xpe("/a/*/b").is_simple());
        assert!(xpe("a/b").is_simple());
        assert!(!xpe("/a//b").is_simple());
        assert!(!xpe("//a").is_simple());
        assert!(!xpe("a//b").is_simple());
    }

    #[test]
    fn fragments_split_on_descendant() {
        let s = xpe("*/a//d/*/c//b");
        let frags = s.fragments();
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].len(), 2); // */a
        assert_eq!(frags[1].len(), 3); // d/*/c
        assert_eq!(frags[2].len(), 1); // b
    }

    #[test]
    fn fragments_of_simple_is_whole() {
        let s = xpe("/a/b/c");
        assert_eq!(s.fragments().len(), 1);
        assert_eq!(s.fragments()[0].len(), 3);
    }

    #[test]
    fn display_roundtrip() {
        for src in ["/a/*/b", "/a//b/c", "//a/b", "a/b", "*/c//d", "d/a"] {
            let parsed = xpe(src);
            let printed = parsed.to_string();
            let reparsed: Xpe = printed.parse().unwrap();
            assert_eq!(parsed, reparsed, "roundtrip failed for {src} -> {printed}");
        }
    }

    #[test]
    fn display_absolute() {
        assert_eq!(xpe("/a/*//b").to_string(), "/a/*//b");
        assert_eq!(xpe("//a").to_string(), "//a");
        assert_eq!(xpe("a/b").to_string(), "a/b");
    }

    #[test]
    #[should_panic(expected = "at least one location step")]
    fn empty_steps_panic() {
        let _ = Xpe::new(true, vec![]);
    }

    #[test]
    fn step_constructors() {
        let s = Step::child("a");
        assert_eq!(s.axis, Axis::Child);
        let d = Step::descendant("*");
        assert_eq!(d.axis, Axis::Descendant);
        assert!(d.test.is_wildcard());
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [xpe("/b"), xpe("/a"), xpe("a")];
        v.sort();
        assert_eq!(v.len(), 3);
    }
}
