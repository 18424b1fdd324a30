//! DTD (Document Type Definition) content models.
//!
//! Advertisements in the paper are derived from the publisher's DTD
//! (§3.1): the DTD determines every root-to-leaf element path that can
//! occur in a conforming document. This module provides
//!
//! * a content-model data structure ([`Dtd`], [`Particle`]) and a parser
//!   for `<!ELEMENT ...>` declarations,
//! * recursion analysis ([`Dtd::is_recursive`],
//!   [`Dtd::recursive_elements`]) — a DTD is *recursive* when an element
//!   is (transitively) defined in terms of itself, which is what forces
//!   the recursive advertisement forms `a1(a2)+a3`,
//! * bounded root-to-leaf path enumeration
//!   ([`Dtd::enumerate_paths`]), the universe over which perfect and
//!   imperfect merging degrees are computed (§4.3).

use crate::error::{XmlError, XmlErrorKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How often a content particle may occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Occurrence {
    /// Exactly once (no suffix).
    One,
    /// Zero or one time (`?`).
    Optional,
    /// Zero or more times (`*`).
    ZeroOrMore,
    /// One or more times (`+`).
    OneOrMore,
}

impl Occurrence {
    /// True if the particle may be omitted entirely.
    pub fn is_optional(self) -> bool {
        matches!(self, Occurrence::Optional | Occurrence::ZeroOrMore)
    }

    /// The suffix character, if any.
    pub fn suffix(self) -> Option<char> {
        match self {
            Occurrence::One => None,
            Occurrence::Optional => Some('?'),
            Occurrence::ZeroOrMore => Some('*'),
            Occurrence::OneOrMore => Some('+'),
        }
    }
}

/// The structural part of a content particle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParticleKind {
    /// A reference to a child element by name.
    Name(String),
    /// An ordered sequence `(a, b, c)`.
    Seq(Vec<Particle>),
    /// An alternative `(a | b | c)`.
    Choice(Vec<Particle>),
}

/// A content particle: structure plus an occurrence indicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Particle {
    /// What the particle contains.
    pub kind: ParticleKind,
    /// How many times it may occur.
    pub occurrence: Occurrence,
}

impl Particle {
    /// A single-name particle occurring exactly once.
    pub fn name(n: impl Into<String>) -> Self {
        Particle {
            kind: ParticleKind::Name(n.into()),
            occurrence: Occurrence::One,
        }
    }

    /// Returns a copy with the given occurrence.
    pub fn with_occurrence(mut self, occ: Occurrence) -> Self {
        self.occurrence = occ;
        self
    }

    /// A sequence particle occurring exactly once.
    pub fn seq(items: Vec<Particle>) -> Self {
        Particle {
            kind: ParticleKind::Seq(items),
            occurrence: Occurrence::One,
        }
    }

    /// A choice particle occurring exactly once.
    pub fn choice(items: Vec<Particle>) -> Self {
        Particle {
            kind: ParticleKind::Choice(items),
            occurrence: Occurrence::One,
        }
    }

    fn collect_names<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match &self.kind {
            ParticleKind::Name(n) => {
                out.insert(n);
            }
            ParticleKind::Seq(items) | ParticleKind::Choice(items) => {
                for item in items {
                    item.collect_names(out);
                }
            }
        }
    }
}

impl fmt::Display for Particle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParticleKind::Name(n) => f.write_str(n)?,
            ParticleKind::Seq(items) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")?;
            }
            ParticleKind::Choice(items) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" | ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")?;
            }
        }
        if let Some(c) = self.occurrence.suffix() {
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// The content model of one declared element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// `EMPTY` — a leaf element.
    Empty,
    /// `(#PCDATA)` — text-only; a leaf for routing purposes.
    PcData,
    /// `ANY` — any declared element may appear.
    Any,
    /// An element-content particle.
    Children(Particle),
    /// Mixed content `(#PCDATA | a | b)*`.
    Mixed(Vec<String>),
}

impl ContentModel {
    /// True if the model admits no child elements.
    pub fn is_leaf(&self) -> bool {
        matches!(self, ContentModel::Empty | ContentModel::PcData)
            || matches!(self, ContentModel::Mixed(names) if names.is_empty())
    }
}

/// A parsed DTD: the root element plus every element declaration.
///
/// ```
/// use xdn_xml::dtd::Dtd;
///
/// let dtd = Dtd::parse(
///     "<!ELEMENT doc (head, body+)>\n\
///      <!ELEMENT head (#PCDATA)>\n\
///      <!ELEMENT body (body?, par*)>\n\
///      <!ELEMENT par EMPTY>",
/// )?;
/// assert!(dtd.is_recursive()); // body references body
/// assert!(dtd.recursive_elements().contains("body"));
/// # Ok::<(), xdn_xml::XmlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dtd {
    root: String,
    elements: BTreeMap<String, ContentModel>,
}

impl Dtd {
    /// Builds a DTD from a root name and element declarations.
    ///
    /// # Errors
    ///
    /// Returns an error if the root or any referenced element is
    /// undeclared.
    pub fn from_declarations(
        root: impl Into<String>,
        elements: BTreeMap<String, ContentModel>,
    ) -> Result<Self, XmlError> {
        let dtd = Dtd {
            root: root.into(),
            elements,
        };
        dtd.validate()?;
        Ok(dtd)
    }

    /// Parses a sequence of `<!ELEMENT ...>` declarations.
    ///
    /// The first declared element is taken as the document root, which
    /// matches the convention of the NITF and PSD DTDs. Other DTD
    /// declarations (`<!ATTLIST>`, `<!ENTITY>`, comments) are skipped.
    ///
    /// # Errors
    ///
    /// Returns an error if a declaration is malformed or an element is
    /// referenced but never declared.
    pub fn parse(input: &str) -> Result<Self, XmlError> {
        let mut parser = DtdParser {
            input: input.as_bytes(),
            pos: 0,
        };
        let mut elements = BTreeMap::new();
        let mut root: Option<String> = None;
        while let Some((name, model)) = parser.next_element_decl()? {
            if root.is_none() {
                root = Some(name.clone());
            }
            elements.insert(name, model);
        }
        let root = root.ok_or_else(|| XmlError::new(XmlErrorKind::EmptyDocument, 0))?;
        Self::from_declarations(root, elements)
    }

    /// The root element name.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// The content model of `name`, if declared.
    pub fn content_model(&self, name: &str) -> Option<&ContentModel> {
        self.elements.get(name)
    }

    /// All declared element names, sorted.
    pub fn element_names(&self) -> impl Iterator<Item = &str> {
        self.elements.keys().map(String::as_str)
    }

    /// Number of declared elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if no elements are declared.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The set of element names that may appear as a direct child of
    /// `name` (empty for leaves and undeclared names).
    pub fn children_of(&self, name: &str) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        match self.elements.get(name) {
            Some(ContentModel::Children(p)) => p.collect_names(&mut out),
            Some(ContentModel::Mixed(names)) => {
                out.extend(names.iter().map(String::as_str));
            }
            Some(ContentModel::Any) => {
                out.extend(self.elements.keys().map(String::as_str));
            }
            _ => {}
        }
        out
    }

    /// True if a conforming document may contain `name` with no child
    /// elements — its content model is a leaf model, or every particle
    /// in it is optional. Advertisement derivation must emit a path
    /// ending at every such element, since conforming documents can.
    pub fn may_be_empty(&self, name: &str) -> bool {
        match self.elements.get(name) {
            None | Some(ContentModel::Empty) | Some(ContentModel::PcData) => true,
            Some(ContentModel::Any) | Some(ContentModel::Mixed(_)) => true,
            Some(ContentModel::Children(p)) => Self::particle_min(p) == 0,
        }
    }

    /// Minimum number of child elements a particle forces.
    fn particle_min(p: &Particle) -> usize {
        if p.occurrence.is_optional() {
            return 0;
        }
        match &p.kind {
            ParticleKind::Name(_) => 1,
            ParticleKind::Seq(items) => items.iter().map(Self::particle_min).sum(),
            ParticleKind::Choice(items) => items.iter().map(Self::particle_min).min().unwrap_or(0),
        }
    }

    fn validate(&self) -> Result<(), XmlError> {
        if !self.elements.contains_key(&self.root) {
            return Err(XmlError::new(
                XmlErrorKind::UndeclaredElement(self.root.clone()),
                0,
            ));
        }
        for name in self.elements.keys() {
            for child in self.children_of(name) {
                if !self.elements.contains_key(child) {
                    return Err(XmlError::new(
                        XmlErrorKind::UndeclaredElement(child.to_owned()),
                        0,
                    ));
                }
            }
        }
        Ok(())
    }

    /// True if any element reachable from the root participates in a
    /// reference cycle.
    pub fn is_recursive(&self) -> bool {
        !self.recursive_elements().is_empty()
    }

    /// The set of elements reachable from the root that lie on a
    /// reference cycle (i.e. are transitively defined in terms of
    /// themselves).
    pub fn recursive_elements(&self) -> BTreeSet<String> {
        // Tarjan-style: an element is recursive if it can reach itself.
        // With DTD-scale graphs (tens to low hundreds of elements) a
        // simple reachability closure is plenty.
        let reachable_from_root = self.reachable(&self.root);
        let mut out = BTreeSet::new();
        for name in &reachable_from_root {
            if self
                .children_of(name)
                .iter()
                .any(|child| self.reachable(child).contains(name.as_str()))
            {
                out.insert(name.clone());
            }
        }
        out
    }

    fn reachable(&self, from: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from.to_owned()];
        while let Some(n) = stack.pop() {
            if !seen.insert(n.clone()) {
                continue;
            }
            for c in self.children_of(&n) {
                if !seen.contains(c) {
                    stack.push(c.to_owned());
                }
            }
        }
        seen
    }

    /// Enumerates root-to-leaf element-name paths permitted by the DTD.
    ///
    /// `max_depth` bounds path length and `cycle_unroll` bounds how many
    /// times any single element may repeat on a path (the paper notes it
    /// is "reasonable to limit the maximum nesting depth of items in a
    /// document"). `max_paths` caps output size for pathological DTDs;
    /// enumeration stops once the cap is hit.
    pub fn enumerate_paths(
        &self,
        max_depth: usize,
        cycle_unroll: usize,
        max_paths: usize,
    ) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        self.enum_rec(
            &self.root,
            max_depth,
            cycle_unroll,
            max_paths,
            &mut stack,
            &mut out,
        );
        out
    }

    fn enum_rec(
        &self,
        name: &str,
        max_depth: usize,
        cycle_unroll: usize,
        max_paths: usize,
        stack: &mut Vec<String>,
        out: &mut Vec<Vec<String>>,
    ) {
        if out.len() >= max_paths {
            return;
        }
        let occurrences = stack.iter().filter(|n| n.as_str() == name).count();
        if occurrences > cycle_unroll {
            return;
        }
        stack.push(name.to_owned());
        let children = self.children_of(name);
        if children.is_empty() || stack.len() >= max_depth {
            out.push(stack.clone());
        } else {
            for child in children {
                self.enum_rec(child, max_depth, cycle_unroll, max_paths, stack, out);
            }
        }
        stack.pop();
    }
}

struct DtdParser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> DtdParser<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::new(XmlErrorKind::InvalidDtdDeclaration(msg.into()), self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.input.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_until_gt(&mut self) {
        while let Some(&c) = self.input.get(self.pos) {
            self.pos += 1;
            if c == b'>' {
                return;
            }
        }
    }

    fn next_element_decl(&mut self) -> Result<Option<(String, ContentModel)>, XmlError> {
        loop {
            self.skip_ws();
            if self.pos >= self.input.len() {
                return Ok(None);
            }
            if self.starts_with("<!--") {
                while self.pos < self.input.len() && !self.starts_with("-->") {
                    self.pos += 1;
                }
                self.pos = (self.pos + 3).min(self.input.len());
                continue;
            }
            if self.starts_with("<!ELEMENT") {
                self.pos += "<!ELEMENT".len();
                let (name, model) = self.parse_element_decl()?;
                return Ok(Some((name, model)));
            }
            if self.starts_with("<!") {
                // ATTLIST / ENTITY / NOTATION — irrelevant to routing.
                self.skip_until_gt();
                continue;
            }
            return Err(self.err("expected `<!ELEMENT` declaration"));
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&c) = self.input.get(self.pos) {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .unwrap()
            .to_owned())
    }

    fn parse_element_decl(&mut self) -> Result<(String, ContentModel), XmlError> {
        let name = self.parse_name()?;
        self.skip_ws();
        let model = if self.starts_with("EMPTY") {
            self.pos += "EMPTY".len();
            ContentModel::Empty
        } else if self.starts_with("ANY") {
            self.pos += "ANY".len();
            ContentModel::Any
        } else if self.starts_with("(") {
            self.parse_content_spec()?
        } else {
            return Err(self.err("expected EMPTY, ANY, or `(`"));
        };
        self.skip_ws();
        if self.input.get(self.pos) != Some(&b'>') {
            return Err(self.err("expected `>` closing element declaration"));
        }
        self.pos += 1;
        Ok((name, model))
    }

    fn parse_content_spec(&mut self) -> Result<ContentModel, XmlError> {
        // Positioned at '('. Look ahead for #PCDATA to distinguish mixed
        // content from element content.
        let save = self.pos;
        self.pos += 1;
        self.skip_ws();
        if self.starts_with("#PCDATA") {
            self.pos += "#PCDATA".len();
            let mut names = Vec::new();
            loop {
                self.skip_ws();
                match self.input.get(self.pos) {
                    Some(b'|') => {
                        self.pos += 1;
                        names.push(self.parse_name()?);
                    }
                    Some(b')') => {
                        self.pos += 1;
                        // Optional trailing '*' on mixed content.
                        if self.input.get(self.pos) == Some(&b'*') {
                            self.pos += 1;
                        }
                        return Ok(if names.is_empty() {
                            ContentModel::PcData
                        } else {
                            ContentModel::Mixed(names)
                        });
                    }
                    _ => return Err(self.err("malformed mixed-content model")),
                }
            }
        }
        self.pos = save;
        let particle = self.parse_particle()?;
        Ok(ContentModel::Children(particle))
    }

    fn parse_particle(&mut self) -> Result<Particle, XmlError> {
        self.skip_ws();
        let mut particle = if self.input.get(self.pos) == Some(&b'(') {
            self.pos += 1;
            let first = self.parse_particle()?;
            self.skip_ws();
            match self.input.get(self.pos) {
                Some(b')') => {
                    self.pos += 1;
                    // Keep the group wrapper: a suffix after `)` applies
                    // to the group, and must not clobber the inner
                    // particle's own occurrence (e.g. `(quote?)`).
                    Particle::seq(vec![first])
                }
                Some(sep @ (b',' | b'|')) => {
                    let sep = *sep;
                    let mut items = vec![first];
                    while self.input.get(self.pos) == Some(&sep) {
                        self.pos += 1;
                        items.push(self.parse_particle()?);
                        self.skip_ws();
                    }
                    if self.input.get(self.pos) != Some(&b')') {
                        return Err(self.err("expected `)`"));
                    }
                    self.pos += 1;
                    if sep == b',' {
                        Particle::seq(items)
                    } else {
                        Particle::choice(items)
                    }
                }
                _ => return Err(self.err("expected `)`, `,`, or `|`")),
            }
        } else {
            Particle::name(self.parse_name()?)
        };
        particle.occurrence = match self.input.get(self.pos) {
            Some(b'?') => {
                self.pos += 1;
                Occurrence::Optional
            }
            Some(b'*') => {
                self.pos += 1;
                Occurrence::ZeroOrMore
            }
            Some(b'+') => {
                self.pos += 1;
                Occurrence::OneOrMore
            }
            _ => Occurrence::One,
        };
        Ok(particle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dtd {
        Dtd::parse(
            "<!ELEMENT doc (head, body+)>\n\
             <!ELEMENT head (#PCDATA)>\n\
             <!ELEMENT body (body?, (par | note)*)>\n\
             <!ELEMENT par EMPTY>\n\
             <!ELEMENT note (#PCDATA)>",
        )
        .unwrap()
    }

    #[test]
    fn parse_basic_declarations() {
        let dtd = sample();
        assert_eq!(dtd.root(), "doc");
        assert_eq!(dtd.len(), 5);
        assert_eq!(
            dtd.children_of("doc").into_iter().collect::<Vec<_>>(),
            vec!["body", "head"]
        );
        assert!(dtd.children_of("par").is_empty());
    }

    #[test]
    fn recursion_detected() {
        let dtd = sample();
        assert!(dtd.is_recursive());
        assert_eq!(
            dtd.recursive_elements().into_iter().collect::<Vec<_>>(),
            vec!["body"]
        );
    }

    #[test]
    fn non_recursive_dtd() {
        let dtd =
            Dtd::parse("<!ELEMENT a (b, c)><!ELEMENT b EMPTY><!ELEMENT c (#PCDATA)>").unwrap();
        assert!(!dtd.is_recursive());
        assert!(dtd.recursive_elements().is_empty());
    }

    #[test]
    fn mutual_recursion_detected() {
        let dtd = Dtd::parse("<!ELEMENT a (b?)><!ELEMENT b (a?)>").unwrap();
        assert!(dtd.is_recursive());
        assert_eq!(dtd.recursive_elements().len(), 2);
    }

    #[test]
    fn undeclared_element_rejected() {
        let err = Dtd::parse("<!ELEMENT a (b)>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UndeclaredElement(n) if n == "b"));
    }

    #[test]
    fn attlist_and_comments_skipped() {
        let dtd = Dtd::parse(
            "<!-- news -->\n<!ELEMENT a (b)>\n<!ATTLIST a id CDATA #REQUIRED>\n<!ELEMENT b EMPTY>",
        )
        .unwrap();
        assert_eq!(dtd.root(), "a");
    }

    #[test]
    fn mixed_content_children() {
        let dtd = Dtd::parse("<!ELEMENT a (#PCDATA | b)*><!ELEMENT b EMPTY>").unwrap();
        assert_eq!(
            dtd.children_of("a").into_iter().collect::<Vec<_>>(),
            vec!["b"]
        );
    }

    #[test]
    fn any_content_children() {
        let dtd = Dtd::parse("<!ELEMENT a ANY><!ELEMENT b EMPTY>").unwrap();
        let kids = dtd.children_of("a");
        assert!(kids.contains("a") && kids.contains("b"));
    }

    #[test]
    fn enumerate_paths_non_recursive() {
        let dtd =
            Dtd::parse("<!ELEMENT a (b, c)><!ELEMENT b (d)><!ELEMENT c EMPTY><!ELEMENT d EMPTY>")
                .unwrap();
        let mut paths = dtd.enumerate_paths(10, 1, 1000);
        paths.sort();
        assert_eq!(
            paths,
            vec![
                vec!["a".to_string(), "b".into(), "d".into()],
                vec!["a".to_string(), "c".into()],
            ]
        );
    }

    #[test]
    fn enumerate_paths_bounds_recursion() {
        let dtd = Dtd::parse("<!ELEMENT a (a?, b)><!ELEMENT b EMPTY>").unwrap();
        let paths = dtd.enumerate_paths(10, 2, 1000);
        // a/b, a/a/b, a/a/a... bounded: each path has at most 2 extra `a`s.
        assert!(paths
            .iter()
            .all(|p| p.iter().filter(|e| *e == "a").count() <= 3));
        assert!(paths.contains(&vec!["a".to_string(), "b".into()]));
        assert!(paths.contains(&vec!["a".to_string(), "a".into(), "b".into()]));
    }

    #[test]
    fn enumerate_paths_respects_cap() {
        let dtd = Dtd::parse("<!ELEMENT a (a?, b)><!ELEMENT b EMPTY>").unwrap();
        let paths = dtd.enumerate_paths(10, 5, 3);
        assert!(paths.len() <= 3);
    }

    #[test]
    fn particle_display_roundtrip_shape() {
        let p = Particle::seq(vec![
            Particle::name("a"),
            Particle::choice(vec![Particle::name("b"), Particle::name("c")])
                .with_occurrence(Occurrence::ZeroOrMore),
        ])
        .with_occurrence(Occurrence::OneOrMore);
        assert_eq!(p.to_string(), "(a, (b | c)*)+");
    }

    #[test]
    fn occurrence_helpers() {
        assert!(Occurrence::Optional.is_optional());
        assert!(Occurrence::ZeroOrMore.is_optional());
        assert!(!Occurrence::OneOrMore.is_optional());
        assert_eq!(Occurrence::OneOrMore.suffix(), Some('+'));
        assert_eq!(Occurrence::One.suffix(), None);
    }
}
