//! Recursive-descent parser from [`crate::lexer`] tokens to the
//! [`crate::ast`] shape.
//!
//! Two layers:
//!
//! * an **item walker** that recognises `fn` / `impl` / `trait` /
//!   `enum` / `mod` / `const` / `static` items (tracking the owning
//!   `impl`/`trait` type and `#[cfg(test)]` regions) and skips
//!   everything else by balanced-delimiter scanning;
//! * a **body scanner** that turns a function body's tokens into the
//!   flat [`Op`] list, classifying `Enum::Variant` paths by pattern vs.
//!   expression position (match arms, `if let` / `while let` / plain
//!   `let` patterns, `for` patterns, and the second argument of
//!   `matches!`), and recording calls, indexing, string literals, and
//!   the block/statement structure the lock pass replays.
//!
//! The parser must never panic: every scan is bounds-checked and every
//! "find the matching delimiter" falls back to the region end on
//! malformed input (the proptest in `xtask/tests/parser_props.rs` feeds
//! it arbitrary soup).

use crate::ast::{ConstDef, EnumDef, FnDef, Op, ParsedFile};
use crate::lexer::{lex, Tok, Token};
use std::path::PathBuf;

/// Parses one file's source text.
pub fn parse_file(path: PathBuf, src: &str) -> ParsedFile {
    let lexed = lex(src);
    let mut out = ParsedFile {
        path,
        allows: lexed.allows.clone(),
        mentions_rwlock: lexed
            .tokens
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(w) if w == "RwLock")),
        ..ParsedFile::default()
    };
    let mut p = Parser { t: &lexed.tokens };
    p.items(0, lexed.tokens.len(), None, false, &mut out);
    out
}

/// Identifiers that introduce control flow rather than calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "move",
    "as", "let", "mut", "ref", "fn", "impl", "pub", "use", "mod", "struct", "enum", "trait",
    "where", "unsafe", "async", "await", "dyn", "const", "static", "type", "crate", "super",
];

struct Parser<'a> {
    t: &'a [Token],
}

impl<'a> Parser<'a> {
    fn ident(&self, i: usize) -> Option<&'a str> {
        match self.t.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, i: usize) -> Option<char> {
        match self.t.get(i).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    fn line(&self, i: usize) -> u32 {
        self.t.get(i).map_or(0, |t| t.line)
    }

    /// Index just past the delimiter that closes `open` (which must sit
    /// on `(`, `[`, or `{`). Counts only the same delimiter kind —
    /// valid Rust nests delimiters properly, so this is exact; on
    /// malformed input it degrades to `end`.
    fn close_of(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.punct(open) {
            Some('(') => ('(', ')'),
            Some('[') => ('[', ']'),
            Some('{') => ('{', '}'),
            _ => return (open + 1).min(end),
        };
        let mut depth = 0i64;
        let mut i = open;
        while i < end {
            match self.punct(i) {
                Some(x) if x == o => depth += 1,
                Some(x) if x == c => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// First index in `[i, end)` where `what` holds at combined
    /// paren/bracket/brace depth 0 (relative to `i`).
    fn find_at_depth0(
        &self,
        mut i: usize,
        end: usize,
        what: impl Fn(&Parser<'a>, usize) -> bool,
    ) -> Option<usize> {
        let mut depth = 0i64;
        while i < end {
            // Closers drop the depth *before* the predicate runs and
            // openers raise it *after*, so the predicate can match an
            // opening delimiter sitting at depth 0.
            if matches!(self.punct(i), Some(')') | Some(']') | Some('}')) {
                depth -= 1;
            }
            if depth <= 0 && what(self, i) {
                return Some(i);
            }
            if matches!(self.punct(i), Some('(') | Some('[') | Some('{')) {
                depth += 1;
            }
            i += 1;
        }
        None
    }

    /// Walks items in `[i, end)`, appending into `out`.
    fn items(
        &mut self,
        mut i: usize,
        end: usize,
        owner: Option<&str>,
        in_test: bool,
        out: &mut ParsedFile,
    ) {
        // Test-ness accumulated from attributes since the last item.
        let mut attr_test = false;
        while i < end {
            // Attributes: `#` `!`? `[ ... ]`.
            if self.punct(i) == Some('#') {
                let mut j = i + 1;
                if self.punct(j) == Some('!') {
                    j += 1;
                }
                if self.punct(j) == Some('[') {
                    let close = self.close_of(j, end);
                    for k in j..close {
                        if self.ident(k) == Some("test") {
                            attr_test = true;
                        }
                    }
                    i = close;
                    continue;
                }
                i += 1;
                continue;
            }
            match self.ident(i) {
                // Modifiers that precede an item keyword.
                Some("pub") => {
                    i += 1;
                    if self.punct(i) == Some('(') {
                        i = self.close_of(i, end);
                    }
                }
                Some("unsafe") | Some("async") | Some("extern") | Some("default") => i += 1,
                Some("fn") => {
                    let name = self.ident(i + 1).unwrap_or("?").to_owned();
                    let line = self.line(i);
                    // Body opens at the first `{` outside any paren or
                    // bracket (generics/where clauses carry no braces);
                    // a `;` first means a bodiless trait method.
                    let stop = self.find_at_depth0(i + 2, end, |p, k| {
                        p.punct(k) == Some('{') || p.punct(k) == Some(';')
                    });
                    match stop {
                        Some(open) if self.punct(open) == Some('{') => {
                            let close = self.close_of(open, end);
                            let mut body = Vec::new();
                            let mut s = Scanner {
                                p: self,
                                ops: &mut body,
                            };
                            s.expr_region(open + 1, close.saturating_sub(1));
                            out.fns.push(FnDef {
                                name,
                                owner: owner.map(str::to_owned),
                                line,
                                is_test: in_test || attr_test,
                                body,
                            });
                            i = close;
                        }
                        Some(semi) => i = semi + 1,
                        None => i = end,
                    }
                    attr_test = false;
                }
                Some("const") | Some("static") if self.ident(i + 1) != Some("fn") => {
                    // `const NAME: Type = expr;` — also `static mut`.
                    let mut j = i + 1;
                    if self.ident(j) == Some("mut") {
                        j += 1;
                    }
                    let name = self.ident(j).unwrap_or("?").to_owned();
                    let line = self.line(i);
                    let stop = self.find_at_depth0(j, end, |p, k| {
                        (p.punct(k) == Some('=') && p.punct(k + 1) != Some('='))
                            || p.punct(k) == Some(';')
                    });
                    match stop {
                        Some(eq) if self.punct(eq) == Some('=') => {
                            let semi = self
                                .find_at_depth0(eq + 1, end, |p, k| p.punct(k) == Some(';'))
                                .unwrap_or(end);
                            let mut body = Vec::new();
                            let mut s = Scanner {
                                p: self,
                                ops: &mut body,
                            };
                            s.expr_region(eq + 1, semi);
                            out.consts.push(ConstDef {
                                name,
                                owner: owner.map(str::to_owned),
                                line,
                                is_test: in_test || attr_test,
                                body,
                            });
                            i = semi + 1;
                        }
                        Some(semi) => i = semi + 1,
                        None => i = end,
                    }
                    attr_test = false;
                }
                Some("enum") => {
                    let name = self.ident(i + 1).unwrap_or("?").to_owned();
                    match self.find_at_depth0(i + 1, end, |p, k| p.punct(k) == Some('{')) {
                        Some(open) => {
                            let close = self.close_of(open, end);
                            out.enums.push(EnumDef {
                                name,
                                variants: self.enum_variants(open + 1, close.saturating_sub(1)),
                                is_test: in_test || attr_test,
                            });
                            i = close;
                        }
                        None => i = end,
                    }
                    attr_test = false;
                }
                Some("impl") => {
                    match self.find_at_depth0(i + 1, end, |p, k| p.punct(k) == Some('{')) {
                        Some(open) => {
                            let ty = self
                                .impl_type(i + 1, open)
                                .unwrap_or_else(|| "?".to_owned());
                            let close = self.close_of(open, end);
                            self.items(
                                open + 1,
                                close.saturating_sub(1),
                                Some(&ty),
                                in_test || attr_test,
                                out,
                            );
                            i = close;
                        }
                        None => i = end,
                    }
                    attr_test = false;
                }
                Some("trait") => {
                    let name = self.ident(i + 1).unwrap_or("?").to_owned();
                    match self.find_at_depth0(i + 1, end, |p, k| p.punct(k) == Some('{')) {
                        Some(open) => {
                            let close = self.close_of(open, end);
                            self.items(
                                open + 1,
                                close.saturating_sub(1),
                                Some(&name),
                                in_test || attr_test,
                                out,
                            );
                            i = close;
                        }
                        None => i = end,
                    }
                    attr_test = false;
                }
                Some("mod") => {
                    let stop = self.find_at_depth0(i + 1, end, |p, k| {
                        p.punct(k) == Some('{') || p.punct(k) == Some(';')
                    });
                    match stop {
                        Some(open) if self.punct(open) == Some('{') => {
                            let close = self.close_of(open, end);
                            self.items(
                                open + 1,
                                close.saturating_sub(1),
                                owner,
                                in_test || attr_test,
                                out,
                            );
                            i = close;
                        }
                        Some(semi) => i = semi + 1,
                        None => i = end,
                    }
                    attr_test = false;
                }
                Some("struct") | Some("union") | Some("use") | Some("type") => {
                    // Runs to `;` or to a balanced `{}` block.
                    let stop = self.find_at_depth0(i + 1, end, |p, k| {
                        p.punct(k) == Some('{') || p.punct(k) == Some(';')
                    });
                    match stop {
                        Some(open) if self.punct(open) == Some('{') => {
                            i = self.close_of(open, end);
                        }
                        Some(semi) => i = semi + 1,
                        None => i = end,
                    }
                    attr_test = false;
                }
                Some("macro_rules") => {
                    match self.find_at_depth0(i + 1, end, |p, k| p.punct(k) == Some('{')) {
                        Some(open) => i = self.close_of(open, end),
                        None => i = end,
                    }
                    attr_test = false;
                }
                _ => i += 1,
            }
        }
    }

    /// The `Self` type of an `impl` header in `[i, open)`:
    /// `impl Trait for Type` → `Type`; `impl<G> Type<G>` → `Type`.
    fn impl_type(&self, mut i: usize, open: usize) -> Option<String> {
        // Skip the generic parameter list right after `impl`.
        if self.punct(i) == Some('<') {
            let mut depth = 0i64;
            while i < open {
                match self.punct(i) {
                    Some('<') => depth += 1,
                    Some('>') => {
                        depth -= 1;
                        if depth <= 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        // `for` at angle-depth 0 splits trait from type (`for<'a>` has
        // no idents before `{`, and closures cannot appear here).
        let mut depth = 0i64;
        let mut after_for = None;
        for k in i..open {
            match self.punct(k) {
                Some('<') => depth += 1,
                Some('>') => depth -= 1,
                _ => {}
            }
            if depth <= 0 && self.ident(k) == Some("for") {
                after_for = Some(k + 1);
                break;
            }
        }
        let from = after_for.unwrap_or(i);
        (from..open).find_map(|k| match self.ident(k) {
            Some(w) if !KEYWORDS.contains(&w) => Some(w.to_owned()),
            _ => None,
        })
    }

    /// Variant names at depth 0 of an enum body `[i, end)`.
    fn enum_variants(&self, mut i: usize, end: usize) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        while i < end {
            // Skip attributes on variants.
            if self.punct(i) == Some('#') && self.punct(i + 1) == Some('[') {
                i = self.close_of(i + 1, end);
                continue;
            }
            match self.ident(i) {
                Some(name) => {
                    out.push((name.to_owned(), self.line(i)));
                    // Skip payload + discriminant to the `,` at depth 0.
                    i = self
                        .find_at_depth0(i + 1, end, |p, k| p.punct(k) == Some(','))
                        .map_or(end, |c| c + 1);
                }
                None => i += 1,
            }
        }
        out
    }
}

/// Body scanner: appends [`Op`]s for one expression region.
struct Scanner<'a, 'b> {
    p: &'b Parser<'a>,
    ops: &'b mut Vec<Op>,
}

impl<'a, 'b> Scanner<'a, 'b> {
    /// Scans `[i, end)` as expressions/statements.
    fn expr_region(&mut self, mut i: usize, end: usize) {
        // Combined paren+bracket depth, for `Semi`/`LetStart` scoping.
        let mut paren = 0u32;
        while i < end {
            let line = self.p.line(i);
            match &self.p.t[i].tok {
                Tok::Ident(w) => match w.as_str() {
                    "match" => {
                        match self
                            .p
                            .find_at_depth0(i + 1, end, |p, k| p.punct(k) == Some('{'))
                        {
                            Some(open) => {
                                self.expr_region(i + 1, open);
                                let close = self.p.close_of(open, end);
                                self.ops.push(Op::Open);
                                self.match_arms(open + 1, close.saturating_sub(1));
                                self.ops.push(Op::Close);
                                i = close;
                            }
                            None => i = end,
                        }
                    }
                    "let" => {
                        self.ops.push(Op::LetStart {
                            paren_depth: paren,
                            line,
                        });
                        let stop = self.p.find_at_depth0(i + 1, end, |p, k| {
                            (p.punct(k) == Some('=') && p.punct(k + 1) != Some('='))
                                || p.punct(k) == Some(';')
                        });
                        match stop {
                            Some(eq) => {
                                self.let_pattern(i + 1, eq);
                                // The initializer (or `;`) continues in
                                // the normal walk.
                                i = eq;
                                if self.p.punct(eq) == Some('=') {
                                    i = eq + 1;
                                }
                            }
                            None => i = end,
                        }
                    }
                    "for" => {
                        // `for PAT in expr { .. }` — the pattern span
                        // runs to `in`; a missing `in` before the block
                        // means this was not a for-loop header.
                        let block = self
                            .p
                            .find_at_depth0(i + 1, end, |p, k| p.punct(k) == Some('{'))
                            .unwrap_or(end);
                        match self
                            .p
                            .find_at_depth0(i + 1, block, |p, k| p.ident(k) == Some("in"))
                        {
                            Some(inn) => {
                                self.pattern_region(i + 1, inn);
                                i = inn + 1;
                            }
                            None => i += 1,
                        }
                    }
                    "matches" if self.p.punct(i + 1) == Some('!') => {
                        self.ops.push(Op::Macro {
                            name: "matches".to_owned(),
                            line,
                        });
                        if self.p.punct(i + 2) == Some('(') {
                            let close = self.p.close_of(i + 2, end);
                            let inner_end = close.saturating_sub(1);
                            match self
                                .p
                                .find_at_depth0(i + 3, inner_end, |p, k| p.punct(k) == Some(','))
                            {
                                Some(comma) => {
                                    self.expr_region(i + 3, comma);
                                    self.pattern_region(comma + 1, inner_end);
                                }
                                None => self.expr_region(i + 3, inner_end),
                            }
                            i = close;
                        } else {
                            i += 2;
                        }
                    }
                    _ => {
                        if self.p.punct(i + 1) == Some('!')
                            && matches!(self.p.punct(i + 2), Some('(') | Some('[') | Some('{'))
                        {
                            // Plain macro: contents scanned as exprs.
                            self.ops.push(Op::Macro {
                                name: w.clone(),
                                line,
                            });
                            i += 2;
                        } else {
                            self.ident_in_expr(i, w, paren, line);
                            i += 1;
                        }
                    }
                },
                Tok::Punct('#') if self.p.punct(i + 1) == Some('[') => {
                    // Statement attribute: skip entirely.
                    i = self.p.close_of(i + 1, end);
                }
                Tok::Punct('{') => {
                    self.ops.push(Op::Open);
                    i += 1;
                }
                Tok::Punct('}') => {
                    self.ops.push(Op::Close);
                    i += 1;
                }
                Tok::Punct(';') => {
                    if paren == 0 {
                        self.ops.push(Op::Semi);
                    }
                    i += 1;
                }
                Tok::Punct('(') => {
                    paren += 1;
                    i += 1;
                }
                Tok::Punct(')') => {
                    paren = paren.saturating_sub(1);
                    i += 1;
                }
                Tok::Punct('[') => {
                    if self.indexes(i) {
                        self.ops.push(Op::Index { line });
                    }
                    paren += 1;
                    i += 1;
                }
                Tok::Punct(']') => {
                    paren = paren.saturating_sub(1);
                    i += 1;
                }
                Tok::Lit(s) => {
                    // Strings vs numbers: the lexer does not tag them,
                    // but numeric literals always start with a digit.
                    if !s.is_empty() && !s.starts_with(|c: char| c.is_ascii_digit()) {
                        self.ops.push(Op::Str {
                            value: s.clone(),
                            line,
                        });
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// An identifier met in expression position: classify calls and
    /// enum-path references.
    fn ident_in_expr(&mut self, i: usize, w: &str, paren: u32, line: u32) {
        if KEYWORDS.contains(&w) {
            return;
        }
        let upper = w.starts_with(|c: char| c.is_ascii_uppercase());
        // `Prev::w` with both segments capitalized and no further `::`
        // is an enum-variant reference in expression position.
        if upper && self.path_sep_before(i) && self.p.punct(i + 1) != Some(':') {
            if let Some(e) = self.p.ident(i.saturating_sub(3)) {
                if e.starts_with(|c: char| c.is_ascii_uppercase()) {
                    self.ops.push(Op::ExprVariant {
                        enumeration: e.to_owned(),
                        variant: w.to_owned(),
                        line,
                    });
                }
            }
        }
        if self.p.punct(i + 1) != Some('(') {
            return;
        }
        // A call. Which flavour?
        if self.p.punct(i.saturating_sub(1)) == Some('.') && i >= 1 {
            let recv = self.p.ident(i.saturating_sub(2));
            self.ops.push(Op::MethodCall {
                name: w.to_owned(),
                recv_self: recv == Some("self"),
                recv_last: recv.filter(|r| *r != "self").map(str::to_owned),
                paren_depth: paren,
                line,
            });
        } else if self.path_sep_before(i) {
            let qualifier = self
                .p
                .ident(i.saturating_sub(3))
                .filter(|q| !KEYWORDS.contains(q))
                .map(str::to_owned);
            self.ops.push(Op::PathCall {
                qualifier,
                name: w.to_owned(),
                arg_last: self.arg_last(i + 1),
                paren_depth: paren,
                line,
            });
        } else {
            self.ops.push(Op::BareCall {
                name: w.to_owned(),
                arg_last: self.arg_last(i + 1),
                paren_depth: paren,
                line,
            });
        }
    }

    /// Whether tokens `i-2, i-1` are `::`.
    fn path_sep_before(&self, i: usize) -> bool {
        i >= 2 && self.p.punct(i - 1) == Some(':') && self.p.punct(i - 2) == Some(':')
    }

    /// Last identifier inside the argument list opening at `open`.
    fn arg_last(&self, open: usize) -> Option<String> {
        let close = self.p.close_of(open, self.p.t.len());
        (open..close.saturating_sub(1))
            .rev()
            .find_map(|k| self.p.ident(k))
            .filter(|w| !KEYWORDS.contains(w))
            .map(str::to_owned)
    }

    /// Whether a `[` at `i` indexes/slices the preceding expression.
    fn indexes(&self, i: usize) -> bool {
        if i == 0 {
            return false;
        }
        match &self.p.t[i - 1].tok {
            Tok::Ident(w) => !KEYWORDS.contains(&w.as_str()),
            Tok::Lit(_) => true, // tuple-field chains: `self.0[i]`
            Tok::Punct(')') | Tok::Punct(']') => true,
            _ => false,
        }
    }

    /// Arms of a match body `[i, end)` (inside the braces).
    fn match_arms(&mut self, mut i: usize, end: usize) {
        while i < end {
            // Skip separators and arm attributes.
            match self.p.punct(i) {
                Some(',') | Some('|') => {
                    i += 1;
                    continue;
                }
                Some('#') if self.p.punct(i + 1) == Some('[') => {
                    i = self.p.close_of(i + 1, end);
                    continue;
                }
                _ => {}
            }
            // Pattern runs to `=>` at depth 0.
            let arrow = self.p.find_at_depth0(i, end, |p, k| {
                p.punct(k) == Some('=') && p.punct(k + 1) == Some('>')
            });
            let Some(arrow) = arrow else {
                // No arrow left: scan the tail as an expression so any
                // trailing tokens are not lost, then stop.
                self.expr_region(i, end);
                return;
            };
            self.pattern_region(i, arrow);
            // Arm body: a `{ .. }` block, or an expression up to the
            // `,` at depth 0 (or the match's end).
            let b = arrow + 2;
            if self.p.punct(b) == Some('{') {
                let close = self.p.close_of(b, end);
                self.ops.push(Op::Open);
                self.expr_region(b + 1, close.saturating_sub(1));
                self.ops.push(Op::Close);
                i = close;
            } else {
                let stop = self
                    .p
                    .find_at_depth0(b, end, |p, k| p.punct(k) == Some(','))
                    .unwrap_or(end);
                self.expr_region(b, stop);
                i = stop;
            }
        }
    }

    /// A pattern region: emits `PatVariant` for terminal
    /// `Enum::Variant` pairs; a top-level `if` switches the remainder
    /// (a match-arm or `matches!` guard) back to expression scanning.
    fn pattern_region(&mut self, mut i: usize, end: usize) {
        let mut depth = 0i64;
        while i < end {
            match self.p.punct(i) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') | Some('}') => depth -= 1,
                _ => {}
            }
            if depth <= 0 && self.p.ident(i) == Some("if") {
                self.expr_region(i + 1, end);
                return;
            }
            if let Some(w) = self.p.ident(i) {
                if w.starts_with(|c: char| c.is_ascii_uppercase())
                    && self.path_sep_before(i)
                    && self.p.punct(i + 1) != Some(':')
                {
                    if let Some(e) = self.p.ident(i.saturating_sub(3)) {
                        if e.starts_with(|c: char| c.is_ascii_uppercase()) {
                            self.ops.push(Op::PatVariant {
                                enumeration: e.to_owned(),
                                variant: w.to_owned(),
                                line: self.p.line(i),
                            });
                        }
                    }
                }
            }
            i += 1;
        }
    }

    /// A `let` pattern `[i, end)`: emits `Bind` when the pattern is a
    /// plain (possibly `mut`, possibly type-ascribed) identifier, and
    /// `PatVariant`s either way.
    fn let_pattern(&mut self, mut i: usize, end: usize) {
        if self.p.ident(i) == Some("mut") {
            i += 1;
        }
        if let Some(w) = self.p.ident(i) {
            let simple = i + 1 >= end
                || (self.p.punct(i + 1) == Some(':') && self.p.punct(i + 2) != Some(':'));
            if simple && !KEYWORDS.contains(&w) {
                self.ops.push(Op::Bind { name: w.to_owned() });
            }
        }
        self.pattern_region(i, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Op;

    fn parse(src: &str) -> ParsedFile {
        parse_file(PathBuf::from("test.rs"), src)
    }

    #[test]
    fn fns_and_owners() {
        let f = parse(
            "fn free() {}\n\
             impl Broker { fn handle(&mut self) {} }\n\
             impl<R: Router> PublicationRouter<H> for TimedRouter<R> { fn route(&self) {} }\n\
             trait Link { fn provided(&self) { self.go(); } fn required(&self); }",
        );
        let names: Vec<String> = f.fns.iter().map(FnDef::qualified).collect();
        assert_eq!(
            names,
            vec![
                "free",
                "Broker::handle",
                "TimedRouter::route",
                "Link::provided"
            ]
        );
        assert_eq!(f.fns[1].line, 2);
    }

    #[test]
    fn test_regions_are_flagged() {
        let f = parse(
            "fn prod() {}\n\
             #[cfg(test)] mod tests { fn helper() {} #[test] fn check() {} }\n\
             #[test] fn top() {}",
        );
        let flags: Vec<(String, bool)> =
            f.fns.iter().map(|d| (d.name.clone(), d.is_test)).collect();
        assert_eq!(
            flags,
            vec![
                ("prod".to_owned(), false),
                ("helper".to_owned(), true),
                ("check".to_owned(), true),
                ("top".to_owned(), true)
            ]
        );
    }

    #[test]
    fn calls_are_classified() {
        let f = parse(
            "fn f(&self) { self.go(); self.stats.lock(); wire::encode(&m); \
             DedupWindow::observe(x); helper(&self.addr); }",
        );
        let body = &f.fns[0].body;
        assert!(body.contains(&Op::MethodCall {
            name: "go".into(),
            recv_self: true,
            recv_last: None,
            paren_depth: 0,
            line: 1
        }));
        assert!(body.contains(&Op::MethodCall {
            name: "lock".into(),
            recv_self: false,
            recv_last: Some("stats".into()),
            paren_depth: 0,
            line: 1
        }));
        assert!(body.iter().any(|o| matches!(
            o,
            Op::PathCall { qualifier: Some(q), name, .. } if q == "wire" && name == "encode"
        )));
        assert!(body.iter().any(|o| matches!(
            o,
            Op::PathCall { qualifier: Some(q), name, .. }
                if q == "DedupWindow" && name == "observe"
        )));
        assert!(body.iter().any(|o| matches!(
            o,
            Op::BareCall { name, arg_last: Some(a), .. } if name == "helper" && a == "addr"
        )));
    }

    #[test]
    fn pattern_vs_expression_variants() {
        let f = parse(
            "fn f(m: Message) { match m { Message::Publish(p) => go(p), \
             Message::Ack { seq } if seq > 0 => {} _ => {} } \
             let out = Message::Heartbeat; \
             if let Message::Subscribe(s) = &m { use_it(s); } \
             let yes = matches!(m, Message::Sequenced { .. }); }",
        );
        let body = &f.fns[0].body;
        let pats: Vec<&str> = body
            .iter()
            .filter_map(|o| match o {
                Op::PatVariant { variant, .. } => Some(variant.as_str()),
                _ => None,
            })
            .collect();
        let exprs: Vec<&str> = body
            .iter()
            .filter_map(|o| match o {
                Op::ExprVariant { variant, .. } => Some(variant.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(pats, vec!["Publish", "Ack", "Subscribe", "Sequenced"]);
        assert_eq!(exprs, vec!["Heartbeat"]);
    }

    #[test]
    fn match_guard_calls_are_seen() {
        let f = parse(
            "fn f(&self, x: Option<u32>) { match x { \
             Some(nb) if self.pending.contains(&nb) => {} _ => {} } }",
        );
        assert!(f.fns[0].body.iter().any(|o| matches!(
            o,
            Op::MethodCall { name, .. } if name == "contains"
        )));
    }

    #[test]
    fn indexing_and_slicing() {
        let f =
            parse("fn f(&self, i: usize) { self.0[i] += 1; let s = &buf[..n]; let a = [0; 4]; }");
        let count = f.fns[0]
            .body
            .iter()
            .filter(|o| matches!(o, Op::Index { .. }))
            .count();
        assert_eq!(count, 2, "{:?}", f.fns[0].body);
    }

    #[test]
    fn let_binds_and_statement_structure() {
        let f = parse("fn f(&self) { let mut q = self.queue.lock(); q.push(1); }");
        let body = &f.fns[0].body;
        assert!(body.contains(&Op::Bind { name: "q".into() }));
        assert_eq!(
            body.iter().filter(|o| matches!(o, Op::Semi)).count(),
            2,
            "{body:?}"
        );
        assert!(body
            .iter()
            .any(|o| matches!(o, Op::LetStart { paren_depth: 0, .. })));
    }

    #[test]
    fn enums_and_const_initializers() {
        let f = parse(
            "pub enum MessageKind { Advertise, Publish, Ack }\n\
             impl MessageKind { pub const ALL: [MessageKind; 3] = \
             [MessageKind::Advertise, MessageKind::Publish, MessageKind::Ack]; }",
        );
        assert_eq!(f.enums.len(), 1);
        assert_eq!(f.enums[0].variants.len(), 3);
        assert_eq!(f.consts.len(), 1);
        let refs = f.consts[0]
            .body
            .iter()
            .filter(|o| matches!(o, Op::ExprVariant { .. }))
            .count();
        assert_eq!(refs, 3);
    }

    #[test]
    fn strings_reach_ops_but_numbers_do_not() {
        let f = parse(r#"fn f() { reg("xdn_retransmits_total"); let n = 42; }"#);
        let strs: Vec<&str> = f.fns[0]
            .body
            .iter()
            .filter_map(|o| match o {
                Op::Str { value, .. } => Some(value.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["xdn_retransmits_total"]);
    }

    #[test]
    fn macros_are_recorded() {
        let f = parse(r#"fn f() { unreachable!("guard matched"); vec![1, 2]; }"#);
        let macros: Vec<&str> = f.fns[0]
            .body
            .iter()
            .filter_map(|o| match o {
                Op::Macro { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(macros, vec!["unreachable", "vec"]);
    }

    #[test]
    fn parser_survives_malformed_soup() {
        for src in [
            "fn f( {",
            "impl { fn g(",
            "match { => , => }",
            "enum E { A(",
            "fn f() { let = ; matches!( }",
            "}}}}",
            "fn f() { a[ }",
        ] {
            let _ = parse(src);
        }
    }
}
