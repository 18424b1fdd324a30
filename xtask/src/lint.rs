//! The `cargo xtask lint` policy pass.
//!
//! Enforces project rules ordinary `clippy` levels cannot express,
//! over the token stream produced by [`crate::lexer`]:
//!
//! | rule                | policy                                                        |
//! |---------------------|---------------------------------------------------------------|
//! | `unwrap`            | no `.unwrap()` / `.expect(..)` in non-test broker/net code    |
//! | `unbounded-channel` | no unbounded channels anywhere in non-test first-party code   |
//! | `sleep`             | no `thread::sleep` in non-test first-party code               |
//! | `kind-match`        | no catch-all arm in a `Message`/`MessageKind` match (wire/stats) |
//! | `kind-coverage`     | every `Message` variant is encoded *and* decoded in `wire.rs` |
//! | `instant`           | no `Instant::now()` in broker/core hot paths — time through `xdn_obs::Stopwatch` |
//! | `raw-publish-push`  | no queueing of a literal `Message::Publish` — publications reach the wire only through the broker's sequenced-send path |
//! | `thread-spawn`      | no thread spawning in core/broker — routing and matching stay single-threaded; transports own the threads |
//! | `encode-in-loop`    | no `wire::encode` inside a loop body outside the frame builder — per-peer fan-out must share one `FrameBuf` body, not re-encode per destination |
//!
//! Suppression: a comment containing `xtask: allow(<rule>)` on the
//! flagged line or the line above it, with a justification. Files under
//! `tests/`, `benches/`, `examples/`, `third_party/`, `target/`, and
//! `xtask/` are never linted; `#[cfg(test)]` modules and `#[test]`
//! functions inside linted files are skipped.

use crate::lexer::{lex, Lexed, Tok};
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose non-test code must be panic-free on the hot path
/// (`unwrap` rule). The simulator is exempt: it is an experiment
/// harness whose driver API panics on misuse by documented contract.
const UNWRAP_CRATES: &[&str] = &["crates/broker", "crates/net"];
const UNWRAP_EXEMPT: &[&str] = &["crates/net/src/sim.rs"];

/// Crates whose non-test code must not sample `Instant::now()`
/// directly (`instant` rule): broker and core hot paths time through
/// the `xdn_obs::Stopwatch` facade so instrumentation stays uniform
/// and greppable. Transports and the simulator own wall-clock
/// concerns (deadlines, backoff) and are out of scope.
const INSTANT_CRATES: &[&str] = &["crates/broker", "crates/core"];

/// Crates whose non-test code must not spawn threads at all
/// (`thread-spawn` rule): a broker and its routing tables run on the
/// one thread its transport gives them, so every thread in the system
/// is owned, named, and joined by a transport.
const THREAD_SPAWN_CRATES: &[&str] = &["crates/core", "crates/broker"];

/// Files that must handle every `Message`/`MessageKind` variant
/// explicitly (`kind-match` rule).
const KIND_MATCH_FILES: &[&str] = &[
    "crates/broker/src/wire.rs",
    "crates/broker/src/stats.rs",
    "crates/broker/src/message.rs",
];

/// The frame builder: the one file allowed to call `wire::encode`
/// inside a loop (`encode-in-loop` rule) — it owns the codec, and its
/// deprecated compatibility shims are measured against by the wire
/// bench's flat baseline.
const ENCODE_IN_LOOP_EXEMPT: &[&str] = &["crates/broker/src/wire.rs"];

/// One policy violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (the `xtask: allow(..)` key).
    pub rule: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Lints every first-party source file under `root`. Returns findings
/// sorted by file and line.
///
/// # Errors
///
/// Returns an error if the tree cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, std::io::Error> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut wire_src = None;
    let mut message_src = None;
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        if rel == Path::new("crates/broker/src/wire.rs") {
            wire_src = Some(src.clone());
        }
        if rel == Path::new("crates/broker/src/message.rs") {
            message_src = Some(src.clone());
        }
        findings.extend(lint_file(rel, &src));
    }
    if let (Some(wire), Some(message)) = (&wire_src, &message_src) {
        findings.extend(check_kind_coverage(message, wire));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Number of `.rs` files the workspace pass would lint (for reporting).
///
/// # Errors
///
/// Returns an error if the tree cannot be read.
pub fn count_linted_files(root: &Path) -> Result<usize, std::io::Error> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    Ok(files.len())
}

pub(crate) fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<PathBuf>,
) -> Result<(), std::io::Error> {
    const SKIP_DIRS: &[&str] = &[
        "tests",
        "benches",
        "examples",
        "third_party",
        "target",
        "xtask",
        ".git",
        ".github",
    ];
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Lints one file's source, given its workspace-relative path.
pub fn lint_file(rel: &Path, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let in_test = test_regions(&lexed);
    let mut findings = Vec::new();
    if UNWRAP_CRATES.iter().any(|c| rel.starts_with(c))
        && !UNWRAP_EXEMPT.iter().any(|e| rel == Path::new(e))
    {
        check_unwrap(rel, &lexed, &in_test, &mut findings);
    }
    check_unbounded_channel(rel, &lexed, &in_test, &mut findings);
    check_sleep(rel, &lexed, &in_test, &mut findings);
    if THREAD_SPAWN_CRATES.iter().any(|c| rel.starts_with(c)) {
        check_thread_spawn(rel, &lexed, &in_test, &mut findings);
    }
    if INSTANT_CRATES.iter().any(|c| rel.starts_with(c)) {
        check_instant(rel, &lexed, &in_test, &mut findings);
    }
    if KIND_MATCH_FILES.iter().any(|f| rel == Path::new(f)) {
        check_kind_match(rel, &lexed, &in_test, &mut findings);
    }
    check_raw_publish_push(rel, &lexed, &in_test, &mut findings);
    if !ENCODE_IN_LOOP_EXEMPT.iter().any(|e| rel == Path::new(e)) {
        check_encode_in_loop(rel, &lexed, &in_test, &mut findings);
    }
    findings
}

/// Marks token indices inside `#[cfg(test)]` / `#[test]` items.
fn test_regions(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok == Tok::Punct('#')
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            // Find the attribute's closing bracket and look for
            // `test` inside (covers #[test], #[cfg(test)],
            // #[cfg(all(test, ..))], #[tokio::test]-style attributes).
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut mentions_test = false;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Ident(ref s) if s == "test" => mentions_test = true,
                    _ => {}
                }
                j += 1;
            }
            if mentions_test {
                // Mark the attributed item: everything up to and
                // including the matching close of the first `{` that
                // opens at brace depth 0 after the attribute.
                let mut k = j + 1;
                let mut depth = 0usize;
                let mut opened = false;
                while k < toks.len() {
                    match toks[k].tok {
                        Tok::Punct('{') => {
                            depth += 1;
                            opened = true;
                        }
                        Tok::Punct('}') => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break;
                            }
                        }
                        // `mod tests;` or `fn x();` without a body.
                        Tok::Punct(';') if !opened => break,
                        _ => {}
                    }
                    k += 1;
                }
                for flag in in_test.iter_mut().take((k + 1).min(toks.len())).skip(i) {
                    *flag = true;
                }
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

fn ident_at(lexed: &Lexed, i: usize) -> Option<&str> {
    match lexed.tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct_at(lexed: &Lexed, i: usize, c: char) -> bool {
    matches!(lexed.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

fn check_unwrap(rel: &Path, lexed: &Lexed, in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, skip) in in_test.iter().enumerate() {
        if *skip || !punct_at(lexed, i, '.') {
            continue;
        }
        let Some(name) = ident_at(lexed, i + 1) else {
            continue;
        };
        if (name == "unwrap" || name == "expect") && punct_at(lexed, i + 2, '(') {
            let line = lexed.tokens[i + 1].line;
            if !lexed.allowed("unwrap", line) {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line,
                    rule: "unwrap",
                    message: format!(
                        ".{name}() in non-test hot-path code — return a typed error \
                         (TcpError/WireError) or recover explicitly"
                    ),
                });
            }
        }
    }
}

fn check_unbounded_channel(
    rel: &Path,
    lexed: &Lexed,
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    // Does a `use` statement import the unbounded `channel` from mpsc
    // (e.g. `use std::sync::mpsc::{channel, Sender};`)? If so, bare
    // `channel(..)` calls below are unbounded too.
    let mut imports_mpsc_channel = false;
    let mut i = 0;
    while i < toks.len() {
        if ident_at(lexed, i) == Some("use") {
            let mut saw_mpsc = false;
            let mut saw_channel = false;
            let mut j = i + 1;
            while j < toks.len() && !punct_at(lexed, j, ';') {
                match ident_at(lexed, j) {
                    Some("mpsc") => saw_mpsc = true,
                    Some("channel") => saw_channel = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_mpsc && saw_channel {
                imports_mpsc_channel = true;
            }
            i = j;
        }
        i += 1;
    }
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        let line = toks[i].line;
        // `mpsc::channel` (the unbounded std constructor) — as a call
        // or as a `use` import.
        if ident_at(lexed, i) == Some("mpsc")
            && punct_at(lexed, i + 1, ':')
            && punct_at(lexed, i + 2, ':')
            && ident_at(lexed, i + 3) == Some("channel")
            && !lexed.allowed("unbounded-channel", toks[i + 3].line)
        {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: "unbounded-channel",
                message: "std::sync::mpsc::channel is unbounded — use sync_channel with an \
                          explicit capacity"
                    .to_owned(),
            });
        }
        // A bare `channel()` / `channel::<T>()` call when the
        // unbounded constructor was imported from mpsc.
        if imports_mpsc_channel
            && ident_at(lexed, i) == Some("channel")
            && ident_at(lexed, i.wrapping_sub(1)) != Some("mpsc")
            && !matches!(ident_at(lexed, i.wrapping_sub(1)), Some("use"))
            && !punct_at(lexed, i.wrapping_sub(1), ',')
            && !punct_at(lexed, i.wrapping_sub(1), '{')
            && (punct_at(lexed, i + 1, '(')
                || (punct_at(lexed, i + 1, ':') && punct_at(lexed, i + 2, ':')))
            && !lexed.allowed("unbounded-channel", line)
        {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: "unbounded-channel",
                message: "channel() here is std::sync::mpsc::channel (unbounded) — use \
                          sync_channel with an explicit capacity"
                    .to_owned(),
            });
        }
        // `unbounded(..)` / `channel::unbounded` (crossbeam's).
        if ident_at(lexed, i) == Some("unbounded")
            && (punct_at(lexed, i + 1, '(')
                || (punct_at(lexed, i.wrapping_sub(1), ':')
                    && punct_at(lexed, i.wrapping_sub(2), ':'))
                || ident_at(lexed, i.wrapping_sub(1)).is_some_and(|s| s == "use"))
            && !lexed.allowed("unbounded-channel", line)
        {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: "unbounded-channel",
                message: "unbounded channel — use a bounded channel with an explicit capacity"
                    .to_owned(),
            });
        }
    }
}

fn check_sleep(rel: &Path, lexed: &Lexed, in_test: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        if ident_at(lexed, i) == Some("thread")
            && punct_at(lexed, i + 1, ':')
            && punct_at(lexed, i + 2, ':')
            && ident_at(lexed, i + 3) == Some("sleep")
        {
            let line = toks[i + 3].line;
            if !lexed.allowed("sleep", line) {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line,
                    rule: "sleep",
                    message: "thread::sleep in non-test code — poll with a deadline \
                              (await_state) or park on a condvar; if the sleep is a bounded \
                              backoff slice, justify it with `xtask: allow(sleep)`"
                        .to_owned(),
                });
            }
        }
    }
}

/// Flags every `spawn` / `spawn_scoped` call in core/broker
/// (`thread-spawn` rule). Matching on the bare method name deliberately
/// catches `thread::spawn`, `scope.spawn(..)`, and
/// `Builder::spawn{,_scoped}` alike — any of them creates a thread no
/// transport owns.
fn check_thread_spawn(rel: &Path, lexed: &Lexed, in_test: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        if matches!(ident_at(lexed, i), Some("spawn" | "spawn_scoped"))
            && punct_at(lexed, i + 1, '(')
        {
            let line = toks[i].line;
            if !lexed.allowed("thread-spawn", line) {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line,
                    rule: "thread-spawn",
                    message: "thread spawned in core/broker — routing runs on its \
                              transport's thread; spawn in the transport, or justify an \
                              exception with `xtask: allow(thread-spawn)`"
                        .to_owned(),
                });
            }
        }
    }
}

fn check_instant(rel: &Path, lexed: &Lexed, in_test: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        if ident_at(lexed, i) == Some("Instant")
            && punct_at(lexed, i + 1, ':')
            && punct_at(lexed, i + 2, ':')
            && ident_at(lexed, i + 3) == Some("now")
        {
            let line = toks[i + 3].line;
            if !lexed.allowed("instant", line) {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line,
                    rule: "instant",
                    message: "Instant::now() in a broker/core hot path — time through \
                              xdn_obs::Stopwatch (or justify with `xtask: allow(instant)`) so \
                              instrumentation stays behind the observability facade"
                        .to_owned(),
                });
            }
        }
    }
}

/// Flags `push_back(..)` / `push_front(..)` calls whose argument
/// contains a literal `Message::Publish` (`raw-publish-push` rule).
/// Publications must enter a transport queue only as the output of
/// `Broker::handle`, which wraps them in `Message::Sequenced` headers
/// and buffers them for retransmission; a hand-queued raw publication
/// silently escapes the at-least-once channel — unsequenced, unacked,
/// invisible to the dedup windows.
fn check_raw_publish_push(
    rel: &Path,
    lexed: &Lexed,
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    for (i, tested) in in_test.iter().enumerate() {
        if *tested {
            continue;
        }
        let is_push = matches!(ident_at(lexed, i), Some("push_back" | "push_front"));
        if !is_push || !punct_at(lexed, i + 1, '(') {
            continue;
        }
        // Scan the argument list for `Message::Publish`, tracking
        // paren depth so the scan stops at the call's closing paren.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(id)
                    if id == "Message"
                        && punct_at(lexed, j + 1, ':')
                        && punct_at(lexed, j + 2, ':')
                        && ident_at(lexed, j + 3) == Some("Publish") =>
                {
                    let line = toks[j].line;
                    if !lexed.allowed("raw-publish-push", line) {
                        findings.push(Finding {
                            file: rel.to_path_buf(),
                            line,
                            rule: "raw-publish-push",
                            message: "raw Message::Publish queued directly — publications \
                                      must leave a broker as Broker::handle output so they \
                                      ride the sequenced at-least-once channel; justify an \
                                      exception with `xtask: allow(raw-publish-push)`"
                                .to_owned(),
                        });
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// Marks token indices inside `for`/`while`/`loop` bodies. A `for`
/// keyword only counts as a loop when a top-level `in` separates its
/// pattern from the iterated expression — `impl Trait for Type { .. }`
/// has none and is not a loop body.
fn loop_regions(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut in_loop = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let kw = match ident_at(lexed, i) {
            Some(k @ ("for" | "while" | "loop")) => k.to_owned(),
            _ => {
                i += 1;
                continue;
            }
        };
        // Find the body's opening brace: the first `{` with the
        // header's (), [] balanced. A `;` first means this was not a
        // loop expression after all.
        let mut j = i + 1;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut saw_in = false;
        let mut found = false;
        while j < toks.len() {
            match toks[j].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Punct('[') => bracket += 1,
                Tok::Punct(']') => bracket -= 1,
                Tok::Punct('{') if paren == 0 && bracket == 0 => {
                    found = true;
                    break;
                }
                Tok::Punct(';') => break,
                Tok::Ident(ref s) if s == "in" && paren == 0 && bracket == 0 => saw_in = true,
                _ => {}
            }
            j += 1;
        }
        if !found || (kw == "for" && !saw_in) {
            i += 1;
            continue;
        }
        // Mark body tokens through the matching close brace. Nested
        // loops are re-detected inside; re-marking is idempotent.
        let mut depth = 0i32;
        let mut k = j;
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            in_loop[k] = true;
            k += 1;
        }
        i = j + 1;
    }
    in_loop
}

/// Flags `wire::encode(..)` calls inside loop bodies (`encode-in-loop`
/// rule). A per-peer send loop that re-encodes its message allocates
/// and serialises once per destination; fan-out must go through
/// `FrameBuf`, which encodes the shared body exactly once and stamps
/// only the per-peer sequencing header.
fn check_encode_in_loop(rel: &Path, lexed: &Lexed, in_test: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let in_loop = loop_regions(lexed);
    for i in 0..toks.len() {
        if in_test[i] || !in_loop[i] {
            continue;
        }
        if ident_at(lexed, i) == Some("wire")
            && punct_at(lexed, i + 1, ':')
            && punct_at(lexed, i + 2, ':')
            && ident_at(lexed, i + 3) == Some("encode")
            && punct_at(lexed, i + 4, '(')
        {
            let line = toks[i + 3].line;
            if !lexed.allowed("encode-in-loop", line) {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line,
                    rule: "encode-in-loop",
                    message: "wire::encode inside a loop — a per-peer send loop re-encodes the \
                              frame once per destination; build one FrameBuf and stamp per-peer \
                              headers instead, or justify with `xtask: allow(encode-in-loop)`"
                        .to_owned(),
                });
            }
        }
    }
}

/// Flags catch-all arms (`_ =>` or a bare binding) in any `match`
/// whose patterns mention `Message::` or `MessageKind::`. Wire codec
/// and stats must break loudly when a protocol variant is added.
fn check_kind_match(rel: &Path, lexed: &Lexed, in_test: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if in_test[i] || ident_at(lexed, i) != Some("match") {
            i += 1;
            continue;
        }
        // Find the match body's opening brace: the first `{` with all
        // (), [] in the scrutinee balanced.
        let mut j = i + 1;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while j < toks.len() {
            match toks[j].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Punct('[') => bracket += 1,
                Tok::Punct(']') => bracket -= 1,
                Tok::Punct('{') if paren == 0 && bracket == 0 => break,
                Tok::Punct(';') => break, // not a match expression after all
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || !punct_at(lexed, j, '{') {
            i += 1;
            continue;
        }
        let body_open = j;
        // Walk depth-1 arms: collect each pattern (tokens up to the
        // top-level `=>`).
        let mut depth = 1i32;
        let mut k = body_open + 1;
        let mut pat_start = k;
        let mut in_pattern = true;
        let mut patterns: Vec<(usize, usize)> = Vec::new();
        let body_close;
        loop {
            if k >= toks.len() {
                body_close = k;
                break;
            }
            match toks[k].tok {
                Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        body_close = k;
                        break;
                    }
                    // A `}` closing an arm's block body at depth 1
                    // starts a new pattern (comma optional).
                    if depth == 1 && matches!(toks[k].tok, Tok::Punct('}')) && !in_pattern {
                        in_pattern = true;
                        pat_start = k + 1;
                    }
                }
                Tok::Punct('=') if depth == 1 && in_pattern && punct_at(lexed, k + 1, '>') => {
                    patterns.push((pat_start, k));
                    in_pattern = false;
                    k += 1; // skip '>'
                }
                Tok::Punct(',') if depth == 1 && !in_pattern => {
                    in_pattern = true;
                    pat_start = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        let mentions_kind = patterns.iter().any(|&(s, e)| {
            (s..e).any(|t| {
                matches!(&toks[t].tok, Tok::Ident(w) if w == "Message" || w == "MessageKind")
                    && punct_at(lexed, t + 1, ':')
                    && punct_at(lexed, t + 2, ':')
            })
        });
        if mentions_kind {
            for &(s, e) in &patterns {
                // Skip a leading `|` (rare) — then a catch-all is a
                // single `_` or a single bare identifier.
                let span: Vec<&Tok> = toks[s..e].iter().map(|t| &t.tok).collect();
                let is_catch_all = match span.as_slice() {
                    [Tok::Ident(w)] => w != "true" && w != "false",
                    [Tok::Punct('_')] => true,
                    _ => matches!(span.as_slice(), [Tok::Ident(w)] if w == "_"),
                };
                if is_catch_all {
                    let line = toks[s].line;
                    if !lexed.allowed("kind-match", line) {
                        findings.push(Finding {
                            file: rel.to_path_buf(),
                            line,
                            rule: "kind-match",
                            message: "catch-all arm in a Message/MessageKind match — list every \
                                      variant so adding one is a compile/lint error here"
                                .to_owned(),
                        });
                    }
                }
            }
        }
        i = body_close.max(i) + 1;
    }
}

/// Parses the `Message` enum's variant names out of `message.rs` and
/// requires `wire.rs` to mention `Message::<Variant>` at least twice —
/// once on the encode path and once on the decode path.
fn check_kind_coverage(message_src: &str, wire_src: &str) -> Vec<Finding> {
    let variants = enum_variants(message_src, "Message");
    let mut findings = Vec::new();
    if variants.is_empty() {
        findings.push(Finding {
            file: PathBuf::from("crates/broker/src/message.rs"),
            line: 1,
            rule: "kind-coverage",
            message: "could not locate `enum Message` — the kind-coverage rule needs it".to_owned(),
        });
        return findings;
    }
    let wire = lex(wire_src);
    let in_test = test_regions(&wire);
    for variant in &variants {
        let mut count = 0usize;
        for (i, skip) in in_test.iter().enumerate() {
            if !skip
                && ident_at(&wire, i) == Some("Message")
                && punct_at(&wire, i + 1, ':')
                && punct_at(&wire, i + 2, ':')
                && ident_at(&wire, i + 3) == Some(variant)
            {
                count += 1;
            }
        }
        if count < 2 {
            findings.push(Finding {
                file: PathBuf::from("crates/broker/src/wire.rs"),
                line: 1,
                rule: "kind-coverage",
                message: format!(
                    "Message::{variant} appears {count} time(s) in non-test wire.rs — every \
                     variant must be handled on both the encode and the decode path"
                ),
            });
        }
    }
    findings
}

/// Extracts variant names from `pub enum <name> { .. }` in `src`.
fn enum_variants(src: &str, name: &str) -> Vec<String> {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if ident_at(&lexed, i) == Some("enum") && ident_at(&lexed, i + 1) == Some(name) {
            break;
        }
        i += 1;
    }
    if i >= toks.len() {
        return Vec::new();
    }
    // Opening brace of the enum body.
    let mut j = i + 2;
    while j < toks.len() && !punct_at(&lexed, j, '{') {
        j += 1;
    }
    let mut variants = Vec::new();
    let mut depth = 1i32;
    let mut k = j + 1;
    let mut expect_variant = true;
    while k < toks.len() && depth > 0 {
        match &toks[k].tok {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct(',') if depth == 1 => expect_variant = true,
            Tok::Punct('#') if depth == 1 => {
                // Skip the variant's attribute `#[ .. ]`.
                let mut d = 0i32;
                k += 1;
                while k < toks.len() {
                    match toks[k].tok {
                        Tok::Punct('[') => d += 1,
                        Tok::Punct(']') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            Tok::Ident(w) if depth == 1 && expect_variant => {
                variants.push(w.clone());
                expect_variant = false;
            }
            _ => {}
        }
        k += 1;
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        lint_file(Path::new(path), src)
    }

    const TCP: &str = "crates/net/src/tcp.rs";

    #[test]
    fn unwrap_flagged_in_hot_path() {
        let f = lint(TCP, "fn go(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unwrap");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn expect_flagged_in_hot_path() {
        let f = lint(TCP, "fn go() {\n  lock().expect(\"poisoned\");\n}");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unwrap_ok_in_tests_and_elsewhere() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(lint(TCP, src).is_empty());
        assert!(lint("crates/core/src/cover.rs", "fn f() { x.unwrap(); }").is_empty());
        assert!(lint("crates/net/src/sim.rs", "fn f() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn test_fn_attribute_is_skipped() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn hot() { y.unwrap(); }";
        let f = lint(TCP, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "// xtask: allow(unwrap) recovering from poison is worse\nfn f() { x.unwrap(); }";
        assert!(lint(TCP, src).is_empty());
    }

    #[test]
    fn unwrap_in_comments_and_strings_ignored() {
        let src = "// x.unwrap()\nfn f() { let s = \"don't .unwrap() me\"; }";
        assert!(lint(TCP, src).is_empty());
    }

    #[test]
    fn unbounded_channels_flagged_everywhere() {
        let f = lint("crates/core/src/lib.rs", "let (tx, rx) = mpsc::channel();");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unbounded-channel");
        let f = lint(
            TCP,
            "use crossbeam::channel::unbounded;\nlet c = unbounded();",
        );
        assert_eq!(f.len(), 2);
        assert!(lint(TCP, "let (tx, rx) = sync_channel(64);").is_empty());
    }

    #[test]
    fn bare_channel_call_flagged_when_imported_from_mpsc() {
        let src = "use std::sync::mpsc::{channel, Sender};\n\
                   fn f() { let (tx, rx) = channel::<u8>(); let (a, b) = channel(); }";
        let f = lint(TCP, src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "unbounded-channel"));
        // Without the import, a bare `channel()` may be anything
        // (e.g. a local sync wrapper) and is not flagged.
        assert!(lint(TCP, "fn f() { let (tx, rx) = channel(); }").is_empty());
        // sync_channel imports are fine.
        let ok = "use std::sync::mpsc::{sync_channel, Receiver};\nfn f() { sync_channel(4); }";
        assert!(lint(TCP, ok).is_empty());
    }

    #[test]
    fn raw_publish_push_flagged() {
        let f = lint(
            TCP,
            "fn f(q: &FrameQueue, p: Publication) { q.push_back(Message::Publish(p)); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "raw-publish-push");
        let f = lint(
            TCP,
            "fn f() { queue.push_front(wrap(Message::Publish(p.clone()))); }",
        );
        assert_eq!(f.len(), 1, "nested in a call argument still flagged");
    }

    #[test]
    fn raw_publish_push_ignores_clean_pushes() {
        // Generic re-queues and control frames are the sanctioned uses.
        assert!(lint(TCP, "fn f() { q.push_back(msg.clone()); }").is_empty());
        assert!(lint(TCP, "fn f() { q.push_front(Message::SyncRequest); }").is_empty());
        // A Message::Publish *outside* the argument list is not a push.
        assert!(lint(
            TCP,
            "fn f() { q.push_back(x); let m = Message::Publish(p); }"
        )
        .is_empty());
    }

    #[test]
    fn raw_publish_push_allows_marker_and_tests() {
        let src = "// xtask: allow(raw-publish-push) loopback fixture\n\
                   fn f() { q.push_back(Message::Publish(p)); }";
        assert!(lint(TCP, src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn t() { q.push_back(Message::Publish(p)); }\n}";
        assert!(lint(TCP, src).is_empty());
    }

    #[test]
    fn sleep_flagged_without_marker() {
        let f = lint(
            "crates/broker/src/broker.rs",
            "fn f() { std::thread::sleep(d); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "sleep");
        let ok = "// xtask: allow(sleep) bounded backoff slice\nfn f() { std::thread::sleep(d); }";
        assert!(lint("crates/broker/src/broker.rs", ok).is_empty());
    }

    #[test]
    fn instant_flagged_in_broker_and_core_only() {
        let src = "fn f() { let t = Instant::now(); }";
        let f = lint("crates/broker/src/broker.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "instant");
        assert_eq!(lint("crates/core/src/rtable.rs", src).len(), 1);
        // Transports, the simulator, and obs itself own wall-clock
        // concerns.
        assert!(lint("crates/net/src/tcp.rs", src).is_empty());
        assert!(lint("crates/obs/src/time.rs", src).is_empty());
        // Tests and allow markers opt out.
        let test_src = "#[cfg(test)]\nmod tests {\n fn t() { Instant::now(); }\n}";
        assert!(lint("crates/broker/src/broker.rs", test_src).is_empty());
        let allowed = "// xtask: allow(instant) deadline, not a latency sample\n\
                       fn f() { Instant::now(); }";
        assert!(lint("crates/core/src/rtable.rs", allowed).is_empty());
    }

    #[test]
    fn thread_spawn_flagged_in_core_and_broker_only() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        let f = lint("crates/core/src/automaton.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "thread-spawn");
        assert_eq!(lint("crates/broker/src/broker.rs", src).len(), 1);
        // No file in core is exempt.
        assert_eq!(lint("crates/core/src/pool.rs", src).len(), 1);
        // Transports own their threads.
        assert!(lint("crates/net/src/live.rs", src).is_empty());
        // Scoped and builder spawns are threads too.
        let scoped = "fn f(s: &Scope) { s.spawn(|| {}); }";
        assert_eq!(lint("crates/core/src/rtable.rs", scoped).len(), 1);
        let builder = "fn f(b: Builder, s: &Scope) { b.spawn_scoped(s, || {}); }";
        assert_eq!(lint("crates/broker/src/reliable.rs", builder).len(), 1);
        // Tests and allow markers opt out.
        let test_src = "#[cfg(test)]\nmod tests {\n fn t() { std::thread::spawn(|| {}); }\n}";
        assert!(lint("crates/core/src/automaton.rs", test_src).is_empty());
        let allowed = "// xtask: allow(thread-spawn) one-shot watchdog, joined below\n\
                       fn f() { std::thread::spawn(|| {}); }";
        assert!(lint("crates/core/src/automaton.rs", allowed).is_empty());
    }

    #[test]
    fn encode_in_loop_flagged() {
        let src =
            "fn f(peers: &[Dest]) {\n for d in peers {\n  w.write_all(&wire::encode(&m));\n }\n}";
        let f = lint(TCP, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "encode-in-loop");
        assert_eq!(f[0].line, 3);
        // `while` and bare `loop` bodies count too.
        let f = lint(TCP, "fn f() { while go() { wire::encode(&m); } }");
        assert_eq!(f.len(), 1, "{f:?}");
        let f = lint(TCP, "fn f() { loop { wire::encode(&m); break; } }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn encode_outside_loops_and_in_builder_ok() {
        // A single encode outside any loop is fine (it is merely
        // deprecated, which rustc reports).
        assert!(lint(TCP, "fn f() { let b = wire::encode(&m); }").is_empty());
        // The frame builder itself is exempt.
        let src = "fn f() { for m in msgs { wire::encode(m); } }";
        assert!(lint("crates/broker/src/wire.rs", src).is_empty());
        // encode_into in a loop is the sanctioned pooled path.
        assert!(lint(
            TCP,
            "fn f() { for m in msgs { wire::encode_into(m, &mut buf); } }"
        )
        .is_empty());
    }

    #[test]
    fn encode_in_loop_impl_for_is_not_a_loop() {
        // `impl Trait for Type` must not mark the impl body as a loop.
        let src = "impl FrameSink for TcpSink<'_> {\n fn ship(&mut self) { wire::encode(&m); }\n}";
        assert!(lint(TCP, src).is_empty());
    }

    #[test]
    fn encode_in_loop_allows_marker_and_tests() {
        let src = "fn f() {\n for d in peers {\n  // xtask: allow(encode-in-loop) flat baseline\n  wire::encode(&m);\n }\n}";
        assert!(lint(TCP, src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn t() { for d in peers { wire::encode(&m); } }\n}";
        assert!(lint(TCP, src).is_empty());
    }

    #[test]
    fn kind_match_catch_all_flagged() {
        let src = "fn f(m: &Message) {\n match m {\n  Message::Heartbeat => {}\n  _ => {}\n }\n}";
        let f = lint("crates/broker/src/wire.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "kind-match");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn kind_match_binding_catch_all_flagged() {
        let src = "fn f(k: MessageKind) -> u8 {\n match k {\n  MessageKind::Publish => 1,\n  other => 0,\n }\n}";
        let f = lint("crates/broker/src/stats.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn non_kind_matches_may_catch_all() {
        let src = "fn f(tag: u8) {\n match tag {\n  TAG_A => {}\n  other => {}\n }\n}";
        assert!(lint("crates/broker/src/wire.rs", src).is_empty());
        // And kind matches in other files are out of scope.
        let src = "fn f(m: &Message) { match m { Message::Heartbeat => {}, _ => {} } }";
        assert!(lint("crates/net/src/live.rs", src).is_empty());
    }

    #[test]
    fn exhaustive_kind_match_passes() {
        let src = "fn f(m: &Message) {\n match m {\n  Message::Heartbeat => {}\n  Message::Publish(p) => {}\n }\n}";
        assert!(lint("crates/broker/src/wire.rs", src).is_empty());
    }

    #[test]
    fn enum_variants_parsed() {
        let src = "/// doc\npub enum Message {\n  /// doc\n  Advertise { id: u8 },\n  Publish(P),\n  Heartbeat,\n}";
        assert_eq!(
            enum_variants(src, "Message"),
            vec!["Advertise", "Publish", "Heartbeat"]
        );
    }

    #[test]
    fn kind_coverage_detects_missing_variant() {
        let message = "pub enum Message { A(u8), B, }";
        let wire = "fn encode(m: &Message) { match m { Message::A(x) => {}, Message::B => {} } }\n\
                    fn decode() -> Message { if c { Message::A(0) } else { Message::B } }";
        assert!(check_kind_coverage(message, wire).is_empty());
        let wire_missing =
            "fn encode(m: &Message) { match m { Message::A(x) => {}, Message::B => {} } }\n\
                            fn decode() -> Message { Message::A(0) }";
        let f = check_kind_coverage(message, wire_missing);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Message::B"));
    }
}
