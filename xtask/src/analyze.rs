//! `cargo xtask analyze` — semantic passes over the workspace AST and
//! call graph (see DESIGN.md §13):
//!
//! 1. **panic-path** — panic sources (`unwrap`/`expect`/`panic!`/
//!    `unreachable!`/`todo!`/`unimplemented!`/indexing/slicing)
//!    transitively reachable from the hot-path roots. Ratchet-only:
//!    known sites live in `xtask/analyze-baseline.txt`; only *new*
//!    sites fail the gate.
//! 2. **lock-order** — per-function lock acquisition sequences,
//!    propagated through the call graph; inconsistent pairwise
//!    orderings fail.
//! 3. **protocol** — `Message`/`MessageKind` exhaustiveness in wire
//!    encode/decode, broker dispatch, and the `MessageKind::ALL`
//!    table backing `KindCounters`, plus the no-nested-`Sequenced`
//!    rules.
//! 4. **metric-drift** — metric names registered in non-test code vs.
//!    those asserted by scrape tests/CI greps vs. those documented in
//!    DESIGN.md §10.
//!
//! Waive an intentional finding with `// xtask: allow(<rule>)` on the
//! line above it, like the lint rules.

use crate::ast::{Op, ParsedFile};
use crate::callgraph::{Graph, NodeId};
use crate::lint::{collect_rs_files, Finding};
use crate::parser::parse_file;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Hot-path roots for the panic pass: `(owner, name)` where `*` as the
/// owner matches any impl (trait impls are matched by name) and a
/// trailing `*` on the name matches any suffix.
const PANIC_ROOTS: &[(&str, &str)] = &[
    ("Broker", "handle*"),
    ("*", "matching_hops"),
    ("OutboundLink", "wrap_frame"),
    ("OutboundLink", "on_ack"),
    ("OutboundLink", "replay_frames"),
    ("DedupWindow", "observe"),
];

/// Functions that acquire the lock named by their first argument
/// (`lock_clean(&self.addr)` acquires `addr`).
const LOCK_WRAPPERS: &[&str] = &["lock_clean"];

/// Files allowed to construct `Message::Sequenced` in non-test code.
const SEQUENCED_BUILDERS: &[&str] = &["reliable.rs", "wire.rs"];

/// Crate-path identifiers that the metric-name scanner must not
/// mistake for metric families.
const METRIC_NON_NAMES: &[&str] = &[
    "xdn_core",
    "xdn_net",
    "xdn_broker",
    "xdn_obs",
    "xdn_xml",
    "xdn_xpath",
    "xdn_workloads",
    "xdn_bench",
    "xdn_node",
];

/// The scrape-test files whose test-region string literals count as
/// "asserted" metric names.
const SCRAPE_TEST_FILES: &[&str] = &["crates/net/src/tcp.rs"];

/// Everything one `analyze` run produced.
pub struct Analysis {
    /// Gate-failing findings, sorted by file and line.
    pub findings: Vec<Finding>,
    /// Machine-readable report (JSON text).
    pub report: String,
    /// Files parsed.
    pub files: usize,
    /// Functions in the symbol table.
    pub fns: usize,
    /// Baseline entries that no longer occur (candidates to delete).
    pub stale_baseline: Vec<String>,
    /// Current panic-path keys (for `--write-baseline`).
    pub panic_keys: Vec<String>,
}

/// Runs every pass over the workspace at `root`.
///
/// # Errors
///
/// Returns an error if the tree cannot be read.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, std::io::Error> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in &paths {
        let src = std::fs::read_to_string(root.join(rel))?;
        files.push(parse_file(rel.clone(), &src));
    }
    let graph = Graph::build(&files);

    let baseline = read_baseline(&root.join("xtask/analyze-baseline.txt"));
    let mut findings = Vec::new();

    let panic_stats = panic_pass(&graph, &baseline, &mut findings);
    let lock_stats = lock_pass(&graph, &mut findings);
    let proto_stats = protocol_pass(&graph, &mut findings);
    let metric_stats = metric_pass(root, &files, &mut findings);

    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings.dedup();

    let stale_baseline: Vec<String> = baseline
        .iter()
        .filter(|k| !panic_stats.keys.contains(*k))
        .cloned()
        .collect();
    let report = render_report(
        files.len(),
        graph.nodes.len(),
        &graph,
        &panic_stats,
        &lock_stats,
        &proto_stats,
        &metric_stats,
        baseline.len(),
        &stale_baseline,
        &findings,
    );
    Ok(Analysis {
        findings,
        report,
        files: files.len(),
        fns: graph.nodes.len(),
        stale_baseline,
        panic_keys: panic_stats.keys.iter().cloned().collect(),
    })
}

/// Reads the ratchet baseline: one `file<TAB>function<TAB>kind` key per
/// line, `#` comments ignored. A missing file is an empty baseline.
fn read_baseline(path: &Path) -> BTreeSet<String> {
    std::fs::read_to_string(path)
        .map(|text| {
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default()
}

// ---------------------------------------------------------------- panic

struct PanicStats {
    roots: usize,
    reachable: usize,
    sources: usize,
    baselined: usize,
    keys: BTreeSet<String>,
}

/// What a body op means as a panic source, if anything.
fn panic_source(op: &Op) -> Option<(&'static str, u32)> {
    match op {
        Op::MethodCall { name, line, .. } if name == "unwrap" => Some(("unwrap()", *line)),
        Op::MethodCall { name, line, .. } if name == "expect" => Some(("expect()", *line)),
        Op::Macro { name, line } => match name.as_str() {
            "panic" => Some(("panic!", *line)),
            "unreachable" => Some(("unreachable!", *line)),
            "todo" => Some(("todo!", *line)),
            "unimplemented" => Some(("unimplemented!", *line)),
            _ => None,
        },
        Op::Index { line } => Some(("indexing", *line)),
        _ => None,
    }
}

fn panic_pass(
    graph: &Graph<'_>,
    baseline: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) -> PanicStats {
    // BFS from the roots, keeping a parent chain (and the call line
    // that discovered each node) for diagnostics.
    let mut parent: BTreeMap<NodeId, Option<(NodeId, u32)>> = BTreeMap::new();
    let mut queue = VecDeque::new();
    let mut roots = 0usize;
    for (owner, name) in PANIC_ROOTS {
        for id in graph.matching(owner, name) {
            if let std::collections::btree_map::Entry::Vacant(slot) = parent.entry(id) {
                slot.insert(None);
                queue.push_back(id);
                roots += 1;
            }
        }
    }
    while let Some(id) = queue.pop_front() {
        for e in &graph.edges[id] {
            if let std::collections::btree_map::Entry::Vacant(slot) = parent.entry(e.to) {
                slot.insert(Some((id, e.line)));
                queue.push_back(e.to);
            }
        }
    }
    let mut stats = PanicStats {
        roots,
        reachable: parent.len(),
        sources: 0,
        baselined: 0,
        keys: BTreeSet::new(),
    };
    for &id in parent.keys() {
        let def = graph.def(id);
        let file = graph.file(id);
        for op in &def.body {
            let Some((kind, line)) = panic_source(op) else {
                continue;
            };
            stats.sources += 1;
            if file.allowed("panic-path", line) {
                continue;
            }
            let key = format!("{}\t{}\t{}", file.path.display(), def.qualified(), kind);
            let fresh = stats.keys.insert(key.clone());
            if baseline.contains(&key) {
                if fresh {
                    stats.baselined += 1;
                }
                continue;
            }
            findings.push(Finding {
                file: file.path.clone(),
                line,
                rule: "panic-path",
                message: format!(
                    "{kind} in {} is reachable from a hot path: {}",
                    def.qualified(),
                    chain_to(graph, &parent, id)
                ),
            });
        }
    }
    stats
}

/// The call chain `root → … → id`, abbreviated in the middle when
/// long. The root is annotated with its definition site and the last
/// hop with the call that enters the panicking function, so a reader
/// can walk the chain without re-running the graph.
fn chain_to(
    graph: &Graph<'_>,
    parent: &BTreeMap<NodeId, Option<(NodeId, u32)>>,
    id: NodeId,
) -> String {
    let mut chain = vec![id];
    // (caller's file, line) of the call into the panicking function.
    let mut entry: Option<(String, u32)> = None;
    let mut cur = id;
    while let Some(Some((p, line))) = parent.get(&cur) {
        if entry.is_none() {
            entry = Some((file_name(graph.file(*p)), *line));
        }
        chain.push(*p);
        cur = *p;
    }
    chain.reverse();
    let mut names: Vec<String> = chain.iter().map(|&n| graph.def(n).qualified()).collect();
    let root = chain[0];
    names[0] = format!(
        "{} ({}:{})",
        names[0],
        file_name(graph.file(root)),
        graph.def(root).line
    );
    let mut rendered = if names.len() <= 6 {
        names.join(" → ")
    } else {
        format!(
            "{} → … → {}",
            names[..2].join(" → "),
            names[names.len() - 2..].join(" → ")
        )
    };
    if let Some((file, line)) = entry {
        let _ = write!(rendered, " (call at {file}:{line})");
    }
    rendered
}

/// Just the file name of a parsed file, for compact chain rendering.
fn file_name(file: &ParsedFile) -> String {
    file.path.file_name().map_or_else(
        || file.path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    )
}

// ---------------------------------------------------------------- locks

struct LockStats {
    locking_fns: usize,
    ordered_pairs: usize,
    inversions: usize,
}

/// The lock a body op acquires, if any.
fn acquisition(op: &Op, mentions_rwlock: bool) -> Option<(String, u32, u32)> {
    match op {
        Op::MethodCall {
            name,
            recv_last: Some(recv),
            paren_depth,
            line,
            ..
        } if name == "lock"
            || name == "try_lock"
            || (mentions_rwlock && (name == "read" || name == "write")) =>
        {
            Some((recv.clone(), *paren_depth, *line))
        }
        Op::BareCall {
            name,
            arg_last: Some(arg),
            paren_depth,
            line,
        }
        | Op::PathCall {
            name,
            arg_last: Some(arg),
            paren_depth,
            line,
            ..
        } if LOCK_WRAPPERS.contains(&name.as_str()) => Some((arg.clone(), *paren_depth, *line)),
        _ => None,
    }
}

#[derive(Debug)]
struct HeldLock {
    name: String,
    brace: u32,
    bound: Option<String>,
}

/// One observed `first → second` ordering.
#[derive(Debug, Clone)]
struct OrderSite {
    file: PathBuf,
    line: u32,
    in_fn: String,
    via: Option<String>,
    waived: bool,
}

fn lock_pass(graph: &Graph<'_>, findings: &mut Vec<Finding>) -> LockStats {
    // Transitive lock sets per function (fixpoint over the graph).
    let n = graph.nodes.len();
    let mut trans: Vec<BTreeSet<String>> = (0..n)
        .map(|id| {
            let file = graph.file(id);
            graph
                .def(id)
                .body
                .iter()
                .filter_map(|op| acquisition(op, file.mentions_rwlock))
                .map(|(name, _, _)| name)
                .collect()
        })
        .collect();
    let locking_fns = trans.iter().filter(|s| !s.is_empty()).count();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut add = Vec::new();
            for e in &graph.edges[id] {
                for l in &trans[e.to] {
                    if !trans[id].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                trans[id].extend(add);
            }
        }
        if !changed {
            break;
        }
    }

    // Simulate each body, recording ordered pairs.
    let mut pairs: BTreeMap<(String, String), Vec<OrderSite>> = BTreeMap::new();
    for id in 0..n {
        let def = graph.def(id);
        if def.is_test {
            continue;
        }
        let file = graph.file(id);
        let mut held: Vec<HeldLock> = Vec::new();
        let mut brace = 0u32;
        // `(paren depth, last bind)` of an open `let` statement.
        let mut pending_let: Option<(u32, Option<String>)> = None;
        for op in &def.body {
            // `drop(g)` releases a bound guard before anything else.
            if let Op::BareCall {
                name,
                arg_last: Some(arg),
                ..
            } = op
            {
                if name == "drop" {
                    held.retain(|h| h.bound.as_deref() != Some(arg.as_str()));
                    continue;
                }
            }
            if let Some((lock, paren, line)) = acquisition(op, file.mentions_rwlock) {
                let bound = match &pending_let {
                    Some((p, bind)) if *p == paren => bind.clone(),
                    _ => None,
                };
                let waived = file.allowed("lock-order", line);
                for h in &held {
                    if h.name != lock {
                        pairs
                            .entry((h.name.clone(), lock.clone()))
                            .or_default()
                            .push(OrderSite {
                                file: file.path.clone(),
                                line,
                                in_fn: def.qualified(),
                                via: None,
                                waived,
                            });
                    }
                }
                held.push(HeldLock {
                    name: lock,
                    brace,
                    bound,
                });
                continue;
            }
            match op {
                Op::LetStart { paren_depth, .. } => pending_let = Some((*paren_depth, None)),
                Op::Bind { name } => {
                    if let Some((_, bind)) = &mut pending_let {
                        *bind = Some(name.clone());
                    }
                }
                Op::Semi => {
                    held.retain(|h| h.bound.is_some() || h.brace < brace);
                    pending_let = None;
                }
                Op::Open => brace += 1,
                Op::Close => {
                    brace = brace.saturating_sub(1);
                    held.retain(|h| h.brace <= brace);
                }
                _ => {
                    if !held.is_empty() {
                        let line = op.line().unwrap_or(0);
                        let waived = file.allowed("lock-order", line);
                        for callee in graph.resolve_call(id, op) {
                            for l in trans[callee].clone() {
                                for h in &held {
                                    if h.name != l {
                                        pairs.entry((h.name.clone(), l.clone())).or_default().push(
                                            OrderSite {
                                                file: file.path.clone(),
                                                line,
                                                in_fn: def.qualified(),
                                                via: Some(graph.def(callee).qualified()),
                                                waived,
                                            },
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Inversions: both (a,b) and (b,a) observed.
    let mut inversions = 0usize;
    let keys: Vec<(String, String)> = pairs.keys().cloned().collect();
    for (a, b) in &keys {
        if a >= b {
            continue;
        }
        let (Some(fwd), Some(rev)) = (
            pairs.get(&(a.clone(), b.clone())),
            pairs.get(&(b.clone(), a.clone())),
        ) else {
            continue;
        };
        if fwd.iter().all(|s| s.waived) || rev.iter().all(|s| s.waived) {
            continue;
        }
        inversions += 1;
        for (here, there, x, y) in [(fwd, rev, a, b), (rev, fwd, b, a)] {
            let site = &here[0];
            let other = &there[0];
            let via = site
                .via
                .as_ref()
                .map(|v| format!(" (via {v})"))
                .unwrap_or_default();
            findings.push(Finding {
                file: site.file.clone(),
                line: site.line,
                rule: "lock-order",
                message: format!(
                    "{} acquires `{x}` then `{y}`{via}, but {}:{} ({}) orders them `{y}` then `{x}`",
                    site.in_fn,
                    other.file.display(),
                    other.line,
                    other.in_fn
                ),
            });
        }
    }
    LockStats {
        locking_fns,
        ordered_pairs: pairs.len(),
        inversions,
    }
}

// ------------------------------------------------------------- protocol

struct ProtoStats {
    message_variants: usize,
    kind_variants: usize,
    violations: usize,
}

/// Variant names of `enumeration` referenced in pattern (or, with
/// `expr`, expression) position across a file's non-test functions.
fn variant_refs(files: &[&ParsedFile], enumeration: &str, expr: bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in files {
        for def in file.fns.iter().filter(|d| !d.is_test) {
            for op in &def.body {
                match op {
                    Op::PatVariant {
                        enumeration: e,
                        variant,
                        ..
                    } if !expr && e == enumeration => {
                        out.insert(variant.clone());
                    }
                    Op::ExprVariant {
                        enumeration: e,
                        variant,
                        ..
                    } if expr && e == enumeration => {
                        out.insert(variant.clone());
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

fn protocol_pass(graph: &Graph<'_>, findings: &mut Vec<Finding>) -> ProtoStats {
    let files = graph.files;
    let mut stats = ProtoStats {
        message_variants: 0,
        kind_variants: 0,
        violations: 0,
    };
    let Some(message_file) = files.iter().find(|f| {
        f.path.ends_with("src/message.rs")
            && f.path.to_string_lossy().contains("broker")
            && f.enums.iter().any(|e| e.name == "Message" && !e.is_test)
    }) else {
        return stats; // Not a broker workspace (plain fixture trees).
    };
    let dir = message_file.path.parent().unwrap_or(Path::new(""));
    let sibling = |name: &str| files.iter().find(|f| f.path == dir.join(name));
    let message = message_file
        .enums
        .iter()
        .find(|e| e.name == "Message" && !e.is_test);
    let kind = message_file
        .enums
        .iter()
        .find(|e| e.name == "MessageKind" && !e.is_test);
    let before = findings.len();

    if let (Some(message), Some(wire)) = (message, sibling("wire.rs")) {
        stats.message_variants = message.variants.len();
        let encoded = variant_refs(&[wire], "Message", false);
        let decoded = variant_refs(&[wire], "Message", true);
        for (v, line) in &message.variants {
            for (set, side) in [
                (&encoded, "matched (encode path)"),
                (&decoded, "constructed (decode path)"),
            ] {
                if !set.contains(v) && !message_file.allowed("protocol", *line) {
                    findings.push(Finding {
                        file: message_file.path.clone(),
                        line: *line,
                        rule: "protocol",
                        message: format!("Message::{v} is never {side} in {}", wire.path.display()),
                    });
                }
            }
        }
    }
    if let (Some(message), Some(broker)) = (message, sibling("broker.rs")) {
        // Dispatch coverage: the `handle*` family on `Broker`.
        let mut dispatched = BTreeSet::new();
        for def in broker.fns.iter().filter(|d| {
            !d.is_test && d.owner.as_deref() == Some("Broker") && d.name.starts_with("handle")
        }) {
            for op in &def.body {
                if let Op::PatVariant {
                    enumeration,
                    variant,
                    ..
                } = op
                {
                    if enumeration == "Message" {
                        dispatched.insert(variant.clone());
                    }
                }
            }
        }
        for (v, line) in &message.variants {
            if !dispatched.contains(v) && !message_file.allowed("protocol", *line) {
                findings.push(Finding {
                    file: message_file.path.clone(),
                    line: *line,
                    rule: "protocol",
                    message: format!(
                        "Message::{v} has no dispatch arm in any Broker::handle* function of {}",
                        broker.path.display()
                    ),
                });
            }
        }
    }
    if let Some(kind) = kind {
        stats.kind_variants = kind.variants.len();
        // `MessageKind::ALL` must list every variant exactly once — it
        // backs `KindCounters` indexing, and the compiler cannot see a
        // duplicated or dropped entry.
        match message_file
            .consts
            .iter()
            .find(|c| c.name == "ALL" && c.owner.as_deref() == Some("MessageKind"))
        {
            Some(all) => {
                for (v, line) in &kind.variants {
                    let count = all
                        .body
                        .iter()
                        .filter(|op| {
                            matches!(
                                op,
                                Op::ExprVariant { enumeration, variant, .. }
                                    if enumeration == "MessageKind" && variant == v
                            )
                        })
                        .count();
                    if count != 1
                        && !message_file.allowed("protocol", *line)
                        && !message_file.allowed("protocol", all.line)
                    {
                        // The defect lives in the const, not the enum:
                        // point at `ALL`'s definition.
                        findings.push(Finding {
                            file: message_file.path.clone(),
                            line: all.line,
                            rule: "protocol",
                            message: format!(
                                "MessageKind::{v} appears {count}x in MessageKind::ALL \
                                 (KindCounters needs exactly one entry per variant)"
                            ),
                        });
                    }
                }
            }
            None => findings.push(Finding {
                file: message_file.path.clone(),
                line: 1,
                rule: "protocol",
                message: "MessageKind::ALL const not found (KindCounters coverage unverifiable)"
                    .to_owned(),
            }),
        }
        // Every kind must be produced somewhere in message.rs itself
        // (the `Message::kind()` mapping).
        let produced = variant_refs(&[message_file], "MessageKind", true);
        for (v, line) in &kind.variants {
            if !produced.contains(v) && !message_file.allowed("protocol", *line) {
                findings.push(Finding {
                    file: message_file.path.clone(),
                    line: *line,
                    rule: "protocol",
                    message: format!(
                        "MessageKind::{v} is never produced in {} (Message::kind mapping?)",
                        message_file.path.display()
                    ),
                });
            }
        }
    }

    // No nested Sequenced frames: construction is confined to the
    // reliable/wire layer, and every wrap_frame() caller must guard
    // against already-sequenced frames, by testing the frame's
    // `seq_header()` or by matching on `Message::Sequenced`.
    for (fi, file) in files.iter().enumerate() {
        let builder = SEQUENCED_BUILDERS
            .iter()
            .any(|n| file.path.ends_with(Path::new("src").join(n)));
        for (di, def) in file.fns.iter().enumerate() {
            if def.is_test {
                continue;
            }
            let guarded = def.body.iter().any(|op| match op {
                Op::PatVariant {
                    enumeration,
                    variant,
                    ..
                } => enumeration == "Message" && variant == "Sequenced",
                Op::MethodCall { name, .. } => name == "seq_header",
                _ => false,
            });
            for op in &def.body {
                match op {
                    Op::ExprVariant {
                        enumeration,
                        variant,
                        line,
                    } if enumeration == "Message"
                        && variant == "Sequenced"
                        && !builder
                        && !file.allowed("protocol", *line) =>
                    {
                        findings.push(Finding {
                            file: file.path.clone(),
                            line: *line,
                            rule: "protocol",
                            message: format!(
                                "{} constructs Message::Sequenced outside the reliable/wire \
                                 layer (risks nesting sequenced frames)",
                                def.qualified()
                            ),
                        });
                    }
                    Op::MethodCall { name, line, .. } if name == "wrap_frame" && !builder => {
                        let id = graph
                            .nodes
                            .iter()
                            .position(|&(f, d)| (f, d) == (fi, di))
                            .unwrap_or(0);
                        let hits_wrap = graph
                            .resolve_call(id, op)
                            .iter()
                            .any(|&t| graph.def(t).owner.as_deref() == Some("OutboundLink"));
                        if hits_wrap && !guarded && !file.allowed("protocol", *line) {
                            findings.push(Finding {
                                file: file.path.clone(),
                                line: *line,
                                rule: "protocol",
                                message: format!(
                                    "{} calls OutboundLink::wrap_frame without testing \
                                     seq_header() or matching on Message::Sequenced first \
                                     (nested frames possible)",
                                    def.qualified()
                                ),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    stats.violations = findings.len() - before;
    stats
}

// -------------------------------------------------------------- metrics

struct MetricStats {
    registered: usize,
    asserted: usize,
    documented: usize,
    violations: usize,
}

/// Metric-family names inside a text fragment: `xdn_`-prefixed
/// identifiers that are not crate paths (`xdn_obs::…`), wildcards
/// (`xdn_match_pool_*` → trailing `_`), or known crate names.
fn scan_metric_names(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while let Some(pos) = text[i..].find("xdn_") {
        let start = i + pos;
        // Must begin an identifier.
        if start > 0 {
            let prev = bytes[start - 1] as char;
            if prev.is_ascii_alphanumeric() || prev == '_' {
                i = start + 4;
                continue;
            }
        }
        let mut end = start;
        while end < bytes.len()
            && ((bytes[end] as char).is_ascii_lowercase()
                || (bytes[end] as char).is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let name = &text[start..end];
        i = end.max(start + 4);
        if name.ends_with('_') || METRIC_NON_NAMES.contains(&name) {
            continue;
        }
        // Crate paths (`xdn_foo::bar`) are not metric names.
        if text[end..].starts_with("::") {
            continue;
        }
        if name.len() > 4 {
            out.push(name.to_owned());
        }
    }
    out
}

/// Strips a Prometheus histogram sample suffix when the remainder is a
/// registered family.
fn canonical<'a>(name: &'a str, registered: &BTreeSet<String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if registered.contains(stem) {
                return stem;
            }
        }
    }
    name
}

fn metric_pass(root: &Path, files: &[ParsedFile], findings: &mut Vec<Finding>) -> MetricStats {
    let before = findings.len();
    // Registered: every xdn_ string literal in non-test code under
    // crates/ (registration sites; the convention is enforced by the
    // doc-equality check below).
    let mut registered: BTreeMap<String, (PathBuf, u32)> = BTreeMap::new();
    let mut asserted: Vec<(String, PathBuf, u32)> = Vec::new();
    for file in files {
        if !file.path.starts_with("crates") {
            continue;
        }
        let is_scrape_test_file = SCRAPE_TEST_FILES.iter().any(|p| file.path == Path::new(p));
        let bodies = file
            .fns
            .iter()
            .map(|d| (d.is_test, &d.body))
            .chain(file.consts.iter().map(|c| (c.is_test, &c.body)));
        for (is_test, body) in bodies {
            for op in body {
                let Op::Str { value, line } = op else {
                    continue;
                };
                for name in scan_metric_names(value) {
                    if !is_test {
                        registered
                            .entry(name)
                            .or_insert_with(|| (file.path.clone(), *line));
                    } else if is_scrape_test_file {
                        asserted.push((name, file.path.clone(), *line));
                    }
                }
            }
        }
    }
    let registered_names: BTreeSet<String> = registered.keys().cloned().collect();

    // CI greps count as assertions too.
    let ci_path = root.join(".github/workflows/ci.yml");
    if let Ok(ci) = std::fs::read_to_string(&ci_path) {
        for (idx, line) in ci.lines().enumerate() {
            for name in scan_metric_names(line) {
                asserted.push((
                    name,
                    PathBuf::from(".github/workflows/ci.yml"),
                    idx as u32 + 1,
                ));
            }
        }
    }
    let asserted_names: BTreeSet<String> = asserted
        .iter()
        .map(|(n, _, _)| canonical(n, &registered_names).to_owned())
        .collect();
    for (name, file, line) in &asserted {
        let stem = canonical(name, &registered_names);
        if !registered_names.contains(stem) {
            findings.push(Finding {
                file: file.clone(),
                line: *line,
                rule: "metric-drift",
                message: format!("test/CI asserts metric `{name}` which no code registers"),
            });
        }
    }

    // DESIGN.md must document exactly the registered set.
    let mut documented: BTreeMap<String, u32> = BTreeMap::new();
    let design_path = root.join("DESIGN.md");
    if let Ok(design) = std::fs::read_to_string(&design_path) {
        for (idx, line) in design.lines().enumerate() {
            for name in scan_metric_names(line) {
                documented.entry(name).or_insert(idx as u32 + 1);
            }
        }
        for (name, line) in &documented {
            let stem = canonical(name, &registered_names);
            if !registered_names.contains(stem) {
                findings.push(Finding {
                    file: PathBuf::from("DESIGN.md"),
                    line: *line,
                    rule: "metric-drift",
                    message: format!("DESIGN.md documents metric `{name}` which no code registers"),
                });
            }
        }
        for (name, (file, line)) in &registered {
            let covered = documented
                .keys()
                .any(|d| canonical(d, &registered_names) == name);
            if !covered {
                findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    rule: "metric-drift",
                    message: format!(
                        "metric `{name}` is registered here but undocumented in DESIGN.md §10"
                    ),
                });
            }
        }
    }
    MetricStats {
        registered: registered.len(),
        asserted: asserted_names.len(),
        documented: documented.len(),
        violations: findings.len() - before,
    }
}

// --------------------------------------------------------------- report

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render_report(
    files: usize,
    fns: usize,
    graph: &Graph<'_>,
    panic: &PanicStats,
    locks: &LockStats,
    proto: &ProtoStats,
    metrics: &MetricStats,
    baseline_entries: usize,
    stale: &[String],
    findings: &[Finding],
) -> String {
    let edges: usize = graph.edges.iter().map(Vec::len).sum();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": 1,\n  \"files\": {files},\n  \"functions\": {fns},\n  \
         \"call_edges\": {edges},\n  \"passes\": {{\n    \
         \"panic_reachability\": {{\"roots\": {}, \"reachable_fns\": {}, \"sources\": {}, \
         \"baselined\": {}}},\n    \
         \"lock_order\": {{\"locking_fns\": {}, \"ordered_pairs\": {}, \"inversions\": {}}},\n    \
         \"protocol\": {{\"message_variants\": {}, \"kind_variants\": {}, \"violations\": {}}},\n    \
         \"metric_drift\": {{\"registered\": {}, \"asserted\": {}, \"documented\": {}, \
         \"violations\": {}}}\n  }},\n  \
         \"baseline\": {{\"entries\": {baseline_entries}, \"stale\": [",
        panic.roots,
        panic.reachable,
        panic.sources,
        panic.baselined,
        locks.locking_fns,
        locks.ordered_pairs,
        locks.inversions,
        proto.message_variants,
        proto.kind_variants,
        proto.violations,
        metrics.registered,
        metrics.asserted,
        metrics.documented,
        metrics.violations,
    );
    for (i, s) in stale.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\"", json_escape(s));
    }
    out.push_str("]},\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            f.rule,
            json_escape(&f.file.display().to_string()),
            f.line,
            json_escape(&f.message)
        );
    }
    if findings.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}
