//! Golden-file fixtures for `cargo xtask analyze`: each test seeds a
//! miniature workspace containing exactly one violation and asserts
//! the analyzer reports it with the expected `file:line` and rule —
//! and nothing else. This is the proof that each semantic pass fires,
//! independent of the real tree (which must stay clean).

use std::path::{Path, PathBuf};
use xtask::analyze::analyze_workspace;
use xtask::lint::Finding;

/// Builds a fresh fixture root under `target/tmp` and populates it.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale fixture");
    }
    for (rel, contents) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, contents).expect("write fixture file");
    }
    root
}

fn run(root: &Path) -> Vec<Finding> {
    analyze_workspace(root).expect("analyze fixture").findings
}

#[test]
fn panic_reachability_crosses_two_call_hops() {
    let root = fixture(
        "panic-two-hops",
        &[(
            "crates/core/src/rtable.rs",
            "pub struct PublicationRouter;\n\
             impl PublicationRouter {\n\
             \x20   pub fn matching_hops(&self) {\n\
             \x20       helper_a();\n\
             \x20   }\n\
             }\n\
             pub fn helper_a() {\n\
             \x20   helper_b();\n\
             }\n\
             pub fn helper_b() -> u32 {\n\
             \x20   let v = vec![1, 2, 3];\n\
             \x20   v[0]\n\
             }\n",
        )],
    );
    let findings = run(&root);
    assert_eq!(findings.len(), 1, "exactly one finding: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "panic-path");
    assert_eq!(f.file, Path::new("crates/core/src/rtable.rs"));
    assert_eq!(f.line, 12, "the `v[0]` index, two call hops from the root");
    assert!(
        f.message.contains("indexing in helper_b"),
        "names the source: {}",
        f.message
    );
    assert!(
        f.message
            .contains("PublicationRouter::matching_hops (rtable.rs:3) → helper_a → helper_b"),
        "full root-to-sink chain: {}",
        f.message
    );
    assert!(
        f.message.contains("(call at rtable.rs:8)"),
        "cites the call entering the panicking fn: {}",
        f.message
    );
}

#[test]
fn panic_baseline_suppresses_known_sites() {
    let root = fixture(
        "panic-baselined",
        &[
            (
                "crates/core/src/rtable.rs",
                "pub fn matching_hops() -> u32 {\n\
                 \x20   let v = vec![1];\n\
                 \x20   v[0]\n\
                 }\n",
            ),
            (
                "xtask/analyze-baseline.txt",
                "# comment\ncrates/core/src/rtable.rs\tmatching_hops\tindexing\n",
            ),
        ],
    );
    let analysis = analyze_workspace(&root).expect("analyze fixture");
    assert!(
        analysis.findings.is_empty(),
        "baselined site must not fail the gate: {:?}",
        analysis.findings
    );
    assert!(analysis.stale_baseline.is_empty());
}

#[test]
fn lock_order_inversion_reports_both_sites() {
    let root = fixture(
        "lock-inversion",
        &[(
            "crates/net/src/live.rs",
            "pub struct Fanout;\n\
             impl Fanout {\n\
             \x20   pub fn forward(&self) {\n\
             \x20       let stats = self.stats.lock();\n\
             \x20       let conns = self.conns.lock();\n\
             \x20       drop(conns);\n\
             \x20       drop(stats);\n\
             \x20   }\n\
             \x20   pub fn backward(&self) {\n\
             \x20       let conns = self.conns.lock();\n\
             \x20       let stats = self.stats.lock();\n\
             \x20       drop(stats);\n\
             \x20       drop(conns);\n\
             \x20   }\n\
             }\n",
        )],
    );
    let findings = run(&root);
    assert_eq!(
        findings.len(),
        2,
        "one finding per inversion side: {findings:?}"
    );
    for f in &findings {
        assert_eq!(f.rule, "lock-order");
        assert_eq!(f.file, Path::new("crates/net/src/live.rs"));
    }
    // `forward` acquires stats→conns at line 5; `backward` conns→stats
    // at line 11; each cites the other as the conflicting order.
    assert_eq!(findings[0].line, 5);
    assert!(
        findings[0]
            .message
            .contains("Fanout::forward acquires `stats` then `conns`"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[0].message.contains("crates/net/src/live.rs:11"),
        "cites the opposite site: {}",
        findings[0].message
    );
    assert_eq!(findings[1].line, 11);
    assert!(
        findings[1]
            .message
            .contains("Fanout::backward acquires `conns` then `stats`"),
        "{}",
        findings[1].message
    );
}

#[test]
fn lock_order_inversion_through_a_callee_is_caught() {
    let root = fixture(
        "lock-transitive",
        &[(
            "crates/broker/src/pool.rs",
            "pub fn outer() {\n\
             \x20   let a = self.alpha.lock();\n\
             \x20   inner();\n\
             \x20   drop(a);\n\
             }\n\
             pub fn inner() {\n\
             \x20   let b = self.beta.lock();\n\
             \x20   drop(b);\n\
             }\n\
             pub fn other() {\n\
             \x20   let b = self.beta.lock();\n\
             \x20   let a = self.alpha.lock();\n\
             \x20   drop(a);\n\
             \x20   drop(b);\n\
             }\n",
        )],
    );
    let findings = run(&root);
    assert_eq!(findings.len(), 2, "{findings:?}");
    let transitive = findings
        .iter()
        .find(|f| f.message.contains("via inner"))
        .expect("one side must be attributed through the callee");
    assert_eq!(transitive.rule, "lock-order");
    assert_eq!(transitive.line, 3, "the call site that reaches beta");
}

/// A well-formed miniature protocol layer; each protocol test breaks
/// exactly one aspect of it.
const MESSAGE_OK: &str = "pub enum Message {\n\
    \x20   Publish(u32),\n\
    \x20   Ack { seq: u64 },\n\
    }\n\
    pub enum MessageKind {\n\
    \x20   Publish,\n\
    \x20   Ack,\n\
    }\n\
    impl MessageKind {\n\
    \x20   pub const ALL: [MessageKind; 2] = [MessageKind::Publish, MessageKind::Ack];\n\
    }\n\
    impl Message {\n\
    \x20   pub fn kind(&self) -> MessageKind {\n\
    \x20       match self {\n\
    \x20           Message::Publish(_) => MessageKind::Publish,\n\
    \x20           Message::Ack { .. } => MessageKind::Ack,\n\
    \x20       }\n\
    \x20   }\n\
    }\n";

const WIRE_OK: &str = "use crate::message::Message;\n\
    pub fn encode(m: &Message) -> u8 {\n\
    \x20   match m {\n\
    \x20       Message::Publish(_) => 0,\n\
    \x20       Message::Ack { .. } => 1,\n\
    \x20   }\n\
    }\n\
    pub fn decode(tag: u8) -> Message {\n\
    \x20   if tag == 0 {\n\
    \x20       Message::Publish(0)\n\
    \x20   } else {\n\
    \x20       Message::Ack { seq: 0 }\n\
    \x20   }\n\
    }\n";

const BROKER_OK: &str = "use crate::message::Message;\n\
    pub struct Broker;\n\
    impl Broker {\n\
    \x20   pub fn handle(&mut self, msg: Message) {\n\
    \x20       match msg {\n\
    \x20           Message::Publish(_) => {}\n\
    \x20           Message::Ack { .. } => {}\n\
    \x20       }\n\
    \x20   }\n\
    }\n";

#[test]
fn protocol_clean_fixture_passes() {
    let root = fixture(
        "protocol-clean",
        &[
            ("crates/broker/src/message.rs", MESSAGE_OK),
            ("crates/broker/src/wire.rs", WIRE_OK),
            ("crates/broker/src/broker.rs", BROKER_OK),
        ],
    );
    let findings = run(&root);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn protocol_missing_dispatch_arm_is_reported() {
    let broker_missing_ack: &str = "use crate::message::Message;\n\
        pub struct Broker;\n\
        impl Broker {\n\
        \x20   pub fn handle(&mut self, msg: Message) {\n\
        \x20       match msg {\n\
        \x20           Message::Publish(_) => {}\n\
        \x20           _ => {}\n\
        \x20       }\n\
        \x20   }\n\
        }\n";
    let root = fixture(
        "protocol-missing-arm",
        &[
            ("crates/broker/src/message.rs", MESSAGE_OK),
            ("crates/broker/src/wire.rs", WIRE_OK),
            ("crates/broker/src/broker.rs", broker_missing_ack),
        ],
    );
    let findings = run(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "protocol");
    assert_eq!(f.file, Path::new("crates/broker/src/message.rs"));
    assert_eq!(f.line, 3, "the `Ack` variant's declaration");
    assert!(
        f.message
            .contains("Message::Ack has no dispatch arm in any Broker::handle* function"),
        "{}",
        f.message
    );
}

#[test]
fn protocol_duplicate_all_entry_is_reported() {
    let message_dup_all = MESSAGE_OK.replace(
        "[MessageKind::Publish, MessageKind::Ack]",
        "[MessageKind::Publish, MessageKind::Publish]",
    );
    let root = fixture(
        "protocol-dup-all",
        &[
            ("crates/broker/src/message.rs", message_dup_all.as_str()),
            ("crates/broker/src/wire.rs", WIRE_OK),
            ("crates/broker/src/broker.rs", BROKER_OK),
        ],
    );
    let findings = run(&root);
    assert_eq!(findings.len(), 2, "{findings:?}");
    for f in &findings {
        assert_eq!(f.rule, "protocol");
        assert_eq!(f.file, Path::new("crates/broker/src/message.rs"));
        assert_eq!(f.line, 10, "the `ALL` const's declaration");
    }
    assert!(
        findings[0].message.contains("MessageKind::Ack appears 0x"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[1]
            .message
            .contains("MessageKind::Publish appears 2x"),
        "{}",
        findings[1].message
    );
}

#[test]
fn protocol_sequenced_outside_reliable_layer_is_reported() {
    let rogue: &str = "use crate::message::Message;\n\
        pub fn smuggle(inner: Message) -> Message {\n\
        \x20   Message::Sequenced { seq: 1 }\n\
        }\n";
    let message_with_seq = MESSAGE_OK.replace(
        "pub enum Message {\n",
        "pub enum Message {\n\x20   Sequenced { seq: u64 },\n",
    );
    // wire.rs is an allowed builder and must pattern/construct the new
    // variant; broker.rs dispatches it.
    let wire_with_seq = WIRE_OK
        .replace(
            "Message::Ack { .. } => 1,\n",
            "Message::Ack { .. } => 1,\n\x20       Message::Sequenced { .. } => 2,\n",
        )
        .replace(
            "Message::Ack { seq: 0 }\n",
            "if tag == 2 { Message::Sequenced { seq: 0 } } else { Message::Ack { seq: 0 } }\n",
        );
    let broker_with_seq = BROKER_OK.replace(
        "Message::Ack { .. } => {}\n",
        "Message::Ack { .. } => {}\n\x20           Message::Sequenced { .. } => {}\n",
    );
    let message_full = message_with_seq
        .replace(
            "pub enum MessageKind {\n",
            "pub enum MessageKind {\n\x20   Sequenced,\n",
        )
        .replace(
            "[MessageKind::Publish, MessageKind::Ack]",
            "[MessageKind::Sequenced, MessageKind::Publish, MessageKind::Ack]",
        )
        .replace("[MessageKind; 2]", "[MessageKind; 3]")
        .replace(
            "match self {\n",
            "match self {\n\x20           Message::Sequenced { .. } => MessageKind::Sequenced,\n",
        );
    let root = fixture(
        "protocol-rogue-sequenced",
        &[
            ("crates/broker/src/message.rs", message_full.as_str()),
            ("crates/broker/src/wire.rs", wire_with_seq.as_str()),
            ("crates/broker/src/broker.rs", broker_with_seq.as_str()),
            ("crates/net/src/shed.rs", rogue),
        ],
    );
    let findings = run(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "protocol");
    assert_eq!(f.file, Path::new("crates/net/src/shed.rs"));
    assert_eq!(f.line, 3, "the rogue construction site");
    assert!(
        f.message
            .contains("smuggle constructs Message::Sequenced outside the reliable/wire layer"),
        "{}",
        f.message
    );
}

#[test]
fn protocol_unguarded_wrap_frame_is_reported() {
    let reliable: &str = "pub struct FrameBuf;\n\
        pub struct OutboundLink;\n\
        impl OutboundLink {\n\
        \x20   pub fn wrap_frame(&mut self, frame: FrameBuf) -> FrameBuf {\n\
        \x20       frame\n\
        \x20   }\n\
        }\n";
    // The first caller tests the frame's header, as
    // `Broker::wrap_outputs` does; the second wraps whatever it gets.
    let relay: &str = "use crate::reliable::{FrameBuf, OutboundLink};\n\
        pub fn guarded(link: &mut OutboundLink, frame: FrameBuf) -> FrameBuf {\n\
        \x20   if frame.seq_header().is_none() {\n\
        \x20       return link.wrap_frame(frame);\n\
        \x20   }\n\
        \x20   frame\n\
        }\n\
        pub fn unguarded(link: &mut OutboundLink, frame: FrameBuf) -> FrameBuf {\n\
        \x20   link.wrap_frame(frame)\n\
        }\n";
    let root = fixture(
        "protocol-unguarded-wrap-frame",
        &[
            ("crates/broker/src/message.rs", MESSAGE_OK),
            ("crates/broker/src/wire.rs", WIRE_OK),
            ("crates/broker/src/broker.rs", BROKER_OK),
            ("crates/broker/src/reliable.rs", reliable),
            ("crates/net/src/relay.rs", relay),
        ],
    );
    let findings = run(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "protocol");
    assert_eq!(f.file, Path::new("crates/net/src/relay.rs"));
    assert_eq!(f.line, 9, "the unguarded call");
    assert!(
        f.message
            .contains("unguarded calls OutboundLink::wrap_frame without testing seq_header()"),
        "{}",
        f.message
    );
}

#[test]
fn metric_drift_is_reported_in_both_directions() {
    let tcp: &str = "pub fn render() -> String {\n\
        \x20   let name = \"xdn_fixture_requests_total\";\n\
        \x20   name.to_string()\n\
        }\n\
        #[cfg(test)]\n\
        mod tests {\n\
        \x20   #[test]\n\
        \x20   fn scrape() {\n\
        \x20       let body = \"\";\n\
        \x20       assert!(body.contains(\"xdn_fixture_ghost_total\"));\n\
        \x20   }\n\
        }\n";
    let root = fixture(
        "metric-drift",
        &[
            ("crates/net/src/tcp.rs", tcp),
            (
                "DESIGN.md",
                "## 10. Observability\n\nNothing documented here.\n",
            ),
        ],
    );
    let findings = run(&root);
    assert_eq!(findings.len(), 2, "{findings:?}");
    let asserted = findings
        .iter()
        .find(|f| f.file == Path::new("crates/net/src/tcp.rs") && f.line == 10)
        .expect("asserted-but-unregistered finding");
    assert_eq!(asserted.rule, "metric-drift");
    assert!(
        asserted
            .message
            .contains("asserts metric `xdn_fixture_ghost_total` which no code registers"),
        "{}",
        asserted.message
    );
    let undocumented = findings
        .iter()
        .find(|f| f.line == 2)
        .expect("registered-but-undocumented finding");
    assert_eq!(undocumented.rule, "metric-drift");
    assert!(
        undocumented
            .message
            .contains("`xdn_fixture_requests_total` is registered here but undocumented"),
        "{}",
        undocumented.message
    );
}

#[test]
fn waiver_comment_suppresses_a_finding() {
    let root = fixture(
        "waived-panic",
        &[(
            "crates/core/src/rtable.rs",
            "pub fn matching_hops() -> u32 {\n\
             \x20   let v = vec![1];\n\
             \x20   // xtask: allow(panic-path) bounded by construction\n\
             \x20   v[0]\n\
             }\n",
        )],
    );
    let findings = run(&root);
    assert!(findings.is_empty(), "waived: {findings:?}");
}

#[test]
fn report_json_counts_fixture_shape() {
    let root = fixture(
        "report-shape",
        &[(
            "crates/core/src/rtable.rs",
            "pub fn matching_hops() -> u32 {\n\
             \x20   let v = vec![1];\n\
             \x20   v[0]\n\
             }\n",
        )],
    );
    let analysis = analyze_workspace(&root).expect("analyze fixture");
    assert!(analysis.report.contains("\"schema\": 1"));
    assert!(analysis.report.contains("\"files\": 1"));
    assert!(analysis.report.contains("\"rule\": \"panic-path\""));
    assert!(
        analysis.report.contains("\"line\": 3"),
        "{}",
        analysis.report
    );
}
