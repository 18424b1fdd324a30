//! Encode-once fan-out bench for the zero-copy wire data plane.
//!
//! Routes NITF publication paths toward 2/8/32 peers and compares the
//! two ways of producing the per-peer sequenced frames:
//!
//! * **flat** — the pre-`FrameBuf` send path: build one
//!   `Message::Sequenced` per peer and encode the *whole* frame (outer
//!   header plus nested inner frame) per peer;
//! * **shared** — the `FrameBuf` path: encode the payload body once,
//!   then stamp each peer's 29-byte sequencing header over the shared
//!   body and write header and body.
//!
//! Encode calls and encoded bytes are measured from the codec's own
//! process-wide counters ([`wire::codec_stats`]) as deltas around each
//! timed section, so the artifact proves the "exactly one encode per
//! fan-out" property rather than asserting it from first principles.
//! Writes `BENCH_wire.json` at the workspace root. Self-timed with
//! `Instant`, like the `matching` bench.
//!
//! Environment knobs (for CI smoke runs):
//! * `XDN_BENCH_ITERS` — timed passes over the publication set
//!   (default `50`);
//! * `XDN_BENCH_PEERS` — comma-separated fan-out widths
//!   (default `2,8,32`).

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;
use xdn_bench::SEED;
use xdn_broker::wire::{self, FrameBuf, SeqHeader};
use xdn_broker::{Message, Publication};
use xdn_workloads::{docs, nitf_dtd};

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");

/// Byte-counting null writer: the frames go nowhere, but every byte is
/// "sent", exercising the same `write_to` path the TCP transport uses.
struct NullWriter {
    written: u64,
}

impl Write for NullWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.written += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Side {
    ns_per_fanout: f64,
    encode_calls_per_fanout: f64,
    encoded_bytes_per_fanout: f64,
    wire_bytes_per_fanout: f64,
}

struct Level {
    peers: usize,
    flat: Side,
    shared: Side,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_usize_list(key: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(key) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

/// Encodes every frame of the flat (per-peer re-encode) fan-out: a
/// fresh buffer and a full body encode per peer, the pre-`FrameBuf`
/// data plane this bench exists to compare against.
fn flat_fanout(msg: &Message, peers: usize, epoch: u64, seq0: u64, sink: &mut NullWriter) {
    for p in 0..peers {
        let framed = Message::Sequenced {
            epoch,
            seq: seq0 + p as u64,
            low: seq0,
            inner: Arc::new(msg.clone()),
        };
        let mut bytes = Vec::new();
        wire::encode_into(std::hint::black_box(&framed), &mut bytes);
        sink.write_all(&bytes).expect("null writer");
    }
}

/// Encodes the body once, then stamps each peer's header over it.
fn shared_fanout(msg: &Message, peers: usize, epoch: u64, seq0: u64, sink: &mut NullWriter) {
    let base = FrameBuf::from_message(msg.clone());
    for p in 0..peers {
        let framed = base.stamped(SeqHeader {
            epoch,
            seq: seq0 + p as u64,
            low: seq0,
        });
        std::hint::black_box(&framed)
            .write_to(sink)
            .expect("null writer");
    }
}

fn measure(
    msgs: &[Message],
    peers: usize,
    iters: usize,
    fanout: impl Fn(&Message, usize, u64, u64, &mut NullWriter),
) -> Side {
    let fanouts = (iters * msgs.len()) as f64;
    let mut sink = NullWriter { written: 0 };
    let before = wire::codec_stats();
    let started = Instant::now();
    let mut seq = 0u64;
    for _ in 0..iters {
        for msg in msgs {
            fanout(msg, peers, 7, seq, &mut sink);
            seq += peers as u64;
        }
    }
    let elapsed = started.elapsed();
    let after = wire::codec_stats();
    Side {
        ns_per_fanout: elapsed.as_nanos() as f64 / fanouts,
        encode_calls_per_fanout: (after.encode_calls - before.encode_calls) as f64 / fanouts,
        encoded_bytes_per_fanout: (after.encoded_bytes - before.encoded_bytes) as f64 / fanouts,
        wire_bytes_per_fanout: sink.written as f64 / fanouts,
    }
}

fn main() {
    let iters = env_usize("XDN_BENCH_ITERS", 50).max(1);
    let peer_counts = env_usize_list("XDN_BENCH_PEERS", &[2, 8, 32]);

    let dtd = nitf_dtd();
    let documents = docs::documents(&dtd, 40, SEED + 50);
    let msgs: Vec<Message> = docs::publication_paths(&documents)
        .iter()
        .map(|p| Message::Publish(Publication::from_doc_path(p, 512)))
        .collect();
    assert!(!msgs.is_empty(), "workload produced no publications");

    let mut levels = Vec::new();
    for &peers in &peer_counts {
        let peers = peers.max(1);
        // Warm both paths (and the thread-local pool) outside the
        // timed sections.
        let mut warm = NullWriter { written: 0 };
        flat_fanout(&msgs[0], peers, 7, 0, &mut warm);
        shared_fanout(&msgs[0], peers, 7, 0, &mut warm);

        let flat = measure(msgs.as_slice(), peers, iters, flat_fanout);
        let shared = measure(msgs.as_slice(), peers, iters, shared_fanout);

        // The identical frames must reach the wire either way.
        assert!(
            (flat.wire_bytes_per_fanout - shared.wire_bytes_per_fanout).abs() < 0.5,
            "flat and shared fan-out must put identical bytes on the wire \
             ({} vs {})",
            flat.wire_bytes_per_fanout,
            shared.wire_bytes_per_fanout,
        );
        println!(
            "bench wire peers={peers}: flat {:.0} ns/fanout ({:.1} encodes, {:.0} B), \
             shared {:.0} ns/fanout ({:.1} encodes, {:.0} B), \
             {:.2}x fewer encoded bytes",
            flat.ns_per_fanout,
            flat.encode_calls_per_fanout,
            flat.encoded_bytes_per_fanout,
            shared.ns_per_fanout,
            shared.encode_calls_per_fanout,
            shared.encoded_bytes_per_fanout,
            flat.encoded_bytes_per_fanout / shared.encoded_bytes_per_fanout.max(f64::EPSILON),
        );
        levels.push(Level {
            peers,
            flat,
            shared,
        });
    }

    let json = render_json(&levels, msgs.len(), iters);
    match std::fs::write(OUT_PATH, &json) {
        Ok(()) => println!("wrote {OUT_PATH}"),
        Err(e) => eprintln!("failed to write {OUT_PATH}: {e}"),
    }
}

fn side_json(s: &Side) -> String {
    format!(
        "{{\"ns_per_fanout\": {:.1}, \"encode_calls_per_fanout\": {:.2}, \
         \"encoded_bytes_per_fanout\": {:.1}, \"wire_bytes_per_fanout\": {:.1}}}",
        s.ns_per_fanout,
        s.encode_calls_per_fanout,
        s.encoded_bytes_per_fanout,
        s.wire_bytes_per_fanout,
    )
}

fn render_json(levels: &[Level], paths: usize, iters: usize) -> String {
    let rows: Vec<String> = levels
        .iter()
        .map(|l| {
            format!(
                "    {{\"peers\": {}, \"flat\": {}, \"shared\": {}, \
                 \"encoded_bytes_ratio\": {:.2}, \"speedup\": {:.2}}}",
                l.peers,
                side_json(&l.flat),
                side_json(&l.shared),
                l.flat.encoded_bytes_per_fanout
                    / l.shared.encoded_bytes_per_fanout.max(f64::EPSILON),
                l.flat.ns_per_fanout / l.shared.ns_per_fanout.max(f64::EPSILON),
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"wire\",\n  \"workload\": \"nitf publication paths\",\n  \
         \"publication_paths\": {paths},\n  \"iters\": {iters},\n  \"levels\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}
