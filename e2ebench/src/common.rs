//! Pieces the workloads share: run settings, the document pool, one
//! closed-loop document or subscription operation on the in-process
//! chain, and the per-layer readout of a chain.

use crate::chain::{Chain, Delivery};
use crate::cpu;
use crate::oracle::Oracle;
use crate::reference::{slowdown, Reference, UNITS_PER_BLOCK};
use crate::report::{ratio, Outcome};
use crate::stats::Samples;
use crate::trace::{Parent, Tracer, NO_BROKER};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeSet, HashSet};
use std::time::{Duration, Instant};
use xdn_broker::wire::{codec_stats, CodecStats};
use xdn_broker::{ClientId, Message, MessageKind, Publication};
use xdn_xml::paths::{dedup_paths, extract_paths};
use xdn_xml::{DocId, DocPath, Document};

/// Seed of every workload's standing subscriber population. The
/// population is part of a workload's definition: table shape under
/// covering hinges on a few broad XPEs, so redrawing it per run moved
/// throughput by ±40% between seeds.
pub const POPULATION_SEED: u64 = 0x1cdc_5208;

/// Seed of every workload's document pool, which is part of the
/// workload's definition too. A small pool stays in cache; a large one
/// made each document's cost swing with other tenants' memory traffic.
/// A small pool redrawn per seed would make the mean document differ
/// between seeds, so `--seed` draws the order the pool is published in
/// (see [`Order`]) and the churn script instead.
pub const POOL_SEED: u64 = POPULATION_SEED ^ 0x5eed_d0c5;

/// The order a run publishes its pool in: passes over the whole pool,
/// each a fresh seeded shuffle, so every stretch of whole passes holds
/// the same documents whatever the seed.
pub struct Order {
    rng: ChaCha8Rng,
    perm: Vec<usize>,
    at: usize,
}

impl Order {
    /// The order for `seed` over a pool of `len` documents.
    pub fn new(seed: u64, len: usize) -> Order {
        Order {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x0bde_5eed),
            perm: (0..len).collect(),
            at: len,
        }
    }

    /// The pool index of the next document to publish.
    pub fn next_index(&mut self) -> usize {
        if self.at == self.perm.len() {
            for i in (1..self.perm.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.perm.swap(i, j);
            }
            self.at = 0;
        }
        self.at += 1;
        self.perm[self.at - 1]
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase runs (it also runs until the
    /// workload's minimum sample counts are reached).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Run {
    /// True once the measured phase may stop: the time is up and the
    /// minimum counts are reached, or a minute more than the time is up
    /// (a run stays bounded however slow the program gets).
    pub fn done(&self, started: Instant, minimums_met: bool) -> bool {
        let elapsed = started.elapsed().as_secs_f64();
        (minimums_met && elapsed >= self.seconds) || elapsed >= self.seconds + 60.0
    }

    /// The tracer for this run, paused until the measured phase.
    pub fn tracer(&self) -> Tracer {
        let mut t = if self.trace {
            Tracer::on()
        } else {
            Tracer::off()
        };
        t.set_recording(false);
        t
    }
}

/// A generated document with what the oracle needs to know about it.
pub struct PoolDoc {
    /// The document itself.
    pub doc: Document,
    /// Its serialised size, carried on every publication.
    pub bytes: usize,
    /// Its distinct paths (doc id 0; path ids as the publisher numbers
    /// them).
    pub paths: Vec<DocPath>,
}

/// Prepares generated documents for publishing.
pub fn pool(docs: Vec<Document>) -> Vec<PoolDoc> {
    docs.into_iter()
        .map(|doc| PoolDoc {
            bytes: doc.to_xml_string().len(),
            paths: dedup_paths(extract_paths(&doc, DocId(0))),
            doc,
        })
        .collect()
}

/// The deliveries the oracle expects for one publication of `doc`.
pub fn expected(oracle: &mut Oracle, doc: &PoolDoc) -> HashSet<(u64, u32)> {
    let mut out = HashSet::new();
    for p in &doc.paths {
        for &c in oracle.receivers(&p.elements, &p.attributes) {
            out.insert((c, p.path_id.0));
        }
    }
    out
}

/// Counts (client, doc, path) deliveries that differ from `expected`
/// as multisets: a duplicate, a stray and a missing delivery each count
/// once.
pub fn mismatches(doc: u64, expected: &HashSet<(u64, u32)>, delivered: &[Delivery]) -> u64 {
    let mut owed = expected.clone();
    let mut wrong = 0u64;
    for &(c, d, p) in delivered {
        if d != doc || !owed.remove(&(c, p)) {
            wrong += 1;
        }
    }
    wrong + owed.len() as u64
}

/// What one closed-loop document publication measured, on the drive
/// thread's CPU clock.
pub struct DocResult {
    /// Publish to the last expected delivery.
    pub latency: Duration,
    /// Publish to quiescence (acks included).
    pub cycle: Duration,
    /// Deliveries that differ from the oracle.
    pub mismatches: u64,
    /// Whether every expected delivery arrived.
    pub complete: bool,
}

/// Publishes `doc` as document `doc_id` from `publisher` at broker
/// `at`, and drains the chain. `expected` (from the oracle) is known
/// before the clock starts; extraction of the paths is the publisher's
/// work and is timed.
pub fn publish_doc(
    chain: &mut Chain,
    expected: &HashSet<(u64, u32)>,
    doc: &PoolDoc,
    doc_id: u64,
    publisher: ClientId,
    at: usize,
) -> DocResult {
    chain.watch(doc_id, expected.clone());
    let t0 = cpu::thread();
    let ts = chain.tracer.now();
    let paths = dedup_paths(extract_paths(&doc.doc, DocId(doc_id)));
    chain.tracer.close("extract", NO_BROKER, ts);
    for p in &paths {
        let msg = Message::Publish(Publication::from_doc_path(p, doc.bytes));
        chain.client_send(publisher, at, msg);
    }
    chain.drain();
    let end = cpu::thread();
    let done = chain.completed_at();
    let delivered = chain.take_deliveries();
    DocResult {
        latency: done.unwrap_or(end) - t0,
        cycle: end - t0,
        mismatches: mismatches(doc_id, expected, &delivered),
        complete: done.is_some() || expected.is_empty(),
    }
}

/// What one closed-loop subscription operation measured.
pub struct OpResult {
    /// Send to quiescence, on the drive thread's CPU clock.
    pub took: Duration,
    /// Publications clients received meanwhile: each is a mismatch.
    pub stray: u64,
}

/// Sends one subscribe or unsubscribe from `client` at broker `at` and
/// drains the chain.
pub fn sub_op(chain: &mut Chain, op: u64, client: ClientId, at: usize, msg: Message) -> OpResult {
    chain.tracer.set_parent(Parent::Op(op));
    let t0 = cpu::thread();
    chain.client_send(client, at, msg);
    chain.drain();
    let took = cpu::thread() - t0;
    OpResult {
        took,
        stray: chain.take_deliveries().len() as u64,
    }
}

/// The process's resident set size in MB, from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Field-wise difference of two codec snapshots.
pub fn codec_since(earlier: &CodecStats) -> CodecStats {
    let now = codec_stats();
    CodecStats {
        encode_calls: now.encode_calls - earlier.encode_calls,
        encoded_bytes: now.encoded_bytes - earlier.encoded_bytes,
        pool_hits: now.pool_hits - earlier.pool_hits,
        pool_misses: now.pool_misses - earlier.pool_misses,
        pool_discards: now.pool_discards - earlier.pool_discards,
    }
}

/// Exact sum and count of a broker histogram, for deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistMark {
    /// Total nanoseconds.
    pub ns: u128,
    /// Samples.
    pub count: u64,
}

impl HistMark {
    /// Reads the exact totals of a histogram (never its buckets).
    pub fn of(h: &xdn_obs::Histogram) -> HistMark {
        HistMark {
            ns: h.sum_ns(),
            count: h.count(),
        }
    }

    /// Mean microseconds per sample since `earlier`.
    pub fn us_since(&self, earlier: &HistMark) -> f64 {
        let n = self.count - earlier.count;
        ratio((self.ns - earlier.ns) as f64 / 1e3, n as f64)
    }
}

/// Per-broker readings of a chain taken at the start of the measured
/// phase.
pub struct ChainMark {
    route: Vec<HistMark>,
    acks: u64,
    sent: u64,
    codec: CodecStats,
}

impl ChainMark {
    /// Marks the chain's counters now.
    pub fn take(chain: &Chain) -> ChainMark {
        ChainMark {
            route: (0..chain.len())
                .map(|i| HistMark::of(&chain.broker(i).stats().pub_routing))
                .collect(),
            acks: (0..chain.len())
                .map(|i| chain.broker(i).stats().received_of(MessageKind::Ack))
                .sum(),
            sent: (0..chain.len()).map(|i| chain.broker(i).stats().sent).sum(),
            codec: codec_stats(),
        }
    }
}

/// Per-layer metrics of an in-process chain over the measured phase
/// that began at `mark`, for `docs` documents of which `traced` were
/// traced.
pub fn chain_layers(out: &mut Outcome, chain: &Chain, mark: &ChainMark, docs: u64, traced: u64) {
    let n = chain.len();
    let mut route_per_doc_us = 0.0;
    let mut prt = 0usize;
    let mut effective = 0usize;
    for i in 0..n {
        let stats = chain.broker(i).stats();
        let now = HistMark::of(&stats.pub_routing);
        out.set(
            &format!("broker.route_us_per_path.b{i}"),
            now.us_since(&mark.route[i]),
            "us",
        );
        route_per_doc_us += ratio((now.ns - mark.route[i].ns) as f64 / 1e3, docs as f64);
        out.set(
            &format!("broker.sub_us.b{i}"),
            HistMark::of(&stats.sub_processing).us_since(&HistMark::default()),
            "us",
        );
        let b = chain.broker(i);
        out.set(&format!("core.prt_size.b{i}"), b.prt_size() as f64, "count");
        out.set(
            &format!("core.prt_effective.b{i}"),
            b.prt_effective_size() as f64,
            "count",
        );
        prt += b.prt_size();
        effective += b.prt_effective_size();
    }
    out.set(
        "core.covered_share",
        1.0 - ratio(effective as f64, prt as f64),
        "ratio",
    );
    let srt: usize = (0..n).map(|i| chain.broker(i).srt_size()).sum();
    out.set("core.srt_size", ratio(srt as f64, n as f64), "count");

    let acks: u64 = (0..n)
        .map(|i| chain.broker(i).stats().received_of(MessageKind::Ack))
        .sum();
    let sent: u64 = (0..n).map(|i| chain.broker(i).stats().sent).sum();
    out.set(
        "reliable.acks_per_doc",
        ratio((acks - mark.acks) as f64, docs as f64),
        "count",
    );
    let dup: u64 = (0..n).map(|i| chain.broker(i).stats().dup_frames).sum();
    let retx: u64 = (0..n).map(|i| chain.broker(i).stats().retransmits).sum();
    out.set("reliable.dup_frames", dup as f64, "count");
    out.set("reliable.retransmits", retx as f64, "count");

    let codec = codec_since(&mark.codec);
    wire_layers(out, &codec, sent - mark.sent);

    let tr = &chain.tracer;
    out.set(
        "xml.extract_us_per_doc",
        tr.total(&["extract"], None).us_per_unit(),
        "us",
    );
    out.set(
        "wire.encode_ns_per_frame",
        tr.total(&["encode"], None).us_per_unit() * 1e3,
        "ns",
    );
    out.set(
        "wire.decode_ns_per_frame",
        tr.total(&["decode", "deliver"], None).us_per_unit() * 1e3,
        "ns",
    );
    out.set(
        "broker.handle_us_per_pub_frame",
        tr.total(&["handle.pub"], None).us_per_unit(),
        "us",
    );
    out.set(
        "broker.handle_us_per_ctl_frame",
        tr.total(&["handle.ctl", "handle.ack"], None).us_per_unit(),
        "us",
    );

    // The stage-sum check on the middle broker: one hop's wall time
    // against the calls the drive timed inside it.
    let mid = (n / 2) as u32;
    let per_doc = |names: &[&str]| ratio(tr.total(names, Some(mid)).ns as f64 / 1e3, traced as f64);
    let wall = per_doc(&["hop"]);
    let stages = [
        ("decode", per_doc(&["decode"])),
        (
            "handle",
            per_doc(&["handle.pub", "handle.ctl", "handle.ack"]),
        ),
        ("encode", per_doc(&["encode"])),
        ("deliver", per_doc(&["deliver"])),
    ];
    for (stage, us) in stages {
        out.set(&format!("hop.b{mid}.{stage}_us_per_doc"), us, "us");
    }
    out.set(&format!("hop.b{mid}.wall_us_per_doc"), wall, "us");
    let attributed: f64 = stages.iter().map(|(_, us)| us).sum();
    out.set(
        "drive.unattributed_share",
        ratio(wall - attributed, wall),
        "ratio",
    );
    out.set("path.route_us_per_doc", route_per_doc_us, "us");
}

/// Codec metrics over a phase in which the brokers emitted `outbound`
/// frames.
pub fn wire_layers(out: &mut Outcome, codec: &CodecStats, outbound: u64) {
    out.set(
        "wire.bytes_per_frame",
        ratio(codec.encoded_bytes as f64, codec.encode_calls as f64),
        "bytes",
    );
    out.set(
        "wire.encodes_per_outbound",
        ratio(codec.encode_calls as f64, outbound as f64),
        "ratio",
    );
    out.set(
        "wire.pool_miss_ratio",
        ratio(
            codec.pool_misses as f64,
            (codec.pool_hits + codec.pool_misses) as f64,
        ),
        "ratio",
    );
}

/// Document metrics shared by every workload. `cycles` holds each
/// document's CPU microseconds from its publication to quiescence, and
/// `deliver` to its last expected delivery. The headline figures are
/// taken over the blocks in `quiet` and scaled by the host's
/// `slowdown` there ([`crate::reference`]); the all-sample figures
/// beside them are not scaled.
pub fn doc_metrics(
    out: &mut Outcome,
    quiet: &BTreeSet<u32>,
    slowdown: f64,
    cycles: &Samples,
    deliver: &Samples,
) {
    let (c, d) = (cycles.only(quiet), deliver.only(quiet));
    out.set("host.slowdown", slowdown, "ratio");
    out.set(
        "docs_per_cpu_s",
        ratio(c.len() as f64, c.sum() / 1e6) * slowdown,
        "1/s",
    );
    let scaled = |p: Option<f64>| p.map(|v| v / slowdown);
    out.set_opt("deliver_p50_cpu_us", scaled(d.percentile(0.5)), "us");
    out.set_opt("deliver_p90_cpu_us", scaled(d.percentile(0.9)), "us");
    out.set("deliver_quiet_samples", d.len() as f64, "count");
    out.set(
        "docs_per_cpu_s_all",
        ratio(cycles.len() as f64, cycles.sum() / 1e6),
        "1/s",
    );
    out.set_opt("deliver_p50_cpu_all_us", deliver.percentile(0.5), "us");
    out.set_opt("deliver_p99_cpu_all_us", deliver.percentile(0.99), "us");
    out.set("deliver_samples", deliver.len() as f64, "count");
}

/// Report lines on subscription operations: each one's CPU
/// microseconds in `ops`, over all samples and unscaled.
pub fn op_latency(out: &mut Outcome, ops: &Samples) {
    out.set_opt("sub_op_p50_cpu_all_us", ops.percentile(0.5), "us");
    out.set_opt("sub_op_p90_cpu_all_us", ops.percentile(0.9), "us");
    out.set("sub_op_samples", ops.len() as f64, "count");
}

/// A run's set-ups, each scaled by the host's slowdown around it: the
/// reference is timed just before and just after every set-up.
#[derive(Default)]
pub struct SetupTimes {
    refs: Samples,
    seconds: Samples,
    rates: Samples,
    done: u32,
}

impl SetupTimes {
    /// Times the reference before the next set-up.
    pub fn before(&mut self, reference: &mut Reference) {
        reference.time(UNITS_PER_BLOCK / 2, self.done, &mut self.refs);
    }

    /// Times the reference after the set-up, and records the set-up's
    /// CPU seconds and, when it timed `ops` subscriptions on their own
    /// (`ops_cpu_s` CPU seconds), their rate.
    pub fn after(&mut self, reference: &mut Reference, cpu_s: f64, ops: u64, ops_cpu_s: f64) {
        reference.time(UNITS_PER_BLOCK / 2, self.done, &mut self.refs);
        let host = slowdown(&self.refs, &BTreeSet::from([self.done]));
        self.seconds.push(0, cpu_s / host);
        if ops > 0 {
            self.rates.push(0, ratio(ops as f64, ops_cpu_s) * host);
        }
        self.done += 1;
    }

    /// `setup_s`, and `sub_ops_per_cpu_s` when the set-ups timed their
    /// subscriptions: the medians over the set-ups.
    pub fn report(&self, out: &mut Outcome) {
        out.set("setup_s", self.seconds.median(), "s");
        out.set("setup_samples", self.seconds.len() as f64, "count");
        if !self.rates.is_empty() {
            out.set("sub_ops_per_cpu_s", self.rates.median(), "1/s");
        }
    }
}
