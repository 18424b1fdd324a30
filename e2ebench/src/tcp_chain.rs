//! `tcp-chain`: publish→deliver over three `TcpNode`s on loopback.
//!
//! Set-up: nodes `n0 — n1 — n2` in one process on 127.0.0.1, running
//! `with-Adv-with-Cov` on the PSD DTD; the publisher client at `n0`
//! advertises every PSD advertisement; the subscriber client at `n2`
//! sends 300 background PSD XPEs plus one XPE every document matches
//! (`/ProteinDatabase/ProteinEntry/header/uid`) back to back, and the
//! set-up waits until every node has seen the subscription traffic an
//! in-process mirror of the chain predicts. Load: a closed loop on the
//! main thread, which publishes one document on the publisher
//! connection and receives its deliveries on the subscriber connection
//! before it publishes the next.
//!
//! The overlay runs on many threads, so its figures are CPU time of the
//! whole process ([`crate::cpu::process`]): one document at a time,
//! the process's CPU time from publication to the last expected
//! delivery is the work the overlay did for that document. The wall
//! latency is printed beside it.

use crate::chain::Chain;
use crate::common::{
    codec_since, doc_metrics, expected, pool, rss_mb, wire_layers, HistMark, Order, PoolDoc, Run,
    SetupTimes, POOL_SEED, POPULATION_SEED,
};
use crate::cpu;
use crate::oracle::Oracle;
use crate::reference::{slowdown, Reference, UNITS_PER_BLOCK};
use crate::report::{ratio, Outcome};
use crate::stats::{quiet, Samples};
use crate::trace::{Parent, Tracer, NO_BROKER};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use xdn_broker::wire::{codec_stats, CodecStats, SEQ_HEADER_BYTES};
use xdn_broker::{BrokerId, ClientId, Message, MessageKind, Publication, RoutingConfig};
use xdn_core::adv::{derive_advertisements, Advertisement, DeriveOptions};
use xdn_core::rtable::{AdvId, SubId};
use xdn_net::tcp::{NodeSnapshot, TcpClient, TcpNode};
use xdn_workloads::{docs, psd_dtd, sets};
use xdn_xml::paths::{dedup_paths, extract_paths};
use xdn_xml::DocId;
use xdn_xpath::Xpe;

/// The routing strategy, by its paper name.
pub const STRATEGY: &str = "with-Adv-with-Cov";

/// The subscription every PSD document matches.
pub const MEASURED_XPE: &str = "/ProteinDatabase/ProteinEntry/header/uid";

const PUBLISHER: ClientId = ClientId(1000);
const SUBSCRIBER: ClientId = ClientId(100);
const NODES: usize = 3;

/// How long set-up waits for the overlay to reach a predicted state.
const SETTLE_LIMIT: Duration = Duration::from_secs(20);

/// How often set-up polls the nodes while it waits. Each poll costs the
/// process CPU time, so polls are few.
const SETTLE_POLL: Duration = Duration::from_millis(1);

/// How long a document may take to be fully delivered.
const DELIVERY_DEADLINE: Duration = Duration::from_secs(5);

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Background XPEs besides the measured one.
    pub background: usize,
    /// Distinct documents, published in seeded passes (see [`Order`]).
    pub pool_docs: usize,
    /// Passes over the pool between two set-ups. Once the traffic is
    /// counted, an untraced run sets a second overlay up (and shuts it
    /// down) after every that many passes, to time the set-up all
    /// through the run; `setup_s` is the set-ups' median.
    pub setup_every: usize,
    /// Documents published at least.
    pub min_docs: usize,
    /// Leading documents the traffic counts are taken over: whole
    /// passes over the pool, so they repeat exactly for every seed.
    pub count_docs: usize,
}

impl Size {
    /// The benchmark's dimensions.
    pub fn full() -> Size {
        Size {
            background: 300,
            pool_docs: 100,
            setup_every: 2,
            min_docs: 2000,
            count_docs: 1000,
        }
    }

    /// Dimensions for the benchmark's own tests.
    pub fn tiny() -> Size {
        Size {
            background: 110,
            pool_docs: 60,
            setup_every: 1,
            min_docs: 480,
            count_docs: 120,
        }
    }
}

struct Overlay {
    nodes: Vec<TcpNode>,
    publisher: TcpClient,
    subscriber: TcpClient,
}

fn snapshots(nodes: &[TcpNode]) -> Vec<NodeSnapshot> {
    nodes
        .iter()
        .map(|n| n.snapshot().expect("a running node answers snapshots"))
        .collect()
}

impl Overlay {
    fn snapshots(&self) -> Vec<NodeSnapshot> {
        snapshots(&self.nodes)
    }

    fn shutdown(self) {
        let Overlay {
            nodes,
            publisher,
            subscriber,
        } = self;
        drop(publisher);
        drop(subscriber);
        for n in nodes.into_iter().rev() {
            n.shutdown();
        }
    }
}

/// Polls every node until `reached` holds for each (node index,
/// snapshot); false when [`SETTLE_LIMIT`] passes first.
fn settle(nodes: &[TcpNode], reached: impl Fn(usize, &NodeSnapshot) -> bool) -> bool {
    let deadline = Instant::now() + SETTLE_LIMIT;
    for (i, node) in nodes.iter().enumerate() {
        loop {
            if node.snapshot().is_some_and(|s| reached(i, &s)) {
                break;
            }
            if Instant::now() >= deadline {
                return false;
            }
            // xtask: allow(sleep) poll slice under the SETTLE_LIMIT deadline
            std::thread::sleep(SETTLE_POLL);
        }
    }
    true
}

fn sub_traffic(s: &NodeSnapshot) -> u64 {
    s.stats.received_of(MessageKind::Subscribe) + s.stats.received_of(MessageKind::Unsubscribe)
}

struct Setup {
    overlay: Overlay,
    /// Process CPU seconds from starting the nodes to settled
    /// subscriptions.
    cpu_s: f64,
    /// Of those, the seconds from the first subscription on.
    ops_cpu_s: f64,
    /// Broker-to-broker subscription frames per operation.
    sub_frames_per_op: f64,
}

/// Subscription traffic (subscribe and unsubscribe frames received)
/// each node sees once `subs` are subscribed at the tail after `advs`
/// are advertised at the head, from an in-process mirror of the chain.
fn predict(config: RoutingConfig, advs: &[Advertisement], subs: &[Xpe]) -> Vec<u64> {
    let mut mirror = Chain::new(NODES, config, Tracer::off());
    for (i, adv) in advs.iter().enumerate() {
        let msg = Message::Advertise {
            id: AdvId(i as u64 + 1),
            adv: adv.clone(),
        };
        mirror.client_send(PUBLISHER, 0, msg);
    }
    mirror.drain();
    for (i, xpe) in subs.iter().enumerate() {
        let msg = Message::Subscribe {
            id: SubId(i as u64 + 1),
            xpe: xpe.clone(),
        };
        mirror.client_send(SUBSCRIBER, NODES - 1, msg);
        mirror.drain();
    }
    (0..NODES)
        .map(|k| {
            let s = mirror.broker(k).stats();
            s.received_of(MessageKind::Subscribe) + s.received_of(MessageKind::Unsubscribe)
        })
        .collect()
}

fn setup(
    config: RoutingConfig,
    advs: &[Advertisement],
    subs: &[Xpe],
    want: &[u64],
    out: &mut Outcome,
) -> Option<Setup> {
    let t0 = cpu::process();
    let any = "127.0.0.1:0".parse().expect("a literal socket address");
    let n0 = TcpNode::start(BrokerId(0), config, any, &[]).ok()?;
    let n1 = TcpNode::start(BrokerId(1), config, any, &[(BrokerId(0), n0.addr())]).ok()?;
    let n2 = TcpNode::start(BrokerId(2), config, any, &[(BrokerId(1), n1.addr())]).ok()?;
    let nodes = vec![n0, n1, n2];
    // Every link has exchanged its routing snapshot in both directions.
    let neighbours = [1u64, 2, 1];
    if !settle(&nodes, |i, s| {
        s.stats.received_of(MessageKind::SyncState) >= neighbours[i]
    }) {
        out.check_failures
            .push("tcp overlay never finished its link sync".into());
    }
    let publisher = TcpClient::connect(nodes[0].addr(), PUBLISHER).ok()?;
    let subscriber = TcpClient::connect(nodes[2].addr(), SUBSCRIBER).ok()?;
    let mut overlay = Overlay {
        nodes,
        publisher,
        subscriber,
    };

    for (i, adv) in advs.iter().enumerate() {
        let msg = Message::Advertise {
            id: AdvId(i as u64 + 1),
            adv: adv.clone(),
        };
        overlay.publisher.send(&msg).ok()?;
    }
    let n_advs = advs.len() as u64;
    if !settle(&overlay.nodes, |_, s| {
        s.stats.received_of(MessageKind::Advertise) >= n_advs
    }) {
        out.check_failures
            .push("advertisements never reached every node".into());
    }

    let before: Vec<u64> = overlay.snapshots().iter().map(sub_traffic).collect();
    let t1 = cpu::process();
    for (i, xpe) in subs.iter().enumerate() {
        let msg = Message::Subscribe {
            id: SubId(i as u64 + 1),
            xpe: xpe.clone(),
        };
        overlay.subscriber.send(&msg).ok()?;
    }
    // Brokers handle a batch exactly as they would its frames one at a
    // time, and each link is FIFO, so the traffic the mirror predicts
    // for one-at-a-time subscriptions is what the overlay ends with.
    if !settle(&overlay.nodes, |k, s| sub_traffic(s) >= before[k] + want[k]) {
        out.check_failures
            .push("the subscriptions never settled".into());
        return None;
    }
    let t2 = cpu::process();
    let after: u64 = overlay.snapshots().iter().map(sub_traffic).sum();
    let client_ops = subs.len() as u64;
    let sub_frames = (after - before.iter().sum::<u64>()).saturating_sub(client_ops);
    Some(Setup {
        overlay,
        cpu_s: (t2 - t0).as_secs_f64(),
        ops_cpu_s: (t2 - t1).as_secs_f64(),
        sub_frames_per_op: ratio(sub_frames as f64, client_ops as f64),
    })
}

/// Receives document `doc`'s deliveries until every path `owed` has
/// arrived (true) or the delivery deadline passes (false). A delivery
/// of another document, or of a path not owed, counts as a mismatch, as
/// does every path still owed at the deadline.
fn receive(
    subscriber: &TcpClient,
    doc: u64,
    owed: &mut HashSet<u32>,
    mismatches: &mut u64,
) -> bool {
    let deadline = Instant::now() + DELIVERY_DEADLINE;
    while !owed.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        match subscriber.recv_timeout(left) {
            Some(Message::Publish(p)) if p.doc_id.0 == doc && owed.remove(&p.path_id.0) => {}
            Some(Message::Publish(_)) => *mismatches += 1,
            Some(_) => {}
            None => {
                *mismatches += owed.len() as u64;
                return false;
            }
        }
    }
    true
}

/// Sum of every sample of metric family `family` in a scrape.
fn scrape(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter(|l| l[family.len()..].starts_with([' ', '{']))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Runs the workload.
pub fn run(run: &Run, size: &Size) -> Outcome {
    let mut out = Outcome::default();
    out.meta("strategy", STRATEGY);
    out.meta("load", "closed loop, one document at a time");
    out.meta("transport", "tcp loopback 127.0.0.1");
    let config = RoutingConfig::by_name(STRATEGY).expect("a paper strategy name");
    let dtd = psd_dtd();
    let advs = derive_advertisements(&dtd, &DeriveOptions::default());
    let mut subs = sets::set_a(&dtd, size.background, POPULATION_SEED);
    subs.push(MEASURED_XPE.parse().expect("a valid XPE"));
    let pool = pool(docs::documents(&dtd, size.pool_docs, POOL_SEED));
    let mut order = Order::new(run.seed, pool.len());
    let mut oracle = Oracle::new();
    for (i, x) in subs.iter().enumerate() {
        oracle.subscribe(i as u64 + 1, SUBSCRIBER.0, x.clone());
    }
    let owed_per_pool: Vec<HashSet<u32>> = pool
        .iter()
        .map(|d| {
            expected(&mut oracle, d)
                .into_iter()
                .map(|(_, p)| p)
                .collect()
        })
        .collect();
    let want = predict(config, &advs, &subs);

    // The reference is timed in every pass and around every set-up, on
    // the main thread while the overlay is idle.
    let mut reference = Reference::new();
    let mut pass_refs = Samples::new();
    let mut setups = SetupTimes::default();
    let n_ops = subs.len() as u64;
    setups.before(&mut reference);
    let Some(first) = setup(config, &advs, &subs, &want, &mut out) else {
        out.check_failures.push("tcp set-up failed".into());
        return out;
    };
    setups.after(&mut reference, first.cpu_s, n_ops, first.ops_cpu_s);
    out.set("rss_after_setup_mb", rss_mb(), "MB");
    out.set("broker_msgs_per_sub_op", first.sub_frames_per_op, "count");
    let Overlay {
        nodes,
        mut publisher,
        subscriber,
    } = first.overlay;

    let snap0 = snapshots(&nodes);
    let codec0 = codec_stats();
    // Node snapshots, codec counters and paths sent once the leading
    // documents are delivered and acknowledged.
    let mut counted: Option<(Vec<NodeSnapshot>, CodecStats, u64)> = None;
    let mut tracer = if run.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let (mut deliver, mut wall) = (Samples::new(), Samples::new());
    let mut traced_cpu = Samples::new();
    let (mut published, mut failed, mut paths_sent) = (0u64, 0u64, 0u64);
    let mut send_failed = false;
    let started = Instant::now();
    while !run.done(started, published as usize >= size.min_docs) {
        // Documents are timed in blocks of one pass over the pool.
        let pass = (published as usize / pool.len()) as u32;
        if (published as usize).is_multiple_of(pool.len() / UNITS_PER_BLOCK) {
            reference.time(1, pass, &mut pass_refs);
        }
        let k = order.next_index();
        published += 1;
        let doc: &PoolDoc = &pool[k];
        let mut owed = owed_per_pool[k].clone();
        let trace_this = run.trace && published % 2 == 0;
        tracer.set_recording(trace_this);
        tracer.set_parent(Parent::Doc(published));
        let (c0, w0) = (cpu::process(), Instant::now());
        let ts = tracer.now();
        let paths = dedup_paths(extract_paths(&doc.doc, DocId(published)));
        tracer.close("extract", NO_BROKER, ts);
        for p in &paths {
            let msg = Message::Publish(Publication::from_doc_path(p, doc.bytes));
            let ts = tracer.now();
            send_failed |= publisher.send(&msg).is_err();
            tracer.close("send", NO_BROKER, ts);
        }
        paths_sent += paths.len() as u64;
        let complete = receive(&subscriber, published, &mut owed, &mut out.mismatches);
        let (c1, w1) = (cpu::process(), Instant::now());
        if !complete {
            failed += 1;
        } else if trace_this {
            traced_cpu.push_us(pass, c1 - c0);
        } else {
            deliver.push_us(pass, c1 - c0);
            wall.push_us(pass, w1 - w0);
        }
        if published as usize == size.count_docs {
            // xtask: allow(sleep) lets the last acknowledgements land before counting
            std::thread::sleep(Duration::from_millis(20));
            counted = Some((snapshots(&nodes), codec_since(&codec0), paths_sent));
        }
        let pass_done = (published as usize).is_multiple_of(pool.len() * size.setup_every);
        if !run.trace && counted.is_some() && pass_done {
            setups.before(&mut reference);
            match setup(config, &advs, &subs, &want, &mut out) {
                Some(s) => {
                    setups.after(&mut reference, s.cpu_s, n_ops, s.ops_cpu_s);
                    s.overlay.shutdown();
                }
                None => out
                    .check_failures
                    .push("a repeated tcp set-up failed".into()),
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    tracer.set_recording(false);
    // Linger for duplicate or stray deliveries.
    while let Some(m) = subscriber.recv_timeout(Duration::from_millis(50)) {
        if matches!(m, Message::Publish(_)) {
            out.mismatches += 1;
        }
    }
    let snap1 = snapshots(&nodes);
    let codec = codec_since(&codec0);
    let scrapes: Vec<String> = nodes.iter().filter_map(TcpNode::metrics_text).collect();

    if send_failed {
        out.check_failures.push("a publisher send failed".into());
    }
    // One document at a time, its CPU time to the last delivery is also
    // its cycle: the next one starts there.
    let passes = (published as usize / pool.len()) as u32;
    let quiet_passes = quiet(&deliver.block_sums(passes));
    out.set("quiet_blocks", quiet_passes.len() as f64, "count");
    let host = slowdown(&pass_refs, &quiet_passes);
    doc_metrics(&mut out, &quiet_passes, host, &deliver, &deliver);
    out.set_opt("deliver_p50_wall_us", wall.percentile(0.5), "us");
    out.set_opt("deliver_p90_wall_us", wall.percentile(0.9), "us");
    out.set_opt("deliver_p99_wall_us", wall.percentile(0.99), "us");

    let (count_snap, count_codec, count_paths) =
        counted.unwrap_or_else(|| (snap1.clone(), codec, paths_sent));
    let counted_docs = size.count_docs.min(published as usize) as f64;
    let received_pubs: u64 = (0..NODES)
        .map(|k| {
            count_snap[k].stats.received_of(MessageKind::Publish)
                - snap0[k].stats.received_of(MessageKind::Publish)
        })
        .sum();
    let broker_pubs = received_pubs.saturating_sub(count_paths);
    out.set(
        "broker_msgs_per_doc",
        ratio(broker_pubs as f64, counted_docs),
        "count",
    );
    let wire_bytes = count_codec.encoded_bytes + broker_pubs * SEQ_HEADER_BYTES as u64;
    out.set(
        "wire_bytes_per_doc",
        ratio(wire_bytes as f64, counted_docs),
        "bytes",
    );
    let delta = |k: usize, f: &dyn Fn(&NodeSnapshot) -> u64| f(&snap1[k]) - f(&snap0[k]);

    let mut route_per_doc_us = 0.0;
    for k in 0..NODES {
        let r0 = HistMark::of(&snap0[k].stats.pub_routing);
        let r1 = HistMark::of(&snap1[k].stats.pub_routing);
        out.set(
            &format!("broker.route_us_per_path.b{k}"),
            r1.us_since(&r0),
            "us",
        );
        route_per_doc_us += ratio((r1.ns - r0.ns) as f64 / 1e3, published as f64);
        out.set(
            &format!("broker.sub_us.b{k}"),
            HistMark::of(&snap1[k].stats.sub_processing).us_since(&HistMark::default()),
            "us",
        );
        out.set(
            &format!("core.prt_size.b{k}"),
            snap1[k].prt_size as f64,
            "count",
        );
    }
    let srt: usize = snap1.iter().map(|s| s.srt_size).sum();
    out.set("core.srt_size", ratio(srt as f64, NODES as f64), "count");
    let acks: u64 = (0..NODES)
        .map(|k| delta(k, &|s| s.stats.received_of(MessageKind::Ack)))
        .sum();
    out.set(
        "reliable.acks_per_doc",
        ratio(acks as f64, published as f64),
        "count",
    );
    let dup: u64 = snap1.iter().map(|s| s.stats.dup_frames).sum();
    let retx: u64 = snap1.iter().map(|s| s.stats.retransmits).sum();
    out.set("reliable.dup_frames", dup as f64, "count");
    out.set("reliable.retransmits", retx as f64, "count");
    let sent: u64 = (0..NODES).map(|k| delta(k, &|s| s.stats.sent)).sum();
    wire_layers(&mut out, &codec, sent);
    let dropped: f64 = scrapes
        .iter()
        .map(|t| scrape(t, "xdn_peer_queue_dropped_total"))
        .sum();
    out.set("tcp.queue_dropped", dropped, "count");
    if let Some(t) = scrapes.first() {
        let misses = scrape(t, "xdn_frame_pool_misses_total");
        let hits = scrape(t, "xdn_frame_pool_hits_total");
        out.set("tcp.pool_miss_ratio", ratio(misses, hits + misses), "ratio");
    }

    out.set("path.route_us_per_doc", route_per_doc_us, "us");
    out.set(
        "path.nonroute_us_per_doc",
        deliver.mean() - route_per_doc_us,
        "us",
    );
    if let Some(p50) = wall.percentile(0.5) {
        out.set("tcp.transport_us_per_doc", p50 - route_per_doc_us, "us");
    }
    out.set(
        "xml.extract_us_per_doc",
        tracer.total(&["extract"], None).us_per_unit(),
        "us",
    );
    out.set(
        "tcp.send_us_per_frame",
        tracer.total(&["send"], None).us_per_unit(),
        "us",
    );
    out.set(
        "gen.offered_docs_per_s",
        ratio(published as f64, wall_s),
        "1/s",
    );
    let overhead = if run.trace {
        ratio(traced_cpu.mean(), deliver.mean()) - 1.0
    } else {
        0.0
    };
    out.set("drive.trace_overhead_share", overhead, "ratio");
    if run.trace {
        out.trace = Some(tracer);
    }

    Overlay {
        nodes,
        publisher,
        subscriber,
    }
    .shutdown();
    // `sub_ops_per_cpu_s` is the set-ups' subscriptions, sent back to
    // back.
    setups.report(&mut out);

    out.attempted = published + subs.len() as u64;
    out.failed = failed;
    out.set("delivery_mismatches", out.mismatches as f64, "count");
    out.set(
        "failed_ratio",
        ratio(failed as f64, published as f64),
        "ratio",
    );
    out
}
