//! The discrete-event overlay simulator.
//!
//! Brokers execute their real routing code; the simulator only replaces
//! the wire. Each emitted message is scheduled at
//! `now + processing + link delay`, where `processing` is the
//! [`ProcessingModel`]'s virtual compute time for the triggering
//! message. The default model charges a cost proportional to the
//! broker's effective routing-table size, so routing-table compaction
//! genuinely shortens simulated notification delays, as it does on the
//! paper's testbed, while runs stay deterministic.

use crate::latency::LatencyModel;
use crate::metrics::NetMetrics;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Duration;
use xdn_broker::{Broker, BrokerId, ClientId, Dest, Message, Outbound, Publication, RoutingConfig};
use xdn_core::adv::Advertisement;
use xdn_core::rtable::{AdvId, SubId};
use xdn_xml::paths::{dedup_paths, extract_paths};
use xdn_xml::{DocId, Document};
use xdn_xpath::Xpe;

/// Grace period between a repair and the replay of parked events. It
/// exceeds the sync round-trip, so the recovered routing state is in
/// place before buffered publications arrive.
const RECOVERY_FLUSH_DELAY: Duration = Duration::from_millis(5);

/// Fixed per-frame handling cost of [`ProcessingModel::Modeled`].
const MODELED_BASE: Duration = Duration::from_micros(20);

/// Marginal matching cost per effective routing-table entry of
/// [`ProcessingModel::Modeled`].
const MODELED_PER_ENTRY: Duration = Duration::from_nanos(50);

/// How much virtual time broker compute adds to the simulated clock.
/// Both models are deterministic: wall-clock time never enters the
/// simulation, so identical runs report identical delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessingModel {
    /// Links only (used by traffic-count tests).
    Zero,
    /// Analytic compute time in the paper's ballpark: each handled
    /// frame charges 20 µs plus 50 ns per entry of the handling
    /// broker's effective routing table. The delay experiments
    /// (Figures 10/11, Tables 2/3) run on it: covering compacts the
    /// effective table, so per-hop cost genuinely drops. The default.
    Modeled,
}

#[derive(Debug)]
struct Event {
    to: Dest,
    from: Dest,
    msg: Message,
    hops: u32,
}

/// Why an in-flight message could not be delivered (fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultReason {
    /// The destination broker is crashed.
    Crash(BrokerId),
    /// The link between the two brokers is severed.
    Link(BrokerId, BrokerId),
}

/// An undeliverable event held until its fault is repaired — the
/// simulator's analogue of a supervisor's bounded outbound queue.
#[derive(Debug)]
struct Parked {
    event: Event,
    reason: FaultReason,
}

fn link_key(a: BrokerId, b: BrokerId) -> (BrokerId, BrokerId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The simulated overlay network.
pub struct Network {
    brokers: BTreeMap<BrokerId, Broker>,
    client_home: HashMap<ClientId, BrokerId>,
    latency: Box<dyn LatencyModel>,
    queue: BinaryHeap<Reverse<(Duration, u64)>>,
    events: HashMap<u64, Event>,
    now: Duration,
    seq: u64,
    next_client: u64,
    next_adv: u64,
    next_sub: u64,
    next_doc: u64,
    metrics: NetMetrics,
    processing: ProcessingModel,
    /// Safety valve against routing loops.
    max_events: u64,
    /// Crashed brokers (fault injection).
    down: std::collections::BTreeSet<BrokerId>,
    /// Severed links, keyed by the normalized broker pair.
    dropped_links: std::collections::BTreeSet<(BrokerId, BrokerId)>,
    /// Undeliverable events awaiting repair, oldest first.
    parked: std::collections::VecDeque<Parked>,
    /// Capacity of [`Network::parked`]; overflow evicts publications
    /// before control messages.
    park_capacity: usize,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("brokers", &self.brokers.len())
            .field("clients", &self.client_home.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Creates an empty network with the given latency model.
    pub fn new(latency: impl LatencyModel + 'static) -> Self {
        Network {
            brokers: BTreeMap::new(),
            client_home: HashMap::new(),
            latency: Box::new(latency),
            queue: BinaryHeap::new(),
            events: HashMap::new(),
            now: Duration::ZERO,
            seq: 0,
            next_client: 0,
            next_adv: 0,
            next_sub: 0,
            next_doc: 0,
            metrics: NetMetrics::default(),
            processing: ProcessingModel::Modeled,
            max_events: 100_000_000,
            down: std::collections::BTreeSet::new(),
            dropped_links: std::collections::BTreeSet::new(),
            parked: std::collections::VecDeque::new(),
            park_capacity: 4096,
        }
    }

    /// Enables per-path delivery recording
    /// ([`NetMetrics::delivered_paths`]), the input to subscriber-side
    /// document reassembly. Off by default: large experiments would
    /// accumulate every delivered path.
    pub fn set_record_deliveries(&mut self, on: bool) {
        self.metrics.record_paths = on;
    }

    /// Installs a structured trace sink on every broker currently in
    /// the network (see [`xdn_obs::trace`] for the event vocabulary).
    /// Brokers added afterwards are untraced.
    pub fn set_tracer(&mut self, tracer: std::sync::Arc<dyn xdn_obs::Tracer>) {
        for broker in self.brokers.values_mut() {
            broker.set_tracer(std::sync::Arc::clone(&tracer));
        }
    }

    /// Selects whether broker compute time advances the clock.
    pub fn set_processing_model(&mut self, p: ProcessingModel) {
        self.processing = p;
    }

    /// Adds a broker with the given routing strategy.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present.
    pub fn add_broker(&mut self, id: BrokerId, config: RoutingConfig) {
        let prev = self.brokers.insert(id, Broker::new(id, config));
        assert!(prev.is_none(), "duplicate broker {id}");
    }

    /// Connects two brokers bidirectionally.
    ///
    /// # Panics
    ///
    /// Panics if either broker does not exist.
    pub fn connect(&mut self, a: BrokerId, b: BrokerId) {
        self.brokers
            .get_mut(&a)
            .expect("unknown broker")
            .add_neighbor(b);
        self.brokers
            .get_mut(&b)
            .expect("unknown broker")
            .add_neighbor(a);
    }

    /// Attaches a fresh client to `home` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the broker does not exist.
    pub fn attach_client(&mut self, home: BrokerId) -> ClientId {
        assert!(self.brokers.contains_key(&home), "unknown broker {home}");
        self.next_client += 1;
        let id = ClientId(self.next_client);
        self.client_home.insert(id, home);
        id
    }

    /// Ids of all brokers, ascending.
    pub fn broker_ids(&self) -> Vec<BrokerId> {
        self.brokers.keys().copied().collect()
    }

    /// A broker by id.
    ///
    /// # Panics
    ///
    /// Panics if absent.
    pub fn broker(&self, id: BrokerId) -> &Broker {
        &self.brokers[&id]
    }

    /// Mutable broker access (e.g. to install a merging universe).
    ///
    /// # Panics
    ///
    /// Panics if absent.
    pub fn broker_mut(&mut self, id: BrokerId) -> &mut Broker {
        self.brokers.get_mut(&id).expect("unknown broker")
    }

    /// Iterates over all brokers.
    pub fn brokers(&self) -> impl Iterator<Item = &Broker> {
        self.brokers.values()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Mutable metrics (e.g. [`NetMetrics::reset`] between phases).
    pub fn metrics_mut(&mut self) -> &mut NetMetrics {
        &mut self.metrics
    }

    /// Current simulated time.
    pub fn now(&self) -> Duration {
        self.now
    }

    /// Sum of effective routing-table sizes across brokers.
    pub fn total_effective_rts(&self) -> usize {
        self.brokers.values().map(Broker::prt_effective_size).sum()
    }

    /// Caps the number of undeliverable events held across a fault.
    /// On overflow, parked publications are evicted before control
    /// messages (mirroring the TCP supervisor's queue policy).
    pub fn set_park_capacity(&mut self, capacity: usize) {
        self.park_capacity = capacity;
    }

    /// Crashes a broker: its routing state is lost and every message
    /// addressed to it is parked (up to the park capacity) until
    /// [`Network::restart_broker`].
    ///
    /// # Panics
    ///
    /// Panics if the broker does not exist or is already down.
    pub fn crash_broker(&mut self, id: BrokerId) {
        assert!(self.brokers.contains_key(&id), "unknown broker {id}");
        assert!(self.down.insert(id), "broker {id} is already down");
    }

    /// Restarts a crashed broker with *empty* routing tables, re-runs
    /// the connection handshake with every reachable neighbour (a
    /// bidirectional [`Message::SyncRequest`] exchange, exactly what
    /// the TCP supervisor sends on reconnect), and schedules the
    /// messages parked during the outage for redelivery after the
    /// recovery grace period.
    ///
    /// Reliability state (epoch, retransmit buffers, dedup windows) is
    /// carried into the fresh broker — the simulator models a durable
    /// transport log, so replays keep their original `(epoch, seq)`
    /// identity and in-flight frames from the old incarnation are
    /// neither re-processed nor falsely dropped. Routing state is NOT
    /// carried; the sync exchange rebuilds it.
    ///
    /// # Panics
    ///
    /// Panics if the broker is not down.
    pub fn restart_broker(&mut self, id: BrokerId) {
        assert!(self.down.remove(&id), "broker {id} is not down");
        let old = self.brokers.get_mut(&id).expect("unknown broker");
        let config = old.config();
        let neighbors: Vec<BrokerId> = old.neighbors().to_vec();
        let reliability = old.take_reliability_state();
        let mut fresh = Broker::new(id, config);
        for &n in &neighbors {
            fresh.add_neighbor(n);
        }
        fresh.restore_reliability_state(reliability);
        self.brokers.insert(id, fresh);
        for n in neighbors {
            if !self.down.contains(&n) && !self.dropped_links.contains(&link_key(id, n)) {
                // `schedule_sync_pair` also arms the warm-up gate on
                // both ends, so the fresh broker defers payload until
                // each reachable neighbour's SyncState rebuilds its
                // routing tables.
                self.schedule_sync_pair(id, n);
            } else if let Some(broker) = self.brokers.get_mut(&id) {
                // The neighbour is crashed or cut off: its routing
                // contribution cannot be recovered yet, so the fresh
                // broker must keep deferring payload — otherwise it
                // acks frames it has no route for. The repair's own
                // sync pair delivers the awaited snapshot later.
                broker.expect_sync_from(n);
            }
        }
        self.flush_parked(FaultReason::Crash(id));
    }

    /// Severs the link between two brokers: messages crossing it are
    /// parked (up to the park capacity) until [`Network::restore_link`].
    ///
    /// # Panics
    ///
    /// Panics if the link is already dropped.
    pub fn drop_link(&mut self, a: BrokerId, b: BrokerId) {
        assert!(
            self.dropped_links.insert(link_key(a, b)),
            "link {a}-{b} is already dropped"
        );
    }

    /// Restores a severed link: both ends re-run the connection
    /// handshake and parked traffic is replayed after the recovery
    /// grace period.
    ///
    /// # Panics
    ///
    /// Panics if the link is not dropped.
    pub fn restore_link(&mut self, a: BrokerId, b: BrokerId) {
        assert!(
            self.dropped_links.remove(&link_key(a, b)),
            "link {a}-{b} is not dropped"
        );
        if !self.down.contains(&a) && !self.down.contains(&b) {
            self.schedule_sync_pair(a, b);
        }
        let (a, b) = link_key(a, b);
        self.flush_parked(FaultReason::Link(a, b));
    }

    /// True while the broker is crashed.
    pub fn is_down(&self, id: BrokerId) -> bool {
        self.down.contains(&id)
    }

    /// Number of events currently parked behind faults.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    fn schedule_sync_pair(&mut self, a: BrokerId, b: BrokerId) {
        for (src, dst) in [(a, b), (b, a)] {
            // Whoever sends a SyncRequest must not route payload until
            // the answering SyncState arrives (the warm-up gate): a
            // cold broker would otherwise ack publications it cannot
            // route yet. Arming here — not only at restart — also
            // covers a link restored *after* its endpoint restarted,
            // where the restart-time sync could not reach this peer.
            if let Some(broker) = self.brokers.get_mut(&src) {
                broker.expect_sync_from(dst);
            }
            let delay = self
                .latency
                .link_delay(src, dst, Message::SyncRequest.wire_bytes());
            self.schedule(
                self.now + delay,
                Event {
                    to: Dest::Broker(dst),
                    from: Dest::Broker(src),
                    msg: Message::SyncRequest,
                    hops: 0,
                },
            );
        }
    }

    fn flush_parked(&mut self, reason: FaultReason) {
        let at = self.now + RECOVERY_FLUSH_DELAY;
        let mut rest = std::collections::VecDeque::new();
        while let Some(p) = self.parked.pop_front() {
            if p.reason == reason {
                self.schedule(at, p.event);
            } else {
                rest.push_back(p);
            }
        }
        self.parked = rest;
    }

    fn count_fault_drop(&mut self, reason: FaultReason) {
        match reason {
            FaultReason::Crash(_) => self.metrics.dropped_crash += 1,
            FaultReason::Link(..) => self.metrics.dropped_link += 1,
        }
    }

    fn park(&mut self, event: Event, reason: FaultReason) {
        if self.parked.len() >= self.park_capacity {
            // Shed policy looks through reliability framing: a
            // sequenced publication is still a publication.
            if let Some(pos) = self
                .parked
                .iter()
                .position(|p| matches!(p.event.msg.payload(), Message::Publish(_)))
            {
                // Shed the oldest buffered publication first: control
                // messages are routing state and must survive. A shed
                // *sequenced* frame is not lost — its sender still
                // holds it and replays on the post-repair sync.
                let victim = self.parked.remove(pos).expect("position in bounds");
                self.count_fault_drop(victim.reason);
                self.count_frame_shed(&victim.event);
            } else if matches!(event.msg.payload(), Message::Publish(_)) {
                // Only control traffic is buffered; the arriving
                // publication gives way.
                self.count_fault_drop(reason);
                self.count_frame_shed(&event);
                return;
            } else {
                let victim = self.parked.pop_front().expect("queue is full");
                self.count_fault_drop(victim.reason);
                self.count_frame_shed(&victim.event);
            }
        }
        self.parked.push_back(Parked { event, reason });
    }

    /// Reports a shed frame to the per-peer counters so the loss shows
    /// up in metrics rather than only in the opaque drop totals.
    fn count_frame_shed(&mut self, event: &Event) {
        if let Dest::Broker(b) = event.to {
            self.metrics.on_frame_shed(b, event.msg.kind());
        }
    }

    /// The fault blocking delivery of `event`, if any.
    fn fault_for(&self, event: &Event) -> Option<FaultReason> {
        let Dest::Broker(to) = event.to else {
            return None;
        };
        if self.down.contains(&to) {
            return Some(FaultReason::Crash(to));
        }
        if let Dest::Broker(from) = event.from {
            let key = link_key(from, to);
            if self.dropped_links.contains(&key) {
                return Some(FaultReason::Link(key.0, key.1));
            }
        }
        None
    }

    fn home_of(&self, client: ClientId) -> BrokerId {
        *self.client_home.get(&client).expect("unknown client")
    }

    fn schedule(&mut self, at: Duration, event: Event) {
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq)));
        self.events.insert(self.seq, event);
    }

    fn inject_from_client(&mut self, client: ClientId, msg: Message) {
        let home = self.home_of(client);
        let delay = self.latency.client_delay(home, msg.wire_bytes());
        self.schedule(
            self.now + delay,
            Event {
                to: Dest::Broker(home),
                from: Dest::Client(client),
                msg,
                hops: 0,
            },
        );
    }

    /// A producer announces an advertisement; returns its id.
    pub fn advertise(&mut self, client: ClientId, adv: Advertisement) -> AdvId {
        self.next_adv += 1;
        let id = AdvId(self.next_adv);
        self.inject_from_client(client, Message::Advertise { id, adv });
        id
    }

    /// Re-announces an advertisement under an existing id — what a
    /// producer does after its broker restarted with empty tables.
    /// Installation is idempotent for brokers that still know the id.
    pub fn advertise_as(&mut self, client: ClientId, id: AdvId, adv: Advertisement) {
        self.inject_from_client(client, Message::Advertise { id, adv });
    }

    /// A producer announces a whole advertisement set (one DTD).
    pub fn advertise_all(&mut self, client: ClientId, advs: Vec<Advertisement>) -> Vec<AdvId> {
        advs.into_iter()
            .map(|a| self.advertise(client, a))
            .collect()
    }

    /// A consumer registers an XPE; returns the subscription id.
    pub fn subscribe(&mut self, client: ClientId, xpe: Xpe) -> SubId {
        self.next_sub += 1;
        let id = SubId(self.next_sub);
        self.inject_from_client(client, Message::Subscribe { id, xpe });
        id
    }

    /// A consumer retracts a subscription.
    pub fn unsubscribe(&mut self, client: ClientId, id: SubId) {
        self.inject_from_client(client, Message::Unsubscribe { id });
    }

    /// A producer publishes a document: it is decomposed into distinct
    /// root-to-leaf paths (§3.1) which are routed independently.
    /// Returns the document id.
    pub fn publish_document(&mut self, client: ClientId, doc: &Document) -> DocId {
        self.next_doc += 1;
        let doc_id = DocId(self.next_doc);
        let bytes = doc.to_xml_string().len();
        let paths = dedup_paths(extract_paths(doc, doc_id));
        self.metrics.on_publish_injected(doc_id, self.now);
        for p in paths {
            let publication = Publication::from_doc_path(&p, bytes);
            self.inject_from_client(client, Message::Publish(publication));
        }
        doc_id
    }

    /// Publishes a single pre-extracted path (path-level experiments).
    pub fn publish_path(
        &mut self,
        client: ClientId,
        elements: Vec<String>,
        doc_bytes: usize,
    ) -> DocId {
        self.next_doc += 1;
        let doc_id = DocId(self.next_doc);
        self.metrics.on_publish_injected(doc_id, self.now);
        let publication = Publication {
            doc_id,
            path_id: xdn_xml::PathId(0),
            elements,
            attributes: Vec::new(),
            doc_bytes,
        };
        self.inject_from_client(client, Message::Publish(publication));
        doc_id
    }

    /// Runs every broker's merging pass (§4.3) and schedules the
    /// resulting control traffic. Call between the subscription phase
    /// and the publish phase, as the paper applies merging
    /// "periodically".
    pub fn apply_merging(&mut self) {
        let ids: Vec<BrokerId> = self.brokers.keys().copied().collect();
        for id in ids {
            let outputs = self
                .brokers
                .get_mut(&id)
                .expect("known")
                .apply_merging_frames();
            self.dispatch_outputs(id, outputs, 0);
        }
    }

    /// Schedules each of a broker's outputs to arrive after its modeled
    /// link delay. Frame bodies are never serialised: only the modeled
    /// `wire_bytes()` feeds the latency model, so the lazily encoded
    /// [`xdn_broker::FrameBuf`] costs the simulator nothing.
    fn dispatch_outputs(&mut self, from: BrokerId, outputs: Vec<Outbound>, hops: u32) {
        for out in outputs {
            let bytes = out.frame.wire_bytes();
            let delay = match out.dest {
                Dest::Broker(b) => self.latency.link_delay(from, b, bytes),
                Dest::Client(_) => self.latency.client_delay(from, bytes),
            };
            self.schedule(
                self.now + delay,
                Event {
                    to: out.dest,
                    from: Dest::Broker(from),
                    msg: out.frame.into_message(),
                    hops: hops + 1,
                },
            );
        }
    }

    /// Drains the event queue. Returns the number of events processed.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded (a routing loop).
    pub fn run(&mut self) -> u64 {
        let mut processed = 0u64;
        while let Some(Reverse((at, seq))) = self.queue.pop() {
            processed += 1;
            assert!(
                processed <= self.max_events,
                "event cap exceeded: routing loop?"
            );
            self.now = self.now.max(at);
            let event = self.events.remove(&seq).expect("event payload");
            if let Some(reason) = self.fault_for(&event) {
                self.park(event, reason);
                continue;
            }
            match event.to {
                Dest::Broker(b) => {
                    self.metrics.on_broker_message(event.msg.kind());
                    let broker = self
                        .brokers
                        .get_mut(&b)
                        .expect("unknown broker destination");
                    let outputs = broker.handle_frames(event.from, event.msg);
                    if self.processing == ProcessingModel::Modeled {
                        let entries =
                            u32::try_from(broker.prt_effective_size()).unwrap_or(u32::MAX);
                        self.now += MODELED_BASE + MODELED_PER_ENTRY * entries;
                    }
                    self.dispatch_outputs(b, outputs, event.hops);
                }
                Dest::Client(c) => {
                    self.metrics.on_client_message();
                    if let Message::Publish(p) = &event.msg {
                        self.metrics.on_delivery(c, p, self.now, event.hops);
                    }
                }
            }
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ClusterLan;
    use xdn_broker::MessageKind;
    use xdn_core::adv::AdvPath;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn adv(names: &[&str]) -> Advertisement {
        Advertisement::non_recursive(AdvPath::from_names(names))
    }

    fn two_broker_net(config: RoutingConfig) -> (Network, ClientId, ClientId) {
        let mut net = Network::new(ClusterLan::default());
        net.add_broker(BrokerId(0), config);
        net.add_broker(BrokerId(1), config);
        net.connect(BrokerId(0), BrokerId(1));
        let publisher = net.attach_client(BrokerId(0));
        let subscriber = net.attach_client(BrokerId(1));
        (net, publisher, subscriber)
    }

    #[test]
    fn end_to_end_delivery() {
        let (mut net, publisher, subscriber) = two_broker_net(RoutingConfig::WithAdvWithCov);
        net.advertise(publisher, adv(&["a", "b"]));
        net.run();
        net.subscribe(subscriber, xpe("/a/*"));
        net.run();
        let doc = xdn_xml::parse_document("<a><b/></a>").unwrap();
        net.publish_document(publisher, &doc);
        net.run();
        assert_eq!(net.metrics().notifications.len(), 1);
        let n = &net.metrics().notifications[0];
        assert_eq!(n.client, subscriber);
        assert!(n.delay > Duration::ZERO);
        assert_eq!(n.hops, 2, "two broker hops");
    }

    #[test]
    fn non_matching_publication_not_delivered() {
        let (mut net, publisher, subscriber) = two_broker_net(RoutingConfig::WithAdvWithCov);
        net.advertise(publisher, adv(&["a", "b"]));
        net.subscribe(subscriber, xpe("/x"));
        net.run();
        let doc = xdn_xml::parse_document("<a><b/></a>").unwrap();
        net.publish_document(publisher, &doc);
        net.run();
        assert!(net.metrics().notifications.is_empty());
    }

    #[test]
    fn duplicate_paths_single_notification() {
        let (mut net, publisher, subscriber) = two_broker_net(RoutingConfig::WithAdvWithCov);
        net.advertise(publisher, adv(&["a", "b"]));
        net.advertise(publisher, adv(&["a", "c"]));
        net.subscribe(subscriber, xpe("/a"));
        net.run();
        // Two matching paths, one document -> one notification.
        let doc = xdn_xml::parse_document("<a><b/><c/></a>").unwrap();
        net.publish_document(publisher, &doc);
        net.run();
        assert_eq!(net.metrics().notifications.len(), 1);
        assert_eq!(net.metrics().client_messages, 2, "both paths arrive");
    }

    #[test]
    fn advertisement_scoping_reduces_subscription_traffic() {
        // Without advertisements the subscription floods the chain;
        // with them it is not forwarded past brokers with no
        // overlapping advertisement.
        let run = |config: RoutingConfig, advertise: bool| {
            let mut net = Network::new(ClusterLan::default());
            net.set_processing_model(ProcessingModel::Zero);
            for i in 0..4 {
                net.add_broker(BrokerId(i), config);
            }
            for i in 0..3 {
                net.connect(BrokerId(i), BrokerId(i + 1));
            }
            let publisher = net.attach_client(BrokerId(0));
            let subscriber = net.attach_client(BrokerId(3));
            if advertise {
                net.advertise(publisher, adv(&["a", "b"]));
                net.run();
                net.metrics_mut().reset();
            }
            net.subscribe(subscriber, xpe("/zzz"));
            net.run();
            net.metrics().traffic_of(MessageKind::Subscribe)
        };
        let flooded = run(RoutingConfig::NoAdvNoCov, false);
        let scoped = run(RoutingConfig::WithAdvWithCov, true);
        assert_eq!(flooded, 4, "flooding reaches every broker");
        assert_eq!(scoped, 1, "no overlap -> dropped at the edge broker");
    }

    #[test]
    fn covering_reduces_forwarded_subscriptions() {
        let run = |config: RoutingConfig| {
            let (mut net, _p, subscriber) = two_broker_net(config);
            net.set_processing_model(ProcessingModel::Zero);
            net.subscribe(subscriber, xpe("/a/*"));
            net.subscribe(subscriber, xpe("/a/b"));
            net.subscribe(subscriber, xpe("/a/c"));
            net.run();
            net.metrics().traffic_of(MessageKind::Subscribe)
        };
        // Flooding: every subscription crosses to broker 0 (3 at B1 + 3 at B0).
        assert_eq!(run(RoutingConfig::NoAdvNoCov), 6);
        // Covering: /a/b and /a/c stop at the edge broker.
        assert_eq!(run(RoutingConfig::NoAdvWithCov), 4);
    }

    #[test]
    fn run_returns_event_count_and_clock_advances() {
        let (mut net, publisher, _s) = two_broker_net(RoutingConfig::NoAdvNoCov);
        let before = net.now();
        net.publish_path(publisher, vec!["a".into()], 100);
        let events = net.run();
        assert!(events >= 1);
        assert!(net.now() > before);
    }

    #[test]
    #[should_panic(expected = "duplicate broker")]
    fn duplicate_broker_panics() {
        let mut net = Network::new(ClusterLan::default());
        net.add_broker(BrokerId(0), RoutingConfig::NoAdvNoCov);
        net.add_broker(BrokerId(0), RoutingConfig::NoAdvNoCov);
    }

    #[test]
    #[should_panic(expected = "unknown broker")]
    fn attach_to_missing_broker_panics() {
        let mut net = Network::new(ClusterLan::default());
        net.attach_client(BrokerId(9));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::latency::ClusterLan;
    use xdn_broker::MessageKind;
    use xdn_core::adv::AdvPath;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn adv(names: &[&str]) -> Advertisement {
        Advertisement::non_recursive(AdvPath::from_names(names))
    }

    fn two_broker_net() -> (Network, ClientId, ClientId) {
        let mut net = Network::new(ClusterLan::default());
        net.set_processing_model(ProcessingModel::Zero);
        net.add_broker(BrokerId(0), RoutingConfig::WithAdvWithCov);
        net.add_broker(BrokerId(1), RoutingConfig::WithAdvWithCov);
        net.connect(BrokerId(0), BrokerId(1));
        let publisher = net.attach_client(BrokerId(0));
        let subscriber = net.attach_client(BrokerId(1));
        (net, publisher, subscriber)
    }

    fn three_broker_chain() -> (Network, ClientId, ClientId) {
        let mut net = Network::new(ClusterLan::default());
        net.set_processing_model(ProcessingModel::Zero);
        for i in 0..3 {
            net.add_broker(BrokerId(i), RoutingConfig::WithAdvWithCov);
        }
        net.connect(BrokerId(0), BrokerId(1));
        net.connect(BrokerId(1), BrokerId(2));
        let publisher = net.attach_client(BrokerId(0));
        let subscriber = net.attach_client(BrokerId(2));
        (net, publisher, subscriber)
    }

    #[test]
    fn crash_parks_traffic_and_restart_delivers_it() {
        let (mut net, publisher, subscriber) = three_broker_chain();
        net.advertise(publisher, adv(&["a", "b"]));
        net.run();
        net.subscribe(subscriber, xpe("/a"));
        net.run();

        net.crash_broker(BrokerId(1));
        assert!(net.is_down(BrokerId(1)));
        net.publish_path(publisher, vec!["a".into(), "b".into()], 100);
        net.run();
        assert!(
            net.metrics().notifications.is_empty(),
            "the middle broker is down"
        );
        assert!(net.parked_len() > 0, "the publication is parked, not lost");

        // The restarted broker recovers its SRT from B0's sync answer
        // and its PRT from B2's, then the parked publication flows.
        net.restart_broker(BrokerId(1));
        net.run();
        assert_eq!(
            net.metrics().notifications.len(),
            1,
            "delivered after recovery"
        );
        assert_eq!(net.parked_len(), 0);
        assert_eq!(net.metrics().dropped_crash, 0);
    }

    #[test]
    fn restart_resyncs_routing_state() {
        let (mut net, publisher, subscriber) = three_broker_chain();
        net.advertise(publisher, adv(&["a", "b"]));
        net.run();
        net.subscribe(subscriber, xpe("/a"));
        net.run();
        let before = net.broker(BrokerId(1)).routing_signature();
        assert!(!before.is_empty());

        net.crash_broker(BrokerId(1));
        net.restart_broker(BrokerId(1));
        net.run();
        assert_eq!(
            net.broker(BrokerId(1)).routing_signature(),
            before,
            "neighbour sync rebuilds the exact routing state"
        );

        // And traffic flows again end to end.
        net.publish_path(publisher, vec!["a".into(), "b".into()], 100);
        net.run();
        assert_eq!(net.metrics().notifications.len(), 1);
    }

    #[test]
    fn edge_broker_recovery_needs_its_clients_back() {
        // State contributed by locally attached clients is not covered
        // by neighbour sync — the client re-announces under its
        // original id, and the network converges to the same tables.
        let (mut net, publisher, subscriber) = two_broker_net();
        let adv_id = net.advertise(publisher, adv(&["a", "b"]));
        net.run();
        net.subscribe(subscriber, xpe("/a"));
        net.run();
        let before = net.broker(BrokerId(0)).routing_signature();

        net.crash_broker(BrokerId(0));
        net.restart_broker(BrokerId(0));
        net.run();
        net.advertise_as(publisher, adv_id, adv(&["a", "b"]));
        net.run();
        assert_eq!(net.broker(BrokerId(0)).routing_signature(), before);

        net.publish_path(publisher, vec!["a".into(), "b".into()], 100);
        net.run();
        assert_eq!(net.metrics().notifications.len(), 1);
    }

    #[test]
    fn park_overflow_sheds_publications_before_control() {
        let (mut net, publisher, subscriber) = two_broker_net();
        net.set_park_capacity(2);
        net.advertise(publisher, adv(&["a", "b"]));
        net.subscribe(subscriber, xpe("/a"));
        net.run();

        net.crash_broker(BrokerId(1));
        for _ in 0..3 {
            net.publish_path(publisher, vec!["a".into(), "b".into()], 100);
        }
        // A control message arriving at a full queue of publications
        // must displace one.
        net.subscribe(subscriber, xpe("/a/b"));
        net.run();
        assert_eq!(net.parked_len(), 2);
        assert_eq!(net.metrics().dropped_crash, 2, "two publications shed");
        let kinds: Vec<MessageKind> = net.parked.iter().map(|p| p.event.msg.kind()).collect();
        assert!(
            kinds.contains(&MessageKind::Subscribe),
            "control traffic survived: {kinds:?}"
        );
    }

    #[test]
    fn dropped_link_parks_and_restore_replays() {
        let (mut net, publisher, subscriber) = two_broker_net();
        net.advertise(publisher, adv(&["a", "b"]));
        net.subscribe(subscriber, xpe("/a"));
        net.run();

        net.drop_link(BrokerId(0), BrokerId(1));
        net.publish_path(publisher, vec!["a".into(), "b".into()], 100);
        net.run();
        assert!(net.metrics().notifications.is_empty());
        assert_eq!(net.parked_len(), 1);

        net.restore_link(BrokerId(0), BrokerId(1));
        net.run();
        assert_eq!(net.metrics().notifications.len(), 1);
        assert_eq!(net.metrics().dropped_link, 0);
    }

    #[test]
    #[should_panic(expected = "is not down")]
    fn restart_of_running_broker_panics() {
        let (mut net, _p, _s) = two_broker_net();
        net.restart_broker(BrokerId(0));
    }

    #[test]
    #[should_panic(expected = "already dropped")]
    fn double_drop_panics() {
        let (mut net, _p, _s) = two_broker_net();
        net.drop_link(BrokerId(0), BrokerId(1));
        net.drop_link(BrokerId(1), BrokerId(0));
    }
}

#[cfg(test)]
mod reassembly_tests {
    use super::*;
    use crate::latency::ClusterLan;
    use xdn_core::adv::AdvPath;

    #[test]
    fn subscriber_reassembles_the_published_document() {
        let mut net = Network::new(ClusterLan::default());
        net.set_processing_model(ProcessingModel::Zero);
        net.set_record_deliveries(true);
        net.add_broker(BrokerId(0), RoutingConfig::WithAdvWithCov);
        net.add_broker(BrokerId(1), RoutingConfig::WithAdvWithCov);
        net.connect(BrokerId(0), BrokerId(1));
        let publisher = net.attach_client(BrokerId(0));
        let subscriber = net.attach_client(BrokerId(1));

        net.advertise(
            publisher,
            Advertisement::non_recursive(AdvPath::from_names(&["a", "*", "*"])),
        );
        net.advertise(
            publisher,
            Advertisement::non_recursive(AdvPath::from_names(&["a", "*"])),
        );
        net.subscribe(subscriber, "/a".parse().expect("xpe"));
        net.run();

        let original = xdn_xml::parse_document(r#"<a x="1"><b><c/></b><d/></a>"#).expect("doc");
        net.publish_document(publisher, &original);
        net.run();

        let paths: Vec<xdn_xml::DocPath> = net
            .metrics()
            .delivered_paths
            .iter()
            .filter(|(c, _)| *c == subscriber)
            .map(|(_, p)| p.clone())
            .collect();
        assert_eq!(paths.len(), 2, "both distinct paths delivered");
        let rebuilt = xdn_xml::reassemble::reassemble(&paths).expect("reassemble");
        assert_eq!(rebuilt, original, "subscriber sees the whole document");
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use crate::latency::{ClusterLan, PlanetLabWan};
    use xdn_core::adv::AdvPath;

    fn run_once(latency_seed: u64) -> (u64, Duration) {
        run_once_with(latency_seed, ProcessingModel::Zero)
    }

    fn run_once_with(latency_seed: u64, processing: ProcessingModel) -> (u64, Duration) {
        let mut net = Network::new(PlanetLabWan::with_seed(latency_seed));
        net.set_processing_model(processing);
        net.add_broker(BrokerId(0), RoutingConfig::WithAdvWithCov);
        net.add_broker(BrokerId(1), RoutingConfig::WithAdvWithCov);
        net.connect(BrokerId(0), BrokerId(1));
        let publisher = net.attach_client(BrokerId(0));
        let subscriber = net.attach_client(BrokerId(1));
        net.advertise(
            publisher,
            Advertisement::non_recursive(AdvPath::from_names(&["a", "b"])),
        );
        net.subscribe(subscriber, "/a".parse().expect("xpe"));
        net.run();
        let doc = xdn_xml::parse_document("<a><b/></a>").expect("doc");
        net.publish_document(publisher, &doc);
        net.run();
        (
            net.metrics().network_traffic(),
            net.metrics().mean_notification_delay().unwrap_or_default(),
        )
    }

    #[test]
    fn zero_processing_runs_are_deterministic() {
        let (t1, d1) = run_once(42);
        let (t2, d2) = run_once(42);
        assert_eq!(t1, t2, "traffic must be reproducible");
        assert_eq!(d1, d2, "delays must be reproducible under Zero processing");
    }

    #[test]
    fn modeled_processing_is_deterministic_and_slower_than_zero() {
        let (t1, d1) = run_once_with(42, ProcessingModel::Modeled);
        let (t2, d2) = run_once_with(42, ProcessingModel::Modeled);
        assert_eq!(t1, t2, "traffic must be reproducible");
        assert_eq!(
            d1, d2,
            "delays must be reproducible under Modeled processing"
        );
        let (tz, dz) = run_once_with(42, ProcessingModel::Zero);
        assert_eq!(
            t1, tz,
            "the processing model must not affect message counts"
        );
        assert!(
            d1 > dz,
            "analytic compute time must lengthen delays: {d1:?} vs {dz:?}"
        );
    }

    #[test]
    fn different_latency_seeds_change_delay_not_traffic() {
        let (t1, d1) = run_once(1);
        let (t2, d2) = run_once(2);
        assert_eq!(t1, t2, "the latency model must not affect message counts");
        assert_ne!(d1, d2, "different WAN draws should move the delay");
    }

    #[test]
    fn hop_count_matches_topology_distance() {
        let mut net = Network::new(ClusterLan::default());
        net.set_processing_model(ProcessingModel::Zero);
        for i in 0..5 {
            net.add_broker(BrokerId(i), RoutingConfig::NoAdvNoCov);
        }
        for i in 0..4 {
            net.connect(BrokerId(i), BrokerId(i + 1));
        }
        let publisher = net.attach_client(BrokerId(0));
        let subscriber = net.attach_client(BrokerId(4));
        net.subscribe(subscriber, "/a".parse().expect("xpe"));
        net.run();
        net.publish_path(publisher, vec!["a".into()], 10);
        net.run();
        assert_eq!(net.metrics().notifications.len(), 1);
        assert_eq!(
            net.metrics().notifications[0].hops,
            5,
            "five broker hops on a 5-broker chain"
        );
    }

    #[test]
    fn total_effective_rts_reflects_covering() {
        let mut net = Network::new(ClusterLan::default());
        net.set_processing_model(ProcessingModel::Zero);
        net.add_broker(BrokerId(0), RoutingConfig::NoAdvWithCov);
        let c = net.attach_client(BrokerId(0));
        net.subscribe(c, "/a/*".parse().expect("xpe"));
        net.subscribe(c, "/a/b".parse().expect("xpe"));
        net.subscribe(c, "/a/c".parse().expect("xpe"));
        net.run();
        assert_eq!(net.total_effective_rts(), 1, "one covering root");
        assert_eq!(net.broker(BrokerId(0)).prt_size(), 3);
    }
}
