//! The broker: routing state plus the message-handling state machine.

use crate::message::{BrokerId, Dest, Message, MessageKind};
use crate::reliable::{Admit, DedupWindow, OutboundLink, ReliabilityState};
use crate::stats::BrokerStats;
use crate::wire::{FrameBuf, Outbound};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use xdn_core::automaton::{AutomatonPrt, AutomatonStats};
use xdn_core::rtable::{Prt, PublicationRouter, Srt, SubId};
use xdn_obs::{Stopwatch, TraceEvent, Tracer};
use xdn_xpath::Xpe;

/// A broker's routing strategy: one row of Tables 2/3, in the paper's
/// order. Merging (§4.3) runs on the covering subscription tree, so
/// only covering strategies merge.
///
/// ```
/// use xdn_broker::RoutingConfig;
///
/// let cfg = RoutingConfig::by_name("with-adv-with-cov-ipm").unwrap();
/// assert_eq!(cfg, RoutingConfig::WithAdvWithCovIPM);
/// assert!(cfg.advertisements() && cfg.covering());
/// assert_eq!(cfg.merge_degree(), Some(0.1));
/// assert_eq!(cfg.to_string(), "with-Adv-with-CovIPM");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingConfig {
    /// `no-Adv-no-Cov`: subscriptions flood; every one is matched.
    NoAdvNoCov,
    /// `no-Adv-with-Cov`: subscriptions flood; covered ones are not
    /// forwarded.
    NoAdvWithCov,
    /// `with-Adv-no-Cov`: subscriptions go toward overlapping
    /// advertisements; every one is matched.
    WithAdvNoCov,
    /// `with-Adv-with-Cov`: advertisements and covering.
    WithAdvWithCov,
    /// `with-Adv-with-CovPM`: advertisements, covering and perfect
    /// merging.
    WithAdvWithCovPM,
    /// `with-Adv-with-CovIPM`: advertisements, covering and imperfect
    /// merging up to the paper's degree `D = 0.1`.
    WithAdvWithCovIPM,
}

impl RoutingConfig {
    /// The six strategies in the paper's order, for experiment sweeps.
    pub const ALL: [RoutingConfig; 6] = [
        RoutingConfig::NoAdvNoCov,
        RoutingConfig::NoAdvWithCov,
        RoutingConfig::WithAdvNoCov,
        RoutingConfig::WithAdvWithCov,
        RoutingConfig::WithAdvWithCovPM,
        RoutingConfig::WithAdvWithCovIPM,
    ];

    /// The strategy's name as Tables 2/3 spell it.
    pub fn name(self) -> &'static str {
        match self {
            RoutingConfig::NoAdvNoCov => "no-Adv-no-Cov",
            RoutingConfig::NoAdvWithCov => "no-Adv-with-Cov",
            RoutingConfig::WithAdvNoCov => "with-Adv-no-Cov",
            RoutingConfig::WithAdvWithCov => "with-Adv-with-Cov",
            RoutingConfig::WithAdvWithCovPM => "with-Adv-with-CovPM",
            RoutingConfig::WithAdvWithCovIPM => "with-Adv-with-CovIPM",
        }
    }

    /// Subscriptions are routed toward overlapping advertisements;
    /// without them, they are flooded to every neighbour.
    pub fn advertisements(self) -> bool {
        !matches!(
            self,
            RoutingConfig::NoAdvNoCov | RoutingConfig::NoAdvWithCov
        )
    }

    /// The publication table is the covering subscription tree;
    /// without it, the non-covering shared automaton.
    pub fn covering(self) -> bool {
        !matches!(
            self,
            RoutingConfig::NoAdvNoCov | RoutingConfig::WithAdvNoCov
        )
    }

    /// The largest imperfect-merging degree the merging pass admits
    /// (`0.0`: perfect mergers only), or `None` when the strategy does
    /// not merge.
    pub fn merge_degree(self) -> Option<f64> {
        match self {
            RoutingConfig::WithAdvWithCovPM => Some(0.0),
            RoutingConfig::WithAdvWithCovIPM => Some(0.1),
            _ => None,
        }
    }

    /// Looks a strategy up by its Tables 2/3 name, comparing letters
    /// and digits only and ignoring case, so `with-adv-with-cov-pm`
    /// finds `with-Adv-with-CovPM`.
    pub fn by_name(name: &str) -> Option<RoutingConfig> {
        fn key(s: &str) -> impl Iterator<Item = char> + '_ {
            s.chars()
                .filter(char::is_ascii_alphanumeric)
                .map(|c| c.to_ascii_lowercase())
        }
        Self::ALL
            .into_iter()
            .find(|cfg| key(cfg.name()).eq(key(name)))
    }
}

impl std::fmt::Display for RoutingConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One content-based XML router.
///
/// A broker owns no I/O: [`Broker::handle_frames`] consumes one incoming
/// message and returns the frames to put on the wire, which makes the
/// same implementation drivable by the discrete-event simulator, the
/// TCP transport, unit tests, and benchmarks.
#[derive(Debug)]
pub struct Broker {
    id: BrokerId,
    neighbors: Vec<BrokerId>,
    config: RoutingConfig,
    srt: Srt<Dest>,
    /// The publication routing table behind the strategy-agnostic
    /// [`PublicationRouter`] interface: the covering tree when
    /// [`RoutingConfig::covering`] is set, the shared automaton
    /// otherwise.
    prt: Box<dyn PublicationRouter<Dest> + Send>,
    /// DTD path universe for computing `D_imperfect` (merging).
    universe: Option<Arc<Vec<Vec<String>>>>,
    merger_seq: u64,
    /// The ledger: for each subscription id, every hop its expression
    /// is installed at because this broker sent it there, with the id
    /// it is installed under: its own, or that of a subscription which
    /// shared its expression and left. Retractions and unsubscriptions
    /// remove exactly the hops they retract from, so the entry of an
    /// unsubscribed id is gone. It also deduplicates re-forwarding when
    /// advertisements arrive after subscriptions.
    sent_to: std::collections::HashMap<SubId, BTreeMap<Dest, SubId>>,
    stats: BrokerStats,
    /// Structured trace sink; `None` (the default) costs one branch on
    /// the hot paths and constructs no events.
    tracer: Option<TracerHandle>,
    /// This incarnation's epoch, stamped on every sequenced frame.
    epoch: u64,
    /// Per-neighbour retransmit buffers for frames we sent.
    links: BTreeMap<BrokerId, OutboundLink>,
    /// Per-source dedup windows for sequenced frames we received.
    windows: BTreeMap<Dest, DedupWindow>,
    /// Neighbours whose [`Message::SyncState`] this broker still awaits
    /// after a cold (re)start. While non-empty the broker is *warming
    /// up* and defers payload frames instead of routing them.
    sync_pending: BTreeSet<BrokerId>,
    /// Payload frames deferred during warm-up, in arrival order. They
    /// are *not* acknowledged while held, so a crash loses nothing the
    /// senders cannot replay.
    warmup: VecDeque<(Dest, Message)>,
    /// Neighbours whose [`Message::SyncRequest`] arrived while this
    /// broker was warming up. Answering immediately would hand them a
    /// cold, possibly-empty snapshot they would then treat as complete;
    /// the answer is held until every *other* awaited snapshot has
    /// arrived. In a tree overlay the deferral wave resolves from the
    /// leaves inward and cannot deadlock.
    deferred_sync: BTreeSet<BrokerId>,
}

/// Most payload frames a warming broker will hold before shedding.
/// Shed frames are unacknowledged, so the senders' retransmit buffers
/// replay them after sync — the cap bounds memory, not correctness.
const WARMUP_CAPACITY: usize = 4096;

/// An installed [`Tracer`], opaque to `Debug` (trace sinks carry
/// writers and buffers that have no useful debug form).
struct TracerHandle(Arc<dyn Tracer>);

impl std::fmt::Debug for TracerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TracerHandle(..)")
    }
}

impl std::ops::Deref for TracerHandle {
    type Target = dyn Tracer;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl Broker {
    /// Creates a broker with no neighbours.
    pub fn new(id: BrokerId, config: RoutingConfig) -> Self {
        let prt: Box<dyn PublicationRouter<Dest> + Send> = if config.covering() {
            Box::new(Prt::new())
        } else {
            Box::new(AutomatonPrt::new())
        };
        Broker {
            id,
            neighbors: Vec::new(),
            config,
            srt: Srt::new(),
            prt,
            universe: None,
            merger_seq: 0,
            sent_to: std::collections::HashMap::new(),
            stats: BrokerStats::default(),
            tracer: None,
            epoch: 1,
            links: BTreeMap::new(),
            windows: BTreeMap::new(),
            sync_pending: BTreeSet::new(),
            warmup: VecDeque::new(),
            deferred_sync: BTreeSet::new(),
        }
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// The configured routing strategy.
    pub fn config(&self) -> RoutingConfig {
        self.config
    }

    /// Registers a neighbouring broker.
    pub fn add_neighbor(&mut self, n: BrokerId) {
        if !self.neighbors.contains(&n) {
            self.neighbors.push(n);
        }
    }

    /// The neighbouring brokers.
    pub fn neighbors(&self) -> &[BrokerId] {
        &self.neighbors
    }

    /// Supplies the producer-DTD path universe used to score imperfect
    /// mergers (§4.3 assumes each broker knows the producer's DTD).
    pub fn set_universe(&mut self, universe: Arc<Vec<Vec<String>>>) {
        self.universe = Some(universe);
    }

    /// Performance counters.
    pub fn stats(&self) -> &BrokerStats {
        &self.stats
    }

    /// Installs a structured trace sink (see [`xdn_obs::trace`] for the
    /// event vocabulary). Tracing is off by default.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.tracer = Some(TracerHandle(tracer));
    }

    /// Resets the performance counters.
    pub fn reset_stats(&mut self) {
        self.stats = BrokerStats::default();
    }

    /// Sets this incarnation's epoch and resets the outbound links so
    /// every neighbour sees a fresh sequence space. Call once at node
    /// start, before any traffic; transports that restart with a
    /// higher epoch (e.g. wall-clock-derived) implicitly retire frames
    /// of their previous incarnation.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch.max(1);
        self.links.clear();
    }

    /// The epoch stamped on outgoing sequenced frames.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Detaches the reliability state (epoch, retransmit buffers, dedup
    /// windows) so a transport with durable storage can carry it across
    /// a crash-restart. The broker is left with empty buffers in the
    /// same epoch.
    pub fn take_reliability_state(&mut self) -> ReliabilityState {
        ReliabilityState {
            epoch: self.epoch,
            links: std::mem::take(&mut self.links),
            windows: std::mem::take(&mut self.windows),
        }
    }

    /// Restores reliability state detached by
    /// [`Broker::take_reliability_state`]. Routing state is *not*
    /// restored — that is rebuilt via `SyncRequest`/`SyncState`.
    pub fn restore_reliability_state(&mut self, state: ReliabilityState) {
        self.epoch = state.epoch.max(1);
        self.links = state.links;
        self.windows = state.windows;
    }

    /// Declares that this broker has requested sync from `peer` and
    /// must not route payload until the answering
    /// [`Message::SyncState`] arrives.
    ///
    /// A restarted broker's routing tables are empty until its
    /// neighbours' snapshots land; publications processed before then
    /// would be acknowledged yet silently unroutable — exactly the
    /// window in which at-least-once quietly becomes at-most-once.
    /// Transports call this for every reachable neighbour when they
    /// issue the (re)connect `SyncRequest`; until each one has
    /// answered, [`Broker::handle_frames`] defers payload frames unacked and
    /// replays them through the normal dedup/routing path once the
    /// last snapshot is installed.
    pub fn expect_sync_from(&mut self, peer: BrokerId) {
        self.sync_pending.insert(peer);
    }

    /// True while the broker defers payload awaiting neighbour sync.
    pub fn is_warming(&self) -> bool {
        !self.sync_pending.is_empty()
    }

    /// Total sequenced frames still awaiting acknowledgement across
    /// every neighbour link.
    pub fn unacked_total(&self) -> usize {
        self.links.values().map(OutboundLink::unacked_len).sum()
    }

    /// Number of advertisements in the SRT.
    pub fn srt_size(&self) -> usize {
        self.srt.len()
    }

    /// Number of subscriptions stored in the PRT.
    pub fn prt_size(&self) -> usize {
        self.prt.len()
    }

    /// Effective routing-table size: top-level subscriptions after
    /// covering (equals [`Self::prt_size`] for flat tables).
    pub fn prt_effective_size(&self) -> usize {
        self.prt.effective_size()
    }

    /// Processes one message and returns the [`Outbound`] frames to
    /// transmit. Never returns a frame to `from`.
    ///
    /// This is the reliable entry point: payload frames bound for
    /// neighbouring brokers come back stamped with sequenced headers
    /// and buffered for retransmission, inbound sequenced frames are
    /// deduplicated and acknowledged, [`Message::Ack`]s prune the
    /// retransmit buffers, and a neighbour's [`Message::SyncRequest`]
    /// additionally triggers a replay of every frame it has not
    /// acknowledged. A publication fanned out to `k` next-hops yields
    /// `k` frames sharing one payload `Arc` (and, on the wire, one
    /// encoded body).
    pub fn handle_frames(&mut self, from: Dest, msg: Message) -> Vec<Outbound> {
        if !self.sync_pending.is_empty() && msg.is_payload() {
            // Warming up: routing tables are not rebuilt yet, so
            // defer (without acking) rather than ack-and-misroute.
            if self.warmup.len() < WARMUP_CAPACITY {
                self.warmup.push_back((from, msg));
            } else {
                self.stats.warmup_shed += 1;
            }
            return Vec::new();
        }
        let sync_peer = match (&msg, from.as_broker()) {
            (Message::SyncState { .. }, Some(nb)) => Some(nb),
            _ => None,
        };
        let out = match msg {
            Message::Ack { epoch, seq } => {
                self.stats.record_received(MessageKind::Ack);
                if let Some(nb) = from.as_broker() {
                    if let Some(link) = self.links.get_mut(&nb) {
                        link.on_ack(epoch, seq, &mut self.stats.ack_lag);
                    }
                }
                return Vec::new();
            }
            Message::Sequenced {
                epoch,
                seq,
                low,
                inner,
            } => {
                let admit = self
                    .windows
                    .entry(from)
                    .or_default()
                    .observe(epoch, seq, low);
                match admit {
                    Admit::Stale => {
                        // A dead incarnation's frame; its successor
                        // re-sends anything that still matters.
                        self.stats.stale_frames += 1;
                        return Vec::new();
                    }
                    Admit::Duplicate => {
                        // Already processed: suppress the payload but
                        // re-ack so the sender can prune its buffer.
                        self.stats.dup_frames += 1;
                        let ack = self.ack_for(from, epoch, seq);
                        self.stats.sent += 1;
                        return vec![Outbound::from((from, ack))];
                    }
                    Admit::Fresh => {
                        // Usually the sole owner (frames arrive freshly
                        // decoded); fall back to a clone when shared.
                        let inner =
                            Arc::try_unwrap(inner).unwrap_or_else(|shared| (*shared).clone());
                        let mut out = self.handle_core(from, inner);
                        let ack = self.ack_for(from, epoch, seq);
                        self.stats.sent += 1;
                        out.push(Outbound::from((from, ack)));
                        out
                    }
                }
            }
            Message::SyncRequest => match from.as_broker() {
                Some(nb) => {
                    if self.sync_pending.iter().any(|p| *p != nb) {
                        // Warming up ourselves: our snapshot is still
                        // incomplete, and the peer would install it as
                        // if it were whole. Hold the answer until every
                        // snapshot we await from *other* neighbours has
                        // arrived (excluding the requester breaks the
                        // mutual-wait a freshly synced pair would
                        // otherwise deadlock on).
                        self.deferred_sync.insert(nb);
                        return Vec::new();
                    }
                    self.answer_sync(nb)
                }
                None => self.handle_core(from, Message::SyncRequest),
            },
            other => self.handle_core(from, other),
        };
        let mut out = self.wrap_outputs(out);
        if let Some(nb) = sync_peer {
            if self.sync_pending.remove(&nb) {
                // Snapshots held back while we were colder than the
                // requester may be ready now.
                let ready: Vec<BrokerId> = self
                    .deferred_sync
                    .iter()
                    .copied()
                    .filter(|r| self.sync_pending.iter().all(|p| p == r))
                    .collect();
                for r in ready {
                    self.deferred_sync.remove(&r);
                    out.extend(self.answer_sync(r));
                }
                if self.sync_pending.is_empty() {
                    // Last awaited snapshot installed: replay the
                    // deferred frames through the normal handle path
                    // (dedup, acks, sequencing all apply as if they
                    // had just arrived).
                    let held: Vec<_> = self.warmup.drain(..).collect();
                    for (h_from, h_msg) in held {
                        out.extend(self.handle_frames(h_from, h_msg));
                    }
                }
            }
        }
        out
    }

    /// Processes a whole transport drain in one call: the output is
    /// that of [`Broker::handle_frames`] over the batch in order,
    /// concatenated, except that each sender gets only the last
    /// [`Message::Ack`] the batch owes it, at that ack's own position.
    /// Acks are cumulative, so the dropped ones carry nothing the last
    /// one lacks. [`BrokerStats::sent`] counts only the frames
    /// returned. How many acks go out thus depends on where the drain
    /// was cut; a transport whose traffic must repeat exactly for the
    /// same input calls [`Broker::handle_frames`] per frame instead.
    pub fn handle_batch_frames(&mut self, batch: Vec<(Dest, Message)>) -> Vec<Outbound> {
        let mut out: Vec<Outbound> = batch
            .into_iter()
            .flat_map(|(from, msg)| self.handle_frames(from, msg))
            .collect();
        let mut last_ack: BTreeMap<Dest, usize> = BTreeMap::new();
        for (i, ob) in out.iter().enumerate() {
            if ob.kind == MessageKind::Ack {
                last_ack.insert(ob.dest, i);
            }
        }
        let before = out.len();
        let mut i = 0;
        out.retain(|ob| {
            let keep = ob.kind != MessageKind::Ack || last_ack.get(&ob.dest) == Some(&i);
            i += 1;
            keep
        });
        self.stats.sent -= (before - out.len()) as u64;
        out
    }

    /// Shared-automaton metrics from the routing table; `None` when
    /// [`RoutingConfig::covering`] selects the covering tree.
    pub fn automaton_stats(&self) -> Option<AutomatonStats> {
        self.prt.automaton_stats()
    }

    /// The full answer to a neighbour's [`Message::SyncRequest`]: the
    /// routing snapshot plus a replay of every sequenced frame the peer
    /// has not acknowledged (the reconnect may have eaten them).
    fn answer_sync(&mut self, nb: BrokerId) -> Vec<Outbound> {
        let from = Dest::Broker(nb);
        let mut out = self.handle_core(from, Message::SyncRequest);
        if let Some(link) = self.links.get(&nb) {
            let replayed = link.replay_frames();
            self.stats.retransmits += replayed.len() as u64;
            self.stats.sent += replayed.len() as u64;
            out.extend(replayed.into_iter().map(|f| Outbound::new(from, f)));
        }
        out
    }

    /// The cumulative ack for `from`'s window (falling back to the
    /// observed frame if the window vanished, which cannot happen in
    /// practice — `observe` just created it).
    fn ack_for(&self, from: Dest, epoch: u64, seq: u64) -> Message {
        let (e, s) = self
            .windows
            .get(&from)
            .map_or((epoch, seq), DedupWindow::ack_value);
        Message::Ack { epoch: e, seq: s }
    }

    /// Stamps broker-bound payload frames with sequenced headers,
    /// buffering each (body shared, not cloned) for retransmission.
    /// Control traffic, client deliveries, and already-sequenced frames
    /// pass through untouched.
    fn wrap_outputs(&mut self, out: Vec<Outbound>) -> Vec<Outbound> {
        let epoch = self.epoch;
        out.into_iter()
            .map(|ob| match ob.dest {
                Dest::Broker(nb) if ob.frame.is_payload() && ob.frame.seq_header().is_none() => {
                    let link = self.links.entry(nb).or_insert_with(|| {
                        OutboundLink::new(epoch, crate::reliable::DEFAULT_RETRANSMIT_CAPACITY)
                    });
                    let shed = link.overflow();
                    let frame = link.wrap_frame(ob.frame);
                    self.stats.retransmit_overflow += link.overflow() - shed;
                    Outbound::new(ob.dest, frame)
                }
                _ => ob,
            })
            .collect()
    }

    /// The routing state machine, below the reliability layer.
    fn handle_core(&mut self, from: Dest, msg: Message) -> Vec<Outbound> {
        self.stats.record_received(msg.kind());
        let out: Vec<Outbound> = match msg {
            Message::Advertise { id, adv } => {
                self.srt.insert(id, adv.clone(), from);
                if let Some(tracer) = &self.tracer {
                    tracer.record(&TraceEvent::point(
                        "adv.process",
                        self.id.0,
                        "advertise",
                        id.0,
                        0,
                    ));
                }
                // Advertisements are flooded through the overlay.
                let mut out = self.broadcast_except(
                    from,
                    Message::Advertise {
                        id,
                        adv: adv.clone(),
                    },
                );
                // Subscriptions that arrived before this advertisement
                // were not forwarded toward it; re-evaluate what live
                // forwarding owes `from` so the reverse path exists.
                // The SRT already holds the advertisement, so its answer
                // for `from` is exact at any subscription length.
                if self.config.advertisements() && !from.is_client() {
                    for (sid, xpe) in self.prt.owed_to(&from) {
                        if !self.is_sent(sid, from) && self.srt.match_sub(&xpe).contains(&from) {
                            out.push(Outbound::from((from, Message::Subscribe { id: sid, xpe })));
                            self.record_sent(sid, [from]);
                        }
                    }
                }
                out
            }
            Message::Unadvertise { id } => {
                self.srt.remove(id);
                self.broadcast_except(from, Message::Unadvertise { id })
            }
            Message::Subscribe { id, xpe } => self
                .handle_subscribe(from, id, xpe)
                .into_iter()
                .map(Outbound::from)
                .collect(),
            Message::Unsubscribe { id } => self
                .handle_unsubscribe(from, id)
                .into_iter()
                .map(Outbound::from)
                .collect(),
            Message::Publish(p) => {
                let sw = Stopwatch::start();
                let dests = self.prt.matching_hops(&p.elements, &p.attributes);
                self.stats.pub_routing.record(sw.elapsed());
                let doc_id = p.doc_id.0;
                if let Some(tracer) = &self.tracer {
                    tracer.record(&TraceEvent::span(
                        "pub.route",
                        self.id.0,
                        "publish",
                        doc_id,
                        dests.len() as u64,
                        sw.elapsed_ns(),
                    ));
                }
                // One frame for the whole fan-out: every destination's
                // clone shares the payload and its one encoding.
                let frame = FrameBuf::from_message(Message::Publish(p));
                dests
                    .into_iter()
                    .filter(|d| *d != from)
                    .map(|d| {
                        if let Dest::Client(c) = d {
                            self.stats.deliveries += 1;
                            if let Some(tracer) = &self.tracer {
                                tracer.record(&TraceEvent::point(
                                    "pub.deliver",
                                    self.id.0,
                                    "publish",
                                    doc_id,
                                    c.0,
                                ));
                            }
                        }
                        Outbound::new(d, frame.clone())
                    })
                    .collect()
            }
            Message::Heartbeat => {
                // Liveness probes are consumed by the transport layer;
                // one reaching the broker is normally a no-op. From a
                // still-sync-pending neighbour, though, it doubles as a
                // retry tick: the single SyncRequest sent on (re)connect
                // can be lost, and a warming broker would otherwise
                // defer payload forever. Re-asking is idempotent — the
                // peer just answers with a fresh snapshot.
                match from.as_broker() {
                    Some(nb) if self.sync_pending.contains(&nb) => {
                        vec![Outbound::from((from, Message::SyncRequest))]
                    }
                    _ => Vec::new(),
                }
            }
            Message::SyncRequest => match from.as_broker() {
                Some(nb) => {
                    let state = self.export_routing_for(nb);
                    if let Message::SyncState { subs, .. } = &state {
                        // The export installs the ids it added for
                        // owed expressions the ledger did not record;
                        // record them, so that leaving retracts them.
                        // (Every other exported id is recorded, or
                        // names a subscription that already left.)
                        let added: Vec<SubId> = subs
                            .iter()
                            .map(|(id, _)| *id)
                            .filter(|id| self.prt.xpe_of(*id).is_some())
                            .collect();
                        for id in added {
                            self.record_sent(id, [from]);
                        }
                    }
                    vec![Outbound::from((from, state))]
                }
                None => Vec::new(),
            },
            Message::SyncState { advs, subs } => {
                // Replay each entry through the normal handlers so the
                // snapshot re-propagates exactly like live traffic
                // would. Installation is idempotent: the SRT replaces
                // entries by AdvId and the PRT dedups (id, xpe, hop).
                // Advertisements first — re-forwarded subscriptions
                // route along them.
                let mut out = Vec::new();
                for (id, adv) in advs {
                    out.extend(self.handle_core(from, Message::Advertise { id, adv }));
                }
                for (id, xpe) in subs {
                    out.extend(self.handle_core(from, Message::Subscribe { id, xpe }));
                }
                // The recursive calls counted their own sends; the
                // top-level `handle` wraps the combined output once.
                return out;
            }
            Message::Ack { .. } | Message::Sequenced { .. } => {
                // Reliability frames are consumed by `handle` before
                // the routing layer; one reaching here is a no-op.
                Vec::new()
            }
        };
        self.stats.sent += out.len() as u64;
        out
    }

    /// Exports the routing state a (re)connecting `neighbor` needs from
    /// this broker: every SRT advertisement this broker would have
    /// flooded over the link (last hop ≠ the neighbour) and every
    /// subscription the neighbour needs to route publications back
    /// through this broker. The receiver installs it via
    /// [`Message::SyncState`] handling.
    ///
    /// The subscriptions are those the ledger records at the neighbour,
    /// under the ids they are installed with (one expression may be
    /// installed there under several), so that a later retraction of
    /// one leaves the others in place. Each expression the routing
    /// tables owe the neighbour ([`PublicationRouter::owed_to`]: the
    /// top-level ones, and the covered ones whose coverer arrived from
    /// it) but the ledger records none of is added under one id: a
    /// broker that itself restarted has no ledger, yet its snapshot
    /// must still carry the subscriptions it holds, or a twice-faulted
    /// overlay acks frames it cannot route. When this broker has
    /// advertisements learned via the neighbour, those additions are
    /// scoped exactly like live forwarding (only overlapping
    /// subscriptions); on a cold link — no advertisements from that
    /// side yet — every owed one is exported. The superset is safe:
    /// installation is idempotent and an extra PRT entry only routes
    /// matching publications toward a subscriber that genuinely sits
    /// behind this broker.
    pub fn export_routing_for(&self, neighbor: BrokerId) -> Message {
        let hop = Dest::Broker(neighbor);
        let mut advs: Vec<_> = self
            .srt
            .iter()
            .filter(|(_, _, h)| **h != hop)
            .map(|(id, adv, _)| (id, adv.clone()))
            .collect();
        advs.sort_by_key(|(id, _)| id.0);
        let recorded: Vec<(SubId, Xpe)> = self
            .sent_to
            .iter()
            .filter_map(|(id, sent)| Some((*sent.get(&hop)?, self.prt.xpe_of(*id)?.clone())))
            .collect();
        let known: std::collections::HashSet<&Xpe> = recorded.iter().map(|(_, xpe)| xpe).collect();
        let scoped = self.config.advertisements() && self.srt.iter().any(|(_, _, h)| *h == hop);
        let unrecorded: Vec<(SubId, Xpe)> = self
            .prt
            .owed_to(&hop)
            .into_iter()
            .filter(|(_, xpe)| !known.contains(xpe))
            .filter(|(_, xpe)| !scoped || self.srt.match_sub(xpe).contains(&hop))
            .collect();
        let mut subs = recorded;
        subs.extend(unrecorded);
        subs.sort_by_key(|(id, _)| id.0);
        Message::SyncState { advs, subs }
    }

    /// A canonical textual digest of the routing tables (sorted SRT
    /// entries plus sorted top-level PRT subscriptions with their
    /// origin hops). Covered subscriptions are not in it, so two
    /// brokers with equal signatures hold the same advertisements and
    /// forward the same subscriptions, but may still route a
    /// publication differently; fault-tolerance tests compare a
    /// recovered broker against a never-failed run with this, beside
    /// an exact comparison of the deliveries.
    pub fn routing_signature(&self) -> String {
        let mut lines: Vec<String> = self
            .srt
            .iter()
            .map(|(id, adv, hop)| format!("adv {} {} via {}", id.0, adv, hop))
            .collect();
        for (id, xpe, hops) in self.prt.forwarded_subs() {
            let mut from: Vec<String> = hops.iter().map(std::string::ToString::to_string).collect();
            from.sort();
            from.dedup();
            lines.push(format!("sub {} {} from {}", id.0, xpe, from.join(",")));
        }
        lines.sort();
        lines.join("\n")
    }

    fn handle_subscribe(&mut self, from: Dest, id: SubId, xpe: Xpe) -> Vec<(Dest, Message)> {
        let sw = Stopwatch::start();
        let outcome = self.prt.insert(id, xpe.clone(), from);
        if !outcome.forward {
            if let Some(tracer) = &self.tracer {
                tracer.record(&TraceEvent::point(
                    "sub.covered",
                    self.id.0,
                    "subscribe",
                    id.0,
                    0,
                ));
            }
        }
        let mut out = Vec::new();
        if outcome.forward {
            // Covered subscriptions skip advertisement matching
            // entirely — the Figure 8 effect.
            let targets = self.sub_targets(&xpe, Some(from));
            for rid in &outcome.retract {
                // The new subscription stands in for the covered one
                // wherever both were sent. Elsewhere the covered id is
                // not this broker's to retract: toward its own origin
                // it names the origin's subscription, and toward this
                // subscription's origin it is still owed.
                for (t, installed) in self.retract_at(*rid, &targets) {
                    out.push((t, Message::Unsubscribe { id: installed }));
                }
            }
            for t in &targets {
                out.push((
                    *t,
                    Message::Subscribe {
                        id,
                        xpe: xpe.clone(),
                    },
                ));
            }
            self.record_sent(id, targets);
        } else {
            // Covering suppression is only valid toward hops the
            // coverer was itself sent to; it was never sent toward its
            // own origins, so those directions are still owed.
            let owed: Vec<Dest> = outcome
                .covered_root_hops
                .iter()
                .filter(|h| !h.is_client() && **h != from)
                .copied()
                .collect();
            if !owed.is_empty() {
                let targets = self.sub_targets(&xpe, Some(from));
                for t in owed {
                    if targets.contains(&t) {
                        out.push((
                            t,
                            Message::Subscribe {
                                id,
                                xpe: xpe.clone(),
                            },
                        ));
                        self.record_sent(id, [t]);
                    }
                }
            }
        }
        self.stats.sub_processing.record(sw.elapsed());
        if let Some(tracer) = &self.tracer {
            tracer.record(&TraceEvent::span(
                "sub.process",
                self.id.0,
                "subscribe",
                id.0,
                out.len() as u64,
                sw.elapsed_ns(),
            ));
        }
        out
    }

    /// One rule for both tables: promoted subscriptions are forwarded,
    /// a subscription still stored under the expression keeps the
    /// removed one's installations that it needs, and the removed id
    /// is retracted from every other hop it was sent to, plus its
    /// routing targets when the table says the expression left.
    fn handle_unsubscribe(&mut self, from: Dest, id: SubId) -> Vec<(Dest, Message)> {
        let mut out = Vec::new();
        let xpe = self.prt.xpe_of(id).cloned();
        let outcome = self.prt.remove(id);
        // Re-forward newly uncovered subscriptions first so no window
        // without routing state opens upstream.
        let promotions: Vec<(SubId, Xpe)> = outcome
            .promote
            .iter()
            .filter_map(|pid| self.prt.xpe_of(*pid).map(|x| (*pid, x.clone())))
            .collect();
        for (pid, pxpe) in promotions {
            // The removed coverer stood in for the promoted
            // subscription everywhere but the promoted node's own
            // origins, including toward `from`. Where the expression is
            // installed already (owed toward the coverer's origin, or
            // under another id), it needs no second `Subscribe`.
            let own = self.prt.hops_of(pid);
            let targets: Vec<Dest> = self
                .sub_targets(&pxpe, None)
                .into_iter()
                .filter(|t| !own.contains(t) && !self.is_sent(pid, *t))
                .collect();
            for t in &targets {
                out.push((
                    *t,
                    Message::Subscribe {
                        id: pid,
                        xpe: pxpe.clone(),
                    },
                ));
            }
            self.record_sent(pid, targets);
        }
        let mut sent = self.sent_to.remove(&id).unwrap_or_default();
        let mut retract = Vec::new();
        if let Some(xpe) = xpe.filter(|_| outcome.forward) {
            for t in self.sub_targets(&xpe, Some(from)) {
                retract.push((t, sent.remove(&t).unwrap_or(id)));
            }
        }
        for (t, installed) in sent {
            // One that did not come from `t` needs the expression
            // there, and keeps it under the id it is installed with.
            let heir = outcome.remaining.iter().find(|(_, h)| *h != t);
            match heir {
                Some(&(heir, _)) if !self.is_sent(heir, t) => {
                    self.sent_to.entry(heir).or_default().insert(t, installed);
                }
                _ => retract.push((t, installed)),
            }
        }
        out.extend(
            retract
                .into_iter()
                .map(|(t, installed)| (t, Message::Unsubscribe { id: installed })),
        );
        out
    }

    /// Where to forward a subscription: the last hops of overlapping
    /// advertisements (advertisement-based routing) or every neighbour
    /// (flooding). Client hops never receive subscriptions.
    fn sub_targets(&self, xpe: &Xpe, exclude: Option<Dest>) -> Vec<Dest> {
        if self.config.advertisements() {
            self.srt
                .match_sub(xpe)
                .into_iter()
                .filter(|d| !d.is_client())
                .filter(|d| Some(*d) != exclude)
                .collect()
        } else {
            self.flood_targets(exclude)
        }
    }

    /// True if the ledger holds an installation for `id` at `hop`.
    fn is_sent(&self, id: SubId, hop: Dest) -> bool {
        self.installed_at(id, hop).is_some()
    }

    /// The id `id`'s expression is installed under at `hop`, if this
    /// broker sent it there.
    fn installed_at(&self, id: SubId, hop: Dest) -> Option<SubId> {
        self.sent_to.get(&id)?.get(&hop).copied()
    }

    /// Records that `id` was sent to `hops`, under its own id where the
    /// ledger holds no installation yet.
    fn record_sent(&mut self, id: SubId, hops: impl IntoIterator<Item = Dest>) {
        for hop in hops {
            self.sent_to.entry(id).or_default().entry(hop).or_insert(id);
        }
    }

    /// Forgets the hops among `targets` that `rid` was sent to and
    /// returns them, in `targets` order, with the id to retract there.
    /// Hops outside `targets` stay recorded: `rid` is still installed
    /// there.
    fn retract_at(&mut self, rid: SubId, targets: &[Dest]) -> Vec<(Dest, SubId)> {
        let Some(sent) = self.sent_to.get_mut(&rid) else {
            return Vec::new();
        };
        let gone = targets
            .iter()
            .filter_map(|t| sent.remove(t).map(|installed| (*t, installed)))
            .collect();
        if sent.is_empty() {
            self.sent_to.remove(&rid);
        }
        gone
    }

    fn flood_targets(&self, exclude: Option<Dest>) -> Vec<Dest> {
        self.neighbors
            .iter()
            .map(|&n| Dest::Broker(n))
            .filter(|d| Some(*d) != exclude)
            .collect()
    }

    fn broadcast_except(&self, from: Dest, msg: Message) -> Vec<Outbound> {
        // One frame, cloned per neighbour: the flood shares a payload
        // `Arc` (and, on the wire, one encoded body).
        let frame = FrameBuf::from_message(msg);
        self.flood_targets(Some(from))
            .into_iter()
            .map(|d| Outbound::new(d, frame.clone()))
            .collect()
    }

    /// Runs the merging pass (§4.3) if the strategy enables it, and
    /// returns the control traffic as [`Outbound`] frames: merger
    /// subscriptions plus retractions of absorbed subscriptions.
    ///
    /// Requires [`Broker::set_universe`]; without a universe only
    /// structural perfect mergers could be scored, so the pass is
    /// skipped entirely.
    pub fn apply_merging_frames(&mut self) -> Vec<Outbound> {
        let Some(max_degree) = self.config.merge_degree() else {
            return Vec::new();
        };
        let Some(universe) = self.universe.clone() else {
            return Vec::new();
        };
        let broker_bits = (self.id.0 as u64) << 32;
        let seq = &mut self.merger_seq;
        // Non-covering tables have nothing to merge; their trait impl
        // returns no applications.
        let apps = self.prt.apply_merging(&universe, max_degree, &mut || {
            *seq += 1;
            SubId((1 << 63) | broker_bits | *seq)
        });
        let mut out = Vec::new();
        for app in apps {
            let targets = self.sub_targets(&app.xpe, None);
            for t in &targets {
                out.push(Outbound::from((
                    *t,
                    Message::Subscribe {
                        id: app.merger_id,
                        xpe: app.xpe.clone(),
                    },
                )));
            }
            self.record_sent(app.merger_id, targets.iter().copied());
            for rid in app.retract {
                // As in `handle_subscribe`: only where the absorbed
                // subscription was sent, never toward its origin.
                for (t, installed) in self.retract_at(rid, &targets) {
                    out.push(Outbound::from((t, Message::Unsubscribe { id: installed })));
                }
            }
        }
        self.stats.sent += out.len() as u64;
        self.wrap_outputs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClientId, MessageKind, Publication};
    use xdn_core::adv::{AdvPath, Advertisement};
    use xdn_core::rtable::AdvId;
    use xdn_xml::{DocId, PathId};

    /// Message-typed views of the frame data plane, so assertions can
    /// pattern-match `(Dest, Message)` pairs instead of unpacking
    /// [`Outbound`] frames at every call site. Test-only: transports
    /// use the frame API directly.
    pub(crate) trait MessageView {
        fn handle(&mut self, from: Dest, msg: Message) -> Vec<(Dest, Message)>;
        fn handle_batch(&mut self, batch: Vec<(Dest, Message)>) -> Vec<(Dest, Message)>;
        fn apply_merging(&mut self) -> Vec<(Dest, Message)>;
    }

    impl MessageView for Broker {
        fn handle(&mut self, from: Dest, msg: Message) -> Vec<(Dest, Message)> {
            self.handle_frames(from, msg)
                .into_iter()
                .map(Into::into)
                .collect()
        }

        fn handle_batch(&mut self, batch: Vec<(Dest, Message)>) -> Vec<(Dest, Message)> {
            self.handle_batch_frames(batch)
                .into_iter()
                .map(Into::into)
                .collect()
        }

        fn apply_merging(&mut self) -> Vec<(Dest, Message)> {
            self.apply_merging_frames()
                .into_iter()
                .map(Into::into)
                .collect()
        }
    }

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn adv(names: &[&str]) -> Advertisement {
        Advertisement::non_recursive(AdvPath::from_names(names))
    }

    fn publication(elements: &[&str]) -> Publication {
        Publication {
            doc_id: DocId(1),
            path_id: PathId(0),
            elements: elements
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            attributes: Vec::new(),
            doc_bytes: 1000,
        }
    }

    fn client(n: u64) -> Dest {
        Dest::Client(ClientId(n))
    }

    fn broker_hop(n: u32) -> Dest {
        Dest::Broker(BrokerId(n))
    }

    #[test]
    fn strategies_are_the_rows_of_tables_2_and_3() {
        // (paper name, advertisements, covering, merge degree), in the
        // paper's order.
        let rows = [
            ("no-Adv-no-Cov", false, false, None),
            ("no-Adv-with-Cov", false, true, None),
            ("with-Adv-no-Cov", true, false, None),
            ("with-Adv-with-Cov", true, true, None),
            ("with-Adv-with-CovPM", true, true, Some(0.0)),
            ("with-Adv-with-CovIPM", true, true, Some(0.1)),
        ];
        assert_eq!(RoutingConfig::ALL.len(), rows.len());
        for (cfg, (name, adv, cov, degree)) in RoutingConfig::ALL.into_iter().zip(rows) {
            assert_eq!(cfg.name(), name);
            assert_eq!(cfg.to_string(), name);
            assert_eq!(RoutingConfig::by_name(name), Some(cfg));
            let dashed = name.replace("CovPM", "Cov-PM").replace("CovIPM", "Cov-IPM");
            assert_eq!(RoutingConfig::by_name(&dashed.to_lowercase()), Some(cfg));
            assert_eq!(RoutingConfig::by_name(&cfg.to_string()), Some(cfg));
            assert_eq!(
                (cfg.advertisements(), cfg.covering(), cfg.merge_degree()),
                (adv, cov, degree),
                "{name}"
            );
        }
        assert_eq!(RoutingConfig::by_name("with-adv"), None);
    }

    #[test]
    fn publication_is_encoded_once_per_hop() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::NoAdvNoCov);
        b.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(2));
        b.handle(client(7), Message::subscribe(SubId(1), xpe("/a")));
        b.handle(client(8), Message::subscribe(SubId(2), xpe("//b")));
        b.handle(broker_hop(2), Message::subscribe(SubId(3), xpe("/a/b")));
        let out = b.handle_frames(broker_hop(1), Message::Publish(publication(&["a", "b"])));
        let mut dests: Vec<Dest> = out.iter().map(|o| o.dest).collect();
        dests.sort();
        assert_eq!(dests, [broker_hop(2), client(7), client(8)]);
        let first = out[0].frame.encoded_payload();
        for o in &out[1..] {
            assert!(
                std::ptr::eq(first, o.frame.encoded_payload()),
                "{:?} got an encoding of its own",
                o.dest
            );
        }
    }

    #[test]
    fn advertisement_flooded_except_origin() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(2));
        let out = b.handle(
            broker_hop(1),
            Message::advertise(AdvId(1), adv(&["a", "b"])),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, broker_hop(2));
        assert_eq!(b.srt_size(), 1);
    }

    #[test]
    fn subscription_routed_toward_advertiser() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        for n in 1..=3 {
            b.add_neighbor(BrokerId(n));
        }
        b.handle(
            broker_hop(1),
            Message::advertise(AdvId(1), adv(&["a", "b"])),
        );
        b.handle(
            broker_hop(2),
            Message::advertise(AdvId(2), adv(&["x", "y"])),
        );
        let out = b.handle(client(9), Message::subscribe(SubId(1), xpe("/a/*")));
        assert_eq!(out.len(), 1, "only toward the overlapping advertisement");
        assert_eq!(out[0].0, broker_hop(1));
    }

    #[test]
    fn subscription_flooded_without_advertisements() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::NoAdvNoCov);
        for n in 1..=3 {
            b.add_neighbor(BrokerId(n));
        }
        let out = b.handle(broker_hop(3), Message::subscribe(SubId(1), xpe("/a")));
        assert_eq!(out.len(), 2, "all neighbours except the origin");
        assert!(out.iter().all(|(d, _)| *d != broker_hop(3)));
    }

    #[test]
    fn covered_subscription_not_forwarded() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.handle(
            broker_hop(1),
            Message::advertise(AdvId(1), adv(&["a", "b"])),
        );
        let first = b.handle(client(1), Message::subscribe(SubId(1), xpe("/a/*")));
        assert_eq!(first.len(), 1);
        let second = b.handle(client(2), Message::subscribe(SubId(2), xpe("/a/b")));
        assert!(second.is_empty(), "covered by /a/*");
    }

    #[test]
    fn takeover_retracts_covered_subscriptions() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.handle(
            broker_hop(1),
            Message::advertise(AdvId(1), adv(&["a", "b"])),
        );
        b.handle(client(1), Message::subscribe(SubId(1), xpe("/a/b")));
        let out = b.handle(client(2), Message::subscribe(SubId(2), xpe("/a/*")));
        let unsubs: Vec<_> = out
            .iter()
            .filter(|(_, m)| matches!(m.payload(), Message::Unsubscribe { .. }))
            .collect();
        let subs: Vec<_> = out
            .iter()
            .filter(|(_, m)| matches!(m.payload(), Message::Subscribe { .. }))
            .collect();
        assert_eq!(unsubs.len(), 1);
        assert_eq!(subs.len(), 1);
    }

    #[test]
    fn publication_routed_to_matching_hops_only() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(2));
        b.handle(broker_hop(2), Message::subscribe(SubId(1), xpe("/a/b")));
        b.handle(client(7), Message::subscribe(SubId(2), xpe("//c")));
        let out = b.handle(broker_hop(1), Message::Publish(publication(&["a", "b"])));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, broker_hop(2));
        let out = b.handle(broker_hop(1), Message::Publish(publication(&["a", "c"])));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, client(7));
        assert_eq!(b.stats().deliveries, 1);
    }

    #[test]
    fn publication_never_returns_to_sender() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.handle(broker_hop(1), Message::subscribe(SubId(1), xpe("/a")));
        let out = b.handle(broker_hop(1), Message::Publish(publication(&["a"])));
        assert!(out.is_empty());
    }

    #[test]
    fn unsubscribe_promotes_covered() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.handle(
            broker_hop(1),
            Message::advertise(AdvId(1), adv(&["a", "b"])),
        );
        b.handle(client(1), Message::subscribe(SubId(1), xpe("/a/*")));
        b.handle(client(2), Message::subscribe(SubId(2), xpe("/a/b")));
        let out = b.handle(client(1), Message::Unsubscribe { id: SubId(1) });
        let kinds: Vec<MessageKind> = out.iter().map(|(_, m)| m.kind()).collect();
        assert!(
            kinds.contains(&MessageKind::Subscribe),
            "promoted /a/b re-forwarded: {kinds:?}"
        );
        assert!(kinds.contains(&MessageKind::Unsubscribe));
    }

    #[test]
    fn flat_unsubscribe_floods() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::NoAdvNoCov);
        b.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(2));
        b.handle(client(1), Message::subscribe(SubId(1), xpe("/a")));
        let out = b.handle(client(1), Message::Unsubscribe { id: SubId(1) });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unsubscriptions_empty_the_ledger() {
        for cfg in RoutingConfig::ALL {
            let mut b = Broker::new(BrokerId(1), cfg);
            b.add_neighbor(BrokerId(0));
            b.add_neighbor(BrokerId(2));
            b.handle(
                broker_hop(0),
                Message::advertise(AdvId(1), adv(&["a", "b"])),
            );
            for i in 0..100 {
                b.handle(client(1), Message::subscribe(SubId(i), xpe("/a/*")));
                b.handle(client(1), Message::Unsubscribe { id: SubId(i) });
            }
            assert_eq!(b.sent_to.len(), 0, "{cfg} keeps ledger entries");
        }
    }

    #[test]
    fn unsubscription_goes_where_the_subscription_went() {
        let mut b = Broker::new(BrokerId(1), RoutingConfig::WithAdvNoCov);
        b.add_neighbor(BrokerId(0));
        b.add_neighbor(BrokerId(2));
        b.handle(
            broker_hop(0),
            Message::advertise(AdvId(1), adv(&["a", "b"])),
        );
        let dests = |out: Vec<(Dest, Message)>, kind| -> Vec<Dest> {
            out.iter()
                .filter(|(_, m)| m.kind() == kind)
                .map(|(d, _)| *d)
                .collect()
        };
        let out = b.handle(client(1), Message::subscribe(SubId(1), xpe("/a/*")));
        assert_eq!(dests(out, MessageKind::Subscribe), [broker_hop(0)]);
        let out = b.handle(client(1), Message::Unsubscribe { id: SubId(1) });
        assert_eq!(dests(out, MessageKind::Unsubscribe), [broker_hop(0)]);
    }

    #[test]
    fn a_remaining_subscriber_keeps_the_installation() {
        // Two clients share one expression, forwarded under the first
        // one's id. When the first leaves, the second still needs it
        // upstream, under that id; when the second leaves, that id is
        // retracted.
        let mut b = Broker::new(BrokerId(0), RoutingConfig::NoAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.handle(client(1), Message::subscribe(SubId(1), xpe("/a/b")));
        b.handle(client(2), Message::subscribe(SubId(2), xpe("/a/b")));
        let out = b.handle(client(1), Message::Unsubscribe { id: SubId(1) });
        assert!(out.is_empty(), "{out:?}");
        let out = b.handle(client(2), Message::Unsubscribe { id: SubId(2) });
        let sent: Vec<(Dest, Message)> =
            out.iter().map(|(d, m)| (*d, m.payload().clone())).collect();
        assert_eq!(
            sent,
            [(broker_hop(1), Message::Unsubscribe { id: SubId(1) })]
        );
        assert!(b.sent_to.is_empty());
    }

    #[test]
    fn merging_emits_merger_and_retractions() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCovPM);
        b.add_neighbor(BrokerId(1));
        b.handle(
            broker_hop(1),
            Message::advertise(AdvId(1), adv(&["a", "b", "*"])),
        );
        // Universe: /a/b/{b,c} — subscribing to both makes /a/b/* perfect.
        let universe = Arc::new(vec![
            vec!["a".to_string(), "b".into(), "b".into()],
            vec!["a".to_string(), "b".into(), "c".into()],
        ]);
        b.set_universe(universe);
        b.handle(client(1), Message::subscribe(SubId(1), xpe("/a/b/b")));
        b.handle(client(2), Message::subscribe(SubId(2), xpe("/a/b/c")));
        assert_eq!(b.prt_effective_size(), 2);
        let out = b.apply_merging();
        assert_eq!(b.prt_effective_size(), 1);
        let subs: Vec<_> = out
            .iter()
            .filter_map(|(_, m)| match m.payload() {
                Message::Subscribe { xpe, .. } => Some(xpe.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(subs, vec!["/a/b/*".to_string()]);
        let unsubs = out
            .iter()
            .filter(|(_, m)| matches!(m.payload(), Message::Unsubscribe { .. }))
            .count();
        assert_eq!(unsubs, 2);
    }

    #[test]
    fn merging_skipped_without_universe() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCovPM);
        b.handle(client(1), Message::subscribe(SubId(1), xpe("/a/b")));
        assert!(b.apply_merging().is_empty());
    }

    #[test]
    fn merging_disabled_for_plain_covering() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.set_universe(Arc::new(vec![]));
        assert!(b.apply_merging().is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::NoAdvNoCov);
        b.add_neighbor(BrokerId(1));
        b.handle(client(1), Message::subscribe(SubId(1), xpe("/a")));
        b.handle(broker_hop(1), Message::Publish(publication(&["a"])));
        assert_eq!(b.stats().received_of(MessageKind::Subscribe), 1);
        assert_eq!(b.stats().received_of(MessageKind::Publish), 1);
        assert_eq!(b.stats().sub_processing.count(), 1);
        assert_eq!(b.stats().pub_routing.count(), 1);
        assert!(b.stats().received_total() >= 2);
        b.reset_stats();
        assert_eq!(b.stats().received_total(), 0);
    }

    #[test]
    fn sync_request_answers_with_link_state() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(2));
        // One advertisement from B2 (exported to B1), one from B1 (not
        // exported back to B1).
        b.handle(
            broker_hop(2),
            Message::advertise(AdvId(1), adv(&["a", "b"])),
        );
        b.handle(
            broker_hop(1),
            Message::advertise(AdvId(2), adv(&["x", "y"])),
        );
        // A local subscription forwarded toward B2's advertisement.
        b.handle(client(9), Message::subscribe(SubId(7), xpe("/a/*")));
        let out = b.handle(broker_hop(1), Message::SyncRequest);
        // The answer carries the routing snapshot plus a replay of the
        // unacked frames B1 may have lost (the flooded advertisement).
        assert!(out.iter().all(|(d, _)| *d == broker_hop(1)));
        let syncs: Vec<_> = out
            .iter()
            .filter_map(|(_, m)| match m {
                Message::SyncState { advs, subs } => Some((advs, subs)),
                _ => None,
            })
            .collect();
        assert_eq!(syncs.len(), 1);
        let (advs, subs) = &syncs[0];
        assert_eq!(
            advs.len(),
            1,
            "only the advertisement B1 does not already own"
        );
        assert_eq!(advs[0].0, AdvId(1));
        assert!(subs.is_empty(), "the subscription went toward B2, not B1");
        let replays = out
            .iter()
            .filter(|(_, m)| matches!(m, Message::Sequenced { .. }))
            .count();
        assert_eq!(replays, 1, "the unacked flooded advertisement replays");
        assert_eq!(b.stats().retransmits, 1);
        let out = b.handle(broker_hop(2), Message::SyncRequest);
        let Some(Message::SyncState { advs, subs }) = out
            .iter()
            .map(|(_, m)| m)
            .find(|m| matches!(m, Message::SyncState { .. }))
        else {
            panic!("expected a SyncState answer")
        };
        assert_eq!(advs[0].0, AdvId(2));
        assert_eq!(subs, &[(SubId(7), xpe("/a/*"))]);
    }

    #[test]
    fn sync_state_install_is_idempotent() {
        let mut healthy = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        healthy.add_neighbor(BrokerId(1));
        healthy.handle(
            broker_hop(1),
            Message::advertise(AdvId(1), adv(&["a", "b"])),
        );
        healthy.handle(broker_hop(1), Message::subscribe(SubId(2), xpe("/a/b")));

        // A restarted replacement learns the same state from a sync
        // snapshot, and installing it twice changes nothing.
        let mut restarted = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        restarted.add_neighbor(BrokerId(1));
        let snapshot = Message::SyncState {
            advs: vec![(AdvId(1), adv(&["a", "b"]))],
            subs: vec![(SubId(2), xpe("/a/b"))],
        };
        restarted.handle(broker_hop(1), snapshot.clone());
        assert_eq!(restarted.routing_signature(), healthy.routing_signature());
        restarted.handle(broker_hop(1), snapshot);
        assert_eq!(restarted.routing_signature(), healthy.routing_signature());
        assert_eq!(restarted.srt_size(), 1);
        assert_eq!(restarted.prt_size(), 1);
    }

    #[test]
    fn warming_broker_defers_sync_answer_until_other_snapshots_arrive() {
        let mut b = Broker::new(BrokerId(1), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(0));
        b.add_neighbor(BrokerId(2));
        b.expect_sync_from(BrokerId(0));
        b.expect_sync_from(BrokerId(2));
        // A request from B2 while B0's snapshot is still missing must
        // not be answered with a cold, possibly-empty snapshot.
        let out = b.handle(broker_hop(2), Message::SyncRequest);
        assert!(out.is_empty(), "cold snapshot handed out: {out:?}");
        // B0's snapshot arrives: the broker now knows everything B2's
        // side cannot tell it, so the held answer is released.
        let out = b.handle(
            broker_hop(0),
            Message::SyncState {
                advs: vec![(AdvId(1), adv(&["a", "b"]))],
                subs: Vec::new(),
            },
        );
        let answers = out
            .iter()
            .filter(|(d, m)| *d == broker_hop(2) && matches!(m, Message::SyncState { .. }))
            .count();
        assert_eq!(answers, 1, "deferred answer not released: {out:?}");
        assert!(b.is_warming(), "B2's own snapshot is still awaited");
    }

    #[test]
    fn cold_restarted_broker_still_exports_its_subscriptions() {
        // A restarted broker has no forwarding history, so the export
        // must be recomputed from the tables: subscriptions re-learned
        // from one side are handed to the other side's sync (full
        // non-echo set — no advertisements to scope by yet), and never
        // echoed back to the side they came from.
        let mut b = Broker::new(BrokerId(2), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(3));
        b.handle(
            broker_hop(3),
            Message::SyncState {
                advs: Vec::new(),
                subs: vec![(SubId(5), xpe("/a/*"))],
            },
        );
        let Message::SyncState { subs, .. } = b.export_routing_for(BrokerId(1)) else {
            panic!("export must be a SyncState")
        };
        assert_eq!(subs, vec![(SubId(5), xpe("/a/*"))]);
        let Message::SyncState { subs, .. } = b.export_routing_for(BrokerId(3)) else {
            panic!("export must be a SyncState")
        };
        assert!(subs.is_empty(), "subscription echoed to its source");
        // The answer installs it at B1, so the ledger records it there
        // and its unsubscription follows.
        b.handle(broker_hop(1), Message::SyncRequest);
        let out = b.handle(broker_hop(3), Message::Unsubscribe { id: SubId(5) });
        let retracted: Vec<Dest> = out
            .iter()
            .filter(|(_, m)| m.kind() == MessageKind::Unsubscribe)
            .map(|(d, _)| *d)
            .collect();
        assert_eq!(retracted, [broker_hop(1)]);
    }

    #[test]
    fn export_carries_every_id_installed_at_the_neighbour() {
        // B2 sends `/a/b` to B4 under B1's id, and under B5's because
        // B4 holds a subscriber of it too (the direction is owed).
        let mut b = Broker::new(BrokerId(2), RoutingConfig::NoAdvWithCov);
        for n in [1, 4, 5] {
            b.add_neighbor(BrokerId(n));
        }
        for (id, hop) in [(1, 1), (2, 4), (3, 5)] {
            b.handle(broker_hop(hop), Message::subscribe(SubId(id), xpe("/a/b")));
        }
        let Message::SyncState { subs, .. } = b.export_routing_for(BrokerId(4)) else {
            panic!("export must be a SyncState")
        };
        assert_eq!(subs, vec![(SubId(1), xpe("/a/b")), (SubId(3), xpe("/a/b"))]);
    }

    #[test]
    fn heartbeat_is_inert() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        assert!(b.handle(broker_hop(1), Message::Heartbeat).is_empty());
        assert_eq!(b.stats().received_of(MessageKind::Heartbeat), 1);
        assert_eq!(b.routing_signature(), "");
    }

    #[test]
    fn unadvertise_removes_and_floods() {
        let mut b = Broker::new(BrokerId(0), RoutingConfig::WithAdvWithCov);
        b.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(2));
        b.handle(broker_hop(1), Message::advertise(AdvId(1), adv(&["a"])));
        let out = b.handle(broker_hop(1), Message::Unadvertise { id: AdvId(1) });
        assert_eq!(b.srt_size(), 0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn broker_traffic_is_sequenced_and_acked() {
        let cfg = RoutingConfig::NoAdvNoCov;
        let mut a = Broker::new(BrokerId(0), cfg);
        let mut b = Broker::new(BrokerId(1), cfg);
        a.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(0));

        // A client subscription floods from A toward B, wrapped.
        let out = a.handle(client(1), Message::subscribe(SubId(1), xpe("/a")));
        assert_eq!(out.len(), 1);
        let (dest, frame) = out.into_iter().next().unwrap();
        assert_eq!(dest, broker_hop(1));
        assert!(matches!(
            frame,
            Message::Sequenced {
                epoch: 1,
                seq: 1,
                ..
            }
        ));
        assert_eq!(a.unacked_total(), 1);

        // B processes it exactly once and acknowledges.
        let replies = b.handle(broker_hop(0), frame.clone());
        assert_eq!(b.prt_size(), 1);
        let acks: Vec<_> = replies
            .iter()
            .filter(|(_, m)| matches!(m, Message::Ack { epoch: 1, seq: 1 }))
            .collect();
        assert_eq!(acks.len(), 1);

        // The ack prunes A's retransmit buffer and records the lag.
        for (d, m) in replies {
            if d == broker_hop(0) {
                a.handle(broker_hop(1), m);
            }
        }
        assert_eq!(a.unacked_total(), 0);
        assert_eq!(a.stats().ack_lag.count(), 1);
    }

    #[test]
    fn replayed_frames_are_idempotent() {
        let cfg = RoutingConfig::NoAdvNoCov;
        let mut a = Broker::new(BrokerId(0), cfg);
        let mut b = Broker::new(BrokerId(1), cfg);
        a.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(0));

        let out = a.handle(client(1), Message::subscribe(SubId(1), xpe("/a")));
        let frame = out.into_iter().next().unwrap().1;
        b.handle(broker_hop(0), frame.clone());
        let sig = b.routing_signature();

        // The same frame again (a retransmission): no routing change,
        // no re-forwarding, just a fresh cumulative ack.
        let replies = b.handle(broker_hop(0), frame);
        assert_eq!(b.routing_signature(), sig);
        assert_eq!(b.stats().dup_frames, 1);
        assert_eq!(replies.len(), 1);
        assert!(matches!(replies[0].1, Message::Ack { epoch: 1, seq: 1 }));
    }

    #[test]
    fn stale_epoch_frames_counted() {
        let cfg = RoutingConfig::NoAdvNoCov;
        let mut b = Broker::new(BrokerId(1), cfg);
        b.add_neighbor(BrokerId(0));
        // Epoch 5 first, then a leftover epoch-3 frame.
        b.handle(
            broker_hop(0),
            Message::Sequenced {
                epoch: 5,
                seq: 1,
                low: 1,
                inner: Arc::new(Message::Heartbeat),
            },
        );
        let out = b.handle(
            broker_hop(0),
            Message::Sequenced {
                epoch: 3,
                seq: 7,
                low: 1,
                inner: Arc::new(Message::Heartbeat),
            },
        );
        assert!(out.is_empty(), "stale frames are dropped silently");
        assert_eq!(b.stats().stale_frames, 1);
    }

    #[test]
    fn reliability_state_survives_detach_and_restore() {
        let cfg = RoutingConfig::NoAdvNoCov;
        let mut a = Broker::new(BrokerId(0), cfg);
        a.add_neighbor(BrokerId(1));
        a.set_epoch(9);
        a.handle(client(1), Message::subscribe(SubId(1), xpe("/a")));
        assert_eq!(a.unacked_total(), 1);

        // Crash: the durable reliability state moves to the successor.
        let state = a.take_reliability_state();
        assert_eq!(a.unacked_total(), 0);
        let mut a2 = Broker::new(BrokerId(0), cfg);
        a2.add_neighbor(BrokerId(1));
        a2.restore_reliability_state(state);
        assert_eq!(a2.epoch(), 9);
        assert_eq!(a2.unacked_total(), 1);

        // A neighbour's sync request replays the inherited frame with
        // its original (epoch, seq).
        let out = a2.handle(broker_hop(1), Message::SyncRequest);
        assert!(out.iter().any(|(_, m)| matches!(
            m,
            Message::Sequenced {
                epoch: 9,
                seq: 1,
                ..
            }
        )));
        assert_eq!(a2.stats().retransmits, 1);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::tests::MessageView;
    use super::*;
    use crate::message::{ClientId, MessageKind, Publication};
    use xdn_xml::{DocId, PathId};

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn publication(elements: &[&str]) -> Publication {
        Publication {
            doc_id: DocId(1),
            path_id: PathId(0),
            elements: elements
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            attributes: Vec::new(),
            doc_bytes: 1000,
        }
    }

    fn client(n: u64) -> Dest {
        Dest::Client(ClientId(n))
    }

    fn broker_hop(n: u32) -> Dest {
        Dest::Broker(BrokerId(n))
    }

    /// A broker with neighbours and subscriptions installed, identical
    /// on every call — the fixture both sides of the batch-equivalence
    /// tests start from.
    fn batch_fixture(config: RoutingConfig) -> Broker {
        let mut b = Broker::new(BrokerId(0), config);
        b.add_neighbor(BrokerId(1));
        b.add_neighbor(BrokerId(2));
        b.handle(broker_hop(2), Message::subscribe(SubId(1), xpe("/a/b")));
        b.handle(client(7), Message::subscribe(SubId(2), xpe("//c")));
        b
    }

    /// Sequenced publication frames as a real neighbour would emit
    /// them: produced by a peer broker whose table routes toward this
    /// one, so epochs, sequence numbers, and low-watermarks are the
    /// reliability layer's own. The sender comes back too, awaiting
    /// acks for every frame.
    fn sender_with_publications(n: usize) -> (Broker, Vec<Message>) {
        let mut sender = Broker::new(BrokerId(1), RoutingConfig::NoAdvNoCov);
        sender.add_neighbor(BrokerId(0));
        sender.handle(broker_hop(0), Message::subscribe(SubId(9), xpe("//b")));
        let frames = (0..n)
            .map(|i| {
                let mut p = publication(&["a", "b"]);
                p.doc_id = DocId(100 + i as u64);
                let mut out = sender.handle(client(1), Message::Publish(p));
                assert_eq!(out.len(), 1, "publication routes to broker 0");
                out.remove(0).1
            })
            .collect();
        (sender, frames)
    }

    /// The batch every equivalence test replays: a run of bare
    /// publications, a control-plane barrier, fresh sequenced
    /// publications, and a duplicated sequenced frame.
    fn mixed_batch(seqs: &[Message]) -> Vec<(Dest, Message)> {
        vec![
            (broker_hop(1), Message::Publish(publication(&["a", "b"]))),
            (broker_hop(1), Message::Publish(publication(&["a", "c"]))),
            (client(9), Message::subscribe(SubId(3), xpe("/z"))),
            (broker_hop(1), seqs[0].clone()),
            (broker_hop(1), seqs[1].clone()),
            (broker_hop(1), seqs[0].clone()),
        ]
    }

    fn is_ack(m: &Message) -> bool {
        matches!(m, Message::Ack { .. })
    }

    /// Feeds every ack in `out` addressed to broker 1 back to `sender`.
    fn return_acks(sender: &mut Broker, out: &[(Dest, Message)]) {
        for (d, m) in out {
            if *d == broker_hop(1) && is_ack(m) {
                sender.handle(broker_hop(0), m.clone());
            }
        }
    }

    /// The batch contract: the batched output is the sequential output
    /// minus each sender's superseded acks, and nothing else differs.
    fn assert_batch_equivalent(config: RoutingConfig) {
        let (mut batch_sender, seqs) = sender_with_publications(2);
        let (mut sequential_sender, _) = sender_with_publications(2);
        let mut batched = batch_fixture(config);
        let batched_out = batched.handle_batch(mixed_batch(&seqs));

        let mut sequential = batch_fixture(config);
        let mut sequential_out = Vec::new();
        for (from, msg) in mixed_batch(&seqs) {
            sequential_out.extend(sequential.handle(from, msg));
        }

        // The sequential run's last ack to each sender, by position.
        let mut last_ack: BTreeMap<Dest, usize> = BTreeMap::new();
        for (i, (d, m)) in sequential_out.iter().enumerate() {
            if is_ack(m) {
                last_ack.insert(*d, i);
            }
        }
        let expected: Vec<(Dest, Message)> = sequential_out
            .iter()
            .enumerate()
            .filter(|(i, (d, m))| !is_ack(m) || last_ack.get(d) == Some(i))
            .map(|(_, x)| x.clone())
            .collect();
        assert_eq!(
            batched_out, expected,
            "handle_batch emits the sequential outputs in order, minus superseded acks"
        );
        let removed = sequential_out.len() - batched_out.len();
        assert_eq!(removed, 2, "three acks owed to broker 1, one kept");
        let kept: Vec<&(Dest, Message)> = batched_out.iter().filter(|(_, m)| is_ack(m)).collect();
        let last: Vec<&(Dest, Message)> = last_ack.values().map(|&i| &sequential_out[i]).collect();
        assert_eq!(kept, last, "each kept ack is the sequential run's last");
        assert_eq!(kept, [&(broker_hop(1), Message::Ack { epoch: 1, seq: 2 })]);
        assert!(
            batched_out
                .iter()
                .any(|(_, m)| matches!(m.kind(), MessageKind::Publish)),
            "fixture must actually route publications"
        );

        let (bs, ss) = (batched.stats(), sequential.stats());
        assert_eq!(bs.received, ss.received, "per-kind received counters");
        assert_eq!(
            ss.sent - bs.sent,
            removed as u64,
            "sent counts emitted frames"
        );
        assert_eq!(bs.deliveries, ss.deliveries);
        assert_eq!(bs.dup_frames, ss.dup_frames);
        assert_eq!(bs.stale_frames, ss.stale_frames);
        assert_eq!(
            bs.pub_routing.count(),
            ss.pub_routing.count(),
            "one routing sample per publication either way"
        );
        assert_eq!(batched.routing_signature(), sequential.routing_signature());
        assert_eq!(batched.unacked_total(), sequential.unacked_total());

        // The one cumulative ack prunes the sender exactly as the three.
        assert_eq!(batch_sender.unacked_total(), 2);
        return_acks(&mut batch_sender, &batched_out);
        return_acks(&mut sequential_sender, &sequential_out);
        assert_eq!(
            batch_sender.unacked_total(),
            sequential_sender.unacked_total()
        );
        assert_eq!(batch_sender.unacked_total(), 0);
    }

    #[test]
    fn handle_batch_matches_sequential_handle() {
        for config in [RoutingConfig::NoAdvNoCov, RoutingConfig::NoAdvWithCov] {
            assert_batch_equivalent(config);
        }
    }

    #[test]
    fn batch_of_fresh_frames_owes_one_ack() {
        const N: usize = 5;
        let (mut sender, seqs) = sender_with_publications(N);
        let mut b = batch_fixture(RoutingConfig::NoAdvWithCov);
        let batch: Vec<(Dest, Message)> = seqs.into_iter().map(|m| (broker_hop(1), m)).collect();
        let sent_before = b.stats().sent;
        let out = b.handle_batch(batch);
        let acks: Vec<&(Dest, Message)> = out.iter().filter(|(_, m)| is_ack(m)).collect();
        assert_eq!(
            acks,
            [&(
                broker_hop(1),
                Message::Ack {
                    epoch: 1,
                    seq: N as u64
                }
            )]
        );
        assert_eq!(
            out.last(),
            acks.first().copied(),
            "the ack sits where the last frame's ack would"
        );
        assert_eq!(b.stats().sent - sent_before, out.len() as u64);
        return_acks(&mut sender, &out);
        assert_eq!(sender.unacked_total(), 0, "one ack covers all {N} frames");
    }

    #[test]
    fn automaton_stats_present_only_without_covering() {
        let b = batch_fixture(RoutingConfig::NoAdvNoCov);
        let stats = b.automaton_stats().expect("automaton table has stats");
        assert_eq!(stats.live_subs, 2, "fixture installed two subscriptions");
        assert!(stats.states > 0);
        let covering = batch_fixture(RoutingConfig::NoAdvWithCov);
        assert!(covering.automaton_stats().is_none());
    }

    #[test]
    fn handle_batch_defers_payload_while_warming() {
        let mut batched = batch_fixture(RoutingConfig::NoAdvNoCov);
        batched.expect_sync_from(BrokerId(1));
        let mut sequential = batch_fixture(RoutingConfig::NoAdvNoCov);
        sequential.expect_sync_from(BrokerId(1));

        let batch = vec![
            (broker_hop(2), Message::Publish(publication(&["a", "b"]))),
            (broker_hop(2), Message::Publish(publication(&["a", "c"]))),
        ];
        let batched_out = batched.handle_batch(batch.clone());
        let mut sequential_out = Vec::new();
        for (from, msg) in batch {
            sequential_out.extend(sequential.handle(from, msg));
        }
        assert_eq!(batched_out, sequential_out);
        assert!(batched_out.is_empty(), "warming brokers defer payloads");
        assert_eq!(batched.stats().received, sequential.stats().received);
    }
}
