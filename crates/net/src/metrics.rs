//! Network-wide measurements of one simulator run (`sim.rs`).
//!
//! A TCP node keeps no such copy: its `/metrics` scrape exports the
//! same traffic, delivery and shed counts from the broker's own
//! statistics and each peer's outbound queue (`tcp.rs`).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;
use xdn_broker::{BrokerId, ClientId, KindCounters, MessageKind, Publication};
use xdn_xml::DocId;

/// One document delivery observed at a subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// The receiving client.
    pub client: ClientId,
    /// The delivered document.
    pub doc: DocId,
    /// Time from the publisher's send to the first matching path's
    /// arrival — the paper's *notification delay*.
    pub delay: Duration,
    /// Broker hops the winning path traversed.
    pub hops: u32,
}

/// Aggregated counters for one run.
#[derive(Debug, Clone, Default)]
pub struct NetMetrics {
    /// Messages received by brokers, by message kind. The paper's
    /// *network traffic* metric is the sum over all kinds. Shares
    /// [`KindCounters`] with `BrokerStats` — one per-kind structure
    /// workspace-wide.
    pub broker_messages: KindCounters,
    /// Messages delivered to clients (notifications on the last hop).
    pub client_messages: u64,
    /// Document deliveries (first matching path per client and doc).
    pub notifications: Vec<Notification>,
    /// Every delivered path, when path recording is enabled
    /// (`Network::set_record_deliveries`) — the input to
    /// subscriber-side document reassembly.
    pub delivered_paths: Vec<(ClientId, xdn_xml::DocPath)>,
    /// Messages discarded because a crashed broker's recovery buffer
    /// overflowed (fault injection).
    pub dropped_crash: u64,
    /// Messages discarded because a severed link's recovery buffer
    /// overflowed (fault injection).
    pub dropped_link: u64,
    /// Frames shed by the simulator's bounded fault buffers, per
    /// destination peer and payload kind.
    pub shed_frames: BTreeMap<BrokerId, KindCounters>,
    /// Whether [`NetMetrics::delivered_paths`] records; set by
    /// `Network::set_record_deliveries`.
    pub(crate) record_paths: bool,
    publish_times: HashMap<DocId, Duration>,
    delivered: HashSet<(ClientId, DocId)>,
}

impl NetMetrics {
    /// Total messages received by all brokers — the "Network Traffic"
    /// column of Tables 2 and 3.
    pub fn network_traffic(&self) -> u64 {
        self.broker_messages.total()
    }

    /// Messages of one kind received by brokers.
    pub fn traffic_of(&self, kind: MessageKind) -> u64 {
        self.broker_messages.get(kind)
    }

    /// Exact mean notification delay, if any notifications were
    /// observed. Summed in u128 nanoseconds — the old implementation
    /// divided by `len() as u32`, corrupting the divisor beyond
    /// `u32::MAX` notifications.
    pub fn mean_notification_delay(&self) -> Option<Duration> {
        if self.notifications.is_empty() {
            return None;
        }
        let total_ns: u128 = self.notifications.iter().map(|n| n.delay.as_nanos()).sum();
        let mean_ns = total_ns / self.notifications.len() as u128;
        Some(Duration::new(
            u64::try_from(mean_ns / 1_000_000_000).unwrap_or(u64::MAX),
            (mean_ns % 1_000_000_000) as u32,
        ))
    }

    /// Publications shed by bounded buffers, summed over every peer —
    /// the headline "did we silently lose documents" number.
    pub fn shed_publications(&self) -> u64 {
        self.shed_frames
            .values()
            .map(|c| c.get(MessageKind::Publish))
            .sum()
    }

    /// Shed counters for one peer, zero if it never shed.
    pub fn shed_of(&self, peer: BrokerId) -> KindCounters {
        self.shed_frames.get(&peer).copied().unwrap_or_default()
    }

    /// Resets every counter and buffer for a fresh measurement phase.
    ///
    /// Semantics (relied on by the setup-vs-measured-phase workflow in
    /// benches and tests): routing state in the network is untouched —
    /// only *measurements* are cleared. That includes the per-document
    /// publish timestamps and the first-delivery dedup set, so a
    /// document published before `reset` produces no notification
    /// afterwards, and a re-publication after `reset` is measured
    /// fresh. Path recording is configuration,
    /// not measurement, and survives.
    pub fn reset(&mut self) {
        self.broker_messages.clear();
        self.client_messages = 0;
        self.notifications.clear();
        self.delivered_paths.clear();
        self.dropped_crash = 0;
        self.dropped_link = 0;
        self.shed_frames.clear();
        self.publish_times.clear();
        self.delivered.clear();
    }

    /// A broker received one message of `kind`.
    pub(crate) fn on_broker_message(&mut self, kind: MessageKind) {
        self.broker_messages.record(kind);
    }

    /// A client received one message (a notification on the last hop).
    pub(crate) fn on_client_message(&mut self) {
        self.client_messages += 1;
    }

    /// A producer injected a document at simulated time `at`.
    pub(crate) fn on_publish_injected(&mut self, doc: DocId, at: Duration) {
        self.publish_times.insert(doc, at);
    }

    /// One publication path arrived at `client` at simulated time `at`
    /// after `hops` broker hops. A path of a document whose publish was
    /// never recorded counts as traffic but yields no notification.
    pub(crate) fn on_delivery(
        &mut self,
        client: ClientId,
        publication: &Publication,
        at: Duration,
        hops: u32,
    ) {
        if self.record_paths {
            let path = xdn_xml::DocPath::new(
                publication.doc_id,
                publication.path_id,
                publication.elements.clone(),
            )
            .with_attributes(
                if publication.attributes.len() == publication.elements.len() {
                    publication.attributes.clone()
                } else {
                    vec![Vec::new(); publication.elements.len()]
                },
            );
            self.delivered_paths.push((client, path));
        }
        if self.delivered.insert((client, publication.doc_id)) {
            if let Some(&sent) = self.publish_times.get(&publication.doc_id) {
                self.notifications.push(Notification {
                    client,
                    doc: publication.doc_id,
                    delay: at.saturating_sub(sent),
                    hops,
                });
            }
        }
    }

    /// A bounded buffer toward `peer` shed one frame of payload kind
    /// `kind`.
    pub(crate) fn on_frame_shed(&mut self, peer: BrokerId, kind: MessageKind) {
        self.shed_frames.entry(peer).or_default().record(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdn_xml::PathId;

    fn publication(doc: u64) -> Publication {
        Publication {
            doc_id: DocId(doc),
            path_id: PathId(0),
            elements: vec!["a".into(), "b".into()],
            attributes: Vec::new(),
            doc_bytes: 10,
        }
    }

    #[test]
    fn traffic_sums_kinds() {
        let mut m = NetMetrics::default();
        for _ in 0..3 {
            m.on_broker_message(MessageKind::Subscribe);
        }
        for _ in 0..4 {
            m.on_broker_message(MessageKind::Publish);
        }
        assert_eq!(m.network_traffic(), 7);
        assert_eq!(m.traffic_of(MessageKind::Subscribe), 3);
        assert_eq!(m.traffic_of(MessageKind::Advertise), 0);
    }

    #[test]
    fn mean_delay_is_exact() {
        let mut m = NetMetrics::default();
        assert!(m.mean_notification_delay().is_none());
        m.on_publish_injected(DocId(1), Duration::ZERO);
        m.on_delivery(ClientId(1), &publication(1), Duration::from_millis(2), 1);
        m.on_delivery(ClientId(2), &publication(1), Duration::from_millis(5), 2);
        assert_eq!(
            m.mean_notification_delay(),
            Some(Duration::from_micros(3500))
        );
    }

    #[test]
    fn delivery_dedups_per_client_and_doc() {
        let mut m = NetMetrics::default();
        m.on_publish_injected(DocId(1), Duration::ZERO);
        m.on_delivery(ClientId(1), &publication(1), Duration::from_millis(1), 1);
        m.on_delivery(ClientId(1), &publication(1), Duration::from_millis(2), 1);
        assert_eq!(
            m.notifications.len(),
            1,
            "second path is not a new delivery"
        );
        assert_eq!(m.notifications[0].delay, Duration::from_millis(1));
        // Unknown doc: traffic but no notification.
        m.on_delivery(ClientId(1), &publication(9), Duration::from_millis(3), 1);
        assert_eq!(m.notifications.len(), 1);
    }

    #[test]
    fn path_recording_is_opt_in() {
        let mut m = NetMetrics::default();
        m.on_publish_injected(DocId(1), Duration::ZERO);
        m.on_delivery(ClientId(1), &publication(1), Duration::from_millis(1), 1);
        assert!(m.delivered_paths.is_empty());
        m.record_paths = true;
        m.on_delivery(ClientId(2), &publication(1), Duration::from_millis(1), 1);
        assert_eq!(m.delivered_paths.len(), 1);
    }

    #[test]
    fn reset_clears_measurements_keeps_config() {
        let mut m = NetMetrics {
            record_paths: true,
            ..NetMetrics::default()
        };
        m.on_broker_message(MessageKind::Publish);
        m.on_client_message();
        m.on_publish_injected(DocId(1), Duration::ZERO);
        m.on_delivery(ClientId(1), &publication(1), Duration::from_millis(1), 1);
        m.dropped_crash += 1;
        m.reset();
        assert_eq!(m.network_traffic(), 0);
        assert_eq!(m.client_messages, 0);
        assert!(m.notifications.is_empty());
        assert!(m.delivered_paths.is_empty());
        assert_eq!(m.dropped_crash, 0);
        assert!(m.record_paths, "configuration survives reset");
        // Deliveries of pre-reset documents produce no notification…
        m.on_delivery(ClientId(1), &publication(1), Duration::from_millis(2), 1);
        assert!(m.notifications.is_empty());
        // …while documents published in the measured phase are timed
        // against their fresh publish timestamp.
        m.on_publish_injected(DocId(2), Duration::from_millis(3));
        m.on_delivery(ClientId(1), &publication(2), Duration::from_millis(5), 1);
        assert_eq!(m.notifications.len(), 1);
        assert_eq!(m.notifications[0].delay, Duration::from_millis(2));
    }

    #[test]
    fn frame_sheds_tracked_per_peer_and_kind() {
        let mut m = NetMetrics::default();
        m.on_frame_shed(BrokerId(2), MessageKind::Publish);
        m.on_frame_shed(BrokerId(2), MessageKind::Publish);
        m.on_frame_shed(BrokerId(3), MessageKind::Subscribe);
        assert_eq!(m.shed_publications(), 2);
        assert_eq!(m.shed_of(BrokerId(2)).get(MessageKind::Publish), 2);
        assert_eq!(m.shed_of(BrokerId(3)).get(MessageKind::Subscribe), 1);
        assert_eq!(m.shed_of(BrokerId(9)).total(), 0);
        m.reset();
        assert_eq!(m.shed_publications(), 0);
    }
}
