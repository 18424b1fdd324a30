//! Per-broker performance counters backing the paper's metrics.

use crate::message::MessageKind;
use std::time::Duration;
use xdn_obs::Histogram;

/// Message counts by [`MessageKind`], stored as a flat array indexed by
/// [`MessageKind::index`].
///
/// This is the one per-kind data structure in the workspace:
/// [`BrokerStats::received`] and `NetMetrics::broker_messages` both use
/// it, replacing the eight parallel `received_*` fields and the
/// `HashMap<MessageKind, u64>` that used to duplicate the same
/// bookkeeping. Adding a `MessageKind` variant extends
/// [`MessageKind::ALL`] and `index()`, and every counter follows —
/// there is no match ladder left to forget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounters([u64; MessageKind::ALL.len()]);

impl KindCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to the counter for `kind`.
    #[inline]
    pub fn record(&mut self, kind: MessageKind) {
        // xtask: allow(panic-path) index() < MessageKind::ALL.len() by construction
        self.0[kind.index()] += 1;
    }

    /// Adds `n` to the counter for `kind`.
    #[inline]
    pub fn add(&mut self, kind: MessageKind, n: u64) {
        self.0[kind.index()] += n;
    }

    /// The count for `kind`.
    #[inline]
    pub fn get(&self, kind: MessageKind) -> u64 {
        self.0[kind.index()]
    }

    /// Sum over every kind.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `(kind, count)` pairs in protocol order.
    pub fn iter(&self) -> impl Iterator<Item = (MessageKind, u64)> + '_ {
        MessageKind::ALL.into_iter().map(|k| (k, self.get(k)))
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &KindCounters) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0.iter()) {
            *mine += theirs;
        }
    }

    /// Zeroes every counter.
    pub fn clear(&mut self) {
        self.0 = [0; MessageKind::ALL.len()];
    }
}

/// Counters a broker accumulates while processing messages. These feed
/// the evaluation directly: routing-table size (Figures 6/7), XPE
/// processing time (Figure 8), and publication routing time (Table 1).
///
/// Processing times are full [`Histogram`]s (p50/p95/p99, exact u128
/// means), not bare `Duration` sums — the old mean helpers divided by
/// `count as u32` and silently corrupted the divisor past `u32::MAX`
/// observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Messages received, by kind.
    pub received: KindCounters,
    /// Messages emitted toward neighbours or clients.
    pub sent: u64,
    /// Publications delivered to locally attached clients.
    pub deliveries: u64,
    /// Wall-clock time per processed subscription (covering check +
    /// advertisement matching) — Figure 8's metric.
    pub sub_processing: Histogram,
    /// Wall-clock time per routed publication — Table 1's metric.
    pub pub_routing: Histogram,
    /// Sequenced frames replayed from a retransmit buffer in answer to
    /// a neighbour's [`MessageKind::SyncRequest`].
    pub retransmits: u64,
    /// Sequenced frames dropped as already-processed duplicates by the
    /// per-peer dedup window.
    pub dup_frames: u64,
    /// Sequenced frames dropped because they carried an epoch older
    /// than the window's current one.
    pub stale_frames: u64,
    /// Time between sending a sequenced frame and its cumulative
    /// acknowledgement — the ack-lag / retransmit-latency histogram.
    pub ack_lag: Histogram,
    /// Payload frames shed from a full warm-up buffer while the broker
    /// awaited neighbour sync. Shed frames were never acknowledged, so
    /// their senders replay them once sync completes.
    pub warmup_shed: u64,
    /// Sequenced frames shed from a full retransmit buffer
    /// ([`crate::OutboundLink::overflow`]): at-least-once delivery no
    /// longer covers them.
    pub retransmit_overflow: u64,
}

impl BrokerStats {
    /// Counts one received message of `kind`.
    pub fn record_received(&mut self, kind: MessageKind) {
        self.received.record(kind);
    }

    /// The received counter for `kind`.
    pub fn received_of(&self, kind: MessageKind) -> u64 {
        self.received.get(kind)
    }

    /// Total messages received.
    pub fn received_total(&self) -> u64 {
        self.received.total()
    }

    /// Exact mean time per processed subscription.
    pub fn mean_sub_processing(&self) -> Duration {
        self.sub_processing.mean()
    }

    /// Exact mean time per routed publication.
    pub fn mean_pub_routing(&self) -> Duration {
        self.pub_routing.mean()
    }

    /// Merges another broker's counters into this one (network-wide
    /// aggregation).
    pub fn merge(&mut self, other: &BrokerStats) {
        self.received.merge(&other.received);
        self.sent += other.sent;
        self.deliveries += other.deliveries;
        self.sub_processing.merge(&other.sub_processing);
        self.pub_routing.merge(&other.pub_routing);
        self.retransmits += other.retransmits;
        self.dup_frames += other.dup_frames;
        self.stale_frames += other.stale_frames;
        self.ack_lag.merge(&other.ack_lag);
        self.warmup_shed += other.warmup_shed;
        self.retransmit_overflow += other.retransmit_overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_means() {
        let mut s = BrokerStats::default();
        for _ in 0..4 {
            s.record_received(MessageKind::Subscribe);
            s.sub_processing.record(Duration::from_millis(2));
        }
        for _ in 0..2 {
            s.record_received(MessageKind::Publish);
            s.pub_routing.record(Duration::from_millis(5));
        }
        assert_eq!(s.received_total(), 6);
        assert_eq!(s.mean_sub_processing(), Duration::from_millis(2));
        assert_eq!(s.mean_pub_routing(), Duration::from_millis(5));
        assert_eq!(s.sub_processing.count(), 4);
        assert_eq!(s.pub_routing.p99(), Duration::from_millis(5));
    }

    #[test]
    fn typed_counters_cover_every_kind() {
        let mut s = BrokerStats::default();
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                s.record_received(kind);
            }
        }
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            assert_eq!(s.received_of(kind), i as u64 + 1, "{kind}");
        }
        assert_eq!(s.received_total(), (1..=9).sum::<u64>());
        assert_eq!(
            s.received_of(MessageKind::Subscribe),
            s.received.get(MessageKind::Subscribe)
        );
    }

    #[test]
    fn kind_counters_iterate_in_protocol_order() {
        let mut c = KindCounters::new();
        c.add(MessageKind::Publish, 5);
        c.record(MessageKind::Advertise);
        let collected: Vec<(MessageKind, u64)> = c.iter().collect();
        assert_eq!(collected.len(), MessageKind::ALL.len());
        assert_eq!(collected[0], (MessageKind::Advertise, 1));
        assert_eq!(collected[4], (MessageKind::Publish, 5));
        assert_eq!(c.total(), 6);
        c.clear();
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn zero_counts_give_zero_means() {
        let s = BrokerStats::default();
        assert_eq!(s.mean_sub_processing(), Duration::ZERO);
        assert_eq!(s.mean_pub_routing(), Duration::ZERO);
    }

    #[test]
    fn merge_adds() {
        let mut a = BrokerStats {
            sent: 2,
            ..Default::default()
        };
        a.record_received(MessageKind::Publish);
        a.pub_routing.record(Duration::from_micros(10));
        let mut b = BrokerStats {
            deliveries: 1,
            warmup_shed: 4,
            retransmit_overflow: 5,
            ..Default::default()
        };
        for _ in 0..3 {
            b.record_received(MessageKind::Publish);
        }
        b.pub_routing.record(Duration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.received_of(MessageKind::Publish), 4);
        assert_eq!(a.sent, 2);
        assert_eq!(a.deliveries, 1);
        assert_eq!((a.warmup_shed, a.retransmit_overflow), (4, 5));
        assert_eq!(a.pub_routing.count(), 2);
        assert_eq!(a.mean_pub_routing(), Duration::from_micros(20));
    }
}
