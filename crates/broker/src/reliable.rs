//! Per-link reliable-delivery primitives: retransmit buffers and
//! dedup windows.
//!
//! The overlay's delivery decision lives in the PRT, but the decision
//! is only as good as the links that carry it: a crash, redial, or
//! backpressure shed between two brokers silently breaks the reverse
//! path a subscription paid to establish. This module provides the two
//! halves of the at-least-once repair loop:
//!
//! * [`OutboundLink`] — the sender side. Every payload frame toward a
//!   neighbour is wrapped in a `(epoch, seq)` header and held in a
//!   bounded buffer until the neighbour's cumulative
//!   [`crate::Message::Ack`] covers it. On a neighbour's
//!   `SyncRequest` (sent on every reconnect and restart) the whole
//!   buffer replays.
//! * [`DedupWindow`] — the receiver side. Tracks the highest
//!   contiguously-processed sequence number per `(peer, epoch)` and
//!   classifies each arriving frame as fresh, duplicate, or stale so
//!   replays are idempotent against routing tables and delivery sets.
//!
//! Epochs identify sender incarnations: a broker that restarts with a
//! fresh (higher) epoch implicitly retires its old sequence space.
//! Each sequenced frame also carries the sender's `low` watermark (its
//! lowest unacked seq); a receiver may safely fast-forward its dedup
//! floor to `low - 1` because everything below `low` was cumulatively
//! acknowledged by some receiver incarnation — this is what lets a
//! restarted receiver rejoin an ongoing epoch without either dropping
//! live frames as false duplicates or re-processing acked ones.

use crate::message::{BrokerId, Dest};
use crate::wire::{FrameBuf, SeqHeader};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use xdn_obs::{Histogram, Stopwatch};

/// Default bound on an [`OutboundLink`]'s unacked buffer. Sized so the
/// chaos workloads never overflow; an overflow sheds the oldest frame
/// (counted, never silent) and weakens at-least-once for that frame.
pub const DEFAULT_RETRANSMIT_CAPACITY: usize = 4096;

/// Default bound on a [`DedupWindow`]'s out-of-order set.
pub const DEFAULT_WINDOW_CAPACITY: usize = 65536;

/// Classification of a sequenced frame by a [`DedupWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// First sighting: process the payload and ack.
    Fresh,
    /// Already processed (replay): drop the payload but re-ack so the
    /// sender can prune its buffer.
    Duplicate,
    /// Carries an epoch older than the window's current one: the
    /// sender incarnation that produced it is gone; drop silently.
    Stale,
}

/// Sender-side state for one broker→broker link: the epoch, the next
/// sequence number, and the bounded buffer of unacked frames.
#[derive(Debug, Clone)]
pub struct OutboundLink {
    epoch: u64,
    next_seq: u64,
    capacity: usize,
    /// `(seq, payload frame, sent-at)` in ascending seq order. The
    /// frames are unsequenced [`FrameBuf`]s, so the buffered copy
    /// shares its payload and encoded body with every fan-out sibling
    /// instead of owning a deep `Message` clone.
    unacked: VecDeque<(u64, FrameBuf, Stopwatch)>,
    overflow: u64,
}

impl OutboundLink {
    /// Creates a link in `epoch` with an empty buffer.
    pub fn new(epoch: u64, capacity: usize) -> Self {
        OutboundLink {
            epoch,
            next_seq: 1,
            capacity: capacity.max(1),
            unacked: VecDeque::new(),
            overflow: 0,
        }
    }

    /// The sender incarnation this link stamps on frames.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of frames awaiting acknowledgement.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Frames shed from a full buffer — each one is a frame the
    /// reliability layer can no longer guarantee.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The lowest unacked sequence number (everything below it has
    /// been cumulatively acknowledged), or the next seq if nothing is
    /// outstanding.
    pub fn low(&self) -> u64 {
        self.unacked.front().map_or(self.next_seq, |(s, _, _)| *s)
    }

    /// Stamps `frame` with the next `(epoch, seq)` header, buffers a
    /// body-sharing copy for retransmission, and returns the sequenced
    /// frame to send. The buffered copy and the returned frame share
    /// one payload `Arc` and (once encoded) one body — sequencing no
    /// longer clones the payload per neighbour. A full buffer sheds its
    /// oldest frame first (counted via [`OutboundLink::overflow`]).
    pub fn wrap_frame(&mut self, frame: FrameBuf) -> FrameBuf {
        debug_assert!(
            frame.seq_header().is_none(),
            "wrap_frame takes unsequenced payload frames"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.unacked.len() >= self.capacity {
            self.unacked.pop_front();
            self.overflow += 1;
        }
        self.unacked
            .push_back((seq, frame.clone(), Stopwatch::start()));
        frame.stamped(SeqHeader {
            epoch: self.epoch,
            seq,
            low: self.low(),
        })
    }

    /// Applies a cumulative ack, pruning every frame with
    /// `seq <= acked_seq` of the matching epoch and recording each
    /// pruned frame's age (send-to-ack lag) into `lags`; acks for other
    /// epochs are ignored.
    pub fn on_ack(&mut self, epoch: u64, acked_seq: u64, lags: &mut Histogram) {
        if epoch != self.epoch {
            return;
        }
        while let Some((seq, _, sent)) = self.unacked.front() {
            if *seq > acked_seq {
                break;
            }
            lags.record(sent.elapsed());
            self.unacked.pop_front();
        }
    }

    /// Re-stamps every unacked frame for replay after the peer asks to
    /// re-sync. Frames keep their original sequence numbers (so the
    /// receiver's window drops any it already processed) and share the
    /// buffered bodies — only the 29-byte headers are fresh, carrying
    /// the current `low` watermark.
    pub fn replay_frames(&self) -> Vec<FrameBuf> {
        let low = self.low();
        self.unacked
            .iter()
            .map(|(seq, frame, _)| {
                frame.stamped(SeqHeader {
                    epoch: self.epoch,
                    seq: *seq,
                    low,
                })
            })
            .collect()
    }
}

/// Receiver-side dedup state for one inbound link.
///
/// Tracks `cumulative` — the highest seq with every frame at or below
/// it processed — plus a bounded set of out-of-order seqs above it.
/// If the out-of-order set overflows, the window abandons the oldest
/// gap (favouring the no-duplicate half of the invariant over
/// no-loss); the default capacity makes this unreachable in practice.
#[derive(Debug, Clone)]
pub struct DedupWindow {
    epoch: u64,
    cumulative: u64,
    seen: BTreeSet<u64>,
    capacity: usize,
}

impl Default for DedupWindow {
    fn default() -> Self {
        DedupWindow::new(DEFAULT_WINDOW_CAPACITY)
    }
}

impl DedupWindow {
    /// Creates an empty window that accepts any first epoch.
    pub fn new(capacity: usize) -> Self {
        DedupWindow {
            epoch: 0,
            cumulative: 0,
            seen: BTreeSet::new(),
            capacity: capacity.max(1),
        }
    }

    /// The epoch this window currently tracks.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The `(epoch, seq)` to acknowledge: the highest contiguously
    /// processed sequence number of the current epoch.
    pub fn ack_value(&self) -> (u64, u64) {
        (self.epoch, self.cumulative)
    }

    /// Classifies a frame and, when [`Admit::Fresh`], records it as
    /// processed. `low` is the sender's watermark from the frame
    /// header; the floor advances to `low - 1` because everything
    /// below `low` was already acked by some incarnation of us.
    pub fn observe(&mut self, epoch: u64, seq: u64, low: u64) -> Admit {
        if epoch < self.epoch {
            return Admit::Stale;
        }
        if epoch > self.epoch {
            // New sender incarnation: its sequence space starts fresh.
            self.epoch = epoch;
            self.cumulative = low.saturating_sub(1);
            self.seen.clear();
        } else if low.saturating_sub(1) > self.cumulative {
            self.cumulative = low - 1;
            self.seen = match self.cumulative.checked_add(1) {
                Some(next) => self.seen.split_off(&next),
                None => BTreeSet::new(),
            };
            self.compact();
        }
        if seq <= self.cumulative || self.seen.contains(&seq) {
            return Admit::Duplicate;
        }
        if seq == self.cumulative + 1 {
            // In order: advance without a set insert and removal.
            self.cumulative = seq;
        } else {
            self.seen.insert(seq);
        }
        self.compact();
        if self.seen.len() > self.capacity {
            // Abandon the lowest gap to stay bounded.
            if let Some(&lowest) = self.seen.iter().next() {
                self.cumulative = lowest;
                self.seen.remove(&lowest);
                self.compact();
            }
        }
        Admit::Fresh
    }

    fn compact(&mut self) {
        while self.cumulative < u64::MAX && self.seen.remove(&(self.cumulative + 1)) {
            self.cumulative += 1;
        }
    }
}

/// A broker's complete reliability state, detachable so a transport
/// with durable storage (or the simulator modelling one) can carry it
/// across a crash-restart. Routing state is *not* carried — that is
/// rebuilt by the existing `SyncRequest`/`SyncState` exchange.
#[derive(Debug, Clone, Default)]
pub struct ReliabilityState {
    /// The broker's sender epoch.
    pub epoch: u64,
    /// Per-neighbour outbound links (retransmit buffers).
    pub links: BTreeMap<BrokerId, OutboundLink>,
    /// Per-source dedup windows.
    pub windows: BTreeMap<Dest, DedupWindow>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use proptest::prelude::*;

    fn hb() -> FrameBuf {
        FrameBuf::from_message(Message::Heartbeat)
    }

    /// A sequenced frame's `(epoch, seq, low)`.
    fn header(frame: &FrameBuf) -> (u64, u64, u64) {
        let h = frame.seq_header().expect("a sequenced frame");
        (h.epoch, h.seq, h.low)
    }

    #[test]
    fn wrap_assigns_increasing_seqs_and_acks_prune() {
        let mut link = OutboundLink::new(3, 16);
        let f1 = link.wrap_frame(hb());
        let f2 = link.wrap_frame(hb());
        assert_eq!(header(&f1), (3, 1, 1));
        assert_eq!(header(&f2), (3, 2, 1));
        assert_eq!(link.unacked_len(), 2);
        let mut lags = Histogram::new();
        // An ack for a foreign epoch is ignored.
        link.on_ack(2, 2, &mut lags);
        assert_eq!(lags.count(), 0);
        assert_eq!(link.unacked_len(), 2);
        link.on_ack(3, 1, &mut lags);
        assert_eq!(lags.count(), 1);
        assert_eq!(link.unacked_len(), 1);
        assert_eq!(link.low(), 2);
        link.on_ack(3, 2, &mut lags);
        assert_eq!(lags.count(), 2);
        assert_eq!(link.unacked_len(), 0);
        assert_eq!(link.low(), 3, "low is next_seq when nothing is unacked");
    }

    #[test]
    fn replay_preserves_original_seqs() {
        let mut link = OutboundLink::new(1, 16);
        for _ in 0..3 {
            link.wrap_frame(hb());
        }
        link.on_ack(1, 1, &mut Histogram::new());
        let headers: Vec<_> = link.replay_frames().iter().map(header).collect();
        assert_eq!(headers, [(1, 2, 2), (1, 3, 2)]);
    }

    #[test]
    fn overflow_sheds_oldest_and_counts() {
        let mut link = OutboundLink::new(1, 2);
        for _ in 0..5 {
            link.wrap_frame(hb());
        }
        assert_eq!(link.unacked_len(), 2);
        assert_eq!(link.overflow(), 3);
        assert_eq!(link.low(), 4);
    }

    #[test]
    fn window_dedups_and_acks_cumulatively() {
        let mut w = DedupWindow::new(64);
        assert_eq!(w.observe(1, 1, 1), Admit::Fresh);
        assert_eq!(w.observe(1, 1, 1), Admit::Duplicate);
        // Out of order: 3 before 2.
        assert_eq!(w.observe(1, 3, 1), Admit::Fresh);
        assert_eq!(w.ack_value(), (1, 1), "3 is not contiguous yet");
        assert_eq!(w.observe(1, 2, 1), Admit::Fresh);
        assert_eq!(w.ack_value(), (1, 3));
        assert_eq!(w.observe(1, 2, 1), Admit::Duplicate);
    }

    #[test]
    fn stale_epochs_dropped_new_epochs_reset() {
        let mut w = DedupWindow::new(64);
        assert_eq!(w.observe(5, 1, 1), Admit::Fresh);
        assert_eq!(w.observe(4, 9, 1), Admit::Stale);
        // Epoch bump: old seq space retired, floor from the watermark.
        assert_eq!(w.observe(6, 8, 8), Admit::Fresh);
        assert_eq!(w.epoch(), 6);
        assert_eq!(w.ack_value(), (6, 8), "floor 7 plus contiguous 8");
        assert_eq!(w.observe(6, 7, 8), Admit::Duplicate, "below the floor");
    }

    #[test]
    fn watermark_advances_floor_within_epoch() {
        let mut w = DedupWindow::new(64);
        assert_eq!(w.observe(1, 1, 1), Admit::Fresh);
        // Sender says everything below 10 was acked by a previous
        // incarnation of us: seqs 2..=9 must not be re-processed.
        assert_eq!(w.observe(1, 10, 10), Admit::Fresh);
        assert_eq!(w.ack_value(), (1, 10));
        assert_eq!(w.observe(1, 5, 10), Admit::Duplicate);
    }

    #[test]
    fn seq_wraparound_extremes_handled() {
        let mut w = DedupWindow::new(64);
        assert_eq!(w.observe(1, u64::MAX, u64::MAX), Admit::Fresh);
        assert_eq!(w.observe(1, u64::MAX, u64::MAX), Admit::Duplicate);
        assert_eq!(w.ack_value(), (1, u64::MAX));
        let mut link = OutboundLink::new(u64::MAX, 4);
        let f = link.wrap_frame(hb());
        assert_eq!(header(&f), (u64::MAX, 1, 1));
    }

    /// The admission rule before in-order frames skipped the set:
    /// every fresh seq is inserted, then compacted away.
    struct InsertThenCompact {
        epoch: u64,
        cumulative: u64,
        seen: BTreeSet<u64>,
        capacity: usize,
    }

    impl InsertThenCompact {
        fn new(capacity: usize) -> Self {
            InsertThenCompact {
                epoch: 0,
                cumulative: 0,
                seen: BTreeSet::new(),
                capacity: capacity.max(1),
            }
        }

        fn observe(&mut self, epoch: u64, seq: u64, low: u64) -> Admit {
            if epoch < self.epoch {
                return Admit::Stale;
            }
            if epoch > self.epoch {
                self.epoch = epoch;
                self.cumulative = low.saturating_sub(1);
                self.seen.clear();
            } else if low.saturating_sub(1) > self.cumulative {
                self.cumulative = low - 1;
                self.seen = match self.cumulative.checked_add(1) {
                    Some(next) => self.seen.split_off(&next),
                    None => BTreeSet::new(),
                };
                self.compact();
            }
            if seq <= self.cumulative || self.seen.contains(&seq) {
                return Admit::Duplicate;
            }
            self.seen.insert(seq);
            self.compact();
            if self.seen.len() > self.capacity {
                if let Some(&lowest) = self.seen.iter().next() {
                    self.cumulative = lowest;
                    self.seen.remove(&lowest);
                    self.compact();
                }
            }
            Admit::Fresh
        }

        fn compact(&mut self) {
            while self.cumulative < u64::MAX && self.seen.remove(&(self.cumulative + 1)) {
                self.cumulative += 1;
            }
        }
    }

    /// How the next frame of a stream relates to the one before it.
    #[derive(Debug, Clone)]
    enum Frame {
        /// The next seq, in order.
        Next,
        /// Skips ahead, leaving a gap.
        Gap(u64),
        /// Goes back: a duplicate or a gap being filled.
        Back(u64),
        /// A new sender epoch, with its watermark this far below seq.
        NewEpoch(u64),
        /// A frame from the previous epoch.
        StaleEpoch,
        /// The watermark jumps to this far below the next seq.
        Jump(u64),
        /// Any `(epoch, seq, low)` in a small range.
        Raw(u64, u64, u64),
    }

    fn arb_frame() -> impl Strategy<Value = Frame> {
        prop_oneof![
            8 => Just(Frame::Next),
            2 => (0u64..6).prop_map(Frame::Gap),
            3 => (0u64..10).prop_map(Frame::Back),
            1 => (0u64..6).prop_map(Frame::NewEpoch),
            1 => Just(Frame::StaleEpoch),
            1 => (0u64..8).prop_map(Frame::Jump),
            1 => (0u64..4, 0u64..24, 0u64..24).prop_map(|(e, s, l)| Frame::Raw(e, s, l)),
        ]
    }

    proptest! {
        #[test]
        fn in_order_frames_skip_the_set_with_the_same_verdicts(
            near_max in any::<bool>(),
            capacity in 1usize..6,
            frames in prop::collection::vec(arb_frame(), 1..200),
        ) {
            let mut window = DedupWindow::new(capacity);
            let mut reference = InsertThenCompact::new(capacity);
            let (mut epoch, mut seq, mut low) = (1u64, 0u64, 1u64);
            if near_max {
                (seq, low) = (u64::MAX - 40, u64::MAX - 40);
            }
            for frame in frames {
                let mut frame_epoch = epoch;
                match frame {
                    Frame::Next => seq = seq.saturating_add(1),
                    Frame::Gap(k) => seq = seq.saturating_add(k + 2),
                    Frame::Back(k) => seq = seq.saturating_sub(k),
                    Frame::NewEpoch(k) => {
                        epoch += 1;
                        frame_epoch = epoch;
                        seq = seq.saturating_add(1);
                        low = seq.saturating_sub(k);
                    }
                    Frame::StaleEpoch => frame_epoch = epoch.saturating_sub(1),
                    Frame::Jump(k) => {
                        seq = seq.saturating_add(1);
                        low = seq.saturating_add(1).saturating_sub(k);
                    }
                    Frame::Raw(e, s, l) => {
                        frame_epoch = e;
                        seq = s;
                        low = l;
                    }
                }
                prop_assert_eq!(
                    window.observe(frame_epoch, seq, low),
                    reference.observe(frame_epoch, seq, low),
                    "verdict on ({}, {}, {})", frame_epoch, seq, low
                );
                prop_assert_eq!(window.ack_value(), (reference.epoch, reference.cumulative));
            }
        }
    }

    #[test]
    fn window_overflow_abandons_lowest_gap() {
        let mut w = DedupWindow::new(2);
        // All frames out of order with gaps: 10, 20, 30.
        assert_eq!(w.observe(1, 10, 1), Admit::Fresh);
        assert_eq!(w.observe(1, 20, 1), Admit::Fresh);
        assert_eq!(w.observe(1, 30, 1), Admit::Fresh);
        // The window stayed bounded; the abandoned gap below 10 now
        // reads as duplicate (no-duplicate wins over no-loss here).
        assert_eq!(w.observe(1, 5, 1), Admit::Duplicate);
        assert_eq!(w.observe(1, 21, 1), Admit::Fresh);
    }
}
