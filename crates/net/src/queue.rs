//! The supervisor's bounded outbound frame queue.
//!
//! Extracted from `tcp.rs` so its concurrency contract can be model-
//! checked: under `--cfg loom` the synchronisation primitives come from
//! the `loom` crate and `tests/loom.rs` drives [`FrameQueue`] through
//! adversarial schedules. In normal builds the primitives are `std`'s
//! and the queue behaves identically.
//!
//! Locking never panics: a poisoned mutex (a pusher panicked mid-
//! operation) is recovered with [`PoisonError::into_inner`] — the
//! queue's state is a `VecDeque` plus three scalars, every transition
//! of which is panic-free, so the data behind a poisoned lock is still
//! coherent and shedding a frame beats taking the whole node down.

use std::collections::VecDeque;
use std::sync::PoisonError;
use std::time::Duration;
use xdn_broker::{FrameBuf, KindCounters, MessageKind};

#[cfg(loom)]
use loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
use std::sync::{Condvar, Mutex, MutexGuard};

/// The result of one [`FrameQueue::pop_wait`] call.
pub enum Pop {
    /// A frame to write.
    Msg(FrameBuf),
    /// Nothing to send for a full heartbeat interval.
    Idle,
    /// The reader declared the current connection dead.
    Down,
    /// The node is shutting down.
    Closed,
}

#[derive(Default)]
struct QueueState {
    q: VecDeque<FrameBuf>,
    down: bool,
    closed: bool,
    dropped: u64,
    /// Shed frames by payload kind — makes publication loss visible
    /// instead of folding it into one opaque total.
    shed: KindCounters,
    /// Sequenced frames handed to the writer but not yet acknowledged
    /// by the peer broker: `(epoch, seq, frame)` in pop order. The held
    /// frames share their payload and encoded body with the written
    /// copies (a `FrameBuf` clone is an `Arc` bump, not a deep copy).
    /// Replayed to the front of the queue when a fresh connection epoch
    /// starts, so frames written into a dying socket are not lost.
    inflight: VecDeque<(u64, u64, FrameBuf)>,
}

/// The supervisor's bounded outbound queue. The broker loop pushes,
/// the supervisor's writer pops; when full, buffered publications are
/// evicted before any control message is touched (routing state must
/// survive an outage; documents may be re-published).
pub struct FrameQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
}

impl FrameQueue {
    /// A queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        FrameQueue {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues at the back, shedding under pressure. Returns the
    /// payload kind of the frame shed to make room, if any; the queue
    /// also counts it ([`FrameQueue::dropped`],
    /// [`FrameQueue::shed_publications`]), so no loss is silent.
    /// Accepts anything convertible to a [`FrameBuf`] (`Message`
    /// included) so tuple-era callers keep working for one release.
    pub fn push_back(&self, frame: impl Into<FrameBuf>) -> Option<MessageKind> {
        self.push(frame.into(), false)
    }

    /// Queue-jumps control traffic (the post-reconnect sync request).
    /// Returns the payload kind of any frame shed to make room.
    pub fn push_front(&self, frame: impl Into<FrameBuf>) -> Option<MessageKind> {
        self.push(frame.into(), true)
    }

    fn push(&self, frame: FrameBuf, front: bool) -> Option<MessageKind> {
        let mut s = self.lock();
        if s.closed {
            return None;
        }
        let mut shed = None;
        if s.q.len() >= self.capacity {
            // Shed decisions look through reliability framing: a
            // sequenced publication is still a publication. The kind is
            // precomputed on the frame, so pressure scans cost no
            // per-frame re-derivation.
            if let Some(i) = s.q.iter().position(|f| f.kind() == MessageKind::Publish) {
                let kind = s.q.remove(i).map_or(MessageKind::Publish, |f| f.kind());
                s.dropped += 1;
                s.shed.record(kind);
                shed = Some(kind);
            } else if frame.is_payload() {
                // Only control traffic is buffered; the arriving
                // payload frame gives way.
                let kind = frame.kind();
                s.dropped += 1;
                s.shed.record(kind);
                return Some(kind);
            } else {
                let kind = s.q.pop_front().map(|f| f.kind());
                s.dropped += 1;
                if let Some(kind) = kind {
                    s.shed.record(kind);
                }
                shed = kind;
            }
        }
        if front {
            s.q.push_front(frame);
        } else {
            s.q.push_back(frame);
        }
        drop(s);
        self.cv.notify_one();
        shed
    }

    /// Blocks for the next frame, or `timeout` of idleness. The
    /// `Closed`/`Down` flags win over queued frames so a supervisor
    /// reacts to shutdown and link death promptly.
    pub fn pop_wait(&self, timeout: Duration) -> Pop {
        let mut s = self.lock();
        loop {
            if s.closed {
                return Pop::Closed;
            }
            if s.down {
                return Pop::Down;
            }
            if let Some(f) = s.q.pop_front() {
                if let Some(h) = f.seq_header() {
                    // Hold a copy until the peer's cumulative ack
                    // covers it; a new connection epoch replays these.
                    // The clone shares the frame's body — the hold
                    // costs a handful of pointers, not a payload copy.
                    if s.inflight.len() >= self.capacity {
                        s.inflight.pop_front();
                    }
                    s.inflight.push_back((h.epoch, h.seq, f.clone()));
                }
                return Pop::Msg(f);
            }
            let (next, res) = self
                .cv
                .wait_timeout(s, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            s = next;
            if res.timed_out() {
                return if s.closed {
                    Pop::Closed
                } else if s.down {
                    Pop::Down
                } else {
                    Pop::Idle
                };
            }
        }
    }

    /// The reader's death notice: wakes the writer so the epoch ends.
    pub fn mark_down(&self) {
        self.lock().down = true;
        self.cv.notify_all();
    }

    /// Starts a fresh connection epoch, replaying any in-flight
    /// sequenced frames to the front of the queue — frames written
    /// into the dying socket may never have arrived, and the peer's
    /// dedup window makes over-replay harmless.
    pub fn clear_down(&self) {
        let mut s = self.lock();
        s.down = false;
        let inflight = std::mem::take(&mut s.inflight);
        for (_, _, m) in inflight.into_iter().rev() {
            s.q.push_front(m);
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Applies a cumulative ack from the peer: drops every held
    /// in-flight frame of `epoch` with `seq <= acked`, plus frames of
    /// older epochs (their incarnation is gone).
    pub fn ack(&self, epoch: u64, acked: u64) {
        let mut s = self.lock();
        s.inflight
            .retain(|(e, q, _)| *e > epoch || (*e == epoch && *q > acked));
    }

    /// Returns a frame the writer failed to send. Sequenced frames are
    /// dropped here — the in-flight hold already owns a copy that the
    /// next connection epoch replays, and re-queueing would duplicate
    /// it. Control frames go back to the front as before.
    pub fn requeue_unsent(&self, frame: impl Into<FrameBuf>) {
        let frame = frame.into();
        if frame.seq_header().is_some() {
            return;
        }
        self.push_front(frame);
    }

    /// Sequenced frames currently held awaiting acknowledgement.
    pub fn inflight_len(&self) -> usize {
        self.lock().inflight.len()
    }

    /// Permanent shutdown; subsequent pushes are discarded silently.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Total frames shed so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Shed counts by payload kind (a sequenced publication counts as
    /// a publication).
    pub fn shed_counters(&self) -> KindCounters {
        self.lock().shed
    }

    /// Publications shed by this queue — the loss that used to be
    /// invisible inside [`FrameQueue::dropped`].
    pub fn shed_publications(&self) -> u64 {
        self.shed_counters().get(MessageKind::Publish)
    }

    /// Frames currently buffered (test/diagnostic aid).
    pub fn len(&self) -> usize {
        self.lock().q.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use xdn_broker::{Message, MessageKind, Publication};
    use xdn_core::rtable::SubId;
    use xdn_xml::{DocId, PathId};

    fn publication(doc: u64) -> Message {
        Message::Publish(Publication {
            doc_id: DocId(doc),
            path_id: PathId(0),
            elements: vec!["a".to_owned()],
            attributes: Vec::new(),
            doc_bytes: 32,
        })
    }

    #[test]
    fn queue_sheds_publications_before_control() {
        let q = FrameQueue::new(2);
        q.push_back(publication(1));
        q.push_back(publication(2));
        // Control traffic displaces the oldest publication.
        q.push_back(Message::subscribe(SubId(1), "/a".parse().expect("xpe")));
        // A publication arriving at a full queue of one pub + one
        // control displaces the remaining pub...
        q.push_back(publication(3));
        // ...and one arriving with only control queued is itself shed.
        q.push_back(Message::Unsubscribe { id: SubId(9) });
        q.push_back(publication(4));
        let mut kinds = Vec::new();
        while let Pop::Msg(m) = q.pop_wait(Duration::from_millis(1)) {
            kinds.push(m.kind());
        }
        assert_eq!(
            kinds,
            vec![MessageKind::Subscribe, MessageKind::Unsubscribe],
            "control survived"
        );
        assert_eq!(q.dropped(), 4, "all four publications were shed");
    }

    #[test]
    fn closed_queue_discards_pushes() {
        let q = FrameQueue::new(4);
        q.close();
        q.push_back(publication(1));
        assert!(q.is_empty());
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Pop::Closed));
    }

    #[test]
    fn down_epoch_toggles() {
        let q = FrameQueue::new(4);
        q.mark_down();
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Pop::Down));
        q.clear_down();
        q.push_back(publication(1));
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Pop::Msg(_)));
    }

    fn sequenced(doc: u64, seq: u64) -> Message {
        Message::Sequenced {
            epoch: 1,
            seq,
            low: 1,
            inner: std::sync::Arc::new(publication(doc)),
        }
    }

    #[test]
    fn shedding_reports_and_counts_kinds() {
        let q = FrameQueue::new(1);
        assert_eq!(q.push_back(publication(1)), None);
        // A sequenced publication displaces the raw one — the shed
        // policy looks through the reliability header.
        assert_eq!(q.push_back(sequenced(2, 1)), Some(MessageKind::Publish));
        assert_eq!(q.shed_publications(), 1);
        assert_eq!(q.shed_counters().get(MessageKind::Publish), 1);
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn inflight_replays_on_new_epoch_and_prunes_on_ack() {
        let q = FrameQueue::new(8);
        q.push_back(sequenced(1, 1));
        q.push_back(sequenced(2, 2));
        // The writer pops both; they move to the in-flight hold.
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Pop::Msg(_)));
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Pop::Msg(_)));
        assert_eq!(q.inflight_len(), 2);
        // The peer acks seq 1: only seq 2 remains held.
        q.ack(1, 1);
        assert_eq!(q.inflight_len(), 1);
        // Connection dies and a new epoch starts: the held frame is
        // replayed at the front.
        q.mark_down();
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Pop::Down));
        q.clear_down();
        let Pop::Msg(m) = q.pop_wait(Duration::from_millis(1)) else {
            panic!("expected the replayed frame");
        };
        assert_eq!(m.seq_header().map(|h| h.seq), Some(2));
    }

    #[test]
    fn requeue_unsent_drops_sequenced_keeps_control() {
        let q = FrameQueue::new(8);
        // A sequenced frame that failed to write is NOT re-queued (the
        // in-flight hold owns it)...
        q.requeue_unsent(sequenced(1, 1));
        assert!(q.is_empty());
        // ...but control traffic goes back to the front.
        q.requeue_unsent(Message::SyncRequest);
        assert_eq!(q.len(), 1);
    }
}
