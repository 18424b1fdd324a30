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

/// Most frames one [`FrameQueue::pop_wait`] call takes: bounds the
/// batch a supervisor holds and writes at once.
pub const POP_BATCH_LIMIT: usize = 256;

/// The result of one [`FrameQueue::pop_wait`] call.
pub enum Pop {
    /// Every frame that was ready, oldest first, at most
    /// [`POP_BATCH_LIMIT`]; never empty.
    Frames(Vec<FrameBuf>),
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

impl QueueState {
    /// Enqueues one frame, shedding under pressure: at `capacity`, the
    /// oldest buffered publication makes room; with only control
    /// traffic buffered, an arriving payload frame gives way, and an
    /// arriving control frame displaces the oldest one. Returns the
    /// kind of the frame shed, if any.
    fn push(&mut self, frame: FrameBuf, front: bool, capacity: usize) -> Option<MessageKind> {
        if self.closed {
            return None;
        }
        let mut shed = None;
        if self.q.len() >= capacity {
            // Shed decisions look through reliability framing: a
            // sequenced publication is still a publication. The kind is
            // precomputed on the frame, so pressure scans cost no
            // per-frame re-derivation.
            if let Some(i) = self.q.iter().position(|f| f.kind() == MessageKind::Publish) {
                let kind = self.q.remove(i).map_or(MessageKind::Publish, |f| f.kind());
                self.dropped += 1;
                self.shed.record(kind);
                shed = Some(kind);
            } else if frame.is_payload() {
                let kind = frame.kind();
                self.dropped += 1;
                self.shed.record(kind);
                return Some(kind);
            } else {
                let kind = self.q.pop_front().map(|f| f.kind());
                self.dropped += 1;
                if let Some(kind) = kind {
                    self.shed.record(kind);
                }
                shed = kind;
            }
        }
        if front {
            self.q.push_front(frame);
        } else {
            self.q.push_back(frame);
        }
        shed
    }
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

    /// Enqueues a drain's frames for this peer at the back, in order,
    /// under one lock and with one wake-up. Each frame is shed or kept
    /// by [`FrameQueue::push_back`]'s rule, as if pushed on its own.
    pub fn push_back_all(&self, frames: impl IntoIterator<Item = FrameBuf>) {
        let mut s = self.lock();
        for frame in frames {
            s.push(frame, false, self.capacity);
        }
        drop(s);
        self.cv.notify_one();
    }

    fn push(&self, frame: FrameBuf, front: bool) -> Option<MessageKind> {
        let shed = self.lock().push(frame, front, self.capacity);
        self.cv.notify_one();
        shed
    }

    /// Blocks until frames are ready, then takes all of them, up to
    /// [`POP_BATCH_LIMIT`]; or waits out `timeout` of idleness. The
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
            if !s.q.is_empty() {
                let take = s.q.len().min(POP_BATCH_LIMIT);
                let batch: Vec<FrameBuf> = s.q.drain(..take).collect();
                for f in &batch {
                    if let Some(h) = f.seq_header() {
                        // Hold a copy until the peer's cumulative ack
                        // covers it; a new connection epoch replays
                        // these. The clone shares the frame's body —
                        // the hold costs a handful of pointers, not a
                        // payload copy.
                        if s.inflight.len() >= self.capacity {
                            s.inflight.pop_front();
                        }
                        s.inflight.push_back((h.epoch, h.seq, f.clone()));
                    }
                }
                return Pop::Frames(batch);
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

    /// Returns a popped batch the writer failed to send. Sequenced
    /// frames are dropped here — the in-flight hold already owns
    /// copies that the next connection epoch replays, and re-queueing
    /// would duplicate them. Control frames go back to the front in
    /// their original order, ahead of anything queued since; some may
    /// have reached the peer before the write failed, and receiving
    /// one twice is harmless.
    pub fn requeue_unsent(&self, batch: Vec<FrameBuf>) {
        let mut s = self.lock();
        for frame in batch.into_iter().rev() {
            if frame.seq_header().is_none() {
                s.push(frame, true, self.capacity);
            }
        }
        drop(s);
        self.cv.notify_one();
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

    /// Pops batches until the queue idles, flattened.
    fn drain(q: &FrameQueue) -> Vec<FrameBuf> {
        let mut frames = Vec::new();
        while let Pop::Frames(batch) = q.pop_wait(Duration::from_millis(1)) {
            frames.extend(batch);
        }
        frames
    }

    fn kinds(frames: &[FrameBuf]) -> Vec<MessageKind> {
        frames.iter().map(FrameBuf::kind).collect()
    }

    fn seqs(frames: &[FrameBuf]) -> Vec<Option<u64>> {
        frames
            .iter()
            .map(|f| f.seq_header().map(|h| h.seq))
            .collect()
    }

    #[test]
    fn queue_sheds_publications_before_control() {
        let frames = || -> Vec<FrameBuf> {
            vec![
                publication(1).into(),
                publication(2).into(),
                // Control traffic displaces the oldest publication.
                Message::subscribe(SubId(1), "/a".parse().expect("xpe")).into(),
                // A publication arriving at a full queue of one pub +
                // one control displaces the remaining pub...
                publication(3).into(),
                // ...and one arriving with only control queued is
                // itself shed.
                Message::Unsubscribe { id: SubId(9) }.into(),
                publication(4).into(),
            ]
        };
        // Pushed one at a time, or as one drain's run: same rule.
        let one_by_one = FrameQueue::new(2);
        for f in frames() {
            one_by_one.push_back(f);
        }
        let as_a_run = FrameQueue::new(2);
        as_a_run.push_back_all(frames());
        for q in [one_by_one, as_a_run] {
            assert_eq!(
                kinds(&drain(&q)),
                vec![MessageKind::Subscribe, MessageKind::Unsubscribe],
                "control survived"
            );
            assert_eq!(q.dropped(), 4, "all four publications were shed");
        }
    }

    #[test]
    fn closed_queue_discards_pushes() {
        let q = FrameQueue::new(4);
        q.close();
        q.push_back(publication(1));
        q.push_back_all([publication(2).into()]);
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
        assert!(matches!(
            q.pop_wait(Duration::from_millis(1)),
            Pop::Frames(_)
        ));
    }

    #[test]
    fn pop_takes_every_ready_frame_up_to_the_limit() {
        let q = FrameQueue::new(2 * POP_BATCH_LIMIT);
        q.push_back_all((0..POP_BATCH_LIMIT as u64 + 3).map(|d| publication(d).into()));
        let Pop::Frames(first) = q.pop_wait(Duration::from_millis(1)) else {
            panic!("frames were ready");
        };
        assert_eq!(first.len(), POP_BATCH_LIMIT);
        assert_eq!(first[0].payload(), &publication(0));
        let Pop::Frames(rest) = q.pop_wait(Duration::from_millis(1)) else {
            panic!("frames were ready");
        };
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[0].payload(), &publication(POP_BATCH_LIMIT as u64));
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
        q.push_back(Message::SyncRequest);
        q.push_back(sequenced(2, 2));
        q.push_back(sequenced(3, 3));
        // One pop takes all four; every sequenced one is held.
        let Pop::Frames(batch) = q.pop_wait(Duration::from_millis(1)) else {
            panic!("frames were ready");
        };
        assert_eq!(seqs(&batch), vec![Some(1), None, Some(2), Some(3)]);
        assert_eq!(q.inflight_len(), 3);
        // The peer acks seq 1: only seqs 2 and 3 remain held.
        q.ack(1, 1);
        assert_eq!(q.inflight_len(), 2);
        // Connection dies and a new epoch starts: the held frames are
        // replayed at the front in their original order, ahead of a
        // frame queued meanwhile.
        q.mark_down();
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Pop::Down));
        q.push_back(sequenced(4, 4));
        q.clear_down();
        assert_eq!(seqs(&drain(&q)), vec![Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn requeue_unsent_drops_sequenced_keeps_control() {
        let q = FrameQueue::new(8);
        q.push_back(Message::SyncRequest);
        q.push_back(sequenced(1, 1));
        q.push_back(Message::Heartbeat);
        let Pop::Frames(batch) = q.pop_wait(Duration::from_millis(1)) else {
            panic!("frames were ready");
        };
        q.push_back(Message::Unsubscribe { id: SubId(9) });
        // The write failed: the control frames go back to the front in
        // their original order, ahead of the frame queued since. The
        // sequenced frame is NOT re-queued — the in-flight hold owns it.
        q.requeue_unsent(batch);
        assert_eq!(
            kinds(&drain(&q)),
            vec![
                MessageKind::SyncRequest,
                MessageKind::Heartbeat,
                MessageKind::Unsubscribe
            ]
        );
        assert_eq!(q.inflight_len(), 1);
    }
}
