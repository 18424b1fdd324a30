//! Concurrency models of the PR 1 primitives, run under `--cfg loom`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p xdn-net --test loom --release
//! ```
//!
//! Each model drives [`xdn_net::queue::FrameQueue`] — the supervisor's
//! bounded outbound buffer — through a small adversarial schedule and
//! asserts a schedule-independent postcondition. Under the vendored
//! offline `loom` stand-in, `loom::model` re-runs each closure many
//! times (`LOOM_ITERS`, default 64) with real threads, sampling
//! schedules; under the real `loom` crate the same code explores them
//! exhaustively.
#![cfg(loom)]

use std::time::Duration;
use xdn_broker::{FrameBuf, Message, MessageKind, Publication};
use xdn_core::rtable::SubId;
use xdn_net::queue::{FrameQueue, Pop};
use xdn_xml::{DocId, PathId};

fn publication(doc: u64) -> Message {
    Message::Publish(Publication {
        doc_id: DocId(doc),
        path_id: PathId(0),
        elements: vec!["a".to_owned()],
        attributes: Vec::new(),
        doc_bytes: 16,
    })
}

fn control() -> Message {
    Message::subscribe(SubId(1), "/a".parse().expect("xpe"))
}

/// A sequenced publication of sender epoch 1.
fn sequenced(seq: u64) -> FrameBuf {
    Message::Sequenced {
        epoch: 1,
        seq,
        low: 1,
        inner: std::sync::Arc::new(publication(seq)),
    }
    .into()
}

fn seqs(frames: &[FrameBuf]) -> Vec<u64> {
    frames
        .iter()
        .filter_map(|f| f.seq_header().map(|h| h.seq))
        .collect()
}

/// Pops batches until the queue idles, flattened.
fn drain_frames(q: &FrameQueue) -> Vec<FrameBuf> {
    let mut frames = Vec::new();
    while let Pop::Frames(batch) = q.pop_wait(Duration::from_millis(1)) {
        frames.extend(batch);
    }
    frames
}

/// Drains the queue without blocking on timeouts longer than needed.
fn drain(q: &FrameQueue) -> Vec<MessageKind> {
    drain_frames(q).iter().map(FrameBuf::kind).collect()
}

/// Concurrent pushers on a capacity-1 queue: whatever the interleaving,
/// the control frame survives and exactly one publication is shed.
/// (Either the publication lands first and is displaced, or it arrives
/// at a full queue of control and gives way — both count one drop.)
#[test]
fn shedding_preserves_control_under_races() {
    loom::model(|| {
        let q = loom::sync::Arc::new(FrameQueue::new(1));
        let qa = q.clone();
        let qb = q.clone();
        let a = loom::thread::spawn(move || qa.push_back(publication(1)));
        let b = loom::thread::spawn(move || qb.push_back(control()));
        a.join().expect("pusher a");
        b.join().expect("pusher b");
        let kinds = drain(&q);
        assert_eq!(kinds, vec![MessageKind::Subscribe], "control survived");
        assert_eq!(q.dropped(), 1, "exactly the publication was shed");
    });
}

/// The supervisor shutdown handshake: a writer parked in `pop_wait`
/// must observe `close()` from another thread and terminate, and
/// pushes racing with the close never resurrect the queue.
#[test]
fn close_terminates_a_parked_writer() {
    loom::model(|| {
        let q = loom::sync::Arc::new(FrameQueue::new(4));
        let qw = q.clone();
        let writer = loom::thread::spawn(move || {
            let mut popped = 0u32;
            loop {
                match qw.pop_wait(Duration::from_millis(5)) {
                    Pop::Closed => return popped,
                    Pop::Frames(batch) => popped += batch.len() as u32,
                    Pop::Idle | Pop::Down => {}
                }
            }
        });
        let qp = q.clone();
        let pusher = loom::thread::spawn(move || {
            qp.push_back(control());
            qp.push_back(publication(2));
        });
        q.close();
        pusher.join().expect("pusher");
        let popped = writer.join().expect("writer must observe Closed");
        assert!(popped <= 2, "never pops more than was pushed");
        // Whatever raced the close, the queue stays closed and empty
        // of effects: further pushes are discarded.
        q.push_back(control());
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Pop::Closed));
    });
}

/// The reader-death / reconnect epoch protocol: `mark_down` from the
/// reader thread must wake and divert the writer (`Pop::Down` wins
/// over queued frames), and `clear_down` starts a clean epoch in which
/// buffered frames flow again.
#[test]
fn down_epochs_divert_then_recover() {
    loom::model(|| {
        let q = loom::sync::Arc::new(FrameQueue::new(4));
        q.push_back(control());
        let qr = q.clone();
        let reader = loom::thread::spawn(move || qr.mark_down());
        let qw = q.clone();
        let writer = loom::thread::spawn(move || {
            // Either the frame pops before the down marker lands, or
            // the down marker wins; both are legal epochs endings.
            matches!(qw.pop_wait(Duration::from_millis(5)), Pop::Down)
        });
        reader.join().expect("reader");
        let _saw_down_first = writer.join().expect("writer");
        // The epoch is now down regardless of pop order.
        assert!(matches!(q.pop_wait(Duration::from_millis(1)), Pop::Down));
        // Reconnect: the next epoch must deliver queued + new frames.
        q.clear_down();
        q.push_back(publication(9));
        let kinds = drain(&q);
        assert!(
            kinds.contains(&MessageKind::Publish),
            "fresh epoch delivers frames, got {kinds:?}"
        );
    });
}

/// The supervisor's batch pop racing the broker loop's pushes, the
/// peer's cumulative ack, and the reader's death notice: whatever the
/// interleaving, the queue loses and duplicates no frame. Every pushed
/// frame ends up either popped and acked, or — after the reconnect's
/// `clear_down` — replayed exactly once, in sequence order.
#[test]
fn batch_pop_loses_and_duplicates_nothing() {
    loom::model(|| {
        let q = loom::sync::Arc::new(FrameQueue::new(8));
        q.push_back_all([sequenced(1), sequenced(2)]);
        let qp = q.clone();
        let popper = loom::thread::spawn(move || match qp.pop_wait(Duration::from_millis(5)) {
            Pop::Frames(batch) => seqs(&batch),
            Pop::Idle | Pop::Down | Pop::Closed => Vec::new(),
        });
        let qs = q.clone();
        let pusher = loom::thread::spawn(move || qs.push_back_all([sequenced(3), sequenced(4)]));
        let qa = q.clone();
        let acker = loom::thread::spawn(move || qa.ack(1, 1));
        let qd = q.clone();
        let reader = loom::thread::spawn(move || qd.mark_down());
        let popped = popper.join().expect("popper");
        pusher.join().expect("pusher");
        acker.join().expect("acker");
        reader.join().expect("reader");

        assert!(
            popped.windows(2).all(|w| w[0] < w[1]),
            "a batch pops in queue order: {popped:?}"
        );
        q.clear_down();
        let replayed = seqs(&drain_frames(&q));
        assert!(
            replayed.windows(2).all(|w| w[0] < w[1]),
            "replayed once each, in order: {replayed:?}"
        );
        for seq in 1..=4 {
            // Only seq 1 can be gone: popped, then covered by the ack.
            let gone = !replayed.contains(&seq);
            assert!(
                !gone || (seq == 1 && popped.contains(&seq)),
                "seq {seq} lost: popped {popped:?}, replayed {replayed:?}"
            );
        }
        assert_eq!(q.dropped(), 0, "nothing shed below capacity");
    });
}
