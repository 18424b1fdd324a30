//! Property tests for the wire codec and the frame data plane.
//!
//! Obligations for a codec fed by a network socket: `decode_frame`
//! must never panic, whatever bytes arrive (a peer is untrusted
//! input); every encodable message — the sync frames included — must
//! round-trip exactly; and the encode-once fan-out path must be
//! byte-identical to the flat per-peer encoding it replaced, with no
//! stale bytes leaking across pooled-buffer reuse.

use proptest::prelude::*;
use std::sync::Arc;
use xdn_broker::wire::{self, FrameBuf, SeqHeader};
use xdn_broker::{Message, Publication};
use xdn_core::adv::{AdvPath, Advertisement};
use xdn_core::rtable::{AdvId, SubId};
use xdn_xml::{DocId, PathId};
use xdn_xpath::Xpe;

const NAMES: [&str; 6] = ["a", "b", "claim", "seq-data", "x1", "n"];

fn name(ix: usize) -> String {
    NAMES[ix % NAMES.len()].to_string()
}

/// Reference encoding: one frame into a fresh buffer.
fn enc(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode_into(msg, &mut out);
    out
}

/// Always-valid XPE text built from known-good pieces: `/` or `//`
/// separators, names or `*` steps, an optional attribute predicate.
fn xpe_strategy() -> impl Strategy<Value = Xpe> {
    let step = (any::<bool>(), any::<bool>(), 0usize..NAMES.len()).prop_map(|(deep, star, ix)| {
        let axis = if deep { "//" } else { "/" };
        let test = if star { "*".to_string() } else { name(ix) };
        format!("{axis}{test}")
    });
    (
        proptest::collection::vec(step, 1..5),
        any::<bool>(),
        0usize..NAMES.len(),
    )
        .prop_map(|(steps, with_pred, ix)| {
            let mut text = steps.concat();
            if with_pred {
                text.push_str(&format!("[@{}='v']", name(ix)));
            }
            text.parse::<Xpe>().expect("constructed XPE text is valid")
        })
}

fn adv_strategy() -> impl Strategy<Value = Advertisement> {
    prop_oneof![
        proptest::collection::vec(0usize..NAMES.len(), 1..5).prop_map(|ixs| {
            let names: Vec<String> = ixs.into_iter().map(name).collect();
            Advertisement::non_recursive(AdvPath::from_names(&names))
        }),
        (
            0usize..NAMES.len(),
            0usize..NAMES.len(),
            0usize..NAMES.len()
        )
            .prop_map(|(a, b, c)| {
                Advertisement::parse(&format!("/{}(/{})+/{}", name(a), name(b), name(c)))
                    .expect("constructed recursive advertisement is valid")
            }),
    ]
}

fn publication_strategy() -> impl Strategy<Value = Publication> {
    (
        any::<u64>(),
        any::<u32>(),
        proptest::collection::vec(0usize..NAMES.len(), 1..6),
        any::<bool>(),
        0usize..1_000_000,
    )
        .prop_map(|(doc, path, ixs, with_attr, bytes)| {
            let elements: Vec<String> = ixs.iter().copied().map(name).collect();
            let mut attributes: Vec<Vec<(String, String)>> =
                elements.iter().map(|_| Vec::new()).collect();
            if with_attr {
                attributes[0].push(("lang".to_string(), "en".to_string()));
            }
            Publication {
                doc_id: DocId(doc),
                path_id: PathId(path),
                elements,
                attributes,
                doc_bytes: bytes,
            }
        })
}

/// Payload messages: the kinds the reliability layer wraps in
/// [`Message::Sequenced`] headers.
fn payload_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), adv_strategy()).prop_map(|(id, adv)| Message::advertise(AdvId(id), adv)),
        any::<u64>().prop_map(|id| Message::Unadvertise { id: AdvId(id) }),
        (any::<u64>(), xpe_strategy()).prop_map(|(id, xpe)| Message::subscribe(SubId(id), xpe)),
        any::<u64>().prop_map(|id| Message::Unsubscribe { id: SubId(id) }),
        publication_strategy().prop_map(Message::Publish),
    ]
}

/// Sequence-counter values biased toward the numeric edges: the
/// wraparound neighbourhood (`u64::MAX`), the window floor (0, 1), and
/// arbitrary values in between.
fn counter_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX - 1),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

fn sequenced_strategy() -> impl Strategy<Value = Message> {
    (
        counter_strategy(),
        counter_strategy(),
        counter_strategy(),
        payload_strategy(),
    )
        .prop_map(|(epoch, seq, low, inner)| Message::Sequenced {
            epoch,
            seq,
            low,
            inner: Arc::new(inner),
        })
}

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        payload_strategy(),
        Just(Message::Heartbeat),
        Just(Message::SyncRequest),
        (
            proptest::collection::vec((any::<u64>(), adv_strategy()), 0..4),
            proptest::collection::vec((any::<u64>(), xpe_strategy()), 0..4),
        )
            .prop_map(|(advs, subs)| Message::SyncState {
                advs: advs.into_iter().map(|(id, a)| (AdvId(id), a)).collect(),
                subs: subs.into_iter().map(|(id, x)| (SubId(id), x)).collect(),
            }),
        (counter_strategy(), counter_strategy())
            .prop_map(|(epoch, seq)| Message::Ack { epoch, seq }),
        sequenced_strategy(),
    ]
}

proptest! {
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Err is fine; tearing down the process is not.
        let _ = wire::decode_frame(&bytes);
    }

    #[test]
    fn decode_never_panics_on_corrupted_frames(
        msg in message_strategy(),
        flip_at in any::<u16>(),
        flip_with in 1u8..=255,
    ) {
        let mut frame = enc(&msg);
        let ix = flip_at as usize % frame.len();
        frame[ix] ^= flip_with;
        let _ = wire::decode_frame(&frame);
    }

    #[test]
    fn every_message_round_trips(msg in message_strategy()) {
        let frame = enc(&msg);
        let (decoded, consumed) = wire::decode_frame(&frame).expect("own encoding must decode");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(consumed, frame.len());
    }

    #[test]
    fn decode_ignores_trailing_bytes(
        msg in message_strategy(),
        trailer in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let frame = enc(&msg);
        let mut stream = frame.clone();
        stream.extend_from_slice(&trailer);
        let (decoded, consumed) = wire::decode_frame(&stream).expect("framed prefix must decode");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(consumed, frame.len());
    }

    /// Reliability headers at the numeric edges — `u64::MAX` epochs and
    /// sequence numbers included — must survive the codec bit-exactly;
    /// the dedup window's wraparound arithmetic depends on it.
    #[test]
    fn sequenced_extremes_round_trip(msg in prop_oneof![
        sequenced_strategy(),
        (counter_strategy(), counter_strategy())
            .prop_map(|(epoch, seq)| Message::Ack { epoch, seq }),
    ]) {
        let frame = enc(&msg);
        let (decoded, consumed) = wire::decode_frame(&frame).expect("own encoding must decode");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(consumed, frame.len());
    }

    /// The encode-once shared-body path must be byte-identical to the
    /// flat per-message encoding for every message variant — a
    /// `FrameBuf` is a layout over the same bytes, not a new format.
    #[test]
    fn framebuf_is_byte_identical_to_flat_encode(msg in message_strategy()) {
        let frame = FrameBuf::from_message(msg.clone());
        prop_assert_eq!(frame.to_wire_bytes(), enc(&msg));
        prop_assert_eq!(frame.encoded_len(), enc(&msg).len());
        // `write_to` produces the same bytes again.
        let mut sink = Vec::new();
        frame.write_to(&mut sink).expect("write to a Vec");
        prop_assert_eq!(sink, enc(&msg));
    }

    /// Stamping one shared body for k peers must equal k independent
    /// per-peer encodes of the equivalent `Sequenced` messages — the
    /// 29-byte header rewrite cannot disturb the shared payload.
    #[test]
    fn stamped_fanout_matches_per_peer_encode(
        inner in payload_strategy(),
        epoch in counter_strategy(),
        low in counter_strategy(),
        peers in 1u64..8,
    ) {
        let base = FrameBuf::from_message(inner.clone());
        for seq in 1..=peers {
            let stamped = base.stamped(SeqHeader { epoch, seq, low });
            let equivalent = Message::Sequenced {
                epoch,
                seq,
                low,
                inner: Arc::new(inner.clone()),
            };
            prop_assert_eq!(stamped.to_wire_bytes(), enc(&equivalent));
        }
    }

    /// A pooled buffer full of junk from a previous frame must be fully
    /// overwritten on reuse: the encode starts from a cleared buffer,
    /// so no stale byte of `junk` can reach the wire.
    #[test]
    fn pooled_buffers_leak_no_stale_bytes(
        first in message_strategy(),
        second in message_strategy(),
        junk in proptest::collection::vec(1u8..=255, 1..64),
    ) {
        let mut buf = wire::pool_acquire();
        buf.extend_from_slice(&junk);
        wire::pool_release(buf);
        let mut buf = wire::pool_acquire();
        prop_assert!(buf.is_empty(), "acquire must hand out cleared buffers");
        wire::encode_into(&first, &mut buf);
        prop_assert_eq!(&buf, &enc(&first));
        buf.clear();
        wire::encode_into(&second, &mut buf);
        prop_assert_eq!(&buf, &enc(&second));
        wire::pool_release(buf);
    }

    /// A sequenced frame whose payload is itself a reliability frame is
    /// hostile input (unbounded nesting): encode happily produces the
    /// bytes, decode must refuse them — whatever the header values.
    #[test]
    fn nested_reliability_frames_are_rejected(
        epoch in counter_strategy(),
        seq in counter_strategy(),
        low in counter_strategy(),
        inner in prop_oneof![
            sequenced_strategy(),
            (counter_strategy(), counter_strategy())
                .prop_map(|(e, s)| Message::Ack { epoch: e, seq: s }),
        ],
    ) {
        let msg = Message::Sequenced { epoch, seq, low, inner: Arc::new(inner) };
        let frame = enc(&msg);
        prop_assert!(wire::decode_frame(&frame).is_err(), "nested reliability frame must be refused");
    }

    /// Frames from a dead incarnation (an epoch older than the one the
    /// receiver has already seen from the same peer) are dropped
    /// without output and without panic, for every header combination.
    #[test]
    fn stale_epoch_frames_are_dropped(
        inner in payload_strategy(),
        new_epoch in counter_strategy(),
        old_back in any::<u64>(),
        seq in counter_strategy(),
        low in counter_strategy(),
    ) {
        use xdn_broker::{Broker, BrokerId, Dest, RoutingConfig};
        let new_epoch = new_epoch.max(2);
        // Any epoch strictly below the established one is stale.
        let old_epoch = 1 + old_back % (new_epoch - 1);
        let config = RoutingConfig::WithAdvWithCov;
        let mut b = Broker::new(BrokerId(0), config);
        b.add_neighbor(BrokerId(1));
        let from = Dest::Broker(BrokerId(1));
        // Establish the new epoch first...
        let _ = b.handle_frames(from, Message::Sequenced {
            epoch: new_epoch,
            seq: 1,
            low: 1,
            inner: Arc::new(Message::Heartbeat),
        });
        // ...then a straggler from the previous incarnation arrives.
        let out = b.handle_frames(from, Message::Sequenced {
            epoch: old_epoch,
            seq,
            low,
            inner: Arc::new(inner),
        });
        prop_assert!(out.is_empty(), "stale frame must produce no output");
        prop_assert_eq!(b.stats().stale_frames, 1);
    }
}
