//! Binary wire codec and the zero-copy frame data plane.
//!
//! The simulator moves [`Message`] values in memory; a TCP deployment
//! needs them on the wire. This module provides a compact,
//! length-prefixed binary framing:
//!
//! ```text
//! frame   := u32 length (BE) | u8 tag | body
//! body    := varies by tag; strings are u16-length-prefixed UTF-8
//! ```
//!
//! Advertisements and XPEs travel in their canonical textual forms —
//! both round-trip losslessly through their parsers, the encodings are
//! compact (a location step costs its name plus one or two operator
//! bytes), and the text doubles as a cross-implementation contract.
//!
//! # Encode-once fan-out
//!
//! A publication routed to *k* neighbours used to be encoded *k* times:
//! once per peer, and for sequenced frames the inner payload was
//! encoded into a temporary and copied into the outer body a second
//! time. [`FrameBuf`] fixes both. It holds the payload's encoded bytes
//! in one immutable shared body, produced lazily by [`encode_into`] at
//! most once per fan-out, plus a small per-peer [`SeqHeader`]; stamping
//! a frame for another peer ([`FrameBuf::stamped`]) shares the body and
//! rewrites only the 29-byte `Sequenced` header region. Scratch buffers
//! come from a bounded thread-local pool ([`pool_acquire`] /
//! [`pool_release`]) whose hit/miss/discard counters — together with
//! encode-call and encoded-byte totals — are exposed through
//! [`codec_stats`].
//!
//! ```
//! use xdn_broker::wire::{decode_frame, FrameBuf};
//! use xdn_broker::Message;
//! use xdn_core::rtable::SubId;
//!
//! let msg = Message::subscribe(SubId(7), "/news//headline".parse().unwrap());
//! let frame = FrameBuf::from(msg.clone());
//! let bytes = frame.to_wire_bytes(); // encoded exactly once, however many peers
//! assert_eq!(decode_frame(&bytes).unwrap().0, msg);
//! ```

use crate::message::{Dest, Message, MessageKind, Publication};
use bytes::{Buf, BufMut};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use xdn_core::adv::Advertisement;
use xdn_core::rtable::{AdvId, SubId};
use xdn_xml::{DocId, PathId};

/// Frames whose declared body length exceeds this are a protocol
/// violation: [`decode_frame`] rejects them before allocating, and
/// every transport (TCP readers, future substrates) must enforce the
/// same cap when reading a length prefix off a socket.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Size of the mutable per-peer header region of a sequenced frame:
/// `u32 len | u8 tag | u64 epoch | u64 seq | u64 low`. Everything after
/// it is the shared, immutable inner frame.
pub const SEQ_HEADER_BYTES: usize = 4 + 1 + 8 + 8 + 8;

const TAG_ADVERTISE: u8 = 1;
const TAG_UNADVERTISE: u8 = 2;
const TAG_SUBSCRIBE: u8 = 3;
const TAG_UNSUBSCRIBE: u8 = 4;
const TAG_PUBLISH: u8 = 5;
const TAG_HEARTBEAT: u8 = 6;
const TAG_SYNC_REQUEST: u8 = 7;
const TAG_SYNC_STATE: u8 = 8;
const TAG_ACK: u8 = 9;
const TAG_SEQUENCED: u8 = 10;

/// An error produced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid wire frame: {}", self.message)
    }
}

impl Error for WireError {}

// ---------------------------------------------------------------------
// Codec statistics and the scratch-buffer pool
// ---------------------------------------------------------------------

static ENCODE_CALLS: AtomicU64 = AtomicU64::new(0);
static ENCODED_BYTES: AtomicU64 = AtomicU64::new(0);
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);
static POOL_DISCARDS: AtomicU64 = AtomicU64::new(0);

/// Buffers a thread retains between frames. Each is capped at
/// [`POOL_RETAIN_BYTES`], bounding the per-thread pool at
/// `POOL_MAX_BUFFERS * POOL_RETAIN_BYTES` (512 KiB).
const POOL_MAX_BUFFERS: usize = 8;

/// A released buffer that grew beyond this (an oversized `SyncState`,
/// a huge document path) is dropped rather than pinned in the pool.
const POOL_RETAIN_BYTES: usize = 64 * 1024;

thread_local! {
    static FRAME_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a cleared scratch buffer from the thread-local frame pool
/// (falling back to a fresh allocation on a pool miss). Both the encode
/// path and transport frame readers draw from the same pool; return the
/// buffer with [`pool_release`] when the frame is done.
pub fn pool_acquire() -> Vec<u8> {
    FRAME_POOL.with(|p| match p.borrow_mut().pop() {
        Some(mut buf) => {
            POOL_HITS.fetch_add(1, Ordering::Relaxed);
            buf.clear();
            buf
        }
        None => {
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(256)
        }
    })
}

/// Returns a scratch buffer to the thread-local pool. Buffers that grew
/// beyond [`POOL_RETAIN_BYTES`], and any overflow past
/// [`POOL_MAX_BUFFERS`], are discarded (and counted) instead of pinned.
pub fn pool_release(buf: Vec<u8>) {
    if buf.capacity() > POOL_RETAIN_BYTES {
        POOL_DISCARDS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    FRAME_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() >= POOL_MAX_BUFFERS {
            POOL_DISCARDS.fetch_add(1, Ordering::Relaxed);
        } else {
            pool.push(buf);
        }
    });
}

/// Process-wide codec counters: encode work and frame-pool behaviour.
/// Totals are cumulative since process start; consumers (benches, the
/// metrics exporter) report them as Prometheus-style counters or take
/// deltas across a measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// [`encode_into`] invocations (one per uniquely encoded frame —
    /// fan-out sharing through [`FrameBuf`] does not re-encode).
    pub encode_calls: u64,
    /// Bytes produced by those encodes.
    pub encoded_bytes: u64,
    /// Scratch-buffer requests served from the thread-local pool.
    pub pool_hits: u64,
    /// Requests that fell back to a fresh allocation.
    pub pool_misses: u64,
    /// Released buffers dropped (oversized, or the pool was full).
    pub pool_discards: u64,
}

/// A snapshot of the process-wide [`CodecStats`].
pub fn codec_stats() -> CodecStats {
    CodecStats {
        encode_calls: ENCODE_CALLS.load(Ordering::Relaxed),
        encoded_bytes: ENCODED_BYTES.load(Ordering::Relaxed),
        pool_hits: POOL_HITS.load(Ordering::Relaxed),
        pool_misses: POOL_MISSES.load(Ordering::Relaxed),
        pool_discards: POOL_DISCARDS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends one complete length-prefixed frame for `msg` to `out`,
/// in place — no temporaries, including for the nested payload of a
/// [`Message::Sequenced`] frame (the length prefixes are backfilled).
/// The message must fit the codec (see [`encode_checked`]); a length
/// that overflows its prefix is written truncated.
///
/// This and [`encode_checked`] are the counting entry points of the
/// encoder: each call adds one to [`CodecStats::encode_calls`] and the
/// frame's size to [`CodecStats::encoded_bytes`], so "exactly one
/// encode per fan-out" is measurable.
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    let fits = encode_counted(msg, out);
    debug_assert!(fits, "a length overflows its wire prefix");
}

/// [`encode_into`] for a message that may not fit the codec, such as a
/// client's: each string at most `u16::MAX` bytes, each element at most
/// `u8::MAX` attributes, each path at most `u16::MAX` elements and the
/// frame body at most [`MAX_FRAME_BYTES`]. A receiver drops the
/// connection a frame over any of these arrives on.
///
/// # Errors
///
/// Returns a [`WireError`], and leaves `out` as it was, when `msg` does
/// not fit.
pub fn encode_checked(msg: &Message, out: &mut Vec<u8>) -> Result<(), WireError> {
    let before = out.len();
    let fits = encode_counted(msg, out);
    let body = out.len() - before - 4;
    if fits && body <= MAX_FRAME_BYTES {
        return Ok(());
    }
    out.truncate(before);
    Err(WireError::new(if fits {
        format!("a {body}-byte frame body exceeds {MAX_FRAME_BYTES}")
    } else {
        "a length overflows its wire prefix".to_owned()
    }))
}

/// [`encode_frame`], counted in the [`codec_stats`].
fn encode_counted(msg: &Message, out: &mut Vec<u8>) -> bool {
    let before = out.len();
    let fits = encode_frame(msg, out);
    ENCODE_CALLS.fetch_add(1, Ordering::Relaxed);
    ENCODED_BYTES.fetch_add((out.len() - before) as u64, Ordering::Relaxed);
    fits
}

/// Writes `frame := u32 len | u8 tag | body` directly into `out`,
/// recursing in place for sequenced payloads and backfilling the
/// length prefix once the body size is known. Returns false if a
/// string, attribute or element count overflowed its prefix.
fn encode_frame(msg: &Message, out: &mut Vec<u8>) -> bool {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let fits = match msg {
        Message::Advertise { id, adv } => {
            out.put_u8(TAG_ADVERTISE);
            out.put_u64(id.0);
            put_str(out, &adv.to_string())
        }
        Message::Unadvertise { id } => {
            out.put_u8(TAG_UNADVERTISE);
            out.put_u64(id.0);
            true
        }
        Message::Subscribe { id, xpe } => {
            out.put_u8(TAG_SUBSCRIBE);
            out.put_u64(id.0);
            put_str(out, &xpe.to_string())
        }
        Message::Unsubscribe { id } => {
            out.put_u8(TAG_UNSUBSCRIBE);
            out.put_u64(id.0);
            true
        }
        Message::Publish(p) => {
            out.put_u8(TAG_PUBLISH);
            out.put_u64(p.doc_id.0);
            out.put_u32(p.path_id.0);
            out.put_u64(p.doc_bytes as u64);
            out.put_u16(p.elements.len() as u16);
            let mut fits = u16::try_from(p.elements.len()).is_ok();
            for (i, e) in p.elements.iter().enumerate() {
                fits &= put_str(out, e);
                let attrs: &[(String, String)] = p.attributes.get(i).map_or(&[], Vec::as_slice);
                out.put_u8(attrs.len() as u8);
                fits &= u8::try_from(attrs.len()).is_ok();
                for (k, v) in attrs {
                    fits &= put_str(out, k);
                    fits &= put_str(out, v);
                }
            }
            fits
        }
        Message::Heartbeat => {
            out.put_u8(TAG_HEARTBEAT);
            true
        }
        Message::SyncRequest => {
            out.put_u8(TAG_SYNC_REQUEST);
            true
        }
        Message::SyncState { advs, subs } => {
            out.put_u8(TAG_SYNC_STATE);
            out.put_u32(advs.len() as u32);
            let mut fits = true;
            for (id, adv) in advs {
                out.put_u64(id.0);
                fits &= put_str(out, &adv.to_string());
            }
            out.put_u32(subs.len() as u32);
            for (id, xpe) in subs {
                out.put_u64(id.0);
                fits &= put_str(out, &xpe.to_string());
            }
            fits
        }
        Message::Ack { epoch, seq } => {
            out.put_u8(TAG_ACK);
            out.put_u64(*epoch);
            out.put_u64(*seq);
            true
        }
        Message::Sequenced {
            epoch,
            seq,
            low,
            inner,
        } => {
            out.put_u8(TAG_SEQUENCED);
            out.put_u64(*epoch);
            out.put_u64(*seq);
            out.put_u64(*low);
            // The payload travels as a complete nested frame so the
            // decoder reuses the whole codec, length checks included —
            // written in place, not through a temporary.
            encode_frame(inner, out)
        }
    };
    let body_len = (out.len() - len_at - 4) as u32;
    if let Some(slot) = out.get_mut(len_at..len_at + 4) {
        slot.copy_from_slice(&body_len.to_be_bytes());
    }
    fits
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decodes one frame from the front of `buf`, returning the message
/// and the number of bytes consumed.
///
/// # Errors
///
/// Returns [`WireError`] on truncated input, unknown tags, invalid
/// UTF-8, or an unparsable advertisement/XPE body.
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), WireError> {
    let mut b = buf;
    if b.remaining() < 4 {
        return Err(WireError::new("truncated length prefix"));
    }
    let len = b.get_u32() as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::new(format!(
            "frame body of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    if b.remaining() < len {
        return Err(WireError::new(format!(
            "truncated body: need {len}, have {}",
            b.remaining()
        )));
    }
    let mut body = &b[..len];
    let consumed = 4 + len;
    if body.remaining() < 1 {
        return Err(WireError::new("empty body"));
    }
    let tag = body.get_u8();
    let msg = match tag {
        TAG_ADVERTISE => {
            let id = AdvId(get_u64(&mut body)?);
            let text = get_str(&mut body)?;
            let adv = Advertisement::parse(&text)
                .map_err(|e| WireError::new(format!("bad advertisement: {e}")))?;
            Message::Advertise { id, adv }
        }
        TAG_UNADVERTISE => Message::Unadvertise {
            id: AdvId(get_u64(&mut body)?),
        },
        TAG_SUBSCRIBE => {
            let id = SubId(get_u64(&mut body)?);
            let text = get_str(&mut body)?;
            let xpe = text
                .parse()
                .map_err(|e| WireError::new(format!("bad expression: {e}")))?;
            Message::Subscribe { id, xpe }
        }
        TAG_UNSUBSCRIBE => Message::Unsubscribe {
            id: SubId(get_u64(&mut body)?),
        },
        TAG_PUBLISH => {
            let doc_id = DocId(get_u64(&mut body)?);
            if body.remaining() < 4 + 8 + 2 {
                return Err(WireError::new("truncated publication header"));
            }
            let path_id = PathId(body.get_u32());
            let doc_bytes = body.get_u64() as usize;
            let n = body.get_u16() as usize;
            let mut elements = Vec::with_capacity(n);
            let mut attributes = Vec::with_capacity(n);
            for _ in 0..n {
                elements.push(get_str(&mut body)?);
                if body.remaining() < 1 {
                    return Err(WireError::new("truncated attribute count"));
                }
                let na = body.get_u8() as usize;
                let mut attrs = Vec::with_capacity(na);
                for _ in 0..na {
                    let k = get_str(&mut body)?;
                    let v = get_str(&mut body)?;
                    attrs.push((k, v));
                }
                attributes.push(attrs);
            }
            if elements.is_empty() {
                return Err(WireError::new("publication with no elements"));
            }
            Message::Publish(Publication {
                doc_id,
                path_id,
                elements,
                attributes,
                doc_bytes,
            })
        }
        TAG_HEARTBEAT => Message::Heartbeat,
        TAG_SYNC_REQUEST => Message::SyncRequest,
        TAG_SYNC_STATE => {
            let na = get_u32(&mut body)? as usize;
            let mut advs = Vec::new();
            for _ in 0..na {
                let id = AdvId(get_u64(&mut body)?);
                let text = get_str(&mut body)?;
                let adv = Advertisement::parse(&text)
                    .map_err(|e| WireError::new(format!("bad sync advertisement: {e}")))?;
                advs.push((id, adv));
            }
            let ns = get_u32(&mut body)? as usize;
            let mut subs = Vec::new();
            for _ in 0..ns {
                let id = SubId(get_u64(&mut body)?);
                let text = get_str(&mut body)?;
                let xpe = text
                    .parse()
                    .map_err(|e| WireError::new(format!("bad sync expression: {e}")))?;
                subs.push((id, xpe));
            }
            Message::SyncState { advs, subs }
        }
        TAG_ACK => {
            let epoch = get_u64(&mut body)?;
            let seq = get_u64(&mut body)?;
            Message::Ack { epoch, seq }
        }
        TAG_SEQUENCED => {
            let epoch = get_u64(&mut body)?;
            let seq = get_u64(&mut body)?;
            let low = get_u64(&mut body)?;
            let (inner, used) = decode_frame(body)?;
            // The reliability header wraps exactly one payload frame:
            // nested reliability messages would let a hostile peer
            // build recursion bombs and double-count sequence space.
            if matches!(inner, Message::Sequenced { .. } | Message::Ack { .. }) {
                return Err(WireError::new("reliability frame nested in sequenced"));
            }
            body.advance(used);
            Message::Sequenced {
                epoch,
                seq,
                low,
                inner: Arc::new(inner),
            }
        }
        other => return Err(WireError::new(format!("unknown tag {other}"))),
    };
    if body.has_remaining() {
        return Err(WireError::new(format!(
            "{} trailing bytes",
            body.remaining()
        )));
    }
    Ok((msg, consumed))
}

/// Writes `s` behind its `u16` length prefix. Returns false if the
/// length overflows the prefix, which is then written truncated.
fn put_str(buf: &mut Vec<u8>, s: &str) -> bool {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
    u16::try_from(s.len()).is_ok()
}

fn get_u32(b: &mut &[u8]) -> Result<u32, WireError> {
    if b.remaining() < 4 {
        return Err(WireError::new("truncated u32"));
    }
    Ok(b.get_u32())
}

fn get_u64(b: &mut &[u8]) -> Result<u64, WireError> {
    if b.remaining() < 8 {
        return Err(WireError::new("truncated u64"));
    }
    Ok(b.get_u64())
}

fn get_str(b: &mut &[u8]) -> Result<String, WireError> {
    if b.remaining() < 2 {
        return Err(WireError::new("truncated string length"));
    }
    let n = b.get_u16() as usize;
    if b.remaining() < n {
        return Err(WireError::new("truncated string body"));
    }
    let s = std::str::from_utf8(&b[..n])
        .map_err(|_| WireError::new("invalid UTF-8"))?
        .to_owned();
    b.advance(n);
    Ok(s)
}

// ---------------------------------------------------------------------
// FrameBuf: encode-once, shared-body frames
// ---------------------------------------------------------------------

/// The per-peer mutable header of a sequenced frame: the three
/// reliability counters stamped around the shared payload body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqHeader {
    /// Sender incarnation the sequence numbers belong to.
    pub epoch: u64,
    /// Per-link sequence number, starting at 1 within an epoch.
    pub seq: u64,
    /// The sender's lowest unacked sequence number.
    pub low: u64,
}

/// An outbound frame with an encode-once shared body.
///
/// A `FrameBuf` separates what the old code conflated: the *payload*
/// (an unsequenced [`Message`], shared via `Arc` by every peer's frame
/// and the retransmit buffer), its *encoding* (produced lazily, at most
/// once, shared by every clone), and the per-peer
/// [`SeqHeader`] (29 bytes, rewritten per destination without touching
/// the body). Cloning or [re-stamping](FrameBuf::stamped) a `FrameBuf`
/// is O(1) and allocation-free.
///
/// The payload is never [`Message::Sequenced`]: constructing a frame
/// from a sequenced message normalizes it into payload + header, so
/// nesting is unrepresentable here just as the decoder rejects it.
#[derive(Debug, Clone)]
pub struct FrameBuf {
    /// The unsequenced payload message.
    inner: Arc<Message>,
    /// The payload's encoded frame, produced at most once per fan-out.
    enc: Arc<OnceLock<Box<[u8]>>>,
    /// Per-peer reliability header, if the frame is sequenced.
    seq: Option<SeqHeader>,
    /// The payload's kind, precomputed at construction.
    kind: MessageKind,
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq && self.inner == other.inner
    }
}

impl From<Message> for FrameBuf {
    fn from(msg: Message) -> Self {
        FrameBuf::from_message(msg)
    }
}

impl FrameBuf {
    /// Builds a frame from a message, normalizing [`Message::Sequenced`]
    /// into payload + [`SeqHeader`] (sharing its payload `Arc`, not
    /// cloning it).
    pub fn from_message(msg: Message) -> FrameBuf {
        match msg {
            Message::Sequenced {
                epoch,
                seq,
                low,
                inner,
            } => FrameBuf {
                kind: inner.kind(),
                inner,
                enc: Arc::new(OnceLock::new()),
                seq: Some(SeqHeader { epoch, seq, low }),
            },
            // xtask: allow(kind-match) Sequenced is the only framing variant; every payload variant is the identity arm
            other => FrameBuf {
                kind: other.kind(),
                inner: Arc::new(other),
                enc: Arc::new(OnceLock::new()),
                seq: None,
            },
        }
    }

    /// This frame re-stamped with a per-peer reliability header: the
    /// payload `Arc` and the encoded body are shared, only the 29-byte
    /// header region differs.
    pub fn stamped(&self, seq: SeqHeader) -> FrameBuf {
        FrameBuf {
            inner: Arc::clone(&self.inner),
            enc: Arc::clone(&self.enc),
            seq: Some(seq),
            kind: self.kind,
        }
    }

    /// The payload's kind (precomputed; the reliability header is
    /// transparent, exactly like [`Message::kind`]).
    pub fn kind(&self) -> MessageKind {
        self.kind
    }

    /// The per-peer reliability header, if the frame is sequenced.
    pub fn seq_header(&self) -> Option<SeqHeader> {
        self.seq
    }

    /// The unsequenced payload message.
    pub fn payload(&self) -> &Message {
        &self.inner
    }

    /// True for frames carrying routing/publication payload, matching
    /// [`Message::is_payload`].
    pub fn is_payload(&self) -> bool {
        self.inner.is_payload()
    }

    /// The *modeled* wire size in bytes ([`Message::wire_bytes`]) —
    /// what the simulator's latency models charge, not the encoded
    /// length (see [`FrameBuf::encoded_len`]).
    pub fn wire_bytes(&self) -> usize {
        match self.seq {
            Some(_) => 24 + self.inner.wire_bytes(),
            None => self.inner.wire_bytes(),
        }
    }

    /// The payload's encoded frame, produced on first use and shared by
    /// every clone/stamp of this frame thereafter.
    pub fn encoded_payload(&self) -> &[u8] {
        self.enc.get_or_init(|| {
            let mut scratch = pool_acquire();
            encode_into(&self.inner, &mut scratch);
            let body: Box<[u8]> = Box::from(scratch.as_slice());
            pool_release(scratch);
            body
        })
    }

    /// The sequenced header region (`len | tag | epoch | seq | low`),
    /// or `None` for unsequenced frames. Stamping is 29 bytes of header
    /// arithmetic; the shared body is untouched.
    pub fn header_bytes(&self) -> Option<[u8; SEQ_HEADER_BYTES]> {
        let h = self.seq?;
        let body_len = self.encoded_payload().len();
        let len = ((SEQ_HEADER_BYTES - 4 + body_len) as u32).to_be_bytes();
        let epoch = h.epoch.to_be_bytes();
        let seq = h.seq.to_be_bytes();
        let low = h.low.to_be_bytes();
        let mut hdr = [0u8; SEQ_HEADER_BYTES];
        let fields = len
            .iter()
            .chain(std::iter::once(&TAG_SEQUENCED))
            .chain(&epoch)
            .chain(&seq)
            .chain(&low);
        for (dst, src) in hdr.iter_mut().zip(fields) {
            *dst = *src;
        }
        Some(hdr)
    }

    /// The exact on-the-wire length of this frame.
    pub fn encoded_len(&self) -> usize {
        let body = self.encoded_payload().len();
        match self.seq {
            Some(_) => SEQ_HEADER_BYTES + body,
            None => body,
        }
    }

    /// Writes the complete frame to `w` without assembling it: the
    /// header region, then the shared body. Every transport passes a
    /// `BufWriter`, which joins the two into one socket write.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from the underlying writer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        if let Some(hdr) = self.header_bytes() {
            w.write_all(&hdr)?;
        }
        w.write_all(self.encoded_payload())
    }

    /// Assembles the complete frame into one owned buffer (tests, the
    /// in-process benchmark chain).
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let body = self.encoded_payload();
        match self.header_bytes() {
            Some(hdr) => {
                let mut out = Vec::with_capacity(hdr.len() + body.len());
                out.extend_from_slice(&hdr);
                out.extend_from_slice(body);
                out
            }
            None => body.to_vec(),
        }
    }

    /// Consumes the frame into a [`Message`], avoiding the payload
    /// clone when this frame holds the last reference.
    pub fn into_message(self) -> Message {
        match self.seq {
            Some(SeqHeader { epoch, seq, low }) => Message::Sequenced {
                epoch,
                seq,
                low,
                inner: self.inner,
            },
            None => Arc::try_unwrap(self.inner).unwrap_or_else(|shared| (*shared).clone()),
        }
    }
}

// ---------------------------------------------------------------------
// Outbound: the typed broker→transport output
// ---------------------------------------------------------------------

/// One routed output of a broker: the destination, the frame, and the
/// payload kind precomputed so stats/metrics stop re-deriving
/// [`Message::kind`] per hop. This replaces the ad-hoc
/// `Vec<(Dest, Message)>` convention at the broker→transport boundary;
/// `From` shims in both directions keep tuple-based callers working
/// for one release.
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound {
    /// Where the frame goes.
    pub dest: Dest,
    /// The payload kind (the reliability header is transparent).
    pub kind: MessageKind,
    /// The encode-once frame.
    pub frame: FrameBuf,
}

impl Outbound {
    /// Builds an output, precomputing the kind from the frame.
    pub fn new(dest: Dest, frame: FrameBuf) -> Outbound {
        Outbound {
            dest,
            kind: frame.kind(),
            frame,
        }
    }
}

impl From<(Dest, Message)> for Outbound {
    fn from((dest, msg): (Dest, Message)) -> Self {
        Outbound::new(dest, FrameBuf::from_message(msg))
    }
}

impl From<Outbound> for (Dest, Message) {
    fn from(out: Outbound) -> Self {
        (out.dest, out.frame.into_message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdn_core::adv::AdvPath;

    fn samples() -> Vec<Message> {
        vec![
            Message::advertise(
                AdvId(42),
                Advertisement::parse("/a/b(/c/d)+/e").expect("valid"),
            ),
            Message::advertise(
                AdvId(1),
                Advertisement::non_recursive(AdvPath::from_names(&["x", "*", "z"])),
            ),
            Message::Unadvertise { id: AdvId(7) },
            Message::subscribe(SubId(9), "/news/*//headline".parse().unwrap()),
            Message::subscribe(SubId(10), "section/article".parse().unwrap()),
            Message::Unsubscribe {
                id: SubId(u64::MAX),
            },
            Message::Publish(Publication {
                doc_id: DocId(3),
                path_id: PathId(14),
                elements: vec!["nitf".into(), "body".into(), "body-content".into()],
                attributes: vec![
                    vec![("version".into(), "3.0".into())],
                    Vec::new(),
                    vec![("lang".into(), "en".into()), ("id".into(), "7".into())],
                ],
                doc_bytes: 20_480,
            }),
            Message::Heartbeat,
            Message::SyncRequest,
            Message::SyncState {
                advs: Vec::new(),
                subs: Vec::new(),
            },
            Message::SyncState {
                advs: vec![
                    (
                        AdvId(3),
                        Advertisement::parse("/a/b(/c/d)+/e").expect("valid"),
                    ),
                    (
                        AdvId(4),
                        Advertisement::non_recursive(AdvPath::from_names(&["x"])),
                    ),
                ],
                subs: vec![
                    (SubId(5), "/news//headline".parse().unwrap()),
                    (SubId(6), "section/article".parse().unwrap()),
                ],
            },
            Message::Ack {
                epoch: 3,
                seq: u64::MAX,
            },
            Message::Sequenced {
                epoch: u64::MAX,
                seq: 1,
                low: 1,
                inner: Arc::new(Message::subscribe(
                    SubId(11),
                    "/news//headline".parse().unwrap(),
                )),
            },
            Message::Sequenced {
                epoch: 1,
                seq: 9,
                low: 4,
                inner: Arc::new(Message::Publish(Publication {
                    doc_id: DocId(8),
                    path_id: PathId(2),
                    elements: vec!["a".into(), "b".into()],
                    attributes: vec![vec![("v".into(), "1".into())], Vec::new()],
                    doc_bytes: 512,
                })),
            },
        ]
    }

    fn frame_of(msg: &Message) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(msg, &mut out);
        out
    }

    /// Held by every test here that encodes or counts: the counting
    /// tests assert deltas of the process-wide [`CodecStats`], which an
    /// encoding test on another test thread would otherwise bump.
    static CODEC: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn codec_lock() -> std::sync::MutexGuard<'static, ()> {
        CODEC
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn roundtrip_every_kind() {
        let _codec = codec_lock();
        for msg in samples() {
            let bytes = frame_of(&msg);
            let (decoded, consumed) = decode_frame(&bytes).expect("decode");
            assert_eq!(decoded, msg);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn frames_concatenate() {
        let _codec = codec_lock();
        let msgs = samples();
        let mut stream = Vec::new();
        for m in &msgs {
            encode_into(m, &mut stream);
        }
        let mut off = 0;
        let mut decoded = Vec::new();
        while off < stream.len() {
            let (m, used) = decode_frame(&stream[off..]).expect("decode stream");
            decoded.push(m);
            off += used;
        }
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn truncation_is_detected() {
        let _codec = codec_lock();
        let bytes = frame_of(&samples()[0]);
        for cut in [0, 2, 4, bytes.len() - 1] {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn oversized_declared_frame_rejected() {
        let mut frame = Vec::new();
        frame.put_u32((MAX_FRAME_BYTES + 1) as u32);
        // No body needed: the cap check fires on the prefix alone,
        // before any allocation.
        let err = decode_frame(&frame).expect_err("cap must reject");
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut frame = Vec::new();
        frame.put_u32(1);
        frame.put_u8(99);
        assert!(decode_frame(&frame).is_err());
    }

    #[test]
    fn garbage_expression_rejected() {
        let mut body = Vec::new();
        body.put_u8(TAG_SUBSCRIBE);
        body.put_u64(1);
        body.put_u16(3);
        body.put_slice(b"a//");
        let mut frame = Vec::new();
        frame.put_u32(body.len() as u32);
        frame.extend_from_slice(&body);
        assert!(decode_frame(&frame).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let _codec = codec_lock();
        let bytes = frame_of(&Message::Unsubscribe { id: SubId(1) });
        let mut grown = Vec::new();
        grown.put_u32(bytes.len() as u32 - 4 + 1);
        grown.extend_from_slice(&bytes[4..]);
        grown.put_u8(0);
        assert!(decode_frame(&grown).is_err());
    }

    #[test]
    fn nested_reliability_frames_rejected() {
        let _codec = codec_lock();
        // Hand-build sequenced(sequenced(heartbeat)) and
        // sequenced(ack): both must be refused by the depth guard.
        let seq_hb = Message::Sequenced {
            epoch: 1,
            seq: 1,
            low: 1,
            inner: Arc::new(Message::Heartbeat),
        };
        for evil_inner in [seq_hb, Message::Ack { epoch: 1, seq: 1 }] {
            let mut body = Vec::new();
            body.put_u8(TAG_SEQUENCED);
            body.put_u64(2);
            body.put_u64(5);
            body.put_u64(1);
            encode_into(&evil_inner, &mut body);
            let mut frame = Vec::new();
            frame.put_u32(body.len() as u32);
            frame.extend_from_slice(&body);
            let err = decode_frame(&frame).expect_err("nested reliability frame must fail");
            assert!(err.to_string().contains("nested"), "{err}");
        }
    }

    #[test]
    fn sequenced_truncated_inner_rejected() {
        let _codec = codec_lock();
        let msg = Message::Sequenced {
            epoch: 1,
            seq: 2,
            low: 1,
            inner: Arc::new(Message::Heartbeat),
        };
        let bytes = frame_of(&msg);
        for cut in [5, 13, 29, bytes.len() - 1] {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn publish_size_overhead_is_small() {
        let _codec = codec_lock();
        let p = Message::Publish(Publication {
            doc_id: DocId(1),
            path_id: PathId(0),
            elements: vec!["a".into(); 10],
            attributes: Vec::new(),
            doc_bytes: 0,
        });
        let frame = frame_of(&p);
        // 4 len + 1 tag + 8 doc + 4 path + 8 bytes + 2 count +
        // 10 * (2 len + 1 name + 1 attr-count)
        assert_eq!(frame.len(), 4 + 1 + 8 + 4 + 8 + 2 + 40);
    }

    #[test]
    fn framebuf_matches_flat_encoding_and_shares_one_body() {
        let _codec = codec_lock();
        for msg in samples() {
            let frame = FrameBuf::from_message(msg.clone());
            assert_eq!(frame.to_wire_bytes(), frame_of(&msg), "{msg:?}");
            assert_eq!(frame.encoded_len(), frame_of(&msg).len());
            assert_eq!(frame.kind(), msg.kind());
            assert_eq!(frame.clone().into_message(), msg);
        }
        // Stamping k peers encodes the payload exactly once.
        let payload = samples()[6].clone();
        let base = FrameBuf::from_message(payload.clone());
        let before = codec_stats().encode_calls;
        let frames: Vec<FrameBuf> = (1..=8)
            .map(|seq| {
                base.stamped(SeqHeader {
                    epoch: 2,
                    seq,
                    low: 1,
                })
            })
            .collect();
        for (i, f) in frames.iter().enumerate() {
            let (decoded, used) = decode_frame(&f.to_wire_bytes()).expect("decode");
            assert_eq!(used, f.encoded_len());
            match decoded {
                Message::Sequenced { seq, inner, .. } => {
                    assert_eq!(seq, i as u64 + 1);
                    assert_eq!(*inner, payload);
                }
                other => panic!("expected sequenced, got {other:?}"),
            }
            // All stamps share the base's body allocation.
            assert!(std::ptr::eq(f.encoded_payload(), base.encoded_payload()));
        }
        assert_eq!(
            codec_stats().encode_calls - before,
            1,
            "eight stamps, one encode"
        );
    }

    #[test]
    fn encode_checked_refuses_what_the_prefixes_cannot_hold() {
        let _codec = codec_lock();
        // Encodes after one byte already in the buffer: a refusal must
        // leave that byte alone, and a frame must be `encode_into`'s.
        let fits = |msg: &Message| {
            let mut out = vec![7];
            let fits = encode_checked(msg, &mut out).is_ok();
            let want = if fits {
                [vec![7], frame_of(msg)].concat()
            } else {
                vec![7]
            };
            assert_eq!(out, want);
            fits
        };
        for msg in samples() {
            assert!(fits(&msg), "{msg:?}");
        }
        let publish = |elements: Vec<String>, attrs: Vec<(String, String)>| {
            Message::Publish(Publication {
                doc_id: DocId(1),
                path_id: PathId(0),
                elements,
                attributes: vec![attrs],
                doc_bytes: 0,
            })
        };
        let pair = |v: usize| ("k".to_owned(), "v".repeat(v));
        let max = usize::from(u16::MAX);
        // At each limit the message encodes; one past it, it does not.
        assert!(fits(&publish(vec!["a".into()], vec![pair(max)])));
        assert!(!fits(&publish(vec!["a".into()], vec![pair(max + 1)])));
        assert!(!fits(&publish(vec!["a".repeat(max + 1)], vec![])));
        assert!(fits(&publish(vec!["a".into()], vec![pair(1); 255])));
        assert!(!fits(&publish(vec!["a".into()], vec![pair(1); 256])));
        assert!(fits(&publish(vec!["a".into(); max], vec![])));
        assert!(!fits(&publish(vec!["a".into(); max + 1], vec![])));
        let long = format!("/{}", "a".repeat(max)).parse().expect("xpe");
        assert!(!fits(&Message::subscribe(SubId(1), long)));
        assert!(!fits(&Message::Sequenced {
            epoch: 1,
            seq: 1,
            low: 1,
            inner: Arc::new(publish(vec!["a".repeat(max + 1)], vec![])),
        }));
    }

    #[test]
    fn framebuf_write_to_is_byte_identical() {
        let _codec = codec_lock();
        for msg in samples() {
            let frame = FrameBuf::from_message(msg.clone());
            let mut sink = Vec::new();
            frame.write_to(&mut sink).expect("write");
            assert_eq!(sink, frame_of(&msg));
        }
    }

    #[test]
    fn write_to_survives_short_writes() {
        let _codec = codec_lock();
        /// A writer that accepts one byte per call.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let msg = Message::Sequenced {
            epoch: 3,
            seq: 7,
            low: 2,
            inner: Arc::new(Message::Heartbeat),
        };
        let frame = FrameBuf::from_message(msg.clone());
        let mut w = Trickle(Vec::new());
        frame.write_to(&mut w).expect("trickled write");
        assert_eq!(w.0, frame_of(&msg));
    }

    #[test]
    fn pool_round_trips_and_discards_oversized() {
        let _codec = codec_lock();
        let before = codec_stats();
        let buf = pool_acquire();
        pool_release(buf);
        let buf = pool_acquire();
        pool_release(buf);
        let after = codec_stats();
        assert!(after.pool_hits + after.pool_misses >= before.pool_hits + before.pool_misses + 2);
        // An oversized buffer must not be pinned in the pool.
        let discards = codec_stats().pool_discards;
        pool_release(Vec::with_capacity(POOL_RETAIN_BYTES + 1));
        assert_eq!(codec_stats().pool_discards, discards + 1);
    }

    #[test]
    fn outbound_precomputes_kind_and_round_trips() {
        use crate::message::{BrokerId, ClientId};
        let msg = Message::Sequenced {
            epoch: 1,
            seq: 2,
            low: 1,
            inner: Arc::new(Message::Heartbeat),
        };
        let out = Outbound::from((Dest::Broker(BrokerId(3)), msg.clone()));
        assert_eq!(out.kind, MessageKind::Heartbeat);
        assert_eq!(out.frame.seq_header().map(|h| h.seq), Some(2));
        let (dest, back): (Dest, Message) = out.into();
        assert_eq!(dest, Dest::Broker(BrokerId(3)));
        assert_eq!(back, msg);
        let plain = Outbound::new(
            Dest::Client(ClientId(9)),
            FrameBuf::from_message(Message::SyncRequest),
        );
        assert_eq!(plain.kind, MessageKind::SyncRequest);
        assert!(plain.frame.seq_header().is_none());
    }
}
