//! The in-process drive: a chain of [`Broker`]s whose frames really go
//! through the wire codec.
//!
//! The simulator never serialises a frame and runs on a virtual clock,
//! so this drive owns the brokers and moves their frames itself. Every
//! [`Outbound`] is encoded with [`FrameBuf::to_wire_bytes`] and decoded
//! with [`wire::decode_frame`] at the receiver; each broker has a FIFO
//! inbox, drained in runs of up to 256 frames into
//! [`Broker::handle_batch_frames`] exactly like the TCP broker loop
//! drains its channel. Sequenced frames and their acks travel both
//! ways, so the reliability layer does its real work. Client-bound
//! frames are decoded on arrival and recorded as deliveries.

use crate::trace::{Parent, Tracer, NO_BROKER};
use std::collections::{HashSet, VecDeque};
use std::time::Duration;
use xdn_broker::{wire, Broker, BrokerId, ClientId, Dest, Message, MessageKind, Outbound};
use xdn_broker::{FrameBuf, RoutingConfig};

/// Most frames one `handle_batch_frames` call takes, as in the TCP
/// broker loop.
const BATCH_LIMIT: usize = 256;

/// Traffic the drive moved. All counters only grow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Broker-to-broker frames carrying a publication.
    pub broker_pub_frames: u64,
    /// Broker-to-broker frames carrying a subscribe or unsubscribe.
    pub broker_sub_frames: u64,
    /// Encoded bytes of every frame moved on any hop, acks and client
    /// edges included.
    pub bytes: u64,
}

impl Counts {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            broker_pub_frames: self.broker_pub_frames - earlier.broker_pub_frames,
            broker_sub_frames: self.broker_sub_frames - earlier.broker_sub_frames,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// Field-wise `self + other`.
    pub fn plus(&self, other: &Counts) -> Counts {
        Counts {
            broker_pub_frames: self.broker_pub_frames + other.broker_pub_frames,
            broker_sub_frames: self.broker_sub_frames + other.broker_sub_frames,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// One delivery a client decoded: (client, doc, path).
pub type Delivery = (u64, u64, u32);

/// The deliveries a document is waiting for.
struct Watch {
    doc: u64,
    expected: HashSet<(u64, u32)>,
    done_at: Option<Duration>,
}

/// A chain `b0 — b1 — … — b(n-1)` of brokers driven in-process.
pub struct Chain {
    brokers: Vec<Broker>,
    inboxes: Vec<VecDeque<(Dest, Vec<u8>)>>,
    /// Spans around every decode, handle, encode and client decode.
    pub tracer: Tracer,
    counts: Counts,
    delivered: Vec<Delivery>,
    watch: Option<Watch>,
}

impl Chain {
    /// `n` brokers of one routing strategy, each linked to its
    /// predecessor and successor.
    pub fn new(n: usize, config: RoutingConfig, tracer: Tracer) -> Chain {
        let mut brokers: Vec<Broker> = (0..n)
            .map(|i| Broker::new(BrokerId(i as u32), config))
            .collect();
        for i in 1..n {
            brokers[i - 1].add_neighbor(BrokerId(i as u32));
            brokers[i].add_neighbor(BrokerId(i as u32 - 1));
        }
        Chain {
            brokers,
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            tracer,
            counts: Counts::default(),
            delivered: Vec::new(),
            watch: None,
        }
    }

    /// Number of brokers.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// True for a chain without brokers.
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// Broker `i`.
    pub fn broker(&self, i: usize) -> &Broker {
        &self.brokers[i]
    }

    /// Traffic moved so far.
    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// Encodes `msg` as client `client` would and queues it at broker
    /// `at`.
    pub fn client_send(&mut self, client: ClientId, at: usize, msg: Message) {
        let t = self.tracer.now();
        let bytes = FrameBuf::from_message(msg).to_wire_bytes();
        self.tracer.close("encode", NO_BROKER, t);
        self.counts.bytes += bytes.len() as u64;
        self.inboxes[at].push_back((Dest::Client(client), bytes));
    }

    /// Starts waiting for `expected` (client, path) deliveries of `doc`;
    /// [`Chain::completed_at`] reports when the last one arrived.
    pub fn watch(&mut self, doc: u64, expected: HashSet<(u64, u32)>) {
        self.tracer.set_parent(Parent::Doc(doc));
        self.watch = Some(Watch {
            doc,
            expected,
            done_at: None,
        });
    }

    /// When the watched document's last expected delivery arrived, on
    /// the drive thread's CPU clock ([`crate::cpu::thread`]).
    pub fn completed_at(&self) -> Option<Duration> {
        self.watch.as_ref().and_then(|w| w.done_at)
    }

    /// Takes the deliveries recorded since the last call.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.delivered)
    }

    /// Moves frames until every inbox is empty.
    pub fn drain(&mut self) {
        loop {
            let mut progressed = false;
            for i in 0..self.brokers.len() {
                if !self.inboxes[i].is_empty() {
                    progressed = true;
                    self.step(i);
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// One hop: decode a run of broker `i`'s inbox, handle it as one
    /// batch, and encode and ship every output.
    fn step(&mut self, i: usize) {
        let at = i as u32;
        let hop_start = self.tracer.now();
        let n = self.inboxes[i].len().min(BATCH_LIMIT);
        let mut batch = Vec::with_capacity(n);
        let (mut pubs, mut acks) = (0u64, 0u64);
        for (from, bytes) in self.inboxes[i].drain(..n) {
            let t = self.tracer.now();
            let (msg, _) = wire::decode_frame(&bytes).expect("frames this drive encoded decode");
            self.tracer.close("decode", at, t);
            match msg.payload() {
                Message::Publish(_) => pubs += 1,
                Message::Ack { .. } => acks += 1,
                _ => {}
            }
            batch.push((from, msg));
        }
        let kind = if pubs > 0 {
            "handle.pub"
        } else if acks == n as u64 {
            "handle.ack"
        } else {
            "handle.ctl"
        };
        let t = self.tracer.now();
        let out = self.brokers[i].handle_batch_frames(batch);
        self.tracer.close_n(kind, at, t, n as u64);
        for ob in out {
            self.ship(i, ob);
        }
        self.tracer.close("hop", at, hop_start);
    }

    fn ship(&mut self, i: usize, ob: Outbound) {
        let at = i as u32;
        let t = self.tracer.now();
        let bytes = ob.frame.to_wire_bytes();
        self.tracer.close("encode", at, t);
        self.counts.bytes += bytes.len() as u64;
        match ob.dest {
            Dest::Broker(b) => {
                match ob.kind {
                    MessageKind::Publish => self.counts.broker_pub_frames += 1,
                    MessageKind::Subscribe | MessageKind::Unsubscribe => {
                        self.counts.broker_sub_frames += 1;
                    }
                    _ => {}
                }
                self.inboxes[b.0 as usize].push_back((Dest::Broker(BrokerId(at)), bytes));
            }
            Dest::Client(c) => {
                let t = self.tracer.now();
                let decoded = wire::decode_frame(&bytes).map(|(m, _)| m);
                self.tracer.close("deliver", at, t);
                if let Ok(Message::Publish(p)) = decoded {
                    self.record_delivery(c.0, p.doc_id.0, p.path_id.0);
                }
            }
        }
    }

    fn record_delivery(&mut self, client: u64, doc: u64, path: u32) {
        self.delivered.push((client, doc, path));
        if let Some(w) = &mut self.watch {
            // Removing makes a duplicate delivery count once here; the
            // oracle comparison still sees it.
            if w.doc == doc && w.expected.remove(&(client, path)) && w.expected.is_empty() {
                w.done_at = Some(crate::cpu::thread());
            }
        }
    }
}
