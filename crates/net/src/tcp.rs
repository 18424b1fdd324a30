//! TCP transport: brokers and clients over real sockets.
//!
//! The deployment counterpart of the discrete-event simulator: each
//! [`TcpNode`] runs one broker, listens for peers and clients, and
//! exchanges frames encoded with [`xdn_broker::wire`]. This is the
//! shape an actual deployment takes (one node per host, the `xdn-node`
//! binary).
//!
//! Connection protocol: after connecting, a peer sends a 9-byte hello —
//! `0x01 | u64 broker-id` for brokers, `0x02 | u64 client-id` for
//! clients — then length-prefixed message frames in both directions.
//! Each accepted connection reads its hello on its own thread, under a
//! timeout, so a silent connection stalls no other accept.
//! A connection whose first byte is `G` is treated as an HTTP `GET`
//! instead: the node replies with a Prometheus text snapshot of its
//! metrics (traffic by kind, routing-table sizes, latency histograms,
//! peer queue depths) and closes — `curl http://node-addr/metrics`
//! works against the same port the overlay uses.
//!
//! # Fault tolerance
//!
//! Every *dialled* peer link runs under a supervisor
//! ([`SupervisorConfig`]): the dialling side detects a dead connection
//! (write failure, read EOF, or heartbeat silence), reconnects with
//! exponential backoff plus jitter up to a retry budget, and meanwhile
//! buffers outbound frames in a bounded queue that sheds publications
//! before control messages. The accepting side detects death through
//! EOF or write failure and simply waits for the diallers to return.
//! Whenever a broker⇄broker connection is (re-)established — by either
//! side — a [`Message::SyncRequest`] is sent so both brokers re-install
//! the routing state relevant to the link (see
//! [`xdn_broker::Broker::export_routing_for`]). Because sync
//! installation is idempotent and buffered frames are retransmitted,
//! delivery across a link outage is at-least-once.
//!
//! # Socket I/O in bursts
//!
//! Frames cross each socket boundary a burst at a time, not one by
//! one. A reader thread reads its socket through a
//! [`READ_BUF_BYTES`] buffer and hands the broker loop every frame
//! that buffer holds whole (up to [`INBOX_BATCH_LIMIT`]) as one input,
//! so one `read` and one wake-up serve the burst. The broker loop
//! ships a drain's outputs once the drain is handled: a dialled peer's
//! frames enter its supervisor's queue under one lock, and an accepted
//! connection's frames collect in its [`WRITE_BUF_BYTES`] write buffer
//! and leave in one write. A supervisor pops every ready frame of its
//! queue in one call (up to a bound) and writes them together. The
//! node's sockets set `TCP_NODELAY`, since the node coalesces its own
//! writes. The wire carries the same frames, in the same order on
//! every link, as frame-at-a-time I/O would.

use crate::queue::{FrameQueue, Pop};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use xdn_broker::wire::MAX_FRAME_BYTES;
use xdn_broker::{
    wire, Broker, BrokerId, BrokerStats, ClientId, Dest, FrameBuf, Message, Outbound, RoutingConfig,
};
use xdn_obs::{render_prometheus, MetricData, MetricFamily};

const HELLO_BROKER: u8 = 0x01;
const HELLO_CLIENT: u8 = 0x02;

/// How long an accepted connection may take to send its hello. The
/// wait runs on the connection's own thread, and shutdown severs it
/// early; the timeout only frees that thread from a peer that never
/// speaks.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// Capacity of the broker loop's input channel, in inputs. Bounded so
/// a flood of inbound frames exerts backpressure on the reader threads
/// (and thus TCP flow control) instead of growing an unbounded heap
/// queue. A reader's input carries up to [`INBOX_BATCH_LIMIT`] frames,
/// so the inbox holds at most `INBOX_CAPACITY * INBOX_BATCH_LIMIT`
/// (1,048,576) frames. In bytes the bound barely moved from one frame
/// per input: a reader batches only frames already whole in its
/// [`READ_BUF_BYTES`] buffer, so an input holds at most one frame plus
/// 64 KiB of wire bytes.
const INBOX_CAPACITY: usize = 4096;

/// Most frames a reader hands the broker loop in one input, and the
/// frame count at which the loop stops gathering inputs into one drain
/// (so a drain holds fewer than twice this many). Bounds batch memory
/// and how long snapshot, scrape and stop requests can queue behind a
/// drain.
const INBOX_BATCH_LIMIT: usize = 256;

/// Bytes a connection's reader buffers. One `read` takes whatever the
/// socket holds, so a burst of small frames costs one syscall, not two
/// per frame.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Bytes a socket's writer collects before it must write. One drain's
/// frames for one destination leave in one write when they fit; a
/// larger run is written as the buffer fills.
const WRITE_BUF_BYTES: usize = 64 * 1024;

/// How long [`TcpNode::shutdown`] waits for the broker loop to stop
/// before severing the accepted connections it writes to.
const STOP_GRACE: Duration = Duration::from_secs(1);

/// Capacity of a client's delivery channel; a slow client consumer
/// backpressures its reader thread, not the node.
const CLIENT_INBOX_CAPACITY: usize = 1024;

/// Locks a std mutex, recovering from poisoning: the guarded values
/// here (peer addresses) stay coherent even if a holder panicked.
fn lock_clean<T>(m: &StdMutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Errors from the TCP transport.
#[derive(Debug)]
pub enum TcpError {
    /// Socket-level failure.
    Io(std::io::Error),
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for TcpError {}

impl From<std::io::Error> for TcpError {
    fn from(e: std::io::Error) -> Self {
        TcpError::Io(e)
    }
}

/// Supervision parameters for dialled peer links.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Idle time after which a keep-alive heartbeat is written.
    pub heartbeat_interval: Duration,
    /// Inbound silence after which the connection is declared dead.
    /// Must comfortably exceed `heartbeat_interval`.
    pub heartbeat_timeout: Duration,
    /// Delay before the first reconnect attempt; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the reconnect delay.
    pub backoff_max: Duration,
    /// Consecutive failed reconnect attempts before the supervisor
    /// abandons the link ([`LinkStats::gave_up`]).
    pub retry_budget: u32,
    /// Outbound frames buffered while disconnected. Overflow sheds
    /// publications before control messages — routing state must
    /// survive an outage, documents may be re-published.
    pub queue_capacity: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            retry_budget: 40,
            queue_capacity: 1024,
        }
    }
}

/// Counters one peer supervisor maintains ([`TcpNode::link_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Successful connection establishments (first connect included).
    pub connects: u64,
    /// Connections lost after being established.
    pub disconnects: u64,
    /// Outbound frames shed by the bounded queue.
    pub dropped_frames: u64,
    /// The retry budget was exhausted; the link is abandoned.
    pub gave_up: bool,
}

/// A point-in-time view of a node's broker ([`TcpNode::snapshot`]).
/// Lets tests and operators poll for quiescence instead of sleeping.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// The broker's message counters.
    pub stats: BrokerStats,
    /// Advertisements in the SRT.
    pub srt_size: usize,
    /// Subscriptions in the PRT.
    pub prt_size: usize,
    /// Canonical routing-state digest
    /// ([`xdn_broker::Broker::routing_signature`]).
    pub routing_signature: String,
}

enum Input {
    /// Frames one reader took from one burst, in arrival order.
    FromPeer(Dest, Vec<Message>),
    /// The write half of an accepted connection, owned by the broker
    /// loop from then on.
    PeerWriter(Dest, TcpStream),
    Snapshot(SyncSender<NodeSnapshot>),
    /// Render a Prometheus text snapshot of the node's metrics.
    MetricsText(SyncSender<String>),
    Stop,
}

/// A socket's write half, counting the write calls made on it for
/// `xdn_socket_writes_total`.
struct SocketWriter {
    stream: TcpStream,
    writes: Arc<AtomicU64>,
}

impl Write for SocketWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // A statistic that publishes no other data.
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// A socket's bounded write buffer: frames collect in it and leave in
/// one write on `flush`, or earlier once [`WRITE_BUF_BYTES`] fill up.
type FrameWriter = BufWriter<SocketWriter>;

fn frame_writer(stream: TcpStream, writes: &Arc<AtomicU64>) -> FrameWriter {
    // The node coalesces its own writes, so Nagle's algorithm could only
    // hold a write back until the previous one is acknowledged (in a
    // loopback `tcp-chain` run on a 2-core host, it raised the
    // wall-clock p90 delivery latency from 1.4 ms to 5.3 ms).
    let _ = stream.set_nodelay(true);
    BufWriter::with_capacity(
        WRITE_BUF_BYTES,
        SocketWriter {
            stream,
            writes: Arc::clone(writes),
        },
    )
}

/// Shuts a writer's socket down, discarding bytes it has not written:
/// after a failed write they could only fail again.
fn sever(writer: FrameWriter) {
    let (socket, _unsent) = writer.into_parts();
    let _ = socket.stream.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------
// Peer supervisor (the bounded outbound queue lives in crate::queue)
// ---------------------------------------------------------------------

/// One supervised outbound link to a dialled peer.
struct PeerLink {
    queue: Arc<FrameQueue>,
    stats: Arc<Mutex<LinkStats>>,
    addr: Arc<StdMutex<SocketAddr>>,
    /// The live socket of the current epoch, severed to force a
    /// reconnect ([`TcpNode::sever_peer`]) or on shutdown.
    current: Arc<Mutex<Option<TcpStream>>>,
    handle: JoinHandle<()>,
}

/// Deterministic-enough jitter without an RNG dependency: xorshift64*.
fn next_jitter(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Exponential backoff with half-width jitter: `base * 2^(attempt-1)`
/// capped at `max`, then uniformly drawn from `[d/2, d)`.
fn backoff_delay(cfg: &SupervisorConfig, attempt: u32, jitter: &mut u64) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    let full = cfg
        .backoff_base
        .saturating_mul(1u32 << exp)
        .min(cfg.backoff_max)
        .max(Duration::from_millis(1));
    let half = full / 2;
    let extra_ns = next_jitter(jitter) % half.as_nanos().max(1) as u64;
    half + Duration::from_nanos(extra_ns)
}

/// Sleeps in small slices so shutdown is not delayed by a long backoff.
fn sleep_watching(total: Duration, stopping: &AtomicBool) {
    let slice = Duration::from_millis(20);
    let mut left = total;
    while !left.is_zero() && !stopping.load(Ordering::SeqCst) {
        let step = left.min(slice);
        // xtask: allow(sleep) bounded 20ms backoff slice, stop-aware by construction
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

#[allow(clippy::too_many_arguments)]
fn supervise_peer(
    self_id: BrokerId,
    peer: BrokerId,
    addr: Arc<StdMutex<SocketAddr>>,
    queue: Arc<FrameQueue>,
    stats: Arc<Mutex<LinkStats>>,
    current: Arc<Mutex<Option<TcpStream>>>,
    inbox: SyncSender<Input>,
    cfg: SupervisorConfig,
    stopping: Arc<AtomicBool>,
    writes: Arc<AtomicU64>,
) {
    let mut jitter = {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos() as u64;
        t ^ ((peer.0 as u64) << 32) ^ self_id.0 as u64 | 1
    };
    // Encoded lazily on first idle tick, then reused for the
    // supervisor's whole lifetime: heartbeats never re-encode.
    let heartbeat = FrameBuf::from_message(Message::Heartbeat);
    'epochs: while !stopping.load(Ordering::SeqCst) {
        // Connect with exponential backoff + jitter, first attempt
        // immediate.
        let mut attempt = 0u32;
        let mut stream = loop {
            if stopping.load(Ordering::SeqCst) {
                break 'epochs;
            }
            // Copy the address out: a guard in the match scrutinee would
            // stay locked through the backoff sleep below and starve
            // `TcpNode::redial` for seconds.
            let target = *lock_clean(&addr);
            match TcpStream::connect(target) {
                Ok(s) => break s,
                Err(_) => {
                    attempt += 1;
                    if attempt > cfg.retry_budget {
                        stats.lock().gave_up = true;
                        break 'epochs;
                    }
                    sleep_watching(backoff_delay(&cfg, attempt, &mut jitter), &stopping);
                }
            }
        };

        let mut hello = [0u8; 9];
        hello[0] = HELLO_BROKER;
        hello[1..9].copy_from_slice(&(self_id.0 as u64).to_be_bytes());
        if stream.write_all(&hello).is_err() {
            continue;
        }
        let Ok(reader_stream) = stream.try_clone() else {
            continue;
        };
        // Inbound silence beyond the heartbeat timeout means the peer
        // (which heartbeats at `heartbeat_interval`, or echoes ours)
        // is gone even if the socket never errors.
        let _ = reader_stream.set_read_timeout(Some(cfg.heartbeat_timeout));
        *current.lock() = stream.try_clone().ok();
        stats.lock().connects += 1;
        queue.clear_down();
        // First frame of every epoch: ask the peer for the routing
        // state this link needs (idempotent on the receiving side).
        queue.push_front(Message::SyncRequest);

        let reader_queue = queue.clone();
        let reader_inbox = inbox.clone();
        let reader = std::thread::spawn(move || {
            read_frames(reader_stream, Dest::Broker(peer), reader_inbox);
            // EOF, frame error, or heartbeat silence: wake the writer.
            reader_queue.mark_down();
        });

        let mut writer = frame_writer(stream, &writes);
        let closed = loop {
            match queue.pop_wait(cfg.heartbeat_interval) {
                Pop::Closed => break true,
                Pop::Down => break false,
                Pop::Idle => {
                    if heartbeat
                        .write_to(&mut writer)
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break false;
                    }
                }
                Pop::Frames(frames) => {
                    let sent = frames
                        .iter()
                        .try_for_each(|f| f.write_to(&mut writer))
                        .and_then(|()| writer.flush());
                    if sent.is_err() {
                        // Retransmit after reconnecting. Sequenced
                        // frames are already held in the queue's
                        // inflight buffer (and the broker's retransmit
                        // buffer), so only the batch's unsequenced
                        // control frames go back to the front of the
                        // queue.
                        queue.requeue_unsent(frames);
                        break false;
                    }
                }
            }
        };
        if !closed {
            stats.lock().disconnects += 1;
            *current.lock() = None;
        }
        sever(writer);
        let _ = reader.join();
        if closed {
            break 'epochs;
        }
    }
}

// ---------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------

/// Accepted connections: their sockets (severed on shutdown so the
/// reader threads unblock) and reader handles (joined on shutdown).
type ConnList = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// One broker node on a TCP socket.
pub struct TcpNode {
    addr: SocketAddr,
    inbox: SyncSender<Input>,
    broker_thread: JoinHandle<()>,
    listener_handle: JoinHandle<()>,
    stopping: Arc<AtomicBool>,
    links: HashMap<BrokerId, PeerLink>,
    conns: ConnList,
}

impl TcpNode {
    /// Starts a node with default supervision: binds `listen` (use
    /// port 0 for an ephemeral port), spawns the accept loop and the
    /// broker loop, and supervises a connection to every peer in
    /// `peers` (id → address).
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot bind.
    pub fn start(
        id: BrokerId,
        config: RoutingConfig,
        listen: SocketAddr,
        peers: &[(BrokerId, SocketAddr)],
    ) -> Result<TcpNode, TcpError> {
        Self::start_with(id, config, listen, peers, &[], SupervisorConfig::default())
    }

    /// [`TcpNode::start`] with explicit supervision parameters, also
    /// arming the warm-up gate for `expected`: neighbours this node
    /// does not dial but that will dial in (acceptor-side links).
    ///
    /// A restarted broker has empty routing tables, and the zero-loss
    /// guarantee of the sequenced links holds only if it defers payload
    /// until *every* neighbour's `SyncState` has arrived. Dialled peers
    /// are armed automatically; acceptor-side neighbours are only
    /// discovered when they reconnect, which can be after another
    /// neighbour has already replayed its unacked frames — those would
    /// be acked and dropped unroutable. Restart a listener-side node
    /// with its known dialler ids here (the `--expect` flag of
    /// `xdn-node`) to close that window.
    ///
    /// Peers do not have to be up yet: each link's supervisor keeps
    /// dialling within its retry budget.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot bind.
    pub fn start_with(
        id: BrokerId,
        config: RoutingConfig,
        listen: SocketAddr,
        peers: &[(BrokerId, SocketAddr)],
        expected: &[BrokerId],
        supervision: SupervisorConfig,
    ) -> Result<TcpNode, TcpError> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = sync_channel::<Input>(INBOX_CAPACITY);
        let stopping = Arc::new(AtomicBool::new(false));
        let writes = Arc::new(AtomicU64::new(0));

        let mut broker = Broker::new(id, config);
        // Each node *incarnation* gets a later epoch than any previous
        // life of the same broker id: peers' dedup windows key on the
        // epoch, so a restarted node's frames must not be mistaken for
        // duplicates of its pre-crash sequence numbers. Wall-clock
        // microseconds are monotone across restarts for this purpose
        // (a restart takes far longer than the clock's granularity).
        let incarnation = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default()
            .as_micros() as u64;
        broker.set_epoch(incarnation);
        for &(pid, _) in peers {
            broker.add_neighbor(pid);
            // A fresh incarnation starts with empty routing tables;
            // its supervisors send a SyncRequest to every dialled
            // peer on connect. Until those peers answer with
            // SyncState, payload is deferred unacked (the warm-up
            // gate) rather than acknowledged and dropped unroutable.
            broker.expect_sync_from(pid);
        }
        for &pid in expected {
            // Acceptor-side neighbours: not dialled, but their
            // snapshots are prerequisites for acking payload, exactly
            // like the dialled ones. They arm the gate now and satisfy
            // it when they dial back in and answer our SyncRequest.
            broker.add_neighbor(pid);
            broker.expect_sync_from(pid);
        }

        // Supervised outbound links, one per dialled peer.
        let mut links = HashMap::new();
        let mut queues: HashMap<Dest, Arc<FrameQueue>> = HashMap::new();
        for &(pid, paddr) in peers {
            let queue = Arc::new(FrameQueue::new(supervision.queue_capacity));
            let stats = Arc::new(Mutex::new(LinkStats::default()));
            let addr_cell = Arc::new(StdMutex::new(paddr));
            let current = Arc::new(Mutex::new(None));
            let handle = {
                let (q, st, a, c, ibx, cfg, stop, w) = (
                    queue.clone(),
                    stats.clone(),
                    addr_cell.clone(),
                    current.clone(),
                    tx.clone(),
                    supervision.clone(),
                    stopping.clone(),
                    writes.clone(),
                );
                std::thread::spawn(move || supervise_peer(id, pid, a, q, st, c, ibx, cfg, stop, w))
            };
            queues.insert(Dest::Broker(pid), queue.clone());
            links.insert(
                pid,
                PeerLink {
                    queue,
                    stats,
                    addr: addr_cell,
                    current,
                    handle,
                },
            );
        }

        // Broker loop: single-threaded state machine fed by readers.
        let broker_thread = std::thread::spawn(move || broker_loop(broker, rx, queues, writes));

        // Accept loop. The stop flag is checked before handing each
        // accepted connection to its own thread; shutdown() flips it
        // and then dials the listener once to unblock `incoming()`.
        let conns: ConnList = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = stopping.clone();
        let accept_tx = tx.clone();
        let accept_conns = conns.clone();
        let listener_handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                // The clone is listed before the hello is read, so
                // shutdown can sever a connection that never sends it.
                let Ok(severable) = stream.try_clone() else {
                    continue;
                };
                let tx = accept_tx.clone();
                let handle = std::thread::spawn(move || serve_connection(stream, tx));
                let mut conns = accept_conns.lock();
                // Reap finished connections, so their sockets close now
                // rather than at shutdown.
                for (_, done) in conns.extract_if(.., |(_, h)| h.is_finished()) {
                    let _ = done.join();
                }
                conns.push((severable, handle));
            }
        });

        Ok(TcpNode {
            addr,
            inbox: tx,
            broker_thread,
            listener_handle,
            stopping,
            links,
            conns,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time view of the broker's state, or `None` if the
    /// broker loop is gone.
    pub fn snapshot(&self) -> Option<NodeSnapshot> {
        let (tx, rx) = sync_channel(1);
        self.inbox.send(Input::Snapshot(tx)).ok()?;
        rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    /// The node's metrics in the Prometheus text exposition format —
    /// the same body an HTTP `GET` against [`TcpNode::addr`] returns —
    /// or `None` if the broker loop is gone.
    pub fn metrics_text(&self) -> Option<String> {
        let (tx, rx) = sync_channel(1);
        self.inbox.send(Input::MetricsText(tx)).ok()?;
        rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    /// Polls [`TcpNode::snapshot`] until `pred` holds or `timeout`
    /// elapses. Returns whether the predicate held — the bounded
    /// replacement for sleeping in tests and scripts.
    pub fn await_state(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&NodeSnapshot) -> bool,
    ) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(s) = self.snapshot() {
                if pred(&s) {
                    return true;
                }
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            // xtask: allow(sleep) 5ms poll slice under an explicit caller deadline
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Supervision counters for a dialled peer, or `None` if the peer
    /// is not dialled from this node.
    pub fn link_stats(&self, peer: BrokerId) -> Option<LinkStats> {
        self.links
            .get(&peer)
            .map(|l| l.stats.lock().clone())
            .map(|mut s| {
                s.dropped_frames = self.links[&peer].queue.dropped();
                s
            })
    }

    /// Severs the current connection to a dialled peer (fault
    /// injection: a network blip). The supervisor notices and
    /// reconnects with backoff. Returns whether a live connection
    /// existed.
    pub fn sever_peer(&self, peer: BrokerId) -> bool {
        let Some(link) = self.links.get(&peer) else {
            return false;
        };
        match link.current.lock().as_ref() {
            Some(s) => s.shutdown(std::net::Shutdown::Both).is_ok(),
            None => false,
        }
    }

    /// Points a dialled peer's supervisor at a new address (the peer
    /// moved or was restarted elsewhere) and forces a reconnect.
    /// Returns whether the peer is dialled from this node.
    pub fn redial(&self, peer: BrokerId, addr: SocketAddr) -> bool {
        let Some(link) = self.links.get(&peer) else {
            return false;
        };
        *lock_clean(&link.addr) = addr;
        self.sever_peer(peer);
        true
    }

    /// Stops the broker loop, the supervisors, and every reader
    /// thread, then joins them all. The broker loop first handles the
    /// inputs queued ahead of the stop, for up to [`STOP_GRACE`]. The
    /// accept loop is unblocked by a final self-connection.
    pub fn shutdown(self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = self.inbox.send(Input::Stop);
        // Wake supervisors (possibly parked on their queues) and sever
        // their live sockets so reader threads unblock.
        for link in self.links.values() {
            link.queue.close();
            if let Some(s) = link.current.lock().as_ref() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        // Let the broker loop handle the inputs queued ahead of `Stop`
        // and write out their frames before its accepted connections
        // are severed: severing them under it can cut a drain in half,
        // a frame forwarded on one connection and the ack to its sender
        // lost on another, so a restarted node sees the sender replay
        // a frame that was already delivered. A write stuck on a peer
        // that stopped reading is cut after `STOP_GRACE`.
        let deadline = std::time::Instant::now() + STOP_GRACE;
        while !self.broker_thread.is_finished() && std::time::Instant::now() < deadline {
            // xtask: allow(sleep) 1ms poll slice under the STOP_GRACE deadline
            std::thread::sleep(Duration::from_millis(1));
        }
        // Sever accepted connections so their readers unblock.
        let conns = std::mem::take(&mut *self.conns.lock());
        for (stream, _) in &conns {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        for (_, handle) in conns {
            let _ = handle.join();
        }
        for (_, link) in self.links {
            let _ = link.handle.join();
        }
        let _ = self.broker_thread.join();
        let _ = self.listener_handle.join();
    }
}

/// Ships one drain's outputs once the drain is handled. A dialled
/// peer's frames enter its supervisor's bounded [`FrameQueue`] under one
/// lock, each shed or kept by the queue's rule, which counts what it
/// sheds for the scrape. An *accepted* connection's frames (a client,
/// or a broker that dialled us) collect in its write buffer, and each
/// buffer is written once at the end: a blocking write on the broker
/// loop's thread.
fn ship(
    out: Vec<Outbound>,
    queues: &HashMap<Dest, Arc<FrameQueue>>,
    writers: &mut HashMap<Dest, FrameWriter>,
) {
    let mut queued: HashMap<Dest, (&FrameQueue, Vec<FrameBuf>)> = HashMap::new();
    let mut buffered: Vec<Dest> = Vec::new();
    for Outbound { dest, frame, .. } in out {
        if let Some(q) = queues.get(&dest) {
            queued.entry(dest).or_insert((q, Vec::new())).1.push(frame);
        } else if let Some(w) = writers.get_mut(&dest) {
            if w.buffer().is_empty() {
                buffered.push(dest);
            }
            if frame.write_to(w).is_err() {
                drop_writer(writers, dest);
            }
        }
    }
    for (q, frames) in queued.into_values() {
        q.push_back_all(frames);
    }
    for dest in buffered {
        if writers.get_mut(&dest).is_some_and(|w| w.flush().is_err()) {
            drop_writer(writers, dest);
        }
    }
}

/// An accepted peer died: drop its writer and rely on the remote
/// supervisor (or client) to reconnect. A dropped sequenced frame is
/// replayed from the broker's retransmit buffer on the next sync.
fn drop_writer(writers: &mut HashMap<Dest, FrameWriter>, dest: Dest) {
    if let Some(w) = writers.remove(&dest) {
        sever(w);
    }
}

fn broker_loop(
    mut broker: Broker,
    rx: Receiver<Input>,
    queues: HashMap<Dest, Arc<FrameQueue>>,
    writes: Arc<AtomicU64>,
) {
    // Writers for *accepted* connections (clients, and brokers that
    // dialled us). Dialled peers go through their supervisor's queue;
    // `ship` picks the right path per destination.
    let mut writers: HashMap<Dest, FrameWriter> = HashMap::new();
    // A non-`FromPeer` input drained while gathering a frame batch is
    // carried into the next iteration instead of being dropped.
    let mut carried: Option<Input> = None;
    loop {
        let input = match carried.take() {
            Some(i) => i,
            None => match rx.recv() {
                Ok(i) => i,
                Err(_) => break,
            },
        };
        match input {
            Input::Stop => break,
            Input::Snapshot(reply) => {
                let _ = reply.send(NodeSnapshot {
                    stats: broker.stats().clone(),
                    srt_size: broker.srt_size(),
                    prt_size: broker.prt_size(),
                    routing_signature: broker.routing_signature(),
                });
            }
            Input::MetricsText(reply) => {
                let writes = writes.load(Ordering::Relaxed);
                let _ = reply.send(render_node_metrics(&broker, &queues, writes));
            }
            Input::PeerWriter(dest, stream) => {
                writers.insert(dest, frame_writer(stream, &writes));
                // A broker (re-)connected to us: both sides of a fresh
                // broker⇄broker connection request the link's state.
                // The dialler is also a routing neighbour from now on —
                // without this, a pure listener floods advertisements
                // only to its statically configured peers and anything
                // advertised on the accepting side never propagates.
                if let Dest::Broker(b) = dest {
                    // First sight of this peer means this broker holds
                    // no routing state involving it — the situation of
                    // a restarted listener whose neighbours dial back
                    // in. Arm the warm-up gate so replayed payload from
                    // one neighbour is deferred (unacked) until every
                    // rediscovered neighbour's SyncState arrives;
                    // otherwise frames get acked and dropped unroutable
                    // before the far side's subscriptions install. A
                    // re-accept of a known neighbour does not re-arm:
                    // our own tables survived its outage.
                    if !broker.neighbors().contains(&b) {
                        broker.add_neighbor(b);
                        broker.expect_sync_from(b);
                    }
                    ship(
                        vec![Outbound::from((dest, Message::SyncRequest))],
                        &queues,
                        &mut writers,
                    );
                }
            }
            Input::FromPeer(from, msgs) => {
                // Batch-drain: take every already-queued input in one
                // gulp. Other input kinds end the batch and are carried
                // into the next loop iteration.
                let mut frames = msgs.len();
                let mut batch = vec![(from, msgs)];
                while frames < INBOX_BATCH_LIMIT {
                    match rx.try_recv() {
                        Ok(Input::FromPeer(f, m)) => {
                            frames += m.len();
                            batch.push((f, m));
                        }
                        Ok(other) => {
                            carried = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                // Per-frame admission bookkeeping, in arrival order.
                let mut echo_heartbeats: Vec<Dest> = Vec::new();
                for (from, msg) in batch
                    .iter()
                    .flat_map(|(f, ms)| ms.iter().map(move |m| (*f, m)))
                {
                    // The accepting side does not run an idle timer; it
                    // echoes the dialler's heartbeats instead, giving
                    // the dialler's silence detector traffic to
                    // observe. (Dialled peers' heartbeats are NOT
                    // echoed — both sides echoing would ping-pong
                    // forever.)
                    if matches!(msg, Message::Heartbeat)
                        && !queues.contains_key(&from)
                        && matches!(from, Dest::Broker(_))
                    {
                        echo_heartbeats.push(from);
                    }
                    if let Message::Ack {
                        epoch: ack_epoch,
                        seq,
                    } = msg
                    {
                        // A cumulative ack also prunes the supervised
                        // queue's inflight hold, so a redial only
                        // replays frames the peer has not confirmed.
                        if let Some(q) = queues.get(&from) {
                            q.ack(*ack_epoch, *seq);
                        }
                    }
                }
                // Every frame is handled on its own, so every sequenced
                // frame gets its own ack. `handle_batch_frames` would
                // send one ack per sender per drain, but where a socket
                // drain ends depends on timing, so the ack traffic of
                // one run could not be repeated.
                let mut out: Vec<Outbound> = Vec::with_capacity(frames);
                for (from, msgs) in batch {
                    for msg in msgs {
                        out.extend(broker.handle_frames(from, msg));
                    }
                }
                out.extend(
                    echo_heartbeats
                        .into_iter()
                        .map(|to| Outbound::from((to, Message::Heartbeat))),
                );
                ship(out, &queues, &mut writers);
            }
        }
    }
}

/// Assembles the node's metric families — per-kind traffic, routing
/// table sizes, processing latency histograms, and per-peer outbound
/// queue depth/shed counters — and renders them in the Prometheus text
/// format. Runs on the broker-loop thread, which owns both the broker
/// and the dialled peers' queues.
fn render_node_metrics(
    broker: &Broker,
    queues: &HashMap<Dest, Arc<FrameQueue>>,
    socket_writes: u64,
) -> String {
    let stats = broker.stats();

    let mut received = MetricFamily::new(
        "xdn_broker_messages_received_total",
        "Messages handled by the broker, by kind.",
    );
    for (kind, count) in stats.received.iter() {
        received.push(&[("kind", kind.as_str())], MetricData::Counter(count));
    }

    let mut tables = MetricFamily::new(
        "xdn_routing_table_size",
        "Entries in the broker's routing tables.",
    );
    let srt = i64::try_from(broker.srt_size()).unwrap_or(i64::MAX);
    let prt = i64::try_from(broker.prt_size()).unwrap_or(i64::MAX);
    tables.push(&[("table", "srt")], MetricData::Gauge(srt));
    tables.push(&[("table", "prt")], MetricData::Gauge(prt));

    // Sort peers so the exposition is deterministic (HashMap order
    // would make scrapes flap line order between runs).
    let mut peers: Vec<(String, usize, u64, u64)> = queues
        .iter()
        .map(|(dest, q)| {
            let label = match dest {
                Dest::Broker(b) => format!("broker-{}", b.0),
                Dest::Client(c) => format!("client-{}", c.0),
            };
            (label, q.len(), q.dropped(), q.shed_publications())
        })
        .collect();
    peers.sort();
    let mut depth = MetricFamily::new(
        "xdn_peer_queue_depth",
        "Frames buffered toward each dialled peer.",
    );
    let mut shed = MetricFamily::new(
        "xdn_peer_queue_dropped_total",
        "Frames shed by each dialled peer's bounded queue.",
    );
    let mut shed_pubs = MetricFamily::new(
        "xdn_peer_shed_publications_total",
        "Publications shed by each dialled peer's bounded queue.",
    );
    for (label, len, dropped, pubs) in &peers {
        let len = i64::try_from(*len).unwrap_or(i64::MAX);
        depth.push(&[("peer", label)], MetricData::Gauge(len));
        shed.push(&[("peer", label)], MetricData::Counter(*dropped));
        shed_pubs.push(&[("peer", label)], MetricData::Counter(*pubs));
    }

    let mut families = vec![
        MetricFamily::gauge(
            "xdn_broker_id",
            "Identifier of the broker serving this endpoint.",
            i64::from(broker.id().0),
        ),
        received,
        MetricFamily::counter(
            "xdn_broker_messages_sent_total",
            "Messages emitted by the broker.",
            stats.sent,
        ),
        MetricFamily::counter(
            "xdn_socket_writes_total",
            "Write calls made on peer and client sockets.",
            socket_writes,
        ),
        MetricFamily::counter(
            "xdn_broker_deliveries_total",
            "Publications delivered to local clients.",
            stats.deliveries,
        ),
        tables,
        MetricFamily::histogram(
            "xdn_sub_processing_seconds",
            "Subscription processing latency.",
            stats.sub_processing.clone(),
        ),
        MetricFamily::histogram(
            "xdn_pub_routing_seconds",
            "Publication routing latency.",
            stats.pub_routing.clone(),
        ),
        MetricFamily::counter(
            "xdn_retransmits_total",
            "Sequenced frames replayed from retransmit buffers.",
            stats.retransmits,
        ),
        MetricFamily::counter(
            "xdn_dup_frames_total",
            "Duplicate sequenced frames suppressed by dedup windows.",
            stats.dup_frames,
        ),
        MetricFamily::counter(
            "xdn_stale_frames_total",
            "Frames from superseded sender epochs, dropped.",
            stats.stale_frames,
        ),
        MetricFamily::histogram(
            "xdn_ack_lag_seconds",
            "Time a sequenced frame waited in the retransmit buffer before its ack.",
            stats.ack_lag.clone(),
        ),
        MetricFamily::counter(
            "xdn_warmup_shed_total",
            "Payload frames shed from a full warm-up buffer; their senders replay them.",
            stats.warmup_shed,
        ),
        MetricFamily::counter(
            "xdn_retransmit_overflow_total",
            "Sequenced frames shed from a full retransmit buffer, no longer replayable.",
            stats.retransmit_overflow,
        ),
        depth,
        shed,
        shed_pubs,
    ];
    // Wire codec + frame-pool counters. Process-wide (the codec's
    // atomics span every connection thread), exposed on each node so
    // encode-per-fan-out and pool hit rates are scrapeable.
    let codec = wire::codec_stats();
    families.push(MetricFamily::counter(
        "xdn_frame_encode_calls_total",
        "Frame body encodes performed by the wire codec.",
        codec.encode_calls,
    ));
    families.push(MetricFamily::counter(
        "xdn_frame_encoded_bytes_total",
        "Bytes produced by wire codec encodes.",
        codec.encoded_bytes,
    ));
    families.push(MetricFamily::counter(
        "xdn_frame_pool_hits_total",
        "Frame buffer acquisitions served from the thread-local pool.",
        codec.pool_hits,
    ));
    families.push(MetricFamily::counter(
        "xdn_frame_pool_misses_total",
        "Frame buffer acquisitions that had to allocate.",
        codec.pool_misses,
    ));
    families.push(MetricFamily::counter(
        "xdn_frame_pool_discards_total",
        "Frame buffers dropped instead of pooled (oversized or pool full).",
        codec.pool_discards,
    ));
    // Shared-automaton families, present only on non-covering brokers.
    if let Some(aut) = broker.automaton_stats() {
        families.push(MetricFamily::gauge(
            "xdn_automaton_states",
            "NFA states allocated by the shared subscription automaton.",
            i64::try_from(aut.states).unwrap_or(i64::MAX),
        ));
        families.push(MetricFamily::counter(
            "xdn_automaton_transitions_total",
            "NFA edges traversed while matching publications.",
            aut.transitions_total,
        ));
        families.push(MetricFamily::gauge(
            "xdn_automaton_active_states_peak",
            "Largest active-state set any single traversal reached.",
            i64::try_from(aut.peak_active_states).unwrap_or(i64::MAX),
        ));
        families.push(MetricFamily::counter(
            "xdn_automaton_compactions_total",
            "Compaction rebuilds triggered by subscription churn.",
            aut.compactions_total,
        ));
        families.push(MetricFamily::histogram(
            "xdn_automaton_rebuild_seconds",
            "Duration of automaton compaction rebuilds.",
            aut.rebuild_seconds.clone(),
        ));
    }
    render_prometheus(&families)
}

/// Serves one HTTP metrics scrape on an accepted connection whose
/// hello began with `b'G'` (i.e. an HTTP `GET`). Drains the request
/// headers, asks the broker loop for a snapshot, writes a minimal
/// `HTTP/1.0` response, and closes.
fn serve_metrics(mut stream: TcpStream, tx: SyncSender<Input>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    // The 9-byte hello already consumed "GET /metr"; drain the rest of
    // the request up to the blank line ending the headers (bounded, so
    // a malformed request cannot pin this thread).
    let mut seen: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 256];
    while !seen.windows(4).any(|w| w == b"\r\n\r\n") && seen.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => seen.extend_from_slice(&chunk[..n]),
        }
    }
    let (reply_tx, reply_rx) = sync_channel(1);
    let body = if tx.send(Input::MetricsText(reply_tx)).is_ok() {
        reply_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_default()
    } else {
        String::new()
    };
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Serves one accepted connection on its own thread: reads the hello
/// within [`HELLO_TIMEOUT`], then either answers an HTTP scrape or
/// registers the peer's writer with the broker loop and feeds it the
/// peer's frames.
fn serve_connection(mut stream: TcpStream, tx: SyncSender<Input>) {
    let mut hello = [0u8; 9];
    let greeted = stream
        .set_read_timeout(Some(HELLO_TIMEOUT))
        .and_then(|()| stream.read_exact(&mut hello))
        .and_then(|()| stream.set_read_timeout(None));
    let [kind, id @ ..] = hello;
    let id = u64::from_be_bytes(id);
    let from = match kind {
        _ if greeted.is_err() => None,
        // Not a peer hello: an HTTP scrape ("GET …").
        b'G' => return serve_metrics(stream, tx),
        HELLO_BROKER => Some(Dest::Broker(BrokerId(id as u32))),
        HELLO_CLIENT => Some(Dest::Client(ClientId(id))),
        _ => None,
    };
    // A silent, short or unknown hello drops the connection.
    let Some((from, writer)) = from.zip(stream.try_clone().ok()) else {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return;
    };
    if tx.send(Input::PeerWriter(from, writer)).is_ok() {
        read_frames(stream, from, tx);
    }
}

/// Reads and decodes one length-prefixed frame, enforcing
/// [`MAX_FRAME_BYTES`] before allocating. The frame passes through a
/// pooled buffer, returned via [`wire::pool_release`]. `None` on EOF,
/// timeout, or an oversized or malformed frame — all reasons to drop
/// the connection.
fn read_message(reader: &mut impl Read) -> Option<Message> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf).ok()?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return None;
    }
    let mut frame = wire::pool_acquire();
    frame.resize(4 + len, 0);
    frame[..4].copy_from_slice(&len_buf);
    let decoded = reader
        .read_exact(&mut frame[4..])
        .ok()
        .and_then(|()| wire::decode_frame(&frame).ok());
    wire::pool_release(frame);
    decoded.map(|(msg, _)| msg)
}

/// Whether `buf` starts with a whole frame, so reading it needs no
/// syscall.
fn frame_buffered(buf: &[u8]) -> bool {
    buf.split_first_chunk::<4>()
        .is_some_and(|(len, body)| body.len() >= u32::from_be_bytes(*len) as usize)
}

/// Feeds the broker loop a connection's frames, one input per burst
/// (see [`read_burst`]), until EOF, a timeout, or a bad frame.
fn read_frames(stream: TcpStream, from: Dest, tx: SyncSender<Input>) {
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, &stream);
    loop {
        let (burst, ended) = read_burst(&mut reader);
        let handed_over = burst.is_empty() || tx.send(Input::FromPeer(from, burst)).is_ok();
        if ended || !handed_over {
            break;
        }
    }
    // Writer clones may be held elsewhere (broker loop, conns list);
    // severing the socket here makes the drop visible to the remote.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Blocks for one frame, then takes every further frame the buffer
/// already holds whole, up to [`INBOX_BATCH_LIMIT`], without another
/// read. Also returns whether the connection ended (see
/// [`read_message`]); the frames before the end still count.
fn read_burst(reader: &mut BufReader<&TcpStream>) -> (Vec<Message>, bool) {
    let mut burst = Vec::new();
    loop {
        let Some(msg) = read_message(reader) else {
            return (burst, true);
        };
        burst.push(msg);
        if burst.len() >= INBOX_BATCH_LIMIT || !frame_buffered(reader.buffer()) {
            return (burst, false);
        }
    }
}

fn connect_with_retry(addr: SocketAddr, budget: Duration) -> Result<TcpStream, TcpError> {
    let deadline = std::time::Instant::now() + budget;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(TcpError::Io(e));
                }
                // xtask: allow(sleep) 25ms redial slice under the caller's budget
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// A client connection to a [`TcpNode`]. Dropping it closes the
/// connection.
pub struct TcpClient {
    writer: TcpStream,
    /// Deliveries from the reader thread; taken only by `drop`.
    reader: Option<Receiver<Message>>,
    reader_thread: Option<JoinHandle<()>>,
}

impl TcpClient {
    /// Connects to a node as `id` (publisher and/or subscriber).
    ///
    /// # Errors
    ///
    /// Returns an error if the connection or hello fails.
    pub fn connect(addr: SocketAddr, id: ClientId) -> Result<TcpClient, TcpError> {
        let mut stream = connect_with_retry(addr, Duration::from_secs(5))?;
        let mut hello = [0u8; 9];
        hello[0] = HELLO_CLIENT;
        hello[1..9].copy_from_slice(&id.0.to_be_bytes());
        stream.write_all(&hello)?;
        let (tx, rx) = sync_channel(CLIENT_INBOX_CAPACITY);
        let read_stream = stream.try_clone()?;
        let reader_thread = std::thread::spawn(move || {
            client_read(read_stream, tx);
        });
        Ok(TcpClient {
            writer: stream,
            reader: Some(rx),
            reader_thread: Some(reader_thread),
        })
    }

    /// Sends a message to the node.
    ///
    /// # Errors
    ///
    /// Returns an `InvalidInput` error, having sent nothing and kept the
    /// connection usable, if the message does not fit the wire format
    /// ([`wire::encode_checked`]); the node would drop the connection.
    /// Returns an error if the socket write fails.
    pub fn send(&mut self, msg: &Message) -> Result<(), TcpError> {
        let mut buf = wire::pool_acquire();
        let res = match wire::encode_checked(msg, &mut buf) {
            Ok(()) => self.writer.write_all(&buf),
            Err(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, e)),
        };
        wire::pool_release(buf);
        res?;
        Ok(())
    }

    /// Waits up to `timeout` for the next delivered message.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.reader.as_ref()?.recv_timeout(timeout).ok()
    }
}

impl Drop for TcpClient {
    fn drop(&mut self) {
        // The reader thread holds a clone of the socket, so closing
        // this handle alone would leave the connection open: shut the
        // socket down, which also ends the reader's blocking read.
        let _ = self.writer.shutdown(Shutdown::Both);
        // The reader may be parked on a full delivery channel; with the
        // receiver gone its send fails and it returns.
        self.reader = None;
        if let Some(reader) = self.reader_thread.take() {
            let _ = reader.join();
        }
    }
}

fn client_read(stream: TcpStream, tx: SyncSender<Message>) {
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    while let Some(msg) = read_message(&mut reader) {
        if tx.send(msg).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdn_broker::MessageKind;
    use xdn_core::adv::{AdvPath, Advertisement};
    use xdn_core::rtable::{AdvId, SubId};
    use xdn_xml::{DocId, PathId};

    fn ephemeral() -> SocketAddr {
        "127.0.0.1:0".parse().expect("valid addr")
    }

    fn publication(elements: &[&str], doc: u64) -> Message {
        Message::Publish(xdn_broker::Publication {
            doc_id: DocId(doc),
            path_id: PathId(0),
            elements: elements
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            attributes: Vec::new(),
            doc_bytes: 32,
        })
    }

    /// Supervision tuned for tests: fast heartbeats and reconnects.
    fn fast_supervision() -> SupervisorConfig {
        SupervisorConfig {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(400),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(100),
            retry_budget: 200,
            queue_capacity: 64,
        }
    }

    #[test]
    fn tcp_end_to_end_two_nodes() {
        // Node 1 first (no peers), node 0 dials it.
        let n1 = TcpNode::start(BrokerId(1), RoutingConfig::WithAdvWithCov, ephemeral(), &[])
            .expect("node 1");
        let n0 = TcpNode::start(
            BrokerId(0),
            RoutingConfig::WithAdvWithCov,
            ephemeral(),
            &[(BrokerId(1), n1.addr())],
        )
        .expect("node 0");

        let mut publisher = TcpClient::connect(n0.addr(), ClientId(1)).expect("publisher");
        let mut subscriber = TcpClient::connect(n1.addr(), ClientId(2)).expect("subscriber");

        let adv = Advertisement::non_recursive(AdvPath::from_names(&["a", "b"]));
        publisher
            .send(&Message::advertise(AdvId(1), adv))
            .expect("advertise");
        subscriber
            .send(&Message::subscribe(SubId(1), "/a/*".parse().expect("xpe")))
            .expect("subscribe");
        // The subscription is in effect once it reaches n0's PRT.
        assert!(
            n0.await_state(Duration::from_secs(5), |s| s.prt_size >= 1),
            "subscription did not propagate to n0"
        );

        publisher
            .send(&publication(&["a", "b"], 1))
            .expect("publish");
        let got = subscriber.recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(got, Some(Message::Publish(_))),
            "expected delivery over TCP, got {got:?}"
        );
        // The forwarded publication rode the sequenced channel: n1's
        // cumulative ack for it reaches the sending broker.
        assert!(
            n0.await_state(Duration::from_secs(5), |s| {
                s.stats.received_of(MessageKind::Ack) >= 1
            }),
            "acks must flow back to the sending broker"
        );
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn tcp_end_to_end_listener_side_advertiser() {
        // Mirror of `tcp_end_to_end_two_nodes`: the advertiser sits on
        // the *listening* node and the subscriber on the dialler.
        // Regression test for the accept path not registering the
        // dialling broker as a routing neighbour — the advertisement
        // would flood nowhere and the subscription stay local.
        let n1 = TcpNode::start(BrokerId(1), RoutingConfig::WithAdvWithCov, ephemeral(), &[])
            .expect("node 1");
        let n0 = TcpNode::start(
            BrokerId(0),
            RoutingConfig::WithAdvWithCov,
            ephemeral(),
            &[(BrokerId(1), n1.addr())],
        )
        .expect("node 0");

        let mut publisher = TcpClient::connect(n1.addr(), ClientId(1)).expect("publisher");
        let mut subscriber = TcpClient::connect(n0.addr(), ClientId(2)).expect("subscriber");

        let adv = Advertisement::non_recursive(AdvPath::from_names(&["a", "b"]));
        publisher
            .send(&Message::advertise(AdvId(1), adv))
            .expect("advertise");
        // The advertisement must cross to the dialler before the
        // subscription can route back along it.
        assert!(
            n0.await_state(Duration::from_secs(5), |s| s.srt_size >= 1),
            "advertisement did not propagate to the dialling node"
        );
        subscriber
            .send(&Message::subscribe(SubId(1), "/a/*".parse().expect("xpe")))
            .expect("subscribe");
        assert!(
            n1.await_state(Duration::from_secs(5), |s| s.prt_size >= 1),
            "subscription did not propagate to n1"
        );

        publisher
            .send(&publication(&["a", "b"], 7))
            .expect("publish");
        let got = subscriber.recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(got, Some(Message::Publish(_))),
            "expected delivery over TCP, got {got:?}"
        );
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn tcp_non_matching_not_delivered() {
        let n =
            TcpNode::start(BrokerId(0), RoutingConfig::NoAdvNoCov, ephemeral(), &[]).expect("node");
        let mut publisher = TcpClient::connect(n.addr(), ClientId(1)).expect("pub");
        let mut subscriber = TcpClient::connect(n.addr(), ClientId(2)).expect("sub");
        subscriber
            .send(&Message::subscribe(SubId(1), "/x".parse().expect("xpe")))
            .expect("subscribe");
        assert!(n.await_state(Duration::from_secs(5), |s| s
            .stats
            .received_of(MessageKind::Subscribe)
            >= 1));
        publisher.send(&publication(&["a"], 1)).expect("publish");
        // The broker has routed the publication once it is counted;
        // nothing may reach the non-matching subscriber.
        assert!(n.await_state(Duration::from_secs(5), |s| s
            .stats
            .received_of(MessageKind::Publish)
            >= 1));
        assert!(subscriber.recv_timeout(Duration::from_millis(50)).is_none());
        n.shutdown();
    }

    #[test]
    fn tcp_metrics_scrape_over_http() {
        let n =
            TcpNode::start(BrokerId(7), RoutingConfig::NoAdvNoCov, ephemeral(), &[]).expect("node");
        let mut publisher = TcpClient::connect(n.addr(), ClientId(1)).expect("pub");
        let mut subscriber = TcpClient::connect(n.addr(), ClientId(2)).expect("sub");
        subscriber
            .send(&Message::subscribe(SubId(1), "/a".parse().expect("xpe")))
            .expect("subscribe");
        assert!(n.await_state(Duration::from_secs(5), |s| {
            s.stats.received_of(MessageKind::Subscribe) >= 1
        }));
        publisher.send(&publication(&["a"], 1)).expect("publish");
        assert!(n.await_state(Duration::from_secs(5), |s| s.stats.deliveries >= 1));

        // A plain HTTP GET against the same port the overlay uses.
        let mut http = TcpStream::connect(n.addr()).expect("connect");
        http.write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        http.read_to_string(&mut response).expect("response");
        assert!(
            response.starts_with("HTTP/1.0 200 OK\r\n"),
            "bad status line: {response}"
        );
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.contains("xdn_broker_id 7\n"), "{body}");
        assert!(
            body.contains("xdn_broker_messages_received_total{kind=\"subscribe\"} 1\n"),
            "{body}"
        );
        assert!(
            body.contains("xdn_broker_messages_received_total{kind=\"publish\"} 1\n"),
            "{body}"
        );
        assert!(
            body.contains("xdn_routing_table_size{table=\"prt\"} 1\n"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE xdn_sub_processing_seconds histogram\n"),
            "{body}"
        );
        assert!(body.contains("xdn_pub_routing_seconds_count 1\n"), "{body}");
        // Reliability families are always exposed, even at zero.
        assert!(body.contains("xdn_retransmits_total"), "{body}");
        assert!(body.contains("xdn_dup_frames_total"), "{body}");
        assert!(body.contains("xdn_stale_frames_total"), "{body}");
        assert!(body.contains("xdn_ack_lag_seconds"), "{body}");
        assert!(body.contains("xdn_warmup_shed_total 0\n"), "{body}");
        assert!(body.contains("xdn_retransmit_overflow_total 0\n"), "{body}");
        assert!(body.contains("xdn_peer_shed_publications_total"), "{body}");
        assert!(body.contains("xdn_frame_encode_calls_total"), "{body}");
        assert!(body.contains("xdn_frame_encoded_bytes_total"), "{body}");
        assert!(body.contains("xdn_frame_pool_hits_total"), "{body}");
        assert!(body.contains("xdn_frame_pool_misses_total"), "{body}");
        assert!(body.contains("xdn_frame_pool_discards_total"), "{body}");
        // The delivery took a socket write; writes never outnumber
        // frames sent here.
        assert!(
            body.contains("# TYPE xdn_socket_writes_total counter\n"),
            "{body}"
        );
        let sample = |family: &str| -> u64 {
            body.lines()
                .find_map(|l| l.strip_prefix(family)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("no {family} sample in {body}"))
        };
        let writes = sample("xdn_socket_writes_total");
        assert!(writes >= 1, "{body}");
        assert!(writes <= sample("xdn_broker_messages_sent_total"), "{body}");

        // The programmatic accessor serves the same families.
        let text = n.metrics_text().expect("metrics text");
        assert!(text.contains("xdn_broker_deliveries_total 1\n"), "{text}");
        n.shutdown();
    }

    #[test]
    fn tcp_automaton_metrics_scrape() {
        let cfg = RoutingConfig::NoAdvNoCov;
        let n = TcpNode::start(BrokerId(9), cfg, ephemeral(), &[]).expect("node");
        let mut publisher = TcpClient::connect(n.addr(), ClientId(1)).expect("pub");
        let mut subscriber = TcpClient::connect(n.addr(), ClientId(2)).expect("sub");
        subscriber
            .send(&Message::subscribe(SubId(1), "//a".parse().expect("xpe")))
            .expect("subscribe");
        assert!(n.await_state(Duration::from_secs(5), |s| {
            s.stats.received_of(MessageKind::Subscribe) >= 1
        }));
        publisher.send(&publication(&["a"], 1)).expect("publish");
        assert!(n.await_state(Duration::from_secs(5), |s| s.stats.deliveries >= 1));

        let text = n.metrics_text().expect("metrics text");
        assert!(
            text.contains("# TYPE xdn_automaton_states gauge\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE xdn_automaton_transitions_total counter\n"),
            "{text}"
        );
        assert!(text.contains("xdn_automaton_active_states_peak"), "{text}");
        assert!(
            text.contains("xdn_automaton_compactions_total 0\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE xdn_automaton_rebuild_seconds histogram\n"),
            "{text}"
        );
        n.shutdown();
    }

    #[test]
    fn unencodable_publication_is_refused_and_the_connection_survives() {
        let n =
            TcpNode::start(BrokerId(0), RoutingConfig::NoAdvNoCov, ephemeral(), &[]).expect("node");
        let mut publisher = TcpClient::connect(n.addr(), ClientId(1)).expect("pub");
        let mut subscriber = TcpClient::connect(n.addr(), ClientId(2)).expect("sub");
        subscriber
            .send(&Message::subscribe(SubId(1), "/a".parse().expect("xpe")))
            .expect("subscribe");
        assert!(n.await_state(Duration::from_secs(5), |s| s
            .stats
            .received_of(MessageKind::Subscribe)
            >= 1));
        // Legal XML the codec cannot carry: a 70,000-byte attribute
        // value overflows its u16 string prefix, and three elements
        // with 100 values of 65,535 bytes each make a frame over
        // MAX_FRAME_BYTES.
        let value = |n: usize| ("v".to_owned(), "x".repeat(n));
        let unencodable = [vec![vec![value(70_000)]], vec![vec![value(65_535); 100]; 3]];
        for (doc, attributes) in (1..).zip(unencodable) {
            let Message::Publish(mut p) = publication(&["a", "b", "c"], doc) else {
                unreachable!("publication() builds a Publish");
            };
            p.attributes = attributes;
            match publisher.send(&Message::Publish(p)) {
                Err(TcpError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
                Ok(()) => panic!("unencodable document {doc} was sent"),
            }
        }
        publisher.send(&publication(&["a"], 3)).expect("publish");
        match subscriber.recv_timeout(Duration::from_secs(5)) {
            Some(Message::Publish(p)) => assert_eq!(p.doc_id, DocId(3)),
            other => panic!("expected document 3, got {other:?}"),
        }
        n.shutdown();
    }

    #[test]
    fn tcp_attribute_predicates_over_the_wire() {
        let n = TcpNode::start(BrokerId(0), RoutingConfig::NoAdvWithCov, ephemeral(), &[])
            .expect("node");
        let mut publisher = TcpClient::connect(n.addr(), ClientId(1)).expect("pub");
        let mut subscriber = TcpClient::connect(n.addr(), ClientId(2)).expect("sub");
        subscriber
            .send(&Message::subscribe(
                SubId(1),
                "//claim[@lang='en']".parse().expect("xpe"),
            ))
            .expect("subscribe");
        assert!(n.await_state(Duration::from_secs(5), |s| s
            .stats
            .received_of(MessageKind::Subscribe)
            >= 1));
        let doc = xdn_xml::parse_document(
            r#"<claims><claim lang="en"><amount>5</amount></claim></claims>"#,
        )
        .expect("doc");
        let bytes = doc.to_xml_string().len();
        for p in xdn_xml::paths::extract_paths(&doc, DocId(1)) {
            publisher
                .send(&Message::Publish(xdn_broker::Publication::from_doc_path(
                    &p, bytes,
                )))
                .expect("publish");
        }
        let got = subscriber.recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(got, Some(Message::Publish(_))),
            "predicate match over TCP"
        );
        n.shutdown();
    }

    #[test]
    fn severed_link_reconnects_and_delivery_resumes() {
        let n1 = TcpNode::start(BrokerId(1), RoutingConfig::WithAdvWithCov, ephemeral(), &[])
            .expect("node 1");
        let n0 = TcpNode::start_with(
            BrokerId(0),
            RoutingConfig::WithAdvWithCov,
            ephemeral(),
            &[(BrokerId(1), n1.addr())],
            &[],
            fast_supervision(),
        )
        .expect("node 0");

        let mut publisher = TcpClient::connect(n0.addr(), ClientId(1)).expect("publisher");
        let mut subscriber = TcpClient::connect(n1.addr(), ClientId(2)).expect("subscriber");
        let adv = Advertisement::non_recursive(AdvPath::from_names(&["a", "b"]));
        publisher
            .send(&Message::advertise(AdvId(1), adv))
            .expect("advertise");
        subscriber
            .send(&Message::subscribe(SubId(1), "/a".parse().expect("xpe")))
            .expect("subscribe");
        assert!(n0.await_state(Duration::from_secs(5), |s| s.prt_size >= 1));
        publisher
            .send(&publication(&["a", "b"], 1))
            .expect("publish");
        assert!(matches!(
            subscriber.recv_timeout(Duration::from_secs(5)),
            Some(Message::Publish(_))
        ));
        let connects_before = n0.link_stats(BrokerId(1)).expect("dialled").connects;

        // A network blip kills the connection. Neither node restarts;
        // the supervisor must reconnect and delivery must resume.
        assert!(n0.sever_peer(BrokerId(1)), "a live connection existed");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = n0.link_stats(BrokerId(1)).expect("dialled");
            if stats.connects > connects_before {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "supervisor never reconnected"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        publisher
            .send(&publication(&["a", "b"], 2))
            .expect("publish after blip");
        let got = subscriber.recv_timeout(Duration::from_secs(10));
        assert!(
            matches!(got, Some(Message::Publish(_))),
            "delivery must resume after reconnect, got {got:?}"
        );
        let stats = n0.link_stats(BrokerId(1)).expect("dialled");
        assert!(stats.disconnects >= 1);
        assert!(!stats.gave_up);
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn frames_queued_during_outage_are_retransmitted() {
        let n1 = TcpNode::start(BrokerId(1), RoutingConfig::WithAdvWithCov, ephemeral(), &[])
            .expect("node 1");
        let n0 = TcpNode::start_with(
            BrokerId(0),
            RoutingConfig::WithAdvWithCov,
            ephemeral(),
            &[(BrokerId(1), n1.addr())],
            &[],
            fast_supervision(),
        )
        .expect("node 0");
        let mut publisher = TcpClient::connect(n0.addr(), ClientId(1)).expect("publisher");
        let mut subscriber = TcpClient::connect(n1.addr(), ClientId(2)).expect("subscriber");
        let adv = Advertisement::non_recursive(AdvPath::from_names(&["a", "b"]));
        publisher
            .send(&Message::advertise(AdvId(1), adv))
            .expect("advertise");
        subscriber
            .send(&Message::subscribe(SubId(1), "/a".parse().expect("xpe")))
            .expect("subscribe");
        assert!(n0.await_state(Duration::from_secs(5), |s| s.prt_size >= 1));

        // Publish INTO the outage: n0 buffers the frame and flushes it
        // once the supervisor reconnects.
        n0.sever_peer(BrokerId(1));
        publisher
            .send(&publication(&["a", "b"], 7))
            .expect("publish during outage");
        let got = subscriber.recv_timeout(Duration::from_secs(10));
        assert!(
            matches!(got, Some(Message::Publish(_))),
            "buffered frame must arrive after reconnect, got {got:?}"
        );
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn restarted_peer_recovers_state_via_sync() {
        let n1 = TcpNode::start(BrokerId(1), RoutingConfig::WithAdvWithCov, ephemeral(), &[])
            .expect("node 1");
        let n0 = TcpNode::start_with(
            BrokerId(0),
            RoutingConfig::WithAdvWithCov,
            ephemeral(),
            &[(BrokerId(1), n1.addr())],
            &[],
            fast_supervision(),
        )
        .expect("node 0");
        let mut publisher = TcpClient::connect(n0.addr(), ClientId(1)).expect("publisher");
        let mut subscriber = TcpClient::connect(n1.addr(), ClientId(2)).expect("subscriber");
        let adv = Advertisement::non_recursive(AdvPath::from_names(&["a", "b"]));
        publisher
            .send(&Message::advertise(AdvId(1), adv.clone()))
            .expect("advertise");
        subscriber
            .send(&Message::subscribe(SubId(1), "/a".parse().expect("xpe")))
            .expect("subscribe");
        assert!(n0.await_state(Duration::from_secs(5), |s| s.prt_size >= 1));

        // n1 dies and is replaced by a fresh, empty node (new port —
        // the old one may linger in TIME_WAIT). n0 is redirected; the
        // sync exchange must rebuild n1's SRT, and the returning
        // subscriber re-subscribes (client state is the client's).
        n1.shutdown();
        let n1b = TcpNode::start(BrokerId(1), RoutingConfig::WithAdvWithCov, ephemeral(), &[])
            .expect("node 1 restarted");
        assert!(n0.redial(BrokerId(1), n1b.addr()));
        assert!(
            n1b.await_state(Duration::from_secs(10), |s| s.srt_size >= 1),
            "sync must restore the advertisement on the restarted node"
        );
        let mut subscriber = TcpClient::connect(n1b.addr(), ClientId(2)).expect("subscriber back");
        subscriber
            .send(&Message::subscribe(SubId(1), "/a".parse().expect("xpe")))
            .expect("re-subscribe");
        assert!(n0.await_state(Duration::from_secs(10), |s| s
            .stats
            .received_of(MessageKind::Subscribe)
            >= 2));

        publisher
            .send(&publication(&["a", "b"], 3))
            .expect("publish after restart");
        let got = subscriber.recv_timeout(Duration::from_secs(10));
        assert!(
            matches!(got, Some(Message::Publish(_))),
            "delivery must resume after peer restart, got {got:?}"
        );
        n0.shutdown();
        n1b.shutdown();
    }

    #[test]
    fn outage_replay_waits_for_expected_neighbour() {
        // Chain n0 — n1 — n2: publisher on n0, subscriber on n2, and
        // the middle broker n1 a pure listener both ends dial. n1 dies
        // with publications in flight, and on restart n0 reconnects
        // (and replays its unacked frames) well before n2 does. The
        // `--expect` roster is what makes this safe: without it the
        // fresh n1 acks and drops the replayed frames as unroutable
        // before n2's SyncState re-installs the subscription.
        let cfg = RoutingConfig::WithAdvWithCov;
        let n1 = TcpNode::start(BrokerId(1), cfg, ephemeral(), &[]).expect("node 1");
        let n0 = TcpNode::start_with(
            BrokerId(0),
            cfg,
            ephemeral(),
            &[(BrokerId(1), n1.addr())],
            &[],
            fast_supervision(),
        )
        .expect("node 0");
        let n2 = TcpNode::start_with(
            BrokerId(2),
            cfg,
            ephemeral(),
            &[(BrokerId(1), n1.addr())],
            &[],
            fast_supervision(),
        )
        .expect("node 2");

        let mut publisher = TcpClient::connect(n0.addr(), ClientId(1)).expect("publisher");
        let mut subscriber = TcpClient::connect(n2.addr(), ClientId(2)).expect("subscriber");
        let adv = Advertisement::non_recursive(AdvPath::from_names(&["a", "b"]));
        publisher
            .send(&Message::advertise(AdvId(1), adv))
            .expect("advertise");
        subscriber
            .send(&Message::subscribe(SubId(1), "/a/*".parse().expect("xpe")))
            .expect("subscribe");
        assert!(
            n0.await_state(Duration::from_secs(5), |s| s.prt_size >= 1),
            "subscription did not propagate to n0"
        );
        publisher.send(&publication(&["a", "b"], 1)).expect("pub 1");
        assert!(
            matches!(
                subscriber.recv_timeout(Duration::from_secs(5)),
                Some(Message::Publish(_))
            ),
            "healthy delivery"
        );

        // The middle broker dies; the stream keeps going. The frames
        // stay unacked in n0's per-link retransmit buffer.
        n1.shutdown();
        for doc in 2..=4 {
            publisher
                .send(&publication(&["a", "b"], doc))
                .expect("publish into outage");
        }

        // Restart with the dialler roster declared, then stage the
        // reconnects worst-case-first: n0 replays before n2 even knows
        // the new address.
        let n1b = TcpNode::start_with(
            BrokerId(1),
            cfg,
            ephemeral(),
            &[],
            &[BrokerId(0), BrokerId(2)],
            fast_supervision(),
        )
        .expect("node 1 restarted");
        assert!(n0.redial(BrokerId(1), n1b.addr()));
        assert!(
            n1b.await_state(Duration::from_secs(10), |s| s.srt_size >= 1),
            "n0's snapshot must reach the restarted node"
        );
        // The replayed frames ride right behind n0's SyncState on the
        // same connection; give them time to arrive (and be deferred).
        std::thread::sleep(Duration::from_millis(300));
        assert!(n2.redial(BrokerId(1), n1b.addr()));

        let mut got = Vec::new();
        while let Some(msg) = subscriber.recv_timeout(Duration::from_secs(5)) {
            if let Message::Publish(p) = msg {
                got.push(p.doc_id.0);
                if got.len() >= 3 {
                    break;
                }
            }
        }
        got.sort_unstable();
        assert_eq!(
            got,
            vec![2, 3, 4],
            "outage publications must be replayed exactly once"
        );
        assert!(
            subscriber
                .recv_timeout(Duration::from_millis(500))
                .is_none(),
            "no duplicate deliveries after recovery"
        );
        n0.shutdown();
        n2.shutdown();
        n1b.shutdown();
    }

    #[test]
    fn give_up_after_retry_budget() {
        // Dial a port nothing listens on, with a one-attempt budget.
        let dead: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let n = TcpNode::start_with(
            BrokerId(0),
            RoutingConfig::WithAdvWithCov,
            ephemeral(),
            &[(BrokerId(1), dead)],
            &[],
            SupervisorConfig {
                backoff_base: Duration::from_millis(1),
                backoff_max: Duration::from_millis(2),
                retry_budget: 1,
                ..SupervisorConfig::default()
            },
        )
        .expect("node");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if n.link_stats(BrokerId(1)).expect("dialled").gave_up {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "supervisor never gave up"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        n.shutdown();
    }

    #[test]
    fn backoff_grows_and_stays_bounded() {
        let cfg = SupervisorConfig::default();
        let mut jitter = 0x1234_5678_9abc_def0u64;
        let mut last = Duration::ZERO;
        for attempt in 1..=20 {
            let d = backoff_delay(&cfg, attempt, &mut jitter);
            assert!(
                d >= cfg.backoff_base / 2,
                "attempt {attempt}: {d:?} too small"
            );
            assert!(
                d < cfg.backoff_max,
                "attempt {attempt}: {d:?} exceeds the cap"
            );
            if attempt <= 3 {
                assert!(
                    d > last / 4,
                    "attempt {attempt}: backoff should trend upward"
                );
            }
            last = d;
        }
    }

    #[test]
    fn silent_connection_stalls_neither_accepts_nor_shutdown() {
        let n =
            TcpNode::start(BrokerId(0), RoutingConfig::NoAdvNoCov, ephemeral(), &[]).expect("node");
        // Connects first and never sends its hello.
        let mut silent = TcpStream::connect(n.addr()).expect("silent connect");
        let mut subscriber = TcpClient::connect(n.addr(), ClientId(2)).expect("sub");
        subscriber
            .send(&Message::subscribe(SubId(1), "/a".parse().expect("xpe")))
            .expect("subscribe");
        assert!(
            n.await_state(Duration::from_secs(5), |s| {
                s.stats.received_of(MessageKind::Subscribe) >= 1
            }),
            "a silent connection must not stall later accepts"
        );
        // Shut down on another thread, so a hang fails the test instead
        // of blocking it; the silent socket is still open meanwhile.
        let (done_tx, done_rx) = sync_channel(1);
        std::thread::spawn(move || {
            n.shutdown();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "shutdown must not wait for a connection that never sent its hello"
        );
        // Shutdown severed it rather than leaving it to the hello timeout.
        silent
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        assert!(
            matches!(silent.read(&mut [0u8; 1]), Ok(0)),
            "shutdown must sever the silent connection"
        );
    }

    #[test]
    fn dropped_client_closes_its_connection() {
        let listener = TcpListener::bind(ephemeral()).expect("bind");
        let client =
            TcpClient::connect(listener.local_addr().expect("addr"), ClientId(3)).expect("connect");
        let (mut accepted, _) = listener.accept().expect("accept");
        let mut hello = [0u8; 9];
        accepted.read_exact(&mut hello).expect("hello");
        drop(client);
        accepted
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let read = accepted.read(&mut [0u8; 1]);
        assert!(
            matches!(read, Ok(0)),
            "the far end must see EOF once the client is dropped, got {read:?}"
        );
    }

    /// A raw client connection: the hello, then frames written by hand.
    fn raw_client(addr: SocketAddr, id: u64) -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut hello = [0u8; 9];
        hello[0] = HELLO_CLIENT;
        hello[1..9].copy_from_slice(&id.to_be_bytes());
        s.write_all(&hello).expect("hello");
        s
    }

    fn encoded(msgs: &[Message]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for m in msgs {
            wire::encode_into(m, &mut bytes);
        }
        bytes
    }

    #[test]
    fn packed_and_split_frames_are_each_handled_once_in_order() {
        let n =
            TcpNode::start(BrokerId(0), RoutingConfig::NoAdvNoCov, ephemeral(), &[]).expect("node");
        let mut subscriber = raw_client(n.addr(), 5);
        let mut publisher = raw_client(n.addr(), 6);
        // Several frames in one write. In this order the table ends
        // with subscriptions 2 and 3; had the unsubscribe overtaken
        // subscription 1, all three would remain.
        let packed = encoded(&[
            Message::subscribe(SubId(1), "/a".parse().expect("xpe")),
            Message::Unsubscribe { id: SubId(1) },
            Message::subscribe(SubId(2), "/b".parse().expect("xpe")),
            Message::subscribe(SubId(3), "/c".parse().expect("xpe")),
        ]);
        subscriber.write_all(&packed).expect("packed frames");
        let handled = |s: &NodeSnapshot| {
            (
                s.stats.received_of(MessageKind::Subscribe),
                s.stats.received_of(MessageKind::Unsubscribe),
                s.stats.received_of(MessageKind::Publish),
            )
        };
        assert!(
            n.await_state(Duration::from_secs(5), |s| handled(s) == (3, 1, 0)),
            "each packed frame handled once"
        );
        assert_eq!(n.snapshot().expect("snapshot").prt_size, 2, "in order");

        // One frame split across two writes, with a pause between.
        let frame = encoded(&[publication(&["b"], 1)]);
        let (head, rest) = frame.split_at(frame.len() / 2);
        publisher.write_all(head).expect("first half");
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(handled(&n.snapshot().expect("snapshot")), (3, 1, 0));
        publisher.write_all(rest).expect("second half");
        assert!(
            n.await_state(Duration::from_secs(5), |s| handled(s) == (3, 1, 1)),
            "the split frame handled once"
        );
        // Subscription 2 matches it: the node delivers it back.
        subscriber
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let got = read_message(&mut subscriber);
        assert!(
            matches!(&got, Some(Message::Publish(p)) if p.doc_id == DocId(1)),
            "{got:?}"
        );
        assert_eq!(handled(&n.snapshot().expect("snapshot")), (3, 1, 1));
        n.shutdown();
    }

    #[test]
    fn burst_crosses_a_chain_once_and_in_order() {
        const BURST: u64 = 600;
        // n0 — n1 — n2, each dialling the one before it.
        let cfg = RoutingConfig::WithAdvWithCov;
        let n0 = TcpNode::start(BrokerId(0), cfg, ephemeral(), &[]).expect("node 0");
        let n1 = TcpNode::start(BrokerId(1), cfg, ephemeral(), &[(BrokerId(0), n0.addr())])
            .expect("node 1");
        let n2 = TcpNode::start(BrokerId(2), cfg, ephemeral(), &[(BrokerId(1), n1.addr())])
            .expect("node 2");
        // Every link has exchanged its routing snapshot both ways, so
        // no later sync replays a frame.
        for (n, neighbours) in [(&n0, 1), (&n1, 2), (&n2, 1)] {
            assert!(n.await_state(Duration::from_secs(5), |s| {
                s.stats.received_of(MessageKind::SyncState) >= neighbours
            }));
        }
        let mut publisher = TcpClient::connect(n0.addr(), ClientId(1)).expect("publisher");
        let mut subscriber = TcpClient::connect(n2.addr(), ClientId(2)).expect("subscriber");
        let adv = Advertisement::non_recursive(AdvPath::from_names(&["a", "b"]));
        publisher
            .send(&Message::advertise(AdvId(1), adv))
            .expect("advertise");
        assert!(n2.await_state(Duration::from_secs(5), |s| s.srt_size >= 1));
        subscriber
            .send(&Message::subscribe(SubId(1), "/a/b".parse().expect("xpe")))
            .expect("subscribe");
        assert!(n0.await_state(Duration::from_secs(5), |s| s.prt_size >= 1));

        // The whole burst in one write, back to back.
        let mut burst = Vec::new();
        for doc in 1..=BURST {
            wire::encode_into(&publication(&["a", "b"], doc), &mut burst);
        }
        publisher.writer.write_all(&burst).expect("burst");
        let mut got = Vec::new();
        while let Some(msg) = subscriber.recv_timeout(Duration::from_secs(5)) {
            if let Message::Publish(p) = msg {
                got.push(p.doc_id.0);
                if got.len() as u64 == BURST {
                    break;
                }
            }
        }
        assert_eq!(got, (1..=BURST).collect::<Vec<_>>(), "once each, in order");
        assert!(
            subscriber
                .recv_timeout(Duration::from_millis(200))
                .is_none(),
            "no duplicate deliveries"
        );
        for n in [&n0, &n1, &n2] {
            let s = n.snapshot().expect("snapshot");
            assert_eq!((s.stats.dup_frames, s.stats.retransmits), (0, 0));
        }
        drop((publisher, subscriber));
        for n in [n2, n1, n0] {
            n.shutdown();
        }
    }

    #[test]
    fn oversized_frames_cut_the_connection() {
        let n =
            TcpNode::start(BrokerId(0), RoutingConfig::NoAdvNoCov, ephemeral(), &[]).expect("node");
        // Handshake as a client, then claim a 1 GiB frame.
        let mut s = raw_client(n.addr(), 7);
        s.write_all(&(1u32 << 30).to_be_bytes()).expect("length");
        // The node must drop the connection rather than allocate.
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut buf = [0u8; 1];
        let eof = matches!(s.read(&mut buf), Ok(0));
        assert!(eof, "expected the node to close the oversized connection");
        n.shutdown();
    }
}
