//! `nitf-churn`: write-heavy subscription churn with reads beside it.
//!
//! Set-up: a 5-broker chain running `no-Adv-with-Cov`, 500 standing
//! NITF Set B XPEs (about 50% covering) plus a window of 50 transient
//! ones, subscribed closed loop by five subscriber clients at the tail
//! broker. Load: a closed-loop script alternating a subscribe of a
//! reserve XPE (250 of them, each with its own subscriber, taken in
//! seeded passes over the reserve) with the unsubscribe of the oldest
//! transient XPE, each operation drained to quiescence, with one NITF
//! document published from `b0` after every second operation so reads
//! run beside the writes. The table keeps its size, so the figures do
//! not drift with the run length. Covering is on, so every operation
//! runs the covering insert or remove, and unsubscribing a covering XPE
//! promotes and forwards the XPEs it covered. Everything is timed on
//! the drive thread's CPU clock ([`crate::cpu`]), in blocks of one pass
//! over the reserve ([`crate::stats`]).

use crate::chain::{Chain, Counts};
use crate::common::{
    chain_layers, doc_metrics, expected, op_latency, pool, publish_doc, rss_mb, sub_op, ChainMark,
    Order, Run, SetupTimes, POOL_SEED, POPULATION_SEED,
};
use crate::oracle::Oracle;
use crate::reference::{slowdown, Reference, UNITS_PER_BLOCK};
use crate::report::{ratio, Outcome};
use crate::stats::{quiet, Samples};
use crate::trace::Tracer;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::time::Instant;
use xdn_broker::{ClientId, Message, RoutingConfig};
use xdn_core::rtable::SubId;
use xdn_workloads::{docs, nitf_dtd, sets};
use xdn_xpath::Xpe;

/// The routing strategy, by its paper name.
pub const STRATEGY: &str = "no-Adv-with-Cov";

const PUBLISHER: ClientId = ClientId(1000);

/// Subscriber clients, all attached to the tail broker.
const SUBSCRIBERS: u64 = 5;

fn subscriber(i: u64) -> ClientId {
    ClientId(100 + i)
}

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Brokers in the chain.
    pub brokers: usize,
    /// XPEs subscribed during set-up that the script never touches.
    pub standing: usize,
    /// Transient XPEs active at any time; the script unsubscribes the
    /// oldest one after each subscribe.
    pub window: usize,
    /// XPEs the script subscribes, in seeded passes (see [`Order`]).
    pub reserve: usize,
    /// Distinct documents, published in seeded passes (see [`Order`]).
    pub pool_docs: usize,
    /// Operations between two published documents.
    pub ops_per_doc: u64,
    /// Passes over the reserve between two set-ups. An untraced run
    /// sets a chain up again after every that many passes, to time the
    /// set-up all through the run; `setup_s` is the set-ups' median.
    pub setup_every: usize,
    /// Operations the measured phase runs at least.
    pub min_ops: usize,
    /// Leading operations (and their documents) the traffic counts are
    /// taken over: whole passes over the reserve, so they repeat exactly
    /// for one seed and barely move between seeds.
    pub count_ops: usize,
}

impl Size {
    /// The benchmark's dimensions.
    pub fn full() -> Size {
        Size {
            brokers: 5,
            standing: 500,
            window: 50,
            reserve: 250,
            pool_docs: 100,
            ops_per_doc: 2,
            setup_every: 1,
            min_ops: 2200,
            count_ops: 2000,
        }
    }

    /// Dimensions for the benchmark's own tests.
    pub fn tiny() -> Size {
        Size {
            brokers: 5,
            standing: 30,
            window: 10,
            reserve: 40,
            pool_docs: 6,
            ops_per_doc: 2,
            setup_every: 4,
            min_ops: 2200,
            count_ops: 160,
        }
    }
}

/// A subscription and the client holding it.
struct Held {
    id: u64,
    client: u64,
}

struct Setup {
    chain: Chain,
    seconds: f64,
    mismatches: u64,
}

fn setup(config: RoutingConfig, size: &Size, population: &[(u64, Xpe)], tracer: Tracer) -> Setup {
    let t0 = crate::cpu::thread();
    let mut chain = Chain::new(size.brokers, config, tracer);
    let tail = size.brokers - 1;
    let mut mismatches = 0;
    for (i, (c, xpe)) in population.iter().enumerate() {
        let id = i as u64 + 1;
        let msg = Message::Subscribe {
            id: SubId(id),
            xpe: xpe.clone(),
        };
        mismatches += sub_op(&mut chain, id, subscriber(*c), tail, msg).stray;
    }
    Setup {
        seconds: (crate::cpu::thread() - t0).as_secs_f64(),
        chain,
        mismatches,
    }
}

/// Runs the workload.
pub fn run(run: &Run, size: &Size) -> Outcome {
    let mut out = Outcome::default();
    out.meta("strategy", STRATEGY);
    let config = RoutingConfig::by_name(STRATEGY).expect("a paper strategy name");
    let dtd = nitf_dtd();
    // The population (standing XPEs, the first window, the reserve,
    // and each one's subscriber) is fixed; the seed draws the order of
    // the script and of the documents.
    let mut placing = ChaCha8Rng::seed_from_u64(POPULATION_SEED);
    let mut xpes: Vec<(u64, Xpe)> =
        sets::set_b(&dtd, size.standing + size.reserve, POPULATION_SEED)
            .into_iter()
            .map(|x| (placing.gen_range(0..SUBSCRIBERS), x))
            .collect();
    let reserve = xpes.split_off(size.standing.min(xpes.len()));
    let population: Vec<(u64, Xpe)> = xpes
        .into_iter()
        .chain(reserve.iter().take(size.window).cloned())
        .collect();
    let pool = pool(docs::documents(&dtd, size.pool_docs, POOL_SEED));
    let mut order = Order::new(run.seed, pool.len());
    let mut oracle = Oracle::new();
    let mut window = VecDeque::new();
    for (i, (c, x)) in population.iter().enumerate() {
        let id = i as u64 + 1;
        oracle.subscribe(id, subscriber(*c).0, x.clone());
        if i >= size.standing {
            window.push_back(Held { id, client: *c });
        }
    }

    // The reference is timed in every pass and around every set-up.
    let mut reference = Reference::new();
    let mut pass_refs = Samples::new();
    let mut setups = SetupTimes::default();
    setups.before(&mut reference);
    let first = setup(config, size, &population, run.tracer());
    setups.after(&mut reference, first.seconds, 0, 0.0);
    out.set("rss_after_setup_mb", rss_mb(), "MB");
    out.mismatches += first.mismatches;
    let mut chain = first.chain;
    let tail = size.brokers - 1;

    let mark = ChainMark::take(&chain);
    let mut ops = Samples::new();
    let (mut deliver, mut cycles) = (Samples::new(), Samples::new());
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut op_count, mut published, mut traced_docs, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let (mut traced_cycles, mut untraced_cycles) = (0u64, 0u64);
    let (mut op_counts, mut doc_counts) = (Counts::default(), Counts::default());
    let mut next_id = population.len() as u64;
    let mut script = Order::new(run.seed.rotate_left(17), reserve.len());
    let started = Instant::now();
    let mut cycles_done = 0usize;
    let rotation = crate::cpu::Rotation::new();
    while !run.done(started, op_count as usize >= size.min_ops) {
        // Operations and documents are timed in blocks of one pass over
        // the reserve.
        let pass = (cycles_done / reserve.len()) as u32;
        if cycles_done.is_multiple_of(reserve.len()) {
            rotation.block(pass);
        }
        if cycles_done.is_multiple_of(reserve.len() / UNITS_PER_BLOCK) {
            reference.time(1, pass, &mut pass_refs);
        }
        cycles_done += 1;
        // A traced run traces every other cycle (one document and the
        // operations before it), to measure what tracing costs.
        let trace_this = run.trace && (op_count / size.ops_per_doc).is_multiple_of(2);
        chain.tracer.set_recording(trace_this);
        let cycle = crate::cpu::thread();
        let counting = (op_count as usize) < size.count_ops;
        for _ in 0..size.ops_per_doc {
            op_count += 1;
            let oldest = (op_count % 2 == 0).then(|| window.pop_front()).flatten();
            let (client, msg) = match oldest {
                Some(gone) => {
                    oracle.unsubscribe(gone.id);
                    let msg = Message::Unsubscribe { id: SubId(gone.id) };
                    (subscriber(gone.client), msg)
                }
                None => {
                    let (c, xpe) = reserve[script.next_index()].clone();
                    next_id += 1;
                    oracle.subscribe(next_id, subscriber(c).0, xpe.clone());
                    window.push_back(Held {
                        id: next_id,
                        client: c,
                    });
                    let msg = Message::Subscribe {
                        id: SubId(next_id),
                        xpe,
                    };
                    (subscriber(c), msg)
                }
            };
            let before = chain.counts();
            let op = sub_op(&mut chain, op_count, client, tail, msg);
            out.mismatches += op.stray;
            if counting {
                op_counts = op_counts.plus(&chain.counts().since(&before));
            }
            if !trace_this {
                ops.push_us(pass, op.took);
            }
        }

        let doc = &pool[order.next_index()];
        published += 1;
        let owed = expected(&mut oracle, doc);
        let before = chain.counts();
        let r = publish_doc(&mut chain, &owed, doc, published, PUBLISHER, 0);
        if counting {
            doc_counts = doc_counts.plus(&chain.counts().since(&before));
        }
        out.mismatches += r.mismatches;
        failed += u64::from(!r.complete);
        if trace_this {
            traced_docs += 1;
            traced_cycles += 1;
            traced_s += (crate::cpu::thread() - cycle).as_secs_f64();
        } else {
            deliver.push_us(pass, r.latency);
            cycles.push_us(pass, r.cycle);
            untraced_cycles += 1;
            untraced_s += (crate::cpu::thread() - cycle).as_secs_f64();
        }
        if !run.trace && cycles_done.is_multiple_of(reserve.len() * size.setup_every) {
            setups.before(&mut reference);
            let again = setup(config, size, &population, Tracer::off()).seconds;
            setups.after(&mut reference, again, 0, 0.0);
        }
    }
    drop(rotation);
    let wall_s = started.elapsed().as_secs_f64();
    chain.tracer.set_recording(true);

    let counted_ops = size.count_ops.min(op_count as usize) as f64;
    let counted_docs = (counted_ops / size.ops_per_doc as f64).ceil();
    out.set(
        "broker_msgs_per_sub_op",
        ratio(op_counts.broker_sub_frames as f64, counted_ops),
        "count",
    );
    out.set(
        "broker_msgs_per_doc",
        ratio(doc_counts.broker_pub_frames as f64, counted_docs),
        "count",
    );
    out.set(
        "wire_bytes_per_doc",
        ratio(doc_counts.bytes as f64, counted_docs),
        "bytes",
    );
    chain_layers(&mut out, &chain, &mark, published, traced_docs);
    let route = out.get("path.route_us_per_doc").unwrap_or(0.0);
    out.set("path.nonroute_us_per_doc", deliver.mean() - route, "us");
    out.set(
        "gen.offered_docs_per_s",
        ratio(published as f64, wall_s),
        "1/s",
    );
    let overhead = if run.trace {
        ratio(
            traced_s / traced_cycles as f64,
            untraced_s / untraced_cycles as f64,
        ) - 1.0
    } else {
        0.0
    };
    out.set("drive.trace_overhead_share", overhead, "ratio");
    if run.trace {
        out.trace = Some(std::mem::replace(&mut chain.tracer, Tracer::off()));
    }
    drop(chain);

    setups.report(&mut out);
    // A block's cost is its operations and its documents together.
    let passes = (cycles_done / reserve.len()) as u32;
    let mut costs = ops.block_sums(passes);
    for (b, c) in cycles.block_sums(passes) {
        *costs.entry(b).or_default() += c;
    }
    let quiet_passes = quiet(&costs);
    out.set("quiet_blocks", quiet_passes.len() as f64, "count");
    let host = slowdown(&pass_refs, &quiet_passes);
    doc_metrics(&mut out, &quiet_passes, host, &cycles, &deliver);
    let o = ops.only(&quiet_passes);
    out.set(
        "sub_ops_per_cpu_s",
        ratio(o.len() as f64, o.sum() / 1e6) * host,
        "1/s",
    );
    op_latency(&mut out, &ops);

    out.attempted = published + op_count;
    out.failed = failed;
    out.set("delivery_mismatches", out.mismatches as f64, "count");
    out.set(
        "failed_ratio",
        ratio(failed as f64, published as f64),
        "ratio",
    );
    out
}
