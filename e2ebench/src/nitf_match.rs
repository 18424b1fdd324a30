//! `nitf-match`: read-heavy publication matching over a 5-broker chain.
//!
//! Set-up: a chain running `no-Adv-with-Cov`, 2,000 NITF Set A XPEs on
//! five subscriber clients at the tail broker, each subscribed closed
//! loop (sent, then drained to quiescence). Load: a publisher at `b0`
//! publishes a fixed pool of NITF documents in seeded passes, one
//! document at a time, each drained to quiescence before the next.
//! Everything is timed on the drive thread's CPU clock ([`crate::cpu`]),
//! in blocks of one pass or one set-up ([`crate::stats`]).

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
use std::collections::HashSet;
use std::time::Instant;
use xdn_broker::{ClientId, Message, RoutingConfig};
use xdn_core::rtable::SubId;
use xdn_workloads::{docs, nitf_dtd, sets};
use xdn_xpath::Xpe;

/// The routing strategy, by its paper name.
pub const STRATEGY: &str = "no-Adv-with-Cov";

const PUBLISHER: ClientId = ClientId(1000);

fn subscriber(broker: usize) -> ClientId {
    ClientId(100 + broker as u64)
}

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Brokers in the chain.
    pub brokers: usize,
    /// XPEs on each broker's subscriber.
    pub subs_per_broker: usize,
    /// Distinct documents, published in seeded passes (see [`Order`]).
    pub pool_docs: usize,
    /// Passes over the pool between two set-ups. An untraced run sets
    /// the chain up again after every that many passes, to time the
    /// set-up all through the run; `setup_s` is the set-ups' median.
    pub setup_every: usize,
    /// Documents the measured phase publishes at least.
    pub min_docs: usize,
    /// Leading documents the traffic counts are taken over: whole
    /// passes over the pool, so they repeat exactly for every seed.
    pub count_docs: usize,
}

impl Size {
    /// The benchmark's dimensions.
    pub fn full() -> Size {
        Size {
            brokers: 5,
            subs_per_broker: 400,
            pool_docs: 100,
            setup_every: 3,
            min_docs: 4800,
            count_docs: 1000,
        }
    }

    /// Dimensions for the benchmark's own tests.
    pub fn tiny() -> Size {
        Size {
            brokers: 5,
            subs_per_broker: 30,
            pool_docs: 60,
            setup_every: 2,
            min_docs: 480,
            count_docs: 120,
        }
    }
}

struct Setup {
    chain: Chain,
    seconds: f64,
    /// Of those, the seconds the subscriptions took.
    ops_seconds: f64,
    sub_frames: u64,
    mismatches: u64,
}

fn setup(
    config: RoutingConfig,
    size: &Size,
    script: &[(usize, u64, Xpe)],
    tracer: Tracer,
    ops: &mut Samples,
) -> Setup {
    let t0 = crate::cpu::thread();
    let mut chain = Chain::new(size.brokers, config, tracer);
    let mut mismatches = 0;
    let mut ops_seconds = 0.0;
    let tail = size.brokers - 1;
    for (c, id, xpe) in script {
        let msg = Message::Subscribe {
            id: SubId(*id),
            xpe: xpe.clone(),
        };
        let op = sub_op(&mut chain, *id, subscriber(*c), tail, msg);
        ops.push_us(0, op.took);
        ops_seconds += op.took.as_secs_f64();
        mismatches += op.stray;
    }
    Setup {
        seconds: (crate::cpu::thread() - t0).as_secs_f64(),
        ops_seconds,
        sub_frames: chain.counts().broker_sub_frames,
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
    let xpes = sets::set_a(&dtd, size.brokers * size.subs_per_broker, POPULATION_SEED);
    let pool = pool(docs::documents(&dtd, size.pool_docs, POOL_SEED));
    let mut order = Order::new(run.seed, pool.len());
    // Subscriber `i % brokers` holds XPE `i`; every subscriber sits at
    // the tail, so each publication crosses the whole chain.
    let script: Vec<(usize, u64, Xpe)> = xpes
        .into_iter()
        .enumerate()
        .map(|(i, x)| (i % size.brokers, i as u64 + 1, x))
        .collect();
    let mut oracle = Oracle::new();
    for (c, id, x) in &script {
        oracle.subscribe(*id, subscriber(*c).0, x.clone());
    }
    // The subscriptions never change once set up, so every document's
    // expected deliveries are known before anything is timed.
    let owed: Vec<HashSet<(u64, u32)>> = pool.iter().map(|d| expected(&mut oracle, d)).collect();

    // The reference is timed in every pass and around every set-up.
    let mut reference = Reference::new();
    let mut pass_refs = Samples::new();
    let mut setups = SetupTimes::default();
    let mut ops = Samples::new();
    let n_ops = script.len() as u64;
    setups.before(&mut reference);
    let first = setup(config, size, &script, run.tracer(), &mut ops);
    setups.after(&mut reference, first.seconds, n_ops, first.ops_seconds);
    out.set("rss_after_setup_mb", rss_mb(), "MB");
    let mut chain = first.chain;
    out.mismatches += first.mismatches;

    let mark = ChainMark::take(&chain);
    let counts0 = chain.counts();
    let mut counted: Option<Counts> = None;
    let (mut deliver, mut cycles) = (Samples::new(), Samples::new());
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut published, mut traced, mut failed) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let mut k = 0usize;
    let rotation = crate::cpu::Rotation::new();
    while !run.done(started, published as usize >= size.min_docs) {
        // Documents are timed in blocks of one pass over the pool.
        let pass = (k / pool.len()) as u32;
        if k.is_multiple_of(pool.len()) {
            rotation.block(pass);
        }
        if k.is_multiple_of(pool.len() / UNITS_PER_BLOCK) {
            reference.time(1, pass, &mut pass_refs);
        }
        let next = order.next_index();
        let (doc, owed) = (&pool[next], &owed[next]);
        // A traced run publishes each document twice, traced and not,
        // alternating which goes first, to measure what tracing costs.
        let passes: &[bool] = match (run.trace, k.is_multiple_of(2)) {
            (false, _) => &[false],
            (true, true) => &[true, false],
            (true, false) => &[false, true],
        };
        for &trace_this in passes {
            chain.tracer.set_recording(trace_this);
            published += 1;
            let r = publish_doc(&mut chain, owed, doc, published, PUBLISHER, 0);
            out.mismatches += r.mismatches;
            failed += u64::from(!r.complete);
            if trace_this {
                traced += 1;
                traced_s += r.cycle.as_secs_f64();
            } else {
                deliver.push_us(pass, r.latency);
                cycles.push_us(pass, r.cycle);
                untraced_s += r.cycle.as_secs_f64();
            }
            if published as usize == size.count_docs {
                counted = Some(chain.counts().since(&counts0));
            }
        }
        k += 1;
        if !run.trace && k.is_multiple_of(pool.len() * size.setup_every) {
            setups.before(&mut reference);
            let again = setup(config, size, &script, Tracer::off(), &mut ops);
            setups.after(&mut reference, again.seconds, n_ops, again.ops_seconds);
        }
    }
    drop(rotation);
    let passes = (k / pool.len()) as u32;
    let wall_s = started.elapsed().as_secs_f64();
    chain.tracer.set_recording(true);

    let counted = counted.unwrap_or_else(|| chain.counts().since(&counts0));
    let counted_docs = size.count_docs.min(published as usize) as f64;
    out.set(
        "broker_msgs_per_doc",
        ratio(counted.broker_pub_frames as f64, counted_docs),
        "count",
    );
    out.set(
        "wire_bytes_per_doc",
        ratio(counted.bytes as f64, counted_docs),
        "bytes",
    );
    out.set(
        "broker_msgs_per_sub_op",
        ratio(first.sub_frames as f64, script.len() as f64),
        "count",
    );
    chain_layers(&mut out, &chain, &mark, published, traced);
    let route = out.get("path.route_us_per_doc").unwrap_or(0.0);
    out.set("path.nonroute_us_per_doc", deliver.mean() - route, "us");
    out.set(
        "gen.offered_docs_per_s",
        ratio(published as f64, wall_s),
        "1/s",
    );
    let overhead = if run.trace {
        ratio(
            traced_s / traced as f64,
            untraced_s / (published - traced) as f64,
        ) - 1.0
    } else {
        0.0
    };
    out.set("drive.trace_overhead_share", overhead, "ratio");
    if run.trace {
        let unattributed = out.get("drive.unattributed_share").unwrap_or(1.0);
        if unattributed > 0.10 {
            out.check_failures.push(format!(
                "stage sum: {:.1}% of the middle broker's hop time is unattributed (limit 10%)",
                unattributed * 100.0
            ));
        }
        out.trace = Some(std::mem::replace(&mut chain.tracer, Tracer::off()));
    }
    drop(chain);

    setups.report(&mut out);
    let quiet_passes = quiet(&cycles.block_sums(passes));
    out.set("quiet_blocks", quiet_passes.len() as f64, "count");
    let host = slowdown(&pass_refs, &quiet_passes);
    doc_metrics(&mut out, &quiet_passes, host, &cycles, &deliver);
    // `sub_ops_per_cpu_s` is the set-ups' subscriptions (above).
    op_latency(&mut out, &ops);

    out.attempted = published + script.len() as u64;
    out.failed = failed;
    out.set("delivery_mismatches", out.mismatches as f64, "count");
    out.set(
        "failed_ratio",
        ratio(failed as f64, published as f64),
        "ratio",
    );
    out
}
