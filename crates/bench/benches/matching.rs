//! Two self-timed comparisons and one covering-table timing, written
//! to `BENCH_matching.json` at the workspace root:
//!
//! * **publications**: flat linear scan vs the shared-NFA
//!   `AutomatonPrt`, at growing subscription counts, over the NITF
//!   `set_a` workload (Table 1's setting);
//! * **advertisements**: choosing where a subscription goes, as a scan
//!   of `PreparedAdv`s (each advertisement's repetitions pre-expanded
//!   for subscriptions of up to 16 steps) vs `Srt::match_sub` (one
//!   automaton search per last hop), over the NITF and PSD
//!   advertisement sets on one and three hops, with Set A and Set B
//!   subscriptions;
//! * **covering**: covering `Prt` inserts and removes in ns per call,
//!   for NITF Set B at the `nitf-churn` benchmark's sizes (500 standing
//!   expressions and a 250-expression reserve churned through a
//!   50-wide window) and for 2,000 NITF Set A inserts, then as many
//!   removes.
//!
//! Publication paths are visited twice: in document order, where the
//! automaton resumes each path at the prefix it shares with the one
//! before (3.1 of 4.8 steps on average), and in a seeded shuffle, where
//! consecutive paths share 1.7 leading steps on average. Before
//! timing, every level asserts the two routers report bit-identical
//! match sets per publication path in both orders (the automaton's
//! equivalence is additionally property-tested in
//! `crates/core/tests/automaton_props.rs` and
//! `crates/xpath/tests/run_stack_props.rs`).
//!
//! Before timing, the advertisement section asserts that the scan and
//! `Srt::match_sub` pick the same hops for every subscription (the
//! table's exactness is additionally tested against
//! `adv_overlaps_sub` in `crates/core/tests/srt_match.rs`).
//!
//! The covering section checks the tree's invariants after every run
//! and asserts its effective sizes (top-level expressions) against
//! pinned ones: after set-up, summed over every operation, and at the
//! end. A change to the covering scans must leave them as they are.
//!
//! Environment knobs (for CI smoke runs):
//! * `XDN_BENCH_SUBS` — comma-separated subscription counts
//!   (default `1000,10000,50000`);
//! * `XDN_BENCH_ITERS` — timed passes over the publication set and the
//!   subscriptions (default `3`).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};
use xdn_bench::SEED;
use xdn_core::adv::{derive_advertisements, DeriveOptions};
use xdn_core::advmatch::PreparedAdv;
use xdn_core::automaton::AutomatonPrt;
use xdn_core::rtable::{AdvId, FlatPrt, Prt, PublicationRouter, Srt, SubId};
use xdn_workloads::{docs, nitf_dtd, psd_dtd, sets};
use xdn_xpath::Xpe;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matching.json");

struct Level {
    subscriptions: usize,
    flat_ns_per_pub: f64,
    automaton_ns_per_pub: f64,
    automaton_shuffled_ns_per_pub: f64,
    speedup: f64,
    matches: u64,
}

fn env_usize_list(key: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(key) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// One advertisement-section row: a DTD's advertisements spread over
/// `hops` last hops, one subscription set.
struct AdvRow {
    dtd: &'static str,
    hops: usize,
    advertisements: usize,
    states: usize,
    set: &'static str,
    xpes: usize,
    scan_us_per_xpe: f64,
    automaton_us_per_xpe: f64,
    forwarded_hops: usize,
}

fn main() {
    let iters = env_usize("XDN_BENCH_ITERS", 3).max(1);
    let levels = publication_levels(iters);
    let adv_rows = advertisement_rows(iters);
    let cover_rows = covering_rows(iters);
    let json = render_json(&levels, &adv_rows, &cover_rows, iters);
    match std::fs::write(OUT_PATH, &json) {
        Ok(()) => println!("wrote {OUT_PATH}"),
        Err(e) => eprintln!("failed to write {OUT_PATH}: {e}"),
    }
}

/// The publication section: flat scan vs automaton per level.
fn publication_levels(iters: usize) -> (Vec<Level>, usize) {
    let levels = env_usize_list("XDN_BENCH_SUBS", &[1_000, 10_000, 50_000]);
    let max_subs = levels.iter().copied().max().unwrap_or(0);
    if max_subs == 0 {
        eprintln!("XDN_BENCH_SUBS is empty; no publication levels measured");
        return (Vec::new(), 0);
    }

    let dtd = nitf_dtd();
    let queries = sets::set_a(&dtd, max_subs, SEED + 30);
    let documents = docs::documents(&dtd, 40, SEED + 31);
    let paths: Vec<Vec<String>> = docs::publication_paths(&documents)
        .into_iter()
        .map(|p| p.elements)
        .collect();
    let mut shuffled = paths.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED + 32);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    let routed = (iters * paths.len()) as u64;

    let mut results = Vec::new();
    for &n in &levels {
        let subs = &queries[..n.min(queries.len())];
        let mut flat: FlatPrt<u32> = FlatPrt::new();
        let mut automaton: AutomatonPrt<u32> = AutomatonPrt::new();
        for (i, q) in subs.iter().enumerate() {
            flat.insert(SubId(i as u64), q.clone(), i as u32);
            automaton.insert(SubId(i as u64), q.clone(), i as u32);
        }

        // Untimed equivalence gate: the two routers must agree on
        // the exact match set of every publication path.
        fn match_set(r: &dyn PublicationRouter<u32>, p: &[String]) -> Vec<(SubId, u32)> {
            let mut out = Vec::new();
            r.for_each_matching_with_attrs(p, &[], &mut |id, h| out.push((id, *h)));
            out.sort_unstable();
            out
        }
        for p in paths.iter().chain(&shuffled) {
            assert_eq!(
                match_set(&automaton, p),
                match_set(&flat, p),
                "automaton diverges from flat at n={n} on {p:?}"
            );
        }

        let mut flat_matches = 0u64;
        let started = Instant::now();
        for _ in 0..iters {
            for p in &paths {
                flat_matches += flat.matching_hops(std::hint::black_box(p), &[]).len() as u64;
            }
        }
        let flat_ns = started.elapsed().as_nanos() as f64 / routed as f64;

        let time_automaton = |order: &[Vec<String>]| {
            let mut matches = 0u64;
            let started = Instant::now();
            for _ in 0..iters {
                for p in order {
                    matches += automaton.matching_hops(std::hint::black_box(p), &[]).len() as u64;
                }
            }
            let ns = started.elapsed().as_nanos() as f64 / routed as f64;
            assert_eq!(
                flat_matches, matches,
                "automaton must select exactly the scan's matches at n={n}"
            );
            ns
        };
        let automaton_ns = time_automaton(&paths);
        let shuffled_ns = time_automaton(&shuffled);

        let speedup = flat_ns / automaton_ns.max(f64::EPSILON);
        println!(
            "bench matching/scaling subs={n}: flat {flat_ns:.0} ns/pub, \
             automaton {automaton_ns:.0} ns/pub (shuffled {shuffled_ns:.0}), \
             speedup {speedup:.1}x"
        );
        results.push(Level {
            subscriptions: n,
            flat_ns_per_pub: flat_ns,
            automaton_ns_per_pub: automaton_ns,
            automaton_shuffled_ns_per_pub: shuffled_ns,
            speedup,
            matches: flat_matches / iters as u64,
        });
    }
    (results, paths.len())
}

/// Subscriptions per set in the advertisement section.
const ADV_XPES_PER_SET: usize = 150;

/// The advertisement section: for NITF and PSD, on one and three hops
/// (advertisements dealt round-robin), gates and times the
/// `PreparedAdv` scan against `Srt::match_sub`.
fn advertisement_rows(iters: usize) -> Vec<AdvRow> {
    let mut rows = Vec::new();
    for (name, dtd) in [("nitf", nitf_dtd()), ("psd", psd_dtd())] {
        let advs = derive_advertisements(&dtd, &DeriveOptions::default());
        let sets = [
            ("A", sets::set_a(&dtd, ADV_XPES_PER_SET, SEED + 40)),
            ("B", sets::set_b(&dtd, ADV_XPES_PER_SET, SEED + 41)),
        ];
        for hops in [1usize, 3] {
            let mut srt: Srt<usize> = Srt::new();
            let mut scan: Vec<(PreparedAdv, usize)> = Vec::new();
            for (i, adv) in advs.iter().enumerate() {
                srt.insert(AdvId(i as u64), adv.clone(), i % hops);
                scan.push((PreparedAdv::new(adv.clone(), 16), i % hops));
            }
            let scan_hops = |xpe: &Xpe| -> BTreeSet<usize> {
                scan.iter()
                    .filter(|(adv, _)| adv.overlaps(xpe))
                    .map(|&(_, hop)| hop)
                    .collect()
            };
            for (set, xpes) in &sets {
                // Untimed gate: both must pick the same hops.
                let mut forwarded_hops = 0;
                for xpe in xpes {
                    let want = scan_hops(xpe);
                    assert_eq!(
                        srt.match_sub(xpe),
                        want,
                        "Srt::match_sub diverges from the PreparedAdv scan on {name} \
                         ({hops} hops) for {xpe}"
                    );
                    forwarded_hops += want.len();
                }
                let time = |f: &dyn Fn(&Xpe) -> usize| {
                    let started = Instant::now();
                    let mut picked = 0;
                    for _ in 0..iters {
                        for xpe in xpes {
                            picked += f(std::hint::black_box(xpe));
                        }
                    }
                    assert_eq!(picked, forwarded_hops * iters);
                    started.elapsed().as_secs_f64() * 1e6 / (iters * xpes.len()) as f64
                };
                let scan_us = time(&|x| scan_hops(x).len());
                let automaton_us = time(&|x| srt.match_sub(x).len());
                println!(
                    "bench matching/advertisements {name} hops={hops} set={set}: \
                     scan {scan_us:.2} us/xpe, automaton {automaton_us:.3} us/xpe, \
                     speedup {:.0}x",
                    scan_us / automaton_us.max(f64::EPSILON)
                );
                rows.push(AdvRow {
                    dtd: name,
                    hops,
                    advertisements: advs.len(),
                    states: srt.automaton_states(),
                    set,
                    xpes: xpes.len(),
                    scan_us_per_xpe: scan_us,
                    automaton_us_per_xpe: automaton_us,
                    forwarded_hops,
                });
            }
        }
    }
    for name in ["nitf", "psd"] {
        let of = |f: fn(&AdvRow) -> f64| -> f64 {
            let picked: Vec<f64> = rows.iter().filter(|r| r.dtd == name).map(f).collect();
            picked.iter().sum::<f64>() / picked.len().max(1) as f64
        };
        let scan = of(|r| r.scan_us_per_xpe);
        let automaton = of(|r| r.automaton_us_per_xpe);
        println!(
            "bench matching/advertisements {name} mean over sets and hops: \
             scan {scan:.2} us/xpe, automaton {automaton:.3} us/xpe, speedup {:.0}x",
            scan / automaton.max(f64::EPSILON)
        );
    }
    rows
}

/// One covering-section row: covering `Prt` inserts and removes over
/// one NITF workload.
struct CoverRow {
    workload: &'static str,
    inserts: usize,
    removes: usize,
    insert_ns: f64,
    remove_ns: f64,
    effective: EffectiveSizes,
}

/// A run's effective sizes: after set-up, summed over every timed
/// operation, and at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EffectiveSizes {
    setup: usize,
    summed: usize,
    end: usize,
}

/// `nitf-churn`'s dimensions: standing Set B expressions, the reserve
/// the churn subscribes from, and the window of transient ones.
const CHURN_STANDING: usize = 500;
const CHURN_RESERVE: usize = 250;
const CHURN_WINDOW: usize = 50;
/// Seeded passes the churn makes over the reserve.
const CHURN_PASSES: usize = 2;
/// Set A expressions inserted (`nitf-match`'s set-up size).
const SET_A_INSERTS: usize = 2_000;

/// The effective sizes every run must reproduce, per workload.
const PINNED_CHURN: EffectiveSizes = EffectiveSizes {
    setup: 391,
    summed: 381_891,
    end: 380,
};
const PINNED_SET_A: EffectiveSizes = EffectiveSizes {
    setup: 463,
    summed: 979_392,
    end: 0,
};

/// The covering section: times covering `Prt` inserts and removes on a
/// fresh table per pass, gating each pass on the tree's invariants and
/// its pinned effective sizes.
fn covering_rows(iters: usize) -> Vec<CoverRow> {
    let dtd = nitf_dtd();
    let mut population = sets::set_b(&dtd, CHURN_STANDING + CHURN_RESERVE, SEED + 50);
    let reserve = population.split_off(CHURN_STANDING.min(population.len()));
    let set_a = sets::set_a(&dtd, SET_A_INSERTS, SEED + 51);
    let rows = vec![
        cover_row("nitf set_b churn", iters, PINNED_CHURN, || {
            churn_pass(&population, &reserve)
        }),
        cover_row("nitf set_a", iters, PINNED_SET_A, || set_a_pass(&set_a)),
    ];
    for r in &rows {
        println!(
            "bench matching/covering {}: insert {:.0} ns/call ({} calls), \
             remove {:.0} ns/call ({} calls), effective sizes {:?}",
            r.workload, r.insert_ns, r.inserts, r.remove_ns, r.removes, r.effective
        );
    }
    rows
}

/// What one timed pass over a covering table produced.
struct CoverPass {
    insert: Duration,
    inserts: usize,
    remove: Duration,
    removes: usize,
    effective: EffectiveSizes,
}

fn cover_row(
    workload: &'static str,
    iters: usize,
    pinned: EffectiveSizes,
    pass: impl Fn() -> CoverPass,
) -> CoverRow {
    let (mut insert, mut remove) = (Duration::ZERO, Duration::ZERO);
    let (mut inserts, mut removes) = (0, 0);
    for _ in 0..iters {
        let run = pass();
        // Untimed gate: shaped as before (each pass checks the
        // invariants itself).
        assert_eq!(
            run.effective, pinned,
            "covering table's effective sizes moved on {workload}"
        );
        insert += run.insert;
        remove += run.remove;
        (inserts, removes) = (run.inserts, run.removes);
    }
    let per_call = |d: Duration, calls: usize| d.as_nanos() as f64 / (iters * calls).max(1) as f64;
    CoverRow {
        workload,
        inserts,
        removes,
        insert_ns: per_call(insert, inserts),
        remove_ns: per_call(remove, removes),
        effective: pinned,
    }
}

/// Set B at `nitf-churn`'s sizes: the standing expressions and the
/// first window subscribed untimed, then each churn operation
/// subscribes the next reserve expression (seeded passes over the
/// reserve) and unsubscribes the oldest transient one, each call
/// timed on its own.
fn churn_pass(standing: &[Xpe], reserve: &[Xpe]) -> CoverPass {
    let mut table: Prt<u32> = Prt::new();
    let mut next_id = 0u64;
    let mut subscribe = |table: &mut Prt<u32>, xpe: &Xpe| {
        next_id += 1;
        table.insert(SubId(next_id), xpe.clone(), (next_id % 5) as u32);
        SubId(next_id)
    };
    for xpe in standing {
        subscribe(&mut table, xpe);
    }
    let mut window: VecDeque<SubId> = reserve
        .iter()
        .take(CHURN_WINDOW)
        .map(|xpe| subscribe(&mut table, xpe))
        .collect();
    let setup = table.effective_size();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED + 52);
    let mut picks = Vec::new();
    for _ in 0..CHURN_PASSES {
        let mut order: Vec<&Xpe> = reserve.iter().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        picks.extend(order);
    }
    let (mut insert, mut remove, mut summed) = (Duration::ZERO, Duration::ZERO, 0);
    for &xpe in &picks {
        let started = Instant::now();
        window.push_back(subscribe(&mut table, xpe));
        insert += started.elapsed();
        summed += table.effective_size();
        let oldest = window.pop_front().expect("the window holds the new one");
        let started = Instant::now();
        table.remove(oldest);
        remove += started.elapsed();
        summed += table.effective_size();
    }
    check_tree(&table, "nitf set_b churn");
    CoverPass {
        effective: EffectiveSizes {
            setup,
            summed,
            end: table.effective_size(),
        },
        insert,
        inserts: picks.len(),
        remove,
        removes: picks.len(),
    }
}

/// 2,000 Set A inserts into an empty table, timed as one block, then
/// the removes in insertion order, timed as another; the tree is
/// checked, untimed, in between.
fn set_a_pass(xpes: &[Xpe]) -> CoverPass {
    let mut table: Prt<u32> = Prt::new();
    let started = Instant::now();
    for (i, xpe) in xpes.iter().enumerate() {
        table.insert(SubId(i as u64), xpe.clone(), (i % 5) as u32);
    }
    let insert = started.elapsed();
    check_tree(&table, "nitf set_a");
    let setup = table.effective_size();
    let mut summed = 0;
    let started = Instant::now();
    for i in 0..xpes.len() {
        table.remove(SubId(i as u64));
        summed += table.effective_size();
    }
    let remove = started.elapsed();
    check_tree(&table, "nitf set_a");
    CoverPass {
        effective: EffectiveSizes {
            setup,
            summed,
            end: table.effective_size(),
        },
        insert,
        inserts: xpes.len(),
        remove,
        removes: xpes.len(),
    }
}

/// Untimed gate: the covering tree keeps its invariants.
fn check_tree(table: &Prt<u32>, workload: &str) {
    if let Err(e) = table.tree().check_invariants() {
        panic!("covering table broke an invariant on {workload}: {e}");
    }
}

fn render_json(
    (levels, paths): &(Vec<Level>, usize),
    adv_rows: &[AdvRow],
    cover_rows: &[CoverRow],
    iters: usize,
) -> String {
    let rows: Vec<String> = levels
        .iter()
        .map(|l| {
            format!(
                "    {{\"subscriptions\": {}, \"flat_ns_per_pub\": {:.1}, \
                 \"automaton_ns_per_pub\": {:.1}, \
                 \"automaton_shuffled_ns_per_pub\": {:.1}, \"speedup\": {:.2}, \
                 \"matches_per_pass\": {}}}",
                l.subscriptions,
                l.flat_ns_per_pub,
                l.automaton_ns_per_pub,
                l.automaton_shuffled_ns_per_pub,
                l.speedup,
                l.matches,
            )
        })
        .collect();
    let adv: Vec<String> = adv_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"dtd\": \"{}\", \"hops\": {}, \"advertisements\": {}, \
                 \"automaton_states\": {}, \"set\": \"{}\", \"xpes\": {}, \
                 \"scan_us_per_xpe\": {:.2}, \"automaton_us_per_xpe\": {:.3}, \
                 \"speedup\": {:.1}, \"forwarded_hops\": {}}}",
                r.dtd,
                r.hops,
                r.advertisements,
                r.states,
                r.set,
                r.xpes,
                r.scan_us_per_xpe,
                r.automaton_us_per_xpe,
                r.scan_us_per_xpe / r.automaton_us_per_xpe.max(f64::EPSILON),
                r.forwarded_hops,
            )
        })
        .collect();
    let covering: Vec<String> = cover_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"inserts\": {}, \"insert_ns_per_call\": {:.0}, \
                 \"removes\": {}, \"remove_ns_per_call\": {:.0}, \
                 \"effective_after_setup\": {}, \"effective_at_end\": {}}}",
                r.workload,
                r.inserts,
                r.insert_ns,
                r.removes,
                r.remove_ns,
                r.effective.setup,
                r.effective.end,
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"matching\",\n  \"workload\": \"nitf set_a\",\n  \
         \"publication_paths\": {paths},\n  \"iters\": {iters},\n  \"levels\": [\n{}\n  ],\n  \
         \"advertisements\": [\n{}\n  ],\n  \"covering\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        adv.join(",\n"),
        covering.join(",\n")
    )
}
