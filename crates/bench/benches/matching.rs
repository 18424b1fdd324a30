//! Flat linear scan vs the shared-NFA `AutomatonPrt`, at growing
//! subscription counts, over the NITF `set_a` workload (Table 1's
//! setting). Self-timed with `Instant`; the results are written to
//! `BENCH_matching.json` at the workspace root.
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
//! Environment knobs (for CI smoke runs):
//! * `XDN_BENCH_SUBS` — comma-separated subscription counts
//!   (default `1000,10000,50000`);
//! * `XDN_BENCH_ITERS` — timed passes over the publication set
//!   (default `3`).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use xdn_bench::SEED;
use xdn_core::automaton::AutomatonPrt;
use xdn_core::rtable::{FlatPrt, PublicationRouter, SubId};
use xdn_workloads::{docs, nitf_dtd, sets};

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

fn main() {
    let levels = env_usize_list("XDN_BENCH_SUBS", &[1_000, 10_000, 50_000]);
    let iters = env_usize("XDN_BENCH_ITERS", 3).max(1);
    let max_subs = levels.iter().copied().max().unwrap_or(0);
    if max_subs == 0 {
        eprintln!("XDN_BENCH_SUBS is empty; nothing to measure");
        return;
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

    let json = render_json(&results, paths.len(), iters);
    match std::fs::write(OUT_PATH, &json) {
        Ok(()) => println!("wrote {OUT_PATH}"),
        Err(e) => eprintln!("failed to write {OUT_PATH}: {e}"),
    }
}

fn render_json(levels: &[Level], paths: usize, iters: usize) -> String {
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
    format!(
        "{{\n  \"bench\": \"matching\",\n  \"workload\": \"nitf set_a\",\n  \
         \"publication_paths\": {paths},\n  \"iters\": {iters},\n  \"levels\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}
