//! News dissemination over the NITF-like DTD: shows how covering and
//! merging compact a broker's routing table as thousands of reader
//! profiles register, and how the covering table's shared automaton
//! routes publications compared with a flat scan.
//!
//! ```sh
//! cargo run --release --example news_dissemination
//! ```

use rand::SeedableRng;
use std::time::Instant;
use xdn::core::rtable::{FlatPrt, Prt, PublicationRouter, SubId};
use xdn::workloads::{docs, nitf_dtd, sets, universe};

fn main() {
    let dtd = nitf_dtd();
    let n = 5_000;

    // Reader profiles: XPath expressions over news documents.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let profiles =
        xdn::xpath::generate::generate_distinct_xpes(&dtd, n, &sets::set_a_config(), &mut rng);
    println!(
        "{} distinct reader profiles (e.g. {})",
        profiles.len(),
        profiles[0]
    );

    // A flat routing table vs the covering subscription tree.
    let mut flat: FlatPrt<u32> = FlatPrt::new();
    let mut tree: Prt<u32> = Prt::new();
    for (i, p) in profiles.iter().enumerate() {
        flat.insert(SubId(i as u64), p.clone(), i as u32);
        tree.insert(SubId(i as u64), p.clone(), i as u32);
    }
    println!("flat routing table: {} entries", flat.len());
    println!(
        "covering tree:      {} stored, {} effective ({}% reduction)",
        tree.len(),
        tree.effective_size(),
        100 - 100 * tree.effective_size() / tree.len().max(1),
    );

    // Merging compacts further (perfect mergers only — no false
    // positives).
    let u = universe(&dtd);
    let mut seq = 1_000_000;
    tree.apply_merging(&u, 0.0, || {
        seq += 1;
        SubId(seq)
    });
    println!("after perfect merging: {} effective", tree.effective_size());

    // Route today's news through both tables.
    let editions = docs::documents(&dtd, 50, 11);
    let paths = docs::publication_paths(&editions);
    println!(
        "{} documents -> {} publication paths",
        editions.len(),
        paths.len()
    );

    let started = Instant::now();
    let mut flat_matches = 0usize;
    for p in &paths {
        flat_matches += flat.matching_hops(&p.elements, &[]).len();
    }
    let flat_time = started.elapsed();

    let started = Instant::now();
    let mut tree_matches = 0usize;
    for p in &paths {
        tree_matches += tree.matching_hops(&p.elements, &[]).len();
    }
    let tree_time = started.elapsed();

    assert_eq!(
        flat_matches, tree_matches,
        "covering must not change deliveries"
    );
    println!(
        "routing {} paths: flat scan {:?}, covering table (shared automaton) {:?} ({:.1}x faster)",
        paths.len(),
        flat_time,
        tree_time,
        flat_time.as_secs_f64() / tree_time.as_secs_f64().max(1e-9),
    );
}
