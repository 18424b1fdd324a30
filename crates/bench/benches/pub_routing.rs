//! Criterion bench behind Table 1: per-publication routing time.
//!
//! Routes NITF publication paths against a loaded routing table in
//! four organizations: flat scan, covering table, covering + perfect
//! merging, covering + imperfect merging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xdn_bench::{universe_sample, SEED};
use xdn_core::merge::MergeConfig;
use xdn_core::rtable::{FlatPrt, Prt, PublicationRouter, SubId};
use xdn_workloads::{docs, nitf_dtd, sets};

fn bench_routing(c: &mut Criterion) {
    let dtd = nitf_dtd();
    let queries = sets::set_a(&dtd, 4_000, SEED + 30);
    let documents = docs::documents(&dtd, 40, SEED + 31);
    let pubs: Vec<Vec<String>> = docs::publication_paths(&documents)
        .into_iter()
        .map(|p| p.elements)
        .collect();
    let universe = universe_sample(&dtd, 2_000);

    let mut flat: FlatPrt<u32> = FlatPrt::new();
    let mut covering: Prt<u32> = Prt::new();
    let mut merged: Prt<u32> = Prt::new();
    for (i, q) in queries.iter().enumerate() {
        flat.insert(SubId(i as u64), q.clone(), i as u32);
        covering.insert(SubId(i as u64), q.clone(), i as u32);
        merged.insert(SubId(i as u64), q.clone(), i as u32);
    }
    let mut seq = 1_000_000u64;
    merged.apply_merging(
        &universe,
        &MergeConfig {
            max_degree: 0.1,
            ..Default::default()
        },
        || {
            seq += 1;
            SubId(seq)
        },
    );

    let mut group = c.benchmark_group("pub_routing");
    group.bench_with_input(BenchmarkId::new("flat", pubs.len()), &pubs, |b, ps| {
        let mut i = 0;
        b.iter(|| {
            let p = &ps[i % ps.len()];
            i += 1;
            flat.matching_hops(p, &[]).len()
        });
    });
    group.bench_with_input(BenchmarkId::new("covering", pubs.len()), &pubs, |b, ps| {
        let mut i = 0;
        b.iter(|| {
            let p = &ps[i % ps.len()];
            i += 1;
            covering.matching_hops(p, &[]).len()
        });
    });
    group.bench_with_input(
        BenchmarkId::new("merged_ipm", pubs.len()),
        &pubs,
        |b, ps| {
            let mut i = 0;
            b.iter(|| {
                let p = &ps[i % ps.len()];
                i += 1;
                merged.matching_hops(p, &[]).len()
            });
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_routing
}
criterion_main!(benches);
