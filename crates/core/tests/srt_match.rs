//! Seeded equality test for the subscription routing table: under
//! insert, remove and re-insert, [`Srt::match_sub`] (one automaton
//! search per last hop) returns exactly the hops whose stored
//! advertisements [`adv_overlaps_sub`] (§3.2–3.3, by bounded expansion)
//! says the subscription overlaps.
//!
//! The advertisements are the NITF and PSD sets spread over three
//! hops, plus random simple-, series- and embedded-recursive ones with
//! `*` positions. The subscriptions mix `/`, `//` and `*` steps,
//! relative and `//`-headed starts, attribute predicates, and lengths
//! past 16 steps. Random inputs come from a seeded generator: the
//! vendored proptest has no recursive strategies.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use xdn_core::adv::{
    derive_advertisements, AdvKind, AdvPath, AdvSegment, Advertisement, DeriveOptions,
};
use xdn_core::advmatch::{adv_overlaps_sub, PreparedAdv};
use xdn_core::rtable::{AdvId, Srt};
use xdn_xpath::generate::{generate_xpe, XpeGeneratorConfig};
use xdn_xpath::{Axis, NodeTest, Predicate, Step, Xpe};

const HOPS: u8 = 3;
const ALPHABET: &[&str] = &["a", "b", "c", "d", "e"];

/// Advertisements with their ids, and which subscriptions each one
/// overlaps (computed once: the oracle is the slow side).
struct Oracle {
    advs: Vec<(AdvId, Advertisement)>,
    subs: Vec<Xpe>,
    /// `overlap[a][s]`: advertisement `a` overlaps subscription `s`.
    overlap: Vec<Vec<bool>>,
}

impl Oracle {
    /// Runs [`adv_overlaps_sub`] on every pair. Its expansion of a
    /// recursive advertisement depends only on the subscription's
    /// length, and `PreparedAdv::new(adv, k)` is that same expansion
    /// taken once, so each (advertisement, length) is expanded once and
    /// every subscription of that length is tested on it; a sample of
    /// pairs is also run through `adv_overlaps_sub` itself.
    fn new(advs: Vec<Advertisement>, subs: Vec<Xpe>) -> Self {
        let lens: BTreeSet<usize> = subs.iter().map(Xpe::len).collect();
        let overlap: Vec<Vec<bool>> = advs
            .iter()
            .map(|a| {
                let prepared: Vec<Option<PreparedAdv>> = (0..=lens.last().copied().unwrap_or(0))
                    .map(|k| lens.contains(&k).then(|| PreparedAdv::new(a.clone(), k)))
                    .collect();
                subs.iter()
                    .map(|s| prepared[s.len()].as_ref().unwrap().overlaps(s))
                    .collect()
            })
            .collect();
        for (a, adv) in advs.iter().enumerate().step_by(7) {
            for (s, sub) in subs.iter().enumerate().skip(a % 5).step_by(11) {
                assert_eq!(overlap[a][s], adv_overlaps_sub(adv, sub), "{adv} vs {sub}");
            }
        }
        let advs = advs
            .into_iter()
            .enumerate()
            .map(|(i, a)| (AdvId(i as u64), a))
            .collect();
        Oracle {
            advs,
            subs,
            overlap,
        }
    }

    /// Checks every subscription against the table's current entries.
    fn check(&self, srt: &Srt<u8>, phase: &str) {
        let live: Vec<(usize, u8)> = srt
            .iter()
            .map(|(id, _, &hop)| (id.0 as usize, hop))
            .collect();
        for (s, sub) in self.subs.iter().enumerate() {
            let want: BTreeSet<u8> = live
                .iter()
                .filter(|&&(a, _)| self.overlap[a][s])
                .map(|&(_, hop)| hop)
                .collect();
            assert_eq!(
                srt.match_sub(sub),
                want,
                "{phase}: hop sets differ for {sub} ({} entries)",
                live.len()
            );
        }
    }
}

/// Inserts every advertisement, removes a third, then re-inserts half
/// of those under another hop; checks after each phase.
fn run(oracle: &Oracle) {
    let hop_of = |i: usize| (i % usize::from(HOPS)) as u8;
    let mut srt = Srt::new();
    for (i, (id, adv)) in oracle.advs.iter().enumerate() {
        srt.insert(*id, adv.clone(), hop_of(i));
    }
    // A re-flooded copy is idempotent.
    if let Some((id, adv)) = oracle.advs.first() {
        srt.insert(*id, adv.clone(), hop_of(0));
    }
    oracle.check(&srt, "insert");
    let removed: Vec<usize> = (0..oracle.advs.len()).filter(|i| i % 3 == 1).collect();
    for &i in &removed {
        assert!(srt.remove(oracle.advs[i].0).is_some());
    }
    oracle.check(&srt, "remove");
    for &i in removed.iter().step_by(2) {
        let (id, adv) = &oracle.advs[i];
        srt.insert(*id, adv.clone(), hop_of(i + 1));
    }
    // Moving an entry to another hop rebuilds the hop it left.
    if let Some((id, adv)) = oracle.advs.first() {
        srt.insert(*id, adv.clone(), hop_of(2));
    }
    oracle.check(&srt, "re-insert");
}

fn random_test(rng: &mut ChaCha8Rng, wildcard_p: f64) -> NodeTest {
    if rng.gen_bool(wildcard_p) {
        NodeTest::Wildcard
    } else {
        NodeTest::from(ALPHABET[rng.gen_range(0..ALPHABET.len())])
    }
}

fn random_path(rng: &mut ChaCha8Rng, len: std::ops::Range<usize>) -> AdvPath {
    let n = rng.gen_range(len);
    AdvPath::new((0..n).map(|_| random_test(rng, 0.15)).collect())
}

/// A body for `(…)+`: one or two positions.
fn random_body(rng: &mut ChaCha8Rng) -> Vec<AdvSegment> {
    vec![AdvSegment::Plain(random_path(rng, 1..3))]
}

/// A random advertisement with `*` positions: simple (one
/// repetition) or series (several), or with `nested` embedded (a
/// repetition inside the first); a repetition may open or close it.
fn random_adv(rng: &mut ChaCha8Rng, nested: bool) -> Advertisement {
    let repeats = rng.gen_range(1..4);
    let mut segments = Vec::new();
    for r in 0..repeats {
        if rng.gen_bool(0.8) {
            segments.push(AdvSegment::Plain(random_path(rng, 1..4)));
        }
        let body = if nested && r == 0 {
            vec![
                AdvSegment::Plain(random_path(rng, 1..3)),
                AdvSegment::Repeat(random_body(rng)),
            ]
        } else {
            random_body(rng)
        };
        segments.push(AdvSegment::Repeat(body));
    }
    if rng.gen_bool(0.7) {
        segments.push(AdvSegment::Plain(random_path(rng, 1..4)));
    }
    Advertisement::new(segments)
}

/// A word `adv` advertises, each repetition unrolled 1 to `max_reps`
/// times.
fn unroll(rng: &mut ChaCha8Rng, segments: &[AdvSegment], max_reps: usize, out: &mut Vec<NodeTest>) {
    for segment in segments {
        match segment {
            AdvSegment::Plain(p) => out.extend(p.positions().iter().cloned()),
            AdvSegment::Repeat(body) => {
                for _ in 0..rng.gen_range(1..=max_reps) {
                    unroll(rng, body, max_reps, out);
                }
            }
        }
    }
}

fn random_predicates(rng: &mut ChaCha8Rng) -> Vec<Predicate> {
    match rng.gen_range(0..6) {
        0 => vec![Predicate::HasAttr("id".into())],
        1 => vec![Predicate::AttrEq("lang".into(), "en".into())],
        _ => Vec::new(),
    }
}

/// A subscription of at most `max_len` steps read off a word: a window
/// of it, ending after each step with probability `stop_p`, some
/// positions skipped behind `//`, some tests widened to `*`, the odd
/// name changed so that not everything overlaps.
fn xpe_from_word(
    rng: &mut ChaCha8Rng,
    word: &[NodeTest],
    max_len: usize,
    stop_p: f64,
) -> Option<Xpe> {
    let absolute = rng.gen_bool(0.6);
    let start = if absolute && rng.gen_bool(0.7) {
        0
    } else {
        rng.gen_range(0..word.len())
    };
    let mut steps = Vec::new();
    let mut i = start;
    while i < word.len() {
        let mut axis = Axis::Child;
        if !steps.is_empty() || absolute {
            if rng.gen_bool(0.2) {
                axis = Axis::Descendant;
                i += rng.gen_range(0..3usize);
            }
        } else if rng.gen_bool(0.15) {
            axis = Axis::Descendant;
        }
        let Some(position) = word.get(i) else {
            break;
        };
        let test = if rng.gen_bool(0.15) {
            NodeTest::Wildcard
        } else if rng.gen_bool(0.08) || position.is_wildcard() {
            random_test(rng, 0.0)
        } else {
            position.clone()
        };
        steps.push(Step {
            axis,
            test,
            predicates: random_predicates(rng),
        });
        i += 1;
        if steps.len() == max_len || rng.gen_bool(stop_p) {
            break;
        }
    }
    if steps.is_empty() {
        return None;
    }
    // An absolute XPE starting at 0 with `/` is anchored; one that
    // starts later must float.
    if absolute && start > 0 {
        if let Some(first) = steps.first_mut() {
            first.axis = Axis::Descendant;
        }
    }
    Some(Xpe::new(absolute, steps))
}

/// A subscription over the alphabet alone, of `len` steps.
fn random_xpe(rng: &mut ChaCha8Rng, len: usize) -> Xpe {
    let steps = (0..len)
        .map(|_| Step {
            axis: if rng.gen_bool(0.25) {
                Axis::Descendant
            } else {
                Axis::Child
            },
            test: random_test(rng, 0.25),
            predicates: random_predicates(rng),
        })
        .collect();
    Xpe::new(rng.gen_bool(0.5), steps)
}

/// `n` subscriptions read off words of `advs`, repetitions unrolled up
/// to `reps` times, plus `per_len` over the alphabet alone for each
/// length in `lens`; none longer than the longest of `lens`.
fn random_subs(
    rng: &mut ChaCha8Rng,
    advs: &[Advertisement],
    n: usize,
    reps: usize,
    lens: std::ops::Range<usize>,
    per_len: usize,
) -> Vec<Xpe> {
    let mut subs = Vec::new();
    while subs.len() < n {
        let adv = &advs[rng.gen_range(0..advs.len())];
        let mut word = Vec::new();
        unroll(rng, adv.segments(), reps, &mut word);
        subs.extend(xpe_from_word(
            rng,
            &word,
            lens.end - 1,
            1.0 / (lens.end - 1) as f64,
        ));
    }
    for len in lens {
        subs.extend((0..per_len).map(|_| random_xpe(rng, len)));
    }
    subs
}

#[test]
fn random_recursive_advertisements_match_like_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5e7);
    let advs: Vec<Advertisement> = (0..80).map(|_| random_adv(&mut rng, false)).collect();
    assert!(advs.iter().any(|a| a.kind() == AdvKind::SeriesRecursive));
    assert!(advs.iter().any(|a| a.kind() == AdvKind::SimpleRecursive));
    let subs = random_subs(&mut rng, &advs, 300, 3, 1..11, 8);
    run(&Oracle::new(advs, subs));
}

/// Nested repetitions. The oracle's expansions multiply under nesting
/// (each outer iteration picks its own inner count), so these
/// subscriptions stay short.
#[test]
fn embedded_recursive_advertisements_match_like_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xe3b);
    let advs: Vec<Advertisement> = (0..30).map(|_| random_adv(&mut rng, true)).collect();
    assert!(advs.iter().all(|a| a.kind() == AdvKind::EmbeddedRecursive));
    let subs = random_subs(&mut rng, &advs, 150, 3, 1..6, 8);
    run(&Oracle::new(advs, subs));
}

/// Subscriptions past 16 steps, where the table once fell back to the
/// dynamic algorithm.
#[test]
fn long_subscriptions_match_like_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x10e6);
    let advs: Vec<Advertisement> = (0..40).map(|_| random_adv(&mut rng, false)).collect();
    let subs = random_subs(&mut rng, &advs, 200, 12, 14..26, 4);
    let long = subs.iter().filter(|s| s.len() > 16).count();
    assert!(long >= 40, "{long} long subscriptions");
    run(&Oracle::new(advs, subs));
}

/// The DTD-derived sets: `per_set` Set A/B subscriptions, plus walks
/// with relative starts and descendant steps, up to 20 steps.
fn dtd_subs(dtd: &xdn_xml::dtd::Dtd, per_set: usize, seed: u64) -> Vec<Xpe> {
    let mut subs = xdn_workloads::sets::set_a(dtd, per_set, seed);
    subs.extend(xdn_workloads::sets::set_b(dtd, per_set, seed + 1));
    let config = XpeGeneratorConfig {
        max_length: 20,
        min_length: 4,
        stop_p: 0.1,
        relative_p: 0.3,
        cycle_unroll: 4,
        ..XpeGeneratorConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed + 2);
    subs.extend((0..per_set).map(|_| generate_xpe(dtd, &config, &mut rng)));
    subs
}

#[test]
fn psd_advertisements_match_like_the_oracle() {
    let dtd = xdn_workloads::psd_dtd();
    let advs = derive_advertisements(&dtd, &DeriveOptions::default());
    run(&Oracle::new(advs, dtd_subs(&dtd, 40, 11)));
}

#[test]
fn nitf_advertisements_match_like_the_oracle() {
    let dtd = xdn_workloads::nitf_dtd();
    let advs = derive_advertisements(&dtd, &DeriveOptions::default());
    run(&Oracle::new(advs, dtd_subs(&dtd, 4, 21)));
}
