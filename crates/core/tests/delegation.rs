//! Delegation-completeness test for the [`PublicationRouter`]
//! wrapper: [`TimedRouter`] must forward *every* trait method to the
//! router it wraps. A wrapper that silently falls back to a default
//! implementation would route correctly but drop the inner router's
//! semantics — this test turns that into a loud failure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xdn_core::merge::MergeConfig;
use xdn_core::rtable::{
    FlatPrt, MergeApplication, PublicationRouter, SubId, SubscribeOutcome, TimedRouter,
    UnsubscribeOutcome,
};
use xdn_xpath::Xpe;

/// Per-method call counters, observable after the spy is moved into a
/// wrapper via a retained [`Arc`].
#[derive(Debug, Default)]
struct Counts {
    insert: AtomicUsize,
    remove: AtomicUsize,
    for_each: AtomicUsize,
    len: AtomicUsize,
    xpe_of: AtomicUsize,
    forwarded_subs: AtomicUsize,
    effective_size: AtomicUsize,
    apply_merging: AtomicUsize,
}

/// A [`FlatPrt`] that counts every trait-method call.
#[derive(Debug)]
struct SpyRouter {
    inner: FlatPrt<u32>,
    counts: Arc<Counts>,
}

impl SpyRouter {
    fn fresh() -> Self {
        SpyRouter {
            inner: FlatPrt::new(),
            counts: Arc::new(Counts::default()),
        }
    }
}

impl PublicationRouter<u32> for SpyRouter {
    fn insert(&mut self, id: SubId, xpe: Xpe, last_hop: u32) -> SubscribeOutcome<u32> {
        self.counts.insert.fetch_add(1, Ordering::Relaxed);
        self.inner.insert(id, xpe, last_hop)
    }

    fn remove(&mut self, id: SubId) -> UnsubscribeOutcome {
        self.counts.remove.fetch_add(1, Ordering::Relaxed);
        self.inner.remove(id)
    }

    fn for_each_matching_with_attrs(
        &self,
        path: &[String],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(SubId, &u32),
    ) {
        self.counts.for_each.fetch_add(1, Ordering::Relaxed);
        self.inner.for_each_matching_with_attrs(path, attrs, f);
    }

    fn len(&self) -> usize {
        self.counts.len.fetch_add(1, Ordering::Relaxed);
        PublicationRouter::len(&self.inner)
    }

    fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        self.counts.xpe_of.fetch_add(1, Ordering::Relaxed);
        PublicationRouter::xpe_of(&self.inner, id)
    }

    fn forwarded_subs(&self) -> Vec<(SubId, Xpe, Vec<u32>)> {
        self.counts.forwarded_subs.fetch_add(1, Ordering::Relaxed);
        self.inner.forwarded_subs()
    }

    fn effective_size(&self) -> usize {
        self.counts.effective_size.fetch_add(1, Ordering::Relaxed);
        self.inner.effective_size()
    }

    fn apply_merging(
        &mut self,
        universe: &[Vec<String>],
        cfg: &MergeConfig,
        next_id: &mut dyn FnMut() -> SubId,
    ) -> Vec<MergeApplication> {
        self.counts.apply_merging.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_merging(universe, cfg, next_id)
    }
}

fn xpe(s: &str) -> Xpe {
    s.parse().unwrap()
}

fn path(p: &[&str]) -> Vec<String> {
    p.iter().map(|s| (*s).to_string()).collect()
}

#[test]
fn timed_router_forwards_every_method() {
    let spy = SpyRouter::fresh();
    let counts = spy.counts.clone();
    let mut timed = TimedRouter::new(spy);

    timed.insert(SubId(1), xpe("/a/b"), 7);
    assert_eq!(counts.insert.load(Ordering::Relaxed), 1, "insert");

    timed.for_each_matching_with_attrs(&path(&["a", "b"]), &[], &mut |_, _| {});
    assert_eq!(counts.for_each.load(Ordering::Relaxed), 1, "for_each");

    assert_eq!(PublicationRouter::len(&timed), 1);
    assert_eq!(counts.len.load(Ordering::Relaxed), 1, "len");

    assert_eq!(
        PublicationRouter::xpe_of(&timed, SubId(1)),
        Some(&xpe("/a/b"))
    );
    assert_eq!(counts.xpe_of.load(Ordering::Relaxed), 1, "xpe_of");

    assert_eq!(timed.forwarded_subs().len(), 1);
    assert_eq!(
        counts.forwarded_subs.load(Ordering::Relaxed),
        1,
        "forwarded_subs"
    );

    assert_eq!(timed.effective_size(), 1);
    assert_eq!(
        counts.effective_size.load(Ordering::Relaxed),
        1,
        "effective_size"
    );

    let mut next = 100u64;
    timed.apply_merging(&[], &MergeConfig::default(), &mut || {
        next += 1;
        SubId(next)
    });
    assert_eq!(
        counts.apply_merging.load(Ordering::Relaxed),
        1,
        "apply_merging"
    );

    timed.remove(SubId(1));
    assert_eq!(counts.remove.load(Ordering::Relaxed), 1, "remove");
}
