//! Structured trace events from the broker hot paths.
//!
//! Brokers hold an `Option<Arc<dyn Tracer>>` that defaults to `None`,
//! so the disabled cost is a single branch — no event is even
//! constructed. Events are flat and `Copy`: a static name plus numeric
//! ids, deliberately free of owned strings so emitting one never
//! allocates.
//!
//! Event vocabulary (names are stable, used by tests and log readers):
//!
//! | name           | id            | value            | nanos      |
//! |----------------|---------------|------------------|------------|
//! | `sub.process`  | subscription  | messages emitted | span time  |
//! | `sub.covered`  | subscription  | 0                | 0          |
//! | `adv.process`  | advertisement | 0                | 0          |
//! | `pub.route`    | document      | matched hops     | span time  |
//! | `pub.deliver`  | document      | client id        | 0          |

use std::sync::{Mutex, PoisonError};

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stable event name, e.g. `"pub.route"`.
    pub name: &'static str,
    /// Id of the broker that emitted the event.
    pub broker: u32,
    /// Message-kind tag (`"publish"`, `"subscribe"`, …) or `""`.
    pub kind: &'static str,
    /// Primary subject id — doc, subscription, or advertisement id.
    pub id: u64,
    /// Event-specific auxiliary value (see the module table).
    pub value: u64,
    /// Span duration in nanoseconds; 0 for point events.
    pub nanos: u64,
}

impl TraceEvent {
    /// A point event (no duration).
    pub fn point(name: &'static str, broker: u32, kind: &'static str, id: u64, value: u64) -> Self {
        TraceEvent {
            name,
            broker,
            kind,
            id,
            value,
            nanos: 0,
        }
    }

    /// A span event carrying a measured duration.
    pub fn span(
        name: &'static str,
        broker: u32,
        kind: &'static str,
        id: u64,
        value: u64,
        nanos: u64,
    ) -> Self {
        TraceEvent {
            name,
            broker,
            kind,
            id,
            value,
            nanos,
        }
    }
}

/// A sink for trace events. Implementations must be cheap and
/// non-blocking enough to sit on broker hot paths; anything expensive
/// belongs behind buffering inside the tracer.
pub trait Tracer: Send + Sync {
    /// Records one event.
    fn record(&self, event: &TraceEvent);
}

/// Buffers events in memory — the test workhorse.
#[derive(Debug, Default)]
pub struct CollectingTracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectingTracer {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.lock())
    }

    /// Recorded events with the given name.
    pub fn named(&self, name: &str) -> Vec<TraceEvent> {
        self.lock()
            .iter()
            .filter(|e| e.name == name)
            .copied()
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Tracer for CollectingTracer {
    fn record(&self, event: &TraceEvent) {
        self.lock().push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_tracer_buffers_and_filters() {
        let t = CollectingTracer::new();
        t.record(&TraceEvent::point("pub.deliver", 1, "publish", 7, 42));
        t.record(&TraceEvent::span("pub.route", 1, "publish", 7, 2, 1500));
        assert_eq!(t.snapshot().len(), 2);
        let routes = t.named("pub.route");
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].nanos, 1500);
        assert_eq!(t.take().len(), 2);
        assert!(t.snapshot().is_empty());
    }
}
