//! Workspace-wide observability layer.
//!
//! Every measurement the paper's evaluation reports — network traffic
//! per message kind (Tables 2/3), routing-table sizes (Figures 6/7),
//! XPE processing time (Figure 8), publication routing time (Table 1),
//! notification delay (Figure 9) — flows through the types in this
//! crate instead of ad-hoc `Duration` sums scattered across layers.
//!
//! The crate has three pieces:
//!
//! * [`Histogram`] — fixed-bucket latency histograms with exact
//!   (u128-nanosecond) means and p50/p95/p99 quantiles. These replace
//!   the bare `Duration` accumulators that used to live in
//!   `BrokerStats` and silently truncated their divisors to `u32`.
//! * [`Tracer`] — a zero-cost-when-disabled structured trace-event API.
//!   Brokers hold an `Option<Arc<dyn Tracer>>`; the disabled path is a
//!   single branch on `None`. [`CollectingTracer`] buffers events in
//!   memory.
//! * [`MetricFamily`] + [`render_prometheus`] — a transport-neutral
//!   snapshot model and its Prometheus text exporter, served by
//!   `xdn-node` over its control socket.
//!
//! Timing itself goes through [`Stopwatch`] so hot paths never call
//! `Instant::now()` directly — `cargo xtask lint` enforces that for
//! `crates/broker` and `crates/core`.

#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
pub mod trace;

mod time;

pub use export::{render_prometheus, MetricData, MetricFamily, Sample};
pub use hist::Histogram;
pub use time::Stopwatch;
pub use trace::{CollectingTracer, TraceEvent, Tracer};
