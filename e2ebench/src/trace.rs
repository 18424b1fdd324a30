//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A traced run records one [`Span`] per call (decode, handle, encode,
//! deliver, extract, send): its name, start, end, the broker it ran
//! at, and the document or subscription operation that caused it. The
//! spans stay in memory and are written out once the run ends; the
//! per-layer metrics are read from the running per-(name, broker)
//! totals. An untraced tracer takes no timestamps at all.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the written trace; totals keep counting past it.
const MAX_KEPT_SPANS: usize = 200_000;

/// Marks a span that ran at no broker (the publisher, the client).
pub const NO_BROKER: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call: `decode`, `handle`, `encode`, `deliver`, ...
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Broker index the call ran at, or [`NO_BROKER`].
    pub broker: u32,
    /// The document (`d<id>`) or operation (`o<id>`) being served.
    pub parent: Parent,
}

/// What a span was caused by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// Set-up traffic (advertisements, standing subscriptions).
    Setup,
    /// A published document.
    Doc(u64),
    /// A subscribe or unsubscribe operation.
    Op(u64),
}

/// Total time and work of one (name, broker) span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Summed duration of the spans.
    pub ns: u64,
    /// Work items the spans covered (frames of a batch; 1 otherwise).
    pub units: u64,
}

impl Total {
    /// Mean microseconds per work item (0 without work).
    pub fn us_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.ns as f64 / 1e3 / self.units as f64
        }
    }

    fn add(self, other: Total) -> Total {
        Total {
            ns: self.ns + other.ns,
            units: self.units + other.units,
        }
    }
}

/// Span recorder; off means every call is a branch and nothing else.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    paused: bool,
    parent: Parent,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<(&'static str, u32), Total>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            paused: false,
            parent: Parent::Setup,
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// Sets the document or operation later spans belong to.
    pub fn set_parent(&mut self, parent: Parent) {
        self.parent = parent;
    }

    /// Stops (`false`) or resumes (`true`) recording on a recording
    /// tracer, so a traced run can interleave untraced work and measure
    /// what tracing costs.
    pub fn set_recording(&mut self, on: bool) {
        self.paused = !on;
    }

    /// Nanoseconds since the tracer started (0 when off or paused).
    #[inline]
    pub fn now(&self) -> u64 {
        match self.origin {
            Some(o) if !self.paused => o.elapsed().as_nanos() as u64,
            _ => 0,
        }
    }

    /// Records a span that started at `start_ns` (from [`Tracer::now`])
    /// and ends now.
    #[inline]
    pub fn close(&mut self, name: &'static str, broker: u32, start_ns: u64) {
        self.close_n(name, broker, start_ns, 1);
    }

    /// [`Tracer::close`] for a call that covered `units` work items.
    #[inline]
    pub fn close_n(&mut self, name: &'static str, broker: u32, start_ns: u64, units: u64) {
        if self.origin.is_none() || self.paused {
            return;
        }
        let end_ns = self.now();
        let total = self.totals.entry((name, broker)).or_default();
        total.ns += end_ns.saturating_sub(start_ns);
        total.units += units;
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                broker,
                parent: self.parent,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Totals of the spans named in `names` at `broker` (`None`: at
    /// every broker and the clients).
    pub fn total(&self, names: &[&str], broker: Option<u32>) -> Total {
        self.totals
            .iter()
            .filter(|((n, b), _)| names.contains(n) && broker.is_none_or(|want| *b == want))
            .fold(Total::default(), |acc, (_, t)| acc.add(*t))
    }

    /// Writes the kept spans as tab-separated lines
    /// (`name broker parent start_ns end_ns`).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "# spans kept: {}, dropped past the cap: {}",
            self.spans.len(),
            self.dropped
        )?;
        writeln!(w, "name\tbroker\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let broker = if s.broker == NO_BROKER {
                "-".to_string()
            } else {
                format!("b{}", s.broker)
            };
            let parent = match s.parent {
                Parent::Setup => "setup".to_string(),
                Parent::Doc(d) => format!("d{d}"),
                Parent::Op(o) => format!("o{o}"),
            };
            writeln!(
                w,
                "{}\t{broker}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
