//! Summaries computed from raw samples.
//!
//! Percentiles are nearest-rank over raw samples, never read from a
//! bucketed histogram, and a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie above it.
//!
//! The host is shared. Even on a CPU clock, other tenants' work on the
//! same physical cores slows stretches of several seconds down by up to
//! 1.7x, in steps. Each sample therefore carries the block of work it
//! was taken in (a pass over the document pool or the churn reserve, a
//! set-up), and the headline figures are taken over the quiet blocks:
//! the cheapest [`QUIET_SHARE`] of them ([`quiet`]). Blocks of one kind
//! hold the same work, up to order, so the choice favours quiet
//! stretches of the host, not cheap inputs. Stretches longer than a run
//! are taken out by scaling with the reference ([`crate::reference`]).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Share of the blocks the headline figures are taken over.
pub const QUIET_SHARE: f64 = 0.25;

/// The quiet blocks: the cheapest [`QUIET_SHARE`] of them (at least
/// one), by cost.
pub fn quiet(costs: &BTreeMap<u32, f64>) -> BTreeSet<u32> {
    let mut by_cost: Vec<(f64, u32)> = costs.iter().map(|(&b, &c)| (c, b)).collect();
    by_cost.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let keep = (by_cost.len() as f64 * QUIET_SHARE).ceil() as usize;
    by_cost.into_iter().take(keep).map(|(_, b)| b).collect()
}

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Raw samples of one quantity, each tagged with its block.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<(u32, f64)>,
}

impl Samples {
    /// No samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample taken in `block`.
    pub fn push(&mut self, block: u32, v: f64) {
        self.values.push((block, v));
    }

    /// Adds a duration, in microseconds, taken in `block`.
    pub fn push_us(&mut self, block: u32, d: Duration) {
        self.push(block, d.as_secs_f64() * 1e6);
    }

    /// Summed samples per block, for blocks below `complete` (the last
    /// block of a run may be cut short).
    pub fn block_sums(&self, complete: u32) -> BTreeMap<u32, f64> {
        let mut sums = BTreeMap::new();
        for &(b, v) in self.values.iter().filter(|(b, _)| *b < complete) {
            *sums.entry(b).or_default() += v;
        }
        sums
    }

    /// The samples taken in `blocks`.
    pub fn only(&self, blocks: &BTreeSet<u32>) -> Samples {
        Samples {
            values: self
                .values
                .iter()
                .filter(|(b, _)| blocks.contains(b))
                .copied()
                .collect(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True without samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().map(|(_, v)| v).sum()
    }

    /// Arithmetic mean (0 without samples).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// The median, for small sample sets such as repeated set-ups
    /// (the mean of the middle pair for an even count).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie above it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let v = self.sorted();
        if v.is_empty() {
            return None;
        }
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        let value = v[rank - 1];
        let beyond = v.iter().filter(|&&x| x > value).count();
        (beyond >= MIN_BEYOND).then_some(value)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.values.iter().map(|(_, v)| *v).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(0, f64::from(i));
        }
        assert_eq!(s.percentile(0.5), Some(50.0));
        assert_eq!(s.percentile(0.9), Some(90.0));
        assert_eq!(s.percentile(0.95), None, "only 5 samples above p95");
    }

    #[test]
    fn median_of_a_few() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            s.push(0, v);
        }
        assert_eq!(s.median(), 2.0);
        s.push(0, 10.0);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn the_cheapest_quarter_of_the_complete_blocks_is_quiet() {
        let mut s = Samples::new();
        for (b, v) in [(0, 5.0), (1, 9.0), (2, 4.0), (0, 5.0), (3, 8.0), (4, 1.0)] {
            s.push(b, v);
        }
        s.push(5, 3.0);
        s.push(6, 7.0);
        s.push(7, 6.0);
        s.push(8, 0.5);
        let sums = s.block_sums(8);
        assert_eq!(sums.len(), 8, "block 8 is not complete");
        let quiet = quiet(&sums);
        assert_eq!(quiet, BTreeSet::from([4, 5]));
        assert_eq!(s.only(&quiet).sum(), 4.0);
    }

    #[test]
    fn a_few_blocks_keep_at_least_one() {
        let costs = BTreeMap::from([(0, 3.0), (1, 1.0), (2, 2.0)]);
        assert_eq!(quiet(&costs), BTreeSet::from([1]));
    }
}
