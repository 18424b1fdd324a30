//! Workload analysis: query-set statistics.
//!
//! The evaluation narrative depends on workload properties — query
//! length, wildcard and descendant density. This module computes them
//! for the repro harness's workload summaries.

use xdn_xpath::{Axis, Xpe};

/// Descriptive statistics of a query set.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySetStats {
    /// Number of queries.
    pub count: usize,
    /// Mean location steps per query.
    pub mean_length: f64,
    /// Histogram of lengths, index = steps (0 unused).
    pub length_histogram: Vec<usize>,
    /// Fraction of steps that are wildcards (the realized `W`).
    pub wildcard_rate: f64,
    /// Fraction of steps joined by `//` (the realized `DO`).
    pub descendant_rate: f64,
    /// Fraction of relative queries.
    pub relative_rate: f64,
}

/// Computes [`QuerySetStats`] for a set of queries.
pub fn query_set_stats(queries: &[Xpe]) -> QuerySetStats {
    let count = queries.len();
    let mut steps_total = 0usize;
    let mut wildcards = 0usize;
    let mut descendants = 0usize;
    let mut relative = 0usize;
    let max_len = queries.iter().map(Xpe::len).max().unwrap_or(0);
    let mut hist = vec![0usize; max_len + 1];
    for q in queries {
        steps_total += q.len();
        hist[q.len()] += 1;
        if !q.is_absolute() {
            relative += 1;
        }
        for s in q.steps() {
            if s.test.is_wildcard() {
                wildcards += 1;
            }
            if s.axis == Axis::Descendant {
                descendants += 1;
            }
        }
    }
    let steps = steps_total.max(1) as f64;
    QuerySetStats {
        count,
        mean_length: if count == 0 {
            0.0
        } else {
            steps_total as f64 / count as f64
        },
        length_histogram: hist,
        wildcard_rate: wildcards as f64 / steps,
        descendant_rate: descendants as f64 / steps,
        relative_rate: if count == 0 {
            0.0
        } else {
            relative as f64 / count as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nitf_dtd, sets};

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    #[test]
    fn stats_basic() {
        let qs = vec![xpe("/a/b"), xpe("/a/*//c"), xpe("x/y")];
        let st = query_set_stats(&qs);
        assert_eq!(st.count, 3);
        assert!((st.mean_length - 7.0 / 3.0).abs() < 1e-9);
        assert_eq!(st.length_histogram[2], 2);
        assert_eq!(st.length_histogram[3], 1);
        assert!((st.wildcard_rate - 1.0 / 7.0).abs() < 1e-9);
        assert!((st.descendant_rate - 1.0 / 7.0).abs() < 1e-9);
        assert!((st.relative_rate - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn stats_empty() {
        let st = query_set_stats(&[]);
        assert_eq!(st.count, 0);
        assert_eq!(st.mean_length, 0.0);
    }

    #[test]
    fn set_configs_realize_their_parameters() {
        // The calibrated Set A must be visibly more general than Set B.
        let dtd = nitf_dtd();
        let a = sets::set_a(&dtd, 1500, 3);
        let b = sets::set_b(&dtd, 1500, 3);
        let sa = query_set_stats(&a);
        let sb = query_set_stats(&b);
        assert!(
            sa.wildcard_rate > sb.wildcard_rate,
            "set A wildcard rate {:.3} must exceed set B {:.3}",
            sa.wildcard_rate,
            sb.wildcard_rate
        );
        assert!(sa.descendant_rate >= sb.descendant_rate);
    }
}
