//! Order statistics for timing samples.
//!
//! A timing is reported as its median and its *tail*: the highest
//! percentile (capped at p99) that still has at least ten samples
//! beyond it, so a tail value never rests on one or two outliers.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples a tail percentile must have beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest candidate percentile with at least ten of `n` samples
/// beyond it; `None` when even the median has fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&q| n * (100 - q as usize) >= TAIL_MIN_BEYOND * 100)
        .map(|&q| f64::from(q))
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 100]`);
/// `0.0` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of unsorted values; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median, tail and mean of one timing series.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile `tail` was taken at (see [`tail_percentile`]);
    /// `0.0` when there were too few samples for any tail.
    pub tail_q: f64,
    /// Value at `tail_q`, or the maximum when no percentile qualifies.
    pub tail: f64,
    /// Arithmetic mean (what per-call totals multiply by).
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail_q, tail) = match tail_percentile(sorted.len()) {
            Some(q) => (q, percentile_sorted(&sorted, q)),
            None => (0.0, sorted.last().copied().unwrap_or(0.0)),
        };
        Summary {
            n: sorted.len(),
            p50: percentile_sorted(&sorted, 50.0),
            tail_q,
            tail,
            mean: mean(&sorted),
        }
    }

    /// One human-readable line naming the tail percentile actually used
    /// and the sample count behind it.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        if self.tail_q > 0.0 {
            format!(
                "{name}: n={} p50={:.3}{unit} p{}={:.3}{unit} mean={:.3}{unit}",
                self.n, self.p50, self.tail_q, self.tail, self.mean
            )
        } else {
            format!(
                "{name}: n={} p50={:.3}{unit} max={:.3}{unit} (too few samples for a tail)",
                self.n, self.p50, self.tail
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_tail_and_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_q, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 501.0);
        assert!((s.mean - 500.5).abs() < 1e-9);
        let line = s.describe("x", "us");
        assert!(line.contains("n=1000") && line.contains("p99="), "{line}");

        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.n, few.tail_q, few.tail), (3, 0.0, 3.0));
        assert!(few.describe("y", "ms").contains("too few samples"));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
