//! Order statistics and failure accounting shared by every workload.

/// The percentiles a latency tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank index of percentile `p` in `n` sorted samples.
fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank_index(sorted.len(), p)]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// The highest reportable percentile for `n` samples: the highest of
/// 99.9, 99, 90 and 50 with at least [`MIN_BEYOND`] samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of integer samples, as a float; NaN when there are none, so
/// an unmeasured metric cannot pass for a measured one.
pub fn median_or_nan(values: &[u64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

/// What happened to one attempted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Completed with the expected answer.
    Ok,
    /// Completed with an answer the oracle disagrees with.
    Wrong,
    /// A typed error frame or engine error.
    Failed,
    /// Refused at admission.
    Refused,
}

/// Attempted / failed accounting for a closed loop. Every op that is
/// not [`Verdict::Ok`] counts against the error rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub wrong: u64,
    pub failed: u64,
    pub refused: u64,
}

impl Tally {
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => self.ok += 1,
            Verdict::Wrong => self.wrong += 1,
            Verdict::Failed => self.failed += 1,
            Verdict::Refused => self.refused += 1,
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.failed += other.failed;
        self.refused += other.refused;
    }

    /// Ops that did not complete correctly: failed, refused, or wrong.
    pub fn bad(&self) -> u64 {
        self.attempted - self.ok
    }

    /// `bad / attempted`, 0 for an empty tally.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.bad() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: the p99 rank is 990, ten samples lie beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!supports(999, 99.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn refused_and_failed_ops_count_against_the_error_rate() {
        let mut tally = Tally::default();
        for verdict in [
            Verdict::Ok,
            Verdict::Ok,
            Verdict::Wrong,
            Verdict::Failed,
            Verdict::Refused,
            Verdict::Ok,
            Verdict::Ok,
            Verdict::Ok,
        ] {
            tally.record(verdict);
        }
        assert_eq!(tally.attempted, 8);
        assert_eq!(
            (tally.ok, tally.wrong, tally.failed, tally.refused),
            (5, 1, 1, 1)
        );
        assert_eq!(tally.bad(), 3);
        assert!((tally.error_rate() - 3.0 / 8.0).abs() < 1e-12);
        let mut sum = Tally::default();
        sum.merge(&tally);
        sum.merge(&tally);
        assert_eq!(sum.attempted, 16);
        assert_eq!(sum.bad(), 6);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
