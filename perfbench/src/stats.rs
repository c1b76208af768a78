//! Sample summaries, the tail-percentile rule, operation accounting and
//! metric-name validation.

/// Percentiles the tail rule may choose from, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (to a tenth) among `n`
/// samples, in integers so that e.g. p99.9 of 10 000 is exactly 9990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples that lie beyond the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A set of timing (or size) samples.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank percentile; `NaN` when there are no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(sorted.len(), p) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Percentile `p` of each run of [`BATCH`] consecutive samples, and
    /// the median of those; the plain percentile below one batch. A burst
    /// of host noise then moves one batch, not the figure.
    pub fn batched(&self, p: f64) -> f64 {
        if self.values.len() < BATCH {
            return self.percentile(p);
        }
        let mut per_batch = Samples::default();
        for chunk in self.values.chunks_exact(BATCH) {
            per_batch.push(Samples { values: chunk.to_vec() }.percentile(p));
        }
        per_batch.median()
    }
}

/// Samples per batch of [`Samples::batched`]: the fewest at which p90
/// has ten samples beyond it.
pub const BATCH: usize = 100;

/// Completions per second over each run of `batch` consecutive
/// completions (`done_s` in seconds, any order), one rate per run.
pub fn batch_rates(done_s: &[f64], batch: usize) -> Samples {
    let mut done = done_s.to_vec();
    done.sort_by(f64::total_cmp);
    let mut rates = Samples::default();
    for i in (batch..done.len()).step_by(batch) {
        rates.push(batch as f64 / (done[i] - done[i - batch]));
    }
    rates
}

/// Operations attempted and failed, across every operation of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as failed too.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(20, 50.0), 10);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn batched_percentiles_resist_one_noisy_batch() {
        let mut s = Samples::default();
        for batch in 0..5 {
            for v in 1..=100 {
                // one batch of five is ten times slower
                s.push(if batch == 2 { 10.0 * v as f64 } else { v as f64 });
            }
        }
        assert_eq!(s.batched(90.0), 90.0);
        assert_eq!(s.batched(50.0), 50.0);
        assert!(s.percentile(90.0) > 90.0);
        // a partial trailing batch is ignored; below one batch it is plain
        s.push(1e9);
        assert_eq!(s.batched(90.0), 90.0);
        let mut few = Samples::default();
        (1..=20).for_each(|v| few.push(v as f64));
        assert_eq!(few.batched(90.0), 18.0);
    }

    #[test]
    fn batch_rates_span_consecutive_completions() {
        let done = [0.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 9.0];
        let r = batch_rates(&done, 2);
        // batches end at 1.0, 1.5 and 2.0; the partial tail is dropped
        assert_eq!(r.len(), 3);
        assert_eq!(r.percentile(0.0), 2.0);
        assert_eq!(r.percentile(100.0), 4.0);
        assert!(batch_rates(&done[..2], 2).is_empty());
    }

    #[test]
    fn error_rate_counts_every_operation() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for i in 0..8 {
            t.record(i != 3);
        }
        assert_eq!(t, Tally { attempted: 8, failed: 1 });
        let mut other = Tally::default();
        other.record(false);
        other.record(true);
        t.merge(other);
        assert_eq!(t, Tally { attempted: 10, failed: 2 });
        assert_eq!(t.error_rate(), 0.2);
    }

    #[test]
    fn metric_names() {
        for ok in ["setup_s", "server.encode_us.point", "eval.plan-us", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".lead", "_lead", "has space", "slash/y", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
