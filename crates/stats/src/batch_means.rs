//! Batch-means confidence intervals.
//!
//! The paper (§2.2): "All results have confidence intervals of 1 percent
//! or less at a 90 percent confidence level. Confidence intervals are
//! calculated using batch means \[Kobayashi 1978\] with 20 batches per
//! simulation run and a batch size of 1000 samples."
//!
//! [`BatchMeans`] reproduces that procedure: observations are grouped
//! into fixed-size batches, the batch means are treated as approximately
//! iid normal, and a Student-t interval is formed over them.

use crate::error::StatsError;
use crate::student_t::{check_confidence, t_critical};
use crate::summary::RunningStats;

/// The paper's batch count (20 batches per run).
pub const PAPER_BATCHES: usize = 20;
/// The paper's batch size (1000 samples per batch).
pub const PAPER_BATCH_SIZE: usize = 1000;
/// The paper's confidence level (90%).
pub const PAPER_CONFIDENCE: f64 = 0.90;

/// Accumulates observations into fixed-size batches and reports a
/// Student-t confidence interval over the batch means.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: usize,
    current: RunningStats,
    batch_means: Vec<f64>,
    overall: RunningStats,
}

impl BatchMeans {
    /// Create a collector with the given batch size (>= 1).
    pub fn new(batch_size: usize) -> Result<Self, StatsError> {
        if batch_size == 0 {
            return Err(StatsError::InvalidParameter {
                name: "batch_size",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        Ok(Self {
            batch_size,
            current: RunningStats::new(),
            batch_means: Vec::new(),
            overall: RunningStats::new(),
        })
    }

    /// Collector configured exactly as in the paper:
    /// 1000-sample batches (and callers typically run 20 batches).
    pub fn paper_configuration() -> Self {
        Self::new(PAPER_BATCH_SIZE).expect("paper batch size is valid")
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.current.push(x);
        self.overall.push(x);
        if self.current.count() as usize >= self.batch_size {
            self.batch_means.push(self.current.mean());
            self.current = RunningStats::new();
        }
    }

    /// Number of completed batches.
    pub fn completed_batches(&self) -> usize {
        self.batch_means.len()
    }

    /// Total observations pushed (including any partial batch).
    pub fn observations(&self) -> u64 {
        self.overall.count()
    }

    /// Grand mean over all observations.
    pub fn grand_mean(&self) -> f64 {
        self.overall.mean()
    }

    /// The completed batch means.
    pub fn batch_means(&self) -> &[f64] {
        &self.batch_means
    }

    /// Whether at least `PAPER_BATCHES` batches have completed.
    pub fn paper_run_complete(&self) -> bool {
        self.batch_means.len() >= PAPER_BATCHES
    }

    /// Produce the confidence-interval report at the given level.
    ///
    /// Requires at least two completed batches and a `confidence` in
    /// `(0, 1)`; see [`BatchMeansReport::from_means`].
    pub fn report(&self, confidence: f64) -> Result<BatchMeansReport, StatsError> {
        BatchMeansReport::from_means(&self.batch_means, self.batch_size, confidence)
    }

    /// Convenience: the paper's 90% interval.
    pub fn paper_report(&self) -> Result<BatchMeansReport, StatsError> {
        self.report(PAPER_CONFIDENCE)
    }
}

/// A batch-means confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMeansReport {
    /// Mean of the batch means (the point estimate).
    pub mean: f64,
    /// Half-width of the confidence interval.
    pub half_width: f64,
    /// Confidence level used (e.g. 0.90).
    pub confidence: f64,
    /// Number of batches the interval is based on.
    pub batches: usize,
    /// Samples per batch.
    pub batch_size: usize,
}

impl BatchMeansReport {
    /// The Student-t interval at level `confidence` over `batch_means`,
    /// the means of batches of `batch_size` observations each — what
    /// [`BatchMeans::report`] returns once those means are complete.
    ///
    /// Needs at least two means ([`StatsError::InsufficientData`]
    /// otherwise) and a `confidence` in `(0, 1)`
    /// ([`StatsError::InvalidParameter`] naming `confidence` otherwise,
    /// NaN included).
    pub fn from_means(
        batch_means: &[f64],
        batch_size: usize,
        confidence: f64,
    ) -> Result<Self, StatsError> {
        let b = batch_means.len();
        if b < 2 {
            return Err(StatsError::InsufficientData { needed: 2, got: b });
        }
        check_confidence(confidence)?;
        let mut stats = RunningStats::new();
        for &m in batch_means {
            stats.push(m);
        }
        let t = t_critical((b - 1) as u32, confidence);
        let half_width = t * stats.std_error();
        Ok(Self {
            mean: stats.mean(),
            half_width,
            confidence,
            batches: b,
            batch_size,
        })
    }

    /// Relative half-width `half_width / |mean|` (infinite if mean = 0).
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }

    /// The paper's acceptance criterion: relative half-width <= 1%.
    pub fn meets_paper_precision(&self) -> bool {
        self.relative_half_width() <= 0.01
    }

    /// Whether `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.half_width
    }

    /// Interval lower bound.
    pub fn lower(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Interval upper bound.
    pub fn upper(&self) -> f64 {
        self.mean + self.half_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{Distribution, Exponential};
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn rejects_zero_batch_size() {
        assert!(BatchMeans::new(0).is_err());
    }

    #[test]
    fn batches_complete_at_exact_boundaries() {
        let mut bm = BatchMeans::new(10).unwrap();
        for i in 0..35 {
            bm.push(i as f64);
        }
        assert_eq!(bm.completed_batches(), 3);
        assert_eq!(bm.observations(), 35);
        // First batch mean = mean of 0..10 = 4.5
        assert!((bm.batch_means()[0] - 4.5).abs() < 1e-12);
        assert!((bm.batch_means()[1] - 14.5).abs() < 1e-12);
    }

    #[test]
    fn report_requires_two_batches() {
        let mut bm = BatchMeans::new(100).unwrap();
        for i in 0..150 {
            bm.push(i as f64);
        }
        assert_eq!(bm.completed_batches(), 1);
        assert!(bm.report(0.9).is_err());
    }

    #[test]
    fn report_rejects_a_confidence_outside_the_unit_interval() {
        let mut bm = BatchMeans::new(2).unwrap();
        for x in [1.0, 2.0, 3.0, 4.0] {
            bm.push(x);
        }
        for c in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            match bm.report(c) {
                Err(StatsError::InvalidParameter {
                    name: "confidence",
                    value,
                    ..
                }) => assert_eq!(value.to_bits(), c.to_bits()),
                other => panic!("confidence {c}: {other:?}"),
            }
        }
        // Too few batches is still reported first.
        assert_eq!(
            BatchMeansReport::from_means(&[1.0], 2, f64::NAN),
            Err(StatsError::InsufficientData { needed: 2, got: 1 })
        );
    }

    #[test]
    fn deterministic_data_zero_width() {
        let mut bm = BatchMeans::new(5).unwrap();
        for _ in 0..50 {
            bm.push(7.0);
        }
        let r = bm.report(0.9).unwrap();
        assert!((r.mean - 7.0).abs() < 1e-12);
        assert!(r.half_width < 1e-12);
        assert!(r.meets_paper_precision());
        assert!(r.contains(7.0));
        assert!(!r.contains(7.1));
    }

    #[test]
    fn interval_covers_true_mean_for_iid_data() {
        // 90% CI should cover the true mean in roughly 90% of replications;
        // check coverage is at least 80% over 200 replications.
        let mut covered = 0;
        let dist = Exponential::with_mean(5.0).unwrap();
        for rep in 0..200 {
            let mut rng = Xoshiro256StarStar::new(1000 + rep);
            let mut bm = BatchMeans::new(200).unwrap();
            for _ in 0..200 * 20 {
                bm.push(dist.sample(&mut rng));
            }
            let r = bm.report(0.9).unwrap();
            if r.contains(5.0) {
                covered += 1;
            }
        }
        assert!(covered >= 160, "coverage too low: {covered}/200");
    }

    #[test]
    fn paper_configuration_constants() {
        let mut bm = BatchMeans::paper_configuration();
        assert!(!bm.paper_run_complete());
        for _ in 0..PAPER_BATCHES * PAPER_BATCH_SIZE {
            bm.push(1.0);
        }
        assert!(bm.paper_run_complete());
        assert_eq!(bm.completed_batches(), PAPER_BATCHES);
        let r = bm.paper_report().unwrap();
        assert_eq!(r.confidence, PAPER_CONFIDENCE);
        assert_eq!(r.batches, PAPER_BATCHES);
        assert_eq!(r.batch_size, PAPER_BATCH_SIZE);
    }

    #[test]
    fn report_bounds_consistent() {
        let mut bm = BatchMeans::new(10).unwrap();
        let mut rng = Xoshiro256StarStar::new(4);
        let dist = Exponential::with_mean(2.0).unwrap();
        for _ in 0..500 {
            bm.push(dist.sample(&mut rng));
        }
        let r = bm.report(0.95).unwrap();
        assert!(r.lower() <= r.mean && r.mean <= r.upper());
        assert!((r.upper() - r.lower() - 2.0 * r.half_width).abs() < 1e-12);
        assert!(r.contains(r.mean));
    }

    #[test]
    fn grand_mean_tracks_all_observations() {
        let mut bm = BatchMeans::new(4).unwrap();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            bm.push(x);
        }
        assert!((bm.grand_mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn relative_half_width_of_zero_mean() {
        let mut bm = BatchMeans::new(2).unwrap();
        for x in [1.0, -1.0, 1.0, -1.0] {
            bm.push(x);
        }
        let r = bm.report(0.9).unwrap();
        assert_eq!(r.mean, 0.0);
        assert!(r.relative_half_width().is_infinite());
        assert!(!r.meets_paper_precision());
    }
}
