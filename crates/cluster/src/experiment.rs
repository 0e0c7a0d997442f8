//! Batch-means experiment driver — the paper's §2.2 validation rerun.
//!
//! "We duplicated the experiment found in figure 1 of this paper and the
//! simulation results were identical to the analysis thus verifying the
//! correctness of analysis code" — with "confidence intervals of 1
//! percent or less at a 90 percent confidence level ... batch means with
//! 20 batches per simulation run and a batch size of 1000 samples."
//!
//! [`JobTimeExperiment`] reruns exactly that: it simulates job
//! completion times with the discrete-time (model-exact) simulator,
//! groups them into batches, and checks the analytical `E_j` falls
//! inside the confidence interval.
//!
//! Every job is an independent replication on its own streams, so the
//! batches are too: each batch's mean is worked out on its own, over
//! its jobs in replication order, and the batches fan out over
//! [`parallel_map`]'s threads. The means, and so every output byte,
//! do not depend on the thread count.

use crate::discrete::DiscreteTaskSim;
use crate::error::ClusterError;
use crate::job::JobRunner;
use nds_stats::autocorr::{check_batch_independence, BatchDiagnostic};
use nds_stats::batch_means::{BatchMeans, BatchMeansReport, PAPER_BATCHES, PAPER_BATCH_SIZE};
use nds_stats::parallel::parallel_map;
use nds_stats::student_t::check_confidence;
use nds_stats::summary::RunningStats;
use nds_stats::StatsError;

/// A batch-means experiment measuring mean job completion time.
#[derive(Debug, Clone)]
pub struct JobTimeExperiment {
    /// The per-task simulator (defines `T`, `P`, `O`, discipline).
    pub sim: DiscreteTaskSim,
    /// Number of workstations `W`.
    pub workstations: u32,
    /// Batches to run (paper: 20).
    pub batches: usize,
    /// Job samples per batch (paper: 1000).
    pub batch_size: usize,
    /// Confidence level for the interval (paper: 0.90).
    pub confidence: f64,
    /// Master seed for the runner's independent streams.
    pub seed: u64,
}

impl JobTimeExperiment {
    /// The paper's exact configuration: 20 batches × 1000 samples, 90%.
    pub fn paper_configuration(sim: DiscreteTaskSim, workstations: u32, seed: u64) -> Self {
        Self {
            sim,
            workstations,
            batches: PAPER_BATCHES,
            batch_size: PAPER_BATCH_SIZE,
            confidence: 0.90,
            seed,
        }
    }

    /// A smaller configuration for quick runs (tests, smoke checks).
    pub fn quick(sim: DiscreteTaskSim, workstations: u32, seed: u64) -> Self {
        Self {
            sim,
            workstations,
            batches: 10,
            batch_size: 100,
            confidence: 0.90,
            seed,
        }
    }

    /// Run the experiment and return the confidence interval on the mean
    /// job completion time.
    pub fn run(&self) -> Result<BatchMeansReport, ClusterError> {
        Ok(self.run_with_diagnostic()?.0)
    }

    /// Run the experiment and also return the batch-independence
    /// diagnostic (lag-1 autocorrelation of the batch means — the Law &
    /// Kelton check that the batch size is large enough for the
    /// interval to be trustworthy). Since each job sample here is an
    /// independent replication, the diagnostic should virtually always
    /// accept; it exists to guard future steady-state experiments.
    ///
    /// A configuration the report or the diagnostic rejects fails
    /// before any job is simulated: a zero `batch_size`, fewer than
    /// three `batches` or a `confidence` outside `(0, 1)`.
    pub fn run_with_diagnostic(&self) -> Result<(BatchMeansReport, BatchDiagnostic), ClusterError> {
        self.run_on(self.batches)
    }

    /// [`JobTimeExperiment::run_with_diagnostic`] on at most
    /// `max_threads` threads.
    fn run_on(
        &self,
        max_threads: usize,
    ) -> Result<(BatchMeansReport, BatchDiagnostic), ClusterError> {
        self.check()?;
        let runner = JobRunner::new(self.seed);
        let size = self.batch_size as u64;
        let batches: Vec<u64> = (0..self.batches as u64).collect();
        // Each mean is the one `BatchMeans::push` keeps for its batch.
        let means = parallel_map(&batches, max_threads, |&b| {
            let mut batch = RunningStats::new();
            for rep in b * size..(b + 1) * size {
                batch.push(runner.discrete_job_time(&self.sim, self.workstations, rep));
            }
            batch.mean()
        });
        let report = BatchMeansReport::from_means(&means, self.batch_size, self.confidence)?;
        let diagnostic = check_batch_independence(&means)?;
        Ok((report, diagnostic))
    }

    /// The first error the batch-size check, the report or the
    /// diagnostic would return, found without simulating.
    fn check(&self) -> Result<(), StatsError> {
        BatchMeans::new(self.batch_size)?;
        if self.batches < 2 {
            return Err(StatsError::InsufficientData {
                needed: 2,
                got: self.batches,
            });
        }
        check_confidence(self.confidence)?;
        // The diagnostic's lag-1 autocorrelation needs a third mean.
        if self.batches < 3 {
            return Err(StatsError::InsufficientData {
                needed: 3,
                got: self.batches,
            });
        }
        Ok(())
    }

    /// Run the experiment and compare against an analytical prediction
    /// (the model's `E_j` for the same parameters).
    pub fn validate_against(&self, analytic: f64) -> Result<ValidationOutcome, ClusterError> {
        let report = self.run()?;
        Ok(ValidationOutcome::new(report, analytic))
    }
}

/// Outcome of comparing simulation to analysis.
#[derive(Debug, Clone, Copy)]
pub struct ValidationOutcome {
    /// The simulation's confidence interval.
    pub report: BatchMeansReport,
    /// The analytical prediction being validated.
    pub analytic: f64,
    /// Whether the prediction falls inside the interval.
    pub within_interval: bool,
    /// `|simulated - analytic| / analytic`.
    pub relative_error: f64,
}

impl ValidationOutcome {
    /// Build from a report and a prediction.
    pub fn new(report: BatchMeansReport, analytic: f64) -> Self {
        Self {
            report,
            analytic,
            within_interval: report.contains(analytic),
            relative_error: if analytic != 0.0 {
                (report.mean - analytic).abs() / analytic.abs()
            } else {
                f64::INFINITY
            },
        }
    }

    /// The paper's acceptance statement: analysis within the interval,
    /// or in any case within 1% relatively (its CI precision criterion).
    pub fn agrees(&self) -> bool {
        self.within_interval || self.relative_error <= 0.01
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_validation_fig1_point() {
        // J = 1000, W = 10 => T = 100; U = 10%, O = 10.
        let p = 0.10 / (10.0 * 0.90);
        let sim = DiscreteTaskSim::paper(100, p, 10.0);
        let exp = JobTimeExperiment::quick(sim, 10, 42);
        // Analytic E_j from the model crate's formula, computed inline:
        // use nds-model in integration tests; here just sanity-bound.
        let report = exp.run().unwrap();
        assert!(report.mean > 100.0, "E_j must exceed T");
        assert!(report.mean < 100.0 + 100.0 * 10.0, "E_j below worst case");
        assert_eq!(report.batches, 10);
    }

    #[test]
    fn validation_outcome_logic() {
        let report = BatchMeansReport {
            mean: 100.0,
            half_width: 2.0,
            confidence: 0.9,
            batches: 20,
            batch_size: 1000,
        };
        let good = ValidationOutcome::new(report, 101.0);
        assert!(good.within_interval);
        assert!(good.agrees());
        let near = ValidationOutcome::new(report, 102.5);
        assert!(!near.within_interval);
        // 2.5/102.5 = 2.4% > 1%: disagrees.
        assert!(!near.agrees());
        let close = ValidationOutcome::new(report, 100.5);
        assert!(close.agrees());
    }

    #[test]
    fn reproducible_runs() {
        let sim = DiscreteTaskSim::paper(50, 0.01, 10.0);
        let a = JobTimeExperiment::quick(sim, 4, 7).run().unwrap();
        let b = JobTimeExperiment::quick(sim, 4, 7).run().unwrap();
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.half_width, b.half_width);
    }

    #[test]
    fn different_seeds_different_estimates() {
        let sim = DiscreteTaskSim::paper(50, 0.05, 10.0);
        let a = JobTimeExperiment::quick(sim, 4, 1).run().unwrap();
        let b = JobTimeExperiment::quick(sim, 4, 2).run().unwrap();
        assert_ne!(a.mean, b.mean);
    }

    #[test]
    fn diagnostic_accepts_independent_replications() {
        let sim = DiscreteTaskSim::paper(50, 0.05, 10.0);
        let (report, diag) = JobTimeExperiment::quick(sim, 4, 5)
            .run_with_diagnostic()
            .unwrap();
        assert!(report.mean > 50.0);
        assert!(
            diag.acceptable,
            "independent replications must pass: lag1 {} vs threshold {}",
            diag.lag1, diag.threshold
        );
    }

    /// The parent's sequential loop: every job into one `BatchMeans`.
    fn sequential_run(exp: &JobTimeExperiment) -> (BatchMeansReport, BatchDiagnostic) {
        let runner = JobRunner::new(exp.seed);
        let mut collector = BatchMeans::new(exp.batch_size).unwrap();
        for rep in 0..(exp.batches * exp.batch_size) as u64 {
            let job = runner.run_discrete_job(&exp.sim, exp.workstations, rep);
            collector.push(job.job_time());
        }
        let report = collector.report(exp.confidence).unwrap();
        let diagnostic = check_batch_independence(collector.batch_means()).unwrap();
        (report, diagnostic)
    }

    #[test]
    fn batches_on_threads_match_the_sequential_collector() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Above one thread, a batch count the thread count does not
        // divide: the fan-out's chunks differ in length.
        let batches = 2 * threads + 1;
        let p = 0.10 / (10.0 * 0.90);
        let sims = [
            DiscreteTaskSim::paper(100, p, 10.0),
            DiscreteTaskSim::paper(30, 0.2, 10.0).without_guarantee(),
        ];
        for sim in sims {
            let exp = JobTimeExperiment {
                batches,
                batch_size: 40,
                ..JobTimeExperiment::quick(sim, 10, 3)
            };
            let (want, want_diag) = sequential_run(&exp);
            for max_threads in [1, threads] {
                let (got, diag) = exp.run_on(max_threads).unwrap();
                let context = format!("{sim:?} on {max_threads} of {threads} threads");
                for (g, w) in [
                    (got.mean, want.mean),
                    (got.half_width, want.half_width),
                    (got.confidence, want.confidence),
                    (diag.lag1, want_diag.lag1),
                    (diag.threshold, want_diag.threshold),
                ] {
                    assert_eq!(g.to_bits(), w.to_bits(), "{context}");
                }
                assert_eq!((got.batches, got.batch_size), (batches, 40), "{context}");
                assert_eq!(diag.acceptable, want_diag.acceptable, "{context}");
            }
        }
    }

    #[test]
    fn a_rejected_configuration_returns_the_reports_error() {
        let sim = DiscreteTaskSim::paper(50, 0.05, 10.0);
        let exp = |batches, batch_size, confidence| JobTimeExperiment {
            batches,
            batch_size,
            confidence,
            ..JobTimeExperiment::quick(sim, 4, 1)
        };
        for c in [0.0, 1.0, -0.5, f64::NAN] {
            match exp(10, 10, c).run() {
                Err(ClusterError::Stats(StatsError::InvalidParameter {
                    name: "confidence",
                    ..
                })) => {}
                other => panic!("confidence {c}: {other:?}"),
            }
        }
        let insufficient =
            |needed, got| ClusterError::Stats(StatsError::InsufficientData { needed, got });
        assert_eq!(
            exp(10, 0, 0.9).run().unwrap_err(),
            ClusterError::Stats(StatsError::InvalidParameter {
                name: "batch_size",
                value: 0.0,
                constraint: "must be >= 1",
            })
        );
        assert_eq!(exp(0, 10, 0.9).run().unwrap_err(), insufficient(2, 0));
        assert_eq!(exp(1, 10, f64::NAN).run().unwrap_err(), insufficient(2, 1));
        assert_eq!(exp(2, 10, 0.9).run().unwrap_err(), insufficient(3, 2));
        assert!(exp(3, 10, 0.9).run().is_ok());
    }

    #[test]
    fn paper_configuration_fields() {
        let sim = DiscreteTaskSim::paper(10, 0.01, 10.0);
        let exp = JobTimeExperiment::paper_configuration(sim, 10, 0);
        assert_eq!(exp.batches, 20);
        assert_eq!(exp.batch_size, 1000);
        assert_eq!(exp.confidence, 0.90);
    }
}
