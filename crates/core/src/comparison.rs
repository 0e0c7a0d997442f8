//! Analysis-vs-simulation agreement (the paper's §2.2 validation) and
//! measured-vs-analytic comparison rows (§4).

use crate::error::CoreError;
use nds_cluster::discrete::DiscreteTaskSim;
use nds_cluster::experiment::{JobTimeExperiment, ValidationOutcome};
use nds_cluster::ClusterError;
use nds_model::expectation::expected_job_time_int;
use nds_model::params::{OwnerParams, Workload};
use nds_stats::distributions::Geometric;

/// One comparison point: a configuration, its analytic prediction, and
/// the simulated measurement.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonRow {
    /// Workstations.
    pub workstations: u32,
    /// Integer task demand.
    pub task_demand: u64,
    /// Owner utilization.
    pub utilization: f64,
    /// The model's `E_j`.
    pub analytic: f64,
    /// The validation outcome (simulation CI vs analytic).
    pub outcome: ValidationOutcome,
}

/// Reruns the paper's validation: simulate points of Figure 1 with the
/// model-exact discrete simulator and check the analysis falls within
/// the batch-means confidence interval.
#[derive(Debug, Clone)]
pub struct ValidationSuite {
    /// Owner demand `O`.
    pub owner_demand: f64,
    /// Batches per run.
    pub batches: usize,
    /// Samples per batch.
    pub batch_size: usize,
    /// Master seed.
    pub seed: u64,
}

impl ValidationSuite {
    /// The paper's configuration (20 × 1000 at 90%): slow but faithful.
    pub fn paper(seed: u64) -> Self {
        Self {
            owner_demand: 10.0,
            batches: 20,
            batch_size: 1000,
            seed,
        }
    }

    /// A quick configuration for tests and smoke checks.
    pub fn quick(seed: u64) -> Self {
        Self {
            owner_demand: 10.0,
            batches: 10,
            batch_size: 100,
            seed,
        }
    }

    /// Validate one `(J, W, U)` point of Figure 1.
    ///
    /// `J` must be finite and positive, `W` at least 1, and `U` must
    /// give a request probability `P` the discrete simulator can sample
    /// (a valid [`Geometric`] parameter); otherwise this returns the
    /// model's or the sampler's error.
    pub fn validate_point(
        &self,
        job_demand: f64,
        workstations: u32,
        utilization: f64,
    ) -> Result<ComparisonRow, CoreError> {
        let t = Workload::new(job_demand, workstations)?
            .task_demand()
            .round()
            .max(1.0) as u64;
        let owner = OwnerParams::from_utilization(self.owner_demand, utilization)?;
        Geometric::new(owner.request_prob()).map_err(ClusterError::from)?;
        let analytic = expected_job_time_int(t, workstations, owner);
        let sim = DiscreteTaskSim::paper(t, owner.request_prob(), self.owner_demand);
        let experiment = JobTimeExperiment {
            sim,
            workstations,
            batches: self.batches,
            batch_size: self.batch_size,
            confidence: 0.90,
            seed: self.seed,
        };
        let outcome = experiment.validate_against(analytic)?;
        Ok(ComparisonRow {
            workstations,
            task_demand: t,
            utilization,
            analytic,
            outcome,
        })
    }

    /// Validate a whole sweep; returns one row per `(W, U)` pair.
    pub fn validate_sweep(
        &self,
        job_demand: f64,
        workstations: &[u32],
        utilizations: &[f64],
    ) -> Result<Vec<ComparisonRow>, CoreError> {
        let mut rows = Vec::with_capacity(workstations.len() * utilizations.len());
        for &u in utilizations {
            for &w in workstations {
                rows.push(self.validate_point(job_demand, w, u)?);
            }
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_point_agrees_with_model() {
        let suite = ValidationSuite::quick(42);
        let row = suite.validate_point(1000.0, 10, 0.10).unwrap();
        assert_eq!(row.task_demand, 100);
        // 1000 job samples: agreement should be comfortably within 2%.
        assert!(
            row.outcome.relative_error < 0.02,
            "rel err {} (analytic {}, simulated {})",
            row.outcome.relative_error,
            row.analytic,
            row.outcome.report.mean
        );
    }

    #[test]
    fn sweep_produces_grid() {
        let suite = ValidationSuite::quick(1);
        let rows = suite
            .validate_sweep(1000.0, &[5, 10], &[0.05, 0.10])
            .unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.analytic >= row.task_demand as f64);
        }
    }

    #[test]
    fn analytic_grows_with_utilization() {
        let suite = ValidationSuite::quick(3);
        let low = suite.validate_point(1000.0, 10, 0.01).unwrap();
        let high = suite.validate_point(1000.0, 10, 0.20).unwrap();
        assert!(high.analytic > low.analytic);
        assert!(high.outcome.report.mean > low.outcome.report.mean);
    }

    #[test]
    fn invalid_utilization_propagates() {
        let suite = ValidationSuite::quick(3);
        assert!(suite.validate_point(1000.0, 10, 1.5).is_err());
    }

    fn model_error(job_demand: f64, workstations: u32) -> &'static str {
        match ValidationSuite::quick(3).validate_point(job_demand, workstations, 0.1) {
            Err(CoreError::Model(nds_model::ModelError::InvalidParameter { name, .. })) => name,
            other => panic!("expected a model error, got {other:?}"),
        }
    }

    #[test]
    fn zero_workstations_is_an_error() {
        assert_eq!(model_error(1000.0, 0), "W (workstations)");
    }

    #[test]
    fn nan_job_demand_is_an_error() {
        assert_eq!(model_error(f64::NAN, 10), "J (job demand)");
    }

    #[test]
    fn zero_job_demand_is_an_error() {
        assert_eq!(model_error(0.0, 10), "J (job demand)");
    }

    #[test]
    fn negative_job_demand_is_an_error() {
        assert_eq!(model_error(-5.0, 10), "J (job demand)");
    }

    #[test]
    fn request_prob_the_sampler_cannot_draw_is_an_error() {
        // U = 1e-16 gives P ≈ 1e-17, where 1 - P rounds to 1.
        let row = ValidationSuite::quick(3).validate_point(1000.0, 10, 1e-16);
        assert!(
            matches!(
                row,
                Err(CoreError::Cluster(ClusterError::Stats(
                    nds_stats::StatsError::InvalidParameter { name: "p", .. }
                )))
            ),
            "{row:?}"
        );
    }
}
