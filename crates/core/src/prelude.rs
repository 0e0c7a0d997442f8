//! Convenience re-exports for downstream users.
//!
//! ```
//! use nds_core::prelude::*;
//!
//! let inputs = ModelInputs::from_utilization(1000.0, 10, 10.0, 0.05).unwrap();
//! let metrics = evaluate(&inputs);
//! assert!(metrics.speedup > 1.0);
//! ```

pub use crate::analyzer::{Assessment, FeasibilityAnalyzer};
pub use crate::comparison::{ComparisonRow, ValidationSuite};
pub use crate::conclusions::{check_all_conclusions, ConclusionCheck};
pub use crate::error::CoreError;
pub use crate::report::Table;
pub use crate::scenario::Scenario;
pub use crate::sim::{
    closed, periodic, poisson, single_job, Flight, JobShape, OpenArrivals, Report as SimReport,
    Sim, SimError, Workload as SimWorkload,
};
pub use crate::sweep::parallel_map;

pub use nds_cluster::continuous::ContinuousWorkstation;
pub use nds_cluster::discrete::{DiscreteTaskSim, ProgressGuarantee};
pub use nds_cluster::experiment::JobTimeExperiment;
pub use nds_cluster::job::JobRunner;
pub use nds_cluster::owner::OwnerWorkload;
pub use nds_model::expectation::{expected_job_time, expected_task_time};
pub use nds_model::metrics::{evaluate, FeasibilityMetrics, Metrics};
pub use nds_model::params::{ModelInputs, OwnerParams, Workload};
pub use nds_pvm::harness::ValidationHarness;
pub use nds_sched::{
    EvictionPolicy, FailureModel, GangPolicy, GangStats, JobSpec, Lifetime, PlacementKind,
    QueueDiscipline,
};
pub use nds_stats::rng::Xoshiro256StarStar;

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_names_resolve() {
        use super::*;
        let _ = ModelInputs::from_utilization(100.0, 2, 10.0, 0.1).unwrap();
        let _ = Xoshiro256StarStar::new(1);
        let _ = Scenario::FixedSize1K;
    }
}
