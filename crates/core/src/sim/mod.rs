//! # The unified experiment API
//!
//! One fluent builder for every experiment in the workspace. It wraps
//! the scheduler engine's [`SchedConfig`](nds_sched::SchedConfig), so
//! its defaults and range checks are the engine's own, and stands in
//! for the per-shape `ClusterConfig` and the hard-coded `Scenario`
//! parameters with three composable pieces:
//!
//! * a [`Workload`] trait — **closed** job sets ([`closed`],
//!   [`single_job`]: today's model) and **open** arrival streams
//!   ([`poisson`], [`periodic`]: the paper's §5 "more complex
//!   workloads");
//! * the [`Sim`] builder — pool size, owner populations, placement /
//!   eviction / gang-scheduling / queue policies, seeds and
//!   replications (optionally sharded across scoped threads), lowered
//!   to the scheduler engine;
//! * a unified [`Report`] — engine metrics per replication plus
//!   per-job response-time statistics, with the paper's batch-means
//!   steady-state procedure for open systems.
//!
//! ```
//! use nds_core::sim::{poisson, JobShape, Sim};
//! use nds_cluster::owner::OwnerWorkload;
//!
//! let owner = OwnerWorkload::continuous_exponential(10.0, 0.05).unwrap();
//! let report = Sim::pool(8)
//!     .owners(owner)
//!     .workload(poisson(0.01, JobShape::new(2, 40.0)).jobs(60).warmup(10))
//!     .batches(5)
//!     .run()
//!     .unwrap();
//! let ss = report.steady_state.unwrap();
//! println!(
//!     "steady-state response: {:.1} ± {:.1}",
//!     ss.response.mean, ss.response.half_width
//! );
//! ```

pub mod builder;
pub mod error;
mod read_ahead;
pub mod report;
pub mod trace;
pub mod workload;

pub use builder::{Flight, OwnerSpec, Sim, SimBuilder};
pub use error::SimError;
pub use report::{Report, ResponseStats, SteadyState};
pub use trace::{SyntheticTrace, TraceWorkload};
pub use workload::{
    closed, periodic, poisson, single_job, ArrivalProcess, ClosedJobs, JobShape, OpenArrivals,
    PeriodicArrivals, PoissonArrivals, Workload,
};
