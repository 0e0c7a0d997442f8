//! # nds-core — the feasibility toolkit
//!
//! The paper's question is practical: *given a pool of non-dedicated
//! workstations, is cycle-stealing parallel computing worth it?* This
//! crate is the user-facing answer machine, tying together the
//! analytical model (`nds-model`), the simulators (`nds-cluster`), and
//! the PVM validation stack (`nds-pvm`):
//!
//! * [`analyzer::FeasibilityAnalyzer`] — one-stop API: metrics, verdict,
//!   required task ratio, maximum useful pool size, job-time quantiles.
//! * [`comparison`] — analysis-vs-simulation agreement checks (the
//!   paper's §2.2 validation) and measured-vs-analytic tables (§4).
//! * [`scenario`] — the named experiments of the paper (Figures 1–11)
//!   with their exact parameters, so benches, examples, and tests all
//!   agree on what "Figure 7" means.
//! * [`conclusions`] — the paper's quantitative §5 claims, encoded and
//!   checkable against the model.
//! * [`report`] — plain-text table rendering for figure regeneration.
//! * [`sim`] — the unified experiment builder: trait-based workloads
//!   (closed job sets and open Poisson streams) behind one fluent
//!   [`sim::Sim`] API, lowered to the cluster or scheduler engines.
//! * [`sweep`] — parallel parameter-sweep helpers (scoped threads),
//!   re-exported from `nds_stats::parallel`.
//!
//! ## Quickstart
//!
//! ```
//! use nds_core::analyzer::FeasibilityAnalyzer;
//!
//! // 60 workstations at 10% owner utilization, owner bursts of 10 s;
//! // a job that needs 2 dedicated hours (7200 s).
//! let analyzer = FeasibilityAnalyzer::builder()
//!     .workstations(60)
//!     .owner_demand(10.0)
//!     .owner_utilization(0.10)
//!     .job_demand(7200.0)
//!     .build()
//!     .unwrap();
//! let verdict = analyzer.assess().unwrap();
//! assert!(verdict.feasible, "task ratio {} is ample", verdict.metrics.task_ratio);
//! ```

#![forbid(unsafe_code)]

pub mod analyzer;
pub mod comparison;
pub mod conclusions;
pub mod error;
pub mod prelude;
pub mod report;
pub mod scenario;
pub mod sim;
pub mod sweep;

pub use analyzer::{Assessment, FeasibilityAnalyzer};
pub use comparison::{ComparisonRow, ValidationSuite};
pub use conclusions::{check_all_conclusions, ConclusionCheck};
pub use error::CoreError;
pub use report::Table;
pub use scenario::Scenario;
pub use sim::{Sim, SimError};
