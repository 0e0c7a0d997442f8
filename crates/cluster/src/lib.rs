//! # nds-cluster — the non-dedicated workstation cluster simulator
//!
//! This crate simulates the system the paper studies: `W` homogeneous
//! workstations, each privately owned, executing one perfectly parallel
//! job whose tasks run at low priority beneath the owner's processes.
//!
//! Two families of simulators are provided:
//!
//! * [`discrete`] — an **exact replica of the analytical model**
//!   (discrete time, geometric owner requests, deterministic owner
//!   demand, ≥1 unit of guaranteed task progress). This is the
//!   counterpart of the paper's CSIM program, whose sole purpose was to
//!   validate the analysis; [`experiment`] reruns that validation with
//!   the paper's exact batch-means procedure.
//! * the continuous-time simulators, each an event loop over a private
//!   event enum on [`nds_des::Calendar`], with the CPU modelled by
//!   [`nds_des::Facility`]'s preemptive-priority discipline.
//!   [`continuous`] runs one task on one workstation under arbitrary
//!   think-time and service-demand distributions (exponential,
//!   hyperexponential, long-job mixtures...), which the paper lists as
//!   future work. It also backs the PVM validation experiments
//!   (Figures 10–11), where owner interference is continuous-time at
//!   ~3% utilization. [`multi`] shares each station among several
//!   jobs' tasks, and [`smp`] gives a station `k` CPUs
//!   ([`nds_des::MultiFacility`]) and several owner streams.
//!
//! Supporting modules: [`owner`] (owner workload generators), [`job`]
//! (multi-workstation job runs), [`probe`] (utilization measurement, the
//! stand-in for the paper's `uptime` calibration), [`experiment`]
//! (batch-means drivers), and [`config`] (scenario descriptions).

#![forbid(unsafe_code)]

pub mod config;
pub mod continuous;
pub mod discrete;
pub mod error;
pub mod experiment;
pub mod job;
pub mod multi;
pub mod owner;
pub mod probe;
pub mod smp;
pub mod task;

pub use config::ClusterConfig;
pub use continuous::ContinuousWorkstation;
pub use discrete::{DiscreteTaskSim, ProgressGuarantee};
pub use error::ClusterError;
pub use experiment::{JobTimeExperiment, ValidationOutcome};
pub use job::{JobResult, JobRunner};
pub use owner::OwnerWorkload;
pub use task::TaskOutcome;
