//! Error type for [`Sim`](crate::sim::Sim) construction and execution.

use nds_cluster::error::ClusterError;
use nds_sched::SchedError;
use nds_stats::error::StatsError;
use std::fmt;

/// Why a [`Sim`](crate::sim::Sim) could not be built or run.
///
/// Every invalid builder input maps to a typed variant — the builder
/// never panics on bad parameters (the workspace's property tests
/// enforce this).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A pool-level field (workstations, owners, admission threshold,
    /// estimator horizon, ...) was out of range.
    InvalidPool {
        /// Which field was rejected.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// A workload parameter (arrival rate, job shape, warm-up split,
    /// ...) was out of range.
    InvalidWorkload {
        /// Which field was rejected.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// A policy parameter (eviction overheads, checkpoint interval)
    /// was out of range.
    InvalidPolicy {
        /// Which field was rejected.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The builder was run without a workload.
    MissingWorkload,
    /// The scheduler engine rejected or aborted the lowered run.
    Sched(SchedError),
    /// The cluster substrate rejected the lowered run.
    Cluster(ClusterError),
    /// Steady-state statistics could not be formed (e.g. too few jobs
    /// survive warm-up deletion for the requested batch count).
    Stats(StatsError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidPool { field, reason } => {
                write!(f, "invalid pool configuration: {field}: {reason}")
            }
            Self::InvalidWorkload { field, reason } => {
                write!(f, "invalid workload: {field}: {reason}")
            }
            Self::InvalidPolicy { field, reason } => {
                write!(f, "invalid policy: {field}: {reason}")
            }
            Self::MissingWorkload => {
                write!(
                    f,
                    "no workload configured: call .workload(...) before .run()"
                )
            }
            Self::Sched(e) => write!(f, "scheduler engine: {e}"),
            Self::Cluster(e) => write!(f, "cluster substrate: {e}"),
            Self::Stats(e) => write!(f, "steady-state statistics: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Sched(e) => Some(e),
            Self::Cluster(e) => Some(e),
            Self::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedError> for SimError {
    fn from(e: SchedError) -> Self {
        // Config errors surface as typed policy/pool errors where the
        // builder could not catch them first; execution errors pass
        // through.
        Self::Sched(e)
    }
}

impl From<ClusterError> for SimError {
    fn from(e: ClusterError) -> Self {
        Self::Cluster(e)
    }
}

impl From<StatsError> for SimError {
    fn from(e: StatsError) -> Self {
        Self::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = SimError::InvalidWorkload {
            field: "rate",
            reason: "NaN not finite > 0".into(),
        };
        assert!(e.to_string().contains("rate"));
        assert!(SimError::MissingWorkload.to_string().contains("workload"));
    }

    #[test]
    fn wrapped_errors_have_sources() {
        use std::error::Error;
        let e = SimError::Sched(SchedError::EventCapExceeded {
            max_events: 10,
            jobs_unfinished: 1,
        });
        assert!(e.source().is_some());
        let e = SimError::MissingWorkload;
        assert!(e.source().is_none());
    }
}
