//! # nds-des — a discrete-event simulation engine (CSIM replacement)
//!
//! The paper validates its analysis with a simulation written in CSIM
//! (Schwetman 1986), a proprietary C library. This crate is the
//! from-scratch Rust substrate that fills that role for the whole
//! workspace:
//!
//! * [`calendar::Calendar`] — the typed, zero-allocation event
//!   calendar and simulation clock: plain event values in a slab with
//!   generation-counted handles, no per-event boxing and no hash-set
//!   cancellation bookkeeping. Every engine in the workspace is a
//!   `while let Some((now, ev)) = cal.pop()` loop over its own closed
//!   event enum (`nds-sched`'s `SchedEvent`, and the private enums of
//!   `nds-cluster`'s continuous-time, multi-job and SMP simulators),
//! * [`facility::Facility`] — a CSIM-style service facility with
//!   **preemptive-priority** scheduling, the exact discipline the paper
//!   assumes ("when an owner process starts execution an executing
//!   parallel task is suspended and the owner process is immediately
//!   started"), and [`resource::MultiFacility`], its `k`-server
//!   generalization for multiprocessor workstations,
//! * [`monitor::Monitor`] — time-weighted and tally statistics collected
//!   during a run,
//! * [`registry::MetricsRegistry`] — named counters/gauges with
//!   periodic snapshotting, the exportable generalization of a bag of
//!   monitors,
//! * [`trace`] — the zero-cost [`trace::Tracer`] hook trait threaded
//!   through [`calendar::Calendar`] (disabled by default via the
//!   zero-sized [`trace::NoTrace`], which monomorphizes the hooks
//!   away).
//!
//! Unlike CSIM the engine is event-driven rather than process-oriented
//! (no coroutines), which keeps it deterministic, allocation-light, and
//! trivially reproducible from a seed. Determinism guarantee: two runs
//! with the same seed and same schedule order produce identical event
//! sequences — ties in time are broken by sequence number, which
//! follows insertion order within each of the calendar's three bands
//! (see [`calendar::Calendar::schedule_sorted`]).

#![forbid(unsafe_code)]

pub mod calendar;
pub mod error;
pub mod facility;
pub mod monitor;
pub mod registry;
pub mod resource;
pub mod time;
pub mod trace;

pub use calendar::{Calendar, EventHandle};
pub use error::DesError;
pub use facility::{Facility, Preempted, Request, RequestId, RequestOutcome};
pub use monitor::Monitor;
pub use registry::{MetricsRegistry, QuantileSketch, SeriesId, SeriesKind};
pub use resource::MultiFacility;
pub use time::SimTime;
pub use trace::{CalendarProbe, NoTrace, Tracer};
