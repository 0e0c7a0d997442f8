//! The fluent [`Sim`] builder: one entry point for every experiment.
//!
//! ```
//! use nds_core::sim::{poisson, JobShape, Sim};
//! use nds_cluster::owner::OwnerWorkload;
//! use nds_sched::{EvictionPolicy, PlacementKind};
//!
//! let owner = OwnerWorkload::continuous_exponential(10.0, 0.10).unwrap();
//! let report = Sim::pool(16)
//!     .owners(owner)
//!     .placement(PlacementKind::LeastLoaded)
//!     .eviction(EvictionPolicy::Checkpoint { interval: 30.0, overhead: 1.0 })
//!     .workload(poisson(0.01, JobShape::new(4, 60.0)).jobs(80).warmup(16))
//!     .run()
//!     .unwrap();
//! assert!(report.is_consistent());
//! let ss = report.steady_state.expect("open workloads report steady state");
//! assert!(ss.response.mean > 60.0, "response exceeds dedicated task time");
//! ```
//!
//! # Lowering
//!
//! The builder holds the engine's knobs as one [`SchedConfig`], so
//! their defaults ([`SchedConfig::default`]) and range checks
//! ([`SchedConfig::validate`]) are the engine's own; beside it sit the
//! builder's run options (replications, shards, steady-state interval,
//! heartbeat, flight recorder, streaming).
//!
//! `run()` lowers every description to the scheduler engine
//! ([`nds_sched`]) through [`Sim::lower`]: closed and open workloads,
//! every eviction/placement/gang policy, admission thresholds and
//! failure injection. The paper's degenerate configuration — a
//! homogeneous pool, one closed job with one task per station,
//! suspend-resume eviction — is no special case: the engine reproduces
//! [`nds_cluster::job::JobRunner`]'s job times bit-for-bit there (the
//! workspace's degenerate-equivalence invariant), and reports its pool
//! and queue gauges like any other run.

use crate::sim::error::SimError;
use crate::sim::report::{Report, ResponseStats, SteadyState};
use crate::sim::workload::Workload;
use crate::sweep::parallel_map;
use nds_cluster::owner::OwnerWorkload;
use nds_sched::{
    EvictionPolicy, FailureModel, FlightRecorder, GangPolicy, JobRecord, JobSpec, NoTrace,
    PlacementKind, ProgressMeter, QueueDiscipline, SchedConfig, SchedError, SchedMetrics,
    SchedTracer, Tee,
};
use nds_stats::batch_means::{PAPER_BATCHES, PAPER_CONFIDENCE};

/// Owner populations accepted by [`SimBuilder::owners`]: one workload
/// shared by the whole pool, or one per machine.
#[derive(Debug, Clone)]
pub enum OwnerSpec {
    /// Every machine shares this owner behaviour.
    Homogeneous(OwnerWorkload),
    /// One owner workload per machine (length must equal the pool
    /// size).
    PerMachine(Vec<OwnerWorkload>),
}

impl From<OwnerWorkload> for OwnerSpec {
    fn from(owner: OwnerWorkload) -> Self {
        Self::Homogeneous(owner)
    }
}

impl From<&OwnerWorkload> for OwnerSpec {
    fn from(owner: &OwnerWorkload) -> Self {
        Self::Homogeneous(owner.clone())
    }
}

impl From<Vec<OwnerWorkload>> for OwnerSpec {
    fn from(owners: Vec<OwnerWorkload>) -> Self {
        Self::PerMachine(owners)
    }
}

impl From<&[OwnerWorkload]> for OwnerSpec {
    fn from(owners: &[OwnerWorkload]) -> Self {
        Self::PerMachine(owners.to_vec())
    }
}

/// A validated, runnable experiment. Build one with [`Sim::pool`].
#[derive(Debug)]
pub struct Sim {
    /// The engine's knobs with one owner workload per machine and no
    /// jobs; [`Sim::lower`] adds a replication's jobs.
    config: SchedConfig,
    run: RunOptions,
    workload: Box<dyn Workload>,
}

/// The builder's own knobs, which the engine never reads: how many
/// replications run and on how many threads, how the steady-state
/// interval is formed, and how each run is streamed and observed.
#[derive(Debug)]
struct RunOptions {
    replications: u64,
    confidence: f64,
    batches: usize,
    shards: usize,
    metrics_every: f64,
    progress_every: Option<f64>,
    trace_cheap: bool,
    trace_capacity: usize,
    stream_chunk: usize,
}

/// One traced replication: the run's metrics plus its flight-recorder
/// exports. Produced by [`Sim::run_flight`].
#[derive(Debug)]
pub struct Flight {
    /// Which replication this trace observed.
    pub replication: u64,
    /// The run's aggregate metrics (identical to the untraced run's).
    pub metrics: SchedMetrics,
    /// Calendar events the engine executed.
    pub events: u64,
    /// The finished recorder: event log, metrics registry, profiler.
    pub recorder: FlightRecorder,
}

impl Flight {
    /// The structured event log as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        self.recorder.to_jsonl()
    }

    /// The event log as Chrome trace-event JSON (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        self.recorder.to_chrome_json()
    }

    /// The sim-time metrics series plus per-machine owner activity.
    pub fn metrics_json(&self) -> String {
        self.recorder.metrics_json()
    }

    /// The per-event-class host-time profile.
    pub fn profile_json(&self) -> String {
        self.recorder.profile_json()
    }
}

impl Sim {
    /// Start describing an experiment on a pool of `workstations`
    /// machines.
    pub fn pool(workstations: u32) -> SimBuilder {
        SimBuilder {
            workstations,
            owners: None,
            config: SchedConfig::default(),
            run: RunOptions {
                replications: 1,
                confidence: PAPER_CONFIDENCE,
                batches: PAPER_BATCHES,
                shards: 1,
                metrics_every: 100.0,
                progress_every: None,
                trace_cheap: false,
                trace_capacity: 0,
                stream_chunk: 0,
            },
            workload: None,
        }
    }

    /// Human-readable experiment description.
    pub fn label(&self) -> String {
        let cfg = &self.config;
        let gang = if cfg.gang.is_on() {
            format!(", gang {}", cfg.gang.label())
        } else {
            String::new()
        };
        let faults = match &cfg.failures {
            Some(model) => format!(", {}", model.label()),
            None => String::new(),
        };
        format!(
            "W={} pool, {} placement, {} eviction{gang}{faults}, {} queue, {}",
            cfg.owners.len(),
            cfg.placement.name(),
            cfg.eviction.label(),
            cfg.discipline.name(),
            self.workload.label()
        )
    }

    /// The configured workload.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// Lower this experiment to the scheduler engine's configuration
    /// for one replication — the escape hatch for callers that need the
    /// raw [`SchedConfig`] (the invariant tests compare it against the
    /// builder's own runs).
    pub fn lower(&self, replication: u64) -> Result<SchedConfig, SimError> {
        Ok(SchedConfig {
            jobs: self.workload.generate(self.config.seed, replication)?,
            replication,
            ..self.config.clone()
        })
    }

    /// Execute one replication on the scheduler engine under `tracer`,
    /// with the progress heartbeat teed in when
    /// [`SimBuilder::progress`] is set, and hand the tracer back. A
    /// materialized run executes the [`Sim::lower`]ed job list and
    /// returns its records in `metrics.jobs`. With
    /// [`SimBuilder::stream_chunk`] set, the workload's feed is pulled
    /// in `stream_chunk`-sized batches and each completed job's record
    /// goes to `on_job` instead, so peak memory is O(chunk + pool),
    /// independent of the job count.
    fn run_rep<T: SchedTracer>(
        &self,
        replication: u64,
        on_job: &mut dyn FnMut(usize, JobRecord),
        tracer: T,
    ) -> Result<(SchedMetrics, u64, T), SimError> {
        let cfg = if self.run.stream_chunk > 0 {
            SchedConfig {
                replication,
                ..self.config.clone()
            }
        } else {
            self.lower(replication)?
        };
        let Some(every) = self.run.progress_every else {
            return self.run_engine(&cfg, on_job, tracer);
        };
        // The meter is ENABLED, so the engine takes the traced path —
        // metrics stay bit-identical to the untraced run (pinned by
        // the trace invariants).
        let meter = self.meter(every, replication, &cfg.jobs);
        let (metrics, events, Tee(tracer, _)) =
            self.run_engine(&cfg, on_job, Tee(tracer, meter))?;
        Ok((metrics, events, tracer))
    }

    /// Run `cfg` under `tracer`: its job list, or the workload's feed
    /// when the run streams.
    fn run_engine<T: SchedTracer>(
        &self,
        cfg: &SchedConfig,
        on_job: &mut dyn FnMut(usize, JobRecord),
        mut tracer: T,
    ) -> Result<(SchedMetrics, u64, T), SimError> {
        let (metrics, events) = match self.run.stream_chunk {
            0 => cfg.run_traced(&mut tracer)?,
            chunk => {
                let mut feed = self.workload.feed(cfg.seed, cfg.replication)?;
                cfg.run_streamed_traced(feed.as_mut(), chunk, on_job, &mut tracer)?
            }
        };
        Ok((metrics, events, tracer))
    }

    /// A progress heartbeat for one replication, with the workload's
    /// last scheduled arrival as the sim-time horizon (a lower bound
    /// on the makespan — 100% means all jobs are in, drain follows).
    /// Streamed runs pass no jobs: their horizon is unknown up front,
    /// so their beats carry no percentage or ETA.
    fn meter(&self, every: f64, replication: u64, jobs: &[JobSpec]) -> ProgressMeter {
        let horizon = jobs.iter().map(|j| j.arrival).fold(0.0, f64::max);
        ProgressMeter::new(every)
            .with_label(format!("rep{replication}"))
            .with_horizon(horizon)
    }

    /// Execute every replication and assemble the unified report.
    ///
    /// With [`SimBuilder::shards`] above one, replications fan out
    /// across [`crate::sweep`]'s scoped threads — each replication is an
    /// independent experiment with its own seeded streams and the
    /// results are spliced back in replication order, so the report is
    /// byte-identical to the serial path (the engine itself stays
    /// single-threaded).
    pub fn run(&self) -> Result<Report, SimError> {
        let reps: Vec<u64> = (0..self.run.replications).collect();
        let warmup = self.workload.warmup_jobs();
        let results = parallel_map(
            &reps,
            self.run.shards,
            |&replication| -> Result<(SchedMetrics, Vec<f64>), SimError> {
                // A streamed run keeps no records: it collects the
                // post-warmup response times at the sink.
                let mut streamed = Vec::new();
                let mut sink = |job: usize, record: JobRecord| {
                    if job >= warmup {
                        streamed.push(record.response_time());
                    }
                };
                let (metrics, _events, _) = self.run_rep(replication, &mut sink, NoTrace)?;
                let responses = if self.run.stream_chunk > 0 {
                    streamed
                } else {
                    metrics
                        .jobs
                        .iter()
                        .skip(warmup)
                        .map(JobRecord::response_time)
                        .collect()
                };
                Ok((metrics, responses))
            },
        );
        let mut runs = Vec::with_capacity(reps.len());
        let mut per_rep: Vec<Vec<f64>> = Vec::with_capacity(reps.len());
        for result in results {
            let (metrics, responses) = result?;
            per_rep.push(responses);
            runs.push(metrics);
        }
        // Batch means are formed within each replication (no batch ever
        // straddles a replication boundary); `warmup` is dropped from
        // every replication independently.
        let steady_state = if self.workload.is_open() {
            Some(SteadyState::from_replications(
                &per_rep,
                self.run.batches,
                self.run.confidence,
                warmup,
            )?)
        } else {
            None
        };
        let responses: Vec<f64> = per_rep.into_iter().flatten().collect();
        Ok(Report {
            label: self.label(),
            workstations: self.config.owners.len() as u32,
            response: ResponseStats::from_responses(&responses),
            runs,
            steady_state,
        })
    }

    /// Run every replication under the flight recorder and return one
    /// [`Flight`] per replication, in replication order.
    ///
    /// The recorder only observes, so every replication's traced
    /// metrics match its untraced run bit-for-bit. With
    /// [`SimBuilder::stream_chunk`] set the traced
    /// run streams too, in bounded job memory: its exports are
    /// byte-identical to the materialized trace of the same jobs, and
    /// only `metrics.jobs` stays empty. Like [`Sim::run`], replications
    /// shard across scoped threads when [`SimBuilder::shards`] exceeds
    /// one; the recorder only ever observes simulation state, so the
    /// traces are byte-identical to the serial path's.
    pub fn run_flight(&self) -> Result<Vec<Flight>, SimError> {
        let reps: Vec<u64> = (0..self.run.replications).collect();
        let (machines, every) = (self.config.owners.len(), self.run.metrics_every);
        parallel_map(&reps, self.run.shards, |&replication| {
            let mut recorder = if self.run.trace_cheap {
                FlightRecorder::cheap(machines, every)
            } else {
                FlightRecorder::new(machines, every)
            };
            if self.run.trace_capacity > 0 {
                recorder = recorder.with_capacity(self.run.trace_capacity);
            }
            let (metrics, events, mut recorder) =
                self.run_rep(replication, &mut |_, _| {}, recorder)?;
            recorder.finish(metrics.makespan);
            Ok(Flight {
                replication,
                metrics,
                events,
                recorder,
            })
        })
        .into_iter()
        .collect()
    }
}

/// Accumulates an experiment description; `build()` validates it into
/// a [`Sim`]. Every setter is infallible — all errors surface as typed
/// [`SimError`]s at build time, never as panics.
#[derive(Debug)]
pub struct SimBuilder {
    workstations: u32,
    owners: Option<OwnerSpec>,
    /// Every engine knob but the owner table, which `build()` expands
    /// from `owners`.
    config: SchedConfig,
    run: RunOptions,
    workload: Option<Box<dyn Workload>>,
}

impl SimBuilder {
    /// Owner population: pass one [`OwnerWorkload`] for a homogeneous
    /// pool or a `Vec` with one workload per machine.
    #[must_use]
    pub fn owners(mut self, owners: impl Into<OwnerSpec>) -> Self {
        self.owners = Some(owners.into());
        self
    }

    /// Task placement policy (default: least-loaded).
    #[must_use]
    pub fn placement(mut self, placement: PlacementKind) -> Self {
        self.config.placement = placement;
        self
    }

    /// Owner-return policy (default: suspend-resume, the paper's
    /// model).
    #[must_use]
    pub fn eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.config.eviction = eviction;
        self
    }

    /// Gang scheduling / co-allocation policy (default: off —
    /// independent tasks). When on, jobs are admitted as gangs, run in
    /// lockstep (the paper's barrier-synchronized picture), and the
    /// gang policy supersedes [`SimBuilder::eviction`] on owner
    /// returns. `SuspendAll`/`MigrateAll` are all-or-nothing;
    /// [`GangPolicy::Partial`] admits once its `min_running` floor
    /// fits and keeps computing at a degraded rate while at least the
    /// floor holds owner-free machines — `min_running: 1` behaves like
    /// independent tasks sharing one clock, `min_running: tasks` is
    /// exactly `SuspendAll` (bit-for-bit, per the workspace property
    /// tests). Composes with both closed and open workloads.
    #[must_use]
    pub fn gang(mut self, gang: GangPolicy) -> Self {
        self.config.gang = gang;
        self
    }

    /// Machine failure injection (default: none). With a
    /// [`FailureModel`], every machine alternates between up intervals
    /// drawn from the model's MTBF lifetime and down intervals drawn
    /// from its MTTR lifetime, on RNG streams independent of the owner
    /// and placement streams — a run without a model is bit-identical
    /// to an engine that has never heard of failures. A crash kills the
    /// running guest regardless of [`SimBuilder::eviction`] (only
    /// checkpointed progress survives, rolled back to the last durable
    /// checkpoint), destroys any suspended-in-place guest's progress,
    /// routes gang members through the gang reclaim path, and removes
    /// the machine from the candidate pool until repair.
    #[must_use]
    pub fn failures(mut self, model: FailureModel) -> Self {
        self.config.failures = Some(model);
        self
    }

    /// Central-queue discipline (default: FCFS).
    #[must_use]
    pub fn discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.config.discipline = discipline;
        self
    }

    /// Maximum estimated owner utilization at which a machine is still
    /// offered to the scheduler (default 1.0 admits every idle
    /// machine).
    #[must_use]
    pub fn admission_threshold(mut self, threshold: f64) -> Self {
        self.config.admission_threshold = threshold;
        self
    }

    /// Averaging window of the per-machine utilization estimators.
    #[must_use]
    pub fn estimator_tau(mut self, tau: f64) -> Self {
        self.config.estimator_tau = tau;
        self
    }

    /// Pre-run probe horizon seeding the load estimators (0 disables).
    #[must_use]
    pub fn calibration(mut self, horizon: f64) -> Self {
        self.config.calibration_horizon = horizon;
        self
    }

    /// Master seed for every stream in the run.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Independent replications to run (default 1).
    #[must_use]
    pub fn replications(mut self, replications: u64) -> Self {
        self.run.replications = replications;
        self
    }

    /// Safety cap on executed engine events.
    #[must_use]
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.config.max_events = max_events;
        self
    }

    /// Confidence level of the steady-state interval (default: the
    /// paper's 90%).
    #[must_use]
    pub fn confidence(mut self, confidence: f64) -> Self {
        self.run.confidence = confidence;
        self
    }

    /// Batch count of the steady-state interval (default: the paper's
    /// 20).
    #[must_use]
    pub fn batches(mut self, batches: usize) -> Self {
        self.run.batches = batches;
        self
    }

    /// Shard replications across up to this many scoped threads
    /// (default 1 = serial). Sharding happens at the experiment level —
    /// each replication keeps its own seeded streams and the engine
    /// stays single-threaded — so the report is byte-identical to the
    /// serial path.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.run.shards = shards;
        self
    }

    /// Sim-time interval of the flight recorder's metrics snapshots
    /// (default 100.0). Only [`Sim::run_flight`] reads it — untraced
    /// runs sample nothing.
    #[must_use]
    pub fn metrics_every(mut self, every: f64) -> Self {
        self.run.metrics_every = every;
        self
    }

    /// Emit a live progress heartbeat on stderr every `every` host
    /// seconds: events handled, events/sec, the sim clock (with % of
    /// the arrival horizon and an ETA when the workload schedules
    /// arrivals), and which event classes moved. Simulation outputs are
    /// bit-identical with or without the heartbeat.
    #[must_use]
    pub fn progress(mut self, every: f64) -> Self {
        self.run.progress_every = Some(every);
        self
    }

    /// Trace at the bounded-cost tier: counters and quantile sketches
    /// stay exact, but [`Sim::run_flight`]'s recorder filters the
    /// per-segment record firehose to job/gang lifecycle, throttles
    /// state samples to the metrics grid, and turns the per-event host
    /// clock off (see `FlightRecorder::cheap`).
    #[must_use]
    pub fn trace_cheap(mut self, on: bool) -> Self {
        self.run.trace_cheap = on;
        self
    }

    /// Bound [`Sim::run_flight`]'s record buffer to a ring of the
    /// newest `capacity` admitted records (0 = unbounded, the
    /// default). Overwrites are counted, never silent.
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.run.trace_capacity = capacity;
        self
    }

    /// Stream the workload through the engine in chunks of `chunk`
    /// jobs instead of materializing every [`JobSpec`] up front
    /// (default 0 = materialized). The engine pulls the workload's
    /// [`Workload::feed`] lazily and retires each job's record the
    /// moment it completes, so peak memory is O(chunk + pool) — the
    /// path that makes million-job traces tractable. Results are
    /// byte-identical to the materialized run at any chunk size, gang
    /// policies and exact-time ties included (pinned by the workspace
    /// replay tests), with one caveat: streamed runs deliver per-job
    /// records through the internal sink, so `Report::runs[..].jobs`
    /// stays empty (response statistics and steady state are
    /// unaffected). It combines with [`SimBuilder::gang`], with
    /// [`SimBuilder::progress`] (beats then carry no horizon
    /// percentage, since the last arrival is not known up front) and
    /// with [`Sim::run_flight`], which streams as well.
    #[must_use]
    pub fn stream_chunk(mut self, chunk: usize) -> Self {
        self.run.stream_chunk = chunk;
        self
    }

    /// The workload to submit — see [`crate::sim::workload`] for the
    /// closed and open implementations.
    #[must_use]
    pub fn workload(mut self, workload: impl Workload + 'static) -> Self {
        self.workload = Some(Box::new(workload));
        self
    }

    /// Validate the description into a runnable [`Sim`]. The engine
    /// knobs are checked by [`SchedConfig::validate`]: a bad eviction,
    /// gang or failure parameter is a [`SimError::InvalidPolicy`],
    /// any other knob a [`SimError::InvalidPool`], each with the
    /// engine's field and reason.
    pub fn build(self) -> Result<Sim, SimError> {
        if self.workstations == 0 {
            return Err(SimError::InvalidPool {
                field: "workstations",
                reason: "pool needs at least one machine".into(),
            });
        }
        let owners = match self.owners {
            None => {
                return Err(SimError::InvalidPool {
                    field: "owners",
                    reason: "no owner workload configured: call .owners(...)".into(),
                })
            }
            Some(OwnerSpec::Homogeneous(owner)) => vec![owner; self.workstations as usize],
            Some(OwnerSpec::PerMachine(owners)) => {
                if owners.len() != self.workstations as usize {
                    return Err(SimError::InvalidPool {
                        field: "owners",
                        reason: format!(
                            "{} owner workloads for a pool of {}",
                            owners.len(),
                            self.workstations
                        ),
                    });
                }
                owners
            }
        };
        let workload = self.workload.ok_or(SimError::MissingWorkload)?;
        workload.validate()?;
        let config = SchedConfig {
            owners,
            ..self.config
        };
        config.validate().map_err(knob_error)?;
        let run = self.run;
        if run.shards == 0 {
            return Err(SimError::InvalidPool {
                field: "shards",
                reason: "need at least one shard".into(),
            });
        }
        if run.replications == 0 {
            return Err(SimError::InvalidPool {
                field: "replications",
                reason: "need at least one replication".into(),
            });
        }
        if !(run.metrics_every.is_finite() && run.metrics_every > 0.0) {
            return Err(SimError::InvalidPool {
                field: "metrics_every",
                reason: format!("{} not finite > 0", run.metrics_every),
            });
        }
        if let Some(every) = run.progress_every {
            if !(every.is_finite() && every > 0.0) {
                return Err(SimError::InvalidPool {
                    field: "progress",
                    reason: format!("{every} not finite > 0"),
                });
            }
        }
        if !(run.confidence > 0.0 && run.confidence < 1.0) {
            return Err(SimError::InvalidWorkload {
                field: "confidence",
                reason: format!("{} not in (0, 1)", run.confidence),
            });
        }
        if workload.is_open() && run.batches < 2 {
            return Err(SimError::InvalidWorkload {
                field: "batches",
                reason: format!(
                    "{} batches cannot form an interval (need >= 2)",
                    run.batches
                ),
            });
        }
        Ok(Sim {
            config,
            run,
            workload,
        })
    }

    /// Build and run in one call.
    pub fn run(self) -> Result<Report, SimError> {
        self.build()?.run()
    }
}

/// The knobs [`SchedConfig::validate`] range-checks by their own name;
/// its other rejections name an eviction, gang or failure parameter.
const POOL_KNOBS: [&str; 5] = [
    "owners",
    "admission_threshold",
    "estimator_tau",
    "calibration_horizon",
    "max_events",
];

/// A [`SchedConfig::validate`] rejection as the builder reports it.
fn knob_error(e: SchedError) -> SimError {
    match e {
        SchedError::InvalidConfig { field, reason } if POOL_KNOBS.contains(&field) => {
            SimError::InvalidPool { field, reason }
        }
        SchedError::InvalidConfig { field, reason } => SimError::InvalidPolicy { field, reason },
        e => e.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::workload::{closed, poisson, single_job, JobShape};

    fn owner(u: f64) -> OwnerWorkload {
        OwnerWorkload::continuous_exponential(10.0, u).unwrap()
    }

    #[test]
    fn degenerate_auto_matches_forced_sched_engine() {
        // The paper's degenerate configuration runs on the scheduler
        // engine like every other one: `run()` is its lowered config.
        let sim = Sim::pool(6)
            .owners(owner(0.10))
            .workload(single_job(6, 250.0))
            .seed(11)
            .build()
            .unwrap();
        let auto = sim.run().unwrap();
        let forced = sim.lower(0).unwrap().run().unwrap();
        assert_eq!(format!("{:?}", auto.runs[0]), format!("{forced:?}"));
        assert!(auto.runs[0].mean_available_machines > 0.0);
        assert!(auto.is_consistent());
    }

    #[test]
    fn open_workload_reports_steady_state() {
        let report = Sim::pool(8)
            .owners(owner(0.05))
            .workload(poisson(0.02, JobShape::new(2, 30.0)).jobs(120).warmup(20))
            .batches(10)
            .seed(3)
            .run()
            .unwrap();
        let ss = report.steady_state.expect("open => steady state");
        assert_eq!(report.response.jobs, 100);
        assert_eq!(ss.warmup_dropped, 20);
        assert_eq!(ss.response.batches, 10);
        assert!(ss.response.mean >= 30.0, "response >= dedicated demand");
        assert!(ss.response.contains(report.response.mean));
        assert!(report.is_consistent());
    }

    #[test]
    fn closed_workload_has_no_steady_state() {
        let report = Sim::pool(4)
            .owners(owner(0.05))
            .workload(closed(vec![JobSpec::at_zero(8, 40.0)]))
            .run()
            .unwrap();
        assert!(report.steady_state.is_none());
        assert_eq!(report.response.jobs, 1);
    }

    #[test]
    fn replications_pool_every_job() {
        let report = Sim::pool(4)
            .owners(owner(0.10))
            .workload(closed(vec![JobSpec::at_zero(4, 60.0)]))
            .replications(3)
            .run()
            .unwrap();
        assert_eq!(report.replications(), 3);
        assert_eq!(report.response.jobs, 3);
        assert_ne!(
            report.runs[0].makespan, report.runs[1].makespan,
            "replications must diverge"
        );
    }

    #[test]
    fn build_rejects_bad_pools() {
        let err = Sim::pool(0)
            .owners(owner(0.1))
            .workload(single_job(1, 10.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPool {
                field: "workstations",
                ..
            }
        ));
        let err = Sim::pool(4)
            .workload(single_job(4, 10.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPool {
                field: "owners",
                ..
            }
        ));
        let err = Sim::pool(4).owners(owner(0.1)).build().unwrap_err();
        assert!(matches!(err, SimError::MissingWorkload));
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .workload(single_job(4, 10.0))
            .progress(0.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPool {
                field: "progress",
                ..
            }
        ));
        let err = Sim::pool(4)
            .owners(vec![owner(0.1); 3])
            .workload(single_job(4, 10.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPool {
                field: "owners",
                ..
            }
        ));
    }

    #[test]
    fn build_rejects_bad_policies_and_knobs() {
        let base = || {
            Sim::pool(4)
                .owners(owner(0.1))
                .workload(single_job(4, 10.0))
        };
        let err = base()
            .eviction(EvictionPolicy::Checkpoint {
                interval: -5.0,
                overhead: 1.0,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPolicy { .. }));
        assert!(base().admission_threshold(0.0).build().is_err());
        assert!(base().admission_threshold(f64::NAN).build().is_err());
        assert!(base().estimator_tau(-1.0).build().is_err());
        assert!(base().calibration(f64::INFINITY).build().is_err());
        assert!(base().replications(0).build().is_err());
        assert!(base().max_events(0).build().is_err());
        assert!(base().confidence(1.5).build().is_err());
    }

    #[test]
    fn lower_exposes_the_sched_config() {
        let sim = Sim::pool(5)
            .owners(owner(0.1))
            .workload(single_job(5, 100.0))
            .seed(77)
            .build()
            .unwrap();
        let cfg = sim.lower(2).unwrap();
        assert_eq!(cfg.owners.len(), 5);
        assert_eq!(cfg.seed, 77);
        assert_eq!(cfg.replication, 2);
        assert_eq!(cfg.jobs, vec![JobSpec::at_zero(5, 100.0)]);
        cfg.validate().unwrap();
    }

    #[test]
    fn gang_knob_lowers_and_rejects_bad_parameters() {
        let sim = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::SuspendAll)
            .workload(single_job(4, 100.0))
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(sim.lower(0).unwrap().gang, GangPolicy::SuspendAll);
        assert!(sim.label().contains("gang suspend-all"));
        // Invalid gang parameters are typed errors.
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::MigrateAll { overhead: -3.0 })
            .workload(single_job(4, 100.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPolicy { .. }));
    }

    #[test]
    fn partial_gang_knob_lowers_and_validates() {
        let sim = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::Partial { min_running: 2 })
            .workload(single_job(4, 100.0))
            .build()
            .unwrap();
        assert_eq!(
            sim.lower(0).unwrap().gang,
            GangPolicy::Partial { min_running: 2 }
        );
        assert!(
            sim.label().contains("gang partial(min=2)"),
            "{}",
            sim.label()
        );
        // A partial floor wider than any job clamps per job, so jobs
        // wider than the pool are fine as long as the floor fits...
        let report = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::Partial { min_running: 2 })
            .workload(single_job(6, 40.0))
            .run()
            .unwrap();
        assert!(report.is_consistent());
        assert_eq!(report.runs[0].completed_tasks, 6);
        assert_eq!(report.runs[0].gang.floor_violations, 0);
        // ...but invalid floors are typed errors.
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::Partial { min_running: 0 })
            .workload(single_job(4, 100.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPolicy { .. }));
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::PartialFrac {
                min_running_frac: 1.5,
            })
            .workload(single_job(4, 100.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPolicy { .. }));
    }

    #[test]
    fn gang_runs_conserve_work_and_report_gang_metrics() {
        let report = Sim::pool(6)
            .owners(owner(0.15))
            .gang(GangPolicy::SuspendAll)
            .workload(closed(vec![
                JobSpec::at_zero(4, 60.0),
                JobSpec::at_zero(4, 60.0),
            ]))
            .seed(9)
            .run()
            .unwrap();
        assert!(report.is_consistent());
        let m = &report.runs[0];
        assert_eq!(m.gang.lockstep_violations, 0);
        assert!(m.gang.gang_starts >= 2);
        assert!(
            report.mean_coalloc_wait() > 0.0,
            "two 4-wide gangs on 6 machines must queue"
        );
    }

    #[test]
    fn failures_knob_lowers_validates_and_reports_crashes() {
        use nds_sched::FailureModel;
        let model = FailureModel::exponential(150.0, 20.0).unwrap();
        let sim = Sim::pool(4)
            .owners(owner(0.1))
            .failures(model)
            .workload(single_job(4, 100.0))
            .build()
            .unwrap();
        assert_eq!(sim.lower(0).unwrap().failures, Some(model));
        assert!(sim.label().contains("mtbf"), "{}", sim.label());
        // The run reports the crash-side metrics.
        let report = Sim::pool(4)
            .owners(owner(0.1))
            .failures(FailureModel::exponential(40.0, 5.0).unwrap())
            .workload(single_job(4, 100.0))
            .seed(31)
            .run()
            .unwrap();
        assert!(report.is_consistent());
        assert!(report.runs[0].crashes > 0, "mtbf 40 over a >100s run");
        assert!(report.runs[0].downtime > 0.0);
    }

    #[test]
    fn no_failure_model_is_bit_identical_to_the_pre_failure_engine() {
        // `.failures(...)` absent must leave every sample path exactly
        // where it was: the builder lowers `failures: None` and the
        // engine draws nothing from the failure streams.
        let build = |with_rare_failures: bool| {
            let mut b = Sim::pool(5)
                .owners(owner(0.12))
                .eviction(EvictionPolicy::Restart)
                .workload(closed(vec![JobSpec::at_zero(7, 45.0)]))
                .seed(17);
            if with_rare_failures {
                // So rare the horizon never reaches the first crash.
                b = b.failures(nds_sched::FailureModel::exponential(1e12, 1.0).unwrap());
            }
            b.run().unwrap()
        };
        let plain = build(false);
        let rare = build(true);
        assert_eq!(plain.runs[0].makespan, rare.runs[0].makespan);
        assert_eq!(plain.runs[0].delivered, rare.runs[0].delivered);
        assert_eq!(plain.runs[0].evictions, rare.runs[0].evictions);
        assert_eq!(rare.runs[0].crashes, 0);
    }

    #[test]
    fn failure_models_validate_at_the_constructors() {
        use nds_sched::{FailureModel, Lifetime};
        // Bad parameters never reach build(): the stats constructors
        // are the only way to make a Lifetime, and they reject up
        // front. build() re-validates anyway (defense in depth for the
        // non_exhaustive enum) and accepts every constructible model.
        assert!(FailureModel::exponential(0.0, 5.0).is_err());
        assert!(Lifetime::exponential(f64::NAN).is_err());
        let ok = Sim::pool(2)
            .owners(owner(0.1))
            .failures(FailureModel::exponential(100.0, 10.0).unwrap())
            .workload(single_job(2, 10.0))
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn sharded_replications_are_byte_identical_to_serial() {
        let build = |shards| {
            Sim::pool(6)
                .owners(owner(0.12))
                .eviction(EvictionPolicy::Migrate { overhead: 2.0 })
                .workload(closed(vec![
                    JobSpec::at_zero(8, 70.0),
                    JobSpec::at_zero(4, 35.0),
                ]))
                .seed(13)
                .replications(6)
                .shards(shards)
                .run()
                .unwrap()
        };
        assert_eq!(build(1), build(4), "sharding must not change the report");
        assert!(Sim::pool(4)
            .owners(owner(0.1))
            .workload(single_job(4, 10.0))
            .shards(0)
            .build()
            .is_err());
    }

    #[test]
    fn streamed_runs_match_materialized_reports() {
        let build = |chunk: usize, progress: bool| {
            let mut b = Sim::pool(8)
                .owners(owner(0.08))
                .workload(poisson(0.02, JobShape::new(2, 30.0)).jobs(120).warmup(20))
                .batches(10)
                .seed(77)
                .replications(2);
            if chunk > 0 {
                b = b.stream_chunk(chunk);
            }
            if progress {
                // An hour-long beat period: the heartbeat never prints.
                b = b.progress(3600.0);
            }
            b.run().unwrap()
        };
        // `Debug` round-trips every float, so equal strings are
        // byte-identical reports.
        let bytes = |report: &Report| format!("{report:?}");
        let materialized = build(0, false);
        assert_eq!(
            bytes(&materialized),
            bytes(&build(0, true)),
            "the heartbeat only observes"
        );
        for chunk in [1, 7, 1000] {
            let streamed = build(chunk, false);
            assert_eq!(
                bytes(&streamed),
                bytes(&build(chunk, true)),
                "chunk {chunk} with heartbeat"
            );
            assert_eq!(materialized.response, streamed.response, "chunk {chunk}");
            assert_eq!(materialized.steady_state, streamed.steady_state);
            for (m, s) in materialized.runs.iter().zip(&streamed.runs) {
                assert_eq!(m.makespan, s.makespan);
                assert_eq!(m.evictions, s.evictions);
                assert_eq!(m.delivered, s.delivered);
                assert!(
                    s.jobs.is_empty(),
                    "streamed runs deliver records through the sink only"
                );
            }
        }
    }

    #[test]
    fn trace_workloads_stream_shard_and_replay_identically() {
        let gen = crate::sim::SyntheticTrace::datacenter(12, 400).warmup(40);
        let owners = gen.owners(21, 0).unwrap();
        let build = |shards: usize| {
            Sim::pool(gen.machines())
                .owners(owners.clone())
                .workload(gen)
                .stream_chunk(64)
                .seed(21)
                .replications(4)
                .shards(shards)
                .run()
                .unwrap()
        };
        let serial = build(1);
        assert_eq!(serial, build(4), "sharding must not change the report");
        assert_eq!(serial, build(1), "replay must be byte-identical");
        assert!(serial.steady_state.is_some(), "traces are open workloads");
        assert!(serial.is_consistent());
    }

    #[test]
    fn stream_chunk_combines_with_gangs() {
        let build = |chunk: usize| {
            let mut b = Sim::pool(4)
                .owners(owner(0.1))
                .gang(GangPolicy::SuspendAll)
                .workload(poisson(0.05, JobShape::new(2, 20.0)).jobs(40).warmup(4))
                .batches(4)
                .seed(8)
                .replications(2);
            if chunk > 0 {
                b = b.stream_chunk(chunk);
            }
            b.run().unwrap()
        };
        let materialized = build(0);
        assert!(materialized.is_consistent());
        let streamed = build(8);
        assert!(streamed.is_consistent());
        assert_eq!(materialized.response, streamed.response);
        assert_eq!(materialized.steady_state, streamed.steady_state);
        for (m, s) in materialized.runs.iter().zip(&streamed.runs) {
            assert_eq!(m.makespan, s.makespan);
            assert!(s.jobs.is_empty(), "records leave through the sink");
        }
    }

    #[test]
    fn heterogeneous_pools_run_on_the_sched_engine() {
        let owners: Vec<OwnerWorkload> = (0..4)
            .map(|i| owner(if i < 2 { 0.02 } else { 0.30 }))
            .collect();
        let report = Sim::pool(4)
            .owners(owners)
            .workload(single_job(4, 80.0))
            .run()
            .unwrap();
        // The engine gauges the pool for every configuration.
        assert!(report.runs[0].mean_available_machines > 0.0);
        assert!(report.is_consistent());
    }

    #[test]
    fn the_builder_defaults_are_sched_configs() {
        let jobs = vec![JobSpec::at_zero(3, 40.0), JobSpec::at_zero(5, 25.0)];
        for (w, seed) in [(1, 0), (5, 77), (16, 0x5EED)] {
            let lowered = Sim::pool(w)
                .owners(owner(0.1))
                .workload(closed(jobs.clone()))
                .seed(seed)
                .build()
                .unwrap()
                .lower(0)
                .unwrap();
            let engine = SchedConfig {
                seed,
                ..SchedConfig::homogeneous(w, &owner(0.1), jobs.clone())
            };
            assert_eq!(format!("{lowered:?}"), format!("{engine:?}"), "W={w}");
        }
    }

    #[test]
    fn the_default_sched_config_lacks_only_owners() {
        let Err(SchedError::InvalidConfig { field, .. }) = SchedConfig::default().validate() else {
            panic!("a config without machines must be rejected");
        };
        assert_eq!(field, "owners");
        let one_machine = SchedConfig {
            owners: vec![owner(0.1)],
            ..SchedConfig::default()
        };
        assert_eq!(one_machine.validate(), Ok(()));
    }

    #[test]
    fn pool_knob_errors_are_the_engines() {
        let base = || {
            Sim::pool(4)
                .owners(owner(0.1))
                .workload(single_job(4, 10.0))
        };
        let engine = |spoil: fn(&mut SchedConfig)| {
            let mut cfg = SchedConfig::homogeneous(4, &owner(0.1), Vec::new());
            spoil(&mut cfg);
            cfg.validate().unwrap_err()
        };
        for (knob, built, rejected) in [
            (
                "admission_threshold",
                base().admission_threshold(0.0).build(),
                engine(|c| c.admission_threshold = 0.0),
            ),
            (
                "admission_threshold",
                base().admission_threshold(f64::NAN).build(),
                engine(|c| c.admission_threshold = f64::NAN),
            ),
            (
                "estimator_tau",
                base().estimator_tau(-1.0).build(),
                engine(|c| c.estimator_tau = -1.0),
            ),
            (
                "calibration_horizon",
                base().calibration(f64::INFINITY).build(),
                engine(|c| c.calibration_horizon = f64::INFINITY),
            ),
            (
                "max_events",
                base().max_events(0).build(),
                engine(|c| c.max_events = 0),
            ),
        ] {
            let SchedError::InvalidConfig { field, reason } = rejected else {
                panic!("{knob}: not a config error: {rejected}");
            };
            assert_eq!(field, knob);
            assert_eq!(built.unwrap_err(), SimError::InvalidPool { field, reason });
        }
    }
}
