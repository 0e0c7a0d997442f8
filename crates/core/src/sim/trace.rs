//! Trace-driven datacenter workloads.
//!
//! The paper's workload is one statically sliced job; its §5 future
//! work asks for "more complex workloads". This module closes the loop
//! with real-trace replay and a deterministic synthetic generator:
//!
//! * [`TraceWorkload`] — a [`Workload`] ingesting job traces from CSV
//!   or JSONL (`arrival, tasks, task_demand[, owner_class]`), with
//!   strict validation: arrivals must be non-decreasing (ties keep
//!   input order — submission order is the tie-break, deterministically),
//!   every field finite and positive, and every violation a typed
//!   [`SimError`] naming the offending line — never a panic.
//! * [`SyntheticTrace`] — a deterministic generator in the shape of
//!   published datacenter traces: job arrivals follow a
//!   sinusoid-modulated (diurnal) Poisson process sampled by thinning,
//!   per-task demands are heavy-tailed bounded-Pareto draws, and the
//!   machine population splits into *hot* (interactive, high owner
//!   utilization) and *cool* (mostly idle) owner populations. The whole
//!   day is a pure function of a `(seed, replication)` pair.
//!
//! Both implement [`Workload::feed`], so a million-job day streams
//! through [`SchedConfig::run_streamed`](nds_sched::SchedConfig) in
//! bounded memory: the synthetic sampler draws jobs lazily, and the
//! trace replays its rows chunk by chunk.
//!
//! The synthetic feed reads ahead. Its first pull draws the first
//! batch of 8,192 jobs on the calling thread and, only if that batch
//! filled, moves the sampler onto one worker thread, which draws the
//! next batches into recycled buffers and stays at most one batch
//! ahead of the engine, so the event loop stops waiting on the
//! sampler. The engine gets the same specs in the same chunks as from
//! the sampler itself, every draw unchanged, and its event loop stays
//! on the calling thread. Building a feed spawns nothing, and a day
//! shorter than 8,192 jobs never starts a thread: a streamed synthetic
//! run uses two threads only past its first 8,192 jobs. Dropping the feed
//! joins the worker; a worker panic is re-raised by the pull that
//! finds it, never read as the end of the day. The trace's feed (a
//! slice copy) stays synchronous.
//!
//! File format (CSV; `#` comments and blank lines are skipped, the
//! header row is optional):
//!
//! ```text
//! arrival,tasks,task_demand,owner_class
//! 0.0,4,120.5,batch
//! 3.25,1,30.0,interactive
//! ```
//!
//! JSONL carries one flat object per line with the same keys:
//! `{"arrival": 3.25, "tasks": 1, "task_demand": 30.0}`.

use crate::sim::error::SimError;
use crate::sim::read_ahead::ReadAhead;
use crate::sim::workload::Workload;
use nds_cluster::owner::OwnerWorkload;
use nds_sched::feed::JobFeed;
use nds_sched::{JobSpec, SchedError};
use nds_stats::distributions::{BoundedPareto, Distribution};
use nds_stats::rng::{StreamFactory, Xoshiro256StarStar};
use std::f64::consts::TAU;
use std::path::Path;

/// Stream label for the synthetic trace's job sampler.
const TRACE_STREAM: &str = "sim-trace";
/// Stream label for the synthetic trace's hot/cool owner assignment.
const OWNER_STREAM: &str = "trace-owners";

fn bad_trace(reason: String) -> SimError {
    SimError::InvalidWorkload {
        field: "trace",
        reason,
    }
}

/// A job trace loaded from disk (or built in memory): an explicit,
/// time-sorted job list replayed identically on every replication.
///
/// Ingested from CSV ([`TraceWorkload::from_csv_str`]) or JSONL
/// ([`TraceWorkload::from_jsonl_str`]), or sniffed by extension from a
/// path ([`TraceWorkload::from_path`]). Serializes back via
/// [`TraceWorkload::to_csv_string`] / [`TraceWorkload::to_jsonl_string`];
/// floats round-trip exactly (Rust's shortest-repr formatting), which
/// the workspace's round-trip tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceWorkload {
    jobs: Vec<JobSpec>,
    /// Per-job owner class, parallel to `jobs`; `None` when the trace
    /// carries no class column. Classes label rows for reports and
    /// round-trip fidelity — the engine ignores them.
    classes: Option<Vec<String>>,
    /// `None` = the 10% default.
    warmup: Option<usize>,
}

impl TraceWorkload {
    /// Wrap an explicit, already-sorted job list (no class column).
    pub fn new(jobs: Vec<JobSpec>) -> Result<Self, SimError> {
        let trace = Self {
            jobs,
            classes: None,
            warmup: None,
        };
        trace.check()?;
        Ok(trace)
    }

    /// Wrap a job list with one owner class per job.
    pub fn with_classes(jobs: Vec<JobSpec>, classes: Vec<String>) -> Result<Self, SimError> {
        if classes.len() != jobs.len() {
            return Err(bad_trace(format!(
                "{} owner classes for {} jobs",
                classes.len(),
                jobs.len()
            )));
        }
        let trace = Self {
            jobs,
            classes: Some(classes),
            warmup: None,
        };
        trace.check()?;
        Ok(trace)
    }

    /// Parse the CSV trace format: `arrival,tasks,task_demand` with an
    /// optional fourth `owner_class` column, an optional header row,
    /// `#` comments, and blank lines. Every malformed row is a typed
    /// error naming its 1-based line number.
    pub fn from_csv_str(text: &str) -> Result<Self, SimError> {
        let mut jobs = Vec::new();
        let mut classes: Option<Vec<String>> = None;
        let mut arity: Option<usize> = None;
        for (idx, raw) in text.lines().enumerate() {
            let row = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if jobs.is_empty() && arity.is_none() && fields[0].eq_ignore_ascii_case("arrival") {
                match fields.as_slice() {
                    ["arrival", "tasks", "task_demand"] => arity = Some(3),
                    ["arrival", "tasks", "task_demand", "owner_class"] => {
                        arity = Some(4);
                        classes = Some(Vec::new());
                    }
                    _ => {
                        return Err(bad_trace(format!(
                            "line {row}: header must be \
                             'arrival,tasks,task_demand[,owner_class]', got '{line}'"
                        )))
                    }
                }
                continue;
            }
            let want = *arity.get_or_insert_with(|| {
                if fields.len() == 4 {
                    classes = Some(Vec::new());
                }
                fields.len()
            });
            if fields.len() != want || !(3..=4).contains(&want) {
                return Err(bad_trace(format!(
                    "line {row}: expected {want} comma-separated fields, got {}",
                    fields.len()
                )));
            }
            let arrival: f64 = fields[0]
                .parse()
                .map_err(|_| bad_trace(format!("line {row}: arrival '{}'", fields[0])))?;
            let tasks: u32 = fields[1]
                .parse()
                .map_err(|_| bad_trace(format!("line {row}: tasks '{}'", fields[1])))?;
            let task_demand: f64 = fields[2]
                .parse()
                .map_err(|_| bad_trace(format!("line {row}: task_demand '{}'", fields[2])))?;
            let spec = JobSpec {
                tasks,
                task_demand,
                arrival,
            };
            check_row(row, &spec, jobs.last())?;
            if let Some(classes) = &mut classes {
                let class = fields[3];
                check_class(row, class)?;
                classes.push(class.to_string());
            }
            jobs.push(spec);
        }
        let trace = Self {
            jobs,
            classes,
            warmup: None,
        };
        trace.check()?;
        Ok(trace)
    }

    /// Parse the JSONL trace format: one flat object per line with
    /// keys `arrival`, `tasks`, `task_demand`, and optionally
    /// `owner_class`. Blank lines and `#` comments are skipped; any
    /// unknown key, non-flat value, or malformed row is a typed error
    /// naming its line.
    pub fn from_jsonl_str(text: &str) -> Result<Self, SimError> {
        let mut jobs = Vec::new();
        let mut classes: Option<Vec<String>> = None;
        for (idx, raw) in text.lines().enumerate() {
            let row = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let pairs = parse_flat_json(row, line)?;
            let (mut arrival, mut tasks, mut task_demand, mut class) = (None, None, None, None);
            for (key, value) in pairs {
                match (key.as_str(), value) {
                    ("arrival", JsonValue::Number(x)) => arrival = Some(x),
                    ("task_demand", JsonValue::Number(x)) => task_demand = Some(x),
                    ("tasks", JsonValue::Number(x)) => {
                        if x.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&x) {
                            return Err(bad_trace(format!("line {row}: tasks {x} is not a u32")));
                        }
                        tasks = Some(x as u32);
                    }
                    ("owner_class", JsonValue::String(s)) => {
                        check_class(row, &s)?;
                        class = Some(s);
                    }
                    (key, _) => {
                        return Err(bad_trace(format!(
                            "line {row}: unexpected key or value type for '{key}'"
                        )))
                    }
                }
            }
            let missing = |name| bad_trace(format!("line {row}: missing key '{name}'"));
            let spec = JobSpec {
                tasks: tasks.ok_or_else(|| missing("tasks"))?,
                task_demand: task_demand.ok_or_else(|| missing("task_demand"))?,
                arrival: arrival.ok_or_else(|| missing("arrival"))?,
            };
            check_row(row, &spec, jobs.last())?;
            match (&mut classes, class) {
                (None, Some(c)) if jobs.is_empty() => classes = Some(vec![c]),
                (Some(classes), Some(c)) => classes.push(c),
                (None, None) => {}
                _ => {
                    return Err(bad_trace(format!(
                        "line {row}: owner_class must appear on every row or none"
                    )))
                }
            }
            jobs.push(spec);
        }
        let trace = Self {
            jobs,
            classes,
            warmup: None,
        };
        trace.check()?;
        Ok(trace)
    }

    /// Load a trace file, dispatching on extension: `.csv` parses as
    /// CSV, `.jsonl` / `.ndjson` as JSONL.
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, SimError> {
        let path = path.as_ref();
        let ext = path
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or_default()
            .to_ascii_lowercase();
        let text = std::fs::read_to_string(path)
            .map_err(|e| bad_trace(format!("{}: {e}", path.display())))?;
        match ext.as_str() {
            "csv" => Self::from_csv_str(&text),
            "jsonl" | "ndjson" => Self::from_jsonl_str(&text),
            other => Err(bad_trace(format!(
                "{}: unknown trace extension '.{other}' (expected .csv, .jsonl, or .ndjson)",
                path.display()
            ))),
        }
    }

    /// Serialize back to the CSV format [`TraceWorkload::from_csv_str`]
    /// parses; `parse(serialize(t)) == t` bit-for-bit.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        out.push_str(match &self.classes {
            Some(_) => "arrival,tasks,task_demand,owner_class\n",
            None => "arrival,tasks,task_demand\n",
        });
        for (i, j) in self.jobs.iter().enumerate() {
            match &self.classes {
                Some(classes) => out.push_str(&format!(
                    "{},{},{},{}\n",
                    j.arrival, j.tasks, j.task_demand, classes[i]
                )),
                None => out.push_str(&format!("{},{},{}\n", j.arrival, j.tasks, j.task_demand)),
            }
        }
        out
    }

    /// Serialize back to the JSONL format
    /// [`TraceWorkload::from_jsonl_str`] parses; round-trips exactly.
    pub fn to_jsonl_string(&self) -> String {
        let mut out = String::new();
        for (i, j) in self.jobs.iter().enumerate() {
            out.push_str(&format!(
                "{{\"arrival\": {}, \"tasks\": {}, \"task_demand\": {}",
                j.arrival, j.tasks, j.task_demand
            ));
            if let Some(classes) = &self.classes {
                out.push_str(&format!(", \"owner_class\": \"{}\"", classes[i]));
            }
            out.push_str("}\n");
        }
        out
    }

    /// The replayed job list.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Per-job owner classes, if the trace carried the column.
    pub fn owner_classes(&self) -> Option<&[String]> {
        self.classes.as_deref()
    }

    /// Override the warm-up prefix (default: 10% of the trace).
    #[must_use]
    pub fn warmup(mut self, warmup: usize) -> Self {
        self.warmup = Some(warmup);
        self
    }

    fn check(&self) -> Result<(), SimError> {
        if self.jobs.is_empty() {
            return Err(bad_trace("trace contains no jobs".into()));
        }
        for (i, pair) in self.jobs.windows(2).enumerate() {
            if pair[1].arrival < pair[0].arrival {
                return Err(bad_trace(format!(
                    "arrivals regress: job {} at {} precedes job {} at {}",
                    i + 1,
                    pair[1].arrival,
                    i,
                    pair[0].arrival
                )));
            }
        }
        for (i, spec) in self.jobs.iter().enumerate() {
            check_row(i + 1, spec, None)?;
        }
        if let Some(classes) = &self.classes {
            for (i, class) in classes.iter().enumerate() {
                check_class(i + 1, class)?;
            }
        }
        Ok(())
    }

    /// The one check that can fail after construction: every
    /// constructor ran [`TraceWorkload::check`] on the private rows,
    /// and only [`TraceWorkload::warmup`] changes the trace afterwards.
    fn check_warmup(&self) -> Result<(), SimError> {
        if self.warmup_jobs() >= self.jobs.len() {
            return Err(bad_trace(format!(
                "warm-up {} must leave observed jobs (trace has {})",
                self.warmup_jobs(),
                self.jobs.len()
            )));
        }
        Ok(())
    }
}

impl Workload for TraceWorkload {
    fn generate(&self, _seed: u64, _replication: u64) -> Result<Vec<JobSpec>, SimError> {
        self.check_warmup()?;
        Ok(self.jobs.clone()) // ndslint::allow(no-alloc-in-hot-path, reason = "generate materializes the whole trace by contract; the hot path uses feed")
    }

    fn warmup_jobs(&self) -> usize {
        self.warmup.unwrap_or(self.jobs.len() / 10)
    }

    fn is_open(&self) -> bool {
        true
    }

    fn label(&self) -> String {
        let span = self.jobs.last().map_or(0.0, |j| j.arrival);
        format!("trace({} jobs, span {span})", self.jobs.len())
    }

    fn validate(&self) -> Result<(), SimError> {
        self.check()?;
        self.check_warmup()
    }

    fn feed(&self, _seed: u64, _replication: u64) -> Result<Box<dyn JobFeed + '_>, SimError> {
        self.check_warmup()?;
        Ok(Box::new(nds_sched::feed::SliceFeed::new(&self.jobs))) // ndslint::allow(no-alloc-in-hot-path, reason = "one boxed feed per replication is setup, not steady state")
    }
}

/// Shared per-row checks: finite positive fields and (when the
/// previous row is given) non-decreasing arrivals. `row` is 1-based
/// for error messages.
fn check_row(row: usize, spec: &JobSpec, prev: Option<&JobSpec>) -> Result<(), SimError> {
    if spec.tasks == 0 {
        return Err(bad_trace(format!("line {row}: zero tasks")));
    }
    if !(spec.task_demand.is_finite() && spec.task_demand > 0.0) {
        return Err(bad_trace(format!(
            "line {row}: task_demand {} not finite > 0",
            spec.task_demand
        )));
    }
    if !(spec.arrival.is_finite() && spec.arrival >= 0.0) {
        return Err(bad_trace(format!(
            "line {row}: arrival {} not finite >= 0",
            spec.arrival
        )));
    }
    if let Some(prev) = prev {
        if spec.arrival < prev.arrival {
            return Err(bad_trace(format!(
                "line {row}: arrival {} precedes previous arrival {} — traces must be \
                 time-sorted (equal instants keep input order)",
                spec.arrival, prev.arrival
            )));
        }
    }
    Ok(())
}

/// Owner classes are bare atoms: they must survive a CSV cell and a
/// JSON string without any quoting machinery.
fn check_class(row: usize, class: &str) -> Result<(), SimError> {
    if class.is_empty() || class.contains([',', '"', '\\', '\n', '\r']) {
        return Err(bad_trace(format!(
            "line {row}: owner_class '{class}' must be non-empty without , \" \\ or newlines"
        )));
    }
    Ok(())
}

/// A flat JSON scalar: number or string (all a trace row needs).
enum JsonValue {
    Number(f64),
    String(String),
}

/// Parse one flat JSON object (`{"k": 1.5, "s": "v"}`) into key/value
/// pairs. Deliberately minimal — no nesting, no arrays, no
/// null/bool — so every trace row is readable at a glance and the
/// parser has nothing to get wrong. Escapes in strings are rejected
/// (classes are bare atoms, per [`check_class`]).
fn parse_flat_json(row: usize, line: &str) -> Result<Vec<(String, JsonValue)>, SimError> {
    let bad = |what: &str| bad_trace(format!("line {row}: {what}"));
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| bad("expected one {...} object"))?
        .trim();
    let mut pairs = Vec::new(); // ndslint::allow(no-alloc-in-hot-path, reason = "parse-time row buffer; ingest runs once before the simulation")
    if inner.is_empty() {
        return Ok(pairs);
    }
    let mut rest = inner;
    loop {
        rest = rest.trim_start();
        let body = rest
            .strip_prefix('"')
            .ok_or_else(|| bad("expected a quoted key"))?;
        let close = body
            .find('"')
            .ok_or_else(|| bad("unterminated key string"))?;
        let key = &body[..close];
        rest = body[close + 1..].trim_start();
        rest = rest
            .strip_prefix(':')
            .ok_or_else(|| bad("expected ':' after key"))?
            .trim_start();
        let value = if let Some(body) = rest.strip_prefix('"') {
            let close = body
                .find('"')
                .ok_or_else(|| bad("unterminated value string"))?;
            let s = &body[..close];
            if s.contains('\\') {
                return Err(bad("escape sequences are not supported"));
            }
            rest = &body[close + 1..];
            JsonValue::String(s.to_string())
        } else {
            let end = rest.find([',', '}', ' ', '\t']).unwrap_or(rest.len());
            let token = &rest[..end];
            let x: f64 = token
                .parse()
                .map_err(|_| bad_trace(format!("line {row}: bad number '{token}'")))?;
            rest = &rest[end..];
            JsonValue::Number(x)
        };
        pairs.push((key.to_string(), value));
        rest = rest.trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None if rest.is_empty() => return Ok(pairs),
            None => return Err(bad("expected ',' between pairs")),
        }
    }
}

/// A deterministic synthetic datacenter day: diurnal Poisson arrivals
/// (sinusoid-modulated rate, sampled exactly by thinning), bounded-
/// Pareto per-task demands, uniform task widths, and a machine
/// population split into hot and cool owner classes. Everything is a
/// pure function of `(seed, replication)` — rerunning a day replays it
/// bit-for-bit, and the streaming feed draws it lazily.
///
/// `SyntheticTrace::datacenter(2_000, 1_000_000)` is "a day of a
/// 2k-machine cluster" in one call; every knob has a builder setter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticTrace {
    machines: u32,
    jobs: usize,
    /// Diurnal period (the "day"; arrival rate completes one sinusoid
    /// cycle per period).
    day: f64,
    /// Mean arrival rate λ₀ (jobs per time unit).
    base_rate: f64,
    /// Sinusoid amplitude in `[0, 1)`: λ(t) = λ₀·(1 + A·sin(2πt/day)).
    amplitude: f64,
    /// Bounded-Pareto tail index for per-task demand.
    alpha: f64,
    /// Smallest per-task demand.
    min_demand: f64,
    /// Largest per-task demand.
    max_demand: f64,
    /// Task widths are uniform on `1..=max_tasks`.
    max_tasks: u32,
    /// Fraction of machines whose owners are *hot* (interactive).
    hot_fraction: f64,
    /// Owner utilization on hot machines.
    hot_utilization: f64,
    /// Owner utilization on cool machines.
    cool_utilization: f64,
    /// Mean owner think time (both classes).
    owner_think: f64,
    /// `None` = the 10% default.
    warmup: Option<usize>,
}

impl SyntheticTrace {
    /// A day of a `machines`-machine cluster serving `jobs` jobs:
    /// arrivals average one day-spanning window (λ₀ = jobs/day) with a
    /// 60% diurnal swing, per-task demands Pareto(α=1.5) over
    /// `[30, 30_000]` time units, widths up to 64 tasks, and 30% hot /
    /// 70% cool owners.
    pub fn datacenter(machines: u32, jobs: usize) -> Self {
        let day = 86_400.0;
        Self {
            machines,
            jobs,
            day,
            base_rate: jobs as f64 / day,
            amplitude: 0.6,
            alpha: 1.5,
            min_demand: 30.0,
            max_demand: 30_000.0,
            max_tasks: 64.min(machines.max(1)),
            hot_fraction: 0.3,
            hot_utilization: 0.30,
            cool_utilization: 0.05,
            owner_think: 600.0,
            warmup: None,
        }
    }

    /// Set the diurnal period and rescale the base rate to keep the
    /// window spanning one period.
    #[must_use]
    pub fn day(mut self, day: f64) -> Self {
        self.day = day;
        self.base_rate = self.jobs as f64 / day;
        self
    }

    /// Set the mean arrival rate λ₀ directly.
    #[must_use]
    pub fn base_rate(mut self, rate: f64) -> Self {
        self.base_rate = rate;
        self
    }

    /// Set the diurnal amplitude (`0 <= A < 1`).
    #[must_use]
    pub fn amplitude(mut self, amplitude: f64) -> Self {
        self.amplitude = amplitude;
        self
    }

    /// Set the bounded-Pareto demand family: tail index `alpha` on
    /// `[min_demand, max_demand)`.
    #[must_use]
    pub fn demands(mut self, alpha: f64, min_demand: f64, max_demand: f64) -> Self {
        self.alpha = alpha;
        self.min_demand = min_demand;
        self.max_demand = max_demand;
        self
    }

    /// Set the maximum task width (widths are uniform on `1..=max`).
    #[must_use]
    pub fn max_tasks(mut self, max_tasks: u32) -> Self {
        self.max_tasks = max_tasks;
        self
    }

    /// Set the hot/cool owner split: `fraction` of machines run owners
    /// at `hot` utilization, the rest at `cool`.
    #[must_use]
    pub fn owner_mix(mut self, fraction: f64, hot: f64, cool: f64) -> Self {
        self.hot_fraction = fraction;
        self.hot_utilization = hot;
        self.cool_utilization = cool;
        self
    }

    /// Set the mean owner think time.
    #[must_use]
    pub fn owner_think(mut self, think: f64) -> Self {
        self.owner_think = think;
        self
    }

    /// Override the warm-up prefix (default: 10% of the window).
    #[must_use]
    pub fn warmup(mut self, warmup: usize) -> Self {
        self.warmup = Some(warmup);
        self
    }

    /// Number of machines in the modeled cluster.
    pub fn machines(&self) -> u32 {
        self.machines
    }

    /// The per-machine owner population for one replication: machine
    /// `i` is hot with probability `hot_fraction` (dedicated RNG
    /// stream, so the assignment never perturbs the job sample path).
    /// Feed the result to
    /// [`SimBuilder::owners`](crate::sim::SimBuilder::owners).
    pub fn owners(&self, seed: u64, replication: u64) -> Result<Vec<OwnerWorkload>, SimError> {
        self.validate()?;
        let mut rng = StreamFactory::new(seed).labeled_stream(OWNER_STREAM, replication);
        // Each class is built once, when a machine first draws it, and
        // cloned after that; a class no machine draws is never built.
        let mut classes: [Option<OwnerWorkload>; 2] = [None, None];
        (0..self.machines)
            .map(|_| {
                let (slot, util) = if rng.bernoulli(self.hot_fraction) {
                    (&mut classes[0], self.hot_utilization)
                } else {
                    (&mut classes[1], self.cool_utilization)
                };
                let owner = match slot {
                    Some(owner) => owner,
                    None => slot.insert(
                        OwnerWorkload::continuous_exponential(self.owner_think, util)
                            .map_err(SimError::Cluster)?,
                    ),
                };
                Ok(owner.clone()) // ndslint::allow(no-alloc-in-hot-path, reason = "run setup: each machine's owner is a clone of its class")
            })
            .collect()
    }

    /// Materialize the day as a [`TraceWorkload`] (e.g. to serialize a
    /// fixture with [`TraceWorkload::to_csv_string`]).
    pub fn to_trace(&self, seed: u64, replication: u64) -> Result<TraceWorkload, SimError> {
        TraceWorkload::new(self.generate(seed, replication)?)
    }

    fn sampler(&self, seed: u64, replication: u64) -> Result<SyntheticSampler, SimError> {
        self.validate()?;
        Ok(SyntheticSampler {
            rng: StreamFactory::new(seed).labeled_stream(TRACE_STREAM, replication),
            t: 0.0,
            remaining: self.jobs,
            day: self.day,
            base: self.base_rate,
            amp: self.amplitude,
            lambda_max: self.base_rate * (1.0 + self.amplitude),
            sizes: BoundedPareto::new(self.alpha, self.min_demand, self.max_demand)
                .map_err(SimError::Stats)?,
            max_tasks: self.max_tasks,
        })
    }
}

impl Workload for SyntheticTrace {
    fn generate(&self, seed: u64, replication: u64) -> Result<Vec<JobSpec>, SimError> {
        let mut sampler = self.sampler(seed, replication)?;
        let mut jobs = Vec::with_capacity(self.jobs); // ndslint::allow(no-alloc-in-hot-path, reason = "generate materializes the whole day by contract; streamed runs use feed")
        while let Some(spec) = sampler.next_spec() {
            jobs.push(spec);
        }
        Ok(jobs)
    }

    fn warmup_jobs(&self) -> usize {
        self.warmup.unwrap_or(self.jobs / 10)
    }

    fn is_open(&self) -> bool {
        true
    }

    fn label(&self) -> String {
        format!(
            "synthetic-trace({} machines, {} jobs, day {}, λ₀ {:.4}, A {})",
            self.machines, self.jobs, self.day, self.base_rate, self.amplitude
        )
    }

    fn validate(&self) -> Result<(), SimError> {
        let invalid = |field, reason: String| Err(SimError::InvalidWorkload { field, reason });
        if self.machines == 0 {
            return invalid("machines", "cluster needs at least one machine".into());
        }
        if self.jobs == 0 {
            return invalid("jobs", "trace needs at least one job".into());
        }
        if !(self.day.is_finite() && self.day > 0.0) {
            return invalid("day", format!("{} not finite > 0", self.day));
        }
        if !(self.base_rate.is_finite() && self.base_rate > 0.0) {
            return invalid("base_rate", format!("{} not finite > 0", self.base_rate));
        }
        if !(self.amplitude.is_finite() && (0.0..1.0).contains(&self.amplitude)) {
            return invalid(
                "amplitude",
                format!("{} must be in [0, 1) to keep λ(t) > 0", self.amplitude),
            );
        }
        BoundedPareto::new(self.alpha, self.min_demand, self.max_demand)
            .map_err(SimError::Stats)?;
        if self.max_tasks == 0 {
            return invalid("max_tasks", "jobs need at least one task".into());
        }
        if !(self.hot_fraction.is_finite() && (0.0..=1.0).contains(&self.hot_fraction)) {
            return invalid(
                "hot_fraction",
                format!("{} must be in [0, 1]", self.hot_fraction),
            );
        }
        for (field, u) in [
            ("hot_utilization", self.hot_utilization),
            ("cool_utilization", self.cool_utilization),
        ] {
            if !(u.is_finite() && (0.0..1.0).contains(&u)) {
                return invalid(field, format!("{u} must be in [0, 1)"));
            }
        }
        if !(self.owner_think.is_finite() && self.owner_think > 0.0) {
            return invalid(
                "owner_think",
                format!("{} not finite > 0", self.owner_think),
            );
        }
        if self.warmup_jobs() >= self.jobs {
            return invalid(
                "warmup",
                format!(
                    "warm-up {} must leave observed jobs (window is {})",
                    self.warmup_jobs(),
                    self.jobs
                ),
            );
        }
        Ok(())
    }

    /// The day's jobs, drawn one batch ahead of the engine on a worker
    /// thread: the same specs in the same chunks as
    /// [`Workload::generate`], every draw unchanged. The first pull
    /// draws the first 8,192 jobs on the calling thread and starts the
    /// worker only if that batch filled, so a shorter day stays on one
    /// thread. Dropping the feed joins the worker, and a
    /// worker panic is re-raised by the pull that finds it.
    fn feed(&self, seed: u64, replication: u64) -> Result<Box<dyn JobFeed + '_>, SimError> {
        let sampler = self.sampler(seed, replication)?;
        Ok(Box::new(ReadAhead::new(sampler))) // ndslint::allow(no-alloc-in-hot-path, reason = "one boxed feed per replication is setup, not steady state")
    }
}

/// The lazily drawn synthetic job stream. [`SyntheticTrace::generate`]
/// drains this same sampler, so the streamed and materialized job
/// lists are identical by construction.
#[derive(Debug)]
struct SyntheticSampler {
    rng: Xoshiro256StarStar,
    t: f64,
    remaining: usize,
    day: f64,
    base: f64,
    amp: f64,
    lambda_max: f64,
    sizes: BoundedPareto,
    max_tasks: u32,
}

impl SyntheticSampler {
    fn next_spec(&mut self) -> Option<JobSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Thinning (Lewis & Shedler): candidate gaps at the envelope
        // rate λ_max, accepted with probability λ(t)/λ_max — an exact
        // sampler for the nonhomogeneous process, no time grid.
        loop {
            self.t += -self.rng.next_f64_open().ln() / self.lambda_max;
            let lambda = self.base * (1.0 + self.amp * (TAU * self.t / self.day).sin());
            if self.rng.next_f64() * self.lambda_max <= lambda {
                break;
            }
        }
        // next_f64 < 1 keeps the width in 1..=max_tasks.
        let tasks = 1 + (self.rng.next_f64() * f64::from(self.max_tasks)) as u32;
        let task_demand = self.sizes.sample(&mut self.rng);
        Some(JobSpec {
            tasks,
            task_demand,
            arrival: self.t,
        })
    }
}

impl JobFeed for SyntheticSampler {
    fn next_chunk(&mut self, max: usize, buf: &mut Vec<JobSpec>) -> Result<usize, SchedError> {
        let mut n = 0;
        while n < max {
            match self.next_spec() {
                Some(spec) => {
                    buf.push(spec);
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "\
# a tiny fixture
arrival,tasks,task_demand,owner_class
0,4,120.5,batch
3.25,1,30,interactive
3.25,2,55.125,batch
10,8,1000,batch
";

    #[test]
    fn csv_parses_and_round_trips() {
        let t = TraceWorkload::from_csv_str(CSV).unwrap();
        assert_eq!(t.jobs().len(), 4);
        assert_eq!(t.jobs()[0].tasks, 4);
        assert_eq!(t.jobs()[2].task_demand, 55.125);
        assert_eq!(
            t.owner_classes().unwrap(),
            ["batch", "interactive", "batch", "batch"]
        );
        let reparsed = TraceWorkload::from_csv_str(&t.to_csv_string()).unwrap();
        assert_eq!(reparsed, t, "CSV round-trip is exact");
        // And through JSONL.
        let reparsed = TraceWorkload::from_jsonl_str(&t.to_jsonl_string()).unwrap();
        assert_eq!(reparsed, t, "JSONL round-trip is exact");
    }

    #[test]
    fn csv_without_header_or_classes() {
        let t = TraceWorkload::from_csv_str("0,1,10\n5,2,20\n").unwrap();
        assert_eq!(t.jobs().len(), 2);
        assert!(t.owner_classes().is_none());
        let again = TraceWorkload::from_csv_str(&t.to_csv_string()).unwrap();
        assert_eq!(again, t);
    }

    #[test]
    fn ties_keep_input_order_deterministically() {
        let t = TraceWorkload::from_csv_str("5,1,10\n5,2,20\n5,3,30\n").unwrap();
        let jobs = t.generate(1, 0).unwrap();
        assert_eq!(
            jobs.iter().map(|j| j.tasks).collect::<Vec<_>>(),
            [1, 2, 3],
            "equal arrivals keep input order"
        );
        assert_eq!(
            t.generate(9, 4).unwrap(),
            jobs,
            "replay is seed-independent"
        );
    }

    #[test]
    fn malformed_rows_are_typed_errors_with_line_numbers() {
        let reject = |text: &str, needle: &str| {
            let err = TraceWorkload::from_csv_str(text).unwrap_err();
            let SimError::InvalidWorkload {
                field: "trace",
                reason,
            } = &err
            else {
                panic!("unexpected error {err:?} for {text:?}");
            };
            assert!(reason.contains(needle), "{reason:?} missing {needle:?}");
        };
        reject("10,1,10\n5,1,10\n", "line 2");
        reject("0,0,10\n", "zero tasks");
        reject("0,1,NaN\n", "not finite");
        reject("0,1,-3\n", "not finite");
        reject("NaN,1,10\n", "not finite");
        reject("0,1\n", "fields");
        reject("0,1,10,batch\n1,1,10\n", "fields");
        reject("0,x,10\n", "tasks");
        reject("arrival,tasks,demand\n", "header");
        reject("", "no jobs");
        let err =
            TraceWorkload::from_jsonl_str("{\"arrival\": 0, \"tasks\": 1.5, \"task_demand\": 3}\n")
                .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidWorkload { field: "trace", .. }
        ));
        assert!(TraceWorkload::from_jsonl_str("{\"arrival\": 0, \"tasks\": 1}\n").is_err());
        assert!(TraceWorkload::from_jsonl_str("{\"bogus\": 1}\n").is_err());
        assert!(TraceWorkload::from_jsonl_str("not json\n").is_err());
    }

    #[test]
    fn trace_feed_streams_the_same_jobs() {
        let t = TraceWorkload::from_csv_str(CSV).unwrap().warmup(0);
        let want = t.generate(0, 0).unwrap();
        let mut feed = t.feed(0, 0).unwrap();
        let mut got = Vec::new();
        while feed.next_chunk(2, &mut got).unwrap() > 0 {}
        assert_eq!(got, want);
    }

    /// Hand-rolled property test: random well-formed traces round-trip
    /// through both serializers bit-for-bit.
    #[test]
    fn random_traces_round_trip() {
        let mut rng = Xoshiro256StarStar::new(0xABCD);
        for case in 0..50 {
            let n = 1 + (rng.next_f64() * 20.0) as usize;
            let with_classes = rng.bernoulli(0.5);
            let mut t = 0.0;
            let mut jobs = Vec::new();
            let mut classes = Vec::new();
            for _ in 0..n {
                // Ties with probability ~1/4 exercise the tie-break.
                if !rng.bernoulli(0.25) {
                    t += -rng.next_f64_open().ln() * 7.5;
                }
                jobs.push(JobSpec {
                    tasks: 1 + (rng.next_f64() * 32.0) as u32,
                    task_demand: rng.next_f64_open() * 1e4,
                    arrival: t,
                });
                classes.push(if rng.bernoulli(0.5) { "hot" } else { "cool" }.to_string());
            }
            let trace = if with_classes {
                TraceWorkload::with_classes(jobs, classes).unwrap()
            } else {
                TraceWorkload::new(jobs).unwrap()
            };
            let via_csv = TraceWorkload::from_csv_str(&trace.to_csv_string()).unwrap();
            assert_eq!(via_csv, trace, "case {case}: CSV round-trip");
            let via_jsonl = TraceWorkload::from_jsonl_str(&trace.to_jsonl_string()).unwrap();
            assert_eq!(via_jsonl, trace, "case {case}: JSONL round-trip");
        }
    }

    #[test]
    fn synthetic_trace_is_deterministic_and_well_formed() {
        let gen = SyntheticTrace::datacenter(100, 2_000);
        gen.validate().unwrap();
        let a = gen.generate(7, 0).unwrap();
        let b = gen.generate(7, 0).unwrap();
        assert_eq!(a, b, "same (seed, replication) must replay");
        assert_ne!(a, gen.generate(7, 1).unwrap(), "replications diverge");
        assert_ne!(a, gen.generate(8, 0).unwrap(), "seeds diverge");
        assert_eq!(a.len(), 2_000);
        let mut prev = 0.0;
        for j in &a {
            assert!(j.arrival >= prev, "arrivals are sorted");
            prev = j.arrival;
            assert!((1..=64).contains(&j.tasks));
            assert!((30.0..30_000.0).contains(&j.task_demand));
        }
        // The window spans roughly the configured day.
        let span = a.last().unwrap().arrival;
        assert!(
            span > 0.5 * 86_400.0 && span < 2.0 * 86_400.0,
            "span {span}"
        );
    }

    #[test]
    fn synthetic_feed_matches_generate_chunk_by_chunk() {
        let gen = SyntheticTrace::datacenter(50, 500);
        let want = gen.generate(11, 2).unwrap();
        for chunk in [1usize, 64, 10_000] {
            let mut feed = gen.feed(11, 2).unwrap();
            let mut got = Vec::new();
            while feed.next_chunk(chunk, &mut got).unwrap() > 0 {}
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn synthetic_diurnal_rate_actually_modulates() {
        // With a strong amplitude, arrivals in the sinusoid's peak
        // half-day outnumber the trough half-day decisively.
        let gen = SyntheticTrace::datacenter(100, 20_000).amplitude(0.9);
        let jobs = gen.generate(3, 0).unwrap();
        let day = 86_400.0;
        let (mut peak, mut trough) = (0usize, 0usize);
        for j in &jobs {
            let phase = (j.arrival / day).fract();
            if phase < 0.5 {
                peak += 1; // sin > 0 on the first half-period
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "peak {peak} vs trough {trough}: diurnal modulation missing"
        );
    }

    #[test]
    fn synthetic_owners_split_hot_and_cool() {
        let gen = SyntheticTrace::datacenter(400, 1_000).owner_mix(0.25, 0.4, 0.05);
        let owners = gen.owners(5, 0).unwrap();
        assert_eq!(owners.len(), 400);
        let replay: Vec<f64> = gen
            .owners(5, 0)
            .unwrap()
            .iter()
            .map(OwnerWorkload::utilization)
            .collect();
        let utils: Vec<f64> = owners.iter().map(OwnerWorkload::utilization).collect();
        assert_eq!(utils, replay, "assignment replays");
        let hot = owners
            .iter()
            .filter(|o| (o.utilization() - 0.4).abs() < 1e-12)
            .count();
        assert!(
            (40..=160).contains(&hot),
            "hot count {hot} far from 25% of 400"
        );
    }

    /// The owner population built one `continuous_exponential` per
    /// machine, as before classes were shared.
    fn owners_one_by_one(
        gen: &SyntheticTrace,
        seed: u64,
        replication: u64,
    ) -> Result<Vec<OwnerWorkload>, SimError> {
        let mut rng = StreamFactory::new(seed).labeled_stream(OWNER_STREAM, replication);
        (0..gen.machines)
            .map(|_| {
                let util = if rng.bernoulli(gen.hot_fraction) {
                    gen.hot_utilization
                } else {
                    gen.cool_utilization
                };
                OwnerWorkload::continuous_exponential(gen.owner_think, util)
                    .map_err(SimError::Cluster)
            })
            .collect()
    }

    #[test]
    fn shared_owner_classes_match_per_machine_construction() {
        for machines in [1, 64, 1_000] {
            let gen = SyntheticTrace::datacenter(machines, 100);
            for seed in 1..=10 {
                let got = gen.owners(seed, 0).unwrap();
                let want = owners_one_by_one(&gen, seed, 0).unwrap();
                assert_eq!(got.len(), want.len());
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    let at = format!("W {machines}, seed {seed}, machine {i}");
                    assert_eq!(a.label(), b.label(), "{at}");
                    assert_eq!(a.mean_think().to_bits(), b.mean_think().to_bits(), "{at}");
                    assert_eq!(
                        a.mean_service().to_bits(),
                        b.mean_service().to_bits(),
                        "{at}"
                    );
                    let mut ra = Xoshiro256StarStar::new(seed << 20 | i as u64);
                    let mut rb = ra.clone();
                    for _ in 0..100 {
                        assert_eq!(
                            a.sample_think(&mut ra).to_bits(),
                            b.sample_think(&mut rb).to_bits(),
                            "{at}"
                        );
                        assert_eq!(
                            a.sample_service(&mut ra).to_bits(),
                            b.sample_service(&mut rb).to_bits(),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_unbuildable_owner_class_fails_only_when_drawn() {
        // Utilization 0 passes `validate` but not `continuous_exponential`.
        let mixes = [
            (1.0, 0.3, 0.0),
            (0.0, 0.0, 0.05),
            (0.5, 0.3, 0.0),
            (1.0, 0.0, 0.05),
        ];
        for (fraction, hot, cool) in mixes {
            for machines in [1, 64] {
                let gen = SyntheticTrace::datacenter(machines, 100).owner_mix(fraction, hot, cool);
                gen.validate().unwrap();
                for seed in 1..=10 {
                    let mut rng = StreamFactory::new(seed).labeled_stream(OWNER_STREAM, 0);
                    let drawn = (0..machines).any(|_| {
                        let util = if rng.bernoulli(fraction) { hot } else { cool };
                        util == 0.0
                    });
                    let got = gen.owners(seed, 0);
                    assert_eq!(
                        got.is_err(),
                        drawn,
                        "mix {fraction}/{hot}/{cool}, seed {seed}"
                    );
                    assert_eq!(
                        got.map(|o| o.len()),
                        owners_one_by_one(&gen, seed, 0).map(|o| o.len())
                    );
                }
            }
        }
    }

    #[test]
    fn trace_warmup_is_checked_on_every_replication() {
        let t = TraceWorkload::from_csv_str(CSV).unwrap().warmup(4);
        let want = t.validate().unwrap_err();
        assert!(matches!(
            want,
            SimError::InvalidWorkload { field: "trace", .. }
        ));
        assert_eq!(t.generate(0, 0).unwrap_err(), want);
        assert_eq!(t.feed(0, 0).err(), Some(want));
        let t = t.warmup(3);
        assert_eq!(t.generate(0, 0).unwrap(), t.jobs());
        assert!(t.feed(0, 0).is_ok());
    }

    #[test]
    fn synthetic_rejects_bad_parameters() {
        let base = SyntheticTrace::datacenter(10, 100);
        assert!(SyntheticTrace::datacenter(0, 100).validate().is_err());
        assert!(SyntheticTrace::datacenter(10, 0).validate().is_err());
        assert!(base.amplitude(1.0).validate().is_err());
        assert!(base.amplitude(-0.1).validate().is_err());
        assert!(base.base_rate(0.0).validate().is_err());
        assert!(base.demands(0.0, 1.0, 10.0).validate().is_err());
        assert!(base.demands(1.5, 10.0, 1.0).validate().is_err());
        assert!(base.max_tasks(0).validate().is_err());
        assert!(base.owner_mix(1.5, 0.3, 0.05).validate().is_err());
        assert!(base.owner_mix(0.3, 1.0, 0.05).validate().is_err());
        assert!(base.owner_think(0.0).validate().is_err());
        assert!(base.warmup(100).validate().is_err());
        assert!(base.validate().is_ok());
    }

    #[test]
    fn to_trace_round_trips_through_csv() {
        let gen = SyntheticTrace::datacenter(20, 200);
        let trace = gen.to_trace(9, 1).unwrap();
        assert_eq!(trace.jobs(), gen.generate(9, 1).unwrap().as_slice());
        let reparsed = TraceWorkload::from_csv_str(&trace.to_csv_string()).unwrap();
        assert_eq!(reparsed, trace, "shortest-repr floats survive the trip");
    }
}
