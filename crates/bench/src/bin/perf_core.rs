//! perf_core — events-per-second benchmark of the discrete-event hot
//! path (the PR 5 perf baseline).
//!
//! Runs the scheduler engine across the gang-policy spectrum
//! (`Off` / `SuspendAll` / `Partial`) on both **closed** job streams
//! and **open Poisson streams**, plus one scenario shaped exactly like
//! the `ext_open_stream` bench (W=16, λ=0.02, 4×60 jobs, checkpoint
//! eviction). For every scenario it reports executed calendar events,
//! wall time, and events/sec via [`SchedConfig::run_counted`].
//!
//! Usage:
//!
//! * `perf_core` — full measurement, human table + JSON block on
//!   stdout (the JSON is what `BENCH_core.json` records);
//! * `perf_core --json` — JSON only;
//! * `perf_core --smoke` — small check-mode run for CI: counts events,
//!   asserts nonzero throughput on every scenario, and (release builds
//!   only) asserts untraced throughput stays within a generous floor
//!   of the `BENCH_core.json` baseline — the guard that the `NoTrace`
//!   flight-recorder hooks really do compile away;
//! * `perf_core --profile` — run each scenario once under a
//!   profiling-only tracer and print per-event-class host-time
//!   attribution as JSON;
//! * `perf_core --trace-json` — measure the full `FlightRecorder`'s
//!   overhead vs the untraced engine (the JSON `BENCH_trace.json`
//!   records).
//!
//! Any other argument exits 2 with a one-line usage.
//!
//! Events/sec is the engine's honest denominator: cancelled calendar
//! entries skipped at pop time are not counted, only events whose
//! handler ran.

// A throughput benchmark exists to read the wall clock.
#![allow(clippy::disallowed_methods)]

use nds_cluster::owner::OwnerWorkload;
use nds_core::sim::{poisson, JobShape, Workload};
use nds_sched::{
    EventClass, EvictionPolicy, FlightRecorder, GangPolicy, JobSpec, Profiler, SchedConfig,
    SchedTracer,
};
use std::time::Instant;

const SEED: u64 = 0xC0DE;

/// Mirror of `BENCH_core.json`'s `after_events_per_sec` column — the
/// PR 5 release-build baseline the `--smoke` guard floors against.
const BASELINE_EVENTS_PER_SEC: [(&str, f64); 8] = [
    ("closed_off", 11_668_205.0),
    ("closed_suspend_all", 7_759_978.0),
    ("closed_partial", 4_318_230.0),
    ("open_off", 7_878_027.0),
    ("open_suspend_all", 7_649_933.0),
    ("open_partial", 5_586_689.0),
    ("ext_open_stream", 9_908_896.0),
    ("ext_open_stream_hot", 13_699_461.0),
];

/// The smoke guard's floor as a fraction of the recorded baseline —
/// deliberately generous (smoke runs a small workload on a possibly
/// noisy shared machine); it exists to catch order-of-magnitude
/// regressions such as tracing hooks surviving monomorphization, not
/// to benchmark.
const SMOKE_FLOOR_FRAC: f64 = 0.10;

/// A [`SchedTracer`] that only attributes host time per event class —
/// no record buffering, no state sampling — so `--profile` measures
/// handler cost, not recorder cost.
#[derive(Default)]
struct ProfileOnly(Profiler);

impl SchedTracer for ProfileOnly {
    #[inline]
    fn handled(&mut self, _now: f64, class: EventClass, nanos: u64) {
        self.0.observe(class, nanos);
    }

    /// Skip the per-event state gather: this tracer never looks at it.
    #[inline]
    fn wants_state(&self, _now: f64) -> bool {
        false
    }
}

struct ScenarioSpec {
    name: &'static str,
    workstations: u32,
    utilization: f64,
    tasks: u32,
    task_demand: f64,
    /// `Some(rate)` for an open Poisson stream, `None` for a closed
    /// stream with a fixed inter-arrival gap.
    open_rate: Option<f64>,
    gang: GangPolicy,
    eviction: EvictionPolicy,
}

struct Measurement {
    name: &'static str,
    events: u64,
    seconds: f64,
    best_events_per_sec: f64,
}

impl Measurement {
    /// Best observed per-replication throughput. Each replication is
    /// timed on its own and the fastest wins, which filters scheduler
    /// noise on shared machines (the standard min-time methodology).
    fn events_per_sec(&self) -> f64 {
        self.best_events_per_sec
    }
}

fn scenarios() -> Vec<ScenarioSpec> {
    let ckpt = EvictionPolicy::Checkpoint {
        interval: 30.0,
        overhead: 1.0,
    };
    let grid = |name, open_rate, gang, eviction| ScenarioSpec {
        name,
        workstations: 32,
        utilization: 0.15,
        tasks: 8,
        task_demand: 25.0,
        open_rate,
        gang,
        eviction,
    };
    vec![
        grid("closed_off", None, GangPolicy::Off, ckpt),
        grid(
            "closed_suspend_all",
            None,
            GangPolicy::SuspendAll,
            EvictionPolicy::SuspendResume,
        ),
        grid(
            "closed_partial",
            None,
            GangPolicy::Partial { min_running: 4 },
            EvictionPolicy::SuspendResume,
        ),
        grid("open_off", Some(0.05), GangPolicy::Off, ckpt),
        grid(
            "open_suspend_all",
            Some(0.05),
            GangPolicy::SuspendAll,
            EvictionPolicy::SuspendResume,
        ),
        grid(
            "open_partial",
            Some(0.05),
            GangPolicy::Partial { min_running: 4 },
            EvictionPolicy::SuspendResume,
        ),
        // The headline rows: the `ext_open_stream` bench's exact shape
        // (W=16, U=0.10, 4x60 jobs, checkpoint eviction) at two points
        // of that bin's rate sweep — its base rate λ=0.02, where owner
        // think/use cycles dominate the event mix, and the sweep's top
        // rate λ=0.05, where the queue stays busy and the
        // SegmentEnd→dispatch cycle does.
        ScenarioSpec {
            name: "ext_open_stream",
            workstations: 16,
            utilization: 0.10,
            tasks: 4,
            task_demand: 60.0,
            open_rate: Some(0.02),
            gang: GangPolicy::Off,
            eviction: ckpt,
        },
        ScenarioSpec {
            name: "ext_open_stream_hot",
            workstations: 16,
            utilization: 0.10,
            tasks: 4,
            task_demand: 60.0,
            open_rate: Some(0.05),
            gang: GangPolicy::Off,
            eviction: ckpt,
        },
    ]
}

fn jobs_for(spec: &ScenarioSpec, jobs: usize, replication: u64) -> Vec<JobSpec> {
    match spec.open_rate {
        Some(rate) => poisson(rate, JobShape::new(spec.tasks, spec.task_demand))
            .jobs(jobs)
            .warmup(0)
            .generate(SEED, replication)
            .expect("valid open workload"),
        // Closed stream: fixed gap sized so the queue stays busy
        // without growing unboundedly.
        None => JobSpec::stream(jobs as u32, spec.tasks, spec.task_demand, 8.0),
    }
}

fn measure(spec: &ScenarioSpec, jobs: usize, reps: u64) -> Measurement {
    let owner = OwnerWorkload::continuous_exponential(10.0, spec.utilization)
        .expect("valid owner utilization");
    let mut events = 0u64;
    let mut seconds = 0.0f64;
    let mut best = 0.0f64;
    for rep in 0..reps {
        let mut cfg =
            SchedConfig::homogeneous(spec.workstations, &owner, jobs_for(spec, jobs, rep));
        cfg.gang = spec.gang;
        cfg.eviction = spec.eviction;
        cfg.seed = SEED;
        cfg.replication = rep;
        cfg.max_events = 200_000_000;
        let start = Instant::now();
        let (metrics, ran) = cfg.run_counted().expect("scenario completes");
        let elapsed = start.elapsed().as_secs_f64();
        seconds += elapsed;
        events += ran;
        if elapsed > 0.0 {
            best = best.max(ran as f64 / elapsed);
        }
        assert!(
            metrics.is_consistent(),
            "{}: work conservation violated",
            spec.name
        );
    }
    Measurement {
        name: spec.name,
        events,
        seconds,
        best_events_per_sec: best,
    }
}

/// Which recording tier [`measure_traced`] pays for.
#[derive(Clone, Copy)]
enum Tier {
    /// Everything on: record buffer + metrics registry + profiler —
    /// the honest worst case for tracing overhead.
    Full,
    /// [`FlightRecorder::cheap`]: lifecycle-only record filter,
    /// grid-throttled state samples, host profiling off. Counters and
    /// quantile sketches stay exact.
    Cheap,
}

/// Like [`measure`], but runs every replication under the
/// [`FlightRecorder`] at the given tier.
fn measure_traced(spec: &ScenarioSpec, jobs: usize, reps: u64, tier: Tier) -> Measurement {
    let owner = OwnerWorkload::continuous_exponential(10.0, spec.utilization)
        .expect("valid owner utilization");
    let mut events = 0u64;
    let mut seconds = 0.0f64;
    let mut best = 0.0f64;
    for rep in 0..reps {
        let mut cfg =
            SchedConfig::homogeneous(spec.workstations, &owner, jobs_for(spec, jobs, rep));
        cfg.gang = spec.gang;
        cfg.eviction = spec.eviction;
        cfg.seed = SEED;
        cfg.replication = rep;
        cfg.max_events = 200_000_000;
        let w = spec.workstations as usize;
        let mut recorder = match tier {
            Tier::Full => FlightRecorder::new(w, 100.0),
            Tier::Cheap => FlightRecorder::cheap(w, 100.0),
        };
        let start = Instant::now();
        let (metrics, ran) = cfg.run_traced(&mut recorder).expect("scenario completes");
        let elapsed = start.elapsed().as_secs_f64();
        recorder.finish(metrics.makespan);
        seconds += elapsed;
        events += ran;
        if elapsed > 0.0 {
            best = best.max(ran as f64 / elapsed);
        }
        assert!(
            metrics.is_consistent(),
            "{}: work conservation violated",
            spec.name
        );
    }
    Measurement {
        name: spec.name,
        events,
        seconds,
        best_events_per_sec: best,
    }
}

/// Run each scenario once under [`ProfileOnly`] and return the
/// per-event-class JSON blocks.
fn profile_all(jobs: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"benchmark\": \"perf_core --profile\",\n  \"jobs_per_run\": {jobs},\n  \"note\": \"host nanoseconds per SchedEvent class under a profiling-only tracer (no record buffering)\",\n  \"scenarios\": [\n"
    ));
    let specs = scenarios();
    for (i, spec) in specs.iter().enumerate() {
        let owner = OwnerWorkload::continuous_exponential(10.0, spec.utilization)
            .expect("valid owner utilization");
        let mut cfg = SchedConfig::homogeneous(spec.workstations, &owner, jobs_for(spec, jobs, 0));
        cfg.gang = spec.gang;
        cfg.eviction = spec.eviction;
        cfg.seed = SEED;
        cfg.max_events = 200_000_000;
        let mut tracer = ProfileOnly::default();
        let (metrics, ran) = cfg.run_traced(&mut tracer).expect("scenario completes");
        assert!(metrics.is_consistent(), "{}: inconsistent", spec.name);
        assert_eq!(
            tracer.0.total_count(),
            ran,
            "{}: profiler count mismatch",
            spec.name
        );
        let comma = if i + 1 == specs.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {ran}, \"profile\": {}}}{comma}\n",
            spec.name,
            tracer.0.to_json()
        ));
    }
    out.push_str("  ]\n}");
    out
}

/// Measure untraced vs cheap-tier vs full-recorder throughput per
/// scenario — the JSON that `BENCH_trace.json` records. The three
/// tiers are measured back to back per scenario (interleaved, not
/// batched) so machine drift hits all of them alike.
fn trace_overhead_json(jobs: usize, reps: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"benchmark\": \"perf_core --trace-json\",\n  \"jobs_per_run\": {jobs},\n  \"replications\": {reps},\n  \"note\": \"untraced = NoTrace (zero-cost path); cheap = FlightRecorder::cheap (lifecycle records, grid-throttled state, profiling off; counters and sketches exact); traced = full FlightRecorder (record buffer + metrics registry + profiler); best_events_per_sec per min-time methodology\",\n  \"scenarios\": [\n"
    ));
    let specs = scenarios();
    for (i, spec) in specs.iter().enumerate() {
        // Round-robin the tiers so a slow stretch on a shared machine
        // penalizes all three alike, then keep each tier's best round.
        let mut events = 0;
        let (mut plain, mut cheap, mut traced) = (0.0f64, 0.0f64, 0.0f64);
        for _round in 0..reps {
            let p = measure(spec, jobs, 1);
            events = p.events;
            plain = plain.max(p.events_per_sec());
            let c = measure_traced(spec, jobs, 1, Tier::Cheap);
            cheap = cheap.max(c.events_per_sec());
            let t = measure_traced(spec, jobs, 1, Tier::Full);
            traced = traced.max(t.events_per_sec());
        }
        let ratio_of = |eps: f64| {
            if eps > 0.0 {
                plain / eps
            } else {
                f64::INFINITY
            }
        };
        let comma = if i + 1 == specs.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {events}, \"untraced_events_per_sec\": {plain:.0}, \"cheap_events_per_sec\": {cheap:.0}, \"cheap_overhead_ratio\": {:.3}, \"traced_events_per_sec\": {traced:.0}, \"overhead_ratio\": {:.3}}}{comma}\n",
            spec.name,
            ratio_of(cheap),
            ratio_of(traced)
        ));
    }
    out.push_str("  ]\n}");
    out
}

fn baseline_for(name: &str) -> Option<f64> {
    BASELINE_EVENTS_PER_SEC
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, eps)| eps)
}

fn render_json(results: &[Measurement], jobs: usize, reps: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"jobs_per_run\": {jobs},\n  \"replications\": {reps},\n  \"note\": \"events and seconds are totals across replications; best_events_per_sec is the fastest single replication (min-time methodology)\",\n  \"scenarios\": [\n"
    ));
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"seconds\": {:.4}, \"best_events_per_sec\": {:.0}}}{comma}\n",
            m.name,
            m.events,
            m.seconds,
            m.events_per_sec()
        ));
    }
    out.push_str("  ]\n}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = ["--smoke", "--json", "--profile", "--trace-json"];
    if args.iter().any(|a| !known.contains(&a.as_str())) {
        eprintln!("usage: perf_core [--smoke] [--json] [--profile] [--trace-json]");
        std::process::exit(2);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_only = args.iter().any(|a| a == "--json");
    let profile = args.iter().any(|a| a == "--profile");
    let trace_json = args.iter().any(|a| a == "--trace-json");

    if profile {
        println!("{}", profile_all(2_000));
        return;
    }
    if trace_json {
        println!("{}", trace_overhead_json(2_000, 5));
        return;
    }
    let (jobs, reps) = if smoke { (200, 3) } else { (8_000, 5) };
    let results: Vec<Measurement> = scenarios()
        .iter()
        .map(|spec| measure(spec, jobs, reps))
        .collect();

    if smoke {
        // Debug builds are an order of magnitude off the release
        // baseline, so the floor guard only arms in release.
        let guard = !cfg!(debug_assertions);
        for m in &results {
            assert!(m.events > 0, "{}: no events executed", m.name);
            assert!(m.events_per_sec() > 0.0, "{}: zero throughput", m.name);
            let floor = baseline_for(m.name).map_or(0.0, |eps| eps * SMOKE_FLOOR_FRAC);
            if guard {
                assert!(
                    m.events_per_sec() >= floor,
                    "{}: {:.0} events/sec below the regression floor {:.0} \
                     ({}x the BENCH_core.json baseline)",
                    m.name,
                    m.events_per_sec(),
                    floor,
                    SMOKE_FLOOR_FRAC
                );
            }
            println!(
                "smoke {:<20} {:>9} events  {:>12.0} events/sec  (floor {:>12.0}{})",
                m.name,
                m.events,
                m.events_per_sec(),
                floor,
                if guard { "" } else { ", unarmed: debug build" }
            );
        }
        println!(
            "perf_core --smoke: all {} scenarios nonzero{}",
            results.len(),
            if guard {
                " and above the baseline floor"
            } else {
                ""
            }
        );
        return;
    }

    if !json_only {
        println!(
            "{:<20} {:>12} {:>10} {:>14}",
            "scenario", "events", "seconds", "events/sec"
        );
        for m in &results {
            println!(
                "{:<20} {:>12} {:>10.3} {:>14.0}",
                m.name,
                m.events,
                m.seconds,
                m.events_per_sec()
            );
        }
        println!();
    }
    println!("{}", render_json(&results, jobs, reps));
}
