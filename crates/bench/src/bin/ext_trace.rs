//! Extension: **trace-driven datacenter workloads**
//! (`Scenario::DatacenterTrace`) — million-job synthetic traces pushed
//! through the engine's streaming job feed.
//!
//! Modes:
//!
//! * `ext_trace` — the full run: a 1,000-machine x 1,000,000-job
//!   synthetic diurnal day streamed in bounded chunks, reported as
//!   events/sec (min-time over replications) plus the scenario-sized
//!   day and the 10,000-machine scale row, with peak RSS as the
//!   bounded-memory witness. Events, makespan and tasks are
//!   replication 0's, so they are the same on every run. Emits the
//!   same JSON shape as `perf_core` (`{"name", "events", "seconds",
//!   "best_events_per_sec"}` rows).
//! * `ext_trace --smoke` — small check-mode run for CI: replays the
//!   committed fixture (`tests/data/datacenter_small.csv`), verifies
//!   the streamed run is byte-identical to the materialized run and to
//!   a second streamed run, checks that chunk size changes nothing on
//!   a 32- and a 256-machine day (the latter large enough for the
//!   pool's least-loaded heap, and also checked against the
//!   materialized run), and checks every scenario counts events.
//! * `ext_trace --smoke --fixture PATH` — the same check mode with
//!   another CSV or JSONL trace in place of the committed fixture.
//!
//! Any other argument exits 2 with a one-line usage.
//!
//! The streaming path holds O(chunk + pool) job state: the feed is
//! pulled lazily in `chunk`-sized batches and each job's record is
//! retired the moment it completes, so the 1M-job day never
//! materializes its spec vector.

// A throughput benchmark exists to read the wall clock.
#![allow(clippy::disallowed_methods)]

use nds_cluster::owner::OwnerWorkload;
use nds_core::scenario::Scenario;
use nds_core::sim::{SimError, SyntheticTrace, TraceWorkload, Workload};
use nds_sched::{SchedConfig, SchedMetrics};
use std::time::Instant;

const SEED: u64 = 0x7ACE;

/// One streamed measurement: replication 0's executed-event count and
/// metrics, the wall-clock seconds of the fastest replication, and the
/// highest events/sec any replication reached.
struct Measurement {
    name: &'static str,
    events: u64,
    seconds: f64,
    best_events_per_sec: f64,
    metrics: SchedMetrics,
}

/// Lower a workload to a bare scheduler configuration around the given
/// owner population (no gang, defaults elsewhere).
fn config(owners: Vec<OwnerWorkload>, replication: u64) -> SchedConfig {
    SchedConfig {
        owners,
        seed: SEED,
        replication,
        max_events: 2_000_000_000,
        ..SchedConfig::default()
    }
}

/// Stream `workload` through the engine `reps` times. The simulated
/// columns come from replication 0, so every run prints the same ones;
/// the timing columns take the best replication (min-time methodology,
/// like `perf_core`), each rated on its own event count.
fn measure(
    name: &'static str,
    workload: &dyn Workload,
    owners: &[OwnerWorkload],
    chunk: usize,
    reps: u64,
) -> Result<Measurement, SimError> {
    let mut seconds = f64::MAX;
    let mut best_events_per_sec = 0.0_f64;
    let mut first: Option<(u64, SchedMetrics)> = None;
    for replication in 0..reps {
        let mut feed = workload.feed(SEED, replication)?;
        let cfg = config(owners.to_vec(), replication);
        let start = Instant::now();
        let (metrics, events) = cfg.run_streamed(feed.as_mut(), chunk, &mut |_, _| {})?;
        let elapsed = start.elapsed().as_secs_f64();
        seconds = seconds.min(elapsed);
        best_events_per_sec =
            best_events_per_sec.max(events as f64 / elapsed.max(f64::MIN_POSITIVE));
        first.get_or_insert((events, metrics));
    }
    let (events, metrics) = first.expect("at least one replication ran");
    Ok(Measurement {
        name,
        events,
        seconds,
        best_events_per_sec,
        metrics,
    })
}

/// Peak resident set size of this process in kilobytes, from
/// `/proc/self/status` (`None` off Linux) — the bounded-memory witness
/// for the million-job run.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The full-size day: 1,000,000 jobs on `machines` machines. On 1,000
/// machines it is sized to stay stable (offered load ~= 75% of the
/// pool's spare capacity) so that in-flight job state — and therefore
/// the streaming window — stays bounded: E\[tasks\]=4.5,
/// E\[demand\]~=13 => ~680 CPU-s/s offered against ~920 spare. On
/// 10,000 machines the same jobs leave most of the pool free, so every
/// placement chooses among thousands of candidates.
fn million_job_day(machines: u32) -> SyntheticTrace {
    SyntheticTrace::datacenter(machines, 1_000_000)
        .demands(1.5, 5.0, 500.0)
        .max_tasks(8)
}

/// Stream `workload` at `chunk` with the sink's records spliced back
/// into the metrics, and check the result against the materialized
/// run of the same jobs; return the streamed event count.
fn check_materialized(
    workload: &dyn Workload,
    owners: &[OwnerWorkload],
    chunk: usize,
) -> Result<u64, String> {
    // Streamed metrics keep `jobs` empty, so collect the per-job
    // records through the sink before comparing.
    let mut records = Vec::new();
    let mut feed = workload.feed(SEED, 0).map_err(|e| e.to_string())?;
    let (mut spliced, streamed_events) = config(owners.to_vec(), 0)
        .run_streamed(feed.as_mut(), chunk, &mut |_, record| records.push(record))
        .map_err(|e| e.to_string())?;
    spliced.jobs = records;
    let mut materialized = config(owners.to_vec(), 0);
    materialized.jobs = workload.generate(SEED, 0).map_err(|e| e.to_string())?;
    let (direct, direct_events) = materialized.run_counted().map_err(|e| e.to_string())?;
    if direct != spliced || direct_events != streamed_events {
        return Err(format!(
            "streamed {} diverged from the materialized run",
            workload.label()
        ));
    }
    Ok(streamed_events)
}

/// Stream a synthetic day at two chunk sizes, which must give the same
/// result (chunking is a pure execution strategy).
fn check_chunking(
    name: &'static str,
    day: &SyntheticTrace,
    chunks: [usize; 2],
) -> Result<Measurement, String> {
    let owners = day.owners(SEED, 0).map_err(|e| e.to_string())?;
    let coarse = measure(name, day, &owners, chunks[0], 1).map_err(|e| e.to_string())?;
    let fine = measure(name, day, &owners, chunks[1], 1).map_err(|e| e.to_string())?;
    if coarse.metrics != fine.metrics || coarse.events != fine.events {
        return Err(format!("chunk size changed the {name} result"));
    }
    if coarse.events == 0 {
        return Err(format!("{name} executed no events"));
    }
    Ok(coarse)
}

fn smoke(fixture: &str) -> Result<(), String> {
    // 1. The committed fixture replays, streamed == materialized.
    let trace = TraceWorkload::from_path(fixture).map_err(|e| format!("{fixture}: {e}"))?;
    let owners = vec![OwnerWorkload::continuous_exponential(10.0, 0.10).expect("valid owner"); 8];
    let streamed = measure("fixture_replay", &trace, &owners, 16, 1).map_err(|e| e.to_string())?;
    let again = measure("fixture_replay", &trace, &owners, 16, 1).map_err(|e| e.to_string())?;
    if streamed.metrics != again.metrics || streamed.events != again.events {
        return Err("fixture replay is not deterministic".into());
    }
    check_materialized(&trace, &owners, 16)?;
    println!(
        "smoke fixture_replay      {:>9} events  {:>12.0} events/sec  (== materialized)",
        streamed.events, streamed.best_events_per_sec
    );

    // 2. A small synthetic day streams at two chunk sizes to the same
    //    metrics.
    let small = check_chunking(
        "synthetic_small",
        &SyntheticTrace::datacenter(32, 2_000),
        [1_024, 64],
    )?;
    println!(
        "smoke synthetic_small     {:>9} events  {:>12.0} events/sec  (chunk-invariant)",
        small.events, small.best_events_per_sec
    );

    // 3. A pool large enough for the least-loaded heap: chunk-invariant
    //    and equal to the materialized run.
    let day = SyntheticTrace::datacenter(256, 4_000);
    let large = check_chunking("synthetic_256", &day, [1_024, 64])?;
    let owners = day.owners(SEED, 0).map_err(|e| e.to_string())?;
    check_materialized(&day, &owners, 64)?;
    println!(
        "smoke synthetic_256       {:>9} events  {:>12.0} events/sec  (chunk-invariant, == materialized)",
        large.events, large.best_events_per_sec
    );
    println!("ext_trace --smoke: fixture + synthetic days OK");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fixture = match args.as_slice() {
        [] => None,
        [smoke] if smoke == "--smoke" => Some("tests/data/datacenter_small.csv"),
        [smoke, flag, path] | [flag, path, smoke]
            if smoke == "--smoke" && flag == "--fixture" && !path.starts_with("--") =>
        {
            Some(path.as_str())
        }
        _ => {
            eprintln!("usage: ext_trace [--smoke [--fixture PATH]]");
            std::process::exit(2);
        }
    };
    if let Some(fixture) = fixture {
        if let Err(e) = smoke(fixture) {
            eprintln!("ext_trace --smoke: {e}");
            std::process::exit(1);
        }
        return;
    }

    let scenario = Scenario::DatacenterTrace;
    let mut rows = Vec::new();

    // The scenario-sized day (64 machines), replicated for min-time.
    let day = scenario.trace_generator().expect("trace scenario");
    let owners = day.owners(SEED, 0).expect("valid owner mix");
    let chunk = scenario.trace_stream_chunk().expect("trace scenario");
    rows.push(measure("scenario_day", &day, &owners, chunk, 3).expect("scenario day completes"));

    // The acceptance run: 1,000 machines x 1,000,000 jobs, one pass,
    // then the scale row: the same jobs on 10,000 machines.
    for (name, machines) in [("datacenter_1m", 1_000), ("datacenter_10k", 10_000)] {
        let day = million_job_day(machines);
        let day_owners = day.owners(SEED, 0).expect("valid owner mix");
        rows.push(measure(name, &day, &day_owners, 8_192, 1).expect("million-job day completes"));
    }

    println!(
        "{} — streaming trace replay (chunked feed, O(chunk + pool) memory)\n",
        scenario.figure_label()
    );
    for m in &rows {
        println!(
            "{:<16} {:>12} events  {:>8.2} s  {:>12.0} events/sec  (makespan {:.0}, {} tasks)",
            m.name,
            m.events,
            m.seconds,
            m.best_events_per_sec,
            m.metrics.makespan,
            m.metrics.completed_tasks,
        );
        assert!(
            m.metrics.jobs.is_empty(),
            "streamed runs must not materialize per-job records"
        );
    }
    if let Some(kb) = peak_rss_kb() {
        println!(
            "\npeak RSS: {:.1} MiB (bounded-memory witness)",
            kb as f64 / 1024.0
        );
    }

    // The perf_core-shaped JSON block, for BENCH_*.json records.
    println!("{{");
    println!("  \"benchmark\": \"ext_trace\",");
    println!(
        "  \"note\": \"streamed via SchedConfig::run_streamed; best_events_per_sec per min-time methodology\","
    );
    println!("  \"scenarios\": [");
    for (i, m) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{\"name\": \"{}\", \"events\": {}, \"seconds\": {:.4}, \"best_events_per_sec\": {:.0}}}{comma}",
            m.name, m.events, m.seconds, m.best_events_per_sec
        );
    }
    println!("  ]");
    println!("}}");
}
