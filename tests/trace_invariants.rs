//! Flight-recorder invariants: traced runs must *reconcile* with the
//! engine's own accounting, stay deterministic across shard counts,
//! and emit well-formed artifacts.
//!
//! The records in a trace carry only simulation state (host
//! nanoseconds live in the profiler, never in the JSONL/Chrome
//! output), so two runs of the same configuration — on one thread or
//! four — must produce byte-identical traces. That is the property
//! that makes traces diffable artifacts rather than log soup.

use nds::core::sim::{closed, poisson, JobShape, Sim, SyntheticTrace};
use nds::sched::{
    EventClass, FlightRecorder, GangPolicy, JobSpec, ObsKind, ProgressMeter, SchedConfig, SliceFeed,
};
use nds_cluster::owner::OwnerWorkload;

fn owner(u: f64) -> OwnerWorkload {
    OwnerWorkload::continuous_exponential(10.0, u).unwrap()
}

fn sched_sim(replications: u64, shards: usize) -> Sim {
    Sim::pool(16)
        .owners(owner(0.12))
        .workload(closed(JobSpec::stream(24, 4, 40.0, 8.0)))
        .seed(2024)
        .replications(replications)
        .shards(shards)
        .metrics_every(50.0)
        .build()
        .unwrap()
}

fn gang_sim(shards: usize) -> Sim {
    Sim::pool(16)
        .owners(owner(0.15))
        .workload(closed(JobSpec::stream(12, 6, 60.0, 20.0)))
        .gang(GangPolicy::SuspendAll)
        .seed(7)
        .replications(2)
        .shards(shards)
        .metrics_every(100.0)
        .build()
        .unwrap()
}

/// The trace's final state sample must agree with the metrics the
/// engine reports — goodput and wasted to 1e-9 — and the profiler must
/// have attributed every executed event exactly once.
#[test]
fn trace_reconciles_with_sched_metrics() {
    for flight in sched_sim(2, 1).run_flight().unwrap() {
        let last = flight.recorder.final_sample().expect("samples exist");
        assert!(
            (last.goodput - flight.metrics.goodput).abs() < 1e-9,
            "rep {}: trace goodput {} vs metrics {}",
            flight.replication,
            last.goodput,
            flight.metrics.goodput
        );
        assert!(
            (last.wasted - flight.metrics.wasted).abs() < 1e-9,
            "rep {}: trace wasted {} vs metrics {}",
            flight.replication,
            last.wasted,
            flight.metrics.wasted
        );
        assert_eq!(
            flight.recorder.profiler().total_count(),
            flight.events,
            "rep {}: profiler must count every executed event",
            flight.replication
        );
        assert!(flight.events > 0 && !flight.recorder.events().is_empty());
    }
}

/// Gang traces reconcile too — the gang engine threads the tracer
/// through a different set of handlers (co-allocation, suspend-all
/// reclaim, partial floors).
#[test]
fn gang_trace_reconciles() {
    for flight in gang_sim(1).run_flight().unwrap() {
        let last = flight.recorder.final_sample().expect("samples exist");
        assert!((last.goodput - flight.metrics.goodput).abs() < 1e-9);
        assert!((last.wasted - flight.metrics.wasted).abs() < 1e-9);
        assert_eq!(flight.recorder.profiler().total_count(), flight.events);
    }
}

/// A flight-recorded run must report the same metrics as the untraced
/// engine: tracing observes, never perturbs. `Debug` formatting of
/// `SchedMetrics` round-trips every float, so string equality is bit
/// equality.
#[test]
fn traced_metrics_bit_identical_to_untraced() {
    let sim = sched_sim(2, 1);
    let report = sim.run().unwrap();
    let flights = sim.run_flight().unwrap();
    assert_eq!(report.runs.len(), flights.len());
    for (plain, flight) in report.runs.iter().zip(&flights) {
        assert_eq!(
            format!("{plain:?}"),
            format!("{:?}", flight.metrics),
            "rep {}",
            flight.replication
        );
    }
}

/// Satellite 2: shards(1) and shards(4) must produce byte-identical
/// artifacts for every replication — JSONL, Chrome JSON, metrics
/// time-series, and the event counts (host-time profiles are excluded:
/// they are the one artifact allowed to vary across runs).
#[test]
fn traces_byte_identical_across_shards() {
    let serial = sched_sim(4, 1).run_flight().unwrap();
    let sharded = sched_sim(4, 4).run_flight().unwrap();
    assert_eq!(serial.len(), sharded.len());
    for (a, b) in serial.iter().zip(&sharded) {
        assert_eq!(a.replication, b.replication);
        assert_eq!(a.events, b.events, "rep {}", a.replication);
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "rep {}", a.replication);
        assert_eq!(
            a.to_chrome_json(),
            b.to_chrome_json(),
            "rep {}",
            a.replication
        );
        assert_eq!(a.metrics_json(), b.metrics_json(), "rep {}", a.replication);
    }

    let serial = gang_sim(1).run_flight().unwrap();
    let sharded = gang_sim(2).run_flight().unwrap();
    for (a, b) in serial.iter().zip(&sharded) {
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "gang rep {}", a.replication);
        assert_eq!(
            a.to_chrome_json(),
            b.to_chrome_json(),
            "gang rep {}",
            a.replication
        );
    }
}

/// Every JSONL line is a single flat JSON object with the two fields
/// every record shares: a finite timestamp and a type tag.
#[test]
fn jsonl_schema_sanity() {
    let flights = sched_sim(1, 1).run_flight().unwrap();
    let jsonl = flights[0].to_jsonl();
    let mut lines = 0usize;
    for line in jsonl.lines() {
        lines += 1;
        assert!(
            line.starts_with("{\"t\":") && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
        assert!(
            line.contains("\"type\":\""),
            "record missing type tag: {line}"
        );
        let t: f64 = line["{\"t\":".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("timestamp parses");
        assert!(t.is_finite() && t >= 0.0, "bad timestamp in: {line}");
    }
    assert_eq!(lines, flights[0].recorder.events().len());
}

/// The Chrome trace must be one JSON object with a `traceEvents`
/// array, per-machine track names, and span begin/end balance per
/// track (every B has a matching E).
#[test]
fn chrome_trace_well_formed() {
    let flights = sched_sim(1, 1).run_flight().unwrap();
    let chrome = flights[0].to_chrome_json();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with("]}"));
    assert!(chrome.contains("\"thread_name\""));
    assert!(chrome.contains("machine 0"));
    let begins = chrome.matches("\"ph\":\"B\"").count();
    let ends = chrome.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "unbalanced span begin/end");
    assert!(begins > 0, "expected at least one segment span");
}

/// Pull the `samples` array of one named series out of the registry
/// JSON. A ten-line parser beats depending on serde for one test.
fn series_samples(json: &str, name: &str) -> Vec<f64> {
    let at = json
        .find(&format!("\"name\":\"{name}\""))
        .unwrap_or_else(|| panic!("missing series {name}"));
    let tail = &json[at..];
    let start = tail.find("\"samples\":[").expect("samples array") + "\"samples\":[".len();
    let end = tail[start..].find(']').expect("closing bracket") + start;
    tail[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("sample parses"))
        .collect()
}

/// The metrics registry exports all eleven series — seven gauges and
/// counters plus the four quantile-sketch histograms — on a shared
/// tick grid that ends at the makespan, and its counters are monotone.
#[test]
fn metrics_registry_series_complete() {
    let flights = sched_sim(1, 1).run_flight().unwrap();
    let flight = &flights[0];
    let json = flight.metrics_json();
    for series in [
        "queue_depth",
        "free_machines",
        "running_gangs",
        "degraded_gangs",
        "pending_events",
        "goodput",
        "wasted",
        "response",
        "queue_wait",
        "slowdown",
        "coalloc_wait",
    ] {
        assert_eq!(
            series_samples(&json, series).len(),
            flight.recorder.registry().ticks().len(),
            "series {series} must align with the tick grid"
        );
    }
    let ticks = flight.recorder.registry().ticks();
    assert!(
        ticks.windows(2).all(|w| w[1] > w[0]),
        "ticks strictly increase"
    );
    assert!(
        (ticks.last().unwrap() - flight.metrics.makespan).abs() < 1e-12,
        "grid must end at the makespan"
    );
    for name in ["goodput", "wasted"] {
        let samples = series_samples(&json, name);
        assert!(
            samples.windows(2).all(|w| w[1] >= w[0] - 1e-12),
            "{name} must be monotone non-decreasing"
        );
    }
    // Histogram series sample the cumulative observation count — also
    // monotone — and declare their kind in the export.
    assert!(
        json.contains("\"kind\":\"histogram\""),
        "histogram series must be tagged in the metrics JSON"
    );
    for name in ["response", "queue_wait", "slowdown"] {
        let samples = series_samples(&json, name);
        assert!(
            samples.windows(2).all(|w| w[1] >= w[0]),
            "{name} observation count must be monotone non-decreasing"
        );
        assert!(
            *samples.last().unwrap() > 0.0,
            "{name} must record at least one observation"
        );
    }
}

/// Tentpole oracle: the quantile sketches are deterministic down to
/// the bucket level. Two runs of the same configuration must produce
/// bit-identical bucket maps, counts, and extrema for every
/// observation kind — the property that makes sketch output diffable
/// across machines and shard counts.
#[test]
fn sketch_buckets_bit_identical_across_runs() {
    let a = sched_sim(2, 1).run_flight().unwrap();
    let b = sched_sim(2, 4).run_flight().unwrap();
    assert_eq!(a.len(), b.len());
    for (fa, fb) in a.iter().zip(&b) {
        for kind in ObsKind::ALL {
            let (sa, sb) = (fa.recorder.sketch(kind), fb.recorder.sketch(kind));
            assert_eq!(
                sa.buckets().collect::<Vec<_>>(),
                sb.buckets().collect::<Vec<_>>(),
                "rep {}: {} buckets must be bit-identical",
                fa.replication,
                kind.name()
            );
            assert_eq!(sa.count(), sb.count());
            assert_eq!(
                sa.min().map(f64::to_bits),
                sb.min().map(f64::to_bits),
                "rep {}: {} min",
                fa.replication,
                kind.name()
            );
            assert_eq!(
                sa.max().map(f64::to_bits),
                sb.max().map(f64::to_bits),
                "rep {}: {} max",
                fa.replication,
                kind.name()
            );
        }
    }
}

fn cheap_sim(shards: usize) -> Sim {
    Sim::pool(16)
        .owners(owner(0.12))
        .workload(closed(JobSpec::stream(24, 4, 40.0, 8.0)))
        .seed(2024)
        .replications(3)
        .shards(shards)
        .metrics_every(50.0)
        .trace_cheap(true)
        .build()
        .unwrap()
}

fn ring_sim(shards: usize) -> Sim {
    Sim::pool(16)
        .owners(owner(0.12))
        .workload(closed(JobSpec::stream(24, 4, 40.0, 8.0)))
        .seed(2024)
        .replications(3)
        .shards(shards)
        .metrics_every(50.0)
        .trace_capacity(64)
        .build()
        .unwrap()
}

/// The shard-count byte-identity oracle must survive the filtered
/// cheap tier: 1-in-N sampling is keyed on per-class sequence
/// counters, never on host state, so shards(1) and shards(4) emit the
/// same filtered records and the same sketch-backed metrics.
#[test]
fn cheap_traces_byte_identical_across_shards() {
    let serial = cheap_sim(1).run_flight().unwrap();
    let sharded = cheap_sim(4).run_flight().unwrap();
    assert_eq!(serial.len(), sharded.len());
    for (a, b) in serial.iter().zip(&sharded) {
        assert_eq!(a.replication, b.replication);
        assert_eq!(a.events, b.events, "rep {}", a.replication);
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "rep {}", a.replication);
        assert_eq!(a.metrics_json(), b.metrics_json(), "rep {}", a.replication);
        // The cheap filter really filters: fewer records than events.
        let kept = a.recorder.events().len() as u64;
        assert!(
            kept > 0 && kept < a.events,
            "rep {}: cheap tier kept {kept} of {} events",
            a.replication,
            a.events
        );
    }
}

/// Ring-buffer recording is deterministic too: the same records are
/// overwritten on one shard as on four, and the survivors plus the
/// overwritten count appear byte-identically in the artifacts.
#[test]
fn ring_traces_byte_identical_across_shards() {
    let serial = ring_sim(1).run_flight().unwrap();
    let sharded = ring_sim(4).run_flight().unwrap();
    assert_eq!(serial.len(), sharded.len());
    for (a, b) in serial.iter().zip(&sharded) {
        assert_eq!(a.replication, b.replication);
        assert_eq!(
            a.recorder.overwritten(),
            b.recorder.overwritten(),
            "rep {}",
            a.replication
        );
        assert!(
            a.recorder.overwritten() > 0,
            "rep {}: capacity 64 must force overwrites",
            a.replication
        );
        assert_eq!(a.recorder.events().len(), 64, "rep {}", a.replication);
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "rep {}", a.replication);
        assert_eq!(a.metrics_json(), b.metrics_json(), "rep {}", a.replication);
        assert!(
            a.metrics_json().contains("\"records_overwritten\":"),
            "overwrite count must be reported, never silent"
        );
    }
}

/// Open-stream traces reconcile as well, and the per-machine owner
/// tallies account for every owner arrival record.
#[test]
fn open_stream_trace_accounting() {
    let sim = Sim::pool(8)
        .owners(owner(0.10))
        .workload(poisson(0.02, JobShape::new(2, 30.0)).jobs(40).warmup(0))
        .seed(11)
        .metrics_every(200.0)
        .build()
        .unwrap();
    let flights = sim.run_flight().unwrap();
    let flight = &flights[0];
    let last = flight.recorder.final_sample().unwrap();
    assert!((last.goodput - flight.metrics.goodput).abs() < 1e-9);
    assert!((last.wasted - flight.metrics.wasted).abs() < 1e-9);
    let tallied: u64 = flight.recorder.owner_arrivals().iter().sum();
    let recorded = flight
        .recorder
        .events()
        .iter()
        .filter(|(_, r)| r.kind_name() == "owner_arrival")
        .count() as u64;
    assert_eq!(
        tallied, recorded,
        "per-machine tallies must cover every arrival"
    );
}

/// A sorted open job list lowered to the scheduler engine.
fn open_cfg() -> SchedConfig {
    Sim::pool(12)
        .owners(owner(0.10))
        .workload(poisson(0.05, JobShape::new(3, 30.0)).jobs(150).warmup(10))
        .seed(31)
        .build()
        .unwrap()
        .lower(0)
        .unwrap()
}

/// A streamed run traces exactly like the materialized run of the same
/// jobs, whatever the chunk size: the event log, the Chrome trace and
/// the metrics series (including `pending_events`, which counts the
/// live horizon and not the pre-sorted arrival backlog) are
/// byte-identical, and the profiler attributes every executed event.
#[test]
fn streamed_traces_byte_identical_to_materialized() {
    let cfg = open_cfg();
    let recorder = || FlightRecorder::new(cfg.owners.len(), 50.0);
    let mut want = recorder();
    let (metrics, events) = cfg.run_traced(&mut want).unwrap();
    want.finish(metrics.makespan);
    for chunk in [1, 7, 10_000] {
        let mut got = recorder();
        let mut records = Vec::new();
        let (mut streamed, streamed_events) = cfg
            .run_streamed_traced(
                &mut SliceFeed::new(&cfg.jobs),
                chunk,
                &mut |_, record| records.push(record),
                &mut got,
            )
            .unwrap();
        got.finish(streamed.makespan);
        assert_eq!(streamed_events, events, "chunk {chunk}");
        assert!(streamed.jobs.is_empty(), "records leave through the sink");
        streamed.jobs = records;
        assert_eq!(
            format!("{streamed:?}"),
            format!("{metrics:?}"),
            "chunk {chunk}"
        );
        assert_eq!(got.to_jsonl(), want.to_jsonl(), "chunk {chunk}");
        assert_eq!(got.to_chrome_json(), want.to_chrome_json(), "chunk {chunk}");
        assert_eq!(got.metrics_json(), want.metrics_json(), "chunk {chunk}");
        let per_class: u64 = EventClass::ALL
            .iter()
            .map(|&class| got.profiler().count(class))
            .sum();
        assert_eq!(per_class, streamed_events, "chunk {chunk}");
    }
}

/// The progress heartbeat sees every event of a streamed run.
#[test]
fn progress_meter_counts_every_streamed_event() {
    let cfg = open_cfg();
    // An hour-long beat period: the heartbeat never prints.
    let mut meter = ProgressMeter::new(3600.0);
    let (_, events) = cfg
        .run_streamed_traced(
            &mut SliceFeed::new(&cfg.jobs),
            7,
            &mut |_, _| {},
            &mut meter,
        )
        .unwrap();
    assert!(events > 0);
    assert_eq!(meter.events_seen(), events);
}

fn datacenter_sim(chunk: usize, shards: usize) -> Sim {
    let trace = SyntheticTrace::datacenter(12, 400);
    Sim::pool(trace.machines())
        .owners(trace.owners(21, 0).unwrap())
        .workload(trace)
        .stream_chunk(chunk)
        .seed(21)
        .replications(3)
        .shards(shards)
        .build()
        .unwrap()
}

/// `run_flight` streams when `stream_chunk > 0`: no job table is
/// materialized, shards(1) and shards(4) give the same bytes, and so
/// does the materialized flight of the same day.
#[test]
fn streamed_flights_byte_identical_across_shards_and_chunks() {
    let serial = datacenter_sim(7, 1).run_flight().unwrap();
    let sharded = datacenter_sim(7, 4).run_flight().unwrap();
    let materialized = datacenter_sim(0, 1).run_flight().unwrap();
    assert_eq!(serial.len(), 3);
    for ((a, b), m) in serial.iter().zip(&sharded).zip(&materialized) {
        let rep = a.replication;
        assert!(
            a.metrics.jobs.is_empty(),
            "rep {rep}: streamed flights keep no job table"
        );
        assert_eq!(m.metrics.jobs.len(), 400);
        for other in [b, m] {
            assert_eq!(a.events, other.events, "rep {rep}");
            assert_eq!(a.to_jsonl(), other.to_jsonl(), "rep {rep}");
            assert_eq!(a.to_chrome_json(), other.to_chrome_json(), "rep {rep}");
            assert_eq!(a.metrics_json(), other.metrics_json(), "rep {rep}");
        }
    }
}

fn gang_stream_sim(policy: GangPolicy, chunk: usize, shards: usize) -> Sim {
    // Integer arrivals ten apart and a demand of 20: a gang that starts
    // on arrival ends exactly when a later one arrives.
    Sim::pool(16)
        .owners(owner(0.10))
        .workload(closed(JobSpec::stream(40, 4, 20.0, 10.0)))
        .gang(policy)
        .stream_chunk(chunk)
        .seed(17)
        .replications(2)
        .shards(shards)
        .metrics_every(50.0)
        .build()
        .unwrap()
}

/// Gang runs stream too: their flights at shards(2) are byte-identical
/// to the materialized flight of the same jobs, exact-time ties
/// included, at any chunk size.
#[test]
fn streamed_gang_flights_byte_identical_to_materialized() {
    for policy in [
        GangPolicy::SuspendAll,
        GangPolicy::Partial { min_running: 2 },
    ] {
        let materialized = gang_stream_sim(policy, 0, 2).run_flight().unwrap();
        assert_eq!(materialized[0].metrics.jobs.len(), 40);
        for chunk in [1, 7] {
            let streamed = gang_stream_sim(policy, chunk, 2).run_flight().unwrap();
            assert_eq!(streamed.len(), 2);
            for (s, m) in streamed.iter().zip(&materialized) {
                let case = format!("{} chunk {chunk} rep {}", policy.label(), s.replication);
                assert!(s.metrics.jobs.is_empty(), "{case}: no job table");
                assert!(s.metrics.gang.gang_starts >= 40, "{case}");
                assert_eq!(s.events, m.events, "{case}");
                assert_eq!(s.to_jsonl(), m.to_jsonl(), "{case}");
                assert_eq!(s.to_chrome_json(), m.to_chrome_json(), "{case}");
                assert_eq!(s.metrics_json(), m.metrics_json(), "{case}");
            }
        }
    }
}
