//! Golden bytes for the trace-replay subsystem: the committed fixture
//! trace (`tests/data/datacenter_small.csv`) and a synthetic datacenter
//! day, each pushed through the **streaming** job feed, must reproduce
//! the recorded `SchedMetrics` **bit-for-bit** (Debug-formatted floats
//! print the shortest round-tripping string, so byte equality is bit
//! equality).
//!
//! This pins three things at once: the CSV parser (the fixture's rows
//! feed the engine verbatim), the synthetic generator's sample path
//! (a pure function of `(seed, replication)`), and the streamed
//! execution path itself.
//!
//! Regenerate (only when *intentionally* changing simulator or
//! generator semantics) with:
//!
//! ```text
//! NDS_REGEN_GOLDEN=1 cargo test -q --test trace_replay_golden
//! ```

use nds::core::sim::{SyntheticTrace, TraceWorkload, Workload};
use nds::sched::{SchedConfig, SchedMetrics};
use nds_cluster::owner::OwnerWorkload;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/trace_replay.txt";
const FIXTURE_PATH: &str = "tests/data/datacenter_small.csv";
const SEED: u64 = 0x7ACE;

fn config(owners: Vec<OwnerWorkload>) -> SchedConfig {
    SchedConfig {
        owners,
        seed: SEED,
        ..SchedConfig::default()
    }
}

/// Stream `workload` through the engine and splice the sink-collected
/// records back into the metrics, so the golden pins per-job floats
/// too.
fn stream(workload: &dyn Workload, owners: Vec<OwnerWorkload>, chunk: usize) -> SchedMetrics {
    let mut feed = workload.feed(SEED, 0).expect("workload feeds");
    let mut records = Vec::new();
    let (mut metrics, _events) = config(owners)
        .run_streamed(feed.as_mut(), chunk, &mut |_, record| records.push(record))
        .expect("streamed replay completes");
    assert!(metrics.jobs.is_empty(), "streamed metrics keep jobs empty");
    metrics.jobs = records;
    metrics
}

fn render() -> String {
    let mut out = String::new();

    let fixture = TraceWorkload::from_path(FIXTURE_PATH).expect("committed fixture parses");
    let homogeneous =
        vec![OwnerWorkload::continuous_exponential(10.0, 0.10).expect("valid owner"); 8];
    writeln!(
        out,
        "== fixture_stream\n{:?}",
        stream(&fixture, homogeneous, 16)
    )
    .unwrap();

    let day = SyntheticTrace::datacenter(16, 300);
    let owners = day.owners(SEED, 0).expect("valid owner mix");
    writeln!(out, "== synthetic_day\n{:?}", stream(&day, owners, 64)).unwrap();

    out
}

#[test]
fn streamed_replay_reproduces_golden_bytes() {
    let rendered = render();
    if std::env::var_os("NDS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &rendered).unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists (regenerate with NDS_REGEN_GOLDEN=1)");
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "streamed replay diverged from the golden");
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "scenario list diverged from the golden file"
    );
}

/// The replay is a pure function of its inputs: rendering twice in one
/// process gives the same bytes (fresh feeds, fresh calendars).
#[test]
fn streamed_replay_is_deterministic_across_runs() {
    assert_eq!(render(), render());
}
