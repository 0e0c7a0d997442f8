//! Extension: **machine failure injection**
//! (`Scenario::FaultyPool`) — the goodput-vs-availability frontier, a
//! figure family the paper never had.
//!
//! The paper's owner returns are benign: a suspend-resume guest waits
//! and loses nothing. Crashes are not benign — they destroy whatever
//! progress the eviction policy left unprotected, whatever the policy.
//! Sweeping MTBF x eviction policy therefore separates two prices that
//! owner-only experiments conflate: the *reclaim* price (restart losses,
//! checkpoint overhead under owner churn) and the *crash* price (work a
//! power cycle destroys). Suspend-resume, unbeatable under benign
//! reclaims, pays the full crash price; checkpointing pays a steady
//! overhead to bound it; adaptive eviction starts cheap and buys
//! protection only once a task has enough progress to be worth saving.
//!
//! Modes:
//!
//! * `ext_faults` — the full sweep: MTBF x eviction policy at the
//!   scenario's pool, with frontier tables (goodput rate, goodput
//!   fraction, crash losses) and a `perf_core`-shaped JSON block.
//! * `ext_faults --json` — the JSON block only (the committed
//!   `BENCH_faults.json` is this mode's output).
//! * `ext_faults --smoke` — CI gate: the small sweep replays
//!   byte-identically, `shards(1)` == `shards(4)` under failures, and a
//!   never-failing model is byte-identical to no model at all.
//!
//! Any other argument exits 2 with a one-line usage.

use nds_cluster::owner::OwnerWorkload;
use nds_core::report::Table;
use nds_core::scenario::Scenario;
use nds_core::sim::{Report, SimBuilder};
use nds_sched::{EvictionPolicy, FailureModel};

const REPS: u64 = 5;
const SEED: u64 = 0xFA17;

/// The scenario's builder with one point of the sweep applied (the
/// `.failures(...)` setter overrides the scenario's default model).
fn sim_at(scenario: &Scenario, mtbf: f64, eviction: EvictionPolicy) -> SimBuilder {
    let owner = OwnerWorkload::continuous_exponential(10.0, scenario.utilizations()[0])
        .expect("scenario utilizations are valid");
    let mttr = scenario.failure_mttr().expect("faulty-pool scenario");
    scenario
        .sim(&owner)
        .expect("faulty-pool scenario lowers to Sim")
        .eviction(eviction)
        .seed(SEED)
        .replications(REPS)
        .failures(FailureModel::exponential(mtbf, mttr).expect("sweep lifetimes valid"))
}

/// The same experiment with no failure model at all: the faulty pool
/// is `Scenario::SchedulerPool` plus crashes, so the scheduler-pool
/// lowering at the faulty pool's owner temperature is the genuine
/// pre-failure baseline.
fn baseline(scenario: &Scenario, eviction: EvictionPolicy) -> SimBuilder {
    let owner = OwnerWorkload::continuous_exponential(10.0, scenario.utilizations()[0])
        .expect("scenario utilizations are valid");
    Scenario::SchedulerPool
        .sim(&owner)
        .expect("scheduler-pool scenario lowers to Sim")
        .eviction(eviction)
        .seed(SEED)
        .replications(REPS)
}

fn run_at(scenario: &Scenario, mtbf: f64, eviction: EvictionPolicy) -> Report {
    let report = sim_at(scenario, mtbf, eviction)
        .run()
        .expect("faulty-pool runs complete");
    assert!(report.is_consistent(), "work conservation violated");
    report
}

/// Mean fraction of machine-time spent down across replications.
fn downtime_fraction(report: &Report) -> f64 {
    let w = f64::from(report.workstations);
    report.mean_over(|m| {
        if m.makespan == 0.0 {
            0.0
        } else {
            m.downtime / (w * m.makespan)
        }
    })
}

struct Cell {
    mtbf: f64,
    eviction: String,
    goodput_rate: f64,
    goodput_fraction: f64,
    crash_lost: f64,
    crashes: f64,
    availability: f64,
    makespan: f64,
}

fn sweep(scenario: &Scenario) -> Vec<Cell> {
    let mut cells = Vec::new();
    for policy in scenario.failure_eviction_policies() {
        for &mtbf in &scenario.failure_mtbfs() {
            let report = run_at(scenario, mtbf, policy);
            cells.push(Cell {
                mtbf,
                eviction: policy.label(),
                goodput_rate: report.mean_over(nds_sched::SchedMetrics::goodput_rate),
                goodput_fraction: report.mean_over(nds_sched::SchedMetrics::goodput_fraction),
                crash_lost: report.mean_over(|m| m.crash_lost),
                crashes: report.mean_over(|m| m.crashes as f64),
                availability: 1.0 - downtime_fraction(&report),
                makespan: report.mean_makespan(),
            });
        }
    }
    cells
}

fn json(scenario: &Scenario, cells: &[Cell]) {
    println!("{{");
    println!("  \"benchmark\": \"ext_faults\",");
    println!(
        "  \"note\": \"MTBF x eviction-policy frontier on {}; mttr {}, {} reps, seed {}; availability = 1 - downtime/(W*makespan)\",",
        scenario.figure_label(),
        scenario.failure_mttr().expect("faulty-pool scenario"),
        REPS,
        SEED
    );
    println!("  \"frontier\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        println!(
            "    {{\"eviction\": \"{}\", \"mtbf\": {}, \"availability\": {:.4}, \"goodput_rate\": {:.4}, \"goodput_fraction\": {:.4}, \"crash_lost\": {:.2}, \"crashes\": {:.1}, \"makespan\": {:.1}}}{comma}",
            c.eviction, c.mtbf, c.availability, c.goodput_rate, c.goodput_fraction,
            c.crash_lost, c.crashes, c.makespan
        );
    }
    println!("  ]");
    println!("}}");
}

fn tables(scenario: &Scenario, cells: &[Cell]) {
    let mtbfs = scenario.failure_mtbfs();
    let headers = || {
        let mut h = vec!["eviction policy".to_string()];
        h.extend(mtbfs.iter().map(|m| format!("MTBF={m}")));
        h
    };
    let mut rate = Table::new(format!(
        "{} - goodput per unit makespan by eviction policy (mttr {}, {} reps)",
        scenario.figure_label(),
        scenario.failure_mttr().expect("faulty-pool scenario"),
        REPS
    ))
    .headers(headers());
    let mut fraction =
        Table::new("goodput as a fraction of delivered CPU (same sweep)".to_string())
            .headers(headers());
    let mut lost = Table::new("mean CPU destroyed by crashes per run (same sweep)".to_string())
        .headers(headers());
    for policy in scenario.failure_eviction_policies() {
        let label = policy.label();
        let row: Vec<&Cell> = cells.iter().filter(|c| c.eviction == label).collect();
        rate.row(
            std::iter::once(label.clone())
                .chain(row.iter().map(|c| format!("{:.2}", c.goodput_rate)))
                .collect::<Vec<_>>(),
        );
        fraction.row(
            std::iter::once(label.clone())
                .chain(row.iter().map(|c| format!("{:.3}", c.goodput_fraction)))
                .collect::<Vec<_>>(),
        );
        lost.row(
            std::iter::once(label)
                .chain(row.iter().map(|c| format!("{:.0}", c.crash_lost)))
                .collect::<Vec<_>>(),
        );
    }
    print!("{}", rate.render());
    println!();
    print!("{}", fraction.render());
    println!();
    print!("{}", lost.render());
    // Availability is a property of the failure process, not the
    // policy: one row suffices.
    let mut avail =
        Table::new("observed availability (policy-independent)".to_string()).headers(headers());
    let first = scenario.failure_eviction_policies()[0].label();
    avail.row(
        std::iter::once("any".to_string())
            .chain(
                cells
                    .iter()
                    .filter(|c| c.eviction == first)
                    .map(|c| format!("{:.4}", c.availability)),
            )
            .collect::<Vec<_>>(),
    );
    println!();
    print!("{}", avail.render());
    println!(
        "\nSuspend-resume is unbeatable under benign reclaims but loses whole\n\
         executions to every crash; checkpointing pays steady overhead to\n\
         bound the rollback; adaptive eviction restarts young tasks for free\n\
         and buys checkpoint protection once progress is worth saving."
    );
}

fn smoke(scenario: &Scenario) -> Result<(), String> {
    let policy = EvictionPolicy::Adaptive {
        threshold: 30.0,
        interval: 30.0,
        overhead: 1.0,
    };
    // 1. The sweep point replays byte-identically.
    let a = run_at(scenario, 120.0, policy);
    let b = run_at(scenario, 120.0, policy);
    if a != b {
        return Err("failure sweep is not deterministic".into());
    }
    if a.runs.iter().map(|m| m.crashes).sum::<u64>() == 0 {
        return Err("mtbf 120 sweep point injected no crashes".into());
    }
    println!(
        "smoke replay           {} crashes over {} reps, byte-identical",
        a.runs.iter().map(|m| m.crashes).sum::<u64>(),
        REPS
    );
    // 2. Sharding never changes a failure run.
    let sharded = sim_at(scenario, 120.0, policy)
        .shards(4)
        .run()
        .expect("sharded faulty run completes");
    if a != sharded {
        return Err("shards(4) diverged from shards(1) under failures".into());
    }
    println!("smoke shards(1)==shards(4) under failures");
    // 3. A never-failing model is byte-identical to no model at all:
    //    the failure streams are drawn from their own labeled RNG
    //    streams, so arming them must not move any other sample path.
    let plain = baseline(scenario, policy)
        .run()
        .expect("baseline runs complete");
    let rare = sim_at(scenario, 1e12, policy)
        .run()
        .expect("rare-failure runs complete");
    if rare.runs.iter().any(|m| m.crashes != 0) {
        return Err("mtbf 1e12 crashed inside the horizon".into());
    }
    for (p, r) in plain.runs.iter().zip(&rare.runs) {
        if p.makespan != r.makespan
            || p.delivered != r.delivered
            || p.evictions != r.evictions
            || p.jobs != r.jobs
        {
            return Err("arming a never-failing model moved a sample path".into());
        }
    }
    println!("smoke no-failures == baseline (never-failing model moves nothing)");
    println!("ext_faults --smoke: determinism + sharding + baseline OK");
    Ok(())
}

fn main() {
    let scenario = Scenario::FaultyPool;
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a != "--smoke" && a != "--json") {
        eprintln!("usage: ext_faults [--smoke] [--json]");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--smoke") {
        if let Err(e) = smoke(&scenario) {
            eprintln!("ext_faults --smoke: {e}");
            std::process::exit(1);
        }
        return;
    }
    let cells = sweep(&scenario);
    if args.iter().any(|a| a == "--json") {
        json(&scenario, &cells);
        return;
    }
    tables(&scenario, &cells);
    println!();
    json(&scenario, &cells);
}
