//! Extension: long-running owner jobs (the paper's §5 open problem).
//!
//! Mix rare long owner jobs into the workload at a fixed 5% total
//! utilization and watch feasibility collapse even though utilization
//! is unchanged — the effect the paper says "must be solved if
//! distributed computing is to be feasible".
//!
//! Built through the unified `Sim` builder: this is the degenerate
//! closed configuration (one job, one task per station,
//! suspend-resume), where the scheduler engine reproduces the paper's
//! model bit-for-bit, and the 200 replications shard across scoped
//! threads (`.shards`) with byte-identical results to the serial sweep.
use nds_cluster::owner::OwnerWorkload;
use nds_core::report::Table;
use nds_core::sim::{single_job, Sim};

/// Replication shards (experiment-level parallelism; the engine stays
/// single-threaded and results splice back in replication order).
const SHARDS: usize = 8;

fn main() {
    let reps = 200u64;
    let w = 12u32;
    let task_demand = 300.0;
    let mut table = Table::new(format!(
        "Long owner jobs at fixed 5% utilization (W={w}, T={task_demand})"
    ))
    .headers(["long-job mix", "mean max task time", "p95 max task time"]);
    for (label, owner) in [
        (
            "none (short bursts only)",
            OwnerWorkload::continuous_exponential(5.0, 0.05).unwrap(),
        ),
        (
            "0.5% of bursts = 300 s",
            OwnerWorkload::with_long_jobs(5.0, 300.0, 0.005, 0.05).unwrap(),
        ),
        (
            "2% of bursts = 300 s",
            OwnerWorkload::with_long_jobs(5.0, 300.0, 0.02, 0.05).unwrap(),
        ),
        (
            "2% of bursts = 1200 s",
            OwnerWorkload::with_long_jobs(5.0, 1200.0, 0.02, 0.05).unwrap(),
        ),
    ] {
        let report = Sim::pool(w)
            .owners(owner)
            .workload(single_job(w, task_demand))
            .seed(99)
            .replications(reps)
            .shards(SHARDS)
            .run()
            .expect("degenerate runs complete");
        let mut times: Vec<f64> = report.runs.iter().map(|m| m.makespan).collect();
        times.sort_by(f64::total_cmp);
        let mean = times.iter().sum::<f64>() / reps as f64;
        let p95 = times[(reps as usize * 95) / 100];
        table.row([label.to_string(), format!("{mean:.1}"), format!("{p95:.1}")]);
    }
    print!("{}", table.render());
}
