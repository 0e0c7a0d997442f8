//! Playground for the `nds-sched` cycle-stealing scheduler, built
//! through the unified `Sim` builder.
//!
//! Run with `cargo run --example scheduler_playground`.
//!
//! Three vignettes:
//! 1. the degenerate configuration that reproduces the paper's model,
//! 2. an eviction-policy shootout on a busy pool,
//! 3. a starved pool rescued by raising the admission threshold.

use nds::cluster::{JobRunner, OwnerWorkload};
use nds::core::sim::{closed, single_job, Sim};
use nds::sched::{EvictionPolicy, JobSpec, PlacementKind, QueueDiscipline};

fn main() {
    let owner = OwnerWorkload::continuous_exponential(10.0, 0.10).unwrap();

    // 1. Degenerate configuration: full-size pool, one task per
    //    machine, suspend-resume => the paper's model, bit-for-bit:
    //    the scheduler engine reproduces the JobRunner's job time.
    let w = 8;
    let demand = 300.0;
    let seed = 0x5EED;
    let report = Sim::pool(w)
        .owners(&owner)
        .workload(single_job(w, demand))
        .seed(seed)
        .run()
        .unwrap();
    let baseline = JobRunner::new(seed).run_continuous_job(&owner, demand, w, 0);
    println!("1) degenerate config vs JobRunner");
    println!("   scheduler makespan : {:.6}", report.mean_makespan());
    println!("   JobRunner job time : {:.6}", baseline.job_time());
    println!(
        "   difference         : {:.2e}\n",
        (report.mean_makespan() - baseline.job_time()).abs()
    );

    // 2. Eviction shootout: 4 jobs x 16 tasks on 16 stations at 20%
    //    owner utilization.
    println!("2) eviction policies on a busy pool (W=16, U=20%)");
    let busy = OwnerWorkload::continuous_exponential(10.0, 0.20).unwrap();
    for eviction in [
        EvictionPolicy::SuspendResume,
        EvictionPolicy::Restart,
        EvictionPolicy::Migrate { overhead: 5.0 },
        EvictionPolicy::Checkpoint {
            interval: 30.0,
            overhead: 1.0,
        },
    ] {
        let report = Sim::pool(16)
            .owners(&busy)
            .workload(closed(JobSpec::stream(4, 16, 120.0, 50.0)))
            .eviction(eviction)
            .placement(PlacementKind::LeastLoaded)
            .discipline(QueueDiscipline::SjfBackfill)
            .calibration(10_000.0)
            .run()
            .unwrap();
        let m = &report.runs[0];
        println!(
            "   {:<22} makespan {:>7.0}  goodput {:>5.1}%  wasted {:>6.0}  evictions {:>4}",
            eviction.label(),
            m.makespan,
            100.0 * m.goodput_fraction(),
            m.wasted,
            m.evictions
        );
        assert!(report.is_consistent());
    }

    // 3. Admission threshold: a mixed pool where hot machines are
    //    fenced out, then admitted.
    println!("\n3) admission threshold on a mixed pool (8 cool + 8 hot machines)");
    let cool = OwnerWorkload::continuous_exponential(10.0, 0.03).unwrap();
    let hot = OwnerWorkload::continuous_exponential(10.0, 0.45).unwrap();
    let owners: Vec<OwnerWorkload> = (0..16)
        .map(|i| if i < 8 { cool.clone() } else { hot.clone() })
        .collect();
    for threshold in [0.2, 1.0] {
        let report = Sim::pool(16)
            .owners(owners.clone())
            .workload(single_job(32, 60.0))
            .eviction(EvictionPolicy::Restart)
            .admission_threshold(threshold)
            .calibration(20_000.0)
            .run()
            .unwrap();
        let m = &report.runs[0];
        println!(
            "   threshold {:>4}: makespan {:>7.0}  wasted {:>6.0}  restarts {:>4}",
            threshold, m.makespan, m.wasted, m.restarts
        );
    }
    println!("   (fencing hot machines trades pool size for fewer lost executions)");
}
