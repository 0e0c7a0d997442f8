//! Gang scheduling vs independent-task scheduling on the paper's
//! workload.
//!
//! Run with `cargo run --example gang` (optionally
//! `-- --min-running F` to pick the partial-gang floor of vignette 4;
//! default 4).
//!
//! The paper's parallel job is barrier-synchronized: it only makes
//! progress while *all* tasks run at once. Its model nevertheless lets
//! each task finish on its own clock and takes the max — fine for the
//! one-job, one-task-per-station case, but silent about what
//! co-allocation costs once jobs queue for the pool. Four vignettes
//! make the difference concrete:
//!
//! 1. the paper's own workload (one job, one task per station) under
//!    both regimes — gang scheduling pays a barrier premium even here,
//! 2. a queued multi-job mix, where co-allocation also waits for enough
//!    simultaneously-free machines and fragments the pool,
//! 3. migrate-all as the middle ground: the gang moves as a unit
//!    instead of sleeping in place,
//! 4. partial gangs (Ousterhout-style co-scheduling): the job keeps
//!    computing at a degraded rate while at least `min_running` members
//!    hold machines — the bridge between 1's two extremes.

use nds::core::prelude::*;
use nds::core::sim::closed;

fn main() {
    // `--min-running F` sets vignette 4's co-scheduling floor
    // (clamped to >= 1, like every other surface; default 4).
    let args: Vec<String> = std::env::args().collect();
    let min_running: u32 = args
        .iter()
        .position(|a| a == "--min-running")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1);
    let w = 16u32;
    let owner = OwnerWorkload::continuous_exponential(10.0, 0.10).unwrap();

    // 1. The paper's workload: one job, one task per station.
    let single: Vec<JobSpec> = vec![JobSpec::at_zero(w, 300.0)];
    let run = |gang: GangPolicy, jobs: &[JobSpec]| {
        let report = Sim::pool(w)
            .owners(&owner)
            .gang(gang)
            .workload(closed(jobs.to_vec()))
            .seed(0x5EED)
            .replications(5)
            .run()
            .unwrap();
        assert!(report.is_consistent());
        assert!(report.runs.iter().all(|m| m.gang.lockstep_violations == 0));
        report
    };
    let independent = run(GangPolicy::Off, &single);
    let gang = run(GangPolicy::SuspendAll, &single);
    println!("1) the paper's workload (1 job x {w} tasks x 300, U=10%)");
    println!(
        "   independent tasks : makespan {:>6.1}  (each task finishes on its own clock)",
        independent.mean_makespan()
    );
    println!(
        "   gang suspend-all  : makespan {:>6.1}  (any owner return freezes all {w} tasks)",
        gang.mean_makespan()
    );
    println!(
        "   barrier premium   : {:.2}x, {:.0} member-time units stalled behind the barrier\n",
        gang.mean_makespan() / independent.mean_makespan(),
        gang.mean_barrier_stall()
    );

    // 2. A queued mix: 6 gangs of 8 on 16 stations.
    let mix = JobSpec::stream(6, 8, 90.0, 40.0);
    let independent = run(GangPolicy::Off, &mix);
    let gang = run(GangPolicy::SuspendAll, &mix);
    println!("2) queued gangs (6 jobs x 8 tasks x 90, arrivals every 40)");
    println!(
        "   independent tasks : makespan {:>6.1}  response {:>6.1}",
        independent.mean_makespan(),
        independent.mean_over(|m| m.mean_response_time())
    );
    println!(
        "   gang suspend-all  : makespan {:>6.1}  response {:>6.1}",
        gang.mean_makespan(),
        gang.mean_over(|m| m.mean_response_time())
    );
    println!(
        "   co-allocation wait {:.1}/gang, fragmentation {:.0} machine-time units\n",
        gang.mean_coalloc_wait(),
        gang.mean_fragmentation()
    );

    // 3. Migrate-all: the gang moves as a unit instead of sleeping.
    let migrate = run(GangPolicy::MigrateAll { overhead: 3.0 }, &mix);
    println!("3) migrate-all (setup 3.0/task) on the same mix");
    println!(
        "   makespan {:>6.1}, {:.1} whole-gang migrations/run, wasted CPU {:>5.1}",
        migrate.mean_makespan(),
        migrate.mean_over(|m| m.gang.gang_migrations as f64),
        migrate.mean_wasted()
    );
    println!(
        "   (suspend-all loses no work but strands every member behind one\n\
          \x20   owner; migrate-all pays setup tolls to chase free machines)\n"
    );

    // 4. Partial gangs: keep computing above a min_running floor.
    let partial = run(GangPolicy::Partial { min_running }, &mix);
    assert!(partial.runs.iter().all(|m| m.gang.floor_violations == 0));
    println!("4) partial gang (min_running {min_running} of 8) on the same mix");
    println!(
        "   makespan {:>6.1}  response {:>6.1}  (suspend-all: {:.1} / {:.1})",
        partial.mean_makespan(),
        partial.mean_over(|m| m.mean_response_time()),
        gang.mean_makespan(),
        gang.mean_over(|m| m.mean_response_time())
    );
    println!(
        "   degraded-mode time {:.1}/run, effective parallelism {:.2},\n\
         \x20   {:.1} whole-gang suspensions/run (vs {:.1} under suspend-all)",
        partial.mean_degraded_time(),
        partial.mean_effective_parallelism(),
        partial.mean_over(|m| m.gang.gang_suspensions as f64),
        gang.mean_over(|m| m.gang.gang_suspensions as f64)
    );
    println!(
        "   (an owner return now shaves the rate instead of freezing the\n\
         \x20   job; only dropping below the floor suspends the gang, so the\n\
         \x20   barrier premium shrinks toward the independent-task cost)"
    );
}
