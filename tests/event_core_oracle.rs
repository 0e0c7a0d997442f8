//! The event-core oracle: golden `Debug` bytes recorded from the
//! closure-calendar engines, which the typed-calendar engines
//! (`nds_des::Calendar<E>`) must reproduce **bit-for-bit**.
//!
//! Four families of sections are pinned:
//! * scheduler `SchedMetrics`, recorded before `nds-sched` moved onto
//!   `Calendar<SchedEvent>`;
//! * the continuous-time cluster simulators (`ContinuousWorkstation`,
//!   `SmpWorkstation`, `MultiJobExperiment`), recorded before they
//!   moved onto private `Calendar` event enums;
//! * least-loaded placement on pools of 160–256 machines, recorded
//!   from the linear candidate scan before `Pool` gained its indexed
//!   heap, which only pools of 128 machines or more use;
//! * random and round-robin placement (and a partial gang under
//!   random placement) on a 200-machine pool, recorded before `Pool`
//!   replaced its machine-ordered candidate slice with a bitset.
//!
//! The four `*_streamed` sections were re-recorded when
//! `Calendar::schedule_sorted` gained its tie band, which made a
//! streamed run equal its materialized run at exact-time ties; each is
//! first checked against the materialized run of the same jobs.
//!
//! Every section is compared as `Debug` strings, and `f64`'s `Debug`
//! prints the shortest string that round-trips, so byte equality here
//! is bit equality of every float in every metric (including each
//! per-job completion record and task outcome).
//!
//! Regenerate (only when *intentionally* changing simulator
//! semantics) with:
//!
//! ```text
//! NDS_REGEN_GOLDEN=1 cargo test -q --test event_core_oracle
//! ```

use nds::sched::{
    EvictionPolicy, FailureModel, GangPolicy, JobSpec, PlacementKind, QueueDiscipline, SchedConfig,
    SchedMetrics, VecFeed,
};
use nds_cluster::continuous::ContinuousWorkstation;
use nds_cluster::multi::{self, MultiJobExperiment};
use nds_cluster::owner::OwnerWorkload;
use nds_cluster::smp::SmpWorkstation;
use nds_cluster::task::TaskOutcome;
use nds_stats::rng::Xoshiro256StarStar;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/event_core_oracle.txt";

fn owner(u: f64) -> OwnerWorkload {
    OwnerWorkload::continuous_exponential(10.0, u).unwrap()
}

/// A mid-size gang workload: three jobs of different widths arriving
/// staggered on a 12-machine pool at 15% owner utilization.
fn mid_size_gang_config() -> SchedConfig {
    let mut cfg = SchedConfig::homogeneous(
        12,
        &owner(0.15),
        vec![
            JobSpec::at_zero(6, 90.0),
            JobSpec {
                tasks: 8,
                task_demand: 45.0,
                arrival: 40.0,
            },
            JobSpec {
                tasks: 3,
                task_demand: 120.0,
                arrival: 75.0,
            },
            JobSpec {
                tasks: 5,
                task_demand: 60.0,
                arrival: 130.0,
            },
        ],
    );
    cfg.seed = 0x0DD5;
    cfg
}

/// Every (name, config) pair pinned by the golden file.
fn scenarios() -> Vec<(&'static str, SchedConfig)> {
    let mut out = Vec::new();

    let mut suspend = mid_size_gang_config();
    suspend.gang = GangPolicy::SuspendAll;
    out.push(("gang_suspend_all", suspend));

    let mut migrate = mid_size_gang_config();
    migrate.gang = GangPolicy::MigrateAll { overhead: 2.0 };
    migrate.discipline = QueueDiscipline::SjfBackfill;
    out.push(("gang_migrate_all_sjf", migrate));

    let mut partial = mid_size_gang_config();
    partial.gang = GangPolicy::Partial { min_running: 2 };
    out.push(("gang_partial_floor2", partial));

    let mut frac = mid_size_gang_config();
    frac.gang = GangPolicy::PartialFrac {
        min_running_frac: 0.5,
    };
    frac.placement = PlacementKind::Random;
    out.push(("gang_partial_frac_random", frac));

    // Independent tasks under every eviction policy, staggered stream.
    let stream = JobSpec::stream(10, 4, 35.0, 20.0);
    for (name, eviction) in [
        ("indep_suspend_resume", EvictionPolicy::SuspendResume),
        ("indep_restart", EvictionPolicy::Restart),
        ("indep_migrate", EvictionPolicy::Migrate { overhead: 3.0 }),
        (
            "indep_checkpoint",
            EvictionPolicy::Checkpoint {
                interval: 15.0,
                overhead: 0.5,
            },
        ),
    ] {
        let mut cfg = SchedConfig::homogeneous(8, &owner(0.20), stream.clone());
        cfg.eviction = eviction;
        cfg.seed = 0xBEEF;
        out.push((name, cfg));
    }

    // Calibrated estimators + admission threshold + SJF + round-robin:
    // exercises the probe/placement paths the other scenarios skip.
    let mut fenced = SchedConfig::homogeneous(10, &owner(0.25), JobSpec::stream(8, 5, 40.0, 30.0));
    fenced.placement = PlacementKind::RoundRobin;
    fenced.discipline = QueueDiscipline::SjfBackfill;
    fenced.calibration_horizon = 2_000.0;
    fenced.admission_threshold = 0.6;
    fenced.seed = 0xFACE;
    out.push(("indep_calibrated_fenced", fenced));

    // Closed job lists whose arrivals are out of submission order: the
    // engine must schedule each arrival individually (no sorted
    // backlog), and per-job records stay indexed by submission order.
    let unsorted: Vec<JobSpec> = [
        (3, 30.0, 180.0),
        (5, 25.0, 20.0),
        (2, 60.0, 140.0),
        (4, 35.0, 0.0),
        (1, 80.0, 100.0),
        (6, 20.0, 60.0),
        (3, 45.0, 160.0),
        (2, 30.0, 40.0),
    ]
    .into_iter()
    .map(|(tasks, task_demand, arrival)| JobSpec {
        tasks,
        task_demand,
        arrival,
    })
    .collect();
    let mut indep = SchedConfig::homogeneous(8, &owner(0.20), unsorted);
    indep.eviction = EvictionPolicy::Restart;
    indep.seed = 0x5047;
    out.push(("indep_unsorted_arrivals", indep));

    let mut gang = mid_size_gang_config();
    gang.jobs.reverse();
    gang.jobs.swap(0, 2);
    gang.gang = GangPolicy::Partial { min_running: 2 };
    out.push(("gang_unsorted_arrivals", gang));

    out
}

/// Consecutive `run_task` outcomes from one caller RNG stream.
fn tasks(run: impl Fn(&mut Xoshiro256StarStar) -> TaskOutcome, seed: u64) -> Vec<TaskOutcome> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..8).map(|_| run(&mut rng)).collect()
}

/// The cluster simulators' sections: every owner family on the
/// single-CPU workstation, both SMP regimes (the 2-CPU/4-owner machine
/// queues owner bursts behind each other and promotes them), and the
/// multi-job station with simultaneous and staggered arrivals.
fn cluster_sections() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (name, owner) in [
        ("continuous_exponential", owner(0.20)),
        (
            "continuous_long_jobs",
            OwnerWorkload::with_long_jobs(2.0, 300.0, 0.2, 0.3).unwrap(),
        ),
        (
            "continuous_high_variance",
            OwnerWorkload::high_variance(10.0, 0.15, 16.0).unwrap(),
        ),
    ] {
        let ws = ContinuousWorkstation::new(owner);
        out.push((
            name,
            format!("{:?}", tasks(|r| ws.run_task(400.0, r), 0xC0)),
        ));
    }

    let single = SmpWorkstation::new(1, owner(0.20));
    let shared = SmpWorkstation::with_owners(2, vec![owner(0.30); 4]);
    out.push((
        "smp_1cpu_1owner",
        format!("{:?}", tasks(|r| single.run_task(200.0, r), 0x5A)),
    ));
    out.push((
        "smp_2cpu_4owners",
        format!("{:?}", tasks(|r| shared.run_task(300.0, r), 0x5B)),
    ));

    let job = |task_demand: f64, arrival: f64| multi::JobSpec {
        task_demand,
        arrival,
    };
    for (name, jobs) in [
        ("multi_simultaneous", vec![job(80.0, 0.0); 3]),
        (
            "multi_staggered",
            vec![
                job(120.0, 0.0),
                job(40.0, 30.0),
                job(60.0, 75.0),
                job(25.0, 75.0),
            ],
        ),
    ] {
        let exp = MultiJobExperiment {
            jobs,
            workstations: 4,
            owner: owner(0.20),
            seed: 0x3B,
        };
        let runs: Vec<_> = (0..3).map(|rep| exp.run(rep)).collect();
        out.push((name, format!("{runs:?}")));
    }
    out
}

/// A deterministic mix of independent jobs: 1–8 tasks of 20–68 units,
/// one arriving every `gap` time units.
fn job_mix(jobs: u32, gap: f64) -> Vec<JobSpec> {
    (0..jobs)
        .map(|j| JobSpec {
            tasks: 1 + j * 5 % 8,
            task_demand: f64::from(20 + j * 13 % 49),
            arrival: f64::from(j) * gap,
        })
        .collect()
}

/// Run `cfg` on `jobs` through the streamed feed in chunks of `chunk`,
/// splicing the retired records back into the metrics, which must
/// equal the materialized run of the same jobs before the golden bytes
/// are compared.
fn streamed(cfg: &SchedConfig, jobs: Vec<JobSpec>, chunk: usize) -> SchedMetrics {
    let materialized = SchedConfig {
        jobs: jobs.clone(),
        ..cfg.clone()
    }
    .run()
    .expect("materialized oracle scenario completes");
    let mut records = Vec::new();
    let (mut metrics, _events) = cfg
        .run_streamed(&mut VecFeed::new(jobs), chunk, &mut |_, record| {
            records.push(record)
        })
        .expect("streamed oracle scenario completes");
    metrics.jobs = records;
    assert!(
        metrics == materialized,
        "a streamed section diverged from the materialized run of its jobs"
    );
    metrics
}

/// Least-loaded placement on pools large enough for `Pool`'s indexed
/// heap: a streamed independent-task day, the same day with crashes,
/// seeded estimates and an admission threshold that machines cross
/// both ways, and a partial-gang stream that reaches the grower and
/// gang admission. Then the same kinds of runs under random and
/// round-robin placement on 200 machines, whose picks walk a candidate
/// set of four 64-machine words.
fn large_pool_sections() -> Vec<(&'static str, SchedMetrics)> {
    let mut out = Vec::new();

    let mut indep = SchedConfig::homogeneous(256, &owner(0.20), Vec::new());
    indep.seed = 0x1EA5;
    out.push((
        "indep_256_least_loaded_streamed",
        streamed(&indep, job_mix(400, 1.5), 48),
    ));

    // Owners from 10% to 70% busy under a short estimator window, so
    // estimates cross the 0.6 threshold in both directions.
    let owners = (0..256)
        .map(|i| owner(0.10 + 0.20 * f64::from(i % 4)))
        .collect();
    let mut faults = SchedConfig::homogeneous(1, &owner(0.20), Vec::new());
    faults.owners = owners;
    faults.failures = Some(FailureModel::exponential(300.0, 40.0).unwrap());
    faults.calibration_horizon = 500.0;
    faults.admission_threshold = 0.6;
    faults.estimator_tau = 40.0;
    faults.seed = 0xFA17;
    out.push((
        "indep_256_faults_fenced_streamed",
        streamed(&faults, job_mix(400, 2.0), 48),
    ));

    let gangs: Vec<JobSpec> = (0..60)
        .map(|j| JobSpec {
            tasks: 3 + j * 17 % 48,
            task_demand: f64::from(30 + j * 11 % 40),
            arrival: f64::from(j) * 3.0,
        })
        .collect();
    let mut gang = SchedConfig::homogeneous(160, &owner(0.25), gangs.clone());
    gang.gang = GangPolicy::Partial { min_running: 2 };
    gang.seed = 0x6A46;
    out.push((
        "gang_160_partial_floor2",
        gang.run().expect("gang oracle completes"),
    ));

    // Random and round-robin placement on a 200-machine pool: more
    // than one 64-machine word of `Pool`'s candidate set, the last one
    // partial.
    let mut random = SchedConfig::homogeneous(200, &owner(0.20), Vec::new());
    random.placement = PlacementKind::Random;
    random.seed = 0x2A4D;
    out.push((
        "indep_200_random_streamed",
        streamed(&random, job_mix(400, 1.5), 48),
    ));

    let owners = (0..200)
        .map(|i| owner(0.10 + 0.20 * f64::from(i % 4)))
        .collect();
    let mut rr = SchedConfig::homogeneous(1, &owner(0.20), Vec::new());
    rr.owners = owners;
    rr.placement = PlacementKind::RoundRobin;
    rr.calibration_horizon = 500.0;
    rr.admission_threshold = 0.6;
    rr.estimator_tau = 40.0;
    rr.seed = 0x0B0B;
    out.push((
        "indep_200_round_robin_fenced_streamed",
        streamed(&rr, job_mix(400, 2.0), 48),
    ));

    let mut gang = SchedConfig::homogeneous(200, &owner(0.25), gangs);
    gang.gang = GangPolicy::Partial { min_running: 2 };
    gang.placement = PlacementKind::Random;
    gang.seed = 0x6A47;
    out.push((
        "gang_200_partial_floor2_random",
        gang.run().expect("gang oracle completes"),
    ));
    out
}

fn render() -> String {
    let mut out = String::new();
    for (name, cfg) in scenarios() {
        let metrics = cfg.run().expect("oracle scenario completes");
        writeln!(out, "== {name}\n{metrics:?}").unwrap();
    }
    for (name, outcomes) in cluster_sections() {
        writeln!(out, "== {name}\n{outcomes}").unwrap();
    }
    for (name, metrics) in large_pool_sections() {
        writeln!(out, "== {name}\n{metrics:?}").unwrap();
    }
    out
}

#[test]
fn typed_calendar_reproduces_old_engine_metrics_bytes() {
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
        assert_eq!(got, want, "metrics diverged from the old-engine golden");
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "scenario list diverged from the golden file"
    );
}
