//! The event-core oracle: golden `SchedMetrics` bytes recorded from
//! the closure-calendar engine (`nds_des::Engine`, pre-PR 5), which the
//! typed-calendar engine (`nds_des::Calendar<SchedEvent>`) must
//! reproduce **bit-for-bit**.
//!
//! The golden file was generated by the old engine before the zero-
//! allocation rewrite landed; every scenario's metrics are compared as
//! `Debug` strings, and `f64`'s `Debug` prints the shortest string
//! that round-trips, so byte equality here is bit equality of every
//! float in every metric (including each per-job completion record).
//!
//! Regenerate (only when *intentionally* changing simulator
//! semantics) with:
//!
//! ```text
//! NDS_REGEN_GOLDEN=1 cargo test -q --test event_core_oracle
//! ```

use nds::sched::{
    EvictionPolicy, GangPolicy, JobSpec, PlacementKind, QueueDiscipline, SchedConfig,
};
use nds_cluster::owner::OwnerWorkload;
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

fn render() -> String {
    let mut out = String::new();
    for (name, cfg) in scenarios() {
        let metrics = cfg.run().expect("oracle scenario completes");
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
