//! Workspace-level invariants of the gang-scheduling subsystem:
//!
//! 1. **Degenerate equivalence** — with the gang policy off, or with
//!    gangs of one task, the scheduler's output is **bit-for-bit**
//!    identical to the independent-task engine.
//! 2. **Boundary equivalence of partial gangs** — the `min_running`
//!    floor interpolates between the two existing engines, and at the
//!    boundaries it *is* them, bit-for-bit: `Partial { min_running: 1 }`
//!    on gangs of independent semantics (single-task gangs) equals
//!    `GangPolicy::Off`, and `Partial { min_running: k }` equals
//!    `SuspendAll` on arbitrary configurations — every float of every
//!    metric, across randomized pools, workloads, placements, and
//!    disciplines.
//! 3. **Lockstep / floor** — at every event, all tasks of an
//!    all-or-nothing job share one run/suspend state, and a partial
//!    gang never runs below its floor; the engine re-verifies both at
//!    every gang event and the property tests assert both violation
//!    counters stay zero across random configurations.
//! 4. **Work conservation** — gang runs keep
//!    `delivered == goodput + wasted + checkpoint_overhead` and finish
//!    with `goodput == total demand`, like every other policy.
//! 5. **Composition** — gangs work under open Poisson streams, and
//!    sharded replication sweeps reproduce the serial report exactly,
//!    including on the `Scenario::GangPool` lowering.
//!
//! The bit-for-bit checks all go through one shared oracle-comparison
//! harness ([`assert_matches_oracle`]) instead of per-test loops, so
//! every equivalence claim compares the same things the same way.

use nds::core::scenario::Scenario;
use nds::core::sim::{closed, poisson, JobShape, Sim};
use nds::sched::{
    EvictionPolicy, GangPolicy, GangStats, JobSpec, PlacementKind, QueueDiscipline, SchedConfig,
    SchedMetrics,
};
use nds_cluster::owner::OwnerWorkload;
use proptest::prelude::*;

fn owner(u: f64) -> OwnerWorkload {
    OwnerWorkload::continuous_exponential(10.0, u).unwrap()
}

/// Metrics with the gang block zeroed, for comparing gang runs against
/// the independent engine (everything else must match exactly).
fn strip_gang(m: SchedMetrics) -> SchedMetrics {
    SchedMetrics {
        gang: GangStats::default(),
        ..m
    }
}

/// Shared oracle-comparison harness: run `base` with `subject` as its
/// gang policy and again after `oracle` rewrites the config (typically
/// to another gang policy, or to the independent engine), then assert
/// the two reports are **bit-for-bit identical**. When the oracle is a
/// non-gang engine its report carries no gang block, so the subject's
/// gang-only metrics are stripped before comparing; gang-vs-gang
/// comparisons keep every field. Returns the subject's metrics for
/// follow-on assertions.
fn assert_matches_oracle(
    base: &SchedConfig,
    subject: GangPolicy,
    oracle: impl FnOnce(&mut SchedConfig),
    label: &str,
) -> SchedMetrics {
    let mut subject_cfg = base.clone();
    subject_cfg.gang = subject;
    let subject_m = subject_cfg.run().unwrap();
    let mut oracle_cfg = base.clone();
    oracle(&mut oracle_cfg);
    let oracle_m = oracle_cfg.run().unwrap();
    if oracle_cfg.gang.is_on() {
        assert_eq!(subject_m, oracle_m, "{label}");
    } else {
        assert_eq!(strip_gang(subject_m.clone()), oracle_m, "{label}");
    }
    subject_m
}

/// The independent-engine oracle: gang off, owner returns resolved by
/// `eviction`.
fn independent(eviction: EvictionPolicy) -> impl FnOnce(&mut SchedConfig) {
    move |cfg: &mut SchedConfig| {
        cfg.gang = GangPolicy::Off;
        cfg.eviction = eviction;
    }
}

/// Every (placement, discipline) combination the engines support.
fn policy_grid() -> impl Iterator<Item = (PlacementKind, QueueDiscipline)> {
    PlacementKind::ALL.into_iter().flat_map(|p| {
        [QueueDiscipline::Fcfs, QueueDiscipline::SjfBackfill]
            .into_iter()
            .map(move |d| (p, d))
    })
}

/// Six staggered single-task jobs — "gangs of independent semantics":
/// with one task per gang, co-allocation is ordinary placement and a
/// `min_running` floor of one is vacuous.
fn single_task_jobs() -> Vec<JobSpec> {
    (0..6)
        .map(|j| JobSpec {
            tasks: 1,
            task_demand: 40.0 + 15.0 * f64::from(j),
            arrival: 25.0 * f64::from(j),
        })
        .collect()
}

#[test]
fn gang_policy_off_is_bit_for_bit_the_independent_engine() {
    // The dedicated acceptance test: the gang-capable engine with the
    // policy off must be indistinguishable from the pre-gang engine —
    // which the degenerate JobRunner equivalence (sched_invariants)
    // pins to the paper's model. Here: a builder run with the knob
    // explicitly off equals one that never mentions gangs, across
    // eviction policies.
    for eviction in [
        EvictionPolicy::SuspendResume,
        EvictionPolicy::Restart,
        EvictionPolicy::Checkpoint {
            interval: 25.0,
            overhead: 1.0,
        },
    ] {
        let build = |with_knob: bool| {
            let mut sim = Sim::pool(6)
                .owners(owner(0.15))
                .eviction(eviction)
                .workload(closed(vec![
                    JobSpec::at_zero(10, 80.0),
                    JobSpec::at_zero(4, 40.0),
                ]))
                .seed(99)
                .replications(2);
            if with_knob {
                sim = sim.gang(GangPolicy::Off);
            }
            sim.run().unwrap()
        };
        assert_eq!(build(true), build(false), "{}", eviction.label());
    }
}

#[test]
fn gang_of_one_task_is_bit_for_bit_the_independent_scheduler() {
    // Gangs of one task: co-allocation degenerates to ordinary
    // placement, suspend-all to suspend-resume, and migrate-all to
    // per-task migration — bit-for-bit, for every placement policy and
    // queue discipline.
    let pairs = [
        (GangPolicy::SuspendAll, EvictionPolicy::SuspendResume),
        (
            GangPolicy::MigrateAll { overhead: 3.0 },
            EvictionPolicy::Migrate { overhead: 3.0 },
        ),
    ];
    for (gang_policy, eviction) in pairs {
        for (placement, discipline) in policy_grid() {
            let mut base = SchedConfig::homogeneous(4, &owner(0.20), single_task_jobs());
            base.placement = placement;
            base.discipline = discipline;
            base.calibration_horizon = 5_000.0;
            base.seed = 71;
            let gang = assert_matches_oracle(
                &base,
                gang_policy,
                independent(eviction),
                &format!(
                    "{} / {} / {}",
                    gang_policy.label(),
                    placement.name(),
                    discipline.name()
                ),
            );
            assert_eq!(gang.gang.barrier_stall, 0.0, "no peers to stall behind");
            assert_eq!(gang.gang.lockstep_violations, 0);
        }
    }
}

#[test]
fn partial_floor_one_on_single_task_gangs_is_the_independent_engine() {
    // Boundary one of the partial-gang spectrum:
    // `Partial { min_running: 1 }` on gangs of independent semantics
    // (one task each) is the independent suspend-resume engine,
    // bit-for-bit, across every placement policy and discipline.
    for (placement, discipline) in policy_grid() {
        let mut base = SchedConfig::homogeneous(4, &owner(0.20), single_task_jobs());
        base.placement = placement;
        base.discipline = discipline;
        base.calibration_horizon = 5_000.0;
        base.seed = 71;
        let m = assert_matches_oracle(
            &base,
            GangPolicy::Partial { min_running: 1 },
            independent(EvictionPolicy::SuspendResume),
            &format!("partial(1) / {} / {}", placement.name(), discipline.name()),
        );
        assert_eq!(m.gang.floor_violations, 0);
        assert_eq!(
            m.gang.degraded_time, 0.0,
            "a one-task gang is never below full width"
        );
    }
}

#[test]
fn partial_floor_at_width_is_bit_for_bit_suspend_all() {
    // Boundary two: `Partial { min_running: k }` (the floor clamps to
    // each gang's width) is `SuspendAll`, bit-for-bit including every
    // gang metric, across the policy grid on a contended multi-gang
    // mix — and so is the fractional spelling with frac 1.0.
    let jobs = vec![
        JobSpec::at_zero(4, 60.0),
        JobSpec {
            tasks: 6,
            task_demand: 40.0,
            arrival: 30.0,
        },
        JobSpec {
            tasks: 2,
            task_demand: 80.0,
            arrival: 60.0,
        },
    ];
    for (placement, discipline) in policy_grid() {
        let mut base = SchedConfig::homogeneous(8, &owner(0.15), jobs.clone());
        base.placement = placement;
        base.discipline = discipline;
        base.seed = 424;
        for subject in [
            GangPolicy::Partial {
                min_running: u32::MAX,
            },
            GangPolicy::PartialFrac {
                min_running_frac: 1.0,
            },
        ] {
            let m = assert_matches_oracle(
                &base,
                subject,
                |cfg| cfg.gang = GangPolicy::SuspendAll,
                &format!(
                    "{} / {} / {}",
                    subject.label(),
                    placement.name(),
                    discipline.name()
                ),
            );
            assert_eq!(m.gang.floor_violations, 0);
            assert_eq!(m.gang.degraded_time, 0.0, "full floors never degrade");
        }
    }
}

#[test]
fn gangs_compose_with_open_poisson_streams() {
    let report = Sim::pool(8)
        .owners(owner(0.10))
        .gang(GangPolicy::SuspendAll)
        .workload(poisson(0.015, JobShape::new(4, 40.0)).jobs(80).warmup(10))
        .batches(7)
        .seed(17)
        .run()
        .unwrap();
    assert!(report.is_consistent());
    let ss = report.steady_state.expect("open => steady state");
    assert!(
        ss.response.mean >= 40.0,
        "a gang cannot beat its dedicated task time"
    );
    let m = &report.runs[0];
    assert_eq!(m.gang.lockstep_violations, 0);
    assert!(m.gang.gang_starts >= 80, "every job co-allocates");
    // The same stream scheduled independently responds no slower than
    // the barrier-synchronized gang on average.
    let indep = Sim::pool(8)
        .owners(owner(0.10))
        .workload(poisson(0.015, JobShape::new(4, 40.0)).jobs(80).warmup(10))
        .batches(7)
        .seed(17)
        .run()
        .unwrap();
    assert!(report.response.mean >= indep.response.mean);
    // A partial floor composes with the same stream: conservation and
    // the floor invariant hold, and no job can respond faster than its
    // dedicated task time (the shared clock caps the rate at one).
    let partial = Sim::pool(8)
        .owners(owner(0.10))
        .gang(GangPolicy::Partial { min_running: 2 })
        .workload(poisson(0.015, JobShape::new(4, 40.0)).jobs(80).warmup(10))
        .batches(7)
        .seed(17)
        .run()
        .unwrap();
    assert!(partial.is_consistent());
    assert!(partial.runs.iter().all(|m| m.gang.floor_violations == 0));
    let ss = partial.steady_state.expect("open => steady state");
    assert!(ss.response.mean >= 40.0);
    // (No ordering against the other regimes is asserted: a partial
    // gang pools its members' slowdowns into one shared clock, which
    // can beat the independent engine's max-of-task-completions.)
}

#[test]
fn sharded_gang_sweeps_match_serial_bit_for_bit() {
    let build = |shards| {
        Sim::pool(8)
            .owners(owner(0.12))
            .gang(GangPolicy::MigrateAll { overhead: 2.0 })
            .workload(closed(vec![
                JobSpec::at_zero(6, 60.0),
                JobSpec::at_zero(4, 30.0),
            ]))
            .seed(23)
            .replications(5)
            .shards(shards)
            .run()
            .unwrap()
    };
    assert_eq!(build(1), build(4));
}

#[test]
fn sharded_gang_pool_scenario_matches_serial_bit_for_bit() {
    // The scenario lowering composed with shards: until now only
    // ad-hoc gang configs were diff-verified; this pins the
    // `Scenario::GangPool` path itself, under both the default
    // suspend-all policy and a partial floor.
    let ow = owner(0.10);
    for gang in [
        Scenario::GangPool.gang_policy().unwrap(),
        GangPolicy::Partial { min_running: 4 },
        GangPolicy::PartialFrac {
            min_running_frac: 0.5,
        },
    ] {
        let build = |shards| {
            Scenario::GangPool
                .sim(&ow)
                .expect("gang scenario lowers")
                .gang(gang)
                .seed(31)
                .replications(4)
                .shards(shards)
                .run()
                .unwrap()
        };
        let serial = build(1);
        assert_eq!(serial, build(4), "{}", gang.label());
        assert!(serial.is_consistent());
        assert!(serial
            .runs
            .iter()
            .all(|m| m.gang.floor_violations == 0 && m.gang.lockstep_violations == 0));
    }
}

fn gang_policy_from(ix: u8, overhead: f64) -> GangPolicy {
    if ix.is_multiple_of(2) {
        GangPolicy::SuspendAll
    } else {
        GangPolicy::MigrateAll { overhead }
    }
}

fn discipline_from(ix: u8) -> QueueDiscipline {
    if ix == 0 {
        QueueDiscipline::Fcfs
    } else {
        QueueDiscipline::SjfBackfill
    }
}

proptest! {
    // Real simulations: keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The lockstep invariant: across random pools, gang shapes, and
    /// policies, no partial gang is ever observed (all tasks of a job
    /// share one run/suspend state at every event), the accounting
    /// balances, and every unit of demand is eventually goodput.
    #[test]
    fn no_partial_gang_ever_runs(
        w in 2u32..8,
        gang_frac in 1u32..5,
        jobs in 1u64..4,
        demand in 10.0f64..120.0,
        u in 0.02f64..0.25,
        seed in 0u64..5_000,
        policy_ix in 0u8..2,
        overhead in 0.0f64..5.0,
        sjf in 0u8..2,
    ) {
        let jobs = jobs as usize;
        let tasks = (w / gang_frac).max(1);
        let specs: Vec<JobSpec> = (0..jobs)
            .map(|j| JobSpec {
                tasks,
                task_demand: demand,
                arrival: 30.0 * j as f64,
            })
            .collect();
        let mut cfg = SchedConfig::homogeneous(w, &owner(u), specs);
        cfg.gang = gang_policy_from(policy_ix, overhead);
        cfg.discipline = discipline_from(sjf);
        cfg.seed = seed;
        let m = cfg.run().unwrap();
        prop_assert_eq!(m.gang.lockstep_violations, 0, "partial gang observed");
        prop_assert_eq!(m.gang.floor_violations, 0);
        prop_assert_eq!(m.gang.degraded_time, 0.0, "all-or-nothing never degrades");
        prop_assert!(m.is_consistent(), "residual {}", m.accounting_residual());
        prop_assert!(
            (m.goodput - m.total_demand).abs() <= 1e-6 * m.total_demand,
            "goodput {} != demand {}", m.goodput, m.total_demand
        );
        prop_assert_eq!(m.completed_tasks, u64::from(tasks) * jobs as u64);
        prop_assert!(m.gang.coalloc_wait >= 0.0);
        prop_assert!(m.gang.barrier_stall >= 0.0);
        prop_assert!(m.gang.fragmentation >= 0.0);
        // Suspend-all never destroys work.
        if cfg.gang == GangPolicy::SuspendAll {
            prop_assert_eq!(m.wasted, 0.0);
        }
        // Replay determinism.
        prop_assert_eq!(&m, &cfg.run().unwrap());
    }

    /// The acceptance-bar boundary equivalences, across randomized
    /// configurations: `Partial { min_running: k }` (and the
    /// fractional spelling at 1.0) produce reports bit-for-bit
    /// identical to `SuspendAll` on arbitrary gang mixes, and
    /// `Partial { min_running: 1 }` on single-task gangs is the
    /// independent engine. Both go through the shared oracle harness.
    #[test]
    fn partial_boundaries_reproduce_their_oracles(
        w in 2u32..8,
        gang_frac in 1u32..5,
        jobs in 1u64..4,
        demand in 10.0f64..120.0,
        u in 0.02f64..0.25,
        seed in 0u64..5_000,
        sjf in 0u8..2,
        frac_boundary in 0u8..2,
    ) {
        let jobs = jobs as usize;
        let tasks = (w / gang_frac).max(1);
        let specs: Vec<JobSpec> = (0..jobs)
            .map(|j| JobSpec {
                tasks,
                task_demand: demand,
                arrival: 30.0 * j as f64,
            })
            .collect();
        let mut base = SchedConfig::homogeneous(w, &owner(u), specs);
        base.discipline = discipline_from(sjf);
        base.seed = seed;
        // Floor at the full width == suspend-all (the floor clamps per
        // job, so u32::MAX pins every gang to its own width).
        let subject = if frac_boundary == 0 {
            GangPolicy::Partial { min_running: u32::MAX }
        } else {
            GangPolicy::PartialFrac { min_running_frac: 1.0 }
        };
        let m = assert_matches_oracle(
            &base,
            subject,
            |cfg| cfg.gang = GangPolicy::SuspendAll,
            "partial floor at width vs suspend-all",
        );
        prop_assert_eq!(m.gang.floor_violations, 0);
        prop_assert_eq!(m.gang.degraded_time, 0.0);

        // Floor of one on single-task gangs == the independent engine.
        let singles: Vec<JobSpec> = (0..(jobs as u32 * tasks).max(1))
            .map(|j| JobSpec {
                tasks: 1,
                task_demand: demand,
                arrival: 15.0 * f64::from(j),
            })
            .collect();
        let mut single_base = SchedConfig::homogeneous(w, &owner(u), singles);
        single_base.discipline = discipline_from(sjf);
        single_base.seed = seed;
        let m = assert_matches_oracle(
            &single_base,
            GangPolicy::Partial { min_running: 1 },
            independent(EvictionPolicy::SuspendResume),
            "partial floor of one vs independent engine",
        );
        prop_assert_eq!(m.gang.floor_violations, 0);
    }
}
