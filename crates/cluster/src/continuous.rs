//! Continuous-time workstation simulation on the DES calendar.
//!
//! One workstation is one preemptive-priority [`Facility`] (its CPU).
//! The parallel task is a low-priority request for `T` units of service;
//! the owner alternates think/use cycles drawn from an
//! [`OwnerWorkload`], each use burst preempting the task instantly —
//! the paper's interference assumption transplanted to continuous time
//! with arbitrary distributions (its stated future work).

use crate::owner::OwnerWorkload;
use crate::task::TaskOutcome;
use nds_des::{Calendar, Facility, Request, RequestId, RequestOutcome, SimTime};
use nds_stats::rng::Xoshiro256StarStar;

/// Priority of owner processes (preempts tasks).
pub const OWNER_PRIORITY: i32 = 10;
/// Priority of parallel tasks ("niced" in the paper's PVM experiment).
pub const TASK_PRIORITY: i32 = 0;

/// The task's facility request id.
const TASK_REQ: RequestId = 0;
/// The owner's request id: its bursts never overlap, so one id serves.
const OWNER_REQ: RequestId = 1;

/// The workstation's events. Only `TaskDone` is ever cancelled (by a
/// preempting owner burst), so the owner events are posted.
#[derive(Debug, Clone, Copy)]
enum Ev {
    TaskDone,
    OwnerArrival,
    OwnerDone,
}

/// A single non-dedicated workstation executing one parallel task under
/// continuous-time owner interference.
#[derive(Debug, Clone)]
pub struct ContinuousWorkstation {
    owner: OwnerWorkload,
}

impl ContinuousWorkstation {
    /// Create a workstation with the given owner behaviour.
    pub fn new(owner: OwnerWorkload) -> Self {
        Self { owner }
    }

    /// The owner workload.
    pub fn owner(&self) -> &OwnerWorkload {
        &self.owner
    }

    /// Execute one parallel task of the given demand to completion and
    /// report its outcome. The caller's RNG seeds an internal stream, so
    /// successive calls with the same RNG state are reproducible.
    pub fn run_task(&self, task_demand: f64, rng: &mut Xoshiro256StarStar) -> TaskOutcome {
        assert!(
            task_demand > 0.0 && task_demand.is_finite(),
            "task demand must be finite and > 0"
        );
        let owner = &self.owner;
        let mut rng = Xoshiro256StarStar::new(rng.next());
        let mut cpu = Facility::new("cpu");
        let mut cal = Calendar::with_capacity(3);

        // Submit the task at t = 0; the first owner arrives after one
        // think period.
        let (outcome, _) = cpu
            .submit(
                SimTime::ZERO,
                Request {
                    id: TASK_REQ,
                    priority: TASK_PRIORITY,
                    demand: task_demand,
                },
            )
            .expect("fresh facility accepts the task");
        let RequestOutcome::Started { completion } = outcome else {
            unreachable!("idle facility starts immediately");
        };
        let mut task_ev = Some(
            cal.schedule(completion, Ev::TaskDone)
                .expect("schedule task completion"),
        );
        cal.post(SimTime::new(owner.sample_think(&mut rng)), Ev::OwnerArrival)
            .expect("schedule first owner arrival");

        let mut done = None;
        let mut interruptions = 0;
        while let Some((now, ev)) = cal.pop() {
            match ev {
                // Once the task is done, interference stops so the
                // calendar drains.
                Ev::OwnerArrival if done.is_some() => {}
                Ev::OwnerArrival => {
                    let demand = owner.sample_service(&mut rng);
                    let (outcome, preempted) = cpu
                        .submit(
                            now,
                            Request {
                                id: OWNER_REQ,
                                priority: OWNER_PRIORITY,
                                demand,
                            },
                        )
                        .expect("owner demand is positive");
                    let RequestOutcome::Started { completion } = outcome else {
                        unreachable!("owner always outranks the running task");
                    };
                    if preempted.is_some() {
                        interruptions += 1;
                        if let Some(handle) = task_ev.take() {
                            cal.cancel(handle);
                        }
                    }
                    cal.post(completion, Ev::OwnerDone)
                        .expect("schedule owner completion");
                }
                Ev::OwnerDone => {
                    let (_, resumed) = cpu
                        .complete_current(now)
                        .expect("owner burst was in service");
                    if let Some((id, completion)) = resumed {
                        debug_assert_eq!(id, TASK_REQ, "only the task can be resumed");
                        task_ev = Some(
                            cal.schedule(completion, Ev::TaskDone)
                                .expect("schedule resumed task completion"),
                        );
                    }
                    // Next owner cycle: think, then use again.
                    if done.is_none() {
                        let think = owner.sample_think(&mut rng);
                        cal.post_in(SimTime::new(think), Ev::OwnerArrival)
                            .expect("schedule next owner arrival");
                    }
                }
                Ev::TaskDone => {
                    let (id, next) = cpu.complete_current(now).expect("task was in service");
                    debug_assert_eq!(id, TASK_REQ);
                    debug_assert!(next.is_none(), "no owner can be waiting behind the task");
                    done = Some(now.as_f64());
                }
            }
        }

        let done = done.expect("task must complete once the calendar drains");
        TaskOutcome {
            execution_time: done,
            demand: task_demand,
            interruptions,
            suspended_time: done - task_demand,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_stats::summary::RunningStats;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(seed)
    }

    #[test]
    fn dedicated_machine_runs_at_demand() {
        // Utilization so low the task almost never sees interference.
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(1.0, 1e-6).unwrap());
        let out = ws.run_task(100.0, &mut rng(1));
        assert!(
            (out.execution_time - 100.0).abs() < 1.0,
            "time {}",
            out.execution_time
        );
        assert!(out.is_consistent());
    }

    #[test]
    fn outcome_consistency_under_interference() {
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(10.0, 0.2).unwrap());
        let mut r = rng(2);
        for _ in 0..50 {
            let out = ws.run_task(50.0, &mut r);
            assert!(out.is_consistent());
            assert!(out.execution_time >= 50.0);
            assert_eq!(out.demand, 50.0);
        }
    }

    #[test]
    fn mean_slowdown_matches_utilization() {
        // Under preempt-resume with owner utilization U, the task sees
        // the CPU at rate (1-U) in the long run: E[time] ≈ T/(1-U).
        let u = 0.2;
        let ws = ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(5.0, u).unwrap());
        let mut r = rng(3);
        let mut stats = RunningStats::new();
        for _ in 0..300 {
            stats.push(ws.run_task(500.0, &mut r).execution_time);
        }
        let expected = 500.0 / (1.0 - u);
        let rel = (stats.mean() - expected).abs() / expected;
        assert!(
            rel < 0.05,
            "mean {} vs expected {expected} (rel err {rel})",
            stats.mean()
        );
    }

    #[test]
    fn higher_utilization_slows_tasks() {
        let mut means = Vec::new();
        for u in [0.01, 0.1, 0.3] {
            let ws =
                ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(10.0, u).unwrap());
            let mut r = rng(4);
            let mut stats = RunningStats::new();
            for _ in 0..200 {
                stats.push(ws.run_task(200.0, &mut r).execution_time);
            }
            means.push(stats.mean());
        }
        assert!(means[0] < means[1] && means[1] < means[2], "{means:?}");
    }

    #[test]
    fn interruptions_counted() {
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(5.0, 0.3).unwrap());
        let mut r = rng(5);
        let out = ws.run_task(1000.0, &mut r);
        assert!(out.interruptions > 0, "high utilization must interrupt");
        assert!(out.suspended_time > 0.0);
    }

    #[test]
    fn reproducible_from_seed() {
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(10.0, 0.1).unwrap());
        let a = ws.run_task(100.0, &mut rng(7));
        let b = ws.run_task(100.0, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn long_job_owner_stalls_task() {
        // A long-running owner job (paper §5's open problem) can pin the
        // task for its full duration.
        let ws = ContinuousWorkstation::new(
            OwnerWorkload::with_long_jobs(2.0, 500.0, 0.05, 0.10).unwrap(),
        );
        let mut r = rng(8);
        let mut worst: f64 = 0.0;
        for _ in 0..100 {
            let out = ws.run_task(50.0, &mut r);
            worst = worst.max(out.execution_time);
        }
        assert!(
            worst > 300.0,
            "expected some run stalled by a long owner job, worst {worst}"
        );
    }

    #[test]
    #[should_panic(expected = "task demand must be finite and > 0")]
    fn rejects_zero_demand() {
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(10.0, 0.1).unwrap());
        ws.run_task(0.0, &mut rng(1));
    }
}
