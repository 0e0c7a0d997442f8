//! Multiprocessor (SMP) workstations — an extension beyond the paper's
//! single-CPU model.
//!
//! With `k` CPUs per workstation, an owner burst occupies one CPU and
//! only preempts the parallel task when **every** CPU is busy. Since
//! the paper's workload has one owner and one task per workstation, a
//! second CPU absorbs essentially all interference; the module also
//! supports multiple owner streams per machine (a shared departmental
//! server), where contention reappears.

use crate::owner::OwnerWorkload;
use crate::task::TaskOutcome;
use nds_des::resource::MultiFacility;
use nds_des::{Calendar, Request, RequestId, RequestOutcome, SimTime};
use nds_stats::rng::Xoshiro256StarStar;

const OWNER_PRIORITY: i32 = 10;
const TASK_PRIORITY: i32 = 0;
/// The task's request id. Owner stream `k` submits as id `k`: each
/// stream has at most one burst in service or queued at a time.
const TASK_REQ: RequestId = RequestId::MAX;

/// The machine's events, by owner stream index. Only `TaskDone` is ever
/// cancelled (by a preempting owner burst), so owner events are posted.
#[derive(Debug, Clone, Copy)]
enum Ev {
    TaskDone,
    OwnerArrival(usize),
    OwnerDone(usize),
}

/// A workstation with `cpus` identical CPUs, one parallel task, and one
/// or more independent owner streams.
#[derive(Debug, Clone)]
pub struct SmpWorkstation {
    cpus: usize,
    owners: Vec<OwnerWorkload>,
}

impl SmpWorkstation {
    /// A `cpus`-CPU workstation with a single owner.
    pub fn new(cpus: usize, owner: OwnerWorkload) -> Self {
        Self::with_owners(cpus, vec![owner])
    }

    /// A `cpus`-CPU machine shared by several independent owners
    /// (each with their own think/use cycle).
    pub fn with_owners(cpus: usize, owners: Vec<OwnerWorkload>) -> Self {
        assert!(cpus >= 1, "need at least one CPU");
        assert!(!owners.is_empty(), "need at least one owner");
        Self { cpus, owners }
    }

    /// CPU count.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Run one parallel task to completion under the machine's owner
    /// interference.
    pub fn run_task(&self, task_demand: f64, rng: &mut Xoshiro256StarStar) -> TaskOutcome {
        assert!(
            task_demand > 0.0 && task_demand.is_finite(),
            "task demand must be finite and > 0"
        );
        let owners = &self.owners;
        let mut rng = Xoshiro256StarStar::new(rng.next());
        let mut cpus = MultiFacility::new("smp", self.cpus);
        let mut cal = Calendar::with_capacity(owners.len() + 1);

        // Submit the task, then start one arrival process per owner.
        let (outcome, _) = cpus
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
            unreachable!("empty facility starts immediately");
        };
        let mut task_ev = Some(
            cal.schedule(completion, Ev::TaskDone)
                .expect("schedule task completion"),
        );
        for (k, owner) in owners.iter().enumerate() {
            cal.post(
                SimTime::new(owner.sample_think(&mut rng)),
                Ev::OwnerArrival(k),
            )
            .expect("schedule first owner arrival");
        }

        let mut done = None;
        let mut interruptions = 0;
        while let Some((now, ev)) = cal.pop() {
            match ev {
                Ev::OwnerArrival(_) if done.is_some() => {}
                Ev::OwnerArrival(k) => {
                    let demand = owners[k].sample_service(&mut rng);
                    let (outcome, preempted) = cpus
                        .submit(
                            now,
                            Request {
                                id: k as RequestId,
                                priority: OWNER_PRIORITY,
                                demand,
                            },
                        )
                        .expect("owner demand positive");
                    if preempted.is_some() {
                        interruptions += 1;
                        if let Some(handle) = task_ev.take() {
                            cal.cancel(handle);
                        }
                    }
                    // A queued burst (every CPU holds an owner) gets its
                    // completion when a finishing burst promotes it.
                    if let RequestOutcome::Started { completion } = outcome {
                        cal.post(completion, Ev::OwnerDone(k))
                            .expect("schedule owner completion");
                    }
                }
                Ev::OwnerDone(k) => {
                    let promoted = cpus
                        .complete(now, k as RequestId)
                        .expect("owner burst was in service");
                    match promoted {
                        Some((TASK_REQ, completion)) => {
                            task_ev = Some(
                                cal.schedule(completion, Ev::TaskDone)
                                    .expect("schedule resumed task"),
                            );
                        }
                        Some((id, completion)) => {
                            cal.post(completion, Ev::OwnerDone(id as usize))
                                .expect("schedule promoted owner completion");
                        }
                        None => {}
                    }
                    // The finishing burst's owner starts thinking again.
                    if done.is_none() {
                        let think = owners[k].sample_think(&mut rng);
                        cal.post_in(SimTime::new(think), Ev::OwnerArrival(k))
                            .expect("schedule next owner arrival");
                    }
                }
                Ev::TaskDone => {
                    cpus.complete(now, TASK_REQ).expect("task was in service");
                    done = Some(now.as_f64());
                }
            }
        }

        let done = done.expect("task completes once the calendar drains");
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

    fn owner(u: f64) -> OwnerWorkload {
        OwnerWorkload::continuous_exponential(10.0, u).unwrap()
    }

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(seed)
    }

    fn mean_time(ws: &SmpWorkstation, t: f64, reps: u32, seed: u64) -> f64 {
        let mut r = rng(seed);
        (0..reps)
            .map(|_| ws.run_task(t, &mut r).execution_time)
            .sum::<f64>()
            / f64::from(reps)
    }

    #[test]
    fn single_cpu_matches_interference_rate() {
        let ws = SmpWorkstation::new(1, owner(0.2));
        let mean = mean_time(&ws, 500.0, 200, 1);
        let expected = 500.0 / 0.8;
        assert!(
            (mean - expected).abs() / expected < 0.06,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn second_cpu_absorbs_single_owner() {
        let ws = SmpWorkstation::new(2, owner(0.3));
        let mean = mean_time(&ws, 300.0, 100, 2);
        assert!(
            (mean - 300.0).abs() < 2.0,
            "dual-CPU task should run nearly dedicated, got {mean}"
        );
    }

    #[test]
    fn shared_server_brings_contention_back() {
        // 2 CPUs but 4 independent owners at 30% each: the task often
        // finds both CPUs owner-occupied.
        let busy = SmpWorkstation::with_owners(2, vec![owner(0.3); 4]);
        let mean = mean_time(&busy, 300.0, 100, 3);
        assert!(mean > 315.0, "4 owners on 2 CPUs must interfere: {mean}");
        // And 4 CPUs absorb those same owners much better.
        let roomy = SmpWorkstation::with_owners(4, vec![owner(0.3); 4]);
        let mean4 = mean_time(&roomy, 300.0, 100, 3);
        assert!(mean4 < mean, "more CPUs must help: {mean4} vs {mean}");
    }

    #[test]
    fn outcome_consistent() {
        let ws = SmpWorkstation::new(1, owner(0.2));
        let mut r = rng(4);
        for _ in 0..20 {
            let out = ws.run_task(100.0, &mut r);
            assert!(out.is_consistent());
            assert!(out.execution_time >= 100.0);
        }
    }

    #[test]
    fn reproducible() {
        let ws = SmpWorkstation::new(2, owner(0.1));
        let a = ws.run_task(200.0, &mut rng(5));
        let b = ws.run_task(200.0, &mut rng(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "need at least one CPU")]
    fn rejects_zero_cpus() {
        SmpWorkstation::new(0, owner(0.1));
    }
}
