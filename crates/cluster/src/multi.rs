//! Multiple parallel jobs sharing the pool — the paper's "more complex
//! workloads" future work (§5).
//!
//! The paper assumes "one parallel job being executed on the system at
//! a time". Here several jobs coexist: each workstation runs one task
//! per job at the same low priority (FIFO within the class, preempted
//! by owners as always), and each job completes when its last task
//! does. The experiment quantifies how co-scheduled jobs stretch each
//! other — interference now comes from owners *and* rival tasks.

use crate::owner::OwnerWorkload;
use nds_des::{Calendar, Facility, Request, RequestId, RequestOutcome, SimTime};
use nds_stats::rng::{StreamFactory, Xoshiro256StarStar};

/// Priority of owner processes (preempts tasks).
const OWNER_PRIORITY: i32 = 10;
/// Priority of parallel tasks.
const TASK_PRIORITY: i32 = 0;
/// The owner's request id; task ids are job indices below it.
const OWNER_REQ: RequestId = RequestId::MAX;

/// A station's events. Only `ServiceDone` is ever cancelled (by a
/// preempting owner burst), so arrivals are posted.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The task of job `jobs[i]` arrives.
    TaskArrival(usize),
    OwnerArrival,
    /// Whatever is in service finishes.
    ServiceDone,
}

/// One parallel job in a multi-job workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Per-task demand (the job is perfectly balanced, paper-style).
    pub task_demand: f64,
    /// Absolute arrival time of the job.
    pub arrival: f64,
}

/// Outcome of one job in a multi-job run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// When the job's last task finished.
    pub completion: f64,
    /// Completion minus arrival.
    pub response_time: f64,
    /// Response time the job would have had running alone on dedicated
    /// machines (its task demand).
    pub dedicated_time: f64,
}

impl JobOutcome {
    /// Stretch relative to dedicated execution.
    pub fn slowdown(&self) -> f64 {
        self.response_time / self.dedicated_time
    }
}

/// Simulate one workstation running several tasks (one per job) that
/// arrive at the given times, under owner interference. Returns the
/// absolute completion time of each task.
pub fn run_station_tasks(
    owner: &OwnerWorkload,
    jobs: &[JobSpec],
    rng: &mut Xoshiro256StarStar,
) -> Vec<f64> {
    assert!(!jobs.is_empty(), "need at least one job");
    for j in jobs {
        assert!(
            j.task_demand > 0.0 && j.task_demand.is_finite() && j.arrival >= 0.0,
            "bad job spec {j:?}"
        );
    }
    let mut rng = Xoshiro256StarStar::new(rng.next());
    let mut cpu = Facility::new("cpu");
    let mut cal = Calendar::with_capacity(jobs.len() + 2);
    for (i, job) in jobs.iter().enumerate() {
        cal.post(SimTime::new(job.arrival), Ev::TaskArrival(i))
            .expect("schedule task arrival");
    }
    cal.post(SimTime::new(owner.sample_think(&mut rng)), Ev::OwnerArrival)
        .expect("schedule first owner arrival");

    // Completion event for whatever is in service.
    let mut service_ev = None;
    let mut done = vec![None; jobs.len()]; // ndslint::allow(no-alloc-in-hot-path, reason = "run setup: one completion slot per job, before the event loop")
    let mut remaining = jobs.len();
    while let Some((now, ev)) = cal.pop() {
        match ev {
            Ev::TaskArrival(i) => {
                let demand = jobs[i].task_demand;
                let (outcome, preempted) = cpu
                    .submit(
                        now,
                        Request {
                            id: i as RequestId,
                            priority: TASK_PRIORITY,
                            demand,
                        },
                    )
                    .expect("task demand is positive");
                debug_assert!(preempted.is_none(), "a task never preempts anything");
                if let RequestOutcome::Started { completion } = outcome {
                    service_ev = Some(
                        cal.schedule(completion, Ev::ServiceDone)
                            .expect("schedule task completion"),
                    );
                }
            }
            Ev::OwnerArrival if remaining == 0 => {}
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
                    unreachable!("owner outranks tasks and no other owner is active");
                };
                if preempted.is_some() {
                    if let Some(handle) = service_ev.take() {
                        cal.cancel(handle);
                    }
                }
                service_ev = Some(
                    cal.schedule(completion, Ev::ServiceDone)
                        .expect("schedule owner completion"),
                );
            }
            Ev::ServiceDone => {
                let (finished, next) = cpu.complete_current(now).expect("something was in service");
                if finished != OWNER_REQ {
                    // A task finished.
                    done[finished as usize] = Some(now.as_f64());
                    remaining -= 1;
                } else if remaining > 0 {
                    // An owner burst finished: think, then come back.
                    let think = owner.sample_think(&mut rng);
                    cal.post_in(SimTime::new(think), Ev::OwnerArrival)
                        .expect("schedule next owner arrival");
                }
                if let Some((_, completion)) = next {
                    service_ev = Some(
                        cal.schedule(completion, Ev::ServiceDone)
                            .expect("schedule resumed completion"),
                    );
                }
            }
        }
    }
    done.into_iter()
        .map(|d| d.expect("all tasks complete when the calendar drains"))
        .collect()
}

/// A multi-job workload across a homogeneous pool.
#[derive(Debug, Clone)]
pub struct MultiJobExperiment {
    /// The co-scheduled jobs.
    pub jobs: Vec<JobSpec>,
    /// Pool size (each job runs one task per station).
    pub workstations: u32,
    /// Owner behaviour (homogeneous).
    pub owner: OwnerWorkload,
    /// Master seed.
    pub seed: u64,
}

impl MultiJobExperiment {
    /// Run once; returns one outcome per job.
    pub fn run(&self, replication: u64) -> Vec<JobOutcome> {
        assert!(self.workstations >= 1, "need at least one workstation");
        let streams = StreamFactory::new(self.seed);
        // Per-station task completion times.
        let mut completions = vec![f64::NEG_INFINITY; self.jobs.len()]; // ndslint::allow(no-alloc-in-hot-path, reason = "per-run result: one completion per job, filled station by station")
        for station in 0..self.workstations {
            let mut rng =
                streams.labeled_stream("multi-job", u64::from(station) << 32 | replication);
            let times = run_station_tasks(&self.owner, &self.jobs, &mut rng);
            for (j, &t) in times.iter().enumerate() {
                completions[j] = completions[j].max(t);
            }
        }
        self.jobs
            .iter()
            .zip(&completions)
            .map(|(spec, &completion)| JobOutcome {
                completion,
                response_time: completion - spec.arrival,
                dedicated_time: spec.task_demand,
            })
            .collect()
    }

    /// Mean outcomes over several replications (means of response times).
    pub fn mean_response_times(&self, replications: u64) -> Vec<f64> {
        assert!(replications >= 1);
        let mut acc = vec![0.0; self.jobs.len()]; // ndslint::allow(no-alloc-in-hot-path, reason = "per-call result: one mean per job, summed over replications")
        for rep in 0..replications {
            for (slot, out) in acc.iter_mut().zip(self.run(rep)) {
                *slot += out.response_time;
            }
        }
        for slot in &mut acc {
            *slot /= replications as f64;
        }
        acc
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

    #[test]
    fn single_task_matches_continuous_workstation_semantics() {
        let ow = owner(1e-9);
        let jobs = [JobSpec {
            task_demand: 100.0,
            arrival: 0.0,
        }];
        let times = run_station_tasks(&ow, &jobs, &mut rng(1));
        assert!((times[0] - 100.0).abs() < 0.5, "time {}", times[0]);
    }

    #[test]
    fn two_tasks_serialize_on_one_cpu() {
        let ow = owner(1e-9);
        let jobs = [
            JobSpec {
                task_demand: 50.0,
                arrival: 0.0,
            },
            JobSpec {
                task_demand: 50.0,
                arrival: 0.0,
            },
        ];
        let times = run_station_tasks(&ow, &jobs, &mut rng(2));
        // FIFO: first finishes ~50, second ~100.
        assert!((times[0] - 50.0).abs() < 1.0, "{times:?}");
        assert!((times[1] - 100.0).abs() < 1.0, "{times:?}");
    }

    #[test]
    fn later_arrival_queues_behind() {
        let ow = owner(1e-9);
        let jobs = [
            JobSpec {
                task_demand: 100.0,
                arrival: 0.0,
            },
            JobSpec {
                task_demand: 10.0,
                arrival: 30.0,
            },
        ];
        let times = run_station_tasks(&ow, &jobs, &mut rng(3));
        assert!((times[0] - 100.0).abs() < 1.0);
        // Second task waits for the first: finishes ~110, not ~40.
        assert!((times[1] - 110.0).abs() < 1.0, "{times:?}");
    }

    #[test]
    fn owners_still_preempt_everything() {
        let ow = owner(0.3);
        let jobs = [
            JobSpec {
                task_demand: 100.0,
                arrival: 0.0,
            },
            JobSpec {
                task_demand: 100.0,
                arrival: 0.0,
            },
        ];
        let times = run_station_tasks(&ow, &jobs, &mut rng(4));
        // Both tasks stretched well beyond their serialized 200 total.
        assert!(times[1] > 220.0, "{times:?}");
    }

    #[test]
    fn experiment_jobs_slow_each_other() {
        let base = MultiJobExperiment {
            jobs: vec![JobSpec {
                task_demand: 100.0,
                arrival: 0.0,
            }],
            workstations: 8,
            owner: owner(0.05),
            seed: 42,
        };
        let solo = base.mean_response_times(10)[0];
        let shared = MultiJobExperiment {
            jobs: vec![
                JobSpec {
                    task_demand: 100.0,
                    arrival: 0.0,
                },
                JobSpec {
                    task_demand: 100.0,
                    arrival: 0.0,
                },
            ],
            ..base
        };
        let both = shared.mean_response_times(10);
        // FIFO within the task class: the first-submitted job is
        // untouched, the one queued behind it roughly doubles.
        assert!(
            (both[0] - solo).abs() < 1e-9,
            "first job {} should match solo {}",
            both[0],
            solo
        );
        assert!(
            both[1] > solo * 1.8,
            "queued job {} should roughly double solo {}",
            both[1],
            solo
        );
    }

    #[test]
    fn outcome_accounting() {
        let exp = MultiJobExperiment {
            jobs: vec![
                JobSpec {
                    task_demand: 50.0,
                    arrival: 0.0,
                },
                JobSpec {
                    task_demand: 50.0,
                    arrival: 100.0,
                },
            ],
            workstations: 4,
            owner: owner(0.05),
            seed: 7,
        };
        for out in exp.run(0) {
            assert!(out.response_time > 0.0);
            assert!(out.completion >= out.response_time);
            assert!(out.slowdown() >= 1.0);
        }
    }

    #[test]
    fn reproducible_per_replication() {
        let exp = MultiJobExperiment {
            jobs: vec![JobSpec {
                task_demand: 80.0,
                arrival: 0.0,
            }],
            workstations: 3,
            owner: owner(0.1),
            seed: 9,
        };
        assert_eq!(exp.run(1), exp.run(1));
        assert_ne!(exp.run(1), exp.run(2));
    }

    #[test]
    #[should_panic(expected = "need at least one job")]
    fn rejects_empty_jobs() {
        run_station_tasks(&owner(0.1), &[], &mut rng(1));
    }
}
