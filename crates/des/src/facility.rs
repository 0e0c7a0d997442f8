//! A single-server service facility with preemptive-priority scheduling.
//!
//! This is the CSIM-style "facility" the paper's simulation needs: each
//! workstation's CPU is one `Facility`; owner processes submit requests
//! at a higher priority than parallel tasks and **preempt** them
//! immediately, exactly matching the paper's assumption ("when an owner
//! process starts execution an executing parallel task is suspended and
//! the owner process is immediately started").
//!
//! The facility is a pure state machine: every operation takes the
//! current time and returns what changed, and the caller (the cluster
//! simulator) schedules or cancels completion events on its
//! [`crate::Calendar`]. That keeps ownership simple — no interior
//! mutability — and makes the scheduler unit-testable without an engine.
//!
//! Preempted work is resumed (not restarted): remaining demand is
//! tracked per request, matching a preempt-resume CPU.

use crate::error::DesError;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Identifies a request submitted to a facility.
pub type RequestId = u64;

/// A unit of work submitted to the facility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Caller-chosen identifier (must be unique among live requests).
    pub id: RequestId,
    /// Larger numbers preempt smaller ones.
    pub priority: i32,
    /// Remaining service demand in time units (> 0).
    pub demand: f64,
}

/// What happened when a request was submitted or service completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestOutcome {
    /// The request went straight into service; its completion event
    /// should be scheduled at the given time.
    Started {
        /// Absolute completion time if it runs uninterrupted.
        completion: SimTime,
    },
    /// The request was queued behind equal-or-higher-priority work.
    Queued,
}

/// Details of a preemption triggered by a submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preempted {
    /// The request that was evicted from service.
    pub id: RequestId,
    /// Demand it still needs when it next reaches the server.
    pub remaining: f64,
}

#[derive(Debug, Clone, Copy)]
struct Active {
    id: RequestId,
    priority: i32,
    /// Time service (re)started.
    since: SimTime,
    /// Demand outstanding at `since`.
    remaining: f64,
}

/// Single-server, preemptive-priority facility with FIFO order within a
/// priority class and cumulative statistics.
#[derive(Debug, Clone)]
pub struct Facility {
    name: String,
    active: Option<Active>,
    /// Waiting requests; FIFO within priority, scanned for the max.
    queue: VecDeque<(i32, RequestId, f64)>,
    // --- statistics ---
    busy_area: f64,
    completions: u64,
    preemptions: u64,
}

impl Facility {
    /// Create a facility with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            active: None,
            queue: VecDeque::new(),
            busy_area: 0.0,
            completions: 0,
            preemptions: 0,
        }
    }

    /// The facility's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether a request is currently in service.
    pub fn is_busy(&self) -> bool {
        self.active.is_some()
    }

    /// The request currently in service, if any.
    pub fn in_service(&self) -> Option<RequestId> {
        self.active.map(|a| a.id)
    }

    /// Number of queued (not in-service) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total completed services.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Total preemptions performed.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Cumulative busy time up to `now` (for utilization probes).
    pub fn busy_time(&self, now: SimTime) -> f64 {
        let mut area = self.busy_area;
        if let Some(a) = self.active {
            area += (now.max(a.since) - a.since).as_f64();
        }
        area
    }

    /// Submit a request at `now`.
    ///
    /// Returns the outcome for the new request plus, if it preempted the
    /// running one, the preemption details. The caller must cancel the
    /// preempted request's completion event and, on
    /// [`RequestOutcome::Started`], schedule the new completion.
    pub fn submit(
        &mut self,
        now: SimTime,
        req: Request,
    ) -> Result<(RequestOutcome, Option<Preempted>), DesError> {
        if !req.demand.is_finite() || req.demand <= 0.0 {
            return Err(DesError::InvalidDemand { value: req.demand });
        }
        match self.active {
            Some(active) if req.priority > active.priority => {
                // Preempt: bank the work done so far, requeue the victim
                // at the *front* of its class so it resumes first.
                let done = (now - active.since).as_f64();
                let remaining = (active.remaining - done).max(0.0);
                self.busy_area += done;
                self.preemptions += 1;
                self.queue
                    .push_front((active.priority, active.id, remaining));
                self.active = Some(Active {
                    id: req.id,
                    priority: req.priority,
                    since: now,
                    remaining: req.demand,
                });
                Ok((
                    RequestOutcome::Started {
                        completion: now + SimTime::new(req.demand),
                    },
                    Some(Preempted {
                        id: active.id,
                        remaining,
                    }),
                ))
            }
            Some(_) => {
                self.queue.push_back((req.priority, req.id, req.demand));
                Ok((RequestOutcome::Queued, None))
            }
            None => {
                self.active = Some(Active {
                    id: req.id,
                    priority: req.priority,
                    since: now,
                    remaining: req.demand,
                });
                Ok((
                    RequestOutcome::Started {
                        completion: now + SimTime::new(req.demand),
                    },
                    None,
                ))
            }
        }
    }

    /// Complete the in-service request at `now` (the caller's completion
    /// event fired). Returns the finished id and, if a queued request was
    /// promoted into service, its id and new completion time for the
    /// caller to schedule.
    pub fn complete_current(
        &mut self,
        now: SimTime,
    ) -> Result<(RequestId, Option<(RequestId, SimTime)>), DesError> {
        let active = self.active.take().ok_or(DesError::FacilityIdle)?;
        self.busy_area += (now - active.since).as_f64();
        self.completions += 1;
        let next = self.pop_next();
        let started = next.map(|(priority, id, remaining)| {
            self.active = Some(Active {
                id,
                priority,
                since: now,
                remaining,
            });
            (id, now + SimTime::new(remaining))
        });
        Ok((active.id, started))
    }

    /// Remove a queued (not in-service) request, e.g. on task abort.
    pub fn cancel_queued(&mut self, id: RequestId) -> Result<(), DesError> {
        let before = self.queue.len();
        self.queue.retain(|&(_, qid, _)| qid != id);
        if self.queue.len() == before {
            Err(DesError::UnknownRequest { id })
        } else {
            Ok(())
        }
    }

    /// Highest-priority queued request, FIFO within the class.
    fn pop_next(&mut self) -> Option<(i32, RequestId, f64)> {
        let best = self
            .queue
            .iter()
            .enumerate()
            .max_by(|(ia, (pa, _, _)), (ib, (pb, _, _))| {
                // Max priority; on ties prefer the EARLIER index (FIFO),
                // so compare indices inverted.
                pa.cmp(pb).then_with(|| ib.cmp(ia))
            })
            .map(|(i, _)| i)?;
        self.queue.remove(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::new(v)
    }

    fn req(id: RequestId, priority: i32, demand: f64) -> Request {
        Request {
            id,
            priority,
            demand,
        }
    }

    #[test]
    fn idle_facility_starts_immediately() {
        let mut f = Facility::new("cpu");
        let (outcome, pre) = f.submit(t(0.0), req(1, 0, 5.0)).unwrap();
        assert_eq!(outcome, RequestOutcome::Started { completion: t(5.0) });
        assert!(pre.is_none());
        assert!(f.is_busy());
        assert_eq!(f.in_service(), Some(1));
    }

    #[test]
    fn equal_priority_queues_fifo() {
        let mut f = Facility::new("cpu");
        f.submit(t(0.0), req(1, 0, 5.0)).unwrap();
        let (o2, _) = f.submit(t(1.0), req(2, 0, 3.0)).unwrap();
        let (o3, _) = f.submit(t(2.0), req(3, 0, 3.0)).unwrap();
        assert_eq!(o2, RequestOutcome::Queued);
        assert_eq!(o3, RequestOutcome::Queued);
        let (done, next) = f.complete_current(t(5.0)).unwrap();
        assert_eq!(done, 1);
        let (next_id, completion) = next.unwrap();
        assert_eq!(next_id, 2, "FIFO within class");
        assert_eq!(completion, t(8.0));
    }

    #[test]
    fn higher_priority_preempts() {
        let mut f = Facility::new("cpu");
        f.submit(t(0.0), req(1, 0, 10.0)).unwrap();
        // Owner arrives at t=4 with priority 10: preempts immediately.
        let (outcome, pre) = f.submit(t(4.0), req(2, 10, 3.0)).unwrap();
        assert_eq!(outcome, RequestOutcome::Started { completion: t(7.0) });
        let pre = pre.unwrap();
        assert_eq!(pre.id, 1);
        assert_eq!(pre.remaining, 6.0);
        assert_eq!(f.preemptions(), 1);
        // Owner finishes; task resumes with its remaining 6 units.
        let (done, next) = f.complete_current(t(7.0)).unwrap();
        assert_eq!(done, 2);
        let (next_id, completion) = next.unwrap();
        assert_eq!(next_id, 1);
        assert_eq!(completion, t(13.0));
    }

    #[test]
    fn lower_priority_does_not_preempt() {
        let mut f = Facility::new("cpu");
        f.submit(t(0.0), req(1, 10, 5.0)).unwrap();
        let (outcome, pre) = f.submit(t(1.0), req(2, 0, 2.0)).unwrap();
        assert_eq!(outcome, RequestOutcome::Queued);
        assert!(pre.is_none());
        assert_eq!(f.in_service(), Some(1));
    }

    #[test]
    fn equal_priority_does_not_preempt() {
        let mut f = Facility::new("cpu");
        f.submit(t(0.0), req(1, 5, 5.0)).unwrap();
        let (outcome, _) = f.submit(t(1.0), req(2, 5, 2.0)).unwrap();
        assert_eq!(outcome, RequestOutcome::Queued);
    }

    #[test]
    fn nested_preemption_resumes_in_priority_order() {
        let mut f = Facility::new("cpu");
        f.submit(t(0.0), req(1, 0, 10.0)).unwrap(); // task
        f.submit(t(2.0), req(2, 5, 4.0)).unwrap(); // owner level 1
        f.submit(t(3.0), req(3, 9, 1.0)).unwrap(); // urgent owner
        assert_eq!(f.in_service(), Some(3));
        // Urgent finishes at 4: owner level 1 resumes (3 left).
        let (_, next) = f.complete_current(t(4.0)).unwrap();
        let (id, completion) = next.unwrap();
        assert_eq!(id, 2);
        assert_eq!(completion, t(7.0));
        // Owner finishes: original task resumes with 8 remaining.
        let (_, next) = f.complete_current(t(7.0)).unwrap();
        let (id, completion) = next.unwrap();
        assert_eq!(id, 1);
        assert_eq!(completion, t(15.0));
    }

    #[test]
    fn preempted_work_is_conserved() {
        // Total busy time must equal total demand completed, regardless
        // of interleaving.
        let mut f = Facility::new("cpu");
        f.submit(t(0.0), req(1, 0, 10.0)).unwrap();
        f.submit(t(4.0), req(2, 1, 3.0)).unwrap(); // preempts, runs 4..7
        f.complete_current(t(7.0)).unwrap(); // owner done, task resumes
        f.complete_current(t(13.0)).unwrap(); // task done (4 + 6 work)
        assert_eq!(f.busy_time(t(13.0)), 13.0);
        assert_eq!(f.completions(), 2);
    }

    #[test]
    fn busy_time_partial_service() {
        let mut f = Facility::new("cpu");
        assert_eq!(f.busy_time(t(5.0)), 0.0);
        f.submit(t(5.0), req(1, 0, 10.0)).unwrap();
        assert_eq!(f.busy_time(t(8.0)), 3.0);
    }

    #[test]
    fn complete_when_idle_errors() {
        let mut f = Facility::new("cpu");
        assert_eq!(f.complete_current(t(0.0)), Err(DesError::FacilityIdle));
    }

    #[test]
    fn invalid_demand_rejected() {
        let mut f = Facility::new("cpu");
        assert!(f.submit(t(0.0), req(1, 0, 0.0)).is_err());
        assert!(f.submit(t(0.0), req(1, 0, -2.0)).is_err());
        assert!(f.submit(t(0.0), req(1, 0, f64::NAN)).is_err());
    }

    #[test]
    fn cancel_queued_removes_request() {
        let mut f = Facility::new("cpu");
        f.submit(t(0.0), req(1, 0, 5.0)).unwrap();
        f.submit(t(0.0), req(2, 0, 5.0)).unwrap();
        assert_eq!(f.queue_len(), 1);
        f.cancel_queued(2).unwrap();
        assert_eq!(f.queue_len(), 0);
        assert!(f.cancel_queued(2).is_err());
        assert!(f.cancel_queued(1).is_err(), "in-service is not queued");
    }

    #[test]
    fn preempted_resumes_before_later_same_priority_arrivals() {
        let mut f = Facility::new("cpu");
        f.submit(t(0.0), req(1, 0, 10.0)).unwrap(); // task A running
        f.submit(t(1.0), req(2, 0, 10.0)).unwrap(); // task B queued
        f.submit(t(2.0), req(3, 5, 1.0)).unwrap(); // owner preempts A
        let (_, next) = f.complete_current(t(3.0)).unwrap();
        // A (preempted, 8 left) must resume before B.
        assert_eq!(next.unwrap().0, 1);
    }
}
