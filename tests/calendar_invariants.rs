//! Property tests pinning the typed [`Calendar`] to a linear-scan
//! reference engine as its behavioural oracle: the two must agree on
//! execution order (time, then band, then insertion sequence),
//! cancellation semantics, and clock advancement for *any* schedule —
//! including ties, cancels, and events scheduled from inside handlers.
//! The fire-and-forget `post` lane must be indistinguishable from plain
//! scheduling, and so must the pre-sorted backlog lane when it is
//! handed its whole stream before the first pop. This is the
//! engine-equivalence half of the event core's correctness argument;
//! `tests/event_core_oracle.rs` is the end-to-end half.
//!
//! `calendar_matches_reference_step_by_step` drives both through random
//! operation sequences and compares every observable after every step,
//! which covers the hole a pop leaves for the next push to fill: pops
//! with and without a push after them, cancels of the handle just
//! popped, and backlog heads that overtake the heap.

use nds::des::{Calendar, EventHandle, SimTime};
use proptest::prelude::*;

/// One scheduled event of the random workload: a start time, whether
/// it gets cancelled before anything runs, and an optional follow-up
/// the handler schedules at `now + delay` when it fires.
#[derive(Debug, Clone, Copy)]
struct Spec {
    time: u8,
    cancel: bool,
    followup: Option<u8>,
}

fn spec() -> impl Strategy<Value = Spec> {
    // Times in a tiny range so ties are common (the interesting case).
    (0u8..20, 0u8..2, 0u8..11).prop_map(|(time, cancel, follow)| Spec {
        time,
        cancel: cancel == 1,
        followup: (follow > 0).then_some(follow),
    })
}

/// Fired-event log: `(time, tag)` with tags >= 1000 marking follow-ups.
type Log = Vec<(f64, usize)>;

/// Run the workload on the reference engine: a linear scan that fires
/// the live event with the least `(time, insertion number)`. A
/// cancelled event never enters; a follow-up is inserted when its
/// parent fires.
fn run_reference(specs: &[Spec]) -> Log {
    // `(time, tag)` per insertion number; `None` once fired.
    let mut pending: Vec<Option<(f64, usize)>> = specs
        .iter()
        .enumerate()
        .map(|(tag, s)| (!s.cancel).then_some((f64::from(s.time), tag)))
        .collect();
    let mut log = Log::new();
    loop {
        let next = (0..pending.len())
            .filter_map(|i| pending[i].map(|(t, _)| (t, i)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let Some((now, i)) = next else { return log };
        let (_, tag) = pending[i].take().unwrap();
        log.push((now, tag));
        // Follow-up tags lie past `specs`, so follow-ups have none.
        if let Some(delay) = specs.get(tag).and_then(|s| s.followup) {
            pending.push(Some((now + f64::from(delay), tag + 1000)));
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Main(usize),
    Follow(usize),
}

/// Run the same workload on the typed calendar; `post_followups`
/// routes the handler-scheduled events through the fire-and-forget
/// lane instead of the cancellable one (they must order identically).
fn run_calendar(specs: &[Spec], post_followups: bool) -> Log {
    let mut cal: Calendar<Ev> = Calendar::new();
    let mut handles = Vec::new();
    for (tag, s) in specs.iter().enumerate() {
        handles.push(
            cal.schedule(SimTime::new(f64::from(s.time)), Ev::Main(tag))
                .unwrap(),
        );
    }
    for (s, h) in specs.iter().zip(handles) {
        if s.cancel {
            assert!(cal.is_live(h));
            assert!(cal.cancel(h));
            assert!(!cal.cancel(h), "cancel is idempotent");
        }
    }
    let mut log = Log::new();
    while let Some((t, ev)) = cal.pop() {
        match ev {
            Ev::Main(tag) => {
                log.push((t.as_f64(), tag));
                if let Some(delay) = specs[tag].followup {
                    let at = SimTime::new(f64::from(delay));
                    if post_followups {
                        cal.post_in(at, Ev::Follow(tag)).unwrap();
                    } else {
                        cal.schedule_in(at, Ev::Follow(tag)).unwrap();
                    }
                }
            }
            Ev::Follow(tag) => log.push((t.as_f64(), tag + 1000)),
        }
    }
    assert!(cal.is_empty());
    log
}

/// One step of a random calendar session.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `schedule` at `now + delay`.
    Schedule(u8),
    /// `post` at `now + delay`.
    Post(u8),
    /// `schedule_sorted` of `len` events from `gap` past the backlog
    /// floor, two to a time so batches carry ties.
    Sorted {
        gap: u8,
        len: u8,
    },
    /// `cancel` of the `n`-th handle ever issued (modulo their count).
    Cancel(u16),
    /// `cancel` of the handle whose event the last pop returned.
    CancelPopped,
    Pop,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..10, 0u8..6, 0u8..4, 0u16..256).prop_map(|(kind, a, b, n)| match kind {
        0 | 1 => Op::Schedule(a),
        2 => Op::Post(a),
        3 => Op::Sorted { gap: a, len: b },
        4 => Op::Cancel(n),
        5 => Op::CancelPopped,
        _ => Op::Pop,
    })
}

/// Tie-break band of a heap event inserted before the first backlog
/// event, of a backlog event, and of a heap event inserted after it.
const EARLY: u8 = 0;
const SORTED: u8 = 1;
const LATE: u8 = 2;

/// The linear-scan reference: every event ever inserted, by insertion
/// number (its tag), with its time, whether it is still pending, and
/// its tie-break band. Equal times fire by band, then by insertion.
#[derive(Default)]
struct Reference {
    now: f64,
    executed: u64,
    events: Vec<(f64, bool, u8)>,
    /// Time of the last backlog event, the floor of the next batch.
    backlog_tail: f64,
}

impl Reference {
    fn insert(&mut self, time: f64, backlog: bool) -> u32 {
        let band = if backlog {
            SORTED
        } else if self.events.iter().any(|e| e.2 == SORTED) {
            LATE
        } else {
            EARLY
        };
        self.events.push((time, true, band));
        (self.events.len() - 1) as u32
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        let next = (0..self.events.len())
            .filter(|&i| self.events[i].1)
            .min_by(|&a, &b| {
                let (ea, eb) = (self.events[a], self.events[b]);
                ea.0.total_cmp(&eb.0).then(ea.2.cmp(&eb.2)).then(a.cmp(&b))
            })?;
        self.events[next].1 = false;
        self.executed += 1;
        self.now = self.events[next].0;
        Some((self.now, next as u32))
    }

    fn cancel(&mut self, tag: u32) -> bool {
        std::mem::replace(&mut self.events[tag as usize].1, false)
    }

    fn pending(&self, backlog: bool) -> usize {
        self.events
            .iter()
            .filter(|e| e.1 && (backlog || e.2 != SORTED))
            .count()
    }
}

/// Run `ops` on the calendar and the reference side by side; `Err`
/// names the first step where an observable differs.
fn run_session(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cal: Calendar<u32> = Calendar::new();
    let mut reference = Reference::default();
    // Every handle ever issued, with its event's tag.
    let mut handles: Vec<(EventHandle, u32)> = Vec::new();
    let mut popped: Option<u32> = None;
    for (step, &op) in ops.iter().enumerate() {
        let now = reference.now;
        match op {
            Op::Schedule(delay) => {
                let at = now + f64::from(delay);
                let tag = reference.insert(at, false);
                handles.push((cal.schedule(SimTime::new(at), tag).unwrap(), tag));
            }
            Op::Post(delay) => {
                let at = now + f64::from(delay);
                let tag = reference.insert(at, false);
                cal.post(SimTime::new(at), tag).unwrap();
            }
            Op::Sorted { gap, len } => {
                let floor = reference.backlog_tail.max(now) + f64::from(gap);
                let batch: Vec<(SimTime, u32)> = (0..len)
                    .map(|i| {
                        let at = floor + f64::from(i / 2);
                        reference.backlog_tail = at;
                        (SimTime::new(at), reference.insert(at, true))
                    })
                    .collect();
                cal.schedule_sorted(batch).unwrap();
            }
            Op::Cancel(n) if !handles.is_empty() => {
                let (handle, tag) = handles[usize::from(n) % handles.len()];
                prop_assert_eq!(cal.cancel(handle), reference.cancel(tag), "step {}", step);
            }
            Op::CancelPopped => {
                if let Some(&(handle, tag)) = handles.iter().find(|h| Some(h.1) == popped) {
                    prop_assert!(
                        !cal.cancel(handle),
                        "step {}: a fired event cancelled",
                        step
                    );
                    prop_assert!(!reference.cancel(tag));
                }
            }
            Op::Cancel(_) => {}
            Op::Pop => {
                let got = cal.pop().map(|(t, tag)| (t.as_f64(), tag));
                let want = reference.pop();
                prop_assert_eq!(got, want, "step {}: pop", step);
                popped = want.map(|(_, tag)| tag);
            }
        }
        prop_assert_eq!(cal.pending(), reference.pending(true), "step {}", step);
        prop_assert_eq!(
            cal.pending_horizon(),
            reference.pending(false),
            "step {}",
            step
        );
        prop_assert_eq!(cal.executed(), reference.executed, "step {}", step);
        prop_assert_eq!(cal.now().as_f64(), reference.now, "step {}", step);
        for &(handle, tag) in &handles {
            let live = reference.events[tag as usize].1;
            prop_assert_eq!(
                cal.is_live(handle),
                live,
                "step {}: handle of {}",
                step,
                tag
            );
        }
    }
    // Draining both ends the session in the same order.
    loop {
        let (got, want) = (cal.pop(), reference.pop());
        prop_assert_eq!(got.map(|(t, tag)| (t.as_f64(), tag)), want);
        if want.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every observable of the calendar matches the linear-scan
    /// reference after every step of a random session of schedules,
    /// posts, sorted batches, cancels (of any handle ever issued,
    /// the one just popped included) and pops.
    #[test]
    fn calendar_matches_reference_step_by_step(ops in proptest::collection::vec(op(), 0..80)) {
        run_session(&ops)?;
    }

    /// The typed calendar replays the reference engine exactly: same
    /// events, same times, same order — ties broken by insertion
    /// sequence on both sides, cancels honoured, follow-ups
    /// interleaved identically (through either scheduling lane).
    #[test]
    fn calendar_matches_engine_order(specs in proptest::collection::vec(spec(), 0..40)) {
        let oracle = run_reference(&specs);
        prop_assert_eq!(&run_calendar(&specs, false), &oracle);
        prop_assert_eq!(&run_calendar(&specs, true), &oracle);
    }

    /// A time-sorted arrival stream entering through the backlog lane
    /// ([`Calendar::schedule_sorted`]) pops in exactly the order plain
    /// scheduling would produce, however it interleaves with
    /// heap-scheduled events.
    #[test]
    fn backlog_lane_is_order_transparent(
        raw_arrivals in proptest::collection::vec(0u8..30, 0..20),
        heap_events in proptest::collection::vec(0u8..30, 0..20),
    ) {
        let mut arrivals = raw_arrivals;
        arrivals.sort_unstable();
        let mut plain: Calendar<u32> = Calendar::new();
        let mut lane: Calendar<u32> = Calendar::new();
        for (i, &t) in arrivals.iter().enumerate() {
            plain.schedule(SimTime::new(f64::from(t)), i as u32).unwrap();
        }
        lane.schedule_sorted(
            arrivals
                .iter()
                .enumerate()
                .map(|(i, &t)| (SimTime::new(f64::from(t)), i as u32)),
        )
        .unwrap();
        for (i, &t) in heap_events.iter().enumerate() {
            let tag = 1000 + i as u32;
            plain.schedule(SimTime::new(f64::from(t)), tag).unwrap();
            lane.schedule(SimTime::new(f64::from(t)), tag).unwrap();
        }
        prop_assert_eq!(plain.pending(), lane.pending());
        loop {
            let (a, b) = (plain.pop(), lane.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Scheduling (or posting) into the past is rejected with a typed
    /// error, and never corrupts the calendar.
    #[test]
    fn schedule_in_past_rejected(t1 in 1u8..50, dt in 1u8..50) {
        let mut cal: Calendar<u8> = Calendar::new();
        cal.schedule(SimTime::new(f64::from(t1)), 0).unwrap();
        cal.pop().unwrap();
        let past = SimTime::new(f64::from(t1.saturating_sub(dt)));
        prop_assert!(matches!(
            cal.schedule(past, 1),
            Err(nds::des::DesError::ScheduleInPast { .. })
        ));
        prop_assert!(matches!(
            cal.post(past, 1),
            Err(nds::des::DesError::ScheduleInPast { .. })
        ));
        prop_assert!(cal.is_empty());
        prop_assert_eq!(cal.executed(), 1);
    }

    /// Generation safety: a cancelled handle stays dead through
    /// arbitrary slot reuse — it can never cancel the event that
    /// recycled its slot.
    #[test]
    fn stale_handles_never_resurrect(times in proptest::collection::vec(1u8..30, 1..20)) {
        let mut cal: Calendar<u32> = Calendar::new();
        let mut stale = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let h = cal.schedule(SimTime::new(f64::from(t)), i as u32).unwrap();
            cal.cancel(h);
            stale.push(h);
        }
        // Live events now reuse the retired slots.
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::new(f64::from(t)), 100 + i as u32).unwrap();
        }
        for h in stale {
            prop_assert!(!cal.is_live(h));
            prop_assert!(!cal.cancel(h), "stale handle revoked a live event");
        }
        let mut fired = 0;
        while cal.pop().is_some() {
            fired += 1;
        }
        prop_assert_eq!(fired, times.len());
    }
}
