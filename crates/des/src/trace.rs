//! Event tracing: the zero-cost [`Tracer`] hook trait wired through
//! [`crate::Calendar`].
//!
//! # The `Tracer` trait
//!
//! [`Calendar<E, T>`](crate::Calendar) carries a tracer as a *generic
//! parameter* defaulting to the zero-sized [`NoTrace`]. Every hook call
//! inside the calendar is guarded by `if T::ENABLED`, a constant the
//! optimizer resolves per monomorphization — with `NoTrace` the guard
//! is `if false` and the disabled path compiles to exactly the code
//! that existed before tracing was added (no branch, no call, no extra
//! field reads). Enabling tracing is purely a type-level opt-in:
//!
//! ```
//! use nds_des::{Calendar, CalendarProbe, SimTime};
//!
//! let mut cal: Calendar<u32, CalendarProbe> = Calendar::with_tracer(0, CalendarProbe::default());
//! cal.schedule(SimTime::new(1.0), 7).unwrap();
//! let h = cal.schedule(SimTime::new(2.0), 8).unwrap();
//! cal.cancel(h);
//! cal.pop().unwrap();
//! let probe = cal.tracer();
//! assert_eq!((probe.schedules(), probe.pops(), probe.cancels()), (2, 1, 1));
//! assert_eq!(probe.high_water(), 2);
//! ```
//!
//! Higher layers define richer tracers on the same pattern (see
//! `nds-sched`'s `SchedTracer` / flight recorder); this module only
//! owns the calendar-level vocabulary.

use crate::time::SimTime;

/// Observer of a [`crate::Calendar`]'s event flow.
///
/// All hooks default to no-ops, so a tracer implements only what it
/// cares about. `ENABLED` defaults to `true`; the one implementation
/// that sets it `false` is [`NoTrace`], which turns every hook site
/// into statically dead code.
pub trait Tracer<E> {
    /// Whether the calendar should invoke the hooks at all. Checked as
    /// `if T::ENABLED` on every hot-path call site, so a `false` here
    /// removes the tracing code at monomorphization time.
    const ENABLED: bool = true;

    /// An event was scheduled (or posted / backlogged) for time `at`.
    #[inline]
    fn on_schedule(&mut self, at: SimTime, event: &E) {
        let _ = (at, event);
    }

    /// An event is about to be delivered at time `at`.
    #[inline]
    fn on_pop(&mut self, at: SimTime, event: &E) {
        let _ = (at, event);
    }

    /// A pending event was cancelled at clock time `now`.
    #[inline]
    fn on_cancel(&mut self, now: SimTime) {
        let _ = now;
    }
}

/// The zero-sized "tracing off" tracer: `ENABLED = false` makes every
/// hook site in [`crate::Calendar`] statically dead, so
/// `Calendar<E, NoTrace>` (the default) monomorphizes to exactly the
/// pre-tracing calendar. This is the type parameter's default, so
/// existing code compiles — and runs — unchanged.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoTrace;

impl<E> Tracer<E> for NoTrace {
    const ENABLED: bool = false;
}

/// A counting tracer: schedules, pops, cancels, and the concurrent
/// live-event high-water mark. Event-type agnostic — useful to size
/// calendars ([`crate::Calendar::with_capacity`]) and to sanity-check
/// engines (`schedules == pops + cancels` once a run drains).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CalendarProbe {
    schedules: u64,
    pops: u64,
    cancels: u64,
    high_water: u64,
}

impl CalendarProbe {
    /// Events scheduled (all lanes: `schedule`, `post`,
    /// `schedule_sorted`).
    pub fn schedules(&self) -> u64 {
        self.schedules
    }

    /// Events delivered.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Events cancelled before firing.
    pub fn cancels(&self) -> u64 {
        self.cancels
    }

    /// Maximum number of simultaneously pending events observed.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Events scheduled but neither delivered nor cancelled yet.
    pub fn outstanding(&self) -> u64 {
        self.schedules - self.pops - self.cancels
    }
}

impl<E> Tracer<E> for CalendarProbe {
    #[inline]
    fn on_schedule(&mut self, _at: SimTime, _event: &E) {
        self.schedules += 1;
        self.high_water = self.high_water.max(self.outstanding());
    }

    #[inline]
    fn on_pop(&mut self, _at: SimTime, _event: &E) {
        self.pops += 1;
    }

    #[inline]
    fn on_cancel(&mut self, _now: SimTime) {
        self.cancels += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::Calendar;

    fn t(v: f64) -> SimTime {
        SimTime::new(v)
    }

    #[test]
    fn no_trace_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoTrace>(), 0);
        const { assert!(!<NoTrace as Tracer<u32>>::ENABLED) };
        const { assert!(<CalendarProbe as Tracer<u32>>::ENABLED) };
        // A NoTrace calendar is the same size as the tracer-less one
        // was: the field is zero-sized.
        assert_eq!(
            std::mem::size_of::<Calendar<u32>>(),
            std::mem::size_of::<Calendar<u32, NoTrace>>()
        );
    }

    #[test]
    fn probe_counts_all_lanes() {
        let mut cal: Calendar<u32, CalendarProbe> =
            Calendar::with_tracer(4, CalendarProbe::default());
        cal.schedule(t(1.0), 1).unwrap();
        cal.post(t(2.0), 2).unwrap();
        cal.schedule_sorted([(t(5.0), 3), (t(6.0), 4)]).unwrap();
        let h = cal.schedule(t(3.0), 5).unwrap();
        assert_eq!(cal.tracer().schedules(), 5);
        assert_eq!(cal.tracer().high_water(), 5);
        assert!(cal.cancel(h));
        assert_eq!(cal.tracer().cancels(), 1);
        while cal.pop().is_some() {}
        let probe = cal.into_tracer();
        assert_eq!(probe.pops(), 4);
        assert_eq!(probe.outstanding(), 0);
        assert_eq!(probe.high_water(), 5, "high water survives the drain");
    }
}
