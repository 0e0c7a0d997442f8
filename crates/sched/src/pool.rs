//! Dynamic pool membership and probe-style load estimation.
//!
//! The paper assumes a static pool of `W` stations, all always usable at
//! low priority. A cycle-stealing scheduler instead sees a **dynamic**
//! pool: a machine is available only while its owner is away, it may be
//! occupied by a guest task already, and the scheduler's view of each
//! machine's load is an *estimate* from periodic probes (the `uptime`
//! readings the paper used for calibration), not ground truth.
//!
//! [`Pool`] tracks, per machine: the owner's busy/idle state, whether a
//! guest task occupies it (running *or* suspended — a suspended guest
//! still holds the machine's memory), and an exponentially-weighted
//! [`UtilizationEstimator`]. It also integrates the available-machine
//! count over time, the scheduler's analogue of the paper's `W`.
//!
//! # Incremental free-machine index
//!
//! The pool keeps its offerable machines (free and within the
//! admission threshold) in a bitset, one bit per machine in 64-machine
//! words, plus a count; a free-machine counter feeds the availability
//! integral. An owner transition, crash, repair or occupancy flip sets
//! or clears one bit, in O(1): nothing is shifted and no O(W)
//! membership scan runs per event.
//!
//! Every built-in placement policy is answered from the bits, in
//! machine order, so the pool picks the machine that policy's
//! [`crate::policy`] implementation would pick from the
//! machine-ordered candidate slice (rank/select over a bit vector,
//! after Jacobson, "Space-efficient static trees and graphs", FOCS
//! 1989):
//! * random: `Pool::nth_candidate` returns the `k`-th set bit, for
//!   the `k` that [`crate::policy::RandomPlacement`] draws with
//!   `next_bounded(count)`;
//! * round-robin: `Pool::next_candidate` returns the first set bit at
//!   or after the cursor, wrapping to the lowest;
//! * least-loaded: [`Pool::least_loaded`], below.
//!
//! The first two read one word after another, O(W/64) word reads (16
//! on 1,000 machines).
//!
//! [`Pool::candidates`] still returns that slice, for tests and outside
//! callers, but builds it on demand: the first call after a change
//! collects it from the bits in O(W), and the next change to the set or
//! to a candidate's estimate drops it. The scheduler engine never calls
//! it; it reads [`Pool::candidate_count`] and the picks above.
//!
//! # Least-loaded index
//!
//! On a pool of at least 128 machines, [`Pool::least_loaded`] answers
//! the least-loaded placement query without scanning the candidates:
//! the pool also keeps them in an indexed binary min-heap (Sedgewick
//! & Wayne, *Algorithms*, 4th ed., §2.4) keyed on `(estimate, machine)`
//! packed into one `u128`, so the minimum is the first lowest estimate
//! in machine order, exactly the linear scan's pick. A per-machine heap
//! position lets an owner return, a crash, an occupancy flip or a
//! changed estimate move or remove any machine in O(log n), with no
//! stale entries; all upkeep happens where the candidate bitset
//! changes.
//!
//! The heap covers the candidates, not every machine, because a busy
//! pool has few of them. On the 1,000-machine × 1M-job synthetic day
//! (seed 4), 75.5% of the 4.5M placements saw exactly one candidate,
//! while the placements that saw more than 128 read 96.9% of all
//! scanned entries. A heap over the candidates costs O(1) at the
//! saturated peak and O(log n) in the idle trough.
//!
//! Two gates keep the heap off the workloads it would slow:
//! * pools below 128 machines always scan the set bits. A small pool
//!   offers a few candidates, which the scan reads faster than the
//!   heap is kept up: on a 32-machine gang pool with about 4.5
//!   candidates per placement, an ungated heap ran 7% slower. On
//!   synthetic days under least-loaded placement
//!   (`SyntheticTrace::datacenter(W, 300·W)`, 2-core Xeon) it gained
//!   nothing at W = 32, 5% at 64, 15% at 128, 32% at 256 and 2.7× at
//!   1,000. The gate sits where the gain is clear;
//! * the heap is built on the first [`Pool::least_loaded`] call and
//!   maintained from then on, so random and round-robin placement never
//!   pay its upkeep. Its arrays are sized in [`Pool::new`], so neither
//!   the build nor the upkeep allocates.

use crate::policy::{first_min, CandidateMachine};
use std::sync::OnceLock;

/// Pools with fewer machines answer [`Pool::least_loaded`] with the
/// linear scan and never build the heap.
const HEAP_MIN_MACHINES: usize = 128;

/// Exponentially weighted, time-decayed estimate of one owner's
/// utilization — the probe readings a real scheduler would gossip.
///
/// Between observations the estimate is held; each observed interval of
/// busy (1) or idle (0) state is folded in with weight `1 - exp(-dt/tau)`,
/// so the estimator remembers roughly the last `tau` time units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationEstimator {
    tau: f64,
    estimate: f64,
    last_update: f64,
}

impl UtilizationEstimator {
    /// A fresh estimator with averaging window `tau` (> 0), starting
    /// from `initial` (e.g. a calibration probe, or 0 for no prior).
    ///
    /// # Panics
    ///
    /// If `tau` is not finite and positive, or `initial` is not finite.
    pub fn new(tau: f64, initial: f64) -> Self {
        assert!(tau > 0.0 && tau.is_finite(), "tau must be finite > 0");
        assert!(initial.is_finite(), "initial estimate must be finite");
        Self {
            tau,
            estimate: initial.clamp(0.0, 1.0),
            last_update: 0.0,
        }
    }

    /// Fold in the interval `[self.last_update, now]` during which the
    /// owner was continuously `busy` or idle.
    pub fn observe(&mut self, now: f64, busy: bool) {
        let dt = (now - self.last_update).max(0.0);
        self.last_update = now;
        if dt == 0.0 {
            return;
        }
        let w = 1.0 - (-dt / self.tau).exp();
        let level = if busy { 1.0 } else { 0.0 };
        self.estimate += w * (level - self.estimate);
    }

    /// Current estimate in `[0, 1]`.
    pub fn estimate(&self) -> f64 {
        self.estimate
    }
}

#[derive(Debug, Clone)]
struct Member {
    owner_busy: bool,
    occupied: bool,
    /// Crashed and awaiting repair (fault injection) — a down machine
    /// is never free, whatever its owner or occupancy state.
    down: bool,
    estimator: UtilizationEstimator,
}

/// `(estimate, machine)` packed so that integer order is the linear
/// scan's order: estimates are finite and non-negative, so their bits
/// order like their values, `+ 0.0` folds `-0.0` onto `0.0` (the scan
/// sees them as equal), and ties fall to the lower machine.
fn load_key(estimate: f64, machine: usize) -> u128 {
    u128::from((estimate + 0.0).to_bits()) << 32 | machine as u128
}

/// The machine a [`load_key`] was packed from.
fn key_machine(key: u128) -> usize {
    (key & u128::from(u32::MAX)) as usize
}

/// Indexed binary min-heap of [`load_key`]s over the candidate machines.
#[derive(Debug, Clone, Default)]
struct LoadHeap {
    keys: Vec<u128>,
    /// Each machine's slot in `keys` (meaningless for machines not in
    /// the heap).
    pos: Vec<u32>,
    /// Whether `keys` mirrors the candidate set; set by the first
    /// query, after which every candidate change updates the heap.
    live: bool,
}

impl LoadHeap {
    /// Empty arrays sized for `n` machines, so nothing allocates later.
    fn with_machines(n: usize) -> Self {
        Self {
            keys: Vec::with_capacity(n),
            pos: vec![0; n],
            live: false,
        }
    }

    /// Heapify the candidates' keys and start maintaining them.
    fn build(&mut self, keys: impl Iterator<Item = u128>) {
        self.keys.clear();
        for key in keys {
            self.pos[key_machine(key)] = self.keys.len() as u32;
            self.keys.push(key);
        }
        for i in (0..self.keys.len() / 2).rev() {
            self.sift_down(i);
        }
        self.live = true;
    }

    fn min_machine(&self) -> usize {
        key_machine(self.keys[0])
    }

    fn insert(&mut self, key: u128) {
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1);
    }

    fn remove(&mut self, m: usize) {
        let i = self.pos[m] as usize;
        let last = self.keys.pop().expect("invariant: a machine in the heap");
        if i < self.keys.len() {
            self.keys[i] = last;
            self.restore(i);
        }
    }

    fn rekey(&mut self, key: u128) {
        let i = self.pos[key_machine(key)] as usize;
        self.keys[i] = key;
        self.restore(i);
    }

    /// Move the key at slot `i` up or down to its place.
    fn restore(&mut self, i: usize) {
        if i > 0 && self.keys[(i - 1) / 2] > self.keys[i] {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.keys[parent];
            if above < key {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.keys[i];
        let n = self.keys.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.keys[child + 1] < self.keys[child] {
                child += 1;
            }
            let below = self.keys[child];
            if key < below {
                break;
            }
            self.place(i, below);
            i = child;
        }
        self.place(i, key);
    }

    fn place(&mut self, i: usize, key: u128) {
        self.keys[i] = key;
        self.pos[key_machine(key)] = i as u32;
    }
}

/// A set of machines as a bitset: bit `m % 64` of word `m / 64` is
/// machine `m`, and `len` counts the set bits.
#[derive(Debug, Clone)]
struct MachineSet {
    words: Vec<u64>,
    len: usize,
}

impl MachineSet {
    /// An empty set over machines `0..n`.
    fn with_machines(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    fn contains(&self, m: usize) -> bool {
        self.words[m / 64] >> (m % 64) & 1 == 1
    }

    /// Add `m`, which must be absent.
    fn insert(&mut self, m: usize) {
        self.words[m / 64] |= 1 << (m % 64);
        self.len += 1;
    }

    /// Remove `m`, which must be present.
    fn remove(&mut self, m: usize) {
        self.words[m / 64] &= !(1 << (m % 64));
        self.len -= 1;
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }

    /// The `k`-th member in ascending order (select), if `k < len`.
    fn nth(&self, mut k: usize) -> Option<usize> {
        for (i, &word) in self.words.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k < ones {
                let mut rest = word;
                for _ in 0..k {
                    rest &= rest - 1;
                }
                return Some(i * 64 + rest.trailing_zeros() as usize);
            }
            k -= ones;
        }
        None
    }

    /// The lowest member at or above `from`, if any.
    fn first_from(&self, from: usize) -> Option<usize> {
        let start = from / 64;
        let head = self.words.get(start)? & (!0 << (from % 64));
        std::iter::once(head)
            .chain(self.words[start + 1..].iter().copied())
            .enumerate()
            .find(|&(_, word)| word != 0)
            .map(|(i, word)| (start + i) * 64 + word.trailing_zeros() as usize)
    }
}

/// Membership and load view of the workstation pool.
#[derive(Debug, Clone)]
pub struct Pool {
    members: Vec<Member>,
    admission_threshold: f64,
    // Time integral of the available-machine count.
    avail_integral: f64,
    last_change: f64,
    /// Machines with owner away and no guest aboard (regardless of the
    /// admission threshold) — the availability integral's integrand,
    /// maintained incrementally.
    free_count: usize,
    /// Offerable machines (free *and* within the admission threshold),
    /// maintained incrementally.
    offerable: MachineSet,
    /// The candidates again, as a least-loaded heap (empty below
    /// [`HEAP_MIN_MACHINES`]).
    heap: LoadHeap,
    /// [`Pool::candidates`]' slice, built by its first call after a
    /// change and dropped by the next change.
    view: OnceLock<Vec<CandidateMachine>>,
    /// Machines currently crashed — the downtime integral's integrand.
    down_count: usize,
    /// Time integral of the down-machine count (machine-time lost to
    /// crashes), accumulated on the same clock as `avail_integral`.
    down_integral: f64,
}

// `Pool` stays `Send + Sync`: the candidate view is a `OnceLock`, not
// a `OnceCell`, so a shared `&Pool` can still cross threads.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Pool>();
};

impl Pool {
    /// A pool of `n` machines, all initially idle and unoccupied.
    ///
    /// `admission_threshold` is the maximum estimated owner utilization
    /// at which a machine is still offered to the scheduler (1.0 admits
    /// everything); `tau` is the estimator window; `initial_estimates`
    /// optionally seeds each estimator from a calibration probe.
    pub fn new(n: usize, admission_threshold: f64, tau: f64, initial_estimates: &[f64]) -> Self {
        assert!(n > 0, "pool needs at least one machine");
        let members = (0..n)
            .map(|i| Member {
                owner_busy: false,
                occupied: false,
                down: false,
                estimator: UtilizationEstimator::new(
                    tau,
                    initial_estimates.get(i).copied().unwrap_or(0.0),
                ),
            })
            .collect();
        let mut pool = Self {
            members,
            admission_threshold,
            avail_integral: 0.0,
            last_change: 0.0,
            free_count: n,
            offerable: MachineSet::with_machines(n),
            heap: if n >= HEAP_MIN_MACHINES {
                LoadHeap::with_machines(n)
            } else {
                LoadHeap::default()
            },
            view: OnceLock::new(),
            down_count: 0,
            down_integral: 0.0,
        };
        for m in 0..n {
            pool.refresh_candidate(m);
        }
        pool
    }

    /// Number of machines in the pool (available or not).
    pub fn size(&self) -> usize {
        self.members.len()
    }

    fn accumulate_availability(&mut self, now: f64) {
        // Clamp like `UtilizationEstimator::observe`: a backwards probe
        // (e.g. a query issued at an earlier timestamp than the last
        // state change) must not drive the integral negative. State
        // transitions separately `debug_assert!` monotonicity so real
        // event-ordering bugs still surface in debug/test builds.
        let dt = (now - self.last_change).max(0.0);
        self.avail_integral += dt * self.free_count as f64;
        self.down_integral += dt * self.down_count as f64;
        self.last_change = self.last_change.max(now);
    }

    fn member_free(m: &Member) -> bool {
        !m.down && !m.owner_busy && !m.occupied
    }

    /// Re-sync machine `m`'s bit in the candidate set, and its heap
    /// entry, with its current state (owner presence, occupancy,
    /// estimate).
    fn refresh_candidate(&mut self, m: usize) {
        let member = &self.members[m];
        let load_estimate = member.estimator.estimate();
        let eligible = Self::member_free(member) && load_estimate <= self.admission_threshold;
        match (eligible, self.offerable.contains(m)) {
            (true, true) => {
                if self.heap.live {
                    self.heap.rekey(load_key(load_estimate, m));
                }
            }
            (true, false) => {
                self.offerable.insert(m);
                if self.heap.live {
                    self.heap.insert(load_key(load_estimate, m));
                }
            }
            (false, true) => {
                self.offerable.remove(m);
                if self.heap.live {
                    self.heap.remove(m);
                }
            }
            (false, false) => return,
        }
        // The set or a candidate's estimate may have changed.
        self.view.take();
    }

    /// Apply a state change to machine `m`, keeping the free counter
    /// and candidate index in sync.
    fn transition(&mut self, m: usize, mutate: impl FnOnce(&mut Member)) {
        let was_free = Self::member_free(&self.members[m]);
        mutate(&mut self.members[m]);
        let is_free = Self::member_free(&self.members[m]);
        match (was_free, is_free) {
            (true, false) => self.free_count -= 1,
            (false, true) => self.free_count += 1,
            _ => {}
        }
        // A machine that stays non-free is in the candidate set
        // neither before nor after — nothing to probe.
        if was_free || is_free {
            self.refresh_candidate(m);
        }
    }

    /// Record an owner state transition on machine `m` at time `now`.
    #[inline]
    pub fn owner_transition(&mut self, now: f64, m: usize, busy: bool) {
        debug_assert!(
            now >= self.last_change,
            "owner transition at {now} precedes last pool change {}",
            self.last_change
        );
        self.accumulate_availability(now);
        let was_busy = self.members[m].owner_busy;
        self.members[m].estimator.observe(now, was_busy);
        self.transition(m, |member| member.owner_busy = busy);
    }

    /// Record a guest task taking or releasing machine `m` at `now`.
    #[inline]
    pub fn set_occupied(&mut self, now: f64, m: usize, occupied: bool) {
        debug_assert!(
            now >= self.last_change,
            "occupancy change at {now} precedes last pool change {}",
            self.last_change
        );
        self.accumulate_availability(now);
        self.transition(m, |member| member.occupied = occupied);
    }

    /// Record machine `m` crashing (`down = true`) or being repaired
    /// (`down = false`) at `now`. A down machine leaves the candidate
    /// index and the availability integral's integrand until repair;
    /// the lost machine-time accumulates in [`Pool::downtime`].
    #[inline]
    pub fn set_down(&mut self, now: f64, m: usize, down: bool) {
        debug_assert!(
            now >= self.last_change,
            "down transition at {now} precedes last pool change {}",
            self.last_change
        );
        self.accumulate_availability(now);
        if self.members[m].down != down {
            if down {
                self.down_count += 1;
            } else {
                self.down_count -= 1;
            }
        }
        self.transition(m, |member| member.down = down);
    }

    /// Whether machine `m` is currently crashed.
    pub fn is_down(&self, m: usize) -> bool {
        self.members[m].down
    }

    /// Total machine-time spent down (crashed) up to `now` — the
    /// pool-level capacity lost to failures.
    pub fn downtime(&mut self, now: f64) -> f64 {
        self.accumulate_availability(now);
        self.down_integral
    }

    /// Whether machine `m`'s owner is currently busy.
    pub fn owner_busy(&self, m: usize) -> bool {
        self.members[m].owner_busy
    }

    /// Current load estimate for machine `m`.
    pub fn load_estimate(&self, m: usize) -> f64 {
        self.members[m].estimator.estimate()
    }

    /// Machines currently offerable to the scheduler: owner away, no
    /// guest aboard, and estimated load within the admission threshold,
    /// in ascending machine order — the slice the
    /// [`crate::policy::PlacementPolicy`] implementations take.
    ///
    /// The first call after a pool change builds it from the candidate
    /// bitset, in O(W); later calls return the same slice until the
    /// next change. The scheduler engine never calls it: it reads
    /// [`Pool::candidate_count`] and the pool's own picks.
    pub fn candidates(&self) -> &[CandidateMachine] {
        self.view.get_or_init(|| {
            self.offerable
                .iter()
                .map(|machine| CandidateMachine {
                    machine,
                    load_estimate: self.load_estimate(machine),
                })
                .collect()
        })
    }

    /// Number of machines currently offerable, `candidates().len()`
    /// without building the slice.
    #[inline]
    pub fn candidate_count(&self) -> usize {
        self.offerable.len
    }

    /// The `k`-th candidate in machine order (`candidates()[k]`'s
    /// machine), or `None` when `k >= candidate_count()`. With `k`
    /// drawn by `next_bounded(candidate_count())` it is
    /// [`crate::policy::RandomPlacement`]'s pick.
    #[inline]
    pub(crate) fn nth_candidate(&self, k: usize) -> Option<usize> {
        self.offerable.nth(k)
    }

    /// The first candidate at or after machine `from`, wrapping to the
    /// lowest candidate, or `None` when there is none:
    /// [`crate::policy::RoundRobinPlacement`]'s pick for a cursor at
    /// `from`.
    #[inline]
    pub(crate) fn next_candidate(&self, from: usize) -> Option<usize> {
        self.offerable
            .first_from(from)
            .or_else(|| self.offerable.first_from(0))
    }

    /// The machine [`crate::policy::LeastLoadedPlacement`] would choose
    /// from [`Pool::candidates`] — the first candidate in machine order
    /// with the lowest load estimate — or `None` when there is none.
    ///
    /// Pools of 128 machines or more answer from an indexed heap, which
    /// the first call builds and every later pool change maintains;
    /// smaller pools scan the candidates (see the module docs).
    #[inline]
    pub fn least_loaded(&mut self) -> Option<usize> {
        if self.members.len() < HEAP_MIN_MACHINES {
            return first_min(self.offerable.iter().map(|m| (m, self.load_estimate(m))));
        }
        if self.offerable.len == 0 {
            return None;
        }
        if !self.heap.live {
            let members = &self.members;
            self.heap.build(
                self.offerable
                    .iter()
                    .map(|m| load_key(members[m].estimator.estimate(), m)),
            );
        }
        Some(self.heap.min_machine())
    }

    /// Time-averaged available-machine count up to `now` — the dynamic
    /// pool's effective `W`.
    pub fn mean_available(&mut self, now: f64) -> f64 {
        self.accumulate_availability(now);
        if now <= 0.0 {
            return self.free_count as f64;
        }
        self.avail_integral / now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        LeastLoadedPlacement, PlacementPolicy, RandomPlacement, RoundRobinPlacement,
    };
    use nds_stats::rng::Xoshiro256StarStar;

    #[test]
    fn estimator_converges_to_duty_cycle() {
        // Owner alternates 1 busy / 9 idle => 10% utilization.
        let mut e = UtilizationEstimator::new(50.0, 0.0);
        let mut t = 0.0;
        for _ in 0..200 {
            e.observe(t + 9.0, false);
            e.observe(t + 10.0, true);
            t += 10.0;
        }
        assert!((e.estimate() - 0.10).abs() < 0.03, "est {}", e.estimate());
    }

    #[test]
    fn estimator_weighs_recent_history_more() {
        let mut e = UtilizationEstimator::new(10.0, 0.0);
        e.observe(100.0, false); // long idle stretch
        e.observe(130.0, true); // then a long busy stretch
        assert!(
            e.estimate() > 0.9,
            "recent busy dominates: {}",
            e.estimate()
        );
    }

    #[test]
    fn candidates_exclude_busy_and_occupied() {
        let mut p = Pool::new(3, 1.0, 100.0, &[]);
        p.owner_transition(1.0, 0, true);
        p.set_occupied(1.0, 1, true);
        let c = p.candidates();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].machine, 2);
    }

    #[test]
    fn admission_threshold_filters_hot_machines() {
        let mut p = Pool::new(2, 0.3, 10.0, &[0.9, 0.1]);
        assert_eq!(p.candidates().len(), 1);
        assert_eq!(p.candidates()[0].machine, 1);
        // Machine 0 cools off after a long idle observation.
        p.owner_transition(100.0, 0, false);
        assert_eq!(p.candidates().len(), 2);
    }

    #[test]
    fn initial_estimates_seed_the_view() {
        let p = Pool::new(2, 1.0, 100.0, &[0.25, 0.05]);
        assert_eq!(p.load_estimate(0), 0.25);
        assert_eq!(p.load_estimate(1), 0.05);
    }

    #[test]
    fn mean_available_integrates_transitions() {
        let mut p = Pool::new(2, 1.0, 100.0, &[]);
        // Both free until t=10, one busy from 10 to 30, both free to 40.
        p.owner_transition(10.0, 0, true);
        p.owner_transition(30.0, 0, false);
        let mean = p.mean_available(40.0);
        // (2*10 + 1*20 + 2*10) / 40 = 1.5
        assert!((mean - 1.5).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_pool_rejected() {
        Pool::new(0, 1.0, 100.0, &[]);
    }

    #[test]
    fn backwards_probe_cannot_corrupt_the_integral() {
        // Regression: `accumulate_availability` used to add the raw
        // `now - last_change` product, so a probe at an earlier
        // timestamp subtracted machine-time from the integral (and
        // rewound `last_change`, double-counting the gap afterwards).
        let mut p = Pool::new(2, 1.0, 100.0, &[]);
        p.owner_transition(10.0, 0, true); // integral = 2*10 = 20
        let _ = p.mean_available(5.0); // backwards probe: must be a no-op
        let mean = p.mean_available(20.0);
        // (2*10 + 1*10) / 20 = 1.5 — unchanged by the stale probe.
        assert!((mean - 1.5).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedes last pool change")]
    fn non_monotone_transition_asserts_in_debug() {
        let mut p = Pool::new(1, 1.0, 100.0, &[]);
        p.owner_transition(10.0, 0, true);
        p.owner_transition(5.0, 0, false);
    }

    #[test]
    fn down_machines_leave_candidates_and_availability() {
        let mut p = Pool::new(2, 1.0, 100.0, &[]);
        p.set_down(10.0, 0, true);
        assert!(p.is_down(0));
        assert_eq!(p.candidates().len(), 1);
        assert_eq!(p.candidates()[0].machine, 1);
        p.set_down(25.0, 0, false);
        assert!(!p.is_down(0));
        assert_eq!(p.candidates().len(), 2);
        // Availability: 2 machines to t=10, 1 from 10..25, 2 to 40.
        let mean = p.mean_available(40.0);
        assert!(
            (mean - (20.0 + 15.0 + 30.0) / 40.0).abs() < 1e-12,
            "mean {mean}"
        );
        // Downtime integral: machine 0 down for 15 machine-time units.
        assert!((p.downtime(40.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn down_state_is_orthogonal_to_owner_and_occupancy() {
        // A crash while the owner is home (or a guest is aboard) and a
        // repair before/after the owner leaves must never double-count
        // the free counter.
        let mut p = Pool::new(1, 1.0, 100.0, &[]);
        p.owner_transition(1.0, 0, true);
        p.set_down(2.0, 0, true); // down while owner busy
        assert_eq!(p.candidates().len(), 0);
        p.owner_transition(3.0, 0, false); // owner leaves while down
        assert_eq!(p.candidates().len(), 0, "down dominates owner state");
        p.set_down(4.0, 0, false); // repair with owner away
        assert_eq!(p.candidates().len(), 1);
        assert_eq!(p.free_count, 1);
        // Idempotent repair is a no-op.
        p.set_down(5.0, 0, false);
        assert_eq!(p.free_count, 1);
        assert!((p.downtime(10.0) - 2.0).abs() < 1e-12);
    }

    /// What the pre-incremental implementation rebuilt per call.
    fn brute_force_candidates(p: &Pool) -> Vec<CandidateMachine> {
        p.members
            .iter()
            .enumerate()
            .filter(|(_, m)| Pool::member_free(m))
            .filter(|(_, m)| m.estimator.estimate() <= p.admission_threshold)
            .map(|(i, m)| CandidateMachine {
                machine: i,
                load_estimate: m.estimator.estimate(),
            })
            .collect()
    }

    /// A round-robin policy whose cursor sits at `cursor`: a fresh one
    /// starts at 0, and choosing machine `cursor - 1` moves it there.
    fn round_robin_at(cursor: usize) -> RoundRobinPlacement {
        let mut policy = RoundRobinPlacement::default();
        if let Some(machine) = cursor.checked_sub(1) {
            let only = [CandidateMachine {
                machine,
                load_estimate: 0.0,
            }];
            policy.choose(&only, &mut Xoshiro256StarStar::new(0));
        }
        policy
    }

    #[test]
    fn incremental_index_matches_brute_force_rebuild() {
        // Random churn of owner transitions, occupancy flips and
        // crashes/repairs across a threshold that machines cross in
        // both directions, on pools on both sides of the heap gate and
        // at the bitset's word boundaries. After every mutation the
        // candidate count, the view and the random and round-robin
        // picks must match a full rebuild and the policies' picks over
        // it; once querying starts (at a random step, so the heap is
        // built mid-churn), `least_loaded` must equal the linear scan
        // over the rebuilt slice.

        // Repeated values and a negative zero make ties common.
        const SEEDS: [f64; 7] = [0.0, -0.0, 0.2, 0.2, 0.45, 0.7, 0.95];
        // Either side of one and two full 64-machine words.
        const EDGES: [usize; 6] = [63, 64, 65, 127, 128, 129];
        let mut rng = Xoshiro256StarStar::new(0x900D);
        for case in 0u64..66 {
            let w = match case % 3 {
                0 => 1 + rng.next_bounded(40) as usize,
                1 => HEAP_MIN_MACHINES + rng.next_bounded(173) as usize,
                _ => EDGES[(case / 3) as usize % EDGES.len()],
            };
            let seeds: Vec<f64> = (0..w)
                .map(|_| SEEDS[rng.next_bounded(SEEDS.len() as u64) as usize])
                .collect();
            let tau = 2.0 + 18.0 * rng.next_f64();
            let mut p = Pool::new(w, 0.5, tau, &seeds);
            let steps = 400;
            let first_query = rng.next_bounded(steps);
            let mut t = 0.0;
            for step in 0..steps {
                // About one step in three lands at the same instant,
                // which changes membership without moving any estimate.
                if rng.next_bounded(3) > 0 {
                    t += 4.0 * rng.next_f64();
                }
                let m = rng.next_bounded(w as u64) as usize;
                let on = rng.next_bounded(2) == 0;
                match rng.next_bounded(3) {
                    0 => p.owner_transition(t, m, on),
                    1 => p.set_occupied(t, m, on),
                    _ => p.set_down(t, m, on),
                }
                let at = format!("case {case} (w {w}), step {step}");
                let expected = brute_force_candidates(&p);
                // The previous step built a view, so one this step's
                // mutation should have dropped shows here.
                assert_eq!(p.candidates(), expected.as_slice(), "view: {at}");
                assert_eq!(p.candidate_count(), expected.len(), "count: {at}");
                let free = p.members.iter().filter(|m| Pool::member_free(m)).count();
                assert_eq!(p.free_count, free, "free counter: {at}");
                assert_eq!(p.nth_candidate(expected.len()), None, "past the end: {at}");
                if expected.is_empty() {
                    let cursor = rng.next_bounded(w as u64 + 1) as usize;
                    assert_eq!(p.next_candidate(cursor), None, "round-robin, none: {at}");
                } else {
                    for _ in 0..3 {
                        let draw = Xoshiro256StarStar::new(rng.next());
                        let (mut ours, mut theirs) = (draw.clone(), draw);
                        let k = ours.next_bounded(p.candidate_count() as u64) as usize;
                        let pick = expected[RandomPlacement.choose(&expected, &mut theirs)].machine;
                        assert_eq!(p.nth_candidate(k), Some(pick), "random: {at}");
                        assert_eq!(ours, theirs, "random draws: {at}");
                    }
                    for cursor in [w, rng.next_bounded(w as u64) as usize, m] {
                        let mut unused = Xoshiro256StarStar::new(0);
                        let pick =
                            expected[round_robin_at(cursor).choose(&expected, &mut unused)].machine;
                        assert_eq!(
                            p.next_candidate(cursor),
                            Some(pick),
                            "round-robin from {cursor}: {at}"
                        );
                    }
                }
                if step >= first_query {
                    let scan = (!expected.is_empty()).then(|| {
                        let mut rng = Xoshiro256StarStar::new(1);
                        expected[LeastLoadedPlacement.choose(&expected, &mut rng)].machine
                    });
                    assert_eq!(p.least_loaded(), scan, "least-loaded: {at}");
                }
            }
            assert_eq!(
                p.heap.live,
                w >= HEAP_MIN_MACHINES,
                "heap gate, case {case}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "initial estimate must be finite")]
    fn nan_seed_estimate_rejected() {
        // A NaN seed used to survive `clamp`, so the machine was never
        // offered yet still counted as free in `mean_available`.
        Pool::new(2, 1.0, 100.0, &[f64::NAN, 0.5]);
    }
}
