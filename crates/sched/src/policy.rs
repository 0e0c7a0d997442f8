//! Task-placement policies.
//!
//! When the central queue has work and the pool has available machines,
//! a [`PlacementPolicy`] picks where the next task lands. The candidates
//! carry the pool's probe-style load estimates (see
//! [`crate::pool::UtilizationEstimator`]), so policies can be load-aware
//! without any global knowledge a real scheduler would lack.

use nds_stats::rng::Xoshiro256StarStar;

/// One available machine as seen by a placement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateMachine {
    /// Machine index in the pool.
    pub machine: usize,
    /// The pool's current estimate of this machine's owner utilization
    /// (0 = believed idle, 1 = believed saturated).
    pub load_estimate: f64,
}

/// Chooses a machine for the next task.
///
/// `choose` receives a non-empty candidate slice sorted by machine index
/// and returns an index **into the slice**. Policies may keep state
/// (e.g. a round-robin cursor) between calls.
pub trait PlacementPolicy {
    /// Short stable name for tables and CLI flags.
    fn name(&self) -> &'static str;

    /// Pick one of `candidates` (guaranteed non-empty).
    fn choose(&mut self, candidates: &[CandidateMachine], rng: &mut Xoshiro256StarStar) -> usize;
}

/// Uniformly random placement — the baseline a real scheduler must beat.
///
/// The scheduler engine draws the same index and reads the machine
/// from the pool's candidate bitset; this slice version is the
/// reference it is tested against.
#[derive(Debug, Default)]
pub struct RandomPlacement;

impl PlacementPolicy for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn choose(&mut self, candidates: &[CandidateMachine], rng: &mut Xoshiro256StarStar) -> usize {
        rng.next_bounded(candidates.len() as u64) as usize
    }
}

/// Cycle through machine indices, skipping unavailable ones.
///
/// The scheduler engine keeps the same cursor and reads its pick from
/// the pool's candidate bitset; this slice version is the reference
/// it is tested against.
#[derive(Debug, Default)]
pub struct RoundRobinPlacement {
    next_machine: usize,
}

impl PlacementPolicy for RoundRobinPlacement {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn choose(&mut self, candidates: &[CandidateMachine], _rng: &mut Xoshiro256StarStar) -> usize {
        // First candidate at or after the cursor, wrapping to the front.
        let pick = candidates
            .iter()
            .position(|c| c.machine >= self.next_machine)
            .unwrap_or(0);
        self.next_machine = candidates[pick].machine + 1;
        pick
    }
}

/// Send the task to the machine with the lowest estimated owner
/// utilization (ties broken by machine index).
///
/// This is the reference linear scan. The scheduler engine does not
/// call it per task: it reads [`crate::Pool::least_loaded`], which
/// returns the same machine from an index the pool keeps as it changes.
#[derive(Debug, Default)]
pub struct LeastLoadedPlacement;

impl PlacementPolicy for LeastLoadedPlacement {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn choose(&mut self, candidates: &[CandidateMachine], _rng: &mut Xoshiro256StarStar) -> usize {
        first_min(candidates.iter().map(|c| c.load_estimate).enumerate())
            .expect("invariant: choose receives a non-empty candidate slice")
    }
}

/// The least-loaded rule: the key of the first `(key, load estimate)`
/// pair, in machine order, with the lowest estimate, or `None` for no
/// pairs. [`LeastLoadedPlacement`] keys candidates by slice index,
/// [`crate::Pool::least_loaded`]'s scan by machine.
pub(crate) fn first_min(mut entries: impl Iterator<Item = (usize, f64)>) -> Option<usize> {
    let (mut best, mut lowest) = entries.next()?;
    for (key, estimate) in entries {
        if estimate < lowest {
            (best, lowest) = (key, estimate);
        }
    }
    Some(best)
}

/// Value-type selector for the built-in policies, convenient for sweeps
/// and config structs (policies themselves are stateful objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// [`RandomPlacement`].
    Random,
    /// [`RoundRobinPlacement`].
    RoundRobin,
    /// [`LeastLoadedPlacement`].
    LeastLoaded,
}

impl PlacementKind {
    /// Every built-in policy, in sweep order.
    pub const ALL: [PlacementKind; 3] = [
        PlacementKind::Random,
        PlacementKind::RoundRobin,
        PlacementKind::LeastLoaded,
    ];

    /// Short stable name matching the policy's own.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Random => "random",
            Self::RoundRobin => "round-robin",
            Self::LeastLoaded => "least-loaded",
        }
    }

    /// Parse a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Instantiate a fresh policy object.
    pub fn build(&self) -> Box<dyn PlacementPolicy> {
        match self {
            Self::Random => Box::new(RandomPlacement),
            Self::RoundRobin => Box::new(RoundRobinPlacement::default()),
            Self::LeastLoaded => Box::new(LeastLoadedPlacement),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(specs: &[(usize, f64)]) -> Vec<CandidateMachine> {
        specs
            .iter()
            .map(|&(machine, load_estimate)| CandidateMachine {
                machine,
                load_estimate,
            })
            .collect()
    }

    #[test]
    fn random_stays_in_bounds_and_covers() {
        let mut p = RandomPlacement;
        let mut rng = Xoshiro256StarStar::new(1);
        let c = cands(&[(0, 0.1), (3, 0.2), (7, 0.3)]);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let i = p.choose(&c, &mut rng);
            assert!(i < c.len());
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all candidates eventually chosen");
    }

    #[test]
    fn round_robin_cycles_over_machine_ids() {
        let mut p = RoundRobinPlacement::default();
        let mut rng = Xoshiro256StarStar::new(1);
        let c = cands(&[(0, 0.0), (2, 0.0), (5, 0.0)]);
        let picks: Vec<usize> = (0..6).map(|_| c[p.choose(&c, &mut rng)].machine).collect();
        assert_eq!(picks, vec![0, 2, 5, 0, 2, 5]);
    }

    #[test]
    fn round_robin_skips_missing_machines() {
        let mut p = RoundRobinPlacement::default();
        let mut rng = Xoshiro256StarStar::new(1);
        // Machine 1 disappears between calls; cursor moves past it.
        let c1 = cands(&[(0, 0.0), (1, 0.0)]);
        assert_eq!(c1[p.choose(&c1, &mut rng)].machine, 0);
        let c2 = cands(&[(3, 0.0), (9, 0.0)]);
        assert_eq!(c2[p.choose(&c2, &mut rng)].machine, 3);
    }

    #[test]
    fn least_loaded_picks_minimum_with_stable_ties() {
        let mut p = LeastLoadedPlacement;
        let mut rng = Xoshiro256StarStar::new(1);
        let c = cands(&[(0, 0.3), (1, 0.05), (2, 0.05), (3, 0.2)]);
        // Minimum is shared by machines 1 and 2; the earliest wins.
        assert_eq!(c[p.choose(&c, &mut rng)].machine, 1);
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in PlacementKind::ALL {
            assert_eq!(PlacementKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(PlacementKind::parse("nope"), None);
    }
}
