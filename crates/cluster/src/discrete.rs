//! Exact discrete-time replica of the paper's model (§2.1).
//!
//! Time advances in integer units. While the parallel task computes, the
//! owner requests the CPU with probability `P` after each unit of task
//! work; a request suspends the task for a deterministic `O` units. With
//! the paper's progress guarantee, the owner cannot re-request until the
//! task has completed one more unit — so interruptions per task are
//! `Binomial(T, P)`, exactly the analysis. [`ProgressGuarantee::None`]
//! removes that guarantee (the paper's third "optimism bullet"): the
//! owner re-requests immediately with probability `P` after finishing,
//! compounding delays geometrically.
//!
//! # Sampling the interruptions
//!
//! The guaranteed count is drawn by jumping between owner requests with
//! Geometric(`P`) gaps: one inverted uniform per request, plus one for
//! the gap that passes `T`. Most tasks are never interrupted — the
//! first gap alone exceeds `T`, with probability `(1 - P)^T`: 63–98% of
//! the tasks of the paper's validation (U = 0.20 to 0.01) — so the
//! simulator settles that case with a squeeze (Marsaglia 1977; Devroye,
//! *Non-Uniform Random Variate Generation*, 1986). At construction it
//! computes θ = [`Geometric::survival_squeeze`]`(T)`, which is
//! `(1 - P)^T` shrunk by a relative margin of `(T·|ln(1 - P)| + 1)·2^-48`,
//! and a first uniform below θ ends the task with no logarithm. The
//! margin covers the rounding of `exp`, `ln` and the products, so every
//! uniform below θ is one whose exact inversion exceeds `T`; any other
//! draw runs the gap loop from that same uniform. The RNG draws and
//! every [`TaskOutcome`] are those of the plain loop.
//!
//! A settled task reads one state word. The first output of
//! xoshiro256** depends only on the second of its four state words, so
//! the job-time path that [`crate::experiment::JobTimeExperiment`]
//! runs takes each task's stream seed and computes that first uniform
//! alone ([`Xoshiro256StarStar::first_f64_open`]). Only a uniform at
//! or above θ expands the full state and runs
//! [`DiscreteTaskSim::run_task`], which draws the same uniform again.

use crate::task::TaskOutcome;
use nds_stats::distributions::Geometric;
use nds_stats::rng::Xoshiro256StarStar;

/// Whether the task is guaranteed one unit of progress between owner
/// requests (the paper's assumption) or not (the pessimistic variant the
/// paper lists among its optimistic simplifications).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressGuarantee {
    /// Paper semantics: at most one owner request per unit of task work;
    /// interruptions ~ Binomial(T, P).
    Guaranteed,
    /// No guarantee: after an owner burst completes, the owner may
    /// immediately request again (probability `P` per opportunity).
    None,
}

/// Discrete-time simulator of one parallel task on one workstation.
#[derive(Debug, Clone, Copy)]
pub struct DiscreteTaskSim {
    /// Integer task demand `T`.
    task_demand: u64,
    /// Owner request probability per unit of task work, `P in [0, 1)`.
    request_prob: f64,
    /// Owner service demand `O` (time units, deterministic).
    owner_demand: f64,
    /// Progress-guarantee discipline.
    guarantee: ProgressGuarantee,
    /// Gaps between owner requests; `None` when `P = 0`.
    gap: Option<Geometric>,
    /// The squeeze θ: a first uniform below it leaves the task
    /// uninterrupted. 0 without the guarantee, where no single uniform
    /// settles a task.
    squeeze: f64,
}

impl DiscreteTaskSim {
    /// Paper-faithful simulator (progress guaranteed).
    ///
    /// `P` must be 0 or a valid [`Geometric`] parameter below 1, so a
    /// `P` too small to leave `1 - P` below 1 in `f64` (below about
    /// 5.6e-17) is rejected.
    pub fn paper(task_demand: u64, request_prob: f64, owner_demand: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&request_prob),
            "P must be in [0,1), got {request_prob}"
        );
        assert!(
            owner_demand > 0.0 && owner_demand.is_finite(),
            "O must be finite and > 0"
        );
        let gap = match Geometric::new(request_prob) {
            Ok(gap) => Some(gap),
            Err(_) if request_prob == 0.0 => None,
            Err(e) => panic!("P must be 0 or a valid geometric parameter: {e}"),
        };
        Self {
            task_demand,
            request_prob,
            owner_demand,
            guarantee: ProgressGuarantee::Guaranteed,
            gap,
            squeeze: gap.map_or(0.0, |gap| gap.survival_squeeze(task_demand)),
        }
    }

    /// Same parameters without the progress guarantee.
    pub fn without_guarantee(mut self) -> Self {
        self.guarantee = ProgressGuarantee::None;
        self.squeeze = 0.0;
        self
    }

    /// The execution time [`DiscreteTaskSim::run_task`] returns on
    /// `Xoshiro256StarStar::new(seed)`. A first uniform below the
    /// squeeze settles the task from one state word of that stream
    /// (module docs); any other runs `run_task` on the stream.
    #[inline]
    pub(crate) fn task_time(&self, seed: u64) -> f64 {
        if Xoshiro256StarStar::first_f64_open(seed) < self.squeeze {
            // Uninterrupted: `T + 0·O` is `T`.
            self.task_demand as f64
        } else {
            self.run_task(&mut Xoshiro256StarStar::new(seed))
                .execution_time
        }
    }

    /// Simulate one task, returning its outcome.
    ///
    /// With [`ProgressGuarantee::Guaranteed`] the result satisfies
    /// `execution_time = T + n·O` with `n ~ Binomial(T, P)` — the
    /// paper's eq. 1 exactly.
    pub fn run_task(&self, rng: &mut Xoshiro256StarStar) -> TaskOutcome {
        let interruptions: u64 = match (self.guarantee, self.gap) {
            (ProgressGuarantee::Guaranteed, Some(gap)) if self.task_demand > 0 => {
                // Exact Binomial(T, P) sample in O(successes): jump
                // between successes with geometric gaps instead of
                // running T Bernoulli trials. A first uniform below the
                // squeeze is a first gap past T (module docs).
                let u = rng.next_f64_open();
                if u < self.squeeze {
                    0
                } else {
                    let mut pos = gap.invert(u);
                    let mut n: u64 = 0;
                    while pos <= self.task_demand {
                        n += 1;
                        pos = pos.saturating_add(gap.sample_int(rng));
                    }
                    n
                }
            }
            (ProgressGuarantee::Guaranteed, _) => 0,
            (ProgressGuarantee::None, _) => {
                // The owner may issue several back-to-back bursts after
                // each unit of task progress.
                let mut n = 0;
                for _ in 0..self.task_demand {
                    while rng.bernoulli(self.request_prob) {
                        n += 1;
                    }
                }
                n
            }
        };
        let suspended = interruptions as f64 * self.owner_demand;
        TaskOutcome {
            execution_time: self.task_demand as f64 + suspended,
            demand: self.task_demand as f64,
            interruptions,
            suspended_time: suspended,
        }
    }

    /// Simulate a whole job of `w` perfectly parallel tasks (one per
    /// workstation); the job time is the max task time (the paper's
    /// final-synchronization assumption). Each workstation consumes from
    /// the same RNG stream; for independent streams use
    /// [`crate::job::JobRunner`].
    pub fn run_job(&self, w: u32, rng: &mut Xoshiro256StarStar) -> f64 {
        (0..w)
            .map(|_| self.run_task(rng).execution_time)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_stats::summary::RunningStats;

    #[test]
    fn zero_prob_means_dedicated() {
        let sim = DiscreteTaskSim::paper(100, 0.0, 10.0);
        let mut rng = Xoshiro256StarStar::new(1);
        let out = sim.run_task(&mut rng);
        assert_eq!(out.execution_time, 100.0);
        assert_eq!(out.interruptions, 0);
        assert!(out.is_consistent());
    }

    #[test]
    fn task_time_structure() {
        // execution_time - T must be a multiple of O.
        let sim = DiscreteTaskSim::paper(50, 0.2, 10.0);
        let mut rng = Xoshiro256StarStar::new(2);
        for _ in 0..100 {
            let out = sim.run_task(&mut rng);
            let extra = out.execution_time - 50.0;
            assert!(extra >= 0.0);
            let n = extra / 10.0;
            assert!((n - n.round()).abs() < 1e-12);
            assert_eq!(n as u64, out.interruptions);
            assert!(out.is_consistent());
            // Paper bound: at most T + T·O.
            assert!(out.execution_time <= 50.0 + 50.0 * 10.0);
        }
    }

    #[test]
    fn mean_interruptions_matches_binomial() {
        let sim = DiscreteTaskSim::paper(100, 0.05, 10.0);
        let mut rng = Xoshiro256StarStar::new(3);
        let mut stats = RunningStats::new();
        for _ in 0..20_000 {
            stats.push(sim.run_task(&mut rng).interruptions as f64);
        }
        // E[n] = T·P = 5, Var = T·P·(1-P) = 4.75.
        assert!((stats.mean() - 5.0).abs() < 0.1, "mean {}", stats.mean());
        assert!(
            (stats.variance() - 4.75).abs() < 0.3,
            "var {}",
            stats.variance()
        );
    }

    #[test]
    fn mean_task_time_matches_closed_form() {
        // E_t = T(1 + O·P).
        let sim = DiscreteTaskSim::paper(200, 0.01, 10.0);
        let mut rng = Xoshiro256StarStar::new(4);
        let mut stats = RunningStats::new();
        for _ in 0..20_000 {
            stats.push(sim.run_task(&mut rng).execution_time);
        }
        let expected = 200.0 * (1.0 + 10.0 * 0.01);
        assert!(
            (stats.mean() - expected).abs() < 0.5,
            "mean {} vs {expected}",
            stats.mean()
        );
    }

    #[test]
    fn job_time_is_max_of_tasks() {
        let sim = DiscreteTaskSim::paper(50, 0.1, 5.0);
        let mut rng_a = Xoshiro256StarStar::new(9);
        let mut rng_b = Xoshiro256StarStar::new(9);
        let job = sim.run_job(4, &mut rng_a);
        let tasks: Vec<f64> = (0..4)
            .map(|_| sim.run_task(&mut rng_b).execution_time)
            .collect();
        let max = tasks.iter().cloned().fold(0.0, f64::max);
        assert_eq!(job, max);
        assert!(job >= 50.0);
    }

    #[test]
    fn no_guarantee_is_slower_on_average() {
        let base = DiscreteTaskSim::paper(100, 0.1, 10.0);
        let worse = base.without_guarantee();
        let mut r1 = Xoshiro256StarStar::new(5);
        let mut r2 = Xoshiro256StarStar::new(5);
        let mut s1 = RunningStats::new();
        let mut s2 = RunningStats::new();
        for _ in 0..5_000 {
            s1.push(base.run_task(&mut r1).execution_time);
            s2.push(worse.run_task(&mut r2).execution_time);
        }
        assert!(
            s2.mean() > s1.mean(),
            "no-guarantee {} should exceed guaranteed {}",
            s2.mean(),
            s1.mean()
        );
        // Without the guarantee, expected bursts per unit = P/(1-P),
        // so E_t = T(1 + O·P/(1-P)).
        let expected = 100.0 * (1.0 + 10.0 * 0.1 / 0.9);
        assert!(
            (s2.mean() - expected).abs() < 3.0,
            "no-guarantee mean {} vs {expected}",
            s2.mean()
        );
    }

    #[test]
    fn no_guarantee_can_exceed_paper_bound() {
        // The T + T·O bound only holds WITH the guarantee; without it,
        // some sample must eventually exceed it for aggressive P.
        let sim = DiscreteTaskSim::paper(5, 0.6, 10.0).without_guarantee();
        let mut rng = Xoshiro256StarStar::new(6);
        let bound = 5.0 + 5.0 * 10.0;
        let exceeded = (0..5_000).any(|_| sim.run_task(&mut rng).execution_time > bound);
        assert!(exceeded, "expected some run beyond the guarantee bound");
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = DiscreteTaskSim::paper(100, 0.1, 10.0);
        let a = sim
            .run_task(&mut Xoshiro256StarStar::new(42))
            .execution_time;
        let b = sim
            .run_task(&mut Xoshiro256StarStar::new(42))
            .execution_time;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "P must be in [0,1)")]
    fn rejects_p_one() {
        DiscreteTaskSim::paper(10, 1.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "P must be 0 or a valid geometric parameter")]
    fn rejects_p_whose_complement_rounds_to_one() {
        // 1 - P == 1 in f64: every gap would be 1, interrupting every unit.
        DiscreteTaskSim::paper(10, 1e-17, 10.0);
    }

    /// `run_task` under the guarantee without the squeeze: a fresh
    /// `Geometric` per call, a logarithm of `1 - P` per draw and
    /// `f64::ceil`.
    fn reference_run_task(t: u64, p: f64, o: f64, rng: &mut Xoshiro256StarStar) -> TaskOutcome {
        let interruptions = if p == 0.0 || t == 0 {
            0
        } else {
            let gap = Geometric::new(p).expect("valid P");
            let mut pos: u64 = 0;
            let mut n: u64 = 0;
            loop {
                let u = rng.next_f64_open();
                let x = (u.ln() / (1.0 - gap.p()).ln()).ceil();
                pos = pos.saturating_add(x.max(1.0) as u64);
                if pos > t {
                    break;
                }
                n += 1;
            }
            n
        };
        let suspended = interruptions as f64 * o;
        TaskOutcome {
            execution_time: t as f64 + suspended,
            demand: t as f64,
            interruptions,
            suspended_time: suspended,
        }
    }

    #[test]
    fn run_task_matches_the_plain_gap_loop() {
        let mut cases = vec![(100, 0.0), (0, 0.3), (1, 0.3), (1, 0.999_999)];
        // θ near 1, then θ = 0 (T·|ln(1 - P)| = 832 and 921).
        let near_one = [(1_000, 1e-12), (5_000, 1e-12)];
        let zero = [(1_200, 0.5), (400, 0.9)];
        for (t, p) in near_one {
            assert!(DiscreteTaskSim::paper(t, p, 10.0).squeeze > 1.0 - 1e-8);
        }
        for (t, p) in zero {
            assert_eq!(DiscreteTaskSim::paper(t, p, 10.0).squeeze, 0.0);
        }
        cases.extend(near_one.into_iter().chain(zero));
        let mut pick = Xoshiro256StarStar::new(31);
        for _ in 0..500 {
            let p = 0.999 * 10f64.powf(-12.0 * pick.next_f64());
            cases.push((pick.next_bounded(3_000), p));
        }
        for (t, p) in cases {
            let sim = DiscreteTaskSim::paper(t, p, 10.0);
            for _ in 0..10 {
                let seed = pick.next();
                let want = reference_run_task(t, p, 10.0, &mut Xoshiro256StarStar::new(seed));
                assert_eq!(
                    sim.task_time(seed).to_bits(),
                    want.execution_time.to_bits(),
                    "T = {t}, P = {p}, seed {seed:#x}: the seeded path"
                );
                let mut a = Xoshiro256StarStar::new(seed);
                let mut b = a.clone();
                for _ in 0..20 {
                    let got = sim.run_task(&mut a);
                    let want = reference_run_task(t, p, 10.0, &mut b);
                    assert_eq!(got.interruptions, want.interruptions, "T = {t}, P = {p}");
                    for (g, w) in [
                        (got.execution_time, want.execution_time),
                        (got.demand, want.demand),
                        (got.suspended_time, want.suspended_time),
                    ] {
                        assert_eq!(g.to_bits(), w.to_bits(), "T = {t}, P = {p}");
                    }
                }
                assert_eq!(a, b, "T = {t}, P = {p}: different RNG draws");
            }
        }
    }
}
