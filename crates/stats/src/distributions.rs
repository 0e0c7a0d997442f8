//! Service-time and think-time distributions.
//!
//! The paper's discrete-time model uses a **geometric** owner think time
//! (mean `1/P`) and a **deterministic** owner service demand `O`. Its
//! stated future work ("typical processes experience a much larger
//! variance", citing Sauer & Chandy) motivates the higher-variance
//! families implemented here: [`Exponential`], [`Erlang`],
//! [`Hyperexponential`], and arbitrary [`Mixture`]s (used to model rare
//! long-running owner jobs). [`Weibull`] and [`BoundedPareto`] serve
//! the robustness extensions: machine lifetime (MTBF/MTTR) and
//! heavy-tailed trace demands respectively.

use crate::error::StatsError;
use crate::rng::Xoshiro256StarStar;

/// A closed-form sampling recipe equivalent to a distribution's
/// `sample` — same formula, same RNG consumption, bit-identical
/// draws. Hot loops that sample through `Arc<dyn Distribution>`
/// millions of times (the scheduler's owner think/use cycles) cache
/// this at setup and inline the draw, skipping the virtual call and
/// pointer chase per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClosedForm {
    /// `-ln(u) / rate` with `u` from `next_f64_open` — exactly
    /// [`Exponential::sample`].
    Exponential {
        /// The rate parameter (mean `1/rate`).
        rate: f64,
    },
    /// A point mass: every draw returns `value` and consumes no
    /// randomness — exactly [`Deterministic::sample`].
    Deterministic {
        /// The constant value.
        value: f64,
    },
}

impl ClosedForm {
    /// Draw one sample; bit-identical to the originating
    /// distribution's `sample` on the same RNG state.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        match *self {
            ClosedForm::Exponential { rate } => -rng.next_f64_open().ln() / rate,
            ClosedForm::Deterministic { value } => value,
        }
    }
}

/// A sampleable, positively supported distribution with known moments.
///
/// All distributions in this workspace are cheap value types; sampling
/// takes the RNG explicitly so components can own independent streams.
pub trait Distribution: std::fmt::Debug + Send + Sync {
    /// Draw one sample.
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64;

    /// Expected value.
    fn mean(&self) -> f64;

    /// Variance.
    fn variance(&self) -> f64;

    /// Squared coefficient of variation `Var/Mean^2` (0 for deterministic).
    fn cv2(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.variance() / (m * m)
        }
    }

    /// A [`ClosedForm`] recipe drawing bit-identical samples, if this
    /// distribution has one (default: none).
    fn closed_form(&self) -> Option<ClosedForm> {
        None
    }
}

/// Point mass at `value` — the paper's owner service demand `O`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// A point mass at `value >= 0`.
    pub fn new(value: f64) -> Result<Self, StatsError> {
        if !value.is_finite() || value < 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "value",
                value,
                constraint: "must be finite and >= 0",
            });
        }
        Ok(Self { value })
    }

    /// The constant returned by every sample.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Distribution for Deterministic {
    fn sample(&self, _rng: &mut Xoshiro256StarStar) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }

    fn closed_form(&self) -> Option<ClosedForm> {
        Some(ClosedForm::Deterministic { value: self.value })
    }
}

/// Exponential distribution with the given rate (mean `1/rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Exponential with `rate > 0`.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "rate",
                value: rate,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self { rate })
    }

    /// Exponential with the given mean (`mean > 0`).
    pub fn with_mean(mean: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                constraint: "must be finite and > 0",
            });
        }
        Self::new(1.0 / mean)
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn closed_form(&self) -> Option<ClosedForm> {
        Some(ClosedForm::Exponential { rate: self.rate })
    }
}

/// Geometric distribution on `{1, 2, 3, ...}`: number of Bernoulli(`p`)
/// trials up to and including the first success. Mean `1/p`.
///
/// This is exactly the paper's owner think time: "at each time unit the
/// owner requests the processor with probability P", so the gap between
/// the end of an owner burst and the next request is Geometric(P).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    /// `ln(1 - p)`: negative, `-inf` at `p = 1`.
    ln_q: f64,
}

/// The relative margin of [`Geometric::survival_squeeze`], `2^-48`.
const SQUEEZE_MARGIN: f64 = 16.0 * f64::EPSILON;

impl Geometric {
    /// Geometric with success probability `p` in `(0, 1]`.
    ///
    /// `p` must also leave `1 - p` below 1 in `f64`, which fails for
    /// `p` below about 5.6e-17: there `ln(1 - p)` is 0 and inversion
    /// would return 1 on every draw instead of a gap of mean `1/p`.
    pub fn new(p: f64) -> Result<Self, StatsError> {
        if !p.is_finite() || p <= 0.0 || p > 1.0 {
            return Err(StatsError::InvalidParameter {
                name: "p",
                value: p,
                constraint: "must be in (0, 1]",
            });
        }
        let ln_q = (1.0 - p).ln();
        if ln_q == 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "p",
                value: p,
                constraint: "must leave 1 - p below 1 in f64 (p above about 5.6e-17)",
            });
        }
        Ok(Self { p, ln_q })
    }

    /// The per-trial success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draw an integer sample (1-based trial count).
    pub fn sample_int(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        self.invert(rng.next_f64_open())
    }

    /// The inversion [`Geometric::sample_int`] applies to its uniform
    /// `u` in `(0, 1]`: `max(1, ceil(ln(u) / ln(1 - p)))`.
    #[inline]
    pub fn invert(&self, u: f64) -> u64 {
        ceil_at_least_one(u.ln() / self.ln_q)
    }

    /// A squeeze bound on the survival function `P(X > t) = (1 - p)^t`:
    /// every `u` in `[2^-53, 1]` (the range of
    /// [`Xoshiro256StarStar::next_f64_open`]) below the bound inverts
    /// to a gap greater than `t`, so one comparison settles such a draw
    /// without a logarithm.
    ///
    /// The bound is `exp(x)·(1 - (|x| + 1)·2^-48)` with `x = t·ln(1 - p)`
    /// from the stored logarithm, which [`Geometric::invert`] also
    /// divides by. The margin, `2^-48` (16 ulp) relative to `|x| + 1`,
    /// is about four times the rounding it covers: the product
    /// `t·ln(1 - p)` and `exp` here, `ln(u)` and the division in the
    /// inversion, each within an ulp of `|x|`, and an ulp of absolute
    /// error near `u = 1`. The bound is 0 for `p = 1` and when `exp(x)`
    /// underflows to 0.
    pub fn survival_squeeze(&self, t: u64) -> f64 {
        if self.p >= 1.0 {
            return 0.0;
        }
        let x = t as f64 * self.ln_q;
        x.exp() * (1.0 - (x.abs() + 1.0) * SQUEEZE_MARGIN)
    }
}

/// `r.ceil().max(1.0) as u64`, in integer arithmetic: `f64::ceil` is a
/// libm call on baseline x86-64. Equal for every `f64`, NaN included.
#[inline]
fn ceil_at_least_one(r: f64) -> u64 {
    let t = r as u64;
    t.saturating_add(u64::from((t as f64) < r)).max(1)
}

impl Distribution for Geometric {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.sample_int(rng) as f64
    }

    fn mean(&self) -> f64 {
        1.0 / self.p
    }

    fn variance(&self) -> f64 {
        (1.0 - self.p) / (self.p * self.p)
    }
}

/// Erlang-`k` distribution (sum of `k` iid exponentials), CV² = 1/k.
///
/// Used to model owner demands *less* variable than exponential but not
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    k: u32,
    rate: f64,
}

impl Erlang {
    /// Erlang with `k >= 1` phases each of rate `rate > 0`.
    /// Mean is `k / rate`.
    pub fn new(k: u32, rate: f64) -> Result<Self, StatsError> {
        if k == 0 {
            return Err(StatsError::InvalidParameter {
                name: "k",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        if !rate.is_finite() || rate <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "rate",
                value: rate,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self { k, rate })
    }

    /// Erlang-`k` with a target mean.
    pub fn with_mean(k: u32, mean: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                constraint: "must be finite and > 0",
            });
        }
        Self::new(k, k as f64 / mean)
    }

    /// Number of phases.
    pub fn phases(&self) -> u32 {
        self.k
    }
}

impl Distribution for Erlang {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        // Product-of-uniforms form avoids k separate ln calls.
        let mut prod = 1.0;
        for _ in 0..self.k {
            prod *= rng.next_f64_open();
        }
        -prod.ln() / self.rate
    }

    fn mean(&self) -> f64 {
        self.k as f64 / self.rate
    }

    fn variance(&self) -> f64 {
        self.k as f64 / (self.rate * self.rate)
    }
}

/// Two-phase hyperexponential distribution, CV² >= 1.
///
/// With probability `p1` the sample is Exp(`r1`), otherwise Exp(`r2`).
/// The `fit` constructor produces the standard *balanced-means* fit for a
/// target mean and CV², the textbook way (Sauer & Chandy) to model the
/// high-variance owner demands the paper flags as future work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyperexponential {
    p1: f64,
    r1: f64,
    r2: f64,
}

impl Hyperexponential {
    /// Explicit two-phase construction: branch probability `p1 in (0,1)`,
    /// rates `r1, r2 > 0`.
    pub fn new(p1: f64, r1: f64, r2: f64) -> Result<Self, StatsError> {
        if !p1.is_finite() || p1 <= 0.0 || p1 >= 1.0 {
            return Err(StatsError::InvalidParameter {
                name: "p1",
                value: p1,
                constraint: "must be in (0, 1)",
            });
        }
        for (name, r) in [("r1", r1), ("r2", r2)] {
            if !r.is_finite() || r <= 0.0 {
                return Err(StatsError::InvalidParameter {
                    name,
                    value: r,
                    constraint: "must be finite and > 0",
                });
            }
        }
        Ok(Self { p1, r1, r2 })
    }

    /// Balanced-means fit: returns the H2 distribution with the requested
    /// `mean > 0` and `cv2 >= 1`, with `p1·(1/r1) = p2·(1/r2)`.
    pub fn fit(mean: f64, cv2: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                constraint: "must be finite and > 0",
            });
        }
        if !cv2.is_finite() || cv2 < 1.0 {
            return Err(StatsError::InvalidParameter {
                name: "cv2",
                value: cv2,
                constraint: "must be finite and >= 1 for a hyperexponential",
            });
        }
        if (cv2 - 1.0).abs() < 1e-12 {
            // Degenerates to exponential; emulate with two equal phases.
            let r = 1.0 / mean;
            return Self::new(0.5, r, r);
        }
        let root = ((cv2 - 1.0) / (cv2 + 1.0)).sqrt();
        let p1 = 0.5 * (1.0 + root);
        let r1 = 2.0 * p1 / mean;
        let r2 = 2.0 * (1.0 - p1) / mean;
        Self::new(p1, r1, r2)
    }

    /// Probability of drawing from the first phase.
    pub fn p1(&self) -> f64 {
        self.p1
    }
}

impl Distribution for Hyperexponential {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        let rate = if rng.bernoulli(self.p1) {
            self.r1
        } else {
            self.r2
        };
        -rng.next_f64_open().ln() / rate
    }

    fn mean(&self) -> f64 {
        self.p1 / self.r1 + (1.0 - self.p1) / self.r2
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        let second = 2.0 * (self.p1 / (self.r1 * self.r1) + (1.0 - self.p1) / (self.r2 * self.r2));
        second - m * m
    }
}

/// Continuous uniform on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformRange {
    low: f64,
    high: f64,
}

impl UniformRange {
    /// Uniform over `[low, high)` with `low < high`.
    pub fn new(low: f64, high: f64) -> Result<Self, StatsError> {
        if !(low.is_finite() && high.is_finite()) || low >= high {
            return Err(StatsError::InvalidRange { low, high });
        }
        Ok(Self { low, high })
    }
}

impl Distribution for UniformRange {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.low + (self.high - self.low) * rng.next_f64()
    }

    fn mean(&self) -> f64 {
        0.5 * (self.low + self.high)
    }

    fn variance(&self) -> f64 {
        let w = self.high - self.low;
        w * w / 12.0
    }
}

/// Bounded (truncated) Pareto on `[low, high)` with shape `alpha`.
///
/// The canonical heavy-tailed job-size model for datacenter traces:
/// most jobs are near `low`, a rare few approach `high`, and — unlike
/// the unbounded Pareto — every moment is finite, so trace generators
/// stay reproducible and summable. Sampling is by inverse CDF and
/// consumes exactly one uniform per draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    low: f64,
    high: f64,
}

impl BoundedPareto {
    /// Bounded Pareto with shape `alpha > 0` on `0 < low < high`.
    pub fn new(alpha: f64, low: f64, high: f64) -> Result<Self, StatsError> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be finite and > 0",
            });
        }
        if !low.is_finite() || low <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "low",
                value: low,
                constraint: "must be finite and > 0",
            });
        }
        if !high.is_finite() || high <= low {
            return Err(StatsError::InvalidParameter {
                name: "high",
                value: high,
                constraint: "must be finite and > low",
            });
        }
        Ok(Self { alpha, low, high })
    }

    /// The tail index.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The lower support bound.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// The upper support bound.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// Raw moment `E[X^k]`: the density is
    /// `α L^α x^(-α-1) / (1 - (L/H)^α)` on `[L, H]`, so the integral
    /// `∫ x^(k-α-1) dx` is logarithmic exactly at `α == k`.
    fn raw_moment(&self, k: f64) -> f64 {
        let (a, l, h) = (self.alpha, self.low, self.high);
        let norm = a * l.powf(a) / (1.0 - (l / h).powf(a));
        if (a - k).abs() < 1e-12 {
            norm * (h / l).ln() / l.powf(a - k)
        } else {
            norm * (h.powf(k - a) - l.powf(k - a)) / (k - a)
        }
    }
}

impl Distribution for BoundedPareto {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        // Inverse CDF: F(x) = (1 - (L/x)^α) / (1 - (L/H)^α). With
        // u in [0, 1) the radicand stays in ((L/H)^α, 1], so the
        // sample lands in [L, H) without clamping.
        let u = rng.next_f64();
        let scale = 1.0 - (self.low / self.high).powf(self.alpha);
        self.low / (1.0 - u * scale).powf(1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        self.raw_moment(1.0)
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        self.raw_moment(2.0) - m * m
    }
}

/// Weibull distribution with shape `k` and scale `λ`.
///
/// The standard lifetime model for machine failure processes: `k < 1`
/// gives infant-mortality (decreasing hazard), `k == 1` degenerates to
/// [`Exponential`], and `k > 1` gives wear-out (increasing hazard) —
/// exactly the MTBF/MTTR families a fault-injection model needs.
/// Sampling is by inverse CDF and consumes exactly one uniform per
/// draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Weibull with `shape > 0` and `scale > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, StatsError> {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "shape",
                value: shape,
                constraint: "must be finite and > 0",
            });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "scale",
                value: scale,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self { shape, scale })
    }

    /// Weibull with the given `shape > 0` and target `mean > 0`:
    /// solves `mean = scale · Γ(1 + 1/shape)` for the scale.
    pub fn with_mean(shape: f64, mean: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                constraint: "must be finite and > 0",
            });
        }
        if !shape.is_finite() || shape <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "shape",
                value: shape,
                constraint: "must be finite and > 0",
            });
        }
        let scale = mean / crate::special::ln_gamma(1.0 + 1.0 / shape).exp();
        Self::new(shape, scale)
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Raw moment `E[X^k] = λ^k · Γ(1 + k/shape)`.
    fn raw_moment(&self, k: f64) -> f64 {
        self.scale.powf(k) * crate::special::ln_gamma(1.0 + k / self.shape).exp()
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        // Inverse CDF: F(x) = 1 - exp(-(x/λ)^k), so with u in (0, 1]
        // the sample is λ·(-ln u)^(1/k) — one uniform per draw.
        self.scale * (-rng.next_f64_open().ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.raw_moment(1.0)
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        self.raw_moment(2.0) - m * m
    }
}

/// Finite mixture of distributions with normalized weights.
///
/// Models the "long-running workstation owner jobs" extension: e.g. 99%
/// short interactive demands mixed with 1% multi-minute compute jobs.
#[derive(Debug)]
pub struct Mixture {
    components: Vec<(f64, Box<dyn Distribution>)>,
}

impl Mixture {
    /// Build from `(weight, distribution)` pairs; weights must be positive
    /// and are normalized to sum to 1.
    pub fn new(components: Vec<(f64, Box<dyn Distribution>)>) -> Result<Self, StatsError> {
        if components.is_empty() {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        if !total.is_finite() || total <= 0.0 || components.iter().any(|(w, _)| *w <= 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "weights",
                value: total,
                constraint: "all weights must be > 0",
            });
        }
        let components = components
            .into_iter()
            .map(|(w, d)| (w / total, d))
            .collect();
        Ok(Self { components })
    }

    /// Number of mixture components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the mixture has no components (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl Distribution for Mixture {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        let mut u = rng.next_f64();
        for (w, d) in &self.components {
            if u < *w {
                return d.sample(rng);
            }
            u -= *w;
        }
        // Floating-point slack: fall through to the last component.
        self.components
            .last()
            .expect("mixture is non-empty")
            .1
            .sample(rng)
    }

    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    fn variance(&self) -> f64 {
        // Var = E[X^2] - E[X]^2 with E[X^2] mixed per component.
        let mean = self.mean();
        let second: f64 = self
            .components
            .iter()
            .map(|(w, d)| {
                let m = d.mean();
                w * (d.variance() + m * m)
            })
            .sum();
        second - mean * mean
    }
}

/// A distribution shifted right by a constant offset (support `>= offset`).
///
/// Used, e.g., to give owner processes a minimum context-switch cost.
#[derive(Debug)]
pub struct Shifted<D: Distribution> {
    offset: f64,
    inner: D,
}

impl<D: Distribution> Shifted<D> {
    /// Shift `inner` right by `offset >= 0`.
    pub fn new(offset: f64, inner: D) -> Result<Self, StatsError> {
        if !offset.is_finite() || offset < 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "offset",
                value: offset,
                constraint: "must be finite and >= 0",
            });
        }
        Ok(Self { offset, inner })
    }
}

impl<D: Distribution> Distribution for Shifted<D> {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.offset + self.inner.sample(rng)
    }

    fn mean(&self) -> f64 {
        self.offset + self.inner.mean()
    }

    fn variance(&self) -> f64 {
        self.inner.variance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::RunningStats;

    fn sample_stats<D: Distribution>(d: &D, n: usize, seed: u64) -> RunningStats {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut s = RunningStats::new();
        for _ in 0..n {
            s.push(d.sample(&mut rng));
        }
        s
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(10.0).unwrap();
        let mut rng = Xoshiro256StarStar::new(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 10.0);
        }
        assert_eq!(d.mean(), 10.0);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.cv2(), 0.0);
    }

    #[test]
    fn deterministic_rejects_negative() {
        assert!(Deterministic::new(-1.0).is_err());
        assert!(Deterministic::new(f64::NAN).is_err());
    }

    #[test]
    fn exponential_moments_empirical() {
        let d = Exponential::with_mean(4.0).unwrap();
        let s = sample_stats(&d, 200_000, 42);
        assert!((s.mean() - 4.0).abs() < 0.05, "mean {}", s.mean());
        assert!((s.variance() - 16.0).abs() < 0.5, "var {}", s.variance());
        assert!((d.cv2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_rejects_bad_params() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-2.0).is_err());
        assert!(Exponential::with_mean(0.0).is_err());
    }

    #[test]
    fn geometric_mean_matches() {
        let p = 0.05;
        let d = Geometric::new(p).unwrap();
        let s = sample_stats(&d, 200_000, 7);
        assert!((s.mean() - 20.0).abs() < 0.2, "mean {}", s.mean());
        assert!((d.variance() - (1.0 - p) / (p * p)).abs() < 1e-12);
    }

    #[test]
    fn geometric_support_is_positive_integers() {
        let d = Geometric::new(0.5).unwrap();
        let mut rng = Xoshiro256StarStar::new(3);
        for _ in 0..10_000 {
            let x = d.sample_int(&mut rng);
            assert!(x >= 1);
        }
    }

    #[test]
    fn geometric_p_one_always_one() {
        let d = Geometric::new(1.0).unwrap();
        let mut rng = Xoshiro256StarStar::new(3);
        for _ in 0..100 {
            assert_eq!(d.sample_int(&mut rng), 1);
        }
    }

    #[test]
    fn geometric_rejects_bad_p() {
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(1.5).is_err());
        assert!(Geometric::new(-0.1).is_err());
        // Here 1 - p rounds to 1, so ln(1 - p) is 0 and every draw was 1.
        assert!(Geometric::new(1e-17).is_err());
        assert!(Geometric::new(2f64.powi(-54)).is_err());
        assert!(Geometric::new(2f64.powi(-53)).is_ok());
    }

    /// `Geometric::sample_int` before `ln(1 - p)` was stored: one
    /// logarithm of `1 - p` per draw, and `f64::ceil`.
    fn reference_sample_int(p: f64, rng: &mut Xoshiro256StarStar) -> u64 {
        if p >= 1.0 {
            return 1;
        }
        reference_invert(p, rng.next_f64_open())
    }

    fn reference_invert(p: f64, u: f64) -> u64 {
        (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64
    }

    /// `p` log-uniform in `[1e-15, 0.999999]`.
    fn random_p(rng: &mut Xoshiro256StarStar) -> f64 {
        let (lo, hi) = (1e-15f64.ln(), 0.999_999f64.ln());
        (lo + rng.next_f64() * (hi - lo)).exp()
    }

    #[test]
    fn sample_int_matches_the_per_draw_formula() {
        let fixed = [1.0, 0.5, 0.999_999, 1e-15, 2f64.powi(-53), 1.0 / 90.0];
        let mut pick = Xoshiro256StarStar::new(19);
        for i in 0..600 {
            let p = fixed.get(i).copied().unwrap_or_else(|| random_p(&mut pick));
            let d = Geometric::new(p).unwrap();
            let seed = pick.next();
            let mut a = Xoshiro256StarStar::new(seed);
            let mut b = a.clone();
            for _ in 0..200 {
                assert_eq!(
                    d.sample_int(&mut a),
                    reference_sample_int(p, &mut b),
                    "p = {p}"
                );
            }
            assert_eq!(a, b, "p = {p}: different RNG draws");
            // The ends of next_f64_open's range.
            for u in [1.0, 1.0 - f64::EPSILON / 2.0, 2f64.powi(-53)] {
                assert_eq!(d.invert(u), reference_invert(p, u), "p = {p}, u = {u}");
            }
        }
        // u = 1 makes the ratio -0.0, which still samples 1.
        let d = Geometric::new(0.3).unwrap();
        assert!((1f64.ln() / d.ln_q).is_sign_negative());
        assert_eq!(d.invert(1.0), 1);
    }

    #[test]
    fn integer_ceil_matches_f64_ceil() {
        let two = 2f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0 - f64::EPSILON,
            two.powi(52) + 0.5,
            two.powi(53),
            two.powi(63),
            two.powi(64),
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.5,
            -two.powi(70),
        ];
        let mut rng = Xoshiro256StarStar::new(23);
        for _ in 0..50_000 {
            let whole = (rng.next_f64() * 1e6).floor();
            cases.extend([
                f64::from_bits(rng.next()),
                rng.next_f64() * 1e6,
                whole,
                f64::from_bits(whole.to_bits() + 1),
            ]);
        }
        for r in cases {
            let want = r.ceil().max(1.0) as u64;
            assert_eq!(ceil_at_least_one(r), want, "r = {r:e} ({:#x})", r.to_bits());
        }
    }

    /// `1 - k·2^-53`: the values `next_f64_open` returns, largest
    /// first (exact for `k < 2^53`).
    fn lattice(k: u64) -> f64 {
        1.0 - k as f64 * 2f64.powi(-53)
    }

    #[test]
    fn survival_squeeze_never_misclassifies() {
        const LATTICE: u64 = 1 << 53;
        let smallest = lattice(LATTICE - 1);
        // The paper's validation grid: J = 1000 on W = 1, 10, 25, 50,
        // 100 at O = 10 over the Figure 1 utilizations.
        let mut pairs = Vec::new();
        for u in [0.01, 0.05, 0.10, 0.20] {
            for t in [1_000, 100, 40, 20, 10] {
                let p = u / (10.0 * (1.0 - u));
                let theta = Geometric::new(p).unwrap().survival_squeeze(t);
                let survival = (1.0 - p).powf(t as f64);
                assert!(theta < survival && theta > survival * (1.0 - 1e-12));
                pairs.push((t, p));
            }
        }
        let mut rng = Xoshiro256StarStar::new(29);
        for i in 0..2_000 {
            let p = random_p(&mut rng);
            let t = match i % 3 {
                0 => 1 + rng.next_bounded(5_000),
                1 => rng.next() >> (1 + rng.next_bounded(63)),
                // (1 - p)^t spread over (e^-40, 1].
                _ => (rng.next_f64() * 40.0 / -(1.0 - p).ln()) as u64,
            };
            pairs.push((t, p));
        }
        for (t, p) in pairs {
            let g = Geometric::new(p).unwrap();
            let theta = g.survival_squeeze(t);
            let check = |u: f64| {
                let gap = g.invert(u);
                assert!(
                    gap > t,
                    "T = {t}, P = {p}, θ = {theta:e}: u = {u:e} gives {gap}"
                );
            };
            if theta <= smallest {
                continue;
            }
            // The 1,000 lattice points just below θ.
            let mut k = (((1.0 - theta) * LATTICE as f64) as u64).min(LATTICE - 1);
            while lattice(k) >= theta {
                k += 1;
            }
            while k > 0 && lattice(k - 1) < theta {
                k -= 1;
            }
            (k..(k + 1_000).min(LATTICE)).for_each(|k| check(lattice(k)));
            // The 1,000 floats just below θ, and random ones further down.
            (1..=1_000)
                .map(|j| f64::from_bits(theta.to_bits() - j))
                .chain((0..100).map(|_| theta * rng.next_f64()))
                .filter(|&u| u >= smallest)
                .for_each(check);
        }
    }

    #[test]
    fn erlang_moments() {
        let d = Erlang::with_mean(4, 8.0).unwrap();
        assert!((d.mean() - 8.0).abs() < 1e-12);
        assert!((d.cv2() - 0.25).abs() < 1e-12);
        let s = sample_stats(&d, 100_000, 11);
        assert!((s.mean() - 8.0).abs() < 0.1, "mean {}", s.mean());
        assert!((s.variance() - 16.0).abs() < 0.6, "var {}", s.variance());
    }

    #[test]
    fn erlang_one_is_exponential() {
        let d = Erlang::new(1, 0.5).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert!((d.cv2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_rejects_zero_phases() {
        assert!(Erlang::new(0, 1.0).is_err());
    }

    #[test]
    fn hyperexponential_fit_hits_targets() {
        for (mean, cv2) in [(10.0, 4.0), (2.0, 9.0), (5.0, 1.0), (1.0, 25.0)] {
            let d = Hyperexponential::fit(mean, cv2).unwrap();
            assert!(
                (d.mean() - mean).abs() < 1e-9,
                "mean {} vs {mean}",
                d.mean()
            );
            assert!((d.cv2() - cv2).abs() < 1e-6, "cv2 {} vs {cv2}", d.cv2());
        }
    }

    #[test]
    fn hyperexponential_empirical_mean() {
        let d = Hyperexponential::fit(10.0, 16.0).unwrap();
        let s = sample_stats(&d, 400_000, 19);
        assert!((s.mean() - 10.0).abs() < 0.3, "mean {}", s.mean());
    }

    #[test]
    fn hyperexponential_rejects_cv2_below_one() {
        assert!(Hyperexponential::fit(1.0, 0.5).is_err());
        assert!(Hyperexponential::new(0.0, 1.0, 1.0).is_err());
        assert!(Hyperexponential::new(0.5, 0.0, 1.0).is_err());
    }

    #[test]
    fn uniform_moments() {
        let d = UniformRange::new(2.0, 6.0).unwrap();
        assert_eq!(d.mean(), 4.0);
        assert!((d.variance() - 16.0 / 12.0).abs() < 1e-12);
        let mut rng = Xoshiro256StarStar::new(5);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
    }

    #[test]
    fn uniform_rejects_inverted() {
        assert!(UniformRange::new(5.0, 5.0).is_err());
        assert!(UniformRange::new(6.0, 2.0).is_err());
    }

    #[test]
    fn bounded_pareto_moments_and_support() {
        let d = BoundedPareto::new(1.5, 1.0, 1000.0).unwrap();
        let s = sample_stats(&d, 400_000, 31);
        assert!(
            (s.mean() - d.mean()).abs() < 0.05 * d.mean(),
            "mean {} vs analytic {}",
            s.mean(),
            d.mean()
        );
        assert!(d.variance() > 0.0);
        assert!(d.cv2() > 1.0, "α=1.5 over three decades is heavy-tailed");
        let mut rng = Xoshiro256StarStar::new(13);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..1000.0).contains(&x), "sample {x} escaped [L, H)");
        }
    }

    #[test]
    fn bounded_pareto_logarithmic_shapes_are_finite() {
        // α == 1 makes the mean integral logarithmic, α == 2 the second
        // moment: both closed forms must stay finite, and match a
        // nearby non-degenerate shape.
        for alpha in [1.0, 2.0] {
            let d = BoundedPareto::new(alpha, 2.0, 50.0).unwrap();
            let near = BoundedPareto::new(alpha + 1e-9, 2.0, 50.0).unwrap();
            assert!(d.mean().is_finite() && d.variance().is_finite());
            assert!((d.mean() - near.mean()).abs() < 1e-5 * d.mean());
            assert!((d.variance() - near.variance()).abs() < 1e-4 * d.variance());
            let s = sample_stats(&d, 200_000, 37);
            assert!(
                (s.mean() - d.mean()).abs() < 0.05 * d.mean(),
                "α={alpha}: mean {} vs analytic {}",
                s.mean(),
                d.mean()
            );
        }
    }

    #[test]
    fn bounded_pareto_rejects_bad_params() {
        assert!(BoundedPareto::new(0.0, 1.0, 10.0).is_err());
        assert!(BoundedPareto::new(f64::NAN, 1.0, 10.0).is_err());
        assert!(BoundedPareto::new(1.5, 0.0, 10.0).is_err());
        assert!(BoundedPareto::new(1.5, -1.0, 10.0).is_err());
        assert!(BoundedPareto::new(1.5, 5.0, 5.0).is_err());
        assert!(BoundedPareto::new(1.5, 5.0, 2.0).is_err());
        assert!(BoundedPareto::new(1.5, 1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn weibull_moments_and_exponential_degeneration() {
        // k == 1 is Exponential(1/scale): same analytic moments.
        let d = Weibull::new(1.0, 4.0).unwrap();
        assert!((d.mean() - 4.0).abs() < 1e-9, "mean {}", d.mean());
        assert!((d.variance() - 16.0).abs() < 1e-8, "var {}", d.variance());
        // k = 2 (Rayleigh-like wear-out): Γ(1.5) = √π/2.
        let r = Weibull::new(2.0, 10.0).unwrap();
        let gamma_1_5 = 0.5 * std::f64::consts::PI.sqrt();
        assert!((r.mean() - 10.0 * gamma_1_5).abs() < 1e-9);
        let s = sample_stats(&r, 200_000, 61);
        assert!(
            (s.mean() - r.mean()).abs() < 0.02 * r.mean(),
            "mean {} vs analytic {}",
            s.mean(),
            r.mean()
        );
        assert!(
            (s.variance() - r.variance()).abs() < 0.05 * r.variance(),
            "var {} vs analytic {}",
            s.variance(),
            r.variance()
        );
        // Infant-mortality shapes are heavy-tailed: CV² > 1.
        let h = Weibull::new(0.5, 1.0).unwrap();
        assert!(h.cv2() > 1.0, "k<1 must have cv2 > 1, got {}", h.cv2());
    }

    #[test]
    fn weibull_with_mean_hits_target() {
        for (shape, mean) in [(0.7, 100.0), (1.0, 5.0), (3.0, 42.0)] {
            let d = Weibull::with_mean(shape, mean).unwrap();
            assert!(
                (d.mean() - mean).abs() < 1e-9 * mean,
                "shape {shape}: mean {} vs {mean}",
                d.mean()
            );
        }
    }

    #[test]
    fn weibull_rejects_bad_params() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(-1.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
        assert!(Weibull::new(1.0, f64::INFINITY).is_err());
        assert!(Weibull::with_mean(1.0, 0.0).is_err());
        assert!(Weibull::with_mean(0.0, 1.0).is_err());
    }

    #[test]
    fn mixture_moments() {
        // 90% short exp(mean 1), 10% long deterministic 100 — a crude
        // "long-running owner jobs" workload.
        let m = Mixture::new(vec![
            (
                0.9,
                Box::new(Exponential::with_mean(1.0).unwrap()) as Box<dyn Distribution>,
            ),
            (0.1, Box::new(Deterministic::new(100.0).unwrap())),
        ])
        .unwrap();
        assert!((m.mean() - (0.9 + 10.0)).abs() < 1e-12);
        // E[X^2] = 0.9*2 + 0.1*10000 = 1001.8; Var = 1001.8 - 10.9^2
        assert!((m.variance() - (1001.8 - 10.9 * 10.9)).abs() < 1e-9);
        let s = sample_stats(&m, 400_000, 23);
        assert!((s.mean() - 10.9).abs() < 0.3, "mean {}", s.mean());
    }

    #[test]
    fn mixture_normalizes_weights() {
        let m = Mixture::new(vec![
            (
                2.0,
                Box::new(Deterministic::new(1.0).unwrap()) as Box<dyn Distribution>,
            ),
            (2.0, Box::new(Deterministic::new(3.0).unwrap())),
        ])
        .unwrap();
        assert_eq!(m.len(), 2);
        assert!((m.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_rejects_empty_and_nonpositive() {
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![(
            -1.0,
            Box::new(Deterministic::new(1.0).unwrap()) as Box<dyn Distribution>
        )])
        .is_err());
    }

    #[test]
    fn shifted_moments() {
        let d = Shifted::new(5.0, Exponential::with_mean(2.0).unwrap()).unwrap();
        assert!((d.mean() - 7.0).abs() < 1e-12);
        assert!((d.variance() - 4.0).abs() < 1e-12);
        let mut rng = Xoshiro256StarStar::new(9);
        for _ in 0..1_000 {
            assert!(d.sample(&mut rng) >= 5.0);
        }
    }

    #[test]
    fn shifted_rejects_negative_offset() {
        assert!(Shifted::new(-1.0, Deterministic::new(1.0).unwrap()).is_err());
    }
}
