//! Reward distributions with support in `[0, 1]`.
//!
//! The paper assumes every arm's reward distribution has support in `[0, 1]`
//! (Section II). This module implements the distribution families used by the
//! simulations and tests from scratch on top of `rand` — in particular Beta and
//! truncated-Gaussian sampling, so no extra statistical dependency is needed.

use rand::Rng;

/// A reward distribution with support contained in `[0, 1]`.
///
/// Implementors must guarantee that [`RewardDistribution::sample`] always
/// returns a value in `[0, 1]` and that [`RewardDistribution::mean`] is the true
/// expectation of the sampling distribution.
pub trait RewardDistribution: Send + Sync + std::fmt::Debug {
    /// The expectation `μ` of the distribution.
    fn mean(&self) -> f64;

    /// Draws one sample; always in `[0, 1]`.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;

    /// The variance of the distribution, if known in closed form.
    fn variance(&self) -> Option<f64> {
        None
    }
}

/// A concrete, serialisable reward distribution.
///
/// This enum is the workhorse used by [`crate::arms::ArmSet`]; the
/// [`RewardDistribution`] trait exists so that downstream users can plug in
/// their own families without touching this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Bernoulli with success probability `p`.
    Bernoulli {
        /// Success probability in `[0, 1]`.
        p: f64,
    },
    /// Continuous uniform on `[lo, hi] ⊆ [0, 1]`.
    Uniform {
        /// Lower end of the support.
        lo: f64,
        /// Upper end of the support.
        hi: f64,
    },
    /// Beta distribution with shape parameters `alpha, beta > 0`.
    Beta {
        /// First shape parameter (`> 0`).
        alpha: f64,
        /// Second shape parameter (`> 0`).
        beta: f64,
    },
    /// Gaussian with the given mean and standard deviation, truncated (by
    /// rejection, with clamping as a fallback) to `[0, 1]`.
    ///
    /// The reported [`Distribution::mean`] is the empirical mean of the
    /// truncated distribution computed by numeric integration at construction
    /// time would be overkill; instead we keep `mu` inside `[0,1]` and use a
    /// small `sigma`, for which the truncation bias is negligible. The exact
    /// truncated mean is exposed through [`Distribution::truncated_gaussian`].
    TruncatedGaussian {
        /// Location parameter of the underlying Gaussian (kept in `[0, 1]`).
        mu: f64,
        /// Scale parameter of the underlying Gaussian (`> 0`).
        sigma: f64,
    },
    /// Deterministic reward `value ∈ [0, 1]`.
    PointMass {
        /// The constant reward.
        value: f64,
    },
    /// Finite discrete distribution over `values` with probabilities `probs`.
    Discrete {
        /// Support points, each in `[0, 1]`.
        values: Vec<f64>,
        /// Probabilities; normalised at sampling time.
        probs: Vec<f64>,
    },
}

impl Distribution {
    /// Bernoulli distribution with success probability `p` (clamped to `[0,1]`).
    pub fn bernoulli(p: f64) -> Self {
        Distribution::Bernoulli {
            p: p.clamp(0.0, 1.0),
        }
    }

    /// Uniform distribution on `[lo, hi]`, clamped into `[0, 1]` and reordered
    /// if necessary.
    pub fn uniform(lo: f64, hi: f64) -> Self {
        let lo = lo.clamp(0.0, 1.0);
        let hi = hi.clamp(0.0, 1.0);
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        Distribution::Uniform { lo, hi }
    }

    /// Beta distribution; parameters are floored at a small positive constant.
    pub fn beta(alpha: f64, beta: f64) -> Self {
        Distribution::Beta {
            alpha: alpha.max(1e-6),
            beta: beta.max(1e-6),
        }
    }

    /// Truncated Gaussian on `[0, 1]`.
    pub fn truncated_gaussian(mu: f64, sigma: f64) -> Self {
        Distribution::TruncatedGaussian {
            mu: mu.clamp(0.0, 1.0),
            sigma: sigma.max(1e-9),
        }
    }

    /// A deterministic reward.
    pub fn point_mass(value: f64) -> Self {
        Distribution::PointMass {
            value: value.clamp(0.0, 1.0),
        }
    }

    /// A discrete distribution; values are clamped to `[0,1]`, probabilities are
    /// normalised (uniform if they sum to 0 or the vectors mismatch).
    pub fn discrete(values: Vec<f64>, probs: Vec<f64>) -> Self {
        let values: Vec<f64> = values.into_iter().map(|v| v.clamp(0.0, 1.0)).collect();
        let probs = if probs.len() == values.len() && probs.iter().sum::<f64>() > 0.0 {
            probs
        } else {
            vec![1.0; values.len()]
        };
        Distribution::Discrete { values, probs }
    }
}

impl RewardDistribution for Distribution {
    fn mean(&self) -> f64 {
        match self {
            Distribution::Bernoulli { p } => *p,
            Distribution::Uniform { lo, hi } => 0.5 * (lo + hi),
            Distribution::Beta { alpha, beta } => alpha / (alpha + beta),
            Distribution::TruncatedGaussian { mu, sigma } => truncated_normal_mean(*mu, *sigma),
            Distribution::PointMass { value } => *value,
            Distribution::Discrete { values, probs } => {
                let total: f64 = probs.iter().sum();
                if total <= 0.0 || values.is_empty() {
                    return 0.0;
                }
                values
                    .iter()
                    .zip(probs.iter())
                    .map(|(v, p)| v * p / total)
                    .sum()
            }
        }
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        match self {
            Distribution::Bernoulli { p } => {
                if rng.gen::<f64>() < *p {
                    1.0
                } else {
                    0.0
                }
            }
            Distribution::Uniform { lo, hi } => {
                if hi <= lo {
                    *lo
                } else {
                    lo + (hi - lo) * rng.gen::<f64>()
                }
            }
            Distribution::Beta { alpha, beta } => sample_beta(*alpha, *beta, rng),
            Distribution::TruncatedGaussian { mu, sigma } => {
                // Rejection sampling with a bounded number of attempts; fall back
                // to clamping, which only matters for extreme (mu, sigma).
                for _ in 0..64 {
                    let x = mu + sigma * sample_standard_normal(rng);
                    if (0.0..=1.0).contains(&x) {
                        return x;
                    }
                }
                (mu + sigma * sample_standard_normal(rng)).clamp(0.0, 1.0)
            }
            Distribution::PointMass { value } => *value,
            Distribution::Discrete { values, probs } => {
                if values.is_empty() {
                    return 0.0;
                }
                let total: f64 = probs.iter().sum();
                let mut ticket = rng.gen::<f64>() * total;
                for (v, p) in values.iter().zip(probs.iter()) {
                    if ticket < *p {
                        return *v;
                    }
                    ticket -= p;
                }
                *values.last().expect("non-empty by the check above")
            }
        }
    }

    fn variance(&self) -> Option<f64> {
        match self {
            Distribution::Bernoulli { p } => Some(p * (1.0 - p)),
            Distribution::Uniform { lo, hi } => Some((hi - lo) * (hi - lo) / 12.0),
            Distribution::Beta { alpha, beta } => {
                let s = alpha + beta;
                Some(alpha * beta / (s * s * (s + 1.0)))
            }
            Distribution::PointMass { .. } => Some(0.0),
            Distribution::TruncatedGaussian { .. } => None,
            Distribution::Discrete { values, probs } => {
                let total: f64 = probs.iter().sum();
                if total <= 0.0 || values.is_empty() {
                    return Some(0.0);
                }
                let mean = self.mean();
                Some(
                    values
                        .iter()
                        .zip(probs.iter())
                        .map(|(v, p)| (v - mean) * (v - mean) * p / total)
                        .sum(),
                )
            }
        }
    }
}

/// One standard-normal sample via the Box–Muller transform.
fn sample_standard_normal(rng: &mut dyn rand::RngCore) -> f64 {
    // Avoid log(0).
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Gamma(shape, 1) sample via Marsaglia–Tsang, with the standard boost for
/// shape < 1.
fn sample_gamma(shape: f64, rng: &mut dyn rand::RngCore) -> f64 {
    if shape < 1.0 {
        // Gamma(a) = Gamma(a + 1) * U^{1/a}
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u < 1.0 - 0.0331 * x * x * x * x {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Beta(alpha, beta) sample as a ratio of Gamma variates.
fn sample_beta(alpha: f64, beta: f64, rng: &mut dyn rand::RngCore) -> f64 {
    let x = sample_gamma(alpha, rng);
    let y = sample_gamma(beta, rng);
    if x + y <= 0.0 {
        0.5
    } else {
        (x / (x + y)).clamp(0.0, 1.0)
    }
}

/// Mean of a Gaussian `N(mu, sigma²)` truncated to `[0, 1]`.
fn truncated_normal_mean(mu: f64, sigma: f64) -> f64 {
    // E[X | 0 ≤ X ≤ 1] = mu + sigma (φ(a) − φ(b)) / (Φ(b) − Φ(a))
    let a = (0.0 - mu) / sigma;
    let b = (1.0 - mu) / sigma;
    let phi = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let cap_phi = |x: f64| 0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2));
    let z = cap_phi(b) - cap_phi(a);
    if z <= 1e-12 {
        return mu.clamp(0.0, 1.0);
    }
    (mu + sigma * (phi(a) - phi(b)) / z).clamp(0.0, 1.0)
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, max abs error
/// ~1.5e-7), sufficient for reporting truncated-Gaussian means.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_mean(dist: &Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    fn assert_support(dist: &Distribution, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            assert!(
                (0.0..=1.0).contains(&x),
                "sample {x} out of [0,1] for {dist:?}"
            );
        }
    }

    #[test]
    fn bernoulli_mean_and_support() {
        let d = Distribution::bernoulli(0.3);
        assert_eq!(d.mean(), 0.3);
        assert_eq!(d.variance(), Some(0.3 * 0.7));
        assert_support(&d, 2000, 1);
        let emp = empirical_mean(&d, 20_000, 2);
        assert!((emp - 0.3).abs() < 0.02, "empirical {emp}");
        // Extremes.
        assert_eq!(Distribution::bernoulli(-2.0).mean(), 0.0);
        assert_eq!(Distribution::bernoulli(5.0).mean(), 1.0);
    }

    #[test]
    fn uniform_mean_and_support() {
        let d = Distribution::uniform(0.2, 0.6);
        assert!((d.mean() - 0.4).abs() < 1e-12);
        assert_support(&d, 2000, 3);
        let emp = empirical_mean(&d, 20_000, 4);
        assert!((emp - 0.4).abs() < 0.01);
        // Reversed and out-of-range bounds are normalised.
        let d2 = Distribution::uniform(1.5, -0.5);
        assert!((d2.mean() - 0.5).abs() < 1e-12);
        // Degenerate interval behaves like a point mass.
        let d3 = Distribution::uniform(0.7, 0.7);
        assert_eq!(d3.sample(&mut StdRng::seed_from_u64(0)), 0.7);
    }

    #[test]
    fn beta_mean_and_support() {
        let d = Distribution::beta(2.0, 5.0);
        assert!((d.mean() - 2.0 / 7.0).abs() < 1e-12);
        assert_support(&d, 2000, 5);
        let emp = empirical_mean(&d, 30_000, 6);
        assert!((emp - 2.0 / 7.0).abs() < 0.01, "empirical {emp}");
        // Shape < 1 exercises the boosting branch.
        let d2 = Distribution::beta(0.5, 0.5);
        assert_support(&d2, 2000, 7);
        let emp2 = empirical_mean(&d2, 30_000, 8);
        assert!((emp2 - 0.5).abs() < 0.02, "empirical {emp2}");
    }

    #[test]
    fn truncated_gaussian_mean_and_support() {
        let d = Distribution::truncated_gaussian(0.5, 0.1);
        assert!((d.mean() - 0.5).abs() < 1e-6);
        assert_support(&d, 2000, 9);
        let emp = empirical_mean(&d, 30_000, 10);
        assert!((emp - 0.5).abs() < 0.01);
        // A mean pushed against the boundary is pulled inwards by truncation.
        let d2 = Distribution::truncated_gaussian(0.0, 0.3);
        assert!(d2.mean() > 0.0);
        assert_support(&d2, 2000, 11);
        let emp2 = empirical_mean(&d2, 30_000, 12);
        assert!(
            (emp2 - d2.mean()).abs() < 0.02,
            "emp {emp2} vs {}",
            d2.mean()
        );
    }

    #[test]
    fn point_mass_is_constant() {
        let d = Distribution::point_mass(0.42);
        assert_eq!(d.mean(), 0.42);
        assert_eq!(d.variance(), Some(0.0));
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 0.42);
        }
    }

    #[test]
    fn discrete_distribution_mean_and_sampling() {
        let d = Distribution::discrete(vec![0.0, 0.5, 1.0], vec![0.25, 0.5, 0.25]);
        assert!((d.mean() - 0.5).abs() < 1e-12);
        assert_support(&d, 2000, 14);
        let emp = empirical_mean(&d, 30_000, 15);
        assert!((emp - 0.5).abs() < 0.01);
        // Mismatched probabilities fall back to uniform weights.
        let d2 = Distribution::discrete(vec![0.0, 1.0], vec![0.3]);
        assert!((d2.mean() - 0.5).abs() < 1e-12);
        // Empty support.
        let d3 = Distribution::discrete(vec![], vec![]);
        assert_eq!(d3.mean(), 0.0);
        assert_eq!(d3.sample(&mut StdRng::seed_from_u64(0)), 0.0);
    }

    #[test]
    fn variances_are_sensible() {
        assert!(Distribution::uniform(0.0, 1.0).variance().unwrap() - 1.0 / 12.0 < 1e-12);
        let beta = Distribution::beta(2.0, 2.0);
        assert!((beta.variance().unwrap() - 0.05).abs() < 1e-12);
        let disc = Distribution::discrete(vec![0.0, 1.0], vec![0.5, 0.5]);
        assert!((disc.variance().unwrap() - 0.25).abs() < 1e-12);
        assert!(Distribution::truncated_gaussian(0.5, 0.1)
            .variance()
            .is_none());
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((erf(3.0) - 0.9999779).abs() < 1e-5);
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let d = Distribution::beta(1.5, 3.0);
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
