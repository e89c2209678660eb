//! Arm sets: the `K` reward distributions of a bandit instance.

use rand::Rng;

use crate::distributions::{Distribution, RewardDistribution};
use crate::ArmId;

/// The set of `K` arms of a networked bandit instance.
///
/// An [`ArmSet`] owns one [`Distribution`] per arm and can draw the full reward
/// vector `X_{·,t}` of a time slot. The environment reveals only the part of
/// that vector allowed by the feedback model; drawing everything up front keeps
/// the stochastic process identical across feedback models and policies, which
/// is what makes regret curves comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmSet {
    distributions: Vec<Distribution>,
}

impl ArmSet {
    /// Creates an arm set from explicit distributions.
    pub fn new(distributions: Vec<Distribution>) -> Self {
        ArmSet { distributions }
    }

    /// Bernoulli arms with the given success probabilities.
    pub fn bernoulli(means: &[f64]) -> Self {
        ArmSet {
            distributions: means.iter().map(|&p| Distribution::bernoulli(p)).collect(),
        }
    }

    /// Arms with uniformly-drawn means in `[0, 1]` and Bernoulli rewards — the
    /// workload of the paper's simulations ("each following an i.i.d. random
    /// process over time with mean between [0, 1]").
    pub fn random_bernoulli<R: Rng + ?Sized>(num_arms: usize, rng: &mut R) -> Self {
        let means: Vec<f64> = (0..num_arms).map(|_| rng.gen::<f64>()).collect();
        ArmSet::bernoulli(&means)
    }

    /// Arms with uniformly-drawn means and Beta-distributed rewards with the
    /// given concentration (`alpha + beta = concentration`), useful when a
    /// continuous reward in `[0, 1]` is wanted.
    pub fn random_beta<R: Rng + ?Sized>(num_arms: usize, concentration: f64, rng: &mut R) -> Self {
        let concentration = concentration.max(1e-3);
        let distributions = (0..num_arms)
            .map(|_| {
                let mean: f64 = rng.gen::<f64>().clamp(1e-3, 1.0 - 1e-3);
                Distribution::beta(mean * concentration, (1.0 - mean) * concentration)
            })
            .collect();
        ArmSet { distributions }
    }

    /// Arms with evenly spaced means `1/(K+1), 2/(K+1), …, K/(K+1)` and
    /// Bernoulli rewards; handy for deterministic tests where the identity of
    /// the optimal arm must be known.
    pub fn linear_bernoulli(num_arms: usize) -> Self {
        let means: Vec<f64> = (1..=num_arms)
            .map(|i| i as f64 / (num_arms as f64 + 1.0))
            .collect();
        ArmSet::bernoulli(&means)
    }

    /// Number of arms `K`.
    pub fn len(&self) -> usize {
        self.distributions.len()
    }

    /// Returns `true` if there are no arms.
    pub fn is_empty(&self) -> bool {
        self.distributions.is_empty()
    }

    /// The distribution of arm `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn distribution(&self, i: ArmId) -> &Distribution {
        &self.distributions[i]
    }

    /// The mean rewards `μ_1, …, μ_K`.
    pub fn means(&self) -> Vec<f64> {
        self.distributions.iter().map(|d| d.mean()).collect()
    }

    /// The arm with the highest mean (the paper's "arm 1"); `None` if empty.
    pub fn best_arm(&self) -> Option<ArmId> {
        let means = self.means();
        (0..means.len()).max_by(|&a, &b| {
            means[a]
                .partial_cmp(&means[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// The highest mean `μ_1`; 0 if there are no arms.
    pub fn best_mean(&self) -> f64 {
        self.best_arm().map(|i| self.means()[i]).unwrap_or(0.0)
    }

    /// Gaps `Δ_i = μ_1 − μ_i` for every arm.
    pub fn gaps(&self) -> Vec<f64> {
        let means = self.means();
        let best = self.best_mean();
        means.iter().map(|&m| best - m).collect()
    }

    /// The smallest non-zero gap `Δ_min`, if any suboptimal arm exists.
    pub fn min_gap(&self) -> Option<f64> {
        self.gaps()
            .into_iter()
            .filter(|&g| g > 1e-12)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Draws the full reward vector `X_{·,t}` of one time slot.
    pub fn sample_all(&self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
        self.distributions.iter().map(|d| d.sample(rng)).collect()
    }

    /// Draws the full reward vector into `out` (cleared first), consuming the
    /// exact RNG stream of [`ArmSet::sample_all`] without allocating once
    /// `out` has reached capacity `K`.
    pub fn sample_all_into(&self, rng: &mut dyn rand::RngCore, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.distributions.iter().map(|d| d.sample(rng)));
    }

    /// Draws a single arm's reward.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample(&self, i: ArmId, rng: &mut dyn rand::RngCore) -> f64 {
        self.distributions[i].sample(rng)
    }
}

impl FromIterator<Distribution> for ArmSet {
    fn from_iter<T: IntoIterator<Item = Distribution>>(iter: T) -> Self {
        ArmSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_arm_set_reports_means_and_best() {
        let arms = ArmSet::bernoulli(&[0.2, 0.8, 0.5]);
        assert_eq!(arms.len(), 3);
        assert_eq!(arms.means(), vec![0.2, 0.8, 0.5]);
        assert_eq!(arms.best_arm(), Some(1));
        assert_eq!(arms.best_mean(), 0.8);
        let gaps = arms.gaps();
        assert!((gaps[0] - 0.6).abs() < 1e-12);
        assert!((gaps[1]).abs() < 1e-12);
        assert!((gaps[2] - 0.3).abs() < 1e-12);
        assert!((arms.min_gap().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_arm_set_edge_cases() {
        let arms = ArmSet::new(vec![]);
        assert!(arms.is_empty());
        assert_eq!(arms.best_arm(), None);
        assert_eq!(arms.best_mean(), 0.0);
        assert_eq!(arms.min_gap(), None);
        assert!(arms.sample_all(&mut StdRng::seed_from_u64(0)).is_empty());
    }

    #[test]
    fn identical_means_have_no_min_gap() {
        let arms = ArmSet::bernoulli(&[0.5, 0.5, 0.5]);
        assert_eq!(arms.min_gap(), None);
        assert!(arms.gaps().iter().all(|&g| g.abs() < 1e-12));
    }

    #[test]
    fn linear_bernoulli_is_increasing() {
        let arms = ArmSet::linear_bernoulli(9);
        let means = arms.means();
        assert_eq!(means.len(), 9);
        assert!(means.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(arms.best_arm(), Some(8));
        assert!((means[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_bernoulli_is_deterministic_under_seed() {
        let a = ArmSet::random_bernoulli(20, &mut StdRng::seed_from_u64(3));
        let b = ArmSet::random_bernoulli(20, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert!(a.means().iter().all(|&m| (0.0..=1.0).contains(&m)));
    }

    #[test]
    fn random_beta_means_are_interior() {
        let arms = ArmSet::random_beta(15, 10.0, &mut StdRng::seed_from_u64(4));
        assert_eq!(arms.len(), 15);
        assert!(arms.means().iter().all(|&m| m > 0.0 && m < 1.0));
    }

    #[test]
    fn sample_all_has_one_entry_per_arm_in_range() {
        let arms = ArmSet::bernoulli(&[0.1, 0.9, 0.4, 0.6]);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let xs = arms.sample_all(&mut rng);
            assert_eq!(xs.len(), 4);
            assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn from_iterator_collects() {
        let arms: ArmSet = (0..5)
            .map(|i| Distribution::point_mass(i as f64 / 10.0))
            .collect();
        assert_eq!(arms.len(), 5);
        assert_eq!(arms.best_arm(), Some(4));
    }
}
