//! Deterministic nonstationarity: drifting arm means as a pure function of
//! the round number.
//!
//! The paper's environment is stationary — `μ` is fixed for the whole run. A
//! [`DriftSchedule`] turns the same [`NetworkedBandit`] instance into a
//! drifting world by mapping its *base* means to the effective means of any
//! round:
//!
//! * [`GradualDrift`] — a bounded sinusoidal modulation with a per-arm phase
//!   offset, so arms rise and fall out of step and the identity of the best
//!   arm changes smoothly over a period;
//! * [`ChangePoint`] — an abrupt re-assignment at a given round: the base
//!   mean vector is cyclically rotated, so the good arms become bad ones and
//!   vice versa (rotations accumulate across change points);
//! * [`ChurnWindow`] — arm deactivation: inside the window the arm's mean is
//!   forced to `0`, modelling an arm that temporarily leaves the system.
//!
//! Crucially, [`DriftSchedule::means_at`] consumes **no randomness** — the
//! drifted means are a deterministic function of `(base, round)`. Everything
//! stochastic still flows through the caller's RNG when the drifted means are
//! sampled (see [`sample_bernoulli_into`]), which is what lets a serving
//! tenant snapshot/restore a drifting world bit-exactly: the round counter is
//! the only extra state, and it is already checkpointed.
//!
//! [`NetworkedBandit`]: crate::NetworkedBandit

use rand::Rng;

use crate::ArmId;

/// Smooth sinusoidal mean drift with a per-arm phase offset.
///
/// At round `t`, arm `i` of a `K`-arm instance is shifted by
/// `amplitude · sin(2π · ((t mod period)/period + i/K))`; the result is
/// clamped to `[0, 1]` with the rest of the drift pipeline. The phase offset
/// `i/K` staggers the arms so the best arm changes identity as the wave
/// travels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradualDrift {
    /// Peak shift added to (and subtracted from) each base mean; keep in
    /// `[0, 1]` for meaningful Bernoulli means.
    pub amplitude: f64,
    /// Rounds per full oscillation (≥ 1).
    pub period: u64,
}

/// An abrupt change of the world at a given round.
///
/// From `round` onwards the base mean vector is cyclically rotated by
/// `rotation` positions (arm `i` takes the base mean of arm
/// `(i + rotation) mod K`). Rotations of successive change points accumulate,
/// so each change point re-shuffles which arms are good.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePoint {
    /// First round (1-based) at which the rotated means take effect.
    pub round: u64,
    /// Cyclic rotation applied to the base mean vector.
    pub rotation: usize,
}

/// A window during which one arm is deactivated (its mean forced to `0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnWindow {
    /// The arm that churns out. Windows naming arms outside the instance are
    /// ignored by [`DriftSchedule::means_at`].
    pub arm: ArmId,
    /// First round (1-based, inclusive) of the outage.
    pub from: u64,
    /// First round after the outage (exclusive end).
    pub to: u64,
}

impl ChurnWindow {
    /// `true` when `round` falls inside the outage window.
    pub fn contains(&self, round: u64) -> bool {
        self.from <= round && round < self.to
    }
}

/// A complete drift schedule: any combination of gradual drift, change
/// points, and churn windows.
///
/// The default schedule is empty and leaves the base means untouched —
/// [`DriftSchedule::is_trivial`] reports that case so drivers can keep the
/// cheaper stationary path.
///
/// # Example
///
/// ```
/// use netband_env::drift::{ChangePoint, DriftSchedule};
///
/// let drift = DriftSchedule {
///     change_points: vec![ChangePoint { round: 3, rotation: 1 }],
///     ..DriftSchedule::default()
/// };
/// let base = [0.9, 0.1];
/// let mut means = [0.0; 2];
/// drift.means_at(&base, 1, &mut means);
/// assert_eq!(means, [0.9, 0.1]);
/// drift.means_at(&base, 3, &mut means);
/// assert_eq!(means, [0.1, 0.9]); // rotated: the best arm moved
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftSchedule {
    /// Smooth sinusoidal drift, if any.
    pub gradual: Option<GradualDrift>,
    /// Abrupt mean rotations, in increasing round order.
    pub change_points: Vec<ChangePoint>,
    /// Arm outage windows.
    pub churn: Vec<ChurnWindow>,
}

impl DriftSchedule {
    /// `true` when the schedule has no components and
    /// [`DriftSchedule::means_at`] is the identity (modulo the `[0, 1]`
    /// clamp).
    pub fn is_trivial(&self) -> bool {
        self.gradual.is_none() && self.change_points.is_empty() && self.churn.is_empty()
    }

    /// The cumulative rotation in effect at `round`, modulo `num_arms`.
    /// Each rotation is reduced while summing, so the sum cannot overflow
    /// whatever rotations a schedule carries.
    ///
    /// # Panics
    ///
    /// Panics if `num_arms` is 0.
    pub fn rotation_at(&self, round: u64, num_arms: usize) -> usize {
        self.change_points
            .iter()
            .filter(|cp| cp.round <= round)
            .fold(0, |acc, cp| (acc + cp.rotation % num_arms) % num_arms)
    }

    /// Writes the effective means of `round` (1-based) into `out`,
    /// allocation-free: rotate the base means by the accumulated change-point
    /// rotation, add the gradual wave, zero churned-out arms, clamp to
    /// `[0, 1]`.
    ///
    /// Deterministic and RNG-free: calling this for any round in any order
    /// always produces the same vector.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != base.len()`.
    pub fn means_at(&self, base: &[f64], round: u64, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            base.len(),
            "drifted-mean buffer length must equal the number of arms"
        );
        let k = base.len();
        if k == 0 {
            return;
        }
        let rotation = self.rotation_at(round, k);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = base[(i + rotation) % k];
        }
        if let Some(GradualDrift { amplitude, period }) = self.gradual {
            let period = period.max(1);
            let phase = (round % period) as f64 / period as f64;
            for (i, slot) in out.iter_mut().enumerate() {
                let arm_phase = phase + i as f64 / k as f64;
                *slot += amplitude * (2.0 * std::f64::consts::PI * arm_phase).sin();
            }
        }
        for window in &self.churn {
            if window.arm < k && window.contains(round) {
                out[window.arm] = 0.0;
            }
        }
        for slot in out.iter_mut() {
            *slot = slot.clamp(0.0, 1.0);
        }
    }
}

/// Draws one Bernoulli reward per mean into `out` (cleared first), consuming
/// exactly one `f64` draw per arm — the same RNG-stream shape as sampling a
/// [`Distribution::Bernoulli`](crate::distributions::Distribution) arm bank,
/// so a drifting world walks its RNG at the same rate as the stationary
/// sampler.
pub fn sample_bernoulli_into(means: &[f64], rng: &mut dyn rand::RngCore, out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        means
            .iter()
            .map(|&p| if rng.gen::<f64>() < p { 1.0 } else { 0.0 }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BASE: [f64; 4] = [0.9, 0.5, 0.3, 0.1];

    #[test]
    fn trivial_schedule_is_the_identity() {
        let drift = DriftSchedule::default();
        assert!(drift.is_trivial());
        let mut out = [0.0; 4];
        for round in [1u64, 17, 10_000] {
            drift.means_at(&BASE, round, &mut out);
            assert_eq!(out, BASE);
        }
    }

    #[test]
    fn change_points_accumulate_rotations() {
        let drift = DriftSchedule {
            change_points: vec![
                ChangePoint {
                    round: 10,
                    rotation: 1,
                },
                ChangePoint {
                    round: 20,
                    rotation: 2,
                },
            ],
            ..DriftSchedule::default()
        };
        assert!(!drift.is_trivial());
        let mut out = [0.0; 4];
        drift.means_at(&BASE, 9, &mut out);
        assert_eq!(out, BASE);
        drift.means_at(&BASE, 10, &mut out);
        assert_eq!(out, [0.5, 0.3, 0.1, 0.9]);
        drift.means_at(&BASE, 20, &mut out);
        assert_eq!(out, [0.1, 0.9, 0.5, 0.3]);
        assert_eq!(drift.rotation_at(25, 4), 3);
    }

    #[test]
    fn huge_rotations_accumulate_modulo_the_arm_count() {
        // usize::MAX ≡ 3 (mod 12), so the accumulated rotation is 6.
        let drift = DriftSchedule {
            change_points: vec![
                ChangePoint {
                    round: 1,
                    rotation: usize::MAX,
                },
                ChangePoint {
                    round: 2,
                    rotation: 3,
                },
            ],
            ..DriftSchedule::default()
        };
        let base: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        let mut out = vec![0.0; 12];
        drift.means_at(&base, 2, &mut out);
        assert_eq!(drift.rotation_at(2, 12), 6);
        assert!((0..12).all(|i| out[i] == base[(i + 6) % 12]));
    }

    #[test]
    fn gradual_drift_moves_the_best_arm() {
        let drift = DriftSchedule {
            gradual: Some(GradualDrift {
                amplitude: 0.4,
                period: 100,
            }),
            ..DriftSchedule::default()
        };
        let base = [0.5; 4];
        let mut out = [0.0; 4];
        let mut best_arms = std::collections::BTreeSet::new();
        for round in 1..=100u64 {
            drift.means_at(&base, round, &mut out);
            assert!(out.iter().all(|&m| (0.0..=1.0).contains(&m)));
            let best = (0..4)
                .max_by(|&a, &b| out[a].partial_cmp(&out[b]).unwrap())
                .unwrap();
            best_arms.insert(best);
        }
        // The phase offsets rotate the identity of the best arm over a period.
        assert!(best_arms.len() >= 3, "best arms seen: {best_arms:?}");
    }

    #[test]
    fn churn_zeroes_only_inside_the_window() {
        let drift = DriftSchedule {
            churn: vec![ChurnWindow {
                arm: 0,
                from: 5,
                to: 8,
            }],
            ..DriftSchedule::default()
        };
        let mut out = [0.0; 4];
        drift.means_at(&BASE, 4, &mut out);
        assert_eq!(out[0], 0.9);
        drift.means_at(&BASE, 5, &mut out);
        assert_eq!(out[0], 0.0);
        drift.means_at(&BASE, 7, &mut out);
        assert_eq!(out[0], 0.0);
        drift.means_at(&BASE, 8, &mut out);
        assert_eq!(out[0], 0.9);
        // A window naming a nonexistent arm is ignored.
        let drift = DriftSchedule {
            churn: vec![ChurnWindow {
                arm: 99,
                from: 1,
                to: 100,
            }],
            ..DriftSchedule::default()
        };
        drift.means_at(&BASE, 1, &mut out);
        assert_eq!(out, BASE);
    }

    #[test]
    fn means_at_is_deterministic_and_order_free() {
        let drift = DriftSchedule {
            gradual: Some(GradualDrift {
                amplitude: 0.2,
                period: 50,
            }),
            change_points: vec![ChangePoint {
                round: 30,
                rotation: 2,
            }],
            churn: vec![ChurnWindow {
                arm: 1,
                from: 10,
                to: 40,
            }],
        };
        let mut forward = Vec::new();
        let mut out = [0.0; 4];
        for round in 1..=60u64 {
            drift.means_at(&BASE, round, &mut out);
            forward.push(out);
        }
        for round in (1..=60u64).rev() {
            drift.means_at(&BASE, round, &mut out);
            let expect = forward[(round - 1) as usize];
            for i in 0..4 {
                assert_eq!(out[i].to_bits(), expect[i].to_bits(), "round {round}");
            }
        }
    }

    #[test]
    fn bernoulli_sampling_consumes_one_draw_per_arm() {
        let means = [0.0, 1.0, 0.5];
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        sample_bernoulli_into(&means, &mut a, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], 0.0); // p = 0 never succeeds
        assert_eq!(out[1], 1.0); // p = 1 always succeeds (gen is in [0,1))
                                 // Stream shape: exactly three f64 draws.
        use rand::Rng;
        let draws: Vec<f64> = (0..3).map(|_| b.gen::<f64>()).collect();
        let mut c = StdRng::seed_from_u64(5);
        let mut again = Vec::new();
        sample_bernoulli_into(&means, &mut c, &mut again);
        assert_eq!(out, again);
        assert_eq!(out[2], if draws[2] < 0.5 { 1.0 } else { 0.0 });
    }
}
