//! Running-mean estimators and the MOSS-style confidence index.
//!
//! Every algorithm in the paper maintains, for each arm (or com-arm), the number
//! of times its reward has been observed and the running average of those
//! observations, and ranks candidates by a MOSS-style upper-confidence index
//! `mean + sqrt(log⁺(t / (K · count)) / count)`.
//!
//! The paper's world is stationary; for drifting worlds the estimators also
//! come in *discounted* and *sliding-window* flavours behind the
//! [`EstimatorKind`] knob, which forget old observations so the mean tracks a
//! moving target. `EstimatorKind::Stationary` is always the bit-exact paper
//! path.

use std::collections::VecDeque;

use crate::state::{PolicyState, PolicyStateError, PolicyStateReader};

/// `log⁺(x) = max(ln x, 0)`, the truncated logarithm used by MOSS-style indices.
///
/// Defined as 0 for non-positive inputs.
pub fn log_plus(x: f64) -> f64 {
    if x <= 1.0 {
        0.0
    } else {
        x.ln()
    }
}

/// An incrementally updated sample mean.
///
/// # Example
///
/// ```
/// use netband_core::estimator::RunningMean;
///
/// let mut m = RunningMean::new();
/// m.update(1.0);
/// m.update(0.0);
/// assert_eq!(m.count(), 2);
/// assert_eq!(m.mean(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningMean {
    count: u64,
    mean: f64,
}

impl RunningMean {
    /// A fresh estimator with no observations.
    pub fn new() -> Self {
        RunningMean {
            count: 0,
            mean: 0.0,
        }
    }

    /// Number of observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current sample mean (0 before the first observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Returns `true` if no observation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds one observation into the mean.
    pub fn update(&mut self, value: f64) {
        self.count += 1;
        self.mean += (value - self.mean) / self.count as f64;
    }

    /// Resets the estimator to its initial state.
    pub fn reset(&mut self) {
        self.count = 0;
        self.mean = 0.0;
    }

    /// Rebuilds an estimator from a `(count, mean)` pair captured by
    /// [`RunningMean::count`] / [`RunningMean::mean`] — the durable-state
    /// restore path.
    pub fn from_parts(count: u64, mean: f64) -> Self {
        RunningMean { count, mean }
    }
}

/// Appends a `Vec<RunningMean>`'s state (one count array, one mean array) to
/// a [`PolicyState`]; the counterpart of [`load_running_means`].
pub fn save_running_means(estimates: &[RunningMean], out: &mut PolicyState) {
    out.counts
        .push(estimates.iter().map(|m| m.count()).collect());
    out.floats
        .push(estimates.iter().map(|m| m.mean()).collect());
}

/// Restores a `Vec<RunningMean>` saved by [`save_running_means`], checking
/// that the array lengths match `estimates.len()`.
pub fn load_running_means(
    estimates: &mut [RunningMean],
    reader: &mut PolicyStateReader<'_>,
) -> Result<(), PolicyStateError> {
    let counts = reader.counts(estimates.len())?;
    let means = reader.floats(estimates.len())?;
    for (slot, (&count, &mean)) in estimates.iter_mut().zip(counts.iter().zip(means)) {
        *slot = RunningMean::from_parts(count, mean);
    }
    Ok(())
}

/// How a set of [`ArmEstimators`] aggregates observations into means.
///
/// The paper's algorithms assume fixed arm means, so the default
/// [`Stationary`](EstimatorKind::Stationary) kind is the plain sample mean.
/// The other two kinds forget old observations so the estimate tracks a
/// drifting mean — the standard D-UCB / SW-UCB estimator constructions.
///
/// # Example
///
/// ```
/// use netband_core::estimator::{ArmEstimators, EstimatorKind};
///
/// let mut est = ArmEstimators::with_kind(2, EstimatorKind::Discounted { gamma: 0.9 });
/// est.update(0, 1.0);
/// est.advance_round(); // between rounds, old evidence decays
/// est.update(0, 0.0);
/// // The newer observation weighs more than 1/2.
/// assert!(est.mean(0) < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EstimatorKind {
    /// The plain sample mean over all observations (the paper's setting).
    #[default]
    Stationary,
    /// Exponentially discounted mean: each call to
    /// [`ArmEstimators::advance_round`] multiplies every arm's effective
    /// sample size by `gamma ∈ (0, 1]`, so an observation from `d` rounds ago
    /// carries weight `gamma^d`. With `gamma = 1.0` this is bit-identical to
    /// [`Stationary`](EstimatorKind::Stationary).
    Discounted {
        /// Per-round retention factor in `(0, 1]`.
        gamma: f64,
    },
    /// Mean over the last `window` observations of each arm (per-arm ring
    /// buffer); older observations are dropped entirely.
    SlidingWindow {
        /// Number of most recent observations retained per arm (≥ 1).
        window: usize,
    },
}

impl EstimatorKind {
    /// `true` for the plain stationary sample mean.
    pub fn is_stationary(&self) -> bool {
        matches!(self, EstimatorKind::Stationary)
    }
}

/// Dense struct-of-arrays running-mean estimators for `K` arms (or com-arms).
///
/// Semantically a `Vec<RunningMean>` — each slot folds observations with the
/// exact same incremental-mean recurrence as [`RunningMean::update`], so a
/// policy converted from per-arm structs to these arrays produces bit-identical
/// estimates — but stored as two flat arrays (`counts`, `means`) keyed by dense
/// arm id. The per-round argmax scans of the policies then read one contiguous
/// `f64` array instead of striding over an array of structs.
///
/// # Example
///
/// ```
/// use netband_core::estimator::ArmEstimators;
///
/// let mut est = ArmEstimators::new(3);
/// est.update(1, 1.0);
/// est.update(1, 0.0);
/// assert_eq!(est.count(1), 2);
/// assert_eq!(est.mean(1), 0.5);
/// assert_eq!(est.count(0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArmEstimators {
    counts: Vec<u64>,
    means: Vec<f64>,
    kind: EstimatorKind,
    /// Discounted effective sample sizes (empty unless `kind` is
    /// `Discounted`). Decaying a weight leaves the mean untouched because the
    /// discounted mean is the ratio of the discounted sum to the discounted
    /// weight, and both decay by the same factor.
    weights: Vec<f64>,
    /// Per-arm rings of the retained observations (empty unless `kind` is
    /// `SlidingWindow`).
    windows: Vec<VecDeque<f64>>,
}

impl ArmEstimators {
    /// Fresh estimators for `len` arms, all with zero observations.
    pub fn new(len: usize) -> Self {
        ArmEstimators {
            counts: vec![0; len],
            means: vec![0.0; len],
            kind: EstimatorKind::Stationary,
            weights: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Fresh estimators of the given [`EstimatorKind`].
    ///
    /// `with_kind(len, EstimatorKind::Stationary)` is identical to
    /// [`ArmEstimators::new`].
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is outside `(0, 1]` or `window` is `0`.
    pub fn with_kind(len: usize, kind: EstimatorKind) -> Self {
        let mut est = ArmEstimators::new(len);
        match kind {
            EstimatorKind::Stationary => {}
            EstimatorKind::Discounted { gamma } => {
                assert!(
                    gamma > 0.0 && gamma <= 1.0,
                    "discount gamma must be in (0, 1], got {gamma}"
                );
                est.weights = vec![0.0; len];
            }
            EstimatorKind::SlidingWindow { window } => {
                assert!(window >= 1, "sliding window must be >= 1");
                est.windows = vec![VecDeque::new(); len];
            }
        }
        est.kind = kind;
        est
    }

    /// The aggregation kind of these estimators.
    pub fn kind(&self) -> EstimatorKind {
        self.kind
    }

    /// Number of arms tracked.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if no arms are tracked.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Observation count of arm `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Current sample mean of arm `i` (0 before the first observation).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn mean(&self, i: usize) -> f64 {
        self.means[i]
    }

    /// The flat observation-count array.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The flat sample-mean array.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// The evidence currently behind arm `i`'s mean: the raw count for
    /// stationary estimators, the decayed weight for discounted ones, and the
    /// ring occupancy for sliding windows. This is the `count` the confidence
    /// indices should see (see [`moss_index_weighted`] / [`csr_index_weighted`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn effective_count(&self, i: usize) -> f64 {
        match self.kind {
            EstimatorKind::Stationary => self.counts[i] as f64,
            EstimatorKind::Discounted { .. } => self.weights[i],
            EstimatorKind::SlidingWindow { .. } => self.windows[i].len() as f64,
        }
    }

    /// Writes [`effective_count`](ArmEstimators::effective_count) for every
    /// arm into `out` (cleared first) in one contiguous pass, so score
    /// kernels can sweep a flat `f64` table instead of re-dispatching on the
    /// estimator kind per arm.
    pub fn effective_counts_into(&self, out: &mut Vec<f64>) {
        out.clear();
        match self.kind {
            EstimatorKind::Stationary => out.extend(self.counts.iter().map(|&c| c as f64)),
            EstimatorKind::Discounted { .. } => out.extend_from_slice(&self.weights),
            EstimatorKind::SlidingWindow { .. } => {
                out.extend(self.windows.iter().map(|w| w.len() as f64))
            }
        }
    }

    /// Folds one observation of arm `i` into its mean.
    ///
    /// For [`EstimatorKind::Stationary`] this is the [`RunningMean`]
    /// recurrence, bit for bit. The discounted variant uses the same
    /// incremental form over the decayed weight (`w ← w + 1`,
    /// `m ← m + (x − m) / w`), which reduces to the stationary recurrence
    /// exactly when the discount never decays the weights (γ = 1). The
    /// sliding-window variant pushes into the ring and recomputes the mean
    /// over the retained values.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn update(&mut self, i: usize, value: f64) {
        self.counts[i] += 1;
        match self.kind {
            EstimatorKind::Stationary => {
                self.means[i] += (value - self.means[i]) / self.counts[i] as f64;
            }
            EstimatorKind::Discounted { .. } => {
                self.weights[i] += 1.0;
                self.means[i] += (value - self.means[i]) / self.weights[i];
            }
            EstimatorKind::SlidingWindow { window } => {
                let ring = &mut self.windows[i];
                if ring.len() == window {
                    ring.pop_front();
                }
                ring.push_back(value);
                self.means[i] = ring.iter().sum::<f64>() / ring.len() as f64;
            }
        }
    }

    /// Marks the passage of one round: discounted estimators multiply every
    /// arm's effective sample size by γ (one fused multiply over the flat
    /// weight array; the means are invariant under the joint decay of sum and
    /// weight). A no-op for the other kinds — and for γ = 1, where skipping
    /// the multiply keeps the weights exact integers and the whole estimator
    /// bit-identical to the stationary path.
    pub fn advance_round(&mut self) {
        if let EstimatorKind::Discounted { gamma } = self.kind {
            if gamma < 1.0 {
                for w in &mut self.weights {
                    *w *= gamma;
                }
            }
        }
    }

    /// Resets every arm to its initial state (the kind is retained).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.means.fill(0.0);
        self.weights.fill(0.0);
        for ring in &mut self.windows {
            ring.clear();
        }
    }

    /// Appends the estimators' learned state to a
    /// [`PolicyState`]: the count array, the mean
    /// array, the discounted weights (empty unless discounted), and — for
    /// sliding windows — one ring per arm, oldest observation first. The kind
    /// itself is structure (it comes from the scenario document), so it is
    /// **not** saved; [`ArmEstimators::load_state`] checks it matches.
    pub fn save_state(&self, out: &mut PolicyState) {
        out.counts.push(self.counts.clone());
        out.floats.push(self.means.clone());
        out.floats.push(self.weights.clone());
        for ring in &self.windows {
            out.windows.push(ring.iter().copied().collect());
        }
    }

    /// Restores state saved by [`ArmEstimators::save_state`] into estimators
    /// of the same shape (same arm count and [`EstimatorKind`]); the restored
    /// estimators continue bit-identically to the saved ones.
    pub fn load_state(
        &mut self,
        reader: &mut PolicyStateReader<'_>,
    ) -> Result<(), PolicyStateError> {
        let len = self.counts.len();
        let counts = reader.counts(len)?;
        let means = reader.floats(len)?;
        let weights = reader.floats(self.weights.len())?;
        self.counts.copy_from_slice(counts);
        self.means.copy_from_slice(means);
        self.weights.copy_from_slice(weights);
        if let EstimatorKind::SlidingWindow { window } = self.kind {
            for ring in &mut self.windows {
                let saved = reader.window()?;
                if saved.len() > window {
                    return Err(reader.mismatch(format!(
                        "window ring holds {} observations, capacity is {window}",
                        saved.len()
                    )));
                }
                ring.clear();
                ring.extend(saved.iter().copied());
            }
        }
        Ok(())
    }
}

/// Index of the maximum of `values`, breaking ties towards the **last**
/// maximum — the selection `Iterator::max_by` makes with a
/// `partial_cmp(..).unwrap_or(Equal)` comparator. The policies' single-pass
/// argmax scans use this so that converting them away from comparator-based
/// `max_by` keeps every selection (and hence every golden trace) bit-identical.
///
/// Incomparable values (NaN) are treated as equal, so a later NaN replaces the
/// incumbent, exactly like the `unwrap_or(Equal)` comparators did.
pub fn argmax_last(values: impl IntoIterator<Item = f64>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in values.into_iter().enumerate() {
        let keep_incumbent = best
            .map(|(_, b)| b.partial_cmp(&v) == Some(std::cmp::Ordering::Greater))
            .unwrap_or(false);
        if !keep_incumbent {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

/// The MOSS-style index `mean + sqrt(log⁺(t / (k · count)) / count)`.
///
/// * `mean`, `count` — the running estimate of the candidate;
/// * `t` — the current time slot (1-based);
/// * `k` — the number of candidates competing for play (arms `K`, or com-arms
///   `|F|` in Algorithm 2).
///
/// Candidates with `count == 0` get `f64::INFINITY` so they are explored first,
/// which matches the usual initialisation of MOSS/UCB implementations.
pub fn moss_index(mean: f64, count: u64, t: usize, k: usize) -> f64 {
    if count == 0 {
        return f64::INFINITY;
    }
    let count_f = count as f64;
    let k_f = k.max(1) as f64;
    mean + (log_plus(t as f64 / (k_f * count_f)) / count_f).sqrt()
}

/// [`moss_index`] over a real-valued (discounted / windowed) sample size.
///
/// For an integer `count` this computes the exact same expression as
/// [`moss_index`]; fractional effective counts arise from
/// [`EstimatorKind::Discounted`] weights.
pub fn moss_index_weighted(mean: f64, count: f64, t: usize, k: usize) -> f64 {
    if count <= 0.0 {
        return f64::INFINITY;
    }
    let k_f = k.max(1) as f64;
    mean + (log_plus(t as f64 / (k_f * count)) / count).sqrt()
}

/// The DFL-CSR per-arm index of Equation (47):
/// `mean + sqrt(max(ln(t^{2/3} / (K · count)), 0) / count)`.
///
/// For unobserved arms (`count == 0`) the index is a finite value strictly
/// larger than any observed arm's index at the same `t`, so that the
/// combinatorial oracle (which sums indices) keeps producing finite totals while
/// still prioritising exploration of unobserved arms.
pub fn csr_index(mean: f64, count: u64, t: usize, k: usize) -> f64 {
    let t_pow = (t.max(1) as f64).powf(2.0 / 3.0);
    if count == 0 {
        // Upper bound of any observed index at time t, plus a margin.
        return 1.0 + (log_plus(t_pow) + 1.0).sqrt();
    }
    let count_f = count as f64;
    let k_f = k.max(1) as f64;
    mean + (log_plus(t_pow / (k_f * count_f)) / count_f).sqrt()
}

/// [`csr_index`] over a real-valued (discounted / windowed) sample size.
///
/// For an integer `count` this computes the exact same expression as
/// [`csr_index`]; fractional effective counts arise from
/// [`EstimatorKind::Discounted`] weights.
pub fn csr_index_weighted(mean: f64, count: f64, t: usize, k: usize) -> f64 {
    let t_pow = (t.max(1) as f64).powf(2.0 / 3.0);
    if count <= 0.0 {
        return 1.0 + (log_plus(t_pow) + 1.0).sqrt();
    }
    let k_f = k.max(1) as f64;
    mean + (log_plus(t_pow / (k_f * count)) / count).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_plus_truncates_at_zero() {
        assert_eq!(log_plus(0.5), 0.0);
        assert_eq!(log_plus(0.0), 0.0);
        assert_eq!(log_plus(-3.0), 0.0);
        assert_eq!(log_plus(1.0), 0.0);
        assert!((log_plus(std::f64::consts::E) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn running_mean_matches_batch_mean() {
        let data = [0.3, 0.9, 0.1, 0.5, 0.7, 0.2];
        let mut m = RunningMean::new();
        for &x in &data {
            m.update(x);
        }
        let batch = data.iter().sum::<f64>() / data.len() as f64;
        assert_eq!(m.count(), data.len() as u64);
        assert!((m.mean() - batch).abs() < 1e-12);
    }

    #[test]
    fn running_mean_reset() {
        let mut m = RunningMean::new();
        assert!(m.is_empty());
        m.update(1.0);
        assert!(!m.is_empty());
        m.reset();
        assert!(m.is_empty());
        assert_eq!(m.mean(), 0.0);
    }

    #[test]
    fn moss_index_prefers_unobserved() {
        assert_eq!(moss_index(0.5, 0, 10, 5), f64::INFINITY);
        assert!(moss_index(0.5, 1, 10, 5).is_finite());
    }

    #[test]
    fn moss_index_decreases_with_count() {
        let t = 10_000;
        let k = 10;
        let few = moss_index(0.5, 5, t, k);
        let many = moss_index(0.5, 500, t, k);
        assert!(few > many);
        // With enough observations the bonus vanishes (log⁺ truncation).
        let saturated = moss_index(0.5, 10_000, t, k);
        assert_eq!(saturated, 0.5);
    }

    #[test]
    fn moss_index_increases_with_time() {
        let early = moss_index(0.5, 10, 100, 10);
        let late = moss_index(0.5, 10, 100_000, 10);
        assert!(late > early);
    }

    #[test]
    fn moss_index_handles_degenerate_k() {
        // k = 0 must not divide by zero.
        let idx = moss_index(0.5, 10, 100, 0);
        assert!(idx.is_finite());
    }

    #[test]
    fn csr_index_unobserved_dominates_observed() {
        for &t in &[1usize, 10, 1_000, 100_000] {
            let unobserved = csr_index(0.0, 0, t, 10);
            // The largest possible observed index has mean 1 and count 1.
            let best_observed = csr_index(1.0, 1, t, 10);
            assert!(
                unobserved > best_observed,
                "t={t}: unobserved {unobserved} <= observed {best_observed}"
            );
            assert!(unobserved.is_finite());
        }
    }

    #[test]
    fn csr_index_decays_with_count() {
        let t = 10_000;
        assert!(csr_index(0.5, 2, t, 10) > csr_index(0.5, 200, t, 10));
    }

    #[test]
    fn arm_estimators_match_running_means_bit_for_bit() {
        let mut soa = ArmEstimators::new(3);
        let mut aos = [RunningMean::new(); 3];
        let stream = [(0, 0.3), (1, 0.9), (0, 0.1), (2, 0.55), (0, 0.7), (1, 0.2)];
        for &(i, x) in &stream {
            soa.update(i, x);
            aos[i].update(x);
        }
        for (i, arm) in aos.iter().enumerate() {
            assert_eq!(soa.count(i), arm.count());
            assert_eq!(soa.mean(i).to_bits(), arm.mean().to_bits(), "arm {i}");
        }
        assert_eq!(soa.means().len(), 3);
        assert_eq!(soa.counts().len(), 3);
        soa.reset();
        assert_eq!(soa, ArmEstimators::new(3));
    }

    #[test]
    fn with_kind_stationary_is_new() {
        assert_eq!(
            ArmEstimators::with_kind(4, EstimatorKind::Stationary),
            ArmEstimators::new(4)
        );
        assert!(ArmEstimators::new(4).kind().is_stationary());
    }

    #[test]
    fn discounted_with_unit_gamma_matches_stationary_bit_for_bit() {
        let mut stationary = ArmEstimators::new(3);
        let mut discounted = ArmEstimators::with_kind(3, EstimatorKind::Discounted { gamma: 1.0 });
        let stream = [(0, 0.3), (1, 0.9), (0, 0.1), (2, 0.55), (0, 0.7), (1, 0.2)];
        for &(i, x) in &stream {
            stationary.update(i, x);
            discounted.update(i, x);
            discounted.advance_round();
        }
        for i in 0..3 {
            assert_eq!(stationary.count(i), discounted.count(i));
            assert_eq!(
                stationary.mean(i).to_bits(),
                discounted.mean(i).to_bits(),
                "arm {i}"
            );
            assert_eq!(stationary.effective_count(i), discounted.effective_count(i));
        }
    }

    #[test]
    fn discounted_mean_tracks_a_level_shift_faster_than_stationary() {
        let mut stationary = ArmEstimators::new(1);
        let mut discounted = ArmEstimators::with_kind(1, EstimatorKind::Discounted { gamma: 0.9 });
        for _ in 0..200 {
            stationary.update(0, 0.0);
            discounted.update(0, 0.0);
            discounted.advance_round();
        }
        for _ in 0..20 {
            stationary.update(0, 1.0);
            discounted.update(0, 1.0);
            discounted.advance_round();
        }
        assert!(
            discounted.mean(0) > 0.8,
            "discounted mean {} should have converged to the new level",
            discounted.mean(0)
        );
        assert!(
            stationary.mean(0) < 0.2,
            "stationary {}",
            stationary.mean(0)
        );
        // The decayed evidence is bounded by the geometric series 1/(1-γ).
        assert!(discounted.effective_count(0) <= 1.0 / (1.0 - 0.9) + 1e-9);
    }

    #[test]
    fn discounted_decay_leaves_means_invariant() {
        let mut est = ArmEstimators::with_kind(2, EstimatorKind::Discounted { gamma: 0.5 });
        est.update(0, 0.75);
        est.update(1, 0.25);
        let before = [est.mean(0), est.mean(1)];
        est.advance_round();
        assert_eq!(est.mean(0).to_bits(), before[0].to_bits());
        assert_eq!(est.mean(1).to_bits(), before[1].to_bits());
        assert_eq!(est.effective_count(0), 0.5);
    }

    #[test]
    fn sliding_window_forgets_evicted_observations() {
        let mut est = ArmEstimators::with_kind(1, EstimatorKind::SlidingWindow { window: 3 });
        for &x in &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0] {
            est.update(0, x);
        }
        // Only the last three observations remain.
        assert_eq!(est.mean(0), 1.0);
        assert_eq!(est.effective_count(0), 3.0);
        // The raw count still records every observation.
        assert_eq!(est.count(0), 6);
    }

    #[test]
    fn sliding_window_matches_stationary_before_the_window_fills() {
        let mut stationary = ArmEstimators::new(1);
        let mut windowed = ArmEstimators::with_kind(1, EstimatorKind::SlidingWindow { window: 8 });
        for &x in &[0.3, 0.9, 0.1] {
            stationary.update(0, x);
            windowed.update(0, x);
        }
        assert!((stationary.mean(0) - windowed.mean(0)).abs() < 1e-12);
    }

    #[test]
    fn nonstationary_reset_clears_forgetting_state() {
        let mut est = ArmEstimators::with_kind(2, EstimatorKind::Discounted { gamma: 0.7 });
        est.update(0, 1.0);
        est.advance_round();
        est.reset();
        assert_eq!(est.effective_count(0), 0.0);
        assert_eq!(est.mean(0), 0.0);
        assert_eq!(est.kind(), EstimatorKind::Discounted { gamma: 0.7 });

        let mut est = ArmEstimators::with_kind(2, EstimatorKind::SlidingWindow { window: 4 });
        est.update(1, 1.0);
        est.reset();
        assert_eq!(est.effective_count(1), 0.0);
        assert_eq!(est.count(1), 0);
    }

    #[test]
    fn weighted_indices_match_integer_indices_on_integer_counts() {
        for &(mean, count, t, k) in &[(0.5, 3u64, 100usize, 10usize), (0.2, 17, 9999, 4)] {
            assert_eq!(
                moss_index(mean, count, t, k).to_bits(),
                moss_index_weighted(mean, count as f64, t, k).to_bits()
            );
            assert_eq!(
                csr_index(mean, count, t, k).to_bits(),
                csr_index_weighted(mean, count as f64, t, k).to_bits()
            );
        }
        assert_eq!(moss_index_weighted(0.5, 0.0, 10, 5), f64::INFINITY);
        assert_eq!(
            csr_index_weighted(0.5, 0.0, 10, 5).to_bits(),
            csr_index(0.5, 0, 10, 5).to_bits()
        );
    }

    #[test]
    fn argmax_last_matches_max_by() {
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![1.0],
            vec![0.1, 0.5, 0.5, 0.2],
            vec![f64::INFINITY, f64::INFINITY, f64::INFINITY],
            vec![0.3, f64::NAN, 0.2],
            vec![f64::NAN, 0.3, 0.2],
            vec![1.0, 2.0, 3.0],
            vec![3.0, 2.0, 1.0],
        ];
        for values in cases {
            let reference = (0..values.len()).max_by(|&a, &b| {
                values[a]
                    .partial_cmp(&values[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            assert_eq!(
                argmax_last(values.iter().copied()),
                reference,
                "values {values:?}"
            );
        }
    }
}
