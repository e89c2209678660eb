//! Regret accounting for a single simulation run.
//!
//! The paper defines regret (Equations 1–4) as the cumulative difference between
//! the *expected reward of the optimal strategy* and the *realised reward* of the
//! played strategy. This module tracks that quantity per round, along with the
//! pseudo-regret (optimal mean minus the mean of the played strategy), which has
//! the same expectation but lower variance and is what the zero-regret property
//! `R_n / n → 0` is usually checked against.

/// Per-round regret record of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegretTrace {
    /// Realised per-round regret: `optimal mean − realised reward` (Equations
    /// 1–4 of the paper, per round). Can be negative in lucky rounds.
    realised: Vec<f64>,
    /// Pseudo per-round regret: `optimal mean − mean of the played strategy`.
    /// Always ≥ 0 when the optimum is computed over the same feasible set.
    pseudo: Vec<f64>,
}

impl RegretTrace {
    /// An empty trace with capacity for `horizon` rounds.
    pub fn with_capacity(horizon: usize) -> Self {
        RegretTrace {
            realised: Vec::with_capacity(horizon),
            pseudo: Vec::with_capacity(horizon),
        }
    }

    /// Records one round.
    pub fn record(&mut self, realised: f64, pseudo: f64) {
        self.realised.push(realised);
        self.pseudo.push(pseudo);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.realised.len()
    }

    /// Returns `true` if no round has been recorded.
    pub fn is_empty(&self) -> bool {
        self.realised.is_empty()
    }

    /// Per-round realised regret.
    pub fn realised(&self) -> &[f64] {
        &self.realised
    }

    /// Per-round pseudo-regret.
    pub fn pseudo(&self) -> &[f64] {
        &self.pseudo
    }

    /// Cumulative realised regret `R_t` for every `t` (the paper's accumulated
    /// regret, Fig. 3(b)).
    pub fn cumulative(&self) -> Vec<f64> {
        cumulative_sum(&self.realised)
    }

    /// Cumulative pseudo-regret for every `t`.
    pub fn cumulative_pseudo(&self) -> Vec<f64> {
        cumulative_sum(&self.pseudo)
    }

    /// Time-averaged realised regret `R_t / t` for every `t` (the paper's
    /// "expected regret" plots, Figs. 3(a), 4, 5, 6).
    pub fn time_averaged(&self) -> Vec<f64> {
        time_average(&self.realised)
    }

    /// Time-averaged pseudo-regret for every `t`.
    pub fn time_averaged_pseudo(&self) -> Vec<f64> {
        time_average(&self.pseudo)
    }

    /// Final cumulative realised regret `R_n`.
    pub fn total(&self) -> f64 {
        self.realised.iter().sum()
    }

    /// Final cumulative pseudo-regret.
    pub fn total_pseudo(&self) -> f64 {
        self.pseudo.iter().sum()
    }

    /// Final time-averaged realised regret `R_n / n` (0 for an empty trace).
    pub fn final_average(&self) -> f64 {
        if self.realised.is_empty() {
            0.0
        } else {
            self.total() / self.realised.len() as f64
        }
    }
}

fn cumulative_sum(xs: &[f64]) -> Vec<f64> {
    let mut total = 0.0;
    xs.iter()
        .map(|&x| {
            total += x;
            total
        })
        .collect()
}

fn time_average(xs: &[f64]) -> Vec<f64> {
    let mut total = 0.0;
    xs.iter()
        .enumerate()
        .map(|(i, &x)| {
            total += x;
            total / (i + 1) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_well_behaved() {
        let trace = RegretTrace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.len(), 0);
        assert_eq!(trace.total(), 0.0);
        assert_eq!(trace.final_average(), 0.0);
        assert!(trace.cumulative().is_empty());
        assert!(trace.time_averaged().is_empty());
    }

    #[test]
    fn cumulative_and_average_match_hand_computation() {
        let mut trace = RegretTrace::with_capacity(4);
        trace.record(1.0, 0.5);
        trace.record(0.0, 0.5);
        trace.record(-0.5, 0.0);
        trace.record(0.5, 0.0);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.cumulative(), vec![1.0, 1.0, 0.5, 1.0]);
        assert_eq!(trace.cumulative_pseudo(), vec![0.5, 1.0, 1.0, 1.0]);
        assert_eq!(trace.time_averaged()[3], 0.25);
        assert_eq!(trace.time_averaged_pseudo()[1], 0.5);
        assert_eq!(trace.total(), 1.0);
        assert_eq!(trace.total_pseudo(), 1.0);
        assert_eq!(trace.final_average(), 0.25);
    }

    #[test]
    fn pseudo_and_realised_are_tracked_independently() {
        let mut trace = RegretTrace::default();
        trace.record(0.2, 0.7);
        assert_eq!(trace.realised(), &[0.2]);
        assert_eq!(trace.pseudo(), &[0.7]);
    }
}
