//! Per-stage decide timings: route → select → pull → score → reply.
//!
//! ROADMAP item 4 (multicore scaling) needs to know *where* a decide spends
//! its time before any scheduling change can be judged. These types give the
//! serving layer a feature-flag-free way to record that split: a
//! [`StageClock`] laps `Instant::now()` between stage boundaries, and a
//! [`StageTimings`] holds one [`LatencyHistogram`] per stage.
//!
//! Reading a monotonic clock a handful of extra times per decide is cheap
//! but not free, so the serving layer samples: most decides record only the
//! single end-to-end latency they always did, and every N-th decide also
//! records its stage split. The histograms therefore answer "where does the
//! time go" (shape), not "how many decides ran" (use the decide counters for
//! that).

use std::time::Instant;

use crate::hist::LatencyHistogram;

/// The stages of one decide, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecideStage {
    /// Tenant lookup in the shard's table. netband-serve looks a tenant up
    /// once per decide-window entry, before the clock starts, so there this
    /// lap reads about zero.
    Route,
    /// Policy arm/strategy selection (includes any flush-before-decide).
    Select,
    /// Environment pull: reward realisation for the selected play.
    Pull,
    /// Scoring: reward/regret accounting and trace recording.
    Score,
    /// Reply construction (filling the decide reply buffers).
    Reply,
}

/// All stages in pipeline order.
pub const DECIDE_STAGES: [DecideStage; 5] = [
    DecideStage::Route,
    DecideStage::Select,
    DecideStage::Pull,
    DecideStage::Score,
    DecideStage::Reply,
];

impl DecideStage {
    /// Stable, lowercase stage name (used as the `stage` label value).
    pub fn name(&self) -> &'static str {
        match self {
            DecideStage::Route => "route",
            DecideStage::Select => "select",
            DecideStage::Pull => "pull",
            DecideStage::Score => "score",
            DecideStage::Reply => "reply",
        }
    }

    fn index(self) -> usize {
        match self {
            DecideStage::Route => 0,
            DecideStage::Select => 1,
            DecideStage::Pull => 2,
            DecideStage::Score => 3,
            DecideStage::Reply => 4,
        }
    }
}

/// One latency histogram per decide stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTimings {
    histograms: [LatencyHistogram; 5],
}

impl Default for StageTimings {
    fn default() -> Self {
        StageTimings {
            histograms: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }
}

impl StageTimings {
    /// Empty timings.
    pub fn new() -> Self {
        StageTimings::default()
    }

    /// The histogram of one stage.
    pub fn get(&self, stage: DecideStage) -> &LatencyHistogram {
        &self.histograms[stage.index()]
    }

    /// Records one observation for `stage`.
    pub fn record(&mut self, stage: DecideStage, latency: std::time::Duration) {
        self.histograms[stage.index()].record(latency);
    }

    /// Folds another set of timings into this one.
    pub fn merge(&mut self, other: &StageTimings) {
        for (mine, theirs) in self.histograms.iter_mut().zip(other.histograms.iter()) {
            mine.merge(theirs);
        }
    }

    /// Total observations across all stages.
    pub fn total_count(&self) -> u64 {
        self.histograms.iter().map(|h| h.count()).sum()
    }
}

/// Laps a monotonic clock across stage boundaries, recording each lap into a
/// [`StageTimings`]. Create it when a sampled decide starts, call
/// [`StageClock::lap`] at the end of each stage.
#[derive(Debug)]
pub struct StageClock {
    last: Instant,
}

impl StageClock {
    /// Starts the clock (the first lap measures from here).
    pub fn start() -> Self {
        StageClock {
            last: Instant::now(),
        }
    }

    /// Ends `stage`: records the time since the previous lap (or since
    /// [`StageClock::start`]) and restarts the lap timer.
    pub fn lap(&mut self, stage: DecideStage, into: &mut StageTimings) {
        let now = Instant::now();
        into.record(stage, now.duration_since(self.last));
        self.last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stage_names_are_stable_and_distinct() {
        let names: Vec<&str> = DECIDE_STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["route", "select", "pull", "score", "reply"]);
    }

    #[test]
    fn record_and_merge_accumulate_per_stage() {
        let mut a = StageTimings::new();
        a.record(DecideStage::Route, Duration::from_nanos(100));
        a.record(DecideStage::Select, Duration::from_nanos(200));
        let mut b = StageTimings::new();
        b.record(DecideStage::Select, Duration::from_nanos(300));
        a.merge(&b);
        assert_eq!(a.get(DecideStage::Route).count(), 1);
        assert_eq!(a.get(DecideStage::Select).count(), 2);
        assert_eq!(a.get(DecideStage::Pull).count(), 0);
        assert_eq!(a.total_count(), 3);
    }

    #[test]
    fn clock_laps_cover_every_stage() {
        let mut timings = StageTimings::new();
        let mut clock = StageClock::start();
        for stage in DECIDE_STAGES {
            clock.lap(stage, &mut timings);
        }
        for stage in DECIDE_STAGES {
            assert_eq!(timings.get(stage).count(), 1, "{}", stage.name());
        }
    }
}
