//! Order statistics used by the report: medians of per-episode values and
//! nearest-rank quantiles of pooled latency samples.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean of `samples`; 0 for an empty slice.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// Nearest-rank quantile of an ascending `sorted` slice: the smallest sample
/// with at least `q` of the samples at or below it. 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Calls per latency block.
pub const BLOCK: usize = 1000;

/// Latency quantiles over consecutive blocks of [`BLOCK`] calls.
///
/// Each full block gives its median and its p99, which rests on 10 samples.
/// A run reports the median over blocks, so a host stall that hits a few
/// blocks moves their p99 but not the reported one. Memory stays one block
/// however many calls a run makes, so a faster build does not raise the
/// process's peak memory.
#[derive(Debug, Clone, Default)]
pub struct Blocks {
    current: Vec<u64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    seen: u64,
}

impl Blocks {
    /// Records one call time.
    pub fn push(&mut self, ns: u64) {
        self.seen += 1;
        self.current.push(ns);
        if self.current.len() == BLOCK {
            self.p50.push(block_quantile(&mut self.current, 0.5));
            self.p99.push(block_quantile(&mut self.current, 0.99));
            self.current.clear();
        }
    }

    /// Calls recorded.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Full blocks recorded.
    pub fn blocks(&self) -> usize {
        self.p50.len()
    }

    /// Median over blocks of each block's median. Without a full block, the
    /// median of the calls so far.
    pub fn p50(&self) -> f64 {
        self.over_blocks(&self.p50, 0.5)
    }

    /// Median over blocks of each block's p99. Without a full block, the
    /// p99 of the calls so far.
    pub fn p99(&self) -> f64 {
        self.over_blocks(&self.p99, 0.99)
    }

    fn over_blocks(&self, per_block: &[f64], q: f64) -> f64 {
        if per_block.is_empty() {
            return block_quantile(&mut self.current.clone(), q);
        }
        median(per_block)
    }
}

fn block_quantile(block: &mut [u64], q: f64) -> f64 {
    block.sort_unstable();
    quantile(block, q) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_quantiles_ignore_a_stalled_block() {
        let mut blocks = Blocks::default();
        (0..5).for_each(|v| blocks.push(v));
        assert_eq!(blocks.p50(), 2.0);
        let mut blocks = Blocks::default();
        for block in 0..3 {
            for i in 0..BLOCK as u64 {
                // The middle block stalls on its slowest 5%.
                let stall = block == 1 && i >= 950;
                blocks.push(if stall { 1_000_000 } else { 1 + i });
            }
        }
        assert_eq!(blocks.blocks(), 3);
        assert_eq!(blocks.seen(), 3 * BLOCK as u64);
        assert_eq!(blocks.p50(), 500.0);
        assert_eq!(blocks.p99(), 990.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&sorted, 0.5), 500);
        assert_eq!(quantile(&sorted, 0.99), 990);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
