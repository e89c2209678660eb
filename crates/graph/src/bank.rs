//! Flat, contiguous storage for enumerated strategy sets.
//!
//! An enumerated feasible family used to travel through the workspace as a
//! `Vec<Vec<ArmId>>` — one heap allocation (and one pointer chase) per
//! strategy. Per-round combinatorial oracles scan the *whole* family every
//! time slot, so that layout puts a cache miss in front of every candidate.
//! [`StrategyBank`] packs the same rows into two arrays, the same shape as
//! [`CsrGraph`](crate::CsrGraph): `offsets[x]..offsets[x + 1]` delimits row
//! `x` inside `arms`, so a full-family scan is one linear walk over
//! contiguous memory.
//!
//! Row order is preserved exactly by every constructor — oracle tie-breaking
//! and floating-point summation order are defined by enumeration order, and
//! the golden-trace suites pin both bit-for-bit.
//!
//! # Layout invariants
//!
//! * `offsets.len() == len() + 1`, `offsets[0] == 0`, and `offsets` is
//!   non-decreasing with `offsets[len()] == arms.len()`.
//! * Row contents are stored verbatim (constructors do **not** sort or
//!   deduplicate; normalisation is the caller's policy, exactly as it was
//!   with `Vec<Vec<ArmId>>`).
//!
//! # Example
//!
//! ```
//! use netband_graph::StrategyBank;
//!
//! let bank: StrategyBank = vec![vec![0], vec![1, 3], vec![2]].into();
//! assert_eq!(bank.len(), 3);
//! assert_eq!(bank.row(1), &[1, 3]);
//! assert_eq!(bank.iter().map(|row| row.len()).sum::<usize>(), 4);
//! ```

use crate::ArmId;

/// An enumerated strategy set stored as flat CSR-style rows.
///
/// See the [module docs](self) for layout and invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyBank {
    /// Row boundaries: row `x` is `arms[offsets[x] as usize..offsets[x + 1] as usize]`.
    offsets: Vec<u32>,
    /// Concatenated row contents.
    arms: Vec<ArmId>,
}

impl StrategyBank {
    /// An empty bank (no rows).
    pub fn new() -> Self {
        StrategyBank {
            offsets: vec![0],
            arms: Vec::new(),
        }
    }

    /// An empty bank with storage reserved for `rows` rows totalling `arms`
    /// arm entries.
    pub fn with_capacity(rows: usize, arms: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrategyBank {
            offsets,
            arms: Vec::with_capacity(arms),
        }
    }

    /// Appends one row (stored verbatim).
    ///
    /// # Panics
    ///
    /// Panics if the total number of stored arm entries would exceed
    /// `u32::MAX` (the offset width).
    pub fn push_row(&mut self, row: &[ArmId]) {
        self.arms.extend_from_slice(row);
        let end = u32::try_from(self.arms.len()).expect("strategy bank exceeds u32 offset range");
        self.offsets.push(end);
    }

    /// Extends the current last row in place and closes it. Used by builders
    /// that stream a row's arms without materialising a slice first: call
    /// [`StrategyBank::extend_row`] any number of times, then
    /// [`StrategyBank::finish_row`] once.
    pub fn extend_row(&mut self, arms: impl IntoIterator<Item = ArmId>) {
        self.arms.extend(arms);
    }

    /// Closes the row opened by preceding [`StrategyBank::extend_row`] calls
    /// (a bare call records an empty row).
    ///
    /// # Panics
    ///
    /// Panics if the total number of stored arm entries exceeds `u32::MAX`.
    pub fn finish_row(&mut self) {
        let end = u32::try_from(self.arms.len()).expect("strategy bank exceeds u32 offset range");
        self.offsets.push(end);
    }

    /// Number of rows (strategies).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the bank holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `x` as a borrowed slice.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn row(&self, x: usize) -> &[ArmId] {
        &self.arms[self.offsets[x] as usize..self.offsets[x + 1] as usize]
    }

    /// Length of row `x` without touching the arms array.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn row_len(&self, x: usize) -> usize {
        (self.offsets[x + 1] - self.offsets[x]) as usize
    }

    /// Iterates the rows in order, each as a borrowed slice.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            offsets: self.offsets.windows(2),
            arms: &self.arms,
        }
    }

    /// Rebuilds the bank with every row sorted and deduplicated — the shared
    /// normalisation step of explicit families, com-arm baselines, and the
    /// strategy relation graph. Arms failing `keep_arm` are dropped from
    /// their row; rows left empty after filtering are dropped entirely when
    /// `drop_empty`. Row order is otherwise preserved.
    pub fn into_normalized(
        self,
        drop_empty: bool,
        mut keep_arm: impl FnMut(ArmId) -> bool,
    ) -> StrategyBank {
        let mut out = StrategyBank::with_capacity(self.len(), self.arms.len());
        let mut scratch: Vec<ArmId> = Vec::new();
        for row in self.iter() {
            scratch.clear();
            scratch.extend(row.iter().copied().filter(|&v| keep_arm(v)));
            scratch.sort_unstable();
            scratch.dedup();
            if !(drop_empty && scratch.is_empty()) {
                out.push_row(&scratch);
            }
        }
        out
    }

    /// The concatenated row contents (every stored arm id, row by row).
    pub fn arms(&self) -> &[ArmId] {
        &self.arms
    }

    /// Length of the longest row (0 for an empty bank).
    pub fn max_row_len(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Copies the rows back out into the nested layout the bank replaces.
    /// Intended for tests and interop, not hot paths.
    pub fn to_rows(&self) -> Vec<Vec<ArmId>> {
        self.iter().map(<[ArmId]>::to_vec).collect()
    }

    /// Index of the row with the largest sum of per-arm scores, scanning the
    /// flat `offsets`/`arms` arrays contiguously.
    ///
    /// This is the oracle-scan kernel: callers precompute a per-arm score
    /// `table` once per decide (one chunked kernel sweep) and this method
    /// reduces every row over it in a single linear walk. Semantics match the
    /// scalar oracle exactly:
    ///
    /// * each row's weight is the sum of `table[arm]` **in row order** (arm
    ///   ids beyond `table` contribute `0.0`), the same f64 operation
    ///   sequence as `strategy_weight`;
    /// * ties break to the **last** maximal row, and incomparable (NaN)
    ///   weights compare as equal — i.e. `argmax_last` selection.
    ///
    /// Returns `None` for an empty bank.
    pub fn argmax_row_sums(&self, table: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (x, w) in self.offsets.windows(2).enumerate() {
            let row = &self.arms[w[0] as usize..w[1] as usize];
            let mut sum = 0.0;
            for &arm in row {
                sum += table.get(arm).copied().unwrap_or(0.0);
            }
            let keep_incumbent = best
                .map(|(_, b)| b.partial_cmp(&sum) == Some(std::cmp::Ordering::Greater))
                .unwrap_or(false);
            if !keep_incumbent {
                best = Some((x, sum));
            }
        }
        best.map(|(x, _)| x)
    }
}

/// The default bank is empty — same state as [`StrategyBank::new`] (a derived
/// `Default` would leave `offsets` without its leading 0 sentinel).
impl Default for StrategyBank {
    fn default() -> Self {
        StrategyBank::new()
    }
}

impl From<Vec<Vec<ArmId>>> for StrategyBank {
    fn from(rows: Vec<Vec<ArmId>>) -> Self {
        let total = rows.iter().map(Vec::len).sum();
        let mut bank = StrategyBank::with_capacity(rows.len(), total);
        for row in &rows {
            bank.push_row(row);
        }
        bank
    }
}

impl FromIterator<Vec<ArmId>> for StrategyBank {
    fn from_iter<I: IntoIterator<Item = Vec<ArmId>>>(iter: I) -> Self {
        let mut bank = StrategyBank::new();
        for row in iter {
            bank.push_row(&row);
        }
        bank
    }
}

/// Borrowed row iterator of a [`StrategyBank`] (see [`StrategyBank::iter`]).
/// A concrete, allocation-free type so `for row in &bank` costs the same as
/// indexing.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    offsets: std::slice::Windows<'a, u32>,
    arms: &'a [ArmId],
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [ArmId];

    fn next(&mut self) -> Option<&'a [ArmId]> {
        let w = self.offsets.next()?;
        Some(&self.arms[w[0] as usize..w[1] as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.offsets.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl<'a> IntoIterator for &'a StrategyBank {
    type Item = &'a [ArmId];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bank_has_no_rows() {
        let bank = StrategyBank::new();
        assert_eq!(bank.len(), 0);
        assert!(bank.is_empty());
        assert_eq!(bank.max_row_len(), 0);
        assert!(bank.iter().next().is_none());
        assert!(bank.to_rows().is_empty());
        assert_eq!(bank, StrategyBank::default());
    }

    #[test]
    fn rows_round_trip_verbatim() {
        let rows = vec![vec![3, 1], vec![], vec![0, 2, 4]];
        let bank = StrategyBank::from(rows.clone());
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.row(0), &[3, 1]);
        assert_eq!(bank.row(1), &[] as &[ArmId]);
        assert_eq!(bank.row(2), &[0, 2, 4]);
        assert_eq!(bank.row_len(2), 3);
        assert_eq!(bank.max_row_len(), 3);
        assert_eq!(bank.arms(), &[3, 1, 0, 2, 4]);
        assert_eq!(bank.to_rows(), rows);
        let collected: StrategyBank = rows.clone().into_iter().collect();
        assert_eq!(collected, bank);
    }

    #[test]
    fn iter_matches_indexed_rows() {
        let bank: StrategyBank = vec![vec![1], vec![2, 3]].into();
        let via_iter: Vec<&[ArmId]> = bank.iter().collect();
        let via_index: Vec<&[ArmId]> = (0..bank.len()).map(|x| bank.row(x)).collect();
        assert_eq!(via_iter, via_index);
        // `&bank` iterates the same rows.
        assert_eq!((&bank).into_iter().count(), 2);
    }

    #[test]
    fn streaming_row_builder_matches_push_row() {
        let mut streamed = StrategyBank::new();
        streamed.extend_row([4, 5]);
        streamed.extend_row([6]);
        streamed.finish_row();
        streamed.finish_row(); // empty row
        let mut pushed = StrategyBank::new();
        pushed.push_row(&[4, 5, 6]);
        pushed.push_row(&[]);
        assert_eq!(streamed, pushed);
    }

    #[test]
    fn with_capacity_preallocates() {
        let bank = StrategyBank::with_capacity(8, 32);
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
    }

    #[test]
    fn argmax_row_sums_sums_in_row_order_and_breaks_ties_late() {
        let bank: StrategyBank = vec![vec![0, 1], vec![2], vec![1, 0]].into();
        // Rows 0 and 2 tie exactly (same members): the last one wins.
        assert_eq!(bank.argmax_row_sums(&[0.5, 0.25, 0.6]), Some(2));
        // A strictly larger row keeps winning regardless of position.
        assert_eq!(bank.argmax_row_sums(&[0.5, 0.25, 0.9]), Some(1));
        // Out-of-range arm ids contribute 0, and NaN rows compare as equal,
        // replacing the incumbent (argmax_last semantics).
        let sparse: StrategyBank = vec![vec![0], vec![9]].into();
        assert_eq!(sparse.argmax_row_sums(&[-1.0]), Some(1));
        let nan: StrategyBank = vec![vec![0], vec![1]].into();
        assert_eq!(nan.argmax_row_sums(&[1.0, f64::NAN]), Some(1));
        assert_eq!(StrategyBank::new().argmax_row_sums(&[1.0]), None);
    }
}
