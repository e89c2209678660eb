//! Feasible strategy families `F` and combinatorial oracles.
//!
//! Combinatorial play (Sections IV and VI) selects, at each time slot, a
//! strategy `s_x ∈ F` of at most `M` arms satisfying the underlying constraint.
//! The paper assumes the per-round combinatorial problem ("given weights, find
//! the feasible strategy with the largest total weight") can be solved optimally;
//! this module provides those oracles:
//!
//! * by **arm weights** — maximise `Σ_{i ∈ s_x} w_i` (the objective of DFL-CSO's
//!   reduction and of the CUCB/LLR baselines);
//! * by **neighbourhood weights** — maximise `Σ_{i ∈ Y_x} w_i` where
//!   `Y_x = ∪_{i ∈ s_x} N_i` (the objective of DFL-CSR, Equation 47).
//!
//! Exact solvers are used whenever the family can be enumerated within a
//! configurable budget; otherwise a documented greedy fallback is applied
//! (`ln`-factor coverage guarantee for the neighbourhood objective).

use netband_graph::independent::independent_sets_bank;
use netband_graph::RelationGraph;

pub use netband_graph::StrategyBank;

use crate::ArmId;

/// Default enumeration budget used by the exact oracles before they fall back to
/// greedy construction.
pub const DEFAULT_ENUMERATION_LIMIT: usize = 200_000;

/// A family of feasible combinatorial strategies.
///
/// Implementors define membership and (optionally bounded) enumeration; the
/// per-round maximisation oracles have default implementations in terms of
/// enumeration, which concrete families override with faster exact or greedy
/// algorithms. Enumeration yields a flat [`StrategyBank`], so the oracle scans
/// walk one contiguous array instead of chasing a heap pointer per candidate.
pub trait FeasibleSet {
    /// Maximum number of arms a strategy may contain (`M`).
    fn max_size(&self) -> usize;

    /// Returns `true` if `strategy` (sorted, deduplicated) belongs to the family.
    fn contains(&self, strategy: &[ArmId], graph: &RelationGraph) -> bool;

    /// Enumerates the family into a flat bank, or returns `None` when it would
    /// exceed `limit`.
    fn enumerate_bounded(&self, graph: &RelationGraph, limit: usize) -> Option<StrategyBank>;

    /// Enumerates the family with the default budget.
    fn enumerate(&self, graph: &RelationGraph) -> Option<StrategyBank> {
        self.enumerate_bounded(graph, DEFAULT_ENUMERATION_LIMIT)
    }

    /// The feasible strategy maximising `Σ_{i ∈ s} w_i`, or `None` if the family
    /// is empty.
    fn argmax_by_arm_weights(&self, weights: &[f64], graph: &RelationGraph) -> Option<Vec<ArmId>> {
        let bank = self.enumerate(graph)?;
        // `weights` is the per-arm score table; one contiguous bank scan with
        // the same row-order summation and last-max tie-breaking as the
        // `argmax_row_by` + `strategy_weight` pair it replaces.
        bank.argmax_row_sums(weights).map(|x| bank.row(x).to_vec())
    }

    /// The feasible strategy maximising `Σ_{i ∈ Y_s} w_i`, or `None` if the
    /// family is empty.
    ///
    /// The default implementation is exact whenever the family can be enumerated
    /// within the default budget; otherwise it falls back to greedy weighted
    /// max-coverage (adding the feasible arm with the largest marginal
    /// neighbourhood weight), which carries the classical `1 − 1/e` guarantee
    /// for monotone coverage objectives.
    fn argmax_by_neighborhood_weights(
        &self,
        weights: &[f64],
        graph: &RelationGraph,
    ) -> Option<Vec<ArmId>> {
        if let Some(bank) = self.enumerate(graph) {
            return argmax_neighborhood_in_bank(&bank, weights, graph);
        }
        greedy_neighborhood_argmax(self, weights, graph)
    }
}

/// Index of the bank row maximising `weight`, replicating the tie-breaking of
/// the `Iterator::max_by` scan it replaces bit-for-bit: rows are visited in
/// order, the **last** maximal row wins, and incomparable (NaN) weights
/// compare `Equal` (so the newer row wins those too).
fn argmax_row_by(bank: &StrategyBank, mut weight: impl FnMut(&[ArmId]) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (x, row) in bank.iter().enumerate() {
        let w = weight(row);
        best = match best {
            Some((bx, bw))
                if bw.partial_cmp(&w).unwrap_or(std::cmp::Ordering::Equal)
                    == std::cmp::Ordering::Greater =>
            {
                Some((bx, bw))
            }
            _ => Some((x, w)),
        };
    }
    best.map(|(x, _)| x)
}

/// Flat-bank scan of the neighbourhood-weight objective: every row's `Y_s` is
/// built through one reusable mark table (no per-row sort for dense unions),
/// and summed in ascending arm order — exactly the order
/// [`neighborhood_weight`] sums in, so the floating-point summation order —
/// and hence the argmax — stays bit-identical to the nested scan it replaces.
fn argmax_neighborhood_in_bank(
    bank: &StrategyBank,
    weights: &[f64],
    graph: &RelationGraph,
) -> Option<Vec<ArmId>> {
    let mut scratch: Vec<ArmId> = Vec::new();
    let mut mark = vec![false; graph.num_vertices()];
    argmax_row_by(bank, |row| {
        neighborhood_weight_with(row, weights, graph, &mut scratch, &mut mark)
    })
    .map(|x| bank.row(x).to_vec())
}

/// [`neighborhood_weight`] with caller-provided scratch state (cleared and
/// refilled per call; no allocation once warm). The union `Y_s` is collected
/// through the mark table instead of sort+dedup; the sum still runs over the
/// ascending deduplicated union — the same order a `BTreeSet`-built
/// neighbourhood sums in — via a marked sweep of the arm range when the union
/// is dense, or a sort of the (already unique) members when it is sparse.
/// Both branches add the identical f64 sequence.
fn neighborhood_weight_with(
    strategy: &[ArmId],
    weights: &[f64],
    graph: &RelationGraph,
    scratch: &mut Vec<ArmId>,
    mark: &mut [bool],
) -> f64 {
    scratch.clear();
    for &v in strategy {
        if !mark[v] {
            mark[v] = true;
            scratch.push(v);
        }
        for &u in graph.neighbors(v) {
            if !mark[u] {
                mark[u] = true;
                scratch.push(u);
            }
        }
    }
    let sum = if scratch.len() * 4 >= mark.len() {
        let mut acc = 0.0;
        for (i, &m) in mark.iter().enumerate() {
            if m {
                acc += weights.get(i).copied().unwrap_or(0.0);
            }
        }
        acc
    } else {
        scratch.sort_unstable();
        scratch
            .iter()
            .map(|&i| weights.get(i).copied().unwrap_or(0.0))
            .sum()
    };
    for &i in scratch.iter() {
        mark[i] = false;
    }
    sum
}

/// Greedy weighted max-coverage construction used when a family is too large to
/// enumerate: repeatedly add the feasible arm with the largest marginal
/// neighbourhood weight.
fn greedy_neighborhood_argmax<F: FeasibleSet + ?Sized>(
    family: &F,
    weights: &[f64],
    graph: &RelationGraph,
) -> Option<Vec<ArmId>> {
    let n = graph.num_vertices();
    if n == 0 {
        return None;
    }
    let mut covered = vec![false; n];
    let mut chosen: Vec<ArmId> = Vec::new();
    let cap = family.max_size().max(1);
    while chosen.len() < cap {
        let mut best: Option<(ArmId, f64)> = None;
        for cand in 0..n {
            if chosen.contains(&cand) {
                continue;
            }
            let mut trial = chosen.clone();
            trial.push(cand);
            trial.sort_unstable();
            if !family.contains(&trial, graph) {
                continue;
            }
            let marginal: f64 = graph
                .closed_neighborhood(cand)
                .iter()
                .filter(|&&j| !covered[j])
                .map(|&j| weights.get(j).copied().unwrap_or(0.0))
                .sum();
            if best.map(|(_, w)| marginal > w).unwrap_or(true) {
                best = Some((cand, marginal));
            }
        }
        match best {
            Some((cand, marginal)) if marginal > 0.0 || chosen.is_empty() => {
                for &j in graph.closed_neighborhood(cand).iter() {
                    covered[j] = true;
                }
                chosen.push(cand);
            }
            _ => break,
        }
    }
    if chosen.is_empty() {
        None
    } else {
        chosen.sort_unstable();
        Some(chosen)
    }
}

/// Total weight of a strategy's component arms.
pub fn strategy_weight(strategy: &[ArmId], weights: &[f64]) -> f64 {
    strategy
        .iter()
        .map(|&i| weights.get(i).copied().unwrap_or(0.0))
        .sum()
}

/// Total weight of a strategy's observation set `Y_s`.
pub fn neighborhood_weight(strategy: &[ArmId], weights: &[f64], graph: &RelationGraph) -> f64 {
    graph
        .closed_neighborhood_of_set(strategy)
        .iter()
        .map(|&i| weights.get(i).copied().unwrap_or(0.0))
        .sum()
}

/// The built-in strategy families used throughout the workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyFamily {
    /// An explicitly enumerated feasible set (the regime of Algorithm 2).
    Explicit {
        /// The feasible strategies (normalised at construction), stored as
        /// flat [`StrategyBank`] rows so the per-round oracle scans
        /// contiguous memory.
        strategies: StrategyBank,
    },
    /// All non-empty subsets of at most `m` arms ("place up to m advertisements").
    AtMostM {
        /// Number of arms `K`.
        num_arms: usize,
        /// Cardinality cap `M`.
        m: usize,
    },
    /// All subsets of exactly `m` arms (Anantharam et al.'s setting).
    ExactlyM {
        /// Number of arms `K`.
        num_arms: usize,
        /// Exact cardinality `M`.
        m: usize,
    },
    /// All non-empty independent sets of the relation graph with at most
    /// `max_size` arms (the paper's Fig. 2 example: maximum weighted independent
    /// set).
    IndependentSets {
        /// Cardinality cap `M`.
        max_size: usize,
    },
}

impl StrategyFamily {
    /// An explicit feasible set; strategies are sorted, deduplicated, and
    /// packed into a flat [`StrategyBank`] (empty strategies are dropped).
    pub fn explicit(strategies: impl Into<StrategyBank>) -> Self {
        StrategyFamily::Explicit {
            strategies: strategies.into().into_normalized(true, |_| true),
        }
    }

    /// Subsets of at most `m` of `num_arms` arms.
    pub fn at_most_m(num_arms: usize, m: usize) -> Self {
        StrategyFamily::AtMostM {
            num_arms,
            m: m.max(1),
        }
    }

    /// Subsets of exactly `m` of `num_arms` arms.
    pub fn exactly_m(num_arms: usize, m: usize) -> Self {
        StrategyFamily::ExactlyM {
            num_arms,
            m: m.max(1),
        }
    }

    /// Independent sets of size at most `max_size`.
    pub fn independent_sets(max_size: usize) -> Self {
        StrategyFamily::IndependentSets {
            max_size: max_size.max(1),
        }
    }

    /// Number of strategies if it is cheap to compute exactly (explicit sets and
    /// the subset families), `None` for the independent-set family.
    pub fn size_hint(&self) -> Option<usize> {
        match self {
            StrategyFamily::Explicit { strategies } => Some(strategies.len()),
            StrategyFamily::AtMostM { num_arms, m } => {
                Some((1..=*m.min(num_arms)).map(|k| binomial(*num_arms, k)).sum())
            }
            StrategyFamily::ExactlyM { num_arms, m } => Some(binomial(*num_arms, *m)),
            StrategyFamily::IndependentSets { .. } => None,
        }
    }
}

impl FeasibleSet for StrategyFamily {
    fn max_size(&self) -> usize {
        match self {
            StrategyFamily::Explicit { strategies } => strategies.max_row_len(),
            StrategyFamily::AtMostM { m, .. } | StrategyFamily::ExactlyM { m, .. } => *m,
            StrategyFamily::IndependentSets { max_size } => *max_size,
        }
    }

    fn contains(&self, strategy: &[ArmId], graph: &RelationGraph) -> bool {
        if strategy.is_empty() {
            return false;
        }
        let mut sorted = strategy.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != strategy.len() {
            return false;
        }
        match self {
            StrategyFamily::Explicit { strategies } => {
                strategies.iter().any(|s| s == sorted.as_slice())
            }
            StrategyFamily::AtMostM { num_arms, m } => {
                sorted.len() <= *m && sorted.iter().all(|&i| i < *num_arms)
            }
            StrategyFamily::ExactlyM { num_arms, m } => {
                sorted.len() == *m && sorted.iter().all(|&i| i < *num_arms)
            }
            StrategyFamily::IndependentSets { max_size } => {
                sorted.len() <= *max_size
                    && sorted.iter().all(|&i| i < graph.num_vertices())
                    && graph.is_independent_set(&sorted)
            }
        }
    }

    fn enumerate_bounded(&self, graph: &RelationGraph, limit: usize) -> Option<StrategyBank> {
        match self {
            StrategyFamily::Explicit { strategies } => {
                if strategies.len() <= limit {
                    Some(strategies.clone())
                } else {
                    None
                }
            }
            StrategyFamily::AtMostM { num_arms, m } => {
                let size = self.size_hint().filter(|&s| s <= limit)?;
                let mut out = StrategyBank::with_capacity(size, 0);
                for k in 1..=*m.min(num_arms) {
                    push_combinations(*num_arms, k, &mut out);
                }
                Some(out)
            }
            StrategyFamily::ExactlyM { num_arms, m } => {
                if *m > *num_arms {
                    return Some(StrategyBank::new());
                }
                let size = self.size_hint().filter(|&s| s <= limit)?;
                let mut out = StrategyBank::with_capacity(size, size * *m);
                push_combinations(*num_arms, *m, &mut out);
                Some(out)
            }
            StrategyFamily::IndependentSets { max_size } => {
                let sets = independent_sets_bank(graph, *max_size, Some(limit + 1));
                if sets.len() > limit {
                    None
                } else {
                    Some(sets)
                }
            }
        }
    }

    fn argmax_by_arm_weights(&self, weights: &[f64], graph: &RelationGraph) -> Option<Vec<ArmId>> {
        match self {
            StrategyFamily::Explicit { strategies } => {
                // Explicit sets are scanned directly off the stored bank —
                // no enumeration copy, one contiguous walk over the per-arm
                // score table.
                strategies
                    .argmax_row_sums(weights)
                    .map(|x| strategies.row(x).to_vec())
            }
            StrategyFamily::AtMostM { num_arms, m } => {
                // Take the best arm unconditionally, then greedily add arms with
                // positive weight; this is exact because the objective is additive.
                let order = sorted_by_weight(*num_arms, weights);
                let mut chosen: Vec<ArmId> = Vec::new();
                for (rank, &i) in order.iter().enumerate() {
                    if chosen.len() >= *m {
                        break;
                    }
                    let w = weights.get(i).copied().unwrap_or(0.0);
                    if rank == 0 || w > 0.0 {
                        chosen.push(i);
                    }
                }
                if chosen.is_empty() {
                    None
                } else {
                    chosen.sort_unstable();
                    Some(chosen)
                }
            }
            StrategyFamily::ExactlyM { num_arms, m } => {
                if *m > *num_arms || *num_arms == 0 {
                    return None;
                }
                let order = sorted_by_weight(*num_arms, weights);
                let mut chosen: Vec<ArmId> = order.into_iter().take(*m).collect();
                chosen.sort_unstable();
                Some(chosen)
            }
            StrategyFamily::IndependentSets { max_size } => {
                if graph.num_vertices() == 0 {
                    return None;
                }
                // Exact on enumerable instances; greedy weighted independent set
                // otherwise.
                if let Some(bank) = self.enumerate(graph) {
                    bank.argmax_row_sums(weights).map(|x| bank.row(x).to_vec())
                } else {
                    let mut greedy = netband_graph::independent::greedy_max_weight_independent_set(
                        graph, weights,
                    );
                    greedy.truncate(*max_size);
                    if greedy.is_empty() {
                        None
                    } else {
                        Some(greedy)
                    }
                }
            }
        }
    }

    fn argmax_by_neighborhood_weights(
        &self,
        weights: &[f64],
        graph: &RelationGraph,
    ) -> Option<Vec<ArmId>> {
        // Same structure as the trait default — exact by enumeration when
        // affordable, greedy weighted max-coverage otherwise — except that an
        // explicit family scans its stored bank directly instead of cloning
        // it through `enumerate`.
        if let StrategyFamily::Explicit { strategies } = self {
            return argmax_neighborhood_in_bank(strategies, weights, graph);
        }
        if let Some(bank) = self.enumerate(graph) {
            return argmax_neighborhood_in_bank(&bank, weights, graph);
        }
        greedy_neighborhood_argmax(self, weights, graph)
    }
}

/// Arm indices `0..num_arms` sorted by decreasing weight (ties towards smaller
/// index, missing weights count as 0).
fn sorted_by_weight(num_arms: usize, weights: &[f64]) -> Vec<ArmId> {
    let mut order: Vec<ArmId> = (0..num_arms).collect();
    order.sort_by(|&a, &b| {
        let wa = weights.get(a).copied().unwrap_or(0.0);
        let wb = weights.get(b).copied().unwrap_or(0.0);
        wb.partial_cmp(&wa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// Appends all `k`-subsets of `0..n` to `out`, lexicographically ordered.
fn push_combinations(n: usize, k: usize, out: &mut StrategyBank) {
    if k == 0 || k > n {
        return;
    }
    let mut current: Vec<ArmId> = (0..k).collect();
    loop {
        out.push_row(&current);
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if current[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        current[i] += 1;
        for j in (i + 1)..k {
            current[j] = current[j - 1] + 1;
        }
    }
}

/// Binomial coefficient with saturation (good enough for size hints).
fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: usize = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use netband_graph::generators;

    fn combinations(n: usize, k: usize) -> StrategyBank {
        let mut out = StrategyBank::new();
        push_combinations(n, k, &mut out);
        out
    }

    #[test]
    fn combinations_are_lexicographic_and_complete() {
        assert_eq!(
            combinations(4, 2).to_rows(),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(combinations(3, 3).to_rows(), vec![vec![0, 1, 2]]);
        assert!(combinations(3, 0).is_empty());
        assert!(combinations(2, 3).is_empty());
        assert_eq!(combinations(5, 1).len(), 5);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(4, 5), 0);
        assert_eq!(binomial(100, 2), 4950);
    }

    #[test]
    fn explicit_family_normalises_strategies() {
        let f = StrategyFamily::explicit(vec![vec![2, 0, 2], vec![], vec![1]]);
        if let StrategyFamily::Explicit { strategies } = &f {
            assert_eq!(strategies.to_rows(), vec![vec![0, 2], vec![1]]);
        } else {
            panic!("wrong variant");
        }
        assert_eq!(f.size_hint(), Some(2));
        assert_eq!(f.max_size(), 2);
    }

    #[test]
    fn at_most_m_membership_and_enumeration() {
        let g = generators::edgeless(4);
        let f = StrategyFamily::at_most_m(4, 2);
        assert!(f.contains(&[0], &g));
        assert!(f.contains(&[1, 3], &g));
        assert!(!f.contains(&[0, 1, 2], &g));
        assert!(!f.contains(&[], &g));
        assert!(!f.contains(&[0, 0], &g));
        assert!(!f.contains(&[5], &g));
        let all = f.enumerate(&g).unwrap();
        assert_eq!(all.len(), 4 + 6);
        assert_eq!(f.size_hint(), Some(10));
    }

    #[test]
    fn exactly_m_membership_and_enumeration() {
        let g = generators::edgeless(4);
        let f = StrategyFamily::exactly_m(4, 2);
        assert!(!f.contains(&[0], &g));
        assert!(f.contains(&[1, 3], &g));
        let all = f.enumerate(&g).unwrap();
        assert_eq!(all.len(), 6);
        // Infeasible cardinality yields an empty family.
        let f_big = StrategyFamily::exactly_m(2, 5);
        assert_eq!(f_big.enumerate(&g).unwrap().len(), 0);
    }

    #[test]
    fn independent_sets_family_respects_the_graph() {
        let g = generators::path(4);
        let f = StrategyFamily::independent_sets(2);
        assert!(f.contains(&[0, 2], &g));
        assert!(!f.contains(&[0, 1], &g));
        assert!(!f.contains(&[0, 1, 2], &g));
        let all = f.enumerate(&g).unwrap();
        assert_eq!(all.len(), 7); // matches Fig. 2 of the paper
        assert!(f.size_hint().is_none());
    }

    #[test]
    fn enumeration_respects_limits() {
        let g = generators::edgeless(30);
        let f = StrategyFamily::at_most_m(30, 5);
        assert!(f.enumerate_bounded(&g, 100).is_none());
        assert!(f.enumerate_bounded(&g, 1_000_000).is_some());
        let f2 = StrategyFamily::independent_sets(3);
        assert!(f2.enumerate_bounded(&g, 10).is_none());
    }

    #[test]
    fn argmax_by_arm_weights_matches_brute_force() {
        let g = generators::path(5);
        let weights = vec![0.3, 0.9, 0.1, 0.8, 0.2];
        for family in [
            StrategyFamily::at_most_m(5, 2),
            StrategyFamily::exactly_m(5, 2),
            StrategyFamily::independent_sets(2),
        ] {
            let fast = family.argmax_by_arm_weights(&weights, &g).unwrap();
            let bank = family.enumerate(&g).unwrap();
            let brute = bank
                .iter()
                .max_by(|a, b| {
                    strategy_weight(a, &weights)
                        .partial_cmp(&strategy_weight(b, &weights))
                        .unwrap()
                })
                .unwrap();
            assert!(
                (strategy_weight(&fast, &weights) - strategy_weight(brute, &weights)).abs() < 1e-12,
                "family {family:?}: {fast:?} vs {brute:?}"
            );
        }
    }

    #[test]
    fn at_most_m_argmax_skips_nonpositive_weights_but_keeps_one_arm() {
        let g = generators::edgeless(4);
        let f = StrategyFamily::at_most_m(4, 3);
        let weights = vec![-0.5, -0.1, -0.9, -0.2];
        let best = f.argmax_by_arm_weights(&weights, &g).unwrap();
        assert_eq!(best, vec![1]);
    }

    #[test]
    fn exactly_m_argmax_takes_top_m() {
        let g = generators::edgeless(5);
        let f = StrategyFamily::exactly_m(5, 3);
        let weights = vec![0.1, 0.9, 0.3, 0.8, 0.05];
        assert_eq!(
            f.argmax_by_arm_weights(&weights, &g).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn argmax_by_neighborhood_weights_is_exact_on_small_instances() {
        // Star graph: the hub's neighbourhood covers everything, so the best
        // single-arm strategy by coverage is the hub even if its own weight is 0.
        let g = generators::star(5);
        let f = StrategyFamily::at_most_m(5, 1);
        let weights = vec![0.0, 0.4, 0.4, 0.4, 0.4];
        assert_eq!(
            f.argmax_by_neighborhood_weights(&weights, &g).unwrap(),
            vec![0]
        );
    }

    #[test]
    fn greedy_neighborhood_fallback_is_feasible_and_reasonable() {
        // Too many arms to enumerate with a tiny budget: force the greedy path by
        // shrinking the limit through a wrapper family.
        struct Huge(StrategyFamily);
        impl FeasibleSet for Huge {
            fn max_size(&self) -> usize {
                self.0.max_size()
            }
            fn contains(&self, s: &[ArmId], g: &RelationGraph) -> bool {
                self.0.contains(s, g)
            }
            fn enumerate_bounded(&self, _g: &RelationGraph, _limit: usize) -> Option<StrategyBank> {
                None // pretend the family is too large to enumerate
            }
        }
        let g = generators::star(6);
        let family = Huge(StrategyFamily::at_most_m(6, 2));
        let weights = vec![0.1; 6];
        let chosen = family.argmax_by_neighborhood_weights(&weights, &g).unwrap();
        assert!(!chosen.is_empty() && chosen.len() <= 2);
        assert!(family.contains(&chosen, &g));
        // The hub should be part of any sensible coverage solution.
        assert!(chosen.contains(&0));
    }

    #[test]
    fn empty_instances_return_none() {
        let g = generators::edgeless(0);
        assert!(StrategyFamily::at_most_m(0, 2)
            .argmax_by_arm_weights(&[], &g)
            .is_none());
        assert!(StrategyFamily::independent_sets(2)
            .argmax_by_arm_weights(&[], &g)
            .is_none());
        assert!(StrategyFamily::explicit(StrategyBank::new())
            .argmax_by_neighborhood_weights(&[], &g)
            .is_none());
    }
}
