//! The strategy relation graph `SG(F, L)` of Section IV.
//!
//! To run single-play machinery (DFL-SSO) over combinatorial strategies, the
//! paper builds a graph over the feasible set `F`: each strategy `s_x` becomes a
//! vertex ("com-arm"), and two strategies `s_x`, `s_y` are linked when playing one
//! reveals the reward of the other, i.e. when the component arms of `s_y` are
//! contained in `Y_x = ∪_{i ∈ s_x} N_i` *and* vice versa (observation must be
//! mutual for the symmetric update of Algorithm 2 to be justified).

use crate::bank::StrategyBank;
use crate::graph::RelationGraph;
use crate::ArmId;

/// Index of a combinatorial strategy ("com-arm") within a feasible set `F`.
pub type StrategyId = usize;

/// The strategy relation graph built from an arm relation graph and a feasible
/// strategy set.
///
/// # Example (Fig. 2 of the paper)
///
/// ```
/// use netband_graph::{RelationGraph, StrategyRelationGraph};
///
/// // Arms 1..4 of the paper are 0..3 here; the relation graph is the path
/// // 0-1-2-3, and F is the set of independent sets of size ≤ 2.
/// let g = RelationGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let strategies = vec![
///     vec![0], vec![1], vec![2], vec![3],
///     vec![0, 2], vec![0, 3], vec![1, 3],
/// ];
/// let sg = StrategyRelationGraph::build(&g, strategies);
/// // s2 = {1} and s5 = {0, 2} observe each other, so they are neighbours.
/// assert!(sg.graph().has_edge(1, 4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRelationGraph {
    /// The feasible strategies (flat rows, each a sorted set of arm ids).
    strategies: StrategyBank,
    /// `Y_x` for every strategy: the closed neighbourhood of its component arms
    /// (flat rows aligned with `strategies`).
    observation_sets: StrategyBank,
    /// The relation graph over com-arms.
    graph: RelationGraph,
}

impl StrategyRelationGraph {
    /// Builds the strategy relation graph for `strategies` over the arm relation
    /// graph `arm_graph`. Accepts either a flat [`StrategyBank`] or the nested
    /// `Vec<Vec<ArmId>>` layout (converted via `Into`).
    ///
    /// Strategies are normalised (sorted, deduplicated). Arms outside the graph
    /// are dropped from the strategies.
    ///
    /// The construction is `O(|F|² · M)` after precomputing the `Y_x` sets, which
    /// matches the explicit-enumeration regime in which Algorithm 2 operates.
    pub fn build(arm_graph: &RelationGraph, strategies: impl Into<StrategyBank>) -> Self {
        // Empty rows survive normalisation: com-arm ids must stay aligned
        // with the caller's enumeration.
        let strategies = strategies
            .into()
            .into_normalized(false, |v| v < arm_graph.num_vertices());
        let mut observation_sets =
            StrategyBank::with_capacity(strategies.len(), strategies.arms().len());
        for row in strategies.iter() {
            observation_sets.push_row(&arm_graph.closed_neighborhood_of_set(row));
        }
        let mut graph = RelationGraph::empty(strategies.len());
        for x in 0..strategies.len() {
            for y in (x + 1)..strategies.len() {
                let x_in_y = is_subset(strategies.row(x), observation_sets.row(y));
                let y_in_x = is_subset(strategies.row(y), observation_sets.row(x));
                if x_in_y && y_in_x {
                    graph
                        .add_edge(x, y)
                        .expect("strategy graph edges are valid");
                }
            }
        }
        StrategyRelationGraph {
            strategies,
            observation_sets,
            graph,
        }
    }

    /// Number of com-arms `|F|`.
    pub fn num_strategies(&self) -> usize {
        self.strategies.len()
    }

    /// The normalised feasible strategies as flat bank rows.
    pub fn strategies(&self) -> &StrategyBank {
        &self.strategies
    }

    /// The observation sets `Y_x` as flat bank rows aligned with
    /// [`StrategyRelationGraph::strategies`].
    pub fn observation_sets(&self) -> &StrategyBank {
        &self.observation_sets
    }

    /// The component arms of strategy `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn strategy(&self, x: StrategyId) -> &[ArmId] {
        self.strategies.row(x)
    }

    /// The observation set `Y_x` (closed neighbourhood of the component arms).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn observation_set(&self, x: StrategyId) -> &[ArmId] {
        self.observation_sets.row(x)
    }

    /// Maximum observation-set size `N = max_x |Y_x|` (Theorem 4's `N`).
    pub fn max_observation_set(&self) -> usize {
        self.observation_sets.max_row_len()
    }

    /// The relation graph over com-arms (vertex `x` is strategy `x`).
    pub fn graph(&self) -> &RelationGraph {
        &self.graph
    }

    /// Neighbouring com-arms of strategy `x` in `SG` — the strategies whose
    /// reward becomes observable when `x` is played.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn neighbors(&self, x: StrategyId) -> &[StrategyId] {
        self.graph.neighbors(x)
    }

    /// Strategies whose component arms are all contained in `observed` — i.e. the
    /// com-arms whose reward at this time slot can be reconstructed from a set of
    /// observed arms.
    pub fn strategies_observable_from(&self, observed: &[ArmId]) -> Vec<StrategyId> {
        (0..self.strategies.len())
            .filter(|&x| is_subset(self.strategies.row(x), observed))
            .collect()
    }
}

/// Returns `true` if every element of `a` (sorted) appears in `b` (sorted).
fn is_subset(a: &[ArmId], b: &[ArmId]) -> bool {
    let mut it = b.iter();
    'outer: for &x in a {
        for &y in it.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::independent::independent_sets_up_to;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig2() -> (RelationGraph, StrategyRelationGraph) {
        let g = RelationGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let strategies = vec![
            vec![0],
            vec![1],
            vec![2],
            vec![3],
            vec![0, 2],
            vec![0, 3],
            vec![1, 3],
        ];
        let sg = StrategyRelationGraph::build(&g, strategies);
        (g, sg)
    }

    #[test]
    fn is_subset_behaviour() {
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[1], &[0, 1, 2]));
        assert!(is_subset(&[0, 2], &[0, 1, 2, 3]));
        assert!(!is_subset(&[4], &[0, 1, 2, 3]));
        assert!(!is_subset(&[0, 2], &[0, 1]));
    }

    #[test]
    fn fig2_observation_sets_match_paper() {
        let (_, sg) = fig2();
        // Paper (1-indexed): N1={1,2}, N2={1,2,3}, N3={2,3,4}, N4={3,4}.
        assert_eq!(sg.observation_set(0), &[0, 1]);
        assert_eq!(sg.observation_set(1), &[0, 1, 2]);
        assert_eq!(sg.observation_set(2), &[1, 2, 3]);
        assert_eq!(sg.observation_set(3), &[2, 3]);
        assert_eq!(sg.observation_set(4), &[0, 1, 2, 3]);
        assert_eq!(sg.observation_set(5), &[0, 1, 2, 3]);
        assert_eq!(sg.observation_set(6), &[0, 1, 2, 3]);
        assert_eq!(sg.max_observation_set(), 4);
    }

    #[test]
    fn fig2_s2_and_s5_are_neighbours() {
        // The paper's worked example: s2={2} and s5={1,3} (1-indexed) observe
        // each other. 0-indexed these are strategies 1 and 4.
        let (_, sg) = fig2();
        assert!(sg.graph().has_edge(1, 4));
    }

    #[test]
    fn strategy_graph_edges_are_mutual_observations() {
        let (_, sg) = fig2();
        for x in 0..sg.num_strategies() {
            for y in 0..sg.num_strategies() {
                if x == y {
                    continue;
                }
                let mutual = is_subset(sg.strategy(x), sg.observation_set(y))
                    && is_subset(sg.strategy(y), sg.observation_set(x));
                assert_eq!(
                    sg.graph().has_edge(x, y),
                    mutual,
                    "edge ({x},{y}) disagrees with mutual observation"
                );
            }
        }
    }

    #[test]
    fn strategies_observable_from_observed_arms() {
        let (_, sg) = fig2();
        // Observing arms {0,1,2} reveals strategies {0},{1},{2},{0,2}.
        assert_eq!(sg.strategies_observable_from(&[0, 1, 2]), vec![0, 1, 2, 4]);
        // Observing everything reveals every strategy.
        assert_eq!(
            sg.strategies_observable_from(&[0, 1, 2, 3]).len(),
            sg.num_strategies()
        );
        // Observing nothing reveals nothing (no empty strategies in F here).
        assert!(sg.strategies_observable_from(&[]).is_empty());
    }

    #[test]
    fn build_normalises_and_filters_strategies() {
        let g = generators::path(3);
        let sg = StrategyRelationGraph::build(&g, vec![vec![2, 0, 2, 99], vec![1, 1]]);
        assert_eq!(sg.strategy(0), &[0, 2]);
        assert_eq!(sg.strategy(1), &[1]);
    }

    #[test]
    fn empty_feasible_set_is_allowed() {
        let g = generators::path(3);
        let sg = StrategyRelationGraph::build(&g, vec![]);
        assert_eq!(sg.num_strategies(), 0);
        assert_eq!(sg.max_observation_set(), 0);
        assert!(sg.strategies_observable_from(&[0, 1, 2]).is_empty());
    }

    #[test]
    fn dense_arm_graph_yields_dense_strategy_graph() {
        // On a complete arm graph every strategy observes every arm, so SG is
        // complete as well.
        let g = generators::complete(5);
        let strategies = independent_sets_up_to(&g, 1, None);
        let sg = StrategyRelationGraph::build(&g, strategies);
        assert_eq!(sg.num_strategies(), 5);
        assert_eq!(sg.graph().num_edges(), 5 * 4 / 2);
    }

    #[test]
    fn edgeless_arm_graph_yields_subset_relations_only() {
        // Without side observation, two distinct singleton strategies never
        // observe each other, so SG has no edges.
        let g = generators::edgeless(5);
        let strategies = independent_sets_up_to(&g, 1, None);
        let sg = StrategyRelationGraph::build(&g, strategies);
        assert_eq!(sg.graph().num_edges(), 0);
    }

    #[test]
    fn random_strategy_graphs_are_consistent() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::erdos_renyi(8, 0.4, &mut rng);
        let strategies = independent_sets_up_to(&g, 2, None);
        let sg = StrategyRelationGraph::build(&g, strategies.clone());
        assert_eq!(sg.num_strategies(), strategies.len());
        for x in 0..sg.num_strategies() {
            // Y_x always contains the component arms themselves.
            assert!(is_subset(sg.strategy(x), sg.observation_set(x)));
        }
    }
}
