//! Clique covers and maximal-clique enumeration.
//!
//! The regret bounds of Theorems 1 and 2 depend on `C`, the size of a clique
//! cover of the vertex-induced subgraph `H` of arms whose gap exceeds the
//! threshold `δ_0`. Computing a minimum clique cover is NP-hard, so — like the
//! paper's analysis, which only needs *some* cover — we provide a deterministic
//! greedy cover plus an exact Bron–Kerbosch maximal-clique enumerator for small
//! graphs and for validating the greedy result in tests.

use std::collections::BTreeSet;

use crate::graph::RelationGraph;
use crate::ArmId;

/// A clique cover: a list of vertex-disjoint cliques whose union is the vertex
/// set of the graph it was computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliqueCover {
    cliques: Vec<Vec<ArmId>>,
}

impl CliqueCover {
    /// Creates a cover from raw cliques. No validation is performed; use
    /// [`CliqueCover::is_valid_for`] to check.
    pub fn new(cliques: Vec<Vec<ArmId>>) -> Self {
        CliqueCover { cliques }
    }

    /// The cliques of the cover, each sorted.
    pub fn cliques(&self) -> &[Vec<ArmId>] {
        &self.cliques
    }

    /// Number of cliques — the quantity `C` in Theorems 1 and 2.
    pub fn len(&self) -> usize {
        self.cliques.len()
    }

    /// Returns `true` if the cover contains no cliques.
    pub fn is_empty(&self) -> bool {
        self.cliques.is_empty()
    }

    /// Checks that the cover is valid for `graph`: every part is a clique, the
    /// parts are pairwise disjoint, and every vertex of `graph` is covered.
    pub fn is_valid_for(&self, graph: &RelationGraph) -> bool {
        let mut seen: BTreeSet<ArmId> = BTreeSet::new();
        for clique in &self.cliques {
            if !graph.is_clique(clique) {
                return false;
            }
            for &v in clique {
                if v >= graph.num_vertices() || !seen.insert(v) {
                    return false;
                }
            }
        }
        seen.len() == graph.num_vertices()
    }

    /// Size of the largest clique in the cover (0 if empty).
    pub fn max_clique_size(&self) -> usize {
        self.cliques.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Greedy clique cover.
///
/// Vertices are visited in descending degree order; each unassigned vertex seeds
/// a new clique which is grown greedily by adding unassigned vertices adjacent to
/// every current member. The result is deterministic for a given graph.
///
/// The size of the returned cover upper-bounds the clique cover number
/// `θ(G)` = chromatic number of the complement; Theorems 1 and 2 hold for any
/// valid cover, so a greedy cover is sufficient both for the algorithmic use and
/// for evaluating the bound numerically.
pub fn greedy_clique_cover(graph: &RelationGraph) -> CliqueCover {
    let n = graph.num_vertices();
    let mut order: Vec<ArmId> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse((graph.degree(v), std::cmp::Reverse(v))));
    let mut assigned = vec![false; n];
    let mut cliques: Vec<Vec<ArmId>> = Vec::new();
    for &seed in &order {
        if assigned[seed] {
            continue;
        }
        let mut clique = vec![seed];
        assigned[seed] = true;
        // Candidates: unassigned neighbours of the seed, visited in seed-adjacency
        // order (sorted), kept only if adjacent to every clique member so far.
        for &cand in graph.neighbors(seed) {
            if assigned[cand] {
                continue;
            }
            if clique.iter().all(|&m| graph.has_edge(m, cand)) {
                clique.push(cand);
                assigned[cand] = true;
            }
        }
        clique.sort_unstable();
        cliques.push(clique);
    }
    // Deterministic output order: by smallest vertex.
    cliques.sort_by_key(|c| c.first().copied().unwrap_or(usize::MAX));
    CliqueCover::new(cliques)
}

/// All maximal cliques of the graph (Bron–Kerbosch with pivoting).
///
/// Intended for small graphs (tests, strategy graphs over modest `|F|`); the
/// number of maximal cliques can be exponential in general. Enumeration stops
/// after `limit` cliques if a limit is given.
pub fn maximal_cliques(graph: &RelationGraph, limit: Option<usize>) -> Vec<Vec<ArmId>> {
    let n = graph.num_vertices();
    let mut result: Vec<Vec<ArmId>> = Vec::new();
    let mut r: Vec<ArmId> = Vec::new();
    let p: BTreeSet<ArmId> = (0..n).collect();
    let x: BTreeSet<ArmId> = BTreeSet::new();
    bron_kerbosch(graph, &mut r, p, x, &mut result, limit);
    for clique in &mut result {
        clique.sort_unstable();
    }
    result.sort();
    result
}

fn bron_kerbosch(
    graph: &RelationGraph,
    r: &mut Vec<ArmId>,
    p: BTreeSet<ArmId>,
    x: BTreeSet<ArmId>,
    out: &mut Vec<Vec<ArmId>>,
    limit: Option<usize>,
) {
    if let Some(lim) = limit {
        if out.len() >= lim {
            return;
        }
    }
    if p.is_empty() && x.is_empty() {
        out.push(r.clone());
        return;
    }
    // Pivot: vertex of P ∪ X with the most neighbours in P.
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| graph.neighbors(u).iter().filter(|v| p.contains(v)).count());
    let candidates: Vec<ArmId> = match pivot {
        Some(u) => p
            .iter()
            .copied()
            .filter(|v| !graph.has_edge(u, *v))
            .collect(),
        None => p.iter().copied().collect(),
    };
    let mut p = p;
    let mut x = x;
    for v in candidates {
        let neighbors: BTreeSet<ArmId> = graph.neighbors(v).iter().copied().collect();
        r.push(v);
        let p_next: BTreeSet<ArmId> = p.intersection(&neighbors).copied().collect();
        let x_next: BTreeSet<ArmId> = x.intersection(&neighbors).copied().collect();
        bron_kerbosch(graph, r, p_next, x_next, out, limit);
        r.pop();
        p.remove(&v);
        x.insert(v);
        if let Some(lim) = limit {
            if out.len() >= lim {
                return;
            }
        }
    }
}

/// A large clique found greedily (not necessarily maximum).
///
/// Seeds at the highest-degree vertex and grows like one round of
/// [`greedy_clique_cover`].
pub fn greedy_max_clique(graph: &RelationGraph) -> Vec<ArmId> {
    greedy_clique_cover(graph)
        .cliques()
        .iter()
        .max_by_key(|c| c.len())
        .cloned()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cover_of_empty_graph_is_empty() {
        let g = RelationGraph::empty(0);
        let cover = greedy_clique_cover(&g);
        assert!(cover.is_empty());
        assert!(cover.is_valid_for(&g));
        assert_eq!(cover.max_clique_size(), 0);
    }

    #[test]
    fn cover_of_edgeless_graph_is_singletons() {
        let g = generators::edgeless(7);
        let cover = greedy_clique_cover(&g);
        assert_eq!(cover.len(), 7);
        assert!(cover.is_valid_for(&g));
        assert_eq!(cover.max_clique_size(), 1);
    }

    #[test]
    fn cover_of_complete_graph_is_one_clique() {
        let g = generators::complete(9);
        let cover = greedy_clique_cover(&g);
        assert_eq!(cover.len(), 1);
        assert!(cover.is_valid_for(&g));
        assert_eq!(cover.max_clique_size(), 9);
    }

    #[test]
    fn cover_of_disjoint_cliques_is_exact() {
        let g = generators::disjoint_cliques(4, 5);
        let cover = greedy_clique_cover(&g);
        assert_eq!(cover.len(), 4);
        assert!(cover.is_valid_for(&g));
    }

    #[test]
    fn cover_of_star_is_about_half() {
        // A star's edges are disjoint cliques of size 2 plus leftover leaves; the
        // cover number of K_{1,n-1} is n-1 but greedy pairs the hub with one leaf.
        let g = generators::star(6);
        let cover = greedy_clique_cover(&g);
        assert!(cover.is_valid_for(&g));
        assert_eq!(cover.len(), 5);
    }

    #[test]
    fn greedy_cover_is_valid_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(17);
        for &p in &[0.1, 0.3, 0.6, 0.9] {
            let g = generators::erdos_renyi(40, p, &mut rng);
            let cover = greedy_clique_cover(&g);
            assert!(cover.is_valid_for(&g), "invalid cover for p={p}");
            assert!(cover.len() <= 40);
        }
    }

    #[test]
    fn denser_graphs_need_fewer_cliques() {
        let mut rng = StdRng::seed_from_u64(23);
        let sparse = generators::erdos_renyi(60, 0.1, &mut rng);
        let dense = generators::erdos_renyi(60, 0.8, &mut rng);
        let c_sparse = greedy_clique_cover(&sparse).len();
        let c_dense = greedy_clique_cover(&dense).len();
        assert!(
            c_dense < c_sparse,
            "dense cover {c_dense} should be smaller than sparse cover {c_sparse}"
        );
    }

    #[test]
    fn invalid_covers_are_rejected() {
        let g = generators::path(4); // edges 0-1, 1-2, 2-3
                                     // Not a clique.
        let bad = CliqueCover::new(vec![vec![0, 2], vec![1], vec![3]]);
        assert!(!bad.is_valid_for(&g));
        // Missing vertex.
        let missing = CliqueCover::new(vec![vec![0, 1], vec![2]]);
        assert!(!missing.is_valid_for(&g));
        // Overlapping cliques.
        let overlap = CliqueCover::new(vec![vec![0, 1], vec![1, 2], vec![3]]);
        assert!(!overlap.is_valid_for(&g));
        // Out-of-range vertex.
        let oob = CliqueCover::new(vec![vec![0, 1], vec![2, 3], vec![9]]);
        assert!(!oob.is_valid_for(&g));
        // A valid one for contrast.
        let good = CliqueCover::new(vec![vec![0, 1], vec![2, 3]]);
        assert!(good.is_valid_for(&g));
    }

    #[test]
    fn bron_kerbosch_finds_all_maximal_cliques_of_small_graphs() {
        // Triangle plus pendant: maximal cliques {0,1,2} and {2,3}.
        let g = RelationGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let cliques = maximal_cliques(&g, None);
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![2, 3]]);
    }

    #[test]
    fn bron_kerbosch_on_edgeless_graph_lists_singletons() {
        let g = generators::edgeless(4);
        let cliques = maximal_cliques(&g, None);
        assert_eq!(cliques, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn bron_kerbosch_respects_limit() {
        let g = generators::complete(10);
        let cliques = maximal_cliques(&g, Some(1));
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].len(), 10);
    }

    #[test]
    fn greedy_max_clique_finds_the_planted_clique() {
        let g = generators::disjoint_cliques(3, 6);
        let clique = greedy_max_clique(&g);
        assert_eq!(clique.len(), 6);
        assert!(g.is_clique(&clique));
    }

    #[test]
    fn greedy_cover_size_upper_bounds_via_maximal_cliques() {
        // On small random graphs the greedy cover can never use fewer cliques than
        // vertices divided by the maximum clique size.
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::erdos_renyi(18, 0.5, &mut rng);
        let cover = greedy_clique_cover(&g);
        let max_clique = maximal_cliques(&g, None)
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(1);
        let lower = g.num_vertices().div_ceil(max_clique);
        assert!(cover.len() >= lower);
    }
}
