//! The undirected relation graph over arms.

use std::collections::BTreeSet;
use std::fmt;

use crate::ArmId;

/// Errors produced by graph constructors and mutators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint of an edge was not a valid vertex index.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: ArmId,
        /// Number of vertices of the graph.
        num_vertices: usize,
    },
    /// A self-loop `(v, v)` was supplied; relation graphs are simple graphs.
    SelfLoop {
        /// The vertex that was connected to itself.
        vertex: ArmId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} is out of range for a graph with {num_vertices} vertices"
            ),
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex} is not allowed")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected simple graph over the `K` arms of a networked bandit instance.
///
/// The graph is stored as a vector of sorted neighbour sets, which keeps
/// neighbourhood queries (the hot path of every policy in this workspace) cheap
/// and deterministic.
///
/// Vertices are the arm indices `0..num_vertices()`.
///
/// # Example
///
/// ```
/// use netband_graph::RelationGraph;
///
/// let mut g = RelationGraph::empty(4);
/// g.add_edge(0, 1).unwrap();
/// g.add_edge(1, 2).unwrap();
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert_eq!(g.closed_neighborhood(1), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationGraph {
    /// `adjacency[v]` holds the sorted, deduplicated neighbours of `v`.
    adjacency: Vec<Vec<ArmId>>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl RelationGraph {
    /// Creates a graph with `num_vertices` vertices and no edges.
    pub fn empty(num_vertices: usize) -> Self {
        RelationGraph {
            adjacency: vec![Vec::new(); num_vertices],
            num_edges: 0,
        }
    }

    /// Creates a graph from an edge list, ignoring duplicate edges.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= num_vertices` or is a self-loop.
    /// Use [`RelationGraph::try_from_edges`] for a fallible variant.
    pub fn from_edges(num_vertices: usize, edges: &[(ArmId, ArmId)]) -> Self {
        Self::try_from_edges(num_vertices, edges).expect("invalid edge list")
    }

    /// Fallible variant of [`RelationGraph::from_edges`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`] if the
    /// edge list is invalid.
    pub fn try_from_edges(
        num_vertices: usize,
        edges: &[(ArmId, ArmId)],
    ) -> Result<Self, GraphError> {
        let mut g = Self::empty(num_vertices);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Builds a graph from a symmetric boolean adjacency matrix.
    ///
    /// Only the strict upper triangle is consulted, so the input does not have to
    /// be perfectly symmetric; the diagonal is ignored.
    pub fn from_adjacency_matrix(matrix: &[Vec<bool>]) -> Self {
        let n = matrix.len();
        let mut g = Self::empty(n);
        for (u, row) in matrix.iter().enumerate() {
            for v in (u + 1)..n {
                if row.get(v).copied().unwrap_or(false) {
                    // Vertices are in range by construction.
                    let _ = g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Returns the dense adjacency matrix of the graph.
    pub fn adjacency_matrix(&self) -> Vec<Vec<bool>> {
        let n = self.num_vertices();
        let mut m = vec![vec![false; n]; n];
        for (u, row) in m.iter_mut().enumerate() {
            for &v in self.neighbors(u) {
                row[v] = true;
            }
        }
        m
    }

    /// Number of vertices (arms) `K`.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Edge density `2|E| / (K (K-1))`, defined as 0 for graphs with fewer than
    /// two vertices.
    pub fn density(&self) -> f64 {
        let n = self.num_vertices();
        if n < 2 {
            return 0.0;
        }
        (2 * self.num_edges) as f64 / (n * (n - 1)) as f64
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Adding an existing edge is a no-op.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range or if `u == v`.
    pub fn add_edge(&mut self, u: ArmId, v: ArmId) -> Result<(), GraphError> {
        let n = self.num_vertices();
        for w in [u, v] {
            if w >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: w,
                    num_vertices: n,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if self.has_edge(u, v) {
            return Ok(());
        }
        let pos_u = self.adjacency[u].binary_search(&v).unwrap_err();
        self.adjacency[u].insert(pos_u, v);
        let pos_v = self.adjacency[v].binary_search(&u).unwrap_err();
        self.adjacency[v].insert(pos_v, u);
        self.num_edges += 1;
        Ok(())
    }

    /// Removes the undirected edge `(u, v)` if present; returns whether an edge
    /// was removed.
    pub fn remove_edge(&mut self, u: ArmId, v: ArmId) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        if let Ok(pos) = self.adjacency[u].binary_search(&v) {
            self.adjacency[u].remove(pos);
            let pos_v = self.adjacency[v]
                .binary_search(&u)
                .expect("adjacency must be symmetric");
            self.adjacency[v].remove(pos_v);
            self.num_edges -= 1;
            true
        } else {
            false
        }
    }

    /// Returns `true` if `(u, v)` is an edge of the graph.
    pub fn has_edge(&self, u: ArmId, v: ArmId) -> bool {
        self.adjacency
            .get(u)
            .map(|ns| ns.binary_search(&v).is_ok())
            .unwrap_or(false)
    }

    /// The open neighbourhood `N(v)` (sorted, excludes `v` itself).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: ArmId) -> &[ArmId] {
        &self.adjacency[v]
    }

    /// The closed neighbourhood `N_v = {v} ∪ N(v)` (sorted).
    ///
    /// This is the set of arms observed (SSO/CSO) or collected (SSR/CSR) when the
    /// decision maker pulls `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn closed_neighborhood(&self, v: ArmId) -> Vec<ArmId> {
        let mut out = Vec::with_capacity(self.adjacency[v].len() + 1);
        let mut inserted = false;
        for &u in &self.adjacency[v] {
            if !inserted && u > v {
                out.push(v);
                inserted = true;
            }
            out.push(u);
        }
        if !inserted {
            out.push(v);
        }
        out
    }

    /// Closed neighbourhood of a set of vertices: `Y_S = ∪_{v ∈ S} N_v` (sorted).
    ///
    /// For a combinatorial strategy `s_x` this is the paper's `Y_x`, the set of
    /// arms observed (CSO) or whose rewards are collected (CSR).
    pub fn closed_neighborhood_of_set(&self, set: &[ArmId]) -> Vec<ArmId> {
        let mut out: BTreeSet<ArmId> = BTreeSet::new();
        for &v in set {
            out.insert(v);
            out.extend(self.adjacency[v].iter().copied());
        }
        out.into_iter().collect()
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: ArmId) -> usize {
        self.adjacency[v].len()
    }

    /// Maximum degree of the graph (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Maximum closed-neighbourhood size `max_v |N_v|`; the paper's `N` bound for
    /// single strategies of size 1 (Theorem 4 uses `N = max_x |Y_x|`).
    pub fn max_closed_neighborhood(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.max_degree() + 1
        }
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`, in lexicographic
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (ArmId, ArmId)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().filter(move |&&v| v > u).map(move |&v| (u, v)))
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = ArmId> {
        0..self.num_vertices()
    }

    /// Returns the vertex-induced subgraph on `keep` together with the mapping
    /// from new vertex indices to original indices.
    ///
    /// Duplicate entries in `keep` are ignored; out-of-range entries are skipped.
    /// The returned mapping is sorted by original index.
    ///
    /// This is the graph-partition operation used in the proof of Theorem 1: arms
    /// whose gap `Δ_i` falls below the threshold `δ_0` are removed, and the regret
    /// analysis proceeds on the induced subgraph `H` via a clique cover.
    pub fn induced_subgraph(&self, keep: &[ArmId]) -> (RelationGraph, Vec<ArmId>) {
        let selected: BTreeSet<ArmId> = keep
            .iter()
            .copied()
            .filter(|&v| v < self.num_vertices())
            .collect();
        let mapping: Vec<ArmId> = selected.iter().copied().collect();
        let reverse: std::collections::HashMap<ArmId, usize> = mapping
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let mut g = RelationGraph::empty(mapping.len());
        for (new_u, &old_u) in mapping.iter().enumerate() {
            for &old_v in self.neighbors(old_u) {
                if old_v > old_u {
                    if let Some(&new_v) = reverse.get(&old_v) {
                        g.add_edge(new_u, new_v)
                            .expect("induced subgraph edges are always valid");
                    }
                }
            }
        }
        (g, mapping)
    }

    /// Freezes the graph into its flat runtime representation
    /// ([`crate::CsrGraph`]): packed neighbour arrays plus precomputed degree
    /// and clique-cover tables. The snapshot is immutable; later mutations of
    /// `self` are not reflected in it.
    pub fn to_csr(&self) -> crate::CsrGraph {
        crate::CsrGraph::from_graph(self)
    }

    /// Returns the complement graph (same vertices, edge iff not an edge here).
    pub fn complement(&self) -> RelationGraph {
        let n = self.num_vertices();
        let mut g = RelationGraph::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v).expect("complement edges are valid");
                }
            }
        }
        g
    }

    /// Returns `true` if every pair of distinct vertices in `set` is adjacent.
    ///
    /// The empty set and singletons are cliques.
    pub fn is_clique(&self, set: &[ArmId]) -> bool {
        for (idx, &u) in set.iter().enumerate() {
            for &v in &set[idx + 1..] {
                if u == v {
                    continue;
                }
                if !self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if no pair of distinct vertices in `set` is adjacent.
    pub fn is_independent_set(&self, set: &[ArmId]) -> bool {
        for (idx, &u) in set.iter().enumerate() {
            for &v in &set[idx + 1..] {
                if u != v && self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Connected components, each sorted, ordered by smallest contained vertex.
    pub fn connected_components(&self) -> Vec<Vec<ArmId>> {
        let n = self.num_vertices();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut stack = vec![start];
            let mut comp = Vec::new();
            seen[start] = true;
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &u in self.neighbors(v) {
                    if !seen[u] {
                        seen[u] = true;
                        stack.push(u);
                    }
                }
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }

    /// Returns `true` if the graph is connected (the empty graph counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }
}

impl fmt::Display for RelationGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RelationGraph(K={}, |E|={}, density={:.3})",
            self.num_vertices(),
            self.num_edges(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_edge() -> RelationGraph {
        RelationGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)])
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = RelationGraph::empty(10);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g.closed_neighborhood(3), vec![3]);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = RelationGraph::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.max_closed_neighborhood(), 0);
        assert!(g.is_connected());
        assert_eq!(g.connected_components().len(), 0);
    }

    #[test]
    fn add_edge_is_symmetric_and_idempotent() {
        let mut g = RelationGraph::empty(3);
        g.add_edge(0, 2).unwrap();
        g.add_edge(2, 0).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn add_edge_rejects_self_loop_and_out_of_range() {
        let mut g = RelationGraph::empty(3);
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { vertex: 1 }));
        assert_eq!(
            g.add_edge(0, 3),
            Err(GraphError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            })
        );
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = triangle_plus_edge();
        assert!(g.remove_edge(0, 1));
        assert!(!g.has_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn closed_neighborhood_is_sorted_and_contains_self() {
        let g = triangle_plus_edge();
        assert_eq!(g.closed_neighborhood(0), vec![0, 1, 2]);
        assert_eq!(g.closed_neighborhood(3), vec![3, 4]);
        assert_eq!(g.closed_neighborhood(4), vec![3, 4]);
    }

    #[test]
    fn closed_neighborhood_of_set_unions_neighborhoods() {
        let g = triangle_plus_edge();
        assert_eq!(g.closed_neighborhood_of_set(&[0, 3]), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.closed_neighborhood_of_set(&[]), Vec::<usize>::new());
        // Duplicates in the input are harmless.
        assert_eq!(g.closed_neighborhood_of_set(&[0, 0]), vec![0, 1, 2]);
    }

    #[test]
    fn degrees_and_density() {
        let g = triangle_plus_edge();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.max_closed_neighborhood(), 3);
        let expected = 2.0 * 4.0 / (5.0 * 4.0);
        assert!((g.density() - expected).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle_plus_edge();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (3, 4)]);
    }

    #[test]
    fn adjacency_matrix_roundtrip() {
        let g = triangle_plus_edge();
        let m = g.adjacency_matrix();
        let g2 = RelationGraph::from_adjacency_matrix(&m);
        assert_eq!(g, g2);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle_plus_edge();
        let (h, mapping) = g.induced_subgraph(&[0, 2, 4]);
        assert_eq!(mapping, vec![0, 2, 4]);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 1);
        assert!(h.has_edge(0, 1)); // original edge (0,2)
        assert!(!h.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_ignores_out_of_range_and_duplicates() {
        let g = triangle_plus_edge();
        let (h, mapping) = g.induced_subgraph(&[1, 1, 99]);
        assert_eq!(mapping, vec![1]);
        assert_eq!(h.num_vertices(), 1);
        assert_eq!(h.num_edges(), 0);
    }

    #[test]
    fn complement_has_complementary_edges() {
        let g = triangle_plus_edge();
        let c = g.complement();
        let n = g.num_vertices();
        for u in 0..n {
            for v in (u + 1)..n {
                assert_ne!(g.has_edge(u, v), c.has_edge(u, v));
            }
        }
        assert_eq!(g.num_edges() + c.num_edges(), n * (n - 1) / 2);
    }

    #[test]
    fn clique_and_independent_set_checks() {
        let g = triangle_plus_edge();
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(!g.is_clique(&[0, 1, 3]));
        assert!(g.is_clique(&[]));
        assert!(g.is_clique(&[4]));
        assert!(g.is_independent_set(&[0, 3]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(g.is_independent_set(&[]));
    }

    #[test]
    fn connected_components_are_found() {
        let g = triangle_plus_edge();
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4]]);
        assert!(!g.is_connected());
    }

    #[test]
    fn display_is_informative() {
        let g = triangle_plus_edge();
        let s = format!("{g}");
        assert!(s.contains("K=5"));
        assert!(s.contains("|E|=4"));
    }
}
