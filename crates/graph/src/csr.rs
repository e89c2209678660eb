//! Flat compressed-sparse-row (CSR) runtime representation of a relation graph.
//!
//! [`RelationGraph`] stores one `Vec` per vertex, which is convenient to build
//! and mutate but scatters neighbourhoods across the heap. The per-round work
//! of every policy in this workspace — scanning closed neighbourhoods, summing
//! estimates over them, building observation sets — is pure index arithmetic
//! over a *fixed* arm set, so the simulation hot path runs on [`CsrGraph`]: a
//! frozen snapshot with all neighbourhoods packed into contiguous arrays that
//! are read sequentially from cache.
//!
//! A [`CsrGraph`] is created once per instance (see
//! [`RelationGraph::to_csr`]) and is immutable afterwards; mutation stays on
//! [`RelationGraph`], which remains the construction-time representation.

use crate::clique::greedy_clique_cover;
use crate::graph::RelationGraph;
use crate::ArmId;

/// Immutable flat (CSR) snapshot of a [`RelationGraph`], plus the derived
/// tables the learning policies consult every round.
///
/// # Layout invariants
///
/// For a graph over `K` vertices:
///
/// * `offsets` has length `K + 1`, is non-decreasing, `offsets[0] == 0`, and
///   `offsets[K] == neighbors.len()`. The open neighbourhood of vertex `v` is
///   the slice `neighbors[offsets[v]..offsets[v + 1]]`, sorted strictly
///   increasing (no duplicates, no self-loop).
/// * `closed_offsets` / `closed_neighbors` follow the same scheme for the
///   *closed* neighbourhood `N_v = {v} ∪ N(v)`; each row is sorted strictly
///   increasing and contains `v` itself, so its length is `degree(v) + 1`.
/// * `degrees[v] == offsets[v + 1] - offsets[v]` (cached so degree queries do
///   not touch the offset array).
/// * The clique tables describe the deterministic greedy clique cover of the
///   graph (see [`greedy_clique_cover`]): `clique_offsets` /
///   `clique_members` pack the cover's cliques in cover order, and
///   `clique_of[v]` is the index of the (unique) clique containing `v`. The
///   cliques partition the vertex set, so `clique_members` is a permutation
///   of `0..K`.
///
/// Neighbourhood accessors return borrowed slices into these arrays; the hot
/// path never allocates.
///
/// # Example
///
/// ```
/// use netband_graph::RelationGraph;
///
/// let g = RelationGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
/// let csr = g.to_csr();
/// assert_eq!(csr.neighbors(1), &[0, 2]);
/// assert_eq!(csr.closed_neighborhood(1), &[0, 1, 2]);
/// assert_eq!(csr.degree(1), 2);
/// // The triangle {0,1,2} and the edge {3,4} form a two-clique cover.
/// assert_eq!(csr.num_cliques(), 2);
/// assert_eq!(csr.clique(csr.clique_of(4)), csr.clique(csr.clique_of(3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    num_edges: usize,
    offsets: Vec<usize>,
    neighbors: Vec<ArmId>,
    closed_offsets: Vec<usize>,
    closed_neighbors: Vec<ArmId>,
    degrees: Vec<u32>,
    clique_of: Vec<u32>,
    clique_offsets: Vec<usize>,
    clique_members: Vec<ArmId>,
}

impl CsrGraph {
    /// Freezes a [`RelationGraph`] into its flat runtime representation.
    pub fn from_graph(graph: &RelationGraph) -> Self {
        let k = graph.num_vertices();
        let mut offsets = Vec::with_capacity(k + 1);
        let mut neighbors = Vec::with_capacity(2 * graph.num_edges());
        let mut closed_offsets = Vec::with_capacity(k + 1);
        let mut closed_neighbors = Vec::with_capacity(2 * graph.num_edges() + k);
        let mut degrees = Vec::with_capacity(k);
        offsets.push(0);
        closed_offsets.push(0);
        for v in 0..k {
            let row = graph.neighbors(v);
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len());
            degrees.push(row.len() as u32);
            // Closed row: merge v into its (sorted) open row.
            let split = row.partition_point(|&u| u < v);
            closed_neighbors.extend_from_slice(&row[..split]);
            closed_neighbors.push(v);
            closed_neighbors.extend_from_slice(&row[split..]);
            closed_offsets.push(closed_neighbors.len());
        }
        let cover = greedy_clique_cover(graph);
        let mut clique_of = vec![0u32; k];
        let mut clique_offsets = Vec::with_capacity(cover.len() + 1);
        let mut clique_members = Vec::with_capacity(k);
        clique_offsets.push(0);
        for (c, clique) in cover.cliques().iter().enumerate() {
            for &v in clique {
                clique_of[v] = c as u32;
            }
            clique_members.extend_from_slice(clique);
            clique_offsets.push(clique_members.len());
        }
        CsrGraph {
            num_edges: graph.num_edges(),
            offsets,
            neighbors,
            closed_offsets,
            closed_neighbors,
            degrees,
            clique_of,
            clique_offsets,
            clique_members,
        }
    }

    /// Number of vertices (arms) `K`.
    pub fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: ArmId) -> usize {
        self.degrees[v] as usize
    }

    /// Maximum degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees.iter().copied().max().unwrap_or(0) as usize
    }

    /// Maximum closed-neighbourhood size `max_v |N_v|`.
    pub fn max_closed_neighborhood(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.max_degree() + 1
        }
    }

    /// The open neighbourhood `N(v)` as a borrowed slice (sorted, excludes
    /// `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: ArmId) -> &[ArmId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The closed neighbourhood `N_v = {v} ∪ N(v)` as a borrowed slice
    /// (sorted, includes `v`) — no allocation, unlike
    /// [`RelationGraph::closed_neighborhood`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn closed_neighborhood(&self, v: ArmId) -> &[ArmId] {
        &self.closed_neighbors[self.closed_offsets[v]..self.closed_offsets[v + 1]]
    }

    /// Returns `true` if `(u, v)` is an edge (binary search on `u`'s row;
    /// out-of-range vertices are simply not adjacent).
    pub fn has_edge(&self, u: ArmId, v: ArmId) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Writes the closed neighbourhood of a *set* of vertices,
    /// `Y_S = ∪_{v ∈ S} N_v`, into `out` (sorted, deduplicated), reusing
    /// `mark` as the visited table. Equivalent to
    /// [`RelationGraph::closed_neighborhood_of_set`] without the per-call
    /// `BTreeSet`.
    ///
    /// `mark` is resized to `K` on demand and is all-`false` again on return,
    /// so one buffer can be reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `set` contains an out-of-range vertex.
    pub fn closed_neighborhood_of_set_into(
        &self,
        set: &[ArmId],
        mark: &mut Vec<bool>,
        out: &mut Vec<ArmId>,
    ) {
        if mark.len() < self.num_vertices() {
            mark.resize(self.num_vertices(), false);
        }
        out.clear();
        for &v in set {
            for &u in self.closed_neighborhood(v) {
                if !mark[u] {
                    mark[u] = true;
                    out.push(u);
                }
            }
        }
        out.sort_unstable();
        for &u in out.iter() {
            mark[u] = false;
        }
    }

    /// Number of cliques in the precomputed greedy clique cover — the quantity
    /// `C` of Theorems 1 and 2, available without recomputing the cover.
    pub fn num_cliques(&self) -> usize {
        self.clique_offsets.len() - 1
    }

    /// The members of clique `c` of the cover (sorted by the cover's internal
    /// order, matching [`greedy_clique_cover`]).
    ///
    /// # Panics
    ///
    /// Panics if `c >= num_cliques()`.
    pub fn clique(&self, c: usize) -> &[ArmId] {
        &self.clique_members[self.clique_offsets[c]..self.clique_offsets[c + 1]]
    }

    /// Index of the cover clique containing `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn clique_of(&self, v: ArmId) -> usize {
        self.clique_of[v] as usize
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = ArmId> {
        0..self.num_vertices()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`, in
    /// lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (ArmId, ArmId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| v > u)
                .map(move |&v| (u, v))
        })
    }

    /// Thaws the snapshot back into a mutable [`RelationGraph`]. Round-trips
    /// exactly: `g.to_csr().to_relation_graph() == g`.
    pub fn to_relation_graph(&self) -> RelationGraph {
        let edges: Vec<(ArmId, ArmId)> = self.edges().collect();
        RelationGraph::from_edges(self.num_vertices(), &edges)
    }
}

impl From<&RelationGraph> for CsrGraph {
    fn from(graph: &RelationGraph) -> Self {
        CsrGraph::from_graph(graph)
    }
}

impl Default for CsrGraph {
    /// The snapshot of the zero-vertex graph (all layout invariants hold
    /// vacuously). Gives holders an empty placeholder — the snapshot is
    /// derived state and is rebuilt from the source graph rather than
    /// persisted.
    fn default() -> Self {
        CsrGraph::from_graph(&RelationGraph::empty(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_edge() -> RelationGraph {
        RelationGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)])
    }

    #[test]
    fn csr_matches_relation_graph_accessors() {
        let g = triangle_plus_edge();
        let csr = g.to_csr();
        assert_eq!(csr.num_vertices(), 5);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.max_degree(), 2);
        assert_eq!(csr.max_closed_neighborhood(), 3);
        for v in g.vertices() {
            assert_eq!(csr.neighbors(v), g.neighbors(v), "open row of {v}");
            assert_eq!(csr.degree(v), g.degree(v), "degree of {v}");
            assert_eq!(
                csr.closed_neighborhood(v),
                g.closed_neighborhood(v).as_slice(),
                "closed row of {v}"
            );
        }
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(csr.has_edge(u, v), g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn zero_and_edgeless_graphs() {
        let empty = RelationGraph::empty(0).to_csr();
        assert!(empty.is_empty());
        assert_eq!(empty.max_degree(), 0);
        assert_eq!(empty.max_closed_neighborhood(), 0);
        assert_eq!(empty.num_cliques(), 0);
        let edgeless = RelationGraph::empty(3).to_csr();
        assert_eq!(edgeless.neighbors(1), &[] as &[ArmId]);
        assert_eq!(edgeless.closed_neighborhood(1), &[1]);
        assert_eq!(edgeless.num_cliques(), 3);
    }

    #[test]
    fn round_trip_back_to_relation_graph() {
        let g = triangle_plus_edge();
        assert_eq!(g.to_csr().to_relation_graph(), g);
    }

    #[test]
    fn edges_iterator_matches_relation_graph() {
        let g = triangle_plus_edge();
        let csr = g.to_csr();
        assert_eq!(
            csr.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn clique_tables_match_the_greedy_cover() {
        let g = triangle_plus_edge();
        let csr = g.to_csr();
        let cover = greedy_clique_cover(&g);
        assert_eq!(csr.num_cliques(), cover.len());
        for (c, clique) in cover.cliques().iter().enumerate() {
            assert_eq!(csr.clique(c), clique.as_slice());
        }
        for v in g.vertices() {
            assert!(
                csr.clique(csr.clique_of(v)).contains(&v),
                "vertex {v} missing from its assigned clique"
            );
        }
    }

    #[test]
    fn set_union_matches_reference_and_clears_marks() {
        let g = triangle_plus_edge();
        let csr = g.to_csr();
        let mut mark = Vec::new();
        let mut out = Vec::new();
        for set in [vec![0], vec![0, 3], vec![4, 0, 4], vec![]] {
            csr.closed_neighborhood_of_set_into(&set, &mut mark, &mut out);
            assert_eq!(out, g.closed_neighborhood_of_set(&set), "set {set:?}");
            assert!(mark.iter().all(|&m| !m), "marks must be reset");
        }
    }
}
