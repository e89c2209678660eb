//! Structural metrics of relation graphs.
//!
//! The amount of side observation a relation graph provides — and therefore the
//! constants in Theorems 1–4 — is governed by its structure: degree
//! distribution, clustering (how "clique-like" neighbourhoods are), distances,
//! and degeneracy. These metrics are used by the workload presets, the
//! ablations, and the documentation of experimental instances.

use std::collections::VecDeque;

use crate::graph::RelationGraph;
use crate::ArmId;

/// A summary of the structural properties of a relation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Number of vertices `K`.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Edge density `2|E| / (K(K-1))`.
    pub density: f64,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Global clustering coefficient (transitivity): `3·triangles / wedges`.
    pub clustering_coefficient: f64,
    /// Number of connected components.
    pub num_components: usize,
    /// Diameter of the largest component (0 for graphs with ≤ 1 vertex).
    pub diameter: usize,
    /// Degeneracy (the largest `d` such that some subgraph has minimum degree
    /// `d`); a small degeneracy certifies sparse, tree-like structure.
    pub degeneracy: usize,
}

/// Computes all metrics of a graph.
pub fn metrics(graph: &RelationGraph) -> GraphMetrics {
    let n = graph.num_vertices();
    let degrees: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
    let components = graph.connected_components();
    GraphMetrics {
        num_vertices: n,
        num_edges: graph.num_edges(),
        density: graph.density(),
        min_degree: degrees.iter().copied().min().unwrap_or(0),
        max_degree: degrees.iter().copied().max().unwrap_or(0),
        mean_degree: if n == 0 {
            0.0
        } else {
            degrees.iter().sum::<usize>() as f64 / n as f64
        },
        clustering_coefficient: clustering_coefficient(graph),
        num_components: components.len(),
        diameter: components
            .iter()
            .map(|c| component_diameter(graph, c))
            .max()
            .unwrap_or(0),
        degeneracy: degeneracy_ordering(graph).1,
    }
}

/// Global clustering coefficient (transitivity): `3 × #triangles / #wedges`,
/// defined as 0 when the graph has no wedge.
pub fn clustering_coefficient(graph: &RelationGraph) -> f64 {
    let n = graph.num_vertices();
    let mut triangles = 0usize;
    let mut wedges = 0usize;
    for v in 0..n {
        let d = graph.degree(v);
        wedges += d * d.saturating_sub(1) / 2;
        let neighbors = graph.neighbors(v);
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                if graph.has_edge(a, b) {
                    triangles += 1;
                }
            }
        }
    }
    // Each triangle is counted once per corner, i.e. 3 times in total.
    if wedges == 0 {
        0.0
    } else {
        triangles as f64 / wedges as f64
    }
}

/// Breadth-first distances from `source`; unreachable vertices get `usize::MAX`.
pub fn bfs_distances(graph: &RelationGraph, source: ArmId) -> Vec<usize> {
    let n = graph.num_vertices();
    let mut dist = vec![usize::MAX; n];
    if source >= n {
        return dist;
    }
    dist[source] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        for &u in graph.neighbors(v) {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Diameter of a connected component given by its vertex list.
fn component_diameter(graph: &RelationGraph, component: &[ArmId]) -> usize {
    component
        .iter()
        .map(|&v| {
            bfs_distances(graph, v)
                .into_iter()
                .filter(|&d| d != usize::MAX)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

/// Degeneracy ordering: repeatedly removes a minimum-degree vertex.
///
/// Returns the removal order and the degeneracy (the maximum degree observed at
/// removal time).
pub fn degeneracy_ordering(graph: &RelationGraph) -> (Vec<ArmId>, usize) {
    let n = graph.num_vertices();
    let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !removed[v])
            .min_by_key(|&v| (degree[v], v))
            .expect("at least one unremoved vertex remains");
        degeneracy = degeneracy.max(degree[v]);
        removed[v] = true;
        order.push(v);
        for &u in graph.neighbors(v) {
            if !removed[u] {
                degree[u] -= 1;
            }
        }
    }
    (order, degeneracy)
}

/// Degree histogram: `histogram[d]` is the number of vertices with degree `d`.
pub fn degree_histogram(graph: &RelationGraph) -> Vec<usize> {
    let mut hist = vec![0usize; graph.max_degree() + 1];
    for v in graph.vertices() {
        hist[graph.degree(v)] += 1;
    }
    if graph.is_empty() {
        hist.clear();
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn metrics_of_a_complete_graph() {
        let g = generators::complete(6);
        let m = metrics(&g);
        assert_eq!(m.num_vertices, 6);
        assert_eq!(m.num_edges, 15);
        assert!((m.density - 1.0).abs() < 1e-12);
        assert_eq!(m.min_degree, 5);
        assert_eq!(m.max_degree, 5);
        assert!((m.clustering_coefficient - 1.0).abs() < 1e-12);
        assert_eq!(m.num_components, 1);
        assert_eq!(m.diameter, 1);
        assert_eq!(m.degeneracy, 5);
    }

    #[test]
    fn metrics_of_an_edgeless_graph() {
        let g = generators::edgeless(4);
        let m = metrics(&g);
        assert_eq!(m.num_edges, 0);
        assert_eq!(m.clustering_coefficient, 0.0);
        assert_eq!(m.num_components, 4);
        assert_eq!(m.diameter, 0);
        assert_eq!(m.degeneracy, 0);
        assert_eq!(m.mean_degree, 0.0);
    }

    #[test]
    fn metrics_of_the_empty_graph() {
        let g = RelationGraph::empty(0);
        let m = metrics(&g);
        assert_eq!(m.num_vertices, 0);
        assert_eq!(m.diameter, 0);
        assert!(degree_histogram(&g).is_empty());
    }

    #[test]
    fn path_metrics() {
        let g = generators::path(5);
        let m = metrics(&g);
        assert_eq!(m.diameter, 4);
        assert_eq!(m.degeneracy, 1);
        assert_eq!(m.clustering_coefficient, 0.0);
        assert_eq!(m.num_components, 1);
        assert_eq!(degree_histogram(&g), vec![0, 2, 3]);
    }

    #[test]
    fn star_has_no_triangles_and_degeneracy_one() {
        let g = generators::star(7);
        let m = metrics(&g);
        assert_eq!(m.clustering_coefficient, 0.0);
        assert_eq!(m.degeneracy, 1);
        assert_eq!(m.diameter, 2);
        assert_eq!(m.max_degree, 6);
    }

    #[test]
    fn triangle_clustering_is_one() {
        let g = RelationGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bfs_distances_on_a_path() {
        let g = generators::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
        // Out-of-range source: everything unreachable.
        assert!(bfs_distances(&g, 99).iter().all(|&d| d == usize::MAX));
    }

    #[test]
    fn bfs_handles_disconnected_graphs() {
        let g = generators::disjoint_cliques(2, 3);
        let dist = bfs_distances(&g, 0);
        assert_eq!(dist[1], 1);
        assert_eq!(dist[2], 1);
        assert_eq!(dist[3], usize::MAX);
    }

    #[test]
    fn degeneracy_of_disjoint_cliques() {
        let g = generators::disjoint_cliques(3, 4);
        let (order, d) = degeneracy_ordering(&g);
        assert_eq!(order.len(), 12);
        assert_eq!(d, 3);
    }

    #[test]
    fn barabasi_albert_is_more_clustered_than_sparse_er() {
        // Not a theorem, but robust for these sizes/seeds: BA with m=3 has far
        // more triangles than an ER graph of comparable density.
        let mut rng = StdRng::seed_from_u64(1);
        let ba = generators::barabasi_albert(80, 3, &mut rng);
        let er = generators::erdos_renyi(80, ba.density(), &mut rng);
        assert!(clustering_coefficient(&ba) > clustering_coefficient(&er));
    }

    #[test]
    fn metrics_are_serialisable() {
        let g = generators::cycle(5);
        let m = metrics(&g);
        // Metrics are plain values: a clone compares equal.
        let clone = m.clone();
        assert_eq!(m, clone);
        assert_eq!(m.diameter, 2);
    }
}
