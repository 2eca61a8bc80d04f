//! Triangle counting and the exact global clustering coefficient.
//!
//! The paper estimates the **global clustering coefficient** (Section
//! 4.2.4, after Schank & Wagner):
//!
//! ```text
//! C = (1/|V*|) Σ_v c(v),   c(v) = Δ(v) / C(deg(v), 2)  for deg(v) ≥ 2,
//! ```
//!
//! where `V*` is the set of vertices with degree ≥ 2 and `Δ(v)` is the
//! number of triangles containing `v`. This module computes the exact value
//! (ground truth for Table 3) plus the per-edge shared-neighbor counts
//! `f(v, u)` used by the paper's RW estimator `Ĉ`.

use crate::graph::Graph;
use crate::ids::VertexId;

/// Number of common neighbors of `u` and `v` (the paper's `f(v, u)`),
/// from their sorted neighbor lists.
pub fn shared_neighbors(graph: &Graph, u: VertexId, v: VertexId) -> usize {
    sorted_intersection_len(graph.neighbors(u), graph.neighbors(v))
}

/// Rows at least this many times longer than the other are galloped
/// through rather than merged.
const GALLOP_RATIO: usize = 16;

/// `|a ∩ b|` of two sorted rows, a repeated id pairing one-to-one with
/// its repeats in the other row (so a multigraph row counts
/// `min(mult_a, mult_b)` per id). A sorted merge, except that a row at
/// least [`GALLOP_RATIO`] times longer than the other is searched from
/// the shorter one: an exponential probe, then a binary search.
pub(crate) fn sorted_intersection_len(a: &[VertexId], b: &[VertexId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut count = 0usize;
    let mut j = 0usize;
    if long.len() >= GALLOP_RATIO * short.len() {
        for &x in short {
            let rest = &long[j..];
            let mut end = 1;
            while end < rest.len() && rest[end] < x {
                end *= 2;
            }
            let lo = end / 2;
            j += lo + rest[lo..(end + 1).min(rest.len())].partition_point(|&y| y < x);
            if long.get(j) == Some(&x) {
                count += 1;
                j += 1;
            }
        }
        return count;
    }
    let mut i = 0usize;
    while let (Some(&x), Some(&y)) = (short.get(i), long.get(j)) {
        // Branch-free steps: which row advances is data, not control.
        count += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    count
}

/// Number of triangles containing each vertex: `Δ(v)`.
///
/// Uses the identity `Σ_{u ∈ N(v)} |N(v) ∩ N(u)| = 2 Δ(v)`; total cost is
/// `O(Σ_{(u,v)∈E} (deg u + deg v))`.
pub fn triangles_per_vertex(graph: &Graph) -> Vec<usize> {
    let mut twice = vec![0usize; graph.num_vertices()];
    for v in graph.vertices() {
        let mut acc = 0usize;
        for &u in graph.neighbors(v) {
            acc += shared_neighbors(graph, v, u);
        }
        twice[v.index()] = acc;
    }
    twice.into_iter().map(|t| t / 2).collect()
}

/// Total number of triangles in the graph.
pub fn total_triangles(graph: &Graph) -> usize {
    triangles_per_vertex(graph).iter().sum::<usize>() / 3
}

/// Local clustering coefficient `c(v) = Δ(v) / C(deg v, 2)`; zero when
/// `deg(v) < 2`.
pub fn local_clustering(graph: &Graph, v: VertexId) -> f64 {
    let d = graph.degree(v);
    if d < 2 {
        return 0.0;
    }
    let mut twice = 0usize;
    for &u in graph.neighbors(v) {
        twice += shared_neighbors(graph, v, u);
    }
    let triangles = (twice / 2) as f64;
    triangles / binom2(d)
}

/// Exact global clustering coefficient `C` (paper eq. 8).
///
/// Returns 0 when no vertex has degree ≥ 2.
///
/// ```
/// use fs_graph::{global_clustering, graph_from_undirected_pairs};
/// let triangle = graph_from_undirected_pairs(3, [(0, 1), (1, 2), (0, 2)]);
/// assert_eq!(global_clustering(&triangle), 1.0);
/// let path = graph_from_undirected_pairs(3, [(0, 1), (1, 2)]);
/// assert_eq!(global_clustering(&path), 0.0);
/// ```
pub fn global_clustering(graph: &Graph) -> f64 {
    let triangles = triangles_per_vertex(graph);
    let mut sum = 0.0;
    let mut v_star = 0usize;
    for v in graph.vertices() {
        let d = graph.degree(v);
        if d >= 2 {
            v_star += 1;
            sum += triangles[v.index()] as f64 / binom2(d);
        }
    }
    if v_star == 0 {
        0.0
    } else {
        sum / v_star as f64
    }
}

/// `C(d, 2)` as f64.
#[inline]
pub fn binom2(d: usize) -> f64 {
    (d as f64) * (d as f64 - 1.0) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_undirected_pairs;
    use proptest::prelude::*;

    /// The plain sorted merge the kernel must agree with.
    fn merged_len(a: &[VertexId], b: &[VertexId]) -> usize {
        let (mut i, mut j, mut count) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    (i, j, count) = (i + 1, j + 1, count + 1);
                }
            }
        }
        count
    }

    fn sorted_row(ids: Vec<u32>) -> Vec<VertexId> {
        let mut row: Vec<VertexId> = ids.into_iter().map(VertexId::from).collect();
        row.sort_unstable();
        row
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Galloping (rows ≥ 16× apart) and merging count the same
        /// pairs as a plain merge, repeated ids (multigraph rows)
        /// included, whichever row comes first.
        #[test]
        fn intersection_kernel_matches_plain_merge(
            short in prop::collection::vec(0u32..48, 0..12),
            long in prop::collection::vec(0u32..48, 0..400),
        ) {
            let (a, b) = (sorted_row(short), sorted_row(long));
            let want = merged_len(&a, &b);
            prop_assert_eq!(sorted_intersection_len(&a, &b), want);
            prop_assert_eq!(sorted_intersection_len(&b, &a), want);
        }
    }

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn triangle_graph() {
        let g = graph_from_undirected_pairs(3, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(shared_neighbors(&g, v(0), v(1)), 1);
        assert_eq!(triangles_per_vertex(&g), vec![1, 1, 1]);
        assert_eq!(total_triangles(&g), 1);
        assert!((global_clustering(&g) - 1.0).abs() < 1e-12);
        assert!((local_clustering(&g, v(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(total_triangles(&g), 0);
        assert_eq!(global_clustering(&g), 0.0);
        assert_eq!(local_clustering(&g, v(1)), 0.0);
    }

    #[test]
    fn paw_graph() {
        // triangle {0,1,2} plus pendant 3 attached to 2.
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        // c(0)=c(1)=1, c(2)= 1/C(3,2) = 1/3, vertex 3 excluded (deg 1).
        let expect = (1.0 + 1.0 + 1.0 / 3.0) / 3.0;
        assert!((global_clustering(&g) - expect).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_k5() {
        let mut pairs = Vec::new();
        for i in 0..5usize {
            for j in (i + 1)..5 {
                pairs.push((i, j));
            }
        }
        let g = graph_from_undirected_pairs(5, pairs);
        assert_eq!(total_triangles(&g), 10); // C(5,3)
        assert!((global_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_neighbors_symmetric() {
        let g = graph_from_undirected_pairs(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]);
        for a in 0..5usize {
            for b in 0..5usize {
                assert_eq!(
                    shared_neighbors(&g, v(a), v(b)),
                    shared_neighbors(&g, v(b), v(a))
                );
            }
        }
    }

    #[test]
    fn star_graph_zero_clustering() {
        let g = graph_from_undirected_pairs(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert!((global_clustering(&g)).abs() < 1e-12);
    }
}
