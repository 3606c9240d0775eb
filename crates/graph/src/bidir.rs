//! Bidirectional BFS for single-pair unweighted shortest paths.
//!
//! The paper's §4 notes its BFS was "still largely unoptimized" and that
//! the authors "expect in the future to significantly improve the BFS
//! implementation". This module provides that improvement for the
//! single-pair case: alternating forward/backward frontier expansion
//! explores `O(b^(d/2))` vertices instead of `O(b^d)`.
//!
//! It requires the reverse graph, which [`reverse_csr`] builds once (and
//! which a graph index can cache alongside the forward CSR).

use crate::csr::Csr;
use crate::{NO_EDGE, NO_VERTEX};

/// Build the reverse graph: edge `u -> v` becomes `v -> u`, keeping the
/// same original edge-row ids (so paths found backwards still reference the
/// original edge table).
///
/// A direct transpose: in-degree histogram, prefix sum, then one scatter
/// walking the forward slots in order — so each reversed adjacency list is
/// ordered by forward slot.
pub fn reverse_csr(graph: &Csr) -> Csr {
    let n = graph.num_vertices() as usize;
    let mut offsets = vec![0usize; n + 1];
    for &t in &graph.targets {
        offsets[t as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut targets = vec![0u32; graph.num_edges()];
    let mut edge_rows = vec![0u32; graph.num_edges()];
    let mut cursor = offsets[..n].to_vec();
    for u in 0..n {
        for p in graph.offsets[u]..graph.offsets[u + 1] {
            let t = graph.targets[p] as usize;
            let slot = cursor[t];
            cursor[t] += 1;
            targets[slot] = u as u32;
            edge_rows[slot] = graph.edge_rows[p];
        }
    }
    Csr { offsets, targets, edge_rows }
}

/// Result of a bidirectional search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BidirResult {
    /// Hop count of the shortest path.
    pub dist: u32,
    /// Original edge-row ids along one shortest path, source → dest order.
    pub path: Vec<u32>,
    /// Vertices labelled across both directions — the work metric reported
    /// to the observability layer.
    pub settled: u32,
}

/// Bidirectional BFS from `source` to `dest` over `forward` and its
/// reversal `backward` (as built by [`reverse_csr`]).
///
/// Returns `None` when `dest` is unreachable. `source == dest` yields the
/// empty path, mirroring the engine's zero-hop semantics.
pub fn bidirectional_bfs(
    forward: &Csr,
    backward: &Csr,
    source: u32,
    dest: u32,
) -> Option<BidirResult> {
    let n = forward.num_vertices() as usize;
    debug_assert_eq!(backward.num_vertices(), forward.num_vertices());
    if source == dest {
        return Some(BidirResult { dist: 0, path: Vec::new(), settled: 1 });
    }
    // dist/parent per direction; parent_edge stores ORIGINAL edge rows.
    let mut dist_f = vec![u32::MAX; n];
    let mut dist_b = vec![u32::MAX; n];
    let mut par_f = vec![NO_VERTEX; n];
    let mut par_b = vec![NO_VERTEX; n];
    let mut edge_f = vec![NO_EDGE; n];
    let mut edge_b = vec![NO_EDGE; n];
    dist_f[source as usize] = 0;
    dist_b[dest as usize] = 0;
    let mut frontier_f = vec![source];
    let mut frontier_b = vec![dest];
    let mut settled: u32 = 2;

    // Best meeting so far: (total distance, meeting vertex).
    let mut best: Option<(u32, u32)> = None;
    let mut depth_f = 0u32;
    let mut depth_b = 0u32;

    while !frontier_f.is_empty() && !frontier_b.is_empty() {
        // The sum of completed depths bounds any undiscovered path; once a
        // meeting is at most that bound it is optimal.
        if let Some((d, _)) = best {
            if d <= depth_f + depth_b + 1 {
                break;
            }
        }
        // Expand the smaller frontier (classic balancing heuristic).
        let expand_forward = frontier_f.len() <= frontier_b.len();
        let (graph, frontier, dist_mine, dist_other, par, edge, depth) = if expand_forward {
            (forward, &mut frontier_f, &mut dist_f, &dist_b, &mut par_f, &mut edge_f, &mut depth_f)
        } else {
            (backward, &mut frontier_b, &mut dist_b, &dist_f, &mut par_b, &mut edge_b, &mut depth_b)
        };
        let mut next = Vec::new();
        for &u in frontier.iter() {
            let du = dist_mine[u as usize];
            for (slot, v) in graph.neighbors(u) {
                let vi = v as usize;
                if dist_mine[vi] != u32::MAX {
                    continue;
                }
                dist_mine[vi] = du + 1;
                settled += 1;
                par[vi] = u;
                edge[vi] = graph.edge_row(slot);
                if dist_other[vi] != u32::MAX {
                    let total = dist_mine[vi] + dist_other[vi];
                    if best.is_none_or(|(b, _)| total < b) {
                        best = Some((total, v));
                    }
                }
                next.push(v);
            }
        }
        *frontier = next;
        *depth += 1;
    }

    let (dist, meet) = best?;
    // Stitch: source ~> meet (forward parents, reversed walk), then
    // meet ~> dest (backward parents walk forward).
    let mut path = Vec::with_capacity(dist as usize);
    let mut v = meet;
    while v != source {
        path.push(edge_f[v as usize]);
        v = par_f[v as usize];
    }
    path.reverse();
    let mut v = meet;
    while v != dest {
        path.push(edge_b[v as usize]);
        v = par_b[v as usize];
    }
    Some(BidirResult { dist, path, settled })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;

    fn diamond() -> Csr {
        Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap()
    }

    #[test]
    fn reverse_preserves_edge_rows() {
        let g = diamond();
        let r = reverse_csr(&g);
        assert_eq!(r.num_edges(), g.num_edges());
        // Every reverse edge (v -> u, row) corresponds to a forward edge
        // (u -> v) with the same row id.
        for v in 0..r.num_vertices() {
            for (slot, u) in r.neighbors(v) {
                let row = r.edge_row(slot);
                // Find the forward edge with that row id.
                let mut found = false;
                for fu in 0..g.num_vertices() {
                    for (fslot, fv) in g.neighbors(fu) {
                        if g.edge_row(fslot) == row {
                            assert_eq!((fu, fv), (u, v));
                            found = true;
                        }
                    }
                }
                assert!(found, "row {row} not found forward");
            }
        }
    }

    #[test]
    fn matches_unidirectional_on_diamond() {
        let g = diamond();
        let rev = reverse_csr(&g);
        let r = bidirectional_bfs(&g, &rev, 0, 4).unwrap();
        assert_eq!(r.dist, 3);
        assert_eq!(r.path.len(), 3);
        // The path edges must chain 0 ~> 4 in the forward graph.
        let src = [0u32, 0, 1, 2, 3];
        let dst = [1u32, 2, 3, 3, 4];
        let mut at = 0;
        for &row in &r.path {
            assert_eq!(src[row as usize], at);
            at = dst[row as usize];
        }
        assert_eq!(at, 4);
    }

    #[test]
    fn self_pair_and_unreachable() {
        let g = diamond();
        let rev = reverse_csr(&g);
        assert_eq!(bidirectional_bfs(&g, &rev, 2, 2).unwrap().dist, 0);
        assert!(bidirectional_bfs(&g, &rev, 4, 0).is_none());
    }

    #[test]
    fn random_graphs_match_unidirectional_bfs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..40 {
            let n: u32 = rng.gen_range(2..40);
            let m: usize = rng.gen_range(1..150);
            let src: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
            let dst: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
            let g = Csr::from_edges(n, &src, &dst).unwrap();
            let rev = reverse_csr(&g);
            for _ in 0..10 {
                let s = rng.gen_range(0..n);
                let d = rng.gen_range(0..n);
                let uni = bfs(&g, s, &[]);
                let bi = bidirectional_bfs(&g, &rev, s, d);
                match bi {
                    None => assert_eq!(uni.dist[d as usize], u32::MAX, "pair ({s},{d})"),
                    Some(r) => {
                        assert_eq!(r.dist, uni.dist[d as usize], "pair ({s},{d})");
                        // Path validity: chains s ~> d with dist edges.
                        assert_eq!(r.path.len() as u32, r.dist);
                        let mut at = s;
                        for &row in &r.path {
                            assert_eq!(src[row as usize], at);
                            at = dst[row as usize];
                        }
                        assert_eq!(at, d);
                    }
                }
            }
        }
    }
}
