//! Breadth-first search for unweighted shortest paths.

use crate::csr::Csr;
use crate::dijkstra::SourceScratch;

/// Result of a (possibly early-terminated) BFS from one source.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `dist[v]` = number of hops from the source, or `u32::MAX` when `v`
    /// was not reached (either unreachable or cut off by early exit).
    pub dist: Vec<u32>,
    /// `parent_edge[v]` = CSR slot of the edge that discovered `v`, or
    /// [`NO_EDGE`](crate::NO_EDGE) for the source / unreached vertices.
    pub parent_edge: Vec<u32>,
    /// `parent[v]` = predecessor vertex, or [`NO_VERTEX`](crate::NO_VERTEX).
    pub parent: Vec<u32>,
}

/// Reusable BFS working memory. A vertex is settled when discovered, so
/// `settled_count` is the number of vertices the last run labelled.
pub type BfsScratch = SourceScratch<u32>;

/// Run a BFS from `source`.
///
/// When `targets` is non-empty the search stops as soon as every target has
/// been discovered (their BFS distances are final at discovery time) — this
/// is the multi-destination early exit used by the batch driver. When
/// `targets` is empty the whole reachable component is explored, which is
/// what the reachability-only mode of the paper's library does ("the library
/// still performs a BFS over the source and destination vertices, discarding
/// the computed shortest paths", §3.2).
pub fn bfs(graph: &Csr, source: u32, targets: &[u32]) -> BfsResult {
    let mut scratch = BfsScratch::new();
    bfs_into(graph, source, targets, &mut scratch);
    BfsResult {
        dist: scratch.dist.into_vec(),
        parent_edge: scratch.parent_edge.into_vec(),
        parent: scratch.parent.into_vec(),
    }
}

/// [`bfs`] into a caller-owned [`BfsScratch`], which first forgets its last
/// run in the time that run took. The result lives in the scratch's public
/// labels.
pub fn bfs_into(graph: &Csr, source: u32, targets: &[u32], scratch: &mut BfsScratch) {
    let mut remaining = scratch.start(graph.num_vertices() as usize, source, targets);
    let SourceScratch { dist, parent_edge, parent, is_target, queue, settled, .. } = scratch;
    *settled = 1;
    if is_target[source as usize] {
        remaining -= 1;
        if remaining == 0 {
            return;
        }
    }

    queue.push_back(source);
    'outer: while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for (slot, v) in graph.neighbors(u) {
            if dist[v as usize] != u32::MAX {
                continue;
            }
            *settled += 1;
            dist.set(v, du + 1);
            parent_edge.set_along(v, slot as u32);
            parent.set_along(v, u);
            if is_target[v as usize] {
                remaining -= 1;
                if remaining == 0 {
                    break 'outer;
                }
            }
            queue.push_back(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NO_VERTEX;

    fn diamond() -> Csr {
        // 0->1, 0->2, 1->3, 2->3, 3->4
        Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap()
    }

    #[test]
    fn distances_from_source() {
        let g = diamond();
        let r = bfs(&g, 0, &[]);
        assert_eq!(r.dist, vec![0, 1, 1, 2, 3]);
    }

    #[test]
    fn unreachable_vertices_stay_max() {
        let g = Csr::from_edges(4, &[0, 2], &[1, 3]).unwrap();
        let r = bfs(&g, 0, &[]);
        assert_eq!(r.dist[1], 1);
        assert_eq!(r.dist[2], u32::MAX);
        assert_eq!(r.dist[3], u32::MAX);
    }

    #[test]
    fn direction_matters() {
        let g = Csr::from_edges(2, &[0], &[1]).unwrap();
        let fwd = bfs(&g, 0, &[]);
        assert_eq!(fwd.dist[1], 1);
        let back = bfs(&g, 1, &[]);
        assert_eq!(back.dist[0], u32::MAX);
    }

    #[test]
    fn parent_edges_form_shortest_path_tree() {
        let g = diamond();
        let r = bfs(&g, 0, &[]);
        // Walk back from 4: must reach 0 in exactly dist[4] steps.
        let mut v = 4u32;
        let mut hops = 0;
        while v != 0 {
            let p = r.parent[v as usize];
            assert_ne!(p, NO_VERTEX);
            assert_eq!(r.dist[v as usize], r.dist[p as usize] + 1);
            // The parent edge must actually connect p -> v.
            let slot = r.parent_edge[v as usize] as usize;
            assert_eq!(g.target(slot), v);
            v = p;
            hops += 1;
        }
        assert_eq!(hops, r.dist[4]);
    }

    #[test]
    fn early_exit_stops_after_targets_found() {
        // Long chain 0->1->...->9 plus target 1: searching only for {1}
        // must not explore the tail.
        let src: Vec<u32> = (0..9).collect();
        let dst: Vec<u32> = (1..10).collect();
        let g = Csr::from_edges(10, &src, &dst).unwrap();
        let r = bfs(&g, 0, &[1]);
        assert_eq!(r.dist[1], 1);
        // Vertices beyond the frontier at exit time were never labelled.
        assert_eq!(r.dist[9], u32::MAX);
    }

    #[test]
    fn source_as_target_is_distance_zero() {
        let g = diamond();
        let r = bfs(&g, 2, &[2]);
        assert_eq!(r.dist[2], 0);
    }

    #[test]
    fn duplicate_targets_handled() {
        let g = diamond();
        let r = bfs(&g, 0, &[3, 3, 3]);
        assert_eq!(r.dist[3], 2);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let g = diamond();
        let mut scratch = BfsScratch::new();
        for source in 0..g.num_vertices() {
            bfs_into(&g, source, &[], &mut scratch);
            let fresh = bfs(&g, source, &[]);
            assert_eq!(*scratch.dist, fresh.dist, "source {source}");
            assert_eq!(*scratch.parent, fresh.parent, "source {source}");
            assert_eq!(*scratch.parent_edge, fresh.parent_edge, "source {source}");
        }
    }

    #[test]
    fn settled_count_tracks_labelled_vertices() {
        let g = diamond();
        let mut s = BfsScratch::new();
        bfs_into(&g, 0, &[], &mut s);
        assert_eq!(s.settled_count(), s.dist.iter().filter(|&&d| d != u32::MAX).count());
        assert_eq!(s.settled_count(), 5);
        bfs_into(&g, 0, &[1], &mut s);
        assert_eq!(s.settled_count(), s.dist.iter().filter(|&&d| d != u32::MAX).count());
        assert!(s.settled_count() < 5);
    }

    #[test]
    fn multi_target_early_exit_finds_all() {
        let g = diamond();
        let r = bfs(&g, 0, &[4, 1]);
        assert_eq!(r.dist[1], 1);
        assert_eq!(r.dist[4], 3);
    }
}
