//! Bidirectional BFS for single-pair unweighted shortest paths.
//!
//! The paper's §4 notes its BFS was "still largely unoptimized" and that
//! the authors "expect in the future to significantly improve the BFS
//! implementation". This module provides that improvement for the
//! single-pair case: alternating forward/backward frontier expansion
//! explores `O(b^(d/2))` vertices instead of `O(b^d)`.
//!
//! It requires the reverse graph, which [`reverse_csr`] builds once (and
//! which a graph index can cache alongside the forward CSR). Its two sides
//! are leased from a [`Spares`] pool, so a search costs what it labels.

use crate::arena::{Arena, Labels, Spares};
use crate::batch::{CostValue, PairResult};
use crate::csr::Csr;
use crate::search::{check_vertices, Budget, Search};
use crate::{Result, TraversalKind, NO_EDGE, NO_VERTEX};

/// Build the reverse graph: edge `u -> v` becomes `v -> u`, keeping the
/// same original edge-row ids (so paths found backwards still reference the
/// original edge table).
///
/// The CSR construction kernel over the empty graph, fed the forward slots
/// in order — so each reversed adjacency list is ordered by forward slot,
/// the order [`Csr::appended_reverse`] keeps when the graph grows.
pub fn reverse_csr(graph: &Csr) -> Csr {
    let Csr { offsets, targets, edge_rows } = graph;
    let mut u = 0;
    let slots = (0..graph.num_edges()).map(move |slot| {
        while offsets[u + 1] <= slot {
            u += 1;
        }
        (targets[slot], u as u32, edge_rows[slot])
    });
    Csr::default().merged(graph.num_vertices(), slots, true)
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

/// One direction's working memory: its labels and two frontier levels.
#[derive(Debug)]
struct Side {
    dist: Labels<u32>,
    /// `(parent, edge row)`, set along `dist` — ORIGINAL edge rows (not
    /// CSR slots: the two sides index different CSRs).
    via: Labels<(u32, u32)>,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl Default for Side {
    fn default() -> Side {
        let (frontier, next) = (Vec::new(), Vec::new());
        Side { dist: Labels::new(u32::MAX), via: Labels::new((NO_VERTEX, NO_EDGE)), frontier, next }
    }
}

impl Arena for [Side; 2] {
    fn clear(&mut self) {
        for side in self {
            side.via.clear_along(&side.dist);
            side.dist.clear();
            side.frontier.clear();
            side.next.clear(); // a search that met mid-level left its partial next level
        }
    }
}

/// The idle forward/backward [`Side`] pairs: a search labels a few hundred
/// vertices, so allocating and filling `n`-sized labels per call would
/// cost more than the search itself.
static SIDES: Spares<[Side; 2]> = Spares::new();

/// Bidirectional BFS over a graph and its reversal, as a [`Search`]: one
/// early-exit search per pair ([`Budget::per_pair`]), each reported as
/// [`TraversalKind::BidirBfs`] with the vertices it labelled — whether or
/// not it found a path. Costs are hop counts, identical to
/// [`SourceSearch::bfs`](crate::SourceSearch::bfs).
#[derive(Debug, Clone, Copy)]
pub struct BidirBfs<'g> {
    /// The graph.
    pub forward: &'g Csr,
    /// Its reversal, as built by [`reverse_csr`].
    pub backward: &'g Csr,
}

impl Search for BidirBfs<'_> {
    fn run(
        &self,
        pairs: &[(u32, u32)],
        budget: &Budget<'_>,
        want_path: bool,
    ) -> Result<Vec<PairResult>> {
        let BidirBfs { forward, backward } = *self;
        check_vertices(pairs, forward.num_vertices())?;
        budget.per_pair(
            pairs,
            TraversalKind::BidirBfs,
            || SIDES.lease(),
            |sides, source, dest| {
                let (hit, settled) = search(sides, forward, backward, source, dest, want_path);
                let answer = hit.map_or(PairResult::UNREACHABLE, |(dist, path)| {
                    PairResult::reached(CostValue::Int(i64::from(dist)), want_path.then_some(path))
                });
                (answer, settled)
            },
        )
    }
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
    let (hit, settled) = search(&mut SIDES.lease(), forward, backward, source, dest, true);
    hit.map(|(dist, path)| BidirResult { dist, path, settled: settled as u32 })
}

/// The search behind [`BidirBfs`] and [`bidirectional_bfs`]: the hop count
/// and (when `want_path`) the edge rows of one shortest path, or `None`
/// when `dest` is unreachable — plus the vertices labelled across both
/// directions, on either outcome.
///
/// The search alternates whole levels, always growing the smaller frontier,
/// and stops at the **first** vertex labelled from both sides. That meeting
/// is optimal: while the forward ball is complete to depth `f`, the
/// backward ball to depth `b`, and the two are disjoint, every path has at
/// least `f + b + 1` edges (a shorter one would have a vertex in both
/// balls); a vertex labelled `f + 1` from one side that the other side
/// already holds (at depth ≤ `b`) closes a path of at most that length.
fn search(
    sides: &mut [Side; 2],
    forward: &Csr,
    backward: &Csr,
    source: u32,
    dest: u32,
    want_path: bool,
) -> (Option<(u32, Vec<u32>)>, usize) {
    debug_assert_eq!(backward.num_vertices(), forward.num_vertices());
    if source == dest {
        return (Some((0, Vec::new())), 1);
    }
    sides.clear();
    let n = forward.num_vertices() as usize;
    let [fwd, bwd] = sides;
    for (side, root) in [(&mut *fwd, source), (&mut *bwd, dest)] {
        side.dist.fit(n);
        side.via.fit(n);
        side.dist.set(root, 0);
        side.frontier.push(root);
    }

    let mut meet = None;
    'search: while !fwd.frontier.is_empty() && !bwd.frontier.is_empty() {
        // Expand the smaller frontier (classic balancing heuristic).
        let (graph, mine, other) = if fwd.frontier.len() <= bwd.frontier.len() {
            (forward, &mut *fwd, &*bwd)
        } else {
            (backward, &mut *bwd, &*fwd)
        };
        let Side { dist, via, frontier, next } = mine;
        for &u in frontier.iter() {
            let du = dist[u as usize];
            for (slot, v) in graph.neighbors(u) {
                let vi = v as usize;
                if dist[vi] != u32::MAX {
                    continue;
                }
                dist.set(v, du + 1);
                via.set_along(v, (u, graph.edge_row(slot)));
                if other.dist[vi] != u32::MAX {
                    meet = Some(v);
                    break 'search;
                }
                next.push(v);
            }
        }
        std::mem::swap(frontier, next);
        next.clear();
    }

    let settled = fwd.dist.labelled() + bwd.dist.labelled();
    let Some(meet) = meet else {
        return (None, settled);
    };
    let dist = fwd.dist[meet as usize] + bwd.dist[meet as usize];
    if !want_path {
        return (Some((dist, Vec::new())), settled);
    }
    // Stitch: source ~> meet (forward parents, reversed walk), then
    // meet ~> dest (backward parents walk forward).
    let mut path = Vec::with_capacity(dist as usize);
    for (side, root) in [(&*fwd, source), (&*bwd, dest)] {
        let mut v = meet;
        while v != root {
            let (parent, row) = side.via[v as usize];
            path.push(row);
            v = parent;
        }
        if root == source {
            path.reverse(); // the forward walk runs meet → source
        }
    }
    (Some((dist, path)), settled)
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

    #[test]
    fn stops_at_the_first_meeting_on_a_dense_graph() {
        // Degree ≈ 16 over 4 000 vertices: a plain BFS labels most of the
        // graph before it finds the destination; two balls that stop the
        // moment they touch label a small fraction of it. The sides are
        // leased from the one pool every other search of this test uses.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2017);
        let n: u32 = 4_000;
        let m = 64_000;
        let src: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
        let dst: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
        let g = Csr::from_edges(n, &src, &dst).unwrap();
        let rev = reverse_csr(&g);
        let (mut bidir_settled, mut bfs_settled) = (0u64, 0u64);
        for _ in 0..50 {
            let s = rng.gen_range(0..n);
            let d = rng.gen_range(0..n);
            let mut uni = crate::bfs::BfsScratch::new();
            crate::bfs::bfs_into(&g, s, &[d], &mut uni);
            bfs_settled += uni.settled_count() as u64;
            match bidirectional_bfs(&g, &rev, s, d) {
                None => assert_eq!(uni.dist[d as usize], u32::MAX, "pair ({s},{d})"),
                Some(r) => {
                    assert_eq!(r.dist, uni.dist[d as usize], "pair ({s},{d})");
                    assert!(r.settled < n, "pair ({s},{d}) labelled {} of {n}", r.settled);
                    bidir_settled += u64::from(r.settled);
                    let mut at = s;
                    for &row in &r.path {
                        assert_eq!(src[row as usize], at);
                        at = dst[row as usize];
                    }
                    assert_eq!(at, d);
                }
            }
        }
        assert!(
            bidir_settled * 4 < bfs_settled,
            "bidirectional labelled {bidir_settled}, early-exit BFS {bfs_settled}"
        );
    }

    #[test]
    fn scratch_survives_graphs_of_different_sizes() {
        // Large, then small, then large again on one thread: labels left by
        // one search must not leak into the next, whatever the arena size.
        let big = Csr::from_edges(6, &[0, 1, 2, 3, 4], &[1, 2, 3, 4, 5]).unwrap();
        let big_rev = reverse_csr(&big);
        let small = Csr::from_edges(2, &[1], &[0]).unwrap();
        let small_rev = reverse_csr(&small);
        assert_eq!(bidirectional_bfs(&big, &big_rev, 0, 5).unwrap().path, vec![0, 1, 2, 3, 4]);
        assert!(bidirectional_bfs(&small, &small_rev, 0, 1).is_none());
        assert_eq!(bidirectional_bfs(&small, &small_rev, 1, 0).unwrap().dist, 1);
        assert!(bidirectional_bfs(&big, &big_rev, 5, 0).is_none());
        assert_eq!(bidirectional_bfs(&big, &big_rev, 2, 4).unwrap().path, vec![2, 3]);
    }
}
