//! Bidirectional upward Dijkstra over a contraction hierarchy, with
//! stall-on-demand.
//!
//! The forward search runs from the source over the upward graph `G↑`, the
//! backward search from the destination over the reversed downward graph
//! `G↓`; both only ever climb in contraction rank. Because every shortest
//! path of the original graph has a cost-equal *up-then-down* shape over
//! the hierarchy, the minimum meeting value `μ = min_v d_f(v) + d_b(v)` is
//! **exactly** the Dijkstra distance — shortcut weights are sums of
//! original integer weights, so no rounding enters anywhere and the result
//! is bit-identical to [`gsql_graph::dijkstra_int`] over the same weights.
//!
//! Two classic prunes keep the searched cone tiny:
//!
//! * a direction stops expanding once its cheapest queue key is at least
//!   `μ` (no undiscovered meeting can improve on it);
//! * **stall-on-demand**: a settled vertex `u` whose label can be strictly
//!   beaten via an *incoming* edge from a higher-ranked, already-labelled
//!   vertex is not expanded — the path through `u` at this label cannot be
//!   part of a shortest up-down path.
//!
//! Its upward step also runs [`ch_many_to_many`](crate::ch_many_to_many).

use crate::ch::{ContractionHierarchy, UpGraph};
use crate::{answer, Side, INF, SCRATCH};
use gsql_graph::{check_vertices, Budget, PairResult, Search, TraversalKind};
use std::cmp::Reverse;

/// The outcome of one CH point-to-point query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChResult {
    /// Exact shortest-path cost, `None` when `dest` is unreachable.
    pub dist: Option<u64>,
    /// Vertices settled across both directions — the effort metric
    /// surfaced by `EXPLAIN ANALYZE` and the `traversal` span.
    pub settled: usize,
}

/// [`ch_query`] as a [`Search`]: one point-to-point query per pair
/// ([`Budget::per_pair`]), each reported as [`TraversalKind::Ch`], then
/// the shape `shortcuts`. Costs only: `want_path` is ignored.
#[derive(Debug, Clone, Copy)]
pub struct ChPoint<'a>(pub &'a ContractionHierarchy);

impl Search for ChPoint<'_> {
    fn run(
        &self,
        pairs: &[(u32, u32)],
        budget: &Budget<'_>,
        _want_path: bool,
    ) -> gsql_graph::Result<Vec<PairResult>> {
        let ch = self.0;
        check_vertices(pairs, ch.num_vertices())?;
        let results = budget.per_pair(
            pairs,
            TraversalKind::Ch,
            || (),
            |(), s, d| {
                let r = ch_query(ch, s, d);
                (answer(r.dist.unwrap_or(INF)), r.settled)
            },
        )?;
        budget.shape("shortcuts", ch.shortcuts());
        Ok(results)
    }
}

/// Exact shortest-path cost from `source` to `dest` over the hierarchy.
pub fn ch_query(ch: &ContractionHierarchy, source: u32, dest: u32) -> ChResult {
    let n = ch.num_vertices() as usize;
    if source as usize >= n || dest as usize >= n {
        return ChResult { dist: None, settled: 0 };
    }
    if source == dest {
        return ChResult { dist: Some(0), settled: 0 };
    }
    let mut scratch = SCRATCH.lease();
    let [fwd, bwd] = &mut scratch.sides;
    fwd.start(n, source, 0);
    bwd.start(n, dest, 0);

    let mut mu = INF;
    loop {
        // A direction is live while it still holds keys below μ.
        let live =
            |side: &Side<u64>| side.heap.peek().map(|Reverse((d, _))| *d).filter(|&d| d < mu);
        let forward_turn = match (live(fwd), live(bwd)) {
            (None, None) => break,
            // Both live: expand the cheaper frontier (forward on ties).
            (Some(df), Some(db)) => df <= db,
            (forward, _) => forward.is_some(),
        };
        let (mine, other, graph, stall_graph) = if forward_turn {
            (&mut *fwd, &*bwd, &ch.fwd_up, &ch.bwd_up)
        } else {
            (&mut *bwd, &*fwd, &ch.bwd_up, &ch.fwd_up)
        };
        let Some((u, du, _)) = mine.upward_step(graph, stall_graph) else { continue };
        // Any labelled meeting point yields a real up-down path; tentative
        // labels on the other side only ever shrink, so μ stays an upper
        // bound that ends exact (an unlabelled one saturates to INF).
        mu = mu.min(du.saturating_add(other.dist[u as usize]));
    }
    let settled = fwd.settled + bwd.settled;
    ChResult { dist: (mu != INF).then_some(mu), settled }
}

impl Side<u64> {
    /// Pop the cheapest queued vertex `u` (`None`: a stale entry), settle
    /// it at `du` and, unless a labelled neighbour in `stall_graph`
    /// strictly beats `du` (stall-on-demand), relax its edges in `graph`
    /// (a settled vertex's label never improves). Returns
    /// `(u, du, stalled)`.
    pub(crate) fn upward_step(
        &mut self,
        graph: &UpGraph,
        stall_graph: &UpGraph,
    ) -> Option<(u32, u64, bool)> {
        let Reverse((du, u)) = self.heap.pop()?;
        if du > self.dist[u as usize] {
            return None; // stale entry
        }
        self.settled += 1;
        // An unlabelled neighbour saturates to INF, which beats nothing.
        let stalled =
            stall_graph.neighbors(u).any(|(w, wt)| self.dist[w as usize].saturating_add(wt) < du);
        if !stalled {
            for (v, wt) in graph.neighbors(u) {
                let nd = du.saturating_add(wt);
                if nd < self.dist[v as usize] {
                    self.dist.set(v, nd);
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
        Some((u, du, stalled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ch::ContractionHierarchy;
    use gsql_graph::{dijkstra_int, Csr};

    #[test]
    fn long_chain_settles_few_vertices() {
        // A 400-vertex chain: plain Dijkstra from one end settles every
        // vertex up to the target; the hierarchy settles a logarithmic
        // cone from both ends.
        let n = 400u32;
        let src: Vec<u32> = (0..n - 1).collect();
        let dst: Vec<u32> = (1..n).collect();
        let g = Csr::from_edges(n, &src, &dst).unwrap();
        let ch = ContractionHierarchy::build(&g, None, 2);
        let r = ch_query(&ch, 0, 399);
        assert_eq!(r.dist, Some(399));
        assert!(r.settled <= 64, "hierarchy failed to prune: {}", r.settled);
        assert_eq!(ch_query(&ch, 399, 0).dist, None);
    }

    #[test]
    fn grid_matches_dijkstra_everywhere() {
        // A 12x12 bidirectional grid with deterministic pseudo-weights.
        let side = 12u32;
        let n = side * side;
        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut raw = Vec::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    for (a, b) in [(v, v + 1), (v + 1, v)] {
                        src.push(a);
                        dst.push(b);
                        raw.push((next() % 9 + 1) as i64);
                    }
                }
                if r + 1 < side {
                    for (a, b) in [(v, v + side), (v + side, v)] {
                        src.push(a);
                        dst.push(b);
                        raw.push((next() % 9 + 1) as i64);
                    }
                }
            }
        }
        let g = Csr::from_edges(n, &src, &dst).unwrap();
        let wf = g.permute_weights_int(&raw).unwrap();
        let ch = ContractionHierarchy::build(&g, Some(&wf), 4);
        for s in [0u32, 17, 77, n - 1] {
            let truth = dijkstra_int(&g, s, &[], &wf).dist;
            for d in 0..n {
                let r = ch_query(&ch, s, d);
                assert_eq!(r.dist, Some(truth[d as usize]), "pair ({s}, {d})");
            }
        }
    }
}
