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

use crate::ch::ContractionHierarchy;
use crate::{answer, INF};
use gsql_graph::{check_vertices, Budget, PairResult, Search, TraversalKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The outcome of one CH point-to-point query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChResult {
    /// Exact shortest-path cost, `None` when `dest` is unreachable.
    pub dist: Option<u64>,
    /// Vertices settled across both directions — the effort metric
    /// surfaced by `EXPLAIN ANALYZE` and the `traversal` span.
    pub settled: usize,
}

/// [`ch_query`] as a [`Search`]: one point-to-point query per pair over the
/// budget's workers, each reported as [`TraversalKind::Ch`], then the shape
/// `shortcuts`. Costs only: `want_path` is ignored.
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
        let results = budget.fan_out(
            pairs.len(),
            || (),
            |(), i| {
                let r = ch_query(ch, pairs[i].0, pairs[i].1);
                budget.traversal(TraversalKind::Ch, r.settled);
                answer(r.dist.unwrap_or(INF))
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
    let mut dist_f = vec![u64::MAX; n];
    let mut dist_b = vec![u64::MAX; n];
    let mut done_f = vec![false; n];
    let mut done_b = vec![false; n];
    dist_f[source as usize] = 0;
    dist_b[dest as usize] = 0;
    let mut heap_f: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut heap_b: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    heap_f.push(Reverse((0, source)));
    heap_b.push(Reverse((0, dest)));

    let mut mu = u64::MAX;
    let mut settled = 0usize;
    loop {
        // A direction is live while it still holds keys below μ.
        let live = |heap: &BinaryHeap<Reverse<(u64, u32)>>| {
            heap.peek().is_some_and(|Reverse((d, _))| *d < mu)
        };
        let forward_turn = match (live(&heap_f), live(&heap_b)) {
            (false, false) => break,
            (true, false) => true,
            (false, true) => false,
            // Both live: expand the cheaper frontier (forward on ties).
            (true, true) => {
                let Reverse((df, _)) = heap_f.peek().expect("live");
                let Reverse((db, _)) = heap_b.peek().expect("live");
                df <= db
            }
        };
        let (graph, stall_graph, heap, my_dist, other_dist, my_done) = if forward_turn {
            (&ch.fwd_up, &ch.bwd_up, &mut heap_f, &mut dist_f, &dist_b, &mut done_f)
        } else {
            (&ch.bwd_up, &ch.fwd_up, &mut heap_b, &mut dist_b, &dist_f, &mut done_b)
        };
        let Some(Reverse((du, u))) = heap.pop() else { break };
        let ui = u as usize;
        if my_done[ui] {
            continue; // stale entry
        }
        my_done[ui] = true;
        settled += 1;
        // Any labelled meeting point yields a real up-down path; tentative
        // labels on the other side only ever shrink, so μ stays an upper
        // bound that ends exact.
        if other_dist[ui] != u64::MAX {
            mu = mu.min(du.saturating_add(other_dist[ui]));
        }
        // Stall-on-demand: an incoming edge from a labelled higher-ranked
        // vertex that strictly beats `du` proves this label useless.
        if stall_graph.neighbors(u).any(|(w, wt)| {
            let dw = my_dist[w as usize];
            dw != u64::MAX && dw.saturating_add(wt) < du
        }) {
            continue;
        }
        for (v, wt) in graph.neighbors(u) {
            let vi = v as usize;
            let nd = du.saturating_add(wt);
            if nd < my_dist[vi] {
                my_dist[vi] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }

    let dist = if mu == u64::MAX { None } else { Some(mu) };
    ChResult { dist, settled }
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
