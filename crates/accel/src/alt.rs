//! Goal-directed bidirectional A\* over landmark lower bounds.
//!
//! The symmetric formulation of Goldberg & Harrelson: with a forward
//! potential `πf(v) = lb(v, t)` and a backward potential `πb(v) = lb(s, v)`
//! the *average* potential pair `pf = (πf − πb)/2`, `pb = −pf` is consistent
//! for both searches simultaneously, which reduces the whole problem to
//! bidirectional Dijkstra over reduced edge costs — with the classic
//! termination rule `top_f + top_b ≥ μ`.
//!
//! To keep every quantity an exact integer the implementation works in
//! **doubled** space: distances are `2·d`, potentials enter keys as
//! `πf − πb` (never halved). Meeting-point values `μ = 2·d_f(v) + 2·d_b(v)`
//! have the potentials cancelled out, so the final answer is exactly
//! `μ / 2` — bit-identical to what plain Dijkstra computes over the same
//! weights.
//!
//! Two prunes fall out of the landmark bounds for free:
//!
//! * a vertex whose forward potential is [`INF`] provably cannot reach the
//!   destination and is never expanded (it cannot lie on any `s → t` path);
//! * symmetrically, a vertex the source provably cannot reach is never
//!   expanded backwards.
//!
//! Potentials are memoized per search, as in [`crate::alt_multi_target`].

use crate::landmarks::Landmarks;
use crate::{answer, potential, Scratch, ALT_SCRATCH, INF};
use gsql_graph::{check_vertices, Budget, Csr, PairResult, Search, TraversalKind};
use std::cmp::Reverse;

/// The outcome of one ALT point-to-point search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AltResult {
    /// Exact shortest-path cost, `None` when `dest` is unreachable.
    pub dist: Option<u64>,
    /// Vertices settled across both directions — the pruning metric
    /// surfaced by `EXPLAIN ANALYZE` and the `alt_speedup` bench.
    pub settled: usize,
}

/// [`alt_bidirectional`] as a [`Search`]: one point-to-point search per
/// pair ([`Budget::per_pair`]), each reported as [`TraversalKind::Alt`],
/// then the shape `landmarks = k`. Costs only: `want_path` is ignored.
#[derive(Debug, Clone, Copy)]
pub struct AltPoint<'a> {
    /// The graph.
    pub forward: &'a Csr,
    /// Its reversal.
    pub backward: &'a Csr,
    /// Both graphs' slot weights (`None` = unit), as for
    /// [`alt_bidirectional`].
    pub weights: Option<(&'a [i64], &'a [i64])>,
    /// The landmark index built over them.
    pub landmarks: &'a Landmarks,
}

impl Search for AltPoint<'_> {
    fn run(
        &self,
        pairs: &[(u32, u32)],
        budget: &Budget<'_>,
        _want_path: bool,
    ) -> gsql_graph::Result<Vec<PairResult>> {
        let AltPoint { forward, backward, weights, landmarks } = *self;
        check_vertices(pairs, forward.num_vertices())?;
        let results = budget.per_pair(
            pairs,
            TraversalKind::Alt,
            || (),
            |(), s, d| {
                let r = alt_bidirectional(forward, backward, weights, landmarks, s, d);
                (answer(r.dist.unwrap_or(INF)), r.settled)
            },
        )?;
        budget.shape("landmarks", landmarks.len());
        Ok(results)
    }
}

/// Bidirectional A\* from `source` to `dest` over `forward` and its
/// reversal `backward`, guided by `landmarks`.
///
/// `weights` holds the per-CSR-slot weight arrays of the two graphs
/// (`None` = unit weights), validated strictly positive — the same arrays
/// the landmark index was built from. The returned distance is exactly the
/// Dijkstra distance (hop count when unweighted).
pub fn alt_bidirectional(
    forward: &Csr,
    backward: &Csr,
    weights: Option<(&[i64], &[i64])>,
    landmarks: &Landmarks,
    source: u32,
    dest: u32,
) -> AltResult {
    let n = forward.num_vertices() as usize;
    debug_assert_eq!(backward.num_vertices() as usize, n);
    if source == dest {
        return AltResult { dist: Some(0), settled: 0 };
    }
    let mut scratch = ALT_SCRATCH.lease();
    let Scratch { sides: [fwd, bwd], potentials: [pi_f, pi_b] } = &mut *scratch;
    // π potentials, lazily evaluated: πf(v) = lb(v, t), πb(v) = lb(s, v).
    pi_f.fit(n);
    pi_b.fit(n);
    let eval_f = |v: u32| landmarks.lower_bound(v, dest);
    let eval_b = |v: u32| landmarks.lower_bound(source, v);
    if potential(pi_f, source, eval_f) == INF {
        // A landmark proves the pair disconnected: zero search effort.
        return AltResult { dist: None, settled: 0 };
    }

    // Distances are doubled (2·d). Keys live in the doubled reduced space:
    // key_f(v) = 2·d_f(v) + P(v), key_b(v) = 2·d_b(v) − P(v) with
    // P(v) = πf(v) − πb(v). Consistency of the average potentials keeps
    // popped keys non-decreasing; i128 rules out any overflow concern.
    let p_source =
        potential(pi_f, source, eval_f) as i128 - potential(pi_b, source, eval_b) as i128;
    let p_dest = potential(pi_f, dest, eval_f) as i128 - potential(pi_b, dest, eval_b) as i128;
    fwd.start(n, source, p_source);
    bwd.start(n, dest, -p_dest);

    // Best doubled meeting cost: μ = min over meets v of 2·d_f(v) + 2·d_b(v).
    let mut mu = INF;

    // When either heap empties, that search has settled every vertex it
    // can reach, so any optimal path already produced its meeting point
    // and μ is final — the loop ends.
    while let (Some(Reverse((tf, _))), Some(Reverse((tb, _)))) = (fwd.heap.peek(), bwd.heap.peek())
    {
        let (top_f, top_b) = (*tf, *tb);
        // Classic bidirectional stop: no undiscovered path can beat μ once
        // the two frontiers' keys add up past it. (Stale keys only delay
        // the stop, never trigger it early.)
        if mu != INF && top_f + top_b >= mu as i128 {
            break;
        }
        let forward_turn = top_f <= top_b;
        let (graph, mine, other) =
            if forward_turn { (forward, &mut *fwd, &*bwd) } else { (backward, &mut *bwd, &*fwd) };
        let Some(Reverse((key, u))) = mine.heap.pop() else { break };
        let du = mine.dist[u as usize];
        // The potentials of a labelled vertex are memoized: no evaluation.
        let p_u = potential(pi_f, u, eval_f) as i128 - potential(pi_b, u, eval_b) as i128;
        if key > du as i128 + if forward_turn { p_u } else { -p_u } {
            continue; // stale entry
        }
        mine.settled += 1;
        // The potentials are consistent: a settled label never improves.
        for (slot, v) in graph.neighbors(u) {
            let vi = v as usize;
            let w = match weights {
                None => 1,
                Some((wf, wb)) => (if forward_turn { wf[slot] } else { wb[slot] }) as u64,
            };
            let nd = du + 2 * w;
            if nd >= mine.dist[vi] {
                continue;
            }
            // Goal-direction prunes: a vertex that provably cannot reach
            // the destination (forward) or be reached from the source
            // (backward) lies on no s→t path.
            let pf_v = potential(pi_f, v, eval_f);
            let pb_v = potential(pi_b, v, eval_b);
            if (forward_turn && pf_v == INF) || (!forward_turn && pb_v == INF) {
                continue;
            }
            mine.dist.set(v, nd);
            if other.dist[vi] != INF {
                mu = mu.min(nd + other.dist[vi]);
            }
            let p_v = pf_v as i128 - pb_v as i128;
            let key = nd as i128 + if forward_turn { p_v } else { -p_v };
            mine.heap.push(Reverse((key, v)));
        }
    }

    let dist = if mu == INF {
        None
    } else {
        debug_assert_eq!(mu % 2, 0, "doubled distances are always even");
        Some(mu / 2)
    };
    AltResult { dist, settled: fwd.settled + bwd.settled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_graph::{dijkstra_int, reverse_csr};

    fn diamond() -> (Csr, Csr) {
        let g = Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap();
        let r = reverse_csr(&g);
        (g, r)
    }

    fn weights(g: &Csr, r: &Csr, raw: &[i64]) -> (Vec<i64>, Vec<i64>) {
        (g.permute_weights_int(raw).unwrap(), r.permute_weights_int(raw).unwrap())
    }

    #[test]
    fn matches_dijkstra_on_diamond() {
        let (g, r) = diamond();
        let raw = [10i64, 1, 1, 1, 1];
        let (wf, wb) = weights(&g, &r, &raw);
        let lm = Landmarks::build(&g, &r, Some((&wf, &wb)), 3, 1);
        let truth = dijkstra_int(&g, 0, &[], &wf).dist;
        for d in 0..5u32 {
            let alt = alt_bidirectional(&g, &r, Some((&wf, &wb)), &lm, 0, d);
            let expected = truth[d as usize];
            if expected == u64::MAX {
                assert_eq!(alt.dist, None, "dest {d}");
            } else {
                assert_eq!(alt.dist, Some(expected), "dest {d}");
            }
        }
    }

    #[test]
    fn unweighted_matches_hops() {
        let (g, r) = diamond();
        let lm = Landmarks::build(&g, &r, None, 2, 1);
        assert_eq!(alt_bidirectional(&g, &r, None, &lm, 0, 4).dist, Some(3));
        assert_eq!(alt_bidirectional(&g, &r, None, &lm, 0, 0).dist, Some(0));
        let back = alt_bidirectional(&g, &r, None, &lm, 4, 0);
        assert_eq!(back.dist, None);
        // Landmark proof should make the unreachable probe free or cheap.
        assert!(back.settled <= 2, "settled {}", back.settled);
    }

    #[test]
    fn empty_landmarks_degenerate_to_bidirectional_dijkstra() {
        let (g, r) = diamond();
        let lm = Landmarks::build(&g, &r, None, 0, 1);
        assert!(lm.is_empty());
        assert_eq!(alt_bidirectional(&g, &r, None, &lm, 0, 3).dist, Some(2));
        assert_eq!(alt_bidirectional(&g, &r, None, &lm, 1, 2).dist, None);
    }

    #[test]
    fn random_graphs_match_dijkstra_exactly() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..40 {
            let n: u32 = rng.gen_range(2..60);
            let m: usize = rng.gen_range(1..300);
            let src: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
            let dst: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
            let raw: Vec<i64> = (0..m).map(|_| rng.gen_range(1..50)).collect();
            let g = Csr::from_edges(n, &src, &dst).unwrap();
            let r = reverse_csr(&g);
            let (wf, wb) = weights(&g, &r, &raw);
            let k = rng.gen_range(1..6);
            let lm = Landmarks::build(&g, &r, Some((&wf, &wb)), k, 1);
            for _ in 0..12 {
                let s = rng.gen_range(0..n);
                let d = rng.gen_range(0..n);
                let truth = dijkstra_int(&g, s, &[], &wf).dist[d as usize];
                let alt = alt_bidirectional(&g, &r, Some((&wf, &wb)), &lm, s, d);
                let expected = if truth == u64::MAX { None } else { Some(truth) };
                assert_eq!(alt.dist, expected, "case {case} pair ({s}, {d}) k {k}");
            }
        }
    }

    #[test]
    fn settled_counts_shrink_on_a_long_chain() {
        // A 400-vertex chain: Dijkstra from one end settles everything up
        // to the target; ALT with landmarks near both ends should settle
        // far fewer for a nearby target.
        let n = 400u32;
        let src: Vec<u32> = (0..n - 1).collect();
        let dst: Vec<u32> = (1..n).collect();
        let g = Csr::from_edges(n, &src, &dst).unwrap();
        let r = reverse_csr(&g);
        let lm = Landmarks::build(&g, &r, None, 4, 2);
        let alt = alt_bidirectional(&g, &r, None, &lm, 0, 10);
        assert_eq!(alt.dist, Some(10));
        assert!(alt.settled <= 30, "goal direction failed to prune: {}", alt.settled);
    }
}
