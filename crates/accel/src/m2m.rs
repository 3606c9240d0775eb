//! Batched many-to-many acceleration: bucket-based CH (Knopp et al.,
//! ALENEX'07) and multi-target ALT.
//!
//! # Bucket-based many-to-many CH
//!
//! A point-to-point CH query runs one upward search from each endpoint and
//! takes the best meeting vertex. For an `S × T` matrix the backward halves
//! only depend on the target, so they can be shared across every source:
//!
//! 1. **Bucket phase** — one backward upward search per distinct target
//!    `t`, depositing `(t, d_b(v, t))` into a per-vertex *bucket* at every
//!    (unstalled) settled vertex `v`;
//! 2. **Scan phase** — one forward upward search per distinct source `s`;
//!    at every settled vertex `v` the bucket entries are scanned and
//!    `best[t] = min(best[t], d_f(s, v) + d_b(v, t))` updated.
//!
//! Every shortest path is cost-equal to an up-then-down path over the
//! hierarchy, so the minimum over meeting vertices is **exact** — the whole
//! matrix costs `S + T` upward searches instead of `S` full Dijkstras, and
//! each entry is bit-identical to plain Dijkstra over the same weights.
//! Stall-on-demand applies unchanged: a label that a higher-ranked
//! neighbour strictly beats lies on no shortest up-down path, so stalled
//! vertices neither deposit nor scan buckets.
//!
//! # Multi-target ALT
//!
//! The fallback tier for landmark indexes runs **one** goal-directed
//! forward search per source. The potential is the per-target minimum of
//! the landmark lower bounds, aggregated per landmark over the target set
//! (`min_t lb(v, t) ≥ max_i max(min_t d(Lᵢ,t) − d(Lᵢ,v), d(v,Lᵢ) −
//! max_t d(t,Lᵢ))`), which is consistent — the minimum (and maximum) of
//! consistent potentials is consistent — so every settled vertex carries
//! its exact Dijkstra distance and each target is exact the moment it
//! settles. A vertex whose aggregated bound is [`INF`] provably reaches no
//! target at all and is pruned. Unlike the bidirectional point-to-point
//! formulation no doubling is needed: a unidirectional consistent A\*
//! reads distances straight off the labels.
//!
//! Both drivers fan out through [`Budget::fan_out`] — bucket construction
//! over targets, forward scans and multi-target searches over sources —
//! each worker on one leased scratch, results merged in input order, so
//! the matrix is bit-identical at every thread count. The deadline is
//! polled between per-vertex searches (the "bucket phases"), like every
//! other search; an expired one is [`GraphError::DeadlineExceeded`].

use crate::ch::ContractionHierarchy;
use crate::landmarks::Landmarks;
use crate::{answer, potential, Scratch, Side, INF, SCRATCH};
use gsql_graph::{check_vertices, Budget, Csr, GraphError, PairResult, Search, TraversalKind};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One many-to-many distance matrix.
#[derive(Debug, Clone)]
pub struct M2mResult {
    /// Row-major `|sources| × |targets|` exact distances; [`INF`] when the
    /// pair is disconnected.
    pub dist: Vec<u64>,
    /// Vertices settled across every search of both phases.
    pub settled: usize,
    /// Total `(target, dist)` bucket entries deposited — the sharing
    /// metric surfaced by `EXPLAIN ANALYZE`.
    pub bucket_entries: usize,
}

impl M2mResult {
    /// The matrix entry for `(source index, target index)`.
    #[inline]
    pub fn dist(&self, si: usize, ti: usize, num_targets: usize) -> u64 {
        self.dist[si * num_targets + ti]
    }
}

/// The full `sources × targets` distance matrix over a contraction
/// hierarchy, via target buckets: `|targets|` backward and `|sources|`
/// forward upward searches, both phases fanned out over a pool of
/// `threads` workers. Fails with [`GraphError::DeadlineExceeded`] when
/// `deadline` expires between per-vertex searches; the result is
/// bit-identical at every thread count.
pub fn ch_many_to_many(
    ch: &ContractionHierarchy,
    sources: &[u32],
    targets: &[u32],
    threads: usize,
    deadline: Option<Instant>,
) -> Result<M2mResult, GraphError> {
    let n = ch.num_vertices() as usize;
    if sources.is_empty() || targets.is_empty() {
        return Ok(M2mResult { dist: Vec::new(), settled: 0, bucket_entries: 0 });
    }
    debug_assert!(sources.iter().chain(targets).all(|&v| (v as usize) < n));
    let budget = Budget { threads, deadline, observer: None };
    // Exhaustive upward search from `root`: `emit(v, d)` at every settled,
    // unstalled vertex (the possible apexes). Returns the settled count.
    let upward =
        |scratch: &mut Scratch<u64>, graph, stall_graph, root, emit: &mut dyn FnMut(u32, u64)| {
            let side = &mut scratch.sides[0];
            side.start(n, root, 0);
            while !side.heap.is_empty() {
                if let Some((v, d, false)) = side.upward_step(graph, stall_graph) {
                    emit(v, d);
                }
            }
            side.settled
        };

    // Bucket phase: each backward search collects its deposits locally;
    // the merge sorts them by (vertex, target index), so bucket contents
    // are independent of the thread count (and the min-fold below is
    // order-independent anyway).
    let per_target: Vec<(Vec<(u32, u64)>, usize)> = budget.fan_out(
        targets.len(),
        || SCRATCH.lease(),
        |scratch, ti| {
            let mut deposits = Vec::new();
            let settled = upward(scratch, &ch.bwd_up, &ch.fwd_up, targets[ti], &mut |v, d| {
                deposits.push((v, d))
            });
            (deposits, settled)
        },
    )?;
    let mut settled: usize = per_target.iter().map(|(_, s)| s).sum();
    let mut buckets: Vec<(u32, u32, u64)> = (per_target.iter().enumerate())
        .flat_map(|(ti, (deposits, _))| deposits.iter().map(move |&(v, d)| (v, ti as u32, d)))
        .collect();
    buckets.sort_unstable();

    // Scan phase: one forward upward search per source, reading the
    // (now immutable) bucket of every unstalled settled vertex.
    let num_targets = targets.len();
    let rows: Vec<(Vec<u64>, usize)> = budget.fan_out(
        sources.len(),
        || SCRATCH.lease(),
        |scratch, si| {
            let mut row = vec![INF; num_targets];
            let settled = upward(scratch, &ch.fwd_up, &ch.bwd_up, sources[si], &mut |v, d| {
                let first = buckets.partition_point(|&(b, _, _)| b < v);
                for &(_, ti, bd) in buckets[first..].iter().take_while(|&&(b, _, _)| b == v) {
                    let best = &mut row[ti as usize];
                    *best = (*best).min(d.saturating_add(bd));
                }
            });
            (row, settled)
        },
    )?;
    let mut dist = Vec::with_capacity(sources.len() * num_targets);
    for (row, s) in rows {
        settled += s;
        dist.extend_from_slice(&row);
    }
    Ok(M2mResult { dist, settled, bucket_entries: buckets.len() })
}

/// [`ch_many_to_many`] as a [`Search`]: the matrix of the batch's distinct
/// sources × distinct targets, read back per pair, reported as one
/// [`TraversalKind::ChM2m`] traversal (every search of both phases) and
/// the shape `buckets` (entries deposited). Costs only: `want_path` is
/// ignored.
#[derive(Debug, Clone, Copy)]
pub struct ChM2m<'a>(pub &'a ContractionHierarchy);

impl Search for ChM2m<'_> {
    fn run(
        &self,
        pairs: &[(u32, u32)],
        budget: &Budget<'_>,
        _want_path: bool,
    ) -> gsql_graph::Result<Vec<PairResult>> {
        check_vertices(pairs, self.0.num_vertices())?;
        let distinct = |end: fn(&(u32, u32)) -> u32| {
            let mut ids: Vec<u32> = pairs.iter().map(end).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let (sources, targets) = (distinct(|p| p.0), distinct(|p| p.1));
        let m = ch_many_to_many(self.0, &sources, &targets, budget.threads, budget.deadline)?;
        budget.traversal(TraversalKind::ChM2m, m.settled);
        budget.shape("buckets", m.bucket_entries);
        let rank = |ids: &[u32], id: u32| ids.binary_search(&id).expect("id collected above");
        Ok(pairs
            .iter()
            .map(|&(s, d)| answer(m.dist(rank(&sources, s), rank(&targets, d), targets.len())))
            .collect())
    }
}

/// Per-landmark aggregates of the lower bounds over one target set; `O(k)`
/// per [`MultiTargetBounds::potential`] call, independent of `|targets|`.
pub struct MultiTargetBounds {
    /// `min_t d(Lᵢ, t)` — [`INF`] when landmark `i` reaches no target.
    tmin_fwd: Vec<u64>,
    /// `max_t d(t, Lᵢ)`, meaningful only when `bwd_all_finite[i]`.
    tmax_bwd: Vec<u64>,
    /// True when every target reaches landmark `i` — then a vertex that
    /// does not is provably disconnected from all of them.
    bwd_all_finite: Vec<bool>,
}

impl MultiTargetBounds {
    /// Aggregate `landmarks` over `targets`.
    pub fn new(landmarks: &Landmarks, targets: &[u32]) -> MultiTargetBounds {
        let k = landmarks.len();
        let mut tmin_fwd = vec![INF; k];
        let mut tmax_bwd = vec![0u64; k];
        let mut bwd_all_finite = vec![true; k];
        let (fwd, bwd) = landmarks.vectors();
        for i in 0..k {
            for &t in targets {
                let ti = t as usize;
                tmin_fwd[i] = tmin_fwd[i].min(fwd[i][ti]);
                if bwd[i][ti] == INF {
                    bwd_all_finite[i] = false;
                } else {
                    tmax_bwd[i] = tmax_bwd[i].max(bwd[i][ti]);
                }
            }
        }
        MultiTargetBounds { tmin_fwd, tmax_bwd, bwd_all_finite }
    }

    /// A consistent lower bound on the distance from `v` to its *nearest*
    /// target; [`INF`] when some landmark proves `v` reaches no target.
    pub fn potential(&self, landmarks: &Landmarks, v: u32) -> u64 {
        let (fwd, bwd) = landmarks.vectors();
        let vi = v as usize;
        let mut best = 0u64;
        for i in 0..self.tmin_fwd.len() {
            // min_t (d(L, t) − d(L, v)): useful only when L reaches v; if L
            // reaches v but no target, no target is reachable from v.
            let lv = fwd[i][vi];
            if lv != INF {
                if self.tmin_fwd[i] == INF {
                    return INF;
                }
                best = best.max(self.tmin_fwd[i].saturating_sub(lv));
            }
            // min_t (d(v, L) − d(t, L)): needs every target to reach L; a
            // vertex that cannot reach L then cannot reach any target.
            if self.bwd_all_finite[i] {
                let vl = bwd[i][vi];
                if vl == INF {
                    return INF;
                }
                best = best.max(vl.saturating_sub(self.tmax_bwd[i]));
            }
        }
        best
    }
}

/// One goal-directed forward search from `source` answering every target at
/// once: the exact distance per target (input order, duplicates answered
/// individually; [`INF`] when unreachable) and the vertices settled.
/// `weights` are `forward`'s per-slot weights (`None` = unit); the
/// potential is consistent, so every answered distance is bit-identical to
/// plain Dijkstra. The search stops as soon as all distinct targets are
/// settled (or proven unreachable by heap exhaustion / an [`INF`] bound).
pub fn alt_multi_target(
    forward: &Csr,
    weights: Option<&[i64]>,
    landmarks: &Landmarks,
    source: u32,
    targets: &[u32],
) -> (Vec<u64>, usize) {
    let n = forward.num_vertices() as usize;
    let bounds = MultiTargetBounds::new(landmarks, targets);
    let mut scratch = SCRATCH.lease();
    let Scratch { sides: [side, _], potentials: [pi, _] } = &mut *scratch;
    pi.fit(n);
    let mut bound = |v: u32| potential(pi, v, |v| bounds.potential(landmarks, v));
    let source_potential = bound(source);
    if source_potential == INF {
        // A landmark proves the source disconnected from every target.
        return (vec![INF; targets.len()], 0);
    }
    let mut pending = targets.to_vec();
    pending.sort_unstable();
    pending.dedup();
    let mut remaining = pending.len();

    // Keys are d(v) + π(v); π never exceeds any real target distance, so
    // saturating adds cannot disturb finite answers.
    side.start(n, source, source_potential);
    let Side { dist, heap, settled } = side;
    while let Some(Reverse((key, u))) = heap.pop() {
        let ui = u as usize;
        if key > dist[ui].saturating_add(bound(u)) {
            continue; // stale entry
        }
        *settled += 1;
        if pending.binary_search(&u).is_ok() {
            remaining -= 1;
            if remaining == 0 {
                break; // every distinct target has its exact distance
            }
        }
        let du = dist[ui];
        for (slot, v) in forward.neighbors(u) {
            let vi = v as usize;
            let w = weights.map_or(1, |ws| ws[slot] as u64);
            let nd = du.saturating_add(w);
            if nd >= dist[vi] {
                continue;
            }
            let p = bound(v);
            if p == INF {
                continue; // provably reaches no target: on no useful path
            }
            dist.set(v, nd);
            heap.push(Reverse((nd.saturating_add(p), v)));
        }
    }
    // Every distinct target was settled, or the heap ran dry and every
    // labelled vertex was: a target's label is its answer.
    (targets.iter().map(|&t| dist[t as usize]).collect(), *settled)
}

/// [`alt_multi_target`] as a [`Search`]: one multi-target search per
/// distinct source over exactly that source's targets, fanned out over the
/// budget's workers and reported as one [`TraversalKind::AltMulti`]
/// traversal (every search's settled vertices), then the shape
/// `landmarks = k`. Costs only: `want_path` is ignored.
#[derive(Debug, Clone, Copy)]
pub struct AltMulti<'a> {
    /// The graph.
    pub forward: &'a Csr,
    /// Its slot weights (`None` = unit).
    pub weights: Option<&'a [i64]>,
    /// The landmark index built over it.
    pub landmarks: &'a Landmarks,
}

impl Search for AltMulti<'_> {
    fn run(
        &self,
        pairs: &[(u32, u32)],
        budget: &Budget<'_>,
        _want_path: bool,
    ) -> gsql_graph::Result<Vec<PairResult>> {
        let AltMulti { forward, weights, landmarks } = *self;
        check_vertices(pairs, forward.num_vertices())?;
        let settled = AtomicUsize::new(0);
        let results = budget.per_source(
            pairs,
            || (),
            |(), source, targets| {
                let (dist, searched) =
                    alt_multi_target(forward, weights, landmarks, source, targets);
                settled.fetch_add(searched, Ordering::Relaxed);
                Ok(dist.into_iter().map(answer).collect())
            },
        )?;
        budget.traversal(TraversalKind::AltMulti, settled.into_inner());
        budget.shape("landmarks", landmarks.len());
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AltPoint, ChPoint};
    use gsql_graph::{dijkstra_int, reverse_csr};
    use std::time::Duration;

    /// 0->1, 0->2, 1->3, 2->3, 3->4 — the workspace's diamond.
    fn diamond() -> Csr {
        Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap()
    }

    fn truth_matrix(
        g: &Csr,
        weights: Option<&[i64]>,
        sources: &[u32],
        targets: &[u32],
    ) -> Vec<u64> {
        let unit;
        let w = match weights {
            Some(w) => w,
            None => {
                unit = vec![1i64; g.num_edges()];
                &unit
            }
        };
        let mut out = Vec::new();
        for &s in sources {
            let d = dijkstra_int(g, s, &[], w).dist;
            for &t in targets {
                out.push(d[t as usize]);
            }
        }
        out
    }

    /// `search` over the pairs `sources × targets` (row-major), as exact
    /// distances with [`INF`] for unreachable pairs.
    fn matrix(search: &dyn Search, sources: &[u32], targets: &[u32], threads: usize) -> Vec<u64> {
        let pairs: Vec<(u32, u32)> =
            sources.iter().flat_map(|&s| targets.iter().map(move |&t| (s, t))).collect();
        let budget = Budget { threads, ..Budget::default() };
        let results = search.run(&pairs, &budget, false).unwrap();
        results.iter().map(|r| r.cost.map_or(INF, |c| c.as_f64() as u64)).collect()
    }

    #[test]
    fn ch_matrix_matches_dijkstra_on_diamond() {
        let g = diamond();
        let raw = [10i64, 1, 1, 1, 1];
        let wf = g.permute_weights_int(&raw).unwrap();
        let ch = ContractionHierarchy::build(&g, Some(&wf), 1);
        let sources = [0u32, 1, 4, 0];
        let targets = [3u32, 4, 0, 3];
        let truth = truth_matrix(&g, Some(&wf), &sources, &targets);
        for threads in [1, 4] {
            assert_eq!(
                matrix(&ChM2m(&ch), &sources, &targets, threads),
                truth,
                "threads {threads}"
            );
            let m = ch_many_to_many(&ch, &sources, &targets, threads, None).unwrap();
            assert_eq!(m.dist, truth, "threads {threads}");
            assert!(m.bucket_entries > 0);
        }
    }

    #[test]
    fn alt_matrix_matches_dijkstra_on_diamond() {
        let g = diamond();
        let r = reverse_csr(&g);
        let raw = [10i64, 1, 1, 1, 1];
        let wf = g.permute_weights_int(&raw).unwrap();
        let wb = r.permute_weights_int(&raw).unwrap();
        let lm = Landmarks::build(&g, &r, Some((&wf, &wb)), 3, 1);
        let sources = [0u32, 1, 4, 0];
        let targets = [3u32, 4, 0, 3];
        let truth = truth_matrix(&g, Some(&wf), &sources, &targets);
        let alt = AltMulti { forward: &g, weights: Some(&wf), landmarks: &lm };
        for threads in [1, 4] {
            assert_eq!(matrix(&alt, &sources, &targets, threads), truth, "threads {threads}");
        }
    }

    #[test]
    fn self_pairs_and_unreachable_pairs() {
        let g = diamond();
        let r = reverse_csr(&g);
        let ch = ContractionHierarchy::build(&g, None, 1);
        let lm = Landmarks::build(&g, &r, None, 2, 1);
        let sources = [4u32, 0];
        let targets = [4u32, 0];
        // 4 reaches only itself; 0 reaches everything but nothing reaches 0.
        let expected = vec![0, INF, 3, 0];
        let alt = AltMulti { forward: &g, weights: None, landmarks: &lm };
        assert_eq!(matrix(&ChM2m(&ch), &sources, &targets, 1), expected);
        assert_eq!(matrix(&alt, &sources, &targets, 1), expected);
    }

    #[test]
    fn multi_target_search_answers_duplicate_targets() {
        let g = diamond();
        let r = reverse_csr(&g);
        let lm = Landmarks::build(&g, &r, None, 2, 1);
        let (dist, _) = alt_multi_target(&g, None, &lm, 0, &[4, 3, 4, 0]);
        assert_eq!(dist, vec![3, 2, 3, 0]);
    }

    #[test]
    fn empty_sides_yield_empty_matrices() {
        let g = diamond();
        let r = reverse_csr(&g);
        let ch = ContractionHierarchy::build(&g, None, 1);
        let lm = Landmarks::build(&g, &r, None, 2, 1);
        assert!(ch_many_to_many(&ch, &[], &[0], 2, None).unwrap().dist.is_empty());
        assert!(ch_many_to_many(&ch, &[0], &[], 2, None).unwrap().dist.is_empty());
        let alt = AltMulti { forward: &g, weights: None, landmarks: &lm };
        assert!(matrix(&ChM2m(&ch), &[], &[0], 2).is_empty());
        assert!(matrix(&alt, &[0], &[], 2).is_empty());
    }

    /// The one deadline shape every search shares: a past deadline is
    /// `DeadlineExceeded` at one worker and at four — the point searches
    /// included — and a far one changes nothing.
    #[test]
    fn every_accelerated_search_times_out_on_a_past_deadline() {
        let g = diamond();
        let r = reverse_csr(&g);
        let ch = ContractionHierarchy::build(&g, None, 1);
        let lm = Landmarks::build(&g, &r, None, 2, 1);
        let alt = AltPoint { forward: &g, backward: &r, weights: None, landmarks: &lm };
        let alt_multi = AltMulti { forward: &g, weights: None, landmarks: &lm };
        let searches: [&dyn Search; 4] = [&alt, &ChPoint(&ch), &alt_multi, &ChM2m(&ch)];
        for (i, search) in searches.into_iter().enumerate() {
            for threads in [1, 4] {
                let past = Instant::now() - Duration::from_millis(1);
                let budget = Budget { threads, deadline: Some(past), observer: None };
                let err = search.run(&[(0, 4)], &budget, false).unwrap_err();
                assert_eq!(err, GraphError::DeadlineExceeded, "search {i} threads {threads}");
                let far = Budget { deadline: Some(past + Duration::from_secs(3600)), ..budget };
                let cost = search.run(&[(0, 4)], &far, false).unwrap()[0].cost;
                assert_eq!(cost.map(|c| c.as_f64()), Some(3.0), "search {i} threads {threads}");
            }
        }
        let past = Some(Instant::now() - Duration::from_millis(1));
        let err = ch_many_to_many(&ch, &[0], &[4], 4, past).unwrap_err();
        assert_eq!(err, GraphError::DeadlineExceeded);
    }
}
