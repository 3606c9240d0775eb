//! Landmark selection and distance-vector precomputation.
//!
//! A landmark `L` contributes two triangle-inequality lower bounds on
//! `d(u, v)`:
//!
//! * `d(L, v) − d(L, u)` — from `d(L, v) ≤ d(L, u) + d(u, v)`;
//! * `d(u, L) − d(v, L)` — from `d(u, L) ≤ d(u, v) + d(v, L)`.
//!
//! Both are *feasible potentials* (they never overestimate the remaining
//! distance by more than an edge allows), and the maximum of feasible
//! potentials is feasible, so the bounds can drive A\* directly.
//!
//! Selection uses the classic **farthest-point** heuristic: the first
//! landmark is the highest-out-degree vertex, each next one the vertex
//! farthest (in hops) from all landmarks chosen so far, preferring vertices
//! no chosen landmark can reach at all — this spreads landmarks across the
//! periphery and across weakly connected components, which is where the
//! bounds are tightest. Ties break toward the smallest vertex id, so the
//! selection is fully deterministic.

use crate::INF;
use gsql_graph::{bfs, dijkstra_int, Budget, Csr, GraphError};

/// A built ALT index: `k` landmarks plus their exact forward and backward
/// distance vectors over the whole vertex set.
#[derive(Debug, Clone)]
pub struct Landmarks {
    /// The chosen landmark vertices (dense ids).
    landmarks: Vec<u32>,
    /// `fwd[i][v]` = `d(landmarks[i], v)`, [`INF`] when unreachable.
    fwd: Vec<Vec<u64>>,
    /// `bwd[i][v]` = `d(v, landmarks[i])`, [`INF`] when unreachable.
    bwd: Vec<Vec<u64>>,
}

impl Landmarks {
    /// The largest weight total: ALT adds two doubled distances below [`INF`].
    pub const MAX_WEIGHT_TOTAL: u64 = INF / 4;

    /// Build an index of (up to) `k` landmarks over `forward` and its
    /// reversal `backward`.
    ///
    /// `weights` are the per-CSR-slot weight arrays of the two graphs
    /// (`None` = unit weights / hop distances), exactly as
    /// [`Csr::permute_weights_int`] produces them — already validated
    /// strictly positive. The `2k` exact distance vectors are independent
    /// traversals and fan out over a pool of `threads` workers; the result
    /// is identical for every thread count. No deadline:
    /// [`Landmarks::build_within`] is the bounded form. Panics on weights
    /// above [`Self::MAX_WEIGHT_TOTAL`].
    pub fn build(
        forward: &Csr,
        backward: &Csr,
        weights: Option<(&[i64], &[i64])>,
        k: usize,
        threads: usize,
    ) -> Landmarks {
        let budget = Budget { threads, ..Budget::default() };
        Self::build_within(forward, backward, weights, k, &budget).expect("no deadline was set")
    }

    /// [`Landmarks::build`] on `budget`'s workers, polling its deadline
    /// once per distance vector: a build that outlives it fails with
    /// [`GraphError::DeadlineExceeded`] and returns nothing; weights above
    /// [`Self::MAX_WEIGHT_TOTAL`] with [`GraphError::WeightTotalTooLarge`].
    pub fn build_within(
        forward: &Csr,
        backward: &Csr,
        weights: Option<(&[i64], &[i64])>,
        k: usize,
        budget: &Budget<'_>,
    ) -> Result<Landmarks, GraphError> {
        let n = forward.num_vertices();
        debug_assert_eq!(backward.num_vertices(), n);
        crate::check_total(weights.map(|(f, _)| f), Self::MAX_WEIGHT_TOTAL)?;
        budget.poll()?;
        let landmarks = select_landmarks(forward, k.min(n as usize));
        // One traversal per (landmark, direction): 2k independent tasks.
        let vectors: Vec<Vec<u64>> = budget.fan_out(
            landmarks.len() * 2,
            || (),
            |(), i| {
                let lm = landmarks[i / 2];
                let (graph, w) = if i % 2 == 0 {
                    (forward, weights.map(|(f, _)| f))
                } else {
                    (backward, weights.map(|(_, b)| b))
                };
                distance_vector(graph, lm, w)
            },
        )?;
        let mut fwd = Vec::with_capacity(landmarks.len());
        let mut bwd = Vec::with_capacity(landmarks.len());
        for (i, v) in vectors.into_iter().enumerate() {
            if i % 2 == 0 {
                fwd.push(v);
            } else {
                bwd.push(v);
            }
        }
        Ok(Landmarks { landmarks, fwd, bwd })
    }

    /// The chosen landmark vertices.
    pub fn landmarks(&self) -> &[u32] {
        &self.landmarks
    }

    /// Clone the index into its raw parts `(landmarks, fwd, bwd)` for
    /// serialization.
    pub fn to_parts(&self) -> (Vec<u32>, Vec<Vec<u64>>, Vec<Vec<u64>>) {
        (self.landmarks.clone(), self.fwd.clone(), self.bwd.clone())
    }

    /// Reassemble an index of a graph of `num_vertices` vertices from
    /// serialized parts, validating that every landmark is a vertex with
    /// one forward and one backward vector, each covering exactly those
    /// vertices. The error string names the violated invariant.
    pub fn from_parts(
        num_vertices: u32,
        landmarks: Vec<u32>,
        fwd: Vec<Vec<u64>>,
        bwd: Vec<Vec<u64>>,
    ) -> Result<Landmarks, String> {
        if fwd.len() != landmarks.len() || bwd.len() != landmarks.len() {
            return Err(format!(
                "{} landmarks with {} forward / {} backward vectors",
                landmarks.len(),
                fwd.len(),
                bwd.len()
            ));
        }
        let n = num_vertices as usize;
        if fwd.iter().chain(bwd.iter()).any(|v| v.len() != n) {
            return Err(format!("landmark distance vectors do not cover the graph's {n} vertices"));
        }
        if landmarks.iter().any(|&lm| lm >= num_vertices) {
            return Err("landmark vertex id out of range".into());
        }
        Ok(Landmarks { landmarks, fwd, bwd })
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// True when no landmarks were selected (empty graph or `k = 0`); the
    /// lower bound degenerates to 0 and ALT becomes plain bidirectional
    /// Dijkstra.
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Triangle-inequality lower bound on `d(u, v)`.
    ///
    /// Returns [`INF`] when some landmark *proves* `v` unreachable from `u`
    /// (e.g. `L` reaches `u` but not `v`).
    pub fn lower_bound(&self, u: u32, v: u32) -> u64 {
        if u == v {
            return 0;
        }
        let (ui, vi) = (u as usize, v as usize);
        let mut best = 0u64;
        for i in 0..self.landmarks.len() {
            // d(L, v) ≤ d(L, u) + d(u, v): useful only when L reaches u.
            let lu = self.fwd[i][ui];
            if lu != INF {
                let lv = self.fwd[i][vi];
                if lv == INF {
                    return INF; // L reaches u but not v ⇒ u cannot reach v
                }
                best = best.max(lv.saturating_sub(lu));
            }
            // d(u, L) ≤ d(u, v) + d(v, L): useful only when v reaches L.
            let vl = self.bwd[i][vi];
            if vl != INF {
                let ul = self.bwd[i][ui];
                if ul == INF {
                    return INF; // u would reach L through v otherwise
                }
                best = best.max(ul.saturating_sub(vl));
            }
        }
        best
    }

    /// The raw per-landmark distance vectors (`fwd[i][v] = d(Lᵢ, v)`,
    /// `bwd[i][v] = d(v, Lᵢ)`), for bound aggregation over target sets.
    pub(crate) fn vectors(&self) -> (&[Vec<u64>], &[Vec<u64>]) {
        (&self.fwd, &self.bwd)
    }

    /// Approximate heap size of the index in bytes (vectors only).
    pub fn memory_bytes(&self) -> usize {
        (self.fwd.iter().map(Vec::len).sum::<usize>()
            + self.bwd.iter().map(Vec::len).sum::<usize>())
            * std::mem::size_of::<u64>()
    }
}

/// Exact single-source distances: BFS hops when `weights` is `None`,
/// Dijkstra otherwise. Unreached vertices map to [`INF`].
fn distance_vector(graph: &Csr, source: u32, weights: Option<&[i64]>) -> Vec<u64> {
    match weights {
        None => bfs(graph, source, &[])
            .dist
            .into_iter()
            .map(|d| if d == u32::MAX { INF } else { d as u64 })
            .collect(),
        Some(w) => dijkstra_int(graph, source, &[], w).dist,
    }
}

/// Farthest-point landmark selection over forward hop distances.
///
/// Selection quality only affects pruning, never correctness, so cheap hop
/// BFS is used even for weighted indexes. Fully deterministic.
fn select_landmarks(forward: &Csr, k: usize) -> Vec<u32> {
    let n = forward.num_vertices();
    if k == 0 || n == 0 {
        return Vec::new();
    }
    // First landmark: maximum out-degree, smallest id on ties — a busy hub
    // whose distance vectors carry information about most of the graph.
    let first = (0..n).max_by_key(|&v| (forward.out_degree(v), std::cmp::Reverse(v))).unwrap_or(0);
    let mut chosen = vec![first];
    // mind[v] = hops from the nearest chosen landmark (INF = none reaches v).
    let mut mind = vec![INF; n as usize];
    while chosen.len() < k {
        let last = *chosen.last().expect("non-empty");
        let reach = bfs(forward, last, &[]);
        for (v, &d) in reach.dist.iter().enumerate() {
            if d != u32::MAX {
                mind[v] = mind[v].min(d as u64);
            }
        }
        for &c in &chosen {
            mind[c as usize] = 0;
        }
        // Farthest vertex; unreached (INF) vertices win, covering weakly
        // connected pieces no landmark sees yet. Smallest id on ties.
        let (next, score) = mind
            .iter()
            .enumerate()
            .max_by_key(|&(v, &d)| (d, std::cmp::Reverse(v)))
            .map(|(v, &d)| (v as u32, d))
            .expect("n > 0");
        if score == 0 {
            break; // every vertex is a landmark already
        }
        chosen.push(next);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0->1, 0->2, 1->3, 2->3, 3->4 — the workspace's diamond.
    fn diamond() -> (Csr, Csr) {
        let g = Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap();
        let r = gsql_graph::reverse_csr(&g);
        (g, r)
    }

    #[test]
    fn bounds_are_admissible_on_diamond() {
        let (g, r) = diamond();
        let lm = Landmarks::build(&g, &r, None, 3, 1);
        assert!(!lm.is_empty());
        // True hop distances from 0: [0, 1, 1, 2, 3].
        let truth = gsql_graph::bfs(&g, 0, &[]).dist;
        for v in 0..5u32 {
            let lb = lm.lower_bound(0, v);
            let d = truth[v as usize];
            if d == u32::MAX {
                // Unreachable pairs may or may not be proven; lb is still
                // a lower bound on +inf, so anything is admissible.
                continue;
            }
            assert!(lb <= d as u64, "lb({v}) = {lb} exceeds true {d}");
        }
        // 4 has no out-edges: everything is unreachable from it, and a
        // landmark that reaches 0 but not backwards proves it.
        assert_eq!(lm.lower_bound(4, 0), INF);
    }

    #[test]
    fn build_is_thread_independent() {
        let (g, r) = diamond();
        let base = Landmarks::build(&g, &r, None, 4, 1);
        for threads in [2, 4, 8] {
            let par = Landmarks::build(&g, &r, None, 4, threads);
            assert_eq!(par.landmarks, base.landmarks, "threads {threads}");
            assert_eq!(par.fwd, base.fwd, "threads {threads}");
            assert_eq!(par.bwd, base.bwd, "threads {threads}");
        }
    }

    #[test]
    fn a_past_deadline_fails_the_build_and_a_far_one_changes_nothing() {
        use std::time::{Duration, Instant};
        let (g, r) = diamond();
        for threads in [1, 4] {
            let past = Instant::now() - Duration::from_millis(1);
            let budget = Budget { threads, deadline: Some(past), observer: None };
            let err = Landmarks::build_within(&g, &r, None, 3, &budget).unwrap_err();
            assert_eq!(err, GraphError::DeadlineExceeded, "threads {threads}");
            let far = Budget { deadline: Some(past + Duration::from_secs(3600)), ..budget };
            let bounded = Landmarks::build_within(&g, &r, None, 3, &far).unwrap();
            let plain = Landmarks::build(&g, &r, None, 3, threads);
            assert_eq!(bounded.to_parts(), plain.to_parts(), "threads {threads}");
        }
    }

    #[test]
    fn selection_is_deterministic_and_capped() {
        let (g, r) = diamond();
        let a = Landmarks::build(&g, &r, None, 64, 1);
        let b = Landmarks::build(&g, &r, None, 64, 4);
        assert_eq!(a.landmarks, b.landmarks);
        assert!(a.len() <= 5, "cannot exceed |V|");
        let empty = Csr::from_edges(0, &[], &[]).unwrap();
        let rev = gsql_graph::reverse_csr(&empty);
        assert!(Landmarks::build(&empty, &rev, None, 8, 2).is_empty());
    }

    #[test]
    fn weighted_bounds_respect_weights() {
        // 0 -> 1 -> 2 with weights 10, 20 (and a reverse-direction edge to
        // make it interesting): lb(0, 2) must be ≤ 30 and ideally tight.
        let g = Csr::from_edges(3, &[0, 1, 2], &[1, 2, 0]).unwrap();
        let r = gsql_graph::reverse_csr(&g);
        let wf = g.permute_weights_int(&[10, 20, 5]).unwrap();
        let wb = r.permute_weights_int(&[10, 20, 5]).unwrap();
        let lm = Landmarks::build(&g, &r, Some((&wf, &wb)), 3, 2);
        let truth = gsql_graph::dijkstra_int(&g, 0, &[], &wf).dist;
        for v in 0..3u32 {
            assert!(lm.lower_bound(0, v) <= truth[v as usize]);
        }
    }

    #[test]
    fn memory_accounting_is_plausible() {
        let (g, r) = diamond();
        let lm = Landmarks::build(&g, &r, None, 2, 1);
        assert_eq!(lm.memory_bytes(), lm.len() * 2 * 5 * 8);
    }
}
