//! Dijkstra's algorithm for weighted shortest paths.
//!
//! One kernel, [`dijkstra_into`], whose [`Weighted`] distance type supplies
//! the queue and the addition (§3.2):
//!
//! * `u64` — **integer** weights and the monotone [`RadixHeap`] (Ahuja et
//!   al.); labels clamp at 2⁶³, so a sum never wraps;
//! * `f64` — **floating-point** weights and a binary heap (a radix queue
//!   needs integer keys, which is why the paper's example casts
//!   `weight * 2` to `int`; the fallback serves any numeric expression);
//!   labels clamp at `f64::MAX`, so a sum that overflows still labels its
//!   vertex below the unreached `+∞`.
//!
//! A vertex is queued only when its label strictly improves, so a popped
//! entry is stale exactly when its key is above the label; the one pop that
//! is not settles the vertex. Settled is a count, not a label.
//!
//! Weights come **in CSR slot order**, validated strictly positive (see
//! [`Csr::permute_weights_int`](crate::csr::Csr::permute_weights_int)). The
//! kernel and [`bfs_into`](crate::bfs_into) run on one [`SourceScratch`].

use crate::arena::{Arena, Labels};
use crate::batch::CostValue;
use crate::csr::Csr;
use crate::error::GraphError;
use crate::radix_heap::RadixHeap;
use crate::{Result, NO_EDGE, NO_VERTEX};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Result of an integer-weight Dijkstra run.
#[derive(Debug, Clone)]
pub struct DijkstraIntResult {
    /// `dist[v]` = cost of the cheapest path (at most 2⁶³), or
    /// `u64::MAX` if unreached.
    pub dist: Vec<u64>,
    /// `parent_edge[v]` = CSR slot of the final edge of the cheapest path.
    pub parent_edge: Vec<u32>,
    /// `parent[v]` = predecessor vertex on the cheapest path.
    pub parent: Vec<u32>,
}

/// The label at which integer distances clamp: one above `i64::MAX`, the
/// largest cost, so it stands for every larger sum. A label is at most
/// 2⁶³ and a weight below it, so a sum never wraps.
pub(crate) const COST_LIMIT: u64 = 1 << 63;

/// A distance type of a single-source search; the source is at
/// `D::default()`.
pub trait Distance: Copy + PartialOrd + Default {
    /// The distance of a vertex the search did not reach.
    const UNREACHED: Self;
    /// The cost of a vertex reached at this distance, or
    /// [`GraphError::CostOverflow`] when a cost cannot hold it.
    fn cost(self) -> Result<CostValue>;
}

impl Distance for u32 {
    const UNREACHED: u32 = u32::MAX;
    fn cost(self) -> Result<CostValue> {
        Ok(CostValue::Int(i64::from(self)))
    }
}

impl Distance for u64 {
    const UNREACHED: u64 = u64::MAX;
    fn cost(self) -> Result<CostValue> {
        i64::try_from(self).map(CostValue::Int).map_err(|_| GraphError::CostOverflow)
    }
}

/// A label at `f64::MAX` is a clamped sum: the sum that overflowed, or
/// one that only rounded down to it, so no cost there is exact.
impl Distance for f64 {
    const UNREACHED: f64 = f64::INFINITY;
    fn cost(self) -> Result<CostValue> {
        if self < f64::MAX {
            Ok(CostValue::Float(self))
        } else {
            Err(GraphError::CostOverflow)
        }
    }
}

/// A distance type Dijkstra runs on: the edge weight, the addition and the
/// queue of vertices by tentative distance.
pub trait Weighted: Distance {
    /// The weight of one edge, strictly positive.
    type Weight: Copy;
    /// The queue.
    type Queue: Default;
    /// `self` plus `weight`.
    fn add(self, weight: Self::Weight) -> Self;
    /// Queue `v` at `key`.
    fn push(queue: &mut Self::Queue, key: Self, v: u32);
    /// The queued vertex of least key, with its key.
    fn pop(queue: &mut Self::Queue) -> Option<(Self, u32)>;
}

impl Weighted for u64 {
    type Weight = i64;
    type Queue = RadixHeap<u32>;
    fn add(self, weight: i64) -> u64 {
        (self + weight as u64).min(COST_LIMIT)
    }
    fn push(queue: &mut RadixHeap<u32>, key: u64, v: u32) {
        queue.push(key, v);
    }
    fn pop(queue: &mut RadixHeap<u32>) -> Option<(u64, u32)> {
        queue.pop()
    }
}

/// Keyed by bit pattern: non-negative floats order as their bits do.
impl Weighted for f64 {
    type Weight = f64;
    type Queue = BinaryHeap<Reverse<(u64, u32)>>;
    fn add(self, weight: f64) -> f64 {
        (self + weight).min(f64::MAX)
    }
    fn push(queue: &mut Self::Queue, key: f64, v: u32) {
        queue.push(Reverse((key.to_bits(), v)));
    }
    fn pop(queue: &mut Self::Queue) -> Option<(f64, u32)> {
        queue.pop().map(|Reverse((key, v))| (f64::from_bits(key), v))
    }
}

/// Reusable working memory of one single-source search — BFS
/// ([`BfsScratch`](crate::BfsScratch)) or Dijkstra. After a run the
/// `dist`, `parent` and `parent_edge` labels hold the result (same
/// contract as [`DijkstraIntResult`]).
#[derive(Debug)]
pub struct SourceScratch<D> {
    /// `dist[v]` = cheapest cost, or [`Distance::UNREACHED`].
    pub dist: Labels<D>,
    /// `parent_edge[v]` = CSR slot of the final edge, or [`NO_EDGE`].
    pub parent_edge: Labels<u32>,
    /// `parent[v]` = predecessor vertex, or [`NO_VERTEX`].
    pub parent: Labels<u32>,
    pub(crate) is_target: Labels<bool>,
    pub(crate) queue: VecDeque<u32>,
    pub(crate) settled: usize,
}

impl<D: Distance> Default for SourceScratch<D> {
    fn default() -> SourceScratch<D> {
        SourceScratch {
            dist: Labels::new(D::UNREACHED),
            parent_edge: Labels::new(NO_EDGE),
            parent: Labels::new(NO_VERTEX),
            is_target: Labels::new(false),
            queue: VecDeque::new(),
            settled: 0,
        }
    }
}

impl<D: Distance> Arena for SourceScratch<D> {
    fn clear(&mut self) {
        self.parent_edge.clear_along(&self.dist);
        self.parent.clear_along(&self.dist);
        self.dist.clear();
        self.is_target.clear();
        self.queue.clear();
    }
}

impl<D: Distance> SourceScratch<D> {
    /// Fresh, empty scratch; labels grow on first use.
    pub fn new() -> SourceScratch<D> {
        SourceScratch::default()
    }

    /// Number of vertices settled (labelled with their final distance) by
    /// the last run — the work metric goal-directed search tries to shrink.
    /// O(1) (it is recorded per traversal by the always-on metrics layer).
    pub fn settled_count(&self) -> usize {
        self.settled
    }

    /// Forget the last run (in the time it took), fit `n` vertices, label
    /// `source` at zero and mark the distinct `targets`; returns how many
    /// there are (`usize::MAX`: no early exit, explore everything).
    pub(crate) fn start(&mut self, n: usize, source: u32, targets: &[u32]) -> usize {
        self.clear();
        self.settled = 0;
        self.dist.fit(n);
        self.parent_edge.fit(n);
        self.parent.fit(n);
        self.is_target.fit(n);
        self.dist.set(source, D::default());
        for &t in targets {
            self.is_target.set(t, true);
        }
        if targets.is_empty() {
            usize::MAX
        } else {
            self.is_target.labelled()
        }
    }
}

/// Dijkstra with a radix queue over strictly positive integer weights.
///
/// `weights` must be in CSR slot order. When `targets` is non-empty the
/// search stops once every target is **settled** (popped with its final
/// distance). Unreached vertices keep `u64::MAX`.
pub fn dijkstra_int(
    graph: &Csr,
    source: u32,
    targets: &[u32],
    weights: &[i64],
) -> DijkstraIntResult {
    let mut scratch = SourceScratch::<u64>::new();
    dijkstra_into(graph, source, targets, weights, &mut scratch);
    DijkstraIntResult {
        dist: scratch.dist.into_vec(),
        parent_edge: scratch.parent_edge.into_vec(),
        parent: scratch.parent.into_vec(),
    }
}

/// Dijkstra from `source` over strictly positive `weights` in CSR slot
/// order, into a caller-owned scratch, which first forgets its last run in
/// the time that run took. When `targets` is non-empty the search stops
/// once every target is **settled** (popped with its final distance). The
/// result lives in the scratch's public labels; unreached vertices keep
/// [`Distance::UNREACHED`].
pub fn dijkstra_into<D: Weighted>(
    graph: &Csr,
    source: u32,
    targets: &[u32],
    weights: &[D::Weight],
    scratch: &mut SourceScratch<D>,
) {
    debug_assert_eq!(weights.len(), graph.num_edges());
    let mut remaining = scratch.start(graph.num_vertices() as usize, source, targets);
    let SourceScratch { dist, parent_edge, parent, is_target, settled, .. } = scratch;

    let mut queue = D::Queue::default();
    D::push(&mut queue, D::default(), source);
    while let Some((d, u)) = D::pop(&mut queue) {
        if d > dist[u as usize] {
            continue; // stale entry: `u` was queued again, cheaper
        }
        *settled += 1;
        if is_target[u as usize] {
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        // A settled neighbour's label is at most `d`, so it never improves.
        for (slot, v) in graph.neighbors(u) {
            let nd = d.add(weights[slot]);
            if nd < dist[v as usize] {
                dist.set(v, nd);
                parent_edge.set_along(v, slot as u32);
                parent.set_along(v, u);
                D::push(&mut queue, nd, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;

    fn diamond() -> Csr {
        Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap()
    }

    fn dijkstra_float(g: &Csr, source: u32, targets: &[u32], w: &[f64]) -> SourceScratch<f64> {
        let mut scratch = SourceScratch::<f64>::new();
        dijkstra_into(g, source, targets, w, &mut scratch);
        scratch
    }

    fn diamond_weights(raw: [i64; 5]) -> (Csr, Vec<i64>) {
        let g = diamond();
        let w = g.permute_weights_int(&raw).unwrap();
        (g, w)
    }

    #[test]
    fn picks_cheaper_branch() {
        // 0->1 costs 10, 0->2 costs 1, 1->3 costs 1, 2->3 costs 1, 3->4 = 1.
        // Cheapest 0~>3 goes through 2 with cost 2.
        let (g, w) = diamond_weights([10, 1, 1, 1, 1]);
        let r = dijkstra_int(&g, 0, &[], &w);
        assert_eq!(r.dist[3], 2);
        assert_eq!(r.parent[3], 2);
        assert_eq!(r.dist[4], 3);
    }

    #[test]
    fn unit_weights_match_bfs() {
        let (g, w) = diamond_weights([1, 1, 1, 1, 1]);
        let dj = dijkstra_int(&g, 0, &[], &w);
        let bf = bfs(&g, 0, &[]);
        for v in 0..5 {
            let b = bf.dist[v];
            let d = dj.dist[v];
            if b == u32::MAX {
                assert_eq!(d, u64::MAX);
            } else {
                assert_eq!(d, b as u64);
            }
        }
    }

    #[test]
    fn float_variant_matches_int_on_integral_weights() {
        let raw = [3i64, 1, 4, 1, 5];
        let (g, wi) = diamond_weights(raw);
        let wf = g.permute_weights_float(&raw.map(|x| x as f64)).unwrap();
        let ri = dijkstra_int(&g, 0, &[], &wi);
        let rf = dijkstra_float(&g, 0, &[], &wf);
        for v in 0..5 {
            if ri.dist[v] == u64::MAX {
                assert!(rf.dist[v].is_infinite());
            } else {
                assert_eq!(ri.dist[v] as f64, rf.dist[v]);
            }
        }
    }

    #[test]
    fn early_exit_settles_targets_exactly() {
        // Chain with a shortcut: 0->1 (1), 1->2 (1), 0->2 (5).
        // Target {2}: must still return the cheap dist 2, not 5 — i.e. the
        // exit happens at settle time, not discovery time.
        let g = Csr::from_edges(3, &[0, 1, 0], &[1, 2, 2]).unwrap();
        let w = g.permute_weights_int(&[1, 1, 5]).unwrap();
        let r = dijkstra_int(&g, 0, &[2], &w);
        assert_eq!(r.dist[2], 2);
    }

    #[test]
    fn unreachable_keeps_sentinel() {
        let g = Csr::from_edges(3, &[0], &[1]).unwrap();
        let w = g.permute_weights_int(&[7]).unwrap();
        let r = dijkstra_int(&g, 0, &[], &w);
        assert_eq!(r.dist[2], u64::MAX);
        let wf = g.permute_weights_float(&[7.0]).unwrap();
        let rf = dijkstra_float(&g, 0, &[], &wf);
        assert!(rf.dist[2].is_infinite());
    }

    #[test]
    fn parent_edges_reconstruct_costs() {
        let (g, w) = diamond_weights([2, 3, 4, 1, 6]);
        let r = dijkstra_int(&g, 0, &[], &w);
        // Verify dist[v] equals the sum of weights along the parent chain.
        for v in 1..5u32 {
            if r.dist[v as usize] == u64::MAX {
                continue;
            }
            let mut acc = 0u64;
            let mut cur = v;
            while cur != 0 {
                let slot = r.parent_edge[cur as usize] as usize;
                acc += w[slot] as u64;
                cur = r.parent[cur as usize];
            }
            assert_eq!(acc, r.dist[v as usize], "vertex {v}");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let (g, wi) = diamond_weights([2, 3, 4, 1, 6]);
        let wf = g.permute_weights_float(&[2.0, 3.0, 4.0, 1.0, 6.0]).unwrap();
        let mut si = SourceScratch::<u64>::new();
        let mut sf = SourceScratch::<f64>::new();
        for source in 0..g.num_vertices() {
            dijkstra_into(&g, source, &[], &wi, &mut si);
            let fresh = dijkstra_int(&g, source, &[], &wi);
            assert_eq!(*si.dist, fresh.dist, "int source {source}");
            assert_eq!(*si.parent, fresh.parent, "int source {source}");
            dijkstra_into(&g, source, &[], &wf, &mut sf);
            let freshf = dijkstra_float(&g, source, &[], &wf);
            assert_eq!(*sf.dist, *freshf.dist, "float source {source}");
            assert_eq!(*sf.parent, *freshf.parent, "float source {source}");
        }
    }

    #[test]
    fn settled_count_matches_labelled_vertices() {
        // An exhaustive run settles exactly the vertices it labelled...
        let (g, w) = diamond_weights([1, 1, 1, 1, 1]);
        let labelled = |dist: &[u64]| dist.iter().filter(|&&d| d != u64::MAX).count();
        let mut s = SourceScratch::<u64>::new();
        dijkstra_into(&g, 0, &[], &w, &mut s);
        assert_eq!(s.settled_count(), labelled(&s.dist));
        assert_eq!(s.settled_count(), 5);
        // ...and an early exit settles fewer, though it labelled more.
        dijkstra_into(&g, 0, &[1], &w, &mut s);
        assert!(s.settled_count() < labelled(&s.dist));
        let wf = g.permute_weights_float(&[1.0; 5]).unwrap();
        let mut sf = SourceScratch::<f64>::new();
        dijkstra_into(&g, 0, &[], &wf, &mut sf);
        assert_eq!(sf.settled_count(), 5);
    }

    #[test]
    fn integer_labels_clamp_instead_of_wrapping() {
        // 0 -> 1 -> 2 -> 3, each edge 2^62: the true cost of 3 is 3·2^62.
        let g = Csr::from_edges(4, &[0, 1, 2], &[1, 2, 3]).unwrap();
        let w = g.permute_weights_int(&[1 << 62; 3]).unwrap();
        let r = dijkstra_int(&g, 0, &[], &w);
        assert_eq!(r.dist, [0, 1 << 62, COST_LIMIT, COST_LIMIT]);
        assert_eq!(r.dist[1].cost(), Ok(CostValue::Int(1 << 62)));
        assert_eq!(r.dist[3].cost(), Err(GraphError::CostOverflow));
        let top = g.permute_weights_int(&[i64::MAX; 3]).unwrap();
        assert_eq!(dijkstra_int(&g, 0, &[], &top).dist[3], COST_LIMIT);
    }

    #[test]
    fn random_graphs_radix_matches_binary_heap() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let n: u32 = rng.gen_range(2..40);
            let m: usize = rng.gen_range(1..200);
            let src: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
            let dst: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
            let raw: Vec<i64> = (0..m).map(|_| rng.gen_range(1..100)).collect();
            let g = Csr::from_edges(n, &src, &dst).unwrap();
            let wi = g.permute_weights_int(&raw).unwrap();
            let wf = g
                .permute_weights_float(&raw.iter().map(|&x| x as f64).collect::<Vec<_>>())
                .unwrap();
            let s = rng.gen_range(0..n);
            let ri = dijkstra_int(&g, s, &[], &wi);
            let rf = dijkstra_float(&g, s, &[], &wf);
            for v in 0..n as usize {
                if ri.dist[v] == u64::MAX {
                    assert!(rf.dist[v].is_infinite());
                } else {
                    assert_eq!(ri.dist[v] as f64, rf.dist[v]);
                }
            }
        }
    }
}
