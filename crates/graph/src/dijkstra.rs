//! Dijkstra's algorithm for weighted shortest paths.
//!
//! Two variants, matching the paper's runtime (§3.2):
//!
//! * [`dijkstra_int`] — strictly positive **integer** weights, driven by the
//!   monotone [`RadixHeap`] (Ahuja et al.);
//! * [`dijkstra_float_into`] — strictly positive **floating-point** weights,
//!   driven by a standard binary heap (a radix queue requires integer keys,
//!   which is why the paper's example casts `weight * 2` to `int`; we keep
//!   a float fallback so arbitrary numeric weight expressions work).
//!
//! Weights are supplied **in CSR slot order** (see
//! [`Csr::permute_weights_int`](crate::csr::Csr::permute_weights_int)), which
//! also guarantees they were validated to be strictly positive.

use crate::csr::Csr;
use crate::radix_heap::RadixHeap;
use crate::{NO_EDGE, NO_VERTEX};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of an integer-weight Dijkstra run.
#[derive(Debug, Clone)]
pub struct DijkstraIntResult {
    /// `dist[v]` = cost of the cheapest path, or `u64::MAX` if unreached.
    pub dist: Vec<u64>,
    /// `parent_edge[v]` = CSR slot of the final edge of the cheapest path.
    pub parent_edge: Vec<u32>,
    /// `parent[v]` = predecessor vertex on the cheapest path.
    pub parent: Vec<u32>,
}

/// Reusable working memory for [`dijkstra_int_into`]: distance / parent
/// arenas plus the settled and target sets. After a run the `dist`,
/// `parent` and `parent_edge` fields hold the result (same contract as
/// [`DijkstraIntResult`]).
#[derive(Debug, Default)]
pub struct DijkstraIntScratch {
    /// `dist[v]` = cheapest cost, or `u64::MAX` when unreached.
    pub dist: Vec<u64>,
    /// `parent_edge[v]` = CSR slot of the final edge, or [`NO_EDGE`].
    pub parent_edge: Vec<u32>,
    /// `parent[v]` = predecessor vertex, or [`NO_VERTEX`].
    pub parent: Vec<u32>,
    settled: Vec<bool>,
    is_target: Vec<bool>,
    settled_n: usize,
}

impl DijkstraIntScratch {
    /// Fresh, empty scratch; arenas grow on first use.
    pub fn new() -> DijkstraIntScratch {
        DijkstraIntScratch::default()
    }

    /// Number of vertices settled (popped with their final distance) by the
    /// last run — the work metric goal-directed search tries to shrink.
    /// Maintained incrementally, so reading it is O(1) (it is recorded per
    /// traversal by the always-on metrics layer).
    pub fn settled_count(&self) -> usize {
        self.settled_n
    }

    fn reset(&mut self, n: usize) {
        self.settled_n = 0;
        self.dist.clear();
        self.dist.resize(n, u64::MAX);
        self.parent_edge.clear();
        self.parent_edge.resize(n, NO_EDGE);
        self.parent.clear();
        self.parent.resize(n, NO_VERTEX);
        self.settled.clear();
        self.settled.resize(n, false);
        self.is_target.clear();
        self.is_target.resize(n, false);
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
    let mut scratch = DijkstraIntScratch::new();
    dijkstra_int_into(graph, source, targets, weights, &mut scratch);
    DijkstraIntResult {
        dist: scratch.dist,
        parent_edge: scratch.parent_edge,
        parent: scratch.parent,
    }
}

/// [`dijkstra_int`] into a caller-owned scratch, avoiding per-traversal
/// allocations of the `O(|V|)` arenas. The result lives in the scratch's
/// public fields.
pub fn dijkstra_int_into(
    graph: &Csr,
    source: u32,
    targets: &[u32],
    weights: &[i64],
    scratch: &mut DijkstraIntScratch,
) {
    let n = graph.num_vertices() as usize;
    debug_assert_eq!(weights.len(), graph.num_edges());
    scratch.reset(n);
    let DijkstraIntScratch { dist, parent_edge, parent, settled, is_target, settled_n } = scratch;
    let mut remaining = mark_targets(is_target, targets);

    let mut heap: RadixHeap<u32> = RadixHeap::new();
    dist[source as usize] = 0;
    heap.push(0, source);

    while let Some((d, u)) = heap.pop() {
        let ui = u as usize;
        if settled[ui] {
            continue; // stale entry
        }
        settled[ui] = true;
        *settled_n += 1;
        if is_target[ui] {
            is_target[ui] = false;
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        for (slot, v) in graph.neighbors(u) {
            let vi = v as usize;
            if settled[vi] {
                continue;
            }
            let w = weights[slot] as u64;
            let nd = d + w;
            if nd < dist[vi] {
                dist[vi] = nd;
                parent_edge[vi] = slot as u32;
                parent[vi] = u;
                heap.push(nd, v);
            }
        }
    }
}

/// An `f64` wrapper with a total order, for use inside the binary heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Reusable working memory for [`dijkstra_float_into`]; the float
/// counterpart of [`DijkstraIntScratch`]. After a run the `dist`, `parent`
/// and `parent_edge` fields hold the result.
#[derive(Debug, Default)]
pub struct DijkstraFloatScratch {
    /// `dist[v]` = cheapest cost, or `f64::INFINITY` when unreached.
    pub dist: Vec<f64>,
    /// `parent_edge[v]` = CSR slot of the final edge, or [`NO_EDGE`].
    pub parent_edge: Vec<u32>,
    /// `parent[v]` = predecessor vertex, or [`NO_VERTEX`].
    pub parent: Vec<u32>,
    settled: Vec<bool>,
    is_target: Vec<bool>,
    settled_n: usize,
}

impl DijkstraFloatScratch {
    /// Fresh, empty scratch; arenas grow on first use.
    pub fn new() -> DijkstraFloatScratch {
        DijkstraFloatScratch::default()
    }

    /// Number of vertices settled by the last run (see
    /// [`DijkstraIntScratch::settled_count`]); O(1).
    pub fn settled_count(&self) -> usize {
        self.settled_n
    }

    fn reset(&mut self, n: usize) {
        self.settled_n = 0;
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.parent_edge.clear();
        self.parent_edge.resize(n, NO_EDGE);
        self.parent.clear();
        self.parent.resize(n, NO_VERTEX);
        self.settled.clear();
        self.settled.resize(n, false);
        self.is_target.clear();
        self.is_target.resize(n, false);
    }
}

/// Dijkstra with a binary heap over strictly positive float weights, into a
/// caller-owned scratch: the same contract as [`dijkstra_int`], the result
/// in the scratch's public fields (unreached vertices keep
/// `f64::INFINITY`).
pub fn dijkstra_float_into(
    graph: &Csr,
    source: u32,
    targets: &[u32],
    weights: &[f64],
    scratch: &mut DijkstraFloatScratch,
) {
    let n = graph.num_vertices() as usize;
    debug_assert_eq!(weights.len(), graph.num_edges());
    scratch.reset(n);
    let DijkstraFloatScratch { dist, parent_edge, parent, settled, is_target, settled_n } = scratch;
    let mut remaining = mark_targets(is_target, targets);

    let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Reverse((OrdF64(0.0), source)));

    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        let ui = u as usize;
        if settled[ui] {
            continue;
        }
        settled[ui] = true;
        *settled_n += 1;
        if is_target[ui] {
            is_target[ui] = false;
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        for (slot, v) in graph.neighbors(u) {
            let vi = v as usize;
            if settled[vi] {
                continue;
            }
            let nd = d + weights[slot];
            if nd < dist[vi] {
                dist[vi] = nd;
                parent_edge[vi] = slot as u32;
                parent[vi] = u;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }
}

/// Mark the dedup'd targets in the (pre-cleared) membership vector.
/// `usize::MAX` encodes "no early exit" (full exploration).
fn mark_targets(is_target: &mut [bool], targets: &[u32]) -> usize {
    if targets.is_empty() {
        return usize::MAX;
    }
    let mut remaining = 0;
    for &t in targets {
        let slot = &mut is_target[t as usize];
        if !*slot {
            *slot = true;
            remaining += 1;
        }
    }
    remaining
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;

    fn diamond() -> Csr {
        Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap()
    }

    fn dijkstra_float(g: &Csr, source: u32, targets: &[u32], w: &[f64]) -> DijkstraFloatScratch {
        let mut scratch = DijkstraFloatScratch::new();
        dijkstra_float_into(g, source, targets, w, &mut scratch);
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
        let mut si = DijkstraIntScratch::new();
        let mut sf = DijkstraFloatScratch::new();
        for source in 0..g.num_vertices() {
            dijkstra_int_into(&g, source, &[], &wi, &mut si);
            let fresh = dijkstra_int(&g, source, &[], &wi);
            assert_eq!(si.dist, fresh.dist, "int source {source}");
            assert_eq!(si.parent, fresh.parent, "int source {source}");
            dijkstra_float_into(&g, source, &[], &wf, &mut sf);
            let freshf = dijkstra_float(&g, source, &[], &wf);
            assert_eq!(sf.dist, freshf.dist, "float source {source}");
            assert_eq!(sf.parent, freshf.parent, "float source {source}");
        }
    }

    #[test]
    fn settled_count_matches_marked_vertices() {
        let (g, w) = diamond_weights([1, 1, 1, 1, 1]);
        let mut s = DijkstraIntScratch::new();
        dijkstra_int_into(&g, 0, &[], &w, &mut s);
        assert_eq!(s.settled_count(), s.settled.iter().filter(|&&x| x).count());
        assert_eq!(s.settled_count(), 5);
        // Early exit settles fewer vertices, and the counter tracks it.
        dijkstra_int_into(&g, 0, &[1], &w, &mut s);
        assert_eq!(s.settled_count(), s.settled.iter().filter(|&&x| x).count());
        assert!(s.settled_count() < 5);
        let wf = g.permute_weights_float(&[1.0; 5]).unwrap();
        let mut sf = DijkstraFloatScratch::new();
        dijkstra_float_into(&g, 0, &[], &wf, &mut sf);
        assert_eq!(sf.settled_count(), 5);
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
