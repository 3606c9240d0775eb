//! The many-to-many driver — the library's entry point as described in §3.2.
//!
//! The paper's runtime is invoked with "(1) the columns S and D, denoting the
//! edges of the graph; (2) the source X and destination Y vertices to
//! filter; (3) in case, the additional columns W for the weights". It returns
//! the row ids of connected pairs plus the requested shortest paths.
//!
//! [`BatchComputer`] implements that contract over a [`Csr`]: given a list
//! of `(source, dest)` pairs it groups them by source, runs **one traversal
//! per distinct source** with multi-destination early exit, and returns
//! per-pair reachability, cost and (optionally) the path as edge row ids.
//! This grouping is precisely what lets Figure 1b's batched execution
//! amortize the graph-construction cost.

use crate::bfs::{bfs_into, BfsScratch};
use crate::csr::Csr;
use crate::dijkstra::{
    dijkstra_float_into, dijkstra_int_into, DijkstraFloatScratch, DijkstraIntScratch,
};
use crate::error::GraphError;
use crate::path::reconstruct_path;
use crate::{Result, TraversalKind, TraversalObserver};
use gsql_parallel::Pool;
use std::collections::HashMap;

/// Weight specification for one `CHEAPEST SUM` evaluation.
///
/// Weight vectors are indexed by **original edge-table row id** (the order
/// the edge table was materialized in), not CSR slot order;
/// [`BatchComputer::prepare`] validates and permutes them.
#[derive(Debug, Clone)]
pub enum WeightSpec {
    /// No weights: BFS, cost = hop count. This is what `CHEAPEST SUM(1)`
    /// compiles to.
    Unweighted,
    /// Strictly positive integer weights: Dijkstra + radix queue.
    Int(Vec<i64>),
    /// Strictly positive float weights: Dijkstra + binary heap.
    Float(Vec<f64>),
}

/// The cost of one shortest path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostValue {
    /// Hop count or integer-weighted cost.
    Int(i64),
    /// Float-weighted cost.
    Float(f64),
}

impl CostValue {
    /// The cost as f64 regardless of representation.
    pub fn as_f64(&self) -> f64 {
        match self {
            CostValue::Int(v) => *v as f64,
            CostValue::Float(v) => *v,
        }
    }
}

/// Result for one `(source, dest)` pair.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// Whether a finite path exists (`source == dest` counts: empty path).
    pub reachable: bool,
    /// Shortest-path cost; `None` when unreachable.
    pub cost: Option<CostValue>,
    /// Edge-table row ids of one shortest path, source-to-dest order;
    /// `None` when unreachable or when paths were not requested.
    pub path: Option<Vec<u32>>,
}

impl PairResult {
    fn unreachable() -> PairResult {
        PairResult { reachable: false, cost: None, path: None }
    }
}

/// A [`WeightSpec`] made ready for traversal over one particular [`Csr`]:
/// every weight validated strictly positive and gathered into CSR slot
/// order. Only [`BatchComputer::prepare`] builds one, so holding a value is
/// the proof of validation; it depends on the graph alone (not on the
/// pairs), which is what lets a caller keep it for as long as the graph
/// lives and run any number of batches over it.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedWeights(Slots);

#[derive(Debug, Clone, PartialEq)]
enum Slots {
    None,
    Int(Vec<i64>),
    Float(Vec<f64>),
}

impl PreparedWeights {
    /// Edges of the graph the weights were prepared for (`None` when
    /// unweighted: those fit any graph).
    fn edges(&self) -> Option<usize> {
        match &self.0 {
            Slots::None => None,
            Slots::Int(w) => Some(w.len()),
            Slots::Float(w) => Some(w.len()),
        }
    }

    /// Heap bytes held by the slot vector (`8 × edges`; 0 when unweighted).
    pub fn bytes(&self) -> usize {
        self.edges().map_or(0, |m| m * 8)
    }
}

/// Runs batched reachability / shortest-path queries over one CSR.
///
/// Each distinct source is an independent traversal, so the batch is
/// **source-parallel**: [`BatchComputer::with_threads`] spreads the
/// distinct-source groups across a scoped worker pool (dynamic stealing —
/// traversal costs are irregular), each worker reusing one thread-local
/// distance/visited scratch arena. Per-pair results are merged back in
/// input order, so the output is bit-for-bit identical to `threads = 1`.
pub struct BatchComputer<'g> {
    graph: &'g Csr,
    threads: usize,
    deadline: Option<std::time::Instant>,
    observer: Option<&'g dyn TraversalObserver>,
}

impl<'g> BatchComputer<'g> {
    /// Create a computer over `graph` (sequential by default).
    pub fn new(graph: &'g Csr) -> BatchComputer<'g> {
        BatchComputer { graph, threads: 1, deadline: None, observer: None }
    }

    /// Set the degree of parallelism for [`BatchComputer::compute`]
    /// (clamped to at least 1; `1` keeps the sequential path).
    pub fn with_threads(mut self, threads: usize) -> BatchComputer<'g> {
        self.threads = threads.max(1);
        self
    }

    /// Abandon the batch once `deadline` passes. The check runs before
    /// every per-source traversal, so a long batch is interrupted between
    /// groups instead of only failing after the whole batch finishes;
    /// [`BatchComputer::compute`] then returns
    /// [`GraphError::DeadlineExceeded`] rather than partial results.
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> BatchComputer<'g> {
        self.deadline = deadline;
        self
    }

    /// Report every per-source traversal (kind + settled-vertex count) to
    /// `observer`. The callback runs on the worker that performed the
    /// traversal, once per distinct source, and never influences results.
    pub fn with_observer(
        mut self,
        observer: Option<&'g dyn TraversalObserver>,
    ) -> BatchComputer<'g> {
        self.observer = observer;
        self
    }

    /// The configured degree of parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Validate `spec`'s weights and gather them into this graph's CSR slot
    /// order — the only part of a batch whose cost is O(edges) rather than
    /// O(search). Weights must be strictly positive (and not NaN): the
    /// earliest offending slot raises [`GraphError::NonPositiveWeight`], the
    /// paper's runtime exception, at every thread count. The gather
    /// parallelizes over the computer's pool; `threads = 1` is sequential.
    pub fn prepare(&self, spec: &WeightSpec) -> Result<PreparedWeights> {
        Ok(PreparedWeights(match spec {
            WeightSpec::Unweighted => Slots::None,
            WeightSpec::Int(w) => {
                Slots::Int(self.graph.permute_weights_int_with_threads(w, self.threads)?)
            }
            WeightSpec::Float(w) => {
                Slots::Float(self.graph.permute_weights_float_with_threads(w, self.threads)?)
            }
        }))
    }

    /// Compute results for every `(source, dest)` pair:
    /// [`BatchComputer::prepare`] then [`BatchComputer::compute_prepared`].
    ///
    /// `spec` selects the algorithm (BFS / int Dijkstra / float Dijkstra)
    /// and carries the per-row weights.
    pub fn compute(
        &self,
        pairs: &[(u32, u32)],
        spec: &WeightSpec,
        compute_paths: bool,
    ) -> Result<Vec<PairResult>> {
        self.compute_prepared(pairs, &self.prepare(spec)?, compute_paths)
    }

    /// Compute results for every `(source, dest)` pair over weights
    /// [`BatchComputer::prepare`]d for this graph (a vector prepared for a
    /// graph with a different edge count is a [`GraphError::LengthMismatch`]).
    ///
    /// When `compute_paths` is false the traversals still run (that is how
    /// the paper's library assesses reachability) but no path vectors are
    /// materialized.
    ///
    /// Pairs are grouped by source; each distinct source costs one traversal
    /// with early exit once all its destinations are settled. Duplicate
    /// `(source, dest)` pairs are answered from one computation — the batch
    /// is deduplicated up front and the shared result cloned back into every
    /// input position. Groups run on the configured worker pool; results are
    /// always in input-pair order.
    pub fn compute_prepared(
        &self,
        pairs: &[(u32, u32)],
        weights: &PreparedWeights,
        compute_paths: bool,
    ) -> Result<Vec<PairResult>> {
        if let Some(m) = weights.edges().filter(|&m| m != self.graph.num_edges()) {
            return Err(GraphError::LengthMismatch(format!(
                "weights prepared for {m} edges used on a graph with {}",
                self.graph.num_edges()
            )));
        }
        let mut first_of: HashMap<(u32, u32), usize> = HashMap::with_capacity(pairs.len());
        let mut uniq: Vec<(u32, u32)> = Vec::with_capacity(pairs.len());
        let mut slot: Vec<usize> = Vec::with_capacity(pairs.len());
        for &p in pairs {
            let next = uniq.len();
            let s = *first_of.entry(p).or_insert(next);
            if s == next {
                uniq.push(p);
            }
            slot.push(s);
        }
        if uniq.len() == pairs.len() {
            return self.compute_all(pairs, weights, compute_paths);
        }
        let uniq_results = self.compute_all(&uniq, weights, compute_paths)?;
        Ok(slot.into_iter().map(|s| uniq_results[s].clone()).collect())
    }

    /// [`BatchComputer::compute_prepared`] without the duplicate fast path:
    /// every pair is traversed as given (pairs within one source group still
    /// share that group's single traversal).
    fn compute_all(
        &self,
        pairs: &[(u32, u32)],
        weights: &PreparedWeights,
        compute_paths: bool,
    ) -> Result<Vec<PairResult>> {
        let n = self.graph.num_vertices();
        for &(s, d) in pairs {
            if s >= n {
                return Err(GraphError::VertexOutOfRange { id: s, n });
            }
            if d >= n {
                return Err(GraphError::VertexOutOfRange { id: d, n });
            }
        }

        // Group pair indices by source vertex: `order[range]` holds the
        // input indices of one distinct-source group.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_unstable_by_key(|&i| pairs[i].0);
        let mut groups: Vec<(u32, std::ops::Range<usize>)> = Vec::new();
        let mut g = 0;
        while g < order.len() {
            let source = pairs[order[g]].0;
            let mut end = g;
            while end < order.len() && pairs[order[end]].0 == source {
                end += 1;
            }
            groups.push((source, g..end));
            g = end;
        }

        // One traversal per group, source-parallel with per-worker scratch
        // arenas. `Pool::map_with` returns group results in group order and
        // degenerates to an inline loop when `threads == 1`. Each group
        // checks the deadline before traversing; an expired deadline makes
        // the remaining groups no-ops and fails the whole batch below.
        let expired = std::sync::atomic::AtomicBool::new(false);
        let pool = Pool::new(self.threads);
        let per_group = pool.map_with(groups.len(), GroupScratch::default, |scratch, gi| {
            if let Some(deadline) = self.deadline {
                if expired.load(std::sync::atomic::Ordering::Relaxed)
                    || std::time::Instant::now() >= deadline
                {
                    expired.store(true, std::sync::atomic::Ordering::Relaxed);
                    return Vec::new();
                }
            }
            let (source, ref range) = groups[gi];
            let group = &order[range.clone()];
            let targets: Vec<u32> = group.iter().map(|&i| pairs[i].1).collect();
            self.run_group(source, &targets, group, weights, compute_paths, scratch)
        });
        if expired.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(GraphError::DeadlineExceeded);
        }

        // Merge in input order: every input index appears in exactly one
        // group, so the scatter is a permutation.
        let mut results = vec![PairResult::unreachable(); pairs.len()];
        for group_results in per_group {
            for (idx, r) in group_results {
                results[idx] = r;
            }
        }
        Ok(results)
    }

    /// Convenience wrapper for a single pair.
    pub fn shortest_path(&self, source: u32, dest: u32, spec: &WeightSpec) -> Result<PairResult> {
        Ok(self.compute(&[(source, dest)], spec, true)?.pop().expect("one pair in, one out"))
    }

    fn run_group(
        &self,
        source: u32,
        targets: &[u32],
        group: &[usize],
        weights: &PreparedWeights,
        compute_paths: bool,
        scratch: &mut GroupScratch,
    ) -> Vec<(usize, PairResult)> {
        let mut out = Vec::with_capacity(group.len());
        match &weights.0 {
            Slots::None => {
                bfs_into(self.graph, source, targets, &mut scratch.bfs);
                if let Some(obs) = self.observer {
                    obs.traversal(TraversalKind::Bfs, scratch.bfs.settled_count());
                }
                let r = &scratch.bfs;
                for (&idx, &dest) in group.iter().zip(targets) {
                    let d = r.dist[dest as usize];
                    if d == u32::MAX {
                        continue; // stays unreachable
                    }
                    out.push((
                        idx,
                        PairResult {
                            reachable: true,
                            cost: Some(CostValue::Int(d as i64)),
                            path: compute_paths.then(|| {
                                reconstruct_path(
                                    self.graph,
                                    &r.parent,
                                    &r.parent_edge,
                                    source,
                                    dest,
                                )
                                .expect("reachable")
                            }),
                        },
                    ));
                }
            }
            Slots::Int(w) => {
                dijkstra_int_into(self.graph, source, targets, w, &mut scratch.int);
                if let Some(obs) = self.observer {
                    obs.traversal(TraversalKind::Dijkstra, scratch.int.settled_count());
                }
                let r = &scratch.int;
                for (&idx, &dest) in group.iter().zip(targets) {
                    let d = r.dist[dest as usize];
                    if d == u64::MAX {
                        continue;
                    }
                    out.push((
                        idx,
                        PairResult {
                            reachable: true,
                            cost: Some(CostValue::Int(d as i64)),
                            path: compute_paths.then(|| {
                                reconstruct_path(
                                    self.graph,
                                    &r.parent,
                                    &r.parent_edge,
                                    source,
                                    dest,
                                )
                                .expect("reachable")
                            }),
                        },
                    ));
                }
            }
            Slots::Float(w) => {
                dijkstra_float_into(self.graph, source, targets, w, &mut scratch.float);
                if let Some(obs) = self.observer {
                    obs.traversal(TraversalKind::Dijkstra, scratch.float.settled_count());
                }
                let r = &scratch.float;
                for (&idx, &dest) in group.iter().zip(targets) {
                    let d = r.dist[dest as usize];
                    if d.is_infinite() {
                        continue;
                    }
                    out.push((
                        idx,
                        PairResult {
                            reachable: true,
                            cost: Some(CostValue::Float(d)),
                            path: compute_paths.then(|| {
                                reconstruct_path(
                                    self.graph,
                                    &r.parent,
                                    &r.parent_edge,
                                    source,
                                    dest,
                                )
                                .expect("reachable")
                            }),
                        },
                    ));
                }
            }
        }
        out
    }
}

/// Per-worker traversal scratch: one arena per algorithm family, grown on
/// first use and reused across every group the worker processes.
#[derive(Debug, Default)]
struct GroupScratch {
    bfs: BfsScratch,
    int: DijkstraIntScratch,
    float: DijkstraFloatScratch,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap()
    }

    #[test]
    fn unweighted_batch_mixed_reachability() {
        let g = diamond();
        let c = BatchComputer::new(&g);
        let pairs = [(0, 4), (4, 0), (0, 0), (2, 3), (1, 2)];
        let r = c.compute(&pairs, &WeightSpec::Unweighted, true).unwrap();
        assert!(r[0].reachable);
        assert_eq!(r[0].cost, Some(CostValue::Int(3)));
        assert_eq!(r[0].path.as_ref().unwrap().len(), 3);
        assert!(!r[1].reachable);
        assert!(r[1].cost.is_none());
        assert!(r[2].reachable); // self pair
        assert_eq!(r[2].cost, Some(CostValue::Int(0)));
        assert_eq!(r[2].path.as_ref().unwrap().len(), 0);
        assert!(r[3].reachable);
        assert_eq!(r[3].cost, Some(CostValue::Int(1)));
        assert!(!r[4].reachable); // 1 cannot reach 2 in the diamond
    }

    #[test]
    fn weighted_batch_int() {
        let g = diamond();
        let c = BatchComputer::new(&g);
        // row weights: 0->1:10, 0->2:1, 1->3:1, 2->3:1, 3->4:1
        let spec = WeightSpec::Int(vec![10, 1, 1, 1, 1]);
        let r = c.compute(&[(0, 3), (0, 4)], &spec, true).unwrap();
        assert_eq!(r[0].cost, Some(CostValue::Int(2)));
        assert_eq!(r[0].path.as_ref().unwrap(), &vec![1, 3]); // rows via vertex 2
        assert_eq!(r[1].cost, Some(CostValue::Int(3)));
    }

    #[test]
    fn weighted_batch_float() {
        let g = diamond();
        let c = BatchComputer::new(&g);
        let spec = WeightSpec::Float(vec![0.5, 2.5, 0.25, 0.25, 1.0]);
        let r = c.compute(&[(0, 3)], &spec, true).unwrap();
        assert_eq!(r[0].cost, Some(CostValue::Float(0.75)));
        assert_eq!(r[0].path.as_ref().unwrap(), &vec![0, 2]); // via vertex 1
    }

    #[test]
    fn paths_skipped_when_not_requested() {
        let g = diamond();
        let c = BatchComputer::new(&g);
        let r = c.compute(&[(0, 4)], &WeightSpec::Unweighted, false).unwrap();
        assert!(r[0].reachable);
        assert!(r[0].path.is_none());
        assert!(r[0].cost.is_some());
    }

    #[test]
    fn invalid_weights_rejected_for_whole_batch() {
        let g = diamond();
        let c = BatchComputer::new(&g);
        let err = c.compute(&[(0, 1)], &WeightSpec::Int(vec![1, 1, -3, 1, 1]), true).unwrap_err();
        assert!(matches!(err, GraphError::NonPositiveWeight { .. }));
    }

    #[test]
    fn out_of_range_pair_rejected() {
        let g = diamond();
        let c = BatchComputer::new(&g);
        assert!(matches!(
            c.compute(&[(0, 99)], &WeightSpec::Unweighted, true),
            Err(GraphError::VertexOutOfRange { id: 99, .. })
        ));
    }

    #[test]
    fn many_pairs_same_source_one_traversal_semantics() {
        // All pairs share source 0; results must match individual queries.
        let g = diamond();
        let c = BatchComputer::new(&g);
        let pairs: Vec<(u32, u32)> = (0..5).map(|d| (0, d)).collect();
        let batch = c.compute(&pairs, &WeightSpec::Unweighted, true).unwrap();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let single = c.shortest_path(s, d, &WeightSpec::Unweighted).unwrap();
            assert_eq!(batch[i].reachable, single.reachable, "pair {i}");
            assert_eq!(batch[i].cost, single.cost, "pair {i}");
        }
    }

    #[test]
    fn parallel_threads_match_sequential_exactly() {
        let g = diamond();
        let pairs: Vec<(u32, u32)> =
            (0..5u32).flat_map(|s| (0..5u32).map(move |d| (s, d))).collect();
        let specs = [
            WeightSpec::Unweighted,
            WeightSpec::Int(vec![10, 1, 1, 1, 1]),
            WeightSpec::Float(vec![0.5, 2.5, 0.25, 0.25, 1.0]),
        ];
        for spec in &specs {
            let seq = BatchComputer::new(&g).compute(&pairs, spec, true).unwrap();
            for threads in [2, 4, 8] {
                let par = BatchComputer::new(&g)
                    .with_threads(threads)
                    .compute(&pairs, spec, true)
                    .unwrap();
                assert_eq!(par.len(), seq.len());
                for (i, (p, s)) in par.iter().zip(&seq).enumerate() {
                    assert_eq!(p.reachable, s.reachable, "threads {threads} pair {i}");
                    assert_eq!(p.cost, s.cost, "threads {threads} pair {i}");
                    assert_eq!(p.path, s.path, "threads {threads} pair {i}");
                }
            }
        }
    }

    #[test]
    fn expired_deadline_abandons_the_batch() {
        let g = diamond();
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let pairs: Vec<(u32, u32)> =
            (0..5u32).flat_map(|s| (0..5u32).map(move |d| (s, d))).collect();
        for threads in [1, 4] {
            let err = BatchComputer::new(&g)
                .with_threads(threads)
                .with_deadline(Some(past))
                .compute(&pairs, &WeightSpec::Unweighted, true)
                .unwrap_err();
            assert!(matches!(err, GraphError::DeadlineExceeded), "threads {threads}: {err}");
        }
        // A generous deadline changes nothing.
        let future = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let plain = BatchComputer::new(&g).compute(&pairs, &WeightSpec::Unweighted, true).unwrap();
        let timed = BatchComputer::new(&g)
            .with_deadline(Some(future))
            .compute(&pairs, &WeightSpec::Unweighted, true)
            .unwrap();
        for (p, t) in plain.iter().zip(&timed) {
            assert_eq!(p.cost, t.cost);
        }
    }

    #[test]
    fn duplicate_pairs_get_identical_results() {
        let g = diamond();
        let c = BatchComputer::new(&g);
        let r = c.compute(&[(0, 3), (0, 3)], &WeightSpec::Unweighted, true).unwrap();
        assert_eq!(r[0].cost, r[1].cost);
        assert_eq!(r[0].path, r[1].path);
    }

    #[test]
    fn interleaved_duplicates_preserve_input_order() {
        // Duplicates scattered through the batch are answered from one
        // computation each but land back in their input positions.
        let g = diamond();
        let pairs = [(0u32, 3u32), (2, 4), (0, 3), (4, 0), (2, 4), (0, 3), (0, 4)];
        let uniq = [(0u32, 3u32), (2, 4), (4, 0), (0, 4)];
        for threads in [1, 4] {
            let c = BatchComputer::new(&g).with_threads(threads);
            let r = c.compute(&pairs, &WeightSpec::Unweighted, true).unwrap();
            let u = c.compute(&uniq, &WeightSpec::Unweighted, true).unwrap();
            let expect = [&u[0], &u[1], &u[0], &u[2], &u[1], &u[0], &u[3]];
            for (i, (got, want)) in r.iter().zip(expect).enumerate() {
                assert_eq!(got.reachable, want.reachable, "threads {threads} pair {i}");
                assert_eq!(got.cost, want.cost, "threads {threads} pair {i}");
                assert_eq!(got.path, want.path, "threads {threads} pair {i}");
            }
        }
    }

    #[test]
    fn observer_sees_one_traversal_per_distinct_source() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CountingObserver {
            n: AtomicUsize,
            settled: AtomicUsize,
        }
        impl TraversalObserver for CountingObserver {
            fn traversal(&self, kind: TraversalKind, settled: usize) {
                assert_eq!(kind, TraversalKind::Bfs);
                self.n.fetch_add(1, Ordering::Relaxed);
                self.settled.fetch_add(settled, Ordering::Relaxed);
            }
        }
        let g = diamond();
        let obs = CountingObserver { n: AtomicUsize::new(0), settled: AtomicUsize::new(0) };
        let pairs = [(0u32, 4u32), (0, 3), (2, 3)];
        for threads in [1, 4] {
            obs.n.store(0, Ordering::Relaxed);
            obs.settled.store(0, Ordering::Relaxed);
            BatchComputer::new(&g)
                .with_threads(threads)
                .with_observer(Some(&obs))
                .compute(&pairs, &WeightSpec::Unweighted, false)
                .unwrap();
            // Sources {0, 2}: one traversal each regardless of width.
            assert_eq!(obs.n.load(Ordering::Relaxed), 2, "threads {threads}");
            assert!(obs.settled.load(Ordering::Relaxed) >= 2, "threads {threads}");
        }
    }

    #[test]
    fn duplicate_out_of_range_pairs_still_rejected() {
        let g = diamond();
        let c = BatchComputer::new(&g);
        assert!(matches!(
            c.compute(&[(0, 99), (0, 99)], &WeightSpec::Unweighted, true),
            Err(GraphError::VertexOutOfRange { id: 99, .. })
        ));
    }
}
