//! The many-to-many driver — the library's entry point as described in §3.2.
//!
//! The paper's runtime is invoked with "(1) the columns S and D, denoting the
//! edges of the graph; (2) the source X and destination Y vertices to
//! filter; (3) in case, the additional columns W for the weights". It returns
//! the row ids of connected pairs plus the requested shortest paths.
//!
//! [`SourceSearch`] implements that contract over a [`Csr`] as a
//! [`Search`]: given a list of `(source, dest)` pairs it groups them by
//! source, runs **one traversal per distinct source** with
//! multi-destination early exit, and returns per-pair reachability, cost and
//! (optionally) the path as edge row ids. This grouping is precisely what
//! lets Figure 1b's batched execution amortize the graph-construction cost.
//! [`BatchComputer`] is its builder-style entry point.

use crate::bfs::{bfs_into, BfsScratch};
use crate::csr::Csr;
use crate::dijkstra::{
    dijkstra_float_into, dijkstra_int_into, DijkstraFloatScratch, DijkstraIntScratch,
};
use crate::error::GraphError;
use crate::path::reconstruct_path;
use crate::search::{check_vertices, Budget, Search};
use crate::{Result, TraversalKind, TraversalObserver};
use std::collections::HashMap;

/// Weight specification for one `CHEAPEST SUM` evaluation.
///
/// Weight vectors are indexed by **original edge-table row id** (the order
/// the edge table was materialized in), not CSR slot order;
/// [`PreparedWeights::new`] validates and permutes them.
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
    /// The answer for a pair with no path.
    pub const UNREACHABLE: PairResult = PairResult { reachable: false, cost: None, path: None };

    /// The answer for a reachable pair.
    pub fn reached(cost: CostValue, path: Option<Vec<u32>>) -> PairResult {
        PairResult { reachable: true, cost: Some(cost), path }
    }
}

/// A [`WeightSpec`] made ready for traversal over one particular [`Csr`]:
/// every weight validated strictly positive and gathered into CSR slot
/// order. Only [`PreparedWeights::new`] builds one, so holding a value is
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

/// The weights of a hop search, which fit every graph.
static HOPS: PreparedWeights = PreparedWeights(Slots::None);

impl PreparedWeights {
    /// Validate `spec`'s weights and gather them into `graph`'s CSR slot
    /// order — the only part of a batch whose cost is O(edges) rather than
    /// O(search). Weights must be strictly positive (and not NaN): the
    /// earliest offending slot raises [`GraphError::NonPositiveWeight`], the
    /// paper's runtime exception, at every thread count. The gather
    /// parallelizes over `threads` workers; `1` is sequential.
    pub fn new(graph: &Csr, spec: &WeightSpec, threads: usize) -> Result<PreparedWeights> {
        Ok(PreparedWeights(match spec {
            WeightSpec::Unweighted => Slots::None,
            WeightSpec::Int(w) => Slots::Int(graph.permute_weights_int_with_threads(w, threads)?),
            WeightSpec::Float(w) => {
                Slots::Float(graph.permute_weights_float_with_threads(w, threads)?)
            }
        }))
    }

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

/// One traversal per distinct source over one CSR: BFS when the weights
/// are hops, Dijkstra (radix heap for integers, binary heap for floats)
/// over [`PreparedWeights`] otherwise.
///
/// Pairs are grouped by source; each distinct source costs one traversal
/// with early exit once all its destinations are settled, and reports it to
/// the budget's observer as [`TraversalKind::Bfs`] or
/// [`TraversalKind::Dijkstra`]. Duplicate `(source, dest)` pairs are
/// answered from one computation — the batch is deduplicated up front and
/// the shared result cloned back into every input position. Groups spread
/// across the budget's workers (dynamic stealing — traversal costs are
/// irregular), each worker reusing one scratch arena per algorithm; results
/// are always in input-pair order, bit-for-bit identical at every width.
///
/// When `want_path` is false the traversals still run (that is how the
/// paper's library assesses reachability) but no path vectors are
/// materialized.
#[derive(Debug, Clone, Copy)]
pub struct SourceSearch<'g> {
    graph: &'g Csr,
    weights: &'g PreparedWeights,
}

impl<'g> SourceSearch<'g> {
    /// BFS over `graph`: cost = hop count (`CHEAPEST SUM(1)`).
    pub fn bfs(graph: &'g Csr) -> SourceSearch<'g> {
        SourceSearch { graph, weights: &HOPS }
    }

    /// Dijkstra over `weights` prepared for `graph` (hop weights make it a
    /// BFS).
    pub fn new(graph: &'g Csr, weights: &'g PreparedWeights) -> SourceSearch<'g> {
        SourceSearch { graph, weights }
    }

    /// Answer one source group: traverse once from `source` towards every
    /// target, then read each target's cost (and path) off the scratch.
    fn search(
        &self,
        scratch: &mut GroupScratch,
        source: u32,
        targets: &[u32],
        budget: &Budget<'_>,
        want_path: bool,
    ) -> Vec<PairResult> {
        let answers = |parent: &[u32],
                       parent_edge: &[u32],
                       cost: &dyn Fn(usize) -> Option<CostValue>| {
            let path = |dest| reconstruct_path(self.graph, parent, parent_edge, source, dest);
            targets
                .iter()
                .map(|&dest| match cost(dest as usize) {
                    None => PairResult::UNREACHABLE,
                    Some(c) => {
                        PairResult::reached(c, want_path.then(|| path(dest).expect("reachable")))
                    }
                })
                .collect()
        };
        match &self.weights.0 {
            Slots::None => {
                let r = &mut scratch.bfs;
                bfs_into(self.graph, source, targets, r);
                budget.traversal(TraversalKind::Bfs, r.settled_count());
                let d = &r.dist;
                answers(&r.parent, &r.parent_edge, &|t| {
                    (d[t] != u32::MAX).then(|| CostValue::Int(i64::from(d[t])))
                })
            }
            Slots::Int(w) => {
                let r = &mut scratch.int;
                dijkstra_int_into(self.graph, source, targets, w, r);
                budget.traversal(TraversalKind::Dijkstra, r.settled_count());
                let d = &r.dist;
                answers(&r.parent, &r.parent_edge, &|t| {
                    (d[t] != u64::MAX).then(|| CostValue::Int(d[t] as i64))
                })
            }
            Slots::Float(w) => {
                let r = &mut scratch.float;
                dijkstra_float_into(self.graph, source, targets, w, r);
                budget.traversal(TraversalKind::Dijkstra, r.settled_count());
                let d = &r.dist;
                answers(&r.parent, &r.parent_edge, &|t| {
                    (!d[t].is_infinite()).then(|| CostValue::Float(d[t]))
                })
            }
        }
    }
}

impl Search for SourceSearch<'_> {
    fn run(
        &self,
        pairs: &[(u32, u32)],
        budget: &Budget<'_>,
        want_path: bool,
    ) -> Result<Vec<PairResult>> {
        if let Some(m) = self.weights.edges().filter(|&m| m != self.graph.num_edges()) {
            return Err(GraphError::LengthMismatch(format!(
                "weights prepared for {m} edges used on a graph with {}",
                self.graph.num_edges()
            )));
        }
        check_vertices(pairs, self.graph.num_vertices())?;
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
        let search = |scratch: &mut GroupScratch, source, targets: &[u32]| {
            self.search(scratch, source, targets, budget, want_path)
        };
        if uniq.len() == pairs.len() {
            return budget.per_source(pairs, GroupScratch::default, search);
        }
        let uniq_results = budget.per_source(&uniq, GroupScratch::default, search)?;
        Ok(slot.into_iter().map(|s| uniq_results[s].clone()).collect())
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

/// The batch entry point over one CSR: a [`SourceSearch`] with its
/// [`Budget`] configured builder-style (sequential, unobserved and without
/// a deadline by default).
pub struct BatchComputer<'g> {
    graph: &'g Csr,
    budget: Budget<'g>,
}

impl<'g> BatchComputer<'g> {
    /// Create a computer over `graph` (sequential by default).
    pub fn new(graph: &'g Csr) -> BatchComputer<'g> {
        BatchComputer { graph, budget: Budget { threads: 1, ..Budget::default() } }
    }

    /// Set the degree of parallelism (clamped to at least 1; `1` keeps the
    /// sequential path).
    pub fn with_threads(mut self, threads: usize) -> BatchComputer<'g> {
        self.budget.threads = threads.max(1);
        self
    }

    /// Report every per-source traversal (kind + settled-vertex count) to
    /// `observer`. The callback runs on the worker that performed the
    /// traversal, once per distinct source, and never influences results.
    pub fn with_observer(
        mut self,
        observer: Option<&'g dyn TraversalObserver>,
    ) -> BatchComputer<'g> {
        self.budget.observer = observer;
        self
    }

    /// Compute results for every `(source, dest)` pair:
    /// [`PreparedWeights::new`], then [`SourceSearch::run`] within the
    /// configured budget. `spec` selects the algorithm (BFS / int Dijkstra /
    /// float Dijkstra) and carries the per-row weights.
    pub fn compute(
        &self,
        pairs: &[(u32, u32)],
        spec: &WeightSpec,
        compute_paths: bool,
    ) -> Result<Vec<PairResult>> {
        let weights = PreparedWeights::new(self.graph, spec, self.budget.threads)?;
        SourceSearch::new(self.graph, &weights).run(pairs, &self.budget, compute_paths)
    }
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
            let single = &c.compute(&[(s, d)], &WeightSpec::Unweighted, true).unwrap()[0];
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
