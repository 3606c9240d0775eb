//! Compressed Sparse Row graph representation.
//!
//! The paper (§3.2): "Our implementation always builds a Compressed Sparse
//! Row (CSR) representation of the underlying graph, somewhat resembling an
//! adjacency list. The columns {S, D} ∪ W are sorted according to S, thus a
//! prefix sum is computed on S itself."
//!
//! We keep, for every CSR slot, the **original edge-table row id** so that a
//! shortest path can be reported as a list of row references into the edge
//! table (the §3.3 nested-table representation) and so that per-query weight
//! columns can be permuted into CSR order.
//!
//! There is one construction kernel: a graph **grown** by edges whose row
//! ids follow its own — the graph of an edge table after rows were appended
//! to it. A build ([`Csr::from_dense_edges`]) grows the empty graph; a
//! reversal ([`crate::reverse_csr`]) grows the empty graph by the forward
//! slots; a graph index whose table only had rows appended grows its CSR
//! ([`Csr::appended`]) and its reverse ([`Csr::appended_reverse`]) by the
//! new rows, in `O(|V| + |E|)` with no dictionary or sort over the old
//! edges. Out-lists are ordered by row id and reversed lists by forward
//! slot, so a grown graph is identical, slot for slot, to one built from
//! all its rows at once.

use crate::error::GraphError;
use crate::Result;
use gsql_parallel::Pool;

/// A directed graph in CSR form over dense vertex ids `0..n`; the
/// default is the empty graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes the out-edges of `v` in
    /// [`Csr::targets`] / [`Csr::edge_rows`]. Length `n + 1`.
    pub(crate) offsets: Vec<usize>,
    /// Destination vertex of each CSR slot.
    pub(crate) targets: Vec<u32>,
    /// Original edge-table row id of each CSR slot.
    pub(crate) edge_rows: Vec<u32>,
}

impl Default for Csr {
    fn default() -> Csr {
        Csr { offsets: vec![0], targets: Vec::new(), edge_rows: Vec::new() }
    }
}

impl Csr {
    /// Build a CSR from parallel `src`/`dst` arrays of dense vertex ids.
    ///
    /// Edge `i` runs `src[i] -> dst[i]` and keeps row id `i`. Duplicate
    /// edges and self-loops are preserved (they are legitimate rows of the
    /// edge table). This is the checked constructor: it validates the
    /// arrays, then runs [`Csr::from_dense_edges`].
    pub fn from_edges(num_vertices: u32, src: &[u32], dst: &[u32]) -> Result<Csr> {
        if src.len() != dst.len() {
            return Err(GraphError::LengthMismatch(format!(
                "src has {} entries, dst has {}",
                src.len(),
                dst.len()
            )));
        }
        for &v in src.iter().chain(dst.iter()) {
            if v >= num_vertices {
                return Err(GraphError::VertexOutOfRange { id: v, n: num_vertices });
            }
        }
        Ok(Csr::from_dense_edges(num_vertices, src, dst))
    }

    /// The trusted constructor, for callers whose ids are `< num_vertices`
    /// by construction (a vertex dictionary's output): the counting sort +
    /// prefix sum the paper describes, `O(|V| + |E|)`, with no validation
    /// pass — [`Csr::appended`] to the empty graph. Sequential on purpose: a
    /// chunk-parallel variant did not beat this loop on any benchmark
    /// workload (README, "Graph construction").
    ///
    /// # Panics
    /// Panics on arrays of different lengths and (index out of bounds) on a
    /// source id `>= num_vertices`; use [`Csr::from_edges`] for input that
    /// has not been checked.
    pub fn from_dense_edges(num_vertices: u32, src: &[u32], dst: &[u32]) -> Csr {
        Csr::default().appended(num_vertices, src, dst)
    }

    /// This graph grown to `num_vertices` vertices (ids are kept) plus the
    /// edges `src[i] -> dst[i]`, which keep row ids `num_edges() + i`: the
    /// graph of an edge table after rows were appended to it. Each
    /// out-list is ordered by row id, as [`Csr::from_dense_edges`] orders
    /// it, so when this graph's row ids are `0..num_edges()` the result is
    /// identical to building all the edges at once. `O(|V| + |E|)`.
    ///
    /// # Panics
    /// As [`Csr::from_dense_edges`], and when `num_vertices` is below this
    /// graph's vertex count.
    pub fn appended(&self, num_vertices: u32, src: &[u32], dst: &[u32]) -> Csr {
        assert_eq!(src.len(), dst.len(), "one destination per source");
        debug_assert!(src.iter().chain(dst).all(|&v| v < num_vertices));
        let first = self.num_edges() as u32;
        let new = src.iter().zip(dst).enumerate();
        self.merged(num_vertices, new.map(|(i, (&s, &d))| (s, d, first + i as u32)), false)
    }

    /// The reverse graph ([`crate::reverse_csr`]) of a graph after
    /// [`Csr::appended`] added `src[i] -> dst[i]` to it, where `self` is the
    /// reverse of the graph before. Each reversed list stays ordered by the
    /// forward graph's slots, so for a forward graph whose out-lists are
    /// ordered by row id (every graph [`Csr::appended`] builds) the result
    /// is identical to reversing the grown graph. `O(|V| + |E|)` plus a
    /// sort of the reversed lists the new edges land in.
    ///
    /// # Panics
    /// As [`Csr::appended`].
    pub fn appended_reverse(&self, num_vertices: u32, src: &[u32], dst: &[u32]) -> Csr {
        assert_eq!(src.len(), dst.len(), "one destination per source");
        debug_assert!(src.iter().chain(dst).all(|&v| v < num_vertices));
        let first = self.num_edges() as u32;
        // Forward slot order: by source, then by row.
        let mut order: Vec<u32> = (0..src.len() as u32).collect();
        order.sort_by_key(|&i| src[i as usize]);
        let new = order.iter().map(|&i| (dst[i as usize], src[i as usize], first + i));
        self.merged(num_vertices, new, true)
    }

    /// The one construction kernel: this graph grown to `num_vertices`
    /// vertices plus the edges `new` yields as `(from, to, row)`, each
    /// placed in `from`'s list. A list holds its old slots, then its new
    /// ones in the order `new` yields them; with `by_target`, a list that
    /// gained slots is then sorted by `(target, row)` — the order of a
    /// reversed list whose old and new slots interleave. Counting pass,
    /// prefix sum, one copy of the old lists, one scatter.
    pub(crate) fn merged<I>(&self, num_vertices: u32, new: I, by_target: bool) -> Csr
    where
        I: Iterator<Item = (u32, u32, u32)> + Clone,
    {
        let (n, old_n) = (num_vertices as usize, self.num_vertices() as usize);
        assert!(old_n <= n, "a graph grows: {n} vertices for a graph of {old_n}");
        let mut offsets = vec![0usize; n + 1];
        for v in 0..old_n {
            offsets[v + 1] = self.offsets[v + 1] - self.offsets[v];
        }
        for (from, _, _) in new.clone() {
            offsets[from as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let m = offsets[n];
        let mut targets = vec![0u32; m];
        let mut edge_rows = vec![0u32; m];
        let mut cursor = offsets[..n].to_vec();
        for v in 0..old_n {
            let (old, at) = (self.offsets[v]..self.offsets[v + 1], cursor[v]);
            cursor[v] += old.len();
            targets[at..cursor[v]].copy_from_slice(&self.targets[old.clone()]);
            edge_rows[at..cursor[v]].copy_from_slice(&self.edge_rows[old]);
        }
        for (from, to, row) in new {
            let slot = cursor[from as usize];
            cursor[from as usize] += 1;
            targets[slot] = to;
            edge_rows[slot] = row;
        }
        if by_target {
            for v in 0..old_n {
                let mid = offsets[v] + self.out_degree(v as u32);
                let list = offsets[v]..offsets[v + 1];
                let key = |slot: usize| (targets[slot], edge_rows[slot]);
                if list.start < mid && mid < list.end && key(mid - 1) > key(mid) {
                    let mut slots: Vec<(u32, u32)> = list.clone().map(key).collect();
                    slots.sort_unstable();
                    for (slot, (t, row)) in list.zip(slots) {
                        (targets[slot], edge_rows[slot]) = (t, row);
                    }
                }
            }
        }
        Csr { offsets, targets, edge_rows }
    }

    /// Borrow the raw CSR arrays `(offsets, targets, edge_rows)`: what a
    /// checkpoint writes, and what a restore compares with the CSR it
    /// derives from the table.
    pub fn raw_parts(&self) -> (&[usize], &[u32], &[u32]) {
        (&self.offsets, &self.targets, &self.edge_rows)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of vertex `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Destination vertex stored at CSR slot `slot`.
    pub fn target(&self, slot: usize) -> u32 {
        self.targets[slot]
    }

    /// Original edge-table row id stored at CSR slot `slot`.
    pub fn edge_row(&self, slot: usize) -> u32 {
        self.edge_rows[slot]
    }

    /// Iterate `(csr_slot, target_vertex)` over the out-edges of `v`.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (usize, u32)> + '_ {
        let slots = self.offsets[v as usize]..self.offsets[v as usize + 1];
        slots.map(move |slot| (slot, self.targets[slot]))
    }

    /// Permute a per-row weight array into CSR slot order, validating the
    /// strict positivity contract of `CHEAPEST SUM` on the way.
    ///
    /// `weights[row]` is the weight of original edge row `row`; the result
    /// is aligned with the CSR's slots. This is the one-worker form of the
    /// gather [`crate::PreparedWeights::new`] runs.
    pub fn permute_weights_int(&self, weights: &[i64]) -> Result<Vec<i64>> {
        self.permute_weights(weights, 1)
    }

    /// Floating-point variant of [`Csr::permute_weights_int`]. NaN weights
    /// are rejected alongside non-positive ones.
    pub fn permute_weights_float(&self, weights: &[f64]) -> Result<Vec<f64>> {
        self.permute_weights(weights, 1)
    }

    /// The one gather: `out[slot] = weights[edge_rows[slot]]`, rejecting any
    /// weight that is not strictly positive. The slots are chunked over a
    /// pool of `threads` workers, each writing its own part of the output;
    /// every chunk runs to completion and the first failing chunk's first
    /// offending slot is reported, so values and errors alike are those of
    /// a sequential scan at every width.
    pub(crate) fn permute_weights<T: Weight>(
        &self,
        weights: &[T],
        threads: usize,
    ) -> Result<Vec<T>> {
        let m = self.num_edges();
        if weights.len() != m {
            return Err(GraphError::LengthMismatch(format!(
                "{} weights for {} edges",
                weights.len(),
                m
            )));
        }
        let mut out = vec![T::default(); m];
        let chunks = Pool::new(threads).map_chunks_mut(&mut out, |slots, part| {
            for (slot, out) in slots.zip(part) {
                let row = self.edge_rows[slot];
                let w = weights[row as usize];
                if !w.is_positive() {
                    return Err(GraphError::NonPositiveWeight {
                        edge_row: row,
                        weight: w.to_string(),
                    });
                }
                *out = w;
            }
            Ok(())
        });
        chunks.into_iter().collect::<Result<()>>()?;
        Ok(out)
    }
}

/// A `CHEAPEST SUM` weight type: what [`Csr::permute_weights`] gathers.
pub(crate) trait Weight: Copy + Default + Send + Sync + ToString {
    /// The strict positivity contract (NaN fails it).
    fn is_positive(self) -> bool;
}

impl Weight for i64 {
    fn is_positive(self) -> bool {
        self > 0
    }
}

impl Weight for f64 {
    fn is_positive(self) -> bool {
        self > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-vertex diamond used across this crate's tests:
    /// 0->1, 0->2, 1->3, 2->3, 3->4.
    pub(crate) fn diamond() -> Csr {
        Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap()
    }

    #[test]
    fn builds_adjacency_correctly() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(4), 0);
        let mut n0: Vec<u32> = g.neighbors(0).map(|(_, t)| t).collect();
        n0.sort();
        assert_eq!(n0, vec![1, 2]);
        assert_eq!(g.neighbors(3).map(|(_, t)| t).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn edge_rows_map_back_to_input_rows() {
        let g = diamond();
        // Each CSR slot's (source via offsets, target) must match the input
        // edge at edge_rows[slot].
        let src = [0u32, 0, 1, 2, 3];
        let dst = [1u32, 2, 3, 3, 4];
        for v in 0..g.num_vertices() {
            for (slot, t) in g.neighbors(v) {
                let row = g.edge_row(slot) as usize;
                assert_eq!(src[row], v);
                assert_eq!(dst[row], t);
            }
        }
    }

    #[test]
    fn preserves_duplicates_and_self_loops() {
        let g = Csr::from_edges(2, &[0, 0, 1], &[1, 1, 1]).unwrap();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(1), 1); // self loop 1->1
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn rejects_out_of_range_vertices() {
        let err = Csr::from_edges(2, &[0, 5], &[1, 1]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { id: 5, n: 2 }));
    }

    #[test]
    fn rejects_ragged_input() {
        assert!(matches!(Csr::from_edges(2, &[0], &[1, 0]), Err(GraphError::LengthMismatch(_))));
    }

    #[test]
    fn weight_permutation_aligns_with_slots() {
        let g = diamond();
        // weight of row i is (i+1)*10
        let weights: Vec<i64> = (0..5).map(|i| (i + 1) * 10).collect();
        let permuted = g.permute_weights_int(&weights).unwrap();
        for slot in 0..g.num_edges() {
            assert_eq!(permuted[slot], weights[g.edge_row(slot) as usize]);
        }
    }

    #[test]
    fn weight_positivity_enforced() {
        let g = diamond();
        let err = g.permute_weights_int(&[1, 2, 0, 4, 5]).unwrap_err();
        assert!(matches!(err, GraphError::NonPositiveWeight { edge_row: 2, .. }));
        let err = g.permute_weights_float(&[1.0, 2.0, 3.0, -0.5, 5.0]).unwrap_err();
        assert!(matches!(err, GraphError::NonPositiveWeight { edge_row: 3, .. }));
        let err = g.permute_weights_float(&[1.0, 2.0, 3.0, f64::NAN, 5.0]).unwrap_err();
        assert!(matches!(err, GraphError::NonPositiveWeight { edge_row: 3, .. }));
    }

    #[test]
    fn parallel_permute_matches_sequential() {
        // Large enough that a 4-wide pool actually splits into chunks.
        let m = 4096u32;
        let n = 64u32;
        let src: Vec<u32> = (0..m).map(|i| (i * 7 + 3) % n).collect();
        let dst: Vec<u32> = (0..m).map(|i| (i * 13 + 1) % n).collect();
        let g = Csr::from_edges(n, &src, &dst).unwrap();
        let wi: Vec<i64> = (0..m as i64).map(|i| i % 97 + 1).collect();
        let wf: Vec<f64> = wi.iter().map(|&w| w as f64 * 0.5).collect();
        let seq_i = g.permute_weights_int(&wi).unwrap();
        let seq_f = g.permute_weights_float(&wf).unwrap();
        for threads in [2, 4, 8] {
            assert_eq!(g.permute_weights(&wi, threads).unwrap(), seq_i);
            assert_eq!(g.permute_weights(&wf, threads).unwrap(), seq_f);
        }
    }

    #[test]
    fn parallel_permute_reports_sequential_error() {
        // Two offending rows in different chunks: the parallel gather must
        // report the same (slot-order-first) error as the sequential scan.
        let m = 4096u32;
        let n = 64u32;
        let src: Vec<u32> = (0..m).map(|i| (i * 5 + 2) % n).collect();
        let dst: Vec<u32> = (0..m).map(|i| (i * 11 + 9) % n).collect();
        let g = Csr::from_edges(n, &src, &dst).unwrap();
        let mut wi: Vec<i64> = vec![1; m as usize];
        wi[100] = 0;
        wi[4000] = -5;
        let seq = g.permute_weights_int(&wi).unwrap_err();
        for threads in [2, 4, 8] {
            let par = g.permute_weights(&wi, threads).unwrap_err();
            assert_eq!(par, seq, "threads {threads}");
        }
        let mut wf: Vec<f64> = vec![1.0; m as usize];
        wf[70] = f64::NAN;
        wf[3900] = -1.0;
        let seq = g.permute_weights_float(&wf).unwrap_err();
        for threads in [2, 4, 8] {
            let par = g.permute_weights(&wf, threads).unwrap_err();
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[], &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices_have_no_neighbors() {
        let g = Csr::from_edges(4, &[0], &[1]).unwrap();
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.out_degree(3), 0);
    }
}
