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

use crate::error::GraphError;
use crate::Result;
use gsql_parallel::{Pool, SharedSlice};

/// A directed graph in CSR form over dense vertex ids `0..n`.
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
    /// pass. Sequential on purpose — a chunk-parallel variant did not beat
    /// this loop on any benchmark workload (README, "Graph construction").
    ///
    /// # Panics
    /// Panics on arrays of different lengths and (index out of bounds) on a
    /// source id `>= num_vertices`; use [`Csr::from_edges`] for input that
    /// has not been checked.
    pub fn from_dense_edges(num_vertices: u32, src: &[u32], dst: &[u32]) -> Csr {
        assert_eq!(src.len(), dst.len(), "one destination per source");
        debug_assert!(src.iter().chain(dst).all(|&v| v < num_vertices));
        let n = num_vertices as usize;
        let mut offsets = vec![0usize; n + 1];
        for &s in src {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![0u32; src.len()];
        let mut edge_rows = vec![0u32; src.len()];
        let mut cursor = offsets[..n].to_vec();
        for (row, (&s, &d)) in src.iter().zip(dst).enumerate() {
            let slot = cursor[s as usize];
            cursor[s as usize] += 1;
            targets[slot] = d;
            edge_rows[slot] = row as u32;
        }
        Csr { offsets, targets, edge_rows }
    }

    /// Borrow the raw CSR arrays `(offsets, targets, edge_rows)` for
    /// serialization.
    pub fn raw_parts(&self) -> (&[usize], &[u32], &[u32]) {
        (&self.offsets, &self.targets, &self.edge_rows)
    }

    /// Reassemble a CSR from raw arrays (the inverse of
    /// [`Csr::raw_parts`]), validating the structural invariants so corrupt
    /// serialized data cannot produce a panicking graph.
    pub fn from_raw_parts(
        offsets: Vec<usize>,
        targets: Vec<u32>,
        edge_rows: Vec<u32>,
    ) -> Result<Csr> {
        if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::LengthMismatch(
                "CSR offsets must start at 0 and be non-decreasing".into(),
            ));
        }
        let m = *offsets.last().unwrap_or(&0);
        if targets.len() != m || edge_rows.len() != m {
            return Err(GraphError::LengthMismatch(format!(
                "CSR declares {m} edges but has {} targets and {} edge rows",
                targets.len(),
                edge_rows.len()
            )));
        }
        let n = (offsets.len() - 1) as u32;
        if let Some(&bad) = targets.iter().find(|&&t| t >= n) {
            return Err(GraphError::VertexOutOfRange { id: bad, n });
        }
        Ok(Csr { offsets, targets, edge_rows })
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
    /// is aligned with the CSR's slots.
    pub fn permute_weights_int(&self, weights: &[i64]) -> Result<Vec<i64>> {
        self.permute_weights_int_with_threads(weights, 1)
    }

    /// [`Csr::permute_weights_int`] with the gather chunked over a scoped
    /// worker pool. Each chunk of CSR slots gathers (and validates) its
    /// range independently; the reported error is the one the sequential
    /// slot-order scan would surface (the failing chunks all finish, and
    /// the earliest chunk's first offending slot wins), so the output —
    /// values and errors alike — is identical to the sequential gather.
    pub fn permute_weights_int_with_threads(
        &self,
        weights: &[i64],
        threads: usize,
    ) -> Result<Vec<i64>> {
        self.permute_weights_with(weights, threads, |w| *w > 0)
    }

    /// Floating-point variant of [`Csr::permute_weights_int`]. NaN weights
    /// are rejected alongside non-positive ones.
    pub fn permute_weights_float(&self, weights: &[f64]) -> Result<Vec<f64>> {
        self.permute_weights_float_with_threads(weights, 1)
    }

    /// [`Csr::permute_weights_float`] with the chunked parallel gather of
    /// [`Csr::permute_weights_int_with_threads`] (same error semantics).
    pub fn permute_weights_float_with_threads(
        &self,
        weights: &[f64],
        threads: usize,
    ) -> Result<Vec<f64>> {
        self.permute_weights_with(weights, threads, |w| *w > 0.0 && !w.is_nan())
    }

    /// The shared gather: `out[slot] = weights[edge_rows[slot]]`, chunked
    /// over the pool, rejecting any weight failing `valid`.
    fn permute_weights_with<T: Copy + Send + Sync + ToString>(
        &self,
        weights: &[T],
        threads: usize,
        valid: impl Fn(&T) -> bool + Sync,
    ) -> Result<Vec<T>> {
        let m = self.num_edges();
        if weights.len() != m {
            return Err(GraphError::LengthMismatch(format!(
                "{} weights for {} edges",
                weights.len(),
                m
            )));
        }
        let pool = Pool::new(threads);
        if pool.is_sequential() || pool.chunks(m).len() <= 1 {
            let mut out = Vec::with_capacity(m);
            for &row in &self.edge_rows {
                let w = weights[row as usize];
                if !valid(&w) {
                    return Err(GraphError::NonPositiveWeight {
                        edge_row: row,
                        weight: w.to_string(),
                    });
                }
                out.push(w);
            }
            return Ok(out);
        }
        let mut out = vec![weights[0]; m];
        // Every chunk runs to completion (no fail-fast): chunk results are
        // inspected in slot order below, so the winning error is exactly
        // the first offending slot a sequential scan would report.
        let results: Vec<Result<()>> = {
            let shared = SharedSlice::new(&mut out);
            pool.map_chunks(m, |range| {
                for slot in range {
                    let row = self.edge_rows[slot];
                    let w = weights[row as usize];
                    if !valid(&w) {
                        return Err(GraphError::NonPositiveWeight {
                            edge_row: row,
                            weight: w.to_string(),
                        });
                    }
                    // SAFETY: chunks partition the slot range; each slot is
                    // written by exactly one chunk.
                    unsafe { shared.write(slot, w) };
                }
                Ok(())
            })
        };
        for r in results {
            r?;
        }
        Ok(out)
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
            assert_eq!(g.permute_weights_int_with_threads(&wi, threads).unwrap(), seq_i);
            assert_eq!(g.permute_weights_float_with_threads(&wf, threads).unwrap(), seq_f);
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
            let par = g.permute_weights_int_with_threads(&wi, threads).unwrap_err();
            assert_eq!(par, seq, "threads {threads}");
        }
        let mut wf: Vec<f64> = vec![1.0; m as usize];
        wf[70] = f64::NAN;
        wf[3900] = -1.0;
        let seq = g.permute_weights_float(&wf).unwrap_err();
        for threads in [2, 4, 8] {
            let par = g.permute_weights_float_with_threads(&wf, threads).unwrap_err();
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
