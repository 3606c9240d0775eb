//! The answer oracle: the benchmark's own CSR over the generated edge
//! arrays, searched with the plain `gsql_graph` BFS and Dijkstra.
//!
//! It shares no state with the engine under test — no dictionary, no graph
//! index, no accelerator — and it never takes the bidirectional, batched or
//! contracted paths the workloads exercise. Vertex `v` of the oracle is the
//! generated id `v + 1` (both generators number from 1).

use gsql_graph::{bfs, dijkstra_int, Csr};

pub struct Oracle {
    n: u32,
    src: Vec<u32>,
    dst: Vec<u32>,
    w: Vec<i64>,
    /// CSR plus slot-ordered weights; dropped whenever an edge is added.
    built: Option<(Csr, Vec<i64>)>,
    /// Test-only: shift every expected cost by one so verification must fail.
    corrupt: bool,
}

impl Oracle {
    /// `src`/`dst` are generated ids (1-based); `w` the integer edge weights
    /// in edge-table row order.
    pub fn new(n: u32, src: &[i64], dst: &[i64], w: Vec<i64>, corrupt: bool) -> Oracle {
        let dense = |ids: &[i64]| ids.iter().map(|&v| (v - 1) as u32).collect();
        Oracle { n, src: dense(src), dst: dense(dst), w, built: None, corrupt }
    }

    /// Append one edge (generated ids), as an `INSERT` into the edge table
    /// does.
    pub fn push_edge(&mut self, s: i64, d: i64, w: i64) {
        self.src.push((s - 1) as u32);
        self.dst.push((d - 1) as u32);
        self.w.push(w);
        self.built = None;
    }

    /// Build the CSR now (so later `&self` searches can share it).
    pub fn build(&mut self) {
        if self.built.is_none() {
            let csr = Csr::from_edges(self.n, &self.src, &self.dst).expect("oracle ids in range");
            let w = csr.permute_weights_int(&self.w).expect("oracle weights positive");
            self.built = Some((csr, w));
        }
    }

    fn graph(&self) -> &(Csr, Vec<i64>) {
        self.built.as_ref().expect("Oracle::build before searching")
    }

    fn shift(&self, cost: i64) -> i64 {
        cost + i64::from(self.corrupt)
    }

    /// Hop count from generated id `s` to `d`; `None` when unreachable.
    pub fn hops(&self, s: i64, d: i64) -> Option<i64> {
        self.hops_from(s, &[d])[0]
    }

    /// Hop counts from `s` to each of `targets`, in one search.
    pub fn hops_from(&self, s: i64, targets: &[i64]) -> Vec<Option<i64>> {
        let dense: Vec<u32> = targets.iter().map(|&t| (t - 1) as u32).collect();
        let r = bfs(&self.graph().0, (s - 1) as u32, &dense);
        dense
            .iter()
            .map(|&t| match r.dist[t as usize] {
                u32::MAX => None,
                hops => Some(self.shift(i64::from(hops))),
            })
            .collect()
    }

    /// Cheapest weighted cost from `s` to `d`; `None` when unreachable.
    pub fn cost(&self, s: i64, d: i64) -> Option<i64> {
        let (csr, w) = self.graph();
        let t = (d - 1) as u32;
        match dijkstra_int(csr, (s - 1) as u32, &[t], w).dist[t as usize] {
            u64::MAX => None,
            cost => Some(self.shift(cost as i64)),
        }
    }

    /// Whether `rows` (edge-table row ids) chain from `s` to `d`; returns
    /// the summed weight of the chain when they do.
    pub fn path_cost(&self, s: i64, d: i64, rows: &[u32]) -> Option<i64> {
        let mut at = (s - 1) as u32;
        let mut total = 0;
        for &row in rows {
            let row = row as usize;
            if row >= self.src.len() || self.src[row] != at {
                return None;
            }
            at = self.dst[row];
            total += self.w[row];
        }
        (at == (d - 1) as u32).then_some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 → 2 → 3 cheap, 1 → 3 expensive; 4 isolated.
    fn small(corrupt: bool) -> Oracle {
        let mut o = Oracle::new(4, &[1, 2, 1], &[2, 3, 3], vec![2, 2, 9], corrupt);
        o.build();
        o
    }

    #[test]
    fn hops_and_costs() {
        let o = small(false);
        assert_eq!(o.hops(1, 3), Some(1));
        assert_eq!(o.cost(1, 3), Some(4));
        assert_eq!(o.hops(1, 1), Some(0));
        assert_eq!(o.hops(3, 1), None);
        assert_eq!(o.cost(1, 4), None);
        assert_eq!(o.hops_from(1, &[2, 3, 4]), vec![Some(1), Some(1), None]);
    }

    #[test]
    fn paths_must_chain() {
        let o = small(false);
        assert_eq!(o.path_cost(1, 3, &[0, 1]), Some(4));
        assert_eq!(o.path_cost(1, 3, &[2]), Some(9));
        assert_eq!(o.path_cost(1, 3, &[1, 0]), None);
        assert_eq!(o.path_cost(1, 3, &[0]), None);
        assert_eq!(o.path_cost(1, 1, &[]), Some(0));
        assert_eq!(o.path_cost(1, 3, &[7]), None);
    }

    #[test]
    fn inserted_edges_change_answers_and_corruption_shifts_them() {
        let mut o = small(false);
        o.push_edge(3, 4, 1);
        o.build();
        assert_eq!(o.hops(1, 4), Some(2));
        assert_eq!(o.cost(1, 4), Some(5));
        assert_eq!(small(true).cost(1, 3), Some(5));
    }
}
