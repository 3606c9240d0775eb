//! Property-based tests for the graph runtime.
//!
//! Strategy: generate random directed graphs (edge lists over a small dense
//! vertex domain) plus random weights, then check the algorithmic invariants
//! that the paper's runtime relies on.

use gsql_graph::{bfs, dijkstra_float, dijkstra_int, BatchComputer, Csr, RadixHeap, WeightSpec};
use proptest::prelude::*;

/// A random graph: n in 1..24, up to 80 edges, weights in 1..50.
fn graph_strategy() -> impl Strategy<Value = (u32, Vec<(u32, u32, i64)>)> {
    (1u32..24).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1i64..50).prop_map(|(s, d, w)| (s, d, w));
        (Just(n), prop::collection::vec(edge, 0..80))
    })
}

fn build(n: u32, edges: &[(u32, u32, i64)]) -> (Csr, Vec<i64>) {
    let src: Vec<u32> = edges.iter().map(|e| e.0).collect();
    let dst: Vec<u32> = edges.iter().map(|e| e.1).collect();
    let w: Vec<i64> = edges.iter().map(|e| e.2).collect();
    (Csr::from_edges(n, &src, &dst).unwrap(), w)
}

/// Reference shortest paths: Bellman-Ford (no negative weights here, so it
/// terminates in n rounds and gives exact distances).
fn bellman_ford(n: u32, edges: &[(u32, u32, i64)], source: u32) -> Vec<Option<i64>> {
    let mut dist: Vec<Option<i64>> = vec![None; n as usize];
    dist[source as usize] = Some(0);
    for _ in 0..n {
        let mut changed = false;
        for &(s, d, w) in edges {
            if let Some(ds) = dist[s as usize] {
                let nd = ds + w;
                if dist[d as usize].is_none_or(|old| nd < old) {
                    dist[d as usize] = Some(nd);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra with the radix queue must agree with Bellman-Ford exactly.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn dijkstra_int_matches_bellman_ford((n, edges) in graph_strategy()) {
        let (g, w) = build(n, &edges);
        let wp = g.permute_weights_int(&w).unwrap();
        for source in 0..n.min(4) {
            let r = dijkstra_int(&g, source, &[], &wp);
            let reference = bellman_ford(n, &edges, source);
            for v in 0..n as usize {
                match reference[v] {
                    None => prop_assert_eq!(r.dist[v], u64::MAX),
                    Some(d) => prop_assert_eq!(r.dist[v], d as u64),
                }
            }
        }
    }

    /// The float variant agrees with the int variant on integral weights.
    #[test]
    fn dijkstra_float_matches_int((n, edges) in graph_strategy()) {
        let (g, w) = build(n, &edges);
        let wi = g.permute_weights_int(&w).unwrap();
        let wf = g.permute_weights_float(&w.iter().map(|&x| x as f64).collect::<Vec<_>>()).unwrap();
        let ri = dijkstra_int(&g, 0, &[], &wi);
        let rf = dijkstra_float(&g, 0, &[], &wf);
        for v in 0..n as usize {
            if ri.dist[v] == u64::MAX {
                prop_assert!(rf.dist[v].is_infinite());
            } else {
                prop_assert_eq!(ri.dist[v] as f64, rf.dist[v]);
            }
        }
    }

    /// BFS equals Dijkstra on unit weights (the paper's `CHEAPEST SUM(1)`).
    #[test]
    fn bfs_equals_unit_weight_dijkstra((n, edges) in graph_strategy()) {
        let (g, _) = build(n, &edges);
        let unit = g.permute_weights_int(&vec![1i64; edges.len()]).unwrap();
        let b = bfs(&g, 0, &[]);
        let d = dijkstra_int(&g, 0, &[], &unit);
        for v in 0..n as usize {
            if b.dist[v] == u32::MAX {
                prop_assert_eq!(d.dist[v], u64::MAX);
            } else {
                prop_assert_eq!(b.dist[v] as u64, d.dist[v]);
            }
        }
    }

    /// Batched results equal per-pair results, and reported paths are valid:
    /// consecutive edges chain source->dest and the cost sums match.
    #[test]
    fn batch_paths_are_valid((n, edges) in graph_strategy(),
                             pair_seed in prop::collection::vec((0u32..24, 0u32..24), 1..12)) {
        let (g, w) = build(n, &edges);
        let pairs: Vec<(u32, u32)> =
            pair_seed.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let spec = WeightSpec::Int(w.clone());
        let computer = BatchComputer::new(&g);
        let batch = computer.compute(&pairs, &spec, true).unwrap();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let single = computer.shortest_path(s, t, &spec).unwrap();
            prop_assert_eq!(batch[i].reachable, single.reachable);
            prop_assert_eq!(batch[i].cost.map(|c| c.as_f64()), single.cost.map(|c| c.as_f64()));
            if let (Some(path), Some(cost)) = (&batch[i].path, batch[i].cost) {
                // Path edges must chain from s to t.
                let mut at = s;
                let mut acc = 0i64;
                for &row in path {
                    let (es, ed, ew) = edges[row as usize];
                    prop_assert_eq!(es, at);
                    at = ed;
                    acc += ew;
                }
                prop_assert_eq!(at, t);
                match cost {
                    gsql_graph::batch::CostValue::Int(c) => prop_assert_eq!(acc, c),
                    _ => prop_assert!(false, "int spec must give int cost"),
                }
            }
        }
    }

    /// Triangle inequality on BFS levels: neighbors differ by at most 1 level
    /// in the direction of the edge.
    #[test]
    fn bfs_levels_respect_edges((n, edges) in graph_strategy()) {
        let (g, _) = build(n, &edges);
        let r = bfs(&g, 0, &[]);
        for &(s, d, _) in &edges {
            let ds = r.dist[s as usize];
            let dd = r.dist[d as usize];
            if ds != u32::MAX {
                prop_assert!(dd != u32::MAX, "edge from reached vertex must reach target");
                prop_assert!(dd <= ds + 1, "edge ({s},{d}): {dd} > {ds}+1");
            }
        }
    }

    /// Parallel and sequential batch execution produce identical results
    /// for random graphs and pair batches across `threads ∈ {1, 2, 8}`.
    #[test]
    fn parallel_batch_matches_sequential(
        (n, edges) in graph_strategy(),
        pair_seed in prop::collection::vec((0u32..24, 0u32..24), 1..40),
    ) {
        let (g, w) = build(n, &edges);
        let pairs: Vec<(u32, u32)> =
            pair_seed.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        for spec in [WeightSpec::Unweighted, WeightSpec::Int(w.clone())] {
            let seq = BatchComputer::new(&g).compute(&pairs, &spec, true).unwrap();
            for threads in [2usize, 8] {
                let par = BatchComputer::new(&g)
                    .with_threads(threads)
                    .compute(&pairs, &spec, true)
                    .unwrap();
                for (p, s) in par.iter().zip(&seq) {
                    prop_assert_eq!(p.reachable, s.reachable);
                    prop_assert_eq!(p.cost.map(|c| c.as_f64()), s.cost.map(|c| c.as_f64()));
                    prop_assert_eq!(&p.path, &s.path);
                }
            }
        }
    }

    /// Morsel-fed batching: splitting a pair batch into arbitrary chunks
    /// (as the engine's pipelined operators do when they feed traversal
    /// batches from morsel output) and concatenating the per-chunk results
    /// is bit-identical to computing the whole batch at once — at every
    /// thread count, for both unweighted and weighted traversals.
    #[test]
    fn chunked_batches_concatenate_to_whole_batch(
        (n, edges) in graph_strategy(),
        pair_seed in prop::collection::vec((0u32..24, 0u32..24), 1..40),
        chunk in 1usize..9,
    ) {
        let (g, w) = build(n, &edges);
        let pairs: Vec<(u32, u32)> =
            pair_seed.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        for spec in [WeightSpec::Unweighted, WeightSpec::Int(w.clone())] {
            let whole = BatchComputer::new(&g).compute(&pairs, &spec, true).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let computer = BatchComputer::new(&g).with_threads(threads);
                let mut chunked = Vec::with_capacity(pairs.len());
                for piece in pairs.chunks(chunk) {
                    chunked.extend(computer.compute(piece, &spec, true).unwrap());
                }
                prop_assert_eq!(chunked.len(), whole.len());
                for (c, s) in chunked.iter().zip(&whole) {
                    prop_assert_eq!(c.reachable, s.reachable);
                    prop_assert_eq!(c.cost.map(|v| v.as_f64()), s.cost.map(|v| v.as_f64()));
                    prop_assert_eq!(&c.path, &s.path);
                }
            }
        }
    }

    /// Radix heap pops keys in nondecreasing order for any monotone input.
    #[test]
    fn radix_heap_sorts(mut keys in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = RadixHeap::new();
        for &k in &keys {
            h.push(k, ());
        }
        keys.sort_unstable();
        let mut popped = Vec::new();
        while let Some((k, ())) = h.pop() {
            popped.push(k);
        }
        prop_assert_eq!(popped, keys);
    }
}
