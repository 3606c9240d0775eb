//! Property-style equivalence: ALT distances must equal plain Dijkstra on
//! random weighted digraphs, for every landmark count and for index builds
//! at `threads = 1` and `threads = 4` (which must also produce identical
//! indexes). Uses the workspace's offline `rand` shim, so it runs by
//! default.

use gsql_accel::{alt_bidirectional, Landmarks};
use gsql_graph::{bfs, dijkstra_int, reverse_csr, Csr};
use rand::prelude::*;

struct Case {
    graph: Csr,
    reverse: Csr,
    raw: Vec<i64>,
}

fn random_case(rng: &mut StdRng, max_n: u32, max_m: usize) -> Case {
    let n = rng.gen_range(2..max_n);
    let m = rng.gen_range(1..max_m);
    let src: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
    let dst: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
    let raw: Vec<i64> = (0..m).map(|_| rng.gen_range(1..100)).collect();
    let graph = Csr::from_edges(n, &src, &dst).unwrap();
    let reverse = reverse_csr(&graph);
    Case { graph, reverse, raw }
}

#[test]
fn weighted_alt_equals_dijkstra_at_threads_1_and_4() {
    let mut rng = StdRng::seed_from_u64(0xa17);
    for case_no in 0..30 {
        let case = random_case(&mut rng, 50, 250);
        let wf = case.graph.permute_weights_int(&case.raw).unwrap();
        let wb = case.reverse.permute_weights_int(&case.raw).unwrap();
        let k = rng.gen_range(1..8);
        let seq = Landmarks::build(&case.graph, &case.reverse, Some((&wf, &wb)), k, 1);
        let par = Landmarks::build(&case.graph, &case.reverse, Some((&wf, &wb)), k, 4);
        assert_eq!(seq.landmarks(), par.landmarks(), "case {case_no}: selection diverged");
        let n = case.graph.num_vertices();
        for _ in 0..10 {
            let s = rng.gen_range(0..n);
            let d = rng.gen_range(0..n);
            let truth = dijkstra_int(&case.graph, s, &[], &wf).dist[d as usize];
            let expected = if truth == u64::MAX { None } else { Some(truth) };
            for (label, lm) in [("threads=1", &seq), ("threads=4", &par)] {
                let alt = alt_bidirectional(&case.graph, &case.reverse, Some((&wf, &wb)), lm, s, d);
                assert_eq!(alt.dist, expected, "case {case_no} {label} pair ({s}, {d}) k {k}");
            }
        }
    }
}

#[test]
fn unweighted_alt_equals_bfs_hops() {
    let mut rng = StdRng::seed_from_u64(0xb0b);
    for case_no in 0..30 {
        let case = random_case(&mut rng, 60, 200);
        let k = rng.gen_range(1..6);
        let lm1 = Landmarks::build(&case.graph, &case.reverse, None, k, 1);
        let lm4 = Landmarks::build(&case.graph, &case.reverse, None, k, 4);
        let n = case.graph.num_vertices();
        for _ in 0..10 {
            let s = rng.gen_range(0..n);
            let d = rng.gen_range(0..n);
            let hops = bfs(&case.graph, s, &[]).dist[d as usize];
            let expected = if hops == u32::MAX { None } else { Some(hops as u64) };
            for (label, lm) in [("threads=1", &lm1), ("threads=4", &lm4)] {
                let alt = alt_bidirectional(&case.graph, &case.reverse, None, lm, s, d);
                assert_eq!(alt.dist, expected, "case {case_no} {label} pair ({s}, {d})");
            }
        }
    }
}

#[test]
fn lower_bounds_are_admissible_everywhere() {
    let mut rng = StdRng::seed_from_u64(0x1b);
    for case_no in 0..15 {
        let case = random_case(&mut rng, 30, 120);
        let wf = case.graph.permute_weights_int(&case.raw).unwrap();
        let wb = case.reverse.permute_weights_int(&case.raw).unwrap();
        let lm = Landmarks::build(&case.graph, &case.reverse, Some((&wf, &wb)), 4, 2);
        let n = case.graph.num_vertices();
        for s in 0..n {
            let truth = dijkstra_int(&case.graph, s, &[], &wf).dist;
            for v in 0..n {
                let lb = lm.lower_bound(s, v);
                let d = truth[v as usize];
                if d == u64::MAX {
                    continue; // any bound (including INF) is admissible
                }
                assert!(lb <= d, "case {case_no}: lb({s},{v}) = {lb} > true {d}");
            }
        }
    }
}

#[test]
fn dense_and_sparse_extremes() {
    // Complete-ish digraph (every search is one hop) and a bare chain.
    let n = 20u32;
    let mut src = Vec::new();
    let mut dst = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                src.push(a);
                dst.push(b);
            }
        }
    }
    let g = Csr::from_edges(n, &src, &dst).unwrap();
    let r = reverse_csr(&g);
    let lm = Landmarks::build(&g, &r, None, 8, 4);
    for s in 0..n {
        for d in 0..n {
            let expected = if s == d { 0 } else { 1 };
            let alt = alt_bidirectional(&g, &r, None, &lm, s, d);
            assert_eq!(alt.dist, Some(expected), "pair ({s}, {d})");
        }
    }
}
