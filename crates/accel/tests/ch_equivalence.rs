//! Property-style equivalence: contraction-hierarchy distances must equal
//! plain Dijkstra on random weighted digraphs — including disconnected
//! pairs and zero-weight edges — and builds at `threads = 1` and
//! `threads = 4` must produce identical hierarchies. A road grid pins the
//! hierarchy's density: identical at 1, 2 and 4 threads, exact on sampled
//! pairs, and no more shortcuts than the earlier contraction scheme
//! inserted. Uses the workspace's offline `rand` shim, so it runs by
//! default.

use gsql_accel::{ch_query, ContractionHierarchy};
use gsql_graph::{bfs, dijkstra_int, Csr};
use rand::prelude::*;

struct Case {
    graph: Csr,
    raw: Vec<i64>,
}

fn random_case(rng: &mut StdRng, max_n: u32, max_m: usize, min_weight: i64) -> Case {
    let n = rng.gen_range(2..max_n);
    let m = rng.gen_range(1..max_m);
    let src: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
    let dst: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
    let raw: Vec<i64> = (0..m).map(|_| rng.gen_range(min_weight..100)).collect();
    let graph = Csr::from_edges(n, &src, &dst).unwrap();
    Case { graph, raw }
}

/// Slot-order weights without the strict-positivity validation of
/// `permute_weights_int` (zero weights are legal at this layer).
fn slot_weights(graph: &Csr, raw: &[i64]) -> Vec<i64> {
    (0..graph.num_edges()).map(|slot| raw[graph.edge_row(slot) as usize]).collect()
}

#[test]
fn weighted_ch_equals_dijkstra_at_threads_1_and_4() {
    let mut rng = StdRng::seed_from_u64(0xc4);
    for case_no in 0..30 {
        let case = random_case(&mut rng, 50, 250, 1);
        let wf = case.graph.permute_weights_int(&case.raw).unwrap();
        let seq = ContractionHierarchy::build(&case.graph, Some(&wf), 1);
        let par = ContractionHierarchy::build(&case.graph, Some(&wf), 4);
        assert_eq!(seq.rank(), par.rank(), "case {case_no}: contraction order diverged");
        assert_eq!(seq.shortcuts(), par.shortcuts(), "case {case_no}: shortcut count diverged");
        let n = case.graph.num_vertices();
        for _ in 0..10 {
            let s = rng.gen_range(0..n);
            let d = rng.gen_range(0..n);
            let truth = dijkstra_int(&case.graph, s, &[], &wf).dist[d as usize];
            let expected = if truth == u64::MAX { None } else { Some(truth) };
            for (label, ch) in [("threads=1", &seq), ("threads=4", &par)] {
                let r = ch_query(ch, s, d);
                assert_eq!(r.dist, expected, "case {case_no} {label} pair ({s}, {d})");
            }
        }
    }
}

#[test]
fn zero_weight_edges_stay_exact() {
    // Weights drawn from 0..100: zero-weight edges are legal at the accel
    // layer (the SQL layer validates strict positivity separately) and the
    // shortcut sums must still be exact.
    let mut rng = StdRng::seed_from_u64(0x0e0);
    for case_no in 0..20 {
        let case = random_case(&mut rng, 40, 200, 0);
        let wf = slot_weights(&case.graph, &case.raw);
        let ch = ContractionHierarchy::build(&case.graph, Some(&wf), 1);
        let n = case.graph.num_vertices();
        for s in 0..n {
            let truth = dijkstra_int(&case.graph, s, &[], &wf).dist;
            for d in 0..n {
                let r = ch_query(&ch, s, d);
                let expected =
                    if truth[d as usize] == u64::MAX { None } else { Some(truth[d as usize]) };
                assert_eq!(r.dist, expected, "case {case_no} pair ({s}, {d})");
            }
        }
    }
}

#[test]
fn unweighted_ch_equals_bfs_hops() {
    let mut rng = StdRng::seed_from_u64(0xcafe);
    for case_no in 0..30 {
        let case = random_case(&mut rng, 60, 200, 1);
        let ch1 = ContractionHierarchy::build(&case.graph, None, 1);
        let ch4 = ContractionHierarchy::build(&case.graph, None, 4);
        assert_eq!(ch1.rank(), ch4.rank(), "case {case_no}");
        let n = case.graph.num_vertices();
        for _ in 0..10 {
            let s = rng.gen_range(0..n);
            let d = rng.gen_range(0..n);
            let hops = bfs(&case.graph, s, &[]).dist[d as usize];
            let expected = if hops == u32::MAX { None } else { Some(hops as u64) };
            for (label, ch) in [("threads=1", &ch1), ("threads=4", &ch4)] {
                let r = ch_query(ch, s, d);
                assert_eq!(r.dist, expected, "case {case_no} {label} pair ({s}, {d})");
            }
        }
    }
}

#[test]
fn disconnected_components_report_unreachable() {
    // Two disjoint chains: 0->1->2 and 3->4->5.
    let g = Csr::from_edges(6, &[0, 1, 3, 4], &[1, 2, 4, 5]).unwrap();
    let ch = ContractionHierarchy::build(&g, None, 2);
    assert_eq!(ch_query(&ch, 0, 2).dist, Some(2));
    assert_eq!(ch_query(&ch, 3, 5).dist, Some(2));
    for (s, d) in [(0, 3), (0, 5), (2, 4), (5, 0), (2, 0)] {
        assert_eq!(ch_query(&ch, s, d).dist, None, "pair ({s}, {d})");
    }
}

#[test]
fn dense_and_sparse_extremes() {
    // Complete-ish digraph (every query is one hop) and a bare chain.
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
    let ch = ContractionHierarchy::build(&g, None, 4);
    for s in 0..n {
        for d in 0..n {
            let expected = if s == d { 0 } else { 1 };
            assert_eq!(ch_query(&ch, s, d).dist, Some(expected), "pair ({s}, {d})");
        }
    }
}

/// A 30 × 30 road grid shaped like `gsql_datagen::road::grid_network`:
/// two-way horizontal roads everywhere, 10 % of the vertical road pairs
/// closed, travel times 1–9.
fn road_grid(side: u32, seed: u64) -> (Csr, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut src, mut dst, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let mut road = |rng: &mut StdRng, a: u32, b: u32| {
        for (s, d) in [(a, b), (b, a)] {
            src.push(s);
            dst.push(d);
            raw.push(rng.gen_range(1..=9i64));
        }
    };
    for y in 0..side {
        for x in 0..side {
            let v = y * side + x;
            if x + 1 < side {
                road(&mut rng, v, v + 1);
            }
            if y + 1 < side && rng.gen_bool(0.9) {
                road(&mut rng, v, v + side);
            }
        }
    }
    let graph = Csr::from_edges(side * side, &src, &dst).unwrap();
    let weights = graph.permute_weights_int(&raw).unwrap();
    (graph, weights)
}

/// Shortcuts the previous contraction scheme (priority without the
/// original-edges term, one 64-settled witness limit) inserted on
/// `road_grid(30, 0x6e1d)`: the hierarchy may not grow denser than that.
const EARLIER_GRID_SHORTCUTS: usize = 4384;

#[test]
fn road_grid_is_thread_independent_exact_and_no_denser_than_before() {
    let (graph, weights) = road_grid(30, 0x6e1d);
    let base = ContractionHierarchy::build(&graph, Some(&weights), 1);
    for threads in [2, 4] {
        let par = ContractionHierarchy::build(&graph, Some(&weights), threads);
        assert_eq!(par.rank(), base.rank(), "threads {threads}: contraction order diverged");
        assert_eq!(par.shortcuts(), base.shortcuts(), "threads {threads}: shortcuts diverged");
    }
    assert!(
        base.shortcuts() <= EARLIER_GRID_SHORTCUTS,
        "{} shortcuts, the earlier scheme inserted {EARLIER_GRID_SHORTCUTS}",
        base.shortcuts()
    );
    let n = graph.num_vertices();
    let mut rng = StdRng::seed_from_u64(0x9a1d);
    for _ in 0..200 {
        let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let truth = dijkstra_int(&graph, s, &[], &weights).dist[d as usize];
        assert_eq!(ch_query(&base, s, d).dist, Some(truth), "pair ({s}, {d})");
    }
}
