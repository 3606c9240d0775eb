//! Property-style equivalence for the batched many-to-many tier, through
//! the same `Search` impls the engine runs: the bucket-based CH matrix
//! ([`ChM2m`]) and the multi-target ALT matrix ([`AltMulti`]) must both
//! equal per-source Dijkstra on random weighted digraphs — disconnected
//! pairs, zero-weight edges, duplicate and asymmetric source/target sets,
//! and irregular batches with repeated sources and duplicate targets
//! included — and must be bit-identical at `threads = 1` and `threads = 4`.
//! On a road-like grid the CH matrix must also settle at least three times
//! fewer vertices than per-source Dijkstra. Last, every accelerated search
//! kind must answer on pooled arenas exactly as on fresh ones. Uses the
//! workspace's offline `rand` shim, so it runs by default.

use gsql_accel::{
    alt_bidirectional, ch_many_to_many, ch_query, AltMulti, AltPoint, ChM2m, ChPoint,
    ContractionHierarchy, Landmarks, INF,
};
use gsql_graph::{
    bfs, dijkstra_int, dijkstra_into, reverse_csr, Budget, Csr, Search, SourceScratch,
    TraversalKind, TraversalObserver,
};
use rand::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sums the settled vertices the searches report.
#[derive(Default)]
struct Settled(AtomicUsize);

impl TraversalObserver for Settled {
    fn traversal(&self, _kind: TraversalKind, settled: usize) {
        self.0.fetch_add(settled, Ordering::Relaxed);
    }
}

/// Every `(source, target)` pair of `sources × targets`, row-major.
fn cross(sources: &[u32], targets: &[u32]) -> Vec<(u32, u32)> {
    sources.iter().flat_map(|&s| targets.iter().map(move |&t| (s, t))).collect()
}

/// `search` over `pairs` at `threads` workers: exact distances ([`INF`]
/// when unreachable) and the vertices it settled.
fn run(search: &dyn Search, pairs: &[(u32, u32)], threads: usize) -> (Vec<u64>, usize) {
    let settled = Settled::default();
    let budget = Budget { threads, deadline: None, observer: Some(&settled) };
    let results = search.run(pairs, &budget, false).unwrap();
    let dist = results.iter().map(|r| r.cost.map_or(INF, |c| c.as_f64() as u64)).collect();
    (dist, settled.0.into_inner())
}

/// The CH and ALT matrices of `sources × targets` at threads 1 and 4.
fn assert_matrices(
    ch: &ContractionHierarchy,
    alt: &AltMulti<'_>,
    sources: &[u32],
    targets: &[u32],
    truth: &[u64],
    what: &str,
) {
    let pairs = cross(sources, targets);
    for threads in [1, 4] {
        assert_eq!(run(&ChM2m(ch), &pairs, threads).0, truth, "{what} ch threads {threads}");
        assert_eq!(run(alt, &pairs, threads).0, truth, "{what} alt threads {threads}");
    }
}

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

/// Random vertex multiset: duplicates are deliberately likely, so the
/// drivers' dedup/index-mapping paths get exercised.
fn random_side(rng: &mut StdRng, n: u32, len: usize) -> Vec<u32> {
    (0..len).map(|_| rng.gen_range(0..n)).collect()
}

/// Row-major truth matrix via one full Dijkstra (or BFS) per source.
fn truth_matrix(g: &Csr, weights: Option<&[i64]>, sources: &[u32], targets: &[u32]) -> Vec<u64> {
    let mut out = Vec::with_capacity(sources.len() * targets.len());
    for &s in sources {
        match weights {
            Some(w) => {
                let d = dijkstra_int(g, s, &[], w).dist;
                out.extend(targets.iter().map(|&t| d[t as usize]));
            }
            None => {
                let d = bfs(g, s, &[]).dist;
                out.extend(targets.iter().map(|&t| {
                    if d[t as usize] == u32::MAX {
                        INF
                    } else {
                        d[t as usize] as u64
                    }
                }));
            }
        }
    }
    out
}

#[test]
fn weighted_matrices_equal_dijkstra_at_threads_1_and_4() {
    let mut rng = StdRng::seed_from_u64(0x3232);
    for case_no in 0..20 {
        let case = random_case(&mut rng, 50, 250, 1);
        let n = case.graph.num_vertices();
        let wf = case.graph.permute_weights_int(&case.raw).unwrap();
        let rev = reverse_csr(&case.graph);
        let wb = rev.permute_weights_int(&case.raw).unwrap();
        let ch = ContractionHierarchy::build(&case.graph, Some(&wf), 1);
        let lm = Landmarks::build(&case.graph, &rev, Some((&wf, &wb)), 4, 1);
        // Asymmetric sides, duplicates likely.
        let s_len = rng.gen_range(1..8);
        let t_len = rng.gen_range(1..12);
        let sources = random_side(&mut rng, n, s_len);
        let targets = random_side(&mut rng, n, t_len);
        let truth = truth_matrix(&case.graph, Some(&wf), &sources, &targets);
        let alt = AltMulti { forward: &case.graph, weights: Some(&wf), landmarks: &lm };
        assert_matrices(&ch, &alt, &sources, &targets, &truth, &format!("case {case_no}"));
    }
}

#[test]
fn zero_weight_matrices_stay_exact() {
    let mut rng = StdRng::seed_from_u64(0x0e00);
    for case_no in 0..15 {
        let case = random_case(&mut rng, 40, 200, 0);
        let n = case.graph.num_vertices();
        let wf = slot_weights(&case.graph, &case.raw);
        let rev = reverse_csr(&case.graph);
        let wb = slot_weights(&rev, &case.raw);
        let ch = ContractionHierarchy::build(&case.graph, Some(&wf), 1);
        let lm = Landmarks::build(&case.graph, &rev, Some((&wf, &wb)), 3, 1);
        let sources = random_side(&mut rng, n, 5);
        let targets = random_side(&mut rng, n, 7);
        let truth = truth_matrix(&case.graph, Some(&wf), &sources, &targets);
        let alt = AltMulti { forward: &case.graph, weights: Some(&wf), landmarks: &lm };
        assert_matrices(&ch, &alt, &sources, &targets, &truth, &format!("case {case_no}"));
    }
}

#[test]
fn unweighted_matrices_equal_bfs_hops() {
    let mut rng = StdRng::seed_from_u64(0xbeef);
    for case_no in 0..20 {
        let case = random_case(&mut rng, 60, 200, 1);
        let n = case.graph.num_vertices();
        let rev = reverse_csr(&case.graph);
        let ch = ContractionHierarchy::build(&case.graph, None, 1);
        let lm = Landmarks::build(&case.graph, &rev, None, 4, 1);
        let sources = random_side(&mut rng, n, 6);
        let targets = random_side(&mut rng, n, 6);
        let truth = truth_matrix(&case.graph, None, &sources, &targets);
        let alt = AltMulti { forward: &case.graph, weights: None, landmarks: &lm };
        assert_matrices(&ch, &alt, &sources, &targets, &truth, &format!("case {case_no}"));
    }
}

#[test]
fn disconnected_components_and_duplicate_sides() {
    // Two disjoint chains: 0->1->2 and 3->4->5. Sides repeat vertices and
    // straddle the components, so most of the matrix is unreachable.
    let g = Csr::from_edges(6, &[0, 1, 3, 4], &[1, 2, 4, 5]).unwrap();
    let rev = reverse_csr(&g);
    let ch = ContractionHierarchy::build(&g, None, 2);
    let lm = Landmarks::build(&g, &rev, None, 3, 1);
    let sources = [0u32, 3, 0, 5];
    let targets = [2u32, 5, 2, 0];
    let truth = truth_matrix(&g, None, &sources, &targets);
    assert!(truth.contains(&INF) && truth.contains(&2));
    let alt = AltMulti { forward: &g, weights: None, landmarks: &lm };
    assert_matrices(&ch, &alt, &sources, &targets, &truth, "two chains");
}

#[test]
fn irregular_batches_with_repeated_sources_and_duplicate_targets() {
    // Not a matrix: each source repeats with its own target multiset, some
    // pairs repeat outright, and self pairs mix in.
    let mut rng = StdRng::seed_from_u64(0x1e5);
    for case_no in 0..15 {
        let case = random_case(&mut rng, 40, 200, 1);
        let n = case.graph.num_vertices();
        let wf = case.graph.permute_weights_int(&case.raw).unwrap();
        let rev = reverse_csr(&case.graph);
        let wb = rev.permute_weights_int(&case.raw).unwrap();
        let ch = ContractionHierarchy::build(&case.graph, Some(&wf), 1);
        let lm = Landmarks::build(&case.graph, &rev, Some((&wf, &wb)), 3, 1);
        let few = random_side(&mut rng, n, 3);
        let pairs: Vec<(u32, u32)> = (0..rng.gen_range(1..30))
            .map(|_| (few[rng.gen_range(0..3)], rng.gen_range(0..n)))
            .chain([(few[0], few[0]), (few[1], few[2]), (few[1], few[2])])
            .collect();
        let truth: Vec<u64> = pairs
            .iter()
            .map(|&(s, t)| truth_matrix(&case.graph, Some(&wf), &[s], &[t])[0])
            .collect();
        let alt = AltMulti { forward: &case.graph, weights: Some(&wf), landmarks: &lm };
        for threads in [1, 4] {
            assert_eq!(run(&ChM2m(&ch), &pairs, threads).0, truth, "case {case_no} ch {threads}");
            assert_eq!(run(&alt, &pairs, threads).0, truth, "case {case_no} alt {threads}");
        }
    }
}

#[test]
fn settled_counts_are_thread_independent() {
    // The settled totals feed EXPLAIN ANALYZE; they must not depend on the
    // worker count any more than the distances do.
    let mut rng = StdRng::seed_from_u64(0x5e771e);
    let case = random_case(&mut rng, 80, 400, 1);
    let n = case.graph.num_vertices();
    let wf = case.graph.permute_weights_int(&case.raw).unwrap();
    let rev = reverse_csr(&case.graph);
    let wb = rev.permute_weights_int(&case.raw).unwrap();
    let ch = ContractionHierarchy::build(&case.graph, Some(&wf), 1);
    let lm = Landmarks::build(&case.graph, &rev, Some((&wf, &wb)), 4, 1);
    let sources = random_side(&mut rng, n, 10);
    let targets = random_side(&mut rng, n, 10);
    let m1 = ch_many_to_many(&ch, &sources, &targets, 1, None).unwrap();
    let m4 = ch_many_to_many(&ch, &sources, &targets, 4, None).unwrap();
    assert_eq!(m1.settled, m4.settled);
    assert_eq!(m1.bucket_entries, m4.bucket_entries);
    let pairs = cross(&sources, &targets);
    assert_eq!(run(&ChM2m(&ch), &pairs, 1).1, run(&ChM2m(&ch), &pairs, 4).1);
    let alt = AltMulti { forward: &case.graph, weights: Some(&wf), landmarks: &lm };
    assert_eq!(run(&alt, &pairs, 1).1, run(&alt, &pairs, 4).1);
}

#[test]
fn ch_matrix_settles_3x_fewer_vertices_than_per_source_dijkstra_on_a_grid() {
    // The bucket tier earns its preprocessing only by pruning. On the
    // road-like graph it is built for — a seeded 50 x 50 grid, every
    // lattice edge in both directions with its own weight in 1..10 — a
    // 12 x 12 matrix of distinct sources and targets must settle at least
    // three times fewer vertices than one full Dijkstra per source.
    const SIDE: u32 = 50;
    let mut rng = StdRng::seed_from_u64(42);
    let (mut src, mut dst) = (Vec::new(), Vec::new());
    for v in 0..SIDE * SIDE {
        let right = (v % SIDE + 1 < SIDE).then_some(v + 1);
        let down = (v / SIDE + 1 < SIDE).then_some(v + SIDE);
        for w in right.into_iter().chain(down) {
            src.extend([v, w]);
            dst.extend([w, v]);
        }
    }
    let raw: Vec<i64> = src.iter().map(|_| rng.gen_range(1..10)).collect();
    let graph = Csr::from_edges(SIDE * SIDE, &src, &dst).unwrap();
    let wf = graph.permute_weights_int(&raw).unwrap();
    let ch = ContractionHierarchy::build(&graph, Some(&wf), 1);
    let mut distinct = |len: usize| -> Vec<u32> {
        let mut side = BTreeSet::new();
        while side.len() < len {
            side.insert(rng.gen_range(0..SIDE * SIDE));
        }
        side.into_iter().collect()
    };
    let (sources, targets) = (distinct(12), distinct(12));

    let mut scratch = SourceScratch::<u64>::new();
    let (mut plain_settled, mut truth) = (0, Vec::new());
    for &s in &sources {
        dijkstra_into(&graph, s, &[], &wf, &mut scratch);
        plain_settled += scratch.settled_count();
        truth.extend(targets.iter().map(|&t| scratch.dist[t as usize]));
    }
    let (dist, settled) = run(&ChM2m(&ch), &cross(&sources, &targets), 1);
    assert_eq!(dist, truth);
    assert!(
        3 * settled <= plain_settled,
        "CH many-to-many settled {settled}, per-source Dijkstra {plain_settled}"
    );
}

/// Every accelerated search kind over one case at `threads` workers — the
/// four [`Search`] impls over the batch, then the frozen `ch_query` and
/// `alt_bidirectional` per pair — as (distances, settled) per kind, every
/// distance checked against fresh-arena Dijkstra.
fn every_accelerated_kind_once(case: &Case, threads: usize) -> Vec<(Vec<u64>, usize)> {
    let graph = &case.graph;
    let rev = reverse_csr(graph);
    let (wf, wb) = (slot_weights(graph, &case.raw), slot_weights(&rev, &case.raw));
    let ch = ContractionHierarchy::build(graph, Some(&wf), threads);
    let lm = Landmarks::build(graph, &rev, Some((&wf, &wb)), 4, threads);
    let mut rng = StdRng::seed_from_u64(u64::from(graph.num_vertices()));
    let (sources, targets) = (
        random_side(&mut rng, graph.num_vertices(), 12),
        random_side(&mut rng, graph.num_vertices(), 12),
    );
    let pairs = cross(&sources, &targets);
    let truth = truth_matrix(graph, Some(&wf), &sources, &targets);
    let alt =
        AltPoint { forward: graph, backward: &rev, weights: Some((&wf, &wb)), landmarks: &lm };
    let multi = AltMulti { forward: graph, weights: Some(&wf), landmarks: &lm };
    let searches: [&dyn Search; 4] = [&alt, &ChPoint(&ch), &multi, &ChM2m(&ch)];
    let mut kinds: Vec<(Vec<u64>, usize)> =
        searches.iter().map(|s| run(*s, &pairs, threads)).collect();
    let frozen = |query: &dyn Fn(u32, u32) -> (Option<u64>, usize)| {
        let answers: Vec<(Option<u64>, usize)> = pairs.iter().map(|&(s, d)| query(s, d)).collect();
        (answers.iter().map(|a| a.0.unwrap_or(INF)).collect(), answers.iter().map(|a| a.1).sum())
    };
    kinds.push(frozen(&|s, d| {
        let r = ch_query(&ch, s, d);
        (r.dist, r.settled)
    }));
    kinds.push(frozen(&|s, d| {
        let r = alt_bidirectional(graph, &rev, Some((&wf, &wb)), &lm, s, d);
        (r.dist, r.settled)
    }));
    for (kind, (dist, _)) in kinds.iter().enumerate() {
        assert_eq!(dist, &truth, "kind {kind} threads {threads}");
    }
    kinds
}

/// Every search leases its labels from a pool the whole process shares, so
/// the arena a search gets may have served a larger or a smaller graph. A
/// large seeded graph, then a small one, then the large one again, on one
/// calling thread at one worker and at four: each pass equals fresh-arena
/// Dijkstra, and the third repeats the first's settled counts exactly.
#[test]
fn pooled_arenas_answer_like_fresh_ones_across_graph_sizes() {
    let case = |seed: u64, n: u32, m: usize| {
        let mut rng = StdRng::seed_from_u64(seed);
        let src: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
        let dst: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
        let raw = (0..m).map(|_| rng.gen_range(1..100)).collect();
        Case { graph: Csr::from_edges(n, &src, &dst).unwrap(), raw }
    };
    let (large, small) = (case(50, 1_500, 4_500), case(51, 40, 90));
    for threads in [1, 4] {
        let first = every_accelerated_kind_once(&large, threads);
        every_accelerated_kind_once(&small, threads);
        assert_eq!(every_accelerated_kind_once(&large, threads), first, "threads {threads}");
    }
}
