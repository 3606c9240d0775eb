//! Generated-input properties of the graph runtime.
//!
//! Each property draws at least 200 random directed graphs (edge lists over
//! a small dense vertex domain, parallel edges and self-loops included)
//! with random positive weights from a fixed seed, then checks an invariant
//! the paper's runtime relies on. The last property checks every
//! `gsql-graph` [`Search`] impl against Bellman–Ford, and one large seeded
//! graph checks that searches on pooled arenas answer like fresh ones.
//! Uses the workspace's offline `rand` shim, so it runs in the default test
//! suite.

use gsql_graph::{
    bfs, bfs_into, dijkstra_int, dijkstra_into, reconstruct_path, reverse_csr, BatchComputer,
    BfsScratch, BidirBfs, Budget, CostValue, Csr, PairResult, PreparedWeights, RadixHeap, Search,
    SourceScratch, SourceSearch, TraversalKind, TraversalObserver, WeightSpec,
};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Graphs per property.
const CASES: u64 = 200;

/// One generated graph: `n` vertices and `(src, dst, weight)` edges, in
/// edge-row order.
struct Graph {
    n: u32,
    edges: Vec<(u32, u32, i64)>,
}

impl Graph {
    fn csr(&self) -> Csr {
        let src: Vec<u32> = self.edges.iter().map(|e| e.0).collect();
        let dst: Vec<u32> = self.edges.iter().map(|e| e.1).collect();
        Csr::from_edges(self.n, &src, &dst).unwrap()
    }

    fn weights(&self) -> Vec<i64> {
        self.edges.iter().map(|e| e.2).collect()
    }

    /// `len` random pairs over the graph's vertices.
    fn pairs(&self, rng: &mut StdRng, len: usize) -> Vec<(u32, u32)> {
        (0..len).map(|_| (rng.gen_range(0..self.n), rng.gen_range(0..self.n))).collect()
    }
}

/// Run `check` over [`CASES`] graphs seeded from `seed`: `n` in 1..24, up
/// to 80 edges, weights in 1..50.
fn for_graphs(seed: u64, mut check: impl FnMut(&Graph, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000_003) + case);
        let n = rng.gen_range(1..24u32);
        let m = rng.gen_range(0..80usize);
        let edges = (0..m)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..50)))
            .collect();
        check(&Graph { n, edges }, &mut rng);
    }
}

/// Reference shortest paths: Bellman–Ford (no negative weights here, so it
/// terminates in n rounds and gives exact distances). `hops` uses unit
/// weights.
fn bellman_ford(g: &Graph, source: u32, hops: bool) -> Vec<Option<i64>> {
    let mut dist: Vec<Option<i64>> = vec![None; g.n as usize];
    dist[source as usize] = Some(0);
    for _ in 0..g.n {
        let mut changed = false;
        for &(s, d, w) in &g.edges {
            if let Some(ds) = dist[s as usize] {
                let nd = ds + if hops { 1 } else { w };
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

/// Assert `path` chains `s ~> d` over the graph's edges and sums to `cost`
/// (unit weights when `hops`).
fn assert_path(g: &Graph, path: &[u32], (s, d): (u32, u32), cost: i64, hops: bool, what: &str) {
    let mut at = s;
    let mut sum = 0i64;
    for &row in path {
        let (es, ed, ew) = g.edges[row as usize];
        assert_eq!(es, at, "{what}: path breaks at row {row}");
        at = ed;
        sum += if hops { 1 } else { ew };
    }
    assert_eq!(at, d, "{what}: path ends elsewhere");
    assert_eq!(sum, cost, "{what}: path sum");
}

fn same(a: &[PairResult], b: &[PairResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.reachable, y.reachable, "{what} pair {i}");
        assert_eq!(x.cost, y.cost, "{what} pair {i}");
        assert_eq!(x.path, y.path, "{what} pair {i}");
    }
}

/// Dijkstra with the radix queue agrees with Bellman–Ford exactly.
#[test]
fn dijkstra_int_matches_bellman_ford() {
    for_graphs(1, |g, _| {
        let csr = g.csr();
        let wp = csr.permute_weights_int(&g.weights()).unwrap();
        for source in 0..g.n.min(4) {
            let r = dijkstra_int(&csr, source, &[], &wp);
            for (v, want) in bellman_ford(g, source, false).into_iter().enumerate() {
                assert_eq!(r.dist[v], want.map_or(u64::MAX, |d| d as u64), "source {source} v {v}");
            }
        }
    });
}

/// The float variant agrees with the int variant on integral weights.
#[test]
fn dijkstra_float_matches_int() {
    for_graphs(2, |g, _| {
        let csr = g.csr();
        let w = g.weights();
        let wi = csr.permute_weights_int(&w).unwrap();
        let wf: Vec<f64> = w.iter().map(|&x| x as f64).collect();
        let wf = csr.permute_weights_float(&wf).unwrap();
        let mut rf = SourceScratch::<f64>::new();
        dijkstra_into(&csr, 0, &[], &wf, &mut rf);
        let ri = dijkstra_int(&csr, 0, &[], &wi);
        for v in 0..g.n as usize {
            if ri.dist[v] == u64::MAX {
                assert!(rf.dist[v].is_infinite(), "v {v}");
            } else {
                assert_eq!(ri.dist[v] as f64, rf.dist[v], "v {v}");
            }
        }
    });
}

/// BFS equals Dijkstra on unit weights (the paper's `CHEAPEST SUM(1)`).
#[test]
fn bfs_equals_unit_weight_dijkstra() {
    for_graphs(3, |g, _| {
        let csr = g.csr();
        let unit = csr.permute_weights_int(&vec![1i64; g.edges.len()]).unwrap();
        let (b, d) = (bfs(&csr, 0, &[]), dijkstra_int(&csr, 0, &[], &unit));
        for v in 0..g.n as usize {
            let hops = if b.dist[v] == u32::MAX { u64::MAX } else { u64::from(b.dist[v]) };
            assert_eq!(hops, d.dist[v], "v {v}");
        }
    });
}

/// Batched results equal per-pair results, and reported paths are valid:
/// consecutive edges chain source to dest and the weights sum to the cost.
#[test]
fn batch_paths_are_valid() {
    for_graphs(4, |g, rng| {
        let csr = g.csr();
        let len = rng.gen_range(1..12);
        let pairs = g.pairs(rng, len);
        let spec = WeightSpec::Int(g.weights());
        let computer = BatchComputer::new(&csr);
        let batch = computer.compute(&pairs, &spec, true).unwrap();
        for (r, &(s, t)) in batch.iter().zip(&pairs) {
            let single = computer.compute(&[(s, t)], &spec, true).unwrap();
            same(std::slice::from_ref(r), &single, &format!("pair ({s}, {t})"));
            if let (Some(path), Some(CostValue::Int(cost))) = (&r.path, r.cost) {
                assert_path(g, path, (s, t), cost, false, &format!("pair ({s}, {t})"));
            }
        }
    });
}

/// BFS levels respect edges: the head of an edge from a reached vertex is
/// reached, at most one level deeper.
#[test]
fn bfs_levels_respect_edges() {
    for_graphs(5, |g, _| {
        let r = bfs(&g.csr(), 0, &[]);
        for &(s, d, _) in &g.edges {
            let (ds, dd) = (r.dist[s as usize], r.dist[d as usize]);
            if ds != u32::MAX {
                assert!(dd != u32::MAX, "edge ({s},{d}) from a reached vertex");
                assert!(dd <= ds + 1, "edge ({s},{d}): {dd} > {ds}+1");
            }
        }
    });
}

/// Parallel and sequential batch execution produce identical results
/// across `threads ∈ {1, 2, 8}`.
#[test]
fn parallel_batch_matches_sequential() {
    for_graphs(6, |g, rng| {
        let csr = g.csr();
        let len = rng.gen_range(1..40);
        let pairs = g.pairs(rng, len);
        for spec in [WeightSpec::Unweighted, WeightSpec::Int(g.weights())] {
            let seq = BatchComputer::new(&csr).compute(&pairs, &spec, true).unwrap();
            for threads in [2, 8] {
                let computer = BatchComputer::new(&csr).with_threads(threads);
                let par = computer.compute(&pairs, &spec, true).unwrap();
                same(&par, &seq, &format!("threads {threads}"));
            }
        }
    });
}

/// Morsel-fed batching: splitting a pair batch into arbitrary chunks (as
/// the engine's pipelined operators do when they feed traversal batches
/// from morsel output) and concatenating the per-chunk results is
/// bit-identical to computing the whole batch at once — at every thread
/// count, for both unweighted and weighted traversals.
#[test]
fn chunked_batches_concatenate_to_whole_batch() {
    for_graphs(7, |g, rng| {
        let csr = g.csr();
        let len = rng.gen_range(1..40);
        let pairs = g.pairs(rng, len);
        let chunk = rng.gen_range(1..9);
        for spec in [WeightSpec::Unweighted, WeightSpec::Int(g.weights())] {
            let whole = BatchComputer::new(&csr).compute(&pairs, &spec, true).unwrap();
            for threads in [1, 2, 4, 8] {
                let computer = BatchComputer::new(&csr).with_threads(threads);
                let mut chunked = Vec::with_capacity(pairs.len());
                for piece in pairs.chunks(chunk) {
                    chunked.extend(computer.compute(piece, &spec, true).unwrap());
                }
                same(&chunked, &whole, &format!("threads {threads} chunk {chunk}"));
            }
        }
    });
}

/// The radix heap pops keys in nondecreasing order for any input.
/// The construction kernel grows a graph: a CSR built from the first rows
/// of an edge list and then extended by the rest — in one or two steps,
/// over at least as many vertices as the first rows use, with an empty
/// first or last part included — equals the CSR built from all the rows,
/// and so does its reverse. Searches over the grown graph answer as over
/// the built one, at one worker and at four.
#[test]
fn extended_csr_equals_the_built_one() {
    for_graphs(0xe87e, |g, rng| {
        let full = g.csr();
        let (src, dst): (Vec<u32>, Vec<u32>) = g.edges.iter().map(|e| (e.0, e.1)).unzip();
        let m = src.len();
        let mut cuts = [rng.gen_range(0..=m), rng.gen_range(0..=m)];
        cuts.sort();
        for (a, b) in [(0, 0), (m, m), (0, m), (cuts[0], cuts[0]), (cuts[0], cuts[1])] {
            // Vertices the first `a` rows use, and perhaps a few more.
            let used = src[..a].iter().chain(&dst[..a]).map(|&v| v + 1).max().unwrap_or(0);
            let n0 = rng.gen_range(used..=g.n);
            let base = Csr::from_dense_edges(n0, &src[..a], &dst[..a]);
            let n1 = src[..b].iter().chain(&dst[..b]).map(|&v| v + 1).fold(n0, u32::max);
            let mid = base.appended(n1, &src[a..b], &dst[a..b]);
            let grown = mid.appended(g.n, &src[b..], &dst[b..]);
            assert_eq!(grown, full, "split {a}/{b} of {m}");
            let reverse = reverse_csr(&base).appended_reverse(n1, &src[a..b], &dst[a..b]);
            let reverse = reverse.appended_reverse(g.n, &src[b..], &dst[b..]);
            assert_eq!(reverse, reverse_csr(&full), "reverse, split {a}/{b} of {m}");
        }
        let pairs = g.pairs(rng, 8);
        let grown = Csr::from_dense_edges(0, &[], &[]).appended(g.n, &src, &dst);
        for threads in [1, 4] {
            let budget = Budget { threads, ..Default::default() };
            let run = |csr: &Csr| {
                let spec = WeightSpec::Int(g.weights());
                let weights = PreparedWeights::new(csr, &spec, threads).unwrap();
                SourceSearch::new(csr, &weights).run(&pairs, &budget, true).unwrap()
            };
            same(&run(&grown), &run(&full), &format!("threads {threads}"));
        }
    });
}

#[test]
fn radix_heap_sorts() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(8_000 + case);
        let len = rng.gen_range(1..200);
        let mut keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        let mut h = RadixHeap::new();
        for &k in &keys {
            h.push(k, ());
        }
        keys.sort_unstable();
        let mut popped = Vec::new();
        while let Some((k, ())) = h.pop() {
            popped.push(k);
        }
        assert_eq!(popped, keys, "case {case}");
    }
}

/// Every `gsql-graph` [`Search`] impl — BFS, integer and float Dijkstra,
/// bidirectional BFS — equals Bellman–Ford on reachability and cost at one
/// worker and at four, over batches that hold self pairs and (where the
/// graph has one) an unreachable pair; every returned path chains from
/// source to dest and sums to the cost.
#[test]
fn every_search_matches_bellman_ford() {
    for_graphs(9, |g, rng| {
        let csr = g.csr();
        let rev = reverse_csr(&csr);
        let w = g.weights();
        let int = PreparedWeights::new(&csr, &WeightSpec::Int(w.clone()), 1).unwrap();
        let float: Vec<f64> = w.iter().map(|&x| x as f64).collect();
        let float = PreparedWeights::new(&csr, &WeightSpec::Float(float), 1).unwrap();
        let truth: Vec<[Vec<Option<i64>>; 2]> =
            (0..g.n).map(|s| [bellman_ford(g, s, true), bellman_ford(g, s, false)]).collect();
        let len = rng.gen_range(1..16);
        let mut pairs = g.pairs(rng, len);
        let v = rng.gen_range(0..g.n);
        pairs.push((v, v));
        let unreachable = (0..g.n)
            .flat_map(|s| (0..g.n).map(move |d| (s, d)))
            .find(|&(s, d)| truth[s as usize][0][d as usize].is_none());
        pairs.extend(unreachable);
        let searches: [(&str, &dyn Search, bool); 4] = [
            ("bfs", &SourceSearch::bfs(&csr), true),
            ("dijkstra int", &SourceSearch::new(&csr, &int), false),
            ("dijkstra float", &SourceSearch::new(&csr, &float), false),
            ("bidir-bfs", &BidirBfs { forward: &csr, backward: &rev }, true),
        ];
        for (name, search, hops) in searches {
            for threads in [1, 4] {
                let budget = Budget { threads, ..Budget::default() };
                let results = search.run(&pairs, &budget, true).unwrap();
                for (r, &(s, d)) in results.iter().zip(&pairs) {
                    let what = format!("{name} threads {threads} pair ({s}, {d})");
                    let want = truth[s as usize][usize::from(!hops)][d as usize];
                    assert_eq!(r.reachable, want.is_some(), "{what}");
                    assert_eq!(r.cost.map(|c| c.as_f64()), want.map(|c| c as f64), "{what}");
                    if let Some(cost) = want {
                        let path = r.path.as_ref().expect("a path was asked for");
                        assert_path(g, path, (s, d), cost, hops, &what);
                    }
                }
            }
        }
    });
}

/// Settled totals per [`TraversalKind`], as the searches report them.
#[derive(Default)]
struct SettledByKind([AtomicUsize; 7]);

impl TraversalObserver for SettledByKind {
    fn traversal(&self, kind: TraversalKind, settled: usize) {
        self.0[kind as usize].fetch_add(settled, Ordering::Relaxed);
    }
}

/// What one pass of every search kind over a graph produced: each answer
/// (cost and path) in order, and the settled totals per kind.
type Pass = (Vec<(Option<CostValue>, Option<Vec<u32>>)>, Vec<usize>);

/// Every search kind of this crate over `g` at `threads` workers — the
/// BFS, integer and float Dijkstra and bidirectional BFS [`Search`]es, then
/// the frozen `bfs` and `dijkstra_int` per pair. Every answer is checked
/// against fresh-arena Dijkstra and every path against the graph; the BFS
/// and Dijkstra settled totals against runs on fresh scratches.
fn every_kind_once(g: &Graph, threads: usize) -> Pass {
    let csr = g.csr();
    let rev = reverse_csr(&csr);
    let raw = g.weights();
    let wi = csr.permute_weights_int(&raw).unwrap();
    let raw_float: Vec<f64> = raw.iter().map(|&w| w as f64).collect();
    let wf = csr.permute_weights_float(&raw_float).unwrap();
    let int = PreparedWeights::new(&csr, &WeightSpec::Int(raw.clone()), 1).unwrap();
    let float = PreparedWeights::new(&csr, &WeightSpec::Float(raw_float), 1).unwrap();
    let pairs = g.pairs(&mut StdRng::seed_from_u64(u64::from(g.n)), 200);
    let mut targets: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(s, d) in &pairs {
        targets.entry(s).or_default().push(d);
    }
    let truth: BTreeMap<u32, [Vec<u64>; 2]> = (targets.keys())
        .map(|&s| {
            let hops = bfs(&csr, s, &[]).dist.into_iter();
            let hops = hops.map(|d| if d == u32::MAX { u64::MAX } else { d.into() }).collect();
            (s, [hops, dijkstra_int(&csr, s, &[], &wi).dist])
        })
        .collect();
    let observer = SettledByKind::default();
    let budget = Budget { threads, observer: Some(&observer), ..Budget::default() };
    let searches: [(&str, &dyn Search, bool); 4] = [
        ("bfs", &SourceSearch::bfs(&csr), true),
        ("dijkstra int", &SourceSearch::new(&csr, &int), false),
        ("dijkstra float", &SourceSearch::new(&csr, &float), false),
        ("bidir-bfs", &BidirBfs { forward: &csr, backward: &rev }, true),
    ];
    let mut answers = Vec::new();
    let mut check = |name: &str,
                     hops: bool,
                     (s, d): (u32, u32),
                     cost: Option<CostValue>,
                     path: Option<Vec<u32>>| {
        let what = format!("{name} threads {threads} pair ({s}, {d})");
        let want = truth[&s][usize::from(!hops)][d as usize];
        assert_eq!(cost.map(|c| c.as_f64()), (want != u64::MAX).then_some(want as f64), "{what}");
        if let (Some(c), Some(path)) = (cost, &path) {
            assert_path(g, path, (s, d), c.as_f64() as i64, hops, &what);
        }
        answers.push((cost, path));
    };
    for (name, search, hops) in searches {
        for (r, &pair) in search.run(&pairs, &budget, true).unwrap().into_iter().zip(&pairs) {
            check(name, hops, pair, r.cost, r.path);
        }
    }
    for &(s, d) in &pairs {
        let r = bfs(&csr, s, &[d]);
        let cost =
            (r.dist[d as usize] != u32::MAX).then(|| CostValue::Int(r.dist[d as usize].into()));
        check(
            "frozen bfs",
            true,
            (s, d),
            cost,
            reconstruct_path(&csr, &r.parent, &r.parent_edge, s, d),
        );
        let r = dijkstra_int(&csr, s, &[d], &wi);
        let cost =
            (r.dist[d as usize] != u64::MAX).then(|| CostValue::Int(r.dist[d as usize] as i64));
        check(
            "frozen dijkstra",
            false,
            (s, d),
            cost,
            reconstruct_path(&csr, &r.parent, &r.parent_edge, s, d),
        );
    }
    let settled: Vec<usize> = observer.0.iter().map(|k| k.load(Ordering::Relaxed)).collect();
    let (mut fresh_bfs, mut fresh_dijkstra) = (0, 0);
    for (&s, t) in &targets {
        let mut b = BfsScratch::new();
        bfs_into(&csr, s, t, &mut b);
        let mut i = SourceScratch::<u64>::new();
        dijkstra_into(&csr, s, t, &wi, &mut i);
        let mut f = SourceScratch::<f64>::new();
        dijkstra_into(&csr, s, t, &wf, &mut f);
        fresh_bfs += b.settled_count();
        fresh_dijkstra += i.settled_count() + f.settled_count();
    }
    assert_eq!(settled[TraversalKind::Bfs as usize], fresh_bfs, "bfs threads {threads}");
    assert_eq!(settled[TraversalKind::Dijkstra as usize], fresh_dijkstra, "threads {threads}");
    (answers, settled)
}

/// Every search leases its labels from a pool the whole process shares, so
/// the arena a search gets may have served a larger or a smaller graph. A
/// large seeded graph, then a small one, then the large one again, on one
/// calling thread at one worker and at four: each pass answers like
/// fresh-arena Dijkstra, and the third repeats the first's answers, paths
/// and settled counts exactly.
#[test]
fn pooled_arenas_answer_like_fresh_ones_across_graph_sizes() {
    let graph = |seed: u64, n: u32, m: usize| {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges =
            (0..m).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..50)));
        Graph { n, edges: edges.collect() }
    };
    let (large, small) = (graph(40, 2_000, 5_000), graph(41, 40, 90));
    for threads in [1, 4] {
        let first = every_kind_once(&large, threads);
        every_kind_once(&small, threads);
        assert_eq!(every_kind_once(&large, threads), first, "threads {threads}");
    }
}
