//! Golden work: every [`Search`] kind — `bfs`, integer and float
//! `dijkstra`, `bidir-bfs`, `alt`, `ch`, `alt-multi` and `ch-m2m` — runs
//! one fixed seeded pair set on a seeded road grid and on a seeded random
//! graph, through `Search::run` at one worker and at four. Per kind, the
//! settled total the observer hears and a checksum of every answer (cost
//! and path) must equal recorded constants. Both are deterministic, so a
//! kernel change that moves either is a correctness event, not noise.

use gsql_accel::{AltMulti, AltPoint, ChM2m, ChPoint, ContractionHierarchy, Landmarks};
use gsql_graph::{
    reverse_csr, BidirBfs, Budget, CostValue, Csr, PairResult, PreparedWeights, Search,
    SourceSearch, TraversalKind, TraversalObserver, WeightSpec,
};
use rand::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The settled vertices each kind reported.
#[derive(Default)]
struct Work([AtomicUsize; 7]);

impl TraversalObserver for Work {
    fn traversal(&self, kind: TraversalKind, settled: usize) {
        self.0[kind as usize].fetch_add(settled, Ordering::Relaxed);
    }
}

/// A road grid shaped like `gsql_datagen::road::grid_network`, as in
/// `ch_equivalence.rs`: two-way horizontal roads everywhere, 10 % of the
/// vertical road pairs closed, travel times 1–9 (row-indexed).
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
    (Csr::from_edges(side * side, &src, &dst).unwrap(), raw)
}

/// A random digraph with weights 1–99, as in `m2m_equivalence.rs`.
fn random_graph(seed: u64, n: u32, m: usize) -> (Csr, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let src: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
    let dst: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
    let raw = (0..m).map(|_| rng.gen_range(1..100)).collect();
    (Csr::from_edges(n, &src, &dst).unwrap(), raw)
}

/// 64 pairs from 8 sources, so source searches group and the matrix
/// kinds share sides; self pairs and duplicates are likely.
fn pairs(seed: u64, n: u32) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sources: Vec<u32> = (0..8).map(|_| rng.gen_range(0..n)).collect();
    (0..64).map(|_| (sources[rng.gen_range(0..8)], rng.gen_range(0..n))).collect()
}

/// FNV-1a over every answer in order: reachability, cost bits and path
/// rows.
fn checksum(results: &[PairResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x100_0000_01b3);
    for r in results {
        mix(match r.cost {
            None => u64::MAX,
            Some(CostValue::Int(c)) => c as u64,
            Some(CostValue::Float(c)) => c.to_bits(),
        });
        for &row in r.path.iter().flatten() {
            mix(u64::from(row));
        }
    }
    h
}

/// `(kind, settled total, checksum)` of every kind over `graph` at
/// `threads` workers.
fn golden(
    graph: &Csr,
    raw: &[i64],
    pair_seed: u64,
    threads: usize,
) -> Vec<(&'static str, usize, u64)> {
    let rev = reverse_csr(graph);
    let int = PreparedWeights::new(graph, &WeightSpec::Int(raw.to_vec()), 1).unwrap();
    let float = raw.iter().map(|&w| w as f64 * 0.7).collect();
    let float = PreparedWeights::new(graph, &WeightSpec::Float(float), 1).unwrap();
    let (wf, wb) = (graph.permute_weights_int(raw).unwrap(), rev.permute_weights_int(raw).unwrap());
    let ch = ContractionHierarchy::build(graph, Some(&wf), 1);
    let lm = Landmarks::build(graph, &rev, Some((&wf, &wb)), 4, 1);
    let searches: [(&str, &dyn Search); 8] = [
        ("bfs", &SourceSearch::bfs(graph)),
        ("dijkstra-int", &SourceSearch::new(graph, &int)),
        ("dijkstra-float", &SourceSearch::new(graph, &float)),
        ("bidir-bfs", &BidirBfs { forward: graph, backward: &rev }),
        (
            "alt",
            &AltPoint { forward: graph, backward: &rev, weights: Some((&wf, &wb)), landmarks: &lm },
        ),
        ("ch", &ChPoint(&ch)),
        ("alt-multi", &AltMulti { forward: graph, weights: Some(&wf), landmarks: &lm }),
        ("ch-m2m", &ChM2m(&ch)),
    ];
    let pairs = pairs(pair_seed, graph.num_vertices());
    searches
        .into_iter()
        .map(|(name, search)| {
            let work = Work::default();
            let budget = Budget { threads, deadline: None, observer: Some(&work) };
            let results = search.run(&pairs, &budget, true).unwrap();
            let settled = work.0.iter().map(|n| n.load(Ordering::Relaxed)).sum();
            (name, settled, checksum(&results))
        })
        .collect()
}

/// Recorded on `road_grid(30, 0x601d)` with `pairs(0x9a17, 900)`.
const GRID: [(&str, usize, u64); 8] = [
    ("bfs", 6633, 13148519477018651626),
    ("dijkstra-int", 6562, 8326185380065985981),
    ("dijkstra-float", 6540, 10270001302169600585),
    ("bidir-bfs", 21771, 13148519477018651626),
    ("alt", 3498, 14212818099229645719),
    ("ch", 3869, 14212818099229645719),
    ("alt-multi", 5946, 14212818099229645719),
    ("ch-m2m", 2912, 14212818099229645719),
];

/// Recorded on `random_graph(0x5eed, 1_500, 4_500)` with
/// `pairs(0x9a18, 1_500)`.
const RANDOM: [(&str, usize, u64); 8] = [
    ("bfs", 9453, 1404956014384729023),
    ("dijkstra-int", 8566, 5212926496655065798),
    ("dijkstra-float", 8552, 10465073694646393593),
    ("bidir-bfs", 4888, 14568544525321616292),
    ("alt", 4885, 3459020339554595563),
    ("ch", 7118, 3459020339554595563),
    ("alt-multi", 7339, 3459020339554595563),
    ("ch-m2m", 10475, 3459020339554595563),
];

#[test]
fn every_kind_settles_and_answers_as_recorded_at_threads_1_and_4() {
    let (grid, grid_raw) = road_grid(30, 0x601d);
    let (random, random_raw) = random_graph(0x5eed, 1_500, 4_500);
    for threads in [1, 4] {
        assert_eq!(golden(&grid, &grid_raw, 0x9a17, threads), GRID, "grid, threads {threads}");
        assert_eq!(
            golden(&random, &random_raw, 0x9a18, threads),
            RANDOM,
            "random graph, threads {threads}"
        );
    }
}
