//! Parallel execution must be indistinguishable from sequential execution:
//! random graphs and pair batches, compared across `threads ∈ {1, 2, 8}`.
//!
//! (The sibling `properties.rs` holds the proptest variants; this file uses
//! the offline `rand` shim so it runs in the default test suite.)

use gsql_graph::{BatchComputer, Budget, Csr, PreparedWeights, Search, SourceSearch, WeightSpec};
use rand::prelude::*;

/// A deterministic random graph with `n` vertices and `m` edges.
fn random_graph(rng: &mut StdRng, n: u32, m: usize) -> (Vec<u32>, Vec<u32>) {
    let src: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
    let dst: Vec<u32> = (0..m).map(|_| rng.gen_range(0..n)).collect();
    (src, dst)
}

#[test]
fn batch_compute_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(2017);
    for _ in 0..25 {
        let n: u32 = rng.gen_range(2..60);
        let m: usize = rng.gen_range(1..300);
        let (src, dst) = random_graph(&mut rng, n, m);
        let g = Csr::from_edges(n, &src, &dst).unwrap();
        let pairs: Vec<(u32, u32)> =
            (0..rng.gen_range(1..80)).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
        let weights_int: Vec<i64> = (0..m).map(|_| rng.gen_range(1..50)).collect();
        let weights_float: Vec<f64> = weights_int.iter().map(|&w| w as f64 * 0.5).collect();
        let specs = [
            WeightSpec::Unweighted,
            WeightSpec::Int(weights_int.clone()),
            WeightSpec::Float(weights_float.clone()),
        ];
        for spec in &specs {
            for compute_paths in [false, true] {
                let seq = BatchComputer::new(&g).compute(&pairs, spec, compute_paths).unwrap();
                for threads in [2, 8] {
                    let par = BatchComputer::new(&g)
                        .with_threads(threads)
                        .compute(&pairs, spec, compute_paths)
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
    }
}

/// Morsel-fed batching: splitting a pair batch into fixed-size chunks (the
/// shape the engine's pipelined operators produce when traversal batches
/// are fed from morsel output) and concatenating the per-chunk results is
/// bit-identical to one whole-batch compute, at every thread count.
#[test]
fn chunked_batches_concatenate_to_whole_batch() {
    let mut rng = StdRng::seed_from_u64(90210);
    for _ in 0..10 {
        let n: u32 = rng.gen_range(2..60);
        let m: usize = rng.gen_range(1..300);
        let (src, dst) = random_graph(&mut rng, n, m);
        let g = Csr::from_edges(n, &src, &dst).unwrap();
        let pairs: Vec<(u32, u32)> =
            (0..rng.gen_range(1..80)).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
        let weights: Vec<i64> = (0..m).map(|_| rng.gen_range(1..50)).collect();
        for spec in [WeightSpec::Unweighted, WeightSpec::Int(weights.clone())] {
            let whole = BatchComputer::new(&g).compute(&pairs, &spec, true).unwrap();
            for chunk in [1usize, 3, 7, 64] {
                for threads in [1, 2, 4, 8] {
                    let computer = BatchComputer::new(&g).with_threads(threads);
                    let mut chunked = Vec::with_capacity(pairs.len());
                    for piece in pairs.chunks(chunk) {
                        chunked.extend(computer.compute(piece, &spec, true).unwrap());
                    }
                    assert_eq!(chunked.len(), whole.len(), "chunk {chunk} threads {threads}");
                    for (i, (c, s)) in chunked.iter().zip(&whole).enumerate() {
                        assert_eq!(c.reachable, s.reachable, "chunk {chunk} pair {i}");
                        assert_eq!(c.cost, s.cost, "chunk {chunk} pair {i}");
                        assert_eq!(c.path, s.path, "chunk {chunk} pair {i}");
                    }
                }
            }
        }
    }
}

/// Weights prepared once serve any number of batches: a `SourceSearch` over
/// them equals `compute` on every batch, at every thread count, whichever
/// width did the preparing; a bad vector fails in `PreparedWeights::new`
/// with `compute`'s error, and a vector prepared for another graph is
/// refused, not indexed out of bounds.
#[test]
fn prepared_weights_reused_across_batches_match_compute() {
    let mut rng = StdRng::seed_from_u64(362);
    for _ in 0..15 {
        let n: u32 = rng.gen_range(2..60);
        let m: usize = rng.gen_range(1..300);
        let (src, dst) = random_graph(&mut rng, n, m);
        let g = Csr::from_edges(n, &src, &dst).unwrap();
        let weights_int: Vec<i64> = (0..m).map(|_| rng.gen_range(1..50)).collect();
        let weights_float: Vec<f64> = weights_int.iter().map(|&w| w as f64 * 0.5).collect();
        let specs = [
            WeightSpec::Unweighted,
            WeightSpec::Int(weights_int.clone()),
            WeightSpec::Float(weights_float),
        ];
        let batches: Vec<Vec<(u32, u32)>> = (0..3)
            .map(|_| {
                let len = rng.gen_range(1..40);
                (0..len).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect()
            })
            .collect();
        for spec in &specs {
            let prepared = PreparedWeights::new(&g, spec, 1).unwrap();
            for threads in [1, 2, 4] {
                let computer = BatchComputer::new(&g).with_threads(threads);
                let budget = Budget { threads, ..Budget::default() };
                assert_eq!(PreparedWeights::new(&g, spec, threads).unwrap(), prepared);
                for pairs in &batches {
                    let whole = computer.compute(pairs, spec, true).unwrap();
                    let split = SourceSearch::new(&g, &prepared).run(pairs, &budget, true).unwrap();
                    assert_eq!(split.len(), whole.len());
                    for (i, (a, b)) in split.iter().zip(&whole).enumerate() {
                        assert_eq!(a.reachable, b.reachable, "threads {threads} pair {i}");
                        assert_eq!(a.cost, b.cost, "threads {threads} pair {i}");
                        assert_eq!(a.path, b.path, "threads {threads} pair {i}");
                    }
                }
            }
        }

        let mut bad = weights_int.clone();
        let at = rng.gen_range(0..m);
        bad[at] = 0;
        let computer = BatchComputer::new(&g).with_threads(4);
        let from_prepare = PreparedWeights::new(&g, &WeightSpec::Int(bad.clone()), 4).unwrap_err();
        let from_compute = computer.compute(&[(0, 0)], &WeightSpec::Int(bad), false).unwrap_err();
        assert_eq!(from_prepare, from_compute);

        let other = Csr::from_edges(n, &src[..m - 1], &dst[..m - 1]).unwrap();
        let foreign = PreparedWeights::new(&g, &WeightSpec::Int(weights_int), 1).unwrap();
        let err = SourceSearch::new(&other, &foreign).run(&[(0, 0)], &Budget::default(), false);
        assert!(err.unwrap_err().to_string().contains("prepared for"));
    }
}

#[test]
fn batch_errors_are_thread_count_independent() {
    let g = Csr::from_edges(4, &[0, 1, 2], &[1, 2, 3]).unwrap();
    for threads in [1, 2, 8] {
        let c = BatchComputer::new(&g).with_threads(threads);
        let err = c.compute(&[(0, 9)], &WeightSpec::Unweighted, true).unwrap_err();
        assert!(err.to_string().contains("out of range"), "threads {threads}: {err}");
        let err = c.compute(&[(0, 1)], &WeightSpec::Int(vec![1, -1, 1]), true).unwrap_err();
        assert!(err.to_string().contains("greater than 0"), "threads {threads}: {err}");
    }
}
