//! The parallel-scaling benchmark: a many-source batched Q13 statement
//! executed with `SET threads = 1` versus `SET threads = N`. Each distinct
//! source is one independent traversal, so on a multi-core machine the
//! speedup approaches the thread count (the acceptance target is ≥ 2× at
//! 4 threads on ≥ 4 cores).
//!
//! `cargo run -p gsql-bench --release --bin parallel_scaling -- \
//!      --sf 0.1,1 --reps 10 --batch 64 --threads 4`

use gsql_bench::report::arg_value;
use gsql_bench::{print_parallel_scaling, run_parallel_scaling, BenchConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize =
        arg_value(&args, "--threads").and_then(|s| s.parse().ok()).filter(|&t| t >= 1).unwrap_or(4);
    let cfg = BenchConfig::from_args();
    let batch: usize = arg_value(&args, "--batch").and_then(|s| s.parse().ok()).unwrap_or(64);
    println!(
        "(scale factors: {:?}, seed {}, batch {batch}, threads {threads}, \
         {} hardware threads available)\n",
        cfg.sfs,
        cfg.seed,
        gsql_parallel_available()
    );
    let rows = run_parallel_scaling(&cfg, batch, threads);
    print_parallel_scaling(&rows);
    println!("\nthreads = 1 runs the exact sequential code path; results are");
    println!("byte-identical at every thread count (only wall clock changes).");
}

/// Hardware threads, read through the engine's own default.
fn gsql_parallel_available() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
