//! # gsql-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§4), plus the ablations listed in DESIGN.md.
//!
//! Binaries (all support `--sf a,b,c` and `--reps n`; defaults are sized
//! for a small machine — pass the paper's scale factors explicitly to run
//! the full sweep):
//!
//! * `table1` — graph sizes per scale factor (paper Table 1);
//! * `fig1b` — latency per pair at batch sizes 1…128 (paper Figure 1b);
//! * `ablation_baselines` — native operator vs the §1 "customary" SQL
//!   strategies;
//! * `parallel_scaling` — many-source batched Q13 with `SET threads = 1`
//!   vs `SET threads = N` (also takes `--batch` and `--threads`).

pub mod harness;
pub mod queries;
pub mod report;

pub use harness::*;
