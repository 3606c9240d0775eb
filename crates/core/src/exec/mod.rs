//! Physical execution: column-at-a-time, morsel-driven pipelines between
//! materializing breakers.

pub mod aggregate;
pub mod executor;
pub(crate) mod explain;
pub(crate) mod expression;
pub mod graph_op;
pub mod join;
pub(crate) mod keys;
pub mod pipeline;
pub mod unnest;

pub use executor::Executor;
pub use graph_op::{build_graph, build_graph_with_threads, MaterializedGraph};
