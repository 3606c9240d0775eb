//! Error type for the graph runtime.

use std::fmt;

/// Errors raised by the graph runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A `CHEAPEST SUM` weight evaluated to a value that is not strictly
    /// positive. The paper mandates a runtime exception in this case
    /// ("Its value must always be strictly greater than 0, otherwise a
    /// runtime exception is raised", §2).
    NonPositiveWeight {
        /// Original edge-table row id of the offending edge.
        edge_row: u32,
        /// The offending weight rendered as text.
        weight: String,
    },
    /// A NULL weight was encountered (same contract as non-positive).
    NullWeight {
        /// Original edge-table row id of the offending edge.
        edge_row: u32,
    },
    /// A vertex id out of the dense domain was supplied.
    VertexOutOfRange {
        /// The offending id.
        id: u32,
        /// Number of vertices in the graph.
        n: u32,
    },
    /// Mismatched array lengths in the runtime invocation.
    LengthMismatch(String),
    /// A requested pair's shortest path costs more than `i64::MAX`
    /// (integer weights) or reaches `f64::MAX` (floating-point weights).
    CostOverflow,
    /// An acceleration layer refused weights whose total (the most a label
    /// of its searches can reach) is above the `limit` its arithmetic holds.
    WeightTotalTooLarge {
        /// The sum of every edge weight.
        total: u128,
        /// The largest total the layer holds.
        limit: u64,
    },
    /// A batch traversal was abandoned because its deadline passed (the
    /// engine's statement timeout). Raised between per-source traversals,
    /// so already-computed groups are discarded, never returned partially.
    DeadlineExceeded,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NonPositiveWeight { edge_row, weight } => write!(
                f,
                "CHEAPEST SUM weight must be strictly greater than 0, \
                 but edge row {edge_row} has weight {weight}"
            ),
            GraphError::NullWeight { edge_row } => {
                write!(f, "CHEAPEST SUM weight is NULL at edge row {edge_row}")
            }
            GraphError::VertexOutOfRange { id, n } => {
                write!(f, "vertex id {id} out of range (|V| = {n})")
            }
            GraphError::LengthMismatch(msg) => write!(f, "length mismatch: {msg}"),
            GraphError::CostOverflow => write!(
                f,
                "cost overflow: a cost above {} (INTEGER) or of {:e} or more (DOUBLE)",
                i64::MAX,
                f64::MAX
            ),
            GraphError::WeightTotalTooLarge { total, limit } => write!(
                f,
                "path index weights total {total}, above the {limit} its searches add up exactly"
            ),
            GraphError::DeadlineExceeded => {
                write!(f, "graph traversal abandoned: statement deadline exceeded")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_contract() {
        let e = GraphError::NonPositiveWeight { edge_row: 3, weight: "-1".into() };
        assert!(e.to_string().contains("strictly greater than 0"));
        assert!(e.to_string().contains("edge row 3"));
    }
}
