//! # gsql-datagen
//!
//! Deterministic synthetic data generators for the reproduction.
//!
//! The paper evaluates on LDBC SNB Interactive datasets produced by the
//! LDBC DATAGEN Hadoop job (friendship projection only: persons plus the
//! `knows` edges, with the Q14 precomputed affinity weights). DATAGEN and
//! its datasets are not redistributable here, so [`snb`] generates the
//! closest synthetic equivalent:
//!
//! * person and friendship counts matched to the paper's **Table 1** per
//!   scale factor (interpolated power laws for other scale factors);
//! * a skewed (Chung-Lu style) friendship degree distribution, which is the
//!   property BFS/Dijkstra traversal cost actually depends on;
//! * undirected friendships emitted as two directed edges, matching the
//!   paper's note that "the number of edges is actually double the amount
//!   of friendship relationships";
//! * per-friendship `creationDate` and a strictly positive precomputed
//!   `weight` standing in for the LDBC Q14 interaction-based affinity.
//!
//! [`road`] additionally generates weighted grid road networks for the
//! routing example.

#![forbid(unsafe_code)]

pub mod names;
pub mod road;
pub mod snb;

pub use snb::{SnbDataset, SnbParams};
