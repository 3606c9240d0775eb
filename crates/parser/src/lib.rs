//! # gsql-parser
//!
//! SQL lexer and recursive-descent parser for the `gsql` engine, covering a
//! practical SQL subset **plus the language extension of the paper**
//! (*Extending SQL for Computing Shortest Paths*, De Leo & Boncz, GRADES'17):
//!
//! * the reachability predicate
//!   `X REACHES Y OVER edge_table [alias] EDGE (S, D)` in `WHERE`;
//! * the shortest-path summary function
//!   `CHEAPEST SUM([e:] expr) [AS cost | AS (cost, path)]` in the
//!   projection list;
//! * `UNNEST(expr) [WITH ORDINALITY]` as a lateral `FROM` item for
//!   flattening nested-table paths.
//!
//! As in the paper (§3.1), `CHEAPEST`, `REACHES`, `EDGE` and `UNNEST` are
//! keywords.
//!
//! The crate is standalone: it produces an [`ast`] that the `gsql-core`
//! binder consumes, with no dependency on the storage layer.

#![forbid(unsafe_code)]

pub mod ast;
pub mod display;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::*;
pub use error::ParseError;
pub use lexer::Lexer;
pub use parser::{parse_sql, parse_statement, Parser};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ParseError>;
