//! The logical plan.
//!
//! Mirrors the paper's §3.1 design: the standard relational operators plus
//! the two graph additions — **graph select** `σ̂(T, E)` and **graph join**
//! `⋈̂(T1, T2, E)`. The binder always produces a graph *select* when it sees
//! a reachability predicate; the optimizer's rewriter recognizes the
//! cross-product-plus-graph-select shape and folds it into a graph *join*,
//! exactly as described in the paper ("Graph joins are only unfolded in the
//! query rewriter when it recognizes the sequence of a cross product plus a
//! graph select").

use crate::plan::expr::{AggCall, BoundExpr};
use gsql_storage::{ColumnDef, DataType, Schema};
use std::fmt;

/// One output column of a plan node: name, type, and — for nested-table
/// path columns — the schema of the rows inside the nested table.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanColumn {
    /// Table qualifier usable to reference the column (`p1` in `p1.id`).
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
    /// For `DataType::Path` columns: the schema of the nested rows, i.e.
    /// the schema of the edge table that produced the path (paper §3.3).
    pub nested: Option<Schema>,
}

impl PlanColumn {
    /// A plain column without qualifier or nesting.
    pub fn new(name: impl Into<String>, ty: DataType) -> PlanColumn {
        PlanColumn { qualifier: None, name: name.into(), ty, nullable: true, nested: None }
    }

    /// Same column with a (new) qualifier.
    pub fn with_qualifier(mut self, q: impl Into<String>) -> PlanColumn {
        self.qualifier = Some(q.into());
        self
    }
}

/// An ordered list of [`PlanColumn`]s — the compile-time shape of a plan
/// node's output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanSchema {
    columns: Vec<PlanColumn>,
}

impl PlanSchema {
    /// Build from columns.
    pub fn new(columns: Vec<PlanColumn>) -> PlanSchema {
        PlanSchema { columns }
    }

    /// The columns.
    pub fn columns(&self) -> &[PlanColumn] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when there are no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column at ordinal `i`.
    pub fn column(&self, i: usize) -> &PlanColumn {
        &self.columns[i]
    }

    /// Append a column, returning its ordinal.
    pub fn push(&mut self, col: PlanColumn) -> usize {
        self.columns.push(col);
        self.columns.len() - 1
    }

    /// Concatenate two schemas (join output shape).
    pub fn concat(&self, other: &PlanSchema) -> PlanSchema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        PlanSchema { columns }
    }

    /// Convert to a storage [`Schema`] for materializing results.
    pub fn to_storage_schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| ColumnDef { name: c.name.clone(), ty: c.ty, nullable: c.nullable })
                .collect(),
        )
    }
}

/// One `CHEAPEST SUM` evaluation attached to a graph select / graph join.
#[derive(Debug, Clone, PartialEq)]
pub struct CheapestSpec {
    /// Weight expression bound over the **edge table** schema. A constant
    /// `1` selects the BFS fast path (unweighted shortest path).
    pub weight: BoundExpr,
    /// Static type of the weight (Int → radix-queue Dijkstra,
    /// Double → binary-heap Dijkstra).
    pub weight_ty: DataType,
    /// Whether the path column was requested (`AS (cost, path)`).
    pub want_path: bool,
    /// Output name of the cost column.
    pub cost_name: String,
    /// Output name of the path column (meaningful when `want_path`).
    pub path_name: String,
}

/// Sort direction plus key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Key expression over the input schema.
    pub expr: BoundExpr,
    /// Ascending?
    pub asc: bool,
}

/// Join kinds at the plan level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    LeftOuter,
    /// Cross product (no condition).
    Cross,
}

/// A logical query plan node. Every node knows its output [`PlanSchema`].
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Produces exactly one row with no columns (`SELECT` without `FROM`).
    SingleRow,
    /// Scan a named base table.
    Scan {
        /// Catalog table name.
        table: String,
        /// Output schema (columns qualified by table name or alias).
        schema: PlanSchema,
    },
    /// Literal rows.
    Values {
        /// Row-major expressions (no column references).
        rows: Vec<Vec<BoundExpr>>,
        /// Output schema.
        schema: PlanSchema,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema (kept when true).
        predicate: BoundExpr,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// One expression per output column.
        exprs: Vec<BoundExpr>,
        /// Output schema (same arity as `exprs`).
        schema: PlanSchema,
    },
    /// Join (inner / left outer / cross).
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Kind.
        kind: JoinKind,
        /// Condition over `left.schema ++ right.schema`; `None` for cross.
        on: Option<BoundExpr>,
        /// Output schema (`left ++ right`).
        schema: PlanSchema,
    },
    /// The paper's graph select `σ̂P̄(T, E)`: filters input rows by
    /// reachability of `source -> dest` over the graph derived from `edge`,
    /// appending one cost column (and optionally one path column) per
    /// [`CheapestSpec`].
    GraphSelect {
        /// The filtered table expression `T`.
        input: Box<LogicalPlan>,
        /// The edge table expression `E`.
        edge: Box<LogicalPlan>,
        /// Ordinal of the source key column `S` in the edge schema.
        src_key: usize,
        /// Ordinal of the destination key column `D` in the edge schema.
        dst_key: usize,
        /// `X`: expression over the input schema producing source vertices.
        source: BoundExpr,
        /// `Y`: expression over the input schema producing dest vertices.
        dest: BoundExpr,
        /// Attached `CHEAPEST SUM` evaluations.
        specs: Vec<CheapestSpec>,
        /// Output schema: input columns ++ cost/path columns.
        schema: PlanSchema,
    },
    /// The paper's graph join `⋈̂P̄(T1, T2, E) = σ̂P̄(T1 × T2, E)`, produced
    /// by the rewriter; never materializes the cross product.
    GraphJoin {
        /// Left input `T1` (provides source vertices).
        left: Box<LogicalPlan>,
        /// Right input `T2` (provides destination vertices).
        right: Box<LogicalPlan>,
        /// The edge table expression `E`.
        edge: Box<LogicalPlan>,
        /// Ordinal of `S` in the edge schema.
        src_key: usize,
        /// Ordinal of `D` in the edge schema.
        dst_key: usize,
        /// `X` over the **left** schema.
        source: BoundExpr,
        /// `Y` over the **right** schema.
        dest: BoundExpr,
        /// Attached `CHEAPEST SUM` evaluations.
        specs: Vec<CheapestSpec>,
        /// Output schema: left ++ right ++ cost/path columns.
        schema: PlanSchema,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by key expressions over the input.
        group: Vec<BoundExpr>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Output schema: group keys ++ aggregate results.
        schema: PlanSchema,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Row-count limit/offset.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows to emit (`None` = unlimited).
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
    },
    /// Duplicate elimination over whole rows.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Bag union; types already unified by the binder.
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Keep duplicates?
        all: bool,
    },
    /// Flatten a nested-table path column: one output row per edge of the
    /// path (paper §2's `UNNEST`), optionally with a 1-based ordinality
    /// column, optionally preserving rows with empty paths (left outer
    /// lateral join semantics).
    Unnest {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Ordinal of the `DataType::Path` column to flatten.
        path_col: usize,
        /// Append `WITH ORDINALITY` column?
        with_ordinality: bool,
        /// Emit one all-NULL expansion row when the path is empty/NULL
        /// (left outer join semantics) instead of dropping the row.
        preserve_empty: bool,
        /// Output schema: input ++ nested columns (++ ordinality).
        schema: PlanSchema,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> &PlanSchema {
        use LogicalPlan::*;
        match self {
            SingleRow => {
                static EMPTY: std::sync::OnceLock<PlanSchema> = std::sync::OnceLock::new();
                EMPTY.get_or_init(PlanSchema::default)
            }
            Scan { schema, .. }
            | Values { schema, .. }
            | Project { schema, .. }
            | Join { schema, .. }
            | GraphSelect { schema, .. }
            | GraphJoin { schema, .. }
            | Aggregate { schema, .. }
            | Unnest { schema, .. } => schema,
            Filter { input, .. }
            | Sort { input, .. }
            | Limit { input, .. }
            | Distinct { input } => input.schema(),
            Union { left, .. } => left.schema(),
        }
    }

    /// Render the plan as an indented tree (EXPLAIN output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let _ = writeln!(out, "{}{}", "  ".repeat(depth), self.node_label());
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }

    /// The node's direct children, in `EXPLAIN` (and execution) order.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        use LogicalPlan::*;
        match self {
            SingleRow | Scan { .. } | Values { .. } => Vec::new(),
            Filter { input, .. }
            | Project { input, .. }
            | Aggregate { input, .. }
            | Sort { input, .. }
            | Limit { input, .. }
            | Distinct { input }
            | Unnest { input, .. } => vec![input],
            Join { left, right, .. } | Union { left, right, .. } => vec![left, right],
            GraphSelect { input, edge, .. } => vec![input, edge],
            GraphJoin { left, right, edge, .. } => vec![left, right, edge],
        }
    }

    /// The node's one-line header, shared by `EXPLAIN` and the per-operator
    /// statistics of `EXPLAIN ANALYZE`.
    pub fn node_label(&self) -> String {
        match self {
            LogicalPlan::SingleRow => "SingleRow".to_string(),
            LogicalPlan::Scan { table, schema } => {
                let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
                format!("Scan {table} [{}]", names.join(", "))
            }
            LogicalPlan::Values { rows, .. } => format!("Values ({} rows)", rows.len()),
            LogicalPlan::Filter { input, predicate } => {
                format!("Filter {}", predicate.display(input.schema()))
            }
            LogicalPlan::Project { input, exprs, schema } => {
                let items: Vec<String> = exprs
                    .iter()
                    .zip(schema.columns())
                    .map(|(e, c)| format!("{} AS {}", e.display(input.schema()), c.name))
                    .collect();
                format!("Project {}", items.join(", "))
            }
            LogicalPlan::Join { kind, on, schema, .. } => {
                let k = match kind {
                    JoinKind::Inner => "InnerJoin",
                    JoinKind::LeftOuter => "LeftOuterJoin",
                    JoinKind::Cross => "CrossProduct",
                };
                match on {
                    Some(on) => format!("{k} on {}", on.display(schema)),
                    None => k.to_string(),
                }
            }
            LogicalPlan::GraphSelect {
                input, edge, src_key, dst_key, source, dest, specs, ..
            } => {
                format!(
                    "GraphSelect {} REACHES {} EDGE ({}, {}){}",
                    source.display(input.schema()),
                    dest.display(input.schema()),
                    edge.schema().column(*src_key).name,
                    edge.schema().column(*dst_key).name,
                    explain_specs(specs, edge.schema()),
                )
            }
            LogicalPlan::GraphJoin {
                left,
                right,
                edge,
                src_key,
                dst_key,
                source,
                dest,
                specs,
                ..
            } => {
                format!(
                    "GraphJoin {} REACHES {} EDGE ({}, {}){}",
                    source.display(left.schema()),
                    dest.display(right.schema()),
                    edge.schema().column(*src_key).name,
                    edge.schema().column(*dst_key).name,
                    explain_specs(specs, edge.schema()),
                )
            }
            LogicalPlan::Aggregate { input, group, aggs, .. } => {
                let g: Vec<String> =
                    group.iter().map(|e| e.display(input.schema()).to_string()).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|c| match &c.arg {
                        Some(arg) => {
                            format!("{:?}({})", c.func, arg.display(input.schema()))
                        }
                        None => format!("{:?}", c.func),
                    })
                    .collect();
                format!("Aggregate group=[{}] aggs=[{}]", g.join(", "), a.join(", "))
            }
            LogicalPlan::Sort { input, keys } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "{}{}",
                            k.expr.display(input.schema()),
                            if k.asc { "" } else { " DESC" }
                        )
                    })
                    .collect();
                format!("Sort {}", k.join(", "))
            }
            LogicalPlan::Limit { limit, offset, .. } => {
                format!("Limit limit={limit:?} offset={offset}")
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::Union { all, .. } => {
                format!("Union{}", if *all { " ALL" } else { "" })
            }
            LogicalPlan::Unnest { input, path_col, with_ordinality, preserve_empty, .. } => {
                format!(
                    "Unnest path_col={} ordinality={} preserve_empty={}",
                    input.schema().column(*path_col).name,
                    with_ordinality,
                    preserve_empty
                )
            }
        }
    }
}

fn explain_specs(specs: &[CheapestSpec], edge_schema: &PlanSchema) -> String {
    if specs.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = specs
        .iter()
        .map(|s| {
            format!(
                "CHEAPEST SUM({}){}",
                s.weight.display(edge_schema),
                if s.want_path { " +path" } else { "" }
            )
        })
        .collect();
    format!(" [{}]", parts.join(", "))
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: PlanSchema::new(vec![
                PlanColumn::new("a", DataType::Int).with_qualifier("t"),
                PlanColumn::new("b", DataType::Varchar).with_qualifier("t"),
            ]),
        }
    }

    #[test]
    fn schema_propagates_through_filter_sort_limit() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: BoundExpr::Literal(gsql_storage::Value::Bool(true)),
            }),
            limit: Some(1),
            offset: 0,
        };
        assert_eq!(plan.schema().len(), 2);
        assert_eq!(plan.schema().column(0).name, "a");
    }

    #[test]
    fn explain_renders_tree() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Binary {
                left: Box::new(BoundExpr::Column { index: 0, ty: DataType::Int }),
                op: crate::plan::expr::BinaryOp::Gt,
                right: Box::new(BoundExpr::Literal(gsql_storage::Value::Int(1))),
            },
        };
        let text = plan.explain();
        assert!(text.contains("Filter (a > 1)"));
        assert!(text.contains("Scan t [a, b]"));
    }

    #[test]
    fn plan_schema_concat() {
        let a = PlanSchema::new(vec![PlanColumn::new("x", DataType::Int)]);
        let b = PlanSchema::new(vec![PlanColumn::new("y", DataType::Double)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.column(1).name, "y");
    }

    #[test]
    fn storage_schema_conversion() {
        let s = PlanSchema::new(vec![PlanColumn::new("x", DataType::Int)]);
        let storage = s.to_storage_schema();
        assert_eq!(storage.len(), 1);
        assert_eq!(storage.column(0).ty, DataType::Int);
    }
}
