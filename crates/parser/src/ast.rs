//! Abstract syntax tree for the supported SQL dialect.

/// A type name as written in DDL or `CAST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    /// `INTEGER` / `INT` / `BIGINT`
    Integer,
    /// `DOUBLE` / `FLOAT`
    Double,
    /// `VARCHAR` / `TEXT`
    Varchar,
    /// `BOOLEAN`
    Boolean,
    /// `DATE`
    Date,
}

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `NULL`
    Null,
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal.
    String(String),
    /// `TRUE` / `FALSE`
    Bool(bool),
    /// `DATE 'YYYY-MM-DD'`
    Date(String),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||`
    Concat,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// The paper's reachability predicate:
/// `source REACHES dest OVER edge_table [alias] EDGE (src_col, dst_col)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachesPredicate {
    /// The `X` expression (source vertices).
    pub source: Expr,
    /// The `Y` expression (destination vertices).
    pub dest: Expr,
    /// The edge table expression (base table, CTE name, or derived table).
    pub edge_table: TableRef,
    /// The tuple variable `e` that `CHEAPEST SUM(e: …)` binds to.
    pub alias: Option<String>,
    /// Source attribute `S` of the edge table.
    pub src_col: String,
    /// Destination attribute `D` of the edge table.
    pub dst_col: String,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Literal),
    /// Column reference, optionally qualified: `t.c` or `c`.
    Column {
        /// Optional table qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// `?` host parameter; the index is the 0-based appearance order.
    Param(usize),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (list)`
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern with `%` and `_` wildcards.
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`
    Case {
        /// Optional comparand (simple CASE).
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// Optional ELSE.
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`
    Cast {
        /// Source expression.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeName,
    },
    /// Function call (scalar or aggregate; resolved by the binder).
    Function {
        /// Function name (case-insensitive).
        name: String,
        /// Arguments; `COUNT(*)` is encoded as zero arguments.
        args: Vec<Expr>,
        /// True for `agg(DISTINCT x)`.
        distinct: bool,
    },
    /// The paper's reachability predicate (only valid inside `WHERE`).
    Reaches(Box<ReachesPredicate>),
}

/// `CHEAPEST SUM` result aliases.
#[derive(Debug, Clone, PartialEq)]
pub enum CheapestAlias {
    /// No alias: one anonymous cost column.
    None,
    /// `AS cost`: one named cost column.
    Cost(String),
    /// `AS (cost, path)`: cost column plus nested-table path column
    /// (the paper's "aliasing format AS (identifier_list)", §3.1).
    CostAndPath(String, String),
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional `AS alias`.
        alias: Option<String>,
    },
    /// `CHEAPEST SUM([e:] weight_expr) [AS …]` — the paper's shortest-path
    /// summary function (§2).
    CheapestSum {
        /// The tuple variable binding it to a `REACHES` edge table, when
        /// multiple reachability predicates are present.
        binding: Option<String>,
        /// The per-edge weight expression (`1` for unweighted).
        weight: Expr,
        /// Output aliases.
        aliases: CheapestAlias,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN … ON`
    Inner,
    /// `LEFT [OUTER] JOIN … ON`
    LeftOuter,
    /// `CROSS JOIN`
    Cross,
}

/// A table reference in `FROM`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table or CTE by name.
    Base {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// Parenthesized subquery with an alias.
    Derived {
        /// The subquery.
        query: Box<Query>,
        /// Mandatory alias.
        alias: String,
    },
    /// Explicit join.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// `ON` condition (absent for CROSS JOIN).
        on: Option<Expr>,
    },
    /// `UNNEST(expr) [WITH ORDINALITY] [AS alias [(col, …)]]` — lateral
    /// expansion of a nested-table path (paper §2). In the comma-separated
    /// `FROM` list it behaves as an implicit lateral inner join; as the right
    /// side of a `LEFT JOIN` it preserves rows with empty paths.
    Unnest {
        /// The nested-table expression (a column of type PATH).
        expr: Expr,
        /// True when `WITH ORDINALITY` was given: appends a 1-based
        /// position column.
        with_ordinality: bool,
        /// Optional alias for the produced rows.
        alias: Option<String>,
        /// Optional column aliases.
        column_aliases: Option<Vec<String>>,
    },
}

/// A common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    /// CTE name.
    pub name: String,
    /// Optional column rename list.
    pub columns: Option<Vec<String>>,
    /// The defining query.
    pub query: Query,
}

/// The body of a query (set-operation tree).
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// A `SELECT` block.
    Select(Box<Select>),
    /// `UNION [ALL]`
    Union {
        /// Left input.
        left: Box<SetExpr>,
        /// Right input.
        right: Box<SetExpr>,
        /// True for `UNION ALL` (duplicates kept).
        all: bool,
    },
    /// `VALUES (…), (…)`
    Values(Vec<Vec<Expr>>),
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// True for ascending (default).
    pub asc: bool,
}

/// A `SELECT` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// True when `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Comma-separated `FROM` items (implicit cross/lateral joins).
    /// May be empty: `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? …` (paper
    /// appendix A.1 has no FROM clause).
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

/// A full query: CTEs, body, ordering and row limits.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `WITH` common table expressions.
    pub ctes: Vec<Cte>,
    /// The set-expression body.
    pub body: SetExpr,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` row count.
    pub limit: Option<Expr>,
    /// `OFFSET` row count.
    pub offset: Option<Expr>,
}

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDefAst {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: TypeName,
    /// `NOT NULL` (implied by `PRIMARY KEY`).
    pub not_null: bool,
    /// `PRIMARY KEY`.
    pub primary_key: bool,
}

/// The value of a `SET <option> = <value>` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SetValue {
    /// A literal (`SET row_limit = 1000`).
    Literal(Literal),
    /// A bare word (`SET trace = on`).
    Ident(String),
}

/// The preprocessing tier of a `CREATE PATH INDEX … USING …` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathIndexMethod {
    /// `USING LANDMARKS(k)` — an ALT index with `k` landmark distance
    /// vectors for goal-directed bidirectional A*.
    Landmarks(u32),
    /// `USING CONTRACTION` — a contraction hierarchy for bidirectional
    /// upward Dijkstra with stall-on-demand.
    Contraction,
}

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type [NOT NULL] [PRIMARY KEY], …)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDefAst>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO name [(cols)] VALUES (…), (…)` or `INSERT INTO … query`
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Source of rows.
        source: Query,
    },
    /// `DELETE FROM name [WHERE …]`
    Delete {
        /// Target table.
        table: String,
        /// Optional filter; absent deletes every row.
        filter: Option<Expr>,
    },
    /// `UPDATE name SET c = e, … [WHERE …]`
    Update {
        /// Target table.
        table: String,
        /// `(column, value)` assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional filter.
        filter: Option<Expr>,
    },
    /// `CREATE GRAPH INDEX name ON table EDGE (src, dst)` — the paper's §6
    /// future-work graph index, implemented here as an extension.
    CreateGraphIndex {
        /// Index name.
        name: String,
        /// Indexed edge table.
        table: String,
        /// Source column.
        src_col: String,
        /// Destination column.
        dst_col: String,
    },
    /// `DROP GRAPH INDEX name`
    DropGraphIndex {
        /// Index name.
        name: String,
    },
    /// `CREATE PATH INDEX [IF NOT EXISTS] name ON table EDGE (src, dst)
    /// [WEIGHT col] USING {LANDMARKS(k) | CONTRACTION}` — a
    /// path-acceleration index precomputed for point-to-point
    /// shortest-path search; the `USING` clause picks the preprocessing
    /// tier.
    CreatePathIndex {
        /// Index name.
        name: String,
        /// Indexed edge table.
        table: String,
        /// Source column.
        src_col: String,
        /// Destination column.
        dst_col: String,
        /// Optional weight column; `None` indexes hop distances.
        weight_col: Option<String>,
        /// The declared preprocessing method.
        method: PathIndexMethod,
        /// `IF NOT EXISTS` was given: creating over an existing name is a
        /// no-op instead of an error.
        if_not_exists: bool,
    },
    /// `DROP PATH INDEX [IF EXISTS] name`
    DropPathIndex {
        /// Index name.
        name: String,
        /// `IF EXISTS` was given: dropping a missing index is a no-op.
        if_exists: bool,
    },
    /// `SHOW PATH INDEXES` — list every registered path index with its
    /// table, kind and built/stale status.
    ShowPathIndexes,
    /// A query.
    Query(Query),
    /// `EXPLAIN query` — renders the optimized logical plan.
    Explain(Query),
    /// `EXPLAIN ANALYZE query` — executes the query and renders the plan
    /// annotated with per-operator row counts and wall time.
    ExplainAnalyze(Query),
    /// `DESCRIBE table`
    Describe {
        /// Table name.
        name: String,
    },
    /// `SET <option> = <value>` — change a session setting.
    Set {
        /// Option name (e.g. `trace`, `row_limit`).
        name: String,
        /// New value.
        value: SetValue,
    },
    /// `SHOW <option>` / `SHOW ALL` — read session settings.
    Show {
        /// Option name; `None` for `SHOW ALL`.
        name: Option<String>,
    },
    /// `CHECKPOINT` — force a durable snapshot of the whole database.
    /// A no-op (reported as `skipped`) when the database is in-memory.
    Checkpoint,
}

impl Expr {
    /// Convenience constructor for an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column { table: None, name: name.into() }
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// Walk the expression tree, invoking `f` on every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => {}
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Between { expr, low, high, .. } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(op) = operand {
                    op.visit(f);
                }
                for (w, t) in branches {
                    w.visit(f);
                    t.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
            Expr::Cast { expr, .. } => expr.visit(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Reaches(r) => {
                r.source.visit(f);
                r.dest.visit(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_reaches_all_nodes() {
        let e = Expr::Binary {
            left: Box::new(Expr::col("a")),
            op: BinaryOp::Add,
            right: Box::new(Expr::Case {
                operand: None,
                branches: vec![(Expr::col("b"), Expr::int(1))],
                else_expr: Some(Box::new(Expr::int(2))),
            }),
        };
        let mut count = 0;
        e.visit(&mut |_| count += 1);
        assert_eq!(count, 6); // binary, a, case, b, 1, 2
    }
}
