//! Rendering the AST back to SQL text.
//!
//! The renderer produces canonical SQL that re-parses to the same AST (up to
//! parameter numbering), which the round-trip property tests rely on.

use crate::ast::*;
use std::fmt;

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TypeName::Integer => "INTEGER",
            TypeName::Double => "DOUBLE",
            TypeName::Varchar => "VARCHAR",
            TypeName::Boolean => "BOOLEAN",
            TypeName::Date => "DATE",
        })
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => write!(f, "NULL"),
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Literal::Date(d) => write!(f, "DATE '{d}'"),
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        })
    }
}

/// Parenthesizes conservatively (every compound sub-expression) so
/// precedence never changes on re-parse.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Column { table: Some(t), name } => write!(f, "{t}.{name}"),
            Expr::Column { table: None, name } => write!(f, "{name}"),
            Expr::Param(_) => write!(f, "?"),
            // The space prevents `--` (a comment) when the operand
            // renders with a leading minus.
            Expr::Unary { op: UnaryOp::Neg, expr } => write!(f, "(- {expr})"),
            Expr::Unary { op: UnaryOp::Not, expr } => write!(f, "(NOT {expr})"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList { expr, list, negated } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Between { expr, low, high, negated } => {
                write!(f, "({expr} {}BETWEEN {low} AND {high})", if *negated { "NOT " } else { "" })
            }
            Expr::Like { expr, pattern, negated } => {
                write!(f, "({expr} {}LIKE {pattern})", if *negated { "NOT " } else { "" })
            }
            Expr::Case { operand, branches, else_expr } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast { expr, ty } => write!(f, "CAST({expr} AS {ty})"),
            Expr::Function { name, args, distinct } => {
                if args.is_empty() && name.eq_ignore_ascii_case("count") {
                    return write!(f, "COUNT(*)");
                }
                write!(f, "{name}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Reaches(r) => {
                write!(f, "({} REACHES {} OVER ", r.source, r.dest)?;
                match &r.edge_table {
                    TableRef::Base { name, .. } => write!(f, "{name}")?,
                    TableRef::Derived { query, .. } => write!(f, "({query})")?,
                    other => write!(f, "{other}")?,
                }
                if let Some(a) = &r.alias {
                    write!(f, " {a}")?;
                }
                write!(f, " EDGE ({}, {}))", r.src_col, r.dst_col)
            }
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::QualifiedWildcard(t) => write!(f, "{t}.*"),
            SelectItem::Expr { expr, alias: Some(a) } => write!(f, "{expr} AS {a}"),
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
            SelectItem::CheapestSum { binding, weight, aliases } => {
                write!(f, "CHEAPEST SUM(")?;
                if let Some(b) = binding {
                    write!(f, "{b}: ")?;
                }
                write!(f, "{weight})")?;
                match aliases {
                    CheapestAlias::None => Ok(()),
                    CheapestAlias::Cost(c) => write!(f, " AS {c}"),
                    CheapestAlias::CostAndPath(c, p) => write!(f, " AS ({c}, {p})"),
                }
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Base { name, alias: Some(a) } => write!(f, "{name} {a}"),
            TableRef::Base { name, alias: None } => write!(f, "{name}"),
            TableRef::Derived { query, alias } => write!(f, "({query}) {alias}"),
            TableRef::Join { left, right, kind, on } => {
                let kw = match kind {
                    JoinKind::Inner => "JOIN",
                    JoinKind::LeftOuter => "LEFT JOIN",
                    JoinKind::Cross => "CROSS JOIN",
                };
                write!(f, "{left} {kw} {right}")?;
                if let Some(on) = on {
                    write!(f, " ON {on}")?;
                }
                Ok(())
            }
            TableRef::Unnest { expr, with_ordinality, alias, column_aliases } => {
                write!(f, "UNNEST({expr})")?;
                if *with_ordinality {
                    write!(f, " WITH ORDINALITY")?;
                }
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                    if let Some(cols) = column_aliases {
                        write!(f, " ({})", cols.join(", "))?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Select(s) => write!(f, "{s}"),
            SetExpr::Union { left, right, all } => {
                write!(f, "{left} UNION {}{right}", if *all { "ALL " } else { "" })
            }
            SetExpr::Values(rows) => {
                write!(f, "VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.ctes.is_empty() {
            write!(f, "WITH ")?;
            for (i, cte) in self.ctes.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", cte.name)?;
                if let Some(cols) = &cte.columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                write!(f, " AS ({})", cte.query)?;
            }
            write!(f, " ")?;
        }
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}{}", o.expr, if o.asc { "" } else { " DESC" })?;
            }
        }
        if let Some(l) = &self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = &self.offset {
            write!(f, " OFFSET {o}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable { name, columns } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {}", c.name, c.ty)?;
                    if c.primary_key {
                        write!(f, " PRIMARY KEY")?;
                    } else if c.not_null {
                        write!(f, " NOT NULL")?;
                    }
                }
                write!(f, ")")
            }
            Statement::DropTable { name } => write!(f, "DROP TABLE {name}"),
            Statement::Insert { table, columns, source } => {
                write!(f, "INSERT INTO {table}")?;
                if let Some(cols) = columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                write!(f, " {source}")
            }
            Statement::Delete { table, filter } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Update { table, assignments, filter } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::CreateGraphIndex { name, table, src_col, dst_col } => {
                write!(f, "CREATE GRAPH INDEX {name} ON {table} EDGE ({src_col}, {dst_col})")
            }
            Statement::DropGraphIndex { name } => write!(f, "DROP GRAPH INDEX {name}"),
            Statement::CreatePathIndex {
                name,
                table,
                src_col,
                dst_col,
                weight_col,
                method,
                if_not_exists,
            } => {
                write!(f, "CREATE PATH INDEX ")?;
                if *if_not_exists {
                    write!(f, "IF NOT EXISTS ")?;
                }
                write!(f, "{name} ON {table} EDGE ({src_col}, {dst_col})")?;
                if let Some(w) = weight_col {
                    write!(f, " WEIGHT {w}")?;
                }
                match method {
                    PathIndexMethod::Landmarks(k) => write!(f, " USING LANDMARKS({k})"),
                    PathIndexMethod::Contraction => write!(f, " USING CONTRACTION"),
                }
            }
            Statement::DropPathIndex { name, if_exists } => {
                write!(f, "DROP PATH INDEX ")?;
                if *if_exists {
                    write!(f, "IF EXISTS ")?;
                }
                write!(f, "{name}")
            }
            Statement::ShowPathIndexes => write!(f, "SHOW PATH INDEXES"),
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Explain(q) => write!(f, "EXPLAIN {q}"),
            Statement::ExplainAnalyze(q) => write!(f, "EXPLAIN ANALYZE {q}"),
            Statement::Describe { name } => write!(f, "DESCRIBE {name}"),
            Statement::Set { name, value } => write!(f, "SET {name} = {value}"),
            Statement::Show { name: Some(n) } => write!(f, "SHOW {n}"),
            Statement::Show { name: None } => write!(f, "SHOW ALL"),
            Statement::Checkpoint => write!(f, "CHECKPOINT"),
        }
    }
}

impl fmt::Display for SetValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetValue::Literal(l) => write!(f, "{l}"),
            SetValue::Ident(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_statement;

    /// Parse, render, re-parse: the ASTs must match.
    fn round_trip(src: &str) {
        let first = parse_statement(src).unwrap();
        let rendered = first.to_string();
        let second = parse_statement(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
        assert_eq!(first, second, "round trip changed the AST for {src:?}\nrendered: {rendered}");
    }

    #[test]
    fn round_trips_paper_queries() {
        round_trip("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)");
        round_trip(
            "SELECT p1.firstName || ' ' || p1.lastName AS person1, CHEAPEST SUM(1) AS distance \
             FROM persons p1, persons p2 \
             WHERE p1.id = ? AND p2.id = ? AND p1.id REACHES p2.id OVER friends EDGE (src, dst)",
        );
        round_trip(
            "WITH friends1 AS (SELECT * FROM friends WHERE creationDate < '2011-01-01') \
             SELECT firstName || ' ' || lastName AS person, \
             CHEAPEST SUM(f: CAST(weight * 2 AS INTEGER)) AS (cost, path) \
             FROM persons WHERE ? REACHES id OVER friends1 f EDGE (person1, person2)",
        );
        round_trip(
            "SELECT T.X, T.cost, R.S FROM (SELECT 1 AS X) T, \
             UNNEST(T.path) WITH ORDINALITY AS R (s, d, ord)",
        );
    }

    #[test]
    fn round_trips_general_sql() {
        round_trip("SELECT 1 + 2 * 3, -x, NOT a, 'it''s', DATE '2010-03-24'");
        round_trip("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 3 OFFSET 1");
        round_trip("SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y CROSS JOIN d");
        round_trip("SELECT CASE WHEN a THEN 1 ELSE 2 END, CASE x WHEN 1 THEN 'a' END FROM t");
        round_trip("SELECT x FROM t WHERE a BETWEEN 1 AND 2 OR b NOT LIKE 'z%' AND c IN (1, 2)");
        round_trip("VALUES (1, 'a'), (2, 'b')");
        round_trip("SELECT 1 UNION ALL SELECT 2 UNION SELECT 3");
        round_trip("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR NOT NULL, c DOUBLE)");
        round_trip("INSERT INTO t (a, b) VALUES (1, 'x')");
        round_trip("UPDATE t SET a = a + 1 WHERE b = 'x'");
        round_trip("DELETE FROM t WHERE a IS NOT NULL");
        round_trip("CREATE GRAPH INDEX gi ON friends EDGE (p1, p2)");
        round_trip("CREATE PATH INDEX pi ON roads EDGE (a, b) WEIGHT len USING LANDMARKS(16)");
        round_trip("CREATE PATH INDEX pi ON friends EDGE (p1, p2) USING LANDMARKS(8)");
        round_trip("CREATE PATH INDEX ci ON roads EDGE (a, b) WEIGHT len USING CONTRACTION");
        round_trip("CREATE PATH INDEX IF NOT EXISTS ci ON roads EDGE (a, b) USING CONTRACTION");
        round_trip("DROP PATH INDEX pi");
        round_trip("DROP PATH INDEX IF EXISTS pi");
        round_trip("SHOW PATH INDEXES");
        round_trip("SELECT DISTINCT a FROM t");
    }

    #[test]
    fn round_trips_session_statements() {
        round_trip("SET trace = off");
        round_trip("SET trace = verbose");
        round_trip("SET row_limit = 1000");
        round_trip("SET row_limit = 0");
        round_trip("SET tag = 'hello'");
        round_trip("SHOW trace");
        round_trip("SHOW ALL");
        round_trip("EXPLAIN ANALYZE SELECT 1");
        round_trip(
            "EXPLAIN ANALYZE SELECT CHEAPEST SUM(1) WHERE ? REACHES ? \
             OVER friends EDGE (src, dst)",
        );
    }
}
