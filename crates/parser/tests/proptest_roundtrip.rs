//! Generated-input round-trip tests: random ASTs are rendered to SQL,
//! re-parsed, and must come back structurally equal. This pins down both
//! the renderer (canonical parenthesization) and the parser's precedence
//! rules. The lexer and parser must also be total on arbitrary input.
//! Each property draws 192 cases from a fixed seed with the workspace's
//! offline `rand` shim, so it runs in the default test suite.

use gsql_parser::ast::*;
use gsql_parser::parse_statement;
use rand::prelude::*;

/// Cases per property.
const CASES: u64 = 192;

/// Run `check` on [`CASES`] generators seeded from `seed`.
fn for_cases(seed: u64, mut check: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        check(&mut StdRng::seed_from_u64(seed.wrapping_mul(1_000_003) + case));
    }
}

fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())].clone()
}

/// Between `min` and `max` characters drawn from `alphabet`.
fn string_of(rng: &mut StdRng, alphabet: &[char], min: usize, max: usize) -> String {
    (0..rng.gen_range(min..=max)).map(|_| pick(rng, alphabet)).collect()
}

/// An identifier that is never a keyword: `[a-z][a-z0-9_]{0,6}xx`.
fn ident(rng: &mut StdRng) -> String {
    let lower: Vec<char> = ('a'..='z').collect();
    let rest: Vec<char> = lower.iter().copied().chain('0'..='9').chain(['_']).collect();
    format!("{}{}xx", pick(rng, &lower), string_of(rng, &rest, 0, 6))
}

fn literal(rng: &mut StdRng) -> Literal {
    match rng.gen_range(0..6) {
        0 => Literal::Null,
        1 => Literal::Int(rng.gen_range(i32::MIN..=i32::MAX) as i64),
        // Finite doubles with a short decimal representation survive
        // display->parse exactly.
        2 => Literal::Float(rng.gen_range(-1000..1000) as f64 / rng.gen_range(1..100) as f64),
        3 => {
            let alphabet: Vec<char> =
                ('a'..='z').chain('A'..='Z').chain('0'..='9').chain([' ', '\'']).collect();
            Literal::String(string_of(rng, &alphabet, 0, 12))
        }
        4 => Literal::Bool(rng.gen_bool(0.5)),
        _ => Literal::Date(format!(
            "{:04}-{:02}-{:02}",
            rng.gen_range(1980..2030),
            rng.gen_range(1..13),
            rng.gen_range(1..29)
        )),
    }
}

/// A random expression at most `depth` operators deep.
fn arb_expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.25) {
        return match rng.gen_range(0..3) {
            0 => Expr::Literal(literal(rng)),
            1 => Expr::Column { table: None, name: ident(rng) },
            _ => Expr::Column { table: Some(ident(rng)), name: ident(rng) },
        };
    }
    let sub = |rng: &mut StdRng| Box::new(arb_expr(rng, depth - 1));
    let list = |rng: &mut StdRng, min: usize, max: usize| -> Vec<Expr> {
        (0..rng.gen_range(min..=max)).map(|_| arb_expr(rng, depth - 1)).collect()
    };
    match rng.gen_range(0..10) {
        0 => {
            use BinaryOp::*;
            let ops = [Add, Sub, Mul, Div, Mod, Concat, Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or];
            let op = pick(rng, &ops);
            Expr::Binary { left: sub(rng), op, right: sub(rng) }
        }
        1 => Expr::IsNull { expr: sub(rng), negated: rng.gen_bool(0.5) },
        2 => Expr::InList { expr: sub(rng), list: list(rng, 1, 3), negated: rng.gen_bool(0.5) },
        3 => Expr::Between {
            expr: sub(rng),
            low: sub(rng),
            high: sub(rng),
            negated: rng.gen_bool(0.5),
        },
        4 => Expr::Unary { op: UnaryOp::Not, expr: sub(rng) },
        5 => Expr::Unary { op: UnaryOp::Neg, expr: sub(rng) },
        6 => {
            use TypeName::*;
            let ty = pick(rng, &[Integer, Double, Varchar, Boolean, Date]);
            Expr::Cast { expr: sub(rng), ty }
        }
        7 => Expr::Function { name: ident(rng), args: list(rng, 0, 2), distinct: false },
        _ => Expr::Case {
            operand: rng.gen_bool(0.5).then(|| sub(rng)),
            branches: (0..rng.gen_range(1..=2))
                .map(|_| (arb_expr(rng, depth - 1), arb_expr(rng, depth - 1)))
                .collect(),
            else_expr: rng.gen_bool(0.5).then(|| sub(rng)),
        },
    }
}

/// Normalize the one representational ambiguity: the parser folds `-5`
/// into a negative literal, while a generated AST may hold
/// `Unary(Neg, Literal(5))`. Everything else must match exactly.
fn normalize(e: &Expr) -> Expr {
    match e {
        Expr::Unary { op: UnaryOp::Neg, expr } => match normalize(expr) {
            Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(-v)),
            Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
            inner => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) },
        },
        Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: Box::new(normalize(expr)) },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(normalize(left)),
            op: *op,
            right: Box::new(normalize(right)),
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(normalize(expr)), negated: *negated }
        }
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(normalize(expr)),
            list: list.iter().map(normalize).collect(),
            negated: *negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(normalize(expr)),
            low: Box::new(normalize(low)),
            high: Box::new(normalize(high)),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(normalize(expr)),
            pattern: Box::new(normalize(pattern)),
            negated: *negated,
        },
        Expr::Case { operand, branches, else_expr } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(normalize(o))),
            branches: branches.iter().map(|(w, t)| (normalize(w), normalize(t))).collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(normalize(e))),
        },
        Expr::Cast { expr, ty } => Expr::Cast { expr: Box::new(normalize(expr)), ty: *ty },
        Expr::Function { name, args, distinct } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(normalize).collect(),
            distinct: *distinct,
        },
        Expr::Reaches(r) => Expr::Reaches(Box::new(ReachesPredicate {
            source: normalize(&r.source),
            dest: normalize(&r.dest),
            edge_table: r.edge_table.clone(),
            alias: r.alias.clone(),
            src_col: r.src_col.clone(),
            dst_col: r.dst_col.clone(),
        })),
        other => other.clone(),
    }
}

fn normalize_stmt(stmt: &Statement) -> Statement {
    // Only the query shapes used in this test file need normalization.
    let Statement::Query(q) = stmt else { return stmt.clone() };
    let body = match &q.body {
        SetExpr::Select(s) => SetExpr::Select(Box::new(Select {
            distinct: s.distinct,
            items: s
                .items
                .iter()
                .map(|it| match it {
                    SelectItem::Expr { expr, alias } => {
                        SelectItem::Expr { expr: normalize(expr), alias: alias.clone() }
                    }
                    SelectItem::CheapestSum { binding, weight, aliases } => {
                        SelectItem::CheapestSum {
                            binding: binding.clone(),
                            weight: normalize(weight),
                            aliases: aliases.clone(),
                        }
                    }
                    other => other.clone(),
                })
                .collect(),
            from: s.from.clone(),
            where_clause: s.where_clause.as_ref().map(normalize),
            group_by: s.group_by.iter().map(normalize).collect(),
            having: s.having.as_ref().map(normalize),
        })),
        other => other.clone(),
    };
    Statement::Query(Query {
        ctes: q.ctes.clone(),
        body,
        order_by: q
            .order_by
            .iter()
            .map(|o| OrderItem { expr: normalize(&o.expr), asc: o.asc })
            .collect(),
        limit: q.limit.as_ref().map(normalize),
        offset: q.offset.as_ref().map(normalize),
    })
}

fn assert_round_trip(stmt: &Statement) {
    let rendered = stmt.to_string();
    let reparsed = parse_statement(&rendered)
        .unwrap_or_else(|e| panic!("re-parse failed: {e}\nrendered: {rendered}"));
    assert_eq!(normalize_stmt(stmt), normalize_stmt(&reparsed), "rendered: {rendered}");
}

/// A `SELECT` of `items` with an optional `WHERE`, nothing else.
fn select(items: Vec<SelectItem>, where_clause: Option<Expr>) -> Statement {
    Statement::Query(Query {
        ctes: vec![],
        body: SetExpr::Select(Box::new(Select {
            distinct: false,
            items,
            from: vec![],
            where_clause,
            group_by: vec![],
            having: None,
        })),
        order_by: vec![],
        limit: None,
        offset: None,
    })
}

#[test]
fn expressions_round_trip() {
    for_cases(1, |rng| {
        let expr = arb_expr(rng, 4);
        assert_round_trip(&select(vec![SelectItem::Expr { expr, alias: None }], None));
    });
}

#[test]
fn where_and_reaches_round_trip() {
    for_cases(2, |rng| {
        let alias = rng.gen_bool(0.5).then(|| "tv".to_string());
        let item = SelectItem::CheapestSum {
            binding: alias.clone(),
            weight: arb_expr(rng, 4),
            aliases: CheapestAlias::CostAndPath("c".into(), "p".into()),
        };
        let reaches = Expr::Reaches(Box::new(ReachesPredicate {
            source: Expr::Column { table: None, name: ident(rng) },
            dest: Expr::Column { table: None, name: ident(rng) },
            edge_table: TableRef::Base { name: ident(rng), alias: None },
            alias,
            src_col: ident(rng),
            dst_col: ident(rng),
        }));
        assert_round_trip(&select(vec![item], Some(reaches)));
    });
}

#[test]
fn order_limit_round_trip() {
    for_cases(3, |rng| {
        let order_by = (0..rng.gen_range(1..4))
            .map(|_| OrderItem {
                expr: Expr::Column { table: None, name: ident(rng) },
                asc: rng.gen_bool(0.5),
            })
            .collect();
        let mut bound =
            || rng.gen_bool(0.5).then(|| Expr::Literal(Literal::Int(rng.gen_range(0..1000))));
        let (limit, offset) = (bound(), bound());
        let stmt = Statement::Query(Query {
            ctes: vec![],
            body: SetExpr::Select(Box::new(Select {
                distinct: true,
                items: vec![SelectItem::Wildcard],
                from: vec![TableRef::Base { name: "txx".into(), alias: None }],
                where_clause: None,
                group_by: vec![],
                having: None,
            })),
            order_by,
            limit,
            offset,
        });
        assert_round_trip(&stmt);
    });
}

/// Up to 60 printable characters, ASCII and multi-byte.
fn arbitrary_text(rng: &mut StdRng) -> String {
    let alphabet: Vec<char> =
        (' '..='~').chain(['é', 'ß', 'Ж', '中', '∑', '😀', '\u{a0}', '\u{2028}']).collect();
    string_of(rng, &alphabet, 0, 60)
}

/// The lexer never panics on arbitrary input and error positions are
/// within the input.
#[test]
fn lexer_total_on_arbitrary_input() {
    for_cases(4, |rng| {
        let src = arbitrary_text(rng);
        match gsql_parser::Lexer::new(&src).tokenize() {
            Ok(tokens) => assert!(!tokens.is_empty(), "{src:?}"),
            Err(e) => assert!(e.line >= 1 && e.column >= 1, "{src:?}: {e}"),
        }
    });
}

/// The parser never panics on arbitrary statement-shaped input.
#[test]
fn parser_total_on_arbitrary_input() {
    for_cases(5, |rng| {
        let keyword = pick(rng, &["", "SELECT", "INSERT", "CREATE"]);
        let space = if rng.gen_bool(0.5) { " " } else { "" };
        let _ = parse_statement(&format!("{keyword}{space}{}", arbitrary_text(rng)));
    });
}
