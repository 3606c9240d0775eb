//! The query rewriter.
//!
//! Two rewrite rules reproduce the paper's optimizer behaviour (§3.1):
//!
//! 1. **Filter pushdown through joins** — conjuncts that reference only one
//!    side of a cross product or an inner join move to that side; over a
//!    left outer join only left-side conjuncts move, into the left input.
//!    This prunes the join's input and exposes the shape the next rule
//!    needs (a graph select over a bare cross product).
//! 2. **Graph-join unfolding** — "graph joins are only unfolded in the
//!    query rewriter when it recognizes the sequence of a cross product
//!    plus a graph select": a `GraphSelect` whose input is a cross product,
//!    whose source expression only references the left side and whose
//!    destination only references the right side, becomes a `GraphJoin`
//!    that never materializes the product.
//!
//! Nothing else feeds the rewrite, so a plan is a function of the statement
//! and the table schemas alone. Plans never name an index: a graph
//! operator's edge scan is matched against the index registry each time
//! the operator runs (`IndexRegistry::serve`).

use crate::plan::{BinaryOp, BoundExpr, JoinKind, LogicalPlan};

/// Optimize a plan (applies all rules bottom-up until a fixpoint).
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let mut plan = plan;
    // Two passes reach the fixpoint for the rule set; a third is cheap
    // insurance for nested shapes.
    for _ in 0..3 {
        plan = rewrite(plan);
    }
    plan
}

fn rewrite(plan: LogicalPlan) -> LogicalPlan {
    // Recurse into children first (bottom-up).
    let plan = map_children(plan, rewrite);
    let plan = push_filter_into_join(plan);
    graph_join_unfold(plan)
}

/// Apply `f` to every direct child plan.
fn map_children(plan: LogicalPlan, f: impl Fn(LogicalPlan) -> LogicalPlan + Copy) -> LogicalPlan {
    use LogicalPlan::*;
    match plan {
        SingleRow | Scan { .. } | Values { .. } => plan,
        Filter { input, predicate } => Filter { input: Box::new(f(*input)), predicate },
        Project { input, exprs, schema } => Project { input: Box::new(f(*input)), exprs, schema },
        Join { left, right, kind, on, schema } => {
            Join { left: Box::new(f(*left)), right: Box::new(f(*right)), kind, on, schema }
        }
        GraphSelect { input, edge, src_key, dst_key, source, dest, specs, schema } => GraphSelect {
            input: Box::new(f(*input)),
            edge: Box::new(f(*edge)),
            src_key,
            dst_key,
            source,
            dest,
            specs,
            schema,
        },
        GraphJoin { left, right, edge, src_key, dst_key, source, dest, specs, schema } => {
            GraphJoin {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                edge: Box::new(f(*edge)),
                src_key,
                dst_key,
                source,
                dest,
                specs,
                schema,
            }
        }
        Aggregate { input, group, aggs, schema } => {
            Aggregate { input: Box::new(f(*input)), group, aggs, schema }
        }
        Sort { input, keys } => Sort { input: Box::new(f(*input)), keys },
        Limit { input, limit, offset } => Limit { input: Box::new(f(*input)), limit, offset },
        Distinct { input } => Distinct { input: Box::new(f(*input)) },
        Union { left, right, all } => {
            Union { left: Box::new(f(*left)), right: Box::new(f(*right)), all }
        }
        Unnest { input, path_col, with_ordinality, preserve_empty, schema } => {
            Unnest { input: Box::new(f(*input)), path_col, with_ordinality, preserve_empty, schema }
        }
    }
}

fn conjoin(mut conjuncts: Vec<BoundExpr>) -> Option<BoundExpr> {
    let mut acc = conjuncts.pop()?;
    while let Some(c) = conjuncts.pop() {
        acc = BoundExpr::Binary { left: Box::new(c), op: BinaryOp::And, right: Box::new(acc) };
    }
    Some(acc)
}

/// `Filter(Join(L, R), p)` for a cross product or an inner join: conjuncts
/// of `p` that read only `L` (or only `R`) move below the join, the rest
/// stay above it. Over a left outer join only conjuncts that read `L` move,
/// into `L`: a conjunct on `R` sees the NULL extension above the join (a
/// `WHERE r.x IS NULL` anti-join) and must stay there.
fn push_filter_into_join(plan: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return plan;
    };
    let LogicalPlan::Join { left, right, kind, on, schema } = *input else {
        return LogicalPlan::Filter { input, predicate };
    };
    let n_left = left.schema().len();
    let conjuncts = predicate.conjuncts();
    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        let cols = c.referenced_columns();
        let all_left = cols.iter().all(|&i| i < n_left);
        let all_right = cols.iter().all(|&i| i >= n_left);
        if all_left && !cols.is_empty() {
            left_preds.push(c);
        } else if all_right && kind != JoinKind::LeftOuter {
            right_preds.push(c.remap_columns(&|i| i - n_left));
        } else {
            residual.push(c);
        }
    }
    let filtered = |input: Box<LogicalPlan>, preds| match conjoin(preds) {
        Some(predicate) => Box::new(LogicalPlan::Filter { input, predicate }),
        None => input,
    };
    let join = LogicalPlan::Join {
        left: filtered(left, left_preds),
        right: filtered(right, right_preds),
        kind,
        on,
        schema,
    };
    match conjoin(residual) {
        Some(p) => LogicalPlan::Filter { input: Box::new(join), predicate: p },
        None => join,
    }
}

/// `GraphSelect(CrossJoin(L, R))` with `X ⊆ L` and `Y ⊆ R` becomes
/// `GraphJoin(L, R)`.
fn graph_join_unfold(plan: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::GraphSelect { input, edge, src_key, dst_key, source, dest, specs, schema } =
        plan
    else {
        return plan;
    };
    let LogicalPlan::Join { left, right, kind: JoinKind::Cross, on: None, .. } = *input else {
        return LogicalPlan::GraphSelect {
            input,
            edge,
            src_key,
            dst_key,
            source,
            dest,
            specs,
            schema,
        };
    };
    let n_left = left.schema().len();
    let source_cols = source.referenced_columns();
    let dest_cols = dest.referenced_columns();
    let source_is_left = source_cols.iter().all(|&i| i < n_left);
    let dest_is_right = dest_cols.iter().all(|&i| i >= n_left);
    if !source_is_left || !dest_is_right {
        // Rebuild the original shape.
        let input = LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Cross,
            on: None,
            schema: schema_prefix(&schema, n_left, &edge, &specs),
        };
        return LogicalPlan::GraphSelect {
            input: Box::new(input),
            edge,
            src_key,
            dst_key,
            source,
            dest,
            specs,
            schema,
        };
    }
    let dest = dest.remap_columns(&|i| i - n_left);
    LogicalPlan::GraphJoin { left, right, edge, src_key, dst_key, source, dest, specs, schema }
}

/// Recompute the cross product's schema from the graph select's output
/// schema (input columns precede the appended cost/path columns).
fn schema_prefix(
    out_schema: &crate::plan::PlanSchema,
    _n_left: usize,
    _edge: &LogicalPlan,
    specs: &[crate::plan::CheapestSpec],
) -> crate::plan::PlanSchema {
    let appended: usize = specs.iter().map(|s| 1 + usize::from(s.want_path)).sum();
    let n_input = out_schema.len() - appended;
    crate::plan::PlanSchema::new(out_schema.columns()[..n_input].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanColumn, PlanSchema};
    use gsql_storage::{DataType, Value};

    fn scan(name: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.to_string(),
            schema: PlanSchema::new(
                cols.iter()
                    .map(|c| PlanColumn::new(*c, DataType::Int).with_qualifier(name))
                    .collect(),
            ),
        }
    }

    fn cross(left: LogicalPlan, right: LogicalPlan) -> LogicalPlan {
        let schema = left.schema().concat(right.schema());
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Cross,
            on: None,
            schema,
        }
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column { index: i, ty: DataType::Int }
    }

    fn eq_param(i: usize, p: usize) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(col(i)),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::Param(p)),
        }
    }

    #[test]
    fn filter_pushdown_splits_sides() {
        let plan = LogicalPlan::Filter {
            input: Box::new(cross(scan("a", &["x"]), scan("b", &["y"]))),
            predicate: BoundExpr::Binary {
                left: Box::new(eq_param(0, 0)),
                op: BinaryOp::And,
                right: Box::new(eq_param(1, 1)),
            },
        };
        let optimized = optimize(plan);
        // Both conjuncts must be inside the product now.
        match optimized {
            LogicalPlan::Join { left, right, kind: JoinKind::Cross, .. } => {
                assert!(matches!(*left, LogicalPlan::Filter { .. }));
                match *right {
                    LogicalPlan::Filter { predicate, .. } => {
                        // Rebased to the right side's local ordinal 0.
                        assert_eq!(predicate.referenced_columns(), vec![0]);
                    }
                    other => panic!("expected filter on right side, got {other:?}"),
                }
            }
            other => panic!("expected bare cross join, got {other:?}"),
        }
    }

    fn join(left: LogicalPlan, right: LogicalPlan, kind: JoinKind) -> LogicalPlan {
        let schema = left.schema().concat(right.schema());
        let on =
            BoundExpr::Binary { left: Box::new(col(0)), op: BinaryOp::Eq, right: Box::new(col(2)) };
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            on: Some(on),
            schema,
        }
    }

    fn and(a: BoundExpr, b: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { left: Box::new(a), op: BinaryOp::And, right: Box::new(b) }
    }

    fn is_null(i: usize) -> BoundExpr {
        BoundExpr::IsNull { expr: Box::new(col(i)), negated: false }
    }

    /// The predicate of a `Filter`, panicking on any other node.
    fn filter_predicate(plan: &LogicalPlan) -> &BoundExpr {
        match plan {
            LogicalPlan::Filter { predicate, .. } => predicate,
            other => panic!("expected a filter, got\n{other}"),
        }
    }

    #[test]
    fn inner_join_pushdown_reaches_both_sides() {
        // a(x, y) JOIN b(x, y) ON a.x = b.x WHERE a.y = ?1 AND b.y = ?2
        // AND a.y = b.y: one conjunct per side, one across.
        let across =
            BoundExpr::Binary { left: Box::new(col(1)), op: BinaryOp::Eq, right: Box::new(col(3)) };
        let plan = LogicalPlan::Filter {
            input: Box::new(join(scan("a", &["x", "y"]), scan("b", &["x", "y"]), JoinKind::Inner)),
            predicate: and(and(eq_param(1, 0), eq_param(3, 1)), across),
        };
        let LogicalPlan::Filter { input, predicate } = optimize(plan) else {
            panic!("the cross-side conjunct stays above the join")
        };
        assert_eq!(predicate.referenced_columns(), vec![1, 3]);
        let LogicalPlan::Join { left, right, kind: JoinKind::Inner, on: Some(on), .. } = *input
        else {
            panic!("expected the inner join under the residual filter")
        };
        assert_eq!(on.referenced_columns(), vec![0, 2], "the join condition is untouched");
        assert_eq!(filter_predicate(&left).referenced_columns(), vec![1]);
        // Rebased to the right side's own ordinal 1.
        assert_eq!(filter_predicate(&right).referenced_columns(), vec![1]);
    }

    #[test]
    fn left_only_conjunct_moves_into_a_left_join() {
        let plan = LogicalPlan::Filter {
            input: Box::new(join(
                scan("a", &["x", "y"]),
                scan("b", &["x", "y"]),
                JoinKind::LeftOuter,
            )),
            predicate: eq_param(1, 0),
        };
        match optimize(plan) {
            LogicalPlan::Join { left, right, kind: JoinKind::LeftOuter, .. } => {
                assert_eq!(filter_predicate(&left).referenced_columns(), vec![1]);
                assert!(matches!(*right, LogicalPlan::Scan { .. }), "right input untouched");
            }
            other => panic!("expected a bare left join, got\n{other}"),
        }
    }

    #[test]
    fn right_side_is_null_stays_above_a_left_join() {
        // WHERE b.y IS NULL AND a.y = ?1: the anti-join conjunct reads the
        // NULL extension, so only the left conjunct may move.
        let plan = LogicalPlan::Filter {
            input: Box::new(join(
                scan("a", &["x", "y"]),
                scan("b", &["x", "y"]),
                JoinKind::LeftOuter,
            )),
            predicate: and(is_null(3), eq_param(1, 0)),
        };
        let LogicalPlan::Filter { input, predicate } = optimize(plan) else {
            panic!("`b.y IS NULL` must stay above the left join")
        };
        assert_eq!(predicate, is_null(3));
        match *input {
            LogicalPlan::Join { left, right, kind: JoinKind::LeftOuter, .. } => {
                assert_eq!(filter_predicate(&left).referenced_columns(), vec![1]);
                assert!(matches!(*right, LogicalPlan::Scan { .. }), "right input untouched");
            }
            other => panic!("expected the left join under the filter, got\n{other}"),
        }
    }

    #[test]
    fn graph_select_over_cross_becomes_graph_join() {
        let left = scan("p1", &["id"]);
        let right = scan("p2", &["id"]);
        let edge = scan("friends", &["src", "dst"]);
        let mut schema = left.schema().concat(right.schema());
        schema.push(PlanColumn::new("cost", DataType::Int));
        let plan = LogicalPlan::GraphSelect {
            input: Box::new(cross(left, right)),
            edge: Box::new(edge),
            src_key: 0,
            dst_key: 1,
            source: col(0),
            dest: col(1),
            specs: vec![crate::plan::CheapestSpec {
                weight: BoundExpr::Literal(Value::Int(1)),
                weight_ty: DataType::Int,
                want_path: false,
                cost_name: "cost".into(),
                path_name: String::new(),
            }],
            schema,
        };
        let optimized = optimize(plan);
        match optimized {
            LogicalPlan::GraphJoin { source, dest, .. } => {
                assert_eq!(source.referenced_columns(), vec![0]);
                // dest was rebased onto the right schema.
                assert_eq!(dest.referenced_columns(), vec![0]);
            }
            other => panic!("expected GraphJoin, got {other:?}"),
        }
    }

    #[test]
    fn graph_select_with_both_sides_in_source_stays() {
        let left = scan("p1", &["id"]);
        let right = scan("p2", &["id"]);
        let edge = scan("friends", &["src", "dst"]);
        let schema = left.schema().concat(right.schema());
        // source references column 1 (the right side): no unfolding.
        let plan = LogicalPlan::GraphSelect {
            input: Box::new(cross(left, right)),
            edge: Box::new(edge),
            src_key: 0,
            dst_key: 1,
            source: col(1),
            dest: col(1),
            specs: vec![],
            schema,
        };
        assert!(matches!(optimize(plan), LogicalPlan::GraphSelect { .. }));
    }

    #[test]
    fn pushdown_then_unfold_compose() {
        // Filter(Cross) under a GraphSelect: after pushdown the unfold must
        // still fire — the A.2-style plan shape.
        let left = scan("p1", &["id"]);
        let right = scan("p2", &["id"]);
        let edge = scan("friends", &["src", "dst"]);
        let cross_schema = left.schema().concat(right.schema());
        let filtered = LogicalPlan::Filter {
            input: Box::new(cross(left, right)),
            predicate: BoundExpr::Binary {
                left: Box::new(eq_param(0, 0)),
                op: BinaryOp::And,
                right: Box::new(eq_param(1, 1)),
            },
        };
        let plan = LogicalPlan::GraphSelect {
            input: Box::new(filtered),
            edge: Box::new(edge),
            src_key: 0,
            dst_key: 1,
            source: col(0),
            dest: col(1),
            specs: vec![],
            schema: cross_schema,
        };
        let optimized = optimize(plan);
        match optimized {
            LogicalPlan::GraphJoin { left, right, .. } => {
                assert!(matches!(*left, LogicalPlan::Filter { .. }));
                assert!(matches!(*right, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected GraphJoin over filtered scans, got\n{other}"),
        }
    }
}
