//! The binder: AST statements → logical plans.
//!
//! The interesting part is the paper's §3.1 semantic phase: every
//! reachability predicate found as a top-level conjunct of `WHERE` becomes a
//! **graph select** operator; `CHEAPEST SUM` projection items attach to the
//! graph select whose tuple variable they name (or to the only one when
//! unbound), each contributing cost (and optionally path) output columns.

use crate::bind::expr::{bind_literal, type_name_to_datatype, ExprBinder};
use crate::bind::scope::Scope;
use crate::context::ExecContext;
use crate::error::{bind_err, Error};
use crate::plan::{
    AggCall, AggFunc, BoundExpr, CheapestSpec, JoinKind, LogicalPlan, PlanColumn, PlanSchema,
    SortKey,
};
use gsql_parser::ast;
use gsql_storage::{Catalog, DataType, Value};

type Result<T> = std::result::Result<T, Error>;

/// One CTE definition visible during binding.
#[derive(Debug, Clone)]
struct CteDef {
    name: String,
    columns: Option<Vec<String>>,
    query: ast::Query,
}

/// Binds parsed queries against a catalog.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    /// Stack of CTE frames; inner queries see outer CTEs.
    cte_frames: Vec<Vec<CteDef>>,
}

impl<'a> Binder<'a> {
    /// Create a binder for one statement execution context.
    pub fn new(ctx: &ExecContext<'a>) -> Binder<'a> {
        Binder::from_catalog(ctx.catalog())
    }

    /// Create a binder over a bare catalog (no session context).
    pub fn from_catalog(catalog: &'a Catalog) -> Binder<'a> {
        Binder { catalog, cte_frames: Vec::new() }
    }

    /// Bind a full query to a logical plan.
    pub fn bind_query(&mut self, q: &ast::Query) -> Result<LogicalPlan> {
        self.cte_frames.push(Vec::new());
        let result = self.bind_query_inner(q);
        self.cte_frames.pop();
        result
    }

    fn bind_query_inner(&mut self, q: &ast::Query) -> Result<LogicalPlan> {
        for cte in &q.ctes {
            let frame = self.cte_frames.last_mut().expect("frame pushed");
            if frame.iter().any(|c| c.name.eq_ignore_ascii_case(&cte.name)) {
                return Err(bind_err!("duplicate CTE name '{}'", cte.name));
            }
            frame.push(CteDef {
                name: cte.name.clone(),
                columns: cte.columns.clone(),
                query: cte.query.clone(),
            });
        }

        let mut plan = match &q.body {
            ast::SetExpr::Select(select) => {
                return self.bind_select(select, &q.order_by, q.limit.as_ref(), q.offset.as_ref())
            }
            ast::SetExpr::Values(rows) => self.bind_values(rows)?,
            ast::SetExpr::Union { .. } => self.bind_set_tree(&q.body)?,
        };

        // ORDER BY / LIMIT over a non-SELECT body: keys must be output
        // names or ordinals.
        if !q.order_by.is_empty() {
            let scope = Scope::new(plan.schema().clone());
            let mut keys = Vec::new();
            for item in &q.order_by {
                let expr = self.bind_order_key_simple(&scope, &item.expr)?;
                keys.push(SortKey { expr, asc: item.asc });
            }
            plan = LogicalPlan::Sort { input: Box::new(plan), keys };
        }
        plan = self.apply_limit(plan, q.limit.as_ref(), q.offset.as_ref())?;
        Ok(plan)
    }

    fn bind_set_tree(&mut self, body: &ast::SetExpr) -> Result<LogicalPlan> {
        match body {
            ast::SetExpr::Select(select) => self.bind_select(select, &[], None, None),
            ast::SetExpr::Values(rows) => self.bind_values(rows),
            ast::SetExpr::Union { left, right, all } => {
                let l = self.bind_set_tree(left)?;
                let r = self.bind_set_tree(right)?;
                if l.schema().len() != r.schema().len() {
                    return Err(bind_err!(
                        "UNION inputs have different arities: {} vs {}",
                        l.schema().len(),
                        r.schema().len()
                    ));
                }
                let mut unified = Vec::with_capacity(l.schema().len());
                for (lc, rc) in l.schema().columns().iter().zip(r.schema().columns()) {
                    let ty = if lc.ty == rc.ty {
                        lc.ty
                    } else {
                        DataType::numeric_supertype(lc.ty, rc.ty).ok_or_else(|| {
                            bind_err!(
                                "UNION column '{}' has incompatible types {} and {}",
                                lc.name,
                                lc.ty,
                                rc.ty
                            )
                        })?
                    };
                    unified.push(ty);
                }
                // Widen whichever side needs it so the union's schema is
                // accurate (e.g. INT ∪ DOUBLE yields DOUBLE on both sides).
                let l = widen_to(l, &unified);
                let r = widen_to(r, &unified);
                // The plan-level Union is always a bag union; UNION
                // (distinct) adds a Distinct on top.
                let plan = LogicalPlan::Union { left: Box::new(l), right: Box::new(r), all: true };
                Ok(if *all { plan } else { LogicalPlan::Distinct { input: Box::new(plan) } })
            }
        }
    }

    fn bind_values(&mut self, rows: &[Vec<ast::Expr>]) -> Result<LogicalPlan> {
        if rows.is_empty() {
            return Err(bind_err!("VALUES requires at least one row"));
        }
        let arity = rows[0].len();
        let empty = Scope::empty();
        let binder = ExprBinder::new(&empty);
        let mut bound_rows = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != arity {
                return Err(bind_err!(
                    "VALUES rows have inconsistent arities: {} vs {arity}",
                    row.len()
                ));
            }
            bound_rows.push(row.iter().map(|e| binder.bind(e)).collect::<Result<Vec<_>>>()?);
        }
        // Infer per-position types from the first row that knows them.
        let mut schema = PlanSchema::default();
        for i in 0..arity {
            let mut ty = None;
            for row in &bound_rows {
                if let Some(t) = row[i].data_type() {
                    ty = Some(match ty {
                        Some(prev) if prev == t => prev,
                        Some(prev) => DataType::numeric_supertype(prev, t).ok_or_else(|| {
                            bind_err!("VALUES column {} mixes types {prev} and {t}", i + 1)
                        })?,
                        None => t,
                    });
                }
            }
            schema
                .push(PlanColumn::new(format!("column{}", i + 1), ty.unwrap_or(DataType::Varchar)));
        }
        Ok(LogicalPlan::Values { rows: bound_rows, schema })
    }

    // -------------------------------------------------------------- FROM

    fn resolve_cte(&self, name: &str) -> Option<(usize, usize)> {
        for (fi, frame) in self.cte_frames.iter().enumerate().rev() {
            if let Some(ci) = frame.iter().position(|c| c.name.eq_ignore_ascii_case(name)) {
                return Some((fi, ci));
            }
        }
        None
    }

    fn bind_table_ref(&mut self, table: &ast::TableRef) -> Result<(LogicalPlan, Scope)> {
        match table {
            ast::TableRef::Base { name, alias } => {
                if let Some((fi, ci)) = self.resolve_cte(name) {
                    let def = self.cte_frames[fi][ci].clone();
                    // Bind the CTE body with only the frames visible at its
                    // definition point (plus earlier entries of its own
                    // frame), which rules out self-recursion.
                    let saved: Vec<Vec<CteDef>> = self.cte_frames.drain(fi + 1..).collect();
                    let tail: Vec<CteDef> = self.cte_frames[fi].drain(ci..).collect();
                    let plan = self.bind_query(&def.query);
                    self.cte_frames[fi].extend(tail);
                    self.cte_frames.extend(saved);
                    let plan = plan?;
                    let qualifier = alias.clone().unwrap_or_else(|| def.name.clone());
                    let scope = requalify(plan.schema(), &qualifier, def.columns.as_deref())?;
                    return Ok((plan, scope));
                }
                let entry = self.catalog.entry(name).map_err(Error::Storage)?;
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                let mut schema = PlanSchema::default();
                for def in entry.table.schema().columns() {
                    schema.push(PlanColumn {
                        qualifier: Some(qualifier.clone()),
                        name: def.name.clone(),
                        ty: def.ty,
                        nullable: def.nullable,
                        nested: None,
                    });
                }
                let plan = LogicalPlan::Scan { table: name.clone(), schema: schema.clone() };
                Ok((plan, Scope::new(schema)))
            }
            ast::TableRef::Derived { query, alias } => {
                let plan = self.bind_query(query)?;
                let scope = requalify(plan.schema(), alias, None)?;
                Ok((plan, scope))
            }
            ast::TableRef::Join { left, right, kind, on } => {
                // LEFT JOIN UNNEST(...) is the paper's mechanism to keep
                // rows whose path is empty.
                if let ast::TableRef::Unnest { expr, with_ordinality, alias, column_aliases } =
                    right.as_ref()
                {
                    if let Some(on_expr) = on {
                        if !matches!(on_expr, ast::Expr::Literal(ast::Literal::Bool(true))) {
                            return Err(bind_err!(
                                "a join with UNNEST only supports ON TRUE (it is lateral)"
                            ));
                        }
                    }
                    let (lp, ls) = self.bind_table_ref(left)?;
                    let preserve_empty = *kind == ast::JoinKind::LeftOuter;
                    return self.bind_unnest(
                        lp,
                        ls,
                        expr,
                        *with_ordinality,
                        alias.as_deref(),
                        column_aliases.as_deref(),
                        preserve_empty,
                    );
                }
                let (lp, ls) = self.bind_table_ref(left)?;
                let (rp, rs) = self.bind_table_ref(right)?;
                let mut combined = ls.concat(&rs);
                let kind = match kind {
                    ast::JoinKind::Inner => JoinKind::Inner,
                    ast::JoinKind::LeftOuter => JoinKind::LeftOuter,
                    ast::JoinKind::Cross => JoinKind::Cross,
                };
                if kind == JoinKind::LeftOuter {
                    // Right side becomes nullable.
                    let n_left = ls.len();
                    let mut cols = combined.schema.columns().to_vec();
                    for c in cols.iter_mut().skip(n_left) {
                        c.nullable = true;
                    }
                    combined = Scope::new(PlanSchema::new(cols));
                }
                let on = match on {
                    Some(e) => {
                        let bound = ExprBinder::new(&combined).bind(e)?;
                        Some(bound)
                    }
                    None => {
                        if kind != JoinKind::Cross {
                            return Err(bind_err!("JOIN requires an ON condition"));
                        }
                        None
                    }
                };
                let plan = LogicalPlan::Join {
                    left: Box::new(lp),
                    right: Box::new(rp),
                    kind,
                    on,
                    schema: combined.schema.clone(),
                };
                Ok((plan, combined))
            }
            ast::TableRef::Unnest { .. } => {
                Err(bind_err!("UNNEST must follow another FROM item (it is a lateral operator)"))
            }
        }
    }

    /// Bind `UNNEST(path_expr)` laterally against `input`.
    #[allow(clippy::too_many_arguments)]
    fn bind_unnest(
        &mut self,
        input: LogicalPlan,
        input_scope: Scope,
        expr: &ast::Expr,
        with_ordinality: bool,
        alias: Option<&str>,
        column_aliases: Option<&[String]>,
        preserve_empty: bool,
    ) -> Result<(LogicalPlan, Scope)> {
        let bound = ExprBinder::new(&input_scope).bind(expr)?;
        let BoundExpr::Column { index: path_col, ty } = bound else {
            return Err(bind_err!("UNNEST takes a nested-table (PATH) column reference"));
        };
        if ty != DataType::Path {
            return Err(bind_err!("UNNEST argument must have type PATH, found {ty}"));
        }
        let nested = input_scope
            .column(path_col)
            .nested
            .clone()
            .ok_or_else(|| bind_err!("internal: PATH column lacks a nested schema"))?;

        let n_nested = nested.len();
        let expected_aliases = n_nested + usize::from(with_ordinality);
        if let Some(aliases) = column_aliases {
            if aliases.len() != n_nested && aliases.len() != expected_aliases {
                return Err(bind_err!(
                    "UNNEST column alias list has {} names, expected {n_nested}{}",
                    aliases.len(),
                    if with_ordinality { format!(" or {expected_aliases}") } else { String::new() }
                ));
            }
        }

        let mut schema = input_scope.schema.clone();
        for (i, def) in nested.columns().iter().enumerate() {
            let name =
                column_aliases.and_then(|a| a.get(i)).cloned().unwrap_or_else(|| def.name.clone());
            schema.push(PlanColumn {
                qualifier: alias.map(str::to_string),
                name,
                ty: def.ty,
                nullable: def.nullable || preserve_empty,
                nested: None,
            });
        }
        if with_ordinality {
            let name = column_aliases
                .and_then(|a| a.get(n_nested))
                .cloned()
                .unwrap_or_else(|| "ordinality".to_string());
            schema.push(PlanColumn {
                qualifier: alias.map(str::to_string),
                name,
                ty: DataType::Int,
                nullable: preserve_empty,
                nested: None,
            });
        }
        let plan = LogicalPlan::Unnest {
            input: Box::new(input),
            path_col,
            with_ordinality,
            preserve_empty,
            schema: schema.clone(),
        };
        Ok((plan, Scope::new(schema)))
    }

    fn bind_from_list(&mut self, from: &[ast::TableRef]) -> Result<(LogicalPlan, Scope)> {
        if from.is_empty() {
            return Ok((LogicalPlan::SingleRow, Scope::empty()));
        }
        let mut acc: Option<(LogicalPlan, Scope)> = None;
        for item in from {
            match item {
                ast::TableRef::Unnest { expr, with_ordinality, alias, column_aliases } => {
                    // Comma-style lateral inner join (the paper's shortest
                    // form of lateral join).
                    let (plan, scope) = match acc.take() {
                        Some(p) => p,
                        None => (LogicalPlan::SingleRow, Scope::empty()),
                    };
                    acc = Some(self.bind_unnest(
                        plan,
                        scope,
                        expr,
                        *with_ordinality,
                        alias.as_deref(),
                        column_aliases.as_deref(),
                        false,
                    )?);
                }
                other => {
                    let (rp, rs) = self.bind_table_ref(other)?;
                    acc = Some(match acc.take() {
                        None => (rp, rs),
                        Some((lp, ls)) => {
                            let combined = ls.concat(&rs);
                            let plan = LogicalPlan::Join {
                                left: Box::new(lp),
                                right: Box::new(rp),
                                kind: JoinKind::Cross,
                                on: None,
                                schema: combined.schema.clone(),
                            };
                            (plan, combined)
                        }
                    });
                }
            }
        }
        Ok(acc.expect("from list non-empty"))
    }

    // ------------------------------------------------------------ SELECT

    #[allow(clippy::too_many_arguments)]
    fn bind_select(
        &mut self,
        select: &ast::Select,
        order_by: &[ast::OrderItem],
        limit: Option<&ast::Expr>,
        offset: Option<&ast::Expr>,
    ) -> Result<LogicalPlan> {
        let (mut plan, from_scope) = self.bind_from_list(&select.from)?;
        let n_from_cols = from_scope.len();

        // Split WHERE into reachability predicates and ordinary conjuncts.
        let mut reaches: Vec<&ast::ReachesPredicate> = Vec::new();
        let mut others: Vec<&ast::Expr> = Vec::new();
        if let Some(w) = &select.where_clause {
            collect_conjuncts(w, &mut reaches, &mut others);
        }
        if !others.is_empty() {
            let binder = ExprBinder::new(&from_scope);
            let mut predicate: Option<BoundExpr> = None;
            for c in others {
                let b = binder.bind(c)?;
                if let Some(t) = b.data_type() {
                    if t != DataType::Bool {
                        return Err(bind_err!("WHERE clause must be BOOLEAN, found {t}"));
                    }
                }
                predicate = Some(match predicate {
                    None => b,
                    Some(p) => BoundExpr::Binary {
                        left: Box::new(p),
                        op: crate::plan::BinaryOp::And,
                        right: Box::new(b),
                    },
                });
            }
            if let Some(p) = predicate {
                plan = LogicalPlan::Filter { input: Box::new(plan), predicate: p };
            }
        }

        // Cheapest-sum items: (item index) -> (reaches index it binds to).
        let cheapest_items: Vec<(usize, &ast::SelectItem)> = select
            .items
            .iter()
            .enumerate()
            .filter(|(_, it)| matches!(it, ast::SelectItem::CheapestSum { .. }))
            .collect();
        if !cheapest_items.is_empty() && reaches.is_empty() {
            return Err(bind_err!("CHEAPEST SUM requires a REACHES predicate in the WHERE clause"));
        }

        // Map from select-item index to (cost ordinal, Option<path ordinal>).
        let mut cheapest_outputs: std::collections::HashMap<usize, (usize, Option<usize>)> =
            std::collections::HashMap::new();

        let mut scope = from_scope.clone();
        for (ri, r) in reaches.iter().enumerate() {
            // --- the edge table E ---
            let (edge_plan, mut edge_scope) = self.bind_table_ref(&r.edge_table)?;
            if let Some(alias) = &r.alias {
                edge_scope = requalify(&edge_scope.schema, alias, None)?;
            }
            let src_key = edge_scope.resolve(None, &r.src_col)?;
            let dst_key = edge_scope.resolve(None, &r.dst_col)?;
            let s_ty = edge_key_type(edge_scope.column(src_key).ty, edge_scope.column(dst_key).ty)?;

            // --- X and Y over the current scope ---
            let binder = ExprBinder::new(&scope);
            let source = binder.bind(&r.source)?;
            let dest = binder.bind(&r.dest)?;
            for (side, what) in [(&source, "source"), (&dest, "destination")] {
                if let Some(t) = side.data_type() {
                    if t != s_ty {
                        return Err(bind_err!(
                            "REACHES {what} has type {t} but the EDGE key type is {s_ty}"
                        ));
                    }
                }
            }

            // --- CHEAPEST SUM specs bound to this predicate ---
            let mut specs = Vec::new();
            let mut spec_outputs = Vec::new();
            for (item_idx, item) in &cheapest_items {
                let ast::SelectItem::CheapestSum { binding, weight, aliases } = item else {
                    unreachable!("filtered above");
                };
                let matches_this = match binding {
                    Some(b) => r.alias.as_deref().is_some_and(|a| a.eq_ignore_ascii_case(b)),
                    None => reaches.len() == 1,
                };
                if !matches_this {
                    continue;
                }
                let edge_binder = ExprBinder::new(&edge_scope);
                let weight_expr = edge_binder.bind(weight)?;
                let weight_ty = weight_expr.data_type().ok_or_else(|| {
                    bind_err!(
                        "the type of a CHEAPEST SUM weight must be known at compile time; \
                         add an explicit CAST"
                    )
                })?;
                if !weight_ty.is_numeric() {
                    return Err(bind_err!(
                        "CHEAPEST SUM weight must be numeric, found {weight_ty}"
                    ));
                }
                let (cost_name, path_name, want_path) = match aliases {
                    ast::CheapestAlias::None => ("cheapest_sum".to_string(), String::new(), false),
                    ast::CheapestAlias::Cost(c) => (c.clone(), String::new(), false),
                    ast::CheapestAlias::CostAndPath(c, p) => (c.clone(), p.clone(), true),
                };
                specs.push(CheapestSpec {
                    weight: weight_expr,
                    weight_ty,
                    want_path,
                    cost_name,
                    path_name,
                });
                spec_outputs.push(*item_idx);
            }

            // --- output schema: input ++ cost/path per spec ---
            let mut out_schema = scope.schema.clone();
            let edge_storage_schema = edge_scope.schema.to_storage_schema();
            for (spec, item_idx) in specs.iter().zip(&spec_outputs) {
                let cost_ord = out_schema.push(PlanColumn {
                    qualifier: None,
                    name: spec.cost_name.clone(),
                    ty: spec.weight_ty,
                    nullable: false,
                    nested: None,
                });
                let path_ord = if spec.want_path {
                    Some(out_schema.push(PlanColumn {
                        qualifier: None,
                        name: spec.path_name.clone(),
                        ty: DataType::Path,
                        nullable: false,
                        nested: Some(edge_storage_schema.clone()),
                    }))
                } else {
                    None
                };
                cheapest_outputs.insert(*item_idx, (cost_ord, path_ord));
            }

            plan = LogicalPlan::GraphSelect {
                input: Box::new(plan),
                edge: Box::new(edge_plan),
                src_key,
                dst_key,
                source,
                dest,
                specs,
                schema: out_schema.clone(),
            };
            scope = Scope::new(out_schema);
            let _ = ri;
        }

        // Any CHEAPEST SUM item that did not find its predicate?
        for (item_idx, item) in &cheapest_items {
            if !cheapest_outputs.contains_key(item_idx) {
                let ast::SelectItem::CheapestSum { binding, .. } = item else { unreachable!() };
                return Err(match binding {
                    Some(b) => bind_err!(
                        "CHEAPEST SUM binding '{b}' does not name the tuple variable of any \
                         REACHES predicate"
                    ),
                    None => bind_err!(
                        "CHEAPEST SUM must name a tuple variable when multiple REACHES \
                         predicates are present"
                    ),
                });
            }
        }

        // ---------------------------------------------------- aggregation
        let has_aggregates = !select.group_by.is_empty()
            || select.having.is_some()
            || select.items.iter().any(|it| match it {
                ast::SelectItem::Expr { expr, .. } => contains_aggregate(expr),
                _ => false,
            });

        if has_aggregates && !cheapest_items.is_empty() {
            return Err(Error::Unsupported(
                "mixing CHEAPEST SUM with aggregation in one SELECT block; \
                 compute the shortest path in a derived table and aggregate outside"
                    .to_string(),
            ));
        }

        let (mut plan, mut scope, agg_info) = if has_aggregates {
            let (p, s, info) = self.plan_aggregate(plan, &scope, select)?;
            (p, s, Some(info))
        } else {
            (plan, scope, None)
        };

        // HAVING (bound over the aggregate output).
        if let Some(having) = &select.having {
            let info = agg_info
                .as_ref()
                .ok_or_else(|| bind_err!("HAVING requires GROUP BY or aggregates"))?;
            let predicate = self.bind_with_agg(having, &scope, info)?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
        }

        // ---------------------------------------------------- projection
        let mut exprs: Vec<BoundExpr> = Vec::new();
        let mut out_schema = PlanSchema::default();
        let mut item_asts: Vec<Option<ast::Expr>> = Vec::new(); // for ORDER BY matching
        for (item_idx, item) in select.items.iter().enumerate() {
            match item {
                ast::SelectItem::Wildcard => {
                    if agg_info.is_some() {
                        return Err(bind_err!("SELECT * cannot be combined with GROUP BY"));
                    }
                    if n_from_cols == 0 {
                        return Err(bind_err!("SELECT * requires a FROM clause"));
                    }
                    for i in 0..n_from_cols {
                        exprs.push(BoundExpr::Column { index: i, ty: scope.column(i).ty });
                        out_schema.push(scope.column(i).clone());
                        item_asts.push(None);
                    }
                }
                ast::SelectItem::QualifiedWildcard(q) => {
                    if agg_info.is_some() {
                        return Err(bind_err!("SELECT t.* cannot be combined with GROUP BY"));
                    }
                    let cols = scope.columns_of(q);
                    let cols: Vec<usize> = cols.into_iter().filter(|&i| i < n_from_cols).collect();
                    if cols.is_empty() {
                        return Err(bind_err!("no table '{q}' in FROM clause"));
                    }
                    for i in cols {
                        exprs.push(BoundExpr::Column { index: i, ty: scope.column(i).ty });
                        out_schema.push(scope.column(i).clone());
                        item_asts.push(None);
                    }
                }
                ast::SelectItem::Expr { expr, alias } => {
                    let bound = match &agg_info {
                        Some(info) => self.bind_with_agg(expr, &scope, info)?,
                        None => ExprBinder::new(&scope).bind(expr)?,
                    };
                    let col = output_column(&bound, expr, alias.as_deref(), &scope);
                    exprs.push(bound);
                    out_schema.push(col);
                    item_asts.push(Some(expr.clone()));
                }
                ast::SelectItem::CheapestSum { .. } => {
                    let (cost_ord, path_ord) = cheapest_outputs[&item_idx];
                    exprs
                        .push(BoundExpr::Column { index: cost_ord, ty: scope.column(cost_ord).ty });
                    out_schema.push(scope.column(cost_ord).clone());
                    item_asts.push(None);
                    if let Some(p) = path_ord {
                        exprs.push(BoundExpr::Column { index: p, ty: DataType::Path });
                        out_schema.push(scope.column(p).clone());
                        item_asts.push(None);
                    }
                }
            }
        }

        // ORDER BY binding: output name → projected AST equality → hidden
        // column over the pre-projection scope.
        let mut sort_keys: Vec<(usize, bool)> = Vec::new(); // output ordinal keyed
        let mut hidden: Vec<BoundExpr> = Vec::new();
        for item in order_by {
            let ord = self.resolve_order_key(
                &item.expr,
                &out_schema,
                &item_asts,
                &scope,
                agg_info.as_ref(),
            )?;
            match ord {
                OrderTarget::Output(i) => sort_keys.push((i, item.asc)),
                OrderTarget::Hidden(expr) => {
                    if select.distinct {
                        return Err(bind_err!(
                            "ORDER BY expressions must appear in the select list when \
                             DISTINCT is used"
                        ));
                    }
                    let idx = exprs.len() + hidden.len();
                    sort_keys.push((idx, item.asc));
                    hidden.push(expr);
                }
            }
        }

        let visible = out_schema.len();
        let mut project_schema = out_schema.clone();
        let mut project_exprs = exprs;
        for (i, h) in hidden.iter().enumerate() {
            let ty = h.data_type().unwrap_or(DataType::Varchar);
            project_schema.push(PlanColumn::new(format!("__sort{i}"), ty));
            project_exprs.push(h.clone());
        }

        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: project_exprs,
            schema: project_schema.clone(),
        };
        scope = Scope::new(project_schema);

        if select.distinct {
            plan = LogicalPlan::Distinct { input: Box::new(plan) };
        }

        if !sort_keys.is_empty() {
            let keys = sort_keys
                .into_iter()
                .map(|(i, asc)| SortKey {
                    expr: BoundExpr::Column { index: i, ty: scope.column(i).ty },
                    asc,
                })
                .collect();
            plan = LogicalPlan::Sort { input: Box::new(plan), keys };
        }

        if !hidden.is_empty() {
            // Strip the hidden sort columns.
            let exprs: Vec<BoundExpr> = (0..visible)
                .map(|i| BoundExpr::Column { index: i, ty: scope.column(i).ty })
                .collect();
            let schema = PlanSchema::new(scope.schema.columns()[..visible].to_vec());
            plan = LogicalPlan::Project { input: Box::new(plan), exprs, schema };
        }

        plan = self.apply_limit(plan, limit, offset)?;
        Ok(plan)
    }

    fn apply_limit(
        &self,
        plan: LogicalPlan,
        limit: Option<&ast::Expr>,
        offset: Option<&ast::Expr>,
    ) -> Result<LogicalPlan> {
        let eval_count = |e: &ast::Expr, what: &str| -> Result<usize> {
            match e {
                ast::Expr::Literal(ast::Literal::Int(v)) if *v >= 0 => Ok(*v as usize),
                _ => Err(bind_err!("{what} must be a non-negative integer literal")),
            }
        };
        let limit = limit.map(|e| eval_count(e, "LIMIT")).transpose()?;
        let offset = offset.map(|e| eval_count(e, "OFFSET")).transpose()?.unwrap_or(0);
        if limit.is_none() && offset == 0 {
            return Ok(plan);
        }
        Ok(LogicalPlan::Limit { input: Box::new(plan), limit, offset })
    }

    // --------------------------------------------------------- aggregates

    fn plan_aggregate(
        &mut self,
        input: LogicalPlan,
        scope: &Scope,
        select: &ast::Select,
    ) -> Result<(LogicalPlan, Scope, AggInfo)> {
        let binder = ExprBinder::new(scope);
        // Bind group keys.
        let mut group_bound = Vec::new();
        for g in &select.group_by {
            group_bound.push(binder.bind(g)?);
        }
        // Collect aggregate calls (textual order, deduplicated).
        let mut agg_asts: Vec<ast::Expr> = Vec::new();
        let mut collect = |e: &ast::Expr| {
            e.visit(&mut |node| {
                if let ast::Expr::Function { name, .. } = node {
                    if AggFunc::from_name(name).is_some() && !agg_asts.iter().any(|a| a == node) {
                        agg_asts.push(node.clone());
                    }
                }
            });
        };
        for item in &select.items {
            if let ast::SelectItem::Expr { expr, .. } = item {
                collect(expr);
            }
        }
        if let Some(h) = &select.having {
            collect(h);
        }

        let mut aggs = Vec::new();
        for a in &agg_asts {
            let ast::Expr::Function { name, args, distinct } = a else { unreachable!() };
            let func = AggFunc::from_name(name).expect("collected as aggregate");
            let (func, arg) = match (func, args.len()) {
                (AggFunc::Count, 0) => (AggFunc::CountStar, None),
                (_, 1) => (func, Some(binder.bind(&args[0])?)),
                (f, n) => {
                    return Err(bind_err!("wrong number of arguments for {f:?}: {n}"));
                }
            };
            let out_ty = match (func, &arg) {
                (AggFunc::CountStar | AggFunc::Count, _) => DataType::Int,
                (AggFunc::Avg, _) => DataType::Double,
                (AggFunc::Sum | AggFunc::Min | AggFunc::Max, Some(e)) => {
                    let t = e.data_type().ok_or_else(|| {
                        bind_err!("aggregate argument type must be known; add a CAST")
                    })?;
                    if func == AggFunc::Sum && !t.is_numeric() {
                        return Err(bind_err!("SUM requires a numeric argument, found {t}"));
                    }
                    t
                }
                _ => unreachable!("arity checked"),
            };
            aggs.push(AggCall { func, arg, distinct: *distinct, out_ty });
        }

        // Output scope of the aggregate: group keys then aggregates.
        let mut schema = PlanSchema::default();
        for (g_ast, g) in select.group_by.iter().zip(&group_bound) {
            let col = match g_ast {
                ast::Expr::Column { table, name } => PlanColumn {
                    qualifier: table.clone(),
                    name: name.clone(),
                    ty: g.data_type().unwrap_or(DataType::Varchar),
                    nullable: true,
                    nested: None,
                },
                other => {
                    PlanColumn::new(other.to_string(), g.data_type().unwrap_or(DataType::Varchar))
                }
            };
            schema.push(col);
        }
        for (a_ast, a) in agg_asts.iter().zip(&aggs) {
            schema.push(PlanColumn::new(a_ast.to_string(), a.out_ty));
        }

        let plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group: group_bound,
            aggs,
            schema: schema.clone(),
        };
        let info = AggInfo { group_asts: select.group_by.clone(), agg_asts };
        Ok((plan, Scope::new(schema), info))
    }

    /// Bind an expression in aggregate context: whole-node matches of
    /// group-by expressions or aggregate calls become output column refs;
    /// any other bare column reference is an error (not functionally
    /// dependent on the group).
    fn bind_with_agg(
        &self,
        expr: &ast::Expr,
        agg_scope: &Scope,
        info: &AggInfo,
    ) -> Result<BoundExpr> {
        let binder = ExprBinder::new(agg_scope);
        let n_group = info.group_asts.len();
        let mut hook = |node: &ast::Expr| -> Option<Result<BoundExpr>> {
            if let Some(i) = info.group_asts.iter().position(|g| g == node) {
                return Some(Ok(BoundExpr::Column { index: i, ty: agg_scope.column(i).ty }));
            }
            if let Some(j) = info.agg_asts.iter().position(|a| a == node) {
                let idx = n_group + j;
                return Some(Ok(BoundExpr::Column { index: idx, ty: agg_scope.column(idx).ty }));
            }
            if let ast::Expr::Column { table, name } = node {
                // Allow references to group keys by (possibly qualified)
                // name even when the group expression was qualified
                // differently.
                if let Ok(i) = agg_scope.resolve(table.as_deref(), name) {
                    if i < n_group {
                        return Some(Ok(BoundExpr::Column {
                            index: i,
                            ty: agg_scope.column(i).ty,
                        }));
                    }
                }
                return Some(Err(bind_err!(
                    "column '{name}' must appear in the GROUP BY clause or be used in an \
                     aggregate function"
                )));
            }
            None
        };
        binder.bind_with(expr, &mut hook)
    }

    // ----------------------------------------------------------- ORDER BY

    fn bind_order_key_simple(&self, scope: &Scope, e: &ast::Expr) -> Result<BoundExpr> {
        if let ast::Expr::Literal(ast::Literal::Int(n)) = e {
            let i = *n as usize;
            if *n < 1 || i > scope.len() {
                return Err(bind_err!("ORDER BY position {n} is out of range"));
            }
            return Ok(BoundExpr::Column { index: i - 1, ty: scope.column(i - 1).ty });
        }
        ExprBinder::new(scope).bind(e)
    }

    fn resolve_order_key(
        &self,
        e: &ast::Expr,
        out_schema: &PlanSchema,
        item_asts: &[Option<ast::Expr>],
        pre_scope: &Scope,
        agg_info: Option<&AggInfo>,
    ) -> Result<OrderTarget> {
        // 1. ordinal
        if let ast::Expr::Literal(ast::Literal::Int(n)) = e {
            let i = *n as usize;
            if *n < 1 || i > out_schema.len() {
                return Err(bind_err!("ORDER BY position {n} is out of range"));
            }
            return Ok(OrderTarget::Output(i - 1));
        }
        // 2. output column name (aliases take priority over input columns)
        if let ast::Expr::Column { table: None, name } = e {
            if let Some(i) =
                out_schema.columns().iter().position(|c| c.name.eq_ignore_ascii_case(name))
            {
                return Ok(OrderTarget::Output(i));
            }
        }
        // 3. structural equality with a projected expression
        if let Some(i) = item_asts.iter().position(|a| a.as_ref() == Some(e)) {
            return Ok(OrderTarget::Output(i));
        }
        // 4. hidden column over the pre-projection scope
        let bound = match agg_info {
            Some(info) => self.bind_with_agg(e, pre_scope, info)?,
            None => ExprBinder::new(pre_scope).bind(e)?,
        };
        Ok(OrderTarget::Hidden(bound))
    }
}

enum OrderTarget {
    Output(usize),
    Hidden(BoundExpr),
}

/// Group/aggregate AST bookkeeping used when rebinding projections.
struct AggInfo {
    group_asts: Vec<ast::Expr>,
    agg_asts: Vec<ast::Expr>,
}

/// The vertex key type of EDGE columns typed `src` and `dst` — the one
/// check of `REACHES … EDGE (s, d)` and `CREATE GRAPH|PATH INDEX … EDGE
/// (s, d)` alike: the two types match, and a vertex dictionary can key by
/// them.
pub(crate) fn edge_key_type(src: DataType, dst: DataType) -> Result<DataType> {
    if src != dst {
        return Err(bind_err!("EDGE columns must have matching types, found {src} and {dst}"));
    }
    if !src.is_vertex_key() {
        return Err(bind_err!("type {src} cannot be used as a graph vertex key"));
    }
    Ok(src)
}

/// Split a WHERE tree into REACHES conjuncts and ordinary conjuncts.
fn collect_conjuncts<'e>(
    e: &'e ast::Expr,
    reaches: &mut Vec<&'e ast::ReachesPredicate>,
    others: &mut Vec<&'e ast::Expr>,
) {
    match e {
        ast::Expr::Binary { left, op: ast::BinaryOp::And, right } => {
            collect_conjuncts(left, reaches, others);
            collect_conjuncts(right, reaches, others);
        }
        ast::Expr::Reaches(r) => reaches.push(r),
        other => others.push(other),
    }
}

/// True when the expression contains an aggregate function call.
fn contains_aggregate(e: &ast::Expr) -> bool {
    let mut found = false;
    e.visit(&mut |node| {
        if let ast::Expr::Function { name, .. } = node {
            if AggFunc::from_name(name).is_some() {
                found = true;
            }
        }
    });
    found
}

/// Output column metadata for a projected expression.
fn output_column(
    bound: &BoundExpr,
    ast_expr: &ast::Expr,
    alias: Option<&str>,
    scope: &Scope,
) -> PlanColumn {
    // Bare column references keep their identity (qualifier, nested schema)
    // so derived tables and UNNEST can see through projections.
    if let BoundExpr::Column { index, ty } = bound {
        let src = scope.column(*index);
        return PlanColumn {
            qualifier: if alias.is_some() { None } else { src.qualifier.clone() },
            name: alias.map(str::to_string).unwrap_or_else(|| src.name.clone()),
            ty: *ty,
            nullable: src.nullable,
            nested: src.nested.clone(),
        };
    }
    let name = alias.map(str::to_string).unwrap_or_else(|| ast_expr.to_string());
    PlanColumn {
        qualifier: None,
        name,
        ty: bound.data_type().unwrap_or(DataType::Varchar),
        nullable: true,
        nested: None,
    }
}

/// Wrap `plan` in a casting projection when any column type differs from
/// the target types (UNION type unification).
fn widen_to(plan: LogicalPlan, target: &[DataType]) -> LogicalPlan {
    let schema = plan.schema();
    if schema.columns().iter().zip(target).all(|(c, &t)| c.ty == t) {
        return plan;
    }
    let mut exprs = Vec::with_capacity(target.len());
    let mut out = PlanSchema::default();
    for (i, (col, &ty)) in schema.columns().iter().zip(target).enumerate() {
        let base = BoundExpr::Column { index: i, ty: col.ty };
        exprs.push(if col.ty == ty { base } else { BoundExpr::Cast { expr: Box::new(base), ty } });
        let mut pc = col.clone();
        pc.ty = ty;
        out.push(pc);
    }
    LogicalPlan::Project { input: Box::new(plan), exprs, schema: out }
}

/// Re-qualify all columns of a schema under one alias, optionally renaming.
fn requalify(schema: &PlanSchema, alias: &str, renames: Option<&[String]>) -> Result<Scope> {
    if let Some(renames) = renames {
        if renames.len() != schema.len() {
            return Err(bind_err!(
                "column list has {} names but the query produces {} columns",
                renames.len(),
                schema.len()
            ));
        }
    }
    let columns = schema
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| PlanColumn {
            qualifier: Some(alias.to_string()),
            name: renames.and_then(|r| r.get(i)).cloned().unwrap_or_else(|| c.name.clone()),
            ty: c.ty,
            nullable: c.nullable,
            nested: c.nested.clone(),
        })
        .collect();
    Ok(Scope::new(PlanSchema::new(columns)))
}

/// Evaluate a constant bound expression (literals only) — used by DML paths.
pub fn literal_value(e: &ast::Expr) -> Result<Value> {
    match e {
        ast::Expr::Literal(lit) => bind_literal(lit),
        ast::Expr::Unary { op: ast::UnaryOp::Neg, expr } => match literal_value(expr)? {
            Value::Int(v) => Ok(Value::Int(-v)),
            Value::Double(v) => Ok(Value::Double(-v)),
            other => Err(bind_err!("cannot negate {other}")),
        },
        ast::Expr::Cast { expr, ty } => {
            let v = literal_value(expr)?;
            crate::exec::expression::cast_value(v, type_name_to_datatype(*ty))
        }
        _ => Err(bind_err!("expected a literal value")),
    }
}
