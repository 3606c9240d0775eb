//! Runtime expression evaluation.
//!
//! Values flow as [`Value`]s with SQL three-valued logic. Column-at-a-time
//! wrappers ([`eval_to_column`], [`eval_filter_range`]) provide fast paths
//! for bare column references and constants, which dominate the graph
//! workloads (edge keys are plain columns, `CHEAPEST SUM(1)` is a constant).

use crate::error::{exec_err, Error};
use crate::plan::expr::{BinaryOp, BoundExpr, ScalarFunc, UnaryOp};
use gsql_storage::{Column, ColumnBuilder, DataType, Date, Table, Value};
use std::cmp::Ordering;

type Result<T> = std::result::Result<T, Error>;

/// Abstracts "one row of input" so the evaluator can run over a plain table
/// row or over a virtual pair of rows (join probing) without materializing.
pub trait RowAccess {
    /// Value of column `col` in this row.
    fn value(&self, col: usize) -> Value;
}

/// A row of a materialized table.
pub struct TableRow<'a> {
    /// The table.
    pub table: &'a Table,
    /// The row index.
    pub row: usize,
}

impl RowAccess for TableRow<'_> {
    fn value(&self, col: usize) -> Value {
        self.table.column(col).get(self.row)
    }
}

/// A virtual concatenation of one left row and one (optional) right row —
/// the shape seen by join conditions. `right_row == None` models the
/// NULL-extended row of a left outer join.
pub struct PairRow<'a> {
    /// Left input.
    pub left: &'a Table,
    /// Row in the left input.
    pub left_row: usize,
    /// Right input.
    pub right: &'a Table,
    /// Row in the right input, or `None` for NULL extension.
    pub right_row: Option<usize>,
    /// Number of left columns (right columns start here).
    pub n_left: usize,
}

impl RowAccess for PairRow<'_> {
    fn value(&self, col: usize) -> Value {
        if col < self.n_left {
            self.left.column(col).get(self.left_row)
        } else {
            match self.right_row {
                Some(r) => self.right.column(col - self.n_left).get(r),
                None => Value::Null,
            }
        }
    }
}

/// Evaluate `expr` for row `row` of `table`.
pub fn eval(expr: &BoundExpr, table: &Table, row: usize, params: &[Value]) -> Result<Value> {
    eval_row(expr, &TableRow { table, row }, params)
}

/// Evaluate `expr` over an abstract row.
pub fn eval_row(expr: &BoundExpr, ctx: &impl RowAccess, params: &[Value]) -> Result<Value> {
    match expr {
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Column { index, .. } => Ok(ctx.value(*index)),
        BoundExpr::Param(i) => params
            .get(*i)
            .cloned()
            .ok_or_else(|| exec_err!("missing value for parameter ?{}", i + 1)),
        BoundExpr::Unary { op, expr } => {
            let v = eval_row(expr, ctx, params)?;
            eval_unary(*op, v)
        }
        BoundExpr::Binary { left, op, right } => {
            // Short-circuit AND/OR per three-valued logic.
            match op {
                BinaryOp::And => {
                    let l = eval_row(left, ctx, params)?;
                    if l == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_row(right, ctx, params)?;
                    return eval_and(l, r);
                }
                BinaryOp::Or => {
                    let l = eval_row(left, ctx, params)?;
                    if l == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_row(right, ctx, params)?;
                    return eval_or(l, r);
                }
                _ => {}
            }
            let l = eval_row(left, ctx, params)?;
            let r = eval_row(right, ctx, params)?;
            eval_binary(l, *op, r)
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval_row(expr, ctx, params)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BoundExpr::InList { expr, list, negated } => {
            let v = eval_row(expr, ctx, params)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_row(item, ctx, params)?;
                if w.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&w) {
                    return Ok(Value::Bool(!*negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        BoundExpr::Between { expr, low, high, negated } => {
            let v = eval_row(expr, ctx, params)?;
            let lo = eval_row(low, ctx, params)?;
            let hi = eval_row(high, ctx, params)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let inside =
                compare(&v, &lo)? != Ordering::Less && compare(&v, &hi)? != Ordering::Greater;
            Ok(Value::Bool(inside != *negated))
        }
        BoundExpr::Like { expr, pattern, negated } => {
            let v = eval_row(expr, ctx, params)?;
            let p = eval_row(pattern, ctx, params)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    Ok(Value::Bool(like_match(&s, &pat) != *negated))
                }
                (a, b) => Err(exec_err!("LIKE requires strings, found {a} and {b}")),
            }
        }
        BoundExpr::Case { operand, branches, else_expr } => {
            match operand {
                Some(op) => {
                    let v = eval_row(op, ctx, params)?;
                    for (when, then) in branches {
                        let w = eval_row(when, ctx, params)?;
                        if !v.is_null() && !w.is_null() && v.sql_eq(&w) {
                            return eval_row(then, ctx, params);
                        }
                    }
                }
                None => {
                    for (when, then) in branches {
                        if eval_row(when, ctx, params)? == Value::Bool(true) {
                            return eval_row(then, ctx, params);
                        }
                    }
                }
            }
            match else_expr {
                Some(e) => eval_row(e, ctx, params),
                None => Ok(Value::Null),
            }
        }
        BoundExpr::Cast { expr, ty } => {
            let v = eval_row(expr, ctx, params)?;
            cast_value(v, *ty)
        }
        BoundExpr::Func { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_row(a, ctx, params)?);
            }
            eval_func(*func, vals)
        }
    }
}

/// Evaluate a constant expression (no column references).
pub fn eval_const(expr: &BoundExpr, params: &[Value]) -> Result<Value> {
    // A zero-column single-row table satisfies the interface.
    let empty = Table::empty(gsql_storage::Schema::default());
    eval(expr, &empty, 0, params)
}

/// Evaluate `expr` over every row of `table`, producing a column of type
/// `target_ty`.
pub fn eval_to_column(
    expr: &BoundExpr,
    table: &Table,
    params: &[Value],
    target_ty: DataType,
) -> Result<Column> {
    // Fast path 1: bare column reference of the right type.
    if let BoundExpr::Column { index, ty } = expr {
        if *ty == target_ty {
            return Ok(table.column(*index).clone());
        }
    }
    // Fast path 2: constant (incl. parameters).
    if expr.is_constant() {
        let v = eval_const(expr, params)?;
        let mut b = ColumnBuilder::new(target_ty);
        for _ in 0..table.row_count() {
            b.push(v.clone()).map_err(Error::Storage)?;
        }
        return Ok(b.finish());
    }
    // Fast path 3: vectorizable numeric expression trees (column ∘ constant
    // arithmetic and numeric casts) — this is what `CHEAPEST SUM` weight
    // expressions like `CAST(weight * 2 AS INTEGER)` hit, avoiding per-row
    // `Value` boxing over the whole edge table.
    if let Some(col) = vectorize(expr, table, params)? {
        if col.data_type() == target_ty {
            return Ok(col);
        }
        if col.data_type() == DataType::Int && target_ty == DataType::Double {
            let (vals, validity) = col.as_int_slice().expect("checked Int");
            return Ok(Column::Double(vals.iter().map(|&v| v as f64).collect(), validity.clone()));
        }
        // Unexpected type: fall through to the general row loop below.
    }
    let mut b = ColumnBuilder::new(target_ty);
    for row in 0..table.row_count() {
        let v = eval(expr, table, row, params)?;
        b.push(v).map_err(Error::Storage)?;
    }
    Ok(b.finish())
}

/// Column-at-a-time evaluation of a restricted numeric expression family:
/// column refs, `column ∘ constant` / `constant ∘ column` arithmetic, and
/// numeric `CAST`s. Returns `None` for anything else (the caller falls back
/// to the row-at-a-time evaluator).
fn vectorize(expr: &BoundExpr, table: &Table, params: &[Value]) -> Result<Option<Column>> {
    match expr {
        BoundExpr::Column { index, ty } if ty.is_numeric() => {
            Ok(Some(table.column(*index).clone()))
        }
        BoundExpr::Cast { expr: inner, ty } => {
            let Some(col) = vectorize(inner, table, params)? else {
                return Ok(None);
            };
            match (col, ty) {
                (col, ty) if col.data_type() == *ty => Ok(Some(col)),
                (Column::Int(vals, validity), DataType::Double) => {
                    Ok(Some(Column::Double(vals.iter().map(|&v| v as f64).collect(), validity)))
                }
                (Column::Double(vals, validity), DataType::Int) => {
                    let mut out = Vec::with_capacity(vals.len());
                    for (i, &v) in vals.iter().enumerate() {
                        if validity.get(i) {
                            if !v.is_finite() || !(i64::MIN as f64..=i64::MAX as f64).contains(&v) {
                                return Err(exec_err!("cannot cast {v} to INTEGER"));
                            }
                            out.push(v.trunc() as i64);
                        } else {
                            out.push(0);
                        }
                    }
                    Ok(Some(Column::Int(out, validity)))
                }
                _ => Ok(None),
            }
        }
        BoundExpr::Binary { left, op, right }
            if matches!(op, BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div) =>
        {
            // Exactly one side must be a constant.
            let (col_expr, const_expr, col_left) = if right.is_constant() {
                (left, right, true)
            } else if left.is_constant() {
                (right, left, false)
            } else {
                return Ok(None);
            };
            let Some(col) = vectorize(col_expr, table, params)? else {
                return Ok(None);
            };
            let k = eval_const(const_expr, params)?;
            if k.is_null() {
                return Ok(None); // NULL constant: row path handles 3VL
            }
            vectorized_arith(col, *op, k, col_left).map(Some)
        }
        _ => Ok(None),
    }
}

/// Apply `col ∘ k` (or `k ∘ col` when `col_left` is false) element-wise.
fn vectorized_arith(col: Column, op: BinaryOp, k: Value, col_left: bool) -> Result<Column> {
    // Integer × integer stays integer except division; everything else
    // widens to double, matching the scalar evaluator.
    match (&col, &k, op) {
        (
            Column::Int(vals, validity),
            Value::Int(kv),
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul,
        ) => {
            let kv = *kv;
            let mut out = Vec::with_capacity(vals.len());
            for (i, &v) in vals.iter().enumerate() {
                if !validity.get(i) {
                    out.push(0);
                    continue;
                }
                let (a, b) = if col_left { (v, kv) } else { (kv, v) };
                let r = match op {
                    BinaryOp::Add => a.checked_add(b),
                    BinaryOp::Sub => a.checked_sub(b),
                    BinaryOp::Mul => a.checked_mul(b),
                    _ => unreachable!(),
                };
                out.push(r.ok_or_else(|| exec_err!("integer overflow in {a} {op:?} {b}"))?);
            }
            Ok(Column::Int(out, validity.clone()))
        }
        _ => {
            // Double arithmetic (covers Int/Double mixes and division).
            let kv =
                k.as_double().ok_or_else(|| exec_err!("non-numeric operand {k} in arithmetic"))?;
            let (vals, validity): (Vec<f64>, _) = match &col {
                Column::Int(v, b) => (v.iter().map(|&x| x as f64).collect(), b.clone()),
                Column::Double(v, b) => (v.clone(), b.clone()),
                other => {
                    return Err(exec_err!(
                        "non-numeric column of type {} in arithmetic",
                        other.data_type()
                    ))
                }
            };
            if op == BinaryOp::Div {
                let divisor_is_const = col_left;
                if divisor_is_const && kv == 0.0 {
                    return Err(exec_err!("division by zero"));
                }
            }
            let mut out = Vec::with_capacity(vals.len());
            for (i, &v) in vals.iter().enumerate() {
                if !validity.get(i) {
                    out.push(0.0);
                    continue;
                }
                let (a, b) = if col_left { (v, kv) } else { (kv, v) };
                let r = match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    BinaryOp::Mul => a * b,
                    BinaryOp::Div => {
                        if b == 0.0 {
                            return Err(exec_err!("division by zero"));
                        }
                        a / b
                    }
                    _ => unreachable!(),
                };
                out.push(r);
            }
            Ok(Column::Double(out, validity))
        }
    }
}

/// Evaluate a predicate over the rows in `range` of `table`, returning the
/// **global** row indices where it is true, in ascending order (NULL and
/// false are dropped — SQL filter semantics). Runs on the
/// calling thread — pipeline workers call this once per morsel, so the
/// parallelism lives in the morsel scheduling, not here. The columnar
/// `column ⋈ constant` mask fast path applies to the range alone.
pub fn eval_filter_range(
    predicate: &BoundExpr,
    table: &Table,
    range: std::ops::Range<usize>,
    params: &[Value],
) -> Result<Vec<usize>> {
    if let Some(mask) = predicate_mask(predicate, table, range.clone(), params)? {
        return Ok(range.zip(mask).filter_map(|(i, b)| b.then_some(i)).collect());
    }
    let mut keep = Vec::new();
    for row in range {
        if eval(predicate, table, row, params)? == Value::Bool(true) {
            keep.push(row);
        }
    }
    Ok(keep)
}

/// Column-at-a-time filter evaluation for `column ⋈ constant` comparisons
/// and conjunctions thereof, restricted to `range`: `mask[i]` is true when
/// the predicate is definitely true for row `range.start + i` (NULLs map
/// to false, matching filter semantics). Returns `None` when the predicate
/// shape is not covered.
fn predicate_mask(
    predicate: &BoundExpr,
    table: &Table,
    range: std::ops::Range<usize>,
    params: &[Value],
) -> Result<Option<Vec<bool>>> {
    match predicate {
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            let (Some(l), Some(r)) = (
                predicate_mask(left, table, range.clone(), params)?,
                predicate_mask(right, table, range, params)?,
            ) else {
                return Ok(None);
            };
            Ok(Some(l.iter().zip(&r).map(|(&a, &b)| a && b).collect()))
        }
        BoundExpr::Binary { left, op, right }
            if matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::NotEq
                    | BinaryOp::Lt
                    | BinaryOp::LtEq
                    | BinaryOp::Gt
                    | BinaryOp::GtEq
            ) =>
        {
            // Normalize to column ⋈ constant.
            let (col_expr, const_expr, flipped) = match (&**left, &**right) {
                (BoundExpr::Column { .. }, c) if c.is_constant() => (left, right, false),
                (c, BoundExpr::Column { .. }) if c.is_constant() => (right, left, true),
                _ => return Ok(None),
            };
            let BoundExpr::Column { index, .. } = &**col_expr else { unreachable!() };
            let k = eval_const(const_expr, params)?;
            if k.is_null() {
                // NULL comparison: uniformly unknown -> all false.
                return Ok(Some(vec![false; range.len()]));
            }
            let op = if flipped { flip_cmp(*op) } else { *op };
            Ok(compare_column_const(table.column(*index), op, &k, range))
        }
        _ => Ok(None),
    }
}

fn flip_cmp(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

fn cmp_matches(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("comparison operators only"),
    }
}

/// Typed slice comparison against a constant over `range`; `None` when the
/// column type and constant type do not pair up for a fast path.
fn compare_column_const(
    col: &Column,
    op: BinaryOp,
    k: &Value,
    range: std::ops::Range<usize>,
) -> Option<Vec<bool>> {
    let mut mask = Vec::with_capacity(range.len());
    match (col, k) {
        (Column::Int(vals, validity), Value::Int(kv)) => {
            for i in range {
                mask.push(validity.get(i) && cmp_matches(op, vals[i].cmp(kv)));
            }
        }
        (Column::Int(vals, validity), Value::Double(kv)) => {
            for i in range {
                mask.push(validity.get(i) && cmp_matches(op, (vals[i] as f64).total_cmp(kv)));
            }
        }
        (Column::Double(vals, validity), _) => {
            let kv = k.as_double()?;
            for i in range {
                mask.push(validity.get(i) && cmp_matches(op, vals[i].total_cmp(&kv)));
            }
        }
        (Column::Date(vals, validity), Value::Date(kd)) => {
            for i in range {
                mask.push(validity.get(i) && cmp_matches(op, vals[i].cmp(&kd.0)));
            }
        }
        (Column::Str(vals, validity), Value::Str(ks)) => {
            for i in range {
                mask.push(validity.get(i) && cmp_matches(op, vals[i].as_str().cmp(ks.as_str())));
            }
        }
        (Column::Bool(vals, validity), Value::Bool(kb)) => {
            for i in range {
                mask.push(validity.get(i) && cmp_matches(op, vals[i].cmp(kb)));
            }
        }
        _ => return None,
    }
    Some(mask)
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(x) => x
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| exec_err!("integer overflow negating {x}")),
            Value::Double(x) => Ok(Value::Double(-x)),
            other => Err(exec_err!("cannot negate {other}")),
        },
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(exec_err!("NOT requires a boolean, found {other}")),
        },
    }
}

fn eval_and(l: Value, r: Value) -> Result<Value> {
    match (to_bool3(l)?, to_bool3(r)?) {
        (Some(false), _) | (_, Some(false)) => Ok(Value::Bool(false)),
        (Some(true), Some(true)) => Ok(Value::Bool(true)),
        _ => Ok(Value::Null),
    }
}

fn eval_or(l: Value, r: Value) -> Result<Value> {
    match (to_bool3(l)?, to_bool3(r)?) {
        (Some(true), _) | (_, Some(true)) => Ok(Value::Bool(true)),
        (Some(false), Some(false)) => Ok(Value::Bool(false)),
        _ => Ok(Value::Null),
    }
}

fn to_bool3(v: Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(b)),
        other => Err(exec_err!("expected a boolean, found {other}")),
    }
}

/// Total-order comparison for comparable values; errors on mismatched types.
fn compare(l: &Value, r: &Value) -> Result<Ordering> {
    match (l, r) {
        (Value::Int(_) | Value::Double(_), Value::Int(_) | Value::Double(_))
        | (Value::Str(_), Value::Str(_))
        | (Value::Bool(_), Value::Bool(_))
        | (Value::Date(_), Value::Date(_)) => Ok(l.total_cmp(r)),
        (a, b) => Err(exec_err!("cannot compare {a} with {b}")),
    }
}

fn eval_binary(l: Value, op: BinaryOp, r: Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        And => return eval_and(l, r),
        Or => return eval_or(l, r),
        _ => {}
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Add | Sub | Mul | Mod => eval_arith(l, op, r),
        Div => {
            let (a, b) = (
                l.as_double().ok_or_else(|| exec_err!("non-numeric operand to '/': {l}"))?,
                r.as_double().ok_or_else(|| exec_err!("non-numeric operand to '/': {r}"))?,
            );
            if b == 0.0 {
                return Err(exec_err!("division by zero"));
            }
            Ok(Value::Double(a / b))
        }
        Concat => Ok(Value::Str(format!("{l}{r}"))),
        Eq => Ok(Value::Bool(l.sql_eq(&r))),
        NotEq => Ok(Value::Bool(!l.sql_eq(&r))),
        Lt => Ok(Value::Bool(compare(&l, &r)? == Ordering::Less)),
        LtEq => Ok(Value::Bool(compare(&l, &r)? != Ordering::Greater)),
        Gt => Ok(Value::Bool(compare(&l, &r)? == Ordering::Greater)),
        GtEq => Ok(Value::Bool(compare(&l, &r)? != Ordering::Less)),
        And | Or => unreachable!("handled above"),
    }
}

fn eval_arith(l: Value, op: BinaryOp, r: Value) -> Result<Value> {
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => {
            let (a, b) = (*a, *b);
            let out = match op {
                BinaryOp::Add => a.checked_add(b),
                BinaryOp::Sub => a.checked_sub(b),
                BinaryOp::Mul => a.checked_mul(b),
                BinaryOp::Mod => {
                    if b == 0 {
                        return Err(exec_err!("division by zero"));
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int).ok_or_else(|| exec_err!("integer overflow in {a} {op:?} {b}"))
        }
        _ => {
            let a = l.as_double().ok_or_else(|| exec_err!("non-numeric operand: {l}"))?;
            let b = r.as_double().ok_or_else(|| exec_err!("non-numeric operand: {r}"))?;
            let out = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Mod => {
                    if b == 0.0 {
                        return Err(exec_err!("division by zero"));
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Double(out))
        }
    }
}

fn eval_func(func: ScalarFunc, mut args: Vec<Value>) -> Result<Value> {
    // COALESCE/NULLIF have their own NULL behaviour.
    match func {
        ScalarFunc::Coalesce => {
            for v in args {
                if !v.is_null() {
                    return Ok(v);
                }
            }
            return Ok(Value::Null);
        }
        ScalarFunc::Nullif => {
            let b = args.pop().expect("arity checked");
            let a = args.pop().expect("arity checked");
            if !a.is_null() && !b.is_null() && a.sql_eq(&b) {
                return Ok(Value::Null);
            }
            return Ok(a);
        }
        _ => {}
    }
    let v = args.pop().expect("arity checked");
    if v.is_null() {
        return Ok(Value::Null);
    }
    match func {
        ScalarFunc::Upper => match v {
            Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
            other => Err(exec_err!("UPPER requires a string, found {other}")),
        },
        ScalarFunc::Lower => match v {
            Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
            other => Err(exec_err!("LOWER requires a string, found {other}")),
        },
        ScalarFunc::Length => match v {
            Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
            other => Err(exec_err!("LENGTH requires a string, found {other}")),
        },
        ScalarFunc::Abs => match v {
            Value::Int(x) => Ok(Value::Int(x.abs())),
            Value::Double(x) => Ok(Value::Double(x.abs())),
            other => Err(exec_err!("ABS requires a number, found {other}")),
        },
        ScalarFunc::Round => match v {
            Value::Int(x) => Ok(Value::Int(x)),
            Value::Double(x) => Ok(Value::Double(x.round())),
            other => Err(exec_err!("ROUND requires a number, found {other}")),
        },
        ScalarFunc::Floor => match v {
            Value::Int(x) => Ok(Value::Int(x)),
            Value::Double(x) => Ok(Value::Double(x.floor())),
            other => Err(exec_err!("FLOOR requires a number, found {other}")),
        },
        ScalarFunc::Ceil => match v {
            Value::Int(x) => Ok(Value::Int(x)),
            Value::Double(x) => Ok(Value::Double(x.ceil())),
            other => Err(exec_err!("CEIL requires a number, found {other}")),
        },
        ScalarFunc::Sqrt => {
            let x = v.as_double().ok_or_else(|| exec_err!("SQRT requires a number"))?;
            if x < 0.0 {
                return Err(exec_err!("SQRT of a negative number"));
            }
            Ok(Value::Double(x.sqrt()))
        }
        ScalarFunc::Coalesce | ScalarFunc::Nullif => unreachable!("handled above"),
    }
}

/// `CAST` semantics.
pub fn cast_value(v: Value, ty: DataType) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    if v.data_type() == Some(ty) {
        return Ok(v);
    }
    match (v, ty) {
        (Value::Int(x), DataType::Double) => Ok(Value::Double(x as f64)),
        (Value::Double(x), DataType::Int) => {
            if x.is_finite() && (i64::MIN as f64..=i64::MAX as f64).contains(&x) {
                Ok(Value::Int(x.trunc() as i64))
            } else {
                Err(exec_err!("cannot cast {x} to INTEGER"))
            }
        }
        (Value::Int(x), DataType::Varchar) => Ok(Value::Str(x.to_string())),
        (Value::Double(x), DataType::Varchar) => Ok(Value::Str(Value::Double(x).to_string())),
        (Value::Bool(b), DataType::Varchar) => Ok(Value::Str(b.to_string())),
        (Value::Date(d), DataType::Varchar) => Ok(Value::Str(d.to_string())),
        (Value::Str(s), DataType::Int) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| exec_err!("cannot cast '{s}' to INTEGER")),
        (Value::Str(s), DataType::Double) => s
            .trim()
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|_| exec_err!("cannot cast '{s}' to DOUBLE")),
        (Value::Str(s), DataType::Date) => Date::parse(&s).map(Value::Date).map_err(Error::Storage),
        (Value::Str(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Bool(true)),
            "false" | "f" | "0" => Ok(Value::Bool(false)),
            _ => Err(exec_err!("cannot cast '{s}' to BOOLEAN")),
        },
        (Value::Bool(b), DataType::Int) => Ok(Value::Int(i64::from(b))),
        (v, ty) => Err(exec_err!(
            "unsupported cast from {} to {ty}",
            v.data_type().map(|t| t.to_string()).unwrap_or_else(|| "NULL".into())
        )),
    }
}

/// SQL `LIKE` with `%` (any run) and `_` (any single char), case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=s.len()).any(|k| rec(&s[k..], rest))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::expr::BoundExpr as E;

    fn lit(v: Value) -> E {
        E::Literal(v)
    }

    fn binary(l: E, op: BinaryOp, r: E) -> E {
        E::Binary { left: Box::new(l), op, right: Box::new(r) }
    }

    fn run(e: &E) -> Value {
        eval_const(e, &[]).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            run(&binary(lit(Value::Int(2)), BinaryOp::Add, lit(Value::Int(3)))),
            Value::Int(5)
        );
        assert_eq!(
            run(&binary(lit(Value::Int(7)), BinaryOp::Div, lit(Value::Int(2)))),
            Value::Double(3.5)
        );
        assert_eq!(
            run(&binary(lit(Value::Double(1.5)), BinaryOp::Mul, lit(Value::Int(2)))),
            Value::Double(3.0)
        );
    }

    #[test]
    fn division_by_zero_errors() {
        let e = binary(lit(Value::Int(1)), BinaryOp::Div, lit(Value::Int(0)));
        assert!(eval_const(&e, &[]).is_err());
    }

    #[test]
    fn integer_overflow_errors() {
        let e = binary(lit(Value::Int(i64::MAX)), BinaryOp::Add, lit(Value::Int(1)));
        assert!(eval_const(&e, &[]).is_err());
    }

    #[test]
    fn null_propagation() {
        assert!(run(&binary(lit(Value::Null), BinaryOp::Add, lit(Value::Int(1)))).is_null());
        assert!(run(&binary(lit(Value::Null), BinaryOp::Eq, lit(Value::Int(1)))).is_null());
    }

    #[test]
    fn three_valued_and_or() {
        let t = lit(Value::Bool(true));
        let f = lit(Value::Bool(false));
        let n = lit(Value::Null);
        assert_eq!(run(&binary(f.clone(), BinaryOp::And, n.clone())), Value::Bool(false));
        assert!(run(&binary(t.clone(), BinaryOp::And, n.clone())).is_null());
        assert_eq!(run(&binary(t.clone(), BinaryOp::Or, n.clone())), Value::Bool(true));
        assert!(run(&binary(f, BinaryOp::Or, n)).is_null());
        let _ = t;
    }

    #[test]
    fn concat_stringifies() {
        let e = binary(lit(Value::from("a")), BinaryOp::Concat, lit(Value::Int(7)));
        assert_eq!(run(&e), Value::from("a7"));
    }

    #[test]
    fn in_list_three_valued() {
        // 1 IN (2, NULL) is NULL, not false.
        let e = E::InList {
            expr: Box::new(lit(Value::Int(1))),
            list: vec![lit(Value::Int(2)), lit(Value::Null)],
            negated: false,
        };
        assert!(run(&e).is_null());
        let e = E::InList {
            expr: Box::new(lit(Value::Int(2))),
            list: vec![lit(Value::Int(2)), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(run(&e), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "H%"));
        assert!(!like_match("hello", "h_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn case_expressions() {
        let e = E::Case {
            operand: None,
            branches: vec![(lit(Value::Bool(false)), lit(Value::Int(1)))],
            else_expr: None,
        };
        assert!(run(&e).is_null());
        let e = E::Case {
            operand: Some(Box::new(lit(Value::Int(2)))),
            branches: vec![
                (lit(Value::Int(1)), lit(Value::from("one"))),
                (lit(Value::Int(2)), lit(Value::from("two"))),
            ],
            else_expr: Some(Box::new(lit(Value::from("other")))),
        };
        assert_eq!(run(&e), Value::from("two"));
    }

    #[test]
    fn casts() {
        assert_eq!(cast_value(Value::Double(2.9), DataType::Int).unwrap(), Value::Int(2));
        assert_eq!(cast_value(Value::from("42"), DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(
            cast_value(Value::from("2011-01-01"), DataType::Date).unwrap(),
            Value::Date(Date::parse("2011-01-01").unwrap())
        );
        assert!(cast_value(Value::from("x"), DataType::Int).is_err());
        assert!(cast_value(Value::Double(f64::NAN), DataType::Int).is_err());
        assert_eq!(cast_value(Value::Null, DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn functions() {
        assert_eq!(
            eval_func(ScalarFunc::Upper, vec![Value::from("abc")]).unwrap(),
            Value::from("ABC")
        );
        assert_eq!(eval_func(ScalarFunc::Length, vec![Value::from("abc")]).unwrap(), Value::Int(3));
        assert_eq!(eval_func(ScalarFunc::Abs, vec![Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(
            eval_func(ScalarFunc::Coalesce, vec![Value::Null, Value::Int(2)]).unwrap(),
            Value::Int(2)
        );
        assert!(eval_func(ScalarFunc::Nullif, vec![Value::Int(1), Value::Int(1)])
            .unwrap()
            .is_null());
        assert!(eval_func(ScalarFunc::Sqrt, vec![Value::Double(-1.0)]).is_err());
    }

    #[test]
    fn params_resolve_by_index() {
        let e = E::Param(1);
        assert_eq!(eval_const(&e, &[Value::Int(1), Value::Int(2)]).unwrap(), Value::Int(2));
        assert!(eval_const(&e, &[Value::Int(1)]).is_err());
    }

    // ------------------------------------------------ vectorized fast paths

    use gsql_storage::{ColumnDef, Schema};

    fn numbers_table() -> Table {
        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::new("i", DataType::Int),
            ColumnDef::new("d", DataType::Double),
            ColumnDef::new("s", DataType::Varchar),
        ]));
        t.append_row(vec![Value::Int(1), Value::Double(0.5), Value::from("a")]).unwrap();
        t.append_row(vec![Value::Int(-3), Value::Double(2.5), Value::from("b")]).unwrap();
        t.append_row(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        t.append_row(vec![Value::Int(10), Value::Double(-1.0), Value::from("c")]).unwrap();
        t
    }

    fn col_ref(i: usize, ty: DataType) -> E {
        E::Column { index: i, ty }
    }

    /// The vectorized result must equal the row-at-a-time result.
    fn assert_vector_matches_scalar(e: &E, ty: DataType) {
        let t = numbers_table();
        let fast = eval_to_column(e, &t, &[], ty).unwrap();
        for row in 0..t.row_count() {
            let scalar = eval(e, &t, row, &[]).unwrap();
            let vector = fast.get(row);
            match (&scalar, &vector) {
                (Value::Null, v) => assert!(v.is_null(), "row {row}"),
                (a, b) => assert!(a.sql_eq(b), "row {row}: scalar {a} vs vector {b}"),
            }
        }
    }

    #[test]
    fn vectorized_arith_matches_scalar() {
        // The appendix A.4 weight shape: CAST(col * 2 AS INTEGER).
        let weight = E::Cast {
            expr: Box::new(binary(col_ref(1, DataType::Double), BinaryOp::Mul, lit(Value::Int(2)))),
            ty: DataType::Int,
        };
        assert_vector_matches_scalar(&weight, DataType::Int);
        assert_vector_matches_scalar(
            &binary(col_ref(0, DataType::Int), BinaryOp::Add, lit(Value::Int(7))),
            DataType::Int,
        );
        assert_vector_matches_scalar(
            &binary(lit(Value::Int(100)), BinaryOp::Sub, col_ref(0, DataType::Int)),
            DataType::Int,
        );
        assert_vector_matches_scalar(
            &binary(col_ref(0, DataType::Int), BinaryOp::Div, lit(Value::Int(4))),
            DataType::Double,
        );
        assert_vector_matches_scalar(
            &E::Cast { expr: Box::new(col_ref(0, DataType::Int)), ty: DataType::Double },
            DataType::Double,
        );
    }

    #[test]
    fn vectorized_div_by_zero_still_errors() {
        let t = numbers_table();
        let e = binary(col_ref(0, DataType::Int), BinaryOp::Div, lit(Value::Int(0)));
        assert!(eval_to_column(&e, &t, &[], DataType::Double).is_err());
    }

    #[test]
    fn vectorized_overflow_still_errors() {
        let t = numbers_table();
        let e = binary(col_ref(0, DataType::Int), BinaryOp::Mul, lit(Value::Int(i64::MAX)));
        assert!(eval_to_column(&e, &t, &[], DataType::Int).is_err());
    }

    #[test]
    fn filter_masks_match_scalar_filtering() {
        let t = numbers_table();
        let cases = vec![
            binary(col_ref(0, DataType::Int), BinaryOp::Gt, lit(Value::Int(0))),
            binary(col_ref(0, DataType::Int), BinaryOp::Eq, lit(Value::Double(1.0))),
            binary(lit(Value::Int(0)), BinaryOp::Lt, col_ref(0, DataType::Int)),
            binary(col_ref(1, DataType::Double), BinaryOp::LtEq, lit(Value::Double(0.5))),
            binary(col_ref(2, DataType::Varchar), BinaryOp::NotEq, lit(Value::from("b"))),
            // conjunction of two vectorizable comparisons
            binary(
                binary(col_ref(0, DataType::Int), BinaryOp::GtEq, lit(Value::Int(-3))),
                BinaryOp::And,
                binary(col_ref(1, DataType::Double), BinaryOp::Gt, lit(Value::Double(0.0))),
            ),
        ];
        for e in cases {
            let fast = eval_filter_range(&e, &t, 0..t.row_count(), &[]).unwrap();
            let mut slow = Vec::new();
            for row in 0..t.row_count() {
                if eval(&e, &t, row, &[]).unwrap() == Value::Bool(true) {
                    slow.push(row);
                }
            }
            assert_eq!(fast, slow, "predicate {e:?}");
        }
    }

    #[test]
    fn filter_mask_null_constant_matches_scalar() {
        let t = numbers_table();
        let e = binary(col_ref(0, DataType::Int), BinaryOp::Eq, lit(Value::Null));
        assert!(eval_filter_range(&e, &t, 0..t.row_count(), &[]).unwrap().is_empty());
    }

    #[test]
    fn date_filter_uses_fast_path_correctly() {
        let mut t = Table::empty(Schema::new(vec![ColumnDef::new("d", DataType::Date)]));
        for s in ["2010-03-24", "2010-12-02", "2011-06-10"] {
            t.append_row(vec![Value::Date(Date::parse(s).unwrap())]).unwrap();
        }
        t.append_row(vec![Value::Null]).unwrap();
        let e = binary(
            col_ref(0, DataType::Date),
            BinaryOp::Lt,
            lit(Value::Date(Date::parse("2011-01-01").unwrap())),
        );
        assert_eq!(eval_filter_range(&e, &t, 0..t.row_count(), &[]).unwrap(), vec![0, 1]);
    }
}
