//! Runtime expression evaluation: one column-at-a-time walk.
//!
//! [`eval_column`] evaluates a [`BoundExpr`] at every row of a selection
//! ([`Sel`]: a row range or an ascending row list) and returns a [`Vector`],
//! one value per selected row (a *slot*). Short-circuits become narrowed
//! selections (AND's right side runs where the left is not FALSE, OR's where
//! it is not TRUE; CASE and IN-list arms run on the slots still open); NULL
//! slots and empty selections never raise. Arithmetic, numeric casts and
//! comparisons are typed kernels over column slices; every other operator
//! maps the scalar kernels over the slots. [`first_error`] re-runs a failed
//! selection row by row, so an error is always the first failing row's.
//! README "Expression evaluation" has the full rules.

use crate::error::{exec_err, Error};
use crate::plan::expr::{BinaryOp, BoundExpr, ScalarFunc, UnaryOp};
use gsql_storage::{Bitmap, Column, ColumnBuilder, DataType, Date, Schema, Table, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;

type Result<T> = std::result::Result<T, Error>;

/// The rows of a table an evaluation covers, in ascending order.
#[derive(Clone, Debug)]
pub(crate) enum Sel<'s> {
    /// A contiguous row range.
    Range(Range<usize>),
    /// Ascending row indices.
    Rows(&'s [usize]),
}

impl Sel<'_> {
    /// Every row of `table`.
    pub(crate) fn all(table: &Table) -> Sel<'static> {
        Sel::Range(0..table.row_count())
    }

    /// The number of selected rows (slots).
    pub(crate) fn len(&self) -> usize {
        match self {
            Sel::Range(r) => r.len(),
            Sel::Rows(rows) => rows.len(),
        }
    }

    /// The row behind `slot`.
    pub(crate) fn row(&self, slot: usize) -> usize {
        match self {
            Sel::Range(r) => r.start + slot,
            Sel::Rows(rows) => rows[slot],
        }
    }

    /// The rows behind `slots`.
    pub(crate) fn rows_at(&self, slots: &[usize]) -> Vec<usize> {
        slots.iter().map(|&s| self.row(s)).collect()
    }

    /// Each selected row as a one-row selection, in order.
    pub(crate) fn singles(&self) -> impl Iterator<Item = Sel<'static>> + '_ {
        (0..self.len()).map(|s| Sel::Range(self.row(s)..self.row(s) + 1))
    }
}

/// An expression's value at every slot of a selection.
pub(crate) enum Vector<'t> {
    /// The same value in every slot.
    Const(Value),
    /// A typed column with slot `i` at position `i`. A table column read
    /// over the table's full row range is borrowed, not copied.
    Col(Cow<'t, Column>),
    /// One value per slot, of any variants (mixed CASE branches, scalar
    /// kernels).
    Values(Vec<Value>),
}

impl Vector<'_> {
    /// The value in `slot`.
    pub(crate) fn get(&self, slot: usize) -> Value {
        match self {
            Vector::Const(v) => v.clone(),
            Vector::Col(c) => c.get(slot),
            Vector::Values(v) => v[slot].clone(),
        }
    }

    fn is_null(&self, slot: usize) -> bool {
        match self {
            Vector::Const(v) => v.is_null(),
            Vector::Col(c) => c.is_null(slot),
            Vector::Values(v) => v[slot].is_null(),
        }
    }

    /// True when `slot` holds exactly `Bool(b)`.
    fn is_bool(&self, slot: usize, b: bool) -> bool {
        match self {
            Vector::Const(v) => matches!(v, Value::Bool(x) if *x == b),
            Vector::Col(c) => match &**c {
                Column::Bool(v, valid) => valid.get(slot) && v[slot] == b,
                _ => false,
            },
            Vector::Values(v) => matches!(&v[slot], Value::Bool(x) if *x == b),
        }
    }

    /// The slots of the first `len` that hold TRUE.
    fn true_slots(&self, len: usize) -> Vec<usize> {
        if let Vector::Col(c) = self {
            if let Column::Bool(v, valid) = &**c {
                return (0..len).filter(|&i| v[i] && valid.get(i)).collect();
            }
        }
        (0..len).filter(|&i| self.is_bool(i, true)).collect()
    }

    /// The same vector, owning its data.
    pub(crate) fn into_owned(self) -> Vector<'static> {
        match self {
            Vector::Const(v) => Vector::Const(v),
            Vector::Col(c) => Vector::Col(Cow::Owned(c.into_owned())),
            Vector::Values(v) => Vector::Values(v),
        }
    }

    /// The first `len` slots as a column of type `ty`, converted the way a
    /// column push converts (INTEGER widens to DOUBLE, other mismatches
    /// fail).
    pub(crate) fn into_column(self, ty: DataType, len: usize) -> Result<Column> {
        match self {
            Vector::Col(c) if c.data_type() == ty => Ok(c.into_owned()),
            v => {
                let mut b = ColumnBuilder::new(ty);
                for slot in 0..len {
                    b.push(v.get(slot)).map_err(Error::Storage)?;
                }
                Ok(b.finish())
            }
        }
    }
}

/// Run `f` over `sel`; when it fails, run it again one selected row at a
/// time and return the first row's error — the one a row-at-a-time
/// evaluation meets first. (`f`'s own error is the fallback.)
pub(crate) fn first_error<T>(sel: &Sel<'_>, mut f: impl FnMut(&Sel<'_>) -> Result<T>) -> Result<T> {
    f(sel).or_else(|err| {
        for one in sel.singles() {
            f(&one)?;
        }
        Err(err)
    })
}

/// Evaluate a constant expression (no column references).
pub(crate) fn eval_const(expr: &BoundExpr, params: &[Value]) -> Result<Value> {
    // One selected row of a zero-column table: nothing to read.
    let empty = Table::empty(Schema::default());
    Ok(eval_column(expr, &empty, &Sel::Range(0..1), params)?.get(0))
}

/// `expr` at every row of `sel`, as a column of type `ty`.
pub(crate) fn eval_to_column(
    expr: &BoundExpr,
    table: &Table,
    sel: &Sel<'_>,
    params: &[Value],
    ty: DataType,
) -> Result<Column> {
    first_error(sel, |s| eval_column(expr, table, s, params)?.into_column(ty, s.len()))
}

/// The rows of `sel` where `predicate` is TRUE (NULL and FALSE drop), in
/// ascending order.
pub(crate) fn eval_filter(
    predicate: &BoundExpr,
    table: &Table,
    sel: &Sel<'_>,
    params: &[Value],
) -> Result<Vec<usize>> {
    first_error(sel, |s| {
        Ok(s.rows_at(&eval_column(predicate, table, s, params)?.true_slots(s.len())))
    })
}

/// The one expression walk: `expr` at every row of `sel` over `table`.
pub(crate) fn eval_column<'t>(
    expr: &BoundExpr,
    table: &'t Table,
    sel: &Sel<'_>,
    params: &[Value],
) -> Result<Vector<'t>> {
    let n = sel.len();
    if n == 0 {
        return Ok(Vector::Values(Vec::new()));
    }
    let eval = |e: &BoundExpr| eval_column(e, table, sel, params);
    match expr {
        BoundExpr::Literal(v) => Ok(Vector::Const(v.clone())),
        BoundExpr::Param(i) => params
            .get(*i)
            .cloned()
            .map(Vector::Const)
            .ok_or_else(|| exec_err!("missing value for parameter ?{}", i + 1)),
        BoundExpr::Column { index, .. } => {
            let col = table.column(*index);
            Ok(Vector::Col(match sel {
                Sel::Range(r) if r.len() == col.len() => Cow::Borrowed(col),
                Sel::Range(r) => Cow::Owned(col.slice_rows(r.clone())),
                Sel::Rows(rows) => Cow::Owned(col.take(rows)),
            }))
        }
        BoundExpr::Unary { op, expr } => map([eval(expr)?], n, |[v]| eval_unary(*op, v)),
        BoundExpr::Binary { left, op: op @ (BinaryOp::And | BinaryOp::Or), right } => {
            let l = eval(left)?;
            // The value that decides the result alone: FALSE for AND, TRUE for OR.
            let decisive = *op == BinaryOp::Or;
            let open: Vec<usize> = (0..n).filter(|&i| !l.is_bool(i, decisive)).collect();
            let r = narrowed(right, table, sel, &open, params)?;
            let mut out = vec![Some(decisive); n];
            for (j, &i) in open.iter().enumerate() {
                let (a, b) = (to_bool3(l.get(i))?, to_bool3(r.get(j))?);
                out[i] = logic3(decisive, a, b);
            }
            Ok(bools(out))
        }
        BoundExpr::Binary { left, op, right } => binary(eval(left)?, *op, eval(right)?, n),
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr)?;
            Ok(bools((0..n).map(|i| Some(v.is_null(i) != *negated)).collect()))
        }
        BoundExpr::InList { expr, list, negated } => {
            let v = eval(expr)?;
            let (mut out, mut saw_null) = (vec![None; n], vec![false; n]);
            let mut open: Vec<usize> = (0..n).filter(|&i| !v.is_null(i)).collect();
            for item in list {
                let w = narrowed(item, table, sel, &open, params)?;
                let hit;
                (hit, open) = split(&open, |j, i| {
                    let x = w.get(j);
                    saw_null[i] |= x.is_null();
                    !x.is_null() && v.get(i).sql_eq(&x)
                });
                hit.iter().for_each(|&i| out[i] = Some(!*negated));
            }
            open.iter().for_each(|&i| out[i] = (!saw_null[i]).then_some(*negated));
            Ok(bools(out))
        }
        BoundExpr::Between { expr, low, high, negated } => {
            map([eval(expr)?, eval(low)?, eval(high)?], n, |[v, lo, hi]| {
                between(v, lo, hi, *negated)
            })
        }
        BoundExpr::Like { expr, pattern, negated } => {
            map([eval(expr)?, eval(pattern)?], n, |[v, p]| like(v, p, *negated))
        }
        BoundExpr::Case { operand, branches, else_expr } => {
            let v = operand.as_deref().map(eval).transpose()?;
            let mut open: Vec<usize> = (0..n).collect();
            let mut arms: Vec<(Vec<usize>, &BoundExpr)> = Vec::new();
            for (when, then) in branches {
                let w = narrowed(when, table, sel, &open, params)?;
                let hit;
                (hit, open) = split(&open, |j, i| match &v {
                    Some(v) => !v.is_null(i) && !w.is_null(j) && v.get(i).sql_eq(&w.get(j)),
                    None => w.is_bool(j, true),
                });
                arms.push((hit, then));
            }
            if let Some(e) = else_expr {
                arms.push((open, e));
            }
            let mut out = vec![Value::Null; n];
            for (slots, e) in arms {
                let r = narrowed(e, table, sel, &slots, params)?;
                if slots.len() == n {
                    return Ok(r);
                }
                for (j, &i) in slots.iter().enumerate() {
                    out[i] = r.get(j);
                }
            }
            Ok(Vector::Values(out))
        }
        BoundExpr::Cast { expr, ty } => cast(eval(expr)?, *ty, n),
        BoundExpr::Func { func, args } => {
            let args = args.iter().map(eval).collect::<Result<Vec<_>>>()?;
            let at = |slot: usize| args.iter().map(|a| a.get(slot)).collect();
            if args.iter().all(|a| matches!(a, Vector::Const(_))) {
                return eval_func(*func, at(0)).map(Vector::Const);
            }
            (0..n).map(|i| eval_func(*func, at(i))).collect::<Result<_>>().map(Vector::Values)
        }
    }
}

/// `expr` at the rows behind `slots` of `sel` (all of `sel` when `slots`
/// lists every slot), slot `j` of the result standing for `slots[j]`.
pub(crate) fn narrowed<'t>(
    expr: &BoundExpr,
    table: &'t Table,
    sel: &Sel<'_>,
    slots: &[usize],
    params: &[Value],
) -> Result<Vector<'t>> {
    if slots.len() == sel.len() {
        return eval_column(expr, table, sel, params);
    }
    let rows = sel.rows_at(slots);
    eval_column(expr, table, &Sel::Rows(&rows), params)
}

/// Apply a scalar kernel at every slot — once, when every input is constant.
fn map<'t, const N: usize>(
    args: [Vector<'t>; N],
    n: usize,
    f: impl Fn([Value; N]) -> Result<Value>,
) -> Result<Vector<'t>> {
    let at = |slot: usize| std::array::from_fn(|k| args[k].get(slot));
    if args.iter().all(|a| matches!(a, Vector::Const(_))) {
        return f(at(0)).map(Vector::Const);
    }
    (0..n).map(|i| f(at(i))).collect::<Result<_>>().map(Vector::Values)
}

/// Split `slots` by `taken(j, slots[j])` into the taken and the rest.
fn split(slots: &[usize], mut taken: impl FnMut(usize, usize) -> bool) -> (Vec<usize>, Vec<usize>) {
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for (j, &i) in slots.iter().enumerate() {
        (if taken(j, i) { &mut hit } else { &mut miss }).push(i);
    }
    (hit, miss)
}

/// A BOOLEAN column of three-valued results.
fn bools<'t>(slots: Vec<Option<bool>>) -> Vector<'t> {
    let vals = slots.iter().map(|b| b.unwrap_or(false)).collect();
    let valid = slots.iter().map(Option::is_some).collect();
    Vector::Col(Cow::Owned(Column::Bool(vals, valid)))
}

/// A typed kernel operand: a column slice and its validity, or a non-NULL
/// constant.
#[derive(Clone, Copy)]
enum Side<'a, T> {
    Col(&'a [T], &'a Bitmap),
    Const(&'a T),
}

/// A [`Vector`] seen by the typed kernels.
enum Typed<'a> {
    Int(Side<'a, i64>),
    Double(Side<'a, f64>),
    Str(Side<'a, String>),
    Bool(Side<'a, bool>),
    Date(Side<'a, i32>),
}

impl<'a> Typed<'a> {
    fn of(v: &'a Vector<'_>) -> Option<Typed<'a>> {
        Some(match v {
            Vector::Col(c) => match &**c {
                Column::Int(x, b) => Typed::Int(Side::Col(x, b)),
                Column::Double(x, b) => Typed::Double(Side::Col(x, b)),
                Column::Str(x, b) => Typed::Str(Side::Col(x, b)),
                Column::Bool(x, b) => Typed::Bool(Side::Col(x, b)),
                Column::Date(x, b) => Typed::Date(Side::Col(x, b)),
                Column::Path(_) => return None,
            },
            Vector::Const(Value::Int(k)) => Typed::Int(Side::Const(k)),
            Vector::Const(Value::Double(k)) => Typed::Double(Side::Const(k)),
            Vector::Const(Value::Str(k)) => Typed::Str(Side::Const(k)),
            Vector::Const(Value::Bool(k)) => Typed::Bool(Side::Const(k)),
            Vector::Const(Value::Date(Date(k))) => Typed::Date(Side::Const(k)),
            _ => return None,
        })
    }
}

/// `f` over the slots where both sides are non-NULL; NULL elsewhere.
fn zip<A, B, T: Default + Clone>(
    a: Side<'_, A>,
    b: Side<'_, B>,
    n: usize,
    mut f: impl FnMut(&A, &B) -> Result<T>,
) -> Result<(Vec<T>, Bitmap)> {
    let mut out = Vec::with_capacity(n);
    let valid = match (a, b) {
        (Side::Col(x, vx), Side::Col(y, vy)) => {
            let valid: Bitmap = (0..n).map(|i| vx.get(i) && vy.get(i)).collect();
            for (i, (a, b)) in x.iter().zip(y).enumerate() {
                out.push(if valid.get(i) { f(a, b)? } else { T::default() });
            }
            valid
        }
        (Side::Col(x, vx), Side::Const(k)) => {
            for (i, a) in x.iter().enumerate() {
                out.push(if vx.get(i) { f(a, k)? } else { T::default() });
            }
            vx.clone()
        }
        (Side::Const(k), Side::Col(y, vy)) => {
            for (i, b) in y.iter().enumerate() {
                out.push(if vy.get(i) { f(k, b)? } else { T::default() });
            }
            vy.clone()
        }
        (Side::Const(j), Side::Const(k)) => {
            out.resize(n, f(j, k)?);
            Bitmap::with_value(n, true)
        }
    };
    Ok((out, valid))
}

/// A binary operator: a typed kernel when one applies, else the scalar one.
/// Two constants fold once.
fn binary<'t>(l: Vector<'t>, op: BinaryOp, r: Vector<'t>, n: usize) -> Result<Vector<'t>> {
    let constant = matches!((&l, &r), (Vector::Const(_), Vector::Const(_)));
    if let (false, Some(a), Some(b)) = (constant, Typed::of(&l), Typed::of(&r)) {
        if let Some(col) = typed_binary(a, op, b, n)? {
            return Ok(Vector::Col(Cow::Owned(col)));
        }
    }
    map([l, r], n, |[a, b]| eval_binary(a, op, b))
}

/// The typed binary kernels: INTEGER/DOUBLE arithmetic and comparisons of
/// like kinds, with the scalar kernels' semantics (`=` is `sql_eq`, ordering
/// is `total_cmp`). `None` leaves the pair to the scalar kernel.
fn typed_binary(l: Typed<'_>, op: BinaryOp, r: Typed<'_>, n: usize) -> Result<Option<Column>> {
    use BinaryOp::*;
    use Typed as T;
    let ints = |(v, b)| Column::Int(v, b);
    let doubles = |(v, b)| Column::Double(v, b);
    let arith = |a: f64, b: f64| f64_arith(a, op, b);
    let ord = |o: Ordering| Ok(cmp_matches(op, o));
    let float = |a: f64, b: f64| Ok(cmp_f64(op, a, b));
    Ok(Some(match (op, l, r) {
        (Add | Sub | Mul | Mod, T::Int(a), T::Int(b)) => {
            ints(zip(a, b, n, |x, y| int_arith(*x, op, *y))?)
        }
        (Add | Sub | Mul | Div | Mod, a, b) => doubles(match (a, b) {
            (T::Int(a), T::Int(b)) => zip(a, b, n, |x, y| arith(*x as f64, *y as f64))?,
            (T::Int(a), T::Double(b)) => zip(a, b, n, |x, y| arith(*x as f64, *y))?,
            (T::Double(a), T::Int(b)) => zip(a, b, n, |x, y| arith(*x, *y as f64))?,
            (T::Double(a), T::Double(b)) => zip(a, b, n, |x, y| arith(*x, *y))?,
            _ => return Ok(None),
        }),
        (Eq | NotEq | Lt | LtEq | Gt | GtEq, a, b) => {
            let (vals, valid) = match (a, b) {
                (T::Int(a), T::Int(b)) => zip(a, b, n, |x, y| ord(x.cmp(y)))?,
                (T::Int(a), T::Double(b)) => zip(a, b, n, |x, y| float(*x as f64, *y))?,
                (T::Double(a), T::Int(b)) => zip(a, b, n, |x, y| float(*x, *y as f64))?,
                (T::Double(a), T::Double(b)) => zip(a, b, n, |x, y| float(*x, *y))?,
                (T::Str(a), T::Str(b)) => zip(a, b, n, |x, y| ord(x.cmp(y)))?,
                (T::Bool(a), T::Bool(b)) => zip(a, b, n, |x, y| ord(x.cmp(y)))?,
                (T::Date(a), T::Date(b)) => zip(a, b, n, |x, y| ord(x.cmp(y)))?,
                _ => return Ok(None),
            };
            Column::Bool(vals, valid)
        }
        _ => return Ok(None),
    }))
}

/// `CAST`, with typed INTEGER ↔ DOUBLE kernels.
fn cast<'t>(v: Vector<'t>, ty: DataType, n: usize) -> Result<Vector<'t>> {
    let Vector::Col(c) = &v else { return map([v], n, |[x]| cast_value(x, ty)) };
    let col = match (&**c, ty) {
        (c, ty) if c.data_type() == ty => return Ok(v),
        (Column::Int(x, valid), DataType::Double) => {
            Column::Double(x.iter().map(|&a| a as f64).collect(), valid.clone())
        }
        (Column::Double(x, valid), DataType::Int) => {
            let mut out = Vec::with_capacity(n);
            for (i, &a) in x.iter().enumerate() {
                out.push(if valid.get(i) { f64_to_int(a)? } else { 0 });
            }
            Column::Int(out, valid.clone())
        }
        _ => return map([v], n, |[x]| cast_value(x, ty)),
    };
    Ok(Vector::Col(Cow::Owned(col)))
}

// ------------------------------------------------------------ scalar kernels

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

/// Three-valued OR (`or`) or AND (`!or`): `Some(or)` decides alone.
fn logic3(or: bool, a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(x), _) | (_, Some(x)) if x == or => Some(or),
        (Some(_), Some(_)) => Some(!or),
        _ => None,
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

/// A DOUBLE comparison: `=` / `<>` by IEEE equality (`sql_eq`: −0.0 equals
/// 0.0, NaN equals nothing), ordering by `total_cmp`.
fn cmp_f64(op: BinaryOp, a: f64, b: f64) -> bool {
    match op {
        BinaryOp::Eq => a == b,
        BinaryOp::NotEq => a != b,
        _ => cmp_matches(op, a.total_cmp(&b)),
    }
}

fn int_arith(a: i64, op: BinaryOp, b: i64) -> Result<i64> {
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
        _ => unreachable!("integer arithmetic operators only"),
    };
    out.ok_or_else(|| exec_err!("integer overflow in {a} {op:?} {b}"))
}

fn f64_arith(a: f64, op: BinaryOp, b: f64) -> Result<f64> {
    match op {
        BinaryOp::Add => Ok(a + b),
        BinaryOp::Sub => Ok(a - b),
        BinaryOp::Mul => Ok(a * b),
        BinaryOp::Div | BinaryOp::Mod if b == 0.0 => Err(exec_err!("division by zero")),
        BinaryOp::Div => Ok(a / b),
        BinaryOp::Mod => Ok(a % b),
        _ => unreachable!("arithmetic operators only"),
    }
}

fn eval_binary(l: Value, op: BinaryOp, r: Value) -> Result<Value> {
    use BinaryOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Add | Sub | Mul | Mod => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => int_arith(*a, op, *b).map(Value::Int),
            _ => {
                let a = l.as_double().ok_or_else(|| exec_err!("non-numeric operand: {l}"))?;
                let b = r.as_double().ok_or_else(|| exec_err!("non-numeric operand: {r}"))?;
                f64_arith(a, op, b).map(Value::Double)
            }
        },
        Div => {
            let (a, b) = (
                l.as_double().ok_or_else(|| exec_err!("non-numeric operand to '/': {l}"))?,
                r.as_double().ok_or_else(|| exec_err!("non-numeric operand to '/': {r}"))?,
            );
            f64_arith(a, Div, b).map(Value::Double)
        }
        Concat => Ok(Value::Str(format!("{l}{r}"))),
        Eq => Ok(Value::Bool(l.sql_eq(&r))),
        NotEq => Ok(Value::Bool(!l.sql_eq(&r))),
        Lt | LtEq | Gt | GtEq => Ok(Value::Bool(cmp_matches(op, compare(&l, &r)?))),
        And | Or => unreachable!("AND and OR short-circuit in the walk"),
    }
}

fn between(v: Value, lo: Value, hi: Value, negated: bool) -> Result<Value> {
    if v.is_null() || lo.is_null() || hi.is_null() {
        return Ok(Value::Null);
    }
    let inside = compare(&v, &lo)? != Ordering::Less && compare(&v, &hi)? != Ordering::Greater;
    Ok(Value::Bool(inside != negated))
}

fn like(v: Value, p: Value, negated: bool) -> Result<Value> {
    match (v, p) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Str(s), Value::Str(pat)) => Ok(Value::Bool(like_match(&s, &pat) != negated)),
        (a, b) => Err(exec_err!("LIKE requires strings, found {a} and {b}")),
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
    let name = || format!("{func:?}").to_uppercase();
    match (func, v) {
        (ScalarFunc::Upper, Value::Str(s)) => Ok(Value::Str(s.to_uppercase())),
        (ScalarFunc::Lower, Value::Str(s)) => Ok(Value::Str(s.to_lowercase())),
        (ScalarFunc::Length, Value::Str(s)) => Ok(Value::Int(s.chars().count() as i64)),
        (ScalarFunc::Upper | ScalarFunc::Lower | ScalarFunc::Length, other) => {
            Err(exec_err!("{} requires a string, found {other}", name()))
        }
        (ScalarFunc::Abs, Value::Int(x)) => {
            x.checked_abs().map(Value::Int).ok_or_else(|| exec_err!("integer overflow in ABS({x})"))
        }
        (ScalarFunc::Abs, Value::Double(x)) => Ok(Value::Double(x.abs())),
        (ScalarFunc::Round | ScalarFunc::Floor | ScalarFunc::Ceil, Value::Int(x)) => {
            Ok(Value::Int(x))
        }
        (ScalarFunc::Round, Value::Double(x)) => Ok(Value::Double(x.round())),
        (ScalarFunc::Floor, Value::Double(x)) => Ok(Value::Double(x.floor())),
        (ScalarFunc::Ceil, Value::Double(x)) => Ok(Value::Double(x.ceil())),
        (ScalarFunc::Abs | ScalarFunc::Round | ScalarFunc::Floor | ScalarFunc::Ceil, other) => {
            Err(exec_err!("{} requires a number, found {other}", name()))
        }
        (ScalarFunc::Sqrt, v) => {
            let x = v.as_double().ok_or_else(|| exec_err!("SQRT requires a number"))?;
            if x < 0.0 {
                return Err(exec_err!("SQRT of a negative number"));
            }
            Ok(Value::Double(x.sqrt()))
        }
        (ScalarFunc::Coalesce | ScalarFunc::Nullif, _) => unreachable!("handled above"),
    }
}

/// DOUBLE → INTEGER: truncation, for −2^63 ≤ x < 2^63 (every such double
/// truncates to an `i64` exactly).
fn f64_to_int(x: f64) -> Result<i64> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if (-TWO_63..TWO_63).contains(&x) {
        Ok(x.trunc() as i64)
    } else {
        Err(exec_err!("cannot cast {x} to INTEGER"))
    }
}

/// `CAST` semantics.
pub(crate) fn cast_value(v: Value, ty: DataType) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    if v.data_type() == Some(ty) {
        return Ok(v);
    }
    match (v, ty) {
        (Value::Int(x), DataType::Double) => Ok(Value::Double(x as f64)),
        (Value::Double(x), DataType::Int) => f64_to_int(x).map(Value::Int),
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
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
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

    #[test]
    fn full_range_column_references_are_borrowed() {
        let mut t = Table::empty(Schema::new(vec![ColumnDef::new("x", DataType::Int)]));
        for x in 0..4 {
            t.append_row(vec![Value::Int(x)]).unwrap();
        }
        let x = E::Column { index: 0, ty: DataType::Int };
        let full = eval_column(&x, &t, &Sel::all(&t), &[]).unwrap();
        assert!(matches!(full, Vector::Col(Cow::Borrowed(_))));
        let part = eval_column(&x, &t, &Sel::Range(1..3), &[]).unwrap();
        assert_eq!((part.get(0), part.get(1)), (Value::Int(1), Value::Int(2)));
    }

    // ------------------------------------- the row-at-a-time reference

    /// The row-at-a-time evaluator the walk replaced, kept verbatim as the
    /// oracle of the differential test below.
    mod reference {
        use super::super::*;

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
                    let inside = compare(&v, &lo)? != Ordering::Less
                        && compare(&v, &hi)? != Ordering::Greater;
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
    }

    use reference::{eval_row, TableRow};

    // ------------------------------------- generated differential test

    use gsql_storage::ColumnDef;
    use rand::prelude::*;
    use DataType::{Bool, Double, Int, Varchar};

    /// Column `2k` and `2k + 1` of every generated table, `params[k]` and
    /// the literals of [`random_value`] have type `TYPES[k]`.
    const TYPES: [DataType; 5] = [Int, Double, Varchar, Bool, DataType::Date];

    fn pick<'a, T>(rng: &mut SmallRng, xs: &'a [T]) -> &'a T {
        &xs[rng.gen_range(0..xs.len())]
    }

    fn random_value(rng: &mut SmallRng, ty: DataType) -> Value {
        if rng.gen_bool(0.15) {
            return Value::Null;
        }
        match ty {
            Int => Value::Int(*pick(rng, &[0, 1, -1, 2, 3, 7, -10, i64::MIN, i64::MAX])),
            Double => Value::Double(*pick(
                rng,
                &[0.0, -0.0, f64::NAN, 0.5, -2.5, 3.0, 1e300, f64::INFINITY, 9.3e18],
            )),
            Varchar => {
                Value::from(*pick(rng, &["", "a", "ab", "b%", "a_c", "12", "true", "2011-01-01"]))
            }
            Bool => Value::Bool(rng.gen_bool(0.5)),
            _ => Value::Date(Date(*pick(rng, &[0, -1, 15000, 15340]))),
        }
    }

    fn random_table(rng: &mut SmallRng) -> Table {
        let defs = (0..2 * TYPES.len()).map(|c| ColumnDef::new(format!("c{c}"), TYPES[c / 2]));
        let mut t = Table::empty(Schema::new(defs.collect()));
        for _ in 0..rng.gen_range(0..20) {
            let row = (0..2 * TYPES.len()).map(|c| random_value(rng, TYPES[c / 2])).collect();
            t.append_row(row).unwrap();
        }
        t
    }

    /// One parameter per type, then a NULL; `?7` is missing.
    fn params() -> Vec<Value> {
        let mut p = vec![Value::Int(2), Value::Double(-0.0), Value::from("a%"), Value::Bool(true)];
        p.extend([Value::Date(Date(15000)), Value::Null]);
        p
    }

    fn leaf(rng: &mut SmallRng, ty: DataType) -> E {
        let k = TYPES.iter().position(|&t| t == ty).expect("generated types");
        match rng.gen_range(0..10) {
            0..=4 => E::Column { index: 2 * k + rng.gen_range(0..2), ty },
            5..=7 => E::Literal(random_value(rng, ty)),
            _ => E::Param(if rng.gen_bool(0.9) { k } else { rng.gen_range(5..7) }),
        }
    }

    /// A random expression, usually of type `ty` — one in twenty nodes
    /// takes another type, so type errors are generated too.
    fn random_expr(rng: &mut SmallRng, ty: DataType, depth: u32) -> E {
        let ty = if rng.gen_bool(0.05) { *pick(rng, &TYPES) } else { ty };
        if depth == 0 || rng.gen_bool(0.2) {
            return leaf(rng, ty);
        }
        let d = depth - 1;
        let any = *pick(rng, &TYPES);
        // Two comparable operand types.
        let (a, b) = match any {
            Int | Double => (any, *pick(rng, &[Int, Double])),
            _ => (any, any),
        };
        let bx = |e: E| Box::new(e);
        let binary = |l, op, r| E::Binary { left: bx(l), op, right: bx(r) };
        match (ty, rng.gen_range(0..6)) {
            (_, 0) => {
                let operand = rng.gen_bool(0.5).then(|| bx(random_expr(rng, any, d)));
                let when_ty = if operand.is_some() { any } else { Bool };
                let branches = (0..rng.gen_range(1..4))
                    .map(|_| (random_expr(rng, when_ty, d), random_expr(rng, ty, d)))
                    .collect();
                let else_expr = rng.gen_bool(0.6).then(|| bx(random_expr(rng, ty, d)));
                E::Case { operand, branches, else_expr }
            }
            (_, 1) => {
                let func = *pick(rng, &[ScalarFunc::Coalesce, ScalarFunc::Nullif]);
                let arity = if func == ScalarFunc::Nullif { 2 } else { rng.gen_range(1..4) };
                E::Func { func, args: (0..arity).map(|_| random_expr(rng, ty, d)).collect() }
            }
            (_, 2) => E::Cast { expr: bx(random_expr(rng, any, d)), ty },
            (Int | Double, 3) => {
                let op = *pick(
                    rng,
                    &[BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div, BinaryOp::Mod],
                );
                binary(random_expr(rng, ty, d), op, random_expr(rng, b, d))
            }
            (Int | Double, 4) => E::Unary { op: UnaryOp::Neg, expr: bx(random_expr(rng, ty, d)) },
            (Int | Double, _) => {
                let funcs = [
                    ScalarFunc::Abs,
                    ScalarFunc::Round,
                    ScalarFunc::Floor,
                    ScalarFunc::Ceil,
                    ScalarFunc::Sqrt,
                ];
                let (func, arg) = match ty {
                    Int if rng.gen_bool(0.3) => (ScalarFunc::Length, Varchar),
                    _ => (*pick(rng, &funcs), ty),
                };
                E::Func { func, args: vec![random_expr(rng, arg, d)] }
            }
            (Bool, 3) => {
                let ops = [
                    BinaryOp::Eq,
                    BinaryOp::NotEq,
                    BinaryOp::Lt,
                    BinaryOp::LtEq,
                    BinaryOp::Gt,
                    BinaryOp::GtEq,
                ];
                binary(random_expr(rng, a, d), *pick(rng, &ops), random_expr(rng, b, d))
            }
            (Bool, 4) if rng.gen_bool(0.2) => {
                E::Unary { op: UnaryOp::Not, expr: bx(random_expr(rng, Bool, d)) }
            }
            (Bool, 4) => {
                let op = *pick(rng, &[BinaryOp::And, BinaryOp::Or]);
                binary(random_expr(rng, Bool, d), op, random_expr(rng, Bool, d))
            }
            (Bool, _) => {
                let negated = rng.gen_bool(0.3);
                match rng.gen_range(0..4) {
                    0 => E::IsNull { expr: bx(random_expr(rng, any, d)), negated },
                    1 => E::InList {
                        expr: bx(random_expr(rng, a, d)),
                        list: (0..rng.gen_range(1..4)).map(|_| random_expr(rng, b, d)).collect(),
                        negated,
                    },
                    2 => E::Between {
                        expr: bx(random_expr(rng, a, d)),
                        low: bx(random_expr(rng, b, d)),
                        high: bx(random_expr(rng, b, d)),
                        negated,
                    },
                    _ => E::Like {
                        expr: bx(random_expr(rng, Varchar, d)),
                        pattern: bx(random_expr(rng, Varchar, d)),
                        negated,
                    },
                }
            }
            (Varchar, 3 | 4) => {
                binary(random_expr(rng, any, d), BinaryOp::Concat, random_expr(rng, any, d))
            }
            (Varchar, _) => {
                let func = *pick(rng, &[ScalarFunc::Upper, ScalarFunc::Lower]);
                E::Func { func, args: vec![random_expr(rng, Varchar, d)] }
            }
            _ => leaf(rng, ty),
        }
    }

    /// Variant-exact equality, doubles by their bits.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            (Value::Null, Value::Null) => true,
            _ => a.data_type() == b.data_type() && a.sql_eq(b),
        }
    }

    type Answer = std::result::Result<Vec<Value>, String>;

    fn assert_same(got: &Answer, want: &Answer, what: &str) {
        let equal = match (got, want) {
            (Ok(g), Ok(w)) => g.len() == w.len() && g.iter().zip(w).all(|(g, w)| same(g, w)),
            (Err(g), Err(w)) => g == w,
            _ => false,
        };
        assert!(equal, "{what}:\n got {got:?}\nwant {want:?}");
    }

    /// The oracle over `rows`: every value, or the first failing row's error.
    fn reference(e: &E, t: &Table, rows: &[usize], params: &[Value]) -> Answer {
        let eval = |row| eval_row(e, &TableRow { table: t, row }, params);
        rows.iter().map(|&row| eval(row).map_err(|e| e.to_string())).collect()
    }

    /// The walk over consecutive selections, concatenated.
    fn walk(e: &E, t: &Table, sels: &[Sel<'_>], params: &[Value]) -> Answer {
        let mut out = Vec::new();
        for sel in sels {
            let v = first_error(sel, |s| {
                let v = eval_column(e, t, s, params)?;
                Ok((0..s.len()).map(|i| v.get(i)).collect::<Vec<_>>())
            });
            out.extend(v.map_err(|e| e.to_string())?);
        }
        Ok(out)
    }

    /// Random expressions over random tables: the walk over the full range,
    /// a random row subset, each single row and morsel-split ranges; the
    /// filter and column entry points over the full range. Every answer must
    /// equal the row-at-a-time oracle's, values variant-exact and errors
    /// the first failing row's.
    #[test]
    fn walk_matches_the_row_evaluator_on_generated_inputs() {
        let mut rng = SmallRng::seed_from_u64(2017);
        let params = params();
        for case in 0..300 {
            let t = random_table(&mut rng);
            let n = t.row_count();
            let all: Vec<usize> = (0..n).collect();
            let subset: Vec<usize> = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            let morsel = rng.gen_range(1..8);
            let morsels: Vec<Sel<'_>> =
                (0..n).step_by(morsel).map(|s| Sel::Range(s..(s + morsel).min(n))).collect();
            let singles: Vec<Sel<'_>> = (0..n).map(|r| Sel::Range(r..r + 1)).collect();
            for _ in 0..8 {
                let ty = *pick(&mut rng, &TYPES);
                let depth = rng.gen_range(1..5);
                let e = random_expr(&mut rng, ty, depth);
                let what = |shape: &str| format!("case {case}, {shape}: {e:?}");
                let want = reference(&e, &t, &all, &params);
                assert_same(&walk(&e, &t, &[Sel::all(&t)], &params), &want, &what("full range"));
                assert_same(&walk(&e, &t, &morsels, &params), &want, &what("morsels"));
                assert_same(&walk(&e, &t, &singles, &params), &want, &what("single rows"));
                let got = walk(&e, &t, &[Sel::Rows(&subset)], &params);
                assert_same(&got, &reference(&e, &t, &subset, &params), &what("row subset"));

                // The filter keeps the TRUE rows; the column converts like a push.
                let kept = eval_filter(&e, &t, &Sel::all(&t), &params).map_err(|e| e.to_string());
                let want_kept = want.clone().map(|vals| {
                    all.iter().filter(|&&r| vals[r] == Value::Bool(true)).copied().collect()
                });
                assert_eq!(kept, want_kept, "{}", what("filter"));
                let col = eval_to_column(&e, &t, &Sel::all(&t), &params, ty)
                    .map(|c| c.iter().collect())
                    .map_err(|e| e.to_string());
                let mut b = ColumnBuilder::new(ty);
                let want_col = all
                    .iter()
                    .try_for_each(|&row| {
                        let v = eval_row(&e, &TableRow { table: &t, row }, &params)?;
                        b.push(v).map_err(Error::Storage)
                    })
                    .map(|()| b.finish().iter().collect())
                    .map_err(|e| e.to_string());
                assert_same(&col, &want_col, &what("column"));
            }
        }
    }
}
