//! Join execution: a build-once, probe-per-morsel [`JoinProbe`] — hash
//! probing for equi-conditions, nested-loop probing otherwise (a cross
//! product is the nested loop with no condition).
//!
//! The build side is a pipeline breaker: its keys are evaluated
//! chunk-parallel and inserted sequentially in row order, so candidate
//! lists are ordered exactly as a sequential build would order them. Probe
//! parallelism lives in the morsel scheduling (`exec/pipeline.rs`): each
//! morsel probes its own left rows and the pair lists concatenate in
//! morsel order.

use crate::error::Error;
use crate::exec::expression::{eval_filter, first_error, narrowed, Sel};
use crate::plan::{BinaryOp, BoundExpr, JoinKind, PlanSchema};
use gsql_parallel::Pool;
use gsql_storage::value::HashableValue;
use gsql_storage::{Column, ColumnDef, Schema, Table, Value};
use std::collections::HashMap;
use std::sync::Arc;

type Result<T> = std::result::Result<T, Error>;

/// A probe result: a left row and its matching right row, or `None` for a
/// left outer join's NULL extension.
type Pair = (usize, Option<usize>);

/// The build side of a join, prepared once and probed many times — the
/// pipeline engine builds this as a **breaker** (the build side is fully
/// executed and hashed before the probe pipeline starts) and then probes
/// it morsel by morsel with per-worker pair lists.
pub(crate) struct JoinProbe {
    /// The materialized build (right) side.
    pub right: Arc<Table>,
    kind: JoinKind,
    /// Column count of the probe (left) side: pair-row ordinals at or past
    /// it address `right`.
    n_left: usize,
    /// Equi-key expressions over the probe rows. With none, every row's
    /// key is empty and matches every build row: nested-loop probing.
    left_keys: Vec<BoundExpr>,
    /// Residual predicate over the joined pair row (the full condition for
    /// nested-loop probes; `None` with no equi keys is a cross product).
    residual: Option<Residual>,
    /// Hash table from equi key to build-side rows, in ascending row order.
    ht: HashMap<Vec<HashableValue>, Vec<usize>>,
}

/// A residual predicate rebased onto the pair columns it reads: column `k`
/// of its input is pair-row ordinal `cols[k]`.
struct Residual {
    expr: BoundExpr,
    cols: Vec<usize>,
}

impl JoinProbe {
    /// Build the hash table over `right` (key evaluation chunk-parallel,
    /// insertion sequential in row order — identical candidate ordering to
    /// a sequential build). Every chunk runs to completion and the first
    /// chunk's error wins, so a failing key surfaces the earliest failing
    /// row's error at every thread count.
    pub fn build(
        right: Arc<Table>,
        kind: JoinKind,
        on: Option<&BoundExpr>,
        n_left: usize,
        params: &[Value],
        pool: &Pool,
    ) -> Result<JoinProbe> {
        let (equi, residual) = match on {
            Some(cond) => split_equi_keys(cond, n_left),
            None => (Vec::new(), None),
        };
        let (left_keys, right_keys): (Vec<_>, Vec<_>) = equi.into_iter().unzip();
        let residual = residual.map(|expr| {
            let cols = expr.referenced_columns();
            Residual { expr: expr.remap_columns(&|c| cols.partition_point(|&x| x < c)), cols }
        });
        let mut ht: HashMap<Vec<HashableValue>, Vec<usize>> = HashMap::new();
        let chunks = pool.map_chunks(right.row_count(), |range| {
            hash_keys(&right_keys, &right, &Sel::Range(range), params)
        });
        let (w, mut j) = (right_keys.len(), 0);
        for chunk in chunks {
            let (flat, has_key) = chunk?;
            for (slot, _) in has_key.iter().enumerate().filter(|(_, &has)| has) {
                ht.entry(flat[slot * w..(slot + 1) * w].to_vec()).or_default().push(j + slot);
            }
            j += has_key.len();
        }
        Ok(JoinProbe { right, kind, n_left, left_keys, residual, ht })
    }

    /// Probe the selected left rows, returning their pairs in exactly the
    /// order a row-by-row probe emits them, or the first failing row's
    /// error.
    pub fn probe(&self, left: &Table, sel: &Sel<'_>, params: &[Value]) -> Result<Vec<Pair>> {
        first_error(sel, |sel| self.probe_batch(left, sel, params))
    }

    /// [`JoinProbe::probe`] without the error re-run. Candidate pairs meet
    /// the residual in batches of about the selection's size.
    fn probe_batch(&self, left: &Table, sel: &Sel<'_>, params: &[Value]) -> Result<Vec<Pair>> {
        let (flat, has_key) = hash_keys(&self.left_keys, left, sel, params)?;
        let w = self.left_keys.len();
        let (mut pairs, mut cand, mut first) = (Vec::new(), Vec::new(), 0);
        for (slot, &has) in has_key.iter().enumerate() {
            let js = has.then(|| self.ht.get(&flat[slot * w..(slot + 1) * w])).flatten();
            let js = js.map_or(&[][..], Vec::as_slice);
            cand.extend(js.iter().map(|&j| (sel.row(slot), j)));
            if cand.len() < sel.len() && slot + 1 < sel.len() {
                continue;
            }
            let mut kept =
                self.residual(left, std::mem::take(&mut cand), params)?.into_iter().peekable();
            for i in (first..=slot).map(|s| sel.row(s)) {
                let before = pairs.len();
                while let Some((_, j)) = kept.next_if(|&(l, _)| l == i) {
                    pairs.push((i, Some(j)));
                }
                if pairs.len() == before && self.kind == JoinKind::LeftOuter {
                    pairs.push((i, None));
                }
            }
            first = slot + 1;
        }
        Ok(pairs)
    }

    /// The candidate `(left_row, right_row)` pairs that pass the residual
    /// (all of them, without one), evaluated over a table of just the pair
    /// columns it reads.
    fn residual(
        &self,
        left: &Table,
        cand: Vec<(usize, usize)>,
        params: &[Value],
    ) -> Result<Vec<(usize, usize)>> {
        let Some(residual) = &self.residual else { return Ok(cand) };
        let (li, ri): (Vec<usize>, Vec<usize>) = cand.iter().copied().unzip();
        let columns: Vec<Column> = residual
            .cols
            .iter()
            .map(|&c| match c.checked_sub(self.n_left) {
                None => left.column(c).take(&li),
                Some(rc) => self.right.column(rc).take(&ri),
            })
            .collect();
        let defs =
            columns.iter().enumerate().map(|(k, c)| ColumnDef::new(k.to_string(), c.data_type()));
        let table =
            Table::from_columns(Schema::new(defs.collect()), columns).map_err(Error::Storage)?;
        let kept = eval_filter(&residual.expr, &table, &Sel::Range(0..cand.len()), params)?;
        Ok(kept.into_iter().map(|k| cand[k]).collect())
    }
}

/// Decompose `cond` into equi-key pairs `(left_expr, right_expr)` — where
/// one side references only left columns and the other only right columns —
/// plus a residual predicate of the remaining conjuncts.
fn split_equi_keys(
    cond: &BoundExpr,
    n_left: usize,
) -> (Vec<(BoundExpr, BoundExpr)>, Option<BoundExpr>) {
    let mut conjuncts = Vec::new();
    flatten_and(cond, &mut conjuncts);
    let mut equi = Vec::new();
    let mut residual: Option<BoundExpr> = None;
    for c in conjuncts {
        if let BoundExpr::Binary { left, op: BinaryOp::Eq, right } = &c {
            let l_side = side_of(left, n_left);
            let r_side = side_of(right, n_left);
            match (l_side, r_side) {
                (Side::Left, Side::Right) => {
                    // Rebase the right expression onto right-table ordinals.
                    equi.push(((**left).clone(), rebase(right, n_left)));
                    continue;
                }
                (Side::Right, Side::Left) => {
                    equi.push(((**right).clone(), rebase(left, n_left)));
                    continue;
                }
                _ => {}
            }
        }
        residual = Some(match residual {
            None => c,
            Some(r) => {
                BoundExpr::Binary { left: Box::new(r), op: BinaryOp::And, right: Box::new(c) }
            }
        });
    }
    (equi, residual)
}

#[derive(PartialEq, Clone, Copy)]
enum Side {
    Left,
    Right,
    Both,
    Neither,
}

fn side_of(e: &BoundExpr, n_left: usize) -> Side {
    let cols = e.referenced_columns();
    let has_left = cols.iter().any(|&c| c < n_left);
    let has_right = cols.iter().any(|&c| c >= n_left);
    match (has_left, has_right) {
        (true, true) => Side::Both,
        (true, false) => Side::Left,
        (false, true) => Side::Right,
        (false, false) => Side::Neither,
    }
}

fn rebase(e: &BoundExpr, n_left: usize) -> BoundExpr {
    e.remap_columns(&|i| i - n_left)
}

fn flatten_and(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
    if let BoundExpr::Binary { left, op: BinaryOp::And, right } = e {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e.clone());
    }
}

/// The equi-keys of the selected rows, `keys.len()` cells per row in one
/// buffer, and which rows have a key: a row with a NULL cell has none (NULL
/// keys never match), and its cells after the first NULL are not
/// evaluated. A failure reports the first failing row's error.
fn hash_keys(
    keys: &[BoundExpr],
    table: &Table,
    sel: &Sel<'_>,
    params: &[Value],
) -> Result<(Vec<HashableValue>, Vec<bool>)> {
    first_error(sel, |sel| {
        let w = keys.len();
        let mut flat = vec![HashableValue(Value::Null); sel.len() * w];
        let mut live: Vec<usize> = (0..sel.len()).collect();
        for (c, key) in keys.iter().enumerate() {
            let v = narrowed(key, table, sel, &live, params)?;
            let mut still = Vec::with_capacity(live.len());
            for (j, &i) in live.iter().enumerate() {
                let cell = &mut flat[i * w + c];
                *cell = HashableValue(v.get(j));
                if !cell.0.is_null() {
                    still.push(i);
                }
            }
            live = still;
        }
        let mut has_key = vec![false; sel.len()];
        live.into_iter().for_each(|i| has_key[i] = true);
        Ok((flat, has_key))
    })
}

/// Materialize the joined pairs into an output table.
pub(crate) fn materialize_pairs(
    left: &Table,
    right: &Table,
    pairs: &[(usize, Option<usize>)],
    schema: &PlanSchema,
) -> Result<Table> {
    let left_idx: Vec<usize> = pairs.iter().map(|&(i, _)| i).collect();
    let mut columns = Vec::with_capacity(schema.len());
    for c in left.columns() {
        columns.push(c.take(&left_idx));
    }
    // The right side may contain NULL extensions; gather cell-wise.
    let storage = schema.to_storage_schema();
    for (ci, def) in storage.columns().iter().enumerate().skip(left.schema().len()) {
        let rci = ci - left.schema().len();
        let mut b = gsql_storage::ColumnBuilder::new(def.ty);
        for &(_, j) in pairs {
            let v = match j {
                Some(j) => right.column(rci).get(j),
                None => Value::Null,
            };
            b.push(v).map_err(Error::Storage)?;
        }
        columns.push(b.finish());
    }
    // The plan schema may declare left columns nullable (outer-join shapes);
    // the storage schema of the output follows the plan.
    Table::from_columns(storage, columns).map_err(Error::Storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanColumn;
    use gsql_storage::{ColumnDef, DataType, Schema};

    fn table(name_prefix: &str, rows: &[(i64, &str)]) -> Table {
        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::not_null(format!("{name_prefix}_id"), DataType::Int),
            ColumnDef::new(format!("{name_prefix}_v"), DataType::Varchar),
        ]));
        for (id, v) in rows {
            t.append_row(vec![Value::Int(*id), Value::from(*v)]).unwrap();
        }
        t
    }

    fn out_schema(l: &Table, r: &Table) -> PlanSchema {
        let mut s = PlanSchema::default();
        for c in l.schema().columns().iter().chain(r.schema().columns()) {
            s.push(PlanColumn::new(c.name.clone(), c.ty));
        }
        s
    }

    fn eq_cond(li: usize, ri: usize) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::Column { index: li, ty: DataType::Int }),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::Column { index: ri, ty: DataType::Int }),
        }
    }

    /// Join the way the pipeline does: build once, then probe the left
    /// rows in one-row morsels whose pair lists concatenate in morsel order.
    fn join(
        l: &Table,
        r: &Table,
        kind: JoinKind,
        on: Option<&BoundExpr>,
        schema: &PlanSchema,
    ) -> Table {
        let right = Arc::new(r.clone());
        let probe =
            JoinProbe::build(right, kind, on, l.schema().len(), &[], &Pool::new(2)).unwrap();
        let mut pairs = Vec::new();
        for row in 0..l.row_count() {
            pairs.extend(probe.probe(l, &Sel::Range(row..row + 1), &[]).unwrap());
        }
        materialize_pairs(l, &probe.right, &pairs, schema).unwrap()
    }

    #[test]
    fn inner_equi_join_matches() {
        let l = table("l", &[(1, "a"), (2, "b"), (3, "c")]);
        let r = table("r", &[(2, "x"), (3, "y"), (3, "z"), (4, "w")]);
        let schema = out_schema(&l, &r);
        let out = join(&l, &r, JoinKind::Inner, Some(&eq_cond(0, 2)), &schema);
        assert_eq!(out.row_count(), 3); // 2-x, 3-y, 3-z
    }

    #[test]
    fn left_outer_join_null_extends() {
        let l = table("l", &[(1, "a"), (2, "b")]);
        let r = table("r", &[(2, "x")]);
        let mut schema = PlanSchema::default();
        for c in l.schema().columns() {
            schema.push(PlanColumn::new(c.name.clone(), c.ty));
        }
        for c in r.schema().columns() {
            let mut pc = PlanColumn::new(c.name.clone(), c.ty);
            pc.nullable = true;
            schema.push(pc);
        }
        let out = join(&l, &r, JoinKind::LeftOuter, Some(&eq_cond(0, 2)), &schema);
        assert_eq!(out.row_count(), 2);
        // Row for id=1 has NULLs on the right.
        let row = out.row(0);
        assert_eq!(row[0], Value::Int(1));
        assert!(row[2].is_null());
        assert!(row[3].is_null());
    }

    #[test]
    fn cross_join_product() {
        let l = table("l", &[(1, "a"), (2, "b")]);
        let r = table("r", &[(10, "x"), (20, "y"), (30, "z")]);
        let schema = out_schema(&l, &r);
        let out = join(&l, &r, JoinKind::Cross, None, &schema);
        assert_eq!(out.row_count(), 6);
        // Left-major order: every right row under the first left row first.
        assert_eq!(out.row(2)[0], Value::Int(1));
        assert_eq!(out.row(2)[2], Value::Int(30));
        assert_eq!(out.row(3)[0], Value::Int(2));
    }

    #[test]
    fn inequality_join_scans_the_build_side() {
        let l = table("l", &[(1, "a"), (5, "b")]);
        let r = table("r", &[(2, "x"), (4, "y")]);
        let schema = out_schema(&l, &r);
        let cond = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column { index: 0, ty: DataType::Int }),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::Column { index: 2, ty: DataType::Int }),
        };
        let out = join(&l, &r, JoinKind::Inner, Some(&cond), &schema);
        assert_eq!(out.row_count(), 2); // 1<2, 1<4
    }

    #[test]
    fn null_keys_never_match() {
        let mut l = Table::empty(Schema::new(vec![ColumnDef::new("a", DataType::Int)]));
        l.append_row(vec![Value::Null]).unwrap();
        l.append_row(vec![Value::Int(1)]).unwrap();
        let mut r = Table::empty(Schema::new(vec![ColumnDef::new("b", DataType::Int)]));
        r.append_row(vec![Value::Null]).unwrap();
        r.append_row(vec![Value::Int(1)]).unwrap();
        let mut schema = PlanSchema::default();
        schema.push(PlanColumn::new("a", DataType::Int));
        schema.push(PlanColumn::new("b", DataType::Int));
        let out = join(&l, &r, JoinKind::Inner, Some(&eq_cond(0, 1)), &schema);
        assert_eq!(out.row_count(), 1); // only 1 = 1
    }

    #[test]
    fn equi_key_with_residual() {
        let l = table("l", &[(1, "keep"), (1, "drop")]);
        let r = table("r", &[(1, "x")]);
        let schema = out_schema(&l, &r);
        // l_id = r_id AND l_v = 'keep'
        let cond = BoundExpr::Binary {
            left: Box::new(eq_cond(0, 2)),
            op: BinaryOp::And,
            right: Box::new(BoundExpr::Binary {
                left: Box::new(BoundExpr::Column { index: 1, ty: DataType::Varchar }),
                op: BinaryOp::Eq,
                right: Box::new(BoundExpr::Literal(Value::from("keep"))),
            }),
        };
        let out = join(&l, &r, JoinKind::Inner, Some(&cond), &schema);
        assert_eq!(out.row_count(), 1);
        assert_eq!(out.row(0)[1], Value::from("keep"));
    }
}
