//! Join execution: a build-once, probe-per-morsel `JoinProbe` — hash
//! probing for equi-conditions, nested-loop probing otherwise (a cross
//! product is the nested loop with no condition: every row has the same
//! empty key).
//!
//! The build side is a pipeline breaker: its keys go through the key
//! kernel (`exec/keys.rs`) once, and each distinct key gets an id whose
//! build rows form a chain in ascending row order, so candidates come out
//! exactly as a row-by-row scan of the build side would list them. A probe
//! confirms one key per probe row and walks that chain. Probe parallelism
//! lives in the morsel scheduling (`exec/pipeline.rs`): each morsel probes
//! its own left rows and the pair lists concatenate in morsel order. Pairs
//! are gathered column-at-a-time (`Column::take`, and a NULL-extending
//! gather for a left join's unmatched rows).

use crate::error::Error;
use crate::exec::expression::{eval_filter, first_error, Sel};
use crate::exec::keys::{rows_eq, IdTable, JoinKeys};
use crate::plan::{BinaryOp, BoundExpr, JoinKind, PlanSchema};
use gsql_storage::{Column, ColumnDef, Schema, Table, Value};
use std::sync::Arc;

type Result<T> = std::result::Result<T, Error>;

/// The pairs a probe emits, as two row lists: left row `left[k]` joined
/// right row `right[k]`, or — a left outer join's NULL extension — no
/// right row, when `right[k]` is [`NULL_ROW`].
#[derive(Default)]
pub(crate) struct Pairs {
    left: Vec<usize>,
    right: Vec<usize>,
    /// True when some pair is a NULL extension.
    extended: bool,
}

/// The right row of a NULL extension.
const NULL_ROW: usize = usize::MAX;

impl Pairs {
    fn len(&self) -> usize {
        self.left.len()
    }

    fn push(&mut self, left: usize, right: usize) {
        self.left.push(left);
        self.right.push(right);
        self.extended |= right == NULL_ROW;
    }
}

/// The end of a build-row chain.
const END: u32 = u32::MAX;

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
    /// The build rows with a key (no NULL cell), their keys and hashes.
    /// Build positions index these; `build.slots[p]` is the row.
    build: JoinKeys<'static>,
    /// Distinct build keys: id `k`'s rows are the chain from `first[k]`.
    ids: IdTable,
    first: Vec<u32>,
    /// The next build position with the same key, or [`END`].
    next: Vec<u32>,
}

/// A residual predicate rebased onto the pair columns it reads: column `k`
/// of its input is pair-row ordinal `cols[k]`.
struct Residual {
    expr: BoundExpr,
    cols: Vec<usize>,
}

impl JoinProbe {
    /// Build the key table over `right`. A failing key surfaces the
    /// earliest failing row's error.
    pub fn build(
        right: Arc<Table>,
        kind: JoinKind,
        on: Option<&BoundExpr>,
        n_left: usize,
        params: &[Value],
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
        let build = JoinKeys::eval(&right_keys, &right, &Sel::all(&right), params)?.into_owned();
        let n = build.slots.len();
        let position = |p: usize| u32::try_from(p).expect("fewer than 2^32 build rows");
        let (mut ids, mut first, mut last) = (IdTable::with_capacity(n), Vec::new(), Vec::new());
        let mut next = vec![END; n];
        let cells = build.cells();
        for p in 0..n {
            let (id, new) = ids.find_or_insert(build.hashes[p], |id| {
                rows_eq(&cells, p, &cells, first[id] as usize)
            });
            if new {
                first.push(position(p));
                last.push(position(p));
            } else {
                next[last[id] as usize] = position(p);
                last[id] = position(p);
            }
        }
        Ok(JoinProbe { right, kind, n_left, left_keys, residual, build, ids, first, next })
    }

    /// Probe the selected left rows, returning their pairs in exactly the
    /// order a row-by-row probe emits them, or the first failing row's
    /// error.
    pub fn probe(&self, left: &Table, sel: &Sel<'_>, params: &[Value]) -> Result<Pairs> {
        first_error(sel, |sel| self.probe_batch(left, sel, params))
    }

    /// [`JoinProbe::probe`] without the error re-run. Without a residual
    /// the candidates are the pairs; with one, they meet it in batches of
    /// about the selection's size.
    fn probe_batch(&self, left: &Table, sel: &Sel<'_>, params: &[Value]) -> Result<Pairs> {
        let keys = JoinKeys::eval(&self.left_keys, left, sel, params)?;
        let (probe, build) = (keys.cells(), self.build.cells());
        let n = sel.len();
        let mut keyed = keys.slots.iter().enumerate().peekable();
        let (mut pairs, mut cand, mut first) = (Pairs::default(), Pairs::default(), 0);
        for slot in 0..n {
            let out = if self.residual.is_some() { &mut cand } else { &mut pairs };
            let before = out.len();
            if let Some((k, _)) = keyed.next_if(|&(_, &s)| s == slot) {
                let id = self
                    .ids
                    .find(keys.hashes[k], |id| rows_eq(&probe, k, &build, self.first[id] as usize));
                let mut p = id.map_or(END, |id| self.first[id]);
                while p != END {
                    out.push(sel.row(slot), self.build.slots[p as usize]);
                    p = self.next[p as usize];
                }
            }
            let Some(residual) = &self.residual else {
                if pairs.len() == before && self.kind == JoinKind::LeftOuter {
                    pairs.push(sel.row(slot), NULL_ROW);
                }
                continue;
            };
            if cand.len() < n && slot + 1 < n {
                continue;
            }
            let mut kept = self.residual(residual, left, &cand, params)?.into_iter().peekable();
            for i in (first..=slot).map(|s| sel.row(s)) {
                let before = pairs.len();
                while let Some(k) = kept.next_if(|&k| cand.left[k] == i) {
                    pairs.push(i, cand.right[k]);
                }
                if pairs.len() == before && self.kind == JoinKind::LeftOuter {
                    pairs.push(i, NULL_ROW);
                }
            }
            cand = Pairs::default();
            first = slot + 1;
        }
        Ok(pairs)
    }

    /// The candidates that pass the residual, as ascending indices into
    /// `cand`, evaluated over a table of just the pair columns it reads.
    fn residual(
        &self,
        residual: &Residual,
        left: &Table,
        cand: &Pairs,
        params: &[Value],
    ) -> Result<Vec<usize>> {
        let columns: Vec<Column> = residual
            .cols
            .iter()
            .map(|&c| match c.checked_sub(self.n_left) {
                None => left.column(c).take(&cand.left),
                Some(rc) => self.right.column(rc).take(&cand.right),
            })
            .collect();
        let defs =
            columns.iter().enumerate().map(|(k, c)| ColumnDef::new(k.to_string(), c.data_type()));
        let table =
            Table::from_columns(Schema::new(defs.collect()), columns).map_err(Error::Storage)?;
        eval_filter(&residual.expr, &table, &Sel::Range(0..cand.len()), params)
    }
}

/// Decompose `cond` into equi-key pairs `(left_expr, right_expr)` — where
/// one side references only left columns and the other only right columns —
/// plus a residual predicate of the remaining conjuncts.
fn split_equi_keys(
    cond: &BoundExpr,
    n_left: usize,
) -> (Vec<(BoundExpr, BoundExpr)>, Option<BoundExpr>) {
    let conjuncts = cond.conjuncts();
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

/// Materialize the joined pairs into an output table, column by column:
/// plain gathers, except that a NULL extension makes the right side a
/// NULL-extending gather.
pub(crate) fn materialize_pairs(
    left: &Table,
    right: &Table,
    pairs: &Pairs,
    schema: &PlanSchema,
) -> Result<Table> {
    let mut columns: Vec<Column> = left.columns().iter().map(|c| c.take(&pairs.left)).collect();
    let extended: Option<Vec<Option<usize>>> =
        pairs.extended.then(|| pairs.right.iter().map(|&j| (j != NULL_ROW).then_some(j)).collect());
    columns.extend(right.columns().iter().map(|c| match &extended {
        None => c.take(&pairs.right),
        Some(idx) => c.take_or_null(idx),
    }));
    // The plan schema may declare left columns nullable (outer-join shapes);
    // the storage schema of the output follows the plan.
    Table::from_columns(schema.to_storage_schema(), columns).map_err(Error::Storage)
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
        let probe = JoinProbe::build(right, kind, on, l.schema().len(), &[]).unwrap();
        let mut pairs = Pairs::default();
        for row in 0..l.row_count() {
            let morsel = probe.probe(l, &Sel::Range(row..row + 1), &[]).unwrap();
            for (&i, &j) in morsel.left.iter().zip(&morsel.right) {
                pairs.push(i, j);
            }
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
