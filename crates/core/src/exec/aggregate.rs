//! Hash aggregation as a pipeline sink: each morsel folds into a mergeable
//! `AggPartial` (`aggregate_morsel`), and `AggMerger` folds the
//! partials **in morsel-index order**.
//!
//! A morsel is folded column-at-a-time: the key kernel (`exec/keys.rs`)
//! hashes the group keys and assigns every slot a group id, then each
//! aggregate takes one pass over its argument column, with typed INTEGER
//! and DOUBLE arms and a [`Value`] fallback for the other types. Group keys
//! are kept as typed columns, in first-seen order. A DISTINCT aggregate
//! dedups its (group, argument) pairs through the same kernel
//! (`DistinctSet`), per morsel and again in the merge.
//!
//! Morsels are in row order and each partial lists its groups in
//! first-seen order, so the merged group order is the global first-seen
//! order of a sequential scan. Accumulators see their rows in ascending
//! order and merge in morsel order, so every result — including float
//! sums, whose value depends on addition order — depends only on the
//! morsel boundaries (input size and `morsel_rows`), never on the thread
//! count.

use crate::error::{exec_err, Error};
use crate::exec::expression::{eval_column, Sel, Vector};
use crate::exec::keys::{cells_eq, hash_rows, rows_eq, Cells, Data, IdTable};
use crate::plan::{AggCall, AggFunc, BoundExpr, PlanSchema};
use gsql_storage::{Column, ColumnBuilder, DataType, Table, Value};
use std::cmp::Ordering;
use std::sync::Arc;

type Result<T> = std::result::Result<T, Error>;

/// Running state of one aggregate within one group.
#[derive(Debug)]
enum AggState {
    Count(i64),
    SumInt(Option<i64>),
    SumDouble(Option<f64>),
    MinMax { current: Option<Value>, is_min: bool },
    Avg { sum: f64, count: i64 },
}

impl AggState {
    fn new(call: &AggCall) -> AggState {
        match call.func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => match call.out_ty {
                DataType::Double => AggState::SumDouble(None),
                _ => AggState::SumInt(None),
            },
            AggFunc::Min => AggState::MinMax { current: None, is_min: true },
            AggFunc::Max => AggState::MinMax { current: None, is_min: false },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Fold in a non-NULL INTEGER argument.
    fn add_int(&mut self, x: i64) -> Result<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::SumInt(acc) => {
                let sum = acc.unwrap_or(0).checked_add(x);
                *acc = Some(sum.ok_or_else(|| exec_err!("integer overflow in SUM"))?);
            }
            AggState::SumDouble(acc) => *acc = Some(acc.unwrap_or(0.0) + x as f64),
            AggState::MinMax { current: Some(Value::Int(c)), is_min } => {
                if if *is_min { x < *c } else { x > *c } {
                    *c = x;
                }
            }
            AggState::MinMax { current, is_min } => keep_extreme(current, Value::Int(x), *is_min),
            AggState::Avg { sum, count } => {
                *sum += x as f64;
                *count += 1;
            }
        }
        Ok(())
    }

    /// Fold in a non-NULL DOUBLE argument.
    fn add_double(&mut self, x: f64) -> Result<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::SumInt(_) => {
                return Err(exec_err!("SUM over non-integer value {}", Value::Double(x)))
            }
            AggState::SumDouble(acc) => *acc = Some(acc.unwrap_or(0.0) + x),
            AggState::MinMax { current: Some(Value::Double(c)), is_min } => {
                let wanted = if *is_min { Ordering::Less } else { Ordering::Greater };
                if x.total_cmp(c) == wanted {
                    *c = x;
                }
            }
            AggState::MinMax { current, is_min } => {
                keep_extreme(current, Value::Double(x), *is_min)
            }
            AggState::Avg { sum, count } => {
                *sum += x;
                *count += 1;
            }
        }
        Ok(())
    }

    /// Fold in one argument value; `None` is a `COUNT(*)` row. NULLs are
    /// skipped.
    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match (v, &mut *self) {
            (None, AggState::Count(n)) => *n += 1,
            (None | Some(Value::Null), _) => {}
            (Some(Value::Int(x)), _) => return self.add_int(*x),
            (Some(Value::Double(x)), _) => return self.add_double(*x),
            (Some(_), AggState::Count(n)) => *n += 1,
            (Some(v), AggState::MinMax { current, is_min }) => {
                keep_extreme(current, v.clone(), *is_min)
            }
            (Some(v), AggState::SumInt(_)) => {
                return Err(exec_err!("SUM over non-integer value {v}"))
            }
            (Some(v), AggState::SumDouble(_)) => {
                return Err(exec_err!("SUM over non-numeric value {v}"))
            }
            (Some(v), AggState::Avg { .. }) => {
                return Err(exec_err!("AVG over non-numeric value {v}"))
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::SumInt(acc) => acc.map(Value::Int).unwrap_or(Value::Null),
            AggState::SumDouble(acc) => acc.map(Value::Double).unwrap_or(Value::Null),
            AggState::MinMax { current, .. } => current.unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / count as f64)
                }
            }
        }
    }

    /// Fold another partial of the **same aggregate** into this one. The
    /// pipeline merge calls this in morsel-index order, so float results
    /// depend only on the morsel boundaries (fixed by input size and
    /// `morsel_rows`), never on the thread count.
    fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            // A partial sum or extreme folds in like one more input value.
            (s @ AggState::SumInt(_), AggState::SumInt(b)) => {
                s.update(b.map(Value::Int).as_ref())?
            }
            (s @ AggState::SumDouble(_), AggState::SumDouble(b)) => {
                s.update(b.map(Value::Double).as_ref())?
            }
            (s @ AggState::MinMax { .. }, AggState::MinMax { current, .. }) => {
                s.update(current.as_ref())?
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            _ => return Err(exec_err!("mismatched aggregate states in merge")),
        }
        Ok(())
    }
}

/// Replace `current` by `v` when `v` is a new minimum (or maximum); ties
/// keep the value seen first.
fn keep_extreme(current: &mut Option<Value>, v: Value, is_min: bool) {
    let wanted = if is_min { Ordering::Less } else { Ordering::Greater };
    if current.as_ref().is_none_or(|cur| v.total_cmp(cur) == wanted) {
        *current = Some(v);
    }
}

/// Fold one argument column into the states of aggregate `i`: slot `s`
/// belongs to group `gids[s]`, whose state is `states[gids[s] * width + i]`.
fn update_column(
    states: &mut [AggState],
    width: usize,
    i: usize,
    gids: &[u32],
    arg: Option<&Vector<'_>>,
) -> Result<()> {
    let at = |s: usize| gids[s] as usize * width + i;
    let Some(cells) = arg.map(Cells::of_vector) else {
        return (0..gids.len()).try_for_each(|s| states[at(s)].update(None));
    };
    fold_cells(states, cells, 0..gids.len(), at)
}

/// Fold the non-NULL cells at `slots` into the states `at(slot)`, with
/// typed arms for INTEGER and DOUBLE columns.
fn fold_cells(
    states: &mut [AggState],
    cells: Cells<'_>,
    slots: impl IntoIterator<Item = usize>,
    at: impl Fn(usize) -> usize,
) -> Result<()> {
    let mut slots = slots.into_iter().filter(|&s| !cells.is_null(s));
    match cells.data() {
        Data::Int(v) => slots.try_for_each(|s| states[at(s)].add_int(v[s])),
        Data::Double(v) => slots.try_for_each(|s| states[at(s)].add_double(v[s])),
        _ => slots.try_for_each(|s| states[at(s)].update(Some(&cells.get(s)))),
    }
}

/// Group keys in first-seen order: the key kernel's hash table from a key
/// to its dense group id, and each group's key as a row of typed columns.
struct GroupKeys {
    ids: IdTable,
    cols: Vec<Column>,
    /// Whether column `c` holds a NULL key yet.
    has_null: Vec<bool>,
}

impl GroupKeys {
    fn new(n_keys: usize, schema: &PlanSchema) -> GroupKeys {
        let cols: Vec<Column> =
            schema.columns()[..n_keys].iter().map(|c| Column::empty(c.ty)).collect();
        GroupKeys { ids: IdTable::with_capacity(16), has_null: vec![false; cols.len()], cols }
    }

    /// The group id of each row of `keys` (whose hashes are `hashes`),
    /// adding unseen keys as new groups in row order and calling `added`
    /// once for each.
    fn assign(
        &mut self,
        keys: &[Cells<'_>],
        hashes: &[u64],
        mut added: impl FnMut(),
    ) -> Result<Vec<u32>> {
        fn views<'c>(cols: &'c [Column], has_null: &[bool]) -> Vec<Cells<'c>> {
            cols.iter().zip(has_null).map(|(c, &nulls)| Cells::with_nulls(c, nulls)).collect()
        }
        let mut stored = views(&self.cols, &self.has_null);
        let mut gids = Vec::with_capacity(hashes.len());
        for (row, &hash) in hashes.iter().enumerate() {
            let (g, new) = self.ids.find_or_insert(hash, |g| rows_eq(keys, row, &stored, g));
            if new {
                for ((col, has_null), c) in self.cols.iter_mut().zip(&mut self.has_null).zip(keys) {
                    let v = c.get(row);
                    *has_null |= v.is_null();
                    col.push(v).map_err(Error::Storage)?;
                }
                stored = views(&self.cols, &self.has_null);
                added();
            }
            gids.push(g as u32);
        }
        Ok(gids)
    }
}

/// The distinct (group, argument) pairs of one DISTINCT aggregate in
/// first-seen order, deduplicated by the key kernel: NULL arguments are
/// skipped, NaN matches nothing, `-0.0` equals `0.0` and `1` equals `1.0`.
struct DistinctSet {
    ids: IdTable,
    /// Pair `p` is `(groups[p], values[p])`.
    groups: Vec<u32>,
    values: Vec<Value>,
}

impl DistinctSet {
    fn new() -> DistinctSet {
        DistinctSet { ids: IdTable::with_capacity(16), groups: Vec::new(), values: Vec::new() }
    }

    /// Add the pair `(gids[s], arg[s])` of every slot `s` whose argument is
    /// not NULL; returns the slots whose pair was new, ascending.
    fn insert(&mut self, gids: &[u32], arg: Cells<'_>) -> Vec<usize> {
        let groups = Column::from_ints(gids.iter().map(|&g| i64::from(g)).collect());
        let hashes = hash_rows(&[Cells::of_column(&groups), arg], 0..gids.len());
        let mut fresh = Vec::new();
        for s in (0..gids.len()).filter(|&s| !arg.is_null(s)) {
            let (groups, values) = (&self.groups, Cells::of_values(&self.values));
            let (_, new) = self
                .ids
                .find_or_insert(hashes[s], |p| groups[p] == gids[s] && cells_eq(arg, s, values, p));
            if new {
                self.groups.push(gids[s]);
                self.values.push(arg.get(s));
                fresh.push(s);
            }
        }
        fresh
    }
}

/// The aggregate partial of one morsel: its groups in first-seen order.
pub(crate) struct AggPartial {
    /// Group `g`'s key is row `g` of these columns; its hash is `hashes[g]`.
    keys: Vec<Column>,
    hashes: Vec<u64>,
    /// Group `g`'s state of aggregate `i` is `states[g * aggs.len() + i]`,
    /// fed only this morsel's rows (ascending row order).
    states: Vec<AggState>,
    /// Per DISTINCT aggregate, the pairs this morsel saw. Their state
    /// updates are deferred entirely to the merge, which dedups across
    /// morsels (so their states here stay empty): merging two partials
    /// that each saw the same value must not count it twice.
    distinct: Vec<Option<DistinctSet>>,
}

/// Aggregate one morsel's selected rows into a mergeable partial. A failure
/// reports the first failing row's error: the morsel is folded again one
/// row at a time into a fresh partial, so errors that depend on the rows
/// before (a `SUM` overflow) surface exactly as a row-by-row fold meets them.
pub(crate) fn aggregate_morsel(
    input: &Table,
    sel: &Sel<'_>,
    group: &[BoundExpr],
    aggs: &[AggCall],
    schema: &PlanSchema,
    params: &[Value],
) -> Result<AggPartial> {
    let fresh = || MorselFold::new(GroupKeys::new(group.len(), schema), aggs);
    let mut fold = fresh();
    fold.rows(input, sel, group, aggs, params).or_else(|err| {
        fold = fresh();
        for one in sel.singles() {
            fold.rows(input, &one, group, aggs, params)?;
        }
        Err(err)
    })?;
    let MorselFold { groups, states, distinct } = fold;
    let hashes = groups.ids.hashes().to_vec();
    Ok(AggPartial { keys: groups.cols, hashes, states, distinct })
}

/// A morsel's groups in first-seen order and the morsel-local dedup sets
/// of DISTINCT aggregates (the merge dedups across morsels; these just keep
/// the per-morsel pair lists small). Fields use [`AggPartial`]'s layout.
struct MorselFold {
    groups: GroupKeys,
    states: Vec<AggState>,
    distinct: Vec<Option<DistinctSet>>,
}

impl MorselFold {
    fn new(groups: GroupKeys, aggs: &[AggCall]) -> MorselFold {
        let distinct = aggs.iter().map(|a| a.distinct.then(DistinctSet::new)).collect();
        MorselFold { groups, states: Vec::new(), distinct }
    }

    /// Fold the selected rows: group ids for every slot first, then one
    /// pass per aggregate.
    fn rows(
        &mut self,
        input: &Table,
        sel: &Sel<'_>,
        group: &[BoundExpr],
        aggs: &[AggCall],
        params: &[Value],
    ) -> Result<()> {
        let eval = |e: &BoundExpr| eval_column(e, input, sel, params);
        let keys = group.iter().map(eval).collect::<Result<Vec<_>>>()?;
        let args = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(eval).transpose())
            .collect::<Result<Vec<_>>>()?;
        let keys: Vec<Cells<'_>> = keys.iter().map(Cells::of_vector).collect();
        let gids = self.groups.assign(&keys, &hash_rows(&keys, 0..sel.len()), || {
            self.states.extend(aggs.iter().map(AggState::new));
        })?;
        for (i, (set, arg)) in self.distinct.iter_mut().zip(&args).enumerate() {
            match set {
                None => update_column(&mut self.states, aggs.len(), i, &gids, arg.as_ref())?,
                Some(set) => {
                    let cells =
                        arg.as_ref().map(Cells::of_vector).expect("DISTINCT has an argument");
                    set.insert(&gids, cells);
                }
            }
        }
        Ok(())
    }
}

/// Sequential merger of morsel [`AggPartial`]s, consumed strictly in
/// morsel-index order. Group output order is global first-seen order —
/// identical to a sequential scan, because morsels are in row order and
/// each partial's groups are in first-seen order within its morsel.
/// Per-group vectors use [`AggPartial`]'s layout.
pub(crate) struct AggMerger<'a> {
    aggs: &'a [AggCall],
    groups: GroupKeys,
    states: Vec<AggState>,
    distinct: Vec<Option<DistinctSet>>,
}

impl<'a> AggMerger<'a> {
    /// A merger for `aggs` grouped by `n_keys` keys, producing `schema`.
    pub fn new(aggs: &'a [AggCall], n_keys: usize, schema: &PlanSchema) -> AggMerger<'a> {
        let groups = GroupKeys::new(n_keys, schema);
        let distinct = aggs.iter().map(|a| a.distinct.then(DistinctSet::new)).collect();
        AggMerger { aggs, groups, states: Vec::new(), distinct }
    }

    /// Fold the next morsel's partial into the global state.
    pub fn push(&mut self, partial: AggPartial) -> Result<()> {
        let (aggs, width) = (self.aggs, self.aggs.len());
        let keys: Vec<Cells<'_>> = partial.keys.iter().map(Cells::of_column).collect();
        let gids = self.groups.assign(&keys, &partial.hashes, || {
            self.states.extend(aggs.iter().map(AggState::new));
        })?;
        for (k, state) in partial.states.into_iter().enumerate() {
            self.states[gids[k / width] as usize * width + k % width].merge(state)?;
        }
        for (i, (set, part)) in self.distinct.iter_mut().zip(partial.distinct).enumerate() {
            let (Some(set), Some(part)) = (set, part) else { continue };
            let groups: Vec<u32> = part.groups.iter().map(|&g| gids[g as usize]).collect();
            let values = Cells::of_values(&part.values);
            let fresh = set.insert(&groups, values);
            fold_cells(&mut self.states, values, fresh, |p| groups[p] as usize * width + i)?;
        }
        Ok(())
    }

    /// Finish into the output table. A global aggregate (`group_empty`)
    /// over no input still yields one row.
    pub fn finish(self, group_empty: bool, schema: &PlanSchema) -> Result<Arc<Table>> {
        let mut states = self.states;
        if group_empty && self.groups.ids.hashes().is_empty() {
            states.extend(self.aggs.iter().map(AggState::new));
        }
        let storage = schema.to_storage_schema();
        let mut columns = self.groups.cols;
        let defs = &storage.columns()[columns.len()..];
        let mut aggs: Vec<ColumnBuilder> = defs.iter().map(|d| ColumnBuilder::new(d.ty)).collect();
        for (k, state) in states.into_iter().enumerate() {
            aggs[k % self.aggs.len()].push(state.finish()).map_err(Error::Storage)?;
        }
        columns.extend(aggs.into_iter().map(ColumnBuilder::finish));
        Table::from_columns(storage, columns).map(Arc::new).map_err(Error::Storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanColumn;
    use gsql_storage::{ColumnDef, DataType, Schema};

    fn input() -> Table {
        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::new("g", DataType::Varchar),
            ColumnDef::new("x", DataType::Int),
        ]));
        for (g, x) in [("a", 1), ("b", 10), ("a", 2), ("b", 20), ("a", 2)] {
            t.append_row(vec![Value::from(g), Value::Int(x)]).unwrap();
        }
        // A row with NULLs in both columns.
        t.append_row(vec![Value::Null, Value::Null]).unwrap();
        t
    }

    fn col(i: usize, ty: DataType) -> BoundExpr {
        BoundExpr::Column { index: i, ty }
    }

    /// Aggregate the way the pipeline does: one partial per two-row morsel,
    /// merged in morsel order.
    fn aggregate(
        t: &Table,
        group: &[BoundExpr],
        aggs: &[AggCall],
        names: &[(&str, DataType)],
    ) -> Table {
        let mut schema = PlanSchema::default();
        for (n, ty) in names {
            schema.push(PlanColumn::new(*n, *ty));
        }
        let mut merger = AggMerger::new(aggs, group.len(), &schema);
        for start in (0..t.row_count()).step_by(2) {
            let morsel = Sel::Range(start..(start + 2).min(t.row_count()));
            let partial = aggregate_morsel(t, &morsel, group, aggs, &schema, &[]).unwrap();
            merger.push(partial).unwrap();
        }
        Arc::try_unwrap(merger.finish(group.is_empty(), &schema).unwrap()).unwrap()
    }

    #[test]
    fn grouped_count_and_sum() {
        let out = aggregate(
            &input(),
            &[col(0, DataType::Varchar)],
            &[
                AggCall {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                    out_ty: DataType::Int,
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(col(1, DataType::Int)),
                    distinct: false,
                    out_ty: DataType::Int,
                },
            ],
            &[("g", DataType::Varchar), ("n", DataType::Int), ("s", DataType::Int)],
        );
        assert_eq!(out.row_count(), 3); // a, b, NULL group
                                        // First-seen order: a, b, NULL.
        assert_eq!(out.row(0), vec![Value::from("a"), Value::Int(3), Value::Int(5)]);
        assert_eq!(out.row(1), vec![Value::from("b"), Value::Int(2), Value::Int(30)]);
        assert!(out.row(2)[0].is_null());
        assert_eq!(out.row(2)[1], Value::Int(1)); // COUNT(*) counts the row
        assert!(out.row(2)[2].is_null()); // SUM of no non-null values
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let t = Table::empty(Schema::new(vec![ColumnDef::new("x", DataType::Int)]));
        let aggs = [
            AggCall { func: AggFunc::CountStar, arg: None, distinct: false, out_ty: DataType::Int },
            AggCall {
                func: AggFunc::Max,
                arg: Some(col(0, DataType::Int)),
                distinct: false,
                out_ty: DataType::Int,
            },
        ];
        let out = aggregate(&t, &[], &aggs, &[("n", DataType::Int), ("m", DataType::Int)]);
        assert_eq!(out.row_count(), 1);
        assert_eq!(out.row(0)[0], Value::Int(0));
        assert!(out.row(0)[1].is_null());
    }

    #[test]
    fn min_max_avg() {
        let out = aggregate(
            &input(),
            &[],
            &[
                AggCall {
                    func: AggFunc::Min,
                    arg: Some(col(1, DataType::Int)),
                    distinct: false,
                    out_ty: DataType::Int,
                },
                AggCall {
                    func: AggFunc::Max,
                    arg: Some(col(1, DataType::Int)),
                    distinct: false,
                    out_ty: DataType::Int,
                },
                AggCall {
                    func: AggFunc::Avg,
                    arg: Some(col(1, DataType::Int)),
                    distinct: false,
                    out_ty: DataType::Double,
                },
            ],
            &[("mn", DataType::Int), ("mx", DataType::Int), ("av", DataType::Double)],
        );
        assert_eq!(out.row(0)[0], Value::Int(1));
        assert_eq!(out.row(0)[1], Value::Int(20));
        assert_eq!(out.row(0)[2], Value::Double(7.0)); // (1+10+2+20+2)/5
    }

    #[test]
    fn count_and_sum_distinct() {
        // The duplicate 2s sit in different morsels, so the dedup under test
        // is the merger's, not the morsel-local one.
        let distinct = |func| AggCall {
            func,
            arg: Some(col(1, DataType::Int)),
            distinct: true,
            out_ty: DataType::Int,
        };
        let out = aggregate(
            &input(),
            &[],
            &[distinct(AggFunc::Count), distinct(AggFunc::Sum)],
            &[("n", DataType::Int), ("s", DataType::Int)],
        );
        assert_eq!(out.row(0)[0], Value::Int(4)); // {1, 2, 10, 20}
        assert_eq!(out.row(0)[1], Value::Int(33));
    }
}
