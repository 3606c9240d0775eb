//! Hash aggregation as a pipeline sink: each morsel folds into a mergeable
//! [`AggPartial`] ([`aggregate_morsel`]), and [`AggMerger`] folds the
//! partials **in morsel-index order**.
//!
//! Morsels are in row order and each partial lists its groups in
//! first-seen order, so the merged group order is the global first-seen
//! order of a sequential scan. Accumulators merge in that same order, so
//! every result — including float sums, whose value depends on addition
//! order — depends only on the morsel boundaries (input size and
//! `morsel_rows`), never on the thread count.

use crate::error::{exec_err, Error};
use crate::exec::expression::{eval_column, Sel};
use crate::plan::{AggCall, AggFunc, BoundExpr, PlanSchema};
use gsql_storage::value::HashableValue;
use gsql_storage::{Table, Value};
use std::collections::{HashMap, HashSet};
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
                gsql_storage::DataType::Double => AggState::SumDouble(None),
                _ => AggState::SumInt(None),
            },
            AggFunc::Min => AggState::MinMax { current: None, is_min: true },
            AggFunc::Max => AggState::MinMax { current: None, is_min: false },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) gets None (count every row); COUNT(x) counts
                // non-NULL values.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::SumInt(acc) => {
                if let Some(val) = v {
                    if let Some(x) = val.as_int() {
                        *acc = Some(
                            acc.unwrap_or(0)
                                .checked_add(x)
                                .ok_or_else(|| exec_err!("integer overflow in SUM"))?,
                        );
                    } else if !val.is_null() {
                        return Err(exec_err!("SUM over non-integer value {val}"));
                    }
                }
            }
            AggState::SumDouble(acc) => {
                if let Some(val) = v {
                    if let Some(x) = val.as_double() {
                        *acc = Some(acc.unwrap_or(0.0) + x);
                    } else if !val.is_null() {
                        return Err(exec_err!("SUM over non-numeric value {val}"));
                    }
                }
            }
            AggState::MinMax { current, is_min } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let replace = match current {
                            None => true,
                            Some(cur) => {
                                let cmp = val.total_cmp(cur);
                                if *is_min {
                                    cmp == std::cmp::Ordering::Less
                                } else {
                                    cmp == std::cmp::Ordering::Greater
                                }
                            }
                        };
                        if replace {
                            *current = Some(val.clone());
                        }
                    }
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(val) = v {
                    if let Some(x) = val.as_double() {
                        *sum += x;
                        *count += 1;
                    } else if !val.is_null() {
                        return Err(exec_err!("AVG over non-numeric value {val}"));
                    }
                }
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

/// One group's merged accumulators plus DISTINCT bookkeeping.
struct GroupState {
    keys: Vec<Value>,
    states: Vec<AggState>,
    distinct_seen: Vec<Option<HashSet<HashableValue>>>,
}

/// One group's **morsel-local** partial: accumulators fed only this
/// morsel's rows (ascending row order), plus — for DISTINCT aggregates —
/// the insertion-ordered distinct values seen in this morsel. DISTINCT
/// state updates are deferred entirely to the merge, which dedups across
/// morsels; merging two partials that each saw the same value must not
/// count it twice.
struct PartialGroup {
    keys: Vec<Value>,
    states: Vec<AggState>,
    distinct_vals: Vec<Option<Vec<Value>>>,
}

/// The aggregate partial of one morsel: its groups in first-seen order.
pub(crate) struct AggPartial {
    groups: Vec<PartialGroup>,
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
    params: &[Value],
) -> Result<AggPartial> {
    let mut fold = MorselFold::default();
    fold.rows(input, sel, group, aggs, params).or_else(|err| {
        fold = MorselFold::default();
        for one in sel.singles() {
            fold.rows(input, &one, group, aggs, params)?;
        }
        Err(err)
    })?;
    Ok(AggPartial { groups: fold.groups })
}

/// A morsel's groups in first-seen order, with their lookup index and the
/// morsel-local dedup sets of DISTINCT aggregates (the merge dedups across
/// morsels; these just keep the per-morsel value lists small).
#[derive(Default)]
struct MorselFold {
    index: HashMap<Vec<HashableValue>, usize>,
    groups: Vec<PartialGroup>,
    local_seen: Vec<Vec<Option<HashSet<HashableValue>>>>,
}

impl MorselFold {
    /// Fold the selected rows, in order: the group keys and arguments are
    /// evaluated column-at-a-time first.
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
        // The group key is looked up through one reused buffer; only a new
        // group allocates its own copy.
        let mut key: Vec<HashableValue> = Vec::with_capacity(keys.len());
        for slot in 0..sel.len() {
            key.clear();
            key.extend(keys.iter().map(|k| HashableValue(k.get(slot))));
            let slot_of = match self.index.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    self.groups.push(PartialGroup {
                        keys: key.iter().map(|k| k.0.clone()).collect(),
                        states: aggs.iter().map(AggState::new).collect(),
                        distinct_vals: aggs
                            .iter()
                            .map(|a| if a.distinct { Some(Vec::new()) } else { None })
                            .collect(),
                    });
                    self.local_seen.push(
                        aggs.iter()
                            .map(|a| if a.distinct { Some(HashSet::new()) } else { None })
                            .collect(),
                    );
                    self.index.insert(key.clone(), self.groups.len() - 1);
                    self.groups.len() - 1
                }
            };
            let entry = &mut self.groups[slot_of];
            for (i, arg) in args.iter().enumerate() {
                let arg = arg.as_ref().map(|v| v.get(slot));
                if let (Some(vals), Some(v)) = (&mut entry.distinct_vals[i], &arg) {
                    let seen = self.local_seen[slot_of][i].as_mut().expect("distinct set");
                    if !v.is_null() && seen.insert(HashableValue(v.clone())) {
                        vals.push(v.clone());
                    }
                    continue; // state update deferred to the merge
                }
                entry.states[i].update(arg.as_ref())?;
            }
        }
        Ok(())
    }
}

/// Sequential merger of morsel [`AggPartial`]s, consumed strictly in
/// morsel-index order. Group output order is global first-seen order —
/// identical to a sequential scan, because morsels are in row order and
/// each partial's groups are in first-seen order within its morsel.
pub(crate) struct AggMerger<'a> {
    aggs: &'a [AggCall],
    index: HashMap<Vec<HashableValue>, usize>,
    groups: Vec<GroupState>,
}

impl<'a> AggMerger<'a> {
    pub fn new(aggs: &'a [AggCall]) -> AggMerger<'a> {
        AggMerger { aggs, index: HashMap::new(), groups: Vec::new() }
    }

    /// Fold the next morsel's partial into the global state.
    pub fn push(&mut self, partial: AggPartial) -> Result<()> {
        for pg in partial.groups {
            let key: Vec<HashableValue> = pg.keys.iter().cloned().map(HashableValue).collect();
            let PartialGroup { keys, states, distinct_vals } = pg;
            let slot = match self.index.get(&key) {
                Some(&slot) => slot,
                None => {
                    self.groups.push(GroupState {
                        keys,
                        states: self.aggs.iter().map(AggState::new).collect(),
                        distinct_seen: self
                            .aggs
                            .iter()
                            .map(|a| if a.distinct { Some(HashSet::new()) } else { None })
                            .collect(),
                    });
                    self.index.insert(key, self.groups.len() - 1);
                    self.groups.len() - 1
                }
            };
            let entry = &mut self.groups[slot];
            for (i, state) in states.into_iter().enumerate() {
                if entry.distinct_seen[i].is_none() {
                    entry.states[i].merge(state)?;
                }
            }
            for (i, vals) in distinct_vals.into_iter().enumerate() {
                let Some(vals) = vals else { continue };
                let seen = entry.distinct_seen[i].as_mut().expect("distinct set");
                for v in vals {
                    if seen.insert(HashableValue(v.clone())) {
                        entry.states[i].update(Some(&v))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Finish into the output table. A global aggregate (`group_empty`)
    /// over no input still yields one row.
    pub fn finish(self, group_empty: bool, schema: &PlanSchema) -> Result<Arc<Table>> {
        let mut groups = self.groups;
        if group_empty && groups.is_empty() {
            groups.push(GroupState {
                keys: Vec::new(),
                states: self.aggs.iter().map(AggState::new).collect(),
                distinct_seen: vec![None; self.aggs.len()],
            });
        }
        let mut out = Table::empty(schema.to_storage_schema());
        for state in groups {
            let mut row = state.keys;
            for s in state.states {
                row.push(s.finish());
            }
            out.append_row(row).map_err(Error::Storage)?;
        }
        Ok(Arc::new(out))
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
        let mut merger = AggMerger::new(aggs);
        for start in (0..t.row_count()).step_by(2) {
            let morsel = Sel::Range(start..(start + 2).min(t.row_count()));
            merger.push(aggregate_morsel(t, &morsel, group, aggs, &[]).unwrap()).unwrap();
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
