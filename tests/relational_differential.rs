//! Generated-input differential test of the relational operators. Random
//! tables with NULL and duplicate keys, INTEGER-vs-DOUBLE key pairs, ±0.0,
//! NaN, VARCHAR and two-column keys go through INNER, LEFT and comma joins
//! (with WHERE conjuncts on the left side, the right side and both), GROUP
//! BY with every aggregate, and DISTINCT. Each answer is checked against a
//! nested-loop oracle written here, which compares keys with
//! `Value::sql_eq` row by row, in every configuration of the shared sweep.
//! Join answers compare as multisets; grouped and DISTINCT answers also in
//! first-seen order.

mod common;

use gsql::Value;
use rand::prelude::*;
use rand::rngs::SmallRng;
use std::cmp::Ordering;

/// A combined `l ⨝ r` row: `l`'s five columns, then `r`'s.
type Row = Vec<Value>;

/// Three-valued truth.
type Truth = Option<bool>;

/// Column ordinals within a combined row.
const L_ID: usize = 0;
const L_A: usize = 1;
const L_D: usize = 2;
const L_S: usize = 3;
const L_N: usize = 4;
const R_ID: usize = 5;
const R_A: usize = 6;
const R_D: usize = 7;
const R_S: usize = 8;
const R_N: usize = 9;

/// `l` and `r` share a layout, except that `a` is INTEGER in `l` and
/// DOUBLE in `r`.
fn setup(seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stmts = vec![
        "CREATE TABLE l (id INTEGER, a INTEGER, d DOUBLE, s VARCHAR, n INTEGER)".to_string(),
        "CREATE TABLE r (id INTEGER, a DOUBLE, d DOUBLE, s VARCHAR, n INTEGER)".to_string(),
    ];
    for (table, rows) in [("l", rng.gen_range(25..45)), ("r", rng.gen_range(15..35))] {
        let rows: Vec<String> = (0..rows)
            .map(|id| {
                let a = match table {
                    "l" => maybe_null(&mut rng, |rng| rng.gen_range(0..6).to_string()),
                    _ => maybe_null(&mut rng, |rng| {
                        let k = rng.gen_range(0..6);
                        match rng.gen_range(0..10) {
                            0 => "-0.0".to_string(),
                            1 | 2 => format!("{k}.5"),
                            _ => format!("{k}.0"),
                        }
                    }),
                };
                const DOUBLES: [&str; 7] =
                    ["0.0", "-0.0", "CAST('NaN' AS DOUBLE)", "1.0", "2.5", "-1.5", "4.0"];
                let d = maybe_null(&mut rng, |rng| DOUBLES[rng.gen_range(0..7)].to_string());
                let s = maybe_null(&mut rng, |rng| {
                    format!("'{}'", ["x", "y", "z", "xy", ""][rng.gen_range(0..5)])
                });
                let n = maybe_null(&mut rng, |rng| rng.gen_range(-3..6).to_string());
                format!("({id}, {a}, {d}, {s}, {n})")
            })
            .collect();
        stmts.push(format!("INSERT INTO {table} VALUES {}", rows.join(", ")));
    }
    stmts
}

fn maybe_null(rng: &mut SmallRng, value: impl FnOnce(&mut SmallRng) -> String) -> String {
    if rng.gen_bool(0.12) {
        "NULL".to_string()
    } else {
        value(rng)
    }
}

/// `a = b`.
fn eq(a: &Value, b: &Value) -> Truth {
    (!a.is_null() && !b.is_null()).then(|| a.sql_eq(b))
}

/// `a <op> b` over non-NULL numbers, `op` given as the orderings it accepts.
fn cmp(a: &Value, b: &Value, accept: &[Ordering]) -> Truth {
    (!a.is_null() && !b.is_null()).then(|| accept.contains(&a.total_cmp(b)))
}

/// Three-valued AND: FALSE wins over NULL, NULL over TRUE.
fn and(parts: impl IntoIterator<Item = Truth>) -> Truth {
    let parts: Vec<Truth> = parts.into_iter().collect();
    match (parts.contains(&Some(false)), parts.contains(&None)) {
        (true, _) => Some(false),
        (false, true) => None,
        (false, false) => Some(true),
    }
}

/// A predicate in SQL and as the oracle evaluates it.
struct Pred {
    sql: &'static str,
    eval: fn(&Row) -> Truth,
}

/// Join conditions: equi keys across INTEGER/DOUBLE, DOUBLE/DOUBLE and
/// VARCHAR/VARCHAR, a two-column key, and an equi key with a residual.
fn join_conditions() -> Vec<Pred> {
    vec![
        Pred { sql: "l.a = r.a", eval: |r| eq(&r[L_A], &r[R_A]) },
        Pred { sql: "l.d = r.d", eval: |r| eq(&r[L_D], &r[R_D]) },
        Pred { sql: "l.s = r.s", eval: |r| eq(&r[L_S], &r[R_S]) },
        Pred {
            sql: "l.a = r.a AND l.s = r.s",
            eval: |r| and([eq(&r[L_A], &r[R_A]), eq(&r[L_S], &r[R_S])]),
        },
        Pred {
            sql: "r.d = l.d AND l.n < r.n",
            eval: |r| and([eq(&r[L_D], &r[R_D]), cmp(&r[L_N], &r[R_N], &[Ordering::Less])]),
        },
    ]
}

/// WHERE conjunct sets: none, left-only, right-only, across both sides,
/// all three, and a right-side `IS NULL` (which must stay above a left
/// join).
fn where_clauses() -> Vec<Vec<Pred>> {
    let left =
        || Pred { sql: "l.n > 1", eval: |r| cmp(&r[L_N], &Value::Int(1), &[Ordering::Greater]) };
    let right =
        || Pred { sql: "r.n < 3", eval: |r| cmp(&r[R_N], &Value::Int(3), &[Ordering::Less]) };
    let both = || Pred {
        sql: "l.n <> r.n",
        eval: |r| cmp(&r[L_N], &r[R_N], &[Ordering::Less, Ordering::Greater]),
    };
    let is_null = || Pred { sql: "r.n IS NULL", eval: |r| Some(r[R_N].is_null()) };
    vec![
        vec![],
        vec![left()],
        vec![right()],
        vec![both()],
        vec![left(), right(), both()],
        vec![is_null(), left()],
    ]
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Inner,
    Left,
    Comma,
}

/// The SQL of `SELECT l.id, r.id` over a join.
fn join_sql(kind: Kind, on: &Pred, filters: &[Pred]) -> String {
    let mut conj: Vec<&str> = filters.iter().map(|p| p.sql).collect();
    let from = match kind {
        Kind::Inner => format!("l JOIN r ON {}", on.sql),
        Kind::Left => format!("l LEFT JOIN r ON {}", on.sql),
        Kind::Comma => {
            conj.insert(0, on.sql);
            "l, r".to_string()
        }
    };
    match conj.is_empty() {
        true => format!("SELECT l.id, r.id FROM {from}"),
        false => format!("SELECT l.id, r.id FROM {from} WHERE {}", conj.join(" AND ")),
    }
}

/// The oracle: a nested loop over `l × r`, NULL-extending unmatched left
/// rows of a left join, then the WHERE conjuncts.
fn join_oracle(kind: Kind, on: &Pred, filters: &[Pred], l: &[Row], r: &[Row]) -> Vec<Row> {
    let mut out = Vec::new();
    for lrow in l {
        let mut matched = false;
        for rrow in r {
            let row: Row = lrow.iter().chain(rrow).cloned().collect();
            if (on.eval)(&row) == Some(true) {
                matched = true;
                out.push(row);
            }
        }
        if !matched && matches!(kind, Kind::Left) {
            out.push(lrow.iter().cloned().chain(vec![Value::Null; 5]).collect());
        }
    }
    out.retain(|row| and(filters.iter().map(|p| (p.eval)(row))) == Some(true));
    out.into_iter().map(|row| vec![row[L_ID].clone(), row[R_ID].clone()]).collect()
}

/// Rows as text, sorted: a multiset.
fn multiset(rows: impl IntoIterator<Item = Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// Rows as text, in order.
fn in_order(rows: impl IntoIterator<Item = Row>) -> Vec<String> {
    rows.into_iter().map(|r| format!("{r:?}")).collect()
}

/// Group `rows` by the cells at `keys` in first-seen order, NULL equal to
/// NULL and any other pair compared with `sql_eq` (so NaN is never equal).
fn groups(rows: &[Row], keys: &[usize]) -> Vec<(Row, Vec<Row>)> {
    let key_eq = |a: &Value, b: &Value| (a.is_null() && b.is_null()) || eq(a, b) == Some(true);
    let mut out: Vec<(Row, Vec<Row>)> = Vec::new();
    for row in rows {
        let key: Row = keys.iter().map(|&k| row[k].clone()).collect();
        match out.iter_mut().find(|(k, _)| k.iter().zip(&key).all(|(a, b)| key_eq(a, b))) {
            Some((_, members)) => members.push(row.clone()),
            None => out.push((key, vec![row.clone()])),
        }
    }
    out
}

/// The aggregate list every grouped query computes, over columns `n`
/// (INTEGER), `d` (DOUBLE) and `s` (VARCHAR) of one table.
fn aggregate_sql(t: &str) -> String {
    format!(
        "COUNT(*), COUNT({t}.d), SUM({t}.n), SUM({t}.d), MIN({t}.d), MAX({t}.d), MIN({t}.s), \
         MAX({t}.n), AVG({t}.n), AVG({t}.d), COUNT(DISTINCT {t}.d), SUM(DISTINCT {t}.n)"
    )
}

/// [`aggregate_sql`] by the oracle, for one group's rows, reading columns
/// `n`, `d` and `s` at the given ordinals.
fn aggregate_oracle(rows: &[Row], (n, d, s): (usize, usize, usize)) -> Row {
    let present = |c: usize| rows.iter().map(move |r| &r[c]).filter(|v| !v.is_null());
    let ints = |c: usize| present(c).map(|v| v.as_int().unwrap());
    let doubles = |c: usize| present(c).map(|v| v.as_double().unwrap());
    let extreme = |c: usize, want: Ordering| {
        present(c).fold(Value::Null, |acc, v| match acc.is_null() || v.total_cmp(&acc) == want {
            true => v.clone(),
            false => acc,
        })
    };
    let sum_int =
        |xs: Vec<i64>| xs.iter().copied().reduce(|a, b| a + b).map_or(Value::Null, Value::Int);
    let sum_double =
        |xs: Vec<f64>| xs.iter().fold(None, |acc: Option<f64>, x| Some(acc.unwrap_or(0.0) + x));
    let avg = |xs: Vec<f64>| match xs.len() {
        0 => Value::Null,
        k => Value::Double(xs.iter().fold(0.0, |a, x| a + x) / k as f64),
    };
    let distinct = |c: usize| {
        let mut seen: Vec<Value> = Vec::new();
        for v in present(c) {
            if !seen.iter().any(|w| eq(w, v) == Some(true)) {
                seen.push(v.clone());
            }
        }
        seen
    };
    vec![
        Value::Int(rows.len() as i64),
        Value::Int(present(d).count() as i64),
        sum_int(ints(n).collect()),
        sum_double(doubles(d).collect()).map_or(Value::Null, Value::Double),
        extreme(d, Ordering::Less),
        extreme(d, Ordering::Greater),
        extreme(s, Ordering::Less),
        extreme(n, Ordering::Greater),
        avg(ints(n).map(|x| x as f64).collect()),
        avg(doubles(d).collect()),
        Value::Int(distinct(d).len() as i64),
        sum_int(distinct(n).iter().map(|v| v.as_int().unwrap()).collect()),
    ]
}

/// First-occurrence-wins deduplication by the oracle's key equality.
fn distinct_oracle(rows: &[Row]) -> Vec<Row> {
    let all: Vec<usize> = (0..rows.first().map_or(0, Vec::len)).collect();
    groups(rows, &all).into_iter().map(|(key, _)| key).collect()
}

fn check_seed(seed: u64) {
    common::sweep(&setup(seed), |run| {
        let fetch = |sql: &str| -> Vec<Row> { run.query(sql).unwrap().rows().collect() };
        let l = fetch("SELECT * FROM l");
        let r = fetch("SELECT * FROM r");

        for on in &join_conditions() {
            for filters in &where_clauses() {
                for kind in [Kind::Inner, Kind::Left, Kind::Comma] {
                    let sql = join_sql(kind, on, filters);
                    let want = join_oracle(kind, on, filters, &l, &r);
                    assert_eq!(multiset(fetch(&sql)), multiset(want), "seed {seed}: {sql}");
                }
            }
        }

        // GROUP BY over `l`, in first-seen group order: keys DOUBLE,
        // VARCHAR, INTEGER + VARCHAR, and none.
        let l_cols = (L_N, L_D, L_S);
        for (keys, key_sql) in
            [(vec![L_D], "d"), (vec![L_S], "s"), (vec![L_A, L_S], "a, s"), (vec![], "")]
        {
            let group_by = match key_sql {
                "" => String::new(),
                k => format!(" GROUP BY {k}"),
            };
            let select = [key_sql.to_string(), aggregate_sql("l")].join(", ");
            let sql = format!("SELECT {} FROM l{group_by}", select.trim_start_matches(", "));
            let mut want: Vec<Row> = groups(&l, &keys)
                .into_iter()
                .map(|(key, rows)| key.into_iter().chain(aggregate_oracle(&rows, l_cols)).collect())
                .collect();
            if keys.is_empty() && want.is_empty() {
                want.push(aggregate_oracle(&[], l_cols));
            }
            assert_eq!(in_order(fetch(&sql)), in_order(want), "seed {seed}: {sql}");
        }

        // GROUP BY a DOUBLE key of an INTEGER = DOUBLE join with a pushed
        // conjunct on each side.
        let sql = format!(
            "SELECT r.d, {} FROM l JOIN r ON l.a = r.a WHERE l.n > 1 AND r.n < 3 GROUP BY r.d",
            aggregate_sql("r")
        );
        let on = &join_conditions()[0];
        let filters = &where_clauses()[4][..2];
        let mut joined = Vec::new();
        for lrow in &l {
            for rrow in &r {
                let row: Row = lrow.iter().chain(rrow).cloned().collect();
                if and([(on.eval)(&row)].into_iter().chain(filters.iter().map(|p| (p.eval)(&row))))
                    == Some(true)
                {
                    joined.push(row);
                }
            }
        }
        let want: Vec<Row> = groups(&joined, &[R_D])
            .into_iter()
            .map(|(key, rows)| {
                key.into_iter().chain(aggregate_oracle(&rows, (R_N, R_D, R_S))).collect()
            })
            .collect();
        assert_eq!(in_order(fetch(&sql)), in_order(want), "seed {seed}: {sql}");

        // DISTINCT, first occurrence first.
        for (cols, sql) in [
            (vec![L_D], "SELECT DISTINCT d FROM l"),
            (vec![L_A, L_S], "SELECT DISTINCT a, s FROM l"),
            (vec![L_D, L_N], "SELECT DISTINCT d, n FROM l"),
        ] {
            let projected: Vec<Row> =
                l.iter().map(|row| cols.iter().map(|&c| row[c].clone()).collect()).collect();
            let want = distinct_oracle(&projected);
            assert_eq!(in_order(fetch(sql)), in_order(want), "seed {seed}: {sql}");
        }
        // DISTINCT over INTEGER-vs-DOUBLE join keys, as a multiset.
        let sql = "SELECT DISTINCT l.a, r.a FROM l JOIN r ON l.a = r.a";
        let pairs: Vec<Row> = join_oracle(Kind::Inner, on, &[], &l, &r)
            .iter()
            .map(|ids| {
                // `id` and `a` have the same ordinals in `r`'s own rows.
                let lrow = l.iter().find(|row| row[L_ID] == ids[0]).unwrap();
                let rrow = r.iter().find(|row| row[L_ID] == ids[1]).unwrap();
                vec![lrow[L_A].clone(), rrow[L_A].clone()]
            })
            .collect();
        assert_eq!(multiset(fetch(sql)), multiset(distinct_oracle(&pairs)), "seed {seed}: {sql}");
    });
}

#[test]
fn joins_aggregates_and_distinct_match_the_nested_loop_oracle() {
    for seed in [7, 2017, 90210] {
        check_seed(seed);
    }
}

#[test]
fn a_failing_build_key_reports_its_first_failing_row() {
    // Rows 5 and 40 of the build side fail to cast; with 4 threads and
    // 7-row morsels they land in different chunks.
    let keys: Vec<String> = (0..50)
        .map(|i| match i {
            5 | 40 => format!("('bad{i}')"),
            _ => format!("('{i}')"),
        })
        .collect();
    let setup = [
        "CREATE TABLE p (a INTEGER)".to_string(),
        "CREATE TABLE e (k VARCHAR)".to_string(),
        "INSERT INTO p VALUES (1), (2), (3)".to_string(),
        format!("INSERT INTO e VALUES {}", keys.join(", ")),
    ];
    common::sweep(&setup, |run| {
        for join in ["JOIN", "LEFT JOIN"] {
            let sql = format!("SELECT COUNT(*) FROM p {join} e ON p.a = CAST(e.k AS INTEGER)");
            let err = run.query(&sql).unwrap_err().to_string();
            assert!(err.contains("cannot cast 'bad5' to INTEGER"), "{sql}: {err}");
        }
    });
}

#[test]
fn a_key_cell_after_a_null_cell_is_not_evaluated() {
    // q's second row has a NULL first key and a zero divisor: its second
    // key, `10 / q.c`, must never run.
    let setup = [
        "CREATE TABLE p (a INTEGER, b INTEGER)",
        "CREATE TABLE q (a INTEGER, c INTEGER)",
        "INSERT INTO p VALUES (1, 10), (2, 5), (NULL, 1)",
        "INSERT INTO q VALUES (1, 1), (NULL, 0), (2, 2)",
    ];
    common::sweep(&setup, |run| {
        let count = |sql: &str| run.query(sql).unwrap().row(0)[0].clone();
        assert_eq!(
            count("SELECT COUNT(*) FROM p JOIN q ON p.a = q.a AND p.b = 10 / q.c"),
            Value::Int(2)
        );
        assert_eq!(
            count("SELECT COUNT(*) FROM p LEFT JOIN q ON p.a = q.a AND p.b = 10 / q.c"),
            Value::Int(3)
        );
        // The probe side too: p's third row has a NULL first key.
        assert_eq!(
            count("SELECT COUNT(*) FROM q JOIN p ON q.a = p.a AND 10 / q.c = p.b"),
            Value::Int(2)
        );
    });
}
