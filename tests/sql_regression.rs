//! Broad SQL regression suite for the relational substrate: each case is a
//! query plus its exact expected result, exercising semantics a downstream
//! user relies on before ever touching the graph extension. Every case
//! runs in each configuration of the shared sweep.

mod common;

use gsql::Value;
use std::sync::Arc;

fn v(x: i64) -> Value {
    Value::Int(x)
}

fn s(x: &str) -> Value {
    Value::from(x)
}

/// Two tables: the first two statements land in a durable run's snapshot,
/// the rows in its WAL suffix.
const SETUP: [&str; 4] = [
    "CREATE TABLE dept (id INTEGER PRIMARY KEY, name VARCHAR NOT NULL)",
    "CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR NOT NULL,
                       dept_id INTEGER, salary DOUBLE, hired DATE)",
    "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')",
    "INSERT INTO emp VALUES
        (1, 'ada',   1, 95000.0, '2019-05-01'),
        (2, 'bob',   1, 70000.0, '2020-01-15'),
        (3, 'cat',   2, 60000.0, '2018-11-30'),
        (4, 'dan',   2, 62000.0, '2021-07-04'),
        (5, 'eve',   NULL, NULL, NULL)",
];

fn rows(t: &Arc<gsql::Table>) -> Vec<Vec<Value>> {
    t.rows().collect()
}

/// DOUBLEs −0.0, 0.0, NaN and 1.5, INTEGERs 0, NULL, 5 and 2: inputs on
/// which predicates of different shapes once disagreed.
const FLOATS: [&str; 2] = [
    "CREATE TABLE f (id INTEGER, d DOUBLE, x INTEGER)",
    "INSERT INTO f VALUES (1, -0.0, 0), (2, 0.0, NULL), (3, CAST('NaN' AS DOUBLE), 5), (4, 1.5, 2)",
];

#[test]
fn where_and_or_not_precedence() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query(
                "SELECT id FROM emp WHERE dept_id = 1 OR dept_id = 2 AND salary > 61000.0 ORDER BY id",
            )
            .unwrap();
        // AND binds tighter: dept 1 any salary, dept 2 only dan.
        assert_eq!(rows(&t), vec![vec![v(1)], vec![v(2)], vec![v(4)]]);
    });
}

#[test]
fn null_semantics_in_filters() {
    common::sweep(&SETUP, |run| {
        // eve has NULL dept_id: excluded by both = and <>.
        let eq = run.query("SELECT COUNT(*) FROM emp WHERE dept_id = 1").unwrap();
        let ne = run.query("SELECT COUNT(*) FROM emp WHERE dept_id <> 1").unwrap();
        assert_eq!(eq.row(0)[0], v(2));
        assert_eq!(ne.row(0)[0], v(2));
        let isnull = run.query("SELECT name FROM emp WHERE dept_id IS NULL").unwrap();
        assert_eq!(rows(&isnull), vec![vec![s("eve")]]);
        let notnull = run.query("SELECT COUNT(*) FROM emp WHERE dept_id IS NOT NULL").unwrap();
        assert_eq!(notnull.row(0)[0], v(4));
    });
}

#[test]
fn inner_join_and_left_join() {
    common::sweep(&SETUP, |run| {
        let inner = run
            .query(
                "SELECT d.name, COUNT(*) AS n FROM dept d JOIN emp e ON d.id = e.dept_id
                 GROUP BY d.name ORDER BY d.name",
            )
            .unwrap();
        assert_eq!(rows(&inner), vec![vec![s("eng"), v(2)], vec![s("sales"), v(2)]]);

        let left = run
            .query(
                "SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON d.id = e.dept_id
                 ORDER BY d.name, e.name",
            )
            .unwrap();
        // 'empty' department survives with NULL employee.
        assert_eq!(left.row_count(), 5);
        assert_eq!(left.row(0)[0], s("empty"));
        assert!(left.row(0)[1].is_null());
    });
}

#[test]
fn aggregates_with_nulls() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query(
                "SELECT COUNT(*), COUNT(salary), SUM(salary), MIN(salary), MAX(salary), AVG(salary)
                 FROM emp",
            )
            .unwrap();
        let r = t.row(0);
        assert_eq!(r[0], v(5));
        assert_eq!(r[1], v(4)); // NULL salary not counted
        assert_eq!(r[2], Value::Double(287000.0));
        assert_eq!(r[3], Value::Double(60000.0));
        assert_eq!(r[4], Value::Double(95000.0));
        assert_eq!(r[5], Value::Double(71750.0));
    });
}

#[test]
fn group_by_expression_and_having() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query(
                "SELECT dept_id, COUNT(*) AS n FROM emp GROUP BY dept_id
                 HAVING COUNT(*) >= 2 ORDER BY dept_id",
            )
            .unwrap();
        assert_eq!(rows(&t), vec![vec![v(1), v(2)], vec![v(2), v(2)]]);
    });
}

#[test]
fn order_by_variants() {
    common::sweep(&SETUP, |run| {
        // By alias.
        let t = run.query("SELECT name AS who FROM emp ORDER BY who DESC LIMIT 2").unwrap();
        assert_eq!(rows(&t), vec![vec![s("eve")], vec![s("dan")]]);
        // By ordinal.
        let t = run.query("SELECT id, name FROM emp ORDER BY 2 LIMIT 1").unwrap();
        assert_eq!(t.row(0)[1], s("ada"));
        // By non-projected expression (hidden sort column).
        let t = run
            .query("SELECT name FROM emp WHERE salary IS NOT NULL ORDER BY salary DESC LIMIT 1")
            .unwrap();
        assert_eq!(t.row(0)[0], s("ada"));
        // NULLs sort first ascending.
        let t = run.query("SELECT name FROM emp ORDER BY salary, name LIMIT 1").unwrap();
        assert_eq!(t.row(0)[0], s("eve"));
    });
}

#[test]
fn distinct_and_union() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query("SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL ORDER BY dept_id")
            .unwrap();
        assert_eq!(rows(&t), vec![vec![v(1)], vec![v(2)]]);
        let t = run
            .query(
                "SELECT dept_id FROM emp WHERE id = 1 UNION SELECT dept_id FROM emp WHERE id = 2",
            )
            .unwrap();
        assert_eq!(t.row_count(), 1); // both are dept 1, UNION dedups
    });
}

#[test]
fn union_widens_int_to_double() {
    common::sweep(&SETUP, |run| {
        // INT ∪ DOUBLE must yield DOUBLE on both sides (and stay queryable
        // through a derived table).
        let t = run
            .query("SELECT x + 0.25 AS y FROM (SELECT 1 AS x UNION ALL SELECT 2.5) u ORDER BY y")
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Double(1.25));
        assert_eq!(t.row(1)[0], Value::Double(2.75));
        let t = run.query("SELECT 2.5 UNION ALL SELECT 1").unwrap();
        assert_eq!(t.schema().column(0).ty, gsql::DataType::Double);
    });
}

#[test]
fn case_cast_like_between_in() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query(
                "SELECT name,
                        CASE WHEN salary >= 70000.0 THEN 'senior'
                             WHEN salary IS NULL THEN 'unknown'
                             ELSE 'junior' END AS grade
                 FROM emp ORDER BY id",
            )
            .unwrap();
        let grades: Vec<Value> = t.rows().map(|r| r[1].clone()).collect();
        assert_eq!(grades, vec![s("senior"), s("senior"), s("junior"), s("junior"), s("unknown")]);

        let t = run.query("SELECT CAST(salary AS INTEGER) FROM emp WHERE id = 1").unwrap();
        assert_eq!(t.row(0)[0], v(95000));

        let t = run.query("SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY name").unwrap();
        assert_eq!(rows(&t), vec![vec![s("ada")], vec![s("cat")], vec![s("dan")]]);

        let t =
            run.query("SELECT COUNT(*) FROM emp WHERE salary BETWEEN 60000.0 AND 70000.0").unwrap();
        assert_eq!(t.row(0)[0], v(3));

        let t = run.query("SELECT COUNT(*) FROM emp WHERE dept_id IN (2, 3)").unwrap();
        assert_eq!(t.row(0)[0], v(2));
    });
}

#[test]
fn date_comparisons_and_literals() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query("SELECT name FROM emp WHERE hired < DATE '2020-01-01' ORDER BY hired")
            .unwrap();
        assert_eq!(rows(&t), vec![vec![s("cat")], vec![s("ada")]]);
        // Bare-string coercion (the paper's A.3 style).
        let t = run.query("SELECT COUNT(*) FROM emp WHERE hired >= '2020-01-01'").unwrap();
        assert_eq!(t.row(0)[0], v(2));
    });
}

#[test]
fn scalar_functions() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query(
                "SELECT UPPER(name), LOWER('ABC'), LENGTH(name),
                        ABS(-5), ROUND(2.7), FLOOR(2.7), CEIL(2.2), SQRT(16.0),
                        COALESCE(salary, 0.0), NULLIF(1, 1)
                 FROM emp WHERE id = 5",
            )
            .unwrap();
        let r = t.row(0);
        assert_eq!(r[0], s("EVE"));
        assert_eq!(r[1], s("abc"));
        assert_eq!(r[2], v(3));
        assert_eq!(r[3], v(5));
        assert_eq!(r[4], Value::Double(3.0));
        assert_eq!(r[5], Value::Double(2.0));
        assert_eq!(r[6], Value::Double(3.0));
        assert_eq!(r[7], Value::Double(4.0));
        assert_eq!(r[8], Value::Double(0.0));
        assert!(r[9].is_null());
    });
}

#[test]
fn subqueries_and_ctes_compose() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query(
                "WITH well_paid AS (SELECT * FROM emp WHERE salary > 61000.0)
                 SELECT d.name, x.n FROM dept d
                 JOIN (SELECT dept_id, COUNT(*) AS n FROM well_paid GROUP BY dept_id) x
                   ON d.id = x.dept_id
                 ORDER BY d.name",
            )
            .unwrap();
        assert_eq!(rows(&t), vec![vec![s("eng"), v(2)], vec![s("sales"), v(1)]]);
    });
}

#[test]
fn update_delete_semantics() {
    common::sweep(&SETUP, |run| {
        // UPDATE with expression referencing old values.
        match run
            .session()
            .execute("UPDATE emp SET salary = salary * 1.1 WHERE dept_id = 1")
            .unwrap()
        {
            gsql::QueryResult::Affected(2) => {}
            other => panic!("{other:?}"),
        }
        let t = run.query("SELECT salary FROM emp WHERE id = 1").unwrap();
        assert_eq!(t.row(0)[0], Value::Double(95000.0 * 1.1));
        // DELETE with filter; eve's NULL dept_id survives a dept_id filter.
        run.session().execute("DELETE FROM emp WHERE dept_id = 2").unwrap();
        let t = run.query("SELECT COUNT(*) FROM emp").unwrap();
        assert_eq!(t.row(0)[0], v(3));
        // DELETE all.
        run.session().execute("DELETE FROM emp").unwrap();
        assert_eq!(run.query("SELECT COUNT(*) FROM emp").unwrap().row(0)[0], v(0));
    });
}

#[test]
fn insert_select_and_explicit_columns() {
    common::sweep(&SETUP, |run| {
        run.session().execute("CREATE TABLE names (id INTEGER, label VARCHAR)").unwrap();
        run.session()
            .execute("INSERT INTO names SELECT id, name FROM emp WHERE dept_id = 1")
            .unwrap();
        assert_eq!(run.query("SELECT COUNT(*) FROM names").unwrap().row(0)[0], v(2));
        // Explicit column list with a missing column -> NULL.
        run.session().execute("INSERT INTO names (label) VALUES ('solo')").unwrap();
        let t = run.query("SELECT id, label FROM names WHERE label = 'solo'").unwrap();
        assert!(t.row(0)[0].is_null());
    });
}

#[test]
fn values_as_table_and_cross_join() {
    common::sweep(&SETUP, |run| {
        let t = run.query("VALUES (1, 'x'), (2, 'y')").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.schema().names().collect::<Vec<_>>(), vec!["column1", "column2"]);
        let t = run
            .query(
                "WITH v (k) AS (VALUES (1), (2))
                 SELECT COUNT(*) FROM dept, v",
            )
            .unwrap();
        assert_eq!(t.row(0)[0], v(6)); // 3 depts × 2
    });
}

#[test]
fn string_concat_and_arithmetic() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query("SELECT name || '-' || CAST(id AS VARCHAR), id % 2, -id FROM emp WHERE id <= 2 ORDER BY id")
            .unwrap();
        assert_eq!(t.row(0)[0], s("ada-1"));
        assert_eq!(t.row(0)[1], v(1));
        assert_eq!(t.row(0)[2], v(-1));
        assert_eq!(t.row(1)[1], v(0));
    });
}

#[test]
fn limit_offset_pagination() {
    common::sweep(&SETUP, |run| {
        let page1 = run.query("SELECT id FROM emp ORDER BY id LIMIT 2").unwrap();
        let page2 = run.query("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2").unwrap();
        let page3 = run.query("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 4").unwrap();
        assert_eq!(rows(&page1), vec![vec![v(1)], vec![v(2)]]);
        assert_eq!(rows(&page2), vec![vec![v(3)], vec![v(4)]]);
        assert_eq!(rows(&page3), vec![vec![v(5)]]);
        let empty = run.query("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 99").unwrap();
        assert_eq!(empty.row_count(), 0);
    });
}

#[test]
fn count_distinct_and_avg_distinct() {
    common::sweep(&SETUP, |run| {
        run.session()
            .execute("INSERT INTO emp VALUES (6, 'fay', 1, 70000.0, '2022-01-01')")
            .unwrap();
        let t =
            run.query("SELECT COUNT(DISTINCT dept_id), COUNT(DISTINCT salary) FROM emp").unwrap();
        assert_eq!(t.row(0)[0], v(2));
        assert_eq!(t.row(0)[1], v(4)); // 95k, 70k, 60k, 62k (70k dup, NULL out)
    });
}

#[test]
fn explain_shows_pushdown() {
    let db = common::database(&SETUP);
    let plan = db
        .plan("SELECT e.name FROM emp e, dept d WHERE e.dept_id = d.id AND d.name = 'eng'")
        .unwrap()
        .explain();
    // The d.name filter must sit under the cross product, not above it.
    let cross_pos = plan.find("CrossProduct").expect("cross product in plan");
    let filter_pos = plan.find("(name = 'eng')").expect("filter in plan");
    assert!(filter_pos > cross_pos, "pushdown expected:\n{plan}");
}

#[test]
fn explain_pushes_where_below_an_inner_join() {
    // The benchmark's scan-filter-join-group-sort statement: each WHERE
    // conjunct reads one side of the join, so both run below it.
    let db = common::database(&[
        "CREATE TABLE roads (src INTEGER NOT NULL, dst INTEGER NOT NULL, minutes INTEGER NOT NULL)",
    ]);
    let plan = db
        .plan(
            "SELECT r1.minutes AS bucket, COUNT(*) AS n, SUM(r2.minutes) AS total, \
             MIN(r2.dst) AS lo, MAX(r2.dst) AS hi \
             FROM roads r1 JOIN roads r2 ON r1.dst = r2.src \
             WHERE r1.minutes > 3 AND r2.minutes <= 7 \
             GROUP BY r1.minutes ORDER BY bucket",
        )
        .unwrap()
        .explain();
    let join_pos = plan.find("InnerJoin").expect("inner join in plan");
    for filter in ["Filter (minutes > 3)", "Filter (minutes <= 7)"] {
        let pos = plan.find(filter).unwrap_or_else(|| panic!("{filter} missing:\n{plan}"));
        assert!(pos > join_pos, "{filter} must sit below the join:\n{plan}");
    }
    assert_eq!(plan.matches("Filter").count(), 2, "no filter above the join:\n{plan}");
}

#[test]
fn qualified_wildcards() {
    common::sweep(&SETUP, |run| {
        let t = run
            .query("SELECT d.*, e.name FROM dept d JOIN emp e ON d.id = e.dept_id WHERE e.id = 1")
            .unwrap();
        assert_eq!(t.schema().len(), 3);
        assert_eq!(t.row(0), vec![v(1), s("eng"), s("ada")]);
    });
}

#[test]
fn float_predicates_agree_across_shapes() {
    common::sweep(&FLOATS, |run| {
        let ids = |sql: &str| -> Vec<Value> {
            run.query(sql).unwrap().rows().map(|r| r[0].clone()).collect()
        };
        // `=` is IEEE equality (−0.0 = 0, NaN equals nothing) in every shape.
        let cases = [
            ("d = 0", vec![v(1), v(2)]),
            ("d <> 0", vec![v(3), v(4)]),
            ("d = CAST('NaN' AS DOUBLE)", vec![]),
        ];
        for (pred, want) in cases {
            for shape in [pred.to_string(), format!("{pred} OR 1 = 2"), format!("NOT NOT ({pred})")]
            {
                let sql = format!("SELECT id FROM f WHERE {shape} ORDER BY id");
                assert_eq!(ids(&sql), want, "{shape}");
            }
        }
        // DELETE removes exactly the rows the same predicate selects.
        let deleted = run.session().execute("DELETE FROM f WHERE d = 0").unwrap();
        assert!(matches!(deleted, gsql::QueryResult::Affected(2)), "{deleted:?}");
        assert_eq!(ids("SELECT id FROM f ORDER BY id"), vec![v(3), v(4)]);
    });
}

#[test]
fn null_and_unselected_rows_never_raise() {
    common::sweep(&FLOATS, |run| {
        let t = run.query("SELECT x / 0 FROM f WHERE x IS NULL").unwrap();
        assert_eq!(rows(&t), vec![vec![Value::Null]]);
        assert_eq!(run.query("SELECT x / 0 FROM f WHERE false").unwrap().row_count(), 0);
        // Short-circuits: the division never sees x = 0.
        let t = run.query("SELECT id FROM f WHERE x <> 0 AND 10 / x > 1 ORDER BY id").unwrap();
        assert_eq!(rows(&t), vec![vec![v(3)], vec![v(4)]]);
        let t = run.query("SELECT CASE WHEN x = 0 THEN 0.0 ELSE 10 / x END FROM f ORDER BY id");
        let d = Value::Double;
        let want = vec![vec![d(0.0)], vec![Value::Null], vec![d(2.0)], vec![d(5.0)]];
        assert_eq!(rows(&t.unwrap()), want);
        let t = run.query("SELECT 1 IN (1, 10 / x) FROM f").unwrap();
        assert!(t.rows().all(|r| r[0] == Value::Bool(true)));
        // Unguarded, the division by zero is reported.
        let err = run.query("SELECT 10 / x FROM f ORDER BY id").unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    });
}

#[test]
fn abs_of_the_smallest_integer_is_an_overflow_error() {
    common::sweep(&FLOATS, |run| {
        for sql in [
            "SELECT ABS(-9223372036854775807 - 1)",
            "SELECT ABS(x - 9223372036854775807 - 1) FROM f WHERE id = 1",
        ] {
            let err = run.query(sql).unwrap_err().to_string();
            assert!(err.contains("integer overflow"), "{sql}: {err}");
        }
        let t = run.query("SELECT ABS(-9223372036854775807)").unwrap();
        assert_eq!(t.row(0)[0], v(i64::MAX));
    });
}

#[test]
fn cast_to_integer_rejects_two_to_the_63() {
    common::sweep(&FLOATS, |run| {
        for sql in [
            "SELECT CAST(9223372036854775807.0 AS INTEGER)",
            "SELECT CAST(d * 9223372036854775807.0 / 1.5 AS INTEGER) FROM f WHERE id = 4",
        ] {
            let err = run.query(sql).unwrap_err().to_string();
            assert!(err.contains("cannot cast 9223372036854776000 to INTEGER"), "{sql}: {err}");
        }
        let t = run.query("SELECT CAST(-9223372036854775808.0 AS INTEGER)").unwrap();
        assert_eq!(t.row(0)[0], v(i64::MIN));
    });
}

/// DOUBLE keys 0.0, −0.0, 1.0 and two NaNs; INTEGER keys 0, 1 and NULL.
const KEYS: [&str; 4] = [
    "CREATE TABLE z (x DOUBLE)",
    "CREATE TABLE n (y INTEGER)",
    "INSERT INTO z VALUES (0.0), (-0.0), (1.0), (CAST('NaN' AS DOUBLE)), (CAST('NaN' AS DOUBLE))",
    "INSERT INTO n VALUES (0), (1), (NULL)",
];

#[test]
fn join_group_and_distinct_keys_agree_with_equality() {
    common::sweep(&KEYS, |run| {
        let one = |sql: &str| run.query(sql).unwrap().row(0)[0].clone();
        let debug = |sql: &str| -> Vec<String> {
            run.query(sql).unwrap().rows().map(|r| format!("{r:?}")).collect()
        };
        // `=` holds between −0.0 and 0.0 and never for NaN; a hash join
        // matches exactly the pairs a filtered product keeps.
        assert_eq!(one("SELECT 0.0 = -0.0"), Value::Bool(true));
        assert_eq!(one("SELECT COUNT(*) FROM z a JOIN z b ON a.x = b.x"), v(5));
        assert_eq!(one("SELECT COUNT(*) FROM z a, z b WHERE a.x = b.x"), v(5));
        assert_eq!(one("SELECT COUNT(*) FROM z JOIN n ON z.x = n.y"), v(3));
        assert_eq!(one("SELECT COUNT(*) FROM z LEFT JOIN n ON z.x = n.y"), v(5));
        // GROUP BY: the zeros are one group, keyed by the first seen; each
        // NaN row is a group of its own, in first-seen order.
        let want = ["[Double(0.0), Int(2)]", "[Double(1.0), Int(1)]"]
            .into_iter()
            .chain(["[Double(NaN), Int(1)]"; 2])
            .map(String::from)
            .collect::<Vec<_>>();
        assert_eq!(debug("SELECT x, COUNT(*) FROM z GROUP BY x"), want);
        // DISTINCT and UNION keep one zero and every NaN.
        let want = ["[Double(0.0)]", "[Double(1.0)]", "[Double(NaN)]", "[Double(NaN)]"];
        assert_eq!(debug("SELECT DISTINCT x FROM z"), want);
        let union = debug("SELECT x FROM z UNION SELECT y FROM n");
        assert_eq!(union, [&want[..], &["[Null]"]].concat());
        assert_eq!(one("SELECT COUNT(DISTINCT x) FROM z"), v(4));
    });
}
