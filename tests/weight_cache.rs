//! The weight layer of the graph index: an indexed `CHEAPEST SUM` evaluates,
//! validates and permutes its weight expression once per table version, and
//! every later statement with the same expression and constants reuses the
//! vector — with the answers, and the errors, of the statement that has no
//! cache at all (the same statement over `e_plain`, an unindexed twin of the
//! edge table, which builds an ad-hoc graph). Every case runs in each
//! configuration of the shared sweep.

mod common;

use common::{render, sweep, Run, TempDir};
use gsql::{Database, Table, Value};
use std::sync::Arc;

const EDGES: i64 = 400;

/// 400 weighted edges over 80 vertices (weights 1..=16, nullable column so
/// a NULL weight can be inserted later) in `e`, indexed, and the same rows
/// in `e_plain`, which is never indexed.
fn weighted_setup() -> [String; 5] {
    let mut x: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let rows: Vec<String> = (0..EDGES)
        .map(|_| format!("({}, {}, {})", next() % 80, next() % 80, next() % 16 + 1))
        .collect();
    let rows = rows.join(", ");
    [
        "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER)".to_string(),
        format!("INSERT INTO e VALUES {rows}"),
        "CREATE GRAPH INDEX gi ON e EDGE (s, d)".to_string(),
        "CREATE TABLE e_plain (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER)".to_string(),
        format!("INSERT INTO e_plain VALUES {rows}"),
    ]
}

/// Runs each statement over `e_plain`, so it never sees the index: it
/// builds its own graph and evaluates its own weights. The reference for
/// every answer.
struct Adhoc<'r, 'db>(&'r Run<'db>);

impl Adhoc<'_, '_> {
    fn query_with_params(&self, sql: &str, params: &[Value]) -> gsql::Result<Arc<Table>> {
        let sql = sql.replace("OVER e f", "OVER e_plain f");
        self.0.session().query_with_params(&sql, params)
    }
}

fn q14(weight: &str) -> String {
    format!(
        "SELECT CHEAPEST SUM(f: {weight}) AS (cost, path) WHERE ? REACHES ? OVER e f EDGE (s, d)"
    )
}

fn counters(db: &Database) -> (u64, u64) {
    let m = db.metrics();
    (m.weight_cache_hits.get(), m.weight_cache_misses.get())
}

const PAIRS: [(i64, i64); 4] = [(1, 40), (7, 63), (22, 5), (79, 0)];

#[test]
fn prepared_statement_misses_once_then_hits_with_identical_answers() {
    sweep(&weighted_setup(), |run| {
        let (db, session) = (run.db(), run.session());
        let sql = q14("CAST(f.w * 2 AS INTEGER)");
        let stmt = session.prepare(&sql).unwrap();
        let args = [Value::Int(1), Value::Int(40)];

        let cold = stmt.query(session, &args).unwrap();
        assert_eq!(counters(db), (0, 1), "the first statement evaluates");
        let warm = stmt.query(session, &args).unwrap();
        assert_eq!(counters(db), (1, 1), "the second reuses the vector");
        assert_eq!(cold.row_count(), 1, "1 reaches 40 in the generated graph");
        assert_eq!(cold.row(0), warm.row(0), "one graph, the same path");
        run.record("prepared", render(&cold));

        // The vector depends on the graph, not on the pair: other endpoints,
        // other sessions and unprepared text all hit, and all agree with the
        // statement that caches nothing.
        let reference = Adhoc(run);
        for (s, d) in PAIRS {
            let args = [Value::Int(s), Value::Int(d)];
            let indexed = run.query_with_params(&sql, &args).unwrap();
            let plain = reference.query_with_params(&sql, &args).unwrap();
            assert_eq!(render(&indexed), render(&plain), "{s} -> {d}");
        }
        assert_eq!(
            counters(db),
            (1 + PAIRS.len() as u64, 1),
            "ad-hoc graphs never touch the cache"
        );
        assert_eq!(db.metrics().weight_cache_bytes.get(), 8 * EDGES);
    });
}

#[test]
fn different_expressions_over_one_index_never_cross_talk() {
    sweep(&weighted_setup(), |run| {
        let reference = Adhoc(run);
        // `f.w * 2` and `f.w * 2.0` differ only by a literal that SQL equality
        // calls equal: one is an INTEGER cost, the other a DOUBLE.
        let weights = ["f.w", "f.w * 2", "f.w * 2.0", "f.w + 100", "CAST(f.w * 2 AS INTEGER)"];
        for round in 0..2 {
            for weight in weights {
                let sql = q14(weight);
                for (s, d) in PAIRS {
                    let args = [Value::Int(s), Value::Int(d)];
                    let indexed = run.query_with_params(&sql, &args).unwrap();
                    let plain = reference.query_with_params(&sql, &args).unwrap();
                    let what = format!("round {round}: {weight}, {s}->{d}");
                    assert_eq!(render(&indexed), render(&plain), "{what}");
                }
            }
        }
        let pair = [Value::Int(1), Value::Int(40)];
        let base = run.query_with_params(&q14("f.w"), &pair).unwrap();
        let twice = run.query_with_params(&q14("f.w * 2"), &pair).unwrap();
        let as_double = run.query_with_params(&q14("f.w * 2.0"), &pair).unwrap();
        let cost = base.row(0)[0].as_int().unwrap();
        assert_eq!(twice.row(0)[0], Value::Int(2 * cost));
        assert!(matches!(as_double.row(0)[0], Value::Double(c) if c == (2 * cost) as f64));
    });
}

#[test]
fn parameter_values_get_distinct_entries_equal_to_the_unindexed_answer() {
    sweep(&weighted_setup(), |run| {
        let (db, session) = (run.db(), run.session());
        let reference = Adhoc(run);
        // Parameter 0 is the weight factor; 1 and 2 are the endpoints.
        let sql = q14("CAST(f.w * ? AS INTEGER)");
        let stmt = session.prepare(&sql).unwrap();
        let base = run.query_with_params(&q14("f.w"), &[Value::Int(1), Value::Int(40)]).unwrap();
        let base_cost = base.row(0)[0].as_int().unwrap();
        let before = counters(db);
        for round in 0..2u64 {
            for k in 1..=3i64 {
                for (s, d) in PAIRS {
                    let args = [Value::Int(k), Value::Int(s), Value::Int(d)];
                    let indexed = stmt.query(session, &args).unwrap();
                    let plain = reference.query_with_params(&sql, &args).unwrap();
                    assert_eq!(render(&indexed), render(&plain), "round {round}: k={k}, {s}->{d}");
                    run.record(&format!("k={k} {s}->{d}"), render(&indexed));
                }
                let args = [Value::Int(k), Value::Int(1), Value::Int(40)];
                let scaled = stmt.query(session, &args).unwrap();
                assert_eq!(scaled.row(0)[0], Value::Int(k * base_cost), "round {round}: k={k}");
            }
        }
        let (hits, misses) = counters(db);
        assert_eq!(misses - before.1, 3, "one evaluation per factor, none in the second round");
        assert_eq!(hits - before.0, 2 * 3 * (PAIRS.len() as u64 + 1) - 3);
        // A DOUBLE factor is a different entry even where SQL calls it equal.
        let args = [Value::Double(2.0), Value::Int(1), Value::Int(40)];
        let plain = reference.query_with_params(&sql, &args).unwrap();
        assert_eq!(render(&stmt.query(session, &args).unwrap()), render(&plain));
        assert_eq!(counters(db).1 - before.1, 4);
    });
}

#[test]
fn bad_weight_inserted_after_a_cached_vector_fails_like_the_unindexed_statement() {
    sweep(&weighted_setup(), |run| {
        let db = run.db();
        let reference = Adhoc(run);
        let sql = q14("CAST(f.w * 2 AS INTEGER)");
        let args = [Value::Int(1), Value::Int(40)];
        let good = run.query_with_params(&sql, &args).unwrap();
        assert_eq!(counters(db), (0, 1));

        for (bad, what) in [("0", "greater than 0"), ("-3", "greater than 0"), ("NULL", "NULL")] {
            // The write makes a new table version: a new graph, an empty cache.
            for table in ["e", "e_plain"] {
                let insert = format!("INSERT INTO {table} VALUES (1, 40, {bad})");
                run.session().execute(&insert).unwrap();
            }
            let (hits, misses) = counters(db);
            let want = reference.query_with_params(&sql, &args).unwrap_err().to_string();
            assert!(want.contains(what), "{bad}: {want}");
            // The failure is not cached: it is evaluated, and raised, each time.
            for attempt in 1..=3 {
                let got = run.query_with_params(&sql, &args).unwrap_err().to_string();
                assert_eq!(got, want, "weight {bad}, attempt {attempt}");
                assert_eq!(counters(db), (hits, misses + attempt), "weight {bad}");
            }
            assert_eq!(
                db.metrics().weight_cache_bytes.get(),
                0,
                "the good vector went with its graph"
            );
            for table in ["e", "e_plain"] {
                let delete = format!("DELETE FROM {table} WHERE w IS NULL OR w <= 0");
                run.session().execute(&delete).unwrap();
            }
            let healed = run.query_with_params(&sql, &args).unwrap();
            assert_eq!(render(&healed), render(&good), "after removing weight {bad}");
            assert_eq!(db.metrics().weight_cache_bytes.get(), 8 * EDGES);
        }
    });
}

#[test]
fn more_expressions_than_the_capacity_evicts_the_least_recently_used() {
    sweep(&weighted_setup(), |run| {
        let db = run.db();
        let reference = Adhoc(run);
        let sql = q14("CAST(f.w * ? AS INTEGER)");
        let check = |k: i64| {
            let args = [Value::Int(k), Value::Int(7), Value::Int(63)];
            let indexed = run.query_with_params(&sql, &args).unwrap();
            let plain = reference.query_with_params(&sql, &args).unwrap();
            assert_eq!(render(&indexed), render(&plain), "k={k}");
        };
        // Four vectors stay resident; six distinct factors overflow that.
        for k in 1..=6 {
            check(k);
        }
        assert_eq!(counters(db), (0, 6));
        assert_eq!(db.metrics().weight_cache_bytes.get(), 4 * 8 * EDGES, "bounded at four vectors");
        check(3); // the oldest survivor: still there, and now the newest
        assert_eq!(counters(db), (1, 6));
        check(1); // evicted long ago; takes the place of 4, the coldest
        assert_eq!(counters(db), (1, 7));
        for k in [3, 5, 6, 1] {
            check(k);
        }
        assert_eq!(counters(db), (5, 7));
        check(4);
        assert_eq!(counters(db), (5, 8));
        assert_eq!(db.metrics().weight_cache_bytes.get(), 4 * 8 * EDGES);

        // Dropping the index drops the graph and everything cached on it.
        run.session().execute("DROP GRAPH INDEX gi").unwrap();
        assert_eq!(db.metrics().weight_cache_bytes.get(), 0);
        check(4);
        assert_eq!(counters(db), (5, 8), "no index, no cache");
    });
}

#[test]
fn batches_and_graph_joins_share_the_vector_with_point_queries() {
    let mut setup = weighted_setup().to_vec();
    let people: Vec<String> = (0..80).map(|id| format!("({id}, {})", id % 8)).collect();
    setup.push("CREATE TABLE people (id INTEGER NOT NULL, grp INTEGER NOT NULL)".to_string());
    setup.push(format!("INSERT INTO people VALUES {}", people.join(", ")));
    let join = "SELECT p1.id, p2.id, CHEAPEST SUM(f: CAST(f.w * 2 AS INTEGER)) AS cost \
                FROM people p1, people p2 \
                WHERE p1.grp = 1 AND p2.grp = 4 AND p1.id REACHES p2.id OVER e f EDGE (s, d)";
    sweep(&setup, |run| {
        let db = run.db();
        let table = |t: Arc<Table>| -> Vec<Vec<Value>> { t.rows().collect() };
        let plain = table(Adhoc(run).query_with_params(join, &[]).unwrap());
        for threads in ["1", "4"] {
            let session = run.new_session();
            session.set("threads", threads).unwrap();
            assert_eq!(table(session.query(join).unwrap()), plain, "threads {threads}");
        }
        run.query(join).unwrap();
        // The point query uses the same expression, so it finds the join's vector.
        let (hits, misses) = counters(db);
        assert_eq!(misses, 1, "three joins, one evaluation");
        run.query_with_params(&q14("CAST(f.w * 2 AS INTEGER)"), &[Value::Int(1), Value::Int(40)])
            .unwrap();
        assert_eq!(counters(db), (hits + 1, misses));
    });
}

/// A path index's weight vector is its graph's cached vector. A weighted
/// query that asks for a path is not covered by the layer, so Dijkstra runs
/// over the graph the path index shares with the graph index — and reads
/// the vector the index build put in that graph's cache, holding no second
/// copy. A warm reopen derives the layer's weights from the restored table
/// into the restored graph's cache, so the same holds there.
#[test]
fn a_path_index_and_a_query_share_one_weight_vector() {
    let sql = q14("f.w");
    let args = [Value::Int(1), Value::Int(40)];
    let shared = |db: &Database| -> String {
        assert_eq!(db.metrics().weight_cache_bytes.get(), 8 * EDGES, "the layer's vector");
        let before = counters(db);
        let t = db.query_with_params(&sql, &args).unwrap();
        assert_eq!(counters(db), (before.0 + 1, before.1), "the query hits");
        assert_eq!(db.metrics().weight_cache_bytes.get(), 8 * EDGES, "and holds no copy");
        render(&t)
    };
    let dir = TempDir::new("shared-weights");
    let expected = {
        let db = Database::open(dir.path()).unwrap();
        for statement in weighted_setup() {
            db.execute(&statement).unwrap();
        }
        db.execute("CREATE PATH INDEX pw ON e EDGE (s, d) WEIGHT w USING LANDMARKS(2)").unwrap();
        let expected = shared(&db);
        db.execute("CHECKPOINT").unwrap();
        expected
    };
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(shared(&db), expected);
    assert_eq!(db.indexes().builds(), 0, "a warm reopen builds no layer");
    let plain = db.query_with_params(&sql.replace("OVER e f", "OVER e_plain f"), &args).unwrap();
    assert_eq!(render(&plain), expected);
}
