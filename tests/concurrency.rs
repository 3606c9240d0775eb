//! Concurrency: readers see consistent snapshots while writers mutate, and
//! the graph-index cache stays coherent under concurrent use (copy-on-write
//! catalog + version-checked index, as in the MonetDB-style design). Those
//! cases run in each configuration of the shared sweep; only the answers
//! that cannot depend on the interleaving are compared across them.
//! Concurrent writers get cases of their own: no acknowledged change is
//! lost, and a durable database reopens with the rows, row order and table
//! versions its writers left.

mod common;

use common::{render, sweep, TempDir};
use gsql::{Database, QueryResult, Value};
use std::sync::Barrier;
use std::thread;

#[test]
fn readers_see_consistent_snapshots_during_writes() {
    let setup = [
        "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL)",
        "INSERT INTO e VALUES (1, 2), (2, 3)",
        "CREATE GRAPH INDEX gi ON e EDGE (s, d)",
    ];
    sweep(&setup, |run| {
        let (db, config) = (run.db(), run.config());
        thread::scope(|scope| {
            for t in 0..3 {
                scope.spawn(move || {
                    // One session per reader thread: prepared once, cached
                    // plan reused across all 100 executions.
                    let session = db.session();
                    config.apply(&session);
                    let stmt = session
                        .prepare("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)")
                        .unwrap();
                    for _ in 0..100 {
                        // 1 always reaches 3 (the chain is never deleted).
                        let result = stmt
                            .execute(&session, &[Value::Int(1), Value::Int(3)])
                            .unwrap()
                            .into_table()
                            .unwrap();
                        assert_eq!(result.row_count(), 1, "reader {t}");
                        let d = result.row(0)[0].as_int().unwrap();
                        // Depending on the snapshot, a shortcut edge may exist.
                        assert!((1..=2).contains(&d), "reader {t} saw distance {d}");
                    }
                });
            }

            // Writer, racing the readers: repeatedly add and remove a
            // shortcut edge 1 -> 3.
            for _ in 0..200 {
                match run.session().execute("INSERT INTO e VALUES (1, 3)").unwrap() {
                    QueryResult::Affected(1) => {}
                    other => panic!("{other:?}"),
                }
                run.session().execute("DELETE FROM e WHERE s = 1 AND d = 3").unwrap();
            }
        });

        // Final state: shortcut removed, distance is 2 again.
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
                &[Value::Int(1), Value::Int(3)],
            )
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Int(2));
    });
}

#[test]
fn sessions_with_different_thread_widths_share_one_database() {
    // Mixed-width sessions — sequential, 2-way, 8-way — race the same
    // shared Database (with a graph index, so the cached CSR is shared
    // too) and must all see identical answers: the parallel runtime is
    // per-statement and must not leak state across sessions.
    let edges: Vec<String> =
        (0..400i64).map(|i| format!("({}, {})", i % 100, (i + 1) % 100)).collect();
    let setup = [
        "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL)".to_string(),
        // A ring with shortcuts: everything reaches everything.
        format!("INSERT INTO e VALUES {}", edges.join(", ")),
        "CREATE GRAPH INDEX gi ON e EDGE (s, d)".to_string(),
    ];
    sweep(&setup, |run| {
        let (db, config) = (run.db(), run.config());
        thread::scope(|scope| {
            for (t, width) in ["1", "2", "8", "4"].into_iter().enumerate() {
                scope.spawn(move || {
                    let session = db.session();
                    config.apply(&session);
                    session.set("threads", width).unwrap();
                    assert_eq!(session.setting("threads").unwrap(), width, "worker {t}");
                    let stmt = session
                        .prepare("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)")
                        .unwrap();
                    for rep in 0..40 {
                        let s = (rep * 7) % 100;
                        let d = (rep * 13 + 1) % 100;
                        let expect = (d + 100 - s) % 100; // ring distance s -> d
                        let result = stmt
                            .execute(&session, &[Value::Int(s as i64), Value::Int(d as i64)])
                            .unwrap()
                            .into_table()
                            .unwrap();
                        assert_eq!(result.row_count(), 1, "worker {t} rep {rep}");
                        let got = result.row(0)[0].as_int().unwrap();
                        assert_eq!(got, expect as i64, "worker {t} rep {rep}: {s} -> {d}");
                    }
                    // The width survives the whole run unchanged.
                    assert_eq!(session.setting("threads").unwrap(), width, "worker {t}");
                });
            }
        });
    });
}

#[test]
fn concurrent_index_creation_and_queries() {
    let setup = [
        "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL)",
        "INSERT INTO e VALUES (1, 2), (2, 3), (3, 4), (4, 5)",
    ];
    sweep(&setup, |run| {
        let (db, config) = (run.db(), run.config());
        thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    let session = db.session();
                    config.apply(&session);
                    // One thread creates the index; others race queries.
                    if t == 0 {
                        session.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
                    }
                    for _ in 0..50 {
                        let r = session
                            .query_with_params(
                                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
                                &[Value::Int(1), Value::Int(5)],
                            )
                            .unwrap();
                        assert_eq!(r.row(0)[0], Value::Int(4));
                    }
                });
            }
        });
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
                &[Value::Int(1), Value::Int(5)],
            )
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Int(4));
    });
}

#[test]
fn concurrent_weighted_queries_share_one_weight_vector_and_agree() {
    // Eight threads released together onto one indexed weighted statement
    // over a cold graph: whoever gets there first evaluates the weights
    // (several may — a miss does not block the others), everyone answers
    // what the unindexed statement answers, and afterwards it is all hits.
    let rows: Vec<String> = (0..400u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9e3779b97f4a7c15) >> 17;
            format!("({}, {}, {})", i % 100, (i + 1 + x % 7) % 100, x % 16 + 1)
        })
        .collect();
    let setup = [
        "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)".to_string(),
        format!("INSERT INTO e VALUES {}", rows.join(", ")),
    ];
    let sql = "SELECT CHEAPEST SUM(f: CAST(f.w * 2 AS INTEGER)) AS (cost, path) \
               WHERE ? REACHES ? OVER e f EDGE (s, d)";
    let render = |t: &gsql::Table| -> String {
        t.rows().map(|r| format!("{} via {}\n", r[0], r[1])).collect()
    };
    let pairs: Vec<(i64, i64)> = (0..20).map(|i| ((i * 7) % 100, (i * 13 + 1) % 100)).collect();
    sweep(&setup, |run| {
        let expected: Vec<String> = pairs
            .iter()
            .map(|&(s, d)| {
                render(&run.query_with_params(sql, &[Value::Int(s), Value::Int(d)]).unwrap())
            })
            .collect();
        run.session().execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();

        const THREADS: usize = 8;
        let start = Barrier::new(THREADS);
        let (db, config) = (run.db(), run.config());
        thread::scope(|scope| {
            for t in 0..THREADS {
                let (start, pairs, expected) = (&start, &pairs, &expected);
                scope.spawn(move || {
                    let session = db.session();
                    config.apply(&session);
                    let stmt = session.prepare(sql).unwrap();
                    start.wait();
                    for (i, &(s, d)) in pairs.iter().enumerate() {
                        let got = stmt.query(&session, &[Value::Int(s), Value::Int(d)]).unwrap();
                        assert_eq!(render(&got), expected[i], "thread {t}: {s} -> {d}");
                    }
                });
            }
        });
        let m = run.db().metrics();
        let (hits, misses) = (m.weight_cache_hits.get(), m.weight_cache_misses.get());
        assert_eq!(hits + misses, (THREADS * pairs.len()) as u64);
        assert!((1..=THREADS as u64).contains(&misses), "{misses} misses");
        assert_eq!(
            m.weight_cache_bytes.get(),
            8 * 400,
            "racing misses keep one vector, not one each"
        );
    });
}

/// The name and version of every table of `db`.
fn versions(db: &Database) -> Vec<(String, u64)> {
    db.catalog().entries().into_iter().map(|(name, entry)| (name, entry.version)).collect()
}

#[test]
fn concurrent_durable_writers_reopen_in_apply_order() {
    // Four writers interleave single-row INSERTs and DELETEs on one durable
    // table. The log must hold the changes in the order the catalog applied
    // them, so a reopen reproduces the row order and every table version.
    const WRITERS: i64 = 4;
    let dir = TempDir::new("writers");
    let (before, before_versions) = {
        let db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE t (w INTEGER NOT NULL, i INTEGER NOT NULL)").unwrap();
        let start = Barrier::new(WRITERS as usize);
        thread::scope(|scope| {
            for w in 0..WRITERS {
                let (db, start) = (&db, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..300 {
                        db.execute(&format!("INSERT INTO t VALUES ({w}, {i})")).unwrap();
                        if i % 10 == 9 {
                            let doomed = format!("DELETE FROM t WHERE w = {w} AND i = {}", i - 5);
                            let deleted = db.execute(&doomed).unwrap();
                            assert!(matches!(deleted, QueryResult::Affected(1)), "{deleted:?}");
                        }
                    }
                });
            }
        });
        (render(&db.query("SELECT w, i FROM t").unwrap()), versions(&db))
    };
    assert_eq!(before.lines().count(), 1 + 4 * 270);
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(render(&db.query("SELECT w, i FROM t").unwrap()), before);
    assert_eq!(versions(&db), before_versions);
}

#[test]
fn concurrent_update_keeps_every_insert() {
    // An UPDATE computed against an older version of its table must not
    // install over rows appended or updated meanwhile: it re-reads and
    // applies again. Two updaters race one inserter; no acknowledged
    // change of either kind may be lost.
    const ROWS: i64 = 20_000;
    let csv: String =
        std::iter::once("k,v\n".to_string()).chain((0..ROWS).map(|k| format!("{k},0\n"))).collect();
    let check = |db: &Database| {
        let t = db.query("SELECT COUNT(*), SUM(v) FROM t").unwrap();
        assert_eq!(t.row(0), vec![Value::Int(ROWS + 400), Value::Int(2 * 20 * 10)]);
        let t = db.query("SELECT COUNT(*) FROM t WHERE k >= 1000000").unwrap();
        assert_eq!(t.row(0)[0], Value::Int(400), "every acknowledged INSERT is kept");
    };
    let run = |db: &Database| {
        db.execute("CREATE TABLE t (k INTEGER NOT NULL, v INTEGER NOT NULL)").unwrap();
        assert_eq!(db.import_csv("t", csv.as_bytes()).unwrap(), ROWS as usize);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let updated = db.execute("UPDATE t SET v = v + 1 WHERE k < 10").unwrap();
                        assert!(matches!(updated, QueryResult::Affected(10)), "{updated:?}");
                    }
                });
            }
            scope.spawn(|| {
                for j in 0..400 {
                    db.execute(&format!("INSERT INTO t VALUES ({}, 0)", 1_000_000 + j)).unwrap();
                }
            });
        });
        check(db);
    };
    run(&Database::new());
    let dir = TempDir::new("update-race");
    run(&Database::open(dir.path()).unwrap());
    check(&Database::open(dir.path()).unwrap());
}
