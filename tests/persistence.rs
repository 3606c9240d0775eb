//! Durability end-to-end: WAL replay, snapshot checkpoints, torn-tail
//! recovery, and the warm-start contract — a reopened database with a
//! built path index answers accelerated queries with **zero** rebuild
//! work and results byte-identical to the pre-restart process.

use gsql_core::{Database, IndexSpace};
use gsql_storage::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, empty temp directory, removed on drop (best effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gsql-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let t = db.query(sql).unwrap();
    (0..t.row_count()).map(|i| t.row(i)).collect()
}

const ROADS: &str = "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)";
const ROAD_ROWS: &str = "INSERT INTO e VALUES (1,2,5), (2,3,5), (1,3,20), (3,4,1)";
const CHEAPEST: &str = "SELECT CHEAPEST SUM(f: f.w) AS cost WHERE 1 REACHES 4 OVER e f EDGE (s, d)";

#[test]
fn wal_only_restart_roundtrip() {
    let dir = TempDir::new("wal");
    let (before, version) = {
        let db = Database::open(dir.path()).unwrap();
        db.execute(ROADS).unwrap();
        db.execute(ROAD_ROWS).unwrap();
        db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
        (rows(&db, "SELECT * FROM e"), db.schema_version())
    };
    // No checkpoint was taken: recovery is pure WAL replay.
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(rows(&db, "SELECT * FROM e"), before);
    assert_eq!(db.schema_version(), version);
    assert_eq!(db.indexes().index_names(IndexSpace::Graph), vec!["gi".to_string()]);
    assert_eq!(rows(&db, CHEAPEST), vec![vec![Value::Int(11)]]);
}

#[test]
fn checkpoint_restart_answers_accelerated_queries_without_rebuild() {
    let dir = TempDir::new("warm");
    let (before, version, expected) = {
        let db = Database::open(dir.path()).unwrap();
        db.execute(ROADS).unwrap();
        db.execute(ROAD_ROWS).unwrap();
        db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
        db.execute("CREATE PATH INDEX pa ON e EDGE (s, d) WEIGHT w USING LANDMARKS(4)").unwrap();
        assert!(db.indexes().builds() >= 2);
        let expected = rows(&db, CHEAPEST);
        let t = db.query("CHECKPOINT").unwrap();
        assert_eq!(t.row(0)[0], Value::from("checkpoint written (epoch 1)"));
        (rows(&db, "SELECT * FROM e"), db.schema_version(), expected)
    };

    let db = Database::open(dir.path()).unwrap();
    assert_eq!(rows(&db, "SELECT * FROM e"), before, "snapshot restores tables byte-identically");
    assert_eq!(db.schema_version(), version);
    // The plan still picks the index...
    let plan = rows(&db, &format!("EXPLAIN {CHEAPEST}"));
    assert!(
        plan.iter().any(|r| matches!(&r[0], Value::Str(s) if s.contains("PathIndex"))),
        "expected an accelerated plan, got {plan:?}"
    );
    // ...and both indexes report built without any rebuild having run.
    let listing = db.indexes().list(db.catalog());
    assert!(listing.iter().all(|l| l.status == "built"), "{listing:?}");
    assert_eq!(rows(&db, CHEAPEST), expected);
    assert_eq!(db.indexes().builds(), 0, "warm start must not rebuild");
}

/// Both dictionary representations round-trip: a path index over an
/// `INTEGER`-keyed and one over a `VARCHAR`-keyed edge table answer the
/// same after checkpoint → reopen, with no build work in the new process.
#[test]
fn int_and_varchar_keyed_path_indexes_survive_reopen() {
    // Cost-only shapes: these are the ones the optimizer routes through the
    // path index, so they resolve their endpoints in the restored dictionary.
    let queries: Vec<String> = [("'AMS'", "'JFK'"), ("'JFK'", "'LIS'"), ("'LIS'", "'XXX'")]
        .iter()
        .map(|(x, y)| {
            format!(
                "SELECT CHEAPEST SUM(f: f.mins) AS cost \
                 WHERE {x} REACHES {y} OVER flights f EDGE (org, dst)"
            )
        })
        .chain([CHEAPEST.to_string()])
        .collect();
    let answers = |db: &Database| -> Vec<Vec<Vec<Value>>> {
        queries
            .iter()
            .map(|sql| {
                let plan = rows(db, &format!("EXPLAIN {sql}"));
                assert!(
                    plan.iter().any(|r| matches!(&r[0], Value::Str(s) if s.contains("PathIndex"))),
                    "expected an accelerated plan for {sql}, got {plan:?}"
                );
                rows(db, sql)
            })
            .collect()
    };
    let dir = TempDir::new("keys");
    let before = {
        let db = Database::open(dir.path()).unwrap();
        db.execute(ROADS).unwrap();
        db.execute(ROAD_ROWS).unwrap();
        db.execute("CREATE TABLE flights (org VARCHAR, dst VARCHAR, mins INTEGER NOT NULL)")
            .unwrap();
        db.execute(
            "INSERT INTO flights VALUES ('AMS', 'LIS', 170), ('LIS', 'JFK', 420), \
             ('AMS', 'JFK', 700), ('JFK', 'AMS', 430), (NULL, 'AMS', 1)",
        )
        .unwrap();
        db.execute("CREATE PATH INDEX pe ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
        db.execute(
            "CREATE PATH INDEX pf ON flights EDGE (org, dst) WEIGHT mins USING LANDMARKS(2)",
        )
        .unwrap();
        let before = answers(&db);
        assert_eq!(
            before,
            vec![
                vec![vec![Value::Int(590)]],
                vec![vec![Value::Int(600)]],
                vec![],
                vec![vec![Value::Int(11)]]
            ]
        );
        db.execute("CHECKPOINT").unwrap();
        before
    };
    let db = Database::open(dir.path()).unwrap();
    let listing = db.indexes().list(db.catalog());
    assert!(listing.iter().all(|l| l.status == "built"), "{listing:?}");
    assert_eq!(answers(&db), before);
    assert_eq!(db.indexes().builds(), 0, "warm start must not rebuild");
}

#[test]
fn torn_wal_tail_is_truncated() {
    let dir = TempDir::new("torn");
    {
        let db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE t (x INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("INSERT INTO t VALUES (2)").unwrap();
    }
    // Simulate a crash mid-append: a frame header promising more payload
    // than was ever written.
    let wal = dir.path().join("wal-0.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let valid_len = bytes.len();
    bytes.extend_from_slice(&[0xFF, 0x00, 0x00, 0x00, 0xAB, 0xCD]);
    std::fs::write(&wal, &bytes).unwrap();

    let db = Database::open(dir.path()).unwrap();
    assert_eq!(
        rows(&db, "SELECT x FROM t ORDER BY x"),
        vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        "recovery keeps the valid prefix"
    );
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), valid_len as u64, "torn tail truncated");
    // The log accepts appends again and they survive another restart.
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    drop(db);
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(rows(&db, "SELECT COUNT(*) FROM t"), vec![vec![Value::Int(3)]]);
}

#[test]
fn stale_persisted_index_falls_back_to_rebuild() {
    let dir = TempDir::new("stale");
    {
        let db = Database::open(dir.path()).unwrap();
        db.execute(ROADS).unwrap();
        db.execute(ROAD_ROWS).unwrap();
        db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
        db.execute("CHECKPOINT").unwrap();
        // This mutation lands in the post-rotation WAL: on recovery it
        // replays after the snapshot and invalidates the persisted index.
        db.execute("INSERT INTO e VALUES (1, 4, 2)").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let listing = db.indexes().list(db.catalog());
    assert_eq!(listing[0].status, "stale", "{listing:?}");
    assert_eq!(db.indexes().builds(), 0);
    // The query sees the new edge — the stale persisted structure must not
    // serve it — and triggers exactly one lazy rebuild.
    assert_eq!(rows(&db, CHEAPEST), vec![vec![Value::Int(2)]]);
    assert_eq!(db.indexes().builds(), 1);
}

#[test]
fn checkpoint_then_replay_matches_unrestarted_engine_at_thread_counts() {
    let statements = [
        ROADS,
        ROAD_ROWS,
        "CREATE GRAPH INDEX gi ON e EDGE (s, d)",
        "CREATE PATH INDEX pa ON e EDGE (s, d) WEIGHT w USING LANDMARKS(3)",
        "INSERT INTO e VALUES (4, 5, 7), (5, 1, 7)",
        "UPDATE e SET w = 6 WHERE s = 1 AND d = 2",
        "DELETE FROM e WHERE w = 20",
    ];
    let queries = [
        "SELECT * FROM e",
        CHEAPEST,
        "SELECT CHEAPEST SUM(1) AS hops WHERE 4 REACHES 3 OVER e EDGE (s, d)",
    ];
    for threads in [1usize, 4] {
        let dir = TempDir::new("equiv");
        let reference = Database::new();
        {
            let db = Database::open(dir.path()).unwrap();
            let durable = db.session();
            let fresh = reference.session();
            durable.set("threads", &threads.to_string()).unwrap();
            fresh.set("threads", &threads.to_string()).unwrap();
            for (i, s) in statements.iter().enumerate() {
                durable.execute(s).unwrap();
                fresh.execute(s).unwrap();
                if i == 3 {
                    durable.execute("CHECKPOINT").unwrap();
                }
            }
        }
        let reopened = Database::open(dir.path()).unwrap();
        assert_eq!(reopened.schema_version(), reference.schema_version(), "threads={threads}");
        let a = reopened.session();
        let b = reference.session();
        a.set("threads", &threads.to_string()).unwrap();
        b.set("threads", &threads.to_string()).unwrap();
        for q in queries {
            let ta = a.query(q).unwrap();
            let tb = b.query(q).unwrap();
            let ra: Vec<Vec<Value>> = (0..ta.row_count()).map(|i| ta.row(i)).collect();
            let rb: Vec<Vec<Value>> = (0..tb.row_count()).map(|i| tb.row(i)).collect();
            assert_eq!(ra, rb, "threads={threads}, query={q}");
        }
    }
}

#[test]
fn checkpoint_is_a_noop_in_memory() {
    // `Database::default()` is always in-memory, even under the CI leg's
    // GSQL_DATA_DIR (which makes `Database::new()` durable).
    let db = Database::default();
    let t = db.query("CHECKPOINT").unwrap();
    assert_eq!(t.row(0)[0], Value::from("checkpoint skipped (in-memory database)"));
    assert!(db.checkpoint().unwrap().is_none());
    assert!(!db.is_durable());
    assert!(db.data_dir().is_none());
}

#[test]
fn storage_metrics_are_exported() {
    let dir = TempDir::new("metrics");
    {
        let db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE t (x INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("CHECKPOINT").unwrap();
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        let text = db.metrics().registry().render();
        assert!(text.contains("gsql_wal_appends_total 4"), "{text}");
        assert!(text.contains("gsql_wal_bytes_total"), "{text}");
        assert!(text.contains("gsql_checkpoint_duration_microseconds_count 1"), "{text}");
        assert!(text.contains("gsql_build_info{version=\""), "{text}");
        assert!(text.contains("gsql_recovery_replayed_records 0"), "{text}");
    }
    // Two statements landed after the checkpoint: recovery replays them.
    let db = Database::open(dir.path()).unwrap();
    let text = db.metrics().registry().render();
    assert!(text.contains("gsql_recovery_replayed_records 2"), "{text}");
}

#[test]
fn path_parameters_are_rejected_on_durable_mutations() {
    let dir = TempDir::new("pathparam");
    let db = Database::open(dir.path()).unwrap();
    db.execute(ROADS).unwrap();
    db.execute(ROAD_ROWS).unwrap();
    let t = db
        .query("SELECT CHEAPEST SUM(f: f.w) AS (c, p) WHERE 1 REACHES 4 OVER e f EDGE (s, d)")
        .unwrap();
    let path = t.row(0)[1].clone();
    assert!(matches!(path, Value::Path(_)));
    db.execute("CREATE TABLE sink (x INTEGER)").unwrap();
    let err = db
        .execute_with_params("INSERT INTO sink VALUES (?)", std::slice::from_ref(&path))
        .unwrap_err();
    assert!(err.to_string().contains("path-valued parameters"), "{err}");
    // Reads with path parameters are unaffected (nothing to log).
    assert!(db.execute_with_params("SELECT 1 FROM sink WHERE 1 = 0", &[]).is_ok());
}

#[test]
fn import_csv_survives_restart() {
    let dir = TempDir::new("csv");
    {
        let db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE people (id INTEGER, name VARCHAR)").unwrap();
        let csv = "id,name\n1,ada\n2,grace\n";
        assert_eq!(db.import_csv("people", csv.as_bytes()).unwrap(), 2);
    }
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(
        rows(&db, "SELECT id, name FROM people ORDER BY id"),
        vec![vec![Value::Int(1), Value::from("ada")], vec![Value::Int(2), Value::from("grace")],]
    );
}

/// Weight vectors are not persisted: a reopened database answers an
/// indexed weighted query the same as before the restart, evaluating the
/// weight expression once more and then never again.
#[test]
fn weight_cache_starts_empty_after_reopen_and_recomputes_once() {
    const WEIGHTED: &str = "SELECT CHEAPEST SUM(f: CAST(f.w * 2 AS INTEGER)) AS (cost, path) \
                            WHERE 1 REACHES 4 OVER e f EDGE (s, d)";
    let render = |db: &Database| -> String {
        let t = db.query(WEIGHTED).unwrap();
        t.rows().map(|r| format!("{} via {}\n", r[0], r[1])).collect()
    };
    let dir = TempDir::new("weights");
    let expected = {
        let db = Database::open(dir.path()).unwrap();
        db.execute(ROADS).unwrap();
        db.execute(ROAD_ROWS).unwrap();
        db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
        let expected = render(&db);
        assert_eq!(render(&db), expected);
        let m = db.metrics();
        assert_eq!((m.weight_cache_hits.get(), m.weight_cache_misses.get()), (1, 1));
        db.execute("CHECKPOINT").unwrap();
        expected
    };
    assert!(expected.starts_with("22 via "), "1 -> 2 -> 3 -> 4 at doubled weights: {expected}");

    let db = Database::open(dir.path()).unwrap();
    let m = db.metrics();
    assert_eq!(m.weight_cache_bytes.get(), 0, "nothing restored");
    assert_eq!(render(&db), expected);
    assert_eq!((m.weight_cache_hits.get(), m.weight_cache_misses.get()), (0, 1));
    assert_eq!(render(&db), expected);
    assert_eq!((m.weight_cache_hits.get(), m.weight_cache_misses.get()), (1, 1));
    assert_eq!(m.weight_cache_bytes.get(), 8 * 4);
}

/// After a warm reopen, a restored path index's graph also serves a graph
/// index over the same edges: answering through either builds nothing.
#[test]
fn restored_path_index_graph_serves_the_graph_index() {
    const WITH_PATH: &str = "SELECT CHEAPEST SUM(f: f.w) AS (cost, path) \
                             WHERE 1 REACHES 4 OVER e f EDGE (s, d)";
    let dir = TempDir::new("shared");
    {
        let db = Database::open(dir.path()).unwrap();
        db.execute(ROADS).unwrap();
        db.execute(ROAD_ROWS).unwrap();
        db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
        db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
        db.execute("CHECKPOINT").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let plan = rows(&db, &format!("EXPLAIN {WITH_PATH}"));
    assert!(plan.iter().any(|r| r[0] == Value::from("    GraphIndex gi ON e")), "{plan:?}");
    assert_eq!(rows(&db, WITH_PATH)[0][0], Value::Int(11));
    assert_eq!(rows(&db, CHEAPEST), vec![vec![Value::Int(11)]]);
    let m = db.metrics();
    let builds = ["statement", "graph_index", "path_index"].map(|s| m.graph_builds_total(s));
    assert_eq!((builds, db.indexes().builds()), ([0, 0, 0], 0), "a warm reopen builds nothing");
}

/// A data directory written before graph and path indexes shared one
/// registry — it split the structural counter across both snapshot
/// sections — reopens with the same schema version, names, listing and
/// answers, building nothing but the one path index its WAL made stale.
///
/// The fixture was written from this script, then checkpointed before the
/// last `INSERT`:
///
/// ```sql
/// CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL);
/// INSERT INTO e VALUES (1,2,5), (2,3,5), (1,3,20), (3,4,1);
/// CREATE TABLE flights (org VARCHAR, dst VARCHAR, mins INTEGER NOT NULL);
/// INSERT INTO flights VALUES ('AMS', 'LIS', 170), ('LIS', 'JFK', 420),
///   ('AMS', 'JFK', 700), ('JFK', 'AMS', 430), (NULL, 'AMS', 1);
/// CREATE TABLE r (a INTEGER, b INTEGER);
/// INSERT INTO r VALUES (1, 2), (2, 3), (3, 4), (4, 5);
/// CREATE GRAPH INDEX gi ON e EDGE (s, d);
/// CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION;
/// CREATE GRAPH INDEX gf ON flights EDGE (org, dst);
/// CREATE PATH INDEX pf ON flights EDGE (org, dst) WEIGHT mins USING LANDMARKS(2);
/// CREATE PATH INDEX ph ON r EDGE (a, b) USING LANDMARKS(2);
/// CREATE GRAPH INDEX pc ON r EDGE (a, b);
/// CHECKPOINT;
/// INSERT INTO r VALUES (1, 4);
/// ```
#[test]
fn data_dir_with_split_index_counters_reopens_unchanged() {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/two_registry_data_dir");
    let dir = TempDir::new("fixture");
    std::fs::create_dir_all(dir.path()).unwrap();
    for file in std::fs::read_dir(&fixture).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), dir.path().join(file.file_name())).unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(db.schema_version(), 9);
    assert_eq!(db.indexes().index_names(IndexSpace::Graph), ["gf", "gi", "pc"]);
    let listing: Vec<(String, String, &str)> =
        db.indexes().list(db.catalog()).into_iter().map(|l| (l.name, l.kind, l.status)).collect();
    let row = |n: &str, k: &str, s| (n.to_string(), k.to_string(), s);
    assert_eq!(
        listing,
        [
            row("pc", "contraction", "built"),
            row("pf", "landmarks(2)", "built"),
            row("ph", "landmarks(2)", "stale")
        ]
    );
    // Every statement plans as it did in the process that wrote the
    // directory, and answers the same.
    for (sql, index, want) in [
        ("SELECT CHEAPEST SUM(f: f.w) AS cost WHERE 1 REACHES 4 OVER e f EDGE (s, d)", "PathIndex pc ON e (CH)", 11),
        ("SELECT CHEAPEST SUM(f: f.w) AS (cost, path) WHERE 1 REACHES 4 OVER e f EDGE (s, d)", "GraphIndex gi ON e", 11),
        ("SELECT CHEAPEST SUM(f: f.mins) AS cost WHERE 'AMS' REACHES 'JFK' OVER flights f EDGE (org, dst)", "PathIndex pf ON flights (ALT)", 590),
        ("SELECT CHEAPEST SUM(f: f.mins) AS cost WHERE 'JFK' REACHES 'LIS' OVER flights f EDGE (org, dst)", "PathIndex pf ON flights (ALT)", 600),
        ("SELECT CHEAPEST SUM(1) AS hops WHERE 'LIS' REACHES 'AMS' OVER flights EDGE (org, dst)", "GraphIndex gf ON flights", 2),
    ] {
        let plan = rows(&db, &format!("EXPLAIN {sql}"));
        assert!(plan.iter().any(|r| r[0] == Value::from(format!("    {index}"))), "{sql}: {plan:?}");
        assert_eq!(rows(&db, sql)[0][0], Value::Int(want), "{sql}");
    }
    let path = rows(
        &db,
        "SELECT CHEAPEST SUM(f: f.w) AS (cost, path) WHERE 1 REACHES 4 OVER e f EDGE (s, d)",
    );
    let Value::Path(path) = &path[0][1] else { panic!("{path:?}") };
    assert_eq!(path.rows, [0, 1, 3]);
    let m = db.metrics();
    let graph_builds =
        || ["statement", "graph_index", "path_index"].map(|s| m.graph_builds_total(s));
    assert_eq!(
        (graph_builds(), db.indexes().builds()),
        ([0, 0, 0], 0),
        "restored indexes built nothing"
    );
    // The index the WAL made stale rebuilds once, on its first query.
    let sql = "SELECT CHEAPEST SUM(1) AS hops WHERE 1 REACHES 5 OVER r EDGE (a, b)";
    let plan = rows(&db, &format!("EXPLAIN {sql}"));
    assert!(plan.iter().any(|r| r[0] == Value::from("    PathIndex ph ON r (ALT)")), "{plan:?}");
    assert_eq!(rows(&db, sql), vec![vec![Value::Int(2)]]);
    assert_eq!((graph_builds(), db.indexes().builds()), ([0, 0, 1], 1));
}
