//! Durability end-to-end: WAL replay, snapshot checkpoints, torn-tail
//! recovery, a writer killed with SIGKILL, and the warm-start contract — a
//! reopened database with a built path index answers accelerated queries
//! with **zero** rebuild work, the same search effort and results
//! byte-identical to the pre-restart process.

mod common;

use common::{find_span, render, sweep, TempDir};
use gsql_core::{Database, IndexSpace};
use gsql_datagen::{SnbDataset, SnbParams};
use gsql_server::json::{self, Json};
use gsql_storage::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let t = db.query(sql).unwrap();
    (0..t.row_count()).map(|i| t.row(i)).collect()
}

const ROADS: &str = "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)";
const ROAD_ROWS: &str = "INSERT INTO e VALUES (1,2,5), (2,3,5), (1,3,20), (3,4,1)";
const CHEAPEST: &str = "SELECT CHEAPEST SUM(f: f.w) AS cost WHERE 1 REACHES 4 OVER e f EDGE (s, d)";

/// The `(kind, settled)` attributes of the `traversal` span of `sql`, run
/// traced: which search answered it, and how many vertices it settled.
fn traversal(db: &Database, sql: &str) -> (String, i64) {
    let session = db.session();
    session.set("trace", "on").unwrap();
    session.query(sql).unwrap();
    let doc = json::parse(&session.last_trace_json().unwrap()).unwrap();
    let span = find_span(doc.as_array().unwrap(), "traversal").expect("a traversal span");
    let attrs = span.get("attrs").expect("attributes");
    let kind = attrs.get("kind").and_then(Json::as_str).expect("kind");
    (kind.to_string(), attrs.get("settled").and_then(Json::as_i64).expect("settled"))
}

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
    let (before, version, expected, search) = {
        let db = Database::open(dir.path()).unwrap();
        db.execute(ROADS).unwrap();
        db.execute(ROAD_ROWS).unwrap();
        db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
        db.execute("CREATE PATH INDEX pa ON e EDGE (s, d) WEIGHT w USING LANDMARKS(4)").unwrap();
        assert!(db.indexes().builds() >= 2);
        let expected = rows(&db, CHEAPEST);
        let search = traversal(&db, CHEAPEST);
        assert_eq!(search.0, "ch", "the contraction index answers");
        assert!(search.1 > 0, "{search:?}");
        let t = db.query("CHECKPOINT").unwrap();
        assert_eq!(t.row(0)[0], Value::from("checkpoint written (epoch 1)"));
        (rows(&db, "SELECT * FROM e"), db.schema_version(), expected, search)
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
    // ...by the same search over the restored hierarchy: it settles the
    // vertices it settled before the restart.
    assert_eq!(traversal(&db, CHEAPEST), search, "the restored index searches the same");
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

/// A database recovered from a snapshot plus a WAL suffix of DML over
/// indexed tables answers like one that never restarted, at threads 1 and
/// 4 and both morsel sizes — with the same schema version.
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
        // A DOUBLE sum depends on morsel boundaries: 7.0 at `morsel_rows =
        // 7`, 8.0 in one morsel. Recovery must keep the sum the configured
        // session stored after the checkpoint, not compute it again.
        "CREATE TABLE a (x DOUBLE); \
         INSERT INTO a VALUES (1.0), (1.0), (1.0), (1.0), (1.0), (1.0), (1.0), \
           (10000000000000000.0), (-10000000000000000.0); \
         CREATE TABLE b (s DOUBLE)",
        "INSERT INTO b SELECT SUM(x) FROM a",
    ];
    sweep(&statements, |run| {
        run.record("schema_version", run.db().schema_version().to_string());
        for q in [
            "SELECT * FROM e",
            CHEAPEST,
            "SELECT CHEAPEST SUM(1) AS hops WHERE 4 REACHES 3 OVER e EDGE (s, d)",
            "SELECT s FROM b",
        ] {
            run.query(q).unwrap();
        }
    });
}

/// Set in the environment of a re-executed copy of this test binary: that
/// copy is the crash test's writer, over the directory it names.
const CRASH_WRITER_DIR: &str = "CRASH_WRITER_DIR";
/// The writer checkpoints after every this many committed ids.
const CHECKPOINT_EVERY: i64 = 8;

/// Aggregates of the crash test's ledger.
#[derive(Debug, PartialEq)]
struct Ledger {
    rows: i64,
    distinct_ids: i64,
    min_id: i64,
    max_id: i64,
    sum_val: i64,
}

impl Ledger {
    /// The ledger holding exactly the rows `(id, 7·id)` for `id` in `1..=n`.
    fn prefix(n: i64) -> Ledger {
        Ledger { rows: n, distinct_ids: n, min_id: 1, max_id: n, sum_val: 7 * n * (n + 1) / 2 }
    }

    /// The ledger of `db`, `None` before the table exists.
    fn of(db: &Database) -> Option<Ledger> {
        let sql = "SELECT COUNT(*), COUNT(DISTINCT id), MIN(id), MAX(id), SUM(val) FROM ledger";
        let t = db.query(sql).ok()?;
        let get = |i: usize| t.row(0)[i].as_int().unwrap_or(0);
        Some(Ledger {
            rows: get(0),
            distinct_ids: get(1),
            min_id: get(2),
            max_id: get(3),
            sum_val: get(4),
        })
    }
}

/// The crash test's writer: insert `(id, 7·id)` for the next id, then the
/// one after, until killed, with a checkpoint after every
/// [`CHECKPOINT_EVERY`]-th id. Each committed id is acknowledged on stdout
/// as `progress id=N`, or `progress id=N (checkpointed)` once its checkpoint
/// is written.
fn crash_writer(dir: &Path) -> ! {
    let db = Database::open(dir).unwrap();
    let mut id = match Ledger::of(&db) {
        Some(ledger) => ledger.rows + 1,
        None => {
            db.execute("CREATE TABLE ledger (id INTEGER NOT NULL, val INTEGER NOT NULL)").unwrap();
            1
        }
    };
    let mut out = std::io::stdout().lock();
    loop {
        db.execute(&format!("INSERT INTO ledger VALUES ({id}, {})", 7 * id)).unwrap();
        let note = if id % CHECKPOINT_EVERY == 0 {
            db.checkpoint().unwrap();
            " (checkpointed)"
        } else {
            ""
        };
        writeln!(out, "progress id={id}{note}").unwrap();
        out.flush().unwrap();
        id += 1;
    }
}

/// Where the crash test kills its writer, judged on each progress line.
#[derive(Debug, Clone, Copy)]
enum KillAt {
    /// Right after the writer's N-th commit of its run.
    Commit(i64),
    /// Right after its first checkpoint.
    Checkpoint,
    /// Right after the commit that precedes a checkpoint, so the kill races
    /// the snapshot.
    BeforeCheckpoint,
}

impl KillAt {
    /// Whether to kill after reading the `n`-th progress line of the run,
    /// which acknowledged `id` (after a checkpoint when `checkpointed`).
    fn now(self, n: i64, id: i64, checkpointed: bool) -> bool {
        match self {
            KillAt::Commit(at) => n == at,
            KillAt::Checkpoint => checkpointed,
            KillAt::BeforeCheckpoint => (id + 1) % CHECKPOINT_EVERY == 0,
        }
    }
}

/// A durable writer killed with SIGKILL at chosen points — right after its
/// first commit, right after a checkpoint, right before one (so the kill
/// races the snapshot), and after many commits — leaves a directory that
/// reopens to a contiguous prefix `1..=n` of its ids with consistent
/// values, holding every id the writer acknowledged, and whose log accepts
/// appends again. The writer is this binary, re-executed.
#[test]
fn killed_writer_recovers_every_acknowledged_commit() {
    if let Some(dir) = std::env::var_os(CRASH_WRITER_DIR) {
        crash_writer(Path::new(&dir));
    }
    let dir = TempDir::new("crash");
    for point in
        [KillAt::Commit(1), KillAt::Checkpoint, KillAt::BeforeCheckpoint, KillAt::Commit(40)]
    {
        let mut writer = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "killed_writer_recovers_every_acknowledged_commit", "--nocapture"])
            .env(CRASH_WRITER_DIR, dir.path())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut lines = BufReader::new(writer.stdout.take().unwrap()).lines();
        // The last id acknowledged before the kill, and after it: the pipe
        // still holds whatever the writer printed before it died.
        let mut acknowledged = 0;
        let mut killed = false;
        let mut n = 0;
        for line in lines.by_ref() {
            let line = line.unwrap();
            let Some(progress) = line.strip_prefix("progress id=") else { continue };
            let (id, checkpointed) = match progress.strip_suffix(" (checkpointed)") {
                Some(id) => (id, true),
                None => (progress, false),
            };
            acknowledged = id.parse().unwrap();
            n += 1;
            if point.now(n, acknowledged, checkpointed) {
                writer.kill().unwrap();
                killed = true;
                break;
            }
        }
        assert!(killed, "{point:?}: the writer exited on its own");
        writer.wait().unwrap();
        for line in lines {
            if let Some(id) = line.unwrap().strip_prefix("progress id=") {
                acknowledged = id.trim_end_matches(" (checkpointed)").parse().unwrap();
            }
        }

        // The recovered ids are a contiguous prefix with consistent values,
        // and no acknowledged commit is missing from it.
        let db = Database::open(dir.path()).unwrap();
        let n = Ledger::of(&db).expect("the ledger survives").rows;
        assert_eq!(Ledger::of(&db), Some(Ledger::prefix(n)), "{point:?}");
        assert!(n >= acknowledged, "{point:?}: {acknowledged} acknowledged, {n} recovered");
        // The recovered log accepts appends, and they survive a reopen.
        let next = n + 1;
        db.execute(&format!("INSERT INTO ledger VALUES ({next}, {})", 7 * next)).unwrap();
        drop(db);
        let db = Database::open(dir.path()).unwrap();
        assert_eq!(Ledger::of(&db), Some(Ledger::prefix(next)), "{point:?}");
    }
}

#[test]
fn checkpoint_is_a_noop_in_memory() {
    let db = Database::new();
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

/// A path-valued parameter means the same to a durable database as to an
/// in-memory one: a mutation that only reads it applies (and survives a
/// reopen), and one that would store it fails with the same error.
#[test]
fn path_parameters_behave_the_same_durable_and_in_memory() {
    let outcomes = |db: &Database| -> Vec<String> {
        db.execute(ROADS).unwrap();
        db.execute(ROAD_ROWS).unwrap();
        let t = db
            .query("SELECT CHEAPEST SUM(f: f.w) AS (c, p) WHERE 1 REACHES 4 OVER e f EDGE (s, d)")
            .unwrap();
        let path = t.row(0)[1].clone();
        assert!(matches!(path, Value::Path(_)));
        db.execute("CREATE TABLE sink (x INTEGER)").unwrap();
        ["INSERT INTO sink SELECT 1 WHERE ? IS NOT NULL", "INSERT INTO sink VALUES (?)"]
            .into_iter()
            .map(|sql| match db.execute_with_params(sql, std::slice::from_ref(&path)) {
                Ok(result) => format!("{result:?}"),
                Err(e) => format!("error: {e}"),
            })
            .collect()
    };
    let dir = TempDir::new("pathparam");
    let in_memory = outcomes(&Database::new());
    assert_eq!(in_memory[0], "Affected(1)");
    assert!(in_memory[1].starts_with("error: ") && in_memory[1].contains("PATH"), "{in_memory:?}");
    assert_eq!(outcomes(&Database::open(dir.path()).unwrap()), in_memory);
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(rows(&db, "SELECT x FROM sink"), vec![vec![Value::Int(1)]]);
}

/// Tables a bulk loader registers through the catalog are logged like any
/// other change: DML on them after the load survives a reopen.
#[test]
fn loaded_dataset_and_later_inserts_survive_reopen() {
    const Q13: &str =
        "SELECT CHEAPEST SUM(1) AS hops WHERE ? REACHES ? OVER friends EDGE (src, dst)";
    let data = SnbDataset::generate(SnbParams::new(0.01));
    let dir = TempDir::new("loader");
    let pairs: Vec<[Value; 2]> = (1..=8).map(|i| [Value::Int(i), Value::Int(40 - i)]).collect();
    let answers = |db: &Database| -> Vec<Vec<Vec<Value>>> {
        let t = db.query("SELECT COUNT(*) FROM friends").unwrap();
        let mut out = vec![vec![t.row(0)]];
        for pair in &pairs {
            let t = db.query_with_params(Q13, pair).unwrap();
            out.push(t.rows().collect());
        }
        out
    };
    let before = {
        let db = Database::open(dir.path()).unwrap();
        data.load_into(&db).unwrap();
        db.execute("INSERT INTO friends VALUES (1, 39, DATE '2010-01-01', 1.0)").unwrap();
        answers(&db)
    };
    assert_eq!(before[1], vec![vec![Value::Int(1)]], "the inserted edge is the answer");
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(answers(&db), before);
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

/// A checkpoint of a graph that grew by appended rows — extended, not
/// built — reopens warm. A restore derives the graph from the table with a
/// full build and serves the persisted layer only over an identical graph,
/// so an extension that drifted from a full build would fail the reopen as
/// corrupt.
#[test]
fn a_checkpointed_extension_reopens_built() {
    use rand::{Rng, SeedableRng};
    const TABLE: &str = "CREATE TABLE e (s INTEGER, d INTEGER, w INTEGER NOT NULL)";
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    let mut rows = vec![(Some(1), Some(2), 5), (Some(2), Some(3), 5), (Some(3), Some(4), 1)];
    let mut inserts = vec!["INSERT INTO e VALUES (1, 2, 5), (2, 3, 5), (3, 4, 1)".to_string()];
    for i in 0..12 {
        let w = rng.gen_range(1..10);
        let known = rows[rng.gen_range(0..rows.len())];
        let row = match i % 4 {
            // An edge to a new vertex.
            0 => (known.0.or(known.1), Some(10 + i), w),
            // A duplicate of an edge.
            1 => (known.0, known.1, w),
            // A NULL endpoint.
            2 => (None, Some(rng.gen_range(1..5)), w),
            // An edge between old vertices, into lists the reverse CSR
            // must merge in source order.
            _ => (Some(1), known.1.or(Some(4)), w),
        };
        rows.push(row);
        let key = |k: Option<i64>| k.map_or("NULL".to_string(), |k| k.to_string());
        inserts.push(format!("INSERT INTO e VALUES ({}, {}, {w})", key(row.0), key(row.1)));
    }
    let pairs: Vec<(i64, i64)> =
        (0..6).map(|_| (rng.gen_range(1..5), rng.gen_range(1..22))).collect();
    let queries: Vec<String> = pairs
        .iter()
        .flat_map(|(a, b)| {
            [
                format!("SELECT CHEAPEST SUM(1) AS h WHERE {a} REACHES {b} OVER e EDGE (s, d)"),
                format!("SELECT CHEAPEST SUM(f: f.w) AS c WHERE {a} REACHES {b} OVER e f EDGE (s, d)"),
                format!(
                    "SELECT CHEAPEST SUM(f: f.w) AS (c, p) WHERE {a} REACHES {b} OVER e f EDGE (s, d)"
                ),
            ]
        })
        .chain([format!(
            "WITH pairs (x, y) AS (VALUES {}) SELECT pairs.x, pairs.y, CHEAPEST SUM(f: f.w) AS c \
             FROM pairs WHERE pairs.x REACHES pairs.y OVER e f EDGE (s, d)",
            pairs.iter().map(|(a, b)| format!("({a}, {b})")).collect::<Vec<_>>().join(", ")
        )])
        .collect();
    let answers = |db: &Database| -> Vec<String> {
        queries.iter().map(|sql| render(&db.query(sql).unwrap())).collect()
    };
    let unindexed = Database::new();
    for sql in std::iter::once(TABLE.to_string()).chain(inserts.iter().cloned()) {
        unindexed.execute(&sql).unwrap();
    }

    let dir = TempDir::new("extended");
    {
        let db = Database::open(dir.path()).unwrap();
        db.execute(TABLE).unwrap();
        db.execute(&inserts[0]).unwrap();
        db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
        db.execute("CREATE PATH INDEX pa ON e EDGE (s, d) WEIGHT w USING LANDMARKS(2)").unwrap();
        for (insert, &(a, b)) in inserts[1..].iter().zip(pairs.iter().cycle()) {
            db.execute(insert).unwrap();
            // The graph index extends its graph; the path index builds its
            // layer over that graph.
            let read =
                |spec: &str| format!("SELECT {spec} WHERE {a} REACHES {b} OVER e f EDGE (s, d)");
            db.query(&read("CHEAPEST SUM(f: f.w) AS (c, p)")).unwrap();
            db.query(&read("CHEAPEST SUM(f: f.w) AS c")).unwrap();
        }
        let m = db.metrics();
        assert_eq!(m.graph_builds_total("extension"), 12, "every insert extended the graph");
        assert_eq!(m.graph_builds_total("graph_index") + m.graph_builds_total("path_index"), 1);
        assert_eq!(answers(&db), answers(&unindexed));
        db.execute("CHECKPOINT").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let listing = db.indexes().list(db.catalog());
    assert!(listing.iter().all(|l| l.status == "built"), "{listing:?}");
    assert_eq!(answers(&db), answers(&unindexed));
    assert_eq!(db.indexes().builds(), 0, "a warm reopen builds no layer");
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
        || ["statement", "graph_index", "path_index", "extension"].map(|s| m.graph_builds_total(s));
    assert_eq!(
        (graph_builds(), db.indexes().builds()),
        ([0, 0, 0, 0], 0),
        "restored indexes built nothing"
    );
    // The index the WAL made stale rebuilds once, on its first query: its
    // layer anew, over the restored graph extended by the replayed rows.
    let sql = "SELECT CHEAPEST SUM(1) AS hops WHERE 1 REACHES 5 OVER r EDGE (a, b)";
    let plan = rows(&db, &format!("EXPLAIN {sql}"));
    assert!(plan.iter().any(|r| r[0] == Value::from("    PathIndex ph ON r (ALT)")), "{plan:?}");
    assert_eq!(rows(&db, sql), vec![vec![Value::Int(2)]]);
    assert_eq!((graph_builds(), db.indexes().builds()), ([0, 0, 0, 1], 1));
}

/// `DROP TABLE` issued while `CREATE PATH INDEX` builds over that table
/// does not wait for the build: the create counts as having happened before
/// the drop, so it succeeds and leaves no definition, artifact or WAL
/// record. The directory reopens, and no index outlives its table, before
/// or after.
#[test]
fn drop_table_during_a_path_index_build_leaves_a_directory_that_opens() {
    // A grid whose contraction takes far longer than a drop.
    let side = 40;
    let edges: Vec<String> = (0..side * side)
        .flat_map(|v| {
            let right = (v % side + 1 < side).then(|| [(v, v + 1), (v + 1, v)]);
            let down = (v + side < side * side).then(|| [(v, v + side), (v + side, v)]);
            right.into_iter().chain(down).flatten()
        })
        .map(|(s, d)| format!("({s}, {d})"))
        .collect();
    let dir = TempDir::new("ddl-race");
    {
        let db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE grid (s INTEGER NOT NULL, d INTEGER NOT NULL)").unwrap();
        db.execute(&format!("INSERT INTO grid VALUES {}", edges.join(", "))).unwrap();
        std::thread::scope(|scope| {
            let sql = "CREATE PATH INDEX pc ON grid EDGE (s, d) USING CONTRACTION";
            let create = scope.spawn(|| db.execute(sql));
            // The graph is built: the contraction is running.
            while db.metrics().graph_builds_total("path_index") == 0 {
                assert!(!create.is_finished(), "{:?}", create.join());
                std::thread::yield_now();
            }
            db.execute("DROP TABLE grid").unwrap();
            create.join().unwrap().unwrap();
        });
        assert!(db.indexes().index_names(IndexSpace::Path).is_empty(), "the drop took the index");
    }
    let db = Database::open(dir.path()).unwrap();
    assert!(db.catalog().get("grid").is_err());
    assert!(db.indexes().index_names(IndexSpace::Path).is_empty());
}

/// A table dropped through the catalog API takes its index definitions
/// with it, as `DROP TABLE` does: a checkpoint taken after the drop holds
/// no index over the missing table, so the directory reopens, with no
/// index.
#[test]
fn a_table_dropped_through_the_catalog_takes_its_path_index_along() {
    let dir = TempDir::new("catalog-drop");
    {
        let db = Database::open(dir.path()).unwrap();
        db.execute(ROADS).unwrap();
        db.execute(ROAD_ROWS).unwrap();
        db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
        assert_eq!(rows(&db, CHEAPEST), vec![vec![Value::Int(11)]]);
        db.catalog().drop_table("e").unwrap();
        db.execute("CHECKPOINT").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    assert!(db.catalog().get("e").is_err());
    assert!(db.indexes().index_names(IndexSpace::Path).is_empty());
    assert!(db.indexes().list(db.catalog()).is_empty());
}

/// Index DDL on a durable database logs its effect, like every other
/// change: each record it writes is a `Mutation`, and a reopen replays them
/// without building anything.
#[test]
fn index_definitions_log_only_mutation_records() {
    let dir = TempDir::new("index-records");
    {
        let db = Database::open(dir.path()).unwrap();
        for sql in [
            ROADS,
            ROAD_ROWS,
            "CREATE GRAPH INDEX gi ON e EDGE (s, d)",
            "CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION",
            "CREATE PATH INDEX pa ON e EDGE (s, d) USING LANDMARKS(2)",
            "CREATE PATH INDEX IF NOT EXISTS pa ON e EDGE (s, d) USING LANDMARKS(4)",
            "DROP GRAPH INDEX gi",
            "DROP PATH INDEX pa",
            "DROP PATH INDEX IF EXISTS pa",
        ] {
            db.execute(sql).unwrap();
        }
    }
    let scan = gsql_storage::persist::scan_wal(&dir.path().join("wal-0.log")).unwrap();
    let records: Vec<String> = scan
        .records
        .iter()
        .map(|bytes| format!("{:?}", gsql_storage::Mutation::decode(bytes).unwrap().1))
        .map(|m| m.split(['(', ' ']).next().unwrap().to_string())
        .collect();
    let index = ["CreateIndex", "CreateIndex", "CreateIndex", "DropIndex", "DropIndex"];
    assert_eq!(records, [&["Create", "Append"][..], &index].concat());
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(db.indexes().index_names(IndexSpace::Path), ["pc"]);
    assert!(db.indexes().index_names(IndexSpace::Graph).is_empty());
    assert_eq!(db.indexes().list(db.catalog())[0].status, "stale", "registered, not built");
    assert_eq!(rows(&db, CHEAPEST), vec![vec![Value::Int(11)]]);
    assert_eq!(db.indexes().builds(), 1, "the first query built it");
}

/// A `CHECKPOINT` issued while `CREATE PATH INDEX` builds does not wait for
/// the build, which runs outside every lock. The definition, logged after
/// the checkpoint, reopens from the new epoch's WAL, unbuilt.
#[test]
fn checkpoint_during_a_path_index_build_does_not_wait_for_it() {
    let side = 100;
    let edges: Vec<String> = (0..side * side)
        .flat_map(|v| {
            let right = (v % side + 1 < side).then(|| [(v, v + 1), (v + 1, v)]);
            let down = (v + side < side * side).then(|| [(v, v + side), (v + side, v)]);
            right.into_iter().chain(down).flatten()
        })
        .map(|(s, d)| format!("({s}, {d})"))
        .collect();
    let dir = TempDir::new("checkpoint-build");
    {
        let db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE grid (s INTEGER NOT NULL, d INTEGER NOT NULL)").unwrap();
        db.execute(&format!("INSERT INTO grid VALUES {}", edges.join(", "))).unwrap();
        std::thread::scope(|scope| {
            let sql = "CREATE PATH INDEX pc ON grid EDGE (s, d) USING CONTRACTION";
            let create = scope.spawn(|| db.execute(sql));
            while db.metrics().graph_builds_total("path_index") == 0 {
                assert!(!create.is_finished(), "{:?}", create.join());
                std::thread::yield_now();
            }
            let t = db.query("CHECKPOINT").unwrap();
            assert_eq!(t.row(0)[0], Value::from("checkpoint written (epoch 1)"));
            assert!(!create.is_finished(), "the checkpoint waited for the contraction");
            create.join().unwrap().unwrap();
        });
    }
    let db = Database::open(dir.path()).unwrap();
    let listing = db.indexes().list(db.catalog());
    assert_eq!((listing[0].name.as_str(), listing[0].status), ("pc", "stale"));
}
