//! The session-based execution API, end to end: prepared statements over
//! the database's one plan cache, schema-version invalidation, `SET`/`SHOW`
//! settings, `EXPLAIN` under index DDL, and `EXPLAIN ANALYZE` statistics.

mod common;

use common::{explain, render, sweep};
use gsql::{Database, QueryResult, Value};

fn social_db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE persons (id INTEGER NOT NULL, name VARCHAR NOT NULL);
         INSERT INTO persons VALUES (1, 'ada'), (2, 'bob'), (3, 'cyd'), (4, 'dee');
         CREATE TABLE friends (src INTEGER NOT NULL, dst INTEGER NOT NULL, weight INTEGER);
         INSERT INTO friends VALUES (1, 2, 4), (2, 3, 4), (3, 4, 4), (1, 4, 20);",
    )
    .unwrap();
    db
}

/// Acceptance: a parameterized `CHEAPEST SUM` query executed 100 times
/// through a prepared session statement parses/binds/optimizes exactly
/// once — every execution after the prepare is a plan-cache hit.
#[test]
fn prepared_cheapest_sum_plans_once_across_100_executions() {
    let db = social_db();
    let session = db.session();
    let stmt = session
        .prepare(
            "SELECT CHEAPEST SUM(f: weight) AS cost \
             WHERE ? REACHES ? OVER friends f EDGE (src, dst)",
        )
        .unwrap();
    assert_eq!(session.cache_stats().misses, 1, "prepare binds exactly once");

    for i in 0..100 {
        // Alternate parameter values: same plan, different bindings.
        let (s, d) = if i % 2 == 0 { (1, 4) } else { (2, 4) };
        let t = stmt.query(&session, &[Value::Int(s), Value::Int(d)]).unwrap();
        let want = if i % 2 == 0 { 12 } else { 8 };
        assert_eq!(t.row(0)[0], Value::Int(want), "iteration {i}");
    }

    let stats = session.cache_stats();
    assert_eq!(stats.misses, 1, "no re-bind happened");
    assert_eq!(stats.hits, 100, "all 100 executions served from the cached plan");
    assert_eq!(stats.invalidations, 0);
}

/// Acceptance: `DROP GRAPH INDEX` measurably changes the `EXPLAIN` plan —
/// the edge child flips from `GraphIndex` to a plain `Scan` — and both
/// plans answer byte-identically, in every configuration of the sweep.
#[test]
fn drop_graph_index_changes_explain_plan() {
    let setup = [
        "CREATE TABLE friends (src INTEGER NOT NULL, dst INTEGER NOT NULL, weight INTEGER)",
        "INSERT INTO friends VALUES (1, 2, 4), (2, 3, 4), (3, 4, 4), (1, 4, 20)",
        "CREATE GRAPH INDEX gi ON friends EDGE (src, dst)",
    ];
    let sql = "SELECT CHEAPEST SUM(1) AS hops, CHEAPEST SUM(f: weight) AS (cost, path) \
               WHERE ? REACHES ? OVER friends f EDGE (src, dst)";
    sweep(&setup, |run| {
        let explain = || -> String {
            let t = run.session().query(&format!("EXPLAIN {sql}")).unwrap();
            t.rows().map(|r| r[0].as_str().unwrap().to_string()).collect::<Vec<_>>().join("\n")
        };
        let answers = || -> Vec<String> {
            let answer =
                |d| render(&run.query_with_params(sql, &[Value::Int(1), Value::Int(d)]).unwrap());
            (1..=4).map(answer).collect()
        };

        let with_index = explain();
        assert!(with_index.contains("GraphIndex gi ON friends"), "plan was:\n{with_index}");
        assert!(!with_index.contains("Scan friends"), "plan was:\n{with_index}");
        let indexed = answers();

        run.session().execute("DROP GRAPH INDEX gi").unwrap();
        let without_index = explain();
        assert!(!without_index.contains("GraphIndex"), "plan was:\n{without_index}");
        assert!(without_index.contains("Scan friends"), "plan was:\n{without_index}");
        assert_eq!(answers(), indexed, "the scan answers what the index answered");
    });
}

/// Acceptance: `EXPLAIN ANALYZE` prints per-operator row counts and wall
/// time for a graph join query.
#[test]
fn explain_analyze_reports_rows_and_time_for_graph_join() {
    let db = social_db();
    let session = db.session();
    let t = session
        .query_with_params(
            "EXPLAIN ANALYZE \
             SELECT p1.name, p2.name, CHEAPEST SUM(1) AS d \
             FROM persons p1, persons p2 \
             WHERE p1.id = ? AND p2.id = ? \
               AND p1.id REACHES p2.id OVER friends EDGE (src, dst)",
            &[Value::Int(1), Value::Int(4)],
        )
        .unwrap();
    let text: Vec<String> = t.rows().map(|r| r[0].as_str().unwrap().to_string()).collect();
    let full = text.join("\n");

    // The rewriter must have produced a graph join, and its stats line
    // carries both rows and timing.
    let graph_join = text
        .iter()
        .find(|l| l.trim_start().starts_with("GraphJoin"))
        .unwrap_or_else(|| panic!("no GraphJoin operator in:\n{full}"));
    assert!(graph_join.contains("rows=1"), "line was: {graph_join}");
    assert!(graph_join.contains("time="), "line was: {graph_join}");

    // Every operator line is annotated, children indented under parents.
    // (`Pipeline N:` lines are per-pipeline morsel summaries, not operators.)
    let op_lines: Vec<&String> =
        text.iter().filter(|l| !l.starts_with("Result:") && !l.starts_with("Pipeline ")).collect();
    assert!(op_lines.len() >= 4, "expected a tree of operators, got:\n{full}");
    for l in &op_lines {
        assert!(l.contains("rows=") && l.contains("time="), "unannotated line: {l}");
    }
    assert!(text.iter().any(|l| l.starts_with("Result: 1 row(s)")), "{full}");

    // Pipelined fragments report their morsel distribution.
    let pipeline_line = text
        .iter()
        .find(|l| l.starts_with("Pipeline "))
        .unwrap_or_else(|| panic!("no pipeline summary in:\n{full}"));
    assert!(pipeline_line.contains("morsels="), "line was: {pipeline_line}");
    assert!(pipeline_line.contains("per-worker min="), "line was: {pipeline_line}");
    assert!(pipeline_line.contains("worker(s)"), "line was: {pipeline_line}");
    assert!(pipeline_line.contains("time="), "line was: {pipeline_line}");

    // The scans feeding the join report their true cardinalities.
    assert!(full.contains("Scan persons"), "{full}");
    assert!(full.contains("rows=4"), "{full}");
}

/// `EXPLAIN ANALYZE` over an indexed edge table: the edge scan is absent
/// from the executed-operator stats because the graph came from the index.
#[test]
fn explain_analyze_shows_index_skipping_edge_scan() {
    let db = social_db();
    db.execute("CREATE GRAPH INDEX gi ON friends EDGE (src, dst)").unwrap();
    let session = db.session();
    let t = session
        .query_with_params(
            "EXPLAIN ANALYZE SELECT CHEAPEST SUM(1) \
             WHERE ? REACHES ? OVER friends EDGE (src, dst)",
            &[Value::Int(1), Value::Int(4)],
        )
        .unwrap();
    let full: Vec<String> = t.rows().map(|r| r[0].as_str().unwrap().to_string()).collect();
    let full = full.join("\n");
    // The index is no table operator, and the edge scan it replaces never
    // runs: the graph operator reads the graph from the registry.
    assert!(!full.contains("GraphIndex gi"), "{full}");
    assert!(!full.contains("Scan friends"), "{full}");
    assert!(full.contains("GraphSelect"), "{full}");
}

/// Plan-cache invalidation: table DDL bumps the database's schema version,
/// so cached plans are rebuilt. `CREATE/DROP GRAPH INDEX` does not — plans
/// never name an index — yet the next execution of the cached plan reads
/// the new index, and `EXPLAIN` shows it.
#[test]
fn plan_cache_survives_graph_index_ddl_and_invalidates_on_table_ddl() {
    let db = social_db();
    let session = db.session();
    let sql = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)";
    let stmt = session.prepare(sql).unwrap();
    let params = [Value::Int(1), Value::Int(4)];

    stmt.query(&session, &params).unwrap();
    assert_eq!(
        session.cache_stats(),
        gsql::PlanCacheStats { hits: 1, misses: 1, invalidations: 0, entries: 1 }
    );
    let builds = || db.metrics().graph_builds_total("statement");
    assert_eq!(builds(), 1, "no index yet: the statement built its graph");

    // CREATE GRAPH INDEX re-plans nothing; the cached plan reads the index.
    db.execute("CREATE GRAPH INDEX gi ON friends EDGE (src, dst)").unwrap();
    stmt.query(&session, &params).unwrap();
    assert_eq!(
        session.cache_stats(),
        gsql::PlanCacheStats { hits: 2, misses: 1, invalidations: 0, entries: 1 }
    );
    assert_eq!(builds(), 1, "the index served the graph");
    let plan = explain(&session, sql);
    assert!(plan.contains("GraphIndex gi ON friends"), "EXPLAIN shows the index:\n{plan}");

    // DROP GRAPH INDEX: the same plan builds its graph again.
    db.execute("DROP GRAPH INDEX gi").unwrap();
    stmt.query(&session, &params).unwrap();
    assert_eq!(session.cache_stats().invalidations, 0, "index drop re-plans nothing");
    assert_eq!(builds(), 2);
    let plan = explain(&session, sql);
    assert!(!plan.contains("GraphIndex"), "{plan}");

    // Unrelated DML does NOT invalidate (data freshness is handled at
    // scan/index level, not the plan level).
    let before = session.cache_stats();
    db.execute("INSERT INTO friends VALUES (4, 1, 1)").unwrap();
    stmt.query(&session, &params).unwrap();
    let after = session.cache_stats();
    assert_eq!(after.invalidations, before.invalidations, "DML must not invalidate plans");
    assert_eq!(after.hits, before.hits + 1);

    // Table DDL (CREATE/DROP TABLE) invalidates.
    db.execute("CREATE TABLE scratch (x INTEGER)").unwrap();
    stmt.query(&session, &params).unwrap();
    assert_eq!(session.cache_stats().invalidations, 1, "CREATE TABLE must invalidate");
    db.execute("DROP TABLE scratch").unwrap();
    stmt.query(&session, &params).unwrap();
    assert_eq!(session.cache_stats().invalidations, 2, "DROP TABLE must invalidate");
}

/// DDL through the raw `Catalog` API (the bulk-load path used by the data
/// generators) must invalidate cached plans too, not only SQL statements.
#[test]
fn plan_cache_invalidates_on_direct_catalog_ddl() {
    use gsql::storage::{ColumnDef, DataType, Schema, Table};

    let db = social_db();
    let session = db.session();
    let stmt = session.prepare("SELECT id FROM persons").unwrap();
    assert_eq!(stmt.query(&session, &[]).unwrap().row_count(), 4);

    // Swap `persons` for a differently-shaped table via the Catalog API.
    db.catalog().drop_table("persons").unwrap();
    let mut fresh = Table::empty(Schema::new(vec![
        ColumnDef::not_null("id", DataType::Int),
        ColumnDef::not_null("nick", DataType::Varchar),
    ]));
    fresh.append_row(vec![Value::Int(9), Value::from("zed")]).unwrap();
    db.catalog().register_table("persons", fresh).unwrap();

    // The cached plan is stale; the version bump forces a re-bind against
    // the new schema instead of executing the old plan.
    let t = stmt.query(&session, &[]).unwrap();
    assert_eq!(t.row_count(), 1);
    assert_eq!(t.row(0)[0], Value::Int(9));
    assert_eq!(session.cache_stats().invalidations, 1);
}

/// UNION preserves NOT NULL enforcement even on the columnar fast path.
#[test]
fn union_rejects_null_into_not_null_column() {
    let db = Database::new();
    db.execute_script("CREATE TABLE t (x INTEGER NOT NULL); INSERT INTO t VALUES (1), (2);")
        .unwrap();
    let err = db.query("SELECT x FROM t UNION ALL SELECT CAST(NULL AS INTEGER)").unwrap_err();
    assert!(err.to_string().contains("NULL"), "{err}");
    // The all-non-null union still works columnar end to end.
    let ok = db.query("SELECT x FROM t UNION ALL SELECT x FROM t").unwrap();
    assert_eq!(ok.row_count(), 4);
}

/// Settings shape execution, never plans: no `SET` clears the plan cache,
/// and `graph_index`, `path_index` and `plan_cache_size` are not settings.
#[test]
fn settings_never_clear_the_plan_cache() {
    let db = social_db();
    let session = db.session();
    session.query("SELECT id FROM persons").unwrap();
    assert_eq!(session.cache_stats().entries, 1);
    for (name, value) in [("row_limit", "1000"), ("threads", "1"), ("trace", "on")] {
        session.set(name, value).unwrap();
    }
    assert_eq!(session.cache_stats().entries, 1, "settings keep plans");
    session.query("SELECT id FROM persons").unwrap();
    assert_eq!(session.cache_stats().hits, 1);

    for retired in ["graph_index", "path_index", "plan_cache_size"] {
        let want = format!("unknown setting '{retired}'");
        for sql in [format!("SET {retired} = off"), format!("SET {retired} = 0")] {
            let err = session.execute(&sql).unwrap_err();
            assert!(err.to_string().contains(&want), "{sql}: {err}");
        }
        let err = session.query(&format!("SHOW {retired}")).unwrap_err();
        assert!(err.to_string().contains(&want), "SHOW {retired}: {err}");
    }
    let all = session.query("SHOW ALL").unwrap();
    let names: Vec<String> = all.rows().map(|r| r[0].as_str().unwrap().to_string()).collect();
    assert_eq!(
        names,
        ["morsel_rows", "row_limit", "slow_query_ms", "threads", "timeout_ms", "trace"]
    );
}

/// The plan cache holds a constant 64 plans: a 65th distinct text evicts
/// the least recently used one.
#[test]
fn plan_cache_evicts_the_least_recently_used_of_65_texts() {
    let db = social_db();
    let session = db.session();
    let text = |i: usize| format!("SELECT id + {i} FROM persons");
    for i in 0..64 {
        session.query(&text(i)).unwrap();
    }
    assert_eq!(session.cache_stats().entries, 64);
    session.query(&text(0)).unwrap(); // text 1 is now the least recently used
    session.query(&text(64)).unwrap();
    let stats = session.cache_stats();
    assert_eq!((stats.entries, stats.misses, stats.hits), (64, 65, 1));
    session.query(&text(0)).unwrap();
    assert_eq!(session.cache_stats().hits, 2, "the recently used text survived");
    session.query(&text(1)).unwrap();
    assert_eq!(session.cache_stats().misses, 66, "the least recently used text was evicted");
    assert_eq!(session.cache_stats().entries, 64);
}

/// A dropped index must not break a session that cached an indexed plan:
/// the very next execution re-plans (version bump) and still answers.
#[test]
fn dropped_index_degrades_gracefully() {
    let db = social_db();
    db.execute("CREATE GRAPH INDEX gi ON friends EDGE (src, dst)").unwrap();
    let session = db.session();
    let sql = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)";
    let stmt = session.prepare(sql).unwrap();
    // 1 -> 4 has a direct edge: one hop, with or without the index.
    let params = [Value::Int(1), Value::Int(4)];
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(1));
    db.execute("DROP GRAPH INDEX gi").unwrap();
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(1));
}

/// Sessions have independent settings but share the database's plan
/// cache: a plan bound in one session is a hit in another.
#[test]
fn sessions_have_independent_settings_and_share_one_plan_cache() {
    let db = social_db();
    let a = db.session();
    let b = db.session();
    a.execute("SET row_limit = 2").unwrap();
    assert_eq!(a.setting("row_limit").unwrap(), "2");
    assert_eq!(b.setting("row_limit").unwrap(), "0");
    assert!(a.query("SELECT * FROM friends").is_err(), "row limit applies in a");
    // a bound the plan (binding succeeded — only execution tripped the row
    // limit); b executes it without binding again.
    assert_eq!(b.query("SELECT * FROM friends").unwrap().row_count(), 4, "not in b");
    let stats = b.cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
    assert_eq!(a.cache_stats(), stats, "one cache, seen from every session");
    // One-shot `Database` calls open a throwaway session, and hit too.
    db.query("SELECT * FROM friends").unwrap();
    assert_eq!(a.cache_stats().hits, 2);
}

/// Two sessions on one shared database, racing from separate threads:
/// prepared readers keep answering while a writer mutates the edge table.
#[test]
fn concurrent_sessions_share_one_database() {
    let db = std::sync::Arc::new(social_db());
    db.execute("CREATE GRAPH INDEX gi ON friends EDGE (src, dst)").unwrap();

    let mut handles = Vec::new();
    for t in 0..2 {
        let db = std::sync::Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let session = db.session();
            session.set("threads", &(t + 1).to_string()).unwrap();
            let stmt = session
                .prepare("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)")
                .unwrap();
            for _ in 0..100 {
                let r = stmt.query(&session, &[Value::Int(1), Value::Int(3)]).unwrap();
                // The chain 1->2->3 is never touched by the writer.
                assert_eq!(r.row(0)[0], Value::Int(2), "session {t}");
            }
        }));
    }

    // Writer on the main thread: toggle an unrelated shortcut edge.
    for _ in 0..100 {
        match db.execute("INSERT INTO friends VALUES (2, 4, 1)").unwrap() {
            QueryResult::Affected(1) => {}
            other => panic!("{other:?}"),
        }
        db.execute("DELETE FROM friends WHERE src = 2 AND dst = 4").unwrap();
    }
    for h in handles {
        h.join().expect("session thread panicked");
    }
    // Both sessions prepared the text, at most both bound it, and every
    // execution reused one plan: the writer's DML never invalidates.
    let stats = db.session().cache_stats();
    assert!(stats.misses <= 2, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, 202, "{stats:?}");
    assert_eq!(stats.entries, 1, "{stats:?}");
}

/// `SET` / `SHOW` round-trip through plain SQL execution, and unknown
/// options fail loudly.
#[test]
fn set_show_statements() {
    let db = Database::new();
    let session = db.session();
    assert!(matches!(session.execute("SET row_limit = 7").unwrap(), QueryResult::Ok));
    let t = session.query("SHOW row_limit").unwrap();
    assert_eq!(t.row(0)[0], Value::from("row_limit"));
    assert_eq!(t.row(0)[1], Value::from("7"));
    let all = session.query("SHOW ALL").unwrap();
    assert!(all.row_count() >= 3);
    assert!(session.execute("SET no_such_option = 1").is_err());
    assert!(session.query("SHOW no_such_option").is_err());
    // The executor-selection knob is gone: there is one engine, and its
    // retired setting is an ordinary unknown option.
    let err = session.execute("SET pipeline = off").unwrap_err();
    assert!(err.to_string().contains("unknown setting 'pipeline'"), "{err}");
    let err = session.query("SHOW pipeline").unwrap_err();
    assert!(err.to_string().contains("unknown setting 'pipeline'"), "{err}");
    // Settings live only in their session; a fresh one is pristine.
    assert_eq!(db.session().setting("row_limit").unwrap(), "0");
}

/// `Database::prepare` (parse-only) still works and caches lazily on first
/// session execution.
#[test]
fn database_prepare_binds_lazily_per_session() {
    let db = social_db();
    let stmt = db
        .prepare("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)")
        .unwrap();
    let session = db.session();
    assert_eq!(session.cache_stats().misses, 0, "nothing planned yet");
    for _ in 0..3 {
        stmt.query(&session, &[Value::Int(1), Value::Int(3)]).unwrap();
    }
    assert_eq!(session.cache_stats().misses, 1);
    assert_eq!(session.cache_stats().hits, 2);
}
