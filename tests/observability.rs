//! Engine-wide observability, end to end: the metrics registry counts
//! queries/pipelines/traversals monotonically at several thread counts,
//! `SET trace` yields a well-formed span tree (through the session API and
//! over HTTP), the slow-query log triggers and evicts, `/metrics` renders
//! valid Prometheus exposition text, `EXPLAIN ANALYZE` is a rendering of
//! the verbose span tree, and tracing never perturbs results (one sweep
//! over trace level × threads × morsel size).
//!
//! No environment variable changes the `trace` setting, so span counts are
//! exact.

use gsql::{Database, Value};
use gsql_obs::{QueryOutcome, QueryVerb, SlowLog, SlowQueryRecord, ACCEL_KINDS};
use gsql_server::json::{self, Json};
use gsql_server::{client, serve, ServerConfig};

/// A deterministic digraph plus a `people` table for graph-join shapes
/// (same generator family as the path-index suite, smaller).
fn graph_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE people (id INTEGER NOT NULL, grp INTEGER NOT NULL)").unwrap();
    let mut x: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut edges = String::new();
    for i in 0..400 {
        let s = next() % 80;
        let d = next() % 80;
        let w = next() % 16 + 1;
        if i > 0 {
            edges.push_str(", ");
        }
        edges.push_str(&format!("({s}, {d}, {w})"));
    }
    db.execute(&format!("INSERT INTO e VALUES {edges}")).unwrap();
    let mut people = String::new();
    for id in 0..80 {
        if id > 0 {
            people.push_str(", ");
        }
        people.push_str(&format!("({id}, {})", id % 8));
    }
    db.execute(&format!("INSERT INTO people VALUES {people}")).unwrap();
    db
}

// ---------------------------------------------------------------------------
// 1. Metrics monotonicity
// ---------------------------------------------------------------------------

/// Every statement increments exactly one `(verb, outcome)` counter, the
/// pipeline/morsel/traversal counters grow with matching work, and the
/// plan cache counters follow hits — at one worker and at four.
#[test]
fn metrics_count_queries_pipelines_and_traversals() {
    for threads in ["1", "4"] {
        let db = graph_db();
        let m = db.metrics();
        let session = db.session();
        session.set("threads", threads).unwrap();

        let base_ok = m.queries_total(QueryVerb::Select, QueryOutcome::Ok);
        let base_err = m.queries_total(QueryVerb::Select, QueryOutcome::Error);
        let base_pipelines = m.pipelines_total();
        let base_morsels = m.morsels_total();
        let base_latency = m.query_latency().snapshot().count;

        for _ in 0..5 {
            session.query("SELECT id FROM people WHERE grp = 3").unwrap();
        }
        assert_eq!(
            m.queries_total(QueryVerb::Select, QueryOutcome::Ok),
            base_ok + 5,
            "threads {threads}: one ok-select per statement"
        );
        assert_eq!(
            m.pipelines_total(),
            base_pipelines + 5,
            "threads {threads}: each scan-filter-project query is one pipeline"
        );
        assert!(m.morsels_total() > base_morsels, "threads {threads}: morsel throughput must grow");
        assert_eq!(
            m.query_latency().snapshot().count,
            base_latency + 5,
            "threads {threads}: every statement observes end-to-end latency"
        );

        // A bind error is an error-outcome select, not an ok one.
        assert!(session.query("SELECT no_such_column FROM people").is_err());
        assert_eq!(m.queries_total(QueryVerb::Select, QueryOutcome::Error), base_err + 1);
        assert_eq!(m.queries_total(QueryVerb::Select, QueryOutcome::Ok), base_ok + 5);

        // DML counts under its own verb.
        let base_ins = m.queries_total(QueryVerb::Insert, QueryOutcome::Ok);
        session.execute("INSERT INTO people VALUES (900, 0)").unwrap();
        assert_eq!(m.queries_total(QueryVerb::Insert, QueryOutcome::Ok), base_ins + 1);

        // Re-running an identical statement is a plan-cache hit, synced to
        // the registry counters.
        let base_hits = m.plan_cache_hits.get();
        session.query("SELECT count(*) FROM people").unwrap();
        session.query("SELECT count(*) FROM people").unwrap();
        assert!(
            m.plan_cache_hits.get() > base_hits,
            "threads {threads}: repeated SQL must hit the plan cache"
        );

        // An unindexed single-source hop query is one BFS, and no other
        // kind moves.
        let before: Vec<u64> = ACCEL_KINDS.iter().map(|k| m.traversals_total(k)).collect();
        session
            .query_with_params(
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
                &[Value::Int(1), Value::Int(40)],
            )
            .unwrap();
        for (kind, before) in ACCEL_KINDS.iter().zip(before) {
            let want = before + u64::from(*kind == "bfs");
            assert_eq!(m.traversals_total(kind), want, "threads {threads}: {kind} traversals");
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Trace span tree
// ---------------------------------------------------------------------------

/// Find the first span named `name` anywhere in a trace forest.
fn find_span<'j>(spans: &'j [Json], name: &str) -> Option<&'j Json> {
    for span in spans {
        if span.get("name").and_then(Json::as_str) == Some(name) {
            return Some(span);
        }
        if let Some(children) = span.get("children").and_then(Json::as_array) {
            if let Some(hit) = find_span(children, name) {
                return Some(hit);
            }
        }
    }
    None
}

fn attr<'j>(span: &'j Json, key: &str) -> Option<&'j Json> {
    span.get("attrs").and_then(|a| a.get(key))
}

/// `SET trace = on` records a statement -> bind/optimize/execute ->
/// pipeline span tree for a fused pipeline, and a traversal span with
/// pair/settled counts for a batched graph join.
#[test]
fn trace_records_span_tree_for_pipeline_and_graph_join() {
    let db = graph_db();
    db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
    let session = db.session();
    session.set("trace", "on").unwrap();

    // Fused pipeline shape.
    session.query("SELECT id FROM people WHERE grp = 2").unwrap();
    let doc = json::parse(&session.last_trace_json().expect("trace ring populated")).unwrap();
    let roots = doc.as_array().expect("trace JSON is a span array");
    let statement = find_span(roots, "statement").expect("statement root span");
    assert_eq!(attr(statement, "verb").and_then(Json::as_str), Some("select"));
    assert_eq!(attr(statement, "outcome").and_then(Json::as_str), Some("ok"));
    assert!(
        attr(statement, "parse_us").and_then(Json::as_i64).is_some(),
        "statement span carries parse time: {doc:?}"
    );
    assert!(find_span(roots, "execute").is_some(), "execute child span: {doc:?}");
    let pipeline = find_span(roots, "pipeline").expect("pipeline span under execute");
    assert!(
        attr(pipeline, "morsels").and_then(Json::as_i64).unwrap_or(0) >= 1,
        "pipeline span counts morsels: {pipeline:?}"
    );
    assert!(
        attr(pipeline, "queue_wait_us").and_then(Json::as_i64).is_some(),
        "pipeline span carries queue wait: {pipeline:?}"
    );

    // A fresh statement replaces the ring head; bind/optimize only appear
    // on a cache miss, so check them on the first execution of a new SQL.
    let batch = "SELECT p1.id, p2.id, CHEAPEST SUM(f: f.w) AS cost \
                 FROM people p1, people p2 \
                 WHERE p1.grp = 1 AND p2.grp = 4 AND p1.id REACHES p2.id OVER e f EDGE (s, d)";
    session.query(batch).unwrap();
    let doc = json::parse(&session.last_trace_json().unwrap()).unwrap();
    let roots = doc.as_array().unwrap();
    assert!(find_span(roots, "bind").is_some(), "bind span on first plan: {doc:?}");
    assert!(find_span(roots, "optimize").is_some(), "optimize span on first plan: {doc:?}");
    let traversal = find_span(roots, "traversal").expect("traversal span for the graph join");
    assert!(
        attr(traversal, "pairs").and_then(Json::as_i64).unwrap_or(0) >= 1,
        "traversal span counts pairs: {traversal:?}"
    );
    assert!(
        attr(traversal, "settled").and_then(Json::as_i64).is_some(),
        "traversal span counts settled vertices: {traversal:?}"
    );
    // The dispatcher's choice and its reason: the CH index covers the
    // weighted spec, and a graph join is many pairs.
    assert_eq!(attr(traversal, "kind").and_then(Json::as_str), Some("ch-m2m"), "{traversal:?}");
    assert_eq!(
        attr(traversal, "reason").and_then(Json::as_str),
        Some("path index covers every spec"),
        "{traversal:?}"
    );

    // The repeated statement is served from the plan cache and says so.
    session.query(batch).unwrap();
    let doc = json::parse(&session.last_trace_json().unwrap()).unwrap();
    let statement = find_span(doc.as_array().unwrap(), "statement").unwrap();
    assert_eq!(attr(statement, "plan_cache").and_then(Json::as_str), Some("hit"));

    // The ring retains history, newest last.
    let history = session.trace_history();
    assert_eq!(history.len(), 3, "ring keeps the battery");
    assert_eq!(history.last(), session.last_trace_json().as_ref());

    // Satellite: EXPLAIN ANALYZE pipeline summaries report queue wait.
    let t = session.query("EXPLAIN ANALYZE SELECT id FROM people WHERE grp = 5").unwrap();
    let text: Vec<String> = t.rows().map(|r| r[0].as_str().unwrap().to_string()).collect();
    let full = text.join("\n");
    let pipeline_line = text
        .iter()
        .find(|l| l.starts_with("Pipeline "))
        .unwrap_or_else(|| panic!("no pipeline summary in:\n{full}"));
    assert!(pipeline_line.contains("queue-wait avg="), "line was: {pipeline_line}");
    assert!(pipeline_line.contains("max="), "line was: {pipeline_line}");
}

/// Count the spans whose name starts with `prefix` anywhere in a forest.
fn count_spans(spans: &[Json], prefix: &str) -> usize {
    spans
        .iter()
        .map(|span| {
            let own =
                span.get("name").and_then(Json::as_str).is_some_and(|n| n.starts_with(prefix));
            let below =
                span.get("children").and_then(Json::as_array).map_or(0, |c| count_spans(c, prefix));
            usize::from(own) + below
        })
        .sum()
}

/// A failing statement executes once. The nested shape below fails with a
/// division by zero on its last row, deep inside the inner pipeline; the
/// verbose trace of that one statement must show the table scanned once
/// and no more pipelines than the plan has (no operator is re-run to
/// reproduce the error).
#[test]
fn failing_statement_executes_each_operator_once() {
    let db = Database::new();
    db.execute("CREATE TABLE t (g INTEGER NOT NULL, x INTEGER NOT NULL)").unwrap();
    let n = 2000;
    let rows: Vec<String> = (0..n).map(|r| format!("({}, {})", r % 97, r + 1)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    let session = db.session();
    session.set("trace", "verbose").unwrap();
    session.set("threads", "4").unwrap();
    session.set("morsel_rows", "64").unwrap();
    // Project -> Filter -> Project -> Aggregate -> Project -> Filter -> Scan.
    let err = session
        .query(&format!(
            "SELECT r.g, r.s + 1 FROM (\
                SELECT q.g, SUM(q.y) AS s FROM (\
                    SELECT t.g, 1000000 / (t.x - {n}) AS y FROM t WHERE t.x > 0) q \
                GROUP BY q.g) r \
             WHERE r.s >= 0"
        ))
        .unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    let doc =
        json::parse(&session.last_trace_json().expect("failed statements trace too")).unwrap();
    let roots = doc.as_array().unwrap();
    assert_eq!(count_spans(roots, "Scan"), 1, "the table is scanned once: {doc:?}");
    // Only the failing inner pipeline ran: the outer one's source failed.
    assert_eq!(count_spans(roots, "pipeline"), 1, "{doc:?}");
}

/// The graph build — most of an unindexed statement's time — is visible
/// wherever it runs: one `graph_build` span per build (none on a warm
/// indexed read), a `gsql_graph_builds_total{source}` tick, and a
/// `graph build: …` note on the graph operator's `EXPLAIN ANALYZE` line.
#[test]
fn graph_build_is_visible_from_every_build_site() {
    let db = graph_db();
    let m = db.metrics();
    let session = db.session();
    session.set("trace", "on").unwrap();
    let q13 = "SELECT CHEAPEST SUM(1) AS hops WHERE ? REACHES ? OVER e EDGE (s, d)";
    let args = [Value::Int(1), Value::Int(40)];
    let build_spans = |what: &str| {
        let doc = json::parse(&session.last_trace_json().expect("trace ring populated")).unwrap();
        let roots = doc.as_array().unwrap();
        let span = find_span(roots, "graph_build").cloned();
        (count_spans(roots, "graph_build"), span, format!("{what}: {doc:?}"))
    };

    // Unindexed: the statement builds its own graph, once.
    session.query_with_params(q13, &args).unwrap();
    let (count, span, doc) = build_spans("unindexed Q13");
    assert_eq!(count, 1, "{doc}");
    let span = span.unwrap();
    assert_eq!(attr(&span, "source").and_then(Json::as_str), Some("statement"), "{doc}");
    assert_eq!(attr(&span, "dict").and_then(Json::as_str), Some("int"), "{doc}");
    assert_eq!(attr(&span, "edges").and_then(Json::as_i64), Some(400), "{doc}");
    assert!(attr(&span, "vertices").and_then(Json::as_i64).unwrap_or(0) > 1, "{doc}");
    assert!(attr(&span, "threads").is_none(), "the build has no width: {doc}");
    assert_eq!(m.graph_builds_total("statement"), 1);

    // CREATE GRAPH INDEX is a build too (DDL statements trace it).
    session.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
    let (count, span, doc) = build_spans("CREATE GRAPH INDEX");
    assert_eq!(count, 1, "{doc}");
    assert_eq!(attr(&span.unwrap(), "source").and_then(Json::as_str), Some("graph_index"));
    assert_eq!(m.graph_builds_total("graph_index"), 1);

    // A warm indexed read builds nothing.
    session.query_with_params(q13, &args).unwrap();
    let (count, _, doc) = build_spans("warm indexed Q13");
    assert_eq!(count, 0, "{doc}");
    assert_eq!(m.graph_builds_total("graph_index"), 1);

    // The first indexed read after a write pays the lazy rebuild.
    session.execute("INSERT INTO e VALUES (1, 40, 1)").unwrap();
    session.query_with_params(q13, &args).unwrap();
    let (count, span, doc) = build_spans("indexed Q13 after INSERT");
    assert_eq!(count, 1, "{doc}");
    let span = span.unwrap();
    assert_eq!(attr(&span, "source").and_then(Json::as_str), Some("graph_index"), "{doc}");
    assert_eq!(attr(&span, "edges").and_then(Json::as_i64), Some(401), "{doc}");
    assert_eq!(m.graph_builds_total("graph_index"), 2);
    assert_eq!(m.graph_builds_total("statement"), 1, "indexed reads never build per statement");

    // EXPLAIN ANALYZE attributes the build to the graph operator, not to
    // the input operators that run after it.
    for (setting, rebuilt) in [("off", true), ("on", false)] {
        session.set("graph_index", setting).unwrap();
        let t = session
            .query("EXPLAIN ANALYZE SELECT CHEAPEST SUM(1) WHERE 1 REACHES 40 OVER e EDGE (s, d)")
            .unwrap();
        let lines: Vec<String> = t.rows().map(|r| r[0].as_str().unwrap().to_string()).collect();
        let noted: Vec<&String> = lines.iter().filter(|l| l.contains("graph build:")).collect();
        if rebuilt {
            assert_eq!(noted.len(), 1, "{lines:?}");
            assert!(noted[0].trim_start().starts_with("GraphSelect"), "{lines:?}");
            assert!(noted[0].contains("V=") && noted[0].contains("E=401"), "{lines:?}");
            assert!(noted[0].contains("dict=int") && noted[0].contains(" ms"), "{lines:?}");
        } else {
            assert!(noted.is_empty(), "a fresh index builds nothing: {lines:?}");
        }
    }
}

/// An indexed weighted statement says whether it evaluated its weights or
/// found them on the graph: a `weights` span under `traversal` carrying
/// `cached` and `edges`, hit/miss counters and a resident-bytes gauge, and a
/// `weights: …` note on the graph operator's `EXPLAIN ANALYZE` line.
#[test]
fn weight_cache_is_visible_in_trace_metrics_and_explain() {
    let db = graph_db();
    db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
    let m = db.metrics();
    let session = db.session();
    session.set("trace", "on").unwrap();
    let q14 = "SELECT CHEAPEST SUM(f: CAST(f.w * 2 AS INTEGER)) AS (cost, path) \
               WHERE ? REACHES ? OVER e f EDGE (s, d)";
    let args = [Value::Int(1), Value::Int(40)];
    let weights_span = |session: &gsql::Session<'_>, what: &str| {
        let doc = json::parse(&session.last_trace_json().expect("trace ring populated")).unwrap();
        let roots = doc.as_array().unwrap();
        assert_eq!(count_spans(roots, "weights"), 1, "{what}: {doc:?}");
        let traversal = find_span(roots, "traversal").expect("traversal span");
        let children = traversal.get("children").and_then(Json::as_array).expect("children");
        let span = find_span(children, "weights")
            .unwrap_or_else(|| panic!("{what}: `weights` nests under `traversal`: {doc:?}"));
        assert_eq!(attr(span, "edges").and_then(Json::as_i64), Some(400), "{what}");
        attr(span, "cached").and_then(Json::as_str).map(str::to_string)
    };

    session.query_with_params(q14, &args).unwrap();
    assert_eq!(weights_span(&session, "cold").as_deref(), Some("false"));
    assert_eq!((m.weight_cache_hits.get(), m.weight_cache_misses.get()), (0, 1));
    session.query_with_params(q14, &args).unwrap();
    assert_eq!(weights_span(&session, "warm").as_deref(), Some("true"));
    assert_eq!((m.weight_cache_hits.get(), m.weight_cache_misses.get()), (1, 1));
    assert_eq!(m.weight_cache_bytes.get(), 8 * 400);
    let text = m.registry().render();
    assert!(text.contains("gsql_weight_cache_hits_total 1\n"), "{text}");
    assert!(text.contains("gsql_weight_cache_misses_total 1\n"), "{text}");
    assert!(text.contains("gsql_weight_cache_bytes 3200\n"), "{text}");

    // An unindexed statement evaluates every time and leaves the counters
    // alone; a constant weight has no weights at all.
    session.set("graph_index", "off").unwrap();
    session.query_with_params(q14, &args).unwrap();
    assert_eq!(weights_span(&session, "ad hoc").as_deref(), Some("false"));
    assert_eq!((m.weight_cache_hits.get(), m.weight_cache_misses.get()), (1, 1));
    session.set("graph_index", "on").unwrap();
    session
        .query_with_params("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)", &args)
        .unwrap();
    let doc = json::parse(&session.last_trace_json().unwrap()).unwrap();
    assert_eq!(count_spans(doc.as_array().unwrap(), "weights"), 0, "{doc:?}");

    let explain = |session: &gsql::Session<'_>| -> String {
        let t = session
            .query(
                "EXPLAIN ANALYZE SELECT CHEAPEST SUM(f: f.w + 1) AS cost \
                 WHERE 1 REACHES 40 OVER e f EDGE (s, d)",
            )
            .unwrap();
        let lines: Vec<String> = t.rows().map(|r| r[0].as_str().unwrap().to_string()).collect();
        let noted: Vec<&String> = lines.iter().filter(|l| l.contains("weights:")).collect();
        assert_eq!(noted.len(), 1, "{lines:?}");
        assert!(noted[0].trim_start().starts_with("GraphSelect"), "{lines:?}");
        noted[0].clone()
    };
    let cold = explain(&session);
    assert!(cold.contains("weights: E=400, evaluated in ") && cold.contains(" ms"), "{cold}");
    let warm = explain(&session);
    assert!(warm.contains("weights: E=400, cached"), "{warm}");
}

/// Creating a graph index under a name that is taken fails before any
/// build: no `graph_build` span, no counter tick.
#[test]
fn duplicate_create_graph_index_builds_nothing() {
    let db = graph_db();
    let m = db.metrics();
    let session = db.session();
    session.set("trace", "on").unwrap();
    session.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
    assert_eq!(m.graph_builds_total("graph_index"), 1);
    let err = session.execute("CREATE GRAPH INDEX GI ON e EDGE (d, s)").unwrap_err();
    assert!(err.to_string().contains("graph index 'GI' already exists"), "{err}");
    let doc = json::parse(&session.last_trace_json().expect("failed DDL traces too")).unwrap();
    assert_eq!(count_spans(doc.as_array().unwrap(), "graph_build"), 0, "{doc:?}");
    assert_eq!(m.graph_builds_total("graph_index"), 1);
}

/// A graph index and a path index over the same edges share one graph per
/// table version: the second create reuses the first one's graph, and after
/// a write, reading through both costs one graph build and one layer build,
/// whichever reads first.
#[test]
fn graph_and_path_index_share_one_build_per_table_version() {
    let db = graph_db();
    let m = db.metrics();
    let graph_builds = || m.graph_builds_total("graph_index") + m.graph_builds_total("path_index");
    db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
    db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) USING CONTRACTION").unwrap();
    assert_eq!((graph_builds(), db.indexes().builds()), (1, 1));
    let session = db.session();
    let via_path = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)";
    let via_graph = "SELECT CHEAPEST SUM(1) AS (c, p) WHERE ? REACHES ? OVER e EDGE (s, d)";
    let plan = |sql: &str| session.plan(&sql.replace('?', "1")).unwrap().explain();
    assert!(plan(via_path).contains("PathIndex pc ON e (CH)"), "{}", plan(via_path));
    assert!(plan(via_graph).contains("GraphIndex gi ON e"), "{}", plan(via_graph));
    let args = [Value::Int(1), Value::Int(40)];
    for (round, order) in [[via_path, via_graph], [via_graph, via_path]].into_iter().enumerate() {
        session.execute(&format!("INSERT INTO e VALUES ({round}, 41, 1)")).unwrap();
        let before = (graph_builds(), db.indexes().builds());
        for sql in order {
            session.query_with_params(sql, &args).unwrap();
        }
        let after = (graph_builds(), db.indexes().builds());
        assert_eq!(after, (before.0 + 1, before.1 + 1), "round {round}");
    }
}

/// The graph operator's `EXPLAIN ANALYZE` line ends with the traversal the
/// dispatcher chose and why.
#[test]
fn explain_analyze_names_the_traversal_and_why() {
    let db = graph_db();
    db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
    db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
    let session = db.session();
    let line = |sql: &str| -> String {
        let t = session.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let lines: Vec<String> = t.rows().map(|r| r[0].as_str().unwrap().to_string()).collect();
        let graph_op = lines.iter().find(|l| l.trim_start().starts_with("Graph"));
        graph_op.unwrap_or_else(|| panic!("no graph operator line: {lines:?}")).clone()
    };
    let batch = |spec: &str| {
        format!(
            "WITH pairs (a, b) AS (VALUES (1, 40), (2, 30)) SELECT pairs.a, {spec} \
             FROM pairs WHERE pairs.a REACHES pairs.b OVER e f EDGE (s, d)"
        )
    };
    let point = |spec: &str| format!("SELECT {spec} WHERE 1 REACHES 40 OVER e f EDGE (s, d)");
    for (sql, tail) in [
        (point("CHEAPEST SUM(f: f.w)"), "ch (path index covers every spec)"),
        (batch("CHEAPEST SUM(f: f.w)"), "ch-m2m (path index covers every spec)"),
        (point("CHEAPEST SUM(1)"), "bidir-bfs (indexed single pair, hop weights)"),
        (batch("CHEAPEST SUM(1)"), "bfs (pair batch, hop weights)"),
        (point("CHEAPEST SUM(f: f.w) AS (c, p)"), "dijkstra (per-edge weights)"),
    ] {
        let line = line(&sql);
        assert!(line.ends_with(&format!(", traversal: {tail})")), "{sql}\n{line}");
    }
    session.set("graph_index", "off").unwrap();
    let line = line(&point("CHEAPEST SUM(1)"));
    assert!(line.ends_with(", traversal: bfs (ad-hoc graph, hop weights))"), "{line}");
}

// ---------------------------------------------------------------------------
// 3. Slow-query log
// ---------------------------------------------------------------------------

/// Statements over the `slow_query_ms` threshold land in the ring with
/// hash, verb, and span summary; fast statements do not.
#[test]
fn slow_query_log_triggers_on_threshold() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INTEGER NOT NULL)").unwrap();
    let rows: Vec<String> = (0..300).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();

    let session = db.session();
    session.set("trace", "on").unwrap();

    // Fast statement under a generous threshold: nothing logged.
    session.set("slow_query_ms", "10000").unwrap();
    session.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(db.slow_log().len(), 0, "fast statements stay out of the log");

    // A 90k-row cross-join aggregate comfortably exceeds 1 ms.
    session.set("slow_query_ms", "1").unwrap();
    let slow_sql = "SELECT count(*) FROM t a, t b WHERE a.x <= b.x";
    session.query(slow_sql).unwrap();
    assert!(!db.slow_log().is_empty(), "slow statement must be logged");

    let entry = db.slow_log().entries().pop().unwrap();
    assert_eq!(entry.verb, "select");
    assert_eq!(entry.outcome, "ok");
    assert!(entry.elapsed_us >= 1000, "elapsed {}us under the 1ms threshold", entry.elapsed_us);
    assert!(!entry.sql_hash.is_empty(), "sql hash recorded");
    assert!(!entry.plan_fingerprint.is_empty(), "plan fingerprint recorded");
    assert!(
        entry.settings.iter().any(|(n, v)| n == "slow_query_ms" && v == "1"),
        "settings snapshot: {:?}",
        entry.settings
    );
    assert!(
        entry.spans.iter().any(|(n, dur)| n == "statement" && *dur > 0),
        "span summary from the trace: {:?}",
        entry.spans
    );

    // The surface renders as one JSON document.
    let doc = json::parse(&db.slow_log().render_json()).unwrap();
    assert!(doc.get("count").and_then(Json::as_i64).unwrap_or(0) >= 1);
    let first = doc.get("entries").and_then(Json::as_array).unwrap().first().unwrap();
    assert!(first.get("sql_hash").and_then(Json::as_str).is_some());
    assert!(first.get("elapsed_us").and_then(Json::as_i64).is_some());
}

/// The ring is bounded: pushing past capacity evicts oldest-first.
#[test]
fn slow_query_ring_evicts_oldest() {
    let log = SlowLog::with_stderr(2, false);
    for n in 1..=3u64 {
        log.push(SlowQueryRecord {
            unix_us: n,
            sql_hash: format!("{n:x}"),
            plan_fingerprint: String::new(),
            verb: "select".to_string(),
            outcome: "ok".to_string(),
            elapsed_us: n * 500,
            settings: Vec::new(),
            spans: Vec::new(),
        });
    }
    assert_eq!(log.len(), 2);
    let kept: Vec<u64> = log.entries().iter().map(|r| r.unix_us).collect();
    assert_eq!(kept, vec![2, 3], "oldest record evicted first");
}

// ---------------------------------------------------------------------------
// 4. /metrics exposition over HTTP
// ---------------------------------------------------------------------------

/// One exposition sample: `name 3` or `name{labels} 3`.
fn parse_sample(line: &str) -> Option<(String, f64)> {
    let (name_part, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let name = match name_part.split_once('{') {
        Some((n, labels)) => {
            if !labels.ends_with('}') {
                return None;
            }
            n
        }
        None => name_part,
    };
    let well_formed = !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    well_formed.then(|| (name.to_string(), value))
}

/// Serve a database, drive a known request mix, and check the exposition:
/// every line parses, the engine/admission/plan-cache families are
/// present, and the per-endpoint latency histogram counts exactly the
/// requests each endpoint answered.
#[test]
fn metrics_endpoint_renders_valid_exposition() {
    let db = std::sync::Arc::new(graph_db());
    let server = serve(
        std::sync::Arc::clone(&db),
        ServerConfig { workers: 2, queue_depth: 32, ..ServerConfig::default() },
    )
    .expect("server failed to start");
    let addr = server.addr();

    let body = Json::Object(vec![(
        "sql".to_string(),
        Json::from("SELECT count(*) AS n FROM people WHERE grp = 1"),
    )])
    .encode();
    for _ in 0..2 {
        let resp = client::post(addr, "/query", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    assert_eq!(client::get(addr, "/health").unwrap().status, 200);

    let resp = client::get(addr, "/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let exposition = resp.body;
    server.shutdown();

    // Every non-comment line is a well-formed sample.
    let mut samples: Vec<(String, f64)> = Vec::new();
    for line in exposition.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let sample =
            parse_sample(line).unwrap_or_else(|| panic!("malformed exposition line: {line}"));
        samples.push(sample);
    }
    assert!(samples.len() > 20, "expected a populated exposition, got {}", samples.len());

    // Engine families: queries, plan cache, pipelines, traversals, builds,
    // weight cache.
    for family in [
        "# TYPE gsql_queries_total counter",
        "# TYPE gsql_query_duration_microseconds histogram",
        "# TYPE gsql_plan_cache_hits_total counter",
        "# TYPE gsql_plan_cache_misses_total counter",
        "# TYPE gsql_plan_cache_entries gauge",
        "# TYPE gsql_pipelines_total counter",
        "# TYPE gsql_pipeline_morsels_total counter",
        "# TYPE gsql_traversals_total counter",
        "# TYPE gsql_traversal_settled_vertices histogram",
        "# TYPE gsql_graph_builds_total counter",
        "# TYPE gsql_graph_build_duration_microseconds histogram",
        "# TYPE gsql_weight_cache_hits_total counter",
        "# TYPE gsql_weight_cache_misses_total counter",
        "# TYPE gsql_weight_cache_bytes gauge",
        // Serving tier: admission control and per-endpoint latency.
        "# TYPE gsql_http_admitted_total counter",
        "# TYPE gsql_http_responded_total counter",
        "# TYPE gsql_http_refused_total counter",
        "# TYPE gsql_http_queue_depth gauge",
        "# TYPE gsql_http_queue_wait_microseconds histogram",
        "# TYPE gsql_http_request_duration_microseconds histogram",
    ] {
        assert!(exposition.contains(family), "missing exposition family: {family}");
    }

    // The two /query statements are ok-selects.
    let ok_selects = exposition
        .lines()
        .find(|l| l.starts_with("gsql_queries_total{verb=\"select\",outcome=\"ok\"}"))
        .and_then(parse_sample)
        .map(|(_, v)| v)
        .unwrap_or(0.0);
    assert!(ok_selects >= 2.0, "ok-select counter saw the /query statements: {ok_selects}");

    // Per-endpoint latency counts match the request mix exactly: the
    // /metrics response renders before settling itself, so its own
    // endpoint reads zero.
    for (endpoint, want) in [("query", 2.0), ("health", 1.0), ("metrics", 0.0)] {
        let line_start =
            format!("gsql_http_request_duration_microseconds_count{{endpoint=\"{endpoint}\"}}");
        let got = exposition
            .lines()
            .find(|l| l.starts_with(&line_start))
            .and_then(parse_sample)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no latency count for endpoint {endpoint}"));
        assert_eq!(got, want, "endpoint {endpoint} latency count");
    }
}

/// `"trace": true` on a /query request returns the span tree inline.
#[test]
fn http_query_returns_inline_trace_on_request() {
    let db = std::sync::Arc::new(graph_db());
    let server =
        serve(std::sync::Arc::clone(&db), ServerConfig::default()).expect("server failed to start");
    let addr = server.addr();

    let body = Json::Object(vec![
        ("sql".to_string(), Json::from("SELECT count(*) FROM people")),
        ("trace".to_string(), Json::Bool(true)),
    ])
    .encode();
    let resp = client::post(addr, "/query", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = json::parse(&resp.body).unwrap();
    let trace = doc.get("trace").and_then(Json::as_array).expect("inline trace span array");
    let statement = find_span(trace, "statement").expect("statement span over HTTP");
    assert_eq!(attr(statement, "outcome").and_then(Json::as_str), Some("ok"));
    assert!(find_span(trace, "execute").is_some());

    // Without the flag the response has no trace member.
    let plain =
        Json::Object(vec![("sql".to_string(), Json::from("SELECT count(*) FROM people"))]).encode();
    let resp = client::post(addr, "/query", &plain).unwrap();
    assert_eq!(resp.status, 200);
    assert!(json::parse(&resp.body).unwrap().get("trace").is_none());
    server.shutdown();
}

// ---------------------------------------------------------------------------
// 5. EXPLAIN ANALYZE is a rendering of the verbose span tree
// ---------------------------------------------------------------------------

/// [`graph_db`] plus every shape the corpus needs: a graph index and a CH
/// path index over `e (s, d)`, an ALT index over the reversed edges, and an
/// unindexed copy `r` of the edges for ad-hoc graphs.
fn corpus_db() -> Database {
    let db = graph_db();
    db.execute_script(
        "CREATE GRAPH INDEX gi ON e EDGE (s, d);
         CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION;
         CREATE PATH INDEX pl ON e EDGE (d, s) WEIGHT w USING LANDMARKS (4);
         CREATE TABLE r (s INTEGER NOT NULL, d INTEGER NOT NULL);
         INSERT INTO r SELECT s, d FROM e;",
    )
    .unwrap();
    db
}

/// Statements covering every operator family and traversal source.
fn corpus() -> Vec<&'static str> {
    vec![
        // A fused filter -> project -> join chain into an aggregate sink,
        // sorted.
        "SELECT p.grp, count(*) AS n, SUM(e.w) AS w FROM people p JOIN e ON e.s = p.id \
         WHERE p.grp < 5 GROUP BY p.grp ORDER BY p.grp",
        // A LIMIT sink.
        "SELECT id, grp FROM people WHERE grp > 2 LIMIT 7 OFFSET 3",
        // DISTINCT and UNION breakers.
        "SELECT DISTINCT grp FROM people UNION ALL SELECT d FROM e WHERE w = 1",
        // UNNEST over a path from the graph index (Dijkstra for the path).
        "SELECT R.s, R.d, R.w FROM (SELECT CHEAPEST SUM(f: f.w) AS (c, pth) \
         WHERE 1 REACHES 40 OVER e f EDGE (s, d)) T, UNNEST(T.pth) AS R",
        // A GraphSelect over an ad-hoc graph.
        "SELECT CHEAPEST SUM(1) AS hops WHERE 1 REACHES 40 OVER r EDGE (s, d)",
        // An indexed graph: bidirectional BFS.
        "SELECT CHEAPEST SUM(1) AS (hops, pth) WHERE 2 REACHES 30 OVER e EDGE (s, d)",
        // The CH and ALT path indexes.
        "SELECT CHEAPEST SUM(f: f.w) AS cost WHERE 1 REACHES 40 OVER e f EDGE (s, d)",
        "SELECT CHEAPEST SUM(f: f.w) AS cost WHERE 40 REACHES 1 OVER e f EDGE (d, s)",
        // A GraphJoin.
        "SELECT p1.id, p2.id, CHEAPEST SUM(1) AS hops FROM people p1, people p2 \
         WHERE p1.grp = 0 AND p2.grp = 5 AND p1.id REACHES p2.id OVER e EDGE (s, d)",
    ]
}

/// Spans that annotate an operator instead of being one.
const NOTE_SPANS: [&str; 4] = ["graph_build", "weights", "traversal", "pipeline"];

/// `(label, depth, rows)` of every operator span below `span`, in start
/// order; depth counts operator ancestors below `execute`.
fn operator_spans(span: &Json, depth: usize, out: &mut Vec<(String, usize, i64)>) {
    for child in span.get("children").and_then(Json::as_array).into_iter().flatten() {
        let name = child.get("name").and_then(Json::as_str).unwrap();
        if NOTE_SPANS.contains(&name) {
            continue;
        }
        let rows = attr(child, "rows").and_then(Json::as_i64).expect("operator span has rows");
        out.push((name.to_string(), depth, rows));
        operator_spans(child, depth + 1, out);
    }
}

/// The `EXPLAIN ANALYZE` text of `sql`, one string per line.
fn explain_analyze(session: &gsql::Session<'_>, sql: &str) -> Vec<String> {
    let t = session.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    t.rows().map(|r| r[0].as_str().unwrap().to_string()).collect()
}

/// `(label, depth, rows)` of every operator line of an `EXPLAIN ANALYZE`.
fn operator_lines(lines: &[String]) -> Vec<(String, usize, i64)> {
    lines
        .iter()
        .filter(|l| !l.starts_with("Pipeline ") && !l.starts_with("Result:"))
        .map(|l| {
            let label = l.trim_start();
            let depth = (l.len() - label.len()) / 2;
            let (label, stats) = label.rsplit_once(" (rows=").expect("operator line");
            let rows = stats.split(',').next().unwrap().parse().unwrap();
            (label.to_string(), depth, rows)
        })
        .collect()
}

/// One record, two renderings: every `EXPLAIN ANALYZE` operator line is an
/// operator span of the same statement's verbose trace — same label, same
/// depth, same rows, same order — fused-chain members included. And an
/// `EXPLAIN ANALYZE` is traced like any other statement: its tree lands in
/// the trace ring under `SET trace = on`, and not with tracing off.
#[test]
fn explain_analyze_renders_the_verbose_span_tree() {
    let db = corpus_db();
    let session = db.session();
    for sql in corpus() {
        session.set("trace", "verbose").unwrap();
        session.query(sql).unwrap();
        let doc = json::parse(&session.last_trace_json().unwrap()).unwrap();
        let execute = find_span(doc.as_array().unwrap(), "execute").expect("execute span");
        let mut spans = Vec::new();
        operator_spans(execute, 0, &mut spans);
        session.set("trace", "off").unwrap();
        let lines = explain_analyze(&session, sql);
        assert_eq!(operator_lines(&lines), spans, "{sql}\n{}", lines.join("\n"));
        let pipelines = lines.iter().filter(|l| l.starts_with("Pipeline ")).count();
        assert_eq!(pipelines, count_spans(std::slice::from_ref(execute), "pipeline"), "{sql}");
    }

    let sql = corpus()[0];
    let before = session.trace_history().len();
    explain_analyze(&session, sql);
    assert_eq!(session.trace_history().len(), before, "trace off records nothing");
    session.set("trace", "on").unwrap();
    let lines = explain_analyze(&session, sql);
    let history = session.trace_history();
    assert_eq!(history.len(), before + 1, "EXPLAIN ANALYZE is traced like any statement");
    let doc = json::parse(history.last().unwrap()).unwrap();
    let roots = doc.as_array().unwrap();
    let statement = find_span(roots, "statement").unwrap();
    assert_eq!(attr(statement, "verb").and_then(Json::as_str), Some("utility"));
    let mut spans = Vec::new();
    operator_spans(find_span(roots, "execute").unwrap(), 0, &mut spans);
    assert_eq!(operator_lines(&lines), spans, "the ring holds the tree it was rendered from");
}

/// `time=` of an `EXPLAIN ANALYZE` line, in microseconds.
fn line_time_us(line: &str) -> f64 {
    let time = line.split("time=").nth(1).unwrap().split([',', ')']).next().unwrap();
    match time.strip_suffix("ms") {
        Some(ms) => ms.parse::<f64>().unwrap() * 1000.0,
        None => time.strip_suffix("us").unwrap().parse().unwrap(),
    }
}

/// A `Pipeline N:` line times the morsel loop alone: not the source below
/// it, which is a breaker with a line of its own. `LIMIT 1` over a 100 k
/// row sort spends almost all its time in the sort.
#[test]
fn pipeline_time_excludes_the_breaker_below_it() {
    let db = Database::new();
    db.execute("CREATE TABLE d (x INTEGER NOT NULL)").unwrap();
    db.execute("INSERT INTO d VALUES (0), (1), (2), (3), (4), (5), (6), (7), (8), (9)").unwrap();
    db.execute("CREATE TABLE t (k INTEGER NOT NULL)").unwrap();
    db.execute(
        "INSERT INTO t SELECT a.x + 10 * b.x + 100 * c.x + 1000 * f.x + 10000 * g.x \
         FROM d a, d b, d c, d f, d g",
    )
    .unwrap();
    let session = db.session();
    let lines = explain_analyze(
        &session,
        "SELECT q.k FROM (SELECT k FROM t ORDER BY (k * 7919) % 100003) q LIMIT 1",
    );
    let full = lines.join("\n");
    let sort = lines.iter().find(|l| l.trim_start().starts_with("Sort ")).expect(&full);
    assert!(sort.contains("rows=100000"), "{full}");
    let pipeline =
        lines.iter().find(|l| l.starts_with("Pipeline ") && l.contains(": sort ->")).expect(&full);
    assert!(line_time_us(pipeline) < line_time_us(sort), "{full}");
}

// ---------------------------------------------------------------------------
// 6. Tracing never perturbs results
// ---------------------------------------------------------------------------

/// Render a result table to a canonical string.
fn render(t: &gsql::Table) -> String {
    t.rows().map(|r| format!("{r:?}")).collect::<Vec<_>>().join("\n")
}

/// Every span of a trace document is closed and lies inside its parent's
/// interval.
fn assert_well_formed(spans: &[Json], parent: Option<(i64, i64)>, what: &str) {
    for span in spans {
        let start = span.get("start_us").and_then(Json::as_i64).expect("start_us");
        let dur = span.get("dur_us").and_then(Json::as_i64);
        let dur = dur.unwrap_or_else(|| panic!("{what}: span left open: {span:?}"));
        if let Some((p_start, p_end)) = parent {
            assert!(
                p_start <= start && start + dur <= p_end,
                "{what}: {span:?} escapes its parent"
            );
        }
        let children = span.get("children").and_then(Json::as_array);
        assert_well_formed(children.unwrap_or(&[]), Some((start, start + dur)), what);
    }
}

/// Tracing is observation only: over the corpus plus one failing
/// statement, at trace off/on/verbose × threads 1/4 × morsel size 7 and
/// the default, results and error text are byte-identical, and every
/// traced statement leaves a well-formed span tree.
#[test]
fn tracing_preserves_thread_equivalence() {
    let db = corpus_db();
    let mut battery: Vec<&str> = corpus();
    battery.push("SELECT id, 100 / (grp - 3) AS q FROM people");
    let default_morsel_rows = db.session().setting("morsel_rows").unwrap();

    let run = |trace: &str, threads: &str, morsel_rows: &str| -> Vec<String> {
        let session = db.session();
        session.set("trace", trace).unwrap();
        session.set("threads", threads).unwrap();
        session.set("morsel_rows", morsel_rows).unwrap();
        let what = format!("trace={trace} threads={threads} morsel_rows={morsel_rows}");
        battery
            .iter()
            .map(|sql| {
                let out = match session.query(sql) {
                    Ok(t) => render(&t),
                    Err(e) => format!("error: {e}"),
                };
                if trace != "off" {
                    let doc = json::parse(&session.last_trace_json().unwrap()).unwrap();
                    assert_well_formed(doc.as_array().unwrap(), None, &format!("{what}: {sql}"));
                }
                out
            })
            .collect()
    };

    let reference = run("off", "1", &default_morsel_rows);
    assert!(reference.last().unwrap().contains("division by zero"), "{reference:?}");
    for trace in ["off", "on", "verbose"] {
        for threads in ["1", "4"] {
            for morsel_rows in ["7", default_morsel_rows.as_str()] {
                let got = run(trace, threads, morsel_rows);
                for (i, sql) in battery.iter().enumerate() {
                    assert_eq!(
                        got[i], reference[i],
                        "trace={trace} threads={threads} morsel_rows={morsel_rows}: {sql}"
                    );
                }
            }
        }
    }
}
