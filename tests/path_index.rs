//! End-to-end tests of the path-acceleration subsystem (ALT landmarks and
//! contraction hierarchies): DDL, index selection (`EXPLAIN` visibility and
//! kind selection, `CREATE`/`DROP PATH INDEX` under a prepared statement,
//! which is never re-planned for them), byte-identical results against
//! the same statement over an unindexed twin table in every configuration
//! of the shared sweep — for point-to-point and batched (multi-pair /
//! GraphJoin) shapes — invalidation on edge mutation, and `EXPLAIN ANALYZE`
//! settled-node reporting.

mod common;

use common::{answer, explain, render, sweep};
use gsql::{Database, IndexSpace, Value};

/// A deterministic layered digraph `e` with integer weights: dense enough
/// to give ALT something to prune, sparse enough to stay fast. `e_plain`
/// holds the same rows and is never indexed, so a statement over it answers
/// the way no index would. A `people` table rides along for the GraphJoin
/// batch shapes.
fn setup() -> Vec<String> {
    let mut x: u64 = 0x243f6a8885a308d3;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let edges: Vec<String> = (0..800)
        .map(|_| {
            let (s, d) = (next() % 150, next() % 150);
            format!("({s}, {d}, {})", next() % 20 + 1)
        })
        .collect();
    let edges = edges.join(", ");
    let people: Vec<String> = (0..150).map(|id| format!("({id}, {})", id % 10)).collect();
    let mut setup = Vec::new();
    for table in ["e", "e_plain"] {
        setup.push(format!(
            "CREATE TABLE {table} (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)"
        ));
        setup.push(format!("INSERT INTO {table} VALUES {edges}"));
    }
    setup.push("CREATE TABLE people (id INTEGER NOT NULL, grp INTEGER NOT NULL)".to_string());
    setup.push(format!("INSERT INTO people VALUES {}", people.join(", ")));
    setup
}

fn build_db() -> Database {
    common::database(&setup())
}

/// The same statement over `e_plain`, the unindexed twin of `e`.
fn unindexed(sql: &str) -> String {
    sql.replace("OVER e ", "OVER e_plain ")
}

/// Point-to-point query shapes the path index accelerates (hops, weighted,
/// scaled-constant, reachability-only), parameterized by endpoints.
const P2P_QUERIES: [&str; 4] = [
    "SELECT CHEAPEST SUM(1) AS hops WHERE ? REACHES ? OVER e EDGE (s, d)",
    "SELECT CHEAPEST SUM(f: f.w) AS cost WHERE ? REACHES ? OVER e f EDGE (s, d)",
    "SELECT CHEAPEST SUM(3) AS scaled WHERE ? REACHES ? OVER e EDGE (s, d)",
    "SELECT 1 WHERE ? REACHES ? OVER e EDGE (s, d)",
];

/// Endpoint pairs covering reachable, unreachable and self pairs.
fn p2p_params() -> Vec<Vec<Value>> {
    (0..25)
        .map(|i| ((i * 17) % 150, (i * 31 + 5) % 150))
        .chain([(3, 3), (7, 149)])
        .map(|(s, d)| vec![Value::Int(s), Value::Int(d)])
        .collect()
}

/// Batched query shapes the many-to-many tier accelerates: multi-pair
/// graph selects (hop and weighted) and two-table graph joins. Pair lists
/// deliberately repeat endpoints and include self and unreachable pairs so
/// the dedup and scatter paths are exercised end to end.
fn batch_queries() -> Vec<String> {
    let mut pair_rows = String::new();
    for i in 0..30 {
        if i > 0 {
            pair_rows.push_str(", ");
        }
        pair_rows.push_str(&format!("({}, {})", (i * 17) % 150, (i * 31 + 5) % 150));
    }
    pair_rows.push_str(", (0, 9), (0, 9), (3, 3), (7, 149)");
    vec![
        format!(
            "WITH pairs (a, b) AS (VALUES {pair_rows}) \
             SELECT pairs.a, pairs.b, CHEAPEST SUM(1) AS hops \
             FROM pairs WHERE pairs.a REACHES pairs.b OVER e EDGE (s, d)"
        ),
        format!(
            "WITH pairs (a, b) AS (VALUES {pair_rows}) \
             SELECT pairs.a, pairs.b, CHEAPEST SUM(f: f.w) AS cost \
             FROM pairs WHERE pairs.a REACHES pairs.b OVER e f EDGE (s, d)"
        ),
        "SELECT p1.id, p2.id FROM people p1, people p2 \
         WHERE p1.grp = 0 AND p2.grp = 1 AND p1.id REACHES p2.id OVER e EDGE (s, d)"
            .to_string(),
        "SELECT p1.id, p2.id, CHEAPEST SUM(f: f.w) AS cost FROM people p1, people p2 \
         WHERE p1.grp = 2 AND p2.grp = 3 AND p1.id REACHES p2.id OVER e f EDGE (s, d)"
            .to_string(),
    ]
}

/// With `indexes` created on `e`, every query takes the accelerated plan
/// and answers, for every parameter set, byte-identically to the same
/// statement over the unindexed twin — in every configuration of the sweep.
fn assert_accelerated_match_unindexed(indexes: &[&str], queries: &[String], params: &[Vec<Value>]) {
    // The indexes go right after `e`'s rows, into the first half of the
    // setup: a durable configuration restores them from its snapshot.
    let mut setup = setup();
    setup.splice(2..2, indexes.iter().map(|ddl| ddl.to_string()));
    sweep(&setup, |run| {
        for sql in queries {
            let plannable = sql.replacen('?', "0", 1).replacen('?', "9", 1);
            let plan = explain(run.session(), &plannable);
            assert!(plan.contains("PathIndex"), "shape not accelerated: {sql}\n{plan}");
            for params in params {
                let indexed = run.query_with_params(sql, params);
                let plain = run.session().query_with_params(&unindexed(sql), params);
                assert_eq!(answer(&indexed), answer(&plain), "{sql} {params:?}");
            }
        }
    });
}

#[test]
fn ddl_create_drop_and_errors() {
    let db = build_db();
    db.execute("CREATE PATH INDEX pw ON e EDGE (s, d) WEIGHT w USING LANDMARKS(4)").unwrap();
    db.execute("CREATE PATH INDEX ph ON e EDGE (d, s) USING LANDMARKS(4)").unwrap();
    // Duplicate name, bad table, bad column, bad landmark count.
    assert!(db.execute("CREATE PATH INDEX pw ON e EDGE (s, d) USING LANDMARKS(2)").is_err());
    assert!(db.execute("CREATE PATH INDEX px ON nope EDGE (s, d) USING LANDMARKS(2)").is_err());
    assert!(db.execute("CREATE PATH INDEX px ON e EDGE (s, zz) USING LANDMARKS(2)").is_err());
    assert!(db.execute("CREATE PATH INDEX px ON e EDGE (s, d) USING LANDMARKS(999)").is_err());
    db.execute("DROP PATH INDEX pw").unwrap();
    assert!(db.execute("DROP PATH INDEX pw").is_err());
    // DROP TABLE sweeps the remaining index away.
    db.execute("DROP TABLE e").unwrap();
    assert!(db.indexes().index_names(IndexSpace::Path).is_empty());
}

#[test]
fn explain_shows_accelerated_plan_and_respects_toggle() {
    let db = build_db();
    db.execute("CREATE PATH INDEX pw ON e EDGE (s, d) WEIGHT w USING LANDMARKS(4)").unwrap();
    let session = db.session();
    let hops = "SELECT CHEAPEST SUM(1) WHERE 0 REACHES 9 OVER e EDGE (s, d)";
    let weighted = "SELECT CHEAPEST SUM(f: f.w) WHERE 0 REACHES 9 OVER e f EDGE (s, d)";
    // The weighted index covers the matching weight column but not hops.
    assert!(
        explain(&session, weighted).contains("PathIndex pw ON e"),
        "weighted plan not accelerated:\n{}",
        explain(&session, weighted)
    );
    assert!(!explain(&session, hops).contains("PathIndex"));
    // A hop index covers hop (and scaled-constant) queries.
    db.execute("CREATE PATH INDEX ph ON e EDGE (s, d) USING LANDMARKS(4)").unwrap();
    // Two indexes cover (e, s, d) now; weighted-vs-hop eligibility decides.
    let session = db.session();
    let hop_plan = explain(&session, hops);
    assert!(hop_plan.contains("PathIndex"), "hop plan not accelerated:\n{hop_plan}");
    // Path-producing queries must never be accelerated: the bidirectional
    // stitch could pick a different equal-cost path than Dijkstra.
    let with_path = "SELECT CHEAPEST SUM(1) AS (c, p) WHERE 0 REACHES 9 OVER e EDGE (s, d)";
    assert!(!explain(&session, with_path).contains("PathIndex"));
    // Dropping the index removes the acceleration, visibly; creating it
    // again brings it back.
    session.execute("DROP PATH INDEX pw").unwrap();
    assert!(!explain(&session, weighted).contains("PathIndex"));
    session.execute("CREATE PATH INDEX pw ON e EDGE (s, d) WEIGHT w USING LANDMARKS(4)").unwrap();
    assert!(explain(&session, weighted).contains("PathIndex pw ON e"));
}

#[test]
fn accelerated_results_byte_identical_to_fallback() {
    // A weighted and a hop index over (s, d), so every shape in
    // P2P_QUERIES — weighted column, plain hops, scaled constant and the
    // reachability probe — actually takes the accelerated plan.
    assert_accelerated_match_unindexed(
        &[
            "CREATE PATH INDEX pw ON e EDGE (s, d) WEIGHT w USING LANDMARKS(6)",
            "CREATE PATH INDEX ph ON e EDGE (s, d) USING LANDMARKS(6)",
        ],
        &P2P_QUERIES.map(String::from),
        &p2p_params(),
    );
}

#[test]
fn reverse_direction_index_accelerates_reverse_queries() {
    let db = build_db();
    db.execute("CREATE PATH INDEX ph ON e EDGE (d, s) USING LANDMARKS(4)").unwrap();
    let session = db.session();
    let reverse = "SELECT CHEAPEST SUM(1) WHERE 0 REACHES 9 OVER e EDGE (d, s)";
    let forward = "SELECT CHEAPEST SUM(1) WHERE 0 REACHES 9 OVER e EDGE (s, d)";
    assert!(explain(&session, reverse).contains("PathIndex ph"));
    assert!(!explain(&session, forward).contains("PathIndex"));
}

#[test]
fn edge_mutation_invalidates_index_and_cached_plans() {
    let db = Database::new();
    db.execute("CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL)").unwrap();
    db.execute("INSERT INTO e VALUES (1, 2), (2, 3), (3, 4), (4, 5)").unwrap();
    db.execute("CREATE PATH INDEX ph ON e EDGE (s, d) USING LANDMARKS(3)").unwrap();
    let session = db.session();
    let sql = "SELECT CHEAPEST SUM(1) AS hops WHERE ? REACHES ? OVER e EDGE (s, d)";
    let stmt = session.prepare(sql).unwrap();
    let params = [Value::Int(1), Value::Int(5)];
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(4));
    // A shortcut edge must show up in the accelerated answer immediately:
    // the table version moved, so the landmark data rebuilds lazily.
    session.execute("INSERT INTO e VALUES (1, 4)").unwrap();
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(2));
    // Deleting it restores the long route.
    session.execute("DELETE FROM e WHERE s = 1 AND d = 4").unwrap();
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(4));

    // Plans never name an index: after DROP PATH INDEX the cached plan
    // runs on, and its graph operator builds the graph for the statement.
    let before = session.cache_stats();
    session.execute("DROP PATH INDEX ph").unwrap();
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(4));
    let after = session.cache_stats();
    assert_eq!(after.invalidations, before.invalidations, "index DDL re-plans nothing");
    assert_eq!(after.hits, before.hits + 1);
}

#[test]
fn explain_analyze_reports_settled_nodes() {
    let db = build_db();
    db.execute("CREATE PATH INDEX pw ON e EDGE (s, d) WEIGHT w USING LANDMARKS(6)").unwrap();
    let session = db.session();
    let plan = session
        .query("EXPLAIN ANALYZE SELECT CHEAPEST SUM(f: f.w) WHERE 0 REACHES 9 OVER e f EDGE (s, d)")
        .unwrap();
    let text: Vec<String> = (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect();
    let all = text.join("\n");
    assert!(all.contains("settled="), "settled count missing:\n{all}");
    assert!(all.contains("(alt, landmarks=6)"), "accel marker missing:\n{all}");
    // The same statement without the index reports no ALT detail.
    session.execute("DROP PATH INDEX pw").unwrap();
    let plan = session
        .query("EXPLAIN ANALYZE SELECT CHEAPEST SUM(f: f.w) WHERE 0 REACHES 9 OVER e f EDGE (s, d)")
        .unwrap();
    let text: Vec<String> = (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect();
    assert!(!text.join("\n").contains("settled="));
}

/// Whether a path index serves a statement is decided by the registry
/// alone: `path_index` is not a setting, and `SHOW ALL` does not list it.
#[test]
fn set_path_index_validation_and_show_all() {
    let db = Database::new();
    let session = db.session();
    for sql in ["SET path_index = off", "SET path_index = on", "SHOW path_index"] {
        let err = session.execute(sql).unwrap_err();
        assert!(err.to_string().contains("unknown setting 'path_index'"), "{sql}: {err}");
    }
    let all = session.query("SHOW ALL").unwrap();
    let names: Vec<String> = (0..all.row_count()).map(|i| all.row(i)[0].to_string()).collect();
    assert!(!names.contains(&"path_index".to_string()), "SHOW ALL lists path_index");
}

#[test]
fn contraction_ddl_show_indexes_and_if_exists() {
    let db = build_db();
    db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
    // Duplicate name: a hard create errors, IF NOT EXISTS is a no-op.
    assert!(db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) USING CONTRACTION").is_err());
    db.execute("CREATE PATH INDEX IF NOT EXISTS pc ON e EDGE (s, d) USING CONTRACTION").unwrap();
    db.execute("CREATE PATH INDEX ph ON e EDGE (s, d) USING LANDMARKS(4)").unwrap();
    let session = db.session();
    // SHOW PATH INDEXES: name, table, kind, status, sorted by name.
    let t = session.query("SHOW PATH INDEXES").unwrap();
    assert_eq!(t.row_count(), 2);
    assert_eq!(t.row(0)[0], Value::from("pc"));
    assert_eq!(t.row(0)[1], Value::from("e"));
    assert_eq!(t.row(0)[3], Value::from("built"));
    assert_eq!(t.row(1)[0], Value::from("ph"));
    assert_eq!(t.row(0)[2], Value::from("contraction"));
    assert_eq!(t.row(1)[2], Value::from("landmarks(4)"));
    // A table mutation flips the listing to stale; the data rebuilds
    // lazily on the next accelerated query, not in SHOW itself.
    db.execute("INSERT INTO e VALUES (0, 1, 1)").unwrap();
    let t = session.query("SHOW PATH INDEXES").unwrap();
    assert_eq!(t.row(0)[3], Value::from("stale"));
    assert_eq!(t.row(1)[3], Value::from("stale"));
    // DROP IF EXISTS tolerates a missing index; a hard drop does not.
    db.execute("DROP PATH INDEX IF EXISTS pc").unwrap();
    db.execute("DROP PATH INDEX IF EXISTS pc").unwrap();
    assert!(db.execute("DROP PATH INDEX pc").is_err());
    let t = session.query("SHOW PATH INDEXES").unwrap();
    assert_eq!(t.row_count(), 1);
    assert_eq!(t.row(0)[0], Value::from("ph"));
}

#[test]
fn explain_prefers_contraction_over_landmarks() {
    let db = build_db();
    db.execute("CREATE PATH INDEX pa ON e EDGE (s, d) WEIGHT w USING LANDMARKS(4)").unwrap();
    let weighted = "SELECT CHEAPEST SUM(f: f.w) WHERE 0 REACHES 9 OVER e f EDGE (s, d)";
    let session = db.session();
    let plan = explain(&session, weighted);
    assert!(plan.contains("PathIndex pa ON e (ALT)"), "landmark plan missing:\n{plan}");
    // A CH index covering the same query beats the landmark index (which
    // sorts first by name), and the choice is visible in EXPLAIN.
    db.execute("CREATE PATH INDEX pz ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
    let plan = explain(&session, weighted);
    assert!(plan.contains("PathIndex pz ON e (CH)"), "CH not preferred:\n{plan}");
    // Dropping the CH index falls back to the landmark index.
    db.execute("DROP PATH INDEX pz").unwrap();
    let plan = explain(&session, weighted);
    assert!(plan.contains("PathIndex pa ON e"), "ALT fallback missing:\n{plan}");
}

#[test]
fn contraction_results_byte_identical_to_fallback() {
    // A weighted and a hop CH index over (s, d), so every shape in
    // P2P_QUERIES actually takes the accelerated plan.
    assert_accelerated_match_unindexed(
        &[
            "CREATE PATH INDEX cw ON e EDGE (s, d) WEIGHT w USING CONTRACTION",
            "CREATE PATH INDEX chop ON e EDGE (s, d) USING CONTRACTION",
        ],
        &P2P_QUERIES.map(String::from),
        &p2p_params(),
    );
}

#[test]
fn contraction_mutation_invalidates_index_and_cached_plans() {
    let db = Database::new();
    db.execute("CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL)").unwrap();
    db.execute("INSERT INTO e VALUES (1, 2), (2, 3), (3, 4), (4, 5)").unwrap();
    db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) USING CONTRACTION").unwrap();
    let session = db.session();
    let sql = "SELECT CHEAPEST SUM(1) AS hops WHERE ? REACHES ? OVER e EDGE (s, d)";
    let stmt = session.prepare(sql).unwrap();
    let params = [Value::Int(1), Value::Int(5)];
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(4));
    // A new edge must show up in the accelerated answer immediately: the
    // table version moved, so the hierarchy rebuilds lazily.
    session.execute("INSERT INTO e VALUES (1, 4)").unwrap();
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(2));
    session.execute("DELETE FROM e WHERE s = 1 AND d = 4").unwrap();
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(4));
    // DROP PATH INDEX leaves the cached plan alone for CH exactly like for
    // landmarks.
    let before = session.cache_stats();
    session.execute("DROP PATH INDEX pc").unwrap();
    assert_eq!(stmt.query(&session, &params).unwrap().row(0)[0], Value::Int(4));
    let after = session.cache_stats();
    assert_eq!(after.invalidations, before.invalidations, "index DDL re-plans nothing");
    assert_eq!(after.hits, before.hits + 1);
}

/// A prepared statement picks up an index created after it was planned,
/// and lets go of it when the index is dropped, without ever re-planning:
/// the graph operator asks the registry each time it runs.
#[test]
fn prepared_statement_uses_an_index_created_after_planning() {
    let db = build_db();
    let session = db.session();
    let sql = "SELECT CHEAPEST SUM(f: f.w) AS cost WHERE ? REACHES ? OVER e f EDGE (s, d)";
    let stmt = session.prepare(sql).unwrap();
    let params = [Value::Int(0), Value::Int(9)];
    let m = db.metrics();
    let counts = || (m.traversals_total("ch"), m.graph_builds_total("statement"));
    let first = render(&stmt.query(&session, &params).unwrap());
    assert!(first.contains("Int("), "0 reaches 9: {first}");
    assert_eq!(counts(), (0, 1), "no index: the statement builds its graph");
    let misses = session.cache_stats().misses;

    db.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
    assert_eq!(render(&stmt.query(&session, &params).unwrap()), first);
    assert_eq!(counts(), (1, 1), "the next execution is a CH search over the index");

    db.execute("DROP PATH INDEX pc").unwrap();
    assert_eq!(render(&stmt.query(&session, &params).unwrap()), first);
    assert_eq!(counts(), (1, 2), "without the index the statement builds its graph again");
    let stats = session.cache_stats();
    assert_eq!((stats.misses, stats.invalidations), (misses, 0), "no execution re-planned");
}

#[test]
fn explain_analyze_reports_ch_settled_and_shortcuts() {
    let db = build_db();
    db.execute("CREATE PATH INDEX cw ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
    let session = db.session();
    let plan = session
        .query("EXPLAIN ANALYZE SELECT CHEAPEST SUM(f: f.w) WHERE 0 REACHES 9 OVER e f EDGE (s, d)")
        .unwrap();
    let text: Vec<String> = (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect();
    let all = text.join("\n");
    assert!(all.contains("settled="), "settled count missing:\n{all}");
    assert!(all.contains("(ch, shortcuts="), "ch detail missing:\n{all}");
}

#[test]
fn batch_results_unchanged_by_index_creation() {
    // Creating a covering index moves a multi-pair batch from the
    // source-parallel Dijkstra runtime onto the many-to-many tier; the
    // visible rows must not change in the process.
    let db = build_db();
    let batch = "WITH pairs (a, b) AS (VALUES (0, 9), (1, 17), (2, 33), (140, 7)) \
                 SELECT pairs.a, pairs.b, CHEAPEST SUM(1) AS hops \
                 FROM pairs WHERE pairs.a REACHES pairs.b OVER e EDGE (s, d)";
    let before = db.query(batch).unwrap();
    db.execute("CREATE PATH INDEX ph ON e EDGE (s, d) USING LANDMARKS(4)").unwrap();
    let after = db.query(batch).unwrap();
    assert_eq!(before.row_count(), after.row_count());
    for r in 0..before.row_count() {
        assert_eq!(before.row(r), after.row(r), "row {r}");
    }
}

#[test]
fn batch_results_byte_identical_to_fallback() {
    // A weighted and a hop index, so every batched shape — hop and
    // weighted, multi-pair select and graph join — takes the multi-target
    // ALT tier.
    assert_accelerated_match_unindexed(
        &[
            "CREATE PATH INDEX pw ON e EDGE (s, d) WEIGHT w USING LANDMARKS(6)",
            "CREATE PATH INDEX ph ON e EDGE (s, d) USING LANDMARKS(6)",
        ],
        &batch_queries(),
        &[Vec::new()],
    );
}

#[test]
fn contraction_batch_results_byte_identical_to_fallback() {
    // Same shapes through the bucket-based CH many-to-many tier.
    assert_accelerated_match_unindexed(
        &[
            "CREATE PATH INDEX cw ON e EDGE (s, d) WEIGHT w USING CONTRACTION",
            "CREATE PATH INDEX chop ON e EDGE (s, d) USING CONTRACTION",
        ],
        &batch_queries(),
        &[Vec::new()],
    );
}

#[test]
fn explain_analyze_reports_batch_detail() {
    let db = build_db();
    db.execute("CREATE PATH INDEX pw ON e EDGE (s, d) WEIGHT w USING LANDMARKS(6)").unwrap();
    let session = db.session();
    let sql = "EXPLAIN ANALYZE \
               WITH pairs (a, b) AS (VALUES (0, 9), (1, 17), (2, 33), (140, 7)) \
               SELECT pairs.a, pairs.b, CHEAPEST SUM(f: f.w) AS cost \
               FROM pairs WHERE pairs.a REACHES pairs.b OVER e f EDGE (s, d)";
    let collect = |session: &gsql::Session| {
        let plan = session.query(sql).unwrap();
        (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect::<Vec<_>>().join("\n")
    };
    let all = collect(&session);
    assert!(all.contains("settled="), "settled count missing:\n{all}");
    assert!(all.contains("(alt-multi, landmarks="), "alt-multi detail missing:\n{all}");
    // A CH index covering the same query wins, and the detail line flips
    // to the bucket tier.
    db.execute("CREATE PATH INDEX cw ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
    let all = collect(&session);
    assert!(all.contains("(ch-m2m, buckets="), "ch-m2m detail missing:\n{all}");
    // The same statement without a path index reports no batch detail.
    session.execute_script("DROP PATH INDEX pw; DROP PATH INDEX cw;").unwrap();
    let all = collect(&session);
    assert!(!all.contains("settled="), "fallback must not report settled:\n{all}");
}

#[test]
fn batch_mutation_invalidates_index() {
    let db = Database::new();
    db.execute("CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL)").unwrap();
    db.execute("INSERT INTO e VALUES (1, 2), (2, 3), (3, 4), (4, 5)").unwrap();
    db.execute("CREATE PATH INDEX ph ON e EDGE (s, d) USING LANDMARKS(3)").unwrap();
    let session = db.session();
    let sql = "WITH pairs (a, b) AS (VALUES (1, 5), (2, 5)) \
               SELECT pairs.a, pairs.b, CHEAPEST SUM(1) AS hops \
               FROM pairs WHERE pairs.a REACHES pairs.b OVER e EDGE (s, d)";
    let t = session.query(sql).unwrap();
    assert_eq!(t.row(0)[2], Value::Int(4));
    assert_eq!(t.row(1)[2], Value::Int(3));
    // A shortcut edge must show up in the batched answer immediately: the
    // table version moved, so the index data rebuilds lazily.
    session.execute("INSERT INTO e VALUES (1, 4)").unwrap();
    let t = session.query(sql).unwrap();
    assert_eq!(t.row(0)[2], Value::Int(2));
    assert_eq!(t.row(1)[2], Value::Int(3));
    // Deleting it restores the long route.
    session.execute("DELETE FROM e WHERE s = 1 AND d = 4").unwrap();
    let t = session.query(sql).unwrap();
    assert_eq!(t.row(0)[2], Value::Int(4));
}

/// An index build polls the statement deadline: under `timeout_ms = 1`,
/// `CREATE PATH INDEX … USING CONTRACTION` over a grid whose contraction
/// takes at least 50 ms fails with a typed timeout and leaves no index, and
/// a following `DROP TABLE` runs at once.
#[test]
fn a_contraction_build_past_the_statement_timeout_fails_typed_and_leaves_nothing() {
    let side = 80;
    let edges: Vec<String> = (0..side * side)
        .flat_map(|v| {
            let right = (v % side + 1 < side).then(|| [(v, v + 1), (v + 1, v)]);
            let down = (v + side < side * side).then(|| [(v, v + side), (v + side, v)]);
            right.into_iter().chain(down).flatten()
        })
        .map(|(s, d)| format!("({s}, {d}, {})", (s * 7 + d * 3) % 9 + 1))
        .collect();
    let db = Database::new();
    for table in ["grid", "twin"] {
        db.execute(&format!(
            "CREATE TABLE {table} (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)"
        ))
        .unwrap();
        db.execute(&format!("INSERT INTO {table} VALUES {}", edges.join(", "))).unwrap();
    }
    // Without a deadline, the same build takes at least 50 ms.
    let started = std::time::Instant::now();
    db.execute("CREATE PATH INDEX full ON twin EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
    let took = started.elapsed();
    assert!(took.as_millis() >= 50, "the contraction took only {took:?}");

    let session = db.session();
    session.execute("SET timeout_ms = 1").unwrap();
    let sql = "CREATE PATH INDEX pc ON grid EDGE (s, d) WEIGHT w USING CONTRACTION";
    let err = session.execute(sql).unwrap_err();
    assert!(matches!(err, gsql::Error::Timeout { limit_ms: 1 }), "{err}");
    assert_eq!(db.indexes().index_names(IndexSpace::Path), ["full"]);
    db.execute("DROP TABLE grid").unwrap();
    assert!(db.catalog().get("grid").is_err());
}

/// A lazy rebuild that outlives its table is never served to the table
/// that replaces it: `DROP TABLE`, `CREATE TABLE`, inserts that bring the
/// new table to the old one's version, and the same `CREATE PATH INDEX`,
/// all while the old table's contraction runs, leave the new table
/// answering from its own two edges once that contraction has finished.
#[test]
fn a_rebuild_outliving_its_table_is_not_served_to_a_recreated_one() {
    let side = 120;
    let edges: Vec<String> = (0..side * side)
        .flat_map(|v| {
            let right = (v % side + 1 < side).then(|| [(v, v + 1), (v + 1, v)]);
            let down = (v + side < side * side).then(|| [(v, v + side), (v + side, v)]);
            right.into_iter().chain(down).flatten()
        })
        .map(|(s, d)| format!("({s}, {d})"))
        .collect();
    let db = Database::new();
    let (table, index) = (
        "CREATE TABLE grid (s INTEGER NOT NULL, d INTEGER NOT NULL)",
        "CREATE PATH INDEX pc ON grid EDGE (s, d) USING CONTRACTION",
    );
    db.execute(table).unwrap();
    db.execute(&format!("INSERT INTO grid VALUES {}", edges.join(", "))).unwrap();
    db.execute(index).unwrap();
    // Version 2: the index is stale.
    db.execute("INSERT INTO grid VALUES (0, 1)").unwrap();
    let hops = |to: i64| {
        let sql =
            format!("SELECT CHEAPEST SUM(1) AS hops WHERE 0 REACHES {to} OVER grid EDGE (s, d)");
        db.query(&sql).map(|t| (0..t.row_count()).map(|i| t.row(i)[0].clone()).collect::<Vec<_>>())
    };
    // The stale graph is extended by the appended row, not rebuilt.
    let graphs = || db.metrics().graph_builds_total("extension");
    let built = graphs();
    std::thread::scope(|scope| {
        let rebuild = scope.spawn(|| hops(3));
        // The graph is built: the contraction is running.
        while graphs() == built {
            assert!(!rebuild.is_finished(), "{:?}", rebuild.join());
            std::thread::yield_now();
        }
        db.execute("DROP TABLE grid").unwrap();
        db.execute(table).unwrap();
        db.execute("INSERT INTO grid VALUES (0, 1)").unwrap();
        db.execute("INSERT INTO grid VALUES (1, 2)").unwrap();
        db.execute(index).unwrap();
        assert_eq!(rebuild.join().unwrap().unwrap(), [Value::Int(3)], "the old grid's answer");
    });
    assert_eq!(hops(3).unwrap(), []);
    assert_eq!(hops(2).unwrap(), [Value::Int(2)]);
    assert_eq!(db.indexes().index_names(IndexSpace::Path), ["pc"]);
}
