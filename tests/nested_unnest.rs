//! Nested-table (PATH) semantics beyond the appendix: propagation through
//! derived tables, multiple unnests, snapshot stability, and CSV behaviour.

use gsql::{Database, Value};
use rand::prelude::*;

fn db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, tag VARCHAR);
         INSERT INTO e VALUES (1, 2, 'a'), (2, 3, 'b'), (3, 4, 'c'), (1, 4, 'direct');",
    )
    .unwrap();
    db
}

#[test]
fn path_columns_survive_nested_derived_tables() {
    // The PATH column keeps its nested schema through two projection layers.
    let db = db();
    let t = db
        .query(
            "SELECT R.tag FROM (
                SELECT inner2.c2 AS c3, inner2.p2 AS p3 FROM (
                    SELECT cost AS c2, path AS p2 FROM (
                        SELECT CHEAPEST SUM(x: 1) AS (cost, path)
                        WHERE 1 REACHES 3 OVER e x EDGE (s, d)
                    ) q1
                ) inner2
             ) outer3, UNNEST(outer3.p3) AS R ORDER BY R.tag",
        )
        .unwrap();
    assert_eq!(t.row_count(), 2);
    assert_eq!(t.row(0)[0], Value::from("a"));
    assert_eq!(t.row(1)[0], Value::from("b"));
}

#[test]
fn two_paths_unnested_independently() {
    // Two CHEAPEST SUMs over the same predicate, each unnested: the lateral
    // joins compose (cross product of the two expansions per input row).
    let db = db();
    let t = db
        .query(
            "SELECT A.tag, B.tag FROM (
                SELECT CHEAPEST SUM(x: 1) AS (c1, p1),
                       CHEAPEST SUM(x: CASE WHEN tag = 'direct' THEN 1 ELSE 10 END) AS (c2, p2)
                WHERE 1 REACHES 4 OVER e x EDGE (s, d)
             ) T, UNNEST(T.p1) AS A, UNNEST(T.p2) AS B",
        )
        .unwrap();
    // p1 = the 1-hop direct edge; p2 = the direct edge too (weight 1 vs 30).
    assert_eq!(t.row_count(), 1);
    assert_eq!(t.row(0)[0], Value::from("direct"));
    assert_eq!(t.row(0)[1], Value::from("direct"));
}

#[test]
fn unnest_over_empty_result_is_empty() {
    let db = db();
    let t = db
        .query(
            "SELECT R.tag FROM (
                SELECT CHEAPEST SUM(x: 1) AS (cost, path)
                WHERE 4 REACHES 1 OVER e x EDGE (s, d)
             ) T, UNNEST(T.path) AS R",
        )
        .unwrap();
    assert_eq!(t.row_count(), 0);
}

#[test]
fn ordinality_column_can_be_filtered_and_ordered() {
    let db = db();
    let t = db
        .query(
            "SELECT R.ordinality, R.tag FROM (
                SELECT CHEAPEST SUM(x: CASE WHEN tag = 'direct' THEN 100 ELSE 1 END)
                       AS (cost, path)
                WHERE 1 REACHES 4 OVER e x EDGE (s, d)
             ) T, UNNEST(T.path) WITH ORDINALITY AS R
             WHERE R.ordinality >= 2 ORDER BY R.ordinality DESC",
        )
        .unwrap();
    // 3-hop path a,b,c; ordinality >= 2 -> b,c; descending -> c,b.
    assert_eq!(t.row_count(), 2);
    assert_eq!(t.row(0)[0], Value::Int(3));
    assert_eq!(t.row(0)[1], Value::from("c"));
    assert_eq!(t.row(1)[0], Value::Int(2));
}

#[test]
fn unnest_column_aliases_rename() {
    let db = db();
    let t = db
        .query(
            "SELECT R.hop_from, R.hop_to, R.label, R.pos FROM (
                SELECT CHEAPEST SUM(x: 1) AS (cost, path)
                WHERE 1 REACHES 3 OVER e x EDGE (s, d)
             ) T, UNNEST(T.path) WITH ORDINALITY AS R (hop_from, hop_to, label, pos)
             ORDER BY R.pos",
        )
        .unwrap();
    assert_eq!(t.row_count(), 2);
    assert_eq!(t.row(0)[0], Value::Int(1));
    assert_eq!(t.row(0)[3], Value::Int(1));
}

#[test]
fn path_display_and_count() {
    let db = db();
    let t = db
        .query(
            "SELECT CHEAPEST SUM(x: 1) AS (cost, path)
             WHERE 1 REACHES 3 OVER e x EDGE (s, d)",
        )
        .unwrap();
    let path = t.row(0)[1].as_path().unwrap().clone();
    assert_eq!(path.len(), 2);
    assert!(!path.is_empty());
    assert_eq!(t.row(0)[1].to_string(), "[path: 2 edges]");
}

#[test]
fn csv_export_rejects_path_columns_gracefully() {
    // PATH cannot round-trip through CSV; exporting the cost alone works.
    let db = db();
    let csv = db
        .export_csv("SELECT CHEAPEST SUM(x: 1) AS cost WHERE 1 REACHES 3 OVER e x EDGE (s, d)")
        .unwrap();
    assert_eq!(csv, "cost\n2\n");
}

#[test]
fn csv_import_round_trip_feeds_graph_queries() {
    let db = Database::new();
    db.execute("CREATE TABLE g (src INTEGER, dst INTEGER, w DOUBLE)").unwrap();
    let n = db.import_csv("g", "src,dst,w\n1,2,0.5\n2,3,1.5\n1,3,9.0\n".as_bytes()).unwrap();
    assert_eq!(n, 3);
    let t = db
        .query("SELECT CHEAPEST SUM(x: w) AS c WHERE 1 REACHES 3 OVER g x EDGE (src, dst)")
        .unwrap();
    assert_eq!(t.row(0)[0], Value::Double(2.0));
}

#[test]
fn paths_reference_filtered_edge_snapshot() {
    // When the edge table is a filtered CTE, the unnested rows come from
    // the *filtered* snapshot (row ids must not leak from the base table).
    let db = db();
    let t = db
        .query(
            "WITH cheap AS (SELECT * FROM e WHERE tag <> 'direct')
             SELECT R.s, R.d, R.tag FROM (
                SELECT CHEAPEST SUM(x: 1) AS (cost, path)
                WHERE 1 REACHES 4 OVER cheap x EDGE (s, d)
             ) T, UNNEST(T.path) AS R ORDER BY R.s",
        )
        .unwrap();
    assert_eq!(t.row_count(), 3);
    let tags: Vec<String> = t.rows().map(|r| r[2].as_str().unwrap().to_string()).collect();
    assert_eq!(tags, vec!["a", "b", "c"]);
}

/// On random weighted digraphs, every `UNNEST(path) WITH ORDINALITY` numbers
/// its edges 1, 2, …, chains them from the source to the destination, and
/// their weights sum to the reported cost.
#[test]
fn unnested_paths_chain_source_to_dest_and_sum_to_the_cost() {
    let mut rng = SmallRng::seed_from_u64(2017);
    for _ in 0..24 {
        let n = rng.gen_range(2..14i64);
        let rows: Vec<String> = (0..rng.gen_range(1..40))
            .map(|_| {
                let (s, d) = (rng.gen_range(1..=n), rng.gen_range(1..=n));
                format!("({s}, {d}, {})", rng.gen_range(1..9))
            })
            .collect();
        let db = Database::new();
        db.execute("CREATE TABLE g (s INTEGER, d INTEGER, w INTEGER)").unwrap();
        db.execute(&format!("INSERT INTO g VALUES {}", rows.join(", "))).unwrap();
        let session = db.session();
        let stmt = session
            .prepare(
                "SELECT T.cost, R.s, R.d, R.w, R.ordinality FROM (
                   SELECT CHEAPEST SUM(x: w) AS (cost, path)
                   WHERE ? REACHES ? OVER g x EDGE (s, d)
                 ) T, UNNEST(T.path) WITH ORDINALITY AS R ORDER BY R.ordinality",
            )
            .unwrap();
        for src in 1..=n.min(4) {
            for dst in (1..=n.min(4)).filter(|&dst| dst != src) {
                let t = stmt.query(&session, &[Value::Int(src), Value::Int(dst)]).unwrap();
                let (mut at, mut sum) = (src, 0);
                for (i, row) in t.rows().enumerate() {
                    assert_eq!(row[4], Value::Int(i as i64 + 1), "ordinality");
                    assert_eq!(row[1], Value::Int(at), "{src} -> {dst}: chain at hop {i}");
                    at = row[2].as_int().unwrap();
                    sum += row[3].as_int().unwrap();
                }
                if !t.is_empty() {
                    assert_eq!((at, Value::Int(sum)), (dst, t.row(0)[0].clone()), "{src} -> {dst}");
                }
            }
        }
    }
}
