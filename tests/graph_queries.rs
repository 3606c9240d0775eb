//! Graph-query semantics at the public SQL surface: directionality,
//! algorithm selection, graph indices, snapshots, and edge cases. Every
//! case runs in each configuration of the shared sweep.

mod common;

use common::{sweep, Run};
use gsql::Value;

/// 1 -> 2 -> 3 -> 4 (directed chain) plus a costly shortcut 1 -> 4.
const CHAIN: [&str; 2] = [
    "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)",
    "INSERT INTO e VALUES (1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 10)",
];

fn q13(run: &Run<'_>, s: i64, d: i64) -> Option<i64> {
    let t = run
        .query_with_params(
            "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
            &[Value::Int(s), Value::Int(d)],
        )
        .unwrap();
    if t.is_empty() {
        None
    } else {
        t.row(0)[0].as_int()
    }
}

#[test]
fn edges_are_directed() {
    sweep(&CHAIN, |run| {
        assert_eq!(q13(run, 1, 4), Some(1)); // the shortcut counts 1 hop
        assert_eq!(q13(run, 4, 1), None); // nothing points back
    });
}

#[test]
fn reversing_edge_roles_reverses_the_graph() {
    sweep(&CHAIN, |run| {
        // EDGE (d, s) flips every edge.
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (d, s)",
                &[Value::Int(4), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Int(1));
    });
}

#[test]
fn weighted_prefers_cheap_detour_unweighted_prefers_shortcut() {
    sweep(&CHAIN, |run| {
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(x: 1) AS hops, CHEAPEST SUM(x: w) AS cost
                 WHERE ? REACHES ? OVER e x EDGE (s, d)",
                &[Value::Int(1), Value::Int(4)],
            )
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Int(1)); // shortcut
        assert_eq!(t.row(0)[1], Value::Int(3)); // 1+1+1 detour
    });
}

#[test]
fn constant_weight_scales_hop_count() {
    sweep(&CHAIN, |run| {
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(x: 7) AS c WHERE ? REACHES ? OVER e x EDGE (s, d)",
                &[Value::Int(1), Value::Int(3)],
            )
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Int(14)); // 2 hops * 7
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(x: 2.5) AS c WHERE ? REACHES ? OVER e x EDGE (s, d)",
                &[Value::Int(1), Value::Int(3)],
            )
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Double(5.0));
    });
}

#[test]
fn expression_weights_are_evaluated_per_edge() {
    sweep(&CHAIN, |run| {
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(x: w * w) AS c WHERE ? REACHES ? OVER e x EDGE (s, d)",
                &[Value::Int(1), Value::Int(4)],
            )
            .unwrap();
        // Detour: 1+1+1 = 3; shortcut: 100. Detour wins.
        assert_eq!(t.row(0)[0], Value::Int(3));
    });
}

#[test]
fn float_weights_use_float_costs() {
    let setup = [
        "CREATE TABLE e (s INTEGER, d INTEGER, w DOUBLE)",
        "INSERT INTO e VALUES (1, 2, 0.25), (2, 3, 0.5)",
    ];
    sweep(&setup, |run| {
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(x: w) AS c WHERE ? REACHES ? OVER e x EDGE (s, d)",
                &[Value::Int(1), Value::Int(3)],
            )
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Double(0.75));
    });
}

#[test]
fn zero_and_negative_weights_rejected_at_runtime() {
    sweep(&CHAIN, |run| {
        for bad in ["0", "-1", "w - 1"] {
            let err = run
                .query_with_params(
                    &format!(
                        "SELECT CHEAPEST SUM(x: {bad}) WHERE ? REACHES ? OVER e x EDGE (s, d)"
                    ),
                    &[Value::Int(1), Value::Int(2)],
                )
                .unwrap_err();
            assert!(err.to_string().contains("strictly greater than 0"), "weight {bad}: {err}");
        }
    });
}

#[test]
fn null_weight_rejected() {
    let setup = [
        "CREATE TABLE e (s INTEGER, d INTEGER, w INTEGER)",
        "INSERT INTO e VALUES (1, 2, 1), (2, 3, NULL)",
    ];
    sweep(&setup, |run| {
        let err = run
            .query_with_params(
                "SELECT CHEAPEST SUM(x: w) WHERE ? REACHES ? OVER e x EDGE (s, d)",
                &[Value::Int(1), Value::Int(3)],
            )
            .unwrap_err();
        assert!(err.to_string().contains("NULL"), "{err}");
    });
}

#[test]
fn ties_return_exactly_one_path() {
    // Two equally cheap paths 1->2->4 and 1->3->4: the function "always
    // picks and returns one of the suitable alternatives".
    let setup = [
        "CREATE TABLE e (s INTEGER, d INTEGER)",
        "INSERT INTO e VALUES (1, 2), (1, 3), (2, 4), (3, 4)",
    ];
    sweep(&setup, |run| {
        let t = run
            .query_with_params(
                "SELECT T.cost, R.s, R.d FROM (
                   SELECT CHEAPEST SUM(x: 1) AS (cost, path)
                   WHERE ? REACHES ? OVER e x EDGE (s, d)
                 ) T, UNNEST(T.path) AS R ORDER BY R.s",
                &[Value::Int(1), Value::Int(4)],
            )
            .unwrap();
        assert_eq!(t.row_count(), 2); // one path of two edges, not both paths
        assert_eq!(t.row(0)[0], Value::Int(2));
        // The two edges must chain 1 -> m -> 4 for one middle vertex m.
        let mid = t.row(0)[2].as_int().unwrap();
        assert!(mid == 2 || mid == 3);
        assert_eq!(t.row(1)[1].as_int().unwrap(), mid);
    });
}

#[test]
fn graph_snapshot_isolated_from_later_dml() {
    // A query's path values reference the edge snapshot taken at execution
    // time; mutating the table afterwards must not change materialized
    // results (MonetDB-style full materialization).
    sweep(&CHAIN, |run| {
        let before = run
            .query_with_params(
                "SELECT T.cost, R.s, R.d FROM (
                   SELECT CHEAPEST SUM(x: w) AS (cost, path)
                   WHERE ? REACHES ? OVER e x EDGE (s, d)
                 ) T, UNNEST(T.path) AS R",
                &[Value::Int(1), Value::Int(4)],
            )
            .unwrap();
        run.session().execute("DELETE FROM e").unwrap();
        // The previously returned table still holds the original rows.
        assert_eq!(before.row_count(), 3);
        assert_eq!(before.row(0)[1], Value::Int(1));
        // And a fresh query sees the empty graph.
        assert_eq!(q13(run, 1, 4), None);
    });
}

#[test]
fn graph_index_matches_inline_construction() {
    sweep(&CHAIN, |run| {
        let without: Vec<Option<i64>> = (1..=4).map(|d| q13(run, 1, d)).collect();
        run.session().execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
        let with: Vec<Option<i64>> = (1..=4).map(|d| q13(run, 1, d)).collect();
        assert_eq!(without, with);
        // The index only matches its exact (table, src, dst) configuration;
        // the reversed query must still be correct (built inline).
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (d, s)",
                &[Value::Int(2), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Int(1));
    });
}

#[test]
fn indexed_bidirectional_path_equals_unindexed_results() {
    // With a graph index, single-pair unweighted queries take the
    // bidirectional-BFS fast path; every answer (cost, path validity,
    // reachability) must be identical to the unindexed run.
    let mut edges = String::from("INSERT INTO e VALUES ");
    // A lattice with some extra chords.
    for v in 0..40 {
        edges.push_str(&format!("({v}, {}), ", v + 1));
        if v % 7 == 0 {
            edges.push_str(&format!("({v}, {}), ", (v + 13) % 41));
        }
    }
    edges.push_str("(40, 0)");
    let setup = ["CREATE TABLE e (s INTEGER, d INTEGER)".to_string(), edges];

    let q = "SELECT T.c, R.s, R.d FROM (
               SELECT CHEAPEST SUM(x: 1) AS (c, p)
               WHERE ? REACHES ? OVER e x EDGE (s, d)
             ) T, UNNEST(T.p) AS R";
    let pairs: Vec<(i64, i64)> = (0..25).map(|i| ((i * 3) % 41, (i * 17) % 41)).collect();
    sweep(&setup, |run| {
        let mut before = Vec::new();
        for &(s, d) in &pairs {
            let t = run.query_with_params(q, &[Value::Int(s), Value::Int(d)]).unwrap();
            // Record (rows, cost, endpoints chain validity).
            let cost = if t.is_empty() { None } else { t.row(0)[0].as_int() };
            before.push((t.row_count(), cost));
            // Path chains correctly.
            let mut at = s;
            for row in t.rows() {
                assert_eq!(row[1].as_int(), Some(at));
                at = row[2].as_int().unwrap();
            }
        }
        run.session().execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let t = run.query_with_params(q, &[Value::Int(s), Value::Int(d)]).unwrap();
            let cost = if t.is_empty() { None } else { t.row(0)[0].as_int() };
            assert_eq!((t.row_count(), cost), before[i], "pair ({s},{d})");
            let mut at = s;
            for row in t.rows() {
                assert_eq!(row[1].as_int(), Some(at), "pair ({s},{d})");
                at = row[2].as_int().unwrap();
            }
            if !t.is_empty() {
                assert_eq!(at, d, "pair ({s},{d})");
            }
        }
    });
}

#[test]
fn empty_edge_table_yields_no_vertices() {
    sweep(&["CREATE TABLE e (s INTEGER, d INTEGER)"], |run| {
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
                &[Value::Int(1), Value::Int(1)],
            )
            .unwrap();
        // Even x = y needs x to be a vertex; the empty graph has none.
        assert_eq!(t.row_count(), 0);
    });
}

#[test]
fn null_endpoints_in_edges_are_ignored() {
    let setup = [
        "CREATE TABLE e (s INTEGER, d INTEGER)",
        "INSERT INTO e VALUES (1, 2), (NULL, 3), (2, NULL), (2, 3)",
    ];
    sweep(&setup, |run| {
        let t = run
            .query_with_params(
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
                &[Value::Int(1), Value::Int(3)],
            )
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Int(2)); // via the (2,3) edge
    });
}

#[test]
fn null_source_or_dest_filtered_out() {
    sweep(&CHAIN, |run| {
        run.session().execute("CREATE TABLE probes (a INTEGER, b INTEGER)").unwrap();
        run.session().execute("INSERT INTO probes VALUES (1, 3), (NULL, 3), (1, NULL)").unwrap();
        let t = run
            .query(
                "SELECT probes.a, probes.b, CHEAPEST SUM(1) AS c FROM probes
                 WHERE probes.a REACHES probes.b OVER e EDGE (s, d)",
            )
            .unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.row(0)[0], Value::Int(1));
    });
}

#[test]
fn big_batch_grouping_is_consistent() {
    // Many pairs sharing few sources: batch answers must equal singles.
    let mut edges = String::from("INSERT INTO e VALUES ");
    // A binary-ish tree over 63 nodes.
    for v in 1..32 {
        edges.push_str(&format!("({v}, {}), ({v}, {}), ", 2 * v, 2 * v + 1));
    }
    edges.push_str("(63, 1)");
    let setup = ["CREATE TABLE e (s INTEGER, d INTEGER)".to_string(), edges];

    let values: Vec<String> =
        (0..40).map(|i| format!("({}, {})", 1 + i % 3, 1 + (i * 7) % 63)).collect();
    let values = values.join(", ");
    sweep(&setup, |run| {
        let batch = run
            .query(&format!(
                "WITH pairs (a, b) AS (VALUES {values})
                 SELECT pairs.a, pairs.b, CHEAPEST SUM(1) AS c FROM pairs
                 WHERE pairs.a REACHES pairs.b OVER e EDGE (s, d)"
            ))
            .unwrap();
        for row in batch.rows() {
            let (a, b, c) = (row[0].as_int().unwrap(), row[1].as_int().unwrap(), row[2].clone());
            let single = run
                .query_with_params(
                    "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
                    &[Value::Int(a), Value::Int(b)],
                )
                .unwrap();
            assert_eq!(single.row(0)[0], c, "pair ({a},{b})");
        }
    });
}

/// The statement that reads a seeded history's next answer.
fn history_read(rng: &mut rand::rngs::StdRng, domain: i64) -> String {
    use rand::Rng;
    let (a, b) = (rng.gen_range(0..domain), rng.gen_range(0..domain));
    let pairs: Vec<String> = (0..rng.gen_range(2..6))
        .map(|_| format!("({}, {})", rng.gen_range(0..domain), rng.gen_range(0..domain)))
        .collect();
    let batch = |spec: &str| {
        format!(
            "WITH pairs (x, y) AS (VALUES {}) SELECT pairs.x, pairs.y, {spec} FROM pairs \
             WHERE pairs.x REACHES pairs.y OVER e f EDGE (s, d)",
            pairs.join(", ")
        )
    };
    match rng.gen_range(0..5) {
        // A graph-index read: bidirectional BFS over the reverse CSR.
        0 => format!("SELECT CHEAPEST SUM(1) AS c WHERE {a} REACHES {b} OVER e EDGE (s, d)"),
        // The landmark layer: point-to-point ALT.
        1 => format!("SELECT CHEAPEST SUM(f: f.w) AS c WHERE {a} REACHES {b} OVER e f EDGE (s, d)"),
        // A path: Dijkstra over the graph index.
        2 => format!(
            "SELECT CHEAPEST SUM(f: f.w) AS (c, p) WHERE {a} REACHES {b} OVER e f EDGE (s, d)"
        ),
        3 => batch("CHEAPEST SUM(1) AS c"),
        _ => batch("CHEAPEST SUM(f: f.w) AS c"),
    }
}

/// The statement that makes a seeded history's next write: one row or a
/// few, over a vertex domain that grows (so new vertices keep arriving),
/// with duplicate edges, self-loops and NULL endpoints; or a `DELETE` or an
/// `UPDATE`.
fn history_write(rng: &mut rand::rngs::StdRng, domain: i64) -> String {
    use rand::Rng;
    let end = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..12) {
        0 => "NULL".to_string(),
        _ => rng.gen_range(0..domain).to_string(),
    };
    let row = |rng: &mut rand::rngs::StdRng| {
        let s = end(rng);
        let d = if rng.gen_range(0..8) == 0 { s.clone() } else { end(rng) };
        format!("({s}, {d}, {})", rng.gen_range(1..9))
    };
    match rng.gen_range(0..10) {
        0 => format!("DELETE FROM e WHERE s = {}", rng.gen_range(0..domain)),
        1 => format!(
            "UPDATE e SET d = {} WHERE s = {}",
            rng.gen_range(0..domain),
            rng.gen_range(0..domain)
        ),
        2..=4 => {
            let rows: Vec<String> = (0..rng.gen_range(2..6)).map(|_| row(rng)).collect();
            format!("INSERT INTO e VALUES {}", rows.join(", "))
        }
        _ => format!("INSERT INTO e VALUES {}", row(rng)),
    }
}

/// Seeded histories of writes and reads over a table with a graph index
/// and a `LANDMARKS` path index, most writes appends. After every read the
/// answer equals a fresh unindexed database's over the same rows, and every
/// graph an index holds for the table's current version — built, shared or
/// extended — is the graph `build_graph` makes of the current snapshot:
/// the same dictionary and both CSRs slot for slot. In the durable
/// configurations the path index's graph is restored from the snapshot and
/// first extended by the WAL's rows.
#[test]
fn served_graphs_equal_a_fresh_build_after_every_write() {
    use gsql::engine::build_graph;
    use gsql::{Database, IndexSpace};
    use rand::SeedableRng;

    let setup = [
        "CREATE TABLE e (s INTEGER, d INTEGER, w INTEGER NOT NULL)",
        "INSERT INTO e VALUES (1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 4, 5), (4, 4, 1)",
        "CREATE PATH INDEX pl ON e EDGE (s, d) WEIGHT w USING LANDMARKS(2)",
        "CREATE GRAPH INDEX gi ON e EDGE (s, d)",
        "INSERT INTO e VALUES (4, 5, 2), (NULL, 1, 1)",
        "INSERT INTO e VALUES (5, 1, 4)",
    ];
    sweep(&setup, |run| {
        let db = run.db();
        for seed in 0..3u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_0000 + seed);
            for step in 0..40 {
                let domain = 6 + step / 4;
                if rand::Rng::gen_range(&mut rng, 0..5) < 2 {
                    run.session().execute(&history_write(&mut rng, domain)).unwrap();
                    continue;
                }
                let sql = history_read(&mut rng, domain);
                let got = run.query(&sql);
                let snapshot = db.catalog().get("e").unwrap();
                let fresh = Database::new();
                fresh.execute("CREATE TABLE e (s INTEGER, d INTEGER, w INTEGER NOT NULL)").unwrap();
                if !snapshot.is_empty() {
                    let row = |r: Vec<Value>| format!("({}, {}, {})", r[0], r[1], r[2]);
                    let rows: Vec<String> = snapshot.rows().map(row).collect();
                    fresh.execute(&format!("INSERT INTO e VALUES {}", rows.join(", "))).unwrap();
                }
                let what = format!("seed {seed} step {step}: {sql}");
                assert_eq!(common::answer(&got), common::answer(&fresh.query(&sql)), "{what}");

                let built = build_graph(snapshot, 0, 1).unwrap();
                let served: Vec<_> = [(IndexSpace::Graph, "gi"), (IndexSpace::Path, "pl")]
                    .into_iter()
                    .filter_map(|(space, name)| db.indexes().graph(space, name))
                    .collect();
                assert!(!served.is_empty(), "the read was served by an index: {what}");
                for graph in served {
                    assert_eq!(graph.vertices(), built.vertices(), "{what}");
                    assert_eq!(graph.csr.raw_parts(), built.csr.raw_parts(), "{what}");
                    assert_eq!(graph.reverse().raw_parts(), built.reverse().raw_parts(), "{what}");
                    assert_eq!(graph.edges.row_count(), built.edges.row_count(), "{what}");
                }
            }
        }
        let m = db.metrics();
        assert!(m.graph_builds_total("extension") > 0, "appends extended the graph");
        let rebuilds = m.graph_builds_total("graph_index") + m.graph_builds_total("path_index");
        assert!(rebuilds > 2, "deletes and updates rebuilt it: {rebuilds}");
    });
}
