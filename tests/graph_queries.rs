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
