//! The native graph operator against the paper's §1 "customary methods",
//! run as real SQL through gsql on randomized graphs.
//!
//! Each method is a client-driven statement loop over gsql's own tables —
//! the PSM (stored procedure) analogue — built only from statements the
//! engine already has:
//!
//! * **semi-naive BFS** by level: each level is one `INSERT … SELECT` that
//!   joins the last level with the edge table and anti-joins
//!   (`LEFT JOIN … IS NULL`) the visited table;
//! * **the chain of joins**: one `COUNT(*)` over a `k`-way self-join of the
//!   edge table for `k = 1, 2, …`, its blow-up capped by `row_limit`;
//! * **frontier-expand-merge** (FEM; Gao et al., "Relational Approach for
//!   Shortest Path Discovery over Large Graphs"): the frontier is every
//!   open vertex at the `MIN` distance, the expansion takes one `MIN` per
//!   reached vertex, and a `GROUP BY` merges it into the visited table.
//!
//! Weighted `CHEAPEST SUM` is also checked against Floyd–Warshall in Rust.

use gsql::{Database, Session, Table, Value};
use rand::prelude::*;
use rand::rngs::SmallRng;
use std::collections::HashMap;

fn random_db(rng: &mut SmallRng, n_vertices: i64, n_edges: usize) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL)").unwrap();
    let mut script = String::from("INSERT INTO e VALUES ");
    for i in 0..n_edges {
        if i > 0 {
            script.push_str(", ");
        }
        script.push_str(&format!(
            "({}, {})",
            rng.gen_range(1..=n_vertices),
            rng.gen_range(1..=n_vertices)
        ));
    }
    db.execute(&script).unwrap();
    db
}

fn native_distance(db: &Database, s: i64, d: i64) -> Option<i64> {
    let t = db
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

/// Run one statement of a loop; returns the rows it changed.
fn run(session: &Session<'_>, sql: &str, params: &[i64]) -> usize {
    let params: Vec<Value> = params.iter().map(|&p| Value::Int(p)).collect();
    match session.execute_with_params(sql, &params) {
        Ok(gsql::QueryResult::Affected(n)) => n,
        Ok(other) => panic!("{sql}: {other:?}"),
        Err(e) => panic!("{sql}: {e}"),
    }
}

/// `(vertex, distance)` rows as a map.
fn distances(t: &Table) -> HashMap<i64, i64> {
    t.rows().map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap())).collect()
}

/// Seeds a loop's visited table with `(s, 0, …)` when `s` is a vertex of
/// `e` (the paper's semantics: both endpoints must be vertices).
const SEED_SOURCE: &str = "SELECT DISTINCT v, 0 FROM \
                           (SELECT s AS v FROM e UNION ALL SELECT d AS v FROM e) AS vs \
                           WHERE v = ?";

/// Hop distance from `s` to every vertex it reaches, by semi-naive
/// evaluation: level `k + 1` is the edges leaving level `k` into vertices
/// not yet visited, one `INSERT … SELECT` per level, until a level adds
/// nothing.
fn seminaive_levels(session: &Session<'_>, s: i64) -> HashMap<i64, i64> {
    run(session, "DELETE FROM visited", &[]);
    run(session, &format!("INSERT INTO visited {SEED_SOURCE}"), &[s]);
    for level in 0.. {
        let added = run(
            session,
            "INSERT INTO visited \
             SELECT DISTINCT e.d, f.lvl + 1 FROM visited f JOIN e ON e.s = f.v \
             LEFT JOIN visited x ON x.v = e.d \
             WHERE f.lvl = ? AND x.v IS NULL",
            &[level],
        );
        if added == 0 {
            break;
        }
    }
    distances(&session.query("SELECT v, lvl FROM visited").unwrap())
}

/// Hop distance from `s` to `d` by chains of joins: `k = 0` is `s = d` on
/// a vertex, and `k ≥ 1` counts the rows of the `k`-way self-join
/// `e1 ⋈ … ⋈ ek` from `s` to `d`; the first `k < max_k` with a row is the
/// distance. `Err` when a join outgrows the session's `row_limit`.
fn chain_distance(
    session: &Session<'_>,
    s: i64,
    d: i64,
    max_k: usize,
) -> Result<Option<i64>, String> {
    let count = |sql: &str, params: &[i64]| -> Result<i64, String> {
        let params: Vec<Value> = params.iter().map(|&p| Value::Int(p)).collect();
        let t = session.query_with_params(sql, &params).map_err(|e| e.to_string())?;
        Ok(t.row(0)[0].as_int().unwrap())
    };
    if s == d {
        let on_edges = count("SELECT COUNT(*) FROM e WHERE s = ? OR d = ?", &[s, s])?;
        return Ok((on_edges > 0).then_some(0));
    }
    for k in 1..max_k {
        let mut sql = String::from("SELECT COUNT(*) FROM e e1");
        for j in 2..=k {
            sql.push_str(&format!(" JOIN e e{j} ON e{j}.s = e{}.d", j - 1));
        }
        sql.push_str(&format!(" WHERE e1.s = ? AND e{k}.d = ?"));
        if count(&sql, &[s, d])? > 0 {
            return Ok(Some(k as i64));
        }
    }
    Ok(None)
}

/// Cheapest `SUM(w)` from `s` to every vertex it reaches, by Gao et al.'s
/// frontier-expand-merge loop. `visited.f` is 0 for an open vertex, 1 for
/// the frontier and 2 for a closed one.
fn fem_distances(session: &Session<'_>, s: i64) -> HashMap<i64, i64> {
    run(session, "DELETE FROM visited", &[]);
    run(session, &format!("INSERT INTO visited {}", SEED_SOURCE.replace("v, 0", "v, 0, 0")), &[s]);
    loop {
        // F: every open vertex at the least distance.
        let least = session.query("SELECT MIN(dist) FROM visited WHERE f = 0").unwrap();
        let Some(least) = least.row(0)[0].as_int() else { break };
        run(session, "UPDATE visited SET f = 1 WHERE f = 0 AND dist = ?", &[least]);
        // E: one candidate per vertex the frontier reaches, its least cost.
        run(
            session,
            "INSERT INTO visited \
             SELECT e.d, MIN(x.dist + e.w), 0 FROM visited x JOIN e ON e.s = x.v \
             WHERE x.f = 1 GROUP BY e.d",
            &[],
        );
        run(session, "UPDATE visited SET f = 2 WHERE f = 1", &[]);
        // M: one row per vertex. Weights are positive, so a closed vertex
        // keeps its distance and stays closed.
        run(session, "INSERT INTO merged SELECT v, MIN(dist), MAX(f) FROM visited GROUP BY v", &[]);
        run(session, "DELETE FROM visited", &[]);
        run(session, "INSERT INTO visited SELECT * FROM merged", &[]);
        run(session, "DELETE FROM merged", &[]);
    }
    distances(&session.query("SELECT v, dist FROM visited").unwrap())
}

#[test]
fn native_equals_seminaive_on_random_graphs() {
    let mut rng = SmallRng::seed_from_u64(99);
    for round in 0..15 {
        let n: i64 = rng.gen_range(2..25);
        let m: usize = rng.gen_range(1..80);
        let db = random_db(&mut rng, n, m);
        db.execute("CREATE TABLE visited (v INTEGER, lvl INTEGER)").unwrap();
        let session = db.session();
        let mut by_source: HashMap<i64, HashMap<i64, i64>> = HashMap::new();
        for _ in 0..12 {
            let s = rng.gen_range(1..=n);
            let d = rng.gen_range(1..=n);
            let native = native_distance(&db, s, d);
            let levels = by_source.entry(s).or_insert_with(|| seminaive_levels(&session, s));
            assert_eq!(native, levels.get(&d).copied(), "round {round}: pair ({s},{d})");
        }
    }
}

#[test]
fn native_equals_khop_within_bound() {
    let mut rng = SmallRng::seed_from_u64(123);
    let (mut checked, mut capped) = (0, 0);
    for _ in 0..8 {
        let n: i64 = rng.gen_range(2..12);
        let m: usize = rng.gen_range(1..25);
        let db = random_db(&mut rng, n, m);
        let session = db.session();
        session.set("row_limit", "20000").unwrap();
        for _ in 0..8 {
            let s = rng.gen_range(1..=n);
            let d = rng.gen_range(1..=n);
            let native = native_distance(&db, s, d);
            // Chains up to n hops cover every simple shortest path.
            match chain_distance(&session, s, d, n as usize + 1) {
                Ok(reference) => {
                    assert_eq!(native, reference, "pair ({s},{d})");
                    checked += 1;
                }
                // Combinatorial blow-up is the method's documented failure
                // mode; `row_limit` stops it.
                Err(e) => {
                    assert!(e.contains("row_limit"), "{e}");
                    capped += 1;
                }
            }
        }
    }
    assert!(checked > 4 * capped, "{checked} pairs checked, {capped} capped");

    // The failure mode itself: over a complete bidirectional triangle the
    // walks double with every join, and `row_limit` stops the chain.
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL);
         INSERT INTO e VALUES (1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1);",
    )
    .unwrap();
    let session = db.session();
    session.set("row_limit", "1000").unwrap();
    assert!(chain_distance(&session, 1, 99, 64).unwrap_err().contains("row_limit"));
}

#[test]
#[allow(clippy::needless_range_loop)]
fn weighted_native_matches_brute_force() {
    // Floyd–Warshall and the FEM loop on small weighted graphs, every pair.
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..10 {
        let n: usize = rng.gen_range(2..10);
        let m: usize = rng.gen_range(1..30);
        let db = Database::new();
        db.execute("CREATE TABLE e (s INTEGER, d INTEGER, w INTEGER)").unwrap();
        let mut dist = vec![vec![i64::MAX; n + 1]; n + 1];
        let mut script = String::from("INSERT INTO e VALUES ");
        for i in 0..m {
            let s = rng.gen_range(1..=n);
            let d = rng.gen_range(1..=n);
            let w = rng.gen_range(1..20i64);
            if i > 0 {
                script.push_str(", ");
            }
            script.push_str(&format!("({s}, {d}, {w})"));
            dist[s][d] = dist[s][d].min(w);
        }
        db.execute(&script).unwrap();
        for v in 1..=n {
            dist[v][v] = 0;
        }
        for k in 1..=n {
            for i in 1..=n {
                for j in 1..=n {
                    if dist[i][k] != i64::MAX && dist[k][j] != i64::MAX {
                        dist[i][j] = dist[i][j].min(dist[i][k] + dist[k][j]);
                    }
                }
            }
        }
        let edges = db.catalog().get("e").unwrap();
        let is_vertex = |v: usize| {
            (0..edges.row_count()).any(|i| {
                edges.row(i)[0].as_int() == Some(v as i64)
                    || edges.row(i)[1].as_int() == Some(v as i64)
            })
        };
        db.execute_script(
            "CREATE TABLE visited (v INTEGER, dist INTEGER, f INTEGER);
             CREATE TABLE merged (v INTEGER, dist INTEGER, f INTEGER);",
        )
        .unwrap();
        let session = db.session();
        for s in 1..=n {
            let fem = fem_distances(&session, s as i64);
            for d in 1..=n {
                let t = db
                    .query_with_params(
                        "SELECT CHEAPEST SUM(x: w) WHERE ? REACHES ? OVER e x EDGE (s, d)",
                        &[Value::Int(s as i64), Value::Int(d as i64)],
                    )
                    .unwrap();
                let native = if t.is_empty() { None } else { t.row(0)[0].as_int() };
                let expected = if is_vertex(s) && is_vertex(d) && dist[s][d] != i64::MAX {
                    Some(dist[s][d])
                } else {
                    None
                };
                assert_eq!(native, expected, "pair ({s},{d})");
                assert_eq!(fem.get(&(d as i64)).copied(), expected, "FEM, pair ({s},{d})");
            }
        }
    }
}
