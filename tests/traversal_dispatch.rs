//! Generated-input differential test of the traversal dispatcher: every
//! rule it documents — accelerated point search, accelerated many-to-many,
//! Dijkstra, bidirectional BFS, batched BFS over an indexed or an ad-hoc
//! graph — is reached on random digraphs, and every answer is checked
//! against an in-test Dijkstra oracle.
//!
//! Inputs: random digraphs with positive integer weights, parallel edges,
//! self-loops and two disconnected parts, queried with duplicate, self and
//! absent-vertex pairs. Alternate graphs key their vertices by VARCHAR
//! (`'v<id>'`) instead of INTEGER, so both vertex-dictionary arms are
//! reached. Each graph is swept over seven index setups (a hop CONTRACTION
//! index created with the tables — checkpointed and restored by the durable
//! configurations — then none, a graph index, hop and weighted LANDMARKS,
//! weighted CONTRACTION, and a graph index next to a hop CONTRACTION
//! index) × three shapes
//! (point, a multi-pair `VALUES` batch, a two-table `GraphJoin`) × six
//! select lists, in every configuration of the shared sweep (threads,
//! morsel size, in memory or durable). Checks: the
//! rows are exactly the reachable pairs, each cost is the oracle's, each
//! returned path is a real path of that cost, and the `traversal` span
//! names the kind and reason the dispatcher documents for that shape.

mod common;

use common::{answer, find_span, sweep};
use gsql::Value;
use gsql_server::json::{self, Json};
use rand::prelude::*;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Vertex ids live in two disconnected parts: `0..SPLIT` and
/// `SPLIT..2*SPLIT`, spread out so they are not dense.
const SPLIT: i64 = 8;
/// An id that is never a vertex.
const ABSENT: i64 = 999;

fn vertex_id(v: i64) -> i64 {
    v * 7 + 3
}

/// How a graph spells its vertex ids: as INTEGER keys, or as VARCHAR keys
/// `'v<id>'`.
#[derive(Debug, Clone, Copy)]
enum Keys {
    Int,
    Varchar,
}

impl Keys {
    fn sql_type(self) -> &'static str {
        match self {
            Keys::Int => "INTEGER",
            Keys::Varchar => "VARCHAR",
        }
    }

    fn value(self, id: i64) -> Value {
        match self {
            Keys::Int => Value::Int(id),
            Keys::Varchar => Value::Str(format!("v{id}")),
        }
    }

    fn literal(self, id: i64) -> String {
        match self {
            Keys::Int => id.to_string(),
            Keys::Varchar => format!("'v{id}'"),
        }
    }
}

/// The vertex id a key value spells.
fn id_of(key: &Value) -> i64 {
    match key {
        Value::Int(id) => *id,
        Value::Str(s) => s[1..].parse().expect("a 'v<id>' key"),
        other => panic!("not a vertex key: {other:?}"),
    }
}

/// One random edge table: `(s, d, w)` rows.
fn random_edges(rng: &mut SmallRng) -> Vec<(i64, i64, i64)> {
    let m = rng.gen_range(1..=3 * SPLIT as usize);
    (0..m)
        .map(|_| {
            // Each edge stays inside one part; some are self-loops, and
            // the small vertex count makes parallel edges common.
            let part = if rng.gen_bool(0.5) { 0 } else { SPLIT };
            let s = part + rng.gen_range(0..SPLIT);
            let d = if rng.gen_bool(0.1) { s } else { part + rng.gen_range(0..SPLIT) };
            (vertex_id(s), vertex_id(d), rng.gen_range(1..=9i64))
        })
        .collect()
}

/// Endpoint values drawn from the vertex ids of both parts plus one absent
/// id.
fn random_endpoint(rng: &mut SmallRng) -> i64 {
    if rng.gen_bool(0.1) {
        ABSENT
    } else {
        vertex_id(rng.gen_range(0..2 * SPLIT))
    }
}

/// Plain Dijkstra over the edge list (`hops` ignores the weights); `None`
/// when `d` is unreachable from `s`. Endpoints must be vertices.
fn oracle(edges: &[(i64, i64, i64)], s: i64, d: i64, hops: bool) -> Option<i64> {
    let mut dist = std::collections::BTreeMap::from([(s, 0i64)]);
    let mut frontier = BTreeSet::from([(0i64, s)]);
    while let Some((du, u)) = frontier.pop_first() {
        if u == d {
            return Some(du);
        }
        for &(_, b, w) in edges.iter().filter(|e| e.0 == u) {
            let nd = du + if hops { 1 } else { w };
            if dist.get(&b).is_none_or(|&old| nd < old) {
                if let Some(old) = dist.insert(b, nd) {
                    frontier.remove(&(old, b));
                }
                frontier.insert((nd, b));
            }
        }
    }
    None
}

/// The indexes a sweep runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Setup {
    None,
    Graph,
    Path {
        ch: bool,
        weighted: bool,
    },
    /// A graph index plus a hop CONTRACTION index: specs the path index does
    /// not cover fall back to the graph index.
    Both,
}

/// The setup whose index the database setup creates: a durable database
/// checkpoints it with the edge table and restores it on reopen, so its
/// first queries read the persisted dictionary. It runs first.
const RESTORED: Setup = Setup::Path { ch: true, weighted: false };

impl Setup {
    const ALL: [Setup; 7] = [
        RESTORED,
        Setup::None,
        Setup::Graph,
        Setup::Path { ch: false, weighted: false },
        Setup::Path { ch: false, weighted: true },
        Setup::Path { ch: true, weighted: true },
        Setup::Both,
    ];

    /// The `CREATE` statements of this setup, and the matching `DROP`s.
    fn ddl(self) -> (Vec<String>, Vec<&'static str>) {
        let graph = "CREATE GRAPH INDEX gx ON e EDGE (s, d)".to_string();
        let path = |ch: bool, weighted: bool| {
            format!(
                "CREATE PATH INDEX px ON e EDGE (s, d){} USING {}",
                if weighted { " WEIGHT w" } else { "" },
                if ch { "CONTRACTION" } else { "LANDMARKS(3)" }
            )
        };
        match self {
            Setup::None => (vec![], vec![]),
            Setup::Graph => (vec![graph], vec!["DROP GRAPH INDEX gx"]),
            Setup::Path { ch, weighted } => (vec![path(ch, weighted)], vec!["DROP PATH INDEX px"]),
            Setup::Both => {
                (vec![graph, path(true, false)], vec!["DROP GRAPH INDEX gx", "DROP PATH INDEX px"])
            }
        }
    }

    /// The path index's layer, if the setup has one.
    fn layer(self) -> Option<(bool, bool)> {
        match self {
            Setup::Path { ch, weighted } => Some((ch, weighted)),
            Setup::Both => Some((true, false)),
            Setup::None | Setup::Graph => None,
        }
    }
}

/// The select list of one statement.
#[derive(Debug, Clone, Copy)]
enum Spec {
    Reach,
    Hops,
    Scaled,
    Weighted,
    HopsPath,
    WeightedPath,
}

impl Spec {
    const ALL: [Spec; 6] =
        [Spec::Reach, Spec::Hops, Spec::Scaled, Spec::Weighted, Spec::HopsPath, Spec::WeightedPath];

    fn columns(self) -> &'static str {
        match self {
            Spec::Reach => "",
            Spec::Hops => ", CHEAPEST SUM(1) AS c",
            Spec::Scaled => ", CHEAPEST SUM(3) AS c",
            Spec::Weighted => ", CHEAPEST SUM(f: f.w) AS c",
            Spec::HopsPath => ", CHEAPEST SUM(1) AS (c, p)",
            Spec::WeightedPath => ", CHEAPEST SUM(f: f.w) AS (c, p)",
        }
    }

    fn weighted(self) -> bool {
        matches!(self, Spec::Weighted | Spec::WeightedPath)
    }

    /// The oracle cost of a reachable pair, `None` for the bare probe.
    fn cost(self, edges: &[(i64, i64, i64)], s: i64, d: i64) -> Option<i64> {
        let scale = if matches!(self, Spec::Scaled) { 3 } else { 1 };
        match self {
            Spec::Reach => None,
            _ => oracle(edges, s, d, !self.weighted()).map(|c| c * scale),
        }
    }

    /// Whether the layer of `setup` covers this spec: no path, and a
    /// constant over a hop index or the weight column over a weighted one.
    /// The bare probe has no spec, so any layer covers it.
    fn covered_by(self, setup: Setup) -> bool {
        match (self, setup.layer()) {
            (Spec::Reach, Some(_)) => true,
            (Spec::Hops | Spec::Scaled, Some((_, weighted))) => !weighted,
            (Spec::Weighted, Some((_, weighted))) => weighted,
            _ => false,
        }
    }
}

/// The `(kind, reason)` the dispatcher documents for this shape.
fn expected_kind(setup: Setup, spec: Spec, pairs: usize) -> (&'static str, &'static str) {
    let layer = spec.covered_by(setup);
    // One pair with no per-edge weight skips an ALT layer for bidirectional
    // BFS; a CH layer keeps its point search.
    let hop_point = pairs == 1 && !spec.weighted();
    if let (true, Some((ch, _)), 1..) = (layer, setup.layer(), pairs) {
        let kind = match (ch, pairs == 1) {
            (false, true) if hop_point => "bidir-bfs",
            (false, true) => "alt",
            (true, true) => "ch",
            (false, false) => "alt-multi",
            (true, false) => "ch-m2m",
        };
        if kind != "bidir-bfs" {
            return (kind, "path index covers every spec");
        }
    }
    let from_index = layer || matches!(setup, Setup::Graph | Setup::Both);
    match (spec.weighted(), from_index, pairs) {
        (true, _, _) => ("dijkstra", "per-edge weights"),
        (false, true, 1) => ("bidir-bfs", "indexed single pair, hop weights"),
        (false, true, _) => ("bfs", "pair batch, hop weights"),
        (false, false, _) => ("bfs", "ad-hoc graph, hop weights"),
    }
}

/// The `(kind, reason)` of the last statement's `traversal` span.
fn traversal_kind(session: &gsql::Session<'_>) -> (String, String) {
    let doc = json::parse(&session.last_trace_json().expect("traced")).unwrap();
    let span = find_span(doc.as_array().unwrap(), "traversal").expect("a traversal span");
    let attr = |key| {
        let attrs = span.get("attrs").expect("attributes");
        attrs.get(key).and_then(Json::as_str).expect("string attribute").to_string()
    };
    (attr("kind"), attr("reason"))
}

/// Check one result row's spec columns (from `first`) against the oracle:
/// the cost, and that the path is a real `s`→`d` path of that cost.
fn check_row(row: &[Value], first: usize, spec: Spec, edges: &[(i64, i64, i64)], s: i64, d: i64) {
    let Some(want) = spec.cost(edges, s, d) else {
        assert_eq!(row.len(), first, "{spec:?}: the probe adds no columns");
        return;
    };
    assert_eq!(row[first], Value::Int(want), "{spec:?} cost {s} -> {d}");
    let Some(path) = row.get(first + 1) else {
        return;
    };
    let Value::Path(path) = path else { panic!("{spec:?}: not a path: {path:?}") };
    let (mut at, mut cost) = (s, 0);
    for &r in &path.rows {
        let edge = path.edges.row(r as usize);
        let [a, b, Value::Int(w)] = edge.as_slice() else { panic!("edge row {edge:?}") };
        assert_eq!(id_of(a), at, "{spec:?}: path {s} -> {d} is not contiguous");
        at = id_of(b);
        cost += if spec.weighted() { *w } else { 1 };
    }
    assert_eq!((at, cost), (d, want), "{spec:?}: path {s} -> {d} ends wrong or costs wrong");
}

#[test]
fn every_dispatch_rule_matches_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(2017);
    let reached = Mutex::new(BTreeSet::new());
    for graph in 0..30 {
        let keys = if graph % 2 == 0 { Keys::Int } else { Keys::Varchar };
        let key = |id| keys.literal(id);
        let edges = random_edges(&mut rng);
        let vertices: BTreeSet<i64> = edges.iter().flat_map(|&(s, d, _)| [s, d]).collect();
        let is_vertex = |v: i64| vertices.contains(&v);
        let reachable = |s, d| is_vertex(s) && is_vertex(d) && oracle(&edges, s, d, true).is_some();

        let rows: Vec<String> =
            edges.iter().map(|&(s, d, w)| format!("({}, {}, {w})", key(s), key(d))).collect();
        let ty = keys.sql_type();
        let mut setup = vec![
            format!("CREATE TABLE e (s {ty} NOT NULL, d {ty} NOT NULL, w INTEGER NOT NULL)"),
            format!("INSERT INTO e VALUES {}", rows.join(", ")),
        ];
        setup.extend(RESTORED.ddl().0);
        // Point pairs: a self pair, an absent endpoint, and random ones.
        let mut points = vec![(vertex_id(1), vertex_id(1)), (ABSENT, vertex_id(2))];
        points.extend((0..3).map(|_| (random_endpoint(&mut rng), random_endpoint(&mut rng))));
        // The batch repeats a pair and mixes in self and absent pairs.
        let mut batch: Vec<(i64, i64)> =
            (0..8).map(|_| (random_endpoint(&mut rng), random_endpoint(&mut rng))).collect();
        batch.extend([batch[0], (vertex_id(3), vertex_id(3)), (vertex_id(4), ABSENT)]);
        let values: Vec<String> =
            batch.iter().map(|&(a, b)| format!("({}, {})", key(a), key(b))).collect();
        let values = values.join(", ");
        // GraphJoin sides, duplicates and absent ids included.
        let lefts: Vec<i64> = (0..4).map(|_| random_endpoint(&mut rng)).collect();
        let rights: Vec<i64> = (0..4).map(|_| random_endpoint(&mut rng)).collect();
        for (table, ids) in [("lefts", &lefts), ("rights", &rights)] {
            setup.push(format!("CREATE TABLE {table} (id {ty} NOT NULL)"));
            let rows: Vec<String> = ids.iter().map(|&id| format!("({})", key(id))).collect();
            setup.push(format!("INSERT INTO {table} VALUES {}", rows.join(", ")));
        }
        let join_pairs = {
            let distinct = |ids: &[i64]| {
                ids.iter().copied().filter(|&v| is_vertex(v)).collect::<BTreeSet<_>>()
            };
            distinct(&lefts).len() * distinct(&rights).len()
        };
        let batch_pairs = batch.iter().filter(|&&(a, b)| is_vertex(a) && is_vertex(b)).count();

        sweep(&setup, |run| {
            for setup in Setup::ALL {
                let (create, drop) = setup.ddl();
                for ddl in create.iter().filter(|_| setup != RESTORED) {
                    run.session().execute(ddl).unwrap();
                }
                let session = run.new_session();
                session.set("trace", "on").unwrap();
                let ctx =
                    |what: &str, spec: Spec| format!("graph {graph} {setup:?} {what} {spec:?}");
                let check_kind = |spec: Spec, pairs: usize, what: &str| {
                    let want = expected_kind(setup, spec, pairs);
                    let got = traversal_kind(&session);
                    assert_eq!((got.0.as_str(), got.1.as_str()), want, "{}", ctx(what, spec));
                    reached.lock().unwrap().insert(want);
                };
                for spec in Spec::ALL {
                    // Point shape: one pair per statement.
                    let sql = format!(
                        "SELECT 1 AS hit{} WHERE ? REACHES ? OVER e f EDGE (s, d)",
                        spec.columns()
                    );
                    for &(s, d) in &points {
                        let what = ctx(&format!("point ({s}, {d})"), spec);
                        let t = session.query_with_params(&sql, &[keys.value(s), keys.value(d)]);
                        run.record(&what, answer(&t));
                        let t = t.unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(t.row_count(), usize::from(reachable(s, d)), "{what}");
                        if t.row_count() == 1 {
                            check_row(&t.row(0), 1, spec, &edges, s, d);
                        }
                        check_kind(spec, usize::from(is_vertex(s) && is_vertex(d)), "point");
                    }
                    // Multi-pair VALUES batch: surviving pairs in input order.
                    let sql = format!(
                        "WITH pairs (a, b) AS (VALUES {values}) SELECT pairs.a, pairs.b{} \
                         FROM pairs WHERE pairs.a REACHES pairs.b OVER e f EDGE (s, d)",
                        spec.columns()
                    );
                    let t = session.query(&sql);
                    run.record(&ctx("batch", spec), answer(&t));
                    let t = t.unwrap_or_else(|e| panic!("{}: {e}", ctx("batch", spec)));
                    let want: Vec<(i64, i64)> =
                        batch.iter().copied().filter(|&(a, b)| reachable(a, b)).collect();
                    assert_eq!(t.row_count(), want.len(), "{}", ctx("batch", spec));
                    for (i, &(a, b)) in want.iter().enumerate() {
                        let row = t.row(i);
                        assert_eq!(
                            row[..2],
                            [keys.value(a), keys.value(b)],
                            "{}",
                            ctx("batch", spec)
                        );
                        check_row(&row, 2, spec, &edges, a, b);
                    }
                    check_kind(spec, batch_pairs, "batch");
                    // GraphJoin: left rows × right rows, reachable only.
                    let sql = format!(
                        "SELECT l.id, r.id{} FROM lefts l, rights r \
                         WHERE l.id REACHES r.id OVER e f EDGE (s, d)",
                        spec.columns()
                    );
                    if graph == 0 {
                        let plan = session.plan(&sql).unwrap().explain();
                        assert!(plan.contains("GraphJoin"), "not unfolded:\n{plan}");
                    }
                    let t = session.query(&sql);
                    run.record(&ctx("join", spec), answer(&t));
                    let t = t.unwrap_or_else(|e| panic!("{}: {e}", ctx("join", spec)));
                    let want: Vec<(i64, i64)> = lefts
                        .iter()
                        .flat_map(|&a| rights.iter().map(move |&b| (a, b)))
                        .filter(|&(a, b)| reachable(a, b))
                        .collect();
                    assert_eq!(t.row_count(), want.len(), "{}", ctx("join", spec));
                    for (i, &(a, b)) in want.iter().enumerate() {
                        let row = t.row(i);
                        assert_eq!(
                            row[..2],
                            [keys.value(a), keys.value(b)],
                            "{}",
                            ctx("join", spec)
                        );
                        check_row(&row, 2, spec, &edges, a, b);
                    }
                    check_kind(spec, join_pairs, "join");
                }
                for ddl in drop {
                    run.session().execute(ddl).unwrap();
                }
            }
        });
    }
    // Every documented rule was reached, on both accelerators.
    let reached = reached.into_inner().unwrap();
    let kinds: BTreeSet<&str> = reached.iter().map(|(kind, _)| *kind).collect();
    assert_eq!(
        kinds,
        BTreeSet::from(["alt", "alt-multi", "bfs", "bidir-bfs", "ch", "ch-m2m", "dijkstra"]),
        "{reached:?}"
    );
    assert_eq!(reached.len(), 8, "{reached:?}");
}
