//! End-to-end parallel execution: for every query shape the engine
//! parallelizes (graph traversals, filters, hash joins, grouped
//! aggregation, distinct, limit), every configuration of the shared sweep
//! (threads 1 and 4, 7-row and default morsels, in memory and durable) and
//! sessions at two and eight threads must produce identical result tables
//! — `threads = 1` is the engine's exact sequential path, so this pins the
//! parallel runtime to sequential semantics.

mod common;

use common::{render, sweep, Run};
use gsql::{Database, Value};

/// A deterministic pseudo-random database: a layered graph with shortcut
/// edges, weights, and a `people` table for join shapes.
fn setup() -> Vec<String> {
    // xorshift-ish deterministic edge set over 120 vertices.
    let mut x: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let edges: Vec<String> = (0..600)
        .map(|_| {
            let (s, d) = (next() % 120, next() % 120);
            format!("({s}, {d}, {})", next() % 9 + 1)
        })
        .collect();
    let people: Vec<String> = (0..120).map(|id| format!("({id}, {})", id % 7)).collect();
    // Float measurements for aggregate-determinism shapes: values with
    // non-trivial binary fractions so any reordering of a float SUM/AVG
    // would change the bits.
    let m: Vec<String> =
        (0..500).map(|i| format!("({}, {})", i % 11, (i as f64) * 0.1 + 0.003)).collect();
    vec![
        "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)".to_string(),
        "CREATE TABLE people (id INTEGER NOT NULL, grp INTEGER NOT NULL)".to_string(),
        format!("INSERT INTO e VALUES {}", edges.join(", ")),
        format!("INSERT INTO people VALUES {}", people.join(", ")),
        "CREATE TABLE m (k INTEGER NOT NULL, v DOUBLE NOT NULL)".to_string(),
        format!("INSERT INTO m VALUES {}", m.join(", ")),
    ]
}

fn build_db() -> Database {
    common::database(&setup())
}

/// Run every statement of `sqls` in `run`, and again in sessions at two and
/// eight threads with the run's morsel size; all three must agree.
fn run_at_widths(run: &Run<'_>, sqls: &[String]) {
    for sql in sqls {
        let reference = render(&run.query(sql).unwrap());
        for threads in ["2", "8"] {
            let s = run.new_session();
            s.set("threads", threads).unwrap();
            assert_eq!(render(&s.query(sql).unwrap()), reference, "threads {threads}: {sql}");
        }
    }
}

/// The query shapes under test: graph select (unweighted + weighted +
/// path-producing), graph join, hash join, filter fallback, grouped
/// aggregation (hash-partitioned when parallel), distinct, limit/offset,
/// union.
fn queries() -> Vec<String> {
    let mut pair_rows = String::new();
    for i in 0..40 {
        if i > 0 {
            pair_rows.push_str(", ");
        }
        pair_rows.push_str(&format!("({}, {})", (i * 13) % 120, (i * 29 + 7) % 120));
    }
    vec![
        format!(
            "WITH pairs (s, d) AS (VALUES {pair_rows}) \
             SELECT pairs.s, pairs.d, CHEAPEST SUM(1) AS distance \
             FROM pairs WHERE pairs.s REACHES pairs.d OVER e EDGE (s, d)"
        ),
        format!(
            "WITH pairs (s, d) AS (VALUES {pair_rows}) \
             SELECT pairs.s, pairs.d, CHEAPEST SUM(f: f.w) AS cost \
             FROM pairs WHERE pairs.s REACHES pairs.d OVER e f EDGE (s, d)"
        ),
        "SELECT CHEAPEST SUM(1) AS (cost, path) WHERE 0 REACHES 77 OVER e EDGE (s, d)".to_string(),
        "SELECT p1.id, p2.id FROM people p1, people p2 \
         WHERE p1.grp = 0 AND p2.grp = 1 AND p1.id REACHES p2.id OVER e EDGE (s, d)"
            .to_string(),
        "SELECT p1.id, p2.id, p1.grp FROM people p1, people p2 WHERE p1.grp = p2.grp \
         AND p1.id < p2.id ORDER BY p1.id, p2.id"
            .to_string(),
        "SELECT people.id + people.grp FROM people WHERE people.id % 3 = people.grp".to_string(),
        "SELECT e.s % 13 AS g, COUNT(*) AS n, SUM(e.w) AS s, AVG(e.w) AS a \
         FROM e GROUP BY e.s % 13 ORDER BY g"
            .to_string(),
        "SELECT DISTINCT e.s % 10, e.w FROM e".to_string(),
        "SELECT e.s, e.d FROM e ORDER BY e.s, e.d LIMIT 25 OFFSET 100".to_string(),
        "SELECT e.s FROM e UNION SELECT e.d FROM e".to_string(),
    ]
}

#[test]
fn identical_tables_across_thread_counts() {
    sweep(&setup(), |run| run_at_widths(run, &queries()));
}

#[test]
fn graph_index_path_identical_across_thread_counts() {
    let mut setup = setup();
    setup.push("CREATE GRAPH INDEX ge ON e EDGE (s, d)".to_string());
    sweep(&setup, |run| run_at_widths(run, &queries()));
}

#[test]
fn set_threads_validation_and_show() {
    let db = Database::new();
    let session = db.session();

    let err = session.execute("SET threads = 0").unwrap_err();
    assert!(err.to_string().contains("positive integer"), "{err}");
    let err = session.execute("SET threads = lots").unwrap_err();
    assert!(err.to_string().contains("non-negative integer"), "{err}");
    // Failed SETs leave the session usable with its previous value.
    session.execute("SET threads = 3").unwrap();
    let t = session.query("SHOW threads").unwrap();
    assert_eq!(t.row(0)[0], Value::from("threads"));
    assert_eq!(t.row(0)[1], Value::from("3"));

    // threads appears in SHOW ALL alongside the existing settings.
    let all = session.query("SHOW ALL").unwrap();
    let names: Vec<String> = (0..all.row_count()).map(|i| all.row(i)[0].to_string()).collect();
    for expected in ["morsel_rows", "row_limit", "threads"] {
        assert!(names.contains(&expected.to_string()), "SHOW ALL missing {expected}");
    }
}

#[test]
fn explain_analyze_reports_correct_rows_under_parallel_execution() {
    let db = build_db();
    let session = db.session();
    session.set("threads", "8").unwrap();

    // 600 edges scanned; the filter keeps w = 1 rows. Row counts in the
    // EXPLAIN ANALYZE output must match a direct count even though the
    // filter and scan run under the parallel runtime.
    let expected = db.query("SELECT * FROM e WHERE e.w = 1").unwrap().row_count();
    let plan = session.query("EXPLAIN ANALYZE SELECT * FROM e WHERE e.w = 1").unwrap();
    let text: Vec<String> = (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect();
    let all = text.join("\n");
    assert!(all.contains(&format!("rows={expected}")), "filter rows missing:\n{all}");
    assert!(all.contains("rows=600"), "scan rows missing:\n{all}");
    assert!(all.contains("Result:"), "total line missing:\n{all}");

    // A graph query under parallel traversal still reports per-operator
    // rows (the GraphSelect output row count).
    let reachable = session
        .query("SELECT CHEAPEST SUM(1) WHERE 0 REACHES 77 OVER e EDGE (s, d)")
        .unwrap()
        .row_count();
    let plan = session
        .query("EXPLAIN ANALYZE SELECT CHEAPEST SUM(1) WHERE 0 REACHES 77 OVER e EDGE (s, d)")
        .unwrap();
    let all: Vec<String> = (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect();
    let all = all.join("\n");
    assert!(all.contains(&format!("rows={reachable}")), "graph rows missing:\n{all}");
}

/// Query shapes that exercise the morsel-driven pipeline engine
/// specifically: fused scan→filter→project chains, hash-join probes,
/// float aggregates, LIMIT short-circuits, and graph-fed relational plans.
fn pipeline_queries() -> Vec<String> {
    vec![
        // Fused filter→project chain.
        "SELECT people.id * 2 + people.grp FROM people WHERE people.id % 3 <> 1".to_string(),
        // Hash-join probe inside a pipeline, aggregated. (The explicit
        // JOIN ... ON form is the one that plans as an equi join; comma
        // joins stay cross-product + filter.)
        "SELECT p1.grp, COUNT(*) AS n FROM people p1 JOIN people p2 ON p1.grp = p2.grp \
         GROUP BY p1.grp ORDER BY p1.grp"
            .to_string(),
        // Probe feeding a fused filter and projection, fully materialized.
        "SELECT p1.id, p2.id + 1 FROM people p1 JOIN people p2 ON p1.grp = p2.grp \
         WHERE p1.id % 4 <> 2"
            .to_string(),
        // Float SUM/AVG with non-trivial binary fractions: any reordering
        // of the accumulation changes the bits.
        "SELECT m.k, SUM(m.v) AS s, AVG(m.v) AS a FROM m GROUP BY m.k ORDER BY m.k".to_string(),
        "SELECT SUM(m.v), AVG(m.v), COUNT(*) FROM m".to_string(),
        // DISTINCT aggregate across morsels (dedup happens at merge).
        "SELECT COUNT(DISTINCT e.w), SUM(DISTINCT e.w) FROM e".to_string(),
        // LIMIT short-circuit: producers stop once enough rows exist, and
        // the kept prefix must equal the sequential prefix.
        "SELECT e.s, e.d, e.w FROM e WHERE e.w > 2 LIMIT 17 OFFSET 5".to_string(),
        "SELECT people.id FROM people LIMIT 3".to_string(),
        // Mixed graph + relational: traversal output feeds a pipelined
        // filter/aggregate.
        "SELECT COUNT(*) AS n, SUM(c.cost) AS total FROM (\
            SELECT p1.id AS a, p2.id AS b, CHEAPEST SUM(1) AS cost \
            FROM people p1, people p2 \
            WHERE p1.grp = 0 AND p2.grp = 1 \
              AND p1.id REACHES p2.id OVER e EDGE (s, d)) c \
         WHERE c.cost < 5"
            .to_string(),
    ]
}

/// The determinism contract of the pipeline engine: morsel boundaries
/// depend only on the input size and `morsel_rows`, and partials merge in
/// morsel-index order — so every query (including float SUM/AVG, whose
/// accumulation order is observable in the result bits) is byte-identical
/// at threads 1, 2, 4 and 8. `morsel_rows = 7` forces dozens of morsels so
/// the merge path is actually exercised.
#[test]
fn pipelined_plans_identical_across_thread_counts() {
    sweep(&setup(), |run| run_at_widths(run, &pipeline_queries()));
}

/// Integer-valued results are also invariant to the morsel size itself
/// (float accumulation order legitimately varies with boundaries, integer
/// sums never do).
#[test]
fn integer_results_invariant_to_morsel_size() {
    let sqls = [
        "SELECT e.s % 13 AS g, COUNT(*) AS n, SUM(e.w) AS s FROM e GROUP BY e.s % 13 ORDER BY g",
        "SELECT e.s, e.d, e.w FROM e WHERE e.w > 2 LIMIT 17 OFFSET 5",
        "SELECT COUNT(DISTINCT e.w), SUM(DISTINCT e.w) FROM e",
        "SELECT p1.grp, COUNT(*) AS n FROM people p1, people p2 \
         WHERE p1.grp = p2.grp GROUP BY p1.grp ORDER BY p1.grp",
    ];
    sweep(&setup(), |run| {
        for sql in sqls {
            let reference = render(&run.query(sql).unwrap());
            for morsel_rows in ["1", "64", "100000"] {
                let s = run.new_session();
                s.set("morsel_rows", morsel_rows).unwrap();
                assert_eq!(
                    render(&s.query(sql).unwrap()),
                    reference,
                    "morsel_rows {morsel_rows}: {sql}"
                );
            }
        }
    });
}

/// LIMIT under concurrency: the morsel queue hands out a contiguous prefix
/// of morsels, so stopping production early can never skip a row that the
/// sequential prefix would contain.
#[test]
fn limit_short_circuit_is_exact_under_concurrency() {
    sweep(&setup(), |run| {
        let all = run.query("SELECT e.s, e.d, e.w FROM e WHERE e.w >= 2").unwrap();
        let wide = run.new_session();
        wide.set("threads", "8").unwrap();
        for (limit, offset) in [(1usize, 0usize), (10, 0), (25, 100), (1000, 0), (50, 380)] {
            let sql =
                format!("SELECT e.s, e.d, e.w FROM e WHERE e.w >= 2 LIMIT {limit} OFFSET {offset}");
            for t in [run.query(&sql).unwrap(), wide.query(&sql).unwrap()] {
                let expected = all.row_count().saturating_sub(offset).min(limit);
                assert_eq!(t.row_count(), expected, "LIMIT {limit} OFFSET {offset}");
                for r in 0..t.row_count() {
                    assert_eq!(
                        t.row(r),
                        all.row(offset + r),
                        "LIMIT {limit} OFFSET {offset} row {r}"
                    );
                }
            }
        }
    });
}

/// `EXPLAIN` annotates pipeline membership; breakers (sort, distinct,
/// graph ops) are labelled as such.
#[test]
fn explain_annotates_pipelines_and_breakers() {
    let db = build_db();
    let session = db.session();
    let plan = session
        .query("EXPLAIN SELECT e.s % 13 AS g, COUNT(*) AS n FROM e GROUP BY e.s % 13 ORDER BY g")
        .unwrap();
    let text: Vec<String> = (0..plan.row_count()).map(|i| plan.row(i)[0].to_string()).collect();
    let all = text.join("\n");
    assert!(all.contains("[pipeline 0]"), "no pipeline annotation:\n{all}");
    assert!(all.contains("Sort"), "{all}");
    assert!(all.contains("[breaker]"), "no breaker annotation:\n{all}");
}

#[test]
fn threads_setting_is_session_local() {
    let db = build_db();
    let a = db.session();
    let b = db.session();
    a.set("threads", "1").unwrap();
    b.set("threads", "8").unwrap();
    assert_eq!(a.setting("threads").unwrap(), "1");
    assert_eq!(b.setting("threads").unwrap(), "8");
    // Both sessions agree on results regardless of their width.
    let sql = "SELECT DISTINCT e.w FROM e ORDER BY 1";
    // ORDER BY ordinal may not be supported; use column reference instead.
    let sql = if db.session().query(sql).is_ok() {
        sql.to_string()
    } else {
        "SELECT DISTINCT e.w FROM e ORDER BY e.w".to_string()
    };
    let ta = a.query(&sql).unwrap();
    let tb = b.query(&sql).unwrap();
    assert_eq!(ta.row_count(), tb.row_count());
    for i in 0..ta.row_count() {
        assert_eq!(ta.row(i), tb.row(i));
    }
}

/// The error text of `sql` in `session`.
fn error_in(session: &gsql::Session<'_>, sql: &str) -> String {
    match session.query(sql) {
        Ok(t) => panic!("expected an error, got {} row(s): {sql}", t.row_count()),
        Err(e) => e.to_string(),
    }
}

/// Errors are as deterministic as results: with 7-row morsels (dozens of
/// morsels over the table below, so workers race) the morsel holding row 3
/// fails with `division by zero`, a much later morsel (row 500) with an
/// integer overflow, and whichever worker gets where first, the statement
/// reports the lowest morsel's error — the same text at every thread count,
/// from one execution. The overflow sits in the *inner* operator each time,
/// so an operator-at-a-time run over the whole input would have surfaced it
/// instead. At the default morsel size the table is one morsel, and the
/// error is whatever that morsel raises, again at every thread count.
#[test]
fn lowest_morsel_error_wins_at_every_thread_count() {
    let rows: Vec<String> = (0..600)
        .map(|id| {
            let x = if id == 3 { 0 } else { 1 };
            let big = if id == 500 { i64::MAX } else { 1 };
            format!("({id}, 0, {x}, {big})")
        })
        .collect();
    let setup = [
        "CREATE TABLE f (id INTEGER NOT NULL, k INTEGER NOT NULL, x INTEGER NOT NULL, \
         big INTEGER NOT NULL)"
            .to_string(),
        format!("INSERT INTO f VALUES {}", rows.join(", ")),
        "CREATE TABLE one (k INTEGER NOT NULL, z INTEGER NOT NULL)".to_string(),
        "INSERT INTO one VALUES (0, 0)".to_string(),
    ];
    sweep(&setup, |run| {
        for sql in [
            // Both failures inside one filter / one projection.
            "SELECT f.id FROM f WHERE 100 / f.x + f.big * 2 > 0",
            "SELECT 100 / f.x + f.big * 2 FROM f",
            // Overflow in the filter, division in the projection above it.
            "SELECT 100 / f.x FROM f WHERE f.big * 2 > 0",
            // Overflow in the join residual, division in the projection.
            "SELECT 100 / a.x FROM f a JOIN one o ON a.k = o.k AND a.big * 2 > o.z",
            // Overflow in the filter, division in the aggregate argument.
            "SELECT SUM(100 / f.x) FROM f WHERE f.big * 2 > 0",
        ] {
            let reference = error_in(run.session(), sql);
            run.record(sql, reference.clone());
            if run.config().small_morsels {
                assert!(
                    reference.contains("division by zero"),
                    "not the row-3 error: {reference}\n{sql}"
                );
            }
            for threads in ["2", "8"] {
                let s = run.new_session();
                s.set("threads", threads).unwrap();
                assert_eq!(error_in(&s, sql), reference, "threads {threads}: {sql}");
            }
        }
    });
}

/// The row-limit guard is evaluated in morsel order, so its message — the
/// operator it names and the row count it reports — does not depend on
/// which worker finishes first.
#[test]
fn row_limit_message_is_identical_across_thread_counts() {
    let rows: Vec<String> = (0..10).map(|id| format!("({id}, {})", id % 2)).collect();
    let setup = [
        "CREATE TABLE small (id INTEGER NOT NULL, k INTEGER NOT NULL)".to_string(),
        format!("INSERT INTO small VALUES {}", rows.join(", ")),
    ];
    // Both inputs fit the limit; the 50-row join output (35 of them from
    // the first 7-row morsel) does not.
    let sql = "SELECT a.id, b.id FROM small a JOIN small b ON a.k = b.k";
    sweep(&setup, |run| {
        let message = |threads: Option<&str>| {
            let s = run.new_session();
            if let Some(threads) = threads {
                s.set("threads", threads).unwrap();
            }
            s.set("row_limit", "10").unwrap();
            error_in(&s, sql)
        };
        let reference = message(None);
        run.record(sql, reference.clone());
        assert!(reference.contains("row limit exceeded"), "{reference}");
        assert!(reference.contains("Join"), "names the join: {reference}");
        if run.config().small_morsels {
            assert!(reference.contains("produced 35 rows"), "{reference}");
        }
        for threads in ["2", "8"] {
            assert_eq!(message(Some(threads)), reference, "threads {threads}");
        }
    });
}
