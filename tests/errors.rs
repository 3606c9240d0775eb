//! Error-surface tests: every failure mode should produce a specific,
//! actionable message — parse errors with positions, bind errors naming the
//! offender, and the paper-mandated runtime exceptions.

use gsql::{Database, Error, Value};

fn db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE persons (id INTEGER PRIMARY KEY, name VARCHAR);
         CREATE TABLE friends (src INTEGER, dst INTEGER, w DOUBLE, label VARCHAR);
         INSERT INTO persons VALUES (1, 'a'), (2, 'b');
         INSERT INTO friends VALUES (1, 2, 1.0, 'x');",
    )
    .unwrap();
    db
}

fn expect_err(db: &Database, sql: &str, needle: &str) {
    let err = db.execute(sql).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains(needle), "sql {sql:?}\n  error: {msg}\n  expected to contain {needle:?}");
}

#[test]
fn parse_errors_have_positions() {
    let db = db();
    match db.execute("SELECT *\nFROM").unwrap_err() {
        Error::Parse(e) => {
            assert_eq!(e.line, 2);
            assert!(e.to_string().contains("parse error at 2:"));
        }
        other => panic!("expected parse error, got {other}"),
    }
}

#[test]
fn unknown_objects() {
    let db = db();
    expect_err(&db, "SELECT * FROM nope", "does not exist");
    expect_err(&db, "SELECT nope FROM persons", "no column 'nope'");
    expect_err(&db, "SELECT p.id FROM persons q", "no column 'p.id'");
    expect_err(&db, "DROP TABLE nope", "does not exist");
    expect_err(&db, "DESCRIBE nope", "does not exist");
    expect_err(&db, "SELECT frob(1)", "unknown function");
    expect_err(&db, "DROP GRAPH INDEX nope", "does not exist");
}

#[test]
fn reaches_binding_errors() {
    let db = db();
    // Edge columns with mismatched types.
    expect_err(
        &db,
        "SELECT id FROM persons WHERE id REACHES id OVER friends EDGE (src, label)",
        "matching types",
    );
    // X type incompatible with the edge key type.
    expect_err(
        &db,
        "SELECT id FROM persons WHERE name REACHES id OVER friends EDGE (src, dst)",
        "type VARCHAR but the EDGE key type is INTEGER",
    );
    // Vertex keys must be equality-friendly: DOUBLE is not allowed.
    expect_err(
        &db,
        "SELECT id FROM persons WHERE id REACHES id OVER friends EDGE (w, w)",
        "cannot be used as a graph vertex key",
    );
    // CHEAPEST SUM without any reachability predicate.
    expect_err(&db, "SELECT CHEAPEST SUM(1) FROM persons", "requires a REACHES predicate");
    // Unbound tuple variable.
    expect_err(
        &db,
        "SELECT CHEAPEST SUM(zz: 1) WHERE 1 REACHES 2 OVER friends f EDGE (src, dst)",
        "tuple variable",
    );
    // Ambiguous unbound CHEAPEST SUM with two predicates.
    expect_err(
        &db,
        "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 2 OVER friends a EDGE (src, dst) \
         AND 2 REACHES 1 OVER friends b EDGE (src, dst)",
        "must name a tuple variable",
    );
    // REACHES buried under OR is rejected (only top-level conjuncts).
    expect_err(
        &db,
        "SELECT id FROM persons WHERE id = 1 OR id REACHES id OVER friends EDGE (src, dst)",
        "top-level conjunct",
    );
    // Non-numeric weight.
    expect_err(
        &db,
        "SELECT CHEAPEST SUM(f: label) WHERE 1 REACHES 2 OVER friends f EDGE (src, dst)",
        "numeric",
    );
    // Parameter weight without a cast has unknown type.
    expect_err(
        &db,
        "SELECT CHEAPEST SUM(f: ?) WHERE 1 REACHES 2 OVER friends f EDGE (src, dst)",
        "CAST",
    );
}

#[test]
fn unnest_binding_errors() {
    let db = db();
    expect_err(&db, "SELECT * FROM persons, UNNEST(persons.id) AS r", "PATH");
    // A leading UNNEST has nothing to be lateral to: its argument cannot
    // resolve.
    expect_err(&db, "SELECT * FROM UNNEST(persons.id) AS r", "in scope");
    // Wrong number of column aliases.
    expect_err(
        &db,
        "SELECT * FROM (
            SELECT CHEAPEST SUM(f: 1) AS (c, p)
            WHERE 1 REACHES 2 OVER friends f EDGE (src, dst)
         ) T, UNNEST(T.p) AS r (one, two)",
        "alias list",
    );
}

#[test]
fn dml_errors() {
    let db = db();
    expect_err(&db, "INSERT INTO persons VALUES (1)", "columns");
    expect_err(&db, "INSERT INTO persons (id, id) VALUES (1, 2)", "duplicate column");
    expect_err(&db, "INSERT INTO persons (id, nope) VALUES (1, 2)", "nope");
    expect_err(&db, "UPDATE persons SET nope = 1", "nope");
    // NOT NULL violation through INSERT.
    expect_err(&db, "INSERT INTO persons VALUES (NULL, 'x')", "NULL");
    // Duplicate table.
    expect_err(&db, "CREATE TABLE persons (x INTEGER)", "already exists");
}

#[test]
fn type_errors_in_expressions() {
    let db = db();
    expect_err(&db, "SELECT name + 1 FROM persons", "numeric");
    expect_err(&db, "SELECT id FROM persons WHERE name", "BOOLEAN");
    expect_err(&db, "SELECT id FROM persons WHERE id = name", "incompatible");
    expect_err(&db, "SELECT NOT id FROM persons", "BOOLEAN");
    expect_err(&db, "SELECT id LIKE 'x' FROM persons", "VARCHAR");
    expect_err(&db, "SELECT UPPER(id) FROM persons", "string");
}

#[test]
fn runtime_errors() {
    let db = db();
    expect_err(&db, "SELECT 1 / 0", "division by zero");
    expect_err(&db, "SELECT CAST('abc' AS INTEGER)", "cannot cast");
    expect_err(&db, "SELECT CAST('2011-13-40' AS DATE)", "invalid date");
    // Missing parameter value.
    let err = db.query("SELECT CAST(? AS INTEGER)").unwrap_err();
    assert!(err.to_string().contains("parameter"), "{err}");
}

#[test]
fn limit_offset_validation() {
    let db = db();
    expect_err(&db, "SELECT id FROM persons LIMIT -1", "non-negative");
    expect_err(&db, "SELECT id FROM persons LIMIT 'x'", "non-negative");
}

#[test]
fn union_arity_and_type_checks() {
    let db = db();
    expect_err(&db, "SELECT 1 UNION SELECT 1, 2", "different arities");
    expect_err(&db, "SELECT 1 UNION SELECT 'x'", "incompatible types");
}

#[test]
fn cte_errors() {
    let db = db();
    expect_err(&db, "WITH a AS (SELECT 1), a AS (SELECT 2) SELECT * FROM a", "duplicate CTE");
    // Self-referencing CTE is not supported (no recursion): the inner
    // reference falls through to the catalog and fails.
    expect_err(&db, "WITH a AS (SELECT * FROM a) SELECT * FROM a", "does not exist");
    expect_err(&db, "WITH a (x, y) AS (SELECT 1) SELECT * FROM a", "column list");
}

#[test]
fn paths_cannot_be_stored_in_physical_tables() {
    // The paper's §3.3 limitation holds structurally here: no DDL type can
    // receive a PATH value, so persisting one is a type error.
    let db = db();
    db.execute("CREATE TABLE sink (p VARCHAR)").unwrap();
    let err = db
        .execute(
            "INSERT INTO sink SELECT path FROM (
               SELECT CHEAPEST SUM(f: 1) AS (c, path)
               WHERE 1 REACHES 2 OVER friends f EDGE (src, dst)
             ) t",
        )
        .unwrap_err();
    assert!(err.to_string().contains("PATH"), "{err}");
}

#[test]
fn mixing_cheapest_with_aggregation_is_reported() {
    let db = db();
    let err = db
        .execute(
            "SELECT COUNT(*), CHEAPEST SUM(1) \
             WHERE 1 REACHES 2 OVER friends EDGE (src, dst) GROUP BY 1",
        )
        .unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("derived table"), "{err}");
}

#[test]
fn script_stops_at_first_error_side_effects_kept() {
    let db = db();
    let err = db
        .execute_script(
            "INSERT INTO persons VALUES (3, 'c'); \
             SELECT * FROM nope; \
             INSERT INTO persons VALUES (4, 'd');",
        )
        .unwrap_err();
    assert!(err.to_string().contains("nope"));
    // First insert happened, third did not.
    let count = db.query("SELECT COUNT(*) FROM persons").unwrap();
    assert_eq!(count.row(0)[0], Value::Int(3));
}

/// A `DOUBLE` cost that overflows fails the statement with the typed cost
/// overflow, as an integer one does, for one pair and for a batch — it is
/// not reported as unreachable, although the overflowed sum is `+∞`. The
/// hop query over the same edges still reaches the vertex, and a pair whose
/// cost fits still answers.
#[test]
fn float_costs_that_overflow_fail_typed_instead_of_vanishing() {
    use gsql::graph::GraphError;
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE e (s INTEGER, d INTEGER, w DOUBLE);
         INSERT INTO e VALUES (1, 2, 1e308), (2, 3, 1e308);",
    )
    .unwrap();
    let one = "SELECT CHEAPEST SUM(f: f.w) AS c WHERE 1 REACHES 3 OVER e f EDGE (s, d)";
    let batch = "WITH pairs (x, y) AS (VALUES (1, 2), (1, 3), (2, 3)) \
                 SELECT pairs.x, pairs.y, CHEAPEST SUM(f: f.w) AS c FROM pairs \
                 WHERE pairs.x REACHES pairs.y OVER e f EDGE (s, d)";
    for sql in [one, batch] {
        match db.query(sql) {
            Err(Error::Graph(GraphError::CostOverflow)) => {}
            other => panic!("expected a cost overflow, got {other:?}: {sql}"),
        }
    }
    let hops = db.query("SELECT 1 WHERE 1 REACHES 3 OVER e EDGE (s, d)").unwrap();
    assert_eq!(hops.row_count(), 1);
    let fits = "SELECT CHEAPEST SUM(f: f.w) AS c WHERE 1 REACHES 2 OVER e f EDGE (s, d)";
    assert_eq!(db.query(fits).unwrap().row(0)[0], Value::Double(1e308));
}

/// Three edges of weight 2⁶² make a path of cost 3·2⁶², above the largest
/// INTEGER. Plain Dijkstra and Dijkstra over a graph index fail the
/// statement with the cost overflow error instead of a wrapped cost, while
/// the float fallback and a pair whose cost fits still answer. A landmark
/// or contraction path index refuses such a weight column with a typed
/// error, both at `CREATE PATH INDEX` and at the lazy rebuild of an index
/// created before the column grew.
#[test]
fn integer_costs_beyond_the_largest_integer_fail_typed_on_every_layer() {
    use gsql::graph::GraphError;
    let big = 1i64 << 62;
    let db = Database::new();
    db.execute_script(&format!(
        "CREATE TABLE e (s INTEGER, d INTEGER, w INTEGER);
         INSERT INTO e VALUES (1, 2, {big}), (2, 3, {big}), (3, 4, {big});"
    ))
    .unwrap();
    let cost = |sql: &str| db.query(sql).map(|t| t.row(0)[0].clone());
    let int = |to: i64| {
        cost(&format!("SELECT CHEAPEST SUM(f: f.w) AS c WHERE 1 REACHES {to} OVER e f EDGE (s, d)"))
    };
    let assert_overflow = |what: &str| match int(4) {
        Err(Error::Graph(GraphError::CostOverflow)) => {}
        other => panic!("{what}: expected a cost overflow, got {other:?}"),
    };
    assert_overflow("plain graph");
    assert_eq!(int(2).unwrap(), Value::Int(big));
    let float = "SELECT CHEAPEST SUM(f: f.w * 1.0) AS c WHERE 1 REACHES 4 OVER e f EDGE (s, d)";
    assert_eq!(cost(float).unwrap(), Value::Double(3.0 * big as f64));
    db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)").unwrap();
    assert_overflow("graph index");

    let refused = |result: gsql::Result<()>, expected: u128, what: &str| match result {
        Err(Error::Graph(GraphError::WeightTotalTooLarge { total, .. })) => {
            assert_eq!(total, expected, "{what}")
        }
        other => panic!("{what}: expected a refused weight total, got {other:?}"),
    };
    for using in ["LANDMARKS(1)", "CONTRACTION"] {
        let create = format!("CREATE PATH INDEX p ON e EDGE (s, d) WEIGHT w USING {using}");
        refused(db.execute(&create).map(|_| ()), 3 * big as u128, &create);
        assert_overflow(using);
        assert!(db.indexes().index_names(gsql::IndexSpace::Path).is_empty(), "{using}");
    }

    // Indexes built while the total fit refuse the lazy rebuild after it
    // grew; the statement that needed the index fails typed.
    for using in ["LANDMARKS(1)", "CONTRACTION"] {
        db.execute_script(&format!(
            "CREATE TABLE r (s INTEGER, d INTEGER, w INTEGER);
             INSERT INTO r VALUES (1, 2, 5), (2, 3, 5);
             CREATE PATH INDEX pr ON r EDGE (s, d) WEIGHT w USING {using};"
        ))
        .unwrap();
        let sql = "SELECT CHEAPEST SUM(f: f.w) AS c WHERE 1 REACHES 3 OVER r f EDGE (s, d)";
        assert_eq!(cost(sql).unwrap(), Value::Int(10), "{using}");
        db.execute(&format!("INSERT INTO r VALUES (3, 4, {big}), (4, 5, {big}), (5, 6, {big})"))
            .unwrap();
        refused(cost(sql).map(|_| ()), 3 * big as u128 + 10, using);
        db.execute("DROP TABLE r").unwrap();
    }
}
