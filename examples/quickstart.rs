//! Quickstart: create a graph from plain SQL tables and ask for shortest
//! paths with the paper's `REACHES` / `CHEAPEST SUM` extension.
//!
//! Run with: `cargo run --example quickstart`

use gsql::{Database, Value};

fn main() -> gsql::Result<()> {
    let db = Database::new();

    // A graph is just a table with a source and a destination column
    // (the "edge table"). Vertices are implied: V = src ∪ dst.
    db.execute_script(
        "CREATE TABLE persons (id INTEGER PRIMARY KEY, name VARCHAR NOT NULL);
         CREATE TABLE friends (src INTEGER NOT NULL, dst INTEGER NOT NULL,
                               weight DOUBLE NOT NULL);
         INSERT INTO persons VALUES
            (1, 'Mahinda'), (2, 'Carmen'), (3, 'Chen'), (4, 'Dana'), (5, 'Eve');
         INSERT INTO friends VALUES
            (1, 2, 0.5), (2, 1, 0.5),
            (2, 3, 2.0), (3, 2, 2.0),
            (3, 4, 1.0), (4, 3, 1.0),
            (1, 4, 9.0), (4, 1, 9.0);",
    )?;

    // 1. Reachability as a WHERE-clause predicate.
    println!("Persons reachable from Mahinda (id 1):");
    let reachable = db.query_with_params(
        "SELECT name FROM persons
         WHERE ? REACHES id OVER friends EDGE (src, dst)
         ORDER BY name",
        &[Value::Int(1)],
    )?;
    print!("{reachable}");

    // 2. Unweighted shortest path: CHEAPEST SUM(1) counts hops.
    let hops = db.query_with_params(
        "SELECT CHEAPEST SUM(1) AS hops
         WHERE ? REACHES ? OVER friends EDGE (src, dst)",
        &[Value::Int(1), Value::Int(3)],
    )?;
    println!("\nHops from Mahinda to Chen:");
    print!("{hops}");

    // 3. Weighted shortest path plus the actual path, flattened by UNNEST.
    println!("\nCheapest weighted route from Mahinda to Dana, hop by hop:");
    let route = db.query_with_params(
        "SELECT T.cost, R.ordinality AS hop, R.src, R.dst, R.weight
         FROM (
            SELECT CHEAPEST SUM(f: weight) AS (cost, path)
            WHERE ? REACHES ? OVER friends f EDGE (src, dst)
         ) T, UNNEST(T.path) WITH ORDINALITY AS R",
        &[Value::Int(1), Value::Int(4)],
    )?;
    print!("{route}");

    // 4. EXPLAIN shows the graph operators of the paper (§3.1).
    println!("\nEXPLAIN of a graph join:");
    let plan = db.query(
        "EXPLAIN SELECT p1.name, p2.name, CHEAPEST SUM(1) AS d
         FROM persons p1, persons p2
         WHERE p1.id REACHES p2.id OVER friends EDGE (src, dst)",
    )?;
    for row in plan.rows() {
        println!("  {}", row[0]);
    }

    // 5. Sessions: prepared statements plan once and reuse the cached
    //    plan; a graph index makes repeated lookups skip CSR construction.
    //    The plan cache belongs to the database, so the counters below are
    //    read as a difference around the prepared statement's lifetime.
    //    Plans never name an index, so the plan step 2 bound for this text
    //    outlives the CREATE GRAPH INDEX, and its next execution reads the
    //    index.
    let session = db.session();
    let before = session.cache_stats();
    db.execute("CREATE GRAPH INDEX gi ON friends EDGE (src, dst)")?;
    let stmt = session.prepare(
        "SELECT CHEAPEST SUM(1) AS hops
         WHERE ? REACHES ? OVER friends EDGE (src, dst)",
    )?;
    for (s, d) in [(1, 3), (2, 4), (5, 1)] {
        let t = stmt.query(&session, &[Value::Int(s), Value::Int(d)])?;
        let hops = if t.is_empty() { "unreachable".to_string() } else { t.row(0)[0].to_string() };
        println!("\nperson {s} -> person {d}: {hops} hop(s)");
    }
    let after = session.cache_stats();
    let (misses, hits) = (after.misses - before.misses, after.hits - before.hits);
    println!("plan cache: {misses} misses, {hits} hits (the prepare and every execution)");
    assert_eq!((misses, hits), (0, 4), "the plan bound in step 2 serves the prepare and every run");

    // 6. EXPLAIN ANALYZE: the executed plan with per-operator rows/timing.
    println!("\nEXPLAIN ANALYZE of the same query:");
    let analyzed = session.query_with_params(
        "EXPLAIN ANALYZE SELECT CHEAPEST SUM(1) AS hops
         WHERE ? REACHES ? OVER friends EDGE (src, dst)",
        &[Value::Int(1), Value::Int(4)],
    )?;
    for row in analyzed.rows() {
        println!("  {}", row[0]);
    }
    Ok(())
}
