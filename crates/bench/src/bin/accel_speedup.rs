//! The three-way point-to-point benchmark: plain Dijkstra versus the two
//! acceleration tiers — ALT (goal-directed bidirectional A\* over a
//! landmark index) and CH (bidirectional upward Dijkstra over a
//! contraction hierarchy) — reported as **settled vertices** (the work the
//! preprocessing prunes), preprocessing cost (build time, index size,
//! shortcut count) and query wall time. First at the graph-runtime layer,
//! then end-to-end through SQL sessions (`path_index = off`, a
//! `USING LANDMARKS(k)` index, a `USING CONTRACTION` index), asserting
//! identical results on the way.
//!
//! A third scenario benchmarks the batched many-to-many tier: an `S × T`
//! distance matrix computed by plain per-source Dijkstra, by multi-target
//! ALT (one goal-directed search per source) and by bucket-based CH
//! (`S + T` upward searches), asserting all three matrices are identical.
//!
//! The benchmark graph is road-like — a `side × side` bidirectional grid
//! with random integer weights — because that is the workload contraction
//! hierarchies are built for; `--vertices` is rounded down to a square.
//!
//! `cargo run -p gsql-bench --release --bin accel_speedup -- \
//!      --vertices 20000 --pairs 100 --landmarks 16`
//!
//! `--smoke` shrinks every knob for CI; `--json` appends one line of
//! machine-readable results after the tables.

use gsql_bench::report::{arg_value, fmt_duration, render_table};
use gsql_core::Database;
use gsql_server::json::Json;
use gsql_storage::Value;
use rand::prelude::*;
use std::time::{Duration, Instant};

struct Config {
    side: u32,
    pairs: usize,
    landmarks: u32,
    seed: u64,
    threads: usize,
    mat_sources: usize,
    mat_targets: usize,
    json: bool,
}

impl Config {
    fn from_args() -> Config {
        let args: Vec<String> = std::env::args().collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        let get = |flag: &str, default: u64| {
            arg_value(&args, flag).and_then(|s| s.parse().ok()).unwrap_or(default)
        };
        let vertices = get("--vertices", if smoke { 2_500 } else { 20_000 });
        Config {
            side: (vertices as f64).sqrt() as u32,
            pairs: get("--pairs", if smoke { 20 } else { 100 }) as usize,
            landmarks: get("--landmarks", if smoke { 8 } else { 16 }) as u32,
            seed: get("--seed", 42),
            threads: get("--threads", 4) as usize,
            mat_sources: get("--matrix-sources", if smoke { 12 } else { 40 }) as usize,
            mat_targets: get("--matrix-targets", if smoke { 12 } else { 40 }) as usize,
            json: args.iter().any(|a| a == "--json"),
        }
    }

    fn vertices(&self) -> u32 {
        self.side * self.side
    }
}

/// A `side × side` grid, each lattice edge present in both directions with
/// independent strictly positive integer weights.
fn generate(cfg: &Config) -> (Vec<u32>, Vec<u32>, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let side = cfg.side;
    let mut src = Vec::new();
    let mut dst = Vec::new();
    let mut w = Vec::new();
    let mut edge = |s: u32, d: u32, rng: &mut StdRng| {
        src.push(s);
        dst.push(d);
        w.push(rng.gen_range(1..10));
    };
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                edge(v, v + 1, &mut rng);
                edge(v + 1, v, &mut rng);
            }
            if r + 1 < side {
                edge(v, v + side, &mut rng);
                edge(v + side, v, &mut rng);
            }
        }
    }
    (src, dst, w)
}

fn main() {
    let cfg = Config::from_args();
    println!(
        "accel speedup: {}x{} grid (|V| = {}), {} point-to-point pairs, {} landmarks, seed {}\n",
        cfg.side,
        cfg.side,
        cfg.vertices(),
        cfg.pairs,
        cfg.landmarks,
        cfg.seed
    );
    let (src, dst, weights) = generate(&cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xa17);
    let pairs: Vec<(u32, u32)> = (0..cfg.pairs)
        .map(|_| (rng.gen_range(0..cfg.vertices()), rng.gen_range(0..cfg.vertices())))
        .collect();

    // ---------------------------------------------- graph-runtime layer
    let t = cfg.threads;
    let graph = gsql_graph::Csr::from_edges(cfg.vertices(), &src, &dst).unwrap();
    let reverse = gsql_graph::reverse_csr(&graph);
    let wf = graph.permute_weights_int_with_threads(&weights, t).unwrap();
    let wb = reverse.permute_weights_int_with_threads(&weights, t).unwrap();

    let t0 = Instant::now();
    let lm =
        gsql_accel::Landmarks::build(&graph, &reverse, Some((&wf, &wb)), cfg.landmarks as usize, t);
    let alt_build = t0.elapsed();
    let t0 = Instant::now();
    let ch = gsql_accel::ContractionHierarchy::build(&graph, Some(&wf), t);
    let ch_build = t0.elapsed();
    let mib = |bytes: usize| format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0));
    let build_rows = vec![
        vec![
            format!("ALT ({} landmarks)", lm.len()),
            fmt_duration(alt_build),
            mib(lm.memory_bytes()),
            "-".to_string(),
        ],
        vec![
            "CH".to_string(),
            fmt_duration(ch_build),
            mib(ch.memory_bytes()),
            ch.shortcuts().to_string(),
        ],
    ];
    println!("{}", render_table(&["index", "build", "size", "shortcuts"], &build_rows));

    let mut scratch = gsql_graph::DijkstraIntScratch::new();
    let mut plain_settled = 0usize;
    let t_plain = Instant::now();
    let mut plain_dists = Vec::with_capacity(pairs.len());
    for &(s, d) in &pairs {
        gsql_graph::dijkstra_int_into(&graph, s, &[d], &wf, &mut scratch);
        plain_settled += scratch.settled_count();
        let dist = scratch.dist[d as usize];
        plain_dists.push(if dist == u64::MAX { None } else { Some(dist) });
    }
    let plain_time = t_plain.elapsed();

    let mut alt_settled = 0usize;
    let t_alt = Instant::now();
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let r = gsql_accel::alt_bidirectional(&graph, &reverse, Some((&wf, &wb)), &lm, s, d);
        alt_settled += r.settled;
        assert_eq!(r.dist, plain_dists[i], "ALT diverged from Dijkstra on pair {i}");
    }
    let alt_time = t_alt.elapsed();

    let mut ch_settled = 0usize;
    let t_ch = Instant::now();
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let r = gsql_accel::ch_query(&ch, s, d);
        ch_settled += r.settled;
        assert_eq!(r.dist, plain_dists[i], "CH diverged from Dijkstra on pair {i}");
    }
    let ch_time = t_ch.elapsed();

    let per_query = |settled: usize| format!("{:.0}", settled as f64 / pairs.len() as f64);
    let rows = vec![
        vec![
            "plain Dijkstra".to_string(),
            plain_settled.to_string(),
            per_query(plain_settled),
            fmt_duration(plain_time),
        ],
        vec![
            "ALT bidirectional A*".to_string(),
            alt_settled.to_string(),
            per_query(alt_settled),
            fmt_duration(alt_time),
        ],
        vec![
            "CH upward Dijkstra".to_string(),
            ch_settled.to_string(),
            per_query(ch_settled),
            fmt_duration(ch_time),
        ],
    ];
    println!("{}", render_table(&["search", "settled (total)", "settled/query", "wall"], &rows));
    println!(
        "pruning vs plain: ALT {:.1}x, CH {:.1}x fewer settled vertices; CH settles {:.1}x \
         fewer than ALT\nwall vs plain: ALT {:.1}x, CH {:.1}x (runtime layer)\n",
        plain_settled as f64 / alt_settled.max(1) as f64,
        plain_settled as f64 / ch_settled.max(1) as f64,
        alt_settled as f64 / ch_settled.max(1) as f64,
        plain_time.as_secs_f64() / alt_time.as_secs_f64().max(1e-9),
        plain_time.as_secs_f64() / ch_time.as_secs_f64().max(1e-9),
    );

    // ------------------------------------------ many-to-many matrix layer
    // Distinct random sides: the plain baseline runs one full Dijkstra per
    // source (exactly what the batched runtime did before the m2m tier).
    let mut m_sources: Vec<u32> =
        (0..cfg.mat_sources).map(|_| rng.gen_range(0..cfg.vertices())).collect();
    m_sources.sort_unstable();
    m_sources.dedup();
    let mut m_targets: Vec<u32> =
        (0..cfg.mat_targets).map(|_| rng.gen_range(0..cfg.vertices())).collect();
    m_targets.sort_unstable();
    m_targets.dedup();
    println!(
        "many-to-many matrix: {} sources x {} targets = {} pairs",
        m_sources.len(),
        m_targets.len(),
        m_sources.len() * m_targets.len()
    );

    let mut plain_m_settled = 0usize;
    let t0 = Instant::now();
    let mut truth = Vec::with_capacity(m_sources.len() * m_targets.len());
    for &s in &m_sources {
        gsql_graph::dijkstra_int_into(&graph, s, &[], &wf, &mut scratch);
        plain_m_settled += scratch.settled_count();
        truth.extend(m_targets.iter().map(|&t| scratch.dist[t as usize]));
    }
    let plain_m_time = t0.elapsed();

    let t0 = Instant::now();
    let am = gsql_accel::alt_many_to_many(&graph, Some(&wf), &lm, &m_sources, &m_targets, t, None)
        .unwrap();
    let alt_m_time = t0.elapsed();
    assert_eq!(am.dist, truth, "ALT-multi matrix diverged from per-source Dijkstra");

    let t0 = Instant::now();
    let cm = gsql_accel::ch_many_to_many(&ch, &m_sources, &m_targets, t, None).unwrap();
    let ch_m_time = t0.elapsed();
    assert_eq!(cm.dist, truth, "CH-m2m matrix diverged from per-source Dijkstra");

    let per_source = |settled: usize| format!("{:.0}", settled as f64 / m_sources.len() as f64);
    let m_rows = vec![
        vec![
            "plain per-source Dijkstra".to_string(),
            plain_m_settled.to_string(),
            per_source(plain_m_settled),
            "-".to_string(),
            fmt_duration(plain_m_time),
        ],
        vec![
            "ALT multi-target".to_string(),
            am.settled.to_string(),
            per_source(am.settled),
            "-".to_string(),
            fmt_duration(alt_m_time),
        ],
        vec![
            "CH buckets (m2m)".to_string(),
            cm.settled.to_string(),
            per_source(cm.settled),
            cm.bucket_entries.to_string(),
            fmt_duration(ch_m_time),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["matrix", "settled (total)", "settled/source", "bucket entries", "wall"],
            &m_rows
        )
    );
    let alt_m_factor = plain_m_settled as f64 / am.settled.max(1) as f64;
    let ch_m_factor = plain_m_settled as f64 / cm.settled.max(1) as f64;
    println!(
        "matrix pruning vs plain: ALT-multi {alt_m_factor:.1}x, CH-m2m {ch_m_factor:.1}x fewer \
         settled vertices\nmatrix wall vs plain: ALT-multi {:.1}x, CH-m2m {:.1}x (runtime layer)\n",
        plain_m_time.as_secs_f64() / alt_m_time.as_secs_f64().max(1e-9),
        plain_m_time.as_secs_f64() / ch_m_time.as_secs_f64().max(1e-9),
    );
    // The m2m tier only earns its keep if it prunes hard; a regression
    // below 3x on the road-like grid should fail loudly, including in the
    // CI smoke run.
    assert!(
        ch_m_factor >= 3.0,
        "CH-m2m settled only {ch_m_factor:.1}x fewer vertices than plain (expected >= 3x)"
    );

    // --------------------------------------------------- end-to-end SQL
    let db = Database::new();
    db.execute("CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)")
        .unwrap();
    let mut stmt_rows = String::new();
    for i in 0..src.len() {
        if !stmt_rows.is_empty() {
            stmt_rows.push_str(", ");
        }
        stmt_rows.push_str(&format!("({}, {}, {})", src[i], dst[i], weights[i]));
        if stmt_rows.len() > 200_000 {
            db.execute(&format!("INSERT INTO e VALUES {stmt_rows}")).unwrap();
            stmt_rows.clear();
        }
    }
    if !stmt_rows.is_empty() {
        db.execute(&format!("INSERT INTO e VALUES {stmt_rows}")).unwrap();
    }
    db.execute("CREATE GRAPH INDEX ge ON e EDGE (s, d)").unwrap();

    // Three configurations: no path index, a landmark index, a contraction
    // index. Indexes are created between runs; the optimizer prefers CH
    // over ALT once both exist, so each run exercises the intended tier.
    let sql = "SELECT CHEAPEST SUM(f: f.w) AS cost WHERE ? REACHES ? OVER e f EDGE (s, d)";
    let mut sql_rows = Vec::new();
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for (label, setting, ddl) in [
        ("path_index = off", "off", None),
        (
            "ALT index",
            "on",
            Some(format!(
                "CREATE PATH INDEX pa ON e EDGE (s, d) WEIGHT w USING LANDMARKS({})",
                cfg.landmarks
            )),
        ),
        (
            "CH index",
            "on",
            Some("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION".to_string()),
        ),
    ] {
        if let Some(ddl) = ddl {
            db.execute(&ddl).unwrap();
        }
        let session = db.session();
        session.set("path_index", setting).unwrap();
        let stmt = session.prepare(sql).unwrap();
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(pairs.len());
        for &(s, d) in &pairs {
            let t = stmt.query(&session, &[Value::Int(s as i64), Value::Int(d as i64)]).unwrap();
            results.push((0..t.row_count()).map(|r| t.row(r)).next().unwrap_or_default());
        }
        let elapsed = t0.elapsed();
        match &reference {
            None => reference = Some(results),
            Some(expected) => {
                assert_eq!(expected, &results, "{label} must return byte-identical results")
            }
        }
        sql_rows.push(vec![
            label.to_string(),
            fmt_duration(elapsed),
            format!("{:.1} µs", elapsed.as_secs_f64() * 1e6 / pairs.len() as f64),
        ]);
    }
    println!("{}", render_table(&["SQL session", "wall", "per query"], &sql_rows));
    println!("results are byte-identical in all three configurations.");

    // ------------------------------------------- warm restart (durability)
    // The same CH-indexed workload through a durable database: checkpoint,
    // reopen, and answer from the persisted index — zero rebuild work. The
    // `settled=` plan details must be byte-identical across the restart.
    let dir = std::env::temp_dir().join(format!("gsql-accel-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let restart_pairs = &pairs[..pairs.len().min(10)];
    let settled_details = |db: &Database, pairs: &[(u32, u32)]| -> Vec<String> {
        let session = db.session();
        let stmt = session.prepare(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        pairs
            .iter()
            .map(|&(s, d)| {
                let t =
                    stmt.query(&session, &[Value::Int(s as i64), Value::Int(d as i64)]).unwrap();
                (0..t.row_count())
                    .filter_map(|r| match &t.row(r)[0] {
                        Value::Str(line) => {
                            let at = line.find("settled=")?;
                            Some(line[at..].to_string())
                        }
                        _ => None,
                    })
                    .collect::<Vec<_>>()
                    .join("; ")
            })
            .collect()
    };
    let (pre_details, ch_cold_build) = {
        let ddb = Database::open(&dir).unwrap();
        ddb.execute("CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL, w INTEGER NOT NULL)")
            .unwrap();
        let mut stmt_rows = String::new();
        for i in 0..src.len() {
            if !stmt_rows.is_empty() {
                stmt_rows.push_str(", ");
            }
            stmt_rows.push_str(&format!("({}, {}, {})", src[i], dst[i], weights[i]));
            if stmt_rows.len() > 200_000 {
                ddb.execute(&format!("INSERT INTO e VALUES {stmt_rows}")).unwrap();
                stmt_rows.clear();
            }
        }
        if !stmt_rows.is_empty() {
            ddb.execute(&format!("INSERT INTO e VALUES {stmt_rows}")).unwrap();
        }
        let t0 = Instant::now();
        ddb.execute("CREATE PATH INDEX pc ON e EDGE (s, d) WEIGHT w USING CONTRACTION").unwrap();
        let cold = t0.elapsed();
        ddb.execute("CHECKPOINT").unwrap();
        (settled_details(&ddb, restart_pairs), cold)
    };
    let t0 = Instant::now();
    let ddb = Database::open(&dir).unwrap();
    let warm_open = t0.elapsed();
    let t0 = Instant::now();
    let post_details = settled_details(&ddb, restart_pairs);
    let warm_queries = t0.elapsed();
    assert_eq!(ddb.indexes().builds(), 0, "warm start must not rebuild the CH index");
    assert_eq!(
        pre_details, post_details,
        "accelerated plans must settle identically across a restart"
    );
    drop(ddb);
    let _ = std::fs::remove_dir_all(&dir);
    let warm_rows = vec![
        vec!["cold: CREATE PATH INDEX (CH build)".to_string(), fmt_duration(ch_cold_build)],
        vec![
            "warm: Database::open (snapshot + index restore)".to_string(),
            fmt_duration(warm_open),
        ],
        vec![
            format!("warm: {} accelerated queries (0 rebuilds)", restart_pairs.len()),
            fmt_duration(warm_queries),
        ],
    ];
    println!("{}", render_table(&["warm restart", "wall"], &warm_rows));
    println!(
        "restart check: settled= details byte-identical on {} pairs; warm open is {:.1}x faster \
         than the cold CH build.",
        restart_pairs.len(),
        ch_cold_build.as_secs_f64() / warm_open.as_secs_f64().max(1e-9),
    );

    if cfg.json {
        // One line of machine-readable results, last on stdout, so CI and
        // tracking scripts can diff runs without scraping the tables.
        let us = |d: Duration| Json::Int((d.as_secs_f64() * 1e6) as i64);
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let report = obj(vec![
            ("vertices", Json::Int(cfg.vertices() as i64)),
            ("threads", Json::Int(cfg.threads as i64)),
            ("seed", Json::Int(cfg.seed as i64)),
            (
                "build",
                obj(vec![
                    ("alt_us", us(alt_build)),
                    ("ch_us", us(ch_build)),
                    ("landmarks", Json::Int(lm.len() as i64)),
                    ("shortcuts", Json::Int(ch.shortcuts() as i64)),
                ]),
            ),
            (
                "p2p",
                obj(vec![
                    ("pairs", Json::Int(pairs.len() as i64)),
                    (
                        "plain",
                        obj(vec![
                            ("settled", Json::Int(plain_settled as i64)),
                            ("wall_us", us(plain_time)),
                        ]),
                    ),
                    (
                        "alt",
                        obj(vec![
                            ("settled", Json::Int(alt_settled as i64)),
                            ("wall_us", us(alt_time)),
                        ]),
                    ),
                    (
                        "ch",
                        obj(vec![
                            ("settled", Json::Int(ch_settled as i64)),
                            ("wall_us", us(ch_time)),
                        ]),
                    ),
                ]),
            ),
            (
                "matrix",
                obj(vec![
                    ("sources", Json::Int(m_sources.len() as i64)),
                    ("targets", Json::Int(m_targets.len() as i64)),
                    (
                        "plain",
                        obj(vec![
                            ("settled", Json::Int(plain_m_settled as i64)),
                            ("wall_us", us(plain_m_time)),
                        ]),
                    ),
                    (
                        "alt_multi",
                        obj(vec![
                            ("settled", Json::Int(am.settled as i64)),
                            ("wall_us", us(alt_m_time)),
                        ]),
                    ),
                    (
                        "ch_m2m",
                        obj(vec![
                            ("settled", Json::Int(cm.settled as i64)),
                            ("bucket_entries", Json::Int(cm.bucket_entries as i64)),
                            ("wall_us", us(ch_m_time)),
                        ]),
                    ),
                ]),
            ),
        ]);
        println!("{}", report.encode());
    }
}
