//! The HTTP serving tier, end to end over real sockets: `/query` happy
//! path and error mapping, `/health`, `/metrics`, per-request setting
//! overrides and timeouts, settings that end with their request, admission
//! control (503 + `Retry-After` under a saturated queue), the database's one
//! plan cache across worker sessions, and graceful shutdown draining every
//! admitted query.
//!
//! Concurrency-sensitive tests avoid sleeps where possible by occupying
//! the (single) worker with a deliberately half-sent request: the worker
//! blocks reading it, which pins the pool in a known state until the test
//! finishes the request.

use gsql::Database;
use gsql_server::json::{self, Json};
use gsql_server::{client, serve, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const Q13: &str =
    "SELECT CHEAPEST SUM(1) AS distance WHERE ? REACHES ? OVER friends EDGE (src, dst)";

fn social_db() -> Arc<Database> {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE friends (src INTEGER NOT NULL, dst INTEGER NOT NULL, weight INTEGER);
         INSERT INTO friends VALUES (1, 2, 4), (2, 3, 4), (3, 4, 4), (1, 4, 20);",
    )
    .unwrap();
    Arc::new(db)
}

fn start(db: &Arc<Database>, config: ServerConfig) -> ServerHandle {
    serve(Arc::clone(db), config).expect("server failed to start")
}

fn query_body(sql: &str, params: &[i64]) -> String {
    let params: Vec<Json> = params.iter().map(|p| Json::Int(*p)).collect();
    Json::Object(vec![
        ("sql".to_string(), Json::from(sql)),
        ("params".to_string(), Json::Array(params)),
    ])
    .encode()
}

/// `rows` of a 200 response body, as parsed JSON.
fn rows_of(body: &str) -> Vec<Json> {
    let doc = json::parse(body).expect("response body is JSON");
    doc.get("rows").and_then(Json::as_array).expect("response has rows").to_vec()
}

/// The value of the `/metrics` sample whose name (and labels) is `series`.
fn metric(addr: std::net::SocketAddr, series: &str) -> f64 {
    let resp = client::get(addr, "/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let line =
        resp.body.lines().find(|l| l.strip_prefix(series).is_some_and(|v| v.starts_with(' ')));
    let line = line.unwrap_or_else(|| panic!("no sample {series} in:\n{}", resp.body));
    line[series.len()..].trim().parse().unwrap()
}

/// A worker session's setting, read with `SHOW` over `/query`.
fn show(addr: std::net::SocketAddr, name: &str) -> String {
    let resp = client::post(addr, "/query", &query_body(&format!("SHOW {name}"), &[])).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let rows = rows_of(&resp.body);
    rows[0].as_array().unwrap()[1].as_str().unwrap().to_string()
}

#[test]
fn query_happy_path_returns_rows() {
    let db = social_db();
    let server = start(&db, ServerConfig::default());
    let resp = client::post(server.addr(), "/query", &query_body(Q13, &[1, 3])).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = json::parse(&resp.body).unwrap();
    assert_eq!(
        doc.get("columns").and_then(Json::as_array),
        Some(&[Json::Str("distance".into())][..])
    );
    assert_eq!(rows_of(&resp.body), vec![Json::Array(vec![Json::Int(2)])]);
    assert_eq!(doc.get("row_count").and_then(Json::as_i64), Some(1));
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0);
}

#[test]
fn dml_reports_affected_rows() {
    let db = social_db();
    let server = start(&db, ServerConfig::default());
    let body = Json::Object(vec![(
        "sql".to_string(),
        Json::from("INSERT INTO friends VALUES (4, 1, 1), (2, 4, 1)"),
    )])
    .encode();
    let resp = client::post(server.addr(), "/query", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, r#"{"affected":2}"#);
    server.shutdown();
}

#[test]
fn sql_parse_error_maps_to_400() {
    let db = social_db();
    let server = start(&db, ServerConfig::default());
    let resp =
        client::post(server.addr(), "/query", &query_body("SELEC nonsense FORM", &[])).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("error"), "{}", resp.body);
    server.shutdown();
}

#[test]
fn malformed_json_maps_to_400() {
    let db = social_db();
    let server = start(&db, ServerConfig::default());
    for bad in ["{not json", "", "[1, 2]", r#"{"params": [1]}"#] {
        let resp = client::post(server.addr(), "/query", bad).unwrap();
        assert_eq!(resp.status, 400, "body {bad:?} gave {}", resp.body);
    }
    server.shutdown();
}

#[test]
fn row_limit_exceeded_maps_to_422_and_does_not_leak_into_next_request() {
    let db = social_db();
    let server = start(&db, ServerConfig { workers: 1, ..ServerConfig::default() });
    let body = Json::Object(vec![
        ("sql".to_string(), Json::from("SELECT * FROM friends")),
        ("settings".to_string(), Json::Object(vec![("row_limit".to_string(), Json::Int(2))])),
    ])
    .encode();
    let resp = client::post(server.addr(), "/query", &body).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("row limit exceeded"), "{}", resp.body);

    // The override was per-request: the same worker session must now run
    // the same statement unrestricted.
    let resp = client::post(
        server.addr(),
        "/query",
        &Json::Object(vec![("sql".to_string(), Json::from("SELECT * FROM friends"))]).encode(),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(rows_of(&resp.body).len(), 4);
    server.shutdown();
}

/// A `SET` statement lasts as long as its request: each request's session
/// starts from `ServerConfig::settings`, whatever earlier clients set.
#[test]
fn settings_set_by_a_request_do_not_reach_the_next_client() {
    let db = social_db();
    let settings = vec![("morsel_rows".to_string(), "1024".to_string())];
    let server = start(&db, ServerConfig { workers: 1, settings, ..ServerConfig::default() });
    let addr = server.addr();
    for sql in ["SET row_limit = 1", "SET trace = on", "SET morsel_rows = 5"] {
        let resp = client::post(addr, "/query", &query_body(sql, &[])).unwrap();
        assert_eq!(resp.status, 200, "{sql}: {}", resp.body);
    }
    let resp = client::post(addr, "/query", &query_body("SELECT src FROM friends", &[])).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(rows_of(&resp.body).len(), 4);
    assert_eq!(show(addr, "row_limit"), "0");
    assert_eq!(show(addr, "trace"), "off");
    assert_eq!(show(addr, "morsel_rows"), "1024", "the configured value, not the client's");
    server.shutdown();
}

/// Unknown settings — the retired planning knobs among them — are a 400
/// as `"settings"` overrides, and `serve` refuses them in its config.
#[test]
fn unknown_setting_maps_to_400() {
    let db = social_db();
    let server = start(&db, ServerConfig::default());
    for name in ["bogus", "graph_index", "path_index", "plan_cache_size"] {
        let body = Json::Object(vec![
            ("sql".to_string(), Json::from("SELECT * FROM friends")),
            ("settings".to_string(), Json::Object(vec![(name.to_string(), Json::Int(0))])),
        ])
        .encode();
        let resp = client::post(server.addr(), "/query", &body).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains(&format!("unknown setting '{name}'")), "{}", resp.body);

        let config = ServerConfig {
            settings: vec![(name.to_string(), "off".to_string())],
            ..ServerConfig::default()
        };
        let err = serve(Arc::clone(&db), config).err().expect("serve must refuse");
        assert!(err.to_string().contains(&format!("unknown setting '{name}'")), "{err}");
    }
    server.shutdown();
}

#[test]
fn health_stats_and_routing() {
    let db = social_db();
    let server = start(&db, ServerConfig::default());
    let addr = server.addr();

    let resp = client::get(addr, "/health").unwrap();
    assert_eq!((resp.status, resp.body.as_str()), (200, r#"{"status":"ok"}"#));

    client::post(addr, "/query", &query_body(Q13, &[1, 4])).unwrap();
    assert_eq!(metric(addr, "gsql_plan_cache_misses_total"), 1.0);
    assert_eq!(metric(addr, "gsql_plan_cache_entries"), 1.0);
    let requests = "gsql_http_request_duration_microseconds_count{endpoint=\"query\"}";
    assert_eq!(metric(addr, requests), 1.0);

    // The legacy `/stats` view is gone: everything it showed is a
    // `/metrics` family or a `SHOW` away.
    assert_eq!(client::get(addr, "/stats").unwrap().status, 404);
    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(addr, "/query").unwrap().status, 405);
    assert_eq!(client::post(addr, "/health", "").unwrap().status, 405);
    server.shutdown();
}

/// `SHOW` over `/query` reports the execution granularity of the worker
/// sessions — with `ServerConfig::settings` applied, so operators can see
/// the morsel size at which concurrent sessions interleave on the pool.
#[test]
fn stats_reports_worker_execution_granularity() {
    let db = social_db();
    let settings = vec![
        ("morsel_rows".to_string(), "1024".to_string()),
        ("threads".to_string(), "3".to_string()),
    ];
    let server = start(&db, ServerConfig { settings, ..ServerConfig::default() });
    assert_eq!(show(server.addr(), "morsel_rows"), "1024");
    assert_eq!(show(server.addr(), "threads"), "3");
    let resp = client::post(server.addr(), "/query", &query_body("SHOW pipeline", &[])).unwrap();
    assert_eq!(resp.status, 400, "the retired knob is not a setting: {}", resp.body);
    server.shutdown();
}

/// Per-request `morsel_rows` / `threads` overrides reshape the morsel
/// schedule for one statement only, and every configuration returns
/// identical rows (the engine's determinism contract, observed through
/// HTTP). The retired `pipeline` knob is an unknown setting: 400.
#[test]
fn pipeline_overrides_are_per_request_and_results_identical() {
    let db = social_db();
    let server = start(&db, ServerConfig { workers: 1, ..ServerConfig::default() });
    let sql = "SELECT f.dst, COUNT(*) AS n FROM friends f WHERE f.weight > 0 \
               GROUP BY f.dst ORDER BY f.dst";
    let mut bodies = Vec::new();
    for settings in [
        Json::Object(vec![("threads".to_string(), Json::Int(1))]),
        Json::Object(vec![
            ("threads".to_string(), Json::Int(4)),
            ("morsel_rows".to_string(), Json::Int(1)),
        ]),
        Json::Object(Vec::new()),
    ] {
        let body = Json::Object(vec![
            ("sql".to_string(), Json::from(sql)),
            ("settings".to_string(), settings),
        ])
        .encode();
        let resp = client::post(server.addr(), "/query", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        bodies.push(rows_of(&resp.body));
    }
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[0], bodies[2]);
    // The overrides did not stick to the (single) worker's session.
    assert_ne!(show(server.addr(), "morsel_rows"), "1");

    let body = Json::Object(vec![
        ("sql".to_string(), Json::from(sql)),
        ("settings".to_string(), Json::Object(vec![("pipeline".to_string(), Json::from("off"))])),
    ])
    .encode();
    let resp = client::post(server.addr(), "/query", &body).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("unknown setting 'pipeline'"), "{}", resp.body);
    server.shutdown();
}

/// Eight clients hammer the same query concurrently; every response must
/// be 200 with identical rows.
#[test]
fn concurrent_clients_get_consistent_results() {
    let db = social_db();
    let server = start(&db, ServerConfig { workers: 4, ..ServerConfig::default() });
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut bodies = Vec::new();
                for _ in 0..5 {
                    let resp = client::post(addr, "/query", &query_body(Q13, &[1, 3])).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    bodies.push(resp.body);
                }
                bodies
            })
        })
        .collect();
    for handle in handles {
        for body in handle.join().unwrap() {
            assert_eq!(rows_of(&body), vec![Json::Array(vec![Json::Int(2)])]);
        }
    }
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0);
    assert_eq!(report.admitted, 40);
}

/// Acceptance: concurrent HTTP clients share ONE plan-cache entry. A warm
/// request binds the plan (the single miss); the N−1 that follow — spread
/// across worker sessions — are all hits on the same entry.
#[test]
fn concurrent_clients_share_one_plan_cache_entry() {
    let db = social_db();
    let server = start(&db, ServerConfig { workers: 4, ..ServerConfig::default() });
    let addr = server.addr();

    let warm = client::post(addr, "/query", &query_body(Q13, &[1, 4])).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);

    let handles: Vec<_> = (0..7)
        .map(|i| {
            std::thread::spawn(move || {
                let resp =
                    client::post(addr, "/query", &query_body(Q13, &[1, 2 + (i % 3)])).unwrap();
                assert_eq!(resp.status, 200, "{}", resp.body);
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    server.shutdown();

    let stats = db.session().cache_stats();
    assert_eq!(stats.misses, 1, "exactly one bind across all sessions");
    assert_eq!(stats.hits, 7, "every other request reused the shared plan");
    assert_eq!(stats.entries, 1, "one entry serves all workers");
}

/// A request that deliberately stops after the header block. The worker
/// that picks it up blocks reading the body, pinning it until `finish`.
struct HalfSentRequest {
    conn: TcpStream,
    body: String,
}

impl HalfSentRequest {
    fn begin(addr: std::net::SocketAddr, body: String) -> HalfSentRequest {
        let mut conn = TcpStream::connect(addr).unwrap();
        let head = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        conn.write_all(head.as_bytes()).unwrap();
        conn.flush().unwrap();
        HalfSentRequest { conn, body }
    }

    /// Send the body and read the (full) response, returning its status.
    fn finish(mut self) -> u16 {
        self.conn.write_all(self.body.as_bytes()).unwrap();
        self.conn.flush().unwrap();
        let mut raw = String::new();
        self.conn.read_to_string(&mut raw).unwrap();
        raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line")
    }
}

/// Poll a counter until it reaches `want` (the acceptor/worker threads run
/// asynchronously to the test).
fn wait_for(what: &str, want: u64, get: impl Fn() -> u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while get() < want {
        assert!(Instant::now() < deadline, "{what} never reached {want} (at {})", get());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Admission control: with one worker pinned and the depth-1 queue holding
/// one more connection, further requests bounce with 503 + Retry-After.
#[test]
fn saturated_queue_returns_503_with_retry_after() {
    let db = social_db();
    let server = start(&db, ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() });
    let addr = server.addr();

    // Pin the worker: it pops this connection and blocks on the body.
    let pinned = HalfSentRequest::begin(addr, query_body(Q13, &[1, 3]));
    wait_for("admitted", 1, || server.stats().admitted.get());
    // The worker must have *popped* it before the next one lands in the
    // queue slot; admission counts at push, so give the pop a moment.
    std::thread::sleep(Duration::from_millis(50));

    // Fills the single queue slot.
    let queued = HalfSentRequest::begin(addr, query_body(Q13, &[1, 3]));
    wait_for("admitted", 2, || server.stats().admitted.get());

    // Queue full, worker busy: refused at the door.
    let resp = client::post(addr, "/query", &query_body(Q13, &[1, 3])).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.header("Retry-After"), Some("1"));
    assert!(resp.body.contains("retry"), "{}", resp.body);

    // Unpin; both held requests complete normally.
    assert_eq!(pinned.finish(), 200);
    assert_eq!(queued.finish(), 200);
    let report = server.shutdown();
    assert_eq!(report.refused, 1);
    assert_eq!(report.dropped(), 0);
}

/// Graceful shutdown: every admitted connection — the one a worker is
/// mid-request on AND the ones still waiting in the queue — gets a real
/// response before the server exits. Zero dropped.
#[test]
fn graceful_shutdown_drains_admitted_queries() {
    let db = social_db();
    let server = start(&db, ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });
    let addr = server.addr();
    let stats = Arc::clone(server.stats());

    let pinned = HalfSentRequest::begin(addr, query_body(Q13, &[1, 3]));
    wait_for("admitted", 1, || stats.admitted.get());
    std::thread::sleep(Duration::from_millis(50)); // let the worker pop it

    // Three more pile up in the queue behind the pinned request.
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                client::post(addr, "/query", &query_body(Q13, &[1, 4])).unwrap()
            })
        })
        .collect();
    wait_for("admitted", 4, || stats.admitted.get());

    // Shutdown starts draining while the worker is still mid-request.
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(pinned.finish(), 200, "in-flight request served during drain");

    let report = shutdown.join().unwrap();
    for client in clients {
        let resp = client.join().unwrap();
        assert_eq!(resp.status, 200, "queued request served during drain: {}", resp.body);
    }
    assert_eq!(report.admitted, 4);
    assert_eq!(report.dropped(), 0, "graceful shutdown dropped queries: {report:?}");

    // And the server is actually gone.
    assert!(client::get(addr, "/health").is_err() || TcpStream::connect(addr).is_err());
}

/// A per-request `timeout_ms` interrupts a long batched traversal from
/// inside execution and surfaces as 408.
#[test]
fn request_timeout_interrupts_long_traversals_with_408() {
    // A 20k-node chain; 64 batched shortest paths over it take well over
    // a millisecond in any build profile.
    let db = Database::new();
    db.execute("CREATE TABLE chain (src INTEGER NOT NULL, dst INTEGER NOT NULL)").unwrap();
    let n = 20_000;
    let mut values = String::new();
    for i in 1..n {
        if i > 1 {
            values.push_str(", ");
        }
        values.push_str(&format!("({i}, {})", i + 1));
    }
    db.execute(&format!("INSERT INTO chain VALUES {values}")).unwrap();
    let db = Arc::new(db);
    let server = start(&db, ServerConfig::default());

    let mut pairs = String::new();
    for s in 1..=64 {
        if s > 1 {
            pairs.push_str(", ");
        }
        pairs.push_str(&format!("({s}, {n})"));
    }
    let slow_sql = format!(
        "WITH pairs (s, d) AS (VALUES {pairs}) \
         SELECT pairs.s, CHEAPEST SUM(1) AS distance \
         FROM pairs WHERE pairs.s REACHES pairs.d OVER chain EDGE (src, dst)"
    );
    let body = Json::Object(vec![
        ("sql".to_string(), Json::from(slow_sql.as_str())),
        ("settings".to_string(), Json::Object(vec![("timeout_ms".to_string(), Json::Int(1))])),
    ])
    .encode();
    let resp = client::post(server.addr(), "/query", &body).unwrap();
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(resp.body.contains("timeout"), "{}", resp.body);

    // Without the timeout the same statement completes.
    let body = Json::Object(vec![("sql".to_string(), Json::from(slow_sql.as_str()))]).encode();
    let resp = client::post(server.addr(), "/query", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(rows_of(&resp.body).len(), 64);

    assert_eq!(metric(server.addr(), "gsql_http_query_timeouts_total"), 1.0);
    server.shutdown();
}
