//! # gsql-server
//!
//! The query-serving tier: an HTTP front-end over a shared
//! [`Database`], turning the embedded engine into something N clients can
//! talk to concurrently. Hand-rolled over `std::net` — the build
//! environment is offline, so there is no hyper/tokio/serde; the HTTP and
//! JSON layers live in [`http`] and [`json`].
//!
//! Architecture:
//!
//! * an **acceptor** thread owns the listener and pushes accepted
//!   connections into a **bounded queue** — when the queue is full the
//!   acceptor answers `503` with `Retry-After` immediately instead of
//!   letting latency collapse (admission control);
//! * a fixed pool of **worker** threads each owns one
//!   [`Database::shared_session`]; workers pull connections, parse one
//!   request, execute, respond, close. Because the sessions share the
//!   database-wide [plan cache](gsql_core::SharedPlanCache), a query text
//!   is bound and optimized once no matter which worker sees it;
//! * every `/query` runs under a **deadline** ([`ServerConfig`]'s cap
//!   and/or the request's `timeout_ms` setting), enforced inside the
//!   executor so runaway traversals are interrupted, not just reported;
//! * [`ServerHandle::shutdown`] drains: stop accepting, let workers finish
//!   every admitted connection, then join. The [`ShutdownReport`] proves
//!   no admitted query was dropped.
//!
//! Endpoints:
//!
//! * `POST /query` — body `{"sql": "...", "params": [...], "settings":
//!   {...}}`; answers `{"columns": [...], "rows": [[...]]}` for result
//!   sets, `{"affected": n}` for DML, `{"ok": true}` otherwise. Add
//!   `"trace": true` to get the statement's span tree inline under
//!   `"trace"` (see `SET trace` in gsql-core).
//! * `GET /health` — liveness probe.
//! * `GET /metrics` — every engine and server instrument in Prometheus
//!   text exposition format (plan cache, admission, in-flight gauge,
//!   per-endpoint latency, …). The worker sessions' settings are read with
//!   `SHOW` over `/query`.
//! * `GET /slowlog` — the bounded ring of slow-query records (`SET
//!   slow_query_ms`), newest last.
//!
//! ```
//! use gsql_core::Database;
//! use gsql_server::{client, serve, ServerConfig};
//! use std::sync::Arc;
//!
//! let db = Arc::new(Database::new());
//! db.execute("CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL)").unwrap();
//! db.execute("INSERT INTO e VALUES (1, 2), (2, 3)").unwrap();
//! let server = serve(db, ServerConfig::default()).unwrap();
//! let resp = client::post(
//!     server.addr(),
//!     "/query",
//!     r#"{"sql": "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
//!         "params": [1, 3]}"#,
//! )
//! .unwrap();
//! assert_eq!(resp.status, 200);
//! assert!(resp.body.contains("\"rows\":[[2]]"), "{}", resp.body);
//! let report = server.shutdown();
//! assert_eq!(report.dropped(), 0);
//! ```

pub mod client;
pub mod http;
pub mod json;
pub mod stats;

use gsql_core::{Database, Error, QueryResult, Session};
use gsql_storage::Value;
use json::Json;
use stats::{InFlight, ServerStats};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server is sized and bounded.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads — each owns one shared-cache session.
    pub workers: usize,
    /// Accepted connections waiting for a worker before new ones get 503.
    pub queue_depth: usize,
    /// Wall-clock cap applied to every `/query`; a request's own
    /// `timeout_ms` setting can only tighten it. `None` = no server cap.
    pub default_timeout_ms: Option<u64>,
    /// `SET name = value` pairs applied to every worker session at startup
    /// (e.g. `("threads", "4")`).
    pub settings: Vec<(String, String)>,
    /// Data directory for a durable serving tier. The server itself never
    /// reads this — it serves whatever [`Database`] it is handed — but the
    /// launcher (`gsql-shell --serve --data-dir <path>`) uses it to decide
    /// between `Database::open` and an in-memory `Database::new`.
    pub data_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            default_timeout_ms: None,
            settings: Vec::new(),
            data_dir: None,
        }
    }
}

/// What the drain at shutdown observed. `admitted == responded` is the
/// no-dropped-queries invariant; [`ShutdownReport::dropped`] is 0 iff it
/// held.
#[derive(Debug, Clone, Copy)]
pub struct ShutdownReport {
    /// Connections accepted and handed to the worker pool.
    pub admitted: u64,
    /// Connections a worker settled (response written, or the client had
    /// already gone away).
    pub responded: u64,
    /// Connections turned away with 503 (full queue) — never admitted, so
    /// never counted as dropped.
    pub refused: u64,
}

impl ShutdownReport {
    /// Admitted connections that never got a response. Graceful shutdown
    /// drains the queue, so this is 0 unless a worker thread died.
    pub fn dropped(&self) -> u64 {
        self.admitted.saturating_sub(self.responded)
    }
}

/// A running server; dropping it without calling
/// [`shutdown`](ServerHandle::shutdown) detaches the threads.
pub struct ServerHandle {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    shutting_down: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Graceful shutdown: stop accepting, drain every admitted connection,
    /// join all threads, report what happened.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutting_down.store(true, Ordering::SeqCst);
        // The acceptor is blocked in accept(); poke it awake. If the
        // connect fails the listener is already gone and join returns.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // No more pushes can happen; closing lets workers run the queue
        // dry and exit instead of blocking for more work.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Read responded before admitted: were anything still settling,
        // the invariant `responded <= admitted` could only be understated,
        // never violated.
        let responded = self.stats.responded.get();
        ShutdownReport {
            admitted: self.stats.admitted.get(),
            responded,
            refused: self.stats.refused.get(),
        }
    }
}

/// Start serving `db` on `config.addr`. Fails fast on a bad bind address
/// or invalid `config.settings` (they are dry-run against a throwaway
/// session before any thread spawns).
pub fn serve(db: Arc<Database>, config: ServerConfig) -> io::Result<ServerHandle> {
    if config.workers == 0 || config.queue_depth == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "workers and queue_depth must be at least 1",
        ));
    }
    {
        let probe = db.session();
        for (name, value) in &config.settings {
            probe.set(name, value).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("bad setting: {e}"))
            })?;
        }
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stats = Arc::new(ServerStats::new(db.metrics()));
    let shutting_down = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(ConnQueue::new(config.queue_depth));
    let config = Arc::new(config);

    let acceptor = {
        let (queue, stats, shutting_down) =
            (Arc::clone(&queue), Arc::clone(&stats), Arc::clone(&shutting_down));
        std::thread::Builder::new()
            .name("gsql-acceptor".into())
            .spawn(move || accept_loop(listener, &queue, &stats, &shutting_down))?
    };

    let mut workers = Vec::with_capacity(config.workers);
    for i in 0..config.workers {
        let (db, queue, stats, config) =
            (Arc::clone(&db), Arc::clone(&queue), Arc::clone(&stats), Arc::clone(&config));
        workers.push(
            std::thread::Builder::new()
                .name(format!("gsql-worker-{i}"))
                .spawn(move || worker_loop(&db, &queue, &stats, &config))?,
        );
    }

    Ok(ServerHandle { addr, stats, shutting_down, queue, acceptor: Some(acceptor), workers })
}

/// The bounded handoff between the acceptor and the workers.
struct ConnQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    /// Each admitted connection with its enqueue instant, so the worker
    /// that picks it up can observe the admission-queue wait.
    conns: VecDeque<(TcpStream, Instant)>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            capacity,
            state: Mutex::new(QueueState { conns: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Non-blocking admit; hands the connection back when the queue is
    /// full (or closed) so the caller can refuse it.
    fn push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed || state.conns.len() >= self.capacity {
            return Err(conn);
        }
        state.conns.push_back((conn, Instant::now()));
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking take; `None` once the queue is closed *and* empty, so a
    /// close still drains everything already admitted. The second element
    /// is how long the connection waited for this worker.
    fn pop(&self) -> Option<(TcpStream, Duration)> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some((conn, enqueued)) = state.conns.pop_front() {
                return Some((conn, enqueued.elapsed()));
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

fn accept_loop(
    listener: TcpListener,
    queue: &ConnQueue,
    stats: &ServerStats,
    shutting_down: &AtomicBool,
) {
    loop {
        let Ok((conn, _)) = listener.accept() else { continue };
        if shutting_down.load(Ordering::SeqCst) {
            // The shutdown wake-up poke (or a client racing it); either
            // way no new work is admitted.
            break;
        }
        match queue.push(conn) {
            Ok(()) => {
                stats.admitted.inc();
                stats.queue_depth.add(1);
            }
            Err(mut conn) => {
                stats.refused.inc();
                let body = error_body("server saturated, retry shortly");
                let _ = http::write_response(&mut conn, 503, &body, &[("Retry-After", "1")]);
                // Lingering close: the client may still be writing its
                // request; closing with unread data in the buffer would
                // RST and can destroy the 503 before the client reads it.
                // Drain (briefly) until the client finishes, then close.
                let _ = conn.shutdown(std::net::Shutdown::Write);
                let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
                let mut sink = [0u8; 4096];
                while matches!(io::Read::read(&mut conn, &mut sink), Ok(n) if n > 0) {}
            }
        }
    }
}

fn worker_loop(db: &Arc<Database>, queue: &ConnQueue, stats: &ServerStats, config: &ServerConfig) {
    let session = db.shared_session();
    for (name, value) in &config.settings {
        // Validated in serve(); a failure here would mean the database
        // changed meaning under us, so just skip rather than die.
        let _ = session.set(name, value);
    }
    while let Some((conn, waited)) = queue.pop() {
        stats.queue_depth.sub(1);
        stats.queue_wait.observe(u64::try_from(waited.as_micros()).unwrap_or(u64::MAX));
        // handle_connection settles the connection — one `responded` tick
        // paired with one latency observation, on every path. That
        // balances `admitted`: the no-dropped-queries invariant at
        // shutdown.
        handle_connection(db, &session, conn, stats, config);
    }
}

/// Parse one request, route it, write the response, close.
///
/// Every path through here settles the connection **exactly once**: one
/// latency observation on an endpoint histogram paired with one
/// `responded` tick. Requests that never reach a real endpoint (vanished
/// clients, unparseable requests, unknown paths, wrong methods) settle on
/// the `other` histogram — so the request-duration histogram's total count
/// equals `responded` at every instant.
fn handle_connection(
    db: &Database,
    session: &Session<'_>,
    conn: TcpStream,
    stats: &ServerStats,
    config: &ServerConfig,
) {
    const JSON: &str = "application/json";
    const PROM: &str = "text/plain; version=0.0.4";
    let started = Instant::now();
    let settle = |endpoint: &stats::EndpointStats| {
        endpoint.record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        stats.responded.inc();
    };
    let Ok(read_half) = conn.try_clone() else {
        settle(&stats.other);
        return;
    };
    let mut conn = conn;
    let request = http::read_request(&mut BufReader::new(read_half));
    let (status, body, endpoint, content_type) = match request {
        Err(http::RequestError::Io(_)) => {
            // Client went away mid-request; nothing to write back.
            settle(&stats.other);
            return;
        }
        Err(http::RequestError::Malformed(msg)) => (400, error_body(&msg), &stats.other, JSON),
        Err(http::RequestError::TooLarge(msg)) => (413, error_body(&msg), &stats.other, JSON),
        Ok(req) => match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/query") => {
                let (status, body) = handle_query(session, &req.body, stats, config);
                (status, body, &stats.query, JSON)
            }
            ("GET", "/health") => (200, r#"{"status":"ok"}"#.to_string(), &stats.health, JSON),
            ("GET", "/metrics") => {
                (200, db.metrics().registry().render(), &stats.metrics_endpoint, PROM)
            }
            ("GET", "/slowlog") => {
                (200, db.slow_log().render_json(), &stats.slowlog_endpoint, JSON)
            }
            (_, "/query" | "/health" | "/metrics" | "/slowlog") => {
                (405, error_body("method not allowed on this endpoint"), &stats.other, JSON)
            }
            _ => (404, error_body("no such endpoint"), &stats.other, JSON),
        },
    };
    // Record before writing, so a client that saw the response (and may
    // immediately GET /metrics from another worker) finds it counted.
    settle(endpoint);
    let _ = http::write_response_typed(&mut conn, status, &body, content_type, &[]);
}

/// Execute one `/query` request body against the worker's session.
fn handle_query(
    session: &Session<'_>,
    body: &[u8],
    stats: &ServerStats,
    config: &ServerConfig,
) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, error_body("body is not UTF-8"));
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return (400, error_body(&e.to_string())),
    };
    let Some(sql) = doc.get("sql").and_then(Json::as_str) else {
        return (400, error_body("missing string field 'sql'"));
    };
    let params = match doc.get("params") {
        None => Vec::new(),
        Some(p) => match convert_params(p) {
            Ok(params) => params,
            Err(msg) => return (400, error_body(&msg)),
        },
    };

    // Per-request setting overrides are applied to the worker session for
    // the duration of this statement and restored afterwards, success or
    // not — the next request must not inherit them.
    let mut saved: Vec<(String, String)> = Vec::new();
    if let Some(overrides) = doc.get("settings") {
        if let Err(msg) = apply_overrides(session, overrides, &mut saved) {
            restore_settings(session, &saved);
            return (400, error_body(&msg));
        }
    }
    // `"trace": true` turns span collection on for just this statement
    // (without downgrading an explicit `settings.trace = verbose`); the
    // collected tree rides back inline under `"trace"`.
    let want_trace = matches!(doc.get("trace"), Some(Json::Bool(true)));
    if want_trace {
        if let Ok(old) = session.setting("trace") {
            if old == "off" && session.set("trace", "on").is_ok() {
                saved.push(("trace".to_string(), old));
            }
        }
    }

    let in_flight = InFlight::enter(stats);
    let result = match config.default_timeout_ms {
        // execute_with_timeout takes the tighter of the server cap and the
        // session's (possibly request-overridden) timeout_ms setting.
        Some(cap) => session.execute_with_timeout(sql, &params, Duration::from_millis(cap)),
        None => session.execute_with_params(sql, &params),
    };
    drop(in_flight);
    restore_settings(session, &saved);

    match result {
        Ok(result) => {
            let mut members = result_members(&result);
            if want_trace {
                if let Some(spans) = session.last_trace_json().and_then(|t| json::parse(&t).ok()) {
                    members.push(("trace".to_string(), spans));
                }
            }
            (200, Json::Object(members).encode())
        }
        Err(e) => {
            stats.query_errors.inc();
            if matches!(e, Error::Timeout { .. }) {
                stats.query_timeouts.inc();
            }
            (error_status(&e), error_body(&e.to_string()))
        }
    }
}

/// Map engine errors onto HTTP statuses: the request was wrong (400), the
/// request ran too long (408), or the statement failed at runtime (422).
fn error_status(e: &Error) -> u16 {
    match e {
        Error::Parse(_) | Error::Bind(_) | Error::Unsupported(_) | Error::Storage(_) => 400,
        Error::Timeout { .. } => 408,
        Error::Exec(_) | Error::Graph(_) => 422,
    }
}

fn convert_params(params: &Json) -> Result<Vec<Value>, String> {
    let Some(items) = params.as_array() else {
        return Err("'params' must be an array".to_string());
    };
    items
        .iter()
        .map(|p| match p {
            Json::Null => Ok(Value::Null),
            Json::Bool(v) => Ok(Value::Bool(*v)),
            Json::Int(v) => Ok(Value::Int(*v)),
            Json::Float(v) => Ok(Value::Double(*v)),
            Json::Str(s) => Ok(Value::Str(s.clone())),
            Json::Array(_) | Json::Object(_) => {
                Err("parameters must be scalars (null/bool/number/string)".to_string())
            }
        })
        .collect()
}

fn apply_overrides(
    session: &Session<'_>,
    overrides: &Json,
    saved: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let Json::Object(members) = overrides else {
        return Err("'settings' must be an object".to_string());
    };
    for (name, value) in members {
        let rendered = match value {
            Json::Str(s) => s.clone(),
            Json::Int(v) => v.to_string(),
            Json::Float(v) => v.to_string(),
            Json::Bool(v) => if *v { "on" } else { "off" }.to_string(),
            _ => return Err(format!("setting '{name}' must be a scalar")),
        };
        let old = session.setting(name).map_err(|e| e.to_string())?;
        session.set(name, &rendered).map_err(|e| e.to_string())?;
        saved.push((name.clone(), old));
    }
    Ok(())
}

fn restore_settings(session: &Session<'_>, saved: &[(String, String)]) {
    for (name, old) in saved {
        let _ = session.set(name, old);
    }
}

/// `{"error": "..."}`
fn error_body(message: &str) -> String {
    Json::Object(vec![("error".to_string(), Json::from(message))]).encode()
}

fn result_members(result: &QueryResult) -> Vec<(String, Json)> {
    match result {
        QueryResult::Table(t) => {
            let columns: Vec<Json> =
                t.schema().columns().iter().map(|c| Json::from(c.name.as_str())).collect();
            let rows: Vec<Json> = (0..t.row_count())
                .map(|i| Json::Array(t.row(i).iter().map(value_to_json).collect()))
                .collect();
            vec![
                ("columns".to_string(), Json::Array(columns)),
                ("rows".to_string(), Json::Array(rows)),
                ("row_count".to_string(), Json::from(t.row_count())),
            ]
        }
        QueryResult::Affected(n) => vec![("affected".to_string(), Json::from(*n))],
        QueryResult::Ok => vec![("ok".to_string(), Json::Bool(true))],
    }
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(v) => Json::Int(*v),
        Value::Double(v) => Json::Float(*v),
        Value::Str(s) => Json::from(s.as_str()),
        Value::Bool(v) => Json::Bool(*v),
        // Dates and nested-table paths serialize as their SQL text.
        other => Json::from(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_hands_back_when_full_and_drains_after_close() {
        let queue = ConnQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let c1 = TcpStream::connect(addr).unwrap();
        let c2 = TcpStream::connect(addr).unwrap();
        assert!(queue.push(c1).is_ok());
        assert!(queue.push(c2).is_err(), "second push must bounce off capacity 1");
        queue.close();
        assert!(queue.pop().is_some(), "close still drains admitted connections");
        assert!(queue.pop().is_none());
        let c3 = TcpStream::connect(addr).unwrap();
        assert!(queue.push(c3).is_err(), "closed queue admits nothing");
    }

    #[test]
    fn config_validation_fails_fast() {
        let db = Arc::new(Database::new());
        let bad = ServerConfig { workers: 0, ..ServerConfig::default() };
        assert!(serve(Arc::clone(&db), bad).is_err());
        let bad = ServerConfig {
            settings: vec![("bogus".to_string(), "1".to_string())],
            ..ServerConfig::default()
        };
        assert!(serve(db, bad).is_err());
    }
}
