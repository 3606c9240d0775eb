//! `serve_mixed`: `POST /query` against `gsql_server::serve` from `nproc`
//! closed-loop clients — three Q13 requests to every 8-pair batch — over an
//! indexed graph, so the engine costs microseconds and the HTTP tier
//! (connect, parse, queue handoff, JSON encode) carries the latency. The
//! loop is closed because the callers are application tiers waiting on
//! replies.

use super::snb::expected_batch;
use super::{
    batched_q13, per_op_us, sample_pairs, Cfg, Phase, RunMode, SetupParts, SnbEnv, Workload, EXEC,
    Q13, SERVER,
};
use crate::report::Report;
use crate::samples::Samples;
use crate::spans::{Tracer, OP, REPLAY};
use gsql_core::{Database, QueryResult};
use gsql_server::json::{self, Json};
use gsql_server::{client, serve, ServerConfig, ServerHandle};
use gsql_storage::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pairs in every fourth request.
const BATCH: usize = 8;

struct Request {
    pairs: Vec<(i64, i64)>,
    sql: String,
    params: Vec<Value>,
    body: String,
}

impl Request {
    fn new(pairs: Vec<(i64, i64)>) -> Request {
        let (sql, params) = match pairs[..] {
            [(s, d)] => (Q13.to_string(), vec![Value::Int(s), Value::Int(d)]),
            _ => (batched_q13(&pairs), Vec::new()),
        };
        let json_params = params.iter().filter_map(Value::as_int).map(Json::Int).collect();
        let body = Json::Object(vec![
            ("sql".to_string(), Json::from(sql.as_str())),
            ("params".to_string(), Json::Array(json_params)),
        ])
        .encode();
        Request { pairs, sql, params, body }
    }
}

/// Status and body of one response, or the transport error.
type Reply = Result<(u16, String), String>;

pub struct ServeMixed {
    cfg: Cfg,
    env: SnbEnv,
    server: Option<ServerHandle>,
    pool: Vec<Request>,
    records: Vec<(u32, Reply)>,
}

fn start(db: &Arc<Database>, workers: usize, engine_trace: bool) -> ServerHandle {
    let settings =
        if engine_trace { vec![("trace".to_string(), "on".to_string())] } else { Vec::new() };
    let config = ServerConfig { workers, queue_depth: 256, settings, ..ServerConfig::default() };
    serve(Arc::clone(db), config).expect("server starts on an ephemeral port")
}

fn post(addr: SocketAddr, body: &str) -> Reply {
    client::post(addr, "/query", body).map(|r| (r.status, r.body)).map_err(|e| e.to_string())
}

/// The response's rows as sorted integer tuples.
fn reply_rows(reply: &Reply) -> Option<Vec<Vec<i64>>> {
    let (status, body) = reply.as_ref().ok()?;
    if *status != 200 {
        return None;
    }
    let doc = json::parse(body).ok()?;
    let mut rows = doc
        .get("rows")?
        .as_array()?
        .iter()
        .map(|row| row.as_array()?.iter().map(Json::as_i64).collect::<Option<Vec<i64>>>())
        .collect::<Option<Vec<_>>>()?;
    rows.sort_unstable();
    Some(rows)
}

/// The rows document the server encodes for a result set.
fn rows_document(result: &QueryResult) -> (Json, usize) {
    let QueryResult::Table(t) = result else {
        return (Json::Null, 0);
    };
    let cell = |v: &Value| v.as_int().map_or_else(|| Json::from(v.to_string()), Json::Int);
    let rows = (0..t.row_count()).map(|i| Json::Array(t.row(i).iter().map(cell).collect()));
    (Json::Object(vec![("rows".to_string(), Json::Array(rows.collect()))]), t.row_count())
}

impl Workload for ServeMixed {
    fn setup(cfg: &Cfg) -> (Self, SetupParts) {
        let (env, mut parts) = SnbEnv::setup(cfg, true);
        let t0 = Instant::now();
        let server = start(&env.db, cfg.nproc, false);
        parts.load_s += t0.elapsed().as_secs_f64();
        let mut rng = cfg.rng(6);
        let pool = (0..cfg.scale(512, 16))
            .map(|i| {
                let pairs = if i % 4 == 3 { BATCH } else { 1 };
                Request::new(sample_pairs(&mut rng, env.num_persons, pairs))
            })
            .collect();
        let mixed =
            ServeMixed { cfg: cfg.clone(), env, server: Some(server), pool, records: Vec::new() };
        (mixed, parts)
    }

    fn db(&self) -> &Database {
        &self.env.db
    }

    fn warmup(&mut self) {
        let addr = self.server.as_ref().expect("server is up").addr();
        for request in self.pool.iter().take(16) {
            post(addr, &request.body).expect("warm-up");
        }
    }

    fn run(&mut self, deadline: Instant, mode: RunMode<'_>) -> Phase {
        let clients = self.cfg.nproc;
        let traced_server = mode.engine_trace().then(|| start(&self.env.db, clients, true));
        let addr = traced_server.as_ref().or(self.server.as_ref()).expect("server is up").addr();
        let epoch = Instant::now();
        let spans = matches!(mode, RunMode::Spans(_));
        let pool = &self.pool;
        let started = Instant::now();
        let per_client: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut tracer = spans.then(|| Tracer::new(epoch));
                        let mut samples = Samples::new();
                        let mut records = Vec::new();
                        let mut idx = c;
                        while Instant::now() < deadline {
                            let request = &pool[idx % pool.len()];
                            let id = (idx % pool.len()) as u32;
                            let (reply, took) = super::timed(&mut tracer.as_mut(), id, || {
                                post(addr, &request.body)
                            });
                            samples.push(took);
                            records.push((id, reply));
                            idx += clients;
                        }
                        (samples, records, tracer)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let elapsed = started.elapsed();
        if let Some(server) = traced_server {
            server.shutdown();
        }
        let mut logs = Vec::with_capacity(clients);
        for (samples, records, tracer) in per_client {
            self.records.extend(records);
            logs.push((samples, tracer));
        }
        Phase { samples: mode.merge_clients(logs), elapsed }
    }

    fn verify(&mut self, report: &mut Report) -> (u64, u64) {
        let mut oracle = self.env.oracle(&self.cfg);
        oracle.build();
        let expected = super::par_map(&self.pool, self.cfg.nproc, |request| {
            let mut rows: Vec<Vec<i64>> = match request.pairs[..] {
                [(s, d)] => oracle.hops(s, d).map(|h| vec![h]).into_iter().collect(),
                _ => expected_batch(&oracle, &request.pairs)
                    .into_iter()
                    .map(|(s, d, h)| vec![s, d, h])
                    .collect(),
            };
            rows.sort_unstable();
            rows
        });
        let mut failed = self
            .records
            .iter()
            .filter(|(idx, reply)| reply_rows(reply).as_ref() != Some(&expected[*idx as usize]))
            .count() as u64;
        let refused = self.records.iter().filter(|(_, r)| matches!(r, Ok((503, _)))).count() as f64;
        report.put("refused_ratio", refused / self.records.len().max(1) as f64, "ratio");
        // Draining is part of the answer: an admitted request that never got
        // a response is a failed operation.
        if let Some(server) = self.server.take() {
            let drained = server.shutdown();
            failed += drained.dropped();
            report.note("server_admitted", drained.admitted);
            report.note("server_dropped", drained.dropped());
        }
        (self.records.len() as u64, failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, report: &mut Report) {
        let db = Arc::clone(&self.env.db);
        let addr = self.server.as_ref().expect("server is up").addr();
        let session = db.shared_session();
        let replayed = self.pool.len().min(self.cfg.scale(256, 8));
        let (mut http_t, mut engine_t, mut health_t, mut encode_t, mut rows) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO, 0usize);
        for (idx, request) in self.pool.iter().take(replayed).enumerate() {
            let id = idx as u32;
            let (reply, took) = tracer.time(OP, None, id, || post(addr, &request.body));
            http_t += took;
            self.records.push((id, reply));

            let root = tracer.begin(REPLAY, None, id);
            let (result, took) = tracer.time(EXEC, Some(root), id, || {
                session.execute_with_params(&request.sql, &request.params)
            });
            tracer.end(root);
            engine_t += took;
            // Two parts of the HTTP tier, measured alone and reported as
            // informational values (they sit inside the `server` remainder):
            // a round trip that reaches no engine code, and the encoding of
            // this result's rows.
            let t0 = Instant::now();
            let _ = client::get(addr, "/health");
            health_t += t0.elapsed();
            if let Ok(result) = result {
                let (doc, n) = rows_document(&result);
                let t0 = Instant::now();
                std::hint::black_box(doc.encode());
                encode_t += t0.elapsed();
                rows += n;
            }
        }
        let per_request = |t: Duration| per_op_us(t, replayed);
        report.put("http_overhead_us", per_request(http_t.saturating_sub(engine_t)), "us/request");
        report.put("health_roundtrip_us", per_request(health_t), "us/request");
        report.put("in_process_us", per_request(engine_t), "us/request");
        report.put(
            "json_encode_ns_per_row",
            encode_t.as_nanos() as f64 / rows.max(1) as f64,
            "ns/row",
        );
        report.note("replayed_ops", replayed);
        report.note("clients", self.cfg.nproc);
    }

    /// `http_overhead_us` by definition: what a request costs beyond the
    /// in-process execution of its statement is the serving tier.
    fn remainder_layer() -> Option<&'static str> {
        Some(SERVER)
    }

    fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
