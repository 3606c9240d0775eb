//! `update_mix`: rounds of one `INSERT INTO friends` followed by nine
//! indexed Q13 reads. The insert stales the graph index, the first read of
//! the round pays the lazy rebuild, the other eight are plan-cache hits
//! over the cached graph.

use super::{
    first_int, open_session, per_op_us, sample_pairs, timed, Cfg, Phase, RunMode, SetupParts,
    SnbEnv, Workload, BUILD_GRAPH, GRAPH, Q13,
};
use crate::report::Report;
use crate::samples::Samples;
use crate::spans::{Tracer, OP, REPLAY};
use gsql_core::{build_graph_with_threads, Database};
use gsql_graph::bidirectional_bfs;
use gsql_storage::Value;
use rand::prelude::*;
use rand::rngs::SmallRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statements per round: one write, then the reads.
const ROUND: usize = 10;

/// One statement of the mix, in execution order.
enum Record {
    /// The inserted edge `(src, dst, doubled weight)` and whether it landed.
    Insert((i64, i64, i64), Result<(), String>),
    Read(u32, Result<Option<i64>, String>),
}

pub struct UpdateMix {
    cfg: Cfg,
    env: SnbEnv,
    reads: Vec<(i64, i64)>,
    rng: SmallRng,
    /// Statements issued so far; position in the round carries across loops.
    issued: usize,
    records: Vec<Record>,
}

impl UpdateMix {
    fn next_edge(&mut self) -> (i64, i64, i64) {
        let n = self.env.num_persons as i64;
        (self.rng.gen_range(1..=n), self.rng.gen_range(1..=n), self.rng.gen_range(1..=8))
    }
}

/// Generated SQL text, literals and all: the engine parses every write.
fn insert_sql((s, d, w2): (i64, i64, i64)) -> String {
    format!("INSERT INTO friends VALUES ({s}, {d}, DATE '2012-06-01', {:.1})", w2 as f64 / 2.0)
}

impl Workload for UpdateMix {
    fn setup(cfg: &Cfg) -> (Self, SetupParts) {
        let (env, parts) = SnbEnv::setup(cfg, true);
        let reads = sample_pairs(&mut cfg.rng(4), env.num_persons, cfg.scale(512, 32));
        let mix = UpdateMix {
            cfg: cfg.clone(),
            env,
            reads,
            rng: cfg.rng(5),
            issued: 0,
            records: Vec::new(),
        };
        (mix, parts)
    }

    fn db(&self) -> &Database {
        &self.env.db
    }

    fn warmup(&mut self) {
        for &(s, d) in self.reads.iter().take(8) {
            self.env.db.query_with_params(Q13, &[Value::Int(s), Value::Int(d)]).expect("warm-up");
        }
    }

    fn run(&mut self, deadline: Instant, mut mode: RunMode<'_>) -> Phase {
        let db = Arc::clone(&self.env.db);
        let session = open_session(&db, mode.engine_trace());
        let mut tracer = mode.tracer();
        let read = session.prepare(Q13).expect("Q13 prepares");
        let mut samples = Samples::new();
        let started = Instant::now();
        while Instant::now() < deadline {
            let id = self.issued as u32;
            if self.issued.is_multiple_of(ROUND) {
                let edge = self.next_edge();
                let (result, took) = timed(&mut tracer, id, || {
                    session.execute(&insert_sql(edge)).map(|_| ()).map_err(|e| e.to_string())
                });
                samples.push(took);
                self.records.push(Record::Insert(edge, result));
            } else {
                let idx = self.issued % self.reads.len();
                let (s, d) = self.reads[idx];
                let (answer, took) = timed(&mut tracer, id, || {
                    first_int(read.query(&session, &[Value::Int(s), Value::Int(d)]))
                });
                samples.push(took);
                self.records.push(Record::Read(idx as u32, answer));
            }
            self.issued += 1;
        }
        Phase { samples, elapsed: started.elapsed() }
    }

    /// Replays the insert sequence into the oracle, rebuilding its CSR
    /// before the first read that follows each insert.
    fn verify(&mut self, report: &mut Report) -> (u64, u64) {
        let mut oracle = self.env.oracle(&self.cfg);
        let mut failed = 0;
        for record in &self.records {
            match record {
                Record::Insert((s, d, w2), Ok(())) => oracle.push_edge(*s, *d, *w2),
                Record::Insert(edge, Err(e)) => {
                    report.failure(format!("insert {edge:?}: {e}"));
                    failed += 1;
                }
                Record::Read(idx, answer) => {
                    oracle.build();
                    let (s, d) = self.reads[*idx as usize];
                    let want = oracle.hops(s, d);
                    if answer.as_ref().ok() != Some(&want) {
                        report.failure(format!("hops {s} -> {d}: got {answer:?}, want {want:?}"));
                        failed += 1;
                    }
                }
            }
        }
        (self.records.len() as u64, failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, report: &mut Report) {
        let db = Arc::clone(&self.env.db);
        let threads = self.cfg.nproc;
        let session = db.session();
        let read = session.prepare(Q13).expect("Q13 prepares");
        let rounds = self.cfg.scale(8, 2);
        let (mut build_t, mut built_edges) = (Duration::ZERO, 0usize);
        let (mut graph_t, mut settled, mut searches) = (Duration::ZERO, 0u64, 0u64);
        let (mut cached_op_t, mut cached_graph_t) = (Duration::ZERO, Duration::ZERO);
        let (mut cached, mut cached_settled) = (0u64, 0u64);

        for round in 0..rounds {
            let id = (round * ROUND) as u32;
            let edge = self.next_edge();
            let (result, _) = tracer.time(OP, None, id, || {
                session.execute(&insert_sql(edge)).map(|_| ()).map_err(|e| e.to_string())
            });
            self.records.push(Record::Insert(edge, result));

            let mut graph = None;
            for k in 1..ROUND {
                let id = id + k as u32;
                let idx = (round * ROUND + k) % self.reads.len();
                let (s, d) = self.reads[idx];
                let (answer, op_took) = tracer.time(OP, None, id, || {
                    first_int(read.query(&session, &[Value::Int(s), Value::Int(d)]))
                });
                self.records.push(Record::Read(idx as u32, answer));

                let root = tracer.begin(REPLAY, None, id);
                // The first read after the write rebuilds the stale index.
                let rebuilt = graph.is_none();
                let graph = graph.get_or_insert_with(|| {
                    let friends = db.catalog().get("friends").expect("friends loaded");
                    built_edges += friends.row_count();
                    let (g, took) = tracer.time(BUILD_GRAPH, Some(root), id, || {
                        build_graph_with_threads(friends, 0, 1, threads).expect("CSR")
                    });
                    build_t += took;
                    g
                });
                let ends = graph.lookup(&Value::Int(s)).zip(graph.lookup(&Value::Int(d)));
                if let Some((sv, dv)) = ends {
                    // Includes the lazy reverse CSR on the first search.
                    let (hit, took) = tracer.time(GRAPH, Some(root), id, || {
                        bidirectional_bfs(&graph.csr, graph.reverse(), sv, dv)
                    });
                    graph_t += took;
                    searches += 1;
                    let hit_settled = hit.map_or(0, |h| u64::from(h.settled));
                    settled += hit_settled;
                    if !rebuilt {
                        cached_op_t += op_took;
                        cached_graph_t += took;
                        cached += 1;
                        cached_settled += hit_settled;
                    }
                }
                tracer.end(root);
            }
        }

        report.put("csr_build_ms", build_t.as_secs_f64() * 1e3 / rounds as f64, "ms/build");
        report.put(
            "csr_build_ns_per_edge",
            build_t.as_nanos() as f64 / built_edges.max(1) as f64,
            "ns/edge",
        );
        report.put("settled_per_query", settled as f64 / searches.max(1) as f64, "count");
        report.put(
            "traverse_ns_per_settled",
            cached_graph_t.as_nanos() as f64 / cached_settled.max(1) as f64,
            "ns/settled",
        );
        // Cached reads only: statement time not spent in the search itself
        // (plan-cache lookup, dispatch, result table).
        report.put(
            "stmt_overhead_us",
            per_op_us(cached_op_t.saturating_sub(cached_graph_t), cached as usize),
            "us/stmt",
        );
        report.put(
            "rebuild_read_search_ms",
            graph_t.saturating_sub(cached_graph_t).as_secs_f64() * 1e3 / rounds as f64,
            "ms",
        );
        report.note("replayed_ops", rounds * ROUND);
    }
}
