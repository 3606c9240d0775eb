//! The three read-only SNB workloads: `snb_adhoc` and `snb_weighted_path`
//! (one pair per statement) and `snb_batch` (1024 pairs per statement).

use super::{
    batched_q13, open_session, par_map, per_op_us, sample_pairs, timed, Cfg, Phase, RunMode,
    Settled, SetupParts, SnbEnv, Workload, BUILD_GRAPH, GRAPH, PARSER, PLAN, Q13, Q14_VARIANT,
};
use crate::oracle::Oracle;
use crate::report::Report;
use crate::samples::Samples;
use crate::spans::{Tracer, REPLAY};
use gsql_core::{build_graph_with_threads, Database, MaterializedGraph};
use gsql_graph::{BatchComputer, WeightSpec};
use gsql_parser::parse_statement;
use gsql_storage::{Table, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Yields the weights a replayed Q14 traversal runs over. Timed as the
/// informational `weight_eval_us_per_stmt` only: a whole statement costs
/// more than the evaluation the engine does inside its graph operator, so
/// it is kept out of the layer shares and that time stays unattributed.
const WEIGHT_EVAL: &str = "SELECT CAST(weight * 2 AS INTEGER) AS w FROM friends";

fn params(pair: (i64, i64)) -> [Value; 2] {
    [Value::Int(pair.0), Value::Int(pair.1)]
}

fn dense(graph: &MaterializedGraph, pair: (i64, i64)) -> Option<(u32, u32)> {
    Some((graph.lookup(&Value::Int(pair.0))?, graph.lookup(&Value::Int(pair.1))?))
}

// ------------------------------------------------------------ single pairs

/// What one single-pair statement returned.
#[derive(Debug)]
enum PointAnswer {
    Hops(Option<i64>),
    /// Cost plus the path's edge-table row ids.
    CostPath(Option<(i64, Vec<u32>)>),
    Error(String),
}

fn point_answer(weighted: bool, result: gsql_core::Result<Arc<Table>>) -> PointAnswer {
    let table = match result {
        Ok(t) => t,
        Err(e) => return PointAnswer::Error(e.to_string()),
    };
    let row = (table.row_count() > 0).then(|| table.row(0));
    if !weighted {
        return PointAnswer::Hops(row.and_then(|r| r[0].as_int()));
    }
    PointAnswer::CostPath(row.and_then(|r| Some((r[0].as_int()?, r[1].as_path()?.rows.clone()))))
}

/// `snb_adhoc` (`ADHOC = true`): no graph index, every statement parsed,
/// planned and its CSR built from scratch, alternating Q13 and the Q14
/// variant two to one. `snb_weighted_path` (`ADHOC = false`): a graph index and one
/// prepared Q14 variant.
pub struct Point<const ADHOC: bool> {
    cfg: Cfg,
    env: SnbEnv,
    pool: Vec<(i64, i64)>,
    records: Vec<(u32, PointAnswer)>,
}

pub type Adhoc = Point<true>;
pub type WeightedPath = Point<false>;

impl<const ADHOC: bool> Point<ADHOC> {
    /// Every third pool entry of `snb_adhoc` and every entry of
    /// `snb_weighted_path` run the weighted statement. Two to one, not
    /// alternating: the median then sits inside the Q13 mode and p95
    /// inside the Q14 mode, not on the edge between them.
    fn weighted(idx: usize) -> bool {
        !ADHOC || idx % 3 == 2
    }

    fn sql(idx: usize) -> &'static str {
        if Self::weighted(idx) {
            Q14_VARIANT
        } else {
            Q13
        }
    }
}

impl<const ADHOC: bool> Workload for Point<ADHOC> {
    fn setup(cfg: &Cfg) -> (Self, SetupParts) {
        let (env, parts) = SnbEnv::setup(cfg, !ADHOC);
        let count = cfg.scale(if ADHOC { 64 } else { 256 }, 8);
        let pool = sample_pairs(&mut cfg.rng(1), env.num_persons, count);
        (Point { cfg: cfg.clone(), env, pool, records: Vec::new() }, parts)
    }

    fn db(&self) -> &Database {
        &self.env.db
    }

    fn warmup(&mut self) {
        let n = self.pool.len().min(4);
        for idx in 0..n {
            self.env
                .db
                .query_with_params(Self::sql(idx), &params(self.pool[idx]))
                .expect("warm-up");
        }
    }

    fn run(&mut self, deadline: Instant, mut mode: RunMode<'_>) -> Phase {
        let db = Arc::clone(&self.env.db);
        let engine_trace = mode.engine_trace();
        let mut tracer = mode.tracer();
        let session = open_session(&db, engine_trace);
        let prepared = (!ADHOC).then(|| session.prepare(Q14_VARIANT).expect("Q14 prepares"));
        let mut samples = Samples::new();
        let started = Instant::now();
        let mut op = 0usize;
        while Instant::now() < deadline {
            let idx = op % self.pool.len();
            let args = params(self.pool[idx]);
            let (answer, took) = timed(&mut tracer, op as u32, || {
                let result = match &prepared {
                    Some(stmt) => stmt.query(&session, &args),
                    // Ad hoc: a connection-less statement, so nothing is
                    // cached from one operation to the next.
                    None => {
                        open_session(&db, engine_trace).query_with_params(Self::sql(idx), &args)
                    }
                };
                point_answer(Self::weighted(idx), result)
            });
            samples.push(took);
            self.records.push((idx as u32, answer));
            op += 1;
        }
        Phase { samples, elapsed: started.elapsed() }
    }

    fn verify(&mut self, report: &mut Report) -> (u64, u64) {
        let mut oracle = self.env.oracle(&self.cfg);
        oracle.build();
        let entries: Vec<(usize, (i64, i64))> = self.pool.iter().copied().enumerate().collect();
        let expected = par_map(&entries, self.cfg.nproc, |&(idx, (s, d))| {
            if Self::weighted(idx) {
                oracle.cost(s, d)
            } else {
                oracle.hops(s, d)
            }
        });
        let mut failed = 0;
        for (idx, answer) in &self.records {
            let (pair, want) = (self.pool[*idx as usize], expected[*idx as usize]);
            if !point_matches(&oracle, pair, want, answer) {
                let got = match answer {
                    PointAnswer::Error(e) => e.clone(),
                    other => format!("{other:?}"),
                };
                report.failure(format!("{pair:?}: got {got}, want {want:?}"));
                failed += 1;
            }
        }
        (self.records.len() as u64, failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, report: &mut Report) {
        let db = Arc::clone(&self.env.db);
        let threads = self.cfg.nproc;
        let session = db.session();
        let prepared = (!ADHOC).then(|| session.prepare(Q14_VARIANT).expect("Q14 prepares"));
        let weight_eval = session.prepare(WEIGHT_EVAL).expect("weight statement prepares");
        let friends = db.catalog().get("friends").expect("friends loaded");
        let edges = friends.row_count();
        let build = || build_graph_with_threads(Arc::clone(&friends), 0, 1, threads).expect("CSR");
        // The indexed workload traverses a graph built once, as its index is.
        let indexed_graph = (!ADHOC).then(build);
        let settled = Settled::default();
        let (mut op_t, mut parse_t, mut plan_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut build_t, mut graph_t, mut weight_t) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);

        for (idx, &pair) in self.pool.iter().enumerate() {
            let (id, sql, weighted) = (idx as u32, Self::sql(idx), Self::weighted(idx));
            let args = params(pair);
            let (answer, took) = tracer.time(crate::spans::OP, None, id, || {
                let result = match &prepared {
                    Some(stmt) => stmt.query(&session, &args),
                    None => db.query_with_params(sql, &args),
                };
                point_answer(weighted, result)
            });
            op_t += took;
            self.records.push((id, answer));

            let root = tracer.begin(REPLAY, None, id);
            let mut built = None;
            if ADHOC {
                let (_, parse) = tracer.time(PARSER, Some(root), id, || parse_statement(sql));
                let plan = tracer.begin(PLAN, Some(root), id);
                session.plan(sql).expect("benchmark statement plans");
                let total = tracer.end(plan);
                tracer.child_at_start(PARSER, plan, parse);
                parse_t += parse;
                plan_t += total.saturating_sub(parse);
                let (graph, took) = tracer.time(BUILD_GRAPH, Some(root), id, build);
                build_t += took;
                built = Some(graph);
            }
            let graph = built.as_ref().or(indexed_graph.as_ref()).expect("a graph either way");
            let spec = if weighted {
                let t0 = Instant::now();
                let w = weight_eval.query(&session, &[]).expect("weight statement runs");
                let w = w.column(0).as_int_slice().expect("int weights").0.to_vec();
                weight_t += t0.elapsed();
                WeightSpec::Int(w)
            } else {
                WeightSpec::Unweighted
            };
            if let Some(dense) = dense(graph, pair) {
                let (_, took) = tracer.time(GRAPH, Some(root), id, || {
                    BatchComputer::new(&graph.csr)
                        .with_threads(threads)
                        .with_observer(Some(&settled))
                        .compute(&[dense], &spec, weighted)
                        .expect("replayed traversal")
                });
                graph_t += took;
            }
            tracer.end(root);
        }

        let ops = self.pool.len();
        if ADHOC {
            report.put("parse_us_per_stmt", per_op_us(parse_t, ops), "us/stmt");
            report.put("plan_us_per_stmt", per_op_us(plan_t, ops), "us/stmt");
            report.put("csr_build_ms", per_op_us(build_t, ops) / 1e3, "ms/build");
            report.put(
                "csr_build_ns_per_edge",
                build_t.as_nanos() as f64 / (ops * edges).max(1) as f64,
                "ns/edge",
            );
        }
        report.put("settled_per_query", settled.vertices() as f64 / ops as f64, "count");
        report.put(
            "traverse_ns_per_settled",
            graph_t.as_nanos() as f64 / settled.vertices().max(1) as f64,
            "ns/settled",
        );
        let weighted = (0..ops).filter(|&idx| Self::weighted(idx)).count();
        report.put("weight_eval_us_per_stmt", per_op_us(weight_t, weighted), "us/stmt");
        let replayed = parse_t + plan_t + build_t + graph_t;
        report.put("stmt_overhead_us", per_op_us(op_t.saturating_sub(replayed), ops), "us/stmt");
        report.note("replayed_ops", ops);
    }
}

fn point_matches(
    oracle: &Oracle,
    (s, d): (i64, i64),
    expected: Option<i64>,
    answer: &PointAnswer,
) -> bool {
    match answer {
        PointAnswer::Hops(got) => *got == expected,
        PointAnswer::CostPath(None) => expected.is_none(),
        PointAnswer::CostPath(Some((cost, rows))) => {
            Some(*cost) == expected && oracle.path_cost(s, d, rows) == Some(*cost)
        }
        PointAnswer::Error(_) => false,
    }
}

// ------------------------------------------------------------------ batches

/// `snb_batch`: every operation is a 1024-pair statement run without a
/// session, so it is parsed, bound and optimized each time.
pub struct Batch {
    cfg: Cfg,
    env: SnbEnv,
    /// Unique statements: their pairs and SQL text.
    pool: Vec<(Vec<(i64, i64)>, String)>,
    records: Vec<(u32, Result<Arc<Table>, String>)>,
}

/// The statement's rows as sorted `(source, destination, distance)`.
fn batch_rows(table: &Table) -> Option<Vec<(i64, i64, i64)>> {
    let mut rows = (0..table.row_count())
        .map(|i| {
            let r = table.row(i);
            Some((r[0].as_int()?, r[1].as_int()?, r[2].as_int()?))
        })
        .collect::<Option<Vec<_>>>()?;
    rows.sort_unstable();
    Some(rows)
}

/// What the oracle says a batch statement returns: one row per reachable
/// pair, found with one plain BFS per distinct source.
pub fn expected_batch(oracle: &Oracle, pairs: &[(i64, i64)]) -> Vec<(i64, i64, i64)> {
    let mut by_source = pairs.to_vec();
    by_source.sort_unstable();
    let mut rows = Vec::with_capacity(pairs.len());
    for group in by_source.chunk_by(|a, b| a.0 == b.0) {
        let targets: Vec<i64> = group.iter().map(|p| p.1).collect();
        let hops = oracle.hops_from(group[0].0, &targets);
        rows.extend(group.iter().zip(hops).filter_map(|(&(s, d), h)| Some((s, d, h?))));
    }
    rows
}

impl Workload for Batch {
    fn setup(cfg: &Cfg) -> (Self, SetupParts) {
        let (env, parts) = SnbEnv::setup(cfg, true);
        let (statements, pairs_each) = (cfg.scale(24, 3), cfg.scale(1024, 64));
        let mut rng = cfg.rng(2);
        let pool = (0..statements)
            .map(|_| {
                let pairs = sample_pairs(&mut rng, env.num_persons, pairs_each);
                let sql = batched_q13(&pairs);
                (pairs, sql)
            })
            .collect();
        (Batch { cfg: cfg.clone(), env, pool, records: Vec::new() }, parts)
    }

    fn db(&self) -> &Database {
        &self.env.db
    }

    fn warmup(&mut self) {
        self.env.db.query(&self.pool[0].1).expect("warm-up");
    }

    fn run(&mut self, deadline: Instant, mut mode: RunMode<'_>) -> Phase {
        let db = Arc::clone(&self.env.db);
        let engine_trace = mode.engine_trace();
        let mut tracer = mode.tracer();
        let mut samples = Samples::new();
        let started = Instant::now();
        let mut op = 0usize;
        while Instant::now() < deadline {
            let idx = op % self.pool.len();
            let sql = &self.pool[idx].1;
            let (result, took) = timed(&mut tracer, op as u32, || {
                open_session(&db, engine_trace).query(sql).map_err(|e| e.to_string())
            });
            samples.push(took);
            self.records.push((idx as u32, result));
            op += 1;
        }
        Phase { samples, elapsed: started.elapsed() }
    }

    fn verify(&mut self, _report: &mut Report) -> (u64, u64) {
        let mut oracle = self.env.oracle(&self.cfg);
        oracle.build();
        let expected =
            par_map(&self.pool, self.cfg.nproc, |(pairs, _)| expected_batch(&oracle, pairs));
        let failed = self.records.iter().filter(|(idx, result)| {
            let got = result.as_ref().ok().and_then(|t| batch_rows(t));
            got.as_ref() != Some(&expected[*idx as usize])
        });
        (self.records.len() as u64, failed.count() as u64)
    }

    fn layers(&mut self, tracer: &mut Tracer, report: &mut Report) {
        let db = Arc::clone(&self.env.db);
        let threads = self.cfg.nproc;
        let session = db.session();
        let friends = db.catalog().get("friends").expect("friends loaded");
        let graph = build_graph_with_threads(friends, 0, 1, threads).expect("CSR");
        let settled = Settled::default();
        let (mut op_t, mut parse_t, mut plan_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut graph_t, mut seq_t, mut par_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);

        for (idx, (pairs, sql)) in self.pool.iter().enumerate() {
            let id = idx as u32;
            let (result, took) = tracer
                .time(crate::spans::OP, None, id, || db.query(sql).map_err(|e| e.to_string()));
            op_t += took;
            self.records.push((id, result));

            let dense: Vec<(u32, u32)> = pairs.iter().filter_map(|&p| dense(&graph, p)).collect();
            let root = tracer.begin(REPLAY, None, id);
            let (_, parse) = tracer.time(PARSER, Some(root), id, || parse_statement(sql));
            let plan = tracer.begin(PLAN, Some(root), id);
            session.plan(sql).expect("benchmark statement plans");
            let total = tracer.end(plan);
            tracer.child_at_start(PARSER, plan, parse);
            parse_t += parse;
            plan_t += total.saturating_sub(parse);
            let traverse = |width: usize, observer: Option<&Settled>| {
                BatchComputer::new(&graph.csr)
                    .with_threads(width)
                    .with_observer(observer.map(|s| s as &dyn gsql_graph::TraversalObserver))
                    .compute(&dense, &WeightSpec::Unweighted, false)
                    .expect("replayed traversal")
            };
            let (_, took) =
                tracer.time(GRAPH, Some(root), id, || traverse(threads, Some(&settled)));
            graph_t += took;
            tracer.end(root);
            // `parallel`: the same batch at width 1 and again at full width,
            // outside the replay, for the first few statements.
            if idx < 4 {
                let t0 = Instant::now();
                traverse(1, None);
                seq_t += t0.elapsed();
                let t0 = Instant::now();
                traverse(threads, None);
                par_t += t0.elapsed();
            }
        }

        let ops = self.pool.len();
        report.put("parse_us_per_stmt", per_op_us(parse_t, ops), "us/stmt");
        report.put("plan_us_per_stmt", per_op_us(plan_t, ops), "us/stmt");
        report.put("settled_per_query", settled.vertices() as f64 / ops as f64, "count");
        report.put(
            "traverse_ns_per_settled",
            graph_t.as_nanos() as f64 / settled.vertices().max(1) as f64,
            "ns/settled",
        );
        report.put("batch_speedup", seq_t.as_secs_f64() / par_t.as_secs_f64().max(1e-12), "x");
        let replayed = parse_t + plan_t + graph_t;
        report.put("stmt_overhead_us", per_op_us(op_t.saturating_sub(replayed), ops), "us/stmt");
        report.note("replayed_ops", ops);
        report.note("pairs_per_statement", self.pool[0].0.len());
    }
}
