//! `road_accel`: prepared point-to-point routes over a weighted grid with a
//! `CONTRACTION` path index — the one workload that runs `gsql_accel`.

use super::{
    first_int, load_roads, open_session, par_map, per_op_us, sample_pairs, timed, Cfg, Phase,
    RoadEdges, RunMode, SetupParts, Workload, ACCEL,
};
use crate::oracle::Oracle;
use crate::report::Report;
use crate::samples::Samples;
use crate::spans::{Tracer, OP, REPLAY};
use gsql_accel::{alt_bidirectional, ch_many_to_many, ch_query, ContractionHierarchy, Landmarks};
use gsql_core::Database;
use gsql_graph::{reverse_csr, Csr};
use gsql_storage::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUTE: &str =
    "SELECT CHEAPEST SUM(r: minutes) AS cost WHERE ? REACHES ? OVER roads r EDGE (src, dst)";

/// Side of the layer-only many-to-many matrix.
const MATRIX_SIDE: usize = 40;

pub struct RoadAccel {
    cfg: Cfg,
    db: Arc<Database>,
    edges: RoadEdges,
    pool: Vec<(i64, i64)>,
    records: Vec<(u32, Result<Option<i64>, String>)>,
}

impl RoadAccel {
    fn oracle(&self) -> Oracle {
        let e = &self.edges;
        let mut oracle =
            Oracle::new(e.vertices, &e.src, &e.dst, e.minutes.clone(), self.cfg.corrupt_oracle);
        oracle.build();
        oracle
    }
}

impl Workload for RoadAccel {
    fn setup(cfg: &Cfg) -> (Self, SetupParts) {
        let side = cfg.scale(100, 16);
        let db = Arc::new(Database::new());
        let (edges, mut parts) = load_roads(&db, side, side, cfg.seed);
        let t0 = Instant::now();
        db.execute(
            "CREATE PATH INDEX roads_ch ON roads EDGE (src, dst) WEIGHT minutes USING CONTRACTION",
        )
        .expect("contraction index");
        parts.index_build_s = t0.elapsed().as_secs_f64();
        let pool = sample_pairs(&mut cfg.rng(3), u64::from(edges.vertices), cfg.scale(2048, 64));
        // Reserved up front (untouched pages cost nothing): growing by doubling
        // would put both copies of the log into the peak RSS this run reports.
        let records = Vec::with_capacity(1 << 21);
        (RoadAccel { cfg: cfg.clone(), db, edges, pool, records }, parts)
    }

    fn db(&self) -> &Database {
        &self.db
    }

    fn warmup(&mut self) {
        for &(s, d) in self.pool.iter().take(32) {
            self.db.query_with_params(ROUTE, &[Value::Int(s), Value::Int(d)]).expect("warm-up");
        }
    }

    fn run(&mut self, deadline: Instant, mut mode: RunMode<'_>) -> Phase {
        let db = Arc::clone(&self.db);
        let session = open_session(&db, mode.engine_trace());
        let mut tracer = mode.tracer();
        let stmt = session.prepare(ROUTE).expect("route prepares");
        let mut samples = Samples::new();
        let started = Instant::now();
        let mut op = 0usize;
        while Instant::now() < deadline {
            let idx = op % self.pool.len();
            let (s, d) = self.pool[idx];
            let (answer, took) = timed(&mut tracer, op as u32, || {
                first_int(stmt.query(&session, &[Value::Int(s), Value::Int(d)]))
            });
            samples.push(took);
            self.records.push((idx as u32, answer));
            op += 1;
        }
        Phase { samples, elapsed: started.elapsed() }
    }

    fn verify(&mut self, _report: &mut Report) -> (u64, u64) {
        let oracle = self.oracle();
        let expected = par_map(&self.pool, self.cfg.nproc, |&(s, d)| oracle.cost(s, d));
        let failed = self
            .records
            .iter()
            .filter(|(idx, answer)| answer.as_ref().ok() != Some(&expected[*idx as usize]));
        (self.records.len() as u64, failed.count() as u64)
    }

    fn layers(&mut self, tracer: &mut Tracer, report: &mut Report) {
        let db = Arc::clone(&self.db);
        let threads = self.cfg.nproc;
        let e = &self.edges;
        let dense = |ids: &[i64]| ids.iter().map(|&v| (v - 1) as u32).collect::<Vec<u32>>();
        let csr = Csr::from_edges(e.vertices, &dense(&e.src), &dense(&e.dst)).expect("grid CSR");
        let weights = csr.permute_weights_int(&e.minutes).expect("positive minutes");

        let t0 = Instant::now();
        let ch = ContractionHierarchy::build(&csr, Some(&weights), threads);
        report.put("ch_build_s", t0.elapsed().as_secs_f64(), "s/build");
        report.put("index_bytes", ch.memory_bytes() as f64, "bytes");
        report.put("ch_shortcuts", ch.shortcuts() as f64, "count");

        let session = db.session();
        let stmt = session.prepare(ROUTE).expect("route prepares");
        let (mut op_t, mut accel_t, mut settled) = (Duration::ZERO, Duration::ZERO, 0usize);
        let mut ch_dist = Vec::with_capacity(self.pool.len());
        for (idx, &(s, d)) in self.pool.iter().enumerate() {
            let id = idx as u32;
            let (answer, took) = tracer.time(OP, None, id, || {
                first_int(stmt.query(&session, &[Value::Int(s), Value::Int(d)]))
            });
            op_t += took;
            self.records.push((id, answer));
            let root = tracer.begin(REPLAY, None, id);
            let (hit, took) = tracer
                .time(ACCEL, Some(root), id, || ch_query(&ch, (s - 1) as u32, (d - 1) as u32));
            tracer.end(root);
            accel_t += took;
            settled += hit.settled;
            ch_dist.push(hit.dist);
        }
        let ops = self.pool.len();
        report.put("accel_settled_per_query", settled as f64 / ops as f64, "count");
        report.put(
            "accel_ns_per_settled",
            accel_t.as_nanos() as f64 / settled.max(1) as f64,
            "ns/settled",
        );
        report.put("stmt_overhead_us", per_op_us(op_t.saturating_sub(accel_t), ops), "us/stmt");
        report.note("replayed_ops", ops);

        // Layer-only numbers: ALT over the same pairs, and a CH bucket
        // matrix. No statement of this workload reaches either; their
        // distances must still agree with the hierarchy's.
        let reverse = reverse_csr(&csr);
        let back = reverse.permute_weights_int(&e.minutes).expect("positive minutes");
        let both = Some((weights.as_slice(), back.as_slice()));
        let landmarks = Landmarks::build(&csr, &reverse, both, 16, threads);
        let sample = ops.min(256);
        let (mut alt_t, mut alt_settled) = (Duration::ZERO, 0usize);
        for (idx, &(s, d)) in self.pool.iter().take(sample).enumerate() {
            let t0 = Instant::now();
            let hit =
                alt_bidirectional(&csr, &reverse, both, &landmarks, (s - 1) as u32, (d - 1) as u32);
            alt_t += t0.elapsed();
            alt_settled += hit.settled;
            if hit.dist != ch_dist[idx] {
                self.records.push((idx as u32, Err("ALT disagrees with CH".to_string())));
            }
        }
        report.put("alt_settled_per_query", alt_settled as f64 / sample as f64, "count");
        report.put(
            "alt_ns_per_settled",
            alt_t.as_nanos() as f64 / alt_settled.max(1) as f64,
            "ns/settled",
        );

        let side = MATRIX_SIDE.min(ops);
        let sources: Vec<u32> = self.pool[..side].iter().map(|p| (p.0 - 1) as u32).collect();
        let targets: Vec<u32> = self.pool[..side].iter().map(|p| (p.1 - 1) as u32).collect();
        let t0 = Instant::now();
        let matrix =
            ch_many_to_many(&ch, &sources, &targets, threads, None).expect("no deadline was set");
        let took = t0.elapsed();
        report.put("m2m_ns_per_pair", took.as_nanos() as f64 / (side * side) as f64, "ns/pair");
        report.put("m2m_settled", matrix.settled as f64, "count");
        for (i, want) in ch_dist.iter().take(side).enumerate() {
            let got = matrix.dist(i, i, side);
            if want.unwrap_or(gsql_accel::INF) != got {
                self.records.push((i as u32, Err("CH matrix disagrees with CH".to_string())));
            }
        }
    }
}
