//! `rel_pipeline`: one prepared scan → filter → hash-join → group → sort
//! statement over the road table. No graph operator runs, so the time is
//! `core::exec`'s: pipeline, join, aggregate and expression evaluation.

use super::{
    load_roads, open_session, per_op_us, timed, Cfg, Phase, RunMode, SetupParts, Workload, EXEC,
};
use crate::report::Report;
use crate::samples::Samples;
use crate::spans::{Tracer, OP, REPLAY};
use gsql_core::Database;
use gsql_storage::{Table, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Integer aggregates only, so the result is byte-identical at every
/// thread count and morsel size.
const PIPELINE: &str = "SELECT r1.minutes AS bucket, COUNT(*) AS n, \
     SUM(r2.minutes) AS total, MIN(r2.dst) AS lo, MAX(r2.dst) AS hi \
     FROM roads r1 JOIN roads r2 ON r1.dst = r2.src \
     WHERE r1.minutes > 3 AND r2.minutes <= 7 \
     GROUP BY r1.minutes ORDER BY bucket";

/// Operations replayed by a traced run.
const REPLAYED: usize = 32;

pub struct RelPipeline {
    cfg: Cfg,
    db: Arc<Database>,
    edges: usize,
    records: Vec<Result<Arc<Table>, String>>,
}

fn rows(table: &Table) -> Vec<Vec<Value>> {
    (0..table.row_count()).map(|i| table.row(i)).collect()
}

impl Workload for RelPipeline {
    fn setup(cfg: &Cfg) -> (Self, SetupParts) {
        let side = cfg.scale(110, 16);
        let db = Arc::new(Database::new());
        let (edges, parts) = load_roads(&db, side, side, cfg.seed);
        let pipeline =
            RelPipeline { cfg: cfg.clone(), db, edges: edges.src.len(), records: Vec::new() };
        (pipeline, parts)
    }

    fn db(&self) -> &Database {
        &self.db
    }

    fn warmup(&mut self) {
        for _ in 0..2 {
            self.db.query(PIPELINE).expect("warm-up");
        }
    }

    fn run(&mut self, deadline: Instant, mut mode: RunMode<'_>) -> Phase {
        let db = Arc::clone(&self.db);
        let session = open_session(&db, mode.engine_trace());
        let mut tracer = mode.tracer();
        let stmt = session.prepare(PIPELINE).expect("pipeline prepares");
        let mut samples = Samples::new();
        let started = Instant::now();
        while Instant::now() < deadline {
            let id = self.records.len() as u32;
            let (result, took) =
                timed(&mut tracer, id, || stmt.query(&session, &[]).map_err(|e| e.to_string()));
            samples.push(took);
            self.records.push(result);
        }
        Phase { samples, elapsed: started.elapsed() }
    }

    /// Every recorded result must equal the statement's `threads = 1`
    /// result over the same table.
    fn verify(&mut self, _report: &mut Report) -> (u64, u64) {
        let session = self.db.session();
        session.set("threads", "1").expect("threads is a setting");
        let mut reference = rows(&session.query(PIPELINE).expect("sequential reference"));
        if self.cfg.corrupt_oracle {
            reference.pop();
        }
        let failed = self
            .records
            .iter()
            .filter(|r| r.as_ref().map(|t| rows(t)).ok().as_ref() != Some(&reference));
        (self.records.len() as u64, failed.count() as u64)
    }

    fn layers(&mut self, tracer: &mut Tracer, report: &mut Report) {
        let db = Arc::clone(&self.db);
        let session = db.session();
        let stmt = session.prepare(PIPELINE).expect("pipeline prepares");
        let (mut op_t, mut exec_t) = (Duration::ZERO, Duration::ZERO);
        for id in 0..REPLAYED as u32 {
            let (result, took) =
                tracer.time(OP, None, id, || stmt.query(&session, &[]).map_err(|e| e.to_string()));
            op_t += took;
            self.records.push(result);
            // The statement is nothing but executor work: its replay is a
            // second execution of the same prepared plan.
            let root = tracer.begin(REPLAY, None, id);
            let (_, took) = tracer.time(EXEC, Some(root), id, || stmt.execute(&session, &[]));
            tracer.end(root);
            exec_t += took;
        }
        // Both join sides scan the whole table.
        let scanned = (2 * self.edges * REPLAYED) as f64;
        report.put("exec_rows_per_s", scanned / exec_t.as_secs_f64(), "rows/s");
        report.put("stmt_overhead_us", per_op_us(op_t.saturating_sub(exec_t), REPLAYED), "us/stmt");
        report.note("replayed_ops", REPLAYED);
        report.note("road_edges", self.edges);
    }
}
