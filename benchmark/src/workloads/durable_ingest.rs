//! `durable_ingest`: `nproc` writer sessions, each committing to its own
//! table of a `Database::open` database — single-row `INSERT`s, a 200-row
//! `INSERT` every 50th commit, and a `CHECKPOINT` from writer 0 every 1000
//! of its commits. Afterwards the database is dropped and reopened.
//!
//! Flush policy: the engine fsyncs (`File::sync_data`) on every WAL append;
//! nothing here changes it. Set-up preloads each table and takes one
//! checkpoint, so snapshots and recovery have a body of rows to carry.

use super::{
    open_session, per_op_us, timed, Cfg, Phase, RunMode, SetupParts, Workload, EXEC, PARSER,
    PERSIST,
};
use crate::report::Report;
use crate::samples::Samples;
use crate::spans::{Tracer, OP, REPLAY};
use gsql_core::Database;
use gsql_parser::parse_statement;
use gsql_storage::persist::WalWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLUSH_POLICY: &str = "fsync (sync_data) on every WAL append";

/// Every this-many-th commit of a writer inserts [`BULK_ROWS`] rows.
const BULK_EVERY: u64 = 50;
const BULK_ROWS: i64 = 200;

/// What one writer has committed to its table so far.
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    rows: i64,
    /// Sum of the `val` column (`val = id * 7`).
    sum: i64,
    commits: u64,
    errors: u64,
}

impl Ledger {
    /// `INSERT` text for the next `count` rows; ids continue from `rows`.
    fn insert_sql(&self, writer: usize, count: i64) -> String {
        let rows: Vec<String> =
            (self.rows + 1..=self.rows + count).map(|id| format!("({id}, {})", id * 7)).collect();
        format!("INSERT INTO ledger_{writer} VALUES {}", rows.join(", "))
    }

    fn committed(&mut self, count: i64) {
        let (lo, hi) = (self.rows + 1, self.rows + count);
        self.sum += 7 * (lo + hi) * count / 2;
        self.rows = hi;
        self.commits += 1;
    }
}

pub struct DurableIngest {
    cfg: Cfg,
    dir: PathBuf,
    db: Option<Arc<Database>>,
    ledgers: Vec<Ledger>,
    checkpoints: u64,
    /// Bytes of every snapshot written after set-up.
    snapshot_bytes: u64,
    /// Counters as set-up left them, so the report covers ingest only.
    base_rows: i64,
    base_wal_bytes: u64,
}

fn snapshot_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".gsnap"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

impl DurableIngest {
    fn shared(&self) -> &Arc<Database> {
        self.db.as_ref().expect("database is open")
    }

    fn checkpoint_every(&self) -> u64 {
        self.cfg.scale(1000, 100)
    }
}

impl Workload for DurableIngest {
    fn setup(cfg: &Cfg) -> (Self, SetupParts) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = cfg.scratch.join(format!(
            "durable-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let preload = cfg.scale(20_000, 500);

        let t0 = Instant::now();
        let mut ledgers = vec![Ledger::default(); cfg.nproc];
        let mut statements = Vec::new();
        for (w, ledger) in ledgers.iter_mut().enumerate() {
            statements.push(format!(
                "CREATE TABLE ledger_{w} (id INTEGER NOT NULL, val INTEGER NOT NULL)"
            ));
            while ledger.rows < preload {
                statements.push(ledger.insert_sql(w, 1000.min(preload - ledger.rows)));
                ledger.committed(1000.min(preload - ledger.rows));
            }
            ledger.commits = 0;
        }
        let datagen_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let db = Arc::new(Database::open(&dir).expect("data directory opens"));
        for sql in &statements {
            db.execute(sql).expect("preload");
        }
        let load_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        db.checkpoint().expect("set-up checkpoint");
        let index_build_s = t0.elapsed().as_secs_f64();

        let ingest = DurableIngest {
            cfg: cfg.clone(),
            dir,
            base_rows: ledgers.iter().map(|l| l.rows).sum(),
            base_wal_bytes: db.metrics().wal_bytes.get(),
            db: Some(db),
            ledgers,
            checkpoints: 0,
            snapshot_bytes: 0,
        };
        (ingest, SetupParts { datagen_s, load_s, index_build_s })
    }

    fn db(&self) -> &Database {
        self.db.as_ref().expect("database is open")
    }

    fn warmup(&mut self) {}

    fn run(&mut self, deadline: Instant, mode: RunMode<'_>) -> Phase {
        let db = Arc::clone(self.shared());
        let engine_trace = mode.engine_trace();
        let spans = matches!(mode, RunMode::Spans(_));
        let every = self.checkpoint_every();
        let (dir, epoch) = (self.dir.clone(), Instant::now());
        let started = Instant::now();
        let per_writer: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .ledgers
                .iter()
                .enumerate()
                .map(|(w, &ledger)| {
                    let (db, dir) = (&db, &dir);
                    scope.spawn(move || {
                        let mut ledger = ledger;
                        let session = open_session(db, engine_trace);
                        let mut tracer = spans.then(|| Tracer::new(epoch));
                        let mut samples = Samples::new();
                        let (mut checkpoints, mut snapshot_bytes) = (0u64, 0u64);
                        while Instant::now() < deadline {
                            let bulk = ledger.commits % BULK_EVERY == BULK_EVERY - 1;
                            let count = if bulk { BULK_ROWS } else { 1 };
                            let sql = ledger.insert_sql(w, count);
                            let id = ledger.commits as u32;
                            let (result, took) =
                                timed(&mut tracer.as_mut(), id, || session.execute(&sql));
                            samples.push(took);
                            if result.is_err() {
                                ledger.errors += 1;
                                continue;
                            }
                            ledger.committed(count);
                            if w == 0 && ledger.commits % every == 0 {
                                let (result, took) = timed(&mut tracer.as_mut(), id, || {
                                    session.execute("CHECKPOINT")
                                });
                                samples.push(took);
                                match result {
                                    Ok(_) => checkpoints += 1,
                                    Err(_) => ledger.errors += 1,
                                }
                                snapshot_bytes += snapshot_size(dir);
                            }
                        }
                        (ledger, samples, checkpoints, snapshot_bytes, tracer)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect()
        });
        let elapsed = started.elapsed();
        let mut logs = Vec::with_capacity(per_writer.len());
        for (w, (ledger, samples, checkpoints, snapshot_bytes, tracer)) in
            per_writer.into_iter().enumerate()
        {
            self.ledgers[w] = ledger;
            self.checkpoints += checkpoints;
            self.snapshot_bytes += snapshot_bytes;
            logs.push((samples, tracer));
        }
        Phase { samples: mode.merge_clients(logs), elapsed }
    }

    /// Drop the database, reopen it from its files alone, and check every
    /// table's row count and sum against what the writers were acknowledged.
    fn verify(&mut self, report: &mut Report) -> (u64, u64) {
        let db = self.db.take().expect("database is open");
        let ingested = self.ledgers.iter().map(|l| l.rows).sum::<i64>() - self.base_rows;
        let written = db.metrics().wal_bytes.get() - self.base_wal_bytes + self.snapshot_bytes;
        // Whole-run storage cost; it moves with how many checkpoints the
        // window happened to fit, so it is informational.
        report.put(
            "log_and_snapshot_bytes_per_row",
            written as f64 / ingested.max(1) as f64,
            "bytes/row",
        );
        report.put("rows_ingested", ingested as f64, "count");
        report.put("checkpoints", self.checkpoints as f64, "count");
        report.note("flush_policy", FLUSH_POLICY);
        drop(Arc::into_inner(db).expect("no writer still holds the database"));

        let t0 = Instant::now();
        let reopened = Database::open(&self.dir);
        let recovery = t0.elapsed();
        report.put("recovery_s", recovery.as_secs_f64(), "s");
        report.put("recovery_ms", recovery.as_secs_f64() * 1e3, "ms/open");

        let mut failed = self.ledgers.iter().map(|l| l.errors).sum::<u64>();
        let attempted =
            self.ledgers.iter().map(|l| l.commits + l.errors).sum::<u64>() + self.checkpoints;
        match reopened {
            Ok(db) => {
                for (w, ledger) in self.ledgers.iter().enumerate() {
                    let want_rows = ledger.rows + i64::from(self.cfg.corrupt_oracle);
                    let sql = format!("SELECT COUNT(*) AS n, SUM(val) AS total FROM ledger_{w}");
                    let got = db.query(&sql).ok().map(|t| t.row(0));
                    let matches = got.is_some_and(|r| {
                        r[0].as_int() == Some(want_rows) && r[1].as_int() == Some(ledger.sum)
                    });
                    failed += u64::from(!matches);
                }
                self.db = Some(Arc::new(db));
            }
            Err(e) => {
                report.note("recovery_error", e);
                failed += attempted;
            }
        }
        (attempted, failed)
    }

    fn layers(&mut self, tracer: &mut Tracer, report: &mut Report) {
        let db = Arc::clone(self.shared());
        let session = db.session();
        let replay_dir = self.dir.with_extension("replay");
        let _ = std::fs::remove_dir_all(&replay_dir);
        std::fs::create_dir_all(&replay_dir).expect("scratch directory");
        let mut wal = WalWriter::create(&replay_dir.join("replay.log")).expect("scratch WAL");

        // An in-memory database with the same tables: what the statement
        // costs with the durability layer absent.
        let twin = Database::new();
        let mut twin_ledger = Ledger::default();
        twin.execute("CREATE TABLE ledger_0 (id INTEGER NOT NULL, val INTEGER NOT NULL)")
            .expect("twin table");
        while twin_ledger.rows < self.ledgers[0].rows {
            let count = 1000.min(self.ledgers[0].rows - twin_ledger.rows);
            twin.execute(&twin_ledger.insert_sql(0, count)).expect("twin preload");
            twin_ledger.committed(count);
        }
        let twin_session = twin.session();

        let commits = self.cfg.scale(256, 16);
        let appends_before = db.metrics().wal_appends.get();
        let wal_bytes_before = db.metrics().wal_bytes.get();
        let (mut op_t, mut parse_t) = (Duration::ZERO, Duration::ZERO);
        let (mut append_t, mut exec_t) = (Duration::ZERO, Duration::ZERO);
        for id in 0..commits as u32 {
            let sql = self.ledgers[0].insert_sql(0, 1);
            let (result, took) = tracer.time(OP, None, id, || session.execute(&sql));
            op_t += took;
            match result {
                Ok(_) => self.ledgers[0].committed(1),
                Err(_) => self.ledgers[0].errors += 1,
            }
            let root = tracer.begin(REPLAY, None, id);
            let (_, took) = tracer.time(PARSER, Some(root), id, || parse_statement(&sql));
            parse_t += took;
            // A record of the statement's size, appended and fsynced the way
            // the engine's own log writer does it.
            let (_, took) = tracer.time(PERSIST, Some(root), id, || wal.append(sql.as_bytes()));
            append_t += took;
            let (_, took) = tracer.time(EXEC, Some(root), id, || twin_session.execute(&sql));
            exec_t += took;
            tracer.end(root);
        }
        let appends = db.metrics().wal_appends.get() - appends_before;
        let per_commit = |t: Duration| per_op_us(t, commits);
        report.put("parse_us_per_stmt", per_commit(parse_t), "us/stmt");
        report.put("wal_append_us", per_commit(append_t), "us/append");
        report.put("wal_appends_per_commit", appends as f64 / commits as f64, "ratio");
        // Framed log bytes per single-row commit: an exact count.
        let wal_bytes = db.metrics().wal_bytes.get() - wal_bytes_before;
        report.put("wal_bytes_per_row", wal_bytes as f64 / commits as f64, "bytes/row");
        report.put("in_memory_insert_us", per_commit(exec_t), "us/stmt");
        report.put(
            "stmt_overhead_us",
            per_commit(op_t.saturating_sub(append_t + exec_t)),
            "us/stmt",
        );

        let rounds = 3;
        let t0 = Instant::now();
        for _ in 0..rounds {
            db.checkpoint().expect("checkpoint");
            self.checkpoints += 1;
            self.snapshot_bytes += snapshot_size(&self.dir);
        }
        report.put(
            "checkpoint_ms",
            t0.elapsed().as_secs_f64() * 1e3 / rounds as f64,
            "ms/checkpoint",
        );
        report.put("snapshot_bytes", snapshot_size(&self.dir) as f64, "bytes");
        report.note("replayed_ops", commits);
        drop(wal);
        let _ = std::fs::remove_dir_all(&replay_dir);
    }

    fn teardown(self) {
        drop(self.db);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
