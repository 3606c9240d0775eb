//! Helpers shared by the integration suites: a unique temp directory, the
//! rendering of an answer to comparable text, and the configuration sweep.
//!
//! [`sweep`] runs one test body once per configuration — threads {1, 4} ×
//! `morsel_rows` {7, the default} × {in memory, durable} — each on a fresh
//! database built by the same setup statements. Every answer a body
//! records must render the same as in the threads-1, in-memory run at the
//! same morsel size, error text included. (Thread count and durability
//! must never show in a result. Morsel boundaries may: a `DOUBLE` sum
//! accumulates per morsel.) The body's own assertions run in every
//! configuration, too. The setup runs through a session with the
//! configuration under test. A durable database runs the first half of the
//! setup, a `CHECKPOINT` and the second half, and is reopened before the
//! body runs, so recovery replays a snapshot plus a WAL suffix — and must
//! reproduce what the configured setup wrote.

// Each suite compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

use gsql::{Database, Result, Session, Table, Value};
use gsql_server::json::Json;
use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique, empty temp directory, removed on drop (best effort).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gsql-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A table as text: the schema, then one line per row. Values print with
/// their variant (`Int(2)` is not `Double(2.0)`) and paths as their edge
/// rows, so two answers are the same answer exactly when these are the
/// same bytes.
pub fn render(t: &Table) -> String {
    let mut out = format!("{}\n", t.schema());
    for row in t.rows() {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Path(p) => {
                    let edges: Vec<Vec<Value>> =
                        p.rows.iter().map(|&r| p.edges.row(r as usize)).collect();
                    format!("Path{edges:?}")
                }
                v => format!("{v:?}"),
            })
            .collect();
        out.push_str(&cells.join(" | "));
        out.push('\n');
    }
    out
}

/// A statement's outcome as text: the rendered table or the error message.
pub fn answer(result: &Result<Arc<Table>>) -> String {
    match result {
        Ok(t) => render(t),
        Err(e) => format!("error: {e}"),
    }
}

/// The text of the `EXPLAIN` statement over `sql`, one line per plan node:
/// the plan, with the index that would serve each graph operator's edge
/// scan in place of that scan.
pub fn explain(session: &Session<'_>, sql: &str) -> String {
    let t = session.query(&format!("EXPLAIN {sql}")).unwrap();
    let lines: Vec<String> = t.rows().map(|r| r[0].as_str().unwrap().to_string()).collect();
    lines.join("\n")
}

/// The first span named `name` in a trace document, depth first.
pub fn find_span<'j>(spans: &'j [Json], name: &str) -> Option<&'j Json> {
    spans.iter().find_map(|span| {
        if span.get("name").and_then(Json::as_str) == Some(name) {
            return Some(span);
        }
        find_span(span.get("children").and_then(Json::as_array)?, name)
    })
}

/// An in-memory database after `setup`.
pub fn database(setup: &[impl AsRef<str>]) -> Database {
    let db = Database::new();
    for sql in setup {
        db.execute_script(sql.as_ref()).unwrap();
    }
    db
}

/// One point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    pub threads: usize,
    /// `morsel_rows = 7` instead of the default.
    pub small_morsels: bool,
    pub durable: bool,
}

impl Config {
    fn all() -> Vec<Config> {
        let mut all = Vec::new();
        for durable in [false, true] {
            for small_morsels in [false, true] {
                for threads in [1, 4] {
                    all.push(Config { threads, small_morsels, durable });
                }
            }
        }
        all
    }

    /// Give `session` this configuration's width and morsel size.
    pub fn apply(self, session: &Session<'_>) {
        session.set("threads", &self.threads.to_string()).unwrap();
        if self.small_morsels {
            session.set("morsel_rows", "7").unwrap();
        }
    }

    /// The configuration whose answers this one must reproduce.
    fn reference(self) -> Config {
        Config { threads: 1, durable: false, ..self }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let morsels = if self.small_morsels { "7" } else { "default" };
        let storage = if self.durable { "durable" } else { "in memory" };
        write!(f, "threads={} morsel_rows={morsels} {storage}", self.threads)
    }
}

/// A body's view of one configuration: a configured session over a fresh
/// database, and the answers recorded so far.
pub struct Run<'db> {
    config: Config,
    session: Session<'db>,
    answers: RefCell<Vec<(String, String)>>,
}

impl<'db> Run<'db> {
    pub fn config(&self) -> Config {
        self.config
    }

    pub fn db(&self) -> &'db Database {
        self.session.database()
    }

    /// The run's session.
    pub fn session(&self) -> &Session<'db> {
        &self.session
    }

    /// Another session with the run's configuration.
    pub fn new_session(&self) -> Session<'db> {
        let session = self.db().session();
        self.config.apply(&session);
        session
    }

    /// Run `sql` on the run's session and record its answer.
    pub fn query(&self, sql: &str) -> Result<Arc<Table>> {
        self.query_with_params(sql, &[])
    }

    /// Run `sql` with `params` on the run's session and record its answer.
    pub fn query_with_params(&self, sql: &str, params: &[Value]) -> Result<Arc<Table>> {
        let result = self.session.query_with_params(sql, params);
        let label = if params.is_empty() { sql.to_string() } else { format!("{sql} {params:?}") };
        self.record(&label, answer(&result));
        result
    }

    /// Record an answer obtained some other way, under `label`.
    pub fn record(&self, label: &str, answer: String) {
        self.answers.borrow_mut().push((label.to_string(), answer));
    }
}

/// Run `body` in every configuration, each on its own database after
/// `setup` (each entry one statement or script), and assert that every
/// configuration records the answers of its reference. The configurations
/// run concurrently; a failing one names itself as the panicking thread.
pub fn sweep<S: AsRef<str> + Sync>(setup: &[S], body: impl Fn(&Run<'_>) + Sync) {
    let runs: Vec<(Config, Vec<(String, String)>)> = std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = Config::all()
            .into_iter()
            .map(|config| {
                std::thread::Builder::new()
                    .name(config.to_string())
                    .spawn_scoped(scope, move || (config, run_one(config, setup, body)))
                    .unwrap()
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    for (config, got) in &runs {
        let (_, want) = runs.iter().find(|(c, _)| *c == config.reference()).unwrap();
        assert_eq!(got.len(), want.len(), "{config}: number of answers");
        for ((label, got), (_, want)) in got.iter().zip(want) {
            assert_eq!(got, want, "{config} vs {}: {label}", config.reference());
        }
    }
}

fn run_one<S: AsRef<str>>(
    config: Config,
    setup: &[S],
    body: &impl Fn(&Run<'_>),
) -> Vec<(String, String)> {
    let run_setup = |db: &Database, statements: &[S]| {
        let session = db.session();
        config.apply(&session);
        for sql in statements {
            session.execute_script(sql.as_ref()).unwrap();
        }
    };
    let dir = TempDir::new("sweep");
    let db = if config.durable {
        let (before, after) = setup.split_at(setup.len() / 2);
        {
            let db = Database::open(dir.path()).unwrap();
            run_setup(&db, before);
            db.execute("CHECKPOINT").unwrap();
            run_setup(&db, after);
        }
        Database::open(dir.path()).unwrap()
    } else {
        let db = Database::new();
        run_setup(&db, setup);
        db
    };
    let session = db.session();
    config.apply(&session);
    let run = Run { config, session, answers: RefCell::new(Vec::new()) };
    body(&run);
    run.answers.into_inner()
}
