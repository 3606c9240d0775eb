//! An interactive SQL shell for the `gsql` engine.
//!
//! ```text
//! cargo run -p gsql-shell --release
//! gsql> CREATE TABLE friends (src INTEGER, dst INTEGER);
//! gsql> INSERT INTO friends VALUES (1,2), (2,3);
//! gsql> SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER friends EDGE (src, dst);
//! ```
//!
//! Meta commands: `\help`, `\tables`, `\load-snb <sf>`, `\quit`.
//! Statements may span lines; they run once a line ends with `;`.
//!
//! `--data-dir <path>` makes the database durable: statements are WAL-
//! logged, `CHECKPOINT` writes a snapshot, and restarting the shell over
//! the same directory recovers everything — including built path indexes,
//! which answer accelerated queries immediately (warm start).
//!
//! `--serve [addr]` starts the HTTP serving tier instead of the REPL:
//!
//! ```text
//! cargo run -p gsql-shell --release -- --serve 127.0.0.1:7432 --load-snb 0.3
//! curl -d '{"sql": "SELECT 1"}' http://127.0.0.1:7432/query
//! ```

use gsql_core::{Database, IndexSpace, QueryResult, Session};
use gsql_datagen::{SnbDataset, SnbParams};
use gsql_server::{serve, ServerConfig};
use std::io::{BufRead, Write};
use std::sync::Arc;

const HELP: &str = "\
Commands:
  \\help            show this help
  \\tables          list tables (and graph and path indexes)
  \\load-snb <sf>   generate + load the LDBC-SNB-like dataset at a scale factor
  \\quit            exit
Any other input is SQL; statements end with ';'.
The paper's extension is available:
  SELECT CHEAPEST SUM([e:] expr) [AS (cost, path)] ...
  WHERE x REACHES y OVER edge_table [e] EDGE (src, dst)
  ... FROM t, UNNEST(t.path) [WITH ORDINALITY] AS r
Session statements (state persists for the whole shell session):
  SET <option> = <value>   e.g. SET row_limit = 10000, SET trace = on
  SET threads = N          parallel execution width (1 = sequential;
                           default: all hardware threads)
  SHOW <option> | SHOW ALL
  EXPLAIN <query>          optimized logical plan
  EXPLAIN ANALYZE <query>  executed plan with per-operator rows and timing
  CHECKPOINT               force a durable snapshot (shell started with --data-dir)
";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--serve") {
        run_server(&args);
        return;
    }
    let db = open_database(&args);
    // One session for the whole interactive run: SET/SHOW state survives
    // across statements (the plan cache is the database's).
    let session = db.session();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut buffer = String::new();

    println!("gsql shell — Extending SQL for Computing Shortest Paths (GRADES'17 reproduction)");
    println!("type \\help for help");
    loop {
        if buffer.is_empty() {
            print!("gsql> ");
        } else {
            print!("  ..> ");
        }
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !run_meta(&db, trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let sql = std::mem::take(&mut buffer);
        run_sql(&session, &sql);
    }
}

/// The value following `--flag`, when present and not another flag.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .filter(|v| !v.starts_with("--"))
}

/// Open the database the REPL or server runs over: durable at
/// `--data-dir <path>` (recovering any existing WAL/snapshot state), else
/// in-memory.
fn open_database(args: &[String]) -> Database {
    match flag_value(args, "--data-dir") {
        Some(dir) => match Database::open(dir) {
            Ok(db) => {
                println!("durable database at {dir} ({} tables)", db.catalog().table_names().len());
                db
            }
            Err(e) => {
                eprintln!("failed to open data dir {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => Database::new(),
    }
}

/// `--serve [addr]` mode: load an (optional) dataset, start the HTTP
/// tier, block until ctrl-c / SIGTERM kills the process. Flags:
/// `--workers N`, `--queue-depth N`, `--timeout-ms N`, `--load-snb SF`,
/// `--data-dir PATH` (durable WAL + checkpoints).
fn run_server(args: &[String]) {
    let flag = |name: &str| flag_value(args, name);
    let db = open_database(args);
    if let Some(sf) = flag("--load-snb").and_then(|v| v.parse::<f64>().ok()) {
        let t0 = std::time::Instant::now();
        let data = SnbDataset::generate(SnbParams::new(sf));
        data.load_into(&db).expect("dataset load failed");
        println!(
            "loaded persons ({}) and friends ({}) in {:?}",
            data.num_persons,
            data.num_edges,
            t0.elapsed()
        );
    }
    let mut config = ServerConfig::default();
    if let Some(addr) = flag("--serve") {
        config.addr = addr.to_string();
    }
    if let Some(v) = flag("--workers").and_then(|v| v.parse().ok()) {
        config.workers = v;
    }
    if let Some(v) = flag("--queue-depth").and_then(|v| v.parse().ok()) {
        config.queue_depth = v;
    }
    if let Some(v) = flag("--timeout-ms").and_then(|v| v.parse().ok()) {
        config.default_timeout_ms = Some(v);
    }
    config.data_dir = flag("--data-dir").map(std::path::PathBuf::from);
    let workers = config.workers;
    match serve(Arc::new(db), config) {
        Ok(server) => {
            println!("serving on http://{} ({} workers)", server.addr(), workers);
            println!("endpoints: POST /query, GET /health, GET /metrics, GET /slowlog");
            // No signal handling without external crates: park forever and
            // let process termination tear the threads down.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("failed to start server: {e}");
            std::process::exit(1);
        }
    }
}

/// Handle a meta command; returns false to exit the shell.
fn run_meta(db: &Database, command: &str) -> bool {
    let mut parts = command.split_whitespace();
    match parts.next() {
        Some("\\quit") | Some("\\q") => return false,
        Some("\\help") | Some("\\h") => print!("{HELP}"),
        Some("\\tables") => {
            for name in db.catalog().table_names() {
                match db.catalog().get(&name) {
                    Ok(t) => println!("{name}  ({} rows) {}", t.row_count(), t.schema()),
                    Err(_) => println!("{name}"),
                }
            }
            for space in [IndexSpace::Graph, IndexSpace::Path] {
                let indexes = db.indexes().index_names(space);
                if !indexes.is_empty() {
                    println!("{}es: {}", space.noun(), indexes.join(", "));
                }
            }
        }
        Some("\\import") => {
            let (table, file) = match (parts.next(), parts.next()) {
                (Some(t), Some(f)) => (t, f),
                _ => {
                    println!("usage: \\import <table> <file.csv>");
                    return true;
                }
            };
            match std::fs::File::open(file) {
                Ok(f) => match db.import_csv(table, std::io::BufReader::new(f)) {
                    Ok(n) => println!("{n} row(s) imported into {table}"),
                    Err(e) => println!("error: {e}"),
                },
                Err(e) => println!("error opening {file}: {e}"),
            }
        }
        Some("\\export") => {
            let Some(file) = parts.next() else {
                println!("usage: \\export <file.csv> <query>");
                return true;
            };
            let query: String = parts.collect::<Vec<_>>().join(" ");
            if query.is_empty() {
                println!("usage: \\export <file.csv> <query>");
                return true;
            }
            match db.export_csv(&query) {
                Ok(csv) => match std::fs::write(file, csv) {
                    Ok(()) => println!("wrote {file}"),
                    Err(e) => println!("error writing {file}: {e}"),
                },
                Err(e) => println!("error: {e}"),
            }
        }
        Some("\\load-snb") => match parts.next().and_then(|s| s.parse::<f64>().ok()) {
            Some(sf) => {
                let t0 = std::time::Instant::now();
                let data = SnbDataset::generate(SnbParams::new(sf));
                match data.load_into(db) {
                    Ok(()) => println!(
                        "loaded persons ({}) and friends ({}) in {:?}",
                        data.num_persons,
                        data.num_edges,
                        t0.elapsed()
                    ),
                    Err(e) => println!("error: {e}"),
                }
            }
            None => println!("usage: \\load-snb <scale factor>, e.g. \\load-snb 0.1"),
        },
        _ => println!("unknown command; try \\help"),
    }
    true
}

fn run_sql(session: &Session<'_>, sql: &str) {
    let t0 = std::time::Instant::now();
    match session.execute_script(sql) {
        Ok(results) => {
            for r in results {
                match r {
                    QueryResult::Table(t) => print!("{t}"),
                    QueryResult::Affected(n) => println!("{n} row(s) affected"),
                    QueryResult::Ok => println!("ok"),
                }
            }
            println!("({:?})", t0.elapsed());
        }
        Err(e) => println!("error: {e}"),
    }
}
