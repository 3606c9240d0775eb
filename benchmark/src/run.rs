//! `gsql-bench run`: the parent that isolates each workload run in a child
//! process, and the child that runs it.

use crate::flag_value;
use crate::report::{contract_line, Report};
use crate::spec::spec;
use crate::workloads::{run_named, Cfg};
use gsql_server::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const DEFAULT_SEED: u64 = 2017;

/// Measured seconds of a `--smoke` run unless `--seconds` says otherwise.
const SMOKE_SECONDS: f64 = 0.4;

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    smoke: bool,
    corrupt_oracle: bool,
    out: Option<PathBuf>,
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(text) => text.parse().map_err(|_| format!("{flag}: cannot read '{text}'")),
    }
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let known = &spec().workloads;
        let workloads = match flag_value(args, "--workload").unwrap_or("all") {
            "all" => known.clone(),
            name if known.iter().any(|w| w == name) => vec![name.to_string()],
            name => return Err(format!("no workload '{name}'; known: {}", known.join(", "))),
        };
        let smoke = args.iter().any(|a| a == "--smoke");
        let default_seconds = if smoke { SMOKE_SECONDS } else { spec().run_seconds as f64 };
        let seconds: f64 = parsed(args, "--seconds", default_seconds)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds: {seconds} is outside (0, 600]"));
        }
        Ok(Options {
            workloads,
            seed: parsed(args, "--seed", DEFAULT_SEED)?,
            seconds,
            trace: match parsed::<u8>(args, "--trace", 0)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace: expected 0 or 1, got {other}")),
            },
            runs: parsed(args, "--runs", 1)?,
            smoke,
            // Test-only: verification must then fail, and `run` with it.
            corrupt_oracle: args.iter().any(|a| a == "--corrupt-oracle"),
            out: flag_value(args, "--out").map(PathBuf::from),
        })
    }
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Run one workload once in a child process; its full document on success.
fn run_child(options: &Options, workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe);
    child
        .arg("child")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }]);
    if options.smoke {
        child.arg("--smoke");
    }
    if options.corrupt_oracle {
        child.arg("--corrupt-oracle");
    }
    // Ambient engine overrides (GSQL_THREADS, GSQL_PIPELINE, GSQL_PATH_INDEX*,
    // GSQL_DATA_DIR, ...) would change what is measured: none reaches a run.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GSQL_") {
            child.env_remove(key);
        }
    }
    let output = child
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().next_back().unwrap_or_default();
    json::parse(line).map_err(|e| format!("{workload}: unreadable child document: {e}"))
}

fn summary(doc: &Json) -> String {
    let text = |k: &str| doc.get(k).map(Json::encode).unwrap_or_default();
    let mut line = format!(
        "{} seed={} correct={} attempted={} failed={}",
        text("workload"),
        text("seed"),
        text("correct"),
        text("attempted"),
        text("failed")
    );
    if let Some(Json::Object(metrics)) = doc.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").map(Json::encode).unwrap_or_default();
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            line.push_str(&format!("\n    {name} = {value} {unit}"));
        }
    }
    line
}

/// `gsql-bench run`. `Ok(false)` when any run failed or answered wrongly.
pub fn parent(args: &[String]) -> Result<bool, String> {
    let options = Options::parse(args)?;
    let mut all_correct = true;
    let mut documents = Vec::new();
    for workload in &options.workloads {
        for run in 0..options.runs {
            match run_child(&options, workload, options.seed + run) {
                Ok(doc) => {
                    eprintln!("{}", summary(&doc));
                    println!("{}", contract_line(&doc));
                    all_correct &= doc.get("correct") == Some(&Json::Bool(true));
                    documents.push(doc);
                }
                Err(message) => {
                    eprintln!("{message}");
                    all_correct = false;
                }
            }
        }
    }
    if let Some(path) = &options.out {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let meta = Json::Object(vec![
            ("git_head".to_string(), Json::from(git_head())),
            ("nproc".to_string(), Json::from(nproc)),
            ("seed".to_string(), Json::from(options.seed)),
            ("seconds".to_string(), Json::Float(options.seconds)),
            ("runs_per_workload".to_string(), Json::from(options.runs)),
        ]);
        let document = Json::Object(vec![
            ("meta".to_string(), meta),
            ("runs".to_string(), Json::Array(documents)),
        ]);
        std::fs::write(path, document.encode() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

/// `gsql-bench child`: run one workload in this process and print its
/// document as the last line of stdout.
pub fn child(args: &[String]) -> Result<bool, String> {
    let workload = flag_value(args, "--workload").ok_or("child: --workload is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    // <target>/<profile>/gsql-bench → <target>/bench: inside the build
    // directory, which is the only place a run may write.
    let scratch = exe.parent().and_then(|p| p.parent()).ok_or("executable has no directory")?;
    let cfg = Cfg {
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        seconds: parsed(args, "--seconds", spec().run_seconds as f64)?,
        smoke: args.iter().any(|a| a == "--smoke"),
        trace: parsed::<u8>(args, "--trace", 0)? == 1,
        corrupt_oracle: args.iter().any(|a| a == "--corrupt-oracle"),
        scratch: scratch.join("bench"),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    };
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("{}: {e}", cfg.scratch.display()))?;
    let mut report = Report::new(workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke);
    run_named(workload, &cfg, &mut report).ok_or_else(|| format!("no workload '{workload}'"))?;
    println!("{}", report.to_json().encode());
    Ok(true)
}
