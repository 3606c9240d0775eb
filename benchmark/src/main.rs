//! `gsql-bench`: the repo's one benchmark driver.
//!
//! ```text
//! gsql-bench run [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//!                [--runs N] [--smoke] [--out FILE]
//! gsql-bench compare <a.json> <b.json>
//! ```
//!
//! `run` executes each workload in a fresh child process (this binary,
//! re-executed) with every `GSQL_*` override removed from its environment,
//! and prints one result line per run: `correct`, `attempted`, `failed` and
//! the metrics `BENCHMARK.json` names for the mode. `--out` keeps the full
//! documents — informational values and run facts included — for `compare`.

mod compare;
mod oracle;
mod report;
mod run;
mod samples;
mod spans;
mod spec;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: gsql-bench run [--workload <name>|all] [--seed N] [--seconds S] \
[--trace 0|1] [--runs N] [--smoke] [--out FILE]\n       gsql-bench compare <a.json> <b.json>";

/// The value following `flag`, if the flag is present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run::parent(&args[1..]),
        // Internal: what `run` re-executes itself as, once per workload run.
        Some("child") => run::child(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
