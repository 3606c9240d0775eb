//! The eight workloads and the flow every one of them runs through.
//!
//! An untraced run sets up several times (reporting the median as
//! `setup_s`), warms up, runs a closed loop for `--seconds`, reads the
//! process's peak RSS, and only then builds the oracle and verifies every
//! recorded answer. A traced run first replays a fixed pool of operations
//! layer by layer, then splits its window between plain loops, loops with
//! the benchmark's spans on and loops with the engine's own `SET trace = on`.

mod durable_ingest;
mod rel_pipeline;
mod road_accel;
mod serve_mixed;
mod snb;
mod update_mix;

use crate::report::Report;
use crate::samples::Samples;
use crate::spans::{Tracer, OP};
use gsql_core::{Database, Session};
use gsql_datagen::{SnbDataset, SnbParams};
use gsql_graph::{TraversalKind, TraversalObserver};
use gsql_storage::Table;
use rand::prelude::*;
use rand::rngs::SmallRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times an untraced run sets up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Replayed layers and the per-layer metric their share is printed as.
const LAYER_SHARES: [(&str, &str); 8] = [
    (PARSER, "share_parser_pct"),
    (PLAN, "share_plan_pct"),
    (BUILD_GRAPH, "share_build_graph_pct"),
    (GRAPH, "share_graph_pct"),
    (ACCEL, "share_accel_pct"),
    (EXEC, "share_exec_pct"),
    (PERSIST, "share_persist_pct"),
    (SERVER, "share_server_pct"),
];

// Layer names: this repo's modules.
pub const PARSER: &str = "parser";
pub const PLAN: &str = "core.plan";
pub const BUILD_GRAPH: &str = "core.build_graph";
pub const GRAPH: &str = "graph";
pub const ACCEL: &str = "accel";
pub const EXEC: &str = "core.exec";
pub const PERSIST: &str = "storage.persist";
pub const SERVER: &str = "server";

/// LDBC SNB Interactive Q13: unweighted shortest-path length (paper §4).
pub const Q13: &str =
    "SELECT CHEAPEST SUM(1) AS distance WHERE ? REACHES ? OVER friends EDGE (src, dst)";

/// The paper's Q14 variant (appendix A.4): one weighted shortest path over
/// the doubled, integer-cast affinity weights, returned as `(cost, path)`.
pub const Q14_VARIANT: &str =
    "SELECT CHEAPEST SUM(f: CAST(weight * 2 AS INTEGER)) AS (cost, path) \
     WHERE ? REACHES ? OVER friends f EDGE (src, dst)";

/// Paper Fig. 1b: `pairs` evaluated in one statement through a VALUES CTE.
pub fn batched_q13(pairs: &[(i64, i64)]) -> String {
    let values: Vec<String> = pairs.iter().map(|(s, d)| format!("({s}, {d})")).collect();
    format!(
        "WITH pairs (s, d) AS (VALUES {}) \
         SELECT pairs.s, pairs.d, CHEAPEST SUM(1) AS distance \
         FROM pairs \
         WHERE pairs.s REACHES pairs.d OVER friends EDGE (src, dst)",
        values.join(", ")
    )
}

/// What one child process was asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
    /// Test-only: make the oracle wrong, so `run` must report failures.
    pub corrupt_oracle: bool,
    /// A directory inside the build directory this process may write to.
    pub scratch: PathBuf,
    pub nproc: usize,
}

impl Cfg {
    /// `full` at benchmark scale, `smoke` under `--smoke`.
    pub fn scale<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// A workload's own deterministic generator, distinct per `salt`.
    pub fn rng(&self, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// The parts of one set-up, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupParts {
    pub datagen_s: f64,
    pub load_s: f64,
    pub index_build_s: f64,
}

/// How a timed loop observes its operations.
pub enum RunMode<'t> {
    Plain,
    /// One benchmark `op` span per operation.
    Spans(&'t mut Tracer),
    /// The engine's own `SET trace = on` (the `obs` layer's cost).
    EngineTrace,
}

impl<'t> RunMode<'t> {
    pub fn engine_trace(&self) -> bool {
        matches!(self, RunMode::EngineTrace)
    }

    /// The tracer `op` spans go to, when this loop records them.
    pub fn tracer(&mut self) -> Option<&mut Tracer> {
        match self {
            RunMode::Spans(t) => Some(t),
            _ => None,
        }
    }

    /// Fold the per-client logs of a concurrent loop into one sample set,
    /// and their spans into this mode's tracer.
    pub fn merge_clients(mut self, clients: Vec<(Samples, Option<Tracer>)>) -> Samples {
        let mut merged = Samples::new();
        for (samples, spans) in clients {
            merged.merge(samples);
            if let (Some(sink), Some(spans)) = (self.tracer(), spans) {
                sink.absorb(spans);
            }
        }
        merged
    }
}

/// One timed closed loop.
pub struct Phase {
    pub samples: Samples,
    pub elapsed: Duration,
}

pub trait Workload: Sized {
    /// Datagen, load and index build — everything before the timed phase.
    fn setup(cfg: &Cfg) -> (Self, SetupParts);
    /// The database under test (for its engine-wide counters).
    fn db(&self) -> &Database;
    /// Unmeasured operations, so lazily built structures exist before timing.
    fn warmup(&mut self);
    /// Run the closed loop until `deadline`, recording every answer.
    fn run(&mut self, deadline: Instant, mode: RunMode<'_>) -> Phase;
    /// Verify every answer recorded so far: `(attempted, failed)`.
    fn verify(&mut self, report: &mut Report) -> (u64, u64);
    /// Run the fixed operation pool once, each operation followed by a
    /// replay of its inputs through the layers' public calls.
    fn layers(&mut self, tracer: &mut Tracer, report: &mut Report);
    /// The layer that operation time no replay covers belongs to, where
    /// that is known by definition; otherwise it stays unattributed.
    fn remainder_layer() -> Option<&'static str> {
        None
    }
    /// Stop threads and remove files this workload created.
    fn teardown(self) {}
}

/// Run the workload called `name`; `None` when there is no such workload.
pub fn run_named(name: &str, cfg: &Cfg, report: &mut Report) -> Option<()> {
    match name {
        "snb_adhoc" => drive::<snb::Adhoc>(cfg, report),
        "snb_weighted_path" => drive::<snb::WeightedPath>(cfg, report),
        "snb_batch" => drive::<snb::Batch>(cfg, report),
        "road_accel" => drive::<road_accel::RoadAccel>(cfg, report),
        "update_mix" => drive::<update_mix::UpdateMix>(cfg, report),
        "rel_pipeline" => drive::<rel_pipeline::RelPipeline>(cfg, report),
        "serve_mixed" => drive::<serve_mixed::ServeMixed>(cfg, report),
        "durable_ingest" => drive::<durable_ingest::DurableIngest>(cfg, report),
        _ => return None,
    }
    Some(())
}

fn drive<W: Workload>(cfg: &Cfg, report: &mut Report) {
    report.note("nproc", cfg.nproc);
    report.note("threads", Database::new().session().setting("threads").unwrap_or_default());
    if cfg.trace {
        drive_traced::<W>(cfg, report)
    } else {
        drive_plain::<W>(cfg, report)
    }
}

fn put_setup(report: &mut Report, parts: SetupParts) {
    report.put("datagen_s", parts.datagen_s, "s");
    report.put("load_s", parts.load_s, "s");
    report.put("index_build_s", parts.index_build_s, "s");
}

fn drive_plain<W: Workload>(cfg: &Cfg, report: &mut Report) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<W> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            previous.teardown();
        }
        let t0 = Instant::now();
        let (w, parts) = W::setup(cfg);
        setups.push((t0.elapsed().as_secs_f64(), parts));
        kept = Some(w);
    }
    setups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (setup_s, parts) = setups[setups.len() / 2];
    report.put("setup_s", setup_s, "s");
    put_setup(report, parts);
    report.note("setup_reps", SETUP_REPS);

    let mut w = kept.expect("at least one set-up");
    w.warmup();
    let mut phase = w.run(Instant::now() + Duration::from_secs_f64(cfg.seconds), RunMode::Plain);
    // Read before the oracle exists: the peak is the engine's, not the
    // verifier's.
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    let (attempted, failed) = w.verify(report);
    w.teardown();

    report.attempted = attempted;
    report.failed = failed;
    let samples = &mut phase.samples;
    // Correct statements per second at the phase's steady rate.
    let correct_share = (attempted - failed) as f64 / attempted.max(1) as f64;
    report.put("ops_per_s", samples.steady_rate(phase.elapsed) * correct_share, "1/s");
    report.put("ops_per_s_mean", (attempted - failed) as f64 / phase.elapsed.as_secs_f64(), "1/s");
    report.put("lat_p50_ms", samples.percentile_ms(0.50), "ms");
    report.put("lat_p95_ms", samples.percentile_ms(0.95), "ms");
    report.put("lat_p99_ms", samples.percentile_ms(0.99), "ms");
    report.put("lat_max_ms", samples.max_ms(), "ms");
    report.put("lat_mean_ms", samples.mean_ms(), "ms");
    if let Some((p, ms)) = samples.tail_ms() {
        report.put("lat_tail_ms", ms, "ms");
        report.note("lat_tail_percentile", p * 100.0);
    }
    report.put("samples", samples.len() as f64, "count");
    report.put("fail_ratio", failed as f64 / attempted.max(1) as f64, "ratio");
    report.put("timed_s", phase.elapsed.as_secs_f64(), "s");
}

fn drive_traced<W: Workload>(cfg: &Cfg, report: &mut Report) {
    let (mut w, parts) = W::setup(cfg);
    put_setup(report, parts);
    w.warmup();

    // The replay comes first, straight after set-up and warm-up, so its
    // counts (settled vertices, log bytes) do not depend on how many
    // operations the timed loops below happen to fit.
    let mut tracer = Tracer::new(Instant::now());
    w.layers(&mut tracer, report);
    let op_ns = tracer.total_ns(OP).max(1) as f64;
    let own = tracer.self_ns();
    let share = |layer: &str| own.get(layer).copied().unwrap_or(0) as f64 / op_ns * 100.0;
    let mut unattributed = 100.0 - LAYER_SHARES.iter().map(|&(layer, _)| share(layer)).sum::<f64>();
    for (layer, metric) in LAYER_SHARES {
        let booked = if W::remainder_layer() == Some(layer) {
            std::mem::take(&mut unattributed)
        } else {
            0.0
        };
        report.put(metric, share(layer) + booked, "%");
    }
    report.put("unattributed_pct", unattributed, "%");
    report.put("replayed_op_us", op_ns / 1e3, "us");

    // Three loops over the same pool: plain, with the benchmark's spans,
    // with the engine's tracing. Each runs twice, in mirrored order, so a
    // drift over the window (warming caches, a growing table) cancels out;
    // each overhead is against the plain loop.
    let slice = Duration::from_secs_f64(cfg.seconds / 8.0);
    let mut loop_spans = Tracer::new(Instant::now());
    let counters = |w: &W| {
        let m = w.db().metrics();
        (m.plan_cache_hits.get(), m.plan_cache_misses.get())
    };
    let (mut hits, mut misses) = (0, 0);
    let mut loops = [(0usize, Duration::ZERO); 3];
    for kind in [0, 1, 2, 2, 1, 0] {
        let before = counters(&w);
        let deadline = Instant::now() + slice;
        let phase = match kind {
            0 => w.run(deadline, RunMode::Plain),
            1 => w.run(deadline, RunMode::Spans(&mut loop_spans)),
            _ => w.run(deadline, RunMode::EngineTrace),
        };
        if kind == 0 {
            hits += counters(&w).0 - before.0;
            misses += counters(&w).1 - before.1;
        }
        loops[kind].0 += phase.samples.len();
        loops[kind].1 += phase.elapsed;
    }
    let rate = |kind: usize| loops[kind].0 as f64 / loops[kind].1.as_secs_f64();
    report.put("plan_cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    report.put("bench_trace_overhead_pct", (1.0 - rate(1) / rate(0)) * 100.0, "%");
    report.put("trace_overhead_pct", (1.0 - rate(2) / rate(0)) * 100.0, "%");
    report.put("untraced_ops_per_s", rate(0), "1/s");

    let (attempted, failed) = w.verify(report);
    w.teardown();
    report.attempted = attempted;
    report.failed = failed;

    tracer.absorb(loop_spans);
    report.put("spans", tracer.len() as f64, "count");
    let path = cfg.scratch.join(format!("trace-{}.json", report.workload));
    match tracer.write_json(&path) {
        Ok(()) => report.note("trace_file", path.display()),
        Err(e) => report.note("trace_file_error", e),
    }
}

// ------------------------------------------------------------- shared parts

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A session on `db`, with the engine's own tracing on when asked.
pub fn open_session(db: &Database, engine_trace: bool) -> Session<'_> {
    let session = db.session();
    if engine_trace {
        session.set("trace", "on").expect("trace is a setting");
    }
    session
}

/// The first column of a result's first row as an integer; `None` for an
/// empty result (an unreachable pair).
pub fn first_int(result: gsql_core::Result<Arc<Table>>) -> Result<Option<i64>, String> {
    let table = result.map_err(|e| e.to_string())?;
    Ok((table.row_count() > 0).then(|| table.row(0)[0].as_int()).flatten())
}

/// Mean microseconds per operation.
pub fn per_op_us(total: Duration, ops: usize) -> f64 {
    total.as_secs_f64() * 1e6 / ops.max(1) as f64
}

/// `count` uniform random `(source, destination)` ids out of `1..=n` — the
/// paper's parameter generation.
pub fn sample_pairs(rng: &mut SmallRng, n: u64, count: usize) -> Vec<(i64, i64)> {
    (0..count).map(|_| (rng.gen_range(1..=n as i64), rng.gen_range(1..=n as i64))).collect()
}

/// Time one operation, under an `op` span when the loop has a tracer.
pub fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    op_id: u32,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    match tracer {
        Some(t) => t.time(OP, None, op_id, f),
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed())
        }
    }
}

/// Map `f` over `items` on `threads` scoped threads, keeping input order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("verifier thread panicked")).collect()
    })
}

/// Counts the vertices the graph runtime settles during a replay.
#[derive(Default)]
pub struct Settled(AtomicU64);

impl Settled {
    pub fn vertices(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl TraversalObserver for Settled {
    fn traversal(&self, _kind: TraversalKind, settled: usize) {
        self.0.fetch_add(settled as u64, Ordering::Relaxed);
    }
}

/// The generated SNB friendship graph, loaded into a fresh database.
pub struct SnbEnv {
    pub db: Arc<Database>,
    pub num_persons: u64,
    /// Generated edge arrays, in edge-table row order, kept for the oracle.
    pub src: Vec<i64>,
    pub dst: Vec<i64>,
    /// `CAST(weight * 2 AS INTEGER)` per edge, computed here, not by SQL.
    pub weight2: Vec<i64>,
}

impl SnbEnv {
    pub fn setup(cfg: &Cfg, indexed: bool) -> (SnbEnv, SetupParts) {
        let t0 = Instant::now();
        let data =
            SnbDataset::generate(SnbParams { scale_factor: cfg.scale(1.0, 0.05), seed: cfg.seed });
        let datagen_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let db = Arc::new(Database::new());
        data.load_into(&db).expect("fresh database");
        let load_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        if indexed {
            db.execute("CREATE GRAPH INDEX friends_graph ON friends EDGE (src, dst)")
                .expect("graph index");
        }
        let index_build_s = t0.elapsed().as_secs_f64();

        let ints =
            |col: usize| data.friends.column(col).as_int_slice().expect("int column").0.to_vec();
        let (weights, _) = data.friends.column(3).as_double_slice().expect("double column");
        let env = SnbEnv {
            db,
            num_persons: data.num_persons,
            src: ints(0),
            dst: ints(1),
            weight2: weights.iter().map(|w| (w * 2.0) as i64).collect(),
        };
        (env, SetupParts { datagen_s, load_s, index_build_s })
    }

    /// The oracle over the generated arrays (hop weights and Q14 weights).
    pub fn oracle(&self, cfg: &Cfg) -> crate::oracle::Oracle {
        crate::oracle::Oracle::new(
            self.num_persons as u32,
            &self.src,
            &self.dst,
            self.weight2.clone(),
            cfg.corrupt_oracle,
        )
    }
}

/// Load a generated `roads(src, dst, minutes)` grid through SQL `INSERT`s,
/// as an application would; returns the edge arrays for the oracle.
pub fn load_roads(db: &Database, width: u32, height: u32, seed: u64) -> (RoadEdges, SetupParts) {
    let t0 = Instant::now();
    let roads = gsql_datagen::road::grid_network(width, height, 9, seed);
    let ints = |col: usize| roads.column(col).as_int_slice().expect("int column").0.to_vec();
    let edges =
        RoadEdges { vertices: width * height, src: ints(0), dst: ints(1), minutes: ints(2) };
    let datagen_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    db.execute(
        "CREATE TABLE roads (src INTEGER NOT NULL, dst INTEGER NOT NULL, \
         minutes INTEGER NOT NULL)",
    )
    .expect("fresh database");
    for chunk in 0..edges.src.len().div_ceil(4096) {
        let rows: Vec<String> = (chunk * 4096..((chunk + 1) * 4096).min(edges.src.len()))
            .map(|i| format!("({}, {}, {})", edges.src[i], edges.dst[i], edges.minutes[i]))
            .collect();
        db.execute(&format!("INSERT INTO roads VALUES {}", rows.join(", "))).expect("road load");
    }
    let load_s = t0.elapsed().as_secs_f64();
    (edges, SetupParts { datagen_s, load_s, index_build_s: 0.0 })
}

pub struct RoadEdges {
    pub vertices: u32,
    pub src: Vec<i64>,
    pub dst: Vec<i64>,
    pub minutes: Vec<i64>,
}
